//! The device state machine: budgeted allocation, transfers, kernels.

use crate::buffer::DeviceBuffer;
use crate::fault::{FaultPlan, FaultSite};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Errors surfaced by the simulated device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// An allocation did not fit in the remaining budget — the same
    /// failure mode that stops the paper's largest instance on the A100.
    OutOfMemory {
        /// Bytes requested by the allocation.
        requested: usize,
        /// Bytes still available on the device.
        available: usize,
    },
    /// A fault injected by the device's [`FaultPlan`] — deterministic
    /// chaos for resilience testing, not a genuine budget failure.
    /// Transient by definition: retrying the operation advances the
    /// fault stream, so a retry may succeed.
    Injected {
        /// The operation class that fired.
        site: FaultSite,
        /// Position in that site's operation stream (replays under the
        /// same plan fire at the same positions).
        op: u64,
    },
}

impl DeviceError {
    /// True for faults injected by a [`FaultPlan`] (transient), false
    /// for genuine budget failures (permanent at this capacity).
    pub fn is_injected(&self) -> bool {
        matches!(self, DeviceError::Injected { .. })
    }
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "device out of memory: requested {requested} B, {available} B available"
            ),
            DeviceError::Injected { site, op } => {
                write!(f, "injected {site} fault (op {op})")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// Shared device bookkeeping (buffers hold an `Arc` to it so drops can
/// release their bytes).
#[derive(Debug)]
pub(crate) struct DeviceState {
    pub(crate) capacity: usize,
    pub(crate) used: AtomicUsize,
    pub(crate) peak: AtomicUsize,
    pub(crate) h2d_bytes: AtomicUsize,
    pub(crate) d2h_bytes: AtomicUsize,
    pub(crate) kernel_launches: AtomicUsize,
    pub(crate) alloc_lock: Mutex<()>,
    /// Active fault plan (`None` = no injection, the default — the hot
    /// path then pays exactly one branch per site).
    pub(crate) faults: Option<FaultPlan>,
    /// Per-device-site operation counters: the stream positions fed to
    /// [`FaultPlan::fires`]. Separate streams per site so an extra
    /// alloc cannot shift which launch fails.
    pub(crate) fault_ops: [AtomicU64; 4],
    /// Total faults injected by this device (reporting).
    pub(crate) faults_injected: AtomicU64,
}

/// Counters snapshot for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Bytes currently allocated.
    pub used_bytes: usize,
    /// High-water mark of allocated bytes.
    pub peak_bytes: usize,
    /// Total bytes copied host → device.
    pub h2d_bytes: usize,
    /// Total bytes copied device → host.
    pub d2h_bytes: usize,
    /// Number of kernel launches.
    pub kernel_launches: usize,
}

/// A simulated accelerator with a fixed memory capacity.
#[derive(Clone)]
pub struct DeviceSim {
    state: Arc<DeviceState>,
}

impl DeviceSim {
    /// Creates a device with `capacity` bytes of memory.
    pub fn new(capacity: usize) -> DeviceSim {
        DeviceSim::with_fault_plan(capacity, None)
    }

    /// Creates a device with `capacity` bytes of memory and an optional
    /// fault plan: device-site rates in `faults` make alloc/reserve/
    /// upload/launch operations fail deterministically as
    /// [`DeviceError::Injected`].
    pub fn with_fault_plan(capacity: usize, faults: Option<FaultPlan>) -> DeviceSim {
        DeviceSim {
            state: Arc::new(DeviceState {
                capacity,
                used: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                h2d_bytes: AtomicUsize::new(0),
                d2h_bytes: AtomicUsize::new(0),
                kernel_launches: AtomicUsize::new(0),
                alloc_lock: Mutex::new(()),
                // A no-op plan is the same as no plan; normalizing here
                // keeps the disabled-path guarantee (one branch, no
                // hashing) even when callers pass a zero-rate plan.
                faults: faults.filter(|p| !p.is_noop()),
                fault_ops: [
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                ],
                faults_injected: AtomicU64::new(0),
            }),
        }
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.state.faults
    }

    /// Total faults this device has injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.state.faults_injected.load(Ordering::Relaxed)
    }

    /// The single per-operation fault gate: advances `site`'s stream and
    /// asks the plan for a verdict. With no plan installed this is one
    /// branch — no atomic traffic, no hashing.
    #[inline]
    fn fault_check(&self, site: FaultSite) -> Result<(), DeviceError> {
        if let Some(plan) = &self.state.faults {
            let op = self.state.fault_ops[site.index()].fetch_add(1, Ordering::Relaxed);
            if plan.fires(site, op) {
                self.state.faults_injected.fetch_add(1, Ordering::Relaxed);
                return Err(DeviceError::Injected { site, op });
            }
        }
        Ok(())
    }

    /// Total device capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.state.capacity
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> usize {
        self.state.used.load(Ordering::Relaxed)
    }

    /// Bytes still available.
    pub fn available_bytes(&self) -> usize {
        self.state.capacity - self.used_bytes()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DeviceStats {
        DeviceStats {
            used_bytes: self.used_bytes(),
            peak_bytes: self.state.peak.load(Ordering::Relaxed),
            h2d_bytes: self.state.h2d_bytes.load(Ordering::Relaxed),
            d2h_bytes: self.state.d2h_bytes.load(Ordering::Relaxed),
            kernel_launches: self.state.kernel_launches.load(Ordering::Relaxed),
        }
    }

    /// Allocates an uninitialized (zeroed) buffer of `len` elements,
    /// failing with [`DeviceError::OutOfMemory`] if it does not fit.
    pub fn alloc<T: Clone + Default>(&self, len: usize) -> Result<DeviceBuffer<T>, DeviceError> {
        self.fault_check(FaultSite::DeviceAlloc)?;
        let bytes = len * std::mem::size_of::<T>();
        // Serialize the check-and-reserve so concurrent allocations cannot
        // overshoot the budget.
        let _guard = self.state.alloc_lock.lock();
        let used = self.state.used.load(Ordering::Relaxed);
        let available = self.state.capacity - used;
        if bytes > available {
            return Err(DeviceError::OutOfMemory {
                requested: bytes,
                available,
            });
        }
        let now = used + bytes;
        self.state.used.store(now, Ordering::Relaxed);
        self.state.peak.fetch_max(now, Ordering::Relaxed);
        Ok(DeviceBuffer::new(Arc::clone(&self.state), len, bytes))
    }

    /// Reserves `bytes` of budget without allocating backing storage —
    /// the caller supplies (and recycles) the host array standing in for
    /// the device data. Accounting is identical to [`DeviceSim::alloc`]:
    /// serialized budget check, peak tracking, release when the returned
    /// [`DeviceLease`] drops.
    pub fn reserve(&self, bytes: usize) -> Result<crate::buffer::DeviceLease, DeviceError> {
        self.fault_check(FaultSite::DeviceReserve)?;
        let _guard = self.state.alloc_lock.lock();
        let used = self.state.used.load(Ordering::Relaxed);
        let available = self.state.capacity - used;
        if bytes > available {
            return Err(DeviceError::OutOfMemory {
                requested: bytes,
                available,
            });
        }
        let now = used + bytes;
        self.state.used.store(now, Ordering::Relaxed);
        self.state.peak.fetch_max(now, Ordering::Relaxed);
        Ok(crate::buffer::DeviceLease::new(
            Arc::clone(&self.state),
            bytes,
        ))
    }

    /// Allocates a buffer and fills it from host data, counting the
    /// host→device transfer.
    pub fn upload<T: Clone + Default>(&self, data: &[T]) -> Result<DeviceBuffer<T>, DeviceError> {
        self.fault_check(FaultSite::DeviceUpload)?;
        let mut buf = self.alloc::<T>(data.len())?;
        buf.as_mut_slice().clone_from_slice(data);
        self.state
            .h2d_bytes
            .fetch_add(std::mem::size_of_val(data), Ordering::Relaxed);
        Ok(buf)
    }

    /// Copies a device buffer back to the host, counting the transfer.
    pub fn download<T: Clone + Default>(&self, buf: &DeviceBuffer<T>) -> Vec<T> {
        self.state
            .d2h_bytes
            .fetch_add(buf.size_bytes(), Ordering::Relaxed);
        buf.as_slice().to_vec()
    }

    /// Records a host→device transfer without materializing host data —
    /// used when the "upload" is of data the simulation keeps elsewhere.
    pub fn note_h2d(&self, bytes: usize) {
        self.state.h2d_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a device→host transfer of `bytes`.
    pub fn note_d2h(&self, bytes: usize) {
        self.state.d2h_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Launches a "kernel": `grid` logical threads executed over the
    /// rayon pool. The closure receives the thread index, exactly like a
    /// flattened CUDA grid. Fails only under an active [`FaultPlan`]
    /// whose launch site fires (the kernel then never dispatches).
    pub fn launch<F: Fn(usize) + Sync>(&self, grid: usize, kernel: F) -> Result<(), DeviceError> {
        use rayon::prelude::*;
        self.fault_check(FaultSite::DeviceLaunch)?;
        self.state.kernel_launches.fetch_add(1, Ordering::Relaxed);
        // The closure keeps `kernel` borrowed (only `&F: Send` is needed),
        // so `F` itself does not have to be `Send`.
        #[allow(clippy::redundant_closure)]
        (0..grid).into_par_iter().for_each(|tid| kernel(tid));
        Ok(())
    }

    /// Launches a *weighted* block kernel over a span of a flat work
    /// space: `weights` describes items `base..base + weights.len()` of
    /// some global enumeration (e.g. the pivot rows a device owns, which
    /// may start and end mid-bucket), cut into at most `num_blocks`
    /// contiguous ranges of near-equal total weight, one rayon task per
    /// range. The kernel receives **global** item ranges. Equal-width cuts
    /// would leave a block stuck with one giant bucket's whole tail of
    /// work; weighted cuts are the shape the candidate-pair kernel needs.
    /// An empty span is a valid launch (counted, no blocks executed).
    pub fn launch_weighted_span<F: Fn(usize, std::ops::Range<usize>) + Sync>(
        &self,
        weights: &[u64],
        base: usize,
        num_blocks: usize,
        kernel: F,
    ) -> Result<(), DeviceError> {
        use rayon::prelude::*;
        self.fault_check(FaultSite::DeviceLaunch)?;
        self.state.kernel_launches.fetch_add(1, Ordering::Relaxed);
        let cuts = balanced_weight_cuts(weights, num_blocks);
        cuts.into_par_iter().enumerate().for_each(|(b, local)| {
            if !local.is_empty() {
                kernel(b, base + local.start..base + local.end);
            }
        });
        Ok(())
    }
}

/// Cuts `0..weights.len()` into at most `k` contiguous ranges whose total
/// weights are near-equal (each range closes as soon as it reaches the
/// ideal share, so no range exceeds the ideal by more than one item).
/// Deterministic; used by [`DeviceSim::launch_weighted_span`] and the
/// parallel and multi-device row sharding.
pub fn balanced_weight_cuts(weights: &[u64], k: usize) -> Vec<std::ops::Range<usize>> {
    let n = weights.len();
    let k = k.max(1);
    let total: u64 = weights.iter().sum();
    let per_block = total.div_ceil(k as u64).max(1);
    let mut cuts = Vec::with_capacity(k);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if acc >= per_block {
            cuts.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < n || cuts.is_empty() {
        cuts.push(start..n);
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_respects_capacity() {
        let dev = DeviceSim::new(1024);
        let a = dev.alloc::<u8>(512).unwrap();
        assert_eq!(dev.used_bytes(), 512);
        let err = dev.alloc::<u8>(1024).unwrap_err();
        assert_eq!(
            err,
            DeviceError::OutOfMemory {
                requested: 1024,
                available: 512
            }
        );
        drop(a);
        assert_eq!(dev.used_bytes(), 0);
        assert!(dev.alloc::<u8>(1024).is_ok());
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let dev = DeviceSim::new(4096);
        {
            let _a = dev.alloc::<u8>(3000).unwrap();
        }
        let _b = dev.alloc::<u8>(100).unwrap();
        assert_eq!(dev.stats().peak_bytes, 3000);
    }

    #[test]
    fn transfers_are_counted() {
        let dev = DeviceSim::new(1 << 20);
        let buf = dev.upload(&[1u32, 2, 3, 4]).unwrap();
        assert_eq!(dev.stats().h2d_bytes, 16);
        let back = dev.download(&buf);
        assert_eq!(back, vec![1, 2, 3, 4]);
        assert_eq!(dev.stats().d2h_bytes, 16);
    }

    #[test]
    fn typed_allocation_sizes() {
        let dev = DeviceSim::new(1000);
        let _b = dev.alloc::<u64>(100).unwrap();
        assert_eq!(dev.used_bytes(), 800);
        assert!(dev.alloc::<u64>(26).is_err(), "208 B > 200 B remaining");
    }

    #[test]
    fn kernel_launch_covers_grid() {
        use std::sync::atomic::AtomicUsize;
        let dev = DeviceSim::new(1024);
        let hits = AtomicUsize::new(0);
        dev.launch(1000, |_tid| {
            hits.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        assert_eq!(dev.stats().kernel_launches, 1);
    }

    #[test]
    fn weighted_span_launch_covers_all_items_once() {
        let dev = DeviceSim::new(1024);
        // Heavily skewed weights: one giant item among many small ones.
        let weights: Vec<u64> = (0..50)
            .map(|i| if i == 7 { 10_000 } else { i as u64 })
            .collect();
        let seen = Mutex::new(vec![false; 50]);
        dev.launch_weighted_span(&weights, 0, 6, |_b, range| {
            let mut s = seen.lock();
            for i in range {
                assert!(!s[i], "item {i} covered twice");
                s[i] = true;
            }
        })
        .unwrap();
        assert!(seen.lock().iter().all(|&x| x));
        assert_eq!(dev.stats().kernel_launches, 1);
    }

    #[test]
    fn weighted_span_launch_offsets_ranges_globally() {
        let dev = DeviceSim::new(1024);
        let weights: Vec<u64> = (0..40).map(|i| (i % 5) as u64 + 1).collect();
        let base = 17usize;
        let seen = Mutex::new(vec![false; 40]);
        dev.launch_weighted_span(&weights, base, 4, |_b, range| {
            assert!(range.start >= base && range.end <= base + 40, "{range:?}");
            let mut s = seen.lock();
            for i in range {
                assert!(!s[i - base], "global item {i} covered twice");
                s[i - base] = true;
            }
        })
        .unwrap();
        assert!(seen.lock().iter().all(|&x| x));
        assert_eq!(dev.stats().kernel_launches, 1);
        // An empty span is still a (counted) launch with no blocks.
        dev.launch_weighted_span(&[], 99, 3, |_b, _r| panic!("no blocks expected"))
            .unwrap();
        assert_eq!(dev.stats().kernel_launches, 2);
    }

    #[test]
    fn balanced_weight_cuts_concatenate_and_balance() {
        for (n, k) in [(100usize, 4usize), (37, 8), (5, 1), (0, 3)] {
            let weights: Vec<u64> = (0..n).map(|i| (i * i % 17) as u64 + 1).collect();
            let cuts = balanced_weight_cuts(&weights, k);
            let mut at = 0usize;
            for c in &cuts {
                assert_eq!(c.start, at);
                at = c.end;
            }
            assert_eq!(at, n, "n={n} k={k}");
            assert!(cuts.len() <= k.max(1));
            if n >= 100 {
                let total: u64 = weights.iter().sum();
                let ideal = total as f64 / cuts.len() as f64;
                let max_w = weights.iter().max().copied().unwrap_or(0) as f64;
                for c in &cuts {
                    let w: u64 = weights[c.clone()].iter().sum();
                    assert!(
                        (w as f64) <= 2.0 * ideal + max_w,
                        "n={n} k={k} block {c:?} weight {w} vs ideal {ideal}"
                    );
                }
            }
        }
    }

    #[test]
    fn injected_faults_fire_deterministically_per_site() {
        let plan = FaultPlan::new(77).with_rate(FaultSite::DeviceAlloc, 0.5);
        let run = || {
            let dev = DeviceSim::with_fault_plan(4096, Some(plan));
            (0..64)
                .map(|_| dev.alloc::<u8>(1).is_err())
                .collect::<Vec<bool>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same plan, same fault positions");
        assert!(a.iter().any(|&f| f), "50% plan fired at least once in 64");
        assert!(!a.iter().all(|&f| f), "...and not every time");
    }

    #[test]
    fn injected_faults_reserve_no_budget_and_launch_no_kernel() {
        let plan = FaultPlan::uniform(3, 1.0);
        let dev = DeviceSim::with_fault_plan(4096, Some(plan));
        let err = dev.alloc::<u8>(16).unwrap_err();
        assert!(err.is_injected(), "{err}");
        assert!(matches!(
            err,
            DeviceError::Injected {
                site: FaultSite::DeviceAlloc,
                ..
            }
        ));
        assert!(dev.reserve(16).unwrap_err().is_injected());
        let launched = dev.launch(10, |_t| panic!("kernel must not dispatch"));
        assert!(launched.unwrap_err().is_injected());
        assert_eq!(dev.used_bytes(), 0, "failed ops hold no budget");
        assert_eq!(dev.stats().kernel_launches, 0);
        assert_eq!(dev.faults_injected(), 3);
    }

    #[test]
    fn noop_plans_are_discarded_and_fault_free_devices_report_none() {
        let dev = DeviceSim::with_fault_plan(1024, Some(FaultPlan::new(5)));
        assert_eq!(dev.fault_plan(), None, "zero-rate plan normalizes away");
        assert_eq!(DeviceSim::new(1024).fault_plan(), None);
        assert_eq!(DeviceSim::new(1024).faults_injected(), 0);
    }

    #[test]
    fn concurrent_allocations_never_overshoot() {
        use rayon::prelude::*;
        let dev = DeviceSim::new(10_000);
        let results: Vec<_> = (0..64)
            .into_par_iter()
            .map(|_| dev.alloc::<u8>(400))
            .collect();
        let succeeded = results.iter().filter(|r| r.is_ok()).count();
        // 25 × 400 = 10 000: at most 25 can succeed.
        assert!(succeeded <= 25, "{succeeded} allocations overshot capacity");
        assert!(dev.used_bytes() <= 10_000);
    }
}
