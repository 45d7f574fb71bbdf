//! The device state machine: budget reservations, transfers, kernels.

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

/// Shared device bookkeeping (leases hold an `Arc` to it so drops can
/// release their bytes).
#[derive(Debug)]
struct DeviceState {
    capacity: usize,
    used: AtomicUsize,
    peak: AtomicUsize,
    h2d_bytes: AtomicUsize,
    d2h_bytes: AtomicUsize,
    kernel_launches: AtomicUsize,
    alloc_lock: Mutex<()>,
    /// Active fault plan (`None` = no injection, the default — the hot
    /// path then pays exactly one branch per site).
    faults: Option<FaultPlan>,
    /// Per-device-site operation counters (indexed by
    /// [`FaultSite::index`]; the device sites come first): the stream
    /// positions fed to [`FaultPlan::fires`]. Separate streams per site
    /// so an extra reservation cannot shift which launch fails.
    fault_ops: [AtomicU64; 2],
    /// Total faults injected by this device (reporting).
    faults_injected: AtomicU64,
}

/// A budget **reservation**: charges bytes to the device (budget check,
/// peak tracking, release on drop) while the caller brings its own
/// recycled host array for the simulated data. This is what lets the
/// conflict builders keep their device COO staging in an
/// iteration-owned arena — the host side does not allocate a fresh
/// backing vector per build.
#[derive(Debug)]
pub struct DeviceLease {
    state: Arc<DeviceState>,
    bytes: usize,
}

impl DeviceLease {
    /// Reserved size in bytes (what was charged to the budget).
    pub fn size_bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for DeviceLease {
    fn drop(&mut self) {
        self.state.used.fetch_sub(self.bytes, Ordering::Relaxed);
    }
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
    /// fault plan: device-site rates in `faults` make reserve and launch
    /// operations fail deterministically as [`DeviceError::Injected`].
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
                fault_ops: [AtomicU64::new(0), AtomicU64::new(0)],
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

    /// Reserves `bytes` of budget, failing with
    /// [`DeviceError::OutOfMemory`] if it does not fit. No backing storage
    /// is allocated — the caller supplies (and recycles) the host array
    /// standing in for the device data. The check-and-charge is
    /// serialized, so concurrent reservations cannot overshoot the
    /// budget; the peak tracks the high-water mark, and the bytes return
    /// when the [`DeviceLease`] drops.
    pub fn reserve(&self, bytes: usize) -> Result<DeviceLease, DeviceError> {
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
        Ok(DeviceLease {
            state: Arc::clone(&self.state),
            bytes,
        })
    }

    /// Records a host→device transfer of `bytes` (the simulated data
    /// itself stays in the caller's host arrays).
    pub fn note_h2d(&self, bytes: usize) {
        self.state.h2d_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a device→host transfer of `bytes`.
    pub fn note_d2h(&self, bytes: usize) {
        self.state.d2h_bytes.fetch_add(bytes, Ordering::Relaxed);
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
        let a = dev.reserve(512).unwrap();
        assert_eq!(dev.used_bytes(), 512);
        let err = dev.reserve(1024).unwrap_err();
        assert_eq!(
            err,
            DeviceError::OutOfMemory {
                requested: 1024,
                available: 512
            }
        );
        drop(a);
        assert_eq!(dev.used_bytes(), 0);
        assert!(dev.reserve(1024).is_ok());
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let dev = DeviceSim::new(4096);
        {
            let _a = dev.reserve(3000).unwrap();
        }
        let _b = dev.reserve(100).unwrap();
        assert_eq!(dev.stats().peak_bytes, 3000);
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
        let plan = FaultPlan::new(77).with_rate(FaultSite::DeviceReserve, 0.5);
        let run = || {
            let dev = DeviceSim::with_fault_plan(4096, Some(plan));
            (0..64)
                .map(|_| dev.reserve(1).is_err())
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
        let err = dev.reserve(16).unwrap_err();
        assert!(err.is_injected(), "{err}");
        assert!(matches!(
            err,
            DeviceError::Injected {
                site: FaultSite::DeviceReserve,
                op: 0
            }
        ));
        let launched = dev.launch_weighted_span(&[1, 2, 3], 0, 2, |_b, _r| {
            panic!("kernel must not dispatch")
        });
        assert!(matches!(
            launched,
            Err(DeviceError::Injected {
                site: FaultSite::DeviceLaunch,
                op: 0
            })
        ));
        assert_eq!(dev.used_bytes(), 0, "failed ops hold no budget");
        assert_eq!(dev.stats().kernel_launches, 0);
        assert_eq!(dev.faults_injected(), 2);
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
        let results: Vec<_> = (0..64).into_par_iter().map(|_| dev.reserve(400)).collect();
        let succeeded = results.iter().filter(|r| r.is_ok()).count();
        // 25 × 400 = 10 000: at most 25 can succeed.
        assert!(succeeded <= 25, "{succeeded} allocations overshot capacity");
        assert!(dev.used_bytes() <= 10_000);
    }

    #[test]
    fn drop_releases_budget_exactly() {
        let dev = DeviceSim::new(1000);
        let b1 = dev.reserve(300).unwrap();
        let b2 = dev.reserve(300).unwrap();
        assert_eq!(dev.used_bytes(), 600);
        drop(b1);
        assert_eq!(dev.used_bytes(), 300);
        drop(b2);
        assert_eq!(dev.used_bytes(), 0);
    }

    #[test]
    fn reserve_charges_and_releases_the_budget() {
        let dev = DeviceSim::new(1000);
        let lease = dev.reserve(600).unwrap();
        assert_eq!(lease.size_bytes(), 600);
        assert_eq!(dev.used_bytes(), 600);
        assert_eq!(dev.stats().peak_bytes, 600);
        // The remaining budget is enforced against further reservations.
        assert!(dev.reserve(500).is_err());
        drop(lease);
        assert_eq!(dev.used_bytes(), 0);
        assert!(dev.reserve(1000).is_ok());
    }
}
