//! Heap-allocation tracking for the memory experiments (Table IV).
//!
//! The paper reports *maximum resident set size*; the closest
//! deterministic, in-process equivalent is peak live heap bytes. Binaries
//! that want tracking install [`TrackingAllocator`] as their global
//! allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: memtrack::TrackingAllocator = memtrack::TrackingAllocator;
//! ```
//!
//! and then measure regions with [`PeakRegion`]:
//!
//! ```ignore
//! let region = memtrack::PeakRegion::start();
//! run_algorithm();
//! let peak_delta = region.peak_bytes();
//! ```
//!
//! For structural estimates independent of the allocator (e.g. "how big
//! is this CSR"), the [`HeapSize`] trait is provided.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static TOTAL_ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `const`-initialised and without a destructor, so the allocator can
    // touch it without allocating or registering anything.
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// A [`System`]-backed allocator that maintains live/peak byte counters.
///
/// Counter updates are relaxed atomics: the peak can very slightly
/// under-report under heavy contention, which is irrelevant at the
/// hundreds-of-megabytes scales the experiments measure.
pub struct TrackingAllocator;

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        record_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        p
    }
}

#[inline]
fn record_alloc(size: usize) {
    let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(now, Ordering::Relaxed);
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCS.with(|count| count.set(count.get() + 1));
}

#[inline]
fn record_dealloc(size: usize) {
    CURRENT.fetch_sub(size, Ordering::Relaxed);
}

/// Live heap bytes right now (0 unless [`TrackingAllocator`] is
/// installed).
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Highest live heap bytes seen since process start or the last
/// [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Number of allocations since process start.
pub fn total_allocations() -> usize {
    TOTAL_ALLOCS.load(Ordering::Relaxed)
}

/// Number of allocations the calling thread has made since it started.
/// Unlike [`total_allocations`], another thread's allocations never land
/// in it, so a zero-allocation check of code that runs on the caller
/// holds while other threads (a test harness spawning the next test)
/// allocate; code that fans out to worker threads needs the process-wide
/// count.
pub fn thread_allocations() -> usize {
    THREAD_ALLOCS.with(Cell::get)
}

/// Resets the peak to the current live size, so subsequent peaks measure
/// only what happens after this call.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Measures the peak heap growth within a region of code.
///
/// The region's baseline is the live size at [`PeakRegion::start`]; the
/// result is how far above that baseline the heap peaked. Note that
/// regions are process-global (they share one peak counter), so nested or
/// concurrent regions see each other's allocations — run one measured
/// algorithm at a time, as the experiments do.
pub struct PeakRegion {
    baseline: usize,
}

impl PeakRegion {
    /// Starts a region: snapshots the current live size and resets the
    /// peak to it.
    pub fn start() -> PeakRegion {
        let baseline = current_bytes();
        reset_peak();
        PeakRegion { baseline }
    }

    /// Peak bytes allocated above the baseline since the region started.
    pub fn peak_bytes(&self) -> usize {
        peak_bytes().saturating_sub(self.baseline)
    }
}

/// Structural heap-size estimation, for reporting sizes without the
/// global allocator.
pub trait HeapSize {
    /// Bytes of heap memory owned by this value (excluding `size_of::<Self>()`).
    fn heap_bytes(&self) -> usize;
}

impl<T> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

impl<T> HeapSize for Box<[T]> {
    fn heap_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

impl HeapSize for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_bytes)
    }
}

/// Publishes the allocator's counters as telemetry gauges:
/// `heap_current_bytes` (point-in-time), `heap_peak_bytes` (high-water
/// via [`telemetry::Gauge::set_max`], so repeated exports never lower
/// it), and the `heap_allocations_total` counter-shaped gauge. All three
/// read 0 unless [`TrackingAllocator`] is the global allocator.
pub fn export_gauges(registry: &telemetry::Registry) {
    registry
        .gauge("heap_current_bytes")
        .set(current_bytes() as u64);
    registry
        .gauge("heap_peak_bytes")
        .set_max(peak_bytes() as u64);
    registry
        .gauge("heap_allocations_total")
        .set(total_allocations() as u64);
}

/// Formats a byte count as a human-readable string (GiB/MiB/KiB/B).
pub fn format_bytes(bytes: usize) -> String {
    const KIB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KIB * KIB * KIB {
        format!("{:.2} GiB", b / (KIB * KIB * KIB))
    } else if b >= KIB * KIB {
        format!("{:.2} MiB", b / (KIB * KIB))
    } else if b >= KIB {
        format!("{:.2} KiB", b / KIB)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Installing the tracking allocator in the test binary makes the
    // counters live for these tests.
    #[global_allocator]
    static ALLOC: TrackingAllocator = TrackingAllocator;

    // The counters are process-global, so every test that allocates
    // takes this lock: none of them may run interleaved with a test that
    // asserts on current/peak values.
    static MEASURE_LOCK: Mutex<()> = Mutex::new(());

    // The test harness's own threads still allocate and free small
    // buffers while a test runs, so a region's peak can land a little
    // below the bytes the test allocated in it.
    const HARNESS_SLACK: usize = 64 * 1024;

    #[test]
    fn counters_track_a_large_allocation() {
        let _guard = MEASURE_LOCK.lock().unwrap();
        let before = current_bytes();
        let region = PeakRegion::start();
        let v: Vec<u8> = vec![0u8; 8 * 1024 * 1024];
        drop(v);
        // Peak must have seen the 8 MiB even though it is freed now.
        assert!(region.peak_bytes() + HARNESS_SLACK >= 8 * 1024 * 1024);
        assert!(current_bytes() < before + 1024 * 1024);
    }

    #[test]
    fn peak_region_isolates_baseline() {
        let _guard = MEASURE_LOCK.lock().unwrap();
        let _persistent: Vec<u8> = vec![1u8; 4 * 1024 * 1024];
        let region = PeakRegion::start();
        // Baseline includes the 4 MiB; a 1 MiB allocation must report a
        // 1 MiB delta.
        let v: Vec<u8> = vec![0u8; 1024 * 1024];
        let peak = region.peak_bytes();
        drop(v);
        assert!(peak + HARNESS_SLACK >= 1024 * 1024);
        assert!(peak < 4 * 1024 * 1024, "delta {peak} leaked the baseline");
    }

    #[test]
    fn total_allocations_increase() {
        let _guard = MEASURE_LOCK.lock().unwrap();
        let before = total_allocations();
        let _v: Vec<u64> = Vec::with_capacity(10);
        assert!(total_allocations() > before);
    }

    #[test]
    fn thread_allocations_count_only_the_calling_thread() {
        let _guard = MEASURE_LOCK.lock().unwrap();
        let before = thread_allocations();
        let _v: Vec<u64> = Vec::with_capacity(10);
        assert_eq!(thread_allocations(), before + 1);
        let (before, total) = (thread_allocations(), total_allocations());
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..1000 {
                    std::hint::black_box(Vec::<u64>::with_capacity(10));
                }
            });
        });
        assert!(total_allocations() - total >= 1000);
        // Spawning the thread allocates a little on this one; the
        // spawned thread's thousand allocations do not count here.
        let here = thread_allocations() - before;
        assert!(here < 100, "{here} allocations on the caller");
    }

    #[test]
    fn heap_size_estimates() {
        let _guard = MEASURE_LOCK.lock().unwrap();
        let v: Vec<u64> = Vec::with_capacity(100);
        assert_eq!(v.heap_bytes(), 800);
        let b: Box<[u32]> = vec![0u32; 50].into_boxed_slice();
        assert_eq!(b.heap_bytes(), 200);
        let s = String::from("hello");
        assert!(s.heap_bytes() >= 5);
        let none: Option<Vec<u8>> = None;
        assert_eq!(none.heap_bytes(), 0);
    }

    #[test]
    fn export_gauges_reflects_allocator_counters() {
        let _guard = MEASURE_LOCK.lock().unwrap();
        let registry = telemetry::Registry::new();
        let v: Vec<u8> = vec![0u8; 2 * 1024 * 1024];
        export_gauges(&registry);
        assert!(registry.gauge("heap_current_bytes").get() >= 2 * 1024 * 1024);
        assert!(registry.gauge("heap_peak_bytes").get() >= 2 * 1024 * 1024);
        assert!(registry.gauge("heap_allocations_total").get() > 0);
        drop(v);
        // The peak gauge is a high-water mark: a later export with a
        // smaller process peak must not lower it.
        let held = registry.gauge("heap_peak_bytes").get();
        export_gauges(&registry);
        assert!(registry.gauge("heap_peak_bytes").get() >= held);
    }

    #[test]
    fn format_bytes_units() {
        let _guard = MEASURE_LOCK.lock().unwrap();
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.00 KiB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.00 MiB");
        assert_eq!(format_bytes(5 * 1024 * 1024 * 1024), "5.00 GiB");
    }
}
