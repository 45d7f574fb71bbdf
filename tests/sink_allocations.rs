//! A warm solve's allocation count does not depend on the telemetry
//! sink. The count is process-wide (a `Sequential` solve fans Line 6 out
//! to the rayon pool, whose helpers a per-thread count would miss), so
//! nothing but the solver may allocate while it runs. This binary has no
//! test harness (`harness = false`): libtest runs a test on a thread of
//! its own while its main thread records it, and those records landed in
//! the count whenever the main thread was scheduled late. Here `main`
//! runs the one test and reports it in libtest's words.

#[global_allocator]
static ALLOC: memtrack::TrackingAllocator = memtrack::TrackingAllocator;

use pauli::EncodedSet;
use picasso::{Picasso, PicassoConfig};

fn main() {
    const NAME: &str = "warm_solve_allocations_are_identical_across_sink_modes";
    if std::env::args().any(|arg| arg == "--list") {
        println!("{NAME}: test");
        return;
    }
    println!("\nrunning 1 test");
    let start = std::time::Instant::now();
    warm_solve_allocations_are_identical_across_sink_modes();
    println!(
        "test {NAME} ... ok\n\ntest result: ok. 1 passed; 0 failed; 0 ignored; 0 measured; \
         0 filtered out; finished in {:.2}s\n",
        start.elapsed().as_secs_f64()
    );
}

fn warm_solve_allocations_are_identical_across_sink_modes() {
    // The zero-overhead contract at full-solve granularity: telemetry is
    // compiled into every solver phase, and a warm solve must allocate
    // exactly as much with tracing disabled (the default) as with a
    // no-op or aggregating sink installed — records live in the
    // preallocated ring and the aggregating fold hits cached instrument
    // handles, so neither mode touches the heap once warm.
    use rand::SeedableRng;
    use std::sync::Arc;
    let n = 600;
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let strings = pauli::string::random_unique_set(n, 12, &mut rng);
    let set = EncodedSet::from_strings(&strings);
    // Normal lists keep sorted CSR rows late in the solve; Aggressive
    // ones keep hit masks in every packed iteration.
    for cfg in [PicassoConfig::normal(1), PicassoConfig::aggressive(1)] {
        let cfg = cfg.with_backend(picasso::ConflictBackend::Sequential);
        let measured_solve_allocs = || {
            // The warm-up solve pays every one-time cost (thread ring,
            // sink instrument caches); the measured solve is steady
            // state.
            let warm = Picasso::new(cfg).solve_pauli(&set).unwrap();
            std::hint::black_box(warm.num_colors);
            let before = memtrack::total_allocations();
            let result = Picasso::new(cfg).solve_pauli(&set).unwrap();
            let after = memtrack::total_allocations();
            std::hint::black_box(result.num_colors);
            after - before
        };
        telemetry::uninstall();
        let disabled = measured_solve_allocs();
        telemetry::install(Arc::new(telemetry::NoopSink));
        let noop = measured_solve_allocs();
        let registry = Arc::new(telemetry::Registry::new());
        telemetry::install(Arc::new(telemetry::AggregatingSink::new(Arc::clone(
            &registry,
        ))));
        let aggregating = measured_solve_allocs();
        telemetry::uninstall();
        assert_eq!(
            disabled, noop,
            "{cfg:?}: a no-op sink must not change a warm solve's allocation count"
        );
        assert_eq!(
            disabled, aggregating,
            "{cfg:?}: a warm aggregating sink must fold spans without allocating"
        );
        assert!(
            registry.histogram("span_conflict_build_ns").count() > 0,
            "the aggregating sink must actually have observed the solve"
        );
    }
    let aggressive = Picasso::new(PicassoConfig::aggressive(1))
        .solve_pauli(&set)
        .unwrap();
    assert!(
        aggressive.conflict_mask_iterations() > 0,
        "the Aggressive solve keeps hit masks"
    );
}
