//! The paper's headline claim, as an executable assertion: Picasso's
//! peak heap stays far below any algorithm that materializes the dense
//! input graph.

#[global_allocator]
static ALLOC: memtrack::TrackingAllocator = memtrack::TrackingAllocator;

use memtrack::PeakRegion;
use pauli::{AntiCommuteSet, EncodedSet};
use picasso::{Picasso, PicassoConfig};
use qchem::{generate_pauli_set, BasisSet, Dimensionality};
use std::sync::Mutex;

// Peak counters are process-global; concurrent tests would pollute each
// other's regions. Every test takes this lock for its measured section.
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

fn complement_csr(set: &EncodedSet) -> graph::CsrGraph {
    let n = set.len();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if !set.anticommutes(i, j) {
                edges.push((i as u32, j as u32));
            }
        }
    }
    graph::csr_from_coo_sequential(n, &edges)
}

#[test]
fn picasso_peak_is_far_below_materialization() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // A dense instance large enough that the CSR dominates: ~2000
    // vertices, ~1M complement edges -> ~12 MB of graph arrays.
    let strings = generate_pauli_set(4, Dimensionality::TwoD, BasisSet::G631, 2000, 1);
    let set = EncodedSet::from_strings(&strings);

    let picasso_region = PeakRegion::start();
    let result = Picasso::new(PicassoConfig::normal(1))
        .solve_pauli(&set)
        .unwrap();
    let picasso_peak = picasso_region.peak_bytes();
    std::hint::black_box(result.num_colors);

    let baseline_region = PeakRegion::start();
    let g = complement_csr(&set);
    let baseline_peak = baseline_region.peak_bytes();
    std::hint::black_box(g.num_edges());
    drop(g);

    assert!(
        picasso_peak * 2 < baseline_peak,
        "picasso {} should be well under half of materialization {}",
        memtrack::format_bytes(picasso_peak),
        memtrack::format_bytes(baseline_peak)
    );
}

#[test]
fn memory_gap_grows_with_instance_size() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // Table IV's trend: the savings ratio increases with |V| (the graph
    // is quadratic, Picasso's transient state is not).
    let mut ratios = Vec::new();
    for &n in &[500usize, 2000] {
        let strings = generate_pauli_set(4, Dimensionality::OneD, BasisSet::Sto3g, n, 2);
        let set = EncodedSet::from_strings(&strings);

        let r1 = PeakRegion::start();
        let res = Picasso::new(PicassoConfig::normal(1))
            .solve_pauli(&set)
            .unwrap();
        let pic = r1.peak_bytes().max(1);
        std::hint::black_box(res.num_colors);

        let r2 = PeakRegion::start();
        let g = complement_csr(&set);
        let base = r2.peak_bytes();
        std::hint::black_box(g.num_edges());
        drop(g);

        ratios.push(base as f64 / pic as f64);
    }
    assert!(
        ratios[1] > ratios[0],
        "savings ratio should grow with size: {ratios:?}"
    );
}

#[test]
fn warm_parallel_builds_stop_allocating_per_task() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // The rayon backend draws its per-task staging buffers from the
    // iteration context's arena pool, so a warm same-shape build performs
    // a small, bucket-count-independent number of allocations (the output
    // CSR, the block cuts, and the thread-scope overhead of the rayon
    // fan-out) — not the O(#buckets) per-task buffers of the pre-pool
    // implementation.
    use picasso::conflict::build_parallel;
    use picasso::{IterationContext, PauliComplementOracle};
    use rand::SeedableRng;
    let warm_allocs = |n: usize| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let strings = pauli::string::random_unique_set(n, 12, &mut rng);
        let set = EncodedSet::from_strings(&strings);
        let oracle = PauliComplementOracle::new(&set);
        let cfg = PicassoConfig::normal(1);
        let (p, l) = (cfg.palette_size(n), cfg.list_size(n));
        let mut ctx = IterationContext::new();
        // Two warm-up builds grow every arena and fill the pool.
        for iter in 1..=2u64 {
            ctx.assign_lists(n, 0, p, l, 1, iter);
            std::hint::black_box(build_parallel(&oracle, &mut ctx).num_edges);
        }
        ctx.assign_lists(n, 0, p, l, 1, 3);
        let before = memtrack::total_allocations();
        std::hint::black_box(build_parallel(&oracle, &mut ctx).num_edges);
        let after = memtrack::total_allocations();
        assert_eq!(
            ctx.scratch_pool().arenas_pooled(),
            ctx.scratch_pool().arenas_created(),
            "every arena returned"
        );
        after - before
    };
    // n = 1600 has ~4x the palette buckets of n = 400: per-task
    // allocation would scale the count with the bucket count, the pooled
    // path must not (both sit near the fixed fan-out overhead).
    let small = warm_allocs(400);
    let large = warm_allocs(1600);
    assert!(
        large < small.max(8) * 4,
        "warm allocations must not scale with bucket count: {small} @400 vs {large} @1600"
    );
    assert!(
        large < 256,
        "warm parallel build made {large} allocations; expected a small constant"
    );
}

/// The measured build staged its `num_edges` edges in the context's
/// group buffer (entries plus two header words per group), which was
/// warm before it and did not grow.
fn assert_group_buffer_reused(
    ctx: &mut picasso::IterationContext,
    warm_capacity: usize,
    num_edges: usize,
) {
    assert!(warm_capacity > 0, "group buffer warmed");
    assert_eq!(
        ctx.scratch_capacities().0,
        warm_capacity,
        "group buffer grew"
    );
    let staged = ctx.lists_and_scratch().1.groups.words().len();
    assert!(
        staged > num_edges && staged < 3 * num_edges,
        "{staged} group words for {num_edges} edges"
    );
}

#[test]
fn warm_sequential_build_and_csr_assembly_allocate_nothing() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // The whole of Line 7 — packed-kernel candidate scan, COO staging,
    // *and CSR assembly* — runs out of context-owned arenas once warm
    // and graphs are recycled: a steady-state sequential build performs
    // exactly zero heap allocations.
    use picasso::conflict::build_sequential;
    use picasso::{IterationContext, PauliComplementOracle};
    use rand::SeedableRng;
    let n = 800;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let strings = pauli::string::random_unique_set(n, 12, &mut rng);
    let set = EncodedSet::from_strings(&strings);
    let oracle = PauliComplementOracle::new(&set);
    let cfg = PicassoConfig::normal(1);
    let (p, l) = (cfg.palette_size(n), cfg.list_size(n));
    let mut ctx = IterationContext::new();
    // Warm-up: three iterations, recycling each retired graph.
    for iter in 1..=3u64 {
        ctx.assign_lists(n, 0, p, l, 1, iter);
        let built = build_sequential(&oracle, &mut ctx);
        ctx.recycle_csr(built.graph);
    }
    // Measured iteration: same assignment arguments as the last warm-up
    // (identical lists → identical shapes, so the zero is deterministic,
    // not a capacity coin-flip).
    ctx.assign_lists(n, 0, p, l, 1, 3);
    let groups_warm = ctx.scratch_capacities().0;
    let before = memtrack::total_allocations();
    let built = build_sequential(&oracle, &mut ctx);
    let after = memtrack::total_allocations();
    assert!(built.num_edges > 0);
    assert_eq!(
        built.packed_lanes, built.candidate_pairs,
        "the packed kernel must be the path being measured"
    );
    assert_group_buffer_reused(&mut ctx, groups_warm, built.num_edges);
    assert_eq!(
        after - before,
        0,
        "steady-state conflict build + CSR assembly must allocate nothing"
    );
    // A bucketed iteration delivers rows as one sorted run per shared
    // colour, so the measured assembly ran the row bitmap: the zero
    // covers that path too.
    assert!(
        ctx.prefers_buckets(),
        "Normal lists select the bucketed engine"
    );
    let bitmap_words = ctx.lists_and_scratch().1.csr.capacities().3;
    assert!(bitmap_words > 0, "some row took the bitmap path");
    ctx.recycle_csr(built.graph);
}

#[test]
fn warm_sequential_all_pairs_packed_build_allocates_nothing() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // The all-pairs twin of the test above: Aggressive lists (L close to
    // P) select the all-pairs engine, which packs the identity layout
    // into the same arena — no index, no allocation once warm.
    use picasso::conflict::build_sequential;
    use picasso::{IterationContext, PauliComplementOracle};
    use rand::SeedableRng;
    let n = 800;
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let strings = pauli::string::random_unique_set(n, 12, &mut rng);
    let set = EncodedSet::from_strings(&strings);
    let oracle = PauliComplementOracle::new(&set);
    let cfg = PicassoConfig::aggressive(1);
    let (p, l) = (cfg.palette_size(n), cfg.list_size(n));
    let mut ctx = IterationContext::new();
    for iter in 1..=3u64 {
        ctx.assign_lists(n, 0, p, l, 1, iter);
        let built = build_sequential(&oracle, &mut ctx);
        ctx.recycle_csr(built.graph);
    }
    ctx.assign_lists(n, 0, p, l, 1, 3);
    assert!(!ctx.prefers_buckets(), "Aggressive lists select all-pairs");
    let groups_warm = ctx.scratch_capacities().0;
    let before = memtrack::total_allocations();
    let built = build_sequential(&oracle, &mut ctx);
    let after = memtrack::total_allocations();
    assert!(built.num_edges > 0);
    assert_group_buffer_reused(&mut ctx, groups_warm, built.num_edges);
    assert_eq!(
        built.packed_lanes, built.candidate_pairs,
        "the packed all-pairs kernel must be the path being measured"
    );
    assert_eq!(ctx.index_builds(), 0, "all-pairs packing builds no index");
    assert_eq!(
        after - before,
        0,
        "steady-state all-pairs packed build + CSR assembly must allocate nothing"
    );
    ctx.recycle_csr(built.graph);
}

#[test]
fn warm_sequential_coloring_allocates_nothing() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // Line 8-9 companion to the build test above: the dynamic bucket
    // greedy runs entirely out of the context-owned `ColorScratch` (flat
    // live matrix, bucket queues, stamps) and a caller-recycled outcome,
    // so a steady-state sequential coloring performs exactly zero heap
    // allocations.
    use picasso::conflict::build_sequential;
    use picasso::{listcolor, IterationContext, PauliComplementOracle};
    use rand::SeedableRng;
    let n = 800;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let strings = pauli::string::random_unique_set(n, 12, &mut rng);
    let set = EncodedSet::from_strings(&strings);
    let oracle = PauliComplementOracle::new(&set);
    let cfg = PicassoConfig::normal(1);
    let (p, l) = (cfg.palette_size(n), cfg.list_size(n));
    let mut ctx = IterationContext::new();
    let mut outcome = listcolor::ListColorOutcome::default();
    // Warm-up: three iterations of assign + build + color, recycling the
    // graph and reusing the same outcome so its vectors keep capacity.
    for iter in 1..=3u64 {
        ctx.assign_lists(n, 0, p, l, 1, iter);
        let built = build_sequential(&oracle, &mut ctx);
        let conflicted: Vec<u32> = (0..n as u32)
            .filter(|&v| built.graph.degree(v as usize) > 0)
            .collect();
        let (lists, scratch) = ctx.lists_and_color_scratch();
        listcolor::greedy_list_color_into(
            &built.graph,
            lists,
            &conflicted,
            7,
            scratch,
            &mut outcome,
        );
        ctx.recycle_csr(built.graph);
    }
    // Measured iteration: same assignment arguments as the last warm-up
    // (identical lists → identical bucket shapes, deterministic zero).
    ctx.assign_lists(n, 0, p, l, 1, 3);
    let built = build_sequential(&oracle, &mut ctx);
    let conflicted: Vec<u32> = (0..n as u32)
        .filter(|&v| built.graph.degree(v as usize) > 0)
        .collect();
    assert!(!conflicted.is_empty());
    let before = memtrack::total_allocations();
    let (lists, scratch) = ctx.lists_and_color_scratch();
    listcolor::greedy_list_color_into(&built.graph, lists, &conflicted, 7, scratch, &mut outcome);
    let after = memtrack::total_allocations();
    assert!(!outcome.assigned.is_empty());
    assert_eq!(
        after - before,
        0,
        "steady-state dynamic greedy coloring must allocate nothing"
    );
    ctx.recycle_csr(built.graph);
}

#[test]
fn warm_sequential_build_with_noop_sink_allocates_nothing() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // Enabled-sink variant of the zero pin above: with a sink installed
    // the phase spans record into the preallocated per-thread ring
    // (paid during warm-up), so the steady-state build still performs
    // exactly zero heap allocations.
    use picasso::conflict::build_sequential;
    use picasso::{IterationContext, PauliComplementOracle};
    use rand::SeedableRng;
    use std::sync::Arc;
    let n = 800;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let strings = pauli::string::random_unique_set(n, 12, &mut rng);
    let set = EncodedSet::from_strings(&strings);
    let oracle = PauliComplementOracle::new(&set);
    let cfg = PicassoConfig::normal(1);
    let (p, l) = (cfg.palette_size(n), cfg.list_size(n));
    let mut ctx = IterationContext::new();
    telemetry::install(Arc::new(telemetry::NoopSink));
    // Warm-up (with tracing live): arenas grow, the ring is allocated
    // by the first record.
    for iter in 1..=3u64 {
        ctx.assign_lists(n, 0, p, l, 1, iter);
        let built = build_sequential(&oracle, &mut ctx);
        ctx.recycle_csr(built.graph);
    }
    ctx.assign_lists(n, 0, p, l, 1, 3);
    let before = memtrack::total_allocations();
    let built = build_sequential(&oracle, &mut ctx);
    let after = memtrack::total_allocations();
    telemetry::uninstall();
    assert!(built.num_edges > 0);
    assert_eq!(
        after - before,
        0,
        "steady-state build with an installed no-op sink must stay within the span ring"
    );
    ctx.recycle_csr(built.graph);
}

#[test]
fn warm_solve_allocations_are_identical_across_sink_modes() {
    let _guard = MEASURE_LOCK.lock().unwrap();
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
    let cfg = PicassoConfig::normal(1).with_backend(picasso::ConflictBackend::Sequential);
    let measured_solve_allocs = || {
        // The warm-up solve pays every one-time cost (thread ring, sink
        // instrument caches); the measured solve is steady state.
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
        "a no-op sink must not change a warm solve's allocation count"
    );
    assert_eq!(
        disabled, aggregating,
        "a warm aggregating sink must fold spans without allocating"
    );
    assert!(
        registry.histogram("span_conflict_build_ns").count() > 0,
        "the aggregating sink must actually have observed the solve"
    );
}

#[test]
fn conflict_graph_is_sublinear_fraction_of_input_graph() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // Lemma 2's practical consequence: with P = 12.5% |V| and L = a·log n,
    // the per-iteration conflict graph holds a small fraction of |E|.
    let strings = generate_pauli_set(4, Dimensionality::ThreeD, BasisSet::G631, 3000, 3);
    let set = EncodedSet::from_strings(&strings);
    let counts = pauli::oracle::count_edges(&set);
    let result = Picasso::new(PicassoConfig::normal(1))
        .solve_pauli(&set)
        .unwrap();
    let frac = result.max_conflict_edges() as f64 / counts.complement.max(1) as f64;
    assert!(
        frac < 0.35,
        "max conflict fraction {frac} too close to the full graph"
    );
}
