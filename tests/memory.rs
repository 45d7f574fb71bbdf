//! The paper's headline claim, as an executable assertion: Picasso's
//! peak heap stays far below any algorithm that materializes the dense
//! input graph.

#[global_allocator]
static ALLOC: memtrack::TrackingAllocator = memtrack::TrackingAllocator;

use memtrack::PeakRegion;
use pauli::{AntiCommuteSet, EncodedSet};
use picasso::{Picasso, PicassoConfig, SharedColorFilter};
use qchem::{generate_pauli_set, BasisSet, Dimensionality};
use std::sync::Mutex;

// Peak counters are process-global; concurrent tests would pollute each
// other's regions. Every test takes this lock for its measured section.
// The lock does not stop the test harness from spawning the next test's
// thread inside a region, so the zero-allocation pins whose measured
// code runs on the calling thread count that thread's allocations
// (`memtrack::thread_allocations`); a pin on code that fans out to the
// pool counts the whole process.
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
    // CSR, the block cuts, and the rayon fan-out's item chunks) — not the
    // O(#buckets) per-task buffers of the pre-pool implementation.
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

#[test]
fn device_build_peaks_on_the_host_like_the_rayon_build() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // Algorithm 3's COO lives on the device: the device charges its
    // budget for two words per candidate pair, but holds no host array of
    // that size. Its blocks stage edge groups exactly as the rayon build
    // does, so from fresh contexts on the same lists the two builds peak
    // on the host within a small constant of each other — far less than
    // the `2·pairs`-word array a host mirror of the lease would take.
    use picasso::conflict::{build_device, build_parallel};
    use picasso::{IterationContext, PauliComplementOracle};
    use rand::SeedableRng;
    const SLACK: usize = 256 << 10;
    let n = 2000;
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let strings = pauli::string::random_unique_set(n, 24, &mut rng);
    let set = EncodedSet::from_strings(&strings);
    let oracle = PauliComplementOracle::new(&set);
    let cfg = PicassoConfig::normal(1);
    let (p, l) = (cfg.palette_size(n), cfg.list_size(n));
    let fresh = || {
        let mut ctx = IterationContext::new();
        ctx.assign_lists(n, 0, p, l, 1, 1);
        ctx
    };
    let mut ctx = fresh();
    let region = PeakRegion::start();
    let par = build_parallel(&oracle, &mut ctx);
    let par_peak = region.peak_bytes();
    drop(ctx);
    let mut ctx = fresh();
    let dev = device::DeviceSim::new(64 << 20);
    let region = PeakRegion::start();
    let built = build_device(&oracle, &mut ctx, &dev, 16).unwrap();
    let dev_peak = region.peak_bytes();
    assert_eq!(built.graph, par.graph);
    let mirror = 2 * built.candidate_pairs as usize * std::mem::size_of::<u32>();
    assert!(
        mirror > 4 * SLACK && mirror <= dev.stats().peak_bytes,
        "the instance must lease a COO far above the slack: {mirror} B"
    );
    assert!(
        dev_peak <= par_peak + SLACK,
        "device build peaked at {} on the host, the rayon build at {}",
        memtrack::format_bytes(dev_peak),
        memtrack::format_bytes(par_peak)
    );
}

/// The measured build staged its `num_edges` edges in the context's
/// group arenas (entries plus two header words per group), which were
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
    let blocks = &ctx.lists_and_scratch().1.blocks;
    let staged: usize = blocks.iter().map(|b| b.words().len()).sum();
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
    let tile_warm = ctx.scratch_capacities().3;
    let before = memtrack::thread_allocations();
    let built = build_sequential(&oracle, &mut ctx);
    let after = memtrack::thread_allocations();
    assert!(built.num_edges > 0);
    assert_eq!(
        built.packed_lanes, built.candidate_pairs,
        "the packed kernel must be the path being measured"
    );
    assert_group_buffer_reused(&mut ctx, groups_warm, built.num_edges);
    // The bucketed scan gathers each bucket's lanes into the pooled
    // arena's tile, which a warm build reuses.
    assert!(tile_warm > 0, "lane tile warmed");
    assert_eq!(ctx.scratch_capacities().3, tile_warm, "lane tile grew");
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
    // into the same arena — no index, no allocation once warm. The host
    // build the solver runs keeps this graph as hit masks instead (the
    // CSR path would take more bytes), and its warm build allocates
    // nothing either: the group pass, the rescan into the masks and the
    // mirror all reuse context arenas.
    use picasso::conflict::{build_host, build_sequential, HostGraph};
    use picasso::{IterationContext, PauliComplementOracle};
    use rand::SeedableRng;
    let n = 800;
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let strings = pauli::string::random_unique_set(n, 12, &mut rng);
    let set = EncodedSet::from_strings(&strings);
    let oracle = PauliComplementOracle::new(&set);
    let cfg = PicassoConfig::aggressive(1);
    let (p, l) = (cfg.palette_size(n), cfg.list_size(n));
    for masks in [false, true] {
        let mut ctx = IterationContext::new();
        let build = |ctx: &mut IterationContext| {
            if masks {
                build_host(&oracle, ctx, false, true)
            } else {
                build_sequential(&oracle, ctx).into()
            }
        };
        for iter in 1..=3u64 {
            ctx.assign_lists(n, 0, p, l, 1, iter);
            if let HostGraph::Csr(graph) = build(&mut ctx).graph {
                ctx.recycle_csr(graph);
            }
        }
        ctx.assign_lists(n, 0, p, l, 1, 3);
        assert!(!ctx.prefers_buckets(), "Aggressive lists select all-pairs");
        let groups_warm = ctx.scratch_capacities().0;
        let masks_warm = ctx.lists_and_scratch().1.hit_masks.capacity();
        let before = memtrack::thread_allocations();
        let built = build(&mut ctx);
        let after = memtrack::thread_allocations();
        assert!(built.num_edges > 0);
        assert_eq!(
            built.packed_lanes, built.candidate_pairs,
            "the packed all-pairs kernel must be the path being measured"
        );
        assert_eq!(ctx.index_builds(), 0, "all-pairs packing builds no index");
        assert_eq!(
            after - before,
            0,
            "steady-state all-pairs packed build (hit masks: {masks}) must allocate nothing"
        );
        match built.graph {
            HostGraph::Csr(graph) => {
                assert!(!masks, "the CSR path outweighs the masks here");
                assert_group_buffer_reused(&mut ctx, groups_warm, built.num_edges);
                ctx.recycle_csr(graph);
            }
            HostGraph::Masks => {
                assert!(masks);
                assert!(masks_warm > 0, "mask arena warmed");
                let arena = ctx.lists_and_scratch().1.hit_masks.capacity();
                assert_eq!(arena, masks_warm, "mask arena grew");
            }
        }
    }
}

#[test]
fn warm_sequential_list_filtered_build_allocates_nothing() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // The sparse shape: a wide palette (`⌈P/64⌉` = 32 words against
    // `L·w` = 8 key words). The packed scan filters shared colors on the
    // lists, with its color bitset in the pooled task arena. The
    // Sequential Line 7 the solver runs allocates nothing on it once
    // warm.
    use picasso::conflict::{build_host, HostGraph};
    use picasso::IterationContext;
    let n = 4000;
    let oracle = graph::PackedWordOracle::with_edge_density(n, 2, 0.001, 7);
    let (p, l) = (2000, 4);
    let mut ctx = IterationContext::new();
    let build = |ctx: &mut IterationContext, iter: u64| {
        ctx.assign_lists(n, 0, p, l, 1, iter);
        let before = memtrack::thread_allocations();
        let built = build_host(&oracle, ctx, false, true);
        let allocations = memtrack::thread_allocations() - before;
        let edges = built.num_edges;
        assert_eq!(
            built.packed_lanes, built.candidate_pairs,
            "the packed scan ran"
        );
        if let HostGraph::Csr(graph) = built.graph {
            ctx.recycle_csr(graph);
        }
        (allocations, edges)
    };
    for iter in 1..=3u64 {
        build(&mut ctx, iter);
    }
    // The measured build repeats the last warm-up's lists.
    let (allocations, edges) = build(&mut ctx, 3);
    assert!(edges > 0);
    assert_eq!(
        ctx.shared_color_filter(),
        Some(SharedColorFilter::Lists),
        "the packed scan filters on the lists"
    );
    assert_eq!(
        allocations, 0,
        "steady-state list-filtered sequential build must allocate nothing"
    );
}

#[test]
fn warm_sequential_bucketed_hit_mask_build_allocates_nothing() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // The dense bucketed shape the solver keeps as hit masks: Normal
    // lists over random Pauli strings, where the CSR path outweighs the
    // masks. The mask fill counts `|Ec|` from each bucket's lower-color
    // member sets, built in the pooled task arena, and each scan entering
    // a bucket gathers its lanes into the arena's tile; once warm, neither
    // that scratch, the tile nor the mask arena grows, and the build
    // allocates nothing.
    use picasso::conflict::{build_host, HostGraph};
    use picasso::{IterationContext, PauliComplementOracle};
    use rand::SeedableRng;
    let n = 800;
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let strings = pauli::string::random_unique_set(n, 12, &mut rng);
    let set = EncodedSet::from_strings(&strings);
    let oracle = PauliComplementOracle::new(&set);
    let cfg = PicassoConfig::normal(1);
    let (p, l) = (cfg.palette_size(n), cfg.list_size(n));
    let mut ctx = IterationContext::new();
    for iter in 1..=3u64 {
        ctx.assign_lists(n, 0, p, l, 1, iter);
        build_host(&oracle, &mut ctx, false, true);
    }
    // The measured build repeats the last warm-up's lists.
    ctx.assign_lists(n, 0, p, l, 1, 3);
    assert!(
        ctx.prefers_buckets(),
        "Normal lists select the bucketed engine"
    );
    let masks_warm = ctx.lists_and_scratch().1.hit_masks.capacity();
    let columns_warm = ctx.scratch_pool().column_capacity();
    let tile_warm = ctx.scratch_capacities().3;
    let before = memtrack::thread_allocations();
    let built = build_host(&oracle, &mut ctx, false, true);
    let after = memtrack::thread_allocations();
    assert!(
        matches!(built.graph, HostGraph::Masks),
        "the rule keeps masks"
    );
    assert!(built.num_edges > 0);
    assert_eq!(
        built.packed_lanes, built.candidate_pairs,
        "the packed scan ran"
    );
    assert!(masks_warm > 0, "mask arena warmed");
    assert_eq!(
        ctx.lists_and_scratch().1.hit_masks.capacity(),
        masks_warm,
        "mask arena grew"
    );
    assert!(columns_warm > 0, "column scratch warmed");
    assert_eq!(
        ctx.scratch_pool().column_capacity(),
        columns_warm,
        "column scratch grew"
    );
    assert!(tile_warm > 0, "lane tile warmed");
    assert_eq!(ctx.scratch_capacities().3, tile_warm, "lane tile grew");
    assert_eq!(
        after - before,
        0,
        "steady-state bucketed hit-mask build must allocate nothing"
    );
}

/// One Line 8-9 round out of `ctx`: assigns `(p, l)` lists over the
/// oracle's `n` vertices for `iter`, builds the conflict graph, colors it
/// with Algorithm 2 from the context's `ColorScratch` into the reused
/// `outcome`, and recycles the graph. Returns the heap allocations the
/// coloring call alone made.
fn coloring_round(
    ctx: &mut picasso::IterationContext,
    oracle: &picasso::PauliComplementOracle<'_, EncodedSet>,
    n: usize,
    (p, l): (u32, u32),
    iter: u64,
    outcome: &mut picasso::ListColorOutcome,
) -> usize {
    use picasso::conflict::build_sequential;
    use picasso::listcolor;
    ctx.assign_lists(n, 0, p, l, 1, iter);
    let built = build_sequential(oracle, ctx);
    let conflicted: Vec<u32> = (0..n as u32)
        .filter(|&v| built.graph.degree(v as usize) > 0)
        .collect();
    assert!(!conflicted.is_empty());
    let before = memtrack::thread_allocations();
    let (lists, scratch) = ctx.lists_and_color_scratch();
    listcolor::greedy_list_color_into(&built.graph, lists, &conflicted, 7, scratch, outcome);
    let after = memtrack::thread_allocations();
    assert!(!outcome.assigned.is_empty());
    ctx.recycle_csr(built.graph);
    after - before
}

/// The `n = 800` random 12-qubit instance the coloring pins run on.
fn coloring_oracle_set() -> EncodedSet {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    EncodedSet::from_strings(&pauli::string::random_unique_set(800, 12, &mut rng))
}

/// Warm-up rounds for iterations 1-3, then a measured round repeating
/// iteration 3 (identical lists, so identical bucket shapes and a
/// deterministic zero, not a capacity coin-flip).
fn warm_coloring_allocations(shape: (u32, u32)) -> usize {
    let set = coloring_oracle_set();
    let oracle = picasso::PauliComplementOracle::new(&set);
    let mut ctx = picasso::IterationContext::new();
    let mut outcome = picasso::ListColorOutcome::default();
    for iter in 1..=3u64 {
        coloring_round(&mut ctx, &oracle, set.len(), shape, iter, &mut outcome);
    }
    coloring_round(&mut ctx, &oracle, set.len(), shape, 3, &mut outcome)
}

#[test]
fn warm_sequential_coloring_allocates_nothing() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // Line 8-9 companion to the build test above: the dynamic bucket
    // greedy runs entirely out of the context-owned `ColorScratch` (live
    // bits, size buckets, stamps) and a caller-recycled outcome, so a
    // steady-state sequential coloring performs exactly zero heap
    // allocations in either live-list form. Normal lists at n = 800
    // (P = 100, L = 6) take holder sets; dense_pauli's shape
    // (P = 1000, L = 8) takes position masks.
    let cfg = PicassoConfig::normal(1);
    let normal = (cfg.palette_size(800), cfg.list_size(800));
    for (shape, holders) in [(normal, true), ((1000, 8), false)] {
        assert_eq!(
            picasso::listcolor::uses_palette_bitset(shape.0, shape.1 as usize),
            holders,
            "{shape:?}"
        );
        assert_eq!(
            warm_coloring_allocations(shape),
            0,
            "steady-state dynamic greedy coloring of {shape:?} must allocate nothing"
        );
    }
}

#[test]
fn alternating_live_list_forms_allocate_nothing_when_warm() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // One context colors positions -> holders -> positions. Both forms
    // share one live-bit buffer, which a switch neither releases nor
    // shrinks, so the second position round finds every capacity the
    // first two grew.
    use picasso::listcolor::uses_palette_bitset;
    let (positions, holders) = ((1000, 8), (100, 6));
    assert!(!uses_palette_bitset(positions.0, positions.1 as usize));
    assert!(uses_palette_bitset(holders.0, holders.1 as usize));
    let set = coloring_oracle_set();
    let oracle = picasso::PauliComplementOracle::new(&set);
    let mut ctx = picasso::IterationContext::new();
    let mut outcome = picasso::ListColorOutcome::default();
    let n = set.len();
    coloring_round(&mut ctx, &oracle, n, positions, 3, &mut outcome);
    coloring_round(&mut ctx, &oracle, n, holders, 3, &mut outcome);
    assert_eq!(
        coloring_round(&mut ctx, &oracle, n, positions, 3, &mut outcome),
        0,
        "a position-mask round after a holder-set round must reuse the warm buffers"
    );
}

#[test]
fn palette_bitsets_never_take_more_bytes_than_sorted_lists() {
    // The form rule: holder sets iff a W = ceil(P/64)-word palette row is
    // no larger than an L-entry u32 list. So where holder sets are kept,
    // their P * m / 8 bytes are about those of an m * L u32 copy or less.
    use picasso::listcolor::uses_palette_bitset;
    for p in 1..=4096u32 {
        let row_bytes = 8 * p.div_ceil(64) as usize;
        for l in 1..=(p as usize).min(300) {
            assert_eq!(
                uses_palette_bitset(p, l),
                row_bytes <= 4 * l,
                "P={p} L={l}: {row_bytes} B bitset vs {} B list",
                4 * l
            );
        }
    }
    // The benchmark's shapes: dense_pauli and sparse_oracle take position
    // masks, molecule_aggressive and service_mix take holder sets.
    assert!(!uses_palette_bitset(1000, 8));
    assert!(!uses_palette_bitset(5000, 10));
    assert!(uses_palette_bitset(131, 110));
    assert!(uses_palette_bitset(128, 7));
}

#[test]
fn warm_sequential_build_with_noop_sink_allocates_nothing() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // The traced thread's span ring is freed when that thread exits, so
    // it runs on a thread joined here: the free lands under the lock,
    // not inside the next test's peak region.
    std::thread::scope(|s| s.spawn(noop_sink_build).join())
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
}

/// The body of `warm_sequential_build_with_noop_sink_allocates_nothing`.
fn noop_sink_build() {
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
    let before = memtrack::thread_allocations();
    let built = build_sequential(&oracle, &mut ctx);
    let after = memtrack::thread_allocations();
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
fn hit_mask_solves_peak_below_the_first_csr_adjacency() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // An Aggressive all-pairs solve (2,000 random 12-qubit strings: P =
    // 60, L = P) whose conflict graph is about half of all pairs. Its
    // whole solve must peak below the first iteration's CSR adjacency
    // alone, 8 bytes per edge: the hit masks replace the CSR and the
    // group COO that fed it.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let strings = pauli::string::random_unique_set(2000, 12, &mut rng);
    let set = EncodedSet::from_strings(&strings);
    let cfg = PicassoConfig::aggressive(1).with_backend(picasso::ConflictBackend::Sequential);
    let region = PeakRegion::start();
    let result = Picasso::new(cfg).solve_pauli(&set).unwrap();
    let peak = region.peak_bytes();
    let first = result.iterations[0];
    assert_eq!((first.palette_size, first.list_size), (60, 60));
    assert!(first.conflict_masks, "the first iteration keeps hit masks");
    let adjacency = 8 * first.conflict_edges;
    assert!(
        peak < adjacency,
        "peak {} must be below the first CSR adjacency {} ({} edges)",
        memtrack::format_bytes(peak),
        memtrack::format_bytes(adjacency),
        first.conflict_edges
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

/// The service's structural peak model against the allocator, on one
/// cold-context `Sequential` solve per config (1,024 synthetic 24-qubit
/// strings, seed 5; the input encoded inside the region): `observed ≤
/// measured` must hold, since the model is a lower bound, and it must
/// reach 3/4 of the peak. Normal lists read 221,140 B of a measured
/// 279,316 B (0.79), the bucketed replica being the key and query
/// tables, `16·m·w` bytes, on both sides. Aggressive lists (`P = L = 31`, the
/// all-pairs engine, hit masks over the identity layout; the greedy keeps
/// per-colour holder sets and no copy of the lists) read 364,412 B of
/// 465,448 B (0.78); before the model left out the bucket index that
/// engine never builds, it read above the peak. Both peaks are the same at 1 to 8
/// threads. The pooled scan arenas, lane tiles included, are what the
/// model still leaves out.
#[test]
fn observed_peak_is_a_tight_lower_bound_on_a_sequential_solve() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    let (n, qubits, seed) = (1024, 24, 5);
    let workload = picasso_service::Workload::SyntheticPauli { n, qubits, seed };
    let strings = picasso_service::job::synthetic_pauli_strings(n, qubits, seed).unwrap();
    for cfg in [PicassoConfig::normal(1), PicassoConfig::aggressive(1)] {
        let cfg = cfg.with_backend(picasso::ConflictBackend::Sequential);
        // A first solve outside the region takes the process's one-time
        // allocations.
        let set = EncodedSet::from_strings(&strings);
        std::hint::black_box(Picasso::new(cfg).solve_pauli(&set).unwrap().num_colors);
        let region = PeakRegion::start();
        let set = EncodedSet::from_strings(&strings);
        let result = Picasso::new(cfg).solve_pauli(&set).unwrap();
        let measured = region.peak_bytes();
        let observed = picasso_service::admission::observed_peak_bytes(&workload, &cfg, &result);
        let identity_masks = result.iterations.iter().any(|s| {
            s.conflict_masks
                && !picasso::CandidateEngine::bucketed_is_cheaper(
                    s.bucket_pairs_estimate,
                    s.live_vertices,
                )
        });
        assert!(
            identity_masks || cfg.alpha == PicassoConfig::normal(1).alpha,
            "the Aggressive solve colours identity-layout masks"
        );
        let shown = format!(
            "alpha {}: observed {} of measured {}",
            cfg.alpha,
            memtrack::format_bytes(observed),
            memtrack::format_bytes(measured)
        );
        assert!(observed <= measured, "{shown}: not a lower bound");
        assert!(
            4 * observed >= 3 * measured,
            "{shown}: below 3/4 of the peak"
        );
    }
}
