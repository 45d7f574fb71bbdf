//! Property tests for the Picasso core: backend equivalence, list
//! discipline and conflict-graph correctness on arbitrary oracles —
//! including the equivalence suite pinning the bucketed candidate
//! engine to the legacy all-pairs reference on random Pauli workloads,
//! and the row-block suite pinning the rayon build and the device kernel
//! to the sequential reference where blocks cut through buckets.

use device::DeviceSim;
use graph::FnOracle;
use pauli::EncodedSet;
use picasso::conflict::{
    build_device, build_parallel, build_sequential, build_sequential_allpairs,
};
use picasso::listcolor::greedy_list_color;
use picasso::{
    ColorLists, ConflictBackend, IterationContext, PauliComplementOracle, Picasso, PicassoConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic pseudo-random symmetric edge predicate parameterized
/// by a salt, giving arbitrary ~50%-dense oracles.
fn salted_oracle(n: usize, salt: u64) -> FnOracle<impl Fn(usize, usize) -> bool + Sync> {
    FnOracle::new(n, move |u, v| {
        let (a, b) = (u.min(v) as u64, u.max(v) as u64);
        let mut x = salt ^ (a << 32) ^ b;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51AFD7ED558CCD);
        x ^= x >> 33;
        x & 1 == 0
    })
}

fn ctx_for(lists: &ColorLists) -> IterationContext {
    let mut ctx = IterationContext::new();
    ctx.set_lists(lists.clone());
    ctx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All conflict builders — including the device path — produce the
    /// same graph for arbitrary oracles, palettes and list sizes, from
    /// one shared context.
    #[test]
    fn all_backends_build_identical_graphs(
        n in 2usize..90,
        salt in any::<u64>(),
        palette in 2u32..40,
        list in 1u32..8,
        seed in any::<u64>(),
    ) {
        let oracle = salted_oracle(n, salt);
        let lists = ColorLists::assign(n, 5, palette, list, seed, 1);
        let mut ctx = ctx_for(&lists);
        let reference = build_sequential_allpairs(&oracle, &mut ctx);
        let a = build_sequential(&oracle, &mut ctx);
        let b = build_parallel(&oracle, &mut ctx);
        let dev = DeviceSim::new(32 * 1024 * 1024);
        let c = build_device(&oracle, &mut ctx, &dev, 16).unwrap();
        prop_assert_eq!(&reference.graph, &a.graph);
        prop_assert_eq!(&a.graph, &b.graph);
        prop_assert_eq!(&a.graph, &c.graph);
        prop_assert_eq!(a.num_edges, c.num_edges);
        // Enumeration accounting: bucketed backends agree and never
        // exceed the all-pairs count (the engine falls back otherwise).
        prop_assert_eq!(a.candidate_pairs, b.candidate_pairs);
        prop_assert_eq!(a.candidate_pairs, c.candidate_pairs);
        prop_assert!(a.candidate_pairs <= reference.candidate_pairs);
        // One context, many backends: the index was built at most once.
        prop_assert!(ctx.index_builds() <= 1);
    }

    /// Every conflict edge really is an oracle edge with intersecting
    /// lists, and every non-edge is correctly absent.
    #[test]
    fn conflict_graph_is_exact(
        n in 2usize..60,
        salt in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let oracle = salted_oracle(n, salt);
        let lists = ColorLists::assign(n, 0, (n as u32 / 3).max(2), 3, seed, 2);
        let built = build_sequential(&oracle, &mut ctx_for(&lists));
        for u in 0..n {
            for v in (u + 1)..n {
                use graph::EdgeOracle as _;
                let expected = oracle.has_edge(u, v) && lists.intersects(u, v);
                prop_assert_eq!(built.graph.has_edge(u, v), expected, "({}, {})", u, v);
            }
        }
    }

    /// Algorithm 2 discipline: every assigned color comes from the
    /// vertex's list, no conflict edge is monochromatic, and
    /// assigned + dry = active.
    #[test]
    fn bucket_list_coloring_discipline(
        n in 2usize..80,
        salt in any::<u64>(),
        palette in 2u32..20,
        seed in any::<u64>(),
    ) {
        let oracle = salted_oracle(n, salt);
        let lists = ColorLists::assign(n, 0, palette, 3, seed, 1);
        let built = build_sequential(&oracle, &mut ctx_for(&lists));
        let active: Vec<u32> = (0..n as u32)
            .filter(|&v| built.graph.degree(v as usize) > 0)
            .collect();
        let out = greedy_list_color(&built.graph, &lists, &active, seed);
        prop_assert_eq!(out.assigned.len() + out.uncolored.len(), active.len());
        let mut colors = vec![u32::MAX; n];
        for &(v, c) in &out.assigned {
            prop_assert!(lists.row(v as usize).contains(&c));
            colors[v as usize] = c;
        }
        for (u, v) in built.graph.edges() {
            let (cu, cv) = (colors[u as usize], colors[v as usize]);
            if cu != u32::MAX && cv != u32::MAX {
                prop_assert_ne!(cu, cv);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The bucketed-engine acceptance contract on the real workload:
    /// random Pauli sets × (palette, α) configurations, where every
    /// bucketed backend must build a CSR bit-identical to the legacy
    /// all-pairs sequential reference.
    #[test]
    fn bucketed_backends_match_allpairs_reference_on_pauli_sets(
        n in 2usize..70,
        qubits in 4usize..24,
        set_seed in any::<u64>(),
        palette in 2u32..48,
        alpha in 0.5f64..6.0,
        list_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(set_seed);
        let strings = pauli::string::random_unique_set(n, qubits, &mut rng);
        let set = EncodedSet::from_strings(&strings);
        let oracle = PauliComplementOracle::new(&set);
        // The config's list-size law, directly on the sampled α.
        let list = ((alpha * (n.max(2) as f64).log10()).ceil() as u32).clamp(1, palette);
        let lists = ColorLists::assign(n, 3, palette, list, list_seed, 1);

        let mut ctx = ctx_for(&lists);
        let reference = build_sequential_allpairs(&oracle, &mut ctx);
        let seq = build_sequential(&oracle, &mut ctx);
        let par = build_parallel(&oracle, &mut ctx);
        let dev = DeviceSim::new(32 * 1024 * 1024);
        let devb = build_device(&oracle, &mut ctx, &dev, 16).unwrap();
        prop_assert_eq!(&reference.graph, &seq.graph);
        prop_assert_eq!(&reference.graph, &par.graph);
        prop_assert_eq!(&reference.graph, &devb.graph);
        prop_assert_eq!(reference.num_edges, seq.num_edges);
        prop_assert_eq!(seq.candidate_pairs, par.candidate_pairs);
        prop_assert_eq!(seq.candidate_pairs, devb.candidate_pairs);
        prop_assert!(seq.candidate_pairs <= reference.candidate_pairs);
    }

    /// Row-block acceptance contract: random Pauli sets × (palette, α)
    /// give the rayon build and the device kernel CSRs bit-identical to
    /// the sequential reference — including two-color, one-slot lists,
    /// whose two coarse buckets the `4 × threads` blocks cut through.
    #[test]
    fn row_blocks_match_sequential_on_coarse_buckets(
        n in 2usize..60,
        qubits in 4usize..16,
        set_seed in any::<u64>(),
        palette_choice in 0usize..5,
        alpha in 0.5f64..6.0,
        list_seed in any::<u64>(),
    ) {
        // Choice 0 is two colors of one slot each: two disjoint buckets.
        let palette = [2u32, 2, 3, 12, 40][palette_choice];
        let mut rng = StdRng::seed_from_u64(set_seed);
        let strings = pauli::string::random_unique_set(n, qubits, &mut rng);
        let set = EncodedSet::from_strings(&strings);
        let oracle = PauliComplementOracle::new(&set);
        let list = match palette_choice {
            0 => 1,
            _ => ((alpha * (n.max(2) as f64).log10()).ceil() as u32).clamp(1, palette),
        };
        let lists = ColorLists::assign(n, 3, palette, list, list_seed, 1);

        let mut ctx = ctx_for(&lists);
        let seq = build_sequential(&oracle, &mut ctx);
        let par = build_parallel(&oracle, &mut ctx);
        let dev = DeviceSim::new(16 * 1024 * 1024);
        let devb = build_device(&oracle, &mut ctx, &dev, 16).unwrap();
        for (name, built) in [("parallel", &par), ("device", &devb)] {
            prop_assert_eq!(&seq.graph, &built.graph, "{} P={} L={}", name, palette, list);
            prop_assert_eq!(seq.num_edges, built.num_edges, "{}", name);
            prop_assert_eq!(seq.candidate_pairs, built.candidate_pairs, "{}", name);
        }
        prop_assert!(ctx.index_builds() <= 1);
    }

    /// End-to-end determinism across engines: for a fixed seed, a full
    /// solve over the all-pairs reference backend produces exactly the
    /// colors of the bucketed backends, the device included.
    #[test]
    fn solver_colors_identical_across_engines(
        n in 2usize..60,
        set_seed in any::<u64>(),
        cfg_seed in any::<u64>(),
        palette_fraction in 0.02f64..0.4,
        alpha in 0.5f64..5.0,
    ) {
        let mut rng = StdRng::seed_from_u64(set_seed);
        let strings = pauli::string::random_unique_set(n, 8, &mut rng);
        let set = EncodedSet::from_strings(&strings);
        let base = PicassoConfig::normal(cfg_seed)
            .with_palette_fraction(palette_fraction)
            .with_alpha(alpha);
        let reference = Picasso::new(base.with_backend(ConflictBackend::AllPairs))
            .solve_pauli(&set)
            .unwrap();
        let seq = Picasso::new(base.with_backend(ConflictBackend::Sequential))
            .solve_pauli(&set)
            .unwrap();
        let par = Picasso::new(base.with_backend(ConflictBackend::Parallel))
            .solve_pauli(&set)
            .unwrap();
        let dev = Picasso::new(base.with_backend(ConflictBackend::Device {
            capacity: 32 * 1024 * 1024,
        }))
        .solve_pauli(&set)
        .unwrap();
        prop_assert_eq!(&reference.colors, &seq.colors);
        prop_assert_eq!(&reference.colors, &par.colors);
        prop_assert_eq!(&reference.colors, &dev.colors);
        prop_assert_eq!(reference.num_colors, seq.num_colors);
        prop_assert!(seq.total_candidate_pairs() <= reference.total_candidate_pairs());
        prop_assert_eq!(seq.total_candidate_pairs(), dev.total_candidate_pairs());
        // The reference backend never builds an index; the bucketed ones
        // build at most one per iteration.
        prop_assert_eq!(reference.index_builds, 0);
        prop_assert!(seq.index_builds <= seq.iterations.len());
    }
}
