//! Property suite for the packed oracle pipeline: whatever the Pauli
//! set, register width, palette shape, or backend, the packed-kernel
//! CSRs are **bit-identical** to the scalar bucketed build and to the
//! all-pairs reference. Register widths deliberately cover the 1-qubit
//! degenerate case (one packed word, duplicate strings guaranteed) and
//! >64-qubit registers (multi-word rows in both encodings).

use graph::{CsrGraph, PackedWordOracle, ScalarView};
use pauli::{EncodedSet, PauliString, SymplecticSet};
use picasso::conflict::{
    build_device, build_parallel, build_sequential, build_sequential_allpairs,
};
use picasso::packed::SharedColorFilter;
use picasso::{
    AllPairsSource, BucketSource, CandidateEngine, ColorLists, IterationContext, MaskScanStats,
    PackedBuckets, PairSource, PauliComplementOracle,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_strings(n: usize, qubits: usize, seed: u64) -> Vec<PauliString> {
    // Duplicates allowed on purpose: a 1-qubit register only has four
    // distinct strings, and the pipeline must not care.
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| PauliString::random(qubits, &mut rng))
        .collect()
}

fn ctx_with(lists: &ColorLists) -> IterationContext {
    let mut ctx = IterationContext::new();
    ctx.set_lists(lists.clone());
    ctx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Packed vs scalar vs all-pairs, for the 3-bit encoding: five
    /// builds (the scalar bucketed reference, the all-pairs scan, and the
    /// packed sequential, parallel and device builds) give one CSR.
    #[test]
    fn packed_csrs_bit_identical_across_all_five_backends(
        qubits in prop_oneof![Just(1usize), Just(8), Just(21), Just(26), Just(70)],
        n in 20usize..90,
        palette in prop_oneof![4u32..32, 400u32..2000],
        list in 2u32..6,
        seed in any::<u64>(),
    ) {
        let strings = random_strings(n, qubits, seed);
        let set = EncodedSet::from_strings(&strings);
        let oracle = PauliComplementOracle::new(&set);
        let lists = ColorLists::assign(n, 0, palette, list, seed ^ 0x5bd1e995, 1);

        // Scalar references over the scalar view: bucketed and all-pairs.
        let scalar = ScalarView::new(&oracle);
        let mut scalar_ctx = ctx_with(&lists);
        let reference = build_sequential(&scalar, &mut scalar_ctx);
        prop_assert_eq!(reference.packed_lanes, 0);
        let allpairs = build_sequential_allpairs(&scalar, &mut scalar_ctx);
        prop_assert_eq!(&allpairs.graph, &reference.graph);

        // Packed pipeline through every backend.
        let mut ctx = ctx_with(&lists);
        let seq = build_sequential(&oracle, &mut ctx);
        let par = build_parallel(&oracle, &mut ctx);
        let dev = device::DeviceSim::new(64 * 1024 * 1024);
        let devb = build_device(&oracle, &mut ctx, &dev, 16).unwrap();

        let builds: [(&str, &graph::CsrGraph, u64, u64); 3] = [
            ("sequential", &seq.graph, seq.packed_lanes, seq.candidate_pairs),
            ("parallel", &par.graph, par.packed_lanes, par.candidate_pairs),
            ("device", &devb.graph, devb.packed_lanes, devb.candidate_pairs),
        ];
        let packed_engaged = ctx.pack_builds() == 1;
        // Every replica filters shared colors on the lists, except an
        // all-pairs one with `2L > P`, which runs no test.
        let filter = SharedColorFilter::choose(palette, list as usize, ctx.prefers_buckets());
        prop_assert_eq!(ctx.shared_color_filter(), packed_engaged.then_some(filter));
        for (name, graph, lanes, pairs) in builds {
            prop_assert_eq!(graph, &reference.graph, "{} vs scalar reference", name);
            if packed_engaged {
                prop_assert_eq!(lanes, pairs, "{}: packed lanes cover enumeration", name);
            } else {
                // A packable oracle packs either engine (all-pairs on the
                // identity layout), so only a pair-free build skips the
                // replica.
                prop_assert_eq!(lanes, 0u64, "{}", name);
            }
        }
        // One replica (at most) served all three packed builds.
        prop_assert!(ctx.pack_builds() <= 1);
    }

    /// The symplectic encoding rides the same pipeline: its packed CSRs
    /// equal its own scalar build *and* the 3-bit encoding's (same
    /// strings → same anticommutation relation → same graph). The device
    /// build runs the packed kernel on the symplectic replica too.
    #[test]
    fn symplectic_packed_builds_match_both_references(
        qubits in prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(130)],
        n in 15usize..60,
        palette in 4u32..20,
        seed in any::<u64>(),
    ) {
        let strings = random_strings(n, qubits, seed);
        let lists = ColorLists::assign(n, 0, palette, 3, seed ^ 0x9e3779b9, 2);
        let sym = SymplecticSet::from_strings(&strings);
        let sym_oracle = PauliComplementOracle::new(&sym);
        let mut packed_ctx = ctx_with(&lists);
        let packed = build_sequential(&sym_oracle, &mut packed_ctx);
        let mut scalar_ctx = ctx_with(&lists);
        let scalar = build_sequential(&ScalarView::new(&sym_oracle), &mut scalar_ctx);
        prop_assert_eq!(&packed.graph, &scalar.graph);
        let dev = device::DeviceSim::new(64 * 1024 * 1024);
        let devb = build_device(&sym_oracle, &mut packed_ctx, &dev, 16)
            .unwrap();
        prop_assert_eq!(&devb.graph, &scalar.graph, "seed {}: device", seed);
        prop_assert_eq!(devb.packed_lanes, devb.candidate_pairs, "seed {}: packed path ran", seed);

        let enc = EncodedSet::from_strings(&strings);
        let enc_oracle = PauliComplementOracle::new(&enc);
        let mut enc_ctx = ctx_with(&lists);
        let enc_build = build_sequential(&enc_oracle, &mut enc_ctx);
        prop_assert_eq!(&enc_build.graph, &packed.graph);
    }
}

/// The COO edge sequence the last build left in the context's group
/// arenas (CSR assembly reads them without consuming them), read in
/// order and expanded from `[pivot, len, v_1 … v_len]` groups to
/// `(pivot, v_i)` pairs.
fn staged_edges(ctx: &mut IterationContext) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    for block in &ctx.lists_and_scratch().1.blocks {
        let mut words = block.words();
        while let [pivot, len, rest @ ..] = words {
            let (run, tail) = rest.split_at(*len as usize);
            pairs.extend(run.iter().map(|&v| (*pivot, v)));
            words = tail;
        }
    }
    pairs
}

/// `(palette, list)` shapes where the engine falls back to all-pairs:
/// `2L ≤ P` with `L ≥ √P` (the shared-color filter really rejects
/// hits there), and `2L > P` (every pair shares a color).
fn all_pairs_shape() -> impl Strategy<Value = (u32, u32)> {
    prop_oneof![
        Just((64u32, 10u32)),
        Just((40, 8)),
        Just((100, 12)),
        (4u32..24, 0u32..1000).prop_map(|(p, r)| (p, p / 2 + 1 + r % (p - p / 2))),
    ]
}

/// The packed all-pairs scan (identity layout) against the scalar
/// all-pairs reference over `oracle`: the emitted `(u, v)` sequence —
/// from the source scan and from every build's COO staging — must equal
/// the reference loop's, and every backend's CSR must agree, with one
/// replica and no bucket index.
fn check_packed_all_pairs<O: graph::EdgeOracle>(
    oracle: &O,
    lists: &ColorLists,
    seed: u64,
) -> Result<(), TestCaseError> {
    let n = lists.len();
    // Scalar ground truth: the reference all-pairs loop's COO.
    let mut scalar_ctx = ctx_with(lists);
    let reference = build_sequential_allpairs(&ScalarView::new(oracle), &mut scalar_ctx);
    let truth = staged_edges(&mut scalar_ctx);

    // The packed source scan, straight off the replica's key table.
    let mut packed = PackedBuckets::new();
    prop_assert!(packed.pack_from(oracle, lists, false), "seed {}", seed);
    let replica = 16 * n * packed.words();
    prop_assert_eq!(packed.device_bytes(), replica, "seed {}", seed);
    let mut edges = Vec::new();
    let mut stats = MaskScanStats::default();
    AllPairsSource::new(lists).scan_rows_packed(
        0..n,
        &packed,
        &mut Vec::new(),
        &mut stats,
        &mut |u, v| edges.push((u, v)),
    );
    prop_assert_eq!(&edges, &truth, "seed {}: source scan sequence", seed);
    prop_assert!(stats.hit_bits >= truth.len() as u64, "seed {}", seed);

    // The packed sequential build stages the same sequence.
    let mut ctx = ctx_with(lists);
    let seq = build_sequential(oracle, &mut ctx);
    prop_assert_eq!(
        &staged_edges(&mut ctx),
        &truth,
        "seed {}: build sequence",
        seed
    );
    prop_assert_eq!(&seq.graph, &reference.graph, "seed {}", seed);
    prop_assert_eq!(seq.packed_lanes, seq.candidate_pairs, "seed {}", seed);

    // Every other backend reads the same replica and, its block arenas
    // read in order, stages the same sequence.
    let par = build_parallel(oracle, &mut ctx);
    let par_edges = staged_edges(&mut ctx);
    let dev = device::DeviceSim::new(64 * 1024 * 1024);
    let devb = build_device(oracle, &mut ctx, &dev, 16).unwrap();
    let dev_edges = staged_edges(&mut ctx);
    for (name, build, staged) in [
        ("parallel", &par, &par_edges),
        ("device", &devb, &dev_edges),
    ] {
        prop_assert_eq!(staged, &truth, "seed {}: {} sequence", seed, name);
        prop_assert_eq!(&build.graph, &reference.graph, "seed {}: {}", seed, name);
        prop_assert_eq!(
            build.packed_lanes,
            build.candidate_pairs,
            "seed {}: {}",
            seed,
            name
        );
    }
    prop_assert_eq!(ctx.pack_builds(), 1, "seed {}", seed);
    prop_assert_eq!(ctx.index_builds(), 0, "seed {}", seed);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Packed all-pairs equals the scalar all-pairs scan pair for pair,
    /// for the 3-bit form (one- and multi-word) and the multi-word
    /// symplectic form.
    #[test]
    fn packed_all_pairs_scan_matches_the_scalar_scan_pair_for_pair(
        symplectic in any::<bool>(),
        qubits in prop_oneof![Just(1usize), Just(8), Just(21), Just(26), Just(70)],
        n in 30usize..100,
        shape in all_pairs_shape(),
        seed in any::<u64>(),
    ) {
        let (palette, list) = shape;
        let lists = ColorLists::assign(n, 3, palette, list, seed ^ 0x2545_f491, 1);
        prop_assume!(!CandidateEngine::prefers_buckets(&lists));
        let strings = random_strings(n, qubits, seed);
        if symplectic {
            let sym = SymplecticSet::from_strings(&strings);
            check_packed_all_pairs(&PauliComplementOracle::new(&sym), &lists, seed)?;
        } else {
            let enc = EncodedSet::from_strings(&strings);
            check_packed_all_pairs(&PauliComplementOracle::new(&enc), &lists, seed)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Density sweep over the synthetic packed-word oracle: from the
    /// empty graph through ~1% and ~50% to all-edges buckets, at one-
    /// and multi-word row widths, the mask-kernel CSRs are bit-identical
    /// to the scalar bucketed build and the all-pairs reference, across
    /// all five backends.
    #[test]
    fn density_sweep_pins_mask_csrs_across_all_backends(
        density in prop_oneof![Just(0.0f64), Just(0.01), Just(0.5), Just(1.0)],
        words in prop_oneof![Just(1usize), Just(2), Just(3)],
        n in 40usize..120,
        palette in 4u32..24,
        list in 2u32..5,
        seed in any::<u64>(),
    ) {
        let oracle = PackedWordOracle::with_edge_density(n, words, density, seed);
        let lists = ColorLists::assign(n, 0, palette, list, seed ^ 0xa076_1d64, 1);

        // Scalar references.
        let scalar = ScalarView::new(&oracle);
        let mut scalar_ctx = ctx_with(&lists);
        let reference = build_sequential(&scalar, &mut scalar_ctx);
        prop_assert_eq!(reference.packed_lanes, 0);
        let allpairs = build_sequential_allpairs(&scalar, &mut scalar_ctx);
        prop_assert_eq!(&allpairs.graph, &reference.graph);

        // Mask pipeline through every backend.
        let mut ctx = ctx_with(&lists);
        let seq = build_sequential(&oracle, &mut ctx);
        let par = build_parallel(&oracle, &mut ctx);
        let dev = device::DeviceSim::new(64 * 1024 * 1024);
        let devb = build_device(&oracle, &mut ctx, &dev, 16).unwrap();
        for (name, build) in [("sequential", &seq), ("parallel", &par), ("device", &devb)] {
            prop_assert_eq!(&build.graph, &reference.graph, "{} at density {}", name, density);
            prop_assert!(build.scan_stats.skipped_words <= build.scan_stats.scanned_words);
            if build.packed_lanes > 0 {
                prop_assert!(build.scan_stats.hit_bits >= build.num_edges as u64);
            }
        }
        // The zero-word-skip accounting matches the density extremes.
        if ctx.pack_builds() == 1 && seq.candidate_pairs > 0 {
            if density == 0.0 {
                prop_assert_eq!(seq.scan_stats.hit_bits, 0);
                prop_assert_eq!(seq.scan_stats.skipped_words, seq.scan_stats.scanned_words);
            }
            if density == 1.0 {
                prop_assert_eq!(seq.scan_stats.hit_bits, seq.candidate_pairs);
                prop_assert_eq!(seq.scan_stats.skipped_words, 0);
            }
        }
    }
}

/// Non-property pin: a single 70-member bucket whose only edges sit at
/// tail positions 63 and 64 — the high bit of mask word 0 and the low
/// bit of word 1. Catches sign-extension / off-by-one slips at the
/// word boundary that random sweeps rarely isolate.
#[test]
fn mask_words_with_high_bit_only_hits_round_trip() {
    let n = 70;
    // Defective vertices 0, 64, 65: from pivot 0 the tail hits are at
    // t = 63 and t = 64 exactly.
    let oracle = PackedWordOracle::with_defects(n, 2, &[0, 64, 65]);
    // One palette color, one-slot lists: a single bucket holding all 70
    // members in vertex order.
    let lists = ColorLists::assign(n, 0, 1, 1, 3, 1);
    let index = lists.bucket_index();
    assert_eq!(index.num_buckets(), 1);
    assert_eq!(index.bucket(0).len(), n);
    let mut packed = PackedBuckets::new();
    assert!(packed.pack_from(&oracle, &lists, true));
    let mut masks = Vec::new();
    // The one bucket holds every vertex in order, so its lanes are the
    // key table's.
    packed.tail_edge_mask(None, 0, index.bucket(0)[0] as usize, &mut masks);
    assert_eq!(masks.len(), 2, "69-lane tail spans two mask words");
    assert_eq!(masks[0], 1u64 << 63, "high-bit-only hit in word 0");
    assert_eq!(masks[1], 1u64, "low-bit hit in word 1");
    // The zero-word-skip consumer recovers exactly the defect triangle
    // (one hit bit per edge, every other word skipped whole).
    let source = BucketSource::new(&lists, &index);
    let mut stats = MaskScanStats::default();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    source.scan_rows_packed(
        0..source.num_rows(),
        &packed,
        &mut masks,
        &mut stats,
        &mut |u, v| {
            edges.push((u.min(v), u.max(v)));
        },
    );
    edges.sort_unstable();
    assert_eq!(edges, vec![(0, 64), (0, 65), (64, 65)]);
    assert_eq!(stats.hit_bits, 3, "one set bit per defect pair");
    assert!(stats.skipped_words > 0, "the empty tails skip whole words");
}

/// Non-property pin: the sparse shape, `P ≫ 64·L·w`, where the
/// shared-color filter's color bitset spans many words. Over a two-word
/// packed-word oracle, on the bucketed and the
/// all-pairs engine, every packed backend's CSR and `|Ec|` equal the
/// scalar all-pairs reference's, and the replica is exactly its key and
/// query tables, `16·m·w` bytes, on either engine.
#[test]
fn sparse_palettes_filter_on_the_lists_across_all_packed_backends() {
    let (n, w) = (900usize, 2usize);
    // (P, L, bucketed): 4000 colors are 63 words against L·w = 6. The
    // all-pairs shape (L² > P, so all-pairs is cheaper, and 2L ≤ P) is
    // 125 words, against L·w = 100 on a one-word oracle.
    for (palette, list, bucketed) in [(4000u32, 3u32, true), (8000, 100, false)] {
        let w = if bucketed { w } else { 1 };
        let what = format!("P={palette} L={list}");
        let oracle = PackedWordOracle::with_edge_density(n, w, 0.05, u64::from(palette));
        let lists = ColorLists::assign(n, 0, palette, list, 11, 1);
        assert_eq!(CandidateEngine::prefers_buckets(&lists), bucketed, "{what}");
        let filter = SharedColorFilter::choose(palette, list as usize, bucketed);
        assert_eq!(filter, SharedColorFilter::Lists, "{what}");

        let mut scalar_ctx = ctx_with(&lists);
        let truth = build_sequential_allpairs(&ScalarView::new(&oracle), &mut scalar_ctx);
        assert!(truth.num_edges > 0, "{what}");

        let mut ctx = ctx_with(&lists);
        let seq = build_sequential(&oracle, &mut ctx);
        let par = build_parallel(&oracle, &mut ctx);
        let dev = device::DeviceSim::new(64 << 20);
        let devb = build_device(&oracle, &mut ctx, &dev, 16).unwrap();
        for (name, build) in [("sequential", &seq), ("parallel", &par), ("device", &devb)] {
            assert_eq!(build.graph, truth.graph, "{what}: {name}");
            assert_eq!(build.num_edges, truth.num_edges, "{what}: {name}");
            assert_eq!(build.packed_lanes, build.candidate_pairs, "{what}: {name}");
        }
        assert_eq!(ctx.pack_builds(), 1, "{what}");
        assert_eq!(ctx.shared_color_filter(), Some(filter), "{what}");
        assert_eq!(ctx.replica_bytes(), 16 * n * w, "{what}");
    }
}

/// Non-property pin: over a fixed sweep of the five-backend property's
/// shapes, both forms of the shared-color filter run — the sorted lists,
/// and no test on the all-pairs replicas of the smallest palette, where
/// `2L > P` — and every packed CSR equals the scalar reference.
#[test]
fn the_packed_sweep_reaches_both_shared_color_filters() {
    let (mut skipped, mut lists_only) = (0, 0);
    for (k, qubits) in [1usize, 8, 21, 26, 70].into_iter().enumerate() {
        for palette in [6u32, 12, 31, 400, 1999] {
            for list in 2u32..6 {
                let seed = (k as u64) << 32 | u64::from(palette) << 8 | u64::from(list);
                let n = 40 + (seed % 50) as usize;
                let strings = random_strings(n, qubits, seed);
                let set = EncodedSet::from_strings(&strings);
                let oracle = PauliComplementOracle::new(&set);
                let lists = ColorLists::assign(n, 0, palette, list, seed, 1);
                let reference = build_sequential(&ScalarView::new(&oracle), &mut ctx_with(&lists));
                let mut ctx = ctx_with(&lists);
                let packed = build_sequential(&oracle, &mut ctx);
                let par = build_parallel(&oracle, &mut ctx);
                let what = format!("{qubits} qubits, n={n} P={palette} L={list}");
                assert_eq!(packed.graph, reference.graph, "{what}");
                assert_eq!(par.graph, reference.graph, "{what}");
                match ctx.shared_color_filter() {
                    Some(SharedColorFilter::Skipped) => skipped += 1,
                    Some(SharedColorFilter::Lists) => lists_only += 1,
                    None => {}
                }
            }
        }
    }
    assert!(
        skipped > 0 && lists_only > 0,
        "{skipped} unfiltered and {lists_only} list replicas"
    );
}

/// Non-property pin: an empty set and a singleton survive the packed
/// path (the builders' degenerate early-outs).
#[test]
fn degenerate_sets_build_empty_graphs() {
    for n in [0usize, 1] {
        let strings = random_strings(n, 4, 9);
        let set = EncodedSet::from_strings(&strings);
        let oracle = PauliComplementOracle::new(&set);
        let lists = ColorLists::assign(n, 0, 4, 2, 1, 1);
        let mut ctx = ctx_with(&lists);
        let built = build_sequential(&oracle, &mut ctx);
        assert_eq!(built.graph, CsrGraph::empty(n));
        assert_eq!(built.num_edges, 0);
    }
}
