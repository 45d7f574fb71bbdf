//! Property suite for the packed oracle pipeline: whatever the Pauli
//! set, register width, palette shape, or backend, the packed-kernel
//! CSRs are **bit-identical** to the scalar bucketed build and to the
//! all-pairs reference. Register widths deliberately cover the 1-qubit
//! degenerate case (one packed word, duplicate strings guaranteed) and
//! >64-qubit registers (multi-word rows in both encodings).

use graph::{CsrGraph, PackedWordOracle};
use pauli::{EncodedSet, PauliString, SymplecticSet};
use picasso::conflict::{
    build_device, build_multi_device, build_parallel, build_sequential, build_sequential_allpairs,
};
use picasso::{
    BucketSource, ColorLists, IterationContext, PackedBuckets, PackingMode, PauliComplementOracle,
};
use proptest::prelude::*;
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

fn ctx_with(lists: &ColorLists, mode: PackingMode) -> IterationContext {
    let mut ctx = IterationContext::new();
    ctx.set_packing(mode);
    ctx.set_lists(lists.clone());
    ctx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Packed vs scalar vs all-pairs, across all five backends, for the
    /// 3-bit encoding.
    #[test]
    fn packed_csrs_bit_identical_across_all_five_backends(
        qubits in prop_oneof![Just(1usize), Just(8), Just(21), Just(26), Just(70)],
        n in 20usize..90,
        palette in 4u32..32,
        list in 2u32..6,
        seed in any::<u64>(),
    ) {
        let strings = random_strings(n, qubits, seed);
        let set = EncodedSet::from_strings(&strings);
        let oracle = PauliComplementOracle::new(&set);
        let lists = ColorLists::assign(n, 0, palette, list, seed ^ 0x5bd1e995, 1);

        // Scalar references: bucketed-without-packing and all-pairs.
        let mut scalar_ctx = ctx_with(&lists, PackingMode::Never);
        let reference = build_sequential(&oracle, &mut scalar_ctx);
        prop_assert_eq!(reference.packed_lanes, 0);
        let allpairs = build_sequential_allpairs(&oracle, &mut scalar_ctx);
        prop_assert_eq!(&allpairs.graph, &reference.graph);

        // Packed pipeline through every backend.
        let mut ctx = ctx_with(&lists, PackingMode::Always);
        let seq = build_sequential(&oracle, &mut ctx);
        let par = build_parallel(&oracle, &mut ctx);
        let dev = device::DeviceSim::new(64 * 1024 * 1024);
        let devb = build_device(&oracle, &mut ctx, &dev, 16).unwrap();
        let fleet: Vec<device::DeviceSim> =
            (0..3).map(|_| device::DeviceSim::new(32 * 1024 * 1024)).collect();
        let multi = build_multi_device(&oracle, &mut ctx, &fleet, 16).unwrap();

        let builds: [(&str, &graph::CsrGraph, u64, u64); 4] = [
            ("sequential", &seq.graph, seq.packed_lanes, seq.candidate_pairs),
            ("parallel", &par.graph, par.packed_lanes, par.candidate_pairs),
            ("device", &devb.graph, devb.packed_lanes, devb.candidate_pairs),
            ("multi-device", &multi.graph, multi.packed_lanes, multi.candidate_pairs),
        ];
        let packed_engaged = ctx.pack_builds() == 1;
        for (name, graph, lanes, pairs) in builds {
            prop_assert_eq!(graph, &reference.graph, "{} vs scalar reference", name);
            if packed_engaged {
                prop_assert_eq!(lanes, pairs, "{}: packed lanes cover enumeration", name);
            } else {
                // L close to P: the engine fell back to all-pairs and no
                // replica was built — the scalar path must have run.
                prop_assert_eq!(lanes, 0u64, "{}", name);
            }
        }
        // One replica (at most) served all four backends.
        prop_assert!(ctx.pack_builds() <= 1);
    }

    /// The symplectic encoding rides the same pipeline: its packed CSRs
    /// equal its own scalar build *and* the 3-bit encoding's (same
    /// strings → same anticommutation relation → same graph).
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
        let mut packed_ctx = ctx_with(&lists, PackingMode::Always);
        let packed = build_sequential(&sym_oracle, &mut packed_ctx);
        let mut scalar_ctx = ctx_with(&lists, PackingMode::Never);
        let scalar = build_sequential(&sym_oracle, &mut scalar_ctx);
        prop_assert_eq!(&packed.graph, &scalar.graph);

        let enc = EncodedSet::from_strings(&strings);
        let enc_oracle = PauliComplementOracle::new(&enc);
        let mut enc_ctx = ctx_with(&lists, PackingMode::Always);
        let enc_build = build_sequential(&enc_oracle, &mut enc_ctx);
        prop_assert_eq!(&enc_build.graph, &packed.graph);
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
        let mut scalar_ctx = ctx_with(&lists, PackingMode::Never);
        let reference = build_sequential(&oracle, &mut scalar_ctx);
        prop_assert_eq!(reference.packed_lanes, 0);
        let allpairs = build_sequential_allpairs(&oracle, &mut scalar_ctx);
        prop_assert_eq!(&allpairs.graph, &reference.graph);

        // Mask pipeline through every backend.
        let mut ctx = ctx_with(&lists, PackingMode::Always);
        let seq = build_sequential(&oracle, &mut ctx);
        let par = build_parallel(&oracle, &mut ctx);
        let dev = device::DeviceSim::new(64 * 1024 * 1024);
        let devb = build_device(&oracle, &mut ctx, &dev, 16).unwrap();
        let fleet: Vec<device::DeviceSim> =
            (0..3).map(|_| device::DeviceSim::new(32 * 1024 * 1024)).collect();
        let multi = build_multi_device(&oracle, &mut ctx, &fleet, 16).unwrap();
        for (name, build) in
            [("sequential", &seq), ("parallel", &par), ("device", &devb), ("multi", &multi)]
        {
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
    assert!(packed.pack_from(&oracle, &lists, &index));
    let mut masks = Vec::new();
    packed.tail_edge_mask(0, n, 0, index.bucket(0)[0] as usize, &mut masks);
    assert_eq!(masks.len(), 2, "69-lane tail spans two mask words");
    assert_eq!(masks[0], 1u64 << 63, "high-bit-only hit in word 0");
    assert_eq!(masks[1], 1u64, "low-bit hit in word 1");
    // The zero-word-skip consumer recovers exactly the defect triangle
    // (one hit bit per edge, every other word skipped whole).
    use picasso::{MaskScanStats, PairSource};
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

/// Non-property pin: an empty set and a singleton survive the packed
/// path (the builders' degenerate early-outs).
#[test]
fn degenerate_sets_build_empty_graphs() {
    for n in [0usize, 1] {
        let strings = random_strings(n, 4, 9);
        let set = EncodedSet::from_strings(&strings);
        let oracle = PauliComplementOracle::new(&set);
        let lists = ColorLists::assign(n, 0, 4, 2, 1, 1);
        let mut ctx = ctx_with(&lists, PackingMode::Always);
        let built = build_sequential(&oracle, &mut ctx);
        assert_eq!(built.graph, CsrGraph::empty(n));
        assert_eq!(built.num_edges, 0);
    }
}
