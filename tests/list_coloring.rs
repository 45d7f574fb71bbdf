//! Property suite for the list-coloring kernels of Lines 8–9: whatever
//! the conflict-graph density, palette shape, or seed, (a) the dynamic
//! bucket greedy of Algorithm 2 and every static-order scheme produce
//! *valid* partial list-colorings, (b) a warm, reused `ColorScratch`
//! reproduces a fresh one bit for bit, and (c) the solver's end-to-end
//! color counts under the static orderings stay within a bounded
//! quality delta of greedy across the same density-sweep oracles as
//! `tests/packed_equivalence.rs`.

use coloring::OrderingHeuristic;
use graph::{CsrGraph, PackedWordOracle};
use picasso::conflict::build_sequential;
use picasso::listcolor::{
    greedy_list_color, greedy_list_color_into, static_list_color, static_list_color_into,
};
use picasso::{
    ColorLists, ColorScratch, IterationContext, ListColorOutcome, ListColoringScheme, Picasso,
    PicassoConfig,
};
use proptest::prelude::*;

const STATIC_ORDERS: [OrderingHeuristic; 6] = [
    OrderingHeuristic::Natural,
    OrderingHeuristic::Random,
    OrderingHeuristic::LargestFirst,
    OrderingHeuristic::SmallestLast,
    OrderingHeuristic::DynamicLargestFirst,
    OrderingHeuristic::IncidenceDegree,
];

/// A per-iteration conflict instance the solver would face: the conflict
/// CSR of a synthetic packed-word oracle under random palette lists,
/// with the positive-degree vertices as the active set.
fn conflict_instance(
    n: usize,
    words: usize,
    density: f64,
    palette: u32,
    list: u32,
    seed: u64,
) -> (CsrGraph, ColorLists, Vec<u32>) {
    let oracle = PackedWordOracle::with_edge_density(n, words, density, seed);
    let lists = ColorLists::assign(n, 0, palette, list, seed ^ 0x00C0_FFEE, 1);
    let mut ctx = IterationContext::new();
    ctx.set_lists(lists.clone());
    let build = build_sequential(&oracle, &mut ctx);
    let gc = build.graph;
    let active: Vec<u32> = (0..n as u32)
        .filter(|&v| gc.degree(v as usize) > 0)
        .collect();
    (gc, lists, active)
}

/// Validity of a partial list-coloring: assigned colors come from the
/// vertex's own list, no edge is monochromatic, and every active vertex
/// is either colored or reported dry, exactly once.
fn check_valid(
    gc: &CsrGraph,
    lists: &ColorLists,
    active: &[u32],
    out: &ListColorOutcome,
) -> Result<(), String> {
    let mut colors = vec![u32::MAX; gc.num_vertices()];
    for &(v, c) in &out.assigned {
        if !lists.row(v as usize).contains(&c) {
            return Err(format!("vertex {v} got color {c} outside its list"));
        }
        colors[v as usize] = c;
    }
    let mut seen: Vec<u32> = out
        .assigned
        .iter()
        .map(|&(v, _)| v)
        .chain(out.uncolored.iter().copied())
        .collect();
    seen.sort_unstable();
    let mut expected = active.to_vec();
    expected.sort_unstable();
    if seen != expected {
        return Err("active vertices not each colored or dry exactly once".into());
    }
    for (u, v) in gc.edges() {
        let (cu, cv) = (colors[u as usize], colors[v as usize]);
        if cu != u32::MAX && cu == cv {
            return Err(format!("edge ({u},{v}) monochromatic"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) + (b): greedy and every static order are valid across the
    /// density sweep, and one scratch reused across all of them (the
    /// solver's warm path) matches fresh buffers bit for bit.
    #[test]
    fn kernels_valid_and_bit_identical_across_scratch_reuse(
        density in prop_oneof![Just(0.0f64), Just(0.01), Just(0.5), Just(1.0)],
        words in prop_oneof![Just(1usize), Just(2)],
        n in 40usize..120,
        palette in 6u32..24,
        list in 2u32..6,
        seed in any::<u64>(),
    ) {
        let (gc, lists, active) = conflict_instance(n, words, density, palette, list, seed);
        let mut scratch = ColorScratch::default();
        let mut warm = ListColorOutcome::default();

        greedy_list_color_into(&gc, &lists, &active, seed, &mut scratch, &mut warm);
        let fresh = greedy_list_color(&gc, &lists, &active, seed);
        let valid = check_valid(&gc, &lists, &active, &fresh);
        prop_assert!(valid.is_ok(), "greedy (seed {}): {:?}", seed, valid);
        prop_assert_eq!(&warm.assigned, &fresh.assigned, "greedy (seed {})", seed);
        prop_assert_eq!(&warm.uncolored, &fresh.uncolored, "greedy (seed {})", seed);

        for h in STATIC_ORDERS {
            static_list_color_into(&gc, &lists, &active, h, seed, &mut scratch, &mut warm);
            let fresh = static_list_color(&gc, &lists, &active, h, seed);
            let valid = check_valid(&gc, &lists, &active, &fresh);
            prop_assert!(valid.is_ok(), "{:?} (seed {}): {:?}", h, seed, valid);
            prop_assert_eq!(&warm.assigned, &fresh.assigned, "{:?} (seed {})", h, seed);
            prop_assert_eq!(&warm.uncolored, &fresh.uncolored, "{:?} (seed {})", h, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (c): solver end-to-end across the density sweep — every static
    /// order yields a valid coloring of the oracle graph,
    /// deterministically, with color counts within a bounded delta of
    /// the dynamic greedy default.
    #[test]
    fn solver_quality_delta_bounded_across_density_sweep(
        density in prop_oneof![Just(0.0f64), Just(0.01), Just(0.5), Just(1.0)],
        n in 40usize..110,
        seed in any::<u64>(),
    ) {
        let oracle = PackedWordOracle::with_edge_density(n, 2, density, seed);
        let base = PicassoConfig::normal(seed ^ 0xD1CE);
        let greedy = Picasso::new(base).solve_oracle(&oracle).unwrap();
        prop_assert!(
            coloring::verify::validate_oracle_coloring(&oracle, &greedy.colors).is_ok(),
            "greedy at density {} (seed {})", density, seed
        );

        for h in [
            OrderingHeuristic::Natural,
            OrderingHeuristic::LargestFirst,
            OrderingHeuristic::SmallestLast,
        ] {
            let cfg = base.with_scheme(ListColoringScheme::Static(h));
            let stat = Picasso::new(cfg).solve_oracle(&oracle).unwrap();
            prop_assert!(
                coloring::verify::validate_oracle_coloring(&oracle, &stat.colors).is_ok(),
                "{:?} at density {} (seed {})", h, density, seed
            );
            let again = Picasso::new(cfg).solve_oracle(&oracle).unwrap();
            prop_assert_eq!(
                &stat.colors, &again.colors,
                "{:?} must be deterministic (seed {})", h, seed
            );
            let (g, s) = (greedy.num_colors as usize, stat.num_colors as usize);
            prop_assert!(
                s <= g + g / 2 + 16 && g <= s + s / 2 + 16,
                "{:?} at density {} (seed {}): {} colors vs greedy {}", h, density, seed, s, g
            );
        }
    }
}
