//! Property tests for the graph substrate.

use graph::{
    csr_from_coo_sequential, csr_from_coo_sequential_in, csr_from_groups_in, ComplementView,
    CooGroups, CsrArena, EdgeOracle,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Generates a unique undirected edge list over `n` vertices.
fn arb_edges(n: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..n as u32, 0..n as u32), 0..(n * 3).max(1)).prop_map(|raw| {
        let mut seen = HashSet::new();
        raw.into_iter()
            .filter(|&(u, v)| u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .filter(|e| seen.insert(*e))
            .collect()
    })
}

/// Unique edges over 300 vertices whose rows fall on both sides of the
/// assembler's `len < ⌈n/64⌉ = 5` short-row rule: a sparse random part
/// (degrees around 6) plus one hub adjacent to about half the vertices.
fn arb_mixed_edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    (
        arb_edges(300),
        0..300u32,
        proptest::collection::vec(any::<bool>(), 300),
    )
        .prop_map(|(mut edges, hub, picks)| {
            let mut seen: HashSet<(u32, u32)> = edges.iter().copied().collect();
            for (v, pick) in (0..300u32).zip(picks) {
                let e = (hub.min(v), hub.max(v));
                if pick && v != hub && seen.insert(e) {
                    edges.push(e);
                }
            }
            edges
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Assembly ignores edge order and pair orientation: a shuffled
    /// list and a list with random `(u, v)` flipped to `(v, u)` give the
    /// CSR of the sorted list. The builders rely on this to hand their
    /// edges over unsorted.
    #[test]
    fn csr_ignores_edge_order_and_orientation(edges in arb_edges(60), seed in any::<u64>()) {
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        let reference = csr_from_coo_sequential(60, &sorted);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shuffled = edges.clone();
        shuffled.shuffle(&mut rng);
        prop_assert_eq!(
            &csr_from_coo_sequential(60, &shuffled),
            &reference,
            "shuffled, seed {}",
            seed
        );
        let flipped: Vec<(u32, u32)> = shuffled
            .iter()
            .map(|&(u, v)| if rng.random_bool(0.5) { (v, u) } else { (u, v) })
            .collect();
        prop_assert_eq!(
            &csr_from_coo_sequential(60, &flipped),
            &reference,
            "flipped, seed {}",
            seed
        );
    }

    /// Short rows (sorted) and long rows (kept if ascending, else
    /// bitmap-ordered) both come out as the sorted list's CSR for a
    /// shuffled, randomly flipped pair list.
    #[test]
    fn csr_rows_in_any_order_match_the_sorted_list(
        edges in arb_mixed_edges(),
        seed in any::<u64>(),
    ) {
        let n = 300;
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        let reference = csr_from_coo_sequential(n, &sorted);
        prop_assert!(
            (0..n).any(|v| reference.degree(v) < n.div_ceil(64))
                && (0..n).any(|v| reference.degree(v) >= n.div_ceil(64)),
            "rows on both sides of the rule, seed {}",
            seed
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shuffled: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(u, v)| if rng.random_bool(0.5) { (v, u) } else { (u, v) })
            .collect();
        shuffled.shuffle(&mut rng);
        let whole = csr_from_coo_sequential_in(n, &shuffled, &mut CsrArena::new());
        prop_assert_eq!(&whole, &reference, "shuffled, seed {}", seed);
    }

    /// Groups are pairs: the edges, randomly oriented, gathered by pivot,
    /// each pivot's run ascending, descending or shuffled and split at
    /// random points into several groups, the groups written in random
    /// order and cut at random group boundaries into [`CooGroups`] arenas
    /// visited in random order, assemble to the sorted pair list's CSR.
    #[test]
    fn groups_in_any_split_and_block_order_match_the_sorted_pairs(
        edges in arb_mixed_edges(),
        seed in any::<u64>(),
    ) {
        let n = 300;
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        let reference = csr_from_coo_sequential(n, &sorted);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut runs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(u, v) in &edges {
            let (p, q) = if rng.random_bool(0.5) { (v, u) } else { (u, v) };
            runs[p as usize].push(q);
        }
        let mut groups: Vec<(u32, Vec<u32>)> = Vec::new();
        for (pivot, mut run) in runs.into_iter().enumerate() {
            match rng.random_range(0..3) {
                0 => run.sort_unstable(),
                1 => run.sort_unstable_by(|a, b| b.cmp(a)),
                _ => run.shuffle(&mut rng),
            }
            // At most half a run per group: every run of two or more
            // entries splits.
            while !run.is_empty() {
                let take = rng.random_range(1..=run.len().div_ceil(2));
                groups.push((pivot as u32, run.drain(..take).collect()));
            }
        }
        let pivots: HashSet<u32> = groups.iter().map(|g| g.0).collect();
        prop_assert!(pivots.len() < groups.len(), "some pivot split, seed {}", seed);
        groups.shuffle(&mut rng);
        let mut boundaries: Vec<usize> = (0..rng.random_range(0..8usize))
            .map(|_| rng.random_range(0..=groups.len()))
            .chain([0, groups.len()])
            .collect();
        boundaries.sort_unstable();
        let mut blocks: Vec<CooGroups> = boundaries
            .windows(2)
            .map(|w| {
                let mut block = CooGroups::new();
                for (pivot, run) in &groups[w[0]..w[1]] {
                    for &v in run {
                        block.push(*pivot, v);
                    }
                    // Close every group, so a pivot's split runs stay
                    // separate groups even when adjacent.
                    block.finish();
                }
                block
            })
            .collect();
        blocks.shuffle(&mut rng);
        prop_assert_eq!(
            &csr_from_groups_in(n, &blocks, &mut CsrArena::new()),
            &reference,
            "{} groups in {} blocks, seed {}",
            groups.len(),
            blocks.len(),
            seed
        );
    }

    /// The built CSR is well-formed and contains exactly the input edges.
    #[test]
    fn csr_contains_exactly_input_edges(edges in arb_edges(50)) {
        let g = csr_from_coo_sequential(50, &edges);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.num_edges(), edges.len());
        for &(u, v) in &edges {
            prop_assert!(g.has_edge(u as usize, v as usize));
            prop_assert!(g.has_edge(v as usize, u as usize));
        }
        // Degree sum = 2|E|.
        let degree_sum: usize = (0..50).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * edges.len());
    }

    /// Complementing twice gives back the original edge relation.
    #[test]
    fn complement_is_involution(edges in arb_edges(30)) {
        let g = csr_from_coo_sequential(30, &edges);
        let c = ComplementView::new(&g);
        for u in 0..30 {
            for v in 0..30 {
                if u != v {
                    prop_assert_eq!(g.has_edge(u, v), !c.has_edge(u, v));
                }
            }
        }
    }

    /// Edge count of G plus complement covers all pairs.
    #[test]
    fn graph_plus_complement_is_complete(edges in arb_edges(25)) {
        let g = csr_from_coo_sequential(25, &edges);
        let c = ComplementView::new(&g);
        let mut total = 0usize;
        for u in 0..25 {
            for v in (u + 1)..25 {
                total += (g.has_edge(u, v) || c.has_edge(u, v)) as usize;
            }
        }
        prop_assert_eq!(total, 25 * 24 / 2);
    }
}
