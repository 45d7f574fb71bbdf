//! Property tests for the graph substrate.

use graph::{csr_from_coo_sequential, ComplementView, EdgeOracle};
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
