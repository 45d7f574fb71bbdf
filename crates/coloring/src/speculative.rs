//! Speculative iterative parallel coloring with edge-based conflict
//! detection — the algorithm family of Kokkos-EB (Deveci et al.).
//!
//! All uncolored vertices are speculatively first-fit colored in parallel
//! against a racy snapshot; an *edge-centric* sweep then detects
//! monochromatic edges and uncolors the larger endpoint; repeat. The
//! edge-based pass is what makes Kokkos-EB fast — and why it is the most
//! memory-hungry baseline in Table IV: on top of the CSR it materializes
//! the full COO edge list (reproduced here deliberately).

use crate::jp::ParallelColoring;
use crate::UNCOLORED;
use graph::CsrGraph;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Speculative parallel coloring. Deterministic only in its *validity*;
/// the exact coloring depends on thread interleaving, like the original.
pub fn speculative_parallel(g: &CsrGraph, _seed: u64) -> ParallelColoring {
    let n = g.num_vertices();
    // Edge-centric worklist: the explicit COO list (both endpoint order),
    // mirroring Kokkos-EB's edge-based layout and its memory cost.
    let edge_list: Vec<(u32, u32)> = g.edges().collect();

    let colors: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
    let mut worklist: Vec<u32> = (0..n as u32).collect();
    let mut rounds = 0u32;

    while !worklist.is_empty() {
        rounds += 1;
        // Phase 1: speculative first-fit against the racy color snapshot.
        worklist.par_iter().for_each(|&v| {
            let v = v as usize;
            let mut forbidden: Vec<bool> = vec![false; g.degree(v) + 1];
            for &u in g.neighbors(v) {
                let c = colors[u as usize].load(Ordering::Relaxed);
                if c != UNCOLORED && (c as usize) < forbidden.len() {
                    forbidden[c as usize] = true;
                }
            }
            let c = forbidden.iter().position(|&f| !f).unwrap() as u32;
            colors[v].store(c, Ordering::Relaxed);
        });

        // Phase 2: edge-based conflict detection; the larger endpoint of a
        // monochromatic edge is sent back for recoloring.
        let in_conflict: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        edge_list.par_iter().for_each(|&(u, v)| {
            let cu = colors[u as usize].load(Ordering::Relaxed);
            let cv = colors[v as usize].load(Ordering::Relaxed);
            if cu == cv && cu != UNCOLORED {
                let loser = u.max(v);
                in_conflict[loser as usize].store(true, Ordering::Relaxed);
            }
        });

        worklist = (0..n as u32)
            .into_par_iter()
            .filter(|&v| in_conflict[v as usize].load(Ordering::Relaxed))
            .collect();
        worklist.par_iter().for_each(|&v| {
            colors[v as usize].store(UNCOLORED, Ordering::Relaxed);
        });
    }

    let colors: Vec<u32> = colors.into_iter().map(|c| c.into_inner()).collect();
    let num_colors = crate::verify::num_colors(&colors);
    ParallelColoring {
        colors,
        num_colors,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_valid_coloring;
    use graph::gen::{complete_graph, cycle_graph, erdos_renyi, star_graph};

    #[test]
    fn valid_on_random_graphs() {
        for seed in 0..4 {
            let g = erdos_renyi(300, 0.15, seed);
            let r = speculative_parallel(&g, seed);
            assert!(is_valid_coloring(&g, &r.colors), "seed {seed}");
            assert!(r.num_colors as usize <= g.max_degree() + 1);
        }
    }

    #[test]
    fn complete_graph_exact_count() {
        let g = complete_graph(12);
        let r = speculative_parallel(&g, 0);
        assert!(is_valid_coloring(&g, &r.colors));
        assert_eq!(r.num_colors, 12);
    }

    #[test]
    fn sparse_graphs_finish_quickly() {
        let g = cycle_graph(500);
        let r = speculative_parallel(&g, 0);
        assert!(is_valid_coloring(&g, &r.colors));
        assert!(r.num_colors <= 3);
        assert!(r.rounds <= 16, "cycle took {} rounds", r.rounds);
    }

    #[test]
    fn star_two_colors() {
        let g = star_graph(100);
        let r = speculative_parallel(&g, 0);
        assert!(is_valid_coloring(&g, &r.colors));
        assert_eq!(r.num_colors, 2);
    }

    #[test]
    fn dense_graph_terminates() {
        let g = erdos_renyi(150, 0.6, 7);
        let r = speculative_parallel(&g, 7);
        assert!(is_valid_coloring(&g, &r.colors));
    }
}
