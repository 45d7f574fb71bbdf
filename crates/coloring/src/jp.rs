//! Jones–Plassmann coloring with largest-degree-first priorities.
//!
//! [`jones_plassmann_ldf`] is the algorithm family of ECL-GC-R
//! (Alabandi & Burtscher): in each round the vertices whose
//! (degree, random-tiebreak) priority beats every uncolored neighbor
//! form an independent set and are colored concurrently with the
//! smallest color unused among their colored neighbors. High quality
//! (close to sequential LF) at the cost of many rounds on dense graphs —
//! matching the paper's observation that ECL-GC-R is the quality leader
//! but the slowest GPU baseline.

use crate::UNCOLORED;
use graph::CsrGraph;
use rayon::prelude::*;

/// Deterministic per-vertex tiebreak hash (splitmix64 finalizer).
#[inline]
fn tiebreak(seed: u64, v: u32) -> u64 {
    let mut x = seed ^ (v as u64).wrapping_mul(0x9E3779B97F4A7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51AFD7ED558CCD);
    x ^= x >> 33;
    x
}

/// Result of a parallel coloring run.
#[derive(Clone, Debug)]
pub struct ParallelColoring {
    /// Color of each vertex.
    pub colors: Vec<u32>,
    /// Number of distinct colors used.
    pub num_colors: u32,
    /// Rounds until convergence.
    pub rounds: u32,
}

/// Jones–Plassmann with LDF priority. Deterministic for a given seed.
pub fn jones_plassmann_ldf(g: &CsrGraph, seed: u64) -> ParallelColoring {
    let n = g.num_vertices();
    let mut colors = vec![UNCOLORED; n];
    // The vertex id as the final component makes priorities strictly
    // totally ordered, guaranteeing progress even on hash collisions.
    let priority: Vec<(u32, u64, u32)> = (0..n as u32)
        .map(|v| (g.degree(v as usize) as u32, tiebreak(seed, v), v))
        .collect();
    let mut worklist: Vec<u32> = (0..n as u32).collect();
    let mut rounds = 0u32;

    while !worklist.is_empty() {
        rounds += 1;
        // Local maxima of the priority among *uncolored* neighbors form an
        // independent set; color them concurrently.
        let winners: Vec<u32> = worklist
            .par_iter()
            .copied()
            .filter(|&v| {
                let pv = priority[v as usize];
                g.neighbors(v as usize)
                    .iter()
                    .all(|&u| colors[u as usize] != UNCOLORED || priority[u as usize] < pv)
            })
            .collect();
        debug_assert!(!winners.is_empty(), "JP must make progress each round");

        let assigned: Vec<(u32, u32)> = winners
            .par_iter()
            .map(|&v| {
                let mut forbidden: Vec<bool> = vec![false; g.degree(v as usize) + 1];
                for &u in g.neighbors(v as usize) {
                    let c = colors[u as usize];
                    if c != UNCOLORED && (c as usize) < forbidden.len() {
                        forbidden[c as usize] = true;
                    }
                }
                let c = forbidden.iter().position(|&f| !f).unwrap() as u32;
                (v, c)
            })
            .collect();
        for (v, c) in assigned {
            colors[v as usize] = c;
        }
        worklist.retain(|&v| colors[v as usize] == UNCOLORED);
    }

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
            let g = erdos_renyi(200, 0.2, seed);
            let r = jones_plassmann_ldf(&g, seed);
            assert!(is_valid_coloring(&g, &r.colors), "seed {seed}");
            assert!(r.num_colors as usize <= g.max_degree() + 1);
            assert!(r.rounds >= 1);
        }
    }

    #[test]
    fn complete_graph_exact() {
        let g = complete_graph(9);
        let r = jones_plassmann_ldf(&g, 1);
        assert!(is_valid_coloring(&g, &r.colors));
        assert_eq!(r.num_colors, 9);
        // K_n serializes: one vertex per round.
        assert_eq!(r.rounds, 9);
    }

    #[test]
    fn star_two_colors_fast() {
        let g = star_graph(50);
        let r = jones_plassmann_ldf(&g, 0);
        assert!(is_valid_coloring(&g, &r.colors));
        assert_eq!(r.num_colors, 2);
        assert!(r.rounds <= 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = erdos_renyi(100, 0.3, 5);
        let a = jones_plassmann_ldf(&g, 42);
        let b = jones_plassmann_ldf(&g, 42);
        assert_eq!(a.colors, b.colors);
    }

    #[test]
    fn cycle_uses_few_colors() {
        let g = cycle_graph(101);
        let r = jones_plassmann_ldf(&g, 3);
        assert!(is_valid_coloring(&g, &r.colors));
        assert!(r.num_colors <= 3);
    }
}
