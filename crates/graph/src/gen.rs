//! Synthetic graph generators for tests and generic benchmarks.

use crate::builder::csr_from_coo_sequential;
use crate::csr::CsrGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Erdős–Rényi G(n, p): each of the n(n−1)/2 pairs is an edge
/// independently with probability `p`. Rows are sampled in parallel with
/// per-row deterministic seeds, so the result depends only on
/// `(n, p, seed)`.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> CsrGraph {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let edges: Vec<(u32, u32)> = (0..n)
        .into_par_iter()
        .flat_map_iter(|u| {
            let mut rng = StdRng::seed_from_u64(
                seed.wrapping_mul(0x9E3779B97F4A7C15) ^ (u as u64).wrapping_mul(0xD1B5_4A32),
            );
            ((u + 1)..n)
                .filter(move |_| rng.random_bool(p))
                .map(move |v| (u as u32, v as u32))
                .collect::<Vec<_>>()
        })
        .collect();
    csr_from_coo_sequential(n, &edges)
}

/// The complete graph K_n.
pub fn complete_graph(n: usize) -> CsrGraph {
    let edges: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
        .collect();
    csr_from_coo_sequential(n, &edges)
}

/// The cycle C_n (n ≥ 3).
pub fn cycle_graph(n: usize) -> CsrGraph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let edges: Vec<(u32, u32)> = (0..n as u32)
        .map(|u| (u, (u + 1) % n as u32))
        .map(|(u, v)| (u.min(v), u.max(v)))
        .collect();
    csr_from_coo_sequential(n, &edges)
}

/// The path P_n.
pub fn path_graph(n: usize) -> CsrGraph {
    let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1) as u32)
        .map(|u| (u, u + 1))
        .collect();
    csr_from_coo_sequential(n, &edges)
}

/// The star K_{1,n−1}: vertex 0 adjacent to all others.
pub fn star_graph(n: usize) -> CsrGraph {
    assert!(n >= 1);
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
    csr_from_coo_sequential(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn er_density_tracks_p() {
        let n = 400;
        let g = erdos_renyi(n, 0.3, 7);
        assert!(g.validate().is_ok());
        let possible = (n * (n - 1) / 2) as f64;
        let density = g.num_edges() as f64 / possible;
        assert!((density - 0.3).abs() < 0.03, "density {density}");
    }

    #[test]
    fn er_is_deterministic_in_seed() {
        let a = erdos_renyi(100, 0.2, 3);
        let b = erdos_renyi(100, 0.2, 3);
        let c = erdos_renyi(100, 0.2, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn er_extremes() {
        let empty = erdos_renyi(50, 0.0, 1);
        assert_eq!(empty.num_edges(), 0);
        let full = erdos_renyi(50, 1.0, 1);
        assert_eq!(full.num_edges(), 50 * 49 / 2);
    }

    #[test]
    fn complete_graph_shape() {
        let g = complete_graph(8);
        assert_eq!(g.num_edges(), 28);
        assert_eq!(g.max_degree(), 7);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn cycle_and_path_degrees() {
        let c = cycle_graph(10);
        assert!(c.validate().is_ok());
        assert!((0..10).all(|v| c.degree(v) == 2));
        let p = path_graph(10);
        assert_eq!(p.degree(0), 1);
        assert_eq!(p.degree(5), 2);
        assert_eq!(p.num_edges(), 9);
    }

    #[test]
    fn star_shape() {
        let s = star_graph(6);
        assert_eq!(s.degree(0), 5);
        assert!((1..6).all(|v| s.degree(v) == 1));
    }
}
