//! CSR construction from unordered COO edge lists.
//!
//! Mirrors the construction step of the paper's Algorithm 3: count
//! per-vertex edge counts, exclusive prefix sum into offsets, scatter
//! arcs, sort adjacency slices. The per-row sort makes the output
//! independent of edge order and of the orientation of each `(u, v)`
//! pair, so every backend hands its edges over unsorted and still gets
//! the identical graph (the paper stresses its GPU path is
//! deterministic).

use crate::csr::CsrGraph;

/// Reusable CSR staging storage: the offset / adjacency / cursor arrays
/// a build assembles into. The output [`CsrGraph`] takes ownership of
/// the offset and adjacency arrays; handing a retired graph back via
/// [`CsrArena::recycle`] restores them, so a steady-state loop of
/// same-shape builds performs **zero** heap allocations in CSR assembly
/// — the arrays only ever grow to the loop's high-water mark.
#[derive(Debug, Default)]
pub struct CsrArena {
    offsets: Vec<usize>,
    adj: Vec<u32>,
    /// Scatter cursors.
    cursors: Vec<usize>,
}

impl CsrArena {
    /// An empty arena; arrays fill on first use and persist after.
    pub fn new() -> CsrArena {
        CsrArena::default()
    }

    /// Returns a retired graph's storage to the arena for the next
    /// build. Graphs built by other arenas (or `from_parts`) are equally
    /// welcome — capacity is capacity.
    pub fn recycle(&mut self, graph: CsrGraph) {
        let (offsets, adj) = graph.into_parts();
        // Keep whichever arrays are larger; the build takes them anyway.
        if offsets.capacity() > self.offsets.capacity() {
            self.offsets = offsets;
        }
        if adj.capacity() > self.adj.capacity() {
            self.adj = adj;
        }
    }

    /// Current capacities `(offsets, adj, cursors)` — introspection hook
    /// for the allocation-reuse tests.
    pub fn capacities(&self) -> (usize, usize, usize) {
        (
            self.offsets.capacity(),
            self.adj.capacity(),
            self.cursors.capacity(),
        )
    }

    fn take_offsets(&mut self, n: usize) -> Vec<usize> {
        let mut offsets = std::mem::take(&mut self.offsets);
        offsets.clear();
        offsets.resize(n + 1, 0);
        offsets
    }

    fn take_adj(&mut self, len: usize) -> Vec<u32> {
        let mut adj = std::mem::take(&mut self.adj);
        adj.clear();
        adj.resize(len, 0);
        adj
    }
}

/// Sequential CSR build from unique undirected edges (`u != v`; no
/// duplicate `{u, v}` pairs — the conflict-kernel emits each pair once).
pub fn csr_from_coo_sequential(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
    csr_from_coo_sequential_in(n, edges, &mut CsrArena::new())
}

/// [`csr_from_coo_sequential`] assembling into (and growing) an
/// [`CsrArena`]'s storage. Output is identical; a warm arena makes the
/// build allocation-free.
pub fn csr_from_coo_sequential_in(
    n: usize,
    edges: &[(u32, u32)],
    arena: &mut CsrArena,
) -> CsrGraph {
    let mut counts = arena.take_offsets(n);
    for &(u, v) in edges {
        debug_assert!(u != v, "self loop {u}");
        counts[u as usize + 1] += 1;
        counts[v as usize + 1] += 1;
    }
    // Exclusive prefix sum.
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let offsets = counts;
    let mut adj = arena.take_adj(edges.len() * 2);
    arena.cursors.clear();
    arena.cursors.extend_from_slice(&offsets);
    let cursor = &mut arena.cursors;
    for &(u, v) in edges {
        adj[cursor[u as usize]] = v;
        cursor[u as usize] += 1;
        adj[cursor[v as usize]] = u;
        cursor[v as usize] += 1;
    }
    for v in 0..n {
        adj[offsets[v]..offsets[v + 1]].sort_unstable();
    }
    CsrGraph::from_parts(offsets, adj)
}

/// Alias of [`csr_from_coo_sequential_in`], kept under the name of the
/// former thread-parallel assembler (which lost to the sequential build
/// on every benchmark workload) for callers written against it.
pub fn csr_from_coo_parallel_in(n: usize, edges: &[(u32, u32)], arena: &mut CsrArena) -> CsrGraph {
    csr_from_coo_sequential_in(n, edges, arena)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_edges(n: usize, m: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = std::collections::HashSet::new();
        let mut edges = Vec::with_capacity(m);
        while edges.len() < m {
            let u = rng.random_range(0..n as u32);
            let v = rng.random_range(0..n as u32);
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if seen.insert(key) {
                edges.push(key);
            }
        }
        edges
    }

    #[test]
    fn sequential_build_is_valid() {
        let edges = random_edges(50, 200, 1);
        let g = csr_from_coo_sequential(50, &edges);
        assert!(g.validate().is_ok());
        assert_eq!(g.num_edges(), 200);
        for &(u, v) in &edges {
            assert!(g.has_edge(u as usize, v as usize));
        }
    }

    #[test]
    fn empty_edge_list() {
        let g = csr_from_coo_sequential(10, &[]);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn single_edge() {
        let g = csr_from_coo_sequential(2, &[(0, 1)]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = csr_from_coo_sequential(100, &[(3, 97)]);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.degree(50), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn arena_builds_match_and_reuse_storage() {
        // The arena build produces the exact graph of the fresh build,
        // and a recycled arena serves same-or-smaller builds without
        // growing any of its arrays.
        let mut arena = CsrArena::new();
        let big = random_edges(150, 900, 7);
        let g = csr_from_coo_sequential_in(150, &big, &mut arena);
        assert_eq!(g, csr_from_coo_sequential(150, &big));
        arena.recycle(g);
        let caps = arena.capacities();
        for seed in 0..4 {
            let edges = random_edges(120, 700, seed);
            let g = csr_from_coo_sequential_in(120, &edges, &mut arena);
            assert_eq!(g, csr_from_coo_sequential(120, &edges), "seed {seed}");
            arena.recycle(g);
            assert_eq!(arena.capacities(), caps, "seed {seed}: arena grew");
        }
    }

    #[test]
    fn recycle_keeps_the_larger_arrays() {
        let mut arena = CsrArena::new();
        let g = csr_from_coo_sequential(50, &random_edges(50, 400, 1));
        arena.recycle(g);
        let (off, adj, _) = arena.capacities();
        assert!(off >= 51 && adj >= 800);
        // Recycling a smaller graph must not shrink the arena.
        arena.recycle(csr_from_coo_sequential(5, &[(0, 1)]));
        let (off2, adj2, _) = arena.capacities();
        assert!(off2 >= off && adj2 >= adj);
    }
}
