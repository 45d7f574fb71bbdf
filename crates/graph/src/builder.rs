//! CSR construction from unordered COO edge groups.
//!
//! Mirrors the construction step of the paper's Algorithm 3: count
//! per-vertex edge counts, exclusive prefix sum into offsets, scatter
//! arcs, order each adjacency row ascending. The row order makes the
//! output independent of edge order and of the orientation of each
//! edge, so every backend may hand its edges over in any order and still
//! gets the identical graph (the paper stresses its GPU path is
//! deterministic).
//!
//! # COO format
//!
//! The conflict builders stage their edges as [`CooGroups`]: one flat
//! `u32` buffer of groups `[pivot, len, v_1 … v_len]`, the pivot stored
//! once per group rather than once per edge. A scan that emits its hits
//! row by row therefore stages about 4 bytes per edge instead of the 8
//! of a `(u32, u32)` pair. The assembler counts a group's degrees with
//! one `+= len` for the pivot and `+= 1` per entry, and scatters it by
//! copying the run into the pivot's row and writing the pivot into each
//! entry's row. [`csr_from_groups_blocks_in`] assembles group words;
//! [`csr_from_coo_sequential_in`] visits a pair list in place, each pair
//! as a one-entry group of the same core, so there is one assembler for
//! both inputs.
//!
//! When pivots and runs both ascend (the all-pairs scan), every row
//! comes out of the scatter ascending: row `v` first receives the pivots
//! below `v` in group order, then `v`'s own run.
//!
//! # Row ordering
//!
//! Rows are ordered without a comparison sort wherever the scan already
//! did the work. After the scatter each row follows one counted rule,
//! with `words = ⌈n/64⌉`:
//!
//! * a **short** row (`len < words`, the sparse regime) is sorted with
//!   `sort_unstable`;
//! * a **long** row that is already strictly ascending is left as is —
//!   an all-pairs scan visited in COO order delivers every row so;
//! * any other long row is ordered through an `n`-bit bitmap: set one
//!   bit per entry, walk the touched word span writing the set bits back
//!   in ascending order, clearing each word as it is read, so the bitmap
//!   is all zero again for the next row.
//!
//! The input contract is a list of unique undirected edges: `u != v` and
//! no `{u, v}` pair twice, whether inside one group's run or across
//! groups. A duplicate arc in a long row would collapse to one bit, so
//! the bitmap walk asserts — in every build profile — that it wrote back
//! exactly the row's length.

use crate::csr::CsrGraph;
use std::ops::Range;

/// Reusable CSR staging storage: the offset / adjacency / cursor arrays
/// a build assembles into, plus the row-ordering bitmap. The output
/// [`CsrGraph`] takes ownership of the offset and adjacency arrays;
/// handing a retired graph back via [`CsrArena::recycle`] restores them,
/// so a steady-state loop of same-shape builds performs **zero** heap
/// allocations in CSR assembly — the arrays only ever grow to the loop's
/// high-water mark.
#[derive(Debug, Default)]
pub struct CsrArena {
    offsets: Vec<usize>,
    adj: Vec<u32>,
    /// Scatter cursors.
    cursors: Vec<usize>,
    /// Row-ordering bitmap, one bit per vertex (`⌈n/64⌉` words). All
    /// zero between rows; grown on the first long row that arrives
    /// unsorted, so builds whose rows never need it never allocate it.
    bits: Vec<u64>,
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

    /// Current capacities `(offsets, adj, cursors, bits)` — introspection
    /// hook for the allocation-reuse tests. `bits` counts `u64` words of
    /// the row-ordering bitmap; it stays zero until some build orders a
    /// long row that arrived unsorted.
    pub fn capacities(&self) -> (usize, usize, usize, usize) {
        (
            self.offsets.capacity(),
            self.adj.capacity(),
            self.cursors.capacity(),
            self.bits.capacity(),
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

/// The COO format every conflict builder hands to the assembler: one
/// flat `u32` buffer of **groups** `[pivot, len, v_1 … v_len]`, each
/// standing for the edges `{pivot, v_i}`. The pivot is stored once per
/// group instead of once per edge, so a scan that emits its hits row by
/// row stages about one word per edge instead of the two of a
/// `(u, v)` pair.
///
/// [`CooGroups::push`] opens a new group whenever `u` differs from the
/// open group's pivot and appends `v` to it; the length word is written
/// once, when the group closes ([`CooGroups::finish`], or the next
/// pivot). The buffer is cleared, never shrunk, so a warm writer
/// stages a same-shape build without allocating.
#[derive(Clone, Debug, Default)]
pub struct CooGroups {
    words: Vec<u32>,
    /// The open group: the index of its pivot word, and the pivot.
    open: Option<(usize, u32)>,
    /// Entries in the closed groups.
    edges: usize,
}

impl CooGroups {
    /// An empty writer.
    pub fn new() -> CooGroups {
        CooGroups::default()
    }

    /// Drops every group, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.words.clear();
        self.open = None;
        self.edges = 0;
    }

    /// Appends the edge `{u, v}` to the open group if its pivot is `u`,
    /// else closes that group and opens one for `u`.
    #[inline]
    pub fn push(&mut self, u: u32, v: u32) {
        if !matches!(self.open, Some((_, pivot)) if pivot == u) {
            self.finish();
            self.open = Some((self.words.len(), u));
            self.words.extend_from_slice(&[u, 0]);
        }
        self.words.push(v);
    }

    /// Closes the open group, writing its length word. Call before
    /// reading [`CooGroups::words`]; pushing afterwards opens a new
    /// group even for the same pivot.
    pub fn finish(&mut self) {
        if let Some((head, _)) = self.open.take() {
            let len = self.words.len() - head - 2;
            self.words[head + 1] = u32::try_from(len).expect("group longer than u32::MAX");
            self.edges += len;
        }
    }

    /// Appends `other`'s (finished) groups after this writer's, closing
    /// this writer's open group first.
    pub fn append(&mut self, other: &CooGroups) {
        debug_assert!(other.open.is_none(), "append an unfinished writer");
        self.finish();
        self.words.extend_from_slice(&other.words);
        self.edges += other.edges;
    }

    /// Edges in the closed groups: the sum of their lengths.
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// The group words; every group is closed once [`CooGroups::finish`]
    /// ran.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Capacity of the word buffer — introspection hook for the
    /// allocation-reuse tests.
    pub fn capacity(&self) -> usize {
        self.words.capacity()
    }
}

/// Iterator over the `(pivot, run)` groups of a group-word slice.
struct Groups<'a>(&'a [u32]);

impl<'a> Iterator for Groups<'a> {
    type Item = (u32, &'a [u32]);

    #[inline]
    fn next(&mut self) -> Option<(u32, &'a [u32])> {
        let (&pivot, rest) = self.0.split_first()?;
        let (&len, rest) = rest.split_first().expect("group without a length word");
        let (run, rest) = rest.split_at(len as usize);
        self.0 = rest;
        Some((pivot, run))
    }
}

/// Sequential CSR build from unique undirected edges (`u != v`; no
/// duplicate `{u, v}` pairs — the conflict-kernel emits each pair once).
pub fn csr_from_coo_sequential(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
    csr_from_coo_sequential_in(n, edges, &mut CsrArena::new())
}

/// [`csr_from_coo_sequential`] assembling into (and growing) an
/// [`CsrArena`]'s storage. Output is identical; a warm arena makes the
/// build allocation-free. Each pair is visited in place as a one-entry
/// group of the group assembler's core, so pair lists and group buffers
/// go through the same count, scatter and row ordering.
pub fn csr_from_coo_sequential_in(
    n: usize,
    edges: &[(u32, u32)],
    arena: &mut CsrArena,
) -> CsrGraph {
    assemble(
        n,
        || edges.iter().map(|(u, v)| (*u, std::slice::from_ref(v))),
        arena,
    )
}

/// Builds the graph of the group words `words` ([`CooGroups`] format),
/// scattering the word ranges of `blocks` in the order given. `blocks`
/// must partition `words` into whole groups (empty ranges are fine). The
/// graph is the same for any partition, any visit order and any split of
/// a pivot's edges across groups; the order only decides how much row
/// ordering is left to do. A parallel scan that merged its blocks in
/// scheduling order passes them here in scan order, so the scatter sees
/// the sequential groups and its rows arrive as sorted as the scan made
/// them.
///
/// # Panics
///
/// If `blocks` do not cover `words.len()` words, if a block ends inside
/// a group, or if the bitmap row ordering finds a duplicate arc (a
/// contract violation).
pub fn csr_from_groups_blocks_in(
    n: usize,
    words: &[u32],
    blocks: &[Range<usize>],
    arena: &mut CsrArena,
) -> CsrGraph {
    let covered: usize = blocks.iter().map(|b| b.len()).sum();
    assert_eq!(
        covered,
        words.len(),
        "blocks must partition the group words"
    );
    assemble(
        n,
        || blocks.iter().flat_map(|b| Groups(&words[b.clone()])),
        arena,
    )
}

/// The one assembler core over `(pivot, run)` groups. `groups` is
/// called twice — once to count degrees, once to scatter — and must
/// yield the same groups both times.
fn assemble<'a, G>(n: usize, groups: impl Fn() -> G, arena: &mut CsrArena) -> CsrGraph
where
    G: Iterator<Item = (u32, &'a [u32])>,
{
    let mut counts = arena.take_offsets(n);
    for (u, run) in groups() {
        counts[u as usize + 1] += run.len();
        for &v in run {
            debug_assert!(u != v, "self loop {u}");
            counts[v as usize + 1] += 1;
        }
    }
    // Exclusive prefix sum.
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let offsets = counts;
    let mut adj = arena.take_adj(offsets[n]);
    arena.cursors.clear();
    arena.cursors.extend_from_slice(&offsets);
    let cursor = &mut arena.cursors;
    for (u, run) in groups() {
        let at = cursor[u as usize];
        adj[at..at + run.len()].copy_from_slice(run);
        cursor[u as usize] = at + run.len();
        for &v in run {
            adj[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
    }
    order_rows(&offsets, &mut adj, &mut arena.bits);
    CsrGraph::from_parts(offsets, adj)
}

/// Orders every adjacency row ascending by the module's counted rule:
/// short rows sort, strictly ascending long rows stay, other long rows
/// go through the bitmap.
fn order_rows(offsets: &[usize], adj: &mut [u32], bits: &mut Vec<u64>) {
    let words = (offsets.len() - 1).div_ceil(64);
    for (v, bounds) in offsets.windows(2).enumerate() {
        let row = &mut adj[bounds[0]..bounds[1]];
        if row.len() < words {
            row.sort_unstable();
        } else if !row.is_sorted_by(|a, b| a < b) {
            if bits.len() < words {
                bits.resize(words, 0);
            }
            bitmap_order(v, row, bits);
        }
    }
}

/// Orders `row` (vertex `v`'s adjacency) through the all-zero bitmap
/// `bits`, leaving it all zero again.
fn bitmap_order(v: usize, row: &mut [u32], bits: &mut [u64]) {
    let (mut lo, mut hi) = (usize::MAX, 0);
    for &x in row.iter() {
        let w = (x >> 6) as usize;
        bits[w] |= 1 << (x & 63);
        lo = lo.min(w);
        hi = hi.max(w);
    }
    let mut written = 0;
    for (w, word) in (lo..=hi).zip(&mut bits[lo..=hi]) {
        let base = (w << 6) as u32;
        let mut set = std::mem::take(word);
        while set != 0 {
            row[written] = base | set.trailing_zeros();
            written += 1;
            set &= set - 1;
        }
    }
    // A duplicate arc sets one bit twice: the walk would leave a stale
    // tail entry in the row, so this must hold in release builds too.
    assert_eq!(
        written,
        row.len(),
        "duplicate arc in row {v} of CSR assembly"
    );
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
    fn long_rows_take_the_bitmap_and_leave_it_clean() {
        // Vertex 0 is adjacent to everyone, delivered descending: a long
        // unsorted row. The star's leaves are short rows.
        let n = 300;
        let star: Vec<(u32, u32)> = (1..n as u32).rev().map(|v| (v, 0)).collect();
        let mut arena = CsrArena::new();
        let g = csr_from_coo_sequential_in(n, &star, &mut arena);
        assert!(g.neighbors(0).iter().copied().eq(1..n as u32));
        assert_eq!(arena.capacities().3, n.div_ceil(64), "bitmap grown once");
        arena.recycle(g);
        // The same arena then builds further graphs correctly: the
        // bitmap came back all zero.
        for seed in 0..4 {
            let edges = random_edges(n, 4000, seed);
            let mut sorted = edges.clone();
            sorted.sort_unstable();
            let g = csr_from_coo_sequential_in(n, &edges, &mut arena);
            assert_eq!(g, csr_from_coo_sequential(n, &sorted), "seed {seed}");
            arena.recycle(g);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate arc")]
    fn duplicate_arc_in_an_unsorted_dense_row_panics() {
        // Vertex 0's row is long and arrives descending, so it takes the
        // bitmap path; `{0, 7}` appears twice. Not gated on
        // `debug_assertions`: the check must hold in release builds.
        let n = 200;
        let mut edges: Vec<(u32, u32)> = (1..n as u32).rev().map(|v| (0, v)).collect();
        edges.push((0, 7));
        csr_from_coo_sequential(n, &edges);
    }

    #[test]
    #[should_panic(expected = "duplicate arc")]
    fn duplicate_arc_in_an_ascending_dense_row_panics() {
        // Non-strictly ascending is not "already ordered": the repeated
        // entry sends the row to the bitmap, which catches it.
        let n = 200;
        let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
        edges.insert(7, (0, 7));
        csr_from_coo_sequential(n, &edges);
    }

    /// Stages `edges` through a [`CooGroups`] writer in the given order.
    fn groups_of(edges: &[(u32, u32)]) -> CooGroups {
        let mut groups = CooGroups::new();
        for &(u, v) in edges {
            groups.push(u, v);
        }
        groups.finish();
        groups
    }

    fn csr_from_groups(n: usize, groups: &CooGroups) -> CsrGraph {
        let words = groups.words();
        let whole = 0..words.len();
        csr_from_groups_blocks_in(n, words, std::slice::from_ref(&whole), &mut CsrArena::new())
    }

    #[test]
    fn writer_opens_a_group_per_pivot_change() {
        let groups = groups_of(&[(3, 4), (3, 9), (1, 2), (3, 5)]);
        assert_eq!(groups.words(), &[3, 2, 4, 9, 1, 1, 2, 3, 1, 5]);
        assert_eq!(groups.num_edges(), 4);
        let mut both = groups.clone();
        both.push(7, 8);
        both.append(&groups_of(&[(7, 6)]));
        assert_eq!(
            &both.words()[10..],
            &[7, 1, 8, 7, 1, 6],
            "append closes the open group"
        );
        assert_eq!(both.num_edges(), 6);
        let capacity = both.capacity();
        both.clear();
        assert_eq!((both.words().len(), both.num_edges()), (0, 0));
        assert_eq!(both.capacity(), capacity, "clear keeps the buffer");
    }

    #[test]
    fn groups_build_the_pair_graph() {
        let edges = random_edges(120, 900, 3);
        let mut by_pivot = edges.clone();
        by_pivot.sort_unstable();
        let reference = csr_from_coo_sequential(120, &edges);
        assert_eq!(csr_from_groups(120, &groups_of(&by_pivot)), reference);
        assert_eq!(csr_from_groups(120, &groups_of(&edges)), reference);
        assert_eq!(
            csr_from_groups(120, &CooGroups::new()),
            CsrGraph::empty(120)
        );
    }

    #[test]
    #[should_panic(expected = "duplicate arc")]
    fn duplicate_arc_inside_a_group_run_panics() {
        // One group `[0, n, …]` whose run holds `7` twice: vertex 0's row
        // is long and unsorted, so the bitmap catches the repeat in every
        // build profile.
        let n = 200u32;
        let mut edges: Vec<(u32, u32)> = (1..n).rev().map(|v| (0, v)).collect();
        edges.insert(20, (0, 7));
        let groups = groups_of(&edges);
        assert_eq!(groups.words()[1], n, "one group");
        csr_from_groups(n as usize, &groups);
    }

    #[test]
    #[should_panic(expected = "duplicate arc")]
    fn duplicate_arc_across_two_groups_panics() {
        // `{0, 7}` appears in vertex 0's group and again in a later group
        // pivoted at 7: vertex 0's long row receives 7 twice.
        let n = 200u32;
        let mut edges: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        edges.push((7, 0));
        let groups = groups_of(&edges);
        assert_eq!(groups.words().len(), (n as usize - 1) + 2 + 3, "two groups");
        csr_from_groups(n as usize, &groups);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn blocks_must_cover_every_group_word() {
        let edges = random_edges(50, 100, 1);
        let groups = groups_of(&edges);
        let words = groups.words();
        let short = [0..2, 2..words.len() - 3];
        csr_from_groups_blocks_in(50, words, &short, &mut CsrArena::new());
    }

    #[test]
    fn recycle_keeps_the_larger_arrays() {
        let mut arena = CsrArena::new();
        let g = csr_from_coo_sequential(50, &random_edges(50, 400, 1));
        arena.recycle(g);
        let (off, adj, _, _) = arena.capacities();
        assert!(off >= 51 && adj >= 800);
        // Recycling a smaller graph must not shrink the arena.
        arena.recycle(csr_from_coo_sequential(5, &[(0, 1)]));
        let (off2, adj2, _, _) = arena.capacities();
        assert!(off2 >= off && adj2 >= adj);
    }
}
