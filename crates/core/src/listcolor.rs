//! List-coloring of the conflict graph (§IV-B, Algorithm 2) — the
//! solver's Line-8/9 scheme lattice.
//!
//! The default scheme is the paper's dynamic greedy: vertices live in
//! buckets keyed by their *current* list size; each step picks a uniform
//! random vertex from the lowest non-empty bucket (the most constrained
//! vertices first), colors it with a uniform random list color, and
//! removes that color from every uncolored neighbor's list, moving them
//! between buckets in O(1). A vertex whose list empties joins `Vu` and is
//! retried in the next Picasso iteration.
//!
//! The lists themselves stay in [`ColorLists`], immutable and sorted;
//! the greedy keeps only which colours of each are still live, one bit
//! per (vertex, list colour), in one of two forms chosen per call by one
//! rule ([`uses_palette_bitset`]: `2·⌈P/64⌉ ≤ L`). Long lists take
//! **holder sets**, one `⌈m/64⌉`-word set per palette colour of the
//! uncoloured vertices whose lists still hold it: a strike is one bit
//! test and clear, O(1). Short lists take **position masks**, `L` bits
//! per vertex over the positions of its sorted row, packed end to end
//! (vertex `v`'s bit `i` is bit `v·L + i` of one `⌈m·L/64⌉`-word array):
//! a strike needs the position of the colour in the neighbour's row. A
//! bucket row of the hit-mask form hands it out, recorded by Line 7's
//! fill (`crate::conflict::HitMasks`); a CSR or identity row does not,
//! and the strike finds it by binary search, O(log L). Either way a
//! colour draw takes the `k`-th live colour in row order, O(L), as it
//! clears the drawn vertex's bits, so both forms yield the same
//! colouring. The `_into` variant runs against a persistent
//! [`ColorScratch`], keeping the warm sequential path at exactly zero
//! heap allocations (pinned by `tests/memory.rs`).
//!
//! The greedy reads the conflict graph through one crate-private
//! interface, so it colours Line 7's output in either form: a
//! [`CsrGraph`], or the hit-mask rows the solver's host builds keep
//! when they take fewer bytes (`crate::conflict`, "Graph form"). A
//! strike walk has one contract on every form: given `c`'s holder set it
//! hands out exactly the neighbours in it and clears them, so it calls
//! back once per successful strike. The all-pairs identity layout ANDs
//! `v`'s row with the set, `⌈m/64⌉` words per coloured vertex; a CSR row
//! or a bucket row tests each member. Without holder sets the walk hands
//! out every neighbour that may hold `c`, with the position of `c` in its
//! row where the graph form knows it, and each strike without one
//! searches. The outcome counts the strikes and the walks' callbacks
//! ([`ListColorOutcome::strikes`]).
//!
//! Static-order alternatives (Natural / Random / LF / SL / DLF / ID over
//! the conflict graph) are provided for the paper's comparison that
//! favoured the dynamic scheme.

use crate::assign::ColorLists;
use crate::packed::palette_words;
use coloring::OrderingHeuristic;
use graph::CsrGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of list-coloring a conflict graph.
#[derive(Clone, Debug, Default)]
pub struct ListColorOutcome {
    /// `(local vertex, color)` assignments made.
    pub assigned: Vec<(u32, u32)>,
    /// Local vertices whose lists ran dry (`Vu` in the paper).
    pub uncolored: Vec<u32>,
    /// Algorithm 2's successful strikes: live colours removed from an
    /// uncoloured neighbour's list. Zero under a static scheme.
    pub strikes: u64,
    /// Callbacks of the greedy's strike walks, successful or not: equal
    /// to [`ListColorOutcome::strikes`] with holder sets, above it where
    /// a walk hands out neighbours that no longer hold the colour.
    pub strike_callbacks: u64,
}

impl ListColorOutcome {
    /// Resets for reuse without releasing buffer capacity.
    pub fn clear(&mut self) {
        self.assigned.clear();
        self.uncolored.clear();
        self.strikes = 0;
        self.strike_callbacks = 0;
    }
}

/// Persistent buffers for the sequential list-coloring schemes, owned by
/// `IterationScratch` so warm solver iterations allocate nothing. The
/// greedy reads each list from [`ColorLists`] and keeps only which of its
/// colours are still live, one bit each, in the form
/// [`uses_palette_bitset`] picks: one `⌈m/64⌉`-word holder set per
/// palette colour, or `L` bits per vertex over the positions of its
/// sorted row, packed end to end. Both forms share one buffer, cleared and
/// resized per call and never shrunk, as are the size buckets; the static
/// scheme's forbidden set is a generation-stamped palette row instead of
/// a hash set.
#[derive(Clone, Debug, Default)]
pub struct ColorScratch {
    /// The live bits. Holder sets: colour `c`'s set is `bits[(c − base)·⌈m/64⌉
    /// ..]`, bit `u` set while `u` is active, not yet colored and still
    /// holds `c`. Position masks: bit `v·L + i` of `bits` is set while `v`
    /// is active, not yet colored and still holds `lists.row(v)[i]`.
    bits: Vec<u64>,
    buckets: SizeBuckets,
    /// Static scheme: committed color per vertex.
    colors: Vec<u32>,
    /// Static scheme: active-vertex mask.
    active_mask: Vec<u8>,
    /// Static scheme: generation stamps per palette slot (forbidden iff
    /// `stamp[c - palette_base] == generation`).
    stamp: Vec<u32>,
    generation: u32,
}

/// Marks a vertex that sits in no bucket: colored, dry, or not active.
const NO_BUCKET: u32 = u32::MAX;

/// Algorithm 2's buckets keyed by current list length: a vertex with `k`
/// live colors sits in `queues[k]` at `pos[v]`, and `len[v] == k`.
#[derive(Clone, Debug, Default)]
struct SizeBuckets {
    queues: Vec<Vec<u32>>,
    len: Vec<u32>,
    pos: Vec<u32>,
}

impl SizeBuckets {
    /// Empties the buckets for `m` vertices with lists of at most `l`.
    fn reset(&mut self, m: usize, l: usize) {
        while self.queues.len() < l + 1 {
            self.queues.push(Vec::new());
        }
        for q in &mut self.queues {
            q.clear();
        }
        self.len.clear();
        self.len.resize(m, NO_BUCKET);
        self.pos.clear();
        self.pos.resize(m, NO_BUCKET);
    }

    fn insert(&mut self, v: u32, k: usize) {
        self.len[v as usize] = k as u32;
        self.pos[v as usize] = self.queues[k].len() as u32;
        self.queues[k].push(v);
    }

    /// O(1) swap-removal of `v` from its bucket.
    fn remove(&mut self, v: u32) {
        let q = &mut self.queues[self.len[v as usize] as usize];
        let p = self.pos[v as usize] as usize;
        let last = q.pop().expect("bucket underflow");
        if last != v {
            q[p] = last;
            self.pos[last as usize] = p as u32;
        }
        self.len[v as usize] = NO_BUCKET;
    }

    /// Moves `u`, which just lost a live colour, down one bucket, or into
    /// `dry` when that was its last.
    fn shrink(&mut self, u: u32, dry: &mut Vec<u32>) {
        let len = self.len[u as usize];
        debug_assert_ne!(len, NO_BUCKET, "a strike on {u}, which holds nothing");
        self.remove(u);
        if len == 1 {
            dry.push(u);
        } else {
            self.insert(u, len as usize - 1);
        }
    }
}

/// Whether Algorithm 2 keeps its live lists as per-colour holder sets
/// rather than per-vertex position masks: iff `2·⌈P/64⌉ ≤ L`. The rule is
/// one of strike cost: a holder set strikes in O(1) (the walk tests and
/// clears the neighbour's bit) and, where the rule picks it (`P ≤ 32·L`),
/// the `P` sets take about `P·m/8` bytes, no more than an `m·L`-entry
/// `u32` copy of the lists; position masks take `L` bits per vertex and
/// strike in O(1) where the graph form hands out the position, else in
/// O(log L), a binary search of the vertex's sorted row. Long lists over
/// a small palette (Aggressive, and the `L = P`
/// clamp of late iterations) take holder sets; short lists over a large
/// palette (`P = 1000, L = 8`) take position masks.
pub fn uses_palette_bitset(palette_size: u32, list_size: usize) -> bool {
    2 * palette_words(palette_size) <= list_size
}

/// Bytes Algorithm 2's [`ColorScratch`] holds to colour `m` live
/// vertices with lists of `L` over a palette of `P`: the live lists in
/// the form [`uses_palette_bitset`] picks, `8·P·⌈m/64⌉` bytes of holder
/// sets or `8·⌈m·L/64⌉` of position masks, plus `12` per vertex of size
/// buckets (its list length, its queue position and its queue entry).
pub fn greedy_scratch_bytes(m: usize, palette_size: u32, list_size: usize) -> u64 {
    let live = if uses_palette_bitset(palette_size, list_size) {
        8 * palette_size as usize * m.div_ceil(64)
    } else {
        8 * (m * list_size).div_ceil(64)
    };
    (live + 12 * m) as u64
}

/// Whether a strike walk hands out `u`: always without a holder set
/// (`holders` empty), else iff `u` is in it, which clears it.
#[inline]
pub(crate) fn take_holder(holders: &mut [u64], u: u32) -> bool {
    if holders.is_empty() {
        return true;
    }
    let word = &mut holders[u as usize / 64];
    let bit = 1 << (u % 64);
    let held = *word & bit != 0;
    *word &= !bit;
    held
}

/// What Lines 8–9 ask of a conflict graph, in either form of Line 7's
/// output: a [`CsrGraph`], or the hit-mask rows a host build keeps
/// (`conflict::MaskGraph`).
pub(crate) trait ConflictRows {
    /// Vertices of the graph: the live set's local ids.
    fn num_vertices(&self) -> usize;
    /// Conflict edges `|Ec|`.
    fn num_edges(&self) -> usize;
    /// Whether `v` has a conflict neighbour; Line 8 colors every vertex
    /// that has none straight away.
    fn is_conflicted(&self, v: usize) -> bool;
    /// Calls `strike(u, at)`, in ascending `u`, for neighbours `u` of `v`
    /// after `v` took color `c`. Given a non-empty `holders`, `c`'s holder
    /// set, it hands out exactly the neighbours in it and clears each
    /// one's bit: the identity layout's hit-mask row ANDs it a word at a
    /// time, a CSR row and `v`'s row in bucket `c` test each member. Given
    /// an empty one, it hands out every neighbour that may hold `c`: all
    /// of them (a CSR or identity row) or those whose lists held `c` (the
    /// bucket row). A strike can succeed only on an uncoloured neighbour
    /// whose list still holds `c`, and a failed strike changes nothing,
    /// so every walk strikes the same vertices in the same order. `at` is
    /// the position of `c` in `u`'s sorted list where the form recorded
    /// it (a bucket row of a build that [`records_strike_positions`]),
    /// else `None`.
    ///
    /// [`records_strike_positions`]: crate::conflict::records_strike_positions
    fn for_each_strike(
        &self,
        v: usize,
        c: u32,
        holders: &mut [u64],
        strike: impl FnMut(u32, Option<usize>),
    );
}

impl ConflictRows for CsrGraph {
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    fn is_conflicted(&self, v: usize) -> bool {
        self.degree(v) > 0
    }

    fn for_each_strike(
        &self,
        v: usize,
        _c: u32,
        holders: &mut [u64],
        mut strike: impl FnMut(u32, Option<usize>),
    ) {
        for &u in self.neighbors(v) {
            if take_holder(holders, u) {
                strike(u, None);
            }
        }
    }
}

/// Algorithm 2: dynamic bucket greedy list-coloring.
///
/// `active` lists the local vertex ids to color (the conflicted vertices
/// `Vc`); `gc` must contain edges only among them. The live lists take
/// the form [`uses_palette_bitset`] picks; both forms draw the same RNG
/// sequence and pick the `k`-th live colour in row order, so the outcome
/// does not depend on the form. Produces exactly the same assignments as
/// [`greedy_list_color`]; warm calls against a reused [`ColorScratch`]
/// perform zero heap allocations.
pub fn greedy_list_color_into(
    gc: &CsrGraph,
    lists: &ColorLists,
    active: &[u32],
    seed: u64,
    scratch: &mut ColorScratch,
    out: &mut ListColorOutcome,
) {
    greedy_list_color_in(gc, lists, active, seed, scratch, out);
}

/// [`greedy_list_color_into`] over either form of the conflict graph.
pub(crate) fn greedy_list_color_in<G: ConflictRows>(
    gc: &G,
    lists: &ColorLists,
    active: &[u32],
    seed: u64,
    scratch: &mut ColorScratch,
    out: &mut ListColorOutcome,
) {
    let holders = uses_palette_bitset(lists.palette_size(), lists.list_size());
    greedy_in_form(holders, gc, lists, active, seed, scratch, out);
}

/// The live bits of [`ColorScratch::bits`] in one form: holder sets
/// (`holders`, `stride = ⌈m/64⌉` words a colour) or position masks
/// (`stride = L` bits a vertex).
struct LiveBits<'a> {
    bits: &'a mut [u64],
    holders: bool,
    stride: usize,
    base: u32,
}

impl LiveBits<'_> {
    /// The word and bit that say whether `v` still holds `c`, its list's
    /// `i`-th colour.
    fn locate(&self, v: u32, i: usize, c: u32) -> (usize, u64) {
        let v = v as usize;
        if self.holders {
            (
                (c - self.base) as usize * self.stride + v / 64,
                1 << (v % 64),
            )
        } else {
            let bit = v * self.stride + i;
            (bit / 64, 1 << (bit % 64))
        }
    }

    fn set(&mut self, v: u32, i: usize, c: u32) {
        let (w, bit) = self.locate(v, i, c);
        self.bits[w] |= bit;
    }

    /// Clears the bit; whether it was set.
    fn take(&mut self, v: u32, i: usize, c: u32) -> bool {
        let (w, bit) = self.locate(v, i, c);
        let held = self.bits[w] & bit != 0;
        self.bits[w] &= !bit;
        held
    }

    /// Colour `c`'s holder set.
    fn holder_set(&mut self, c: u32) -> &mut [u64] {
        let at = (c - self.base) as usize * self.stride;
        &mut self.bits[at..at + self.stride]
    }
}

/// [`greedy_list_color_in`] with the live-list form given: holder sets
/// (`holders`) or position masks.
fn greedy_in_form<G: ConflictRows>(
    holders: bool,
    gc: &G,
    lists: &ColorLists,
    active: &[u32],
    seed: u64,
    scratch: &mut ColorScratch,
    out: &mut ListColorOutcome,
) {
    let m = gc.num_vertices();
    let ColorScratch { bits, buckets, .. } = scratch;
    buckets.reset(m, lists.list_size());
    let (words, stride) = if holders {
        let stride = m.div_ceil(64);
        (lists.palette_size() as usize * stride, stride)
    } else {
        ((m * lists.list_size()).div_ceil(64), lists.list_size())
    };
    bits.clear();
    bits.resize(words, 0);
    let mut live = LiveBits {
        bits,
        holders,
        stride,
        base: lists.palette_base(),
    };
    out.clear();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_C01D);
    // Every live bit is cleared once, by a pick or by a strike, so the
    // strikes are the bits set here less the bits the picks clear.
    let mut strikes = 0;
    for &v in active {
        let row = lists.row(v as usize);
        for (i, &c) in row.iter().enumerate() {
            live.set(v, i, c);
        }
        buckets.insert(v, row.len());
        strikes += row.len() as u64;
    }
    let mut callbacks = 0;

    while out.assigned.len() + out.uncolored.len() < active.len() {
        // Lowest non-empty bucket (≥1: empty-list vertices are retired
        // eagerly below, so bucket 0 is always empty here). Its index is
        // the picked vertex's list length.
        let len = buckets
            .queues
            .iter()
            .position(|q| !q.is_empty())
            .expect("uncolored vertices left but all buckets empty");
        // Uniform random vertex from the lowest bucket, then a uniform
        // random color from its live list: its `k`-th live colour in row
        // order. Every live bit of `v` is cleared on the way.
        let lowest = &buckets.queues[len];
        let v = lowest[rng.random_range(0..lowest.len())];
        buckets.remove(v);
        strikes -= len as u64;
        let k = rng.random_range(0..len);
        let mut live_colors = 0;
        let mut picked = None;
        for (i, &h) in lists.row(v as usize).iter().enumerate() {
            if live.take(v, i, h) {
                if live_colors == k {
                    picked = Some(h);
                }
                live_colors += 1;
            }
        }
        debug_assert_eq!(live_colors, len, "vertex {v}: bucket and bits disagree");
        let c = picked.expect("pick past the end of a live list");
        out.assigned.push((v, c));

        // Strike c from every uncolored neighbour's list. A holder-set
        // walk hands out exactly the neighbours that still hold c, clearing
        // their bits; without one, each neighbour's bit is at the position
        // the walk hands out, or found by a binary search of its row.
        if holders {
            gc.for_each_strike(v as usize, c, live.holder_set(c), |u, _| {
                buckets.shrink(u, &mut out.uncolored);
            });
        } else {
            gc.for_each_strike(v as usize, c, &mut [], |u, at| {
                callbacks += 1;
                debug_assert!(at.is_none_or(|i| lists.row(u as usize)[i] == c));
                let at = at.or_else(|| lists.row(u as usize).binary_search(&c).ok());
                if at.is_some_and(|i| live.take(u, i, c)) {
                    buckets.shrink(u, &mut out.uncolored);
                }
            });
        }
    }
    // A holder-set walk calls back once per successful strike.
    out.strikes = strikes;
    out.strike_callbacks = if holders { strikes } else { callbacks };
}

/// Convenience wrapper over [`greedy_list_color_into`] with fresh
/// buffers.
pub fn greedy_list_color(
    gc: &CsrGraph,
    lists: &ColorLists,
    active: &[u32],
    seed: u64,
) -> ListColorOutcome {
    let mut scratch = ColorScratch::default();
    let mut out = ListColorOutcome::default();
    greedy_list_color_into(gc, lists, active, seed, &mut scratch, &mut out);
    out
}

/// Static-order list coloring: visit `active` in the heuristic's order
/// over the conflict graph; give each vertex the first color of its list
/// not already taken by a colored neighbor.
pub fn static_list_color_into(
    gc: &CsrGraph,
    lists: &ColorLists,
    active: &[u32],
    heuristic: OrderingHeuristic,
    seed: u64,
    scratch: &mut ColorScratch,
    out: &mut ListColorOutcome,
) {
    out.clear();
    let m = gc.num_vertices();
    let order = heuristic.order(gc, seed);

    scratch.colors.clear();
    scratch.colors.resize(m, u32::MAX);
    scratch.active_mask.clear();
    scratch.active_mask.resize(m, 0);
    for &v in active {
        scratch.active_mask[v as usize] = 1;
    }
    // Generation-stamped forbidden set over the current palette window:
    // all colors in play lie in `palette_base .. palette_base + palette_size`.
    let palette_base = lists.palette_base();
    scratch.stamp.clear();
    scratch.stamp.resize(lists.palette_size() as usize, 0);
    scratch.generation = 0;

    for &v in &order {
        if scratch.active_mask[v as usize] == 0 {
            continue;
        }
        scratch.generation += 1;
        let generation = scratch.generation;
        for &u in gc.neighbors(v as usize) {
            let c = scratch.colors[u as usize];
            if c != u32::MAX {
                scratch.stamp[(c - palette_base) as usize] = generation;
            }
        }
        match lists
            .row(v as usize)
            .iter()
            .find(|&&c| scratch.stamp[(c - palette_base) as usize] != generation)
        {
            Some(&c) => {
                scratch.colors[v as usize] = c;
                out.assigned.push((v, c));
            }
            None => out.uncolored.push(v),
        }
    }
}

/// Convenience wrapper over [`static_list_color_into`] with fresh
/// buffers.
pub fn static_list_color(
    gc: &CsrGraph,
    lists: &ColorLists,
    active: &[u32],
    heuristic: OrderingHeuristic,
    seed: u64,
) -> ListColorOutcome {
    let mut scratch = ColorScratch::default();
    let mut out = ListColorOutcome::default();
    static_list_color_into(gc, lists, active, heuristic, seed, &mut scratch, &mut out);
    out
}

/// The Line-8/9 kernel a [`crate::ListColoringScheme`] resolves to
/// ([`crate::IterationContext::choose_scheme`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeKind {
    /// Sequential dynamic bucket greedy (Algorithm 2).
    Greedy,
    /// Sequential static-order first-fit under an ordering heuristic.
    Static,
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::{complete_graph, cycle_graph, erdos_renyi};

    /// Coloring must use only list colors and never color an edge
    /// monochromatically.
    /// Checks `out` is a valid partial list coloring of `active`; `case`
    /// names the instance (its seed) in every failure message.
    fn check_outcome(
        gc: &CsrGraph,
        lists: &ColorLists,
        active: &[u32],
        out: &ListColorOutcome,
        case: &str,
    ) {
        let mut color: Vec<Option<u32>> = vec![None; gc.num_vertices()];
        for &(v, c) in &out.assigned {
            assert!(
                lists.row(v as usize).contains(&c),
                "{case}: vertex {v} got color {c} outside its list"
            );
            color[v as usize] = Some(c);
        }
        for (u, v) in gc.edges() {
            if let (Some(cu), Some(cv)) = (color[u as usize], color[v as usize]) {
                assert_ne!(cu, cv, "{case}: edge ({u},{v}) monochromatic");
            }
        }
        // Every active vertex is either assigned or declared dry.
        let settled = out.assigned.len() + out.uncolored.len();
        assert_eq!(settled, active.len(), "{case}");
    }

    #[test]
    fn greedy_on_cycle_with_ample_lists() {
        let gc = cycle_graph(20);
        let active: Vec<u32> = (0..20).collect();
        let lists = ColorLists::assign(20, 0, 10, 4, 1, 0);
        let out = greedy_list_color(&gc, &lists, &active, 7);
        check_outcome(&gc, &lists, &active, &out, "cycle");
        // With 4 colors per list on a cycle, everything should color.
        assert!(out.uncolored.is_empty(), "uncolored: {:?}", out.uncolored);
    }

    #[test]
    fn greedy_on_complete_graph_small_palette_leaves_dry_vertices() {
        // K10 with a 4-color palette: at most 4 vertices can be colored.
        let gc = complete_graph(10);
        let active: Vec<u32> = (0..10).collect();
        let lists = ColorLists::assign(10, 0, 4, 4, 1, 0);
        let out = greedy_list_color(&gc, &lists, &active, 3);
        check_outcome(&gc, &lists, &active, &out, "complete graph");
        assert!(out.assigned.len() <= 4);
        assert!(!out.uncolored.is_empty());
    }

    #[test]
    fn greedy_respects_active_subset() {
        let gc = cycle_graph(10);
        let active: Vec<u32> = vec![0, 1, 2];
        let lists = ColorLists::assign(10, 0, 6, 3, 2, 0);
        let out = greedy_list_color(&gc, &lists, &active, 1);
        check_outcome(&gc, &lists, &active, &out, "active subset");
        for &(v, _) in &out.assigned {
            assert!(active.contains(&v));
        }
    }

    #[test]
    fn greedy_is_deterministic_per_seed() {
        let gc = erdos_renyi(60, 0.3, 4);
        let active: Vec<u32> = (0..60).collect();
        let lists = ColorLists::assign(60, 0, 16, 5, 9, 0);
        let a = greedy_list_color(&gc, &lists, &active, 42);
        let b = greedy_list_color(&gc, &lists, &active, 42);
        assert_eq!(a.assigned, b.assigned);
        assert_eq!(a.uncolored, b.uncolored);
    }

    #[test]
    fn greedy_scratch_reuse_matches_fresh() {
        // A warm (reused) scratch must yield bit-identical outcomes to a
        // fresh one, across differently-shaped back-to-back instances.
        let mut scratch = ColorScratch::default();
        let mut out = ListColorOutcome::default();
        for (n, p, palette, l, seed) in [
            (60usize, 0.3, 16u32, 5u32, 9u64),
            (30, 0.5, 8, 4, 3),
            (90, 0.1, 20, 6, 11),
        ] {
            let gc = erdos_renyi(n, p, seed);
            let active: Vec<u32> = (0..n as u32).collect();
            let lists = ColorLists::assign(n, 0, palette, l, seed, 0);
            greedy_list_color_into(&gc, &lists, &active, seed, &mut scratch, &mut out);
            let fresh = greedy_list_color(&gc, &lists, &active, seed);
            let case = format!("seed {seed}: n={n} P={palette} L={l}");
            assert_eq!(out.assigned, fresh.assigned, "{case}");
            assert_eq!(out.uncolored, fresh.uncolored, "{case}");
            check_outcome(&gc, &lists, &active, &out, &case);
        }
    }

    #[test]
    fn static_schemes_produce_valid_partial_colorings() {
        let gc = erdos_renyi(80, 0.25, 2);
        let active: Vec<u32> = (0..80).collect();
        let lists = ColorLists::assign(80, 0, 20, 6, 5, 0);
        let mut scratch = ColorScratch::default();
        let mut out = ListColorOutcome::default();
        for h in [
            OrderingHeuristic::Natural,
            OrderingHeuristic::Random,
            OrderingHeuristic::LargestFirst,
            OrderingHeuristic::SmallestLast,
            OrderingHeuristic::DynamicLargestFirst,
            OrderingHeuristic::IncidenceDegree,
        ] {
            static_list_color_into(&gc, &lists, &active, h, 3, &mut scratch, &mut out);
            check_outcome(&gc, &lists, &active, &out, &format!("{h:?}"));
            let fresh = static_list_color(&gc, &lists, &active, h, 3);
            assert_eq!(out.assigned, fresh.assigned);
            assert_eq!(out.uncolored, fresh.uncolored);
        }
    }

    #[test]
    fn dynamic_tends_to_beat_static_natural() {
        // The paper's stated reason for Algorithm 2. On a tight palette
        // the dynamic scheme should color at least as many vertices as
        // natural-order first-fit, averaged over seeds.
        let gc = erdos_renyi(120, 0.4, 8);
        let active: Vec<u32> = (0..120).collect();
        let mut dyn_total = 0usize;
        let mut nat_total = 0usize;
        for seed in 0..5 {
            let lists = ColorLists::assign(120, 0, 12, 4, seed, 0);
            dyn_total += greedy_list_color(&gc, &lists, &active, seed).assigned.len();
            nat_total += static_list_color(&gc, &lists, &active, OrderingHeuristic::Natural, seed)
                .assigned
                .len();
        }
        assert!(
            dyn_total * 10 >= nat_total * 9,
            "dynamic {dyn_total} far below natural {nat_total}"
        );
    }

    /// FNV-1a over a coloring outcome: `(assigned, uncolored)`.
    fn outcome_digest(out: &ListColorOutcome) -> (u64, u64) {
        let fnv = |words: &mut dyn Iterator<Item = u32>| {
            words.fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
                (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        (
            fnv(&mut out.assigned.iter().flat_map(|&(v, c)| [v, c])),
            fnv(&mut out.uncolored.iter().copied()),
        )
    }

    /// A conflict graph over `n` vertices: the pairs of an Erdős–Rényi
    /// graph whose lists share a color, restricted to even vertices when
    /// `even_only`. Returns it with its non-isolated (active) vertices.
    fn conflict_instance(
        n: usize,
        density: f64,
        seed: u64,
        lists: &ColorLists,
        even_only: bool,
    ) -> (CsrGraph, Vec<u32>) {
        let edges: Vec<(u32, u32)> = erdos_renyi(n, density, seed)
            .edges()
            .filter(|&(u, v)| !even_only || (u % 2 == 0 && v % 2 == 0))
            .filter(|&(u, v)| lists.intersects(u as usize, v as usize))
            .collect();
        let gc = graph::csr_from_coo_sequential(n, &edges);
        let active = (0..n as u32)
            .filter(|&v| gc.degree(v as usize) > 0)
            .collect();
        (gc, active)
    }

    /// Algorithm 2's outcomes pinned across a `(P, L, palette_base,
    /// active)` matrix that straddles the live-list form rule
    /// `2·⌈P/64⌉ ≤ L`: `P < 64`, `P` off a multiple of 64, the molecule's
    /// `P = 131, L = 110`, `L == P`, `L = 1`, a shifted palette and an
    /// even-only active subset. One warm scratch runs the whole matrix in
    /// order, so every form switch reuses the one live-bit buffer.
    #[test]
    fn greedy_outcomes_match_pinned_digests() {
        #[rustfmt::skip]
        let cases = [
            // (P, L, palette_base, even_only, seed, (assigned, uncolored))
            (40, 5, 0, false, 1, (0x2f1b4b421b566e5b, 0xd036b27cd60d57de)),
            (40, 1, 0, false, 2, (0xf97f1edb904e91c4, 0x51671674702a2aae)),
            (40, 40, 0, false, 3, (0x53cd3dfeeff267e7, 0xf1ea9a25a4bbfff3)),
            (64, 2, 0, false, 4, (0xed222cca90fc977f, 0xecf84804d4cbd0b9)),
            (65, 3, 7, false, 5, (0x44468b50aca31cd1, 0xd21f90ecdb71cddc)),
            (100, 6, 500, false, 6, (0xb04a4dd35deaaef8, 0xaf64824c8603069e)),
            (100, 3, 500, false, 7, (0x64bfebff7efe5562, 0x537c5e4c54a5f2f0)),
            (128, 7, 0, true, 8, (0x198672575dc15f65, 0xcbf29ce484222325)),
            (131, 110, 0, false, 9, (0x82a82a63d80dc290, 0xcbf29ce484222325)),
            (131, 131, 262, false, 10, (0xaaccdb57914f6f1f, 0xcbf29ce484222325)),
            (131, 110, 131, true, 11, (0x3f59fa5a57bb29d1, 0xcbf29ce484222325)),
            (1000, 8, 3000, false, 12, (0x7989806126273498, 0xcbf29ce484222325)),
            (1000, 8, 0, true, 13, (0x2b066b1a87a2bf28, 0xcbf29ce484222325)),
        ];
        let n = 300;
        let mut scratch = ColorScratch::default();
        let mut out = ListColorOutcome::default();
        let mut mismatches = Vec::new();
        let forms: Vec<bool> = cases
            .iter()
            .map(|&(p, l, ..)| uses_palette_bitset(p, l as usize))
            .collect();
        assert!(
            forms.contains(&true) && forms.contains(&false),
            "both forms pinned"
        );
        for (p, l, base, even_only, seed, want) in cases {
            let lists = ColorLists::assign(n, base, p, l, seed, 1);
            let (gc, active) = conflict_instance(n, 0.5, seed, &lists, even_only);
            assert!(
                !even_only || active.len() <= n / 2,
                "seed {seed}: an even subset"
            );
            greedy_list_color_into(&gc, &lists, &active, seed, &mut scratch, &mut out);
            check_outcome(&gc, &lists, &active, &out, &format!("seed {seed}"));
            let got = outcome_digest(&out);
            if got != want {
                mismatches.push(format!(
                    "P={p} L={l} base={base} even_only={even_only} seed {seed}: \
                     ({:#018x}, {:#018x})",
                    got.0, got.1
                ));
            }
        }
        assert!(
            mismatches.is_empty(),
            "digests moved:\n{}",
            mismatches.join("\n")
        );
    }

    /// Both live-list forms, forced, color sampled instances identically
    /// on either side of the rule; a failing case prints its seed.
    #[test]
    fn live_list_forms_agree_on_sampled_instances() {
        let mut scratch = ColorScratch::default();
        let mut positions = ListColorOutcome::default();
        let mut holders = ListColorOutcome::default();
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(1..150usize);
            let p = rng.random_range(1..300u32);
            let l = rng.random_range(1..=p.min(140));
            let base = rng.random_range(0..5000u32);
            let density = rng.random_range(0.0..1.0);
            let lists = ColorLists::assign(n, base, p, l, seed, 2);
            let (gc, active) = conflict_instance(n, density, seed, &lists, seed % 3 == 0);
            greedy_in_form(
                false,
                &gc,
                &lists,
                &active,
                seed,
                &mut scratch,
                &mut positions,
            );
            greedy_in_form(true, &gc, &lists, &active, seed, &mut scratch, &mut holders);
            let case = format!("seed {seed}: n={n} P={p} L={l} base={base} density={density}");
            assert_eq!(positions.assigned, holders.assigned, "{case}");
            assert_eq!(positions.uncolored, holders.uncolored, "{case}");
            check_outcome(&gc, &lists, &active, &holders, &case);
        }
    }

    /// Position masks pack `L` bits per vertex end to end, so a vertex's
    /// bits straddle a word boundary unless `64 | L`. Lists of 63, 64, 65
    /// and 100 colours over palettes of `64·L` colours, which take
    /// position masks by the rule, colour alike in both forms, with as
    /// many strikes.
    #[test]
    fn packed_position_masks_agree_across_word_boundaries() {
        let mut scratch = ColorScratch::default();
        let mut positions = ListColorOutcome::default();
        let mut holders = ListColorOutcome::default();
        for (l, seed) in [(63u32, 1u64), (64, 2), (65, 3), (100, 4)] {
            let (n, p) = (150, 64 * l);
            let case = format!("seed {seed}: P={p} L={l}");
            assert!(!uses_palette_bitset(p, l as usize), "{case}");
            let lists = ColorLists::assign(n, 7, p, l, seed, 1);
            let (gc, active) = conflict_instance(n, 0.6, seed, &lists, false);
            greedy_list_color_into(&gc, &lists, &active, seed, &mut scratch, &mut positions);
            greedy_in_form(true, &gc, &lists, &active, seed, &mut scratch, &mut holders);
            assert_eq!(positions.assigned, holders.assigned, "{case}");
            assert_eq!(positions.uncolored, holders.uncolored, "{case}");
            assert!(positions.strikes > 0, "{case}");
            assert_eq!(positions.strikes, holders.strikes, "{case}");
            check_outcome(&gc, &lists, &active, &positions, &case);
        }
    }

    /// A graph whose strike walks count their callbacks.
    struct Counted<'a, G> {
        graph: &'a G,
        calls: std::cell::Cell<usize>,
    }

    impl<G: ConflictRows> ConflictRows for Counted<'_, G> {
        fn num_vertices(&self) -> usize {
            self.graph.num_vertices()
        }

        fn num_edges(&self) -> usize {
            self.graph.num_edges()
        }

        fn is_conflicted(&self, v: usize) -> bool {
            self.graph.is_conflicted(v)
        }

        fn for_each_strike(
            &self,
            v: usize,
            c: u32,
            holders: &mut [u64],
            mut strike: impl FnMut(u32, Option<usize>),
        ) {
            self.graph.for_each_strike(v, c, holders, |u, at| {
                self.calls.set(self.calls.get() + 1);
                strike(u, at);
            });
        }
    }

    /// Colours `active` over `gc` in the given live-list form; returns the
    /// walks' callbacks, which the outcome counts too.
    fn counted_run<G: ConflictRows>(
        holders: bool,
        gc: &G,
        lists: &ColorLists,
        active: &[u32],
        scratch: &mut ColorScratch,
        out: &mut ListColorOutcome,
    ) -> usize {
        let walk = Counted {
            graph: gc,
            calls: Default::default(),
        };
        greedy_in_form(holders, &walk, lists, active, 11, scratch, out);
        assert_eq!(out.strike_callbacks as usize, walk.calls.get());
        walk.calls.get()
    }

    /// Replays `out`'s assignments in order over `gc`, striking each
    /// color from the live lists of the uncolored neighbours that still
    /// hold it. Returns the successful strikes and the vertices that ran
    /// dry, ascending.
    fn replay_strikes(
        gc: &CsrGraph,
        lists: &ColorLists,
        active: &[u32],
        out: &ListColorOutcome,
    ) -> (usize, Vec<u32>) {
        let mut live: Vec<Option<Vec<u32>>> = vec![None; gc.num_vertices()];
        for &v in active {
            live[v as usize] = Some(lists.row(v as usize).to_vec());
        }
        let (mut strikes, mut dry) = (0, Vec::new());
        for &(v, c) in &out.assigned {
            live[v as usize] = None;
            for &u in gc.neighbors(v as usize) {
                let Some(list) = &mut live[u as usize] else {
                    continue;
                };
                if let Some(at) = list.iter().position(|&h| h == c) {
                    list.remove(at);
                    strikes += 1;
                    if list.is_empty() {
                        live[u as usize] = None;
                        dry.push(u);
                    }
                }
            }
        }
        dry.sort_unstable();
        (strikes, dry)
    }

    /// With holder sets, the strike walk calls back once per successful
    /// strike on all three graph forms (identity-layout masks, bucket
    /// masks and a CSR), where without them a CSR walk of the same
    /// colouring also calls back for neighbours that no longer hold the
    /// colour. Position masks, forced on the same instances, colour them
    /// identically on both graph forms, with as many strikes. The
    /// outcome's counters count the callbacks and strikes. The instances
    /// straddle the rule on either engine.
    #[test]
    fn holder_walks_call_back_once_per_successful_strike_on_all_three_graph_forms() {
        use crate::candidates::CandidateEngine;
        use crate::conflict::{build_host_with, build_sequential, GraphRule, HostGraph};
        use crate::{IterationContext, PauliComplementOracle};
        let m = 300;
        let mut rng = StdRng::seed_from_u64(3);
        let set =
            pauli::EncodedSet::from_strings(&pauli::string::random_unique_set(m, 12, &mut rng));
        let oracle = PauliComplementOracle::new(&set);
        // (P, L, bucketed, holder sets by the rule)
        for (p, l, bucketed, by_rule) in [
            (40u32, 30u32, false, true),
            (8000, 100, false, false),
            (100, 6, true, true),
            (1000, 8, true, false),
        ] {
            let case = format!("P={p} L={l}");
            let lists = ColorLists::assign(m, 5, p, l, 7, 1);
            assert_eq!(CandidateEngine::prefers_buckets(&lists), bucketed, "{case}");
            assert_eq!(uses_palette_bitset(p, l as usize), by_rule, "{case}");
            let mut ctx = IterationContext::new();
            ctx.set_lists(lists.clone());
            let csr = build_sequential(&oracle, &mut ctx).graph;
            let built = build_host_with(&oracle, &mut ctx, false, GraphRule::Masks);
            assert!(matches!(built.graph, HostGraph::Masks), "{case}");
            let (masks, lists, _) = ctx.hit_mask_graph();
            let active: Vec<u32> = (0..m as u32)
                .filter(|&v| csr.degree(v as usize) > 0)
                .collect();
            let mut scratch = ColorScratch::default();
            let mut held = ListColorOutcome::default();
            let mut out = ListColorOutcome::default();

            let calls = counted_run(true, &masks, lists, &active, &mut scratch, &mut held);
            let (strikes, dry) = replay_strikes(&csr, lists, &active, &held);
            assert_eq!(held.strikes as usize, strikes, "{case}: counted strikes");
            let mut uncolored = held.uncolored.clone();
            uncolored.sort_unstable();
            assert_eq!(uncolored, dry, "{case}");
            assert!(strikes > 0, "{case}");
            assert_eq!(calls, strikes, "{case}: mask-walk callbacks");
            let calls = counted_run(true, &csr, lists, &active, &mut scratch, &mut out);
            assert_eq!(
                (&out.assigned, &out.uncolored),
                (&held.assigned, &held.uncolored)
            );
            assert_eq!(calls, strikes, "{case}: CSR-walk callbacks");

            counted_run(false, &masks, lists, &active, &mut scratch, &mut out);
            assert_eq!(
                (&out.assigned, &out.uncolored),
                (&held.assigned, &held.uncolored)
            );
            assert_eq!(out.strikes as usize, strikes, "{case}: mask strikes");
            let calls = counted_run(false, &csr, lists, &active, &mut scratch, &mut out);
            assert_eq!(
                (&out.assigned, &out.uncolored),
                (&held.assigned, &held.uncolored)
            );
            assert_eq!(out.strikes as usize, strikes, "{case}: CSR strikes");
            assert!(calls > strikes, "{case}: CSR callbacks without holder sets");
        }
    }

    #[test]
    fn empty_active_set() {
        let gc = cycle_graph(5);
        let lists = ColorLists::assign(5, 0, 4, 2, 1, 0);
        let out = greedy_list_color(&gc, &lists, &[], 0);
        assert!(out.assigned.is_empty());
        assert!(out.uncolored.is_empty());
    }
}
