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
//! The live lists take one of two forms, chosen per call by one
//! byte-counted rule ([`uses_palette_bitset`]: bitset iff
//! `2·⌈P/64⌉ ≤ L`). Sorted `u32` rows cost O(L) per strike (a binary
//! search and a tail shift), O(|Vc|·L + |Ec|·L) in total. Palette bitsets
//! of `W = ⌈P/64⌉` words cost O(1) per strike and O(W + 64) per pick of
//! the k-th set bit, O(|Vc|·(L + W + 64) + |Ec|) in total. Either form
//! yields the same colouring. The `_into` variant runs against a
//! persistent [`ColorScratch`], keeping the warm sequential path at
//! exactly zero heap allocations (pinned by `tests/memory.rs`).
//!
//! The greedy reads the conflict graph through one crate-private
//! interface, so it colours Line 7's output in either form: a
//! [`CsrGraph`], or the hit-mask rows the solver's host builds keep
//! when they take fewer bytes (`crate::conflict`, "Graph form"). A
//! strike walks only the neighbours that could take it, so both forms
//! give the same colouring too. On the all-pairs identity layout the
//! greedy keeps one `⌈m/64⌉`-word holder set per palette colour (the
//! uncoloured vertices whose live lists still hold it), and a strike of
//! `c` walks `v`'s row AND-ed with `c`'s set: `⌈m/64⌉` words per coloured
//! vertex plus one callback per successful strike, where a CSR row or a
//! bucket row also calls back for neighbours that no longer hold `c`.
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
}

impl ListColorOutcome {
    /// Resets for reuse without releasing buffer capacity.
    pub fn clear(&mut self) {
        self.assigned.clear();
        self.uncolored.clear();
    }
}

/// Persistent buffers for the sequential list-coloring schemes, owned by
/// `IterationScratch` so warm solver iterations allocate nothing. The
/// greedy's live lists take one of two forms ([`uses_palette_bitset`]):
/// sorted rows at stride `L` in `live`, or `⌈P/64⌉`-word palette bitsets
/// in `bits`. Each is cleared and resized when its form runs and never
/// shrunk, as are the size buckets and the per-colour holder sets that
/// the identity-layout strike walk reads; the static scheme's forbidden
/// set is a generation-stamped palette row instead of a hash set.
#[derive(Clone, Debug, Default)]
pub struct ColorScratch {
    /// Sorted form: vertex `v`'s list is `live[v*L ..][.. len]`.
    live: Vec<u32>,
    /// Bitset form: vertex `v`'s palette row is `bits[v*W .. (v+1)*W]`.
    bits: Vec<u64>,
    /// Colour `c`'s holder set is `holders[(c − base)·⌈m/64⌉ ..]`: bit `u`
    /// set while `u` is active, not yet colored and still holds `c`.
    holders: Vec<u64>,
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
}

/// Whether Algorithm 2 keeps its live lists as palette bitsets: iff a
/// `⌈P/64⌉`-word row takes no more bytes than an `L`-entry sorted list,
/// `8·⌈P/64⌉ ≤ 4·L`. Long lists over a small palette (Aggressive, and
/// the `L = P` clamp of late iterations) take bitsets; short lists over
/// a large palette (`P = 1000, L = 8`) stay sorted.
pub fn uses_palette_bitset(palette_size: u32, list_size: usize) -> bool {
    2 * palette_words(palette_size) <= list_size
}

/// Bytes Algorithm 2's [`ColorScratch`] holds to colour `m` live
/// vertices with lists of `L` over a palette of `P`: per vertex, the live
/// list in the form [`uses_palette_bitset`] picks (`8·⌈P/64⌉` bytes of
/// bitset or `4·L` of sorted row), plus `12` of size buckets (its list
/// length, its queue position and its queue entry); and, when it colours
/// the all-pairs identity layout of the hit masks (`identity_masks`), the
/// holder sets, `8·P·⌈m/64⌉` bytes.
pub fn greedy_scratch_bytes(
    m: usize,
    palette_size: u32,
    list_size: usize,
    identity_masks: bool,
) -> u64 {
    let live = if uses_palette_bitset(palette_size, list_size) {
        8 * palette_words(palette_size)
    } else {
        4 * list_size
    };
    let holders = if identity_masks {
        8 * palette_size as usize * m.div_ceil(64)
    } else {
        0
    };
    (m * (live + 12) + holders) as u64
}

/// One storage form of the greedy's live lists. [`SizeBuckets`] tracks
/// every list's length; a form only loads, draws from and strikes.
trait LiveLists {
    /// Loads vertex `v`'s sorted list as its live list.
    fn init(&mut self, v: usize, row: &[u32]);
    /// The `k`-th smallest live color of `v`.
    fn pick(&self, v: usize, k: usize) -> u32;
    /// Removes `c` from `v`'s live list of `len` colors; whether it was
    /// there.
    fn strike(&mut self, v: usize, len: usize, c: u32) -> bool;
    /// Calls `color` for each of the `len` live colors of `v`.
    fn for_each_color(&self, v: usize, len: usize, color: impl FnMut(u32));
}

/// Sorted rows at stride `L`: a strike is a binary search and a shift of
/// the list's tail, O(L).
struct SortedRows<'a> {
    live: &'a mut [u32],
    stride: usize,
}

impl LiveLists for SortedRows<'_> {
    fn init(&mut self, v: usize, row: &[u32]) {
        self.live[v * self.stride..][..row.len()].copy_from_slice(row);
    }

    fn pick(&self, v: usize, k: usize) -> u32 {
        self.live[v * self.stride + k]
    }

    fn strike(&mut self, v: usize, len: usize, c: u32) -> bool {
        let base = v * self.stride;
        match self.live[base..base + len].binary_search(&c) {
            Ok(idx) => {
                self.live
                    .copy_within(base + idx + 1..base + len, base + idx);
                true
            }
            Err(_) => false,
        }
    }

    fn for_each_color(&self, v: usize, len: usize, color: impl FnMut(u32)) {
        self.live[v * self.stride..][..len]
            .iter()
            .copied()
            .for_each(color);
    }
}

/// Palette bitsets of `W` words, bit `c − palette_base`: a strike is one
/// bit test and clear, O(1); a pick selects the `k`-th set bit, O(W + 64).
struct PaletteBits<'a> {
    bits: &'a mut [u64],
    words: usize,
    base: u32,
}

impl LiveLists for PaletteBits<'_> {
    fn init(&mut self, v: usize, row: &[u32]) {
        let bits = &mut self.bits[v * self.words..][..self.words];
        for &c in row {
            let i = (c - self.base) as usize;
            bits[i / 64] |= 1 << (i % 64);
        }
    }

    fn pick(&self, v: usize, k: usize) -> u32 {
        let mut k = k as u32;
        for (w, &word) in self.bits[v * self.words..][..self.words].iter().enumerate() {
            let ones = word.count_ones();
            if k < ones {
                let mut word = word;
                for _ in 0..k {
                    word &= word - 1;
                }
                return self.base + (64 * w) as u32 + word.trailing_zeros();
            }
            k -= ones;
        }
        unreachable!("pick past the end of a live list")
    }

    fn strike(&mut self, v: usize, _len: usize, c: u32) -> bool {
        let i = (c - self.base) as usize;
        let word = &mut self.bits[v * self.words + i / 64];
        let mask = 1u64 << (i % 64);
        let hit = *word & mask != 0;
        *word &= !mask;
        hit
    }

    fn for_each_color(&self, v: usize, _len: usize, mut color: impl FnMut(u32)) {
        for (w, &word) in self.bits[v * self.words..][..self.words].iter().enumerate() {
            let mut word = word;
            while word != 0 {
                color(self.base + (64 * w) as u32 + word.trailing_zeros());
                word &= word - 1;
            }
        }
    }
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
    /// Calls `strike(u)`, in ascending `u`, for the neighbours `u` of `v`
    /// that may take a strike of color `c`: all of them (a CSR row),
    /// those whose lists held `c` (`v`'s row in bucket `c`), or those set
    /// in `holders`, `c`'s holder set (the hit-mask row of the all-pairs
    /// identity layout, a word at a time: `⌈m/64⌉` words and one call per
    /// successful strike). That walk clears from `holders` every bit it
    /// hands out; the others ignore it. A strike can succeed only on an
    /// uncoloured neighbour whose list still holds `c`, and a failed
    /// strike changes nothing, so every walk strikes the same vertices in
    /// the same order.
    fn for_each_strike(&self, v: usize, c: u32, holders: &mut [u64], strike: impl FnMut(u32));
    /// Whether [`ConflictRows::for_each_strike`] reads `holders`; the
    /// greedy keeps the holder sets only then.
    fn reads_holders(&self) -> bool {
        false
    }
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

    fn for_each_strike(&self, v: usize, _c: u32, _holders: &mut [u64], strike: impl FnMut(u32)) {
        self.neighbors(v).iter().copied().for_each(strike);
    }
}

/// Algorithm 2: dynamic bucket greedy list-coloring.
///
/// `active` lists the local vertex ids to color (the conflicted vertices
/// `Vc`); `gc` must contain edges only among them. The live lists take
/// the form [`uses_palette_bitset`] picks; both forms draw the same RNG
/// sequence and the `k`-th set bit is the `k`-th sorted entry, so the
/// outcome does not depend on the form. Produces exactly the same
/// assignments as [`greedy_list_color`]; warm calls against a reused
/// [`ColorScratch`] perform zero heap allocations.
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
    let bitset = uses_palette_bitset(lists.palette_size(), lists.list_size());
    greedy_in_form(bitset, gc, lists, active, seed, scratch, out);
}

/// [`greedy_list_color_in`] with the live-list form given.
fn greedy_in_form<G: ConflictRows>(
    bitset: bool,
    gc: &G,
    lists: &ColorLists,
    active: &[u32],
    seed: u64,
    scratch: &mut ColorScratch,
    out: &mut ListColorOutcome,
) {
    let m = gc.num_vertices();
    let l = lists.list_size();
    let ColorScratch {
        live,
        bits,
        holders,
        buckets,
        ..
    } = scratch;
    buckets.reset(m, l);
    let words = if gc.reads_holders() {
        m.div_ceil(64)
    } else {
        0
    };
    holders.clear();
    holders.resize(lists.palette_size() as usize * words, 0);
    let holders = Holders {
        bits: holders,
        words,
        base: lists.palette_base(),
    };
    if bitset {
        let words = palette_words(lists.palette_size());
        bits.clear();
        bits.resize(m * words, 0);
        let form = PaletteBits {
            bits,
            words,
            base: lists.palette_base(),
        };
        greedy(form, buckets, holders, gc, lists, active, seed, out);
    } else {
        live.clear();
        live.resize(m * l, 0);
        let form = SortedRows { live, stride: l };
        greedy(form, buckets, holders, gc, lists, active, seed, out);
    }
}

/// The per-colour holder sets of the identity-layout walk, `words` per
/// palette colour; empty (`words == 0`), and never written, when the
/// graph does not read them.
struct Holders<'a> {
    bits: &'a mut [u64],
    words: usize,
    base: u32,
}

impl Holders<'_> {
    /// Colour `c`'s holder set (empty when unused).
    fn of(&mut self, c: u32) -> &mut [u64] {
        let at = (c - self.base) as usize * self.words;
        &mut self.bits[at..at + self.words]
    }

    /// Sets (`on`) or clears `v`'s bit in colour `c`'s holder set.
    fn set(&mut self, c: u32, v: u32, on: bool) {
        let word = &mut self.of(c)[v as usize / 64];
        let bit = v % 64;
        *word = *word & !(1 << bit) | u64::from(on) << bit;
    }
}

/// The greedy loop, once for both live-list forms and both graph forms.
#[allow(clippy::too_many_arguments)]
fn greedy<F: LiveLists, G: ConflictRows>(
    mut form: F,
    buckets: &mut SizeBuckets,
    mut holders: Holders<'_>,
    gc: &G,
    lists: &ColorLists,
    active: &[u32],
    seed: u64,
    out: &mut ListColorOutcome,
) {
    out.clear();
    let held = holders.words > 0;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_C01D);
    for &v in active {
        let row = lists.row(v as usize);
        form.init(v as usize, row);
        buckets.insert(v, row.len());
        if held {
            row.iter().for_each(|&c| holders.set(c, v, true));
        }
    }

    let mut remaining = active.len();
    while remaining > 0 {
        // Lowest non-empty bucket (≥1: empty-list vertices are retired
        // eagerly below, so bucket 0 is always empty here). Its index is
        // the picked vertex's list length.
        let len = buckets
            .queues
            .iter()
            .position(|q| !q.is_empty())
            .expect("remaining > 0 but all buckets empty");
        // Uniform random vertex from the lowest bucket, then a uniform
        // random color from its live list.
        let lowest = &buckets.queues[len];
        let v = lowest[rng.random_range(0..lowest.len())];
        buckets.remove(v);
        remaining -= 1;
        let c = form.pick(v as usize, rng.random_range(0..len));
        out.assigned.push((v, c));
        if held {
            form.for_each_color(v as usize, len, |h| holders.set(h, v, false));
        }

        // Strike c from every uncolored neighbor's list. A holder-set
        // walk hands out only the neighbours that still hold c, so a
        // vertex that runs dry has left every set already.
        gc.for_each_strike(v as usize, c, holders.of(c), |u| {
            let ulen = buckets.len[u as usize];
            let struck = ulen != NO_BUCKET && form.strike(u as usize, ulen as usize, c);
            debug_assert!(struck || !held, "holder {u} of {c} took no strike");
            if !struck {
                return;
            }
            buckets.remove(u);
            if ulen == 1 {
                out.uncolored.push(u);
                remaining -= 1;
            } else {
                buckets.insert(u, ulen as usize - 1);
            }
        });
    }
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
    /// order, so every form switch also reuses the other form's buffers.
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
        let mut sorted = ListColorOutcome::default();
        let mut bits = ListColorOutcome::default();
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(1..150usize);
            let p = rng.random_range(1..300u32);
            let l = rng.random_range(1..=p.min(140));
            let base = rng.random_range(0..5000u32);
            let density = rng.random_range(0.0..1.0);
            let lists = ColorLists::assign(n, base, p, l, seed, 2);
            let (gc, active) = conflict_instance(n, density, seed, &lists, seed % 3 == 0);
            greedy_in_form(false, &gc, &lists, &active, seed, &mut scratch, &mut sorted);
            greedy_in_form(true, &gc, &lists, &active, seed, &mut scratch, &mut bits);
            let case = format!("seed {seed}: n={n} P={p} L={l} base={base} density={density}");
            assert_eq!(sorted.assigned, bits.assigned, "{case}");
            assert_eq!(sorted.uncolored, bits.uncolored, "{case}");
            check_outcome(&gc, &lists, &active, &bits, &case);
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
            mut strike: impl FnMut(u32),
        ) {
            self.graph.for_each_strike(v, c, holders, |u| {
                self.calls.set(self.calls.get() + 1);
                strike(u);
            });
        }

        fn reads_holders(&self) -> bool {
            self.graph.reads_holders()
        }
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

    /// On the all-pairs identity layout the holder-set walk calls back
    /// once per successful strike, in both live-list forms, where the CSR
    /// walk of the same colouring also calls back for neighbours that no
    /// longer hold the colour. A warm scratch keeps the holder sets'
    /// buffer across runs, a CSR run between them included.
    #[test]
    fn identity_walk_calls_back_once_per_successful_strike() {
        use crate::candidates::CandidateEngine;
        use crate::conflict::{build_host, build_sequential, HostGraph};
        use crate::{IterationContext, PauliComplementOracle};
        let m = 300;
        let mut rng = StdRng::seed_from_u64(3);
        let set =
            pauli::EncodedSet::from_strings(&pauli::string::random_unique_set(m, 12, &mut rng));
        let oracle = PauliComplementOracle::new(&set);
        // (P, L): all-pairs lists whose rule picks bitsets, then sorted
        // rows; each instance runs in both forms.
        for (p, l) in [(40u32, 30u32), (8000, 100)] {
            let lists = ColorLists::assign(m, 5, p, l, 7, 1);
            assert!(!CandidateEngine::prefers_buckets(&lists), "P={p} L={l}");
            let mut ctx = IterationContext::new();
            ctx.set_lists(lists.clone());
            let csr = build_sequential(&oracle, &mut ctx).graph;
            let built = build_host(&oracle, &mut ctx, false, true);
            assert!(matches!(built.graph, HostGraph::Masks), "P={p} L={l}");
            let (masks, lists, _) = ctx.hit_mask_graph();
            assert!(masks.reads_holders());
            let active: Vec<u32> = (0..m as u32)
                .filter(|&v| csr.degree(v as usize) > 0)
                .collect();
            let mut scratch = ColorScratch::default();
            let (mut from_masks, mut from_csr) =
                (ListColorOutcome::default(), ListColorOutcome::default());
            let mut warm = None;
            for bitset in [false, true] {
                let case = format!("P={p} L={l} bitset={bitset}");
                let walk = Counted {
                    graph: &masks,
                    calls: Default::default(),
                };
                greedy_in_form(
                    bitset,
                    &walk,
                    lists,
                    &active,
                    11,
                    &mut scratch,
                    &mut from_masks,
                );
                let (strikes, dry) = replay_strikes(&csr, lists, &active, &from_masks);
                let mut uncolored = from_masks.uncolored.clone();
                uncolored.sort_unstable();
                assert_eq!(uncolored, dry, "{case}");
                assert!(strikes > 0, "{case}");
                assert_eq!(walk.calls.get(), strikes, "{case}: identity callbacks");
                let held = (scratch.holders.as_ptr(), scratch.holders.capacity());
                assert_eq!(*warm.get_or_insert(held), held, "{case}: holder buffer");

                let walk = Counted {
                    graph: &csr,
                    calls: Default::default(),
                };
                greedy_in_form(
                    bitset,
                    &walk,
                    lists,
                    &active,
                    11,
                    &mut scratch,
                    &mut from_csr,
                );
                assert_eq!(from_csr.assigned, from_masks.assigned, "{case}");
                assert_eq!(from_csr.uncolored, from_masks.uncolored, "{case}");
                assert!(walk.calls.get() > strikes, "{case}: CSR callbacks");
            }
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
