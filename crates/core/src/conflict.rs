//! Conflict-graph construction (Line 7 of Algorithm 1; Algorithm 3 for
//! the device path).
//!
//! An edge `{u, v}` of the conflict graph exists iff `{u, v}` is an edge
//! of the (implicit) graph being colored **and** the two vertices share a
//! list color. The full graph is never materialized.
//!
//! # The iteration context
//!
//! Every builder draws from the solver's
//! [`IterationContext`]: the color
//! lists, the shared [`BucketIndex`] (built
//! at most once per iteration, lent to every backend), and the reusable
//! scratch arenas (COO group staging, the hit-mask rows, oracle hit
//! vectors, live-view remapping buffers) that persist across iterations.
//!
//! # COO format
//!
//! Every builder stages its edges in one format, the edge groups of
//! [`graph::CooGroups`]: a flat `u32` buffer of `[pivot, len, v_1 …
//! v_len]`, the pivot stored once per group. The scans emit their hits
//! row by row — a pivot and the surviving members of its candidate run —
//! so a group is one pivot row and the COO costs about 4 bytes per edge
//! instead of the 8 of a `(u32, u32)` pair. The groups live in the
//! context's list of per-block arenas ([`IterationScratch::blocks`]).
//! Every host build is a cut build: `scan_cuts` scans each cut of pivot
//! rows into its own arena. `Sequential` has one cut, which runs inline;
//! the rayon build and the device kernel cut their rows into blocks.
//! Only the all-pairs reference writes the first arena itself.
//! The builder's `num_edges` is the sum of the groups' lengths. A host
//! build that keeps the hit-mask form (see "Graph form") drops its
//! groups. The device build charges its budget for Algorithm 3's COO of two `u32` words per edge
//! (so the COO lease and transfer accounting keep the `2 · pairs` word
//! bound), but its blocks stage groups on the host like every other
//! build. [`IterationScratch::edges`], the old pair buffer, is no longer
//! touched by any builder: it stays only as the benchmark replay's pair
//! staging.
//!
//! # Graph form
//!
//! Algorithm 2 asks `Gc` one question: which uncoloured neighbours of
//! `v` may still hold the colour `c` just given to `v`? Each one was
//! assigned `c`, so it sits in bucket `c`, and the packed scan has
//! already computed its oracle bit there. The solver's host Line 7
//! ([`build_host`], backends `Sequential` and `Parallel` under the
//! dynamic greedy) may keep those bits as the conflict graph — the
//! **hit-mask form** ([`HitMasks`]) — instead of assembling a CSR:
//!
//! * **Layout.** Bucket `k` of `B` members owns `B` rows of `⌈B/64⌉`
//!   words; bit `t` of row `a` is set iff members `a` and `t` are an
//!   oracle edge. The rows follow the scans' flat pivot-row order, so a
//!   cut's rows are one contiguous word range and the rayon build hands
//!   each cut its own slice. A pivot's tail mask is OR-ed into its row at
//!   bit `a + 1`; one mirror pass then fills the lower triangles by
//!   64×64 block transposes. The all-pairs engine has one `m × m` matrix
//!   over the identity layout, from which the bits of pairs that share no
//!   colour are cleared at scan time (only possible when `2L ≤ P`), so
//!   there a set bit is a `Gc` edge. A bucket keeps its raw oracle bits,
//!   since the greedy reads bucket `c`'s full row, so there the dedup
//!   only counts `|Ec|`, and the fill counts it with bit sets instead of
//!   a per-hit test ([`BucketColumns`]): entering bucket `k` (color
//!   `c_k`, `B` members), a cut builds one `⌈B/64⌉`-word member set per
//!   color below `c_k` that any member holds — the whole bucket's, even
//!   when the cut starts mid-bucket — and a pivot's conflict edges are
//!   `popcount(row ∧ ¬dup)`, `dup` the OR of the sets of its own colors
//!   below `c_k`. That is about `m·L(L−1)/2` bit writes per iteration
//!   plus `j·⌈B/64⌉` word ORs per pivot with hits (`j` its colors below
//!   `c_k`), and the scan hands these pivots no `emit` test.
//! * **Rule.** One byte comparison, [`uses_hit_masks`]: the masks,
//!   `8·Σ_k B_k·⌈B_k/64⌉` bytes, are kept iff the iteration packed and
//!   the CSR path — `8·(m+1)` bytes of offsets plus `8` of adjacency and
//!   `4` of group COO per edge — would take more. `|Ec|` is known only
//!   after the scan, so the scan stages groups as the CSR path does and
//!   tallies the edges (the rayon build in one shared atomic, added to
//!   only for rows that produced edges); the moment the CSR path
//!   outgrows the masks, the groups are dropped and every row is scanned
//!   again into the masks. The repeated work is bounded by the rule's
//!   edge limit, and the outcome depends on the lists and `|Ec|` only.
//!   `|Ec|` and the scan counters are exact in either form.
//! * **Same colourings.** Line 8 asks whether a vertex has any set bit in
//!   its rows; Line 9 walks `v`'s row of bucket `c` (found by a binary
//!   search in the ascending bucket) in ascending member order. A strike
//!   can succeed only on a live `u` that holds `c`, so only on `u ∈ B_c`,
//!   and `B_c` ascends: the successful strikes happen in the order of the
//!   sorted CSR row, and failed strikes change no state. The identity
//!   layout's row is the CSR row itself. Where the greedy keeps holder
//!   sets (one `⌈m/64⌉`-word set per palette colour of the uncoloured
//!   vertices whose lists still hold it), every walk hands out exactly
//!   the members of `c`'s set and clears them, whatever the graph form:
//!   the identity walk ANDs `v`'s row with the set a word at a time
//!   (`⌈m/64⌉` words per coloured vertex), a bucket row or a CSR row
//!   tests each member; either way one callback per successful strike.
//!   Colourings are bit-identical by construction.
//!
//! Every other builder — [`build_sequential`], [`build_parallel`],
//! [`build_sequential_allpairs`] and [`build_device`] — returns a CSR,
//! as do host builds under a static scheme, which orders the CSR.
//!
//! # Candidate enumeration
//!
//! Only pairs sharing a list color can become conflict edges, so the
//! builders do not scan all `m(m−1)/2` pairs: they walk the palette's
//! inverted index `color → sorted vertex bucket` and examine in-bucket
//! pairs only ([`crate::candidates`]). A pair sharing several colors is
//! emitted once, from the bucket of its *smallest* shared color, so the
//! emitted pair set equals the all-pairs scan's `intersects ∧ oracle`
//! set exactly. When `L` approaches `P` and buckets degenerate toward
//! the full vertex set, the engine falls back to the all-pairs scan —
//! the choice is a pure function of the lists, so every backend makes
//! the same one.
//!
//! The packed scans run that test on oracle hits only, against the
//! sorted lists through a pivot's color bitset in the cut's pooled
//! [`TaskArena`], and skip it where every two lists intersect
//! ([`crate::packed::SharedColorFilter::choose`]). The replica holds
//! nothing per palette color and nothing per bucket: it is exactly its
//! key and query tables, `16·m·w` bytes on either engine, and so are the
//! device's upload of it and [`crate::IterationStats::replica_bytes`].
//! `|Ec|` is exact, and the sinks see the same `emit` predicate — except
//! the bucketed hit-mask fill, which needs none (see "Graph form").
//!
//! # The packed kernel, for either engine
//!
//! Whenever the iteration context packs ([`crate::packed`]), every
//! engine-driven builder scans through the AND-popcount hit-mask kernel
//! ([`crate::PairSource::scan_rows_packed`]) instead of the scalar
//! block path, over one replica for either engine: the all-pairs engine
//! runs the kernel straight off the key table (the identity layout, lane
//! `v` = vertex `v`, no index), and the bucketed engine, entering a
//! bucket, gathers the lanes of the members it scans there out of that
//! table into a tile of the cut's pooled [`TaskArena`] and runs the
//! kernel over the tile. The device build then charges the replica
//! instead of the raw encoded set. The scalar `Θ(m²)` scan survives
//! only as [`build_sequential_allpairs`] (backend
//! [`crate::ConflictBackend::AllPairs`]): it never packs, so it stays
//! the independent ground truth the equivalence suites check the packed
//! paths against.
//!
//! # Determinism
//!
//! All engine-driven backends — sequential, rayon-parallel and the
//! simulated device — are required to produce **identical** CSR graphs (the
//! paper: "our GPU implementation produces exactly the same coloring as
//! the CPU-only one because the conflict graph construction is
//! deterministic"). The
//! argument: the emitted pair *set* is a pure function of the lists
//! (smallest-shared-color deduplication is scheduling-independent), the
//! oracle is pure, and every backend assembles with the one CSR builder
//! ([`graph::csr_from_groups_in`]), which counts both endpoints
//! and orders each adjacency row ascending. That row order alone makes
//! the output independent of edge order and of how the edges are split
//! into groups, so the edges of any scheduling (or any partition of the
//! flat pivot-row space into blocks) collapse to the same
//! bit-identical CSR. The order decides only the assembly's cost: short
//! rows sort, long rows that arrive ascending stay, other long rows go
//! through a bitmap (see [`graph::builder`]). The sequential scans emit
//! their groups in pivot-row order; on all-pairs iterations pivots and
//! runs both ascend, so the scatter writes every row ascending. The
//! cut-parallel builds scan ascending row ranges into one arena each
//! and the assembler visits the arenas in order, so under any
//! scheduling or thread count the scatter sees those same
//! sequential groups. Each pair is emitted once, as the assembler's
//! unique-edge contract requires.
//!
//! Each build reports `candidate_pairs`, the oracle-independent
//! enumeration work it performed (all-pairs: `m(m−1)/2`; bucketed: the
//! sum of in-bucket pair counts) — the quantity the `conflict_build`
//! bench compares across engines.

use crate::assign::{BucketIndex, ColorLists};
use crate::candidates::{for_each_hit, CandidateEngine, HitSink, PairSource};
use crate::iteration::{IterationContext, IterationScratch, ScratchPool, TaskArena};
use crate::listcolor::{take_holder, ConflictRows};
use crate::packed::{MaskScanStats, PackedBuckets};
use device::{DeviceError, DeviceSim};
use graph::{csr_from_groups_in, CooGroups, CsrGraph, EdgeOracle};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A constructed conflict graph plus build metadata.
#[derive(Debug)]
pub struct ConflictBuild {
    /// The conflict graph over the live-set's local vertex ids.
    pub graph: CsrGraph,
    /// Number of conflict edges `|Ec|`.
    pub num_edges: usize,
    /// Candidate pairs examined by the enumeration (oracle-independent
    /// work): `m(m−1)/2` for the all-pairs scan, the sum of bucket-pair
    /// counts for the bucketed engine.
    pub candidate_pairs: u64,
    /// Key lanes streamed by the **packed** oracle kernel: equal to
    /// `candidate_pairs` when this build ran on the packed replica
    /// (every examined pair is one `u64`-lane AND), zero when it took a
    /// scalar path — so `packed_lanes / candidate_pairs` is the build's
    /// packed-lane utilization.
    pub packed_lanes: u64,
    /// Hit-mask word counters of the packed consumers (zero on scalar
    /// builds): total words scanned, zero words skipped whole, and set
    /// bits walked — the build's lane-occupancy signal.
    pub scan_stats: MaskScanStats,
    /// For the device backend: whether the CSR was assembled on-device
    /// (`Some(true)`), on the host after an edge-list download
    /// (`Some(false)`), or not built by a device at all (`None`).
    pub csr_on_device: Option<bool>,
}

/// The conflict graph of a host build ([`build_host`]), in the form the
/// graph-form rule chose.
#[derive(Debug)]
pub enum HostGraph {
    /// An assembled CSR, as every other builder returns.
    Csr(CsrGraph),
    /// Hit-mask rows in the context's [`IterationScratch::hit_masks`]
    /// arena, valid until the context's next build or lists change.
    Masks,
}

/// A host build ([`build_host`]): the counters of a [`ConflictBuild`],
/// with the graph in either form.
#[derive(Debug)]
pub struct HostBuild {
    /// The conflict graph.
    pub graph: HostGraph,
    /// Number of conflict edges `|Ec|`, exact in either form.
    pub num_edges: usize,
    /// As [`ConflictBuild::candidate_pairs`].
    pub candidate_pairs: u64,
    /// As [`ConflictBuild::packed_lanes`].
    pub packed_lanes: u64,
    /// As [`ConflictBuild::scan_stats`]; the same counters in either
    /// form.
    pub scan_stats: MaskScanStats,
    /// Bytes of the hit-mask form of this iteration,
    /// `8·Σ_k B_k·⌈B_k/64⌉` ([`uses_hit_masks`]' comparison value):
    /// recorded whenever the rule ran — a packed build allowed to keep
    /// masks — and zero otherwise.
    pub mask_bytes: u64,
}

impl HostBuild {
    /// The [`ConflictBuild`] of a build that kept its CSR.
    fn into_csr(self) -> ConflictBuild {
        let HostGraph::Csr(graph) = self.graph else {
            unreachable!("a forced-CSR build kept hit masks")
        };
        ConflictBuild {
            graph,
            num_edges: self.num_edges,
            candidate_pairs: self.candidate_pairs,
            packed_lanes: self.packed_lanes,
            scan_stats: self.scan_stats,
            csr_on_device: None,
        }
    }
}

impl From<ConflictBuild> for HostBuild {
    fn from(build: ConflictBuild) -> HostBuild {
        HostBuild {
            graph: HostGraph::Csr(build.graph),
            num_edges: build.num_edges,
            candidate_pairs: build.candidate_pairs,
            packed_lanes: build.packed_lanes,
            scan_stats: build.scan_stats,
            mask_bytes: 0,
        }
    }
}

/// Bytes Line 7's CSR path holds for `edges` conflict edges over `m`
/// vertices: `8·(m+1)` of offsets, plus `8` of adjacency and `4` of
/// group COO per edge.
pub fn csr_path_bytes(m: usize, edges: u64) -> u64 {
    8 * (m as u64 + 1) + 12 * edges
}

/// The graph-form rule: a host build keeps the hit masks of
/// `mask_bytes` instead of the CSR of `edges` edges over `m` vertices
/// iff the CSR path would take more bytes: `8·(m+1)` of offsets, plus
/// `8` of adjacency and `4` of group COO per edge.
pub fn uses_hit_masks(m: usize, edges: u64, mask_bytes: u64) -> bool {
    csr_path_bytes(m, edges) > mask_bytes
}

/// Bytes Line 7's hit-mask path holds for a graph of `edges` conflict
/// edges over `m` vertices with `mask_bytes` of masks: the masks, plus
/// the group words (`4` bytes per edge, group headers not counted) the
/// scan staged before the edge count passed the rule's limit. Those stay
/// allocated in the block arenas, which are cleared for the rescan, not
/// freed.
pub fn mask_path_bytes(m: usize, edges: u64, mask_bytes: u64) -> u64 {
    let staged = csr_edge_limit(m, mask_bytes).map_or(0, |limit| limit.min(edges));
    mask_bytes + 4 * staged
}

/// The most edges at which the CSR path still fits in `mask_bytes`
/// (the rule picks masks past it); `None` when even an edgeless CSR is
/// larger.
fn csr_edge_limit(m: usize, mask_bytes: u64) -> Option<u64> {
    mask_bytes
        .checked_sub(csr_path_bytes(m, 0))
        .map(|room| room / 12)
}

/// The hit-mask form's shape over an iteration's buckets: bucket `k` of
/// `B` members owns `B` rows of `⌈B/64⌉` words, in member order; the
/// all-pairs engine's identity layout is one bucket of all `m` vertices.
#[derive(Clone, Copy)]
struct MaskLayout<'a> {
    index: Option<&'a BucketIndex>,
    m: usize,
}

impl MaskLayout<'_> {
    fn buckets(&self) -> usize {
        self.index.map_or(1, BucketIndex::num_buckets)
    }

    /// Members of bucket `k`.
    fn len(&self, k: usize) -> usize {
        self.index.map_or(self.m, |index| index.bucket(k).len())
    }

    /// Words per row of bucket `k`.
    fn row_words(&self, k: usize) -> usize {
        self.len(k).div_ceil(64)
    }

    /// The first word of flat pivot row `r` (the end for `r` = the row
    /// count) in rows laid out at bucket word `offsets`.
    fn row_word(&self, offsets: &[usize], r: usize) -> usize {
        match self.index {
            Some(index) if r < index.num_rows() => {
                let k = index.row_bucket(r);
                offsets[k] + (r - index.bucket_start(k)) * self.row_words(k)
            }
            Some(_) => offsets[self.buckets()],
            None => r * self.row_words(0),
        }
    }

    /// The first bucket whose first flat row is at or after `r` (the
    /// bucket count for `r` = the row count), so ascending row cuts that
    /// tile the rows give each bucket to the cut holding its first row.
    fn bucket_at(&self, r: usize) -> usize {
        match self.index {
            Some(index) if r < index.num_rows() => {
                let k = index.row_bucket(r);
                k + usize::from(index.bucket_start(k) < r)
            }
            Some(index) => index.num_buckets(),
            None => usize::from(r > 0),
        }
    }

    /// Bytes of the whole form, `8·Σ_k B_k·⌈B_k/64⌉`.
    fn bytes(&self) -> u64 {
        let words: usize = (0..self.buckets())
            .map(|k| self.len(k) * self.row_words(k))
            .sum();
        8 * words as u64
    }
}

/// The conflict graph in **hit-mask form** (see the module docs, "Graph
/// form"): one square bit matrix per palette bucket, bit `t` of row `a`
/// set iff members `a` and `t` are an oracle edge, stored bucket after
/// bucket in the flat pivot-row order of the scans. It is the arena of
/// [`IterationScratch::hit_masks`]: cleared and grown, never shrunk.
#[derive(Debug, Default)]
pub struct HitMasks {
    /// Word offset of each bucket's square, plus the end.
    offsets: Vec<usize>,
    /// The rows.
    words: Vec<u64>,
    /// Conflict edges `|Ec|` of the graph the rows hold.
    edges: usize,
}

impl HitMasks {
    /// Capacity of the row words — introspection hook for the
    /// allocation-reuse tests.
    pub fn capacity(&self) -> usize {
        self.words.capacity()
    }

    /// Lays the form out for `layout`, every bit clear.
    fn lay_out(&mut self, layout: MaskLayout<'_>) {
        self.offsets.clear();
        self.offsets.push(0);
        let mut at = 0;
        for k in 0..layout.buckets() {
            at += layout.len(k) * layout.row_words(k);
            self.offsets.push(at);
        }
        self.words.clear();
        self.words.resize(at, 0);
    }
}

/// The hit-mask graph as Lines 8–9 read it.
pub(crate) struct MaskGraph<'a> {
    masks: &'a HitMasks,
    layout: MaskLayout<'a>,
    lists: &'a ColorLists,
}

impl<'a> MaskGraph<'a> {
    /// The graph `masks` holds for `lists`, laid out over `index` (`None`:
    /// the identity layout).
    pub(crate) fn new(
        masks: &'a HitMasks,
        index: Option<&'a BucketIndex>,
        lists: &'a ColorLists,
    ) -> MaskGraph<'a> {
        let layout = MaskLayout {
            index,
            m: lists.len(),
        };
        MaskGraph {
            masks,
            layout,
            lists,
        }
    }

    /// Vertex `v`'s row in bucket `k`, which holds `v` (found by a binary
    /// search in the ascending bucket).
    fn row(&self, k: usize, v: usize) -> &'a [u64] {
        let pos = match self.layout.index {
            Some(index) => index
                .bucket(k)
                .binary_search(&(v as u32))
                .expect("a vertex sits in the bucket of each of its colors"),
            None => v,
        };
        let w = self.layout.row_words(k);
        &self.masks.words[self.masks.offsets[k] + pos * w..][..w]
    }
}

impl ConflictRows for MaskGraph<'_> {
    fn num_vertices(&self) -> usize {
        self.layout.m
    }

    fn num_edges(&self) -> usize {
        self.masks.edges
    }

    fn is_conflicted(&self, v: usize) -> bool {
        let nonzero = |row: &[u64]| row.iter().any(|&word| word != 0);
        match self.layout.index {
            Some(_) => {
                let base = self.lists.palette_base();
                self.lists
                    .row(v)
                    .iter()
                    .any(|&c| nonzero(self.row((c - base) as usize, v)))
            }
            None => nonzero(self.row(0, v)),
        }
    }

    fn for_each_strike(&self, v: usize, c: u32, holders: &mut [u64], mut strike: impl FnMut(u32)) {
        match self.layout.index {
            Some(index) => {
                let k = (c - self.lists.palette_base()) as usize;
                let bucket = index.bucket(k);
                for_each_bit(self.row(k, v).iter().copied(), |t| {
                    if take_holder(holders, bucket[t]) {
                        strike(bucket[t]);
                    }
                });
            }
            None if holders.is_empty() => {
                for_each_bit(self.row(0, v).iter().copied(), |u| strike(u as u32));
            }
            None => {
                let hits = self.row(0, v).iter().zip(holders).map(|(&word, held)| {
                    let hits = word & *held;
                    *held &= !hits;
                    hits
                });
                for_each_bit(hits, |u| strike(u as u32));
            }
        }
    }
}

/// Hands the index of every set bit of `words` to `bit`, ascending.
#[inline]
fn for_each_bit(words: impl Iterator<Item = u64>, mut bit: impl FnMut(usize)) {
    for (wi, mut word) in words.enumerate() {
        while word != 0 {
            bit(wi * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// [`for_each_hit`]'s counters for `mask`, with no walk: every hit is
/// kept. Returns the hits.
fn count_hits(mask: &[u64], stats: &mut MaskScanStats) -> u64 {
    stats.scanned_words += mask.len() as u64;
    let mut hits = 0;
    for &word in mask {
        if word == 0 {
            stats.skipped_words += 1;
        }
        hits += u64::from(word.count_ones());
    }
    stats.hit_bits += hits;
    hits
}

/// [`for_each_hit`] that clears from `mask` every bit `keep` rejects.
/// Returns the bits kept.
fn retain_hits(
    mask: &mut [u64],
    stats: &mut MaskScanStats,
    mut keep: impl FnMut(usize) -> bool,
) -> u64 {
    stats.scanned_words += mask.len() as u64;
    let mut kept = 0;
    for (wi, word) in mask.iter_mut().enumerate() {
        if *word == 0 {
            stats.skipped_words += 1;
            continue;
        }
        stats.hit_bits += u64::from(word.count_ones());
        let mut bits = *word;
        while bits != 0 {
            let b = bits.trailing_zeros();
            if !keep(wi * 64 + b as usize) {
                *word &= !(1u64 << b);
            }
            bits &= bits - 1;
        }
        kept += u64::from(word.count_ones());
    }
    kept
}

/// ORs `mask` into `row` starting at bit `shift`. Bits past the row's
/// last member are clear in `mask`, so nothing spills past the row.
fn or_shifted(row: &mut [u64], mask: &[u64], shift: usize) {
    let (first, s) = (shift / 64, shift % 64);
    for (j, &word) in mask.iter().enumerate() {
        row[first + j] |= word << s;
        if s != 0 {
            if let Some(next) = row.get_mut(first + j + 1) {
                *next |= word >> (64 - s);
            }
        }
    }
}

/// Transposes a 64×64 bit block in place (bit `c` of `a[r]` is entry
/// `(r, c)`) by swapping ever smaller off-diagonal sub-blocks.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Fills the lower triangle of one bucket's square of `b` rows (the
/// scans wrote only bits above the diagonal) by 64×64 block transposes.
fn mirror_square(square: &mut [u64], b: usize) {
    let w = b.div_ceil(64);
    let mut block = [0u64; 64];
    for bi in 0..w {
        let rows = (b - 64 * bi).min(64);
        for bj in bi..w {
            let cols = (b - 64 * bj).min(64);
            block.fill(0);
            for (r, slot) in block[..rows].iter_mut().enumerate() {
                *slot = square[(64 * bi + r) * w + bj];
            }
            transpose64(&mut block);
            for (c, &col) in block[..cols].iter().enumerate() {
                square[(64 * bj + c) * w + bi] |= col;
            }
        }
    }
}

/// Mirrors every bucket's square of `masks`, each bucket with the cut of
/// the ascending flat row cuts `cuts` (which tile the rows) that holds
/// its first row: one rayon task per cut, inline for one cut.
fn mirror(masks: &mut HitMasks, layout: MaskLayout<'_>, cuts: &[Range<usize>]) {
    let HitMasks { offsets, words, .. } = masks;
    let buckets = cuts
        .iter()
        .map(|cut| layout.bucket_at(cut.start)..layout.bucket_at(cut.end));
    let spans = buckets.clone().map(|r| offsets[r.start]..offsets[r.end]);
    crate::split_ranges_mut(words, spans)
        .zip(buckets)
        .par_bridge()
        .for_each(|(squares, range)| {
            let base = offsets[range.start];
            for k in range {
                let square = &mut squares[offsets[k] - base..offsets[k + 1] - base];
                mirror_square(square, layout.len(k));
            }
        });
}

/// The CSR path's sink: pushes every emitted edge into one group arena.
/// With a tally, the scan counts its edges and adds them to the build's
/// shared count whenever the tally's batch is pending, and once more
/// when it ends ([`GroupSink::flush`]); the moment the count passes the
/// limit, the sink pushes no more and ends the scan after the pivot.
struct GroupSink<'a> {
    groups: &'a mut CooGroups,
    tally: Option<&'a EdgeTally>,
    /// Edges not yet added to the tally.
    pending: u64,
}

/// The shared edge count of a host build's group pass, the count past
/// which the graph-form rule picks the masks, and the edges a cut counts
/// before adding them to it: `max(1, limit / (8·cuts))`. The count
/// accepts at most `limit` edges, and each cut stages at most one batch
/// that it refuses, so a pass that stops has staged at most `9/8·limit`
/// edges (`limit + cuts` when the limit is below `8·cuts`), all dropped.
/// A pass that completes has at most `limit` edges, so its cuts add to
/// the count at most `limit / batch + cuts` times: about `9·cuts`.
struct EdgeTally {
    count: AtomicU64,
    limit: u64,
    batch: u64,
}

impl EdgeTally {
    /// An empty tally against `limit`, for a pass over `cuts` cuts.
    fn new(limit: u64, cuts: usize) -> EdgeTally {
        EdgeTally {
            count: AtomicU64::new(0),
            limit,
            batch: (limit / (8 * cuts.max(1) as u64)).max(1),
        }
    }
}

impl GroupSink<'_> {
    /// Adds the pending edges to the tally; whether the count is still
    /// within its limit.
    fn flush(&mut self) -> bool {
        let pending = std::mem::take(&mut self.pending);
        match self.tally {
            Some(tally) if pending > 0 => {
                tally.count.fetch_add(pending, Ordering::Relaxed) + pending <= tally.limit
            }
            _ => true,
        }
    }
}

impl HitSink for GroupSink<'_> {
    fn pivot(
        &mut self,
        _k: usize,
        _pos: usize,
        u: usize,
        mask: &mut [u64],
        stats: &mut MaskScanStats,
        member: impl Fn(usize) -> usize,
        emit: Option<impl Fn(usize) -> bool>,
    ) -> bool {
        let batch = self.tally.map_or(u64::MAX, |tally| tally.batch);
        let mut go = true;
        for_each_hit(mask, stats, |t| {
            let v = member(t);
            if go && emit.as_ref().is_none_or(|emit| emit(v)) {
                self.groups.push(u as u32, v as u32);
                self.pending += 1;
                go = self.pending < batch || self.flush();
            }
        });
        go
    }
}

/// The hit-mask sink of one cut: ORs every pivot's tail mask into the
/// pivot's row at bit `pos + 1`, and counts the conflict edges. A bucket
/// keeps its raw oracle bits, because the greedy reads bucket `c`'s full
/// row, so the count is all the dedup is for: entering a bucket, the
/// sink builds its lower-color member sets ([`BucketColumns`]), and a
/// pivot's conflict edges are the bits of its row outside the columns of
/// its own lower colors — no per-hit test. The identity layout keeps
/// only the bits of conflict edges, cleared hit by hit with the scan's
/// `emit` test.
struct MaskSink<'a> {
    /// The cut's rows, from global word `first`.
    rows: &'a mut [u64],
    first: usize,
    offsets: &'a [usize],
    layout: MaskLayout<'a>,
    lists: &'a ColorLists,
    /// The lower-color member sets of the bucket being scanned.
    columns: &'a mut BucketColumns,
    edges: u64,
}

impl HitSink for MaskSink<'_> {
    fn enter_bucket(&mut self, k: usize) -> bool {
        let index = self
            .layout
            .index
            .expect("only the bucketed scan enters buckets");
        self.columns
            .build(self.lists, index.bucket(k), index.color(k));
        true
    }

    fn pivot(
        &mut self,
        k: usize,
        pos: usize,
        u: usize,
        mask: &mut [u64],
        stats: &mut MaskScanStats,
        member: impl Fn(usize) -> usize,
        emit: Option<impl Fn(usize) -> bool>,
    ) -> bool {
        let w = self.layout.row_words(k);
        let at = self.offsets[k] + pos * w - self.first;
        let row = &mut self.rows[at..at + w];
        if self.layout.index.is_some() {
            debug_assert!(emit.is_none(), "the columns are the bucket's dedup");
            if count_hits(mask, stats) != 0 {
                or_shifted(row, mask, pos + 1);
                self.edges += self.columns.count(self.lists.row(u), row, pos + 1);
            }
            return true;
        }
        self.edges += match emit {
            None => count_hits(mask, stats),
            Some(emit) => retain_hits(mask, stats, |t| emit(member(t))),
        };
        or_shifted(row, mask, pos + 1);
        true
    }
}

/// Column slot of a palette color without a column.
const NO_COLUMN: u32 = u32::MAX;

/// One bucket's lower-color member sets, the hit-mask fill's `|Ec|`
/// count: for bucket `k` (color `c_k`, `B` members), one `⌈B/64⌉`-word
/// **column** per color `c < c_k` held by any member, bit `p` set iff
/// member `p`'s list holds `c`. Members `a` and `p` of the bucket share a
/// color below `c_k` — so their pair is emitted from a lower bucket —
/// iff bit `p` is set in the OR of the columns of `a`'s colors below
/// `c_k`. A build writes about `B·L(L−1)/2` bits over a bucket; the
/// count ORs `j` columns per pivot with hits, for its `j` colors below
/// `c_k`. It lives in the pooled [`TaskArena`]: cleared and grown, never
/// shrunk, so a warm build allocates nothing.
#[derive(Debug, Default)]
pub struct BucketColumns {
    /// Column slot of every palette color (by offset from the palette
    /// base), [`NO_COLUMN`] where the bucket has none.
    slot: Vec<u32>,
    /// The palette offsets holding a column, in slot order: the list
    /// that resets `slot`.
    colors: Vec<u32>,
    /// The columns, `width` words each, in slot order.
    words: Vec<u64>,
    /// Words per column, `⌈B/64⌉`.
    width: usize,
    /// The bucket's color, and the palette base the slots count from.
    color: u32,
    base: u32,
}

impl BucketColumns {
    /// Capacity of the scratch, in words of either type — introspection
    /// hook for the allocation-reuse tests.
    pub(crate) fn capacity(&self) -> usize {
        self.slot.capacity() + self.colors.capacity() + self.words.capacity()
    }

    /// Builds the columns of the bucket of color `color` with the
    /// ascending `members`, whole whichever of its rows a cut starts at,
    /// so the count does not depend on where the cuts fall.
    fn build(&mut self, lists: &ColorLists, members: &[u32], color: u32) {
        for &c in &self.colors {
            self.slot[c as usize] = NO_COLUMN;
        }
        self.colors.clear();
        self.words.clear();
        let palette = lists.palette_size() as usize;
        if self.slot.len() < palette {
            self.slot.resize(palette, NO_COLUMN);
        }
        let (base, width) = (lists.palette_base(), members.len().div_ceil(64));
        (self.width, self.color, self.base) = (width, color, base);
        for (p, &v) in members.iter().enumerate() {
            for &c in lists.row(v as usize).iter().take_while(|&&c| c < color) {
                let c = c - base;
                let mut s = self.slot[c as usize];
                if s == NO_COLUMN {
                    s = self.colors.len() as u32;
                    self.slot[c as usize] = s;
                    self.colors.push(c);
                    self.words.resize(self.words.len() + width, 0);
                }
                self.words[s as usize * width + p / 64] |= 1 << (p % 64);
            }
        }
    }

    /// The conflict edges of a pivot with the sorted list `list`: the set
    /// bits of its `row` (all at or past bit `from`) whose members share
    /// none of the pivot's colors below the bucket's — that is,
    /// `popcount(row ∧ ¬dup)`, `dup` the OR of those colors' columns.
    fn count(&self, list: &[u32], row: &[u64], from: usize) -> u64 {
        let below = &list[..list.partition_point(|&c| c < self.color)];
        let column = |c: u32| self.slot[(c - self.base) as usize] as usize * self.width;
        let mut edges = 0;
        for (i, &word) in row.iter().enumerate().skip(from / 64) {
            let dup = below
                .iter()
                .fold(0, |dup, &c| dup | self.words[column(c) + i]);
            edges += u64::from((word & !dup).count_ones());
        }
        edges
    }
}

/// Shared atomic accumulator for the per-block [`MaskScanStats`] of the
/// cut-parallel builds.
#[derive(Default)]
struct SharedScanStats {
    hit_bits: AtomicU64,
    scanned_words: AtomicU64,
    skipped_words: AtomicU64,
}

impl SharedScanStats {
    fn add(&self, s: MaskScanStats) {
        if s.scanned_words != 0 || s.hit_bits != 0 {
            self.hit_bits.fetch_add(s.hit_bits, Ordering::Relaxed);
            self.scanned_words
                .fetch_add(s.scanned_words, Ordering::Relaxed);
            self.skipped_words
                .fetch_add(s.skipped_words, Ordering::Relaxed);
        }
    }

    fn into_stats(self) -> MaskScanStats {
        MaskScanStats {
            hit_bits: self.hit_bits.into_inner(),
            scanned_words: self.scanned_words.into_inner(),
            skipped_words: self.skipped_words.into_inner(),
        }
    }
}

/// Clears every group arena of `blocks`, keeping its capacity, and
/// grows the list to at least `len` arenas. A build starts here, so the
/// arenas it leaves unused read as empty.
fn reset_blocks(blocks: &mut Vec<CooGroups>, len: usize) {
    blocks.iter_mut().for_each(CooGroups::clear);
    if blocks.len() < len {
        blocks.resize_with(len, CooGroups::default);
    }
}

/// Pair-balanced block cuts of the flat pivot rows
/// ([`device::balanced_weight_cuts`] over the rows' `weights`), four per
/// thread, as row ranges in ascending order.
fn block_cuts(weights: &[u64]) -> Vec<Range<usize>> {
    device::balanced_weight_cuts(weights, rayon::current_num_threads() * 4)
}

/// The one cut-parallel Line-7 scan: scans each of the ascending flat
/// row ranges `cuts` into its own group arena, `blocks[k]` for `cuts[k]`
/// (cleared first, finished after; the list grows as needed),
/// one rayon task per cut (one cut runs inline). With a packed replica
/// the edge bits come as `u64` hit masks from the lane kernel
/// ([`CandidateEngine::scan_rows_into`] — no candidate-run staging, one
/// lane gather per bucket entered, zero words skipped whole); otherwise the
/// batched-with-scratch scalar path runs. Every task stages in a pooled
/// arena of `pool`, so a warm scan allocates nothing, and adds its
/// mask-scan counters to `stats`. No arena is shared, so there is
/// nothing to lock or merge: read in order, the arenas hold the groups
/// the sequential scan of the same rows emits (a pivot row never spans
/// two cuts). Returns `false` when the tally passed its limit, which may
/// stop a cut early.
#[allow(clippy::too_many_arguments)]
fn scan_cuts<O: EdgeOracle>(
    oracle: &O,
    engine: &CandidateEngine<'_>,
    packed: Option<&PackedBuckets>,
    pool: &ScratchPool,
    cuts: &[Range<usize>],
    blocks: &mut Vec<CooGroups>,
    stats: &SharedScanStats,
    tally: Option<&EdgeTally>,
) -> bool {
    if blocks.len() < cuts.len() {
        blocks.resize_with(cuts.len(), CooGroups::default);
    }
    let stopped = AtomicBool::new(false);
    blocks[..cuts.len()]
        .par_iter_mut()
        .enumerate()
        .for_each(|(k, groups)| {
            let mut arena = pool.take();
            let TaskArena {
                run,
                hits,
                masks,
                colors,
                tile,
                mapped,
                ..
            } = &mut arena;
            let mut cut_stats = MaskScanStats::default();
            let rows = cuts[k].clone();
            groups.clear();
            let done = match packed {
                Some(packed) => {
                    let mut sink = GroupSink {
                        groups: &mut *groups,
                        tally,
                        pending: 0,
                    };
                    let stats = &mut cut_stats;
                    engine.scan_rows_into(rows, packed, masks, colors, tile, stats, &mut sink)
                        && sink.flush()
                }
                None => {
                    engine.scan_rows_scratch(rows, run, &mut |u, vs| {
                        hits.clear();
                        hits.resize(vs.len(), false);
                        oracle.has_edge_block_scratch(u, vs, hits, mapped);
                        for (&v, &hit) in vs.iter().zip(hits.iter()) {
                            if hit {
                                groups.push(u as u32, v as u32);
                            }
                        }
                    });
                    true
                }
            };
            groups.finish();
            stopped.fetch_or(!done, Ordering::Relaxed);
            stats.add(cut_stats);
            pool.put(arena);
        });
    !stopped.into_inner()
}

/// Scans every cut into its rows of `masks` (laid out for `layout`, every
/// bit clear): one rayon task per cut (one cut runs inline), each with
/// its own `&mut` slice of the rows and a pooled arena's mask buffer,
/// lane tile and column scratch ([`BucketColumns`]). Returns the conflict
/// edges.
fn fill_masks(
    engine: &CandidateEngine<'_>,
    packed: &PackedBuckets,
    layout: MaskLayout<'_>,
    masks: &mut HitMasks,
    cuts: &[Range<usize>],
    pool: &ScratchPool,
    stats: &SharedScanStats,
) -> u64 {
    let HitMasks { offsets, words, .. } = masks;
    let spans = cuts
        .iter()
        .map(|cut| layout.row_word(offsets, cut.start)..layout.row_word(offsets, cut.end));
    let edges = AtomicU64::new(0);
    crate::split_ranges_mut(words, spans)
        .zip(cuts)
        .par_bridge()
        .for_each(|(rows, cut)| {
            let mut arena = pool.take();
            let TaskArena {
                masks,
                colors,
                tile,
                columns,
                ..
            } = &mut arena;
            let mut sink = MaskSink {
                rows,
                first: layout.row_word(offsets, cut.start),
                offsets,
                layout,
                lists: engine.lists(),
                columns,
                edges: 0,
            };
            let mut cut_stats = MaskScanStats::default();
            engine.scan_rows_into(
                cut.clone(),
                packed,
                masks,
                colors,
                tile,
                &mut cut_stats,
                &mut sink,
            );
            edges.fetch_add(sink.edges, Ordering::Relaxed);
            pool.put(arena);
            stats.add(cut_stats);
        });
    edges.into_inner()
}

/// Edges in the closed groups of `blocks`.
fn blocks_edges(blocks: &[CooGroups]) -> usize {
    blocks.iter().map(CooGroups::num_edges).sum()
}

/// How a host build picks its graph form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GraphRule {
    /// Always the CSR: the forced-CSR entry points.
    Csr,
    /// The hit masks whenever the iteration packed, scanned into
    /// directly (the form-equivalence tests' reference).
    #[cfg_attr(not(test), allow(dead_code))]
    Masks,
    /// The byte-counted rule, [`uses_hit_masks`].
    Bytes,
}

/// Line 7 on the host, with the graph in the form `rule` picks. Only a
/// packed iteration can keep masks. `parallel` decides one thing, the
/// cut list: the sequential build is the single cut of every row, the
/// rayon build pair-balanced blocks, four per thread. The group pass,
/// the mask fill and the mirror read only that list, and one cut runs
/// inline on the caller, out of one pooled arena.
///
/// Under [`GraphRule::Bytes`] the scan stages groups as the CSR path
/// does and tallies the edges, each cut in batches of `max(1, limit /
/// (8·cuts))`; the moment the tally makes the CSR path larger than the
/// masks, the scan stops, the groups are dropped and every row is
/// scanned again into the masks. The edges staged and dropped are at
/// most `9/8` of the rule's edge limit ([`EdgeTally`]), and the outcome
/// depends only on the lists and `|Ec|`: every edge reaches the tally,
/// every check sees a count at most the final one, and the last check
/// sees it exactly, under any scheduling.
pub(crate) fn build_host_with<O: EdgeOracle>(
    oracle: &O,
    ctx: &mut IterationContext,
    parallel: bool,
    rule: GraphRule,
) -> HostBuild {
    let (engine, packed, scratch) = ctx.engine_packed_scratch(oracle);
    let m = engine.num_vertices();
    debug_assert_eq!(m, oracle.num_vertices());
    let IterationScratch {
        blocks,
        pool,
        csr,
        hit_masks,
        ..
    } = scratch;
    let layout = MaskLayout {
        index: engine.index(),
        m,
    };
    let whole = 0..engine.num_rows();
    let block_list;
    let cuts: &[Range<usize>] = if parallel {
        block_list = block_cuts(&engine.row_weights());
        &block_list
    } else {
        std::slice::from_ref(&whole)
    };
    let candidate_pairs = engine.candidate_pairs();
    let packed_lanes = if packed.is_some() { candidate_pairs } else { 0 };
    let mask_bytes = match (packed, rule) {
        (Some(_), GraphRule::Masks | GraphRule::Bytes) => layout.bytes(),
        _ => 0,
    };
    // `None`: straight into the masks. `Some(tally)`: groups first, with
    // a tally when the rule may still pick the masks.
    let group_pass = match (packed, rule) {
        (Some(_), GraphRule::Masks) => None,
        (Some(_), GraphRule::Bytes) => {
            csr_edge_limit(m, mask_bytes).map(|limit| Some(EdgeTally::new(limit, cuts.len())))
        }
        _ => Some(None),
    };
    let scan_span = telemetry::SpanGuard::begin(
        if packed.is_some() {
            "packed_scan"
        } else {
            "scalar_scan"
        },
        "",
        0,
    );
    reset_blocks(blocks, 1);
    let stats = SharedScanStats::default();
    let csr_complete = group_pass.is_some_and(|tally| {
        scan_cuts(
            oracle,
            &engine,
            packed,
            pool,
            cuts,
            blocks,
            &stats,
            tally.as_ref(),
        )
    });
    if csr_complete {
        drop(scan_span);
        let num_edges = blocks_edges(blocks);
        let _csr_span = telemetry::span!("csr_assembly");
        return HostBuild {
            graph: HostGraph::Csr(csr_from_groups_in(m, blocks, csr)),
            num_edges,
            candidate_pairs,
            packed_lanes,
            scan_stats: stats.into_stats(),
            mask_bytes,
        };
    }
    // The masks: drop the groups and scan every row again.
    let packed = packed.expect("only a packed iteration keeps hit masks");
    reset_blocks(blocks, 0);
    hit_masks.lay_out(layout);
    let stats = SharedScanStats::default();
    let edges = fill_masks(&engine, packed, layout, hit_masks, cuts, pool, &stats);
    drop(scan_span);
    {
        let _mirror_span = telemetry::span!("mask_mirror");
        mirror(hit_masks, layout, cuts);
    }
    hit_masks.edges = edges as usize;
    HostBuild {
        graph: HostGraph::Masks,
        num_edges: edges as usize,
        candidate_pairs,
        packed_lanes,
        scan_stats: stats.into_stats(),
        mask_bytes,
    }
}

/// The solver's host Line 7 (backends `Sequential`, `parallel = false`,
/// and `Parallel`): builds like [`build_sequential`] or
/// [`build_parallel`], but when `masks_allowed` (the dynamic greedy
/// colors the graph) a packed iteration keeps the hit-mask form instead
/// of assembling a CSR whenever the CSR path would take more bytes
/// ([`uses_hit_masks`]). Colorings are the same in either form (module
/// docs, "Graph form").
pub fn build_host<O: EdgeOracle>(
    oracle: &O,
    ctx: &mut IterationContext,
    parallel: bool,
    masks_allowed: bool,
) -> HostBuild {
    let rule = if masks_allowed {
        GraphRule::Bytes
    } else {
        GraphRule::Csr
    };
    build_host_with(oracle, ctx, parallel, rule)
}

/// Sequential bucketed build: the cut build with one cut, one pass over
/// the flat pivot-row space — through the packed lane kernel whenever
/// the context packed this iteration — with the COO group arena, one
/// pooled scan arena *and* the CSR assembly arrays all drawn from the
/// context. Once the arenas are warm (and retired graphs are recycled via
/// [`IterationContext::recycle_csr`]), a steady-state build performs
/// **zero** heap allocations, output CSR included.
pub fn build_sequential<O: EdgeOracle>(oracle: &O, ctx: &mut IterationContext) -> ConflictBuild {
    build_host_with(oracle, ctx, false, GraphRule::Csr).into_csr()
}

/// The legacy all-pairs reference implementation
/// ([`crate::ConflictBackend::AllPairs`]): a verbatim `Θ(m²)` scalar
/// scan, kept as the independent ground truth the bucketed backends are
/// validated against. Ignores the engine (and never builds the shared
/// index); only the context's first COO group arena and the CSR arena
/// are reused.
pub fn build_sequential_allpairs<O: EdgeOracle>(
    oracle: &O,
    ctx: &mut IterationContext,
) -> ConflictBuild {
    let (lists, scratch) = ctx.lists_and_scratch();
    let m = oracle.num_vertices();
    debug_assert_eq!(m, lists.len());
    let IterationScratch { blocks, csr, .. } = scratch;
    reset_blocks(blocks, 1);
    let groups = &mut blocks[0];
    let scan_span = telemetry::span!("scalar_scan");
    for i in 0..m {
        for j in (i + 1)..m {
            if lists.intersects(i, j) && oracle.has_edge(i, j) {
                groups.push(i as u32, j as u32);
            }
        }
    }
    groups.finish();
    drop(scan_span);
    let num_edges = groups.num_edges();
    let m64 = m as u64;
    let _csr_span = telemetry::span!("csr_assembly");
    ConflictBuild {
        graph: csr_from_groups_in(m, blocks, csr),
        num_edges,
        candidate_pairs: m64 * m64.saturating_sub(1) / 2,
        packed_lanes: 0,
        scan_stats: MaskScanStats::default(),
        csr_on_device: None,
    }
}

/// Rayon-parallel bucketed build over pair-balanced blocks of the flat
/// pivot-row space, four per thread: `scan_cuts` scans each block into
/// its own arena of [`IterationScratch::blocks`], drawing its
/// run/hit/remap buffers from the context's [`ScratchPool`], so once the
/// pool holds one arena per thread and the block arenas are warm the
/// parallel path allocates **no staging buffers per task** — the
/// per-thread extension of the context's zero-allocation property. CSR
/// assembly visits the arenas in block order, which is exactly the
/// sequential build's COO order: rows arrive as ordered as the
/// sequential scan leaves them, and the output is bit-identical to the
/// sequential build under any scheduling. [`IterationScratch::edges`] is
/// left untouched.
pub fn build_parallel<O: EdgeOracle>(oracle: &O, ctx: &mut IterationContext) -> ConflictBuild {
    build_host_with(oracle, ctx, true, GraphRule::Csr).into_csr()
}

/// Per-vertex byte footprint of the inputs Algorithm 3 copies to the GPU:
/// the packed 3-bit Pauli words plus the color list.
pub fn device_input_bytes_per_vertex(num_qubits: usize, list_size: usize) -> usize {
    pauli::encode::words_for(num_qubits) * std::mem::size_of::<u64>()
        + list_size * std::mem::size_of::<u32>()
}

/// Algorithm 3 on one simulated device — the paper's GPU build —
/// extended with the bucketed candidate engine and the packed oracle
/// replica. The device walks the paper's budget steps line by line:
/// 1. upload the input: the raw encoded strings + color lists
///    (`input_bytes_per_vertex · m`) on the scalar path, or — when the
///    iteration packed — the color lists plus the **packed replica**
///    (the key and query tables, `16·m·w` bytes,
///    [`PackedBuckets::device_bytes`]), charged *instead of* the raw
///    set. Each vertex's packed words are uploaded once, beside its
///    color list, as in the paper; the lane tile a bucketed block
///    gathers is per-block on-chip scratch, like GPU shared memory, and
///    is not charged to the global budget,
/// 2. reserve one edge-offset counter per pivot row, at most `m`
///    (4-byte, or 8-byte once `m² ≥ 2³²`),
/// 3. upload the bucket index (`N·L + P + 1` u32 values) when the
///    bucketed engine is selected — a replica of the one host-built
///    index,
/// 4. reserve `min(2 · candidate pairs, whatever fits)` u32 slots for
///    the unordered COO edge list — two words per edge, as Algorithm 3's
///    COO stores each edge (each candidate yields at most one edge, so
///    the worst case is two words per candidate pair). The budget charge
///    is a [`device::DeviceLease`]; no host array mirrors it,
/// 5. launch the kernel ([`DeviceSim::launch`]: the launch fault check
///    and counter), then run it: the engine's flat pivot-row space (one
///    row per bucket position for the bucketed engine, one per vertex
///    for the all-pairs fallback) is cut into pair-balanced blocks of
///    contiguous rows, which may start and end mid-bucket, each scanned
///    into its own group arena of the context on the rayon pool
///    (`scan_cuts`, the rayon build's scan). If the edges need more than
///    the lease's two words each, the launch fails with
///    [`DeviceError::OutOfMemory`] (`requested = 2·edges·4` bytes,
///    `available` = the lease),
/// 6. if the CSR (2·|Ec| adjacency slots, the `2·edges·4` bytes of the
///    COO) fits in the memory still available next to the COO lease,
///    assemble it "on device" and download it; otherwise download the
///    raw edge list for host assembly. Either download counts
///    `2·edges·4` bytes.
///
/// With `m < 2` the device stops after step 2, and without candidate
/// pairs after step 3. Read in order, the block arenas hold the
/// sequential groups, and the CSR arrays come from the context's CSR
/// arena; the graph is bit-identical to the host builds'.
///
/// Fails with [`DeviceError::OutOfMemory`] when the inputs don't fit or
/// the kernel produces more edges than its allocation holds — the same
/// failure the paper reports for its largest instance on the 40 GB
/// A100.
pub fn build_device<O: EdgeOracle>(
    oracle: &O,
    ctx: &mut IterationContext,
    dev: &DeviceSim,
    input_bytes_per_vertex: usize,
) -> Result<ConflictBuild, DeviceError> {
    let list_bytes = ctx.lists().list_size() * std::mem::size_of::<u32>();
    let (engine, packed, scratch) = ctx.engine_packed_scratch(oracle);
    let m = engine.num_vertices();
    debug_assert_eq!(m, oracle.num_vertices());
    let IterationScratch {
        blocks, pool, csr, ..
    } = scratch;
    reset_blocks(blocks, 0);
    // Edge-offset counters are 8-byte once |V|² overflows u32 (paper §V).
    let wide_counters = (m as u64).saturating_mul(m as u64) >= u32::MAX as u64;
    let counter_bytes = if wide_counters { 8 } else { 4 };
    let word = std::mem::size_of::<u32>();
    let rows = engine.num_rows();
    let candidate_pairs = engine.candidate_pairs();
    let stats = SharedScanStats::default();
    let mut on_device = true;
    'kernel: {
        if m == 0 {
            break 'kernel;
        }
        // (1) Input replica, charged and counted as an H2D transfer.
        let input_bytes = match packed {
            Some(p) => m * list_bytes + p.device_bytes(),
            None => m * input_bytes_per_vertex,
        };
        let _input = dev.reserve(input_bytes)?;
        dev.note_h2d(input_bytes);

        // (2) Edge-offset counters.
        let _counters = dev.reserve(rows.min(m) * counter_bytes)?;
        // A single vertex has no candidate pairs; nothing to build.
        if m < 2 {
            break 'kernel;
        }

        // (3) Bucket-index replica, when the bucketed engine runs.
        let _index_lease = match engine.index() {
            Some(index) => {
                let bytes = index.device_bytes();
                let lease = dev.reserve(bytes)?;
                dev.note_h2d(bytes);
                Some(lease)
            }
            None => None,
        };
        if candidate_pairs == 0 {
            break 'kernel;
        }

        // (4) The unordered COO edge list: all remaining memory, capped
        // at two u32 slots per candidate pair.
        let worst_slots = 2u64.saturating_mul(candidate_pairs).min(usize::MAX as u64) as usize;
        let edge_slots = worst_slots.min(dev.available_bytes() / word);
        if edge_slots == 0 {
            return Err(DeviceError::OutOfMemory {
                requested: word,
                available: dev.available_bytes(),
            });
        }
        let edge_lease = dev.reserve(edge_slots * word)?;

        // (5) One launch over pair-balanced blocks of the row space,
        // each block into its own arena.
        dev.launch()?;
        let cuts = block_cuts(&engine.row_weights());
        scan_cuts(oracle, &engine, packed, pool, &cuts, blocks, &stats, None);
        let bytes = 2 * blocks_edges(blocks) * word;
        if bytes > edge_lease.size_bytes() {
            return Err(DeviceError::OutOfMemory {
                requested: bytes,
                available: edge_lease.size_bytes(),
            });
        }

        // (6) CSR placement (Line 5 of Algorithm 3, `|Ecoo| <=
        // AvailMem/2`): the CSR stores each edge twice — as many words
        // as the COO's pairs, so the download has the same size either
        // way. It stays on the device only if it fits in the memory
        // still available *next to* the COO lease; a failed
        // reservation means host assembly. The graph is the same
        // either way.
        on_device = bytes <= dev.available_bytes() && dev.reserve(bytes.max(word)).is_ok();
        dev.note_d2h(bytes);
    }

    Ok(ConflictBuild {
        num_edges: blocks_edges(blocks),
        graph: csr_from_groups_in(m, blocks, csr),
        candidate_pairs,
        packed_lanes: if packed.is_some() { candidate_pairs } else { 0 },
        scan_stats: stats.into_stats(),
        csr_on_device: Some(on_device),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::ColorLists;
    use graph::{FnOracle, ScalarView};

    fn dense_oracle(m: usize) -> FnOracle<impl Fn(usize, usize) -> bool + Sync> {
        // Complement-graph-like density ~50%, deterministic.
        FnOracle::new(m, |u, v| (u * 31 + v * 17 + u * v) % 2 == 0)
    }

    fn ctx_for(lists: &ColorLists) -> IterationContext {
        let mut ctx = IterationContext::new();
        ctx.set_lists(lists.clone());
        ctx
    }

    #[test]
    fn sequential_and_parallel_agree() {
        for m in [0usize, 1, 2, 17, 64, 130] {
            let oracle = dense_oracle(m);
            let lists = ColorLists::assign(m, 0, (m as u32 / 4).max(2), 3, 5, 0);
            let mut ctx = ctx_for(&lists);
            let a = build_sequential(&oracle, &mut ctx);
            let b = build_parallel(&oracle, &mut ctx);
            assert_eq!(a.graph, b.graph, "m={m}");
            assert_eq!(a.num_edges, b.num_edges);
            assert_eq!(a.candidate_pairs, b.candidate_pairs);
            // Both builds drew from one shared index build.
            assert!(ctx.index_builds() <= 1);
        }
    }

    #[test]
    fn bucketed_builds_match_the_allpairs_reference() {
        for m in [0usize, 1, 2, 25, 80, 150] {
            for (palette, list) in [(2u32, 2u32), (16, 3), (64, 5)] {
                let oracle = dense_oracle(m);
                let lists = ColorLists::assign(m, 7, palette, list, 11, 2);
                let mut ctx = ctx_for(&lists);
                let reference = build_sequential_allpairs(&oracle, &mut ctx);
                let seq = build_sequential(&oracle, &mut ctx);
                let par = build_parallel(&oracle, &mut ctx);
                assert_eq!(reference.graph, seq.graph, "m={m} P={palette} L={list}");
                assert_eq!(reference.graph, par.graph, "m={m} P={palette} L={list}");
                assert_eq!(reference.num_edges, seq.num_edges);
            }
        }
    }

    #[test]
    fn bucketed_engine_examines_fewer_pairs_in_the_sparse_regime() {
        // Normal-like parameters on a dense oracle: the whole point of
        // the engine.
        let m = 400;
        let oracle = dense_oracle(m);
        let lists = ColorLists::assign(m, 0, 50, 4, 3, 0);
        let mut ctx = ctx_for(&lists);
        let bucketed = build_sequential(&oracle, &mut ctx);
        let reference = build_sequential_allpairs(&oracle, &mut ctx);
        assert_eq!(bucketed.graph, reference.graph);
        assert!(
            bucketed.candidate_pairs < reference.candidate_pairs,
            "bucketed {} must beat all-pairs {}",
            bucketed.candidate_pairs,
            reference.candidate_pairs
        );
    }

    #[test]
    fn device_builds_agree_with_host_builds() {
        for m in [1usize, 8, 50, 150] {
            let oracle = dense_oracle(m);
            // The second palette has two colors and one-slot lists: two
            // buckets, so whole-bucket blocks would give the kernel at
            // most two tasks; its row blocks split each bucket's triangle.
            for lists in [
                ColorLists::assign(m, 10, (m as u32 / 4).max(2), 3, 9, 1),
                ColorLists::assign(m, 0, 2, 1, 3, 0),
            ] {
                let what = format!("m={m} P={}", lists.palette_size());
                let mut ctx = ctx_for(&lists);
                let seq = build_sequential(&oracle, &mut ctx);
                let host = build_parallel(&oracle, &mut ctx);
                assert_eq!(seq.graph, host.graph, "{what}");
                let dev = DeviceSim::new(16 << 20);
                let built = build_device(&oracle, &mut ctx, &dev, 16).unwrap();
                assert_eq!(built.graph, seq.graph, "{what}");
                assert_eq!(built.num_edges, seq.num_edges, "{what}");
                assert_eq!(built.candidate_pairs, seq.candidate_pairs, "{what}");
                // 16 MiB keeps the CSR on the device.
                assert_eq!(built.csr_on_device, Some(true), "{what}");
                // The device holds an input replica, launches at most
                // once and releases its buffers.
                assert!(dev.stats().h2d_bytes >= m * 16, "{what}");
                assert!(dev.stats().kernel_launches <= 1, "{what}");
                assert_eq!(dev.used_bytes(), 0, "{what}");
                assert!(ctx.index_builds() <= 1, "index shared across backends");
            }
        }
    }

    #[test]
    fn parallel_build_warms_the_arena_pool_once() {
        // Blocks outnumber threads, but arenas are only created when
        // every pooled one is lent out, and at most `threads` tasks hold
        // one at once. How many a cold build creates depends on how its
        // spawned chunks overlap, so after it the pool is topped up to
        // that concurrency bound: from then on no build — parallel or
        // device — may create another arena, and every arena comes back.
        let m = 300;
        let oracle = dense_oracle(m);
        let threads = rayon::current_num_threads();
        let mut ctx = ctx_for(&ColorLists::assign(m, 0, 40, 4, 3, 1));
        let first = build_parallel(&oracle, &mut ctx);
        let pool = ctx.scratch_pool();
        let cold = pool.arenas_created();
        assert!(cold > 0, "parallel blocks must draw from the pool");
        assert!(cold <= threads, "{cold} arenas for {threads} threads");
        assert_eq!(pool.arenas_pooled(), cold, "all returned");
        let warm: Vec<TaskArena> = (0..threads).map(|_| pool.take()).collect();
        warm.into_iter().for_each(|arena| pool.put(arena));
        let pinned = |ctx: &IterationContext, what: &str| {
            assert_eq!(ctx.scratch_pool().arenas_created(), threads, "{what}");
            assert_eq!(ctx.scratch_pool().arenas_pooled(), threads, "{what}");
        };
        pinned(&ctx, "topped up");
        for iter in 2..6u64 {
            ctx.set_lists(ColorLists::assign(m, 0, 40, 4, 3, iter));
            let again = build_parallel(&oracle, &mut ctx);
            pinned(&ctx, &format!("rebuild {iter}"));
            assert_eq!(again.graph.num_vertices(), first.graph.num_vertices());
        }
        // The device kernels share the same pool.
        let dev = DeviceSim::new(64 * 1024 * 1024);
        let _ = build_device(&oracle, &mut ctx, &dev, 16).unwrap();
        pinned(&ctx, "device build");
    }

    #[test]
    fn sequential_host_builds_run_one_cut_out_of_one_pooled_arena() {
        // The sequential build is the cut build with one cut: its group
        // pass, its mask fill and the drop-and-rescan between them each
        // run that cut inline, out of the one pooled arena, and return
        // it — in either graph form, packed or not, warm or cold.
        use crate::oracle::PauliComplementOracle;
        let m = 300;
        let set = pauli_set(m, 31);
        let oracle = PauliComplementOracle::new(&set);
        for (packed, rule) in [
            (false, GraphRule::Csr),
            (true, GraphRule::Csr),
            (true, GraphRule::Masks),
            (true, GraphRule::Bytes),
        ] {
            let mut ctx = IterationContext::new();
            for iter in 1..=3u64 {
                let what = format!("packed={packed} {rule:?} iteration {iter}");
                ctx.set_lists(ColorLists::assign(m, 0, 24, 4, 9, iter));
                let built = if packed {
                    build_host_with(&oracle, &mut ctx, false, rule)
                } else {
                    build_host_with(&ScalarView::new(&oracle), &mut ctx, false, rule)
                };
                let rescanned = uses_hit_masks(m, built.num_edges as u64, built.mask_bytes);
                let masks = rule == GraphRule::Masks || rule == GraphRule::Bytes && rescanned;
                assert_eq!(matches!(built.graph, HostGraph::Masks), masks, "{what}");
                if let HostGraph::Csr(graph) = built.graph {
                    ctx.recycle_csr(graph);
                }
                let pool = ctx.scratch_pool();
                let arenas = (pool.arenas_created(), pool.arenas_pooled());
                assert_eq!(arenas, (1, 1), "{what}");
            }
        }
    }

    #[test]
    fn packed_kernel_builds_identical_csrs_across_all_backends() {
        use crate::oracle::PauliComplementOracle;
        use rand::SeedableRng;
        // Single-word (≤21 qubits) and multi-word (>21) packed forms.
        for qubits in [10usize, 25] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(qubits as u64);
            let strings = pauli::string::random_unique_set(140, qubits, &mut rng);
            let set = pauli::EncodedSet::from_strings(&strings);
            let oracle = PauliComplementOracle::new(&set);
            let lists = ColorLists::assign(140, 0, 24, 4, 9, 1);

            let mut scalar_ctx = ctx_for(&lists);
            let reference = build_sequential(&ScalarView::new(&oracle), &mut scalar_ctx);
            assert_eq!(reference.packed_lanes, 0, "the scalar view must not pack");
            assert_eq!(scalar_ctx.pack_builds(), 0);

            let mut ctx = ctx_for(&lists);
            let seq = build_sequential(&oracle, &mut ctx);
            let par = build_parallel(&oracle, &mut ctx);
            let dev = DeviceSim::new(64 * 1024 * 1024);
            let devb = build_device(&oracle, &mut ctx, &dev, 16).unwrap();
            let allpairs = build_sequential_allpairs(&oracle, &mut ctx);

            for (name, b) in [("seq", &seq), ("par", &par), ("dev", &devb)] {
                assert_eq!(b.graph, reference.graph, "qubits={qubits} {name}");
                assert_eq!(
                    b.packed_lanes, b.candidate_pairs,
                    "qubits={qubits} {name}: fully packed build"
                );
            }
            assert_eq!(allpairs.graph, reference.graph, "qubits={qubits} allpairs");
            // One packed replica (and one index) served every backend.
            assert_eq!(ctx.pack_builds(), 1, "qubits={qubits}");
            assert!(ctx.index_builds() <= 1);
        }
    }

    #[test]
    fn packed_device_uploads_the_replica_instead_of_the_raw_set() {
        // The device uploads exactly the lists, the whole packed replica
        // and the bucketed engine's index, never the raw set — at 12
        // qubits (one word per row) `(m key words + m query words) · 8 B`
        // on either engine, next to the `m·L·4 B` lists. The bucketed
        // scans filter on the lists; the all-pairs ones have `2L > P` and
        // run no test.
        use crate::oracle::PauliComplementOracle;
        use crate::packed::{PackedBuckets, SharedColorFilter};
        use rand::SeedableRng;
        let m = 150;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let strings = pauli::string::random_unique_set(m, 12, &mut rng);
        let set = pauli::EncodedSet::from_strings(&strings);
        let oracle = PauliComplementOracle::new(&set);
        for (palette, list) in [(30u32, 3usize), (8, 6)] {
            let what = format!("P={palette}");
            let lists = ColorLists::assign(m, 0, palette, list as u32, 5, 0);
            let mut ctx = ctx_for(&lists);
            let bucketed = ctx.prefers_buckets();
            assert_eq!(bucketed, palette == 30);
            let index = bucketed.then(|| lists.bucket_index());
            let index_bytes = index.as_ref().map_or(0, |i| i.device_bytes());
            let list_bytes = m * list * 4;
            let mut packed = PackedBuckets::new();
            assert!(packed.pack_from(&oracle, &lists, bucketed));
            let filter = if bucketed {
                SharedColorFilter::Lists
            } else {
                SharedColorFilter::Skipped
            };
            assert_eq!(packed.shared_color_filter(), filter, "{what}");
            assert_eq!(packed.device_bytes(), (m + m) * 8);
            let reference = build_sequential_allpairs(&oracle, &mut ctx).graph;
            let dev = DeviceSim::new(8 << 20);
            let built = build_device(&oracle, &mut ctx, &dev, 16).unwrap();
            assert_eq!(built.graph, reference, "{what}");
            assert_eq!(built.packed_lanes, built.candidate_pairs, "{what}");
            assert_eq!(
                dev.stats().h2d_bytes,
                list_bytes + packed.device_bytes() + index_bytes,
                "{what}"
            );
            assert_eq!(ctx.pack_builds(), 1, "{what}");
            assert_eq!(ctx.index_builds(), usize::from(bucketed));
        }
    }

    /// Walks a group buffer, checking that its headers tile it exactly;
    /// returns `(groups, entries)`.
    fn count_groups(words: &[u32]) -> (usize, usize) {
        let (mut groups, mut entries, mut at) = (0, 0, 0);
        while at < words.len() {
            let len = words[at + 1] as usize;
            assert!(len > 0, "empty group at word {at}");
            groups += 1;
            entries += len;
            at += 2 + len;
        }
        assert_eq!(at, words.len(), "groups tile the buffer");
        (groups, entries)
    }

    /// The last build's group words: the context's block arenas read in
    /// order.
    fn blocks_words(ctx: &mut IterationContext) -> Vec<u32> {
        let blocks = &ctx.lists_and_scratch().1.blocks;
        blocks
            .iter()
            .flat_map(|b| b.words().iter().copied())
            .collect()
    }

    #[test]
    fn group_bytes_and_parallel_blocks_replay_the_sequential_groups() {
        // The COO's size is pinned: `num_edges` entry words plus two
        // header words per group, at most one group per pivot row. The
        // block arenas of the rayon build and of the device, read in
        // order, are the sequential build's group buffer
        // word for word — on a bucketed and on an all-pairs packed
        // iteration. On the all-pairs one that order leaves every row
        // ascending, so no build ever needs the assembler's row bitmap.
        // No build touches the pair buffer `edges`. (A pivot whose rows
        // sat on both sides of a cut, with no hit between them, would be
        // one group sequentially and two in parallel — same graph; these
        // instances have none.)
        use crate::oracle::PauliComplementOracle;
        use rand::SeedableRng;
        let m = 160;
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let strings = pauli::string::random_unique_set(m, 12, &mut rng);
        let set = pauli::EncodedSet::from_strings(&strings);
        let oracle = PauliComplementOracle::new(&set);
        for (what, lists, bucketed) in [
            ("bucketed", ColorLists::assign(m, 0, 24, 4, 9, 1), true),
            ("all-pairs", ColorLists::assign(m, 0, 8, 6, 5, 0), false),
        ] {
            let mut ctx = ctx_for(&lists);
            assert_eq!(ctx.prefers_buckets(), bucketed, "{what}");
            let rows = ctx.engine_and_scratch().0.num_rows();
            ctx.lists_and_scratch().1.edges.push((0, 1));
            let seq = build_sequential(&oracle, &mut ctx);
            let seq_words = blocks_words(&mut ctx);
            let (groups, entries) = count_groups(&seq_words);
            assert_eq!(entries, seq.num_edges, "{what}");
            assert_eq!(seq_words.len(), seq.num_edges + 2 * groups, "{what}");
            assert!(groups <= rows, "{what}: {groups} groups, {rows} rows");
            assert!(groups < seq.num_edges, "{what}: runs hold several hits");

            let dev = DeviceSim::new(16 << 20);
            for name in ["par", "device"] {
                let built = match name {
                    "par" => build_parallel(&oracle, &mut ctx),
                    _ => build_device(&oracle, &mut ctx, &dev, 16).unwrap(),
                };
                let what = format!("{what} {name}");
                assert_eq!(built.packed_lanes, built.candidate_pairs, "{what}: packed");
                assert_eq!(built.graph, seq.graph, "{what}");
                assert_eq!(built.num_edges, seq.num_edges, "{what}");
                let blocks = &ctx.lists_and_scratch().1.blocks;
                let nonempty = blocks.iter().filter(|b| b.num_edges() > 0).count();
                assert!(nonempty > 1, "{what}: {nonempty} non-empty blocks");
                assert_eq!(blocks_words(&mut ctx), seq_words, "{what}");
            }
            let scratch = ctx.lists_and_scratch().1;
            assert_eq!(scratch.edges, [(0, 1)], "{what}: pair buffer untouched");
            let bitmap_words = scratch.csr.capacities().3;
            assert_eq!(bitmap_words == 0, !bucketed, "{what}: {bitmap_words}");
        }
    }

    #[test]
    fn packing_is_the_oracles_call() {
        // A Pauli oracle packs even the degenerate load — a palette so
        // large that almost every bucket is a singleton, with fewer
        // candidate pairs than key rows — and the packed CSR is the
        // scalar view's and the all-pairs reference's. An oracle without
        // a packed form never packs.
        use crate::oracle::PauliComplementOracle;
        use rand::SeedableRng;
        let m = 40;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let strings = pauli::string::random_unique_set(m, 10, &mut rng);
        let set = pauli::EncodedSet::from_strings(&strings);
        let oracle = PauliComplementOracle::new(&set);
        let lists = ColorLists::assign(m, 0, 600, 2, 7, 1);
        let mut ctx = ctx_for(&lists);
        assert!(ctx.prefers_buckets());
        assert!(ctx.bucket_load().total_pairs < (m * 2) as u64);
        let packed = build_sequential(&oracle, &mut ctx);
        assert_eq!(ctx.pack_builds(), 1);
        assert_eq!(packed.packed_lanes, packed.candidate_pairs);
        let mut scalar_ctx = ctx_for(&lists);
        let scalar = build_sequential(&ScalarView::new(&oracle), &mut scalar_ctx);
        assert_eq!((scalar.packed_lanes, scalar_ctx.pack_builds()), (0, 0));
        assert_eq!(packed.graph, scalar.graph);
        let reference = build_sequential_allpairs(&oracle, &mut scalar_ctx);
        assert_eq!(packed.graph, reference.graph);

        let fn_oracle = dense_oracle(200);
        let mut ctx = ctx_for(&ColorLists::assign(200, 0, 30, 4, 3, 0));
        let built = build_sequential(&fn_oracle, &mut ctx);
        assert_eq!((built.packed_lanes, ctx.pack_builds()), (0, 0));
    }

    #[test]
    fn conflict_edges_are_subset_of_oracle_edges() {
        let m = 80;
        let oracle = dense_oracle(m);
        let lists = ColorLists::assign(m, 0, 10, 2, 3, 0);
        let b = build_parallel(&oracle, &mut ctx_for(&lists));
        for (u, v) in b.graph.edges() {
            assert!(oracle.has_edge(u as usize, v as usize));
            assert!(lists.intersects(u as usize, v as usize));
        }
    }

    #[test]
    fn larger_palette_means_fewer_conflicts() {
        let m = 200;
        let oracle = dense_oracle(m);
        let small_palette = ColorLists::assign(m, 0, 8, 4, 3, 0);
        let large_palette = ColorLists::assign(m, 0, 128, 4, 3, 0);
        let a = build_parallel(&oracle, &mut ctx_for(&small_palette));
        let b = build_parallel(&oracle, &mut ctx_for(&large_palette));
        assert!(
            b.num_edges < a.num_edges,
            "palette 128 ({}) should conflict less than palette 8 ({})",
            b.num_edges,
            a.num_edges
        );
    }

    #[test]
    fn row_blocks_split_coarse_buckets() {
        // Two-color palette, one-slot lists: two disjoint buckets, each
        // ~m/2 deep (the bucketed engine wins, Σ|B|² / 2 ≈ m²/4 < m²/2),
        // but `4 × threads` row blocks, so cuts fall inside the buckets
        // and more blocks than buckets carry edges. The rayon build and
        // the device kernel still build the sequential graph.
        let m = 120;
        let oracle = dense_oracle(m);
        let lists = ColorLists::assign(m, 0, 2, 1, 3, 0);
        let mut ctx = ctx_for(&lists);
        assert!(ctx.prefers_buckets(), "two sparse buckets beat all-pairs");
        let seq = build_sequential(&oracle, &mut ctx);
        {
            let engine = ctx.engine_and_scratch().0;
            let index = engine.index().expect("bucketed engine");
            assert_eq!(index.num_buckets(), 2);
            let cuts = block_cuts(&engine.row_weights());
            let mid_bucket = cuts
                .iter()
                .filter(|cut| index.bucket_start(index.row_bucket(cut.start)) != cut.start)
                .count();
            assert!(mid_bucket > 0, "no cut inside a bucket: {cuts:?}");
        }
        let dev = DeviceSim::new(4 << 20);
        for name in ["par", "device"] {
            let built = match name {
                "par" => build_parallel(&oracle, &mut ctx),
                _ => build_device(&oracle, &mut ctx, &dev, 16).unwrap(),
            };
            assert_eq!(built.graph, seq.graph, "{name}");
            assert_eq!(built.candidate_pairs, seq.candidate_pairs, "{name}");
            let blocks = &ctx.lists_and_scratch().1.blocks;
            let working = blocks.iter().filter(|b| b.num_edges() > 0).count();
            assert!(working > 2, "{name}: {working} blocks carry edges");
        }
        assert_eq!(dev.stats().kernel_launches, 1);
    }

    /// One device run of the golden pin: the device's counters, then
    /// where the CSR was assembled or the OOM payload.
    type DevicePin = (usize, usize, usize, usize, Result<bool, (usize, usize)>);

    #[test]
    fn single_device_accounting_is_pinned() {
        // Golden values for Algorithm 3 on one device, over m, packing,
        // bucketed vs all-pairs lists and three capacities: 64 MiB, a
        // tight capacity (the worst-case footprint of input replica,
        // counters, index and a two-slots-per-pair COO lease, which then
        // leaves no room for an on-device CSR) and a quarter of it (OOM,
        // at an input reservation or in the kernel). Each row is
        // `(m, packed, bucketed lists, tight capacity, runs)`; a run is
        // `(peak, h2d, d2h, launches, Ok(csr_on_device) | Err((requested,
        // available)))`. A change here moves the single-device
        // `DeviceStats`, OOM payloads or fault-op numbering. A packed
        // row's replica is its key and query tables, `16·m·w` bytes on
        // either engine (the bucketed scans' tiles are on-chip scratch),
        // so the tight runs still end in the counter OOM (m = 1) and the
        // host-CSR fallback (m ≥ 2).
        use crate::oracle::PauliComplementOracle;
        use rand::SeedableRng;
        #[rustfmt::skip]
        const PINNED: [(usize, bool, bool, usize, [DevicePin; 3]); 20] = [
            (0, true, true, 0, [(0, 0, 0, 0, Ok(true)), (0, 0, 0, 0, Ok(true)), (0, 0, 0, 0, Ok(true))]),
            (0, true, false, 0, [(0, 0, 0, 0, Ok(true)), (0, 0, 0, 0, Ok(true)), (0, 0, 0, 0, Ok(true))]),
            (0, false, true, 0, [(0, 0, 0, 0, Ok(true)), (0, 0, 0, 0, Ok(true)), (0, 0, 0, 0, Ok(true))]),
            (0, false, false, 0, [(0, 0, 0, 0, Ok(true)), (0, 0, 0, 0, Ok(true)), (0, 0, 0, 0, Ok(true))]),
            (1, true, true, 28, [(32, 28, 0, 0, Ok(true)), (28, 28, 0, 0, Err((4, 0))), (0, 0, 0, 0, Err((28, 7)))]),
            (1, true, false, 40, [(44, 40, 0, 0, Ok(true)), (40, 40, 0, 0, Err((4, 0))), (0, 0, 0, 0, Err((40, 10)))]),
            (1, false, true, 16, [(20, 16, 0, 0, Ok(true)), (16, 16, 0, 0, Err((4, 0))), (0, 0, 0, 0, Err((16, 4)))]),
            (1, false, false, 16, [(20, 16, 0, 0, Ok(true)), (16, 16, 0, 0, Err((4, 0))), (0, 0, 0, 0, Err((16, 4)))]),
            (2, true, true, 188, [(188, 180, 0, 0, Ok(true)), (188, 180, 0, 0, Ok(true)), (0, 0, 0, 0, Err((56, 47)))]),
            (2, true, false, 96, [(104, 80, 8, 1, Ok(true)), (96, 80, 8, 1, Ok(false)), (0, 0, 0, 0, Err((80, 24)))]),
            (2, false, true, 164, [(164, 156, 0, 0, Ok(true)), (164, 156, 0, 0, Ok(true)), (40, 32, 0, 0, Err((124, 1)))]),
            (2, false, false, 48, [(56, 32, 8, 1, Ok(true)), (48, 32, 8, 1, Ok(false)), (0, 0, 0, 0, Err((32, 12)))]),
            (50, true, true, 6012, [(7548, 2100, 1536, 1, Ok(true)), (6012, 2100, 1536, 1, Ok(false)), (1400, 1400, 0, 0, Err((200, 103)))]),
            (50, true, false, 12000, [(16648, 2000, 4648, 1, Ok(true)), (12000, 2000, 4648, 1, Ok(false)), (3000, 2000, 0, 1, Err((4648, 800)))]),
            (50, false, true, 5412, [(6948, 1500, 1536, 1, Ok(true)), (5412, 1500, 1536, 1, Ok(false)), (1000, 800, 0, 0, Err((700, 353)))]),
            (50, false, false, 10800, [(15448, 800, 4648, 1, Ok(true)), (10800, 800, 4648, 1, Ok(false)), (2700, 800, 0, 1, Err((4648, 1700)))]),
            (120, true, true, 26436, [(36300, 4900, 9864, 1, Ok(true)), (26436, 4900, 9864, 1, Ok(false)), (6608, 4900, 0, 1, Err((9864, 1228)))]),
            (120, true, false, 62400, [(91160, 4800, 28760, 1, Ok(true)), (62400, 4800, 28760, 1, Ok(false)), (15600, 4800, 0, 1, Err((28760, 10320)))]),
            (120, false, true, 24996, [(34860, 3460, 9864, 1, Ok(true)), (24996, 3460, 9864, 1, Ok(false)), (6248, 3460, 0, 1, Err((9864, 2308)))]),
            (120, false, false, 59520, [(88280, 1920, 28760, 1, Ok(true)), (59520, 1920, 28760, 1, Ok(false)), (14880, 1920, 0, 1, Err((28760, 12480)))]),
        ];
        let mut rows = PINNED.iter();
        for m in [0usize, 1, 2, 50, 120] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(m as u64 + 40);
            let strings = pauli::string::random_unique_set(m, 12, &mut rng);
            let set = pauli::EncodedSet::from_strings(&strings);
            let oracle = PauliComplementOracle::new(&set);
            for packed in [true, false] {
                for (bucketed, palette, list) in [(true, 24u32, 3u32), (false, 8, 6)] {
                    let fresh = || ctx_for(&ColorLists::assign(m, 0, palette, list, 5, 1));
                    let &(pm, ppacked, pbucketed, tight, ref pruns) = rows.next().unwrap();
                    let what = format!("m={m} packed={packed} bucketed={bucketed}");
                    assert_eq!((pm, ppacked, pbucketed), (m, packed, bucketed));
                    for (capacity, pinned) in [64 << 20, tight, tight / 4].into_iter().zip(pruns) {
                        let dev = DeviceSim::new(capacity);
                        let built = if packed {
                            build_device(&oracle, &mut fresh(), &dev, 16)
                        } else {
                            build_device(&ScalarView::new(&oracle), &mut fresh(), &dev, 16)
                        };
                        let s = dev.stats();
                        assert_eq!(s.used_bytes, 0, "{what}: every lease released");
                        assert!(s.peak_bytes <= capacity, "{what}: peak within capacity");
                        let outcome = match built {
                            Ok(b) => Ok(b.csr_on_device.expect("device build")),
                            Err(DeviceError::OutOfMemory {
                                requested,
                                available,
                            }) => Err((requested, available)),
                            Err(e) => panic!("{what}: unexpected {e}"),
                        };
                        let run = (
                            s.peak_bytes,
                            s.h2d_bytes,
                            s.d2h_bytes,
                            s.kernel_launches,
                            outcome,
                        );
                        assert_eq!(&run, pinned, "{what}: capacity {capacity}");
                    }
                }
            }
        }
        assert!(rows.next().is_none());
    }

    #[test]
    fn empty_lists_of_one_color_conflict_everywhere() {
        // Palette of size 1: every adjacent pair conflicts.
        let m = 40;
        let oracle = dense_oracle(m);
        let lists = ColorLists::assign(m, 0, 1, 1, 1, 0);
        let b = build_sequential(&oracle, &mut ctx_for(&lists));
        let mut expected = 0;
        for i in 0..m {
            for j in (i + 1)..m {
                if oracle.has_edge(i, j) {
                    expected += 1;
                }
            }
        }
        assert_eq!(b.num_edges, expected);
    }

    #[test]
    fn transpose64_matches_a_naive_transpose() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut block = [0u64; 64];
        block.iter_mut().for_each(|w| *w = rng.next_u64());
        let original = block;
        transpose64(&mut block);
        for (r, row) in original.iter().enumerate() {
            for (c, col) in block.iter().enumerate() {
                assert_eq!(col >> r & 1, row >> c & 1, "({r}, {c})");
            }
        }
    }

    /// The hit-mask rows of the context's last host build.
    fn mask_words(ctx: &mut IterationContext) -> Vec<u64> {
        ctx.lists_and_scratch().1.hit_masks.words.clone()
    }

    /// Builds one packed iteration of `lists` in both graph forms and
    /// checks that they are the same graph: for `v` and a color `c` of
    /// its list, against `c`'s holder set built from the lists, the mask
    /// walk and the CSR walk each hand out `v`'s CSR row restricted to the
    /// holders of `c` in ascending order and clear exactly the bits they
    /// handed out, and without a holder set the mask walk hands out an
    /// ascending superset of them (the whole row, or its members of
    /// `B_c`); the degree-0 split,
    /// `|Ec|` and the scan counters agree, the greedy colors both alike,
    /// and the rayon fill plus mirror and the drop-and-rescan path write
    /// the masks of the sequential direct mask scan.
    fn check_graph_forms<O: EdgeOracle>(oracle: &O, lists: &ColorLists, what: &str) {
        use crate::listcolor::{greedy_list_color_in, ConflictRows};
        use crate::{ColorScratch, ListColorOutcome};
        let mut ctx = ctx_for(lists);
        let csr = build_sequential(oracle, &mut ctx);
        assert_eq!(csr.packed_lanes, csr.candidate_pairs, "{what}: packed");
        let direct = build_host_with(oracle, &mut ctx, false, GraphRule::Masks);
        assert!(matches!(direct.graph, HostGraph::Masks), "{what}");
        assert_eq!(direct.num_edges, csr.num_edges, "{what}: |Ec|");
        assert_eq!(direct.scan_stats, csr.scan_stats, "{what}: scan counters");
        let words = mask_words(&mut ctx);
        {
            let (gc, lists, _) = ctx.hit_mask_graph();
            assert_eq!(gc.num_edges(), csr.num_edges, "{what}");
            let holds = |u: u32, c: u32| lists.row(u as usize).contains(&c);
            for v in 0..lists.len() {
                let row = csr.graph.neighbors(v);
                assert_eq!(gc.is_conflicted(v), !row.is_empty(), "{what}: v={v}");
                for &c in lists.row(v) {
                    let mut holders = vec![0u64; lists.len().div_ceil(64)];
                    for u in (0..lists.len() as u32).filter(|&u| holds(u, c)) {
                        holders[u as usize / 64] |= 1 << (u % 64);
                    }
                    let want: Vec<u32> = row.iter().copied().filter(|&u| holds(u, c)).collect();
                    let mut left = holders.clone();
                    for &u in &want {
                        left[u as usize / 64] &= !(1 << (u % 64));
                    }
                    for form in ["masks", "csr"] {
                        let (mut set, mut walk) = (holders.clone(), Vec::new());
                        match form {
                            "masks" => gc.for_each_strike(v, c, &mut set, |u| walk.push(u)),
                            _ => csr.graph.for_each_strike(v, c, &mut set, |u| walk.push(u)),
                        }
                        assert_eq!(walk, want, "{what}: {form} v={v} c={c}");
                        assert_eq!(set, left, "{what}: {form} v={v} c={c}: holders left");
                    }
                    let mut unheld = Vec::new();
                    gc.for_each_strike(v, c, &mut [], |u| unheld.push(u));
                    assert!(unheld.is_sorted(), "{what}: v={v} c={c}: ascending");
                    let held: Vec<u32> = unheld.into_iter().filter(|&u| holds(u, c)).collect();
                    assert_eq!(held, want, "{what}: v={v} c={c}: no holder set");
                }
            }
            let active: Vec<u32> = (0..lists.len() as u32)
                .filter(|&v| gc.is_conflicted(v as usize))
                .collect();
            let (mut scratch, mut from_csr, mut from_masks) = (
                ColorScratch::default(),
                ListColorOutcome::default(),
                ListColorOutcome::default(),
            );
            for seed in 0..3 {
                greedy_list_color_in(
                    &csr.graph,
                    lists,
                    &active,
                    seed,
                    &mut scratch,
                    &mut from_csr,
                );
                greedy_list_color_in(&gc, lists, &active, seed, &mut scratch, &mut from_masks);
                assert_eq!(
                    from_csr.assigned, from_masks.assigned,
                    "{what}: seed {seed}"
                );
                assert_eq!(
                    from_csr.uncolored, from_masks.uncolored,
                    "{what}: seed {seed}"
                );
            }
        }
        let m = lists.len();
        for (parallel, rule) in [
            (true, GraphRule::Masks),
            (false, GraphRule::Bytes),
            (true, GraphRule::Bytes),
        ] {
            let how = format!("{what}: parallel={parallel} {rule:?}");
            let built = build_host_with(oracle, &mut ctx, parallel, rule);
            assert_eq!(built.num_edges, csr.num_edges, "{how}");
            assert_eq!(built.scan_stats, csr.scan_stats, "{how}");
            assert_eq!(built.mask_bytes, direct.mask_bytes, "{how}");
            let masks = uses_hit_masks(m, csr.num_edges as u64, direct.mask_bytes);
            match built.graph {
                HostGraph::Masks => {
                    assert!(masks || rule == GraphRule::Masks, "{how}");
                    assert_eq!(mask_words(&mut ctx), words, "{how}: mask rows");
                }
                HostGraph::Csr(graph) => {
                    assert!(!masks && rule == GraphRule::Bytes, "{how}");
                    assert_eq!(graph, csr.graph, "{how}");
                }
            }
        }
    }

    /// A packable oracle over `m` random 12-qubit strings.
    fn pauli_set(m: usize, seed: u64) -> pauli::EncodedSet {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        pauli::EncodedSet::from_strings(&pauli::string::random_unique_set(m, 12, &mut rng))
    }

    #[test]
    fn hit_mask_and_csr_forms_are_one_graph() {
        use crate::candidates::CandidateEngine;
        use crate::oracle::PauliComplementOracle;
        use crate::packed::SharedColorFilter::{self, Lists, Skipped};
        // (what, m, P, L, bucketed, filter): the all-pairs
        // engine on both sides of `2L ≤ P`, the bucketed engine on Normal
        // lists, buckets (or identity rows) straddling 64 and 128 members,
        // buckets with `L` close to `√P`, where many pairs share two or
        // more colors (so the mask fill's count ORs several lower-color
        // columns per pivot), and both engines with wide palettes, whose
        // color bitsets span many words.
        for (what, m, palette, list, bucketed, filter) in [
            ("all-pairs 2L > P", 150, 8u32, 6u32, false, Skipped),
            ("all-pairs 2L <= P", 150, 64, 10, false, Lists),
            ("bucketed", 160, 24, 4, true, Lists),
            ("buckets near 64", 640, 60, 6, true, Lists),
            ("buckets near 128", 1280, 60, 6, true, Lists),
            ("L near sqrt P, buckets near 64", 600, 64, 7, true, Lists),
            ("L near sqrt P, buckets near 128", 1170, 64, 7, true, Lists),
            ("all-pairs wide palette", 200, 8000, 100, false, Lists),
            ("bucketed wide palette", 400, 2000, 4, true, Lists),
        ] {
            let set = pauli_set(m, m as u64);
            let oracle = PauliComplementOracle::new(&set);
            let lists = ColorLists::assign(m, 3, palette, list, 7, 1);
            assert_eq!(CandidateEngine::prefers_buckets(&lists), bucketed, "{what}");
            let rule = SharedColorFilter::choose(palette, list as usize, bucketed);
            assert_eq!(rule, filter, "{what}");
            check_graph_forms(&oracle, &lists, what);
        }
    }

    #[test]
    fn hit_mask_count_does_not_depend_on_where_the_cuts_fall() {
        // Five colors of ~256 members each: the rayon build's `4 × threads`
        // pair-balanced cuts start inside buckets whose members hold lower
        // colors too, so a cut's mask fill builds the lower-color columns
        // of a bucket it scans only part of. Its `|Ec|` and rows must be
        // the sequential build's (`check_graph_forms`).
        use crate::candidates::{BucketSource, CandidateEngine};
        use crate::oracle::PauliComplementOracle;
        let (m, palette, list) = (640, 5, 2);
        let set = pauli_set(m, 13);
        let oracle = PauliComplementOracle::new(&set);
        let lists = ColorLists::assign(m, 0, palette, list, 3, 1);
        assert!(CandidateEngine::prefers_buckets(&lists));
        let index = lists.bucket_index();
        let cuts = block_cuts(&BucketSource::new(&lists, &index).row_weights());
        let mid_bucket = cuts.iter().any(|cut| {
            let k = index.row_bucket(cut.start);
            k > 0 && index.bucket_start(k) < cut.start && cut.start < index.num_rows()
        });
        assert!(
            mid_bucket,
            "no cut starts inside a bucket above the first: {cuts:?}"
        );
        check_graph_forms(&oracle, &lists, "cuts inside buckets");
    }

    #[test]
    fn hit_mask_and_csr_forms_agree_on_sampled_instances() {
        // Seeds from 24 on draw palettes up to 5,000 colors with lists of
        // at most `⌈P/64⌉` colors, so their color bitsets span many
        // words (12 qubits: `w` = 1).
        use crate::candidates::CandidateEngine;
        use crate::oracle::PauliComplementOracle;
        use crate::packed::SharedColorFilter;
        use rand::{Rng, SeedableRng};
        let mut list_filtered = 0;
        for seed in 0..36u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = rng.random_range(2..300usize);
            let (palette, list) = if seed < 24 {
                let palette = rng.random_range(1..80u32);
                (palette, rng.random_range(1..=palette))
            } else {
                let palette = rng.random_range(100..5000u32);
                (palette, rng.random_range(1..=palette.div_ceil(64)))
            };
            let set = pauli_set(m, seed);
            let oracle = PauliComplementOracle::new(&set);
            let lists = ColorLists::assign(m, seed as u32, palette, list, seed, 2);
            let bucketed = CandidateEngine::prefers_buckets(&lists);
            let filter = SharedColorFilter::choose(palette, list as usize, bucketed);
            list_filtered += usize::from(filter == SharedColorFilter::Lists);
            check_graph_forms(
                &oracle,
                &lists,
                &format!("seed {seed}: m={m} P={palette} L={list}"),
            );
        }
        assert!(
            list_filtered > 0,
            "no sampled instance filtered on the lists"
        );
    }

    #[test]
    fn the_group_pass_stages_at_most_twice_its_edge_limit() {
        // The service shape's first iteration (P = 128, L = 7) over 1024
        // 12-qubit strings: `|Ec|` is several times the rule's edge limit,
        // so the group pass stops and its groups are dropped. Scanned in
        // eight pair-balanced cuts, each of which would hold fewer edges
        // than a fixed 4096-edge batch, it may stage only the edges the
        // tally accepted (at most the limit) plus one refused batch per
        // cut, an eighth of the limit in all.
        use crate::oracle::PauliComplementOracle;
        let m = 1024;
        let set = pauli_set(m, 11);
        let oracle = PauliComplementOracle::new(&set);
        let lists = ColorLists::assign(m, 0, 128, 7, 11, 1);
        let num_edges = build_sequential(&oracle, &mut ctx_for(&lists)).num_edges as u64;
        let mut ctx = ctx_for(&lists);
        let (engine, packed, scratch) = ctx.engine_packed_scratch(&oracle);
        let packed = packed.expect("a Pauli oracle packs");
        let layout = MaskLayout {
            index: engine.index(),
            m,
        };
        let limit = csr_edge_limit(m, layout.bytes()).expect("an edgeless CSR fits");
        assert!(num_edges > 4 * limit, "|Ec| = {num_edges}, limit {limit}");
        let cuts = device::balanced_weight_cuts(&engine.row_weights(), 8);
        assert_eq!(cuts.len(), 8);
        let tally = EdgeTally::new(limit, cuts.len());
        let IterationScratch { blocks, pool, .. } = scratch;
        let stats = SharedScanStats::default();
        let complete = scan_cuts(
            &oracle,
            &engine,
            Some(packed),
            pool,
            &cuts,
            blocks,
            &stats,
            Some(&tally),
        );
        assert!(!complete, "the pass must stop past the limit");
        let staged = blocks_edges(blocks) as u64;
        assert!(staged > limit, "staged {staged}, limit {limit}");
        assert!(8 * staged <= 9 * limit, "staged {staged}, limit {limit}");
    }

    #[test]
    fn the_graph_form_rule_counts_bytes() {
        // Masks win past `(mask_bytes - 8(m+1)) / 12` edges, and from
        // the first edge when an edgeless CSR already outweighs them.
        assert!(!uses_hit_masks(100, 0, 808));
        assert_eq!(csr_edge_limit(100, 808), Some(0));
        assert!(uses_hit_masks(100, 1, 808));
        assert_eq!(csr_edge_limit(100, 2000), Some((2000 - 808) / 12));
        assert!(!uses_hit_masks(100, 99, 2000) && uses_hit_masks(100, 100, 2000));
        assert_eq!(csr_edge_limit(100, 800), None);
        assert!(uses_hit_masks(100, 0, 800));
    }
}
