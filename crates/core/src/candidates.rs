//! The candidate-pair engine feeding conflict-graph construction.
//!
//! Picasso's premise is that only pairs sharing a list color can become
//! conflict edges. The all-pairs scan ignores that structure and examines
//! all `m(m−1)/2` pairs; the bucketed engine instead walks the inverted
//! index `color → vertex bucket` ([`ColorLists::bucket_index`]) and
//! examines only in-bucket pairs, dropping enumeration cost to the sum of
//! bucket-pair counts (`Σ_c |B_c|·(|B_c|−1)/2` — in the Normal regime
//! `≈ m²L²/2P ≪ m²/2`).
//!
//! **Deduplication.** A pair sharing `k` colors sits in `k` buckets; it
//! is emitted only from the bucket of its *smallest* shared color
//! ([`ColorLists::first_common`]), so every candidate reaches the oracle
//! exactly once. The packed scans run the same test on oracle hits only,
//! against the sorted lists, unless every two lists intersect
//! ([`crate::packed::SharedColorFilter`]). The one exception is the
//! bucketed hit-mask fill of `crate::conflict`, which keeps every raw
//! hit and only counts `|Ec|`: it takes the test over
//! (`HitSink::OWN_TEST`) and counts in one pass over the bucket's
//! members as the scan leaves it (`HitSink::leave_bucket`), so it pays
//! no per-hit work. The emitted pair *set* is therefore identical to the
//! all-pairs scan's (`intersects ∧ oracle`), and since CSR assembly
//! orders each adjacency row ascending, every backend — and either
//! engine — produces a bit-identical CSR graph.
//!
//! **Rows.** A [`PairSource`] exposes its work as one flat space of
//! *pivot rows*: row `i` is vertex `i` for the all-pairs source, and one
//! (bucket, position) membership for the bucketed one, so a single
//! bucket's pair triangle can be split across blocks at row granularity
//! — needed because whole buckets can be coarser than the `4 × threads`
//! blocks of the rayon build and the device kernel (a two-color palette
//! has only two buckets). Per-row weights let every parallel build cut
//! the space into pair-balanced contiguous blocks. Candidates are emitted as
//! `(pivot, run)` groups, which the builders feed to the batched oracle
//! path ([`graph::EdgeOracle::has_edge_block_scratch`]) to amortize
//! encoding loads.
//!
//! **Engine choice.** In the Aggressive regime (`L` close to `P`) every
//! bucket degenerates toward the full vertex set and the bucketed scan
//! would examine *more* pairs than all-pairs.
//! [`CandidateEngine::prefers_buckets`] compares the two totals from the
//! counts histogram alone; the choice is a pure function of the lists,
//! so all backends agree on it. The engine itself no longer owns the
//! inverted index: the solver's
//! [`IterationContext`](crate::iteration::IterationContext) builds the
//! index at most once per iteration and lends it to every backend via
//! [`CandidateEngine::with_index`]. Both engines have a packed scan
//! ([`PairSource::scan_rows_packed`]) over the one replica: the
//! all-pairs source runs straight off its key table, which needs no
//! index at all, and the bucketed source gathers each bucket's lanes out
//! of that table as its scan enters the bucket.

use crate::assign::{BucketIndex, ColorLists};
use crate::packed::{MaskScanStats, PackedBuckets, SharedColorFilter};
use std::ops::Range;

/// A deterministic source of candidate pairs over a flat pivot-row
/// space.
///
/// Contract: across all rows, each unordered pair `{u, v}` with
/// intersecting color lists is emitted exactly once, as `u` paired with
/// an ascending run containing `v` (or vice versa), and never any pair
/// with disjoint lists. Row contents and order are pure functions of the
/// lists, never of scheduling, and a scan over any partition of
/// `0..num_rows()` emits exactly the pairs of a full scan.
pub trait PairSource: Sync {
    /// Vertex count `m` of the underlying live set.
    fn num_vertices(&self) -> usize;

    /// Oracle-independent enumeration work: the number of pairs this
    /// source *examines* (all-pairs: `m(m−1)/2`; bucketed: the sum of
    /// in-bucket pair counts).
    fn candidate_pairs(&self) -> u64;

    /// Total pivot rows in the flat row space.
    fn num_rows(&self) -> usize;

    /// Enumeration weights of all rows, in row order; sums to
    /// [`PairSource::candidate_pairs`]. The parallel backends cut the
    /// row space into pair-balanced spans with them.
    fn row_weights(&self) -> Vec<u64>;

    /// Emits the candidates of the contiguous rows `rows`, in row order,
    /// as `(pivot, ascending candidate run)` groups. The run slice is
    /// only valid for the duration of the callback; `run` is the
    /// caller's staging buffer (cleared per pivot, never shrunk), so a
    /// warm scan allocates nothing.
    fn scan_rows_scratch(
        &self,
        rows: Range<usize>,
        run: &mut Vec<usize>,
        emit: &mut dyn FnMut(usize, &[usize]),
    );

    /// Packed-kernel scan of the contiguous rows `rows`: every pivot's
    /// tail gets its edge bits as `u64` hit masks from word-transposed
    /// lanes, eight consecutive pivots per kernel call
    /// ([`PackedBuckets::tail_edge_mask`] is a block of one) — `packed`'s key table for
    /// all-pairs, a tile of each bucket's lanes gathered out of it as
    /// the bucketed scan enters the bucket. The consumer skips zero
    /// words whole, walks set bits with `trailing_zeros`, applies the
    /// shared-color filter only on those hits, and emits surviving pairs
    /// as **edges** directly — the oracle-block stage of the scalar path
    /// disappears, and the walk cost tracks the hit count rather than
    /// the candidate count. `packed` must have been packed for this
    /// source's engine (`bucketed` as [`PackedBuckets::pack_from`] takes
    /// it). `masks` is the caller's reusable block buffer; word/bit
    /// counters accumulate into `stats`. The shared-color filter's
    /// `⌈P/64⌉`-word color bitset and the bucketed scan's tile are
    /// allocated per call here (the conflict builders lend pooled ones
    /// instead).
    ///
    /// Emits exactly `{(u, v) : scan_rows_scratch emits the pair ∧ the
    /// packed oracle has the edge}`, in the scalar scan's row order.
    fn scan_rows_packed(
        &self,
        rows: Range<usize>,
        packed: &PackedBuckets,
        masks: &mut Vec<u64>,
        stats: &mut MaskScanStats,
        emit_edge: &mut dyn FnMut(u32, u32),
    );
}

/// Walks one pivot's hit masks: counts the scanned, skipped (all-zero)
/// and set bits into `stats`, and hands every set bit's tail position
/// `t` to `hit` in ascending order — the consumer loop shared by every
/// [`HitSink`].
#[inline]
pub(crate) fn for_each_hit(masks: &[u64], stats: &mut MaskScanStats, mut hit: impl FnMut(usize)) {
    stats.scanned_words += masks.len() as u64;
    for (wi, &word) in masks.iter().enumerate() {
        if word == 0 {
            stats.skipped_words += 1;
            continue;
        }
        stats.hit_bits += u64::from(word.count_ones());
        let mut word = word;
        while word != 0 {
            hit(wi * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// Where a packed row scan hands each pivot's hit mask: the edge
/// emission of [`PairSource::scan_rows_packed`], or the conflict
/// builders' edge groups and hit-mask rows (`crate::conflict`). One scan
/// loop per source serves them all.
pub(crate) trait HitSink {
    /// `true`: the sink tells a bucket's conflict edges apart itself, so
    /// the bucketed scan hands its pivots no `emit` test and runs no
    /// shared-color filter — the hit-mask fill, which counts `|Ec|` as it
    /// leaves each bucket ([`HitSink::leave_bucket`]). Every other sink
    /// takes the default.
    const OWN_TEST: bool = false;

    /// The bucketed scan leaves bucket `k` after its pivots at positions
    /// `pivots`, every one of them handed to [`HitSink::pivot`] (a scan
    /// the sink ended early leaves no bucket). The hit-mask fill counts
    /// those pivots' conflict edges here; every other sink takes the
    /// default.
    fn leave_bucket(&mut self, _k: usize, _pivots: Range<usize>) {}

    /// One pivot of the scan. `u` sits at position `pos` of bucket `k`
    /// (bucket 0 of the all-pairs identity layout); `mask` holds the edge
    /// bits of its tail — bit `t` is member `pos + 1 + t`, vertex
    /// `member(t)` — and `emit(v)` says whether the oracle edge `(u, v)`
    /// is a conflict edge emitted from this bucket, `None` when every
    /// hit is or when the sink takes the test over ([`HitSink::OWN_TEST`]).
    /// Returns `false` to end the scan after this pivot.
    #[allow(clippy::too_many_arguments)]
    fn pivot(
        &mut self,
        k: usize,
        pos: usize,
        u: usize,
        mask: &mut [u64],
        stats: &mut MaskScanStats,
        member: impl Fn(usize) -> usize,
        emit: Option<impl Fn(usize) -> bool>,
    ) -> bool;
}

/// The packed scans' shared-color filter
/// ([`SharedColorFilter::Lists`]): a `⌈P/64⌉`-word scratch bitset holds
/// one pivot's colors while its hits are tested, and is all-zero between
/// pivots.
struct ColorBits<'a> {
    lists: &'a ColorLists,
    bits: &'a mut Vec<u64>,
}

impl<'a> ColorBits<'a> {
    /// The filter over `lists`, with `bits` (any contents) as its scratch.
    fn new(lists: &'a ColorLists, bits: &'a mut Vec<u64>) -> ColorBits<'a> {
        bits.clear();
        bits.resize(crate::packed::palette_words(lists.palette_size()), 0);
        ColorBits { lists, bits }
    }

    /// Flips the bits of `colors`: sets them before a pivot's hits are
    /// tested, clears them after.
    fn toggle(&mut self, colors: &[u32]) {
        let base = self.lists.palette_base();
        for &c in colors {
            let k = (c - base) as usize;
            self.bits[k / 64] ^= 1u64 << (k % 64);
        }
    }

    /// Whether any of `v`'s colors has its bit set: a branch-free OR over
    /// its `L` colors.
    #[inline]
    fn holds_any(&self, v: usize) -> bool {
        let base = self.lists.palette_base();
        let any = self.lists.row(v).iter().fold(0u64, |acc, &c| {
            let k = (c - base) as usize;
            acc | self.bits[k / 64] >> (k % 64)
        });
        any & 1 != 0
    }
}

/// The `emit` of a pivot whose every hit is a conflict edge.
const EVERY_HIT: Option<fn(usize) -> bool> = None;

/// The [`PairSource::scan_rows_packed`] sink: every emitted edge goes to
/// the caller's callback.
struct EmitEdges<'a>(&'a mut dyn FnMut(u32, u32));

impl HitSink for EmitEdges<'_> {
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
        for_each_hit(mask, stats, |t| {
            let v = member(t);
            if emit.as_ref().is_none_or(|emit| emit(v)) {
                (self.0)(u as u32, v as u32);
            }
        });
        true
    }
}

/// The all-pairs enumeration: every row `i` (vertex `i`) against every
/// `j > i`, filtered by list intersection. `Θ(m²)` examinations — the
/// engine's choice when buckets degenerate (`L` close to `P`).
pub struct AllPairsSource<'a> {
    lists: &'a ColorLists,
}

impl<'a> AllPairsSource<'a> {
    /// Wraps the iteration's color lists.
    pub fn new(lists: &'a ColorLists) -> AllPairsSource<'a> {
        AllPairsSource { lists }
    }
}

impl PairSource for AllPairsSource<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.lists.len()
    }

    fn candidate_pairs(&self) -> u64 {
        let m = self.lists.len() as u64;
        m * m.saturating_sub(1) / 2
    }

    #[inline]
    fn num_rows(&self) -> usize {
        self.lists.len()
    }

    fn row_weights(&self) -> Vec<u64> {
        let m = self.lists.len();
        (0..m).map(|i| (m - 1 - i) as u64).collect()
    }

    fn scan_rows_scratch(
        &self,
        rows: Range<usize>,
        run: &mut Vec<usize>,
        emit: &mut dyn FnMut(usize, &[usize]),
    ) {
        let m = self.lists.len();
        for i in rows {
            run.clear();
            for j in (i + 1)..m {
                if self.lists.intersects(i, j) {
                    run.push(j);
                }
            }
            if !run.is_empty() {
                emit(i, run);
            }
        }
    }

    /// Packed all-pairs scan straight off the replica's key table (lane
    /// `v` is vertex `v`): row `i`'s hit mask covers `i+1..m`, and a
    /// hit survives iff the two lists share any palette color — a test
    /// skipped when `2L > P`, where every two lists intersect.
    /// Emission order is `(i, v)` ascending, the scalar scan's order.
    fn scan_rows_packed(
        &self,
        rows: Range<usize>,
        packed: &PackedBuckets,
        masks: &mut Vec<u64>,
        stats: &mut MaskScanStats,
        emit_edge: &mut dyn FnMut(u32, u32),
    ) {
        let sink = &mut EmitEdges(emit_edge);
        self.scan_rows_into(rows, packed, masks, &mut Vec::new(), stats, sink);
    }
}

impl AllPairsSource<'_> {
    /// The packed all-pairs scan into any [`HitSink`], with `colors` as
    /// the shared-color filter's scratch; `false` when the sink ended it
    /// early. The test follows the replica's [`SharedColorFilter`]: a
    /// pivot with hits sets its whole list in the scratch bitset and a
    /// hit survives iff the member holds one of those colors, or no test
    /// at all where every two lists intersect.
    fn scan_rows_into(
        &self,
        rows: Range<usize>,
        packed: &PackedBuckets,
        masks: &mut Vec<u64>,
        colors: &mut Vec<u64>,
        stats: &mut MaskScanStats,
        sink: &mut impl HitSink,
    ) -> bool {
        let lists_filter = packed.shared_color_filter() == SharedColorFilter::Lists;
        let mut bits = lists_filter.then(|| ColorBits::new(self.lists, colors));
        for first in rows.clone().step_by(8) {
            let pivots = first..rows.end.min(first + 8);
            let mut block = packed.block_edge_masks(None, first, pivots.clone(), masks);
            for (j, i) in pivots.enumerate() {
                let hit = block.hit(j);
                let mask = block.tail(j);
                let member = |t| i + 1 + t;
                let go = match &mut bits {
                    Some(bits) if hit => {
                        let row = self.lists.row(i);
                        bits.toggle(row);
                        let emit = Some(|v| bits.holds_any(v));
                        let go = sink.pivot(0, i, i, mask, stats, member, emit);
                        bits.toggle(row);
                        go
                    }
                    // `Skipped`, or a pivot without hits.
                    _ => sink.pivot(0, i, i, mask, stats, member, EVERY_HIT),
                };
                if !go {
                    return false;
                }
            }
        }
        true
    }
}

/// The bucketed engine: rows are the (bucket, position) memberships of
/// the palette buckets; in-bucket pairs pass the smallest-shared-color
/// deduplication filter before emission. The
/// inverted index is **borrowed** — it is built once per iteration by
/// the owning [`IterationContext`](crate::iteration::IterationContext)
/// and shared by every backend of that iteration.
pub struct BucketSource<'a> {
    lists: &'a ColorLists,
    index: &'a BucketIndex,
}

impl<'a> BucketSource<'a> {
    /// Wraps the iteration's lists and their (externally built) inverted
    /// index. `index` must be `lists.bucket_index()` of these exact
    /// lists.
    pub fn new(lists: &'a ColorLists, index: &'a BucketIndex) -> BucketSource<'a> {
        debug_assert_eq!(index.num_rows(), lists.len() * lists.list_size());
        BucketSource { lists, index }
    }

    /// The underlying inverted index (for device budget accounting).
    pub fn index(&self) -> &'a BucketIndex {
        self.index
    }

    /// Emits pivot positions `positions` of bucket `k`, reusing `run` as
    /// the candidate staging buffer.
    fn scan_positions(
        &self,
        k: usize,
        positions: Range<usize>,
        run: &mut Vec<usize>,
        emit: &mut dyn FnMut(usize, &[usize]),
    ) {
        let color = self.index.color(k);
        let bucket = self.index.bucket(k);
        for a in positions {
            let u = bucket[a];
            run.clear();
            for &v in &bucket[a + 1..] {
                // Emit only from the smallest shared color's bucket.
                if self.lists.first_common(u as usize, v as usize) == Some(color) {
                    run.push(v as usize);
                }
            }
            if !run.is_empty() {
                emit(u as usize, run);
            }
        }
    }

    /// The packed sub-bucket scan into any [`HitSink`], with `colors` as
    /// the shared-color filter's scratch and `tile` as the lane tile;
    /// `false` when the sink ended it early. Entering bucket `k`, the
    /// scan gathers the key lanes of the members from its first pivot
    /// there to the bucket's end into `tile`
    /// ([`PackedBuckets::gather_tile`]), and the kernel runs over the
    /// tile once per 8 consecutive positions, every pivot's tail mask
    /// shifted out of the block's rows in turn.
    /// Packed-kernel twin of [`BucketSource::scan_positions`]: the oracle
    /// runs first (whole-tail mask kernel), the dedup filter second, only
    /// on hits — the emitted edge set is identical because both filters
    /// are pure and intersection is order-independent. Both vertices hold
    /// this bucket's color, so their smallest shared color is this one
    /// exactly when they share nothing below it: a pivot with hits and
    /// colors below the bucket's sets those in the scratch bitset, and a
    /// hit survives iff the member holds none of them (every other pivot
    /// emits all its hits). A sink that takes the test over
    /// ([`HitSink::OWN_TEST`]) gets every hit of the bucket unfiltered. Zero mask words are skipped without
    /// touching the bucket at all; set bits are walked with
    /// `trailing_zeros`, so a near-empty tail costs one branch per 64
    /// candidates.
    #[allow(clippy::too_many_arguments)]
    fn scan_rows_into<S: HitSink>(
        &self,
        rows: Range<usize>,
        packed: &PackedBuckets,
        masks: &mut Vec<u64>,
        colors: &mut Vec<u64>,
        tile: &mut Vec<u64>,
        stats: &mut MaskScanStats,
        sink: &mut S,
    ) -> bool {
        debug_assert_eq!(packed.shared_color_filter(), SharedColorFilter::Lists);
        let mut bits = ColorBits::new(self.lists, colors);
        walk_row_span(self.index, rows, |k, positions| {
            let bucket = self.index.bucket(k);
            let color = self.index.color(k);
            let first = positions.start;
            packed.gather_tile(&bucket[first..], tile);
            for start in positions.clone().step_by(8) {
                let pivots = &bucket[start..positions.end.min(start + 8)];
                let lanes = pivots.iter().map(|&u| u as usize);
                let mut block =
                    packed.block_edge_masks(Some(&tile[..]), start - first, lanes, masks);
                for (j, &u) in pivots.iter().enumerate() {
                    let (a, u) = (start + j, u as usize);
                    let hit = block.hit(j);
                    let mask = block.tail(j);
                    let tail = &bucket[a + 1..];
                    let member = |t| tail[t] as usize;
                    // Emit only from the smallest shared color's bucket.
                    let go = if !S::OWN_TEST && hit && self.lists.row(u)[0] < color {
                        let row = self.lists.row(u);
                        let below = &row[..row.partition_point(|&c| c < color)];
                        bits.toggle(below);
                        let first = |v| !bits.holds_any(v);
                        let go = sink.pivot(k, a, u, mask, stats, member, Some(first));
                        bits.toggle(below);
                        go
                    } else {
                        sink.pivot(k, a, u, mask, stats, member, EVERY_HIT)
                    };
                    if !go {
                        return false;
                    }
                }
            }
            sink.leave_bucket(k, positions);
            true
        })
    }
}

impl PairSource for BucketSource<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.lists.len()
    }

    fn candidate_pairs(&self) -> u64 {
        self.index.total_pairs()
    }

    #[inline]
    fn num_rows(&self) -> usize {
        self.index.num_rows()
    }

    fn row_weights(&self) -> Vec<u64> {
        let mut weights = Vec::with_capacity(self.index.num_rows());
        for k in 0..self.index.num_buckets() {
            let len = self.index.bucket(k).len();
            weights.extend((0..len).map(|a| (len - 1 - a) as u64));
        }
        weights
    }

    /// Sub-bucket scan: `rows` may start and end mid-bucket, splitting a
    /// bucket's pair triangle between callers while every pivot row is
    /// still scanned by exactly one of them.
    fn scan_rows_scratch(
        &self,
        rows: Range<usize>,
        run: &mut Vec<usize>,
        emit: &mut dyn FnMut(usize, &[usize]),
    ) {
        walk_row_span(self.index, rows, |k, positions| {
            self.scan_positions(k, positions, run, emit);
            true
        });
    }

    /// Packed sub-bucket scan, same mid-bucket splitting as
    /// [`PairSource::scan_rows_scratch`] (literally: both walk the span through
    /// `walk_row_span`, so the packed and scalar row partitions cannot
    /// drift apart).
    fn scan_rows_packed(
        &self,
        rows: Range<usize>,
        packed: &PackedBuckets,
        masks: &mut Vec<u64>,
        stats: &mut MaskScanStats,
        emit_edge: &mut dyn FnMut(u32, u32),
    ) {
        let (colors, tile) = (&mut Vec::new(), &mut Vec::new());
        let sink = &mut EmitEdges(emit_edge);
        self.scan_rows_into(rows, packed, masks, colors, tile, stats, sink);
    }
}

/// Decomposes a contiguous flat-row span into per-bucket position
/// ranges: `leaf(k, positions)` receives each touched bucket `k` with
/// the in-bucket positions the span covers — mid-bucket at either end —
/// and returns `false` to stop the walk, which then returns `false`. The
/// single home of the sub-bucket splitting invariant (every pivot row
/// visited exactly once), shared by the scalar and packed row scans.
fn walk_row_span(
    index: &BucketIndex,
    rows: Range<usize>,
    mut leaf: impl FnMut(usize, Range<usize>) -> bool,
) -> bool {
    if rows.is_empty() {
        return true;
    }
    let mut k = index.row_bucket(rows.start);
    let mut r = rows.start;
    while r < rows.end {
        let (bs, be) = (index.bucket_start(k), index.bucket_start(k + 1));
        if r >= be {
            k += 1;
            continue;
        }
        let hi = rows.end.min(be) - bs;
        if !leaf(k, (r - bs)..hi) {
            return false;
        }
        r = bs + hi;
        k += 1;
    }
    true
}

/// The engine actually used by the bucketed backends: the cheaper of the
/// two enumerations for this iteration's lists. The decision
/// ([`CandidateEngine::prefers_buckets`]) is a pure function of the
/// lists, so sequential, parallel and device builds always agree; the
/// index itself is owned by the iteration context and lent in.
pub enum CandidateEngine<'a> {
    /// Bucketed scan was cheaper (the Normal regime).
    Buckets(BucketSource<'a>),
    /// All-pairs was cheaper (`L` close to `P`, where buckets degenerate
    /// toward the full vertex set).
    AllPairs(AllPairsSource<'a>),
}

impl<'a> CandidateEngine<'a> {
    /// The engine-decision formula, shared by every caller (this
    /// predicate and the iteration context): the bucketed scan wins iff
    /// its `Σ|B_c|(|B_c|−1)/2` enumeration beats the all-pairs
    /// `m(m−1)/2`.
    pub fn bucketed_is_cheaper(bucket_pairs: u64, m: usize) -> bool {
        let m = m as u64;
        bucket_pairs < m * m.saturating_sub(1) / 2
    }

    /// Whether the bucketed scan examines fewer pairs than all-pairs for
    /// these lists — computed from the counts histogram
    /// ([`ColorLists::bucket_pair_total`]), so rejecting the bucketed
    /// scan never pays the index scatter.
    pub fn prefers_buckets(lists: &ColorLists) -> bool {
        Self::bucketed_is_cheaper(lists.bucket_pair_total(), lists.len())
    }

    /// Assembles the engine from the iteration context's decision:
    /// `Some(index)` when the bucketed scan was selected (the index was
    /// built once for this iteration), `None` for the all-pairs
    /// fallback.
    pub fn with_index(
        lists: &'a ColorLists,
        index: Option<&'a BucketIndex>,
    ) -> CandidateEngine<'a> {
        match index {
            Some(index) => CandidateEngine::Buckets(BucketSource::new(lists, index)),
            None => CandidateEngine::AllPairs(AllPairsSource::new(lists)),
        }
    }

    /// The packed row scan into any [`HitSink`], over the same rows and
    /// in the same order as [`PairSource::scan_rows_packed`], with
    /// `colors` as the shared-color filter's scratch bitset and `tile` as
    /// the bucketed scan's lane tile; `false` when the sink ended it
    /// early.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_rows_into(
        &self,
        rows: Range<usize>,
        packed: &PackedBuckets,
        masks: &mut Vec<u64>,
        colors: &mut Vec<u64>,
        tile: &mut Vec<u64>,
        stats: &mut MaskScanStats,
        sink: &mut impl HitSink,
    ) -> bool {
        match self {
            CandidateEngine::Buckets(src) => {
                src.scan_rows_into(rows, packed, masks, colors, tile, stats, sink)
            }
            CandidateEngine::AllPairs(src) => {
                src.scan_rows_into(rows, packed, masks, colors, stats, sink)
            }
        }
    }

    /// The iteration's color lists.
    pub(crate) fn lists(&self) -> &'a ColorLists {
        match self {
            CandidateEngine::Buckets(src) => src.lists,
            CandidateEngine::AllPairs(src) => src.lists,
        }
    }

    /// Whether the bucketed scan was selected.
    pub fn is_bucketed(&self) -> bool {
        matches!(self, CandidateEngine::Buckets(_))
    }

    /// The bucket index, when the bucketed scan was selected (the device
    /// backends charge its bytes — once per device replica — to the
    /// budget).
    pub fn index(&self) -> Option<&'a BucketIndex> {
        match self {
            CandidateEngine::Buckets(b) => Some(b.index()),
            CandidateEngine::AllPairs(_) => None,
        }
    }
}

impl PairSource for CandidateEngine<'_> {
    fn num_vertices(&self) -> usize {
        match self {
            CandidateEngine::Buckets(s) => s.num_vertices(),
            CandidateEngine::AllPairs(s) => s.num_vertices(),
        }
    }

    fn candidate_pairs(&self) -> u64 {
        match self {
            CandidateEngine::Buckets(s) => s.candidate_pairs(),
            CandidateEngine::AllPairs(s) => s.candidate_pairs(),
        }
    }

    fn num_rows(&self) -> usize {
        match self {
            CandidateEngine::Buckets(s) => s.num_rows(),
            CandidateEngine::AllPairs(s) => s.num_rows(),
        }
    }

    fn row_weights(&self) -> Vec<u64> {
        match self {
            CandidateEngine::Buckets(s) => s.row_weights(),
            CandidateEngine::AllPairs(s) => s.row_weights(),
        }
    }

    fn scan_rows_scratch(
        &self,
        rows: Range<usize>,
        run: &mut Vec<usize>,
        emit: &mut dyn FnMut(usize, &[usize]),
    ) {
        match self {
            CandidateEngine::Buckets(src) => src.scan_rows_scratch(rows, run, emit),
            CandidateEngine::AllPairs(src) => src.scan_rows_scratch(rows, run, emit),
        }
    }

    fn scan_rows_packed(
        &self,
        rows: Range<usize>,
        packed: &PackedBuckets,
        masks: &mut Vec<u64>,
        stats: &mut MaskScanStats,
        emit_edge: &mut dyn FnMut(u32, u32),
    ) {
        match self {
            CandidateEngine::Buckets(src) => {
                src.scan_rows_packed(rows, packed, masks, stats, emit_edge)
            }
            CandidateEngine::AllPairs(src) => {
                src.scan_rows_packed(rows, packed, masks, stats, emit_edge)
            }
        }
    }
}

/// Collects a source's emissions into a sorted pair set (test helper and
/// ground truth for the equivalence suites).
pub fn collect_pairs<S: PairSource>(source: &S) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    source.scan_rows_scratch(0..source.num_rows(), &mut Vec::new(), &mut |u, vs| {
        for &v in vs {
            pairs.push((u.min(v) as u32, u.max(v) as u32));
        }
    });
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth_pairs(lists: &ColorLists) -> Vec<(u32, u32)> {
        let m = lists.len();
        let mut out = Vec::new();
        for u in 0..m {
            for v in (u + 1)..m {
                if lists.intersects(u, v) {
                    out.push((u as u32, v as u32));
                }
            }
        }
        out
    }

    fn collect_rows<S: PairSource>(source: &S, rows: Range<usize>) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        source.scan_rows_scratch(rows, &mut Vec::new(), &mut |u, vs| {
            for &v in vs {
                let (a, b) = (u.min(v) as u32, u.max(v) as u32);
                pairs.push((a, b));
            }
        });
        pairs
    }

    #[test]
    fn bucket_source_emits_each_intersecting_pair_exactly_once() {
        for (n, palette, list, seed) in [
            (60usize, 20u32, 4u32, 1u64),
            (90, 8, 3, 2),
            (40, 40, 6, 3),
            (25, 5, 5, 4),
        ] {
            let lists = ColorLists::assign(n, 10, palette, list, seed, 1);
            let index = lists.bucket_index();
            let bucketed = collect_pairs(&BucketSource::new(&lists, &index));
            // No duplicates survived deduplication.
            let mut dedup = bucketed.clone();
            dedup.dedup();
            let what = format!("seed {seed}: n={n} palette={palette} list={list}");
            assert_eq!(dedup.len(), bucketed.len(), "{what}: duplicate emission");
            assert_eq!(bucketed, truth_pairs(&lists), "{what}");
        }
    }

    #[test]
    fn all_pairs_source_matches_truth_too() {
        let lists = ColorLists::assign(70, 0, 12, 3, 5, 2);
        assert_eq!(
            collect_pairs(&AllPairsSource::new(&lists)),
            truth_pairs(&lists)
        );
        assert_eq!(AllPairsSource::new(&lists).candidate_pairs(), 70 * 69 / 2);
    }

    #[test]
    fn engine_prefers_buckets_in_the_sparse_regime() {
        // Normal-like: L ≪ P — bucketed wins.
        let sparse = ColorLists::assign(200, 0, 64, 4, 7, 1);
        assert!(CandidateEngine::prefers_buckets(&sparse));
        let index = sparse.bucket_index();
        let engine = CandidateEngine::with_index(&sparse, Some(&index));
        assert!(engine.is_bucketed());
        assert!(engine.index().is_some());
        assert!(engine.candidate_pairs() < 200 * 199 / 2);
        // Degenerate: L = P — every bucket is the whole vertex set, so
        // the engine falls back to the all-pairs scan.
        let dense = ColorLists::assign(200, 0, 4, 4, 7, 1);
        assert!(!CandidateEngine::prefers_buckets(&dense));
        let engine = CandidateEngine::with_index(&dense, None);
        assert!(!engine.is_bucketed());
        assert!(engine.index().is_none());
        assert_eq!(engine.candidate_pairs(), 200 * 199 / 2);
    }

    #[test]
    fn engine_emission_is_identical_for_both_choices() {
        let lists = ColorLists::assign(80, 3, 16, 4, 11, 2);
        let index = lists.bucket_index();
        let a = collect_pairs(&BucketSource::new(&lists, &index));
        let b = collect_pairs(&AllPairsSource::new(&lists));
        assert_eq!(a, b);
    }

    #[test]
    fn row_weights_sum_to_candidate_pairs() {
        for (palette, list) in [(30u32, 4u32), (6, 6), (50, 2)] {
            let lists = ColorLists::assign(100, 0, palette, list, 3, 1);
            let index = lists.bucket_index();
            for source in [
                CandidateEngine::Buckets(BucketSource::new(&lists, &index)),
                CandidateEngine::AllPairs(AllPairsSource::new(&lists)),
            ] {
                let rows = source.row_weights();
                assert_eq!(rows.len(), source.num_rows());
                assert_eq!(rows.iter().sum::<u64>(), source.candidate_pairs());
            }
        }
    }

    #[test]
    fn runs_are_ascending_and_pivot_free() {
        let lists = ColorLists::assign(60, 0, 15, 3, 9, 1);
        let index = lists.bucket_index();
        let source = BucketSource::new(&lists, &index);
        source.scan_rows_scratch(0..source.num_rows(), &mut Vec::new(), &mut |u, vs| {
            assert!(vs.windows(2).all(|w| w[0] < w[1]));
            assert!(vs.iter().all(|&v| v > u));
        });
    }

    #[test]
    fn a_stale_run_buffer_does_not_leak_into_the_scan() {
        // Pooled arenas hand scans a run buffer full of another scan's
        // candidates; the scan must clear it per pivot.
        let lists = ColorLists::assign(64, 3, 14, 4, 13, 2);
        let index = lists.bucket_index();
        for source in [
            CandidateEngine::Buckets(BucketSource::new(&lists, &index)),
            CandidateEngine::AllPairs(AllPairsSource::new(&lists)),
        ] {
            let mut run = vec![usize::MAX; 100];
            let mut pairs = Vec::new();
            source.scan_rows_scratch(0..source.num_rows(), &mut run, &mut |u, vs| {
                for &v in vs {
                    pairs.push((u.min(v) as u32, u.max(v) as u32));
                }
            });
            pairs.sort_unstable();
            assert_eq!(pairs, collect_pairs(&source));
        }
    }

    #[test]
    fn packed_scans_emit_exactly_the_oracle_filtered_pairs() {
        use crate::oracle::PauliComplementOracle;
        use graph::EdgeOracle;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        // Single-word and multi-word packed forms, each with a narrow
        // palette (P = 14) and a wide one (P = 1000: a 16-word color
        // bitset); both filter on the lists. Every shape runs on the 3-bit
        // encoding, whose key and query words are the same, and on the
        // symplectic one, whose key words swap the x and z planes: a tile
        // gathered from the query table, or from the wrong lane, emits
        // other pairs there.
        fn check<O: EdgeOracle>(oracle: &O, lists: &ColorLists, what: &str) {
            let index = lists.bucket_index();
            let source = BucketSource::new(lists, &index);
            let mut packed = PackedBuckets::new();
            assert!(packed.pack_from(oracle, lists, true));
            assert_eq!(packed.shared_color_filter(), SharedColorFilter::Lists);

            // Ground truth: scalar candidate scan filtered by the
            // scalar oracle.
            let mut truth = Vec::new();
            source.scan_rows_scratch(0..source.num_rows(), &mut Vec::new(), &mut |u, vs| {
                for &v in vs {
                    if oracle.has_edge(u, v) {
                        truth.push((u as u32, v as u32));
                    }
                }
            });
            truth.sort_unstable();

            // Split at awkward cuts, including mid-bucket.
            let mut masks = Vec::new();
            for parts in [1usize, 3, 7] {
                let rows = source.num_rows();
                let step = rows.div_ceil(parts).max(1);
                let mut row_edges = Vec::new();
                let mut stats = MaskScanStats::default();
                let mut at = 0usize;
                while at < rows {
                    let hi = (at + step).min(rows);
                    source.scan_rows_packed(
                        at..hi,
                        &packed,
                        &mut masks,
                        &mut stats,
                        &mut |u, v| row_edges.push((u, v)),
                    );
                    at = hi;
                }
                row_edges.sort_unstable();
                assert_eq!(row_edges, truth, "{what} parts={parts}");
                // Every examined word is either skipped or scanned, hits
                // dominate the (deduplicated) emission, and the per-pivot
                // word totals cover the candidate pairs.
                assert!(stats.skipped_words <= stats.scanned_words);
                assert!(stats.hit_bits >= truth.len() as u64);
                assert!(stats.scanned_words * 64 >= source.candidate_pairs());
            }
        }
        for (qubits, palette, list) in [
            (6usize, 14u32, 4u32),
            (25, 14, 4),
            (6, 1000, 3),
            (25, 1000, 3),
        ] {
            let strings = pauli::string::random_unique_set(70, qubits, &mut rng);
            let lists = ColorLists::assign(70, 0, palette, list, 13, 1);
            let what = format!("qubits={qubits} P={palette}");
            let set = pauli::EncodedSet::from_strings(&strings);
            check(&PauliComplementOracle::new(&set), &lists, &what);
            let set = pauli::SymplecticSet::from_strings(&strings);
            check(
                &PauliComplementOracle::new(&set),
                &lists,
                &format!("{what} symplectic"),
            );
        }
    }

    #[test]
    fn packed_all_pairs_scan_matches_the_scalar_sequence_at_any_cut() {
        use crate::oracle::PauliComplementOracle;
        use graph::EdgeOracle;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        // P = 64, L = 10: all-pairs is still the cheaper engine, but
        // 2L ≤ P, so some hits share no color and the list filter rejects
        // them. Single-word and multi-word forms. P = 8000, L = 100 is
        // all-pairs too, with a 125-word color bitset.
        for (qubits, palette, list) in [(8usize, 64u32, 10u32), (30, 64, 10), (8, 8000, 100)] {
            let strings = pauli::string::random_unique_set(150, qubits, &mut rng);
            let set = pauli::EncodedSet::from_strings(&strings);
            let oracle = PauliComplementOracle::new(&set);
            let lists = ColorLists::assign(150, 0, palette, list, 3, 1);
            assert!(!CandidateEngine::prefers_buckets(&lists));
            let source = AllPairsSource::new(&lists);
            let mut packed = PackedBuckets::new();
            assert!(packed.pack_from(&oracle, &lists, false));
            assert_eq!(packed.shared_color_filter(), SharedColorFilter::Lists);

            let mut truth = Vec::new();
            source.scan_rows_scratch(0..source.num_rows(), &mut Vec::new(), &mut |u, vs| {
                for &v in vs {
                    if oracle.has_edge(u, v) {
                        truth.push((u as u32, v as u32));
                    }
                }
            });
            let mut rejected = 0u64;
            let mut masks = Vec::new();
            for parts in [1usize, 4, 9] {
                let step = 150usize.div_ceil(parts);
                let mut edges = Vec::new();
                let mut stats = MaskScanStats::default();
                for at in (0..150).step_by(step) {
                    source.scan_rows_packed(
                        at..(at + step).min(150),
                        &packed,
                        &mut masks,
                        &mut stats,
                        &mut |u, v| edges.push((u, v)),
                    );
                }
                // The same sequence, not only the same set.
                assert_eq!(edges, truth, "qubits={qubits} parts={parts}");
                assert!(stats.scanned_words * 64 >= source.candidate_pairs());
                rejected = stats.hit_bits - truth.len() as u64;
            }
            assert!(
                rejected > 0,
                "qubits={qubits}: the color filter must reject hits"
            );
        }
    }

    #[test]
    fn row_scans_partition_the_emission_at_any_cut() {
        // Splitting the flat row space anywhere — including mid-bucket —
        // must reproduce the full scan exactly: the contract that lets
        // row blocks cut through buckets.
        for (n, palette, list, seed) in
            [(50usize, 12u32, 4u32, 1u64), (70, 2, 2, 2), (30, 30, 3, 3)]
        {
            let lists = ColorLists::assign(n, 5, palette, list, seed, 1);
            let index = lists.bucket_index();
            for source in [
                CandidateEngine::Buckets(BucketSource::new(&lists, &index)),
                CandidateEngine::AllPairs(AllPairsSource::new(&lists)),
            ] {
                let mut full = collect_pairs(&source);
                full.sort_unstable();
                let rows = source.num_rows();
                for parts in [1usize, 2, 3, 7] {
                    let mut merged = Vec::new();
                    let step = rows.div_ceil(parts).max(1);
                    let mut at = 0usize;
                    while at < rows {
                        let hi = (at + step).min(rows);
                        merged.extend(collect_rows(&source, at..hi));
                        at = hi;
                    }
                    merged.sort_unstable();
                    assert_eq!(
                        merged,
                        full,
                        "seed {seed}: n={n} palette={palette} parts={parts} bucketed={}",
                        source.is_bucketed()
                    );
                }
                // Degenerate cuts.
                assert!(collect_rows(&source, 0..0).is_empty(), "seed {seed}");
                assert_eq!(
                    collect_rows(&source, 0..rows).len(),
                    full.len(),
                    "seed {seed}"
                );
            }
        }
    }
}
