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
//! exactly once. The emitted pair *set* is therefore identical to the
//! all-pairs scan's (`intersects ∧ oracle`), and since CSR assembly
//! sorts adjacency, every backend — and either engine — produces a
//! bit-identical CSR graph.
//!
//! **Sharding.** A [`PairSource`] exposes its work at two granularities.
//! *Shards* (rows for the all-pairs source, buckets for the bucketed
//! one) carry per-shard weights so the rayon and device backends can
//! schedule balanced blocks. *Flat pivot rows* subdivide shards further:
//! every pivot vertex of every shard is one row, so a single bucket's
//! pair triangle can be split across devices at row granularity —
//! **sub-bucket sharding**, needed because contiguous bucket shards can
//! be coarser than a device (a two-color palette has only two buckets).
//! Candidates are emitted as `(pivot, run)` groups, which the builders
//! feed to the batched oracle path
//! ([`graph::EdgeOracle::has_edge_block_scratch`]) to amortize encoding
//! loads.
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
//! [`CandidateEngine::with_index`].

use crate::assign::{BucketIndex, ColorLists};
use crate::packed::{MaskScanStats, PackedBuckets};
use std::ops::Range;

std::thread_local! {
    /// Run-staging buffer backing the non-`_scratch` scan defaults: one
    /// reused buffer per thread instead of the fresh `Vec` per shard the
    /// defaults used to construct. Taken (not borrowed) around each
    /// scan, so a re-entrant scan inside an `emit` callback simply finds
    /// an empty cell and allocates its own buffer instead of panicking.
    static DEFAULT_RUN: std::cell::Cell<Vec<usize>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Runs `f` with this thread's shared run-staging buffer.
fn with_default_run<R>(f: impl FnOnce(&mut Vec<usize>) -> R) -> R {
    DEFAULT_RUN.with(|cell| {
        let mut run = cell.take();
        let out = f(&mut run);
        cell.set(run);
        out
    })
}

/// A deterministic, sharded source of candidate pairs.
///
/// Contract: across all shards (equivalently, across all flat rows),
/// each unordered pair `{u, v}` with intersecting color lists is emitted
/// exactly once, as `u` paired with an ascending run containing `v` (or
/// vice versa), and never any pair with disjoint lists. Shard and row
/// contents and order are pure functions of the lists, never of
/// scheduling, and `scan_rows` over any partition of `0..num_rows()`
/// emits exactly the pairs of a full shard scan.
pub trait PairSource: Sync {
    /// Vertex count `m` of the underlying live set.
    fn num_vertices(&self) -> usize;

    /// Oracle-independent enumeration work: the number of pairs this
    /// source *examines* (all-pairs: `m(m−1)/2`; bucketed: the sum of
    /// in-bucket pair counts).
    fn candidate_pairs(&self) -> u64;

    /// Number of independent shards.
    fn num_shards(&self) -> usize;

    /// Enumeration weight of shard `s`, for balanced block scheduling.
    fn shard_weight(&self, s: usize) -> u64;

    /// Emits shard `s`'s candidates as `(pivot, ascending candidate
    /// run)` groups. The run slice is only valid for the duration of the
    /// callback. Defaults to [`PairSource::scan_shard_scratch`] over one
    /// thread-shared staging buffer (it used to build a fresh `Vec` per
    /// shard — the allocation-per-shard footgun).
    fn scan_shard(&self, s: usize, emit: &mut dyn FnMut(usize, &[usize])) {
        with_default_run(|run| self.scan_shard_scratch(s, run, emit));
    }

    /// Like [`PairSource::scan_shard`] with the run staging buffer drawn
    /// from the caller (cleared per pivot, never shrunk) — the entry
    /// point of pooled-arena tasks and the method concrete sources
    /// implement.
    fn scan_shard_scratch(
        &self,
        s: usize,
        run: &mut Vec<usize>,
        emit: &mut dyn FnMut(usize, &[usize]),
    );

    /// Packed-kernel scan of shard `s`: every pivot's **whole bucket
    /// tail** gets its edge bits as `u64` hit masks from `packed`'s
    /// word-transposed lanes in one straight-line loop
    /// ([`PackedBuckets::tail_edge_mask`]); the consumer skips zero
    /// words whole, walks set bits with `trailing_zeros`, applies the
    /// smallest-shared-color deduplication filter only on those hits,
    /// and emits surviving pairs as **edges** directly — the
    /// oracle-block stage of the scalar path disappears, and the walk
    /// cost tracks the hit count rather than the candidate count.
    /// `masks` is the caller's reusable mask staging; word/bit counters
    /// accumulate into `stats`.
    ///
    /// Emits exactly `{(u, v) : scan_shard emits the pair ∧ the packed
    /// oracle has the edge}`. Only the bucketed source supports it; the
    /// builders route here only when the iteration context actually
    /// packed (which implies a bucketed engine).
    fn scan_shard_packed(
        &self,
        s: usize,
        packed: &PackedBuckets,
        masks: &mut Vec<u64>,
        stats: &mut MaskScanStats,
        emit_edge: &mut dyn FnMut(u32, u32),
    ) {
        let _ = (s, packed, masks, stats, emit_edge);
        unreachable!("packed scan on a source without bucket structure");
    }

    /// [`PairSource::scan_shard_packed`] over contiguous flat rows,
    /// splitting bucket tails mid-bucket exactly like
    /// [`PairSource::scan_rows`].
    fn scan_rows_packed(
        &self,
        rows: Range<usize>,
        packed: &PackedBuckets,
        masks: &mut Vec<u64>,
        stats: &mut MaskScanStats,
        emit_edge: &mut dyn FnMut(u32, u32),
    ) {
        let _ = (rows, packed, masks, stats, emit_edge);
        unreachable!("packed scan on a source without bucket structure");
    }

    /// Total pivot rows in the flattened row space (the sub-bucket
    /// sharding granularity). Defaults to one row per shard.
    fn num_rows(&self) -> usize {
        self.num_shards()
    }

    /// Enumeration weights of all flat rows, in row order; sums to
    /// [`PairSource::candidate_pairs`]. Defaults to the per-shard
    /// weights (one row per shard).
    fn row_weights(&self) -> Vec<u64> {
        (0..self.num_shards())
            .map(|s| self.shard_weight(s))
            .collect()
    }

    /// Emits the candidates of the contiguous flat rows `rows`, in row
    /// order. Defaults to scanning whole shards (valid when one shard is
    /// one row); bucketed sources override it to split a bucket's pair
    /// triangle mid-bucket.
    fn scan_rows(&self, rows: Range<usize>, emit: &mut dyn FnMut(usize, &[usize])) {
        for s in rows {
            self.scan_shard(s, emit);
        }
    }

    /// [`PairSource::scan_rows`] with a caller-provided run staging
    /// buffer (see [`PairSource::scan_shard_scratch`]).
    fn scan_rows_scratch(
        &self,
        rows: Range<usize>,
        run: &mut Vec<usize>,
        emit: &mut dyn FnMut(usize, &[usize]),
    ) {
        for s in rows {
            self.scan_shard_scratch(s, run, emit);
        }
    }
}

/// The legacy reference enumeration: every row `i` against every `j > i`,
/// filtered by list intersection. `Θ(m²)` examinations.
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
    fn num_shards(&self) -> usize {
        self.lists.len()
    }

    #[inline]
    fn shard_weight(&self, s: usize) -> u64 {
        (self.lists.len() - 1 - s) as u64
    }

    fn scan_shard_scratch(
        &self,
        s: usize,
        run: &mut Vec<usize>,
        emit: &mut dyn FnMut(usize, &[usize]),
    ) {
        let m = self.lists.len();
        run.clear();
        for j in (s + 1)..m {
            if self.lists.intersects(s, j) {
                run.push(j);
            }
        }
        if !run.is_empty() {
            emit(s, run);
        }
    }
}

/// The bucketed engine: shards are palette buckets; in-bucket pairs pass
/// the smallest-shared-color deduplication filter before emission. The
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

    /// Packed-kernel twin of [`BucketSource::scan_positions`]: the
    /// oracle runs first (whole-tail mask kernel), the dedup filter
    /// second, only on hits — the emitted edge set is identical because
    /// both filters are pure and intersection is order-independent. The
    /// dedup itself is the packed bitmask test
    /// ([`PackedBuckets::shares_color_below`]): both vertices hold this
    /// bucket's color, so their smallest shared color is this one
    /// exactly when they share nothing below it. Zero mask words are
    /// skipped without touching the bucket at all; set bits are walked
    /// with `trailing_zeros`, so a near-empty tail costs one branch per
    /// 64 candidates.
    fn scan_positions_packed(
        &self,
        k: usize,
        positions: Range<usize>,
        packed: &PackedBuckets,
        masks: &mut Vec<u64>,
        stats: &mut MaskScanStats,
        emit_edge: &mut dyn FnMut(u32, u32),
    ) {
        let bucket = self.index.bucket(k);
        let start = self.index.bucket_start(k);
        for a in positions {
            let u = bucket[a] as usize;
            packed.tail_edge_mask(start, bucket.len(), a, u, masks);
            stats.scanned_words += masks.len() as u64;
            let tail = &bucket[a + 1..];
            for (wi, &word) in masks.iter().enumerate() {
                if word == 0 {
                    stats.skipped_words += 1;
                    continue;
                }
                stats.hit_bits += u64::from(word.count_ones());
                let mut word = word;
                while word != 0 {
                    let t = wi * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let v = tail[t] as usize;
                    // Emit only from the smallest shared color's bucket.
                    if !packed.shares_color_below(u, v, k) {
                        emit_edge(u as u32, v as u32);
                    }
                }
            }
        }
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
    fn num_shards(&self) -> usize {
        self.index.num_buckets()
    }

    #[inline]
    fn shard_weight(&self, s: usize) -> u64 {
        self.index.bucket_pairs(s)
    }

    fn scan_shard_scratch(
        &self,
        s: usize,
        run: &mut Vec<usize>,
        emit: &mut dyn FnMut(usize, &[usize]),
    ) {
        self.scan_positions(s, 0..self.index.bucket(s).len(), run, emit);
    }

    fn scan_shard_packed(
        &self,
        s: usize,
        packed: &PackedBuckets,
        masks: &mut Vec<u64>,
        stats: &mut MaskScanStats,
        emit_edge: &mut dyn FnMut(u32, u32),
    ) {
        self.scan_positions_packed(
            s,
            0..self.index.bucket(s).len(),
            packed,
            masks,
            stats,
            emit_edge,
        );
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
    fn scan_rows(&self, rows: Range<usize>, emit: &mut dyn FnMut(usize, &[usize])) {
        with_default_run(|run| self.scan_rows_scratch(rows, run, emit));
    }

    fn scan_rows_scratch(
        &self,
        rows: Range<usize>,
        run: &mut Vec<usize>,
        emit: &mut dyn FnMut(usize, &[usize]),
    ) {
        walk_row_span(self.index, rows, |k, positions| {
            self.scan_positions(k, positions, run, emit)
        });
    }

    /// Packed sub-bucket scan, same mid-bucket splitting as
    /// [`PairSource::scan_rows`] (literally: both walk the span through
    /// [`walk_row_span`], so the packed and scalar row partitions cannot
    /// drift apart).
    fn scan_rows_packed(
        &self,
        rows: Range<usize>,
        packed: &PackedBuckets,
        masks: &mut Vec<u64>,
        stats: &mut MaskScanStats,
        emit_edge: &mut dyn FnMut(u32, u32),
    ) {
        walk_row_span(self.index, rows, |k, positions| {
            self.scan_positions_packed(k, positions, packed, masks, stats, emit_edge)
        });
    }
}

/// Decomposes a contiguous flat-row span into per-bucket position
/// ranges: `leaf(k, positions)` receives each touched bucket `k` with
/// the in-bucket positions the span covers — mid-bucket at either end.
/// The single home of the sub-bucket splitting invariant (every pivot
/// row visited exactly once), shared by the scalar and packed row
/// scans.
fn walk_row_span(
    index: &BucketIndex,
    rows: Range<usize>,
    mut leaf: impl FnMut(usize, Range<usize>),
) {
    if rows.is_empty() {
        return;
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
        leaf(k, (r - bs)..hi);
        r = bs + hi;
        k += 1;
    }
}

/// The engine actually used by the bucketed backends: the cheaper of the
/// two enumerations for this iteration's lists. The decision
/// ([`CandidateEngine::prefers_buckets`]) is a pure function of the
/// lists, so sequential, parallel, device and multi-device builds always
/// agree; the index itself is owned by the iteration context and lent
/// in.
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

    fn num_shards(&self) -> usize {
        match self {
            CandidateEngine::Buckets(s) => s.num_shards(),
            CandidateEngine::AllPairs(s) => s.num_shards(),
        }
    }

    fn shard_weight(&self, s: usize) -> u64 {
        match self {
            CandidateEngine::Buckets(src) => src.shard_weight(s),
            CandidateEngine::AllPairs(src) => src.shard_weight(s),
        }
    }

    fn scan_shard(&self, s: usize, emit: &mut dyn FnMut(usize, &[usize])) {
        match self {
            CandidateEngine::Buckets(src) => src.scan_shard(s, emit),
            CandidateEngine::AllPairs(src) => src.scan_shard(s, emit),
        }
    }

    fn scan_shard_scratch(
        &self,
        s: usize,
        run: &mut Vec<usize>,
        emit: &mut dyn FnMut(usize, &[usize]),
    ) {
        match self {
            CandidateEngine::Buckets(src) => src.scan_shard_scratch(s, run, emit),
            CandidateEngine::AllPairs(src) => src.scan_shard_scratch(s, run, emit),
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

    fn scan_rows(&self, rows: Range<usize>, emit: &mut dyn FnMut(usize, &[usize])) {
        match self {
            CandidateEngine::Buckets(src) => src.scan_rows(rows, emit),
            CandidateEngine::AllPairs(src) => src.scan_rows(rows, emit),
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

    fn scan_shard_packed(
        &self,
        s: usize,
        packed: &PackedBuckets,
        masks: &mut Vec<u64>,
        stats: &mut MaskScanStats,
        emit_edge: &mut dyn FnMut(u32, u32),
    ) {
        match self {
            CandidateEngine::Buckets(src) => {
                src.scan_shard_packed(s, packed, masks, stats, emit_edge)
            }
            CandidateEngine::AllPairs(src) => {
                src.scan_shard_packed(s, packed, masks, stats, emit_edge)
            }
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
    for s in 0..source.num_shards() {
        source.scan_shard(s, &mut |u, vs| {
            for &v in vs {
                let (a, b) = (u.min(v) as u32, u.max(v) as u32);
                pairs.push((a, b));
            }
        });
    }
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
        source.scan_rows(rows, &mut |u, vs| {
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
            assert_eq!(dedup.len(), bucketed.len(), "duplicate emission");
            assert_eq!(
                bucketed,
                truth_pairs(&lists),
                "n={n} palette={palette} list={list}"
            );
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
    fn shard_weights_sum_to_candidate_pairs() {
        for (palette, list) in [(30u32, 4u32), (6, 6), (50, 2)] {
            let lists = ColorLists::assign(100, 0, palette, list, 3, 1);
            let index = lists.bucket_index();
            for source in [
                CandidateEngine::Buckets(BucketSource::new(&lists, &index)),
                CandidateEngine::AllPairs(AllPairsSource::new(&lists)),
            ] {
                let sum: u64 = (0..source.num_shards())
                    .map(|s| source.shard_weight(s))
                    .sum();
                assert_eq!(sum, source.candidate_pairs());
                // Flat rows refine shards: same total at finer grain.
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
        for s in 0..source.num_shards() {
            source.scan_shard(s, &mut |u, vs| {
                assert!(vs.windows(2).all(|w| w[0] < w[1]));
                assert!(vs.iter().all(|&v| v > u));
            });
        }
    }

    #[test]
    fn scratch_scans_match_the_allocating_scans() {
        // The pooled-arena entry points must emit exactly what the
        // allocating ones do, for both sources, at shard and row grain.
        let lists = ColorLists::assign(64, 3, 14, 4, 13, 2);
        let index = lists.bucket_index();
        for source in [
            CandidateEngine::Buckets(BucketSource::new(&lists, &index)),
            CandidateEngine::AllPairs(AllPairsSource::new(&lists)),
        ] {
            let mut run = Vec::new();
            let mut scratch_pairs = Vec::new();
            for s in 0..source.num_shards() {
                source.scan_shard_scratch(s, &mut run, &mut |u, vs| {
                    for &v in vs {
                        scratch_pairs.push((u.min(v) as u32, u.max(v) as u32));
                    }
                });
            }
            scratch_pairs.sort_unstable();
            assert_eq!(scratch_pairs, collect_pairs(&source));

            let rows = source.num_rows();
            let mut row_pairs = Vec::new();
            source.scan_rows_scratch(0..rows, &mut run, &mut |u, vs| {
                for &v in vs {
                    row_pairs.push((u.min(v) as u32, u.max(v) as u32));
                }
            });
            row_pairs.sort_unstable();
            assert_eq!(row_pairs, collect_pairs(&source));
        }
    }

    #[test]
    fn packed_scans_emit_exactly_the_oracle_filtered_pairs() {
        use crate::oracle::PauliComplementOracle;
        use graph::EdgeOracle;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        // Single-word and multi-word packed forms.
        for qubits in [6usize, 25] {
            let strings = pauli::string::random_unique_set(70, qubits, &mut rng);
            let set = pauli::EncodedSet::from_strings(&strings);
            let oracle = PauliComplementOracle::new(&set);
            let lists = ColorLists::assign(70, 0, 14, 4, 13, 1);
            let index = lists.bucket_index();
            let source = BucketSource::new(&lists, &index);
            let mut packed = PackedBuckets::new();
            assert!(packed.pack_from(&oracle, &lists, &index));

            // Ground truth: scalar candidate scan filtered by the
            // scalar oracle.
            let mut truth = Vec::new();
            for s in 0..source.num_shards() {
                source.scan_shard(s, &mut |u, vs| {
                    for &v in vs {
                        if oracle.has_edge(u, v) {
                            truth.push((u as u32, v as u32));
                        }
                    }
                });
            }
            truth.sort_unstable();

            let mut masks = Vec::new();
            let mut stats = MaskScanStats::default();
            let mut shard_edges = Vec::new();
            for s in 0..source.num_shards() {
                source.scan_shard_packed(s, &packed, &mut masks, &mut stats, &mut |u, v| {
                    shard_edges.push((u, v))
                });
            }
            shard_edges.sort_unstable();
            assert_eq!(shard_edges, truth, "qubits={qubits} shard grain");
            // Every examined word is either skipped or scanned, hits
            // dominate the (deduplicated) emission, and the per-pivot
            // word totals cover the candidate pairs.
            assert!(stats.skipped_words <= stats.scanned_words);
            assert!(stats.hit_bits >= truth.len() as u64);
            assert!(stats.scanned_words * 64 >= source.candidate_pairs());

            // Row grain, split at awkward cuts including mid-bucket.
            for parts in [1usize, 3, 7] {
                let rows = source.num_rows();
                let step = rows.div_ceil(parts).max(1);
                let mut row_edges = Vec::new();
                let mut at = 0usize;
                while at < rows {
                    let hi = (at + step).min(rows);
                    let mut row_stats = MaskScanStats::default();
                    source.scan_rows_packed(
                        at..hi,
                        &packed,
                        &mut masks,
                        &mut row_stats,
                        &mut |u, v| row_edges.push((u, v)),
                    );
                    stats.merge(row_stats);
                    at = hi;
                }
                row_edges.sort_unstable();
                assert_eq!(row_edges, truth, "qubits={qubits} parts={parts}");
            }
        }
    }

    #[test]
    fn row_scans_partition_the_emission_at_any_cut() {
        // Splitting the flat row space anywhere — including mid-bucket —
        // must reproduce the full scan exactly: the sub-bucket sharding
        // correctness contract.
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
                        "n={n} palette={palette} parts={parts} bucketed={}",
                        source.is_bucketed()
                    );
                }
                // Degenerate cuts.
                assert!(collect_rows(&source, 0..0).is_empty());
                assert_eq!(collect_rows(&source, 0..rows).len(), full.len());
            }
        }
    }
}
