//! Random color-list assignment (Line 6 of Algorithm 1).
//!
//! Every live vertex receives `L` distinct colors drawn uniformly without
//! replacement from the iteration's palette `[base, base + P)`. Lists are
//! stored row-major in one flat array and kept **sorted**, so the
//! conflict check between two vertices is an `O(L)` sorted-merge
//! intersection. Assignment is rayon-parallel over contiguous vertex
//! blocks with per-vertex deterministic seeding: the result depends only
//! on `(seed, iteration, vertex)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Flat row-major storage of per-vertex sorted color lists.
#[derive(Clone, Debug)]
pub struct ColorLists {
    n: usize,
    stride: usize,
    palette_base: u32,
    palette_size: u32,
    colors: Vec<u32>,
}

impl ColorLists {
    /// Assigns lists for `n` vertices: `list_size` distinct colors each,
    /// from the palette `[palette_base, palette_base + palette_size)`.
    ///
    /// `list_size` is clamped *down* to `palette_size` (a list can at
    /// most hold the whole palette).
    ///
    /// # Panics
    ///
    /// Panics if `palette_size` or `list_size` is zero. A zero list size
    /// is always a caller bug (a vertex with no candidate colors can
    /// never be colored and the iteration would spin), so it is rejected
    /// loudly instead of being silently bumped to 1 as earlier versions
    /// did; [`crate::PicassoConfig::list_size`] already clamps into
    /// `[1, palette_size]`.
    pub fn assign(
        n: usize,
        palette_base: u32,
        palette_size: u32,
        list_size: u32,
        seed: u64,
        iteration: u64,
    ) -> ColorLists {
        let mut lists = ColorLists::empty();
        lists.reassign(n, palette_base, palette_size, list_size, seed, iteration);
        lists
    }

    /// Lists for zero vertices over a placeholder one-color palette — the
    /// initial state of a reusable workspace before its first
    /// [`ColorLists::reassign`].
    pub fn empty() -> ColorLists {
        ColorLists {
            n: 0,
            stride: 1,
            palette_base: 0,
            palette_size: 1,
            colors: Vec::new(),
        }
    }

    /// Re-runs Line 6 *in place*: identical semantics (and identical
    /// output) to [`ColorLists::assign`] with the same arguments, but the
    /// flat color array is reused, so a solver iterating over shrinking
    /// live sets allocates the list storage once instead of once per
    /// iteration.
    pub fn reassign(
        &mut self,
        n: usize,
        palette_base: u32,
        palette_size: u32,
        list_size: u32,
        seed: u64,
        iteration: u64,
    ) {
        assert!(palette_size >= 1, "palette must be non-empty");
        assert!(
            list_size >= 1,
            "list_size must be >= 1: a vertex with an empty color list can never be colored"
        );
        let l = list_size.min(palette_size) as usize;
        self.colors.clear();
        self.colors.resize(n * l, 0u32);
        // Contiguous vertex blocks, four per thread as Line 7 cuts its
        // rows: the fan-out hands out a few block items, not one item per
        // vertex.
        let block = n.div_ceil(4 * rayon::current_num_threads()).max(1);
        self.colors
            .par_chunks_mut(block * l)
            .enumerate()
            .for_each(|(b, rows)| {
                for (i, row) in rows.chunks_mut(l).enumerate() {
                    let v = b * block + i;
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ iteration.wrapping_mul(0x9E3779B97F4A7C15)
                            ^ (v as u64).wrapping_mul(0xC2B2AE3D27D4EB4F),
                    );
                    sample_distinct(&mut rng, palette_size, row);
                    for c in row.iter_mut() {
                        *c += palette_base;
                    }
                    row.sort_unstable();
                }
            });
        self.n = n;
        self.stride = l;
        self.palette_base = palette_base;
        self.palette_size = palette_size;
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no vertices are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// List length `L` (identical for every vertex).
    #[inline]
    pub fn list_size(&self) -> usize {
        self.stride
    }

    /// The sorted color list of vertex `v`.
    #[inline]
    pub fn row(&self, v: usize) -> &[u32] {
        &self.colors[v * self.stride..(v + 1) * self.stride]
    }

    /// First color of this iteration's palette.
    #[inline]
    pub fn palette_base(&self) -> u32 {
        self.palette_base
    }

    /// Palette size `P` the lists were drawn from.
    #[inline]
    pub fn palette_size(&self) -> u32 {
        self.palette_size
    }

    /// Whether two vertices share at least one color — the conflict
    /// predicate of Line 7 (sorted-merge, O(L)).
    #[inline]
    pub fn intersects(&self, u: usize, v: usize) -> bool {
        self.first_common(u, v).is_some()
    }

    /// The *smallest* color the two vertices share, if any (sorted-merge,
    /// O(L)).
    ///
    /// This is the deduplication key of the bucketed candidate engine: a
    /// pair sharing `k` colors appears in `k` buckets but is emitted only
    /// from the bucket of its smallest shared color, so every candidate
    /// pair reaches the oracle exactly once regardless of backend.
    #[inline]
    pub fn first_common(&self, u: usize, v: usize) -> Option<u32> {
        let a = self.row(u);
        let b = self.row(v);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return Some(a[i]),
            }
        }
        None
    }

    /// Builds the inverted index `color → sorted vertex bucket` over this
    /// iteration's palette — the feed of the bucketed candidate engine
    /// (`crate::candidates`). Counting-sort construction, O(N·L + P);
    /// buckets come out ascending because vertices are scattered in
    /// order.
    pub fn bucket_index(&self) -> BucketIndex {
        let mut index = BucketIndex::empty();
        self.bucket_index_into(&mut index);
        index
    }

    /// Builds the inverted index into an existing [`BucketIndex`],
    /// reusing its offset and vertex arrays — the solver's iteration
    /// context rebuilds the index once per iteration without
    /// re-allocating its storage. Semantically identical to
    /// [`ColorLists::bucket_index`].
    pub fn bucket_index_into(&self, index: &mut BucketIndex) {
        let num = self.palette_size as usize;
        let base = self.palette_base;
        index.palette_base = base;
        index.offsets.clear();
        index.offsets.resize(num + 1, 0);
        for &c in &self.colors {
            index.offsets[(c - base) as usize + 1] += 1;
        }
        for k in 0..num {
            index.offsets[k + 1] += index.offsets[k];
        }
        index.vertices.clear();
        index.vertices.resize(self.colors.len(), 0);
        // Scatter using the offsets as cursors, then shift them back —
        // the classic counting-sort trick that avoids a cursor copy.
        for v in 0..self.n {
            for &c in self.row(v) {
                let k = (c - base) as usize;
                index.vertices[index.offsets[k]] = v as u32;
                index.offsets[k] += 1;
            }
        }
        for k in (1..=num).rev() {
            index.offsets[k] = index.offsets[k - 1];
        }
        index.offsets[0] = 0;
    }

    /// Histogram summary of the (notional) inverted index, computed from
    /// bucket counts alone — no index scatter. Available the moment the
    /// lists are assigned, i.e. **before any oracle query runs**, which
    /// makes [`BucketLoad::total_pairs`] a pre-oracle estimate of the
    /// iteration's conflict-construction work.
    pub fn bucket_load(&self) -> BucketLoad {
        let base = self.palette_base;
        let mut counts = vec![0u64; self.palette_size as usize];
        for &c in &self.colors {
            counts[(c - base) as usize] += 1;
        }
        let mut load = BucketLoad::default();
        for &s in &counts {
            load.total_pairs += s * s.saturating_sub(1) / 2;
            load.max_bucket = load.max_bucket.max(s as usize);
            if s >= 2 {
                load.active_buckets += 1;
            }
        }
        load
    }

    /// Total in-bucket pairs of the (notional) inverted index —
    /// `Σ_c |B_c|·(|B_c|−1)/2` — computed from a counts histogram alone,
    /// so the candidate engine can reject the bucketed scan without
    /// paying the full [`ColorLists::bucket_index`] scatter. Always
    /// equals `bucket_index().total_pairs()`.
    pub fn bucket_pair_total(&self) -> u64 {
        self.bucket_load().total_pairs
    }

    /// Heap bytes held by the flat list array (the `N·L·4`-byte input the
    /// paper copies to the GPU).
    pub fn heap_bytes(&self) -> usize {
        self.colors.capacity() * std::mem::size_of::<u32>()
    }
}

/// Bucket-size histogram summary of a [`ColorLists`] palette — the
/// pre-oracle conflict-load estimate surfaced through the solver's
/// per-iteration stats (and the candidate engine's decision input).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BucketLoad {
    /// `Σ_c |B_c|·(|B_c|−1)/2` — the pairs a bucketed scan would
    /// enumerate; equals `bucket_index().total_pairs()`.
    pub total_pairs: u64,
    /// Size of the deepest bucket, `max_c |B_c|`.
    pub max_bucket: usize,
    /// Buckets with ≥ 2 members — the only ones that can produce
    /// candidate pairs.
    pub active_buckets: usize,
}

/// Inverted index of a [`ColorLists`]: for every palette color, the
/// ascending list of vertices holding it. Only pairs co-located in some
/// bucket can be conflict edges, so enumeration over buckets replaces the
/// all-pairs `Θ(m²)` scan.
#[derive(Clone, Debug)]
pub struct BucketIndex {
    palette_base: u32,
    /// CSR-style offsets into `vertices`, one slot per palette color + 1.
    offsets: Vec<usize>,
    /// Bucket contents, ascending within each bucket.
    vertices: Vec<u32>,
}

impl BucketIndex {
    /// An index over an empty palette — reusable storage to be filled by
    /// [`ColorLists::bucket_index_into`].
    pub fn empty() -> BucketIndex {
        BucketIndex {
            palette_base: 0,
            offsets: vec![0],
            vertices: Vec::new(),
        }
    }

    /// Number of buckets (= palette size).
    #[inline]
    pub fn num_buckets(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The absolute color of bucket `k`.
    #[inline]
    pub fn color(&self, k: usize) -> u32 {
        self.palette_base + k as u32
    }

    /// The ascending vertex list of bucket `k`.
    #[inline]
    pub fn bucket(&self, k: usize) -> &[u32] {
        &self.vertices[self.offsets[k]..self.offsets[k + 1]]
    }

    /// Flat-row offset of bucket `k`'s first pivot (`k == num_buckets()`
    /// is the end sentinel, equal to [`BucketIndex::num_rows`]).
    #[inline]
    pub fn bucket_start(&self, k: usize) -> usize {
        self.offsets[k]
    }

    /// In-bucket pairs of bucket `k`: `|B_k|·(|B_k|−1)/2`.
    #[inline]
    pub fn bucket_pairs(&self, k: usize) -> u64 {
        let s = (self.offsets[k + 1] - self.offsets[k]) as u64;
        s * s.saturating_sub(1) / 2
    }

    /// Total enumeration work of a bucketed scan: the sum of in-bucket
    /// pair counts (pairs sharing several colors are counted once per
    /// shared bucket — that is the work actually examined, even though
    /// deduplication emits each pair only once).
    pub fn total_pairs(&self) -> u64 {
        (0..self.num_buckets()).map(|k| self.bucket_pairs(k)).sum()
    }

    /// Bytes Algorithm 3 charges a device for holding this index: the
    /// vertex array plus the `P+1` offsets, both as 32-bit values.
    pub fn device_bytes(&self) -> usize {
        (self.vertices.len() + self.offsets.len()) * std::mem::size_of::<u32>()
    }

    /// Total pivot rows in the flattened row space used by sub-bucket
    /// sharding: one row per (bucket, position) membership, i.e.
    /// `Σ_c |B_c| = N·L`. Row `r` is position `r − offsets[k]` of the
    /// bucket `k` containing it.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.vertices.len()
    }

    /// The bucket containing flat row `r` (binary search over the
    /// offsets; empty buckets are skipped by construction).
    #[inline]
    pub fn row_bucket(&self, r: usize) -> usize {
        debug_assert!(r < self.num_rows());
        self.offsets.partition_point(|&o| o <= r) - 1
    }
}

/// Samples `row.len()` distinct values from `0..palette_size` into `row`
/// (unsorted).
///
/// Sparse lists (`L ≪ P`, the Normal regime) use Floyd's algorithm;
/// dense lists (`L` a large fraction of `P`, the Aggressive regime where
/// Floyd's membership probes degenerate to O(L²)) use a partial
/// Fisher–Yates shuffle, O(P).
fn sample_distinct<R: Rng>(rng: &mut R, palette_size: u32, row: &mut [u32]) {
    let l = row.len() as u32;
    debug_assert!(l <= palette_size);
    if l == palette_size {
        for (i, slot) in row.iter_mut().enumerate() {
            *slot = i as u32;
        }
        return;
    }
    if (l as u64) * 4 >= palette_size as u64 {
        // Dense: partial Fisher–Yates over the whole palette.
        let mut scratch: Vec<u32> = (0..palette_size).collect();
        for i in 0..l as usize {
            let j = rng.random_range(i..palette_size as usize);
            scratch.swap(i, j);
        }
        row.copy_from_slice(&scratch[..l as usize]);
        return;
    }
    // Sparse: Floyd's algorithm, expected O(L) membership probes.
    let mut chosen: Vec<u32> = Vec::with_capacity(l as usize);
    for k in (palette_size - l)..palette_size {
        let t = rng.random_range(0..=k);
        if chosen.contains(&t) {
            chosen.push(k);
        } else {
            chosen.push(t);
        }
    }
    row.copy_from_slice(&chosen);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_are_sorted_distinct_in_palette() {
        let lists = ColorLists::assign(100, 50, 40, 8, 7, 1);
        assert_eq!(lists.len(), 100);
        assert_eq!(lists.list_size(), 8);
        for v in 0..100 {
            let row = lists.row(v);
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "row {v} not sorted-distinct"
            );
            assert!(
                row.iter().all(|&c| (50..90).contains(&c)),
                "row {v} out of palette"
            );
        }
    }

    #[test]
    fn full_palette_when_list_size_exceeds_palette() {
        let lists = ColorLists::assign(10, 0, 5, 30, 1, 0);
        assert_eq!(lists.list_size(), 5);
        for v in 0..10 {
            assert_eq!(lists.row(v), &[0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn deterministic_per_seed_and_iteration() {
        let a = ColorLists::assign(50, 0, 100, 10, 3, 2);
        let b = ColorLists::assign(50, 0, 100, 10, 3, 2);
        assert_eq!(a.colors, b.colors);
        let c = ColorLists::assign(50, 0, 100, 10, 3, 3);
        assert_ne!(a.colors, c.colors, "different iteration must reshuffle");
        let d = ColorLists::assign(50, 0, 100, 10, 4, 2);
        assert_ne!(a.colors, d.colors, "different seed must reshuffle");
    }

    #[test]
    fn intersects_agrees_with_set_intersection() {
        let lists = ColorLists::assign(60, 0, 30, 6, 11, 0);
        for u in 0..60 {
            for v in 0..60 {
                let su: std::collections::HashSet<u32> = lists.row(u).iter().copied().collect();
                let truth = lists.row(v).iter().any(|c| su.contains(c));
                assert_eq!(lists.intersects(u, v), truth, "({u},{v})");
            }
        }
    }

    #[test]
    fn self_intersection_always_true() {
        let lists = ColorLists::assign(5, 10, 20, 4, 1, 0);
        for v in 0..5 {
            assert!(lists.intersects(v, v));
        }
    }

    #[test]
    #[should_panic(expected = "list_size must be >= 1")]
    fn zero_list_size_is_rejected_not_clamped() {
        // Regression: list_size = 0 used to be silently bumped to 1.
        let _ = ColorLists::assign(10, 0, 4, 0, 1, 0);
    }

    #[test]
    fn palette_metadata_is_recorded() {
        let lists = ColorLists::assign(20, 100, 16, 4, 3, 2);
        assert_eq!(lists.palette_base(), 100);
        assert_eq!(lists.palette_size(), 16);
    }

    #[test]
    fn first_common_is_smallest_shared_color() {
        let lists = ColorLists::assign(80, 7, 25, 6, 13, 1);
        for u in 0..80 {
            for v in 0..80 {
                let expected = lists
                    .row(u)
                    .iter()
                    .find(|c| lists.row(v).contains(c))
                    .copied();
                assert_eq!(lists.first_common(u, v), expected, "({u},{v})");
                assert_eq!(lists.intersects(u, v), expected.is_some());
            }
        }
    }

    #[test]
    fn bucket_index_inverts_the_lists_exactly() {
        let lists = ColorLists::assign(120, 40, 30, 5, 9, 4);
        let index = lists.bucket_index();
        assert_eq!(index.num_buckets(), 30);
        // Every (vertex, color) membership appears in exactly one bucket
        // slot, and buckets are ascending.
        let mut total = 0usize;
        for k in 0..index.num_buckets() {
            let bucket = index.bucket(k);
            total += bucket.len();
            assert!(
                bucket.windows(2).all(|w| w[0] < w[1]),
                "bucket {k} not ascending"
            );
            for &v in bucket {
                assert!(
                    lists.row(v as usize).contains(&index.color(k)),
                    "vertex {v} not holding color {}",
                    index.color(k)
                );
            }
        }
        assert_eq!(total, 120 * 5);
        // Pair accounting matches the closed form.
        let by_hand: u64 = (0..index.num_buckets())
            .map(|k| {
                let s = index.bucket(k).len() as u64;
                s * s.saturating_sub(1) / 2
            })
            .sum();
        assert_eq!(index.total_pairs(), by_hand);
        assert_eq!(lists.bucket_pair_total(), by_hand, "histogram shortcut");
        assert!(index.device_bytes() >= total * 4);
    }

    #[test]
    fn bucket_index_handles_empty_input() {
        let lists = ColorLists::assign(0, 0, 8, 3, 1, 0);
        let index = lists.bucket_index();
        assert_eq!(index.num_buckets(), 8);
        assert_eq!(index.total_pairs(), 0);
        assert!((0..8).all(|k| index.bucket(k).is_empty()));
    }

    #[test]
    fn reassign_matches_assign_and_reuses_the_buffer() {
        let mut reused = ColorLists::empty();
        // Grow once, then reassign at equal-or-smaller sizes: contents
        // must match a fresh assign exactly and the buffer must not grow.
        reused.reassign(200, 0, 40, 6, 9, 1);
        let cap = reused.colors.capacity();
        for (n, base, palette, list, iter) in [
            (200usize, 10u32, 40u32, 6u32, 2u64),
            (150, 50, 30, 5, 3),
            (40, 80, 8, 4, 4),
        ] {
            reused.reassign(n, base, palette, list, 9, iter);
            let fresh = ColorLists::assign(n, base, palette, list, 9, iter);
            assert_eq!(reused.colors, fresh.colors, "n={n} iter={iter}");
            assert_eq!(reused.len(), fresh.len());
            assert_eq!(reused.list_size(), fresh.list_size());
            assert_eq!(reused.palette_base(), fresh.palette_base());
            assert_eq!(reused.colors.capacity(), cap, "buffer must be reused");
        }
    }

    #[test]
    fn bucket_index_into_reuses_storage() {
        let a = ColorLists::assign(100, 0, 25, 4, 3, 1);
        let b = ColorLists::assign(80, 5, 20, 3, 4, 2);
        let mut reused = a.bucket_index();
        let caps = (reused.offsets.capacity(), reused.vertices.capacity());
        b.bucket_index_into(&mut reused);
        let fresh = b.bucket_index();
        assert_eq!(reused.num_buckets(), fresh.num_buckets());
        for k in 0..fresh.num_buckets() {
            assert_eq!(reused.bucket(k), fresh.bucket(k), "bucket {k}");
            assert_eq!(reused.color(k), fresh.color(k));
        }
        assert_eq!(
            (reused.offsets.capacity(), reused.vertices.capacity()),
            caps,
            "index storage must be reused"
        );
    }

    #[test]
    fn bucket_load_summarizes_the_histogram() {
        let lists = ColorLists::assign(150, 7, 30, 5, 11, 2);
        let load = lists.bucket_load();
        let index = lists.bucket_index();
        assert_eq!(load.total_pairs, index.total_pairs());
        let max = (0..index.num_buckets())
            .map(|k| index.bucket(k).len())
            .max()
            .unwrap();
        assert_eq!(load.max_bucket, max);
        let active = (0..index.num_buckets())
            .filter(|&k| index.bucket(k).len() >= 2)
            .count();
        assert_eq!(load.active_buckets, active);
        // Degenerate empty input.
        assert_eq!(ColorLists::empty().bucket_load(), BucketLoad::default());
    }

    #[test]
    fn row_bucket_locates_every_flat_row() {
        let lists = ColorLists::assign(60, 3, 17, 4, 5, 1);
        let index = lists.bucket_index();
        assert_eq!(index.num_rows(), 60 * 4);
        let mut r = 0usize;
        for k in 0..index.num_buckets() {
            for _ in 0..index.bucket(k).len() {
                assert_eq!(index.row_bucket(r), k, "row {r}");
                r += 1;
            }
        }
        assert_eq!(r, index.num_rows());
    }

    #[test]
    fn uniformity_rough_check() {
        // Each of 20 colors should be picked by roughly L/P of 2000
        // vertices: expect 2000 * 5/20 = 500 each, allow wide slack.
        let lists = ColorLists::assign(2000, 0, 20, 5, 99, 0);
        let mut counts = [0usize; 20];
        for v in 0..2000 {
            for &c in lists.row(v) {
                counts[c as usize] += 1;
            }
        }
        for (c, &k) in counts.iter().enumerate() {
            assert!((350..650).contains(&k), "color {c} count {k} far from 500");
        }
    }
}
