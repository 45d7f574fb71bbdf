//! The bucket-major **packed oracle replica** feeding the SIMD-shaped
//! conflict kernels.
//!
//! The scalar block path ([`graph::EdgeOracle::has_edge_block_scratch`])
//! amortizes the pivot load but still *gathers* each candidate row
//! through an index indirection, one row at a time. The packed replica
//! removes the gather: when an oracle exposes an AND-popcount form
//! ([`graph::PackedOracleForm`] — the Pauli complement oracle over
//! either packed encoding does), the iteration context lays the **key**
//! words of every bucket's members out contiguously, in word-transposed
//! SoA order, next to a row-major **query** table:
//!
//! ```text
//! keys  (per bucket k, B = |B_k| lanes):  [w0·lane0 w0·lane1 … w0·laneB-1  w1·lane0 …]
//! query (per local vertex u):             [u·w0 u·w1 …]
//! ```
//!
//! A pivot's scan of its bucket tail is then `query_word &
//! keys[w][lane]` over contiguous `u64` lanes — straight-line,
//! autovectorizable, no per-row indirection; 21 Pauli operators per
//! word-lane for the 3-bit code.
//!
//! The kernel's output is a **hit mask**: one `u64` word per 64 tail
//! lanes, bit `t % 64` of word `t / 64` set exactly when tail candidate
//! `t` is an edge ([`PackedBuckets::tail_edge_mask`]). The parity
//! polarity of the oracle's form is folded into the mask, so consumers
//! skip entire zero words and walk set bits with `trailing_zeros` —
//! the anticommutation graph gets *sparser* as the palette grows, and
//! the consumer's cost now tracks the hit count instead of the
//! candidate count. The smallest-shared-color deduplication filter runs
//! only on surviving bits, so the `O(L)` list merge is paid on hits
//! instead of on every candidate.
//!
//! **All-pairs is one bucket.** When the candidate engine falls back to
//! the all-pairs scan, the replica takes the *identity layout*: a single
//! bucket holding every live vertex in order (`num_rows = m`, lane `v`
//! = local vertex `v`, keys at `keys[w_i·m + v]`). Row `i`'s tail is then
//! vertices `i+1..m`, and the same kernel, zero-word skip and palette
//! filter serve both engines — the all-pairs consumer keeps a hit iff
//! the two lists share any palette color.
//!
//! The replica is built at most once per iteration, into a persistent
//! arena owned by the [`IterationContext`](crate::IterationContext)
//! (the `pack_builds` counter pins the contract), and is **skipped**
//! when the oracle has no packed form or — in [`PackingMode::Auto`] —
//! when the iteration's candidate pairs are fewer than the key words
//! the packing pass writes (`pairs < key_rows·w`, with `key_rows = N·L`
//! for the bucketed engine and `N` for all-pairs, counted from the
//! pre-oracle bucket histogram, so the decision is a pure function of
//! the lists).

use crate::assign::{BucketIndex, ColorLists};
use graph::EdgeOracle;
use rayon::prelude::*;

/// Whether (and when) the iteration context builds the packed replica.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PackingMode {
    /// Pack whenever the oracle has a packed form and the iteration's
    /// candidate pairs are at least the key words the packing pass
    /// writes (`pairs ≥ key_rows·w`; `key_rows` is `N·L` for the
    /// bucketed engine, `N` for all-pairs) — the default.
    #[default]
    Auto,
    /// Pack whenever the oracle has a packed form, for either engine and
    /// however small the iteration (equivalence suites).
    Always,
    /// Never pack: every backend takes the scalar block path (the bench
    /// baseline and an escape hatch).
    Never,
}

/// Counters of one mask-kernel consumer pass: how many hit-mask words
/// were scanned, how many of them were skipped as all-zero, and how
/// many set bits (oracle hits, pre-deduplication) were walked. The
/// builders aggregate these across tasks into
/// [`ConflictBuild`](crate::ConflictBuild) and the solver surfaces them
/// per iteration as the lane-occupancy signal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaskScanStats {
    /// Set bits walked (oracle hits before smallest-shared-color dedup).
    pub hit_bits: u64,
    /// Hit-mask words examined in total.
    pub scanned_words: u64,
    /// Of those, words skipped whole because they were zero.
    pub skipped_words: u64,
}

/// The packed, bucket-major oracle replica of one iteration (see the
/// module docs for the layout).
#[derive(Debug, Default)]
pub struct PackedBuckets {
    words: usize,
    odd_means_edge: bool,
    num_rows: usize,
    num_vertices: usize,
    /// Word-transposed key lanes: bucket `k` starting at flat row `o`
    /// with `B` members occupies `keys[o·w ..][w_i·B + lane]`.
    keys: Vec<u64>,
    /// Row-major query words of every local vertex.
    query: Vec<u64>,
    /// `u64` words per per-vertex palette bitmask.
    color_words: usize,
    /// Per-vertex palette bitmask (bit `k` set ⟺ the vertex's list
    /// holds palette color `k`). Turns the smallest-shared-color
    /// deduplication test into a handful of word ANDs
    /// ([`PackedBuckets::shares_color_below`]) instead of the `O(L)`
    /// sorted-merge the scalar path pays per candidate.
    color_masks: Vec<u64>,
    /// Staging rows for the word-transposed scatter (multi-word forms),
    /// `w` words per scatter task.
    tmp: Vec<u64>,
}

impl PackedBuckets {
    /// An empty arena; storage fills on the first pack and persists.
    pub fn new() -> PackedBuckets {
        PackedBuckets::default()
    }

    /// (Re)builds the replica for `oracle` over `lists` and their
    /// `index` (`None`: the all-pairs identity layout), reusing this
    /// arena's storage. Returns `false` — leaving the replica inactive —
    /// when the oracle has no packed form.
    ///
    /// This serial pass is the one the sequential backend uses: it
    /// allocates nothing once the arena is warm, which
    /// `tests/memory.rs` pins at exactly zero heap allocations.
    pub fn pack_from<O: EdgeOracle + ?Sized>(
        &mut self,
        oracle: &O,
        lists: &ColorLists,
        index: Option<&BucketIndex>,
    ) -> bool {
        self.pack_impl(oracle, lists, index, 1)
    }

    /// [`PackedBuckets::pack_from`], with the key scatter cut into
    /// `4 × threads` contiguous bucket ranges, one rayon task each (each
    /// task owns a disjoint slice of the flat key rows, so the writes
    /// never overlap). The parallel backends use this. The identity
    /// layout is one bucket, so its `O(m·w)` scatter runs as one task.
    pub fn pack_from_parallel<O: EdgeOracle + ?Sized>(
        &mut self,
        oracle: &O,
        lists: &ColorLists,
        index: Option<&BucketIndex>,
    ) -> bool {
        self.pack_impl(oracle, lists, index, rayon::current_num_threads() * 4)
    }

    fn pack_impl<O: EdgeOracle + ?Sized>(
        &mut self,
        oracle: &O,
        lists: &ColorLists,
        index: Option<&BucketIndex>,
        tasks: usize,
    ) -> bool {
        let Some(form) = oracle.packed_form() else {
            return false;
        };
        let w = form.words.max(1);
        let m = oracle.num_vertices();
        debug_assert_eq!(m, lists.len());
        self.words = w;
        self.odd_means_edge = form.odd_means_edge;
        self.num_rows = index.map_or(m, BucketIndex::num_rows);
        self.num_vertices = m;
        self.query.clear();
        self.query.resize(m * w, 0);
        for u in 0..m {
            oracle.write_query_words(u, &mut self.query[u * w..(u + 1) * w]);
        }
        // Palette bitmasks: one bit per palette color per vertex.
        let cw = (lists.palette_size() as usize).div_ceil(64).max(1);
        let base = lists.palette_base();
        self.color_words = cw;
        self.color_masks.clear();
        self.color_masks.resize(m * cw, 0);
        for v in 0..m {
            for &c in lists.row(v) {
                let k = (c - base) as usize;
                self.color_masks[v * cw + k / 64] |= 1u64 << (k % 64);
            }
        }
        self.keys.clear();
        self.keys.resize(self.num_rows * w, 0);
        self.scatter_keys(oracle, index, tasks);
        true
    }

    /// The key scatter, bucket by bucket — or, without an index, the
    /// all-pairs identity layout: one bucket of all `m` local vertices in
    /// order, word-transposed as `keys[w_i·m + v]`. The buckets are cut
    /// into at most `tasks` contiguous ranges, one rayon task each, with
    /// `w` words of the staging arena apiece; one range runs inline.
    fn scatter_keys<O: EdgeOracle + ?Sized>(
        &mut self,
        oracle: &O,
        index: Option<&BucketIndex>,
        tasks: usize,
    ) {
        let (w, m) = (self.words, self.num_vertices);
        let buckets = index.map_or(1, BucketIndex::num_buckets);
        let tasks = tasks.clamp(1, buckets.max(1));
        // The first key word of bucket `k` (the end for `k` = `buckets`).
        let start = |k: usize| index.map_or(k * m, |index| index.bucket_start(k)) * w;
        let ranges = (0..tasks).map(|t| buckets * t / tasks..buckets * (t + 1) / tasks);
        self.tmp.clear();
        self.tmp.resize(tasks * w, 0);
        let keys = crate::split_ranges_mut(
            &mut self.keys,
            ranges.clone().map(|r| start(r.start)..start(r.end)),
        );
        keys.zip(self.tmp.chunks_mut(w))
            .zip(ranges)
            .par_bridge()
            .for_each(|((keys, tmp), range)| {
                let base = start(range.start);
                for k in range {
                    let keys = &mut keys[start(k) - base..start(k + 1) - base];
                    match index {
                        Some(index) => {
                            let bucket = index.bucket(k).iter().map(|&v| v as usize);
                            scatter_bucket(oracle, keys, bucket, tmp)
                        }
                        None => scatter_bucket(oracle, keys, 0..m, tmp),
                    }
                }
            });
    }

    /// Words per packed row.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Flat key rows currently packed: `Σ_c |B_c| = N·L` for a bucketed
    /// layout, `N` for the all-pairs identity layout.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Bytes a full device replica of this packing holds: every key
    /// lane, every query row, and the per-vertex palette bitmasks, as
    /// `u64` words. This is what Algorithm 3 charges **instead of** the
    /// raw encoded set when the packed kernel runs — the replica *is*
    /// the kernel's input. Single-device builds upload all of it;
    /// sub-bucket spans charge [`PackedBuckets::device_bytes_for_span`].
    pub fn device_bytes(&self) -> usize {
        (self.keys.len() + self.query.len() + self.color_masks.len()) * std::mem::size_of::<u64>()
    }

    /// Bytes the replica slice serving flat-row span `span` actually
    /// uploads to one device: the key lanes from the span's first pivot
    /// row through the end of the last bucket it touches (a pivot scans
    /// its whole bucket tail), one query row per pivot in the span, and
    /// the palette bitmasks of the touched buckets' members. `index` is
    /// the layout the replica was packed with: `None` (all-pairs) is one
    /// bucket of all `m` vertices, so a span charges key rows
    /// `span.start..m`, `span.len()` query rows and all `m` bitmasks.
    /// Always `≤ device_bytes()`, and equal to it for the full-row span —
    /// so a fleet of one charges the whole replica while narrow spans
    /// stop charging all `m` query rows.
    pub fn device_bytes_for_span(
        &self,
        index: Option<&BucketIndex>,
        span: std::ops::Range<usize>,
    ) -> usize {
        if span.is_empty() {
            return 0;
        }
        debug_assert!(span.end <= self.num_rows);
        let (touched_start, touched_end) = match index {
            Some(index) => {
                debug_assert_eq!(index.num_rows(), self.num_rows);
                let first = index.row_bucket(span.start);
                let last = index.row_bucket(span.end - 1);
                (index.bucket_start(first), index.bucket_start(last + 1))
            }
            None => (0, self.num_rows),
        };
        let key_rows = touched_end - span.start;
        let query_rows = span.len().min(self.num_vertices);
        let mask_rows = (touched_end - touched_start).min(self.num_vertices);
        (key_rows * self.words + query_rows * self.words + mask_rows * self.color_words)
            * std::mem::size_of::<u64>()
    }

    /// Debug-build guard for the iteration context's replica cache:
    /// whether `oracle` is plausibly the oracle this replica was packed
    /// from, checked by re-deriving the first and last query rows and
    /// comparing them to the packed table. Cheap (two `write_query_words`
    /// calls), and catches the practical misuse — swapping oracles
    /// between builds of one iteration without reassigning the lists.
    #[cfg(debug_assertions)]
    pub(crate) fn probe_matches<O: EdgeOracle + ?Sized>(&mut self, oracle: &O) -> bool {
        if oracle.num_vertices() != self.num_vertices {
            return false;
        }
        if oracle.packed_form().map(|f| f.words.max(1)) != Some(self.words) {
            return false;
        }
        if self.num_vertices == 0 {
            return true;
        }
        let w = self.words;
        let mut tmp = std::mem::take(&mut self.tmp);
        tmp.clear();
        tmp.resize(w, 0);
        let mut ok = true;
        for r in [0, self.num_vertices - 1] {
            oracle.write_query_words(r, &mut tmp);
            ok &= tmp[..] == self.query[r * w..(r + 1) * w];
        }
        self.tmp = tmp;
        ok
    }

    /// Whether vertices `u` and `v` share a palette color with index
    /// **strictly below** `k` — the packed form of the
    /// smallest-shared-color deduplication test: a pair met in bucket
    /// `k` (so they share color `k`) is emitted from bucket `k` exactly
    /// when this is false. A couple of word ANDs against the bitmasks
    /// replaces the scalar path's `O(L)` sorted-merge per candidate.
    #[inline]
    pub fn shares_color_below(&self, u: usize, v: usize, k: usize) -> bool {
        let cw = self.color_words;
        let a = &self.color_masks[u * cw..(u + 1) * cw];
        let b = &self.color_masks[v * cw..(v + 1) * cw];
        let full = k / 64;
        for w in 0..full {
            if a[w] & b[w] != 0 {
                return true;
            }
        }
        let rem = k % 64;
        rem != 0 && (a[full] & b[full] & ((1u64 << rem) - 1)) != 0
    }

    /// The hit-mask kernel: edge bits of pivot `pivot` (local vertex
    /// id, sitting at position `pos` of the bucket starting at flat row
    /// `bucket_start` with `bucket_len` members) against the **whole
    /// bucket tail** `pos+1..bucket_len`, packed 64 lanes per `u64`
    /// into `masks` — bit `t % 64` of word `t / 64` set ⟺ tail
    /// candidate `t` is an edge, with the form's parity polarity and
    /// the partial-word masking already folded in. One-word forms take
    /// `AND`+parity per lane; wider forms XOR-accumulate the per-word
    /// `AND`s first (`popcount(x ⊕ y) ≡ popcount(x) + popcount(y)
    /// (mod 2)`), so the parity fold is paid once per lane, not per
    /// word. The parity itself uses the `POPCNT` instruction when the
    /// CPU has it and a bitsliced 8-lane fold otherwise.
    pub fn tail_edge_mask(
        &self,
        bucket_start: usize,
        bucket_len: usize,
        pos: usize,
        pivot: usize,
        masks: &mut Vec<u64>,
    ) {
        debug_assert!(pos < bucket_len);
        debug_assert!(pivot < self.num_vertices);
        let w = self.words;
        let tail = bucket_len - pos - 1;
        let base = bucket_start * w;
        masks.clear();
        if tail == 0 {
            return;
        }
        let use_popcnt = have_popcnt();
        if w == 1 {
            let qw = self.query[pivot];
            let keys = &self.keys[base + pos + 1..base + bucket_len];
            for chunk in keys.chunks(64) {
                let word = if use_popcnt {
                    // SAFETY: guarded by runtime POPCNT detection.
                    unsafe { popcnt::mask_word_1(qw, chunk) }
                } else {
                    mask_word_1_portable(qw, chunk)
                };
                masks.push(word);
            }
        } else {
            let q = &self.query[pivot * w..(pivot + 1) * w];
            let mut t = 0usize;
            let mut acc = [0u64; 64];
            while t < tail {
                let c = 64.min(tail - t);
                acc[..c].fill(0);
                for (wi, &qw) in q.iter().enumerate() {
                    let keys = &self.keys[base + wi * bucket_len + pos + 1 + t..][..c];
                    for (a, &kw) in acc[..c].iter_mut().zip(keys) {
                        *a ^= qw & kw;
                    }
                }
                let word = if use_popcnt {
                    // SAFETY: guarded by runtime POPCNT detection.
                    unsafe { popcnt::mask_word_acc(&acc[..c]) }
                } else {
                    mask_word_acc_portable(&acc[..c])
                };
                masks.push(word);
                t += c;
            }
        }
        if !self.odd_means_edge {
            for word in masks.iter_mut() {
                *word = !*word;
            }
        }
        // Clear the bits past the tail in the (possibly partial) last
        // word: the inversion above sets them, and consumers index the
        // bucket by set-bit position.
        let rem = tail % 64;
        if rem != 0 {
            if let Some(last) = masks.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// Writes the key words of one bucket's `members` into its key slice
/// `keys` (`members.len() · w` words), word-transposed: word `w_i` of
/// lane `lane` lands at `keys[w_i·B + lane]`. `tmp` is `w` words of
/// staging for multi-word forms.
fn scatter_bucket<O: EdgeOracle + ?Sized>(
    oracle: &O,
    keys: &mut [u64],
    members: impl ExactSizeIterator<Item = usize>,
    tmp: &mut [u64],
) {
    let b = members.len();
    for (lane, v) in members.enumerate() {
        if tmp.len() == 1 {
            oracle.write_key_words(v, &mut keys[lane..lane + 1]);
        } else {
            oracle.write_key_words(v, tmp);
            for (wi, &word) in tmp.iter().enumerate() {
                keys[wi * b + lane] = word;
            }
        }
    }
}

/// Whether the running CPU has the `POPCNT` instruction. The workspace
/// builds for baseline x86-64, where `count_ones` lowers to a ~15-op
/// SWAR sequence; the detected fast path cuts that to one instruction
/// per lane. The detection macro caches internally.
#[inline]
fn have_popcnt() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod popcnt {
    //! `POPCNT`-enabled parity folds. Inside these feature-gated
    //! functions `count_ones` compiles to the hardware instruction.

    /// One mask word for up to 64 single-word lanes.
    ///
    /// # Safety
    /// Caller must have verified the CPU supports `POPCNT`.
    #[target_feature(enable = "popcnt")]
    pub unsafe fn mask_word_1(qw: u64, keys: &[u64]) -> u64 {
        debug_assert!(keys.len() <= 64);
        let mut word = 0u64;
        for (t, &kw) in keys.iter().enumerate() {
            word |= (((qw & kw).count_ones() & 1) as u64) << t;
        }
        word
    }

    /// One mask word from up to 64 XOR-accumulated lane words.
    ///
    /// # Safety
    /// Caller must have verified the CPU supports `POPCNT`.
    #[target_feature(enable = "popcnt")]
    pub unsafe fn mask_word_acc(accs: &[u64]) -> u64 {
        debug_assert!(accs.len() <= 64);
        let mut word = 0u64;
        for (t, &x) in accs.iter().enumerate() {
            word |= ((x.count_ones() & 1) as u64) << t;
        }
        word
    }
}

/// Portable parity fold of 8 lane words into 8 mask bits, bitsliced:
/// each lane's word folds to a byte (`x ^= x>>32; ^=>>16; ^=>>8`), the
/// 8 bytes pack into one `u64`, three more folds leave the parity in
/// bit 0 of each byte, and a carry-free multiply gathers those 8 bits
/// into the top byte (each product bit receives at most one
/// contribution, so no carries corrupt it).
#[inline]
fn parity_bits_8(accs: &[u64; 8]) -> u64 {
    let mut sliced = 0u64;
    for (i, &lane) in accs.iter().enumerate() {
        let mut x = lane;
        x ^= x >> 32;
        x ^= x >> 16;
        x ^= x >> 8;
        sliced |= (x & 0xff) << (i * 8);
    }
    sliced ^= sliced >> 4;
    sliced ^= sliced >> 2;
    sliced ^= sliced >> 1;
    ((sliced & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080)) >> 56
}

/// Portable single-word mask kernel for up to 64 lanes.
fn mask_word_1_portable(qw: u64, keys: &[u64]) -> u64 {
    debug_assert!(keys.len() <= 64);
    let mut word = 0u64;
    for (g, sub) in keys.chunks(8).enumerate() {
        let mut eight = [0u64; 8];
        for (slot, &kw) in eight.iter_mut().zip(sub) {
            *slot = qw & kw;
        }
        word |= parity_bits_8(&eight) << (g * 8);
    }
    word
}

/// Portable parity fold of up to 64 XOR-accumulated lane words.
fn mask_word_acc_portable(accs: &[u64]) -> u64 {
    debug_assert!(accs.len() <= 64);
    let mut word = 0u64;
    for (g, sub) in accs.chunks(8).enumerate() {
        let mut eight = [0u64; 8];
        eight[..sub.len()].copy_from_slice(sub);
        word |= parity_bits_8(&eight) << (g * 8);
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::ColorLists;
    use crate::oracle::{LiveView, PauliComplementOracle};
    use graph::ComplementView;
    use pauli::{EncodedSet, PauliString, SymplecticSet};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn strings(n: usize, qubits: usize, seed: u64) -> Vec<PauliString> {
        // Duplicates allowed: tiny registers (1 qubit = 4 possible
        // strings) are exactly the degenerate case the packed kernel
        // must still agree on.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| PauliString::random(qubits, &mut rng))
            .collect()
    }

    fn check_matches_scalar<O: EdgeOracle>(oracle: &O, lists: &ColorLists) {
        let index = lists.bucket_index();
        let mut packed = PackedBuckets::new();
        assert!(
            packed.pack_from(oracle, lists, Some(&index)),
            "oracle must be packable"
        );
        assert_eq!(packed.num_rows(), index.num_rows());
        let mut masks = Vec::new();
        for k in 0..index.num_buckets() {
            let bucket = index.bucket(k);
            let start = index.bucket_start(k);
            for (a, &u) in bucket.iter().enumerate() {
                let tail = bucket.len() - a - 1;
                packed.tail_edge_mask(start, bucket.len(), a, u as usize, &mut masks);
                assert_eq!(masks.len(), tail.div_ceil(64));
                for t in 0..tail {
                    let v = bucket[a + 1 + t] as usize;
                    assert_eq!(
                        masks[t / 64] >> (t % 64) & 1 == 1,
                        oracle.has_edge(u as usize, v),
                        "bucket {k} pivot {u} vs {v}"
                    );
                }
                // No garbage past the tail in the partial last word.
                if !tail.is_multiple_of(64) {
                    assert_eq!(masks[tail / 64] & !((1u64 << (tail % 64)) - 1), 0);
                }
            }
        }
    }

    /// The all-pairs identity layout: row `i`'s tail is `i+1..m`, and
    /// the serial and parallel packs write the same replica.
    fn check_identity_matches_scalar<O: EdgeOracle>(oracle: &O, lists: &ColorLists) {
        let m = lists.len();
        let mut packed = PackedBuckets::new();
        assert!(packed.pack_from(oracle, lists, None));
        assert_eq!(packed.num_rows(), m);
        let mut parallel = PackedBuckets::new();
        assert!(parallel.pack_from_parallel(oracle, lists, None));
        assert_eq!(packed.keys, parallel.keys);
        let mut masks = Vec::new();
        for i in 0..m {
            packed.tail_edge_mask(0, m, i, i, &mut masks);
            assert_eq!(masks.len(), (m - i - 1).div_ceil(64));
            for t in 0..m - i - 1 {
                assert_eq!(
                    masks[t / 64] >> (t % 64) & 1 == 1,
                    oracle.has_edge(i, i + 1 + t),
                    "identity pivot {i} vs {}",
                    i + 1 + t
                );
            }
        }
    }

    #[test]
    fn identity_layout_matches_the_scalar_oracle() {
        // One-word, multi-word 3-bit and symplectic forms, plus a live
        // view (the solver's oracle shape after iteration 1).
        for qubits in [1usize, 8, 30] {
            let ss = strings(90, qubits, 4);
            let lists = ColorLists::assign(90, 0, 6, 5, 5, 1);
            let enc = EncodedSet::from_strings(&ss);
            check_identity_matches_scalar(&PauliComplementOracle::new(&enc), &lists);
            let sym = SymplecticSet::from_strings(&ss);
            check_identity_matches_scalar(&PauliComplementOracle::new(&sym), &lists);
        }
        let ss = strings(140, 10, 8);
        let enc = EncodedSet::from_strings(&ss);
        let inner = PauliComplementOracle::new(&enc);
        let live: Vec<u32> = (0..70u32).map(|i| i * 2 + 1).collect();
        let lists = ColorLists::assign(70, 0, 4, 4, 9, 2);
        check_identity_matches_scalar(&LiveView::new(&inner, &live), &lists);
        check_identity_matches_scalar(
            &ComplementView::new(&inner),
            &ColorLists::assign(140, 0, 3, 3, 1, 1),
        );
    }

    #[test]
    fn identity_span_charges_cover_the_tail_rows() {
        let ss = strings(100, 12, 13);
        let enc = EncodedSet::from_strings(&ss);
        let oracle = PauliComplementOracle::new(&enc);
        let lists = ColorLists::assign(100, 0, 8, 6, 3, 1);
        let mut packed = PackedBuckets::new();
        assert!(packed.pack_from(&oracle, &lists, None));
        // 100 key rows + 100 query rows + 100 one-word bitmasks.
        assert_eq!(packed.device_bytes(), 300 * 8);
        assert_eq!(
            packed.device_bytes_for_span(None, 0..100),
            packed.device_bytes()
        );
        assert_eq!(packed.device_bytes_for_span(None, 0..0), 0);
        // Rows 40..60 read key rows 40..100, 20 query rows, 100 bitmasks.
        assert_eq!(
            packed.device_bytes_for_span(None, 40..60),
            (60 + 20 + 100) * 8
        );
    }

    #[test]
    fn packed_kernel_matches_the_scalar_oracle_both_encodings() {
        // One-word (3-bit, ≤21 qubits), multi-word (3-bit, >21 qubits),
        // and the symplectic form (always ≥2 words).
        for qubits in [1usize, 8, 30] {
            let ss = strings(60, qubits, 3);
            let lists = ColorLists::assign(60, 0, 12, 3, 5, 1);
            let enc = EncodedSet::from_strings(&ss);
            check_matches_scalar(&PauliComplementOracle::new(&enc), &lists);
            let sym = SymplecticSet::from_strings(&ss);
            check_matches_scalar(&PauliComplementOracle::new(&sym), &lists);
        }
    }

    #[test]
    fn mask_kernel_covers_both_parity_polarities() {
        // ComplementView flips `odd_means_edge`, so the mask inversion
        // path (and its partial-last-word masking) gets exercised on
        // whichever polarity the Pauli oracle did not use.
        let ss = strings(70, 9, 21);
        let enc = EncodedSet::from_strings(&ss);
        let inner = PauliComplementOracle::new(&enc);
        let lists = ColorLists::assign(70, 0, 10, 3, 13, 1);
        check_matches_scalar(&inner, &lists);
        check_matches_scalar(&ComplementView::new(&inner), &lists);
    }

    #[test]
    fn packed_kernel_matches_through_a_live_view() {
        let ss = strings(80, 10, 7);
        let enc = EncodedSet::from_strings(&ss);
        let inner = PauliComplementOracle::new(&enc);
        let live: Vec<u32> = (0..40u32).map(|i| i * 2).collect();
        let view = LiveView::new(&inner, &live);
        let lists = ColorLists::assign(40, 0, 10, 3, 9, 2);
        check_matches_scalar(&view, &lists);
    }

    #[test]
    fn parallel_pack_matches_the_serial_pass() {
        for qubits in [8usize, 30, 70] {
            let ss = strings(120, qubits, 17);
            let enc = EncodedSet::from_strings(&ss);
            let oracle = PauliComplementOracle::new(&enc);
            let lists = ColorLists::assign(120, 0, 18, 4, 5, 1);
            let index = lists.bucket_index();
            let mut serial = PackedBuckets::new();
            let mut parallel = PackedBuckets::new();
            assert!(serial.pack_from(&oracle, &lists, Some(&index)));
            assert!(parallel.pack_from_parallel(&oracle, &lists, Some(&index)));
            assert_eq!(serial.keys, parallel.keys, "{qubits} qubits");
            assert_eq!(serial.query, parallel.query);
            assert_eq!(serial.color_masks, parallel.color_masks);
        }
    }

    #[test]
    fn portable_parity_folds_match_a_naive_popcount() {
        let mut rng = StdRng::seed_from_u64(5);
        for len in [1usize, 7, 8, 9, 63, 64] {
            let qw: u64 = rng.next_u64();
            let keys: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let word = mask_word_1_portable(qw, &keys);
            for (t, &kw) in keys.iter().enumerate() {
                let expect = (qw & kw).count_ones() & 1 == 1;
                assert_eq!(word >> t & 1 == 1, expect, "len {len} lane {t}");
            }
            assert_eq!(word & !ones(len), 0, "bits past lane {len} must be 0");
            let accs: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let word = mask_word_acc_portable(&accs);
            for (t, &x) in accs.iter().enumerate() {
                assert_eq!(word >> t & 1, (x.count_ones() & 1) as u64);
            }
            if have_popcnt() {
                // SAFETY: just detected.
                unsafe {
                    assert_eq!(
                        popcnt::mask_word_1(qw, &keys),
                        mask_word_1_portable(qw, &keys)
                    );
                    assert_eq!(popcnt::mask_word_acc(&accs), mask_word_acc_portable(&accs));
                }
            }
        }
    }

    fn ones(n: usize) -> u64 {
        if n >= 64 {
            !0
        } else {
            (1u64 << n) - 1
        }
    }

    #[test]
    fn unpackable_oracles_are_declined() {
        let lists = ColorLists::assign(20, 0, 5, 2, 1, 1);
        let index = lists.bucket_index();
        let oracle = graph::FnOracle::new(20, |u, v| (u + v) % 2 == 0);
        let mut packed = PackedBuckets::new();
        assert!(!packed.pack_from(&oracle, &lists, Some(&index)));
        assert!(!packed.pack_from_parallel(&oracle, &lists, Some(&index)));
    }

    #[test]
    fn repacking_reuses_the_arena() {
        let ss = strings(100, 12, 11);
        let enc = EncodedSet::from_strings(&ss);
        let oracle = PauliComplementOracle::new(&enc);
        let mut packed = PackedBuckets::new();
        let big = ColorLists::assign(100, 0, 20, 4, 3, 1);
        assert!(packed.pack_from(&oracle, &big, Some(&big.bucket_index())));
        let caps = (packed.keys.capacity(), packed.query.capacity());
        for iter in 2..5u64 {
            let lists = ColorLists::assign(100, 0, 20, 4, 3, iter);
            assert!(packed.pack_from(&oracle, &lists, Some(&lists.bucket_index())));
            assert_eq!(
                (packed.keys.capacity(), packed.query.capacity()),
                caps,
                "iteration {iter} grew the arena"
            );
            check_matches_scalar(&oracle, &lists);
        }
    }

    #[test]
    fn device_bytes_cover_keys_and_queries() {
        let ss = strings(50, 8, 5);
        let enc = EncodedSet::from_strings(&ss);
        let oracle = PauliComplementOracle::new(&enc);
        let lists = ColorLists::assign(50, 0, 10, 4, 3, 1);
        let mut packed = PackedBuckets::new();
        let index = lists.bucket_index();
        assert!(packed.pack_from(&oracle, &lists, Some(&index)));
        // 50 vertices × 4 list colors = 200 key rows + 50 query rows +
        // 50 one-word palette bitmasks (palette 10 < 64), one word each.
        assert_eq!(packed.device_bytes(), (200 + 50 + 50) * 8);
        // The full-row span charges exactly the full replica…
        assert_eq!(
            packed.device_bytes_for_span(Some(&index), 0..index.num_rows()),
            packed.device_bytes()
        );
        // …while a narrow span charges only its touched slice, and an
        // empty span charges nothing.
        assert_eq!(packed.device_bytes_for_span(Some(&index), 0..0), 0);
        let k = index.num_buckets() / 2;
        let span = index.bucket_start(k)..index.bucket_start(k + 1);
        let b = span.len();
        assert_eq!(
            packed.device_bytes_for_span(Some(&index), span.clone()),
            (b + b.min(50) + b.min(50)) * 8
        );
        assert!(packed.device_bytes_for_span(Some(&index), span) < packed.device_bytes());
    }

    #[test]
    fn span_charges_are_bounded_by_the_full_replica() {
        // Spans cutting mid-bucket still charge the whole touched
        // bucket's keys and masks (the pivot scans its full tail).
        let mut rng = StdRng::seed_from_u64(23);
        let ss: Vec<PauliString> = (0..90).map(|_| PauliString::random(11, &mut rng)).collect();
        let enc = EncodedSet::from_strings(&ss);
        let oracle = PauliComplementOracle::new(&enc);
        let lists = ColorLists::assign(90, 0, 9, 3, 4, 1);
        let index = lists.bucket_index();
        let mut packed = PackedBuckets::new();
        assert!(packed.pack_from(&oracle, &lists, Some(&index)));
        let rows = index.num_rows();
        for cut in [1, rows / 3, rows / 2, rows - 1] {
            let a = packed.device_bytes_for_span(Some(&index), 0..cut);
            let b = packed.device_bytes_for_span(Some(&index), cut..rows);
            assert!(a <= packed.device_bytes());
            assert!(b <= packed.device_bytes());
            // Each side alone never exceeds the full replica, and both
            // sides cover at least every key row once.
            assert!(a + b >= rows * packed.words() * 8);
        }
    }
}
