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
//! only on surviving bits, so its cost is paid on hits instead of on
//! every candidate.
//!
//! **The palette filter stays linear in `m·L`.** The replica holds key
//! lanes and query rows only. The dedup test runs in one of two forms,
//! which the replica picks once per pack ([`SharedColorFilter::choose`])
//! and every scan of it reads back ([`PackedBuckets::shared_color_filter`]).
//! The scans test against the sorted lists: a pivot with hits and colors
//! below the bucket's sets those colors in a `⌈P/64⌉`-word scratch bitset
//! of its task arena, and a hit survives iff none of the member's `L`
//! colors is set. On the identity layout with `2L > P` every two lists
//! intersect, so no test runs. The rule reads only the lists and the
//! layout, so every backend makes the same choice. `Normal` lists grow
//! `P` as `m/8`, so a palette bitmask per vertex would grow the replica
//! as `m²/8` bits; the scratch bitset costs `⌈P/64⌉` words per task.
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
//! (the `pack_builds` counter pins the contract). Packing is the
//! oracle's call: an iteration packs exactly when
//! [`EdgeOracle::packed_form`] is `Some`, whatever the engine or the
//! pair load, and every oracle without a packed form (the CSR and
//! closure oracles, [`graph::ScalarView`] over a packable one) takes
//! the scalar block path.

use crate::assign::{BucketIndex, ColorLists};
use graph::EdgeOracle;
use rayon::prelude::*;
use serde::Serialize;

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
    /// How the scans of this replica run the shared-color test.
    filter: SharedColorFilter,
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
        self.filter =
            SharedColorFilter::choose(lists.palette_size(), lists.list_size(), index.is_some());
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

    /// Bytes the device replica of this packing holds: every key lane and
    /// every query row, as `u64` words. This is what Algorithm 3 uploads
    /// **instead of** the raw encoded set when the packed kernel runs —
    /// the replica *is* the kernel's input. Exactly `8·(N·L·w + m·w)`
    /// bytes on the bucketed layout (`8·(m·w + m·w)` on the identity
    /// layout): linear in `m·L`, whatever the palette.
    pub fn device_bytes(&self) -> usize {
        (self.keys.len() + self.query.len()) * std::mem::size_of::<u64>()
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

    /// How the scans of this replica run the shared-color test, as
    /// [`SharedColorFilter::choose`] picked it at the last pack.
    #[inline]
    pub fn shared_color_filter(&self) -> SharedColorFilter {
        self.filter
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

/// `u64` words of one palette bitset over `palette` colors (at least
/// one).
#[inline]
pub(crate) fn palette_words(palette: u32) -> usize {
    (palette as usize).div_ceil(64).max(1)
}

/// How the packed scans run the smallest-shared-color test on oracle
/// hits. A replica picks one form per pack ([`SharedColorFilter::choose`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub enum SharedColorFilter {
    /// A pivot's colors in a `⌈P/64⌉`-word scratch bitset, each hit's
    /// `L` colors tested against it.
    Lists,
    /// No test: on the identity layout with `2L > P` every two lists
    /// share a color.
    #[default]
    Skipped,
}

impl SharedColorFilter {
    /// The rule for a replica over lists of `list` colors from a
    /// `palette`-color palette, on the bucketed layout or the all-pairs
    /// identity layout: the identity layout with `2L > P` needs no test,
    /// every other scan tests on the lists. A pure function of the lists
    /// and the engine's choice, so every backend makes the same one.
    pub fn choose(palette: u32, list: usize, bucketed: bool) -> SharedColorFilter {
        if !bucketed && 2 * list > palette as usize {
            SharedColorFilter::Skipped
        } else {
            SharedColorFilter::Lists
        }
    }

    /// The `--stats` label: `list` or `none`.
    pub fn label(self) -> &'static str {
        match self {
            SharedColorFilter::Lists => "list",
            SharedColorFilter::Skipped => "none",
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
        // A narrow and a wide palette: the replica is the same keys and
        // queries either way, filtered on the lists.
        for palette in [18u32, 2000] {
            for qubits in [8usize, 30, 70] {
                let what = format!("P={palette}, {qubits} qubits");
                let ss = strings(120, qubits, 17);
                let enc = EncodedSet::from_strings(&ss);
                let oracle = PauliComplementOracle::new(&enc);
                let lists = ColorLists::assign(120, 0, palette, 4, 5, 1);
                let index = lists.bucket_index();
                let mut serial = PackedBuckets::new();
                let mut parallel = PackedBuckets::new();
                assert!(serial.pack_from(&oracle, &lists, Some(&index)));
                assert!(parallel.pack_from_parallel(&oracle, &lists, Some(&index)));
                assert_eq!(serial.keys, parallel.keys, "{what}");
                assert_eq!(serial.query, parallel.query, "{what}");
                let filter = SharedColorFilter::Lists;
                assert_eq!(serial.shared_color_filter(), filter, "{what}");
                assert_eq!(parallel.shared_color_filter(), filter, "{what}");
            }
        }
    }

    #[test]
    fn only_an_identity_layout_with_2l_above_p_skips_the_list_test() {
        // The bucketed layout always tests on the lists; the identity
        // layout skips the test iff `2L > P`. At the benchmark's shapes:
        // dense_pauli (P = 1000, L = 8), service_mix (P = 128, L = 7) and
        // sparse_oracle (P = 5000, L = 10) bucket and test on the lists,
        // and the all-pairs molecule (2L > P) runs no test.
        use SharedColorFilter::{Lists, Skipped};
        for p in 1..=3000u32 {
            for l in [1usize, 3, 8, 10, 40, 1500] {
                let what = format!("P={p} L={l}");
                assert_eq!(SharedColorFilter::choose(p, l, true), Lists, "{what}");
                let identity = if 2 * l > p as usize { Skipped } else { Lists };
                assert_eq!(SharedColorFilter::choose(p, l, false), identity, "{what}");
            }
        }
        assert_eq!(SharedColorFilter::choose(1000, 8, true), Lists);
        assert_eq!(SharedColorFilter::choose(128, 7, true), Lists);
        assert_eq!(SharedColorFilter::choose(5000, 10, true), Lists);
        assert_eq!(SharedColorFilter::choose(131, 110, false), Skipped);
        assert_eq!(SharedColorFilter::choose(220, 110, false), Lists);
        let labels = [Lists, Skipped].map(SharedColorFilter::label);
        assert_eq!(labels, ["list", "none"]);
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
    fn replicas_stay_linear_in_the_key_lanes() {
        // The sparse shape, P ≫ 64·L·w: a two-word packed-word oracle
        // with 3-color lists from a 3000-color palette. The replica is
        // the key lanes and the query rows, `8·(N·L·w + m·w)`, on either
        // layout (all-pairs: N·w key words) and for either pass.
        let n = 600;
        let oracle = graph::PackedWordOracle::with_edge_density(n, 2, 0.01, 3);
        let lists = ColorLists::assign(n, 0, 3000, 3, 7, 1);
        let index = lists.bucket_index();
        for (layout, rows) in [(Some(&index), n * 3), (None, n)] {
            let mut serial = PackedBuckets::new();
            let mut parallel = PackedBuckets::new();
            assert!(serial.pack_from(&oracle, &lists, layout));
            assert!(parallel.pack_from_parallel(&oracle, &lists, layout));
            for packed in [&serial, &parallel] {
                assert_eq!(packed.shared_color_filter(), SharedColorFilter::Lists);
                assert_eq!(packed.device_bytes(), 8 * (rows * 2 + n * 2));
            }
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
        // 50 vertices × 4 list colors = 200 key rows + 50 query rows,
        // one word each.
        assert_eq!(packed.device_bytes(), (200 + 50) * 8);
    }
}
