//! The **packed oracle replica** feeding the SIMD-shaped conflict
//! kernels: one key table and one query table per iteration, `m·w`
//! words each, for either candidate engine.
//!
//! The scalar block path ([`graph::EdgeOracle::has_edge_block_scratch`])
//! amortizes the pivot load but still *gathers* each candidate row
//! through an index indirection, one row at a time. The packed replica
//! removes the per-row gather: when an oracle exposes an AND-popcount
//! form ([`graph::PackedOracleForm`] — the Pauli complement oracle over
//! either packed encoding does), the iteration context writes the
//! **key** words of every local vertex once, in word-transposed SoA
//! order, next to a row-major **query** table — as Algorithm 3 uploads
//! each vertex's packed words once, beside its color list:
//!
//! ```text
//! keys  (one lane per local vertex v):  [w0·v0 w0·v1 … w0·vm-1  w1·v0 …]
//! query (per local vertex u):           [u·w0 u·w1 …]
//! tile  (a bucket's n scanned members): [w0·t0 w0·t1 … w0·tn-1  w1·t0 …]
//! ```
//!
//! The two tables differ: the symplectic encoding writes its key words
//! with the x and z planes swapped, so a query row is not a key.
//!
//! A pivot's scan of its tail is then `query_word & lanes[w][lane]`
//! over contiguous `u64` lanes — straight-line, autovectorizable, no
//! per-row indirection; 21 Pauli operators per word-lane for the 3-bit
//! code. The lanes are the key table itself on the all-pairs engine
//! (the *identity layout*: lane `v` is vertex `v`, so row `i`'s tail is
//! vertices `i+1..m`). On the bucketed engine a
//! scan entering bucket `k` first gathers the members from its first
//! pivot there to the bucket's end out of the key table into a **tile**
//! of its pooled task arena (`PackedBuckets::gather_tile`), and the
//! kernel runs over the tile. The tile is scan-time scratch, like a GPU
//! block's shared memory: it holds one bucket's lanes per cut, so the
//! replica itself is `16·m·w` bytes on either engine.
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
//! **The palette filter stays linear in `m·L`.** The replica holds the
//! key and query tables only. The dedup test runs in one of two forms,
//! which the replica picks once per pack ([`SharedColorFilter::choose`])
//! and every scan of it reads back ([`PackedBuckets::shared_color_filter`]).
//! The scans test against the sorted lists: a pivot with hits and colors
//! below the bucket's sets those colors in a `⌈P/64⌉`-word scratch bitset
//! of its task arena, and a hit survives iff none of the member's `L`
//! colors is set. On the all-pairs engine with `2L > P` every two lists
//! intersect, so no test runs. The rule reads only the lists and the
//! engine, so every backend makes the same choice. `Normal` lists grow
//! `P` as `m/8`, so a palette bitmask per vertex would grow the replica
//! as `m²/8` bits; the scratch bitset costs `⌈P/64⌉` words per task.
//!
//! The replica is built at most once per iteration, in one serial
//! `O(m·w)` pass, into a persistent arena owned by the
//! [`IterationContext`](crate::IterationContext) (the `pack_builds`
//! counter pins the contract). Packing is the oracle's call: an
//! iteration packs exactly when [`EdgeOracle::packed_form`] is `Some`,
//! whatever the engine or the pair load, and every oracle without a
//! packed form (the CSR and closure oracles, [`graph::ScalarView`] over
//! a packable one) takes the scalar block path.

use crate::assign::ColorLists;
use graph::EdgeOracle;
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

/// The packed oracle replica of one iteration: the key and query tables
/// of every local vertex (see the module docs for the layout).
#[derive(Debug, Default)]
pub struct PackedBuckets {
    words: usize,
    odd_means_edge: bool,
    num_vertices: usize,
    /// Word-transposed key lanes: word `w_i` of local vertex `v` at
    /// `keys[w_i·m + v]`.
    keys: Vec<u64>,
    /// Row-major query words of every local vertex.
    query: Vec<u64>,
    /// How the scans of this replica run the shared-color test.
    filter: SharedColorFilter,
}

impl PackedBuckets {
    /// An empty arena; storage fills on the first pack and persists.
    pub fn new() -> PackedBuckets {
        PackedBuckets::default()
    }

    /// (Re)builds the replica for `oracle` over `lists`, for scans of the
    /// bucketed engine (`bucketed`) or of the all-pairs engine, reusing
    /// this arena's storage. Returns `false` — leaving the replica
    /// inactive — when the oracle has no packed form.
    ///
    /// One serial pass writes `m·w` key words and `m·w` query words; the
    /// engine decides only the shared-color filter. Once the arena is warm
    /// it allocates nothing, which `tests/memory.rs` pins at exactly zero
    /// heap allocations.
    pub fn pack_from<O: EdgeOracle + ?Sized>(
        &mut self,
        oracle: &O,
        lists: &ColorLists,
        bucketed: bool,
    ) -> bool {
        let Some(form) = oracle.packed_form() else {
            return false;
        };
        let (w, m) = (form.words.max(1), oracle.num_vertices());
        debug_assert_eq!(m, lists.len());
        self.words = w;
        self.odd_means_edge = form.odd_means_edge;
        self.num_vertices = m;
        self.filter = SharedColorFilter::choose(lists.palette_size(), lists.list_size(), bucketed);
        self.keys.clear();
        self.keys.resize(m * w, 0);
        self.query.clear();
        self.query.resize(m * w, 0);
        for v in 0..m {
            // The query row stages the key words on their way into the
            // transposed table.
            let row = &mut self.query[v * w..(v + 1) * w];
            oracle.write_key_words(v, row);
            for (wi, &word) in row.iter().enumerate() {
                self.keys[wi * m + v] = word;
            }
            oracle.write_query_words(v, row);
        }
        true
    }

    /// Words per packed row.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Bytes the device replica of this packing holds: the key table and
    /// the query table, as `u64` words. This is what Algorithm 3 uploads
    /// **instead of** the raw encoded set when the packed kernel runs —
    /// the replica *is* the kernel's input. Exactly `16·m·w` bytes on
    /// either engine, whatever the palette. The bucketed scans' tiles are
    /// scan-time scratch and not part of it.
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
    pub(crate) fn probe_matches<O: EdgeOracle + ?Sized>(&self, oracle: &O) -> bool {
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
        let mut row = vec![0; w];
        [0, self.num_vertices - 1].into_iter().all(|r| {
            oracle.write_query_words(r, &mut row);
            row[..] == self.query[r * w..(r + 1) * w]
        })
    }

    /// How the scans of this replica run the shared-color test, as
    /// [`SharedColorFilter::choose`] picked it at the last pack.
    #[inline]
    pub fn shared_color_filter(&self) -> SharedColorFilter {
        self.filter
    }

    /// Gathers the key lanes of `members` (local vertex ids) out of the
    /// key table into `tile`, word-transposed like the table: word `w_i`
    /// of member `t` lands at `tile[w_i·n + t]`, `n = members.len()`.
    /// `tile` is cleared first and never shrunk, so a warm tile gathers
    /// without allocating.
    pub(crate) fn gather_tile(&self, members: &[u32], tile: &mut Vec<u64>) {
        let m = self.num_vertices;
        tile.clear();
        for wi in 0..self.words {
            let table = &self.keys[wi * m..(wi + 1) * m];
            tile.extend(members.iter().map(|&v| table[v as usize]));
        }
    }

    /// The hit-mask kernel: edge bits of pivot `pivot` (local vertex id)
    /// against the lanes after position `pos` of a lane slice — the
    /// gathered `tile` of a bucket's members (`PackedBuckets::gather_tile`)
    /// or, for `None`, the key table itself, whose lane `v` is vertex `v`.
    /// The tail `pos+1..n` (`n` lanes in the slice) is packed 64 lanes per
    /// `u64` into `masks` — bit `t % 64` of word `t / 64` set ⟺ tail
    /// candidate `t` is an edge, with the form's parity polarity and
    /// the partial-word masking already folded in. One-word forms take
    /// `AND`+parity per lane; wider forms XOR-accumulate the per-word
    /// `AND`s first (`popcount(x ⊕ y) ≡ popcount(x) + popcount(y)
    /// (mod 2)`), so the parity fold is paid once per lane, not per
    /// word. The parity itself uses the `POPCNT` instruction when the
    /// CPU has it and a bitsliced 8-lane fold otherwise.
    pub fn tail_edge_mask(
        &self,
        tile: Option<&[u64]>,
        pos: usize,
        pivot: usize,
        masks: &mut Vec<u64>,
    ) {
        let w = self.words;
        let lanes = tile.unwrap_or(&self.keys);
        let len = lanes.len() / w;
        debug_assert!(pos < len);
        debug_assert!(pivot < self.num_vertices);
        let tail = len - pos - 1;
        masks.clear();
        if tail == 0 {
            return;
        }
        let use_popcnt = have_popcnt();
        if w == 1 {
            let qw = self.query[pivot];
            let keys = &lanes[pos + 1..len];
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
                    let keys = &lanes[wi * len + pos + 1 + t..][..c];
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
    /// No test: on the all-pairs engine with `2L > P` every two lists
    /// share a color.
    #[default]
    Skipped,
}

impl SharedColorFilter {
    /// The rule for a replica over lists of `list` colors from a
    /// `palette`-color palette, scanned by the bucketed engine or the
    /// all-pairs one: all-pairs with `2L > P` needs no test, every other
    /// scan tests on the lists. A pure function of the lists
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

    /// The bucketed scans: each bucket's tail masks, over a tile gathered
    /// from the bucket's first member and from its middle one (where a
    /// cut may start), match the scalar oracle.
    fn check_matches_scalar<O: EdgeOracle>(oracle: &O, lists: &ColorLists) {
        let index = lists.bucket_index();
        let mut packed = PackedBuckets::new();
        assert!(
            packed.pack_from(oracle, lists, true),
            "oracle must be packable"
        );
        let (mut masks, mut tile) = (Vec::new(), Vec::new());
        for k in 0..index.num_buckets() {
            let bucket = index.bucket(k);
            for first in [0, bucket.len() / 2] {
                packed.gather_tile(&bucket[first..], &mut tile);
                assert_eq!(tile.len(), (bucket.len() - first) * packed.words());
                for (a, &u) in bucket.iter().enumerate().skip(first) {
                    let tail = bucket.len() - a - 1;
                    packed.tail_edge_mask(Some(&tile), a - first, u as usize, &mut masks);
                    assert_eq!(masks.len(), tail.div_ceil(64));
                    for t in 0..tail {
                        let v = bucket[a + 1 + t] as usize;
                        assert_eq!(
                            masks[t / 64] >> (t % 64) & 1 == 1,
                            oracle.has_edge(u as usize, v),
                            "bucket {k} from {first}: pivot {u} vs {v}"
                        );
                    }
                    // No garbage past the tail in the partial last word.
                    if !tail.is_multiple_of(64) {
                        assert_eq!(masks[tail / 64] & !((1u64 << (tail % 64)) - 1), 0);
                    }
                }
            }
        }
    }

    /// The all-pairs scans, straight off the key table: row `i`'s tail is
    /// `i+1..m`.
    fn check_identity_matches_scalar<O: EdgeOracle>(oracle: &O, lists: &ColorLists) {
        let m = lists.len();
        let mut packed = PackedBuckets::new();
        assert!(packed.pack_from(oracle, lists, false));
        assert_eq!(packed.device_bytes(), 16 * m * packed.words());
        let mut masks = Vec::new();
        for i in 0..m {
            packed.tail_edge_mask(None, i, i, &mut masks);
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
        let oracle = graph::FnOracle::new(20, |u, v| (u + v) % 2 == 0);
        let mut packed = PackedBuckets::new();
        assert!(!packed.pack_from(&oracle, &lists, true));
        assert!(!packed.pack_from(&oracle, &lists, false));
    }

    #[test]
    fn repacking_reuses_the_arena() {
        let ss = strings(100, 12, 11);
        let enc = EncodedSet::from_strings(&ss);
        let oracle = PauliComplementOracle::new(&enc);
        let mut packed = PackedBuckets::new();
        let big = ColorLists::assign(100, 0, 20, 4, 3, 1);
        assert!(packed.pack_from(&oracle, &big, true));
        let caps = (packed.keys.capacity(), packed.query.capacity());
        for iter in 2..5u64 {
            let lists = ColorLists::assign(100, 0, 20, 4, 3, iter);
            assert!(packed.pack_from(&oracle, &lists, true));
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
        // the key table and the query table, `16·m·w` bytes, on either
        // engine: the bucketed scans gather their lanes at scan time.
        let n = 600;
        let oracle = graph::PackedWordOracle::with_edge_density(n, 2, 0.01, 3);
        let lists = ColorLists::assign(n, 0, 3000, 3, 7, 1);
        for bucketed in [true, false] {
            let mut packed = PackedBuckets::new();
            assert!(packed.pack_from(&oracle, &lists, bucketed));
            assert_eq!(packed.shared_color_filter(), SharedColorFilter::Lists);
            assert_eq!(packed.device_bytes(), 16 * n * 2);
        }
    }

    #[test]
    fn device_bytes_cover_keys_and_queries() {
        // 50 vertices, one key word and one query word each, on either
        // engine: the 4-color lists add nothing.
        let ss = strings(50, 8, 5);
        let enc = EncodedSet::from_strings(&ss);
        let oracle = PauliComplementOracle::new(&enc);
        let lists = ColorLists::assign(50, 0, 10, 4, 3, 1);
        let mut packed = PackedBuckets::new();
        for bucketed in [true, false] {
            assert!(packed.pack_from(&oracle, &lists, bucketed));
            assert_eq!(packed.device_bytes(), (50 + 50) * 8);
        }
    }
}
