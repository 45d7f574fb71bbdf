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
//! `t` is an edge ([`PackedBuckets::tail_edge_mask`]). The scans run it
//! on **blocks of up to 8 consecutive pivots**
//! (`PackedBuckets::block_edge_masks`): each 8-lane group of the slice is
//! loaded once per block and tested against every pivot's query words,
//! one row per pivot in the task arena's block buffer, and each row is
//! shifted back to its pivot's tail before the consumer walks it. The parity
//! polarity of the oracle's form is folded into the mask, so consumers
//! skip entire zero words and walk set bits with `trailing_zeros` —
//! the anticommutation graph gets *sparser* as the palette grows, and
//! the consumer's cost now tracks the hit count instead of the
//! candidate count. The smallest-shared-color deduplication filter runs
//! only on surviving bits, so its cost is paid on hits instead of on
//! every candidate.
//!
//! **The parity runs on one of three arms**, the fastest the CPU has,
//! picked once per process by runtime feature detection and named by
//! [`parity_kernel`]:
//!
//! - `avx512` (`avx512f` + `avx512vpopcntdq`): 8 lanes per group — one
//!   unmasked load per word plane, then per pivot an `AND`
//!   (`vpternlogq`-accumulated for `w > 1`), a vector `POPCNT` and one
//!   test of bit 0, stored as one mask byte with the polarity applied as
//!   an `XOR` on the byte. Only the block's last group is masked, so
//!   nothing is read or set past the slice's end. Specialised on
//!   `w ≤ 3` by a const generic; wider forms reload the planes per pivot.
//! - `popcnt`: one scalar `POPCNT` per lane, pivot by pivot.
//! - `portable`: a bitsliced 8-lane fold, pivot by pivot, for any CPU.
//!
//! Each arm defines every bit the same way, so the masks — and every
//! colouring downstream — are bit-identical whichever arm runs.
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
    /// the partial-word masking already folded in. Returns whether any
    /// bit is set, so a consumer need not scan the words again.
    ///
    /// A block of one pivot (`PackedBuckets::block_edge_masks`): the
    /// scans run blocks of eight.
    pub fn tail_edge_mask(
        &self,
        tile: Option<&[u64]>,
        pos: usize,
        pivot: usize,
        masks: &mut Vec<u64>,
    ) -> bool {
        let mut block = self.block_edge_masks(tile, pos, [pivot], masks);
        let any = block.hit(0);
        let words = block.tail(0).len();
        masks.truncate(words);
        any
    }

    /// The block entry point of the hit-mask kernel: the edge bits of up
    /// to 8 `pivots` (local vertex ids) at the consecutive positions
    /// `pos, pos+1, …` of a lane slice — the gathered `tile` of a
    /// bucket's members or, for `None`, the key table — against the
    /// lanes after `pos`. Each 8-lane group of the slice is loaded once
    /// and tested against every pivot's query words. `rows` (cleared and
    /// grown, never shrunk) receives one row per pivot over the block's
    /// lanes `pos+1..n`: bit `t` of pivot `j`'s row is lane `pos+1+t`,
    /// with no bit at or below the pivot's own position (`t < j`) and
    /// none past the slice's end.
    ///
    /// One-word forms take `AND`+parity per lane; wider forms
    /// XOR-accumulate the per-word `AND`s first (`popcount(x ⊕ y) ≡
    /// popcount(x) + popcount(y) (mod 2)`), so the parity fold is paid
    /// once per lane, not per word. The parity runs on the arm
    /// [`parity_kernel`] names (see the module docs); every arm defines
    /// each bit the same way.
    pub(crate) fn block_edge_masks<'r>(
        &self,
        tile: Option<&[u64]>,
        pos: usize,
        pivots: impl IntoIterator<Item = usize>,
        rows: &'r mut Vec<u64>,
    ) -> HitBlock<'r> {
        let w = self.words;
        let lanes = tile.unwrap_or(&self.keys);
        let len = lanes.len() / w;
        let mut block = Block {
            lanes,
            len,
            start: pos + 1,
            queries: [&[]; 8],
            pivots: 0,
            odd_means_edge: self.odd_means_edge,
        };
        for pivot in pivots {
            debug_assert!(pivot < self.num_vertices);
            block.queries[block.pivots] = &self.query[pivot * w..(pivot + 1) * w];
            block.pivots += 1;
        }
        debug_assert!(block.pivots >= 1 && pos + block.pivots <= len);
        // SAFETY: `ParityKernel::get` returns an arm this CPU supports.
        unsafe { block.masks(ParityKernel::get(), rows) }
    }
}

/// One block's hit-mask rows in the block buffer, as
/// [`PackedBuckets::block_edge_masks`] leaves them.
pub(crate) struct HitBlock<'a> {
    /// One row of `words` words per pivot.
    rows: &'a mut [u64],
    words: usize,
    /// Lanes in the block: pivot `j`'s tail is the last `lanes - j`.
    lanes: usize,
    /// Bit `j` set iff pivot `j`'s row has a bit set.
    any: u8,
}

impl HitBlock<'_> {
    /// Whether pivot `j` has any edge bit.
    #[inline]
    pub(crate) fn hit(&self, j: usize) -> bool {
        self.any >> j & 1 != 0
    }

    /// Pivot `j`'s row, shifted in place into tail coordinates: bit `t`
    /// is lane `pos+1+j+t`, `⌈(lanes−j)/64⌉` words, as
    /// [`PackedBuckets::tail_edge_mask`] lays out a tail. Call it once
    /// per pivot: the shift is not repeatable.
    pub(crate) fn tail(&mut self, j: usize) -> &mut [u64] {
        let row = &mut self.rows[j * self.words..(j + 1) * self.words];
        let n = (self.lanes - j).div_ceil(64);
        if j > 0 {
            for i in 0..n {
                let next = row.get(i + 1).map_or(0, |&word| word << (64 - j));
                row[i] = row[i] >> j | next;
            }
        }
        &mut row[..n]
    }
}

/// The name of the parity arm the hit-mask kernel runs on this CPU:
/// `"avx512"`, `"popcnt"` or `"portable"`.
pub fn parity_kernel() -> &'static str {
    ParityKernel::get().label()
}

/// The parity arms of the hit-mask kernel, fastest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ParityKernel {
    /// `avx512f` + `avx512vpopcntdq`: 8 lanes per vector `POPCNT`, the
    /// polarity and the tail's end folded into one masked test.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// One scalar `POPCNT` per lane. The workspace builds for baseline
    /// x86-64, where `count_ones` lowers to a ~15-op SWAR sequence.
    #[cfg(target_arch = "x86_64")]
    Popcnt,
    /// The bitsliced 8-lane fold ([`parity_bits_8`]), for any CPU.
    Portable,
}

impl ParityKernel {
    /// Every arm this build has, fastest first.
    const ALL: &'static [ParityKernel] = &[
        #[cfg(target_arch = "x86_64")]
        ParityKernel::Avx512,
        #[cfg(target_arch = "x86_64")]
        ParityKernel::Popcnt,
        ParityKernel::Portable,
    ];

    /// The fastest arm the running CPU supports, detected on the first
    /// call.
    #[inline]
    fn get() -> ParityKernel {
        static KERNEL: std::sync::OnceLock<ParityKernel> = std::sync::OnceLock::new();
        *KERNEL.get_or_init(|| {
            let supported = ParityKernel::ALL.iter().find(|k| k.supported());
            *supported.expect("the portable arm runs anywhere")
        })
    }

    /// Whether the running CPU has the instructions this arm needs.
    fn supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            ParityKernel::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
            }
            #[cfg(target_arch = "x86_64")]
            ParityKernel::Popcnt => std::arch::is_x86_feature_detected!("popcnt"),
            ParityKernel::Portable => true,
        }
    }

    fn label(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            ParityKernel::Avx512 => "avx512",
            #[cfg(target_arch = "x86_64")]
            ParityKernel::Popcnt => "popcnt",
            ParityKernel::Portable => "portable",
        }
    }

    /// Writes `block`'s rows into `rows` (`pivots` rows of
    /// [`Block::row_words`] words, all clear) on this arm: every bit of
    /// the block's lanes, the diagonal included, none past the end.
    ///
    /// # Safety
    /// The running CPU must support this arm ([`ParityKernel::supported`]).
    unsafe fn run(self, block: &Block<'_>, rows: &mut [u64]) {
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the caller checked `avx512f` and `avx512vpopcntdq`.
            ParityKernel::Avx512 => unsafe { avx512::block_rows(block, rows) },
            #[cfg(target_arch = "x86_64")]
            ParityKernel::Popcnt => block.scalar_rows(
                // SAFETY: the caller checked `POPCNT`.
                |qw, keys| unsafe { popcnt::mask_word_1(qw, keys) },
                // SAFETY: as above.
                |accs| unsafe { popcnt::mask_word_acc(accs) },
                rows,
            ),
            ParityKernel::Portable => {
                block.scalar_rows(mask_word_1_portable, mask_word_acc_portable, rows)
            }
        }
    }
}

/// A block of up to 8 pivots at consecutive positions of a lane slice,
/// as every parity arm reads it: `w` word planes of `len` lanes each in
/// `lanes` (word `w_i` of lane `t` at `lanes[w_i·len + t]`), the block's
/// rows covering lanes `start..len` (the first pivot sits at
/// `start − 1`), and pivot `j`'s `w` query words in `queries[j]`,
/// `j < pivots`.
struct Block<'a> {
    lanes: &'a [u64],
    len: usize,
    start: usize,
    queries: [&'a [u64]; 8],
    pivots: usize,
    odd_means_edge: bool,
}

impl Block<'_> {
    /// Words per row: `⌈(len − start)/64⌉`, at least one, so a block whose
    /// last pivot has an empty tail still has a row for it.
    fn row_words(&self) -> usize {
        (self.len - self.start).div_ceil(64).max(1)
    }

    /// Runs `kernel` into `rows` (cleared and grown, never shrunk), then
    /// clears each pivot's diagonal — its own lane and the ones before
    /// it — and collects the any-flags.
    ///
    /// # Safety
    /// The running CPU must support `kernel` ([`ParityKernel::supported`]).
    unsafe fn masks<'r>(&self, kernel: ParityKernel, rows: &'r mut Vec<u64>) -> HitBlock<'r> {
        let words = self.row_words();
        rows.clear();
        rows.resize(self.pivots * words, 0);
        // SAFETY: the caller's contract.
        unsafe { kernel.run(self, rows) };
        let mut any = 0u8;
        for (j, row) in rows.chunks_exact_mut(words).enumerate() {
            row[0] &= !0 << j;
            if row.iter().any(|&word| word != 0) {
                any |= 1 << j;
            }
        }
        HitBlock {
            rows,
            words,
            lanes: self.len - self.start,
            any,
        }
    }

    /// The scalar arms: each pivot's row folded 64 lanes per mask word,
    /// `fold_1` folding one-word lanes against the query word, `fold_acc`
    /// XOR-accumulated ones. Polarity and the row's end are applied to
    /// each word as it is written.
    fn scalar_rows(
        &self,
        fold_1: impl Fn(u64, &[u64]) -> u64,
        fold_acc: impl Fn(&[u64]) -> u64,
        rows: &mut [u64],
    ) {
        let (len, start) = (self.len, self.start);
        let flip = if self.odd_means_edge { 0 } else { !0 };
        let n = len - start;
        let row_words = self.row_words();
        for (query, row) in self.queries[..self.pivots]
            .iter()
            .zip(rows.chunks_exact_mut(row_words))
        {
            if let [qw] = **query {
                for (chunk, out) in self.lanes[start..len].chunks(64).zip(row.iter_mut()) {
                    *out = (fold_1(qw, chunk) ^ flip) & ones(chunk.len());
                }
                continue;
            }
            let mut acc = [0u64; 64];
            for (wd, out) in row.iter_mut().enumerate().take(n.div_ceil(64)) {
                let t = 64 * wd;
                let c = 64.min(n - t);
                acc[..c].fill(0);
                for (wi, &qw) in query.iter().enumerate() {
                    let keys = &self.lanes[wi * len + start + t..][..c];
                    for (a, &kw) in acc[..c].iter_mut().zip(keys) {
                        *a ^= qw & kw;
                    }
                }
                *out = (fold_acc(&acc[..c]) ^ flip) & ones(c);
            }
        }
    }
}

/// The low `n` bits set (all 64 for `n ≥ 64`).
#[inline]
fn ones(n: usize) -> u64 {
    if n >= 64 {
        !0
    } else {
        (1u64 << n) - 1
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

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! The AVX-512 arm. Each full 8-lane group is one unmasked load per
    //! word plane, then per pivot an `AND` (XOR-accumulated for `w > 1`),
    //! a vector `POPCNT` and one test of bit 0, whose 8 mask bits are
    //! stored as one byte of the pivot's row with the polarity applied as
    //! an XOR on the byte. Only the last group is masked, so nothing is
    //! read or set past the block's end. The step is specialised on
    //! `w ≤ 3`, with the planes and the pivots' broadcast query words in
    //! registers; wider forms reload the planes per pivot.

    use super::Block;
    use std::arch::x86_64::*;

    /// [`Block::scalar_rows`]' rows, 8 lanes per instruction, into `rows`
    /// as [`super::ParityKernel::run`] takes them.
    ///
    /// # Safety
    /// The CPU must support `avx512f` and `avx512vpopcntdq`.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn block_rows(block: &Block<'_>, rows: &mut [u64]) {
        let w = block.queries[0].len();
        // Every load and store below stays inside `lanes` and `rows`
        // because of these checks.
        assert!(
            block.start <= block.len
                && block.lanes.len() >= w * block.len
                && rows.len() >= block.pivots * block.row_words()
        );
        for query in &block.queries[..block.pivots] {
            assert_eq!(query.len(), w);
        }
        // SAFETY (all four): this function's own contract.
        match w {
            1 => unsafe { rows_of::<1>(block, rows) },
            2 => unsafe { rows_of::<2>(block, rows) },
            3 => unsafe { rows_of::<3>(block, rows) },
            _ => unsafe { rows_wide(block, rows) },
        }
    }

    /// The rows of a `W`-word form: each group's `W` planes loaded once,
    /// then tested against every pivot.
    ///
    /// # Safety
    /// As [`block_rows`], whose check this relies on.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn rows_of<const W: usize>(block: &Block<'_>, rows: &mut [u64]) {
        let (len, n) = (block.len, block.len - block.start);
        let mut q = [[_mm512_setzero_si512(); W]; 8];
        for (qj, query) in q.iter_mut().zip(&block.queries[..block.pivots]) {
            for (v, &word) in qj.iter_mut().zip(query.iter()) {
                *v = _mm512_set1_epi64(word as i64);
            }
        }
        let q = &q[..block.pivots];
        let flip: u8 = if block.odd_means_edge { 0 } else { !0 };
        let stride = 8 * block.row_words();
        let base = block.lanes.as_ptr().wrapping_add(block.start);
        let out = rows.as_mut_ptr().cast::<u8>();
        let mut x = [_mm512_setzero_si512(); W];
        for g in 0..n / 8 {
            for (wi, x) in x.iter_mut().enumerate() {
                // SAFETY: lanes `start + 8g .. start + 8g + 8` of plane
                // `wi`, all below `len` (`8g + 8 ≤ n`).
                *x = unsafe { _mm512_loadu_epi64(base.wrapping_add(wi * len + 8 * g).cast()) };
            }
            // SAFETY: byte `g < ⌈n/8⌉ ≤ stride` of each row.
            unsafe { test_group(&x, q, !0, flip, out.wrapping_add(g), stride) };
        }
        let g = n / 8;
        if n % 8 != 0 {
            let k: __mmask8 = (1 << (n % 8)) - 1;
            for (wi, x) in x.iter_mut().enumerate() {
                // SAFETY: `k` enables lanes `start + 8g .. len` of plane
                // `wi` only; disabled lanes are not read.
                *x = unsafe {
                    _mm512_maskz_loadu_epi64(k, base.wrapping_add(wi * len + 8 * g).cast())
                };
            }
            // SAFETY: as above.
            unsafe { test_group(&x, q, k, flip, out.wrapping_add(g), stride) };
        }
    }

    /// One group's mask byte per pivot: pivot `j`'s at `out + j·stride`,
    /// its bits outside `keep` clear.
    ///
    /// # Safety
    /// `out + j·stride` must be writable for every `j < q.len()`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn test_group<const W: usize>(
        x: &[__m512i; W],
        q: &[[__m512i; W]],
        keep: u8,
        flip: u8,
        out: *mut u8,
        stride: usize,
    ) {
        let one = _mm512_set1_epi64(1);
        for (j, qj) in q.iter().enumerate() {
            let mut acc = _mm512_and_si512(x[0], qj[0]);
            for wi in 1..W {
                // acc ^ (q & x)
                acc = _mm512_ternarylogic_epi64::<0x78>(acc, qj[wi], x[wi]);
            }
            let bits = _mm512_test_epi64_mask(_mm512_popcnt_epi64(acc), one);
            // SAFETY: the caller's contract.
            unsafe { *out.wrapping_add(j * stride) = (bits ^ flip) & keep };
        }
    }

    /// The rows of a form wider than 3 words: every load masked, the
    /// planes reloaded per pivot.
    ///
    /// # Safety
    /// As [`block_rows`], whose check this relies on.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn rows_wide(block: &Block<'_>, rows: &mut [u64]) {
        let (len, n) = (block.len, block.len - block.start);
        let one = _mm512_set1_epi64(1);
        let flip: u8 = if block.odd_means_edge { 0 } else { !0 };
        let stride = 8 * block.row_words();
        let base = block.lanes.as_ptr().wrapping_add(block.start);
        let out = rows.as_mut_ptr().cast::<u8>();
        for g in 0..n.div_ceil(8) {
            let k: __mmask8 = if n - 8 * g >= 8 {
                !0
            } else {
                (1 << (n - 8 * g)) - 1
            };
            for (j, query) in block.queries[..block.pivots].iter().enumerate() {
                let mut acc = _mm512_setzero_si512();
                for (wi, &qw) in query.iter().enumerate() {
                    // SAFETY: `k` enables lanes `start + 8g ..` of plane
                    // `wi` below `len` only.
                    let x = unsafe {
                        _mm512_maskz_loadu_epi64(k, base.wrapping_add(wi * len + 8 * g).cast())
                    };
                    acc = _mm512_ternarylogic_epi64::<0x78>(acc, _mm512_set1_epi64(qw as i64), x);
                }
                let bits = _mm512_test_epi64_mask(_mm512_popcnt_epi64(acc), one);
                // SAFETY: byte `g < ⌈n/8⌉ ≤ stride` of row `j < pivots`.
                unsafe { *out.wrapping_add(j * stride + g) = (bits ^ flip) & k };
            }
        }
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

    /// One block of `kernel` against a naive `count_ones` parity: `pivots`
    /// pivots from position `pos` of a `len`-lane slice of `w`-word
    /// `lanes`, pivot `j` querying `query[j·w..]`. Each row holds no bit
    /// at or below its pivot's own position and none past the slice's
    /// end, the any-flags match the rows, and each tail is its row
    /// shifted to the pivot.
    #[allow(clippy::too_many_arguments)]
    fn check_block(
        kernel: ParityKernel,
        lanes: &[u64],
        len: usize,
        query: &[u64],
        w: usize,
        pos: usize,
        pivots: usize,
        odd_means_edge: bool,
    ) {
        let mut block = Block {
            lanes,
            len,
            start: pos + 1,
            queries: [&[]; 8],
            pivots,
            odd_means_edge,
        };
        for (j, q) in query.chunks(w).take(pivots).enumerate() {
            block.queries[j] = q;
        }
        let what = format!(
            "{} w={w} len={len} pos={pos} pivots={pivots} odd={odd_means_edge}",
            kernel.label()
        );
        let n = len - pos - 1;
        let edge = |j: usize, t: usize| {
            if t < j || t >= n {
                return false;
            }
            let set: u32 = (0..w)
                .map(|wi| (query[j * w + wi] & lanes[wi * len + pos + 1 + t]).count_ones())
                .sum();
            (set % 2 == 1) == odd_means_edge
        };
        let bit = |words: &[u64], t: usize| words[t / 64] >> (t % 64) & 1 == 1;
        let mut rows = Vec::new();
        // SAFETY: the caller checked `supported`.
        let mut hits = unsafe { block.masks(kernel, &mut rows) };
        let words = n.div_ceil(64).max(1);
        assert_eq!(hits.rows.len(), pivots * words, "{what}");
        for j in 0..pivots {
            let row = &hits.rows[j * words..(j + 1) * words];
            for t in 0..64 * words {
                assert_eq!(bit(row, t), edge(j, t), "{what}: pivot {j} lane {t}");
            }
            let any = row.iter().any(|&word| word != 0);
            assert_eq!(hits.hit(j), any, "{what}: pivot {j} any");
        }
        for j in 0..pivots {
            let tail = hits.tail(j);
            assert_eq!(tail.len(), (n - j).div_ceil(64), "{what}");
            for t in 0..64 * tail.len() {
                assert_eq!(bit(tail, t), edge(j, j + t), "{what}: tail {j} lane {t}");
            }
        }
    }

    /// Every parity arm this CPU can run, through the block entry point
    /// ([`check_block`]): blocks of 1–8 pivots at the slice's start,
    /// inside it and ending at its last lane (so the last pivot's tail is
    /// empty), slices of 1–130 lanes, `w` = 1–4, both polarities. An arm
    /// the CPU lacks is named on stderr, past the test harness's capture,
    /// so a host without it shows in the log.
    #[test]
    fn every_parity_arm_matches_a_naive_popcount() {
        use std::io::Write;
        let mut rng = StdRng::seed_from_u64(5);
        let mut report = std::io::stderr().lock();
        for &kernel in ParityKernel::ALL {
            if !kernel.supported() {
                writeln!(
                    report,
                    "parity arm {} skipped: not supported here",
                    kernel.label()
                )
                .unwrap();
                continue;
            }
            for w in 1..=4usize {
                for len in 1..=130usize {
                    let lanes: Vec<u64> = (0..w * len).map(|_| rng.next_u64()).collect();
                    let query: Vec<u64> = (0..8 * w).map(|_| rng.next_u64()).collect();
                    for pivots in 1..=8.min(len) {
                        let mut firsts = vec![0, 3, len / 2, len - pivots];
                        firsts.retain(|&pos| pos + pivots <= len);
                        firsts.dedup();
                        for pos in firsts {
                            for odd in [true, false] {
                                check_block(kernel, &lanes, len, &query, w, pos, pivots, odd);
                            }
                        }
                    }
                }
            }
            writeln!(report, "parity arm {} ran and matched", kernel.label()).unwrap();
        }
    }

    #[test]
    fn the_named_parity_arm_is_the_fastest_supported_one() {
        let first = ParityKernel::ALL.iter().find(|k| k.supported()).unwrap();
        assert_eq!(parity_kernel(), first.label());
        assert!(["avx512", "popcnt", "portable"].contains(&parity_kernel()));
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
