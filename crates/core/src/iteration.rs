//! The solver-owned per-iteration workspace.
//!
//! Algorithm 1 re-derives the same palette structures every round: the
//! color lists, the inverted bucket index feeding the candidate engine,
//! and a family of scratch buffers (per-block COO edge-group arenas,
//! the hit-mask rows of the conflict graph, oracle hit vectors, live-view
//! index remapping). Before this module each conflict
//! backend rebuilt its own `BucketIndex` and every build re-allocated
//! its buffers; the [`IterationContext`] centralizes all of it:
//!
//! * **Built once per solve** — the context itself and every scratch
//!   arena in [`IterationScratch`]; arenas persist across iterations and
//!   only grow.
//! * **Built at most once per iteration** — the [`ColorLists`] (Line 6,
//!   re-assigned *in place* into the reused flat array) and the
//!   [`BucketIndex`] (built lazily on the first backend that needs it,
//!   then lent to every other stage of the round; a build counter makes
//!   the at-most-once contract testable).
//! * **Derived per iteration, pre-oracle** — the [`BucketLoad`]
//!   histogram: bucket sizes estimate the iteration's conflict load
//!   before a single oracle query runs, and are surfaced through
//!   [`IterationStats`](crate::solver::IterationStats).
//!
//! The conflict builders ([`crate::conflict`]) all draw from the context
//! — `build_sequential`, `build_parallel` and the device's
//! `build_device` share one engine view
//! ([`CandidateEngine::with_index`]) over the context's lists and index,
//! which is what guarantees every backend enumerates the identical
//! candidate set.

use crate::assign::{BucketIndex, BucketLoad, ColorLists};
use crate::candidates::CandidateEngine;
use crate::config::ListColoringScheme;
use crate::conflict::{BucketColumns, HitMasks, MaskGraph};
use crate::listcolor::{ColorScratch, SchemeKind};
use crate::packed::{PackedBuckets, SharedColorFilter};
use device::FaultPlan;
use graph::{CooGroups, CsrArena, CsrGraph, EdgeOracle};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The scan buffers one cut of a host or device build checks out of a
/// [`ScratchPool`]: candidate-run staging, the oracle hit vector, the
/// packed kernel's hit masks, the shared-color filter's color bitset,
/// the bucketed scan's lane tile, the live-view remap arena and the
/// bucketed mask fill's column scratch. A cut
/// stages its edges in its own [`IterationScratch::blocks`] arena, not
/// here. Buffers are cleared by the borrower, never shrunk, so a
/// recycled arena serves a same-shape block without allocating.
#[derive(Debug, Default)]
pub struct TaskArena {
    /// Candidate-run staging for [`crate::PairSource::scan_rows_scratch`].
    pub run: Vec<usize>,
    /// Oracle hit vector for batched `has_edge_block` queries.
    pub hits: Vec<bool>,
    /// The packed kernel's block buffer: one hit-mask row per pivot of a
    /// block of up to 8 consecutive pivots, each shifted in place to its
    /// pivot's tail ([`crate::PackedBuckets::tail_edge_mask`] is a block
    /// of one). Scan-time scratch like the tile, so not part of the
    /// replica's device bytes.
    pub masks: Vec<u64>,
    /// One pivot's colors as a `⌈P/64⌉`-word palette bitset: the packed
    /// scans' shared-color filter
    /// ([`crate::packed::SharedColorFilter::Lists`]).
    pub colors: Vec<u64>,
    /// One bucket's key lanes, gathered out of the packed replica's key
    /// table as the bucketed scan enters the bucket
    /// (`PackedBuckets::gather_tile`): the members from the
    /// cut's first pivot there to the bucket's end, word-transposed. It
    /// is scan-time scratch, like a GPU block's shared memory, and not
    /// part of the replica.
    pub tile: Vec<u64>,
    /// Index-remapping arena for [`crate::LiveView`]'s batched path.
    pub mapped: Vec<usize>,
    /// One bucket's lower-color member sets: the bucketed hit-mask
    /// fill's `|Ec|` count.
    pub columns: BucketColumns,
}

/// A pool of [`TaskArena`]s shared by the cuts of every engine-driven
/// conflict build (the sequential build's one cut, the rayon build's and
/// every device's). Arenas are created only when a task finds the pool
/// empty and are returned after use, so the pool never holds more arenas
/// than the most tasks that ever ran at once (at most the thread count).
/// Which builds reach that high-water mark depends on how their tasks
/// overlap; once the pool holds one arena per thread, the builds
/// allocate **no scan buffers per task** — the per-thread extension of
/// the iteration context's zero-allocation property
/// ([`ScratchPool::arenas_created`] lets tests pin it).
#[derive(Debug, Default)]
pub struct ScratchPool {
    arenas: Mutex<Vec<TaskArena>>,
    created: AtomicUsize,
}

impl ScratchPool {
    /// Checks an arena out of the pool, creating an empty one only when
    /// every pooled arena is already lent out.
    pub fn take(&self) -> TaskArena {
        if let Some(arena) = self.arenas.lock().unwrap().pop() {
            return arena;
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        TaskArena::default()
    }

    /// Returns an arena (its grown buffers intact) for reuse.
    pub fn put(&self, arena: TaskArena) {
        self.arenas.lock().unwrap().push(arena);
    }

    /// Total arenas ever created — never above the most tasks that held
    /// an arena at once, and constant once it reaches the thread count.
    pub fn arenas_created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Capacity of the column scratch ([`TaskArena::columns`], in words
    /// of either type) summed over the resting arenas — introspection
    /// hook for the allocation-reuse tests.
    pub fn column_capacity(&self) -> usize {
        let arenas = self
            .arenas
            .lock()
            .expect("a thread panicked holding the arena pool lock");
        arenas.iter().map(|arena| arena.columns.capacity()).sum()
    }

    /// Arenas currently resting in the pool.
    pub fn arenas_pooled(&self) -> usize {
        self.arenas.lock().unwrap().len()
    }

    /// Capacities `(hits, mapped, tile)` summed over the resting arenas.
    fn capacities(&self) -> (usize, usize, usize) {
        let arenas = self
            .arenas
            .lock()
            .expect("a thread panicked holding the arena pool lock");
        arenas
            .iter()
            .fold((0, 0, 0), |(hits, mapped, tile), arena| {
                (
                    hits + arena.hits.capacity(),
                    mapped + arena.mapped.capacity(),
                    tile + arena.tile.capacity(),
                )
            })
    }
}

/// Reusable scratch arenas lent to the conflict builders. All buffers
/// persist across iterations (and across backends within an iteration):
/// they are cleared, never dropped, and the output CSR's arrays come
/// back through [`IterationContext::recycle_csr`], so a steady-state
/// sequential build allocates nothing (`tests/memory.rs`).
#[derive(Debug, Default)]
pub struct IterationScratch {
    /// The COO every conflict builder stages into and assembles from:
    /// one edge-group arena ([`graph::CooGroups`], groups `[pivot, len,
    /// v_1 … v_len]`) per cut of flat pivot rows, in row order. The
    /// sequential build's one cut and the all-pairs build write
    /// `blocks[0]`; the rayon build and the device kernel write one arena
    /// per block of the row space. Read in order, the arenas hold the last build's groups —
    /// every arena it did not use is empty — and CSR assembly visits them
    /// so ([`graph::csr_from_groups_in`]). The list is grown, never
    /// shrunk, and every arena keeps its capacity.
    pub blocks: Vec<CooGroups>,
    /// `(u, v)` pair staging kept for the benchmark's traced replay,
    /// which scans into it and re-assembles it with the pair adapter
    /// ([`graph::csr_from_coo_sequential_in`]). No conflict builder
    /// reads or writes it.
    pub edges: Vec<(u32, u32)>,
    /// Oracle hit vector, kept for the benchmark's traced replay. No
    /// conflict builder touches it: every build scans out of
    /// [`IterationScratch::pool`].
    pub hits: Vec<bool>,
    /// Packed-kernel hit-mask words, kept for the benchmark's traced
    /// replay like [`IterationScratch::hits`]; no builder touches it.
    pub masks: Vec<u64>,
    /// Live-view index remapping, kept for the benchmark's traced replay
    /// like [`IterationScratch::hits`]; no builder touches it.
    pub mapped: Vec<usize>,
    /// Candidate-run staging, kept for the benchmark's traced replay like
    /// [`IterationScratch::hits`]; no builder touches it.
    pub run: Vec<usize>,
    /// The scan-buffer arena pool every engine-driven build draws from:
    /// the sequential build's one cut, the rayon build's cuts and every
    /// device's blocks each check out one arena instead of allocating.
    pub pool: ScratchPool,
    /// The conflict graph in hit-mask form ([`crate::conflict::HitMasks`]):
    /// one square bit matrix per palette bucket, written by a host build
    /// ([`crate::conflict::build_host`]) that keeps the masks instead of
    /// a CSR, and read by Lines 8–9 of the same iteration. Grown, never
    /// shrunk, and untouched (so never grown) by iterations that keep
    /// the CSR.
    pub hit_masks: HitMasks,
    /// CSR assembly arena: the offset/adjacency/cursor arrays every
    /// builder assembles its output graph into. The solver hands retired
    /// graphs back via [`IterationContext::recycle_csr`], closing the
    /// loop that makes steady-state Line 7 — **including CSR assembly**
    /// — allocation-free.
    pub csr: CsrArena,
    /// Line-8/9 buffers for the sequential coloring schemes (live holder
    /// sets or position masks, size buckets, stamps). Persists across
    /// iterations so the warm greedy path allocates nothing
    /// (`tests/memory.rs`).
    pub color: ColorScratch,
}

/// The per-iteration workspace: owns the color lists, the shared bucket
/// index, and the scratch arenas. Constructed once per solve; every
/// stage of every round borrows from it.
#[derive(Debug)]
pub struct IterationContext {
    lists: ColorLists,
    index: BucketIndex,
    /// Whether `index` reflects the current lists.
    index_valid: bool,
    /// Engine decision for the current lists (pure function of them).
    bucketed: bool,
    /// Bucket-size histogram of the current lists (pre-oracle).
    load: BucketLoad,
    /// Total index builds across the context's lifetime; at most one per
    /// iteration by construction (the validity flag), counted so tests
    /// can pin the shared-index contract.
    index_builds: usize,
    /// The persistent packed-replica arena (see [`crate::packed`]).
    packed: PackedBuckets,
    /// Whether the packing decision has been made for the current lists.
    packed_valid: bool,
    /// Whether the current iteration's builds use the packed kernel
    /// (valid only when `packed_valid`).
    packed_active: bool,
    /// Total packed-replica builds — at most one per iteration, shared
    /// by every backend of the round, mirrored by the solver into
    /// [`PicassoResult::pack_builds`](crate::PicassoResult::pack_builds).
    pack_builds: usize,
    scratch: IterationScratch,
    /// Cooperative cancellation point for the solver: when set, the
    /// iteration loop checks it between phases and aborts with
    /// [`SolveError::DeadlineExceeded`](crate::SolveError::DeadlineExceeded).
    /// Deliberately context state, **not** [`crate::PicassoConfig`]
    /// state: a deadline must never enter result identity or cache
    /// fingerprints. `None` (the default) costs one branch per check.
    deadline: Option<Instant>,
    /// Fault plan handed to every [`device::DeviceSim`] the solver
    /// creates for this context's solves (chaos testing). Same
    /// placement rationale as `deadline`.
    fault_plan: Option<FaultPlan>,
}

impl Default for IterationContext {
    fn default() -> Self {
        IterationContext::new()
    }
}

impl IterationContext {
    /// An empty workspace (no vertices, warm nothing). Arenas fill and
    /// persist as iterations run.
    pub fn new() -> IterationContext {
        IterationContext {
            lists: ColorLists::empty(),
            index: BucketIndex::empty(),
            index_valid: false,
            bucketed: false,
            load: BucketLoad::default(),
            index_builds: 0,
            packed: PackedBuckets::new(),
            packed_valid: false,
            packed_active: false,
            pack_builds: 0,
            scratch: IterationScratch::default(),
            deadline: None,
            fault_plan: None,
        }
    }

    /// Arms (or clears) the solver's cooperative deadline. Callers that
    /// reuse one context across jobs must set it before **every** solve
    /// — it persists until replaced.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// The armed deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Installs (or clears) the fault plan a future solver-created device
    /// inherits. A no-op plan is kept as `None`.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan.filter(|p| !p.is_noop());
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault_plan
    }

    /// Line 6 for the solver: re-assigns the color lists **in place**
    /// (reusing the flat array), invalidates the previous iteration's
    /// index, and refreshes the bucket histogram / engine decision.
    /// Output is identical to a fresh [`ColorLists::assign`] with the
    /// same arguments.
    #[allow(clippy::too_many_arguments)]
    pub fn assign_lists(
        &mut self,
        n: usize,
        palette_base: u32,
        palette_size: u32,
        list_size: u32,
        seed: u64,
        iteration: u64,
    ) {
        self.lists
            .reassign(n, palette_base, palette_size, list_size, seed, iteration);
        self.refresh_after_lists_change();
    }

    /// Adopts externally built lists (tests, benches, direct builder
    /// use). Equivalent to [`IterationContext::assign_lists`] with the
    /// arguments that produced `lists`.
    pub fn set_lists(&mut self, lists: ColorLists) {
        self.lists = lists;
        self.refresh_after_lists_change();
    }

    fn refresh_after_lists_change(&mut self) {
        self.index_valid = false;
        self.packed_valid = false;
        self.packed_active = false;
        self.load = self.lists.bucket_load();
        self.bucketed =
            CandidateEngine::bucketed_is_cheaper(self.load.total_pairs, self.lists.len());
    }

    /// The current iteration's color lists.
    pub fn lists(&self) -> &ColorLists {
        &self.lists
    }

    /// The pre-oracle bucket-size histogram of the current lists.
    pub fn bucket_load(&self) -> BucketLoad {
        self.load
    }

    /// Whether the current iteration's engine decision is the bucketed
    /// scan (identical to [`CandidateEngine::prefers_buckets`] on the
    /// current lists).
    pub fn prefers_buckets(&self) -> bool {
        self.bucketed
    }

    /// Total bucket-index builds performed so far — at most one per
    /// iteration, however many backends ran in that iteration.
    pub fn index_builds(&self) -> usize {
        self.index_builds
    }

    /// Total packed-replica builds performed so far — at most one per
    /// iteration, shared by every backend of the round.
    pub fn pack_builds(&self) -> usize {
        self.pack_builds
    }

    /// Kept for callers written against the wall-clock packing
    /// autotuner: a no-op. An iteration packs exactly when the oracle has
    /// a packed form ([`graph::EdgeOracle::packed_form`]), so no build
    /// outcome feeds back into the decision and the solver no longer
    /// calls this.
    pub fn record_packing(
        &mut self,
        _build: &crate::conflict::ConflictBuild,
        _secs: f64,
        _packed_words: Option<usize>,
    ) {
    }

    /// Resolves the configured coloring scheme to the kernel that runs
    /// on this iteration's conflict instance — a fixed mapping; the
    /// instance shape (`|Vc|`, `|Ec|`, list size) does not enter it.
    pub fn choose_scheme(
        &self,
        scheme: ListColoringScheme,
        _vertices: usize,
        _edges: usize,
        _list_size: usize,
    ) -> SchemeKind {
        match scheme {
            ListColoringScheme::DynamicGreedy => SchemeKind::Greedy,
            ListColoringScheme::Static(_) => SchemeKind::Static,
        }
    }

    /// Kept for callers written against the wall-clock scheme autotuner:
    /// a no-op, like [`IterationContext::record_packing`]. The solver no
    /// longer calls it.
    pub fn record_coloring(
        &mut self,
        _kind: SchemeKind,
        _vertices: usize,
        _edges: usize,
        _list_size: usize,
        _secs: f64,
    ) {
    }

    /// The lists plus the coloring scratch — the borrow of the Line-8/9
    /// sequential schemes (field split, same shape as
    /// [`IterationContext::lists_and_scratch`]).
    pub fn lists_and_color_scratch(&mut self) -> (&ColorLists, &mut ColorScratch) {
        (&self.lists, &mut self.scratch.color)
    }

    /// The hit-mask conflict graph the last host build of this iteration
    /// kept, plus the lists and the coloring scratch — the borrow of
    /// Lines 8–9 when [`crate::conflict::build_host`] returned
    /// [`crate::conflict::HostGraph::Masks`].
    pub(crate) fn hit_mask_graph(&mut self) -> (MaskGraph<'_>, &ColorLists, &mut ColorScratch) {
        let index = self.bucketed.then_some(&self.index);
        let graph = MaskGraph::new(&self.scratch.hit_masks, index, &self.lists);
        (graph, &self.lists, &mut self.scratch.color)
    }

    /// Hands a retired conflict graph's storage back to the context's
    /// CSR arena, so the next build assembles into the same allocations
    /// — the final step of the allocation-free Line 7 loop. The solver
    /// calls this at the end of every iteration; external callers that
    /// keep their graphs simply skip it.
    pub fn recycle_csr(&mut self, graph: CsrGraph) {
        self.scratch.csr.recycle(graph);
    }

    /// Builds the bucket index for the current lists if the bucketed
    /// engine is selected and the index has not been built this
    /// iteration yet. Idempotent within an iteration.
    fn ensure_index(&mut self) {
        if self.bucketed && !self.index_valid {
            let _span = telemetry::span!("index_build");
            self.lists.bucket_index_into(&mut self.index);
            self.index_valid = true;
            self.index_builds += 1;
        }
    }

    /// Builds the packed oracle replica for the current iteration if the
    /// oracle has a packed form (the one packing rule) — lazily, at most
    /// once per iteration, into the persistent arena, in one serial
    /// `O(m·w)` pass ([`PackedBuckets::pack_from`]): the same key and
    /// query tables for either engine, read by the bucketed scans
    /// through the tiles they gather. Idempotent within an iteration:
    /// the decision (and the replica) is shared by every backend of the
    /// round.
    fn ensure_packed<O: EdgeOracle + ?Sized>(&mut self, oracle: &O) {
        if self.packed_valid {
            // The replica is cached per iteration: every build between
            // two lists changes must use the same oracle (the solver
            // always does — one LiveView per iteration). Debug builds
            // probe the cached query table against the caller's oracle
            // to catch accidental swaps.
            #[cfg(debug_assertions)]
            if self.packed_active {
                debug_assert!(
                    self.packed.probe_matches(oracle),
                    "a different oracle was passed mid-iteration: the packed replica is \
                     cached per iteration, so every build between lists changes must use \
                     the same oracle"
                );
            }
            return;
        }
        self.packed_valid = true;
        self.packed_active = false;
        if oracle.packed_form().is_none() {
            return;
        }
        let _span = telemetry::span!("replica_pack");
        if self.packed.pack_from(oracle, &self.lists, self.bucketed) {
            self.packed_active = true;
            self.pack_builds += 1;
        }
    }

    /// The candidate engine for the current iteration plus the scratch
    /// arenas — the borrow every engine-driven conflict builder starts
    /// from. Builds the shared index on first use (at most once per
    /// iteration).
    pub fn engine_and_scratch(&mut self) -> (CandidateEngine<'_>, &mut IterationScratch) {
        self.ensure_index();
        let index = self.bucketed.then_some(&self.index);
        (
            CandidateEngine::with_index(&self.lists, index),
            &mut self.scratch,
        )
    }

    /// [`IterationContext::engine_and_scratch`] plus this iteration's
    /// packed oracle replica (built on first use, `None` when the oracle
    /// has no packed form and the builds take the scalar block path).
    /// The borrow every packed-capable conflict builder starts from.
    ///
    /// **Contract:** the replica is cached for the whole iteration, so
    /// every build between two lists changes must pass the *same*
    /// oracle (as the solver does — one `LiveView` per iteration).
    /// Debug builds assert a probe of the cached query table against
    /// the caller's oracle.
    pub fn engine_packed_scratch<O: EdgeOracle + ?Sized>(
        &mut self,
        oracle: &O,
    ) -> (
        CandidateEngine<'_>,
        Option<&PackedBuckets>,
        &mut IterationScratch,
    ) {
        self.ensure_index();
        self.ensure_packed(oracle);
        let index = self.bucketed.then_some(&self.index);
        let packed = if self.packed_active {
            Some(&self.packed)
        } else {
            None
        };
        (
            CandidateEngine::with_index(&self.lists, index),
            packed,
            &mut self.scratch,
        )
    }

    /// The lists plus scratch arenas, without touching the engine or
    /// index — the borrow of the forced all-pairs reference path.
    pub fn lists_and_scratch(&mut self) -> (&ColorLists, &mut IterationScratch) {
        (&self.lists, &mut self.scratch)
    }

    /// The per-task arena pool the parallel backends draw from —
    /// introspection hook for the reuse tests and benches.
    pub fn scratch_pool(&self) -> &ScratchPool {
        &self.scratch.pool
    }

    /// Current arena capacities `(blocks, hits, mapped, tile)`: `blocks`
    /// in `u32` words, summed over the group arenas, and the scan buffers
    /// the builds use — the oracle hit vectors, live-view remaps and the
    /// bucketed packed scan's lane tiles — summed over the arenas resting
    /// in [`IterationScratch::pool`]. Introspection hook for the reuse
    /// tests.
    pub fn scratch_capacities(&self) -> (usize, usize, usize, usize) {
        let (hits, mapped, tile) = self.scratch.pool.capacities();
        (
            self.scratch.blocks.iter().map(CooGroups::capacity).sum(),
            hits,
            mapped,
            tile,
        )
    }

    /// Host bytes of this iteration's packed replica
    /// ([`PackedBuckets::device_bytes`]: the key and query tables,
    /// `16·m·w`) when a build packed it, else 0.
    pub fn replica_bytes(&self) -> usize {
        self.packed_replica().map_or(0, PackedBuckets::device_bytes)
    }

    /// How the scans of this iteration's packed replica ran the
    /// shared-color test ([`PackedBuckets::shared_color_filter`]); `None`
    /// when no build packed.
    pub fn shared_color_filter(&self) -> Option<SharedColorFilter> {
        self.packed_replica()
            .map(PackedBuckets::shared_color_filter)
    }

    /// The replica a build of this iteration packed, if any.
    fn packed_replica(&self) -> Option<&PackedBuckets> {
        (self.packed_valid && self.packed_active).then_some(&self.packed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::collect_pairs;

    #[test]
    fn index_is_built_lazily_and_at_most_once_per_iteration() {
        let mut ctx = IterationContext::new();
        ctx.set_lists(ColorLists::assign(120, 0, 30, 4, 3, 1));
        assert!(ctx.prefers_buckets());
        assert_eq!(ctx.index_builds(), 0, "lazy: no build before first use");
        // Three "backends" of the same iteration share one build.
        for _ in 0..3 {
            let (engine, _) = ctx.engine_and_scratch();
            assert!(engine.is_bucketed());
        }
        assert_eq!(ctx.index_builds(), 1);
        // Next iteration: exactly one more build.
        ctx.assign_lists(100, 30, 25, 4, 3, 2);
        let _ = ctx.engine_and_scratch();
        let _ = ctx.engine_and_scratch();
        assert_eq!(ctx.index_builds(), 2);
    }

    #[test]
    fn packed_replica_is_built_lazily_and_at_most_once_per_iteration() {
        use graph::EdgeOracle;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let strings = pauli::string::random_unique_set(120, 10, &mut rng);
        let set = pauli::EncodedSet::from_strings(&strings);
        let oracle = crate::oracle::PauliComplementOracle::new(&set);
        let mut ctx = IterationContext::new();
        ctx.set_lists(ColorLists::assign(120, 0, 30, 4, 3, 1));
        assert_eq!(ctx.pack_builds(), 0, "lazy: no pack before first use");
        // Three "backends" of one iteration share one replica.
        for _ in 0..3 {
            let (engine, packed, _) = ctx.engine_packed_scratch(&oracle);
            assert!(engine.is_bucketed());
            assert!(packed.is_some());
        }
        assert_eq!(ctx.pack_builds(), 1);
        assert_eq!(ctx.index_builds(), 1);
        // Next iteration (same live set size as the oracle): exactly one
        // more pack.
        ctx.assign_lists(120, 30, 25, 4, 3, 2);
        let _ = ctx.engine_packed_scratch(&oracle);
        let _ = ctx.engine_packed_scratch(&oracle);
        assert_eq!(ctx.pack_builds(), 2);
        // An unpackable oracle takes the scalar path.
        let fn_oracle = graph::FnOracle::new(120, |u, v| (u + v) % 2 == 0);
        assert!(fn_oracle.packed_form().is_none());
        ctx.assign_lists(120, 55, 25, 4, 3, 3);
        let (_, packed, _) = ctx.engine_packed_scratch(&fn_oracle);
        assert!(packed.is_none());
        assert_eq!(ctx.pack_builds(), 2);
    }

    #[test]
    fn all_pairs_iterations_never_build_the_index() {
        use rand::SeedableRng;
        let mut ctx = IterationContext::new();
        // L = P: buckets degenerate, engine falls back.
        ctx.set_lists(ColorLists::assign(80, 0, 3, 3, 5, 1));
        assert!(!ctx.prefers_buckets());
        let (engine, _) = ctx.engine_and_scratch();
        assert!(!engine.is_bucketed());
        assert_eq!(ctx.index_builds(), 0);
        // The all-pairs engine packs the identity layout — still without
        // the index.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let strings = pauli::string::random_unique_set(80, 10, &mut rng);
        let set = pauli::EncodedSet::from_strings(&strings);
        let oracle = crate::oracle::PauliComplementOracle::new(&set);
        let (engine, packed, _) = ctx.engine_packed_scratch(&oracle);
        assert!(!engine.is_bucketed());
        assert_eq!(packed.map(PackedBuckets::device_bytes), Some(16 * 80));
        assert_eq!((ctx.pack_builds(), ctx.index_builds()), (1, 0));
    }

    #[test]
    fn context_engine_emits_the_same_pairs_as_a_standalone_engine() {
        let lists = ColorLists::assign(90, 7, 20, 4, 11, 3);
        let index = lists.bucket_index();
        let standalone = collect_pairs(&CandidateEngine::with_index(&lists, Some(&index)));
        let mut ctx = IterationContext::new();
        ctx.set_lists(lists);
        let (engine, _) = ctx.engine_and_scratch();
        assert_eq!(collect_pairs(&engine), standalone);
        assert_eq!(engine.index().unwrap().total_pairs(), index.total_pairs());
    }

    #[test]
    fn bucket_load_matches_lists() {
        let lists = ColorLists::assign(70, 0, 15, 3, 9, 2);
        let expected = lists.bucket_load();
        let mut ctx = IterationContext::new();
        ctx.set_lists(lists);
        assert_eq!(ctx.bucket_load(), expected);
        assert!(ctx.bucket_load().total_pairs > 0);
    }

    #[test]
    fn scratch_pool_recycles_arenas() {
        let pool = ScratchPool::default();
        assert_eq!(pool.arenas_created(), 0);
        let mut a = pool.take();
        assert_eq!(pool.arenas_created(), 1);
        a.run.reserve(1000);
        let grown = a.run.capacity();
        pool.put(a);
        assert_eq!(pool.arenas_pooled(), 1);
        // A recycled arena keeps its grown buffers.
        let b = pool.take();
        assert_eq!(pool.arenas_created(), 1, "no new arena while one rests");
        assert!(b.run.capacity() >= grown);
        pool.put(b);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different oracle was passed mid-iteration")]
    fn swapping_oracles_mid_iteration_is_caught_in_debug() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let a =
            pauli::EncodedSet::from_strings(&pauli::string::random_unique_set(80, 10, &mut rng));
        let b =
            pauli::EncodedSet::from_strings(&pauli::string::random_unique_set(80, 10, &mut rng));
        let oracle_a = crate::oracle::PauliComplementOracle::new(&a);
        let oracle_b = crate::oracle::PauliComplementOracle::new(&b);
        let mut ctx = IterationContext::new();
        ctx.set_lists(ColorLists::assign(80, 0, 20, 4, 3, 1));
        let _ = ctx.engine_packed_scratch(&oracle_a);
        // Same lists, different oracle: the cached replica would be
        // wrong — the debug probe must refuse.
        let _ = ctx.engine_packed_scratch(&oracle_b);
    }

    #[test]
    fn scratch_arenas_persist_across_iterations() {
        use crate::conflict::build_sequential;
        use crate::oracle::LiveView;
        use graph::FnOracle;
        let inner = FnOracle::new(300, |u, v| (u * 13 + v * 7) % 3 == 0);
        let live: Vec<u32> = (0..150u32).map(|i| i * 2).collect();
        let oracle = LiveView::new(&inner, &live);
        let mut ctx = IterationContext::new();
        ctx.set_lists(ColorLists::assign(150, 0, 30, 4, 3, 1));
        let _ = build_sequential(&oracle, &mut ctx);
        let warm = ctx.scratch_capacities();
        assert!(warm.0 > 0 && warm.1 > 0 && warm.2 > 0, "arenas warmed");
        // Subsequent same-shape iterations must not grow the arenas.
        for iter in 2..5u64 {
            ctx.assign_lists(150, 0, 30, 4, 3, iter);
            let _ = build_sequential(&oracle, &mut ctx);
            assert_eq!(ctx.scratch_capacities(), warm, "iteration {iter}");
        }
    }
}
