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
//! lists, the shared [`BucketIndex`](crate::assign::BucketIndex) (built
//! at most once per iteration, lent to every backend), and the reusable
//! scratch arenas (COO group staging, oracle hit vectors, live-view
//! remapping buffers) that persist across iterations.
//!
//! # COO format
//!
//! Every builder stages its edges in one format, the edge groups of
//! [`graph::CooGroups`]: a flat `u32` buffer of `[pivot, len, v_1 …
//! v_len]`, the pivot stored once per group. The scans emit their hits
//! row by row — a pivot and the surviving members of its candidate run —
//! so a group is one pivot row and the COO costs about 4 bytes per edge
//! instead of the 8 of a `(u32, u32)` pair. The builder's `num_edges` is
//! the sum of the groups' lengths. The simulated device kernel still
//! stages flat `u, v` pairs in its device arena, as Algorithm 3's COO
//! does (so the COO lease and transfer accounting keep the
//! `2 · pairs` word bound); the host merge regroups them through the same
//! writer. [`IterationScratch::edges`], the old pair buffer, is no longer
//! touched by any builder: it stays only as the benchmark replay's pair
//! staging.
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
//! # The packed kernel, for either engine
//!
//! Whenever the iteration context packs ([`crate::packed`]), every
//! engine-driven builder scans through the AND-popcount hit-mask kernel
//! ([`crate::PairSource::scan_rows_packed`]) instead of the scalar
//! block path — the bucketed engine over its bucket-major replica, the
//! all-pairs engine over the identity layout (one bucket of all `m`
//! vertices, no index). The device build then charges the replica
//! instead of the raw encoded set. The scalar `Θ(m²)` scan survives
//! only as [`build_sequential_allpairs`] (backend
//! [`crate::ConflictBackend::AllPairs`]): it never packs, so it stays
//! the independent ground truth the equivalence suites check the packed
//! paths against.
//!
//! # Determinism
//!
//! All engine-driven backends — sequential, rayon-parallel and the
//! simulated device fleet (one device, or several sharded below bucket
//! granularity) — are required to produce **identical** CSR graphs (the
//! paper: "our GPU implementation produces exactly the same coloring as
//! the CPU-only one because the conflict graph construction is
//! deterministic"). The
//! argument: the emitted pair *set* is a pure function of the lists
//! (smallest-shared-color deduplication is scheduling-independent), the
//! oracle is pure, and every backend assembles with the one CSR builder
//! ([`graph::csr_from_groups_blocks_in`]), which counts both endpoints
//! and orders each adjacency row ascending. That row order alone makes
//! the output independent of edge order and of how the edges are split
//! into groups, so the edges of any scheduling (or any partition of the
//! flat pivot-row space across blocks and devices) collapse to the same
//! bit-identical CSR. The order decides only the assembly's cost: short
//! rows sort, long rows that arrive ascending stay, other long rows go
//! through a bitmap (see [`graph::builder`]). The sequential scans emit
//! their groups in pivot-row order; on all-pairs iterations pivots and
//! runs both ascend, so the scatter writes every row ascending. The
//! rayon build merges its blocks' groups in scheduling order but hands
//! them to the assembler in cut order, so its scatter sees those same
//! sequential groups. The device build regroups its flat pairs in
//! kernel order. Each pair is emitted once, as the assembler's
//! unique-edge contract requires.
//!
//! Each build reports `candidate_pairs`, the oracle-independent
//! enumeration work it performed (all-pairs: `m(m−1)/2`; bucketed: the
//! sum of in-bucket pair counts) — the quantity the `conflict_build`
//! bench compares across engines.

use crate::candidates::PairSource;
use crate::iteration::{IterationContext, IterationScratch, ScratchPool, TaskArena};
use crate::packed::{MaskScanStats, PackedBuckets};
use device::{DeviceError, DeviceSim};
use graph::{csr_from_groups_blocks_in, CooGroups, CsrArena, CsrGraph, EdgeOracle};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

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

/// Runs the candidates of contiguous flat rows `rows` through the
/// oracle, pushing hits as `(u, v)` pairs via `push`. With a packed
/// replica the edge bits come as `u64` hit masks from the bucket-major
/// lane kernel ([`PairSource::scan_rows_packed`] — no candidate-run
/// staging, no per-row gather, zero words skipped whole), with word/bit
/// counters accumulated into `stats`; otherwise the
/// batched-with-scratch scalar path runs. `run`, `hits`, `masks` and
/// `mapped` are caller-owned arenas (context scratch on
/// single-threaded paths, pooled [`TaskArena`] buffers on parallel
/// ones), so a warm scan allocates nothing either way.
///
/// [`TaskArena`]: crate::iteration::TaskArena
#[inline]
#[allow(clippy::too_many_arguments)]
fn scan_rows_edges<O: EdgeOracle, S: PairSource + ?Sized>(
    oracle: &O,
    source: &S,
    packed: Option<&PackedBuckets>,
    rows: std::ops::Range<usize>,
    run: &mut Vec<usize>,
    hits: &mut Vec<bool>,
    masks: &mut Vec<u64>,
    stats: &mut MaskScanStats,
    mapped: &mut Vec<usize>,
    mut push: impl FnMut(u32, u32),
) {
    if let Some(packed) = packed {
        source.scan_rows_packed(rows, packed, masks, stats, &mut |u, v| push(u, v));
        return;
    }
    source.scan_rows_scratch(rows, run, &mut |u, vs| {
        hits.clear();
        hits.resize(vs.len(), false);
        oracle.has_edge_block_scratch(u, vs, hits, mapped);
        for (&v, &hit) in vs.iter().zip(hits.iter()) {
            if hit {
                push(u as u32, v as u32);
            }
        }
    });
}

/// Shared atomic accumulator for per-task [`MaskScanStats`] on the
/// parallel and device paths.
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

/// Assembles the finished groups of `groups` as one block.
fn csr_from_groups_in(m: usize, groups: &CooGroups, csr: &mut CsrArena) -> CsrGraph {
    let words = groups.words();
    csr_from_groups_blocks_in(m, words, std::slice::from_ref(&(0..words.len())), csr)
}

/// Sequential bucketed build: one pass over the flat pivot-row space —
/// through the packed lane kernel whenever the context packed this
/// iteration — with the COO group/run/hit/remap arenas *and* the CSR
/// assembly arrays all drawn from the context. Once the arenas are warm (and
/// retired graphs are recycled via
/// [`IterationContext::recycle_csr`]), a steady-state build performs
/// **zero** heap allocations, output CSR included.
pub fn build_sequential<O: EdgeOracle>(oracle: &O, ctx: &mut IterationContext) -> ConflictBuild {
    let (engine, packed, scratch) = ctx.engine_packed_scratch(oracle);
    let m = engine.num_vertices();
    debug_assert_eq!(m, oracle.num_vertices());
    let IterationScratch {
        groups,
        hits,
        masks,
        mapped,
        run,
        csr,
        ..
    } = scratch;
    groups.clear();
    let mut stats = MaskScanStats::default();
    let scan_span = telemetry::SpanGuard::begin(
        if packed.is_some() {
            "packed_scan"
        } else {
            "scalar_scan"
        },
        "",
        0,
    );
    scan_rows_edges(
        oracle,
        &engine,
        packed,
        0..engine.num_rows(),
        run,
        hits,
        masks,
        &mut stats,
        mapped,
        |u, v| groups.push(u, v),
    );
    groups.finish();
    drop(scan_span);
    let num_edges = groups.num_edges();
    let candidate_pairs = engine.candidate_pairs();
    let _csr_span = telemetry::span!("csr_assembly");
    ConflictBuild {
        graph: csr_from_groups_in(m, groups, csr),
        num_edges,
        candidate_pairs,
        packed_lanes: if packed.is_some() { candidate_pairs } else { 0 },
        scan_stats: stats,
        csr_on_device: None,
    }
}

/// The legacy all-pairs reference implementation
/// ([`crate::ConflictBackend::AllPairs`]): a verbatim `Θ(m²)` scalar
/// scan, kept as the independent ground truth the bucketed backends are
/// validated against. Ignores the engine (and never builds the shared
/// index); only the context's COO group and CSR arenas are reused.
pub fn build_sequential_allpairs<O: EdgeOracle>(
    oracle: &O,
    ctx: &mut IterationContext,
) -> ConflictBuild {
    let (lists, scratch) = ctx.lists_and_scratch();
    let m = oracle.num_vertices();
    debug_assert_eq!(m, lists.len());
    let IterationScratch { groups, csr, .. } = scratch;
    groups.clear();
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
        graph: csr_from_groups_in(m, groups, csr),
        num_edges,
        candidate_pairs: m64 * m64.saturating_sub(1) / 2,
        packed_lanes: 0,
        scan_stats: MaskScanStats::default(),
        csr_on_device: None,
    }
}

/// Rayon-parallel bucketed build over pair-balanced blocks of the flat
/// pivot-row space. Every block checks a [`TaskArena`] out of the
/// context's [`ScratchPool`] for its staging/run/hit/remap buffers and
/// returns it afterwards, so once the pool holds one arena per thread
/// the parallel path allocates
/// **no staging buffers per task** — the per-thread extension of the
/// context's zero-allocation property. Each block stages its edges as
/// groups and appends them to the context's group arena under a lock in
/// scheduling order, recording their word range in the context's block
/// table ([`IterationScratch::edge_blocks`]); a pivot row never spans
/// two cuts, so every range holds whole groups. CSR assembly then
/// scatters those ranges in cut order
/// ([`graph::csr_from_groups_blocks_in`]), which is exactly the
/// sequential build's COO order: rows arrive as ordered as the
/// sequential scan leaves them, and the output is bit-identical to the
/// sequential build under any scheduling. The group arena keeps the
/// blocks in scheduling order. [`IterationScratch::edges`] is left
/// untouched.
pub fn build_parallel<O: EdgeOracle>(oracle: &O, ctx: &mut IterationContext) -> ConflictBuild {
    let (engine, packed, scratch) = ctx.engine_packed_scratch_par(oracle);
    let m = engine.num_vertices();
    debug_assert_eq!(m, oracle.num_vertices());
    let IterationScratch {
        groups,
        edge_blocks,
        pool,
        csr,
        ..
    } = scratch;
    let pool: &ScratchPool = pool;
    groups.clear();
    let row_weights = engine.row_weights();
    let cuts = device::balanced_weight_cuts(&row_weights, rayon::current_num_threads() * 4);
    edge_blocks.clear();
    edge_blocks.resize(cuts.len(), 0..0);
    let merged = std::sync::Mutex::new((std::mem::take(groups), std::mem::take(edge_blocks)));
    let shared_stats = SharedScanStats::default();
    let scan_span = telemetry::SpanGuard::begin(
        if packed.is_some() {
            "packed_scan"
        } else {
            "scalar_scan"
        },
        "",
        0,
    );
    cuts.into_par_iter().enumerate().for_each(|(cut, rows)| {
        let mut arena = pool.take();
        let TaskArena {
            groups: staged,
            run,
            hits,
            masks,
            mapped,
            ..
        } = &mut arena;
        staged.clear();
        let mut stats = MaskScanStats::default();
        scan_rows_edges(
            oracle,
            &engine,
            packed,
            rows,
            run,
            hits,
            masks,
            &mut stats,
            mapped,
            |u, v| staged.push(u, v),
        );
        staged.finish();
        shared_stats.add(stats);
        if !staged.words().is_empty() {
            let mut guard = merged
                .lock()
                .expect("COO merge lock poisoned: another block panicked while merging");
            let (coo, blocks) = &mut *guard;
            let start = coo.words().len();
            coo.append(staged);
            blocks[cut] = start..coo.words().len();
        }
        pool.put(arena);
    });
    (*groups, *edge_blocks) = merged
        .into_inner()
        .expect("COO merge lock poisoned: a block panicked while merging");
    drop(scan_span);
    let num_edges = groups.num_edges();
    let candidate_pairs = engine.candidate_pairs();
    let _csr_span = telemetry::span!("csr_assembly");
    ConflictBuild {
        graph: csr_from_groups_blocks_in(m, groups.words(), edge_blocks, csr),
        num_edges,
        candidate_pairs,
        packed_lanes: if packed.is_some() { candidate_pairs } else { 0 },
        scan_stats: shared_stats.into_stats(),
        csr_on_device: None,
    }
}

/// The staged pair kernel every device of a fleet launches on `dev`
/// over its flat rows `base..base + weights.len()`: blocks own
/// pair-balanced row ranges ([`DeviceSim::launch_weighted_span`]), draw
/// their staging buffers from the context's arena `pool`, stage their
/// edges locally as flat `u, v` words, and bulk-reserve output slots in
/// `coo` with one atomic `fetch_add`, so the write pattern is
/// race-free. A block whose slots would run past `coo` raises the
/// overflow flag instead of writing, and the launch fails with
/// [`DeviceError::OutOfMemory`]. Returns the number of `coo` words
/// written.
#[allow(clippy::too_many_arguments)]
fn launch_staged_pair_kernel<O: EdgeOracle, S: PairSource + ?Sized>(
    dev: &DeviceSim,
    oracle: &O,
    source: &S,
    packed: Option<&PackedBuckets>,
    pool: &ScratchPool,
    coo: &mut [u32],
    weights: &[u64],
    base: usize,
    num_blocks: usize,
    stats: &SharedScanStats,
) -> Result<usize, DeviceError> {
    struct SendPtr(*mut u32);
    // SAFETY: the one field points into `coo`, which stays mutably
    // borrowed for the whole launch; blocks write through it only at the
    // disjoint slot ranges `cursor` hands out, and the launch joins every
    // block before `coo` is read.
    unsafe impl Send for SendPtr {}
    unsafe impl Sync for SendPtr {}
    let slots = coo.len();
    let out = SendPtr(coo.as_mut_ptr());
    let out_ref = &out;
    let cursor = AtomicUsize::new(0);
    let overflow = AtomicBool::new(false);
    dev.launch_weighted_span(weights, base, num_blocks, |_b, rows| {
        let mut arena = pool.take();
        let TaskArena {
            staged,
            run,
            hits,
            masks,
            mapped,
            ..
        } = &mut arena;
        staged.clear();
        let mut block_stats = MaskScanStats::default();
        scan_rows_edges(
            oracle,
            source,
            packed,
            rows,
            run,
            hits,
            masks,
            &mut block_stats,
            mapped,
            |u, v| {
                staged.push(u);
                staged.push(v);
            },
        );
        stats.add(block_stats);
        if !staged.is_empty() {
            let at = cursor.fetch_add(staged.len(), Ordering::Relaxed);
            if at + staged.len() > slots {
                overflow.store(true, Ordering::Relaxed);
            } else {
                // SAFETY: `fetch_add` hands every block a disjoint slot
                // range, checked to end within `coo`.
                unsafe {
                    std::ptr::copy_nonoverlapping(staged.as_ptr(), out_ref.0.add(at), staged.len());
                }
            }
        }
        pool.put(arena);
    })?;
    let used = cursor.into_inner();
    if overflow.into_inner() {
        return Err(DeviceError::OutOfMemory {
            requested: used * std::mem::size_of::<u32>(),
            available: std::mem::size_of_val(coo),
        });
    }
    Ok(used)
}

/// Pushes a device kernel's flat `u, v, u, v, …` words into `groups`:
/// consecutive pairs of one pivot (a kernel block stages each row's hits
/// together) share a group.
fn regroup(groups: &mut CooGroups, flat: &[u32]) {
    for pair in flat.chunks_exact(2) {
        groups.push(pair[0], pair[1]);
    }
}

/// Per-vertex byte footprint of the inputs Algorithm 3 copies to the GPU:
/// the packed 3-bit Pauli words plus the color list.
pub fn device_input_bytes_per_vertex(num_qubits: usize, list_size: usize) -> usize {
    pauli::encode::words_for(num_qubits) * std::mem::size_of::<u64>()
        + list_size * std::mem::size_of::<u32>()
}

/// One contiguous, pair-balanced span of flat pivot rows per device
/// ([`device::balanced_weight_cuts`]), together covering every row: the
/// zero-weight tail the cuts may leave joins the last span, and devices
/// past the cuts get empty spans. A fleet of one gets the whole row
/// space.
fn device_spans(weights: &[u64], devices: usize) -> Vec<std::ops::Range<usize>> {
    let rows = weights.len();
    let mut spans = device::balanced_weight_cuts(weights, devices);
    // A cut past the `devices`-th opens only once the first `devices`
    // ideal shares cover the total weight, so it carries no pairs.
    spans.truncate(devices);
    if let Some(last) = spans.last_mut() {
        last.end = rows;
    }
    spans.resize(devices, rows..rows);
    spans
}

/// Algorithm 3 on a fleet of simulated devices, extended with the
/// bucketed candidate engine and the packed oracle replica. A single
/// GPU — the paper's build — is a fleet of one; several devices are the
/// paper's stated future work ("distributed multi-GPU parallel
/// implementations").
///
/// The engine's flat pivot-row space (one row per bucket position for
/// the bucketed engine, one per vertex for the all-pairs fallback) is
/// cut into one contiguous, pair-balanced span per device. A span may
/// start and end *mid-bucket*: a bucket's pair triangle splits across
/// devices at row granularity, which is what lets a two-color palette
/// (two buckets) still occupy eight devices. Each device, in fleet
/// order, walks the same budget steps, following the paper line by line:
/// 1. upload the input replica: the raw encoded strings + color lists
///    (`input_bytes_per_vertex · m`) on the scalar path, or — when the
///    iteration packed — the color lists plus the slice of the **packed
///    replica** its span reads (key lanes, query rows and palette
///    bitmasks, [`PackedBuckets::device_bytes_for_span`]; the whole
///    [`PackedBuckets::device_bytes`] for a fleet of one), charged
///    *instead of* the raw set,
/// 2. reserve one edge-offset counter per pivot row of the span, at
///    most `m` (4-byte, or 8-byte once `m² ≥ 2³²`),
/// 3. upload the bucket index (`N·L + P + 1` u32 values) when the
///    bucketed engine is selected — every device holds a replica of the
///    one host-built index,
/// 4. reserve `min(2 · span pairs, whatever fits)` u32 slots for the
///    unordered COO edge list, staged as flat `u, v` pairs (each
///    candidate yields at most one edge; a group layout could need three
///    words for a one-hit row and break that bound). The budget charge
///    is a [`device::DeviceLease`]; the backing storage is the
///    context's reused COO word arena (devices run one after another,
///    so one arena serves all), so a warm build allocates no host
///    memory for it,
/// 5. launch the staged pair kernel over the span
///    ([`DeviceSim::launch_weighted_span`]: blocks own contiguous row
///    ranges of near-equal pair weight, stage locally and bulk-reserve
///    slots with one atomic),
/// 6. on a fleet of one, if the CSR (2·|Ec| adjacency slots) fits in
///    the memory still available next to the COO arena, assemble it
///    "on device" and download it; otherwise download the raw edge list
///    for host assembly.
///
/// With `m < 2` each device stops after step 2, and a span without
/// candidate pairs after step 3. The pairs are regrouped into the
/// context's group arena and the CSR arrays come from the context's CSR
/// arena; the graph is bit-identical for any fleet and placement.
///
/// Fails with [`DeviceError::OutOfMemory`] when a device's inputs don't
/// fit or its kernel produces more edges than its allocation holds —
/// the same failure the paper reports for its largest instance on the
/// 40 GB A100.
///
/// # Panics
///
/// If `fleet` is empty.
pub fn build_device<O: EdgeOracle>(
    oracle: &O,
    ctx: &mut IterationContext,
    fleet: &[DeviceSim],
    input_bytes_per_vertex: usize,
) -> Result<ConflictBuild, DeviceError> {
    assert!(!fleet.is_empty(), "need at least one device");
    let list_bytes = ctx.lists().list_size() * std::mem::size_of::<u32>();
    let (engine, packed, scratch) = ctx.engine_packed_scratch_par(oracle);
    let m = engine.num_vertices();
    debug_assert_eq!(m, oracle.num_vertices());
    let IterationScratch {
        groups,
        pool,
        coo,
        csr,
        ..
    } = scratch;
    let pool: &ScratchPool = pool;
    // Only a lone device keeps the CSR next to its COO arena.
    let mut on_device = fleet.len() == 1;
    if m == 0 {
        return Ok(ConflictBuild {
            graph: CsrGraph::empty(0),
            num_edges: 0,
            candidate_pairs: 0,
            packed_lanes: 0,
            scan_stats: MaskScanStats::default(),
            csr_on_device: Some(on_device),
        });
    }
    // Edge-offset counters are 8-byte once |V|² overflows u32 (paper §V).
    let wide_counters = (m as u64).saturating_mul(m as u64) >= u32::MAX as u64;
    let counter_bytes = if wide_counters { 8 } else { 4 };
    let candidate_pairs = engine.candidate_pairs();
    let row_weights = engine.row_weights();
    groups.clear();
    let shared_stats = SharedScanStats::default();
    for (span, dev) in device_spans(&row_weights, fleet.len())
        .into_iter()
        .zip(fleet)
    {
        // (1) Input replica, charged and counted as an H2D transfer.
        let input_bytes = match packed {
            Some(p) => m * list_bytes + p.device_bytes_for_span(engine.index(), span.clone()),
            None => m * input_bytes_per_vertex,
        };
        let _input = dev.reserve(input_bytes)?;
        dev.note_h2d(input_bytes);

        // (2) Edge-offset counters.
        let _counters = dev.reserve(span.len().min(m) * counter_bytes)?;
        // A single vertex has no candidate pairs; nothing to build.
        if m < 2 {
            continue;
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
        let span_weights = &row_weights[span.clone()];
        let span_pairs: u64 = span_weights.iter().sum();
        if span_pairs == 0 {
            continue;
        }

        // (4) The unordered COO edge list: all remaining memory, capped
        // at two u32 slots per candidate pair of the span.
        let worst_slots = 2u64.saturating_mul(span_pairs).min(usize::MAX as u64) as usize;
        let avail_slots = dev.available_bytes() / std::mem::size_of::<u32>();
        let edge_slots = worst_slots.min(avail_slots);
        if edge_slots == 0 {
            return Err(DeviceError::OutOfMemory {
                requested: std::mem::size_of::<u32>(),
                available: dev.available_bytes(),
            });
        }
        let _edge_lease = dev.reserve(edge_slots * std::mem::size_of::<u32>())?;
        coo.clear();
        coo.resize(edge_slots, 0);

        // (5) Staged pair kernel over pair-balanced blocks of the span
        // (global row ids), regrouped in kernel order: CSR assembly
        // orders each row, so block scheduling cannot change the graph.
        let used = launch_staged_pair_kernel(
            dev,
            oracle,
            &engine,
            packed,
            pool,
            coo,
            span_weights,
            span.start,
            rayon::current_num_threads() * 4,
            &shared_stats,
        )?;
        regroup(groups, &coo[..used]);

        // (6) CSR placement (Line 5 of Algorithm 3, `|Ecoo| <=
        // AvailMem/2`): the CSR stores each edge twice — as many words
        // as the COO's pairs, so the download has the same size either
        // way. It stays on the device only if it fits in the memory
        // still available *next to* the COO arena; a failed
        // reservation means host assembly. The graph is the same
        // either way.
        let bytes = used * std::mem::size_of::<u32>();
        on_device = on_device
            && bytes <= dev.available_bytes()
            && dev.reserve(bytes.max(std::mem::size_of::<u32>())).is_ok();
        dev.note_d2h(bytes);
    }
    groups.finish();

    let num_edges = groups.num_edges();
    Ok(ConflictBuild {
        graph: csr_from_groups_in(m, groups, csr),
        num_edges,
        candidate_pairs,
        packed_lanes: if packed.is_some() { candidate_pairs } else { 0 },
        scan_stats: shared_stats.into_stats(),
        csr_on_device: Some(on_device),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::ColorLists;
    use graph::FnOracle;

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
    fn device_fleets_agree_with_host_builds() {
        for m in [1usize, 8, 50, 150] {
            let oracle = dense_oracle(m);
            // The second palette has two colors and one-slot lists: two
            // buckets, so whole-bucket blocks would give the kernel at
            // most two tasks; its row blocks split each bucket's triangle.
            for lists in [
                ColorLists::assign(m, 10, (m as u32 / 4).max(2), 3, 9, 1),
                ColorLists::assign(m, 0, 2, 1, 3, 0),
            ] {
                let mut ctx = ctx_for(&lists);
                let seq = build_sequential(&oracle, &mut ctx);
                let host = build_parallel(&oracle, &mut ctx);
                assert_eq!(seq.graph, host.graph);
                for devices in [1usize, 2, 4, 8] {
                    let what = format!("m={m} P={} devices={devices}", lists.palette_size());
                    let fleet: Vec<DeviceSim> =
                        (0..devices).map(|_| DeviceSim::new(16 << 20)).collect();
                    let built = build_device(&oracle, &mut ctx, &fleet, 16).unwrap();
                    assert_eq!(built.graph, host.graph, "{what}");
                    assert_eq!(built.num_edges, host.num_edges, "{what}");
                    assert_eq!(built.candidate_pairs, host.candidate_pairs, "{what}");
                    // Only a lone device keeps the CSR; 16 MiB holds it.
                    assert_eq!(built.csr_on_device, Some(devices == 1), "{what}");
                    for d in &fleet {
                        // Every device holds an input replica, launches
                        // at most once and releases its buffers.
                        assert!(d.stats().h2d_bytes >= m * 16, "{what}");
                        assert!(d.stats().kernel_launches <= 1, "{what}");
                        assert_eq!(d.used_bytes(), 0, "{what}");
                    }
                    assert!(ctx.index_builds() <= 1, "index shared across backends");
                }
            }
        }
    }

    #[test]
    fn device_spans_tile_the_row_space() {
        let weights = [3u64, 0, 2, 1, 0, 0];
        assert_eq!(device_spans(&weights, 1), vec![0..6]);
        // The zero-weight tail joins the last span ...
        assert_eq!(device_spans(&weights, 2), [0..1, 1..6]);
        // ... and devices past the balanced cuts get empty spans.
        assert_eq!(device_spans(&weights, 4), [0..1, 1..3, 3..6, 6..6]);
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
        let _ = build_device(&oracle, &mut ctx, std::slice::from_ref(&dev), 16).unwrap();
        pinned(&ctx, "device build");
    }

    #[test]
    fn packed_kernel_builds_identical_csrs_across_all_backends() {
        use crate::oracle::PauliComplementOracle;
        use crate::packed::PackingMode;
        use rand::SeedableRng;
        // Single-word (≤21 qubits) and multi-word (>21) packed forms.
        for qubits in [10usize, 25] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(qubits as u64);
            let strings = pauli::string::random_unique_set(140, qubits, &mut rng);
            let set = pauli::EncodedSet::from_strings(&strings);
            let oracle = PauliComplementOracle::new(&set);
            let lists = ColorLists::assign(140, 0, 24, 4, 9, 1);

            let mut scalar_ctx = ctx_for(&lists);
            scalar_ctx.set_packing(PackingMode::Never);
            let reference = build_sequential(&oracle, &mut scalar_ctx);
            assert_eq!(reference.packed_lanes, 0, "Never mode must not pack");
            assert_eq!(scalar_ctx.pack_builds(), 0);

            let mut ctx = ctx_for(&lists);
            ctx.set_packing(PackingMode::Always);
            let seq = build_sequential(&oracle, &mut ctx);
            let par = build_parallel(&oracle, &mut ctx);
            let dev = DeviceSim::new(64 * 1024 * 1024);
            let devb = build_device(&oracle, &mut ctx, std::slice::from_ref(&dev), 16).unwrap();
            let fleet: Vec<DeviceSim> = (0..3).map(|_| DeviceSim::new(32 * 1024 * 1024)).collect();
            let multi = build_device(&oracle, &mut ctx, &fleet, 16).unwrap();
            let allpairs = build_sequential_allpairs(&oracle, &mut ctx);

            for (name, b) in [
                ("seq", &seq),
                ("par", &par),
                ("dev", &devb),
                ("multi", &multi),
            ] {
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
    fn packed_device_spans_charge_only_their_replica_slice() {
        // Each device uploads exactly the lists, the slice of the packed
        // replica its span reads and the bucketed engine's index: never
        // the raw set, and on a wider fleet not all `m` query rows
        // either. A fleet of one reads the whole replica — at 12 qubits
        // (one word per row) `(key rows + m query rows + m one-word
        // palette bitmasks) · 8 B` next to the `m·L·4 B` lists.
        use crate::oracle::PauliComplementOracle;
        use crate::packed::{PackedBuckets, PackingMode};
        use rand::SeedableRng;
        let m = 150;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let strings = pauli::string::random_unique_set(m, 12, &mut rng);
        let set = pauli::EncodedSet::from_strings(&strings);
        let oracle = PauliComplementOracle::new(&set);
        for (palette, list) in [(30u32, 3usize), (8, 6)] {
            let lists = ColorLists::assign(m, 0, palette, list as u32, 5, 0);
            let mut ctx = ctx_for(&lists);
            ctx.set_packing(PackingMode::Always);
            let bucketed = ctx.prefers_buckets();
            assert_eq!(bucketed, palette == 30);
            let index = bucketed.then(|| lists.bucket_index());
            let index_bytes = index.as_ref().map_or(0, |i| i.device_bytes());
            let list_bytes = m * list * 4;
            let mut packed = PackedBuckets::new();
            assert!(packed.pack_from(&oracle, &lists, index.as_ref()));
            let key_rows = if bucketed { m * list } else { m };
            assert_eq!(packed.device_bytes(), (key_rows + 2 * m) * 8);
            let reference = build_sequential_allpairs(&oracle, &mut ctx).graph;
            let weights = ctx.engine_and_scratch().0.row_weights();
            for devices in [1usize, 4] {
                let what = format!("P={palette} devices={devices}");
                let fleet: Vec<DeviceSim> = (0..devices).map(|_| DeviceSim::new(8 << 20)).collect();
                let built = build_device(&oracle, &mut ctx, &fleet, 16).unwrap();
                assert_eq!(built.graph, reference, "{what}");
                assert_eq!(built.packed_lanes, built.candidate_pairs, "{what}");
                let mut narrow = 0;
                for (span, dev) in device_spans(&weights, devices).into_iter().zip(&fleet) {
                    let span_bytes = packed.device_bytes_for_span(index.as_ref(), span.clone());
                    assert_eq!(
                        dev.stats().h2d_bytes,
                        list_bytes + span_bytes + index_bytes,
                        "{what} span {span:?}"
                    );
                    narrow += usize::from(span_bytes < packed.device_bytes());
                }
                assert_eq!(narrow > 0, devices > 1, "{what}: {narrow} narrow spans");
            }
            assert_eq!(ctx.pack_builds(), 1, "one replica served every fleet");
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

    #[test]
    fn group_bytes_and_parallel_blocks_replay_the_sequential_groups() {
        // The COO's size is pinned: `num_edges` entry words plus two
        // header words per group, at most one group per pivot row. The
        // rayon build's block table, visited in cut order, is the
        // sequential build's group buffer word for word — on a bucketed
        // and on an all-pairs packed iteration. On the all-pairs one that
        // order leaves every row ascending, so neither build ever needs
        // the assembler's row bitmap. Neither build touches the pair
        // buffer `edges`. (A pivot whose rows sat on both sides of a cut,
        // with no hit between them, would be one group sequentially and
        // two in parallel — same graph; these instances have none.)
        use crate::oracle::PauliComplementOracle;
        use crate::packed::PackingMode;
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
            ctx.set_packing(PackingMode::Always);
            assert_eq!(ctx.prefers_buckets(), bucketed, "{what}");
            let rows = ctx.engine_and_scratch().0.num_rows();
            ctx.lists_and_scratch().1.edges.push((0, 1));
            let seq = build_sequential(&oracle, &mut ctx);
            let seq_words = ctx.lists_and_scratch().1.groups.words().to_vec();
            let (groups, entries) = count_groups(&seq_words);
            assert_eq!(entries, seq.num_edges, "{what}");
            assert_eq!(seq_words.len(), seq.num_edges + 2 * groups, "{what}");
            assert!(groups <= rows, "{what}: {groups} groups, {rows} rows");
            assert!(groups < seq.num_edges, "{what}: runs hold several hits");

            let par = build_parallel(&oracle, &mut ctx);
            assert_eq!(par.packed_lanes, par.candidate_pairs, "{what}: packed");
            assert_eq!(par.graph, seq.graph, "{what}");
            assert_eq!(par.num_edges, seq.num_edges, "{what}");
            let scratch = ctx.lists_and_scratch().1;
            let nonempty = scratch.edge_blocks.iter().filter(|b| !b.is_empty()).count();
            assert!(nonempty > 1, "{what}: {nonempty} non-empty blocks");
            let visited: Vec<u32> = scratch
                .edge_blocks
                .iter()
                .flat_map(|b| scratch.groups.words()[b.clone()].iter().copied())
                .collect();
            assert_eq!(visited, seq_words, "{what}");
            assert_eq!(scratch.edges, [(0, 1)], "{what}: pair buffer untouched");
            let bitmap_words = scratch.csr.capacities().3;
            assert_eq!(bitmap_words == 0, !bucketed, "{what}: {bitmap_words}");
        }
    }

    #[test]
    fn auto_packing_requires_a_packable_oracle_and_real_pair_load() {
        // FnOracle has no packed form: Auto must fall back to the scalar
        // path and report zero packed lanes, with identical output.
        let m = 200;
        let oracle = dense_oracle(m);
        let lists = ColorLists::assign(m, 0, 30, 4, 3, 0);
        let mut ctx = ctx_for(&lists);
        let built = build_sequential(&oracle, &mut ctx);
        assert_eq!(built.packed_lanes, 0);
        assert_eq!(ctx.pack_builds(), 0);
        let mut scalar_ctx = ctx_for(&lists);
        scalar_ctx.set_packing(crate::packed::PackingMode::Never);
        assert_eq!(
            built.graph,
            build_sequential(&oracle, &mut scalar_ctx).graph
        );
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
    fn sub_bucket_sharding_splits_coarse_buckets() {
        // Two-color palette: only two buckets, but seven devices must all
        // receive pair work — the degenerate case row sharding of buckets
        // cannot handle.
        let m = 120;
        let oracle = dense_oracle(m);
        // L=1 over P=2: two disjoint buckets, each ~m/2 deep; the
        // bucketed engine wins (Σ|B|² / 2 ≈ m²/4 < m²/2).
        let lists = ColorLists::assign(m, 0, 2, 1, 3, 0);
        let mut ctx = ctx_for(&lists);
        assert!(ctx.prefers_buckets(), "two sparse buckets beat all-pairs");
        let host = build_sequential(&oracle, &mut ctx);
        let devices: Vec<DeviceSim> = (0..7).map(|_| DeviceSim::new(4 * 1024 * 1024)).collect();
        let multi = build_device(&oracle, &mut ctx, &devices, 16).unwrap();
        assert_eq!(host.graph, multi.graph);
        assert_eq!(host.candidate_pairs, multi.candidate_pairs);
        // All seven devices launched; the first several carry real pair
        // work even though there are only two buckets.
        let working = devices.iter().filter(|d| d.stats().d2h_bytes > 0).count();
        assert!(
            working >= 4,
            "sub-bucket sharding must spread two buckets over most of 7 devices (got {working})"
        );
        for d in &devices {
            assert_eq!(d.stats().kernel_launches, 1);
        }
    }

    #[test]
    fn multi_device_splits_memory_pressure() {
        // A workload that overflows one small device fits when sharded
        // over four of the same size: the point of going multi-GPU.
        let m = 400;
        let oracle = dense_oracle(m);
        let lists = ColorLists::assign(m, 0, 2, 2, 3, 0); // every adjacent pair conflicts
        let one = vec![DeviceSim::new(128 * 1024)];
        assert!(matches!(
            build_device(&oracle, &mut ctx_for(&lists), &one, 16),
            Err(DeviceError::OutOfMemory { .. })
        ));
        let four: Vec<DeviceSim> = (0..4).map(|_| DeviceSim::new(128 * 1024)).collect();
        let built = build_device(&oracle, &mut ctx_for(&lists), &four, 16).unwrap();
        assert!(built.num_edges > 0);
    }

    /// One device run of the golden pin: the device's counters, then
    /// where the CSR was assembled or the OOM payload.
    type DevicePin = (usize, usize, usize, usize, Result<bool, (usize, usize)>);

    /// Algorithm 3 on a fleet of one, as the golden pin drives it.
    fn pin_build(
        oracle: &crate::oracle::PauliComplementOracle<'_, pauli::EncodedSet>,
        ctx: &mut IterationContext,
        dev: &DeviceSim,
    ) -> Result<ConflictBuild, DeviceError> {
        build_device(oracle, ctx, std::slice::from_ref(dev), 16)
    }

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
        // `DeviceStats`, OOM payloads or fault-op numbering.
        use crate::oracle::PauliComplementOracle;
        use crate::packed::PackingMode;
        use rand::SeedableRng;
        #[rustfmt::skip]
        const PINNED: [(usize, bool, bool, usize, [DevicePin; 3]); 20] = [
            (0, true, true, 0, [(0, 0, 0, 0, Ok(true)), (0, 0, 0, 0, Ok(true)), (0, 0, 0, 0, Ok(true))]),
            (0, true, false, 0, [(0, 0, 0, 0, Ok(true)), (0, 0, 0, 0, Ok(true)), (0, 0, 0, 0, Ok(true))]),
            (0, false, true, 0, [(0, 0, 0, 0, Ok(true)), (0, 0, 0, 0, Ok(true)), (0, 0, 0, 0, Ok(true))]),
            (0, false, false, 0, [(0, 0, 0, 0, Ok(true)), (0, 0, 0, 0, Ok(true)), (0, 0, 0, 0, Ok(true))]),
            (1, true, true, 36, [(40, 36, 0, 0, Ok(true)), (36, 36, 0, 0, Err((4, 0))), (0, 0, 0, 0, Err((36, 9)))]),
            (1, true, false, 48, [(52, 48, 0, 0, Ok(true)), (48, 48, 0, 0, Err((4, 0))), (0, 0, 0, 0, Err((48, 12)))]),
            (1, false, true, 16, [(20, 16, 0, 0, Ok(true)), (16, 16, 0, 0, Err((4, 0))), (0, 0, 0, 0, Err((16, 4)))]),
            (1, false, false, 16, [(20, 16, 0, 0, Ok(true)), (16, 16, 0, 0, Err((4, 0))), (0, 0, 0, 0, Err((16, 4)))]),
            (2, true, true, 236, [(236, 228, 0, 0, Ok(true)), (236, 228, 0, 0, Ok(true)), (0, 0, 0, 0, Err((104, 59)))]),
            (2, true, false, 112, [(120, 96, 8, 1, Ok(true)), (112, 96, 8, 1, Ok(false)), (0, 0, 0, 0, Err((96, 28)))]),
            (2, false, true, 164, [(164, 156, 0, 0, Ok(true)), (164, 156, 0, 0, Ok(true)), (40, 32, 0, 0, Err((124, 1)))]),
            (2, false, false, 48, [(56, 32, 8, 1, Ok(true)), (48, 32, 8, 1, Ok(false)), (0, 0, 0, 0, Err((32, 12)))]),
            (50, true, true, 7212, [(8748, 3300, 1536, 1, Ok(true)), (7212, 3300, 1536, 1, Ok(false)), (0, 0, 0, 0, Err((2600, 1803)))]),
            (50, true, false, 12400, [(17048, 2400, 4648, 1, Ok(true)), (12400, 2400, 4648, 1, Ok(false)), (3100, 2400, 0, 1, Err((4648, 500)))]),
            (50, false, true, 5412, [(6948, 1500, 1536, 1, Ok(true)), (5412, 1500, 1536, 1, Ok(false)), (1000, 800, 0, 0, Err((700, 353)))]),
            (50, false, false, 10800, [(15448, 800, 4648, 1, Ok(true)), (10800, 800, 4648, 1, Ok(false)), (2700, 800, 0, 1, Err((4648, 1700)))]),
            (120, true, true, 29316, [(39180, 7780, 9864, 1, Ok(true)), (29316, 7780, 9864, 1, Ok(false)), (6720, 6240, 0, 0, Err((1540, 609)))]),
            (120, true, false, 63360, [(92120, 5760, 28760, 1, Ok(true)), (63360, 5760, 28760, 1, Ok(false)), (15840, 5760, 0, 1, Err((28760, 9600)))]),
            (120, false, true, 24996, [(34860, 3460, 9864, 1, Ok(true)), (24996, 3460, 9864, 1, Ok(false)), (6248, 3460, 0, 1, Err((9864, 2308)))]),
            (120, false, false, 59520, [(88280, 1920, 28760, 1, Ok(true)), (59520, 1920, 28760, 1, Ok(false)), (14880, 1920, 0, 1, Err((28760, 12480)))]),
        ];
        let mut rows = PINNED.iter();
        for m in [0usize, 1, 2, 50, 120] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(m as u64 + 40);
            let strings = pauli::string::random_unique_set(m, 12, &mut rng);
            let set = pauli::EncodedSet::from_strings(&strings);
            let oracle = PauliComplementOracle::new(&set);
            for packing in [PackingMode::Always, PackingMode::Never] {
                for (bucketed, palette, list) in [(true, 24u32, 3u32), (false, 8, 6)] {
                    let fresh = || {
                        let mut ctx = ctx_for(&ColorLists::assign(m, 0, palette, list, 5, 1));
                        ctx.set_packing(packing);
                        ctx
                    };
                    let &(pm, ppacked, pbucketed, tight, ref pruns) = rows.next().unwrap();
                    let what = format!("m={m} packing={packing:?} bucketed={bucketed}");
                    assert_eq!(
                        (pm, ppacked, pbucketed),
                        (m, packing == PackingMode::Always, bucketed)
                    );
                    for (capacity, pinned) in [64 << 20, tight, tight / 4].into_iter().zip(pruns) {
                        let dev = DeviceSim::new(capacity);
                        let built = pin_build(&oracle, &mut fresh(), &dev);
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
}
