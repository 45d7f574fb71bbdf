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
//! [`IterationContext`](crate::iteration::IterationContext): the color
//! lists, the shared [`BucketIndex`](crate::assign::BucketIndex) (built
//! at most once per iteration, lent to every backend), and the reusable
//! scratch arenas (COO staging, oracle hit vectors, live-view remapping
//! buffers) that persist across iterations.
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
//! vertices, no index). The device backends then charge the replica
//! instead of the raw encoded set. The scalar `Θ(m²)` scan survives
//! only as [`build_sequential_allpairs`] (backend
//! [`crate::ConflictBackend::AllPairs`]): it never packs, so it stays
//! the independent ground truth the equivalence suites check the packed
//! paths against.
//!
//! # Determinism
//!
//! All engine-driven backends — sequential, rayon-parallel,
//! simulated-device and sub-bucket-sharded multi-device — are required
//! to produce **identical** CSR graphs (the paper: "our GPU
//! implementation produces exactly the same coloring as the CPU-only one
//! because the conflict graph construction is deterministic"). The
//! argument: the emitted pair *set* is a pure function of the lists
//! (smallest-shared-color deduplication is scheduling-independent), the
//! oracle is pure, and every backend assembles with the one CSR builder
//! ([`graph::csr_from_coo_blocks_in`]), which counts both endpoints and
//! orders each adjacency row ascending. That row order alone makes the
//! output independent of edge order, so the edges of any scheduling (or
//! any partition of the flat pivot-row space across blocks and devices)
//! collapse to the same bit-identical CSR. The order decides only the
//! assembly's cost: short rows sort, long rows that arrive ascending
//! stay, other long rows go through a bitmap (see [`graph::builder`]).
//! The sequential scans emit the COO in pivot-row order, which leaves
//! every all-pairs row ascending; the rayon build merges its blocks in
//! scheduling order but hands them to the assembler in cut order, so
//! its scatter sees that same sequential COO. The device backends copy
//! their COO in kernel order. Each pair is emitted once, as the
//! assembler's unique-edge contract requires.
//!
//! Each build reports `candidate_pairs`, the oracle-independent
//! enumeration work it performed (all-pairs: `m(m−1)/2`; bucketed: the
//! sum of in-bucket pair counts) — the quantity the `conflict_build`
//! bench compares across engines.

use crate::candidates::PairSource;
use crate::iteration::{IterationContext, IterationScratch, ScratchPool, TaskArena};
use crate::packed::{MaskScanStats, PackedBuckets};
use device::{DeviceError, DeviceSim};
use graph::{csr_from_coo_blocks_in, csr_from_coo_sequential_in, CsrGraph, EdgeOracle};
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

/// Sequential bucketed build: one pass over the flat pivot-row space —
/// through the packed lane kernel whenever the context packed this
/// iteration — with the COO/run/hit/remap arenas *and* the CSR assembly
/// arrays all drawn from the context. Once the arenas are warm (and
/// retired graphs are recycled via
/// [`IterationContext::recycle_csr`]), a steady-state build performs
/// **zero** heap allocations, output CSR included.
pub fn build_sequential<O: EdgeOracle>(oracle: &O, ctx: &mut IterationContext) -> ConflictBuild {
    let (engine, packed, scratch) = ctx.engine_packed_scratch(oracle);
    let m = engine.num_vertices();
    debug_assert_eq!(m, oracle.num_vertices());
    let IterationScratch {
        edges,
        hits,
        masks,
        mapped,
        run,
        csr,
        ..
    } = scratch;
    edges.clear();
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
        |u, v| edges.push((u, v)),
    );
    drop(scan_span);
    let num_edges = edges.len();
    let candidate_pairs = engine.candidate_pairs();
    let _csr_span = telemetry::span!("csr_assembly");
    ConflictBuild {
        graph: csr_from_coo_sequential_in(m, edges, csr),
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
/// index); only the context's COO arena is reused.
pub fn build_sequential_allpairs<O: EdgeOracle>(
    oracle: &O,
    ctx: &mut IterationContext,
) -> ConflictBuild {
    let (lists, scratch) = ctx.lists_and_scratch();
    let m = oracle.num_vertices();
    debug_assert_eq!(m, lists.len());
    let IterationScratch { edges, csr, .. } = scratch;
    edges.clear();
    let scan_span = telemetry::span!("scalar_scan");
    for i in 0..m {
        for j in (i + 1)..m {
            if lists.intersects(i, j) && oracle.has_edge(i, j) {
                edges.push((i as u32, j as u32));
            }
        }
    }
    drop(scan_span);
    let num_edges = edges.len();
    let m64 = m as u64;
    let _csr_span = telemetry::span!("csr_assembly");
    ConflictBuild {
        graph: csr_from_coo_sequential_in(m, edges, csr),
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
/// context's zero-allocation property. Blocks merge into the context's
/// COO arena under a lock in scheduling order, each recording its range
/// in the context's block table
/// ([`IterationScratch::edge_blocks`]). CSR assembly then scatters those
/// ranges in cut order ([`graph::csr_from_coo_blocks_in`]), which is
/// exactly the sequential build's COO order: rows arrive as ordered as
/// the sequential scan leaves them, and the output is bit-identical to
/// the sequential build under any scheduling. The COO arena keeps the
/// edges in scheduling order.
pub fn build_parallel<O: EdgeOracle>(oracle: &O, ctx: &mut IterationContext) -> ConflictBuild {
    let (engine, packed, scratch) = ctx.engine_packed_scratch_par(oracle);
    let m = engine.num_vertices();
    debug_assert_eq!(m, oracle.num_vertices());
    let IterationScratch {
        edges,
        edge_blocks,
        pool,
        csr,
        ..
    } = scratch;
    let pool: &ScratchPool = pool;
    edges.clear();
    let row_weights = engine.row_weights();
    let cuts = device::balanced_weight_cuts(&row_weights, rayon::current_num_threads() * 4);
    edge_blocks.clear();
    edge_blocks.resize(cuts.len(), 0..0);
    let merged = std::sync::Mutex::new((std::mem::take(edges), std::mem::take(edge_blocks)));
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
            edges: staged,
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
            |u, v| staged.push((u, v)),
        );
        shared_stats.add(stats);
        if !staged.is_empty() {
            let mut guard = merged
                .lock()
                .expect("COO merge lock poisoned: another block panicked while merging");
            let (coo, blocks) = &mut *guard;
            let start = coo.len();
            coo.extend_from_slice(staged);
            blocks[cut] = start..coo.len();
        }
        pool.put(arena);
    });
    (*edges, *edge_blocks) = merged
        .into_inner()
        .expect("COO merge lock poisoned: a block panicked while merging");
    drop(scan_span);
    let num_edges = edges.len();
    let candidate_pairs = engine.candidate_pairs();
    let _csr_span = telemetry::span!("csr_assembly");
    ConflictBuild {
        graph: csr_from_coo_blocks_in(m, edges, edge_blocks, csr),
        num_edges,
        candidate_pairs,
        packed_lanes: if packed.is_some() { candidate_pairs } else { 0 },
        scan_stats: shared_stats.into_stats(),
        csr_on_device: None,
    }
}

/// The staged pair kernel both device backends launch on `dev` over the
/// flat rows `base..base + weights.len()`: blocks own pair-balanced row
/// ranges ([`DeviceSim::launch_weighted_span`]), draw their staging
/// buffers from the context's arena `pool`, stage their edges locally as
/// flat `u, v` words, and bulk-reserve output slots in `coo` with one
/// atomic `fetch_add`, so the write pattern is race-free. A block whose
/// slots would run past `coo` raises the overflow flag instead of
/// writing, and the launch fails with [`DeviceError::OutOfMemory`].
/// Returns the number of `coo` words written.
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

/// Per-vertex byte footprint of the inputs Algorithm 3 copies to the GPU:
/// the packed 3-bit Pauli words plus the color list.
pub fn device_input_bytes_per_vertex(num_qubits: usize, list_size: usize) -> usize {
    pauli::encode::words_for(num_qubits) * std::mem::size_of::<u64>()
        + list_size * std::mem::size_of::<u32>()
}

/// Simulated-device implementation of Algorithm 3, extended with the
/// bucketed candidate engine and the packed oracle replica.
///
/// Budget layout, following the paper line by line:
/// 1. upload the kernel's input: the raw encoded strings + color lists
///    (`input_bytes_per_vertex · m`) on the scalar path, or — when the
///    iteration packed — the **packed replica** (bucket-major key lanes,
///    query rows and palette bitmasks,
///    [`PackedBuckets::device_bytes`]) plus the color lists, charged
///    *instead of* the raw set: the replica is what the packed kernel
///    actually reads,
/// 2. reserve `m` edge-offset counters (4-byte, or 8-byte once
///    `m² ≥ 2³²`),
/// 3. upload the bucket index (`N·L + P + 1` u32 values) when the
///    bucketed engine is selected — the enumeration structure is now
///    device-resident state and is charged like any other input,
/// 4. reserve `min(2 · candidate_pairs, whatever fits)` u32 slots for
///    the unordered COO edge list (each candidate yields at most one
///    edge, so the arena is far below the legacy `2·m·(m−1)` bound).
///    The budget charge is a [`device::DeviceLease`]; the backing
///    storage is the context's reused COO word arena, so a warm build
///    allocates no host memory for it,
/// 5. launch the staged pair kernel over the flat pivot-row space
///    ([`DeviceSim::launch_weighted_span`]: blocks own contiguous row
///    ranges of near-equal pair weight, possibly mid-bucket, stage
///    locally and bulk-reserve slots with one atomic),
/// 6. if the CSR (2·|Ec| adjacency slots) fits in the *remaining* device
///    memory, assemble it "on device" and download it; otherwise download
///    the raw edge list and assemble on the host. Either way the arrays
///    come from the context's CSR arena.
///
/// Fails with [`DeviceError::OutOfMemory`] when the inputs don't fit or
/// the kernel produces more edges than the allocation holds — the same
/// failure the paper reports for its largest instance on the 40 GB A100.
pub fn build_device<O: EdgeOracle>(
    oracle: &O,
    ctx: &mut IterationContext,
    dev: &DeviceSim,
    input_bytes_per_vertex: usize,
) -> Result<ConflictBuild, DeviceError> {
    let list_bytes = ctx.lists().list_size() * std::mem::size_of::<u32>();
    let (engine, packed, scratch) = ctx.engine_packed_scratch_par(oracle);
    let m = engine.num_vertices();
    debug_assert_eq!(m, oracle.num_vertices());
    let IterationScratch {
        edges,
        pool,
        coo,
        csr,
        ..
    } = scratch;
    let pool: &ScratchPool = pool;
    if m == 0 {
        return Ok(ConflictBuild {
            graph: CsrGraph::empty(0),
            num_edges: 0,
            candidate_pairs: 0,
            packed_lanes: 0,
            scan_stats: MaskScanStats::default(),
            csr_on_device: Some(true),
        });
    }

    // (1) Inputs: charged to the budget and counted as an H2D transfer.
    // A packed iteration uploads the replica (what its kernel reads)
    // plus the color lists instead of the raw encoded set.
    let input_bytes = match packed {
        Some(p) => m * list_bytes + p.device_bytes(),
        None => m * input_bytes_per_vertex,
    };
    let _input = dev.reserve(input_bytes)?;
    dev.note_h2d(input_bytes);

    // (2) Edge-offset counters: 8-byte once |V|² overflows u32 (paper §V).
    let wide_counters = (m as u64).saturating_mul(m as u64) >= u32::MAX as u64;
    let counter_bytes = m * if wide_counters { 8 } else { 4 };
    let _counters = dev.reserve(counter_bytes)?;

    // A single vertex has no candidate pairs; nothing to build.
    if m < 2 {
        return Ok(ConflictBuild {
            graph: CsrGraph::empty(m),
            num_edges: 0,
            candidate_pairs: 0,
            packed_lanes: 0,
            scan_stats: MaskScanStats::default(),
            csr_on_device: Some(true),
        });
    }

    // (3) A bucketed engine choice makes the shared inverted index
    // device-resident input, charged and uploaded like the rest.
    let candidate_pairs = engine.candidate_pairs();
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
        return Ok(ConflictBuild {
            graph: CsrGraph::empty(m),
            num_edges: 0,
            candidate_pairs: 0,
            packed_lanes: 0,
            scan_stats: MaskScanStats::default(),
            csr_on_device: Some(true),
        });
    }
    let packed_lanes = if packed.is_some() { candidate_pairs } else { 0 };

    // (4) The unordered COO edge list: all remaining memory, capped at
    // two u32 slots per candidate pair (each yields at most one edge).
    // Budget via lease; storage from the context's reused word arena.
    let worst_slots = 2u64.saturating_mul(candidate_pairs).min(usize::MAX as u64) as usize;
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

    // (5) Staged pair kernel over pair-balanced blocks of the flat
    // pivot-row space.
    let shared_stats = SharedScanStats::default();
    let used_slots = launch_staged_pair_kernel(
        dev,
        oracle,
        &engine,
        packed,
        pool,
        coo,
        &engine.row_weights(),
        0,
        rayon::current_num_threads() * 4,
        &shared_stats,
    )?;
    let num_edges = used_slots / 2;
    let scan_stats = shared_stats.into_stats();

    // Into the context's COO arena in kernel order: CSR assembly sorts
    // each row, so block scheduling cannot change the graph.
    edges.clear();
    edges.extend(coo[..used_slots].chunks_exact(2).map(|p| (p[0], p[1])));

    // (6) CSR placement decision (Line 5 of Algorithm 3, `|Ecoo| <=
    // AvailMem/2`): the CSR stores each edge twice; build it on-device
    // only if those entries fit in the memory still available *next to*
    // the COO arena. (The arena is capped at 2·candidate_pairs slots, so
    // it no longer stands in for "all remaining memory" the way the
    // legacy 2·m·(m−1) allocation did.) A failed reservation means host
    // assembly; the graph is the same either way.
    let csr_bytes = 2 * num_edges * std::mem::size_of::<u32>();
    let csr_lease = if csr_bytes <= dev.available_bytes() {
        dev.reserve(csr_bytes.max(std::mem::size_of::<u32>())).ok()
    } else {
        None
    };
    let on_device = csr_lease.is_some();
    dev.note_d2h(if on_device {
        csr_bytes
    } else {
        used_slots * std::mem::size_of::<u32>()
    });
    Ok(ConflictBuild {
        graph: csr_from_coo_sequential_in(m, edges, csr),
        num_edges,
        candidate_pairs,
        packed_lanes,
        scan_stats,
        csr_on_device: Some(on_device),
    })
}

/// Multi-device conflict construction on the candidate engine with
/// **sub-bucket sharding** — the paper's stated future work
/// ("distributed multi-GPU parallel implementations"), implemented over
/// the simulated devices.
///
/// The engine's flat pivot-row space (one row per bucket position for
/// the bucketed engine, one per vertex row for the all-pairs fallback)
/// is cut into one contiguous, pair-balanced span per device
/// ([`device::balanced_weight_cuts`] over the per-row weights). A span
/// may start and end *mid-bucket*: a single bucket's pair triangle
/// splits across devices at row granularity, which is what lets a
/// two-color palette (two buckets) still occupy eight devices.
///
/// Every device holds a replica of the encoded input **and of the shared
/// bucket index**, both charged to its own Algorithm 3 budget; each
/// device builds the edge list of its span under that budget
/// ([`DeviceSim::launch_weighted_span`]). Edge lists are merged on the
/// host (into the context's COO arena) and the CSR assembled there —
/// bit-identical to every other backend for any device count.
pub fn build_multi_device<O: EdgeOracle>(
    oracle: &O,
    ctx: &mut IterationContext,
    devices: &[DeviceSim],
    input_bytes_per_vertex: usize,
) -> Result<ConflictBuild, DeviceError> {
    assert!(!devices.is_empty(), "need at least one device");
    let list_bytes = ctx.lists().list_size() * std::mem::size_of::<u32>();
    let (engine, packed, scratch) = ctx.engine_packed_scratch_par(oracle);
    let m = engine.num_vertices();
    debug_assert_eq!(m, oracle.num_vertices());
    let IterationScratch {
        edges,
        pool,
        coo,
        csr,
        ..
    } = scratch;
    let pool: &ScratchPool = pool;
    if m < 2 {
        return Ok(ConflictBuild {
            graph: CsrGraph::empty(m),
            num_edges: 0,
            candidate_pairs: 0,
            packed_lanes: 0,
            scan_stats: MaskScanStats::default(),
            csr_on_device: Some(false),
        });
    }
    let candidate_pairs = engine.candidate_pairs();
    let row_weights = engine.row_weights();
    let mut cuts = device::balanced_weight_cuts(&row_weights, devices.len());
    // Every device participates (replica upload + kernel launch) even
    // when the weight distribution needs fewer spans than devices.
    let end = row_weights.len();
    while cuts.len() < devices.len() {
        cuts.push(end..end);
    }
    // The zip below truncates to `devices.len()` spans; a surplus range
    // can only be the closing tail after the preceding ranges already
    // covered the total weight, so it must carry zero pair work.
    debug_assert!(
        cuts.iter()
            .skip(devices.len())
            .all(|c| row_weights[c.clone()].iter().all(|&w| w == 0)),
        "truncated span carries candidate pairs"
    );

    edges.clear();
    let shared_stats = SharedScanStats::default();
    for (span, dev) in cuts.iter().zip(devices.iter()) {
        // (1) Input replica, charged to this device's budget: when this
        // iteration packed, only the replica *slice* the span's kernel
        // actually reads — the touched buckets' key lanes, one query
        // row per pivot in the span, the touched members' palette
        // bitmasks ([`PackedBuckets::device_bytes_for_span`]) — plus
        // the lists; the raw encoded set otherwise. A narrow span no
        // longer charges all `m` query rows.
        let input_bytes = match packed {
            Some(p) => m * list_bytes + p.device_bytes_for_span(engine.index(), span.clone()),
            None => m * input_bytes_per_vertex,
        };
        let _input = dev.reserve(input_bytes)?;
        dev.note_h2d(input_bytes);
        // (2) Bucket-index replica: the shared index is built once on the
        // host but uploaded to (and charged against) every device.
        let _index_lease = match engine.index() {
            Some(index) => {
                let bytes = index.device_bytes();
                let lease = dev.reserve(bytes)?;
                dev.note_h2d(bytes);
                Some(lease)
            }
            None => None,
        };
        // (3) Edge-offset counters for the span's pivot rows.
        let _counters = dev.reserve(span.len() * 4)?;
        let span_weights = &row_weights[span.clone()];
        let span_pairs: u64 = span_weights.iter().sum();
        if span_pairs == 0 {
            // Idle span (or weight tail): the kernel still launches so
            // per-iteration launch accounting is uniform across devices.
            dev.launch_weighted_span(span_weights, span.start, 1, |_b, _rows| {})?;
            continue;
        }
        // (4) COO arena, capped at two u32 slots per candidate pair of
        // the span: budget via lease, storage from the context's reused
        // word arena (serial over devices, so one arena serves all).
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
        // (5) Triangle-sharded kernel: blocks own pair-balanced row
        // ranges of this device's span (global row ids).
        let used = launch_staged_pair_kernel(
            dev,
            oracle,
            &engine,
            packed,
            pool,
            coo,
            span_weights,
            span.start,
            rayon::current_num_threads() * 2,
            &shared_stats,
        )?;
        dev.note_d2h(used * std::mem::size_of::<u32>());
        // Host-side merge straight into the context's COO arena — no
        // per-device intermediate.
        edges.extend(coo[..used].chunks_exact(2).map(|p| (p[0], p[1])));
    }

    let num_edges = edges.len();
    Ok(ConflictBuild {
        graph: csr_from_coo_sequential_in(m, edges, csr),
        num_edges,
        candidate_pairs,
        packed_lanes: if packed.is_some() { candidate_pairs } else { 0 },
        scan_stats: shared_stats.into_stats(),
        csr_on_device: Some(false),
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
    fn device_agrees_with_host_builds() {
        for m in [1usize, 8, 50, 120] {
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
                let dev = DeviceSim::new(64 * 1024 * 1024);
                let devb = build_device(&oracle, &mut ctx, &dev, 16).unwrap();
                assert_eq!(seq.graph, devb.graph, "{what}");
                assert_eq!(host.graph, devb.graph, "{what}");
                assert_eq!(host.num_edges, devb.num_edges, "{what}");
                if m >= 2 {
                    assert_eq!(host.candidate_pairs, devb.candidate_pairs, "{what}");
                }
                assert!(devb.csr_on_device.is_some());
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
            let devb = build_device(&oracle, &mut ctx, &dev, 16).unwrap();
            let fleet: Vec<DeviceSim> = (0..3).map(|_| DeviceSim::new(32 * 1024 * 1024)).collect();
            let multi = build_multi_device(&oracle, &mut ctx, &fleet, 16).unwrap();
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
    fn packed_device_build_charges_the_replica_not_the_raw_set() {
        use crate::oracle::PauliComplementOracle;
        use crate::packed::PackingMode;
        use rand::SeedableRng;
        let m = 120;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let strings = pauli::string::random_unique_set(m, 12, &mut rng);
        let set = pauli::EncodedSet::from_strings(&strings);
        let oracle = PauliComplementOracle::new(&set);
        let lists = ColorLists::assign(m, 0, 30, 3, 5, 0);
        let mut ctx = ctx_for(&lists);
        ctx.set_packing(PackingMode::Always);
        let index_bytes = lists.bucket_index().device_bytes();
        // 12 qubits → one word per row; replica = (m·L key lanes + m
        // query rows + m one-word palette bitmasks) · 8 B, uploaded next
        // to the m·L·4 B lists.
        let replica_bytes = (m * 3 + m + m) * 8;
        let list_bytes = m * 3 * 4;
        let dev = DeviceSim::new(8 * 1024 * 1024);
        let built = build_device(&oracle, &mut ctx, &dev, 16).unwrap();
        assert_eq!(built.packed_lanes, built.candidate_pairs);
        assert_eq!(
            dev.stats().h2d_bytes,
            list_bytes + replica_bytes + index_bytes,
            "packed upload = lists + replica + index, not m·input_bpv"
        );
        assert_eq!(dev.used_bytes(), 0, "all leases released");
    }

    #[test]
    fn packed_multi_device_spans_charge_only_their_replica_slice() {
        // Satellite regression: every device used to be charged all `m`
        // query rows (the full `device_bytes()` replica) even when its
        // sub-bucket span touched a fraction of the rows. Each device's
        // upload must now be exactly lists + span slice + index.
        use crate::candidates::CandidateEngine;
        use crate::oracle::PauliComplementOracle;
        use crate::packed::{PackedBuckets, PackingMode};
        use rand::SeedableRng;
        let m = 150;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let strings = pauli::string::random_unique_set(m, 12, &mut rng);
        let set = pauli::EncodedSet::from_strings(&strings);
        let oracle = PauliComplementOracle::new(&set);
        let lists = ColorLists::assign(m, 0, 30, 3, 5, 0);
        let devices = 4usize;
        // Recompute the spans and the replica the build will use.
        let index = lists.bucket_index();
        let engine = CandidateEngine::with_index(&lists, Some(&index));
        let row_weights = engine.row_weights();
        let mut cuts = device::balanced_weight_cuts(&row_weights, devices);
        let end = row_weights.len();
        while cuts.len() < devices {
            cuts.push(end..end);
        }
        let mut packed = PackedBuckets::new();
        assert!(packed.pack_from(&oracle, &lists, Some(&index)));
        let list_bytes = m * 3 * 4;
        let mut ctx = ctx_for(&lists);
        ctx.set_packing(PackingMode::Always);
        let fleet: Vec<DeviceSim> = (0..devices)
            .map(|_| DeviceSim::new(8 * 1024 * 1024))
            .collect();
        let built = build_multi_device(&oracle, &mut ctx, &fleet, 16).unwrap();
        assert_eq!(built.packed_lanes, built.candidate_pairs);
        let mut some_span_is_narrow = false;
        for (span, dev) in cuts.iter().zip(fleet.iter()) {
            let span_bytes = packed.device_bytes_for_span(Some(&index), span.clone());
            assert_eq!(
                dev.stats().h2d_bytes,
                list_bytes + span_bytes + index.device_bytes(),
                "span {span:?}: upload must be lists + span slice + index, exactly"
            );
            some_span_is_narrow |= span_bytes < packed.device_bytes();
        }
        assert!(
            some_span_is_narrow,
            "with {devices} devices at least one span must upload less than the full replica"
        );
    }

    #[test]
    fn packed_all_pairs_device_charges_match_the_forecast() {
        // L close to P: the engine falls back to all-pairs, which now
        // packs the identity layout. The strict forecast's input term is
        // exactly what the device build uploads (no index to add), and
        // multi-device spans charge slices of that replica.
        use crate::candidates::CandidateEngine;
        use crate::oracle::PauliComplementOracle;
        use crate::packed::PackedBuckets;
        use rand::SeedableRng;
        let m = 160;
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let strings = pauli::string::random_unique_set(m, 12, &mut rng);
        let set = pauli::EncodedSet::from_strings(&strings);
        let oracle = PauliComplementOracle::new(&set);
        let lists = ColorLists::assign(m, 0, 8, 6, 5, 0);
        let mut ctx = ctx_for(&lists);
        assert!(!ctx.prefers_buckets());
        let forecast = ctx.input_replica_forecast(16, &oracle);
        let dev = DeviceSim::new(8 * 1024 * 1024);
        let built = build_device(&oracle, &mut ctx, &dev, 16).unwrap();
        assert_eq!(
            built.packed_lanes, built.candidate_pairs,
            "all-pairs packed"
        );
        assert_eq!((ctx.pack_builds(), ctx.index_builds()), (1, 0));
        // Lists + (m key rows + m query rows + m bitmasks) · 8 B.
        assert_eq!(forecast, m * 6 * 4 + 3 * m * 8);
        assert_eq!(dev.stats().h2d_bytes, forecast, "forecast = device input");

        let engine = CandidateEngine::with_index(&lists, None);
        let devices = 4usize;
        let cuts = device::balanced_weight_cuts(&engine.row_weights(), devices);
        let mut packed = PackedBuckets::new();
        assert!(packed.pack_from(&oracle, &lists, None));
        let fleet: Vec<DeviceSim> = (0..devices)
            .map(|_| DeviceSim::new(8 * 1024 * 1024))
            .collect();
        let multi = build_multi_device(&oracle, &mut ctx, &fleet, 16).unwrap();
        assert_eq!(multi.graph, built.graph);
        assert_eq!(multi.packed_lanes, multi.candidate_pairs);
        let mut some_span_is_narrow = false;
        for (span, dev) in cuts.iter().zip(fleet.iter()) {
            let span_bytes = packed.device_bytes_for_span(None, span.clone());
            assert!(span_bytes <= packed.device_bytes(), "span {span:?}");
            assert_eq!(
                dev.stats().h2d_bytes,
                m * 6 * 4 + span_bytes,
                "span {span:?}"
            );
            some_span_is_narrow |= span_bytes < packed.device_bytes();
        }
        assert!(some_span_is_narrow);
        assert_eq!(
            build_sequential_allpairs(&oracle, &mut ctx).graph,
            built.graph
        );
    }

    #[test]
    fn parallel_blocks_in_visit_order_replay_the_sequential_coo() {
        // The rayon build's block table, visited in cut order, is the
        // sequential build's COO pair for pair — on a bucketed and on an
        // all-pairs packed iteration. On the all-pairs one that order
        // leaves every row ascending, so neither build ever needs the
        // assembler's row bitmap.
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
            let seq = build_sequential(&oracle, &mut ctx);
            let seq_coo = ctx.lists_and_scratch().1.edges.clone();
            let par = build_parallel(&oracle, &mut ctx);
            assert_eq!(par.packed_lanes, par.candidate_pairs, "{what}: packed");
            assert_eq!(par.graph, seq.graph, "{what}");
            let scratch = ctx.lists_and_scratch().1;
            let nonempty = scratch.edge_blocks.iter().filter(|b| !b.is_empty()).count();
            assert!(nonempty > 1, "{what}: {nonempty} non-empty blocks");
            let visited: Vec<(u32, u32)> = scratch
                .edge_blocks
                .iter()
                .flat_map(|b| scratch.edges[b.clone()].iter().copied())
                .collect();
            assert_eq!(visited, seq_coo, "{what}");
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
    fn tiny_device_reports_oom() {
        let m = 300;
        let oracle = dense_oracle(m);
        // Whole palette shared -> conflict graph == oracle graph, ~22k
        // edges; a 16 KiB device cannot hold them.
        let lists = ColorLists::assign(m, 0, 2, 2, 3, 0);
        let dev = DeviceSim::new(16 * 1024);
        let err = build_device(&oracle, &mut ctx_for(&lists), &dev, 16);
        assert!(matches!(err, Err(DeviceError::OutOfMemory { .. })));
    }

    #[test]
    fn device_transfer_accounting_nonzero() {
        let m = 60;
        let oracle = dense_oracle(m);
        let lists = ColorLists::assign(m, 0, 8, 3, 1, 0);
        let dev = DeviceSim::new(8 * 1024 * 1024);
        let _ = build_device(&oracle, &mut ctx_for(&lists), &dev, 16).unwrap();
        let stats = dev.stats();
        assert!(stats.h2d_bytes >= 60 * 16);
        assert!(stats.d2h_bytes > 0);
        assert_eq!(stats.kernel_launches, 1);
        // Everything is freed on exit.
        assert_eq!(dev.used_bytes(), 0);
    }

    #[test]
    fn device_charges_the_bucket_index_to_the_budget() {
        let m = 120;
        let oracle = dense_oracle(m);
        // Sparse lists: the bucketed engine wins and its index is a
        // device-resident input, so h2d must cover it.
        let lists = ColorLists::assign(m, 0, 40, 3, 5, 0);
        let index_bytes = lists.bucket_index().device_bytes();
        let dev = DeviceSim::new(8 * 1024 * 1024);
        let built = build_device(&oracle, &mut ctx_for(&lists), &dev, 16).unwrap();
        assert!(built.candidate_pairs < (m as u64) * (m as u64 - 1) / 2);
        assert!(
            dev.stats().h2d_bytes >= m * 16 + index_bytes,
            "h2d {} must include the {}-byte index",
            dev.stats().h2d_bytes,
            index_bytes
        );
    }

    #[test]
    fn multi_device_agrees_with_all_other_backends() {
        for num_devices in [1usize, 2, 4, 8] {
            let m = 150;
            let oracle = dense_oracle(m);
            let lists = ColorLists::assign(m, 0, 20, 4, 7, 0);
            let mut ctx = ctx_for(&lists);
            let host = build_parallel(&oracle, &mut ctx);
            let devices: Vec<DeviceSim> = (0..num_devices)
                .map(|_| DeviceSim::new(16 * 1024 * 1024))
                .collect();
            let multi = build_multi_device(&oracle, &mut ctx, &devices, 16).unwrap();
            assert_eq!(host.graph, multi.graph, "devices={num_devices}");
            assert_eq!(host.num_edges, multi.num_edges);
            // Multi-device runs on the engine: enumeration accounting
            // matches the other bucketed backends exactly.
            assert_eq!(host.candidate_pairs, multi.candidate_pairs);
            assert_eq!(ctx.index_builds(), 1, "one index for both backends");
            // Every device did real work (transfers recorded) and every
            // replica was charged the index bytes.
            let index_bytes = lists.bucket_index().device_bytes();
            for d in &devices {
                assert!(
                    d.stats().h2d_bytes >= m * 16 + index_bytes,
                    "devices={num_devices}: replica h2d must include the index"
                );
                assert_eq!(d.stats().kernel_launches, 1);
                assert_eq!(d.used_bytes(), 0, "buffers must be released");
            }
        }
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
        let multi = build_multi_device(&oracle, &mut ctx, &devices, 16).unwrap();
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
            build_multi_device(&oracle, &mut ctx_for(&lists), &one, 16),
            Err(DeviceError::OutOfMemory { .. })
        ));
        let four: Vec<DeviceSim> = (0..4).map(|_| DeviceSim::new(128 * 1024)).collect();
        let built = build_multi_device(&oracle, &mut ctx_for(&lists), &four, 16).unwrap();
        assert!(built.num_edges > 0);
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
