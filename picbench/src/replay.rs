//! The traced replay: runs a solve's iterations from outside the
//! solver, calling the public layer functions in the order
//! `Picasso::solve_*` calls them on the `Sequential` backend, and times
//! each call. Its colouring must equal the library's bit for bit.
//!
//! Per iteration the layers are: `assign` (list assignment), `index`
//! (bucket index build), `pack` (packed oracle replica), `scan`
//! (candidate enumeration plus oracle, packed or scalar), `csr` (CSR
//! assembly), `color` (unconflicted pass plus greedy list colouring).
//! What remains of the traced wall time (feedback to the autotuners,
//! live-set bookkeeping, timer reads) is `other`.
//!
//! Each iteration also re-runs its conflict build on the `Parallel`
//! path (`conflict::build_parallel`) and re-assembles the same COO with
//! `csr_from_coo_parallel_in` into a benchmark-owned arena. Those two
//! timings (and the graph comparisons) are taken outside the traced
//! total, and both graphs must equal the sequential one.

use coloring::UNCOLORED;
use graph::{CsrArena, EdgeOracle};
use picasso::{
    conflict, listcolor, ConflictBuild, IterationContext, IterationScratch, ListColorOutcome,
    LiveView, MaskScanStats, PairSource, PicassoConfig, SchemeKind,
};
use std::time::Instant;

/// Seconds per layer for one replayed solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerSecs {
    pub assign: f64,
    pub index: f64,
    pub pack: f64,
    pub scan: f64,
    pub csr: f64,
    pub color: f64,
    /// Traced wall time of the sequential replay (layers plus other).
    pub total: f64,
    /// `conflict::build_parallel`, outside `total`.
    pub build_par: f64,
    /// `csr_from_coo_parallel_in` on the same COO, outside `total`.
    pub csr_par: f64,
}

impl LayerSecs {
    /// Sum of the named sequential layers.
    pub fn named(&self) -> f64 {
        self.assign + self.index + self.pack + self.scan + self.csr + self.color
    }
}

/// Work counts for one replayed solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub iterations: usize,
    pub candidate_pairs: u64,
    pub edges: u64,
    pub scanned_words: u64,
    pub skipped_words: u64,
    pub iterations_packed: usize,
    /// Iterations whose engine was bucketed (built an index).
    pub iterations_bucketed: usize,
    /// Σ conflicted vertices and Σ live vertices over iterations.
    pub conflicted: u64,
    pub live: u64,
}

/// A replayed solve.
pub struct Replay {
    pub colors: Vec<u32>,
    pub secs: LayerSecs,
    pub counts: Counts,
    /// Iterations whose parallel graphs differed from the sequential one.
    pub parallel_mismatches: usize,
}

/// Failure of the replay to follow the solver.
#[derive(Debug)]
pub struct ReplayError(pub String);

/// Replays `Picasso::solve_*` with `cfg` over `oracle`.
pub fn replay<O: EdgeOracle>(oracle: &O, cfg: &PicassoConfig) -> Result<Replay, ReplayError> {
    let n = oracle.num_vertices();
    let mut secs = LayerSecs::default();
    let mut counts = Counts::default();
    let mut parallel_mismatches = 0usize;
    let mut par_arena = CsrArena::new();
    let mut outside = 0.0f64;
    let start = Instant::now();

    let mut ctx = IterationContext::new();
    let mut colors = vec![UNCOLORED; n];
    let mut live: Vec<u32> = (0..n as u32).collect();
    let mut next_base = 0u32;
    let mut conflicted: Vec<u32> = Vec::new();
    let mut outcome = ListColorOutcome::default();
    let mut iter = 0usize;
    while !live.is_empty() {
        iter += 1;
        if iter > cfg.max_iterations {
            for (k, &v) in live.iter().enumerate() {
                colors[v as usize] = next_base + k as u32;
            }
            break;
        }
        let m = live.len();
        let palette = cfg.palette_size(m);
        let list_size = cfg.list_size(m);

        let t = Instant::now();
        ctx.assign_lists(m, next_base, palette, list_size, cfg.seed, iter as u64);
        secs.assign += t.elapsed().as_secs_f64();

        let view = LiveView::new(oracle, &live);
        let build_started = Instant::now();
        let t = Instant::now();
        let bucketed = ctx.engine_and_scratch().0.is_bucketed();
        secs.index += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let (engine, packed, scratch) = ctx.engine_packed_scratch(&view);
        secs.pack += t.elapsed().as_secs_f64();

        let IterationScratch {
            edges,
            hits,
            masks,
            mapped,
            run,
            csr,
            ..
        } = scratch;
        let t = Instant::now();
        edges.clear();
        let mut stats = MaskScanStats::default();
        let rows = 0..engine.num_rows();
        if let Some(packed) = packed {
            engine.scan_rows_packed(rows, packed, masks, &mut stats, &mut |u, v| {
                edges.push((u, v))
            });
        } else {
            engine.scan_rows_scratch(rows, run, &mut |u, vs| {
                hits.clear();
                hits.resize(vs.len(), false);
                view.has_edge_block_scratch(u, vs, hits, mapped);
                for (&v, &hit) in vs.iter().zip(hits.iter()) {
                    if hit {
                        edges.push((u as u32, v as u32));
                    }
                }
            });
        }
        secs.scan += t.elapsed().as_secs_f64();

        let num_edges = edges.len();
        let candidate_pairs = engine.candidate_pairs();
        let was_packed = packed.is_some();
        let t = Instant::now();
        let seq_graph = graph::csr_from_coo_sequential_in(m, edges, csr);
        secs.csr += t.elapsed().as_secs_f64();
        let build_secs = build_started.elapsed().as_secs_f64();

        {
            let t = Instant::now();
            let par = conflict::build_parallel(&view, &mut ctx);
            let t_build = t.elapsed().as_secs_f64();
            let (_, scratch) = ctx.lists_and_scratch();
            let t = Instant::now();
            let par_csr = graph::csr_from_coo_parallel_in(m, &scratch.edges, &mut par_arena);
            let t_csr = t.elapsed().as_secs_f64();
            secs.build_par += t_build;
            secs.csr_par += t_csr;
            outside += t_build + t_csr;
            let t = Instant::now();
            if par.graph != seq_graph || par_csr != seq_graph {
                parallel_mismatches += 1;
            }
            ctx.recycle_csr(par.graph);
            par_arena.recycle(par_csr);
            outside += t.elapsed().as_secs_f64();
        }

        // Feed the build back to the packing autotuner, as the solver
        // does after every conflict build.
        let build = ConflictBuild {
            graph: seq_graph,
            num_edges,
            candidate_pairs,
            packed_lanes: if was_packed { candidate_pairs } else { 0 },
            scan_stats: stats,
            csr_on_device: None,
        };
        ctx.record_packing(
            &build,
            build_secs,
            view.packed_form().map(|f| f.words.max(1)),
        );
        let gc = build.graph;

        let t = Instant::now();
        conflicted.clear();
        for local in 0..m {
            if gc.degree(local) == 0 {
                colors[live[local] as usize] = ctx.lists().row(local)[0];
            } else {
                conflicted.push(local as u32);
            }
        }
        let kind = ctx.choose_scheme(cfg.scheme, conflicted.len(), num_edges, list_size as usize);
        if kind != SchemeKind::Greedy {
            return Err(ReplayError(format!(
                "the replay covers the greedy list colouring only, the solver chose {kind:?}"
            )));
        }
        let color_seed = cfg.seed ^ (iter as u64).wrapping_mul(0x9E3779B97F4A7C15);
        let (lists, color_scratch) = ctx.lists_and_color_scratch();
        listcolor::greedy_list_color_into(
            &gc,
            lists,
            &conflicted,
            color_seed,
            color_scratch,
            &mut outcome,
        );
        for &(v, c) in &outcome.assigned {
            colors[live[v as usize] as usize] = c;
        }
        let color_secs = t.elapsed().as_secs_f64();
        secs.color += color_secs;
        ctx.record_coloring(
            kind,
            conflicted.len(),
            num_edges,
            list_size as usize,
            color_secs,
        );
        ctx.recycle_csr(gc);

        counts.iterations += 1;
        counts.candidate_pairs += candidate_pairs;
        counts.edges += num_edges as u64;
        counts.scanned_words += stats.scanned_words;
        counts.skipped_words += stats.skipped_words;
        counts.iterations_packed += usize::from(was_packed);
        counts.iterations_bucketed += usize::from(bucketed);
        counts.conflicted += conflicted.len() as u64;
        counts.live += m as u64;

        live = outcome
            .uncolored
            .iter()
            .map(|&v| live[v as usize])
            .collect();
        next_base += palette;
    }
    secs.total = start.elapsed().as_secs_f64() - outside;
    Ok(Replay {
        colors,
        secs,
        counts,
        parallel_mismatches,
    })
}
