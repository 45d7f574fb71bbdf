//! The Picasso iteration driver (Algorithm 1).

use crate::assign::ColorLists;
use crate::config::{ConflictBackend, ListColoringScheme, PicassoConfig};
use crate::conflict::{self, HostBuild, HostGraph};
use crate::iteration::IterationContext;
use crate::listcolor::{self, ConflictRows};
use crate::oracle::{LiveView, PauliComplementOracle};
use crate::packed::SharedColorFilter;
use coloring::UNCOLORED;
use device::{DeviceError, DeviceSim, DeviceStats};
use graph::EdgeOracle;
use pauli::AntiCommuteSet;
use serde::Serialize;
use std::time::Instant;

/// Failure modes of a solve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The device backend ran out of memory while building a conflict
    /// graph — the paper's failure mode for its largest instance.
    DeviceOom(DeviceError),
    /// The deadline armed via
    /// [`IterationContext::set_deadline`](crate::IterationContext::set_deadline)
    /// passed. The solver checks it cooperatively between phases (never
    /// mid-kernel), so the abort is clean: no partial result escapes and
    /// the context stays reusable.
    DeadlineExceeded {
        /// Fully completed iterations before the abort.
        completed_iterations: usize,
    },
}

impl SolveError {
    /// True when the failure was injected by a
    /// [`FaultPlan`](device::FaultPlan) rather than caused by a genuine
    /// budget shortfall — injected faults are transient (a retry draws a
    /// fresh verdict stream), genuine OOMs are permanent at the same
    /// capacity.
    pub fn is_injected(&self) -> bool {
        matches!(self, SolveError::DeviceOom(e) if e.is_injected())
    }
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::DeviceOom(e) => write!(f, "conflict graph build failed: {e}"),
            SolveError::DeadlineExceeded {
                completed_iterations,
            } => write!(
                f,
                "deadline exceeded after {completed_iterations} completed iterations"
            ),
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::DeviceOom(e) => Some(e),
            _ => None,
        }
    }
}

/// Per-iteration telemetry (the quantities behind Figs. 2/3/5).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct IterationStats {
    /// 1-based iteration number ℓ.
    pub iteration: usize,
    /// Live vertices at iteration start (`|V|` of `G_ℓ`).
    pub live_vertices: usize,
    /// Palette size `P_ℓ`.
    pub palette_size: u32,
    /// List size `L_ℓ`.
    pub list_size: u32,
    /// Deepest palette bucket `max_c |B_c|` of this iteration's lists —
    /// part of the pre-oracle bucket histogram the context derives the
    /// moment lists are assigned.
    pub max_bucket: usize,
    /// `Σ_c |B_c|·(|B_c|−1)/2`, the bucket-histogram estimate of the
    /// conflict build's enumeration work, available **before any oracle
    /// query runs** (equals `candidate_pairs` whenever the bucketed
    /// engine is selected).
    pub bucket_pairs_estimate: u64,
    /// Conflicted vertices `|Vc|`.
    pub conflict_vertices: usize,
    /// Conflict edges `|Ec|`.
    pub conflict_edges: usize,
    /// Candidate pairs the conflict build enumerated (oracle-independent
    /// work: `m(m−1)/2` for all-pairs backends, the sum of bucket-pair
    /// counts for the bucketed engine).
    pub candidate_pairs: u64,
    /// Key lanes streamed by the packed oracle kernel this iteration —
    /// equal to `candidate_pairs` when the build ran on the packed
    /// replica, zero on a scalar path, so `packed_lanes /
    /// candidate_pairs` is the iteration's packed-lane utilization.
    pub packed_lanes: u64,
    /// Set bits across the hit-mask words the packed kernel produced
    /// this iteration (pre-dedup oracle edges among candidates); zero on
    /// scalar paths. `hit_bits / packed_lanes` is the iteration's
    /// hit density — the quantity the palette trick drives toward zero.
    pub hit_bits: u64,
    /// Hit-mask words the zero-word-skip consumer retired without
    /// touching a single lane (all 64 bits clear), out of
    /// `scanned_words` produced; the sparse-regime win the u64 kernel
    /// exists for.
    pub skipped_words: u64,
    /// Hit-mask words the packed kernel produced this iteration.
    pub scanned_words: u64,
    /// Vertices colored on Line 8 (no conflicts).
    pub colored_unconflicted: usize,
    /// Vertices colored by Algorithm 2 / the static scheme.
    pub colored_in_conflict: usize,
    /// Vertices left for the next iteration (`|Vu|`).
    pub uncolored_after: usize,
    /// Seconds in list assignment (Line 6).
    pub assign_secs: f64,
    /// Seconds in conflict-graph construction (Line 7).
    pub conflict_secs: f64,
    /// Seconds in coloring (Lines 8–9).
    pub color_secs: f64,
    /// Whether Algorithm 2 kept its live lists as per-colour holder sets
    /// this iteration rather than per-vertex position masks
    /// ([`crate::listcolor::uses_palette_bitset`] of `palette_size` and
    /// `list_size`, on any graph form); false under a static scheme.
    pub color_bitset: bool,
    /// Whether Line 7 kept the conflict graph as hit masks instead of a
    /// CSR this iteration ([`crate::conflict::uses_hit_masks`] of
    /// `live_vertices`, `conflict_edges` and `mask_bytes`).
    pub conflict_masks: bool,
    /// Bytes of the iteration's hit-mask form, the graph-form rule's
    /// comparison value; zero when the rule did not run (an unpacked
    /// iteration, a static scheme, or a backend other than `Sequential`
    /// and `Parallel`).
    pub mask_bytes: u64,
    /// Host bytes of the iteration's packed oracle replica
    /// ([`crate::PackedBuckets::device_bytes`]: the key and query
    /// tables); zero when the iteration did not pack. Exactly `16·m·w`
    /// for `w`-word rows on either engine: the bucketed scans gather
    /// each bucket's lanes into a pooled tile at scan time, which is not
    /// counted here.
    pub replica_bytes: u64,
    /// How the packed scans ran the shared-color test on oracle hits
    /// ([`SharedColorFilter::choose`]): on the sorted lists, or no test;
    /// `None` when the iteration did not pack.
    pub shared_color_filter: Option<SharedColorFilter>,
    /// Device backend: whether the CSR was assembled on-device.
    pub csr_on_device: Option<bool>,
}

/// A completed Picasso run.
#[derive(Clone, Debug)]
pub struct PicassoResult {
    /// Final color of every vertex; colors are globally unique across
    /// iterations (iteration ℓ draws from `[Σ P_k, Σ P_k + P_ℓ)`).
    pub colors: Vec<u32>,
    /// Number of distinct colors used (`C`; the application's unitary
    /// count).
    pub num_colors: u32,
    /// Per-iteration telemetry.
    pub iterations: Vec<IterationStats>,
    /// Wall-clock seconds for the whole solve.
    pub total_secs: f64,
    /// Device counters, when the device backend was used.
    pub device_stats: Option<DeviceStats>,
    /// Bucket-index builds performed by the iteration context across the
    /// whole solve — at most one per iteration (the context builds the
    /// index lazily and lends it to every backend stage of the round).
    pub index_builds: usize,
    /// Packed-oracle-replica builds across the solve — at most one per
    /// iteration, shared by every backend of the round, for either
    /// candidate engine; zero when every iteration took a scalar path
    /// (an oracle without a packed form, or the forced
    /// [`ConflictBackend::AllPairs`] reference).
    pub pack_builds: usize,
    /// Vertices still live after [`PicassoConfig::max_iterations`] that
    /// the safety valve gave one fresh color each instead of a palette
    /// color. Zero on every solve that converges within the bound.
    pub safety_valve_vertices: usize,
}

impl PicassoResult {
    /// Largest `|Ec|` across iterations — the peak transient memory
    /// driver (numerator of the paper's *Maximum Conflicting Edge
    /// percentage*).
    pub fn max_conflict_edges(&self) -> usize {
        self.iterations
            .iter()
            .map(|s| s.conflict_edges)
            .max()
            .unwrap_or(0)
    }

    /// Sum of `|Ec|` over iterations (total conflict work processed).
    pub fn total_conflict_edges(&self) -> usize {
        self.iterations.iter().map(|s| s.conflict_edges).sum()
    }

    /// Sum of candidate pairs enumerated across iterations — the total
    /// oracle-independent work of conflict construction. The all-pairs
    /// reference would report `Σ_ℓ m_ℓ(m_ℓ−1)/2`; the bucketed engine's
    /// saving is the gap between the two.
    pub fn total_candidate_pairs(&self) -> u64 {
        self.iterations.iter().map(|s| s.candidate_pairs).sum()
    }

    /// Sum of packed key lanes streamed across iterations (see
    /// [`IterationStats::packed_lanes`]).
    pub fn total_packed_lanes(&self) -> u64 {
        self.iterations.iter().map(|s| s.packed_lanes).sum()
    }

    /// Sum of hit-mask set bits across iterations (see
    /// [`IterationStats::hit_bits`]).
    pub fn total_hit_bits(&self) -> u64 {
        self.iterations.iter().map(|s| s.hit_bits).sum()
    }

    /// Sum of all-zero hit-mask words the packed consumer skipped whole
    /// (see [`IterationStats::skipped_words`]).
    pub fn total_skipped_words(&self) -> u64 {
        self.iterations.iter().map(|s| s.skipped_words).sum()
    }

    /// Fraction of streamed packed lanes that were oracle edges, in
    /// `[0, 1]` — the solve-wide hit density (0.0 when nothing packed).
    pub fn hit_density(&self) -> f64 {
        let lanes = self.total_packed_lanes();
        if lanes == 0 {
            return 0.0;
        }
        self.total_hit_bits() as f64 / lanes as f64
    }

    /// Fraction of the solve's candidate enumeration that ran through
    /// the packed lane kernel, in `[0, 1]` — 1.0 when every iteration
    /// packed, 0.0 when none did.
    pub fn packed_lane_utilization(&self) -> f64 {
        let pairs = self.total_candidate_pairs();
        if pairs == 0 {
            return 0.0;
        }
        self.total_packed_lanes() as f64 / pairs as f64
    }

    /// Total seconds spent in list assignment.
    pub fn assign_secs(&self) -> f64 {
        self.iterations.iter().map(|s| s.assign_secs).sum()
    }

    /// Total seconds spent building conflict graphs.
    pub fn conflict_secs(&self) -> f64 {
        self.iterations.iter().map(|s| s.conflict_secs).sum()
    }

    /// Total seconds spent coloring.
    pub fn color_secs(&self) -> f64 {
        self.iterations.iter().map(|s| s.color_secs).sum()
    }

    /// Iterations whose greedy kept per-colour holder sets (see
    /// [`IterationStats::color_bitset`]).
    pub fn color_bitset_iterations(&self) -> usize {
        self.iterations.iter().filter(|s| s.color_bitset).count()
    }

    /// Iterations whose Line 7 kept hit masks instead of a CSR (see
    /// [`IterationStats::conflict_masks`]).
    pub fn conflict_mask_iterations(&self) -> usize {
        self.iterations.iter().filter(|s| s.conflict_masks).count()
    }

    /// Largest packed replica across iterations, in bytes (see
    /// [`IterationStats::replica_bytes`]); zero when no iteration packed.
    pub fn max_replica_bytes(&self) -> u64 {
        self.iterations
            .iter()
            .map(|s| s.replica_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Largest hit-mask form across iterations, in bytes (see
    /// [`IterationStats::mask_bytes`]); zero when the graph-form rule
    /// never ran.
    pub fn max_mask_bytes(&self) -> u64 {
        self.iterations
            .iter()
            .map(|s| s.mask_bytes)
            .max()
            .unwrap_or(0)
    }

    /// `C / |V| · 100` — the paper's *Color percentage* (shrinkage of
    /// Pauli strings into unitaries).
    pub fn color_percentage(&self) -> f64 {
        if self.colors.is_empty() {
            return 0.0;
        }
        100.0 * self.num_colors as f64 / self.colors.len() as f64
    }
}

/// The Picasso solver. Construct with a [`PicassoConfig`], then call
/// [`Picasso::solve_pauli`] (quantum workloads) or
/// [`Picasso::solve_oracle`] (any implicit graph).
#[derive(Clone, Debug)]
pub struct Picasso {
    config: PicassoConfig,
}

impl Picasso {
    /// Creates a solver.
    pub fn new(config: PicassoConfig) -> Picasso {
        Picasso { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PicassoConfig {
        &self.config
    }

    /// Colors the complement graph of a Pauli-string set; color classes
    /// are anticommuting cliques (the unitary partition).
    pub fn solve_pauli<S: AntiCommuteSet>(&self, set: &S) -> Result<PicassoResult, SolveError> {
        self.solve_pauli_in(set, &mut IterationContext::new())
    }

    /// [`Picasso::solve_pauli`] with a caller-owned
    /// [`IterationContext`]. The context's lists, index storage and
    /// scratch arenas are reused across calls, so a long-lived worker
    /// (e.g. one thread of a solve service) serving a stream of
    /// similar-shape instances reaches an allocation-free steady state
    /// instead of paying the workspace warm-up on every job. Results are
    /// identical to a fresh-context solve.
    pub fn solve_pauli_in<S: AntiCommuteSet>(
        &self,
        set: &S,
        ctx: &mut IterationContext,
    ) -> Result<PicassoResult, SolveError> {
        let oracle = PauliComplementOracle::new(set);
        let words_bytes = pauli::encode::words_for(set.num_qubits()) * std::mem::size_of::<u64>();
        self.solve_inner(&oracle, words_bytes, ctx)
    }

    /// Colors an arbitrary implicit graph given by an edge oracle.
    pub fn solve_oracle<O: EdgeOracle>(&self, oracle: &O) -> Result<PicassoResult, SolveError> {
        self.solve_oracle_in(oracle, &mut IterationContext::new())
    }

    /// [`Picasso::solve_oracle`] with a caller-owned
    /// [`IterationContext`] (see [`Picasso::solve_pauli_in`]).
    pub fn solve_oracle_in<O: EdgeOracle>(
        &self,
        oracle: &O,
        ctx: &mut IterationContext,
    ) -> Result<PicassoResult, SolveError> {
        // Nominal one-word-per-vertex device payload for non-Pauli
        // oracles.
        self.solve_inner(oracle, std::mem::size_of::<u64>(), ctx)
    }

    fn solve_inner<O: EdgeOracle>(
        &self,
        oracle: &O,
        words_bytes_per_vertex: usize,
        ctx: &mut IterationContext,
    ) -> Result<PicassoResult, SolveError> {
        let cfg = &self.config;
        let n = oracle.num_vertices();
        let start = Instant::now();
        let mut colors = vec![UNCOLORED; n];
        let mut live: Vec<u32> = (0..n as u32).collect();
        let mut next_base = 0u32;
        let mut iterations = Vec::new();
        let mut safety_valve_vertices = 0usize;

        // The device inherits the context's fault plan (if any): chaos
        // testing threads through here without touching `PicassoConfig`,
        // so fault injection can never perturb cache identity.
        let device = match cfg.backend {
            ConflictBackend::Device { capacity } => {
                Some(DeviceSim::with_fault_plan(capacity, ctx.fault_plan()))
            }
            _ => None,
        };

        // The per-iteration workspace: constructed once per solve (or
        // owned by a long-lived worker and lent in), used by every stage
        // of every round. Lists are re-assigned in place, the bucket
        // index is built at most once per iteration and shared by
        // whichever backend(s) run, and the scratch arenas (COO staging,
        // oracle hit vectors, live-view remapping, the per-task pool)
        // persist across iterations — and across solves when the caller
        // reuses the context. `index_builds` is reported per solve.
        let index_builds_at_start = ctx.index_builds();
        let pack_builds_at_start = ctx.pack_builds();
        let mut conflicted: Vec<u32> = Vec::new();
        let mut outcome = listcolor::ListColorOutcome::default();

        // Cooperative deadline: checked between phases only (iteration
        // top and the build→color seam), never mid-kernel — a clean
        // abort that leaves the context reusable. `None` is one branch.
        let deadline = ctx.deadline();
        let deadline_hit = |completed: usize| {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                Err(SolveError::DeadlineExceeded {
                    completed_iterations: completed,
                })
            } else {
                Ok(())
            }
        };

        let mut iter = 0usize;
        while !live.is_empty() {
            deadline_hit(iter)?;
            iter += 1;
            if iter > cfg.max_iterations {
                // Safety valve: one fresh color per remaining vertex,
                // counted so a solve that needed it says so.
                for (k, &v) in live.iter().enumerate() {
                    colors[v as usize] = next_base + k as u32;
                }
                safety_valve_vertices = live.len();
                live.clear();
                break;
            }
            let m = live.len();
            let palette = cfg.palette_size(m);
            let list_size = cfg.list_size(m);

            // Line 6: random list assignment from the fresh palette,
            // into the context's reused flat array.
            let t0 = Instant::now();
            {
                let _span = telemetry::span!("assign", iter = iter);
                ctx.assign_lists(m, next_base, palette, list_size, cfg.seed, iter as u64);
            }
            let assign_secs = t0.elapsed().as_secs_f64();
            // Pre-oracle conflict-load estimate from the bucket
            // histogram, captured before any build runs.
            let load = ctx.bucket_load();

            // Line 7: conflict graph over the live subgraph, every
            // backend drawing from the shared context.
            let view = LiveView::new(oracle, &live);
            let input_bpv =
                words_bytes_per_vertex + ctx.lists().list_size() * std::mem::size_of::<u32>();
            let t1 = Instant::now();
            let build_span = telemetry::span!("conflict_build", iter = iter);
            let greedy = cfg.scheme == ListColoringScheme::DynamicGreedy;
            let (build, csr_on_device): (HostBuild, _) = match cfg.backend {
                ConflictBackend::Sequential => {
                    (conflict::build_host(&view, ctx, false, greedy), None)
                }
                ConflictBackend::Parallel => (conflict::build_host(&view, ctx, true, greedy), None),
                ConflictBackend::AllPairs => {
                    (conflict::build_sequential_allpairs(&view, ctx).into(), None)
                }
                ConflictBackend::Device { .. } => {
                    let dev = device.as_ref().expect("device backend has a device");
                    let build = conflict::build_device(&view, ctx, dev, input_bpv)
                        .map_err(SolveError::DeviceOom)?;
                    let on_device = build.csr_on_device;
                    (build.into(), on_device)
                }
            };
            drop(build_span);
            let conflict_secs = t1.elapsed().as_secs_f64();
            // Phase seam: a deadline passing during the build aborts
            // before any coloring work starts.
            if let Err(e) = deadline_hit(iter - 1) {
                if let HostGraph::Csr(gc) = build.graph {
                    ctx.recycle_csr(gc);
                }
                return Err(e);
            }

            // Lines 8-9: color unconflicted vertices, then the conflict
            // graph, in whichever form Line 7 left it.
            let t2 = Instant::now();
            let color_span = telemetry::span!("color", iter = iter);
            let seed = cfg.seed ^ (iter as u64).wrapping_mul(0x9E3779B97F4A7C15);
            let conflict_masks = matches!(build.graph, HostGraph::Masks);
            let (colored_unconflicted, conflict_edges) = match build.graph {
                HostGraph::Csr(gc) => {
                    let (lists, cs) = ctx.lists_and_color_scratch();
                    let split = color_unconflicted(&gc, lists, &live, &mut colors, &mut conflicted);
                    match cfg.scheme {
                        ListColoringScheme::DynamicGreedy => listcolor::greedy_list_color_in(
                            &gc,
                            lists,
                            &conflicted,
                            seed,
                            cs,
                            &mut outcome,
                        ),
                        // The static seed predates the splitmix mixing of
                        // the greedy one; kept verbatim for replay
                        // compatibility.
                        ListColoringScheme::Static(h) => listcolor::static_list_color_into(
                            &gc,
                            lists,
                            &conflicted,
                            h,
                            cfg.seed ^ iter as u64,
                            cs,
                            &mut outcome,
                        ),
                    }
                    // The conflict graph is done for this round: hand its
                    // storage back so the next iteration's CSR assembles
                    // into the same arrays (the allocation-free Line 7
                    // loop).
                    ctx.recycle_csr(gc);
                    split
                }
                HostGraph::Masks => {
                    let (gc, lists, cs) = ctx.hit_mask_graph();
                    let split = color_unconflicted(&gc, lists, &live, &mut colors, &mut conflicted);
                    listcolor::greedy_list_color_in(
                        &gc,
                        lists,
                        &conflicted,
                        seed,
                        cs,
                        &mut outcome,
                    );
                    split
                }
            };
            let lists = ctx.lists();
            let color_bitset =
                greedy && listcolor::uses_palette_bitset(lists.palette_size(), lists.list_size());
            for &(v, c) in &outcome.assigned {
                colors[live[v as usize] as usize] = c;
            }
            drop(color_span);
            let color_secs = t2.elapsed().as_secs_f64();

            let new_live: Vec<u32> = outcome
                .uncolored
                .iter()
                .map(|&v| live[v as usize])
                .collect();

            iterations.push(IterationStats {
                iteration: iter,
                live_vertices: m,
                palette_size: palette,
                list_size,
                max_bucket: load.max_bucket,
                bucket_pairs_estimate: load.total_pairs,
                conflict_vertices: conflicted.len(),
                conflict_edges,
                candidate_pairs: build.candidate_pairs,
                packed_lanes: build.packed_lanes,
                hit_bits: build.scan_stats.hit_bits,
                skipped_words: build.scan_stats.skipped_words,
                scanned_words: build.scan_stats.scanned_words,
                colored_unconflicted,
                colored_in_conflict: outcome.assigned.len(),
                uncolored_after: new_live.len(),
                assign_secs,
                conflict_secs,
                color_secs,
                color_bitset,
                conflict_masks,
                mask_bytes: build.mask_bytes,
                replica_bytes: ctx.replica_bytes() as u64,
                shared_color_filter: ctx.shared_color_filter(),
                csr_on_device,
            });

            live = new_live;
            next_base += palette;
        }

        let num_colors = {
            let mut used: Vec<u32> = colors.clone();
            used.sort_unstable();
            used.dedup();
            used.len() as u32
        };
        let device_stats = device.as_ref().map(DeviceSim::stats);
        // A solve is a natural trace boundary: deliver this thread's
        // ring to the sink rather than waiting for it to fill.
        telemetry::flush_thread();
        Ok(PicassoResult {
            colors,
            num_colors,
            iterations,
            total_secs: start.elapsed().as_secs_f64(),
            device_stats,
            index_builds: ctx.index_builds() - index_builds_at_start,
            pack_builds: ctx.pack_builds() - pack_builds_at_start,
            safety_valve_vertices,
        })
    }
}

/// Line 8 over either form of the conflict graph: every live vertex
/// without a conflict neighbour takes the first color of its list, the
/// others are collected into `conflicted` for Line 9. Returns the
/// vertices colored here and the graph's edge count.
fn color_unconflicted<G: ConflictRows>(
    gc: &G,
    lists: &ColorLists,
    live: &[u32],
    colors: &mut [u32],
    conflicted: &mut Vec<u32>,
) -> (usize, usize) {
    conflicted.clear();
    let mut colored = 0;
    for local in 0..gc.num_vertices() {
        if gc.is_conflicted(local) {
            conflicted.push(local as u32);
        } else {
            colors[live[local] as usize] = lists.row(local)[0];
            colored += 1;
        }
    }
    (colored, gc.num_edges())
}

#[cfg(test)]
mod tests {
    use super::*;
    use coloring::verify::validate_oracle_coloring;
    use pauli::{EncodedSet, PauliString};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_set(n: usize, qubits: usize, seed: u64) -> EncodedSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let strings = pauli::string::random_unique_set(n, qubits, &mut rng);
        EncodedSet::from_strings(&strings)
    }

    #[test]
    fn produces_valid_coloring_of_complement_graph() {
        let set = random_set(150, 10, 1);
        let result = Picasso::new(PicassoConfig::normal(3))
            .solve_pauli(&set)
            .unwrap();
        assert_eq!(result.colors.len(), 150);
        let oracle = PauliComplementOracle::new(&set);
        assert!(validate_oracle_coloring(&oracle, &result.colors).is_ok());
        assert!(result.num_colors >= 1);
        assert!(result.num_colors <= 150);
    }

    #[test]
    fn color_classes_are_anticommuting_cliques() {
        let set = random_set(100, 8, 2);
        let result = Picasso::new(PicassoConfig::normal(5))
            .solve_pauli(&set)
            .unwrap();
        for class in crate::color_classes(&result.colors) {
            for (a, &u) in class.iter().enumerate() {
                for &v in class.iter().skip(a + 1) {
                    assert!(
                        set.anticommutes(u as usize, v as usize),
                        "class members {u},{v} must anticommute"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let set = random_set(120, 9, 3);
        let a = Picasso::new(PicassoConfig::normal(7))
            .solve_pauli(&set)
            .unwrap();
        let b = Picasso::new(PicassoConfig::normal(7))
            .solve_pauli(&set)
            .unwrap();
        assert_eq!(a.colors, b.colors);
        let c = Picasso::new(PicassoConfig::normal(8))
            .solve_pauli(&set)
            .unwrap();
        // Different seed is allowed to differ (and essentially always does).
        assert!(a.colors != c.colors || a.num_colors == c.num_colors);
    }

    #[test]
    fn solve_error_sources_chain_to_the_device_error() {
        use std::error::Error;
        let oom = SolveError::DeviceOom(DeviceError::OutOfMemory {
            requested: 10,
            available: 2,
        });
        let src = oom.source().expect("DeviceOom carries a source");
        assert_eq!(
            src.to_string(),
            "device out of memory: requested 10 B, 2 B available"
        );
        assert!(src.source().is_none(), "DeviceError is the chain's root");
        assert!(!oom.is_injected());

        let injected = SolveError::DeviceOom(DeviceError::Injected {
            site: device::FaultSite::DeviceReserve,
            op: 3,
        });
        assert!(injected.is_injected());
        let src = injected.source().unwrap();
        assert!(src.to_string().contains("injected device_reserve fault"));

        let err = SolveError::DeadlineExceeded {
            completed_iterations: 0,
        };
        assert!(err.source().is_none(), "{err} has no inner error");
        assert!(!err.is_injected());
    }

    #[test]
    fn expired_deadline_aborts_cleanly_and_context_stays_reusable() {
        let set = random_set(80, 8, 5);
        let mut ctx = IterationContext::new();
        ctx.set_deadline(Some(Instant::now()));
        let err = Picasso::new(PicassoConfig::normal(3))
            .solve_pauli_in(&set, &mut ctx)
            .unwrap_err();
        assert_eq!(
            err,
            SolveError::DeadlineExceeded {
                completed_iterations: 0
            }
        );
        // Disarming and re-solving in the same context matches a fresh
        // solve bit for bit — the abort left no residue.
        ctx.set_deadline(None);
        let replay = Picasso::new(PicassoConfig::normal(3))
            .solve_pauli_in(&set, &mut ctx)
            .unwrap();
        let fresh = Picasso::new(PicassoConfig::normal(3))
            .solve_pauli(&set)
            .unwrap();
        assert_eq!(replay.colors, fresh.colors);
    }

    #[test]
    fn injected_device_faults_surface_as_typed_transient_errors() {
        use device::FaultPlan;
        let set = random_set(60, 8, 6);
        let cfg = PicassoConfig::normal(3).with_backend(ConflictBackend::Device {
            capacity: 32 * 1024 * 1024,
        });
        let mut ctx = IterationContext::new();
        ctx.set_fault_plan(Some(FaultPlan::uniform(11, 1.0)));
        let err = Picasso::new(cfg)
            .solve_pauli_in(&set, &mut ctx)
            .unwrap_err();
        assert!(err.is_injected(), "{err}");
        // Clearing the plan heals the context: the re-solve is
        // bit-identical to a device solve that never saw faults.
        ctx.set_fault_plan(None);
        let healed = Picasso::new(cfg).solve_pauli_in(&set, &mut ctx).unwrap();
        let clean = Picasso::new(cfg).solve_pauli(&set).unwrap();
        assert_eq!(healed.colors, clean.colors);
    }

    #[test]
    fn backends_produce_identical_colorings() {
        let set = random_set(90, 8, 4);
        let base = PicassoConfig::normal(11);
        let seq = Picasso::new(base.with_backend(ConflictBackend::Sequential))
            .solve_pauli(&set)
            .unwrap();
        let par = Picasso::new(base.with_backend(ConflictBackend::Parallel))
            .solve_pauli(&set)
            .unwrap();
        let dev = Picasso::new(base.with_backend(ConflictBackend::Device {
            capacity: 32 * 1024 * 1024,
        }))
        .solve_pauli(&set)
        .unwrap();
        let allpairs = Picasso::new(base.with_backend(ConflictBackend::AllPairs))
            .solve_pauli(&set)
            .unwrap();
        assert_eq!(seq.colors, par.colors, "sequential vs parallel");
        assert_eq!(seq.colors, dev.colors, "sequential vs device");
        assert_eq!(
            seq.colors, allpairs.colors,
            "sequential vs all-pairs reference"
        );
        assert!(dev.device_stats.is_some());
        assert!(seq.device_stats.is_none());
        // The bucketed backends report identical enumeration work; the
        // all-pairs reference reports the full quadratic count, which the
        // engine can never exceed (it falls back to all-pairs when
        // buckets would be costlier).
        assert_eq!(seq.total_candidate_pairs(), par.total_candidate_pairs());
        assert_eq!(seq.total_candidate_pairs(), dev.total_candidate_pairs());
        assert!(seq.total_candidate_pairs() <= allpairs.total_candidate_pairs());
        assert!(allpairs.total_candidate_pairs() > 0);
    }

    #[test]
    fn bucket_index_is_built_at_most_once_per_iteration() {
        let set = random_set(200, 10, 21);
        let base = PicassoConfig::normal(4);
        for backend in [
            ConflictBackend::Sequential,
            ConflictBackend::Parallel,
            ConflictBackend::Device {
                capacity: 32 * 1024 * 1024,
            },
        ] {
            let r = Picasso::new(base.with_backend(backend))
                .solve_pauli(&set)
                .unwrap();
            assert!(
                r.index_builds <= r.iterations.len(),
                "{backend:?}: {} builds over {} iterations",
                r.index_builds,
                r.iterations.len()
            );
            // The Normal configuration starts in the bucketed regime, so
            // at least the first iteration must have built the index.
            assert!(r.index_builds >= 1, "{backend:?}");
        }
        // The forced all-pairs reference never builds one.
        let r = Picasso::new(base.with_backend(ConflictBackend::AllPairs))
            .solve_pauli(&set)
            .unwrap();
        assert_eq!(r.index_builds, 0);
    }

    #[test]
    fn packed_kernel_runs_by_default_on_pauli_solves() {
        let set = random_set(300, 10, 23);
        let base = PicassoConfig::normal(4);
        let r = Picasso::new(base).solve_pauli(&set).unwrap();
        // The Normal configuration starts bucketed with deep buckets, so
        // the first iteration must have packed; at most one replica is
        // packed per iteration, whichever engine ran.
        assert!(r.pack_builds >= 1);
        assert!(r.pack_builds <= r.iterations.len());
        assert!(r.total_packed_lanes() > 0);
        assert!(r.packed_lane_utilization() > 0.0);
        assert!(r.packed_lane_utilization() <= 1.0);
        for s in &r.iterations {
            assert!(
                s.packed_lanes == 0 || s.packed_lanes == s.candidate_pairs,
                "iteration {}: packed_lanes is all-or-nothing per build",
                s.iteration
            );
        }
        // The forced all-pairs reference never packs.
        let allpairs = Picasso::new(base.with_backend(ConflictBackend::AllPairs))
            .solve_pauli(&set)
            .unwrap();
        assert_eq!(allpairs.pack_builds, 0);
        assert_eq!(allpairs.total_packed_lanes(), 0);
        assert_eq!(allpairs.colors, r.colors, "packed vs all-pairs coloring");
        // Aggressive lists (L close to P) select the all-pairs engine,
        // which packs the identity layout without ever building the
        // index, and colors exactly like the scalar reference.
        let aggressive = PicassoConfig::aggressive(4);
        let r = Picasso::new(aggressive).solve_pauli(&set).unwrap();
        assert_eq!(r.index_builds, 0);
        assert!(r.pack_builds >= 1);
        assert!(r.pack_builds <= r.iterations.len());
        assert!(r.total_packed_lanes() > 0);
        let reference = Picasso::new(aggressive.with_backend(ConflictBackend::AllPairs))
            .solve_pauli(&set)
            .unwrap();
        assert_eq!(reference.pack_builds, 0);
        assert_eq!(
            reference.colors, r.colors,
            "packed vs scalar all-pairs coloring"
        );
    }

    #[test]
    fn scan_stats_and_packing_verdicts_are_internally_consistent() {
        let set = random_set(300, 10, 23);
        let r = Picasso::new(PicassoConfig::normal(4))
            .solve_pauli(&set)
            .unwrap();
        for s in &r.iterations {
            assert!(s.skipped_words <= s.scanned_words, "iter {}", s.iteration);
            assert!(s.hit_bits <= s.packed_lanes, "iter {}", s.iteration);
            if s.packed_lanes > 0 {
                // One mask word covers at most 64 lanes.
                assert!(s.scanned_words * 64 >= s.packed_lanes);
                // Dedup can only shrink the raw hit count.
                assert!(s.hit_bits >= s.conflict_edges as u64);
            } else {
                assert_eq!((s.hit_bits, s.scanned_words), (0, 0));
            }
        }
        // Normal-config Pauli solves pack, so the solve-wide density is
        // a real ratio.
        assert!(r.total_hit_bits() > 0);
        assert!(r.hit_density() > 0.0 && r.hit_density() <= 1.0);
        // A scalar-only solve reports empty scan stats.
        let never = Picasso::new(PicassoConfig::normal(4).with_backend(ConflictBackend::AllPairs))
            .solve_pauli(&set)
            .unwrap();
        assert_eq!(never.total_hit_bits(), 0);
        assert_eq!(never.total_skipped_words(), 0);
        assert_eq!(never.hit_density(), 0.0);
    }

    #[test]
    fn stats_surface_the_pre_oracle_bucket_histogram() {
        let set = random_set(180, 10, 22);
        let r = Picasso::new(PicassoConfig::normal(3))
            .solve_pauli(&set)
            .unwrap();
        for s in &r.iterations {
            assert!(s.max_bucket >= 1, "iteration {}", s.iteration);
            assert!(s.max_bucket <= s.live_vertices);
            // The estimate is exact whenever the bucketed engine ran,
            // and at least the examined all-pairs count otherwise (the
            // engine only falls back when buckets would cost more).
            assert!(
                s.bucket_pairs_estimate >= s.candidate_pairs,
                "iteration {}: estimate {} vs examined {}",
                s.iteration,
                s.bucket_pairs_estimate,
                s.candidate_pairs
            );
        }
    }

    #[test]
    fn context_reuse_across_solves_matches_fresh_context() {
        // A long-lived worker context must serve a stream of different
        // instances with results identical to fresh-context solves, and
        // report per-solve (not cumulative) index builds.
        let base = PicassoConfig::normal(5);
        let mut ctx = IterationContext::new();
        for seed in [1u64, 2, 3] {
            let set = random_set(130, 9, seed);
            let fresh = Picasso::new(base).solve_pauli(&set).unwrap();
            let reused = Picasso::new(base).solve_pauli_in(&set, &mut ctx).unwrap();
            assert_eq!(fresh.colors, reused.colors, "seed {seed}");
            assert_eq!(fresh.num_colors, reused.num_colors, "seed {seed}");
            assert_eq!(fresh.index_builds, reused.index_builds, "seed {seed}");
        }
    }

    #[test]
    fn device_oom_surfaces_as_error() {
        let set = random_set(200, 8, 5);
        let cfg =
            PicassoConfig::normal(1).with_backend(ConflictBackend::Device { capacity: 4 * 1024 });
        let err = Picasso::new(cfg).solve_pauli(&set);
        assert!(matches!(err, Err(SolveError::DeviceOom(_))), "got {err:?}");
    }

    #[test]
    fn fresh_palettes_never_reuse_colors_across_iterations() {
        let set = random_set(150, 8, 6);
        let result = Picasso::new(PicassoConfig::normal(2))
            .solve_pauli(&set)
            .unwrap();
        // Reconstruct each iteration's palette range and check bounds.
        let mut base = 0u32;
        for s in &result.iterations {
            let hi = base + s.palette_size;
            // No vertex color from a *later* palette may appear in stats
            // of earlier ranges; weaker invariant checked: every color is
            // below the final cumulative palette end.
            base = hi;
        }
        assert!(result.colors.iter().all(|&c| c < base));
    }

    #[test]
    fn stats_are_internally_consistent() {
        let set = random_set(200, 10, 7);
        let result = Picasso::new(PicassoConfig::normal(4))
            .solve_pauli(&set)
            .unwrap();
        let mut expected_live = 200usize;
        for s in &result.iterations {
            assert_eq!(s.live_vertices, expected_live);
            assert_eq!(
                s.colored_unconflicted + s.conflict_vertices,
                s.live_vertices,
                "iteration {}",
                s.iteration
            );
            assert_eq!(
                s.colored_in_conflict + s.uncolored_after,
                s.conflict_vertices,
                "iteration {}",
                s.iteration
            );
            expected_live = s.uncolored_after;
        }
        assert_eq!(expected_live, 0, "all vertices colored at the end");
        assert!(result.max_conflict_edges() >= 1);
        assert!(result.color_percentage() > 0.0);
    }

    #[test]
    fn single_vertex_and_empty_inputs() {
        let set = random_set(1, 4, 8);
        let r = Picasso::new(PicassoConfig::normal(1))
            .solve_pauli(&set)
            .unwrap();
        assert_eq!(r.colors.len(), 1);
        assert_eq!(r.num_colors, 1);

        let empty = EncodedSet::from_strings(&[]);
        let r = Picasso::new(PicassoConfig::normal(1))
            .solve_pauli(&empty)
            .unwrap();
        assert!(r.colors.is_empty());
        assert_eq!(r.num_colors, 0);
        assert!(r.iterations.is_empty());
    }

    #[test]
    fn identity_string_gets_private_color_among_nonidentity() {
        // The identity commutes with everything, so in G' it is adjacent
        // to every other vertex and must be alone in its class.
        let mut strings = vec![PauliString::identity(6)];
        let mut rng = StdRng::seed_from_u64(9);
        strings.extend(pauli::string::random_unique_set(80, 6, &mut rng));
        strings.dedup();
        let set = EncodedSet::from_strings(&strings);
        let result = Picasso::new(PicassoConfig::normal(3))
            .solve_pauli(&set)
            .unwrap();
        let id_color = result.colors[0];
        for (v, &c) in result.colors.iter().enumerate().skip(1) {
            assert_ne!(c, id_color, "vertex {v} shares the identity's color");
        }
    }

    #[test]
    fn max_iterations_fallback_still_valid() {
        let set = random_set(60, 8, 10);
        let mut cfg = PicassoConfig::normal(1);
        cfg.max_iterations = 1;
        let result = Picasso::new(cfg).solve_pauli(&set).unwrap();
        let oracle = PauliComplementOracle::new(&set);
        assert!(validate_oracle_coloring(&oracle, &result.colors).is_ok());
    }

    #[test]
    fn safety_valve_counts_the_vertices_it_colors() {
        let set = random_set(200, 8, 10);
        let mut cfg = PicassoConfig::normal(1);
        cfg.max_iterations = 1;
        let capped = Picasso::new(cfg).solve_pauli(&set).unwrap();
        assert_eq!(capped.iterations.len(), 1);
        // Exactly the vertices left uncolored by the one iteration went
        // through the valve, each with a color of its own.
        let leftover = capped.iterations[0].uncolored_after;
        assert!(leftover > 0, "one Normal iteration leaves vertices dry");
        assert_eq!(capped.safety_valve_vertices, leftover);
        let valve_base = capped.iterations[0].palette_size;
        let valve_colors: Vec<u32> = capped
            .colors
            .iter()
            .copied()
            .filter(|&c| c >= valve_base)
            .collect();
        assert_eq!(valve_colors.len(), leftover);
        // An unbounded solve never touches the valve.
        let full = Picasso::new(PicassoConfig::normal(1))
            .solve_pauli(&set)
            .unwrap();
        assert_eq!(full.safety_valve_vertices, 0);
    }

    #[test]
    fn static_scheme_also_converges_to_valid_coloring() {
        let set = random_set(100, 8, 11);
        let cfg = PicassoConfig::normal(5).with_scheme(ListColoringScheme::Static(
            coloring::OrderingHeuristic::LargestFirst,
        ));
        let result = Picasso::new(cfg).solve_pauli(&set).unwrap();
        let oracle = PauliComplementOracle::new(&set);
        assert!(validate_oracle_coloring(&oracle, &result.colors).is_ok());
    }

    #[test]
    fn aggressive_uses_no_more_colors_than_tiny_palette_normal() {
        // Qualitative shape from Table III: aggressive (small P, huge α)
        // produces fewer colors than normal.
        let set = random_set(300, 10, 12);
        let normal = Picasso::new(PicassoConfig::normal(3))
            .solve_pauli(&set)
            .unwrap();
        let aggressive = Picasso::new(PicassoConfig::aggressive(3))
            .solve_pauli(&set)
            .unwrap();
        assert!(
            aggressive.num_colors <= normal.num_colors,
            "aggressive {} should not exceed normal {}",
            aggressive.num_colors,
            normal.num_colors
        );
    }
}
