//! `service_mix`: a closed loop with one client sending batches of
//! [`BATCH`] synthetic Pauli requests to one long-lived `SolveService`.
//! Half of each batch draws from a [`WORKING_SET`]-instance working set
//! (cache hits, plus in-batch duplicates that coalesce), half is fresh.
//!
//! The solver-side end-to-end metrics (`solve_ms`, `solve_seq_ms`,
//! `peak_heap_mib`) are taken on the working-set instances solved
//! directly on fresh contexts — the per-request solve the service wraps —
//! interleaved with the stream every [`DIRECT_EVERY`] batches.

use crate::hostspeed::HostSpeed;
use crate::record::Record;
use crate::solver_run::{self, sequential};
use crate::stats::{median, quartile_spread, ratio, tail};
use crate::workloads::{random_pauli, Input, Instance, SERVICE_N, SERVICE_QUBITS};
use picasso::IterationContext;
use picasso_service::{
    AdmissionController, JobConfig, JobOutcome, MetricsSnapshot, ServiceConfig, SolveRequest,
    SolveResponse, SolveService, Workload,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Requests per batch.
pub const BATCH: usize = 8;
/// Distinct instances in the working set.
pub const WORKING_SET: usize = 4;
/// `num_colors` sums over the distinct instances of this many leading
/// batches, so it does not depend on how many batches a run completes.
pub const COLOR_PREFIX_BATCHES: usize = 16;
/// The per-layer metrics only this workload measures.
pub const LAYER_METRICS: [&str; 4] = [
    "service.admission_us",
    "service.cache_hit_ratio",
    "service.solve_ms",
    "service.overhead_share",
];
/// Batches between two direct solves of a working-set instance.
const DIRECT_EVERY: usize = 4;

/// Instance seeds, all derived from the workload seed in disjoint
/// ranges: the working set (offsets 0–3), the set-up warm-up batch
/// (900–907) and the fresh instances (from 1000).
fn working_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k as u64)
}
fn fresh_seed(seed: u64, batch: usize, j: usize) -> u64 {
    working_seed(seed, 1_000 + batch * BATCH + j)
}
fn warm_seed(seed: u64, j: usize) -> u64 {
    working_seed(seed, 900 + j)
}

fn request(id: String, instance_seed: u64) -> SolveRequest {
    SolveRequest::new(
        id,
        Workload::SyntheticPauli {
            n: SERVICE_N,
            qubits: SERVICE_QUBITS,
            seed: instance_seed,
        },
    )
}

/// The configuration the service resolves for these requests.
fn job_config() -> picasso::PicassoConfig {
    JobConfig::default()
        .effective()
        .expect("default job config")
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        ..ServiceConfig::default()
    }
}

/// Set-up, repeated (see [`solver_run::setups_done`]): `SolveService::new`
/// plus one warm-up batch of instances outside the stream. Returns the
/// last service and the times.
fn set_up(seed: u64, rec: &mut Record) -> (SolveService, Vec<f64>) {
    let mut times = Vec::with_capacity(solver_run::SETUP_MIN);
    let mut last = None;
    while !solver_run::setups_done(&times) {
        let t = Instant::now();
        let service = SolveService::new(service_config());
        let warm: Vec<SolveRequest> = (0..BATCH)
            .map(|j| request(format!("warm-{j}"), warm_seed(seed, j)))
            .collect();
        let report = service.process_batch(warm);
        times.push(t.elapsed().as_secs_f64());
        for r in &report.responses {
            let ok = matches!(r.outcome, JobOutcome::Solved(_));
            rec.check(ok, || format!("warm-up request {} not solved", r.id));
        }
        last = Some(service);
    }
    (last.expect("at least one set-up"), times)
}

/// One stream of batches and everything checked about it.
struct Stream {
    /// Latency of each batch with its host-speed epoch.
    batch_ms: Vec<(f64, usize)>,
    requests: Vec<SolveRequest>,
    /// First response line per request id (working-set ids repeat).
    first_line: BTreeMap<String, String>,
    /// Colours per distinct instance seed, for validation.
    colors: BTreeMap<u64, Vec<u32>>,
    /// Instance seeds seen in the first [`COLOR_PREFIX_BATCHES`] batches.
    prefix_seeds: BTreeSet<u64>,
    num_colors: BTreeMap<u64, u32>,
    /// Service metrics before and after the stream (set-up excluded).
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Stream {
    /// Time spent inside `process_batch`, in ms.
    fn busy_ms(&self) -> f64 {
        self.batch_ms.iter().map(|b| b.0).sum()
    }

    /// Cache hits and misses during the stream.
    fn cache_counts(&self) -> (u64, u64) {
        (
            self.after.cache_hits - self.before.cache_hits,
            self.after.cache_misses - self.before.cache_misses,
        )
    }
}

/// The working set solved directly on fresh contexts, between batches.
struct Direct<'a> {
    instances: Vec<Instance<'a>>,
    /// Validated `Sequential` colouring of each instance.
    reference: Vec<Vec<u32>>,
    /// `Parallel` and `Sequential` solve times with their epochs.
    par_ms: Vec<(f64, usize)>,
    seq_ms: Vec<(f64, usize)>,
}

impl Direct<'_> {
    /// Solves working-set instance `k` once per backend; returns seconds.
    fn solve(&mut self, k: usize, epoch: usize, rec: &mut Record) -> f64 {
        let cfg = job_config();
        let mut total = 0.0;
        for (backend, times) in [(cfg, &mut self.par_ms), (sequential(cfg), &mut self.seq_ms)] {
            let t = Instant::now();
            let result = self.instances[k].solve(backend);
            let secs = t.elapsed().as_secs_f64();
            times.push((secs * 1e3, epoch));
            total += secs;
            let ok = matches!(&result, Ok(r) if r.colors == self.reference[k]);
            rec.check(ok, || {
                format!("direct solve of working-set instance {k} differs")
            });
        }
        total
    }
}

/// Runs the closed loop for `seconds` (at least one batch), sampling the
/// host-speed reference between batches and, when `direct` is given,
/// solving one working-set instance directly every [`DIRECT_EVERY`]
/// batches.
fn stream(
    service: &SolveService,
    seed: u64,
    seconds: f64,
    rec: &mut Record,
    host: &mut HostSpeed,
    mut direct: Option<&mut Direct<'_>>,
) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E41_1CE5);
    let mut s = Stream {
        batch_ms: Vec::new(),
        requests: Vec::new(),
        first_line: BTreeMap::new(),
        colors: BTreeMap::new(),
        prefix_seeds: BTreeSet::new(),
        num_colors: BTreeMap::new(),
        before: service.metrics(),
        after: service.metrics(),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for b in 0.. {
        let mut batch = Vec::with_capacity(BATCH);
        for j in 0..BATCH / 2 {
            let k = rng.random_range(0..WORKING_SET);
            batch.push(request(format!("ws-{k}"), working_seed(seed, k)));
            batch.push(request(format!("fresh-{b}-{j}"), fresh_seed(seed, b, j)));
        }
        let seeds: Vec<u64> = batch.iter().map(instance_seed).collect();
        s.requests.extend(batch.iter().cloned());
        let epoch = host.epoch();
        let t = Instant::now();
        let report = service.process_batch(batch);
        let mut secs = t.elapsed().as_secs_f64();
        s.batch_ms.push((secs * 1e3, epoch));
        if let Some(d) = direct.as_deref_mut() {
            if b % DIRECT_EVERY == 0 {
                secs += d.solve((b / DIRECT_EVERY) % WORKING_SET, epoch, rec);
            }
        }
        host.after(secs);
        for (response, &inst) in report.responses.iter().zip(&seeds) {
            check_response(&mut s, rec, response, inst);
            if b < COLOR_PREFIX_BATCHES {
                s.prefix_seeds.insert(inst);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    s.after = service.metrics();
    s
}

fn instance_seed(r: &SolveRequest) -> u64 {
    match r.workload {
        Workload::SyntheticPauli { seed, .. } => seed,
        _ => unreachable!("service_mix sends synthetic Pauli requests only"),
    }
}

/// Every response must be `Solved` with one colour per vertex, and a
/// replayed request must serialize byte-identically to its first
/// response.
fn check_response(s: &mut Stream, rec: &mut Record, response: &SolveResponse, inst: u64) {
    let JobOutcome::Solved(summary) = &response.outcome else {
        rec.check(false, || format!("request {} not solved", response.id));
        return;
    };
    rec.check(summary.colors.len() == SERVICE_N, || {
        format!(
            "request {} coloured {} vertices",
            response.id,
            summary.colors.len()
        )
    });
    let line = response.to_json_line();
    match s.first_line.get(&response.id) {
        Some(first) => rec.check(*first == line, || {
            format!("replayed request {} serialized differently", response.id)
        }),
        None => {
            s.first_line.insert(response.id.clone(), line);
            s.colors.insert(inst, summary.colors.clone());
            s.num_colors.insert(inst, summary.num_colors);
        }
    }
}

/// Validates every distinct instance's colouring.
fn validate_all(s: &Stream, rec: &mut Record) {
    for (&inst, colors) in &s.colors {
        let input = Input::Strings(random_pauli(SERVICE_N, SERVICE_QUBITS, inst));
        let ok = Instance::set_up(&input).validate(colors);
        rec.check(ok, || {
            format!("instance {inst} colouring failed validation")
        });
    }
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64, rec: &mut Record) {
    let mut host = HostSpeed::new();
    let (service, setup) = set_up(seed, rec);
    let setup_epoch = host.epoch();
    host.sample();

    let cfg = job_config();
    let inputs: Vec<Input> = (0..WORKING_SET)
        .map(|k| {
            Input::Strings(random_pauli(
                SERVICE_N,
                SERVICE_QUBITS,
                working_seed(seed, k),
            ))
        })
        .collect();
    let instances: Vec<Instance<'_>> = inputs.iter().map(Instance::set_up).collect();
    let mut reference = Vec::with_capacity(WORKING_SET);
    for (k, instance) in instances.iter().enumerate() {
        let colors = instance
            .solve(sequential(cfg))
            .map(|r| r.colors)
            .unwrap_or_default();
        let ok = instance.validate(&colors);
        rec.check(ok, || format!("working-set instance {k} failed validation"));
        reference.push(colors);
    }
    let mut direct = Direct {
        instances,
        reference,
        par_ms: Vec::new(),
        seq_ms: Vec::new(),
    };

    let s = stream(&service, seed, seconds, rec, &mut host, Some(&mut direct));
    host.sample();
    validate_all(&s, rec);
    for k in 0..WORKING_SET {
        if let Some(c) = s.colors.get(&working_seed(seed, k)) {
            rec.check(*c == direct.reference[k], || {
                format!("service colouring of working-set instance {k} differs from a direct solve")
            });
        }
    }
    let peak = solver_run::peak_heap_mib(&direct.instances[0], cfg, &direct.reference[0], rec);

    let colors: u32 = s
        .prefix_seeds
        .iter()
        .filter_map(|i| s.num_colors.get(i))
        .sum();
    let (hits, misses) = s.cache_counts();
    let scaled = |v: &[(f64, usize)], f: &dyn Fn(usize) -> f64| -> Vec<f64> {
        v.iter().map(|&(ms, e)| ms * f(e)).collect()
    };
    let f = |e: usize| host.factor(e);
    let one = |_: usize| 1.0;
    let batch_ms = scaled(&s.batch_ms, &f);
    let raw_batch_ms = scaled(&s.batch_ms, &one);
    let per_s = |b: &[f64]| s.requests.len() as f64 / (b.iter().sum::<f64>() / 1e3);
    let batch_tail = tail(&batch_ms);
    rec.set("solve_ms", median(&scaled(&direct.par_ms, &f)));
    rec.set("solve_seq_ms", median(&scaled(&direct.seq_ms, &f)));
    rec.set("peak_heap_mib", peak);
    rec.set("num_colors", colors as f64);
    rec.set("setup_s", median(&setup) * host.factor(setup_epoch));
    rec.set("requests_per_s", per_s(&batch_ms));
    rec.set("batch_ms", median(&batch_ms));
    rec.set("batch_tail_ms", batch_tail.value);
    rec.detail(
        "raw",
        serde_json::json!({
            "solve_ms": median(&scaled(&direct.par_ms, &one)),
            "solve_seq_ms": median(&scaled(&direct.seq_ms, &one)),
            "setup_s": median(&setup),
            "requests_per_s": per_s(&raw_batch_ms),
            "batch_ms": median(&raw_batch_ms),
            "batch_tail_ms": tail(&raw_batch_ms).value,
        }),
    );
    rec.detail("host_speed", host.details());
    rec.detail("batches", s.batch_ms.len());
    rec.detail("requests", s.requests.len());
    rec.detail("batch_ms_spread", quartile_spread(&batch_ms));
    rec.detail("batch_tail_percentile", batch_tail.percentile * 100.0);
    rec.detail("solve_samples", direct.par_ms.len());
    rec.detail("num_colors_instances", s.prefix_seeds.len());
    rec.detail("cache_hits", hits);
    rec.detail("cache_misses", misses);
    rec.detail("service_solves", s.after.solved - s.before.solved);
    rec.detail("setup_samples", setup.len());
}

/// The traced run: the stream for half the time, then admission,
/// warm-context solves of the missed instances, and the solver-layer
/// replay of a working-set instance for the rest.
pub fn trace(seed: u64, seconds: f64, rec: &mut Record) {
    let mut host = HostSpeed::new();
    let (service, _) = set_up(seed, rec);
    let s = stream(&service, seed, seconds / 2.0, rec, &mut host, None);
    validate_all(&s, rec);
    let (hits, misses) = s.cache_counts();
    host.sample();
    let epoch = host.epoch();

    let admission = AdmissionController::new(service.config().admission);
    let mut admission_us = Vec::with_capacity(s.requests.len());
    for r in &s.requests {
        let t = Instant::now();
        let decision = std::hint::black_box(admission.assess(r));
        admission_us.push(t.elapsed().as_secs_f64() * 1e6);
        let admitted = !matches!(decision, picasso_service::AdmissionDecision::Reject { .. });
        rec.check(admitted, || format!("request {} would be rejected", r.id));
    }

    // The distinct instances of the leading batches, solved again on
    // one warm context; the stream's total solve time is estimated from
    // their median and the number of solves the service ran.
    let cfg = job_config();
    let mut ctx = IterationContext::new();
    let mut solve_ms = Vec::with_capacity(s.prefix_seeds.len());
    for &inst in &s.prefix_seeds {
        let input = Input::Strings(random_pauli(SERVICE_N, SERVICE_QUBITS, inst));
        let instance = Instance::set_up(&input);
        let t = Instant::now();
        let result = instance.solve_in(cfg, &mut ctx);
        solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let ok = matches!((&result, s.colors.get(&inst)), (Ok(res), Some(c)) if res.colors == *c);
        rec.check(ok, || {
            format!("warm solve of instance {inst} differs from the service")
        });
    }
    let stream_solves = s.after.solved - s.before.solved;
    let solve_total_ms = median(&solve_ms) * stream_solves as f64;
    host.sample();

    rec.set(
        "service.admission_us",
        median(&admission_us) * host.factor(epoch),
    );
    rec.set(
        "service.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    rec.set("service.solve_ms", median(&solve_ms) * host.factor(epoch));
    // The solves explain at most their total spread evenly over the
    // service's workers; the rest of the stream's wall time is service
    // overhead (admission, queueing, cache, coalescing, thread spawns).
    let workers = service.config().workers.max(1) as f64;
    rec.set(
        "service.overhead_share",
        1.0 - ratio(solve_total_ms / workers, s.busy_ms()),
    );
    rec.detail("stream_batches", s.batch_ms.len());
    rec.detail("stream_busy_ms", s.busy_ms());
    rec.detail("service_host_speed", host.details());
    rec.detail("warm_solves", solve_ms.len());
    rec.detail("stream_solves", stream_solves);
    rec.detail("cache_hits", hits);
    rec.detail("cache_misses", misses);

    let input = Input::Strings(random_pauli(
        SERVICE_N,
        SERVICE_QUBITS,
        working_seed(seed, 0),
    ));
    let alt = Input::Strings(random_pauli(
        SERVICE_N,
        SERVICE_QUBITS,
        working_seed(seed, 0).wrapping_add(crate::ALT_SEED_OFFSET),
    ));
    solver_run::trace(&input, &alt, cfg, seconds / 2.0, rec);
}
