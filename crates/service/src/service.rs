//! The solve service: admission → bounded priority queue → worker pool
//! → content-addressed cache.
//!
//! A [`SolveService`] is long-lived. Each [`SolveService::process_batch`]
//! call drains one batch of requests: every request is assessed by the
//! [`AdmissionController`] *at submission* (rejections produce their
//! response immediately, with zero solve work), survivors enter the
//! bounded [`JobQueue`], and a pool of worker threads pops jobs in
//! deterministic priority order. Every worker checks a long-lived
//! [`IterationContext`] out of the service's context pool, so
//! steady-state serving reuses the solver workspaces across jobs *and*
//! across batches — the service-level extension of the context's
//! allocation-free property. Solved outcomes are stored in (and served
//! from) the [`ResultCache`] under the request's content address.
//!
//! The queue bound is backpressure: when a batch outgrows it, the driver
//! drains a full wave before admitting more, so memory stays bounded by
//! `queue_capacity` jobs rather than the batch size.
//!
//! # Fault tolerance
//!
//! The service survives its own workers. Every attempt runs under a
//! panic-isolation boundary (a panicking job yields a `Failed` response,
//! never a dead worker or a lost wave). Failures are *classified*:
//! transient ones (injected faults, panics) are re-enqueued under
//! deterministic exponential backoff until [`ServiceConfig::max_attempts`]
//! is spent — then the job is **quarantined** with its full fault
//! history. Genuine device-capacity failures instead walk the
//! **degradation ladder** in place — `device:<MiB>`, then `Parallel` —
//! re-solving on the next rung; every backend produces bit-identical
//! colorings, so a degraded response is indistinguishable from a
//! healthy one. Jobs may carry a
//! deadline ([`crate::JobConfig::deadline_ms`], measured from enqueue)
//! that the solver honors cooperatively between phases. Chaos testing is
//! first-class: a seeded [`FaultPlan`] in [`ServiceConfig::faults`]
//! injects device faults, worker panics, and slow jobs deterministically
//! — and costs one branch per site when disabled.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionDecision};
use crate::cache::ResultCache;
use crate::job::{
    synthetic_pauli_strings, HashOracle, JobOutcome, SolveRequest, SolveResponse, SolveSummary,
    Workload,
};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::queue::{JobQueue, QueueFull, QueuedJob};
use device::{DeviceError, FaultPlan, FaultSite};
use parking_lot::Mutex;
use picasso::{ConflictBackend, IterationContext, Picasso, SolveError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::Registry;

/// Service-level knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads per drain wave (clamped to the wave's job count).
    pub workers: usize,
    /// Queue bound — the backpressure unit (jobs, not bytes).
    pub queue_capacity: usize,
    /// Result-cache bound, in entries.
    pub cache_capacity: usize,
    /// Admission budgets.
    pub admission: AdmissionConfig,
    /// Seeded fault-injection plan for chaos testing. `None` (the
    /// default) disables injection entirely; the disabled path costs one
    /// branch per fault site.
    pub faults: Option<FaultPlan>,
    /// Execution attempts per job before quarantine (clamped to ≥ 1).
    /// Only *transient* failures (injected faults, panics) consume
    /// attempts; permanent failures are terminal on the first.
    pub max_attempts: u32,
    /// Base retry backoff in milliseconds. Attempt `k` waits
    /// `base × 2^(k-1)` (capped at 64×) plus deterministic jitter; 0
    /// disables the wait.
    pub retry_backoff_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(2, std::num::NonZero::get),
            queue_capacity: 1024,
            cache_capacity: 256,
            admission: AdmissionConfig::default(),
            faults: None,
            max_attempts: 3,
            retry_backoff_ms: 1,
        }
    }
}

/// A job that exhausted its retry budget, preserved with the evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// The request's id.
    pub id: String,
    /// Its content-address key.
    pub key: u64,
    /// Attempts consumed (equals the configured budget).
    pub attempts: u32,
    /// One entry per failed attempt, oldest first.
    pub history: Vec<String>,
}

/// Everything one [`SolveService::process_batch`] call produced.
#[derive(Debug)]
pub struct BatchReport {
    /// One response per request, **in submission order** regardless of
    /// scheduling.
    pub responses: Vec<SolveResponse>,
    /// Cumulative service metrics after the batch.
    pub metrics: MetricsSnapshot,
    /// Request ids in the order workers started them — with one worker
    /// this is exactly the queue's deterministic priority order.
    pub execution_order: Vec<String>,
}

/// The batched, admission-controlled solve service.
pub struct SolveService {
    config: ServiceConfig,
    admission: AdmissionController,
    metrics: ServiceMetrics,
    cache: Mutex<ResultCache>,
    /// Long-lived solver workspaces, checked out by workers per wave and
    /// returned after — they outlive batches, so a stream of batches
    /// reaches the same steady state one long solve would.
    ctx_pool: Mutex<Vec<IterationContext>>,
    /// Instance keys currently being solved — the single-flight set. A
    /// worker landing on a key another worker is already solving waits
    /// on `inflight_done` and then replays the cached outcome, so
    /// duplicate submissions in one batch cost one solve, not two.
    /// (std primitives: the condvar must pair with its own mutex.)
    inflight: std::sync::Mutex<std::collections::HashSet<u64>>,
    inflight_done: std::sync::Condvar,
    /// Jobs that exhausted their retry budget, with their fault history.
    quarantine: Mutex<Vec<QuarantineRecord>>,
}

/// What a worker does with a popped job after one attempt.
enum JobDisposition {
    /// Terminal: the response is final (solved, failed, or quarantined).
    Done(SolveResponse),
    /// Transient failure with budget left: re-enqueue for another try.
    Retry(QueuedJob),
}

/// Why an attempt didn't produce a summary.
enum SolveFailure {
    /// The request itself is invalid — permanent, never retried.
    Config(String),
    /// The solver failed; injected errors are transient, the rest —
    /// surviving the degradation ladder — are permanent.
    Solver(SolveError),
    /// The attempt panicked (payload rendered). Transient: the worker
    /// survives, the workspace is discarded, the job retries.
    Panicked(String),
}

impl SolveService {
    /// A service with the given configuration and a cold cache.
    pub fn new(config: ServiceConfig) -> SolveService {
        SolveService {
            admission: AdmissionController::new(config.admission),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            metrics: ServiceMetrics::default(),
            ctx_pool: Mutex::new(Vec::new()),
            inflight: std::sync::Mutex::new(std::collections::HashSet::new()),
            inflight_done: std::sync::Condvar::new(),
            quarantine: Mutex::new(Vec::new()),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Cumulative metrics (admission, solve and cache counters).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot(self.cache.lock().stats())
    }

    /// The instrument registry behind the metrics — every service
    /// counter, the request-path latency histograms, and the per-solve
    /// solver roll-ups, ready for
    /// [`telemetry::render_prometheus`]/[`telemetry::render_json`].
    /// Cache gauges are synced to the cache's current counters on each
    /// call.
    pub fn registry(&self) -> Arc<Registry> {
        self.metrics.sync_cache_gauges(&self.cache.lock().stats());
        Arc::clone(self.metrics.registry())
    }

    /// Solver workspaces currently resting in the context pool.
    pub fn pooled_contexts(&self) -> usize {
        self.ctx_pool.lock().len()
    }

    /// Jobs quarantined so far (exhausted retry budgets), oldest first.
    pub fn quarantined(&self) -> Vec<QuarantineRecord> {
        self.quarantine.lock().clone()
    }

    /// Drains one batch: admission at submission, queued survivors
    /// solved by the worker pool (in waves when the batch exceeds the
    /// queue bound), responses returned in submission order.
    pub fn process_batch(&self, requests: Vec<SolveRequest>) -> BatchReport {
        let queue = JobQueue::new(self.config.queue_capacity);
        let slots: Mutex<Vec<Option<SolveResponse>>> =
            Mutex::new(requests.iter().map(|_| None).collect());
        let execution_order: Mutex<Vec<String>> = Mutex::new(Vec::new());

        for (seq, request) in requests.into_iter().enumerate() {
            self.metrics.submitted.inc();
            let admit_started = Instant::now();
            let decision = self.admission.assess(&request);
            self.metrics
                .admission_ns
                .record(admit_started.elapsed().as_nanos() as u64);
            let priority = match decision {
                AdmissionDecision::Admit { .. } => {
                    self.metrics.admitted.inc();
                    request.priority
                }
                AdmissionDecision::Demote { .. } => {
                    self.metrics.admitted.inc();
                    self.metrics.demoted.inc();
                    0
                }
                AdmissionDecision::Reject { reason } => {
                    self.metrics.rejected.inc();
                    telemetry::event!("admission_reject");
                    slots.lock()[seq] = Some(SolveResponse {
                        id: request.id,
                        outcome: JobOutcome::Rejected { reason },
                    });
                    continue;
                }
            };
            let mut job = QueuedJob {
                seq,
                priority,
                enqueued_at: Instant::now(),
                attempts: 0,
                fault_history: Vec::new(),
                request,
            };
            // Backpressure: a full queue means the wave is ready — drain
            // it (which empties the queue, retries included), then the
            // push lands.
            loop {
                match queue.push(job) {
                    Ok(()) => break,
                    Err(QueueFull(back)) => {
                        self.drain_wave(&queue, &slots, &execution_order);
                        job = back;
                    }
                }
            }
        }
        self.drain_wave(&queue, &slots, &execution_order);

        let responses = slots
            .into_inner()
            .into_iter()
            .enumerate()
            .map(|(seq, slot)| {
                // Structurally every admitted job lands a terminal
                // response (drain_wave runs to an empty queue); a hole
                // here is a service bug, surfaced as a failed response
                // rather than a batch-killing panic.
                debug_assert!(slot.is_some(), "job seq {seq} finished without a response");
                slot.unwrap_or_else(|| SolveResponse {
                    id: format!("seq-{seq}"),
                    outcome: JobOutcome::Failed {
                        error: "internal: job produced no terminal response".into(),
                    },
                })
            })
            .collect();
        BatchReport {
            responses,
            metrics: self.metrics(),
            execution_order: execution_order.into_inner(),
        }
    }

    /// Runs worker threads until the queue is empty. Each worker owns a
    /// pooled [`IterationContext`] for the whole wave.
    ///
    /// A worker that re-enqueues a retry keeps looping, so the retried
    /// job is always picked up even when every other worker has already
    /// seen an empty queue and exited — no job is stranded.
    fn drain_wave(
        &self,
        queue: &JobQueue,
        slots: &Mutex<Vec<Option<SolveResponse>>>,
        execution_order: &Mutex<Vec<String>>,
    ) {
        let pending = queue.len();
        if pending == 0 {
            return;
        }
        let workers = self.config.workers.clamp(1, pending);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut ctx = self.ctx_pool.lock().pop().unwrap_or_default();
                    while let Some(job) = queue.pop() {
                        // First-attempt bookkeeping only: retries keep
                        // the original wait/order samples, so the
                        // deterministic execution-order pin and the
                        // queue-wait histogram see each job once.
                        if job.attempts == 0 {
                            self.metrics
                                .queue_wait_ns
                                .record(job.enqueued_at.elapsed().as_nanos() as u64);
                            execution_order.lock().push(job.request.id.clone());
                        }
                        let (seq, enqueued_at) = (job.seq, job.enqueued_at);
                        match self.execute(job, &mut ctx) {
                            JobDisposition::Done(response) => {
                                slots.lock()[seq] = Some(response);
                                self.metrics
                                    .total_ns
                                    .record(enqueued_at.elapsed().as_nanos() as u64);
                            }
                            JobDisposition::Retry(job) => {
                                self.metrics.retries.inc();
                                telemetry::event!("job_retry");
                                let wait = retry_backoff(
                                    self.config.retry_backoff_ms,
                                    job.attempts,
                                    job.seq as u64,
                                );
                                if !wait.is_zero() {
                                    std::thread::sleep(wait);
                                }
                                queue.push_retry(job);
                            }
                        }
                    }
                    self.ctx_pool.lock().push(ctx);
                    // Worker threads die with the wave: hand their span
                    // rings to the sink before they do.
                    telemetry::flush_thread();
                });
            }
        });
    }

    /// Serves one attempt of one job: cache lookup by content address
    /// (the fingerprint is verified, so a 64-bit key collision reads as
    /// a miss), then — on a miss — the actual solve in the worker's
    /// long-lived context, under the panic-isolation boundary, with the
    /// solved outcome stored back. Concurrent duplicates coalesce: the
    /// first worker to claim a key solves it; the rest wait and replay
    /// the cached outcome. Transient failures come back as
    /// [`JobDisposition::Retry`] until the attempt budget is spent.
    fn execute(&self, mut job: QueuedJob, ctx: &mut IterationContext) -> JobDisposition {
        let request = &job.request;
        let fingerprint = request.instance_fingerprint();
        let key = crate::job::fnv1a64(fingerprint.as_bytes());
        let lookup_started = Instant::now();
        {
            let mut inflight = lock_inflight(&self.inflight);
            let mut waited = false;
            loop {
                if let Some(outcome) = self.cache.lock().get(key, &fingerprint) {
                    if waited {
                        // Parked behind another worker's solve of this
                        // key, then replayed its cached outcome.
                        self.metrics
                            .coalesce_wait_ns
                            .record(lookup_started.elapsed().as_nanos() as u64);
                    }
                    self.metrics
                        .cache_hit_ns
                        .record(lookup_started.elapsed().as_nanos() as u64);
                    return JobDisposition::Done(SolveResponse {
                        id: job.request.id,
                        outcome,
                    });
                }
                if !inflight.contains(&key) {
                    inflight.insert(key);
                    break;
                }
                // Another worker owns this instance: wait for it, then
                // re-check the cache. (A failed solve is not cached, so
                // the waiter takes over the key on wake — duplicates of
                // a failing job each fail independently.)
                waited = true;
                inflight = self
                    .inflight_done
                    .wait(inflight)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        // Guard the claim: released (and waiters woken) on every exit
        // from here on, including a panicking solve — a leaked key would
        // park coalesced duplicates forever. A retry re-claims later.
        let _claim = InflightClaim { service: self, key };

        // Injected worker-site faults, decided per (key, attempt) so a
        // retry draws a fresh verdict. Disabled plans cost this one
        // branch.
        let mut inject_panic = false;
        if let Some(plan) = self.config.faults {
            let stream = key ^ ((job.attempts as u64 + 1) << 56);
            if plan.fires(FaultSite::WorkerSlow, stream) {
                self.metrics.fault_counter(FaultSite::WorkerSlow).inc();
                std::thread::sleep(Duration::from_millis(2));
            }
            if plan.fires(FaultSite::WorkerPanic, stream) {
                self.metrics.fault_counter(FaultSite::WorkerPanic).inc();
                inject_panic = true;
            }
        }

        // Deadline, anchored at enqueue: a job that already blew it (in
        // the queue, or to an injected slowdown) fails without burning a
        // solve.
        let deadline = request
            .config
            .deadline_ms
            .map(|ms| job.enqueued_at + Duration::from_millis(ms));
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.metrics.deadline_exceeded.inc();
            self.metrics.failed.inc();
            telemetry::event!("deadline_exceeded");
            return JobDisposition::Done(SolveResponse {
                id: job.request.id,
                outcome: JobOutcome::Failed {
                    error: "deadline exceeded before the solve started".into(),
                },
            });
        }

        // Arm the per-attempt context state: the cooperative deadline and
        // a per-(job, attempt) reseed of the fault plan, so retried
        // attempts see fresh device-fault verdicts instead of replaying
        // the exact faults that killed the last attempt.
        ctx.set_deadline(deadline);
        ctx.set_fault_plan(self.config.faults.map(|p| {
            p.reseed(p.seed() ^ key ^ (job.attempts as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        }));

        // The panic-isolation boundary: a panicking attempt — injected
        // or genuine — is contained here. The worker, its wave, and the
        // other jobs never see it.
        let solve_started = Instant::now();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected worker panic");
            }
            self.solve(&job.request, ctx)
        }));
        let attempt = match attempt {
            Ok(outcome) => {
                // Disarm the per-attempt state so the pooled workspace
                // carries nothing into the next job.
                ctx.set_deadline(None);
                ctx.set_fault_plan(None);
                outcome
            }
            Err(payload) => {
                // The workspace may have been abandoned mid-mutation:
                // discard it wholesale (the only allocation the panic
                // path takes) rather than reason about its state.
                *ctx = IterationContext::default();
                self.metrics.panics.inc();
                telemetry::event!("worker_panic_contained");
                Err(SolveFailure::Panicked(panic_message(payload.as_ref())))
            }
        };

        let outcome = match attempt {
            Ok(summary) => {
                self.metrics.solved.inc();
                self.metrics
                    .solve_ns
                    .record(solve_started.elapsed().as_nanos() as u64);
                self.metrics
                    .candidate_pairs_scanned
                    .add(summary.candidate_pairs);
                let outcome = JobOutcome::Solved(summary);
                self.cache.lock().insert(key, &fingerprint, outcome.clone());
                outcome
            }
            Err(failure) => {
                // Count injected device faults per site now that the
                // error reached the service layer.
                if let SolveFailure::Solver(e) = &failure {
                    if let Some(site) = injected_site(e) {
                        self.metrics.fault_counter(site).inc();
                    }
                }
                match self.classify(failure) {
                    FailureClass::Permanent(error) => {
                        self.metrics.failed.inc();
                        JobOutcome::Failed { error }
                    }
                    FailureClass::Deadline(error) => {
                        self.metrics.deadline_exceeded.inc();
                        self.metrics.failed.inc();
                        telemetry::event!("deadline_exceeded");
                        JobOutcome::Failed { error }
                    }
                    FailureClass::Transient(error) => {
                        job.attempts += 1;
                        job.fault_history
                            .push(format!("attempt {}: {error}", job.attempts));
                        if job.attempts < self.config.max_attempts.max(1) {
                            return JobDisposition::Retry(job);
                        }
                        // Budget spent: quarantine, with the evidence.
                        self.metrics.quarantined.inc();
                        self.metrics.failed.inc();
                        telemetry::event!("job_quarantined");
                        self.quarantine.lock().push(QuarantineRecord {
                            id: job.request.id.clone(),
                            key,
                            attempts: job.attempts,
                            history: job.fault_history.clone(),
                        });
                        JobOutcome::Failed {
                            error: format!(
                                "quarantined after {} attempts: {}",
                                job.attempts,
                                job.fault_history.join("; ")
                            ),
                        }
                    }
                }
            }
        };
        JobDisposition::Done(SolveResponse {
            id: job.request.id,
            outcome,
        })
    }

    /// Sorts a failed attempt into its terminal/retry class.
    fn classify(&self, failure: SolveFailure) -> FailureClass {
        match failure {
            SolveFailure::Config(error) => FailureClass::Permanent(error),
            SolveFailure::Panicked(msg) => FailureClass::Transient(format!("worker panic: {msg}")),
            SolveFailure::Solver(e @ SolveError::DeadlineExceeded { .. }) => {
                FailureClass::Deadline(e.to_string())
            }
            SolveFailure::Solver(e) if e.is_injected() => FailureClass::Transient(e.to_string()),
            // Everything else already survived the degradation ladder
            // (or cannot be laddered): permanent.
            SolveFailure::Solver(e) => FailureClass::Permanent(e.to_string()),
        }
    }

    /// One attempt's solve, walking the degradation ladder in place: a
    /// *genuine* device-capacity failure (not an injected fault, not a
    /// deadline) demotes the device to `Parallel` and re-solves there.
    /// Every backend produces bit-identical colorings (the solver's
    /// determinism contract), so a degraded response is payload-identical
    /// to a healthy one; the demotion surfaces only in
    /// `service_degradations_total` and the `degrade_backend` event.
    fn solve(
        &self,
        request: &SolveRequest,
        ctx: &mut IterationContext,
    ) -> Result<SolveSummary, SolveFailure> {
        let mut cfg = request.config.effective().map_err(SolveFailure::Config)?;
        // Encode the workload once; ladder re-solves reuse it.
        enum Encoded {
            Pauli(pauli::EncodedSet),
            Oracle(HashOracle),
        }
        let encoded = match &request.workload {
            Workload::Pauli { strings } => {
                let parsed: Vec<pauli::PauliString> = strings
                    .iter()
                    .map(|s| s.parse().map_err(|e| format!("bad pauli string: {e}")))
                    .collect::<Result<_, String>>()
                    .map_err(SolveFailure::Config)?;
                Encoded::Pauli(pauli::EncodedSet::from_strings(&parsed))
            }
            Workload::SyntheticPauli { n, qubits, seed } => {
                let strings =
                    synthetic_pauli_strings(*n, *qubits, *seed).map_err(SolveFailure::Config)?;
                Encoded::Pauli(pauli::EncodedSet::from_strings(&strings))
            }
            Workload::SyntheticGraph { n, density, seed } => {
                Encoded::Oracle(HashOracle::new(*n, *density, *seed))
            }
        };
        let result = loop {
            let solver = Picasso::new(cfg);
            let outcome = match &encoded {
                Encoded::Pauli(set) => solver.solve_pauli_in(set, ctx),
                Encoded::Oracle(oracle) => solver.solve_oracle_in(oracle, ctx),
            };
            match outcome {
                Ok(result) => break result,
                // Injected faults are transient (the retry layer's
                // domain) and deadlines are terminal: neither demotes.
                Err(e) if e.is_injected() => return Err(SolveFailure::Solver(e)),
                Err(e @ SolveError::DeadlineExceeded { .. }) => {
                    return Err(SolveFailure::Solver(e))
                }
                Err(e) => match demote_backend(cfg.backend) {
                    Some(next) => {
                        self.metrics.degradations.inc();
                        telemetry::event!("degrade_backend");
                        cfg = cfg.with_backend(next);
                    }
                    // Bottom of the ladder: the failure is real.
                    None => return Err(SolveFailure::Solver(e)),
                },
            }
        };
        self.metrics
            .conflict_edges_built
            .add(result.total_conflict_edges() as u64);
        // Per-solve roll-up into the shared registry: solver phase
        // histograms, work counters, device gauges — the same typed
        // instruments every exposition surface reads.
        picasso::metrics::record_result(self.metrics.registry(), &result);
        // Forecast calibration: pair the admission-time worst case with
        // a lower bound on this solve's structural peak (it leaves out
        // the pooled scan arenas, so the running observed ÷ forecast
        // ratio reads low); that ratio is the correction factor the
        // ROADMAP asks to fit.
        let forecast = crate::admission::forecast_peak_bytes(&request.workload, &cfg);
        let observed = crate::admission::observed_peak_bytes(&request.workload, &cfg, &result);
        self.metrics.forecast_bytes_total.add(forecast as u64);
        self.metrics.observed_peak_bytes_total.add(observed as u64);
        self.metrics.calibration_samples.inc();
        self.metrics.solver_peak_bytes.set_max(observed as u64);
        Ok(SolveSummary {
            num_vertices: result.colors.len(),
            num_colors: result.num_colors,
            iterations: result.iterations.len(),
            candidate_pairs: result.total_candidate_pairs(),
            colors: result.colors,
        })
    }
}

/// A failed attempt, sorted for the retry layer.
enum FailureClass {
    /// Never retried; the response fails now.
    Permanent(String),
    /// Terminal like `Permanent`, but counted against the deadline
    /// metric — retrying an expired job cannot un-expire it.
    Deadline(String),
    /// Worth another attempt (until the budget quarantines it).
    Transient(String),
}

/// The fault site of an injected device error, if that's what `e` is.
fn injected_site(e: &SolveError) -> Option<FaultSite> {
    match e {
        SolveError::DeviceOom(DeviceError::Injected { site, .. }) => Some(*site),
        _ => None,
    }
}

/// The next rung down the degradation ladder, or `None` at the bottom.
/// Every rung preserves the coloring bit for bit — the backends are
/// interchangeable by the solver's determinism contract. `Parallel` is
/// the bottom rung: only the device builder fails for capacity, and the
/// host backends fail with nothing but deadlines, which never demote.
fn demote_backend(backend: ConflictBackend) -> Option<ConflictBackend> {
    match backend {
        ConflictBackend::Device { .. } => Some(ConflictBackend::Parallel),
        ConflictBackend::Parallel | ConflictBackend::AllPairs | ConflictBackend::Sequential => None,
    }
}

/// Deterministic exponential backoff for attempt `attempt` (1-based):
/// `base × 2^(attempt-1)` capped at 64×, plus seed-derived jitter of up
/// to half the step so synchronized retries fan out.
fn retry_backoff(base_ms: u64, attempt: u32, salt: u64) -> Duration {
    if base_ms == 0 {
        return Duration::ZERO;
    }
    let step = base_ms.saturating_mul(1 << attempt.saturating_sub(1).min(6));
    let jitter = (salt ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % (step / 2 + 1);
    Duration::from_millis(step + jitter)
}

/// Renders a panic payload (the standard `&str`/`String` cases).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

/// Installs a panic hook that swallows the backtrace noise of *injected*
/// worker panics (they are contained and expected under chaos testing);
/// every other panic still reports through the previous hook. Call once
/// before serving with a fault plan that injects panics.
pub fn silence_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected worker panic"));
        if !injected {
            previous(info);
        }
    }));
}

/// Locks the single-flight set, shrugging off poison: the set only ever
/// holds plain `u64`s, so a panic between lock and unlock cannot leave
/// it logically inconsistent.
fn lock_inflight(
    m: &std::sync::Mutex<std::collections::HashSet<u64>>,
) -> std::sync::MutexGuard<'_, std::collections::HashSet<u64>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// RAII release of a single-flight claim: removes the key and wakes
/// coalesced waiters on drop — which happens even when the owning solve
/// panics, so waiters re-check the cache and take the key over instead
/// of parking forever.
struct InflightClaim<'a> {
    service: &'a SolveService,
    key: u64,
}

impl Drop for InflightClaim<'_> {
    fn drop(&mut self) {
        lock_inflight(&self.service.inflight).remove(&self.key);
        self.service.inflight_done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_service(workers: usize) -> SolveService {
        SolveService::new(ServiceConfig {
            workers,
            queue_capacity: 8,
            cache_capacity: 16,
            ..ServiceConfig::default()
        })
    }

    fn synth(id: &str, n: usize, seed: u64) -> SolveRequest {
        SolveRequest::new(id, Workload::SyntheticPauli { n, qubits: 8, seed })
    }

    #[test]
    fn batch_solves_every_job_and_keeps_submission_order() {
        let service = small_service(3);
        let reqs: Vec<SolveRequest> = (0..6).map(|i| synth(&format!("j{i}"), 60, i)).collect();
        let report = service.process_batch(reqs);
        assert_eq!(report.responses.len(), 6);
        for (i, resp) in report.responses.iter().enumerate() {
            assert_eq!(resp.id, format!("j{i}"), "submission order preserved");
            assert!(
                matches!(&resp.outcome, JobOutcome::Solved(s) if s.num_vertices == 60),
                "{:?}",
                resp.outcome
            );
        }
        assert_eq!(report.metrics.solved, 6);
        assert_eq!(report.metrics.failed, 0);
        assert!(report.metrics.candidate_pairs_scanned > 0);
        // Worker contexts returned for the next batch.
        assert!(service.pooled_contexts() >= 1);
        assert!(service.pooled_contexts() <= 3);
    }

    #[test]
    fn batches_larger_than_the_queue_run_in_waves() {
        let service = SolveService::new(ServiceConfig {
            workers: 2,
            queue_capacity: 3,
            cache_capacity: 16,
            ..ServiceConfig::default()
        });
        let reqs: Vec<SolveRequest> = (0..10).map(|i| synth(&format!("w{i}"), 40, i)).collect();
        let report = service.process_batch(reqs);
        assert_eq!(report.responses.len(), 10);
        assert_eq!(report.metrics.solved, 10);
        assert_eq!(report.execution_order.len(), 10);
    }

    #[test]
    fn solver_failures_surface_as_failed_outcomes() {
        let service = small_service(1);
        let bad = SolveRequest::new(
            "bad",
            Workload::Pauli {
                strings: vec!["XQ".into(), "XX".into()],
            },
        );
        let report = service.process_batch(vec![bad]);
        match &report.responses[0].outcome {
            JobOutcome::Failed { error } => assert!(error.contains("bad pauli string"), "{error}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(report.metrics.failed, 1);
        assert_eq!(report.metrics.solved, 0);
    }

    #[test]
    fn removed_coloring_schemes_are_permanent_config_failures() {
        // Built in code (bypassing JSON validation): a removed scheme
        // label is a configuration error, turned away at admission with
        // the label parser's message and never retried.
        let service = small_service(1);
        let requests: Vec<SolveRequest> = ["jp", "spec", "auto"]
            .iter()
            .map(|label| {
                let mut req = synth(label, 40, 1);
                req.config.coloring = Some(label.to_string());
                req
            })
            .collect();
        let report = service.process_batch(requests);
        for (resp, label) in report.responses.iter().zip(["jp", "spec", "auto"]) {
            match &resp.outcome {
                JobOutcome::Rejected { reason } => assert!(
                    reason.contains(&format!("unknown coloring scheme '{label}'"))
                        && reason.contains("expected greedy, natural"),
                    "{reason}"
                ),
                other => panic!("{label}: {other:?}"),
            }
        }
        assert_eq!(report.metrics.rejected, 3);
        assert_eq!(report.metrics.retries, 0);
        assert_eq!(report.metrics.solved, 0);
        assert!(service.quarantined().is_empty());
    }

    #[test]
    fn impossible_synthetic_workload_fails_the_job_not_the_batch() {
        // Constructed directly (bypassing JSON validation): the solve
        // path re-checks and yields a per-job Failed response instead of
        // panicking a worker thread.
        let service = small_service(2);
        let report = service.process_batch(vec![
            SolveRequest::new(
                "impossible",
                Workload::SyntheticPauli {
                    n: 100,
                    qubits: 2,
                    seed: 1,
                },
            ),
            synth("fine", 40, 1),
        ]);
        match &report.responses[0].outcome {
            JobOutcome::Failed { error } => {
                assert!(error.contains("distinct strings"), "{error}")
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(report.responses[1].outcome, JobOutcome::Solved(_)));
        assert_eq!(report.metrics.failed, 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let service = small_service(2);
        let report = service.process_batch(Vec::new());
        assert!(report.responses.is_empty());
        assert_eq!(report.metrics.submitted, 0);
    }

    #[test]
    fn concurrent_duplicates_coalesce_into_one_solve() {
        // Eight copies of one instance across four workers: single-flight
        // guarantees exactly one solve, with every duplicate replayed
        // from the cache — however the scheduler interleaves them.
        let service = small_service(4);
        let reqs: Vec<SolveRequest> = (0..8)
            .map(|i| {
                let mut r = synth(&format!("dup{i}"), 120, 42);
                r.priority = (i % 3) as u8;
                r
            })
            .collect();
        let report = service.process_batch(reqs);
        assert_eq!(report.metrics.solved, 1, "one solve for eight copies");
        assert_eq!(report.metrics.cache_hits, 7);
        let first = &report.responses[0].outcome;
        for resp in &report.responses {
            assert_eq!(&resp.outcome, first);
        }
    }

    #[test]
    fn fresh_solves_record_forecast_calibration_samples() {
        let service = small_service(2);
        let report = service.process_batch(vec![
            synth("a", 200, 1),
            synth("b", 200, 2),
            // Duplicate content: the replay runs no solve and must not
            // add a calibration sample.
            synth("a-again", 200, 1),
        ]);
        let m = &report.metrics;
        assert_eq!(m.solved, 2);
        assert_eq!(m.calibration_samples, 2, "one sample per fresh solve");
        assert!(m.forecast_bytes_total > 0);
        assert!(m.observed_peak_bytes_total > 0);
        // The forecast counts every candidate pair as an edge; real
        // solves land far under it — the whole point of calibrating.
        let ratio = m.forecast_utilization().expect("samples recorded");
        assert!(
            ratio > 0.0 && ratio < 1.0,
            "observed/forecast ratio {ratio} out of (0, 1)"
        );
        // The ratio is an aggregate of per-job deltas: totals move
        // together across batches.
        let again = service.process_batch(vec![synth("c", 150, 3)]);
        assert_eq!(again.metrics.calibration_samples, 3);
        assert!(again.metrics.forecast_bytes_total > m.forecast_bytes_total);
        assert!(again.metrics.observed_peak_bytes_total > m.observed_peak_bytes_total);
    }

    #[test]
    fn latency_histograms_and_rollups_populate_the_registry() {
        let service = small_service(2);
        let report = service.process_batch(vec![
            synth("a", 60, 1),
            synth("b", 60, 2),
            // Same content as "a": served from cache (or coalesced).
            synth("a-again", 60, 1),
        ]);
        assert_eq!(report.metrics.solved, 2);
        let registry = service.registry();
        // Request-path latency histograms: one queue-wait and one
        // end-to-end sample per executed job, one solve sample per fresh
        // solve, at least one cache-hit sample for the duplicate.
        assert_eq!(registry.histogram("service_queue_wait_ns").count(), 3);
        assert_eq!(registry.histogram("service_total_ns").count(), 3);
        assert_eq!(registry.histogram("service_solve_ns").count(), 2);
        assert_eq!(registry.histogram("service_admission_ns").count(), 3);
        assert!(registry.histogram("service_cache_hit_ns").count() >= 1);
        // p50/p99 are answerable (the bench's contract).
        assert!(
            registry
                .histogram("service_total_ns")
                .quantile(0.99)
                .unwrap()
                > 0
        );
        // Per-solve solver roll-ups landed in the same registry.
        assert_eq!(registry.counter("solver_solves_total").get(), 2);
        assert!(registry.counter("solver_candidate_pairs_total").get() > 0);
        assert!(registry.gauge("solver_peak_bytes").get() > 0);
        // Snapshot counters and registry counters agree.
        assert_eq!(
            registry.counter("service_submitted_total").get(),
            report.metrics.submitted
        );
        // Cache gauges mirrored on registry().
        assert_eq!(
            registry.gauge("cache_hits").get(),
            service.metrics().cache_hits
        );
    }

    #[test]
    fn identical_content_across_batches_hits_the_cache() {
        let service = small_service(2);
        let first = service.process_batch(vec![synth("a", 50, 3)]);
        let second = service.process_batch(vec![synth("renamed", 50, 3)]);
        assert_eq!(second.metrics.cache_hits, 1);
        assert_eq!(second.metrics.solved, 1, "only the first batch solved");
        // Same content → same payload, different echoed id.
        assert_eq!(first.responses[0].outcome, second.responses[0].outcome);
        assert_eq!(second.responses[0].id, "renamed");
    }

    fn faulted_service(workers: usize, faults: FaultPlan, max_attempts: u32) -> SolveService {
        SolveService::new(ServiceConfig {
            workers,
            queue_capacity: 8,
            cache_capacity: 16,
            faults: Some(faults),
            max_attempts,
            retry_backoff_ms: 0,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn certain_device_faults_exhaust_retries_into_quarantine() {
        // Every device reservation fails (reserve is the build's first
        // device op): each attempt dies injected, the retry budget
        // drains, and the job lands in quarantine with its full fault
        // history — while a fault-free sibling (no device backend, and
        // worker sites at rate 0) is untouched.
        let plan = FaultPlan::new(5).with_rate(FaultSite::DeviceReserve, 1.0);
        let service = faulted_service(2, plan, 3);
        let mut doomed = synth("doomed", 60, 1);
        doomed.config.backend = Some("device:64".into());
        let fine = synth("fine", 60, 2);
        let report = service.process_batch(vec![doomed, fine]);
        match &report.responses[0].outcome {
            JobOutcome::Failed { error } => {
                assert!(error.contains("quarantined after 3 attempts"), "{error}");
                assert!(error.contains("injected"), "{error}");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(report.responses[1].outcome, JobOutcome::Solved(_)));
        assert_eq!(report.metrics.retries, 2, "attempts 1 and 2 re-enqueued");
        assert_eq!(report.metrics.quarantined, 1);
        assert_eq!(report.metrics.failed, 1);
        assert!(report.metrics.faults_injected >= 3);
        let quarantined = service.quarantined();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].id, "doomed");
        assert_eq!(quarantined[0].attempts, 3);
        assert_eq!(quarantined[0].history.len(), 3);
        // The degradation ladder must NOT fire for injected faults —
        // they are transient, not capacity truths.
        assert_eq!(report.metrics.degradations, 0);
    }

    #[test]
    fn worker_panics_are_contained_and_the_wave_completes() {
        silence_injected_panics();
        let plan = FaultPlan::new(9).with_rate(FaultSite::WorkerPanic, 1.0);
        let service = faulted_service(2, plan, 2);
        let report = service.process_batch(vec![synth("p0", 50, 1), synth("p1", 50, 2)]);
        // Both jobs panicked on every attempt, were isolated, retried,
        // and quarantined — and the batch still produced one terminal
        // response per request.
        assert_eq!(report.responses.len(), 2);
        for resp in &report.responses {
            match &resp.outcome {
                JobOutcome::Failed { error } => {
                    assert!(error.contains("worker panic"), "{error}");
                    assert!(error.contains("quarantined"), "{error}");
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(report.metrics.panics, 4, "2 jobs × 2 attempts");
        assert_eq!(report.metrics.quarantined, 2);
        // The workers survived to return their (replaced) contexts.
        assert!(service.pooled_contexts() >= 1);
    }

    #[test]
    fn expired_deadlines_fail_terminally_without_retries() {
        let service = small_service(1);
        let mut req = synth("late", 50, 1);
        req.config.deadline_ms = Some(0);
        let report = service.process_batch(vec![req, synth("ontime", 50, 2)]);
        match &report.responses[0].outcome {
            JobOutcome::Failed { error } => assert!(error.contains("deadline"), "{error}"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(report.responses[1].outcome, JobOutcome::Solved(_)));
        assert_eq!(report.metrics.deadline_exceeded, 1);
        assert_eq!(report.metrics.retries, 0, "deadlines never retry");
        assert_eq!(service.quarantined().len(), 0);
    }

    #[test]
    fn genuine_device_oom_walks_the_ladder_to_an_identical_coloring() {
        // A 1 MiB device cannot hold this build: the ladder demotes the
        // device → Parallel once, and the job still solves — with the
        // exact payload the healthy backend produces.
        let service = small_service(1);
        let mut degraded = synth("degraded", 1500, 7);
        degraded.config.backend = Some("device:1".into());
        let healthy = synth("healthy", 1500, 7);
        let report = service.process_batch(vec![degraded]);
        let baseline = small_service(1).process_batch(vec![healthy]);
        match (&report.responses[0].outcome, &baseline.responses[0].outcome) {
            (JobOutcome::Solved(got), JobOutcome::Solved(want)) => {
                assert_eq!(got.colors, want.colors, "degraded payload bit-identical");
                assert_eq!(got.num_colors, want.num_colors);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(report.metrics.degradations, 1, "one demotion");
        assert_eq!(
            report.metrics.retries, 0,
            "capacity truths demote, not retry"
        );
        assert_eq!(report.metrics.failed, 0);
    }

    #[test]
    fn moderate_fault_rates_still_terminate_every_job() {
        silence_injected_panics();
        // 20% faults across every site: some jobs retry, some degrade,
        // some quarantine — but each produces exactly one terminal
        // response and the service never aborts.
        let plan = FaultPlan::uniform(77, 0.2);
        let service = faulted_service(3, plan, 3);
        let reqs: Vec<SolveRequest> = (0..12)
            .map(|i| {
                let mut r = synth(&format!("m{i}"), 40 + i, i as u64);
                if i % 3 == 0 {
                    r.config.backend = Some("device:64".into());
                }
                r
            })
            .collect();
        let report = service.process_batch(reqs);
        assert_eq!(report.responses.len(), 12);
        for resp in &report.responses {
            assert!(
                matches!(
                    &resp.outcome,
                    JobOutcome::Solved(_) | JobOutcome::Failed { .. }
                ),
                "{:?}",
                resp.outcome
            );
        }
        let m = &report.metrics;
        assert_eq!(
            m.solved + m.failed,
            12 - m.cache_hits,
            "terminal accounting"
        );
        // Retries are bounded by the attempt budget.
        assert!(m.retries <= 12 * 2, "retries {} within budget", m.retries);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        assert_eq!(retry_backoff(0, 3, 42), Duration::ZERO);
        let b1 = retry_backoff(1, 1, 42);
        let b2 = retry_backoff(1, 2, 42);
        assert_eq!(b1, retry_backoff(1, 1, 42), "deterministic");
        assert!(b2 >= b1, "exponential growth");
        // Cap: attempt 40 must not shift into overflow.
        assert!(retry_backoff(1, 40, 1).as_millis() <= 64 + 32);
        // Different salts spread the jitter.
        let spread: std::collections::HashSet<u128> = (0..16u64)
            .map(|s| retry_backoff(4, 3, s).as_millis())
            .collect();
        assert!(spread.len() > 1, "jitter varies with the salt");
    }

    #[test]
    fn ladder_rungs_demote_in_order_and_bottom_out() {
        let dev = ConflictBackend::Device { capacity: 123 };
        assert_eq!(demote_backend(dev).unwrap(), ConflictBackend::Parallel);
        // The host backends are the bottom: none fails for capacity.
        for host in [
            ConflictBackend::Parallel,
            ConflictBackend::AllPairs,
            ConflictBackend::Sequential,
        ] {
            assert_eq!(demote_backend(host), None, "{host:?}");
        }
    }
}
