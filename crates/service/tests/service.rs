//! Integration tests of the service contracts: admission rejects before
//! any solve work, queue order is deterministic, and cached responses
//! are bit-identical to fresh ones for arbitrary request streams.

use picasso_service::{
    AdmissionConfig, JobOutcome, ServiceConfig, SolveRequest, SolveService, Workload,
};
use proptest::prelude::*;

fn service(workers: usize, admission: AdmissionConfig) -> SolveService {
    SolveService::new(ServiceConfig {
        workers,
        queue_capacity: 32,
        cache_capacity: 64,
        admission,
        ..ServiceConfig::default()
    })
}

fn synth(id: &str, n: usize, seed: u64) -> SolveRequest {
    SolveRequest::new(id, Workload::SyntheticPauli { n, qubits: 8, seed })
}

#[test]
fn over_budget_job_is_rejected_with_zero_candidate_pairs_scanned() {
    // The acceptance pin: rejection happens *before any conflict build
    // runs*, so the enumeration counter stays exactly zero.
    let svc = service(
        2,
        AdmissionConfig {
            max_forecast_bytes: 64 * 1024,
            demote_forecast_bytes: 32 * 1024,
        },
    );
    let report = svc.process_batch(vec![synth("huge", 100_000, 1)]);
    match &report.responses[0].outcome {
        JobOutcome::Rejected { reason } => {
            assert!(reason.contains("exceeds"), "{reason}");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    assert_eq!(report.metrics.rejected, 1);
    assert_eq!(report.metrics.solved, 0);
    assert_eq!(
        report.metrics.candidate_pairs_scanned, 0,
        "a rejected job must never reach candidate enumeration"
    );
    assert_eq!(report.metrics.conflict_edges_built, 0);
    assert_eq!(report.metrics.cache_misses, 0, "not even a cache lookup");
}

#[test]
fn a_multi_backend_is_rejected_at_admission_and_never_retried() {
    // `multi:` is no backend: an in-code request naming it fails its
    // configuration check before any solve work, once.
    let svc = service(1, AdmissionConfig::default());
    let mut req = synth("fleet", 40, 1);
    req.config.backend = Some("multi:2:16".into());
    let report = svc.process_batch(vec![req]);
    match &report.responses[0].outcome {
        JobOutcome::Rejected { reason } => {
            assert!(reason.contains("invalid configuration"), "{reason}");
            assert!(reason.contains("unknown backend"), "{reason}");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    assert_eq!(report.metrics.rejected, 1);
    assert_eq!(
        report.metrics.retries, 0,
        "a bad configuration never retries"
    );
    assert_eq!(report.metrics.candidate_pairs_scanned, 0);
    assert!(svc.quarantined().is_empty());
}

#[test]
fn mixed_batch_rejects_only_the_over_budget_jobs() {
    let svc = service(
        2,
        AdmissionConfig {
            max_forecast_bytes: 4 * 1024 * 1024,
            demote_forecast_bytes: 2 * 1024 * 1024,
        },
    );
    let report = svc.process_batch(vec![
        synth("small-1", 60, 1),
        synth("huge", 100_000, 2),
        synth("small-2", 80, 3),
    ]);
    assert!(matches!(report.responses[0].outcome, JobOutcome::Solved(_)));
    assert!(matches!(
        report.responses[1].outcome,
        JobOutcome::Rejected { .. }
    ));
    assert!(matches!(report.responses[2].outcome, JobOutcome::Solved(_)));
    assert_eq!(report.metrics.solved, 2);
    assert_eq!(report.metrics.rejected, 1);
    assert!(report.metrics.candidate_pairs_scanned > 0, "small jobs ran");
}

#[test]
fn single_worker_executes_in_priority_then_submission_order() {
    let svc = service(1, AdmissionConfig::default());
    let mut reqs = Vec::new();
    for (id, priority) in [
        ("p1-a", 1u8),
        ("p5-a", 5),
        ("p1-b", 1),
        ("p9", 9),
        ("p5-b", 5),
    ] {
        let mut r = synth(id, 40, reqs.len() as u64);
        r.priority = priority;
        reqs.push(r);
    }
    let report = svc.process_batch(reqs);
    assert_eq!(
        report.execution_order,
        vec!["p9", "p5-a", "p5-b", "p1-a", "p1-b"],
        "deterministic queue order"
    );
}

#[test]
fn demoted_jobs_run_after_every_normally_admitted_job() {
    // A job between the soft and hard budgets keeps running but loses
    // its priority — interactive work overtakes it.
    let n_big = 2000;
    let big_forecast = picasso_service::forecast_peak_bytes(
        &Workload::SyntheticPauli {
            n: n_big,
            qubits: 8,
            seed: 0,
        },
        &picasso::PicassoConfig::normal(1),
    );
    let svc = service(
        1,
        AdmissionConfig {
            max_forecast_bytes: big_forecast * 2,
            demote_forecast_bytes: big_forecast / 2,
        },
    );
    let mut big = synth("big", n_big, 0);
    big.priority = 9; // requested first...
    let report = svc.process_batch(vec![big, synth("small-1", 40, 1), synth("small-2", 40, 2)]);
    assert_eq!(report.metrics.demoted, 1);
    assert_eq!(
        report.execution_order,
        vec!["small-1", "small-2", "big"],
        "...but demotion sends it to the back"
    );
    assert!(matches!(report.responses[0].outcome, JobOutcome::Solved(_)));
}

#[test]
fn graph_and_pauli_workloads_serve_side_by_side() {
    let svc = service(2, AdmissionConfig::default());
    let report = svc.process_batch(vec![
        synth("pauli", 50, 1),
        SolveRequest::new(
            "graph",
            Workload::SyntheticGraph {
                n: 80,
                density: 0.4,
                seed: 2,
            },
        ),
        SolveRequest::new(
            "explicit",
            Workload::Pauli {
                strings: vec!["XX".into(), "YY".into(), "ZZ".into(), "XY".into()],
            },
        ),
    ]);
    for resp in &report.responses {
        match &resp.outcome {
            JobOutcome::Solved(s) => assert!(s.num_colors >= 1, "{}", resp.id),
            other => panic!("{}: {other:?}", resp.id),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any stream of requests (duplicates likely by construction),
    /// the batched service — cache, context reuse, concurrency and all —
    /// produces outcome payloads identical to one-shot solves of each
    /// request on a fresh service, and repeats within the stream are
    /// bit-identical cache replays.
    #[test]
    fn cached_and_fresh_responses_are_identical_for_random_streams(
        sizes in proptest::collection::vec((10usize..50, 0u64..3, 0u8..4), 1..7),
        workers in 1usize..4,
    ) {
        let svc = service(workers, AdmissionConfig::default());
        let reqs: Vec<SolveRequest> = sizes
            .iter()
            .enumerate()
            .map(|(i, &(n, seed, priority))| {
                let mut r = synth(&format!("job-{i}"), n, seed);
                r.priority = priority;
                r
            })
            .collect();
        let batched = svc.process_batch(reqs.clone());

        // Replaying the identical stream must be all cache hits with
        // byte-identical response lines.
        let replay = svc.process_batch(reqs.clone());
        prop_assert_eq!(
            replay.metrics.cache_hits - batched.metrics.cache_hits,
            reqs.len() as u64
        );
        for (a, b) in batched.responses.iter().zip(replay.responses.iter()) {
            prop_assert_eq!(a.to_json_line(), b.to_json_line());
        }

        // And each batched outcome equals a cold one-shot solve.
        for (req, resp) in reqs.iter().zip(batched.responses.iter()) {
            let fresh = service(1, AdmissionConfig::default())
                .process_batch(vec![req.clone()]);
            prop_assert_eq!(&fresh.responses[0].outcome, &resp.outcome, "{}", req.id);
        }
    }
}
