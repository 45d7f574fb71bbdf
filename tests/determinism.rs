//! Determinism is a tested invariant: a solve's output is a pure
//! function of (instance, config, seed). In particular it must not
//! depend on what the `IterationContext` solved before — the packing
//! decision reads counted quantities only — nor
//! on which (differently warmed) service worker serves a request.
//!
//! The vendored proptest runner cannot shrink, so every assertion names
//! the sampled seeds: a failure message is enough to replay the case.

use graph::PackedWordOracle;
use pauli::EncodedSet;
use picasso::{ConflictBackend, IterationContext, Picasso, PicassoConfig, PicassoResult};
use picasso_service::{JobOutcome, ServiceConfig, SolveRequest, SolveService, Workload};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_set(n: usize, qubits: usize, seed: u64) -> EncodedSet {
    let mut rng = StdRng::seed_from_u64(seed);
    EncodedSet::from_strings(&pauli::string::random_unique_set(n, qubits, &mut rng))
}

/// Warms `ctx` with solves of shapes unlike the instance under test:
/// larger and smaller Pauli sets, another register width, the
/// Aggressive preset, a synthetic oracle, and several backends.
fn warm_up(ctx: &mut IterationContext, n: usize, warm_seed: u64) {
    let big = random_set(n * 2 + 37, 20, warm_seed);
    let small = random_set(n / 3 + 5, 6, warm_seed ^ 1);
    let oracle = PackedWordOracle::with_edge_density(n + 50, 2, 0.02, warm_seed ^ 2);
    let normal = PicassoConfig::normal(warm_seed);
    Picasso::new(normal.with_backend(ConflictBackend::Parallel))
        .solve_pauli_in(&big, ctx)
        .expect("warm-up solve");
    Picasso::new(PicassoConfig::aggressive(warm_seed).with_backend(ConflictBackend::Sequential))
        .solve_pauli_in(&small, ctx)
        .expect("warm-up solve");
    Picasso::new(normal.with_backend(ConflictBackend::Device { capacity: 64 << 20 }))
        .solve_oracle_in(&oracle, ctx)
        .expect("warm-up solve");
}

fn backends() -> [ConflictBackend; 4] {
    [
        ConflictBackend::Sequential,
        ConflictBackend::Parallel,
        ConflictBackend::Device { capacity: 64 << 20 },
        ConflictBackend::Device { capacity: 32 << 20 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same instance solved on a cold context and on one warmed by
    /// unrelated solves: colors, packed-replica builds and per-iteration
    /// packed lanes all agree, on every backend.
    #[test]
    fn cold_and_warmed_contexts_agree(
        n in 80usize..260,
        qubits in prop_oneof![Just(8usize), Just(12), Just(30)],
        seed in any::<u64>(),
        warm_seed in any::<u64>(),
    ) {
        let set = random_set(n, qubits, seed);
        let mut warm = IterationContext::new();
        warm_up(&mut warm, n, warm_seed);
        prop_assert!(warm.index_builds() > 0, "warm-up ran (seeds {} / {})", seed, warm_seed);

        for backend in backends() {
            let cfg = PicassoConfig::normal(seed).with_backend(backend);
            let cold = Picasso::new(cfg).solve_pauli_in(&set, &mut IterationContext::new());
            let hot = Picasso::new(cfg).solve_pauli_in(&set, &mut warm);
            prop_assert!(
                cold.is_ok() && hot.is_ok(),
                "{:?} (seeds {} / {}): {:?} / {:?}",
                backend, seed, warm_seed, cold.as_ref().err(), hot.as_ref().err()
            );
            let (cold, hot) = (cold.unwrap(), hot.unwrap());
            prop_assert_eq!(
                &cold.colors, &hot.colors,
                "{:?} colors (seeds {} / {})", backend, seed, warm_seed
            );
            prop_assert_eq!(
                cold.pack_builds, hot.pack_builds,
                "{:?} pack builds (seeds {} / {})", backend, seed, warm_seed
            );
            let lanes = |r: &picasso::PicassoResult| -> Vec<u64> {
                r.iterations.iter().map(|s| s.packed_lanes).collect()
            };
            prop_assert_eq!(
                lanes(&cold), lanes(&hot),
                "{:?} packed lanes (seeds {} / {})", backend, seed, warm_seed
            );
        }
    }
}

/// A one-worker service, so every batch it drains runs on the same
/// pooled context.
fn one_worker_service() -> SolveService {
    SolveService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
}

fn warm_service(service: &SolveService, shapes: &[(usize, usize, &str)], seed: u64) {
    let requests = shapes
        .iter()
        .enumerate()
        .map(|(i, &(n, qubits, backend))| {
            let mut req = SolveRequest::new(
                format!("warm-{i}"),
                Workload::SyntheticPauli {
                    n,
                    qubits,
                    seed: seed ^ i as u64,
                },
            );
            req.config.backend = Some(backend.into());
            req
        })
        .chain(std::iter::once(SolveRequest::new(
            "warm-graph",
            Workload::SyntheticGraph {
                n: 150,
                density: 0.3,
                seed,
            },
        )))
        .collect();
    let report = service.process_batch(requests);
    assert!(report.metrics.solved > 0, "warm-up solved something");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same request served by two differently warmed workers (and by
    /// a cold one) serializes to byte-identical response lines.
    #[test]
    fn differently_warmed_workers_serve_byte_identical_responses(
        n in 60usize..220,
        backend in prop_oneof![Just("seq"), Just("par"), Just("device:64"), Just("device:16")],
        coloring in prop_oneof![Just("greedy"), Just("sl")],
        seed in any::<u64>(),
    ) {
        let a = one_worker_service();
        let b = one_worker_service();
        let cold = one_worker_service();
        warm_service(&a, &[(400, 20, "par"), (50, 6, "seq")], seed);
        warm_service(&b, &[(90, 10, "device:64"), (300, 14, "device:32")], seed ^ 7);

        let mut request = SolveRequest::new(
            "target",
            Workload::SyntheticPauli { n, qubits: 10, seed },
        );
        request.config.backend = Some(backend.into());
        request.config.coloring = Some(coloring.into());
        let mut lines = Vec::new();
        for service in [&a, &b, &cold] {
            let report = service.process_batch(vec![request.clone()]);
            let response = &report.responses[0];
            prop_assert!(
                matches!(response.outcome, JobOutcome::Solved(_)),
                "{} {} (seed {}): {:?}", backend, coloring, seed, response.outcome
            );
            lines.push(response.to_json_line());
        }
        prop_assert_eq!(
            &lines[0], &lines[1],
            "warm workers disagree on {} {} (seed {})", backend, coloring, seed
        );
        prop_assert_eq!(
            &lines[0], &lines[2],
            "warm and cold workers disagree on {} {} (seed {})", backend, coloring, seed
        );
    }
}

/// FNV-1a over a colouring, for pinning it in one constant.
fn digest(colors: &[u32]) -> u64 {
    colors.iter().fold(0xcbf2_9ce4_8422_2325, |h, &c| {
        (h ^ u64::from(c)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Colourings do not depend on the thread count. The parallel and
/// device solves of a fixed instance equal the sequential one and
/// a digest pinned here; run the suite under `RAYON_NUM_THREADS=1`, `=4`
/// and the host default to compare thread counts across processes. So
/// does the graph form: the `Parallel` group pass tallies its edges in
/// batches of the edge limit over `4 × threads` cuts, yet every
/// iteration keeps the form, and counts the `|Ec|`, of the `Sequential`
/// one-cut pass, and some iteration keeps hit masks.
#[test]
fn colorings_do_not_depend_on_the_thread_count() {
    let set = random_set(300, 12, 21);
    let threads = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "default".into());
    let solve = |backend| {
        Picasso::new(PicassoConfig::normal(5).with_backend(backend))
            .solve_pauli(&set)
            .expect("solve")
    };
    let graph_forms = |result: &PicassoResult| -> Vec<(bool, usize)> {
        let iterations = result.iterations.iter();
        iterations
            .map(|s| (s.conflict_masks, s.conflict_edges))
            .collect()
    };
    let reference = solve(ConflictBackend::Sequential);
    assert!(
        reference.conflict_mask_iterations() > 0,
        "no iteration kept hit masks"
    );
    for backend in backends() {
        let result = solve(backend);
        let what = format!("{backend:?}, RAYON_NUM_THREADS={threads}");
        assert_eq!(result.colors, reference.colors, "{what}");
        if backend == ConflictBackend::Parallel {
            assert_eq!(graph_forms(&result), graph_forms(&reference), "{what}");
        }
    }
    let reference = reference.colors;
    assert_eq!(
        digest(&reference),
        4_675_664_629_842_432_619,
        "pinned colouring, RAYON_NUM_THREADS={threads}"
    );
}
