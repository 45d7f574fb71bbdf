//! The solver workloads (`dense_pauli`, `molecule_aggressive`,
//! `sparse_oracle`): the untraced end-to-end run and the traced replay.

use crate::hostspeed::HostSpeed;
use crate::record::Record;
use crate::replay::{self, Replay, ReplayError};
use crate::stats::{median, quartile_spread, ratio, tail};
use crate::workloads::{generate, Input, Instance, Workload};
use picasso::{ConflictBackend, PicassoConfig, PicassoResult};
use std::time::{Duration, Instant};

/// Set-ups per run: at least [`SETUP_MIN`], more while they have taken
/// under [`SETUP_BUDGET_S`] in total, at most [`SETUP_MAX`]; `setup_s` is
/// their median.
pub const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 25;
const SETUP_BUDGET_S: f64 = 2.0;

/// Whether the set-ups timed so far are enough.
pub fn setups_done(times: &[f64]) -> bool {
    times.len() >= SETUP_MAX
        || (times.len() >= SETUP_MIN && times.iter().sum::<f64>() >= SETUP_BUDGET_S)
}
/// Tracked `Sequential` solves per run; `peak_heap_mib` is their median.
const PEAK_REPS: usize = 3;
const MIB: f64 = 1024.0 * 1024.0;

/// The `Sequential` twin of a configuration.
pub fn sequential(cfg: PicassoConfig) -> PicassoConfig {
    cfg.with_backend(ConflictBackend::Sequential)
}

/// Set-up, repeated (see [`setups_done`]): the input's set-up step plus
/// one warm-up solve. Returns the last instance, the warm-up result, and
/// every set-up time in seconds.
fn set_up<'a>(
    input: &'a Input,
    cfg: PicassoConfig,
    rec: &mut Record,
) -> Option<(Instance<'a>, PicassoResult, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUP_MIN);
    let mut last = None;
    while !setups_done(&times) {
        let t = Instant::now();
        let instance = Instance::set_up(input);
        let warm = instance.solve(cfg);
        times.push(t.elapsed().as_secs_f64());
        rec.check(warm.is_ok(), || format!("warm-up solve failed: {warm:?}"));
        last = Some((instance, warm.ok()?));
    }
    let (instance, warm) = last?;
    Some((instance, warm, times))
}

/// Checks a solve against the validated reference colouring.
fn check_solve(
    rec: &mut Record,
    what: &str,
    result: &Result<PicassoResult, picasso::SolveError>,
    reference: &[u32],
) {
    let ok = matches!(result, Ok(r) if r.colors == reference);
    rec.check(ok, || match result {
        Ok(_) => format!("{what}: colouring differs from the validated reference"),
        Err(e) => format!("{what}: {e}"),
    });
}

/// Peak live heap (MiB) of one `Sequential` solve, median of
/// [`PEAK_REPS`], every result checked.
pub fn peak_heap_mib(
    instance: &Instance<'_>,
    cfg: PicassoConfig,
    reference: &[u32],
    rec: &mut Record,
) -> f64 {
    let mut peaks = Vec::with_capacity(PEAK_REPS);
    for _ in 0..PEAK_REPS {
        let region = memtrack::PeakRegion::start();
        let result = instance.solve(sequential(cfg));
        peaks.push(region.peak_bytes() as f64 / MIB);
        check_solve(rec, "tracked sequential solve", &result, reference);
    }
    median(&peaks)
}

/// The untraced run: set-up, then a closed loop of rounds — one
/// `Parallel` and one `Sequential` solve on fresh contexts — for
/// `seconds`, then the tracked peak-heap solves.
pub fn run(workload: Workload, seed: u64, seconds: f64, rec: &mut Record) {
    let cfg = workload.config();
    let input = generate(workload, seed);
    let mut host = HostSpeed::new();
    let Some((instance, warm, setup)) = set_up(&input, cfg, rec) else {
        return;
    };
    let setup_epoch = host.epoch();
    host.sample();
    let valid = instance.validate(&warm.colors);
    rec.check(valid, || "reference colouring failed validation".into());
    let reference = warm.colors;

    // (parallel ms, sequential ms, host-speed epoch) per round.
    let mut rounds: Vec<(f64, f64, usize)> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let epoch = host.epoch();
        let t0 = Instant::now();
        let par = instance.solve(cfg);
        let t1 = Instant::now();
        let seq = instance.solve(sequential(cfg));
        let t2 = Instant::now();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        rounds.push((ms(t1 - t0), ms(t2 - t1), epoch));
        check_solve(rec, "parallel solve", &par, &reference);
        check_solve(rec, "sequential solve", &seq, &reference);
        host.after((t2 - t0).as_secs_f64());
        if t2 >= deadline {
            break;
        }
    }
    host.sample();
    let peak = peak_heap_mib(&instance, cfg, &reference, rec);

    // Normalised (`norm`) or raw per-round series. A round is one
    // Parallel plus one Sequential solve, each part scaled by its own
    // reference.
    let series = |norm: bool| {
        let (mut par, mut seq, mut round) = (Vec::new(), Vec::new(), Vec::new());
        for &(p, q, e) in &rounds {
            let f = if norm { host.factor(e) } else { 1.0 };
            par.push(p * f);
            seq.push(q * f);
            round.push((p + q) * f);
        }
        (par, seq, round)
    };
    let (par_ms, seq_ms, round_ms) = series(true);
    let (raw_par, raw_seq, raw_round) = series(false);
    let solves = 2.0 * rounds.len() as f64;
    let per_s = |r: &[f64]| solves / (r.iter().sum::<f64>() / 1e3);
    let round_tail = tail(&round_ms);
    rec.set("solve_ms", median(&par_ms));
    rec.set("solve_seq_ms", median(&seq_ms));
    rec.set("peak_heap_mib", peak);
    rec.set("num_colors", warm.num_colors as f64);
    rec.set("setup_s", median(&setup) * host.factor(setup_epoch));
    rec.set("requests_per_s", per_s(&round_ms));
    rec.set("batch_ms", median(&round_ms));
    rec.set("batch_tail_ms", round_tail.value);
    rec.detail(
        "raw",
        serde_json::json!({
            "solve_ms": median(&raw_par),
            "solve_seq_ms": median(&raw_seq),
            "setup_s": median(&setup),
            "requests_per_s": per_s(&raw_round),
            "batch_ms": median(&raw_round),
            "batch_tail_ms": tail(&raw_round).value,
        }),
    );
    rec.detail("host_speed", host.details());
    rec.detail("vertices", instance.num_vertices());
    rec.detail("iterations", warm.iterations.len());
    rec.detail("solve_samples", rounds.len());
    rec.detail("solve_ms_spread", quartile_spread(&par_ms));
    rec.detail("solve_seq_ms_spread", quartile_spread(&seq_ms));
    rec.detail("batch_tail_percentile", round_tail.percentile * 100.0);
    rec.detail("setup_samples", setup.len());
}

/// Median over replays of one layer's per-solve milliseconds, each
/// replay scaled by the host-speed factor `k` of its epoch.
fn layer_ms(
    replays: &[(Replay, usize)],
    k: impl Fn(usize) -> f64,
    f: impl Fn(&Replay) -> f64,
) -> f64 {
    median(
        &replays
            .iter()
            .map(|(r, e)| f(r) * 1e3 * k(*e))
            .collect::<Vec<_>>(),
    )
}

/// Whether two library solves of the same workload at different seeds
/// have the same shape: the same engine path (bucketed or all-pairs,
/// packed or scalar) and iteration and colour counts close together.
pub fn same_shape(a: &PicassoResult, b: &PicassoResult) -> bool {
    let close = |x: f64, y: f64, rel: f64, abs: f64| (x - y).abs() <= (rel * x.max(y)).max(abs);
    (a.index_builds > 0) == (b.index_builds > 0)
        && (a.pack_builds > 0) == (b.pack_builds > 0)
        && close(
            a.iterations.len() as f64,
            b.iterations.len() as f64,
            0.25,
            2.0,
        )
        && close(a.num_colors as f64, b.num_colors as f64, 0.10, 2.0)
}

/// Replays an instance through its layers for about `seconds`, each
/// replay followed by one untraced library `Sequential` solve, and
/// reports the per-layer medians. `alt` is the same workload generated
/// at a seed the main run does not use (the second-seed shape check).
pub fn trace(input: &Input, alt: &Input, cfg: PicassoConfig, seconds: f64, rec: &mut Record) {
    let instance = Instance::set_up(input);
    let library = instance.solve(sequential(cfg));
    let library = match library {
        Ok(r) => r,
        Err(e) => {
            rec.check(false, || format!("library solve failed: {e}"));
            return;
        }
    };
    let valid = instance.validate(&library.colors);
    rec.check(valid, || "library colouring failed validation".into());

    let mut host = HostSpeed::new();
    let mut replays: Vec<(Replay, usize)> = Vec::new();
    let mut untraced_ms: Vec<(f64, usize)> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let started = Instant::now();
        let epoch = host.epoch();
        let replayed = match &instance {
            Instance::Pauli(set) => replay::replay(&picasso::PauliComplementOracle::new(set), &cfg),
            Instance::Oracle(o) => replay::replay(*o, &cfg),
        };
        match replayed {
            Ok(r) => {
                rec.check(r.colors == library.colors, || {
                    "replayed colouring differs from Picasso::solve_*".into()
                });
                rec.check(r.parallel_mismatches == 0, || {
                    format!(
                        "{} parallel conflict graphs differ from the sequential ones",
                        r.parallel_mismatches
                    )
                });
                replays.push((r, epoch));
            }
            Err(ReplayError(e)) => rec.check(false, || e),
        }
        let t = Instant::now();
        let seq = instance.solve(sequential(cfg));
        untraced_ms.push((t.elapsed().as_secs_f64() * 1e3, epoch));
        check_solve(rec, "untraced sequential solve", &seq, &library.colors);
        host.after(started.elapsed().as_secs_f64());
        if Instant::now() >= deadline {
            break;
        }
    }
    host.sample();
    if replays.is_empty() {
        return;
    }

    let alt_instance = Instance::set_up(alt);
    let shape = match alt_instance.solve(sequential(cfg)) {
        Ok(r) => {
            rec.detail("alt_seed_iterations", r.iterations.len());
            rec.detail("alt_seed_colors", r.num_colors);
            same_shape(&library, &r)
        }
        Err(e) => {
            rec.check(false, || format!("second-seed solve failed: {e}"));
            false
        }
    };

    let c = replays[0].0.counts;
    let f = |e: usize| host.factor(e);
    let untraced = median(
        &untraced_ms
            .iter()
            .map(|&(ms, e)| ms * f(e))
            .collect::<Vec<_>>(),
    );
    let traced_ms = layer_ms(&replays, f, |r| r.secs.total);
    rec.set("assign.ms", layer_ms(&replays, f, |r| r.secs.assign));
    rec.set(
        "candidates.index_ms",
        layer_ms(&replays, f, |r| r.secs.index),
    );
    rec.set("packed.pack_ms", layer_ms(&replays, f, |r| r.secs.pack));
    rec.set("conflict.scan_ms", layer_ms(&replays, f, |r| r.secs.scan));
    rec.set("graph.csr_ms", layer_ms(&replays, f, |r| r.secs.csr));
    rec.set(
        "listcolor.color_ms",
        layer_ms(&replays, f, |r| r.secs.color),
    );
    rec.set(
        "solver.other_ms",
        layer_ms(&replays, f, |r| r.secs.total - r.secs.named()),
    );
    rec.set("solver.traced_ms", traced_ms);
    rec.set(
        "conflict.build_par_ms",
        layer_ms(&replays, f, |r| r.secs.build_par),
    );
    rec.set(
        "graph.csr_par_ms",
        layer_ms(&replays, f, |r| r.secs.csr_par),
    );
    rec.set(
        "conflict.scan_par_ms_derived",
        layer_ms(&replays, f, |r| r.secs.build_par - r.secs.csr_par),
    );
    rec.set("solver.iterations", c.iterations as f64);
    rec.set("candidates.pairs", c.candidate_pairs as f64);
    rec.set("conflict.edges", c.edges as f64);
    rec.set(
        "conflict.edge_yield",
        ratio(c.edges as f64, c.candidate_pairs as f64),
    );
    rec.set(
        "packed.skip_ratio",
        ratio(c.skipped_words as f64, c.scanned_words as f64),
    );
    rec.set(
        "packed.iterations_packed",
        median(
            &replays
                .iter()
                .map(|(r, _)| r.counts.iterations_packed as f64)
                .collect::<Vec<_>>(),
        ),
    );
    rec.set(
        "listcolor.conflicted_share",
        ratio(c.conflicted as f64, c.live as f64),
    );
    rec.set("trace.overhead", ratio(traced_ms, untraced));
    rec.set(
        "trace.layer_coverage",
        median(
            &replays
                .iter()
                .map(|(r, _)| ratio(r.secs.named(), r.secs.total))
                .collect::<Vec<_>>(),
        ),
    );
    rec.set("shape.second_seed_match", if shape { 1.0 } else { 0.0 });
    rec.detail("replays", replays.len());
    rec.detail("untraced_seq_ms", untraced);
    rec.detail(
        "raw_traced_ms",
        layer_ms(&replays, |_| 1.0, |r| r.secs.total),
    );
    rec.detail("host_speed", host.details());
    rec.detail("iterations_bucketed", c.iterations_bucketed);
    rec.detail("library_index_builds", library.index_builds);
    rec.detail("library_pack_builds", library.pack_builds);
    rec.detail("library_colors", library.num_colors);
}
