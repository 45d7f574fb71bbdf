//! `picasso-cli` — group a file of Pauli strings into anticommuting
//! cliques from the command line, or serve a batch of solve jobs.
//!
//! ```text
//! picasso-cli strings.txt [--palette PCT] [--alpha A] [--seed N]
//!             [--aggressive] [--backend seq|par|allpairs|device:MIB]
//!             [--coloring greedy|natural|random|lf|sl|dlf|id]
//!             [--json] [--stats] [--metrics FILE] [--trace FILE]
//!
//! picasso-cli serve [REQUESTS.jsonl|-] [--out FILE] [--workers N]
//!             [--queue N] [--cache N] [--budget-mib M] [--demote-mib M]
//!             [--fault-rate R] [--fault-seed N] [--max-attempts K]
//!             [--metrics FILE] [--trace FILE] [--once]
//!
//! picasso-cli trace SPANS.jsonl
//! ```
//!
//! One-shot mode: one Pauli string per line (`IXYZ…`), `#` comments
//! allowed; output is one group per line (`U<k>: S1 S2 …`), or a JSON
//! document with `--json`. `--backend device:MIB` builds each conflict
//! graph on one simulated device of `MIB` MiB (Algorithm 3).
//!
//! Serve mode: drains a JSONL request file through the
//! admission-controlled [`picasso_service::SolveService`] and emits one
//! JSONL response per request (stdout or `--out`) — malformed request
//! lines get per-line `"malformed"` responses instead of killing the
//! batch — plus a metrics summary on stderr. `--fault-rate R` arms a
//! seeded chaos plan (device faults, worker panics, slow jobs, each at
//! rate `R`); retries, degradations and quarantines are reported in the
//! footer. `--once` runs a built-in smoke batch — solves, a cache
//! replay, and an admission rejection — without an input file, and
//! self-checks the exposition document against the metrics schema (under
//! a fault plan it instead self-validates that every request still got
//! exactly one terminal response).
//!
//! Observability: `--metrics FILE` writes the telemetry registry on
//! exit as schema-versioned JSON (`FILE`) and Prometheus text
//! (`FILE.prom`); `--trace FILE` records solver phase spans as JSONL;
//! `picasso-cli trace FILE` replays such a log into a per-phase
//! flame-style table.

use picasso::{
    color_classes, ConflictBackend, ListColoringScheme, Picasso, PicassoConfig, SharedColorFilter,
};
use picasso_service::{
    parse_request_lines, silence_injected_panics, AdmissionConfig, FaultPlan, JobOutcome,
    ParsedRequests, ServiceConfig, SolveRequest, SolveService, Workload,
};
use picasso_suite::io::parse_pauli_lines;
use picasso_suite::summary::SolveSummary;
use std::io::Read;
use std::process::exit;
use std::sync::Arc;
use telemetry::{AggregatingSink, FanoutSink, JsonlSink, Registry, TelemetrySink};

// Heap gauges (`heap_peak_bytes` & co) in the `--metrics` exposition
// are live only when the tracking allocator is the global allocator.
#[global_allocator]
static ALLOC: memtrack::TrackingAllocator = memtrack::TrackingAllocator;

struct CliArgs {
    input: Option<String>,
    palette_pct: Option<f64>,
    alpha: Option<f64>,
    seed: u64,
    aggressive: bool,
    backend: ConflictBackend,
    coloring: Option<ListColoringScheme>,
    json: bool,
    stats: bool,
    metrics: Option<String>,
    trace: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: picasso-cli [FILE|-] [--palette PCT] [--alpha A] [--seed N] \
         [--aggressive] [--backend seq|par|allpairs|device:MIB] \
         [--coloring greedy|natural|random|lf|sl|dlf|id] [--json] [--stats] \
         [--metrics FILE] [--trace FILE]"
    );
    exit(2);
}

fn parse_args() -> CliArgs {
    let mut out = CliArgs {
        input: None,
        palette_pct: None,
        alpha: None,
        seed: 1,
        aggressive: false,
        backend: ConflictBackend::Parallel,
        coloring: None,
        json: false,
        stats: false,
        metrics: None,
        trace: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--palette" => {
                out.palette_pct = args.get(i + 1).and_then(|v| v.parse().ok());
                if out.palette_pct.is_none() {
                    usage();
                }
                i += 2;
            }
            "--alpha" => {
                out.alpha = args.get(i + 1).and_then(|v| v.parse().ok());
                if out.alpha.is_none() {
                    usage();
                }
                i += 2;
            }
            "--seed" => {
                out.seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--aggressive" => {
                out.aggressive = true;
                i += 1;
            }
            "--backend" => {
                let v = args
                    .get(i + 1)
                    .map(String::as_str)
                    .unwrap_or_else(|| usage());
                out.backend = ConflictBackend::from_label(v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                });
                i += 2;
            }
            "--coloring" => {
                let v = args
                    .get(i + 1)
                    .map(String::as_str)
                    .unwrap_or_else(|| usage());
                out.coloring = Some(ListColoringScheme::from_label(v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                }));
                i += 2;
            }
            "--json" => {
                out.json = true;
                i += 1;
            }
            "--stats" => {
                out.stats = true;
                i += 1;
            }
            "--metrics" => {
                out.metrics = args.get(i + 1).cloned();
                if out.metrics.is_none() {
                    usage();
                }
                i += 2;
            }
            "--trace" => {
                out.trace = args.get(i + 1).cloned();
                if out.trace.is_none() {
                    usage();
                }
                i += 2;
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') || other == "-" => {
                if out.input.is_some() {
                    usage();
                }
                out.input = Some(other.to_string());
                i += 1;
            }
            _ => usage(),
        }
    }
    out
}

struct ServeArgs {
    input: Option<String>,
    out: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    cache: Option<usize>,
    budget_mib: Option<usize>,
    demote_mib: Option<usize>,
    metrics: Option<String>,
    trace: Option<String>,
    fault_rate: Option<f64>,
    fault_seed: Option<u64>,
    max_attempts: Option<u32>,
    once: bool,
}

fn serve_usage() -> ! {
    eprintln!(
        "usage: picasso-cli serve [REQUESTS.jsonl|-] [--out FILE] [--workers N] \
         [--queue N] [--cache N] [--budget-mib M] [--demote-mib M] \
         [--fault-rate R] [--fault-seed N] [--max-attempts K] \
         [--metrics FILE] [--trace FILE] [--once]"
    );
    exit(2);
}

fn parse_serve_args(args: &[String]) -> ServeArgs {
    let mut out = ServeArgs {
        input: None,
        out: None,
        workers: None,
        queue: None,
        cache: None,
        budget_mib: None,
        demote_mib: None,
        metrics: None,
        trace: None,
        fault_rate: None,
        fault_seed: None,
        max_attempts: None,
        once: false,
    };
    let mut i = 0;
    let numeric = |i: &mut usize, args: &[String]| -> usize {
        let v = args.get(*i + 1).and_then(|v| v.parse().ok());
        *i += 2;
        v.unwrap_or_else(|| serve_usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out.out = args.get(i + 1).cloned();
                if out.out.is_none() {
                    serve_usage();
                }
                i += 2;
            }
            "--workers" => out.workers = Some(numeric(&mut i, args)),
            "--queue" => out.queue = Some(numeric(&mut i, args)),
            "--cache" => out.cache = Some(numeric(&mut i, args)),
            "--budget-mib" => out.budget_mib = Some(numeric(&mut i, args)),
            "--demote-mib" => out.demote_mib = Some(numeric(&mut i, args)),
            "--fault-rate" => {
                let rate = args.get(i + 1).and_then(|v| v.parse::<f64>().ok());
                match rate {
                    Some(r) if (0.0..=1.0).contains(&r) => out.fault_rate = Some(r),
                    _ => serve_usage(),
                }
                i += 2;
            }
            "--fault-seed" => {
                out.fault_seed = args.get(i + 1).and_then(|v| v.parse().ok());
                if out.fault_seed.is_none() {
                    serve_usage();
                }
                i += 2;
            }
            "--max-attempts" => {
                let k = numeric(&mut i, args);
                if k == 0 || k > u32::MAX as usize {
                    serve_usage();
                }
                out.max_attempts = Some(k as u32);
            }
            "--metrics" => {
                out.metrics = args.get(i + 1).cloned();
                if out.metrics.is_none() {
                    serve_usage();
                }
                i += 2;
            }
            "--trace" => {
                out.trace = args.get(i + 1).cloned();
                if out.trace.is_none() {
                    serve_usage();
                }
                i += 2;
            }
            "--once" => {
                out.once = true;
                i += 1;
            }
            "--help" | "-h" => serve_usage(),
            other if !other.starts_with('-') || other == "-" => {
                if out.input.is_some() {
                    serve_usage();
                }
                out.input = Some(other.to_string());
                i += 1;
            }
            _ => serve_usage(),
        }
    }
    out
}

/// The `--once` smoke batch: two distinct solves (one Pauli, one
/// oracle-graph), a duplicate that must replay from the cache, and an
/// instance large enough that the default admission budget rejects it.
fn smoke_requests() -> Vec<SolveRequest> {
    let mut dup = SolveRequest::new(
        "smoke-pauli-again",
        Workload::SyntheticPauli {
            n: 200,
            qubits: 10,
            seed: 7,
        },
    );
    dup.priority = 0;
    vec![
        SolveRequest::new(
            "smoke-pauli",
            Workload::SyntheticPauli {
                n: 200,
                qubits: 10,
                seed: 7,
            },
        ),
        SolveRequest::new(
            "smoke-graph",
            Workload::SyntheticGraph {
                n: 150,
                density: 0.4,
                seed: 3,
            },
        ),
        dup,
        SolveRequest::new(
            "smoke-over-budget",
            Workload::SyntheticPauli {
                n: 2_000_000,
                qubits: 24,
                seed: 1,
            },
        ),
    ]
}

/// Writes `registry` as schema-versioned JSON to `path` and Prometheus
/// text to `path.prom`, refreshing the heap gauges first; returns the
/// JSON document for further validation.
fn write_metrics_files(registry: &Registry, path: &str) -> serde_json::Value {
    memtrack::export_gauges(registry);
    let doc = telemetry::render_json(registry);
    let text = serde_json::to_string_pretty(&doc).expect("metrics json");
    std::fs::write(path, text).unwrap_or_else(|e| {
        eprintln!("error writing {path}: {e}");
        exit(1);
    });
    let prom_path = format!("{path}.prom");
    std::fs::write(&prom_path, telemetry::render_prometheus(registry)).unwrap_or_else(|e| {
        eprintln!("error writing {prom_path}: {e}");
        exit(1);
    });
    eprintln!("metrics written to {path} (Prometheus text: {prom_path})");
    doc
}

/// Replays a `--trace` JSONL span log as a per-phase summary table.
fn run_trace(args: &[String]) -> ! {
    let path = match args {
        [path] if !path.starts_with('-') => path,
        _ => {
            eprintln!("usage: picasso-cli trace SPANS.jsonl");
            exit(2);
        }
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error reading {path}: {e}");
        exit(1);
    });
    let phases = telemetry::trace::summarize_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("trace parse error: {e}");
        exit(1);
    });
    print!("{}", telemetry::trace::render_table(&phases));
    exit(0);
}

fn run_serve(args: &[String]) -> ! {
    let args = parse_serve_args(args);
    let parsed = if args.once {
        ParsedRequests {
            requests: smoke_requests(),
            malformed: Vec::new(),
        }
    } else {
        let text = match args.input.as_deref() {
            None | Some("-") => {
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .unwrap_or_else(|e| {
                        eprintln!("error reading stdin: {e}");
                        exit(1);
                    });
                buf
            }
            Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error reading {path}: {e}");
                exit(1);
            }),
        };
        parse_request_lines(&text)
    };
    let ParsedRequests {
        requests,
        malformed,
    } = parsed;

    let faults = args
        .fault_rate
        .filter(|&r| r > 0.0)
        .map(|r| FaultPlan::uniform(args.fault_seed.unwrap_or(0xC1A0_5EED), r));
    if faults.is_some() {
        // Injected worker panics are caught and converted to failed
        // responses; keep their backtraces off the operator's stderr.
        silence_injected_panics();
    }

    let defaults = ServiceConfig::default();
    let admission_defaults = AdmissionConfig::default();
    let service = SolveService::new(ServiceConfig {
        workers: args.workers.unwrap_or(defaults.workers),
        queue_capacity: args.queue.unwrap_or(defaults.queue_capacity),
        cache_capacity: args.cache.unwrap_or(defaults.cache_capacity),
        admission: AdmissionConfig {
            max_forecast_bytes: args
                .budget_mib
                .map(|m| m * 1024 * 1024)
                .unwrap_or(admission_defaults.max_forecast_bytes),
            demote_forecast_bytes: args
                .demote_mib
                .map(|m| m * 1024 * 1024)
                .unwrap_or(admission_defaults.demote_forecast_bytes),
        },
        faults,
        max_attempts: args.max_attempts.unwrap_or(defaults.max_attempts),
        ..defaults
    });

    let trace_sink = args.trace.as_ref().map(|_| Arc::new(JsonlSink::new()));
    if let Some(sink) = &trace_sink {
        telemetry::install(Arc::clone(sink) as Arc<dyn TelemetrySink>);
    }

    let num_requests = requests.len() + malformed.len();
    let report = service.process_batch(requests);

    if let Some(sink) = &trace_sink {
        telemetry::uninstall();
        let path = args.trace.as_deref().expect("trace path");
        std::fs::write(path, sink.to_jsonl()).unwrap_or_else(|e| {
            eprintln!("error writing {path}: {e}");
            exit(1);
        });
        eprintln!("span trace written to {path}");
    }
    let mut lines = String::new();
    for resp in report.responses.iter().chain(malformed.iter()) {
        lines.push_str(&resp.to_json_line());
        lines.push('\n');
    }
    match args.out.as_deref() {
        None => print!("{lines}"),
        Some(path) => std::fs::write(path, &lines).unwrap_or_else(|e| {
            eprintln!("error writing {path}: {e}");
            exit(1);
        }),
    }
    let m = &report.metrics;
    eprintln!(
        "served {num_requests} requests: {} solved, {} cache hits, {} demoted, \
         {} rejected, {} failed, {} malformed; {} candidate pairs scanned",
        m.solved,
        m.cache_hits,
        m.demoted,
        m.rejected,
        m.failed,
        malformed.len(),
        m.candidate_pairs_scanned
    );
    if faults.is_some()
        || m.retries + m.degradations + m.deadline_exceeded + m.quarantined + m.panics > 0
    {
        eprintln!(
            "fault tolerance: {} faults injected, {} panics contained, {} retries, \
             {} degradations, {} deadline exceeded, {} quarantined",
            m.faults_injected,
            m.panics,
            m.retries,
            m.degradations,
            m.deadline_exceeded,
            m.quarantined
        );
    }
    if let Some(ratio) = m.forecast_utilization() {
        eprintln!(
            "forecast calibration: observed/forecast = {:.4} over {} solved jobs \
             (admission headroom {:.0}x)",
            ratio,
            m.calibration_samples,
            1.0 / ratio.max(f64::EPSILON)
        );
    }
    eprintln!(
        "{}",
        serde_json::to_string(&m.to_json()).expect("metrics json")
    );
    let registry = service.registry();
    let metrics_doc = args
        .metrics
        .as_deref()
        .map(|path| write_metrics_files(&registry, path));
    // The smoke batch doubles as a self-check in CI: counter expectations,
    // then the exposition document itself (schema validity, counter
    // monotonicity along the admission funnel, non-empty latency
    // histograms).
    if args.once {
        // Structural invariant, faults or not: exactly one terminal
        // response per smoke request, every one with a known status.
        if report.responses.len() != num_requests {
            eprintln!(
                "smoke batch lost responses: {} requests, {} responses",
                num_requests,
                report.responses.len()
            );
            exit(1);
        }
        for resp in &report.responses {
            let terminal = matches!(
                resp.outcome,
                JobOutcome::Solved(_)
                    | JobOutcome::Rejected { .. }
                    | JobOutcome::Failed { .. }
                    | JobOutcome::Malformed { .. }
            );
            if !terminal || resp.id.is_empty() {
                eprintln!("smoke batch response {:?} is not terminal", resp.id);
                exit(1);
            }
        }
        let doc = metrics_doc.unwrap_or_else(|| {
            memtrack::export_gauges(&registry);
            telemetry::render_json(&registry)
        });
        if let Err(e) = telemetry::validate_metrics_json(&doc) {
            eprintln!("smoke batch metrics document failed validation: {e}");
            exit(1);
        }
        let counter = |name: &str| registry.counter(name).get();
        let funnel_ok = counter("service_submitted_total") >= counter("service_admitted_total")
            && counter("service_admitted_total") >= counter("service_solved_total")
            && counter("service_solved_total") == m.solved;
        if !funnel_ok {
            eprintln!("smoke batch admission-funnel counters are inconsistent");
            exit(1);
        }
        if faults.is_none() {
            // Fault-free, the smoke batch is fully deterministic: exact
            // counter expectations plus non-empty latency histograms.
            let ok = m.solved == 2 && m.cache_hits == 1 && m.rejected == 1 && m.failed == 0;
            if !ok {
                eprintln!("smoke batch produced unexpected metrics");
                exit(1);
            }
            if counter("solver_solves_total") != m.solved {
                eprintln!("smoke batch solver counter diverges from service counter");
                exit(1);
            }
            let histograms_ok = registry.histogram("service_total_ns").count() > 0
                && registry.histogram("service_solve_ns").count() == m.solved
                && registry.histogram("service_queue_wait_ns").count() > 0;
            if !histograms_ok {
                eprintln!("smoke batch latency histograms are empty");
                exit(1);
            }
        } else {
            // Under an armed fault plan the exact counts vary with the
            // seed, but arithmetic must still close: every non-rejected
            // request either solved (possibly from cache) or failed.
            if m.solved + m.cache_hits + m.rejected + m.failed != num_requests as u64 {
                eprintln!("smoke batch outcome counters do not cover every request");
                exit(1);
            }
            eprintln!("faulted smoke batch: every request reached a terminal response");
        }
    }
    exit(0);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        run_serve(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("trace") {
        run_trace(&argv[1..]);
    }
    let args = parse_args();

    let text = match args.input.as_deref() {
        None | Some("-") => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| {
                    eprintln!("error reading stdin: {e}");
                    exit(1);
                });
            buf
        }
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error reading {path}: {e}");
            exit(1);
        }),
    };

    let parsed = parse_pauli_lines(&text).unwrap_or_else(|e| {
        eprintln!("parse error: {e}");
        exit(1);
    });
    if parsed.duplicates_dropped > 0 {
        eprintln!(
            "note: dropped {} duplicate strings",
            parsed.duplicates_dropped
        );
    }

    let mut cfg = if args.aggressive {
        PicassoConfig::aggressive(args.seed)
    } else {
        PicassoConfig::normal(args.seed)
    };
    if let Some(p) = args.palette_pct {
        cfg = cfg.with_palette_fraction(p / 100.0);
    }
    if let Some(a) = args.alpha {
        cfg = cfg.with_alpha(a);
    }
    cfg = cfg.with_backend(args.backend);
    if let Some(scheme) = args.coloring {
        cfg = cfg.with_scheme(scheme);
    }

    // Every run folds its result into a registry: the headline, the
    // --stats footers, the --json roll-up fields and the --metrics
    // exposition all read the same instruments.
    let registry = Arc::new(Registry::new());
    let trace_sink = args.trace.as_ref().map(|_| Arc::new(JsonlSink::new()));
    let mut sinks: Vec<Arc<dyn TelemetrySink>> = Vec::new();
    if let Some(sink) = &trace_sink {
        sinks.push(Arc::clone(sink) as Arc<dyn TelemetrySink>);
    }
    if args.metrics.is_some() {
        // Phase spans land as span_*_ns histograms next to the solver
        // roll-ups in the exposition.
        sinks.push(Arc::new(AggregatingSink::new(Arc::clone(&registry))));
    }
    let tracing = !sinks.is_empty();
    if tracing {
        telemetry::install(if sinks.len() == 1 {
            sinks.pop().expect("one sink")
        } else {
            Arc::new(FanoutSink::new(sinks))
        });
    }

    let set = pauli::EncodedSet::from_strings(&parsed.strings);
    let result = Picasso::new(cfg).solve_pauli(&set).unwrap_or_else(|e| {
        eprintln!("solve failed: {e}");
        exit(1);
    });

    if tracing {
        telemetry::uninstall();
    }
    if let (Some(sink), Some(path)) = (&trace_sink, args.trace.as_deref()) {
        std::fs::write(path, sink.to_jsonl()).unwrap_or_else(|e| {
            eprintln!("error writing {path}: {e}");
            exit(1);
        });
        eprintln!("span trace written to {path}");
    }
    picasso::metrics::record_result(&registry, &result);
    if let Some(path) = args.metrics.as_deref() {
        write_metrics_files(&registry, path);
    }
    let summary = SolveSummary::from_registry(&registry);
    let classes = color_classes(&result.colors);

    if args.json {
        let groups: Vec<Vec<String>> = classes
            .iter()
            .map(|c| {
                c.iter()
                    .map(|&v| parsed.strings[v as usize].to_string())
                    .collect()
            })
            .collect();
        let mut doc = serde_json::json!({
            "num_strings": parsed.strings.len(),
            "num_groups": result.num_colors,
            "color_percentage": result.color_percentage(),
            "coloring": cfg.scheme.label(),
            "groups": groups,
        });
        summary.extend_json(&mut doc);
        println!("{}", serde_json::to_string_pretty(&doc).expect("json"));
    } else {
        for (k, class) in classes.iter().enumerate() {
            let members: Vec<String> = class
                .iter()
                .map(|&v| parsed.strings[v as usize].to_string())
                .collect();
            println!("U{k}: {}", members.join(" "));
        }
        eprintln!(
            "{}",
            summary.headline(
                parsed.strings.len(),
                result.num_colors as usize,
                result.color_percentage()
            )
        );
    }

    if args.stats {
        eprintln!(
            "iter |live |palette |L |maxB |est.pairs |cand.pairs |packed |lane% |replica \
             |dedup |hit% |skipw |colms |Vc |Ec |masks |uncolored |bitset |graph"
        );
        for s in &result.iterations {
            eprintln!(
                "{:>4} {:>6} {:>7} {:>3} {:>5} {:>10} {:>10} {:>6} {:>5.1} {:>7.1} {:>5} \
                 {:>5.1} {:>6} {:>6.2} {:>6} {:>8} {:>7.1} {:>6} {:>7} {:>6}",
                s.iteration,
                s.live_vertices,
                s.palette_size,
                s.list_size,
                s.max_bucket,
                s.bucket_pairs_estimate,
                s.candidate_pairs,
                if s.shared_color_filter.is_some() {
                    "y"
                } else {
                    "n"
                },
                100.0 * s.packed_lanes as f64 / s.candidate_pairs.max(1) as f64,
                s.replica_bytes as f64 / 1024.0,
                s.shared_color_filter.map_or("-", SharedColorFilter::label),
                100.0 * s.hit_bits as f64 / s.packed_lanes.max(1) as f64,
                s.skipped_words,
                1e3 * s.color_secs,
                s.conflict_vertices,
                s.conflict_edges,
                s.mask_bytes as f64 / 1024.0,
                s.uncolored_after,
                if s.color_bitset { "y" } else { "n" },
                if s.conflict_masks { "masks" } else { "csr" }
            );
        }
        eprintln!("{}", summary.packing_footer());
        eprintln!("{}", summary.coloring_footer(cfg.scheme.label()));
    }
}
