//! `picbench` — the Picasso benchmark command.
//!
//! ```text
//! picbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's input from the seed, sets up, measures for
//! about `seconds`, checks every output, and prints the full record
//! (provenance, metrics, details) followed by a last line holding exactly
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the traced per-layer replay
//! instead. Exits 1 when any check failed, 2 on a usage error.

mod hostspeed;
mod provenance;
mod record;
mod replay;
mod service_mix;
mod solver_run;
mod stats;
mod workloads;

use record::Record;
use serde_json::json;
use std::time::Instant;
use workloads::Workload;

/// The live heap is tracked so `peak_heap_mib` can be measured.
#[global_allocator]
static ALLOC: memtrack::TrackingAllocator = memtrack::TrackingAllocator;

/// Offset of the second seed the traced run checks the workload's shape
/// on; the driver's seeds are small, so this one is never a baseline's.
pub const ALT_SEED_OFFSET: u64 = 1_000_000_007;

const USAGE: &str =
    "usage: picbench --workload <dense_pauli|molecule_aggressive|sparse_oracle|service_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} out of [0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("picbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let mut rec = Record::new(args.trace);
    let (w, seed, seconds) = (args.workload, args.seed, args.seconds);
    match (w, args.trace) {
        (Workload::ServiceMix, false) => service_mix::run(seed, seconds, &mut rec),
        (Workload::ServiceMix, true) => service_mix::trace(seed, seconds, &mut rec),
        (_, false) => solver_run::run(w, seed, seconds, &mut rec),
        (_, true) => {
            let input = workloads::generate(w, seed);
            let alt = workloads::generate(w, seed.wrapping_add(ALT_SEED_OFFSET));
            solver_run::trace(&input, &alt, w.config(), seconds, &mut rec);
            // A solver workload sends no service requests.
            for name in service_mix::LAYER_METRICS {
                rec.set(name, 0.0);
            }
        }
    }
    rec.finish();

    let (attempted, failed) = rec.counts();
    eprintln!(
        "picbench {} seed {seed} trace {} — {attempted} checked, {failed} failed, {:.1} s",
        w.name(),
        u8::from(args.trace),
        started.elapsed().as_secs_f64()
    );
    for line in rec.table_lines() {
        eprintln!("{line}");
    }
    let head = json!({
        "workload": w.name(),
        "seed": seed,
        "seconds": seconds,
        "trace": args.trace,
        "wall_s": started.elapsed().as_secs_f64(),
        "provenance": provenance::block(),
    });
    let full = serde_json::to_string(&rec.full(head)).expect("record serializes");
    let envelope = serde_json::to_string(&rec.envelope()).expect("envelope serializes");
    println!("{full}");
    println!("{envelope}");
    if !rec.correct() {
        std::process::exit(1);
    }
}
