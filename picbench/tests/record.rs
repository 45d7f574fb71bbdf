//! Short mode: every workload runs once, untraced and traced, and the
//! record it prints must match the metric table in `BENCHMARK.json`.
//! Run with `cargo test --release --manifest-path picbench/Cargo.toml`
//! (a debug build works too, only slower).

use serde_json::Value;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "dense_pauli",
    "molecule_aggressive",
    "sparse_oracle",
    "service_mix",
];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

/// Runs the benchmark once with `--seconds 0` and returns the full
/// record line and the result line.
fn run_short(workload: &str, trace: u8) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_picbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: record and result lines");
    let full = serde_json::from_str(lines[lines.len() - 2]).expect("record line parses");
    let last = serde_json::from_str(lines[lines.len() - 1]).expect("result line parses");
    (full, last)
}

fn check_result(workload: &str, trace: u8, last: &Value, section: &str) {
    let Value::Object(map) = last else {
        panic!("{workload}: the result line is not an object");
    };
    let keys: Vec<&str> = map.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(last["correct"], true, "{workload} trace {trace}: {last:?}");
    assert_eq!(last["failed"], 0u64, "{workload}");
    assert!(last["attempted"].as_u64().unwrap() >= 1, "{workload}");
    let Value::Object(metrics) = &last["metrics"] else {
        panic!("{workload}: metrics is not an object");
    };
    let mut reported: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| (name.clone(), m["unit"].as_str().expect("unit").to_string()))
        .collect();
    let mut expected = declared(section);
    reported.sort();
    expected.sort();
    assert_eq!(reported, expected, "{workload} trace {trace}");
    for (name, m) in metrics {
        let v = m["value"].as_f64().expect("numeric value");
        assert!(v.is_finite(), "{workload} {name} = {v}");
        if section == "end_to_end" {
            assert!(v > 0.0, "{workload} {name} must never be 0, got {v}");
        }
    }
}

#[test]
fn every_workload_reports_the_declared_end_to_end_metrics() {
    for workload in WORKLOADS {
        let (full, last) = run_short(workload, 0);
        check_result(workload, 0, &last, "end_to_end");
        let prov = &full["provenance"];
        for key in [
            "nproc",
            "rayon_threads",
            "git_sha",
            "git_dirty",
            "rustc",
            "profile",
        ] {
            assert!(
                prov[key] != Value::Null,
                "{workload}: provenance lacks {key}"
            );
        }
    }
}

#[test]
fn every_workload_traces_the_declared_layers_and_keeps_its_shape() {
    for workload in WORKLOADS {
        let (_, last) = run_short(workload, 1);
        check_result(workload, 1, &last, "per_layer");
        let m = |name: &str| last["metrics"][name]["value"].as_f64().unwrap();
        // The second-seed check: same engine path, close iteration and
        // colour counts.
        assert_eq!(m("shape.second_seed_match"), 1.0, "{workload}");
        assert!(
            m("trace.layer_coverage") >= 0.9,
            "{workload}: named layers cover {}",
            m("trace.layer_coverage")
        );
    }
}

#[test]
fn workload_list_matches_benchmark_json() {
    let names: Vec<String> = benchmark_json()["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("name").to_string())
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn usage_errors_exit_two_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--workload", "dense_pauli", "--trace", "2"],
        vec!["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_picbench"))
            .args(&args)
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
