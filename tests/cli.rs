//! Black-box tests of the `picasso-cli` binary.

use std::io::Write;
use std::process::{Command, Stdio};

const CLI: &str = env!("CARGO_BIN_EXE_picasso-cli");

fn write_input(name: &str, text: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn groups_a_small_file() {
    let path = write_input("cli_small.txt", "IIII\nXYXY\nYYXY\nXXXY\nYXXY\n");
    let out = Command::new(CLI).arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Every input string appears exactly once across the groups.
    for s in ["IIII", "XYXY", "YYXY", "XXXY", "YXXY"] {
        assert_eq!(stdout.matches(s).count(), 1, "{s} in output:\n{stdout}");
    }
    assert!(stdout.lines().all(|l| l.starts_with('U')));
}

#[test]
fn json_output_is_well_formed() {
    let path = write_input("cli_json.txt", "XX\nYY\nZZ\nXY\nYX\n");
    let out = Command::new(CLI).arg(&path).arg("--json").output().unwrap();
    assert!(out.status.success());
    let doc: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    assert_eq!(doc["num_strings"], 5);
    let groups = doc["groups"].as_array().unwrap();
    let total: usize = groups.iter().map(|g| g.as_array().unwrap().len()).sum();
    assert_eq!(total, 5);
    assert_eq!(doc["num_groups"].as_u64().unwrap() as usize, groups.len());
    // Enumeration-work telemetry is part of the JSON contract.
    assert!(doc["total_candidate_pairs"].as_u64().unwrap() > 0);
    // Packed-pipeline telemetry too: pack_builds is always present (it
    // may be 0 on tiny inputs where packing doesn't amortize).
    assert!(doc["pack_builds"].as_u64().is_some());
    let util = doc["packed_lane_utilization"].as_f64().unwrap();
    assert!((0.0..=1.0).contains(&util));
}

#[test]
fn stats_table_surfaces_packed_lane_columns() {
    // Large enough that the Normal configuration buckets *and* packs:
    // 700 distinct 8-qubit strings (base-4 digits of the counter).
    let strings: String = (0..700usize)
        .map(|i| {
            let ops = [b'I', b'X', b'Y', b'Z'];
            let mut s: Vec<u8> = (0..8).map(|q| ops[(i >> (2 * q)) & 3]).collect();
            s.push(b'\n');
            String::from_utf8(s).unwrap()
        })
        .collect();
    let path = write_input("cli_stats_packed.txt", &strings);
    let out = Command::new(CLI)
        .arg(&path)
        .args(["--json", "--stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("|packed |lane%"), "header in:\n{stderr}");
    assert!(
        stderr.contains("|hit% |skipw |colms"),
        "mask-scan columns in:\n{stderr}"
    );
    assert!(stderr.contains("pack builds:"), "summary in:\n{stderr}");
    assert!(
        stderr.contains("hit density") && stderr.contains("mask words skipped whole"),
        "mask-scan summary in:\n{stderr}"
    );
    // Every iteration row says whether it packed (y/n column).
    let rows: Vec<&str> = stderr
        .lines()
        .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
        .collect();
    assert!(!rows.is_empty(), "stats rows in:\n{stderr}");
    for row in &rows {
        let packed = row.split_whitespace().nth(7);
        assert!(
            matches!(packed, Some("y") | Some("n")),
            "packed column in row: {row}"
        );
        // The replica's size and how its shared-color filter ran.
        let dedup = row.split_whitespace().nth(10);
        let want: &[&str] = if packed == Some("y") {
            &["list", "none"]
        } else {
            &["-"]
        };
        assert!(
            dedup.is_some_and(|d| want.contains(&d)),
            "dedup column in row: {row}"
        );
    }
    assert!(
        stderr.contains("|lane% |replica |dedup |hit%"),
        "replica columns in:\n{stderr}"
    );
    assert!(
        stderr.contains("largest replica") && !stderr.contains("palette bitmasks"),
        "replica footer in:\n{stderr}"
    );
    let doc: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    // The largest replica rides along in the JSON roll-up.
    assert!(doc["max_replica_bytes"].as_u64().unwrap() > 0);
    // 700 distinct strings at Normal parameters pack from iteration one.
    assert!(doc["pack_builds"].as_u64().unwrap() >= 1);
    assert!(doc["packed_lane_utilization"].as_f64().unwrap() > 0.0);
    // Mask-scan telemetry rides along: the packed build visits every lane
    // through u64 words, so scanned lanes bound hit bits from above and
    // the hit density lands in [0, 1].
    let hit_bits = doc["total_hit_bits"].as_u64().unwrap();
    assert!(hit_bits > 0, "packed build reports mask hits");
    assert!(doc["total_skipped_words"].as_u64().is_some());
    let density = doc["hit_density"].as_f64().unwrap();
    assert!((0.0..=1.0).contains(&density), "hit density {density}");
    assert_eq!(doc["safety_valve_vertices"].as_u64(), Some(0));
}

#[test]
fn stats_table_surfaces_the_mask_bytes_column() {
    // The same 700 packing strings: every packed iteration of the
    // default greedy runs the graph-form rule, so each prints the bytes
    // of its hit-mask form (`masks`, KiB, just after `Ec`), the footer
    // the largest, and the JSON roll-up `max_mask_bytes`.
    let strings: String = (0..700usize)
        .map(|i| {
            let ops = [b'I', b'X', b'Y', b'Z'];
            let mut s: Vec<u8> = (0..8).map(|q| ops[(i >> (2 * q)) & 3]).collect();
            s.push(b'\n');
            String::from_utf8(s).unwrap()
        })
        .collect();
    let path = write_input("cli_stats_masks.txt", &strings);
    let out = Command::new(CLI)
        .arg(&path)
        .args(["--json", "--stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("|Ec |masks |uncolored"),
        "masks column in:\n{stderr}"
    );
    let doc: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    let max_mask_bytes = doc["max_mask_bytes"].as_u64().unwrap();
    assert!(max_mask_bytes > 0, "the rule ran");
    let largest = format!("{:.1}", max_mask_bytes as f64 / 1024.0);
    let mut printed = Vec::new();
    for row in stderr
        .lines()
        .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
    {
        let cols: Vec<&str> = row.split_whitespace().collect();
        let kib: f64 = cols[16].parse().expect("masks column is KiB");
        // The first iteration packs all 700 vertices and runs the rule.
        if cols[0] == "1" {
            assert!(cols[7] == "y" && kib > 0.0, "masks column in row: {row}");
        }
        printed.push(cols[16].to_string());
    }
    assert!(
        printed.contains(&largest),
        "{largest} KiB among {printed:?}"
    );
    let footer = format!("(largest masks {largest} KiB)");
    assert!(stderr.contains(&footer), "{footer} in:\n{stderr}");
}

#[test]
fn coloring_flag_selects_scheme_and_surfaces_telemetry() {
    // Enough distinct strings that every iteration actually has a
    // conflict graph to color (base-4 digits of the counter, 8 qubits).
    let strings: String = (0..300usize)
        .map(|i| {
            let ops = [b'I', b'X', b'Y', b'Z'];
            let mut s: Vec<u8> = (0..8).map(|q| ops[(i >> (2 * q)) & 3]).collect();
            s.push(b'\n');
            String::from_utf8(s).unwrap()
        })
        .collect();
    let path = write_input("cli_coloring.txt", &strings);
    let run = |scheme: &str| {
        let out = Command::new(CLI)
            .arg(&path)
            .args(["--seed", "9", "--coloring", scheme, "--json", "--stats"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            serde_json::from_slice(&out.stdout).expect("valid json"),
            String::from_utf8(out.stderr).unwrap(),
        )
    };

    let (doc, stderr) = run("lf");
    // Stats table carries the coloring-ms column; the footer names the
    // scheme.
    assert!(stderr.contains("|colms |Vc"), "header in:\n{stderr}");
    assert!(stderr.contains("coloring [lf]:"), "footer in:\n{stderr}");
    assert!(stderr.contains("safety valve"), "footer in:\n{stderr}");
    let rows: Vec<&str> = stderr
        .lines()
        .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
        .collect();
    assert!(!rows.is_empty(), "stats rows in:\n{stderr}");
    // JSON contract: scheme label plus the coloring telemetry.
    assert_eq!(doc["coloring"], "lf");
    assert!(doc["color_secs"].as_f64().unwrap() >= 0.0);
    assert_eq!(doc["safety_valve_vertices"].as_u64(), Some(0));

    // Static orderings are deterministic end to end; greedy is the
    // default and names itself.
    let (lf_again, _) = run("lf");
    assert_eq!(doc["groups"], lf_again["groups"]);
    let (greedy, greedy_stderr) = run("greedy");
    assert_eq!(greedy["coloring"], "greedy");
    assert_eq!(greedy["num_strings"], doc["num_strings"]);
    assert!(greedy_stderr.contains("coloring [greedy]:"));

    // The removed parallel and autotuned schemes fail with the label
    // parser's error, which lists the schemes that remain.
    for gone in ["jp", "spec", "auto"] {
        let out = Command::new(CLI)
            .arg(&path)
            .args(["--coloring", gone])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--coloring {gone}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown coloring scheme '{gone}'"))
                && stderr.contains("expected greedy, natural, random, lf, sl, dlf, or id"),
            "stderr: {stderr}"
        );
    }

    // Unknown schemes are rejected loudly.
    let bad = Command::new(CLI)
        .arg(&path)
        .args(["--coloring", "rainbow"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("unknown coloring scheme"),
        "stderr: {}",
        String::from_utf8_lossy(&bad.stderr)
    );
}

#[test]
fn stats_footer_counts_palette_bitset_iterations() {
    // 300 distinct 8-qubit strings: the greedy's live-list form is one
    // counted rule of each iteration's P and L, shown per row and summed
    // in the coloring footer.
    let strings: String = (0..300usize)
        .map(|i| {
            let ops = [b'I', b'X', b'Y', b'Z'];
            let mut s: Vec<u8> = (0..8).map(|q| ops[(i >> (2 * q)) & 3]).collect();
            s.push(b'\n');
            String::from_utf8(s).unwrap()
        })
        .collect();
    let path = write_input("cli_bitset_footer.txt", &strings);
    let run = |extra: &[&str]| {
        let out = Command::new(CLI)
            .arg(&path)
            .args(["--json", "--stats"])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stderr).unwrap()
    };

    let stderr = run(&[]);
    assert!(
        stderr.contains("|uncolored |bitset"),
        "header in:\n{stderr}"
    );
    let rows: Vec<Vec<&str>> = stderr
        .lines()
        .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert!(!rows.is_empty(), "stats rows in:\n{stderr}");
    let mut bitset_rows = 0;
    for row in &rows {
        let (p, l): (usize, usize) = (row[2].parse().unwrap(), row[3].parse().unwrap());
        let want = if 2 * p.div_ceil(64) <= l { "y" } else { "n" };
        // The bitset column sits just before the last one, `graph`.
        assert_eq!(row[row.len() - 2], want, "bitset column of row {row:?}");
        bitset_rows += usize::from(want == "y");
    }
    // Early iterations (P = 38, L = 5) take bitsets; the last one has a
    // single vertex with L = 1, below the rule.
    assert!(
        bitset_rows > 0 && bitset_rows < rows.len(),
        "both live-list forms in:\n{stderr}"
    );
    let footer = format!(
        "palette bitsets in {bitset_rows} of {} iterations",
        rows.len()
    );
    assert!(stderr.contains(&footer), "{footer} in:\n{stderr}");

    // A static scheme never runs the greedy, so it keeps no bitsets.
    let stderr = run(&["--coloring", "lf"]);
    assert!(
        stderr.contains("coloring [lf]:") && stderr.contains("palette bitsets in 0 of"),
        "footer in:\n{stderr}"
    );
}

#[test]
fn stats_graph_column_and_footer_show_the_hit_mask_form() {
    // 300 distinct 8-qubit strings, Aggressive: the all-pairs engine
    // packs, and half the pairs anticommute, so the CSR path outweighs
    // the hit masks on the large iterations. The `graph` column is last
    // and the Line-7 footer counts its `masks` rows; a static scheme and
    // the all-pairs reference keep the CSR. All print the same groups.
    let strings: String = (0..300usize)
        .map(|i| {
            let ops = [b'I', b'X', b'Y', b'Z'];
            let mut s: Vec<u8> = (0..8).map(|q| ops[(i >> (2 * q)) & 3]).collect();
            s.push(b'\n');
            String::from_utf8(s).unwrap()
        })
        .collect();
    let path = write_input("cli_graph_column.txt", &strings);
    let run = |extra: &[&str]| {
        let out = Command::new(CLI)
            .arg(&path)
            .args(["--aggressive", "--json", "--stats"])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        let graphs: Vec<String> = stderr
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .map(|l| l.split_whitespace().last().unwrap().to_string())
            .collect();
        let doc: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
        (doc["groups"].clone(), stderr, graphs)
    };

    let (groups, stderr, graphs) = run(&[]);
    assert!(stderr.contains("|bitset |graph"), "header in:\n{stderr}");
    assert!(!graphs.is_empty(), "stats rows in:\n{stderr}");
    assert!(
        graphs.iter().all(|g| g == "masks" || g == "csr"),
        "graph column in:\n{stderr}"
    );
    assert_eq!(graphs[0], "masks", "the first iteration keeps masks");
    let masks = graphs.iter().filter(|g| *g == "masks").count();
    let footer = format!("hit-mask graphs in {masks} of {} iterations", graphs.len());
    assert!(stderr.contains(&footer), "{footer} in:\n{stderr}");

    for extra in [&["--coloring", "lf"][..], &["--backend", "allpairs"]] {
        let (other, stderr, graphs) = run(extra);
        assert!(graphs.iter().all(|g| g == "csr"), "{extra:?}:\n{stderr}");
        assert!(
            stderr.contains(&format!("hit-mask graphs in 0 of {}", graphs.len())),
            "{extra:?} footer in:\n{stderr}"
        );
        if extra[0] == "--backend" {
            assert_eq!(other, groups, "all-pairs reference groups");
        }
    }
}

#[test]
fn allpairs_reference_backend_matches_default() {
    let path = write_input(
        "cli_allpairs.txt",
        "XXXX\nYYYY\nZZZZ\nXYZI\nIZYX\nXZXZ\nYZYZ\nZXZX\n",
    );
    let run = |backend: &str| {
        let out = Command::new(CLI)
            .arg(&path)
            .args(["--seed", "3", "--backend", backend, "--json"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
        doc
    };
    let reference = run("allpairs");
    let bucketed = run("par");
    // Same grouping either way; the engines only differ in enumeration.
    assert_eq!(reference["groups"], bucketed["groups"]);
    assert!(
        bucketed["total_candidate_pairs"].as_u64().unwrap()
            <= reference["total_candidate_pairs"].as_u64().unwrap()
    );
}

#[test]
fn device_backend_prints_the_same_groups_as_seq() {
    let path = write_input(
        "cli_device.txt",
        "XXXX\nYYYY\nZZZZ\nXYZI\nIZYX\nXZXZ\nYZYZ\nZXZX\n",
    );
    let run = |backend: &str| {
        let out = Command::new(CLI)
            .arg(&path)
            .args(["--seed", "3", "--backend", backend])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let seq = run("seq");
    assert!(seq.starts_with("U0:"), "{seq}");
    assert_eq!(run("device:16"), seq);
}

#[test]
fn a_multi_backend_is_an_unknown_label() {
    let path = write_input("cli_multi.txt", "XZ\nZX\nYY\n");
    let out = Command::new(CLI)
        .arg(&path)
        .args(["--backend", "multi:2:16"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr
            .contains("unknown backend \"multi:2:16\" (want seq | par | allpairs | device:<MiB>)"),
        "{stderr}"
    );
    assert!(stderr.contains("usage: picasso-cli"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn out_of_range_device_capacities_are_usage_errors() {
    let path = write_input("cli_bad_device.txt", "XZ\nZX\nYY\n");
    // 2^44 MiB used to wrap to a 0-byte device and report an OOM.
    for spec in ["device:17592186044416", "device:0"] {
        let out = Command::new(CLI)
            .arg(&path)
            .args(["--backend", spec])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{spec}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: picasso-cli"), "{spec}: {stderr}");
        assert!(stderr.contains("out of [1, 2^20]"), "{spec}: {stderr}");
        assert!(out.stdout.is_empty(), "{spec}");
    }
}

#[test]
fn reads_stdin_with_dash() {
    let mut child = Command::new(CLI)
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"XZ\nZX\nYY\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("U0:"));
}

#[test]
fn rejects_malformed_input() {
    let path = write_input("cli_bad.txt", "XX\nXB\n");
    let out = Command::new(CLI).arg(&path).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
}

#[test]
fn deterministic_given_seed() {
    let path = write_input("cli_seed.txt", "XXXX\nYYYY\nZZZZ\nXYZI\nIZYX\nXZXZ\n");
    let run = || {
        let out = Command::new(CLI)
            .arg(&path)
            .args(["--seed", "7"])
            .output()
            .unwrap();
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn serve_once_smoke_self_checks() {
    let out = Command::new(CLI)
        .args(["serve", "--once", "--workers", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "one response per smoke request");
    let statuses: Vec<String> = lines
        .iter()
        .map(|l| {
            let doc: serde_json::Value = serde_json::from_str(l).expect("response json");
            doc["status"].as_str().unwrap().to_string()
        })
        .collect();
    assert_eq!(statuses, vec!["solved", "solved", "solved", "rejected"]);
    // The duplicate request replays bit-identically from the cache
    // (only the echoed id differs).
    assert_eq!(
        lines[0].replace("smoke-pauli", "X"),
        lines[2].replace("smoke-pauli-again", "X")
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1 cache hits"), "{stderr}");
    assert!(stderr.contains("1 rejected"), "{stderr}");
}

#[test]
fn serve_drains_a_jsonl_request_file_deterministically() {
    let reqs = concat!(
        "# smoke requests\n",
        r#"{"id": "a", "workload": {"type": "synthetic_pauli", "n": 80, "qubits": 8, "seed": 4}}"#,
        "\n",
        r#"{"id": "b", "workload": {"type": "synthetic_graph", "n": 60, "density": 0.3, "seed": 2}, "config": {"alpha": 1.5}}"#,
        "\n",
        r#"{"id": "a", "workload": {"type": "synthetic_pauli", "n": 80, "qubits": 8, "seed": 4}}"#,
        "\n",
    );
    let path = write_input("cli_serve_reqs.jsonl", reqs);
    let run = || {
        let out = Command::new(CLI)
            .arg("serve")
            .arg(&path)
            .args(["--workers", "2"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let first = run();
    let lines: Vec<&str> = first.lines().collect();
    assert_eq!(lines.len(), 3);
    // Responses come back in submission order; the repeated request is a
    // bit-identical cache replay.
    let ids: Vec<String> = lines
        .iter()
        .map(|l| {
            let doc: serde_json::Value = serde_json::from_str(l).unwrap();
            assert_eq!(doc["status"], "solved", "{l}");
            doc["id"].as_str().unwrap().to_string()
        })
        .collect();
    assert_eq!(ids, vec!["a", "b", "a"]);
    assert_eq!(lines[0], lines[2], "cache replay is bit-identical");
    // The whole run is deterministic across processes.
    assert_eq!(first, run());
}

#[test]
fn serve_turns_malformed_lines_into_per_line_responses() {
    // A bad line no longer poisons the batch: the good requests solve,
    // each malformed line gets its own terminal "malformed" response
    // carrying the 1-based line number, and the exit code stays 0.
    let reqs = concat!(
        r#"{"id": "good-1", "workload": {"type": "synthetic_pauli", "n": 40, "qubits": 8, "seed": 1}}"#,
        "\n",
        "this is not json\n",
        r#"{"id": 5}"#,
        "\n",
        r#"{"id": "bad-workload", "workload": {"type": "warp-drive"}}"#,
        "\n",
        r#"{"id": "good-2", "workload": {"type": "synthetic_graph", "n": 50, "density": 0.3, "seed": 2}}"#,
        "\n",
    );
    let path = write_input("cli_serve_bad.jsonl", reqs);
    let out = Command::new(CLI).arg("serve").arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let docs: Vec<serde_json::Value> = stdout
        .lines()
        .map(|l| serde_json::from_str(l).expect("response json"))
        .collect();
    assert_eq!(docs.len(), 5, "one terminal response per input line");
    // Solved responses first (submission order), then the rejected lines.
    assert_eq!(docs[0]["id"], "good-1");
    assert_eq!(docs[0]["status"], "solved");
    assert_eq!(docs[1]["id"], "good-2");
    assert_eq!(docs[1]["status"], "solved");
    let malformed: Vec<(&str, u64)> = docs[2..]
        .iter()
        .map(|d| {
            assert_eq!(d["status"], "malformed");
            assert!(!d["error"].as_str().unwrap().is_empty());
            (d["id"].as_str().unwrap(), d["line"].as_u64().unwrap())
        })
        .collect();
    assert_eq!(
        malformed,
        vec![("line-2", 2), ("line-3", 3), ("bad-workload", 4)],
        "line numbers are 1-based; a salvageable id is echoed back"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("3 malformed"), "{stderr}");
}

#[test]
fn serve_under_a_fault_plan_stays_terminal_and_reports_the_chaos() {
    // Every worker-site fault fires (panics + slow jobs at rate 1.0 via
    // --fault-rate also arms device sites, but these CPU jobs never
    // reach them): with the default attempt budget the jobs exhaust
    // their retries into quarantine, yet the process exits 0 and every
    // request still gets exactly one terminal response.
    let reqs = concat!(
        r#"{"id": "doomed-1", "workload": {"type": "synthetic_pauli", "n": 30, "qubits": 8, "seed": 1}}"#,
        "\n",
        r#"{"id": "doomed-2", "workload": {"type": "synthetic_pauli", "n": 30, "qubits": 8, "seed": 2}}"#,
        "\n",
    );
    let path = write_input("cli_serve_faulted.jsonl", reqs);
    let out = Command::new(CLI)
        .arg("serve")
        .arg(&path)
        .args([
            "--fault-rate",
            "1.0",
            "--fault-seed",
            "7",
            "--max-attempts",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "a fully-faulted batch must not crash the daemon; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let docs: Vec<serde_json::Value> = stdout
        .lines()
        .map(|l| serde_json::from_str(l).expect("response json"))
        .collect();
    assert_eq!(docs.len(), 2, "one terminal response per request");
    for d in &docs {
        assert_eq!(d["status"], "failed", "{d:?}");
        assert!(
            d["error"].as_str().unwrap().contains("quarantined"),
            "{d:?}"
        );
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fault tolerance:"), "{stderr}");
    assert!(stderr.contains("2 quarantined"), "{stderr}");
    assert!(stderr.contains("2 retries"), "{stderr}");
}

#[test]
fn metrics_flag_writes_validated_exposition_files() {
    let input = write_input("cli_metrics_in.txt", "XXXX\nYYYY\nZZZZ\nXYZI\nIZYX\nXZXZ\n");
    let metrics = std::env::temp_dir().join("cli_metrics_out.json");
    let out = Command::new(CLI)
        .arg(&input)
        .args(["--metrics", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).expect("metrics json");
    telemetry::validate_metrics_json(&doc).expect("schema-valid metrics document");
    assert_eq!(doc["schema_version"], telemetry::METRICS_SCHEMA_VERSION);
    assert_eq!(doc["counters"]["solver_solves_total"], 1);
    // The solve's phase spans aggregate into the same document.
    assert!(
        doc["histograms"]["span_conflict_build_ns"]["count"]
            .as_u64()
            .unwrap()
            > 0
    );
    // Heap gauges are live (the CLI installs the tracking allocator).
    assert!(doc["gauges"]["heap_peak_bytes"].as_u64().unwrap() > 0);
    let prom = std::fs::read_to_string(format!("{}.prom", metrics.display())).unwrap();
    assert!(
        prom.contains("# TYPE solver_solves_total counter"),
        "{prom}"
    );
    assert!(prom.contains("span_conflict_build_ns_bucket"), "{prom}");
}

#[test]
fn trace_flag_and_replay_subcommand_round_trip() {
    let input = write_input("cli_trace_in.txt", "XXXX\nYYYY\nZZZZ\nXYZI\nIZYX\nXZXZ\n");
    let trace = std::env::temp_dir().join("cli_trace_out.jsonl");
    let out = Command::new(CLI)
        .arg(&input)
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.lines().count() > 0, "trace has span lines");
    assert!(text.contains("\"span\":\"assign\""), "{text}");

    let replay = Command::new(CLI)
        .args(["trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        replay.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&replay.stderr)
    );
    let table = String::from_utf8(replay.stdout).unwrap();
    assert!(table.contains("phase"), "header in:\n{table}");
    assert!(table.contains("assign"), "phase rows in:\n{table}");
    assert!(table.contains("p99"), "quantile columns in:\n{table}");

    // A corrupt log is rejected with the offending line number.
    let bad = write_input("cli_trace_bad.jsonl", "not json\n");
    let rejected = Command::new(CLI)
        .args(["trace", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!rejected.status.success());
    assert!(String::from_utf8_lossy(&rejected.stderr).contains("line 1"));
}

#[test]
fn serve_once_writes_and_self_checks_the_metrics_exposition() {
    let metrics = std::env::temp_dir().join("cli_serve_metrics.json");
    let trace = std::env::temp_dir().join("cli_serve_trace.jsonl");
    let out = Command::new(CLI)
        .args(["serve", "--once", "--workers", "2"])
        .args(["--metrics", metrics.to_str().unwrap()])
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).expect("metrics json");
    telemetry::validate_metrics_json(&doc).expect("schema-valid metrics document");
    // Admission-funnel counters are monotone along the pipeline, and the
    // request-path latency histograms are populated.
    let counter = |name: &str| doc["counters"][name].as_u64().unwrap();
    assert_eq!(counter("service_submitted_total"), 4);
    assert!(counter("service_admitted_total") >= counter("service_solved_total"));
    assert_eq!(counter("service_solved_total"), 2);
    assert_eq!(counter("solver_solves_total"), 2);
    assert!(
        doc["histograms"]["service_total_ns"]["count"]
            .as_u64()
            .unwrap()
            >= 3
    );
    assert!(
        doc["histograms"]["service_total_ns"]["p99"]
            .as_u64()
            .unwrap()
            > 0
    );
    // The worker-pool spans land in the trace file.
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.contains("\"span\":\"conflict_build\""), "{text}");
}

#[test]
fn custom_parameters_are_accepted() {
    let path = write_input("cli_params.txt", "XX\nYY\nZZ\nXY\nYX\nZI\nIZ\nXZ\n");
    let out = Command::new(CLI)
        .arg(&path)
        .args(["--palette", "50", "--alpha", "3", "--backend", "seq"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
