//! Fig. 2: conflict-edge fraction vs instance size, against the device
//! capacity line.
//!
//! All 18 instances are generated at one *uniform* scale so the x-axis
//! (|V|) is monotone like the paper's. For each, Picasso Normal runs on
//! the simulated device; we report the maximum conflicting-edge
//! percentage `max_ℓ |Ec| / |E| · 100` and the largest percentage the
//! device could have held (the dashed A100 line in the paper). Instances
//! whose conflict edges outgrow the device report OOM — the paper's
//! largest instance does exactly that.

use crate::args::HarnessConfig;
use crate::datasets::Instance;
use crate::report::{fnum, Table};
use picasso::{ConflictBackend, Picasso, PicassoConfig, SolveError};
use qchem::TABLE2;

/// The largest conflict-edge count the device can hold for an instance:
/// capacity minus inputs and counters, as u32 COO slots, two slots per
/// edge. This is the exact threshold at which the pair kernel overflows
/// its allocation (Algorithm 3 line 1) — the paper's dashed A100 line.
/// Below it but above half of it, the CSR no longer fits on-device and
/// assembly falls back to the host (line 8), without failing.
pub fn device_edge_capacity(
    capacity_bytes: usize,
    n: usize,
    num_qubits: usize,
    list_size: usize,
) -> usize {
    let input = n * picasso::conflict::device_input_bytes_per_vertex(num_qubits, list_size);
    let counters = n * 4;
    let remaining = capacity_bytes.saturating_sub(input + counters);
    let slots = remaining / std::mem::size_of::<u32>();
    slots / 2
}

/// Runs the scaling study.
pub fn run(cfg: &HarnessConfig) -> Table {
    // One uniform scale for a monotone size axis.
    let scale = cfg.uniform_scale.unwrap_or(1.0 / 64.0);
    let uniform = HarnessConfig {
        uniform_scale: Some(scale),
        ..cfg.clone()
    };
    let mut table = Table::new(
        format!(
            "Fig. 2: max conflicting edges vs |V| (uniform scale {:.5}, device {} MiB)",
            scale,
            cfg.device_capacity / (1024 * 1024)
        ),
        &[
            "Molecule",
            "|V|",
            "|E'|",
            "MaxEc",
            "MaxEc%",
            "DeviceLine%",
            "Status",
        ],
    );
    for spec in &TABLE2 {
        let inst = Instance::generate(spec, &uniform, 1);
        let n = inst.num_vertices();
        let counts = inst.edge_counts();
        let pic_cfg = PicassoConfig::normal(1).with_backend(ConflictBackend::MultiDevice {
            devices: 1,
            capacity_each: cfg.device_capacity,
        });
        let list_size = pic_cfg.list_size(n) as usize;
        let cap_edges =
            device_edge_capacity(cfg.device_capacity, n, inst.set.num_qubits(), list_size);
        let line_pct = 100.0 * cap_edges as f64 / counts.complement.max(1) as f64;
        match Picasso::new(pic_cfg).solve_pauli(&inst.set) {
            Ok(result) => {
                let max_ec = result.max_conflict_edges();
                table.push_row(vec![
                    spec.name.to_string(),
                    n.to_string(),
                    counts.complement.to_string(),
                    max_ec.to_string(),
                    fnum(100.0 * max_ec as f64 / counts.complement.max(1) as f64, 3),
                    fnum(line_pct, 3),
                    "ok".into(),
                ]);
            }
            // A fleet of one is never a zero-device fleet, and no deadline
            // is armed here.
            Err(SolveError::NoDevices | SolveError::DeadlineExceeded { .. }) => {
                unreachable!("single-device backend, no deadline")
            }
            Err(SolveError::DeviceOom(_)) => {
                // The paper's remedy for the large tier: keep P = 12.5%
                // but drop α to 1, shrinking the conflict graph to fit.
                let retry_cfg = PicassoConfig::normal(1).with_alpha(1.0).with_backend(
                    ConflictBackend::MultiDevice {
                        devices: 1,
                        capacity_each: cfg.device_capacity,
                    },
                );
                let status = match Picasso::new(retry_cfg).solve_pauli(&inst.set) {
                    Ok(r) => {
                        let max_ec = r.max_conflict_edges();
                        table.push_row(vec![
                            spec.name.to_string(),
                            n.to_string(),
                            counts.complement.to_string(),
                            max_ec.to_string(),
                            fnum(100.0 * max_ec as f64 / counts.complement.max(1) as f64, 3),
                            fnum(line_pct, 3),
                            "OOM@a2, ok@a1".into(),
                        ]);
                        continue;
                    }
                    Err(SolveError::DeviceOom(_)) => "OOM@a2, OOM@a1",
                    Err(SolveError::NoDevices | SolveError::DeadlineExceeded { .. }) => {
                        unreachable!("single-device backend, no deadline")
                    }
                };
                table.push_row(vec![
                    spec.name.to_string(),
                    n.to_string(),
                    counts.complement.to_string(),
                    "-".into(),
                    "-".into(),
                    fnum(line_pct, 3),
                    status.into(),
                ]);
            }
        }
    }
    table.write_csv(&cfg.out_dir.join("fig2.csv")).ok();
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_line_decreases_with_vertices() {
        // Quadratic edges vs linear capacity: the supported fraction must
        // fall as |V| grows — the essence of Fig. 2.
        let cap = 32 * 1024 * 1024;
        let small = device_edge_capacity(cap, 1_000, 20, 10) as f64 / (1_000.0 * 999.0 / 4.0);
        let large = device_edge_capacity(cap, 30_000, 20, 10) as f64 / (30_000.0 * 29_999.0 / 4.0);
        assert!(large < small);
    }

    #[test]
    fn tiny_run_reports_all_instances() {
        let cfg = HarnessConfig {
            uniform_scale: Some(0.002),
            out_dir: std::env::temp_dir().join("picasso_f2_test"),
            ..HarnessConfig::default()
        };
        std::fs::create_dir_all(&cfg.out_dir).ok();
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 18);
        assert!(
            t.rows.iter().all(|r| r[6] == "ok"),
            "tiny instances must fit"
        );
    }
}
