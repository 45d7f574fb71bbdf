//! Table V: CPU-only vs accelerated conflict-graph construction.
//!
//! The paper's "GPU assisted" build is replaced by the simulated-device
//! backend, whose kernels run on the rayon pool — so the measured speedup
//! reflects this machine's core count rather than an A100 against one
//! EPYC core (geo-means of ~60× / ~16× in the paper). The *structure* —
//! conflict build dominating CPU-only runtime, build speedup exceeding
//! total speedup — is the reproduced claim.

use crate::args::HarnessConfig;
use crate::datasets::small_instances;
use crate::report::{fnum, geo_mean, Table};
use picasso::{ConflictBackend, Picasso, PicassoConfig};

/// Runs the CPU-vs-device comparison.
pub fn run(cfg: &HarnessConfig) -> Table {
    let mut table = Table::new(
        "Table V: CPU-only vs device-assisted (P = 12.5%, alpha = 2)",
        &[
            "Problem",
            "|V|",
            "CPU-Build(s)",
            "CPU-Total(s)",
            "BuildSpeedup",
            "TotalSpeedup",
            "Build%ofTotal",
        ],
    );
    let mut build_speedups = Vec::new();
    let mut total_speedups = Vec::new();
    for inst in small_instances(cfg, 1) {
        let seq_cfg = PicassoConfig::normal(1).with_backend(ConflictBackend::Sequential);
        let dev_cfg = PicassoConfig::normal(1).with_backend(ConflictBackend::Device {
            capacity: cfg.device_capacity,
        });
        let seq = Picasso::new(seq_cfg)
            .solve_pauli(&inst.set)
            .expect("cpu solve");
        let dev = Picasso::new(dev_cfg)
            .solve_pauli(&inst.set)
            .expect("device solve");
        assert_eq!(
            seq.colors, dev.colors,
            "device build must reproduce the CPU coloring exactly"
        );
        let build_speedup = seq.conflict_secs() / dev.conflict_secs().max(1e-9);
        let total_speedup = seq.total_secs / dev.total_secs.max(1e-9);
        build_speedups.push(build_speedup);
        total_speedups.push(total_speedup);
        table.push_row(vec![
            inst.spec.name.to_string(),
            inst.num_vertices().to_string(),
            fnum(seq.conflict_secs(), 3),
            fnum(seq.total_secs, 3),
            fnum(build_speedup, 2),
            fnum(total_speedup, 2),
            fnum(100.0 * seq.conflict_secs() / seq.total_secs.max(1e-9), 1),
        ]);
    }
    table.push_row(vec![
        "Geo. Mean".into(),
        String::new(),
        String::new(),
        String::new(),
        fnum(geo_mean(&build_speedups), 2),
        fnum(geo_mean(&total_speedups), 2),
        String::new(),
    ]);
    table.write_csv(&cfg.out_dir.join("table5.csv")).ok();
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_dominates_cpu_runtime() {
        let cfg = HarnessConfig {
            uniform_scale: Some(0.01),
            seeds: 1,
            out_dir: std::env::temp_dir().join("picasso_t5_test"),
            ..HarnessConfig::default()
        };
        std::fs::create_dir_all(&cfg.out_dir).ok();
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 8); // 7 instances + geo mean
                                     // On the largest small instance the conflict build should be the
                                     // bulk of sequential runtime (paper: >98%).
        let last_inst = &t.rows[6];
        let build_pct: f64 = last_inst[6].parse().unwrap();
        assert!(
            build_pct > 50.0,
            "conflict build only {build_pct}% of total"
        );
    }
}
