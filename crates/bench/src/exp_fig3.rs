//! Fig. 3: runtime breakdown (assignment / conflict graph / conflict
//! coloring) on the medium tier plus the first large instance, smallest
//! to largest — the paper's stacked-bar data.

use crate::args::HarnessConfig;
use crate::datasets::Instance;
use crate::report::{fnum, Table};
use picasso::{ConflictBackend, Picasso, PicassoConfig};
use qchem::{MoleculeSpec, Tier};

/// Runs the breakdown.
pub fn run(cfg: &HarnessConfig) -> Table {
    let mut specs = MoleculeSpec::tier_members(Tier::Medium);
    // "all the medium and one of the large datasets"
    if let Some(first_large) = MoleculeSpec::tier_members(Tier::Large).first() {
        specs.push(first_large);
    }
    let mut table = Table::new(
        "Fig. 3: runtime breakdown, device backend (P = 12.5%, alpha = 2)",
        &[
            "Problem",
            "|V|",
            "Assign(s)",
            "ConflictGraph(s)",
            "ConflictColoring(s)",
            "Total(s)",
            "Iters",
        ],
    );
    for spec in specs {
        let inst = Instance::generate(spec, cfg, 1);
        let pic_cfg = PicassoConfig::normal(1).with_backend(ConflictBackend::Device {
            capacity: cfg.device_capacity,
        });
        match Picasso::new(pic_cfg).solve_pauli(&inst.set) {
            Ok(r) => table.push_row(vec![
                spec.name.to_string(),
                inst.num_vertices().to_string(),
                fnum(r.assign_secs(), 3),
                fnum(r.conflict_secs(), 3),
                fnum(r.color_secs(), 3),
                fnum(r.total_secs, 3),
                r.iterations.len().to_string(),
            ]),
            Err(e) => table.push_row(vec![
                spec.name.to_string(),
                inst.num_vertices().to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("{e}"),
                "-".into(),
            ]),
        }
    }
    table.write_csv(&cfg.out_dir.join("fig3.csv")).ok();
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_covers_medium_plus_one_large() {
        let cfg = HarnessConfig {
            uniform_scale: Some(0.003),
            out_dir: std::env::temp_dir().join("picasso_f3_test"),
            ..HarnessConfig::default()
        };
        std::fs::create_dir_all(&cfg.out_dir).ok();
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 8); // 7 medium + 1 large
        for row in &t.rows {
            assert_ne!(row[5], "-", "{} failed", row[0]);
        }
    }
}
