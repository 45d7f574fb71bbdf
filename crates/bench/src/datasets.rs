//! Scaled Table II instance generation.

use crate::args::HarnessConfig;
use pauli::oracle::{count_edges, EdgeCounts};
use pauli::EncodedSet;
use qchem::{MoleculeSpec, Tier};

/// A generated, encoded instance ready for the solvers.
pub struct Instance {
    /// The Table II row this instance is derived from.
    pub spec: &'static MoleculeSpec,
    /// Bit-encoded Pauli strings (the only input Picasso needs).
    pub set: EncodedSet,
    /// Scale factor used.
    pub scale: f64,
}

impl Instance {
    /// Generates the instance at the harness's scale for its tier.
    pub fn generate(spec: &'static MoleculeSpec, cfg: &HarnessConfig, seed: u64) -> Instance {
        let scale = cfg.scale_for(spec);
        let strings = spec.generate(scale, seed);
        Instance {
            spec,
            set: EncodedSet::from_strings(&strings),
            scale,
        }
    }

    /// Number of vertices (scaled Pauli terms).
    pub fn num_vertices(&self) -> usize {
        self.set.len()
    }

    /// Exhaustive pair census: anticommuting vs complement edges.
    /// O(n²/2) oracle calls, parallelized.
    pub fn edge_counts(&self) -> EdgeCounts {
        count_edges(&self.set)
    }
}

/// Materializes the complement graph of an instance as an explicit CSR —
/// what every *baseline* must do before it can color (and precisely what
/// Picasso avoids). Parallel over rows.
pub fn materialize_complement(set: &EncodedSet) -> graph::CsrGraph {
    use pauli::AntiCommuteSet as _;
    use rayon::prelude::*;
    let n = set.len();
    let edges: Vec<(u32, u32)> = (0..n)
        .into_par_iter()
        .flat_map_iter(|i| {
            let mut row = Vec::new();
            for j in (i + 1)..n {
                if !set.anticommutes(i, j) {
                    row.push((i as u32, j as u32));
                }
            }
            row
        })
        .collect();
    graph::csr_from_coo_sequential(n, &edges)
}

/// All instances of a tier, generated at the harness scale.
pub fn tier_instances(tier: Tier, cfg: &HarnessConfig, seed: u64) -> Vec<Instance> {
    MoleculeSpec::tier_members(tier)
        .into_iter()
        .map(|spec| Instance::generate(spec, cfg, seed))
        .collect()
}

/// The small-tier instances (the only tier every baseline can handle,
/// exactly as in the paper's Tables III–V).
pub fn small_instances(cfg: &HarnessConfig, seed: u64) -> Vec<Instance> {
    tier_instances(Tier::Small, cfg, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> HarnessConfig {
        HarnessConfig {
            uniform_scale: Some(0.002),
            ..HarnessConfig::default()
        }
    }

    #[test]
    fn generates_with_expected_width() {
        let spec = MoleculeSpec::by_name("H6 3D sto3g").unwrap();
        let inst = Instance::generate(spec, &tiny_cfg(), 1);
        assert_eq!(inst.set.num_qubits(), 12);
        assert_eq!(inst.num_vertices(), spec.target_terms(0.002));
    }

    #[test]
    fn edge_counts_cover_all_pairs() {
        let spec = MoleculeSpec::by_name("H6 3D sto3g").unwrap();
        let inst = Instance::generate(spec, &tiny_cfg(), 1);
        let n = inst.num_vertices() as u64;
        let c = inst.edge_counts();
        assert_eq!(c.anticommuting + c.complement, n * (n - 1) / 2);
    }

    #[test]
    fn small_tier_has_seven_members() {
        let cfg = tiny_cfg();
        let instances = small_instances(&cfg, 1);
        assert_eq!(instances.len(), 7);
    }
}
