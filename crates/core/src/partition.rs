//! The application-level API: unitary partitioning of an operator
//! (Eq. 1 of the paper).
//!
//! Given a Hamiltonian or ansatz as a [`pauli::PauliSum`]
//! `Σ_j p_j P_j`, produce groups `U_i` of mutually anticommuting terms
//! with their coefficients, so that `Σ_i u_i U_i = Σ_j p_j P_j` with
//! `c ≪ n` groups — the measurement-reduction payoff that motivates the
//! whole system.

use crate::config::PicassoConfig;
use crate::solver::{Picasso, PicassoResult, SolveError};
use pauli::{Complex, EncodedSet, PauliString, PauliSum};

/// One output unitary: a set of mutually anticommuting Pauli terms with
/// their original coefficients.
#[derive(Clone, Debug)]
pub struct UnitaryGroup {
    /// The Pauli strings in this group.
    pub strings: Vec<PauliString>,
    /// The coefficient of each string in the input operator.
    pub coefficients: Vec<Complex>,
}

impl UnitaryGroup {
    /// Number of terms merged into this unitary.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when the group is empty (never produced by the solver).
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The 2-norm of the coefficient vector — the group's weight `u_i`
    /// under the normalized-unitary convention of Eq. 2.
    pub fn weight(&self) -> f64 {
        self.coefficients
            .iter()
            .map(|c| c.norm_sqr())
            .sum::<f64>()
            .sqrt()
    }
}

/// A complete unitary partition of an operator.
#[derive(Clone, Debug)]
pub struct UnitaryPartition {
    /// The groups, ordered by their smallest member string.
    pub groups: Vec<UnitaryGroup>,
    /// The underlying coloring run (telemetry, iteration stats).
    pub result: PicassoResult,
}

impl UnitaryPartition {
    /// Number of unitaries `c`.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Total number of input terms `n`.
    pub fn num_terms(&self) -> usize {
        self.groups.iter().map(UnitaryGroup::len).sum()
    }

    /// Compression ratio `n / c` (the paper's small cases achieve 6–10×).
    pub fn compression(&self) -> f64 {
        self.num_terms() as f64 / self.num_groups().max(1) as f64
    }

    /// Verifies the partition: every group is a mutually anticommuting
    /// clique and the groups exactly cover the input terms.
    pub fn verify(&self, original: &PauliSum, tol: f64) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        for (gi, group) in self.groups.iter().enumerate() {
            if group.strings.len() != group.coefficients.len() {
                return Err(format!("group {gi}: string/coefficient length mismatch"));
            }
            for (i, a) in group.strings.iter().enumerate() {
                if !seen.insert(a.clone()) {
                    return Err(format!("string {a} appears in more than one group"));
                }
                for b in group.strings.iter().skip(i + 1) {
                    if !a.anticommutes_naive(b) {
                        return Err(format!("group {gi}: {a} and {b} do not anticommute"));
                    }
                }
            }
        }
        let expected: usize = original.iter().filter(|(_, c)| !c.is_zero(tol)).count();
        if seen.len() != expected {
            return Err(format!(
                "partition covers {} strings but the operator has {expected}",
                seen.len()
            ));
        }
        Ok(())
    }
}

/// Partitions an operator's Pauli terms into anticommuting groups using
/// Picasso. Terms with coefficients below `tol` are dropped first (they
/// would otherwise waste colors).
pub fn partition_operator(
    operator: &PauliSum,
    config: PicassoConfig,
    tol: f64,
) -> Result<UnitaryPartition, SolveError> {
    // Deterministic term order: sorted strings.
    let strings = operator.strings_sorted(tol);
    let coeffs: Vec<Complex> = {
        let map: std::collections::HashMap<&PauliString, Complex> =
            operator.iter().map(|(s, c)| (s, *c)).collect();
        strings.iter().map(|s| map[s]).collect()
    };
    let set = EncodedSet::from_strings(&strings);
    let result = Picasso::new(config).solve_pauli(&set)?;

    let mut groups: Vec<UnitaryGroup> = crate::color_classes(&result.colors)
        .into_iter()
        .map(|class| UnitaryGroup {
            strings: class.iter().map(|&v| strings[v as usize].clone()).collect(),
            coefficients: class.iter().map(|&v| coeffs[v as usize]).collect(),
        })
        .collect();
    groups.sort_by(|a, b| a.strings[0].cmp(&b.strings[0]));
    Ok(UnitaryPartition { groups, result })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pauli::sum::DEFAULT_TOL;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_operator(terms: usize, qubits: usize, seed: u64) -> PauliSum {
        let mut rng = StdRng::seed_from_u64(seed);
        let strings = pauli::string::random_unique_set(terms, qubits, &mut rng);
        let mut sum = PauliSum::zero(qubits);
        for (k, s) in strings.into_iter().enumerate() {
            sum.add_term(s, Complex::real(1.0 + k as f64 * 0.01));
        }
        sum
    }

    #[test]
    fn partition_verifies_and_compresses() {
        let op = random_operator(200, 8, 1);
        let p = partition_operator(&op, PicassoConfig::normal(3), DEFAULT_TOL).unwrap();
        p.verify(&op, DEFAULT_TOL).expect("valid partition");
        assert_eq!(p.num_terms(), 200);
        assert!(p.num_groups() < 200, "no compression at all");
        assert!(p.compression() > 1.0);
    }

    #[test]
    fn coefficients_travel_with_their_strings() {
        let mut op = PauliSum::zero(2);
        op.add_term("XX".parse().unwrap(), Complex::real(0.25));
        op.add_term("YZ".parse().unwrap(), Complex::real(-1.5));
        op.add_term("ZI".parse().unwrap(), Complex::new(0.0, 2.0));
        let p = partition_operator(&op, PicassoConfig::normal(1), DEFAULT_TOL).unwrap();
        p.verify(&op, DEFAULT_TOL).unwrap();
        for g in &p.groups {
            for (s, c) in g.strings.iter().zip(g.coefficients.iter()) {
                match s.to_string().as_str() {
                    "XX" => assert_eq!(*c, Complex::real(0.25)),
                    "YZ" => assert_eq!(*c, Complex::real(-1.5)),
                    "ZI" => assert_eq!(*c, Complex::new(0.0, 2.0)),
                    other => panic!("unexpected string {other}"),
                }
            }
        }
    }

    #[test]
    fn near_zero_terms_are_dropped() {
        let mut op = PauliSum::zero(2);
        op.add_term("XX".parse().unwrap(), Complex::real(1.0));
        op.add_term("YY".parse().unwrap(), Complex::real(1e-15));
        let p = partition_operator(&op, PicassoConfig::normal(1), DEFAULT_TOL).unwrap();
        assert_eq!(p.num_terms(), 1);
        p.verify(&op, DEFAULT_TOL).unwrap();
    }

    #[test]
    fn group_weight_is_coefficient_norm() {
        let g = UnitaryGroup {
            strings: vec!["XX".parse().unwrap(), "YY".parse().unwrap()],
            coefficients: vec![Complex::real(3.0), Complex::real(4.0)],
        };
        assert!((g.weight() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn verify_catches_commuting_pair() {
        // II and XX commute: an artificial group holding both must fail.
        let bad = UnitaryPartition {
            groups: vec![UnitaryGroup {
                strings: vec!["II".parse().unwrap(), "XX".parse().unwrap()],
                coefficients: vec![Complex::ONE, Complex::ONE],
            }],
            result: PicassoResult {
                colors: vec![0, 0],
                num_colors: 1,
                iterations: vec![],
                total_secs: 0.0,
                device_stats: None,
                index_builds: 0,
                pack_builds: 0,
                safety_valve_vertices: 0,
            },
        };
        let mut op = PauliSum::zero(2);
        op.add_term("II".parse().unwrap(), Complex::ONE);
        op.add_term("XX".parse().unwrap(), Complex::ONE);
        assert!(bad.verify(&op, DEFAULT_TOL).is_err());
    }

    #[test]
    fn hamiltonian_partition_end_to_end() {
        // A real (synthetic) molecular Hamiltonian through the full API.
        let geom = qchem::Geometry::hydrogen(2, qchem::Dimensionality::OneD, 1.0);
        let ham = qchem::build_hamiltonian(&geom, qchem::BasisSet::Sto3g, 5);
        let p = partition_operator(&ham, PicassoConfig::normal(2), DEFAULT_TOL).unwrap();
        p.verify(&ham, DEFAULT_TOL)
            .expect("valid Hamiltonian partition");
        assert!(p.num_groups() >= 1);
    }
}
