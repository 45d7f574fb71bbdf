//! The four named workloads and the instances they generate from a seed.
//! The program under test only ever sees these generated inputs.

use graph::{EdgeOracle, PackedWordOracle};
use pauli::{EncodedSet, PauliString};
use picasso::{IterationContext, Picasso, PicassoConfig, PicassoResult, SolveError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 8,000 unique random 40-qubit Pauli strings, `Normal`.
    DensePauli,
    /// `H6 3D sto3g` at scale 0.5, `Aggressive` (all-pairs engine).
    MoleculeAggressive,
    /// A 40,000-vertex sparse packed-word oracle, `Normal` (packed scan).
    SparseOracle,
    /// Closed-loop batches of synthetic Pauli requests to one service.
    ServiceMix,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 4] = [
        Workload::DensePauli,
        Workload::MoleculeAggressive,
        Workload::SparseOracle,
        Workload::ServiceMix,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DensePauli => "dense_pauli",
            Workload::MoleculeAggressive => "molecule_aggressive",
            Workload::SparseOracle => "sparse_oracle",
            Workload::ServiceMix => "service_mix",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The solver configuration a solver workload runs (default
    /// `Parallel` backend). The solver seed is fixed; the input varies
    /// with the workload seed.
    pub fn config(self) -> PicassoConfig {
        match self {
            Workload::MoleculeAggressive => PicassoConfig::aggressive(1),
            _ => PicassoConfig::normal(1),
        }
    }
}

/// Raw generated input, before any of the program's set-up runs.
pub enum Input {
    /// Pauli strings, encoded during set-up.
    Strings(Vec<PauliString>),
    /// A packed-word oracle (already the program's input form).
    Oracle(PackedWordOracle),
}

/// Generates a solver workload's input from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Input {
    match workload {
        Workload::DensePauli => Input::Strings(random_pauli(8_000, 40, seed)),
        Workload::MoleculeAggressive => {
            let spec = qchem::MoleculeSpec::by_name("H6 3D sto3g").expect("registry molecule");
            Input::Strings(spec.generate(0.5, seed))
        }
        Workload::SparseOracle => {
            Input::Oracle(PackedWordOracle::with_edge_density(40_000, 2, 0.001, seed))
        }
        Workload::ServiceMix => {
            // The service's request shape, solved directly (see
            // service_mix.rs for why the service workload has one).
            Input::Strings(random_pauli(SERVICE_N, SERVICE_QUBITS, seed))
        }
    }
}

/// Vertices per `service_mix` request.
pub const SERVICE_N: usize = 1024;
/// Qubits per `service_mix` request.
pub const SERVICE_QUBITS: usize = 24;

/// `n` unique random Pauli strings on `qubits` qubits, exactly as the
/// service's `Workload::SyntheticPauli` draws them.
pub fn random_pauli(n: usize, qubits: usize, seed: u64) -> Vec<PauliString> {
    let mut rng = StdRng::seed_from_u64(seed);
    pauli::string::random_unique_set(n, qubits, &mut rng)
}

/// A solver instance in the program's input form.
pub enum Instance<'a> {
    /// Encoded Pauli set (colored through its complement oracle).
    Pauli(EncodedSet),
    /// An implicit graph, already in input form when generated.
    Oracle(&'a PackedWordOracle),
}

impl<'a> Instance<'a> {
    /// The set-up step that turns generated input into the solver's
    /// input form: encoding for Pauli strings, nothing for an oracle.
    pub fn set_up(input: &'a Input) -> Instance<'a> {
        match input {
            Input::Strings(s) => Instance::Pauli(EncodedSet::from_strings(s)),
            Input::Oracle(o) => Instance::Oracle(o),
        }
    }

    /// Vertex count.
    pub fn num_vertices(&self) -> usize {
        match self {
            Instance::Pauli(set) => picasso::PauliComplementOracle::new(set).num_vertices(),
            Instance::Oracle(o) => o.num_vertices(),
        }
    }

    /// `Picasso::solve_*` on a fresh context (the CLI path).
    pub fn solve(&self, cfg: PicassoConfig) -> Result<PicassoResult, SolveError> {
        let solver = Picasso::new(cfg);
        match self {
            Instance::Pauli(set) => solver.solve_pauli(set),
            Instance::Oracle(o) => solver.solve_oracle(*o),
        }
    }

    /// `Picasso::solve_*_in` on a caller-owned (warm) context.
    pub fn solve_in(
        &self,
        cfg: PicassoConfig,
        ctx: &mut IterationContext,
    ) -> Result<PicassoResult, SolveError> {
        let solver = Picasso::new(cfg);
        match self {
            Instance::Pauli(set) => solver.solve_pauli_in(set, ctx),
            Instance::Oracle(o) => solver.solve_oracle_in(*o, ctx),
        }
    }

    /// `coloring::verify::validate_oracle_coloring` against the graph the
    /// solver colors.
    pub fn validate(&self, colors: &[u32]) -> bool {
        match self {
            Instance::Pauli(set) => coloring::verify::validate_oracle_coloring(
                &picasso::PauliComplementOracle::new(set),
                colors,
            )
            .is_ok(),
            Instance::Oracle(o) => coloring::verify::validate_oracle_coloring(*o, colors).is_ok(),
        }
    }
}
