//! Graph substrate for the Picasso reproduction.
//!
//! Two kinds of graphs appear in the paper:
//!
//! * **implicit** graphs whose edges are derived on demand (the Pauli
//!   compatibility graph Picasso colors) — abstracted by [`EdgeOracle`],
//! * **explicit** CSR graphs — the per-iteration conflict graphs Picasso
//!   materializes, and the full graphs the baselines (ColPack-style
//!   greedy, Jones–Plassmann, speculative) must load whole, which is
//!   exactly the memory behaviour Table IV contrasts.
//!
//! The CSR builder mirrors Algorithm 3's construction: count per-vertex
//! degrees, exclusive prefix sum, scatter, then order each adjacency row
//! ascending — one sequential assembler whose output does not depend on
//! edge order. Its input is a buffer of `(pivot, run)` edge groups
//! ([`CooGroups`]); plain `(u, v)` pair lists go through the same core,
//! one pair per group. Rows are ordered by a counted rule (see [`builder`]):
//! short rows sort, long rows the scan already delivered ascending stay
//! as they are, and other long rows go through an `n`-bit bitmap. The
//! input must hold unique edges; a duplicate arc in a long row panics.

pub mod builder;
pub mod csr;
pub mod gen;
pub mod oracle;
pub mod stats;

pub use builder::{
    csr_from_coo_parallel_in, csr_from_coo_sequential, csr_from_coo_sequential_in,
    csr_from_groups_in, CooGroups, CsrArena,
};
pub use csr::CsrGraph;
pub use gen::{complete_graph, cycle_graph, erdos_renyi, path_graph, star_graph};
pub use oracle::{
    ComplementView, EdgeOracle, FnOracle, PackedOracleForm, PackedWordOracle, ScalarView,
};
