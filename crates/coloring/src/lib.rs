//! Baseline graph-coloring algorithms the paper compares Picasso against.
//!
//! * [`greedy`] + [`ordering`] — sequential first-fit greedy under the
//!   ColPack ordering heuristics (Natural, Random, Largest First,
//!   Smallest Last, Dynamic Largest First, Incidence Degree), standing in
//!   for the ColPack column of Tables III/IV.
//! * [`jp`] — Jones–Plassmann with largest-degree-first priorities, the
//!   algorithm family of ECL-GC-R (independent-set based, high quality,
//!   modest memory, slower).
//! * [`speculative`] — iterative speculate-then-resolve parallel coloring
//!   with edge-based conflict detection, the algorithm family of
//!   Kokkos-EB (fast, memory-hungry: it keeps an explicit edge list on
//!   top of CSR).
//!
//! Every baseline here *loads the entire graph* — deliberately. That is
//! the memory behaviour Table IV contrasts with Picasso, which only ever
//! materializes per-iteration conflict subgraphs.

pub mod dsatur;
pub mod greedy;
pub mod jp;
pub mod ordering;
pub mod speculative;
pub mod verify;

pub use dsatur::dsatur;
pub use greedy::{colpack_color, greedy_color, ColoringResult};
pub use jp::jones_plassmann_ldf;
pub use ordering::OrderingHeuristic;
pub use speculative::speculative_parallel;
pub use verify::{is_valid_coloring, num_colors, validate_oracle_coloring};

/// Sentinel for a vertex that has not been assigned a color.
pub const UNCOLORED: u32 = u32::MAX;
