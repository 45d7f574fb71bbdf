//! **Picasso** — memory-efficient palette-based iterative graph coloring
//! (Ferdous et al., IPDPS 2024).
//!
//! Picasso colors a graph `G'` that is *never materialized*: edges are
//! derived on demand from an [`graph::EdgeOracle`] (in the quantum
//! workload, the complement of the anticommutation relation over Pauli
//! strings). Each iteration:
//!
//! 1. draws a fresh palette of `P` colors and gives every live vertex a
//!    random list of `L = α·log₂ n` of them ([`assign`]),
//! 2. materializes only the **conflict graph** — edges whose endpoints
//!    share a list color ([`conflict`]). Candidates come from the
//!    palette's inverted index (`color → vertex bucket`, [`candidates`]),
//!    built once per iteration by the solver-owned [`iteration`]
//!    workspace and lent to every backend — and the sequential,
//!    rayon-parallel, simulated-GPU and sub-bucket-sharded multi-GPU
//!    backends produce identical graphs,
//! 3. colors unconflicted vertices with any list color,
//! 4. list-colors the conflict graph with the dynamic bucket greedy of
//!    Algorithm 2 ([`listcolor`]),
//! 5. recurses on the vertices whose lists ran dry.
//!
//! Under the paper's assumption `Δ/P = O(log n)` the conflict graph has
//! `O(n log³ n)` edges with high probability — sublinear in the
//! `Θ(n²)`-edge dense inputs the quantum application produces — so peak
//! memory stays far below any algorithm that loads `G'` whole.
//!
//! # Quick start
//!
//! ```
//! use picasso::{Picasso, PicassoConfig};
//! use pauli::{EncodedSet, PauliString};
//!
//! // Six Pauli strings on 4 qubits (the vertex set).
//! let strings: Vec<PauliString> = ["XXXY", "YYXY", "IIII", "XYXY", "ZZZZ", "XZYI"]
//!     .iter().map(|s| s.parse().unwrap()).collect();
//! let set = EncodedSet::from_strings(&strings);
//!
//! let result = Picasso::new(PicassoConfig::normal(7)).solve_pauli(&set).unwrap();
//! assert_eq!(result.colors.len(), 6);
//! // Every color class is a set of mutually anticommuting strings.
//! ```

pub mod analysis;
pub mod assign;
pub mod candidates;
pub mod config;
pub mod conflict;
pub mod iteration;
pub mod listcolor;
pub mod metrics;
pub mod oracle;
pub mod packed;
pub mod partition;
pub mod solver;
pub mod sweep;

pub use analysis::estimate_candidate_pairs;
pub use assign::{BucketIndex, BucketLoad, ColorLists};
pub use candidates::{AllPairsSource, BucketSource, CandidateEngine, PairSource};
pub use config::{ConflictBackend, ListColoringScheme, PicassoConfig};
pub use conflict::ConflictBuild;
pub use iteration::{IterationContext, IterationScratch, ScratchPool, TaskArena};
pub use listcolor::{ColorScratch, ListColorOutcome, SchemeKind};
pub use oracle::{LiveView, PauliComplementOracle};
pub use packed::{MaskScanStats, PackedBuckets, PackingMode};
pub use partition::{partition_operator, UnitaryGroup, UnitaryPartition};
pub use solver::{IterationStats, Picasso, PicassoResult, SolveError};
pub use sweep::{grid_sweep, SweepPoint};

/// Cuts `slice` into the disjoint pieces `slice[r]` of the ascending,
/// non-overlapping ranges `ranges`, lazily and without allocating — the
/// one way the parallel Line-7 steps hand each task its own `&mut` part
/// of a shared array.
///
/// # Panics
///
/// If a range starts before the previous one ends or runs past the end.
pub(crate) fn split_ranges_mut<T>(
    mut slice: &mut [T],
    ranges: impl IntoIterator<Item = std::ops::Range<usize>>,
) -> impl Iterator<Item = &mut [T]> {
    let mut at = 0;
    ranges.into_iter().map(move |range| {
        let (_, rest) = std::mem::take(&mut slice).split_at_mut(range.start - at);
        let (piece, rest) = rest.split_at_mut(range.len());
        (slice, at) = (rest, range.end);
        piece
    })
}

/// Groups vertices by their assigned color, producing the clique
/// partition (each class is a clique of the anticommutation graph `G`,
/// i.e. one output "unitary" of the application).
pub fn color_classes(colors: &[u32]) -> Vec<Vec<u32>> {
    use std::collections::HashMap;
    let mut classes: HashMap<u32, Vec<u32>> = HashMap::new();
    for (v, &c) in colors.iter().enumerate() {
        classes.entry(c).or_default().push(v as u32);
    }
    let mut out: Vec<Vec<u32>> = classes.into_values().collect();
    out.sort_unstable_by_key(|class| class[0]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn color_classes_partition_vertices() {
        let colors = vec![3, 1, 3, 2, 1];
        let classes = color_classes(&colors);
        assert_eq!(classes.len(), 3);
        let total: usize = classes.iter().map(|c| c.len()).sum();
        assert_eq!(total, 5);
        // Classes ordered by first member.
        assert_eq!(classes[0], vec![0, 2]);
        assert_eq!(classes[1], vec![1, 4]);
        assert_eq!(classes[2], vec![3]);
    }

    #[test]
    fn split_ranges_mut_hands_out_the_ranges_pieces() {
        let mut data: Vec<u32> = (0..10).collect();
        let pieces: Vec<&mut [u32]> =
            split_ranges_mut(&mut data, [0..2, 2..2, 4..7, 9..10]).collect();
        assert_eq!(pieces, [&[0, 1][..], &[], &[4, 5, 6], &[9]]);
        for (k, piece) in split_ranges_mut(&mut data, [1..3, 3..10]).enumerate() {
            piece.fill(k as u32 + 7);
        }
        assert_eq!(data, [0, 7, 7, 8, 8, 8, 8, 8, 8, 8]);
    }

    #[test]
    fn color_classes_empty() {
        assert!(color_classes(&[]).is_empty());
    }
}
