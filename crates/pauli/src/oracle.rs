//! The anticommutation oracle abstraction.
//!
//! Picasso never materializes the input graph: edges are *derived* from
//! Pauli strings pair-by-pair. [`AntiCommuteSet`] is that derivation
//! surface; every encoding (naive characters, 3-bit packed, symplectic)
//! implements it, and the coloring core is generic over it.

use crate::string::PauliString;

/// A set of equal-length Pauli strings supporting pairwise anticommutation
/// queries. `Sync` is required so conflict-graph kernels can fan out with
/// rayon.
pub trait AntiCommuteSet: Sync {
    /// Number of strings (vertices of the derived graph).
    fn len(&self) -> usize;

    /// True when the set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Qubit count `N` of every string.
    fn num_qubits(&self) -> usize;

    /// Whether strings `i` and `j` anticommute (Eq. 3).
    ///
    /// In the paper's formulation: `(i, j)` is an edge of the *original*
    /// graph `G` iff they anticommute; an edge of the *complement* graph
    /// `G'` (the one Picasso colors) iff they do **not** and `i != j`.
    fn anticommutes(&self, i: usize, j: usize) -> bool;

    /// Whether `(i, j)` is an edge of the complement graph `G'` — the
    /// graph the coloring runs on.
    #[inline]
    fn complement_edge(&self, i: usize, j: usize) -> bool {
        i != j && !self.anticommutes(i, j)
    }

    /// Batched anticommutation against one pivot: `out[k] =
    /// anticommutes(i, js[k])`.
    ///
    /// The default loops over [`AntiCommuteSet::anticommutes`]; packed
    /// encodings override it with word-level scans that load row `i`'s
    /// encoding once and stream the candidate rows, which is what the
    /// palette-bucket conflict kernels feed (one pivot vertex against its
    /// whole bucket tail).
    #[inline]
    fn anticommutes_block(&self, i: usize, js: &[usize], out: &mut [bool]) {
        debug_assert_eq!(js.len(), out.len());
        for (o, &j) in out.iter_mut().zip(js) {
            *o = self.anticommutes(i, j);
        }
    }

    /// Words per row of this set's **packed AND-popcount form**, `None`
    /// when the encoding has no such form (the naive character oracle).
    ///
    /// The contract, for every pair `(i, j)` including the diagonal:
    ///
    /// ```text
    /// anticommutes(i, j)  ⟺  Σ_w popcount(query(i)[w] & key(j)[w]) is odd
    /// ```
    ///
    /// where `query`/`key` are the word vectors written by
    /// [`AntiCommuteSet::write_query_words`] and
    /// [`AntiCommuteSet::write_key_words`]. Both packed encodings satisfy
    /// it: the 3-bit code with `query = key = row` (Eq. 5), the
    /// symplectic code with the planes of the key swapped so the AND
    /// produces exactly the symplectic product's two terms. This is the
    /// factorization the packed conflict kernels exploit: key words are
    /// laid out contiguously in word-transposed lanes (a palette bucket's
    /// gathered once per scan of it), so one pivot's query streams the
    /// whole bucket tail with no per-row gather.
    #[inline]
    fn packed_words(&self) -> Option<usize> {
        None
    }

    /// Writes the query-side packed words of row `i` into `out` (length
    /// [`AntiCommuteSet::packed_words`]). Must be overridden whenever
    /// `packed_words` is `Some`.
    #[inline]
    fn write_query_words(&self, i: usize, out: &mut [u64]) {
        let _ = (i, out);
        unreachable!("write_query_words on a set without a packed form");
    }

    /// Writes the key-side packed words of row `i` into `out` (length
    /// [`AntiCommuteSet::packed_words`]). Must be overridden whenever
    /// `packed_words` is `Some`.
    #[inline]
    fn write_key_words(&self, i: usize, out: &mut [u64]) {
        let _ = (i, out);
        unreachable!("write_key_words on a set without a packed form");
    }
}

/// The baseline oracle: symbolic strings, per-character comparison.
///
/// Used for testing and as the "before bit encoding" side of the paper's
/// §IV-A speedup measurement.
#[derive(Clone, Debug)]
pub struct NaiveSet {
    strings: Vec<PauliString>,
    num_qubits: usize,
}

impl NaiveSet {
    /// Wraps a vector of equal-length strings.
    pub fn new(strings: Vec<PauliString>) -> NaiveSet {
        let num_qubits = strings.first().map_or(0, |s| s.len());
        assert!(
            strings.iter().all(|s| s.len() == num_qubits),
            "all Pauli strings must have equal length"
        );
        NaiveSet {
            strings,
            num_qubits,
        }
    }

    /// The underlying strings.
    pub fn strings(&self) -> &[PauliString] {
        &self.strings
    }
}

impl AntiCommuteSet for NaiveSet {
    #[inline]
    fn len(&self) -> usize {
        self.strings.len()
    }

    #[inline]
    fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    #[inline]
    fn anticommutes(&self, i: usize, j: usize) -> bool {
        self.strings[i].anticommutes_naive(&self.strings[j])
    }
}

/// Counts the number of anticommuting pairs (edges of `G`) and complement
/// edges (edges of `G'`) by exhaustive enumeration.
///
/// Runs the `n(n-1)/2` pair checks in parallel; intended for dataset
/// statistics (Table II's edge counts), not for inner loops.
pub fn count_edges<S: AntiCommuteSet>(set: &S) -> EdgeCounts {
    use rayon::prelude::*;
    let n = set.len();
    let (anti, comp) = (0..n)
        .into_par_iter()
        .map(|i| {
            let mut anti = 0u64;
            let mut comp = 0u64;
            for j in (i + 1)..n {
                if set.anticommutes(i, j) {
                    anti += 1;
                } else {
                    comp += 1;
                }
            }
            (anti, comp)
        })
        .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    EdgeCounts {
        num_vertices: n as u64,
        anticommuting: anti,
        complement: comp,
    }
}

/// Pair statistics of a Pauli-string set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeCounts {
    /// Number of strings.
    pub num_vertices: u64,
    /// Edges of `G` (anticommuting pairs).
    pub anticommuting: u64,
    /// Edges of `G'` (commuting pairs, the graph Picasso colors).
    pub complement: u64,
}

impl EdgeCounts {
    /// Density of the complement graph in `[0, 1]`.
    pub fn complement_density(&self) -> f64 {
        let n = self.num_vertices as f64;
        if n < 2.0 {
            return 0.0;
        }
        self.complement as f64 / (n * (n - 1.0) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::EncodedSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn naive_set_basic() {
        let strings: Vec<PauliString> = ["XX", "YY", "ZI", "IZ"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let set = NaiveSet::new(strings);
        assert_eq!(set.len(), 4);
        assert_eq!(set.num_qubits(), 2);
        // XX vs YY: both positions anticommute -> even -> commute.
        assert!(!set.anticommutes(0, 1));
        // XX vs ZI: one anticommuting position -> anticommute.
        assert!(set.anticommutes(0, 2));
        assert!(set.complement_edge(0, 1));
        assert!(!set.complement_edge(0, 2));
        assert!(!set.complement_edge(1, 1));
    }

    #[test]
    fn edge_counts_partition_all_pairs() {
        let mut rng = StdRng::seed_from_u64(10);
        let strings: Vec<PauliString> =
            (0..50).map(|_| PauliString::random(10, &mut rng)).collect();
        let set = EncodedSet::from_strings(&strings);
        let counts = count_edges(&set);
        assert_eq!(counts.num_vertices, 50);
        assert_eq!(counts.anticommuting + counts.complement, 50 * 49 / 2);
    }

    #[test]
    fn count_edges_agrees_between_oracles() {
        let mut rng = StdRng::seed_from_u64(20);
        let strings: Vec<PauliString> = (0..40).map(|_| PauliString::random(8, &mut rng)).collect();
        let naive = NaiveSet::new(strings.clone());
        let encoded = EncodedSet::from_strings(&strings);
        assert_eq!(count_edges(&naive), count_edges(&encoded));
    }

    #[test]
    fn density_of_random_sets_is_near_half() {
        // Random Pauli strings anticommute with probability ~1/2, the
        // "~50% dense" regime the paper targets.
        let mut rng = StdRng::seed_from_u64(30);
        let strings: Vec<PauliString> = (0..300)
            .map(|_| PauliString::random(12, &mut rng))
            .collect();
        let set = EncodedSet::from_strings(&strings);
        let d = count_edges(&set).complement_density();
        assert!((0.4..0.6).contains(&d), "density {d} not near 0.5");
    }
}
