//! Implicit-graph abstraction.
//!
//! [`EdgeOracle`] is the only view of the input graph the Picasso core
//! ever sees: a vertex count plus a pairwise edge query. The paper's point
//! is that this is *all* that is needed — the graph itself is never
//! stored.

use crate::csr::CsrGraph;

/// Descriptor of an oracle's **packed AND-popcount form**: the edge
/// predicate factorizes, for `u != v`, as
///
/// ```text
/// has_edge(u, v)  ⟺  (Σ_w popcount(query(u)[w] & key(v)[w]) is odd) == odd_means_edge
/// ```
///
/// with the `query`/`key` word vectors written by
/// [`EdgeOracle::write_query_words`] / [`EdgeOracle::write_key_words`].
/// Oracles with such a form (the Pauli complement oracle and anything
/// wrapping one) let the conflict builders replace per-row oracle
/// queries with a packed kernel: key words packed contiguously in
/// word-transposed lanes (a palette bucket's gathered once per scan of
/// it), one pivot query streamed against 4–8 `u64` lanes per loop
/// iteration with no per-row gather.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedOracleForm {
    /// `u64` words per packed row (query and key have equal width).
    pub words: usize,
    /// Whether odd AND-popcount parity means *edge* (the Pauli
    /// complement oracle inverts anticommutation, so for it odd parity
    /// means *no* edge). [`ComplementView`] flips this bit.
    pub odd_means_edge: bool,
}

/// A graph defined by a pairwise edge predicate.
pub trait EdgeOracle: Sync {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Whether `{u, v}` is an edge. Must be symmetric and false for
    /// `u == v`.
    fn has_edge(&self, u: usize, v: usize) -> bool;

    /// Batched edge queries against one pivot: `out[k] =
    /// has_edge(u, vs[k])`.
    ///
    /// The default loops over [`EdgeOracle::has_edge`]. Oracles backed by
    /// packed encodings (e.g. the Pauli complement oracle) override it so
    /// the pivot's encoding is loaded once per bucket scan instead of
    /// once per pair — the conflict-graph builders feed whole candidate
    /// runs through this entry point.
    #[inline]
    fn has_edge_block(&self, u: usize, vs: &[usize], out: &mut [bool]) {
        debug_assert_eq!(vs.len(), out.len());
        for (o, &v) in out.iter_mut().zip(vs) {
            *o = self.has_edge(u, v);
        }
    }

    /// Batched edge query with a caller-provided index scratch arena.
    ///
    /// Adapters that must remap the candidate run before forwarding it
    /// (e.g. a live-subset view translating local ids to original ids)
    /// override this to stage the remapped indices in `scratch` instead
    /// of allocating a fresh buffer per run — the conflict builders call
    /// this entry point with an arena that persists across a whole build
    /// (and, via the solver's iteration context, across iterations).
    ///
    /// The default ignores `scratch` and delegates to
    /// [`EdgeOracle::has_edge_block`]; `scratch` contents on return are
    /// unspecified either way.
    #[inline]
    fn has_edge_block_scratch(
        &self,
        u: usize,
        vs: &[usize],
        out: &mut [bool],
        scratch: &mut Vec<usize>,
    ) {
        let _ = scratch;
        self.has_edge_block(u, vs, out);
    }

    /// This oracle's packed AND-popcount form, if it has one (see
    /// [`PackedOracleForm`] for the exact contract). The default — no
    /// packed form — keeps every oracle on the scalar block path.
    #[inline]
    fn packed_form(&self) -> Option<PackedOracleForm> {
        None
    }

    /// Writes the query-side packed words of vertex `u` (length
    /// [`PackedOracleForm::words`]). Must be overridden whenever
    /// [`EdgeOracle::packed_form`] is `Some`.
    #[inline]
    fn write_query_words(&self, u: usize, out: &mut [u64]) {
        let _ = (u, out);
        unreachable!("write_query_words on an oracle without a packed form");
    }

    /// Writes the key-side packed words of vertex `v` (length
    /// [`PackedOracleForm::words`]). Must be overridden whenever
    /// [`EdgeOracle::packed_form`] is `Some`.
    #[inline]
    fn write_key_words(&self, v: usize, out: &mut [u64]) {
        let _ = (v, out);
        unreachable!("write_key_words on an oracle without a packed form");
    }
}

impl EdgeOracle for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn has_edge(&self, u: usize, v: usize) -> bool {
        CsrGraph::has_edge(self, u, v)
    }
}

/// The complement of another oracle: edges where the inner graph has
/// none. Used in tests to cross-check Picasso's implicit complement
/// handling against explicit graphs.
pub struct ComplementView<'a, O: EdgeOracle> {
    inner: &'a O,
}

impl<'a, O: EdgeOracle> ComplementView<'a, O> {
    /// Wraps an oracle.
    pub fn new(inner: &'a O) -> Self {
        ComplementView { inner }
    }
}

impl<O: EdgeOracle> EdgeOracle for ComplementView<'_, O> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    #[inline]
    fn has_edge(&self, u: usize, v: usize) -> bool {
        u != v && !self.inner.has_edge(u, v)
    }

    /// Complementing a packed oracle is a parity flip: same words, the
    /// opposite parity means edge.
    #[inline]
    fn packed_form(&self) -> Option<PackedOracleForm> {
        self.inner.packed_form().map(|f| PackedOracleForm {
            words: f.words,
            odd_means_edge: !f.odd_means_edge,
        })
    }

    #[inline]
    fn write_query_words(&self, u: usize, out: &mut [u64]) {
        self.inner.write_query_words(u, out);
    }

    #[inline]
    fn write_key_words(&self, v: usize, out: &mut [u64]) {
        self.inner.write_key_words(v, out);
    }
}

/// The same graph with its packed form hidden: every query forwards to
/// the inner oracle, and [`EdgeOracle::packed_form`] stays `None`, so the
/// conflict builders run the scalar block path on it. The scalar
/// reference the packed-kernel tests and benches compare against.
pub struct ScalarView<'a, O: EdgeOracle + ?Sized> {
    inner: &'a O,
}

impl<'a, O: EdgeOracle + ?Sized> ScalarView<'a, O> {
    /// Wraps an oracle.
    pub fn new(inner: &'a O) -> Self {
        ScalarView { inner }
    }
}

impl<O: EdgeOracle + ?Sized> EdgeOracle for ScalarView<'_, O> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    #[inline]
    fn has_edge(&self, u: usize, v: usize) -> bool {
        self.inner.has_edge(u, v)
    }

    #[inline]
    fn has_edge_block(&self, u: usize, vs: &[usize], out: &mut [bool]) {
        self.inner.has_edge_block(u, vs, out);
    }

    #[inline]
    fn has_edge_block_scratch(
        &self,
        u: usize,
        vs: &[usize],
        out: &mut [bool],
        scratch: &mut Vec<usize>,
    ) {
        self.inner.has_edge_block_scratch(u, vs, out, scratch);
    }
}

/// A packed AND-popcount oracle over explicit row-major `u64` words —
/// the *synthetic* counterpart of the Pauli complement oracle, with a
/// tunable edge density.
///
/// Every vertex is one row of [`PackedOracleForm::words`] words; the
/// edge predicate for `u != v` is the packed contract verbatim: AND the
/// rows, fold popcount parity, compare against `odd_means_edge`. Because
/// the rows are arbitrary data (not encodings of anything), this oracle
/// can realize any density from the empty graph to the complete one —
/// the knob the packed-kernel benches and density-sweep tests need,
/// which real Pauli sets (density pinned by the palette) cannot provide.
pub struct PackedWordOracle {
    n: usize,
    words: usize,
    rows: Vec<u64>,
    odd_means_edge: bool,
}

impl PackedWordOracle {
    /// Wraps explicit rows (`rows.len() == n · words`).
    pub fn from_rows(rows: Vec<u64>, words: usize, odd_means_edge: bool) -> Self {
        assert!(words >= 1, "a packed row has at least one word");
        assert_eq!(rows.len() % words, 0, "rows must be a multiple of words");
        PackedWordOracle {
            n: rows.len() / words,
            words,
            rows,
            odd_means_edge,
        }
    }

    /// A graph on `n` vertices with edge density approximately
    /// `density`, built from a GF(2) construction rather than rejection
    /// sampling:
    ///
    /// * `density <= 0` — all rows share an even-parity base word: no
    ///   edges.
    /// * `0 < density <= 0.25` — each vertex is a *defect* (base row
    ///   plus one extra bit) independently with probability `√density`;
    ///   the AND-parity is odd exactly when **both** endpoints are
    ///   defective, so the expected density is `density` exactly.
    /// * `0.25 < density < 1` — i.i.d. random rows; AND-popcount parity
    ///   is an unbiased bit, so the density is ~0.5 regardless of the
    ///   requested value.
    /// * `density >= 1` — every vertex defective: the complete graph.
    pub fn with_edge_density(n: usize, words: usize, density: f64, seed: u64) -> Self {
        assert!(words >= 1, "a packed row has at least one word");
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rows = vec![0u64; n * words];
        if density > 0.25 && density < 1.0 {
            for w in rows.iter_mut() {
                *w = rng.next_u64();
            }
            return PackedWordOracle::from_rows(rows, words, true);
        }
        let p = density.clamp(0.0, 1.0).sqrt();
        let defects: Vec<usize> = (0..n)
            .filter(|_| ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p)
            .collect();
        Self::defect_rows(&mut rows, words, &defects);
        PackedWordOracle::from_rows(rows, words, true)
    }

    /// A graph whose edges are exactly the pairs of `defects` — the
    /// deterministic form of the defect construction, for tests that
    /// need hits at chosen lane positions (e.g. a single set bit in a
    /// mask word's high half).
    pub fn with_defects(n: usize, words: usize, defects: &[usize]) -> Self {
        assert!(words >= 1, "a packed row has at least one word");
        let mut rows = vec![0u64; n * words];
        Self::defect_rows(&mut rows, words, defects);
        PackedWordOracle::from_rows(rows, words, true)
    }

    /// Writes the defect construction: every row gets the even-parity
    /// base pattern (two low bits of word 0), defective rows also set
    /// bit 62 of the last word, so `popcount(row_u & row_v)` is odd iff
    /// both endpoints are defective.
    fn defect_rows(rows: &mut [u64], words: usize, defects: &[usize]) {
        let n = rows.len() / words;
        for u in 0..n {
            rows[u * words] = 0b11;
        }
        for &d in defects {
            assert!(d < n, "defect {d} out of range for {n} vertices");
            rows[d * words + words - 1] |= 1 << 62;
        }
    }

    /// Words per packed row.
    pub fn words(&self) -> usize {
        self.words
    }
}

impl EdgeOracle for PackedWordOracle {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn has_edge(&self, u: usize, v: usize) -> bool {
        if u == v {
            return false;
        }
        let a = &self.rows[u * self.words..][..self.words];
        let b = &self.rows[v * self.words..][..self.words];
        let mut parity = 0u32;
        for (x, y) in a.iter().zip(b) {
            parity ^= (x & y).count_ones();
        }
        (parity & 1 == 1) == self.odd_means_edge
    }

    #[inline]
    fn packed_form(&self) -> Option<PackedOracleForm> {
        Some(PackedOracleForm {
            words: self.words,
            odd_means_edge: self.odd_means_edge,
        })
    }

    #[inline]
    fn write_query_words(&self, u: usize, out: &mut [u64]) {
        out.copy_from_slice(&self.rows[u * self.words..][..self.words]);
    }

    #[inline]
    fn write_key_words(&self, v: usize, out: &mut [u64]) {
        out.copy_from_slice(&self.rows[v * self.words..][..self.words]);
    }
}

/// An oracle defined by a closure, for tests and synthetic workloads.
pub struct FnOracle<F: Fn(usize, usize) -> bool + Sync> {
    n: usize,
    f: F,
}

impl<F: Fn(usize, usize) -> bool + Sync> FnOracle<F> {
    /// Wraps `f` as the edge predicate of a graph on `n` vertices.
    /// The predicate is consulted only for `u != v` and should be
    /// symmetric.
    pub fn new(n: usize, f: F) -> Self {
        FnOracle { n, f }
    }
}

impl<F: Fn(usize, usize) -> bool + Sync> EdgeOracle for FnOracle<F> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn has_edge(&self, u: usize, v: usize) -> bool {
        u != v && (self.f)(u, v)
    }
}

/// Materializes an oracle into an explicit CSR graph by exhaustive pair
/// enumeration — O(n²) queries; for tests and baseline comparisons where
/// the paper, too, must build the whole graph.
pub fn materialize<O: EdgeOracle>(oracle: &O) -> CsrGraph {
    let n = oracle.num_vertices();
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if oracle.has_edge(u, v) {
                edges.push((u as u32, v as u32));
            }
        }
    }
    crate::builder::csr_from_coo_sequential(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::csr_from_coo_sequential;

    #[test]
    fn csr_oracle_agrees_with_csr_queries() {
        let g = csr_from_coo_sequential(4, &[(0, 1), (2, 3), (1, 2)]);
        let o: &dyn EdgeOracle = &g;
        assert_eq!(o.num_vertices(), 4);
        assert!(o.has_edge(0, 1));
        assert!(!o.has_edge(0, 3));
    }

    #[test]
    fn complement_inverts_edges() {
        let g = csr_from_coo_sequential(4, &[(0, 1), (2, 3)]);
        let c = ComplementView::new(&g);
        for u in 0..4 {
            for v in 0..4 {
                if u == v {
                    assert!(!c.has_edge(u, v));
                } else {
                    assert_eq!(c.has_edge(u, v), !g.has_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn double_complement_is_identity() {
        let g = csr_from_coo_sequential(5, &[(0, 1), (1, 2), (3, 4), (0, 4)]);
        let c1 = ComplementView::new(&g);
        let back = materialize(&ComplementView::new(&c1));
        assert_eq!(back, g);
    }

    #[test]
    fn fn_oracle_never_reports_self_loops() {
        let o = FnOracle::new(5, |_, _| true);
        assert!(!o.has_edge(2, 2));
        assert!(o.has_edge(0, 1));
    }

    #[test]
    fn materialize_round_trips_csr() {
        let g = csr_from_coo_sequential(6, &[(0, 5), (1, 4), (2, 3), (0, 1)]);
        assert_eq!(materialize(&g), g);
    }

    fn density_of<O: EdgeOracle>(o: &O) -> f64 {
        let n = o.num_vertices();
        let mut edges = 0usize;
        for u in 0..n {
            for v in (u + 1)..n {
                edges += usize::from(o.has_edge(u, v));
            }
        }
        edges as f64 / (n * (n - 1) / 2) as f64
    }

    #[test]
    fn packed_word_oracle_hits_the_requested_density() {
        for words in [1usize, 3] {
            let empty = PackedWordOracle::with_edge_density(64, words, 0.0, 1);
            assert_eq!(density_of(&empty), 0.0, "w={words}");
            let full = PackedWordOracle::with_edge_density(64, words, 1.0, 1);
            assert_eq!(density_of(&full), 1.0, "w={words}");
            let sparse = PackedWordOracle::with_edge_density(400, words, 0.01, 2);
            let d = density_of(&sparse);
            assert!(d > 0.0 && d < 0.05, "w={words}: sparse density {d}");
            let dense = PackedWordOracle::with_edge_density(200, words, 0.5, 3);
            let d = density_of(&dense);
            assert!((0.35..0.65).contains(&d), "w={words}: dense density {d}");
        }
    }

    #[test]
    fn packed_word_oracle_defects_are_exactly_the_edge_support() {
        let o = PackedWordOracle::with_defects(10, 2, &[1, 4, 7]);
        for u in 0..10 {
            assert!(!o.has_edge(u, u));
            for v in 0..10 {
                let both = [1, 4, 7].contains(&u) && [1, 4, 7].contains(&v);
                assert_eq!(o.has_edge(u, v), u != v && both, "{u},{v}");
            }
        }
    }

    #[test]
    fn packed_word_oracle_form_agrees_with_has_edge() {
        let o = PackedWordOracle::with_edge_density(80, 2, 0.4, 9);
        let form = o.packed_form().unwrap();
        assert_eq!(form.words, 2);
        let mut q = [0u64; 2];
        let mut k = [0u64; 2];
        for u in 0..80 {
            o.write_query_words(u, &mut q);
            for v in 0..80 {
                if u == v {
                    continue;
                }
                o.write_key_words(v, &mut k);
                let parity = (q[0] & k[0]).count_ones() + (q[1] & k[1]).count_ones();
                assert_eq!(
                    o.has_edge(u, v),
                    (parity % 2 == 1) == form.odd_means_edge,
                    "{u},{v}"
                );
            }
        }
    }
}
