//! The §IV-C analysis quantities, computable in closed form.
//!
//! Two vertices conflict iff their random color lists intersect. For
//! independent uniform `L`-subsets of a `P`-color palette the exact
//! intersection probability is
//!
//! ```text
//! q(P, L) = 1 − C(P−L, L) / C(P, L) = 1 − Π_{i=0}^{L−1} (P−L−i)/(P−i)
//! ```
//!
//! which is `Θ(L²/P)` for `L ≪ P` — the `O(δ(v)·log²n / P)` expected
//! conflict degree of Lemma 2.1 and the engine behind the sublinear space
//! bound. These functions let tests check the *measured* conflict graph
//! against the theory, and let users predict memory needs before a run
//! (the Fig. 2 planning problem).

/// Exact probability that two independent uniform `list`-subsets of a
/// `palette`-color palette share at least one color.
///
/// By pigeonhole, returns 1 when `2·list > palette`.
pub fn list_intersection_probability(palette: u32, list: u32) -> f64 {
    let p = palette as f64;
    let l = list.min(palette) as f64;
    if 2.0 * l > p {
        return 1.0;
    }
    // Π (P−L−i)/(P−i) for i in 0..L, computed in log space for stability.
    let mut log_miss = 0.0f64;
    for i in 0..list.min(palette) {
        let num = p - l - i as f64;
        let den = p - i as f64;
        if num <= 0.0 {
            return 1.0;
        }
        log_miss += (num / den).ln();
    }
    1.0 - log_miss.exp()
}

/// Expected conflict-graph edge count for a (sub)graph with
/// `oracle_edges` edges under independent list assignment (Lemma 2.3's
/// expectation, exact rather than asymptotic).
pub fn expected_conflict_edges(oracle_edges: u64, palette: u32, list: u32) -> f64 {
    oracle_edges as f64 * list_intersection_probability(palette, list)
}

/// Expected conflict degree of a vertex of oracle-degree `degree`
/// (Lemma 2.1's expectation, exact).
pub fn expected_conflict_degree(degree: f64, palette: u32, list: u32) -> f64 {
    degree * list_intersection_probability(palette, list)
}

/// Closed-form estimate of the bucketed engine's enumeration work for one
/// iteration over `m` live vertices: each vertex holds `L` of `P` colors,
/// so the expected bucket depth is `mL/P` and
///
/// ```text
/// Σ_c |B_c|·(|B_c|−1)/2 ≈ P · (mL/P)² / 2 = m²L² / 2P.
/// ```
///
/// The estimate is capped at the all-pairs count `m(m−1)/2`: the
/// candidate engine never examines more (it falls back to the all-pairs
/// scan when buckets degenerate), so neither does the forecast. Unlike
/// [`crate::ColorLists::bucket_load`] — the exact histogram of lists
/// already drawn — this needs only `(m, P, L)`, making it free to
/// evaluate *before* any assignment: the predictor's inference-time cost
/// feature and the solve service's admission pre-check both use it.
pub fn estimate_candidate_pairs(m: usize, palette: u32, list_size: u32) -> u64 {
    let m64 = m as u64;
    let all_pairs = m64.saturating_mul(m64.saturating_sub(1)) / 2;
    if palette == 0 || m < 2 {
        return all_pairs;
    }
    let m_f = m as f64;
    let l = f64::from(list_size.min(palette));
    let est = m_f * m_f * l * l / (2.0 * f64::from(palette));
    if est >= all_pairs as f64 {
        all_pairs
    } else {
        est as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::ColorLists;

    #[test]
    fn probability_bounds_and_extremes() {
        assert_eq!(list_intersection_probability(10, 0), 0.0);
        // 2L > P forces intersection.
        assert_eq!(list_intersection_probability(10, 6), 1.0);
        assert_eq!(list_intersection_probability(4, 4), 1.0);
        // L = 1: probability exactly 1/P.
        let q = list_intersection_probability(100, 1);
        assert!((q - 0.01).abs() < 1e-12, "q = {q}");
        for p in [2u32, 10, 1000] {
            for l in 0..=p.min(40) {
                let q = list_intersection_probability(p, l);
                assert!((0.0..=1.0).contains(&q), "q({p},{l}) = {q}");
            }
        }
    }

    #[test]
    fn probability_monotone_in_list_size() {
        let mut prev = 0.0;
        for l in 0..=30 {
            let q = list_intersection_probability(200, l);
            assert!(q >= prev - 1e-12, "q not monotone at L={l}");
            prev = q;
        }
    }

    #[test]
    fn small_case_exact_value() {
        // P=4, L=2: miss = C(2,2)/C(4,2) = 1/6 -> q = 5/6.
        let q = list_intersection_probability(4, 2);
        assert!((q - 5.0 / 6.0).abs() < 1e-12, "q = {q}");
    }

    #[test]
    fn theta_l_squared_over_p_regime() {
        // For L << P the probability is close to L^2/P.
        let (p, l) = (10_000u32, 10u32);
        let q = list_intersection_probability(p, l);
        let approx = (l * l) as f64 / p as f64;
        assert!((q / approx - 1.0).abs() < 0.05, "q {q} vs L²/P {approx}");
    }

    #[test]
    fn measured_intersections_match_theory() {
        // Empirical concentration: over all pairs of 600 assigned lists,
        // the intersecting fraction is within a few percent of q(P, L).
        let (n, palette, list) = (600usize, 64u32, 5u32);
        let lists = ColorLists::assign(n, 0, palette, list, 7, 1);
        let mut hits = 0u64;
        let mut total = 0u64;
        for u in 0..n {
            for v in (u + 1)..n {
                total += 1;
                hits += lists.intersects(u, v) as u64;
            }
        }
        let measured = hits as f64 / total as f64;
        let predicted = list_intersection_probability(palette, list);
        assert!(
            (measured - predicted).abs() < 0.02,
            "measured {measured:.4} vs predicted {predicted:.4}"
        );
    }

    #[test]
    fn expected_edges_scale_linearly() {
        let q = list_intersection_probability(128, 6);
        assert!((expected_conflict_edges(1000, 128, 6) - 1000.0 * q).abs() < 1e-9);
        assert!((expected_conflict_degree(50.0, 128, 6) - 50.0 * q).abs() < 1e-9);
    }

    #[test]
    fn candidate_pair_estimate_tracks_the_measured_bucket_load() {
        // The closed form m²L²/2P concentrates tightly around the exact
        // pre-oracle histogram total of actually-drawn lists.
        for (m, palette, list, seed) in [
            (800usize, 100u32, 6u32, 3u64),
            (2000, 250, 7, 5),
            (500, 16, 3, 9),
        ] {
            let estimate = estimate_candidate_pairs(m, palette, list) as f64;
            let measured = ColorLists::assign(m, 0, palette, list, seed, 1)
                .bucket_load()
                .total_pairs as f64;
            assert!(
                (estimate / measured - 1.0).abs() < 0.10,
                "seed {seed}: m={m} P={palette} L={list}: estimate {estimate} vs measured {measured}"
            );
        }
    }

    #[test]
    fn candidate_pair_estimate_caps_at_all_pairs() {
        // L = P: every bucket is the whole vertex set; the engine falls
        // back to all-pairs and so does the estimate.
        assert_eq!(estimate_candidate_pairs(100, 4, 4), 100 * 99 / 2);
        assert_eq!(estimate_candidate_pairs(50, 1, 1), 50 * 49 / 2);
        // Degenerate inputs.
        assert_eq!(estimate_candidate_pairs(0, 10, 2), 0);
        assert_eq!(estimate_candidate_pairs(1, 10, 2), 0);
        // Sparse regime is far below the cap.
        let est = estimate_candidate_pairs(10_000, 1250, 8);
        assert!(est < 10_000u64 * 9_999 / 2 / 10);
        assert!(est > 0);
    }
}
