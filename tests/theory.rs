//! Empirical validation of the §IV-C analysis through the whole stack:
//! the measured first-iteration conflict graph matches the closed-form
//! expectation, and it concentrates (Lemma 2).

use pauli::oracle::count_edges;
use pauli::EncodedSet;
use picasso::analysis::{expected_conflict_edges, list_intersection_probability};
use picasso::{Picasso, PicassoConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_set(n: usize, qubits: usize, seed: u64) -> EncodedSet {
    let mut rng = StdRng::seed_from_u64(seed);
    EncodedSet::from_strings(&pauli::string::random_unique_set(n, qubits, &mut rng))
}

#[test]
fn first_iteration_conflict_edges_match_expectation() {
    let set = random_set(800, 10, 3);
    let complement_edges = count_edges(&set).complement;
    let cfg = PicassoConfig::normal(5);
    let (palette, list) = (cfg.palette_size(800), cfg.list_size(800));
    let predicted = expected_conflict_edges(complement_edges, palette, list);

    let result = Picasso::new(cfg).solve_pauli(&set).unwrap();
    let measured = result.iterations[0].conflict_edges as f64;
    let rel = (measured - predicted).abs() / predicted;
    assert!(
        rel < 0.10,
        "iteration-1 |Ec| = {measured} vs predicted {predicted:.0} ({:.1}% off)",
        rel * 100.0
    );
}

#[test]
fn concentration_across_seeds() {
    // Lemma 2's w.h.p. claim, observed: |Ec| varies little across seeds.
    let set = random_set(500, 9, 7);
    let mut values = Vec::new();
    for seed in 0..6 {
        let r = Picasso::new(PicassoConfig::normal(seed))
            .solve_pauli(&set)
            .unwrap();
        values.push((seed, r.iterations[0].conflict_edges as f64));
    }
    let mean = values.iter().map(|&(_, v)| v).sum::<f64>() / values.len() as f64;
    for (seed, v) in values {
        assert!(
            (v - mean).abs() / mean < 0.10,
            "seed {seed}: conflict edges {v} strays from mean {mean}"
        );
    }
}

#[test]
fn sublinear_regime_kicks_in_with_palette_growth() {
    // Doubling the palette roughly halves the intersection probability in
    // the L << P regime, and the measured conflict graph follows.
    let set = random_set(600, 10, 9);
    let base = PicassoConfig::normal(3);
    let small = Picasso::new(base.with_palette_fraction(0.10))
        .solve_pauli(&set)
        .unwrap();
    let large = Picasso::new(base.with_palette_fraction(0.20))
        .solve_pauli(&set)
        .unwrap();
    let ratio =
        small.iterations[0].conflict_edges as f64 / large.iterations[0].conflict_edges as f64;
    // Theory ratio from the closed form.
    let q_small = list_intersection_probability(
        base.with_palette_fraction(0.10).palette_size(600),
        base.list_size(600),
    );
    let q_large = list_intersection_probability(
        base.with_palette_fraction(0.20).palette_size(600),
        base.list_size(600),
    );
    let theory = q_small / q_large;
    assert!(
        (ratio / theory - 1.0).abs() < 0.15,
        "measured ratio {ratio:.2} vs theory {theory:.2}"
    );
}
