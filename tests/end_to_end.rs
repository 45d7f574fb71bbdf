//! End-to-end integration: synthetic molecule → Jordan–Wigner → Picasso →
//! verified unitary partition, across backends and configurations.

use coloring::verify::validate_oracle_coloring;
use pauli::{AntiCommuteSet, EncodedSet, NaiveSet, SymplecticSet};
use picasso::{color_classes, ConflictBackend, PauliComplementOracle, Picasso, PicassoConfig};
use qchem::{generate_pauli_set, BasisSet, Dimensionality};

fn molecule_set(terms: usize, seed: u64) -> Vec<pauli::PauliString> {
    generate_pauli_set(4, Dimensionality::TwoD, BasisSet::Sto3g, terms, seed)
}

#[test]
fn molecule_to_unitaries_pipeline() {
    let strings = molecule_set(600, 3);
    let set = EncodedSet::from_strings(&strings);
    let result = Picasso::new(PicassoConfig::normal(1))
        .solve_pauli(&set)
        .unwrap();

    // Valid coloring of the complement graph…
    let oracle = PauliComplementOracle::new(&set);
    validate_oracle_coloring(&oracle, &result.colors).expect("valid coloring");

    // …which means every color class is an anticommuting clique in G.
    let classes = color_classes(&result.colors);
    assert_eq!(classes.len(), result.num_colors as usize);
    for class in &classes {
        for (i, &u) in class.iter().enumerate() {
            for &v in class.iter().skip(i + 1) {
                assert!(set.anticommutes(u as usize, v as usize));
            }
        }
    }

    // Compression: strictly fewer unitaries than strings (the point of
    // the application).
    assert!(result.num_colors < strings.len() as u32);
}

#[test]
fn all_backends_agree_on_molecular_input() {
    let strings = molecule_set(400, 5);
    let set = EncodedSet::from_strings(&strings);
    let base = PicassoConfig::normal(9);
    let seq = Picasso::new(base.with_backend(ConflictBackend::Sequential))
        .solve_pauli(&set)
        .unwrap();
    let par = Picasso::new(base.with_backend(ConflictBackend::Parallel))
        .solve_pauli(&set)
        .unwrap();
    let dev = Picasso::new(base.with_backend(ConflictBackend::Device {
        capacity: 128 * 1024 * 1024,
    }))
    .solve_pauli(&set)
    .unwrap();
    assert_eq!(seq.colors, par.colors);
    assert_eq!(seq.colors, dev.colors);
    assert_eq!(seq.num_colors, dev.num_colors);
}

#[test]
fn all_encodings_give_identical_colorings() {
    // The solver only sees the oracle; naive, 3-bit and symplectic
    // encodings must induce exactly the same run.
    let strings = molecule_set(300, 7);
    let naive = NaiveSet::new(strings.clone());
    let encoded = EncodedSet::from_strings(&strings);
    let symplectic = SymplecticSet::from_strings(&strings);
    let cfg = PicassoConfig::normal(4);
    let a = Picasso::new(cfg).solve_pauli(&naive).unwrap();
    let b = Picasso::new(cfg).solve_pauli(&encoded).unwrap();
    let c = Picasso::new(cfg).solve_pauli(&symplectic).unwrap();
    assert_eq!(a.colors, b.colors);
    assert_eq!(a.colors, c.colors);
}

#[test]
fn five_seed_average_is_stable() {
    // The paper averages 5 seeds; the spread should be modest.
    let strings = molecule_set(500, 11);
    let set = EncodedSet::from_strings(&strings);
    let counts: Vec<u32> = (0..5)
        .map(|s| {
            Picasso::new(PicassoConfig::normal(s))
                .solve_pauli(&set)
                .unwrap()
                .num_colors
        })
        .collect();
    let min = *counts.iter().min().unwrap() as f64;
    let max = *counts.iter().max().unwrap() as f64;
    assert!(max / min < 1.3, "seed variance too high: {counts:?}");
}

#[test]
fn registry_instances_solve_cleanly() {
    for name in ["H6 3D sto3g", "H4 2D 631g", "H8 2D sto3g"] {
        let spec = qchem::MoleculeSpec::by_name(name).unwrap();
        let strings = spec.generate(0.004, 1);
        let set = EncodedSet::from_strings(&strings);
        let r = Picasso::new(PicassoConfig::normal(2))
            .solve_pauli(&set)
            .unwrap();
        let oracle = PauliComplementOracle::new(&set);
        validate_oracle_coloring(&oracle, &r.colors).unwrap_or_else(|e| {
            panic!("{name}: invalid coloring at edge {e:?}");
        });
    }
}
