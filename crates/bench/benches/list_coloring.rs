//! Lines 6 and 8–9 microbenchmark: the §IV-B scheme comparison —
//! Algorithm 2's dynamic bucket greedy (fresh buffers and the solver's
//! warm `ColorScratch` path) vs static-order first-fit under the ordering
//! heuristics, on one solver-realistic conflict graph — the warm greedy
//! on both sides of its live-list form rule: Aggressive lists (`L = P`,
//! per-colour holder sets) and a Normal instance with a palette as large
//! as the vertex set (per-vertex position masks) — and Line 6 itself, a
//! warm `ColorLists::reassign` at the benchmark workloads' list shapes,
//! in ns per list entry.
//!
//! Set `PICASSO_BENCH_SMOKE=1` for the seconds-scale CI smoke version.

use coloring::OrderingHeuristic;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph::CsrGraph;
use pauli::EncodedSet;
use picasso::conflict::build_parallel;
use picasso::listcolor::{
    greedy_list_color, greedy_list_color_into, static_list_color, uses_palette_bitset,
};
use picasso::{
    ColorLists, IterationContext, ListColorOutcome, PauliComplementOracle, PicassoConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var_os("PICASSO_BENCH_SMOKE").is_some()
}

/// A solver-realistic iteration-1 conflict instance over `n` random
/// unique Pauli strings, with `cfg`'s palette and list sizes.
fn conflict_instance(
    n: usize,
    seed: u64,
    cfg: PicassoConfig,
) -> (CsrGraph, ColorLists, Vec<u32>, IterationContext) {
    let mut rng = StdRng::seed_from_u64(seed);
    let strings = pauli::string::random_unique_set(n, 14, &mut rng);
    let set = EncodedSet::from_strings(&strings);
    let oracle = PauliComplementOracle::new(&set);
    let lists = ColorLists::assign(n, 0, cfg.palette_size(n), cfg.list_size(n), seed, 1);
    let mut ctx = IterationContext::new();
    ctx.set_lists(lists.clone());
    let build = build_parallel(&oracle, &mut ctx);
    let gc = build.graph;
    let active: Vec<u32> = (0..n as u32)
        .filter(|&v| gc.degree(v as usize) > 0)
        .collect();
    (gc, lists, active, ctx)
}

/// The original §IV-B comparison: dynamic bucket greedy vs static orders.
fn bench_scheme_comparison(c: &mut Criterion) {
    let n = if smoke() { 600 } else { 3000 };
    let (gc, lists, active, mut ctx) = conflict_instance(n, 3, PicassoConfig::normal(1));
    let mut outcome = ListColorOutcome::default();

    let mut group = c.benchmark_group("conflict_list_coloring");
    group.sample_size(if smoke() { 10 } else { 20 });
    group.bench_function("dynamic_bucket_greedy", |b| {
        b.iter(|| black_box(greedy_list_color(&gc, &lists, &active, 9).assigned.len()))
    });
    group.bench_function("dynamic_bucket_greedy_warm", |b| {
        b.iter(|| {
            let (l, s) = ctx.lists_and_color_scratch();
            greedy_list_color_into(&gc, l, &active, 9, s, &mut outcome);
            black_box(outcome.assigned.len())
        })
    });
    for h in [
        OrderingHeuristic::Natural,
        OrderingHeuristic::LargestFirst,
        OrderingHeuristic::SmallestLast,
    ] {
        group.bench_function(BenchmarkId::new("static", h.label()), |b| {
            b.iter(|| black_box(static_list_color(&gc, &lists, &active, h, 9).assigned.len()))
        });
    }
    group.finish();
}

/// The warm greedy on each side of its live-list form rule.
fn bench_live_list_forms(c: &mut Criterion) {
    let n = if smoke() { 600 } else { 3000 };
    let mut group = c.benchmark_group("greedy_live_list_forms");
    group.sample_size(if smoke() { 10 } else { 20 });
    for (label, cfg, holders) in [
        ("aggressive", PicassoConfig::aggressive(1), true),
        (
            "normal_wide_palette",
            PicassoConfig::normal(1).with_palette_fraction(1.0),
            false,
        ),
    ] {
        let (gc, lists, active, mut ctx) = conflict_instance(n, 3, cfg);
        assert_eq!(
            uses_palette_bitset(lists.palette_size(), lists.list_size()),
            holders,
            "{label}: P = {}, L = {}",
            lists.palette_size(),
            lists.list_size()
        );
        let form = if holders { "holders" } else { "positions" };
        let mut outcome = ListColorOutcome::default();
        group.bench_function(BenchmarkId::new(label, form), |b| {
            b.iter(|| {
                let (l, s) = ctx.lists_and_color_scratch();
                greedy_list_color_into(&gc, l, &active, 9, s, &mut outcome);
                black_box(outcome.assigned.len())
            })
        });
    }
    group.finish();
}

/// Line 6: a warm `ColorLists::reassign` at the sparse-oracle
/// (40k vertices, `P` 5000, `L` 10: Floyd, ranked rows), dense-Pauli
/// (8k, 1000, 8: Floyd, ranked rows) and molecule (4361, 131, 110:
/// Fisher–Yates, bitmap rows) shapes; smaller `n` under the smoke flag.
fn bench_line6(c: &mut Criterion) {
    let shapes = if smoke() {
        [
            ("sparse", 4000, 5000, 10),
            ("dense", 800, 1000, 8),
            ("molecule", 436, 131, 110),
        ]
    } else {
        [
            ("sparse", 40_000, 5000, 10),
            ("dense", 8000, 1000, 8),
            ("molecule", 4361, 131, 110),
        ]
    };
    let mut group = c.benchmark_group("line6_assign");
    group.sample_size(if smoke() { 10 } else { 20 });
    for (label, n, p, l) in shapes {
        let mut lists = ColorLists::empty();
        lists.reassign(n, 0, p, l, 3, 1);
        let entries = (n * l as usize) as f64;
        let (reps, rounds) = if smoke() { (5, 3) } else { (20, 5) };
        let mut best = f64::INFINITY;
        for _ in 0..rounds {
            let t = Instant::now();
            for _ in 0..reps {
                lists.reassign(n, 0, p, l, 3, 1);
                black_box(lists.row(n - 1));
            }
            best = best.min(t.elapsed().as_secs_f64() / reps as f64);
        }
        println!(
            "line6_{label}_n{n}: reassign={:.3}ms ({:.2} ns/entry, P={p}, L={l})",
            best * 1e3,
            best * 1e9 / entries,
        );
        group.bench_function(BenchmarkId::new(label, n), |b| {
            b.iter(|| {
                lists.reassign(n, 0, p, l, 3, 1);
                black_box(lists.row(n - 1)[0])
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scheme_comparison,
    bench_live_list_forms,
    bench_line6
);
criterion_main!(benches);
