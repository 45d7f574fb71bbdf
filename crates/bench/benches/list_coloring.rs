//! Lines 8–9 microbenchmark: the §IV-B scheme comparison — Algorithm 2's
//! dynamic bucket greedy (fresh buffers and the solver's warm
//! `ColorScratch` path) vs static-order first-fit under the ordering
//! heuristics, on one solver-realistic conflict graph — and the warm
//! greedy on both sides of its live-list form rule: Aggressive lists
//! (`L = P`, palette bitsets) and a Normal instance with a palette as
//! large as the vertex set (sorted lists).
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
    for (label, cfg, bitset) in [
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
            bitset,
            "{label}: P = {}, L = {}",
            lists.palette_size(),
            lists.list_size()
        );
        let form = if bitset { "bitset" } else { "sorted" };
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

criterion_group!(benches, bench_scheme_comparison, bench_live_list_forms);
criterion_main!(benches);
