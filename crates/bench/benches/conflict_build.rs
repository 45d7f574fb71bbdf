//! Conflict-graph construction: the legacy all-pairs scan vs the
//! bucketed candidate engine, across the sequential / rayon-parallel /
//! simulated-device backends (the Table V microbenchmark, extended with
//! the enumeration comparison this reproduction's candidate engine is
//! about).
//!
//! Dense synthetic Hamiltonian input: random unique Pauli strings, whose
//! complement graph is ~50% dense — the regime the paper targets. The
//! printed `candidate-pairs` lines show the oracle-independent
//! enumeration work each engine performs; the bucketed engine must
//! examine strictly fewer pairs (and run faster) than all-pairs at the
//! Normal configuration.
//!
//! Beyond raw builder timing:
//! * `device` group — Algorithm 3 on one simulated device (the paper's
//!   GPU build: engine + index replica);
//! * `iteration_scratch` group — the same sequential build through a
//!   persistent [`IterationContext`] (index built once, arenas warm) vs
//!   a fresh context per build (the pre-context per-iteration cost:
//!   index rebuild + arena + list-storage allocation).
//! * `hit_masks` group — the host Line 7 the solver runs
//!   ([`build_host`]) on a dense Normal 40-qubit shape, where the graph-form
//!   rule keeps the bucketed hit masks and the mask fill counts `|Ec|`
//!   from each bucket's lower-color member sets; its `|Ec|` and scan
//!   counters must equal the CSR build's.
//! * `oracle_identity` group — the same Line 7 on the molecule's
//!   all-pairs shape (Aggressive lists, one-word form, `n` = 4096):
//!   every pivot's tail runs straight off the key table, thousands of
//!   lanes long.
//!
//! Set `PICASSO_BENCH_SMOKE=1` to run a seconds-scale smoke version (CI
//! keeps the target from rotting without paying full bench time).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use device::DeviceSim;
use pauli::EncodedSet;
use picasso::conflict::{
    build_device, build_host, build_parallel, build_sequential, build_sequential_allpairs,
    HostGraph,
};
use picasso::{ColorLists, IterationContext, PauliComplementOracle, PicassoConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var_os("PICASSO_BENCH_SMOKE").is_some()
}

fn setup(n: usize) -> (EncodedSet, ColorLists) {
    setup_qubits(n, 16)
}

/// `n` random unique strings on `qubits` qubits, with Normal lists.
fn setup_qubits(n: usize, qubits: usize) -> (EncodedSet, ColorLists) {
    let mut rng = StdRng::seed_from_u64(7);
    let strings = pauli::string::random_unique_set(n, qubits, &mut rng);
    let set = EncodedSet::from_strings(&strings);
    let cfg = PicassoConfig::normal(1);
    let lists = ColorLists::assign(n, 0, cfg.palette_size(n), cfg.list_size(n), 1, 1);
    (set, lists)
}

fn fresh_ctx(lists: &ColorLists) -> IterationContext {
    let mut ctx = IterationContext::new();
    ctx.set_lists(lists.clone());
    ctx
}

fn bench_conflict(c: &mut Criterion) {
    // Below ~400 vertices the Normal configuration has L²/P ≈ 1 and the
    // engine (correctly) falls back to all-pairs, so the smoke size must
    // stay in the regime the bench is about.
    let sizes: &[usize] = if smoke() { &[512] } else { &[512, 2048] };
    for &n in sizes {
        let (set, lists) = setup(n);
        let oracle = PauliComplementOracle::new(&set);
        let pairs = (n * (n - 1) / 2) as u64;
        let mut ctx = fresh_ctx(&lists);

        // The headline comparison: enumeration work per engine.
        let allpairs = build_sequential_allpairs(&oracle, &mut ctx);
        let bucketed = build_sequential(&oracle, &mut ctx);
        assert_eq!(
            allpairs.graph, bucketed.graph,
            "engines must build identical CSRs"
        );
        assert!(
            bucketed.candidate_pairs < allpairs.candidate_pairs,
            "bucketed engine must examine fewer pairs on the dense instance \
             ({} vs {})",
            bucketed.candidate_pairs,
            allpairs.candidate_pairs
        );
        println!(
            "conflict_build_n{n}: candidate-pairs all-pairs={} bucketed={} ({:.1}x fewer)",
            allpairs.candidate_pairs,
            bucketed.candidate_pairs,
            allpairs.candidate_pairs as f64 / bucketed.candidate_pairs.max(1) as f64
        );

        let mut group = c.benchmark_group(format!("conflict_build_n{n}"));
        group.throughput(Throughput::Elements(pairs));
        group.sample_size(if smoke() { 2 } else { 10 });

        group.bench_function(BenchmarkId::new("allpairs", n), |b| {
            b.iter(|| black_box(build_sequential_allpairs(&oracle, &mut ctx).num_edges))
        });
        group.bench_function(BenchmarkId::new("sequential", n), |b| {
            b.iter(|| black_box(build_sequential(&oracle, &mut ctx).num_edges))
        });
        group.bench_function(BenchmarkId::new("parallel", n), |b| {
            b.iter(|| black_box(build_parallel(&oracle, &mut ctx).num_edges))
        });
        group.finish();

        // Algorithm 3 on one simulated device.
        let mut group = c.benchmark_group(format!("device_n{n}"));
        group.throughput(Throughput::Elements(pairs));
        group.sample_size(if smoke() { 2 } else { 10 });
        group.bench_function(BenchmarkId::new("device", n), |b| {
            b.iter(|| {
                let dev = DeviceSim::new(256 * 1024 * 1024);
                black_box(build_device(&oracle, &mut ctx, &dev, 16).unwrap().num_edges)
            })
        });
        group.finish();

        // Iteration-scratch reuse, matching the solver's real steady
        // state: both paths run Line 6 (assign) + index build + conflict
        // build each iteration; `reused_context` does it in one
        // persistent workspace (lists reassigned in place, index rebuilt
        // into reused storage, warm arenas) while `fresh_context` pays
        // the pre-context cost (fresh list/index/arena allocations every
        // iteration).
        let cfg = PicassoConfig::normal(1);
        let (p, l) = (cfg.palette_size(n), cfg.list_size(n));
        let mut group = c.benchmark_group(format!("iteration_scratch_n{n}"));
        group.sample_size(if smoke() { 2 } else { 10 });
        group.bench_function("reused_context", |b| {
            b.iter(|| {
                ctx.assign_lists(n, 0, p, l, 1, 1);
                black_box(build_sequential(&oracle, &mut ctx).num_edges)
            })
        });
        group.bench_function("fresh_context", |b| {
            b.iter(|| {
                let mut cold = IterationContext::new();
                cold.assign_lists(n, 0, p, l, 1, 1);
                black_box(build_sequential(&oracle, &mut cold).num_edges)
            })
        });
        group.finish();
    }
}

/// The bucketed hit-mask form: the host build the solver runs on a dense
/// Normal 40-qubit shape (the `dense_pauli` regime), where the CSR path
/// would outweigh the masks. Before timing, its `|Ec|` and mask-scan
/// counters must equal the forced-CSR build's, so the smoke run checks
/// the mask fill's column count on every CI pass.
fn bench_hit_masks(c: &mut Criterion) {
    let sizes: &[usize] = if smoke() { &[512] } else { &[512, 2048] };
    for &n in sizes {
        let (set, lists) = setup_qubits(n, 40);
        let oracle = PauliComplementOracle::new(&set);
        let mut ctx = fresh_ctx(&lists);
        let csr = build_sequential(&oracle, &mut ctx);
        assert!(
            ctx.prefers_buckets(),
            "Normal lists select the bucketed engine"
        );
        for parallel in [false, true] {
            let masks = build_host(&oracle, &mut ctx, parallel, true);
            assert!(
                matches!(masks.graph, HostGraph::Masks),
                "the rule keeps hit masks on the dense shape"
            );
            assert_eq!(
                masks.num_edges, csr.num_edges,
                "|Ec| (parallel: {parallel})"
            );
            assert_eq!(
                masks.scan_stats, csr.scan_stats,
                "scan counters (parallel: {parallel})"
            );
        }
        println!(
            "hit_masks_n{n}: |Ec|={} of {} candidate pairs",
            csr.num_edges, csr.candidate_pairs
        );
        let pairs = csr.candidate_pairs;
        ctx.recycle_csr(csr.graph);

        let mut group = c.benchmark_group(format!("hit_masks_n{n}"));
        group.throughput(Throughput::Elements(pairs));
        group.sample_size(if smoke() { 2 } else { 10 });
        group.bench_function(BenchmarkId::new("sequential", n), |b| {
            b.iter(|| black_box(build_host(&oracle, &mut ctx, false, true).num_edges))
        });
        group.bench_function(BenchmarkId::new("parallel", n), |b| {
            b.iter(|| black_box(build_host(&oracle, &mut ctx, true, true).num_edges))
        });
        group.finish();
    }
}

/// Steady-state mean of one sequential build over warm repetitions,
/// graphs recycled so the timing measures the kernel, not allocator
/// traffic.
fn mean_build_secs<O: graph::EdgeOracle>(oracle: &O, ctx: &mut IterationContext) -> f64 {
    let reps = if smoke() { 3 } else { 12 };
    let t = Instant::now();
    for _ in 0..reps {
        let b = build_sequential(oracle, ctx);
        black_box(b.num_edges);
        ctx.recycle_csr(b.graph);
    }
    t.elapsed().as_secs_f64() / reps as f64
}

/// Scalar block path vs the packed oracle kernel, on the
/// bucketed **sequential** engine (the apples-to-apples comparison: the
/// scalar arm runs the same oracle through [`graph::ScalarView`], which
/// hides its packed form and forwards its encoded block queries). The
/// `≥ 1.5×` assertion at n = 2048 is the packed pipeline's acceptance
/// bar; the smoke run covers n = 512 so CI keeps both arms compiling
/// and agreeing without paying full measurement time.
fn bench_oracle_batch(c: &mut Criterion) {
    let sizes: &[usize] = if smoke() { &[512] } else { &[512, 2048] };
    for &n in sizes {
        let (set, lists) = setup(n);
        let oracle = PauliComplementOracle::new(&set);
        let scalar_oracle = graph::ScalarView::new(&oracle);
        let mut packed_ctx = fresh_ctx(&lists);
        let mut scalar_ctx = fresh_ctx(&lists);

        // Correctness gate (and arena warm-up) before any timing.
        let p = build_sequential(&oracle, &mut packed_ctx);
        let s = build_sequential(&scalar_oracle, &mut scalar_ctx);
        assert_eq!(p.graph, s.graph, "packed and scalar kernels must agree");
        assert_eq!(p.packed_lanes, p.candidate_pairs, "packed arm must pack");
        assert_eq!(s.packed_lanes, 0, "scalar arm must not pack");
        packed_ctx.recycle_csr(p.graph);
        scalar_ctx.recycle_csr(s.graph);

        let scalar_secs = mean_build_secs(&scalar_oracle, &mut scalar_ctx);
        let packed_secs = mean_build_secs(&oracle, &mut packed_ctx);
        let speedup = scalar_secs / packed_secs.max(1e-12);
        println!(
            "oracle_batch_n{n}: scalar-block={:.2}ms packed-kernel={:.2}ms ({speedup:.2}x faster)",
            scalar_secs * 1e3,
            packed_secs * 1e3,
        );
        if n == 2048 {
            assert!(
                speedup >= 1.5,
                "packed kernel must be ≥1.5x faster than the scalar block path \
                 on the bucketed sequential engine at n=2048 (got {speedup:.2}x)"
            );
        }

        let mut group = c.benchmark_group(format!("oracle_batch_n{n}"));
        group.throughput(Throughput::Elements(p.candidate_pairs));
        group.sample_size(if smoke() { 2 } else { 10 });
        group.bench_function("scalar_block", |b| {
            b.iter(|| {
                let built = build_sequential(&scalar_oracle, &mut scalar_ctx);
                let edges = built.num_edges;
                scalar_ctx.recycle_csr(built.graph);
                black_box(edges)
            })
        });
        group.bench_function("packed_kernel", |b| {
            b.iter(|| {
                let built = build_sequential(&oracle, &mut packed_ctx);
                let edges = built.num_edges;
                packed_ctx.recycle_csr(built.graph);
                black_box(edges)
            })
        });
        group.finish();
    }
}

/// The `sparse` group: the packed u64 hit-mask pipeline vs the scalar
/// block path (`has_edge_block_scratch` over each pivot's deduplicated
/// candidate run) at controlled edge densities, on the synthetic
/// packed-word oracle (real Pauli sets cannot hold density fixed) and
/// one shared bucket source. This is where zero-word skipping pays: at
/// ≤1% density almost every 64-lane word is skipped whole, so at
/// n = 2048 the mask arm must be at least [`SPARSE_MIN_SPEEDUP`]× the
/// scalar arm. Results also land in `BENCH_oracle.json` at the repo root
/// so the perf trajectory is tracked across changes.
fn bench_oracle_sparse(c: &mut Criterion) {
    use graph::EdgeOracle;
    use picasso::{BucketSource, MaskScanStats, PackedBuckets, PairSource};
    let n: usize = if smoke() { 512 } else { 2048 };
    let densities: &[f64] = &[0.001, 0.01, 0.10, 0.5];
    let cfg = PicassoConfig::normal(1);
    let lists = ColorLists::assign(n, 0, cfg.palette_size(n), cfg.list_size(n), 1, 1);
    let index = lists.bucket_index();
    let source = BucketSource::new(&lists, &index);
    let rows = 0..source.num_rows();
    let mut records = Vec::new();

    for &density in densities {
        let oracle = graph::PackedWordOracle::with_edge_density(n, 1, density, 11);
        let mut packed = PackedBuckets::new();
        assert!(packed.pack_from(&oracle, &lists, true));
        let mut masks: Vec<u64> = Vec::new();
        let (mut run, mut hits, mut mapped) = (Vec::new(), Vec::new(), Vec::new());

        // The scalar block arm: candidate runs through the batched
        // oracle, one `bool` per candidate.
        let mut scalar_scan = |emit: &mut dyn FnMut(u32, u32)| {
            source.scan_rows_scratch(rows.clone(), &mut run, &mut |u, vs| {
                hits.clear();
                hits.resize(vs.len(), false);
                oracle.has_edge_block_scratch(u, vs, &mut hits, &mut mapped);
                for (&v, &hit) in vs.iter().zip(hits.iter()) {
                    if hit {
                        emit(u as u32, v as u32);
                    }
                }
            });
        };

        // Correctness gate: both arms emit the identical edge set.
        let mut mask_edges: Vec<(u32, u32)> = Vec::new();
        let mut scalar_edges: Vec<(u32, u32)> = Vec::new();
        let mut stats = MaskScanStats::default();
        source.scan_rows_packed(
            rows.clone(),
            &packed,
            &mut masks,
            &mut stats,
            &mut |u, v| {
                mask_edges.push((u.min(v), u.max(v)));
            },
        );
        scalar_scan(&mut |u, v| scalar_edges.push((u.min(v), u.max(v))));
        mask_edges.sort_unstable();
        scalar_edges.sort_unstable();
        assert_eq!(mask_edges, scalar_edges, "arms must agree at d={density}");

        // Steady-state minimum over warm rounds (min, not mean, so the
        // bar measures the kernels and not the noise).
        let reps = if smoke() { 2 } else { 8 };
        let rounds = if smoke() { 2 } else { 5 };
        let time_min = |f: &mut dyn FnMut() -> usize| {
            let mut best = f64::INFINITY;
            for _ in 0..rounds {
                let t = Instant::now();
                for _ in 0..reps {
                    black_box(f());
                }
                best = best.min(t.elapsed().as_secs_f64() / reps as f64);
            }
            best
        };
        let mask_scan = |masks: &mut Vec<u64>| {
            let mut edges = 0usize;
            let mut stats = MaskScanStats::default();
            source.scan_rows_packed(rows.clone(), &packed, masks, &mut stats, &mut |_u, _v| {
                edges += 1;
            });
            edges
        };
        let scalar_secs = time_min(&mut || {
            let mut edges = 0usize;
            scalar_scan(&mut |_u, _v| edges += 1);
            edges
        });
        let mask_secs = time_min(&mut || mask_scan(&mut masks));
        let pairs = source.candidate_pairs();
        let speedup = scalar_secs / mask_secs.max(1e-12);
        println!(
            "oracle_sparse_n{n}_d{density}: scalar-block={:.3}ms mask-words={:.3}ms \
             ({speedup:.2}x, {} hit bits / {} lanes, {} of {} words skipped)",
            scalar_secs * 1e3,
            mask_secs * 1e3,
            stats.hit_bits,
            pairs,
            stats.skipped_words,
            stats.scanned_words,
        );
        if !smoke() && density <= 0.01 {
            assert!(
                speedup >= SPARSE_MIN_SPEEDUP,
                "mask pipeline must be ≥{SPARSE_MIN_SPEEDUP}x the scalar block path at \
                 d={density}, n={n} (got {speedup:.2}x)"
            );
        }
        records.push(serde_json::json!({
            "density": density,
            "words": 1,
            "candidate_pairs": pairs,
            "hit_bits": stats.hit_bits,
            "scanned_words": stats.scanned_words,
            "skipped_words": stats.skipped_words,
            "scalar_ns_per_pair": scalar_secs * 1e9 / pairs.max(1) as f64,
            "mask_ns_per_pair": mask_secs * 1e9 / pairs.max(1) as f64,
            "speedup": speedup,
        }));

        let mut group = c.benchmark_group(format!("oracle_sparse_n{n}"));
        group.throughput(Throughput::Elements(pairs));
        group.sample_size(if smoke() { 2 } else { 10 });
        group.bench_function(
            BenchmarkId::new("scalar_block", format!("d{density}")),
            |b| {
                b.iter(|| {
                    let mut edges = 0usize;
                    scalar_scan(&mut |_u, _v| edges += 1);
                    black_box(edges)
                })
            },
        );
        group.bench_function(BenchmarkId::new("mask_words", format!("d{density}")), |b| {
            b.iter(|| black_box(mask_scan(&mut masks)))
        });
        group.finish();
    }

    // Machine-readable perf record at the repo root, refreshed by every
    // bench run (smoke runs record their own size so CI diffs are
    // apples-to-apples).
    let out = serde_json::json!({
        "bench": "oracle_sparse",
        "n": n,
        "smoke": smoke(),
        "sparse": records,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_oracle.json");
    std::fs::write(
        path,
        format!("{}\n", serde_json::to_string_pretty(&out).unwrap()),
    )
    .expect("write BENCH_oracle.json");
    println!("oracle_sparse: wrote {path}");
}

/// The `identity` group: Line 7 as the solver runs it on the molecule's
/// shape — Aggressive lists (the all-pairs engine, whose packed scan runs
/// straight off the key table, the identity layout, with no shared-color
/// test), a one-word packed form over `n` random 12-qubit strings, about
/// half of whose pairs anticommute, kept as hit masks. Every pivot's tail
/// is the rest of the table, thousands of lanes, so this times the
/// kernel's long-tail rate, where the bucketed `sparse` group above
/// times its cost per bucket tile. Its `|Ec|` must equal the scalar
/// all-pairs build's.
fn bench_oracle_identity(c: &mut Criterion) {
    let n: usize = if smoke() { 512 } else { 4096 };
    let mut rng = StdRng::seed_from_u64(13);
    let strings = pauli::string::random_unique_set(n, 12, &mut rng);
    let set = EncodedSet::from_strings(&strings);
    let oracle = PauliComplementOracle::new(&set);
    let cfg = PicassoConfig::aggressive(1);
    let lists = ColorLists::assign(n, 0, cfg.palette_size(n), cfg.list_size(n), 1, 1);
    let mut ctx = fresh_ctx(&lists);
    let scalar = build_sequential_allpairs(&oracle, &mut ctx);
    assert!(!ctx.prefers_buckets(), "Aggressive lists select all-pairs");
    let masks = build_host(&oracle, &mut ctx, false, true);
    assert!(
        matches!(masks.graph, HostGraph::Masks),
        "the rule keeps hit masks on the molecule's shape"
    );
    assert_eq!(
        masks.num_edges, scalar.num_edges,
        "|Ec| of the identity scan"
    );
    let lanes = scalar.candidate_pairs;
    ctx.recycle_csr(scalar.graph);

    let (reps, rounds) = if smoke() { (2, 2) } else { (8, 5) };
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..reps {
            black_box(build_host(&oracle, &mut ctx, false, true).num_edges);
        }
        best = best.min(t.elapsed().as_secs_f64() / reps as f64);
    }
    println!(
        "oracle_identity_n{n}: mask-fill={:.3}ms ({:.3} ns/lane, |Ec|={} of {lanes} lanes)",
        best * 1e3,
        best * 1e9 / lanes.max(1) as f64,
        masks.num_edges,
    );

    let mut group = c.benchmark_group(format!("oracle_identity_n{n}"));
    group.throughput(Throughput::Elements(lanes));
    group.sample_size(if smoke() { 2 } else { 10 });
    group.bench_function("mask_fill", |b| {
        b.iter(|| black_box(build_host(&oracle, &mut ctx, false, true).num_edges))
    });
    group.finish();
}

/// Minimum mask-over-scalar speedup at ≤1% density, n = 2048. Two full
/// runs on a 2-vCPU x86-64 host measured 39.5–46.6×; the bar keeps a 4×
/// margin for shared-host noise.
const SPARSE_MIN_SPEEDUP: f64 = 10.0;

criterion_group!(
    benches,
    bench_conflict,
    bench_oracle_batch,
    bench_oracle_sparse,
    bench_oracle_identity,
    bench_hit_masks
);
criterion_main!(benches);
