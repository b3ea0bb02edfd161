//! The batch-driver throughput bench: serial vs parallel analysis and
//! batched+cached vs per-query all-pairs evaluation.
//!
//! This bench backs the acceptance criterion of the driver PR: on the
//! `scaling` workload at 4 threads, the batched+cached all-pairs
//! evaluation ([`sra_core::AliasMatrix`] built on the pool) must beat
//! the seed per-query path ([`sra_core::QueryStats::run_pairs`]) by at
//! least 2×. Besides the per-case timings, the bench prints an explicit
//! `speedup:` summary line comparing the two paths; the `#[ignore]`d
//! test `throughput_speedup` in `crates/bench/tests/` asserts the same
//! ratio.
//!
//! Run with `cargo bench -p sra-bench --bench throughput`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sra_bench::{batched_sweep, build_session, per_query_sweep, scratch_replay, session_replay};
use sra_core::{
    pool, AliasService, AnalysisConfig, AnalysisSession, GrConfig, QueryMode, RbaaAnalysis,
};
use sra_ir::Module;
use sra_range::RangeAnalysis;
use sra_workloads::{edits, scaling, traffic};

const SCALING_INSTS: usize = 20_000;
const SCALING_SEED: u64 = 42;
/// The many-function workload for the GR wave scheduler: hundreds of
/// interlinked functions (deep chains, recursive cliques, wide fans).
const CALLGRAPH_FUNCS: usize = 600;
/// Single-function edits per replay of the session workload.
const SESSION_EDITS: usize = 8;

fn workload() -> Module {
    scaling::generate_module(SCALING_INSTS, SCALING_SEED)
}

fn callgraph_workload() -> Module {
    scaling::generate_call_graph_module(CALLGRAPH_FUNCS, SCALING_SEED)
}

/// The one pooled pipeline without matrices: a demand-mode session
/// build on `threads` workers (capped at the hardware's).
fn pipeline(m: &Module, threads: usize) -> AnalysisSession {
    let config = AnalysisConfig::builder()
        .threads(threads)
        .query_mode(QueryMode::Demand)
        .build();
    AnalysisSession::with_config(m.clone(), config).expect("workload verifies")
}

/// Pipeline analysis (bootstrap + GR + LR): the serial reference vs the
/// pooled pipeline at 1/2/4 workers.
fn analysis_serial_vs_parallel(c: &mut Criterion) {
    let m = workload();
    let insts = m.num_insts();
    let mut group = c.benchmark_group("analysis");
    group.sample_size(10);
    group.throughput(Throughput::Elements(insts as u64));
    group.bench_with_input(BenchmarkId::new("serial", insts), &m, |b, m| {
        b.iter(|| RbaaAnalysis::analyze(std::hint::black_box(m)));
    });
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new(&format!("parallel_t{threads}"), insts),
            &m,
            |b, m| {
                b.iter(|| pipeline(std::hint::black_box(m), threads));
            },
        );
    }
    group.finish();
}

/// The interprocedural GR pass alone on the many-function workload:
/// a width-1 pool (level by level) vs SCC waves at 2/4 workers
/// (byte-identical results; only wall time may differ).
fn gr_serial_vs_waves(c: &mut Criterion) {
    let m = callgraph_workload();
    let ranges = RangeAnalysis::analyze(&m);
    let nf = m.num_functions();
    let mut group = c.benchmark_group("gr_schedule");
    group.sample_size(10);
    group.throughput(Throughput::Elements(nf as u64));
    group.bench_with_input(BenchmarkId::new("serial", nf), &m, |b, m| {
        b.iter(|| {
            sra_core::GrAnalysis::analyze_with(
                std::hint::black_box(m),
                &ranges,
                GrConfig {
                    threads: 1,
                    ..GrConfig::default()
                },
            )
        });
    });
    for threads in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new(&format!("waves_t{threads}"), nf),
            &m,
            |b, m| {
                b.iter(|| {
                    sra_core::GrAnalysis::analyze_with(
                        std::hint::black_box(m),
                        &ranges,
                        GrConfig {
                            threads,
                            ..GrConfig::default()
                        },
                    )
                });
            },
        );
    }
    group.finish();
}

/// End-to-end pipeline on the many-function workload: a width-1 pool
/// vs the default width.
fn callgraph_end_to_end(c: &mut Criterion) {
    let m = callgraph_workload();
    let insts = m.num_insts();
    let mut group = c.benchmark_group("callgraph_pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(insts as u64));
    for (name, threads) in [("width_1", 1), ("width_n", pool::default_threads())] {
        group.bench_with_input(BenchmarkId::new(name, insts), &m, |b, m| {
            b.iter(|| pipeline(std::hint::black_box(m), threads));
        });
    }
    group.finish();
}

/// All-pairs evaluation: the seed per-query path vs the cached matrix,
/// unbatched (1 worker) and batched (4 workers).
fn all_pairs_paths(c: &mut Criterion) {
    let m = workload();
    let rbaa = RbaaAnalysis::analyze(&m);
    let queries = per_query_sweep(&m, &rbaa).queries;
    let mut group = c.benchmark_group("all_pairs");
    group.sample_size(10);
    group.throughput(Throughput::Elements(queries as u64));
    group.bench_function(&format!("per_query/{queries}"), |b| {
        b.iter(|| per_query_sweep(std::hint::black_box(&m), &rbaa));
    });
    for threads in [1usize, 4] {
        group.bench_function(&format!("batched_t{threads}/{queries}"), |b| {
            b.iter(|| batched_sweep(std::hint::black_box(&m), &rbaa, threads));
        });
    }
    group.finish();
}

/// Incremental sessions vs scratch re-analysis over a replayed stream
/// of single-function edits: the session pays only for the dirty
/// function's parts, the dirty GR components and the invalidated
/// matrices; the scratch path re-runs `BatchAnalysis` per edit.
fn session_vs_scratch(c: &mut Criterion) {
    let m = workload();
    let stream = edits::generate_replace_stream(&m, SESSION_EDITS, SCALING_SEED);
    let base = build_session(&m);
    let mut group = c.benchmark_group("session");
    group.sample_size(10);
    group.throughput(Throughput::Elements(SESSION_EDITS as u64));
    group.bench_function(&format!("scratch_per_edit/{SESSION_EDITS}"), |b| {
        b.iter(|| scratch_replay(std::hint::black_box(&m), &stream));
    });
    // The clone restores the pre-stream state between iterations; its
    // cost is included here (the trajectory harness excludes it).
    group.bench_function(&format!("session_per_edit/{SESSION_EDITS}"), |b| {
        b.iter(|| session_replay(&mut std::hint::black_box(&base).clone(), &stream));
    });
    group.finish();
}

/// The alias-query service under traffic: a single-threaded query loop
/// against a quiescent service vs the mixed workload (4 readers racing
/// 2 writers replaying per-tenant edit streams). The mixed case pays
/// for tenant re-analysis on every edit; snapshot isolation keeps the
/// readers at their fair CPU share regardless — the ratio the
/// `trajectory` bin gates on.
fn service_traffic(c: &mut Criterion) {
    let cfg = traffic::TrafficConfig {
        tenants: 4,
        insts_per_tenant: 2_000,
        readers: 4,
        writers: 2,
        edits_per_tenant: 4,
        queries_per_reader: 2_000,
        ..traffic::TrafficConfig::default()
    };
    let modules = traffic::build_tenants(&cfg);
    let streams = traffic::edit_streams(&cfg, &modules);

    let mut group = c.benchmark_group("service");
    group.sample_size(10);

    let quiescent = AliasService::new();
    traffic::populate(&quiescent, modules.clone());
    group.throughput(Throughput::Elements(cfg.queries_per_reader as u64));
    group.bench_function(&format!("single_thread/{}", cfg.queries_per_reader), |b| {
        b.iter(|| traffic::single_thread_queries(&quiescent, &cfg, cfg.queries_per_reader));
    });

    // `run_mixed` consumes the edit streams, so every iteration gets a
    // fresh service; the populate cost (initial per-tenant analysis)
    // is part of the measured iteration here — the trajectory harness
    // times only the mixed phase.
    group.throughput(Throughput::Elements(
        (cfg.queries_per_reader * cfg.readers) as u64,
    ));
    group.bench_function(&format!("mixed/{}r{}w", cfg.readers, cfg.writers), |b| {
        b.iter(|| {
            let service = AliasService::new();
            traffic::populate(&service, modules.clone());
            traffic::run_mixed(&service, &cfg, &streams)
        });
    });
    group.finish();
}

/// The acceptance-criterion summary: one timed round of each path and
/// the resulting speedup, printed as a plain line so the number shows
/// up in any bench log.
fn speedup_summary(c: &mut Criterion) {
    let _ = c; // the summary is a direct measurement, not a criterion case
    let m = workload();
    let rbaa = RbaaAnalysis::analyze(&m);
    // Warm-up round for fairness (page-in, allocator).
    std::hint::black_box(per_query_sweep(&m, &rbaa));
    std::hint::black_box(batched_sweep(&m, &rbaa, 4));

    let t0 = std::time::Instant::now();
    let serial_stats = per_query_sweep(&m, &rbaa);
    let per_query = t0.elapsed();
    let t0 = std::time::Instant::now();
    let batched_stats = batched_sweep(&m, &rbaa, 4);
    let batched = t0.elapsed();
    assert_eq!(serial_stats, batched_stats, "paths must agree exactly");

    let speedup = per_query.as_secs_f64() / batched.as_secs_f64();
    println!(
        "speedup: batched+cached all-pairs at 4 threads vs seed per-query path: \
         {speedup:.2}x ({batched:?} vs {per_query:?}, {} queries)",
        serial_stats.queries
    );
}

criterion_group!(
    benches,
    analysis_serial_vs_parallel,
    gr_serial_vs_waves,
    callgraph_end_to_end,
    all_pairs_paths,
    session_vs_scratch,
    service_traffic,
    speedup_summary
);
criterion_main!(benches);
