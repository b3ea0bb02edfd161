//! The traced decomposition shared by every workload: a scratch build
//! reassembled from the layers' public calls on one [`WorkerPool`],
//! and the query-layer probes, each call wrapped in a span.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sra_core::lr::{self, LrAnalysis};
use sra_core::{AliasMatrix, AnalysisConfig, GrAnalysis, GrConfig, RbaaAnalysis, WorkerPool};
use sra_ir::callgraph::CallGraph;
use sra_ir::verify::verify_module;
use sra_ir::{FuncId, Module, ValueId};
use sra_range::RangeAnalysis;

use crate::checks::{self, Sweep, Verdict};
use crate::report::Report;
use crate::trace::Tracer;

/// Prefix sums of per-function symbol budgets: each function's first
/// symbol id, so parts mint non-overlapping ids on any schedule.
fn bases(budgets: &[usize]) -> Vec<u32> {
    let mut next = 0u32;
    budgets
        .iter()
        .map(|&b| {
            let base = next;
            next += u32::try_from(b).expect("symbol budget fits u32");
            base
        })
        .collect()
}

/// A scratch build from the layers' calls: the same analysis as
/// `AnalysisSession::with_config(m, AnalysisConfig::default())`, with
/// one span per layer. `None` when the module does not verify.
pub fn build(
    m: &Module,
    pool: &WorkerPool,
    tr: &mut Tracer,
) -> Option<(RbaaAnalysis, Vec<AliasMatrix>)> {
    let config = AnalysisConfig::default();
    tr.span("ir.verify", || verify_module(m)).ok()?;
    tr.span("ir.callgraph", || CallGraph::build(m));
    let nf = m.num_functions();
    let range_parts = tr.span("range.parts", || {
        let budgets = pool.run_indexed(nf, |i| {
            sra_range::symbol_budget(m.function(FuncId::new(i)), config.range)
        });
        let first = bases(&budgets);
        pool.run_indexed(nf, |i| {
            sra_range::analyze_function_part(m.function(FuncId::new(i)), config.range, first[i])
        })
    });
    let lr_parts = tr.span("lr.parts", || {
        let budgets = pool.run_indexed(nf, |i| lr::symbol_budget(m, FuncId::new(i)));
        let first = bases(&budgets);
        pool.run_indexed(nf, |i| {
            lr::analyze_function_part(m, FuncId::new(i), first[i])
        })
    });
    let ranges = tr.span("range.assemble", || {
        RangeAnalysis::from_parts_on(range_parts, pool)
    });
    let lr = tr.span("lr.assemble", || LrAnalysis::from_parts_on(lr_parts, pool));
    let gr_config = GrConfig {
        threads: config.threads,
        ..config.gr
    };
    let gr = tr.span("gr.solve", || {
        GrAnalysis::analyze_on(m, &ranges, gr_config, pool)
    });
    let rbaa = RbaaAnalysis::from_pieces(ranges, gr, lr);
    let matrices = tr.span("query.matrices", || {
        if nf == 1 {
            vec![AliasMatrix::build_with_on(&rbaa, m, FuncId::new(0), pool)]
        } else {
            AliasMatrix::build_all_on(&rbaa, m, pool)
        }
    });
    Some((rbaa, matrices))
}

/// The verdicts a layered build's matrices give, in sweep order.
pub fn matrix_sweep(m: &Module, rbaa: &RbaaAnalysis, matrices: &[AliasMatrix]) -> Sweep {
    checks::sweep(m, |f, p, q| {
        matrices[f.index()]
            .lookup(p, q)
            .unwrap_or_else(|| rbaa.alias_with_test(f, p, q))
    })
}

/// Every intra-function pair of `m`, in sweep order.
pub fn all_pairs(m: &Module) -> Vec<(FuncId, ValueId, ValueId)> {
    let mut out = Vec::new();
    for f in m.func_ids() {
        let ptrs = sra_core::pointer_values(m, f);
        for (i, &p) in ptrs.iter().enumerate() {
            for &q in &ptrs[i + 1..] {
                out.push((f, p, q));
            }
        }
    }
    out
}

/// Self time of each layer of the layered builds traced so far.
pub fn record_build_times(tr: &Tracer, report: &mut Report) {
    for (metric, span) in [
        ("ir.verify_ms", "ir.verify"),
        ("ir.callgraph_ms", "ir.callgraph"),
        ("range.parts_ms", "range.parts"),
        ("range.assemble_ms", "range.assemble"),
        ("lr.parts_ms", "lr.parts"),
        ("lr.assemble_ms", "lr.assemble"),
        ("gr.solve_ms", "gr.solve"),
        ("query.matrices_ms", "query.matrices"),
    ] {
        report.metric(metric, self_ms(tr, span, false), "ms");
    }
}

/// Matrix and arena figures of a layered build.
pub fn record_build_counts(rbaa: &RbaaAnalysis, matrices: &[AliasMatrix], report: &mut Report) {
    let packed: usize = matrices.iter().map(|mx| mx.bytes().packed_bytes).sum();
    report.metric("query.matrix_mib", packed as f64 / (1024.0 * 1024.0), "MiB");
    report.metric(
        "gr.ascending_sweeps",
        f64::from(rbaa.gr().ascending_sweeps()),
        "count",
    );
    let arena = rbaa.arena_stats();
    report.metric("arena.exprs", arena.exprs as f64, "count");
    let lookups = (arena.hits + arena.misses).max(1);
    report.metric(
        "arena.memo_hit_pct",
        100.0 * arena.hits as f64 / lookups as f64,
        "%",
    );
}

/// Query-layer probes over a served analysis: the all-pairs sweep
/// through `serve`, a seeded mix of random pair lookups, and a demand
/// cache answering the same sweep cold and then warm. Every answer is
/// compared with `reference`; disagreements count as mismatches.
pub fn probe_queries(
    m: &Module,
    rbaa: &RbaaAnalysis,
    serve: impl Fn(FuncId, ValueId, ValueId) -> Verdict,
    reference: &Sweep,
    seed: u64,
    tr: &mut Tracer,
    report: &mut Report,
) {
    let sweep = tr.span("query.sweep", || checks::sweep(m, &serve));
    report.failures.verdict_mismatches += checks::mismatches(&sweep, reference);
    report.attempted += sweep.pairs();
    report.metric("query.pairs", sweep.pairs() as f64, "count");

    let pairs = all_pairs(m);
    if pairs.is_empty() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10_0c_a7);
    const LOOKUPS: usize = 400_000;
    let picks: Vec<usize> = (0..LOOKUPS)
        .map(|_| rng.gen_range(0..pairs.len()))
        .collect();
    let open = tr.enter("query.lookup");
    let t = std::time::Instant::now();
    let mut wrong = 0u64;
    for &k in &picks {
        let (f, p, q) = pairs[k];
        wrong +=
            u64::from(checks::encode(std::hint::black_box(serve(f, p, q))) != reference.codes[k]);
    }
    let lookup_ns = t.elapsed().as_nanos() as f64 / LOOKUPS as f64;
    tr.exit(open);
    report.failures.verdict_mismatches += wrong;
    report.attempted += LOOKUPS as u64;
    report.metric("query.lookup_ns", lookup_ns, "ns");

    let mut cache = rbaa.demand_cache();
    let mut demand = |tr: &mut Tracer, name: &'static str| {
        let open = tr.enter(name);
        let t = std::time::Instant::now();
        let s = checks::sweep(m, |f, p, q| cache.query(rbaa, f, p, q));
        let per_query_ns = t.elapsed().as_nanos() as f64 / s.pairs().max(1) as f64;
        tr.exit(open);
        (s, per_query_ns)
    };
    let (cold, cold_ns) = demand(tr, "query.demand_cold");
    let (warm, warm_ns) = demand(tr, "query.demand_warm");
    report.failures.verdict_mismatches +=
        checks::mismatches(&cold, reference) + checks::mismatches(&warm, reference);
    report.attempted += cold.pairs() + warm.pairs();
    report.metric("query.demand_cold_us", cold_ns / 1000.0, "us");
    report.metric("query.demand_warm_ns", warm_ns, "ns");
    report.metric(
        "query.pair_proofs",
        cache.stats().pair_misses as f64,
        "count",
    );
}

/// Records how much of the `root` spans (summed) their child layer
/// spans cover: `trace.total_s`, `trace.layers_s`, and `trace.layers_pct`
/// as a share of `untraced_s`, the same work timed without spans.
/// Returns the traced total.
pub fn record_coverage(tr: &Tracer, root: &str, untraced_s: f64, report: &mut Report) -> f64 {
    let total: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.name == root)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum();
    let layers_s = total - self_ms(tr, root, false) / 1e3;
    report.metric("trace.total_s", total, "s");
    report.metric("trace.layers_s", layers_s, "s");
    report.metric("trace.layers_pct", 100.0 * layers_s / untraced_s, "%");
    total
}

/// Milliseconds of self time of span `name`: the sum over its
/// occurrences, or their median when `median` is set.
pub fn self_ms(tr: &Tracer, name: &str, median: bool) -> f64 {
    let own = tr.self_times();
    let Some(v) = own.get(name) else { return 0.0 };
    let ms: Vec<f64> = v.iter().map(|&ns| ns as f64 / 1e6).collect();
    if median {
        crate::stats::median(&ms)
    } else {
        ms.iter().sum()
    }
}
