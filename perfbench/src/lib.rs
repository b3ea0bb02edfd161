//! The repository's benchmark: three workloads driven through the
//! program's public API, each checked against computations made apart
//! from the program, reporting end-to-end metrics (untraced) or
//! per-layer metrics (traced). See `README.md` next to this crate.

pub mod checks;
pub mod cold;
pub mod fleet;
pub mod layers;
pub mod report;
pub mod stats;
pub mod steal;
pub mod text;
pub mod trace;

use std::sync::Arc;

use report::Report;
use sra_core::{AliasService, EpochSnapshot};
use sra_ir::{FuncId, ValueId};
use steal::{Stopwatch, Timed};

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("build_s", "s"),
    ("verdicts_s", "s"),
    ("restart_s", "s"),
    ("snapshot_mib", "MiB"),
    ("edit_p50_ms", "ms"),
    ("edit_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("noalias_pct", "%"),
];

/// Per-layer metrics every traced run reports, with their units. A
/// layer the workload does not exercise reports 0 (no work done).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_ms", "ms"),
    ("lang.compile_ms", "ms"),
    ("lang.diff_ms", "ms"),
    ("lang.units_relowered", "count"),
    ("ir.verify_ms", "ms"),
    ("ir.callgraph_ms", "ms"),
    ("range.parts_ms", "ms"),
    ("range.assemble_ms", "ms"),
    ("lr.parts_ms", "ms"),
    ("lr.assemble_ms", "ms"),
    ("gr.solve_ms", "ms"),
    ("gr.ascending_sweeps", "count"),
    ("query.matrices_ms", "ms"),
    ("query.matrix_mib", "MiB"),
    ("query.sweep_ms", "ms"),
    ("query.pairs", "count"),
    ("query.lookup_ns", "ns"),
    ("query.demand_cold_us", "us"),
    ("query.demand_warm_ns", "ns"),
    ("query.pair_proofs", "count"),
    ("arena.exprs", "count"),
    ("arena.memo_hit_pct", "%"),
    ("session.edit_ms", "ms"),
    ("session.freeze_ms", "ms"),
    ("session.parts_reanalyzed", "count"),
    ("session.parts_rebased", "count"),
    ("session.gr_components_solved", "count"),
    ("session.matrices_rebuilt", "count"),
    ("service.edit_ms", "ms"),
    ("service.snapshot_ns", "ns"),
    ("service.os_threads", "count"),
    ("service.restore_ms", "ms"),
    ("persist.load_ms", "ms"),
    ("persist.first_query_us", "us"),
    ("persist.save_ms", "ms"),
    ("trace.layers_s", "s"),
    ("trace.total_s", "s"),
    ("trace.layers_pct", "%"),
];

/// The input seed of round `round` of a run with `--seed seed`. Each
/// round draws fresh inputs of the same shape, so a run's medians
/// average over several inputs rather than depend on one.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    sra_workloads::traffic::mix_seed(seed, 11, round as u64)
}

/// Restores a whole service from snapshot `bytes` until `pair` of
/// `tenant` is answered. A failure counts as a persist error. Returns
/// the service, the tenant's snapshot and the time it took.
pub fn restart_service(
    bytes: &[u8],
    tenant: &str,
    pair: (FuncId, ValueId, ValueId),
    report: &mut Report,
) -> Option<((AliasService, Arc<EpochSnapshot>), Timed)> {
    let t = Stopwatch::start();
    let restored = AliasService::restore(&mut &bytes[..]).ok();
    let Some((restored, snap)) = restored.and_then(|r| r.snapshot(tenant).ok().map(|s| (r, s)))
    else {
        report.failures.persist_errors += 1;
        return None;
    };
    std::hint::black_box(snap.alias_with_test(pair.0, pair.1, pair.2));
    Some(((restored, snap), t.read()))
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["cold_module", "text_edits", "tenant_fleet"];

/// Runs `workload` for about `seconds` on inputs made from `seed`.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let mut report = match (workload, traced) {
        ("cold_module", false) => cold::run(seed, seconds),
        ("cold_module", true) => cold::run_traced(seed, seconds),
        ("text_edits", false) => text::run(seed, seconds),
        ("text_edits", true) => text::run_traced(seed, seconds),
        ("tenant_fleet", false) => fleet::run(seed, seconds),
        ("tenant_fleet", true) => fleet::run_traced(seed, seconds),
        _ => {
            return Err(format!(
                "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    let wanted = if traced { PER_LAYER } else { END_TO_END };
    order_metrics(&mut report, wanted, traced);
    Ok(report)
}

/// Puts the metrics in `wanted` order. A per-layer metric the workload
/// did not produce reads 0; a missing end-to-end metric is a bug.
fn order_metrics(report: &mut Report, wanted: &[(&str, &'static str)], fill_zero: bool) {
    let mut got = std::mem::take(&mut report.metrics);
    for &(name, unit) in wanted {
        match got.iter().position(|(n, _, _)| n == name) {
            Some(i) => {
                let (n, v, u) = got.swap_remove(i);
                assert_eq!(u, unit, "unit of {name}");
                report.metrics.push((n, v, u));
            }
            None => {
                assert!(fill_zero, "workload did not report {name}");
                report.metric(name, 0.0, unit);
            }
        }
    }
    assert!(got.is_empty(), "unlisted metrics: {got:?}");
}
