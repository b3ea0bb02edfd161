//! `text_edits`: an IDE's use of the analysis. One source-backed
//! `AliasService` tenant takes a closed loop of whole-text edits from
//! one client; after each edit is visible, the client asks every pair
//! of the edited function on the new epoch. Each round ends by checking
//! the published verdicts against a scratch compile of the final text,
//! then saving and restoring the service.

use std::collections::HashMap;
use std::time::Instant;

use sra_core::{AliasService, AnalysisConfig, AnalysisSession, EpochSnapshot};
use sra_ir::{FuncId, Module};
use sra_lang::{SourceDiff, SourceProgram};
use sra_workloads::source_edits::{self, SourceEditStep};

use crate::checks::{self, Sweep};
use crate::layers;
use crate::report::{self, Report, Samples, RESTARTS};
use crate::stats::{median, percentile, secs};
use crate::steal::{Stopwatch, Timed};
use crate::trace::Tracer;

/// Instructions of the initial program (at least).
pub const INSTS: usize = 20_000;
/// Edits per round.
pub const EDITS_PER_ROUND: usize = 35;
/// Rounds every run makes; the first is a warm-up, and the others
/// time at least 100 edits, so ten lie beyond p90.
pub const MIN_ROUNDS: usize = 4;
/// The tenant's name.
const TENANT: &str = "ide";
/// The function queried after an edit that changed no function's text
/// (whitespace, reorder, removal): the root of island 0, never removed.
const FALLBACK: &str = "f0_0";

/// The function a line of a generated program starts: generated
/// functions begin with a line `int NAME(` or `export int NAME(`.
fn starts_function(line: &str) -> Option<&str> {
    let head = line.strip_prefix("export ").unwrap_or(line);
    let rest = head.strip_prefix("int ")?;
    rest.contains('(').then(|| rest.split('(').next()).flatten()
}

/// Function name → its lines, for the functions of a generated program.
fn function_texts(text: &str) -> HashMap<&str, Vec<&str>> {
    let mut out: HashMap<&str, Vec<&str>> = HashMap::new();
    let mut current = None;
    for line in text.lines() {
        if let Some(name) = starts_function(line) {
            current = Some(name);
        }
        if let Some(name) = current {
            out.entry(name).or_default().push(line);
        }
    }
    out
}

/// For each step, the function the client queries afterwards: the
/// first function (in text order) whose text the step changed or
/// added, or [`FALLBACK`].
fn edited_functions(initial: &str, steps: &[SourceEditStep]) -> Vec<String> {
    let mut before = initial;
    steps
        .iter()
        .map(|step| {
            let old = function_texts(before);
            let new = function_texts(&step.text);
            let changed = step.text.lines().find_map(|line| {
                let name = starts_function(line)?;
                (old.get(name) != new.get(name)).then(|| name.to_string())
            });
            before = &step.text;
            changed.unwrap_or_else(|| FALLBACK.to_string())
        })
        .collect()
}

/// Answers every pair of function `name` on `snap`.
fn query_function(snap: &EpochSnapshot, name: &str) -> usize {
    let m = snap.module();
    let f = m.function_by_name(name).unwrap_or(FuncId::new(0));
    let ptrs = sra_core::pointer_values(m, f);
    let mut n = 0;
    for (i, &p) in ptrs.iter().enumerate() {
        for &q in &ptrs[i + 1..] {
            std::hint::black_box(snap.alias_with_test(f, p, q));
            n += 1;
        }
    }
    n
}

/// The snapshot's sweep in its own function order.
fn snapshot_sweep(snap: &EpochSnapshot) -> Sweep {
    checks::sweep(snap.module(), |f, p, q| snap.alias_with_test(f, p, q))
}

/// Compares the published snapshot with a scratch session of
/// `sra_lang::compile(final_text)`, pair by pair (functions matched by
/// name). Returns the scratch build-plus-sweep time and its sweep.
pub fn check_against_scratch(
    snap: &EpochSnapshot,
    final_text: &str,
    report: &mut Report,
) -> Option<(Timed, Sweep)> {
    let Ok(m) = sra_lang::compile(final_text) else {
        report.failures.verdict_mismatches += 1;
        return None;
    };
    let t = Stopwatch::start();
    let Ok(scratch) = AnalysisSession::with_config(m, AnalysisConfig::default()) else {
        report.failures.verdict_mismatches += 1;
        return None;
    };
    let sweep = checks::sweep(scratch.module(), |f, p, q| scratch.alias_with_test(f, p, q));
    let took = t.read();
    let (wrong, pairs) = checks::compare_by_name(
        scratch.module(),
        |f, p, q| scratch.alias_with_test(f, p, q),
        snap.module(),
        |f, p, q| snap.alias_with_test(f, p, q),
    );
    report.failures.verdict_mismatches += wrong;
    report.attempted += pairs;
    Some((took, sweep))
}

fn parts_reanalyzed(service: &AliasService) -> usize {
    service
        .with_writer(TENANT, |w| w.stats().parts_reanalyzed)
        .unwrap_or(usize::MAX)
}

/// Runs whole rounds for about `seconds`; see the module docs.
pub fn run(seed: u64, seconds: f64) -> Report {
    let start = Instant::now();
    let mut report = Report::default();
    let mut samples = Samples::default();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || secs(start) < seconds {
        rounds += 1;
        let mut round = Samples::default();
        let t0 = Stopwatch::start();
        let mut w = source_edits::generate_sized_workload(INSTS, crate::round_seed(seed, rounds));
        let text = w.text();
        let service = AliasService::with_config(AnalysisConfig::default());
        let tb = Stopwatch::start();
        if service.add_tenant_source(TENANT, &text).is_err() {
            report.failures.edits_rejected += 1;
            continue;
        }
        let built = tb.read();
        let Ok(snap) = service.snapshot(TENANT) else {
            report.failures.verdict_mismatches += 1;
            continue;
        };
        let (f, p, q) =
            checks::first_pair(snap.module()).expect("generated programs have pointer pairs");
        std::hint::black_box(snap.alias_with_test(f, p, q));
        round.setup.push(t0.read());
        round.build.push(built);

        let steps = w.edit_stream(EDITS_PER_ROUND);
        let targets = edited_functions(&text, &steps);
        if rounds == 1 {
            println!(
                "{}",
                checks::input_line("initial-text", checks::describe(snap.module()))
            );
            let kinds: Vec<String> = steps.iter().map(|s| format!("{:?}", s.kind)).collect();
            println!("input: edit kinds per round {kinds:?}");
        }
        let mut epoch = snap.epoch();
        let mut reanalyzed = parts_reanalyzed(&service);
        let pass = Stopwatch::start();
        let mut lat = Vec::with_capacity(steps.len());
        for (step, target) in steps.iter().zip(&targets) {
            report.attempted += 1;
            let t = Instant::now();
            let Ok(published) = service.edit_tenant_source(TENANT, &step.text) else {
                report.failures.edits_rejected += 1;
                continue;
            };
            let Ok(snap) = service.snapshot(TENANT) else {
                report.failures.verdict_mismatches += 1;
                continue;
            };
            report.attempted += query_function(&snap, target) as u64;
            lat.push(secs(t));
            // Exactly one epoch per edit, visible to the next reader.
            report.failures.edits_rejected +=
                u64::from(published != epoch + 1 || snap.epoch() != published);
            epoch = published;
            let now = parts_reanalyzed(&service);
            if step.kind.is_noop() {
                report.failures.verdict_mismatches += u64::from(now != reanalyzed);
            }
            reanalyzed = now;
        }
        round.push_edits(pass.read(), lat);

        let Ok(snap) = service.snapshot(TENANT) else {
            report.failures.verdict_mismatches += 1;
            continue;
        };
        let final_text = steps.last().map_or(text.as_str(), |s| s.text.as_str());
        if let Some((took, sweep)) = check_against_scratch(&snap, final_text, &mut report) {
            round.verdicts.push(took);
            round.noalias_pct.push(sweep.noalias_pct());
        }

        let live = snapshot_sweep(&snap);
        // The first query after the restart asks about the saved state
        // (a pair of the initial text may name values an edit removed).
        let (f, p, q) =
            checks::first_pair(snap.module()).expect("edited programs keep pointer pairs");
        let mut bytes = Vec::new();
        report.attempted += 1 + RESTARTS as u64;
        if service.save(&mut bytes).is_err() {
            report.failures.persist_errors += 1;
            continue;
        }
        drop(service);
        round
            .snapshot_mib
            .push(bytes.len() as f64 / (1024.0 * 1024.0));
        let Some((_service, back)) = round.time_restarts(RESTARTS, || {
            crate::restart_service(&bytes, TENANT, (f, p, q), &mut report)
        }) else {
            continue;
        };
        report.failures.persist_errors += u64::from(back.epoch() != epoch);
        report.failures.verdict_mismatches += checks::mismatches(&live, &snapshot_sweep(&back));
        report.attempted += live.pairs();
        // The first round warms the process up (heap growth, page
        // faults); its checks count, its times do not.
        if rounds > 1 {
            samples.absorb(round);
        }
    }
    println!("{}", samples.unscaled_line());
    samples.record(&mut report, report::status_mib("VmHWM"));
    println!(
        "rounds={rounds} timed_edits={} in {:.1}s",
        samples.edit.len(),
        secs(start)
    );
    report
}

/// Units a diff re-lowered.
fn relowered(diff: &SourceDiff) -> usize {
    match diff {
        SourceDiff::Noop => 0,
        SourceDiff::Incremental { relowered, .. } => *relowered,
        SourceDiff::FullRebuild { module } => module.num_functions(),
    }
}

/// The traced variant: one round. The service takes each edit untraced
/// (the reference latency); the same edit is then replayed through the
/// layers' calls — `SourceProgram` clone + `apply_edit`,
/// `AnalysisSession::apply_source_edit`, `freeze`, the queries — each
/// in a span.
pub fn run_traced(seed: u64, _seconds: f64) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::default();
    let (mut w, text) = tr.span("workloads.gen", || {
        let w = source_edits::generate_sized_workload(INSTS, seed);
        let text = w.text();
        (w, text)
    });
    let Ok(mut program) = tr.span("lang.compile", || SourceProgram::new(&text)) else {
        report.failures.edits_rejected += 1;
        return report;
    };
    let m: Module = program.module().clone();

    let service = AliasService::with_config(AnalysisConfig::default());
    let tb = Instant::now();
    if service.add_tenant_source(TENANT, &text).is_err() {
        report.failures.edits_rejected += 1;
        return report;
    }
    let untraced_build = secs(tb);
    let pool = sra_core::WorkerPool::new(AnalysisConfig::default().threads);
    let root = tr.enter("build");
    let built = layers::build(&m, &pool, &mut tr);
    tr.exit(root);
    let Some((rbaa, matrices)) = built else {
        report.failures.verdict_mismatches += 1;
        return report;
    };
    let snap = service.snapshot(TENANT).expect("tenant registered above");
    report.failures.verdict_mismatches += checks::mismatches(
        &layers::matrix_sweep(&m, &rbaa, &matrices),
        &snapshot_sweep(&snap),
    );
    layers::record_build_times(&tr, &mut report);
    layers::record_build_counts(&rbaa, &matrices, &mut report);
    drop((rbaa, matrices, pool));

    let Ok(mut session) = AnalysisSession::with_config(m, AnalysisConfig::default()) else {
        report.failures.verdict_mismatches += 1;
        return report;
    };
    let steps = w.edit_stream(EDITS_PER_ROUND);
    let targets = edited_functions(&text, &steps);
    let (mut service_ms, mut untraced_ms, mut units) = (Vec::new(), Vec::new(), 0usize);
    for (step, target) in steps.iter().zip(&targets) {
        report.attempted += 1;
        let t = Instant::now();
        let published = service.edit_tenant_source(TENANT, &step.text);
        let service_edit = secs(t);
        let Ok(snap) = service.snapshot(TENANT) else {
            report.failures.edits_rejected += 1;
            continue;
        };
        query_function(&snap, target);
        untraced_ms.push(secs(t) * 1e3);
        service_ms.push(service_edit * 1e3);
        let _ = tr.span("service.snapshot", || service.snapshot(TENANT));
        if published.is_err() {
            report.failures.edits_rejected += 1;
            continue;
        }

        let edit = tr.enter("edit");
        let diff = tr.span("lang.diff", || {
            let mut next = program.clone();
            next.apply_edit(&step.text).map(|d| (next, d))
        });
        let Ok((next, diff)) = diff else {
            tr.exit(edit);
            report.failures.edits_rejected += 1;
            continue;
        };
        units += relowered(&diff);
        program = next;
        let applied = tr.span("session.edit", || session.apply_source_edit(diff));
        let frozen = tr.span("session.freeze", || session.freeze());
        let open = tr.enter("query.edit_pairs");
        let f = frozen
            .module()
            .function_by_name(target)
            .unwrap_or(FuncId::new(0));
        let ptrs = sra_core::pointer_values(frozen.module(), f);
        let mut wrong = 0u64;
        for (i, &p) in ptrs.iter().enumerate() {
            for &q in &ptrs[i + 1..] {
                wrong +=
                    u64::from(frozen.alias_with_test(f, p, q) != snap.alias_with_test(f, p, q));
            }
        }
        tr.exit(open);
        tr.exit(edit);
        report.failures.edits_rejected += u64::from(applied.is_err());
        report.failures.verdict_mismatches += wrong;
    }

    let stats = *session.stats();
    report.metric(
        "workloads.gen_ms",
        layers::self_ms(&tr, "workloads.gen", false),
        "ms",
    );
    report.metric(
        "lang.compile_ms",
        layers::self_ms(&tr, "lang.compile", false),
        "ms",
    );
    report.metric(
        "lang.diff_ms",
        layers::self_ms(&tr, "lang.diff", true),
        "ms",
    );
    report.metric("lang.units_relowered", units as f64, "count");
    report.metric(
        "session.edit_ms",
        layers::self_ms(&tr, "session.edit", true),
        "ms",
    );
    report.metric(
        "session.freeze_ms",
        layers::self_ms(&tr, "session.freeze", true),
        "ms",
    );
    report.metric(
        "session.parts_reanalyzed",
        stats.parts_reanalyzed as f64,
        "count",
    );
    report.metric("session.parts_rebased", stats.parts_rebased as f64, "count");
    report.metric(
        "session.gr_components_solved",
        stats.gr_components_solved as f64,
        "count",
    );
    report.metric(
        "session.matrices_rebuilt",
        stats.matrices_rebuilt as f64,
        "count",
    );
    report.metric("service.edit_ms", median(&service_ms), "ms");
    report.metric(
        "service.snapshot_ns",
        layers::self_ms(&tr, "service.snapshot", true) * 1e6,
        "ns",
    );

    // The edit's layers against the untraced edit the timed runs see.
    let edit_spans: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "edit")
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect();
    let traced_p50 = percentile(&edit_spans, 0.5);
    let layers_p50 = [
        "lang.diff",
        "session.edit",
        "session.freeze",
        "query.edit_pairs",
    ]
    .iter()
    .map(|s| layers::self_ms(&tr, s, true) / 1e3)
    .sum::<f64>();
    let untraced_p50 = percentile(&untraced_ms, 0.5) / 1e3;
    report.metric("trace.total_s", traced_p50, "s");
    report.metric("trace.layers_s", layers_p50, "s");
    report.metric("trace.layers_pct", 100.0 * layers_p50 / untraced_p50, "%");
    println!(
        "trace: untraced service build {untraced_build:.3}s; edit p50 untraced {:.1}ms, traced {:.1}ms, layers {:.1}ms",
        untraced_p50 * 1e3,
        traced_p50 * 1e3,
        layers_p50 * 1e3
    );

    // Scratch check of the final text, query probes, persistence.
    let snap = service.snapshot(TENANT).expect("tenant registered above");
    let final_text = program.text().to_string();
    check_against_scratch(&snap, &final_text, &mut report);
    let reference = checks::sweep(session.module(), |f, p, q| snap.alias_with_test(f, p, q));
    let m = session.module().clone();
    layers::probe_queries(
        &m,
        session.analysis(),
        |f, p, q| session.alias_with_test(f, p, q),
        &reference,
        seed,
        &mut tr,
        &mut report,
    );
    report.metric(
        "query.sweep_ms",
        layers::self_ms(&tr, "query.sweep", false),
        "ms",
    );
    let mut bytes = Vec::new();
    report.attempted += 2;
    if service.save(&mut bytes).is_err() {
        report.failures.persist_errors += 1;
    }
    drop(service);
    match tr.span("service.restore", || {
        AliasService::restore(&mut bytes.as_slice())
    }) {
        Ok(restored) => {
            report.failures.persist_errors +=
                u64::from(restored.snapshot(TENANT).map(|s| s.epoch()).ok() != Some(snap.epoch()));
            report.metric(
                "service.os_threads",
                report::status_field("Threads").unwrap_or(0.0),
                "count",
            );
        }
        Err(_) => report.failures.persist_errors += 1,
    }
    report.metric(
        "service.restore_ms",
        layers::self_ms(&tr, "service.restore", false),
        "ms",
    );
    crate::trace::write_spans(&tr, "text_edits", seed);
    report
}
