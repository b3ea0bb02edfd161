//! `cold_module`: a compiler pass's use of the analysis. One generated
//! module is built from scratch, every intra-function pair is answered,
//! the session is saved and restored, and every pair is answered again.
//! Then a transformation pass rewrites single functions of the restored
//! session, each followed by the rewritten function's pair queries.

use std::time::Instant;

use sra_core::{AnalysisConfig, AnalysisSession, PersistError};
use sra_ir::{FuncId, Module, ValueId};
use sra_workloads::{edits, scaling};

use crate::checks::{self, Sweep};
use crate::layers;
use crate::report::{self, Report, Samples, RESTARTS};
use crate::stats::secs;
use crate::steal::{Stopwatch, Timed};
use crate::trace::Tracer;

/// Instructions of the generated module.
pub const INSTS: usize = 100_000;
/// Function rewrites per round; round `r` draws its own rewrites.
pub const EDITS_PER_ROUND: usize = 4;
/// Rounds every run makes, however short `--seconds` is; the first is
/// a warm-up, the last also runs the costly checks.
pub const MIN_ROUNDS: usize = 4;
/// The value the interpreter's `atoi` returns in the oracle run.
pub const ATOI: i128 = 8;

fn first_pair(m: &Module) -> (FuncId, ValueId, ValueId) {
    checks::first_pair(m).expect("generated modules have pointer pairs")
}

fn save(s: &AnalysisSession) -> Result<Vec<u8>, PersistError> {
    let mut bytes = Vec::new();
    s.save(&mut bytes)?;
    Ok(bytes)
}

/// Restarts from snapshot `bytes` until `pair` is answered. A load
/// error counts as a persist error. Returns the session and the time
/// it took.
pub fn restart_from(
    bytes: &[u8],
    pair: (FuncId, ValueId, ValueId),
    report: &mut Report,
) -> Option<(AnalysisSession, Timed)> {
    let t = Stopwatch::start();
    let Ok(restored) = AnalysisSession::load(&mut &bytes[..]) else {
        report.failures.persist_errors += 1;
        return None;
    };
    std::hint::black_box(restored.alias_with_test(pair.0, pair.1, pair.2));
    Some((restored, t.read()))
}

/// Runs whole rounds for about `seconds`; see the module docs.
pub fn run(seed: u64, seconds: f64) -> Report {
    let start = Instant::now();
    let mut report = Report::default();
    let mut samples = Samples::default();
    let mut peak_rss_mib = 0.0;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || secs(start) < seconds {
        rounds += 1;
        let mut round = Samples::default();
        let t0 = Stopwatch::start();
        let m = scaling::generate_module(INSTS, crate::round_seed(seed, rounds));
        let pair = first_pair(&m);
        let tb = Stopwatch::start();
        let session = match AnalysisSession::with_config(m, AnalysisConfig::default()) {
            Ok(s) => s,
            Err(_) => {
                report.failures.verdict_mismatches += 1;
                continue;
            }
        };
        let built = tb.read();
        std::hint::black_box(session.alias_with_test(pair.0, pair.1, pair.2));
        round.setup.push(t0.read());
        round.build.push(built);
        if rounds == 1 {
            println!(
                "{}",
                checks::input_line("module", checks::describe(session.module()))
            );
        }

        let ts = Stopwatch::start();
        let sweep = checks::sweep(session.module(), |f, p, q| session.alias_with_test(f, p, q));
        round.verdicts.push(built.plus(ts.read()));
        round.noalias_pct.push(sweep.noalias_pct());

        let Ok(bytes) = save(&session) else {
            report.failures.persist_errors += 1;
            continue;
        };
        round
            .snapshot_mib
            .push(bytes.len() as f64 / (1024.0 * 1024.0));
        let Some(restored) =
            round.time_restarts(RESTARTS, || restart_from(&bytes, pair, &mut report))
        else {
            continue;
        };

        // The restored session answers every pair alike and saves to
        // the same bytes.
        let again = checks::sweep(restored.module(), |f, p, q| {
            restored.alias_with_test(f, p, q)
        });
        report.failures.verdict_mismatches += checks::mismatches(&sweep, &again);
        report.failures.persist_errors += u64::from(save(&restored).map_or(true, |b| b != bytes));
        report.attempted += 2 * sweep.pairs() + 2 + RESTARTS as u64;

        let stream_seed = sra_workloads::traffic::mix_seed(seed, 7, rounds as u64);
        let pass = Stopwatch::start();
        let (lat, rewritten) = rewrite_pass(restored, stream_seed, &mut report);
        round.push_edits(pass.read(), lat);
        // The first round warms the process up (heap growth, page
        // faults); its checks count, its times do not.
        if rounds > 1 {
            samples.absorb(round);
        }
        // The last round also runs the costly checks, after the peak
        // resident memory is read, so the peak covers the rounds alone:
        // the oracle, and a scratch session of the rewritten module.
        if rounds >= MIN_ROUNDS && secs(start) >= seconds {
            peak_rss_mib = report::status_mib("VmHWM");
            oracle_pass(&session, &sweep, &mut report);
            drop((session, sweep));
            check_rewritten(&rewritten, &mut report);
        }
    }
    println!("{}", samples.unscaled_line());
    samples.record(&mut report, peak_rss_mib);
    println!(
        "rounds={rounds} timed_edits={} in {:.1}s",
        samples.edit.len(),
        secs(start)
    );
    report
}

/// Checks every `NoAlias` of `sweep` against a concrete run of the
/// module's `main` under the interpreter.
fn oracle_pass(session: &AnalysisSession, sweep: &Sweep, report: &mut Report) {
    let t = Instant::now();
    let oracle = checks::oracle_check(session.module(), session.analysis(), sweep, ATOI);
    println!(
        "oracle: claims={} observed={} violations={} trapped={} in {:.2}s",
        oracle.claims,
        oracle.observed,
        oracle.violations,
        oracle.trapped,
        secs(t)
    );
    report.attempted += oracle.claims;
    report.failures.oracle_violations += oracle.violations;
    report.invariant("oracle run ends without a trap", !oracle.trapped);
    report.invariant("some NoAlias claims were observed", oracle.observed > 0);
}

/// Rewrites single functions of `session` one at a time; each rewrite
/// is timed until the rewritten function's pairs are answered. Returns
/// the latencies in seconds and the rewritten session.
fn rewrite_pass(
    mut session: AnalysisSession,
    seed: u64,
    report: &mut Report,
) -> (Vec<f64>, AnalysisSession) {
    let stream = edits::generate_replace_stream(session.module(), EDITS_PER_ROUND, seed);
    let mut lat = Vec::with_capacity(stream.len());
    for edit in stream {
        let edits::Edit::Replace { func, body } = edit else {
            unreachable!("replace streams hold replacements only")
        };
        report.attempted += 1;
        let t = Instant::now();
        if session.replace_function(func, body).is_err() {
            report.failures.edits_rejected += 1;
            continue;
        }
        let ptrs = sra_core::pointer_values(session.module(), func);
        for (i, &p) in ptrs.iter().enumerate() {
            for &q in &ptrs[i + 1..] {
                std::hint::black_box(session.alias_with_test(func, p, q));
            }
        }
        lat.push(secs(t));
    }
    (lat, session)
}

/// Compares the rewritten session pair by pair with a scratch session
/// of its module.
fn check_rewritten(session: &AnalysisSession, report: &mut Report) {
    let live = checks::sweep(session.module(), |f, p, q| session.alias_with_test(f, p, q));
    match AnalysisSession::with_config(session.module().clone(), AnalysisConfig::default()) {
        Ok(scratch) => {
            let fresh = checks::sweep(scratch.module(), |f, p, q| scratch.alias_with_test(f, p, q));
            report.failures.verdict_mismatches += checks::mismatches(&live, &fresh);
            report.attempted += live.pairs();
        }
        Err(_) => report.failures.verdict_mismatches += 1,
    }
}

/// The traced variant: one round through the layers' calls.
pub fn run_traced(seed: u64, _seconds: f64) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::default();
    let m = tr.span("workloads.gen", || scaling::generate_module(INSTS, seed));
    report.metric(
        "workloads.gen_ms",
        layers::self_ms(&tr, "workloads.gen", false),
        "ms",
    );

    // Untraced reference: the session build the timed runs measure,
    // after one warm-up build (the timed runs skip their first round).
    drop(AnalysisSession::with_config(
        m.clone(),
        AnalysisConfig::default(),
    ));
    let tb = Instant::now();
    let session = AnalysisSession::with_config(m.clone(), AnalysisConfig::default())
        .expect("generated modules verify");
    let untraced_build = secs(tb);
    let reference = checks::sweep(session.module(), |f, p, q| session.alias_with_test(f, p, q));

    let pool = sra_core::WorkerPool::new(AnalysisConfig::default().threads);
    let root = tr.enter("build");
    let built = layers::build(&m, &pool, &mut tr);
    tr.exit(root);
    let Some((rbaa, matrices)) = built else {
        report.failures.verdict_mismatches += 1;
        return report;
    };
    let layered = layers::matrix_sweep(&m, &rbaa, &matrices);
    report.failures.verdict_mismatches += checks::mismatches(&layered, &reference);
    report.attempted += layered.pairs();
    layers::record_build_times(&tr, &mut report);
    layers::record_build_counts(&rbaa, &matrices, &mut report);
    let traced_total = layers::record_coverage(&tr, "build", untraced_build, &mut report);
    println!("trace: untraced session build {untraced_build:.3}s, traced layered build {traced_total:.3}s");

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

    let bytes = tr.span("persist.save", || save(&session));
    report.metric(
        "persist.save_ms",
        layers::self_ms(&tr, "persist.save", false),
        "ms",
    );
    report.attempted += 2;
    match bytes.map(|b| tr.span("persist.load", || AnalysisSession::load(&mut b.as_slice()))) {
        Ok(Ok(restored)) => {
            let (f, p, q) = first_pair(&m);
            let open = tr.enter("persist.first_query");
            let first = restored.alias_with_test(f, p, q);
            tr.exit(open);
            report.failures.verdict_mismatches +=
                u64::from(first != session.alias_with_test(f, p, q));
            report.metric(
                "persist.load_ms",
                layers::self_ms(&tr, "persist.load", false),
                "ms",
            );
            report.metric(
                "persist.first_query_us",
                layers::self_ms(&tr, "persist.first_query", false) * 1e3,
                "us",
            );
        }
        _ => report.failures.persist_errors += 1,
    }
    crate::trace::write_spans(&tr, "cold_module", seed);
    report
}
