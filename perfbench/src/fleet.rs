//! `tenant_fleet`: an analysis service hosting tens of small tenants.
//! One reader thread asks Zipf-skewed pair queries while one writer
//! thread applies each tenant's IR edit stream through the service;
//! after each edit the writer asks every pair of the edited function on
//! the new epoch. Each round ends by checking every tenant against a
//! scratch analysis of its edited module, then saving and restoring
//! the whole service.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sra_core::{AliasService, AnalysisConfig, BatchAnalysis, EpochSnapshot, SessionEdit};
use sra_ir::{FuncId, Module};
use sra_workloads::edits::{self, Edit};
use sra_workloads::traffic::{self, TrafficConfig, ZipfSampler};

use crate::checks::{self, Sweep};
use crate::layers;
use crate::report::{self, Report, Samples};
use crate::stats::{median, secs};
use crate::steal::{Stopwatch, Timed};
use crate::trace::Tracer;

/// Tenants the service hosts.
pub const TENANTS: usize = 24;
/// Instructions of each tenant's module (roughly).
pub const INSTS_PER_TENANT: usize = 2_500;
/// Edits each tenant takes per round (`TENANTS ×` this per round).
pub const EDITS_PER_TENANT: usize = 3;
/// Zipf exponent of the reader's tenant popularity.
pub const ZIPF_S: f64 = 1.1;
/// Rounds every run makes; the first is a warm-up.
pub const MIN_ROUNDS: usize = 3;
/// Restarts timed per round. A fleet restart loads every tenant's
/// session and its worker pool, which makes its time swing with the
/// host's load more than a single session's load does; a run's median
/// needs the larger count to hold still.
pub const RESTARTS: usize = 15;
/// Pairs the reader asks per snapshot it takes.
const READ_BATCH: usize = 16;

fn config(seed: u64) -> TrafficConfig {
    TrafficConfig {
        tenants: TENANTS,
        insts_per_tenant: INSTS_PER_TENANT,
        readers: 1,
        writers: 1,
        edits_per_tenant: EDITS_PER_TENANT,
        zipf_s: ZIPF_S,
        seed,
        ..TrafficConfig::default()
    }
}

/// One stream of single-function rewrites per tenant. (The mixed
/// `traffic::edit_streams` also adds and removes functions; which
/// tenants that splits into cheap small components depends on the seed,
/// and the edit p50 then moved between 9.5 and 26 ms across seeds.)
fn edit_streams(seed: u64, modules: &[Module]) -> Vec<Vec<Edit>> {
    modules
        .iter()
        .enumerate()
        .map(|(i, m)| {
            edits::generate_replace_stream(
                m,
                EDITS_PER_TENANT,
                traffic::mix_seed(seed, 5, i as u64),
            )
        })
        .collect()
}

/// The rewrite `edit` as a session edit, with the function it rewrites.
fn session_edit(edit: &Edit) -> (FuncId, SessionEdit) {
    let Edit::Replace { func, body } = edit.clone() else {
        unreachable!("replace streams hold replacements only")
    };
    (func, SessionEdit::Replace { func, body })
}

/// Answers every pair of function `f` on `snap`.
fn query_function(snap: &EpochSnapshot, f: FuncId) -> u64 {
    let m = snap.module();
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

/// What the reader thread saw.
#[derive(Default)]
struct ReaderTally {
    snapshots: u64,
    queries: u64,
    /// Snapshots older than one the reader had already seen.
    regressions: u64,
}

/// Zipf-skewed reads until `stop`: take a tenant's snapshot, check its
/// epoch never goes back, ask a batch of random pairs of one function.
/// Sets `reading` after the first batch.
fn reader(
    service: &AliasService,
    seed: u64,
    stop: &AtomicBool,
    reading: &AtomicBool,
) -> ReaderTally {
    let mut rng = StdRng::seed_from_u64(traffic::mix_seed(seed, 3, 0));
    let zipf = ZipfSampler::new(TENANTS, ZIPF_S);
    let mut last: HashMap<usize, u64> = HashMap::new();
    let mut tally = ReaderTally::default();
    // Pointer lists by (tenant, epoch, function), as a client keeps
    // them: listing a function's pointers for every batch made the
    // reader's own work, and with it the writer's slowdown on the
    // shared cores, depend on the sizes of the popular tenants'
    // functions (one round's edits ran 40 % slower than the next's).
    let mut pointers = HashMap::new();
    while !stop.load(Ordering::Acquire) {
        let t = zipf.sample(&mut rng);
        let Ok(snap) = service.snapshot(&traffic::tenant_name(t)) else {
            tally.regressions += 1;
            continue;
        };
        tally.snapshots += 1;
        let seen = last.entry(t).or_insert(0);
        tally.regressions += u64::from(snap.epoch() < *seen);
        *seen = snap.epoch();
        let m = snap.module();
        let f = FuncId::new(rng.gen_range(0..m.num_functions()));
        let ptrs = pointers
            .entry((t, snap.epoch(), f))
            .or_insert_with(|| sra_core::pointer_values(m, f));
        if ptrs.is_empty() {
            continue;
        }
        for _ in 0..READ_BATCH {
            let p = ptrs[rng.gen_range(0..ptrs.len())];
            let q = ptrs[rng.gen_range(0..ptrs.len())];
            std::hint::black_box(snap.alias_with_test(f, p, q));
            tally.queries += 1;
        }
        reading.store(true, Ordering::Release);
    }
    tally
}

/// Applies the streams tenant by tenant, round-robin, timing each edit
/// until the edited function's pairs are answered on the new epoch.
/// Returns the edit times in seconds.
fn writer(service: &AliasService, streams: &[Vec<Edit>], report: &mut Report) -> Vec<f64> {
    let mut epochs = vec![0u64; streams.len()];
    let mut lat = Vec::new();
    for k in 0..EDITS_PER_TENANT {
        for (i, stream) in streams.iter().enumerate() {
            let name = traffic::tenant_name(i);
            let (f, edit) = session_edit(&stream[k]);
            report.attempted += 1;
            let t = Instant::now();
            let Ok((_, epoch)) = service.apply_edits(&name, vec![edit]) else {
                report.failures.edits_rejected += 1;
                continue;
            };
            let Ok(snap) = service.snapshot(&name) else {
                report.failures.edits_rejected += 1;
                continue;
            };
            report.attempted += query_function(&snap, f);
            lat.push(secs(t));
            report.failures.edits_rejected +=
                u64::from(epoch != epochs[i] + 1 || snap.epoch() < epoch);
            epochs[i] = epoch;
        }
    }
    lat
}

/// Every tenant's module after its whole stream, applied outside the
/// service with `edits::apply_to_module`.
fn edited_modules(modules: &[Module], streams: &[Vec<Edit>], report: &mut Report) -> Vec<Module> {
    modules
        .iter()
        .zip(streams)
        .map(|(m, stream)| {
            let mut m = m.clone();
            for edit in stream {
                if edits::apply_to_module(&mut m, edit).is_err() {
                    report.failures.edits_rejected += 1;
                }
            }
            m
        })
        .collect()
}

/// Checks every tenant's published snapshot against a `BatchAnalysis`
/// of its edited module, pair by pair. Returns the time of the scratch
/// analyses plus their sweeps.
fn check_against_scratch(service: &AliasService, finals: &[Module], report: &mut Report) -> Timed {
    let mut took = Timed::default();
    for (i, m) in finals.iter().enumerate() {
        let Ok(snap) = service.snapshot(&traffic::tenant_name(i)) else {
            report.failures.verdict_mismatches += 1;
            continue;
        };
        let t = Stopwatch::start();
        let batch = BatchAnalysis::analyze_with(m, AnalysisConfig::default());
        let scratch = checks::sweep(m, |f, p, q| batch.alias_with_test(f, p, q));
        took = took.plus(t.read());
        let published = checks::sweep(snap.module(), |f, p, q| snap.alias_with_test(f, p, q));
        report.failures.verdict_mismatches +=
            checks::mismatches(&scratch, &published) + u64::from(snap.module() != m);
        report.attempted += scratch.pairs();
    }
    took
}

fn populate(service: &AliasService, modules: &[Module], report: &mut Report) {
    for (i, m) in modules.iter().enumerate() {
        if service
            .add_tenant(&traffic::tenant_name(i), m.clone())
            .is_err()
        {
            report.failures.edits_rejected += 1;
        }
    }
}

/// Runs whole rounds for about `seconds`; see the module docs.
pub fn run(seed: u64, seconds: f64) -> Report {
    let start = Instant::now();
    let mut report = Report::default();
    let mut samples = Samples::default();
    let mut reads = 0;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || secs(start) < seconds {
        rounds += 1;
        let mut round = Samples::default();
        let t0 = Stopwatch::start();
        let round_seed = crate::round_seed(seed, rounds);
        let modules = traffic::build_tenants(&config(round_seed));
        let service = AliasService::with_config(AnalysisConfig::default());
        let tb = Stopwatch::start();
        populate(&service, &modules, &mut report);
        let built = tb.read();
        let first = traffic::tenant_name(0);
        let Some(()) = service.snapshot(&first).ok().and_then(|s| {
            let (f, p, q) = checks::first_pair(s.module())?;
            std::hint::black_box(s.alias_with_test(f, p, q));
            Some(())
        }) else {
            report.failures.verdict_mismatches += 1;
            continue;
        };
        round.setup.push(t0.read());
        round.build.push(built);
        // Precision over the tenants as registered: the edit streams'
        // random bodies would make the share depend on the seed.
        let mut registered = Sweep::default();
        for i in 0..TENANTS {
            if let Ok(snap) = service.snapshot(&traffic::tenant_name(i)) {
                let s = checks::sweep(snap.module(), |f, p, q| snap.alias_with_test(f, p, q));
                registered.no_alias += s.no_alias;
                registered.codes.extend(s.codes);
            }
        }
        round.noalias_pct.push(registered.noalias_pct());
        if rounds == 1 {
            let mut total = [0u64; 4];
            for m in &modules {
                for (t, x) in total.iter_mut().zip(checks::describe(m)) {
                    *t += x;
                }
            }
            println!(
                "{}",
                checks::input_line(&format!("{TENANTS}-tenants zipf_s={ZIPF_S}"), total)
            );
        }

        let streams = edit_streams(round_seed, &modules);
        let (stop, reading) = (AtomicBool::new(false), AtomicBool::new(false));
        let tally = std::thread::scope(|s| {
            let r = s.spawn(|| reader(&service, round_seed, &stop, &reading));
            // Every edit is made under the reader's load.
            while !reading.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let pass = Stopwatch::start();
            let lat = writer(&service, &streams, &mut report);
            round.push_edits(pass.read(), lat);
            stop.store(true, Ordering::Release);
            r.join().expect("reader thread")
        });
        report.attempted += tally.snapshots;
        report.failures.verdict_mismatches += tally.regressions;
        reads += tally.queries;

        let finals = edited_modules(&modules, &streams, &mut report);
        round
            .verdicts
            .push(check_against_scratch(&service, &finals, &mut report));

        // The first query after the restart asks about the saved state
        // (a pair of the registered module may name values an edit
        // removed).
        let Some((f, p, q)) = service
            .snapshot(&first)
            .ok()
            .and_then(|s| checks::first_pair(s.module()))
        else {
            report.failures.verdict_mismatches += 1;
            continue;
        };
        let epochs: Vec<u64> = (0..TENANTS)
            .map(|i| {
                service
                    .snapshot(&traffic::tenant_name(i))
                    .map_or(u64::MAX, |s| s.epoch())
            })
            .collect();
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
        let Some((restored, _)) = round.time_restarts(RESTARTS, || {
            crate::restart_service(&bytes, &first, (f, p, q), &mut report)
        }) else {
            continue;
        };
        // The restore republishes every tenant at its saved epoch.
        for (i, &e) in epochs.iter().enumerate() {
            let again = restored
                .snapshot(&traffic::tenant_name(i))
                .map(|s| s.epoch())
                .ok();
            report.failures.persist_errors += u64::from(again != Some(e));
        }
        report.attempted += TENANTS as u64;
        // The first round warms the process up (heap growth, page
        // faults); its checks count, its times do not.
        if rounds > 1 {
            samples.absorb(round);
        }
    }
    println!("{}", samples.unscaled_line());
    samples.record(&mut report, report::status_mib("VmHWM"));
    println!(
        "rounds={rounds} edits={} reader_queries={reads} in {:.1}s",
        samples.edit.len(),
        secs(start)
    );
    report
}

/// The traced variant: one round. Every tenant's scratch build is
/// reassembled from the layers' calls next to the untraced populate;
/// the edits go through the service with the service and writer calls
/// in spans.
pub fn run_traced(seed: u64, _seconds: f64) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::default();
    let cfg = config(seed);
    let (modules, streams) = tr.span("workloads.gen", || {
        let modules = traffic::build_tenants(&cfg);
        let streams = edit_streams(seed, &modules);
        (modules, streams)
    });
    report.metric(
        "workloads.gen_ms",
        layers::self_ms(&tr, "workloads.gen", false),
        "ms",
    );

    // Untraced reference: the populate the timed runs measure, after
    // one warm-up populate (the timed runs skip their first round).
    populate(
        &AliasService::with_config(AnalysisConfig::default()),
        &modules,
        &mut report,
    );
    let service = AliasService::with_config(AnalysisConfig::default());
    let tb = Instant::now();
    populate(&service, &modules, &mut report);
    let untraced_populate = secs(tb);
    let threads_populated = report::status_field("Threads").unwrap_or(0.0);

    let pool = sra_core::WorkerPool::new(AnalysisConfig::default().threads);
    let mut kept = None;
    for (i, m) in modules.iter().enumerate() {
        let root = tr.enter("build");
        let built = layers::build(m, &pool, &mut tr);
        tr.exit(root);
        let Some((rbaa, matrices)) = built else {
            report.failures.verdict_mismatches += 1;
            continue;
        };
        let Ok(snap) = service.snapshot(&traffic::tenant_name(i)) else {
            report.failures.verdict_mismatches += 1;
            continue;
        };
        let published = checks::sweep(m, |f, p, q| snap.alias_with_test(f, p, q));
        report.failures.verdict_mismatches +=
            checks::mismatches(&layers::matrix_sweep(m, &rbaa, &matrices), &published);
        report.attempted += published.pairs();
        if i == 0 {
            kept = Some((rbaa, matrices, published));
        }
    }
    drop(pool);
    layers::record_build_times(&tr, &mut report);
    let traced_total = layers::record_coverage(&tr, "build", untraced_populate, &mut report);
    println!("trace: untraced populate {untraced_populate:.3}s, traced layered builds {traced_total:.3}s");
    if let Some((rbaa, matrices, published)) = kept {
        layers::record_build_counts(&rbaa, &matrices, &mut report);
        layers::probe_queries(
            &modules[0],
            &rbaa,
            |f, p, q| {
                matrices[f.index()]
                    .lookup(p, q)
                    .unwrap_or_else(|| rbaa.alias_with_test(f, p, q))
            },
            &published,
            seed,
            &mut tr,
            &mut report,
        );
        report.metric(
            "query.sweep_ms",
            layers::self_ms(&tr, "query.sweep", false),
            "ms",
        );
    }

    // Edits: the service call and, inside the tenant's writer, the
    // session's edit-and-publish.
    let mut session_ms = Vec::new();
    for k in 0..EDITS_PER_TENANT {
        for (i, stream) in streams.iter().enumerate() {
            let name = traffic::tenant_name(i);
            report.attempted += 1;
            let open = tr.enter("service.edit");
            let (_, edit) = session_edit(&stream[k]);
            let outcome = service.with_writer(&name, |w| {
                let t = Instant::now();
                let r = w.apply_edits(vec![edit]);
                (r, secs(t))
            });
            tr.exit(open);
            match outcome {
                Ok((Ok(_), took)) => session_ms.push(took * 1e3),
                _ => report.failures.edits_rejected += 1,
            }
            let _ = tr.span("service.snapshot", || service.snapshot(&name));
        }
    }
    let mut stats = sra_core::SessionStats::default();
    for i in 0..TENANTS {
        if let Ok(s) = service.with_writer(&traffic::tenant_name(i), |w| *w.stats()) {
            stats.parts_reanalyzed += s.parts_reanalyzed;
            stats.parts_rebased += s.parts_rebased;
            stats.gr_components_solved += s.gr_components_solved;
            stats.matrices_rebuilt += s.matrices_rebuilt;
        }
    }
    report.metric("session.edit_ms", median(&session_ms), "ms");
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
    report.metric(
        "service.edit_ms",
        layers::self_ms(&tr, "service.edit", true),
        "ms",
    );
    report.metric(
        "service.snapshot_ns",
        layers::self_ms(&tr, "service.snapshot", true) * 1e6,
        "ns",
    );

    let finals = edited_modules(&modules, &streams, &mut report);
    check_against_scratch(&service, &finals, &mut report);
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
            let threads_restored = report::status_field("Threads").unwrap_or(0.0);
            println!(
                "threads: {threads_populated} after populate, {threads_restored} after restore"
            );
            report.failures.persist_errors += u64::from(restored.num_tenants() != TENANTS);
            report.metric(
                "service.os_threads",
                threads_populated.max(threads_restored),
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
    crate::trace::write_spans(&tr, "tenant_fleet", seed);
    report
}
