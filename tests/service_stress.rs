//! Multi-threaded stress rails for [`AliasService`]: N reader threads
//! × M writer threads of [`traffic`] workload, tenant add/remove
//! mid-flight, writer-stall reader progress, slow-reader
//! non-starvation with superseded-epoch memory reclamation, and
//! shutdown/quiesce semantics.
//!
//! The deterministic replay halves of these checks (no-lost-update,
//! final-state equivalence) rely on each tenant's edit stream being
//! applied in order by exactly one writer — which [`traffic::run_mixed`]
//! guarantees by ownership partitioning.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use sra::core::{
    analyze_parallel, pointer_values, AliasService, AnalysisConfig, BatchAnalysis, ServiceError,
};
use sra::workloads::edits;
use sra::workloads::traffic::{self, TrafficConfig};

/// Runs mixed traffic and proves no update was lost: the final
/// published snapshot of every tenant answers byte-identically to a
/// sequential scratch replay of exactly its edit stream.
fn run_and_check_no_lost_updates(cfg: &TrafficConfig) {
    let modules = traffic::build_tenants(cfg);
    let streams = traffic::edit_streams(cfg, &modules);
    let service = AliasService::new();
    traffic::populate(&service, modules.clone());

    let report = traffic::run_mixed(&service, cfg, &streams);
    assert_eq!(
        report.monotone_violations, 0,
        "epoch regression: {report:?}"
    );
    assert_eq!(report.lookup_failures, 0, "stable tenants never vanish");
    assert_eq!(
        report.edits,
        cfg.tenants * cfg.edits_per_tenant,
        "every generated edit applies"
    );
    assert!(
        report.queries >= cfg.readers * cfg.queries_per_reader,
        "every reader met its quota: {report:?}"
    );
    assert_eq!(
        report.final_epochs,
        vec![cfg.edits_per_tenant as u64; cfg.tenants],
        "final epoch = applied edit count, per tenant"
    );

    // No lost update: final snapshot ≡ sequential replay per tenant.
    for (i, (module, stream)) in modules.into_iter().zip(&streams).enumerate() {
        let mut replay = module;
        for edit in stream {
            edits::apply_to_module(&mut replay, edit).expect("streams are prefix-valid");
        }
        let snap = service
            .snapshot(&traffic::tenant_name(i))
            .expect("registered");
        assert_eq!(
            snap.module(),
            &replay,
            "tenant {i}: final module diverged from sequential replay"
        );
        let scratch = analyze_parallel(&replay, AnalysisConfig::default());
        let batch = BatchAnalysis::from_rbaa(scratch, &replay, 1);
        for f in replay.func_ids() {
            let ptrs = pointer_values(&replay, f);
            for &p in &ptrs {
                for &q in &ptrs {
                    assert_eq!(
                        snap.alias_with_test(f, p, q),
                        batch.alias_with_test(f, p, q),
                        "tenant {i}: verdict diverged at {f}: {p} vs {q}"
                    );
                }
            }
            assert_eq!(
                snap.frozen().stats_of(f),
                batch.stats(f),
                "tenant {i}: stats diverged at {f}"
            );
        }
    }
}

#[test]
fn mixed_traffic_has_no_lost_updates() {
    run_and_check_no_lost_updates(&TrafficConfig {
        tenants: 3,
        insts_per_tenant: 300,
        readers: 4,
        writers: 2,
        edits_per_tenant: 5,
        queries_per_reader: 250,
        ..TrafficConfig::default()
    });
}

/// The heavy sweep: more tenants, writers, edits and queries. Run with
/// `cargo test -q --release --test service_stress -- --ignored`.
#[test]
#[ignore = "deep stress (minutes); tier-1 runs the smaller variant"]
fn deep_mixed_traffic_has_no_lost_updates() {
    run_and_check_no_lost_updates(&TrafficConfig {
        tenants: 8,
        insts_per_tenant: 700,
        readers: 8,
        writers: 4,
        edits_per_tenant: 12,
        queries_per_reader: 2_000,
        zipf_s: 1.2,
        seed: 1234,
        ..TrafficConfig::default()
    });
}

/// Tenants appear and disappear while readers hammer the service:
/// lookups of stable tenants always succeed, lookups of the churning
/// tenant fail cleanly with `NoSuchTenant` (never a poisoned lock or a
/// torn snapshot), and snapshots taken before a removal keep working.
#[test]
fn tenant_add_remove_mid_flight() {
    let cfg = TrafficConfig {
        tenants: 3,
        insts_per_tenant: 200,
        edits_per_tenant: 4,
        ..TrafficConfig::default()
    };
    let modules = traffic::build_tenants(&cfg);
    let streams = traffic::edit_streams(&cfg, &modules);
    let chaos_module = modules[0].clone();
    let service = AliasService::new();
    traffic::populate(&service, modules);

    let stop = AtomicBool::new(false);
    let chaos_hits = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // A writer editing a stable tenant the whole time.
        let svc = &service;
        let stream = &streams[0];
        scope.spawn(move || {
            for edit in stream {
                match edit {
                    edits::Edit::Replace { func, body } => {
                        svc.replace_function("t0", *func, body.clone()).map(|_| ())
                    }
                    edits::Edit::Add { body } => svc.add_function("t0", body.clone()).map(|_| ()),
                    edits::Edit::Remove { func } => svc.remove_function("t0", *func).map(|_| ()),
                }
                .expect("stream edits stay valid");
            }
        });
        // The chaos thread: add, query, remove a churning tenant.
        let stop_ref = &stop;
        let chaos = &chaos_module;
        scope.spawn(move || {
            for round in 0..24 {
                svc.add_tenant("chaos", chaos.clone())
                    .unwrap_or_else(|e| panic!("round {round}: {e}"));
                let snap = svc.snapshot("chaos").expect("just added");
                assert_eq!(snap.epoch(), 0, "fresh tenants restart at epoch 0");
                svc.remove_tenant("chaos").expect("just added");
                // A pre-removal snapshot keeps answering: snapshots
                // are self-contained.
                let f = snap.module().func_ids().next().expect("has functions");
                let ptrs = pointer_values(snap.module(), f);
                if ptrs.len() >= 2 {
                    let _ = snap.alias_with_test(f, ptrs[0], ptrs[1]);
                }
            }
            stop_ref.store(true, Ordering::Release);
        });
        // Readers racing both: stable names must always resolve.
        let hits = &chaos_hits;
        for _ in 0..3 {
            scope.spawn(move || {
                while !stop_ref.load(Ordering::Acquire) {
                    for name in ["t0", "t1", "t2"] {
                        let snap = svc.snapshot(name).expect("stable tenants never vanish");
                        assert!(snap.module().num_functions() > 0);
                    }
                    match svc.snapshot("chaos") {
                        Ok(_) => {
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServiceError::NoSuchTenant(_)) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });
    assert_eq!(service.tenant_names(), ["t0", "t1", "t2"]);
    assert_eq!(
        service.snapshot("t0").expect("registered").epoch(),
        streams[0].len() as u64
    );
}

/// The never-blocks guarantee, demonstrated against a *stalled*
/// writer: a writer thread publishes epoch 1, then parks inside
/// [`AliasService::with_writer`] holding the tenant's writer lock for
/// the whole probe. Readers must keep answering queries (at epoch 1)
/// the entire time — an in-flight edit never blocks a query.
#[test]
fn readers_progress_while_a_writer_stalls() {
    let cfg = TrafficConfig {
        tenants: 1,
        insts_per_tenant: 250,
        edits_per_tenant: 2,
        ..TrafficConfig::default()
    };
    let modules = traffic::build_tenants(&cfg);
    let streams = traffic::edit_streams(&cfg, &modules);
    let service = AliasService::new();
    traffic::populate(&service, modules);

    let (stalled_tx, stalled_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let svc = &service;
        let stream = &streams[0];
        scope.spawn(move || {
            svc.with_writer("t0", |w| {
                apply(w, &stream[0]).expect("valid edit");
                assert_eq!(w.epoch(), 1);
                stalled_tx.send(()).expect("probe alive");
                // Stall mid-batch, writer lock held.
                release_rx
                    .recv_timeout(Duration::from_secs(60))
                    .expect("probe releases us");
                apply(w, &stream[1]).expect("valid edit");
            })
            .expect("registered");
        });

        stalled_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("writer reaches its stall point");
        // The writer is now parked holding the writer lock. 200
        // queries must all complete and see exactly epoch 1.
        for _ in 0..200 {
            let snap = svc.snapshot("t0").expect("registered");
            assert_eq!(snap.epoch(), 1, "readers see the last published epoch");
            let f = snap.module().func_ids().next().expect("has functions");
            let ptrs = pointer_values(snap.module(), f);
            if ptrs.len() >= 2 {
                let _ = snap.alias_with_test(f, ptrs[0], ptrs[1]);
            }
        }
        release_tx.send(()).expect("writer alive");
    });
    assert_eq!(service.snapshot("t0").expect("registered").epoch(), 2);
}

fn apply(
    w: &mut sra::core::TenantWriter<'_>,
    edit: &edits::Edit,
) -> Result<(), sra::core::SessionError> {
    match edit {
        edits::Edit::Replace { func, body } => w.replace_function(*func, body.clone()).map(|_| ()),
        edits::Edit::Add { body } => w.add_function(body.clone()).map(|_| ()),
        edits::Edit::Remove { func } => w.remove_function(*func).map(|_| ()),
    }
}

/// The starvation regression rail: a slow reader camped on an old
/// `Arc<EpochSnapshot>` must not block writers from publishing later
/// epochs, and once the service has moved on, that reader holds the
/// *last* strong reference — dropping it frees the superseded epoch
/// (module, analysis, matrices), probed via `Arc::strong_count` and a
/// `Weak` upgrade.
#[test]
fn slow_reader_neither_starves_writers_nor_leaks_epochs() {
    let cfg = TrafficConfig {
        tenants: 1,
        insts_per_tenant: 250,
        edits_per_tenant: 3,
        ..TrafficConfig::default()
    };
    let modules = traffic::build_tenants(&cfg);
    let streams = traffic::edit_streams(&cfg, &modules);
    let service = AliasService::new();
    traffic::populate(&service, modules);

    // The slow reader grabs epoch 0 and just… keeps it.
    let held = service.snapshot("t0").expect("registered");
    assert_eq!(held.epoch(), 0);
    assert_eq!(
        Arc::strong_count(&held),
        2,
        "epoch 0 is held by the service and the slow reader"
    );
    let probe = Arc::downgrade(&held);

    // Writers publish the whole stream while the reader holds on. If a
    // held snapshot blocked publication, these calls would deadlock
    // (and the suite's timeout would flag it); instead each returns
    // the next epoch immediately.
    for (k, edit) in streams[0].iter().enumerate() {
        let epoch = service
            .with_writer("t0", |w| apply(w, edit).map(|()| w.epoch()))
            .expect("registered")
            .expect("valid edit");
        assert_eq!(epoch, k as u64 + 1, "writers advance past the slow reader");
    }
    assert_eq!(service.snapshot("t0").expect("registered").epoch(), 3);

    // The first publish dropped the service's reference to epoch 0:
    // the slow reader is now the only holder.
    assert_eq!(
        Arc::strong_count(&held),
        1,
        "a superseded epoch is kept alive only by its readers"
    );
    assert_eq!(held.epoch(), 0, "the held snapshot is still epoch 0");
    drop(held);
    assert!(
        probe.upgrade().is_none(),
        "dropping the last reader frees the superseded epoch's memory"
    );
}

/// Shutdown/quiesce: snapshots are self-contained, so dropping the
/// whole service (or removing a tenant) quiesces writers without
/// invalidating anything a reader already holds.
#[test]
fn snapshots_survive_service_shutdown() {
    let cfg = TrafficConfig {
        tenants: 2,
        insts_per_tenant: 200,
        edits_per_tenant: 2,
        ..TrafficConfig::default()
    };
    let modules = traffic::build_tenants(&cfg);
    let streams = traffic::edit_streams(&cfg, &modules);
    let service = AliasService::new();
    traffic::populate(&service, modules);
    for edit in &streams[0] {
        service
            .with_writer("t0", |w| apply(w, edit))
            .expect("registered")
            .expect("valid edit");
    }
    let snap = service.snapshot("t0").expect("registered");
    let epoch = snap.epoch();
    drop(service);

    // The snapshot still answers every query it could before.
    assert_eq!(snap.epoch(), epoch);
    let m = snap.module();
    let scratch = analyze_parallel(m, AnalysisConfig::default());
    let batch = BatchAnalysis::from_rbaa(scratch, m, 1);
    for f in m.func_ids() {
        let ptrs = pointer_values(m, f);
        for &p in &ptrs {
            for &q in &ptrs {
                assert_eq!(
                    snap.alias_with_test(f, p, q),
                    batch.alias_with_test(f, p, q)
                );
            }
        }
    }
}

/// Queries are total: readers mix pairs taken from earlier epochs and
/// from the other tenant — plus ids past every module's end — into
/// their traffic while a writer edits both tenants, in both query
/// modes. A pair the answering epoch's module lacks gets
/// `ServiceError::UnknownValue`; every other pair answers
/// byte-identically to a scratch analysis of that epoch; no reader
/// thread panics.
#[test]
fn stale_and_foreign_pairs_get_an_error_in_both_query_modes() {
    use sra::core::QueryMode;
    use sra::ir::{FuncId, Module, ValueId};
    use sra::workloads::scaling;

    let modules = [
        scaling::generate_module(300, 5),
        scaling::generate_call_graph_module(14, 6),
    ];
    let streams: Vec<Vec<edits::Edit>> = modules
        .iter()
        .enumerate()
        .map(|(t, m)| edits::generate_edit_stream(m, 5, 40 + t as u64))
        .collect();
    let has = |m: &Module, (f, p, q): (FuncId, ValueId, ValueId)| {
        f.index() < m.num_functions() && {
            let nv = m.function(f).num_values();
            p.index() < nv && q.index() < nv
        }
    };
    for mode in [QueryMode::Matrix, QueryMode::Demand] {
        let config = AnalysisConfig::builder().query_mode(mode).build();
        // Every epoch's module and its scratch answers, per tenant.
        let epochs: Vec<Vec<(Module, BatchAnalysis)>> = modules
            .iter()
            .zip(&streams)
            .map(|(m, stream)| {
                let mut m = m.clone();
                let mut out = Vec::new();
                for edit in stream.iter().map(Some).chain([None]) {
                    let scratch = analyze_parallel(&m, config);
                    out.push((m.clone(), BatchAnalysis::from_rbaa(scratch, &m, 1)));
                    if let Some(edit) = edit {
                        edits::apply_to_module(&mut m, edit).expect("stream edits stay valid");
                    }
                }
                out
            })
            .collect();
        // Pairs from every epoch of both tenants, plus ids no module has.
        let mut pairs: Vec<(FuncId, ValueId, ValueId)> = Vec::new();
        for (m, _) in epochs.iter().flatten() {
            for f in m.func_ids() {
                let ptrs = pointer_values(m, f);
                for w in ptrs.windows(2).take(3) {
                    pairs.push((f, w[0], w[1]));
                }
                let nv = m.function(f).num_values();
                pairs.push((f, ValueId::new(nv + 7), ValueId::new(0)));
            }
            pairs.push((
                FuncId::new(m.num_functions() + 3),
                ValueId::new(0),
                ValueId::new(0),
            ));
        }

        let service = AliasService::with_config(config);
        for (t, m) in modules.iter().enumerate() {
            service
                .add_tenant(&format!("t{t}"), m.clone())
                .expect("verifies");
        }
        let done = AtomicBool::new(false);
        let errors = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (svc, done, errors, epochs, pairs, streams) =
                (&service, &done, &errors, &epochs, &pairs, &streams);
            let writer = scope.spawn(move || {
                for k in 0..5 {
                    for (t, stream) in streams.iter().enumerate() {
                        svc.with_writer(&format!("t{t}"), |w| apply(w, &stream[k]))
                            .expect("registered")
                            .expect("valid edit");
                    }
                }
                done.store(true, Ordering::Release);
            });
            let readers: Vec<_> = (0..3u64)
                .map(|r| {
                    scope.spawn(move || {
                        let mut k = r;
                        let mut asked = 0;
                        while asked < 400 || !done.load(Ordering::Acquire) {
                            k = k.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                            let t = (k >> 33) as usize % 2;
                            let pair = pairs[(k >> 40) as usize % pairs.len()];
                            let (f, p, q) = pair;
                            let name = format!("t{t}");
                            let snap = svc.snapshot(&name).expect("registered");
                            let (m, batch) = &epochs[t][snap.epoch() as usize];
                            match snap.query(f, p, q) {
                                Ok(v) => {
                                    assert!(
                                        has(m, pair),
                                        "{pair:?} answered on a module without it"
                                    );
                                    assert_eq!(v, batch.alias_with_test(f, p, q), "{pair:?}");
                                }
                                Err(ServiceError::UnknownValue { f: ef, .. }) => {
                                    assert_eq!(ef, f);
                                    assert!(!has(m, pair), "{pair:?} rejected on a module with it");
                                    errors.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => panic!("unexpected error: {e}"),
                            }
                            // The one-shot entry point: its answering
                            // epoch is only known on success.
                            match svc.query(&name, f, p, q) {
                                Ok((e, v)) => {
                                    let (m, batch) = &epochs[t][e as usize];
                                    assert!(has(m, pair));
                                    assert_eq!(v, batch.alias_with_test(f, p, q));
                                }
                                Err(ServiceError::UnknownValue { .. }) => {
                                    assert!(epochs[t].iter().any(|(m, _)| !has(m, pair)));
                                }
                                Err(e) => panic!("unexpected error: {e}"),
                            }
                            asked += 1;
                        }
                    })
                })
                .collect();
            writer.join().expect("the writer does not panic");
            for reader in readers {
                reader.join().expect("no reader panics");
            }
        });
        assert!(
            errors.load(Ordering::Relaxed) > 0,
            "{mode:?}: some pairs were stale"
        );
    }
}
