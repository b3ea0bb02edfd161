//! The service's snapshot-consistency rail: over randomized per-tenant
//! edit/query interleavings,
//!
//! * every query answered by a published [`EpochSnapshot`] is
//!   byte-identical to an `AliasMatrix` lookup on the serial reference
//!   (`RbaaAnalysis::analyze_with`) of **exactly the edit prefix named
//!   by the snapshot's epoch** — same verdicts, same `WhichTest`
//!   attributions, same per-function statistics;
//! * epochs advance by exactly one per applied edit, independently per
//!   tenant;
//! * a snapshot taken before an edit is immutable: its epoch and
//!   module still describe the old prefix after the edit lands;
//! * the per-tenant epochs observed by any single concurrent reader
//!   are monotone.

use std::sync::atomic::{AtomicBool, Ordering};

use proptest::prelude::*;
use sra::core::{
    pointer_values, AliasService, AnalysisConfig, BatchAnalysis, RbaaAnalysis, ServiceError,
};
use sra::ir::Module;
use sra::workloads::edits::{self, Edit};
use sra::workloads::traffic;

/// Full byte-identity of one snapshot against a scratch analysis +
/// matrix build of `module` (the shadow prefix its epoch names).
fn assert_snapshot_matches_scratch(
    snap: &sra::core::EpochSnapshot,
    module: &Module,
    config: AnalysisConfig,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        snap.module(),
        module,
        "snapshot module is not the epoch's edit prefix"
    );
    let scratch = RbaaAnalysis::analyze_with(module, config);
    let batch = BatchAnalysis::from_rbaa(scratch, module, 1);
    for f in module.func_ids() {
        let ptrs = pointer_values(module, f);
        for &p in &ptrs {
            for &q in &ptrs {
                prop_assert_eq!(
                    snap.alias_with_test(f, p, q),
                    batch.alias_with_test(f, p, q),
                    "verdict diverged at {}: {} vs {} (epoch {})",
                    f,
                    p,
                    q,
                    snap.epoch()
                );
            }
        }
        prop_assert_eq!(
            snap.frozen().stats_of(f),
            batch.stats(f),
            "query stats diverged at {} (epoch {})",
            f,
            snap.epoch()
        );
    }
    Ok(())
}

/// One randomized interleaving: `tenants` modules, one edit stream
/// each, applied in a seed-chosen tenant order while (a) the main
/// thread checks every published epoch against its scratch prefix and
/// (b) two free-running reader threads assert epoch monotonicity.
fn run_case(
    tenants: usize,
    target: usize,
    seed: u64,
    edits_per_tenant: usize,
    threads: usize,
) -> Result<(), TestCaseError> {
    let config = AnalysisConfig::builder().threads(threads).build();
    let cfg = traffic::TrafficConfig {
        tenants,
        insts_per_tenant: target,
        edits_per_tenant,
        seed,
        ..traffic::TrafficConfig::default()
    };
    let modules = traffic::build_tenants(&cfg);
    let streams = traffic::edit_streams(&cfg, &modules);
    let service = AliasService::with_config(config);

    // Shadow replay state: the current edit prefix per tenant.
    let mut shadows: Vec<Module> = modules.clone();
    let mut applied: Vec<usize> = vec![0; tenants];
    traffic::populate(&service, modules);

    // Epoch 0 of every tenant is the unedited module.
    for (i, shadow) in shadows.iter().enumerate() {
        let snap = service
            .snapshot(&traffic::tenant_name(i))
            .expect("registered");
        prop_assert_eq!(snap.epoch(), 0);
        assert_snapshot_matches_scratch(&snap, shadow, config)?;
    }

    // A seed-chosen interleaving of the tenants' streams.
    let mut order: Vec<usize> = Vec::new();
    for (i, s) in streams.iter().enumerate() {
        order.extend(std::iter::repeat_n(i, s.len()));
    }
    // Deterministic Fisher–Yates on a splitmix-style stream.
    let mut state = seed ^ 0x1ce_cafe;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..order.len()).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }

    let stop = AtomicBool::new(false);
    let violations = std::thread::scope(|scope| -> Result<usize, TestCaseError> {
        // Two concurrent readers polling epochs: any single reader
        // must observe per-tenant monotone epochs.
        let observers: Vec<_> = (0..2)
            .map(|_| {
                let stop = &stop;
                let service = &service;
                scope.spawn(move || {
                    let mut last = vec![0u64; tenants];
                    let mut violations = 0usize;
                    while !stop.load(Ordering::Acquire) {
                        for (i, seen) in last.iter_mut().enumerate() {
                            match service.snapshot(&traffic::tenant_name(i)) {
                                Ok(snap) => {
                                    if snap.epoch() < *seen {
                                        violations += 1;
                                    }
                                    *seen = (*seen).max(snap.epoch());
                                }
                                Err(ServiceError::NoSuchTenant(_)) => {}
                                Err(e) => panic!("snapshot failed: {e}"),
                            }
                        }
                    }
                    violations
                })
            })
            .collect();

        let mut result = Ok(());
        'edits: for &i in &order {
            let name = traffic::tenant_name(i);
            let edit = &streams[i][applied[i]];
            // The pre-edit snapshot, to re-check immutability after.
            let before = service.snapshot(&name).expect("registered");
            let before_module = shadows[i].clone();

            edits::apply_to_module(&mut shadows[i], edit).expect("streams are prefix-valid");
            let epoch = match edit {
                Edit::Replace { func, body } => {
                    service.replace_function(&name, *func, body.clone())
                }
                Edit::Add { body } => service.add_function(&name, body.clone()).map(|(_, e)| e),
                Edit::Remove { func } => service.remove_function(&name, *func).map(|(_, e)| e),
            }
            .expect("streams are prefix-valid");
            applied[i] += 1;

            // Epochs advance by exactly one per applied edit.
            if epoch != applied[i] as u64 {
                result = Err(TestCaseError::fail(format!(
                    "tenant {name} published epoch {epoch} after {} edits",
                    applied[i]
                )));
                break 'edits;
            }
            // The superseded snapshot is frozen: same epoch, same
            // module, even though the tenant moved on.
            if before.epoch() != applied[i] as u64 - 1 || before.module() != &before_module {
                result = Err(TestCaseError::fail(
                    "a superseded snapshot changed after a later edit".to_owned(),
                ));
                break 'edits;
            }
            // The new snapshot answers exactly like scratch on the
            // prefix its epoch names.
            let snap = service.snapshot(&name).expect("registered");
            if snap.epoch() != epoch {
                // Only this thread writes this tenant, so the epoch
                // we just published must still be current.
                result = Err(TestCaseError::fail(format!(
                    "tenant {name}: published {epoch}, snapshot says {}",
                    snap.epoch()
                )));
                break 'edits;
            }
            result = assert_snapshot_matches_scratch(&snap, &shadows[i], config);
            if result.is_err() {
                break 'edits;
            }
        }
        stop.store(true, Ordering::Release);
        let mut violations = 0;
        for h in observers {
            violations += h.join().expect("observer thread");
        }
        result.map(|()| violations)
    })?;
    prop_assert_eq!(violations, 0, "a reader observed an epoch regression");
    Ok(())
}

// Tier-1 budget (`PROPTEST_CASES` overrides): 24 randomized
// interleavings across 1–3 tenants.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn service_snapshots_equal_scratch_prefixes(
        tenants in 1usize..4,
        target in 100usize..320,
        seed in 0u64..10_000,
        edits_per_tenant in 1usize..4,
        threads in 1usize..4,
    ) {
        run_case(tenants, target, seed, edits_per_tenant, threads)?;
    }
}

/// 512-case sweep of the same property. Excluded from tier-1; run with
/// `cargo test -q --release --test service_equivalence -- --ignored`.
#[test]
#[ignore = "deep fuzz (minutes); tier-1 runs the 24-case variant"]
fn deep_fuzz_service_equivalence() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(512));
    runner
        .run(
            &(
                1usize..4,
                100usize..400,
                0u64..1_000_000,
                1usize..5,
                1usize..5,
            ),
            |(tenants, target, seed, edits_per_tenant, threads)| {
                run_case(tenants, target, seed, edits_per_tenant, threads)
            },
        )
        .unwrap();
}
