//! The batch driver's contract: interned, matrix-cached, parallel
//! evaluation returns **byte-identical** verdicts and `WhichTest`
//! attributions to the seed serial per-query path, on arbitrary
//! modules. This is the rail that lets the driver refactor hot paths
//! freely — any precision or soundness drift in the cached path is a
//! test failure, not a silent change.

use proptest::prelude::*;
use sra::core::{
    pointer_values, AliasAnalysis, AnalysisConfig, BatchAnalysis, QueryStats, RbaaAnalysis,
    WorkerPool,
};
use sra::ir::Module;

/// Asserts the full equivalence on one module for a given worker
/// count: every ordered pair (including the diagonal), plus the
/// aggregated per-function statistics. The batch driver runs on a
/// forced pool of `threads` workers **and** on a width-1 pool — the
/// wave-parallel and the level-by-level GR walk — against the one
/// serial reference.
fn assert_equivalent(m: &Module, threads: usize) -> Result<(), TestCaseError> {
    let serial = RbaaAnalysis::analyze(m);
    let config = AnalysisConfig::builder().threads(threads).build();
    for width in [threads, 1] {
        let batch = BatchAnalysis::analyze_on(m, config, &WorkerPool::forced(width));
        assert_batch_matches(m, &serial, &batch, width)?;
    }
    Ok(())
}

fn assert_batch_matches(
    m: &Module,
    serial: &RbaaAnalysis,
    batch: &BatchAnalysis,
    threads: usize,
) -> Result<(), TestCaseError> {
    for f in m.func_ids() {
        let ptrs = pointer_values(m, f);
        for &p in &ptrs {
            for &q in &ptrs {
                prop_assert_eq!(
                    batch.alias_with_test(f, p, q),
                    serial.alias_with_test(f, p, q),
                    "verdict drift at threads={} {} {} vs {}",
                    threads,
                    f,
                    p,
                    q
                );
                prop_assert_eq!(batch.alias(f, p, q), serial.alias(f, p, q));
            }
        }
        prop_assert_eq!(
            batch.stats(f),
            &QueryStats::run_pairs(serial, f, &ptrs),
            "stats drift for {}",
            f
        );
    }
    // The parallel analysis itself is byte-identical: same symbol
    // table, so displayed states cannot drift either.
    prop_assert_eq!(
        serial.symbols().iter().collect::<Vec<_>>(),
        batch.rbaa().symbols().iter().collect::<Vec<_>>()
    );
    Ok(())
}

// Tier-1 budget: the Figure-15 generator produces modules with loops,
// σ-chains, interprocedural calls, mallocs/allocas/frees and globals —
// every state kind the matrix interns. `PROPTEST_CASES` overrides.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interned + cached + parallel ≡ serial per-query, across random
    /// modules, worker counts and analysis sizes.
    #[test]
    fn batch_driver_equals_serial_path(
        target in 150usize..900,
        seed in 0u64..10_000,
        threads in 1usize..5,
    ) {
        let m = sra::workloads::scaling::generate_module(target, seed);
        assert_equivalent(&m, threads)?;
    }
}

/// The fixed suite corpus, spot-checked at both extremes of the worker
/// range (deterministic, so one benchmark suffices per size class).
#[test]
fn suite_benchmarks_equal_serial_path() {
    for name in ["allroots", "ft", "anagram"] {
        let m = sra::workloads::suite::benchmark(name)
            .unwrap()
            .build()
            .unwrap();
        for threads in [1, 4] {
            assert_equivalent(&m, threads).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}

/// 512-case sweep of the same property. Excluded from tier-1; run with
/// `cargo test -q --release --test driver_equivalence -- --ignored`.
#[test]
#[ignore = "deep fuzz (minutes); tier-1 runs the 24-case variant"]
fn deep_fuzz_equivalence() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(512));
    runner
        .run(
            &(150usize..900, 0u64..1_000_000, 1usize..5),
            |(target, seed, threads)| {
                let m = sra::workloads::scaling::generate_module(target, seed);
                assert_equivalent(&m, threads)
            },
        )
        .unwrap();
}
