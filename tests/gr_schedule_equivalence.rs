//! The GR wave scheduler's contract: on a pool wider than one, the SCCs
//! of each call-graph condensation level are analysed concurrently,
//! with per-SCC state hand-off to worker threads — and that produces
//! **byte-identical** `PtrState`s to a width-1 pool, which walks the
//! same order level by level on the calling thread, on arbitrary
//! modules. The per-SCC Gauss–Seidel sweep order is spec; this rail is
//! what lets the scheduler change its parallelisation freely — any
//! drift in any state of any value is a test failure, not a silent
//! precision change.
//!
//! Two generators feed the property: the instruction-heavy Figure-15
//! workload (flat call graph, loops, σ-chains) and the call-graph
//! workload (deep chains, *mutually recursive cliques* — so single- and
//! multi-node SCCs are both exercised — wide fans, cross edges).

use proptest::prelude::*;
use sra::core::{GrAnalysis, GrConfig};
use sra::ir::Module;
use sra::range::RangeAnalysis;

/// Asserts state-for-state equality between a width-1 pool and waves
/// on a forced pool of `threads` workers, plus matching sweep counts.
fn assert_schedules_equal(m: &Module, threads: usize) -> Result<(), TestCaseError> {
    let ranges = RangeAnalysis::analyze(m);
    let serial = GrAnalysis::analyze_with(
        m,
        &ranges,
        GrConfig {
            threads: 1,
            ..GrConfig::default()
        },
    );
    let waves = GrAnalysis::analyze_with(
        m,
        &ranges,
        GrConfig {
            threads,
            ..GrConfig::default()
        },
    );
    prop_assert_eq!(
        serial.ascending_sweeps(),
        waves.ascending_sweeps(),
        "sweep-count drift at threads={}",
        threads
    );
    for f in m.func_ids() {
        for v in m.function(f).value_ids() {
            prop_assert_eq!(
                serial.state(f, v),
                waves.state(f, v),
                "state drift at threads={} {} {}",
                threads,
                f,
                v
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Waves ≡ serial on the instruction-heavy workload.
    #[test]
    fn gr_schedule_equivalence_on_instruction_workload(
        target in 150usize..900,
        seed in 0u64..10_000,
        threads in 2usize..6,
    ) {
        let m = sra::workloads::scaling::generate_module(target, seed);
        assert_schedules_equal(&m, threads)?;
    }

    /// Waves ≡ serial on the call-graph workload — recursion included,
    /// so recursive SCCs (which collapse waves to effectively-serial)
    /// and wide independent levels are both on the table.
    #[test]
    fn gr_schedule_equivalence_on_call_graph_workload(
        funcs in 2usize..80,
        seed in 0u64..10_000,
        threads in 2usize..6,
    ) {
        let m = sra::workloads::scaling::generate_call_graph_module(funcs, seed);
        assert_schedules_equal(&m, threads)?;
    }
}

/// The fixed suite corpus, spot-checked at the extremes of the worker
/// range.
#[test]
fn suite_benchmarks_schedules_agree() {
    for name in ["allroots", "ft", "anagram"] {
        let m = sra::workloads::suite::benchmark(name)
            .unwrap()
            .build()
            .unwrap();
        for threads in [2, 8] {
            assert_schedules_equal(&m, threads).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}

/// 512-case sweep of both properties. Excluded from tier-1; run with
/// `cargo test -q --release --test gr_schedule_equivalence -- --ignored`.
#[test]
#[ignore = "deep fuzz (minutes); tier-1 runs the 24-case variants"]
fn deep_fuzz_gr_schedule_equivalence() {
    let mut runner = proptest::test_runner::TestRunner::new(ProptestConfig::with_cases(512));
    runner
        .run(
            &(2usize..120, 0u64..1_000_000, 2usize..6),
            |(funcs, seed, threads)| {
                let m = sra::workloads::scaling::generate_call_graph_module(funcs, seed);
                assert_schedules_equal(&m, threads)
            },
        )
        .unwrap();
}
