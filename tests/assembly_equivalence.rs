//! The fused pipeline's assembly contract: importing per-function
//! analysis parts into the canonical module arena **on the worker
//! pool** produces an arena, symbol table and id assignment that are
//! byte-identical to the serial fold — not merely equivalent verdicts.
//! Every `RangeId` handed out by `from_parts_on` must equal the one
//! `from_parts` hands out, across arbitrary modules and pool widths,
//! so snapshots, matrices and session deltas built on either path
//! interoperate freely. The end-to-end leg pins the same property for
//! the one scratch pipeline (`BatchAnalysis::analyze_on`, the session
//! rebuild with every function dirty), including the GR wave solve and
//! its re-canonicalized final states — at width N against width 1, and
//! against the serial layer-by-layer reference.

use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use sra::core::{lr, AnalysisConfig, BatchAnalysis, LrAnalysis, LrPart, RbaaAnalysis, WorkerPool};
use sra::ir::{FuncId, Module};
use sra::range::{RangeAnalysis, RangePart};

/// Builds the per-function parts at their final symbol blocks: a serial
/// budget scan assigning disjoint dense blocks, then one part per
/// function. Serial on purpose — the property under
/// test is the *assembly*, so the inputs must be identical on both
/// sides.
fn build_parts(m: &Module, config: AnalysisConfig) -> (Vec<RangePart>, Vec<LrPart>) {
    let nf = m.num_functions();
    let (mut range_parts, mut lr_parts) = (Vec::with_capacity(nf), Vec::with_capacity(nf));
    let (mut range_base, mut lr_base) = (0u32, 0u32);
    for i in 0..nf {
        let fid = FuncId::new(i);
        range_parts.push(sra::range::analyze_function_part(
            m.function(fid),
            config.range,
            range_base,
        ));
        lr_parts.push(lr::analyze_function_part(m, fid, lr_base));
        range_base += sra::range::symbol_budget(m.function(fid), config.range) as u32;
        lr_base += lr::symbol_budget(m, fid) as u32;
    }
    (range_parts, lr_parts)
}

/// Id-for-id equality of two range analyses: same arena extents, same
/// symbol table, and the *raw* `RangeId` of every value equal — which
/// transitively pins every `ExprId` the ranges reach.
fn assert_ranges_identical(
    m: &Module,
    serial: &RangeAnalysis,
    pooled: &RangeAnalysis,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(serial.arena().len(), pooled.arena().len(), "expr drift");
    prop_assert_eq!(
        serial.arena().num_ranges(),
        pooled.arena().num_ranges(),
        "range drift"
    );
    prop_assert_eq!(
        serial.symbols().iter().collect::<Vec<_>>(),
        pooled.symbols().iter().collect::<Vec<_>>()
    );
    for f in m.func_ids() {
        for v in m.function(f).value_ids() {
            prop_assert_eq!(
                serial.range(f, v),
                pooled.range(f, v),
                "RangeId drift at {} {}",
                f,
                v
            );
        }
    }
    Ok(())
}

/// Id-for-id equality of two LR analyses via their public state
/// lookups: `LrState` stores raw `RangeId`s and sigma lists, so
/// equality here is id-level, not display-level.
fn assert_lr_identical(
    m: &Module,
    serial: &LrAnalysis,
    pooled: &LrAnalysis,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(serial.arena().len(), pooled.arena().len(), "expr drift");
    prop_assert_eq!(serial.arena().num_ranges(), pooled.arena().num_ranges());
    for f in m.func_ids() {
        for v in m.function(f).value_ids() {
            prop_assert_eq!(
                serial.state(f, v).map(|s| s.state()),
                pooled.state(f, v).map(|s| s.state()),
                "LrState drift at {} {}",
                f,
                v
            );
        }
    }
    Ok(())
}

/// The property: for one module and one forced pool width, parallel
/// part assembly and the one pooled pipeline agree id-for-id with
/// their serial references.
fn assert_assembly_identical(m: &Module, threads: usize) -> Result<(), TestCaseError> {
    let config = AnalysisConfig::builder().threads(threads).build();
    let pool = WorkerPool::forced(threads);

    // Leg 1: RangeAnalysis::from_parts_on ≡ from_parts.
    let (range_parts, lr_parts) = build_parts(m, config);
    let serial_ranges = RangeAnalysis::from_parts(range_parts.clone());
    let pooled_ranges = RangeAnalysis::from_parts_on(range_parts, &pool);
    assert_ranges_identical(m, &serial_ranges, &pooled_ranges)?;

    // Leg 2: LrAnalysis::from_parts_on ≡ from_parts.
    let serial_lr = LrAnalysis::from_parts(lr_parts.clone());
    let pooled_lr = LrAnalysis::from_parts_on(lr_parts, &pool);
    assert_lr_identical(m, &serial_lr, &pooled_lr)?;

    // Leg 3: the one pipeline on a forced pool ≡ the same pipeline at
    // width 1 ≡ the serial layer-by-layer reference — ranges, LR, and
    // the canonicalized GR final states all id-identical.
    let width1 = BatchAnalysis::analyze_on(m, config, &WorkerPool::forced(1));
    let pooled = BatchAnalysis::analyze_on(m, config, &pool);
    let reference = RbaaAnalysis::analyze_with(m, config);
    for other in [pooled.rbaa(), &reference] {
        assert_rbaa_identical(m, width1.rbaa(), other)?;
    }
    Ok(())
}

/// Id-for-id equality of two whole analyses: ranges, LR, and the GR
/// final states with their canonical arena extents.
fn assert_rbaa_identical(
    m: &Module,
    a: &RbaaAnalysis,
    b: &RbaaAnalysis,
) -> Result<(), TestCaseError> {
    assert_ranges_identical(m, a.ranges(), b.ranges())?;
    assert_lr_identical(m, a.lr(), b.lr())?;
    let (sg, pg) = (a.gr(), b.gr());
    prop_assert_eq!(sg.arena().len(), pg.arena().len(), "GR expr drift");
    prop_assert_eq!(sg.arena().num_ranges(), pg.arena().num_ranges());
    for f in m.func_ids() {
        for v in m.function(f).value_ids() {
            prop_assert_eq!(
                sg.state(f, v).state(),
                pg.state(f, v).state(),
                "GR PtrState drift at {} {}",
                f,
                v
            );
        }
    }
    Ok(())
}

// Tier-1 budget: the Figure-15 generator produces modules with loops,
// σ-chains, interprocedural calls, mallocs/allocas/frees and globals.
// `PROPTEST_CASES` overrides.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel canonical-arena assembly ≡ serial import, id-for-id,
    /// across random modules and forced pool widths.
    #[test]
    fn pooled_assembly_equals_serial_import(
        target in 150usize..900,
        seed in 0u64..10_000,
        threads in 2usize..5,
    ) {
        let m = sra::workloads::scaling::generate_module(target, seed);
        assert_assembly_identical(&m, threads)?;
    }
}

/// Call-graph-heavy corpus: deep caller chains stress the GR wave
/// schedule and its final-state re-canonicalization.
#[test]
fn call_graph_assembly_identical() {
    for (funcs, seed) in [(6usize, 11u64), (12, 29), (20, 97)] {
        let m = sra::workloads::scaling::generate_call_graph_module(funcs, seed);
        for threads in [2, 4] {
            assert_assembly_identical(&m, threads)
                .unwrap_or_else(|e| panic!("funcs={funcs} seed={seed} threads={threads}: {e}"));
        }
    }
}

/// 512-case sweep of the same property. Excluded from tier-1; run with
/// `cargo test -q --release --test assembly_equivalence -- --ignored`.
#[test]
#[ignore = "deep fuzz (minutes); tier-1 runs the 24-case variant"]
fn deep_fuzz_assembly() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(512));
    runner
        .run(
            &(150usize..900, 0u64..1_000_000, 2usize..5),
            |(target, seed, threads)| {
                let m = sra::workloads::scaling::generate_module(target, seed);
                assert_assembly_identical(&m, threads)
            },
        )
        .unwrap();
}
