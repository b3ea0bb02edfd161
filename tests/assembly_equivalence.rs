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
//! against the serial layer-by-layer reference. The edit leg pins the
//! carried assembly: after replace/add/remove edits, sessions at width
//! 1 and N, and `assemble_on` of carried and fresh functions on a forced
//! width-N pool, hand out the ids, LR states and symbol tables of the
//! serial `from_parts` over fresh parts of the edited module.

use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use sra::core::{
    lr, AnalysisConfig, AnalysisSession, BatchAnalysis, LrAnalysis, LrPart, LrSource, RbaaAnalysis,
    WorkerPool,
};
use sra::ir::{FuncId, Module};
use sra::range::{RangeAnalysis, RangePart, RangeSource};
use sra::workloads::edits::{self, Edit};

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
    prop_assert_eq!(
        serial.symbols().iter().collect::<Vec<_>>(),
        pooled.symbols().iter().collect::<Vec<_>>()
    );
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

/// The edit leg. For every edit of a generated stream: sessions on a
/// width-1 and a width-`threads` pool (the session's pool is capped at
/// the hardware), and the carried assembly on a forced width-`threads`
/// pool — each clean function imported out of the previous module's
/// serial analysis, each edited one from a part minted at symbol 0 —
/// all equal the serial `from_parts` of the edited module id-for-id.
fn assert_edits_identical(m: &Module, threads: usize, seed: u64) -> Result<(), TestCaseError> {
    let forced = WorkerPool::forced(threads);
    let mut sessions = [1, threads].map(|t| {
        let config = AnalysisConfig::builder().threads(t).build();
        AnalysisSession::with_config(m.clone(), config).expect("generated modules verify")
    });
    let config = sessions[0].config();
    let (range_parts, lr_parts) = build_parts(m, config);
    let mut old = (
        RangeAnalysis::from_parts(range_parts),
        LrAnalysis::from_parts(lr_parts),
    );
    for edit in edits::generate_edit_stream(m, 6, seed) {
        for s in &mut sessions {
            edits::apply_to_session(s, &edit).expect("stream edits are valid");
        }
        let edited = sessions[0].module();
        let (range_parts, lr_parts) = build_parts(edited, config);
        let serial = (
            RangeAnalysis::from_parts(range_parts),
            LrAnalysis::from_parts(lr_parts),
        );
        for s in &sessions {
            assert_ranges_identical(edited, &serial.0, s.analysis().ranges())?;
            assert_lr_identical(edited, &serial.1, s.analysis().lr())?;
        }
        // Old id of each new function; `None` for the edited one.
        let old_of = |i: usize| match &edit {
            Edit::Replace { func, .. } => (i != func.index()).then_some(i),
            Edit::Add { .. } => (i + 1 < edited.num_functions()).then_some(i),
            Edit::Remove { func } => Some(i + usize::from(i >= func.index())),
        };
        let (range_sources, lr_sources): (Vec<_>, Vec<_>) = edited
            .func_ids()
            .map(|f| match old_of(f.index()) {
                Some(o) => (
                    RangeSource::Carried(&old.0, FuncId::new(o)),
                    LrSource::Carried(&old.1, FuncId::new(o)),
                ),
                None => (
                    RangeSource::Fresh(Box::new(sra::range::analyze_function_part(
                        edited.function(f),
                        config.range,
                        0,
                    ))),
                    LrSource::Fresh(Box::new(lr::analyze_function_part(edited, f, 0))),
                ),
            })
            .unzip();
        let carried_ranges = RangeAnalysis::assemble_on(range_sources, &forced);
        let carried_lr = LrAnalysis::assemble_on(lr_sources, &forced);
        assert_ranges_identical(edited, &serial.0, &carried_ranges)?;
        assert_lr_identical(edited, &serial.1, &carried_lr)?;
        old = serial;
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

    /// Carried assembly after edits ≡ serial import of fresh parts,
    /// id-for-id, in sessions and on forced pools.
    #[test]
    fn carried_assembly_after_edits_equals_serial_import(
        target in 150usize..600,
        seed in 0u64..10_000,
        edit_seed in 0u64..10_000,
        threads in 2usize..5,
    ) {
        let m = sra::workloads::scaling::generate_module(target, seed);
        assert_edits_identical(&m, threads, edit_seed)?;
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
                assert_assembly_identical(&m, threads)?;
                assert_edits_identical(&m, threads, seed)
            },
        )
        .unwrap();
}
