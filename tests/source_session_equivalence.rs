//! The end-to-end incremental *frontend* contract: after **every**
//! textual edit of an arbitrary stream, the
//! [`sra::lang::SourceProgram`] → [`AnalysisSession::apply_source_edit`]
//! pipeline is byte-identical to throwing the text away and starting
//! over — a full re-lower of the current source plus a from-scratch
//! serial reference (`RbaaAnalysis::analyze_with`) and matrix build. Same module, same symbol tables,
//! same GR/LR/range states, same sweep counts, same verdicts and
//! `WhichTest` attributions, same per-function statistics. On top of
//! identity, the reuse counters must witness the incrementality:
//! semantically invisible edits (comments, whitespace, reordering)
//! re-analyze *nothing*.

use proptest::prelude::*;
use sra::core::{pointer_values, AnalysisConfig, AnalysisSession, BatchAnalysis, RbaaAnalysis};
use sra::lang::{SourceDiff, SourceProgram};
use sra::workloads::source_edits;

/// Asserts full byte-identity of `session` against a scratch analysis
/// of its current module.
fn assert_matches_scratch(session: &AnalysisSession) -> Result<(), TestCaseError> {
    let m = session.module();
    let scratch = RbaaAnalysis::analyze_with(m, session.config());
    let rbaa = session.analysis();
    prop_assert!(
        rbaa.symbols().iter().eq(scratch.symbols().iter()),
        "kernel symbol tables diverged"
    );
    prop_assert!(
        rbaa.lr().symbols().iter().eq(scratch.lr().symbols().iter()),
        "LR symbol tables diverged"
    );
    prop_assert_eq!(
        rbaa.gr().ascending_sweeps(),
        scratch.gr().ascending_sweeps(),
        "ascending sweep counts diverged"
    );
    for f in m.func_ids() {
        for v in m.function(f).value_ids() {
            prop_assert_eq!(
                rbaa.gr().state(f, v),
                scratch.gr().state(f, v),
                "GR state diverged at {} {}",
                f,
                v
            );
            prop_assert_eq!(
                rbaa.ranges().range(f, v),
                scratch.ranges().range(f, v),
                "range diverged at {} {}",
                f,
                v
            );
            prop_assert_eq!(
                rbaa.lr().state(f, v),
                scratch.lr().state(f, v),
                "LR state diverged at {} {}",
                f,
                v
            );
        }
    }
    let batch = BatchAnalysis::from_rbaa(scratch, m, 1);
    for f in m.func_ids() {
        let ptrs = pointer_values(m, f);
        for &p in &ptrs {
            for &q in &ptrs {
                prop_assert_eq!(
                    session.alias_with_test(f, p, q),
                    batch.alias_with_test(f, p, q),
                    "verdict diverged at {}: {} vs {}",
                    f,
                    p,
                    q
                );
            }
        }
        prop_assert_eq!(
            session.stats_of(f),
            batch.stats(f),
            "query stats diverged at {}",
            f
        );
    }
    Ok(())
}

/// Replays a generated textual edit stream through the frontend and a
/// session, asserting after every step that (1) the diffed registry
/// module equals a full re-lower of the current text, (2) the session
/// module stays in lockstep with the registry, (3) the session's
/// analysis is byte-identical to scratch, and (4) no-op edits
/// re-analyze nothing.
fn run_stream(
    islands: usize,
    chain: usize,
    seed: u64,
    num_edits: usize,
    threads: usize,
) -> Result<(), TestCaseError> {
    let mut w = source_edits::generate_workload(islands, chain, seed);
    let mut program = SourceProgram::new(&w.text()).expect("generated text compiles");
    let mut session = AnalysisSession::with_config(
        program.module().clone(),
        AnalysisConfig::builder().threads(threads).build(),
    )
    .expect("lowered modules verify");
    assert_matches_scratch(&session)?;
    for step in w.edit_stream(num_edits) {
        let before = *session.stats();
        let diff = program
            .apply_edit(&step.text)
            .expect("stream text compiles");
        let noop = matches!(diff, SourceDiff::Noop);
        if step.kind.is_noop() {
            prop_assert!(noop, "{:?} must diff to a no-op", step.kind);
        }
        session
            .apply_source_edit(diff)
            .expect("session accepts registry diffs");
        let after = *session.stats();
        // The shadow full-relower validator: diffing must land on the
        // same module as recompiling the whole text from scratch.
        let relowered = program.full_relower().expect("current text re-lowers");
        prop_assert_eq!(
            program.module(),
            &relowered,
            "diffed registry != full re-lower"
        );
        prop_assert_eq!(
            session.module(),
            program.module(),
            "session fell out of lockstep with the registry"
        );
        if noop {
            prop_assert_eq!(after.noop_edits, before.noop_edits + 1);
            prop_assert_eq!(after.parts_reanalyzed, before.parts_reanalyzed);
            prop_assert_eq!(after.matrices_rebuilt, before.matrices_rebuilt);
            prop_assert_eq!(after.gr_components_solved, before.gr_components_solved);
            prop_assert!(after.parts_reused > before.parts_reused);
        }
        assert_matches_scratch(&session)?;
    }
    prop_assert_eq!(session.stats().edits, num_edits);
    Ok(())
}

// Tier-1 budget (`PROPTEST_CASES` overrides): 24 cases over the island
// generator — many small weak components, chain links flipping between
// internal and external as functions come and go.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Textual streams keep frontend, session and scratch in lockstep.
    #[test]
    fn source_sessions_equal_scratch(
        islands in 1usize..5,
        chain in 1usize..5,
        seed in 0u64..10_000,
        num_edits in 2usize..7,
        threads in 1usize..5,
    ) {
        run_stream(islands, chain, seed, num_edits, threads)?;
    }
}

/// 512-case sweep of the same property. Excluded from tier-1; run with
/// `cargo test -q --release --test source_session_equivalence -- --ignored`.
#[test]
#[ignore = "deep fuzz (minutes); tier-1 runs the 24-case variant"]
fn deep_fuzz_source_session_equivalence() {
    let mut runner = proptest::test_runner::TestRunner::new(ProptestConfig::with_cases(512));
    runner
        .run(
            &(1usize..6, 1usize..6, 0u64..1_000_000, 2usize..8, 1usize..5),
            |(islands, chain, seed, num_edits, threads)| {
                run_stream(islands, chain, seed, num_edits, threads)
            },
        )
        .unwrap();
}
