//! Frontend totality rail: the mini-C pipeline — source → lex → parse
//! → lower, both the one-shot [`sra::lang::compile`] and the
//! incremental [`sra::lang::SourceProgram`] — must be *total*: every
//! input either compiles or returns a structured `CompileError`, never
//! a panic. The strategy mirrors `parse_fuzz`: start from a
//! known-valid generated program and mutate it the way editors and
//! fuzzers break files — spliced/deleted/duplicated **bytes** and
//! spliced/deleted/duplicated **tokens**. A rejected edit must also be
//! atomic: the registry keeps serving its previous text and module.

use proptest::prelude::*;
use sra::lang::{compile, SourceProgram};

mod common;
use common::mutate;

/// One round: generate a valid island program, apply a stack of
/// mutations, and require both frontends to fail *gracefully* — and
/// the incremental one to fail *atomically*.
fn check_total(islands: usize, chain: usize, seed: u64, mutations: &[(u8, usize, usize)]) {
    let base = sra::workloads::source_edits::generate_workload(islands, chain, seed).text();
    let mut text = base.clone();
    for &(which, a, b) in mutations {
        text = mutate(&text, which, a, b);
    }
    // The one-shot pipeline is total.
    let _ = compile(&text);
    // The incremental registry is total, and a rejected edit leaves it
    // exactly as it was; an accepted one leaves it equal to a full
    // re-lower of the new text.
    let mut program = SourceProgram::new(&base).expect("base compiles");
    let module_before = program.module().clone();
    // The edit is accepted exactly when the text compiles from scratch,
    // and a rejection reports the same first problem at the same place.
    let fresh = SourceProgram::new(&text);
    match program.apply_edit(&text) {
        Ok(_) => {
            assert!(
                fresh.is_ok(),
                "edit accepted but a scratch compile rejects: {:?}",
                fresh.err()
            );
            assert_eq!(program.text(), text);
            let relowered = program.full_relower().expect("accepted text re-lowers");
            assert_eq!(
                program.module(),
                &relowered,
                "diffed module != full re-lower"
            );
        }
        Err(e) => {
            assert_eq!(
                fresh.err().as_ref(),
                Some(&e),
                "edit and scratch compile disagree on the error"
            );
            assert_eq!(program.text(), base, "failed edit must not change the text");
            assert_eq!(
                program.module(),
                &module_before,
                "failed edit must not change the module"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No input derived from a valid program can panic the frontend,
    /// one-shot or incremental.
    #[test]
    fn mutated_sources_never_panic(
        islands in 1usize..4,
        chain in 1usize..4,
        seed in 0u64..10_000,
        mutations in proptest::collection::vec((0u8..6, 0usize..10_000, 0usize..10_000), 1..5),
    ) {
        check_total(islands, chain, seed, &mutations);
    }
}

/// The unmutated sources stay green end to end (the property above
/// mostly exercises failure paths).
#[test]
fn generated_sources_compile_and_diff_cleanly() {
    for seed in 0..4 {
        let mut w = sra::workloads::source_edits::generate_workload(2, 3, seed);
        let mut program = SourceProgram::new(&w.text()).expect("compiles");
        for step in w.edit_stream(4) {
            program
                .apply_edit(&step.text)
                .expect("stream edits compile");
            let relowered = program.full_relower().expect("re-lowers");
            assert_eq!(program.module(), &relowered);
        }
    }
}

/// 1024-case sweep of the same property. Excluded from tier-1; run
/// with `cargo test -q --release --test lang_fuzz -- --ignored`.
#[test]
#[ignore = "deep fuzz (minutes); tier-1 runs the 48-case variant"]
fn deep_fuzz_lang_no_panic() {
    let mut runner = proptest::test_runner::TestRunner::new(ProptestConfig::with_cases(1024));
    runner
        .run(
            &(
                1usize..5,
                1usize..5,
                0u64..1_000_000,
                proptest::collection::vec((0u8..6, 0usize..100_000, 0usize..100_000), 1..8),
            ),
            |(islands, chain, seed, mutations)| {
                check_total(islands, chain, seed, &mutations);
                Ok(())
            },
        )
        .unwrap();
}
