//! The demand-driven query path's contract: for **every** pointer pair
//! of every function, [`sra::core::DemandCache`] answers byte-identical
//! to the uncached [`sra::core::RbaaAnalysis::alias_with_test`]
//! reference and to the eager [`sra::core::AliasMatrix`] — same
//! verdicts, same `WhichTest` attributions — including across
//! arbitrary session edit streams in [`sra::core::QueryMode::Demand`],
//! where no matrix is ever built. The same rail pins the tiled
//! parallel matrix build to the serial one (same stats, same byte
//! accounting, same cells as seen through every lookup).

use proptest::prelude::*;
use sra::core::{
    pointer_values, AliasMatrix, AnalysisConfig, AnalysisSession, QueryMode, RbaaAnalysis,
};
use sra::ir::Module;
use sra::workloads::edits;
use sra::workloads::scaling;

/// Pins all three answer paths to each other over one module: the
/// uncached reference, the serial matrix, the tiled parallel matrix,
/// and a demand cache grown query by query.
fn assert_three_way_agreement(m: &Module, threads: usize) -> Result<(), TestCaseError> {
    let rbaa = RbaaAnalysis::analyze_with(m, AnalysisConfig::builder().threads(threads).build());
    let mut demand = rbaa.demand_cache();
    for f in m.func_ids() {
        let serial = AliasMatrix::build(&rbaa, m, f);
        let tiled = AliasMatrix::build_with(&rbaa, m, f, threads.max(2));
        prop_assert_eq!(
            serial.stats(),
            tiled.stats(),
            "tiled stats diverged at {}",
            f
        );
        prop_assert_eq!(
            serial.bytes(),
            tiled.bytes(),
            "tiled byte accounting diverged at {}",
            f
        );
        let ptrs = pointer_values(m, f);
        for &p in &ptrs {
            for &q in &ptrs {
                let reference = rbaa.alias_with_test(f, p, q);
                prop_assert_eq!(
                    demand.query(&rbaa, f, p, q),
                    reference,
                    "demand diverged at {}: {} vs {}",
                    f,
                    p,
                    q
                );
                if p != q {
                    let cached = serial.lookup(p, q).expect("matrix covers its pointers");
                    prop_assert_eq!(
                        cached,
                        reference,
                        "serial matrix diverged at {}: {} vs {}",
                        f,
                        p,
                        q
                    );
                    prop_assert_eq!(
                        tiled.lookup(p, q).expect("matrix covers its pointers"),
                        cached,
                        "tiled matrix diverged at {}: {} vs {}",
                        f,
                        p,
                        q
                    );
                }
            }
        }
    }
    Ok(())
}

/// Replays a generated edit stream through a matrix-mode session and a
/// demand-mode session in lockstep, asserting identical verdicts after
/// every edit — while the demand session provably never builds a
/// matrix.
fn run_edit_stream(
    m: Module,
    num_edits: usize,
    edit_seed: u64,
    threads: usize,
) -> Result<(), TestCaseError> {
    let stream = edits::generate_edit_stream(&m, num_edits, edit_seed);
    let config = AnalysisConfig::builder().threads(threads);
    let mut demand =
        AnalysisSession::with_config(m.clone(), config.query_mode(QueryMode::Demand).build())
            .expect("generated modules verify");
    let mut matrix =
        AnalysisSession::with_config(m, AnalysisConfig::builder().threads(threads).build())
            .expect("generated modules verify");

    let check = |demand: &AnalysisSession, matrix: &AnalysisSession| -> Result<(), TestCaseError> {
        let m = matrix.module();
        let rbaa = matrix.analysis();
        for f in m.func_ids() {
            let ptrs = pointer_values(m, f);
            for &p in &ptrs {
                for &q in &ptrs {
                    let reference = rbaa.alias_with_test(f, p, q);
                    prop_assert_eq!(
                        matrix.alias_with_test(f, p, q),
                        reference,
                        "matrix session diverged at {}: {} vs {}",
                        f,
                        p,
                        q
                    );
                    prop_assert_eq!(
                        demand.alias_with_test(f, p, q),
                        reference,
                        "demand session diverged at {}: {} vs {}",
                        f,
                        p,
                        q
                    );
                }
            }
        }
        Ok(())
    };

    check(&demand, &matrix)?;
    for edit in &stream {
        edits::apply_to_session(&mut demand, edit).expect("stream edits are valid");
        edits::apply_to_session(&mut matrix, edit).expect("stream edits are valid");
        check(&demand, &matrix)?;
    }
    prop_assert_eq!(
        demand.stats().matrices_rebuilt,
        0,
        "demand mode must never build a matrix"
    );
    prop_assert!(
        demand
            .demand_stats()
            .expect("demand mode ran queries")
            .queries
            > 0,
        "the lockstep checks route through the demand cache"
    );
    Ok(())
}

// Tier-1 budget (`PROPTEST_CASES` overrides): 24 cases per property —
// flat multi-function modules, single giant functions (the matrix
// scaling cliff demand mode exists for), and edit streams replayed in
// both query modes.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flat modules: many small functions, verdicts from all three
    /// paths, serial vs tiled builds at 2–4 threads.
    #[test]
    fn demand_equals_matrix_on_flat_modules(
        target in 150usize..600,
        seed in 0u64..10_000,
        threads in 1usize..5,
    ) {
        let m = scaling::generate_module(target, seed);
        assert_three_way_agreement(&m, threads)?;
    }

    /// Giant single functions: few signatures, huge pair universe —
    /// the shape where the tiled triangle walk earns its keep.
    #[test]
    fn demand_equals_matrix_on_giant_functions(
        ptrs in 30usize..120,
        cliques in 1usize..8,
        seed in 0u64..10_000,
        threads in 1usize..5,
    ) {
        let m = scaling::generate_giant_function(ptrs, cliques, seed);
        assert_three_way_agreement(&m, threads)?;
    }

    /// Edit streams: demand-mode sessions stay pinned to matrix-mode
    /// sessions (and the uncached reference) through replaces, adds
    /// and removes, with the demand cache dropped on every rebuild.
    #[test]
    fn demand_session_tracks_edits(
        target in 150usize..500,
        seed in 0u64..10_000,
        edit_seed in 0u64..10_000,
        num_edits in 2usize..6,
        threads in 1usize..5,
    ) {
        let m = scaling::generate_module(target, seed);
        run_edit_stream(m, num_edits, edit_seed, threads)?;
    }
}

/// 512-case sweep of the same properties (split across the three
/// shapes). Excluded from tier-1; run with
/// `cargo test -q --release --test demand_equivalence -- --ignored`.
#[test]
#[ignore = "deep fuzz (minutes); tier-1 runs the 24-case variants"]
fn deep_fuzz_demand_equivalence() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(192));
    runner
        .run(
            &(150usize..700, 0u64..1_000_000, 1usize..5),
            |(target, seed, threads)| {
                let m = scaling::generate_module(target, seed);
                assert_three_way_agreement(&m, threads)
            },
        )
        .unwrap();
    let mut runner = TestRunner::new(ProptestConfig::with_cases(192));
    runner
        .run(
            &(30usize..200, 1usize..10, 0u64..1_000_000, 1usize..5),
            |(ptrs, cliques, seed, threads)| {
                let m = scaling::generate_giant_function(ptrs, cliques, seed);
                assert_three_way_agreement(&m, threads)
            },
        )
        .unwrap();
    let mut runner = TestRunner::new(ProptestConfig::with_cases(128));
    runner
        .run(
            &(
                150usize..600,
                0u64..1_000_000,
                0u64..1_000_000,
                2usize..7,
                1usize..5,
            ),
            |(target, seed, edit_seed, num_edits, threads)| {
                let m = scaling::generate_module(target, seed);
                run_edit_stream(m, num_edits, edit_seed, threads)
            },
        )
        .unwrap();
}
