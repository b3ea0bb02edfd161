//! The incremental session's contract: after **every** edit of an
//! arbitrary update stream, [`AnalysisSession`] is byte-identical to a
//! from-scratch serial reference (`RbaaAnalysis::analyze_with`) plus a
//! matrix build over the updated module — same symbol tables, same
//! GR/LR/range states, same sweep counts, same verdicts and `WhichTest`
//! attributions, same per-function statistics. This is the rail that
//! lets the session reuse caches aggressively: any invalidation bug is
//! a test failure, not a silently stale verdict. The session's carried
//! module arenas are pinned byte for byte too: its MODULE, range, LR
//! and GR snapshot sections equal those of a scratch session.
//!
//! A second rail pins the session's targeted batch verification to the
//! whole-module verifier: random batches of signature changes (with and
//! without caller fixes), removals of still-called functions, adds that
//! call later adds and replace+remove mixes are accepted exactly when
//! `verify_module` accepts the would-be module, with the same error,
//! and a rejected batch leaves the session unchanged.

use proptest::prelude::*;
use sra::core::{
    pointer_values, AnalysisConfig, AnalysisSession, BatchAnalysis, QueryStats, RbaaAnalysis,
    SessionEdit, SessionError,
};
use sra::ir::callgraph::CallGraph;
use sra::ir::verify::verify_module;
use sra::ir::{Callee, FuncId, Function, FunctionBuilder, Ty};
use sra::workloads::edits::{self, Edit};
use sra::workloads::scaling;

/// The snapshot section tags of the module and of the range, LR and GR
/// analyses (module arenas, per-function ids and symbol names).
const ANALYSIS_SECTIONS: [u8; 4] = [1, 2, 3, 4];

/// Splits a snapshot into `(tag, payload)` sections with the public
/// framing: 8 magic bytes and a `u32` format version, then per section
/// a `u8` tag, a `u64` payload length, the payload and a `u64` checksum
/// (all little-endian).
fn sections(bytes: &[u8]) -> Vec<(u8, &[u8])> {
    let mut out = Vec::new();
    let mut at = 12;
    while at < bytes.len() {
        let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
        out.push((bytes[at], &bytes[at + 9..at + 9 + len]));
        at += 9 + len + 8;
    }
    out
}

fn save(session: &AnalysisSession) -> Vec<u8> {
    let mut bytes = Vec::new();
    session.save(&mut bytes).expect("saves");
    bytes
}

/// Asserts full byte-identity of `session` against a scratch analysis
/// of its current module.
fn assert_matches_scratch(session: &AnalysisSession) -> Result<(), TestCaseError> {
    let m = session.module();
    let fresh = AnalysisSession::with_config(m.clone(), session.config()).expect("verifies");
    let (ours, theirs) = (save(session), save(&fresh));
    let pick = |bytes| {
        sections(bytes)
            .into_iter()
            .filter(|(tag, _)| ANALYSIS_SECTIONS.contains(tag))
            .collect::<Vec<_>>()
    };
    let (ours, theirs) = (pick(&ours), pick(&theirs));
    prop_assert_eq!(ours.len(), ANALYSIS_SECTIONS.len());
    for ((tag, a), (_, b)) in ours.iter().zip(&theirs) {
        prop_assert!(a == b, "snapshot section {} diverged from scratch", tag);
    }

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

/// Replays a generated edit stream through a session, asserting
/// byte-identity after every step plus the cache-reuse guarantees the
/// stats expose: a no-op replace recomputes nothing, and any
/// single-function edit of a multi-function module reuses >0 parts.
fn run_stream(
    m: sra::ir::Module,
    num_edits: usize,
    edit_seed: u64,
    threads: usize,
) -> Result<(), TestCaseError> {
    let stream = edits::generate_edit_stream(&m, num_edits, edit_seed);
    let mut session =
        AnalysisSession::with_config(m, AnalysisConfig::builder().threads(threads).build())
            .expect("generated modules verify");
    assert_matches_scratch(&session)?;
    for edit in &stream {
        let nf = session.module().num_functions();
        let before = *session.stats();
        let noop = matches!(
            edit,
            Edit::Replace { func, body } if session.module().function(*func) == body
        );
        edits::apply_to_session(&mut session, edit).expect("stream edits are valid");
        let after = *session.stats();
        if noop {
            prop_assert_eq!(after.parts_reanalyzed, before.parts_reanalyzed);
            prop_assert_eq!(after.matrices_rebuilt, before.matrices_rebuilt);
            prop_assert_eq!(after.gr_components_solved, before.gr_components_solved);
            prop_assert!(after.parts_reused > before.parts_reused);
            prop_assert!(after.matrices_reused > before.matrices_reused);
        } else if matches!(edit, Edit::Replace { .. }) && nf > 1 {
            prop_assert!(
                after.parts_reused > before.parts_reused,
                "a single-function edit must reuse the other functions' parts"
            );
            prop_assert_eq!(
                after.parts_reanalyzed,
                before.parts_reanalyzed + 1,
                "a single-function edit re-analyzes exactly one part"
            );
        }
        assert_matches_scratch(&session)?;
    }
    // The total sanity of the accumulated counters.
    let stats = *session.stats();
    prop_assert_eq!(stats.edits, num_edits);
    let _ = QueryStats::default();
    Ok(())
}

/// splitmix64: the batch choices of one case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A callee's signature as a call site sees it.
type Sig = (Vec<Ty>, Option<Ty>);

/// A body of signature `sig` that calls each of `calls` once, with
/// fresh arguments of the types the call names — so it verifies exactly
/// when every named signature matches its callee's.
fn stub(name: &str, sig: &Sig, calls: &[(FuncId, Sig)]) -> Function {
    let mut b = FunctionBuilder::new(name, &sig.0, sig.1);
    let value = |b: &mut FunctionBuilder, t: Ty| match t {
        Ty::Int => b.const_int(1),
        Ty::Ptr => {
            let n = b.const_int(8);
            b.malloc(n)
        }
    };
    for (f, (params, ret)) in calls {
        let args: Vec<_> = params.iter().map(|&t| value(&mut b, t)).collect();
        b.call(Callee::Internal(*f), &args, *ret);
    }
    let v = sig.1.map(|t| value(&mut b, t));
    b.ret(v);
    b.finish()
}

/// One random batch over the session's current module, mixing the
/// edits targeted verification must get right.
fn random_batch(session: &AnalysisSession, rng: &mut Rng, case: usize) -> Vec<SessionEdit> {
    let m = session.module();
    let nf = m.num_functions();
    let graph = CallGraph::build(m);
    let sig = |f: FuncId| -> Sig { (m.function(f).param_tys().to_vec(), m.function(f).ret_ty()) };
    let name = |f: FuncId| m.function(f).name().to_owned();
    let callers = |f: FuncId| -> Vec<FuncId> {
        m.func_ids()
            .filter(|&c| c != f && graph.callees(c).contains(&f))
            .collect()
    };
    // Each function is targeted at most once per batch.
    let mut targeted = vec![false; nf];
    let mut edits = Vec::new();
    let mut push = |edits: &mut Vec<SessionEdit>, f: FuncId, body: Option<Function>| {
        if !std::mem::replace(&mut targeted[f.index()], true) {
            edits.push(match body {
                Some(body) => SessionEdit::Replace { func: f, body },
                None => SessionEdit::Remove { func: f },
            });
        }
    };
    let f = FuncId::new(rng.below(nf));
    match rng.below(4) {
        // A signature change, with or without rewriting its callers.
        0 => {
            let (mut params, ret) = sig(f);
            params.push(Ty::Int);
            let wide = (params, ret);
            push(&mut edits, f, Some(stub(&name(f), &wide, &[])));
            let fix = rng.below(3) > 0;
            for c in callers(f) {
                if fix || rng.below(2) == 0 {
                    let body = stub(&name(c), &sig(c), &[(f, wide.clone())]);
                    push(&mut edits, c, Some(body));
                } else if rng.below(2) == 0 {
                    // Left broken, but re-submitted with its current body.
                    push(&mut edits, c, Some(m.function(c).clone()));
                }
            }
        }
        // A removal of a (possibly still-called) function, its callers
        // rewritten, removed, left dangling or re-submitted unchanged.
        1 => {
            for c in callers(f) {
                match rng.below(4) {
                    0 => push(&mut edits, c, Some(stub(&name(c), &sig(c), &[]))),
                    1 => push(&mut edits, c, None),
                    2 => push(&mut edits, c, Some(m.function(c).clone())),
                    _ => {}
                }
            }
            push(&mut edits, f, None);
        }
        // Adds calling later adds (addressable at `nf + k`), the last
        // one calling an existing function — now and then with a wrong
        // arity.
        2 => {
            let k = 1 + rng.below(3);
            let link: Sig = (vec![Ty::Ptr], Some(Ty::Int));
            for i in 0..k {
                let mut calls = Vec::new();
                if i + 1 < k {
                    let mut want = link.clone();
                    if rng.below(5) == 0 {
                        want.0.push(Ty::Int);
                    }
                    calls.push((FuncId::new(nf + i + 1), want));
                } else {
                    calls.push((f, sig(f)));
                }
                let body = stub(&format!("added_{case}_{i}"), &link, &calls);
                edits.push(SessionEdit::Add { body });
            }
        }
        // Replaces calling random functions, mixed with a removal.
        _ => {
            for _ in 0..1 + rng.below(3) {
                let c = FuncId::new(rng.below(nf));
                let g = FuncId::new(rng.below(nf));
                push(&mut edits, c, Some(stub(&name(c), &sig(c), &[(g, sig(g))])));
            }
            push(&mut edits, f, None);
        }
    }
    edits
}

/// The would-be module of `batch` — replaces, then adds, then the
/// batch removal — verified whole.
fn verify_whole(session: &AnalysisSession, batch: &[SessionEdit]) -> Result<(), SessionError> {
    let mut probe = session.module().clone();
    let mut removed = Vec::new();
    for e in batch {
        match e {
            SessionEdit::Replace { func, body } => {
                probe.replace_function(*func, body.clone());
            }
            SessionEdit::Add { body } => {
                probe.add_function(body.clone());
            }
            SessionEdit::Remove { func } => removed.push(*func),
        }
    }
    removed.sort_unstable_by_key(|f| f.index());
    probe.remove_functions(&removed);
    verify_module(&probe).map_err(SessionError::Verify)
}

/// Applies random batches, checking each verdict against the
/// whole-module verifier: equal errors on rejection (and an unchanged
/// session), scratch identity on acceptance.
fn run_batches(
    m: sra::ir::Module,
    seed: u64,
    batches: usize,
    threads: usize,
) -> Result<(), TestCaseError> {
    let mut rng = Rng(seed);
    let mut session =
        AnalysisSession::with_config(m, AnalysisConfig::builder().threads(threads).build())
            .expect("generated modules verify");
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..batches {
        if session.module().num_functions() == 0 {
            break;
        }
        let batch = random_batch(&session, &mut rng, case);
        let want = verify_whole(&session, &batch);
        let (module, stats, bytes) = (session.module().clone(), *session.stats(), save(&session));
        let got = session.apply_edits(batch).map(|_| ());
        prop_assert_eq!(&got, &want, "batch {} verdict", case);
        if got.is_ok() {
            accepted += 1;
            assert_matches_scratch(&session)?;
        } else {
            rejected += 1;
            prop_assert_eq!(session.module(), &module);
            prop_assert_eq!(session.stats(), &stats);
            prop_assert!(
                save(&session) == bytes,
                "a rejected batch changed the snapshot"
            );
        }
    }
    prop_assert!(accepted + rejected > 0);
    Ok(())
}

// Tier-1 budget (`PROPTEST_CASES` overrides): 24 cases over the flat
// scaling generator + 24 over the call-graph generator, whose deep
// chains, recursive cliques and wide fans exercise SCC splits/merges
// and multi-component invalidation.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flat modules (many functions, shallow call graph): carried
    /// range/LR imports and matrix reuse carry the load.
    #[test]
    fn session_equals_scratch_on_flat_modules(
        target in 150usize..700,
        seed in 0u64..10_000,
        edit_seed in 0u64..10_000,
        num_edits in 2usize..6,
        threads in 1usize..5,
    ) {
        let m = scaling::generate_module(target, seed);
        run_stream(m, num_edits, edit_seed, threads)?;
    }

    /// Call-graph-heavy modules: dirty-component invalidation over the
    /// condensation carries the load.
    #[test]
    fn session_equals_scratch_on_call_graph_modules(
        funcs in 10usize..60,
        seed in 0u64..10_000,
        edit_seed in 0u64..10_000,
        num_edits in 2usize..6,
        threads in 1usize..5,
    ) {
        let m = scaling::generate_call_graph_module(funcs, seed);
        run_stream(m, num_edits, edit_seed, threads)?;
    }

    /// Targeted batch verification ≡ `verify_module` of the would-be
    /// module, on call-graph modules (every function has callers to
    /// break).
    #[test]
    fn batch_verification_equals_whole_module_verify(
        funcs in 6usize..40,
        seed in 0u64..10_000,
        batch_seed in 0u64..10_000,
        threads in 1usize..4,
    ) {
        let m = scaling::generate_call_graph_module(funcs, seed);
        run_batches(m, batch_seed, 6, threads)?;
    }
}

/// 512-case sweep of the same property (split across both generators).
/// Excluded from tier-1; run with
/// `cargo test -q --release --test session_equivalence -- --ignored`.
#[test]
#[ignore = "deep fuzz (minutes); tier-1 runs the 24-case variants"]
fn deep_fuzz_session_equivalence() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(256));
    runner
        .run(
            &(
                150usize..700,
                0u64..1_000_000,
                0u64..1_000_000,
                2usize..7,
                1usize..5,
            ),
            |(target, seed, edit_seed, num_edits, threads)| {
                let m = scaling::generate_module(target, seed);
                run_stream(m, num_edits, edit_seed, threads)
            },
        )
        .unwrap();
    let mut runner = TestRunner::new(ProptestConfig::with_cases(256));
    runner
        .run(
            &(
                10usize..80,
                0u64..1_000_000,
                0u64..1_000_000,
                2usize..7,
                1usize..5,
            ),
            |(funcs, seed, edit_seed, num_edits, threads)| {
                let m = scaling::generate_call_graph_module(funcs, seed);
                run_stream(m, num_edits, edit_seed, threads)
            },
        )
        .unwrap();
}
