//! The GR edit slice's contract: an incremental session re-solves only
//! the slice of an edit (the functions whose GR trajectory it can
//! reach, plus what they read) and carries every other function's
//! final states over — and after **every** edit it is byte-identical to
//! a scratch analysis of the edited module: states, symbols,
//! `ascending_sweeps`, verdicts and `WhichTest` attributions.
//!
//! The streams mix the generic edit generator (which adds and removes
//! functions and adds and drops call edges, so SCCs form and break)
//! with edits aimed at the slice's bookkeeping: a pointer-returning
//! function's return moves, a nested pointer loop that sets the
//! component's sweep count comes and goes, and — under a small
//! `max_ascending_sweeps` — that loop trips and untrips the cap. Every
//! stream runs twice, the second time with a save→load between edits,
//! so the persisted sweep record is exercised too.

use proptest::prelude::*;
use sra::core::{
    analyze_parallel, pointer_values, AnalysisConfig, AnalysisSession, BatchAnalysis, GrConfig,
};
use sra::ir::{BinOp, Callee, CmpOp, FuncId, Function, FunctionBuilder, Module, Ty, ValueId};
use sra::workloads::edits::{self, Edit};
use sra::workloads::scaling;

/// A splitmix64 stream: the edit choices of one case.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    fn below(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// Asserts byte-identity of `session` against a scratch analysis of its
/// current module.
fn assert_matches_scratch(session: &AnalysisSession, step: usize) -> Result<(), TestCaseError> {
    let m = session.module();
    let scratch = analyze_parallel(m, session.config());
    let rbaa = session.analysis();
    prop_assert!(
        rbaa.symbols().iter().eq(scratch.symbols().iter()),
        "step {}: symbol tables diverged",
        step
    );
    prop_assert_eq!(
        rbaa.gr().ascending_sweeps(),
        scratch.gr().ascending_sweeps(),
        "step {}: ascending sweep counts diverged",
        step
    );
    for f in m.func_ids() {
        for v in m.function(f).value_ids() {
            prop_assert_eq!(
                rbaa.gr().state(f, v),
                scratch.gr().state(f, v),
                "step {}: GR state diverged at {} {}",
                step,
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
                    "step {}: verdict diverged at {}: {} vs {}",
                    step,
                    f,
                    p,
                    q
                );
            }
        }
    }
    Ok(())
}

/// `depth` nested loops, each advancing a pointer φ by `step` per trip,
/// starting from `base`; returns the outermost φ (or `base` when
/// `depth` is 0). Every level widens, and each one re-seeds the level
/// inside it, so deeper nests need more ascending sweeps.
fn nest(b: &mut FunctionBuilder, n: ValueId, base: ValueId, depth: usize, step: i64) -> ValueId {
    if depth == 0 {
        return base;
    }
    let pre = b.current_block();
    let head = b.create_block();
    let body = b.create_block();
    let exit = b.create_block();
    let zero = b.const_int(0);
    b.jump(head);
    b.switch_to(head);
    let i = b.phi(Ty::Int, &[(pre, zero)]);
    let q = b.phi(Ty::Ptr, &[(pre, base)]);
    let c = b.cmp(CmpOp::Lt, i, n);
    b.br(c, body, exit);
    b.switch_to(body);
    let inner = nest(b, n, q, depth - 1, step);
    let k = b.const_int(step);
    let q2 = b.ptr_add(inner, k);
    let one = b.const_int(1);
    let i2 = b.binop(BinOp::Add, i, one);
    let latch = b.current_block();
    b.add_phi_arg(i, latch, i2);
    b.add_phi_arg(q, latch, q2);
    b.jump(head);
    b.switch_to(exit);
    q
}

/// A replacement body for `old` (same signature, no internal calls):
/// `depth` nested pointer loops over its first pointer formal (or a
/// fresh buffer), returning that pointer moved by `step` when the
/// function returns a pointer.
fn loop_body(old: &Function, depth: usize, step: i64) -> Function {
    let mut b = FunctionBuilder::new(old.name(), old.param_tys(), old.ret_ty());
    let n = b.call(Callee::External("atoi".into()), &[], Some(Ty::Int));
    let base = match old.param_tys().iter().position(|&t| t == Ty::Ptr) {
        Some(i) => b.param(i),
        None => b.malloc(n),
    };
    let looped = nest(&mut b, n, base, depth, step);
    let k = b.const_int(step);
    let out = b.ptr_add(looped, k);
    match old.ret_ty() {
        Some(Ty::Ptr) => b.ret(Some(out)),
        Some(Ty::Int) => b.ret(Some(n)),
        None => b.ret(None),
    }
    let mut f = b.finish();
    f.set_exported(old.is_exported());
    sra::ir::essa::run(&mut f);
    f
}

/// The next edit of a stream, valid against `m`: a generic one from
/// [`edits::generate_edit_stream`], a return change of a
/// pointer-returning function, or a nested loop switched on or off.
fn next_edit(m: &Module, rng: &mut Draws, looped: &mut Option<FuncId>) -> Edit {
    let nf = m.num_functions();
    let pick = |rng: &mut Draws| FuncId::new(rng.below(0, nf as u64) as usize);
    let edit = match rng.below(0, 10) {
        0..=3 => edits::generate_edit_stream(m, 1, rng.next()).remove(0),
        4 | 5 if nf > 0 => {
            let ptr_returning: Vec<FuncId> = m
                .func_ids()
                .filter(|&f| m.function(f).ret_ty() == Some(Ty::Ptr))
                .collect();
            let func = if ptr_returning.is_empty() {
                pick(rng)
            } else {
                ptr_returning[rng.below(0, ptr_returning.len() as u64) as usize]
            };
            Edit::Replace {
                func,
                body: loop_body(m.function(func), 0, rng.below(1, 6) as i64),
            }
        }
        _ if nf > 0 => match looped.take().filter(|f| f.index() < nf) {
            // Off again: the component's sweep count drops back.
            Some(func) => Edit::Replace {
                func,
                body: loop_body(m.function(func), 0, 1),
            },
            None => {
                // Prefer a function with a pointer formal: its loop
                // starts from its callers' actuals, one sweep later.
                let func = (0..4)
                    .map(|_| pick(rng))
                    .find(|&f| m.function(f).param_tys().contains(&Ty::Ptr))
                    .unwrap_or_else(|| pick(rng));
                *looped = Some(func);
                Edit::Replace {
                    func,
                    body: loop_body(m.function(func), rng.below(2, 5) as usize, 1),
                }
            }
        },
        _ => edits::generate_edit_stream(m, 1, rng.next()).remove(0),
    };
    if let Edit::Remove { func } = &edit {
        // Ids above a removal shift down.
        *looped = looped
            .filter(|f| f != func)
            .map(|f| FuncId::new(f.index() - usize::from(f > *func)));
    }
    edit
}

fn reload(session: &AnalysisSession) -> AnalysisSession {
    let mut bytes = Vec::new();
    session.save(&mut bytes).expect("saves");
    AnalysisSession::load(&mut bytes.as_slice()).expect("loads")
}

/// Replays one stream, asserting byte-identity after every edit; with
/// `reload`, the session is saved and loaded between edits.
fn run_stream(
    m: Module,
    num_edits: usize,
    edit_seed: u64,
    config: AnalysisConfig,
    reload_between: bool,
) -> Result<(), TestCaseError> {
    let mut rng = Draws(edit_seed);
    let mut looped = None;
    let mut session = AnalysisSession::with_config(m, config).expect("generated modules verify");
    assert_matches_scratch(&session, 0)?;
    for step in 1..=num_edits {
        let edit = next_edit(session.module(), &mut rng, &mut looped);
        if reload_between {
            session = reload(&session);
        }
        edits::apply_to_session(&mut session, &edit).expect("stream edits are valid");
        assert_matches_scratch(&session, step)?;
    }
    Ok(())
}

fn config(threads: usize, small_cap: bool) -> AnalysisConfig {
    let gr = GrConfig {
        max_ascending_sweeps: if small_cap { 3 } else { 32 },
        ..GrConfig::default()
    };
    AnalysisConfig::builder().threads(threads).gr(gr).build()
}

fn both_ways(
    m: Module,
    num_edits: usize,
    edit_seed: u64,
    config: AnalysisConfig,
) -> Result<(), TestCaseError> {
    run_stream(m.clone(), num_edits, edit_seed, config, false)?;
    run_stream(m, num_edits, edit_seed, config, true)
}

// Tier-1 budget (`PROPTEST_CASES` overrides): 24 cases per generator.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hub modules: `main` calls every function, so the whole module is
    /// one weak component and a leaf edit's slice is a sliver of it.
    #[test]
    fn slice_equals_scratch_on_hub_modules(
        target in 150usize..700,
        seed in 0u64..10_000,
        edit_seed in 0u64..10_000,
        num_edits in 3usize..8,
        threads in 1usize..4,
        small_cap in 0u8..2,
    ) {
        let m = scaling::generate_module(target, seed);
        both_ways(m, num_edits, edit_seed, config(threads, small_cap == 1))?;
    }

    /// Call-graph modules: chains, recursive cliques and fans, whose
    /// return and formal joins carry the slice's reads both ways.
    #[test]
    fn slice_equals_scratch_on_call_graph_modules(
        funcs in 10usize..60,
        seed in 0u64..10_000,
        edit_seed in 0u64..10_000,
        num_edits in 3usize..8,
        threads in 1usize..4,
        small_cap in 0u8..2,
    ) {
        let m = scaling::generate_call_graph_module(funcs, seed);
        both_ways(m, num_edits, edit_seed, config(threads, small_cap == 1))?;
    }
}

/// 512-case sweep of the same property (split across both generators).
/// Excluded from tier-1; run with
/// `cargo test -q --release --test gr_slice_equivalence -- --ignored`.
#[test]
#[ignore = "deep fuzz (minutes); tier-1 runs the 24-case variants"]
fn deep_fuzz_gr_slice_equivalence() {
    let cases = ProptestConfig::with_cases(256);
    TestRunner::new(cases.clone())
        .run(
            &(
                150usize..700,
                0u64..1_000_000,
                0u64..1_000_000,
                3usize..9,
                1usize..4,
                0u8..2,
            ),
            |(target, seed, edit_seed, num_edits, threads, small_cap)| {
                let m = scaling::generate_module(target, seed);
                both_ways(m, num_edits, edit_seed, config(threads, small_cap == 1))
            },
        )
        .unwrap();
    TestRunner::new(cases)
        .run(
            &(
                10usize..80,
                0u64..1_000_000,
                0u64..1_000_000,
                3usize..9,
                1usize..4,
                0u8..2,
            ),
            |(funcs, seed, edit_seed, num_edits, threads, small_cap)| {
                let m = scaling::generate_call_graph_module(funcs, seed);
                both_ways(m, num_edits, edit_seed, config(threads, small_cap == 1))
            },
        )
        .unwrap();
}

/// A leaf rewrite of a `cold_module`-shaped hub re-solves at most the
/// leaf, the functions it reads or is read by, and their callers —
/// here `{leaf, main}` — and carries every other function's states.
#[test]
fn leaf_rewrite_resolves_only_its_slice() {
    let m = scaling::generate_module(20_000, 11);
    let graph = sra::ir::callgraph::CallGraph::build(&m);
    let callers = |f: FuncId| -> Vec<FuncId> {
        m.func_ids()
            .filter(|&c| graph.callees(c).contains(&f))
            .collect()
    };
    let leaf = m
        .func_ids()
        .find(|&f| graph.callees(f).is_empty() && !callers(f).is_empty())
        .expect("the hub's callees are leaves");
    let mut allowed: Vec<FuncId> = vec![leaf];
    allowed.extend(callers(leaf));
    for f in allowed.clone() {
        allowed.extend(callers(f));
    }
    allowed.sort_unstable();
    allowed.dedup();
    let nf = m.num_functions();
    let body = loop_body(m.function(leaf), 1, 3);
    let mut session = AnalysisSession::with_config(m, AnalysisConfig::default())
        .expect("generated modules verify");
    let before = *session.stats();
    session.replace_function(leaf, body).expect("valid edit");
    let after = *session.stats();
    let resolved = after.gr_functions_resolved - before.gr_functions_resolved;
    let carried = after.gr_functions_carried - before.gr_functions_carried;
    assert!(
        (1..=allowed.len()).contains(&resolved),
        "resolved {resolved} functions, allowed {allowed:?}"
    );
    assert_eq!(resolved + carried, nf);
    assert_eq!(after.gr_components_solved - before.gr_components_solved, 1);
    assert_matches_scratch(&session, 1).expect("matches scratch");
}
