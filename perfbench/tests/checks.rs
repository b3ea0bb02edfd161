//! The benchmark's own checks are not vacuous: each one reports a
//! failure when fed a wrong answer of the kind it exists to catch.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::checks::{self, Sweep};
use perfbench::report::Report;
use sra_core::{AliasService, AnalysisConfig, AnalysisSession, PersistError};
use sra_interp::Interp;
use sra_ir::Module;

/// `a` and `c` address the same cell, `b` the next one.
const COLLIDING: &str = "export int main() {
  int n; n = atoi();
  ptr a; a = malloc(n + 4);
  ptr b; b = a + 1;
  ptr c; c = a + 0;
  *a = 1; *b = 2; *c = 3;
  return 0;
}
";

fn session(m: Module) -> AnalysisSession {
    AnalysisSession::with_config(m, AnalysisConfig::default()).expect("module verifies")
}

fn session_sweep(s: &AnalysisSession) -> Sweep {
    checks::sweep(s.module(), |f, p, q| s.alias_with_test(f, p, q))
}

#[test]
fn fabricated_noalias_on_a_colliding_pair_is_a_violation() {
    let m = sra_lang::compile(COLLIDING).expect("compiles");
    let s = session(m.clone());
    let honest = session_sweep(&s);
    let clean = checks::oracle_check(&m, s.analysis(), &honest, 5);
    assert!(!clean.trapped);
    assert_eq!(clean.violations, 0, "the analysis' own claims hold");

    // Find a pair the interpreter saw collide, and claim NoAlias on it.
    let mut interp = Interp::new(&m);
    interp.script_external("atoi", vec![5]);
    let main = m.function_by_name("main").expect("main");
    interp.run(main, &[]).expect("runs cleanly");
    let ptrs = sra_core::pointer_values(&m, main);
    let mut k = 0;
    let mut colliding = None;
    for (i, &p) in ptrs.iter().enumerate() {
        for &q in &ptrs[i + 1..] {
            if colliding.is_none() && interp.global_conflict(main, p, q) {
                colliding = Some(k);
            }
            k += 1;
        }
    }
    let k = colliding.expect("a and c collide");
    assert_eq!(
        honest.codes[k], 0,
        "the analysis does not claim NoAlias there"
    );
    let mut fabricated = honest.clone();
    fabricated.codes[k] = checks::encode((
        sra_core::AliasResult::NoAlias,
        Some(sra_core::WhichTest::Global),
    ));
    let caught = checks::oracle_check(&m, s.analysis(), &fabricated, 5);
    assert_eq!(caught.violations, 1);
    assert!(caught.observed > clean.observed);
}

#[test]
fn previous_epoch_against_scratch_of_the_final_text_mismatches() {
    let before = "int g(ptr p) { ptr a; a = p + 0; ptr b; b = p + 1; *a = 1; *b = 2; return 0; }\n\
                  export int main() { ptr m; m = malloc(8); int r; r = g(m); return r; }\n";
    let after = before.replace("b = p + 1", "b = p + 0");
    let service = AliasService::with_config(AnalysisConfig::default());
    service.add_tenant_source("t", before).expect("compiles");
    let previous = service.snapshot("t").expect("published");
    service
        .edit_tenant_source("t", &after)
        .expect("edit applies");
    let current = service.snapshot("t").expect("published");
    assert_eq!(current.epoch(), previous.epoch() + 1);

    let mut stale = Report::default();
    perfbench::text::check_against_scratch(&previous, &after, &mut stale).expect("scratch builds");
    assert!(
        stale.failures.verdict_mismatches > 0,
        "the old epoch's NoAlias must not match"
    );

    let mut fresh = Report::default();
    perfbench::text::check_against_scratch(&current, &after, &mut fresh).expect("scratch builds");
    assert_eq!(fresh.failures.verdict_mismatches, 0);
    assert!(fresh.attempted > 0);
}

#[test]
fn flipped_snapshot_byte_is_a_persist_error() {
    let m = sra_workloads::scaling::generate_module(2_000, 3);
    let pair = checks::first_pair(&m).expect("pointer pairs");
    let s = session(m);
    let mut bytes = Vec::new();
    s.save(&mut bytes).expect("saves");

    let mut report = Report::default();
    let (restored, _) =
        perfbench::cold::restart_from(&bytes, pair, &mut report).expect("intact snapshot loads");
    assert_eq!(
        checks::mismatches(&session_sweep(&s), &session_sweep(&restored)),
        0
    );
    assert_eq!(report.failures.persist_errors, 0);

    for at in [bytes.len() / 2, 12] {
        let mut damaged = bytes.clone();
        damaged[at] ^= 0x10;
        let err: PersistError =
            AnalysisSession::load(&mut damaged.as_slice()).expect_err("damage is detected");
        println!("byte {at}: {err}");
        let mut report = Report::default();
        assert!(perfbench::cold::restart_from(&damaged, pair, &mut report).is_none());
        assert_eq!(report.failures.persist_errors, 1);
        assert!(!report.correct());
    }
}

#[test]
fn differing_sweeps_count_every_differing_pair() {
    let a = Sweep {
        codes: vec![0, 1, 2, 3],
        no_alias: 3,
    };
    let mut b = a.clone();
    b.codes[1] = 0;
    assert_eq!(checks::mismatches(&a, &b), 1);
    b.codes.pop();
    assert_eq!(checks::mismatches(&a, &b), 2);
}
