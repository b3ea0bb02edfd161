//! The benchmark's correctness checks. Each compares the program's
//! answers with something computed apart from them: a concrete run
//! under the interpreter, a scratch analysis, or a second save.

use sra_core::{pointer_values, AliasResult, RbaaAnalysis, WhichTest};
use sra_interp::Interp;
use sra_ir::{FuncId, Module, ValueId};

/// One answered query.
pub type Verdict = (AliasResult, Option<WhichTest>);

/// Compact encoding of a verdict, so sweeps of millions of pairs stay
/// small: 0 `MayAlias`, 1 distinct locations, 2 global, 3 local.
pub fn encode(v: Verdict) -> u8 {
    match v {
        (AliasResult::MayAlias, _) => 0,
        (AliasResult::NoAlias, Some(WhichTest::DistinctLocs)) => 1,
        (AliasResult::NoAlias, Some(WhichTest::Global)) => 2,
        (AliasResult::NoAlias, Some(WhichTest::Local)) => 3,
        // A `NoAlias` without attribution is not an answer the analysis
        // gives; keep it distinct so comparisons catch it.
        (AliasResult::NoAlias, None) => 4,
    }
}

/// The verdict of every unordered intra-function pair of pointers
/// `(p, q)`, `p` before `q` in [`pointer_values`] order, function by
/// function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sweep {
    /// One code per pair (see [`encode`]).
    pub codes: Vec<u8>,
    /// Pairs answered `NoAlias`.
    pub no_alias: u64,
}

impl Sweep {
    /// Pairs answered.
    pub fn pairs(&self) -> u64 {
        self.codes.len() as u64
    }

    /// Share of pairs proven `NoAlias`, in percent.
    pub fn noalias_pct(&self) -> f64 {
        100.0 * self.no_alias as f64 / self.pairs().max(1) as f64
    }
}

/// Answers every intra-function pair of `m` through `query`.
pub fn sweep(m: &Module, mut query: impl FnMut(FuncId, ValueId, ValueId) -> Verdict) -> Sweep {
    let mut out = Sweep::default();
    for f in m.func_ids() {
        let ptrs = pointer_values(m, f);
        for (i, &p) in ptrs.iter().enumerate() {
            for &q in &ptrs[i + 1..] {
                let code = encode(query(f, p, q));
                out.no_alias += u64::from(code != 0);
                out.codes.push(code);
            }
        }
    }
    out
}

/// Pairs on which two sweeps disagree; a length difference counts
/// every unmatched pair.
pub fn mismatches(a: &Sweep, b: &Sweep) -> u64 {
    let differing = a.codes.iter().zip(&b.codes).filter(|(x, y)| x != y).count();
    (differing + a.codes.len().abs_diff(b.codes.len())) as u64
}

/// Outcome of checking `NoAlias` claims against a concrete run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleOutcome {
    /// `NoAlias` claims checked.
    pub claims: u64,
    /// Claims whose two pointers were both seen holding an address.
    pub observed: u64,
    /// Claims the run contradicted.
    pub violations: u64,
    /// Whether the concrete run ended in a trap (then nothing is
    /// checked: the analysis is sound only for runs without undefined
    /// behaviour).
    pub trapped: bool,
}

/// Runs `m`'s `main` under the interpreter with `atoi` scripted to
/// `atoi_value`, then checks every `NoAlias` in `sweep` (a sweep of `m`
/// in [`sweep`] order): a global or distinct-location claim must show
/// no `global_conflict`, a local claim no `aligned_conflict`. Claims
/// about a pointer with a ⊥ state (no dereferenceable address, e.g.
/// after `free`) are vacuous and skipped, as in the soundness rail.
pub fn oracle_check(
    m: &Module,
    rbaa: &RbaaAnalysis,
    sweep: &Sweep,
    atoi_value: i128,
) -> OracleOutcome {
    let mut out = OracleOutcome::default();
    let Some(main) = m.function_by_name("main") else {
        out.trapped = true;
        return out;
    };
    let mut interp = Interp::new(m);
    interp.set_fuel(200_000_000);
    interp.script_external("atoi", vec![atoi_value]);
    if interp.run(main, &[]).is_err() {
        out.trapped = true;
        return out;
    }
    let mut k = 0usize;
    for f in m.func_ids() {
        let ptrs = pointer_values(m, f);
        let seen: Vec<bool> = ptrs
            .iter()
            .map(|&p| interp.defs(f, p).iter().any(|e| e.addr.is_some()))
            .collect();
        let bottom: Vec<bool> = ptrs
            .iter()
            .map(|&p| rbaa.gr().state(f, p).is_bottom())
            .collect();
        for i in 0..ptrs.len() {
            for j in i + 1..ptrs.len() {
                let code = sweep.codes[k];
                k += 1;
                if code == 0 || bottom[i] || bottom[j] {
                    continue;
                }
                out.claims += 1;
                if !(seen[i] && seen[j]) {
                    continue;
                }
                out.observed += 1;
                let (p, q) = (ptrs[i], ptrs[j]);
                let violated = match code {
                    1 | 2 => interp.global_conflict(f, p, q),
                    3 => interp.aligned_conflict(f, p, q),
                    _ => true,
                };
                out.violations += u64::from(violated);
            }
        }
    }
    out
}

/// The first pair of the first function with two pointers: the query a
/// restarted client answers first.
pub fn first_pair(m: &Module) -> Option<(FuncId, ValueId, ValueId)> {
    m.func_ids().find_map(|f| {
        let ptrs = pointer_values(m, f);
        (ptrs.len() >= 2).then(|| (f, ptrs[0], ptrs[1]))
    })
}

/// Compares two modules' verdicts pair by pair, matching functions by
/// name (their ids may differ, e.g. registry order against text order).
/// A function missing on one side, a differing function count, or a
/// differing pointer list counts every pair of that function as
/// mismatched. Returns `(mismatches, pairs compared)`.
pub fn compare_by_name(
    reference: &Module,
    ref_query: impl Fn(FuncId, ValueId, ValueId) -> Verdict,
    other: &Module,
    other_query: impl Fn(FuncId, ValueId, ValueId) -> Verdict,
) -> (u64, u64) {
    let ids: std::collections::HashMap<&str, FuncId> = other
        .func_ids()
        .map(|g| (other.function(g).name(), g))
        .collect();
    let mut mismatched = u64::from(reference.num_functions() != other.num_functions());
    let mut pairs = 0u64;
    for f in reference.func_ids() {
        let ptrs = pointer_values(reference, f);
        let n = ptrs.len() as u64;
        pairs += n * n.saturating_sub(1) / 2;
        let same_shape = ids
            .get(reference.function(f).name())
            .filter(|&&g| pointer_values(other, g) == ptrs);
        let Some(&g) = same_shape else {
            mismatched += (n * n.saturating_sub(1) / 2).max(1);
            continue;
        };
        for (i, &p) in ptrs.iter().enumerate() {
            for &q in &ptrs[i + 1..] {
                mismatched += u64::from(encode(ref_query(f, p, q)) != encode(other_query(g, p, q)));
            }
        }
    }
    (mismatched, pairs)
}

/// Size of a module as the README reports inputs: instructions,
/// functions, pointer values and intra-function pointer pairs.
pub fn describe(m: &Module) -> [u64; 4] {
    let (mut ptrs, mut pairs) = (0u64, 0u64);
    for f in m.func_ids() {
        let n = pointer_values(m, f).len() as u64;
        ptrs += n;
        pairs += n * n.saturating_sub(1) / 2;
    }
    [m.num_insts() as u64, m.num_functions() as u64, ptrs, pairs]
}

/// One `input:` line from [`describe`] figures.
pub fn input_line(what: &str, d: [u64; 4]) -> String {
    format!(
        "input: {what} insts={} functions={} pointers={} pairs={}",
        d[0], d[1], d[2], d[3]
    )
}
