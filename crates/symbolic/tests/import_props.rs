//! Property rail for the cross-arena import: `ExprArena::import_*`
//! under a strictly monotone renaming must commute with value-level
//! `map_symbols`, with canonical arithmetic, and with concrete
//! evaluation ([`Valuation::eval`]) — the contract that lets per-part
//! arenas assemble into module arenas and lets incremental sessions
//! carry unedited functions' states by import instead of re-analysis.

use proptest::prelude::*;
use sra_symbolic::{
    Bound, ExprArena, ImportMap, SymExpr, SymRange, Symbol, TryImportMap, Valuation,
};

const NUM_SYMBOLS: u32 = 4;
/// The monotone renaming under test: a blockwise shift, exactly what
/// per-function symbol-budget renumbering produces.
const SHIFT: u32 = 13;

fn shift(s: Symbol) -> Symbol {
    Symbol::new(s.index() + SHIFT)
}

/// A small random symbolic expression (mirrors the algebra suite's).
fn arb_expr() -> impl Strategy<Value = SymExpr> {
    let leaf = prop_oneof![
        (-20i64..=20).prop_map(SymExpr::from),
        (0u32..NUM_SYMBOLS).prop_map(|i| SymExpr::from(Symbol::new(i))),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), -3i64..=3).prop_map(|(a, c)| a * SymExpr::from(c)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| SymExpr::min(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| SymExpr::max(a, b)),
            (inner.clone(), 1i64..=5).prop_map(|(a, d)| SymExpr::div(a, d.into())),
            (inner, 1i64..=5).prop_map(|(a, d)| SymExpr::rem(a, d.into())),
        ]
    })
}

fn arb_range() -> impl Strategy<Value = SymRange> {
    (arb_expr(), arb_expr(), 0u8..4).prop_map(|(a, b, inf)| {
        let lo = if inf & 1 != 0 {
            Bound::NegInf
        } else {
            Bound::Fin(a)
        };
        let hi = if inf & 2 != 0 {
            Bound::PosInf
        } else {
            Bound::Fin(b)
        };
        SymRange::with_bounds(lo, hi)
    })
}

fn arb_valuation() -> impl Strategy<Value = Valuation> {
    proptest::collection::vec(-100i128..=100, NUM_SYMBOLS as usize).prop_map(|vals| {
        let mut v = Valuation::new();
        for (i, x) in vals.into_iter().enumerate() {
            v.set(Symbol::new(i as u32), x);
        }
        v
    })
}

/// The core commutation check on one `(a, b, range, valuation)` case.
fn check_import_commutes(
    a: &SymExpr,
    b: &SymExpr,
    r: &SymRange,
    v: &Valuation,
) -> Result<(), TestCaseError> {
    let mut src = ExprArena::new();
    let mut dst = ExprArena::new();
    let mut map = ImportMap::default();
    let ai = src.intern(a);
    let bi = src.intern(b);

    // import ∘ intern ≡ map_symbols (structure-level commutation).
    let ad = dst.import_expr(&src, ai, &shift, &mut map);
    let bd = dst.import_expr(&src, bi, &shift, &mut map);
    prop_assert_eq!(dst.expr_value(ad), a.map_symbols(&shift), "import of {}", a);

    // Import commutes with canonical arithmetic: importing the result
    // of an arena op equals applying the op to the imported operands —
    // as *ids* in the destination (interning makes this an integer
    // compare).
    type ArenaBinOp =
        fn(&mut ExprArena, sra_symbolic::ExprId, sra_symbolic::ExprId) -> sra_symbolic::ExprId;
    let ops: [(&str, ArenaBinOp); 7] = [
        ("add", ExprArena::add),
        ("sub", ExprArena::sub),
        ("mul", ExprArena::mul),
        ("min", ExprArena::min),
        ("max", ExprArena::max),
        ("div", ExprArena::div),
        ("rem", ExprArena::rem),
    ];
    for (name, op) in ops {
        let in_src = op(&mut src, ai, bi);
        let imported = dst.import_expr(&src, in_src, &shift, &mut map);
        let in_dst = op(&mut dst, ad, bd);
        prop_assert_eq!(imported, in_dst, "{} vs import for {} / {}", name, a, b);
    }

    // Import commutes with concrete evaluation: shifting the valuation
    // the same way the symbols were shifted evaluates identically.
    let mut shifted_v = Valuation::new();
    for i in 0..NUM_SYMBOLS {
        shifted_v.set(shift(Symbol::new(i)), v.get(Symbol::new(i)));
    }
    prop_assert_eq!(
        shifted_v.eval(&dst.expr_value(ad)),
        v.eval(a),
        "eval commutation for {}",
        a
    );

    // Ranges: import preserves the exact shape, and the order proofs
    // (emptiness, membership) are invariant under the renaming.
    let ri = src.intern_range(r);
    let rd = dst.import_range(&src, ri, &shift, &mut map);
    prop_assert_eq!(dst.range_value(rd), r.map_symbols(&shift), "range {}", r);
    prop_assert_eq!(
        dst.range_is_empty(rd),
        r.is_empty(),
        "emptiness invariant for {}",
        r
    );

    // The fallible import with a total renaming agrees with the
    // infallible one.
    let mut tmap = TryImportMap::default();
    let try_rd = dst.try_import_range(&src, ri, &|s| Some(shift(s)), &mut tmap);
    prop_assert_eq!(try_rd, Some(rd));

    // And the lockstep comparison recognises exactly the import.
    prop_assert!(src.range_eq_mapped(ri, &dst, rd, &shift));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tier-1 capped sweep of the import commutation laws.
    #[test]
    fn import_commutes_with_arithmetic_and_eval(
        a in arb_expr(), b in arb_expr(), r in arb_range(), v in arb_valuation()
    ) {
        check_import_commutes(&a, &b, &r, &v)?;
    }
}

/// 512-case sweep of the same property. Excluded from tier-1; run with
/// `cargo test -q --release -p sra-symbolic --test import_props -- --ignored`.
#[test]
#[ignore = "deep fuzz (minutes); tier-1 runs the 64-case variant"]
fn deep_fuzz_import_commutation() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(512));
    runner
        .run(
            &(arb_expr(), arb_expr(), arb_range(), arb_valuation()),
            |(a, b, r, v)| check_import_commutes(&a, &b, &r, &v),
        )
        .unwrap();
}

/// Builds an expression with more than `MAX_EXPR_ATOMS` (64) atoms: a
/// right fold of opaque `min`s over pairwise-incomparable symbols.
fn oversized_expr() -> SymExpr {
    let mut e = SymExpr::from(Symbol::new(100));
    for i in 101..140 {
        e = SymExpr::min(SymExpr::from(Symbol::new(i)), e);
    }
    assert!(e.is_oversized(), "the chain exceeds the atom budget");
    e
}

/// Regression: oversized-expression collapse (`MAX_EXPR_ATOMS` → ±∞ at
/// the `SymRange` layer) behaves identically under interning — and the
/// collapse survives an arena import unchanged (import preserves exact
/// shapes; normalization decisions were made before the import and are
/// invariant under the monotone renaming because atom counts are).
#[test]
fn oversized_collapse_is_identical_under_interning_and_import() {
    let big = oversized_expr();
    let small = SymExpr::from(Symbol::new(100));

    // Value-level collapse: the oversized endpoint goes to its
    // infinity, the other endpoint survives.
    let hi_collapsed = SymRange::interval(small.clone(), big.clone());
    assert_eq!(
        hi_collapsed,
        SymRange::with_bounds(Bound::Fin(small.clone()), Bound::PosInf)
    );
    let lo_collapsed = SymRange::with_bounds(Bound::Fin(big.clone()), Bound::PosInf);
    assert_eq!(lo_collapsed, SymRange::top());

    // Arena-level construction makes the same decisions: sizes are
    // precomputed per node, so `is_oversized` answers identically.
    let mut arena = ExprArena::new();
    let big_id = arena.intern(&big);
    let small_id = arena.intern(&small);
    assert!(arena.is_oversized(big_id));
    assert_eq!(arena.expr_size(big_id), big.size());
    assert!(!arena.is_oversized(small_id));
    let r = arena.range_interval(small_id, big_id);
    assert_eq!(arena.range_value(r), hi_collapsed);
    let r2 = arena.range_with_bounds(
        sra_symbolic::BoundId::Fin(big_id),
        sra_symbolic::BoundId::PosInf,
    );
    assert_eq!(r2, ExprArena::TOP_RANGE);

    // Across an import: the already-collapsed range imports verbatim…
    let mut dst = ExprArena::new();
    let mut map = ImportMap::default();
    let rd = dst.import_range(&arena, r, &shift, &mut map);
    assert_eq!(dst.range_value(rd), hi_collapsed.map_symbols(&shift));
    // …and re-deriving the range from imported endpoints collapses the
    // same way (sizes are invariant under renaming).
    let big_d = dst.import_expr(&arena, big_id, &shift, &mut map);
    let small_d = dst.import_expr(&arena, small_id, &shift, &mut map);
    assert!(dst.is_oversized(big_d));
    let rederived = dst.range_interval(small_d, big_d);
    assert_eq!(rederived, rd, "collapse commutes with import");
}
