//! Canonical symbolic expressions.
//!
//! A [`SymExpr`] is kept in the canonical affine form `c₀ + Σ cᵢ·tᵢ`
//! where each *term* `tᵢ` is a (sorted) product of [`Atom`]s and the
//! coefficients `cᵢ` are non-zero integers. Purely affine arithmetic
//! (`+`, `−`, `×` by constants, and distribution of general `×`) is
//! exact; `min`, `max`, `/` and `mod` fold when enough is known and
//! otherwise become opaque atoms, as in the CGO'16 paper's expression
//! grammar (§3.3).
//!
//! All constant arithmetic saturates at the `i128` boundaries; the
//! analyses that sit on top only ever feed bounded program constants, and
//! the concrete-evaluation oracle in [`crate::Valuation`] uses the same
//! saturation so property tests compare like with like.
//!
//! **Semantics contract.** Canonicalization applies *mathematical*
//! identities (commuting sums, merging like terms, exact division).
//! Saturating arithmetic is neither associative nor stable under such
//! rewriting, so exact agreement with an op-by-op saturating evaluator
//! (the interpreter) is guaranteed for single operations and whenever no
//! intermediate value saturates — which covers every UB-free pointer
//! workload, where offsets are bounded by allocation sizes. Past the
//! saturation boundary the canonical form evaluates the *rewritten*
//! expression; `tests/arith_crosscheck.rs` pins both the agreement
//! regime and the known boundary divergences.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

use crate::symbol::{Symbol, SymbolNames};

/// Maximum number of atoms before expressions are considered oversized.
///
/// The paper (§3.8) notes that the widening discipline prevents "very
/// long chains of min and max expressions"; this limit is the safety net
/// that bounds the size of any single expression. Oversized expressions
/// are collapsed to ±∞ by the [`crate::SymRange`] layer, never silently
/// truncated here.
pub(crate) const MAX_EXPR_ATOMS: usize = 64;

/// An indivisible factor of a term.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Atom {
    /// A kernel symbol.
    Sym(Symbol),
    /// `min(a, b)` that could not be resolved statically.
    Min(Box<SymExpr>, Box<SymExpr>),
    /// `max(a, b)` that could not be resolved statically.
    Max(Box<SymExpr>, Box<SymExpr>),
    /// Truncating division `a / b` that could not be folded.
    Div(Box<SymExpr>, Box<SymExpr>),
    /// Truncating remainder `a mod b` that could not be folded.
    Mod(Box<SymExpr>, Box<SymExpr>),
}

impl Atom {
    fn size(&self) -> usize {
        match self {
            Atom::Sym(_) => 1,
            Atom::Min(a, b) | Atom::Max(a, b) | Atom::Div(a, b) | Atom::Mod(a, b) => {
                1 + a.size() + b.size()
            }
        }
    }

    fn for_each_symbol(&self, f: &mut impl FnMut(Symbol)) {
        match self {
            Atom::Sym(s) => f(*s),
            Atom::Min(a, b) | Atom::Max(a, b) | Atom::Div(a, b) | Atom::Mod(a, b) => {
                a.for_each_symbol_inner(f);
                b.for_each_symbol_inner(f);
            }
        }
    }

    fn map_symbols(&self, f: &impl Fn(Symbol) -> Symbol) -> Atom {
        match self {
            Atom::Sym(s) => Atom::Sym(f(*s)),
            Atom::Min(a, b) => Atom::Min(Box::new(a.map_symbols(f)), Box::new(b.map_symbols(f))),
            Atom::Max(a, b) => Atom::Max(Box::new(a.map_symbols(f)), Box::new(b.map_symbols(f))),
            Atom::Div(a, b) => Atom::Div(Box::new(a.map_symbols(f)), Box::new(b.map_symbols(f))),
            Atom::Mod(a, b) => Atom::Mod(Box::new(a.map_symbols(f)), Box::new(b.map_symbols(f))),
        }
    }

    fn eq_mapped(&self, other: &Atom, f: &impl Fn(Symbol) -> Symbol) -> bool {
        match (self, other) {
            (Atom::Sym(a), Atom::Sym(b)) => f(*a) == *b,
            (Atom::Min(a1, b1), Atom::Min(a2, b2))
            | (Atom::Max(a1, b1), Atom::Max(a2, b2))
            | (Atom::Div(a1, b1), Atom::Div(a2, b2))
            | (Atom::Mod(a1, b1), Atom::Mod(a2, b2)) => a1.eq_mapped(a2, f) && b1.eq_mapped(b2, f),
            _ => false,
        }
    }
}

/// A product of atoms, kept sorted so equal products compare equal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Term(Vec<Atom>);

impl Term {
    fn product(&self, other: &Term) -> Term {
        let mut atoms = self.0.clone();
        atoms.extend(other.0.iter().cloned());
        atoms.sort();
        Term(atoms)
    }

    fn size(&self) -> usize {
        self.0.iter().map(Atom::size).sum()
    }
}

fn sat_add(a: i128, b: i128) -> i128 {
    a.saturating_add(b)
}

fn sat_mul(a: i128, b: i128) -> i128 {
    a.saturating_mul(b)
}

/// Truncating division with the same saturation as the concrete
/// evaluator ([`crate::Valuation`]) and the interpreter oracle:
/// `i128::MIN / -1` saturates to `i128::MAX` instead of overflowing.
/// Callers must rule out `b == 0` first.
pub(crate) fn sat_div(a: i128, b: i128) -> i128 {
    a.checked_div(b).unwrap_or(i128::MAX)
}

/// Truncating remainder matching the concrete evaluator:
/// `i128::MIN % -1` is 0 (the mathematical result `checked_rem` refuses
/// to produce). Callers must rule out `b == 0` first.
pub(crate) fn sat_rem(a: i128, b: i128) -> i128 {
    a.checked_rem(b).unwrap_or(0)
}

/// A symbolic expression in canonical affine form.
///
/// Construct expressions with [`From`] conversions and the standard
/// arithmetic operators, or with the smart constructors [`SymExpr::min`],
/// [`SymExpr::max`], [`SymExpr::div`] and [`SymExpr::rem`].
///
/// # Examples
///
/// ```
/// use sra_symbolic::{Symbol, SymExpr};
/// let n = SymExpr::from(Symbol::new(0));
/// let e = n.clone() + n.clone() - 2.into(); // 2N - 2
/// assert_eq!(e, n.clone() * 2.into() - 2.into());
/// assert_eq!(e.try_lt(&(n * 2.into())), Some(true));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymExpr {
    constant: i128,
    terms: BTreeMap<Term, i128>,
}

impl SymExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        SymExpr {
            constant: 0,
            terms: BTreeMap::new(),
        }
    }

    /// Returns `Some(c)` when the expression is the constant `c`.
    pub fn as_constant(&self) -> Option<i128> {
        if self.terms.is_empty() {
            Some(self.constant)
        } else {
            None
        }
    }

    /// Returns `true` when the expression mentions at least one symbol or
    /// opaque operator (i.e. it is not a plain integer).
    pub fn is_symbolic(&self) -> bool {
        !self.terms.is_empty()
    }

    /// Returns `Some(s)` when the expression is exactly the symbol `s`.
    pub fn as_symbol(&self) -> Option<Symbol> {
        if self.constant != 0 || self.terms.len() != 1 {
            return None;
        }
        let (term, &coeff) = self.terms.iter().next()?;
        if coeff != 1 || term.0.len() != 1 {
            return None;
        }
        match &term.0[0] {
            Atom::Sym(s) => Some(*s),
            _ => None,
        }
    }

    /// Total number of atoms in the expression (a size measure used to
    /// bound expression growth; see [`SymRange`](crate::SymRange)).
    pub fn size(&self) -> usize {
        self.terms.keys().map(Term::size).sum()
    }

    /// Returns `true` when this expression exceeds the internal size
    /// budget and should be treated as unknown by clients that must stay
    /// cheap.
    pub fn is_oversized(&self) -> bool {
        self.size() > MAX_EXPR_ATOMS
    }

    /// Calls `f` with every kernel symbol mentioned in the expression
    /// (including inside `min`/`max`/`div`/`mod`), possibly repeatedly.
    pub fn for_each_symbol(&self, mut f: impl FnMut(Symbol)) {
        self.for_each_symbol_inner(&mut f);
    }

    fn for_each_symbol_inner(&self, f: &mut impl FnMut(Symbol)) {
        for term in self.terms.keys() {
            for atom in &term.0 {
                atom.for_each_symbol(f);
            }
        }
    }

    /// Rewrites every kernel symbol through `f`, preserving the
    /// canonical form.
    ///
    /// `f` must be *strictly monotone* on the symbols that occur
    /// (`a < b ⇒ f(a) < f(b)`), which every block-wise renumbering of
    /// per-function symbol budgets is. Monotonicity guarantees that the
    /// canonical orderings baked into the representation — sorted term
    /// products, and the argument order of unresolved `min`/`max` — are
    /// preserved, so the result is exactly the expression the analysis
    /// would have built had it minted the renamed symbols in the first
    /// place. That is what lets an incremental session carry an unedited
    /// function's states onto a shifted symbol-id block instead of
    /// re-running the analysis.
    pub fn map_symbols(&self, f: &impl Fn(Symbol) -> Symbol) -> SymExpr {
        let mut out = SymExpr {
            constant: self.constant,
            terms: BTreeMap::new(),
        };
        for (term, &coeff) in &self.terms {
            let mut atoms: Vec<Atom> = term.0.iter().map(|a| a.map_symbols(f)).collect();
            atoms.sort();
            out.add_term(Term(atoms), coeff);
        }
        out
    }

    /// Allocation-free equivalent of `self.map_symbols(f) == *other`
    /// for *strictly monotone* `f` (which preserves the canonical term
    /// order, so the two expressions can be walked in lockstep). A
    /// non-monotone `f` may produce false negatives, never false
    /// positives.
    pub fn eq_mapped(&self, other: &SymExpr, f: &impl Fn(Symbol) -> Symbol) -> bool {
        self.constant == other.constant
            && self.terms.len() == other.terms.len()
            && self
                .terms
                .iter()
                .zip(&other.terms)
                .all(|((ta, ca), (tb, cb))| {
                    ca == cb
                        && ta.0.len() == tb.0.len()
                        && ta.0.iter().zip(&tb.0).all(|(a, b)| a.eq_mapped(b, f))
                })
    }

    /// Crate-internal: the constant part of the affine form.
    pub(crate) fn as_constant_part(&self) -> i128 {
        self.constant
    }

    /// Crate-internal: reassembles an expression from already-canonical
    /// parts (the [`crate::ExprArena`] reconstructing a node). `terms`
    /// must be distinct canonical terms with non-zero coefficients —
    /// exactly what a prior [`SymExpr::terms_view`] produced — so the
    /// `BTreeMap` insert reproduces the original map verbatim.
    pub(crate) fn from_raw_parts(
        constant: i128,
        terms: impl Iterator<Item = (Vec<Atom>, i128)>,
    ) -> SymExpr {
        let mut map = BTreeMap::new();
        for (atoms, coeff) in terms {
            debug_assert_ne!(coeff, 0, "canonical terms have non-zero coefficients");
            let prev = map.insert(Term(atoms), coeff);
            debug_assert!(prev.is_none(), "canonical terms are distinct");
        }
        SymExpr {
            constant,
            terms: map,
        }
    }

    /// Crate-internal: iterates `(atoms-of-term, coefficient)` pairs.
    pub(crate) fn terms_view(&self) -> impl Iterator<Item = (&[Atom], i128)> + '_ {
        self.terms.iter().map(|(t, &c)| (t.0.as_slice(), c))
    }

    fn from_atom(atom: Atom) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(Term(vec![atom]), 1);
        SymExpr { constant: 0, terms }
    }

    fn add_term(&mut self, term: Term, coeff: i128) {
        use std::collections::btree_map::Entry;
        if coeff == 0 {
            return;
        }
        match self.terms.entry(term) {
            Entry::Occupied(mut o) => {
                let v = sat_add(*o.get(), coeff);
                if v == 0 {
                    o.remove();
                } else {
                    *o.get_mut() = v;
                }
            }
            Entry::Vacant(v) => {
                v.insert(coeff);
            }
        }
    }

    /// Symbolic minimum with constant folding and comparison-based
    /// simplification: if one operand is provably ≤ the other it wins.
    pub fn min(a: SymExpr, b: SymExpr) -> SymExpr {
        // Check both directions: try_le is not symmetric in what it can
        // prove (a ≤ b may be provable while b ≤ a is merely unknown).
        match (a.try_le(&b), b.try_le(&a)) {
            (Some(true), _) | (_, Some(false)) => a,
            (Some(false), _) | (_, Some(true)) => b,
            (None, None) => {
                // Canonical argument order keeps min(x,y) == min(y,x).
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                SymExpr::from_atom(Atom::Min(Box::new(lo), Box::new(hi)))
            }
        }
    }

    /// Symbolic maximum; dual of [`SymExpr::min`].
    pub fn max(a: SymExpr, b: SymExpr) -> SymExpr {
        match (a.try_le(&b), b.try_le(&a)) {
            (Some(true), _) | (_, Some(false)) => b,
            (Some(false), _) | (_, Some(true)) => a,
            (None, None) => {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                SymExpr::from_atom(Atom::Max(Box::new(lo), Box::new(hi)))
            }
        }
    }

    /// Truncating division. Folds constants and exact divisions by a
    /// constant; otherwise produces an opaque `Div` atom. Division by the
    /// constant zero yields an opaque atom as well (the program would be
    /// undefined; any value is a sound abstraction).
    ///
    /// Like every canonicalization here, the exact-division fold is a
    /// *mathematical* identity (`6x/3 = 2x` over ℤ); in a program whose
    /// intermediate values saturate, the folded form can evaluate
    /// differently from the op-by-op original (saturation does not
    /// commute with rewriting). See the crate docs and the
    /// `arith_crosscheck` suite for the exact agreement contract.
    #[allow(clippy::should_implement_trait)] // associated constructor, not `Div::div`
    pub fn div(a: SymExpr, b: SymExpr) -> SymExpr {
        if let (Some(x), Some(y)) = (a.as_constant(), b.as_constant()) {
            if y != 0 {
                return SymExpr::from(sat_div(x, y));
            }
        }
        if let Some(d) = b.as_constant() {
            if d != 0
                && sat_rem(a.constant, d) == 0
                && a.terms.values().all(|&c| sat_rem(c, d) == 0)
            {
                let mut out = SymExpr::zero();
                out.constant = sat_div(a.constant, d);
                for (t, &c) in &a.terms {
                    out.add_term(t.clone(), sat_div(c, d));
                }
                return out;
            }
        }
        SymExpr::from_atom(Atom::Div(Box::new(a), Box::new(b)))
    }

    /// Truncating remainder (`%` with C semantics). Folds constants;
    /// otherwise produces an opaque `Mod` atom.
    #[allow(clippy::should_implement_trait)] // associated constructor, not `Rem::rem`
    pub fn rem(a: SymExpr, b: SymExpr) -> SymExpr {
        if let (Some(x), Some(y)) = (a.as_constant(), b.as_constant()) {
            if y != 0 {
                return SymExpr::from(sat_rem(x, y));
            }
        }
        SymExpr::from_atom(Atom::Mod(Box::new(a), Box::new(b)))
    }

    /// Tries to prove `self ≤ other` (for every valuation of the
    /// symbols).
    ///
    /// Returns `Some(true)` when provably ≤, `Some(false)` when
    /// provably greater, and `None` when the order cannot be decided —
    /// e.g. between expressions over distinct kernel symbols, which the
    /// paper leaves unordered.
    pub fn try_le(&self, other: &SymExpr) -> Option<bool> {
        let diff = other.clone() - self.clone();
        if prove_nonneg(&diff, 4) {
            return Some(true);
        }
        // self > other  ⟺  self − other − 1 ≥ 0 (integers).
        let strict = self.clone() - other.clone() - SymExpr::from(1);
        if prove_nonneg(&strict, 4) {
            return Some(false);
        }
        None
    }

    /// Tries to prove `self < other`; see [`SymExpr::try_le`].
    pub fn try_lt(&self, other: &SymExpr) -> Option<bool> {
        (self.clone() + SymExpr::from(1)).try_le(other)
    }
}

/// Attempts a proof that `e ≥ 0` for all valuations.
///
/// Decides the affine-constant case exactly and recurses structurally
/// through single `min`/`max` atoms with coefficient ±1:
///
/// * `c + min(x, y) ≥ 0` ⟸ `c + x ≥ 0 ∧ c + y ≥ 0`
/// * `c + max(x, y) ≥ 0` ⟸ `c + x ≥ 0 ∨ c + y ≥ 0`
/// * `c − min(x, y) = max(c−x, c−y)`, and dually for `max`.
fn prove_nonneg(e: &SymExpr, depth: u32) -> bool {
    if let Some(c) = e.as_constant() {
        return c >= 0;
    }
    if depth == 0 {
        return false;
    }
    // Strip one min/max term (coefficient ±1) and case-split on it:
    //   rest + min(x,y) ≥ 0 ⟸ rest+x ≥ 0 ∧ rest+y ≥ 0
    //   rest + max(x,y) ≥ 0 ⟸ rest+x ≥ 0 ∨ rest+y ≥ 0
    //   rest − min(x,y) ≥ 0 ⟸ rest−x ≥ 0 ∨ rest−y ≥ 0
    //   rest − max(x,y) ≥ 0 ⟸ rest−x ≥ 0 ∧ rest−y ≥ 0
    for (term, &coeff) in &e.terms {
        if term.0.len() != 1 || (coeff != 1 && coeff != -1) {
            continue;
        }
        let (is_min, x, y) = match &term.0[0] {
            Atom::Min(x, y) => (true, x, y),
            Atom::Max(x, y) => (false, x, y),
            _ => continue,
        };
        let mut rest = e.clone();
        rest.add_term(term.clone(), -coeff);
        let with_x;
        let with_y;
        if coeff == 1 {
            with_x = rest.clone() + (**x).clone();
            with_y = rest + (**y).clone();
        } else {
            with_x = rest.clone() - (**x).clone();
            with_y = rest - (**y).clone();
        }
        // `+min`/`−max` require both branches; `+max`/`−min` need one.
        let needs_both = is_min == (coeff == 1);
        let proved = if needs_both {
            prove_nonneg(&with_x, depth - 1) && prove_nonneg(&with_y, depth - 1)
        } else {
            prove_nonneg(&with_x, depth - 1) || prove_nonneg(&with_y, depth - 1)
        };
        if proved {
            return true;
        }
    }
    false
}

impl From<i128> for SymExpr {
    fn from(c: i128) -> Self {
        SymExpr {
            constant: c,
            terms: BTreeMap::new(),
        }
    }
}

impl From<i64> for SymExpr {
    fn from(c: i64) -> Self {
        SymExpr::from(c as i128)
    }
}

impl From<i32> for SymExpr {
    fn from(c: i32) -> Self {
        SymExpr::from(c as i128)
    }
}

impl From<Symbol> for SymExpr {
    fn from(s: Symbol) -> Self {
        SymExpr::from_atom(Atom::Sym(s))
    }
}

impl Add for SymExpr {
    type Output = SymExpr;

    fn add(self, rhs: SymExpr) -> SymExpr {
        let mut out = self;
        out.constant = sat_add(out.constant, rhs.constant);
        for (t, c) in rhs.terms {
            out.add_term(t, c);
        }
        out
    }
}

impl Sub for SymExpr {
    type Output = SymExpr;

    fn sub(self, rhs: SymExpr) -> SymExpr {
        self + (-rhs)
    }
}

impl Neg for SymExpr {
    type Output = SymExpr;

    fn neg(self) -> SymExpr {
        let mut out = SymExpr::zero();
        out.constant = self.constant.checked_neg().unwrap_or(i128::MAX);
        for (t, c) in self.terms {
            out.add_term(t, c.checked_neg().unwrap_or(i128::MAX));
        }
        out
    }
}

impl Mul for SymExpr {
    type Output = SymExpr;

    fn mul(self, rhs: SymExpr) -> SymExpr {
        let mut out = SymExpr::from(sat_mul(self.constant, rhs.constant));
        for (t, &c) in &self.terms {
            let scaled = sat_mul(c, rhs.constant);
            out.add_term(t.clone(), scaled);
        }
        for (t, &c) in &rhs.terms {
            let scaled = sat_mul(c, self.constant);
            out.add_term(t.clone(), scaled);
        }
        for (ta, &ca) in &self.terms {
            for (tb, &cb) in &rhs.terms {
                out.add_term(ta.product(tb), sat_mul(ca, cb));
            }
        }
        out
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display(&NoNames))
    }
}

struct NoNames;

impl SymbolNames for NoNames {
    fn symbol_name(&self, _sym: Symbol) -> Option<&str> {
        None
    }
}

impl SymExpr {
    /// Renders the expression using `names` for symbol display.
    pub fn display<'a>(&'a self, names: &'a dyn SymbolNames) -> impl fmt::Display + 'a {
        DisplayExpr { expr: self, names }
    }
}

struct DisplayExpr<'a> {
    expr: &'a SymExpr,
    names: &'a dyn SymbolNames,
}

impl fmt::Display for DisplayExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = self.expr;
        let mut first = true;
        for (term, &coeff) in &e.terms {
            let (sign, mag) = if coeff < 0 {
                ("-", -coeff)
            } else {
                ("+", coeff)
            };
            if first {
                if sign == "-" {
                    write!(f, "-")?;
                }
            } else {
                write!(f, " {} ", sign)?;
            }
            first = false;
            if mag != 1 {
                write!(f, "{}*", mag)?;
            }
            let mut first_atom = true;
            for atom in &term.0 {
                if !first_atom {
                    write!(f, "*")?;
                }
                first_atom = false;
                fmt_atom(atom, self.names, f)?;
            }
        }
        if first {
            write!(f, "{}", e.constant)?;
        } else if e.constant != 0 {
            let (sign, mag) = if e.constant < 0 {
                ("-", -e.constant)
            } else {
                ("+", e.constant)
            };
            write!(f, " {} {}", sign, mag)?;
        }
        Ok(())
    }
}

fn fmt_atom(atom: &Atom, names: &dyn SymbolNames, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match atom {
        Atom::Sym(s) => match names.symbol_name(*s) {
            Some(n) => write!(f, "{}", n),
            None => write!(f, "{}", s),
        },
        Atom::Min(a, b) => write!(f, "min({}, {})", a.display(names), b.display(names)),
        Atom::Max(a, b) => write!(f, "max({}, {})", a.display(names), b.display(names)),
        Atom::Div(a, b) => write!(f, "({} / {})", a.display(names), b.display(names)),
        Atom::Mod(a, b) => write!(f, "({} mod {})", a.display(names), b.display(names)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: u32) -> SymExpr {
        SymExpr::from(Symbol::new(i))
    }

    #[test]
    fn constant_folding() {
        let e = SymExpr::from(2) + SymExpr::from(3);
        assert_eq!(e.as_constant(), Some(5));
        let e = SymExpr::from(2) * SymExpr::from(3) - SymExpr::from(1);
        assert_eq!(e.as_constant(), Some(5));
    }

    #[test]
    fn affine_cancellation() {
        let n = sym(0);
        let e = n.clone() + SymExpr::from(4) - n.clone() - SymExpr::from(4);
        assert_eq!(e, SymExpr::zero());
        assert_eq!(e.as_constant(), Some(0));
    }

    #[test]
    fn like_terms_combine() {
        let n = sym(0);
        let e = n.clone() + n.clone() + n.clone();
        assert_eq!(e, n.clone() * SymExpr::from(3));
    }

    #[test]
    fn multiplication_distributes() {
        let n = sym(0);
        let m = sym(1);
        let lhs = (n.clone() + SymExpr::from(1)) * (m.clone() + SymExpr::from(2));
        let rhs = n.clone() * m.clone() + n * SymExpr::from(2) + m + SymExpr::from(2);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn product_terms_commute() {
        let n = sym(0);
        let m = sym(1);
        assert_eq!(n.clone() * m.clone(), m * n);
    }

    #[test]
    fn ordering_same_symbol() {
        let n = sym(0);
        assert_eq!(n.try_lt(&(n.clone() + SymExpr::from(1))), Some(true));
        assert_eq!(n.try_le(&n), Some(true));
        assert_eq!((n.clone() + SymExpr::from(1)).try_le(&n), Some(false));
    }

    #[test]
    fn ordering_distinct_symbols_unknown() {
        let n = sym(0);
        let m = sym(1);
        assert_eq!(n.try_le(&m), None);
        assert_eq!(m.try_le(&n), None);
    }

    #[test]
    fn min_max_fold_when_comparable() {
        let n = sym(0);
        let n1 = n.clone() + SymExpr::from(1);
        assert_eq!(SymExpr::min(n.clone(), n1.clone()), n);
        assert_eq!(SymExpr::max(n.clone(), n1.clone()), n1);
        assert_eq!(SymExpr::min(n.clone(), n.clone()), n);
    }

    #[test]
    fn min_max_opaque_and_commutative() {
        let n = sym(0);
        let m = sym(1);
        let a = SymExpr::min(n.clone(), m.clone());
        let b = SymExpr::min(m, n);
        assert_eq!(a, b);
        assert!(a.is_symbolic());
    }

    #[test]
    fn min_le_both_arguments() {
        let n = sym(0);
        let m = sym(1);
        let mn = SymExpr::min(n.clone(), m.clone());
        assert_eq!(mn.try_le(&n), Some(true));
        assert_eq!(mn.try_le(&m), Some(true));
        let mx = SymExpr::max(n.clone(), m.clone());
        assert_eq!(n.try_le(&mx), Some(true));
        assert_eq!(m.try_le(&mx), Some(true));
    }

    #[test]
    fn min_plus_const_comparisons() {
        let n = sym(0);
        let m = sym(1);
        let mn = SymExpr::min(n.clone(), m.clone());
        // min(n, m) - 1 < max(n, m) + 1
        let mx = SymExpr::max(n, m);
        let lhs = mn - SymExpr::from(1);
        let rhs = mx + SymExpr::from(1);
        assert_eq!(lhs.try_lt(&rhs), Some(true));
    }

    #[test]
    fn div_folding() {
        assert_eq!(SymExpr::div(7.into(), 2.into()).as_constant(), Some(3));
        assert_eq!(SymExpr::div((-7).into(), 2.into()).as_constant(), Some(-3));
        let n = sym(0);
        let e = SymExpr::div(n.clone() * SymExpr::from(4) + SymExpr::from(8), 4.into());
        assert_eq!(e, n + SymExpr::from(2));
    }

    #[test]
    fn div_opaque_when_inexact() {
        let n = sym(0);
        let e = SymExpr::div(n.clone(), 2.into());
        assert!(e.is_symbolic());
        assert_eq!(e.as_constant(), None);
        // Same expression twice is syntactically equal.
        assert_eq!(e, SymExpr::div(n, 2.into()));
    }

    #[test]
    fn rem_folding() {
        assert_eq!(SymExpr::rem(7.into(), 3.into()).as_constant(), Some(1));
        assert_eq!(SymExpr::rem((-7).into(), 3.into()).as_constant(), Some(-1));
    }

    #[test]
    fn div_by_zero_is_opaque() {
        let e = SymExpr::div(7.into(), 0.into());
        assert!(e.is_symbolic());
        let e = SymExpr::rem(7.into(), 0.into());
        assert!(e.is_symbolic());
    }

    #[test]
    fn as_symbol_roundtrip() {
        let s = Symbol::new(5);
        assert_eq!(SymExpr::from(s).as_symbol(), Some(s));
        assert_eq!((SymExpr::from(s) + SymExpr::from(1)).as_symbol(), None);
        assert_eq!(SymExpr::from(3).as_symbol(), None);
    }

    #[test]
    fn display_renders_affine() {
        let n = sym(0);
        let e = n.clone() * SymExpr::from(2) + SymExpr::from(3);
        assert_eq!(e.to_string(), "2*s0 + 3");
        let e = SymExpr::zero() - n;
        assert_eq!(e.to_string(), "-s0");
        assert_eq!(SymExpr::from(0).to_string(), "0");
    }

    #[test]
    fn for_each_symbol_sees_nested() {
        let n = Symbol::new(0);
        let m = Symbol::new(1);
        let e = SymExpr::min(SymExpr::from(n), SymExpr::from(m)) + SymExpr::from(7);
        let mut seen = Vec::new();
        e.for_each_symbol(|s| seen.push(s));
        seen.sort();
        assert_eq!(seen, vec![n, m]);
    }

    #[test]
    fn size_counts_atoms() {
        let n = sym(0);
        let m = sym(1);
        assert_eq!(n.size(), 1);
        assert_eq!((n.clone() * m.clone()).size(), 2);
        assert_eq!(SymExpr::min(n, m).size(), 3);
        assert_eq!(SymExpr::from(9).size(), 0);
    }

    #[test]
    fn saturation_does_not_panic() {
        let big = SymExpr::from(i128::MAX) + SymExpr::from(i128::MAX);
        assert_eq!(big.as_constant(), Some(i128::MAX));
        let neg = -SymExpr::from(i128::MIN);
        assert_eq!(neg.as_constant(), Some(i128::MAX));
    }

    /// A monotone renaming commutes with construction: mapping a built
    /// expression equals building from mapped symbols, down to nested
    /// min/max canonical argument order.
    #[test]
    fn map_symbols_commutes_with_construction() {
        let shift = |s: Symbol| Symbol::new(s.index() + 10);
        let build = |a: Symbol, b: Symbol| {
            SymExpr::min(
                SymExpr::from(a) * SymExpr::from(b),
                SymExpr::from(b) + 3.into(),
            ) + SymExpr::max(SymExpr::from(a), SymExpr::from(2)) * 5.into()
                - 7.into()
        };
        let e = build(Symbol::new(0), Symbol::new(1));
        let mapped = e.map_symbols(&shift);
        let rebuilt = build(Symbol::new(10), Symbol::new(11));
        assert_eq!(mapped, rebuilt);
        // Identity map is a no-op.
        assert_eq!(e.map_symbols(&|s| s), e);
    }
}
