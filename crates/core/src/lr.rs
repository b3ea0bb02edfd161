//! The local pointer range analysis `LR` (paper §3.6).
//!
//! The local analysis renames pointers at every φ-function and load: it
//! binds each pointer to `(base, range)` where `base` is either a fresh
//! location (`NewLocs()` in Figure 11) or a global, and `range` tracks
//! the offset accumulated by pointer arithmetic from that base. Because
//! fresh locations break the imprecision that φ joins introduce in the
//! global analysis, two offsets from a common renamed base — like
//! `newp[0]` and `newp[1]` in the paper's Figure 4 — are disambiguated
//! even when their global ranges overlap.
//!
//! **Offset valuation.** The paper's local test renames "every pointer
//! alive at the beginning of a single entry region" so that, *within one
//! instance of the region*, offsets are relative to a fixed base
//! (Figure 4 rewrites `p[i]`/`p[i+1]` into `newp[0]`/`newp[1]`). We
//! obtain the same effect without rewriting the program: integer values
//! are evaluated to exact symbolic *singletons*, with loop-φs, loads,
//! parameters and call results bound to fresh symbols. Two offsets from
//! a common base then compare as expressions over the same region
//! instance: `[i, i]` and `[i+1, i+1]` are provably disjoint. This is
//! the "same moment during execution" semantics the paper assigns to
//! local disambiguation (§4).
//!
//! The analysis is a single pass over the dominance-tree pre-order
//! (instructions are "evaluated abstractly in the order given by the
//! program's dominance tree", §3.6); the underlying lattice is finite so
//! no widening is needed. Offsets are interned [`ExprId`]s/[`RangeId`]s
//! in a per-part [`ExprArena`] — the σ-set-carrying [`LrState`] is ids
//! all the way down, and [`LrAnalysis::from_parts`] imports the part
//! arenas into one module arena exactly like the bootstrap ranges.

use sra_ir::cfg::Cfg;
use sra_ir::dom::DomTree;
use sra_ir::{BinOp, FuncId, GlobalId, Inst, Module, Ty, ValueId, ValueKind};
use sra_symbolic::pool::WorkerPool;
use sra_symbolic::{ExprArena, ExprId, ImportMap, RangeId, Symbol, SymbolNames, SymbolTable};

use std::fmt;
use std::sync::Arc;

/// The base a pointer is locally an offset of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocalBase {
    /// A fresh location minted by `NewLocs()` — one per allocation,
    /// φ-function, load, call or parameter.
    Fresh(u32),
    /// The address of a module global (syntactically identifiable, so
    /// two occurrences share the base).
    Global(GlobalId),
}

impl fmt::Display for LocalBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocalBase::Fresh(i) => write!(f, "new{}", i),
            LocalBase::Global(g) => write!(f, "{}", g),
        }
    }
}

/// The local abstract state of one pointer: `LR(p) = base + range`,
/// with the offset range interned in the owning analysis' arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LrState {
    /// The local base.
    pub base: LocalBase,
    /// Offset range from the base (a handle into the analysis' arena).
    pub range: RangeId,
    /// The σ-nodes the pointer's derivation traversed — through the
    /// base *and* through the integer offset expressions — as a sorted
    /// set. Two states speak about the same dynamic instance of their
    /// symbols — the precondition of the paper's "same moment" local
    /// test — only when these sets are identical: the σ on a loop's
    /// back-edge and the σ on its exit edge re-read the φ at
    /// *different* instants, so offsets taken through them must not be
    /// compared (\[0,0\] from the exit σ and \[1,1\] from the body σ can
    /// both be `base+1` concretely when the loop runs once).
    pub sigmas: Vec<ValueId>,
    /// Block of the defining instruction (`None` for parameters and
    /// global addresses). The local test additionally requires a
    /// common block: within one execution of a block every value is
    /// defined exactly once, so the k-th definitions of two pointers
    /// in it belong to the same activation — the alignment that makes
    /// range disjointness meaningful. Pointers in different blocks
    /// (e.g. a loop body and its exit) are defined different numbers
    /// of times and their aligned definitions may mix iterations.
    pub block: Option<sra_ir::BlockId>,
}

/// An [`LrState`] bundled with its arena — what [`LrAnalysis::state`]
/// hands out. Equality is structural across arenas (the byte-identity
/// rails compare states of independently built analyses).
#[derive(Clone, Copy)]
pub struct LrStateRef<'a> {
    state: &'a LrState,
    arena: &'a ExprArena,
}

impl<'a> LrStateRef<'a> {
    /// Bundles a state with its arena.
    pub fn new(state: &'a LrState, arena: &'a ExprArena) -> Self {
        LrStateRef { state, arena }
    }

    /// The underlying state.
    pub fn state(&self) -> &'a LrState {
        self.state
    }

    /// The arena the state's range handle points into.
    pub fn arena(&self) -> &'a ExprArena {
        self.arena
    }

    /// The local base.
    pub fn base(&self) -> LocalBase {
        self.state.base
    }

    /// The interned offset range.
    pub fn range(&self) -> RangeId {
        self.state.range
    }

    /// The σ-set of the derivation.
    pub fn sigmas(&self) -> &'a [ValueId] {
        &self.state.sigmas
    }

    /// Block of the defining instruction.
    pub fn block(&self) -> Option<sra_ir::BlockId> {
        self.state.block
    }

    /// Renders as `new3 + [i, i]`.
    pub fn display(&self, names: &'a dyn SymbolNames) -> impl fmt::Display + 'a {
        DisplayLr {
            state: self.state,
            arena: self.arena,
            names,
        }
    }
}

impl PartialEq for LrStateRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.state.base == other.state.base
            && self.state.sigmas == other.state.sigmas
            && self.state.block == other.state.block
            && self
                .arena
                .range_structural_eq(self.state.range, other.arena, other.state.range)
    }
}

impl Eq for LrStateRef<'_> {}

impl fmt::Debug for LrStateRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct NoNames;
        impl SymbolNames for NoNames {
            fn symbol_name(&self, _s: Symbol) -> Option<&str> {
                None
            }
        }
        write!(
            f,
            "{} (σ: {:?}, block: {:?})",
            self.display(&NoNames),
            self.state.sigmas,
            self.state.block
        )
    }
}

struct DisplayLr<'a> {
    state: &'a LrState,
    arena: &'a ExprArena,
    names: &'a dyn SymbolNames,
}

impl fmt::Display for DisplayLr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} + {}",
            self.state.base,
            self.arena.display_range(self.state.range, self.names)
        )
    }
}

/// The per-function output of the local analysis: the states (ranges
/// interned in the part's own arena) plus the offset-symbol names
/// minted from `first_symbol`, in minting order. Transient, like
/// [`sra_range::RangePart`]: it lives until an assembly imports it.
#[derive(Debug, Clone)]
pub struct LrPart {
    /// The part's private arena.
    pub arena: ExprArena,
    /// `LR(v)` for every value of the function.
    pub states: Vec<Option<LrState>>,
    /// The `first_symbol` this part was analyzed with.
    pub first_symbol: u32,
    /// Names of the symbols minted, starting at `first_symbol`.
    pub symbol_names: Vec<String>,
}

/// Where [`LrAnalysis::assemble_on`] takes one function's states from.
#[derive(Debug)]
pub enum LrSource<'a> {
    /// A freshly analyzed part.
    Fresh(Box<LrPart>),
    /// A function of an earlier assembled analysis, carried over: its
    /// states are imported straight out of that analysis' module arena.
    Carried(&'a LrAnalysis, FuncId),
}

impl LrSource<'_> {
    /// The source arena, the function's states in it, the first symbol
    /// they mention and the names of the function's symbols.
    fn view(&self) -> (&ExprArena, &[Option<LrState>], u32, &[String]) {
        match self {
            LrSource::Fresh(p) => (&p.arena, &p.states, p.first_symbol, &p.symbol_names),
            LrSource::Carried(from, f) => {
                let block = from.symbol_block(*f);
                let states = &from.states[f.index()];
                (&from.arena, states, block.start, from.symbols.names(block))
            }
        }
    }
}

/// Imports one function's states into `arena`, renaming its symbols
/// `s ↦ s − first + base`.
fn import_states(
    arena: &mut ExprArena,
    src: &ExprArena,
    states: &[Option<LrState>],
    first: u32,
    base: u32,
) -> Vec<Option<LrState>> {
    let rename = |s: Symbol| Symbol::new(s.index() - first + base);
    let mut map = ImportMap::default();
    states
        .iter()
        .map(|slot| {
            slot.as_ref().map(|s| LrState {
                base: s.base,
                range: arena.import_range(src, s.range, &rename, &mut map),
                sigmas: s.sigmas.clone(),
                block: s.block,
            })
        })
        .collect()
}

/// The number of offset symbols [`analyze_function_part`] will mint for
/// `fid`: one per integer parameter plus one per *reachable* integer
/// φ/load/call/comparison. The analysis walks the dominance tree, but a
/// count only needs reachability, so this pre-scan stops at the CFG's
/// reverse post-order (same block set, no dominator computation).
pub fn symbol_budget(m: &Module, fid: FuncId) -> usize {
    let f = m.function(fid);
    let params = f
        .value_ids()
        .filter(|&v| {
            matches!(f.value(v).kind(), ValueKind::Param { .. }) && f.value(v).ty() == Some(Ty::Int)
        })
        .count();
    let cfg = Cfg::new(f);
    let mut insts = 0;
    for &b in cfg.rpo() {
        for &v in f.block(b).insts() {
            if f.value(v).ty() != Some(Ty::Int) {
                continue;
            }
            if matches!(
                f.value(v).as_inst(),
                Some(Inst::Phi { .. })
                    | Some(Inst::Load { .. })
                    | Some(Inst::Call { .. })
                    | Some(Inst::Cmp { .. })
            ) {
                insts += 1;
            }
        }
    }
    params + insts
}

/// Results of the local analysis: `LR(p)` for every pointer `p`, with
/// every offset range interned in one module arena.
#[derive(Debug, Clone)]
pub struct LrAnalysis {
    states: Vec<Vec<Option<LrState>>>,
    symbols: SymbolTable,
    /// Function `f`'s symbols are `bases[f]..bases[f + 1]`.
    bases: Vec<u32>,
    arena: Arc<ExprArena>,
}

impl LrAnalysis {
    /// Runs the local analysis over every function of `m`.
    pub fn analyze(m: &Module) -> Self {
        let mut parts = Vec::with_capacity(m.num_functions());
        let mut base = 0u32;
        for fid in m.func_ids() {
            let part = analyze_function_part(m, fid, base);
            base += part.symbol_names.len() as u32;
            parts.push(part);
        }
        Self::from_parts(parts)
    }

    /// Reassembles a whole-module result from per-function parts in
    /// function order, importing every part arena into one module
    /// arena under the renaming onto each function's dense symbol
    /// block; see [`sra_range::RangeAnalysis::from_parts`] — the same
    /// structure-driven import makes the module arena (and every id)
    /// canonical in the analyzed states. The serial reference for
    /// [`LrAnalysis::assemble_on`].
    pub fn from_parts(parts: Vec<LrPart>) -> Self {
        let (symbols, bases) = SymbolTable::from_blocks(parts.iter().map(|p| &p.symbol_names[..]));
        let mut arena = ExprArena::new();
        let mut states = Vec::with_capacity(parts.len());
        for (part, &base) in parts.iter().zip(&bases) {
            let (src, first) = (&part.arena, part.first_symbol);
            states.push(import_states(&mut arena, src, &part.states, first, base));
            arena.absorb_op_stats(&part.arena);
        }
        LrAnalysis {
            states,
            symbols,
            bases,
            arena: Arc::new(arena),
        }
    }

    /// [`LrAnalysis::assemble_on`] of fresh parts.
    pub fn from_parts_on(parts: Vec<LrPart>, pool: &WorkerPool) -> Self {
        let sources = parts.into_iter().map(|p| LrSource::Fresh(Box::new(p)));
        Self::assemble_on(sources.collect(), pool)
    }

    /// Assembles a whole-module result from one source per function on
    /// `pool` — the fan-out and renamings of
    /// [`sra_range::RangeAnalysis::assemble_on`], and byte-identical to
    /// [`LrAnalysis::from_parts`] over fresh parts for the same reason.
    pub fn assemble_on(sources: Vec<LrSource<'_>>, pool: &WorkerPool) -> Self {
        let views: Vec<_> = sources.iter().map(LrSource::view).collect();
        let (symbols, bases) = SymbolTable::from_blocks(views.iter().map(|v| v.3));
        let (mut arena, states) = ExprArena::assemble_on(
            views.len(),
            pool,
            |i, arena| {
                let (src, states, first, _) = views[i];
                import_states(arena, src, states, first, bases[i])
            },
            |states, xl| {
                states
                    .iter_mut()
                    .flatten()
                    .for_each(|s| s.range = xl.range(s.range))
            },
        );
        for source in &sources {
            if let LrSource::Fresh(part) = source {
                arena.absorb_op_stats(&part.arena);
            }
        }
        LrAnalysis {
            states,
            symbols,
            bases,
            arena: Arc::new(arena),
        }
    }

    /// Rebuilds an assembled analysis from its module arena and, per
    /// function, its states and symbol names — a snapshot's contents,
    /// whose ids the decoder has validated.
    pub(crate) fn from_raw(
        arena: ExprArena,
        per_func: Vec<(Vec<Option<LrState>>, Vec<String>)>,
    ) -> Self {
        let (symbols, bases) = SymbolTable::from_blocks(per_func.iter().map(|f| &f.1[..]));
        LrAnalysis {
            states: per_func.into_iter().map(|(states, _)| states).collect(),
            symbols,
            bases,
            arena: Arc::new(arena),
        }
    }

    /// The symbol ids of `f`'s offset symbols: a dense block after the
    /// blocks of the functions before it.
    pub fn symbol_block(&self, f: FuncId) -> std::ops::Range<u32> {
        self.bases[f.index()]..self.bases[f.index() + 1]
    }

    /// The local state of `v` in `f`; `None` for non-pointers and
    /// unreachable values.
    pub fn state(&self, f: FuncId, v: ValueId) -> Option<LrStateRef<'_>> {
        self.states[f.index()][v.index()]
            .as_ref()
            .map(|s| LrStateRef::new(s, &self.arena))
    }

    /// Raw access to the stored state (crate-internal fast paths).
    pub(crate) fn raw_state(&self, f: FuncId, v: ValueId) -> Option<&LrState> {
        self.states[f.index()][v.index()].as_ref()
    }

    /// Every value's state in `f` (the snapshot encoder).
    pub(crate) fn function_states(&self, f: FuncId) -> &[Option<LrState>] {
        &self.states[f.index()]
    }

    /// The module arena every state's range handle points into.
    pub fn arena(&self) -> &ExprArena {
        &self.arena
    }

    /// The module arena behind its shared handle (overlay bases for
    /// parallel consumers).
    pub fn arena_arc(&self) -> Arc<ExprArena> {
        Arc::clone(&self.arena)
    }

    /// The symbol table of the local offset symbols (for display).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }
}

/// Analyzes one function, minting offset symbols `first_symbol,
/// first_symbol + 1, …` (exactly [`symbol_budget`] of them) into a
/// fresh part arena. Pure and thread-safe.
pub fn analyze_function_part(m: &Module, fid: FuncId, first_symbol: u32) -> LrPart {
    let mut minter = Minter {
        base: first_symbol,
        names: Vec::new(),
    };
    let mut arena = ExprArena::new();
    let states = analyze_function(m, fid, &mut arena, &mut minter);
    debug_assert_eq!(
        minter.names.len(),
        symbol_budget(m, fid),
        "symbol_budget must match what the analysis mints"
    );
    LrPart {
        arena,
        states,
        first_symbol,
        symbol_names: minter.names,
    }
}

/// Mints globally-unique symbols from a pre-assigned id block.
struct Minter {
    base: u32,
    names: Vec<String>,
}

impl Minter {
    fn fresh(&mut self, name: &str) -> Symbol {
        let s = Symbol::new(self.base + self.names.len() as u32);
        self.names.push(name.to_owned());
        s
    }
}

fn analyze_function(
    m: &Module,
    fid: FuncId,
    arena: &mut ExprArena,
    symbols: &mut Minter,
) -> Vec<Option<LrState>> {
    let f = m.function(fid);
    let zero_range = arena.range_constant(0);
    let mut states: Vec<Option<LrState>> = vec![None; f.num_values()];
    // Exact symbolic value of every integer (singleton semantics) plus
    // the σ-set its derivation traversed.
    let mut int_val: Vec<Option<(ExprId, Vec<ValueId>)>> = vec![None; f.num_values()];
    let mut fresh = 0u32;

    // Parameters, constants and global addresses dominate everything.
    for v in f.value_ids() {
        match f.value(v).kind() {
            ValueKind::Const(c) => {
                int_val[v.index()] = Some((arena.constant(*c as i128), Vec::new()));
            }
            ValueKind::Param { index } => match f.value(v).ty() {
                Some(Ty::Ptr) => {
                    states[v.index()] = Some(LrState {
                        base: LocalBase::Fresh(fresh),
                        range: zero_range,
                        sigmas: Vec::new(),
                        block: None,
                    });
                    fresh += 1;
                }
                Some(Ty::Int) => {
                    let name = match f.value(v).name() {
                        Some(n) => n.to_owned(),
                        None => format!("{}.arg{}", f.name(), index),
                    };
                    let s = symbols.fresh(&name);
                    int_val[v.index()] = Some((arena.symbol(s), Vec::new()));
                }
                None => {}
            },
            ValueKind::GlobalAddr(g) => {
                states[v.index()] = Some(LrState {
                    base: LocalBase::Global(*g),
                    range: zero_range,
                    sigmas: Vec::new(),
                    block: None,
                });
            }
            ValueKind::Inst(_) => {}
        }
    }

    let cfg = Cfg::new(f);
    let dom = DomTree::new(f, &cfg);
    for b in dom.preorder() {
        for &v in f.block(b).insts() {
            let Some(inst) = f.value(v).as_inst() else {
                continue;
            };
            match f.value(v).ty() {
                Some(Ty::Ptr) => {
                    let state = match inst {
                        // NewLocs() + [0,0] — Figure 11.
                        Inst::Malloc { .. }
                        | Inst::Alloca { .. }
                        | Inst::Phi { .. }
                        | Inst::Load { .. }
                        | Inst::Call { .. } => {
                            let s = LrState {
                                base: LocalBase::Fresh(fresh),
                                range: zero_range,
                                sigmas: Vec::new(),
                                block: Some(b),
                            };
                            fresh += 1;
                            Some(s)
                        }
                        // Copies preserve the local state.
                        Inst::Free { ptr } => states[ptr.index()].clone().map(|mut s| {
                            s.block = Some(b);
                            s
                        }),
                        // A σ re-reads its input on one CFG edge: the
                        // state is preserved, but the instant of the
                        // read is recorded so that only offsets taken
                        // from the *same* σ remain comparable.
                        Inst::Sigma { input, .. } => states[input.index()].clone().map(|mut s| {
                            insert_sigma(&mut s.sigmas, v);
                            s.block = Some(b);
                            s
                        }),
                        // Offsets accumulate exactly: LR(q) = loc + ([l,u] + c),
                        // inheriting the σ-instants of base and offset.
                        Inst::PtrAdd { base, offset } => {
                            let (off, off_sigmas) = int_val[offset.index()]
                                .clone()
                                .expect("int operands are always valued");
                            states[base.index()].clone().map(|s| LrState {
                                base: s.base,
                                range: arena.range_add_expr(s.range, off),
                                sigmas: union_sigmas(&s.sigmas, &off_sigmas),
                                block: Some(b),
                            })
                        }
                        _ => None,
                    };
                    states[v.index()] = state;
                }
                Some(Ty::Int) => {
                    let expr = match inst {
                        Inst::IntBin { op, lhs, rhs } => {
                            let (a, sa) = int_val[lhs.index()].clone().expect("valued");
                            let (bx, sb) = int_val[rhs.index()].clone().expect("valued");
                            let e = match op {
                                BinOp::Add => arena.add(a, bx),
                                BinOp::Sub => arena.sub(a, bx),
                                BinOp::Mul => arena.mul(a, bx),
                                BinOp::Div => arena.div(a, bx),
                                BinOp::Rem => arena.rem(a, bx),
                            };
                            Some((e, union_sigmas(&sa, &sb)))
                        }
                        // Like pointer σs: value preserved, instant
                        // recorded.
                        Inst::Sigma { input, .. } => {
                            int_val[input.index()].clone().map(|(e, mut s)| {
                                insert_sigma(&mut s, v);
                                (e, s)
                            })
                        }
                        // φs, loads, calls and comparisons denote "the
                        // value at this moment" — a fresh symbol.
                        Inst::Phi { .. }
                        | Inst::Load { .. }
                        | Inst::Call { .. }
                        | Inst::Cmp { .. } => {
                            let name = format!("{}.{}", f.name(), v);
                            Some((arena.symbol(symbols.fresh(&name)), Vec::new()))
                        }
                        _ => None,
                    };
                    int_val[v.index()] = expr;
                }
                None => {}
            }
        }
    }
    states
}

/// Inserts `v` into a sorted σ-set.
fn insert_sigma(set: &mut Vec<ValueId>, v: ValueId) {
    if let Err(pos) = set.binary_search(&v) {
        set.insert(pos, v);
    }
}

/// Union of two sorted σ-sets.
fn union_sigmas(a: &[ValueId], b: &[ValueId]) -> Vec<ValueId> {
    if b.is_empty() {
        return a.to_vec();
    }
    let mut out = a.to_vec();
    for &v in b {
        insert_sigma(&mut out, v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sra_ir::{CmpOp, FunctionBuilder};
    use sra_symbolic::SymRange;

    fn rv(lr: &LrAnalysis, s: LrStateRef<'_>) -> SymRange {
        lr.arena().range_value(s.range())
    }

    fn disjoint(lr: &LrAnalysis, a: LrStateRef<'_>, b: LrStateRef<'_>) -> bool {
        rv(lr, a).meet(&rv(lr, b)).is_empty()
    }

    /// The paper's Figure 10 (right column): the φ gets a fresh base and
    /// a4/a5 become separable.
    #[test]
    fn figure10_local_precision() {
        let mut b = FunctionBuilder::new("f", &[Ty::Int], None);
        let cond = b.param(0);
        let t = b.create_block();
        let e = b.create_block();
        let j = b.create_block();
        let two = b.const_int(2);
        let a1 = b.malloc(two);
        let one = b.const_int(1);
        let a2 = b.ptr_add(a1, one);
        let z = b.const_int(0);
        let c = b.cmp(CmpOp::Ne, cond, z);
        b.br(c, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        let a3 = b.phi(Ty::Ptr, &[(t, a1), (e, a2)]);
        let a4 = b.ptr_add(a3, one);
        let two_c = b.const_int(2);
        let a5 = b.ptr_add(a3, two_c);
        b.ret(None);
        let mut m = Module::new();
        let fid = m.add_function(b.finish());
        let lr = LrAnalysis::analyze(&m);

        let s3 = lr.state(fid, a3).expect("φ has LR state");
        let s4 = lr.state(fid, a4).expect("a4 has LR state");
        let s5 = lr.state(fid, a5).expect("a5 has LR state");
        // a3 is a fresh base at [0,0]; a4 and a5 offset from it.
        assert_eq!(rv(&lr, s3), SymRange::constant(0));
        assert_eq!(s4.base(), s3.base());
        assert_eq!(s5.base(), s3.base());
        assert_eq!(rv(&lr, s4), SymRange::constant(1));
        assert_eq!(rv(&lr, s5), SymRange::constant(2));
        // Disjoint ranges on the same base: the local test separates
        // them, exactly as the paper's right column shows.
        assert!(disjoint(&lr, s4, s5));
        // a1/a2 keep their own (different) base.
        let s1 = lr.state(fid, a1).unwrap();
        assert_ne!(s1.base(), s3.base());
    }

    /// Loop-carried index: p+i and p+(i+1) get offsets [i,i] and
    /// [i+1,i+1] — disjoint within one iteration (the Figure 4 insight).
    #[test]
    fn loop_index_offsets_are_singletons() {
        let mut b = FunctionBuilder::new("f", &[Ty::Ptr, Ty::Int], None);
        let p = b.param(0);
        let n = b.param(1);
        let head = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        let zero = b.const_int(0);
        let entry = b.entry_block();
        b.jump(head);
        b.switch_to(head);
        let i = b.phi(Ty::Int, &[(entry, zero)]);
        let c = b.cmp(CmpOp::Lt, i, n);
        b.br(c, body, exit);
        b.switch_to(body);
        let t0 = b.ptr_add(p, i);
        let one = b.const_int(1);
        let i1 = b.binop(BinOp::Add, i, one);
        let t1 = b.ptr_add(p, i1);
        let two = b.const_int(2);
        let i2 = b.binop(BinOp::Add, i, two);
        b.add_phi_arg(i, body, i2);
        b.jump(head);
        b.switch_to(exit);
        b.ret(None);
        let mut m = Module::new();
        let fid = m.add_function(b.finish());
        let lr = LrAnalysis::analyze(&m);
        let s0 = lr.state(fid, t0).unwrap();
        let s1 = lr.state(fid, t1).unwrap();
        assert_eq!(s0.base(), s1.base());
        assert!(disjoint(&lr, s0, s1), "{} vs {}", rv(&lr, s0), rv(&lr, s1));
    }

    #[test]
    fn sigma_copies_free_copies() {
        let mut b = FunctionBuilder::new("f", &[Ty::Ptr, Ty::Ptr], None);
        let p = b.param(0);
        let q = b.param(1);
        let t = b.create_block();
        let e = b.create_block();
        let c = b.cmp(CmpOp::Lt, p, q);
        b.br(c, t, e);
        b.switch_to(t);
        let freed = b.free(p);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        let mut f = b.finish();
        sra_ir::essa::run(&mut f);
        let mut m = Module::new();
        let fid = m.add_function(f);
        let lr = LrAnalysis::analyze(&m);
        let f = m.function(fid);
        let p_base = lr.state(fid, p).unwrap().base();
        // Every σ of p keeps p's base.
        for v in f.value_ids() {
            if let Some(Inst::Sigma { input, .. }) = f.value(v).as_inst() {
                if original(f, *input) == p {
                    assert_eq!(lr.state(fid, v).unwrap().base(), p_base);
                }
            }
        }
        let _ = freed;
    }

    fn original(f: &sra_ir::Function, mut v: ValueId) -> ValueId {
        while let Some(Inst::Sigma { input, .. }) = f.value(v).as_inst() {
            v = *input;
        }
        v
    }

    #[test]
    fn globals_share_base() {
        let mut m = Module::new();
        let g = m.add_global("tab", 16);
        let mut b = FunctionBuilder::new("f", &[], None);
        let a1 = b.global_addr(g, Ty::Ptr);
        let a2 = b.global_addr(g, Ty::Ptr);
        let one = b.const_int(1);
        let p = b.ptr_add(a1, one);
        let five = b.const_int(5);
        let q = b.ptr_add(a2, five);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let lr = LrAnalysis::analyze(&m);
        let sp = lr.state(fid, p).unwrap();
        let sq = lr.state(fid, q).unwrap();
        assert_eq!(sp.base(), sq.base());
        assert_eq!(sp.base(), LocalBase::Global(g));
        assert!(disjoint(&lr, sp, sq));
    }

    #[test]
    fn symbolic_offsets_accumulate() {
        let mut b = FunctionBuilder::new("f", &[Ty::Ptr, Ty::Int], None);
        let p = b.param(0);
        let n = b.param(1);
        b.set_name(n, "n");
        let q = b.ptr_add(p, n);
        let one = b.const_int(1);
        let r = b.ptr_add(q, one);
        b.ret(None);
        let mut m = Module::new();
        let fid = m.add_function(b.finish());
        let lr = LrAnalysis::analyze(&m);
        let sp = lr.state(fid, p).unwrap();
        let sr = lr.state(fid, r).unwrap();
        assert_eq!(sr.base(), sp.base());
        assert_eq!(
            format!("{}", sr.display(lr.symbols())),
            "new0 + [n + 1, n + 1]"
        );
        // p and q=p+n cannot be separated (n may be 0)…
        let sq = lr.state(fid, q).unwrap();
        assert!(!disjoint(&lr, sp, sq));
        // …but q and r=q+1 can.
        assert!(disjoint(&lr, sq, sr));
    }

    /// A part analyzed at any `first_symbol` assembles to the states
    /// and symbol names of one analyzed at its prefix base.
    #[test]
    fn any_first_symbol_assembles_like_the_prefix_base() {
        let mut b = FunctionBuilder::new("f", &[Ty::Ptr, Ty::Int], None);
        let p = b.param(0);
        let n = b.param(1);
        b.ptr_add(p, n);
        b.ret(None);
        let mut m = Module::new();
        let f0 = m.add_function(b.finish());
        let f1 = m.add_function(m.function(f0).clone());
        let part = |f, first| analyze_function_part(&m, f, first);
        let prefix = symbol_budget(&m, f0) as u32;
        let reference = LrAnalysis::from_parts(vec![part(f0, 0), part(f1, prefix)]);
        for first in [0, prefix, 7] {
            let assembled = LrAnalysis::from_parts(vec![part(f0, first), part(f1, first)]);
            assert!(assembled.symbols().iter().eq(reference.symbols().iter()));
            for f in m.func_ids() {
                assert_eq!(assembled.symbol_block(f), reference.symbol_block(f));
                for v in m.function(f).value_ids() {
                    let (a, b) = (assembled.raw_state(f, v), reference.raw_state(f, v));
                    assert_eq!(a, b, "{first} {f} {v}");
                }
            }
        }
    }
}
