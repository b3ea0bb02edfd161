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
use sra_symbolic::{
    ExprArena, ExprId, ImportMap, OverlayPart, RangeId, Symbol, SymbolNames, SymbolTable,
};

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
/// minted, in minting order. See [`sra_range::RangePart`] for the role
/// parts play in the pooled pipeline.
#[derive(Debug, Clone)]
pub struct LrPart {
    /// The part's private arena (shared by reference with an
    /// incremental session's cache).
    pub arena: Arc<ExprArena>,
    /// `LR(v)` for every value of the function.
    pub states: Arc<Vec<Option<LrState>>>,
    /// The `first_symbol` this part was analyzed with.
    pub first_symbol: u32,
    /// Names of the symbols minted, starting at `first_symbol` (shared,
    /// like the arena, so cloning a part copies no strings).
    pub symbol_names: Arc<[String]>,
}

impl LrPart {
    /// Rebases the part onto a new `first_symbol` (see
    /// [`sra_range::RangePart::rebase`] — same contract: an LR part
    /// mentions only its own symbol block, and the arena import under
    /// the monotone shift reproduces exactly what
    /// [`analyze_function_part`] would have minted at the new base).
    pub fn rebase(&mut self, new_first: u32) {
        if new_first == self.first_symbol {
            return;
        }
        let old = self.first_symbol;
        let budget = self.symbol_names.len() as u32;
        let rename = |s: Symbol| {
            debug_assert!(
                s.index() >= old && (s.index() - old) < budget,
                "LR parts only mention their own symbol block"
            );
            Symbol::new(s.index() - old + new_first)
        };
        let mut dst = ExprArena::new();
        let mut map = ImportMap::default();
        let states = self
            .states
            .iter()
            .map(|slot| {
                slot.as_ref().map(|s| LrState {
                    base: s.base,
                    range: dst.import_range(&self.arena, s.range, &rename, &mut map),
                    sigmas: s.sigmas.clone(),
                    block: s.block,
                })
            })
            .collect();
        self.arena = Arc::new(dst);
        self.states = Arc::new(states);
        self.first_symbol = new_first;
    }
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
    /// arena; see [`sra_range::RangeAnalysis::from_parts`] — the same
    /// structure-driven import makes the module arena (and every id)
    /// canonical in the analyzed states.
    ///
    /// # Panics
    ///
    /// Panics when the parts' symbol bases do not line up.
    pub fn from_parts(parts: Vec<LrPart>) -> Self {
        let mut symbols = SymbolTable::new();
        let mut arena = ExprArena::new();
        let mut states = Vec::with_capacity(parts.len());
        for part in parts {
            assert_eq!(
                part.first_symbol as usize,
                symbols.len(),
                "LR parts assembled out of order or with wrong bases"
            );
            for name in part.symbol_names.iter() {
                symbols.fresh(name);
            }
            let mut map = ImportMap::default();
            let func_states = part
                .states
                .iter()
                .map(|slot| {
                    slot.as_ref().map(|s| LrState {
                        base: s.base,
                        range: arena.import_range(&part.arena, s.range, &|s| s, &mut map),
                        sigmas: s.sigmas.clone(),
                        block: s.block,
                    })
                })
                .collect();
            arena.absorb_op_stats(&part.arena);
            states.push(func_states);
        }
        LrAnalysis {
            states,
            symbols,
            arena: Arc::new(arena),
        }
    }

    /// [`LrAnalysis::from_parts`] with the per-part imports fanned out
    /// on `pool` — same fixed-order overlay merge as
    /// [`sra_range::RangeAnalysis::from_parts_on`], and byte-identical
    /// to the serial walk for the same reason. A width-1 pool takes the
    /// serial path directly.
    pub fn from_parts_on(parts: Vec<LrPart>, pool: &WorkerPool) -> Self {
        if pool.threads() == 1 || parts.len() <= 1 {
            return Self::from_parts(parts);
        }
        let mut symbols = SymbolTable::new();
        for part in &parts {
            assert_eq!(
                part.first_symbol as usize,
                symbols.len(),
                "LR parts assembled out of order or with wrong bases"
            );
            for name in part.symbol_names.iter() {
                symbols.fresh(name);
            }
        }
        let empty = Arc::new(ExprArena::new());
        let imported: Vec<(Vec<Option<LrState>>, OverlayPart)> =
            pool.run_indexed(parts.len(), |i| {
                let part = &parts[i];
                let mut overlay = ExprArena::with_base(Arc::clone(&empty));
                let mut map = ImportMap::default();
                let func_states = part
                    .states
                    .iter()
                    .map(|slot| {
                        slot.as_ref().map(|s| LrState {
                            base: s.base,
                            range: overlay.import_range(&part.arena, s.range, &|s| s, &mut map),
                            sigmas: s.sigmas.clone(),
                            block: s.block,
                        })
                    })
                    .collect();
                (func_states, overlay.into_overlay_part())
            });
        let mut arena = ExprArena::new();
        let mut states = Vec::with_capacity(parts.len());
        for ((mut func_states, overlay), part) in imported.into_iter().zip(&parts) {
            let xl = arena.adopt(overlay);
            arena.absorb_op_stats(&part.arena);
            for slot in func_states.iter_mut().flatten() {
                slot.range = xl.range(slot.range);
            }
            states.push(func_states);
        }
        LrAnalysis {
            states,
            symbols,
            arena: Arc::new(arena),
        }
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
        arena: Arc::new(arena),
        states: Arc::new(states),
        first_symbol,
        symbol_names: minter.names.into(),
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

    /// Rebasing an LR part is byte-identical to re-analyzing at the new
    /// base, down to the module arena ids after assembly.
    #[test]
    fn rebase_equals_reanalysis() {
        let mut b = FunctionBuilder::new("f", &[Ty::Ptr, Ty::Int], None);
        let p = b.param(0);
        let n = b.param(1);
        let q = b.ptr_add(p, n);
        let _ = q;
        b.ret(None);
        let mut m = Module::new();
        let fid = m.add_function(b.finish());
        let mut part = analyze_function_part(&m, fid, 4);
        part.rebase(0);
        let fresh = analyze_function_part(&m, fid, 0);
        let via_rebase = LrAnalysis::from_parts(vec![part]);
        let via_fresh = LrAnalysis::from_parts(vec![fresh]);
        for v in m.function(fid).value_ids() {
            assert_eq!(
                via_rebase.raw_state(fid, v),
                via_fresh.raw_state(fid, v),
                "{v}"
            );
        }
    }
}
