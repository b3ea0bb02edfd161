//! The fixpoint solver for integer symbolic ranges.
//!
//! The solver operates entirely on interned handles
//! ([`RangeId`]/[`sra_symbolic::ExprId`]) in a per-part [`ExprArena`]: cloning a
//! state is a `Copy`, equality (the fixpoint's change detection) is an
//! integer compare, and every join/widen/meet/arithmetic step is
//! memoised. [`RangeAnalysis::from_parts`] then *imports* each part's
//! final ranges into one module arena — a structure-driven translation,
//! so the module arena (and therefore every module-level id) depends
//! only on the analyzed ranges, never on which thread produced which
//! part or what intermediate junk a part arena accumulated.

use std::ops::Range;
use std::sync::Arc;

use sra_ir::cfg::Cfg;
use sra_ir::{BinOp, Callee, CmpOp, FuncId, Function, Inst, Module, Ty, ValueId, ValueKind};
use sra_symbolic::pool::WorkerPool;
use sra_symbolic::{BoundId, ExprArena, ImportMap, RangeId, Symbol, SymbolTable};

/// Tuning knobs for [`RangeAnalysis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeConfig {
    /// Length of the descending sequence run after the widened fixpoint
    /// (the paper uses 2; see Figure 12).
    pub descending_steps: u32,
    /// Hard cap on ascending sweeps before forcing unstable values to
    /// `⊤` (a safety net; the widening discipline converges in a small
    /// constant number of sweeps on well-formed e-SSA).
    pub max_ascending_sweeps: u32,
    /// Bind the result of an integer load to a fresh kernel symbol
    /// instead of `⊤`. Off by default: a load executed repeatedly may
    /// observe different values, so a singleton symbol would be unsound.
    pub loads_as_symbols: bool,
}

impl Default for RangeConfig {
    fn default() -> Self {
        RangeConfig {
            descending_steps: 2,
            max_ascending_sweeps: 16,
            loads_as_symbols: false,
        }
    }
}

/// Ranges for the integer values of one function, as handles into the
/// owning [`RangeAnalysis`]'s module arena.
#[derive(Debug, Clone)]
pub struct FunctionRanges {
    ranges: Vec<RangeId>,
}

impl FunctionRanges {
    /// The range of `v`; values that are not integers (or unreachable)
    /// report `∅`.
    pub fn range(&self, v: ValueId) -> RangeId {
        self.ranges[v.index()]
    }

    /// Iterates over the ranges of all values.
    pub fn all_ranges(&self) -> impl ExactSizeIterator<Item = RangeId> + '_ {
        self.ranges.iter().copied()
    }
}

/// The per-function output of the bootstrap analysis: the final ranges
/// in the part's own arena, plus the kernel-symbol names the function
/// minted from `first_symbol`, in minting order.
///
/// Parts are transient: they let functions be analyzed on worker
/// threads, each into its own arena, and live only until an assembly
/// ([`RangeAnalysis::from_parts`], [`RangeAnalysis::assemble_on`])
/// imports them into the module arena. The import renames the part's
/// symbols onto the function's block there, so a part minted from any
/// `first_symbol` assembles to the same ids, and the result is
/// byte-identical to the serial one however the work was scheduled.
#[derive(Debug, Clone)]
pub struct RangePart {
    /// The part's private arena.
    pub arena: ExprArena,
    /// Ranges of the function's values, as ids into [`RangePart::arena`].
    pub ranges: Vec<RangeId>,
    /// The `first_symbol` this part was analyzed with.
    pub first_symbol: u32,
    /// Names of the symbols minted, starting at `first_symbol`.
    pub symbol_names: Vec<String>,
}

/// Where [`RangeAnalysis::assemble_on`] takes one function's ranges
/// from.
#[derive(Debug)]
pub enum RangeSource<'a> {
    /// A freshly analyzed part.
    Fresh(Box<RangePart>),
    /// A function of an earlier assembled analysis, carried over: its
    /// ranges are imported straight out of that analysis' module arena.
    Carried(&'a RangeAnalysis, FuncId),
}

impl RangeSource<'_> {
    /// The source arena, the function's ranges in it, the first symbol
    /// they mention and the names of the function's symbols.
    fn view(&self) -> (&ExprArena, &[RangeId], u32, &[String]) {
        match self {
            RangeSource::Fresh(p) => (&p.arena, &p.ranges, p.first_symbol, &p.symbol_names),
            RangeSource::Carried(from, f) => {
                let block = from.symbol_block(*f);
                let ranges = &from.per_func[f.index()].ranges;
                (&from.arena, ranges, block.start, from.symbols.names(block))
            }
        }
    }
}

/// Whole-module symbolic ranges of integer variables: the paper's
/// `R : V → S²`, with every range interned in one module arena.
#[derive(Debug, Clone)]
pub struct RangeAnalysis {
    per_func: Vec<FunctionRanges>,
    symbols: SymbolTable,
    /// Function `f`'s symbols are `bases[f]..bases[f + 1]`.
    bases: Vec<u32>,
    arena: Arc<ExprArena>,
}

impl RangeAnalysis {
    /// Analyzes every function of `m` with default configuration.
    pub fn analyze(m: &Module) -> Self {
        Self::analyze_with(m, RangeConfig::default())
    }

    /// Analyzes every function of `m`.
    pub fn analyze_with(m: &Module, config: RangeConfig) -> Self {
        let mut parts = Vec::with_capacity(m.num_functions());
        let mut base = 0u32;
        for f in m.func_ids() {
            let part = analyze_function_part(m.function(f), config, base);
            base += part.symbol_names.len() as u32;
            parts.push(part);
        }
        Self::from_parts(parts)
    }

    /// Reassembles a whole-module result from per-function parts, in
    /// function order, importing every part arena into one module
    /// arena. Each function's symbols get the next dense block, and the
    /// import renames a part's symbols `s ↦ s − first_symbol + base`
    /// onto it (the identity for parts analyzed at their prefix bases,
    /// as [`RangeAnalysis::analyze_with`] does). The serial reference
    /// for [`RangeAnalysis::assemble_on`].
    ///
    /// The import walks the final range *structures* in function/value
    /// order, so the module arena — and every [`RangeId`] this analysis
    /// hands out — is a pure function of the analyzed ranges:
    /// separately assembled but byte-identical analyses (serial vs
    /// batched, scratch vs incremental session) agree id-for-id.
    pub fn from_parts(parts: Vec<RangePart>) -> Self {
        let (symbols, bases) = SymbolTable::from_blocks(parts.iter().map(|p| &p.symbol_names[..]));
        let mut arena = ExprArena::new();
        let mut per_func = Vec::with_capacity(parts.len());
        for (part, &base) in parts.iter().zip(&bases) {
            let rename = |s: Symbol| Symbol::new(s.index() - part.first_symbol + base);
            let mut map = ImportMap::default();
            let ranges = part
                .ranges
                .iter()
                .map(|&r| arena.import_range(&part.arena, r, &rename, &mut map))
                .collect();
            arena.absorb_op_stats(&part.arena);
            per_func.push(FunctionRanges { ranges });
        }
        RangeAnalysis {
            per_func,
            symbols,
            bases,
            arena: Arc::new(arena),
        }
    }

    /// [`RangeAnalysis::assemble_on`] of fresh parts.
    pub fn from_parts_on(parts: Vec<RangePart>, pool: &WorkerPool) -> Self {
        let sources = parts.into_iter().map(|p| RangeSource::Fresh(Box::new(p)));
        Self::assemble_on(sources.collect(), pool)
    }

    /// Assembles a whole-module result from one source per function, in
    /// function order, with the per-function imports fanned out on
    /// `pool` ([`ExprArena::assemble_on`]). A fresh part is renamed as
    /// in [`RangeAnalysis::from_parts`]; a carried function's ranges
    /// are imported out of its analysis' module arena under
    /// `s ↦ s − old_base + base`. Both renamings are monotone and the
    /// import is structure-driven, so the result is byte-identical to
    /// `from_parts` over fresh parts of every function.
    pub fn assemble_on(sources: Vec<RangeSource<'_>>, pool: &WorkerPool) -> Self {
        let views: Vec<_> = sources.iter().map(RangeSource::view).collect();
        let (symbols, bases) = SymbolTable::from_blocks(views.iter().map(|v| v.3));
        let (mut arena, per_func) = ExprArena::assemble_on(
            views.len(),
            pool,
            |i, arena| {
                let (src, ranges, first, _) = views[i];
                let rename = |s: Symbol| Symbol::new(s.index() - first + bases[i]);
                let mut map = ImportMap::default();
                let ranges = ranges
                    .iter()
                    .map(|&r| arena.import_range(src, r, &rename, &mut map))
                    .collect();
                FunctionRanges { ranges }
            },
            |f, xl| f.ranges.iter_mut().for_each(|r| *r = xl.range(*r)),
        );
        for source in &sources {
            if let RangeSource::Fresh(part) = source {
                arena.absorb_op_stats(&part.arena);
            }
        }
        RangeAnalysis {
            per_func,
            symbols,
            bases,
            arena: Arc::new(arena),
        }
    }

    /// Rebuilds an assembled analysis from its module arena and, per
    /// function, its ranges and symbol names — a snapshot's contents,
    /// whose ids the decoder has validated against `arena`.
    pub fn from_raw(arena: ExprArena, per_func: Vec<(Vec<RangeId>, Vec<String>)>) -> Self {
        let (symbols, bases) = SymbolTable::from_blocks(per_func.iter().map(|f| &f.1[..]));
        RangeAnalysis {
            per_func: per_func
                .into_iter()
                .map(|(ranges, _)| FunctionRanges { ranges })
                .collect(),
            symbols,
            bases,
            arena: Arc::new(arena),
        }
    }

    /// The symbol ids of `f`'s kernel symbols: a dense block after the
    /// blocks of the functions before it.
    pub fn symbol_block(&self, f: FuncId) -> Range<u32> {
        self.bases[f.index()]..self.bases[f.index() + 1]
    }

    /// The function whose [`RangeAnalysis::symbol_block`] holds `s`.
    pub fn symbol_owner(&self, s: Symbol) -> Option<FuncId> {
        let f = self
            .bases
            .partition_point(|&b| b <= s.index())
            .checked_sub(1)?;
        (f < self.per_func.len() && s.index() < self.bases[f + 1]).then_some(FuncId::new(f))
    }

    /// Ranges of one function.
    pub fn function(&self, f: FuncId) -> &FunctionRanges {
        &self.per_func[f.index()]
    }

    /// Shorthand: the range of value `v` in function `f`.
    pub fn range(&self, f: FuncId, v: ValueId) -> RangeId {
        self.per_func[f.index()].range(v)
    }

    /// The module arena every [`RangeId`] of this analysis points into.
    pub fn arena(&self) -> &ExprArena {
        &self.arena
    }

    /// The module arena behind its shared handle (overlay bases for
    /// parallel consumers).
    pub fn arena_arc(&self) -> Arc<ExprArena> {
        Arc::clone(&self.arena)
    }

    /// The symbol table naming the symbolic kernel (for display).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Renders the range of `(f, v)` using this analysis' symbol names.
    pub fn display_range(&self, f: FuncId, v: ValueId) -> String {
        self.arena.display_range(self.range(f, v), &self.symbols)
    }
}

/// The number of kernel symbols [`analyze_function_part`] will mint for
/// `f` — one per integer parameter, call result, and (under
/// `loads_as_symbols`) load. Mirrors the solver's seeding exactly, so a
/// caller can assign each function a disjoint, dense symbol-id block
/// before dispatching work to threads.
pub fn symbol_budget(f: &Function, config: RangeConfig) -> usize {
    f.value_ids()
        .filter(|&v| {
            let data = f.value(v);
            data.ty() == Some(Ty::Int)
                && match data.kind() {
                    ValueKind::Param { .. } | ValueKind::Inst(Inst::Call { .. }) => true,
                    ValueKind::Inst(Inst::Load { .. }) => config.loads_as_symbols,
                    _ => false,
                }
        })
        .count()
}

/// Analyzes one function, minting kernel symbols `first_symbol,
/// first_symbol + 1, …` (exactly [`symbol_budget`] of them) and
/// interning every range into a fresh part arena. Pure and
/// thread-safe: the pooled pipeline runs one call per worker.
pub fn analyze_function_part(f: &Function, config: RangeConfig, first_symbol: u32) -> RangePart {
    let mut minter = Minter {
        base: first_symbol,
        names: Vec::new(),
    };
    let mut solver = Solver {
        f,
        cfg: Cfg::new(f),
        config,
        arena: ExprArena::new(),
        ranges: vec![ExprArena::EMPTY_RANGE; f.num_values()],
    };
    solver.seed(&mut minter);
    solver.run();
    debug_assert_eq!(
        minter.names.len(),
        symbol_budget(f, config),
        "symbol_budget must match what seeding mints"
    );
    RangePart {
        arena: solver.arena,
        ranges: solver.ranges,
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

struct Solver<'a> {
    f: &'a Function,
    cfg: Cfg,
    config: RangeConfig,
    arena: ExprArena,
    ranges: Vec<RangeId>,
}

impl Solver<'_> {
    fn singleton_symbol(&mut self, s: Symbol) -> RangeId {
        let e = self.arena.symbol(s);
        self.arena.range_singleton(e)
    }

    /// Assigns initial states: constants, parameters and other kernel
    /// sources get their exact (symbolic) singletons; everything else
    /// starts at `∅` and grows.
    fn seed(&mut self, symbols: &mut Minter) {
        for v in self.f.value_ids() {
            let data = self.f.value(v);
            if data.ty() != Some(Ty::Int) {
                continue;
            }
            match data.kind() {
                ValueKind::Const(c) => {
                    self.ranges[v.index()] = self.arena.range_constant(*c);
                }
                ValueKind::Param { index } => {
                    let name = match data.name() {
                        Some(n) => n.to_owned(),
                        None => format!("{}.arg{}", self.f.name(), index),
                    };
                    let s = symbols.fresh(&name);
                    self.ranges[v.index()] = self.singleton_symbol(s);
                }
                ValueKind::Inst(Inst::Call { callee, .. }) => {
                    // A call result is a kernel symbol: external library
                    // results by definition; internal calls because this
                    // bootstrap analysis is intraprocedural (§3.3 allows
                    // any implementation).
                    let name = match callee {
                        Callee::External(n) => format!("{}()", n),
                        Callee::Internal(_) => format!("{}.call{}", self.f.name(), v.index()),
                    };
                    let s = symbols.fresh(&name);
                    self.ranges[v.index()] = self.singleton_symbol(s);
                }
                ValueKind::Inst(Inst::Load { .. }) => {
                    if self.config.loads_as_symbols {
                        let s = symbols.fresh(&format!("{}.load{}", self.f.name(), v.index()));
                        self.ranges[v.index()] = self.singleton_symbol(s);
                    } else {
                        self.ranges[v.index()] = ExprArena::TOP_RANGE;
                    }
                }
                ValueKind::Inst(Inst::Cmp { .. }) => {
                    let zero = self.arena.constant(0);
                    let one = self.arena.constant(1);
                    self.ranges[v.index()] = self.arena.range_interval(zero, one);
                }
                _ => {}
            }
        }
    }

    fn run(&mut self) {
        // Ascending sweeps with widening at φ from the second sweep on.
        let mut sweeps = 0;
        loop {
            let widen = sweeps > 0;
            let changed = self.sweep(widen, false);
            sweeps += 1;
            if !changed {
                break;
            }
            if sweeps >= self.config.max_ascending_sweeps {
                // Safety net: force unstable φs to ⊤ and do a final sweep.
                self.force_top_phis();
                self.sweep(false, false);
                break;
            }
        }
        // Descending sequence of fixed length.
        for _ in 0..self.config.descending_steps {
            if !self.sweep(false, true) {
                break;
            }
        }
    }

    /// One pass over every instruction in reverse post-order. Returns
    /// whether any range changed (an id compare — interning makes the
    /// fixpoint's change detection `O(1)`).
    ///
    /// `widen`: apply `∇` at φ-functions. `descend`: recompute φs as the
    /// plain join of their arguments (narrowing by re-evaluation).
    fn sweep(&mut self, widen: bool, descend: bool) -> bool {
        let mut changed = false;
        let rpo: Vec<_> = self.cfg.rpo().to_vec();
        for b in rpo {
            let insts = self.f.block(b).insts().to_vec();
            for v in insts {
                let Some(inst) = self.f.value(v).as_inst() else {
                    continue;
                };
                if self.f.value(v).ty() != Some(Ty::Int) {
                    continue;
                }
                let new = match inst {
                    Inst::Phi { args, .. } => {
                        let mut acc = ExprArena::EMPTY_RANGE;
                        for (_, a) in args {
                            acc = self.arena.range_join(acc, self.ranges[a.index()]);
                        }
                        let old = self.ranges[v.index()];
                        if descend {
                            // Narrowing by re-evaluation: keep the meet
                            // with the widened state so we never go
                            // below a sound post-fixpoint.
                            acc
                        } else if widen {
                            let joined = self.arena.range_join(old, acc);
                            self.arena.range_widen(old, joined)
                        } else {
                            self.arena.range_join(old, acc)
                        }
                    }
                    Inst::IntBin { op, lhs, rhs } => {
                        let l = self.ranges[lhs.index()];
                        let r = self.ranges[rhs.index()];
                        match op {
                            BinOp::Add => self.arena.range_add(l, r),
                            BinOp::Sub => self.arena.range_sub(l, r),
                            BinOp::Mul => self.arena.range_mul(l, r),
                            BinOp::Div => self.arena.range_div(l, r),
                            BinOp::Rem => self.arena.range_rem(l, r),
                        }
                    }
                    Inst::Sigma { input, op, other } => {
                        // Pointer σs carry no integer information.
                        if self.f.value(*input).ty() != Some(Ty::Int) {
                            continue;
                        }
                        let base = self.ranges[input.index()];
                        self.apply_sigma(base, *op, *other)
                    }
                    // Seeded kinds (consts, params, calls, loads, cmps)
                    // are invariant.
                    _ => continue,
                };
                if new != self.ranges[v.index()] {
                    self.ranges[v.index()] = new;
                    changed = true;
                }
            }
        }
        changed
    }

    /// Refines `base` knowing `input ⟨op⟩ other` holds.
    fn apply_sigma(&mut self, base: RangeId, op: CmpOp, other: ValueId) -> RangeId {
        let other_r = self.ranges[other.index()];
        match op {
            CmpOp::Lt => match self.arena.range_hi(other_r) {
                Some(BoundId::Fin(u)) => {
                    let one = self.arena.constant(1);
                    let um1 = self.arena.sub(u, one);
                    self.arena.range_clamp_above(base, BoundId::Fin(um1))
                }
                _ => base,
            },
            CmpOp::Le => match self.arena.range_hi(other_r) {
                Some(hi) => self.arena.range_clamp_above(base, hi),
                None => base,
            },
            CmpOp::Gt => match self.arena.range_lo(other_r) {
                Some(BoundId::Fin(l)) => {
                    let one = self.arena.constant(1);
                    let lp1 = self.arena.add(l, one);
                    self.arena.range_clamp_below(base, BoundId::Fin(lp1))
                }
                _ => base,
            },
            CmpOp::Ge => match self.arena.range_lo(other_r) {
                Some(lo) => self.arena.range_clamp_below(base, lo),
                None => base,
            },
            CmpOp::Eq => self.arena.range_meet(base, other_r),
            CmpOp::Ne => base,
        }
    }

    fn force_top_phis(&mut self) {
        for v in self.f.value_ids() {
            if let Some(Inst::Phi { .. }) = self.f.value(v).as_inst() {
                if self.f.value(v).ty() == Some(Ty::Int) {
                    self.ranges[v.index()] = ExprArena::TOP_RANGE;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sra_ir::FunctionBuilder;
    use sra_symbolic::SymRange;

    /// Builds `for (i = start; i < n; i += step) body` and returns
    /// (module, fid, phi, sigma-in-body).
    fn counted_loop(start: i64, step: i64) -> (Module, FuncId, ValueId) {
        let mut b = FunctionBuilder::new("loop", &[Ty::Int], None);
        let n = b.param(0);
        b.set_name(n, "n");
        let head = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        let init = b.const_int(start);
        let entry = b.entry_block();
        b.jump(head);
        b.switch_to(head);
        let i = b.phi(Ty::Int, &[(entry, init)]);
        let c = b.cmp(CmpOp::Lt, i, n);
        b.br(c, body, exit);
        b.switch_to(body);
        let s = b.const_int(step);
        let i2 = b.binop(BinOp::Add, i, s);
        b.add_phi_arg(i, body, i2);
        b.jump(head);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        sra_ir::essa::run(&mut f);
        let mut m = Module::new();
        let fid = m.add_function(f);
        (m, fid, i)
    }

    fn show(ra: &RangeAnalysis, fid: FuncId, v: ValueId) -> String {
        ra.display_range(fid, v)
    }

    #[test]
    fn loop_counter_is_bounded() {
        let (m, fid, phi) = counted_loop(0, 1);
        let ra = RangeAnalysis::analyze(&m);
        // After widening + descending: i ∈ [0, n] at the φ (it can reach
        // n before exiting), and the σ in the body is [0, n-1].
        let phi_range = show(&ra, fid, phi);
        assert_eq!(phi_range, "[0, max(0, n)]", "φ range");
        let f = m.function(fid);
        let sigma_range = f
            .value_ids()
            .find_map(|v| match f.value(v).as_inst() {
                Some(Inst::Sigma {
                    input,
                    op: CmpOp::Lt,
                    ..
                }) if *input == phi => Some(show(&ra, fid, v)),
                _ => None,
            })
            .expect("σ for i < n exists");
        assert_eq!(sigma_range, "[0, n - 1]", "σ range");
    }

    #[test]
    fn step_two_keeps_lower_bound() {
        let (m, fid, phi) = counted_loop(0, 2);
        let ra = RangeAnalysis::analyze(&m);
        // i grows by 2: it can overshoot the bound by 1.
        assert_eq!(show(&ra, fid, phi), "[0, max(0, n + 1)]");
    }

    #[test]
    fn constants_and_arithmetic() {
        let mut b = FunctionBuilder::new("f", &[Ty::Int], None);
        let n = b.param(0);
        b.set_name(n, "n");
        let two = b.const_int(2);
        let twice = b.binop(BinOp::Mul, n, two);
        let five = b.const_int(5);
        let shifted = b.binop(BinOp::Add, twice, five);
        b.ret(None);
        let f = b.finish();
        let mut m = Module::new();
        let fid = m.add_function(f);
        let ra = RangeAnalysis::analyze(&m);
        assert_eq!(show(&ra, fid, twice), "[2*n, 2*n]");
        assert_eq!(show(&ra, fid, shifted), "[2*n + 5, 2*n + 5]");
    }

    #[test]
    fn cmp_is_boolean() {
        let mut b = FunctionBuilder::new("f", &[Ty::Int], None);
        let n = b.param(0);
        let z = b.const_int(0);
        let c = b.cmp(CmpOp::Lt, n, z);
        b.ret(None);
        let f = b.finish();
        let mut m = Module::new();
        let fid = m.add_function(f);
        let ra = RangeAnalysis::analyze(&m);
        assert_eq!(
            ra.arena().range_value(ra.range(fid, c)),
            SymRange::interval(0.into(), 1.into())
        );
    }

    #[test]
    fn external_call_is_symbol() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let len = b.call(Callee::External("strlen".into()), &[], Some(Ty::Int));
        let one = b.const_int(1);
        let more = b.binop(BinOp::Add, len, one);
        b.ret(None);
        let f = b.finish();
        let mut m = Module::new();
        let fid = m.add_function(f);
        let ra = RangeAnalysis::analyze(&m);
        assert_eq!(show(&ra, fid, len), "[strlen(), strlen()]");
        assert_eq!(show(&ra, fid, more), "[strlen() + 1, strlen() + 1]");
    }

    #[test]
    fn loads_default_to_top() {
        let mut b = FunctionBuilder::new("f", &[Ty::Ptr], None);
        let p = b.param(0);
        let x = b.load(p, Ty::Int);
        b.ret(None);
        let f = b.finish();
        let mut m = Module::new();
        let fid = m.add_function(f);
        let ra = RangeAnalysis::analyze(&m);
        assert!(ra.arena().range_is_top(ra.range(fid, x)));
        let ra = RangeAnalysis::analyze_with(
            &m,
            RangeConfig {
                loads_as_symbols: true,
                ..RangeConfig::default()
            },
        );
        assert!(!ra.arena().range_is_top(ra.range(fid, x)));
    }

    #[test]
    fn else_branch_gets_negated_constraint() {
        // if (x < 0) {} else { use x }  →  x ≥ 0 in the else arm.
        let mut b = FunctionBuilder::new("f", &[Ty::Int], None);
        let x = b.param(0);
        b.set_name(x, "x");
        let t = b.create_block();
        let e = b.create_block();
        let z = b.const_int(0);
        let c = b.cmp(CmpOp::Lt, x, z);
        b.br(c, t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        let mut f = b.finish();
        sra_ir::essa::run(&mut f);
        let mut m = Module::new();
        let fid = m.add_function(f);
        let ra = RangeAnalysis::analyze(&m);
        let f = m.function(fid);
        let mut found_pos = false;
        let mut found_neg = false;
        for v in f.value_ids() {
            if let Some(Inst::Sigma { input, op, .. }) = f.value(v).as_inst() {
                if *input == x {
                    match op {
                        CmpOp::Ge => {
                            assert_eq!(show(&ra, fid, v), "[max(0, x), x]");
                            found_neg = true;
                        }
                        CmpOp::Lt => {
                            assert_eq!(show(&ra, fid, v), "[x, min(-1, x)]");
                            found_pos = true;
                        }
                        _ => {}
                    }
                }
            }
        }
        assert!(found_pos && found_neg, "both σs analyzed");
    }

    #[test]
    fn nested_loop_converges() {
        // Two nested counted loops; the analysis must converge quickly
        // and keep the outer induction variable bounded.
        let mut b = FunctionBuilder::new("f", &[Ty::Int, Ty::Int], None);
        let n = b.param(0);
        b.set_name(n, "n");
        let mm = b.param(1);
        b.set_name(mm, "m");
        let oh = b.create_block();
        let ob = b.create_block();
        let ih = b.create_block();
        let ib = b.create_block();
        let ie = b.create_block();
        let oe = b.create_block();
        let z = b.const_int(0);
        let entry = b.entry_block();
        b.jump(oh);
        b.switch_to(oh);
        let i = b.phi(Ty::Int, &[(entry, z)]);
        let c = b.cmp(CmpOp::Lt, i, n);
        b.br(c, ob, oe);
        b.switch_to(ob);
        b.jump(ih);
        b.switch_to(ih);
        let j = b.phi(Ty::Int, &[(ob, z)]);
        let c2 = b.cmp(CmpOp::Lt, j, mm);
        b.br(c2, ib, ie);
        b.switch_to(ib);
        let one = b.const_int(1);
        let j2 = b.binop(BinOp::Add, j, one);
        b.add_phi_arg(j, ib, j2);
        b.jump(ih);
        b.switch_to(ie);
        let one = b.const_int(1);
        let i2 = b.binop(BinOp::Add, i, one);
        b.add_phi_arg(i, ie, i2);
        b.jump(oh);
        b.switch_to(oe);
        b.ret(None);
        let mut f = b.finish();
        sra_ir::essa::run(&mut f);
        sra_ir::verify::verify_function(&f, None).expect("verified");
        let mut m = Module::new();
        let fid = m.add_function(f);
        let ra = RangeAnalysis::analyze(&m);
        assert_eq!(show(&ra, fid, i), "[0, max(0, n)]");
        assert_eq!(show(&ra, fid, j), "[0, max(0, m)]");
    }

    /// A part analyzed at any `first_symbol` assembles to the ids and
    /// symbol names of one analyzed at its prefix base: the assembly's
    /// monotone renaming commutes with the analysis.
    #[test]
    fn any_first_symbol_assembles_like_the_prefix_base() {
        let (mut m, f0, _) = counted_loop(0, 1);
        let f1 = m.add_function(m.function(f0).clone());
        let part = |f, first| analyze_function_part(m.function(f), RangeConfig::default(), first);
        let reference = RangeAnalysis::from_parts(vec![part(f0, 0), part(f1, 1)]);
        for first in [0, 1, 7] {
            let assembled = RangeAnalysis::from_parts(vec![part(f0, first), part(f1, first)]);
            assert!(assembled.symbols().iter().eq(reference.symbols().iter()));
            for f in m.func_ids() {
                assert_eq!(assembled.symbol_block(f), reference.symbol_block(f));
                for v in m.function(f).value_ids() {
                    assert_eq!(
                        assembled.range(f, v),
                        reference.range(f, v),
                        "{first} {f} {v}"
                    );
                }
            }
        }
        assert_eq!(reference.symbol_owner(Symbol::new(1)), Some(f1));
        assert_eq!(reference.symbol_owner(Symbol::new(2)), None);
    }
}
