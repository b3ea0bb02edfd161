//! The global pointer range analysis `GR` (paper §3.4).
//!
//! A whole-program abstract interpretation over
//! [`PtrState`](crate::PtrState), implementing the constraint rules of
//! Figure 9:
//!
//! * `p = malloc v` binds `p` to `{loc_p + [0,0]}`;
//! * `p = free v` binds `p` to ⊥;
//! * `q = p + c` shifts every component by `R(c)` (the bootstrap
//!   integer range analysis);
//! * `q = φ(p₁, p₂)` joins (and is the widening point);
//! * σ-nodes meet per-location against the other pointer's bounds;
//! * `q = *p` is ⊤ (the paper deliberately does not track pointers
//!   through memory);
//! * stores are ignored.
//!
//! Interprocedurality is context-insensitive (§3.1): each formal
//! parameter behaves as a φ over the actuals at every call site, and a
//! call's result joins the callee's return states. Exported functions
//! additionally seed pointer formals with an `Unknown` location of their
//! own, since callers outside the module may pass anything.
//!
//! # States are interned
//!
//! Every offset range of every state is a [`sra_symbolic::RangeId`] into the solver's
//! arena (seeded from the bootstrap analysis' module arena, so `R(c)`
//! handles stay valid), which turns the fixpoint's dominating costs —
//! state equality in `update`, widening's bound-stability test, and the
//! provable-inclusion fast path — into integer compares and memo hits.
//! After the fixpoint, [`GrAnalysis`] re-interns the final states into
//! a fresh *canonical* arena (a structure-driven import in function/
//! value order), so the ids an analysis hands out depend only on the
//! final states — serial, waves and incremental-session assemblies
//! agree id-for-id.
//!
//! # Scheduling
//!
//! The solver is a Gauss–Seidel fixpoint over the whole module. Its
//! sweep order — which is *spec*, because widening makes the computed
//! fixpoint order-sensitive — follows the SCC condensation of the call
//! graph ([`sra_ir::callgraph::Condensation`]): levels of the
//! condensation DAG, SCCs within a level in id order, member functions
//! of an SCC in id order, one pass per function per global sweep.
//! Sweep direction alternates: even sweeps walk the levels bottom-up
//! (so callee *return* states reach every caller within one sweep),
//! odd sweeps top-down (so caller *actuals* reach every formal within
//! one sweep). A call DAG of any depth therefore converges in O(1)
//! sweeps, where any fixed one-directional order — including the old
//! flat function-id order — needed a number of sweeps proportional to
//! the chain depth and could trip the ascending cap on nothing more
//! than a deep chain of calls.
//!
//! Two SCCs on the same condensation level share no call edge in either
//! direction, so they exchange no dataflow within a sweep. That is the
//! parallelism [`GrSchedule::Waves`] exploits: each level's SCCs are
//! analysed concurrently on the [`crate::pool`] thread pool — each task
//! interning into a private *overlay* over the frozen solver arena —
//! and after the level the overlays are merged back in SCC order
//! ([`sra_symbolic::ExprArena::adopt`]), so the result is
//! **byte-identical** to [`GrSchedule::Serial`] — the same determinism
//! contract the batch driver established for the per-function phases.
//! The `gr_schedule_equivalence` property suite pins the contract.

use std::sync::Arc;

use sra_ir::callgraph::{CallGraph, Condensation};
use sra_ir::cfg::Cfg;
use sra_ir::{Callee, CmpOp, FuncId, Inst, Module, Terminator, Ty, ValueId, ValueKind};
use sra_range::RangeAnalysis;
use sra_symbolic::{BoundId, ExprArena, ImportMap, OverlayPart, OverlayXlate, Symbol};

use crate::locs::LocTable;
use crate::pool;
use crate::state::{PtrState, PtrStateRef};

/// How the module-level Gauss–Seidel sweeps are executed.
///
/// Both schedules visit functions in the *same* order (the bottom-up
/// SCC condensation of the call graph) and produce byte-identical
/// states; `Waves` additionally runs the mutually independent SCCs of
/// each condensation level concurrently. A module that is one big
/// recursive SCC collapses `Waves` back to effectively-serial
/// execution — the schedule can only parallelise what recursion has
/// not fused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrSchedule {
    /// Level by level on the calling thread.
    Serial,
    /// Same order and results; same-level SCCs fan out on the pool
    /// with [`GrConfig::threads`] workers.
    Waves,
}

/// Tuning knobs for [`GrAnalysis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrConfig {
    /// Length of the descending sequence (paper: 2).
    pub descending_steps: u32,
    /// Safety cap on ascending sweeps before unstable join points are
    /// forced to ⊤.
    pub max_ascending_sweeps: u32,
    /// Apply widening at φ/formal/call-result join points (the paper's
    /// cut set). Disabling this is only useful for ablation studies on
    /// acyclic programs.
    pub widening: bool,
    /// How to execute the sweeps (results are identical either way).
    pub schedule: GrSchedule,
    /// Worker threads for [`GrSchedule::Waves`] (`1` runs inline; the
    /// batch driver overrides this with its own worker count).
    pub threads: usize,
}

impl Default for GrConfig {
    fn default() -> Self {
        GrConfig {
            descending_steps: 2,
            max_ascending_sweeps: 32,
            widening: true,
            schedule: GrSchedule::Waves,
            threads: pool::default_threads(),
        }
    }
}

/// Results of the global analysis: `GR(p)` for every pointer `p`, with
/// every offset range interned in one canonical arena.
///
/// Per-function state vectors sit behind [`Arc`]s so an incremental
/// session can share the untouched functions' fixpoints between
/// successive analyses without copying them.
#[derive(Debug, Clone)]
pub struct GrAnalysis {
    locs: LocTable,
    states: Vec<Arc<Vec<PtrState>>>,
    arena: Arc<ExprArena>,
    ascending_sweeps: u32,
}

impl GrAnalysis {
    /// Runs the analysis with default configuration.
    pub fn analyze(m: &Module, ranges: &RangeAnalysis) -> Self {
        Self::analyze_with(m, ranges, GrConfig::default())
    }

    /// Runs the analysis on a one-shot pool of exactly
    /// [`GrConfig::threads`] width (so explicit thread counts exercise
    /// the wave schedule even on smaller machines). Long-lived callers
    /// should hold a [`pool::WorkerPool`] and use [`GrAnalysis::analyze_on`].
    pub fn analyze_with(m: &Module, ranges: &RangeAnalysis, config: GrConfig) -> Self {
        Self::analyze_on(m, ranges, config, &pool::WorkerPool::forced(config.threads))
    }

    /// Runs the analysis with every parallel phase — the wave levels
    /// and the final canonical re-interning — dispatched on `pool`.
    pub fn analyze_on(
        m: &Module,
        ranges: &RangeAnalysis,
        config: GrConfig,
        pool: &pool::WorkerPool,
    ) -> Self {
        let locs = LocTable::build(m);
        let graph = CallGraph::build(m);
        let components = graph.weak_components();
        let callers = build_callers(m);
        let cfgs = build_cfgs(m);
        let (states, solver_arena, ascending_sweeps) = {
            let mut solver = GrSolver::new(
                m,
                ranges,
                &locs,
                config,
                &callers,
                &cfgs,
                Condensation::build(&graph),
                pool,
            );
            solver.run(&components);
            (solver.states, solver.arena, solver.sweeps)
        };
        let (states, arena) = canonicalize_states_on(states, &solver_arena, pool);
        GrAnalysis {
            locs,
            states,
            arena,
            ascending_sweeps,
        }
    }

    /// Assembles a result from already-solved pieces (the incremental
    /// session recomputes only the dirty weak components, importing
    /// clean components' cached states into the fresh canonical
    /// `arena`).
    pub(crate) fn from_raw(
        locs: LocTable,
        states: Vec<Arc<Vec<PtrState>>>,
        arena: Arc<ExprArena>,
        ascending_sweeps: u32,
    ) -> Self {
        GrAnalysis {
            locs,
            states,
            arena,
            ascending_sweeps,
        }
    }

    /// The shared state vector of one function (for the session's
    /// carry-over of untouched components).
    pub(crate) fn function_states(&self, f: FuncId) -> &Arc<Vec<PtrState>> {
        &self.states[f.index()]
    }

    /// Raw access to a stored state (crate-internal fast paths that
    /// manage the arena themselves).
    pub(crate) fn raw_state(&self, f: FuncId, v: ValueId) -> &PtrState {
        &self.states[f.index()][v.index()]
    }

    /// The abstract state of value `v` in function `f` (⊥ for
    /// non-pointer values), bundled with the arena its offset ranges
    /// point into.
    pub fn state(&self, f: FuncId, v: ValueId) -> PtrStateRef<'_> {
        PtrStateRef::new(&self.states[f.index()][v.index()], &self.arena)
    }

    /// The canonical arena every state's range handles point into.
    pub fn arena(&self) -> &ExprArena {
        &self.arena
    }

    /// The canonical arena behind its shared handle (overlay bases for
    /// parallel consumers such as the matrix builds).
    pub fn arena_arc(&self) -> Arc<ExprArena> {
        Arc::clone(&self.arena)
    }

    /// The allocation-site table the states refer to.
    pub fn locs(&self) -> &LocTable {
        &self.locs
    }

    /// How many ascending sweeps the fixpoint took — a schedule-quality
    /// diagnostic: with the condensation order, deep call *chains*
    /// converge in O(1) sweeps instead of O(depth).
    pub fn ascending_sweeps(&self) -> u32 {
        self.ascending_sweeps
    }
}

/// Imports one state into `dst`, translating every range handle (the
/// canonical re-interning after a solve, and the session's clean-
/// component carry-over — there with a symbol renaming and a location
/// remap on the keys).
pub(crate) fn import_ptr_state(
    dst: &mut ExprArena,
    src: &ExprArena,
    s: &PtrState,
    rename: &impl Fn(Symbol) -> Symbol,
    map: &mut ImportMap,
) -> PtrState {
    match s {
        PtrState::Top => PtrState::Top,
        PtrState::Map(m) => PtrState::Map(
            m.iter()
                .map(|(loc, &r)| (*loc, dst.import_range(src, r, rename, map)))
                .collect(),
        ),
    }
}

/// Re-interns final solver states into a fresh canonical arena, in
/// function/value order. The import is structure-driven, so the
/// canonical arena — and every id — is a pure function of the final
/// states: serial and wave solves (whose *solver* arenas differ in
/// insertion order) land on identical canonical ids.
fn canonicalize_states(
    states: Vec<Vec<PtrState>>,
    solver_arena: &ExprArena,
) -> (Vec<Arc<Vec<PtrState>>>, Arc<ExprArena>) {
    let mut arena = ExprArena::new();
    let mut map = ImportMap::default();
    let out = states
        .into_iter()
        .map(|func| {
            Arc::new(
                func.iter()
                    .map(|s| import_ptr_state(&mut arena, solver_arena, s, &|s| s, &mut map))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    arena.absorb_op_stats(solver_arena);
    (out, Arc::new(arena))
}

/// [`canonicalize_states`] with the per-function imports fanned out on
/// `pool`: each function's states re-intern into a private overlay over
/// a shared frozen empty arena, and the overlays merge into the
/// canonical arena in function order.
///
/// Byte-identical to the serial walk — the same fixed-order
/// overlay-adopt argument as
/// [`sra_range::RangeAnalysis::from_parts_on`]: each overlay records
/// its function's structures in the serial import's first-encounter
/// order, and the in-order adopt dedups nodes already contributed by
/// earlier functions while appending new ones in overlay order. A
/// width-1 pool takes the serial path directly (the fan-out re-imports
/// shared structures once per function, which only pays off with real
/// parallelism).
fn canonicalize_states_on(
    states: Vec<Vec<PtrState>>,
    solver_arena: &ExprArena,
    pool: &pool::WorkerPool,
) -> (Vec<Arc<Vec<PtrState>>>, Arc<ExprArena>) {
    if pool.threads() == 1 || states.len() <= 1 {
        return canonicalize_states(states, solver_arena);
    }
    let empty = Arc::new(ExprArena::new());
    let imported: Vec<(Vec<PtrState>, OverlayPart)> = pool.run_map(states, |func| {
        let mut overlay = ExprArena::with_base(Arc::clone(&empty));
        let mut map = ImportMap::default();
        let func = func
            .iter()
            .map(|s| import_ptr_state(&mut overlay, solver_arena, s, &|s| s, &mut map))
            .collect();
        (func, overlay.into_overlay_part())
    });
    let mut arena = ExprArena::new();
    let out = imported
        .into_iter()
        .map(|(mut func, overlay)| {
            let xl = arena.adopt(overlay);
            for s in &mut func {
                remap_state(s, &xl);
            }
            Arc::new(func)
        })
        .collect();
    arena.absorb_op_stats(solver_arena);
    (out, Arc::new(arena))
}

/// A call site: caller and actual arguments.
pub(crate) struct CallSite {
    pub(crate) caller: FuncId,
    pub(crate) args: Vec<ValueId>,
    /// Whether the call's result is a pointer, i.e. whether the caller
    /// joins the callee's return state.
    pub(crate) ptr_result: bool,
}

/// The call sites targeting each function, callers in id order, sites
/// in instruction order — the join order the Gauss–Seidel formal-
/// parameter updates see, which is therefore part of the reproducible
/// schedule.
pub(crate) fn build_callers(m: &Module) -> Vec<Vec<CallSite>> {
    let nf = m.num_functions();
    let mut callers: Vec<Vec<CallSite>> = (0..nf).map(|_| Vec::new()).collect();
    for fid in m.func_ids() {
        let f = m.function(fid);
        for (_, v) in f.insts() {
            if let Some(Inst::Call {
                callee: Callee::Internal(target),
                args,
                ..
            }) = f.value(v).as_inst()
            {
                if target.index() < nf {
                    callers[target.index()].push(CallSite {
                        caller: fid,
                        args: args.clone(),
                        ptr_result: f.value(v).ty() == Some(Ty::Ptr),
                    });
                }
            }
        }
    }
    callers
}

/// One CFG per function (reverse post-orders drive the sweeps; the
/// session caches these across edits).
pub(crate) fn build_cfgs(m: &Module) -> Vec<Cfg> {
    m.func_ids().map(|f| Cfg::new(m.function(f))).collect()
}

/// Whether `f` has a pointer formal, i.e. whether its visit joins its
/// callers' actuals.
pub(crate) fn has_ptr_formal(m: &Module, f: FuncId) -> bool {
    m.function(f).param_tys().contains(&Ty::Ptr)
}

/// The "reads" relation of the sweep: `h` reads `g` when a visit of
/// `h` joins one of `g`'s states — `g` passes an actual to a pointer
/// formal of `h`, or a pointer call result in `h` joins `g`'s return.
/// Both directions, each list sorted and duplicate-free.
pub(crate) struct Reads {
    reads: Vec<Vec<FuncId>>,
    read_by: Vec<Vec<FuncId>>,
}

impl Reads {
    pub(crate) fn build(m: &Module, callers: &[Vec<CallSite>]) -> Self {
        let nf = m.num_functions();
        let mut reads: Vec<Vec<FuncId>> = vec![Vec::new(); nf];
        let mut read_by: Vec<Vec<FuncId>> = vec![Vec::new(); nf];
        for (g, sites) in callers.iter().enumerate() {
            let g = FuncId::new(g);
            let formal = has_ptr_formal(m, g);
            for site in sites {
                if formal {
                    reads[g.index()].push(site.caller);
                    read_by[site.caller.index()].push(g);
                }
                if site.ptr_result {
                    reads[site.caller.index()].push(g);
                    read_by[g.index()].push(site.caller);
                }
            }
        }
        for list in reads.iter_mut().chain(read_by.iter_mut()) {
            list.sort_unstable();
            list.dedup();
        }
        Reads { reads, read_by }
    }

    /// The functions whose visits read `g`'s states.
    pub(crate) fn readers(&self, g: FuncId) -> &[FuncId] {
        &self.read_by[g.index()]
    }

    /// The edit's slice (see [`GrSolver`]'s docs): `D` is `seeds`
    /// closed under "is read by"; the result marks `R`, which is `D`
    /// closed under "reads" and under SCC membership (so `R`'s SCCs are
    /// whole and its schedule is the condensation's, restricted).
    pub(crate) fn slice(&self, cond: &Condensation, seeds: &[FuncId]) -> Vec<bool> {
        let mut in_d = vec![false; self.reads.len()];
        let mut work: Vec<FuncId> = Vec::new();
        for &f in seeds {
            if !std::mem::replace(&mut in_d[f.index()], true) {
                work.push(f);
            }
        }
        while let Some(g) = work.pop() {
            for &h in self.readers(g) {
                if !std::mem::replace(&mut in_d[h.index()], true) {
                    work.push(h);
                }
            }
        }
        let mut in_r = in_d;
        work.extend(
            in_r.iter()
                .enumerate()
                .filter(|(_, &d)| d)
                .map(|(f, _)| FuncId::new(f)),
        );
        while let Some(h) = work.pop() {
            let mates = cond.members(cond.scc_of(h));
            for &g in self.reads[h.index()].iter().chain(mates) {
                if !std::mem::replace(&mut in_r[g.index()], true) {
                    work.push(g);
                }
            }
        }
        in_r
    }
}

/// The widening cut set (the paper's Definition 4 join points): every
/// abstract-state join where recursive dataflow can re-enter — φ-nodes,
/// formal parameters (joins over call-site actuals) and internal-call
/// results (joins over callee returns).
///
/// `force_top_join_points` and the widened updates in `sweep_function`
/// must agree on this set: a capped ascending sequence forces exactly
/// these points to ⊤ and then relies on one more sweep re-deriving all
/// *other* values from them, so a join point missing here would keep a
/// stale, unsound state after the cap trips.
fn is_widen_point(kind: &ValueKind) -> bool {
    matches!(
        kind,
        ValueKind::Param { .. }
            | ValueKind::Inst(Inst::Phi { .. })
            | ValueKind::Inst(Inst::Call {
                callee: Callee::Internal(_),
                ..
            })
    )
}

/// Read/write access to the per-function pointer states during a
/// sweep. The serial schedule mutates the solver's arrays in place;
/// the wave schedule gives each SCC ownership of its members' states
/// over a read-only snapshot of everything else. (The arena travels
/// *beside* the store — the serial path lends the solver arena, a wave
/// task lends its private overlay.)
trait GrStore {
    fn state(&self, f: FuncId, v: ValueId) -> &PtrState;
    fn ret_state(&self, f: FuncId) -> &PtrState;
    fn set_state(&mut self, f: FuncId, v: ValueId, s: PtrState);
    fn set_ret_state(&mut self, f: FuncId, s: PtrState);
}

/// Direct, whole-module access (the serial schedule).
struct DirectStore<'a> {
    states: &'a mut [Vec<PtrState>],
    rets: &'a mut [PtrState],
}

impl GrStore for DirectStore<'_> {
    fn state(&self, f: FuncId, v: ValueId) -> &PtrState {
        &self.states[f.index()][v.index()]
    }

    fn ret_state(&self, f: FuncId) -> &PtrState {
        &self.rets[f.index()]
    }

    fn set_state(&mut self, f: FuncId, v: ValueId, s: PtrState) {
        self.states[f.index()][v.index()] = s;
    }

    fn set_ret_state(&mut self, f: FuncId, s: PtrState) {
        self.rets[f.index()] = s;
    }
}

/// One SCC's working set during a wave: owned state vectors for the
/// member functions (taken from the solver, mutated freely, written
/// back after the level completes) over a shared snapshot of every
/// other function's states. Cross-SCC *reads* only ever reach
/// functions of earlier (already written-back) or later (not yet
/// touched) levels — same-level SCCs are never call-adjacent.
struct SccStore<'a> {
    /// Member functions, ascending.
    members: &'a [FuncId],
    local_states: Vec<Vec<PtrState>>,
    local_rets: Vec<PtrState>,
    global_states: &'a [Vec<PtrState>],
    global_rets: &'a [PtrState],
}

impl SccStore<'_> {
    fn member_pos(&self, f: FuncId) -> Option<usize> {
        self.members.binary_search(&f).ok()
    }
}

impl GrStore for SccStore<'_> {
    fn state(&self, f: FuncId, v: ValueId) -> &PtrState {
        match self.member_pos(f) {
            Some(k) => &self.local_states[k][v.index()],
            None => &self.global_states[f.index()][v.index()],
        }
    }

    fn ret_state(&self, f: FuncId) -> &PtrState {
        match self.member_pos(f) {
            Some(k) => &self.local_rets[k],
            None => &self.global_rets[f.index()],
        }
    }

    fn set_state(&mut self, f: FuncId, v: ValueId, s: PtrState) {
        let k = self.member_pos(f).expect("writes stay within the SCC");
        self.local_states[k][v.index()] = s;
    }

    fn set_ret_state(&mut self, f: FuncId, s: PtrState) {
        let k = self.member_pos(f).expect("writes stay within the SCC");
        self.local_rets[k] = s;
    }
}

/// Writes `new` into the state of `(fid, v)`, applying widening or
/// descending discipline; returns whether the state changed.
fn update<S: GrStore>(
    store: &mut S,
    arena: &mut ExprArena,
    fid: FuncId,
    v: ValueId,
    new: PtrState,
    widen: bool,
    descend: bool,
) -> bool {
    let next = {
        let slot = store.state(fid, v);
        // Fast path for the (dominant) already-stable case: when `new`
        // is *provably* included in the stored state, `join` returns
        // the stored bounds verbatim (`bound_min`/`max` hand back the
        // provably-winning expression) and widening equal states is the
        // identity, so the slow path below could only confirm
        // "unchanged" after allocating two throwaway states. With
        // interned states the inclusion test itself is all memo hits.
        // Not taken for descending sweeps, which deliberately shrink
        // states.
        if !descend && new.le(slot, arena) {
            debug_assert!(
                {
                    let joined = slot.join(&new, arena);
                    let next = if widen {
                        slot.widen(&joined, arena)
                    } else {
                        joined
                    };
                    next == *store.state(fid, v)
                },
                "provable inclusion must leave the state byte-unchanged"
            );
            return false;
        }
        let slot = store.state(fid, v);
        let next = if descend {
            new
        } else if widen {
            let joined = slot.join(&new, arena);
            store.state(fid, v).widen(&joined, arena)
        } else {
            slot.join(&new, arena)
        };
        if next == *store.state(fid, v) {
            return false;
        }
        next
    };
    store.set_state(fid, v, next);
    true
}

/// The immutable context of a sweep: everything `sweep_function` needs
/// besides the states themselves, so the wave schedule can share it
/// across worker threads (and the session across edits).
pub(crate) struct SweepCtx<'a> {
    pub(crate) m: &'a Module,
    pub(crate) ranges: &'a RangeAnalysis,
    pub(crate) locs: &'a LocTable,
    /// Call sites targeting each function.
    pub(crate) callers: &'a [Vec<CallSite>],
    pub(crate) cfgs: &'a [Cfg],
}

impl SweepCtx<'_> {
    /// One Gauss–Seidel pass over `fid`: formals, then the reachable
    /// blocks in reverse post-order, then the function's return state.
    /// `arena` is the store's companion allocator (solver arena or a
    /// wave task's overlay).
    fn sweep_function<S: GrStore>(
        &self,
        store: &mut S,
        arena: &mut ExprArena,
        fid: FuncId,
        widen: bool,
        descend: bool,
    ) -> bool {
        let f = self.m.function(fid);
        let mut changed = false;

        // Formal parameters: φ over actuals (+Unknown seed when exported).
        for (index, &p) in f.params().iter().enumerate() {
            if f.value(p).ty() != Some(Ty::Ptr) {
                continue;
            }
            let mut acc = match self.locs.loc_of_value(fid, p) {
                Some(unknown_loc) => {
                    let zero = arena.range_constant(0);
                    PtrState::singleton(unknown_loc, zero)
                }
                None => PtrState::bottom(),
            };
            for site in &self.callers[fid.index()] {
                // Arity mismatches only exist in unverified modules;
                // treat a missing actual as contributing ⊥ rather than
                // panicking.
                let Some(&actual) = site.args.get(index) else {
                    continue;
                };
                acc = acc.join(store.state(site.caller, actual), arena);
            }
            changed |= update(store, arena, fid, p, acc, widen, descend);
        }

        for &b in self.cfgs[fid.index()].rpo() {
            for &v in f.block(b).insts() {
                if f.value(v).ty() != Some(Ty::Ptr) {
                    continue;
                }
                let Some(inst) = f.value(v).as_inst() else {
                    continue;
                };
                let new = match inst {
                    Inst::Phi { args, .. } => {
                        let mut acc = PtrState::bottom();
                        for (_, a) in args {
                            acc = acc.join(store.state(fid, *a), arena);
                        }
                        changed |= update(store, arena, fid, v, acc, widen, descend);
                        continue;
                    }
                    Inst::PtrAdd { base, offset } => {
                        let off = self.ranges.range(fid, *offset);
                        store.state(fid, *base).clone().add_offset(off, arena)
                    }
                    Inst::Sigma { input, op, other } => {
                        if f.value(*other).ty() == Some(Ty::Ptr) {
                            let input_state = store.state(fid, *input).clone();
                            let other_state = store.state(fid, *other).clone();
                            apply_ptr_sigma(arena, &input_state, *op, &other_state)
                        } else {
                            // Comparing a pointer with an integer tells
                            // us nothing about locations.
                            store.state(fid, *input).clone()
                        }
                    }
                    Inst::Call {
                        callee: Callee::Internal(target),
                        ..
                    } if target.index() < self.m.num_functions() => {
                        store.ret_state(*target).clone()
                    }
                    // Seeded kinds are invariant: malloc/alloca/global
                    // addresses, external calls, loads (⊤), free (⊥).
                    // Out-of-range internal targets (unverified
                    // modules) contribute nothing.
                    _ => continue,
                };
                let use_widen = widen && is_widen_point(f.value(v).kind());
                changed |= update(store, arena, fid, v, new, use_widen, descend);
            }
        }

        // Refresh this function's return state.
        let mut ret = PtrState::bottom();
        if f.ret_ty() == Some(Ty::Ptr) {
            for b in f.block_ids() {
                if let Some(Terminator::Ret(Some(v))) = f.block(b).terminator_opt() {
                    ret = ret.join(store.state(fid, *v), arena);
                }
            }
        }
        if ret != *store.ret_state(fid) {
            store.set_ret_state(fid, ret);
            changed = true;
        }
        changed
    }
}

/// Remaps every range handle of a state through an overlay merge
/// translation.
fn remap_state(s: &mut PtrState, xl: &OverlayXlate) {
    if let PtrState::Map(m) = s {
        for r in m.values_mut() {
            *r = xl.range(*r);
        }
    }
}

/// The module-level Gauss–Seidel engine, exposed crate-internally so
/// the incremental session can drive it one weak component at a time.
///
/// # Componentwise decomposition
///
/// Interprocedural dataflow crosses *call edges only*, so two distinct
/// weakly connected components of the call graph never exchange any
/// state. That makes the whole fixpoint decompose exactly:
///
/// * **ascending** — a component's trajectory under the global sweep
///   loop is identical to sweeping it alone: converged components
///   no-op in later sweeps (a Gauss–Seidel pass that changes nothing
///   leaves a fixpoint that every later pass preserves), the widening
///   flag and direction parity depend only on the sweep index, and the
///   global sweep count is the maximum of the per-component counts;
/// * **the only coupling is the ascending cap** — when *any* component
///   is still unstable at `max_ascending_sweeps`, the scratch solver
///   forces the widening cut set of *every* function to ⊤ and
///   re-derives, converged components included. The per-component
///   `tripped` bits are therefore OR-ed into one module-wide flag
///   before the post phase;
/// * **descending** — the scratch loop stops early only when *no*
///   component changed in a step, but extra steps on a per-component
///   stable state are no-ops, so running each component's descending
///   loop with its own early exit yields byte-identical final states.
///
/// `run` *is* this composition, so the session's partial recompute and
/// the scratch analysis execute the same code over each component —
/// byte-identity is structural, and `tests/session_equivalence.rs`
/// re-verifies it on random modules and edit streams.
///
/// # The edit slice
///
/// GR is context-insensitive, so a visit of `h` reads other functions'
/// states in two places only: its pointer formals join its callers'
/// actuals, and its pointer-typed internal-call results join the
/// callees' returns. That is the *reads* relation ([`Reads`]): `h`
/// reads `g` when `g` passes an actual to a pointer formal of `h`, or a
/// pointer call result in `h` joins `g`'s return. A component need not
/// be re-solved whole after an edit; the session re-solves a slice of
/// it at function granularity:
///
/// * **`D`** is seeded with the edited and added functions, every
///   reader of an edited or removed function in the old call graph and
///   in the new one, and every member of an SCC whose membership
///   changed; it is then closed under "is read by". A function outside
///   `D` reads nothing inside it, so its whole trajectory — every
///   state after every visit of every sweep — is the one the previous
///   solve computed: it sees the same inputs in the same order. (Order
///   is invariant because the schedule orders two call-adjacent
///   functions by condensation level — callee first bottom-up, caller
///   first top-down — or, inside one SCC, by id, which removals shift
///   monotonically; only an SCC whose membership changed can reorder a
///   pair, and its members are seeds.)
/// * **`R`** is `D` plus everything `R` reads, closed, plus whole SCCs.
///   `R` reads nothing outside itself, so sweeping only `R`'s SCCs, in
///   the component's condensation order, reproduces `R`'s scratch
///   trajectory exactly; every function outside `R` keeps its previous
///   final states.
/// * **Sweep count.** The scratch loop runs until *no* function
///   changes, so the component's `ascending_sweeps` is the larger of
///   `R`'s own count and one more than the last ascending sweep in
///   which a function outside `R` changed. The solver records that
///   last changing sweep per function ([`GrSolver::settle`]), and the
///   session persists it.
/// * **Descending and the cap.** Descending steps on a stable state are
///   no-ops, so `R`'s descending loop may stop on its own early exit.
///   Where the cap is involved the slice falls back to re-solving the
///   whole component: when a function outside `R` last ran in a
///   component whose ascent tripped, when `R`'s own ascent trips, or
///   when the module-wide trip flag flips.
///
/// When every function is reached, the slice is the whole component —
/// there is no second code path, only a smaller schedule.
/// `tests/gr_slice_equivalence.rs` pins slice ≡ scratch after every
/// edit of random streams, with and without a save→load between edits.
pub(crate) struct GrSolver<'a> {
    pub(crate) ctx: SweepCtx<'a>,
    pub(crate) config: GrConfig,
    pub(crate) cond: Condensation,
    /// The solver's working arena: a clone of the bootstrap analysis'
    /// module arena (so `R(c)` handles resolve directly), extended by
    /// everything the fixpoint builds.
    pub(crate) arena: ExprArena,
    pub(crate) states: Vec<Vec<PtrState>>,
    /// Join of the return states of each function.
    pub(crate) ret_states: Vec<PtrState>,
    /// Ascending sweeps the fixpoint took (max over components).
    pub(crate) sweeps: u32,
    /// Per function: the number of ascending sweeps up to and including
    /// the last one that changed it (0: no sweep changed it). Its
    /// component's sweep count is one more than the largest of these.
    pub(crate) settle: Vec<u32>,
    /// The pool wave levels dispatch onto (a width-1 pool runs every
    /// sweep inline, the serial reference schedule).
    pub(crate) pool: &'a pool::WorkerPool,
}

impl<'a> GrSolver<'a> {
    // The solver borrows each pre-built piece individually on purpose:
    // callers assemble them at different times (driver vs session) and
    // a params struct would just move the argument list one hop away.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        m: &'a Module,
        ranges: &'a RangeAnalysis,
        locs: &'a LocTable,
        config: GrConfig,
        callers: &'a [Vec<CallSite>],
        cfgs: &'a [Cfg],
        cond: Condensation,
        pool: &'a pool::WorkerPool,
    ) -> Self {
        let nf = m.num_functions();
        // Filled per function by `seed_function`: functions the solver
        // never sweeps cost no allocation.
        let states = vec![Vec::new(); nf];
        // The clone starts with fresh counters: the bootstrap arena's
        // op stats are already reported by the range analysis itself,
        // and the canonical GR arena absorbs this solver's stats at
        // assembly — copied counters would double-count.
        let mut arena = ranges.arena().clone();
        arena.clear_op_stats();
        GrSolver {
            ctx: SweepCtx {
                m,
                ranges,
                locs,
                callers,
                cfgs,
            },
            config,
            cond,
            arena,
            states,
            ret_states: vec![PtrState::bottom(); nf],
            sweeps: 0,
            settle: vec![0; nf],
            pool,
        }
    }

    /// The condensation levels restricted to each weak component (one
    /// entry per element of `components`, members sorted ascending):
    /// the same level order the full sweep uses, with foreign SCCs
    /// dropped and empty levels elided. Built in one pass over the
    /// levels — `O(total SCCs)`, not per-component rescans — so
    /// many-component modules stay linear.
    pub(crate) fn component_schedules(&self, components: &[Vec<FuncId>]) -> Vec<Vec<Vec<u32>>> {
        // SCC → component index, via any member function.
        let mut comp_of_fn = vec![u32::MAX; self.ctx.m.num_functions()];
        for (k, members) in components.iter().enumerate() {
            for &f in members {
                comp_of_fn[f.index()] = k as u32;
            }
        }
        let mut schedules: Vec<Vec<Vec<u32>>> = vec![Vec::new(); components.len()];
        // The last module-level each component's schedule saw, so SCCs
        // of one level land in one restricted level.
        let mut last_level = vec![u32::MAX; components.len()];
        for (li, level) in self.cond.levels().iter().enumerate() {
            for &scc in level {
                let member = self.cond.members(scc)[0];
                let k = comp_of_fn[member.index()];
                debug_assert_ne!(k, u32::MAX, "every SCC belongs to a component");
                let k = k as usize;
                if last_level[k] == li as u32 {
                    schedules[k].last_mut().expect("level started").push(scc);
                } else {
                    schedules[k].push(vec![scc]);
                    last_level[k] = li as u32;
                }
            }
        }
        schedules
    }

    /// `levels` restricted to the SCCs `keep` accepts, empty levels
    /// elided: the schedule of an edit slice, in the same order.
    pub(crate) fn restrict_schedule(
        levels: &[Vec<u32>],
        keep: impl Fn(u32) -> bool,
    ) -> Vec<Vec<u32>> {
        levels
            .iter()
            .map(|level| level.iter().copied().filter(|&scc| keep(scc)).collect())
            .filter(|level: &Vec<u32>| !level.is_empty())
            .collect()
    }

    /// The full fixpoint: ascend every component, combine the cap
    /// verdicts, then finish every component under the shared flag.
    ///
    /// Components run sequentially (each with the configured wave
    /// schedule *inside* it). Relative to the pre-component solver this
    /// trades the cross-component wave parallelism of fully
    /// disconnected call graphs — rare in practice, since entry points
    /// link almost everything into one component — for never re-
    /// sweeping an already-converged component while a slow one churns,
    /// and for the per-component reuse the incremental session is built
    /// on.
    pub(crate) fn run(&mut self, components: &[Vec<FuncId>]) {
        for fid in self.ctx.m.func_ids() {
            self.seed_function(fid);
        }
        let schedules = self.component_schedules(components);
        let mut tripped = false;
        let mut max_sweeps = 1;
        for levels in &schedules {
            let (sweeps, trip) = self.ascend_component(levels);
            tripped |= trip;
            max_sweeps = max_sweeps.max(sweeps);
        }
        self.sweeps = max_sweeps;
        for (levels, members) in schedules.iter().zip(components) {
            self.finish_component(levels, members, tripped);
        }
    }

    /// Resets one function to its starting point: every state ⊥ except
    /// the invariant seeds (allocation sites, globals, unknown sources).
    pub(crate) fn seed_function(&mut self, fid: FuncId) {
        let f = self.ctx.m.function(fid);
        self.states[fid.index()] = vec![PtrState::bottom(); f.num_values()];
        self.ret_states[fid.index()] = PtrState::bottom();
        self.settle[fid.index()] = 0;
        for v in f.value_ids() {
            if f.value(v).ty() != Some(Ty::Ptr) {
                continue;
            }
            let state = match f.value(v).kind() {
                ValueKind::GlobalAddr(g) => {
                    let loc = self.ctx.locs.loc_of_global(*g).expect("global has loc");
                    let zero = self.arena.range_constant(0);
                    Some(PtrState::singleton(loc, zero))
                }
                ValueKind::Inst(Inst::Malloc { .. }) | ValueKind::Inst(Inst::Alloca { .. }) => {
                    let loc = self.ctx.locs.loc_of_value(fid, v).expect("site has loc");
                    let zero = self.arena.range_constant(0);
                    Some(PtrState::singleton(loc, zero))
                }
                ValueKind::Inst(Inst::Call {
                    callee: Callee::External(_),
                    ..
                }) => {
                    let loc = self
                        .ctx
                        .locs
                        .loc_of_value(fid, v)
                        .expect("ext call has loc");
                    let zero = self.arena.range_constant(0);
                    Some(PtrState::singleton(loc, zero))
                }
                ValueKind::Inst(Inst::Load { .. }) => Some(PtrState::top()),
                _ => None,
            };
            if let Some(s) = state {
                self.states[fid.index()][v.index()] = s;
            }
        }
    }

    /// The ascending loop restricted to one component: runs until a
    /// sweep changes nothing or the cap is hit, leaving the states at
    /// the *pre-force* point either way. Returns `(sweeps, tripped)`.
    pub(crate) fn ascend_component(&mut self, levels: &[Vec<u32>]) -> (u32, bool) {
        let mut sweeps = 0;
        loop {
            let widen = self.config.widening && sweeps > 0;
            // Alternate direction: bottom-up propagates returns to
            // callers in one sweep, top-down propagates actuals to
            // formals in one sweep.
            let changed = self.sweep_levels(levels, widen, false, sweeps % 2 == 0, Some(sweeps));
            sweeps += 1;
            if !changed {
                return (sweeps, false);
            }
            if sweeps >= self.config.max_ascending_sweeps {
                return (sweeps, true);
            }
        }
    }

    /// The post phase of one component: the cut-set forcing (when the
    /// module-wide cap `tripped`) with its re-derive sweep, then the
    /// descending sequence.
    pub(crate) fn finish_component(
        &mut self,
        levels: &[Vec<u32>],
        members: &[FuncId],
        tripped: bool,
    ) {
        if tripped {
            self.force_top_join_points(members);
            self.sweep_levels(levels, false, false, true, None);
        }
        for step in 0..self.config.descending_steps {
            if !self.sweep_levels(levels, false, true, step % 2 == 0, None) {
                break;
            }
        }
    }

    /// One sweep over the given condensation levels — bottom-up when
    /// `up`, top-down otherwise. The two schedules visit identical
    /// orders; `Waves` additionally runs each level's SCCs
    /// concurrently (each interning into a private overlay, merged back
    /// in SCC order), which cannot change any result because same-level
    /// SCCs share no call edge and the overlay merge only translates
    /// ids. `ascent` is the index of an ascending sweep, whose changes
    /// are recorded in [`GrSolver::settle`].
    fn sweep_levels(
        &mut self,
        levels: &[Vec<u32>],
        widen: bool,
        descend: bool,
        up: bool,
        ascent: Option<u32>,
    ) -> bool {
        let GrSolver {
            ctx,
            config,
            cond,
            arena,
            states,
            ret_states,
            settle,
            pool,
            ..
        } = self;
        let mut record = |f: FuncId, ch: bool| {
            if let (true, Some(k)) = (ch, ascent) {
                settle[f.index()] = k + 1;
            }
            ch
        };
        let ctx: &SweepCtx = ctx;
        let cond: &Condensation = cond;
        let config: GrConfig = *config;
        let pool: &pool::WorkerPool = pool;
        let waves = matches!(config.schedule, GrSchedule::Waves) && pool.threads() > 1;
        let mut changed = false;
        let mut order: Vec<&Vec<u32>> = levels.iter().collect();
        if !up {
            order.reverse();
        }
        for level in order {
            if !waves || level.len() == 1 {
                let mut store = DirectStore {
                    states: states.as_mut_slice(),
                    rets: ret_states.as_mut_slice(),
                };
                for &scc in level {
                    for &f in cond.members(scc) {
                        let ch = ctx.sweep_function(&mut store, arena, f, widen, descend);
                        changed |= record(f, ch);
                    }
                }
                continue;
            }
            // Hand each SCC ownership of its members' states; the
            // emptied slots are never read because same-level SCCs are
            // not call-adjacent. Each task interns into an overlay over
            // the frozen solver arena.
            let items: Vec<(u32, Vec<Vec<PtrState>>, Vec<PtrState>)> = level
                .iter()
                .map(|&scc| {
                    let members = cond.members(scc);
                    (
                        scc,
                        members
                            .iter()
                            .map(|f| std::mem::take(&mut states[f.index()]))
                            .collect(),
                        members
                            .iter()
                            .map(|f| std::mem::take(&mut ret_states[f.index()]))
                            .collect(),
                    )
                })
                .collect();
            let frozen = Arc::new(std::mem::take(arena));
            let results = {
                let global_states: &[Vec<PtrState>] = states.as_slice();
                let global_rets: &[PtrState] = ret_states.as_slice();
                let frozen = &frozen;
                pool.run_map(items, |(scc, local_states, local_rets)| {
                    let mut task_arena = ExprArena::with_base(Arc::clone(frozen));
                    let mut store = SccStore {
                        members: cond.members(scc),
                        local_states,
                        local_rets,
                        global_states,
                        global_rets,
                    };
                    let ch: Vec<bool> = cond
                        .members(scc)
                        .iter()
                        .map(|&f| {
                            ctx.sweep_function(&mut store, &mut task_arena, f, widen, descend)
                        })
                        .collect();
                    (
                        scc,
                        store.local_states,
                        store.local_rets,
                        ch,
                        task_arena.into_overlay_part(),
                    )
                })
            };
            *arena = Arc::try_unwrap(frozen).expect("wave overlays released their base");
            // Merge overlays back in SCC order (results preserve item
            // order) — deterministic regardless of thread timing.
            for (scc, mut local_states, mut local_rets, ch, part) in results {
                let xl = arena.adopt(part);
                let members = cond.members(scc);
                for (&f, ch) in members.iter().zip(ch) {
                    changed |= record(f, ch);
                }
                for func in &mut local_states {
                    for s in func.iter_mut() {
                        remap_state(s, &xl);
                    }
                }
                for s in &mut local_rets {
                    remap_state(s, &xl);
                }
                for ((s, r), &f) in local_states.into_iter().zip(local_rets).zip(members) {
                    states[f.index()] = s;
                    ret_states[f.index()] = r;
                }
            }
        }
        changed
    }

    /// When the ascending cap trips, every join point of the widening
    /// cut set — φs, formal parameters *and* internal-call results —
    /// must go to ⊤: the one sweep that follows re-derives all other
    /// values from them, so any join left behind would keep a stale,
    /// unsound state (e.g. a deep recursive chain whose churn lives
    /// entirely in formal/return joins). Restricted to `members`
    /// because the cap forcing runs once per weak component.
    pub(crate) fn force_top_join_points(&mut self, members: &[FuncId]) {
        let m = self.ctx.m;
        for &fid in members {
            let f = m.function(fid);
            for v in f.value_ids() {
                if f.value(v).ty() != Some(Ty::Ptr) {
                    continue;
                }
                if is_widen_point(f.value(v).kind()) {
                    self.states[fid.index()][v.index()] = PtrState::top();
                }
            }
        }
    }
}

/// σ transfer for pointer comparisons: refine `input` knowing
/// `input ⟨op⟩ other` (Figure 9's intersection rules).
fn apply_ptr_sigma(
    arena: &mut ExprArena,
    input: &PtrState,
    op: CmpOp,
    other: &PtrState,
) -> PtrState {
    match op {
        CmpOp::Lt => input.clamp_with(other, arena, |arena, ra, rb| match arena.range_hi(rb) {
            Some(BoundId::Fin(u)) => {
                let one = arena.constant(1);
                let um1 = arena.sub(u, one);
                arena.range_clamp_above(ra, BoundId::Fin(um1))
            }
            _ => ra,
        }),
        CmpOp::Le => input.clamp_with(other, arena, |arena, ra, rb| match arena.range_hi(rb) {
            Some(hi) => arena.range_clamp_above(ra, hi),
            None => ra,
        }),
        CmpOp::Gt => input.clamp_with(other, arena, |arena, ra, rb| match arena.range_lo(rb) {
            Some(BoundId::Fin(l)) => {
                let one = arena.constant(1);
                let lp1 = arena.add(l, one);
                arena.range_clamp_below(ra, BoundId::Fin(lp1))
            }
            _ => ra,
        }),
        CmpOp::Ge => input.clamp_with(other, arena, |arena, ra, rb| match arena.range_lo(rb) {
            Some(lo) => arena.range_clamp_below(ra, lo),
            None => ra,
        }),
        CmpOp::Eq => input.clamp_with(other, arena, |arena, ra, rb| arena.range_meet(ra, rb)),
        CmpOp::Ne => input.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sra_ir::FunctionBuilder;
    use sra_symbolic::{RangeId, SymRange};

    fn show(s: PtrStateRef<'_>, ra: &RangeAnalysis) -> String {
        format!("{}", s.display(ra.symbols()))
    }

    /// malloc + constant offsets.
    #[test]
    fn malloc_and_offsets() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let n = b.const_int(10);
        let p = b.malloc(n);
        let four = b.const_int(4);
        let q = b.ptr_add(p, four);
        b.ret(None);
        let mut m = Module::new();
        let fid = m.add_function(b.finish());
        let ra = RangeAnalysis::analyze(&m);
        let gr = GrAnalysis::analyze(&m, &ra);
        assert_eq!(show(gr.state(fid, p), &ra), "{loc0 + [0, 0]}");
        assert_eq!(show(gr.state(fid, q), &ra), "{loc0 + [4, 4]}");
    }

    /// The paper's Figure 10 (left column): a φ joins two offsets and
    /// derived pointers overlap under the global analysis.
    #[test]
    fn figure10_global_imprecision() {
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
        let ra = RangeAnalysis::analyze(&m);
        let gr = GrAnalysis::analyze(&m, &ra);
        assert_eq!(show(gr.state(fid, a1), &ra), "{loc0 + [0, 0]}");
        assert_eq!(show(gr.state(fid, a2), &ra), "{loc0 + [1, 1]}");
        assert_eq!(show(gr.state(fid, a3), &ra), "{loc0 + [0, 1]}");
        assert_eq!(show(gr.state(fid, a4), &ra), "{loc0 + [1, 2]}");
        assert_eq!(show(gr.state(fid, a5), &ra), "{loc0 + [2, 3]}");
        // a4 and a5 have overlapping GR states — the global test cannot
        // separate them (the local test will).
        let r4 = gr.state(fid, a4).get(crate::LocId::new(0)).unwrap();
        let r5 = gr.state(fid, a5).get(crate::LocId::new(0)).unwrap();
        assert!(gr
            .arena()
            .range_value(r4)
            .may_overlap(&gr.arena().range_value(r5)));
    }

    /// Loads yield ⊤ and free yields ⊥ (Figure 9).
    #[test]
    fn load_top_free_bottom() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let n = b.const_int(4);
        let p = b.malloc(n);
        let q = b.load(p, Ty::Ptr);
        let r = b.free(p);
        b.ret(None);
        let mut m = Module::new();
        let fid = m.add_function(b.finish());
        let ra = RangeAnalysis::analyze(&m);
        let gr = GrAnalysis::analyze(&m, &ra);
        assert!(gr.state(fid, q).is_top());
        assert!(gr.state(fid, r).is_bottom());
    }

    /// Interprocedural: actuals flow to formals, returns flow back.
    #[test]
    fn interprocedural_linking() {
        let mut m = Module::new();
        // callee(p: ptr) -> ptr { return p + 3 }
        let mut b = FunctionBuilder::new("callee", &[Ty::Ptr], Some(Ty::Ptr));
        let p = b.param(0);
        let three = b.const_int(3);
        let q = b.ptr_add(p, three);
        b.ret(Some(q));
        let callee = m.add_function(b.finish());
        // caller() { x = malloc 10; y = callee(x) }
        let mut b = FunctionBuilder::new("caller", &[], None);
        let ten = b.const_int(10);
        let x = b.malloc(ten);
        let y = b.call(Callee::Internal(callee), &[x], Some(Ty::Ptr));
        b.ret(None);
        let caller = m.add_function(b.finish());
        let ra = RangeAnalysis::analyze(&m);
        let gr = GrAnalysis::analyze(&m, &ra);
        let pstate = show(gr.state(callee, m.function(callee).params()[0]), &ra);
        assert_eq!(pstate, "{loc0 + [0, 0]}");
        let f = m.function(caller);
        let _ = f;
        assert_eq!(show(gr.state(caller, y), &ra), "{loc0 + [3, 3]}");
    }

    /// Exported functions get an Unknown location for pointer formals.
    #[test]
    fn exported_param_unknown_loc() {
        let mut b = FunctionBuilder::new("api", &[Ty::Ptr], None);
        let p = b.param(0);
        let one = b.const_int(1);
        let _q = b.ptr_add(p, one);
        b.ret(None);
        let mut f = b.finish();
        f.set_exported(true);
        let mut m = Module::new();
        let fid = m.add_function(f);
        let ra = RangeAnalysis::analyze(&m);
        let gr = GrAnalysis::analyze(&m, &ra);
        let st = gr.state(fid, m.function(fid).params()[0]);
        assert_eq!(st.support_len(), Some(1));
        let (loc, r) = st.support().next().unwrap();
        assert_eq!(gr.locs().site(loc).kind, crate::LocKind::Unknown);
        assert_eq!(gr.arena().range_value(r), SymRange::constant(0));
    }

    /// Builds a call chain or ring of `n` functions `f_i(p: ptr) -> ptr
    /// { q = p + 1; r = f_{i+1}(q); ret r }` (the last links back to
    /// `f_0` when `ring`, otherwise returns its formal), plus a `main`
    /// that calls `f_0` with a fresh allocation. The dataflow churns
    /// exclusively through formal-parameter and call-result joins — no
    /// φ-nodes anywhere.
    fn chain_module(n: usize, ring: bool) -> (Module, Vec<FuncId>, ValueId) {
        use sra_ir::Callee;
        let mut m = Module::new();
        for i in 0..n {
            let mut b = FunctionBuilder::new(&format!("f{i}"), &[Ty::Ptr], Some(Ty::Ptr));
            let p = b.param(0);
            let one = b.const_int(1);
            let q = b.ptr_add(p, one);
            if i + 1 < n {
                let r = b.call(Callee::Internal(FuncId::new(i + 1)), &[q], Some(Ty::Ptr));
                b.ret(Some(r));
            } else if ring {
                let r = b.call(Callee::Internal(FuncId::new(0)), &[q], Some(Ty::Ptr));
                b.ret(Some(r));
            } else {
                b.ret(Some(p));
            }
            m.add_function(b.finish());
        }
        let mut b = FunctionBuilder::new("main", &[], None);
        let hundred = b.const_int(100);
        let x = b.malloc(hundred);
        let r = b.call(Callee::Internal(FuncId::new(0)), &[x], Some(Ty::Ptr));
        b.ret(None);
        m.add_function(b.finish());
        sra_ir::verify::verify_module(&m).expect("chain verifies");
        let funcs = (0..n).map(FuncId::new).collect();
        (m, funcs, r)
    }

    /// A deep *acyclic* call chain converges in O(1) sweeps under the
    /// alternating condensation schedule — depth 64 is twice the
    /// ascending cap, which any fixed one-directional sweep order
    /// (including the pre-wave flat function-id order) would trip,
    /// forcing every join to ⊤.
    #[test]
    fn deep_call_dag_converges_without_tripping_cap() {
        let depth = 64;
        let (m, funcs, _r) = chain_module(depth, false);
        let ra = RangeAnalysis::analyze(&m);
        for schedule in [GrSchedule::Serial, GrSchedule::Waves] {
            let config = GrConfig {
                schedule,
                threads: 4,
                ..GrConfig::default()
            };
            assert!(config.max_ascending_sweeps < depth as u32);
            let gr = GrAnalysis::analyze_with(&m, &ra, config);
            assert!(
                gr.ascending_sweeps() <= 6,
                "deep chain should converge in O(1) sweeps, took {}",
                gr.ascending_sweeps()
            );
            // The deepest formal sits exactly `depth - 1` cells in.
            let last = *funcs.last().unwrap();
            let p = m.function(last).params()[0];
            assert_eq!(
                show(gr.state(last, p), &ra),
                format!("{{loc0 + [{}, {}]}}", depth - 1, depth - 1)
            );
        }
    }

    /// Regression for the ascending-cap audit: a mutually recursive
    /// ring whose churn lives *entirely* in formal and call-result
    /// joins (no φs) must terminate when the cap trips, and every join
    /// point of the widening cut set — formals AND call results, not
    /// just φs — must land on ⊤ so no stale finite state survives.
    /// Widening is disabled so the offsets genuinely grow without
    /// bound until the cap fires.
    #[test]
    fn capped_recursive_ring_forces_all_join_kinds_top() {
        let n = 8;
        let (m, funcs, main_call) = chain_module(n, true);
        let main = FuncId::new(n);
        let ra = RangeAnalysis::analyze(&m);
        for schedule in [GrSchedule::Serial, GrSchedule::Waves] {
            let config = GrConfig {
                widening: false,
                max_ascending_sweeps: 2,
                schedule,
                threads: 4,
                ..GrConfig::default()
            };
            let gr = GrAnalysis::analyze_with(&m, &ra, config);
            for &f in &funcs {
                let func = m.function(f);
                let p = func.params()[0];
                assert!(gr.state(f, p).is_top(), "{f}: capped formal must be ⊤");
                for v in func.value_ids() {
                    if func.value(v).ty() != Some(Ty::Ptr) {
                        continue;
                    }
                    assert!(
                        gr.state(f, v).is_top(),
                        "{f} {v}: every pointer derived from capped joins must be ⊤"
                    );
                }
            }
            // The caller's call result is itself a forced join…
            assert!(gr.state(main, main_call).is_top());
            // …while the allocation seed stays precise (it is invariant,
            // not a join).
            let x = m
                .function(main)
                .value_ids()
                .find(|&v| {
                    matches!(
                        m.function(main).value(v).kind(),
                        ValueKind::Inst(Inst::Malloc { .. })
                    )
                })
                .unwrap();
            assert_eq!(show(gr.state(main, x), &ra), "{loc0 + [0, 0]}");
        }
    }

    /// The `update` fast path claims: whenever `new ⊑ slot` is
    /// provable, the slow path (`join`, then optionally `widen`)
    /// returns the stored state *byte-identically*, so skipping it
    /// cannot change any result. The in-solver `debug_assert` re-checks
    /// this on every debug-mode analysis; this test pins the algebraic
    /// claim directly — in release builds too — over states whose
    /// bounds exercise every way `bound_min`/`max` can pick a winner:
    /// constants, symbols, sums, unresolved min/max atoms, infinities,
    /// multiple locations, ⊥ and ⊤.
    #[test]
    fn inclusion_fast_path_matches_slow_path() {
        use sra_symbolic::{Bound, SymExpr, Symbol};
        let n = || SymExpr::from(Symbol::new(0));
        let m_ = || SymExpr::from(Symbol::new(1));
        let l = crate::LocId::new;
        let mut arena = ExprArena::new();
        let bounds: Vec<Bound> = vec![
            Bound::NegInf,
            Bound::from(0),
            Bound::from(4),
            Bound::Fin(n()),
            Bound::Fin(n() + 1.into()),
            Bound::Fin(n() + m_()),
            Bound::Fin(SymExpr::min(n(), m_())),
            Bound::Fin(SymExpr::max(n(), 7.into())),
            Bound::PosInf,
        ];
        let mut ranges: Vec<RangeId> = vec![ExprArena::EMPTY_RANGE];
        for lo in &bounds {
            for hi in &bounds {
                let r = SymRange::with_bounds(lo.clone(), hi.clone());
                if !r.is_empty() {
                    ranges.push(arena.intern_range(&r));
                }
            }
        }
        let mut states: Vec<PtrState> = vec![PtrState::bottom(), PtrState::top()];
        for (i, &r) in ranges.iter().enumerate() {
            states.push(PtrState::singleton(l(0), r));
            let a = PtrState::singleton(l(0), r);
            let b = PtrState::singleton(l(1), ranges[i % 7]);
            states.push(a.join(&b, &mut arena));
        }
        let mut included = 0;
        for slot in &states {
            for new in &states {
                if !new.le(slot, &mut arena) {
                    continue;
                }
                included += 1;
                let joined = slot.join(new, &mut arena);
                assert_eq!(&joined, slot, "join must return the stored state verbatim");
                assert_eq!(
                    &slot.widen(&joined, &mut arena),
                    slot,
                    "widening the unchanged join must be the identity"
                );
            }
        }
        assert!(included > states.len(), "the sweep covered real inclusions");
    }

    /// The same ring with widening on and the default cap still
    /// terminates, and both schedules agree state-for-state — down to
    /// identical canonical-arena ids.
    #[test]
    fn recursive_ring_schedules_agree() {
        let (m, _funcs, _r) = chain_module(6, true);
        let ra = RangeAnalysis::analyze(&m);
        let serial = GrAnalysis::analyze_with(
            &m,
            &ra,
            GrConfig {
                schedule: GrSchedule::Serial,
                threads: 1,
                ..GrConfig::default()
            },
        );
        let waves = GrAnalysis::analyze_with(
            &m,
            &ra,
            GrConfig {
                schedule: GrSchedule::Waves,
                threads: 4,
                ..GrConfig::default()
            },
        );
        for f in m.func_ids() {
            for v in m.function(f).value_ids() {
                assert_eq!(serial.state(f, v), waves.state(f, v), "{f} {v}");
                // Canonicalization makes the raw id-level states agree
                // too, not just their structural values.
                assert_eq!(serial.raw_state(f, v), waves.raw_state(f, v), "{f} {v}");
            }
        }
        assert_eq!(serial.ascending_sweeps(), waves.ascending_sweeps());
    }

    /// A pointer loop: i = φ(p, i+2) with i < e bound — the paper's
    /// Figure 7 inner loop. After widening + descending the σ'd pointer
    /// is bounded by [0, N-1].
    #[test]
    fn figure7_first_loop() {
        let mut b = FunctionBuilder::new("main", &[], None);
        let z = b.call(Callee::External("atoi".into()), &[], Some(Ty::Int));
        let p = b.malloc(z);
        let head = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        let zero = b.const_int(0);
        let i0 = b.ptr_add(p, zero);
        let e = b.ptr_add(p, z);
        let entry = b.entry_block();
        b.jump(head);
        b.switch_to(head);
        let i1 = b.phi(Ty::Ptr, &[(entry, i0)]);
        let c = b.cmp(CmpOp::Lt, i1, e);
        b.br(c, body, exit);
        b.switch_to(body);
        // i2 = σ(i1 < e); *i2 = 0; i3 = i2 + 2
        let two = b.const_int(2);
        // (σ inserted by the essa pass; store through i1's σ)
        let i3 = b.ptr_add(i1, two);
        b.add_phi_arg(i1, body, i3);
        b.jump(head);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        sra_ir::essa::run(&mut f);
        sra_ir::verify::verify_function(&f, None).expect("verified");
        let mut m = Module::new();
        let fid = m.add_function(f);
        let ra = RangeAnalysis::analyze(&m);
        let gr = GrAnalysis::analyze(&m, &ra);
        // Find the σ for i1 on the Lt edge.
        let f = m.function(fid);
        let sigma = f
            .value_ids()
            .find(|&v| {
                matches!(
                    f.value(v).as_inst(),
                    Some(Inst::Sigma { input, op: CmpOp::Lt, .. }) if *input == i1
                )
            })
            .expect("σ exists");
        let s = show(gr.state(fid, sigma), &ra);
        assert_eq!(s, "{loc0 + [0, atoi() - 1]}");
        // And e itself sits exactly at offset Z.
        assert_eq!(show(gr.state(fid, e), &ra), "{loc0 + [atoi(), atoi()]}");
    }
}
