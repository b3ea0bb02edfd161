//! Incremental re-analysis sessions: function-granularity updates with
//! dirty-component invalidation over the call-graph condensation.
//!
//! [`AnalysisSession`] is the long-lived handle a server keeps per
//! module: it owns the parsed [`Module`] plus *all* cached analysis
//! state — the per-function bootstrap-range and LR parts with their
//! pre-budgeted symbol-id blocks, the per-function CFGs, the
//! [`CallGraph`], the GR fixpoint with its per-function sweep record,
//! and one cached [`AliasMatrix`] per function — and accepts
//! function-granularity updates ([`AnalysisSession::replace_function`],
//! [`AnalysisSession::add_function`],
//! [`AnalysisSession::remove_function`]).
//!
//! # The invalidation contract
//!
//! The specification is *byte-identity*: after every update, the
//! session's verdicts, `WhichTest` attributions, displayed GR states
//! and symbol tables are exactly those of a from-scratch
//! [`analyze_parallel`](crate::analyze_parallel) +
//! [`AliasMatrix`] build over the updated module. Anything less would
//! let incrementality silently change precision or soundness, so
//! "equal to scratch" is the spec the `session_equivalence` property
//! rail pins. Reuse happens at three granularities:
//!
//! * **function parts** — the bootstrap ranges and LR states of a
//!   function depend only on its own body, so an edit invalidates
//!   exactly the edited function's parts. Parts whose pre-budgeted
//!   symbol-id *block* moved (an earlier function's budget changed)
//!   are **rebased**: their arenas are re-imported under a monotone
//!   symbol renaming ([`sra_symbolic::ExprArena::import_range`]), which
//!   commutes with the analysis, instead of re-analyzed.
//! * **GR slices** — interprocedural dataflow crosses call edges only,
//!   and a function's visit reads other functions' states only through
//!   its pointer formals (callers' actuals) and pointer call results
//!   (callees' returns). An edit re-seeds and re-solves its *slice*:
//!   the functions whose GR trajectory it can reach plus everything
//!   they read, in the same alternating bottom-up/top-down condensation
//!   order the scratch solver specs (see the slice argument on
//!   `GrSolver`). Every other function — in the edited weak component
//!   or not — keeps its cached fixpoint: its states are *imported* into
//!   the rebuild's fresh canonical arena under the (monotone)
//!   symbol/location renaming the edit induced, never re-solved. The
//!   one module-wide coupling is the ascending cap: its trip flag is
//!   OR-ed across components, a component whose post phase ran under a
//!   different flag is re-solved, and a slice next to functions whose
//!   component tripped falls back to its whole component.
//! * **alias matrices** — a matrix caches verdicts only (no symbols,
//!   no location ids), and verdicts are invariant under the monotone
//!   renamings above; the matrix of an unedited function is reused
//!   whenever its GR states are unchanged up to renaming, and rebuilt
//!   otherwise.
//!
//! [`SessionStats`] counts what was reused vs recomputed, so tests can
//! assert e.g. that a no-op replace dirties nothing.
//!
//! # Examples
//!
//! ```
//! use sra_core::{AliasResult, AnalysisConfig, AnalysisSession};
//! use sra_ir::{FunctionBuilder, Module};
//!
//! let mut b = FunctionBuilder::new("f", &[], None);
//! let ten = b.const_int(10);
//! let p = b.malloc(ten);
//! let q = b.malloc(ten);
//! b.ret(None);
//! let mut m = Module::new();
//! let fid = m.add_function(b.finish());
//!
//! let mut session = AnalysisSession::with_config(m, AnalysisConfig::default()).unwrap();
//! assert_eq!(session.alias_with_test(fid, p, q).0, AliasResult::NoAlias);
//!
//! // A no-op replace dirties nothing: every cache is carried over.
//! let body = session.module().function(fid).clone();
//! session.replace_function(fid, body).unwrap();
//! assert_eq!(session.stats().noop_edits, 1);
//! assert!(session.stats().parts_reused > 0);
//! ```

use std::fmt;
use std::sync::{Mutex, MutexGuard};

use sra_ir::callgraph::{CallGraph, Condensation};
use sra_ir::cfg::Cfg;
use sra_ir::verify::{verify_function, verify_module, VerifyError};
use sra_ir::{FuncId, Function, Module, ValueId};
use sra_range::{RangeAnalysis, RangePart};
use sra_symbolic::{ExprArena, ImportMap, Symbol, TryImportMap};

use crate::config::AnalysisConfig;
use crate::driver::{ns_since, DriverConfig, PhaseStats};
use crate::gr::{self, GrAnalysis, GrConfig, GrSolver};
use crate::locs::{LocId, LocTable};
use crate::lr::{self, LrAnalysis, LrPart};
use crate::persist::{self, PersistError};
use crate::pool;
use crate::query::{
    AliasAnalysis, AliasMatrix, AliasResult, DemandCache, DemandStats, QueryMode, QueryStats,
    RbaaAnalysis, WhichTest,
};
use crate::state::PtrState;

/// Why a session update was rejected. Rejected updates leave the
/// session (and its module) exactly as they were.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The update would break IR well-formedness — a structurally
    /// invalid body, a call-arity mismatch, or a removed function that
    /// other functions still call (the verifier reports the dangling
    /// call site).
    Verify(VerifyError),
    /// The named function does not exist.
    NoSuchFunction(FuncId),
    /// A batch ([`AnalysisSession::apply_edits`]) targeted the same
    /// function with more than one replace/remove.
    DuplicateTarget(FuncId),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Verify(e) => write!(f, "rejected update: {e}"),
            SessionError::NoSuchFunction(id) => write!(f, "no function {id} in the session module"),
            SessionError::DuplicateTarget(id) => {
                write!(
                    f,
                    "function {id} is targeted by more than one edit in the batch"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<VerifyError> for SessionError {
    fn from(e: VerifyError) -> Self {
        SessionError::Verify(e)
    }
}

/// One edit of an atomic batch ([`AnalysisSession::apply_edits`]).
/// Every id is interpreted in the session's pre-batch id space.
#[derive(Debug, Clone)]
pub enum SessionEdit {
    /// Replace the body of `func`.
    Replace {
        /// The function to replace (pre-batch id).
        func: FuncId,
        /// Its new body.
        body: Function,
    },
    /// Append a new function. Within the batch it is addressable at
    /// `pre_batch_count + k` for the `k`-th add.
    Add {
        /// The new body.
        body: Function,
    },
    /// Remove `func`; later ids compact down.
    Remove {
        /// The function to remove (pre-batch id).
        func: FuncId,
    },
}

/// Reuse/recompute counters, accumulated across every update since the
/// session was created (the initial build is not counted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Updates applied (including rejected-free no-ops).
    pub edits: usize,
    /// Replacements whose body was identical to the current one:
    /// nothing was dirtied, every cache carried over.
    pub noop_edits: usize,
    /// Function parts (range + LR) re-analyzed from the body.
    pub parts_reanalyzed: usize,
    /// Cached parts carried over (as-is or rebased).
    pub parts_reused: usize,
    /// Subset of [`SessionStats::parts_reused`] whose symbol-id block
    /// moved and was rebased by a monotone renaming.
    pub parts_rebased: usize,
    /// Weak components whose GR fixpoint was re-solved from seeds —
    /// all of it, or the edit's slice of it.
    pub gr_components_solved: usize,
    /// Weak components whose cached GR fixpoint was fully reused.
    pub gr_components_reused: usize,
    /// Weak components re-solved not because they were edited but
    /// because the module-wide cap-trip flag changed (their cached
    /// fixpoint was finished under the other flag).
    pub gr_components_refinished: usize,
    /// Functions the GR solver swept: the edits' slices, plus every
    /// member of a component re-solved whole.
    pub gr_functions_resolved: usize,
    /// Functions whose final GR states were carried over from the
    /// previous fixpoint without a sweep.
    pub gr_functions_carried: usize,
    /// Alias matrices rebuilt.
    pub matrices_rebuilt: usize,
    /// Alias matrices reused from cache.
    pub matrices_reused: usize,
}

/// The cached GR fixpoint metadata of one weakly connected component.
/// The fixpoint *states* themselves live in the assembled
/// [`GrAnalysis`] behind per-function [`std::sync::Arc`]s, so reusing a
/// clean component is a reference bump, not a copy.
#[derive(Debug, Clone)]
struct CompCache {
    /// Member functions, sorted ascending (current id space).
    members: Vec<FuncId>,
    /// Ascending sweeps the component's solo fixpoint took.
    sweeps: u32,
    /// Whether the component's own ascending loop hit the cap.
    tripped: bool,
}

/// [`AnalysisSession::gr_settle`] of a function whose component's
/// ascent tripped the cap: its final states were forced, so they carry
/// no trajectory a slice could reuse.
const TRIPPED: u32 = u32::MAX;

/// A long-lived analysis handle over one module; see the module docs.
/// Cloning is supported (and cheap relative to a rebuild — state
/// vectors are shared) so servers can fork a session per speculative
/// edit stream.
pub struct AnalysisSession {
    module: Module,
    config: AnalysisConfig,
    /// Per-function caches, aligned with the module's function ids.
    range_parts: Vec<RangePart>,
    lr_parts: Vec<LrPart>,
    cfgs: Vec<Cfg>,
    callgraph: CallGraph,
    /// GR fixpoints per weak component.
    components: Vec<CompCache>,
    /// The module-wide cap-trip flag every component's final states
    /// were finished under (a later edit that flips it re-solves every
    /// component, because the post phase ran under the other flag).
    gr_trip: bool,
    /// Per function: [`GrSolver::settle`] from the solve that last ran
    /// it, or [`TRIPPED`].
    gr_settle: Vec<u32>,
    /// The call graph's condensation (the old SCCs an edit compares
    /// against).
    cond: Condensation,
    /// The assembled whole-module analysis (byte-identical to scratch).
    rbaa: RbaaAnalysis,
    /// Per-function matrices behind [`std::sync::Arc`]s so a
    /// [`AnalysisSession::freeze`] snapshot shares them zero-copy: a
    /// rebuild allocates fresh `Arc`s only for invalidated matrices,
    /// and a published snapshot keeps superseded ones alive until its
    /// last reader drops it. Stays empty in [`QueryMode::Demand`].
    matrices: Vec<std::sync::Arc<AliasMatrix>>,
    /// The lazily started demand cache ([`QueryMode::Demand`] only);
    /// dropped on every rebuild — it indexes the superseded analysis.
    demand: Mutex<Option<DemandCache>>,
    /// The session's persistent worker pool — spawned once at
    /// construction (or load) and reused by every rebuild for part
    /// recomputation, arena assembly, GR wave levels and matrix tiles.
    pool: pool::WorkerPool,
    /// Wall-clock attribution of the most recent rebuild (or load).
    phases: PhaseStats,
    stats: SessionStats,
}

impl Clone for AnalysisSession {
    fn clone(&self) -> Self {
        AnalysisSession {
            module: self.module.clone(),
            config: self.config,
            range_parts: self.range_parts.clone(),
            lr_parts: self.lr_parts.clone(),
            cfgs: self.cfgs.clone(),
            callgraph: self.callgraph.clone(),
            components: self.components.clone(),
            gr_trip: self.gr_trip,
            gr_settle: self.gr_settle.clone(),
            cond: self.cond.clone(),
            rbaa: self.rbaa.clone(),
            matrices: self.matrices.clone(),
            // The demand cache is pure memoisation — the fork regrows
            // its own on first query.
            demand: Mutex::new(None),
            // Worker pools are not shareable state — the fork spawns
            // its own so both sessions can rebuild concurrently.
            pool: pool::WorkerPool::new(self.config.threads),
            phases: self.phases,
            stats: self.stats,
        }
    }
}

/// Locks a demand cache. The cache is a pure memo, so a lock poisoned
/// by a panicking query is recovered by dropping the cache, which the
/// next query regrows.
fn demand_lock(m: &Mutex<Option<DemandCache>>) -> MutexGuard<'_, Option<DemandCache>> {
    m.lock().unwrap_or_else(|poisoned| {
        m.clear_poison();
        let mut guard = poisoned.into_inner();
        *guard = None;
        guard
    })
}

/// An immutable, self-contained snapshot of a session's analysis
/// state, produced by [`AnalysisSession::freeze`]: the module at freeze
/// time plus the assembled [`RbaaAnalysis`] and every per-function
/// [`AliasMatrix`]. Freezing is cheap — the analysis' state vectors,
/// arenas and matrices are `Arc`-shared with the session, so a freeze
/// is reference bumps plus one module clone — and the result borrows
/// nothing: it can be sent to (and queried from) any number of threads
/// while the session keeps applying edits.
///
/// A snapshot frozen from a [`QueryMode::Demand`] session carries no
/// matrices; queries grow a private [`DemandCache`] instead (under a
/// mutex — concurrent readers of one snapshot serialize on it).
pub struct FrozenAnalysis {
    module: std::sync::Arc<Module>,
    rbaa: RbaaAnalysis,
    matrices: std::sync::Arc<[std::sync::Arc<AliasMatrix>]>,
    mode: QueryMode,
    demand: Mutex<Option<DemandCache>>,
}

impl Clone for FrozenAnalysis {
    fn clone(&self) -> Self {
        FrozenAnalysis {
            module: self.module.clone(),
            rbaa: self.rbaa.clone(),
            matrices: self.matrices.clone(),
            mode: self.mode,
            demand: Mutex::new(None),
        }
    }
}

impl fmt::Debug for FrozenAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrozenAnalysis")
            .field("functions", &self.module.num_functions())
            .field("mode", &self.mode)
            .field("matrices", &self.matrices.len())
            .finish()
    }
}

impl FrozenAnalysis {
    /// The module exactly as it was at freeze time.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The assembled analysis at freeze time.
    pub fn analysis(&self) -> &RbaaAnalysis {
        &self.rbaa
    }

    /// The query mode the snapshot answers with.
    pub fn query_mode(&self) -> QueryMode {
        self.mode
    }

    /// The cached all-pairs matrix of `f`.
    ///
    /// # Panics
    ///
    /// In [`QueryMode::Demand`] no matrices exist.
    pub fn matrix(&self, f: FuncId) -> &AliasMatrix {
        &self.matrices[f.index()]
    }

    /// The Figure 13/14 statistics of `f`'s all-pairs sweep.
    ///
    /// # Panics
    ///
    /// In [`QueryMode::Demand`] no matrices exist.
    pub fn stats_of(&self, f: FuncId) -> &QueryStats {
        self.matrices[f.index()].stats()
    }

    /// Answers one alias query from the frozen state — `O(1)` from the
    /// cached matrix (or memoised on demand in [`QueryMode::Demand`]),
    /// falling back to the direct computation for values outside the
    /// pointer universe. Byte-identical to
    /// [`AnalysisSession::alias_with_test`] at the freeze point.
    pub fn alias_with_test(
        &self,
        f: FuncId,
        p: ValueId,
        q: ValueId,
    ) -> (AliasResult, Option<WhichTest>) {
        if self.mode == QueryMode::Demand {
            let mut guard = demand_lock(&self.demand);
            let cache = guard.get_or_insert_with(|| self.rbaa.demand_cache());
            return cache.query(&self.rbaa, f, p, q);
        }
        match self.matrices[f.index()].lookup(p, q) {
            Some(v) => v,
            None => self.rbaa.alias_with_test(f, p, q),
        }
    }
}

impl AliasAnalysis for FrozenAnalysis {
    fn name(&self) -> &'static str {
        "rbaa"
    }

    fn alias(&self, f: FuncId, p: ValueId, q: ValueId) -> AliasResult {
        self.alias_with_test(f, p, q).0
    }
}

impl AnalysisSession {
    /// Builds a session over `module` with default configuration.
    #[deprecated(note = "use `AnalysisSession::with_config` with `AnalysisConfig::default()`")]
    pub fn new(module: Module) -> Result<Self, SessionError> {
        Self::with_config(module, AnalysisConfig::default())
    }

    /// Builds a session with an explicit configuration — the canonical
    /// constructor. Accepts anything convertible into
    /// [`AnalysisConfig`] (a legacy [`DriverConfig`] included).
    /// [`QueryMode::Demand`] skips all matrix builds — initial and
    /// after every edit — and answers queries from a lazily grown
    /// [`DemandCache`].
    ///
    /// # Errors
    ///
    /// Returns the verifier's error when the module is not well-formed
    /// (sessions only manage modules whose edits can be re-verified).
    pub fn with_config(
        module: Module,
        config: impl Into<AnalysisConfig>,
    ) -> Result<Self, SessionError> {
        let config = config.into();
        verify_module(&module)?;
        let nf = module.num_functions();
        let callgraph = CallGraph::build(&module);
        let cfgs = gr::build_cfgs(&module);
        // Placeholder analysis state; the initial rebuild treats every
        // function as edited and fills all caches.
        let rbaa = RbaaAnalysis::from_pieces(
            RangeAnalysis::from_parts(Vec::new()),
            GrAnalysis::from_raw(
                LocTable::default(),
                Vec::new(),
                std::sync::Arc::new(ExprArena::new()),
                0,
            ),
            LrAnalysis::from_parts(Vec::new()),
        );
        let mut session = AnalysisSession {
            module,
            config,
            range_parts: Vec::new(),
            lr_parts: Vec::new(),
            cfgs,
            cond: Condensation::build(&callgraph),
            callgraph,
            components: Vec::new(),
            gr_trip: false,
            gr_settle: Vec::new(),
            rbaa,
            matrices: Vec::new(),
            demand: Mutex::new(None),
            pool: pool::WorkerPool::new(config.threads),
            phases: PhaseStats::default(),
            stats: SessionStats::default(),
        };
        let all: Vec<usize> = (0..nf).collect();
        session.rebuild(&all, &[], &[]);
        session.stats = SessionStats::default();
        Ok(session)
    }

    /// Builds a session with a driver configuration and a query mode.
    #[deprecated(
        note = "use `AnalysisSession::with_config` with `AnalysisConfig::builder().query_mode(…)`"
    )]
    pub fn with_mode(
        module: Module,
        config: DriverConfig,
        mode: QueryMode,
    ) -> Result<Self, SessionError> {
        let config = AnalysisConfig {
            query_mode: mode,
            ..config.into()
        };
        Self::with_config(module, config)
    }

    /// The module under analysis (reflecting every applied update).
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The configuration the session analyzes with.
    pub fn config(&self) -> AnalysisConfig {
        self.config
    }

    /// The query mode the session answers with.
    pub fn query_mode(&self) -> QueryMode {
        self.config.query_mode
    }

    /// The demand cache's activity counters; `None` until the first
    /// [`QueryMode::Demand`] query (and always in [`QueryMode::Matrix`]).
    pub fn demand_stats(&self) -> Option<DemandStats> {
        demand_lock(&self.demand).as_ref().map(|c| c.stats())
    }

    /// The assembled analysis — byte-identical to
    /// [`analyze_parallel`](crate::analyze_parallel) on
    /// [`AnalysisSession::module`].
    pub fn analysis(&self) -> &RbaaAnalysis {
        &self.rbaa
    }

    /// The cached all-pairs matrix of `f`.
    ///
    /// # Panics
    ///
    /// In [`QueryMode::Demand`] no matrices exist.
    pub fn matrix(&self, f: FuncId) -> &AliasMatrix {
        &self.matrices[f.index()]
    }

    /// The Figure 13/14 statistics of `f`'s all-pairs sweep.
    ///
    /// # Panics
    ///
    /// In [`QueryMode::Demand`] no matrices exist.
    pub fn stats_of(&self, f: FuncId) -> &QueryStats {
        self.matrices[f.index()].stats()
    }

    /// Reuse/recompute counters accumulated over all updates.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Wall-clock attribution of the most recent rebuild (or, right
    /// after [`AnalysisSession::load`], of the snapshot decode — its
    /// `load_ns` field). Overwritten by every update.
    pub fn phases(&self) -> &PhaseStats {
        &self.phases
    }

    /// Freezes the current state into an immutable, thread-shareable
    /// [`FrozenAnalysis`] — the publish half of a snapshot-isolated
    /// query service (see [`crate::service::AliasService`]). The cost
    /// is one module clone plus `Arc` reference bumps for the analysis
    /// state and matrices; subsequent edits to the session never touch
    /// a frozen snapshot.
    pub fn freeze(&self) -> FrozenAnalysis {
        FrozenAnalysis {
            module: std::sync::Arc::new(self.module.clone()),
            rbaa: self.rbaa.clone(),
            matrices: self.matrices.clone().into(),
            mode: self.config.query_mode,
            demand: Mutex::new(None),
        }
    }

    /// Like [`crate::BatchAnalysis::alias_with_test`]: answered from
    /// the cached matrix in `O(1)` (or memoised on demand in
    /// [`QueryMode::Demand`]), falling back to the direct computation
    /// for values outside the pointer universe.
    pub fn alias_with_test(
        &self,
        f: FuncId,
        p: ValueId,
        q: ValueId,
    ) -> (AliasResult, Option<WhichTest>) {
        if self.config.query_mode == QueryMode::Demand {
            let mut guard = demand_lock(&self.demand);
            let cache = guard.get_or_insert_with(|| self.rbaa.demand_cache());
            return cache.query(&self.rbaa, f, p, q);
        }
        match self.matrices[f.index()].lookup(p, q) {
            Some(v) => v,
            None => self.rbaa.alias_with_test(f, p, q),
        }
    }

    /// Replaces the body of `f` — sugar for a one-element
    /// [`SessionEdit::Replace`] batch: every mutation funnels through
    /// [`AnalysisSession::apply_edits`], the session's single edit
    /// currency. A body equal to the current one is a no-op: nothing
    /// is dirtied and every cache is carried over (countable via
    /// [`SessionStats::noop_edits`]).
    ///
    /// # Errors
    ///
    /// [`SessionError::Verify`] when the new body (or a caller broken
    /// by a signature change) fails verification; the session is left
    /// unchanged.
    pub fn replace_function(&mut self, f: FuncId, body: Function) -> Result<(), SessionError> {
        self.apply_edits(vec![SessionEdit::Replace { func: f, body }])
            .map(|_| ())
    }

    /// Adds a function — sugar for a one-element [`SessionEdit::Add`]
    /// batch — returning its id.
    ///
    /// # Errors
    ///
    /// [`SessionError::Verify`] when the body fails verification; the
    /// session is left unchanged.
    pub fn add_function(&mut self, body: Function) -> Result<FuncId, SessionError> {
        let added = self.apply_edits(vec![SessionEdit::Add { body }])?;
        Ok(added[0])
    }

    /// Removes function `f` — sugar for a one-element
    /// [`SessionEdit::Remove`] batch, additionally handing back the
    /// removed body. Later functions shift down one id, with every
    /// internal call target remapped (exactly like
    /// [`Module::remove_function`]).
    ///
    /// # Errors
    ///
    /// [`SessionError::Verify`] — carrying the verifier's structured
    /// dangling-call report — when another function still calls `f`;
    /// the session is left unchanged.
    pub fn remove_function(&mut self, f: FuncId) -> Result<Function, SessionError> {
        if f.index() >= self.module.num_functions() {
            return Err(SessionError::NoSuchFunction(f));
        }
        let removed = self.module.function(f).clone();
        self.apply_edits(vec![SessionEdit::Remove { func: f }])?;
        Ok(removed)
    }

    /// The [`SessionEdit::Replace`] fast path: targeted verification
    /// (the new body, plus callers only when the signature changed)
    /// instead of the batch path's whole-module probe clone.
    fn commit_single_replace(&mut self, f: FuncId, body: Function) -> Result<(), SessionError> {
        if f.index() >= self.module.num_functions() {
            return Err(SessionError::NoSuchFunction(f));
        }
        if *self.module.function(f) == body {
            self.stats.edits += 1;
            self.stats.noop_edits += 1;
            self.stats.parts_reused += self.module.num_functions();
            self.stats.matrices_reused += self.module.num_functions();
            self.stats.gr_components_reused += self.components.len();
            self.stats.gr_functions_carried += self.module.num_functions();
            return Ok(());
        }
        let signature_changed = self.module.function(f).param_tys() != body.param_tys()
            || self.module.function(f).ret_ty() != body.ret_ty();
        let old = self.module.replace_function(f, body);
        // Verify the new body plus — only when the signature changed —
        // every caller whose call sites could now mismatch. Unrelated
        // functions were valid before and cannot have been affected.
        let mut check = verify_function(self.module.function(f), Some(&self.module));
        if check.is_ok() && signature_changed {
            for caller in self.module.func_ids() {
                if caller != f && self.callgraph.callees(caller).contains(&f) {
                    check = verify_function(self.module.function(caller), Some(&self.module));
                    if check.is_err() {
                        break;
                    }
                }
            }
        }
        if let Err(e) = check {
            self.module.replace_function(f, old);
            return Err(e.into());
        }
        let old_callees = self.callgraph.callees(f).to_vec();
        self.callgraph
            .replace_function_edges(f, self.module.function(f));
        self.cfgs[f.index()] = Cfg::new(self.module.function(f));
        self.rebuild(&[f.index()], &[], &old_callees);
        self.stats.edits += 1;
        Ok(())
    }

    /// The [`SessionEdit::Add`] fast path: verifies just the new body.
    fn commit_single_add(&mut self, body: Function) -> Result<FuncId, SessionError> {
        let f = self.module.add_function(body);
        if let Err(e) = verify_function(self.module.function(f), Some(&self.module)) {
            self.module.remove_function(f);
            return Err(e.into());
        }
        self.callgraph.push_function(self.module.function(f));
        self.cfgs.push(Cfg::new(self.module.function(f)));
        self.rebuild(&[f.index()], &[], &[]);
        self.stats.edits += 1;
        Ok(f)
    }

    /// The [`SessionEdit::Remove`] fast path: the whole-module probe
    /// clone is taken only to surface the structured dangling-call
    /// error, never on success.
    fn commit_single_remove(&mut self, f: FuncId) -> Result<(), SessionError> {
        if f.index() >= self.module.num_functions() {
            return Err(SessionError::NoSuchFunction(f));
        }
        let still_called = self
            .module
            .func_ids()
            .any(|caller| caller != f && self.callgraph.callees(caller).contains(&f));
        if still_called {
            // Surface the verifier's structured error for the dangling
            // call sites the removal would create.
            let mut probe = self.module.clone();
            probe.remove_function(f);
            let err = verify_module(&probe).expect_err("dangling calls fail verification");
            return Err(err.into());
        }
        let gone = f.index();
        let old_callees = self.callgraph.callees(f).to_vec();
        self.module.remove_function(f);
        self.callgraph.remove_function(f);
        self.cfgs.remove(gone);
        self.range_parts.remove(gone);
        self.lr_parts.remove(gone);
        if self.config.query_mode == QueryMode::Matrix {
            self.matrices.remove(gone);
        }
        // Shift cached component members into the new id space; the
        // removed function's own component is dropped (its membership
        // changed, so it could never match again anyway).
        self.components.retain_mut(|c| {
            if c.members.iter().any(|m| m.index() == gone) {
                return false;
            }
            for m in &mut c.members {
                if m.index() > gone {
                    *m = FuncId::new(m.index() - 1);
                }
            }
            true
        });
        self.rebuild(&[], &[gone], &old_callees);
        self.stats.edits += 1;
        Ok(())
    }

    /// Applies a batch of edits **atomically**: either every edit lands
    /// and the analysis is rebuilt once, or the session is left exactly
    /// as it was. This is the session's *only* mutation entry point —
    /// [`AnalysisSession::replace_function`],
    /// [`AnalysisSession::add_function`] and
    /// [`AnalysisSession::remove_function`] are one-element-batch sugar
    /// over it, and a one-element batch takes a targeted-verification
    /// fast path (no whole-module probe clone). All ids in the batch —
    /// replace and remove targets alike — are interpreted in the
    /// session's *pre-batch* id space; added bodies may call each other
    /// (and replaced survivors) at `pre_batch_count + k` for the `k`-th
    /// add. Removals compact ids exactly like
    /// [`Module::remove_functions`]. Returns the *post-batch* ids of
    /// the added functions, in batch order.
    ///
    /// A batch that changes nothing (empty, or replaces whose bodies
    /// equal the current ones) is one no-op edit: nothing is dirtied
    /// and every cache is carried over, observable via
    /// [`SessionStats::noop_edits`].
    ///
    /// Grouped edits can be *individually* invalid but jointly valid —
    /// e.g. a signature change plus the caller rewrites it forces, or a
    /// removal plus edits that drop the last calls to the removed
    /// function — which is exactly why verification runs once against
    /// the would-be final module rather than per edit.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoSuchFunction`] /
    /// [`SessionError::DuplicateTarget`] for malformed batches, and
    /// [`SessionError::Verify`] when the final module fails
    /// verification. The session is unchanged on every error.
    pub fn apply_edits(
        &mut self,
        mut edits: Vec<SessionEdit>,
    ) -> Result<Vec<FuncId>, SessionError> {
        if edits.len() == 1 {
            // A one-element batch can verify exactly what the edit
            // touches; the general path below pays a whole-module probe
            // clone, which at million-instruction scale dominates the
            // edit itself.
            return match edits.pop().expect("length checked") {
                SessionEdit::Replace { func, body } => {
                    self.commit_single_replace(func, body).map(|()| Vec::new())
                }
                SessionEdit::Add { body } => self.commit_single_add(body).map(|f| vec![f]),
                SessionEdit::Remove { func } => {
                    self.commit_single_remove(func).map(|()| Vec::new())
                }
            };
        }
        let nf = self.module.num_functions();
        let mut targeted = vec![false; nf];
        for e in &edits {
            if let SessionEdit::Replace { func, .. } | SessionEdit::Remove { func } = e {
                if func.index() >= nf {
                    return Err(SessionError::NoSuchFunction(*func));
                }
                if targeted[func.index()] {
                    return Err(SessionError::DuplicateTarget(*func));
                }
                targeted[func.index()] = true;
            }
        }
        let mut replaces: Vec<(FuncId, Function)> = Vec::new();
        let mut adds: Vec<Function> = Vec::new();
        let mut removes: Vec<usize> = Vec::new();
        for e in edits {
            match e {
                SessionEdit::Replace { func, body } => {
                    // Identical bodies change nothing; dropping them
                    // here keeps their parts/matrices on the reuse path.
                    if *self.module.function(func) != body {
                        replaces.push((func, body));
                    }
                }
                SessionEdit::Add { body } => adds.push(body),
                SessionEdit::Remove { func } => removes.push(func.index()),
            }
        }
        removes.sort_unstable();
        if replaces.is_empty() && adds.is_empty() && removes.is_empty() {
            self.stats.edits += 1;
            self.stats.noop_edits += 1;
            self.stats.parts_reused += nf;
            self.stats.matrices_reused += nf;
            self.stats.gr_components_reused += self.components.len();
            self.stats.gr_functions_carried += nf;
            return Ok(Vec::new());
        }
        // Verify the would-be final module on a scratch clone before
        // touching any cache: replaces, then adds, then the batch
        // removal (which reports calls into removed functions as
        // dangling-callee errors).
        let removed_ids: Vec<FuncId> = removes.iter().map(|&i| FuncId::new(i)).collect();
        {
            let mut probe = self.module.clone();
            for (f, body) in &replaces {
                probe.replace_function(*f, body.clone());
            }
            for body in &adds {
                probe.add_function(body.clone());
            }
            probe.remove_functions(&removed_ids);
            verify_module(&probe)?;
        }
        // Commit. Mirrors the single-edit paths; cannot fail past here.
        let old_callees: Vec<FuncId> = replaces
            .iter()
            .map(|(f, _)| *f)
            .chain(removed_ids.iter().copied())
            .flat_map(|f| self.callgraph.callees(f).iter().copied())
            .collect();
        let mut edited: Vec<usize> = Vec::new();
        let mut touched: Vec<FuncId> = Vec::new();
        for (f, body) in replaces {
            self.module.replace_function(f, body);
            self.cfgs[f.index()] = Cfg::new(self.module.function(f));
            touched.push(f);
            // Post-batch id: removals below shift later ids down.
            edited.push(f.index() - removes.partition_point(|&r| r < f.index()));
        }
        let num_adds = adds.len();
        for body in adds {
            let f = self.module.add_function(body);
            self.callgraph.push_function(self.module.function(f));
            self.cfgs.push(Cfg::new(self.module.function(f)));
            touched.push(f);
        }
        // Re-derive the out-edges of every touched row only now, when
        // the node count includes all of the batch's additions: a
        // replaced (or earlier-added) body may call a function added
        // later in the same batch, whose id was out of range — and
        // would be silently filtered — at its own commit point.
        for f in touched {
            self.callgraph
                .replace_function_edges(f, self.module.function(f));
        }
        for &gone in removes.iter().rev() {
            let f = FuncId::new(gone);
            self.module.remove_function(f);
            self.callgraph.remove_function(f);
            self.cfgs.remove(gone);
            self.range_parts.remove(gone);
            self.lr_parts.remove(gone);
            if self.config.query_mode == QueryMode::Matrix {
                self.matrices.remove(gone);
            }
            self.components.retain_mut(|c| {
                if c.members.iter().any(|m| m.index() == gone) {
                    return false;
                }
                for m in &mut c.members {
                    if m.index() > gone {
                        *m = FuncId::new(m.index() - 1);
                    }
                }
                true
            });
        }
        // Adds landed at nf..nf+num_adds pre-removal; every removal is
        // below nf, so post-batch they sit at the tail, in order.
        let new_nf = self.module.num_functions();
        let added_ids: Vec<FuncId> = (new_nf - num_adds..new_nf).map(FuncId::new).collect();
        edited.extend(added_ids.iter().map(|f| f.index()));
        edited.sort_unstable();
        self.rebuild(&edited, &removes, &old_callees);
        self.stats.edits += 1;
        Ok(added_ids)
    }

    /// Applies a [`sra_lang::SourceDiff`] — the output of
    /// [`sra_lang::SourceProgram::apply_edit`] — to the session. The
    /// diff's id-space contract matches [`AnalysisSession::apply_edits`]
    /// exactly: replaced/removed ids are pre-edit ids and re-lowered
    /// bodies call additions at `pre_edit_count + k`, so an
    /// [`sra_lang::SourceDiff::Incremental`] maps 1:1 onto a batch. A
    /// [`sra_lang::SourceDiff::Noop`] (whitespace, comments,
    /// reordering, …) takes the no-op fast path — zero re-analysis,
    /// every cache carried over. A
    /// [`sra_lang::SourceDiff::FullRebuild`] (the globals changed)
    /// replaces the whole session state from scratch, counted honestly
    /// as one edit that re-analyzed everything.
    ///
    /// # Errors
    ///
    /// [`SessionError::Verify`] when the diffed module does not verify
    /// against this session's module (e.g. the diff came from a
    /// [`sra_lang::SourceProgram`] that never matched the session);
    /// the session is unchanged on error.
    pub fn apply_source_edit(&mut self, diff: sra_lang::SourceDiff) -> Result<(), SessionError> {
        match diff {
            sra_lang::SourceDiff::Noop => self.apply_edits(Vec::new()).map(|_| ()),
            sra_lang::SourceDiff::Incremental {
                replaced,
                added,
                removed,
                ..
            } => {
                let mut edits: Vec<SessionEdit> =
                    Vec::with_capacity(replaced.len() + added.len() + removed.len());
                edits.extend(
                    replaced
                        .into_iter()
                        .map(|(func, body)| SessionEdit::Replace { func, body }),
                );
                edits.extend(added.into_iter().map(|body| SessionEdit::Add { body }));
                edits.extend(removed.into_iter().map(|func| SessionEdit::Remove { func }));
                self.apply_edits(edits).map(|_| ())
            }
            sra_lang::SourceDiff::FullRebuild { module } => {
                let mut fresh = Self::with_config(module, self.config)?;
                let new_nf = fresh.module.num_functions();
                fresh.stats = self.stats;
                fresh.stats.edits += 1;
                fresh.stats.parts_reanalyzed += new_nf;
                fresh.stats.gr_components_solved += fresh.components.len();
                fresh.stats.gr_functions_resolved += new_nf;
                if fresh.config.query_mode == QueryMode::Matrix {
                    fresh.stats.matrices_rebuilt += new_nf;
                }
                *self = fresh;
                Ok(())
            }
        }
    }

    /// Recomputes the analysis after a structural update. `edited`
    /// holds the current-id indices of replaced/added functions;
    /// `removed` the (sorted, pre-batch) old indices removals vacated
    /// (for the id-shift remaps of cached state); `old_callees` the
    /// pre-update callees of every replaced or removed function, in
    /// the old id space (their pointer-formal ones read the edit).
    fn rebuild(&mut self, edited: &[usize], removed: &[usize], old_callees: &[FuncId]) {
        debug_assert!(removed.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        let nf = self.module.num_functions();
        // Functions below `survivors` existed before the update (the
        // removals already compacted the part caches; the additions
        // are not spliced in yet); the rest were added by it.
        let survivors = self.range_parts.len();
        let is_edited = |i: usize| edited.contains(&i);
        // Old-space metadata needed for the rebase/remap maps, captured
        // before any cache is touched. `old_of[i]` translates a current
        // id back into the pre-update id space: the surviving old ids,
        // in order, skipping every removed slot.
        let old_of: Vec<usize> = (0..nf + removed.len())
            .filter(|o| removed.binary_search(o).is_err())
            .collect();
        let old_fid_of = |i: usize| old_of[i];
        // The spans are indexed by OLD function ids: the removals
        // already compacted `range_parts`, so re-open a zero-budget gap
        // at each vacated slot (its exact old budget is gone with the
        // part, but a zero-budget span at the block's old start makes
        // every symbol it minted correctly unmappable). Ascending
        // insertion order keeps earlier gaps' positions stable.
        let mut old_range_spans: Vec<(u32, u32)> = self
            .range_parts
            .iter()
            .map(|p| (p.first_symbol, p.symbol_names.len() as u32))
            .collect();
        for &gone in removed {
            let gap_first = if gone == 0 {
                0
            } else {
                let (first, budget) = old_range_spans[gone - 1];
                first + budget
            };
            old_range_spans.insert(gone, (gap_first, 0));
        }
        let old_locs = self.rbaa.gr().locs();

        // -- 1. Function parts: recompute edited, rebase the rest. ----
        let t_parts = std::time::Instant::now();
        let m = &self.module;
        let config = self.config;
        let recomputed: Vec<(usize, RangePart, LrPart)> = {
            let todo: Vec<usize> = (0..nf).filter(|&i| is_edited(i)).collect();
            let parts = self.pool.run_indexed(todo.len(), |k| {
                let i = todo[k];
                let fid = FuncId::new(i);
                (
                    sra_range::analyze_function_part(m.function(fid), config.range, 0),
                    lr::analyze_function_part(m, fid, 0),
                )
            });
            todo.into_iter()
                .zip(parts)
                .map(|(i, (r, l))| (i, r, l))
                .collect()
        };
        // Splice recomputed parts in (added functions extend the vecs).
        for (i, r, l) in recomputed {
            if i < self.range_parts.len() {
                self.range_parts[i] = r;
                self.lr_parts[i] = l;
            } else {
                debug_assert_eq!(i, self.range_parts.len(), "functions are appended in order");
                self.range_parts.push(r);
                self.lr_parts.push(l);
            }
        }
        // Prefix-sum the new symbol bases and rebase every part that
        // moved — exactly the block assignment `analyze_parallel` uses.
        let mut range_base = 0u32;
        let mut lr_base = 0u32;
        for i in 0..nf {
            let (rp, lp) = (&mut self.range_parts[i], &mut self.lr_parts[i]);
            let moved = rp.first_symbol != range_base || lp.first_symbol != lr_base;
            rp.rebase(range_base);
            lp.rebase(lr_base);
            range_base += rp.symbol_names.len() as u32;
            lr_base += lp.symbol_names.len() as u32;
            if is_edited(i) {
                self.stats.parts_reanalyzed += 1;
            } else {
                self.stats.parts_reused += 1;
                if moved {
                    self.stats.parts_rebased += 1;
                }
            }
        }
        let parts_ns = ns_since(t_parts);
        let t_assemble = std::time::Instant::now();
        let ranges = RangeAnalysis::from_parts_on(self.range_parts.clone(), &self.pool);
        let lr = LrAnalysis::from_parts_on(self.lr_parts.clone(), &self.pool);
        let assemble_ns = ns_since(t_assemble);

        // -- 2. The old→new renaming maps for cached GR states. -------
        let t_gr = std::time::Instant::now();
        let locs = LocTable::build(m);
        let new_range_spans: Vec<(u32, u32)> = self
            .range_parts
            .iter()
            .map(|p| (p.first_symbol, p.symbol_names.len() as u32))
            .collect();
        // Old symbol → owning old function, by binary search over the
        // old block spans (which stay sorted even when a removal left a
        // gap).
        let old_owner = |s: Symbol| -> Option<usize> {
            let i = old_range_spans.partition_point(|&(first, _)| first <= s.index());
            let i = i.checked_sub(1)?;
            let (first, budget) = old_range_spans[i];
            (s.index() < first + budget).then_some(i)
        };
        // A current id for an old function id (None: a removed one).
        let new_fid_of = |old: usize| -> Option<usize> {
            match removed.binary_search(&old) {
                Ok(_) => None,
                Err(k) => Some(old - k),
            }
        };
        let map_symbol = |s: Symbol| -> Option<Symbol> {
            let old = old_owner(s)?;
            let new = new_fid_of(old)?;
            if is_edited(new) {
                // The block was re-minted; old symbols have no
                // guaranteed counterpart.
                return None;
            }
            let (old_first, _) = old_range_spans[old];
            let (new_first, _) = new_range_spans[new];
            Some(Symbol::new(s.index() - old_first + new_first))
        };
        let map_loc = |l: LocId| -> Option<LocId> {
            let site = old_locs.site(l);
            match (site.func, site.value) {
                (None, None) => {
                    // A global: globals are not editable, so the fresh
                    // table assigns them the same leading ids.
                    Some(l)
                }
                (Some(fid), Some(v)) => {
                    let new = new_fid_of(fid.index())?;
                    if is_edited(new) {
                        return None;
                    }
                    locs.loc_of_value(FuncId::new(new), v)
                }
                _ => None,
            }
        };
        // The old GR canonical arena stays alive through the rebuild:
        // clean components' cached states are *imported* out of it into
        // the fresh canonical arena under `map_symbol`/`map_loc`.
        let old_gr_arena = self.rbaa.gr().arena_arc();

        // -- 3. GR: re-solve each edit's slice, carry over the rest. ---
        // See the slice argument in `GrSolver`'s docs.
        let callers = gr::build_callers(m);
        let graph = &self.callgraph;
        let cond = Condensation::build(graph);
        let new_components = graph.weak_components();
        let reads = gr::Reads::build(m, &callers);
        let old_cond = &self.cond;
        let old_scc_of = |old: usize| -> Vec<usize> {
            old_cond
                .members(old_cond.scc_of(FuncId::new(old)))
                .iter()
                .filter_map(|o| new_fid_of(o.index()))
                .collect()
        };
        let mut seeds: Vec<FuncId> = old_callees
            .iter()
            .filter_map(|o| new_fid_of(o.index()))
            .map(FuncId::new)
            .filter(|&h| gr::has_ptr_formal(m, h))
            .collect();
        for &i in edited {
            let e = FuncId::new(i);
            seeds.push(e);
            seeds.extend_from_slice(reads.readers(e));
            let new_scc = cond.members(cond.scc_of(e));
            let old_scc = if i < survivors {
                old_scc_of(old_fid_of(i))
            } else {
                Vec::new()
            };
            if !new_scc
                .iter()
                .map(|f| f.index())
                .eq(old_scc.iter().copied())
            {
                seeds.extend_from_slice(new_scc);
                seeds.extend(old_scc.into_iter().map(FuncId::new));
            }
        }
        for &gone in removed {
            seeds.extend(old_scc_of(gone).into_iter().map(FuncId::new));
        }
        let in_slice = reads.slice(&cond, &seeds);
        let old_trip = self.gr_trip;
        let gr_config = GrConfig {
            threads: config.threads,
            ..config.gr
        };
        let mut solver = GrSolver::new(
            m, &ranges, &locs, gr_config, &callers, &self.cfgs, cond, &self.pool,
        );

        // Pair each new component with a clean cache when membership
        // matches exactly and no member was edited (then no member is
        // in the slice either).
        let mut old_caches: Vec<Option<CompCache>> = std::mem::take(&mut self.components)
            .into_iter()
            .map(Some)
            .collect();
        let mut matched: Vec<Option<CompCache>> = new_components
            .iter()
            .map(|members| {
                if members.iter().any(|f| is_edited(f.index())) {
                    return None;
                }
                let slot = old_caches
                    .iter_mut()
                    .find(|c| c.as_ref().is_some_and(|c| &c.members == members))?;
                debug_assert!(members.iter().all(|f| !in_slice[f.index()]));
                slot.take()
            })
            .collect();

        // Phase 1: ascend each dirty component's slice — or all of it,
        // when a function outside the slice last ran in a component
        // whose ascent tripped, or when the slice's own ascent trips.
        // Clean components contribute their cached cap metadata without
        // any sweeping. `slices[k]` is the restricted schedule of a
        // sliced component.
        let schedules = solver.component_schedules(&new_components);
        let old_settle = |i: usize| self.gr_settle[old_fid_of(i)];
        let mut slices: Vec<Option<Vec<Vec<u32>>>> = vec![None; new_components.len()];
        let mut trip = false;
        let mut max_sweeps = 1u32;
        let mut ascent: Vec<(u32, bool)> = Vec::with_capacity(new_components.len());
        for (k, members) in new_components.iter().enumerate() {
            let (sweeps, tripped) = match &matched[k] {
                Some(cache) => (cache.sweeps, cache.tripped),
                None => {
                    let mut carried = members.iter().filter(|f| !in_slice[f.index()]).peekable();
                    let sliceable = carried.peek().is_some()
                        && carried.clone().all(|f| old_settle(f.index()) != TRIPPED);
                    let mut sliced = None;
                    if sliceable {
                        let levels = GrSolver::restrict_schedule(&schedules[k], |scc| {
                            in_slice[solver.cond.members(scc)[0].index()]
                        });
                        for &f in members.iter().filter(|f| in_slice[f.index()]) {
                            solver.seed_function(f);
                        }
                        let (sweeps, tripped) = solver.ascend_component(&levels);
                        if !tripped {
                            let rest = carried.map(|f| old_settle(f.index()) + 1).max();
                            sliced = Some(sweeps.max(rest.unwrap_or(1)));
                            slices[k] = Some(levels);
                        }
                    }
                    match sliced {
                        Some(sweeps) => (sweeps, false),
                        None => {
                            for &f in members {
                                solver.seed_function(f);
                            }
                            solver.ascend_component(&schedules[k])
                        }
                    }
                }
            };
            trip |= tripped;
            max_sweeps = max_sweeps.max(sweeps);
            ascent.push((sweeps, tripped));
        }

        // Phase 2: finish every component under the shared trip flag.
        // `CLEAN` functions carry their old fixpoint over (imported
        // into the fresh canonical arena below); everything else is
        // read back from the solver. A cached fixpoint finished under
        // the other flag is re-solved whole, from seeds.
        const DIRTY: u8 = 0;
        const CLEAN: u8 = 1;
        let mut disposition: Vec<u8> = vec![DIRTY; nf];
        let mut new_caches: Vec<CompCache> = Vec::with_capacity(new_components.len());
        for (k, members) in new_components.iter().enumerate() {
            let (sweeps, tripped) = ascent[k];
            let resolve_whole = |solver: &mut GrSolver| {
                for &f in members {
                    solver.seed_function(f);
                }
                let redo = solver.ascend_component(&schedules[k]);
                debug_assert_eq!(redo, (sweeps, tripped), "ascent is context-free");
                solver.finish_component(&schedules[k], members, trip);
            };
            let mut carried = 0;
            match (matched[k].take(), slices[k].take()) {
                (Some(cache), _) if old_trip == trip => {
                    for &f in members {
                        disposition[f.index()] = CLEAN;
                    }
                    self.stats.gr_components_reused += 1;
                    self.stats.gr_functions_carried += members.len();
                    new_caches.push(cache);
                    continue;
                }
                (Some(_), _) => {
                    resolve_whole(&mut solver);
                    self.stats.gr_components_refinished += 1;
                }
                (None, Some(levels)) if old_trip == trip => {
                    let solved: Vec<FuncId> = members
                        .iter()
                        .copied()
                        .filter(|f| in_slice[f.index()])
                        .collect();
                    solver.finish_component(&levels, &solved, trip);
                    for &f in members.iter().filter(|f| !in_slice[f.index()]) {
                        disposition[f.index()] = CLEAN;
                        carried += 1;
                    }
                    self.stats.gr_components_solved += 1;
                }
                (None, Some(_)) => {
                    resolve_whole(&mut solver);
                    self.stats.gr_components_solved += 1;
                }
                (None, None) => {
                    solver.finish_component(&schedules[k], members, trip);
                    self.stats.gr_components_solved += 1;
                }
            }
            self.stats.gr_functions_carried += carried;
            self.stats.gr_functions_resolved += members.len() - carried;
            if tripped {
                for &f in members {
                    solver.settle[f.index()] = TRIPPED;
                }
            }
            new_caches.push(CompCache {
                members: members.clone(),
                sweeps,
                tripped,
            });
        }
        self.components = new_caches;
        self.gr_trip = trip;
        let settle: Vec<u32> = (0..nf)
            .map(|i| match disposition[i] {
                CLEAN => old_settle(i),
                _ => solver.settle[i],
            })
            .collect();
        self.gr_settle = settle;

        // Assemble the per-function state vectors into one fresh
        // canonical arena, in function order — the exact import a
        // scratch analysis performs, so the assembled ids match scratch
        // id-for-id. Re-solved functions import out of the solver arena
        // (identity renaming); carried ones import their cached states
        // out of the *old* canonical arena under the edit's monotone
        // symbol/location renaming — the arena-level replacement for
        // the value-level state rebase.
        let GrSolver {
            states: solver_states,
            arena: solver_arena,
            cond,
            ..
        } = solver;
        self.cond = cond;
        let mut gr_arena = ExprArena::new();
        let mut dirty_map = ImportMap::default();
        let mut clean_map = TryImportMap::default();
        let rename_clean = |s: Symbol| map_symbol(s);
        let mut solver_states = solver_states.into_iter().map(Some).collect::<Vec<_>>();
        let mut gr_states: Vec<std::sync::Arc<Vec<PtrState>>> = Vec::with_capacity(nf);
        for (i, &dispo) in disposition.iter().enumerate() {
            if dispo == CLEAN {
                let old = self.rbaa.gr().function_states(FuncId::new(old_fid_of(i)));
                gr_states.push(std::sync::Arc::new(
                    old.iter()
                        .map(|s| match s {
                            PtrState::Top => PtrState::Top,
                            PtrState::Map(m) => PtrState::Map(
                                m.iter()
                                    .map(|(l, &r)| {
                                        let loc = map_loc(*l)
                                            .expect("carried states only mention unedited ids");
                                        let r = gr_arena
                                            .try_import_range(
                                                &old_gr_arena,
                                                r,
                                                &rename_clean,
                                                &mut clean_map,
                                            )
                                            .expect("carried states only mention unedited ids");
                                        (loc, r)
                                    })
                                    .collect(),
                            ),
                        })
                        .collect(),
                ));
            } else {
                let states = solver_states[i].take().expect("dirty slot solved once");
                gr_states.push(std::sync::Arc::new(
                    states
                        .iter()
                        .map(|s| {
                            gr::import_ptr_state(
                                &mut gr_arena,
                                &solver_arena,
                                s,
                                &|s| s,
                                &mut dirty_map,
                            )
                        })
                        .collect(),
                ));
            }
        }

        let gr_ns = ns_since(t_gr);
        let t_matrices = std::time::Instant::now();

        // -- 4. Matrix invalidation: a carried function keeps its -----
        // matrix outright (verdicts are invariant under the monotone
        // renamings); a re-solved one keeps it iff its GR states came
        // out unchanged up to the renaming. The
        // comparison walks old and new arena nodes in lockstep
        // (`range_eq_mapped`), materializing nothing; unmappable old
        // symbols land on an out-of-range sentinel that can never
        // compare equal. Demand mode holds no matrices, so there is
        // nothing to invalidate — the demand cache is dropped wholesale
        // below.
        let mut rebuild: Vec<usize> = Vec::new();
        if self.config.query_mode == QueryMode::Matrix {
            let sentinel_symbol = Symbol::new(u32::MAX);
            let cmp_symbol = |s: Symbol| map_symbol(s).unwrap_or(sentinel_symbol);
            let state_eq = |old: &PtrState, new: &PtrState| -> bool {
                match (old, new) {
                    (PtrState::Top, PtrState::Top) => true,
                    (PtrState::Map(a), PtrState::Map(b)) => {
                        a.len() == b.len()
                            && a.iter().zip(b).all(|((la, ra), (lb, rb))| {
                                map_loc(*la) == Some(*lb)
                                    && old_gr_arena.range_eq_mapped(
                                        *ra,
                                        &gr_arena,
                                        *rb,
                                        &cmp_symbol,
                                    )
                            })
                    }
                    _ => false,
                }
            };
            for i in 0..nf {
                if is_edited(i) || i >= self.matrices.len() {
                    rebuild.push(i);
                    continue;
                }
                if disposition[i] != DIRTY {
                    self.stats.matrices_reused += 1;
                    continue;
                }
                let fid = FuncId::new(i);
                let old_fid = FuncId::new(old_fid_of(i));
                let same = self.module.function(fid).value_ids().all(|v| {
                    state_eq(
                        self.rbaa.gr().raw_state(old_fid, v),
                        &gr_states[i][v.index()],
                    )
                });
                if same {
                    self.stats.matrices_reused += 1;
                } else {
                    rebuild.push(i);
                }
            }
        }

        // -- 5. Assemble and rebuild the invalidated matrices. --------
        gr_arena.absorb_op_stats(&solver_arena);
        let gr = GrAnalysis::from_raw(locs, gr_states, std::sync::Arc::new(gr_arena), max_sweeps);
        let fresh = RbaaAnalysis::from_pieces(ranges, gr, lr);
        // The superseded analysis is dropped here, its old GR arena
        // with it; timed on its own so the edit decomposes honestly.
        let t_teardown = std::time::Instant::now();
        drop((std::mem::replace(&mut self.rbaa, fresh), old_gr_arena));
        let teardown_ns = ns_since(t_teardown);
        // Any grown demand cache indexes the superseded analysis.
        *demand_lock(&self.demand) = None;
        self.phases = PhaseStats {
            parts_ns,
            assemble_ns,
            gr_ns,
            teardown_ns,
            ..PhaseStats::default()
        };
        if self.config.query_mode == QueryMode::Demand {
            // No matrices in demand mode — queries regrow the cache.
            return;
        }
        let rbaa = &self.rbaa;
        let m = &self.module;
        // One invalidated matrix gets the whole worker budget for its
        // signature triangle (`run_indexed` of one job runs inline, so
        // the pool is free for the tiles); several share the pool
        // function-wise (tiling inside each would oversubscribe it).
        // A full rebuild — construction, or a whole-module edit — runs
        // the module sweep, whose chunks reuse scratch overlays (and
        // their accumulated comparison memos) across functions.
        let single = rebuild.len() == 1;
        let pool = &self.pool;
        let sweep =
            rebuild.len() == m.num_functions() && rebuild.iter().enumerate().all(|(k, &i)| k == i);
        let fresh = if sweep {
            AliasMatrix::build_all_on(rbaa, m, pool)
        } else {
            pool.run_indexed(rebuild.len(), |k| {
                let fid = FuncId::new(rebuild[k]);
                if single {
                    AliasMatrix::build_with_on(rbaa, m, fid, pool)
                } else {
                    AliasMatrix::build(rbaa, m, fid)
                }
            })
        };
        self.stats.matrices_rebuilt += rebuild.len();
        let mut slots: Vec<Option<std::sync::Arc<AliasMatrix>>> =
            std::mem::take(&mut self.matrices)
                .into_iter()
                .map(Some)
                .collect();
        slots.resize_with(nf, || None);
        for (i, mx) in rebuild.into_iter().zip(fresh) {
            slots[i] = Some(std::sync::Arc::new(mx));
        }
        self.matrices = slots
            .into_iter()
            .map(|s| s.expect("every function has a matrix"))
            .collect();
        self.phases.matrices_ns = ns_since(t_matrices).saturating_sub(teardown_ns);
    }
}

// ---------------------------------------------------------------------
// Warm-start persistence (see [`crate::persist`] for the format).
// ---------------------------------------------------------------------

impl AnalysisSession {
    /// Serializes the complete session — module, per-function parts,
    /// GR fixpoint, component caches, matrices or demand cache, and
    /// counters — as a versioned, checksummed snapshot stream.
    ///
    /// Saves are byte-deterministic: saving the same session twice
    /// produces identical bytes (hash maps are emitted in sorted
    /// order), so snapshots can be content-addressed.
    pub fn save<W: std::io::Write>(&self, w: &mut W) -> Result<(), PersistError> {
        persist::write_header(w, &persist::MAGIC)?;

        let mut enc = persist::Enc::new();
        persist::encode_config(&mut enc, &self.config);
        enc.finish_section(w, persist::tag::CONFIG)?;

        let mut enc = persist::Enc::new();
        persist::encode_module(&mut enc, &self.module, &self.callgraph);
        enc.finish_section(w, persist::tag::MODULE)?;

        // Per-function items are length-framed (format v2) so the
        // loader can split each section into independent slices and
        // decode them on its worker pool.
        let mut enc = persist::Enc::new();
        enc.usize(self.range_parts.len());
        for p in &self.range_parts {
            enc.nested(|e| persist::encode_range_part(e, p));
        }
        enc.finish_section(w, persist::tag::RANGE_PARTS)?;

        let mut enc = persist::Enc::new();
        enc.usize(self.lr_parts.len());
        for p in &self.lr_parts {
            enc.nested(|e| persist::encode_lr_part(e, p));
        }
        enc.finish_section(w, persist::tag::LR_PARTS)?;

        let mut enc = persist::Enc::new();
        let gr = self.rbaa.gr();
        persist::encode_arena(&mut enc, gr.arena());
        enc.u32(gr.ascending_sweeps());
        enc.usize(self.module.num_functions());
        for f in self.module.func_ids() {
            let states = gr.function_states(f);
            enc.nested(|e| {
                e.usize(states.len());
                for st in states.iter() {
                    persist::encode_ptr_state(e, st);
                }
            });
        }
        enc.finish_section(w, persist::tag::GR)?;

        let mut enc = persist::Enc::new();
        enc.usize(self.components.len());
        for c in &self.components {
            enc.usize(c.members.len());
            for &f in &c.members {
                enc.u32(f.index() as u32);
            }
            enc.u32(c.sweeps);
            enc.bool(c.tripped);
        }
        // Format v3: the module-wide trip flag and, per function, the
        // last changing ascending sweep — what keeps the first edit
        // after a load sliced.
        enc.bool(self.gr_trip);
        for &settle in &self.gr_settle {
            enc.u32(settle);
        }
        enc.finish_section(w, persist::tag::COMPONENTS)?;

        let mut enc = persist::Enc::new();
        enc.usize(self.matrices.len());
        for mx in &self.matrices {
            enc.nested(|e| mx.encode(e));
        }
        enc.finish_section(w, persist::tag::MATRICES)?;

        let mut enc = persist::Enc::new();
        match &*demand_lock(&self.demand) {
            None => enc.bool(false),
            Some(cache) => {
                enc.bool(true);
                cache.encode(&mut enc);
            }
        }
        enc.finish_section(w, persist::tag::DEMAND)?;

        let mut enc = persist::Enc::new();
        let s = &self.stats;
        for v in [
            s.edits,
            s.noop_edits,
            s.parts_reanalyzed,
            s.parts_reused,
            s.parts_rebased,
            s.gr_components_solved,
            s.gr_components_reused,
            s.gr_components_refinished,
            s.gr_functions_resolved,
            s.gr_functions_carried,
            s.matrices_rebuilt,
            s.matrices_reused,
        ] {
            enc.usize(v);
        }
        enc.finish_section(w, persist::tag::STATS)?;

        persist::write_end(w)
    }

    /// Reconstructs a session from a snapshot stream written by
    /// [`AnalysisSession::save`].
    ///
    /// Every decoded id is validated before it is trusted, the module
    /// is re-verified, the embedded call graph is cross-checked against
    /// a rebuild, and a corrupted, truncated or version-skewed stream
    /// returns a structured [`PersistError`] — never a panic and never
    /// a wrong verdict. Purely memoised state (CFGs, the location
    /// table, demand-cache overlay arenas) is rebuilt rather than
    /// deserialized. If the saved [`AnalysisConfig::load_verify`] knob
    /// is set, the loaded analysis is additionally compared state-by-
    /// state against a scratch re-analysis of the module
    /// ([`PersistError::VerifyFailed`] on any mismatch).
    pub fn load<R: std::io::Read>(r: &mut R) -> Result<Self, PersistError> {
        let t_load = std::time::Instant::now();
        persist::read_header(r, &persist::MAGIC)?;

        let buf = persist::expect_section(r, persist::tag::CONFIG)?;
        let mut dec = persist::Dec::new(&buf);
        let config = persist::decode_config(&mut dec)?;
        dec.finish()?;
        // The session's long-lived pool, spawned as soon as the width
        // is known: the per-function part, GR-state and matrix slices
        // below decode on it, and it is moved into the session at the
        // end.
        let pool = pool::WorkerPool::new(config.threads);

        let buf = persist::expect_section(r, persist::tag::MODULE)?;
        let mut dec = persist::Dec::new(&buf);
        let (module, callgraph) = persist::decode_module(&mut dec)?;
        dec.finish()?;
        let nf = module.num_functions();

        // Splits a section into its per-item slices (format v2 frames
        // every item), so item decodes are independent pool jobs.
        // Validation that chains across items (symbol-base accumulation)
        // stays serial below; errors surface in index order.
        fn slices<'a>(mut dec: persist::Dec<'a>, n: usize) -> Result<Vec<&'a [u8]>, PersistError> {
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(dec.bytes()?);
            }
            dec.finish()?;
            Ok(out)
        }

        let buf = persist::expect_section(r, persist::tag::RANGE_PARTS)?;
        let mut dec = persist::Dec::new(&buf);
        if dec.len(1)? != nf {
            return Err(persist::corrupt(
                "range-part table does not match the module",
            ));
        }
        let chunks = slices(dec, nf)?;
        let decoded = pool.run_indexed(nf, |i| {
            let mut d = persist::Dec::new(chunks[i]);
            let p = persist::decode_range_part(&mut d)?;
            d.finish()?;
            Ok::<_, PersistError>(p)
        });
        let mut range_parts = Vec::with_capacity(nf);
        let mut base = 0u32;
        for (i, p) in decoded.into_iter().enumerate() {
            let p = p?;
            if p.ranges.len() != module.function(FuncId::new(i)).num_values()
                || p.first_symbol != base
            {
                return Err(persist::corrupt("range part does not match its function"));
            }
            base += p.symbol_names.len() as u32;
            range_parts.push(p);
        }

        let buf = persist::expect_section(r, persist::tag::LR_PARTS)?;
        let mut dec = persist::Dec::new(&buf);
        if dec.len(1)? != nf {
            return Err(persist::corrupt("LR-part table does not match the module"));
        }
        let chunks = slices(dec, nf)?;
        let decoded = pool.run_indexed(nf, |i| {
            let func = module.function(FuncId::new(i));
            let mut d = persist::Dec::new(chunks[i]);
            let p = persist::decode_lr_part(
                &mut d,
                func.num_values(),
                func.num_blocks(),
                module.num_globals(),
            )?;
            d.finish()?;
            Ok::<_, PersistError>(p)
        });
        let mut lr_parts = Vec::with_capacity(nf);
        let mut base = 0u32;
        for p in decoded {
            let p = p?;
            if p.first_symbol != base {
                return Err(persist::corrupt("LR part does not match its function"));
            }
            base += p.symbol_names.len() as u32;
            lr_parts.push(p);
        }

        let buf = persist::expect_section(r, persist::tag::GR)?;
        let mut dec = persist::Dec::new(&buf);
        let gr_arena = persist::decode_arena(&mut dec)?;
        let ascending_sweeps = dec.u32()?;
        let locs = LocTable::build(&module);
        if dec.len(8)? != nf {
            return Err(persist::corrupt("GR state table does not match the module"));
        }
        let chunks = slices(dec, nf)?;
        let decoded = pool.run_indexed(nf, |i| {
            let nv = module.function(FuncId::new(i)).num_values();
            let mut d = persist::Dec::new(chunks[i]);
            if d.len(1)? != nv {
                return Err(persist::corrupt("GR states do not match their function"));
            }
            let mut states = Vec::with_capacity(nv);
            for _ in 0..nv {
                states.push(persist::decode_ptr_state(&mut d, locs.len(), &gr_arena)?);
            }
            d.finish()?;
            Ok(std::sync::Arc::new(states))
        });
        let mut gr_states = Vec::with_capacity(nf);
        for states in decoded {
            gr_states.push(states?);
        }
        let gr = GrAnalysis::from_raw(
            locs,
            gr_states,
            std::sync::Arc::new(gr_arena),
            ascending_sweeps,
        );

        let buf = persist::expect_section(r, persist::tag::COMPONENTS)?;
        let mut dec = persist::Dec::new(&buf);
        let n_comps = dec.len(10)?;
        let mut components = Vec::with_capacity(n_comps);
        for _ in 0..n_comps {
            let n_members = dec.len(4)?;
            let mut members = Vec::with_capacity(n_members);
            let mut prev: Option<usize> = None;
            for _ in 0..n_members {
                let f = dec.u32()? as usize;
                if f >= nf || prev.is_some_and(|p| p >= f) {
                    return Err(persist::corrupt("component members are invalid"));
                }
                prev = Some(f);
                members.push(FuncId::new(f));
            }
            components.push(CompCache {
                members,
                sweeps: dec.u32()?,
                tripped: dec.bool()?,
            });
        }
        let gr_trip = dec.bool()?;
        let mut gr_settle = Vec::with_capacity(nf);
        for _ in 0..nf {
            let settle = dec.u32()?;
            if settle > config.gr.max_ascending_sweeps && settle != TRIPPED {
                return Err(persist::corrupt("GR sweep record is out of range"));
            }
            gr_settle.push(settle);
        }
        dec.finish()?;

        let buf = persist::expect_section(r, persist::tag::MATRICES)?;
        let mut dec = persist::Dec::new(&buf);
        let n_matrices = dec.len(8)?;
        let expected = if config.query_mode == QueryMode::Matrix {
            nf
        } else {
            0
        };
        if n_matrices != expected {
            return Err(persist::corrupt(
                "matrix table does not match the query mode",
            ));
        }
        let chunks = slices(dec, n_matrices)?;
        let decoded = pool.run_indexed(n_matrices, |i| {
            let ptrs = crate::query::pointer_values(&module, FuncId::new(i));
            let mut d = persist::Dec::new(chunks[i]);
            let mx = AliasMatrix::decode(&mut d, &ptrs)?;
            d.finish()?;
            Ok::<_, PersistError>(std::sync::Arc::new(mx))
        });
        let mut matrices = Vec::with_capacity(n_matrices);
        for mx in decoded {
            matrices.push(mx?);
        }

        let ranges = RangeAnalysis::from_parts_on(range_parts.clone(), &pool);
        let lr = LrAnalysis::from_parts_on(lr_parts.clone(), &pool);
        let rbaa = RbaaAnalysis::from_pieces(ranges, gr, lr);

        let buf = persist::expect_section(r, persist::tag::DEMAND)?;
        let mut dec = persist::Dec::new(&buf);
        let demand = if dec.bool()? {
            if config.query_mode != QueryMode::Demand {
                return Err(persist::corrupt(
                    "demand cache saved by a matrix-mode session",
                ));
            }
            Some(DemandCache::decode(&mut dec, &rbaa, &module)?)
        } else {
            None
        };
        dec.finish()?;

        let buf = persist::expect_section(r, persist::tag::STATS)?;
        let mut dec = persist::Dec::new(&buf);
        let stats = SessionStats {
            edits: dec.usize()?,
            noop_edits: dec.usize()?,
            parts_reanalyzed: dec.usize()?,
            parts_reused: dec.usize()?,
            parts_rebased: dec.usize()?,
            gr_components_solved: dec.usize()?,
            gr_components_reused: dec.usize()?,
            gr_components_refinished: dec.usize()?,
            gr_functions_resolved: dec.usize()?,
            gr_functions_carried: dec.usize()?,
            matrices_rebuilt: dec.usize()?,
            matrices_reused: dec.usize()?,
        };
        dec.finish()?;

        let buf = persist::expect_section(r, persist::tag::END)?;
        persist::Dec::new(&buf).finish()?;

        let cfgs = gr::build_cfgs(&module);
        let session = AnalysisSession {
            module,
            config,
            range_parts,
            lr_parts,
            cfgs,
            cond: Condensation::build(&callgraph),
            callgraph,
            components,
            gr_trip,
            gr_settle,
            rbaa,
            matrices,
            demand: Mutex::new(demand),
            pool,
            phases: PhaseStats {
                load_ns: ns_since(t_load),
                ..PhaseStats::default()
            },
            stats,
        };
        if config.load_verify {
            session.verify_against_scratch()?;
        }
        Ok(session)
    }

    /// Compares the loaded analysis against a scratch
    /// [`analyze_parallel`](crate::analyze_parallel) of the same module
    /// — the cross-arena `eq_mapped` lockstep the incremental rails
    /// use, under the identity symbol renaming (loaded and scratch
    /// analyses assign the same symbol-id blocks by construction).
    ///
    /// [`AnalysisSession::load`] runs this automatically when the
    /// snapshot's [`AnalysisConfig::load_verify`] flag is set; calling
    /// it directly lets a harness time unverified loads and still
    /// prove one of them identical to a scratch re-analysis.
    ///
    /// # Errors
    ///
    /// [`PersistError::VerifyFailed`] naming the first `(function,
    /// value)` whose bootstrap range, GR state or LR state diverges.
    pub fn verify_against_scratch(&self) -> Result<(), PersistError> {
        let scratch = crate::analyze_parallel(&self.module, self.config);
        let ident = |s: Symbol| s;
        let fail = |f: FuncId, v: ValueId, what: &str| {
            Err(PersistError::VerifyFailed(format!(
                "{what} of {f}:{v} differs from scratch re-analysis"
            )))
        };
        for f in self.module.func_ids() {
            for v in self.module.function(f).value_ids() {
                let (a, b) = (self.rbaa.ranges(), scratch.ranges());
                if !a
                    .arena()
                    .range_eq_mapped(a.range(f, v), b.arena(), b.range(f, v), &ident)
                {
                    return fail(f, v, "bootstrap range");
                }
                let same_gr = match (self.rbaa.gr().raw_state(f, v), scratch.gr().raw_state(f, v)) {
                    (PtrState::Top, PtrState::Top) => true,
                    (PtrState::Map(a), PtrState::Map(b)) => {
                        a.len() == b.len()
                            && a.iter().zip(b).all(|((la, ra), (lb, rb))| {
                                la == lb
                                    && self.rbaa.gr().arena().range_eq_mapped(
                                        *ra,
                                        scratch.gr().arena(),
                                        *rb,
                                        &ident,
                                    )
                            })
                    }
                    _ => false,
                };
                if !same_gr {
                    return fail(f, v, "GR state");
                }
                let same_lr = match (self.rbaa.lr().raw_state(f, v), scratch.lr().raw_state(f, v)) {
                    (None, None) => true,
                    (Some(a), Some(b)) => {
                        a.base == b.base
                            && a.block == b.block
                            && a.sigmas == b.sigmas
                            && self.rbaa.lr().arena().range_eq_mapped(
                                a.range,
                                scratch.lr().arena(),
                                b.range,
                                &ident,
                            )
                    }
                    _ => false,
                };
                if !same_lr {
                    return fail(f, v, "LR state");
                }
            }
        }
        Ok(())
    }
}

impl AliasAnalysis for AnalysisSession {
    fn name(&self) -> &'static str {
        "rbaa"
    }

    fn alias(&self, f: FuncId, p: ValueId, q: ValueId) -> AliasResult {
        self.alias_with_test(f, p, q).0
    }
}

impl fmt::Debug for AnalysisSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnalysisSession")
            .field("functions", &self.module.num_functions())
            .field("components", &self.components.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::BatchAnalysis;
    use crate::query::pointer_values;
    use sra_ir::{Callee, FunctionBuilder, Ty};

    /// The full byte-identity rail: states, symbols, sweeps, verdicts
    /// and per-function statistics all equal a scratch analysis of the
    /// session's current module.
    fn assert_matches_scratch(session: &AnalysisSession) {
        let m = session.module();
        let scratch = crate::analyze_parallel(m, session.config());
        let rbaa = session.analysis();
        assert!(
            rbaa.symbols().iter().eq(scratch.symbols().iter()),
            "symbol tables diverged"
        );
        assert!(
            rbaa.lr().symbols().iter().eq(scratch.lr().symbols().iter()),
            "LR symbol tables diverged"
        );
        assert_eq!(
            rbaa.gr().ascending_sweeps(),
            scratch.gr().ascending_sweeps(),
            "ascending sweep counts diverged"
        );
        for f in m.func_ids() {
            let func = m.function(f);
            for v in func.value_ids() {
                assert_eq!(
                    rbaa.gr().state(f, v),
                    scratch.gr().state(f, v),
                    "GR state diverged at {f} {v}"
                );
                assert_eq!(
                    rbaa.ranges().range(f, v),
                    scratch.ranges().range(f, v),
                    "range diverged at {f} {v}"
                );
                assert_eq!(
                    rbaa.lr().state(f, v),
                    scratch.lr().state(f, v),
                    "LR state diverged at {f} {v}"
                );
            }
        }
        let batch = BatchAnalysis::from_rbaa(scratch, m, 1);
        for f in m.func_ids() {
            let ptrs = pointer_values(m, f);
            for &p in &ptrs {
                for &q in &ptrs {
                    assert_eq!(
                        session.alias_with_test(f, p, q),
                        batch.alias_with_test(f, p, q),
                        "verdict diverged at {f}: {p} vs {q}"
                    );
                }
            }
            assert_eq!(session.stats_of(f), batch.stats(f), "stats diverged at {f}");
        }
    }

    /// `f_i(p) -> ptr {{ q = p + 1; r = f_next(q); ret r }}` chain (the
    /// last returns its formal, or links back to f0 when `ring`), plus
    /// a main calling f0 with a fresh allocation.
    fn chain_module(n: usize, ring: bool) -> Module {
        let mut m = Module::new();
        for i in 0..n {
            m.add_function(chain_body(&format!("f{i}"), i, n, ring, 1));
        }
        let mut b = FunctionBuilder::new("main", &[], None);
        let hundred = b.const_int(100);
        let x = b.malloc(hundred);
        let _ = b.call(Callee::Internal(FuncId::new(0)), &[x], Some(Ty::Ptr));
        b.ret(None);
        m.add_function(b.finish());
        sra_ir::verify::verify_module(&m).expect("chain verifies");
        m
    }

    /// One chain member with a configurable offset (editing the offset
    /// is a "real" single-function edit that changes no call edge).
    fn chain_body(name: &str, i: usize, n: usize, ring: bool, offset: i64) -> Function {
        let mut b = FunctionBuilder::new(name, &[Ty::Ptr], Some(Ty::Ptr));
        let p = b.param(0);
        let off = b.const_int(offset);
        let q = b.ptr_add(p, off);
        if i + 1 < n {
            let r = b.call(Callee::Internal(FuncId::new(i + 1)), &[q], Some(Ty::Ptr));
            b.ret(Some(r));
        } else if ring {
            let r = b.call(Callee::Internal(FuncId::new(0)), &[q], Some(Ty::Ptr));
            b.ret(Some(r));
        } else {
            b.ret(Some(p));
        }
        b.finish()
    }

    #[test]
    fn single_function_edit_matches_scratch_and_reuses_parts() {
        let m = chain_module(4, false);
        let mut session =
            AnalysisSession::with_config(m, DriverConfig::with_threads(2)).expect("verifies");
        assert_matches_scratch(&session);
        // Change f1's offset: call edges unchanged, dataflow changed.
        session
            .replace_function(FuncId::new(1), chain_body("f1", 1, 4, false, 3))
            .expect("valid edit");
        assert_matches_scratch(&session);
        let stats = *session.stats();
        assert_eq!(stats.edits, 1);
        assert_eq!(stats.parts_reanalyzed, 1);
        assert!(
            stats.parts_reused >= 4,
            "the other functions' parts carry over: {stats:?}"
        );
    }

    /// The pre-`AnalysisConfig` constructors stay alive (deprecated
    /// shims) and route to the exact same state as the builder path.
    #[test]
    #[allow(deprecated)]
    fn deprecated_shims_match_builder_path() {
        let m = chain_module(3, false);
        let via_new = AnalysisSession::new(m.clone()).expect("verifies");
        assert_eq!(via_new.config(), AnalysisConfig::default());

        let driver = DriverConfig::with_threads(2);
        let via_mode =
            AnalysisSession::with_mode(m.clone(), driver, QueryMode::Demand).expect("verifies");
        let config = AnalysisConfig::builder()
            .threads(2)
            .query_mode(QueryMode::Demand)
            .build();
        // `gr.threads` is derived: the driver overrides it with its own
        // thread count at analysis time, so the shim may carry the
        // default while the builder keeps the knobs in lockstep.
        let mut shim_config = via_mode.config();
        shim_config.gr.threads = config.gr.threads;
        assert_eq!(shim_config, config);
        let via_builder = AnalysisSession::with_config(m.clone(), config).expect("verifies");
        for f in m.func_ids() {
            let ptrs = pointer_values(&m, f);
            for &p in &ptrs {
                for &q in &ptrs {
                    assert_eq!(
                        via_mode.alias_with_test(f, p, q),
                        via_builder.alias_with_test(f, p, q),
                        "shim and builder sessions diverged at {f}: {p} vs {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn noop_replace_dirties_nothing() {
        let m = chain_module(3, false);
        let mut session =
            AnalysisSession::with_config(m, AnalysisConfig::default()).expect("verifies");
        let body = session.module().function(FuncId::new(1)).clone();
        session
            .replace_function(FuncId::new(1), body)
            .expect("no-op ok");
        let stats = *session.stats();
        assert_eq!(stats.noop_edits, 1);
        assert_eq!(stats.parts_reanalyzed, 0);
        assert_eq!(stats.matrices_rebuilt, 0);
        assert_eq!(stats.gr_components_solved, 0);
        assert!(stats.parts_reused > 0);
        assert!(stats.matrices_reused > 0);
        assert!(stats.gr_components_reused > 0);
        assert_matches_scratch(&session);
    }

    /// An edit that cuts a mutually recursive ring splits its SCC; the
    /// reverse edit merges two SCCs back into one ring. Both directions
    /// must stay byte-identical to scratch.
    #[test]
    fn edits_that_split_and_merge_sccs_match_scratch() {
        let m = chain_module(3, true);
        let cond = Condensation::of_module(&m);
        assert!(cond.is_recursive(cond.scc_of(FuncId::new(0))));
        let mut session =
            AnalysisSession::with_config(m, AnalysisConfig::default()).expect("verifies");
        assert_matches_scratch(&session);

        // Split: f2 stops calling f0 — the 3-cycle SCC falls apart.
        session
            .replace_function(FuncId::new(2), chain_body("f2", 2, 3, false, 1))
            .expect("valid edit");
        let cond = Condensation::of_module(session.module());
        assert!(!cond.is_recursive(cond.scc_of(FuncId::new(0))));
        assert_eq!(cond.num_sccs(), 4, "chain + main are all singletons");
        assert_matches_scratch(&session);

        // Merge: restore the back edge — the SCCs fuse into one ring.
        session
            .replace_function(FuncId::new(2), chain_body("f2", 2, 3, true, 1))
            .expect("valid edit");
        let cond = Condensation::of_module(session.module());
        assert!(cond.is_recursive(cond.scc_of(FuncId::new(0))));
        assert_eq!(cond.num_sccs(), 2, "ring + main");
        assert_matches_scratch(&session);
    }

    #[test]
    fn add_and_remove_functions_match_scratch() {
        let m = chain_module(3, false);
        let mut session =
            AnalysisSession::with_config(m, AnalysisConfig::default()).expect("verifies");
        // Add an independent leaf.
        let mut b = FunctionBuilder::new("leaf", &[Ty::Int], Some(Ty::Int));
        let n = b.param(0);
        let one = b.const_int(1);
        let n1 = b.binop(sra_ir::BinOp::Add, n, one);
        b.ret(Some(n1));
        let leaf = session.add_function(b.finish()).expect("valid add");
        assert_matches_scratch(&session);

        // Removing a function that is still called is rejected with the
        // verifier's structured error, leaving the session unchanged.
        let before = session.module().clone();
        let err = session.remove_function(FuncId::new(1)).unwrap_err();
        assert!(matches!(err, SessionError::Verify(_)), "{err}");
        assert_eq!(session.module(), &before);
        assert_matches_scratch(&session);

        // Removing the uncalled leaf shifts nothing else out of place.
        session.remove_function(leaf).expect("leaf is uncalled");
        assert_matches_scratch(&session);
        // And the id space is dense again: main moved down by one.
        assert_eq!(
            session.module().function_by_name("main"),
            Some(FuncId::new(3))
        );
    }

    #[test]
    fn invalid_replacement_is_rejected_and_session_unchanged() {
        let m = chain_module(3, false);
        let mut session =
            AnalysisSession::with_config(m, AnalysisConfig::default()).expect("verifies");
        let before = session.module().clone();
        // A body calling f1 with the wrong arity fails verification.
        let mut b = FunctionBuilder::new("f0", &[Ty::Ptr], Some(Ty::Ptr));
        let p = b.param(0);
        let r = b.call(Callee::Internal(FuncId::new(1)), &[p, p], Some(Ty::Ptr));
        b.ret(Some(r));
        let err = session
            .replace_function(FuncId::new(0), b.finish())
            .unwrap_err();
        assert!(matches!(err, SessionError::Verify(_)));
        assert_eq!(session.module(), &before);
        assert_matches_scratch(&session);
        // Out-of-range ids are reported as such.
        let mut b = FunctionBuilder::new("nope", &[], None);
        b.ret(None);
        assert_eq!(
            session.replace_function(FuncId::new(99), b.finish()),
            Err(SessionError::NoSuchFunction(FuncId::new(99)))
        );
    }

    /// A demand-mode session builds no matrices — ever — yet answers
    /// byte-identically to a matrix-mode session through replaces,
    /// adds, removals, and freezes.
    #[test]
    fn demand_mode_matches_matrix_mode_through_edits() {
        let m = chain_module(4, false);
        let config = AnalysisConfig::builder().threads(2).build();
        let demand_config = AnalysisConfig {
            query_mode: QueryMode::Demand,
            ..config
        };
        let mut demand = AnalysisSession::with_config(m.clone(), demand_config).expect("verifies");
        let mut matrix = AnalysisSession::with_config(m, config).expect("verifies");
        assert_eq!(demand.query_mode(), QueryMode::Demand);
        assert_eq!(matrix.query_mode(), QueryMode::Matrix);

        let check = |d: &AnalysisSession, mx: &AnalysisSession| {
            let m = d.module();
            let frozen = d.freeze();
            assert_eq!(frozen.query_mode(), QueryMode::Demand);
            for f in m.func_ids() {
                let ptrs = pointer_values(m, f);
                for &p in &ptrs {
                    for &q in &ptrs {
                        let want = mx.alias_with_test(f, p, q);
                        assert_eq!(d.alias_with_test(f, p, q), want, "session at {f}");
                        assert_eq!(frozen.alias_with_test(f, p, q), want, "frozen at {f}");
                    }
                }
            }
        };
        check(&demand, &matrix);

        // A real edit, applied to both.
        let body = || chain_body("f1", 1, 4, false, 5);
        demand
            .replace_function(FuncId::new(1), body())
            .expect("edit");
        matrix
            .replace_function(FuncId::new(1), body())
            .expect("edit");
        check(&demand, &matrix);

        // Add then remove a leaf (the removal path must not expect a
        // matrix slot to vacate).
        let leaf_body = || {
            let mut b = FunctionBuilder::new("leaf", &[], None);
            let eight = b.const_int(8);
            let _ = b.malloc(eight);
            b.ret(None);
            b.finish()
        };
        let d_leaf = demand.add_function(leaf_body()).expect("add");
        let m_leaf = matrix.add_function(leaf_body()).expect("add");
        assert_eq!(d_leaf, m_leaf);
        check(&demand, &matrix);
        demand.remove_function(d_leaf).expect("remove");
        matrix.remove_function(m_leaf).expect("remove");
        check(&demand, &matrix);

        // The whole point: demand mode never built a matrix, and the
        // queries above were answered by a memoising cache.
        assert_eq!(demand.stats().matrices_rebuilt, 0, "{:?}", demand.stats());
        let dstats = demand.demand_stats().expect("cache was exercised");
        assert!(dstats.queries > 0);
        assert!(matrix.stats().matrices_rebuilt > 0);
        assert_eq!(matrix.demand_stats(), None);
        // Clones start with a cold cache but the same verdicts.
        let fork = demand.clone();
        assert_eq!(fork.demand_stats(), None);
        check(&fork, &matrix);
    }

    /// The one module-wide coupling between components is the ascending
    /// cap: editing a capped recursive ring so it converges flips the
    /// trip flag for *every* component, and an untouched independent
    /// component must re-run its post phase from cached pre-force
    /// states (the `gr_components_refinished` path) — and still match
    /// scratch exactly.
    #[test]
    fn cap_trip_flip_refinishes_clean_components() {
        let mut m = Module::new();
        // Component A: a 2-ring whose churn grows without bound, fed a
        // fresh allocation by a caller in the same component.
        m.add_function(chain_body("f0", 0, 2, true, 1));
        m.add_function(chain_body("f1", 1, 2, true, 1));
        let mut b = FunctionBuilder::new("main_a", &[], None);
        let sz = b.const_int(64);
        let buf = b.malloc(sz);
        let _ = b.call(Callee::Internal(FuncId::new(0)), &[buf], Some(Ty::Ptr));
        b.ret(None);
        m.add_function(b.finish());
        // Component B: an independent function with a pointer loop (its
        // φ is a join point the cap forcing would send to ⊤).
        let mut b = FunctionBuilder::new("g", &[], None);
        let sz = b.const_int(8);
        let buf = b.malloc(sz);
        let head = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        let one = b.const_int(1);
        let end = b.ptr_add(buf, one);
        let entry = b.current_block();
        b.jump(head);
        b.switch_to(head);
        let p = b.phi(Ty::Ptr, &[(entry, buf)]);
        let c = b.cmp(sra_ir::CmpOp::Lt, p, end);
        b.br(c, body, exit);
        b.switch_to(body);
        let pn = b.ptr_add(p, one);
        b.add_phi_arg(p, body, pn);
        b.jump(head);
        b.switch_to(exit);
        b.ret(None);
        let mut g = b.finish();
        sra_ir::essa::run(&mut g);
        m.add_function(g);
        sra_ir::verify::verify_module(&m).expect("verifies");

        // Widening off + a small cap: the ring's unbounded churn trips
        // it (so scratch forces g's φ to ⊤ too), while the *cut* chain
        // of the later edit converges well within it.
        let config = DriverConfig {
            threads: 1,
            gr: GrConfig {
                widening: false,
                max_ascending_sweeps: 8,
                ..GrConfig::default()
            },
            ..DriverConfig::with_threads(1)
        };
        let mut session = AnalysisSession::with_config(m, config).expect("verifies");
        assert_matches_scratch(&session);

        // Cut the ring: nothing trips any more; g (untouched) must drop
        // its forced-⊤ fixpoint and re-finish from its pre states.
        session
            .replace_function(FuncId::new(1), chain_body("f1", 1, 2, false, 1))
            .expect("valid edit");
        assert_matches_scratch(&session);
        assert!(
            session.stats().gr_components_refinished >= 1,
            "the clean component re-ran its post phase: {:?}",
            session.stats()
        );

        // Restore the ring: the flag flips back.
        session
            .replace_function(FuncId::new(1), chain_body("f1", 1, 2, true, 1))
            .expect("valid edit");
        assert_matches_scratch(&session);
    }

    /// `name(p: ptr) { q = p + offset; next(q) }` — a void link whose
    /// churn runs through formal joins only (no return to read).
    fn void_link(name: &str, offset: i64, next: Option<FuncId>) -> Function {
        let mut b = FunctionBuilder::new(name, &[Ty::Ptr], None);
        let p = b.param(0);
        let off = b.const_int(offset);
        let q = b.ptr_add(p, off);
        if let Some(next) = next {
            b.call(Callee::Internal(next), &[q], None);
        }
        b.ret(None);
        b.finish()
    }

    /// A `main` handing each of `callees` a fresh buffer.
    fn void_hub(name: &str, callees: &[usize]) -> Function {
        let mut b = FunctionBuilder::new(name, &[], None);
        for &f in callees {
            let sz = b.const_int(64);
            let buf = b.malloc(sz);
            b.call(Callee::Internal(FuncId::new(f)), &[buf], None);
        }
        b.ret(None);
        b.finish()
    }

    /// Widening off and a small cap, so a ring of void links trips it.
    fn capped_config() -> DriverConfig {
        DriverConfig {
            threads: 1,
            gr: GrConfig {
                widening: false,
                max_ascending_sweeps: 8,
                ..GrConfig::default()
            },
            ..DriverConfig::with_threads(1)
        }
    }

    /// The slice's fallbacks around the ascending cap, in one hub
    /// component `main → {l1, l2, r0 → r1}`: a leaf edit re-solves
    /// `{leaf, main}` only; closing `r1 → r0` into a ring makes the
    /// slice's own ascent trip, so the whole component is re-solved;
    /// while the component is tripped, every edit re-solves it whole
    /// (the carried functions' states were forced); cutting the ring
    /// returns to slices. Every step matches scratch.
    #[test]
    fn slice_falls_back_to_whole_component_around_the_cap() {
        let mut m = Module::new();
        m.add_function(void_link("l1", 1, None));
        m.add_function(void_link("l2", 1, None));
        m.add_function(void_link("r0", 1, Some(FuncId::new(3))));
        m.add_function(void_link("r1", 1, None));
        m.add_function(void_hub("main", &[0, 1, 2]));
        let mut session = AnalysisSession::with_config(m, capped_config()).expect("verifies");
        assert_matches_scratch(&session);
        let expect = |session: &mut AnalysisSession, f: usize, body: Function, resolved| {
            let before = *session.stats();
            session
                .replace_function(FuncId::new(f), body)
                .expect("valid edit");
            assert_matches_scratch(session);
            let after = *session.stats();
            assert_eq!(
                after.gr_functions_resolved - before.gr_functions_resolved,
                resolved,
                "{after:?}"
            );
            assert_eq!(
                after.gr_functions_carried - before.gr_functions_carried,
                5 - resolved
            );
        };
        expect(&mut session, 0, void_link("l1", 2, None), 2);
        expect(&mut session, 3, void_link("r1", 1, Some(FuncId::new(2))), 5);
        assert_eq!(session.analysis().gr().ascending_sweeps(), 8, "tripped");
        expect(&mut session, 1, void_link("l2", 3, None), 5);
        expect(&mut session, 3, void_link("r1", 2, None), 5);
        expect(&mut session, 0, void_link("l1", 3, None), 2);
    }

    /// A demand query that panics on a stale value id leaves no
    /// poisoned lock behind: the next valid query drops the memo and
    /// answers as before, on the session and on a frozen snapshot.
    #[test]
    fn demand_lock_recovers_from_a_panicking_query() {
        let config = AnalysisConfig::builder()
            .query_mode(QueryMode::Demand)
            .threads(1)
            .build();
        let session = AnalysisSession::with_config(chain_module(3, false), config).unwrap();
        let frozen = session.freeze();
        let f = FuncId::new(0);
        let ptrs = pointer_values(session.module(), f);
        let stale = ValueId::new(session.module().function(f).num_values() + 5);
        let ask = |q: &dyn Fn(ValueId, ValueId) -> (AliasResult, Option<WhichTest>)| {
            let expect = q(ptrs[0], ptrs[1]);
            let stale_query = std::panic::AssertUnwindSafe(|| q(stale, ptrs[0]));
            assert!(std::panic::catch_unwind(stale_query).is_err());
            assert_eq!(q(ptrs[0], ptrs[1]), expect);
        };
        ask(&|p, q| session.alias_with_test(f, p, q));
        ask(&|p, q| frozen.alias_with_test(f, p, q));
    }

    /// A sliced component whose fixpoint was finished under the other
    /// module-wide trip flag is re-solved whole: one batch edits a leaf
    /// of hub A and cuts the tripping ring of component B.
    #[test]
    fn slice_under_a_flipped_trip_flag_resolves_its_component_whole() {
        let mut m = Module::new();
        m.add_function(void_link("l1", 1, None));
        m.add_function(void_link("l2", 1, None));
        m.add_function(void_hub("main_a", &[0, 1]));
        m.add_function(void_link("r0", 1, Some(FuncId::new(4))));
        m.add_function(void_link("r1", 1, Some(FuncId::new(3))));
        m.add_function(void_hub("main_b", &[3]));
        let mut session = AnalysisSession::with_config(m, capped_config()).expect("verifies");
        assert_matches_scratch(&session);
        let before = *session.stats();
        session
            .apply_edits(vec![
                SessionEdit::Replace {
                    func: FuncId::new(0),
                    body: void_link("l1", 2, None),
                },
                SessionEdit::Replace {
                    func: FuncId::new(4),
                    body: void_link("r1", 1, None),
                },
            ])
            .expect("valid batch");
        assert_matches_scratch(&session);
        let after = *session.stats();
        assert_eq!(
            after.gr_functions_resolved - before.gr_functions_resolved,
            6
        );
        assert_eq!(after.gr_components_solved - before.gr_components_solved, 2);

        // Flag unchanged: a leaf edit of A is a slice again, and B is
        // carried whole.
        let before = after;
        session
            .replace_function(FuncId::new(1), void_link("l2", 2, None))
            .expect("valid edit");
        assert_matches_scratch(&session);
        let after = *session.stats();
        assert_eq!(
            after.gr_functions_resolved - before.gr_functions_resolved,
            2
        );
        assert_eq!(after.gr_functions_carried - before.gr_functions_carried, 4);
        assert_eq!(after.gr_components_reused - before.gr_components_reused, 1);
    }

    /// A batch whose edits are individually invalid (removing functions
    /// that are still called) but jointly valid lands atomically as one
    /// edit — including a multi-removal id compaction — and stays
    /// byte-identical to scratch.
    #[test]
    fn batched_edits_apply_atomically_and_match_scratch() {
        let m = chain_module(5, false); // f0..f4 + main
        let mut session =
            AnalysisSession::with_config(m, AnalysisConfig::default()).expect("verifies");
        let err = session.remove_function(FuncId::new(3)).unwrap_err();
        assert!(matches!(err, SessionError::Verify(_)), "{err}");
        let mut b = FunctionBuilder::new("leaf", &[], Some(Ty::Int));
        let z = b.const_int(0);
        b.ret(Some(z));
        let added = session
            .apply_edits(vec![
                SessionEdit::Replace {
                    func: FuncId::new(2),
                    body: chain_body("f2", 2, 3, false, 1),
                },
                SessionEdit::Add { body: b.finish() },
                SessionEdit::Remove {
                    func: FuncId::new(3),
                },
                SessionEdit::Remove {
                    func: FuncId::new(4),
                },
            ])
            .expect("jointly valid");
        // 6 pre-batch functions − 2 removed + 1 added = 5, add at the
        // tail, survivors compacted in order.
        assert_eq!(session.module().num_functions(), 5);
        assert_eq!(added, vec![FuncId::new(4)]);
        assert_eq!(
            session.module().function_by_name("leaf"),
            Some(FuncId::new(4))
        );
        assert_eq!(
            session.module().function_by_name("main"),
            Some(FuncId::new(3))
        );
        assert_eq!(session.stats().edits, 1);
        assert_matches_scratch(&session);
    }

    #[test]
    fn batched_signature_change_rewrites_callers_atomically() {
        let m = chain_module(3, false);
        let mut session =
            AnalysisSession::with_config(m, AnalysisConfig::default()).expect("verifies");
        let f1_wide = || {
            let mut b = FunctionBuilder::new("f1", &[Ty::Ptr, Ty::Int], Some(Ty::Ptr));
            let p = b.param(0);
            let n = b.param(1);
            let q = b.ptr_add(p, n);
            let r = b.call(Callee::Internal(FuncId::new(2)), &[q], Some(Ty::Ptr));
            b.ret(Some(r));
            b.finish()
        };
        // Alone, the signature change breaks f0's call site.
        let err = session
            .replace_function(FuncId::new(1), f1_wide())
            .unwrap_err();
        assert!(matches!(err, SessionError::Verify(_)), "{err}");
        // Paired with f0's rewrite it lands atomically.
        let mut b = FunctionBuilder::new("f0", &[Ty::Ptr], Some(Ty::Ptr));
        let p = b.param(0);
        let two = b.const_int(2);
        let q = b.ptr_add(p, two);
        let r = b.call(Callee::Internal(FuncId::new(1)), &[q, two], Some(Ty::Ptr));
        b.ret(Some(r));
        session
            .apply_edits(vec![
                SessionEdit::Replace {
                    func: FuncId::new(1),
                    body: f1_wide(),
                },
                SessionEdit::Replace {
                    func: FuncId::new(0),
                    body: b.finish(),
                },
            ])
            .expect("jointly valid");
        assert_eq!(session.stats().edits, 1);
        assert_eq!(session.stats().parts_reanalyzed, 2);
        assert_matches_scratch(&session);
    }

    #[test]
    fn empty_and_identical_batches_take_the_noop_path() {
        let m = chain_module(3, false);
        let mut session =
            AnalysisSession::with_config(m, AnalysisConfig::default()).expect("verifies");
        session.apply_edits(Vec::new()).expect("empty batch");
        let body = session.module().function(FuncId::new(1)).clone();
        session
            .apply_edits(vec![SessionEdit::Replace {
                func: FuncId::new(1),
                body,
            }])
            .expect("identical body");
        let stats = *session.stats();
        assert_eq!(stats.edits, 2);
        assert_eq!(stats.noop_edits, 2);
        assert_eq!(stats.parts_reanalyzed, 0);
        assert_eq!(stats.matrices_rebuilt, 0);
        assert_eq!(stats.gr_components_solved, 0);
        assert_matches_scratch(&session);
    }

    #[test]
    fn invalid_batches_are_rejected_whole() {
        let m = chain_module(3, false);
        let mut session =
            AnalysisSession::with_config(m, AnalysisConfig::default()).expect("verifies");
        let before = session.module().clone();
        let body = chain_body("f1", 1, 3, false, 2);
        // Same function targeted twice.
        let err = session
            .apply_edits(vec![
                SessionEdit::Replace {
                    func: FuncId::new(1),
                    body: body.clone(),
                },
                SessionEdit::Remove {
                    func: FuncId::new(1),
                },
            ])
            .unwrap_err();
        assert_eq!(err, SessionError::DuplicateTarget(FuncId::new(1)));
        // Out-of-range target.
        let err = session
            .apply_edits(vec![SessionEdit::Remove {
                func: FuncId::new(9),
            }])
            .unwrap_err();
        assert_eq!(err, SessionError::NoSuchFunction(FuncId::new(9)));
        // A verify failure anywhere voids the whole batch — including
        // the valid replace submitted alongside it.
        let err = session
            .apply_edits(vec![
                SessionEdit::Replace {
                    func: FuncId::new(0),
                    body: chain_body("f0", 0, 3, false, 7),
                },
                SessionEdit::Remove {
                    func: FuncId::new(2), // still called by f1
                },
            ])
            .unwrap_err();
        assert!(matches!(err, SessionError::Verify(_)), "{err}");
        assert_eq!(session.module(), &before);
        assert_eq!(session.stats().edits, 0);
        assert_matches_scratch(&session);
    }

    /// The full frontend→session path: textual edits diffed by
    /// [`sra_lang::SourceProgram`] flow through
    /// [`AnalysisSession::apply_source_edit`], keeping the session's
    /// module in lockstep with the program's and its analysis
    /// byte-identical to scratch.
    #[test]
    fn apply_source_edit_keeps_session_in_lockstep_with_the_program() {
        let base = "int tab[4];\n\
             int helper(ptr p, int n) { int i; i = 0; while (i < n) { p[i] = i; i = i + 1; } return i; }\n\
             export int main() { ptr a; a = malloc(8); int k; k = helper(a, 8); return k; }\n";
        let mut program = sra_lang::SourceProgram::new(base).expect("compiles");
        let mut session =
            AnalysisSession::with_config(program.module().clone(), AnalysisConfig::default())
                .expect("verifies");

        // A body tweak flows through as one incremental replace.
        let edited = base.replace("p[i] = i;", "p[i] = i + 1;");
        let diff = program.apply_edit(&edited).expect("compiles");
        session.apply_source_edit(diff).expect("applies");
        assert_eq!(session.module(), program.module());
        assert_matches_scratch(&session);
        assert_eq!(session.stats().edits, 1);
        assert_eq!(session.stats().parts_reanalyzed, 1);

        // A comment-only edit is a no-op: zero re-analysis.
        let commented = format!("// tweak\n{edited}");
        let diff = program.apply_edit(&commented).expect("compiles");
        session.apply_source_edit(diff).expect("applies");
        assert_eq!(session.stats().noop_edits, 1);
        assert_eq!(session.stats().parts_reanalyzed, 1);

        // Changing a global forces a (counted) full rebuild.
        let regrown = commented.replace("int tab[4];", "int tab[9];");
        let diff = program.apply_edit(&regrown).expect("compiles");
        assert!(matches!(diff, sra_lang::SourceDiff::FullRebuild { .. }));
        session.apply_source_edit(diff).expect("applies");
        assert_eq!(session.module(), program.module());
        assert_matches_scratch(&session);
        assert_eq!(session.stats().edits, 3);
        assert_eq!(
            session.stats().parts_reanalyzed,
            1 + session.module().num_functions()
        );
    }

    /// Snapshot roundtrip in matrix mode: save → load reproduces the
    /// module, config, verdicts, counters — and re-saving the loaded
    /// session reproduces the exact bytes (saves are deterministic).
    /// `load_verify` is on, so the load also proves state-identity
    /// against a scratch re-analysis.
    #[test]
    fn persist_roundtrip_matrix_mode() {
        let config = AnalysisConfig::builder()
            .threads(1)
            .load_verify(true)
            .build();
        let mut session =
            AnalysisSession::with_config(chain_module(4, false), config).expect("verifies");
        // Exercise the incremental path so caches are warm and stats
        // are non-trivial.
        session
            .replace_function(FuncId::new(1), chain_body("f1", 1, 4, false, 3))
            .expect("applies");

        let mut bytes = Vec::new();
        session.save(&mut bytes).expect("saves");
        let loaded = AnalysisSession::load(&mut bytes.as_slice()).expect("loads");

        assert_eq!(loaded.module(), session.module());
        assert_eq!(loaded.config(), session.config());
        assert_eq!(loaded.stats(), session.stats());
        assert_matches_scratch(&loaded);
        let m = session.module();
        for f in m.func_ids() {
            let ptrs = pointer_values(m, f);
            for &p in &ptrs {
                for &q in &ptrs {
                    assert_eq!(
                        loaded.alias_with_test(f, p, q),
                        session.alias_with_test(f, p, q),
                        "verdict diverged at {f}: {p} vs {q}"
                    );
                }
            }
        }

        let mut again = Vec::new();
        loaded.save(&mut again).expect("saves");
        assert_eq!(again, bytes, "save is not byte-deterministic");
    }

    /// Snapshot roundtrip in demand mode with a grown demand cache:
    /// the memoised signatures and pair verdicts survive the trip.
    #[test]
    fn persist_roundtrip_demand_mode() {
        let config = AnalysisConfig::builder()
            .threads(1)
            .query_mode(QueryMode::Demand)
            .load_verify(true)
            .build();
        let session =
            AnalysisSession::with_config(chain_module(3, true), config).expect("verifies");
        let m = session.module().clone();
        // Grow the demand cache with a query stream.
        for f in m.func_ids() {
            let ptrs = pointer_values(&m, f);
            for &p in &ptrs {
                for &q in &ptrs {
                    session.alias_with_test(f, p, q);
                }
            }
        }
        let before = session.demand_stats().expect("cache grown");

        let mut bytes = Vec::new();
        session.save(&mut bytes).expect("saves");
        let loaded = AnalysisSession::load(&mut bytes.as_slice()).expect("loads");

        assert_eq!(loaded.demand_stats(), Some(before), "demand counters lost");
        // Re-save before issuing queries — queries grow the demand
        // counters, which are part of the snapshot.
        let mut again = Vec::new();
        loaded.save(&mut again).expect("saves");
        assert_eq!(again, bytes, "save is not byte-deterministic");

        for f in m.func_ids() {
            let ptrs = pointer_values(&m, f);
            for &p in &ptrs {
                for &q in &ptrs {
                    assert_eq!(
                        loaded.alias_with_test(f, p, q),
                        session.alias_with_test(f, p, q),
                        "verdict diverged at {f}: {p} vs {q}"
                    );
                }
            }
        }
    }

    /// Damaged streams fail structurally, never panic: every
    /// single-byte corruption and every truncation of a real snapshot
    /// is rejected with a [`PersistError`].
    #[test]
    fn persist_rejects_damage() {
        let config = AnalysisConfig::builder().threads(1).build();
        let session =
            AnalysisSession::with_config(chain_module(2, false), config).expect("verifies");
        let mut bytes = Vec::new();
        session.save(&mut bytes).expect("saves");

        for cut in 0..bytes.len() {
            assert!(
                AnalysisSession::load(&mut &bytes[..cut]).is_err(),
                "truncation at {cut} slipped through"
            );
        }
        // Flip one bit in a sample of positions (the full sweep runs in
        // the dedicated roundtrip rail).
        for pos in (0..bytes.len()).step_by(7) {
            let mut dmg = bytes.clone();
            dmg[pos] ^= 0x10;
            if dmg == bytes {
                continue;
            }
            assert!(
                AnalysisSession::load(&mut dmg.as_slice()).is_err(),
                "bit flip at {pos} slipped through"
            );
        }
    }
}
