//! The batch analysis driver: whole-module analysis and all-pairs
//! query evaluation fanned out across a thread pool.
//!
//! The serial pipeline ([`RbaaAnalysis::analyze`]) walks one function
//! at a time and answers every `p, q` query from scratch. For the
//! paper's evaluation workloads — 22 benchmarks, all-pairs queries per
//! function (Figures 13/14), and the million-instruction scaling sweep
//! (Figure 15) — both are embarrassingly parallel along the function
//! axis. [`BatchAnalysis`] exploits that:
//!
//! 1. **parallel** — the bootstrap integer ranges and the local (LR)
//!    analysis of each function run on a hand-rolled
//!    [`std::thread`]-pool ([`crate::pool`]). Kernel-symbol identities
//!    are pre-assigned from per-function budgets
//!    ([`sra_range::symbol_budget`]), so the assembled result is
//!    byte-identical to the serial analysis regardless of scheduling.
//! 2. **parallel** — the global (GR) analysis is *inter*procedural, so
//!    it cannot shard along the function axis; instead it runs as a
//!    wave schedule over the bottom-up SCC condensation of the call
//!    graph ([`GrSchedule::Waves`](crate::GrSchedule)): the mutually
//!    independent SCCs of each condensation level are solved
//!    concurrently, with the Gauss–Seidel order inside each SCC — which
//!    is part of the precision the snapshot tests pin — preserved
//!    exactly. Results are byte-identical to the serial schedule.
//! 3. **parallel** — one [`AliasMatrix`] per function, built on worker
//!    threads with a per-worker [`sra_symbolic::ExprArena`] memoising
//!    every range comparison. Repeat queries are `O(1)`.
//!
//! Determinism: every phase either runs in function order or writes
//! into per-function slots, so results never depend on thread timing —
//! the equivalence property test compares this driver against the
//! serial per-query path verdict for verdict.
//!
//! # Examples
//!
//! ```
//! use sra_core::{AliasAnalysis, AliasResult, BatchAnalysis};
//! use sra_ir::{FunctionBuilder, Module};
//!
//! let mut b = FunctionBuilder::new("main", &[], None);
//! let ten = b.const_int(10);
//! let p = b.malloc(ten);
//! let q = b.malloc(ten);
//! b.ret(None);
//! let mut m = Module::new();
//! let fid = m.add_function(b.finish());
//!
//! let batch = BatchAnalysis::analyze(&m);
//! assert_eq!(batch.alias(fid, p, q), AliasResult::NoAlias);
//! assert_eq!(batch.stats(fid).queries, 1);
//! ```

use sra_ir::{FuncId, Module, ValueId};
use sra_range::{RangeAnalysis, RangeConfig, RangePart};

use crate::gr::{GrAnalysis, GrConfig};
use crate::lr::{self, LrAnalysis, LrPart};
use crate::pool;
use crate::query::{AliasAnalysis, AliasMatrix, AliasResult, QueryStats, RbaaAnalysis, WhichTest};

/// Tuning knobs for [`BatchAnalysis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverConfig {
    /// Worker threads for the per-function phases. `1` runs everything
    /// inline (the deterministic reference schedule — results are
    /// identical either way).
    pub threads: usize,
    /// Bootstrap integer-range configuration.
    pub range: RangeConfig,
    /// Global-analysis configuration. Its `threads` knob is overridden
    /// with the driver's own [`DriverConfig::threads`], so one setting
    /// governs every phase.
    pub gr: GrConfig,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            threads: pool::default_threads(),
            range: RangeConfig::default(),
            gr: GrConfig::default(),
        }
    }
}

impl DriverConfig {
    /// A config with an explicit worker count and default analyses.
    pub fn with_threads(threads: usize) -> Self {
        DriverConfig {
            threads,
            ..DriverConfig::default()
        }
    }
}

/// Wall-clock attribution of one pipeline run, phase by phase — how
/// the driver (and the bench trajectory) proves where a scratch build
/// spends its time. Loads fill [`PhaseStats::load_ns`] instead of the
/// analysis phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Symbol-budget pre-scan (fixes schedule-independent symbol ids).
    pub budget_ns: u64,
    /// Per-function bootstrap-range and LR part analyses.
    pub parts_ns: u64,
    /// Canonical-arena assembly of the parts (range + LR imports).
    pub assemble_ns: u64,
    /// Interprocedural GR solve plus its canonical re-interning.
    pub gr_ns: u64,
    /// Per-function alias-matrix builds.
    pub matrices_ns: u64,
    /// Dropping the analysis an incremental rebuild superseded.
    pub teardown_ns: u64,
    /// Snapshot deserialization (section decode + reassembly).
    pub load_ns: u64,
}

impl PhaseStats {
    /// Sum of every recorded phase.
    pub fn total_ns(&self) -> u64 {
        self.budget_ns
            + self.parts_ns
            + self.assemble_ns
            + self.gr_ns
            + self.matrices_ns
            + self.teardown_ns
            + self.load_ns
    }

    /// Field-wise accumulation.
    pub fn merge(&mut self, other: &PhaseStats) {
        self.budget_ns += other.budget_ns;
        self.parts_ns += other.parts_ns;
        self.assemble_ns += other.assemble_ns;
        self.gr_ns += other.gr_ns;
        self.matrices_ns += other.matrices_ns;
        self.teardown_ns += other.teardown_ns;
        self.load_ns += other.load_ns;
    }
}

/// Nanoseconds since `t`, saturated into a `u64`.
pub(crate) fn ns_since(t: std::time::Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs the paper's full analysis pipeline (bootstrap ranges + GR +
/// LR) with the per-function phases on `config.threads` workers. The
/// result is byte-identical to [`RbaaAnalysis::analyze`]. Accepts
/// either the unified [`crate::AnalysisConfig`] or the legacy
/// [`DriverConfig`].
pub fn analyze_parallel(m: &Module, config: impl Into<crate::AnalysisConfig>) -> RbaaAnalysis {
    let config = config.into();
    let pool = pool::WorkerPool::new(config.threads);
    analyze_parallel_on(m, config, &pool).0
}

/// [`analyze_parallel`] on a caller-provided [`pool::WorkerPool`] —
/// every phase (budget scan, part analyses, canonical assembly, GR
/// waves) dispatches onto the same long-lived workers instead of
/// spawning its own — with the per-phase wall-clock breakdown.
pub fn analyze_parallel_on(
    m: &Module,
    config: impl Into<crate::AnalysisConfig>,
    pool: &pool::WorkerPool,
) -> (RbaaAnalysis, PhaseStats) {
    let config = config.into().driver();
    let nf = m.num_functions();
    let mut phases = PhaseStats::default();

    // Pre-assign symbol-id blocks so workers mint non-conflicting,
    // schedule-independent symbols. The budget scans are cheap but
    // parallel anyway (LR's needs a dominance tree).
    let t = std::time::Instant::now();
    let budgets: Vec<(usize, usize)> = pool.run_indexed(nf, |i| {
        let fid = FuncId::new(i);
        (
            sra_range::symbol_budget(m.function(fid), config.range),
            lr::symbol_budget(m, fid),
        )
    });
    let mut range_bases = Vec::with_capacity(nf);
    let mut lr_bases = Vec::with_capacity(nf);
    let (mut rb, mut lb) = (0u32, 0u32);
    for &(r, l) in &budgets {
        range_bases.push(rb);
        lr_bases.push(lb);
        rb += r as u32;
        lb += l as u32;
    }
    phases.budget_ns = ns_since(t);

    // Per-function analyses on the pool.
    let t = std::time::Instant::now();
    let parts: Vec<(RangePart, LrPart)> = pool.run_indexed(nf, |i| {
        let fid = FuncId::new(i);
        (
            sra_range::analyze_function_part(m.function(fid), config.range, range_bases[i]),
            lr::analyze_function_part(m, fid, lr_bases[i]),
        )
    });
    let mut range_parts = Vec::with_capacity(nf);
    let mut lr_parts = Vec::with_capacity(nf);
    for (r, l) in parts {
        range_parts.push(r);
        lr_parts.push(l);
    }
    phases.parts_ns = ns_since(t);

    let t = std::time::Instant::now();
    let ranges = RangeAnalysis::from_parts_on(range_parts, pool);
    let lr = LrAnalysis::from_parts_on(lr_parts, pool);
    phases.assemble_ns = ns_since(t);

    // Interprocedural global analysis: wave-scheduled over the call
    // graph's SCC condensation (see module docs), sharing the driver's
    // pool.
    let t = std::time::Instant::now();
    let gr_config = GrConfig {
        threads: config.threads,
        ..config.gr
    };
    let gr = GrAnalysis::analyze_on(m, &ranges, gr_config, pool);
    phases.gr_ns = ns_since(t);

    (RbaaAnalysis::from_pieces(ranges, gr, lr), phases)
}

/// The batch driver's result: the full [`RbaaAnalysis`] plus one cached
/// [`AliasMatrix`] per function.
#[derive(Debug)]
pub struct BatchAnalysis {
    rbaa: RbaaAnalysis,
    matrices: Vec<AliasMatrix>,
    phases: PhaseStats,
}

impl BatchAnalysis {
    /// Analyzes `m` and evaluates every function's all-pairs matrix,
    /// with default configuration (all available workers).
    pub fn analyze(m: &Module) -> Self {
        Self::analyze_with(m, crate::AnalysisConfig::default())
    }

    /// Analyzes `m` with an explicit configuration (unified
    /// [`crate::AnalysisConfig`] or legacy [`DriverConfig`]). One pool
    /// is spawned for the whole build; every phase reuses its workers.
    pub fn analyze_with(m: &Module, config: impl Into<crate::AnalysisConfig>) -> Self {
        let config = config.into();
        let pool = pool::WorkerPool::new(config.threads);
        let (rbaa, phases) = analyze_parallel_on(m, config, &pool);
        let mut batch = Self::from_rbaa_on(rbaa, m, &pool);
        batch.phases.merge(&phases);
        batch
    }

    /// Builds the per-function matrices over an existing analysis, on a
    /// one-shot pool of `threads` width.
    pub fn from_rbaa(rbaa: RbaaAnalysis, m: &Module, threads: usize) -> Self {
        Self::from_rbaa_on(rbaa, m, &pool::WorkerPool::new(threads))
    }

    /// Builds the per-function matrices over an existing analysis.
    /// A single-function module hands the whole pool to that function's
    /// signature triangle ([`AliasMatrix::build_with_on`] — `run_indexed`
    /// of one job runs inline, leaving the workers free for the tiles);
    /// several functions share the pool function-wise instead, so it is
    /// never oversubscribed. Byte-identical either way.
    pub fn from_rbaa_on(rbaa: RbaaAnalysis, m: &Module, pool: &pool::WorkerPool) -> Self {
        let t = std::time::Instant::now();
        let nf = m.num_functions();
        let matrices = if nf == 1 {
            // A lone function gets the whole pool for its signature
            // triangle instead of one chunk of a one-function sweep.
            vec![AliasMatrix::build_with_on(&rbaa, m, FuncId::new(0), pool)]
        } else {
            AliasMatrix::build_all_on(&rbaa, m, pool)
        };
        BatchAnalysis {
            rbaa,
            matrices,
            phases: PhaseStats {
                matrices_ns: ns_since(t),
                ..PhaseStats::default()
            },
        }
    }

    /// The per-phase wall-clock breakdown of this build.
    pub fn phases(&self) -> &PhaseStats {
        &self.phases
    }

    /// Per-module totals of the matrices' packed-cell byte accounting.
    pub fn total_matrix_bytes(&self) -> crate::query::MatrixBytes {
        let mut total = crate::query::MatrixBytes::default();
        for mx in &self.matrices {
            total.merge(&mx.bytes());
        }
        total
    }

    /// The underlying analysis (states, symbol table, …).
    pub fn rbaa(&self) -> &RbaaAnalysis {
        &self.rbaa
    }

    /// The cached all-pairs matrix of `f`.
    pub fn matrix(&self, f: FuncId) -> &AliasMatrix {
        &self.matrices[f.index()]
    }

    /// The Figure 13/14 statistics of `f`'s all-pairs sweep.
    pub fn stats(&self, f: FuncId) -> &QueryStats {
        self.matrices[f.index()].stats()
    }

    /// Statistics summed over every function.
    pub fn total_stats(&self) -> QueryStats {
        let mut total = QueryStats::default();
        for mx in &self.matrices {
            total.merge(mx.stats());
        }
        total
    }

    /// Like [`RbaaAnalysis::alias_with_test`], answered from the cache
    /// in `O(1)` (falling back to the direct computation for values
    /// outside the pointer universe, e.g. non-pointers).
    pub fn alias_with_test(
        &self,
        f: FuncId,
        p: ValueId,
        q: ValueId,
    ) -> (AliasResult, Option<WhichTest>) {
        match self.matrices[f.index()].lookup(p, q) {
            Some(v) => v,
            None => self.rbaa.alias_with_test(f, p, q),
        }
    }
}

impl AliasAnalysis for BatchAnalysis {
    fn name(&self) -> &'static str {
        "rbaa"
    }

    fn alias(&self, f: FuncId, p: ValueId, q: ValueId) -> AliasResult {
        self.alias_with_test(f, p, q).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::pointer_values;

    /// A module with interprocedural flow, loops, σs, frees — every
    /// state kind the pipeline produces.
    fn sample_module() -> Module {
        use sra_ir::{BinOp, Callee, CmpOp, FunctionBuilder, Ty};
        let mut m = Module::new();

        let mut b = FunctionBuilder::new("callee", &[Ty::Ptr, Ty::Int], Some(Ty::Ptr));
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
        let a0 = b.ptr_add(p, i);
        b.store(a0, i);
        let one = b.const_int(1);
        let i1 = b.binop(BinOp::Add, i, one);
        let a1 = b.ptr_add(p, i1);
        let x = b.load(a0, Ty::Int);
        b.store(a1, x);
        let two = b.const_int(2);
        let i2 = b.binop(BinOp::Add, i, two);
        b.add_phi_arg(i, body, i2);
        b.jump(head);
        b.switch_to(exit);
        let q = b.ptr_add(p, n);
        b.ret(Some(q));
        let mut f = b.finish();
        sra_ir::essa::run(&mut f);
        let callee = m.add_function(f);

        let mut b = FunctionBuilder::new("main", &[], None);
        let z = b.call(Callee::External("atoi".into()), &[], Some(Ty::Int));
        let buf = b.malloc(z);
        let other = b.malloc(z);
        let r = b.call(Callee::Internal(callee), &[buf, z], Some(Ty::Ptr));
        let dead = b.free(other);
        let loaded = b.load(buf, Ty::Ptr);
        let _ = (r, dead, loaded);
        b.ret(None);
        let mut f = b.finish();
        f.set_exported(true);
        m.add_function(f);
        sra_ir::verify::verify_module(&m).expect("verifies");
        m
    }

    #[test]
    fn batch_matches_serial_per_query() {
        let m = sample_module();
        let serial = RbaaAnalysis::analyze(&m);
        for threads in [1, 4] {
            let batch = BatchAnalysis::analyze_with(&m, DriverConfig::with_threads(threads));
            for f in m.func_ids() {
                let ptrs = pointer_values(&m, f);
                for &p in &ptrs {
                    for &q in &ptrs {
                        assert_eq!(
                            batch.alias_with_test(f, p, q),
                            serial.alias_with_test(f, p, q),
                            "threads={threads} {f} {p} vs {q}"
                        );
                    }
                }
                assert_eq!(
                    batch.stats(f),
                    &QueryStats::run_pairs(&serial, f, &ptrs),
                    "stats for {f}"
                );
            }
        }
    }

    #[test]
    fn parallel_analysis_is_byte_identical() {
        let m = sample_module();
        let serial = RbaaAnalysis::analyze(&m);
        let parallel = analyze_parallel(&m, DriverConfig::with_threads(4));
        // Same symbol tables (names in the same order)…
        assert_eq!(
            serial.symbols().iter().collect::<Vec<_>>(),
            parallel.symbols().iter().collect::<Vec<_>>()
        );
        // …and same displayed states everywhere.
        for f in m.func_ids() {
            let func = m.function(f);
            for v in func.value_ids() {
                assert_eq!(
                    format!("{}", serial.gr().state(f, v).display(serial.symbols())),
                    format!("{}", parallel.gr().state(f, v).display(parallel.symbols())),
                );
                assert_eq!(
                    serial.ranges().display_range(f, v),
                    parallel.ranges().display_range(f, v),
                );
                // Canonical module arenas: the raw ids agree too.
                assert_eq!(serial.ranges().range(f, v), parallel.ranges().range(f, v));
            }
        }
    }

    #[test]
    fn matrix_lookup_diagonal_and_outsiders() {
        let m = sample_module();
        let batch = BatchAnalysis::analyze(&m);
        let f = m.func_ids().next().unwrap();
        let ptrs = pointer_values(&m, f);
        let p = ptrs[0];
        assert_eq!(
            batch.alias_with_test(f, p, p),
            (AliasResult::MayAlias, None)
        );
        // A non-pointer value is outside the universe; the fallback
        // still answers.
        let func = m.function(f);
        let non_ptr = func
            .value_ids()
            .find(|&v| func.value(v).ty() != Some(sra_ir::Ty::Ptr))
            .unwrap();
        assert_eq!(batch.matrix(f).lookup(non_ptr, p), None);
        assert_eq!(
            batch.alias_with_test(f, non_ptr, p),
            batch.rbaa().alias_with_test(f, non_ptr, p)
        );
    }

    #[test]
    fn total_stats_sum_functions() {
        let m = sample_module();
        let batch = BatchAnalysis::analyze(&m);
        let mut expect = QueryStats::default();
        for f in m.func_ids() {
            expect.merge(batch.stats(f));
        }
        assert_eq!(batch.total_stats(), expect);
    }
}
