//! The batch analysis driver: whole-module analysis plus every
//! function's all-pairs matrix, for the paper's evaluation workloads —
//! 22 benchmarks, all-pairs queries per function (Figures 13/14), and
//! the million-instruction scaling sweep (Figure 15).
//!
//! [`BatchAnalysis`] analyzes through the pipeline an
//! [`AnalysisSession`](crate::AnalysisSession) is constructed by — a
//! session rebuild with every function dirty, on one
//! [`WorkerPool`](crate::WorkerPool): per-function parts, canonical
//! assembly and the GR wave solve (see the session module docs) — and
//! then builds one [`AliasMatrix`] per function on the pool, with
//! per-worker overlays memoising every range comparison. Every phase
//! runs in function order or writes per-function slots, so results
//! never depend on thread timing; the equivalence rails hold the driver
//! to the serial reference ([`RbaaAnalysis::analyze_with`]) verdict for
//! verdict and id for id.
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

use crate::config::AnalysisConfig;
use crate::pool::WorkerPool;
use crate::query::{
    AliasAnalysis, AliasMatrix, AliasResult, QueryMode, QueryStats, RbaaAnalysis, WhichTest,
};
use crate::session::{scratch, SessionStats};

/// Wall-clock attribution of one pipeline run, phase by phase — how
/// the driver (and the bench trajectory) proves where a scratch build
/// spends its time. Loads fill [`PhaseStats::load_ns`] instead of the
/// analysis phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Bootstrap-range and LR part analyses of the edited functions.
    pub parts_ns: u64,
    /// Canonical-arena assembly: range + LR imports of fresh parts and
    /// of carried functions out of the previous module arenas.
    pub assemble_ns: u64,
    /// Interprocedural GR solve plus its canonical re-interning.
    pub gr_ns: u64,
    /// Per-function alias-matrix builds.
    pub matrices_ns: u64,
    /// Dropping the analysis an incremental rebuild superseded.
    pub teardown_ns: u64,
    /// Snapshot deserialization: section decode and validation, straight
    /// into the module arenas (nothing is re-assembled).
    pub load_ns: u64,
}

impl PhaseStats {
    /// Field-wise accumulation.
    pub fn merge(&mut self, other: &PhaseStats) {
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
        Self::analyze_with(m, AnalysisConfig::default())
    }

    /// Analyzes `m` with an explicit configuration on a pool of
    /// `config.threads` workers (capped at the hardware's). The query
    /// mode is ignored: a batch always builds every matrix.
    pub fn analyze_with(m: &Module, config: impl Into<AnalysisConfig>) -> Self {
        let config = config.into();
        Self::analyze_on(m, config, &WorkerPool::new(config.threads))
    }

    /// [`BatchAnalysis::analyze_with`] on a caller-provided pool, every
    /// phase dispatching onto its workers. The module is not verified:
    /// callers hand in well-formed modules (sessions verify theirs).
    pub fn analyze_on(m: &Module, config: AnalysisConfig, pool: &WorkerPool) -> Self {
        // Matrices are built once the scratch caches are gone: a batch
        // keeps no parts, so they need not outlive the assembly.
        let config = AnalysisConfig {
            query_mode: QueryMode::Demand,
            ..config
        };
        let (rbaa, phases) = {
            let (caches, phases) = scratch(m.clone(), config, pool, &mut SessionStats::default());
            (caches.rbaa, phases)
        };
        Self::with_matrices(rbaa, m, pool, phases)
    }

    /// Builds the per-function matrices over an existing analysis (for
    /// instance the serial reference), on a pool of `threads` width.
    pub fn from_rbaa(rbaa: RbaaAnalysis, m: &Module, threads: usize) -> Self {
        Self::with_matrices(rbaa, m, &WorkerPool::new(threads), PhaseStats::default())
    }

    /// Builds every function's matrix on `pool` — a lone function gets
    /// the whole pool for its signature triangle, several share it
    /// function-wise — and records the phase.
    fn with_matrices(
        rbaa: RbaaAnalysis,
        m: &Module,
        pool: &WorkerPool,
        mut phases: PhaseStats,
    ) -> Self {
        let t = std::time::Instant::now();
        let matrices = match m.num_functions() {
            1 => vec![AliasMatrix::build_with_on(&rbaa, m, FuncId::new(0), pool)],
            _ => AliasMatrix::build_all_on(&rbaa, m, pool),
        };
        phases.matrices_ns = ns_since(t);
        BatchAnalysis {
            rbaa,
            matrices,
            phases,
        }
    }

    /// The per-phase wall-clock breakdown of this build.
    pub fn phases(&self) -> &PhaseStats {
        &self.phases
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
            let config = AnalysisConfig::builder().threads(threads).build();
            let batch = BatchAnalysis::analyze_on(&m, config, &WorkerPool::forced(threads));
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
        let config = AnalysisConfig::builder().threads(4).build();
        let batch = BatchAnalysis::analyze_on(&m, config, &WorkerPool::forced(4));
        let parallel = batch.rbaa();
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
