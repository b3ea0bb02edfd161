//! The evaluation harness: runs every analysis over a module and
//! collects the statistics behind the paper's Figures 13 and 14 and the
//! §5 symbolic-range census.
//!
//! Evaluation rides on the batch driver: the paper's pipeline runs with
//! its per-function phases on a thread pool, every function's all-pairs
//! rbaa verdicts come from a cached [`sra_core::AliasMatrix`], and the
//! per-function metric rows are themselves computed on the pool (the
//! baselines are immutable after analysis, so workers share them).
//! Results are independent of the worker count; `evaluate` and
//! `evaluate_with(m, 1)` produce identical rows.

use std::time::{Duration, Instant};

use sra_baselines::{BasicAlias, ScevAlias};
use sra_core::{
    pool, AliasAnalysis, AliasResult, AnalysisConfig, BatchAnalysis, MatrixBytes, PhaseStats,
    RbaaAnalysis, WhichTest, WorkerPool,
};
use sra_ir::{FuncId, Module};
use sra_symbolic::ArenaStats;

/// Per-module evaluation results: one Figure 13/14 row.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Pairwise pointer queries issued (the paper's `#Queries`).
    pub queries: usize,
    /// `NoAlias` answers per analysis.
    pub scev_no: usize,
    /// `NoAlias` answers from `basicaa`.
    pub basic_no: usize,
    /// `NoAlias` answers from the paper's analysis.
    pub rbaa_no: usize,
    /// `NoAlias` answers from `rbaa ∪ basic` (the paper's `r + b`).
    pub rb_no: usize,
    /// rbaa answers from disjoint allocation-site supports.
    pub rbaa_distinct: usize,
    /// rbaa answers attributed to the global test proper — symbolic
    /// range comparison on common locations (Figure 14).
    pub rbaa_global: usize,
    /// rbaa answers attributed to the local test.
    pub rbaa_local: usize,
    /// IR instructions in the module (Figure 15 x-axis).
    pub insts: usize,
    /// Pointer-typed SSA values (Figure 15 second series).
    pub pointers: usize,
    /// Pointers whose GR bounds mention a kernel symbol (§5 census).
    pub symbolic_range_ptrs: usize,
    /// Pointers with a non-⊥, non-⊤ GR state (census denominator).
    pub ranged_ptrs: usize,
    /// Wall time of the paper's analyses (bootstrap + GR + LR), which is
    /// what Figure 15 measures ("only the time to map variables to
    /// values in SymbRanges").
    pub analysis_time: Duration,
    /// Interning effectiveness of the analysis' module arenas
    /// (bootstrap ranges + GR + LR summed): node counts, per-op memo
    /// hit/miss table, approximate bytes.
    pub arena_stats: ArenaStats,
    /// Footprint of the cached alias matrices: pair count plus packed
    /// (2-bit cells) vs byte-per-cell sizes.
    pub matrix_bytes: MatrixBytes,
    /// Per-phase wall-clock attribution of the pipeline run (part
    /// analysis, arena assembly, GR, matrices) — what the
    /// trajectory benchmark reports alongside the end-to-end times.
    pub phases: PhaseStats,
}

impl Metrics {
    /// `%scev` of Figure 13.
    pub fn scev_pct(&self) -> f64 {
        percent(self.scev_no, self.queries)
    }

    /// `%basic` of Figure 13.
    pub fn basic_pct(&self) -> f64 {
        percent(self.basic_no, self.queries)
    }

    /// `%rbaa` of Figure 13.
    pub fn rbaa_pct(&self) -> f64 {
        percent(self.rbaa_no, self.queries)
    }

    /// `%(r + b)` of Figure 13.
    pub fn rb_pct(&self) -> f64 {
        percent(self.rb_no, self.queries)
    }

    /// Share of GR-ranged pointers with exclusively symbolic bounds.
    pub fn symbolic_pct(&self) -> f64 {
        percent(self.symbolic_range_ptrs, self.ranged_ptrs)
    }

    /// Adds another module's numbers (for the Total row).
    pub fn merge(&mut self, other: &Metrics) {
        self.queries += other.queries;
        self.scev_no += other.scev_no;
        self.basic_no += other.basic_no;
        self.rbaa_no += other.rbaa_no;
        self.rb_no += other.rb_no;
        self.rbaa_distinct += other.rbaa_distinct;
        self.rbaa_global += other.rbaa_global;
        self.rbaa_local += other.rbaa_local;
        self.insts += other.insts;
        self.pointers += other.pointers;
        self.symbolic_range_ptrs += other.symbolic_range_ptrs;
        self.ranged_ptrs += other.ranged_ptrs;
        self.analysis_time += other.analysis_time;
        self.arena_stats.merge(&other.arena_stats);
        self.matrix_bytes.merge(&other.matrix_bytes);
        self.phases.merge(&other.phases);
    }
}

fn percent(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        100.0 * n as f64 / d as f64
    }
}

/// Runs rbaa, basicaa and scev-aa over `m`, querying every unordered
/// pair of pointer values within each function. Uses the batch driver
/// with the default worker count; see [`evaluate_with`].
pub fn evaluate(m: &Module) -> Metrics {
    evaluate_with(m, pool::default_threads())
}

/// [`evaluate`] with an explicit worker count (`1` = fully serial).
pub fn evaluate_with(m: &Module, threads: usize) -> Metrics {
    // One persistent pool serves the pipeline, the matrix builds and
    // the metric rows. Figure 15 times only the paper's pipeline
    // (bootstrap + GR + LR), not query evaluation — the matrix phase
    // is taken off the clock.
    let wp = WorkerPool::new(threads);
    let config = AnalysisConfig::builder().threads(threads).build();
    let started = Instant::now();
    let batch = BatchAnalysis::analyze_on(m, config, &wp);
    let phases = *batch.phases();
    let analysis_time = started
        .elapsed()
        .saturating_sub(Duration::from_nanos(phases.matrices_ns));
    let basic = BasicAlias::analyze(m);
    let scev = ScevAlias::analyze(m);

    let partials = wp.run_indexed(m.num_functions(), |i| {
        evaluate_function(FuncId::new(i), &batch, &basic, &scev)
    });

    let mut out = Metrics {
        insts: m.num_insts(),
        analysis_time,
        arena_stats: batch.rbaa().arena_stats(),
        phases,
        ..Metrics::default()
    };
    for row in &partials {
        out.merge(row);
    }
    out
}

/// One function's contribution to the Figure 13/14 row: the cached
/// rbaa matrix cross-checked per query against both baselines, plus
/// the §5 census.
fn evaluate_function(
    f: FuncId,
    batch: &BatchAnalysis,
    basic: &BasicAlias,
    scev: &ScevAlias,
) -> Metrics {
    let rbaa = batch.rbaa();
    let matrix = batch.matrix(f);
    let ptrs = matrix.pointers();
    let mut out = Metrics {
        pointers: ptrs.len(),
        matrix_bytes: matrix.bytes(),
        ..Metrics::default()
    };
    for (i, &p) in ptrs.iter().enumerate() {
        for &q in &ptrs[i + 1..] {
            out.queries += 1;
            let (r, test) = matrix
                .lookup(p, q)
                .expect("matrix covers its own pointer universe");
            let rbaa_no = r == AliasResult::NoAlias;
            if rbaa_no {
                out.rbaa_no += 1;
                match test {
                    Some(WhichTest::DistinctLocs) => out.rbaa_distinct += 1,
                    Some(WhichTest::Global) => out.rbaa_global += 1,
                    Some(WhichTest::Local) => out.rbaa_local += 1,
                    None => {}
                }
            }
            let basic_no = basic.alias(f, p, q) == AliasResult::NoAlias;
            if basic_no {
                out.basic_no += 1;
            }
            if scev.alias(f, p, q) == AliasResult::NoAlias {
                out.scev_no += 1;
            }
            if rbaa_no || basic_no {
                out.rb_no += 1;
            }
        }
    }
    // §5 census: pointers whose GR ranges are symbolic.
    let arena = rbaa.gr().arena();
    for &p in ptrs {
        let st = rbaa.gr().state(f, p);
        if st.is_top() || st.is_bottom() {
            continue;
        }
        out.ranged_ptrs += 1;
        if st.support().any(|(_, r)| arena.range_is_symbolic(r)) {
            out.symbolic_range_ptrs += 1;
        }
    }
    out
}

/// Times only the paper's pipeline (bootstrap ranges + GR + LR) over a
/// module — the Figure 15 measurement.
pub fn time_analysis(m: &Module) -> Duration {
    let started = Instant::now();
    let rbaa = RbaaAnalysis::analyze(m);
    // Keep the result alive so the work is not optimized away.
    std::hint::black_box(&rbaa);
    started.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn evaluate_smallest_benchmark() {
        let b = suite::benchmark("allroots").unwrap();
        let m = b.build().unwrap();
        let row = evaluate(&m);
        assert!(row.queries > 50, "queries = {}", row.queries);
        assert!(row.rbaa_no <= row.queries);
        assert!(row.rb_no >= row.rbaa_no);
        assert!(row.rb_no >= row.basic_no);
        assert_eq!(
            row.rbaa_no,
            row.rbaa_distinct + row.rbaa_global + row.rbaa_local
        );
        assert!(row.insts > 100);
        assert!(row.pointers > 20);
        // The interning stats of the analysis' module arenas surface
        // through the metrics row.
        assert!(row.arena_stats.exprs > 0, "{:?}", row.arena_stats);
        assert!(row.arena_stats.hits > 0, "{:?}", row.arena_stats);
        assert!(row.arena_stats.bytes > 0);
        // So does the packed-matrix footprint.
        assert!(row.matrix_bytes.pairs >= row.queries);
        assert!(
            row.matrix_bytes.saving_ratio() >= 3.0,
            "2-bit cells should pack ≥ 3.9× on any non-trivial module: {:?}",
            row.matrix_bytes
        );
    }

    #[test]
    fn rbaa_beats_scev_on_idiomatic_code() {
        let b = suite::benchmark("anagram").unwrap();
        let m = b.build().unwrap();
        let row = evaluate(&m);
        assert!(
            row.rbaa_pct() > row.scev_pct(),
            "rbaa {:.1}% vs scev {:.1}%",
            row.rbaa_pct(),
            row.scev_pct()
        );
    }

    #[test]
    fn worker_count_does_not_change_rows() {
        let b = suite::benchmark("allroots").unwrap();
        let m = b.build().unwrap();
        let serial = evaluate_with(&m, 1);
        let parallel = evaluate_with(&m, 4);
        // Every statistic matches; only wall time may differ.
        assert_eq!(serial.queries, parallel.queries);
        assert_eq!(serial.scev_no, parallel.scev_no);
        assert_eq!(serial.basic_no, parallel.basic_no);
        assert_eq!(serial.rbaa_no, parallel.rbaa_no);
        assert_eq!(serial.rb_no, parallel.rb_no);
        assert_eq!(serial.rbaa_distinct, parallel.rbaa_distinct);
        assert_eq!(serial.rbaa_global, parallel.rbaa_global);
        assert_eq!(serial.rbaa_local, parallel.rbaa_local);
        assert_eq!(serial.pointers, parallel.pointers);
        assert_eq!(serial.symbolic_range_ptrs, parallel.symbolic_range_ptrs);
        assert_eq!(serial.ranged_ptrs, parallel.ranged_ptrs);
    }

    /// Modules with zero pointer pairs keep every percentage finite —
    /// the guard behind them must return 0.0, not NaN, so report
    /// tables and the Figure 13/14 binaries stay well-defined on
    /// trivial inputs.
    #[test]
    fn zero_query_modules_have_finite_percentages() {
        use sra_ir::{FunctionBuilder, Module, Ty};
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("ints", &[Ty::Int], Some(Ty::Int));
        let n = b.param(0);
        b.ret(Some(n));
        m.add_function(b.finish());
        let row = evaluate(&m);
        assert_eq!(row.queries, 0);
        for pct in [
            row.scev_pct(),
            row.basic_pct(),
            row.rbaa_pct(),
            row.rb_pct(),
            row.symbolic_pct(),
        ] {
            assert_eq!(pct, 0.0);
            assert!(pct.is_finite());
        }
        // And the whole suite — including its smallest benchmarks —
        // only ever produces finite percentages.
        for bench in suite::benchmarks() {
            let m = bench.build().unwrap();
            let row = evaluate(&m);
            for pct in [
                row.rbaa_pct(),
                row.basic_pct(),
                row.scev_pct(),
                row.rb_pct(),
            ] {
                assert!(pct.is_finite(), "{}: non-finite percentage", bench.name);
            }
        }
    }

    #[test]
    fn metrics_merge_totals() {
        let mut a = Metrics {
            queries: 10,
            rbaa_no: 4,
            ..Metrics::default()
        };
        let b = Metrics {
            queries: 5,
            rbaa_no: 1,
            ..Metrics::default()
        };
        a.merge(&b);
        assert_eq!(a.queries, 15);
        assert_eq!(a.rbaa_no, 5);
        assert!((a.rbaa_pct() - 100.0 * 5.0 / 15.0).abs() < 1e-9);
    }
}
