//! Ablation study over the design choices DESIGN.md calls out:
//!
//! * **descending-sequence length** — the paper uses 2 (§3.9, Figure
//!   12); 0 shows how much precision widening costs, 1 and 2 how much
//!   each descending step recovers;
//! * **local test on/off** — how much of rbaa's power is the §3.6
//!   renaming versus the global abstract interpretation;
//! * **widening off** — only meaningful on loop-light code; quantifies
//!   the cost of the O(|V|) guarantee.
//!
//! ```text
//! cargo run -p sra-bench --release --bin ablation
//! ```

use sra_bench::{pct, render_table};
use sra_core::{pointer_values, AliasResult, AnalysisConfig, GrConfig, RbaaAnalysis, WhichTest};
use sra_workloads::suite;

/// Percentage of no-alias answers under `config`, optionally without
/// the local test.
fn run(config: GrConfig, use_local: bool) -> (f64, usize) {
    let mut queries = 0usize;
    let mut no_alias = 0usize;
    for bench in suite::benchmarks().into_iter().take(8) {
        let module = bench.build().expect("benchmark builds");
        let rbaa =
            RbaaAnalysis::analyze_with(&module, AnalysisConfig::builder().gr(config).build());
        for f in module.func_ids() {
            let ptrs = pointer_values(&module, f);
            for (i, &p) in ptrs.iter().enumerate() {
                for &q in &ptrs[i + 1..] {
                    queries += 1;
                    let (r, test) = rbaa.alias_with_test(f, p, q);
                    let counts = match (r, test, use_local) {
                        (AliasResult::NoAlias, Some(WhichTest::Local), false) => false,
                        (AliasResult::NoAlias, _, _) => true,
                        _ => false,
                    };
                    if counts {
                        no_alias += 1;
                    }
                }
            }
        }
    }
    // Guard the division: a benchmark subset with no pointer pairs
    // must report 0.0, not NaN.
    if queries == 0 {
        return (0.0, 0);
    }
    (100.0 * no_alias as f64 / queries as f64, queries)
}

fn main() {
    let base = GrConfig::default();
    let configs: Vec<(&str, GrConfig, bool)> = vec![
        ("full (descend=2, local on)", base, true),
        (
            "descend=0",
            GrConfig {
                descending_steps: 0,
                ..base
            },
            true,
        ),
        (
            "descend=1",
            GrConfig {
                descending_steps: 1,
                ..base
            },
            true,
        ),
        (
            "descend=4",
            GrConfig {
                descending_steps: 4,
                ..base
            },
            true,
        ),
        ("local test off", base, false),
        (
            "no widening (cap-guarded)",
            GrConfig {
                widening: false,
                max_ascending_sweeps: 12,
                ..base
            },
            true,
        ),
    ];
    let mut rows = Vec::new();
    for (name, config, local) in configs {
        let (p, queries) = run(config, local);
        rows.push(vec![name.to_string(), queries.to_string(), pct(p)]);
    }
    println!("\nAblation: rbaa no-alias rate under design variations\n");
    println!("{}", render_table(&["Variant", "#Queries", "%rbaa"], &rows));
    println!(
        "(First 8 Figure-13 benchmarks; expect: descend=0 < descend=1 ≤ \
         descend=2 = full; local-off strictly below full.)"
    );
}
