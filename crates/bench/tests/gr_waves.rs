//! Acceptance rails for the SCC-wave-scheduled GR on the
//! many-function call-graph workload:
//!
//! * **byte-identity** (tier-1): a width-4 pool's waves return exactly
//!   a width-1 pool's level-by-level states — here on the big bench workload, with
//!   the property-test rail (`tests/gr_schedule_equivalence.rs`)
//!   covering random modules;
//! * **convergence** (tier-1): the alternating condensation order
//!   converges in O(1) ascending sweeps on call DAGs whose depth far
//!   exceeds the ascending cap — the cap would have tripped (and
//!   flushed every join to ⊤) under any fixed one-directional order;
//! * **speedup** (`--ignored`, wall-clock): waves beat the width-1
//!   baseline when the machine actually has cores to spread over.
//!
//! ```text
//! cargo test -q --release -p sra-bench --test gr_waves -- --ignored
//! ```

use sra_core::{GrAnalysis, GrConfig};
use sra_range::RangeAnalysis;
use sra_workloads::scaling;

const FUNCS: usize = 600;
const SEED: u64 = 42;

fn serial_config() -> GrConfig {
    GrConfig {
        threads: 1,
        ..GrConfig::default()
    }
}

fn waves_config(threads: usize) -> GrConfig {
    GrConfig {
        threads,
        ..GrConfig::default()
    }
}

#[test]
fn waves_are_byte_identical_to_serial_on_bench_workload() {
    let m = scaling::generate_call_graph_module(FUNCS, SEED);
    let ranges = RangeAnalysis::analyze(&m);
    let serial = GrAnalysis::analyze_with(&m, &ranges, serial_config());
    let waves = GrAnalysis::analyze_with(&m, &ranges, waves_config(4));
    assert_eq!(serial.ascending_sweeps(), waves.ascending_sweeps());
    for f in m.func_ids() {
        for v in m.function(f).value_ids() {
            assert_eq!(serial.state(f, v), waves.state(f, v), "{f} {v}");
        }
    }
}

#[test]
fn deep_call_graph_converges_in_constant_sweeps() {
    let m = scaling::generate_call_graph_module(FUNCS, SEED);
    let cond = sra_ir::callgraph::Condensation::of_module(&m);
    let ranges = RangeAnalysis::analyze(&m);
    let gr = GrAnalysis::analyze_with(&m, &ranges, waves_config(4));
    let depth = cond.levels().len() as u32;
    assert!(
        depth > GrConfig::default().max_ascending_sweeps / 2,
        "workload too shallow to be interesting: {depth} levels"
    );
    assert!(
        gr.ascending_sweeps() <= 8,
        "condensation schedule should converge in O(1) sweeps on a \
         {depth}-level call graph, took {}",
        gr.ascending_sweeps()
    );
}

/// Wall-clock comparison; meaningful only with real cores, so the
/// speedup bar scales with the machine and the test is `--ignored`
/// like the other timing rails.
#[test]
#[ignore = "wall-clock assertion; run explicitly in --release"]
fn waves_beat_serial_gr_given_cores() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let m = scaling::generate_call_graph_module(FUNCS, SEED);
    let ranges = RangeAnalysis::analyze(&m);
    // Warm-up.
    std::hint::black_box(GrAnalysis::analyze_with(&m, &ranges, serial_config()));
    std::hint::black_box(GrAnalysis::analyze_with(&m, &ranges, waves_config(4)));

    let time = |config: GrConfig| {
        (0..3)
            .map(|_| {
                let t = std::time::Instant::now();
                std::hint::black_box(GrAnalysis::analyze_with(&m, &ranges, config));
                t.elapsed()
            })
            .min()
            .unwrap()
    };
    let serial = time(serial_config());
    let waves = time(waves_config(cores.min(4)));
    let speedup = serial.as_secs_f64() / waves.as_secs_f64();
    println!(
        "gr waves speedup at {} threads: {speedup:.2}x ({waves:?} vs {serial:?}, {} cores)",
        cores.min(4),
        cores
    );
    if cores >= 4 {
        assert!(
            speedup >= 1.2,
            "waves must beat serial GR by ≥1.2x on ≥4 cores, got {speedup:.2}x"
        );
    } else if cores >= 2 {
        assert!(
            speedup >= 1.05,
            "waves must beat serial GR on ≥2 cores, got {speedup:.2}x"
        );
    } else {
        // Single core: the schedule cannot win wall-clock; it must at
        // least stay close to serial despite the state hand-off.
        assert!(
            speedup >= 0.7,
            "waves must not collapse on one core, got {speedup:.2}x"
        );
    }
}
