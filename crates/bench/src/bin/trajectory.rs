//! The CI perf-trajectory harness: times the throughput-critical paths
//! in quick mode, writes a machine-readable `BENCH_10.json`, compares
//! against the previous `BENCH_N.json` at the repo root (printing a
//! per-group delta table — warn, don't gate, on regressions; groups
//! that appear or disappear across trajectories are listed as `new` /
//! `gone`, and a group whose recorded workload size changed is listed
//! as `resized` instead of a spurious ±%), and fails (non-zero exit)
//! when a speedup drops below its acceptance gate — so CI both
//! *publishes* the perf trajectory as an artifact and *gates* on it.
//!
//! ```text
//! cargo run --release -p sra-bench --bin trajectory [out.json]
//! ```
//!
//! Measured groups (medians of 5 runs each, after a warm-up):
//!
//! * `all_pairs/per_query` vs `all_pairs/batched_t4` — the seed
//!   per-query path vs the batched+cached matrices (PR 2's ≥2× floor);
//! * `session/scratch_per_edit` vs `session/session_per_edit` — full
//!   re-analysis per edit vs the incremental session (PR 4's ≥2× floor,
//!   1.5× gate);
//! * `interning/boxed` vs `interning/interned` — the equality/join/
//!   widen-heavy lattice sweep on boxed `SymRange` values vs interned
//!   `RangeId` handles (PR 5's ≥1.5× floor);
//! * `service/single_thread` vs `service/mixed_4r2w` — one reader on a
//!   quiescent `AliasService` vs 4 readers racing 2 writers through
//!   per-tenant edit streams (PR 6). The gated ratio is aggregate
//!   mixed queries/sec over the single-reader baseline: snapshot
//!   isolation means readers keep their fair CPU share even while
//!   every edit re-analyzes its tenant, so the ratio holding near
//!   readers/(readers+writers) on a saturated runner (and above 1×
//!   with spare cores) is the "readers never block" contract in
//!   trajectory form. The mixed p50/p99 query latencies are recorded
//!   alongside (amortised over 32-query timed sub-batches, nearest-rank
//!   percentiles);
//! * `demand/matrix_build_t4` vs `demand/single_query` — building one
//!   giant function's full packed alias matrix (the O(P²) wall) vs one
//!   cold demand-driven query through a fresh [`sra_core::DemandCache`]
//!   (PR 7's ≥10× floor). The giant function's packed-matrix byte
//!   accounting rides along in the JSON;
//! * `source_edit/scratch_per_edit` vs `source_edit/session_per_edit`
//!   — the source-to-verdict frontend (PR 8's ≥3× floor): both sides
//!   replay the same textual tweak stream over a ~20k-instruction
//!   mini-C program; the scratch side recompiles the whole text and
//!   re-analyzes from scratch per edit, the incremental side diffs
//!   the text at function granularity and applies the diff to a
//!   long-lived session. The incremental cost honestly includes
//!   tokenizing the full text to diff it and re-lowering the changed
//!   functions, not just the session update.
//! * `persist/scratch_build` vs `persist/save` + `persist/load` +
//!   `persist/first_query` — the warm-start contract (PR 9's ≥10×
//!   floor) on a million-instruction, >10⁴-function module: building
//!   the session from scratch vs serializing it and reviving it from
//!   bytes through [`sra_core::AnalysisSession::save`] / `load`, first
//!   query included. The load and the first query are timed separately
//!   (PR 10 split the legacy `persist/load_first_query` group) so the
//!   parallel snapshot decode's trajectory is visible on its own. One
//!   load is verified against a scratch re-analysis (outside the timed
//!   region) to prove the revived state byte-identical; the timed
//!   loads skip the verify, as a restart would. The snapshot size,
//!   arena bytes and total packed-matrix bytes ride along in the
//!   JSON's `persist` block.
//! * `pipeline/legacy_scratch_t4` vs `pipeline/fused_scratch_t4` — the
//!   fused scratch pipeline (PR 10's ≥1.25× floor, 1.15× gate) on the
//!   same million-instruction module, both arms in-run at the same
//!   thread count: the legacy arm replays the BENCH_9-era schedule
//!   (one-shot pool per phase, serial canonical-arena assembly,
//!   forced-width GR waves), the fused arm is
//!   [`sra_core::BatchAnalysis::analyze_with`] — the session's one
//!   scratch pipeline — on one persistent, hardware-capped
//!   [`sra_core::WorkerPool`]. The arms run as two
//!   interleaved rounds (legacy, fused, legacy, fused) and the gated
//!   ratio uses the per-arm minima, so minute-scale drift in the
//!   host's effective memory bandwidth hits both arms alike instead
//!   of whichever arm ran last. The fused arm's
//!   per-phase wall-clock breakdown ([`sra_core::PhaseStats`]) rides
//!   along in the JSON's `pipeline` block, so a regression names the
//!   phase that slowed down.
//!
//! The run also surfaces the analysis' arena statistics (interned
//! nodes, memo hit rate) for the scaling workload. Every group records
//! its workload size under `work`, so the cross-trajectory delta table
//! can tell a generator resize from a genuine regression.

use std::time::{Duration, Instant};

use sra_bench::{
    batched_sweep, build_session, deep_chain_range, legacy_scratch_pipeline, per_query_sweep,
    scratch_replay, session_replay, source_scratch_replay, source_session_replay,
};
use sra_core::{
    pointer_values, AliasMatrix, AliasResult, AliasService, AnalysisConfig, AnalysisSession,
    BatchAnalysis, PhaseStats, RbaaAnalysis,
};
use sra_lang::SourceProgram;
use sra_symbolic::{ExprArena, RangeId, SymRange};
use sra_workloads::{edits, scaling, source_edits, traffic};

const SCALING_INSTS: usize = 20_000;
const SCALING_SEED: u64 = 42;
const SESSION_EDITS: usize = 8;
const SAMPLES: usize = 5;
/// The acceptance floors recorded in the trajectory.
const BATCHED_FLOOR: f64 = 2.0;
const SESSION_FLOOR: f64 = 2.0;
const INTERNING_FLOOR: f64 = 1.5;
/// The CI hard-fail gate for the session ratio sits below its floor:
/// the measured value (~2.4× on a quiet machine, see the committed
/// BENCH_5.json) clears the floor, but shared-runner timing variance
/// would make an exit-code gate at 2.0 flaky. Dropping below the floor
/// prints a loud warning; dropping below the gate (a real regression)
/// fails the job. The batched and interning ratios' headroom needs no
/// such margin.
const SESSION_GATE: f64 = 1.5;
const INTERNING_GATE: f64 = 1.5;
/// The service floor is deliberately conservative because the ratio's
/// healthy value depends on the runner's core count. With snapshot
/// isolation, readers always keep their fair share of CPU: on a
/// single-core runner that is readers/(readers+writers) ≈ 0.67× the
/// quiet single-reader baseline (measured 0.67× here); with spare
/// cores it rises past 1×. If readers instead serialized behind the
/// writers' re-analysis, they would answer little more than their
/// fixed quota (8k queries) over the same edit-phase wall (~0.26 s
/// here) — a ratio around 0.005×, two orders of magnitude below
/// healthy. The floor sits below every healthy machine shape; the
/// gate still catches the collapse with ~40× margin.
const SERVICE_FLOOR: f64 = 0.4;
const SERVICE_GATE: f64 = 0.2;
/// The demand group's contract is structural, not a timing nuance: a
/// single demand query interns two signatures and proves one pair,
/// while the matrix build proves the whole signature triangle and
/// fills millions of packed cells. Anything under 10× means demand
/// mode started doing eager work, so floor and gate coincide.
const DEMAND_FLOOR: f64 = 10.0;
const DEMAND_GATE: f64 = 10.0;
/// The source-edit floor is the PR acceptance bar: a textual tweak
/// must land at least 3× faster than recompiling and re-analyzing the
/// whole program, *including* the diff's full-text tokenization and
/// the changed functions' re-lowering. As with the session group, the
/// exit-code gate sits below the floor to absorb shared-runner timing
/// variance; dropping below the floor warns loudly, dropping below
/// the gate fails.
const SOURCE_FLOOR: f64 = 3.0;
const SOURCE_GATE: f64 = 2.0;
/// The warm-start contract: reviving a saved million-instruction
/// session (save + load + first query) must beat building it from
/// scratch by ≥10×. The gap is structural — a load deserializes and
/// re-indexes already-computed state while the scratch build re-runs
/// the whole fixpoint pipeline and every all-pairs matrix — so, like
/// the demand group, floor and gate coincide.
const PERSIST_FLOOR: f64 = 10.0;
const PERSIST_GATE: f64 = 10.0;
/// The fused-pipeline contract: one persistent, hardware-capped pool
/// carrying every phase of a scratch build must beat the legacy
/// schedule (one-shot pool per phase, serial assembly, forced-width GR
/// waves) by ≥1.25× at the same requested thread count — both arms
/// timed in-run on the same machine. The exit-code gate sits below the
/// floor to absorb runner variance on a leg that runs once (at ~40 s a
/// side, medians are a luxury).
const PIPELINE_FLOOR: f64 = 1.25;
const PIPELINE_GATE: f64 = 1.15;
const PIPELINE_THREADS: usize = 4;
/// Previous-trajectory deltas louder than this warn (never gate — the
/// comparison crosses machines and runner generations).
const DELTA_WARN: f64 = 0.20;

/// Median wall time of `SAMPLES` runs of `f` (one warm-up run first).
fn median_time(mut f: impl FnMut() -> usize) -> Duration {
    std::hint::black_box(f());
    let mut times: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

const INTERNING_RANGES: u32 = 12;
const INTERNING_DEPTH: u32 = 8;
const INTERNING_REPS: usize = 5;

/// The boxed side of the interning group: all-pairs equality + join +
/// widen on deep-chain `SymRange` values.
fn boxed_lattice_sweep(ranges: &[SymRange]) -> usize {
    let mut count = 0usize;
    for _ in 0..INTERNING_REPS {
        for a in ranges {
            for b in ranges {
                if std::hint::black_box(a) == std::hint::black_box(b) {
                    count += 1;
                }
                let j = a.join(b);
                let w = a.widen(&j);
                count += usize::from(!w.is_empty());
            }
        }
    }
    count
}

/// The interned side: the same sweep on `RangeId` handles. The arena
/// is built *inside* the measured region — interning the operands,
/// computing each distinct join/widen once and replaying the repeats
/// as memo hits — so the gate watches the full interned-path cost, not
/// just warm-cache lookups.
fn interned_lattice_sweep(ranges: &[SymRange]) -> usize {
    let mut arena = ExprArena::new();
    let ids: Vec<RangeId> = ranges.iter().map(|r| arena.intern_range(r)).collect();
    let mut count = 0usize;
    for _ in 0..INTERNING_REPS {
        for &a in &ids {
            for &b in &ids {
                if std::hint::black_box(a) == std::hint::black_box(b) {
                    count += 1;
                }
                let j = arena.range_join(a, b);
                let w = arena.range_widen(a, j);
                count += usize::from(!arena.range_is_empty(w));
            }
        }
    }
    count
}

/// One prior group entry: name, median, and the recorded workload
/// size (`None` for trajectories predating the `work` field).
struct GroupEntry {
    name: String,
    median_ns: u128,
    work: Option<u128>,
}

/// The first integer after `key` inside `section`, if any.
fn number_after(section: &str, from: usize, key: &str) -> Option<(u128, usize)> {
    let bytes = section.as_bytes();
    let m = section[from..].find(key)? + from;
    let mut j = m + key.len();
    while j < bytes.len() && !bytes[j].is_ascii_digit() {
        j += 1;
    }
    let mut k = j;
    while k < bytes.len() && bytes[k].is_ascii_digit() {
        k += 1;
    }
    section[j..k].parse::<u128>().ok().map(|v| (v, k))
}

/// Extracts `"groups": { "<name>": { "median_ns": <n>, "work": <w> },
/// … }` from a prior trajectory JSON (hand-rolled: the workspace is
/// dependency-free, and the schema is our own). `work` is optional —
/// older trajectories never recorded it.
fn parse_groups(json: &str) -> Vec<GroupEntry> {
    let mut out = Vec::new();
    let Some(start) = json.find("\"groups\"") else {
        return out;
    };
    let rest = &json[start..];
    let end = rest.find("},\n  \"").map(|e| e + 1).unwrap_or(rest.len());
    let section = &rest[..end];
    let mut i = 0;
    while let Some(q) = section[i..].find('"').map(|k| i + k) {
        let Some(q2) = section[q + 1..].find('"').map(|k| q + 1 + k) else {
            break;
        };
        let name = &section[q + 1..q2];
        i = q2 + 1;
        if !name.contains('/') {
            continue;
        }
        // The group object runs to its closing brace; `median_ns` is
        // required, `work` optional.
        let obj_end = section[i..].find('}').map_or(section.len(), |k| i + k);
        let Some((median_ns, after)) = number_after(section, i, "\"median_ns\"") else {
            break;
        };
        let work = (after < obj_end)
            .then(|| number_after(&section[..obj_end], i, "\"work\"").map(|(v, _)| v))
            .flatten();
        out.push(GroupEntry {
            name: name.to_owned(),
            median_ns,
            work,
        });
        i = obj_end;
    }
    out
}

/// The newest `BENCH_N.json` at the repo root other than `out_path`.
fn previous_trajectory(out_path: &str) -> Option<(String, String)> {
    let mut best: Option<(u32, String)> = None;
    for entry in std::fs::read_dir(".").ok()?.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == out_path {
            continue;
        }
        let Some(num) = name
            .strip_prefix("BENCH_")
            .and_then(|r| r.strip_suffix(".json"))
            .and_then(|n| n.parse::<u32>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, _)| num > *b) {
            best = Some((num, name));
        }
    }
    let (_, name) = best?;
    let contents = std::fs::read_to_string(&name).ok()?;
    Some((name, contents))
}

/// The demand-group workload: one function with thousands of pointers
/// in a dozen alias cliques — the shape where an eager all-pairs
/// matrix is millions of cells but any one query touches two
/// signatures.
const GIANT_PTRS: usize = 3_000;
const GIANT_CLIQUES: usize = 12;

/// The service traffic shape: smaller tenants than the scaling
/// workload (edits re-analyze a whole tenant per publish, and five
/// samples replay the full mixed phase each).
const SERVICE_TENANTS: usize = 4;
const SERVICE_INSTS: usize = 2_000;
const SERVICE_READERS: usize = 4;
const SERVICE_WRITERS: usize = 2;
const SERVICE_EDITS: usize = 4;
const SERVICE_QUERIES_PER_READER: usize = 2_000;

/// The warm-start workload: a million instructions across >10⁴
/// functions — the scale where re-analysis is minutes and a snapshot
/// load is seconds.
const PERSIST_INSTS: usize = 1_000_000;
/// Save/load samples. The loads are ~8 s each and deterministic, so
/// three samples bound the harness wall clock without losing the
/// median's noise rejection.
const PERSIST_SAMPLES: usize = 3;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_10.json".to_owned());

    let m = scaling::generate_module(SCALING_INSTS, SCALING_SEED);
    eprintln!(
        "workload: {} functions, {} instructions",
        m.num_functions(),
        m.num_insts()
    );

    // Group 1: the all-pairs evaluation paths.
    let rbaa = RbaaAnalysis::analyze(&m);
    let per_query = median_time(|| per_query_sweep(&m, &rbaa).queries);
    let batched = median_time(|| batched_sweep(&m, &rbaa, 4).queries);
    let batched_ratio = per_query.as_secs_f64() / batched.as_secs_f64();
    eprintln!("all_pairs: per_query {per_query:?}, batched_t4 {batched:?} ({batched_ratio:.2}x)");

    // The analysis' interning effectiveness on the scaling workload.
    let arena = rbaa.arena_stats();
    let hit_rate = if arena.hits + arena.misses == 0 {
        0.0
    } else {
        100.0 * arena.hits as f64 / (arena.hits + arena.misses) as f64
    };
    eprintln!(
        "arena: {} exprs, {} ranges, {} hits / {} misses ({hit_rate:.1}% hit rate), ~{} KiB",
        arena.exprs,
        arena.ranges,
        arena.hits,
        arena.misses,
        arena.bytes / 1024
    );

    // Group 2: the edit-stream replay paths. The session is built once
    // (the server's module-load cost) and each sample replays the
    // stream against a clone taken outside the timed region — the same
    // convention the all-pairs group uses by pre-building `rbaa`.
    let stream = edits::generate_replace_stream(&m, SESSION_EDITS, SCALING_SEED);
    let scratch = median_time(|| scratch_replay(&m, &stream));
    let base = build_session(&m);
    let mut replicas: Vec<_> = (0..=SAMPLES).map(|_| base.clone()).collect();
    let session = median_time(move || {
        let mut s = replicas.pop().expect("one replica per sample");
        session_replay(&mut s, &stream)
    });
    let session_ratio = scratch.as_secs_f64() / session.as_secs_f64();
    eprintln!(
        "session ({SESSION_EDITS} edits): scratch {scratch:?}, session {session:?} \
         ({session_ratio:.2}x)"
    );

    // Group 3: interned vs boxed on the equality/join-heavy lattice
    // sweep (deep min/max chains).
    let chains: Vec<SymRange> = (0..INTERNING_RANGES)
        .map(|i| deep_chain_range(INTERNING_DEPTH, i * 50))
        .collect();
    let boxed = median_time(|| boxed_lattice_sweep(&chains));
    let interned = median_time(|| interned_lattice_sweep(&chains));
    let interning_ratio = boxed.as_secs_f64() / interned.as_secs_f64();
    eprintln!(
        "interning ({INTERNING_RANGES} deep ranges): boxed {boxed:?}, interned {interned:?} \
         ({interning_ratio:.2}x)"
    );

    // Group 4: the alias-query service under traffic. The single-
    // threaded baseline queries a quiescent service; the mixed run
    // races SERVICE_READERS readers against SERVICE_WRITERS writers
    // replaying the per-tenant edit streams. `run_mixed` consumes the
    // streams, so each sample repopulates a fresh service outside its
    // timed region (the report's wall clock covers only the mixed
    // phase).
    let cfg = traffic::TrafficConfig {
        tenants: SERVICE_TENANTS,
        insts_per_tenant: SERVICE_INSTS,
        readers: SERVICE_READERS,
        writers: SERVICE_WRITERS,
        edits_per_tenant: SERVICE_EDITS,
        queries_per_reader: SERVICE_QUERIES_PER_READER,
        ..traffic::TrafficConfig::default()
    };
    let modules = traffic::build_tenants(&cfg);
    let streams = traffic::edit_streams(&cfg, &modules);
    let quiescent = AliasService::new();
    traffic::populate(&quiescent, modules.clone());
    let single_qps = {
        // Warm-up, then the median-by-throughput of SAMPLES runs.
        std::hint::black_box(traffic::single_thread_queries(
            &quiescent,
            &cfg,
            SERVICE_QUERIES_PER_READER,
        ));
        let mut runs: Vec<(usize, Duration)> = (0..SAMPLES)
            .map(|_| traffic::single_thread_queries(&quiescent, &cfg, SERVICE_QUERIES_PER_READER))
            .collect();
        runs.sort_by_key(|r| r.1);
        let (queries, wall) = runs[runs.len() / 2];
        (queries as f64 / wall.as_secs_f64().max(1e-9), wall)
    };
    let mixed = {
        let mut reports: Vec<traffic::TrafficReport> = (0..=SAMPLES)
            .map(|_| {
                let service = AliasService::new();
                traffic::populate(&service, modules.clone());
                traffic::run_mixed(&service, &cfg, &streams)
            })
            .collect();
        for r in &reports {
            assert_eq!(r.monotone_violations, 0, "a reader saw an epoch regression");
            assert_eq!(r.lookup_failures, 0, "a reader lost a registered tenant");
        }
        reports.remove(0); // warm-up
        reports.sort_by_key(|r| r.wall);
        reports.swap_remove(reports.len() / 2)
    };
    let service_ratio = mixed.queries_per_sec / single_qps.0;
    eprintln!(
        "service ({SERVICE_TENANTS} tenants, {SERVICE_READERS}r/{SERVICE_WRITERS}w, \
         {SERVICE_EDITS} edits each): single {:.0} q/s, mixed {:.0} q/s \
         ({service_ratio:.2}x), mixed p99 {} ns",
        single_qps.0, mixed.queries_per_sec, mixed.p99_ns
    );

    // Group 5: the O(P²) wall. Building the giant function's full
    // packed matrix vs answering one cold query through a fresh
    // demand cache (fresh per sample, so the measured cost includes
    // signature interning — the cache-miss path, not a warm memo hit).
    let giant = scaling::generate_giant_function(GIANT_PTRS, GIANT_CLIQUES, SCALING_SEED);
    let giant_f = giant.func_ids().next().expect("one giant function");
    let giant_rbaa = RbaaAnalysis::analyze(&giant);
    let giant_ptrs = pointer_values(&giant, giant_f);
    let (p, q) = (
        giant_ptrs[0],
        *giant_ptrs.last().expect("thousands of pointers"),
    );
    let matrix_build = median_time(|| {
        AliasMatrix::build_with(&giant_rbaa, &giant, giant_f, 4)
            .bytes()
            .pairs
    });
    let single_query = median_time(|| {
        let mut cache = giant_rbaa.demand_cache();
        usize::from(cache.query(&giant_rbaa, giant_f, p, q).0 == AliasResult::NoAlias)
    });
    let demand_ratio = matrix_build.as_secs_f64() / single_query.as_secs_f64();
    let giant_bytes = AliasMatrix::build_with(&giant_rbaa, &giant, giant_f, 4).bytes();
    eprintln!(
        "demand ({GIANT_PTRS} ptrs, {GIANT_CLIQUES} cliques): matrix build {matrix_build:?} \
         ({} pairs, {} KiB packed vs {} KiB unpacked), single query {single_query:?} \
         ({demand_ratio:.0}x)",
        giant_bytes.pairs,
        giant_bytes.packed_bytes / 1024,
        giant_bytes.unpacked_bytes / 1024
    );

    // Group 6: the source-to-verdict frontend. Capture the base text
    // *before* generating the stream (each step carries the full text
    // after its edit), then replay the same stream both ways.
    let mut src = source_edits::generate_sized_workload(SCALING_INSTS, SCALING_SEED);
    let src_text = src.text();
    let src_steps = src.tweak_stream(SESSION_EDITS);
    let src_program = SourceProgram::new(&src_text).expect("generated source compiles");
    eprintln!(
        "source workload: {} bytes, {} functions, {} instructions",
        src_text.len(),
        src_program.num_units(),
        src_program.module().num_insts()
    );
    let src_scratch = median_time(|| source_scratch_replay(&src_steps));
    let src_session_base = build_session(src_program.module());
    let mut src_replicas: Vec<_> = (0..=SAMPLES)
        .map(|_| (src_program.clone(), src_session_base.clone()))
        .collect();
    let src_session = median_time(move || {
        let (mut p, mut s) = src_replicas.pop().expect("one replica per sample");
        source_session_replay(&mut p, &mut s, &src_steps)
    });
    let source_ratio = src_scratch.as_secs_f64() / src_session.as_secs_f64();
    eprintln!(
        "source_edit ({SESSION_EDITS} tweaks): recompile+scratch {src_scratch:?}, \
         diff+session {src_session:?} ({source_ratio:.2}x)"
    );

    // Group 7: warm-start persistence at the million-instruction
    // scale. The scratch build is a single run — at minutes of wall
    // clock it dominates the harness, and run-to-run noise is
    // irrelevant next to the 10× gate.
    let big = scaling::generate_module(PERSIST_INSTS, SCALING_SEED);
    let persist_config = AnalysisConfig::builder().threads(PIPELINE_THREADS).build();
    eprintln!(
        "persist workload: {} functions, {} instructions",
        big.num_functions(),
        big.num_insts()
    );

    // Group 8: the fused scratch pipeline vs the legacy schedule, both
    // in-run at the same requested thread count. Each arm is tens of
    // seconds of memory-bound work and the host's effective bandwidth
    // drifts on that timescale, so a single back-to-back shot can skew
    // either way. Interleave two rounds (legacy, fused, legacy, fused)
    // and gate on the per-arm minima: the minimum of each arm is the
    // cleanest sample that arm got, and interleaving ensures both arms
    // saw the same host conditions.
    let mut legacy_build = Duration::MAX;
    let mut fused_build = Duration::MAX;
    let mut fused_phases = PhaseStats::default();
    for round in 0..2 {
        let t = Instant::now();
        let legacy_queries = std::hint::black_box(legacy_scratch_pipeline(&big, PIPELINE_THREADS));
        let legacy = t.elapsed();
        let t = Instant::now();
        let fused_batch = BatchAnalysis::analyze_with(&big, persist_config);
        let fused = t.elapsed();
        assert_eq!(
            fused_batch.total_stats().queries,
            legacy_queries,
            "the fused and legacy pipelines must answer identical sweeps"
        );
        if fused < fused_build {
            fused_phases = *fused_batch.phases();
        }
        drop(fused_batch);
        legacy_build = legacy_build.min(legacy);
        fused_build = fused_build.min(fused);
        eprintln!(
            "pipeline round {round}: legacy {legacy:?}, fused {fused:?} ({:.2}x)",
            legacy.as_secs_f64() / fused.as_secs_f64()
        );
    }
    let pipeline_ratio = legacy_build.as_secs_f64() / fused_build.as_secs_f64();
    eprintln!(
        "pipeline ({} insts, t{PIPELINE_THREADS}, min of 2 interleaved rounds): legacy \
         {legacy_build:?}, fused {fused_build:?} ({pipeline_ratio:.2}x); fused phases: \
         parts {:?}, assemble {:?}, gr {:?}, matrices {:?}",
        big.num_insts(),
        Duration::from_nanos(fused_phases.parts_ns),
        Duration::from_nanos(fused_phases.assemble_ns),
        Duration::from_nanos(fused_phases.gr_ns),
        Duration::from_nanos(fused_phases.matrices_ns),
    );

    let t = Instant::now();
    let big_session = AnalysisSession::with_config(big.clone(), persist_config)
        .expect("generated modules verify");
    let scratch_build = t.elapsed();
    let snapshot = {
        let mut bytes = Vec::new();
        big_session.save(&mut bytes).expect("in-memory save");
        bytes
    };
    let save = {
        let mut times: Vec<Duration> = (0..PERSIST_SAMPLES)
            .map(|_| {
                let mut bytes = Vec::with_capacity(snapshot.len());
                let t = Instant::now();
                big_session.save(&mut bytes).expect("in-memory save");
                let elapsed = t.elapsed();
                assert_eq!(bytes, snapshot, "saves are byte-deterministic");
                elapsed
            })
            .collect();
        times.sort();
        times[times.len() / 2]
    };
    // One load, verified against a scratch re-analysis outside any
    // timed region, proves the revived state byte-identical; the timed
    // loads below skip the verify, exactly as a restart would.
    AnalysisSession::load(&mut snapshot.as_slice())
        .expect("snapshot loads")
        .verify_against_scratch()
        .expect("loaded state matches scratch re-analysis");
    let (big_f, big_p, big_q) = big
        .func_ids()
        .find_map(|f| {
            let ptrs = pointer_values(&big, f);
            (ptrs.len() >= 2).then(|| (f, ptrs[0], ptrs[1]))
        })
        .expect("the workload has pointer-heavy functions");
    let (load, first_query) = {
        let mut loads: Vec<Duration> = Vec::with_capacity(PERSIST_SAMPLES);
        let mut queries: Vec<Duration> = Vec::with_capacity(PERSIST_SAMPLES);
        for _ in 0..PERSIST_SAMPLES {
            let t = Instant::now();
            let revived = AnalysisSession::load(&mut snapshot.as_slice()).expect("snapshot loads");
            loads.push(t.elapsed());
            let t = Instant::now();
            std::hint::black_box(revived.alias_with_test(big_f, big_p, big_q));
            queries.push(t.elapsed());
        }
        loads.sort();
        queries.sort();
        (loads[loads.len() / 2], queries[queries.len() / 2])
    };
    let load_first_query = load + first_query;
    let persist_ratio =
        scratch_build.as_secs_f64() / (save.as_secs_f64() + load_first_query.as_secs_f64());
    let big_arena = big_session.analysis().arena_stats();
    let (mut big_pairs, mut big_packed, mut big_unpacked) = (0usize, 0usize, 0usize);
    for f in big.func_ids() {
        let mb = big_session.matrix(f).bytes();
        big_pairs += mb.pairs;
        big_packed += mb.packed_bytes;
        big_unpacked += mb.unpacked_bytes;
    }
    eprintln!(
        "persist ({} insts, {} funcs): scratch build {scratch_build:?}, save {save:?}, \
         load {load:?} + first query {first_query:?} ({persist_ratio:.1}x); snapshot {} MiB, \
         arena {} MiB, matrices {} MiB packed ({} MiB unpacked)",
        big.num_insts(),
        big.num_functions(),
        snapshot.len() >> 20,
        big_arena.bytes >> 20,
        big_packed >> 20,
        big_unpacked >> 20
    );
    drop(big_session);

    let json = format!(
        "{{\n  \"schema\": \"sra-bench-trajectory/v1\",\n  \"workload\": {{\n    \
         \"insts\": {SCALING_INSTS},\n    \"seed\": {SCALING_SEED},\n    \
         \"session_edits\": {SESSION_EDITS}\n  }},\n  \"groups\": {{\n    \
         \"all_pairs/per_query\": {{ \"median_ns\": {}, \"work\": {SCALING_INSTS} }},\n    \
         \"all_pairs/batched_t4\": {{ \"median_ns\": {}, \"work\": {SCALING_INSTS} }},\n    \
         \"session/scratch_per_edit\": {{ \"median_ns\": {}, \"work\": {SCALING_INSTS} }},\n    \
         \"session/session_per_edit\": {{ \"median_ns\": {}, \"work\": {SCALING_INSTS} }},\n    \
         \"interning/boxed\": {{ \"median_ns\": {}, \"work\": {INTERNING_RANGES} }},\n    \
         \"interning/interned\": {{ \"median_ns\": {}, \"work\": {INTERNING_RANGES} }},\n    \
         \"service/single_thread\": {{ \"median_ns\": {}, \"work\": {SERVICE_INSTS} }},\n    \
         \"service/mixed_{SERVICE_READERS}r{SERVICE_WRITERS}w\": \
         {{ \"median_ns\": {}, \"work\": {SERVICE_INSTS} }},\n    \
         \"demand/matrix_build_t4\": {{ \"median_ns\": {}, \"work\": {GIANT_PTRS} }},\n    \
         \"demand/single_query\": {{ \"median_ns\": {}, \"work\": {GIANT_PTRS} }},\n    \
         \"source_edit/scratch_per_edit\": {{ \"median_ns\": {}, \"work\": {SCALING_INSTS} }},\n    \
         \"source_edit/session_per_edit\": {{ \"median_ns\": {}, \"work\": {SCALING_INSTS} }},\n    \
         \"persist/scratch_build\": {{ \"median_ns\": {}, \"work\": {PERSIST_INSTS} }},\n    \
         \"persist/save\": {{ \"median_ns\": {}, \"work\": {PERSIST_INSTS} }},\n    \
         \"persist/load\": {{ \"median_ns\": {}, \"work\": {PERSIST_INSTS} }},\n    \
         \"persist/first_query\": {{ \"median_ns\": {}, \"work\": {PERSIST_INSTS} }},\n    \
         \"pipeline/legacy_scratch_t{PIPELINE_THREADS}\": \
         {{ \"median_ns\": {}, \"work\": {PERSIST_INSTS} }},\n    \
         \"pipeline/fused_scratch_t{PIPELINE_THREADS}\": \
         {{ \"median_ns\": {}, \"work\": {PERSIST_INSTS} }}\n  }},\n  \
         \"arena\": {{\n    \"exprs\": {},\n    \"ranges\": {},\n    \
         \"hits\": {},\n    \"misses\": {},\n    \"bytes\": {}\n  }},\n  \
         \"matrix\": {{\n    \"giant_ptrs\": {GIANT_PTRS},\n    \
         \"giant_cliques\": {GIANT_CLIQUES},\n    \
         \"pairs\": {},\n    \
         \"packed_bytes\": {},\n    \
         \"unpacked_bytes\": {},\n    \
         \"saving_ratio\": {:.2}\n  }},\n  \
         \"service\": {{\n    \"tenants\": {SERVICE_TENANTS},\n    \
         \"insts_per_tenant\": {SERVICE_INSTS},\n    \
         \"readers\": {SERVICE_READERS},\n    \
         \"writers\": {SERVICE_WRITERS},\n    \
         \"edits_per_tenant\": {SERVICE_EDITS},\n    \
         \"latency_method\": \"amortised 32-query sub-batches, nearest-rank percentiles\",\n    \
         \"single_thread_qps\": {:.1},\n    \
         \"mixed_qps\": {:.1},\n    \
         \"mixed_p50_ns\": {},\n    \
         \"mixed_p99_ns\": {},\n    \
         \"mixed_queries\": {},\n    \
         \"mixed_edits\": {}\n  }},\n  \
         \"persist\": {{\n    \"insts\": {},\n    \"funcs\": {},\n    \
         \"snapshot_bytes\": {},\n    \"arena_bytes\": {},\n    \
         \"matrix_pairs\": {big_pairs},\n    \
         \"matrix_packed_bytes\": {big_packed},\n    \
         \"matrix_unpacked_bytes\": {big_unpacked},\n    \
         \"load_verified\": true\n  }},\n  \
         \"pipeline\": {{\n    \"threads\": {PIPELINE_THREADS},\n    \
         \"fused_phases_ns\": {{\n      \
         \"parts\": {},\n      \"assemble\": {},\n      \"gr\": {},\n      \
         \"matrices\": {}\n    }}\n  }},\n  \
         \"ratios\": {{\n    \"batched_vs_per_query\": {batched_ratio:.3},\n    \
         \"session_vs_scratch\": {session_ratio:.3},\n    \
         \"interning\": {interning_ratio:.3},\n    \
         \"service_vs_single_thread\": {service_ratio:.3},\n    \
         \"demand_vs_matrix_build\": {demand_ratio:.1},\n    \
         \"source_edit_vs_scratch\": {source_ratio:.3},\n    \
         \"persist_warm_vs_scratch\": {persist_ratio:.1},\n    \
         \"pipeline_fused_vs_legacy\": {pipeline_ratio:.3}\n  }},\n  \"floors\": {{\n    \
         \"batched_vs_per_query\": {BATCHED_FLOOR},\n    \
         \"session_vs_scratch\": {SESSION_FLOOR},\n    \
         \"interning\": {INTERNING_FLOOR},\n    \
         \"service_vs_single_thread\": {SERVICE_FLOOR},\n    \
         \"demand_vs_matrix_build\": {DEMAND_FLOOR},\n    \
         \"source_edit_vs_scratch\": {SOURCE_FLOOR},\n    \
         \"persist_warm_vs_scratch\": {PERSIST_FLOOR},\n    \
         \"pipeline_fused_vs_legacy\": {PIPELINE_FLOOR}\n  }},\n  \"gates\": {{\n    \
         \"batched_vs_per_query\": {BATCHED_FLOOR},\n    \
         \"session_vs_scratch\": {SESSION_GATE},\n    \
         \"interning\": {INTERNING_GATE},\n    \
         \"service_vs_single_thread\": {SERVICE_GATE},\n    \
         \"demand_vs_matrix_build\": {DEMAND_GATE},\n    \
         \"source_edit_vs_scratch\": {SOURCE_GATE},\n    \
         \"persist_warm_vs_scratch\": {PERSIST_GATE},\n    \
         \"pipeline_fused_vs_legacy\": {PIPELINE_GATE}\n  }}\n}}\n",
        per_query.as_nanos(),
        batched.as_nanos(),
        scratch.as_nanos(),
        session.as_nanos(),
        boxed.as_nanos(),
        interned.as_nanos(),
        single_qps.1.as_nanos(),
        mixed.wall.as_nanos(),
        matrix_build.as_nanos(),
        single_query.as_nanos(),
        src_scratch.as_nanos(),
        src_session.as_nanos(),
        scratch_build.as_nanos(),
        save.as_nanos(),
        load.as_nanos(),
        first_query.as_nanos(),
        legacy_build.as_nanos(),
        fused_build.as_nanos(),
        arena.exprs,
        arena.ranges,
        arena.hits,
        arena.misses,
        arena.bytes,
        giant_bytes.pairs,
        giant_bytes.packed_bytes,
        giant_bytes.unpacked_bytes,
        giant_bytes.saving_ratio(),
        single_qps.0,
        mixed.queries_per_sec,
        mixed.p50_ns,
        mixed.p99_ns,
        mixed.queries,
        mixed.edits,
        big.num_insts(),
        big.num_functions(),
        snapshot.len(),
        big_arena.bytes,
        fused_phases.parts_ns,
        fused_phases.assemble_ns,
        fused_phases.gr_ns,
        fused_phases.matrices_ns,
    );

    // The trajectory, not just the floor: diff against the previous
    // committed BENCH_N.json when one exists. Warnings only — absolute
    // medians are machine-dependent; the ratio gates below are the
    // portable contract.
    if let Some((prev_name, prev_json)) = previous_trajectory(&out_path) {
        let prev = parse_groups(&prev_json);
        let cur = parse_groups(&json);
        if prev.is_empty() {
            eprintln!("note: {prev_name} has no parsable groups; skipping the delta table");
        } else {
            eprintln!("\ntrajectory vs {prev_name}:");
            eprintln!(
                "{:<28} {:>12} {:>12} {:>8}",
                "group", "prev ns", "now ns", "delta"
            );
            for g in &cur {
                match prev.iter().find(|p| p.name == g.name) {
                    // A generator resize makes the medians
                    // incomparable: say so instead of printing a
                    // spurious ±%.
                    Some(p) if p.work.is_some() && g.work.is_some() && p.work != g.work => {
                        eprintln!(
                            "{:<28} {:>12} {:>12}  resized (work {} -> {})",
                            g.name,
                            p.median_ns,
                            g.median_ns,
                            p.work.unwrap_or(0),
                            g.work.unwrap_or(0)
                        );
                    }
                    Some(p) => {
                        let delta = g.median_ns as f64 / p.median_ns as f64 - 1.0;
                        eprintln!(
                            "{:<28} {:>12} {:>12} {:>+7.1}%",
                            g.name,
                            p.median_ns,
                            g.median_ns,
                            delta * 100.0
                        );
                        if delta > DELTA_WARN {
                            eprintln!(
                                "WARN: {} regressed {:.1}% vs {prev_name} (> {:.0}% \
                                 threshold); not gating — medians are machine-dependent",
                                g.name,
                                delta * 100.0,
                                DELTA_WARN * 100.0
                            );
                        }
                    }
                    // A group the previous trajectory never measured:
                    // list it as `new` rather than skipping it, so a
                    // PR adding a group shows up in the table.
                    None => eprintln!("{:<28} {:>12} {:>12}      new", g.name, "-", g.median_ns),
                }
            }
            // And the reverse: groups the previous trajectory had that
            // this run no longer measures.
            for p in &prev {
                if !cur.iter().any(|g| g.name == p.name) {
                    eprintln!("{:<28} {:>12} {:>12}     gone", p.name, p.median_ns, "-");
                }
            }
            eprintln!();
        }
    } else {
        eprintln!("note: no previous BENCH_N.json at the repo root; skipping the delta table");
    }

    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(2);
    });
    println!("wrote {out_path}");

    let mut failed = false;
    if batched_ratio < BATCHED_FLOOR {
        eprintln!(
            "FAIL: batched/per-query speedup {batched_ratio:.2}x is below the \
             {BATCHED_FLOOR}x acceptance floor"
        );
        failed = true;
    }
    if session_ratio < SESSION_GATE {
        eprintln!(
            "FAIL: session/scratch speedup {session_ratio:.2}x is below the \
             {SESSION_GATE}x regression gate"
        );
        failed = true;
    } else if session_ratio < SESSION_FLOOR {
        eprintln!(
            "WARN: session/scratch speedup {session_ratio:.2}x is below the \
             {SESSION_FLOOR}x acceptance floor (within runner-noise margin of the \
             {SESSION_GATE}x gate)"
        );
    }
    if interning_ratio < INTERNING_GATE {
        eprintln!(
            "FAIL: interned/boxed speedup {interning_ratio:.2}x is below the \
             {INTERNING_GATE}x regression gate"
        );
        failed = true;
    }
    if service_ratio < SERVICE_GATE {
        eprintln!(
            "FAIL: service mixed/single-thread throughput ratio {service_ratio:.2}x is \
             below the {SERVICE_GATE}x regression gate — readers are being blocked by \
             concurrent edits"
        );
        failed = true;
    } else if service_ratio < SERVICE_FLOOR {
        eprintln!(
            "WARN: service mixed/single-thread throughput ratio {service_ratio:.2}x is \
             below the {SERVICE_FLOOR}x acceptance floor (within runner-noise margin of \
             the {SERVICE_GATE}x gate)"
        );
    }
    if demand_ratio < DEMAND_GATE {
        eprintln!(
            "FAIL: demand single-query vs matrix-build ratio {demand_ratio:.2}x is below \
             the {DEMAND_GATE}x gate — demand mode is doing eager all-pairs work"
        );
        failed = true;
    }
    if source_ratio < SOURCE_GATE {
        eprintln!(
            "FAIL: source-edit diff+session vs recompile+scratch speedup {source_ratio:.2}x \
             is below the {SOURCE_GATE}x regression gate"
        );
        failed = true;
    } else if source_ratio < SOURCE_FLOOR {
        eprintln!(
            "WARN: source-edit diff+session vs recompile+scratch speedup {source_ratio:.2}x \
             is below the {SOURCE_FLOOR}x acceptance floor (within runner-noise margin of \
             the {SOURCE_GATE}x gate)"
        );
    }
    if persist_ratio < PERSIST_GATE {
        eprintln!(
            "FAIL: persist save+load+first-query vs scratch-build speedup \
             {persist_ratio:.1}x is below the {PERSIST_GATE}x gate — loading a snapshot \
             is doing re-analysis work"
        );
        failed = true;
    }
    if pipeline_ratio < PIPELINE_GATE {
        eprintln!(
            "FAIL: fused vs legacy scratch-pipeline speedup {pipeline_ratio:.2}x is below \
             the {PIPELINE_GATE}x regression gate"
        );
        failed = true;
    } else if pipeline_ratio < PIPELINE_FLOOR {
        eprintln!(
            "WARN: fused vs legacy scratch-pipeline speedup {pipeline_ratio:.2}x is below \
             the {PIPELINE_FLOOR}x acceptance floor (within runner-noise margin of the \
             {PIPELINE_GATE}x gate)"
        );
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "trajectory ok: batched {batched_ratio:.2}x (floor {BATCHED_FLOOR}x), \
         session {session_ratio:.2}x (floor {SESSION_FLOOR}x, gate {SESSION_GATE}x), \
         interning {interning_ratio:.2}x (floor {INTERNING_FLOOR}x), \
         service {:.0} q/s mixed at {SERVICE_READERS}r/{SERVICE_WRITERS}w \
         ({service_ratio:.2}x vs single thread, floor {SERVICE_FLOOR}x, \
         gate {SERVICE_GATE}x; p99 {} ns), \
         demand {demand_ratio:.0}x vs full matrix build (floor {DEMAND_FLOOR}x), \
         source_edit {source_ratio:.2}x vs recompile+scratch (floor {SOURCE_FLOOR}x, \
         gate {SOURCE_GATE}x), \
         persist {persist_ratio:.1}x warm start vs scratch build (floor {PERSIST_FLOOR}x), \
         pipeline {pipeline_ratio:.2}x fused vs legacy at t{PIPELINE_THREADS} \
         (floor {PIPELINE_FLOOR}x, gate {PIPELINE_GATE}x)",
        mixed.queries_per_sec, mixed.p99_ns
    );
}
