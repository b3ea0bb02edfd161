//! What a run prints: the host stamp, the failure tally by kind, and
//! the final one-line JSON result.

use std::fmt::Write as _;

use crate::steal::Timed;

/// Failed operations by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Edits the program rejected, or that did not publish exactly one
    /// epoch.
    pub edits_rejected: u64,
    /// Pairs whose verdict or `WhichTest` differs from the reference
    /// it is compared with, or a property of the published state that
    /// does not hold.
    pub verdict_mismatches: u64,
    /// `NoAlias` claims the interpreter saw contradicted.
    pub oracle_violations: u64,
    /// Saves or loads that failed or did not round-trip.
    pub persist_errors: u64,
}

impl Failures {
    /// Sum over every kind.
    pub fn total(&self) -> u64 {
        self.edits_rejected + self.verdict_mismatches + self.oracle_violations + self.persist_errors
    }
}

/// Operations attempted and failed, plus the metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: edits, compared pairs, checked claims,
    /// saves and loads.
    pub attempted: u64,
    /// Failed operations by kind.
    pub failures: Failures,
    /// Checks that hold for the run as a whole (e.g. "some claims were
    /// observable"); a false one makes the run incorrect.
    pub invariants: Vec<(&'static str, bool)>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a run-wide invariant.
    pub fn invariant(&mut self, what: &'static str, holds: bool) {
        self.invariants.push((what, holds));
    }

    /// Whether every operation succeeded and every invariant held.
    pub fn correct(&self) -> bool {
        self.failures.total() == 0 && self.invariants.iter().all(|&(_, ok)| ok)
    }

    /// Human-readable lines printed before the result.
    pub fn summary(&self) -> String {
        let f = &self.failures;
        let mut s = format!(
            "failures: edits_rejected={} verdict_mismatches={} oracle_violations={} persist_errors={} of attempted={}\n",
            f.edits_rejected, f.verdict_mismatches, f.oracle_violations, f.persist_errors, self.attempted
        );
        for (what, ok) in &self.invariants {
            let _ = writeln!(
                s,
                "invariant {what}: {}",
                if *ok { "holds" } else { "BROKEN" }
            );
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(s, "metric {name} = {value} {unit}");
        }
        s
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite metric, which JSON cannot carry.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failures.total()
        )
    }
}

/// Per-round samples of a run's end-to-end metrics. Each time is wall
/// clock together with the stolen share of its own interval
/// ([`crate::steal`]); the metrics are read from the scaled times and
/// the `unscaled:` line from the wall times.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Round start to the first answered query.
    pub setup: Vec<Timed>,
    /// The scratch build.
    pub build: Vec<Timed>,
    /// Module to every pair answered.
    pub verdicts: Vec<Timed>,
    /// Snapshot bytes to the first answered query.
    pub restart: Vec<Timed>,
    /// Each edit until its queries are answered.
    pub edit: Vec<Timed>,
    /// Snapshot size in MiB.
    pub snapshot_mib: Vec<f64>,
    /// Share of answered pairs proven `NoAlias`, in percent.
    pub noalias_pct: Vec<f64>,
}

/// Restarts timed per round; the metric is their median over the run.
/// A restart takes a tenth of a second, so one per round would leave a
/// run's median resting on a handful of samples.
pub const RESTARTS: usize = 5;

impl Samples {
    /// Appends one round's samples.
    pub fn absorb(&mut self, round: Samples) {
        for (all, one) in [
            (&mut self.setup, round.setup),
            (&mut self.build, round.build),
            (&mut self.verdicts, round.verdicts),
            (&mut self.restart, round.restart),
            (&mut self.edit, round.edit),
        ] {
            all.extend(one);
        }
        self.snapshot_mib.extend(round.snapshot_mib);
        self.noalias_pct.extend(round.noalias_pct);
    }

    /// Times each edit of a pass: `edit_secs` are the pass's edits, each
    /// given the stolen share of the whole `pass`.
    pub fn push_edits(&mut self, pass: Timed, edit_secs: impl IntoIterator<Item = f64>) {
        self.edit
            .extend(edit_secs.into_iter().map(|s| pass.part(s)));
    }

    /// Runs `restart` `n` times, each restart dropped before the next
    /// begins, and records each time it returns. Returns the last
    /// restarted value, or `None` at the first failure.
    pub fn time_restarts<T>(
        &mut self,
        n: usize,
        mut restart: impl FnMut() -> Option<(T, Timed)>,
    ) -> Option<T> {
        let mut last = None;
        for _ in 0..n {
            drop(last.take());
            let (value, took) = restart()?;
            self.restart.push(took);
            last = Some(value);
        }
        last
    }

    /// The time samples by metric name.
    fn times(&self) -> [(&'static str, &[Timed]); 4] {
        [
            ("setup_s", &self.setup),
            ("build_s", &self.build),
            ("verdicts_s", &self.verdicts),
            ("restart_s", &self.restart),
        ]
    }

    /// Every end-to-end metric but `peak_rss_mib`: medians over
    /// samples, p50 and p90 over edits; times scaled by their stolen
    /// shares, or as read when `scaled` is false.
    fn metrics(&self, scaled: bool) -> [(&'static str, f64, &'static str); 8] {
        use crate::stats::{median, percentile};
        let read = |xs: &[Timed]| -> Vec<f64> {
            xs.iter()
                .map(|t| if scaled { t.scaled() } else { t.secs })
                .collect()
        };
        let edit_ms: Vec<f64> = read(&self.edit).iter().map(|s| s * 1e3).collect();
        [
            ("setup_s", median(&read(&self.setup)), "s"),
            ("build_s", median(&read(&self.build)), "s"),
            ("verdicts_s", median(&read(&self.verdicts)), "s"),
            ("restart_s", median(&read(&self.restart)), "s"),
            ("snapshot_mib", median(&self.snapshot_mib), "MiB"),
            ("edit_p50_ms", percentile(&edit_ms, 0.5), "ms"),
            ("edit_p90_ms", percentile(&edit_ms, 0.9), "ms"),
            ("noalias_pct", median(&self.noalias_pct), "%"),
        ]
    }

    /// Prints the time samples (scaled) and their stolen shares, and
    /// records every end-to-end metric, with `peak_rss_mib` as given.
    pub fn record(&self, report: &mut Report, peak_rss_mib: f64) {
        for (name, xs) in self.times() {
            let scaled: Vec<f64> = xs.iter().map(|t| t.scaled()).collect();
            let stolen: Vec<f64> = xs.iter().map(|t| t.stolen).collect();
            println!("samples {name}: {scaled:.4?}");
            println!("stolen {name}: {stolen:.3?}");
        }
        for (name, value, unit) in self.metrics(true) {
            report.metric(name, value, unit);
        }
        report.metric("peak_rss_mib", peak_rss_mib, "MiB");
    }

    /// One line `unscaled: name=value ...` of the time metrics as read,
    /// before scaling by the stolen shares.
    pub fn unscaled_line(&self) -> String {
        let times: Vec<String> = self
            .metrics(false)
            .iter()
            .filter(|(_, _, unit)| matches!(*unit, "s" | "ms"))
            .map(|(name, value, _)| format!("{name}={value:.6}"))
            .collect();
        format!("unscaled: {}", times.join(" "))
    }
}

/// The machine and build a run measured on.
pub fn host_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let width = sra_core::AnalysisConfig::default().threads;
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("host: nproc={nproc} pool_width={width} cpu=\"{cpu}\" profile={profile}")
}

/// User and system CPU seconds and minor page faults of the process so
/// far, from `/proc/self/stat` (clock ticks of 1/100 s).
pub fn process_line() -> String {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let field = |n: usize| {
        fields
            .get(n - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    format!(
        "process: user_s={} sys_s={} minor_faults={}",
        field(14) / 100.0,
        field(15) / 100.0,
        field(10)
    )
}

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`), in MiB.
pub fn status_mib(field: &str) -> f64 {
    status_field(field).map_or(0.0, |kb| kb / 1024.0)
}

/// A numeric field of `/proc/self/status` (e.g. `Threads`).
pub fn status_field(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_result_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("build_s", 1.25, "s");
        r.metric("noalias_pct", 97.5, "%");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"build_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"noalias_pct\": {\"value\": 97.5, \"unit\": \"%\"}}}"
        );
        r.failures.persist_errors = 1;
        assert!(!r.correct());
        assert!(status_mib("VmHWM") > 0.0);
    }
}
