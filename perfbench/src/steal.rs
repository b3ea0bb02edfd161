//! Hypervisor steal. On a virtual machine the host may not run a vCPU
//! that has work; the guest counts that time as "steal" in the first
//! line of `/proc/stat`. An interval's wall time is stretched by the
//! stolen share of the time the machine's vCPUs wanted to run, so the
//! benchmark scales each timed interval by one minus the share stolen
//! during that interval (see `README.md` for the measured effect).

use std::time::Instant;

/// Machine-wide CPU time counters, in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ticks {
    /// user + nice + system + irq + softirq.
    pub busy: u64,
    /// Time a vCPU had work but the host ran something else.
    pub steal: u64,
}

impl Ticks {
    /// The counters now. Zero when `/proc/stat` cannot be read, which
    /// makes every share 0.
    pub fn now() -> Self {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(Self::parse))
            .unwrap_or_default()
    }

    /// Parses the `cpu` line of `/proc/stat`: user nice system idle
    /// iowait irq softirq steal ...
    pub fn parse(line: &str) -> Self {
        let f: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        Ticks {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// Stolen share of the time the vCPUs wanted to run since
    /// `earlier`: steal / (busy + steal), 0 when nothing ran.
    pub fn stolen_share_since(self, earlier: Ticks) -> f64 {
        let steal = self.steal.saturating_sub(earlier.steal);
        let wanted = self.busy.saturating_sub(earlier.busy) + steal;
        if wanted == 0 {
            0.0
        } else {
            steal as f64 / wanted as f64
        }
    }
}

/// A wall-clock interval with the steal counters at its start.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
    ticks: Ticks,
}

impl Stopwatch {
    /// Starts an interval now.
    pub fn start() -> Self {
        let ticks = Ticks::now();
        Stopwatch {
            start: Instant::now(),
            ticks,
        }
    }

    /// The interval so far: its wall time and the share stolen in it.
    pub fn read(&self) -> Timed {
        let secs = self.start.elapsed().as_secs_f64();
        Timed {
            secs,
            stolen: Ticks::now().stolen_share_since(self.ticks),
        }
    }
}

/// A wall time and the stolen share of the interval it covers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timed {
    /// Wall seconds.
    pub secs: f64,
    /// Stolen share of the interval, in `[0, 1]`.
    pub stolen: f64,
}

impl Timed {
    /// The wall time scaled by one minus the stolen share.
    pub fn scaled(self) -> f64 {
        self.secs * (1.0 - self.stolen)
    }

    /// Two disjoint intervals as one: the times add, the shares are
    /// weighed by time.
    pub fn plus(self, other: Timed) -> Timed {
        let secs = self.secs + other.secs;
        let stolen = if secs > 0.0 {
            (self.secs * self.stolen + other.secs * other.stolen) / secs
        } else {
            0.0
        };
        Timed { secs, stolen }
    }

    /// A part of this interval `secs` long, given this interval's share:
    /// for samples too short to read the counters around (an edit of a
    /// timed pass of edits).
    pub fn part(self, secs: f64) -> Timed {
        Timed {
            secs,
            stolen: self.stolen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_of_wanted_time() {
        let a = Ticks::parse("cpu  100 0 20 900 5 0 0 10 0 0");
        let b = Ticks::parse("cpu  160 0 30 990 5 0 10 30 0 0");
        assert_eq!(
            a,
            Ticks {
                busy: 120,
                steal: 10
            }
        );
        // 80 busy ticks and 20 stolen ones: a fifth was stolen.
        assert!((b.stolen_share_since(a) - 0.2).abs() < 1e-12);
        assert_eq!(a.stolen_share_since(a), 0.0);
    }

    #[test]
    fn timed_sums_weigh_shares_by_time() {
        let a = Timed {
            secs: 3.0,
            stolen: 0.5,
        };
        let b = Timed {
            secs: 1.0,
            stolen: 0.1,
        };
        let ab = a.plus(b);
        assert_eq!(ab.secs, 4.0);
        assert!((ab.stolen - 0.4).abs() < 1e-12);
        assert!((ab.scaled() - 2.4).abs() < 1e-12);
        assert_eq!(a.part(0.25).stolen, 0.5);
        assert_eq!(Timed::default().plus(Timed::default()).stolen, 0.0);
    }
}
