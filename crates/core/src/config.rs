//! The unified analysis configuration: one [`AnalysisConfig`] value
//! carries every knob of the pipeline — worker threads, the bootstrap
//! integer-range pass, the interprocedural GR solver, the
//! query-answering mode, and snapshot-loading behaviour — so sessions,
//! services, the batch driver and the serial reference
//! ([`RbaaAnalysis::analyze_with`](crate::RbaaAnalysis::analyze_with))
//! are all configured the same way, and a saved snapshot can
//! round-trip the exact configuration it was analyzed under.
//!
//! Construct configs with the builder:
//!
//! ```
//! use sra_core::{AnalysisConfig, QueryMode};
//!
//! let config = AnalysisConfig::builder()
//!     .threads(8)
//!     .query_mode(QueryMode::Demand)
//!     .build();
//! assert_eq!(config.threads, 8);
//! assert_eq!(config.gr.threads, 8); // one knob governs every phase
//! ```

use sra_range::RangeConfig;

use crate::gr::GrConfig;
use crate::pool;
use crate::query::QueryMode;

/// Every tuning knob of the analysis pipeline in one value. The
/// fields are public for inspection and
/// struct-update syntax, but the [`AnalysisConfig::builder`] is the
/// intended construction path (it keeps coupled knobs — the two thread
/// counts — consistent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Worker threads for every parallel phase. `1` runs everything
    /// inline (the deterministic reference schedule — results are
    /// identical either way).
    pub threads: usize,
    /// Bootstrap integer-range configuration.
    pub range: RangeConfig,
    /// Global-analysis configuration. Its `threads` knob is overridden
    /// with [`AnalysisConfig::threads`] wherever the pipeline runs, so
    /// one setting governs every phase.
    pub gr: GrConfig,
    /// How sessions and snapshots answer alias queries: eager
    /// per-function matrices or a lazily grown demand cache.
    pub query_mode: QueryMode,
    /// When `true`, [`AnalysisSession::load`](crate::AnalysisSession::load)
    /// re-analyzes the restored module from scratch and verifies the
    /// loaded state byte-identical (states, symbols, sweeps) before
    /// returning — the warm start costs a cold analysis but proves the
    /// snapshot. Off by default.
    pub load_verify: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            threads: pool::default_threads(),
            range: RangeConfig::default(),
            gr: GrConfig::default(),
            query_mode: QueryMode::default(),
            load_verify: false,
        }
    }
}

impl AnalysisConfig {
    /// Starts a builder from the default configuration.
    pub fn builder() -> AnalysisConfigBuilder {
        AnalysisConfigBuilder {
            config: AnalysisConfig::default(),
        }
    }
}

/// Builder for [`AnalysisConfig`].
#[derive(Debug, Clone)]
pub struct AnalysisConfigBuilder {
    config: AnalysisConfig,
}

impl AnalysisConfigBuilder {
    /// Worker threads for every parallel phase (also updates the GR
    /// solver's own thread knob, keeping the two in lockstep).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self.config.gr.threads = threads;
        self
    }

    /// The query-answering mode.
    pub fn query_mode(mut self, mode: QueryMode) -> Self {
        self.config.query_mode = mode;
        self
    }

    /// The bootstrap integer-range configuration.
    pub fn range(mut self, range: RangeConfig) -> Self {
        self.config.range = range;
        self
    }

    /// The full GR configuration (its `threads` knob is subsequently
    /// kept in lockstep by [`AnalysisConfigBuilder::threads`]).
    pub fn gr(mut self, gr: GrConfig) -> Self {
        self.config.gr = gr;
        self
    }

    /// Whether snapshot loads verify against a scratch re-analysis.
    pub fn load_verify(mut self, verify: bool) -> Self {
        self.config.load_verify = verify;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> AnalysisConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_keeps_thread_knobs_in_lockstep() {
        let c = AnalysisConfig::builder()
            .gr(GrConfig {
                widening: false,
                ..GrConfig::default()
            })
            .threads(3)
            .query_mode(QueryMode::Demand)
            .load_verify(true)
            .build();
        assert_eq!(c.threads, 3);
        assert_eq!(c.gr.threads, 3);
        assert!(!c.gr.widening);
        assert_eq!(c.query_mode, QueryMode::Demand);
        assert!(c.load_verify);
    }
}
