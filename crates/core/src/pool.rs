//! The pipeline's thread pool — re-exported from
//! [`sra_symbolic::pool`], where it lives so the range crate's
//! parallel arena assembly can share it. See that module for the
//! [`WorkerPool`] dispatch protocol.

pub use sra_symbolic::pool::{chunk_bounds, default_threads, WorkerPool};
