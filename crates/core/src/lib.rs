//! Symbolic range analysis of pointers — the CGO'16 contribution.
//!
//! For every pointer `p` the analysis computes a *global* abstract state
//! `GR(p) ∈ MemLocs = (SymbRanges ⊎ ⊥)ⁿ` mapping each of the program's
//! `n` allocation sites to the symbolic interval of offsets `p` may
//! address within that site (§3.4), and a *local* state
//! `LR(p) ∈ (Loc ∪ NewLocs) × SymbRanges` that renames pointers at
//! φ-functions and loads so same-base offsets can be disambiguated even
//! when global ranges overlap (§3.6).
//!
//! Two complementary alias tests answer queries (§3.5, §3.7):
//!
//! * **global** (`QGR`): no-alias when the abstract address sets have
//!   provably empty intersection — disjoint allocation sites, or
//!   provably disjoint symbolic offset ranges within common sites;
//! * **local** (`QLR`): no-alias when both pointers share a local base
//!   and their offset ranges are provably disjoint.
//!
//! [`RbaaAnalysis`] packages both tests behind the [`AliasAnalysis`]
//! trait, trying the global test first and falling back to the local
//! one, exactly like the paper's Figure 5 pipeline.
//!
//! # Examples
//!
//! ```
//! use sra_ir::{BinOp, Callee, CmpOp, FunctionBuilder, Module, Ty};
//! use sra_core::{AliasAnalysis, AliasResult, RbaaAnalysis};
//!
//! // char* a = malloc(n); &a[0] vs &a[n-1]  (n unknown to the analysis)
//! let mut b = FunctionBuilder::new("main", &[], None);
//! let n = b.call(Callee::External("atoi".into()), &[], Some(Ty::Int));
//! let buf = b.malloc(n);
//! let zero = b.const_int(0);
//! let first = b.ptr_add(buf, zero);
//! let one = b.const_int(1);
//! let nm1 = b.binop(BinOp::Sub, n, one);
//! let last = b.ptr_add(buf, nm1);
//! b.store(first, zero);
//! b.store(last, zero);
//! b.ret(None);
//! let mut m = Module::new();
//! let fid = m.add_function(b.finish());
//!
//! let rbaa = RbaaAnalysis::analyze(&m);
//! // [0,0] vs [n-1,n-1] cannot be proven disjoint (n might be 1).
//! assert_eq!(rbaa.alias(fid, first, last), AliasResult::MayAlias);
//! ```

mod config;
mod driver;
mod gr;
mod locs;
pub mod lr;
pub mod persist;
pub mod pool;
mod query;
pub mod service;
pub mod session;
mod state;

pub use config::{AnalysisConfig, AnalysisConfigBuilder};
pub use driver::{BatchAnalysis, PhaseStats};
pub use gr::{GrAnalysis, GrConfig};
pub use locs::{AllocSite, LocId, LocKind, LocTable};
pub use lr::{LocalBase, LrAnalysis, LrPart, LrSource, LrState, LrStateRef};
pub use persist::PersistError;
pub use pool::WorkerPool;
pub use query::{
    global_no_alias, global_no_alias_kind, pointer_values, AliasAnalysis, AliasMatrix, AliasResult,
    DemandCache, DemandStats, MatrixBytes, QueryMode, QueryStats, RbaaAnalysis, WhichTest,
};
pub use service::{AliasService, EpochSnapshot, ServiceError, TenantWriter};
pub use session::{AnalysisSession, FrozenAnalysis, SessionEdit, SessionError, SessionStats};
pub use state::{PtrState, PtrStateRef};
