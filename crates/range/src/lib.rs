//! Symbolic range analysis of integer variables.
//!
//! This crate implements the "off-the-shelf" bootstrap analysis of the
//! CGO'16 paper (§3.3): a Blume–Eigenmann-style *symbolic* range
//! analysis computing, for every integer SSA value `i`, an interval
//! `R(i) = [l, u]` whose bounds are expressions over the program's
//! symbolic kernel (parameters, library-call results, globals).
//!
//! The solver is an abstract interpretation over
//! [`SymRange`](sra_symbolic::SymRange):
//!
//! * one ascending sweep seeds the state,
//! * subsequent sweeps apply the paper's widening `∇` **at φ-functions
//!   only** (the cut set; §3.9),
//! * after stabilization, a fixed-length *descending sequence* (default
//!   2, matching Figure 12) recovers precision lost to widening.
//!
//! The paper's complexity argument (§3.8) applies: each bound moves at
//! most from finite to its infinity once, so the number of sweeps is a
//! small constant and the whole analysis is `O(|V|)`.
//!
//! # Examples
//!
//! ```
//! use sra_ir::{BinOp, CmpOp, FunctionBuilder, Module, Ty};
//! use sra_range::RangeAnalysis;
//!
//! // for (i = 0; i < n; i++) {}  — the classic induction variable.
//! let mut b = FunctionBuilder::new("count", &[Ty::Int], None);
//! let n = b.param(0);
//! b.set_name(n, "n");
//! let head = b.create_block();
//! let body = b.create_block();
//! let exit = b.create_block();
//! let zero = b.const_int(0);
//! let entry = b.entry_block();
//! b.jump(head);
//! b.switch_to(head);
//! let i = b.phi(Ty::Int, &[(entry, zero)]);
//! let c = b.cmp(CmpOp::Lt, i, n);
//! b.br(c, body, exit);
//! b.switch_to(body);
//! let one = b.const_int(1);
//! let i1 = b.binop(BinOp::Add, i, one);
//! b.add_phi_arg(i, body, i1);
//! b.jump(head);
//! b.switch_to(exit);
//! b.ret(None);
//! let mut f = b.finish();
//! sra_ir::essa::run(&mut f);
//! let mut m = Module::new();
//! let fid = m.add_function(f);
//!
//! let ranges = RangeAnalysis::analyze(&m);
//! // Inside the loop body, the σ of i is clamped to [0, n-1].
//! let fr = ranges.function(fid);
//! assert!(fr.all_ranges().any(|r| {
//!     ranges.arena().display_range(r, ranges.symbols()) == "[0, n - 1]"
//! }));
//! ```

mod analysis;

pub use analysis::{
    analyze_function_part, symbol_budget, FunctionRanges, RangeAnalysis, RangeConfig, RangePart,
    RangeSource,
};
