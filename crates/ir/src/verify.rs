//! IR well-formedness checks.
//!
//! The verifier enforces the SSA/e-SSA structural invariants the
//! analyses rely on: defs dominate uses, φ-functions cover their
//! predecessors, σ-nodes sit at the head of single-predecessor blocks,
//! and operand types line up.

use std::error::Error;
use std::fmt;

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::function::Function;
use crate::ids::{BlockId, FuncId, ValueId};
use crate::instr::{Callee, Inst, Terminator};
use crate::module::Module;
use crate::Ty;

/// A verification failure: one or more broken invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the problems were found.
    pub function: String,
    /// Human-readable descriptions of each violation.
    pub problems: Vec<String>,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification of `{}` failed:", self.function)?;
        for p in &self.problems {
            write!(f, "\n  - {}", p)?;
        }
        Ok(())
    }
}

impl Error for VerifyError {}

/// Verifies every function of a module (with cross-function call
/// signature checks).
///
/// # Errors
///
/// Returns the first function's [`VerifyError`] when any invariant is
/// broken.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    for f in m.func_ids() {
        verify_function(m.function(f), Some(m))?;
    }
    Ok(())
}

/// The signatures internal calls are checked against: for each callee
/// id its name, parameter types and return type, or `None` when the id
/// names no function. A [`Module`] provides its own functions'; a
/// frontend can check a function before it lands in a module by
/// supplying the signatures the module will hold.
pub trait CalleeSignatures {
    /// The signature of internal callee `f`.
    fn callee(&self, f: FuncId) -> Option<(&str, &[Ty], Option<Ty>)>;
}

impl CalleeSignatures for Module {
    fn callee(&self, f: FuncId) -> Option<(&str, &[Ty], Option<Ty>)> {
        (f.index() < self.num_functions()).then(|| {
            let target = self.function(f);
            (target.name(), target.param_tys(), target.ret_ty())
        })
    }
}

/// Verifies a single function; pass the module for call checking when
/// available.
///
/// # Errors
///
/// Returns a [`VerifyError`] describing every broken invariant found.
pub fn verify_function(f: &Function, module: Option<&Module>) -> Result<(), VerifyError> {
    verify_with(f, module.map(|m| m as &dyn CalleeSignatures))
}

/// Verifies a single function, checking its internal calls against
/// `callees` instead of a module.
///
/// # Errors
///
/// Returns a [`VerifyError`] describing every broken invariant found.
pub fn verify_function_against(
    f: &Function,
    callees: &dyn CalleeSignatures,
) -> Result<(), VerifyError> {
    verify_with(f, Some(callees))
}

fn verify_with(f: &Function, module: Option<&dyn CalleeSignatures>) -> Result<(), VerifyError> {
    let mut problems = Vec::new();
    let cfg = Cfg::new(f);
    let dom = DomTree::new(f, &cfg);

    for b in f.block_ids() {
        if f.block(b).terminator_opt().is_none() {
            problems.push(format!("block {b} has no terminator"));
        }
    }

    // Map from value to its position within its block, for same-block
    // dominance checks.
    let mut pos_in_block = vec![usize::MAX; f.num_values()];
    for b in f.block_ids() {
        for (i, &v) in f.block(b).insts().iter().enumerate() {
            pos_in_block[v.index()] = i;
        }
    }

    let check_operand = |problems: &mut Vec<String>,
                         user: ValueId,
                         user_block: BlockId,
                         user_pos: usize,
                         op: ValueId| {
        if op.index() >= f.num_values() {
            problems.push(format!("{user} references out-of-range value {op}"));
            return;
        }
        match f.value(op).block() {
            None => {} // params/consts/globals dominate everything
            Some(db) => {
                if !cfg.is_reachable(user_block) {
                    return; // dead code: skip dominance checking
                }
                let ok = if db == user_block {
                    pos_in_block[op.index()] < user_pos
                } else {
                    dom.dominates(db, user_block)
                };
                if !ok {
                    problems.push(format!(
                        "use of {op} in {user} at {user_block} is not dominated by its def in {db}"
                    ));
                }
            }
        }
    };

    for b in f.block_ids() {
        let insts = f.block(b).insts();
        let mut past_header = false;
        for (pos, &v) in insts.iter().enumerate() {
            let Some(inst) = f.value(v).as_inst() else {
                problems.push(format!("{v} listed in {b} is not an instruction"));
                continue;
            };
            // φ/σ must form the block header.
            if inst.is_phi() || inst.is_sigma() {
                if past_header {
                    problems.push(format!("{v}: φ/σ after ordinary instruction in {b}"));
                }
            } else {
                past_header = true;
            }
            match inst {
                Inst::Phi { args, ty } => {
                    let preds = cfg.preds(b);
                    if cfg.is_reachable(b) {
                        for &p in preds {
                            if !args.iter().any(|(ab, _)| *ab == p) {
                                problems.push(format!("{v}: φ in {b} misses predecessor {p}"));
                            }
                        }
                    }
                    for (ab, av) in args {
                        if !preds.contains(ab) && cfg.is_reachable(b) {
                            problems.push(format!("{v}: φ argument from non-predecessor {ab}"));
                        }
                        if f.value(*av).ty() != Some(*ty) {
                            problems.push(format!("{v}: φ argument {av} has wrong type"));
                        }
                        // The φ use must be available at the end of the
                        // incoming block.
                        if let Some(db) = f.value(*av).block() {
                            if cfg.is_reachable(*ab) && !dom.dominates(db, *ab) {
                                problems.push(format!(
                                    "{v}: φ argument {av} does not reach edge from {ab}"
                                ));
                            }
                        }
                    }
                }
                Inst::Sigma { input, other, .. } => {
                    if cfg.preds(b).len() != 1 {
                        problems.push(format!(
                            "{v}: σ in block {b} with {} predecessors",
                            cfg.preds(b).len()
                        ));
                    }
                    check_operand(&mut problems, v, b, pos, *input);
                    check_operand(&mut problems, v, b, pos, *other);
                    if f.value(v).ty() != f.value(*input).ty() {
                        problems.push(format!("{v}: σ type differs from its input"));
                    }
                }
                other_inst => {
                    other_inst.for_each_operand(|op| {
                        check_operand(&mut problems, v, b, pos, op);
                    });
                    check_types(f, module, v, other_inst, &mut problems);
                }
            }
        }
        if let Some(t) = f.block(b).terminator_opt() {
            let end = insts.len();
            t.for_each_operand(|op| {
                check_operand(&mut problems, ValueId::new(usize::MAX - 1), b, end, op);
            });
            if let Terminator::Ret(val) = t {
                let got = val.map(|v| f.value(v).ty()).unwrap_or(None);
                if got != f.ret_ty() && val.is_some() {
                    problems.push(format!("return type mismatch in {b}"));
                }
            }
        }
    }

    if problems.is_empty() {
        Ok(())
    } else {
        Err(VerifyError {
            function: f.name().to_owned(),
            problems,
        })
    }
}

fn check_types(
    f: &Function,
    module: Option<&dyn CalleeSignatures>,
    v: ValueId,
    inst: &Inst,
    problems: &mut Vec<String>,
) {
    let ty_of = |x: ValueId| f.value(x).ty();
    match inst {
        Inst::Malloc { size } | Inst::Alloca { size } => {
            if ty_of(*size) != Some(Ty::Int) {
                problems.push(format!("{v}: allocation size must be int"));
            }
        }
        Inst::Free { ptr } => {
            if ty_of(*ptr) != Some(Ty::Ptr) {
                problems.push(format!("{v}: free of non-pointer"));
            }
        }
        Inst::PtrAdd { base, offset } => {
            if ty_of(*base) != Some(Ty::Ptr) {
                problems.push(format!("{v}: ptradd base must be ptr"));
            }
            if ty_of(*offset) != Some(Ty::Int) {
                problems.push(format!("{v}: ptradd offset must be int"));
            }
        }
        Inst::IntBin { lhs, rhs, .. } => {
            if ty_of(*lhs) != Some(Ty::Int) || ty_of(*rhs) != Some(Ty::Int) {
                problems.push(format!("{v}: integer arithmetic on non-int"));
            }
        }
        Inst::Cmp { lhs, rhs, .. } => {
            if ty_of(*lhs) != ty_of(*rhs) || ty_of(*lhs).is_none() {
                problems.push(format!("{v}: comparison of mismatched types"));
            }
        }
        Inst::Load { ptr, .. } => {
            if ty_of(*ptr) != Some(Ty::Ptr) {
                problems.push(format!("{v}: load address must be ptr"));
            }
        }
        Inst::Store { ptr, val } => {
            if ty_of(*ptr) != Some(Ty::Ptr) {
                problems.push(format!("{v}: store address must be ptr"));
            }
            if ty_of(*val).is_none() {
                problems.push(format!("{v}: store of void value"));
            }
        }
        Inst::Call {
            callee,
            args,
            ret_ty,
        } => {
            if let (Callee::Internal(fid), Some(m)) = (callee, module) {
                let Some((name, params, ret)) = m.callee(*fid) else {
                    problems.push(format!("{v}: call to unknown function {fid}"));
                    return;
                };
                if params.len() != args.len() {
                    problems.push(format!(
                        "{v}: call to `{name}` with {} args, expected {}",
                        args.len(),
                        params.len()
                    ));
                }
                for (a, &want) in args.iter().zip(params) {
                    if ty_of(*a) != Some(want) {
                        problems.push(format!("{v}: call argument {a} has wrong type"));
                    }
                }
                if *ret_ty != ret {
                    problems.push(format!(
                        "{v}: call return type differs from `{name}` signature"
                    ));
                }
            }
        }
        Inst::Phi { .. } | Inst::Sigma { .. } => unreachable!("handled by caller"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::{BinOp, CmpOp};

    #[test]
    fn accepts_well_formed() {
        let mut b = FunctionBuilder::new("ok", &[Ty::Ptr, Ty::Int], None);
        let p = b.param(0);
        let n = b.param(1);
        let q = b.ptr_add(p, n);
        let x = b.load(q, Ty::Int);
        b.store(q, x);
        b.ret(None);
        let f = b.finish();
        assert!(verify_function(&f, None).is_ok());
    }

    #[test]
    fn rejects_type_errors() {
        let mut b = FunctionBuilder::new("bad", &[Ty::Int], None);
        let n = b.param(0);
        // ptradd with int base
        let _bad = b.ptr_add(n, n);
        b.ret(None);
        let f = b.finish();
        let err = verify_function(&f, None).unwrap_err();
        assert!(err.to_string().contains("ptradd base"));
    }

    #[test]
    fn rejects_use_before_def() {
        // Build a loop where a value from the body is used in the header
        // without a φ.
        let mut b = FunctionBuilder::new("bad", &[Ty::Int], None);
        let n = b.param(0);
        let head = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.jump(head);
        b.switch_to(body);
        let one = b.const_int(1);
        let inc = b.binop(BinOp::Add, n, one);
        b.jump(head);
        b.switch_to(head);
        // `inc` is defined in body, which does not dominate head.
        let c = b.cmp(CmpOp::Lt, inc, n);
        b.br(c, body, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let err = verify_function(&f, None).unwrap_err();
        assert!(err.to_string().contains("not dominated"));
    }

    #[test]
    fn rejects_phi_missing_pred() {
        let mut b = FunctionBuilder::new("bad", &[Ty::Int], None);
        let n = b.param(0);
        let t = b.create_block();
        let e = b.create_block();
        let j = b.create_block();
        let zero = b.const_int(0);
        let c = b.cmp(CmpOp::Lt, n, zero);
        b.br(c, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        // φ only lists one of the two predecessors.
        let _p = b.phi(Ty::Int, &[(t, n)]);
        b.ret(None);
        let f = b.finish();
        let err = verify_function(&f, None).unwrap_err();
        assert!(err.to_string().contains("misses predecessor"));
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("callee", &[Ty::Int], None);
        b.ret(None);
        let callee = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("caller", &[], None);
        b.call(Callee::Internal(callee), &[], None);
        b.ret(None);
        m.add_function(b.finish());
        let err = verify_module(&m).unwrap_err();
        assert!(err.to_string().contains("0 args, expected 1"));
    }
}
