//! Modules: collections of functions and globals.

use std::sync::Arc;

use crate::function::Function;
use crate::ids::{FuncId, GlobalId};

/// A module-level global variable (one allocation site of static
/// storage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    pub(crate) name: String,
    pub(crate) size: i64,
}

impl Global {
    /// The global's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Size in memory cells.
    pub fn size(&self) -> i64 {
        self.size
    }
}

/// A whole program: functions plus globals.
///
/// Each function sits behind an [`Arc`], so cloning a module costs one
/// pointer copy per function, and a clone shares every body until one
/// side rewrites it (copy on write).
///
/// # Examples
///
/// ```
/// use sra_ir::{FunctionBuilder, Module, Ty};
/// let mut m = Module::new();
/// let g = m.add_global("buffer", 64);
/// let mut b = FunctionBuilder::new("main", &[], None);
/// let addr = b.global_addr(g, Ty::Ptr);
/// let zero = b.const_int(0);
/// b.store(addr, zero);
/// b.ret(None);
/// m.add_function(b.finish());
/// assert_eq!(m.global(g).size(), 64);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Module {
    funcs: Vec<Arc<Function>>,
    globals: Vec<Global>,
}

/// The function `f` held, cloned when another module still shares it.
fn unshare(f: Arc<Function>) -> Function {
    Arc::try_unwrap(f).unwrap_or_else(|f| (*f).clone())
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a function, returning its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId::new(self.funcs.len());
        self.funcs.push(Arc::new(f));
        id
    }

    /// Replaces the body of function `f`, returning the previous one.
    ///
    /// Ids are stable: `f` keeps its id and no other function moves.
    /// The replacement is purely structural — callers are responsible
    /// for re-verifying the module (signature changes can break call
    /// sites elsewhere).
    ///
    /// # Panics
    ///
    /// Panics when `f` is not a function of this module.
    pub fn replace_function(&mut self, f: FuncId, func: Function) -> Function {
        unshare(std::mem::replace(
            &mut self.funcs[f.index()],
            Arc::new(func),
        ))
    }

    /// Removes function `f`, returning it. Functions after `f` shift
    /// down by one id; every `Callee::Internal` reference in the
    /// remaining functions is remapped accordingly, so a module whose
    /// remaining functions never called `f` stays well-formed. Calls
    /// that *did* target `f` are left pointing at the (now out-of-range)
    /// old id — [`crate::verify::verify_module`] reports them as
    /// structured errors, which is how incremental sessions surface
    /// "removed a function that is still called".
    ///
    /// # Panics
    ///
    /// Panics when `f` is not a function of this module.
    pub fn remove_function(&mut self, f: FuncId) -> Function {
        let removed = self.funcs.remove(f.index());
        let gone = f.index();
        self.remap_internal_calls(|t| {
            if t.index() > gone {
                FuncId::new(t.index() - 1)
            } else if t.index() == gone {
                // Dangling: park on a permanently invalid sentinel
                // id for the verifier to report (never reusable by
                // later `add_function` calls).
                FuncId::new(u32::MAX as usize)
            } else {
                t
            }
        });
        unshare(removed)
    }

    /// Removes a batch of functions in one pass. `fs` must be sorted
    /// ascending and duplicate-free. Surviving functions keep their
    /// relative order — this is the id-stability contract the
    /// source-level incremental frontend builds on: a name that
    /// survives an edit keeps its (compacted) id, and additions
    /// append. Every `Callee::Internal` reference in the survivors is
    /// remapped once; calls that targeted a removed function are
    /// parked on the same invalid sentinel id as
    /// [`Module::remove_function`], so
    /// [`crate::verify::verify_module`] reports them as structured
    /// errors instead of anything panicking. Returns the removed
    /// functions in `fs` order.
    ///
    /// # Panics
    ///
    /// Panics when any id in `fs` is not a function of this module.
    pub fn remove_functions(&mut self, fs: &[FuncId]) -> Vec<Function> {
        debug_assert!(
            fs.windows(2).all(|w| w[0].index() < w[1].index()),
            "remove_functions wants sorted, duplicate-free ids"
        );
        if fs.is_empty() {
            return Vec::new();
        }
        // New id for each old id; `None` marks a removed slot.
        let mut new_ids: Vec<Option<FuncId>> = Vec::with_capacity(self.funcs.len());
        let mut next = 0usize;
        let mut k = 0usize;
        for old in 0..self.funcs.len() {
            if k < fs.len() && fs[k].index() == old {
                new_ids.push(None);
                k += 1;
            } else {
                new_ids.push(Some(FuncId::new(next)));
                next += 1;
            }
        }
        let mut removed = Vec::with_capacity(fs.len());
        for &f in fs.iter().rev() {
            removed.push(unshare(self.funcs.remove(f.index())));
        }
        removed.reverse();
        self.remap_internal_calls(|t| {
            // Out-of-range targets (an earlier removal's sentinel)
            // stay dangling.
            new_ids
                .get(t.index())
                .copied()
                .flatten()
                .unwrap_or_else(|| FuncId::new(u32::MAX as usize))
        });
        removed
    }

    /// Rewrites every internal call target through `map`, unsharing
    /// only the functions with a target that moves.
    fn remap_internal_calls(&mut self, map: impl Fn(FuncId) -> FuncId) {
        for func in &mut self.funcs {
            if func.internal_callees().any(|t| map(t) != t) {
                Arc::make_mut(func).remap_internal_calls(&map);
            }
        }
    }

    /// Adds a global of `size` cells, returning its id.
    pub fn add_global(&mut self, name: &str, size: i64) -> GlobalId {
        let id = GlobalId::new(self.globals.len());
        self.globals.push(Global {
            name: name.to_owned(),
            size,
        });
        id
    }

    /// The function with id `f`.
    ///
    /// # Panics
    ///
    /// Panics when `f` is not a function of this module.
    pub fn function(&self, f: FuncId) -> &Function {
        &self.funcs[f.index()]
    }

    /// Mutable access to a function (used by transformation passes).
    pub fn function_mut(&mut self, f: FuncId) -> &mut Function {
        Arc::make_mut(&mut self.funcs[f.index()])
    }

    /// The global with id `g`.
    ///
    /// # Panics
    ///
    /// Panics when `g` is not a global of this module.
    pub fn global(&self, g: GlobalId) -> &Global {
        &self.globals[g.index()]
    }

    /// Looks a function up by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(FuncId::new)
    }

    /// All function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> {
        (0..self.funcs.len()).map(FuncId::new)
    }

    /// All global ids.
    pub fn global_ids(&self) -> impl Iterator<Item = GlobalId> {
        (0..self.globals.len()).map(GlobalId::new)
    }

    /// Number of functions.
    pub fn num_functions(&self) -> usize {
        self.funcs.len()
    }

    /// Number of globals.
    pub fn num_globals(&self) -> usize {
        self.globals.len()
    }

    /// Total instruction count across all functions (paper Figure 15's
    /// x-axis).
    pub fn num_insts(&self) -> usize {
        self.funcs.iter().map(|f| f.num_insts()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn function_lookup() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("alpha", &[], None);
        b.ret(None);
        let fa = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("beta", &[], None);
        b.ret(None);
        let fb = m.add_function(b.finish());
        assert_eq!(m.function_by_name("alpha"), Some(fa));
        assert_eq!(m.function_by_name("beta"), Some(fb));
        assert_eq!(m.function_by_name("gamma"), None);
        assert_eq!(m.num_functions(), 2);
    }

    #[test]
    fn replace_and_remove_keep_call_targets_consistent() {
        use crate::instr::{Callee, Inst};
        use crate::{Ty, ValueKind};
        let mut m = Module::new();
        for i in 0..3 {
            let mut b = FunctionBuilder::new(&format!("f{i}"), &[Ty::Int], None);
            b.ret(None);
            m.add_function(b.finish());
        }
        // Replace f2's empty body with one that calls f1.
        let mut b = FunctionBuilder::new("f2", &[Ty::Int], None);
        let arg = b.param(0);
        b.call(Callee::Internal(FuncId::new(1)), &[arg], None);
        b.ret(None);
        let old = m.replace_function(FuncId::new(2), b.finish());
        assert_eq!(old.name(), "f2");
        crate::verify::verify_module(&m).expect("replacement verifies");

        // Removing f1 (still called by f2) leaves a dangling sentinel
        // the verifier reports…
        let mut probe = m.clone();
        probe.remove_function(FuncId::new(1));
        assert!(crate::verify::verify_module(&probe).is_err());

        // …while removing the uncalled f0 shifts f2's reference down
        // with the callee's new id.
        m.remove_function(FuncId::new(0));
        assert_eq!(m.num_functions(), 2);
        crate::verify::verify_module(&m).expect("uncalled removal stays well-formed");
        let caller = m.function(FuncId::new(1));
        let targets: Vec<FuncId> = caller
            .value_ids()
            .filter_map(|v| match caller.value(v).kind() {
                ValueKind::Inst(Inst::Call {
                    callee: Callee::Internal(t),
                    ..
                }) => Some(*t),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![FuncId::new(0)]);
    }

    #[test]
    fn batch_removal_remaps_survivors_once() {
        use crate::instr::{Callee, Inst};
        use crate::{Ty, ValueKind};
        let mut m = Module::new();
        for i in 0..5 {
            let mut b = FunctionBuilder::new(&format!("f{i}"), &[Ty::Int], None);
            b.ret(None);
            m.add_function(b.finish());
        }
        // f4 calls f2 (which survives) — its target must compact.
        let mut b = FunctionBuilder::new("f4", &[Ty::Int], None);
        let arg = b.param(0);
        b.call(Callee::Internal(FuncId::new(2)), &[arg], None);
        b.ret(None);
        m.replace_function(FuncId::new(4), b.finish());

        let removed = m.remove_functions(&[FuncId::new(0), FuncId::new(3)]);
        assert_eq!(
            removed.iter().map(|f| f.name()).collect::<Vec<_>>(),
            vec!["f0", "f3"]
        );
        assert_eq!(m.num_functions(), 3);
        crate::verify::verify_module(&m).expect("survivors stay well-formed");
        let caller = m.function(FuncId::new(2));
        assert_eq!(caller.name(), "f4");
        let targets: Vec<FuncId> = caller
            .value_ids()
            .filter_map(|v| match caller.value(v).kind() {
                ValueKind::Inst(Inst::Call {
                    callee: Callee::Internal(t),
                    ..
                }) => Some(*t),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![FuncId::new(1)], "f2 compacted to id 1");

        // Removing a still-called function dangles, reported by verify.
        let mut probe = m.clone();
        probe.remove_functions(&[FuncId::new(1)]);
        assert!(crate::verify::verify_module(&probe).is_err());
    }

    #[test]
    fn globals() {
        let mut m = Module::new();
        let g = m.add_global("tab", 128);
        assert_eq!(m.global(g).name(), "tab");
        assert_eq!(m.global(g).size(), 128);
        assert_eq!(m.num_globals(), 1);
        assert_eq!(m.global_ids().count(), 1);
    }
}
