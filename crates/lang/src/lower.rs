//! AST → SSA lowering with on-the-fly SSA construction.
//!
//! Implements Braun et al.'s simple-and-efficient SSA construction:
//! variables are read through a per-block definition table; blocks whose
//! predecessors are not all known yet (loop headers) receive *incomplete*
//! φs that are filled in when the block is sealed; trivial φs (all
//! arguments equal) are eliminated by a final fixpoint pass so the local
//! pointer analysis is not polluted by φs a production compiler would
//! not emit.

use std::collections::{HashMap, HashSet};
use std::fmt;

use sra_ir::{BinOp, BlockId, Callee, FunctionBuilder, GlobalId, Module, Ty, ValueId};

use crate::ast::{BinKind, Expr, FuncDecl, Program, Stmt};

/// A semantic error found during lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// What went wrong, mentioning the names involved.
    pub message: String,
    /// The function being lowered, when known.
    pub func: Option<String>,
}

impl LowerError {
    fn in_func(mut self, name: &str) -> Self {
        if self.func.is_none() {
            self.func = Some(name.to_owned());
        }
        self
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)?;
        if let Some(func) = &self.func {
            write!(f, " in function `{func}`")?;
        }
        Ok(())
    }
}

impl std::error::Error for LowerError {}

/// External library functions known to return pointers; everything else
/// unknown returns an integer.
const PTR_EXTERNALS: &[&str] = &["getenv", "strdup"];

/// Lowers a parsed program into an SSA module (no σ-nodes yet; run
/// [`sra_ir::essa::run`] afterwards for e-SSA).
///
/// # Errors
///
/// Returns a [`LowerError`] for unknown names, type mismatches, arity
/// errors and reads of possibly-uninitialized pointers.
pub fn lower(p: &Program) -> Result<Module, LowerError> {
    let mut module = Module::new();
    let mut globals = HashMap::new();
    for (name, size) in &p.globals {
        if globals.contains_key(name) {
            return Err(err(format!("duplicate global `{name}`")));
        }
        globals.insert(name.clone(), module.add_global(name, *size));
    }
    // Pre-declare signatures so calls can be resolved in any order.
    let mut sigs: SigMap = HashMap::new();
    for (i, f) in p.funcs.iter().enumerate() {
        if sigs.contains_key(&f.name) {
            return Err(err(format!("duplicate function `{}`", f.name)).in_func(&f.name));
        }
        let tys = f.params.iter().map(|(_, t)| *t).collect();
        sigs.insert(f.name.clone(), (i, tys, f.ret));
    }
    for f in &p.funcs {
        let func = lower_function(f, &sigs, &globals)?;
        module.add_function(func);
    }
    Ok(module)
}

/// Name → (function id index, parameter types, return type) binding
/// used to resolve calls while lowering. [`lower`] numbers functions
/// in program order; the incremental frontend
/// (`source::SourceProgram`) supplies registry ids instead so a
/// re-lowered function lands on its existing [`sra_ir::FuncId`].
pub(crate) type SigMap = HashMap<String, (usize, Vec<Ty>, Option<Ty>)>;

/// Resolves a callee name to its internal binding: (function id index,
/// parameter types, return type), or `None` for an external callee.
pub(crate) trait Signatures {
    fn signature(&self, name: &str) -> Option<(usize, &[Ty], Option<Ty>)>;
}

impl Signatures for SigMap {
    fn signature(&self, name: &str) -> Option<(usize, &[Ty], Option<Ty>)> {
        self.get(name)
            .map(|(i, tys, ret)| (*i, tys.as_slice(), *ret))
    }
}

/// Lowers a single function against an explicit signature binding.
/// σ-nodes are **not** inserted; run [`sra_ir::essa::run`] afterwards.
pub(crate) fn lower_function(
    decl: &FuncDecl,
    sigs: &dyn Signatures,
    globals: &HashMap<String, GlobalId>,
) -> Result<sra_ir::Function, LowerError> {
    FnLower::new(decl, sigs, globals)
        .run()
        .map_err(|e| e.in_func(&decl.name))
}

fn err(message: String) -> LowerError {
    LowerError {
        message,
        func: None,
    }
}

type VarId = usize;

struct FnLower<'a> {
    decl: &'a FuncDecl,
    sigs: &'a dyn Signatures,
    globals: &'a HashMap<String, GlobalId>,
    b: FunctionBuilder,
    vars: HashMap<String, (VarId, Ty)>,
    var_tys: Vec<Ty>,
    current_def: HashMap<(VarId, BlockId), ValueId>,
    sealed: HashSet<BlockId>,
    incomplete: HashMap<BlockId, Vec<(VarId, ValueId)>>,
    preds: HashMap<BlockId, Vec<BlockId>>,
    phis: Vec<ValueId>,
    replacements: HashMap<ValueId, ValueId>,
    terminated: bool,
}

impl<'a> FnLower<'a> {
    fn new(
        decl: &'a FuncDecl,
        sigs: &'a dyn Signatures,
        globals: &'a HashMap<String, GlobalId>,
    ) -> Self {
        let param_tys: Vec<Ty> = decl.params.iter().map(|(_, t)| *t).collect();
        let b = FunctionBuilder::new(&decl.name, &param_tys, decl.ret);
        FnLower {
            decl,
            sigs,
            globals,
            b,
            vars: HashMap::new(),
            var_tys: Vec::new(),
            current_def: HashMap::new(),
            sealed: HashSet::new(),
            incomplete: HashMap::new(),
            preds: HashMap::new(),
            phis: Vec::new(),
            replacements: HashMap::new(),
            terminated: false,
        }
    }

    fn run(mut self) -> Result<sra_ir::Function, LowerError> {
        let entry = self.b.entry_block();
        self.sealed.insert(entry);
        for (i, (name, ty)) in self.decl.params.iter().enumerate() {
            let var = self.declare(name, *ty)?;
            let pv = self.b.param(i);
            self.b.set_name(pv, name);
            self.write_var(var, entry, pv);
        }
        let body = self.decl.body.clone();
        self.stmts(&body)?;
        if !self.terminated {
            match self.decl.ret {
                None => self.b.ret(None),
                Some(Ty::Int) => {
                    let z = self.b.const_int(0);
                    self.b.ret(Some(z));
                }
                Some(Ty::Ptr) => {
                    return Err(err(
                        "may fall off the end without returning a pointer".into()
                    ))
                }
            }
        }
        self.remove_trivial_phis();
        let map = std::mem::take(&mut self.replacements);
        self.b.replace_values(&map);
        let mut f = self.b.finish();
        f.set_exported(self.decl.exported);
        Ok(f)
    }

    // ----- Braun SSA construction -------------------------------------

    fn declare(&mut self, name: &str, ty: Ty) -> Result<VarId, LowerError> {
        if self.vars.contains_key(name) {
            return Err(err(format!("duplicate variable `{name}`")));
        }
        if self.globals.contains_key(name) {
            return Err(err(format!("variable `{name}` shadows a global")));
        }
        let id = self.var_tys.len();
        self.var_tys.push(ty);
        self.vars.insert(name.to_owned(), (id, ty));
        Ok(id)
    }

    fn resolve(&self, mut v: ValueId) -> ValueId {
        while let Some(&n) = self.replacements.get(&v) {
            v = n;
        }
        v
    }

    fn write_var(&mut self, var: VarId, block: BlockId, value: ValueId) {
        self.current_def.insert((var, block), value);
    }

    fn read_var(&mut self, var: VarId, block: BlockId) -> Result<ValueId, LowerError> {
        if let Some(&v) = self.current_def.get(&(var, block)) {
            return Ok(self.resolve(v));
        }
        let ty = self.var_tys[var];
        let v = if !self.sealed.contains(&block) {
            let phi = self.b.prepend_phi(block, ty);
            self.phis.push(phi);
            self.incomplete.entry(block).or_default().push((var, phi));
            phi
        } else {
            let preds = self.preds.get(&block).cloned().unwrap_or_default();
            match preds.len() {
                0 => {
                    // Entry block read of an unwritten variable.
                    match ty {
                        Ty::Int => self.b.const_int(0),
                        Ty::Ptr => {
                            return Err(err("pointer variable read before initialization".into()))
                        }
                    }
                }
                1 => self.read_var(var, preds[0])?,
                _ => {
                    let phi = self.b.prepend_phi(block, ty);
                    self.phis.push(phi);
                    self.write_var(var, block, phi);
                    self.add_phi_operands(var, phi, &preds)?;
                    phi
                }
            }
        };
        self.write_var(var, block, v);
        Ok(v)
    }

    fn add_phi_operands(
        &mut self,
        var: VarId,
        phi: ValueId,
        preds: &[BlockId],
    ) -> Result<(), LowerError> {
        for &p in preds {
            let arg = self.read_var(var, p)?;
            self.b.add_phi_arg(phi, p, arg);
        }
        Ok(())
    }

    fn seal(&mut self, block: BlockId) -> Result<(), LowerError> {
        if !self.sealed.insert(block) {
            return Ok(());
        }
        if let Some(pending) = self.incomplete.remove(&block) {
            let preds = self.preds.get(&block).cloned().unwrap_or_default();
            for (var, phi) in pending {
                self.add_phi_operands(var, phi, &preds)?;
            }
        }
        Ok(())
    }

    /// Fixpoint elimination of φs whose arguments (after substitution)
    /// are all the same value or the φ itself.
    fn remove_trivial_phis(&mut self) {
        loop {
            let mut changed = false;
            for i in 0..self.phis.len() {
                let phi = self.phis[i];
                if self.replacements.contains_key(&phi) {
                    continue;
                }
                let args: Vec<ValueId> = self.b.phi_args(phi).iter().map(|(_, a)| *a).collect();
                let mut same: Option<ValueId> = None;
                let mut trivial = true;
                for a in args {
                    let a = self.resolve(a);
                    if a == phi {
                        continue;
                    }
                    match same {
                        None => same = Some(a),
                        Some(s) if s == a => {}
                        Some(_) => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if trivial {
                    if let Some(s) = same {
                        self.replacements.insert(phi, s);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    // ----- control-flow helpers ---------------------------------------

    fn edge(&mut self, from: BlockId, to: BlockId) {
        self.preds.entry(to).or_default().push(from);
    }

    fn jump_to(&mut self, target: BlockId) {
        let from = self.b.current_block();
        self.b.jump(target);
        self.edge(from, target);
        self.terminated = true;
    }

    fn branch_to(&mut self, cond: ValueId, t: BlockId, e: BlockId) {
        let from = self.b.current_block();
        self.b.br(cond, t, e);
        self.edge(from, t);
        self.edge(from, e);
        self.terminated = true;
    }

    fn enter(&mut self, block: BlockId) {
        self.b.switch_to(block);
        self.terminated = false;
    }

    // ----- statements ---------------------------------------------------

    fn stmts(&mut self, list: &[Stmt]) -> Result<(), LowerError> {
        for s in list {
            if self.terminated {
                // Dead code after return: stop lowering the block.
                break;
            }
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), LowerError> {
        match s {
            Stmt::Decl(name, ty) => {
                self.declare(name, *ty)?;
                Ok(())
            }
            Stmt::Assign(name, e) => {
                let Some(&(var, vty)) = self.vars.get(name) else {
                    return Err(err(format!("assignment to unknown variable `{name}`")));
                };
                let (v, ty) = self.expr(e)?;
                if ty != vty {
                    return Err(err(format!("type mismatch assigning to `{name}`")));
                }
                let block = self.b.current_block();
                self.write_var(var, block, v);
                Ok(())
            }
            Stmt::Store(addr, val) => {
                let (a, aty) = self.expr(addr)?;
                if aty != Ty::Ptr {
                    return Err(err("store through a non-pointer".into()));
                }
                let (v, vty) = self.expr(val)?;
                if vty != Ty::Int {
                    return Err(err("`*p = e` stores integers; use store_ptr".into()));
                }
                self.b.store(a, v);
                Ok(())
            }
            Stmt::StorePtr(addr, val) => {
                let (a, aty) = self.expr(addr)?;
                let (v, vty) = self.expr(val)?;
                if aty != Ty::Ptr || vty != Ty::Ptr {
                    return Err(err("store_ptr needs pointer address and value".into()));
                }
                self.b.store(a, v);
                Ok(())
            }
            Stmt::Free(e) => {
                let (v, ty) = self.expr(e)?;
                if ty != Ty::Ptr {
                    return Err(err("free of a non-pointer".into()));
                }
                self.b.free(v);
                Ok(())
            }
            Stmt::Return(e) => {
                match (e, self.decl.ret) {
                    (None, None) => self.b.ret(None),
                    (Some(e), Some(want)) => {
                        let (v, ty) = self.expr(e)?;
                        if ty != want {
                            return Err(err("return type mismatch".into()));
                        }
                        self.b.ret(Some(v));
                    }
                    _ => return Err(err("return arity mismatch".into())),
                }
                self.terminated = true;
                Ok(())
            }
            Stmt::ExprStmt(e) => {
                // Void internal calls are only legal here.
                if let Expr::Call(name, args) = e {
                    if let Some((idx, tys, ret)) = self.sigs.signature(name) {
                        if ret.is_none() {
                            let argv = self.call_args(name, args, tys)?;
                            self.b
                                .call(Callee::Internal(sra_ir::FuncId::new(idx)), &argv, None);
                            return Ok(());
                        }
                    }
                }
                self.expr(e)?;
                Ok(())
            }
            Stmt::If(cond, then, els) => {
                let (c, cty) = self.expr(cond)?;
                if cty != Ty::Int {
                    return Err(err("condition must be an integer".into()));
                }
                let then_bb = self.b.create_block();
                let else_bb = self.b.create_block();
                let join = self.b.create_block();
                self.branch_to(c, then_bb, else_bb);
                self.seal(then_bb)?;
                self.seal(else_bb)?;

                self.enter(then_bb);
                self.stmts(then)?;
                if !self.terminated {
                    self.jump_to(join);
                }
                self.enter(else_bb);
                self.stmts(els)?;
                if !self.terminated {
                    self.jump_to(join);
                }
                self.seal(join)?;
                self.enter(join);
                // If both arms returned, the join is unreachable; emit a
                // terminator so the function is complete and move on.
                if self.preds.get(&join).is_none_or(Vec::is_empty) {
                    match self.decl.ret {
                        None => self.b.ret(None),
                        Some(Ty::Int) => {
                            let z = self.b.const_int(0);
                            self.b.ret(Some(z));
                        }
                        Some(Ty::Ptr) => {
                            // Unreachable anyway; return one of the
                            // parameters if available, else error out.
                            self.b.ret(None);
                        }
                    }
                    self.terminated = true;
                }
                Ok(())
            }
            Stmt::While(cond, body) => {
                let header = self.b.create_block();
                let body_bb = self.b.create_block();
                let exit = self.b.create_block();
                self.jump_to(header);
                self.enter(header);
                let (c, cty) = self.expr(cond)?;
                if cty != Ty::Int {
                    return Err(err("loop condition must be an integer".into()));
                }
                self.branch_to(c, body_bb, exit);
                self.seal(body_bb)?;
                self.enter(body_bb);
                self.stmts(body)?;
                if !self.terminated {
                    self.jump_to(header);
                }
                self.seal(header)?;
                self.seal(exit)?;
                self.enter(exit);
                Ok(())
            }
        }
    }

    fn call_args(
        &mut self,
        name: &str,
        args: &[Expr],
        tys: &[Ty],
    ) -> Result<Vec<ValueId>, LowerError> {
        if args.len() != tys.len() {
            return Err(err(format!(
                "call to `{name}` with {} args, expected {}",
                args.len(),
                tys.len()
            )));
        }
        let mut out = Vec::with_capacity(args.len());
        for (a, &want) in args.iter().zip(tys) {
            let (v, ty) = self.expr(a)?;
            if ty != want {
                return Err(err(format!("argument type mismatch calling `{name}`")));
            }
            out.push(v);
        }
        Ok(out)
    }

    // ----- expressions --------------------------------------------------

    fn expr(&mut self, e: &Expr) -> Result<(ValueId, Ty), LowerError> {
        match e {
            Expr::Int(c) => Ok((self.b.const_int(*c), Ty::Int)),
            Expr::Var(name) => {
                if let Some(&(var, ty)) = self.vars.get(name) {
                    let block = self.b.current_block();
                    let v = self.read_var(var, block)?;
                    return Ok((v, ty));
                }
                if let Some(&g) = self.globals.get(name) {
                    return Ok((self.b.global_addr(g, Ty::Ptr), Ty::Ptr));
                }
                Err(err(format!("unknown variable `{name}`")))
            }
            Expr::Bin(kind, l, r) => {
                let (lv, lt) = self.expr(l)?;
                let (rv, rt) = self.expr(r)?;
                match (lt, rt, kind) {
                    (Ty::Int, Ty::Int, _) => {
                        let op = match kind {
                            BinKind::Add => BinOp::Add,
                            BinKind::Sub => BinOp::Sub,
                            BinKind::Mul => BinOp::Mul,
                            BinKind::Div => BinOp::Div,
                            BinKind::Rem => BinOp::Rem,
                        };
                        Ok((self.b.binop(op, lv, rv), Ty::Int))
                    }
                    (Ty::Ptr, Ty::Int, BinKind::Add) => Ok((self.b.ptr_add(lv, rv), Ty::Ptr)),
                    (Ty::Int, Ty::Ptr, BinKind::Add) => Ok((self.b.ptr_add(rv, lv), Ty::Ptr)),
                    (Ty::Ptr, Ty::Int, BinKind::Sub) => {
                        let zero = self.b.const_int(0);
                        let neg = self.b.binop(BinOp::Sub, zero, rv);
                        Ok((self.b.ptr_add(lv, neg), Ty::Ptr))
                    }
                    _ => Err(err("invalid operand types for arithmetic".into())),
                }
            }
            Expr::Cmp(op, l, r) => {
                let (lv, lt) = self.expr(l)?;
                let (rv, rt) = self.expr(r)?;
                if lt != rt {
                    return Err(err("comparison of mismatched types".into()));
                }
                Ok((self.b.cmp(*op, lv, rv), Ty::Int))
            }
            Expr::Load(addr) => {
                let (a, ty) = self.expr(addr)?;
                if ty != Ty::Ptr {
                    return Err(err("dereference of a non-pointer".into()));
                }
                Ok((self.b.load(a, Ty::Int), Ty::Int))
            }
            Expr::LoadPtr(addr) => {
                let (a, ty) = self.expr(addr)?;
                if ty != Ty::Ptr {
                    return Err(err("load_ptr of a non-pointer".into()));
                }
                Ok((self.b.load(a, Ty::Ptr), Ty::Ptr))
            }
            Expr::Index(base, idx) => {
                let (bv, bt) = self.expr(base)?;
                let (iv, it) = self.expr(idx)?;
                if bt != Ty::Ptr || it != Ty::Int {
                    return Err(err("indexing needs ptr[int]".into()));
                }
                let addr = self.b.ptr_add(bv, iv);
                Ok((self.b.load(addr, Ty::Int), Ty::Int))
            }
            Expr::Malloc(size) => {
                let (sv, ty) = self.expr(size)?;
                if ty != Ty::Int {
                    return Err(err("malloc size must be an integer".into()));
                }
                Ok((self.b.malloc(sv), Ty::Ptr))
            }
            Expr::Alloca(size) => {
                let (sv, ty) = self.expr(size)?;
                if ty != Ty::Int {
                    return Err(err("alloca size must be an integer".into()));
                }
                Ok((self.b.alloca(sv), Ty::Ptr))
            }
            Expr::Call(name, args) => {
                if let Some((idx, tys, ret)) = self.sigs.signature(name) {
                    let Some(ret) = ret else {
                        return Err(err(format!("void function `{name}` used as a value")));
                    };
                    let argv = self.call_args(name, args, tys)?;
                    let v =
                        self.b
                            .call(Callee::Internal(sra_ir::FuncId::new(idx)), &argv, Some(ret));
                    return Ok((v, ret));
                }
                // External: arguments lower as-is, return type by name.
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.expr(a)?.0);
                }
                let ret = if PTR_EXTERNALS.contains(&name.as_str()) {
                    Ty::Ptr
                } else {
                    Ty::Int
                };
                let v = self
                    .b
                    .call(Callee::External(name.clone()), &argv, Some(ret));
                Ok((v, ret))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::compile;
    use sra_ir::print_module;

    #[test]
    fn straight_line() {
        let m = compile("export int main() { int x; x = 1 + 2; return x; }").unwrap();
        assert_eq!(m.num_functions(), 1);
    }

    #[test]
    fn loop_creates_phi_and_sigma() {
        let m = compile(
            "export void main() { ptr a; a = malloc(10); int i; i = 0; \
             while (i < 10) { a[i] = i; i = i + 1; } }",
        )
        .unwrap();
        let text = print_module(&m);
        assert!(text.contains("phi"), "loop variable needs a φ:\n{text}");
        assert!(text.contains("sigma"), "e-SSA inserts σs:\n{text}");
    }

    #[test]
    fn if_else_join_phi() {
        let m = compile(
            "export int main() { int x; if (atoi() < 0) { x = 1; } else { x = 2; } \
             return x; }",
        )
        .unwrap();
        let text = print_module(&m);
        assert!(text.contains("phi"), "{text}");
    }

    #[test]
    fn trivial_phis_are_removed() {
        // `p` is not modified in the branch: reading it afterwards must
        // not create a φ.
        let m = compile(
            "export void main() { ptr p; p = malloc(4); int x; x = 0; \
             if (atoi() < 0) { x = 1; } \
             *p = x; *(p + 1) = x; }",
        )
        .unwrap();
        let text = print_module(&m);
        // Exactly one φ (for x), none for p.
        let phi_count = text.matches(" = phi").count();
        assert_eq!(phi_count, 1, "{text}");
    }

    #[test]
    fn globals_and_calls() {
        let m = compile(
            "int tab[8];\n\
             void fill(ptr p, int n) { int i; i = 0; while (i < n) { p[i] = i; i = i + 1; } }\n\
             export int main() { fill(tab, 8); return tab[3]; }",
        )
        .unwrap();
        assert_eq!(m.num_functions(), 2);
        assert_eq!(m.num_globals(), 1);
        let text = print_module(&m);
        assert!(text.contains("call @fill"));
    }

    #[test]
    fn figure1_compiles() {
        let m = compile(
            r#"
            void prepare(ptr p, int n, ptr m) {
                ptr i; ptr e;
                i = p; e = p + n;
                while (i < e) { *i = 0; *(i + 1) = 255; i = i + 2; }
                ptr f; f = e + strlen(m);
                while (i < f) { *i = *m; m = m + 1; i = i + 1; }
            }
            export int main() {
                int z; z = atoi();
                ptr b; b = malloc(z);
                ptr s; s = malloc(strlen());
                prepare(b, z, s);
                return 0;
            }
            "#,
        )
        .unwrap();
        assert_eq!(m.num_functions(), 2);
    }

    #[test]
    fn errors_name_the_function() {
        use crate::CompileError;
        let Err(CompileError::Lower(e)) = compile("void f() { } void g(ptr p) { int x; x = p; }")
        else {
            panic!("expected a lowering error")
        };
        assert_eq!(e.func.as_deref(), Some("g"));
        assert!(e.to_string().contains("in function `g`"), "{e}");
    }

    #[test]
    fn error_cases() {
        assert!(compile("export void main() { x = 1; }").is_err());
        assert!(compile("export void main() { int x; int x; }").is_err());
        assert!(compile("export void main() { ptr p; *p = 0; }").is_err());
        assert!(compile("export void main() { int x; x = malloc(4); }").is_err());
        assert!(compile("void f(int a) {} export void main() { f(); }").is_err());
        assert!(compile("export void main() { int p; *p = 1; }").is_err());
    }

    #[test]
    fn externals_and_builtins() {
        let m = compile(
            "export void main() { ptr e; e = getenv(); int n; n = atoi(); \
             ptr s; s = alloca(n); ptr h; h = malloc(n); free(h); \
             store_ptr(s, e); ptr back; back = load_ptr(s); }",
        )
        .unwrap();
        let text = print_module(&m);
        assert!(text.contains("call @getenv!"));
        assert!(text.contains("alloca"));
        assert!(text.contains("free"));
        assert!(text.contains("load.ptr"));
    }

    #[test]
    fn for_loop_desugars() {
        let m = compile(
            "export void main() { ptr a; a = malloc(10); int i; \
             for (i = 0; i < 10; i = i + 1) { a[i] = i; } }",
        )
        .unwrap();
        let text = print_module(&m);
        assert!(text.contains("phi"));
    }

    #[test]
    fn interp_agrees_with_source() {
        // Compile and execute: sum of 0..5 through memory.
        let m = compile(
            "export int main() { ptr a; a = malloc(5); int i; i = 0; \
             while (i < 5) { a[i] = i; i = i + 1; } \
             int s; s = 0; i = 0; \
             while (i < 5) { s = s + a[i]; i = i + 1; } \
             return s; }",
        )
        .unwrap();
        let fid = m.function_by_name("main").unwrap();
        let mut interp = sra_interp::Interp::new(&m);
        let r = interp.run(fid, &[]).unwrap();
        assert_eq!(r.ret, Some(sra_interp::Value::Int(10)));
    }
}
