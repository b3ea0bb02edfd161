//! A mini-C frontend for the pointer-analysis IR.
//!
//! The language is the C subset the paper evaluates on: integers,
//! pointers with arithmetic, arrays (one memory cell per element),
//! loops, conditionals, functions, globals and the usual library calls
//! (`malloc`, `free`, `atoi`, `strlen`, …). Source is lowered to the
//! SSA IR of [`sra_ir`] with on-the-fly SSA construction (Braun et
//! al.'s algorithm with trivial-φ elimination) and, by default, the
//! e-SSA σ-insertion pass.
//!
//! # Syntax sketch
//!
//! ```c
//! int table[16];                 // a global of 16 cells
//!
//! void prepare(ptr p, int n, ptr m) {
//!     ptr i; ptr e;
//!     i = p; e = p + n;
//!     while (i < e) { *i = 0; *(i + 1) = 255; i = i + 2; }
//!     ptr f; f = e + strlen(m);
//!     while (i < f) { *i = *m; m = m + 1; i = i + 1; }
//! }
//!
//! export int main() {
//!     int z; z = atoi();
//!     ptr b; b = malloc(z);
//!     ptr s; s = malloc(strlen());
//!     prepare(b, z, s);
//!     return 0;
//! }
//! ```
//!
//! * Types are `int` and `ptr` (a pointer to cells).
//! * `*e` loads an integer cell; `load_ptr(e)` loads a pointer cell.
//! * `p[i]` is sugar for `*(p + i)`; `p[i] = e` stores.
//! * `malloc`/`alloca`/`free` are built in; any other unknown callee is
//!   an external library function returning a kernel symbol.
//! * `export` marks a function as callable from outside the module
//!   (pointer parameters then get `Unknown` locations; `main` is always
//!   exported).
//!
//! # Examples
//!
//! ```
//! let m = sra_lang::compile(r#"
//!     export int main() {
//!         ptr a; a = malloc(10);
//!         int i; i = 0;
//!         while (i < 10) { a[i] = i; i = i + 1; }
//!         return a[5];
//!     }
//! "#).expect("compiles");
//! assert_eq!(m.num_functions(), 1);
//! sra_ir::verify::verify_module(&m).expect("well-formed");
//! ```

mod ast;
mod lexer;
mod lower;
mod parser;
mod source;

pub use ast::{BinKind, Expr, FuncDecl, Program, Stmt};
pub use lexer::{lex, lex_spanned, LexError, Span, Token};
pub use lower::LowerError;
pub use parser::{parse, parse_spanned, ParseError};
pub use source::{PreparedEdit, SourceDiff, SourceProgram};

use sra_ir::Module;

/// Everything that can go wrong between source text and IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Tokenization failure.
    Lex(LexError),
    /// Grammar failure.
    Parse(ParseError),
    /// Semantic failure (unknown names, type errors).
    Lower(LowerError),
    /// Lowering produced IR that fails verification — an internal
    /// invariant violation, never a user error.
    Internal(sra_ir::verify::VerifyError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Lex(e) => write!(f, "lex error: {}", e),
            CompileError::Parse(e) => write!(f, "parse error: {}", e),
            CompileError::Lower(e) => write!(f, "lowering error: {}", e),
            CompileError::Internal(e) => {
                write!(f, "internal error: lowering produced invalid IR: {}", e)
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Compilation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Run the e-SSA σ-insertion pass after lowering (default: true).
    pub essa: bool,
    /// Verify the produced module (default: true).
    pub verify: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            essa: true,
            verify: true,
        }
    }
}

/// Compiles mini-C source into an e-SSA module.
///
/// # Errors
///
/// Returns a [`CompileError`] describing the first problem found.
pub fn compile(source: &str) -> Result<Module, CompileError> {
    compile_with(source, CompileOptions::default())
}

/// Compiles with explicit options.
///
/// # Errors
///
/// Returns a [`CompileError`] describing the first problem found.
/// Verification failures surface as [`CompileError::Internal`].
pub fn compile_with(source: &str, opts: CompileOptions) -> Result<Module, CompileError> {
    let (tokens, spans) = lexer::lex_spanned(source).map_err(CompileError::Lex)?;
    let (program, _) = parser::parse_spanned(&tokens, &spans).map_err(CompileError::Parse)?;
    let mut module = lower::lower(&program).map_err(CompileError::Lower)?;
    if opts.essa {
        for f in module.func_ids().collect::<Vec<_>>() {
            sra_ir::essa::run(module.function_mut(f));
        }
    }
    if opts.verify {
        sra_ir::verify::verify_module(&module).map_err(CompileError::Internal)?;
    }
    Ok(module)
}
