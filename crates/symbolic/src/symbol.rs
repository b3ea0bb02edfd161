//! Symbols: the atoms of the symbolic kernel.

use std::fmt;

/// An opaque symbol of the program's *symbolic kernel*.
///
/// A symbol stands for a value that the analysis cannot express as a
/// function of other program names: a function parameter, the result of a
/// library call (`strlen`, `atoi`, …), or a global. Symbols are plain
/// numeric identifiers; pretty names live in a [`SymbolTable`] owned by
/// whoever mints the symbols.
///
/// # Examples
///
/// ```
/// use sra_symbolic::Symbol;
/// let n = Symbol::new(7);
/// assert_eq!(n.index(), 7);
/// assert_eq!(n.to_string(), "s7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Creates a symbol with the given raw index.
    pub fn new(index: u32) -> Self {
        Symbol(index)
    }

    /// Returns the raw index of this symbol.
    pub fn index(self) -> u32 {
        self.0 as usize as u32
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Maps [`Symbol`]s to human-readable names.
///
/// Implemented by [`SymbolTable`]; analyses that mint their own symbols
/// can implement it to get readable analysis dumps.
pub trait SymbolNames {
    /// Returns the display name for `sym`, or `None` to fall back to the
    /// default `s<index>` rendering.
    fn symbol_name(&self, sym: Symbol) -> Option<&str>;
}

/// An interning table assigning dense indices and names to symbols.
///
/// # Examples
///
/// ```
/// use sra_symbolic::{SymbolNames, SymbolTable};
/// let mut table = SymbolTable::new();
/// let n = table.intern("N");
/// assert_eq!(table.intern("N"), n); // interning is idempotent
/// assert_eq!(table.symbol_name(n), Some("N"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolTable {
    names: Vec<String>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the existing symbol if already present.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(pos) = self.names.iter().position(|n| n == name) {
            return Symbol::new(pos as u32);
        }
        self.fresh(name)
    }

    /// Mints a fresh symbol named `name` without checking for duplicates.
    ///
    /// Useful when distinct program points must stay distinct even if
    /// they happen to share a name (e.g. two calls to `strlen`).
    pub fn fresh(&mut self, name: &str) -> Symbol {
        let sym = Symbol::new(self.names.len() as u32);
        self.names.push(name.to_owned());
        sym
    }

    /// Number of symbols interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if no symbol has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(symbol, name)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> + '_ {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Symbol::new(i as u32), n.as_str()))
    }

    /// The names of the symbols in `block` (which must lie in the
    /// table), in index order.
    pub fn names(&self, block: std::ops::Range<u32>) -> &[String] {
        &self.names[block.start as usize..block.end as usize]
    }

    /// Concatenates per-function name blocks into one table, minting
    /// each block's symbols densely after the previous block's. Returns
    /// the table and the block boundaries: block `k` is
    /// `bases[k]..bases[k + 1]`.
    pub fn from_blocks<'a>(blocks: impl IntoIterator<Item = &'a [String]>) -> (Self, Vec<u32>) {
        let mut table = SymbolTable::new();
        let mut bases = vec![0];
        for block in blocks {
            table.names.extend_from_slice(block);
            bases.push(table.names.len() as u32);
        }
        (table, bases)
    }
}

impl SymbolNames for SymbolTable {
    fn symbol_name(&self, sym: Symbol) -> Option<&str> {
        self.names.get(sym.index() as usize).map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("N");
        let b = t.intern("M");
        assert_ne!(a, b);
        assert_eq!(t.intern("N"), a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn fresh_always_new() {
        let mut t = SymbolTable::new();
        let a = t.fresh("strlen");
        let b = t.fresh("strlen");
        assert_ne!(a, b);
        assert_eq!(t.symbol_name(a), Some("strlen"));
        assert_eq!(t.symbol_name(b), Some("strlen"));
    }

    #[test]
    fn display_fallback() {
        assert_eq!(Symbol::new(3).to_string(), "s3");
    }

    #[test]
    fn iter_in_order() {
        let mut t = SymbolTable::new();
        t.intern("a");
        t.intern("b");
        let names: Vec<&str> = t.iter().map(|(_, n)| n).collect();
        assert_eq!(names, ["a", "b"]);
    }
}
