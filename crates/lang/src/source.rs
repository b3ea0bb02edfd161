//! Source-level incremental frontend: splice re-parsing and
//! function-granularity diffing.
//!
//! A [`SourceProgram`] holds the current text of a module, its
//! top-level items in text order, and a *registry* binding each
//! function name to a stable [`FuncId`]. Every item owns its leading
//! trivia (the whitespace and comments before it), so the items tile
//! the text up to its trailing trivia.
//!
//! An edit ([`SourceProgram::apply_edit`] with a whole new text, or
//! [`SourceProgram::apply_splice`] with a replaced byte range) costs
//! O(changed span + changed units), not O(text):
//!
//! 1. **Changed span.** A whole-text edit is reduced to a splice by
//!    matching the common prefix and suffix of the old and new text.
//! 2. **Re-parse.** Lexing and parsing restart at the first item the
//!    splice touches, with the lexer's line counter set for that
//!    offset so error positions stay absolute. They stop where the
//!    lexer sits between tokens, outside any comment, at the end of an
//!    old item past the splice (shifted by the length delta) *and* the
//!    parser has just finished an item: from there the bytes are the
//!    old ones, so the tokens and items are too. If the parse runs out
//!    of tokens inside an item (a deleted `}` merges two units, say),
//!    the window grows to later item ends. Untouched items keep their
//!    units — hash, references and signature — as they are.
//! 3. **Diff.** The re-parsed units are diffed against the ones they
//!    replace, by name, by comparing each function's tokens:
//!    * **unchanged** — identical tokens and an identical
//!      *environment* (see below): the existing lowered body is kept
//!      verbatim;
//!    * **changed** — tokens differ: the unit is re-lowered through
//!      the Braun-style on-the-fly SSA construction in
//!      [`crate::lower`];
//!    * **added** — a new name: lowered and appended to the registry;
//!    * **removed** — a vanished name: dropped, surviving ids compact.
//!
//! A unit's lowering also depends on the *signatures* of the names it
//! references: adding, removing, or re-typing a function `g` changes
//! how a token-identical caller of `g` lowers (internal ↔ external
//! call flips, argument checking). When the re-parsed units add,
//! remove or re-type a name, every unit that mentions such a name is
//! therefore re-lowered too — an over-approximation that is cheap to
//! detect and keeps the incremental result byte-identical to a full
//! relower. Only the re-lowered functions are verified, against the
//! post-edit signatures: an untouched function's tokens and callee
//! signatures are unchanged, so its body is too.
//!
//! The name index and the signatures live in the registry across
//! edits; units sit behind [`Arc`], and a [`Module`] shares its function
//! bodies between clones, so cloning a program costs O(units) pointer
//! copies and an edit copies only the bodies it rewrites.
//! [`SourceProgram::prepare_edit`] / [`SourceProgram::commit`] split
//! an edit into a fallible, read-only step and an infallible one for
//! callers that must keep the program and something else in lockstep.
//! An edit is accepted exactly when the new text compiles from
//! scratch, and a rejected one reports the same [`CompileError`] as
//! [`SourceProgram::new`] would.
//!
//! **Id-stability contract**: names that survive an edit keep their
//! id (compacted over removals, exactly like
//! [`Module::remove_functions`]); additions append in text order.
//! Re-lowered bodies in a [`SourceDiff::Incremental`] are expressed in
//! the *pre-edit* id space so applying replacements → additions →
//! removals lands every internal call edge on the post-edit registry.
//! [`SourceProgram::full_relower`] lowers the current text from
//! scratch in registry order and must produce a module equal to the
//! incrementally maintained one — the shadow validator the
//! equivalence rails pin.
//!
//! Changes to the global table re-bind ids wholesale
//! ([`SourceDiff::FullRebuild`]): global ids are positional and every
//! unit may reference them.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use sra_ir::verify::{verify_function_against, CalleeSignatures};
use sra_ir::{FuncId, Function, GlobalId, Module, Ty};

use crate::ast::FuncDecl;
use crate::lexer::{lex_until, Cursor, Lexed, Token};
use crate::lower::{lower_function, SigMap, Signatures};
use crate::parser::{parse_items, TopItem};
use crate::{CompileError, LowerError};

/// One function unit of the registry: the tokens it was built from
/// plus what its lowering depended on.
#[derive(Debug)]
struct Unit {
    name: Arc<str>,
    /// Hash of `tokens` — fast-path for the diff.
    hash: u64,
    tokens: Vec<Token>,
    /// Identifiers referenced anywhere in the unit (sorted, deduped);
    /// superset of the callee names whose signatures the lowering
    /// consulted.
    refs: Vec<String>,
    params: Vec<Ty>,
    ret: Option<Ty>,
}

impl Unit {
    fn new(decl: &FuncDecl, tokens: &[Token], hash: u64) -> Unit {
        let mut refs: Vec<String> = tokens
            .iter()
            .filter_map(|t| match t {
                Token::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        refs.sort_unstable();
        refs.dedup();
        Unit {
            name: Arc::from(decl.name.as_str()),
            hash,
            tokens: tokens.to_vec(),
            refs,
            params: decl.params.iter().map(|(_, t)| *t).collect(),
            ret: decl.ret,
        }
    }

    fn same_signature(&self, other: &Unit) -> bool {
        self.params == other.params && self.ret == other.ret
    }

    /// Whether the unit mentions any of `names`.
    fn mentions(&self, names: &HashSet<&str>) -> bool {
        names
            .iter()
            .any(|n| self.refs.binary_search_by(|r| r.as_str().cmp(*n)).is_ok())
    }

    /// The unit's declaration, re-parsed from its tokens.
    fn decl(&self) -> Result<FuncDecl, CompileError> {
        let items = parse_items(&self.tokens, &[], 0).map_err(|(e, _)| CompileError::Parse(e))?;
        match <[_; 1]>::try_from(items) {
            Ok([(TopItem::Func(decl), _)]) => Ok(decl),
            _ => Err(internal_lower(&self.name)),
        }
    }
}

/// The error for a stored unit that no longer parses as one function,
/// which only a bug in this module can cause.
fn internal_lower(name: &str) -> CompileError {
    CompileError::Lower(LowerError {
        message: format!("stored tokens of `{name}` are not one function"),
        func: Some(name.to_owned()),
    })
}

/// One top-level item, in text order.
#[derive(Debug, Clone)]
struct Item {
    /// Bytes from the end of the previous item (or the start of the
    /// text) to the end of this item's last token: its leading trivia
    /// plus its tokens.
    len: usize,
    /// Number of tokens.
    ntok: usize,
    /// Number of newlines.
    lines: u32,
    /// The function it defines; `None` for a global.
    unit: Option<Arc<Unit>>,
}

/// The global table. Global ids are positional.
#[derive(Debug, Default)]
struct Globals {
    list: Vec<(String, i64)>,
    ids: HashMap<String, GlobalId>,
}

impl Globals {
    fn new(list: Vec<(String, i64)>) -> Result<Globals, CompileError> {
        let mut ids = HashMap::with_capacity(list.len());
        for (i, (name, _)) in list.iter().enumerate() {
            if ids.insert(name.clone(), GlobalId::new(i)).is_some() {
                return Err(CompileError::Lower(LowerError {
                    message: format!("duplicate global `{name}`"),
                    func: None,
                }));
            }
        }
        Ok(Globals { list, ids })
    }
}

/// What a textual edit changed, at function granularity.
#[derive(Debug, Clone)]
pub enum SourceDiff {
    /// Token-identical (whitespace/comment-only edits, or pure
    /// reordering of functions in the text): the module is unchanged
    /// and consumers must not re-analyze anything.
    Noop,
    /// Function-granularity delta expressed in the **pre-edit** id
    /// space: apply `replaced` first, then append `added`, then drop
    /// `removed` (sorted ascending, compacting survivor ids).
    Incremental {
        /// Re-lowered bodies for surviving ids whose lowering changed.
        replaced: Vec<(FuncId, Function)>,
        /// New functions, appended in text order.
        added: Vec<Function>,
        /// Pre-edit ids to remove, ascending.
        removed: Vec<FuncId>,
        /// Units left completely untouched.
        unchanged: usize,
        /// Units actually re-lowered (changed + env-dirty + added).
        relowered: usize,
    },
    /// The global table changed, so every unit was re-lowered and the
    /// registry re-bound in text order. `module` is the new world.
    FullRebuild {
        /// The fully re-lowered module.
        module: Module,
    },
}

/// An edit that compiled but is not applied yet: the result of
/// [`SourceProgram::prepare_edit`] or [`SourceProgram::prepare_splice`],
/// applied by [`SourceProgram::commit`].
#[derive(Debug)]
pub struct PreparedEdit {
    diff: SourceDiff,
    /// The commit count of the program it was prepared against.
    generation: u64,
    next: Next,
}

impl PreparedEdit {
    /// What committing the edit changes.
    pub fn diff(&self) -> &SourceDiff {
        &self.diff
    }
}

#[derive(Debug)]
enum Next {
    /// The global table changed: the program compiled from scratch.
    Rebuild(Box<SourceProgram>),
    /// The re-parsed window and the registry changes it brings.
    Splice(Splice),
}

#[derive(Debug)]
struct Splice {
    text: String,
    /// The old items the window replaces.
    old: Range<usize>,
    /// The window's items.
    items: Vec<Item>,
    /// New length and line count of the first old item after the
    /// window, which now also owns any trivia between the window's last
    /// token and it.
    rejoin: Option<(usize, u32)>,
    /// Survivors of the window, with their re-parsed units.
    survivors: Vec<(FuncId, Arc<Unit>)>,
    /// Added units, in text order.
    added: Vec<Arc<Unit>>,
}

/// A text-backed module with a stable name ↔ [`FuncId`] registry and
/// function-granularity incremental re-lowering.
///
/// # Examples
///
/// ```
/// use sra_lang::{SourceDiff, SourceProgram};
/// let mut p = SourceProgram::new(
///     "int f(int n) { return n + 1; } export int main() { return f(41); }",
/// )
/// .unwrap();
/// let diff = p
///     .apply_edit("int f(int n) { return n + 2; } export int main() { return f(41); }")
///     .unwrap();
/// let SourceDiff::Incremental { replaced, relowered, .. } = diff else {
///     panic!("body tweak is incremental")
/// };
/// assert_eq!((replaced.len(), relowered), (1, 1));
/// assert_eq!(p.module(), &p.full_relower().unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct SourceProgram {
    text: String,
    globals: Arc<Globals>,
    /// Top-level items in text order.
    items: Vec<Item>,
    /// Registry order — index `i` is the unit bound to `FuncId(i)`.
    units: Vec<Arc<Unit>>,
    /// Name → registry id.
    ids: HashMap<Arc<str>, FuncId>,
    module: Module,
    /// Commits so far; pins a [`PreparedEdit`] to the state it read.
    generation: u64,
}

impl SourceProgram {
    /// Compiles the initial text; the registry binds names in text
    /// order (same numbering as [`crate::compile`]).
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] describing the first problem found.
    pub fn new(text: &str) -> Result<Self, CompileError> {
        let (parsed, globals) = Parsed::whole(text)?;
        let slots: Vec<usize> = (0..parsed.units.len()).collect();
        Self::build(text, parsed, globals, &slots)
    }

    /// Compiles `text` binding names in the given registry `order`
    /// rather than text order. Incremental edits keep surviving units
    /// at their old ids and append new ones, so the registry order of
    /// an edited program drifts from text order; this constructor
    /// restores such a program (e.g. from a persisted snapshot) with
    /// its exact id assignment.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if the text does not compile or
    /// `order` is not a permutation of the text's function names.
    pub fn with_unit_order(text: &str, order: &[String]) -> Result<Self, CompileError> {
        let (parsed, globals) = Parsed::whole(text)?;
        let pos: HashMap<&str, usize> = order
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        if pos.len() != order.len() || parsed.units.len() != order.len() {
            return Err(CompileError::Lower(LowerError {
                message: "unit order is not a permutation of the program's functions".to_owned(),
                func: None,
            }));
        }
        let mut slots = Vec::with_capacity(order.len());
        for u in &parsed.units {
            let Some(&slot) = pos.get(&*u.name) else {
                return Err(CompileError::Lower(LowerError {
                    message: format!("unit order is missing function `{}`", u.name),
                    func: Some(u.name.to_string()),
                }));
            };
            slots.push(slot);
        }
        Self::build(text, parsed, globals, &slots)
    }

    /// Lowers a whole parse, binding its `k`-th function to id
    /// `slots[k]`.
    fn build(
        text: &str,
        parsed: Parsed,
        globals: Globals,
        slots: &[usize],
    ) -> Result<Self, CompileError> {
        let module = lower_ordered(&globals, &parsed.decls, slots)?;
        let mut units: Vec<Option<Arc<Unit>>> = vec![None; slots.len()];
        for (u, &slot) in parsed.units.iter().zip(slots) {
            units[slot] = Some(u.clone());
        }
        let units: Vec<Arc<Unit>> = units.into_iter().flatten().collect();
        let ids = units
            .iter()
            .enumerate()
            .map(|(i, u)| (u.name.clone(), FuncId::new(i)))
            .collect();
        Ok(SourceProgram {
            text: text.to_owned(),
            globals: Arc::new(globals),
            items: parsed.items,
            units,
            ids,
            module,
            generation: 0,
        })
    }

    /// The current text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The incrementally maintained module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The registry id bound to `name`, if present.
    ///
    /// ```
    /// use sra_ir::FuncId;
    /// use sra_lang::SourceProgram;
    /// let mut p = SourceProgram::new("int f() { return 1; } int g() { return 2; }").unwrap();
    /// assert_eq!(p.function_id("g"), Some(FuncId::new(1)));
    /// // Removing `f` compacts `g` onto id 0.
    /// p.apply_edit("int g() { return 2; }").unwrap();
    /// assert_eq!((p.function_id("f"), p.function_id("g")), (None, Some(FuncId::new(0))));
    /// ```
    pub fn function_id(&self, name: &str) -> Option<FuncId> {
        self.ids.get(name).copied()
    }

    /// Number of function units in the registry.
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Unit names in registry order: index `i` is the unit bound to
    /// `FuncId(i)`.
    pub fn unit_names(&self) -> Vec<String> {
        self.units.iter().map(|u| u.name.to_string()).collect()
    }

    /// Replaces the whole text, re-lowering only what the diff
    /// requires, and returns what changed. On error (`new_text` does
    /// not compile) the program is left untouched.
    ///
    /// # Errors
    ///
    /// Returns the [`CompileError`] [`SourceProgram::new`] reports for
    /// `new_text`.
    pub fn apply_edit(&mut self, new_text: &str) -> Result<SourceDiff, CompileError> {
        let edit = self.prepare_edit(new_text)?;
        Ok(self.commit(edit))
    }

    /// Replaces the bytes in `range` with `replacement` — the edit an
    /// LSP-style client sends — and returns what changed. Equivalent
    /// to [`SourceProgram::apply_edit`] of the spliced text.
    ///
    /// # Errors
    ///
    /// Returns the [`CompileError`] [`SourceProgram::new`] reports for
    /// the spliced text; the program is then left untouched.
    ///
    /// # Panics
    ///
    /// Panics when `range` is out of bounds or does not lie on char
    /// boundaries, like [`String::replace_range`].
    pub fn apply_splice(
        &mut self,
        range: Range<usize>,
        replacement: &str,
    ) -> Result<SourceDiff, CompileError> {
        let edit = self.prepare_splice(range, replacement)?;
        Ok(self.commit(edit))
    }

    /// The read-only half of [`SourceProgram::apply_edit`]: compiles
    /// the edit and reports its diff without changing the program.
    ///
    /// # Errors
    ///
    /// As [`SourceProgram::apply_edit`].
    pub fn prepare_edit(&self, new_text: &str) -> Result<PreparedEdit, CompileError> {
        let (old, new) = (self.text.as_bytes(), new_text.as_bytes());
        let prefix = common_prefix(old, new);
        let suffix = common_suffix(&old[prefix..], &new[prefix..]);
        self.prepare(
            new_text.to_owned(),
            prefix..old.len() - suffix,
            new.len() - suffix,
        )
    }

    /// The read-only half of [`SourceProgram::apply_splice`].
    ///
    /// # Errors
    ///
    /// As [`SourceProgram::apply_splice`].
    ///
    /// # Panics
    ///
    /// As [`SourceProgram::apply_splice`].
    pub fn prepare_splice(
        &self,
        range: Range<usize>,
        replacement: &str,
    ) -> Result<PreparedEdit, CompileError> {
        let (head, tail) = (&self.text[..range.start], &self.text[range.end..]);
        let mut text = String::with_capacity(head.len() + replacement.len() + tail.len());
        text.push_str(head);
        text.push_str(replacement);
        text.push_str(tail);
        let new_end = range.start + replacement.len();
        self.prepare(text, range, new_end)
    }

    /// Applies a prepared edit and returns its diff.
    ///
    /// # Panics
    ///
    /// Panics when `edit` was prepared against another state of the
    /// program (another edit was committed since).
    pub fn commit(&mut self, edit: PreparedEdit) -> SourceDiff {
        assert_eq!(
            edit.generation, self.generation,
            "edit prepared against a different state of the program"
        );
        let generation = self.generation + 1;
        let splice = match edit.next {
            Next::Rebuild(next) => {
                *self = *next;
                self.generation = generation;
                return edit.diff;
            }
            Next::Splice(splice) => splice,
        };
        self.generation = generation;
        self.text = splice.text;
        if let Some((len, lines)) = splice.rejoin {
            let item = &mut self.items[splice.old.end];
            (item.len, item.lines) = (len, lines);
        }
        self.items.splice(splice.old, splice.items);
        for (f, u) in splice.survivors {
            self.units[f.index()] = u;
        }
        for u in splice.added {
            self.ids
                .insert(u.name.clone(), FuncId::new(self.units.len()));
            self.units.push(u);
        }
        if let SourceDiff::Incremental {
            replaced,
            added,
            removed,
            ..
        } = &edit.diff
        {
            let module = &mut self.module;
            for (f, func) in replaced {
                module.replace_function(*f, func.clone());
            }
            for func in added {
                module.add_function(func.clone());
            }
            if !removed.is_empty() {
                module.remove_functions(removed);
                for f in removed {
                    self.ids.remove(&self.units[f.index()].name);
                }
                let mut i = 0;
                self.units.retain(|_| {
                    i += 1;
                    removed.binary_search(&FuncId::new(i - 1)).is_err()
                });
                for f in self.ids.values_mut() {
                    *f =
                        FuncId::new(f.index() - removed.partition_point(|r| r.index() < f.index()));
                }
            }
        }
        edit.diff
    }

    /// Re-parses the window of items the change touches and diffs it.
    /// `old_change` is the changed byte range of the current text;
    /// `new_end` is where that change ends in `text`.
    #[allow(clippy::too_many_lines)]
    fn prepare(
        &self,
        text: String,
        old_change: Range<usize>,
        new_end: usize,
    ) -> Result<PreparedEdit, CompileError> {
        // The first item the change touches, where it starts, and the
        // tokens, lines and globals before it.
        let (mut first, mut start, mut base, mut line, mut globals_before) = (0, 0, 0, 1, 0);
        while first < self.items.len() && start + self.items[first].len <= old_change.start {
            let item = &self.items[first];
            start += item.len;
            base += item.ntok;
            line += item.lines;
            globals_before += usize::from(item.unit.is_none());
            first += 1;
        }
        let rejoin = Rejoin::new(&self.items[first..], start, old_change.end, new_end);
        let window = Window::scan(&text, Cursor::at(&text, start, line), base, rejoin)?;
        let old = first..first + window.covered;
        // The window's old units by name, with their ids.
        let old_units: HashMap<&str, (usize, &Arc<Unit>)> = self.items[old.clone()]
            .iter()
            .filter_map(|it| it.unit.as_ref())
            .map(|u| (&*u.name, (self.ids[&u.name].index(), u)))
            .collect();
        let new = Parsed::from_window(window, |name| old_units.get(name).map(|&(_, u)| u));

        let old_globals = self.items[old.clone()]
            .iter()
            .filter(|it| it.unit.is_none())
            .count();
        if self.globals.list[globals_before..globals_before + old_globals] != new.globals[..] {
            // Global ids are positional and any unit may use them:
            // re-bind the registry in text order.
            let next = Self::new(&text)?;
            return Ok(PreparedEdit {
                diff: SourceDiff::FullRebuild {
                    module: next.module.clone(),
                },
                generation: self.generation,
                next: Next::Rebuild(Box::new(next)),
            });
        }

        // A name defined twice: within the window, or by the window
        // and an untouched unit.
        let mut seen = HashSet::with_capacity(new.units.len());
        if new.units.iter().any(|u| {
            !seen.insert(&*u.name)
                || (self.ids.contains_key(&u.name) && !old_units.contains_key(&*u.name))
        }) {
            return Err(self.first_duplicate(&old, &new.units));
        }

        // Pre-edit ids: survivors keep theirs, additions append in text
        // order.
        let old_nf = self.units.len();
        let mut sigs = PostEdit {
            units: &self.units,
            ids: &self.ids,
            by_name: HashMap::with_capacity(old_units.len() + new.units.len()),
            by_id: HashMap::with_capacity(old_units.len() + new.units.len()),
        };
        for (&name, &(id, _)) in &old_units {
            sigs.by_name.insert(name, (id, None));
            sigs.by_id.insert(id, None);
        }
        let mut num_added = 0;
        let mut pre_ids = Vec::with_capacity(new.units.len());
        for u in &new.units {
            let id = match old_units.get(&*u.name) {
                Some(&(id, _)) => id,
                None => {
                    num_added += 1;
                    old_nf + num_added - 1
                }
            };
            sigs.by_name.insert(&u.name, (id, Some(u)));
            sigs.by_id.insert(id, Some(u));
            pre_ids.push(id);
        }
        let removed: Vec<FuncId> = {
            let mut ids: Vec<FuncId> = sigs
                .by_name
                .values()
                .filter(|(_, u)| u.is_none())
                .map(|&(id, _)| FuncId::new(id))
                .collect();
            ids.sort_unstable();
            ids
        };

        // Environment = name → signature; a token-identical unit must
        // re-lower when any identifier it mentions changed entry.
        let mut retyped: HashSet<&str> = HashSet::new();
        for (&name, &(_, old_u)) in &old_units {
            match sigs.by_name[name].1 {
                Some(new_u) if new_u.same_signature(old_u) => {}
                _ => {
                    retyped.insert(name);
                }
            }
        }
        for u in &new.units {
            if !old_units.contains_key(&*u.name) {
                retyped.insert(&u.name);
            }
        }

        // What to (re-)lower, in text order: untouched units before the
        // window that mention a retyped name, the window's changed,
        // added or env-dirty units, then such untouched units after it.
        let untouched_dirty = |items: &[Item]| -> Result<Vec<(usize, FuncDecl)>, CompileError> {
            if retyped.is_empty() {
                return Ok(Vec::new());
            }
            items
                .iter()
                .filter_map(|it| it.unit.as_deref())
                .filter(|u| u.mentions(&retyped))
                .map(|u| Ok((self.ids[&u.name].index(), u.decl()?)))
                .collect()
        };
        let before = untouched_dirty(&self.items[..old.start])?;
        let after = untouched_dirty(&self.items[old.end..])?;
        let mut to_lower: Vec<(usize, &FuncDecl)> = before.iter().map(|(i, d)| (*i, d)).collect();
        for ((u, decl), &pre) in new.units.iter().zip(&new.decls).zip(&pre_ids) {
            // The window keeps the old unit exactly when the tokens
            // are the same.
            let relower = match old_units.get(&*u.name) {
                None => true,
                Some((_, old_u)) => !Arc::ptr_eq(old_u, u) || u.mentions(&retyped),
            };
            if relower {
                to_lower.push((pre, decl));
            }
        }
        to_lower.extend(after.iter().map(|(i, d)| (*i, d)));

        let mut lowered = Vec::with_capacity(to_lower.len());
        for &(pre, decl) in &to_lower {
            let mut func =
                lower_function(decl, &sigs, &self.globals.ids).map_err(CompileError::Lower)?;
            sra_ir::essa::run(&mut func);
            lowered.push((pre, func));
        }
        let mut replaced: Vec<(FuncId, Function)> = Vec::new();
        let mut added: Vec<Function> = Vec::new();
        for (pre, func) in lowered {
            verify_function_against(&func, &sigs).map_err(CompileError::Internal)?;
            if pre < old_nf {
                // A re-lowered survivor can come out identical (e.g. a
                // local rename): drop it so downstream reuse kicks in.
                if *self.module.function(FuncId::new(pre)) != func {
                    replaced.push((FuncId::new(pre), func));
                }
            } else {
                added.push(func);
            }
        }

        let relowered = to_lower.len();
        let unchanged = old_nf - removed.len() + num_added - relowered;
        let diff = if replaced.is_empty() && added.is_empty() && removed.is_empty() {
            SourceDiff::Noop
        } else {
            SourceDiff::Incremental {
                replaced,
                added,
                removed,
                unchanged,
                relowered,
            }
        };
        let rejoin = self.items.get(old.end).map(|it| {
            (
                it.len + new.stop.offset - new.end,
                it.lines + new.stop.line() - new.end_line,
            )
        });
        let mut survivors = Vec::new();
        let mut added_units = Vec::new();
        for (u, &pre) in new.units.iter().zip(&pre_ids) {
            if pre < old_nf {
                survivors.push((FuncId::new(pre), u.clone()));
            } else {
                added_units.push(u.clone());
            }
        }
        Ok(PreparedEdit {
            diff,
            generation: self.generation,
            next: Next::Splice(Splice {
                text,
                old,
                items: new.items,
                rejoin,
                survivors,
                added: added_units,
            }),
        })
    }

    /// The duplicate-function error a scratch compile reports when the
    /// window's `units` replace the old items `old`: the first unit, in
    /// text order, whose name an earlier unit already defines.
    fn first_duplicate(&self, old: &Range<usize>, units: &[Arc<Unit>]) -> CompileError {
        let mut seen = HashSet::new();
        let duplicate = unit_names(&self.items[..old.start])
            .chain(units.iter().map(|u| &*u.name))
            .chain(unit_names(&self.items[old.end..]))
            .find(|&name| !seen.insert(name))
            .unwrap_or_default();
        duplicate_function(duplicate)
    }

    /// Shadow validator: lowers the current text from scratch, binding
    /// names in **registry** order. Must equal [`Self::module`] — the
    /// id-stability contract the equivalence rails pin.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if the stored text no longer
    /// compiles (impossible unless the program was built by hand).
    pub fn full_relower(&self) -> Result<Module, CompileError> {
        let (parsed, globals) = Parsed::whole(&self.text)?;
        let slots = parsed
            .units
            .iter()
            .map(|u| {
                self.function_id(&u.name)
                    .map(FuncId::index)
                    .ok_or_else(|| internal_lower(&u.name))
            })
            .collect::<Result<Vec<_>, _>>()?;
        lower_ordered(&globals, &parsed.decls, &slots)
    }
}

/// The names of the functions among `items`.
fn unit_names(items: &[Item]) -> impl Iterator<Item = &str> {
    items
        .iter()
        .filter_map(|it| it.unit.as_deref())
        .map(|u| &*u.name)
}

fn duplicate_function(name: &str) -> CompileError {
    CompileError::Lower(LowerError {
        message: format!("duplicate function `{name}`"),
        func: Some(name.to_owned()),
    })
}

/// The signatures a re-lowered function sees after the edit, keyed by
/// name and by pre-edit id: the window's new units over the registry.
struct PostEdit<'a> {
    units: &'a [Arc<Unit>],
    ids: &'a HashMap<Arc<str>, FuncId>,
    /// Names the window defines or used to define, with their pre-edit
    /// id and new unit (`None`: removed).
    by_name: HashMap<&'a str, (usize, Option<&'a Unit>)>,
    /// The same, by pre-edit id.
    by_id: HashMap<usize, Option<&'a Unit>>,
}

impl Signatures for PostEdit<'_> {
    fn signature(&self, name: &str) -> Option<(usize, &[Ty], Option<Ty>)> {
        match self.by_name.get(name) {
            Some(&(id, Some(u))) => Some((id, &u.params, u.ret)),
            Some((_, None)) => None,
            None => self.ids.get(name).map(|f| {
                let u = &self.units[f.index()];
                (f.index(), u.params.as_slice(), u.ret)
            }),
        }
    }
}

impl CalleeSignatures for PostEdit<'_> {
    fn callee(&self, f: FuncId) -> Option<(&str, &[Ty], Option<Ty>)> {
        let u = match self.by_id.get(&f.index()) {
            Some(u) => (*u)?,
            None => self.units.get(f.index())?,
        };
        Some((&u.name, &u.params, u.ret))
    }
}

/// Byte length of the common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    const CHUNK: usize = 64;
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + CHUNK <= n && a[i..i + CHUNK] == b[i..i + CHUNK] {
        i += CHUNK;
    }
    i + a[i..n]
        .iter()
        .zip(&b[i..n])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Byte length of the common suffix of `a` and `b`.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    const CHUNK: usize = 64;
    let n = a.len().min(b.len());
    let (a, b) = (&a[a.len() - n..], &b[b.len() - n..]);
    let mut k = 0;
    while k + CHUNK <= n && a[n - k - CHUNK..n - k] == b[n - k - CHUNK..n - k] {
        k += CHUNK;
    }
    k + a[..n - k]
        .iter()
        .rev()
        .zip(b[..n - k].iter().rev())
        .take_while(|(x, y)| x == y)
        .count()
}

/// The offsets where re-lexing may rejoin the old items: the ends of
/// the old items at or past the change, shifted into the new text.
struct Rejoin<'a> {
    /// Old items from the window's first on.
    items: &'a [Item],
    /// The next candidate: an index into `items`, and its end in the
    /// new text.
    next: usize,
    end: usize,
    /// Candidates still to pass over before stopping at one.
    skip: usize,
}

impl<'a> Rejoin<'a> {
    /// The candidates for `items`, which start at `start`, when the
    /// change ends at `old_end` in the old text and at `new_end` in
    /// the new one.
    fn new(items: &'a [Item], start: usize, old_end: usize, new_end: usize) -> Self {
        let mut rejoin = Rejoin {
            items,
            next: 0,
            end: start + items.first().map_or(0, |it| it.len),
            skip: 0,
        };
        while rejoin.next < items.len() && rejoin.end < old_end {
            rejoin.pass();
        }
        if rejoin.next < items.len() {
            // From here on `end` is in new-text coordinates.
            rejoin.end = rejoin.end + new_end - old_end;
        }
        rejoin
    }

    fn pass(&mut self) {
        self.next += 1;
        if let Some(it) = self.items.get(self.next) {
            self.end += it.len;
        }
    }

    /// Whether lexing, between tokens at `offset`, stops here.
    fn hit(&mut self, offset: usize) -> bool {
        while self.next < self.items.len() && self.end < offset {
            self.pass();
        }
        if self.next < self.items.len() && self.end == offset {
            if self.skip == 0 {
                return true;
            }
            self.skip -= 1;
            self.pass();
        }
        false
    }
}

/// A stretch of the new text re-lexed and re-parsed from an item
/// boundary up to where it rejoins the old items.
struct Window {
    /// Where the window starts and where it rejoins the old items (or
    /// the text ends).
    start: Cursor,
    stop: Cursor,
    /// How many old items it replaces.
    covered: usize,
    lexed: Lexed,
    items: Vec<(TopItem, usize)>,
}

impl Window {
    /// Scans `text` from `start`, an item boundary `base` tokens in.
    fn scan(
        text: &str,
        start: Cursor,
        base: usize,
        mut rejoin: Rejoin,
    ) -> Result<Self, CompileError> {
        let mut lexed = Lexed::default();
        let mut stop =
            lex_until(text, start, &mut lexed, |i| rejoin.hit(i)).map_err(CompileError::Lex)?;
        let mut grow = 1;
        loop {
            let at_end = stop.offset == text.len();
            match parse_items(&lexed.tokens, &lexed.spans, base) {
                Ok(items) => {
                    let covered = if at_end {
                        rejoin.items.len()
                    } else {
                        rejoin.next + 1
                    };
                    return Ok(Window {
                        start,
                        stop,
                        covered,
                        lexed,
                        items,
                    });
                }
                // The parse ran out of tokens inside an item: rejoin
                // further on, passing twice as many item ends each
                // time.
                Err((_, true)) if !at_end => {
                    rejoin.pass();
                    rejoin.skip = grow - 1;
                    grow *= 2;
                    stop = lex_until(text, stop, &mut lexed, |i| rejoin.hit(i))
                        .map_err(CompileError::Lex)?;
                }
                Err((e, _)) => return Err(CompileError::Parse(e)),
            }
        }
    }
}

/// Parsed items, as registry items plus what lowering needs.
struct Parsed {
    items: Vec<Item>,
    /// The function items' units and declarations, in text order.
    units: Vec<Arc<Unit>>,
    decls: Vec<FuncDecl>,
    /// The global items, in text order.
    globals: Vec<(String, i64)>,
    /// Where the last item ends, and on which line.
    end: usize,
    end_line: u32,
    /// Where the window stopped.
    stop: Cursor,
}

impl Parsed {
    /// Parses all of `text` and checks that no name is defined twice:
    /// the checks of a scratch compile that precede lowering, in its
    /// order.
    fn whole(text: &str) -> Result<(Parsed, Globals), CompileError> {
        let window = Window::scan(text, Cursor::default(), 0, Rejoin::new(&[], 0, 0, 0))?;
        let mut parsed = Parsed::from_window(window, |_| None);
        let globals = Globals::new(std::mem::take(&mut parsed.globals))?;
        let mut seen = HashSet::with_capacity(parsed.units.len());
        if let Some(u) = parsed.units.iter().find(|u| !seen.insert(&*u.name)) {
            return Err(duplicate_function(&u.name));
        }
        Ok((parsed, globals))
    }

    /// The window's items; a function whose tokens equal those of the
    /// unit `old` gives for its name keeps that unit.
    fn from_window<'a>(w: Window, old: impl Fn(&str) -> Option<&'a Arc<Unit>>) -> Parsed {
        let mut parsed = Parsed {
            items: Vec::with_capacity(w.items.len()),
            units: Vec::new(),
            decls: Vec::new(),
            globals: Vec::new(),
            end: w.start.offset,
            end_line: w.start.line(),
            stop: w.stop,
        };
        let mut tok = 0;
        for (item, end_tok) in w.items {
            let end = w.lexed.ends[end_tok - 1];
            let line = w.lexed.spans[end_tok - 1].line;
            let unit = match item {
                TopItem::Global(name, size) => {
                    parsed.globals.push((name, size));
                    None
                }
                TopItem::Func(decl) => {
                    let tokens = &w.lexed.tokens[tok..end_tok];
                    let mut hasher = DefaultHasher::new();
                    tokens.hash(&mut hasher);
                    let hash = hasher.finish();
                    let unit = match old(&decl.name) {
                        Some(u) if u.hash == hash && u.tokens == tokens => u.clone(),
                        _ => Arc::new(Unit::new(&decl, tokens, hash)),
                    };
                    parsed.units.push(unit.clone());
                    parsed.decls.push(decl);
                    Some(unit)
                }
            };
            parsed.items.push(Item {
                len: end - parsed.end,
                ntok: end_tok - tok,
                lines: line - parsed.end_line,
                unit,
            });
            (tok, parsed.end, parsed.end_line) = (end_tok, end, line);
        }
        parsed
    }
}

/// Lowers `decls`, placing the `k`-th at id `slots[k]`, then runs
/// e-SSA and verifies.
fn lower_ordered(
    globals: &Globals,
    decls: &[FuncDecl],
    slots: &[usize],
) -> Result<Module, CompileError> {
    let mut module = Module::new();
    for (name, size) in &globals.list {
        module.add_global(name, *size);
    }
    let sigs: SigMap = decls
        .iter()
        .zip(slots)
        .map(|(f, &slot)| {
            let tys = f.params.iter().map(|(_, t)| *t).collect();
            (f.name.clone(), (slot, tys, f.ret))
        })
        .collect();
    let mut funcs: Vec<Option<Function>> = (0..decls.len()).map(|_| None).collect();
    for (f, &slot) in decls.iter().zip(slots) {
        let mut func = lower_function(f, &sigs, &globals.ids).map_err(CompileError::Lower)?;
        sra_ir::essa::run(&mut func);
        funcs[slot] = Some(func);
    }
    for func in funcs {
        module.add_function(func.expect("slots cover every function exactly once"));
    }
    sra_ir::verify::verify_module(&module).map_err(CompileError::Internal)?;
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = "\
        int helper(ptr p, int n) { int i; i = 0; while (i < n) { p[i] = i; i = i + 1; } return i; }\n\
        export int main() { ptr a; a = malloc(8); int r; r = helper(a, 8); return r; }\n";

    fn incremental(diff: &SourceDiff) -> (usize, usize, usize, usize) {
        match diff {
            SourceDiff::Incremental {
                replaced,
                added,
                removed,
                relowered,
                ..
            } => (replaced.len(), added.len(), removed.len(), *relowered),
            other => panic!("expected incremental diff, got {other:?}"),
        }
    }

    #[test]
    fn matches_batch_compile_initially() {
        let p = SourceProgram::new(BASE).unwrap();
        assert_eq!(p.module(), &crate::compile(BASE).unwrap());
        assert_eq!(p.module(), &p.full_relower().unwrap());
    }

    #[test]
    fn body_tweak_replaces_one_unit() {
        let mut p = SourceProgram::new(BASE).unwrap();
        let edited = BASE.replace("malloc(8)", "malloc(16)");
        let diff = p.apply_edit(&edited).unwrap();
        assert_eq!(incremental(&diff), (1, 0, 0, 1));
        let SourceDiff::Incremental { replaced, .. } = &diff else {
            unreachable!()
        };
        assert_eq!(replaced[0].0, p.function_id("main").unwrap());
        assert_eq!(p.module(), &p.full_relower().unwrap());
        assert_eq!(p.module(), &crate::compile(&edited).unwrap());
    }

    #[test]
    fn whitespace_comment_and_reorder_edits_are_noops() {
        let mut p = SourceProgram::new(BASE).unwrap();
        let before = p.module().clone();
        let spaced = BASE.replace(" { ", " {\n    /* noop */  ");
        assert!(matches!(p.apply_edit(&spaced).unwrap(), SourceDiff::Noop));
        // Pure reordering of functions in the text keeps registry ids.
        let mut lines: Vec<&str> = BASE.lines().collect();
        lines.reverse();
        let reordered = lines.join("\n");
        assert!(matches!(
            p.apply_edit(&reordered).unwrap(),
            SourceDiff::Noop
        ));
        assert_eq!(p.module(), &before);
        assert_eq!(p.module(), &p.full_relower().unwrap());
    }

    #[test]
    fn removal_flips_callers_to_external() {
        let mut p = SourceProgram::new(BASE).unwrap();
        let main_only =
            "export int main() { ptr a; a = malloc(8); int r; r = helper(a, 8); return r; }\n";
        let diff = p.apply_edit(main_only).unwrap();
        // helper removed; main re-lowered because `helper` flipped
        // internal → external.
        assert_eq!(incremental(&diff), (1, 0, 1, 1));
        assert_eq!(p.num_units(), 1);
        assert_eq!(p.function_id("main"), Some(FuncId::new(0)));
        let text = sra_ir::print_module(p.module());
        assert!(text.contains("call @helper!"), "external call:\n{text}");
        assert_eq!(p.module(), &p.full_relower().unwrap());

        // Re-adding helper flips main back to an internal call, with
        // helper appended after main in the registry.
        let diff = p.apply_edit(BASE).unwrap();
        assert_eq!(incremental(&diff), (1, 1, 0, 2));
        assert_eq!(p.function_id("main"), Some(FuncId::new(0)));
        assert_eq!(p.function_id("helper"), Some(FuncId::new(1)));
        assert_eq!(p.module(), &p.full_relower().unwrap());
    }

    #[test]
    fn signature_change_rewrites_callers_atomically() {
        let mut p = SourceProgram::new(BASE).unwrap();
        let edited = BASE
            .replace(
                "int helper(ptr p, int n)",
                "int helper(ptr p, int n, int step)",
            )
            .replace("helper(a, 8)", "helper(a, 8, 1)");
        let diff = p.apply_edit(&edited).unwrap();
        // Both units re-lowered in one diff: helper's tokens changed,
        // main is env-dirty.
        assert_eq!(incremental(&diff), (2, 0, 0, 2));
        assert_eq!(p.module(), &p.full_relower().unwrap());
        assert_eq!(p.module(), &crate::compile(&edited).unwrap());
    }

    #[test]
    fn global_change_is_full_rebuild() {
        let text = format!("int tab[4];\n{BASE}");
        let mut p = SourceProgram::new(&text).unwrap();
        let grown = format!("int tab[8];\n{BASE}");
        let diff = p.apply_edit(&grown).unwrap();
        assert!(matches!(diff, SourceDiff::FullRebuild { .. }));
        assert_eq!(p.module(), &crate::compile(&grown).unwrap());
    }

    #[test]
    fn failed_edit_leaves_program_untouched() {
        let mut p = SourceProgram::new(BASE).unwrap();
        let before = p.module().clone();
        let text_before = p.text().to_owned();
        assert!(p.apply_edit("export int main() { return x; }").is_err());
        assert!(p.apply_edit("int f( {").is_err());
        assert!(p.apply_edit("int f() $ {}").is_err());
        assert_eq!(p.module(), &before);
        assert_eq!(p.text(), text_before);
    }

    #[test]
    fn opening_a_comment_is_an_error_not_a_removal() {
        let text = "int f(int n) { return n; }\nexport int main() { return f(1); }\n";
        let mut p = SourceProgram::new(text).unwrap();
        let at = text.find("export").unwrap();
        let err = p.apply_splice(at..at, "/* ").unwrap_err();
        let CompileError::Lex(e) = &err else {
            panic!("expected a lex error, got {err:?}")
        };
        assert_eq!((e.offset, e.span.line, e.span.col), (at, 2, 1));
        assert_eq!(
            Some(err),
            SourceProgram::new(&text.replace("export", "/* export")).err()
        );
        assert_eq!(p.text(), text);
        // Closing it again swallows `main` whole: a removal.
        let diff = p.apply_splice(at..at, "/* */").unwrap();
        assert!(matches!(diff, SourceDiff::Noop));
        let end = p.text().len();
        let diff = p.apply_splice(at..end, "/* export int main() { return f(1); } */\n");
        assert_eq!(incremental(&diff.unwrap()), (0, 0, 1, 0));
        assert_eq!(p.module(), &p.full_relower().unwrap());
    }

    #[test]
    fn splice_matches_whole_text_edit() {
        let mut whole = SourceProgram::new(BASE).unwrap();
        let mut spliced = whole.clone();
        let at = BASE.find("malloc(8)").unwrap() + "malloc(".len();
        let edited = BASE.replacen("malloc(8)", "malloc(16)", 1);
        let a = whole.apply_edit(&edited).unwrap();
        let b = spliced.apply_splice(at..at + 1, "16").unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(
            (whole.text(), whole.module()),
            (spliced.text(), spliced.module())
        );
        // A splice that re-parses the whole text changes nothing more.
        let len = spliced.text().len();
        let c = spliced.apply_splice(0..len, &edited).unwrap();
        assert!(matches!(c, SourceDiff::Noop));
        assert_eq!(spliced.module(), whole.module());
    }

    #[test]
    fn prepared_edit_applies_only_on_commit() {
        let mut p = SourceProgram::new(BASE).unwrap();
        let edited = BASE.replace("malloc(8)", "malloc(16)");
        let edit = p.prepare_edit(&edited).unwrap();
        assert!(matches!(edit.diff(), SourceDiff::Incremental { .. }));
        assert_eq!(p.text(), BASE);
        let diff = p.commit(edit);
        assert_eq!(incremental(&diff), (1, 0, 0, 1));
        assert_eq!(p.text(), edited);
        assert_eq!(p.module(), &crate::compile(&edited).unwrap());
    }

    #[test]
    #[should_panic(expected = "different state")]
    fn stale_prepared_edit_is_refused() {
        let mut p = SourceProgram::new(BASE).unwrap();
        let stale = p
            .prepare_edit(&BASE.replace("malloc(8)", "malloc(16)"))
            .unwrap();
        p.apply_edit(&BASE.replace("malloc(8)", "malloc(32)"))
            .unwrap();
        p.commit(stale);
    }

    #[test]
    fn duplicate_names_are_structured_errors() {
        assert!(matches!(
            SourceProgram::new("int f() { return 0; } int f() { return 1; }"),
            Err(CompileError::Lower(_))
        ));
        assert!(matches!(
            SourceProgram::new("int t[1]; int t[2]; int f() { return 0; }"),
            Err(CompileError::Lower(_))
        ));
    }
}
