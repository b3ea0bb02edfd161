//! Hash-consing of symbolic expressions: the [`ExprArena`].
//!
//! The arena is the canonical representation of the analysis stack:
//! every expression, interval endpoint and interval the analyses build
//! lives here as an interned node, addressed by a dense, `Copy` handle
//! ([`ExprId`], [`BoundId`], [`RangeId`]). Node storage is arena-owned:
//! an unresolved `min`/`max`/`div`/`mod` atom stores the *ids* of its
//! child expressions, never a `Box<SymExpr>`, so
//!
//! * structural equality is an integer compare (`O(1)`),
//! * every lattice operation (`add`/`sub`/`mul`/`min`/`max`/`div`/
//!   `rem`, order queries, and range `join`/`meet`/`widen`) is memoised
//!   by id pair — each distinct computation happens exactly once,
//! * interval disjointness — the single hottest operation of the alias
//!   tests — reduces to two memoised endpoint comparisons
//!   ([`ExprArena::ranges_disjoint`]),
//! * moving analysis state between arenas (per-function part arenas →
//!   one module arena, or an incremental session carrying a function's
//!   states out of the previous module arena onto a shifted symbol
//!   block) is a structure-driven *import*
//!   ([`ExprArena::import_range`]) with a per-source translation table:
//!   each distinct expression crosses the boundary once.
//!
//! The boxed [`SymExpr`] value type remains the boundary representation
//! (construction from the front end, the concrete-evaluation oracle,
//! display); [`ExprArena::intern`] and [`ExprArena::expr_value`] convert
//! both ways. Every memoised operation answers exactly like the
//! corresponding `SymExpr`/[`SymRange`] operation — on a memo miss the
//! arena delegates to the value-level algorithm and interns the result,
//! so behavioural identity is by construction, and the equivalence
//! property tests in the workspace pin it.
//!
//! # Overlays
//!
//! Parallel phases (GR wave levels, per-function alias-matrix builds)
//! need to intern while sharing one arena. An *overlay*
//! ([`ExprArena::with_base`]) layers a private, mutable arena over a
//! frozen shared base: reads fall through to the base, new nodes and
//! memo entries land in the overlay. A worker's overlay either dies
//! with the task (matrix builds: verdict bytes carry no ids) or is
//! merged back deterministically ([`ExprArena::adopt`]) after the
//! parallel region, translating overlay ids onto freshly interned base
//! ids — which is what keeps the wave schedule byte-identical to the
//! serial one.
//!
//! # Examples
//!
//! ```
//! use sra_symbolic::{ExprArena, SymExpr, Symbol};
//!
//! let mut arena = ExprArena::new();
//! let n = SymExpr::from(Symbol::new(0));
//! let a = arena.intern(&(n.clone() + 1.into()));
//! let b = arena.intern(&(SymExpr::from(1) + n.clone()));
//! assert_eq!(a, b); // structural equality is id equality
//! let z = arena.intern(&n);
//! assert_eq!(arena.try_le(z, a), Some(true)); // memoised after this
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::bound::Bound;
use crate::expr::{Atom, SymExpr, MAX_EXPR_ATOMS};
use crate::pool::WorkerPool;
use crate::range::SymRange;
use crate::symbol::{Symbol, SymbolNames};

/// A fast, non-cryptographic hasher (the `rustc-hash`/Firefox "fx"
/// multiply-rotate scheme). The interning maps hash node keys on every
/// lookup; SipHash's per-byte cost dominates small functions' matrix
/// builds, while fx is a handful of cycles per word. Not DoS-resistant
/// — fine for analysis-internal keys.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.add(i as u64);
    }

    #[inline]
    fn write_i128(&mut self, i: i128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A dense handle to an interned [`SymExpr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(u32);

impl ExprId {
    /// The raw index into the arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned interval endpoint: [`Bound`] with the finite expression
/// replaced by its [`ExprId`]. `Copy`, hashable, `O(1)` to compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BoundId {
    /// `−∞`.
    NegInf,
    /// A finite interned expression.
    Fin(ExprId),
    /// `+∞`.
    PosInf,
}

/// Former name of [`BoundId`], kept so call sites migrate gradually.
pub type BoundRef = BoundId;

/// A dense handle to an interned [`SymRange`]. `Copy`, hashable,
/// `O(1)` to compare; [`ExprArena::EMPTY_RANGE`] and
/// [`ExprArena::TOP_RANGE`] are pre-interned with the same id in every
/// arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RangeId(u32);

impl RangeId {
    /// The raw index into the arena's range table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Arena-owned atom storage: like [`Atom`], but children are ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum NodeAtom {
    Sym(Symbol),
    Min(ExprId, ExprId),
    Max(ExprId, ExprId),
    Div(ExprId, ExprId),
    Mod(ExprId, ExprId),
}

/// One interned expression in canonical affine form: `constant +
/// Σ coeffᵢ·termᵢ`, terms in the value type's canonical order, each
/// term a sorted atom product. Children of `min`/`max`/`div`/`mod`
/// atoms are ids into the same arena (interned bottom-up, so equal
/// sub-expressions share one node).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ExprNode {
    constant: i128,
    terms: Box<[(Box<[NodeAtom]>, i128)]>,
}

/// One interned range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RangeNode {
    Empty,
    Interval(BoundId, BoundId),
}

/// Hit/miss counters of one memoised operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Answers served from the memo table.
    pub hits: u64,
    /// First-time computations.
    pub misses: u64,
}

impl OpStats {
    fn merge(&mut self, o: &OpStats) {
        self.hits += o.hits;
        self.misses += o.misses;
    }
}

/// Cache-effectiveness counters (exposed for benches, the evaluation
/// harness and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Distinct expressions interned.
    pub exprs: usize,
    /// Distinct ranges interned.
    pub ranges: usize,
    /// Memo hits summed across all memoised operations.
    pub hits: u64,
    /// Memo misses summed across all memoised operations.
    pub misses: u64,
    /// Approximate heap bytes held by nodes, tables and memos.
    pub bytes: usize,
    /// Per-operation hit/miss breakdown, in a fixed order:
    /// `le, lt, min, max, add, sub, neg, mul, div, rem, join, meet,
    /// widen, range_le`.
    pub per_op: [(&'static str, OpStats); 14],
}

impl ArenaStats {
    /// Adds another arena's counters into this one (the harness sums
    /// the per-analysis module arenas).
    pub fn merge(&mut self, other: &ArenaStats) {
        self.exprs += other.exprs;
        self.ranges += other.ranges;
        self.hits += other.hits;
        self.misses += other.misses;
        self.bytes += other.bytes;
        for (mine, theirs) in self.per_op.iter_mut().zip(other.per_op.iter()) {
            debug_assert_eq!(mine.0, theirs.0);
            mine.1.merge(&theirs.1);
        }
    }
}

/// The default carries the canonical per-op name table (so merging
/// into a default-initialized accumulator lines the counters up).
impl Default for ArenaStats {
    fn default() -> Self {
        let mut per_op = [("", OpStats::default()); 14];
        for (i, name) in OP_NAMES.iter().enumerate() {
            per_op[i] = (*name, OpStats::default());
        }
        ArenaStats {
            exprs: 0,
            ranges: 0,
            hits: 0,
            misses: 0,
            bytes: 0,
            per_op,
        }
    }
}

/// A per-source-arena translation table for [`ExprArena::import_expr`]
/// and friends: each distinct source id is imported once, repeats are
/// table hits.
#[derive(Debug, Default)]
pub struct ImportMap {
    exprs: FxHashMap<ExprId, ExprId>,
    ranges: FxHashMap<RangeId, RangeId>,
}

/// Like [`ImportMap`], for the fallible import used by incremental
/// sessions (a cached state may mention a re-minted symbol block with
/// no counterpart; such imports answer `None`).
#[derive(Debug, Default)]
pub struct TryImportMap {
    exprs: FxHashMap<ExprId, Option<ExprId>>,
    ranges: FxHashMap<RangeId, Option<RangeId>>,
}

/// One atom of a dumped expression node (see
/// [`ExprArena::export_raw`]): like the internal atom storage, but with
/// raw `u32` indices instead of typed ids so a snapshot codec can write
/// it without reaching into arena internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawAtom {
    /// A kernel symbol, by index.
    Sym(u32),
    /// `min(e, e)` over two earlier dump positions.
    Min(u32, u32),
    /// `max(e, e)` over two earlier dump positions.
    Max(u32, u32),
    /// Opaque division over two earlier dump positions.
    Div(u32, u32),
    /// Opaque remainder over two earlier dump positions.
    Mod(u32, u32),
}

/// One dumped expression node in canonical affine form: `constant +
/// Σ coeffᵢ·termᵢ`, in the arena's stored order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawExprNode {
    /// The constant part of the affine form.
    pub constant: i128,
    /// The terms: each a sorted atom product with its coefficient.
    pub terms: Vec<(Vec<RawAtom>, i128)>,
}

/// One dumped interval endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawBound {
    /// `−∞`.
    NegInf,
    /// A finite expression, by dump position.
    Fin(u32),
    /// `+∞`.
    PosInf,
}

/// One dumped range node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawRangeNode {
    /// The empty range `∅`.
    Empty,
    /// An interval with interned endpoints.
    Interval(RawBound, RawBound),
}

/// Validation failure rebuilding an arena from a dump
/// ([`ExprArena::from_raw`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawArenaError {
    /// A node referenced a child at or beyond its own dump position
    /// (the dump must be topological, children first).
    ForwardReference,
    /// Re-interning a dumped node produced a different id than its
    /// stored position — the dump held duplicate or non-canonical
    /// nodes and cannot come from [`ExprArena::export_raw`].
    NonCanonical,
    /// The pre-interned `∅`/`⊤` range slots were missing or wrong.
    BadPrelude,
}

impl std::fmt::Display for RawArenaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RawArenaError::ForwardReference => "arena dump references a later node",
            RawArenaError::NonCanonical => "arena dump holds duplicate or non-canonical nodes",
            RawArenaError::BadPrelude => "arena dump is missing the pre-interned range slots",
        };
        write!(f, "{}", s)
    }
}

impl std::error::Error for RawArenaError {}

/// The detachable local half of an overlay arena (see
/// [`ExprArena::with_base`]): the nodes and ranges the overlay added on
/// top of its base, in topological (children-first) intern order.
#[derive(Debug)]
pub struct OverlayPart {
    base_exprs: u32,
    base_ranges: u32,
    nodes: Vec<ExprNode>,
    range_nodes: Vec<RangeNode>,
}

/// The id translation produced by [`ExprArena::adopt`]: maps an
/// overlay's ids onto the adopting arena's ids (base ids are identity).
#[derive(Debug)]
pub struct OverlayXlate {
    base_exprs: u32,
    base_ranges: u32,
    exprs: Vec<ExprId>,
    ranges: Vec<RangeId>,
}

impl OverlayXlate {
    /// Translates an overlay-space expression id.
    pub fn expr(&self, id: ExprId) -> ExprId {
        if id.0 < self.base_exprs {
            id
        } else {
            self.exprs[(id.0 - self.base_exprs) as usize]
        }
    }

    /// Translates an overlay-space range id.
    pub fn range(&self, id: RangeId) -> RangeId {
        if id.0 < self.base_ranges {
            id
        } else {
            self.ranges[(id.0 - self.base_ranges) as usize]
        }
    }
}

/// A hash-consing arena for symbolic expressions, interval endpoints
/// and intervals, with memoised comparison, arithmetic and lattice
/// operations.
///
/// Not shared mutably between threads: parallel phases give each worker
/// an overlay ([`ExprArena::with_base`]) over a frozen shared arena,
/// which keeps the results deterministic (caches only skip
/// recomputation, they never change an answer) without any locking on
/// the hot path.
#[derive(Debug, Clone)]
pub struct ExprArena {
    /// The frozen base of an overlay (`None` for a root arena; a base
    /// is always itself baseless).
    base: Option<Arc<ExprArena>>,
    /// Expression ids below this belong to the base.
    base_exprs: u32,
    /// Range ids below this belong to the base.
    base_ranges: u32,
    nodes: Vec<ExprNode>,
    /// Total atom count per node (the value type's `size()` measure),
    /// aligned with `nodes`.
    sizes: Vec<u32>,
    index: FxHashMap<ExprNode, ExprId>,
    range_nodes: Vec<RangeNode>,
    range_index: FxHashMap<RangeNode, RangeId>,
    le_memo: FxHashMap<(ExprId, ExprId), Option<bool>>,
    lt_memo: FxHashMap<(ExprId, ExprId), Option<bool>>,
    min_memo: FxHashMap<(ExprId, ExprId), ExprId>,
    max_memo: FxHashMap<(ExprId, ExprId), ExprId>,
    add_memo: FxHashMap<(ExprId, ExprId), ExprId>,
    sub_memo: FxHashMap<(ExprId, ExprId), ExprId>,
    neg_memo: FxHashMap<ExprId, ExprId>,
    mul_memo: FxHashMap<(ExprId, ExprId), ExprId>,
    div_memo: FxHashMap<(ExprId, ExprId), ExprId>,
    rem_memo: FxHashMap<(ExprId, ExprId), ExprId>,
    join_memo: FxHashMap<(RangeId, RangeId), RangeId>,
    meet_memo: FxHashMap<(RangeId, RangeId), RangeId>,
    widen_memo: FxHashMap<(RangeId, RangeId), RangeId>,
    range_le_memo: FxHashMap<(RangeId, RangeId), bool>,
    ops: [OpStats; 14],
}

/// Indices into the per-op counter array.
const OP_LE: usize = 0;
const OP_LT: usize = 1;
const OP_MIN: usize = 2;
const OP_MAX: usize = 3;
const OP_ADD: usize = 4;
const OP_SUB: usize = 5;
const OP_NEG: usize = 6;
const OP_MUL: usize = 7;
const OP_DIV: usize = 8;
const OP_REM: usize = 9;
const OP_JOIN: usize = 10;
const OP_MEET: usize = 11;
const OP_WIDEN: usize = 12;
const OP_RANGE_LE: usize = 13;
const OP_NAMES: [&str; 14] = [
    "le", "lt", "min", "max", "add", "sub", "neg", "mul", "div", "rem", "join", "meet", "widen",
    "range_le",
];

impl Default for ExprArena {
    fn default() -> Self {
        Self::new()
    }
}

impl ExprArena {
    /// The pre-interned empty range `∅` — the same id in every arena.
    pub const EMPTY_RANGE: RangeId = RangeId(0);
    /// The pre-interned full range `[−∞, +∞]` — the same id in every
    /// arena.
    pub const TOP_RANGE: RangeId = RangeId(1);

    /// Creates an empty arena (with `∅` and `[−∞, +∞]` pre-interned).
    pub fn new() -> Self {
        let mut a = Self::new_empty_tables();
        let empty = a.intern_range_node(RangeNode::Empty);
        debug_assert_eq!(empty, Self::EMPTY_RANGE);
        let top = a.intern_range_node(RangeNode::Interval(BoundId::NegInf, BoundId::PosInf));
        debug_assert_eq!(top, Self::TOP_RANGE);
        a
    }

    /// Creates an overlay over a frozen `base` arena: reads (nodes,
    /// memo entries, intern lookups) fall through to the base, writes
    /// land privately. Merge the additions back with
    /// [`ExprArena::adopt`], or drop the overlay when no id escapes
    /// (per-matrix comparison caches).
    ///
    /// # Panics
    ///
    /// Panics when `base` is itself an overlay (bases are one level
    /// deep by construction).
    pub fn with_base(base: Arc<ExprArena>) -> Self {
        assert!(base.base.is_none(), "overlay bases must be root arenas");
        let base_exprs = base.nodes.len() as u32;
        let base_ranges = base.range_nodes.len() as u32;
        ExprArena {
            base: Some(base),
            base_exprs,
            base_ranges,
            ..ExprArena::new_empty_tables()
        }
    }

    fn new_empty_tables() -> Self {
        ExprArena {
            base: None,
            base_exprs: 0,
            base_ranges: 0,
            nodes: Vec::new(),
            sizes: Vec::new(),
            index: FxHashMap::default(),
            range_nodes: Vec::new(),
            range_index: FxHashMap::default(),
            le_memo: FxHashMap::default(),
            lt_memo: FxHashMap::default(),
            min_memo: FxHashMap::default(),
            max_memo: FxHashMap::default(),
            add_memo: FxHashMap::default(),
            sub_memo: FxHashMap::default(),
            neg_memo: FxHashMap::default(),
            mul_memo: FxHashMap::default(),
            div_memo: FxHashMap::default(),
            rem_memo: FxHashMap::default(),
            join_memo: FxHashMap::default(),
            meet_memo: FxHashMap::default(),
            widen_memo: FxHashMap::default(),
            range_le_memo: FxHashMap::default(),
            ops: [OpStats::default(); 14],
        }
    }

    /// Detaches an overlay's local additions (releasing its handle on
    /// the base, so the base `Arc` can be unwrapped for the merge).
    pub fn into_overlay_part(self) -> OverlayPart {
        OverlayPart {
            base_exprs: self.base_exprs,
            base_ranges: self.base_ranges,
            nodes: self.nodes,
            range_nodes: self.range_nodes,
        }
    }

    /// Merges an overlay's additions into this arena (which must be the
    /// overlay's base), returning the id translation for any state that
    /// captured overlay ids. Deterministic: nodes are adopted in the
    /// overlay's intern order, so merging overlays in a fixed order
    /// produces a schedule-independent arena.
    ///
    /// # Panics
    ///
    /// Panics when the overlay was not layered over this arena's
    /// current contents.
    pub fn adopt(&mut self, part: OverlayPart) -> OverlayXlate {
        assert!(self.base.is_none(), "adopt into a root arena");
        assert!(
            part.base_exprs as usize <= self.nodes.len()
                && part.base_ranges as usize <= self.range_nodes.len(),
            "overlay base does not match the adopting arena"
        );
        let mut xlate = OverlayXlate {
            base_exprs: part.base_exprs,
            base_ranges: part.base_ranges,
            exprs: Vec::with_capacity(part.nodes.len()),
            ranges: Vec::with_capacity(part.range_nodes.len()),
        };
        // Local nodes are topologically ordered (children interned
        // before parents), so one linear pass suffices.
        for node in part.nodes {
            let remap = |id: ExprId, xl: &OverlayXlate| xl.expr(id);
            let terms = node
                .terms
                .iter()
                .map(|(atoms, c)| {
                    let atoms = atoms
                        .iter()
                        .map(|a| match *a {
                            NodeAtom::Sym(s) => NodeAtom::Sym(s),
                            NodeAtom::Min(x, y) => {
                                NodeAtom::Min(remap(x, &xlate), remap(y, &xlate))
                            }
                            NodeAtom::Max(x, y) => {
                                NodeAtom::Max(remap(x, &xlate), remap(y, &xlate))
                            }
                            NodeAtom::Div(x, y) => {
                                NodeAtom::Div(remap(x, &xlate), remap(y, &xlate))
                            }
                            NodeAtom::Mod(x, y) => {
                                NodeAtom::Mod(remap(x, &xlate), remap(y, &xlate))
                            }
                        })
                        .collect();
                    (atoms, *c)
                })
                .collect();
            let id = self.intern_node(ExprNode {
                constant: node.constant,
                terms,
            });
            xlate.exprs.push(id);
        }
        for rn in part.range_nodes {
            let remap_bound = |b: BoundId, xl: &OverlayXlate| match b {
                BoundId::Fin(e) => BoundId::Fin(xl.expr(e)),
                inf => inf,
            };
            let rn = match rn {
                RangeNode::Empty => RangeNode::Empty,
                RangeNode::Interval(lo, hi) => {
                    RangeNode::Interval(remap_bound(lo, &xlate), remap_bound(hi, &xlate))
                }
            };
            let id = self.intern_range_node(rn);
            xlate.ranges.push(id);
        }
        xlate
    }

    /// Runs `import(0, _), …, import(n-1, _)` into one fresh root arena,
    /// fanned out on `pool`: each job imports into a private overlay over
    /// a shared frozen empty arena, the overlays are adopted in item
    /// order, and `relabel` moves each item's ids into the merged arena.
    /// Byte-identical to the serial walk, because [`ExprArena::adopt`]
    /// dedups what items `0..k` added and appends item `k`'s new nodes
    /// in its intern order. A width-1 pool runs the serial walk (the
    /// fan-out interns each item twice).
    pub fn assemble_on<T: Send>(
        n: usize,
        pool: &WorkerPool,
        import: impl Fn(usize, &mut ExprArena) -> T + Sync,
        relabel: impl Fn(&mut T, &OverlayXlate),
    ) -> (ExprArena, Vec<T>) {
        let mut arena = ExprArena::new();
        if pool.threads() == 1 || n <= 1 {
            let items = (0..n).map(|i| import(i, &mut arena)).collect();
            return (arena, items);
        }
        let empty = Arc::new(ExprArena::new());
        let imported = pool.run_indexed(n, |i| {
            let mut overlay = ExprArena::with_base(Arc::clone(&empty));
            let item = import(i, &mut overlay);
            (item, overlay.into_overlay_part())
        });
        let items = imported
            .into_iter()
            .map(|(mut item, overlay)| {
                relabel(&mut item, &arena.adopt(overlay));
                item
            })
            .collect();
        (arena, items)
    }

    // ------------------------------------------------------------------
    // Node access (base-aware).
    // ------------------------------------------------------------------

    fn node(&self, id: ExprId) -> &ExprNode {
        if id.0 < self.base_exprs {
            &self.base.as_ref().expect("overlay has base").nodes[id.index()]
        } else {
            &self.nodes[(id.0 - self.base_exprs) as usize]
        }
    }

    fn size_of(&self, id: ExprId) -> u32 {
        if id.0 < self.base_exprs {
            self.base.as_ref().expect("overlay has base").sizes[id.index()]
        } else {
            self.sizes[(id.0 - self.base_exprs) as usize]
        }
    }

    fn range_node(&self, id: RangeId) -> RangeNode {
        if id.0 < self.base_ranges {
            self.base.as_ref().expect("overlay has base").range_nodes[id.index()]
        } else {
            self.range_nodes[(id.0 - self.base_ranges) as usize]
        }
    }

    fn intern_node(&mut self, node: ExprNode) -> ExprId {
        if let Some(base) = &self.base {
            if let Some(&id) = base.index.get(&node) {
                return id;
            }
        }
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let size: u32 = node
            .terms
            .iter()
            .map(|(atoms, _)| {
                atoms
                    .iter()
                    .map(|a| match *a {
                        NodeAtom::Sym(_) => 1u32,
                        NodeAtom::Min(x, y)
                        | NodeAtom::Max(x, y)
                        | NodeAtom::Div(x, y)
                        | NodeAtom::Mod(x, y) => 1u32
                            .saturating_add(self.size_of(x))
                            .saturating_add(self.size_of(y)),
                    })
                    .fold(0u32, u32::saturating_add)
            })
            .fold(0u32, u32::saturating_add);
        let id = ExprId(self.base_exprs + self.nodes.len() as u32);
        self.nodes.push(node.clone());
        self.sizes.push(size);
        self.index.insert(node, id);
        id
    }

    fn intern_range_node(&mut self, node: RangeNode) -> RangeId {
        if let Some(base) = &self.base {
            if let Some(&id) = base.range_index.get(&node) {
                return id;
            }
        }
        if let Some(&id) = self.range_index.get(&node) {
            return id;
        }
        let id = RangeId(self.base_ranges + self.range_nodes.len() as u32);
        self.range_nodes.push(node);
        self.range_index.insert(node, id);
        id
    }

    // ------------------------------------------------------------------
    // Value ↔ id conversion.
    // ------------------------------------------------------------------

    /// Interns `e`, returning the id of the canonical copy. Equal
    /// expressions always receive equal ids.
    pub fn intern(&mut self, e: &SymExpr) -> ExprId {
        let terms: Box<[(Box<[NodeAtom]>, i128)]> = e
            .terms_view()
            .map(|(atoms, c)| {
                let atoms: Box<[NodeAtom]> = atoms.iter().map(|a| self.intern_atom(a)).collect();
                (atoms, c)
            })
            .collect();
        self.intern_node(ExprNode {
            constant: e.as_constant_part(),
            terms,
        })
    }

    fn intern_atom(&mut self, a: &Atom) -> NodeAtom {
        match a {
            Atom::Sym(s) => NodeAtom::Sym(*s),
            Atom::Min(x, y) => NodeAtom::Min(self.intern(x), self.intern(y)),
            Atom::Max(x, y) => NodeAtom::Max(self.intern(x), self.intern(y)),
            Atom::Div(x, y) => NodeAtom::Div(self.intern(x), self.intern(y)),
            Atom::Mod(x, y) => NodeAtom::Mod(self.intern(x), self.intern(y)),
        }
    }

    /// Reconstructs the [`SymExpr`] behind a handle. The result is
    /// exactly the expression that was interned (node storage preserves
    /// the canonical term and argument order), so round-tripping is the
    /// identity.
    pub fn expr_value(&self, id: ExprId) -> SymExpr {
        let node = self.node(id);
        SymExpr::from_raw_parts(
            node.constant,
            node.terms.iter().map(|(atoms, c)| {
                (
                    atoms
                        .iter()
                        .map(|a| self.atom_value(*a))
                        .collect::<Vec<_>>(),
                    *c,
                )
            }),
        )
    }

    fn atom_value(&self, a: NodeAtom) -> Atom {
        match a {
            NodeAtom::Sym(s) => Atom::Sym(s),
            NodeAtom::Min(x, y) => {
                Atom::Min(Box::new(self.expr_value(x)), Box::new(self.expr_value(y)))
            }
            NodeAtom::Max(x, y) => {
                Atom::Max(Box::new(self.expr_value(x)), Box::new(self.expr_value(y)))
            }
            NodeAtom::Div(x, y) => {
                Atom::Div(Box::new(self.expr_value(x)), Box::new(self.expr_value(y)))
            }
            NodeAtom::Mod(x, y) => {
                Atom::Mod(Box::new(self.expr_value(x)), Box::new(self.expr_value(y)))
            }
        }
    }

    /// Interns both endpoints of a bound.
    pub fn intern_bound(&mut self, b: &Bound) -> BoundId {
        match b {
            Bound::NegInf => BoundId::NegInf,
            Bound::PosInf => BoundId::PosInf,
            Bound::Fin(e) => BoundId::Fin(self.intern(e)),
        }
    }

    /// Reconstructs the [`Bound`] behind a handle.
    pub fn bound_value(&self, b: BoundId) -> Bound {
        match b {
            BoundId::NegInf => Bound::NegInf,
            BoundId::PosInf => Bound::PosInf,
            BoundId::Fin(e) => Bound::Fin(self.expr_value(e)),
        }
    }

    /// Interns a range endpoint-wise (preserving its exact shape: no
    /// normalization is applied here).
    pub fn intern_range(&mut self, r: &SymRange) -> RangeId {
        match r {
            SymRange::Empty => Self::EMPTY_RANGE,
            SymRange::Interval { lo, hi } => {
                let lo = self.intern_bound(lo);
                let hi = self.intern_bound(hi);
                self.intern_range_node(RangeNode::Interval(lo, hi))
            }
        }
    }

    /// Reconstructs the [`SymRange`] behind a handle.
    pub fn range_value(&self, r: RangeId) -> SymRange {
        match self.range_node(r) {
            RangeNode::Empty => SymRange::Empty,
            RangeNode::Interval(lo, hi) => SymRange::Interval {
                lo: self.bound_value(lo),
                hi: self.bound_value(hi),
            },
        }
    }

    // ------------------------------------------------------------------
    // Raw snapshot export / import (persistence).
    // ------------------------------------------------------------------

    /// Dumps the node tables in stored (topological, children-first)
    /// order for snapshot serialization. Child references are raw
    /// indices into the same dump; [`ExprArena::from_raw`] re-interns
    /// the dump in order and reproduces every id verbatim, so analysis
    /// state that captured [`ExprId`]/[`RangeId`] handles stays valid
    /// across a save/load round trip. Memo tables are not exported —
    /// they are pure caches and restart empty.
    ///
    /// # Panics
    ///
    /// Panics on an overlay arena — only root arenas are persisted.
    pub fn export_raw(&self) -> (Vec<RawExprNode>, Vec<RawRangeNode>) {
        assert!(self.base.is_none(), "export_raw requires a root arena");
        let raw_bound = |b: BoundId| match b {
            BoundId::NegInf => RawBound::NegInf,
            BoundId::PosInf => RawBound::PosInf,
            BoundId::Fin(e) => RawBound::Fin(e.0),
        };
        let exprs = self
            .nodes
            .iter()
            .map(|node| RawExprNode {
                constant: node.constant,
                terms: node
                    .terms
                    .iter()
                    .map(|(atoms, c)| {
                        let atoms = atoms
                            .iter()
                            .map(|a| match *a {
                                NodeAtom::Sym(s) => RawAtom::Sym(s.index()),
                                NodeAtom::Min(x, y) => RawAtom::Min(x.0, y.0),
                                NodeAtom::Max(x, y) => RawAtom::Max(x.0, y.0),
                                NodeAtom::Div(x, y) => RawAtom::Div(x.0, y.0),
                                NodeAtom::Mod(x, y) => RawAtom::Mod(x.0, y.0),
                            })
                            .collect();
                        (atoms, *c)
                    })
                    .collect(),
            })
            .collect();
        let ranges = self
            .range_nodes
            .iter()
            .map(|rn| match *rn {
                RangeNode::Empty => RawRangeNode::Empty,
                RangeNode::Interval(lo, hi) => RawRangeNode::Interval(raw_bound(lo), raw_bound(hi)),
            })
            .collect();
        (exprs, ranges)
    }

    /// Rebuilds a root arena from a dump produced by
    /// [`ExprArena::export_raw`], re-interning every node in stored
    /// order so every id matches the original arena verbatim.
    ///
    /// The dump is validated, never trusted: children must precede
    /// parents, finite bounds must reference dumped expressions, the
    /// pre-interned `∅`/`⊤` range slots must be intact, and
    /// re-interning must reproduce each stored position (duplicates or
    /// non-canonical nodes cannot). A corrupted dump yields a
    /// [`RawArenaError`], never a panic or a silently different arena.
    pub fn from_raw(
        exprs: &[RawExprNode],
        ranges: &[RawRangeNode],
    ) -> Result<ExprArena, RawArenaError> {
        let mut a = ExprArena::new();
        for (i, raw) in exprs.iter().enumerate() {
            let child = |c: u32| {
                if (c as usize) < i {
                    Ok(ExprId(c))
                } else {
                    Err(RawArenaError::ForwardReference)
                }
            };
            let mut terms = Vec::with_capacity(raw.terms.len());
            for (atoms, coeff) in &raw.terms {
                let mut node_atoms = Vec::with_capacity(atoms.len());
                for atom in atoms {
                    node_atoms.push(match *atom {
                        RawAtom::Sym(s) => NodeAtom::Sym(Symbol::new(s)),
                        RawAtom::Min(x, y) => NodeAtom::Min(child(x)?, child(y)?),
                        RawAtom::Max(x, y) => NodeAtom::Max(child(x)?, child(y)?),
                        RawAtom::Div(x, y) => NodeAtom::Div(child(x)?, child(y)?),
                        RawAtom::Mod(x, y) => NodeAtom::Mod(child(x)?, child(y)?),
                    });
                }
                terms.push((node_atoms.into_boxed_slice(), *coeff));
            }
            let id = a.intern_node(ExprNode {
                constant: raw.constant,
                terms: terms.into_boxed_slice(),
            });
            if id.index() != i {
                return Err(RawArenaError::NonCanonical);
            }
        }
        if ranges.len() < 2
            || ranges[0] != RawRangeNode::Empty
            || ranges[1] != RawRangeNode::Interval(RawBound::NegInf, RawBound::PosInf)
        {
            return Err(RawArenaError::BadPrelude);
        }
        for (i, raw) in ranges.iter().enumerate().skip(2) {
            let bound = |b: RawBound| match b {
                RawBound::NegInf => Ok(BoundId::NegInf),
                RawBound::PosInf => Ok(BoundId::PosInf),
                RawBound::Fin(e) => {
                    if (e as usize) < exprs.len() {
                        Ok(BoundId::Fin(ExprId(e)))
                    } else {
                        Err(RawArenaError::ForwardReference)
                    }
                }
            };
            let node = match *raw {
                RawRangeNode::Empty => RangeNode::Empty,
                RawRangeNode::Interval(lo, hi) => RangeNode::Interval(bound(lo)?, bound(hi)?),
            };
            let id = a.intern_range_node(node);
            if id.index() != i {
                return Err(RawArenaError::NonCanonical);
            }
        }
        Ok(a)
    }

    // ------------------------------------------------------------------
    // Cheap node queries.
    // ------------------------------------------------------------------

    /// Number of distinct expressions interned (including any base).
    pub fn len(&self) -> usize {
        self.base_exprs as usize + self.nodes.len()
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct ranges interned (including any base).
    pub fn num_ranges(&self) -> usize {
        self.base_ranges as usize + self.range_nodes.len()
    }

    /// The interned expression at `index`, or `None` when out of range
    /// — the checked inverse of [`ExprId::index`], for codecs
    /// rebuilding ids from untrusted input.
    pub fn expr_id(&self, index: usize) -> Option<ExprId> {
        (index < self.len()).then_some(ExprId(index as u32))
    }

    /// The interned range at `index`, or `None` when out of range —
    /// the checked inverse of [`RangeId::index`].
    pub fn range_id(&self, index: usize) -> Option<RangeId> {
        (index < self.num_ranges()).then_some(RangeId(index as u32))
    }

    /// Returns `Some(c)` when the expression is the constant `c`.
    pub fn as_constant(&self, id: ExprId) -> Option<i128> {
        let node = self.node(id);
        if node.terms.is_empty() {
            Some(node.constant)
        } else {
            None
        }
    }

    /// Returns `true` when the expression mentions at least one symbol
    /// or opaque operator.
    pub fn is_symbolic(&self, id: ExprId) -> bool {
        !self.node(id).terms.is_empty()
    }

    /// Returns `Some(s)` when the expression is exactly the symbol `s`.
    pub fn as_symbol(&self, id: ExprId) -> Option<Symbol> {
        let node = self.node(id);
        if node.constant != 0 || node.terms.len() != 1 {
            return None;
        }
        let (atoms, coeff) = &node.terms[0];
        if *coeff != 1 || atoms.len() != 1 {
            return None;
        }
        match atoms[0] {
            NodeAtom::Sym(s) => Some(s),
            _ => None,
        }
    }

    /// Total number of atoms in the expression (precomputed at intern
    /// time, so this is `O(1)` where the value type walks the tree).
    pub fn expr_size(&self, id: ExprId) -> usize {
        self.size_of(id) as usize
    }

    /// Returns `true` when the expression exceeds the internal size
    /// budget ([`SymRange`] collapses such endpoints to ±∞).
    pub fn is_oversized(&self, id: ExprId) -> bool {
        self.size_of(id) as usize > MAX_EXPR_ATOMS
    }

    /// Calls `f` with every kernel symbol mentioned in the expression
    /// (including inside `min`/`max`/`div`/`mod`), possibly repeatedly.
    pub fn for_each_symbol(&self, id: ExprId, f: &mut impl FnMut(Symbol)) {
        for (atoms, _) in self.node(id).terms.iter() {
            for a in atoms.iter() {
                match *a {
                    NodeAtom::Sym(s) => f(s),
                    NodeAtom::Min(x, y)
                    | NodeAtom::Max(x, y)
                    | NodeAtom::Div(x, y)
                    | NodeAtom::Mod(x, y) => {
                        self.for_each_symbol(x, f);
                        self.for_each_symbol(y, f);
                    }
                }
            }
        }
    }

    /// Calls `f` with every kernel symbol mentioned in either endpoint.
    pub fn range_for_each_symbol(&self, r: RangeId, f: &mut impl FnMut(Symbol)) {
        if let RangeNode::Interval(lo, hi) = self.range_node(r) {
            for b in [lo, hi] {
                if let BoundId::Fin(e) = b {
                    self.for_each_symbol(e, f);
                }
            }
        }
    }

    /// Interns the constant expression `c`.
    pub fn constant(&mut self, c: i128) -> ExprId {
        self.intern_node(ExprNode {
            constant: c,
            terms: Box::new([]),
        })
    }

    /// Interns the single-symbol expression `s`.
    pub fn symbol(&mut self, s: Symbol) -> ExprId {
        self.intern_node(ExprNode {
            constant: 0,
            terms: Box::new([(Box::new([NodeAtom::Sym(s)]), 1)]),
        })
    }

    // ------------------------------------------------------------------
    // Memoised expression operations. On a miss the arena delegates to
    // the value-level algorithm (reconstructing the operands) and
    // interns the canonical result — behavioural identity with the
    // boxed path is by construction; the memo table makes each distinct
    // computation happen exactly once.
    // ------------------------------------------------------------------

    /// Memoised [`SymExpr::try_le`].
    pub fn try_le(&mut self, a: ExprId, b: ExprId) -> Option<bool> {
        if let Some(&r) = self.le_memo.get(&(a, b)) {
            self.ops[OP_LE].hits += 1;
            return r;
        }
        if let Some(base) = &self.base {
            if let Some(&r) = base.le_memo.get(&(a, b)) {
                self.ops[OP_LE].hits += 1;
                return r;
            }
        }
        self.ops[OP_LE].misses += 1;
        let r = self.expr_value(a).try_le(&self.expr_value(b));
        self.le_memo.insert((a, b), r);
        r
    }

    /// Memoised [`SymExpr::try_lt`].
    pub fn try_lt(&mut self, a: ExprId, b: ExprId) -> Option<bool> {
        if let Some(&r) = self.lt_memo.get(&(a, b)) {
            self.ops[OP_LT].hits += 1;
            return r;
        }
        if let Some(base) = &self.base {
            if let Some(&r) = base.lt_memo.get(&(a, b)) {
                self.ops[OP_LT].hits += 1;
                return r;
            }
        }
        self.ops[OP_LT].misses += 1;
        let r = self.expr_value(a).try_lt(&self.expr_value(b));
        self.lt_memo.insert((a, b), r);
        r
    }
}

/// Generates the body of a memoised binary expression op.
macro_rules! memo_binop {
    ($self:ident, $memo:ident, $op:expr, $a:ident, $b:ident, $compute:expr) => {{
        if let Some(&r) = $self.$memo.get(&($a, $b)) {
            $self.ops[$op].hits += 1;
            return r;
        }
        if let Some(base) = &$self.base {
            if let Some(&r) = base.$memo.get(&($a, $b)) {
                $self.ops[$op].hits += 1;
                return r;
            }
        }
        $self.ops[$op].misses += 1;
        let r = $compute;
        $self.$memo.insert(($a, $b), r);
        r
    }};
}

impl ExprArena {
    /// Memoised [`SymExpr::min`] (the simplifying smart constructor).
    pub fn min(&mut self, a: ExprId, b: ExprId) -> ExprId {
        memo_binop!(self, min_memo, OP_MIN, a, b, {
            let e = SymExpr::min(self.expr_value(a), self.expr_value(b));
            self.intern(&e)
        })
    }

    /// Memoised [`SymExpr::max`].
    pub fn max(&mut self, a: ExprId, b: ExprId) -> ExprId {
        memo_binop!(self, max_memo, OP_MAX, a, b, {
            let e = SymExpr::max(self.expr_value(a), self.expr_value(b));
            self.intern(&e)
        })
    }

    /// Memoised addition.
    pub fn add(&mut self, a: ExprId, b: ExprId) -> ExprId {
        memo_binop!(self, add_memo, OP_ADD, a, b, {
            let e = self.expr_value(a) + self.expr_value(b);
            self.intern(&e)
        })
    }

    /// Memoised subtraction.
    pub fn sub(&mut self, a: ExprId, b: ExprId) -> ExprId {
        memo_binop!(self, sub_memo, OP_SUB, a, b, {
            let e = self.expr_value(a) - self.expr_value(b);
            self.intern(&e)
        })
    }

    /// Memoised negation.
    pub fn neg(&mut self, a: ExprId) -> ExprId {
        if let Some(&r) = self.neg_memo.get(&a) {
            self.ops[OP_NEG].hits += 1;
            return r;
        }
        if let Some(base) = &self.base {
            if let Some(&r) = base.neg_memo.get(&a) {
                self.ops[OP_NEG].hits += 1;
                return r;
            }
        }
        self.ops[OP_NEG].misses += 1;
        let e = -self.expr_value(a);
        let r = self.intern(&e);
        self.neg_memo.insert(a, r);
        r
    }

    /// Memoised multiplication.
    pub fn mul(&mut self, a: ExprId, b: ExprId) -> ExprId {
        memo_binop!(self, mul_memo, OP_MUL, a, b, {
            let e = self.expr_value(a) * self.expr_value(b);
            self.intern(&e)
        })
    }

    /// Memoised [`SymExpr::div`].
    pub fn div(&mut self, a: ExprId, b: ExprId) -> ExprId {
        memo_binop!(self, div_memo, OP_DIV, a, b, {
            let e = SymExpr::div(self.expr_value(a), self.expr_value(b));
            self.intern(&e)
        })
    }

    /// Memoised [`SymExpr::rem`].
    pub fn rem(&mut self, a: ExprId, b: ExprId) -> ExprId {
        memo_binop!(self, rem_memo, OP_REM, a, b, {
            let e = SymExpr::rem(self.expr_value(a), self.expr_value(b));
            self.intern(&e)
        })
    }

    // ------------------------------------------------------------------
    // Bound operations (thin over the expression ops; infinity cases
    // mirror `Bound` exactly).
    // ------------------------------------------------------------------

    /// Memoised [`Bound::try_le`] on interned bounds.
    pub fn bound_try_le(&mut self, a: BoundId, b: BoundId) -> Option<bool> {
        match (a, b) {
            (BoundId::NegInf, _) | (_, BoundId::PosInf) => Some(true),
            (BoundId::PosInf, _) | (_, BoundId::NegInf) => Some(false),
            (BoundId::Fin(x), BoundId::Fin(y)) => self.try_le(x, y),
        }
    }

    /// Memoised [`Bound::try_lt`] on interned bounds.
    pub fn bound_try_lt(&mut self, a: BoundId, b: BoundId) -> Option<bool> {
        match (a, b) {
            (BoundId::NegInf, BoundId::NegInf) | (BoundId::PosInf, BoundId::PosInf) => Some(false),
            (BoundId::NegInf, _) | (_, BoundId::PosInf) => Some(true),
            (BoundId::PosInf, _) | (_, BoundId::NegInf) => Some(false),
            (BoundId::Fin(x), BoundId::Fin(y)) => self.try_lt(x, y),
        }
    }

    /// [`Bound::min`] on handles.
    pub fn bound_min(&mut self, a: BoundId, b: BoundId) -> BoundId {
        match (a, b) {
            (BoundId::NegInf, _) | (_, BoundId::NegInf) => BoundId::NegInf,
            (BoundId::PosInf, x) | (x, BoundId::PosInf) => x,
            (BoundId::Fin(x), BoundId::Fin(y)) => BoundId::Fin(self.min(x, y)),
        }
    }

    /// [`Bound::max`] on handles.
    pub fn bound_max(&mut self, a: BoundId, b: BoundId) -> BoundId {
        match (a, b) {
            (BoundId::PosInf, _) | (_, BoundId::PosInf) => BoundId::PosInf,
            (BoundId::NegInf, x) | (x, BoundId::NegInf) => x,
            (BoundId::Fin(x), BoundId::Fin(y)) => BoundId::Fin(self.max(x, y)),
        }
    }

    /// [`Bound::add`] on handles.
    ///
    /// # Panics
    ///
    /// Panics when adding `−∞` to `+∞` (interval arithmetic never adds
    /// endpoints of opposite polarity).
    pub fn bound_add(&mut self, a: BoundId, b: BoundId) -> BoundId {
        match (a, b) {
            (BoundId::NegInf, BoundId::PosInf) | (BoundId::PosInf, BoundId::NegInf) => {
                panic!("Bound::add: −∞ + +∞ is undefined")
            }
            (BoundId::NegInf, _) | (_, BoundId::NegInf) => BoundId::NegInf,
            (BoundId::PosInf, _) | (_, BoundId::PosInf) => BoundId::PosInf,
            (BoundId::Fin(x), BoundId::Fin(y)) => BoundId::Fin(self.add(x, y)),
        }
    }

    /// [`Bound::add_expr`] on handles.
    pub fn bound_add_expr(&mut self, b: BoundId, e: ExprId) -> BoundId {
        match b {
            BoundId::Fin(a) => BoundId::Fin(self.add(a, e)),
            inf => inf,
        }
    }

    /// [`Bound::negate`] on handles.
    pub fn bound_negate(&mut self, b: BoundId) -> BoundId {
        match b {
            BoundId::NegInf => BoundId::PosInf,
            BoundId::PosInf => BoundId::NegInf,
            BoundId::Fin(e) => BoundId::Fin(self.neg(e)),
        }
    }

    /// [`Bound::mul_const`] on handles.
    pub fn bound_mul_const(&mut self, b: BoundId, c: i128) -> BoundId {
        if c == 0 {
            let zero = self.constant(0);
            return BoundId::Fin(zero);
        }
        match b {
            BoundId::Fin(e) => {
                let k = self.constant(c);
                BoundId::Fin(self.mul(e, k))
            }
            BoundId::NegInf => {
                if c > 0 {
                    BoundId::NegInf
                } else {
                    BoundId::PosInf
                }
            }
            BoundId::PosInf => {
                if c > 0 {
                    BoundId::PosInf
                } else {
                    BoundId::NegInf
                }
            }
        }
    }
}

impl ExprArena {
    // ------------------------------------------------------------------
    // Range constructors — each mirrors its `SymRange` counterpart
    // exactly, including which constructors normalize and which keep
    // the raw interval (`singleton`, `widen` and the clamp operands are
    // deliberately un-normalized in the value type).
    // ------------------------------------------------------------------

    /// Interns a raw, **un-normalized** interval `[lo, hi]` (the shape
    /// `SymRange::Interval { .. }` literals have in the value code).
    pub fn range_raw(&mut self, lo: BoundId, hi: BoundId) -> RangeId {
        self.intern_range_node(RangeNode::Interval(lo, hi))
    }

    /// Collapses provably empty intervals to `∅` and oversized symbolic
    /// endpoints to their infinity — [`SymRange::with_bounds`].
    pub fn range_with_bounds(&mut self, lo: BoundId, hi: BoundId) -> RangeId {
        if self.bound_try_lt(hi, lo) == Some(true) {
            return Self::EMPTY_RANGE;
        }
        let lo = match lo {
            BoundId::Fin(e) if self.is_oversized(e) => BoundId::NegInf,
            other => other,
        };
        let hi = match hi {
            BoundId::Fin(e) if self.is_oversized(e) => BoundId::PosInf,
            other => other,
        };
        self.range_raw(lo, hi)
    }

    /// [`SymRange::interval`] on handles (normalized).
    pub fn range_interval(&mut self, lo: ExprId, hi: ExprId) -> RangeId {
        self.range_with_bounds(BoundId::Fin(lo), BoundId::Fin(hi))
    }

    /// [`SymRange::singleton`] on handles (raw, like the value type).
    pub fn range_singleton(&mut self, e: ExprId) -> RangeId {
        self.range_raw(BoundId::Fin(e), BoundId::Fin(e))
    }

    /// [`SymRange::constant`] on handles.
    pub fn range_constant(&mut self, c: i64) -> RangeId {
        let e = self.constant(c as i128);
        self.range_singleton(e)
    }

    /// `true` for `∅`.
    pub fn range_is_empty(&self, r: RangeId) -> bool {
        matches!(self.range_node(r), RangeNode::Empty)
    }

    /// `true` for `[−∞, +∞]`.
    pub fn range_is_top(&self, r: RangeId) -> bool {
        matches!(
            self.range_node(r),
            RangeNode::Interval(BoundId::NegInf, BoundId::PosInf)
        )
    }

    /// Lower bound, if the range is non-empty.
    pub fn range_lo(&self, r: RangeId) -> Option<BoundId> {
        match self.range_node(r) {
            RangeNode::Empty => None,
            RangeNode::Interval(lo, _) => Some(lo),
        }
    }

    /// Upper bound, if the range is non-empty.
    pub fn range_hi(&self, r: RangeId) -> Option<BoundId> {
        match self.range_node(r) {
            RangeNode::Empty => None,
            RangeNode::Interval(_, hi) => Some(hi),
        }
    }

    /// Returns the single expression `e` when the range is `[e, e]`.
    pub fn range_as_singleton(&self, r: RangeId) -> Option<ExprId> {
        match self.range_node(r) {
            RangeNode::Interval(BoundId::Fin(a), BoundId::Fin(b)) if a == b => Some(a),
            _ => None,
        }
    }

    /// Returns `true` when any bound mentions a kernel symbol (the §5
    /// symbolic-range census predicate).
    pub fn range_is_symbolic(&self, r: RangeId) -> bool {
        match self.range_node(r) {
            RangeNode::Empty => false,
            RangeNode::Interval(lo, hi) => [lo, hi]
                .into_iter()
                .any(|b| matches!(b, BoundId::Fin(e) if self.is_symbolic(e))),
        }
    }

    // ------------------------------------------------------------------
    // Memoised lattice operations.
    // ------------------------------------------------------------------

    /// Memoised [`SymRange::join`].
    pub fn range_join(&mut self, a: RangeId, b: RangeId) -> RangeId {
        memo_binop!(self, join_memo, OP_JOIN, a, b, {
            match (self.range_node(a), self.range_node(b)) {
                (RangeNode::Empty, _) => b,
                (_, RangeNode::Empty) => a,
                (RangeNode::Interval(l1, h1), RangeNode::Interval(l2, h2)) => {
                    let lo = self.bound_min(l1, l2);
                    let hi = self.bound_max(h1, h2);
                    self.range_with_bounds(lo, hi)
                }
            }
        })
    }

    /// Memoised [`SymRange::meet`].
    pub fn range_meet(&mut self, a: RangeId, b: RangeId) -> RangeId {
        memo_binop!(self, meet_memo, OP_MEET, a, b, {
            match (self.range_node(a), self.range_node(b)) {
                (RangeNode::Empty, _) | (_, RangeNode::Empty) => Self::EMPTY_RANGE,
                (RangeNode::Interval(l1, h1), RangeNode::Interval(l2, h2)) => {
                    if self.bound_try_lt(h1, l2) == Some(true)
                        || self.bound_try_lt(h2, l1) == Some(true)
                    {
                        Self::EMPTY_RANGE
                    } else {
                        let lo = self.bound_max(l1, l2);
                        let hi = self.bound_min(h1, h2);
                        self.range_with_bounds(lo, hi)
                    }
                }
            }
        })
    }

    /// Memoised [`SymRange::widen`]. Bound stability is id equality —
    /// the `O(1)` compare interning buys the fixpoint loops.
    pub fn range_widen(&mut self, a: RangeId, b: RangeId) -> RangeId {
        memo_binop!(self, widen_memo, OP_WIDEN, a, b, {
            match (self.range_node(a), self.range_node(b)) {
                (RangeNode::Empty, _) => b,
                (_, RangeNode::Empty) => a,
                (RangeNode::Interval(l, h), RangeNode::Interval(l2, h2)) => {
                    let lo = if l == l2 { l } else { BoundId::NegInf };
                    let hi = if h == h2 { h } else { BoundId::PosInf };
                    self.range_raw(lo, hi)
                }
            }
        })
    }

    /// Memoised [`SymRange::le`] (provable inclusion).
    pub fn range_le(&mut self, a: RangeId, b: RangeId) -> bool {
        if let Some(&r) = self.range_le_memo.get(&(a, b)) {
            self.ops[OP_RANGE_LE].hits += 1;
            return r;
        }
        if let Some(base) = &self.base {
            if let Some(&r) = base.range_le_memo.get(&(a, b)) {
                self.ops[OP_RANGE_LE].hits += 1;
                return r;
            }
        }
        self.ops[OP_RANGE_LE].misses += 1;
        let r = match (self.range_node(a), self.range_node(b)) {
            (RangeNode::Empty, _) => true,
            (_, RangeNode::Empty) => false,
            (RangeNode::Interval(l1, h1), RangeNode::Interval(l2, h2)) => {
                self.bound_try_le(l2, l1) == Some(true) && self.bound_try_le(h1, h2) == Some(true)
            }
        };
        self.range_le_memo.insert((a, b), r);
        r
    }

    /// [`SymRange::add`] on handles.
    pub fn range_add(&mut self, a: RangeId, b: RangeId) -> RangeId {
        match (self.range_node(a), self.range_node(b)) {
            (RangeNode::Empty, _) | (_, RangeNode::Empty) => Self::EMPTY_RANGE,
            (RangeNode::Interval(l1, h1), RangeNode::Interval(l2, h2)) => {
                let lo = self.bound_add(l1, l2);
                let hi = self.bound_add(h1, h2);
                self.range_with_bounds(lo, hi)
            }
        }
    }

    /// [`SymRange::add_expr`] on handles.
    pub fn range_add_expr(&mut self, r: RangeId, e: ExprId) -> RangeId {
        match self.range_node(r) {
            RangeNode::Empty => Self::EMPTY_RANGE,
            RangeNode::Interval(lo, hi) => {
                let lo = self.bound_add_expr(lo, e);
                let hi = self.bound_add_expr(hi, e);
                self.range_with_bounds(lo, hi)
            }
        }
    }

    /// [`SymRange::negate`] on handles (raw, like the value type).
    pub fn range_negate(&mut self, r: RangeId) -> RangeId {
        match self.range_node(r) {
            RangeNode::Empty => Self::EMPTY_RANGE,
            RangeNode::Interval(lo, hi) => {
                let nlo = self.bound_negate(hi);
                let nhi = self.bound_negate(lo);
                self.range_raw(nlo, nhi)
            }
        }
    }

    /// [`SymRange::sub`] on handles.
    pub fn range_sub(&mut self, a: RangeId, b: RangeId) -> RangeId {
        let nb = self.range_negate(b);
        self.range_add(a, nb)
    }

    /// [`SymRange::mul_const`] on handles.
    pub fn range_mul_const(&mut self, r: RangeId, c: i128) -> RangeId {
        match self.range_node(r) {
            RangeNode::Empty => Self::EMPTY_RANGE,
            RangeNode::Interval(lo, hi) => {
                let (lo, hi) = if c >= 0 {
                    (self.bound_mul_const(lo, c), self.bound_mul_const(hi, c))
                } else {
                    (self.bound_mul_const(hi, c), self.bound_mul_const(lo, c))
                };
                self.range_with_bounds(lo, hi)
            }
        }
    }

    fn range_const_bounds(&self, r: RangeId) -> Option<(i128, i128)> {
        match self.range_node(r) {
            RangeNode::Interval(BoundId::Fin(a), BoundId::Fin(b)) => {
                Some((self.as_constant(a)?, self.as_constant(b)?))
            }
            _ => None,
        }
    }

    /// [`SymRange::mul`] on handles.
    pub fn range_mul(&mut self, a: RangeId, b: RangeId) -> RangeId {
        if self.range_is_empty(a) || self.range_is_empty(b) {
            return Self::EMPTY_RANGE;
        }
        if let Some(c) = self.range_as_singleton(b).and_then(|e| self.as_constant(e)) {
            return self.range_mul_const(a, c);
        }
        if let Some(c) = self.range_as_singleton(a).and_then(|e| self.as_constant(e)) {
            return self.range_mul_const(b, c);
        }
        if let (Some(x), Some(y)) = (self.range_as_singleton(a), self.range_as_singleton(b)) {
            let p = self.mul(x, y);
            return self.range_singleton(p);
        }
        if let (Some((x1, x2)), Some((y1, y2))) =
            (self.range_const_bounds(a), self.range_const_bounds(b))
        {
            let products = [
                x1.saturating_mul(y1),
                x1.saturating_mul(y2),
                x2.saturating_mul(y1),
                x2.saturating_mul(y2),
            ];
            let lo = *products.iter().min().expect("non-empty");
            let hi = *products.iter().max().expect("non-empty");
            let lo = self.constant(lo);
            let hi = self.constant(hi);
            return self.range_raw(BoundId::Fin(lo), BoundId::Fin(hi));
        }
        Self::TOP_RANGE
    }

    /// [`SymRange::div`] on handles.
    pub fn range_div(&mut self, a: RangeId, b: RangeId) -> RangeId {
        if self.range_is_empty(a) || self.range_is_empty(b) {
            return Self::EMPTY_RANGE;
        }
        if let (Some(x), Some(y)) = (self.range_as_singleton(a), self.range_as_singleton(b)) {
            let q = self.div(x, y);
            return self.range_singleton(q);
        }
        if let Some(d) = self.range_as_singleton(b).and_then(|e| self.as_constant(e)) {
            if d > 0 {
                if let RangeNode::Interval(lo, hi) = self.range_node(a) {
                    let dc = self.constant(d);
                    let div_bound = |arena: &mut ExprArena, b: BoundId| match b {
                        BoundId::Fin(e) => BoundId::Fin(arena.div(e, dc)),
                        inf => inf,
                    };
                    let lo = div_bound(self, lo);
                    let hi = div_bound(self, hi);
                    return self.range_with_bounds(lo, hi);
                }
            }
        }
        Self::TOP_RANGE
    }

    /// [`SymRange::rem`] on handles.
    pub fn range_rem(&mut self, a: RangeId, b: RangeId) -> RangeId {
        if self.range_is_empty(a) || self.range_is_empty(b) {
            return Self::EMPTY_RANGE;
        }
        if let (Some(x), Some(y)) = (self.range_as_singleton(a), self.range_as_singleton(b)) {
            let q = self.rem(x, y);
            return self.range_singleton(q);
        }
        if let Some(m) = self.range_as_singleton(b).and_then(|e| self.as_constant(e)) {
            if m > 0 {
                let zero = self.constant(0);
                let nonneg = match self.range_lo(a) {
                    Some(lo) => self.bound_try_le(BoundId::Fin(zero), lo) == Some(true),
                    None => false,
                };
                let lo = if nonneg { 0 } else { -(m - 1) };
                let lo = self.constant(lo);
                let hi = self.constant(m - 1);
                return self.range_raw(BoundId::Fin(lo), BoundId::Fin(hi));
            }
        }
        Self::TOP_RANGE
    }

    /// [`SymRange::clamp_above`] on handles: `r ⊓ [−∞, b]`.
    pub fn range_clamp_above(&mut self, r: RangeId, b: BoundId) -> RangeId {
        let clamp = self.range_raw(BoundId::NegInf, b);
        self.range_meet(r, clamp)
    }

    /// [`SymRange::clamp_below`] on handles: `r ⊓ [b, +∞]`.
    pub fn range_clamp_below(&mut self, r: RangeId, b: BoundId) -> RangeId {
        let clamp = self.range_raw(b, BoundId::PosInf);
        self.range_meet(r, clamp)
    }

    /// Memoised provable-disjointness test, equal to
    /// `range_value(a).meet(&range_value(b)).is_empty()`.
    ///
    /// This is the workhorse of the alias queries (`QGR`'s
    /// `may_overlap` and `QLR`'s offset comparison). Two endpoint
    /// comparisons decide it: `[l₁,h₁] ⊓ [l₂,h₂] = ∅ ⟺ h₁ < l₂ ∨
    /// h₂ < l₁` — for *normalized* operands (every range the analyses
    /// store) the `meet` construction's third chance to detect
    /// emptiness, `min(h₁,h₂) < max(l₁,l₂)` on the freshly built
    /// bounds, proves strictly less than the direct checks: its proof
    /// must case-split away the outer `min`/`max` first, reaching the
    /// same `hᵢ < lⱼ` obligations with *less* depth budget, and the
    /// within-range branches `hᵢ < lᵢ` are unprovable or the input
    /// would have normalized to `∅`. The debug assertion and the
    /// `disjoint_in_matches_meet` property test keep the two paths
    /// pinned together.
    pub fn ranges_disjoint(&mut self, a: RangeId, b: RangeId) -> bool {
        let r = match (self.range_node(a), self.range_node(b)) {
            (RangeNode::Empty, _) | (_, RangeNode::Empty) => true,
            (RangeNode::Interval(l1, h1), RangeNode::Interval(l2, h2)) => {
                self.bound_try_lt(h1, l2) == Some(true) || self.bound_try_lt(h2, l1) == Some(true)
            }
        };
        debug_assert_eq!(
            r,
            self.range_value(a).meet(&self.range_value(b)).is_empty(),
            "endpoint disjointness must agree with meet-emptiness for {} and {}",
            self.range_value(a),
            self.range_value(b),
        );
        r
    }

    /// `!ranges_disjoint(a, b)` — the alias queries' "may overlap".
    pub fn range_may_overlap(&mut self, a: RangeId, b: RangeId) -> bool {
        !self.ranges_disjoint(a, b)
    }

    // ------------------------------------------------------------------
    // Cross-arena import. The traversal is structure-driven, so the
    // destination arena's contents depend only on the *values* imported
    // (and their order), never on the source arena's id numbering —
    // which is what makes module arenas canonical and lets byte-
    // identity rails compare ids across separately assembled analyses.
    // ------------------------------------------------------------------

    /// Imports `e` from `src`, rewriting every kernel symbol through
    /// `rename`, memoised in `map` (one translation per distinct source
    /// id). `rename` must be *strictly monotone* on the symbols that
    /// occur — the [`SymExpr::map_symbols`] contract — which every
    /// blockwise renumbering of per-function symbol budgets is;
    /// monotonicity preserves the canonical term and `min`/`max`
    /// argument orders, so the node structure can be copied verbatim
    /// and the result is exactly the expression the analysis would have
    /// built with the renamed symbols.
    pub fn import_expr(
        &mut self,
        src: &ExprArena,
        e: ExprId,
        rename: &impl Fn(Symbol) -> Symbol,
        map: &mut ImportMap,
    ) -> ExprId {
        if let Some(&d) = map.exprs.get(&e) {
            return d;
        }
        let node = src.node(e).clone();
        let terms = node
            .terms
            .iter()
            .map(|(atoms, c)| {
                let atoms: Box<[NodeAtom]> = atoms
                    .iter()
                    .map(|a| match *a {
                        NodeAtom::Sym(s) => NodeAtom::Sym(rename(s)),
                        NodeAtom::Min(x, y) => NodeAtom::Min(
                            self.import_expr(src, x, rename, map),
                            self.import_expr(src, y, rename, map),
                        ),
                        NodeAtom::Max(x, y) => NodeAtom::Max(
                            self.import_expr(src, x, rename, map),
                            self.import_expr(src, y, rename, map),
                        ),
                        NodeAtom::Div(x, y) => NodeAtom::Div(
                            self.import_expr(src, x, rename, map),
                            self.import_expr(src, y, rename, map),
                        ),
                        NodeAtom::Mod(x, y) => NodeAtom::Mod(
                            self.import_expr(src, x, rename, map),
                            self.import_expr(src, y, rename, map),
                        ),
                    })
                    .collect();
                (atoms, *c)
            })
            .collect();
        let id = self.intern_node(ExprNode {
            constant: node.constant,
            terms,
        });
        map.exprs.insert(e, id);
        id
    }

    /// Imports a bound; see [`ExprArena::import_expr`].
    pub fn import_bound(
        &mut self,
        src: &ExprArena,
        b: BoundId,
        rename: &impl Fn(Symbol) -> Symbol,
        map: &mut ImportMap,
    ) -> BoundId {
        match b {
            BoundId::Fin(e) => BoundId::Fin(self.import_expr(src, e, rename, map)),
            inf => inf,
        }
    }

    /// Imports a range; see [`ExprArena::import_expr`]. The range's
    /// exact shape is preserved (no re-normalization — emptiness and
    /// size are invariant under a monotone renaming).
    pub fn import_range(
        &mut self,
        src: &ExprArena,
        r: RangeId,
        rename: &impl Fn(Symbol) -> Symbol,
        map: &mut ImportMap,
    ) -> RangeId {
        if let Some(&d) = map.ranges.get(&r) {
            return d;
        }
        let id = match src.range_node(r) {
            RangeNode::Empty => Self::EMPTY_RANGE,
            RangeNode::Interval(lo, hi) => {
                let lo = self.import_bound(src, lo, rename, map);
                let hi = self.import_bound(src, hi, rename, map);
                self.range_raw(lo, hi)
            }
        };
        map.ranges.insert(r, id);
        id
    }

    /// Fallible import: answers `None` when `rename` reports a symbol
    /// with no counterpart (an incremental session probing whether a
    /// cached state survives a re-minted block). Verdicts are memoised
    /// either way.
    pub fn try_import_expr(
        &mut self,
        src: &ExprArena,
        e: ExprId,
        rename: &impl Fn(Symbol) -> Option<Symbol>,
        map: &mut TryImportMap,
    ) -> Option<ExprId> {
        if let Some(&d) = map.exprs.get(&e) {
            return d;
        }
        let node = src.node(e).clone();
        let mut out = Some(());
        let mut terms: Vec<(Box<[NodeAtom]>, i128)> = Vec::with_capacity(node.terms.len());
        'terms: for (atoms, c) in node.terms.iter() {
            let mut new_atoms = Vec::with_capacity(atoms.len());
            for a in atoms.iter() {
                let na = match *a {
                    NodeAtom::Sym(s) => match rename(s) {
                        Some(s) => NodeAtom::Sym(s),
                        None => {
                            out = None;
                            break 'terms;
                        }
                    },
                    NodeAtom::Min(x, y) => {
                        match (
                            self.try_import_expr(src, x, rename, map),
                            self.try_import_expr(src, y, rename, map),
                        ) {
                            (Some(x), Some(y)) => NodeAtom::Min(x, y),
                            _ => {
                                out = None;
                                break 'terms;
                            }
                        }
                    }
                    NodeAtom::Max(x, y) => {
                        match (
                            self.try_import_expr(src, x, rename, map),
                            self.try_import_expr(src, y, rename, map),
                        ) {
                            (Some(x), Some(y)) => NodeAtom::Max(x, y),
                            _ => {
                                out = None;
                                break 'terms;
                            }
                        }
                    }
                    NodeAtom::Div(x, y) => {
                        match (
                            self.try_import_expr(src, x, rename, map),
                            self.try_import_expr(src, y, rename, map),
                        ) {
                            (Some(x), Some(y)) => NodeAtom::Div(x, y),
                            _ => {
                                out = None;
                                break 'terms;
                            }
                        }
                    }
                    NodeAtom::Mod(x, y) => {
                        match (
                            self.try_import_expr(src, x, rename, map),
                            self.try_import_expr(src, y, rename, map),
                        ) {
                            (Some(x), Some(y)) => NodeAtom::Mod(x, y),
                            _ => {
                                out = None;
                                break 'terms;
                            }
                        }
                    }
                };
                new_atoms.push(na);
            }
            terms.push((new_atoms.into_boxed_slice(), *c));
        }
        let id = out.map(|()| {
            self.intern_node(ExprNode {
                constant: node.constant,
                terms: terms.into_boxed_slice(),
            })
        });
        map.exprs.insert(e, id);
        id
    }

    /// Fallible range import; see [`ExprArena::try_import_expr`].
    pub fn try_import_range(
        &mut self,
        src: &ExprArena,
        r: RangeId,
        rename: &impl Fn(Symbol) -> Option<Symbol>,
        map: &mut TryImportMap,
    ) -> Option<RangeId> {
        if let Some(&d) = map.ranges.get(&r) {
            return d;
        }
        let id = match src.range_node(r) {
            RangeNode::Empty => Some(Self::EMPTY_RANGE),
            RangeNode::Interval(lo, hi) => {
                let imp = |arena: &mut ExprArena, b: BoundId, map: &mut TryImportMap| match b {
                    BoundId::Fin(e) => arena.try_import_expr(src, e, rename, map).map(BoundId::Fin),
                    inf => Some(inf),
                };
                match (imp(self, lo, map), imp(self, hi, map)) {
                    (Some(lo), Some(hi)) => Some(self.range_raw(lo, hi)),
                    _ => None,
                }
            }
        };
        map.ranges.insert(r, id);
        id
    }

    // ------------------------------------------------------------------
    // Cross-arena structural comparison (allocation-free lockstep
    // walks; the incremental session's matrix-reuse check).
    // ------------------------------------------------------------------

    /// Allocation-free equivalent of
    /// `other.expr_value(b) == self.expr_value(a).map_symbols(f)` for
    /// *strictly monotone* `f` (which preserves the canonical orders,
    /// so the two nodes can be walked in lockstep). A non-monotone `f`
    /// may produce false negatives, never false positives.
    pub fn expr_eq_mapped(
        &self,
        a: ExprId,
        other: &ExprArena,
        b: ExprId,
        f: &impl Fn(Symbol) -> Symbol,
    ) -> bool {
        let na = self.node(a);
        let nb = other.node(b);
        na.constant == nb.constant
            && na.terms.len() == nb.terms.len()
            && na.terms.iter().zip(nb.terms.iter()).all(|(ta, tb)| {
                ta.1 == tb.1
                    && ta.0.len() == tb.0.len()
                    && ta.0.iter().zip(tb.0.iter()).all(|(x, y)| match (*x, *y) {
                        (NodeAtom::Sym(s), NodeAtom::Sym(t)) => f(s) == t,
                        (NodeAtom::Min(x1, y1), NodeAtom::Min(x2, y2))
                        | (NodeAtom::Max(x1, y1), NodeAtom::Max(x2, y2))
                        | (NodeAtom::Div(x1, y1), NodeAtom::Div(x2, y2))
                        | (NodeAtom::Mod(x1, y1), NodeAtom::Mod(x2, y2)) => {
                            self.expr_eq_mapped(x1, other, x2, f)
                                && self.expr_eq_mapped(y1, other, y2, f)
                        }
                        _ => false,
                    })
            })
    }

    /// Lockstep bound comparison; see [`ExprArena::expr_eq_mapped`].
    pub fn bound_eq_mapped(
        &self,
        a: BoundId,
        other: &ExprArena,
        b: BoundId,
        f: &impl Fn(Symbol) -> Symbol,
    ) -> bool {
        match (a, b) {
            (BoundId::NegInf, BoundId::NegInf) | (BoundId::PosInf, BoundId::PosInf) => true,
            (BoundId::Fin(x), BoundId::Fin(y)) => self.expr_eq_mapped(x, other, y, f),
            _ => false,
        }
    }

    /// Lockstep range comparison; see [`ExprArena::expr_eq_mapped`].
    pub fn range_eq_mapped(
        &self,
        a: RangeId,
        other: &ExprArena,
        b: RangeId,
        f: &impl Fn(Symbol) -> Symbol,
    ) -> bool {
        match (self.range_node(a), other.range_node(b)) {
            (RangeNode::Empty, RangeNode::Empty) => true,
            (RangeNode::Interval(l1, h1), RangeNode::Interval(l2, h2)) => {
                self.bound_eq_mapped(l1, other, l2, f) && self.bound_eq_mapped(h1, other, h2, f)
            }
            _ => false,
        }
    }

    /// Structural equality of two ranges across arenas (identity
    /// renaming, with an id fast path when both handles live in the
    /// same arena).
    pub fn range_structural_eq(&self, a: RangeId, other: &ExprArena, b: RangeId) -> bool {
        if std::ptr::eq(self, other) {
            return a == b;
        }
        self.range_eq_mapped(a, other, b, &|s| s)
    }

    // ------------------------------------------------------------------
    // Display & stats.
    // ------------------------------------------------------------------

    /// Renders an expression using `names` for symbol display.
    pub fn display_expr(&self, id: ExprId, names: &dyn SymbolNames) -> String {
        format!("{}", self.expr_value(id).display(names))
    }

    /// Renders a bound using `names` for symbol display.
    pub fn display_bound(&self, b: BoundId, names: &dyn SymbolNames) -> String {
        format!("{}", self.bound_value(b).display(names))
    }

    /// Renders a range using `names` for symbol display.
    pub fn display_range(&self, r: RangeId, names: &dyn SymbolNames) -> String {
        format!("{}", self.range_value(r).display(names))
    }

    /// Resets the per-op memo counters (a solver arena cloned from a
    /// module arena starts counting its *own* work, so assembly-time
    /// [`ExprArena::absorb_op_stats`] never double-counts the source
    /// arena's activity).
    pub fn clear_op_stats(&mut self) {
        self.ops = [OpStats::default(); 14];
    }

    /// Folds another arena's per-op memo counters into this one's.
    /// Assembly points use this so a module arena's [`ExprArena::stats`]
    /// reflect the work done in the per-part / solver arenas it was
    /// imported from (the arenas themselves are discarded).
    pub fn absorb_op_stats(&mut self, src: &ExprArena) {
        for (mine, theirs) in self.ops.iter_mut().zip(src.ops.iter()) {
            mine.merge(theirs);
        }
    }

    /// Cache counters (nodes, per-op memo hits/misses, approximate
    /// bytes). Totals include the overlay base when present.
    pub fn stats(&self) -> ArenaStats {
        use std::mem::size_of;
        let node_bytes: usize = self
            .nodes
            .iter()
            .map(|n| {
                size_of::<ExprNode>()
                    + n.terms.len() * size_of::<(Box<[NodeAtom]>, i128)>()
                    + n.terms
                        .iter()
                        .map(|(a, _)| a.len() * size_of::<NodeAtom>())
                        .sum::<usize>()
            })
            .sum();
        let bytes = node_bytes
            + self.sizes.len() * size_of::<u32>()
            + self.range_nodes.len() * size_of::<RangeNode>()
            + self.index.capacity() * (size_of::<ExprNode>() + size_of::<ExprId>())
            + self.range_index.capacity() * (size_of::<RangeNode>() + size_of::<RangeId>())
            + (self.le_memo.capacity() + self.lt_memo.capacity())
                * size_of::<((ExprId, ExprId), Option<bool>)>()
            + (self.min_memo.capacity()
                + self.max_memo.capacity()
                + self.add_memo.capacity()
                + self.sub_memo.capacity()
                + self.mul_memo.capacity()
                + self.div_memo.capacity()
                + self.rem_memo.capacity())
                * size_of::<((ExprId, ExprId), ExprId)>()
            + self.neg_memo.capacity() * size_of::<(ExprId, ExprId)>()
            + (self.join_memo.capacity() + self.meet_memo.capacity() + self.widen_memo.capacity())
                * size_of::<((RangeId, RangeId), RangeId)>()
            + self.range_le_memo.capacity() * size_of::<((RangeId, RangeId), bool)>();
        let mut per_op = [("", OpStats::default()); 14];
        for (i, name) in OP_NAMES.iter().enumerate() {
            per_op[i] = (*name, self.ops[i]);
        }
        let mut stats = ArenaStats {
            exprs: self.len(),
            ranges: self.num_ranges(),
            hits: self.ops.iter().map(|o| o.hits).sum(),
            misses: self.ops.iter().map(|o| o.misses).sum(),
            bytes,
            per_op,
        };
        if let Some(base) = &self.base {
            let b = base.stats();
            // The base's nodes are already counted via len(); only add
            // its counters and bytes.
            stats.hits += b.hits;
            stats.misses += b.misses;
            stats.bytes += b.bytes;
            for (mine, theirs) in stats.per_op.iter_mut().zip(b.per_op.iter()) {
                mine.1.merge(&theirs.1);
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;

    fn n() -> SymExpr {
        SymExpr::from(Symbol::new(0))
    }

    fn m() -> SymExpr {
        SymExpr::from(Symbol::new(1))
    }

    #[test]
    fn interning_is_canonical() {
        let mut a = ExprArena::new();
        let x = a.intern(&(n() + 2.into()));
        let y = a.intern(&(SymExpr::from(2) + n()));
        let z = a.intern(&(n() + 3.into()));
        assert_eq!(x, y);
        assert_ne!(x, z);
        assert_eq!(a.expr_value(x), n() + 2.into());
    }

    #[test]
    fn value_roundtrip_preserves_structure() {
        let exprs = [
            SymExpr::from(0),
            n() * m() + 7.into(),
            SymExpr::min(n(), m() + 1.into()) * 3.into() - m(),
            SymExpr::div(n(), 2.into()) + SymExpr::rem(m(), 3.into()),
            SymExpr::max(SymExpr::min(n(), m()), n() - 4.into()),
        ];
        let mut a = ExprArena::new();
        for e in &exprs {
            let id = a.intern(e);
            assert_eq!(&a.expr_value(id), e, "round-trip of {e}");
            // Size agrees with the value measure.
            assert_eq!(a.expr_size(id), e.size());
            // Re-interning the reconstruction is the same id.
            assert_eq!(a.intern(&a.expr_value(id)), id);
        }
    }

    #[test]
    fn try_le_matches_uncached_and_memoises() {
        let mut a = ExprArena::new();
        let pairs = [
            (n(), n() + 1.into()),
            (n() + 1.into(), n()),
            (n(), m()),
            (SymExpr::min(n(), m()), n()),
            (SymExpr::from(3), SymExpr::from(7)),
        ];
        for (x, y) in &pairs {
            let xi = a.intern(x);
            let yi = a.intern(y);
            assert_eq!(a.try_le(xi, yi), x.try_le(y));
        }
        let before = a.stats();
        for (x, y) in &pairs {
            let xi = a.intern(x);
            let yi = a.intern(y);
            let _ = a.try_le(xi, yi);
        }
        let after = a.stats();
        assert_eq!(after.misses, before.misses, "second round is all hits");
        assert!(after.hits > before.hits);
    }

    /// Pins the per-op hit accounting: one miss then one hit per
    /// distinct (op, operand-pair), reported under the op's own name.
    #[test]
    fn per_op_stats_pin_hit_counting() {
        let mut a = ExprArena::new();
        let x = a.intern(&n());
        let y = a.intern(&m());
        let j1 = {
            let ra = a.intern_range(&SymRange::interval(0.into(), n()));
            let rb = a.intern_range(&SymRange::interval(1.into(), m()));
            (ra, rb)
        };
        let op = |stats: &ArenaStats, name: &str| -> OpStats {
            stats
                .per_op
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| *s)
                .expect("op name present")
        };
        let s0 = a.stats();
        let _ = a.add(x, y);
        let _ = a.add(x, y);
        let s1 = a.stats();
        assert_eq!(op(&s1, "add").misses, op(&s0, "add").misses + 1);
        assert_eq!(op(&s1, "add").hits, op(&s0, "add").hits + 1);
        let _ = a.range_join(j1.0, j1.1);
        let _ = a.range_join(j1.0, j1.1);
        let _ = a.range_join(j1.0, j1.1);
        let s2 = a.stats();
        assert_eq!(op(&s2, "join").misses, op(&s1, "join").misses + 1);
        assert_eq!(op(&s2, "join").hits, op(&s1, "join").hits + 2);
        // Totals aggregate the per-op counters, and the byte estimate
        // is non-trivial once nodes exist.
        assert_eq!(s2.hits, s2.per_op.iter().map(|(_, o)| o.hits).sum::<u64>());
        assert_eq!(
            s2.misses,
            s2.per_op.iter().map(|(_, o)| o.misses).sum::<u64>()
        );
        assert!(s2.bytes > 0);
        assert!(s2.exprs >= 2 && s2.ranges >= 4);
    }

    #[test]
    fn ops_match_value_algorithms() {
        let mut a = ExprArena::new();
        let cases = [
            (n(), m()),
            (n() + 1.into(), n()),
            (SymExpr::from(6) * n(), SymExpr::from(3)),
            (SymExpr::min(n(), m()), SymExpr::max(n(), m())),
            (SymExpr::from(7), SymExpr::from(0)),
        ];
        for (x, y) in &cases {
            let xi = a.intern(x);
            let yi = a.intern(y);
            assert_eq!(
                {
                    let id = a.add(xi, yi);
                    a.expr_value(id)
                },
                x.clone() + y.clone()
            );
            assert_eq!(
                {
                    let id = a.sub(xi, yi);
                    a.expr_value(id)
                },
                x.clone() - y.clone()
            );
            assert_eq!(
                {
                    let id = a.mul(xi, yi);
                    a.expr_value(id)
                },
                x.clone() * y.clone()
            );
            assert_eq!(
                {
                    let id = a.min(xi, yi);
                    a.expr_value(id)
                },
                SymExpr::min(x.clone(), y.clone())
            );
            assert_eq!(
                {
                    let id = a.max(xi, yi);
                    a.expr_value(id)
                },
                SymExpr::max(x.clone(), y.clone())
            );
            assert_eq!(
                {
                    let id = a.div(xi, yi);
                    a.expr_value(id)
                },
                SymExpr::div(x.clone(), y.clone())
            );
            assert_eq!(
                {
                    let id = a.rem(xi, yi);
                    a.expr_value(id)
                },
                SymExpr::rem(x.clone(), y.clone())
            );
            assert_eq!(
                {
                    let id = a.neg(xi);
                    a.expr_value(id)
                },
                -x.clone()
            );
        }
    }

    #[test]
    fn bound_comparisons_with_infinities() {
        let mut a = ExprArena::new();
        let f = {
            let id = a.intern(&n());
            BoundId::Fin(id)
        };
        assert_eq!(a.bound_try_le(BoundId::NegInf, f), Some(true));
        assert_eq!(a.bound_try_lt(f, BoundId::PosInf), Some(true));
        assert_eq!(a.bound_try_le(BoundId::PosInf, f), Some(false));
        assert_eq!(
            a.bound_try_lt(BoundId::PosInf, BoundId::PosInf),
            Some(false)
        );
    }

    #[test]
    fn ranges_disjoint_matches_meet() {
        let mut a = ExprArena::new();
        let cases = [
            // The Figure 1 criterion.
            (
                SymRange::interval(0.into(), n() - 1.into()),
                SymRange::interval(n(), n() + m() - 1.into()),
            ),
            // Overlapping for some valuation.
            (
                SymRange::interval(0.into(), n() + 1.into()),
                SymRange::interval(1.into(), n() + 2.into()),
            ),
            // Distinct symbols: unknown, conservatively not disjoint.
            (
                SymRange::interval(0.into(), n()),
                SymRange::interval(m(), m() + 1.into()),
            ),
            (SymRange::empty(), SymRange::top()),
            (SymRange::constant(3), SymRange::constant(4)),
        ];
        for (x, y) in &cases {
            let xi = a.intern_range(x);
            let yi = a.intern_range(y);
            let expect = x.meet(y).is_empty();
            assert_eq!(a.ranges_disjoint(xi, yi), expect, "{x} vs {y}");
            // Symmetric.
            assert_eq!(a.ranges_disjoint(yi, xi), expect);
        }
        // Repeating every query is all memo hits (or infinity
        // fast-paths that never touch the memo).
        let misses = a.stats().misses;
        for (x, y) in &cases {
            let xi = a.intern_range(x);
            let yi = a.intern_range(y);
            let _ = a.ranges_disjoint(xi, yi);
        }
        assert_eq!(a.stats().misses, misses);
    }

    #[test]
    fn range_lattice_ops_match_value_algorithms() {
        let mut a = ExprArena::new();
        let ranges = [
            SymRange::empty(),
            SymRange::top(),
            SymRange::constant(3),
            SymRange::interval(0.into(), n()),
            SymRange::interval(n(), n() + m()),
            SymRange::with_bounds(Bound::from(0), Bound::PosInf),
            SymRange::with_bounds(Bound::NegInf, Bound::Fin(m() - 1.into())),
            SymRange::singleton(n() * 2.into()),
        ];
        for x in &ranges {
            for y in &ranges {
                let xi = a.intern_range(x);
                let yi = a.intern_range(y);
                assert_eq!(
                    {
                        let id = a.range_join(xi, yi);
                        a.range_value(id)
                    },
                    x.join(y),
                    "{x} ⊔ {y}"
                );
                assert_eq!(
                    {
                        let id = a.range_meet(xi, yi);
                        a.range_value(id)
                    },
                    x.meet(y),
                    "{x} ⊓ {y}"
                );
                assert_eq!(
                    {
                        let id = a.range_widen(xi, yi);
                        a.range_value(id)
                    },
                    x.widen(y),
                    "{x} ∇ {y}"
                );
                assert_eq!(a.range_le(xi, yi), x.le(y), "{x} ⊑ {y}");
                assert_eq!(
                    {
                        let id = a.range_add(xi, yi);
                        a.range_value(id)
                    },
                    x.add(y),
                    "{x} + {y}"
                );
                assert_eq!(
                    {
                        let id = a.range_sub(xi, yi);
                        a.range_value(id)
                    },
                    x.sub(y),
                    "{x} − {y}"
                );
                assert_eq!(
                    {
                        let id = a.range_mul(xi, yi);
                        a.range_value(id)
                    },
                    x.mul(y),
                    "{x} × {y}"
                );
                assert_eq!(
                    {
                        let id = a.range_div(xi, yi);
                        a.range_value(id)
                    },
                    x.div(y),
                    "{x} ÷ {y}"
                );
                assert_eq!(
                    {
                        let id = a.range_rem(xi, yi);
                        a.range_value(id)
                    },
                    x.rem(y),
                    "{x} % {y}"
                );
            }
            let xi = a.intern_range(x);
            assert_eq!(
                {
                    let id = a.range_negate(xi);
                    a.range_value(id)
                },
                x.negate()
            );
            assert_eq!(
                {
                    let id = a.range_mul_const(xi, -3);
                    a.range_value(id)
                },
                x.mul_const(-3)
            );
            let e = a.intern(&m());
            assert_eq!(
                {
                    let id = a.range_add_expr(xi, e);
                    a.range_value(id)
                },
                x.add_expr(&m())
            );
            let b = a.intern_bound(&Bound::Fin(n() - 1.into()));
            assert_eq!(
                {
                    let id = a.range_clamp_above(xi, b);
                    a.range_value(id)
                },
                x.clamp_above(Bound::Fin(n() - 1.into()))
            );
            assert_eq!(
                {
                    let id = a.range_clamp_below(xi, b);
                    a.range_value(id)
                },
                x.clamp_below(Bound::Fin(n() - 1.into()))
            );
            assert_eq!(a.range_is_empty(xi), x.is_empty());
            assert_eq!(a.range_is_top(xi), x.is_top());
            assert_eq!(a.range_is_symbolic(xi), x.is_symbolic());
        }
    }

    #[test]
    fn preinterned_constants_are_stable() {
        let a = ExprArena::new();
        let b = ExprArena::new();
        assert_eq!(a.range_value(ExprArena::EMPTY_RANGE), SymRange::empty());
        assert_eq!(b.range_value(ExprArena::TOP_RANGE), SymRange::top());
        assert!(a.range_is_empty(ExprArena::EMPTY_RANGE));
        assert!(a.range_is_top(ExprArena::TOP_RANGE));
    }

    #[test]
    fn import_translates_between_arenas() {
        let mut src = ExprArena::new();
        let e = SymExpr::min(n() * m(), m() + 3.into()) + SymExpr::max(n(), 2.into()) * 5.into();
        let id = src.intern(&e);
        let r = src.intern_range(&SymRange::interval(0.into(), n() + m()));

        let mut dst = ExprArena::new();
        let shift = |s: Symbol| Symbol::new(s.index() + 10);
        let mut map = ImportMap::default();
        let did = dst.import_expr(&src, id, &shift, &mut map);
        assert_eq!(dst.expr_value(did), e.map_symbols(&shift));
        // Memoised: importing again is a table hit returning the same id.
        assert_eq!(dst.import_expr(&src, id, &shift, &mut map), did);
        let dr = dst.import_range(&src, r, &shift, &mut map);
        assert_eq!(dst.range_value(dr), src.range_value(r).map_symbols(&shift));
        // The lockstep comparison agrees.
        assert!(src.expr_eq_mapped(id, &dst, did, &shift));
        assert!(src.range_eq_mapped(r, &dst, dr, &shift));
        assert!(!src.expr_eq_mapped(id, &dst, did, &|s| s));
    }

    #[test]
    fn try_import_reports_unmappable_symbols() {
        let mut src = ExprArena::new();
        let ok = src.intern_range(&SymRange::interval(0.into(), n()));
        let bad = src.intern_range(&SymRange::interval(0.into(), m()));
        let mut dst = ExprArena::new();
        let rename = |s: Symbol| (s.index() == 0).then(|| Symbol::new(5));
        let mut map = TryImportMap::default();
        let got = dst.try_import_range(&src, ok, &rename, &mut map);
        assert!(got.is_some());
        assert_eq!(
            dst.range_value(got.unwrap()),
            SymRange::interval(0.into(), SymExpr::from(Symbol::new(5)))
        );
        assert_eq!(dst.try_import_range(&src, bad, &rename, &mut map), None);
        // Memoised verdicts either way.
        assert_eq!(dst.try_import_range(&src, bad, &rename, &mut map), None);
    }

    #[test]
    fn overlay_reads_base_and_adopts_deterministically() {
        let mut root = ExprArena::new();
        let x = root.intern(&n());
        let base_range = root.intern_range(&SymRange::interval(0.into(), n()));
        let root_len = root.len();

        let base = Arc::new(root);
        let mut ov1 = ExprArena::with_base(Arc::clone(&base));
        let mut ov2 = ExprArena::with_base(Arc::clone(&base));
        // Base content resolves through the overlay with base ids.
        assert_eq!(ov1.intern(&n()), x);
        assert_eq!(
            ov1.range_value(base_range),
            SymRange::interval(0.into(), n())
        );
        // New content gets overlay-space ids past the base.
        let y1 = ov1.intern(&(n() + 41.into()));
        assert!(y1.index() >= root_len);
        let r1 = ov1.range_interval(x, y1);
        let y2 = ov2.intern(&(n() + 43.into()));
        // Memoised ops work against mixed base/local ids.
        assert_eq!(ov1.try_le(x, y1), Some(true));
        let p1 = ov1.into_overlay_part();
        let p2 = ov2.into_overlay_part();
        let mut root = Arc::try_unwrap(base).expect("overlays released");
        let xl1 = root.adopt(p1);
        let xl2 = root.adopt(p2);
        // Base ids are identity; local ids translate onto fresh ids.
        assert_eq!(xl1.expr(x), x);
        assert_eq!(root.expr_value(xl1.expr(y1)), n() + 41.into());
        assert_eq!(root.expr_value(xl2.expr(y2)), n() + 43.into());
        assert_eq!(
            root.range_value(xl1.range(r1)),
            SymRange::interval(n(), n() + 41.into())
        );
        assert_eq!(xl1.range(base_range), base_range);
        // Adoption dedupes against existing content: re-adopting the
        // same value finds the existing node.
        assert_eq!(root.intern(&(n() + 41.into())), xl1.expr(y1));
    }

    #[test]
    fn range_roundtrip() {
        let mut a = ExprArena::new();
        for r in [
            SymRange::empty(),
            SymRange::top(),
            SymRange::interval(0.into(), n()),
            SymRange::with_bounds(Bound::from(0), Bound::PosInf),
        ] {
            let id = a.intern_range(&r);
            assert_eq!(a.range_value(id), r);
        }
    }

    #[test]
    fn display_matches_value_display() {
        let mut a = ExprArena::new();
        let e = n() * 2.into() + 3.into();
        let id = a.intern(&e);
        struct NoNames;
        impl SymbolNames for NoNames {
            fn symbol_name(&self, _s: Symbol) -> Option<&str> {
                None
            }
        }
        assert_eq!(a.display_expr(id, &NoNames), "2*s0 + 3");
        let r = a.intern_range(&SymRange::interval(0.into(), n()));
        assert_eq!(a.display_range(r, &NoNames), "[0, s0]");
        assert_eq!(a.display_bound(BoundId::NegInf, &NoNames), "-inf");
    }
}
