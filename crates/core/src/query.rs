//! Alias queries: the global test `QGR`, the local test `QLR`, the
//! combined analysis of the paper's Figure 5, the per-function
//! [`AliasMatrix`] cache that answers all-pairs workloads in `O(1)`
//! per repeat query, and the [`DemandCache`] that answers single
//! queries without paying the all-pairs triangle.

use std::sync::Arc;

use sra_ir::{BlockId, FuncId, Module, Ty, ValueId};
use sra_range::RangeAnalysis;
use sra_symbolic::{ArenaStats, ExprArena, FxHashMap, RangeId, SymbolTable};

use crate::config::AnalysisConfig;
use crate::gr::{GrAnalysis, GrConfig};
use crate::locs::{LocId, LocKind, LocTable};
use crate::lr::{LocalBase, LrAnalysis};
use crate::pool;
use crate::state::PtrState;

/// The verdict of one alias query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AliasResult {
    /// The two pointers provably never reference overlapping memory.
    NoAlias,
    /// Overlap could not be ruled out.
    MayAlias,
}

/// Which of the complementary mechanisms produced a `NoAlias` answer.
///
/// The paper's Figure 14 attributes answers to the *global test* only
/// when symbolic range comparison on a **common** location was needed;
/// the bulk of disambiguation comes from pointers whose supports do not
/// intersect at all ("comparing offsets from different locations", §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WhichTest {
    /// Supports are disjoint: the pointers address different allocation
    /// sites (or one of them addresses nothing).
    DistinctLocs,
    /// The global test of §3.5 proper: the supports share at least one
    /// location, and the symbolic offset ranges are provably disjoint
    /// everywhere.
    Global,
    /// The local test of §3.7 (same local base, disjoint offsets).
    Local,
}

/// How a session or service answers alias queries.
///
/// Both modes are pinned byte-identical to the uncached
/// [`RbaaAnalysis::alias_with_test`] reference; they trade *where* the
/// work happens. `Matrix` pays the all-pairs triangle at (re)build time
/// and answers lookups in `O(1)`; `Demand` builds nothing up front and
/// proves each signature pair the first time a query needs it — the
/// right choice when consumers touch a sparse subset of the `O(P²)`
/// pair universe (the scaling cliff of giant functions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueryMode {
    /// Eagerly build per-function [`AliasMatrix`] caches; queries are
    /// lock-free `O(1)` lookups.
    #[default]
    Matrix,
    /// Answer queries from a lazily grown [`DemandCache`]. The cache
    /// memoises per signature pair under a mutex, so concurrent readers
    /// of one snapshot serialize on it — throughput-critical all-pairs
    /// consumers should prefer `Matrix`.
    Demand,
}

/// A pointer disambiguation oracle.
///
/// Implemented by [`RbaaAnalysis`] here and by the baseline analyses in
/// the `sra-baselines` crate, so that the evaluation harness can compare
/// them uniformly.
pub trait AliasAnalysis {
    /// A short name for reports (`rbaa`, `basic`, `scev`).
    fn name(&self) -> &'static str;

    /// May `p` and `q` (two pointer-typed values of function `f`)
    /// reference overlapping memory?
    fn alias(&self, f: FuncId, p: ValueId, q: ValueId) -> AliasResult;
}

/// The paper's combined range-based alias analysis (`rbaa`): the global
/// symbolic range analysis of pointers plus the local renaming test.
///
/// Construct with [`RbaaAnalysis::analyze`]; the module should already
/// be in e-SSA form (run [`sra_ir::essa::run`] on each function during
/// lowering) — the analysis is still sound on plain SSA, only less
/// precise, because σ-nodes are where comparison information enters.
#[derive(Debug, Clone)]
pub struct RbaaAnalysis {
    ranges: RangeAnalysis,
    gr: GrAnalysis,
    lr: LrAnalysis,
}

impl RbaaAnalysis {
    /// Runs the full pipeline of Figure 5 — bootstrap integer ranges,
    /// global pointer analysis, local pointer analysis — with the
    /// default configuration; see [`RbaaAnalysis::analyze_with`].
    pub fn analyze(m: &Module) -> Self {
        Self::analyze_with(m, AnalysisConfig::default())
    }

    /// Runs the pipeline layer by layer on the calling thread: each
    /// layer's serial whole-module analysis, GR on a width-1 pool.
    /// This is the independent reference the pooled session pipeline
    /// ([`crate::AnalysisSession`], [`crate::BatchAnalysis`]) is held
    /// byte-identical to; `config.threads` and the query and load
    /// knobs do not apply.
    pub fn analyze_with(m: &Module, config: AnalysisConfig) -> Self {
        let ranges = RangeAnalysis::analyze_with(m, config.range);
        let gr_config = GrConfig {
            threads: 1,
            ..config.gr
        };
        let gr = GrAnalysis::analyze_with(m, &ranges, gr_config);
        let lr = LrAnalysis::analyze(m);
        RbaaAnalysis { ranges, gr, lr }
    }

    /// Assembles a result from already-computed pieces (external
    /// harnesses use it to time the pipeline layer by layer).
    pub fn from_pieces(ranges: RangeAnalysis, gr: GrAnalysis, lr: LrAnalysis) -> Self {
        RbaaAnalysis { ranges, gr, lr }
    }

    /// The bootstrap integer range analysis.
    pub fn ranges(&self) -> &RangeAnalysis {
        &self.ranges
    }

    /// The global pointer analysis.
    pub fn gr(&self) -> &GrAnalysis {
        &self.gr
    }

    /// The local pointer analysis.
    pub fn lr(&self) -> &LrAnalysis {
        &self.lr
    }

    /// The symbol table for displaying analysis states.
    pub fn symbols(&self) -> &SymbolTable {
        self.ranges.symbols()
    }

    /// Summed arena counters of the three module arenas (bootstrap
    /// ranges, GR, LR) — the interning effectiveness of one analysis.
    pub fn arena_stats(&self) -> ArenaStats {
        let mut s = self.ranges.arena().stats();
        s.merge(&self.gr.arena().stats());
        s.merge(&self.lr.arena().stats());
        s
    }

    /// Like [`AliasAnalysis::alias`], additionally reporting which test
    /// fired for a `NoAlias` answer (the paper's Figure 14 attribution).
    ///
    /// This is the *uncached reference path*: each call re-proves its
    /// range comparisons from the interned states (reconstructing the
    /// handful of ranges it needs), exactly like the seed per-query
    /// sweep the batched matrices are benchmarked against. Batch
    /// consumers use [`crate::AliasMatrix`], which memoises every
    /// comparison.
    pub fn alias_with_test(
        &self,
        f: FuncId,
        p: ValueId,
        q: ValueId,
    ) -> (AliasResult, Option<WhichTest>) {
        if p == q {
            return (AliasResult::MayAlias, None);
        }
        if let Some(kind) = global_no_alias_kind(
            self.gr.raw_state(f, p),
            self.gr.raw_state(f, q),
            self.gr.locs(),
            self.gr.arena(),
        ) {
            return (AliasResult::NoAlias, Some(kind));
        }
        if let (Some(sp), Some(sq)) = (self.lr.raw_state(f, p), self.lr.raw_state(f, q)) {
            // Preconditions for the "same moment" semantics: the
            // pointers must be defined in the same block (so their k-th
            // definitions belong to the same activation) and their
            // derivations must have read every σ at the same instant
            // (equal σ-sets — a body-σ and an exit-σ of one φ denote
            // different iterations whose addresses may coincide). Only
            // then does disjointness of the offset ranges prove the
            // addresses distinct within every activation.
            if sp.base == sq.base
                && sp.block.is_some()
                && sp.block == sq.block
                && sp.sigmas == sq.sigmas
            {
                let arena = self.lr.arena();
                if arena
                    .range_value(sp.range)
                    .meet(&arena.range_value(sq.range))
                    .is_empty()
                {
                    return (AliasResult::NoAlias, Some(WhichTest::Local));
                }
            }
        }
        (AliasResult::MayAlias, None)
    }

    /// Starts an empty [`DemandCache`] over this analysis — single
    /// queries with memoisation, no all-pairs matrix build.
    pub fn demand_cache(&self) -> DemandCache {
        DemandCache::new(self)
    }
}

impl AliasAnalysis for RbaaAnalysis {
    fn name(&self) -> &'static str {
        "rbaa"
    }

    fn alias(&self, f: FuncId, p: ValueId, q: ValueId) -> AliasResult {
        self.alias_with_test(f, p, q).0
    }
}

/// The global test `QGR` (§3.5): `NoAlias` when the concretizations are
/// provably disjoint. `arena` is the arena the states' range handles
/// point into (usually [`GrAnalysis::arena`]).
///
/// Implements Proposition 2, extended for `Unknown` locations (pointer
/// parameters of exported functions and external-call results): two
/// *different* locations only separate pointers when both are concrete
/// allocation sites, because two unknown bases may be the same memory;
/// within a *common* location the symbolic offset ranges must be
/// provably disjoint.
pub fn global_no_alias(a: &PtrState, b: &PtrState, locs: &LocTable, arena: &ExprArena) -> bool {
    global_no_alias_kind(a, b, locs, arena).is_some()
}

/// Like [`global_no_alias`], reporting *how* the pointers were
/// separated: by disjoint supports, or by range reasoning on common
/// locations (the paper's "global test" of Figure 14).
pub fn global_no_alias_kind(
    a: &PtrState,
    b: &PtrState,
    locs: &LocTable,
    arena: &ExprArena,
) -> Option<WhichTest> {
    // ⊥ concretizes to the empty address set.
    if a.is_bottom() || b.is_bottom() {
        return Some(WhichTest::DistinctLocs);
    }
    if a.is_top() || b.is_top() {
        return None;
    }
    let mut used_ranges = false;
    for (la, ra) in a.support() {
        for (lb, rb) in b.support() {
            if la == lb {
                if arena.range_value(ra).may_overlap(&arena.range_value(rb)) {
                    return None;
                }
                used_ranges = true;
            } else if !locs.site(la).kind.separable_from(locs.site(lb).kind) {
                // An unknown base may coincide with globals and other
                // unknown bases (but not with fresh allocations).
                return None;
            }
        }
    }
    Some(if used_ranges {
        WhichTest::Global
    } else {
        WhichTest::DistinctLocs
    })
}

/// Aggregate statistics over a batch of queries — the rows of the
/// paper's Figures 13 and 14.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Total queries issued.
    pub queries: usize,
    /// Queries answered `NoAlias`.
    pub no_alias: usize,
    /// `NoAlias` answers from disjoint allocation-site supports.
    pub by_distinct_locs: usize,
    /// `NoAlias` answers produced by the global test (common-location
    /// range reasoning).
    pub by_global: usize,
    /// `NoAlias` answers produced by the local test.
    pub by_local: usize,
}

impl QueryStats {
    /// Percentage of queries answered `NoAlias` (the `%` columns of
    /// Figure 13).
    pub fn percent_no_alias(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            100.0 * self.no_alias as f64 / self.queries as f64
        }
    }

    /// Issues every pairwise query among `pointers` (unordered pairs,
    /// `p ≠ q`) against `rbaa` and accumulates the outcome.
    pub fn run_pairs(rbaa: &RbaaAnalysis, f: FuncId, pointers: &[ValueId]) -> Self {
        let mut stats = QueryStats::default();
        for (i, &p) in pointers.iter().enumerate() {
            for &q in &pointers[i + 1..] {
                stats.queries += 1;
                match rbaa.alias_with_test(f, p, q) {
                    (AliasResult::NoAlias, Some(WhichTest::DistinctLocs)) => {
                        stats.no_alias += 1;
                        stats.by_distinct_locs += 1;
                    }
                    (AliasResult::NoAlias, Some(WhichTest::Global)) => {
                        stats.no_alias += 1;
                        stats.by_global += 1;
                    }
                    (AliasResult::NoAlias, Some(WhichTest::Local)) => {
                        stats.no_alias += 1;
                        stats.by_local += 1;
                    }
                    _ => {}
                }
            }
        }
        stats
    }

    /// Merges another batch into this one.
    pub fn merge(&mut self, other: &QueryStats) {
        self.queries += other.queries;
        self.no_alias += other.no_alias;
        self.by_distinct_locs += other.by_distinct_locs;
        self.by_global += other.by_global;
        self.by_local += other.by_local;
    }
}

/// Collects the pointer-typed values of a function — the query universe
/// of the paper's evaluation (§4 enumerates pairs of pointers).
pub fn pointer_values(m: &Module, f: FuncId) -> Vec<ValueId> {
    let func = m.function(f);
    func.value_ids()
        .filter(|&v| func.value(v).ty() == Some(Ty::Ptr))
        .collect()
}

/// Packed verdict codes of one [`AliasMatrix`] cell. Exactly four
/// values — a cell is two bits: `NoAlias`/`MayAlias` plus the
/// which-test attribution sideband.
const CELL_MAY: u8 = 0;
const CELL_DISTINCT: u8 = 1;
const CELL_GLOBAL: u8 = 2;
const CELL_LOCAL: u8 = 3;

/// Functions per scratch-overlay window in
/// [`AliasMatrix::build_all_on`]: the memo tables are rebuilt from
/// empty after this many functions so they stay cache-sized on
/// module-scale sweeps while still amortising disjointness proofs
/// across the (heavily state-sharing) functions inside one window.
const SCRATCH_WINDOW: usize = 1024;

fn decode_cell(cell: u8) -> (AliasResult, Option<WhichTest>) {
    match cell {
        CELL_DISTINCT => (AliasResult::NoAlias, Some(WhichTest::DistinctLocs)),
        CELL_GLOBAL => (AliasResult::NoAlias, Some(WhichTest::Global)),
        CELL_LOCAL => (AliasResult::NoAlias, Some(WhichTest::Local)),
        _ => (AliasResult::MayAlias, None),
    }
}

/// Reads 2-bit cell `idx` of a packed cell store (four cells per byte,
/// little-endian within the byte).
#[inline]
fn get_packed(cells: &[u8], idx: usize) -> u8 {
    (cells[idx >> 2] >> ((idx & 3) * 2)) & 3
}

/// Byte accounting of packed [`AliasMatrix`] cell storage, in the style
/// of [`ArenaStats`]: the triangular bitset holds four 2-bit verdicts
/// per byte, so `packed_bytes ≈ pairs / 4` against the one-byte-per-pair
/// layout recorded in `unpacked_bytes`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatrixBytes {
    /// Unordered pointer pairs the matrix caches (its cell count).
    pub pairs: usize,
    /// Bytes actually allocated for the packed 2-bit cells.
    pub packed_bytes: usize,
    /// Bytes the former one-byte-per-cell layout would allocate.
    pub unpacked_bytes: usize,
}

impl MatrixBytes {
    /// Accumulates another matrix's accounting (for per-module totals).
    pub fn merge(&mut self, other: &MatrixBytes) {
        self.pairs += other.pairs;
        self.packed_bytes += other.packed_bytes;
        self.unpacked_bytes += other.unpacked_bytes;
    }

    /// Memory saving of the packed layout (`unpacked / packed`, ~4× at
    /// scale); `0.0` for an empty matrix.
    pub fn saving_ratio(&self) -> f64 {
        if self.packed_bytes == 0 {
            0.0
        } else {
            self.unpacked_bytes as f64 / self.packed_bytes as f64
        }
    }
}

/// The cached all-pairs verdicts of one function: every unordered pair
/// of pointer-typed values of `f`, evaluated once over the analyses'
/// interned states, packed into a triangular bitset of 2-bit cells
/// (four verdicts per byte — see [`MatrixBytes`]).
///
/// The build works directly on the GR and LR module arenas' handles —
/// state signatures are `RangeId` vectors, no re-interning — through
/// per-build *overlay* arenas ([`ExprArena::with_base`]), so every
/// distinct range comparison is proved once and matrix builds can run
/// on worker threads against one shared analysis. Verdicts are
/// byte-identical to [`RbaaAnalysis::alias_with_test`] — the
/// workspace's equivalence property tests pin this, for the serial and
/// the tiled parallel build alike.
#[derive(Debug, Clone)]
pub struct AliasMatrix {
    ptrs: Vec<ValueId>,
    pos: FxHashMap<ValueId, usize>,
    /// 2-bit cells, four per byte; cell `k` is the verdict of the k-th
    /// unordered pair in row-major upper-triangle order.
    cells: Vec<u8>,
    stats: QueryStats,
}

/// Interned global state of one pointer.
#[derive(Clone, PartialEq, Eq, Hash)]
enum IGr {
    Bottom,
    Top,
    Support(Vec<(LocId, RangeId)>),
}

/// Interned local state of one pointer.
#[derive(Clone, PartialEq, Eq, Hash)]
struct ILr {
    base: LocalBase,
    block: Option<BlockId>,
    /// Dense id of the σ-set (equal sets share an id).
    sigmas: u32,
    range: RangeId,
}

impl AliasMatrix {
    /// Builds the matrix over every pointer-typed value of `f`
    /// (serial — see [`AliasMatrix::build_with`]).
    pub fn build(rbaa: &RbaaAnalysis, m: &Module, f: FuncId) -> Self {
        Self::build_with(rbaa, m, f, 1)
    }

    /// Like [`AliasMatrix::build`], with the signature triangle tiled
    /// across a one-shot pool of exactly `threads` workers —
    /// byte-identical to the serial build (each tile proves its
    /// comparisons in its own overlay arena, and verdicts depend only on
    /// the interned states, never on which overlay memoised them).
    pub fn build_with(rbaa: &RbaaAnalysis, m: &Module, f: FuncId, threads: usize) -> Self {
        let pool = pool::WorkerPool::forced(threads);
        Self::build_for_on(rbaa, f, pointer_values(m, f), &pool)
    }

    /// Like [`AliasMatrix::build_with`], but the tiles ride an existing
    /// [`pool::WorkerPool`] instead of a one-shot pool — the form the
    /// session/driver pipelines use so matrix tiling reuses the same
    /// long-lived workers as every other phase.
    pub fn build_with_on(
        rbaa: &RbaaAnalysis,
        m: &Module,
        f: FuncId,
        pool: &pool::WorkerPool,
    ) -> Self {
        Self::build_for_on(rbaa, f, pointer_values(m, f), pool)
    }

    /// Builds every function's matrix on `pool`, functions chunked
    /// across the workers, with each chunk reusing **one** pair of
    /// scratch overlay arenas (and one per-module location-kind table)
    /// across all of its functions. Every state lives in the same
    /// canonical module arenas, so disjointness proofs memoised while
    /// building one function's matrix are hits for every later
    /// function of the chunk — on module-scale builds most of the
    /// comparison work disappears, where the per-function entry points
    /// re-prove it from a cold overlay each time. Verdicts depend only
    /// on the interned states, never on which overlay memoised them,
    /// so the result is cell-for-cell identical to per-function builds
    /// (pinned by `build_all_matches_per_function_builds` and the
    /// equivalence rails).
    pub fn build_all_on(rbaa: &RbaaAnalysis, m: &Module, pool: &pool::WorkerPool) -> Vec<Self> {
        let nf = m.num_functions();
        let kinds = Self::loc_kinds(rbaa);
        let width = pool.threads();
        let chunks = pool::chunk_bounds(nf, if width <= 1 { 1 } else { width * 4 });
        let parts: Vec<Vec<AliasMatrix>> = pool.run_map(chunks, |(lo, hi)| {
            let mut gr_arena = ExprArena::with_base(rbaa.gr().arena_arc());
            let mut lr_arena = ExprArena::with_base(rbaa.lr().arena_arc());
            let mut since_flush = 0usize;
            (lo..hi)
                .map(|i| {
                    // Unbounded memo accumulation over a 10⁴-function
                    // sweep grows the overlay tables past every cache
                    // level and the lookups start paying DRAM misses;
                    // a fixed per-chunk window keeps them hot while
                    // still amortising proofs across nearby functions
                    // (which share most of their states). The flush
                    // points are deterministic, and memoisation can't
                    // change verdicts either way.
                    if since_flush == SCRATCH_WINDOW {
                        gr_arena = ExprArena::with_base(rbaa.gr().arena_arc());
                        lr_arena = ExprArena::with_base(rbaa.lr().arena_arc());
                        since_flush = 0;
                    }
                    since_flush += 1;
                    let f = FuncId::new(i);
                    Self::build_for_scratch(
                        rbaa,
                        f,
                        pointer_values(m, f),
                        &kinds,
                        &mut gr_arena,
                        &mut lr_arena,
                    )
                })
                .collect()
        });
        parts.into_iter().flatten().collect()
    }

    /// The per-module location-kind table the global test indexes —
    /// derived from the `LocTable` once per build (or once per
    /// [`AliasMatrix::build_all_on`] chunk, not once per function).
    fn loc_kinds(rbaa: &RbaaAnalysis) -> Vec<LocKind> {
        let locs = rbaa.gr().locs();
        (0..locs.len())
            .map(|i| locs.site(LocId::new(i)).kind)
            .collect()
    }

    /// Collapses the pointers' interned states into dense signature
    /// classes: the class id of each pointer, plus the class table in
    /// id order (a function with `P` pointers typically has far fewer
    /// distinct `(GR, LR)` states, and for `p ≠ q` the verdict depends
    /// only on the states).
    fn signatures(
        rbaa: &RbaaAnalysis,
        f: FuncId,
        ptrs: &[ValueId],
    ) -> (Vec<usize>, Vec<(IGr, Option<ILr>)>) {
        let mut sigma_ids: FxHashMap<&[ValueId], u32> = FxHashMap::default();
        let mut sig_ids: FxHashMap<(IGr, Option<ILr>), u32> = FxHashMap::default();
        let mut sigs: Vec<usize> = Vec::with_capacity(ptrs.len());
        for &p in ptrs {
            let st = rbaa.gr().raw_state(f, p);
            let igr = if st.is_bottom() {
                IGr::Bottom
            } else if st.is_top() {
                IGr::Top
            } else {
                IGr::Support(st.support().collect())
            };
            let ilr = rbaa.lr().raw_state(f, p).map(|s| {
                let next = sigma_ids.len() as u32;
                let sigmas = *sigma_ids.entry(s.sigmas.as_slice()).or_insert(next);
                ILr {
                    base: s.base,
                    block: s.block,
                    sigmas,
                    range: s.range,
                }
            });
            let next = sig_ids.len() as u32;
            sigs.push(*sig_ids.entry((igr, ilr)).or_insert(next) as usize);
        }
        let mut by_id: Vec<Option<(IGr, Option<ILr>)>> = vec![None; sig_ids.len()];
        for (k, id) in sig_ids {
            by_id[id as usize] = Some(k);
        }
        let by_id = by_id
            .into_iter()
            .map(|k| k.expect("dense signature ids"))
            .collect();
        (sigs, by_id)
    }

    /// Serial build against caller-owned scratch overlays — the
    /// [`AliasMatrix::build_all_on`] worker body. `gr_arena`/`lr_arena`
    /// must be overlays over this analysis' GR/LR module arenas.
    fn build_for_scratch(
        rbaa: &RbaaAnalysis,
        f: FuncId,
        ptrs: Vec<ValueId>,
        kinds: &[LocKind],
        gr_arena: &mut ExprArena,
        lr_arena: &mut ExprArena,
    ) -> Self {
        let (sigs, by_id) = Self::signatures(rbaa, f, &ptrs);
        let s = by_id.len();
        let mut sig_cells = Vec::with_capacity(s * (s + 1) / 2);
        for a in 0..s {
            for b in a..s {
                let (ga, la) = &by_id[a];
                let (gb, lb) = &by_id[b];
                sig_cells.push(Self::verdict(gr_arena, lr_arena, kinds, ga, gb, la, lb));
            }
        }
        Self::pack(ptrs, &sigs, &sig_cells, s)
    }

    /// Builds the matrix over an explicit pointer universe (must be
    /// duplicate-free), with the signature triangle tiled onto `pool`.
    ///
    /// Hash-consing happens at two levels: the states' offset ranges
    /// are already interned handles into the GR/LR module arenas (the
    /// per-build overlays memoise each distinct comparison once), and
    /// whole pointer *states* are deduplicated into signature classes —
    /// a function with `P` pointers typically has far fewer distinct
    /// `(GR, LR)` states, and for `p ≠ q` the verdict depends only on
    /// the states, so the `O(P²)` pair sweep collapses to `O(S²)`
    /// state-pair verdicts plus an `O(P²)` table fill.
    pub fn build_for_on(
        rbaa: &RbaaAnalysis,
        f: FuncId,
        ptrs: Vec<ValueId>,
        pool: &pool::WorkerPool,
    ) -> Self {
        let kinds = Self::loc_kinds(rbaa);

        // Collapse equal states to one signature class (the states'
        // ranges are already interned ids — signatures are id tuples).
        let (sigs, by_id) = Self::signatures(rbaa, f, &ptrs);

        // One verdict per unordered signature pair (including the
        // "same signature, different pointer" diagonal).
        // Row `a` of the upper triangle (b ≥ a) starts after the
        // `a*s - a*(a-1)/2` entries of the rows above it.
        let s = by_id.len();
        let row_start = |a: usize| a * s - a * a.saturating_sub(1) / 2;
        // Tile the flat triangle index space onto the pool: tiles are a
        // deterministic split, each worker proves its tile against its
        // own overlay arena, and concatenation restores serial order —
        // so the parallel build is byte-identical to `threads == 1`.
        let total = s * (s + 1) / 2;
        let width = pool.threads();
        let tiles = pool::chunk_bounds(total, if width <= 1 { 1 } else { width * 4 });
        let parts: Vec<Vec<u8>> = pool.run_map(tiles, |(lo, hi)| {
            let mut gr_arena = ExprArena::with_base(rbaa.gr().arena_arc());
            let mut lr_arena = ExprArena::with_base(rbaa.lr().arena_arc());
            // Recover the (row, column) of the tile's first flat index:
            // the largest row whose start is ≤ lo.
            let mut a = {
                let (mut l, mut h) = (0usize, s);
                while l + 1 < h {
                    let mid = (l + h) / 2;
                    if row_start(mid) <= lo {
                        l = mid;
                    } else {
                        h = mid;
                    }
                }
                l
            };
            let mut b = a + (lo - row_start(a));
            let mut out = Vec::with_capacity(hi - lo);
            for _ in lo..hi {
                let (ga, la) = &by_id[a];
                let (gb, lb) = &by_id[b];
                out.push(Self::verdict(
                    &mut gr_arena,
                    &mut lr_arena,
                    &kinds,
                    ga,
                    gb,
                    la,
                    lb,
                ));
                b += 1;
                if b == s {
                    a += 1;
                    b = a;
                }
            }
            out
        });
        let mut sig_cells = Vec::with_capacity(total);
        for part in parts {
            sig_cells.extend(part);
        }
        Self::pack(ptrs, &sigs, &sig_cells, s)
    }

    /// Fills the pointer-pair triangle (2-bit cells, four pairs per
    /// byte) and the per-function statistics from the signature-pair
    /// verdict table, then assembles the matrix.
    fn pack(ptrs: Vec<ValueId>, sigs: &[usize], sig_cells: &[u8], s: usize) -> Self {
        let row_start = |a: usize| a * s - a * a.saturating_sub(1) / 2;
        let sig_cell = |a: usize, b: usize| {
            let (a, b) = if a <= b { (a, b) } else { (b, a) };
            sig_cells[row_start(a) + b - a]
        };
        let n = ptrs.len();
        let npairs = n * n.saturating_sub(1) / 2;
        let mut cells = vec![0u8; npairs.div_ceil(4)];
        let mut stats = QueryStats::default();
        let mut idx = 0;
        for i in 0..n {
            for j in i + 1..n {
                let cell = sig_cell(sigs[i], sigs[j]);
                cells[idx >> 2] |= cell << ((idx & 3) * 2);
                idx += 1;
                stats.queries += 1;
                match cell {
                    CELL_DISTINCT => {
                        stats.no_alias += 1;
                        stats.by_distinct_locs += 1;
                    }
                    CELL_GLOBAL => {
                        stats.no_alias += 1;
                        stats.by_global += 1;
                    }
                    CELL_LOCAL => {
                        stats.no_alias += 1;
                        stats.by_local += 1;
                    }
                    _ => {}
                }
            }
        }

        let pos = ptrs.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        AliasMatrix {
            ptrs,
            pos,
            cells,
            stats,
        }
    }

    /// One pair, on interned handles — mirrors
    /// [`RbaaAnalysis::alias_with_test`] decision for decision.
    /// `gr_arena`/`lr_arena` are the build's overlays over the
    /// respective module arenas.
    fn verdict(
        gr_arena: &mut ExprArena,
        lr_arena: &mut ExprArena,
        kinds: &[LocKind],
        gp: &IGr,
        gq: &IGr,
        lp: &Option<ILr>,
        lq: &Option<ILr>,
    ) -> u8 {
        // The global test (`global_no_alias_kind` on handles).
        let global = match (gp, gq) {
            (IGr::Bottom, _) | (_, IGr::Bottom) => Some(CELL_DISTINCT),
            (IGr::Top, _) | (_, IGr::Top) => None,
            (IGr::Support(sa), IGr::Support(sb)) => {
                let mut used_ranges = false;
                let mut separated = true;
                'pairs: for &(la, ra) in sa {
                    for &(lb, rb) in sb {
                        if la == lb {
                            if !gr_arena.ranges_disjoint(ra, rb) {
                                separated = false;
                                break 'pairs;
                            }
                            used_ranges = true;
                        } else if !kinds[la.index()].separable_from(kinds[lb.index()]) {
                            separated = false;
                            break 'pairs;
                        }
                    }
                }
                if separated {
                    Some(if used_ranges {
                        CELL_GLOBAL
                    } else {
                        CELL_DISTINCT
                    })
                } else {
                    None
                }
            }
        };
        if let Some(cell) = global {
            return cell;
        }
        // The local test (`QLR` preconditions, then range disjointness).
        if let (Some(a), Some(b)) = (lp, lq) {
            if a.base == b.base
                && a.block.is_some()
                && a.block == b.block
                && a.sigmas == b.sigmas
                && lr_arena.ranges_disjoint(a.range, b.range)
            {
                return CELL_LOCAL;
            }
        }
        CELL_MAY
    }

    /// The pointer universe of the matrix, in value order.
    pub fn pointers(&self) -> &[ValueId] {
        &self.ptrs
    }

    /// The aggregate [`QueryStats`] of the all-pairs sweep (one
    /// Figure 13/14 row contribution).
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// The cached verdict for `p` vs `q` in `O(1)`; `None` when either
    /// value is outside the matrix's universe. `p == q` answers
    /// `MayAlias` like [`RbaaAnalysis::alias_with_test`].
    pub fn lookup(&self, p: ValueId, q: ValueId) -> Option<(AliasResult, Option<WhichTest>)> {
        let &i = self.pos.get(&p)?;
        let &j = self.pos.get(&q)?;
        if i == j {
            return Some((AliasResult::MayAlias, None));
        }
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        let n = self.ptrs.len();
        let idx = i * (2 * n - i - 1) / 2 + (j - i - 1);
        Some(decode_cell(get_packed(&self.cells, idx)))
    }

    /// Byte accounting of this matrix's packed cell store.
    pub fn bytes(&self) -> MatrixBytes {
        let n = self.ptrs.len();
        let pairs = n * n.saturating_sub(1) / 2;
        MatrixBytes {
            pairs,
            packed_bytes: self.cells.len(),
            unpacked_bytes: pairs,
        }
    }
}

/// Activity counters of one [`DemandCache`] — how much of the pair
/// universe a query stream actually touched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DemandStats {
    /// Queries answered (including `p == q` shortcuts).
    pub queries: usize,
    /// Pointer states interned into signature classes (first sight of a
    /// `(f, value)`; repeats hit the per-pointer memo).
    pub sig_misses: usize,
    /// Signature-pair verdicts proved (first sight of an unordered
    /// signature pair; repeats hit the pair memo).
    pub pair_misses: usize,
}

/// Demand-driven alias queries: answers single `(f, p, q)` pairs
/// against the interned GR/LR states with per-signature-pair
/// memoisation — **no all-pairs matrix build**.
///
/// Where [`AliasMatrix::build_for_on`] pays `O(S²)` signature verdicts
/// plus an `O(P²)` fill up front, a `DemandCache` interns each
/// pointer's state signature the first time a query mentions it and
/// proves each unordered signature pair the first time a query needs
/// it; everything after that is two hash lookups. Verdicts are
/// byte-identical to [`RbaaAnalysis::alias_with_test`] (the
/// `demand_equivalence` rail pins this): the memo key fully determines
/// the inputs of the decision, so caching cannot change an answer.
///
/// The cache is valid only for the analysis it was created from; it
/// borrows nothing, so sessions drop and recreate it on rebuild.
pub struct DemandCache {
    /// Overlay arenas over the GR/LR module arenas — same memoised
    /// comparison machinery the matrix build uses.
    gr_arena: ExprArena,
    lr_arena: ExprArena,
    /// The GR module arena this cache was built over, to catch queries
    /// against a different analysis in debug builds.
    gr_base: Arc<ExprArena>,
    kinds: Vec<LocKind>,
    sigma_ids: FxHashMap<Vec<ValueId>, u32>,
    /// Signature contents by dense id (`sigs[id]` is the interning key
    /// of signature class `id`).
    sigs: Vec<(IGr, Option<ILr>)>,
    sig_ids: FxHashMap<(IGr, Option<ILr>), u32>,
    /// Per-pointer signature memo.
    ptr_sig: FxHashMap<(FuncId, ValueId), u32>,
    /// Per-unordered-signature-pair verdict memo.
    pair_memo: FxHashMap<(u32, u32), u8>,
    stats: DemandStats,
}

impl std::fmt::Debug for DemandCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DemandCache")
            .field("signatures", &self.sigs.len())
            .field("pairs", &self.pair_memo.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl DemandCache {
    /// Starts an empty cache over `rbaa` (see
    /// [`RbaaAnalysis::demand_cache`]).
    pub fn new(rbaa: &RbaaAnalysis) -> Self {
        let locs = rbaa.gr().locs();
        DemandCache {
            gr_arena: ExprArena::with_base(rbaa.gr().arena_arc()),
            lr_arena: ExprArena::with_base(rbaa.lr().arena_arc()),
            gr_base: rbaa.gr().arena_arc(),
            kinds: (0..locs.len())
                .map(|i| locs.site(LocId::new(i)).kind)
                .collect(),
            sigma_ids: FxHashMap::default(),
            sigs: Vec::new(),
            sig_ids: FxHashMap::default(),
            ptr_sig: FxHashMap::default(),
            pair_memo: FxHashMap::default(),
            stats: DemandStats::default(),
        }
    }

    /// Answers one query — byte-identical to
    /// [`RbaaAnalysis::alias_with_test`] on the same `rbaa`.
    ///
    /// `rbaa` must be the analysis this cache was created from (other
    /// analyses' states would be read against the wrong arenas; debug
    /// builds assert the arena identity).
    pub fn query(
        &mut self,
        rbaa: &RbaaAnalysis,
        f: FuncId,
        p: ValueId,
        q: ValueId,
    ) -> (AliasResult, Option<WhichTest>) {
        debug_assert!(
            Arc::ptr_eq(&self.gr_base, &rbaa.gr().arena_arc()),
            "demand cache queried against a different analysis"
        );
        self.stats.queries += 1;
        if p == q {
            return (AliasResult::MayAlias, None);
        }
        let a = self.sig_of(rbaa, f, p);
        let b = self.sig_of(rbaa, f, q);
        let key = if a <= b { (a, b) } else { (b, a) };
        // Split the borrows: the memo entry computation reads `sigs`
        // while mutating the overlay arenas.
        let DemandCache {
            gr_arena,
            lr_arena,
            kinds,
            sigs,
            pair_memo,
            stats,
            ..
        } = self;
        let cell = *pair_memo.entry(key).or_insert_with(|| {
            stats.pair_misses += 1;
            let (ga, la) = &sigs[key.0 as usize];
            let (gb, lb) = &sigs[key.1 as usize];
            AliasMatrix::verdict(gr_arena, lr_arena, kinds, ga, gb, la, lb)
        });
        decode_cell(cell)
    }

    /// The cache's activity counters.
    pub fn stats(&self) -> DemandStats {
        self.stats
    }

    /// Interns the `(GR, LR)` state of `(f, p)` into a signature class,
    /// memoised per pointer. A signature fully determines both states
    /// (exact support handles, base, block, σ-set identity, offset
    /// handles), so equal signatures — even across functions — always
    /// produce equal verdicts.
    fn sig_of(&mut self, rbaa: &RbaaAnalysis, f: FuncId, p: ValueId) -> u32 {
        if let Some(&id) = self.ptr_sig.get(&(f, p)) {
            return id;
        }
        self.stats.sig_misses += 1;
        let st = rbaa.gr().raw_state(f, p);
        let igr = if st.is_bottom() {
            IGr::Bottom
        } else if st.is_top() {
            IGr::Top
        } else {
            IGr::Support(st.support().collect())
        };
        let ilr = rbaa.lr().raw_state(f, p).map(|s| {
            let next = self.sigma_ids.len() as u32;
            let sigmas = *self.sigma_ids.entry(s.sigmas.clone()).or_insert(next);
            ILr {
                base: s.base,
                block: s.block,
                sigmas,
                range: s.range,
            }
        });
        let key = (igr, ilr);
        let id = match self.sig_ids.get(&key) {
            Some(&id) => id,
            None => {
                let id = self.sigs.len() as u32;
                self.sigs.push(key.clone());
                self.sig_ids.insert(key, id);
                id
            }
        };
        self.ptr_sig.insert((f, p), id);
        id
    }
}
// ---------------------------------------------------------------------
// Persistence codecs (see [`crate::persist`]). They live here because
// `AliasMatrix` and `DemandCache` keep their internals private; every
// hash map is emitted in sorted order so saves are byte-deterministic,
// and every decoded id is validated before it is trusted.
// ---------------------------------------------------------------------

use crate::persist::{corrupt, Dec, Enc, PersistError};

impl AliasMatrix {
    pub(crate) fn encode(&self, enc: &mut Enc) {
        enc.usize(self.ptrs.len());
        for &p in &self.ptrs {
            enc.u32(p.index() as u32);
        }
        enc.bytes(&self.cells);
        enc.usize(self.stats.queries);
        enc.usize(self.stats.no_alias);
        enc.usize(self.stats.by_distinct_locs);
        enc.usize(self.stats.by_global);
        enc.usize(self.stats.by_local);
    }

    /// Decodes a matrix whose pointer universe must equal
    /// `expected_ptrs` (the loader passes `pointer_values(m, f)`, which
    /// is what sessions build matrices over).
    pub(crate) fn decode(
        dec: &mut Dec<'_>,
        expected_ptrs: &[ValueId],
    ) -> Result<Self, PersistError> {
        let n = dec.len(4)?;
        if n != expected_ptrs.len() {
            return Err(corrupt("matrix pointer universe does not match the module"));
        }
        let mut ptrs = Vec::with_capacity(n);
        for &want in expected_ptrs {
            let got = ValueId::new(dec.u32()? as usize);
            if got != want {
                return Err(corrupt("matrix pointer universe does not match the module"));
            }
            ptrs.push(got);
        }
        let cells = dec.bytes()?.to_vec();
        let npairs = n * n.saturating_sub(1) / 2;
        if cells.len() != npairs.div_ceil(4) {
            return Err(corrupt("matrix cell store has the wrong length"));
        }
        if npairs % 4 != 0 {
            if let Some(&last) = cells.last() {
                if last >> ((npairs % 4) * 2) != 0 {
                    return Err(corrupt("matrix cell store has nonzero padding bits"));
                }
            }
        }
        let pos = ptrs.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        let stats = QueryStats {
            queries: dec.usize()?,
            no_alias: dec.usize()?,
            by_distinct_locs: dec.usize()?,
            by_global: dec.usize()?,
            by_local: dec.usize()?,
        };
        Ok(AliasMatrix {
            ptrs,
            pos,
            cells,
            stats,
        })
    }
}

impl DemandCache {
    pub(crate) fn encode(&self, enc: &mut Enc) {
        // σ-sets by dense id (invert the interning map).
        let mut sigma_sets: Vec<&[ValueId]> = vec![&[]; self.sigma_ids.len()];
        for (set, &id) in &self.sigma_ids {
            sigma_sets[id as usize] = set;
        }
        enc.usize(sigma_sets.len());
        for set in &sigma_sets {
            enc.usize(set.len());
            for &v in *set {
                enc.u32(v.index() as u32);
            }
        }
        enc.usize(self.sigs.len());
        for (igr, ilr) in &self.sigs {
            match igr {
                IGr::Bottom => enc.u8(0),
                IGr::Top => enc.u8(1),
                IGr::Support(support) => {
                    enc.u8(2);
                    enc.usize(support.len());
                    for &(loc, r) in support {
                        enc.u32(loc.index() as u32);
                        enc.u32(r.index() as u32);
                    }
                }
            }
            match ilr {
                None => enc.u8(0),
                Some(ilr) => {
                    enc.u8(1);
                    match ilr.base {
                        LocalBase::Fresh(s) => {
                            enc.u8(0);
                            enc.u32(s);
                        }
                        LocalBase::Global(g) => {
                            enc.u8(1);
                            enc.u32(g.index() as u32);
                        }
                    }
                    enc.opt_u32(ilr.block.map(|b| b.index() as u32));
                    enc.u32(ilr.sigmas);
                    enc.u32(ilr.range.index() as u32);
                }
            }
        }
        let mut ptr_sig: Vec<(u32, u32, u32)> = self
            .ptr_sig
            .iter()
            .map(|(&(f, v), &id)| (f.index() as u32, v.index() as u32, id))
            .collect();
        ptr_sig.sort_unstable();
        enc.usize(ptr_sig.len());
        for (f, v, id) in ptr_sig {
            enc.u32(f);
            enc.u32(v);
            enc.u32(id);
        }
        let mut pairs: Vec<(u32, u32, u8)> = self
            .pair_memo
            .iter()
            .map(|(&(a, b), &cell)| (a, b, cell))
            .collect();
        pairs.sort_unstable();
        enc.usize(pairs.len());
        for (a, b, cell) in pairs {
            enc.u32(a);
            enc.u32(b);
            enc.u8(cell);
        }
        enc.usize(self.stats.queries);
        enc.usize(self.stats.sig_misses);
        enc.usize(self.stats.pair_misses);
    }

    /// Decodes a cache over `rbaa` (which must be the loaded analysis —
    /// every `RangeId`/`LocId` is validated against its arenas). The
    /// overlay arenas restart empty: they are pure comparison memos, so
    /// verdicts are unaffected.
    pub(crate) fn decode(
        dec: &mut Dec<'_>,
        rbaa: &RbaaAnalysis,
        m: &Module,
    ) -> Result<Self, PersistError> {
        let mut cache = DemandCache::new(rbaa);
        let gr_base = rbaa.gr().arena_arc();
        let lr_base = rbaa.lr().arena_arc();
        let n_sigma = dec.len(8)?;
        for id in 0..n_sigma {
            let len = dec.len(4)?;
            let mut set = Vec::with_capacity(len);
            for _ in 0..len {
                set.push(ValueId::new(dec.u32()? as usize));
            }
            if cache.sigma_ids.insert(set, id as u32).is_some() {
                return Err(corrupt("duplicate σ-set in demand cache"));
            }
        }
        let n_sigs = dec.len(2)?;
        for id in 0..n_sigs {
            let igr = match dec.u8()? {
                0 => IGr::Bottom,
                1 => IGr::Top,
                2 => {
                    let len = dec.len(8)?;
                    let mut support = Vec::with_capacity(len);
                    let mut prev: Option<LocId> = None;
                    for _ in 0..len {
                        let loc = LocId::new(dec.u32()? as usize);
                        if loc.index() >= cache.kinds.len() {
                            return Err(corrupt("signature references unknown location"));
                        }
                        if prev.is_some_and(|p| p.index() >= loc.index()) {
                            return Err(corrupt("signature support is not sorted"));
                        }
                        prev = Some(loc);
                        let r = gr_base
                            .range_id(dec.u32()? as usize)
                            .ok_or_else(|| corrupt("signature references unknown GR range"))?;
                        support.push((loc, r));
                    }
                    IGr::Support(support)
                }
                b => return Err(corrupt(format!("invalid GR-signature tag {b}"))),
            };
            let ilr = match dec.u8()? {
                0 => None,
                1 => {
                    let base = match dec.u8()? {
                        0 => LocalBase::Fresh(dec.u32()?),
                        1 => {
                            let g = sra_ir::GlobalId::new(dec.u32()? as usize);
                            if g.index() >= m.num_globals() {
                                return Err(corrupt("signature references unknown global"));
                            }
                            LocalBase::Global(g)
                        }
                        b => return Err(corrupt(format!("invalid local-base tag {b}"))),
                    };
                    let block = dec.opt_u32()?.map(|b| BlockId::new(b as usize));
                    let sigmas = dec.u32()?;
                    if sigmas as usize >= n_sigma {
                        return Err(corrupt("signature references unknown σ-set"));
                    }
                    let range = lr_base
                        .range_id(dec.u32()? as usize)
                        .ok_or_else(|| corrupt("signature references unknown LR range"))?;
                    Some(ILr {
                        base,
                        block,
                        sigmas,
                        range,
                    })
                }
                b => return Err(corrupt(format!("invalid LR-signature tag {b}"))),
            };
            let key = (igr, ilr);
            if cache.sig_ids.insert(key.clone(), id as u32).is_some() {
                return Err(corrupt("duplicate signature in demand cache"));
            }
            cache.sigs.push(key);
        }
        let n_ptr = dec.len(12)?;
        let mut prev: Option<(u32, u32)> = None;
        for _ in 0..n_ptr {
            let f = dec.u32()?;
            let v = dec.u32()?;
            let id = dec.u32()?;
            if prev.is_some_and(|p| p >= (f, v)) {
                return Err(corrupt("pointer-signature memo is not sorted"));
            }
            prev = Some((f, v));
            let func = FuncId::new(f as usize);
            if func.index() >= m.num_functions()
                || v as usize >= m.function(func).num_values()
                || id as usize >= n_sigs
            {
                return Err(corrupt("pointer-signature memo references unknown ids"));
            }
            cache.ptr_sig.insert((func, ValueId::new(v as usize)), id);
        }
        let n_pairs = dec.len(9)?;
        let mut prev: Option<(u32, u32)> = None;
        for _ in 0..n_pairs {
            let a = dec.u32()?;
            let b = dec.u32()?;
            let cell = dec.u8()?;
            if prev.is_some_and(|p| p >= (a, b)) {
                return Err(corrupt("pair memo is not sorted"));
            }
            prev = Some((a, b));
            if a > b || b as usize >= n_sigs || cell > 3 {
                return Err(corrupt("pair memo references unknown ids"));
            }
            cache.pair_memo.insert((a, b), cell);
        }
        cache.stats = DemandStats {
            queries: dec.usize()?,
            sig_misses: dec.usize()?,
            pair_misses: dec.usize()?,
        };
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sra_ir::{BinOp, Callee, CmpOp, FunctionBuilder};

    /// The paper's Figure 1 end-to-end: the two stores write provably
    /// disjoint regions, disambiguated by the *global* test.
    #[test]
    fn figure1_global_disambiguation() {
        // main: Z = atoi(..); b = malloc(Z); s = malloc(strlen);
        //       prepare(b, Z, s)
        let mut m = Module::new();

        // prepare(p, N, mm):
        //   for (i = p, e = p + N; i < e; i += 2) { *i = 0; *(i+1) = 0xFF }
        //   for (f = e + strlen(m); i < f; i++) { *i = *m; m++ }
        let mut b = FunctionBuilder::new("prepare", &[Ty::Ptr, Ty::Int, Ty::Ptr], None);
        let p = b.param(0);
        let n = b.param(1);
        b.set_name(n, "N");
        let mptr = b.param(2);
        let h1 = b.create_block();
        let bd1 = b.create_block();
        let mid = b.create_block();
        let h2 = b.create_block();
        let bd2 = b.create_block();
        let exit = b.create_block();
        let zero = b.const_int(0);
        let i0 = b.ptr_add(p, zero);
        let e = b.ptr_add(p, n);
        let entry = b.entry_block();
        b.jump(h1);

        b.switch_to(h1);
        let i1 = b.phi(Ty::Ptr, &[(entry, i0)]);
        let c1 = b.cmp(CmpOp::Lt, i1, e);
        b.br(c1, bd1, mid);

        b.switch_to(bd1);
        // store *i = 0 — through the σ of i1 (inserted by essa).
        let ff = b.const_int(0xFF);
        b.store(i1, zero); // will be rewritten to σ(i1) by essa
        let one = b.const_int(1);
        let t0 = b.ptr_add(i1, one);
        b.store(t0, ff);
        let two = b.const_int(2);
        let i3 = b.ptr_add(i1, two);
        b.add_phi_arg(i1, bd1, i3);
        b.jump(h1);

        b.switch_to(mid);
        let len = b.call(Callee::External("strlen".into()), &[mptr], Some(Ty::Int));
        let f2 = b.ptr_add(e, len);
        b.jump(h2);

        b.switch_to(h2);
        let i5 = b.phi(Ty::Ptr, &[(mid, i1)]);
        let m1 = b.phi(Ty::Ptr, &[(mid, mptr)]);
        let c2 = b.cmp(CmpOp::Lt, i5, f2);
        b.br(c2, bd2, exit);

        b.switch_to(bd2);
        let ch = b.load(m1, Ty::Int);
        b.store(i5, ch);
        let m2 = b.ptr_add(m1, one);
        let i7 = b.ptr_add(i5, one);
        b.add_phi_arg(i5, bd2, i7);
        b.add_phi_arg(m1, bd2, m2);
        b.jump(h2);

        b.switch_to(exit);
        b.ret(None);
        let mut fprep = b.finish();
        sra_ir::essa::run(&mut fprep);
        sra_ir::verify::verify_function(&fprep, None).expect("verified");
        let prep = m.add_function(fprep);

        // main:
        let mut b = FunctionBuilder::new("main", &[], None);
        let z = b.call(Callee::External("atoi".into()), &[], Some(Ty::Int));
        let buf = b.malloc(z);
        let slen = b.call(Callee::External("strlen".into()), &[], Some(Ty::Int));
        let s = b.malloc(slen);
        b.call(Callee::Internal(prep), &[buf, z, s], None);
        b.ret(None);
        m.add_function(b.finish());

        sra_ir::verify::verify_module(&m).expect("module verified");
        let rbaa = RbaaAnalysis::analyze(&m);

        // The store addresses: σ(i1) in bd1 (first loop) and σ(i5) in
        // bd2 (second loop).
        let f = m.function(prep);
        let sig1 = f
            .value_ids()
            .find(|&v| {
                matches!(f.value(v).as_inst(),
                    Some(sra_ir::Inst::Sigma { input, op: CmpOp::Lt, .. }) if *input == i1)
            })
            .expect("σ(i1)");
        let sig2 = f
            .value_ids()
            .find(|&v| {
                matches!(f.value(v).as_inst(),
                    Some(sra_ir::Inst::Sigma { input, op: CmpOp::Lt, .. }) if *input == i5)
            })
            .expect("σ(i5)");

        let (res, test) = rbaa.alias_with_test(prep, sig1, sig2);
        assert_eq!(
            res,
            AliasResult::NoAlias,
            "stores at lines 6 and 10 are independent"
        );
        assert_eq!(test, Some(WhichTest::Global));

        // Complementarity: σ(i1) vs t0 = σ(i1)+1 overlaps globally
        // ([0,N-1] vs [1,N]) but the *local* test separates them within
        // an iteration — the Figure 4 situation.
        let (res, test) = rbaa.alias_with_test(prep, sig1, t0);
        assert_eq!(res, AliasResult::NoAlias);
        assert_eq!(test, Some(WhichTest::Local));
        // And the φ i1 vs its own σ may alias (same address).
        let (res, _) = rbaa.alias_with_test(prep, i1, sig1);
        assert_eq!(res, AliasResult::MayAlias);
    }

    /// The paper's Figure 3/4: tmp0 = p+i, tmp1 = p+i+1 — the global
    /// test fails but the local test separates them.
    #[test]
    fn figure3_local_disambiguation() {
        let mut b = FunctionBuilder::new("accelerate", &[Ty::Ptr, Ty::Int], None);
        let p = b.param(0);
        let n = b.param(1);
        b.set_name(n, "N");
        let head = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        let zero = b.const_int(0);
        let entry = b.entry_block();
        b.jump(head);
        b.switch_to(head);
        let i = b.phi(Ty::Int, &[(entry, zero)]);
        let c = b.cmp(CmpOp::Lt, i, n);
        b.br(c, body, exit);
        b.switch_to(body);
        let tmp0 = b.ptr_add(p, i);
        let one = b.const_int(1);
        let ip1 = b.binop(BinOp::Add, i, one);
        let tmp1 = b.ptr_add(p, ip1);
        let x = b.load(tmp0, Ty::Int);
        b.store(tmp0, x);
        let y = b.load(tmp1, Ty::Int);
        b.store(tmp1, y);
        let two = b.const_int(2);
        let i2 = b.binop(BinOp::Add, i, two);
        b.add_phi_arg(i, body, i2);
        b.jump(head);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        f.set_exported(true);
        sra_ir::essa::run(&mut f);
        let mut m = Module::new();
        let fid = m.add_function(f);
        let rbaa = RbaaAnalysis::analyze(&m);

        let (res, test) = rbaa.alias_with_test(fid, tmp0, tmp1);
        assert_eq!(res, AliasResult::NoAlias);
        assert_eq!(
            test,
            Some(WhichTest::Local),
            "only the local test separates them"
        );
    }

    /// Distinct malloc sites never alias (global test).
    #[test]
    fn distinct_mallocs_no_alias() {
        let mut b = FunctionBuilder::new("main", &[], None);
        let ten = b.const_int(10);
        let p = b.malloc(ten);
        let q = b.malloc(ten);
        b.ret(None);
        let mut m = Module::new();
        let fid = m.add_function(b.finish());
        let rbaa = RbaaAnalysis::analyze(&m);
        let (res, test) = rbaa.alias_with_test(fid, p, q);
        assert_eq!(res, AliasResult::NoAlias);
        assert_eq!(test, Some(WhichTest::DistinctLocs));
    }

    /// Two pointer params of an exported function may alias — distinct
    /// Unknown locations never separate.
    #[test]
    fn unknown_params_may_alias() {
        let mut b = FunctionBuilder::new("api", &[Ty::Ptr, Ty::Ptr], None);
        let p = b.param(0);
        let q = b.param(1);
        b.ret(None);
        let mut f = b.finish();
        f.set_exported(true);
        let mut m = Module::new();
        let fid = m.add_function(f);
        let rbaa = RbaaAnalysis::analyze(&m);
        assert_eq!(rbaa.alias(fid, p, q), AliasResult::MayAlias);
        // But offsets from the *same* param are still separable.
        let mut b = FunctionBuilder::new("api2", &[Ty::Ptr], None);
        let p = b.param(0);
        let one = b.const_int(1);
        let a = b.ptr_add(p, one);
        let two = b.const_int(2);
        let c = b.ptr_add(p, two);
        b.ret(None);
        let mut f = b.finish();
        f.set_exported(true);
        let fid2 = m.add_function(f);
        let rbaa = RbaaAnalysis::analyze(&m);
        assert_eq!(rbaa.alias(fid2, a, c), AliasResult::NoAlias);
    }

    /// A loaded pointer (⊤) may alias everything.
    #[test]
    fn loaded_pointer_top() {
        let mut b = FunctionBuilder::new("main", &[], None);
        let ten = b.const_int(10);
        let p = b.malloc(ten);
        let q = b.load(p, Ty::Ptr);
        let r = b.malloc(ten);
        b.ret(None);
        let mut m = Module::new();
        let fid = m.add_function(b.finish());
        let rbaa = RbaaAnalysis::analyze(&m);
        assert_eq!(rbaa.alias(fid, q, r), AliasResult::MayAlias);
        assert_eq!(rbaa.alias(fid, q, p), AliasResult::MayAlias);
    }

    /// Freed pointers concretize to ∅.
    #[test]
    fn freed_pointer_no_alias() {
        let mut b = FunctionBuilder::new("main", &[], None);
        let ten = b.const_int(10);
        let p = b.malloc(ten);
        let dead = b.free(p);
        b.ret(None);
        let mut m = Module::new();
        let fid = m.add_function(b.finish());
        let rbaa = RbaaAnalysis::analyze(&m);
        assert_eq!(rbaa.alias(fid, dead, p), AliasResult::NoAlias);
    }

    /// QueryStats totals add up.
    #[test]
    fn query_stats_accumulate() {
        let mut b = FunctionBuilder::new("main", &[], None);
        let ten = b.const_int(10);
        let p = b.malloc(ten);
        let _q = b.malloc(ten);
        let one = b.const_int(1);
        let _p1 = b.ptr_add(p, one);
        b.ret(None);
        let mut m = Module::new();
        let fid = m.add_function(b.finish());
        let rbaa = RbaaAnalysis::analyze(&m);
        let ptrs = pointer_values(&m, fid);
        assert_eq!(ptrs.len(), 3);
        let stats = QueryStats::run_pairs(&rbaa, fid, &ptrs);
        assert_eq!(stats.queries, 3);
        // p vs q and p1 vs q are separated by sites (distinct locs);
        // p vs p1 share a loc with provably disjoint ranges (global).
        assert_eq!(stats.no_alias, 3);
        assert_eq!(stats.by_distinct_locs, 2);
        assert_eq!(stats.by_global, 1);
        assert!(stats.percent_no_alias() > 99.0);
    }

    /// Functions with zero pointer pairs — no pointers at all, or a
    /// single pointer — must produce an empty matrix and all-zero
    /// stats with finite percentages, not NaN or a panic.
    #[test]
    fn empty_and_single_pointer_functions_yield_empty_matrices() {
        // percent_no_alias at zero queries is 0.0, not NaN.
        let zero = QueryStats::default();
        assert_eq!(zero.queries, 0);
        assert_eq!(zero.percent_no_alias(), 0.0);
        assert!(zero.percent_no_alias().is_finite());

        let mut m = Module::new();
        // An addressless function: integers only.
        let mut b = FunctionBuilder::new("ints", &[Ty::Int], Some(Ty::Int));
        let n = b.param(0);
        let one = b.const_int(1);
        let n1 = b.binop(BinOp::Add, n, one);
        b.ret(Some(n1));
        let ints = m.add_function(b.finish());
        // A single-pointer function: one malloc, zero pairs.
        let mut b = FunctionBuilder::new("one_ptr", &[], None);
        let eight = b.const_int(8);
        let p = b.malloc(eight);
        b.ret(None);
        let one_ptr = m.add_function(b.finish());
        sra_ir::verify::verify_module(&m).expect("verifies");

        let rbaa = RbaaAnalysis::analyze(&m);
        for f in [ints, one_ptr] {
            let matrix = AliasMatrix::build(&rbaa, &m, f);
            assert_eq!(matrix.stats().queries, 0, "{f}");
            assert_eq!(matrix.stats().no_alias, 0, "{f}");
            assert_eq!(matrix.stats().percent_no_alias(), 0.0, "{f}");
        }
        // The empty matrix answers lookups about outsiders with None…
        let matrix = AliasMatrix::build(&rbaa, &m, ints);
        assert!(matrix.pointers().is_empty());
        assert_eq!(matrix.lookup(n, n1), None);
        // …and the single-pointer matrix still covers its diagonal.
        let matrix = AliasMatrix::build(&rbaa, &m, one_ptr);
        assert_eq!(matrix.pointers(), &[p]);
        assert_eq!(matrix.lookup(p, p), Some((AliasResult::MayAlias, None)));
    }

    /// Regression (found by the pipeline deep fuzz): the local test
    /// must not compare offsets taken through *different* σs of the
    /// same φ. In `while (p < e) { *p = x; p = p + 1; }` the body's
    /// `p+1` (σ_< instance of iteration k) and the exit pointer (σ_≥
    /// instance after the last iteration) both read the loop-φ, but at
    /// different instants: with exactly one iteration both concretely
    /// equal `base+1`, so a `NoAlias` verdict would be unsound.
    #[test]
    fn sigma_instances_are_not_comparable_locally() {
        let mut b = FunctionBuilder::new("walk", &[], None);
        let size = b.const_int(8);
        let buf = b.malloc(size);
        let head = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        let one = b.const_int(1);
        let end = b.ptr_add(buf, one); // e = buf + 1: a single iteration
        let entry = b.current_block();
        b.jump(head);
        b.switch_to(head);
        let p = b.phi(Ty::Ptr, &[(entry, buf)]);
        let c = b.cmp(CmpOp::Lt, p, end);
        b.br(c, body, exit);
        b.switch_to(body);
        let zero = b.const_int(0);
        b.store(p, zero);
        let pnext = b.ptr_add(p, one);
        b.add_phi_arg(p, body, pnext);
        b.jump(head);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        f.set_exported(true);
        sra_ir::essa::run(&mut f);
        let mut m = Module::new();
        let fid = m.add_function(f);
        sra_ir::verify::verify_module(&m).expect("verifies");

        let rbaa = RbaaAnalysis::analyze(&m);
        let f = m.function(fid);
        let exit_sigma = f
            .value_ids()
            .find(|&v| {
                matches!(f.value(v).as_inst(),
                    Some(sra_ir::Inst::Sigma { input, op: CmpOp::Ge, .. }) if *input == p)
            })
            .expect("exit σ of the loop φ");
        // `pnext` was rewritten by e-SSA to add from the body σ; its LR
        // offset is [1,1] while the exit σ's is [0,0] — yet both can be
        // `buf+1` at run time. The σ-chain guard must reject the pair.
        assert_eq!(
            rbaa.alias(fid, pnext, exit_sigma),
            AliasResult::MayAlias,
            "offsets from different σ instances of one φ are incomparable"
        );
    }

    /// A module whose pointers exercise every cell code: distinct
    /// mallocs (DistinctLocs), same-base disjoint offsets (Global),
    /// a loaded pointer (⊤ → MayAlias) and a freed one (⊥).
    fn mixed_pointer_module() -> (Module, FuncId) {
        let mut b = FunctionBuilder::new("mixed", &[], None);
        let ten = b.const_int(10);
        let p = b.malloc(ten);
        let q = b.malloc(ten);
        for off in 0..6 {
            let c = b.const_int(off);
            let base = if off % 2 == 0 { p } else { q };
            let _ = b.ptr_add(base, c);
        }
        let _top = b.load(p, Ty::Ptr);
        let _dead = b.free(q);
        b.ret(None);
        let mut m = Module::new();
        let fid = m.add_function(b.finish());
        sra_ir::verify::verify_module(&m).expect("verifies");
        (m, fid)
    }

    /// The tiled parallel build must be byte-identical to the serial
    /// one: same verdicts on every pair, same stats, same byte layout.
    #[test]
    fn parallel_build_matches_serial() {
        let (m, fid) = mixed_pointer_module();
        let rbaa = RbaaAnalysis::analyze(&m);
        let ptrs = pointer_values(&m, fid);
        let serial = AliasMatrix::build(&rbaa, &m, fid);
        for threads in [2, 4, 7] {
            let tiled = AliasMatrix::build_with(&rbaa, &m, fid, threads);
            assert_eq!(serial.stats(), tiled.stats(), "t{threads}");
            assert_eq!(serial.bytes(), tiled.bytes(), "t{threads}");
            assert_eq!(serial.cells, tiled.cells, "t{threads}");
            for &p in &ptrs {
                for &q in &ptrs {
                    assert_eq!(serial.lookup(p, q), tiled.lookup(p, q));
                }
            }
        }
    }

    /// The module-sweep build (shared scratch overlays reused across
    /// every function of a chunk) must be cell-for-cell identical to
    /// per-function builds — memoisation carried across functions can
    /// never change a verdict, at any pool width.
    #[test]
    fn build_all_matches_per_function_builds() {
        let mut m = Module::new();
        let mut fids = Vec::new();
        for i in 0..5 {
            let mut b = FunctionBuilder::new(&format!("f{i}"), &[Ty::Int], None);
            let n = b.param(0);
            let p = b.malloc(n);
            let q = b.malloc(n);
            for off in 0..4 {
                let c = b.const_int(off + i);
                let base = if off % 2 == 0 { p } else { q };
                let _ = b.ptr_add(base, c);
            }
            b.ret(None);
            fids.push(m.add_function(b.finish()));
        }
        sra_ir::verify::verify_module(&m).expect("verifies");
        let rbaa = RbaaAnalysis::analyze(&m);
        let reference: Vec<AliasMatrix> = fids
            .iter()
            .map(|&f| AliasMatrix::build(&rbaa, &m, f))
            .collect();
        for threads in [1, 2, 4] {
            let pool = pool::WorkerPool::forced(threads);
            let swept = AliasMatrix::build_all_on(&rbaa, &m, &pool);
            assert_eq!(swept.len(), reference.len(), "t{threads}");
            for (serial, sweep) in reference.iter().zip(&swept) {
                assert_eq!(serial.stats(), sweep.stats(), "t{threads}");
                assert_eq!(serial.cells, sweep.cells, "t{threads}");
                assert_eq!(serial.ptrs, sweep.ptrs, "t{threads}");
            }
        }
    }

    /// Cells pack four verdicts per byte, and the accounting says so.
    #[test]
    fn packed_cells_quarter_the_bytes() {
        let (m, fid) = mixed_pointer_module();
        let rbaa = RbaaAnalysis::analyze(&m);
        let matrix = AliasMatrix::build(&rbaa, &m, fid);
        let n = matrix.pointers().len();
        let pairs = n * (n - 1) / 2;
        let bytes = matrix.bytes();
        assert_eq!(bytes.pairs, pairs);
        assert_eq!(bytes.unpacked_bytes, pairs);
        assert_eq!(bytes.packed_bytes, pairs.div_ceil(4));
        assert!(bytes.saving_ratio() >= 3.0, "{:?}", bytes);
        let mut total = MatrixBytes::default();
        total.merge(&bytes);
        total.merge(&bytes);
        assert_eq!(total.pairs, 2 * pairs);
        assert_eq!(MatrixBytes::default().saving_ratio(), 0.0);
    }

    /// Demand-driven answers are byte-identical to the uncached
    /// reference, and repeats hit the memo instead of re-proving.
    #[test]
    fn demand_cache_matches_reference_and_memoises() {
        let (m, fid) = mixed_pointer_module();
        let rbaa = RbaaAnalysis::analyze(&m);
        let ptrs = pointer_values(&m, fid);
        let mut cache = rbaa.demand_cache();
        for &p in &ptrs {
            for &q in &ptrs {
                assert_eq!(
                    cache.query(&rbaa, fid, p, q),
                    rbaa.alias_with_test(fid, p, q)
                );
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.queries, ptrs.len() * ptrs.len());
        assert_eq!(stats.sig_misses, ptrs.len());
        // Pair verdicts are proved per signature class, not per pair.
        let s = stats.sig_misses;
        assert!(stats.pair_misses <= s * (s + 1) / 2);
        // A repeat query is pure memo traffic.
        let before = cache.stats();
        cache.query(&rbaa, fid, ptrs[0], ptrs[1]);
        let after = cache.stats();
        assert_eq!(after.sig_misses, before.sig_misses);
        assert_eq!(after.pair_misses, before.pair_misses);
        assert_eq!(after.queries, before.queries + 1);
    }

    /// A single cold query proves only the one signature pair it
    /// needs — the "no full matrix build" property of demand mode.
    #[test]
    fn demand_single_query_touches_one_pair() {
        let (m, fid) = mixed_pointer_module();
        let rbaa = RbaaAnalysis::analyze(&m);
        let ptrs = pointer_values(&m, fid);
        let mut cache = rbaa.demand_cache();
        let (p, q) = (ptrs[0], ptrs[1]);
        assert_eq!(
            cache.query(&rbaa, fid, p, q),
            rbaa.alias_with_test(fid, p, q)
        );
        let stats = cache.stats();
        assert_eq!(stats.sig_misses, 2, "only the two queried pointers");
        assert_eq!(stats.pair_misses, 1, "only the one queried pair");
    }

    /// Regression (code review of the σ-chain fix): the instance
    /// confusion also flows through *integer* σs. In
    /// `for (i = 0; i < n; i++) *(p+i) = 0; *(p + (i-1)) = 1;` the
    /// body store uses σ_<(i) (iteration k) and the post-loop store
    /// uses σ_≥(i) − 1 (after the last iteration); with one iteration
    /// both are `p+0`, so ranges [i,i] vs [i−1,i−1] must not be
    /// compared even though no pointer-typed σ is involved.
    #[test]
    fn int_sigma_instances_are_not_comparable_locally() {
        let mut b = FunctionBuilder::new("tail", &[Ty::Ptr, Ty::Int], None);
        let p = b.param(0);
        let n = b.param(1);
        let head = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        let zero = b.const_int(0);
        let entry = b.current_block();
        b.jump(head);
        b.switch_to(head);
        let i = b.phi(Ty::Int, &[(entry, zero)]);
        let c = b.cmp(CmpOp::Lt, i, n);
        b.br(c, body, exit);
        b.switch_to(body);
        let body_addr = b.ptr_add(p, i); // i rewritten to σ_<(i) by e-SSA
        b.store(body_addr, zero);
        let one = b.const_int(1);
        let inext = b.binop(BinOp::Add, i, one);
        b.add_phi_arg(i, body, inext);
        b.jump(head);
        b.switch_to(exit);
        let neg_one = b.const_int(-1);
        let im1 = b.binop(BinOp::Add, i, neg_one); // σ_≥(i) − 1
        let tail_addr = b.ptr_add(p, im1);
        b.store(tail_addr, one);
        b.ret(None);
        let mut f = b.finish();
        f.set_exported(true);
        sra_ir::essa::run(&mut f);
        let mut m = Module::new();
        let fid = m.add_function(f);
        sra_ir::verify::verify_module(&m).expect("verifies");

        let rbaa = RbaaAnalysis::analyze(&m);
        assert_eq!(
            rbaa.alias(fid, body_addr, tail_addr),
            AliasResult::MayAlias,
            "offsets through different int-σ instances are incomparable"
        );
    }
}
