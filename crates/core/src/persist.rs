//! Versioned snapshot persistence for warm-started sessions.
//!
//! [`AnalysisSession::save`](crate::AnalysisSession::save) serializes
//! a session's complete analysis state — module, the bootstrap ranges
//! and LR states with their module arenas and symbol tables, the
//! interprocedural GR fixpoint (canonical arena included),
//! component caches, packed alias matrices and demand-cache signatures
//! — into a length-prefixed, checksummed binary stream;
//! [`AnalysisSession::load`](crate::AnalysisSession::load) restores it
//! without re-running any analysis, so a million-instruction module
//! answers its first query in load time instead of analysis time.
//!
//! # Format
//!
//! ```text
//! magic "SRA1SNAP" | format version (u32) | AnalysisConfig header
//! section*: tag (u8) | payload len (u64) | payload | checksum (u64)
//! END section
//! ```
//!
//! Everything is little-endian. Each section's checksum is an
//! [`FxHasher`] digest of its payload bytes, so truncation and
//! bit-flips are detected per section. Loads are *checked*: every
//! index is validated against the tables it points into, expression
//! arenas are re-interned node by node (rejecting forward references
//! and non-canonical nodes), and the restored module passes the IR
//! verifier before any state is attached to it. A corrupted, truncated
//! or version-skewed stream fails with a structured [`PersistError`] —
//! never a panic — and with
//! [`AnalysisConfig::load_verify`](crate::AnalysisConfig::load_verify)
//! the loaded state is additionally compared against a scratch
//! re-analysis before being returned.
//!
//! The demand cache's memo arenas and the alias matrices' position
//! index are pure caches: they are rebuilt (or regrown lazily) after a
//! load and never serialized, keeping snapshots small and verdicts
//! unchanged.
//!
//! Format version 2 length-frames every per-function item inside the
//! range, LR, GR-state and matrix sections (`Enc::nested`), so a loader
//! can split a section into independent byte slices up front and
//! decode the items on its worker pool — the framing is what makes the
//! parallel warm-start load possible. Saves stay byte-deterministic.
//!
//! Format version 3 extends the component section with the GR solve's
//! per-function sweep record (see
//! [`AnalysisSession`](crate::AnalysisSession)'s edit slice), a
//! `u32` per function.
//!
//! Format version 4 stores the range and LR sections the way the GR
//! section is stored: the assembled module arena, the symbol-table
//! length, then per function a frame of range ids or LR states followed
//! by the names of the function's symbol block. A load decodes them
//! straight into the assembled analyses, with no per-function part
//! arenas and no re-assembly. Older streams fail to load with
//! [`PersistError::UnsupportedVersion`].

use std::fmt;
use std::hash::Hasher;
use std::io::{self, Read, Write};

use sra_symbolic::FxHasher;

/// The stream magic: identifies a session snapshot.
pub const MAGIC: [u8; 8] = *b"SRA1SNAP";
/// The service-stream magic: a saved [`crate::AliasService`] (tenant
/// table wrapping per-tenant session snapshots).
pub const SERVICE_MAGIC: [u8; 8] = *b"SRA1SERV";
/// Bumped on any incompatible change to the layout. Loaders reject
/// other versions with [`PersistError::UnsupportedVersion`].
/// Version 2 added per-item length framing to the part, GR-state and
/// matrix sections so loads can decode them in parallel. Version 3
/// records the module-wide GR trip flag once and, per function, the
/// last ascending sweep that changed it, so the first edit after a load
/// re-solves only its slice. Version 4 replaces the per-function range
/// and LR parts with the assembled module arenas.
pub const FORMAT_VERSION: u32 = 4;

/// Section tags, in stream order.
pub(crate) mod tag {
    pub const CONFIG: u8 = 0;
    pub const MODULE: u8 = 1;
    pub const RANGES: u8 = 2;
    pub const LR: u8 = 3;
    pub const GR: u8 = 4;
    pub const COMPONENTS: u8 = 5;
    pub const MATRICES: u8 = 6;
    pub const DEMAND: u8 = 7;
    pub const STATS: u8 = 8;
    pub const TENANT: u8 = 9;
    pub const END: u8 = 0xFF;
}

/// Why a snapshot failed to save or load. Loads never panic on bad
/// input; they return one of these.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// The stream does not start with the snapshot magic.
    BadMagic,
    /// The stream was written by an incompatible format version.
    UnsupportedVersion(u32),
    /// The stream ended inside a header, section or payload.
    Truncated,
    /// A section's payload does not match its stored checksum.
    ChecksumMismatch {
        /// The tag of the failing section.
        section: u8,
    },
    /// The stream decoded but its contents are inconsistent — an
    /// out-of-range index, a non-canonical arena node, a module that
    /// fails verification, …
    Corrupt(String),
    /// `load_verify` was requested and the loaded state differs from a
    /// scratch re-analysis of the restored module.
    VerifyFailed(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a session snapshot (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (supported: {FORMAT_VERSION})"
                )
            }
            PersistError::Truncated => write!(f, "snapshot stream is truncated"),
            PersistError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in snapshot section {section:#x}")
            }
            PersistError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            PersistError::VerifyFailed(why) => {
                write!(
                    f,
                    "loaded snapshot failed verification against scratch: {why}"
                )
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        // An unexpected EOF mid-read means the stream was cut short.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            PersistError::Truncated
        } else {
            PersistError::Io(e)
        }
    }
}

/// Shorthand for a payload-level inconsistency.
pub(crate) fn corrupt(why: impl Into<String>) -> PersistError {
    PersistError::Corrupt(why.into())
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

// ---------------------------------------------------------------------
// Primitive little-endian encoding into an in-memory section buffer.
// ---------------------------------------------------------------------

/// An encoder for one section's payload.
#[derive(Default)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i128(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Encodes a sub-payload with a leading byte length
    /// (readable back with [`Dec::bytes`]) — the framing that lets a
    /// loader split a section into independently decodable slices.
    pub fn nested(&mut self, f: impl FnOnce(&mut Enc)) {
        let mut sub = Enc::new();
        f(&mut sub);
        self.bytes(&sub.buf);
    }

    pub fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
        }
    }

    /// Writes this payload as one framed section: tag, length, bytes,
    /// checksum.
    pub fn finish_section(self, w: &mut impl Write, tag: u8) -> Result<(), PersistError> {
        w.write_all(&[tag])?;
        w.write_all(&(self.buf.len() as u64).to_le_bytes())?;
        w.write_all(&self.buf)?;
        w.write_all(&checksum(&self.buf).to_le_bytes())?;
        Ok(())
    }
}

/// Writes the zero-payload END section.
pub(crate) fn write_end(w: &mut impl Write) -> Result<(), PersistError> {
    Enc::new().finish_section(w, tag::END)
}

// ---------------------------------------------------------------------
// Bounded decoding out of a checksum-verified section buffer.
// ---------------------------------------------------------------------

/// A decoder over one section's verified payload. Every read is
/// bounds-checked; running off the end is [`PersistError::Truncated`].
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i128(&mut self) -> Result<i128, PersistError> {
        Ok(i128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Result<usize, PersistError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| corrupt("length overflows the address space"))
    }

    /// A collection length that must be plausible for elements of at
    /// least `min_elem_bytes` in the remaining payload — rejecting
    /// bogus lengths before any allocation is sized by them.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, PersistError> {
        let n = self.usize()?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(PersistError::Truncated);
        }
        Ok(n)
    }

    pub fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("invalid bool byte {b}"))),
        }
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let n = self.len(1)?;
        self.take(n)
    }

    pub fn str(&mut self) -> Result<String, PersistError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| corrupt("invalid utf-8 string"))
    }

    pub fn opt_u32(&mut self) -> Result<Option<u32>, PersistError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            b => Err(corrupt(format!("invalid option byte {b}"))),
        }
    }

    /// The payload must be fully consumed; trailing bytes mean the
    /// reader and writer disagree about the layout.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(corrupt(format!(
                "{} trailing bytes in section",
                self.remaining()
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Stream-level framing.
// ---------------------------------------------------------------------

/// Writes the stream header (magic + version).
pub(crate) fn write_header(w: &mut impl Write, magic: &[u8; 8]) -> Result<(), PersistError> {
    w.write_all(magic)?;
    w.write_all(&FORMAT_VERSION.to_le_bytes())?;
    Ok(())
}

/// Reads and validates the stream header.
pub(crate) fn read_header(r: &mut impl Read, magic: &[u8; 8]) -> Result<(), PersistError> {
    let mut got = [0u8; 8];
    r.read_exact(&mut got)?;
    if &got != magic {
        return Err(PersistError::BadMagic);
    }
    let mut v = [0u8; 4];
    r.read_exact(&mut v)?;
    let version = u32::from_le_bytes(v);
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    Ok(())
}

/// Reads one framed section: `(tag, verified payload)`. The payload is
/// read through [`Read::take`], so a bogus length cannot trigger an
/// outsized allocation — the stream simply runs dry first.
pub(crate) fn read_section(r: &mut impl Read) -> Result<(u8, Vec<u8>), PersistError> {
    let mut tag_b = [0u8; 1];
    r.read_exact(&mut tag_b)?;
    let mut len_b = [0u8; 8];
    r.read_exact(&mut len_b)?;
    let len = u64::from_le_bytes(len_b);
    let mut payload = Vec::new();
    r.take(len).read_to_end(&mut payload)?;
    if payload.len() as u64 != len {
        return Err(PersistError::Truncated);
    }
    let mut sum_b = [0u8; 8];
    r.read_exact(&mut sum_b)?;
    if u64::from_le_bytes(sum_b) != checksum(&payload) {
        return Err(PersistError::ChecksumMismatch { section: tag_b[0] });
    }
    Ok((tag_b[0], payload))
}

/// Reads a section and checks its tag against the expected one.
pub(crate) fn expect_section(r: &mut impl Read, want: u8) -> Result<Vec<u8>, PersistError> {
    let (tag, payload) = read_section(r)?;
    if tag != want {
        return Err(corrupt(format!(
            "expected section {want:#x}, found {tag:#x}"
        )));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------
// ExprArena codec: nodes in stored topological order, ids implicit.
// ---------------------------------------------------------------------

use sra_ir::{
    BinOp, BlockData, BlockId, Callee, CmpOp, FuncId, Function, GlobalId, Inst, Module, Terminator,
    Ty, ValueData, ValueId, ValueKind,
};
use sra_symbolic::{ExprArena, RawAtom, RawBound, RawExprNode, RawRangeNode};

pub(crate) fn encode_arena(enc: &mut Enc, arena: &ExprArena) {
    let (exprs, ranges) = arena.export_raw();
    enc.usize(exprs.len());
    for e in &exprs {
        enc.i128(e.constant);
        enc.usize(e.terms.len());
        for (atoms, coeff) in &e.terms {
            enc.i128(*coeff);
            enc.usize(atoms.len());
            for a in atoms {
                match a {
                    RawAtom::Sym(s) => {
                        enc.u8(0);
                        enc.u32(*s);
                    }
                    RawAtom::Min(x, y) => {
                        enc.u8(1);
                        enc.u32(*x);
                        enc.u32(*y);
                    }
                    RawAtom::Max(x, y) => {
                        enc.u8(2);
                        enc.u32(*x);
                        enc.u32(*y);
                    }
                    RawAtom::Div(x, y) => {
                        enc.u8(3);
                        enc.u32(*x);
                        enc.u32(*y);
                    }
                    RawAtom::Mod(x, y) => {
                        enc.u8(4);
                        enc.u32(*x);
                        enc.u32(*y);
                    }
                }
            }
        }
    }
    enc.usize(ranges.len());
    for r in &ranges {
        match r {
            RawRangeNode::Empty => enc.u8(0),
            RawRangeNode::Interval(lo, hi) => {
                enc.u8(1);
                for b in [lo, hi] {
                    match b {
                        RawBound::NegInf => enc.u8(0),
                        RawBound::PosInf => enc.u8(1),
                        RawBound::Fin(e) => {
                            enc.u8(2);
                            enc.u32(*e);
                        }
                    }
                }
            }
        }
    }
}

pub(crate) fn decode_arena(dec: &mut Dec<'_>) -> Result<ExprArena, PersistError> {
    let n_exprs = dec.len(17)?;
    let mut exprs = Vec::with_capacity(n_exprs);
    for _ in 0..n_exprs {
        let constant = dec.i128()?;
        let n_terms = dec.len(17)?;
        let mut terms = Vec::with_capacity(n_terms);
        for _ in 0..n_terms {
            let coeff = dec.i128()?;
            let n_atoms = dec.len(5)?;
            let mut atoms = Vec::with_capacity(n_atoms);
            for _ in 0..n_atoms {
                let atom = match dec.u8()? {
                    0 => RawAtom::Sym(dec.u32()?),
                    1 => RawAtom::Min(dec.u32()?, dec.u32()?),
                    2 => RawAtom::Max(dec.u32()?, dec.u32()?),
                    3 => RawAtom::Div(dec.u32()?, dec.u32()?),
                    4 => RawAtom::Mod(dec.u32()?, dec.u32()?),
                    b => return Err(corrupt(format!("invalid atom tag {b}"))),
                };
                atoms.push(atom);
            }
            terms.push((atoms, coeff));
        }
        exprs.push(RawExprNode { constant, terms });
    }
    let n_ranges = dec.len(1)?;
    let mut ranges = Vec::with_capacity(n_ranges);
    for _ in 0..n_ranges {
        let node = match dec.u8()? {
            0 => RawRangeNode::Empty,
            1 => {
                let mut bound = || -> Result<RawBound, PersistError> {
                    Ok(match dec.u8()? {
                        0 => RawBound::NegInf,
                        1 => RawBound::PosInf,
                        2 => RawBound::Fin(dec.u32()?),
                        b => return Err(corrupt(format!("invalid bound tag {b}"))),
                    })
                };
                let lo = bound()?;
                let hi = bound()?;
                RawRangeNode::Interval(lo, hi)
            }
            b => return Err(corrupt(format!("invalid range tag {b}"))),
        };
        ranges.push(node);
    }
    ExprArena::from_raw(&exprs, &ranges).map_err(|e| corrupt(format!("arena rejected: {e}")))
}

// ---------------------------------------------------------------------
// Module codec.
// ---------------------------------------------------------------------

fn encode_ty(enc: &mut Enc, ty: Ty) {
    enc.u8(match ty {
        Ty::Ptr => 0,
        Ty::Int => 1,
    });
}

fn decode_ty(dec: &mut Dec<'_>) -> Result<Ty, PersistError> {
    match dec.u8()? {
        0 => Ok(Ty::Ptr),
        1 => Ok(Ty::Int),
        b => Err(corrupt(format!("invalid type tag {b}"))),
    }
}

fn encode_opt_ty(enc: &mut Enc, ty: Option<Ty>) {
    match ty {
        None => enc.u8(0xFF),
        Some(t) => encode_ty(enc, t),
    }
}

fn decode_opt_ty(dec: &mut Dec<'_>) -> Result<Option<Ty>, PersistError> {
    match dec.u8()? {
        0xFF => Ok(None),
        0 => Ok(Some(Ty::Ptr)),
        1 => Ok(Some(Ty::Int)),
        b => Err(corrupt(format!("invalid optional-type tag {b}"))),
    }
}

fn encode_inst(enc: &mut Enc, inst: &Inst) {
    match inst {
        Inst::Malloc { size } => {
            enc.u8(0);
            enc.u32(size.index() as u32);
        }
        Inst::Alloca { size } => {
            enc.u8(1);
            enc.u32(size.index() as u32);
        }
        Inst::Free { ptr } => {
            enc.u8(2);
            enc.u32(ptr.index() as u32);
        }
        Inst::PtrAdd { base, offset } => {
            enc.u8(3);
            enc.u32(base.index() as u32);
            enc.u32(offset.index() as u32);
        }
        Inst::IntBin { op, lhs, rhs } => {
            enc.u8(4);
            enc.u8(*op as u8);
            enc.u32(lhs.index() as u32);
            enc.u32(rhs.index() as u32);
        }
        Inst::Cmp { op, lhs, rhs } => {
            enc.u8(5);
            enc.u8(*op as u8);
            enc.u32(lhs.index() as u32);
            enc.u32(rhs.index() as u32);
        }
        Inst::Load { ptr, ty } => {
            enc.u8(6);
            enc.u32(ptr.index() as u32);
            encode_ty(enc, *ty);
        }
        Inst::Store { ptr, val } => {
            enc.u8(7);
            enc.u32(ptr.index() as u32);
            enc.u32(val.index() as u32);
        }
        Inst::Phi { ty, args } => {
            enc.u8(8);
            encode_ty(enc, *ty);
            enc.usize(args.len());
            for (b, v) in args {
                enc.u32(b.index() as u32);
                enc.u32(v.index() as u32);
            }
        }
        Inst::Sigma { input, op, other } => {
            enc.u8(9);
            enc.u32(input.index() as u32);
            enc.u8(*op as u8);
            enc.u32(other.index() as u32);
        }
        Inst::Call {
            callee,
            args,
            ret_ty,
        } => {
            enc.u8(10);
            match callee {
                Callee::Internal(f) => {
                    enc.u8(0);
                    enc.u32(f.index() as u32);
                }
                Callee::External(name) => {
                    enc.u8(1);
                    enc.str(name);
                }
            }
            enc.usize(args.len());
            for v in args {
                enc.u32(v.index() as u32);
            }
            encode_opt_ty(enc, *ret_ty);
        }
    }
}

fn decode_binop(dec: &mut Dec<'_>) -> Result<BinOp, PersistError> {
    Ok(match dec.u8()? {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        b => return Err(corrupt(format!("invalid binop tag {b}"))),
    })
}

fn decode_cmpop(dec: &mut Dec<'_>) -> Result<CmpOp, PersistError> {
    Ok(match dec.u8()? {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        b => return Err(corrupt(format!("invalid cmpop tag {b}"))),
    })
}

fn vid(dec: &mut Dec<'_>) -> Result<ValueId, PersistError> {
    Ok(ValueId::new(dec.u32()? as usize))
}

fn decode_inst(dec: &mut Dec<'_>) -> Result<Inst, PersistError> {
    Ok(match dec.u8()? {
        0 => Inst::Malloc { size: vid(dec)? },
        1 => Inst::Alloca { size: vid(dec)? },
        2 => Inst::Free { ptr: vid(dec)? },
        3 => Inst::PtrAdd {
            base: vid(dec)?,
            offset: vid(dec)?,
        },
        4 => Inst::IntBin {
            op: decode_binop(dec)?,
            lhs: vid(dec)?,
            rhs: vid(dec)?,
        },
        5 => Inst::Cmp {
            op: decode_cmpop(dec)?,
            lhs: vid(dec)?,
            rhs: vid(dec)?,
        },
        6 => Inst::Load {
            ptr: vid(dec)?,
            ty: decode_ty(dec)?,
        },
        7 => Inst::Store {
            ptr: vid(dec)?,
            val: vid(dec)?,
        },
        8 => {
            let ty = decode_ty(dec)?;
            let n = dec.len(8)?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                let b = BlockId::new(dec.u32()? as usize);
                let v = vid(dec)?;
                args.push((b, v));
            }
            Inst::Phi { ty, args }
        }
        9 => Inst::Sigma {
            input: vid(dec)?,
            op: decode_cmpop(dec)?,
            other: vid(dec)?,
        },
        10 => {
            let callee = match dec.u8()? {
                0 => Callee::Internal(FuncId::new(dec.u32()? as usize)),
                1 => Callee::External(dec.str()?),
                b => return Err(corrupt(format!("invalid callee tag {b}"))),
            };
            let n = dec.len(4)?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(vid(dec)?);
            }
            let ret_ty = decode_opt_ty(dec)?;
            Inst::Call {
                callee,
                args,
                ret_ty,
            }
        }
        b => return Err(corrupt(format!("invalid instruction tag {b}"))),
    })
}

fn encode_function(enc: &mut Enc, f: &Function) {
    enc.str(f.name());
    enc.usize(f.param_tys().len());
    for &t in f.param_tys() {
        encode_ty(enc, t);
    }
    encode_opt_ty(enc, f.ret_ty());
    enc.usize(f.params().len());
    for &p in f.params() {
        enc.u32(p.index() as u32);
    }
    enc.usize(f.num_values());
    for v in f.value_ids() {
        let data = f.value(v);
        encode_opt_ty(enc, data.ty());
        match data.kind() {
            ValueKind::Param { index } => {
                enc.u8(0);
                enc.u32(*index as u32);
            }
            ValueKind::Const(c) => {
                enc.u8(1);
                enc.i64(*c);
            }
            ValueKind::GlobalAddr(g) => {
                enc.u8(2);
                enc.u32(g.index() as u32);
            }
            ValueKind::Inst(i) => {
                enc.u8(3);
                encode_inst(enc, i);
            }
        }
        match data.block() {
            None => enc.u8(0),
            Some(b) => {
                enc.u8(1);
                enc.u32(b.index() as u32);
            }
        }
        match data.name() {
            None => enc.u8(0),
            Some(n) => {
                enc.u8(1);
                enc.str(n);
            }
        }
    }
    enc.usize(f.num_blocks());
    for b in f.block_ids() {
        let block = f.block(b);
        enc.usize(block.insts().len());
        for &v in block.insts() {
            enc.u32(v.index() as u32);
        }
        match block.terminator_opt() {
            None => enc.u8(0),
            Some(Terminator::Jump(t)) => {
                enc.u8(1);
                enc.u32(t.index() as u32);
            }
            Some(Terminator::Br {
                cond,
                then_bb,
                else_bb,
            }) => {
                enc.u8(2);
                enc.u32(cond.index() as u32);
                enc.u32(then_bb.index() as u32);
                enc.u32(else_bb.index() as u32);
            }
            Some(Terminator::Ret(v)) => {
                enc.u8(3);
                enc.opt_u32(v.map(|v| v.index() as u32));
            }
        }
    }
    enc.bool(f.is_exported());
}

fn decode_function(dec: &mut Dec<'_>) -> Result<Function, PersistError> {
    let name = dec.str()?;
    let n_param_tys = dec.len(1)?;
    let mut param_tys = Vec::with_capacity(n_param_tys);
    for _ in 0..n_param_tys {
        param_tys.push(decode_ty(dec)?);
    }
    let ret_ty = decode_opt_ty(dec)?;
    let n_params = dec.len(4)?;
    let mut params = Vec::with_capacity(n_params);
    for _ in 0..n_params {
        params.push(vid(dec)?);
    }
    let n_values = dec.len(3)?;
    let mut values = Vec::with_capacity(n_values);
    for _ in 0..n_values {
        let ty = decode_opt_ty(dec)?;
        let kind = match dec.u8()? {
            0 => ValueKind::Param {
                index: dec.u32()? as usize,
            },
            1 => ValueKind::Const(dec.i64()?),
            2 => ValueKind::GlobalAddr(GlobalId::new(dec.u32()? as usize)),
            3 => ValueKind::Inst(decode_inst(dec)?),
            b => return Err(corrupt(format!("invalid value-kind tag {b}"))),
        };
        let block = match dec.u8()? {
            0 => None,
            1 => Some(BlockId::new(dec.u32()? as usize)),
            b => return Err(corrupt(format!("invalid block-option tag {b}"))),
        };
        let vname = match dec.u8()? {
            0 => None,
            1 => Some(dec.str()?),
            b => return Err(corrupt(format!("invalid name-option tag {b}"))),
        };
        values.push(ValueData::from_raw_parts(ty, kind, block, vname));
    }
    let n_blocks = dec.len(9)?;
    let mut blocks = Vec::with_capacity(n_blocks);
    for _ in 0..n_blocks {
        let n_insts = dec.len(4)?;
        let mut insts = Vec::with_capacity(n_insts);
        for _ in 0..n_insts {
            insts.push(vid(dec)?);
        }
        let term = match dec.u8()? {
            0 => None,
            1 => Some(Terminator::Jump(BlockId::new(dec.u32()? as usize))),
            2 => Some(Terminator::Br {
                cond: vid(dec)?,
                then_bb: BlockId::new(dec.u32()? as usize),
                else_bb: BlockId::new(dec.u32()? as usize),
            }),
            3 => Some(Terminator::Ret(
                dec.opt_u32()?.map(|v| ValueId::new(v as usize)),
            )),
            b => return Err(corrupt(format!("invalid terminator tag {b}"))),
        };
        blocks.push(BlockData::from_raw_parts(insts, term));
    }
    let exported = dec.bool()?;
    Ok(Function::from_raw_parts(
        name, param_tys, ret_ty, params, values, blocks, exported,
    ))
}

/// Encodes the module plus its call graph's adjacency (the callee
/// lists), which the loader cross-checks against a freshly built
/// [`sra_ir::callgraph::CallGraph`].
pub(crate) fn encode_module(enc: &mut Enc, m: &Module, callgraph: &sra_ir::callgraph::CallGraph) {
    enc.usize(m.num_globals());
    for g in m.global_ids() {
        let global = m.global(g);
        enc.str(global.name());
        enc.i64(global.size());
    }
    enc.usize(m.num_functions());
    for f in m.func_ids() {
        encode_function(enc, m.function(f));
    }
    for f in m.func_ids() {
        let callees = callgraph.callees(f);
        enc.usize(callees.len());
        for &c in callees {
            enc.u32(c.index() as u32);
        }
    }
}

/// Decodes and *verifies* the module: IR verification plus the stored
/// call-graph adjacency matching a rebuild.
pub(crate) fn decode_module(
    dec: &mut Dec<'_>,
) -> Result<(Module, sra_ir::callgraph::CallGraph), PersistError> {
    let mut m = Module::new();
    let n_globals = dec.len(9)?;
    for _ in 0..n_globals {
        let name = dec.str()?;
        let size = dec.i64()?;
        m.add_global(&name, size);
    }
    let n_funcs = dec.len(8)?;
    for _ in 0..n_funcs {
        let f = decode_function(dec)?;
        m.add_function(f);
    }
    sra_ir::verify::verify_module(&m)
        .map_err(|e| corrupt(format!("module fails verification: {e}")))?;
    let callgraph = sra_ir::callgraph::CallGraph::build(&m);
    for f in m.func_ids() {
        let n = dec.len(4)?;
        let stored: Vec<FuncId> = (0..n)
            .map(|_| Ok(FuncId::new(dec.u32()? as usize)))
            .collect::<Result<_, PersistError>>()?;
        if stored != callgraph.callees(f) {
            return Err(corrupt(format!(
                "call graph of {f:?} does not match the module"
            )));
        }
    }
    Ok((m, callgraph))
}

// ---------------------------------------------------------------------
// PtrState and analysis-part codecs.
// ---------------------------------------------------------------------

use std::collections::BTreeMap;

use crate::locs::LocId;
use crate::lr::{LocalBase, LrState};
use crate::pool::WorkerPool;
use crate::state::PtrState;
use sra_symbolic::{RangeId, SymbolTable};

pub(crate) fn encode_ptr_state(enc: &mut Enc, st: &PtrState) {
    match st {
        PtrState::Top => enc.u8(0),
        PtrState::Map(m) => {
            enc.u8(1);
            enc.usize(m.len());
            for (&loc, &r) in m {
                enc.u32(loc.index() as u32);
                enc.u32(r.index() as u32);
            }
        }
    }
}

pub(crate) fn decode_ptr_state(
    dec: &mut Dec<'_>,
    num_locs: usize,
    arena: &ExprArena,
) -> Result<PtrState, PersistError> {
    match dec.u8()? {
        0 => Ok(PtrState::Top),
        1 => {
            let n = dec.len(8)?;
            let mut m = BTreeMap::new();
            let mut prev: Option<LocId> = None;
            for _ in 0..n {
                let loc = LocId::new(dec.u32()? as usize);
                if loc.index() >= num_locs {
                    return Err(corrupt("pointer state references unknown location"));
                }
                if prev.is_some_and(|p| p.index() >= loc.index()) {
                    return Err(corrupt("pointer-state support is not sorted"));
                }
                prev = Some(loc);
                let r = arena
                    .range_id(dec.u32()? as usize)
                    .ok_or_else(|| corrupt("pointer state references unknown range"))?;
                m.insert(loc, r);
            }
            Ok(PtrState::Map(m))
        }
        b => Err(corrupt(format!("invalid pointer-state tag {b}"))),
    }
}

/// Reads an item count that must be `n` (else the `what` table is
/// corrupt), then decodes the `n` length-framed items on `pool`: `item`
/// reads one and must consume its frame whole. Errors surface in item
/// order.
pub(crate) fn decode_framed<T: Send>(
    mut dec: Dec<'_>,
    n: usize,
    what: &str,
    pool: &WorkerPool,
    item: impl Fn(usize, &mut Dec<'_>) -> Result<T, PersistError> + Sync,
) -> Result<Vec<T>, PersistError> {
    if dec.len(8)? != n {
        return Err(corrupt(format!("{what} table does not match the module")));
    }
    let mut frames = Vec::with_capacity(n);
    for _ in 0..n {
        frames.push(dec.bytes()?);
    }
    dec.finish()?;
    pool.run_indexed(n, |i| {
        let mut d = Dec::new(frames[i]);
        let t = item(i, &mut d)?;
        d.finish()?;
        Ok(t)
    })
    .into_iter()
    .collect()
}

/// Writes a range or LR section (format v4), laid out like the GR
/// section: the module arena, the symbol-table length, then one frame
/// per function holding its table (written by `table`) and the names of
/// its symbol block.
pub(crate) fn encode_symbolic_section(
    enc: &mut Enc,
    arena: &ExprArena,
    symbols: &SymbolTable,
    blocks: impl ExactSizeIterator<Item = std::ops::Range<u32>>,
    table: impl Fn(FuncId, &mut Enc),
) {
    encode_arena(enc, arena);
    enc.usize(symbols.len());
    enc.usize(blocks.len());
    for (i, block) in blocks.enumerate() {
        enc.nested(|e| {
            table(FuncId::new(i), e);
            let names = symbols.names(block);
            e.usize(names.len());
            names.iter().for_each(|n| e.str(n));
        });
    }
}

/// Reads a section written by [`encode_symbolic_section`], each
/// function's table decoded and validated by `table` on `pool`. The
/// symbol counts must add up to the table length.
#[allow(clippy::type_complexity)]
pub(crate) fn decode_symbolic_section<T: Send>(
    buf: &[u8],
    module: &Module,
    pool: &WorkerPool,
    table: impl Fn(&mut Dec<'_>, &Function, &ExprArena) -> Result<T, PersistError> + Sync,
) -> Result<(ExprArena, Vec<(T, Vec<String>)>), PersistError> {
    let mut dec = Dec::new(buf);
    let arena = decode_arena(&mut dec)?;
    let n_symbols = dec.usize()?;
    let per_func = decode_framed(dec, module.num_functions(), "per-function", pool, |i, d| {
        let t = table(d, module.function(FuncId::new(i)), &arena)?;
        let names: Vec<String> = (0..d.len(8)?).map(|_| d.str()).collect::<Result<_, _>>()?;
        Ok((t, names))
    })?;
    if per_func.iter().map(|f| f.1.len()).sum::<usize>() != n_symbols {
        return Err(corrupt("symbol counts do not add up to the symbol table"));
    }
    Ok((arena, per_func))
}

pub(crate) fn encode_range_ids(enc: &mut Enc, ids: impl ExactSizeIterator<Item = RangeId>) {
    enc.usize(ids.len());
    for r in ids {
        enc.u32(r.index() as u32);
    }
}

/// Decodes one function's ranges: one id into `arena` per value.
pub(crate) fn decode_range_ids(
    dec: &mut Dec<'_>,
    func: &Function,
    arena: &ExprArena,
) -> Result<Vec<RangeId>, PersistError> {
    if dec.len(4)? != func.num_values() {
        return Err(corrupt("range table does not match its function"));
    }
    (0..func.num_values())
        .map(|_| {
            arena
                .range_id(dec.u32()? as usize)
                .ok_or_else(|| corrupt("range table references unknown range"))
        })
        .collect()
}

pub(crate) fn encode_lr_states(enc: &mut Enc, states: &[Option<LrState>]) {
    enc.usize(states.len());
    for st in states {
        match st {
            None => enc.u8(0),
            Some(s) => {
                enc.u8(1);
                match s.base {
                    LocalBase::Fresh(sym) => {
                        enc.u8(0);
                        enc.u32(sym);
                    }
                    LocalBase::Global(g) => {
                        enc.u8(1);
                        enc.u32(g.index() as u32);
                    }
                }
                enc.u32(s.range.index() as u32);
                enc.usize(s.sigmas.len());
                for v in &s.sigmas {
                    enc.u32(v.index() as u32);
                }
                enc.opt_u32(s.block.map(|b| b.index() as u32));
            }
        }
    }
}

/// Decodes one function's LR states: one per value of `func`, every
/// value, block, global and range id validated.
pub(crate) fn decode_lr_states(
    dec: &mut Dec<'_>,
    func: &Function,
    arena: &ExprArena,
    num_globals: usize,
) -> Result<Vec<Option<LrState>>, PersistError> {
    let num_values = func.num_values();
    if dec.len(1)? != num_values {
        return Err(corrupt("LR state table does not match its function"));
    }
    let mut states = Vec::with_capacity(num_values);
    for _ in 0..num_values {
        let st = match dec.u8()? {
            0 => None,
            1 => {
                let base = match dec.u8()? {
                    0 => LocalBase::Fresh(dec.u32()?),
                    1 => {
                        let g = GlobalId::new(dec.u32()? as usize);
                        if g.index() >= num_globals {
                            return Err(corrupt("LR state references unknown global"));
                        }
                        LocalBase::Global(g)
                    }
                    b => return Err(corrupt(format!("invalid local-base tag {b}"))),
                };
                let range = arena
                    .range_id(dec.u32()? as usize)
                    .ok_or_else(|| corrupt("LR state references unknown range"))?;
                let n_sigmas = dec.len(4)?;
                let mut sigmas = Vec::with_capacity(n_sigmas);
                for _ in 0..n_sigmas {
                    let v = ValueId::new(dec.u32()? as usize);
                    if v.index() >= num_values {
                        return Err(corrupt("LR state references unknown value"));
                    }
                    sigmas.push(v);
                }
                let block = match dec.opt_u32()? {
                    None => None,
                    Some(b) => {
                        if b as usize >= func.num_blocks() {
                            return Err(corrupt("LR state references unknown block"));
                        }
                        Some(BlockId::new(b as usize))
                    }
                };
                Some(LrState {
                    base,
                    range,
                    sigmas,
                    block,
                })
            }
            b => return Err(corrupt(format!("invalid LR-state tag {b}"))),
        };
        states.push(st);
    }
    Ok(states)
}

// ---------------------------------------------------------------------
// AnalysisConfig header codec.
// ---------------------------------------------------------------------

use crate::config::AnalysisConfig;
use crate::gr::GrConfig;
use crate::query::QueryMode;
use sra_range::RangeConfig;

pub(crate) fn encode_config(enc: &mut Enc, c: &AnalysisConfig) {
    enc.usize(c.threads);
    enc.u32(c.range.descending_steps);
    enc.u32(c.range.max_ascending_sweeps);
    enc.bool(c.range.loads_as_symbols);
    enc.u32(c.gr.descending_steps);
    enc.u32(c.gr.max_ascending_sweeps);
    enc.bool(c.gr.widening);
    // The retired GR schedule tag: every pool width now runs the one
    // wave solver, so the byte keeps its old default (`1`, waves) and
    // default-config snapshots stay byte-identical.
    enc.u8(1);
    enc.usize(c.gr.threads);
    enc.u8(match c.query_mode {
        QueryMode::Matrix => 0,
        QueryMode::Demand => 1,
    });
    enc.bool(c.load_verify);
}

pub(crate) fn decode_config(dec: &mut Dec<'_>) -> Result<AnalysisConfig, PersistError> {
    let threads = dec.usize()?;
    let range = RangeConfig {
        descending_steps: dec.u32()?,
        max_ascending_sweeps: dec.u32()?,
        loads_as_symbols: dec.bool()?,
    };
    let gr = GrConfig {
        descending_steps: dec.u32()?,
        max_ascending_sweeps: dec.u32()?,
        widening: dec.bool()?,
        // The retired schedule tag precedes the thread count: both old
        // values (serial, waves) ran byte-identical solves, so either
        // loads; anything else is damage.
        threads: match dec.u8()? {
            0 | 1 => dec.usize()?,
            b => return Err(corrupt(format!("invalid schedule tag {b}"))),
        },
    };
    let query_mode = match dec.u8()? {
        0 => QueryMode::Matrix,
        1 => QueryMode::Demand,
        b => return Err(corrupt(format!("invalid query-mode tag {b}"))),
    };
    let load_verify = dec.bool()?;
    Ok(AnalysisConfig {
        threads,
        range,
        gr,
        query_mode,
        load_verify,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_roundtrip_and_detect_damage() {
        let mut enc = Enc::new();
        enc.u32(7);
        enc.str("hello");
        enc.opt_u32(None);
        enc.opt_u32(Some(42));
        enc.i128(-3);
        let mut out = Vec::new();
        write_header(&mut out, &MAGIC).unwrap();
        enc.finish_section(&mut out, tag::MODULE).unwrap();
        write_end(&mut out).unwrap();

        let mut r = &out[..];
        read_header(&mut r, &MAGIC).unwrap();
        let payload = expect_section(&mut r, tag::MODULE).unwrap();
        let mut dec = Dec::new(&payload);
        assert_eq!(dec.u32().unwrap(), 7);
        assert_eq!(dec.str().unwrap(), "hello");
        assert_eq!(dec.opt_u32().unwrap(), None);
        assert_eq!(dec.opt_u32().unwrap(), Some(42));
        assert_eq!(dec.i128().unwrap(), -3);
        dec.finish().unwrap();
        let (end, _) = read_section(&mut r).unwrap();
        assert_eq!(end, tag::END);

        // Bad magic.
        let mut bad = out.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            read_header(&mut &bad[..], &MAGIC),
            Err(PersistError::BadMagic)
        ));
        // Version skew.
        let mut bad = out.clone();
        bad[8] = 0xEE;
        assert!(matches!(
            read_header(&mut &bad[..], &MAGIC),
            Err(PersistError::UnsupportedVersion(_))
        ));
        // Version-2 (no GR sweep record) and version-3 (range and LR
        // parts) streams are refused.
        for v in [2u32, 3] {
            let mut old = out.clone();
            old[8..12].copy_from_slice(&v.to_le_bytes());
            assert!(matches!(
                read_header(&mut &old[..], &MAGIC),
                Err(PersistError::UnsupportedVersion(got)) if got == v
            ));
        }
        // A flipped payload byte fails the section checksum.
        let mut bad = out.clone();
        bad[12 + 9 + 3] ^= 0x01;
        let mut r = &bad[..];
        read_header(&mut r, &MAGIC).unwrap();
        assert!(matches!(
            read_section(&mut r),
            Err(PersistError::ChecksumMismatch { .. })
        ));
        // Truncation anywhere fails cleanly.
        for cut in 0..out.len() {
            let mut r = &out[..cut];
            let res = read_header(&mut r, &MAGIC).and_then(|()| loop {
                let (tag, _) = read_section(&mut r)?;
                if tag == tag::END {
                    break Ok(());
                }
            });
            assert!(res.is_err(), "cut at {cut} slipped through");
        }
    }
}
