//! Functions, basic blocks and SSA values.

use crate::ids::{BlockId, GlobalId, ValueId};
use crate::instr::{Inst, Terminator};
use crate::Ty;

/// What defines an SSA value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueKind {
    /// The `index`-th formal parameter.
    Param {
        /// Zero-based parameter position.
        index: usize,
    },
    /// An integer constant.
    Const(i64),
    /// The address of a module global.
    GlobalAddr(GlobalId),
    /// An instruction result (or a void instruction).
    Inst(Inst),
}

/// Type, kind and location of one SSA value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueData {
    pub(crate) ty: Option<Ty>,
    pub(crate) kind: ValueKind,
    pub(crate) block: Option<BlockId>,
    pub(crate) name: Option<String>,
}

impl ValueData {
    /// The value's type; `None` for void instructions.
    pub fn ty(&self) -> Option<Ty> {
        self.ty
    }

    /// What defines the value.
    pub fn kind(&self) -> &ValueKind {
        &self.kind
    }

    /// Block containing the defining instruction (`None` for parameters,
    /// constants and global addresses, which dominate everything).
    pub fn block(&self) -> Option<BlockId> {
        self.block
    }

    /// Optional source-level name, for diagnostics.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// The instruction, when the value is an instruction result.
    pub fn as_inst(&self) -> Option<&Inst> {
        match &self.kind {
            ValueKind::Inst(i) => Some(i),
            _ => None,
        }
    }

    /// Assembles a value record from its parts. Intended for codecs
    /// that rebuild a verified function (snapshot loaders); the result
    /// carries no guarantees until the surrounding function passes
    /// [`verify_function`](crate::verify::verify_function).
    pub fn from_raw_parts(
        ty: Option<Ty>,
        kind: ValueKind,
        block: Option<BlockId>,
        name: Option<String>,
    ) -> ValueData {
        ValueData {
            ty,
            kind,
            block,
            name,
        }
    }
}

/// One basic block: an ordered list of instruction values plus a
/// terminator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockData {
    pub(crate) insts: Vec<ValueId>,
    pub(crate) term: Option<Terminator>,
}

impl BlockData {
    /// Instruction values in program order (φ and σ nodes first by
    /// construction).
    pub fn insts(&self) -> &[ValueId] {
        &self.insts
    }

    /// The block terminator.
    ///
    /// # Panics
    ///
    /// Panics if the block has not been terminated yet; the builder and
    /// verifier guarantee termination for complete functions.
    pub fn terminator(&self) -> &Terminator {
        self.term.as_ref().expect("block has no terminator")
    }

    /// The terminator, or `None` while the function is still being
    /// built.
    pub fn terminator_opt(&self) -> Option<&Terminator> {
        self.term.as_ref()
    }

    /// Assembles a block record from its parts (snapshot loaders); see
    /// [`ValueData::from_raw_parts`].
    pub fn from_raw_parts(insts: Vec<ValueId>, term: Option<Terminator>) -> BlockData {
        BlockData { insts, term }
    }
}

/// A function in SSA (or e-SSA) form.
///
/// Construct functions with [`FunctionBuilder`](crate::FunctionBuilder);
/// the raw mutators here are `pub(crate)` for the builder and the e-SSA
/// pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    pub(crate) name: String,
    pub(crate) param_tys: Vec<Ty>,
    pub(crate) ret_ty: Option<Ty>,
    pub(crate) params: Vec<ValueId>,
    pub(crate) values: Vec<ValueData>,
    pub(crate) blocks: Vec<BlockData>,
    /// Functions reachable from outside the module must treat parameters
    /// conservatively (the paper's §4 note that exported functions keep
    /// pointer parameters ⊤-like).
    pub(crate) exported: bool,
}

impl Function {
    /// The function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared parameter types.
    pub fn param_tys(&self) -> &[Ty] {
        &self.param_tys
    }

    /// Declared return type (`None` = void).
    pub fn ret_ty(&self) -> Option<Ty> {
        self.ret_ty
    }

    /// The SSA values of the formal parameters.
    pub fn params(&self) -> &[ValueId] {
        &self.params
    }

    /// Whether the function may be called from outside the module.
    pub fn is_exported(&self) -> bool {
        self.exported
    }

    /// Marks the function as externally callable.
    pub fn set_exported(&mut self, exported: bool) {
        self.exported = exported;
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        BlockId::new(0)
    }

    /// Data for one value.
    ///
    /// # Panics
    ///
    /// Panics when `v` is not a value of this function.
    pub fn value(&self, v: ValueId) -> &ValueData {
        &self.values[v.index()]
    }

    /// Data for one block.
    ///
    /// # Panics
    ///
    /// Panics when `b` is not a block of this function.
    pub fn block(&self, b: BlockId) -> &BlockData {
        &self.blocks[b.index()]
    }

    /// Number of values (an upper bound for dense side tables).
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates over all block ids in creation order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len()).map(BlockId::new)
    }

    /// Iterates over all value ids in creation order.
    pub fn value_ids(&self) -> impl Iterator<Item = ValueId> {
        (0..self.values.len()).map(ValueId::new)
    }

    /// Iterates over every instruction in the function, in block order,
    /// yielding `(block, value)` pairs.
    pub fn insts(&self) -> impl Iterator<Item = (BlockId, ValueId)> + '_ {
        self.block_ids()
            .flat_map(move |b| self.block(b).insts.iter().map(move |&v| (b, v)))
    }

    /// Total number of instructions (the size metric of the paper's
    /// Figure 15), terminators included.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len() + 1).sum()
    }

    /// Returns `Some(c)` when the value is the integer constant `c`.
    pub fn as_const(&self, v: ValueId) -> Option<i64> {
        match self.value(v).kind {
            ValueKind::Const(c) => Some(c),
            _ => None,
        }
    }

    /// Assembles a function from its parts. Intended for snapshot
    /// loaders that rebuild a previously verified function; callers
    /// must re-run [`verify_function`](crate::verify::verify_function) (or
    /// module-level verification) before analyzing the result.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        name: String,
        param_tys: Vec<Ty>,
        ret_ty: Option<Ty>,
        params: Vec<ValueId>,
        values: Vec<ValueData>,
        blocks: Vec<BlockData>,
        exported: bool,
    ) -> Function {
        Function {
            name,
            param_tys,
            ret_ty,
            params,
            values,
            blocks,
            exported,
        }
    }

    // -- mutators used by the builder and the e-SSA pass ---------------

    pub(crate) fn add_value(&mut self, data: ValueData) -> ValueId {
        let id = ValueId::new(self.values.len());
        self.values.push(data);
        id
    }

    pub(crate) fn add_block(&mut self) -> BlockId {
        let id = BlockId::new(self.blocks.len());
        self.blocks.push(BlockData::default());
        id
    }

    /// Appends instruction `v` to block `b` (not used for φ/σ ordering
    /// fix-ups; see `prepend_inst`).
    pub(crate) fn push_inst(&mut self, b: BlockId, v: ValueId) {
        self.blocks[b.index()].insts.push(v);
    }

    /// Inserts instruction `v` at the front of block `b` (after any
    /// existing leading φ/σ group), used by the e-SSA pass.
    pub(crate) fn insert_inst_at(&mut self, b: BlockId, pos: usize, v: ValueId) {
        self.blocks[b.index()].insts.insert(pos, v);
    }

    pub(crate) fn set_terminator(&mut self, b: BlockId, t: Terminator) {
        self.blocks[b.index()].term = Some(t);
    }

    pub(crate) fn value_mut(&mut self, v: ValueId) -> &mut ValueData {
        &mut self.values[v.index()]
    }

    /// The targets of the function's internal calls.
    pub(crate) fn internal_callees(&self) -> impl Iterator<Item = crate::FuncId> + '_ {
        use crate::instr::{Callee, Inst};
        use crate::ValueKind;
        self.values.iter().filter_map(|data| match &data.kind {
            ValueKind::Inst(Inst::Call {
                callee: Callee::Internal(target),
                ..
            }) => Some(*target),
            _ => None,
        })
    }

    /// Rewrites the target of every internal call through `map` (used
    /// by [`crate::Module::remove_function`] to keep `FuncId`s dense).
    pub(crate) fn remap_internal_calls(&mut self, map: impl Fn(crate::FuncId) -> crate::FuncId) {
        use crate::instr::{Callee, Inst};
        use crate::ValueKind;
        for data in &mut self.values {
            if let ValueKind::Inst(Inst::Call {
                callee: Callee::Internal(target),
                ..
            }) = &mut data.kind
            {
                *target = map(*target);
            }
        }
    }

    pub(crate) fn block_mut(&mut self, b: BlockId) -> &mut BlockData {
        &mut self.blocks[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::FunctionBuilder;
    use crate::Ty;

    #[test]
    fn basic_accessors() {
        let mut b = FunctionBuilder::new("f", &[Ty::Ptr, Ty::Int], Some(Ty::Int));
        let p0 = b.param(0);
        let n = b.param(1);
        let _ = p0;
        b.ret(Some(n));
        let f = b.finish();
        assert_eq!(f.name(), "f");
        assert_eq!(f.param_tys(), &[Ty::Ptr, Ty::Int]);
        assert_eq!(f.ret_ty(), Some(Ty::Int));
        assert_eq!(f.params().len(), 2);
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.num_insts(), 1); // just the ret terminator
        assert_eq!(f.value(f.params()[1]).ty(), Some(Ty::Int));
    }
}
