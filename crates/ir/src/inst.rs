//! Instruction and function definitions.

use majic_runtime::builtins::Builtin;
use majic_runtime::{scalar, Complex};
use std::fmt;

/// Comparison operators: the runtime's relational selector, so compiled
/// and interpreted comparisons share one [`CmpOp::apply`]. `FCmp` stores
/// its result as the `F` value 0.0 or 1.0.
pub use majic_runtime::ops::Cmp as CmpOp;

/// A register number. Virtual before register allocation (unbounded),
/// physical afterwards (within the machine's register-file size, or a
/// scratch register fed by spill code). `F` and `C` registers number
/// independently.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl Reg {
    /// The register number as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A frame slot holding a whole runtime `Value`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot(pub u32);

impl Slot {
    /// The slot number as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A basic-block id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block id as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Binary operations on `F` registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FBinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `a ^ b`
    Pow,
    /// `atan2(a, b)`
    Atan2,
    /// `min(a, b)` (NaN-ignoring, MATLAB style)
    Min,
    /// `max(a, b)`
    Max,
    /// `mod(a, b)` (sign of divisor)
    Mod,
    /// `rem(a, b)` (sign of dividend)
    Rem,
}

impl FBinOp {
    /// Evaluate on two doubles. The VM calls this; the builtin cases
    /// share [`scalar`] with the runtime library.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            FBinOp::Add => a + b,
            FBinOp::Sub => a - b,
            FBinOp::Mul => a * b,
            FBinOp::Div => a / b,
            FBinOp::Pow => a.powf(b),
            FBinOp::Atan2 => a.atan2(b),
            FBinOp::Min => scalar::min(a, b),
            FBinOp::Max => scalar::max(a, b),
            FBinOp::Mod => scalar::modulo(a, b),
            FBinOp::Rem => scalar::rem(a, b),
        }
    }
}

/// Unary operations on `F` registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FUnOp {
    /// `-a`
    Neg,
    /// `|a|`
    Abs,
    /// `√a`
    Sqrt,
    /// `sin a`
    Sin,
    /// `cos a`
    Cos,
    /// `tan a`
    Tan,
    /// `asin a`
    Asin,
    /// `acos a`
    Acos,
    /// `atan a`
    Atan,
    /// `eᵃ`
    Exp,
    /// `ln a`
    Log,
    /// `log₁₀ a`
    Log10,
    /// `⌊a⌋`
    Floor,
    /// `⌈a⌉`
    Ceil,
    /// `round a`
    Round,
    /// `trunc a` (MATLAB `fix`)
    Fix,
    /// `sign a`
    Sign,
    /// logical not (`a == 0` → 1.0 else 0.0)
    Not,
}

impl FUnOp {
    /// Evaluate on a double (see [`FBinOp::apply`]).
    #[inline]
    pub fn apply(self, s: f64) -> f64 {
        match self {
            FUnOp::Neg => -s,
            FUnOp::Abs => s.abs(),
            FUnOp::Sqrt => s.sqrt(),
            FUnOp::Sin => s.sin(),
            FUnOp::Cos => s.cos(),
            FUnOp::Tan => s.tan(),
            FUnOp::Asin => s.asin(),
            FUnOp::Acos => s.acos(),
            FUnOp::Atan => s.atan(),
            FUnOp::Exp => s.exp(),
            FUnOp::Log => s.ln(),
            FUnOp::Log10 => s.log10(),
            FUnOp::Floor => s.floor(),
            FUnOp::Ceil => s.ceil(),
            FUnOp::Round => s.round(),
            FUnOp::Fix => s.trunc(),
            FUnOp::Sign => scalar::sign(s),
            FUnOp::Not => f64::from(s == 0.0),
        }
    }
}

/// Binary operations on `C` registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CBinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `a ^ b`
    Pow,
}

impl CBinOp {
    /// Evaluate on two complex values.
    #[inline]
    pub fn apply(self, a: Complex, b: Complex) -> Complex {
        match self {
            CBinOp::Add => a + b,
            CBinOp::Sub => a - b,
            CBinOp::Mul => a * b,
            CBinOp::Div => a / b,
            CBinOp::Pow => a.powc(b),
        }
    }
}

/// Unary operations on `C` registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CUnOp {
    /// `-a`
    Neg,
    /// complex conjugate
    Conj,
    /// `√a`
    Sqrt,
    /// `eᵃ`
    Exp,
    /// `ln a`
    Log,
    /// `sin a`
    Sin,
    /// `cos a`
    Cos,
}

impl CUnOp {
    /// Evaluate on a complex value.
    #[inline]
    pub fn apply(self, z: Complex) -> Complex {
        match self {
            CUnOp::Neg => -z,
            CUnOp::Conj => z.conj(),
            CUnOp::Sqrt => z.sqrt(),
            CUnOp::Exp => z.exp(),
            CUnOp::Log => z.ln(),
            CUnOp::Sin => z.sin(),
            CUnOp::Cos => z.cos(),
        }
    }
}

/// An argument to a generic (polymorphic) operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Operand {
    /// A whole-value frame slot.
    Slot(Slot),
    /// A real scalar in an `F` register (boxed on use).
    F(Reg),
    /// A complex scalar in a `C` register (boxed on use).
    C(Reg),
    /// A real scalar in the `F` spill area (introduced by allocation).
    FSpill(u32),
    /// A complex scalar in the `C` spill area (introduced by allocation).
    CSpill(u32),
    /// A string literal.
    Str(String),
    /// A bare `:` subscript marker (only meaningful to indexing ops).
    Colon,
}

/// Generic operations: calls into the polymorphic runtime library
/// (`majic_runtime::ops` / builtins) — the `mlfPlus`-style fallback of
/// the paper's Figure 3.
#[derive(Clone, Debug, PartialEq)]
pub enum GenOp {
    /// `dst = op(args…)` for a binary operator named by its MATLAB
    /// spelling (`+`, `*`, `.^`, `<`, `&`, …).
    Binary(&'static str),
    /// Unary operator (`-`, `~`).
    Unary(&'static str),
    /// Transpose; `true` = conjugating `'`.
    Transpose(bool),
    /// `start : step? : stop` (argument count decides).
    Range,
    /// Matrix literal: `rows` gives the element count of each row.
    BuildMatrix {
        /// Elements per literal row.
        rows: Vec<u32>,
    },
    /// Indexed read: `dst = base(args…)`.
    IndexGet,
    /// Indexed write: `base(args…) = value` (last argument); `oversize`
    /// enables growth headroom.
    IndexSet {
        /// Allocate ~10% slack on resize (paper §2.6.1).
        oversize: bool,
    },
    /// Builtin call.
    CallBuiltin(Builtin),
    /// User-function call, dispatched through the engine.
    CallUser(String),
    /// Resolve a possibly-undefined symbol at runtime (the paper's
    /// "ambiguous symbols … deferred until runtime"): if the slot is
    /// defined use it, else call the builtin/function of that name.
    ResolveAmbiguous(String),
    /// `dst = alpha*A*x + beta*y` — the fused dgemv selection (§2.6.1).
    Gemv,
    /// Allocate a fresh real matrix of the given shape filled with zeros
    /// (pre-allocation of small temporaries, §2.6.1).
    AllocReal {
        /// Rows.
        rows: u32,
        /// Columns.
        cols: u32,
    },
    /// Ensure the destination slot holds a real matrix of exactly this
    /// shape, reusing the existing buffer when it already does (the
    /// `static tmp2[3]` of the paper's Figure 3 — unrolled stores then
    /// overwrite every element in place, with no per-iteration
    /// allocation).
    EnsureReal {
        /// Rows.
        rows: u32,
        /// Columns.
        cols: u32,
    },
    /// Display `name = value` to the session transcript (unsuppressed
    /// statement results).
    Display(String),
}

/// One IR instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Inst {
    // --- F class ---
    /// `d ← v`
    FConst {
        /// Destination.
        d: Reg,
        /// Constant value.
        v: f64,
    },
    /// `d ← s`
    FMov {
        /// Destination.
        d: Reg,
        /// Source.
        s: Reg,
    },
    /// `d ← a op b`
    FBin {
        /// Operation.
        op: FBinOp,
        /// Destination.
        d: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `d ← op s`
    FUn {
        /// Operation.
        op: FUnOp,
        /// Destination.
        d: Reg,
        /// Operand.
        s: Reg,
    },
    /// `d ← (a op b) ? 1.0 : 0.0`
    FCmp {
        /// Comparison.
        op: CmpOp,
        /// Destination.
        d: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// Spill reload `d ← spill[slot]` (inserted by the allocator).
    FSpillLoad {
        /// Destination register.
        d: Reg,
        /// Spill-area index.
        slot: u32,
    },
    /// Spill store `spill[slot] ← s` (inserted by the allocator).
    FSpillStore {
        /// Spill-area index.
        slot: u32,
        /// Source register.
        s: Reg,
    },

    // --- C class ---
    /// `d ← re + im·i`
    CConst {
        /// Destination.
        d: Reg,
        /// Real part.
        re: f64,
        /// Imaginary part.
        im: f64,
    },
    /// `d ← s`
    CMov {
        /// Destination.
        d: Reg,
        /// Source.
        s: Reg,
    },
    /// `d ← a op b`
    CBin {
        /// Operation.
        op: CBinOp,
        /// Destination.
        d: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `d ← op s`
    CUn {
        /// Operation.
        op: CUnOp,
        /// Destination.
        d: Reg,
        /// Operand.
        s: Reg,
    },
    /// `d(F) ← |s|`
    CAbs {
        /// Destination (`F` class).
        d: Reg,
        /// Operand (`C` class).
        s: Reg,
    },
    /// `d(F) ← Re s` / `Im s`
    CPart {
        /// Destination (`F` class).
        d: Reg,
        /// Operand (`C` class).
        s: Reg,
        /// `false` = real part, `true` = imaginary part.
        imag: bool,
    },
    /// `d(C) ← re + im·i` from `F` registers.
    CMake {
        /// Destination (`C` class).
        d: Reg,
        /// Real part (`F` class).
        re: Reg,
        /// Imaginary part (`F` class).
        im: Reg,
    },
    /// Spill reload for `C` registers.
    CSpillLoad {
        /// Destination register.
        d: Reg,
        /// Spill-area index.
        slot: u32,
    },
    /// Spill store for `C` registers.
    CSpillStore {
        /// Spill-area index.
        slot: u32,
        /// Source register.
        s: Reg,
    },

    // --- array accesses (the subscript-check-removal surface) ---
    /// `d(F) ← arr(i)` or `arr(i, j)`; 1-based f64 indices in `F` regs.
    /// `checked` validates integrality and bounds (MATLAB semantics);
    /// unchecked accesses were proven safe by type inference.
    ALoadF {
        /// Destination (`F`).
        d: Reg,
        /// Array slot (must hold a real matrix).
        arr: Slot,
        /// Row (or linear) index.
        i: Reg,
        /// Column index for 2-D accesses.
        j: Option<Reg>,
        /// Emit the MATLAB subscript check?
        checked: bool,
    },
    /// `arr(i[, j]) ← v(F)`, growing the array when a checked store
    /// overflows (with optional oversizing).
    AStoreF {
        /// Array slot.
        arr: Slot,
        /// Row (or linear) index.
        i: Reg,
        /// Column index for 2-D accesses.
        j: Option<Reg>,
        /// Value to store.
        v: Reg,
        /// Emit the check (and growth path)?
        checked: bool,
        /// Oversize on growth?
        oversize: bool,
    },
    /// Complex-array variants of the above.
    ALoadC {
        /// Destination (`C`).
        d: Reg,
        /// Array slot (complex matrix).
        arr: Slot,
        /// Row (or linear) index.
        i: Reg,
        /// Column index.
        j: Option<Reg>,
        /// Checked?
        checked: bool,
    },
    /// Store a complex scalar into a complex array.
    AStoreC {
        /// Array slot.
        arr: Slot,
        /// Row (or linear) index.
        i: Reg,
        /// Column index.
        j: Option<Reg>,
        /// Value (`C`).
        v: Reg,
        /// Checked?
        checked: bool,
        /// Oversize on growth?
        oversize: bool,
    },
    /// Unchecked constant-linear-index load (small-vector unrolling).
    ALoadConstF {
        /// Destination.
        d: Reg,
        /// Array slot.
        arr: Slot,
        /// 0-based linear index.
        lin: u32,
    },
    /// Unchecked constant-linear-index store.
    AStoreConstF {
        /// Array slot.
        arr: Slot,
        /// 0-based linear index.
        lin: u32,
        /// Value.
        v: Reg,
    },

    // --- slot/register traffic ---
    /// Box an `F` scalar into a slot (`Value::scalar`).
    FToSlot {
        /// Destination slot.
        slot: Slot,
        /// Source register.
        s: Reg,
    },
    /// Box an `F` scalar known to hold 0/1 into a slot as a *logical*
    /// scalar (`Value::Bool`). Emitted where the inferred type of the
    /// boxed value is `bool`, so compiled code preserves the logical
    /// class the interpreter produces for comparisons — observable via
    /// logical indexing and function results.
    FToSlotBool {
        /// Destination slot.
        slot: Slot,
        /// Source register.
        s: Reg,
    },
    /// Unbox a slot into an `F` register (errors unless the slot holds a
    /// real scalar — type inference guarantees it does).
    SlotToF {
        /// Destination register.
        d: Reg,
        /// Source slot.
        slot: Slot,
    },
    /// Box a `C` scalar into a slot.
    CToSlot {
        /// Destination slot.
        slot: Slot,
        /// Source register.
        s: Reg,
    },
    /// Unbox a numeric scalar slot into a `C` register.
    SlotToC {
        /// Destination register.
        d: Reg,
        /// Source slot.
        slot: Slot,
    },
    /// Copy between slots.
    SlotMov {
        /// Destination slot.
        d: Slot,
        /// Source slot.
        s: Slot,
    },
    /// Move between slots, leaving the source undefined. Emitted when
    /// the source is a dead temporary: under copy-on-write values a
    /// `SlotMov` would leave a second live owner of the buffer, forcing
    /// the next element store to take a full snapshot.
    SlotTake {
        /// Destination slot.
        d: Slot,
        /// Source slot (undefined afterwards).
        s: Slot,
    },

    /// MATLAB truthiness of a slot value (nonempty, all nonzero) → `F`
    /// 0/1.
    TruthF {
        /// Destination (`F`).
        d: Reg,
        /// Tested value.
        slot: Slot,
    },
    /// Extent query into an `F` register: numel (`dim = 0`), rows (`1`)
    /// or cols (`2`).
    ExtentF {
        /// Destination (`F`).
        d: Reg,
        /// Queried array.
        arr: Slot,
        /// Dimension selector.
        dim: u8,
    },

    /// Generic polymorphic operation (see [`GenOp`]).
    Gen {
        /// Operation.
        op: GenOp,
        /// Result slots (calls may produce several).
        dsts: Vec<Slot>,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// Raise "undefined function or variable".
    ErrUndefined(String),
}

/// Block terminators.
#[derive(Clone, Debug, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on an `F` register (nonzero = then).
    Branch {
        /// Condition (`F`, 0.0 = false).
        cond: Reg,
        /// Nonzero target.
        then_bb: BlockId,
        /// Zero target.
        else_bb: BlockId,
    },
    /// Function return.
    Return,
}

/// A basic block.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Straight-line instructions.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Terminator,
}

/// Loop metadata recorded by the code generator (used by LICM and by
/// diagnostics).
#[derive(Clone, Debug, PartialEq)]
pub struct LoopInfo {
    /// The block that runs once before the loop.
    pub preheader: BlockId,
    /// The loop header (condition test).
    pub header: BlockId,
    /// All blocks of the loop body, header included.
    pub blocks: Vec<BlockId>,
}

/// Where a function parameter or output lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarBinding {
    /// An `F` register (real scalar variable).
    F(Reg),
    /// A `C` register (complex scalar variable).
    C(Reg),
    /// A whole-value frame slot.
    Slot(Slot),
    /// A spilled `F` value (introduced by register allocation).
    FSpill(u32),
    /// A spilled `C` value (introduced by register allocation).
    CSpill(u32),
}

/// An IR function: blocks plus frame layout metadata.
#[derive(Clone, Debug, Default)]
pub struct Function {
    /// Function name (diagnostics).
    pub name: String,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<Block>,
    /// Loop metadata.
    pub loops: Vec<LoopInfo>,
    /// Number of virtual `F` registers.
    pub f_regs: u32,
    /// Number of virtual `C` registers.
    pub c_regs: u32,
    /// Number of value slots.
    pub slots: u32,
    /// Parameter bindings, in order.
    pub params: Vec<VarBinding>,
    /// Output bindings, in order.
    pub outputs: Vec<VarBinding>,
}

impl Default for Block {
    fn default() -> Self {
        Block {
            insts: Vec::new(),
            term: Terminator::Return,
        }
    }
}

impl Function {
    /// Count instructions across all blocks.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// Whether an instruction reads or writes a register operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// The instruction reads the register.
    Read,
    /// The instruction writes the register.
    Write,
}

/// One operand of an instruction, as [`Inst::for_each_operand`] reports
/// it: `R`, `S` and `N` are references to a [`Reg`], a [`Slot`] and a
/// spill index (`&mut` ones from [`Inst::for_each_operand_mut`]).
#[derive(Debug, PartialEq, Eq)]
pub enum InstOperand<R, S, N> {
    /// An `F` register.
    F(R, Access),
    /// A `C` register.
    C(R, Access),
    /// A value slot.
    Slot(S),
    /// An `F` spill-area index.
    FSpill(N),
    /// A `C` spill-area index.
    CSpill(N),
}

/// An operand borrowed from an instruction.
pub type OperandRef<'a> = InstOperand<&'a Reg, &'a Slot, &'a u32>;
/// An operand borrowed mutably from an instruction.
pub type OperandMut<'a> = InstOperand<&'a mut Reg, &'a mut Slot, &'a mut u32>;

impl VarBinding {
    /// The binding as an operand: `access` says whether the function
    /// writes it (a parameter) or reads it (an output).
    pub fn operand(&self, access: Access) -> OperandRef<'_> {
        match self {
            VarBinding::F(r) => InstOperand::F(r, access),
            VarBinding::C(r) => InstOperand::C(r, access),
            VarBinding::Slot(s) => InstOperand::Slot(s),
            VarBinding::FSpill(n) => InstOperand::FSpill(n),
            VarBinding::CSpill(n) => InstOperand::CSpill(n),
        }
    }
}

/// The operand table: every register, slot and spill index each [`Inst`]
/// variant names, in one `match` with no catch-all arm, so a new variant
/// does not compile until its operands are listed. Expanded twice, for
/// shared and for mutable borrows; reads are reported before writes.
macro_rules! operand_table {
    ($(#[$doc:meta])* $name:ident, $Op:ident, $($mut:tt)?) => {
        $(#[$doc])*
        pub fn $name<'a>(&'a $($mut)? self, mut f: impl FnMut($Op<'a>)) {
            use Access::{Read, Write};
            use InstOperand::{CSpill, FSpill, Slot as S, C, F};
            match self {
                Inst::FConst { d, .. } => f(F(d, Write)),
                Inst::FMov { d, s } | Inst::FUn { d, s, .. } => {
                    f(F(s, Read));
                    f(F(d, Write));
                }
                Inst::FBin { d, a, b, .. } | Inst::FCmp { d, a, b, .. } => {
                    f(F(a, Read));
                    f(F(b, Read));
                    f(F(d, Write));
                }
                Inst::FSpillLoad { d, slot } => {
                    f(FSpill(slot));
                    f(F(d, Write));
                }
                Inst::FSpillStore { slot, s } => {
                    f(F(s, Read));
                    f(FSpill(slot));
                }
                Inst::CConst { d, .. } => f(C(d, Write)),
                Inst::CMov { d, s } | Inst::CUn { d, s, .. } => {
                    f(C(s, Read));
                    f(C(d, Write));
                }
                Inst::CBin { d, a, b, .. } => {
                    f(C(a, Read));
                    f(C(b, Read));
                    f(C(d, Write));
                }
                Inst::CAbs { d, s } | Inst::CPart { d, s, .. } => {
                    f(C(s, Read));
                    f(F(d, Write));
                }
                Inst::CMake { d, re, im } => {
                    f(F(re, Read));
                    f(F(im, Read));
                    f(C(d, Write));
                }
                Inst::CSpillLoad { d, slot } => {
                    f(CSpill(slot));
                    f(C(d, Write));
                }
                Inst::CSpillStore { slot, s } => {
                    f(C(s, Read));
                    f(CSpill(slot));
                }
                Inst::ALoadF { d, arr, i, j, .. } => {
                    f(S(arr));
                    f(F(i, Read));
                    j.into_iter().for_each(|j| f(F(j, Read)));
                    f(F(d, Write));
                }
                Inst::ALoadC { d, arr, i, j, .. } => {
                    f(S(arr));
                    f(F(i, Read));
                    j.into_iter().for_each(|j| f(F(j, Read)));
                    f(C(d, Write));
                }
                Inst::AStoreF { arr, i, j, v, .. } => {
                    f(S(arr));
                    f(F(i, Read));
                    j.into_iter().for_each(|j| f(F(j, Read)));
                    f(F(v, Read));
                }
                Inst::AStoreC { arr, i, j, v, .. } => {
                    f(S(arr));
                    f(F(i, Read));
                    j.into_iter().for_each(|j| f(F(j, Read)));
                    f(C(v, Read));
                }
                Inst::FToSlot { slot, s }
                | Inst::FToSlotBool { slot, s }
                | Inst::AStoreConstF { arr: slot, v: s, .. } => {
                    f(F(s, Read));
                    f(S(slot));
                }
                Inst::CToSlot { slot, s } => {
                    f(C(s, Read));
                    f(S(slot));
                }
                Inst::SlotToF { d, slot }
                | Inst::TruthF { d, slot }
                | Inst::ExtentF { d, arr: slot, .. }
                | Inst::ALoadConstF { d, arr: slot, .. } => {
                    f(S(slot));
                    f(F(d, Write));
                }
                Inst::SlotToC { d, slot } => {
                    f(S(slot));
                    f(C(d, Write));
                }
                Inst::SlotMov { d, s } | Inst::SlotTake { d, s } => {
                    f(S(s));
                    f(S(d));
                }
                Inst::Gen { dsts, args, .. } => {
                    for a in args {
                        match a {
                            Operand::Slot(s) => f(S(s)),
                            Operand::F(r) => f(F(r, Read)),
                            Operand::C(r) => f(C(r, Read)),
                            Operand::FSpill(n) => f(FSpill(n)),
                            Operand::CSpill(n) => f(CSpill(n)),
                            Operand::Str(_) | Operand::Colon => {}
                        }
                    }
                    dsts.into_iter().for_each(|d| f(S(d)));
                }
                Inst::ErrUndefined(_) => {}
            }
        }
    };
}

impl Inst {
    /// Is this a pure `F`-class computation (no side effects, result
    /// depends only on `F` inputs)? These are the LICM/DCE candidates.
    pub fn pure_f(&self) -> bool {
        matches!(
            self,
            Inst::FConst { .. }
                | Inst::FMov { .. }
                | Inst::FBin { .. }
                | Inst::FUn { .. }
                | Inst::FCmp { .. }
        )
    }

    operand_table!(
        /// Report every operand of the instruction to `f`.
        for_each_operand, OperandRef,
    );
    operand_table!(
        /// Report every operand of the instruction to `f`, mutably: the
        /// register allocator rewrites registers in place through this.
        for_each_operand_mut, OperandMut, mut
    );
}
