//! MaJIC's low-level intermediate representation.
//!
//! The paper's JIT builds executable code with the `vcode` dynamic
//! assembler — "a general-purpose, platform-independent RISC-like
//! dynamic assembly language" — through the `tcc` intermediate language
//! ICODE. This crate is our equivalent: a RISC-like register code over
//! three storage classes:
//!
//! * `F` — double-precision scalar registers (the hot class; inlined
//!   scalar arithmetic lives here),
//! * `C` — complex scalar registers,
//! * array *slots* — frame cells holding whole [`majic_runtime::Value`]s
//!   (matrices, strings, and anything the type inferencer could not
//!   specialize).
//!
//! Code is a list of [`Block`]s with explicit terminators plus loop
//! metadata recorded by the code generator; the optimizing backend's
//! passes ([`passes`]) — loop-invariant code motion, then dead-code
//! elimination — run on this form. Register
//! numbers are virtual until `majic-vm`'s linear-scan allocator assigns
//! physical registers and spill slots.

#![deny(missing_docs)]

mod inst;
pub mod passes;

pub use inst::{
    Access, Block, BlockId, CBinOp, CUnOp, CmpOp, FBinOp, FUnOp, Function, GenOp, Inst,
    InstOperand, LoopInfo, Operand, OperandMut, OperandRef, Reg, Slot, Terminator, VarBinding,
};
