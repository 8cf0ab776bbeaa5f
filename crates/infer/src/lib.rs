//! MaJIC type inference (paper §2.3–§2.5).
//!
//! The engine is an *iterative join-of-all-paths monotonic data analysis
//! framework*: a type environment mapping each variable to a
//! [`majic_types::Type`] runs on `majic-analysis`'s structured dataflow
//! driver ([`majic_analysis::run_flow`]), which owns the joins at `if`
//! merges, loop heads and exits, and function exit (`return` included).
//! The engine supplies the lattice and the transfer functions, and caps
//! each loop's iterations with widening.
//!
//! Transfer functions live in the [`calculator`]: a database of
//! precondition-guarded rules per operator/builtin, tried from most to
//! least restrictive, with an implicit default rule yielding `⊤`
//! (paper §2.3.1). The calculator runs *forward* (expression types from
//! argument types) for JIT inference and *backward* (argument types from
//! expected expression types) for the speculator.
//!
//! * [`infer_jit`] — forward inference seeded with the exact runtime
//!   [`Signature`] of an invocation. Because the seed is precise, range
//!   propagation doubles as constant propagation, shape bounds become
//!   exact, and subscript checks become provably removable (§2.4).
//! * [`infer_speculative`] — guesses a plausible signature from syntactic
//!   *type hints* (§2.5: colon operands, relational operands, bracket
//!   siblings, scalar-looking subscripts, `zeros`/`ones`/`rand`/`size`
//!   arguments), alternating backward and forward passes to convergence.

pub mod calculator;
mod engine;
mod speculate;

pub use engine::{infer_jit, Annotations, CalleeOracle, InferOptions, NoOracle};
pub use speculate::infer_speculative;

pub use majic_types::Signature;
