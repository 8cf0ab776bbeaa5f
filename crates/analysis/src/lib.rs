//! MaJIC's preliminary dataflow analyses (paper §2.1, Figure 1 pass 2).
//!
//! * [`disambiguate`] — decide what each symbol occurrence means
//!   (variable, builtin primitive, user function, or genuinely ambiguous)
//!   by a variation of reaching-definitions analysis: *a symbol that has a
//!   reaching definition as a variable on all paths leading to it must be
//!   a variable*. Ambiguous symbols (the paper's Figure 2: `i` used both
//!   as √−1 and as a loop-carried variable) are deferred to runtime.
//! * [`run_flow`] — the structured dataflow driver both disambiguation and
//!   type inference run on: an analysis supplies a [`Dataflow`] lattice
//!   and transfer functions, and the driver owns reachability after
//!   jumps and the joins for `if`, loops (a convergence-checked loop
//!   head), `break`, `continue` and `return`.
//! * The static symbol table: every variable of a function gets a dense
//!   [`VarId`] used by the code generators for frame-slot addressing.
//! * [`inline_function`] — the function inliner (paper §2.6.1): calls to
//!   small functions are expanded in place, preserving call-by-value by
//!   copying actual parameters (but not read-only ones), with recursion
//!   unrolled at most 2 levels deep (the paper allows 3).
//! * [`assigned_names`] and [`global_or_clear`] — the statement-block
//!   queries the inliner, the engine and the code generator share.

mod disambig;
mod flow;
mod inline;

pub use disambig::{disambiguate, DisambiguatedFunction, SymbolKind, SymbolTable, VarId};
pub use flow::{run_flow, Dataflow};
pub use inline::{assigned_names, global_or_clear, inline_function, InlineOptions};
