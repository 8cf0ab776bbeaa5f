//! The MaJIC type system.
//!
//! MaJIC's notion of a type (paper §2.2) is the Cartesian product of several
//! lattices:
//!
//! * [`Intrinsic`] — the finite intrinsic-type lattice
//!   `⊥ ⊑ bool ⊑ int ⊑ real ⊑ cplx ⊑ ⊤` with the side chain `⊥ ⊑ strg ⊑ ⊤`;
//! * [`Shape`] — pairs `(rows, cols)` ordered componentwise, with
//!   `⊥ = <0,0>` and `⊤ = <∞,∞>`. A [`Type`] carries **two** shapes, a lower
//!   and an upper bound ("minshape"/"maxshape" in the paper's Figure 3);
//! * [`Range`] — real intervals `<lo, hi>` ordered by containment, with
//!   `⊥ = <nan,nan>` and `⊤ = <−∞,∞>`.
//!
//! The product `T = Li × Ls × Ls × Ll` is [`Type`]. A list of parameter
//! types forms a [`Signature`]; signatures drive the code repository's
//! safety check (`Qi ⊑ Ti` for every actual parameter) and its
//! Manhattan-distance best-match heuristic (paper §2.2.1).
//!
//! The [`wire`] module provides the zero-dependency binary codec for
//! signatures that the repository's persistent manifest uses to carry
//! compiled signatures across sessions (`docs/CACHE_FORMAT.md`).
//!
//! # Examples
//!
//! ```
//! use majic_types::{Intrinsic, Type};
//!
//! // The exact type of the scalar constant 3.0 …
//! let q = Type::constant(3.0);
//! // … is a subtype of "any real scalar" …
//! let t = Type::scalar(Intrinsic::Real);
//! assert!(q.is_subtype_of(&t));
//! // … but not the other way around.
//! assert!(!t.is_subtype_of(&q));
//! ```

#![deny(missing_docs)]

mod intrinsic;
mod range;
mod shape;
mod signature;
mod ty;
pub mod wire;

pub use intrinsic::Intrinsic;
pub use range::Range;
pub use shape::{Dim, Shape};
pub use signature::Signature;
pub use ty::Type;

/// A lattice with join (least upper bound), meet (greatest lower bound) and
/// the induced partial order.
///
/// Implemented by all four component lattices and by [`Type`] itself
/// (pointwise). `le` is the partial order `⊑`; `a.le(b)` reads "a is at or
/// below b".
pub trait Lattice: Sized {
    /// The least element `⊥`.
    fn bottom() -> Self;
    /// The greatest element `⊤`.
    fn top() -> Self;
    /// Least upper bound `a ⊔ b`.
    fn join(&self, other: &Self) -> Self;
    /// Greatest lower bound `a ⊓ b`.
    fn meet(&self, other: &Self) -> Self;
    /// Partial order `self ⊑ other`.
    fn le(&self, other: &Self) -> bool;
}
