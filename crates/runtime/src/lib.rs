//! The MATLAB value runtime shared by MaJIC's interpreter and compiled
//! code.
//!
//! This crate plays the role of the "MATLAB C library" the paper's
//! generated code links against (Figure 3 shows calls like `mlfPlus` /
//! `mlfTimes`): a polymorphic [`Value`] type covering real, complex,
//! logical and character matrices; the generic operator library in
//! [`ops`]; the built-in function library in [`builtins`]; and the
//! supporting dense linear algebra in [`linalg`].
//!
//! Matrices are column-major with an explicit leading dimension so that
//! the *oversizing* optimization of paper §2.6.1 (allocating ~10% extra
//! space on resize so repeated growth does not re-layout the array) is
//! faithfully reproduced — see [`Matrix`].
//!
//! # Examples
//!
//! ```
//! use majic_runtime::{ops, Value};
//!
//! let a = Value::scalar(2.0);
//! let b = Value::scalar(3.0);
//! assert_eq!(ops::add(&a, &b).unwrap(), Value::scalar(5.0));
//! ```

pub mod builtins;
mod complex;
mod error;
pub mod linalg;
mod matrix;
pub mod ops;
pub mod par;
mod rng;
pub mod scalar;
mod value;

pub use complex::Complex;
pub use error::{RuntimeError, RuntimeResult};
pub use matrix::{checked_numel, Matrix, NUMEL_LIMIT};
pub use rng::Lcg;
pub use value::Value;
