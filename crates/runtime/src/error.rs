//! Runtime errors.

use std::error::Error;
use std::fmt;

/// Result alias used throughout the runtime.
pub type RuntimeResult<T> = Result<T, RuntimeError>;

/// An error raised during MATLAB program execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// Array subscript out of bounds (read side).
    IndexOutOfBounds {
        /// The offending (1-based) subscript description.
        index: String,
        /// Extent of the indexed object.
        extent: String,
    },
    /// Subscripts must be positive integers.
    BadSubscript(String),
    /// Operand shapes do not agree.
    DimensionMismatch(String),
    /// Operation not defined for these operand types.
    TypeMismatch(String),
    /// Use of an undefined variable or function.
    Undefined(String),
    /// Wrong number of inputs/outputs to a function.
    BadArity {
        /// Function name.
        name: String,
        /// What was wrong.
        detail: String,
    },
    /// `error(...)` raised by user code, or another fatal condition.
    Raised(String),
    /// A requested array would exceed the per-matrix element-count
    /// ceiling (or overflow `usize`). Raised *before* allocating, so a
    /// hostile `zeros(1e300)` degrades to a catchable error instead of
    /// an abort — and, crucially, a wrapped `rows * cols` can never
    /// leave a small buffer behind large logical extents for the VM's
    /// unchecked-dispatch fast path to trust.
    AllocLimit {
        /// Human-readable requested extent (e.g. `"1000000x1000000"`).
        requested: String,
        /// The ceiling in elements ([`crate::NUMEL_LIMIT`]).
        limit: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::IndexOutOfBounds { index, extent } => {
                write!(f, "index {index} out of bounds for size {extent}")
            }
            RuntimeError::BadSubscript(s) => {
                write!(f, "subscripts must be positive integers ({s})")
            }
            RuntimeError::DimensionMismatch(s) => write!(f, "matrix dimensions must agree: {s}"),
            RuntimeError::TypeMismatch(s) => write!(f, "invalid operand types: {s}"),
            RuntimeError::Undefined(s) => write!(f, "undefined function or variable '{s}'"),
            RuntimeError::BadArity { name, detail } => {
                write!(f, "bad call to '{name}': {detail}")
            }
            RuntimeError::Raised(s) => f.write_str(s),
            RuntimeError::AllocLimit { requested, limit } => {
                write!(
                    f,
                    "requested {requested} array exceeds the maximum element count ({limit})"
                )
            }
        }
    }
}

impl Error for RuntimeError {}
