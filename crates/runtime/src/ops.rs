//! The generic polymorphic operator library.
//!
//! These functions are MaJIC's equivalent of the `mlfPlus` / `mlfTimes` /
//! `mlfPower` calls visible in the paper's Figure 3: they dispatch on
//! runtime value kinds, check shapes, and allocate results. The
//! interpreter calls them for everything; `mcc`-mode compiled code calls
//! them instead of interpreting; JIT/optimized code replaces them with
//! inlined scalar instructions wherever type inference permits.

use crate::linalg;
use crate::par;
use crate::{Complex, Matrix, RuntimeError, RuntimeResult, Value};

/// Relational comparison selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `~=`
    Ne,
}

impl Cmp {
    /// Apply to two doubles.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> bool {
        match self {
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
        }
    }
}

/// One evaluated subscript of an indexing operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Subscript {
    /// A bare `:` — the whole extent.
    Colon,
    /// Explicit indices (scalar or vector, 1-based).
    Index(Value),
}

fn dims_of(v: &Value) -> (usize, usize) {
    v.dims()
}

fn shape_err(a: &Value, b: &Value) -> RuntimeError {
    let (ar, ac) = dims_of(a);
    let (br, bc) = dims_of(b);
    RuntimeError::DimensionMismatch(format!("{ar}x{ac} vs {br}x{bc}"))
}

fn is_complex(v: &Value) -> bool {
    matches!(v, Value::Complex(_))
}

/// Elementwise binary dispatch with scalar broadcasting and complex
/// promotion. The matrix-shaped cases go through the size-gated
/// parallel kernels in [`par`], which compute each output element with
/// the very same closure the sequential path would use — results are
/// bitwise identical for every thread count.
fn elementwise(
    a: &Value,
    b: &Value,
    real_op: impl Fn(f64, f64) -> f64 + Sync,
    cplx_op: impl Fn(Complex, Complex) -> Complex + Sync,
) -> RuntimeResult<Value> {
    if is_complex(a) || is_complex(b) {
        let ma = a.to_complex_matrix()?;
        let mb = b.to_complex_matrix()?;
        let out = if ma.is_scalar() && !mb.is_scalar() {
            let s = ma.first();
            par::map(&mb, |&z| cplx_op(s, z))
        } else if mb.is_scalar() && !ma.is_scalar() {
            let s = mb.first();
            par::map(&ma, |&z| cplx_op(z, s))
        } else if ma.rows() == mb.rows() && ma.cols() == mb.cols() {
            par::zip(&ma, &mb, |&x, &y| cplx_op(x, y))
        } else {
            return Err(shape_err(a, b));
        };
        Ok(Value::Complex(out).normalized())
    } else {
        let ma = a.to_real_matrix()?;
        let mb = b.to_real_matrix()?;
        let out = if ma.is_scalar() && !mb.is_scalar() {
            let s = ma.first();
            par::map(&mb, |&v| real_op(s, v))
        } else if mb.is_scalar() && !ma.is_scalar() {
            let s = mb.first();
            par::map(&ma, |&v| real_op(v, s))
        } else if ma.rows() == mb.rows() && ma.cols() == mb.cols() {
            par::zip(&ma, &mb, |&x, &y| real_op(x, y))
        } else {
            return Err(shape_err(a, b));
        };
        Ok(Value::Real(out))
    }
}

/// `a + b`.
///
/// # Errors
///
/// Fails on shape or type mismatch.
pub fn add(a: &Value, b: &Value) -> RuntimeResult<Value> {
    elementwise(a, b, |x, y| x + y, |x, y| x + y)
}

/// `a - b`.
///
/// # Errors
///
/// Fails on shape or type mismatch.
pub fn sub(a: &Value, b: &Value) -> RuntimeResult<Value> {
    elementwise(a, b, |x, y| x - y, |x, y| x - y)
}

/// `a .* b`.
///
/// # Errors
///
/// Fails on shape or type mismatch.
pub fn elem_mul(a: &Value, b: &Value) -> RuntimeResult<Value> {
    elementwise(a, b, |x, y| x * y, |x, y| x * y)
}

/// `a ./ b`.
///
/// # Errors
///
/// Fails on shape or type mismatch.
pub fn elem_div(a: &Value, b: &Value) -> RuntimeResult<Value> {
    elementwise(a, b, |x, y| x / y, |x, y| x / y)
}

/// `a .\ b`.
///
/// # Errors
///
/// Fails on shape or type mismatch.
pub fn elem_left_div(a: &Value, b: &Value) -> RuntimeResult<Value> {
    elem_div(b, a)
}

/// `a .^ b`.
///
/// # Errors
///
/// Fails on shape or type mismatch.
pub fn elem_pow(a: &Value, b: &Value) -> RuntimeResult<Value> {
    if !is_complex(a) && !is_complex(b) {
        // Does any element pair promote to complex?
        let ma = a.to_real_matrix()?;
        let mb = b.to_real_matrix()?;
        if !ma.is_scalar() && !mb.is_scalar() && (ma.rows(), ma.cols()) != (mb.rows(), mb.cols()) {
            return Err(shape_err(a, b));
        }
        let promotes = |x: f64, y: f64| x < 0.0 && y.fract() != 0.0;
        let needs_complex = if ma.is_scalar() {
            let x = ma.first();
            mb.iter().any(|&y| promotes(x, y))
        } else if mb.is_scalar() {
            let y = mb.first();
            ma.iter().any(|&x| promotes(x, y))
        } else {
            ma.iter().zip(mb.iter()).any(|(&x, &y)| promotes(x, y))
        };
        if !needs_complex {
            return elementwise(a, b, |x, y| x.powf(y), |x, y| x.powc(y));
        }
        // Promote both sides and fall through to the complex path.
        let za = Value::Complex(a.to_complex_matrix()?);
        let zb = Value::Complex(b.to_complex_matrix()?);
        return elementwise(&za, &zb, |x, y| x.powf(y), |x, y| x.powc(y));
    }
    elementwise(a, b, |x, y| x.powf(y), |x, y| x.powc(y))
}

/// `a * b` — scalar scaling or matrix product.
///
/// # Errors
///
/// Fails when inner dimensions disagree or operands are strings.
pub fn mul(a: &Value, b: &Value) -> RuntimeResult<Value> {
    if a.is_scalar() || b.is_scalar() {
        return elem_mul(a, b);
    }
    if is_complex(a) || is_complex(b) {
        let ma = a.to_complex_matrix()?;
        let mb = b.to_complex_matrix()?;
        Ok(Value::Complex(linalg::gemm(&ma, &mb)?).normalized())
    } else {
        let ma = a.to_real_matrix()?;
        let mb = b.to_real_matrix()?;
        Ok(Value::Real(linalg::gemm(&ma, &mb)?))
    }
}

/// `a \ b` — left division (linear solve).
///
/// # Errors
///
/// Fails on non-square systems or singular matrices.
pub fn left_div(a: &Value, b: &Value) -> RuntimeResult<Value> {
    if a.is_scalar() {
        return elem_div(b, a);
    }
    if is_complex(a) || is_complex(b) {
        let ma = a.to_complex_matrix()?;
        let mb = b.to_complex_matrix()?;
        Ok(Value::Complex(linalg::lu_solve(&ma, &mb)?).normalized())
    } else {
        let ma = a.to_real_matrix()?;
        let mb = b.to_real_matrix()?;
        Ok(Value::Real(linalg::lu_solve(&ma, &mb)?))
    }
}

/// `a / b` — right division: `(b' \ a')'` for matrices.
///
/// # Errors
///
/// Fails on non-square systems or singular matrices.
pub fn div(a: &Value, b: &Value) -> RuntimeResult<Value> {
    if b.is_scalar() {
        return elem_div(a, b);
    }
    let at = transpose(a, false)?;
    let bt = transpose(b, false)?;
    let xt = left_div(&bt, &at)?;
    transpose(&xt, false)
}

/// `a ^ b` — matrix power for square matrix base and integer scalar
/// exponent; scalar power otherwise.
///
/// # Errors
///
/// Fails for non-integer matrix exponents or matrix-valued exponents.
pub fn pow(a: &Value, b: &Value) -> RuntimeResult<Value> {
    if a.is_scalar() && b.is_scalar() {
        return elem_pow(a, b);
    }
    if !b.is_scalar() {
        return Err(RuntimeError::TypeMismatch(
            "matrix exponent is not supported".to_owned(),
        ));
    }
    let e = b.to_scalar()?;
    if e.fract() != 0.0 || e < 0.0 {
        return Err(RuntimeError::TypeMismatch(
            "matrix power requires a non-negative integer exponent".to_owned(),
        ));
    }
    let (r, c) = a.dims();
    if r != c {
        return Err(RuntimeError::DimensionMismatch(format!(
            "matrix power of {r}x{c}"
        )));
    }
    // Repeated squaring.
    let mut n = e as u64;
    let mut result = identity(r);
    let mut base = a.clone();
    while n > 0 {
        if n & 1 == 1 {
            result = mul(&result, &base)?;
        }
        base = mul(&base, &base)?;
        n >>= 1;
    }
    Ok(result)
}

fn identity(n: usize) -> Value {
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        m.set(i, i, 1.0);
    }
    Value::Real(m)
}

/// Unary minus.
///
/// # Errors
///
/// Fails on strings.
pub fn neg(a: &Value) -> RuntimeResult<Value> {
    match a {
        Value::Complex(m) => Ok(Value::Complex(par::map(m, |&z| -z))),
        _ => Ok(Value::Real(par::map(&a.to_real_matrix()?, |&v| -v))),
    }
}

/// Logical negation `~a`.
///
/// # Errors
///
/// Fails on strings.
pub fn not(a: &Value) -> RuntimeResult<Value> {
    match a {
        Value::Bool(m) => Ok(Value::Bool(par::map(m, |&b| !b))),
        Value::Complex(m) => Ok(Value::Bool(par::map(m, |z| z.re == 0.0 && z.im == 0.0))),
        _ => Ok(Value::Bool(par::map(&a.to_real_matrix()?, |&v| v == 0.0))),
    }
}

/// Transpose; `conjugate` selects `'` over `.'`.
///
/// # Errors
///
/// Fails on strings.
pub fn transpose(a: &Value, conjugate: bool) -> RuntimeResult<Value> {
    match a {
        Value::Real(m) => Ok(Value::Real(m.transpose())),
        Value::Bool(m) => Ok(Value::Bool(m.transpose())),
        Value::Complex(m) => {
            let t = m.transpose();
            Ok(Value::Complex(if conjugate {
                t.map(|z| z.conj())
            } else {
                t
            }))
        }
        Value::Str(_) => Err(RuntimeError::TypeMismatch(
            "cannot transpose a string".to_owned(),
        )),
    }
}

/// Relational comparison (elementwise; complex operands compare by real
/// part, as MATLAB does).
///
/// # Errors
///
/// Fails on shape mismatch.
pub fn compare(op: Cmp, a: &Value, b: &Value) -> RuntimeResult<Value> {
    // Strings compare char-by-char against strings of equal length.
    if let (Value::Str(x), Value::Str(y)) = (a, b) {
        if x.len() != y.len() {
            return Err(shape_err(a, b));
        }
        let data: Vec<bool> = x
            .bytes()
            .zip(y.bytes())
            .map(|(p, q)| op.apply(f64::from(p), f64::from(q)))
            .collect();
        let n = data.len();
        return Ok(Value::Bool(Matrix::from_vec(1, n, data)));
    }
    let realify = |v: &Value| -> RuntimeResult<Matrix<f64>> {
        match v {
            Value::Complex(m) => Ok(par::map(m, |z| z.re)),
            other => other.to_real_matrix(),
        }
    };
    let ma = realify(a)?;
    let mb = realify(b)?;
    let out = if ma.is_scalar() && !mb.is_scalar() {
        let s = ma.first();
        par::map(&mb, |&v| op.apply(s, v))
    } else if mb.is_scalar() && !ma.is_scalar() {
        let s = mb.first();
        par::map(&ma, |&v| op.apply(v, s))
    } else if ma.rows() == mb.rows() && ma.cols() == mb.cols() {
        par::zip(&ma, &mb, |&x, &y| op.apply(x, y))
    } else {
        return Err(shape_err(a, b));
    };
    Ok(Value::Bool(out))
}

/// Elementwise logical `a & b` / `a | b`.
///
/// # Errors
///
/// Fails on shape mismatch or strings.
pub fn logical(a: &Value, b: &Value, or: bool) -> RuntimeResult<Value> {
    let boolify = |v: &Value| -> RuntimeResult<Matrix<bool>> {
        match v {
            Value::Bool(m) => Ok(m.clone()),
            Value::Complex(m) => Ok(par::map(m, |z| z.re != 0.0 || z.im != 0.0)),
            other => Ok(par::map(&other.to_real_matrix()?, |&v| v != 0.0)),
        }
    };
    let ma = boolify(a)?;
    let mb = boolify(b)?;
    let f = |x: bool, y: bool| if or { x || y } else { x && y };
    let out = if ma.is_scalar() && !mb.is_scalar() {
        let s = ma.first();
        par::map(&mb, |&v| f(s, v))
    } else if mb.is_scalar() && !ma.is_scalar() {
        let s = mb.first();
        par::map(&ma, |&v| f(v, s))
    } else if ma.rows() == mb.rows() && ma.cols() == mb.cols() {
        par::zip(&ma, &mb, |&x, &y| f(x, y))
    } else {
        return Err(shape_err(a, b));
    };
    Ok(Value::Bool(out))
}

/// The colon-range constructor `start : step : stop` (row vector).
///
/// MATLAB silently uses only the real part of complex endpoints
/// (paper §2.5 — this very forgiveness is what makes the speculator's
/// "colon operands are integer scalars" hint safe).
///
/// # Errors
///
/// Fails when `step` is zero, operands are not numeric scalars, or the
/// element count exceeds the allocation ceiling (`0:1e-300:1` asks for
/// ~1e300 elements).
pub fn range(start: &Value, step: Option<&Value>, stop: &Value) -> RuntimeResult<Value> {
    let a = start.to_scalar()?;
    let s = match step {
        Some(v) => v.to_scalar()?,
        None => 1.0,
    };
    let b = stop.to_scalar()?;
    if s == 0.0 {
        return Err(RuntimeError::Raised("range step cannot be zero".to_owned()));
    }
    // A NaN endpoint or step satisfies no iteration condition: MATLAB
    // returns the 1×0 empty. (Without this, `span` goes NaN below,
    // skips the `span < 0` empty return, and the NaN→usize cast lands
    // on n = 1, yielding `[NaN]` — a compiled-vs-interpreted
    // divergence, since counted loops compare against NaN and run zero
    // iterations.)
    if a.is_nan() || s.is_nan() || b.is_nan() {
        return Ok(Value::Real(Matrix::zeros(1, 0)));
    }
    let span = (b - a) / s;
    if span < 0.0 {
        return Ok(Value::Real(Matrix::zeros(1, 0)));
    }
    // Tolerate floating-point endpoints a hair short of an exact count.
    let nf = (span + 1e-10).floor() + 1.0;
    if nf > crate::NUMEL_LIMIT as f64 || nf.is_nan() {
        // Also catches infinite spans (`1:Inf`), whose usize cast would
        // otherwise saturate and wrap the `+ 1`.
        return Err(RuntimeError::AllocLimit {
            requested: format!("1x{nf:e}"),
            limit: crate::NUMEL_LIMIT,
        });
    }
    let n = nf as usize;
    let data: Vec<f64> = (0..n).map(|k| a + k as f64 * s).collect();
    Ok(Value::Real(Matrix::from_vec(1, n, data)))
}

/// Validate a 1-based subscript value and convert to 0-based.
///
/// # Errors
///
/// [`RuntimeError::BadSubscript`] unless `v` is a finite integer ≥ 1.
#[inline]
pub fn to_index(v: f64) -> RuntimeResult<usize> {
    if v < 1.0 || v.fract() != 0.0 || !v.is_finite() {
        return Err(RuntimeError::BadSubscript(format!("{v}")));
    }
    Ok(v as usize - 1)
}

/// Resolve one subscript against an extent into concrete 0-based indices.
fn resolve(sub: &Subscript, extent: usize) -> RuntimeResult<Vec<usize>> {
    match sub {
        Subscript::Colon => Ok((0..extent).collect()),
        Subscript::Index(v) => {
            let m = match v {
                Value::Complex(m) => m.map(|z| z.re),
                other => other.to_real_matrix()?,
            };
            m.iter().map(|&x| to_index(x)).collect()
        }
    }
}

/// Read indexing `base(subs…)` with full bounds checking.
///
/// # Errors
///
/// Fails on out-of-range or malformed subscripts, or more than two
/// subscripts.
pub fn index_get(base: &Value, subs: &[Subscript]) -> RuntimeResult<Value> {
    match base {
        Value::Real(m) => index_get_mat(m, subs).map(Value::Real),
        Value::Complex(m) => index_get_mat(m, subs).map(Value::Complex),
        Value::Bool(m) => index_get_mat(m, subs).map(Value::Bool),
        Value::Str(s) => {
            // Strings index as 1×n char arrays.
            let bytes: Vec<f64> = s.bytes().map(f64::from).collect();
            let m = Matrix::from_vec(1, bytes.len(), bytes);
            let picked = index_get_mat(&m, subs)?;
            let out: String = picked.iter().map(|&b| b as u8 as char).collect();
            Ok(Value::Str(out))
        }
    }
}

fn index_get_mat<T: Clone + Default + PartialEq>(
    m: &Matrix<T>,
    subs: &[Subscript],
) -> RuntimeResult<Matrix<T>> {
    match subs {
        [] => Ok(m.clone()),
        [one] => {
            if matches!(one, Subscript::Colon) {
                // A(:) reshapes to a column vector — O(1) when the
                // buffer is contiguous (shares it copy-on-write),
                // copying only when oversizing slack forces a repack.
                return Ok(m
                    .reshaped(m.numel(), 1)
                    .unwrap_or_else(|| Matrix::from_vec(m.numel(), 1, m.to_contiguous())));
            }
            let idx = resolve(one, m.numel())?;
            for &k in &idx {
                if k >= m.numel() {
                    return Err(RuntimeError::IndexOutOfBounds {
                        index: (k + 1).to_string(),
                        extent: m.numel().to_string(),
                    });
                }
            }
            let data: Vec<T> = idx.iter().map(|&k| m.get_linear(k)).collect();
            // Shape rule: indexing a vector keeps its orientation;
            // indexing a matrix with a vector follows the index shape.
            let n = data.len();
            let (r, c) = if let Subscript::Index(v) = one {
                if m.is_vector() && !m.is_scalar() {
                    if m.rows() == 1 {
                        (1, n)
                    } else {
                        (n, 1)
                    }
                } else {
                    let (ir, _ic) = v.dims();
                    if ir == 1 {
                        (1, n)
                    } else {
                        (n, 1)
                    }
                }
            } else {
                (n, 1)
            };
            Ok(Matrix::from_vec(r, c, data))
        }
        [rsub, csub] => {
            let ridx = resolve(rsub, m.rows())?;
            let cidx = resolve(csub, m.cols())?;
            for &r in &ridx {
                if r >= m.rows() {
                    return Err(RuntimeError::IndexOutOfBounds {
                        index: (r + 1).to_string(),
                        extent: m.rows().to_string(),
                    });
                }
            }
            for &c in &cidx {
                if c >= m.cols() {
                    return Err(RuntimeError::IndexOutOfBounds {
                        index: (c + 1).to_string(),
                        extent: m.cols().to_string(),
                    });
                }
            }
            let mut data = Vec::with_capacity(ridx.len() * cidx.len());
            for &c in &cidx {
                for &r in &ridx {
                    data.push(m.get(r, c));
                }
            }
            Ok(Matrix::from_vec(ridx.len(), cidx.len(), data))
        }
        more => Err(RuntimeError::BadSubscript(format!(
            "{} subscripts (only 1 or 2 supported)",
            more.len()
        ))),
    }
}

/// Indexed store `base(subs…) = rhs`, growing the array when a subscript
/// overflows (paper §2.6.1); `oversize` enables the ~10% headroom
/// optimization on re-layouts.
///
/// # Errors
///
/// Fails on malformed subscripts, growth of a non-vector by linear index,
/// or element-count mismatch between target cells and `rhs`.
pub fn index_set(
    base: &mut Value,
    subs: &[Subscript],
    rhs: &Value,
    oversize: bool,
) -> RuntimeResult<()> {
    // Promote the base (or rhs view) so both sides share a kind.
    match (&mut *base, rhs) {
        (Value::Real(_), Value::Complex(_)) => {
            let promoted = base.to_complex_matrix()?;
            *base = Value::Complex(promoted);
        }
        (Value::Bool(_), rhs_v) if !matches!(rhs_v, Value::Bool(_)) => {
            let promoted = base.to_real_matrix()?;
            *base = Value::Real(promoted);
        }
        _ => {}
    }
    match (base, rhs) {
        (Value::Real(m), _) => {
            let r = match rhs {
                Value::Complex(_) => unreachable!("base was promoted"),
                other => other.to_real_matrix()?,
            };
            index_set_mat(m, subs, &r, oversize)
        }
        (Value::Complex(m), _) => {
            let r = rhs.to_complex_matrix()?;
            index_set_mat(m, subs, &r, oversize)
        }
        (Value::Bool(m), Value::Bool(r)) => index_set_mat(m, subs, r, oversize),
        (b, _) => Err(RuntimeError::TypeMismatch(format!(
            "cannot index-assign into {}",
            match b {
                Value::Str(_) => "a string",
                _ => "this value",
            }
        ))),
    }
}

fn index_set_mat<T: Clone + Default + PartialEq>(
    m: &mut Matrix<T>,
    subs: &[Subscript],
    rhs: &Matrix<T>,
    oversize: bool,
) -> RuntimeResult<()> {
    match subs {
        [one] => {
            let idx = resolve(one, m.numel())?;
            if rhs.numel() != 1 && rhs.numel() != idx.len() {
                return Err(RuntimeError::DimensionMismatch(format!(
                    "assigning {} values to {} cells",
                    rhs.numel(),
                    idx.len()
                )));
            }
            let max = idx.iter().copied().max().map_or(0, |k| k + 1);
            if max > m.numel() {
                // Linear-index growth is only legal for vectors/empties.
                if m.is_empty() || m.rows() == 1 {
                    m.try_grow(1, max, oversize)?;
                } else if m.cols() == 1 {
                    m.try_grow(max, 1, oversize)?;
                } else {
                    return Err(RuntimeError::IndexOutOfBounds {
                        index: max.to_string(),
                        extent: format!(
                            "{}x{} (matrices cannot grow linearly)",
                            m.rows(),
                            m.cols()
                        ),
                    });
                }
            }
            for (pos, &k) in idx.iter().enumerate() {
                let v = if rhs.numel() == 1 {
                    rhs.first()
                } else {
                    rhs.get_linear(pos)
                };
                m.set_linear(k, v);
            }
            Ok(())
        }
        [rsub, csub] => {
            let ridx = resolve(rsub, m.rows())?;
            let cidx = resolve(csub, m.cols())?;
            let cells = ridx.len() * cidx.len();
            if rhs.numel() != 1 && rhs.numel() != cells {
                return Err(RuntimeError::DimensionMismatch(format!(
                    "assigning {} values to {} cells",
                    rhs.numel(),
                    cells
                )));
            }
            let need_r = ridx.iter().copied().max().map_or(0, |k| k + 1);
            let need_c = cidx.iter().copied().max().map_or(0, |k| k + 1);
            if need_r > m.rows() || need_c > m.cols() {
                m.try_grow(need_r.max(m.rows()), need_c.max(m.cols()), oversize)?;
            }
            let mut pos = 0;
            for &c in &cidx {
                for &r in &ridx {
                    let v = if rhs.numel() == 1 {
                        rhs.first()
                    } else {
                        rhs.get_linear(pos)
                    };
                    m.set(r, c, v);
                    pos += 1;
                }
            }
            Ok(())
        }
        other => Err(RuntimeError::BadSubscript(format!(
            "{} subscripts (only 1 or 2 supported)",
            other.len()
        ))),
    }
}

/// Build a matrix literal from evaluated row elements (the bracket
/// operator): horizontal concatenation within rows, vertical across rows.
/// Empty components vanish.
///
/// # Errors
///
/// Fails when component extents disagree or numeric and string parts mix.
pub fn build_matrix(rows: &[Vec<Value>]) -> RuntimeResult<Value> {
    // All-string single row → string concatenation.
    let flat: Vec<&Value> = rows.iter().flatten().collect();
    if !flat.is_empty() && flat.iter().all(|v| matches!(v, Value::Str(_))) && rows.len() == 1 {
        let mut s = String::new();
        for v in flat {
            if let Value::Str(x) = v {
                s.push_str(x);
            }
        }
        return Ok(Value::Str(s));
    }
    if flat.iter().any(|v| matches!(v, Value::Str(_))) {
        return Err(RuntimeError::TypeMismatch(
            "cannot mix strings and numerics in a matrix literal".to_owned(),
        ));
    }

    let complex = flat.iter().any(|v| is_complex(v));
    // Concatenate one row horizontally as a generic matrix.
    fn hcat<T: Clone + Default + PartialEq>(parts: Vec<Matrix<T>>) -> RuntimeResult<Matrix<T>> {
        let parts: Vec<Matrix<T>> = parts.into_iter().filter(|p| !p.is_empty()).collect();
        if parts.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let r = parts[0].rows();
        if parts.iter().any(|p| p.rows() != r) {
            return Err(RuntimeError::DimensionMismatch(
                "horizontal concatenation".to_owned(),
            ));
        }
        let cols = parts.iter().map(Matrix::cols).sum();
        let mut data = Vec::with_capacity(r * cols);
        for p in &parts {
            data.extend(p.to_contiguous());
        }
        Ok(Matrix::from_vec(r, cols, data))
    }
    fn vcat<T: Clone + Default + PartialEq>(parts: Vec<Matrix<T>>) -> RuntimeResult<Matrix<T>> {
        let parts: Vec<Matrix<T>> = parts.into_iter().filter(|p| !p.is_empty()).collect();
        if parts.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let c = parts[0].cols();
        if parts.iter().any(|p| p.cols() != c) {
            return Err(RuntimeError::DimensionMismatch(
                "vertical concatenation".to_owned(),
            ));
        }
        let rows: usize = parts.iter().map(Matrix::rows).sum();
        let mut data = vec![T::default(); rows * c];
        let mut roff = 0;
        for p in &parts {
            for j in 0..c {
                for i in 0..p.rows() {
                    data[j * rows + roff + i] = p.get(i, j);
                }
            }
            roff += p.rows();
        }
        Ok(Matrix::from_vec(rows, c, data))
    }

    if complex {
        let mut row_mats = Vec::new();
        for row in rows {
            let parts: RuntimeResult<Vec<_>> = row.iter().map(Value::to_complex_matrix).collect();
            row_mats.push(hcat(parts?)?);
        }
        Ok(Value::Complex(vcat(row_mats)?).normalized())
    } else {
        let mut row_mats = Vec::new();
        for row in rows {
            let parts: RuntimeResult<Vec<_>> = row.iter().map(Value::to_real_matrix).collect();
            row_mats.push(hcat(parts?)?);
        }
        Ok(Value::Real(vcat(row_mats)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv(rows: Vec<Vec<f64>>) -> Value {
        Value::Real(Matrix::from_rows(rows))
    }

    #[test]
    fn range_with_nan_endpoint_or_step_is_empty() {
        // MATLAB: colon with any NaN bound yields 1x0 empty, and the
        // compiled counted-loop lowering (`i < n` is false for NaN `n`)
        // runs zero iterations — the materialized range must agree.
        for (a, s, b) in [
            (f64::NAN, 1.0, 5.0),
            (1.0, f64::NAN, 5.0),
            (1.0, 1.0, f64::NAN),
            (f64::NAN, f64::NAN, f64::NAN),
        ] {
            let (av, sv, bv) = (Value::scalar(a), Value::scalar(s), Value::scalar(b));
            let v = range(&av, Some(&sv), &bv).unwrap();
            match v {
                Value::Real(m) => {
                    assert_eq!((m.rows(), m.cols()), (1, 0), "{a}:{s}:{b}");
                }
                other => panic!("expected real empty, got {other:?}"),
            }
        }
    }

    #[test]
    fn range_element_count_is_capped() {
        // 0:1e-300:1 would ask for ~1e300 elements; must surface as a
        // catchable AllocLimit, not an OOM abort or a bogus cast.
        let r = |a: f64, s: f64, b: f64| {
            range(
                &Value::scalar(a),
                Some(&Value::scalar(s)),
                &Value::scalar(b),
            )
        };
        match r(0.0, 1e-300, 1.0) {
            Err(RuntimeError::AllocLimit { .. }) => {}
            other => panic!("expected AllocLimit, got {other:?}"),
        }
        match r(1.0, 1.0, f64::INFINITY) {
            Err(RuntimeError::AllocLimit { .. }) => {}
            other => panic!("expected AllocLimit, got {other:?}"),
        }
        // A plain huge-but-degenerate range still works.
        assert_eq!(r(5.0, 1.0, 4.0).unwrap().numel(), 0);
    }

    #[test]
    fn index_set_growth_is_capped() {
        // Scalar store far past the ceiling must fail cleanly rather
        // than attempt a monstrous zero-filled reallocation.
        let big = 1.0 + crate::NUMEL_LIMIT as f64;
        let mut base = Value::Real(Matrix::zeros(1, 1));
        let subs = [
            Subscript::Index(Value::scalar(1.0)),
            Subscript::Index(Value::scalar(big)),
        ];
        let r = index_set(&mut base, &subs, &Value::scalar(7.0), true);
        match r {
            Err(RuntimeError::AllocLimit { .. }) => {}
            other => panic!("expected AllocLimit, got {other:?}"),
        }
    }

    #[test]
    fn scalar_arithmetic() {
        assert_eq!(
            add(&Value::scalar(2.0), &Value::scalar(3.0)).unwrap(),
            Value::scalar(5.0)
        );
        assert_eq!(
            sub(&Value::scalar(2.0), &Value::scalar(3.0)).unwrap(),
            Value::scalar(-1.0)
        );
        assert_eq!(
            elem_mul(&Value::scalar(2.0), &Value::scalar(3.0)).unwrap(),
            Value::scalar(6.0)
        );
    }

    #[test]
    fn scalar_matrix_broadcast() {
        let m = rv(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(
            add(&m, &Value::scalar(10.0)).unwrap(),
            rv(vec![vec![11.0, 12.0], vec![13.0, 14.0]])
        );
        assert_eq!(
            elem_mul(&Value::scalar(2.0), &m).unwrap(),
            rv(vec![vec![2.0, 4.0], vec![6.0, 8.0]])
        );
    }

    #[test]
    fn shape_mismatch_fails() {
        let a = rv(vec![vec![1.0, 2.0]]);
        let b = rv(vec![vec![1.0], vec![2.0]]);
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn complex_promotion() {
        let z = Value::complex_scalar(Complex::new(0.0, 1.0));
        let s = add(&Value::scalar(1.0), &z).unwrap();
        assert_eq!(s, Value::complex_scalar(Complex::new(1.0, 1.0)));
        // i * i = -1, demoted back to real.
        assert_eq!(mul(&z, &z).unwrap(), Value::scalar(-1.0));
    }

    #[test]
    fn matrix_multiply() {
        let a = rv(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = rv(vec![vec![1.0], vec![1.0]]);
        assert_eq!(mul(&a, &b).unwrap(), rv(vec![vec![3.0], vec![7.0]]));
    }

    #[test]
    fn negative_base_fractional_power_goes_complex() {
        let r = elem_pow(&Value::scalar(-8.0), &Value::scalar(0.5)).unwrap();
        match r {
            Value::Complex(m) => {
                let z = m.first();
                assert!(z.re.abs() < 1e-12);
                assert!((z.im - 8f64.sqrt()).abs() < 1e-12);
            }
            other => panic!("expected complex, got {other:?}"),
        }
        // Integer exponent stays real.
        assert_eq!(
            elem_pow(&Value::scalar(-2.0), &Value::scalar(2.0)).unwrap(),
            Value::scalar(4.0)
        );
    }

    #[test]
    fn ranges() {
        assert_eq!(
            range(&Value::scalar(1.0), None, &Value::scalar(4.0)).unwrap(),
            rv(vec![vec![1.0, 2.0, 3.0, 4.0]])
        );
        assert_eq!(
            range(
                &Value::scalar(0.0),
                Some(&Value::scalar(0.5)),
                &Value::scalar(1.0)
            )
            .unwrap(),
            rv(vec![vec![0.0, 0.5, 1.0]])
        );
        // Descending.
        assert_eq!(
            range(
                &Value::scalar(3.0),
                Some(&Value::scalar(-1.0)),
                &Value::scalar(1.0)
            )
            .unwrap(),
            rv(vec![vec![3.0, 2.0, 1.0]])
        );
        // Empty.
        assert_eq!(
            range(&Value::scalar(3.0), None, &Value::scalar(1.0))
                .unwrap()
                .numel(),
            0
        );
        // Complex endpoints use the real part (paper §2.5).
        let z = Value::complex_scalar(Complex::new(3.0, 9.0));
        assert_eq!(range(&Value::scalar(1.0), None, &z).unwrap().numel(), 3);
    }

    #[test]
    fn indexing_reads() {
        let m = rv(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        // Linear, column-major.
        assert_eq!(
            index_get(&m, &[Subscript::Index(Value::scalar(2.0))]).unwrap(),
            Value::scalar(4.0)
        );
        // 2-D.
        assert_eq!(
            index_get(
                &m,
                &[
                    Subscript::Index(Value::scalar(1.0)),
                    Subscript::Index(Value::scalar(3.0))
                ]
            )
            .unwrap(),
            Value::scalar(3.0)
        );
        // Row slice A(1, :).
        assert_eq!(
            index_get(
                &m,
                &[Subscript::Index(Value::scalar(1.0)), Subscript::Colon]
            )
            .unwrap(),
            rv(vec![vec![1.0, 2.0, 3.0]])
        );
        // A(:) flattens column-major.
        assert_eq!(
            index_get(&m, &[Subscript::Colon]).unwrap(),
            rv(vec![
                vec![1.0],
                vec![4.0],
                vec![2.0],
                vec![5.0],
                vec![3.0],
                vec![6.0]
            ])
        );
    }

    #[test]
    fn indexing_bounds_and_validity() {
        let m = rv(vec![vec![1.0, 2.0]]);
        assert!(index_get(&m, &[Subscript::Index(Value::scalar(3.0))]).is_err());
        assert!(index_get(&m, &[Subscript::Index(Value::scalar(0.0))]).is_err());
        assert!(index_get(&m, &[Subscript::Index(Value::scalar(1.5))]).is_err());
    }

    #[test]
    fn vector_index_orientation() {
        // Indexing a row vector keeps row orientation even with a column
        // index.
        let row = rv(vec![vec![10.0, 20.0, 30.0]]);
        let idx = Subscript::Index(rv(vec![vec![1.0], vec![3.0]]));
        let got = index_get(&row, &[idx]).unwrap();
        assert_eq!(got.dims(), (1, 2));
        assert_eq!(got, rv(vec![vec![10.0, 30.0]]));
    }

    #[test]
    fn stores_grow_vectors() {
        let mut v = rv(vec![vec![1.0, 2.0]]);
        index_set(
            &mut v,
            &[Subscript::Index(Value::scalar(4.0))],
            &Value::scalar(9.0),
            false,
        )
        .unwrap();
        assert_eq!(v, rv(vec![vec![1.0, 2.0, 0.0, 9.0]]));
    }

    #[test]
    fn stores_grow_matrices_2d() {
        let mut m = rv(vec![vec![1.0]]);
        index_set(
            &mut m,
            &[
                Subscript::Index(Value::scalar(3.0)),
                Subscript::Index(Value::scalar(2.0)),
            ],
            &Value::scalar(7.0),
            true,
        )
        .unwrap();
        assert_eq!(m.dims(), (3, 2));
        assert_eq!(
            index_get(
                &m,
                &[
                    Subscript::Index(Value::scalar(3.0)),
                    Subscript::Index(Value::scalar(2.0))
                ]
            )
            .unwrap(),
            Value::scalar(7.0)
        );
    }

    #[test]
    fn matrix_cannot_grow_linearly() {
        let mut m = rv(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let err = index_set(
            &mut m,
            &[Subscript::Index(Value::scalar(9.0))],
            &Value::scalar(1.0),
            false,
        );
        assert!(err.is_err());
    }

    #[test]
    fn store_promotes_to_complex() {
        let mut m = rv(vec![vec![1.0, 2.0]]);
        index_set(
            &mut m,
            &[Subscript::Index(Value::scalar(1.0))],
            &Value::complex_scalar(Complex::I),
            false,
        )
        .unwrap();
        assert!(matches!(m, Value::Complex(_)));
    }

    #[test]
    fn comparisons() {
        let m = rv(vec![vec![1.0, 5.0]]);
        let r = compare(Cmp::Lt, &m, &Value::scalar(3.0)).unwrap();
        assert_eq!(r, Value::Bool(Matrix::from_rows(vec![vec![true, false]])));
        // Complex compares by real part.
        let z = Value::complex_scalar(Complex::new(2.0, 100.0));
        assert!(compare(Cmp::Lt, &z, &Value::scalar(3.0)).unwrap().is_true());
    }

    #[test]
    fn logical_ops() {
        let a = rv(vec![vec![1.0, 0.0]]);
        let b = rv(vec![vec![1.0, 1.0]]);
        assert_eq!(
            logical(&a, &b, false).unwrap(),
            Value::Bool(Matrix::from_rows(vec![vec![true, false]]))
        );
        assert_eq!(
            logical(&a, &b, true).unwrap(),
            Value::Bool(Matrix::from_rows(vec![vec![true, true]]))
        );
    }

    #[test]
    fn bracket_concatenation() {
        // [1 2; 3 4]
        let m = build_matrix(&[
            vec![Value::scalar(1.0), Value::scalar(2.0)],
            vec![Value::scalar(3.0), Value::scalar(4.0)],
        ])
        .unwrap();
        assert_eq!(m, rv(vec![vec![1.0, 2.0], vec![3.0, 4.0]]));
        // [v [1 2]] horizontal of row vectors.
        let v = rv(vec![vec![9.0]]);
        let m = build_matrix(&[vec![v, rv(vec![vec![1.0, 2.0]])]]).unwrap();
        assert_eq!(m, rv(vec![vec![9.0, 1.0, 2.0]]));
        // Empties vanish.
        let m = build_matrix(&[vec![Value::empty(), Value::scalar(1.0)]]).unwrap();
        assert_eq!(m, Value::scalar(1.0));
        // Mismatched rows fail.
        assert!(
            build_matrix(&[vec![rv(vec![vec![1.0], vec![2.0]]), rv(vec![vec![1.0]])]]).is_err()
        );
    }

    #[test]
    fn string_concat() {
        let s = build_matrix(&[vec![Value::Str("ab".into()), Value::Str("cd".into())]]).unwrap();
        assert_eq!(s, Value::Str("abcd".into()));
    }

    #[test]
    fn division_variants() {
        // Right division by matrix: x = A/B solves x*B = A.
        let a = rv(vec![vec![4.0, 6.0]]);
        let b = rv(vec![vec![2.0, 0.0], vec![0.0, 3.0]]);
        let x = div(&a, &b).unwrap();
        assert_eq!(x, rv(vec![vec![2.0, 2.0]]));
        // Left division solves B\a.
        let rhs = rv(vec![vec![4.0], vec![6.0]]);
        let x = left_div(&b, &rhs).unwrap();
        assert_eq!(x, rv(vec![vec![2.0], vec![2.0]]));
    }

    #[test]
    fn matrix_power() {
        let a = rv(vec![vec![1.0, 1.0], vec![0.0, 1.0]]);
        let p = pow(&a, &Value::scalar(3.0)).unwrap();
        assert_eq!(p, rv(vec![vec![1.0, 3.0], vec![0.0, 1.0]]));
        let p0 = pow(&a, &Value::scalar(0.0)).unwrap();
        assert_eq!(p0, rv(vec![vec![1.0, 0.0], vec![0.0, 1.0]]));
    }

    #[test]
    fn transpose_variants() {
        let z = Value::Complex(Matrix::from_rows(vec![vec![Complex::new(1.0, 2.0)]]));
        let ct = transpose(&z, true).unwrap();
        let t = transpose(&z, false).unwrap();
        assert_eq!(ct, Value::Complex(Matrix::scalar(Complex::new(1.0, -2.0))));
        assert_eq!(t, z);
    }
}
