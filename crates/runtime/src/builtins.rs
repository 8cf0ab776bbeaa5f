//! The MATLAB built-in function library.
//!
//! Builtins are identified by the [`Builtin`] enum so that the compiler
//! (type calculator, code selector) and the runtime agree on identity.
//! Calls run against a [`CallCtx`] that owns the random-number generator
//! and captures printed output.

use crate::{linalg, scalar, Complex, Lcg, Matrix, RuntimeError, RuntimeResult, Value};
use std::fmt;

/// Execution context threaded through builtin calls.
#[derive(Debug, Default)]
pub struct CallCtx {
    /// Deterministic generator behind `rand`.
    pub rng: Lcg,
    /// Output captured from `disp` / `fprintf`.
    pub printed: String,
}

impl CallCtx {
    /// A fresh context with the default seed.
    pub fn new() -> CallCtx {
        CallCtx::default()
    }
}

macro_rules! builtins {
    ($( $variant:ident => $name:literal ),* $(,)?) => {
        /// Identity of a MATLAB built-in function or constant.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Builtin {
            $(#[doc = $name] $variant,)*
        }

        impl Builtin {
            /// Look a builtin up by its MATLAB name.
            pub fn lookup(name: &str) -> Option<Builtin> {
                match name {
                    $($name => Some(Builtin::$variant),)*
                    _ => None,
                }
            }

            /// The MATLAB-visible name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Builtin::$variant => $name,)*
                }
            }

            /// Every builtin (introspection, exhaustive tests).
            pub fn all() -> &'static [Builtin] {
                &[$(Builtin::$variant,)*]
            }
        }
    };
}

builtins! {
    Zeros => "zeros",
    Ones => "ones",
    Eye => "eye",
    Rand => "rand",
    Size => "size",
    Length => "length",
    Numel => "numel",
    IsEmpty => "isempty",
    Abs => "abs",
    Sqrt => "sqrt",
    Exp => "exp",
    Log => "log",
    Log10 => "log10",
    Sin => "sin",
    Cos => "cos",
    Tan => "tan",
    Asin => "asin",
    Acos => "acos",
    Atan => "atan",
    Atan2 => "atan2",
    Floor => "floor",
    Ceil => "ceil",
    Round => "round",
    Fix => "fix",
    Sign => "sign",
    Mod => "mod",
    Rem => "rem",
    Sum => "sum",
    Prod => "prod",
    Max => "max",
    Min => "min",
    Real => "real",
    Imag => "imag",
    Conj => "conj",
    Angle => "angle",
    Norm => "norm",
    Eig => "eig",
    Pi => "pi",
    Eps => "eps",
    Inf => "Inf",
    NaN => "NaN",
    ImagUnitI => "i",
    ImagUnitJ => "j",
    Disp => "disp",
    Error => "error",
    Fprintf => "fprintf",
    Num2Str => "num2str",
}

impl fmt::Display for Builtin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Builtin {
    /// Call the builtin.
    ///
    /// `nargout` is the number of requested outputs (`[m,n] = size(A)`
    /// passes 2); most builtins produce exactly one value.
    ///
    /// # Errors
    ///
    /// Fails on arity, type or shape violations, and when user code calls
    /// `error(...)`.
    pub fn call(
        self,
        ctx: &mut CallCtx,
        args: &[Value],
        nargout: usize,
    ) -> RuntimeResult<Vec<Value>> {
        use Builtin::*;
        let one = |v: Value| Ok(vec![v]);
        match self {
            Zeros | Ones | Rand | Eye => {
                let (r, c) = creation_dims(self.name(), args)?;
                match self {
                    Zeros => one(Value::Real(Matrix::zeros(r, c))),
                    Ones => one(Value::Real(Matrix::from_vec(r, c, vec![1.0; r * c]))),
                    Eye => {
                        let mut m = Matrix::zeros(r, c);
                        for k in 0..r.min(c) {
                            m.set(k, k, 1.0);
                        }
                        one(Value::Real(m))
                    }
                    Rand => {
                        let data: Vec<f64> = (0..r * c).map(|_| ctx.rng.next_f64()).collect();
                        one(Value::Real(Matrix::from_vec(r, c, data)))
                    }
                    _ => unreachable!(),
                }
            }
            Size => {
                let a = arg(args, 0, "size")?;
                let (r, c) = a.dims();
                if args.len() == 2 {
                    let d = args[1].to_scalar()?;
                    let v = if d == 1.0 { r } else { c };
                    return one(Value::scalar(v as f64));
                }
                if nargout >= 2 {
                    Ok(vec![Value::scalar(r as f64), Value::scalar(c as f64)])
                } else {
                    one(Value::Real(Matrix::from_vec(
                        1,
                        2,
                        vec![r as f64, c as f64],
                    )))
                }
            }
            Length => {
                let (r, c) = arg(args, 0, "length")?.dims();
                one(Value::scalar(if r * c == 0 {
                    0.0
                } else {
                    r.max(c) as f64
                }))
            }
            Numel => one(Value::scalar(arg(args, 0, "numel")?.numel() as f64)),
            IsEmpty => one(Value::bool_scalar(arg(args, 0, "isempty")?.is_empty())),

            Abs => {
                let a = arg(args, 0, "abs")?;
                match a {
                    Value::Complex(m) => one(Value::Real(m.map(|z| z.abs()))),
                    other => one(Value::Real(other.to_real_matrix()?.map(|&v| v.abs()))),
                }
            }

            Sqrt => {
                let a = arg(args, 0, "sqrt")?;
                match a {
                    Value::Complex(m) => one(Value::Complex(m.map(|z| z.sqrt())).normalized()),
                    other => {
                        let m = other.to_real_matrix()?;
                        if m.iter().any(|&v| v < 0.0) {
                            one(Value::Complex(m.map(|&v| Complex::from(v).sqrt())))
                        } else {
                            one(Value::Real(m.map(|&v| v.sqrt())))
                        }
                    }
                }
            }
            Exp => complex_aware(args, "exp", |x| x.exp(), |z| z.exp()),
            Log => {
                let a = arg(args, 0, "log")?;
                match a {
                    Value::Complex(m) => one(Value::Complex(m.map(|z| z.ln())).normalized()),
                    other => {
                        let m = other.to_real_matrix()?;
                        if m.iter().any(|&v| v < 0.0) {
                            one(Value::Complex(m.map(|&v| Complex::from(v).ln())))
                        } else {
                            one(Value::Real(m.map(|&v| v.ln())))
                        }
                    }
                }
            }
            Log10 => real_only(args, "log10", |x| x.log10()),
            Sin => complex_aware(args, "sin", f64::sin, Complex::sin),
            Cos => complex_aware(args, "cos", f64::cos, Complex::cos),
            Tan => real_only(args, "tan", |x| x.tan()),
            Asin => real_only(args, "asin", |x| x.asin()),
            Acos => real_only(args, "acos", |x| x.acos()),
            Atan => real_only(args, "atan", |x| x.atan()),
            Atan2 => {
                let y = arg(args, 0, "atan2")?.to_real_matrix()?;
                let x = arg(args, 1, "atan2")?.to_real_matrix()?;
                if y.is_scalar() && x.is_scalar() {
                    return one(Value::scalar(y.first().atan2(x.first())));
                }
                if (y.rows(), y.cols()) != (x.rows(), x.cols()) {
                    return Err(RuntimeError::DimensionMismatch("atan2".to_owned()));
                }
                one(Value::Real(y.zip(&x, |&a, &b| a.atan2(b))))
            }
            Floor => real_only(args, "floor", f64::floor),
            Ceil => real_only(args, "ceil", f64::ceil),
            Round => real_only(args, "round", f64::round),
            Fix => real_only(args, "fix", f64::trunc),
            Sign => real_only(args, "sign", scalar::sign),
            Mod => binary_real(args, "mod", scalar::modulo),
            Rem => binary_real(args, "rem", scalar::rem),
            Sum => reduce(args, "sum", 0.0, |acc, v| acc + v, |acc, z| acc + z),
            Prod => reduce(args, "prod", 1.0, |acc, v| acc * v, |acc, z| acc * z),
            Max => extremum(args, "max", scalar::max),
            Min => extremum(args, "min", scalar::min),
            Real => {
                let a = arg(args, 0, "real")?;
                match a {
                    Value::Complex(m) => one(Value::Real(m.map(|z| z.re))),
                    other => one(Value::Real(other.to_real_matrix()?)),
                }
            }
            Imag => {
                let a = arg(args, 0, "imag")?;
                match a {
                    Value::Complex(m) => one(Value::Real(m.map(|z| z.im))),
                    other => one(Value::Real(other.to_real_matrix()?.map(|_| 0.0))),
                }
            }
            Conj => {
                let a = arg(args, 0, "conj")?;
                match a {
                    Value::Complex(m) => one(Value::Complex(m.map(|z| z.conj()))),
                    other => one(other.clone()),
                }
            }
            Angle => {
                let a = arg(args, 0, "angle")?;
                let m = a.to_complex_matrix()?;
                one(Value::Real(m.map(|z| z.arg())))
            }
            Norm => {
                let a = arg(args, 0, "norm")?;
                let v = match a {
                    Value::Complex(m) => linalg::norm2(m),
                    other => linalg::norm2(&other.to_real_matrix()?),
                };
                one(Value::scalar(v))
            }
            Eig => {
                let a = arg(args, 0, "eig")?;
                let m = a.to_real_matrix().map_err(|_| {
                    RuntimeError::TypeMismatch(
                        "eig of complex matrices is not supported".to_owned(),
                    )
                })?;
                let eigs = linalg::eig(&m)?;
                let n = eigs.len();
                one(Value::Complex(Matrix::from_vec(n, 1, eigs)).normalized())
            }
            Pi => one(Value::scalar(std::f64::consts::PI)),
            Eps => one(Value::scalar(f64::EPSILON)),
            Inf => one(Value::scalar(f64::INFINITY)),
            NaN => one(Value::scalar(f64::NAN)),
            ImagUnitI | ImagUnitJ => one(Value::complex_scalar(Complex::I)),
            Disp => {
                let a = arg(args, 0, "disp")?;
                ctx.printed.push_str(&format!("{a}\n"));
                Ok(vec![])
            }
            Error => {
                let msg = match args.first() {
                    Some(Value::Str(s)) => s.clone(),
                    Some(v) => format!("{v}"),
                    None => "error".to_owned(),
                };
                Err(RuntimeError::Raised(msg))
            }
            Fprintf => {
                let fmt_str = match args.first() {
                    Some(Value::Str(s)) => s.clone(),
                    _ => {
                        return Err(RuntimeError::BadArity {
                            name: "fprintf".to_owned(),
                            detail: "first argument must be a format string".to_owned(),
                        })
                    }
                };
                let text = format_printf(&fmt_str, &args[1..])?;
                ctx.printed.push_str(&text);
                Ok(vec![])
            }
            Num2Str => {
                let a = arg(args, 0, "num2str")?;
                one(Value::Str(format!("{a}")))
            }
        }
    }
}

fn arg<'a>(args: &'a [Value], k: usize, name: &str) -> RuntimeResult<&'a Value> {
    args.get(k).ok_or_else(|| RuntimeError::BadArity {
        name: name.to_owned(),
        detail: format!("expected at least {} argument(s)", k + 1),
    })
}

/// Decode `zeros()`, `zeros(n)`, `zeros(m, n)`, `zeros([m n])`.
///
/// The returned extent is validated against the allocation ceiling
/// ([`crate::checked_numel`]) so callers may multiply and allocate
/// freely: a hostile `zeros(1e300)` or a `rows * cols` that would wrap
/// `usize` surfaces as [`RuntimeError::AllocLimit`] here, before any
/// buffer exists for downstream code to trust.
fn creation_dims(name: &str, args: &[Value]) -> RuntimeResult<(usize, usize)> {
    let to_dim = |v: f64| -> RuntimeResult<usize> {
        if v < 0.0 {
            return Err(RuntimeError::BadSubscript(format!("{v}")));
        }
        if v.is_nan() {
            return Err(RuntimeError::BadSubscript(format!("{v}")));
        }
        // MATLAB warns on fractional sizes and truncates; we truncate
        // too. Infinite sizes saturate and are rejected by the ceiling
        // check below.
        Ok(v as usize)
    };
    let (r, c) = match args.len() {
        0 => (1, 1),
        1 => {
            if args[0].numel() == 2 {
                let m = args[0].to_real_matrix()?;
                (to_dim(m.get_linear(0))?, to_dim(m.get_linear(1))?)
            } else {
                let n = to_dim(args[0].to_scalar()?)?;
                (n, n)
            }
        }
        2 => (to_dim(args[0].to_scalar()?)?, to_dim(args[1].to_scalar()?)?),
        n => {
            return Err(RuntimeError::BadArity {
                name: name.to_owned(),
                detail: format!("{n} arguments"),
            })
        }
    };
    crate::checked_numel(r, c)?;
    Ok((r, c))
}

fn real_only(args: &[Value], name: &str, f: impl Fn(f64) -> f64) -> RuntimeResult<Vec<Value>> {
    let m = arg(args, 0, name)?.to_real_matrix()?;
    Ok(vec![Value::Real(m.map(|&v| f(v)))])
}

fn complex_aware(
    args: &[Value],
    name: &str,
    f: impl Fn(f64) -> f64,
    g: impl Fn(Complex) -> Complex,
) -> RuntimeResult<Vec<Value>> {
    let a = arg(args, 0, name)?;
    match a {
        Value::Complex(m) => Ok(vec![Value::Complex(m.map(|&z| g(z))).normalized()]),
        other => Ok(vec![Value::Real(other.to_real_matrix()?.map(|&v| f(v)))]),
    }
}

fn binary_real(
    args: &[Value],
    name: &str,
    f: impl Fn(f64, f64) -> f64,
) -> RuntimeResult<Vec<Value>> {
    let a = arg(args, 0, name)?.to_real_matrix()?;
    let b = arg(args, 1, name)?.to_real_matrix()?;
    let out = if a.is_scalar() && !b.is_scalar() {
        let s = a.first();
        b.map(|&v| f(s, v))
    } else if b.is_scalar() && !a.is_scalar() {
        let s = b.first();
        a.map(|&v| f(v, s))
    } else if (a.rows(), a.cols()) == (b.rows(), b.cols()) {
        a.zip(&b, |&x, &y| f(x, y))
    } else {
        return Err(RuntimeError::DimensionMismatch(name.to_owned()));
    };
    Ok(vec![Value::Real(out)])
}

/// Column-wise reduction for matrices, whole-vector for vectors. The
/// real closure `f` and its complex lift `fz` must compute the same
/// function (`sum` passes both additions, `prod` both multiplications):
/// the complex arm once hardcoded `acc + z` whatever `f` was, which
/// made `prod` of a complex vector return `1 + Σz` instead of `Πz`.
fn reduce(
    args: &[Value],
    name: &str,
    init: f64,
    f: impl Fn(f64, f64) -> f64,
    fz: impl Fn(Complex, Complex) -> Complex,
) -> RuntimeResult<Vec<Value>> {
    let a = arg(args, 0, name)?;
    match a {
        Value::Complex(m) => {
            let zinit = Complex::from(init);
            if m.is_vector() || m.is_empty() {
                let acc = m.iter().fold(zinit, |a, &z| fz(a, z));
                Ok(vec![Value::Complex(Matrix::scalar(acc)).normalized()])
            } else {
                let data: Vec<Complex> = (0..m.cols())
                    .map(|c| m.col(c).iter().fold(zinit, |a, &z| fz(a, z)))
                    .collect();
                let n = data.len();
                Ok(vec![
                    Value::Complex(Matrix::from_vec(1, n, data)).normalized()
                ])
            }
        }
        other => {
            let m = other.to_real_matrix()?;
            if m.is_vector() || m.is_empty() {
                let acc = m.iter().fold(init, |a, &v| f(a, v));
                Ok(vec![Value::scalar(acc)])
            } else {
                let data: Vec<f64> = (0..m.cols())
                    .map(|c| m.col(c).iter().fold(init, |a, &v| f(a, v)))
                    .collect();
                let n = data.len();
                Ok(vec![Value::Real(Matrix::from_vec(1, n, data))])
            }
        }
    }
}

/// `max` / `min` with MATLAB's 1-argument (reduction) and 2-argument
/// (elementwise) forms.
fn extremum(args: &[Value], name: &str, pick: fn(f64, f64) -> f64) -> RuntimeResult<Vec<Value>> {
    if args.len() >= 2 {
        return binary_real(args, name, pick);
    }
    let m = arg(args, 0, name)?.to_real_matrix()?;
    if m.is_empty() {
        return Ok(vec![Value::empty()]);
    }
    if m.is_vector() {
        let acc = m.iter().copied().reduce(pick).expect("nonempty");
        Ok(vec![Value::scalar(acc)])
    } else {
        let data: Vec<f64> = (0..m.cols())
            .map(|c| m.col(c).iter().copied().reduce(pick).expect("nonempty"))
            .collect();
        let n = data.len();
        Ok(vec![Value::Real(Matrix::from_vec(1, n, data))])
    }
}

/// Minimal `fprintf` formatting: `%d` `%i` `%f` `%g` `%e` `%s` plus `\n`,
/// `\t` and `%%`.
fn format_printf(fmt: &str, args: &[Value]) -> RuntimeResult<String> {
    let mut out = String::new();
    let mut chars = fmt.chars().peekable();
    let mut next_arg = 0usize;
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            },
            '%' => {
                // Skip width/precision flags.
                let mut spec = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() || d == '.' || d == '-' || d == '+' {
                        spec.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                match chars.next() {
                    Some('%') => out.push('%'),
                    Some(conv @ ('d' | 'i' | 'f' | 'g' | 'e' | 's')) => {
                        let v = args.get(next_arg).ok_or_else(|| RuntimeError::BadArity {
                            name: "fprintf".to_owned(),
                            detail: "not enough arguments for format".to_owned(),
                        })?;
                        next_arg += 1;
                        match conv {
                            'd' | 'i' => out.push_str(&format!("{}", v.to_scalar()? as i64)),
                            'f' => {
                                let prec = spec
                                    .split('.')
                                    .nth(1)
                                    .and_then(|p| p.parse::<usize>().ok())
                                    .unwrap_or(6);
                                out.push_str(&format!("{:.*}", prec, v.to_scalar()?));
                            }
                            'g' => out.push_str(&format!("{}", v.to_scalar()?)),
                            'e' => out.push_str(&format!("{:e}", v.to_scalar()?)),
                            's' => out.push_str(&format!("{v}")),
                            _ => unreachable!(),
                        }
                    }
                    Some(other) => {
                        out.push('%');
                        out.push(other);
                    }
                    None => out.push('%'),
                }
            }
            other => out.push(other),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(b: Builtin, args: &[Value]) -> Value {
        let mut ctx = CallCtx::new();
        b.call(&mut ctx, args, 1).unwrap().remove(0)
    }

    #[test]
    fn lookup_round_trips() {
        for &b in Builtin::all() {
            assert_eq!(Builtin::lookup(b.name()), Some(b));
        }
        assert_eq!(Builtin::lookup("no_such_fn"), None);
    }

    #[test]
    fn creation() {
        assert_eq!(call(Builtin::Zeros, &[Value::scalar(2.0)]).dims(), (2, 2));
        assert_eq!(
            call(Builtin::Ones, &[Value::scalar(1.0), Value::scalar(3.0)]),
            Value::Real(Matrix::from_rows(vec![vec![1.0, 1.0, 1.0]]))
        );
        let eye = call(Builtin::Eye, &[Value::scalar(2.0)]);
        assert_eq!(
            eye,
            Value::Real(Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]))
        );
    }

    #[test]
    fn rand_is_deterministic_per_context() {
        let mut c1 = CallCtx::new();
        let mut c2 = CallCtx::new();
        let a = Builtin::Rand.call(&mut c1, &[], 1).unwrap();
        let b = Builtin::Rand.call(&mut c2, &[], 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn size_and_friends() {
        let m = Value::Real(Matrix::zeros(2, 3));
        assert_eq!(
            call(Builtin::Size, std::slice::from_ref(&m)),
            Value::Real(Matrix::from_rows(vec![vec![2.0, 3.0]]))
        );
        assert_eq!(
            call(Builtin::Size, &[m.clone(), Value::scalar(2.0)]),
            Value::scalar(3.0)
        );
        let mut ctx = CallCtx::new();
        let two = Builtin::Size
            .call(&mut ctx, std::slice::from_ref(&m), 2)
            .unwrap();
        assert_eq!(two, vec![Value::scalar(2.0), Value::scalar(3.0)]);
        assert_eq!(
            call(Builtin::Length, std::slice::from_ref(&m)),
            Value::scalar(3.0)
        );
        assert_eq!(call(Builtin::Numel, &[m]), Value::scalar(6.0));
        assert_eq!(
            call(Builtin::IsEmpty, &[Value::empty()]),
            Value::bool_scalar(true)
        );
    }

    #[test]
    fn sqrt_promotes_negative_input() {
        assert_eq!(
            call(Builtin::Sqrt, &[Value::scalar(4.0)]),
            Value::scalar(2.0)
        );
        let z = call(Builtin::Sqrt, &[Value::scalar(-4.0)]);
        assert_eq!(z, Value::complex_scalar(Complex::new(0.0, 2.0)));
    }

    #[test]
    fn mod_and_rem_signs() {
        assert_eq!(
            call(Builtin::Mod, &[Value::scalar(-1.0), Value::scalar(3.0)]),
            Value::scalar(2.0)
        );
        assert_eq!(
            call(Builtin::Rem, &[Value::scalar(-1.0), Value::scalar(3.0)]),
            Value::scalar(-1.0)
        );
    }

    #[test]
    fn complex_prod_applies_the_reduction_closure() {
        // Regression: the complex arm of `reduce` hardcoded `acc + z`,
        // so prod of a complex vector returned 1 + Σz instead of Πz.
        let z = Value::Complex(Matrix::from_rows(vec![vec![
            Complex::new(1.0, 2.0),
            Complex::new(0.0, 3.0),
        ]]));
        // (1 + 2i)·3i = -6 + 3i
        assert_eq!(
            call(Builtin::Prod, std::slice::from_ref(&z)),
            Value::complex_scalar(Complex::new(-6.0, 3.0))
        );
        // And sum keeps its meaning through the shared helper.
        assert_eq!(
            call(Builtin::Sum, &[z]),
            Value::complex_scalar(Complex::new(1.0, 5.0))
        );
    }

    #[test]
    fn complex_matrix_reductions_are_columnwise() {
        let m = Value::Complex(Matrix::from_rows(vec![
            vec![Complex::new(1.0, 1.0), Complex::new(0.0, 3.0)],
            vec![Complex::new(2.0, 0.0), Complex::new(1.0, -1.0)],
        ]));
        // prod: [(1+i)·2, 3i·(1-i)] = [2+2i, 3+3i]
        assert_eq!(
            call(Builtin::Prod, std::slice::from_ref(&m)),
            Value::Complex(Matrix::from_rows(vec![vec![
                Complex::new(2.0, 2.0),
                Complex::new(3.0, 3.0),
            ]]))
        );
        // sum: [3+i, 1+2i]
        assert_eq!(
            call(Builtin::Sum, &[m]),
            Value::Complex(Matrix::from_rows(vec![vec![
                Complex::new(3.0, 1.0),
                Complex::new(1.0, 2.0),
            ]]))
        );
    }

    #[test]
    fn complex_empty_reductions_match_real_identities() {
        // sum([]) = 0 and prod([]) = 1 whatever the element kind; the
        // all-real results demote to real scalars on normalization.
        let e = Value::Complex(Matrix::zeros(0, 0));
        assert_eq!(
            call(Builtin::Sum, std::slice::from_ref(&e)),
            Value::scalar(0.0)
        );
        assert_eq!(call(Builtin::Prod, &[e]), Value::scalar(1.0));
    }

    #[test]
    fn reductions_on_all_nan_vectors() {
        let nan = f64::NAN;
        let v = Value::Real(Matrix::from_rows(vec![vec![nan, nan, nan]]));
        for b in [Builtin::Max, Builtin::Min, Builtin::Sum, Builtin::Prod] {
            let r = call(b, std::slice::from_ref(&v));
            assert_eq!(r.dims(), (1, 1), "{}", b.name());
            assert!(r.to_scalar().unwrap().is_nan(), "{}", b.name());
        }
    }

    #[test]
    fn reductions_on_empty_matrices() {
        let e = Value::empty();
        // max/min of an empty are empty; sum/prod yield their identity.
        assert_eq!(call(Builtin::Max, std::slice::from_ref(&e)), Value::empty());
        assert_eq!(call(Builtin::Min, std::slice::from_ref(&e)), Value::empty());
        assert_eq!(
            call(Builtin::Sum, std::slice::from_ref(&e)),
            Value::scalar(0.0)
        );
        assert_eq!(call(Builtin::Prod, &[e]), Value::scalar(1.0));
    }

    #[test]
    fn reductions_on_single_column_matrices() {
        // An n×1 matrix is a vector: the whole-vector path applies and
        // the result is a scalar, not a 1×1-per-column row.
        let v = Value::Real(Matrix::from_rows(vec![vec![4.0], vec![1.0], vec![9.0]]));
        assert_eq!(
            call(Builtin::Max, std::slice::from_ref(&v)),
            Value::scalar(9.0)
        );
        assert_eq!(
            call(Builtin::Min, std::slice::from_ref(&v)),
            Value::scalar(1.0)
        );
        assert_eq!(
            call(Builtin::Sum, std::slice::from_ref(&v)),
            Value::scalar(14.0)
        );
        assert_eq!(call(Builtin::Prod, &[v]), Value::scalar(36.0));
    }

    #[test]
    fn extremum_columnwise_handles_nan_columns() {
        // Column-wise max/min must ignore NaNs inside mixed columns and
        // yield NaN only for all-NaN columns.
        let nan = f64::NAN;
        let m = Value::Real(Matrix::from_rows(vec![
            vec![1.0, nan, nan],
            vec![2.0, nan, 5.0],
        ]));
        let check = |b: Builtin, mixed: f64| {
            let r = match call(b, std::slice::from_ref(&m)) {
                Value::Real(r) => r,
                other => panic!("expected real row, got {other:?}"),
            };
            assert_eq!((r.rows(), r.cols()), (1, 3), "{}", b.name());
            assert_eq!(r.get(0, 0), mixed, "{}", b.name());
            assert!(r.get(0, 1).is_nan(), "{}: all-NaN column", b.name());
            assert_eq!(r.get(0, 2), 5.0, "{}: NaN ignored", b.name());
        };
        check(Builtin::Max, 2.0);
        check(Builtin::Min, 1.0);
    }

    #[test]
    fn reductions() {
        let v = Value::Real(Matrix::from_rows(vec![vec![1.0, 2.0, 3.0]]));
        assert_eq!(
            call(Builtin::Sum, std::slice::from_ref(&v)),
            Value::scalar(6.0)
        );
        assert_eq!(
            call(Builtin::Prod, std::slice::from_ref(&v)),
            Value::scalar(6.0)
        );
        assert_eq!(
            call(Builtin::Max, std::slice::from_ref(&v)),
            Value::scalar(3.0)
        );
        assert_eq!(call(Builtin::Min, &[v]), Value::scalar(1.0));
        // Matrices reduce column-wise.
        let m = Value::Real(Matrix::from_rows(vec![vec![1.0, 5.0], vec![3.0, 2.0]]));
        assert_eq!(
            call(Builtin::Sum, std::slice::from_ref(&m)),
            Value::Real(Matrix::from_rows(vec![vec![4.0, 7.0]]))
        );
        assert_eq!(
            call(Builtin::Max, &[m]),
            Value::Real(Matrix::from_rows(vec![vec![3.0, 5.0]]))
        );
    }

    #[test]
    fn two_arg_extremum_is_elementwise() {
        let a = Value::Real(Matrix::from_rows(vec![vec![1.0, 9.0]]));
        assert_eq!(
            call(Builtin::Max, &[a, Value::scalar(5.0)]),
            Value::Real(Matrix::from_rows(vec![vec![5.0, 9.0]]))
        );
    }

    #[test]
    fn complex_parts() {
        let z = Value::complex_scalar(Complex::new(3.0, 4.0));
        assert_eq!(
            call(Builtin::Real, std::slice::from_ref(&z)),
            Value::scalar(3.0)
        );
        assert_eq!(
            call(Builtin::Imag, std::slice::from_ref(&z)),
            Value::scalar(4.0)
        );
        assert_eq!(call(Builtin::Abs, &[z]), Value::scalar(5.0));
    }

    #[test]
    fn constants() {
        assert_eq!(call(Builtin::Pi, &[]), Value::scalar(std::f64::consts::PI));
        assert_eq!(
            call(Builtin::ImagUnitI, &[]),
            Value::complex_scalar(Complex::I)
        );
    }

    #[test]
    fn norm_of_vector() {
        let v = Value::Real(Matrix::from_rows(vec![vec![3.0], vec![4.0]]));
        assert_eq!(call(Builtin::Norm, &[v]), Value::scalar(5.0));
    }

    #[test]
    fn eig_of_symmetric() {
        let m = Value::Real(Matrix::from_rows(vec![vec![2.0, 1.0], vec![1.0, 2.0]]));
        let e = call(Builtin::Eig, &[m]);
        let e = e.to_real_matrix().unwrap();
        let mut vals = e.to_contiguous();
        vals.sort_by(f64::total_cmp);
        assert!((vals[0] - 1.0).abs() < 1e-8);
        assert!((vals[1] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn disp_and_fprintf_capture_output() {
        let mut ctx = CallCtx::new();
        Builtin::Disp
            .call(&mut ctx, &[Value::Str("hello".into())], 0)
            .unwrap();
        Builtin::Fprintf
            .call(
                &mut ctx,
                &[
                    Value::Str("x = %d, y = %.2f\\n".into()),
                    Value::scalar(3.0),
                    Value::scalar(1.5),
                ],
                0,
            )
            .unwrap();
        assert_eq!(ctx.printed, "hello\nx = 3, y = 1.50\n");
    }

    #[test]
    fn error_raises() {
        let mut ctx = CallCtx::new();
        let err = Builtin::Error
            .call(&mut ctx, &[Value::Str("boom".into())], 0)
            .unwrap_err();
        assert_eq!(err, RuntimeError::Raised("boom".to_owned()));
    }
}
