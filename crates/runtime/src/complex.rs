//! Double-precision complex arithmetic (no external dependency).

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A complex number `re + im·i`.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The imaginary unit.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// A complex number from parts.
    pub fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// Magnitude `|z|`, overflow-safe.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Complex {
        Complex::new(self.re, -self.im)
    }

    /// Phase angle in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Principal square root.
    pub fn sqrt(self) -> Complex {
        // Real-embedding fast path: keeps sqrt(∞+0i) = ∞ (the general
        // formula would produce a NaN imaginary part) and avoids rounding
        // drift for real inputs.
        if self.im == 0.0 {
            return if self.re >= 0.0 {
                Complex::new(self.re.sqrt(), 0.0)
            } else {
                Complex::new(0.0, (-self.re).sqrt())
            };
        }
        let r = self.abs();
        let re = ((r + self.re) / 2.0).sqrt();
        let im = ((r - self.re) / 2.0).sqrt();
        Complex::new(re, if self.im < 0.0 { -im } else { im })
    }

    /// Complex exponential.
    pub fn exp(self) -> Complex {
        let m = self.re.exp();
        Complex::new(m * self.im.cos(), m * self.im.sin())
    }

    /// Principal natural logarithm.
    pub fn ln(self) -> Complex {
        Complex::new(self.abs().ln(), self.arg())
    }

    /// Complex sine, `(e^{iz} - e^{-iz}) / 2i`.
    #[inline]
    pub fn sin(self) -> Complex {
        let iz = Complex::I * self;
        (iz.exp() - (-iz).exp()) / Complex::new(0.0, 2.0)
    }

    /// Complex cosine, `(e^{iz} + e^{-iz}) / 2`.
    #[inline]
    pub fn cos(self) -> Complex {
        let iz = Complex::I * self;
        (iz.exp() + (-iz).exp()) / Complex::from(2.0)
    }

    /// Complex power `self^exp`.
    pub fn powc(self, exp: Complex) -> Complex {
        if self == Complex::ZERO {
            if exp == Complex::ZERO {
                return Complex::new(1.0, 0.0);
            }
            return Complex::ZERO;
        }
        // Purely real operands with a real-valued result must match
        // `f64::powf` bit-for-bit: complex-typed compiled code would
        // otherwise drift a ulp from the interpreter's real dispatch,
        // which only promotes to the exp(e·ln z) form for a negative
        // base with a fractional exponent.
        if self.im == 0.0 && exp.im == 0.0 && !(self.re < 0.0 && exp.re.fract() != 0.0) {
            return Complex::new(self.re.powf(exp.re), 0.0);
        }
        (exp * self.ln()).exp()
    }

    /// Power with a real exponent.
    pub fn powf(self, exp: f64) -> Complex {
        self.powc(Complex::new(exp, 0.0))
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        // Purely real operands multiply exactly like reals — without
        // this, (∞+0i)·(∞+0i) would produce an `∞·0 = NaN` imaginary
        // part where real arithmetic overflows cleanly to ∞.
        if self.im == 0.0 && rhs.im == 0.0 {
            return Complex::new(self.re * rhs.re, 0.0);
        }
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        // Real-embedding fast path (see `Mul`).
        if self.im == 0.0 && rhs.im == 0.0 {
            return Complex::new(self.re / rhs.re, 0.0);
        }
        // Smith's algorithm for robustness against overflow.
        if rhs.re.abs() >= rhs.im.abs() {
            let r = rhs.im / rhs.re;
            let d = rhs.re + r * rhs.im;
            Complex::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            Complex::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 || self.im.is_nan() {
            write!(f, "{} + {}i", self.re, self.im)
        } else {
            write!(f, "{} - {}i", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn field_operations() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert!(close(a * b / b, a));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
    }

    #[test]
    fn division_is_robust() {
        let a = Complex::new(1.0, 1.0);
        let tiny = Complex::new(1e-300, 1e-300);
        let q = a / tiny;
        assert!(q.re.is_finite());
    }

    #[test]
    fn magnitude_and_conjugate() {
        let z = Complex::new(3.0, 4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.conj(), Complex::new(3.0, -4.0));
    }

    #[test]
    fn sqrt_of_negative_real() {
        let z = Complex::new(-4.0, 0.0);
        assert!(close(z.sqrt(), Complex::new(0.0, 2.0)));
    }

    #[test]
    fn exp_log_roundtrip() {
        let z = Complex::new(0.5, 1.2);
        assert!(close(z.exp().ln(), z));
    }

    #[test]
    fn powers() {
        let z = Complex::new(0.0, 1.0);
        // i^2 = -1
        assert!(close(z.powf(2.0), Complex::new(-1.0, 0.0)));
        assert!(close(Complex::ZERO.powf(0.0), Complex::new(1.0, 0.0)));
        assert_eq!(Complex::ZERO.powf(3.0), Complex::ZERO);
    }

    #[test]
    fn real_operands_match_f64_pow_bit_for_bit() {
        // Found by the differential fuzzer: the exp(e·ln z) form gives
        // 3^1 = 3.0000000000000004, one ulp off the real dispatch the
        // interpreter uses for real values.
        assert_eq!(Complex::from(3.0).powf(1.0), Complex::from(3.0));
        assert_eq!(Complex::from(-2.0).powf(3.0), Complex::from(-8.0));
        assert_eq!(
            Complex::from(10.0).powc(Complex::from(0.5)),
            Complex::from(10.0f64.powf(0.5))
        );
        // A negative base with a fractional exponent still promotes.
        let w = Complex::from(-4.0).powf(0.5);
        assert!(w.im != 0.0);
    }
}
