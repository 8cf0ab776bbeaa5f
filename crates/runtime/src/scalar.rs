//! The one definition of each scalar builtin that is more than a single
//! IEEE operation.
//!
//! The builtins map these over matrices and the VM executes them for
//! the `F`-register instructions, so every execution mode computes the
//! same bits.
//! They are `#[inline]` because the VM's dispatch loop calls them across
//! the crate boundary.

/// MATLAB's NaN-ignoring pick: a NaN operand yields the other one. On a
/// tie (`0` against `-0` included) `min` keeps `a` and `max` keeps `b`.
#[inline]
fn pick(a: f64, b: f64, is_max: bool) -> f64 {
    if a.is_nan() {
        b
    } else if b.is_nan() || (a > b) == is_max {
        a
    } else {
        b
    }
}

/// `min(a, b)`.
#[inline]
pub fn min(a: f64, b: f64) -> f64 {
    pick(a, b, false)
}

/// `max(a, b)`.
#[inline]
pub fn max(a: f64, b: f64) -> f64 {
    pick(a, b, true)
}

/// `mod(a, b)`: the remainder takes the divisor's sign; `mod(a, 0)` is `a`.
#[inline]
pub fn modulo(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        a
    } else {
        a - (a / b).floor() * b
    }
}

/// `rem(a, b)`: the remainder takes the dividend's sign; `rem(a, 0)` is NaN.
#[inline]
pub fn rem(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        f64::NAN
    } else {
        a - (a / b).trunc() * b
    }
}

/// `sign(x)`: `1`, `-1`, or `0` for zero and NaN.
#[inline]
pub fn sign(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ties_keep_the_first_operand_for_min_and_the_second_for_max() {
        assert!((1.0 / min(0.0, -0.0)).is_sign_positive());
        assert!((1.0 / max(0.0, -0.0)).is_sign_negative());
        assert_eq!(min(f64::NAN, 2.0), 2.0);
        assert_eq!(max(2.0, f64::NAN), 2.0);
    }

    #[test]
    fn division_by_zero_follows_matlab() {
        assert_eq!(modulo(1.0, 0.0), 1.0);
        assert!(rem(1.0, 0.0).is_nan());
        assert_eq!(modulo(-1.0, 3.0), 2.0);
        assert_eq!(rem(-1.0, 3.0), -1.0);
    }
}
