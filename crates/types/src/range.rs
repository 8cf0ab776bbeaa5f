//! The value-range lattice `Ll` (paper §2.2), with interval arithmetic used
//! for the constant-propagation and subscript-check-removal extensions of
//! JIT type inference (paper §2.4).

use crate::Lattice;
use std::fmt;

/// An inclusive real interval `<lo, hi>`.
///
/// `⊥ = <nan, nan>` (no value), `⊤ = <−∞, ∞>` (any value). Ordered by
/// containment: `<a,b> ⊑ <c,d>` iff `<a,b> = ⊥` or (`c ≤ a` and `b ≤ d`).
///
/// Ranges are defined only for real-valued expressions; complex and string
/// expressions carry `⊤` (see [`crate::Intrinsic::has_range`]).
#[derive(Clone, Copy, Debug)]
pub struct Range {
    lo: f64,
    hi: f64,
}

impl Range {
    /// A well-formed interval. Returns `⊥` when `lo > hi` or either bound is
    /// NaN (the paper calls such ranges malformed).
    pub fn new(lo: f64, hi: f64) -> Range {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            Range::bottom()
        } else {
            Range { lo, hi }
        }
    }

    /// The degenerate interval `<v, v>` of a known constant.
    pub fn constant(v: f64) -> Range {
        Range::new(v, v)
    }

    /// Lower bound (NaN iff `⊥`).
    pub fn lo(self) -> f64 {
        self.lo
    }

    /// Upper bound (NaN iff `⊥`).
    pub fn hi(self) -> f64 {
        self.hi
    }

    /// Is this the empty (`⊥`) range?
    pub fn is_bottom(self) -> bool {
        self.lo.is_nan()
    }

    /// Is this the full (`⊤`) range?
    pub fn is_top(self) -> bool {
        self.lo == f64::NEG_INFINITY && self.hi == f64::INFINITY
    }

    /// The constant value, if this range pins one down exactly.
    ///
    /// A real value is a constant if its lower and upper limits are equal
    /// (paper §2.4, "Constant propagation").
    pub fn as_constant(self) -> Option<f64> {
        (!self.is_bottom() && self.lo == self.hi && self.lo.is_finite()).then_some(self.lo)
    }

    /// Does every value in the range lie within `[lo, hi]`?
    ///
    /// `⊥` vacuously satisfies any bounds. This is the primitive behind
    /// subscript-check removal.
    pub fn within(self, lo: f64, hi: f64) -> bool {
        self.is_bottom() || (self.lo >= lo && self.hi <= hi)
    }

    /// Are all values known to be non-negative?
    pub fn is_nonnegative(self) -> bool {
        self.is_bottom() || self.lo >= 0.0
    }

    /// Interval addition.
    // Named like the `std::ops` methods on purpose: these are lattice
    // transfer functions invoked by name from the rule database, not
    // operator sugar, and `⊥`-propagation makes them unfit for the traits.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Range) -> Range {
        if self.is_bottom() || other.is_bottom() {
            return Range::bottom();
        }
        Range::new(self.lo + other.lo, self.hi + other.hi)
    }

    /// Interval subtraction.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Range) -> Range {
        if self.is_bottom() || other.is_bottom() {
            return Range::bottom();
        }
        Range::new(self.lo - other.hi, self.hi - other.lo)
    }

    /// Interval negation.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Range {
        if self.is_bottom() {
            return Range::bottom();
        }
        Range::new(-self.hi, -self.lo)
    }

    /// Interval multiplication.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Range) -> Range {
        if self.is_bottom() || other.is_bottom() {
            return Range::bottom();
        }
        let products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        // 0 * inf = NaN must widen, not poison.
        if products.iter().any(|p| p.is_nan()) {
            return Range::top();
        }
        let lo = products.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = products.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Range::new(lo, hi)
    }

    /// Interval division; widens to `⊤` when the divisor may be zero.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Range) -> Range {
        if self.is_bottom() || other.is_bottom() {
            return Range::bottom();
        }
        if other.lo <= 0.0 && other.hi >= 0.0 {
            return Range::top();
        }
        // Divide endpoints directly: going through reciprocals
        // (`a * (1/b)`) rounds twice, so the interval could exclude the
        // correctly-rounded runtime quotient (10/7 ≠ 10*(1/7) in f64).
        // Rounding is monotone, so endpoint quotients bound every
        // interior quotient even in floating point.
        let quotients = [
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        ];
        if quotients.iter().any(|q| q.is_nan()) {
            return Range::top();
        }
        let lo = quotients.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = quotients.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Range::new(lo, hi)
    }

    /// Interval power for integral known exponents; `⊤` otherwise.
    pub fn powi(self, n: f64) -> Range {
        // `x^0` is 1 for every `x`, NaN (the `⊥` range) included.
        if n == 0.0 {
            return Range::constant(1.0);
        }
        if self.is_bottom() {
            return Range::bottom();
        }
        if n.fract() != 0.0 || !n.is_finite() {
            return Range::top();
        }
        // A negative power has a pole at zero (`0^-1` is Inf, `-0^-1`
        // is -Inf), so endpoint images bound nothing across it.
        if n < 0.0 && self.lo <= 0.0 && self.hi >= 0.0 {
            return Range::top();
        }
        // `as i32` saturates for |n| beyond i32, silently turning e.g.
        // x^1e10 into x^i32::MAX — a *different* function whose interval
        // would be unsound to trust. Widen instead.
        if n < f64::from(i32::MIN) || n > f64::from(i32::MAX) {
            return Range::top();
        }
        let n = n as i32;
        let a = self.lo.powi(n);
        let b = self.hi.powi(n);
        if n % 2 == 0 && self.lo < 0.0 && self.hi > 0.0 {
            Range::new(0.0, a.max(b))
        } else {
            Range::new(a.min(b), a.max(b))
        }
    }

    /// Pointwise floor.
    pub fn floor(self) -> Range {
        if self.is_bottom() {
            return self;
        }
        Range::new(self.lo.floor(), self.hi.floor())
    }

    /// Pointwise ceil.
    pub fn ceil(self) -> Range {
        if self.is_bottom() {
            return self;
        }
        Range::new(self.lo.ceil(), self.hi.ceil())
    }

    /// Pointwise round-half-away-from-zero (MATLAB `round`).
    pub fn round(self) -> Range {
        if self.is_bottom() {
            return self;
        }
        Range::new(self.lo.round(), self.hi.round())
    }

    /// Absolute value.
    pub fn abs(self) -> Range {
        if self.is_bottom() {
            return self;
        }
        if self.lo >= 0.0 {
            self
        } else if self.hi <= 0.0 {
            self.neg()
        } else {
            Range::new(0.0, (-self.lo).max(self.hi))
        }
    }

    /// Pointwise min.
    pub fn min_with(self, other: Range) -> Range {
        if self.is_bottom() || other.is_bottom() {
            return Range::bottom();
        }
        Range::new(self.lo.min(other.lo), self.hi.min(other.hi))
    }

    /// Pointwise max.
    pub fn max_with(self, other: Range) -> Range {
        if self.is_bottom() || other.is_bottom() {
            return Range::bottom();
        }
        Range::new(self.lo.max(other.lo), self.hi.max(other.hi))
    }

    /// Widen this range against an older one: any bound that moved jumps to
    /// infinity. Used by the inference engine's iteration cap to guarantee
    /// termination (paper §2.3: "caps the number of iterations").
    pub fn widen_from(self, older: Range) -> Range {
        if self.is_bottom() {
            return self;
        }
        if older.is_bottom() {
            return self;
        }
        let lo = if self.lo < older.lo {
            f64::NEG_INFINITY
        } else {
            self.lo
        };
        let hi = if self.hi > older.hi {
            f64::INFINITY
        } else {
            self.hi
        };
        Range::new(lo, hi)
    }

    /// A looseness score for the Manhattan distance heuristic.
    pub fn slack_vs(self, other: Range) -> u64 {
        fn bound_slack(a: f64, b: f64) -> u64 {
            if a == b {
                0
            } else if a.is_finite() && b.is_finite() {
                1
            } else {
                10
            }
        }
        if self.is_bottom() && other.is_bottom() {
            return 0;
        }
        if self.is_bottom() || other.is_bottom() {
            return 20;
        }
        bound_slack(self.lo, other.lo) + bound_slack(self.hi, other.hi)
    }
}

impl PartialEq for Range {
    fn eq(&self, other: &Self) -> bool {
        (self.is_bottom() && other.is_bottom()) || (self.lo == other.lo && self.hi == other.hi)
    }
}

impl Eq for Range {}

impl Lattice for Range {
    fn bottom() -> Self {
        Range {
            lo: f64::NAN,
            hi: f64::NAN,
        }
    }

    fn top() -> Self {
        Range {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    fn join(&self, other: &Self) -> Self {
        if self.is_bottom() {
            return *other;
        }
        if other.is_bottom() {
            return *self;
        }
        Range::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    fn meet(&self, other: &Self) -> Self {
        if self.is_bottom() || other.is_bottom() {
            return Range::bottom();
        }
        Range::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    fn le(&self, other: &Self) -> bool {
        self.is_bottom() || (!other.is_bottom() && other.lo <= self.lo && self.hi <= other.hi)
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_bottom() {
            f.write_str("<nan,nan>")
        } else {
            write!(f, "<{},{}>", self.lo, self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powi_huge_exponent_widens_to_top() {
        // `n as i32` saturates for |n| > i32::MAX; the interval for
        // x^i32::MAX is not the interval for x^1e10, so powi must widen
        // rather than silently analyze a different function.
        let x = Range::new(0.5, 2.0);
        assert_eq!(x.powi(1e10), Range::top());
        assert_eq!(x.powi(-1e10), Range::top());
        assert_eq!(x.powi(4e9), Range::top());
        // Boundary values that do fit stay precise.
        assert!(x.powi(2.0).le(&Range::new(0.25, 4.0)));
        assert_eq!(
            Range::constant(1.0).powi(f64::from(i32::MAX)),
            Range::constant(1.0)
        );
    }

    #[test]
    fn malformed_ranges_collapse_to_bottom() {
        assert!(Range::new(2.0, 1.0).is_bottom());
        assert!(Range::new(f64::NAN, 1.0).is_bottom());
    }

    #[test]
    fn containment_order() {
        let small = Range::new(2.0, 3.0);
        let big = Range::new(0.0, 10.0);
        assert!(small.le(&big));
        assert!(!big.le(&small));
        assert!(Range::bottom().le(&small));
        assert!(small.le(&Range::top()));
        assert!(!small.le(&Range::bottom()));
    }

    #[test]
    fn constant_division_matches_runtime_rounding() {
        // Found by the differential fuzzer: 10/7 computed as 10*(1/7)
        // rounds twice and lands one ulp below the runtime quotient,
        // so the inferred "constant" excluded the actual value.
        let q = Range::constant(10.0).div(Range::constant(7.0));
        assert_eq!(q, Range::constant(10.0 / 7.0));
        // Sign-definite interval endpoints still bound interior pairs.
        let r = Range::new(1.0, 2.0).div(Range::new(4.0, 8.0));
        assert_eq!(r, Range::new(1.0 / 8.0, 2.0 / 4.0));
    }

    #[test]
    fn join_is_hull_meet_is_intersection() {
        let a = Range::new(0.0, 5.0);
        let b = Range::new(3.0, 9.0);
        assert_eq!(a.join(&b), Range::new(0.0, 9.0));
        assert_eq!(a.meet(&b), Range::new(3.0, 5.0));
        let c = Range::new(7.0, 8.0);
        assert!(a.meet(&c).is_bottom());
    }

    #[test]
    fn constants() {
        assert_eq!(Range::constant(4.0).as_constant(), Some(4.0));
        assert_eq!(Range::new(1.0, 2.0).as_constant(), None);
        assert_eq!(Range::top().as_constant(), None);
    }

    #[test]
    fn arithmetic() {
        let a = Range::new(1.0, 2.0);
        let b = Range::new(10.0, 20.0);
        assert_eq!(a.add(b), Range::new(11.0, 22.0));
        assert_eq!(b.sub(a), Range::new(8.0, 19.0));
        assert_eq!(a.mul(b), Range::new(10.0, 40.0));
        assert_eq!(a.neg(), Range::new(-2.0, -1.0));
        assert_eq!(Range::new(-3.0, 2.0).abs(), Range::new(0.0, 3.0));
    }

    #[test]
    fn division_by_possibly_zero_widens() {
        let a = Range::new(1.0, 2.0);
        assert!(a.div(Range::new(-1.0, 1.0)).is_top());
        assert_eq!(a.div(Range::new(2.0, 4.0)), Range::new(0.25, 1.0));
    }

    #[test]
    fn power() {
        assert_eq!(Range::new(2.0, 3.0).powi(2.0), Range::new(4.0, 9.0));
        assert_eq!(Range::new(-2.0, 3.0).powi(2.0), Range::new(0.0, 9.0));
        assert!(Range::new(2.0, 3.0).powi(0.5).is_top());
    }

    #[test]
    fn subscript_bounds() {
        assert!(Range::new(1.0, 100.0).within(1.0, 100.0));
        assert!(!Range::new(0.0, 100.0).within(1.0, 100.0));
        assert!(Range::bottom().within(1.0, 1.0));
    }

    #[test]
    fn widening_jumps_moved_bounds_to_infinity() {
        let older = Range::new(1.0, 10.0);
        let grown = Range::new(1.0, 11.0);
        let w = grown.widen_from(older);
        assert_eq!(w.lo(), 1.0);
        assert_eq!(w.hi(), f64::INFINITY);
        // A stable range is left alone.
        assert_eq!(older.widen_from(older), older);
    }

    #[test]
    fn rounding() {
        assert_eq!(Range::new(1.2, 2.8).floor(), Range::new(1.0, 2.0));
        assert_eq!(Range::new(1.2, 2.8).ceil(), Range::new(2.0, 3.0));
        assert_eq!(Range::new(1.2, 2.8).round(), Range::new(1.0, 3.0));
    }
}
