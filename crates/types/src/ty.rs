//! The product type `T = Li × Ls × Ls × Ll` (paper §2.2).

use crate::{Dim, Intrinsic, Lattice, Range, Shape};
use std::fmt;

/// A MaJIC type: intrinsic type, lower/upper shape bounds, and value range.
///
/// The two shape components track lower as well as upper bounds of the shape
/// descriptor ("minshape"/"maxshape" in the paper's Figure 3); shape is
/// *exactly* known when the two coincide, which enables full unrolling of
/// small-vector operations. Range information generalizes constant
/// propagation and drives subscript-check removal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Type {
    /// Intrinsic type component (`Li`).
    pub intrinsic: Intrinsic,
    /// Lower bound of the shape (`Ls`, first copy).
    pub min_shape: Shape,
    /// Upper bound of the shape (`Ls`, second copy).
    pub max_shape: Shape,
    /// Value-range component (`Ll`).
    pub range: Range,
}

impl Type {
    /// A scalar of the given intrinsic type with unknown value.
    pub fn scalar(intrinsic: Intrinsic) -> Type {
        Type {
            intrinsic,
            min_shape: Shape::scalar(),
            max_shape: Shape::scalar(),
            range: Range::top(),
        }
    }

    /// The exact type of a real scalar constant. Integral values are typed
    /// `int` (MATLAB stores them in doubles; integrality is what the
    /// compiler exploits).
    pub fn constant(v: f64) -> Type {
        let intrinsic = if v.fract() == 0.0 && v.is_finite() {
            Intrinsic::Int
        } else {
            Intrinsic::Real
        };
        Type {
            intrinsic,
            min_shape: Shape::scalar(),
            max_shape: Shape::scalar(),
            range: Range::constant(v),
        }
    }

    /// A matrix of exactly known shape and unknown values.
    pub fn matrix(intrinsic: Intrinsic, rows: u64, cols: u64) -> Type {
        let s = Shape::new(rows, cols);
        Type {
            intrinsic,
            min_shape: s,
            max_shape: s,
            range: Range::top(),
        }
    }

    /// A string (char row vector) of unknown length.
    pub fn string() -> Type {
        Type {
            intrinsic: Intrinsic::Str,
            min_shape: Shape::new(1, 0),
            max_shape: Shape {
                rows: Dim::Finite(1),
                cols: Dim::Inf,
            },
            range: Range::top(),
        }
    }

    /// Is the shape exactly determined (lower and upper bounds equal and
    /// finite)?
    pub fn exact_shape(&self) -> Option<Shape> {
        (self.min_shape == self.max_shape && self.max_shape.is_finite()).then_some(self.max_shape)
    }

    /// Is this certainly a scalar (`1 × 1`)?
    pub fn is_scalar(&self) -> bool {
        self.exact_shape().is_some_and(Shape::is_scalar)
    }

    /// Could this be a scalar? (`1 × 1` lies between the bounds.)
    pub fn may_be_scalar(&self) -> bool {
        self.min_shape.le(&Shape::scalar()) && Shape::scalar().le(&self.max_shape)
    }

    /// The constant value, if this type pins one down.
    pub fn as_constant(&self) -> Option<f64> {
        self.is_scalar().then(|| self.range.as_constant())?
    }

    /// Force the shape to be exactly `shape` (both bounds).
    pub fn with_exact_shape(mut self, shape: Shape) -> Type {
        self.min_shape = shape;
        self.max_shape = shape;
        self
    }

    /// Replace the range component.
    pub fn with_range(mut self, range: Range) -> Type {
        self.range = range;
        self
    }

    /// Replace the intrinsic component, widening the range to `⊤` when the
    /// new intrinsic type does not track one (complex, string, `⊤`).
    pub fn with_intrinsic(mut self, intrinsic: Intrinsic) -> Type {
        self.intrinsic = intrinsic;
        if !intrinsic.has_range() {
            self.range = Range::top();
        }
        self
    }

    /// The *safety* order used by the repository's signature check
    /// (paper §2.2.1): an invocation with actual types `Q` may execute code
    /// compiled for signature types `T` iff `Q ⊑ T` in this order.
    ///
    /// Componentwise: intrinsic, max-shape and range are covariant
    /// (`⊑`); the min-shape is *contravariant* (code compiled assuming the
    /// array has at least `T.min_shape` elements — e.g. with subscript
    /// checks removed — must receive a value at least that large).
    pub fn is_subtype_of(&self, other: &Type) -> bool {
        self.intrinsic.le(&other.intrinsic)
            && self.max_shape.le(&other.max_shape)
            && other.min_shape.le(&self.min_shape)
            && self.range.le(&other.range)
    }

    /// Manhattan-like distance between an invocation type and a candidate
    /// signature type (paper §2.2.1): the sum of per-lattice slack. Used to
    /// pick the *best* safe candidate; smaller means more specialized.
    pub fn distance(&self, other: &Type) -> u64 {
        let intr = u64::from(self.intrinsic.level().abs_diff(other.intrinsic.level()));
        let minshape = self.min_shape.slack_vs(other.min_shape);
        let maxshape = self.max_shape.slack_vs(other.max_shape);
        let range = self.range.slack_vs(other.range);
        intr * 10_000 + minshape + maxshape + range
    }

    /// Widen against an older value of the fixpoint iteration (see
    /// [`Range::widen_from`]); shape upper bounds that grew jump to `∞` and
    /// lower bounds that shrank jump to `<0,0>`.
    pub fn widen_from(&self, older: &Type) -> Type {
        let max_shape = Shape {
            rows: if older.max_shape.rows.le(self.max_shape.rows)
                && self.max_shape.rows != older.max_shape.rows
            {
                Dim::Inf
            } else {
                self.max_shape.rows
            },
            cols: if older.max_shape.cols.le(self.max_shape.cols)
                && self.max_shape.cols != older.max_shape.cols
            {
                Dim::Inf
            } else {
                self.max_shape.cols
            },
        };
        let min_shape = Shape {
            rows: if self.min_shape.rows.le(older.min_shape.rows)
                && self.min_shape.rows != older.min_shape.rows
            {
                Dim::Finite(0)
            } else {
                self.min_shape.rows
            },
            cols: if self.min_shape.cols.le(older.min_shape.cols)
                && self.min_shape.cols != older.min_shape.cols
            {
                Dim::Finite(0)
            } else {
                self.min_shape.cols
            },
        };
        Type {
            intrinsic: self.intrinsic,
            min_shape,
            max_shape,
            range: self.range.widen_from(older.range),
        }
    }
}

impl Default for Type {
    /// The default type is `⊥` — the type of nothing.
    fn default() -> Self {
        Type::bottom()
    }
}

impl Lattice for Type {
    fn bottom() -> Self {
        Type {
            intrinsic: Intrinsic::Bottom,
            min_shape: Shape::bottom(),
            max_shape: Shape::bottom(),
            range: Range::bottom(),
        }
    }

    fn top() -> Self {
        Type {
            intrinsic: Intrinsic::Top,
            min_shape: Shape::bottom(),
            max_shape: Shape::top(),
            range: Range::top(),
        }
    }

    fn join(&self, other: &Self) -> Self {
        // ⊥-typed states arise on not-yet-reached dataflow paths; joining
        // with one must not degrade the other side's guarantees.
        match (
            self.intrinsic == Intrinsic::Bottom,
            other.intrinsic == Intrinsic::Bottom,
        ) {
            (true, false) => return *other,
            (false, true) => return *self,
            _ => {}
        }
        Type {
            intrinsic: self.intrinsic.join(&other.intrinsic),
            // Lower bounds combine with meet: after a merge we only know the
            // array is at least as large as the smaller guarantee.
            min_shape: self.min_shape.meet(&other.min_shape),
            max_shape: self.max_shape.join(&other.max_shape),
            range: self.range.join(&other.range),
        }
    }

    fn meet(&self, other: &Self) -> Self {
        Type {
            intrinsic: self.intrinsic.meet(&other.intrinsic),
            min_shape: self.min_shape.join(&other.min_shape),
            max_shape: self.max_shape.meet(&other.max_shape),
            range: self.range.meet(&other.range),
        }
    }

    fn le(&self, other: &Self) -> bool {
        self.is_subtype_of(other)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.min_shape == self.max_shape {
            write!(
                f,
                "{} shape={} limits={}",
                self.intrinsic, self.max_shape, self.range
            )
        } else {
            write!(
                f,
                "{} minshape={} maxshape={} limits={}",
                self.intrinsic, self.min_shape, self.max_shape, self.range
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_classification() {
        assert_eq!(Type::constant(3.0).intrinsic, Intrinsic::Int);
        assert_eq!(Type::constant(3.5).intrinsic, Intrinsic::Real);
        assert_eq!(Type::constant(3.0).as_constant(), Some(3.0));
    }

    #[test]
    fn figure3_signature_ladder() {
        // The progressively less specialized signatures of the paper's
        // Figure 3: each is a subtype of the next.
        let sig1 = Type::scalar(Intrinsic::Int); // itype=int shape=scalar
        let sig2 = Type::scalar(Intrinsic::Real); // itype=real shape=scalar
        let sig3 = Type::matrix(Intrinsic::Real, 3, 1); // real <3,1>
        let mut sig3_loose = sig3;
        sig3_loose.max_shape = Shape::new(3, 3);
        sig3_loose.min_shape = Shape::new(1, 1);
        let sig4 = Type::top().with_intrinsic(Intrinsic::Complex); // cplx ⊤s

        assert!(sig1.is_subtype_of(&sig2));
        assert!(!sig2.is_subtype_of(&sig1));
        // A 3x1 exact real matrix fits the loose <1,1>..<3,3> bound.
        assert!(sig3.is_subtype_of(&sig3_loose));
        // And a real scalar fits the complex-top signature.
        let mut cplx_top = sig4;
        cplx_top.min_shape = Shape::bottom();
        cplx_top.max_shape = Shape::top();
        assert!(sig2.with_range(Range::top()).is_subtype_of(&cplx_top));
    }

    #[test]
    fn min_shape_is_contravariant_for_safety() {
        // Code compiled assuming at least a 10x1 vector (subscript checks
        // removed for indices up to 10) must not run on a 5x1 vector.
        let mut t = Type::matrix(Intrinsic::Real, 10, 1);
        t.max_shape = Shape::top();
        let small = Type::matrix(Intrinsic::Real, 5, 1);
        let big = Type::matrix(Intrinsic::Real, 20, 1);
        assert!(!small.is_subtype_of(&t));
        assert!(big.is_subtype_of(&t));
    }

    #[test]
    fn join_merges_control_flow() {
        let a = Type::constant(1.0);
        let b = Type::constant(5.0);
        let j = a.join(&b);
        assert_eq!(j.intrinsic, Intrinsic::Int);
        assert_eq!(j.range, Range::new(1.0, 5.0));
        assert!(j.is_scalar());
    }

    #[test]
    fn join_with_bottom_is_identity() {
        let a = Type::matrix(Intrinsic::Real, 2, 2);
        assert_eq!(Type::bottom().join(&a), a);
        assert_eq!(a.join(&Type::bottom()), a);
    }

    #[test]
    fn distance_prefers_specialized_code() {
        let q = Type::constant(3.0);
        let int_scalar = Type::scalar(Intrinsic::Int);
        let real_scalar = Type::scalar(Intrinsic::Real);
        let cplx_any = Type::top().with_intrinsic(Intrinsic::Complex);
        assert!(q.distance(&int_scalar) < q.distance(&real_scalar));
        assert!(q.distance(&real_scalar) < q.distance(&cplx_any));
    }

    #[test]
    fn everything_fits_top() {
        for t in [
            Type::constant(2.5),
            Type::matrix(Intrinsic::Complex, 4, 7),
            Type::string(),
            Type::scalar(Intrinsic::Bool),
        ] {
            assert!(t.is_subtype_of(&Type::top()), "{t} ⊑ ⊤");
        }
    }

    #[test]
    fn widening_stabilizes_growth() {
        let older = Type::matrix(Intrinsic::Real, 3, 1);
        let mut grown = Type::matrix(Intrinsic::Real, 4, 1);
        grown.min_shape = Shape::new(2, 1);
        let w = grown.widen_from(&older);
        assert_eq!(w.max_shape.rows, Dim::Inf);
        assert_eq!(w.min_shape.rows, Dim::Finite(0));
        assert_eq!(w.max_shape.cols, Dim::Finite(1));
    }

    #[test]
    fn string_type_tracks_no_range() {
        // Strings do not track ranges; they carry ⊤ so that the subtype
        // check stays purely componentwise.
        assert!(Type::string().range.is_top());
        assert!(!Type::string().is_subtype_of(&Type::scalar(Intrinsic::Real)));
    }
}
