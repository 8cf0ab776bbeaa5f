//! The type calculator (paper §2.3.1).
//!
//! Transfer functions are organized as a database of rules. "Multiple
//! type calculation rules may exist for each AST node type. Each rule is
//! guarded by a boolean precondition. … the corresponding rules'
//! preconditions are tested in order until one evaluates to true; the
//! rule is then applied. … If no rules' preconditions evaluate to true,
//! the type calculator applies the implicit default rule: all output
//! types are set to ⊤."
//!
//! Rules are ordered from most to least restrictive — e.g. the `*`
//! operator is tried successively as *integer scalar multiply*, *real
//! scalar multiply*, *complex scalar multiply*, *scalar × matrix*,
//! *matrix × vector* (`dgemv`), and finally *generic complex matrix
//! multiply* — because more restrictive rules produce faster code.

use majic_ast::{BinOp, UnOp};
use majic_runtime::builtins::Builtin;
use majic_types::{Dim, Intrinsic, Lattice, Range, Shape, Type};

/// Inference knobs (the Figure 7 ablations live here).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InferOptions {
    /// Propagate value ranges (`Ll`). Disabling reproduces Figure 7's
    /// "no ranges" bars: subscript-check removal mostly dies.
    pub range_propagation: bool,
    /// Propagate minimum shape bounds. Disabling reproduces "no min.
    /// shapes": small-vector unrolling and some check removal die.
    pub min_shape_propagation: bool,
}

impl Default for InferOptions {
    fn default() -> Self {
        InferOptions {
            range_propagation: true,
            min_shape_propagation: true,
        }
    }
}

impl InferOptions {
    /// Strip the information channels that are switched off.
    pub fn sanitize(&self, mut t: Type) -> Type {
        if !self.range_propagation {
            t.range = Range::top();
        }
        if !self.min_shape_propagation {
            t.min_shape = Shape::bottom();
        }
        t
    }
}

/// One evaluated subscript, as seen by the calculator.
#[derive(Clone, Copy, Debug)]
pub enum SubTy {
    /// A bare `:`.
    Colon,
    /// A typed subscript expression.
    Ty(Type),
}

// ---------------------------------------------------------------------
// Helper predicates (rule guards)
// ---------------------------------------------------------------------

fn is_scalar(t: &Type) -> bool {
    t.is_scalar()
}

fn is_numeric(t: &Type) -> bool {
    t.intrinsic.is_numeric()
}

/// 2^52: `mod` and `rem` of integers no larger than this compute
/// exactly in doubles.
const EXACT_INT: f64 = 4_503_599_627_370_496.0;

fn at_most(t: &Type, i: Intrinsic) -> bool {
    t.intrinsic.le(&i) && t.intrinsic != Intrinsic::Bottom
}

fn int_scalar(t: &Type) -> bool {
    is_scalar(t) && at_most(t, Intrinsic::Int)
}

/// May the value have zero elements? (The guaranteed lower shape bound
/// admits an empty extent.)
fn may_be_empty(t: &Type) -> bool {
    t.min_shape.rows == Dim::Finite(0) || t.min_shape.cols == Dim::Finite(0)
}

fn real_scalar(t: &Type) -> bool {
    is_scalar(t) && at_most(t, Intrinsic::Real)
}

fn cplx_scalar(t: &Type) -> bool {
    is_scalar(t) && at_most(t, Intrinsic::Complex)
}

/// Result shape of an elementwise operation: operands must agree (or one
/// is scalar), so bounds combine as join-of-mins / meet-of-maxes.
fn elem_shape(a: &Type, b: &Type) -> (Shape, Shape) {
    if a.is_scalar() {
        return (b.min_shape, b.max_shape);
    }
    if b.is_scalar() {
        return (a.min_shape, a.max_shape);
    }
    if a.may_be_scalar() && !b.may_be_scalar() {
        return (b.min_shape, b.max_shape);
    }
    if b.may_be_scalar() && !a.may_be_scalar() {
        return (a.min_shape, a.max_shape);
    }
    // Either could be the broadcast scalar: stay conservative.
    (
        a.min_shape.meet(&b.min_shape),
        a.max_shape.join(&b.max_shape),
    )
}

fn with_shape(intrinsic: Intrinsic, min: Shape, max: Shape, range: Range) -> Type {
    let range = if intrinsic.has_range() {
        range
    } else {
        Range::top()
    };
    Type {
        intrinsic,
        min_shape: min,
        max_shape: max,
        range,
    }
}

fn scalar_of(intrinsic: Intrinsic, range: Range) -> Type {
    with_shape(intrinsic, Shape::scalar(), Shape::scalar(), range)
}

/// `int` results degrade to `real` when the range arithmetic could have
/// produced non-integers (it cannot for + − ×).
fn int_preserving(a: &Type, b: &Type) -> Intrinsic {
    match a.intrinsic.numeric_join(b.intrinsic) {
        // Arithmetic on logicals yields numeric values at runtime
        // (`true - true` is the integral double 0, not a logical);
        // bool survives only logical operators and comparisons.
        Intrinsic::Bool => Intrinsic::Int,
        other => other,
    }
}

/// `int` means "integral-valued double", which excludes ±∞ (a non-finite
/// value types as `real` at runtime). Endpoint arithmetic overflows to
/// an infinite bound exactly when the concrete operation can, so an
/// integral result may only claim `int` while its interval stays
/// finite. A `⊥` range describes no values and keeps `int` vacuously.
fn int_unless_overflow(range: &Range) -> Intrinsic {
    if range.is_bottom() || (range.lo().is_finite() && range.hi().is_finite()) {
        Intrinsic::Int
    } else {
        Intrinsic::Real
    }
}

// ---------------------------------------------------------------------
// Binary operators
// ---------------------------------------------------------------------

/// Forward transfer for a binary operator.
pub fn binary(op: BinOp, a: &Type, b: &Type, o: &InferOptions) -> Type {
    use BinOp::*;
    let t = match op {
        Add => arith(a, b, Range::add, false),
        Sub => arith(a, b, Range::sub, false),
        ElemMul => arith(a, b, Range::mul, false),
        ElemDiv | ElemLeftDiv => {
            let (x, y) = if op == ElemLeftDiv { (b, a) } else { (a, b) };
            arith(x, y, Range::div, true)
        }
        ElemPow => elem_pow(a, b),
        Mul => mul(a, b),
        Div => rdiv(a, b),
        LeftDiv => ldiv(a, b),
        Pow => pow(a, b),
        Lt | Le | Gt | Ge | Eq | Ne => relational(a, b),
        And | Or => {
            // rule logical.elementwise
            let (min, max) = elem_shape(a, b);
            with_shape(Intrinsic::Bool, min, max, Range::new(0.0, 1.0))
        }
        ShortAnd | ShortOr => scalar_of(Intrinsic::Bool, Range::new(0.0, 1.0)),
    };
    o.sanitize(t)
}

/// Elementwise + − × ÷ rule ladder.
fn arith(a: &Type, b: &Type, rf: fn(Range, Range) -> Range, is_div: bool) -> Type {
    // rule arith.int_scalar / arith.real_scalar / arith.cplx_scalar
    if int_scalar(a) && int_scalar(b) && !is_div {
        let r = rf(a.range, b.range);
        return scalar_of(int_unless_overflow(&r), r);
    }
    if real_scalar(a) && real_scalar(b) {
        let r = rf(a.range, b.range);
        let intr = if !is_div && at_most(a, Intrinsic::Int) && at_most(b, Intrinsic::Int) {
            int_unless_overflow(&r)
        } else {
            Intrinsic::Real
        };
        return scalar_of(intr, r);
    }
    if cplx_scalar(a) && cplx_scalar(b) {
        return scalar_of(Intrinsic::Complex, Range::top());
    }
    // rule arith.scalar_matrix / arith.matrix_matrix
    if is_numeric(a) && is_numeric(b) {
        let (min, max) = elem_shape(a, b);
        let intr = if is_div {
            match int_preserving(a, b) {
                Intrinsic::Bool | Intrinsic::Int => Intrinsic::Real,
                other => other,
            }
        } else {
            int_preserving(a, b)
        };
        let range = if intr.has_range() {
            rf(a.range, b.range)
        } else {
            Range::top()
        };
        let intr = if intr == Intrinsic::Int {
            int_unless_overflow(&range)
        } else {
            intr
        };
        return with_shape(intr, min, max, range);
    }
    // implicit default rule
    Type::top()
}

fn elem_pow(a: &Type, b: &Type) -> Type {
    // rule pow.int_scalar: integral base and constant non-negative
    // integral exponent stays int.
    if int_scalar(a) && int_scalar(b) {
        if let Some(e) = b.range.as_constant() {
            if e >= 0.0 {
                let r = a.range.powi(e);
                return scalar_of(int_unless_overflow(&r), r);
            }
        }
        return scalar_of(Intrinsic::Real, Range::top());
    }
    // rule pow.real_scalar: negative bases with fractional exponents go
    // complex; a provably non-negative base stays real.
    if real_scalar(a) && real_scalar(b) {
        if a.range.is_nonnegative() && !a.range.is_bottom() {
            let r = match b.range.as_constant() {
                Some(e) => a.range.powi(e),
                None => Range::top(),
            };
            return scalar_of(Intrinsic::Real, r);
        }
        if let Some(e) = b.range.as_constant() {
            if e.fract() == 0.0 {
                return scalar_of(Intrinsic::Real, a.range.powi(e));
            }
        }
        return scalar_of(Intrinsic::Complex, Range::top());
    }
    if cplx_scalar(a) && cplx_scalar(b) {
        return scalar_of(Intrinsic::Complex, Range::top());
    }
    // rule pow.elementwise
    if is_numeric(a) && is_numeric(b) {
        let (min, max) = elem_shape(a, b);
        return with_shape(Intrinsic::Complex, min, max, Range::top());
    }
    Type::top()
}

fn mul(a: &Type, b: &Type) -> Type {
    // rule mul.int_scalar / mul.real_scalar / mul.cplx_scalar
    if is_scalar(a) && is_scalar(b) {
        return arith(a, b, Range::mul, false);
    }
    // rule mul.scalar_matrix / mul.matrix_scalar
    if is_scalar(a) && is_numeric(a) && is_numeric(b) {
        return with_shape(
            int_preserving(a, b),
            b.min_shape,
            b.max_shape,
            a.range.mul(b.range),
        );
    }
    if is_scalar(b) && is_numeric(a) && is_numeric(b) {
        return with_shape(
            int_preserving(a, b),
            a.min_shape,
            a.max_shape,
            a.range.mul(b.range),
        );
    }
    // rule mul.gemv / mul.gemm: <ar, ac> * <br, bc> = <ar, bc>.
    if is_numeric(a) && is_numeric(b) {
        let min = Shape {
            rows: a.min_shape.rows,
            cols: b.min_shape.cols,
        };
        let max = Shape {
            rows: a.max_shape.rows,
            cols: b.max_shape.cols,
        };
        let mut t = with_shape(int_preserving(a, b), min, max, Range::top());
        // A maybe-scalar operand turns `*` elementwise at runtime, so
        // the result may take the other operand's shape.
        t = join_maybe_scalar_alternatives(t, a, b);
        return t;
    }
    Type::top()
}

/// Matrix-op shape rules (`*`, `/`, `\`) compute shapes from both
/// operands' extents, but when either operand is 1×1 at runtime the
/// operation degenerates to scalar × matrix and the result takes the
/// *other* operand's shape. Join those alternatives in whenever an
/// operand's inferred shape admits a scalar.
fn join_maybe_scalar_alternatives(t: Type, a: &Type, b: &Type) -> Type {
    let mut t = t;
    if a.may_be_scalar() {
        t = t.join(&with_shape(t.intrinsic, b.min_shape, b.max_shape, t.range));
    }
    if b.may_be_scalar() {
        t = t.join(&with_shape(t.intrinsic, a.min_shape, a.max_shape, t.range));
    }
    t
}

fn rdiv(a: &Type, b: &Type) -> Type {
    if is_scalar(b) {
        return arith(a, b, Range::div, true);
    }
    // rule div.matrix: A/B has shape <a.rows, b.rows>.
    if is_numeric(a) && is_numeric(b) {
        let min = Shape {
            rows: a.min_shape.rows,
            cols: b.min_shape.rows,
        };
        let max = Shape {
            rows: a.max_shape.rows,
            cols: b.max_shape.rows,
        };
        let t = with_shape(
            int_preserving(a, b).join(&Intrinsic::Real),
            min,
            max,
            Range::top(),
        );
        return join_maybe_scalar_alternatives(t, a, b);
    }
    Type::top()
}

fn ldiv(a: &Type, b: &Type) -> Type {
    if is_scalar(a) {
        return arith(b, a, Range::div, true);
    }
    // rule ldiv.matrix: A\B has shape <a.cols, b.cols>.
    if is_numeric(a) && is_numeric(b) {
        let min = Shape {
            rows: a.min_shape.cols,
            cols: b.min_shape.cols,
        };
        let max = Shape {
            rows: a.max_shape.cols,
            cols: b.max_shape.cols,
        };
        let t = with_shape(
            int_preserving(a, b).join(&Intrinsic::Real),
            min,
            max,
            Range::top(),
        );
        return join_maybe_scalar_alternatives(t, a, b);
    }
    Type::top()
}

fn pow(a: &Type, b: &Type) -> Type {
    if is_scalar(a) && is_scalar(b) {
        return elem_pow(a, b);
    }
    // rule pow.matrix: square matrix to integer power keeps its shape.
    if is_numeric(a) && is_scalar(b) {
        return with_shape(
            a.intrinsic.numeric_join(Intrinsic::Real),
            a.min_shape,
            a.max_shape,
            Range::top(),
        );
    }
    Type::top()
}

fn relational(a: &Type, b: &Type) -> Type {
    // rule rel.scalar / rel.elementwise — complex operands compare by
    // real part, so any numeric input is acceptable.
    if is_numeric(a) && is_numeric(b) {
        let (min, max) = elem_shape(a, b);
        return with_shape(Intrinsic::Bool, min, max, Range::new(0.0, 1.0));
    }
    if a.intrinsic == Intrinsic::Str && b.intrinsic == Intrinsic::Str {
        let (min, max) = elem_shape(a, b);
        return with_shape(Intrinsic::Bool, min, max, Range::new(0.0, 1.0));
    }
    Type::top()
}

// ---------------------------------------------------------------------
// Unary, transpose, range, matrix literal
// ---------------------------------------------------------------------

/// Forward transfer for a unary operator.
pub fn unary(op: UnOp, a: &Type, o: &InferOptions) -> Type {
    let t = match op {
        UnOp::Plus => *a,
        UnOp::Neg => {
            if is_numeric(a) {
                // Negation converts logicals to numeric (`-true` is the
                // double -1, not a logical), so Bool promotes to Int.
                let intrinsic = if a.intrinsic == Intrinsic::Bool {
                    Intrinsic::Int
                } else {
                    a.intrinsic
                };
                with_shape(intrinsic, a.min_shape, a.max_shape, a.range.neg())
            } else {
                Type::top()
            }
        }
        UnOp::Not => {
            if is_numeric(a) {
                with_shape(
                    Intrinsic::Bool,
                    a.min_shape,
                    a.max_shape,
                    Range::new(0.0, 1.0),
                )
            } else {
                Type::top()
            }
        }
    };
    o.sanitize(t)
}

/// Forward transfer for `'` / `.'`.
pub fn transpose(a: &Type, o: &InferOptions) -> Type {
    let t = if is_numeric(a) {
        with_shape(
            a.intrinsic,
            a.min_shape.transpose(),
            a.max_shape.transpose(),
            a.range,
        )
    } else {
        Type::top()
    };
    o.sanitize(t)
}

/// `floor(span + ε) + 1` as an exact element count, or `None` when the
/// span is too large to count in a `u64` — a bare `as u64` saturates
/// there and the `+ 1` overflows (fuzzer reproducer: `0:1e-300:1`).
fn extent_of_span(span: f64) -> Option<u64> {
    let nf = (span + 1e-10).floor();
    // 2^53: the last f64 whose successor integers are still exact.
    if nf < 9_007_199_254_740_992.0 {
        Some(nf as u64 + 1)
    } else {
        None
    }
}

/// Forward transfer for `start : step : stop`.
pub fn range_expr(start: &Type, step: Option<&Type>, stop: &Type, o: &InferOptions) -> Type {
    let one = Type::constant(1.0);
    let step = step.copied().unwrap_or(one);
    // rule colon.const: all-constant endpoints give the exact extent.
    let count = match (
        start.range.as_constant(),
        step.range.as_constant(),
        stop.range.as_constant(),
    ) {
        (Some(a), Some(s), Some(b)) if s != 0.0 => {
            let span = (b - a) / s;
            if span.is_nan() {
                // A NaN endpoint or step yields the 1x0 empty at
                // runtime (see `majic_runtime::ops::range`).
                (Dim::Finite(0), Dim::Finite(0))
            } else if span < 0.0 {
                (Dim::Finite(0), Dim::Finite(0))
            } else {
                match extent_of_span(span) {
                    // Beyond any representable extent the runtime
                    // raises AllocLimit, so no value needs describing;
                    // stay sound with an unbounded upper dimension.
                    None => (Dim::Finite(0), Dim::Inf),
                    Some(n) => (Dim::Finite(n), Dim::Finite(n)),
                }
            }
        }
        // rule colon.bounded: a bounded span bounds the extent.
        _ => {
            let max = match (start.range.lo(), stop.range.hi(), step.range.as_constant()) {
                (a, b, Some(s)) if a.is_finite() && b.is_finite() && s > 0.0 => {
                    let span = (b - a) / s;
                    if span < 0.0 {
                        Dim::Finite(0)
                    } else {
                        extent_of_span(span).map_or(Dim::Inf, Dim::Finite)
                    }
                }
                _ => Dim::Inf,
            };
            (Dim::Finite(0), max)
        }
    };
    let intrinsic = if at_most(start, Intrinsic::Int)
        && at_most(&step, Intrinsic::Int)
        && at_most(stop, Intrinsic::Int)
    {
        Intrinsic::Int
    } else if is_numeric(start) && is_numeric(&step) && is_numeric(stop) {
        // Complex endpoints contribute only their real parts.
        Intrinsic::Real
    } else {
        Intrinsic::Real
    };
    let range = start.range.join(&stop.range);
    let t = with_shape(
        intrinsic,
        Shape {
            rows: Dim::Finite(if count.0 == Dim::Finite(0) { 0 } else { 1 }),
            cols: count.0,
        },
        Shape {
            rows: Dim::Finite(1),
            cols: count.1,
        },
        range,
    );
    o.sanitize(t)
}

/// Forward transfer for a matrix literal (bracket operator).
pub fn matrix_literal(rows: &[Vec<Type>], o: &InferOptions) -> Type {
    if rows.is_empty() {
        return o.sanitize(with_shape(
            Intrinsic::Real,
            Shape::empty(),
            Shape::empty(),
            Range::top(),
        ));
    }
    let mut intrinsic = Intrinsic::Bottom;
    let mut range = Range::bottom();
    let mut total_min_rows = Dim::Finite(0);
    let mut total_max_rows = Dim::Finite(0);
    let mut min_cols: Option<Dim> = None;
    let mut max_cols: Option<Dim> = None;
    for row in rows {
        let mut row_min_cols = Dim::Finite(0);
        let mut row_max_cols = Dim::Finite(0);
        let mut row_min_rows = Dim::Inf;
        let mut row_max_rows = Dim::Finite(0);
        for el in row {
            intrinsic = intrinsic.join(&el.intrinsic);
            range = range.join(&el.range);
            row_min_cols = add_dim(row_min_cols, el.min_shape.cols);
            row_max_cols = add_dim(row_max_cols, el.max_shape.cols);
            row_min_rows = row_min_rows.min(el.min_shape.rows);
            row_max_rows = row_max_rows.max(el.max_shape.rows);
        }
        total_min_rows = add_dim(total_min_rows, row_min_rows);
        total_max_rows = add_dim(total_max_rows, row_max_rows);
        min_cols = Some(match min_cols {
            None => row_min_cols,
            Some(c) => c.min(row_min_cols),
        });
        max_cols = Some(match max_cols {
            None => row_max_cols,
            Some(c) => c.max(row_max_cols),
        });
    }
    let t = with_shape(
        if intrinsic == Intrinsic::Bottom {
            Intrinsic::Real
        } else {
            intrinsic
        },
        Shape {
            rows: total_min_rows,
            cols: min_cols.unwrap_or(Dim::Finite(0)),
        },
        Shape {
            rows: total_max_rows,
            cols: max_cols.unwrap_or(Dim::Finite(0)),
        },
        range,
    );
    o.sanitize(t)
}

fn add_dim(a: Dim, b: Dim) -> Dim {
    match (a, b) {
        (Dim::Finite(x), Dim::Finite(y)) => Dim::Finite(x + y),
        _ => Dim::Inf,
    }
}

// ---------------------------------------------------------------------
// Indexing
// ---------------------------------------------------------------------

/// Extent bounds of one subscript (how many elements it selects).
fn sub_count(sub: &SubTy, dim_min: Dim, dim_max: Dim) -> (Dim, Dim) {
    match sub {
        SubTy::Colon => (dim_min, dim_max),
        SubTy::Ty(t) => (
            t.min_shape.rows.saturating_mul(t.min_shape.cols),
            t.max_shape.rows.saturating_mul(t.max_shape.cols),
        ),
    }
}

/// Forward transfer for an indexed read `base(subs…)`.
pub fn index_read(base: &Type, subs: &[SubTy], o: &InferOptions) -> Type {
    if !is_numeric(base) && base.intrinsic != Intrinsic::Str {
        return Type::top();
    }
    let elem_range = base.range;
    let t = match subs {
        // rule index.all — `A()` is just A.
        [] => *base,
        [one] => match one {
            // rule index.flatten — `A(:)` is a column vector.
            SubTy::Colon => {
                let min_n = base.min_shape.rows.saturating_mul(base.min_shape.cols);
                let max_n = base.max_shape.rows.saturating_mul(base.max_shape.cols);
                with_shape(
                    base.intrinsic,
                    Shape {
                        rows: min_n,
                        cols: Dim::Finite(1),
                    },
                    Shape {
                        rows: max_n,
                        cols: Dim::Finite(1),
                    },
                    elem_range,
                )
            }
            // rule index.scalar — the hot case: scalar subscript.
            SubTy::Ty(it) if it.is_scalar() => scalar_of(base.intrinsic, elem_range),
            // rule index.vector — vector subscript selects that many
            // elements.
            SubTy::Ty(it) => {
                let (lo, hi) = sub_count(&SubTy::Ty(*it), Dim::Finite(0), Dim::Inf);
                with_shape(
                    base.intrinsic,
                    Shape {
                        rows: Dim::Finite(if lo == Dim::Finite(0) { 0 } else { 1 }),
                        cols: lo,
                    },
                    Shape {
                        rows: hi.min(Dim::Finite(1)).max(Dim::Finite(1)),
                        cols: hi,
                    },
                    elem_range,
                )
            }
        },
        [r, c] => {
            // rule index.scalar2 — A(i, j) with scalar subscripts.
            if let (SubTy::Ty(rt), SubTy::Ty(ct)) = (r, c) {
                if rt.is_scalar() && ct.is_scalar() {
                    return o.sanitize(scalar_of(base.intrinsic, elem_range));
                }
            }
            // rule index.slice — row/column slices and submatrices.
            let (rmin, rmax) = sub_count(r, base.min_shape.rows, base.max_shape.rows);
            let (cmin, cmax) = sub_count(c, base.min_shape.cols, base.max_shape.cols);
            with_shape(
                base.intrinsic,
                Shape {
                    rows: rmin,
                    cols: cmin,
                },
                Shape {
                    rows: rmax,
                    cols: cmax,
                },
                elem_range,
            )
        }
        _ => Type::top(),
    };
    o.sanitize(t)
}

/// Forward transfer for an indexed write `base(subs…) = rhs`, returning
/// the array's type *after* the store (paper §2.4: "the range of the
/// index can determine the shape of the array, because MATLAB arrays
/// reshape themselves to accommodate indices").
pub fn index_write(base: &Type, subs: &[SubTy], rhs: &Type, o: &InferOptions) -> Type {
    let intrinsic = if base.intrinsic == Intrinsic::Bottom {
        rhs.intrinsic
    } else {
        base.intrinsic.join(&rhs.intrinsic)
    };
    let range = if intrinsic.has_range() {
        base.range.join(&rhs.range)
    } else {
        Range::top()
    };
    // Bounds required by the subscripts.
    let req = |sub: &SubTy| -> (Dim, Dim) {
        match sub {
            SubTy::Colon => (Dim::Finite(0), Dim::Inf),
            SubTy::Ty(t) => {
                let lo = if t.range.lo().is_finite() && t.range.lo() >= 1.0 {
                    Dim::Finite(t.range.lo() as u64)
                } else {
                    Dim::Finite(0)
                };
                let hi = if t.range.hi().is_finite() && t.range.hi() >= 1.0 {
                    Dim::Finite(t.range.hi() as u64)
                } else {
                    Dim::Inf
                };
                (lo, hi)
            }
        }
    };
    let (min, max) = match subs {
        [one] => {
            let (lo, hi) = req(one);
            if base.intrinsic == Intrinsic::Bottom {
                // Creating a fresh array: a linear store makes a row
                // vector.
                (
                    Shape {
                        rows: Dim::Finite(1),
                        cols: lo,
                    },
                    Shape {
                        rows: Dim::Finite(1),
                        cols: hi,
                    },
                )
            } else if base.max_shape.rows == Dim::Finite(1) {
                // Row vector grows along columns.
                (
                    Shape {
                        rows: Dim::Finite(1),
                        cols: base.min_shape.cols.max(lo),
                    },
                    Shape {
                        rows: Dim::Finite(1),
                        cols: base.max_shape.cols.max(hi),
                    },
                )
            } else if base.max_shape.cols == Dim::Finite(1) {
                (
                    Shape {
                        rows: base.min_shape.rows.max(lo),
                        cols: Dim::Finite(1),
                    },
                    Shape {
                        rows: base.max_shape.rows.max(hi),
                        cols: Dim::Finite(1),
                    },
                )
            } else {
                // Orientation unknown: only upper bounds survive.
                (
                    base.min_shape,
                    Shape {
                        rows: base.max_shape.rows.max(hi),
                        cols: base.max_shape.cols.max(hi),
                    },
                )
            }
        }
        [r, c] => {
            let (rlo, rhi) = req(r);
            let (clo, chi) = req(c);
            let (base_min, base_max) = if base.intrinsic == Intrinsic::Bottom {
                (Shape::empty(), Shape::empty())
            } else {
                (base.min_shape, base.max_shape)
            };
            (
                Shape {
                    rows: base_min.rows.max(rlo),
                    cols: base_min.cols.max(clo),
                },
                Shape {
                    rows: base_max.rows.max(rhi),
                    cols: base_max.cols.max(chi),
                },
            )
        }
        _ => (Shape::bottom(), Shape::top()),
    };
    // A linear store into a base that may be *empty* — including one
    // that may be unbound on some incoming path (the env join drops
    // `min_shape` to ⊥ at such merges) — vivifies a 1×N row vector at
    // runtime, whatever orientation the defined alternative has. Join
    // that alternative in, or the inferred shape claims an orientation
    // the fresh-creation path does not honor.
    let (min, max) = match subs {
        [SubTy::Ty(_)] if base.intrinsic != Intrinsic::Bottom && may_be_empty(base) => {
            let (lo, hi) = req(&subs[0]);
            (
                min.meet(&Shape {
                    rows: Dim::Finite(1),
                    cols: lo,
                }),
                max.join(&Shape {
                    rows: Dim::Finite(1),
                    cols: hi,
                }),
            )
        }
        _ => (min, max),
    };
    // A store that grows the array (or vivifies a fresh variable) fills
    // every element it did not write with 0.0; the result range must
    // include that fill unless the subscripts provably stay within the
    // extent the array is guaranteed to have already. A fresh variable
    // is only exactly covered when the store lands at position 1.
    let no_fill = match subs {
        [one] => {
            let (_, hi) = req(one);
            let guaranteed = if base.intrinsic == Intrinsic::Bottom {
                Dim::Finite(1)
            } else {
                base.min_shape.rows.saturating_mul(base.min_shape.cols)
            };
            hi.le(guaranteed)
        }
        [r, c] => {
            let (_, rhi) = req(r);
            let (_, chi) = req(c);
            let (gr, gc) = if base.intrinsic == Intrinsic::Bottom {
                (Dim::Finite(1), Dim::Finite(1))
            } else {
                (base.min_shape.rows, base.min_shape.cols)
            };
            rhi.le(gr) && chi.le(gc)
        }
        _ => false,
    };
    let range = if no_fill {
        range
    } else {
        range.join(&Range::constant(0.0))
    };
    o.sanitize(with_shape(intrinsic, min, max, range))
}

// ---------------------------------------------------------------------
// Builtins
// ---------------------------------------------------------------------

/// Forward transfer for a builtin call.
pub fn builtin(b: Builtin, args: &[Type], nargout: usize, o: &InferOptions) -> Vec<Type> {
    use Builtin::*;
    let one = |t: Type| vec![o.sanitize(t)];
    let arg = |k: usize| args.get(k).copied().unwrap_or_else(Type::top);
    match b {
        Zeros | Ones | Rand | Eye => {
            let (min, max) = creation_shape(args);
            let range = match b {
                Zeros => Range::constant(0.0),
                Ones => Range::constant(1.0),
                Eye => Range::new(0.0, 1.0),
                Rand => Range::new(0.0, 1.0),
                _ => unreachable!(),
            };
            let intrinsic = match b {
                // rule zeros.int / ones.int / eye.int: contents integral.
                Zeros | Ones | Eye => Intrinsic::Int,
                _ => Intrinsic::Real,
            };
            one(with_shape(intrinsic, min, max, range))
        }
        Size => {
            let a = arg(0);
            if args.len() == 2 {
                // rule size.dim: size(A, k) — exact when the shape and k
                // are exact.
                let k = arg(1).range.as_constant();
                let (lo, hi) = match k {
                    Some(1.0) => (a.min_shape.rows, a.max_shape.rows),
                    Some(_) => (a.min_shape.cols, a.max_shape.cols),
                    None => (
                        a.min_shape.rows.min(a.min_shape.cols),
                        a.max_shape.rows.max(a.max_shape.cols),
                    ),
                };
                return one(scalar_of(Intrinsic::Int, dim_range(lo, hi)));
            }
            if nargout >= 2 {
                return vec![
                    o.sanitize(scalar_of(
                        Intrinsic::Int,
                        dim_range(a.min_shape.rows, a.max_shape.rows),
                    )),
                    o.sanitize(scalar_of(
                        Intrinsic::Int,
                        dim_range(a.min_shape.cols, a.max_shape.cols),
                    )),
                ];
            }
            one(with_shape(
                Intrinsic::Int,
                Shape::new(1, 2),
                Shape::new(1, 2),
                Range::new(0.0, f64::INFINITY),
            ))
        }
        Length => {
            let a = arg(0);
            let lo = a.min_shape.rows.min(a.min_shape.cols);
            let hi = a.max_shape.rows.max(a.max_shape.cols);
            one(scalar_of(Intrinsic::Int, dim_range(lo, hi)))
        }
        Numel => {
            let a = arg(0);
            let lo = a.min_shape.rows.saturating_mul(a.min_shape.cols);
            let hi = a.max_shape.rows.saturating_mul(a.max_shape.cols);
            one(scalar_of(Intrinsic::Int, dim_range(lo, hi)))
        }
        IsEmpty => one(scalar_of(Intrinsic::Bool, Range::new(0.0, 1.0))),
        Abs => {
            let a = arg(0);
            // rule abs.real / abs.complex — both yield real.
            let intr = if at_most(&a, Intrinsic::Int) {
                Intrinsic::Int
            } else {
                Intrinsic::Real
            };
            one(with_shape(intr, a.min_shape, a.max_shape, a.range.abs()))
        }
        Sqrt => {
            let a = arg(0);
            // rule sqrt.nonneg: provably non-negative input stays real.
            if at_most(&a, Intrinsic::Real) && a.range.is_nonnegative() && !a.range.is_bottom() {
                let r = Range::new(a.range.lo().max(0.0).sqrt(), a.range.hi().sqrt());
                return one(with_shape(Intrinsic::Real, a.min_shape, a.max_shape, r));
            }
            one(with_shape(
                Intrinsic::Complex,
                a.min_shape,
                a.max_shape,
                Range::top(),
            ))
        }
        Exp => {
            let a = arg(0);
            if at_most(&a, Intrinsic::Real) {
                let r = Range::new(a.range.lo().exp(), a.range.hi().exp());
                return one(with_shape(Intrinsic::Real, a.min_shape, a.max_shape, r));
            }
            one(with_shape(
                Intrinsic::Complex,
                a.min_shape,
                a.max_shape,
                Range::top(),
            ))
        }
        Log | Log10 => {
            let a = arg(0);
            if at_most(&a, Intrinsic::Real) && a.range.lo() > 0.0 {
                return one(with_shape(
                    Intrinsic::Real,
                    a.min_shape,
                    a.max_shape,
                    Range::top(),
                ));
            }
            one(with_shape(
                Intrinsic::Complex,
                a.min_shape,
                a.max_shape,
                Range::top(),
            ))
        }
        Sin | Cos => {
            let a = arg(0);
            if at_most(&a, Intrinsic::Real) {
                return one(with_shape(
                    Intrinsic::Real,
                    a.min_shape,
                    a.max_shape,
                    Range::new(-1.0, 1.0),
                ));
            }
            one(with_shape(
                Intrinsic::Complex,
                a.min_shape,
                a.max_shape,
                Range::top(),
            ))
        }
        Tan | Asin | Acos | Atan | Atan2 => {
            let a = arg(0);
            one(with_shape(
                Intrinsic::Real,
                a.min_shape,
                a.max_shape,
                Range::top(),
            ))
        }
        Floor | Ceil | Round | Fix => {
            let a = arg(0);
            let r = match b {
                Floor => a.range.floor(),
                Ceil => a.range.ceil(),
                Round => a.range.round(),
                _ => a.range.floor().join(&a.range.ceil()),
            };
            // `floor(NaN)` is NaN and `floor(±∞)` is ±∞, which type as
            // `real` at runtime. A NaN value carries the ⊥ range, which
            // subsumes under every inferred range, so a finite range is
            // no evidence against NaN — only an integral input intrinsic
            // (which NaN never satisfies) lets the result claim `int`.
            let intrinsic = if a.intrinsic.le(&Intrinsic::Int) {
                Intrinsic::Int
            } else {
                Intrinsic::Real
            };
            one(with_shape(intrinsic, a.min_shape, a.max_shape, r))
        }
        Sign => {
            let a = arg(0);
            one(with_shape(
                Intrinsic::Int,
                a.min_shape,
                a.max_shape,
                Range::new(-1.0, 1.0),
            ))
        }
        Mod | Rem => {
            let a = arg(0);
            let bb = arg(1);
            let (min, max) = elem_shape(&a, &bb);
            let mag = |r: Range| r.lo().abs().max(r.hi().abs());
            // rule mod.bounded: integral operands of magnitude ≤ 2^52
            // make every step exact, so the result is integral and no
            // larger than the divisor. Otherwise rounding can carry it
            // ulps past the divisor, and an overflowing quotient to ±∞
            // (`mod(1e300, 1e-300)` is -Inf).
            let exact = at_most(&a, Intrinsic::Int)
                && at_most(&bb, Intrinsic::Int)
                && mag(a.range) <= EXACT_INT
                && mag(bb.range) <= EXACT_INT;
            if !exact {
                return one(with_shape(Intrinsic::Real, min, max, Range::top()));
            }
            let m = mag(bb.range);
            let r = Range::new(-m, m);
            // rule mod.by_zero: `mod(a, 0)` is `a` and `rem(a, 0)` is NaN.
            let may_divide_by_zero = bb.range.lo() <= 0.0 && bb.range.hi() >= 0.0;
            match (b, may_divide_by_zero) {
                (Mod, true) => one(with_shape(Intrinsic::Int, min, max, r.join(&a.range))),
                (Rem, true) => one(with_shape(Intrinsic::Real, min, max, r)),
                _ => one(with_shape(Intrinsic::Int, min, max, r)),
            }
        }
        Sum | Prod => one(reduction_type(&arg(0), b == Builtin::Prod)),
        Max | Min => {
            if args.len() >= 2 {
                let a = arg(0);
                let bb = arg(1);
                let (min, max) = elem_shape(&a, &bb);
                let mut r = if b == Builtin::Max {
                    a.range.max_with(bb.range)
                } else {
                    a.range.min_with(bb.range)
                };
                // rule max.nan: a NaN operand yields the other operand,
                // and only an integral intrinsic rules NaN out.
                if !at_most(&a, Intrinsic::Int) {
                    r = r.join(&bb.range);
                }
                if !at_most(&bb, Intrinsic::Int) {
                    r = r.join(&a.range);
                }
                return one(with_shape(int_preserving(&a, &bb), min, max, r));
            }
            let a = arg(0);
            let t = reduction_type(&a, false);
            one(t.with_range(a.range))
        }
        Real | Imag => {
            let a = arg(0);
            one(with_shape(
                Intrinsic::Real,
                a.min_shape,
                a.max_shape,
                if at_most(&a, Intrinsic::Real) && b == Builtin::Real {
                    a.range
                } else {
                    Range::top()
                },
            ))
        }
        Conj => one(arg(0)),
        Angle => {
            let a = arg(0);
            one(with_shape(
                Intrinsic::Real,
                a.min_shape,
                a.max_shape,
                Range::new(-std::f64::consts::PI, std::f64::consts::PI),
            ))
        }
        Norm => one(scalar_of(Intrinsic::Real, Range::new(0.0, f64::INFINITY))),
        Eig => {
            let a = arg(0);
            // Eigenvalues of an n×n matrix: an n×1 (possibly complex)
            // vector.
            one(with_shape(
                Intrinsic::Complex,
                Shape {
                    rows: a.min_shape.rows,
                    cols: Dim::Finite(1),
                },
                Shape {
                    rows: a.max_shape.rows,
                    cols: Dim::Finite(1),
                },
                Range::top(),
            ))
        }
        Pi => one(scalar_of(
            Intrinsic::Real,
            Range::constant(std::f64::consts::PI),
        )),
        Eps => one(scalar_of(Intrinsic::Real, Range::constant(f64::EPSILON))),
        Inf => one(scalar_of(
            Intrinsic::Real,
            Range::new(f64::INFINITY, f64::INFINITY),
        )),
        NaN => one(scalar_of(Intrinsic::Real, Range::top())),
        ImagUnitI | ImagUnitJ => one(scalar_of(Intrinsic::Complex, Range::top())),
        Disp | Error | Fprintf => vec![],
        Num2Str => one(Type::string()),
    }
}

fn dim_range(lo: Dim, hi: Dim) -> Range {
    Range::new(
        match lo {
            Dim::Finite(n) => n as f64,
            Dim::Inf => 0.0,
        },
        match hi {
            Dim::Finite(n) => n as f64,
            Dim::Inf => f64::INFINITY,
        },
    )
}

/// Shape bounds of `zeros(m, n)`-style creation from argument types —
/// the paper's *exact shape inference* example: "in the statement
/// `A = zeros(m,n)`, the value ranges of m and n may uniquely determine
/// the shape of A".
fn creation_shape(args: &[Type]) -> (Shape, Shape) {
    let dim_of = |t: &Type| -> (Dim, Dim) {
        let lo = if t.range.lo().is_finite() && t.range.lo() >= 0.0 {
            Dim::Finite(t.range.lo() as u64)
        } else {
            Dim::Finite(0)
        };
        let hi = if t.range.hi().is_finite() && t.range.hi() >= 0.0 {
            Dim::Finite(t.range.hi() as u64)
        } else {
            Dim::Inf
        };
        (lo, hi)
    };
    match args {
        [] => (Shape::scalar(), Shape::scalar()),
        [n] if n.is_scalar() => {
            let (lo, hi) = dim_of(n);
            (Shape { rows: lo, cols: lo }, Shape { rows: hi, cols: hi })
        }
        [m, n] => {
            let (rlo, rhi) = dim_of(m);
            let (clo, chi) = dim_of(n);
            (
                Shape {
                    rows: rlo,
                    cols: clo,
                },
                Shape {
                    rows: rhi,
                    cols: chi,
                },
            )
        }
        _ => (Shape::bottom(), Shape::top()),
    }
}

/// Result type of a column-wise reduction (`sum`, `max`, …).
fn reduction_type(a: &Type, _prod: bool) -> Type {
    let intr = if at_most(a, Intrinsic::Int) {
        Intrinsic::Int
    } else if at_most(a, Intrinsic::Real) {
        Intrinsic::Real
    } else if at_most(a, Intrinsic::Complex) {
        Intrinsic::Complex
    } else {
        return Type::top();
    };
    // A vector reduces to a scalar; a matrix to a row vector. When we
    // cannot tell, bound by <1, max_cols>.
    if a.max_shape.rows == Dim::Finite(1) || a.max_shape.cols == Dim::Finite(1) {
        return scalar_of(intr, Range::top());
    }
    with_shape(
        intr,
        Shape {
            rows: Dim::Finite(1),
            cols: Dim::Finite(1),
        },
        Shape {
            rows: Dim::Finite(1),
            cols: a.max_shape.cols,
        },
        Range::top(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o() -> InferOptions {
        InferOptions::default()
    }

    #[test]
    fn int_scalar_addition_tracks_constants() {
        let t = binary(BinOp::Add, &Type::constant(2.0), &Type::constant(3.0), &o());
        assert_eq!(t.intrinsic, Intrinsic::Int);
        assert_eq!(t.as_constant(), Some(5.0));
    }

    #[test]
    fn int_arithmetic_that_may_overflow_degrades_to_real() {
        // Found by the differential fuzzer: 2 .^ 1e10 is `inf` at
        // runtime, which types as real, so an unbounded interval must
        // not claim int. Finite intervals keep it.
        let t = binary(
            BinOp::ElemPow,
            &Type::constant(2.0),
            &Type::constant(1e10),
            &o(),
        );
        assert_eq!(t.intrinsic, Intrinsic::Real);
        let t = binary(
            BinOp::ElemPow,
            &Type::constant(2.0),
            &Type::constant(10.0),
            &o(),
        );
        assert_eq!(t.intrinsic, Intrinsic::Int);

        // Same for +/-/*: a widened (⊤) operand admits overflow.
        let wide = Type::scalar(Intrinsic::Int);
        let t = binary(BinOp::Add, &wide, &Type::constant(1.0), &o());
        assert_eq!(t.intrinsic, Intrinsic::Real);
        let t = binary(BinOp::Mul, &Type::constant(3.0), &Type::constant(4.0), &o());
        assert_eq!(t.intrinsic, Intrinsic::Int);
    }

    #[test]
    fn growing_store_joins_zero_fill_into_range() {
        // Found by the differential fuzzer: `m(5) = 5` vivifies m as
        // [0 0 0 0 5], so the inferred range must include the 0.0 fill,
        // not just the stored value.
        let five = SubTy::Ty(Type::constant(5.0));
        let t = index_write(
            &Type::bottom(),
            std::slice::from_ref(&five),
            &Type::constant(5.0),
            &o(),
        );
        assert_eq!(t.range, Range::new(0.0, 5.0));

        // A store inside the guaranteed extent leaves the range alone.
        let base = Type::matrix(Intrinsic::Int, 1, 8).with_range(Range::new(3.0, 4.0));
        let t = index_write(&base, &[five], &Type::constant(5.0), &o());
        assert_eq!(t.range, Range::new(3.0, 5.0));
    }

    #[test]
    fn division_degrades_int_to_real() {
        let t = binary(
            BinOp::ElemDiv,
            &Type::constant(1.0),
            &Type::constant(3.0),
            &o(),
        );
        assert_eq!(t.intrinsic, Intrinsic::Real);
    }

    #[test]
    fn complex_contaminates() {
        let z = Type::scalar(Intrinsic::Complex);
        let t = binary(BinOp::Add, &Type::constant(1.0), &z, &o());
        assert_eq!(t.intrinsic, Intrinsic::Complex);
    }

    #[test]
    fn matrix_multiply_shapes() {
        let a = Type::matrix(Intrinsic::Real, 3, 4);
        let b = Type::matrix(Intrinsic::Real, 4, 2);
        let t = binary(BinOp::Mul, &a, &b, &o());
        assert_eq!(t.exact_shape(), Some(Shape::new(3, 2)));
    }

    #[test]
    fn scalar_matrix_broadcast_keeps_shape() {
        let a = Type::matrix(Intrinsic::Real, 3, 3);
        let t = binary(BinOp::Add, &a, &Type::constant(1.0), &o());
        assert_eq!(t.exact_shape(), Some(Shape::new(3, 3)));
    }

    #[test]
    fn relational_yields_bool() {
        let t = binary(
            BinOp::Lt,
            &Type::scalar(Intrinsic::Real),
            &Type::constant(3.0),
            &o(),
        );
        assert_eq!(t.intrinsic, Intrinsic::Bool);
        assert!(t.is_scalar());
    }

    #[test]
    fn colon_with_constants_has_exact_extent() {
        let t = range_expr(&Type::constant(1.0), None, &Type::constant(10.0), &o());
        assert_eq!(t.exact_shape(), Some(Shape::new(1, 10)));
        assert_eq!(t.intrinsic, Intrinsic::Int);
        assert_eq!(t.range, Range::new(1.0, 10.0));
    }

    #[test]
    fn colon_with_bounded_stop_has_bounded_extent() {
        let n = Type::scalar(Intrinsic::Int).with_range(Range::new(1.0, 100.0));
        let t = range_expr(&Type::constant(1.0), None, &n, &o());
        assert_eq!(t.max_shape.cols, Dim::Finite(100));
        assert!(t.exact_shape().is_none());
    }

    #[test]
    fn zeros_with_constant_dims_is_exact() {
        let t = builtin(
            Builtin::Zeros,
            &[Type::constant(3.0), Type::constant(4.0)],
            1,
            &o(),
        );
        assert_eq!(t[0].exact_shape(), Some(Shape::new(3, 4)));
        assert_eq!(t[0].range, Range::constant(0.0));
    }

    #[test]
    fn zeros_with_bounded_dims_is_bounded() {
        let n = Type::scalar(Intrinsic::Int).with_range(Range::new(2.0, 8.0));
        let t = builtin(Builtin::Zeros, &[n], 1, &o());
        assert_eq!(t[0].min_shape, Shape::new(2, 2));
        assert_eq!(t[0].max_shape, Shape::new(8, 8));
    }

    #[test]
    fn size_of_exact_shape_is_constant() {
        let a = Type::matrix(Intrinsic::Real, 5, 7);
        let t = builtin(Builtin::Size, &[a, Type::constant(1.0)], 1, &o());
        assert_eq!(t[0].as_constant(), Some(5.0));
        let two = builtin(Builtin::Size, &[a], 2, &o());
        assert_eq!(two[1].as_constant(), Some(7.0));
    }

    #[test]
    fn scalar_index_read() {
        let a = Type::matrix(Intrinsic::Real, 10, 10).with_range(Range::new(-1.0, 1.0));
        let i = Type::constant(3.0);
        let t = index_read(&a, &[SubTy::Ty(i), SubTy::Ty(i)], &o());
        assert!(t.is_scalar());
        assert_eq!(t.range, Range::new(-1.0, 1.0));
    }

    #[test]
    fn slice_read_shapes() {
        let a = Type::matrix(Intrinsic::Real, 10, 4);
        let t = index_read(&a, &[SubTy::Ty(Type::constant(1.0)), SubTy::Colon], &o());
        assert_eq!(t.exact_shape(), Some(Shape::new(1, 4)));
        let t = index_read(&a, &[SubTy::Colon], &o());
        assert_eq!(t.exact_shape(), Some(Shape::new(40, 1)));
    }

    #[test]
    fn store_growth_follows_index_range() {
        // A(i) = v with i in [1, 50] on a row vector: extent grows to at
        // least 1 (min) and at most 50 beyond its old max.
        let base = Type::matrix(Intrinsic::Real, 1, 10);
        let idx = Type::scalar(Intrinsic::Int).with_range(Range::new(1.0, 50.0));
        let t = index_write(&base, &[SubTy::Ty(idx)], &Type::constant(0.0), &o());
        assert_eq!(t.max_shape, Shape::new(1, 50));
        assert_eq!(t.min_shape, Shape::new(1, 10));
        // Exact index: exact growth.
        let idx = Type::constant(20.0);
        let t = index_write(&base, &[SubTy::Ty(idx)], &Type::constant(0.0), &o());
        assert_eq!(t.max_shape, Shape::new(1, 20));
        assert_eq!(t.min_shape, Shape::new(1, 20));
    }

    #[test]
    fn store_promotes_intrinsic() {
        let base = Type::matrix(Intrinsic::Real, 2, 2);
        let t = index_write(
            &base,
            &[SubTy::Ty(Type::constant(1.0))],
            &Type::scalar(Intrinsic::Complex),
            &o(),
        );
        assert_eq!(t.intrinsic, Intrinsic::Complex);
    }

    #[test]
    fn sqrt_rule_ladder() {
        let pos = Type::scalar(Intrinsic::Real).with_range(Range::new(0.0, 4.0));
        let t = builtin(Builtin::Sqrt, &[pos], 1, &o());
        assert_eq!(t[0].intrinsic, Intrinsic::Real);
        assert_eq!(t[0].range, Range::new(0.0, 2.0));
        let any = Type::scalar(Intrinsic::Real);
        let t = builtin(Builtin::Sqrt, &[any], 1, &o());
        assert_eq!(t[0].intrinsic, Intrinsic::Complex);
    }

    #[test]
    fn disabling_ranges_strips_ranges() {
        let opts = InferOptions {
            range_propagation: false,
            ..InferOptions::default()
        };
        let t = binary(
            BinOp::Add,
            &Type::constant(2.0),
            &Type::constant(3.0),
            &opts,
        );
        assert!(t.range.is_top());
        // Shape info is unaffected.
        assert!(t.is_scalar());
    }

    #[test]
    fn disabling_min_shapes_strips_lower_bounds() {
        let opts = InferOptions {
            min_shape_propagation: false,
            ..InferOptions::default()
        };
        let t = builtin(
            Builtin::Zeros,
            &[Type::constant(3.0), Type::constant(3.0)],
            1,
            &opts,
        );
        assert_eq!(t[0].min_shape, Shape::bottom());
        assert_eq!(t[0].max_shape, Shape::new(3, 3));
        assert!(t[0].exact_shape().is_none());
    }

    #[test]
    fn default_rule_yields_top() {
        let s = Type::string();
        let t = binary(BinOp::Mul, &s, &Type::constant(2.0), &o());
        assert_eq!(t, Type::top());
    }

    #[test]
    fn eig_shape_rule() {
        let a = Type::matrix(Intrinsic::Real, 6, 6);
        let t = builtin(Builtin::Eig, &[a], 1, &o());
        assert_eq!(t[0].max_shape, Shape::new(6, 1));
        assert_eq!(t[0].intrinsic, Intrinsic::Complex);
    }

    #[test]
    fn transpose_swaps_bounds() {
        let a = Type::matrix(Intrinsic::Real, 2, 5);
        let t = transpose(&a, &o());
        assert_eq!(t.exact_shape(), Some(Shape::new(5, 2)));
    }

    #[test]
    fn matrix_literal_of_scalars() {
        let row = vec![
            Type::constant(1.0),
            Type::constant(2.0),
            Type::constant(3.0),
        ];
        let t = matrix_literal(&[row], &o());
        assert_eq!(t.exact_shape(), Some(Shape::new(1, 3)));
        assert_eq!(t.intrinsic, Intrinsic::Int);
        assert_eq!(t.range, Range::new(1.0, 3.0));
    }

    #[test]
    fn matrix_literal_two_rows() {
        let t = matrix_literal(
            &[
                vec![Type::constant(1.0), Type::constant(2.0)],
                vec![Type::constant(3.0), Type::constant(4.0)],
            ],
            &o(),
        );
        assert_eq!(t.exact_shape(), Some(Shape::new(2, 2)));
    }

    #[test]
    fn negating_a_logical_is_numeric() {
        // Found by the differential fuzzer: `-true` is the double -1.0,
        // which Bool (values 0/1) does not admit.
        let b = with_shape(
            Intrinsic::Bool,
            Shape::scalar(),
            Shape::scalar(),
            Range::new(0.0, 1.0),
        );
        let t = unary(UnOp::Neg, &b, &o());
        assert_ne!(t.intrinsic, Intrinsic::Bool);
        assert!(t.intrinsic.le(&Intrinsic::Int));
        assert_eq!(t.range, Range::new(-1.0, 0.0));
    }

    #[test]
    fn floor_of_real_cannot_claim_int() {
        // Found by the differential fuzzer: floor(NaN) is NaN, which
        // types as real with the ⊥ range — a range every interval
        // admits — so only an integral input intrinsic justifies `int`.
        let real = Type::scalar(Intrinsic::Real);
        for b in [Builtin::Floor, Builtin::Ceil, Builtin::Round, Builtin::Fix] {
            let t = builtin(b, &[real], 1, &o());
            assert_eq!(t[0].intrinsic, Intrinsic::Real, "{b:?}");
        }
        // An already-integral operand (NaN-free by construction) keeps
        // the precise class.
        let t = builtin(Builtin::Floor, &[Type::constant(3.0)], 1, &o());
        assert_eq!(t[0].intrinsic, Intrinsic::Int);
    }

    #[test]
    fn matmul_joins_scalar_broadcast_alternative() {
        // Found by the differential fuzzer: 4x4 times a join of 1x1 and
        // 4x1 was typed 4x1, but the runtime scalar case scales the
        // matrix and produces 4x4.
        let a = Type::matrix(Intrinsic::Real, 4, 4);
        let b = with_shape(
            Intrinsic::Real,
            Shape::scalar(),
            Shape::new(4, 1),
            Range::top(),
        );
        let t = binary(BinOp::Mul, &a, &b, &o());
        assert!(
            Shape::new(4, 4).le(&t.max_shape),
            "scalar-broadcast shape not covered: {t:?}"
        );
        let t = binary(BinOp::Div, &a, &b, &o());
        assert!(Shape::new(4, 4).le(&t.max_shape), "rdiv: {t:?}");
        let t = binary(BinOp::LeftDiv, &b, &a, &o());
        assert!(Shape::new(4, 4).le(&t.max_shape), "ldiv: {t:?}");
    }
}
