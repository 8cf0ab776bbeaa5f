//! The forward (JIT) type-inference engine (paper §2.3, §2.4).

use crate::calculator::{self, SubTy};
use majic_analysis::{run_flow, Dataflow, DisambiguatedFunction, SymbolKind, VarId};
use majic_ast::{Expr, ExprKind, LValue, NodeId, Stmt, StmtKind};
use majic_types::{Dim, Intrinsic, Lattice, Range, Signature, Type};
use std::collections::HashMap;

pub use crate::calculator::InferOptions;

/// Loop fixpoint iteration cap; widening kicks in afterwards (paper
/// §2.3: the engine "caps the number of iterations").
const MAX_LOOP_ITERATIONS: usize = 8;

/// Resolves the output types of user-function calls. The engine wires
/// the code repository in here so that inference can use the signatures
/// of already-compiled callees; [`NoOracle`] answers `⊤`.
pub trait CalleeOracle {
    /// Output types of calling `name` with the given argument types, or
    /// `None` when unknown.
    fn call_types(&self, name: &str, args: &[Type], nargout: usize) -> Option<Vec<Type>>;
}

/// An oracle that knows nothing (every call returns `⊤`).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoOracle;

impl CalleeOracle for NoOracle {
    fn call_types(&self, _name: &str, _args: &[Type], _nargout: usize) -> Option<Vec<Type>> {
        None
    }
}

/// The result of type inference: "a set of type annotations S, one type
/// for each expression node in the abstract syntax tree … a conservative
/// estimate of the types that expression nodes can assume during
/// execution" (§2.3).
#[derive(Clone, Debug, Default)]
pub struct Annotations {
    /// Result type per expression node (and per lvalue id: the variable's
    /// type *after* the assignment).
    pub types: HashMap<NodeId, Type>,
    /// For `Apply` reads and `Index` lvalues: the type of the indexed
    /// array *before* the operation (drives subscript-check removal).
    pub base_types: HashMap<NodeId, Type>,
    /// Types of the function outputs at exit.
    pub outputs: Vec<Type>,
    /// Parameter types the analysis ran with (JIT: the invocation
    /// signature; speculative: the inferred guess).
    pub params: Vec<Type>,
}

impl Annotations {
    /// The annotation of a node (`⊤` when absent).
    pub fn ty(&self, id: NodeId) -> Type {
        self.types.get(&id).copied().unwrap_or_else(Type::top)
    }

    /// The base-array annotation of an indexing node (`⊤` when absent).
    pub fn base_ty(&self, id: NodeId) -> Type {
        self.base_types.get(&id).copied().unwrap_or_else(Type::top)
    }
}

/// Environment: one type per variable (`⊥` = undefined so far).
type Env = Vec<Type>;

/// Join two per-variable dataflow states.
///
/// In the environment, `⊥` means "unbound on this path" — *not*
/// "unreachable". The lattice join treats `⊥` as an identity, which is
/// right for upper bounds but unsound for the *guarantees* carried in
/// `min_shape`: a variable that is unbound on one incoming path (the
/// first iteration of a loop that assigns it, an `if` without an `else`)
/// auto-vivifies from empty when indexed-stored, so code reaching the
/// merge cannot assume any minimum extent. Keeping the defined side's
/// `min_shape` let codegen remove store checks that the first iteration
/// still needs (the unchecked store path refuses to vivify and raises
/// `Undefined` where the interpreter succeeds).
///
/// A logical on one path and a non-logical value on the other join to
/// `⊤`. The lattice's `bool ⊔ int = int` admits the logical value but
/// not its class, which the program can observe (results, display,
/// logical indexing): code generation keeps a variable's class only
/// where its type says `bool`.
fn join_var(x: &Type, y: &Type) -> Type {
    let j = x.join(y);
    let xb = x.intrinsic == Intrinsic::Bottom;
    let yb = y.intrinsic == Intrinsic::Bottom;
    let xl = x.intrinsic == Intrinsic::Bool;
    let yl = y.intrinsic == Intrinsic::Bool;
    if xl != yl && !xb && !yb {
        Type::top()
    } else if xb == yb {
        j
    } else {
        Type {
            min_shape: majic_types::Shape::bottom(),
            ..j
        }
    }
}

struct ForwardEngine<'a, O: CalleeOracle> {
    d: &'a DisambiguatedFunction,
    opts: InferOptions,
    oracle: &'a O,
    ann: Annotations,
}

/// Forward inference of `d` from the parameter types `params`: the one
/// pass behind [`infer_jit`] and the speculator's forward pass.
pub(crate) fn infer_forward<O: CalleeOracle>(
    d: &DisambiguatedFunction,
    opts: InferOptions,
    oracle: &O,
    params: Vec<Type>,
) -> Annotations {
    let mut engine = ForwardEngine {
        d,
        opts,
        oracle,
        ann: Annotations::default(),
    };
    let mut env: Env = vec![Type::bottom(); d.table.var_count()];
    for (k, p) in d.function.params.iter().enumerate() {
        if let Some(v) = d.table.var_id(p) {
            env[v.index()] = params.get(k).copied().unwrap_or_else(Type::bottom);
        }
    }
    engine.ann.params = params;
    let exit = run_flow(&mut engine, &d.function.body, env);
    engine.ann.outputs = d
        .function
        .outputs
        .iter()
        .map(|o| {
            d.table
                .var_id(o)
                .map(|v| exit[v.index()])
                .unwrap_or_else(Type::top)
        })
        .collect();
    engine.ann
}

/// JIT type inference: propagate the invocation's type signature through
/// the function body (paper §2.4).
///
/// Because the signature comes from actual runtime values, ranges are
/// exact (constant propagation), shapes are exact, and subscript bounds
/// become provable.
pub fn infer_jit<O: CalleeOracle>(
    d: &DisambiguatedFunction,
    sig: &Signature,
    opts: InferOptions,
    oracle: &O,
) -> Annotations {
    let params: Vec<Type> = d
        .function
        .params
        .iter()
        .enumerate()
        .map(|(k, _)| {
            sig.params()
                .get(k)
                .copied()
                .map(|t| opts.sanitize(t))
                .unwrap_or_else(Type::bottom)
        })
        .collect();
    infer_forward(d, opts, oracle, params)
}

/// The type lattice per variable, iterated under the loop cap with
/// widening (paper §2.3).
impl<O: CalleeOracle> Dataflow for ForwardEngine<'_, O> {
    type State = Env;
    /// The `for` variable's slot and its element type.
    type ForVar = (Option<VarId>, Type);

    fn join(&self, a: &Env, b: &Env) -> Env {
        a.iter().zip(b).map(|(x, y)| join_var(x, y)).collect()
    }

    /// Past `MAX_LOOP_ITERATIONS - 2` passes, widen the components that
    /// keep changing: moved range bounds jump to ±∞, grown shape bounds
    /// to their lattice extremes. Each component widens at most once,
    /// and stable components (e.g. an exact small-vector shape) survive
    /// — they are what the unrolling optimizations feed on. Past the cap
    /// itself, the soundness backstop sends every component that still
    /// grows to ⊤: annotations must describe *every* iteration
    /// (unchecked accesses rely on them), and ⊤ stops growing.
    fn widen(&mut self, pass: usize, head: &Env, next: Env) -> Env {
        if pass + 2 < MAX_LOOP_ITERATIONS {
            return next;
        }
        let backstop = pass >= MAX_LOOP_ITERATIONS;
        let mut out = head.clone();
        for (i, (c, n)) in out.iter_mut().zip(next).enumerate() {
            if n == *c || (backstop && join_var(c, &n) == *c) {
                continue;
            }
            let w = if backstop {
                Type::top()
            } else {
                n.widen_from(c)
            };
            majic_trace::audit::widening(|| majic_trace::audit::Widening {
                variable: self.d.table.vars.get(i).cloned().unwrap_or_default(),
                from: c.to_string(),
                to: w.to_string(),
                reason: if backstop {
                    "unstable at loop iteration cap → ⊤ (soundness backstop)".to_owned()
                } else {
                    format!(
                        "join at loop header: still moving after {} iterations",
                        pass + 1
                    )
                },
            });
            *c = w;
        }
        out
    }

    fn transfer(&mut self, s: &Stmt, env: &mut Env) {
        match &s.kind {
            StmtKind::Expr { expr, .. } => {
                self.expr(expr, env, None);
            }
            StmtKind::Assign { lhs, rhs, .. } => {
                let t = self.expr(rhs, env, None);
                self.assign(lhs, t, env);
            }
            StmtKind::MultiAssign {
                lhs,
                id,
                callee,
                args,
                ..
            } => {
                let arg_tys: Vec<Type> = args.iter().map(|a| self.expr(a, env, None)).collect();
                let outs = match self.d.table.kind(*id) {
                    SymbolKind::Builtin(b) => {
                        calculator::builtin(b, &arg_tys, lhs.len(), &self.opts)
                    }
                    SymbolKind::UserFunction => self
                        .oracle
                        .call_types(callee, &arg_tys, lhs.len())
                        .unwrap_or_else(|| vec![Type::top(); lhs.len()]),
                    _ => vec![Type::top(); lhs.len()],
                };
                self.ann
                    .types
                    .insert(*id, outs.first().copied().unwrap_or_else(Type::top));
                for (k, lv) in lhs.iter().enumerate() {
                    let t = outs.get(k).copied().unwrap_or_else(Type::top);
                    self.assign(lv, t, env);
                }
            }
            StmtKind::Global(names) => {
                for n in names {
                    if let Some(v) = self.d.table.var_id(n) {
                        env[v.index()] = Type::top();
                    }
                }
            }
            StmtKind::Clear(names) => {
                if names.is_empty() {
                    env.fill(Type::bottom());
                } else {
                    for n in names {
                        if let Some(v) = self.d.table.var_id(n) {
                            env[v.index()] = Type::bottom();
                        }
                    }
                }
            }
            _ => unreachable!("control flow is the flow driver's"),
        }
    }

    fn condition(&mut self, cond: &Expr, env: &Env) {
        self.expr(cond, env, None);
    }

    fn enter_for(&mut self, var: &str, var_id: NodeId, iter: &Expr, env: &Env) -> Self::ForVar {
        let iter_t = self.expr(iter, env, None);
        let elem_t = self.loop_element_type(&iter_t);
        self.ann.types.insert(var_id, elem_t);
        (self.d.table.var_id(var), elem_t)
    }

    fn bind_for(&mut self, &(v, elem_t): &Self::ForVar, env: &mut Env) {
        if let Some(v) = v {
            env[v.index()] = elem_t;
        }
    }
}

impl<O: CalleeOracle> ForwardEngine<'_, O> {
    /// Type of the loop variable given the iteration-space type: MATLAB
    /// iterates over columns, so a row vector (the common `for i = 1:n`)
    /// yields scalars. Elements keep the iteration range.
    fn loop_element_type(&self, iter_t: &Type) -> Type {
        let row = iter_t.max_shape.rows == Dim::Finite(1) || iter_t.is_scalar();
        let column = |rows: Dim| majic_types::Shape {
            rows: if row { Dim::Finite(1) } else { rows },
            cols: Dim::Finite(1),
        };
        Type {
            intrinsic: iter_t.intrinsic,
            min_shape: column(iter_t.min_shape.rows),
            max_shape: column(iter_t.max_shape.rows),
            range: iter_t.range,
        }
    }

    fn assign(&mut self, lhs: &LValue, rhs_t: Type, env: &mut Env) {
        match lhs {
            LValue::Var { name, id, .. } => {
                if let Some(v) = self.d.table.var_id(name) {
                    env[v.index()] = rhs_t;
                }
                self.ann.types.insert(*id, rhs_t);
            }
            LValue::Index { name, args, id, .. } => {
                let base = self
                    .d
                    .table
                    .var_id(name)
                    .map(|v| env[v.index()])
                    .unwrap_or_else(Type::top);
                self.ann.base_types.insert(*id, base);
                let subs = self.subscripts(args, &base, env);
                let new_t = calculator::index_write(&base, &subs, &rhs_t, &self.opts);
                if let Some(v) = self.d.table.var_id(name) {
                    env[v.index()] = new_t;
                }
                self.ann.types.insert(*id, new_t);
            }
        }
    }

    fn subscripts(&mut self, args: &[Expr], base: &Type, env: &Env) -> Vec<SubTy> {
        let n = args.len();
        args.iter()
            .enumerate()
            .map(|(k, a)| match &a.kind {
                ExprKind::Colon => SubTy::Colon,
                _ => SubTy::Ty(self.expr(a, env, Some(end_type(base, k, n, &self.opts)))),
            })
            .collect()
    }

    fn expr(&mut self, e: &Expr, env: &Env, end_t: Option<Type>) -> Type {
        let t = match &e.kind {
            ExprKind::Number { value, imaginary } => {
                if *imaginary {
                    Type::scalar(Intrinsic::Complex)
                } else {
                    Type::constant(*value)
                }
            }
            ExprKind::Str(s) => {
                let n = s.len() as u64;
                Type::string()
                    .with_exact_shape(majic_types::Shape::new(if n == 0 { 0 } else { 1 }, n))
            }
            ExprKind::Ident(name) => match self.d.table.kind(e.id) {
                SymbolKind::Variable(v) => env[v.index()],
                SymbolKind::Builtin(b) => calculator::builtin(b, &[], 1, &self.opts)
                    .first()
                    .copied()
                    .unwrap_or_else(Type::top),
                SymbolKind::UserFunction => self
                    .oracle
                    .call_types(name, &[], 1)
                    .and_then(|v| v.first().copied())
                    .unwrap_or_else(Type::top),
                SymbolKind::Ambiguous(_) | SymbolKind::Unknown => Type::top(),
            },
            ExprKind::Apply { callee, args } => match self.d.table.kind(e.id) {
                SymbolKind::Variable(v) | SymbolKind::Ambiguous(v) => {
                    let base = env[v.index()];
                    self.ann.base_types.insert(e.id, base);
                    if matches!(self.d.table.kind(e.id), SymbolKind::Ambiguous(_)) {
                        // Deferred to runtime: argument types still get
                        // annotated, result is unknown.
                        for a in args {
                            self.expr(a, env, None);
                        }
                        Type::top()
                    } else {
                        let subs = self.subscripts(args, &base, env);
                        calculator::index_read(&base, &subs, &self.opts)
                    }
                }
                SymbolKind::Builtin(b) => {
                    let arg_tys: Vec<Type> = args.iter().map(|a| self.expr(a, env, None)).collect();
                    calculator::builtin(b, &arg_tys, 1, &self.opts)
                        .first()
                        .copied()
                        .unwrap_or_else(Type::top)
                }
                SymbolKind::UserFunction => {
                    let arg_tys: Vec<Type> = args.iter().map(|a| self.expr(a, env, None)).collect();
                    self.oracle
                        .call_types(callee, &arg_tys, 1)
                        .and_then(|v| v.first().copied())
                        .unwrap_or_else(Type::top)
                }
                SymbolKind::Unknown => {
                    for a in args {
                        self.expr(a, env, None);
                    }
                    Type::top()
                }
            },
            ExprKind::Range { start, step, stop } => {
                let st = self.expr(start, env, end_t);
                let sp = step.as_ref().map(|s| self.expr(s, env, end_t));
                let en = self.expr(stop, env, end_t);
                calculator::range_expr(&st, sp.as_ref(), &en, &self.opts)
            }
            ExprKind::Colon => Type::top(),
            ExprKind::End => end_t.unwrap_or_else(Type::top),
            ExprKind::Unary { op, operand } => {
                let t = self.expr(operand, env, end_t);
                calculator::unary(*op, &t, &self.opts)
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.expr(lhs, env, end_t);
                let rt = self.expr(rhs, env, end_t);
                let mut t = calculator::binary(*op, &lt, &rt, &self.opts);
                // `x*x` is non-negative even when x's range is unknown —
                // the one piece of symbolic reasoning the numeric range
                // lattice cannot express, and the one the benchmarks'
                // `sqrt(x*x + y*y)` idiom depends on to stay real.
                if matches!(op, majic_ast::BinOp::Mul | majic_ast::BinOp::ElemMul)
                    && t.intrinsic.has_range()
                    && !t.range.is_nonnegative()
                    && same_shape_expr(lhs, rhs)
                {
                    t.range = t.range.meet(&Range::new(0.0, f64::INFINITY));
                }
                t
            }
            ExprKind::Matrix(rows) => {
                let tys: Vec<Vec<Type>> = rows
                    .iter()
                    .map(|row| row.iter().map(|el| self.expr(el, env, end_t)).collect())
                    .collect();
                calculator::matrix_literal(&tys, &self.opts)
            }
            ExprKind::Transpose { operand, .. } => {
                let t = self.expr(operand, env, end_t);
                calculator::transpose(&t, &self.opts)
            }
        };
        let t = self.opts.sanitize(t);
        self.ann.types.insert(e.id, t);
        t
    }
}

/// Structural equality of two expressions, ignoring node ids and spans —
/// used to recognize `x*x` squares. Conservative: any unhandled pair is
/// "different".
fn same_shape_expr(a: &Expr, b: &Expr) -> bool {
    match (&a.kind, &b.kind) {
        (ExprKind::Ident(x), ExprKind::Ident(y)) => x == y,
        (
            ExprKind::Number {
                value: x,
                imaginary: xi,
            },
            ExprKind::Number {
                value: y,
                imaginary: yi,
            },
        ) => x == y && xi == yi,
        (
            ExprKind::Apply {
                callee: cx,
                args: ax,
            },
            ExprKind::Apply {
                callee: cy,
                args: ay,
            },
        ) => {
            cx == cy
                && ax.len() == ay.len()
                && ax.iter().zip(ay).all(|(p, q)| same_shape_expr(p, q))
        }
        (
            ExprKind::Unary {
                op: ox,
                operand: px,
            },
            ExprKind::Unary {
                op: oy,
                operand: py,
            },
        ) => ox == oy && same_shape_expr(px, py),
        (
            ExprKind::Binary {
                op: ox,
                lhs: lx,
                rhs: rx,
            },
            ExprKind::Binary {
                op: oy,
                lhs: ly,
                rhs: ry,
            },
        ) => ox == oy && same_shape_expr(lx, ly) && same_shape_expr(rx, ry),
        _ => false,
    }
}

/// The type of `end` in subscript `k` of `n` against `base` (its value
/// is the relevant extent, so its range is the extent's bounds).
fn end_type(base: &Type, k: usize, n: usize, opts: &InferOptions) -> Type {
    let (lo, hi) = if n == 1 {
        (
            base.min_shape.rows.saturating_mul(base.min_shape.cols),
            base.max_shape.rows.saturating_mul(base.max_shape.cols),
        )
    } else if k == 0 {
        (base.min_shape.rows, base.max_shape.rows)
    } else {
        (base.min_shape.cols, base.max_shape.cols)
    };
    let range = Range::new(
        match lo {
            Dim::Finite(v) => v as f64,
            Dim::Inf => 0.0,
        },
        match hi {
            Dim::Finite(v) => v as f64,
            Dim::Inf => f64::INFINITY,
        },
    );
    opts.sanitize(Type::scalar(Intrinsic::Int).with_range(range))
}

#[cfg(test)]
mod tests {
    use super::*;
    use majic_analysis::disambiguate;
    use majic_ast::{parse_source, walk_stmts};
    use std::collections::HashSet;

    fn setup(src: &str, sig: Vec<Type>) -> (DisambiguatedFunction, Annotations) {
        let file = parse_source(src).unwrap();
        let known: HashSet<String> = file.functions.iter().map(|f| f.name.clone()).collect();
        let d = disambiguate(&file.functions[0], &known);
        let ann = infer_jit(&d, &Signature::new(sig), InferOptions::default(), &NoOracle);
        (d, ann)
    }

    /// The annotation of the rhs of the assignment to `name`.
    fn type_of_assign(d: &DisambiguatedFunction, ann: &Annotations, name: &str) -> Type {
        walk_stmts(&d.function.body)
            .filter_map(|s| match &s.kind {
                StmtKind::Assign { lhs, .. } if lhs.name() == name => Some(ann.ty(lhs.id())),
                _ => None,
            })
            .last()
            .expect("assignment found")
    }

    #[test]
    fn constants_propagate_through_arithmetic() {
        let (d, ann) = setup(
            "function y = f(x)\na = 2;\nb = a * 3 + 1;\ny = b;\n",
            vec![Type::constant(0.0)],
        );
        let t = type_of_assign(&d, &ann, "b");
        assert_eq!(t.as_constant(), Some(7.0));
        assert_eq!(ann.outputs[0].as_constant(), Some(7.0));
    }

    #[test]
    fn signature_drives_precision() {
        // With x = int constant 3, x+1 is the constant 4.
        let (d, ann) = setup("function y = f(x)\ny = x + 1;\n", vec![Type::constant(3.0)]);
        assert_eq!(type_of_assign(&d, &ann, "y").as_constant(), Some(4.0));
        // With x an unknown real scalar, y is a real scalar, not constant.
        let (d, ann) = setup(
            "function y = f(x)\ny = x + 1;\n",
            vec![Type::scalar(Intrinsic::Real)],
        );
        let t = type_of_assign(&d, &ann, "y");
        assert_eq!(t.intrinsic, Intrinsic::Real);
        assert!(t.as_constant().is_none());
        assert!(t.is_scalar());
    }

    #[test]
    fn exact_shape_inference_through_zeros() {
        // Paper §2.4: "A = zeros(m,n): the value ranges of m and n may
        // uniquely determine the shape of A".
        let (d, ann) = setup(
            "function y = f(m, n)\nA = zeros(m, n);\ny = A;\n",
            vec![Type::constant(30.0), Type::constant(40.0)],
        );
        let t = type_of_assign(&d, &ann, "A");
        assert_eq!(t.exact_shape(), Some(majic_types::Shape::new(30, 40)));
    }

    #[test]
    fn loop_variable_gets_range_of_iteration_space() {
        let (d, ann) = setup(
            "function y = f(n)\ns = 0;\nfor k = 1:n\n s = s + k;\nend\ny = s;\n",
            vec![Type::constant(100.0)],
        );
        // Find the for's var_id annotation.
        let mut var_t = None;
        for s in &d.function.body {
            if let StmtKind::For { var_id, .. } = &s.kind {
                var_t = Some(ann.ty(*var_id));
            }
        }
        let var_t = var_t.unwrap();
        assert_eq!(var_t.intrinsic, Intrinsic::Int);
        assert_eq!(var_t.range, Range::new(1.0, 100.0));
        assert!(var_t.is_scalar());
    }

    #[test]
    fn loop_fixpoint_converges_with_widening() {
        // s grows without bound; the range must widen rather than iterate
        // forever, and the intrinsic stays int.
        let (d, ann) = setup(
            "function y = f(n)\ns = 0;\nfor k = 1:n\n s = s + 1;\nend\ny = s;\n",
            vec![Type::constant(1000.0)],
        );
        let _ = &d;
        let t = ann.outputs[0];
        assert!(t.intrinsic.le(&Intrinsic::Real));
        // Lower bound of s stays finite, upper widens to cover the loop.
        assert!(t.range.hi().is_infinite() || t.range.hi() >= 1000.0);
    }

    #[test]
    fn subscript_ranges_enable_check_removal_info() {
        let (d, ann) = setup(
            "function y = f(n)\nA = zeros(1, n);\nfor k = 1:n\n A(k) = k;\nend\ny = A;\n",
            vec![Type::constant(50.0)],
        );
        // After the loop, A is exactly 1x50: stores at k ∈ [1,50] on a
        // zeros(1,50) never resize.
        let t = type_of_assign(&d, &ann, "y");
        assert_eq!(t.exact_shape(), Some(majic_types::Shape::new(1, 50)));
    }

    #[test]
    fn growing_array_bounds() {
        // A starts empty and grows: max shape must cover [1, n].
        let (d, ann) = setup(
            "function y = f(n)\nA(1) = 0;\nfor k = 2:n\n A(k) = k;\nend\ny = A;\n",
            vec![Type::constant(10.0)],
        );
        let t = type_of_assign(&d, &ann, "y");
        assert_eq!(t.max_shape.cols, Dim::Finite(10));
        assert!(t.min_shape.cols.le(Dim::Finite(1)));
    }

    #[test]
    fn complex_seed_infects_results() {
        let (d, ann) = setup(
            "function y = f(z)\ny = z * 2 + 1;\n",
            vec![Type::scalar(Intrinsic::Complex)],
        );
        assert_eq!(type_of_assign(&d, &ann, "y").intrinsic, Intrinsic::Complex);
    }

    #[test]
    fn branch_join_merges_types() {
        let (d, ann) = setup(
            "function y = f(c)\nif c > 0\n t = 1;\nelse\n t = 2.5;\nend\ny = t;\n",
            vec![Type::scalar(Intrinsic::Real)],
        );
        let t = type_of_assign(&d, &ann, "y");
        assert_eq!(t.intrinsic, Intrinsic::Real);
        assert_eq!(t.range, Range::new(1.0, 2.5));
    }

    #[test]
    fn end_in_subscript_gets_extent_range() {
        let (d, ann) = setup(
            "function y = f(v)\ny = v(end);\n",
            vec![Type::matrix(Intrinsic::Real, 1, 8)],
        );
        let t = type_of_assign(&d, &ann, "y");
        assert!(t.is_scalar());
        assert_eq!(t.intrinsic, Intrinsic::Real);
    }

    #[test]
    fn unknown_call_defaults_to_top() {
        let (d, ann) = setup(
            "function y = f(x)\ny = helper(x);\nfunction y = helper(x)\ny = x;\n",
            vec![Type::constant(1.0)],
        );
        assert_eq!(type_of_assign(&d, &ann, "y"), Type::top());
    }

    #[test]
    fn oracle_supplies_call_types() {
        struct Fixed;
        impl CalleeOracle for Fixed {
            fn call_types(&self, _: &str, _: &[Type], n: usize) -> Option<Vec<Type>> {
                Some(vec![Type::constant(9.0); n])
            }
        }
        let file =
            parse_source("function y = f(x)\ny = helper(x);\nfunction y = helper(x)\ny = x;\n")
                .unwrap();
        let known: HashSet<String> = file.functions.iter().map(|f| f.name.clone()).collect();
        let d = disambiguate(&file.functions[0], &known);
        let ann = infer_jit(
            &d,
            &Signature::new(vec![Type::constant(1.0)]),
            InferOptions::default(),
            &Fixed,
        );
        assert_eq!(ann.outputs[0].as_constant(), Some(9.0));
    }

    #[test]
    fn range_ablation_defeats_constant_propagation() {
        let file = parse_source("function y = f(x)\ny = x + 1;\n").unwrap();
        let d = disambiguate(&file.functions[0], &HashSet::new());
        let opts = InferOptions {
            range_propagation: false,
            ..Default::default()
        };
        let ann = infer_jit(
            &d,
            &Signature::new(vec![Type::constant(3.0)]),
            opts,
            &NoOracle,
        );
        assert!(ann.outputs[0].as_constant().is_none());
        // Shape info survives.
        assert!(ann.outputs[0].is_scalar());
    }

    /// Inference counting the straight-line statements it visits.
    struct Counting<'a>(ForwardEngine<'a, NoOracle>, usize);

    impl Dataflow for Counting<'_> {
        type State = Env;
        type ForVar = (Option<VarId>, Type);

        fn join(&self, a: &Env, b: &Env) -> Env {
            self.0.join(a, b)
        }

        fn widen(&mut self, pass: usize, head: &Env, next: Env) -> Env {
            self.0.widen(pass, head, next)
        }

        fn transfer(&mut self, s: &Stmt, env: &mut Env) {
            self.1 += 1;
            self.0.transfer(s, env);
        }

        fn condition(&mut self, cond: &Expr, env: &Env) {
            self.0.condition(cond, env);
        }

        fn enter_for(&mut self, var: &str, id: NodeId, iter: &Expr, env: &Env) -> Self::ForVar {
            self.0.enter_for(var, id, iter, env)
        }

        fn bind_for(&mut self, v: &Self::ForVar, env: &mut Env) {
            self.0.bind_for(v, env);
        }
    }

    /// How often inference visits the innermost statements of a depth-12
    /// `for` nest around `inner`, with the parameter `y` the constant 0.
    fn nest_visits(inner: &str) -> usize {
        let mut src = "function x = f(y)\n".to_owned();
        for k in 0..12 {
            src += &format!("for k{k} = 1:2\n");
        }
        src += inner;
        src += &"end\n".repeat(12);
        let file = parse_source(&src).unwrap();
        let d = disambiguate(&file.functions[0], &HashSet::new());
        let mut env = vec![Type::bottom(); d.table.var_count()];
        env[d.table.var_id("y").unwrap().index()] = Type::constant(0.0);
        let engine = ForwardEngine {
            d: &d,
            opts: InferOptions::default(),
            oracle: &NoOracle,
            ann: Annotations::default(),
        };
        let mut counting = Counting(engine, 0);
        run_flow(&mut counting, &d.function.body, env);
        counting.1
    }

    #[test]
    fn a_depth_12_loop_nest_is_visited_depth_plus_one_times() {
        assert_eq!(nest_visits("x = 1;\n"), 13);
        // A loop-carried range that widens needs more passes, but no
        // more than the cap-bounded 21 visits of the `x` assignment.
        let visits = nest_visits("x = y;\ny = y + 1;\n") / 2;
        assert!(visits <= 21, "{visits} visits");
    }
}
