//! Speculative type inference (paper §2.5).
//!
//! "The type speculator's trick is to back-propagate certain type hints
//! from the body of the code to the input parameters. Type hints are
//! collected from syntactic constructs that suggest, but do not command,
//! particular semantic meanings."
//!
//! The hints implemented here are exactly the paper's list:
//!
//! 1. operands of the colon (interval) operator are almost always
//!    integer scalars;
//! 2. operands of relational operators — and even more strongly, of
//!    `if`/`while` conditions — are real scalars;
//! 3. when one argument of the bracket operator `[x1 x2 … xn]` is
//!    provably scalar, the others are probably scalars too;
//! 4. subscripts written without colons (Fortran-77 style indexing) are
//!    likely integer scalars — and the indexed name is a real array;
//! 5. arguments of `zeros`, `ones`, `rand`, `eye` and the second
//!    argument of `size` are likely integer scalars.
//!
//! Hints propagate *backward* through simple expressions (the type
//! calculator's backward mode), then a normal forward pass re-computes
//! body types; the alternation iterates until the guessed signature
//! converges. Un-hinted parameters default to the fully generic
//! signature — a complex matrix of unknown shape (the bottom row of the
//! paper's Figure 3). That default is precisely why `eig`-style
//! benchmarks lose under speculation (§3.6: in `mei` "the speculator is
//! unable to predict that the arguments to an eig function call are
//! reals; instead it considers them complex values which leads to
//! performance loss").

use crate::calculator::InferOptions;
use crate::engine::{infer_forward, Annotations, CalleeOracle};
use majic_analysis::{DisambiguatedFunction, SymbolKind};
use majic_ast::{walk_stmts, BinOp, Expr, ExprKind, LValue, Stmt, StmtKind};
use majic_runtime::builtins::Builtin;
use majic_types::{Intrinsic, Lattice, Range, Shape, Signature, Type};
use std::collections::HashMap;

/// The fully generic parameter guess: any complex matrix (Figure 3,
/// bottom row: `itype(x)=complex, shape(x)=⊤s, limits(x)=⊤l`).
fn generic_guess() -> Type {
    Type {
        intrinsic: Intrinsic::Complex,
        min_shape: Shape::bottom(),
        max_shape: Shape::top(),
        range: Range::top(),
    }
}

/// An int-scalar hint (colon operands, subscripts, `zeros` arguments).
fn int_scalar_hint() -> Type {
    Type::scalar(Intrinsic::Int)
}

/// A real-scalar hint (relational operands, conditions).
fn real_scalar_hint() -> Type {
    Type::scalar(Intrinsic::Real)
}

/// A real-matrix hint (names that get subscripted): shape unknown, but
/// contents real rather than complex.
fn real_matrix_hint() -> Type {
    Type {
        intrinsic: Intrinsic::Real,
        ..generic_guess()
    }
}

/// Speculative type inference: guess a signature from type hints, then
/// run forward inference with it. Returns the guessed [`Signature`]
/// together with the resulting annotations.
pub fn infer_speculative<O: CalleeOracle>(
    d: &DisambiguatedFunction,
    opts: InferOptions,
    oracle: &O,
) -> (Signature, Annotations) {
    let mut hints: HashMap<String, Type> = HashMap::new();
    // Alternate backward (hint collection) and forward passes until the
    // parameter guess converges (paper: "the alternating
    // backwards-forwards process can be iterated several times").
    let mut sig_types: Vec<Type> = vec![generic_guess(); d.function.params.len()];
    for _pass in 0..4 {
        let mut collector = HintCollector {
            d,
            hints: std::mem::take(&mut hints),
        };
        collector.block(&d.function.body);
        hints = collector.hints;
        // Back-propagate hints through simple assignment chains:
        // a hint on `m` combined with `m = n` hints `n` too.
        for _chain in 0..4 {
            let mut changed = false;
            for s in walk_stmts(&d.function.body) {
                if let StmtKind::Assign {
                    lhs: LValue::Var { name, .. },
                    rhs,
                    ..
                } = &s.kind
                {
                    if let Some(h) = hints.get(name).copied() {
                        changed |= backward_expr(rhs, &h, &mut hints);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let new_sig: Vec<Type> = d
            .function
            .params
            .iter()
            .map(|p| match hints.get(p) {
                Some(h) => *h,
                None => generic_guess(),
            })
            .collect();
        if new_sig == sig_types {
            break;
        }
        sig_types = new_sig;
    }

    let sig = Signature::new(sig_types.clone());
    (sig, infer_forward(d, opts, oracle, sig_types))
}

/// Meet a hint into the map (most restrictive wins; contradictions keep
/// the earlier, more restrictive guess).
fn add_hint(hints: &mut HashMap<String, Type>, name: &str, hint: Type) -> bool {
    match hints.get(name) {
        Some(old) => {
            let met = old.meet(&hint);
            // A bottom meet means the hints genuinely conflict; keep the
            // older one (rules are ordered most-restrictive-first).
            if met.intrinsic == Intrinsic::Bottom || met == *old {
                false
            } else {
                hints.insert(name.to_owned(), met);
                true
            }
        }
        None => {
            hints.insert(name.to_owned(), hint);
            true
        }
    }
}

/// Backward transfer through an expression: constrain the variables that
/// feed it (the type calculator's backward mode, §2.3.1).
fn backward_expr(e: &Expr, want: &Type, hints: &mut HashMap<String, Type>) -> bool {
    match &e.kind {
        ExprKind::Ident(name) => add_hint(hints, name, *want),
        // Scalar-preserving arithmetic: `i+1`, `2*k`, `-n` … propagate
        // scalar hints through to the variable.
        ExprKind::Binary { op, lhs, rhs }
            if matches!(
                op,
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::ElemMul
            ) && want.is_scalar() =>
        {
            let mut changed = false;
            // Division and multiplication may break integrality.
            let w = if matches!(op, BinOp::Div) {
                real_scalar_hint()
            } else {
                *want
            };
            changed |= backward_expr(lhs, &w, hints);
            changed |= backward_expr(rhs, &w, hints);
            changed
        }
        ExprKind::Unary { operand, .. } if want.is_scalar() => backward_expr(operand, want, hints),
        _ => false,
    }
}

struct HintCollector<'a> {
    d: &'a DisambiguatedFunction,
    hints: HashMap<String, Type>,
}

impl HintCollector<'_> {
    /// Collect the hints of every statement, nested bodies included. The
    /// hints never conflict, so their order does not matter.
    fn block(&mut self, stmts: &[Stmt]) {
        for s in walk_stmts(stmts) {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr { expr, .. } => self.expr(expr),
            StmtKind::Assign { lhs, rhs, .. } => {
                if let LValue::Index { name, args, .. } = lhs {
                    self.subscript_hints(name, args);
                }
                self.expr(rhs);
            }
            StmtKind::MultiAssign {
                callee, args, id, ..
            } => {
                self.call_hints(*id, callee, args);
                for a in args {
                    self.expr(a);
                }
            }
            StmtKind::If { branches, .. } => {
                for (cond, _) in branches {
                    // Hint 2 (strong form): condition operands are real
                    // scalars.
                    self.condition_hints(cond);
                    self.expr(cond);
                }
            }
            StmtKind::While { cond, .. } => {
                self.condition_hints(cond);
                self.expr(cond);
            }
            StmtKind::For { iter, .. } => self.expr(iter),
            _ => {}
        }
    }

    fn condition_hints(&mut self, cond: &Expr) {
        if let ExprKind::Binary { op, lhs, rhs } = &cond.kind {
            if op.is_relational() {
                backward_expr(lhs, &real_scalar_hint(), &mut self.hints);
                backward_expr(rhs, &real_scalar_hint(), &mut self.hints);
            }
        }
    }

    fn subscript_hints(&mut self, base: &str, args: &[Expr]) {
        // Hint 4: F77-style subscripts (no colons anywhere) are integer
        // scalars, and the base is a real array.
        let has_colon = args.iter().any(|a| {
            matches!(a.kind, ExprKind::Colon)
                || matches!(a.kind, ExprKind::Range { .. })
                || matches!(a.kind, ExprKind::End)
        });
        add_hint(&mut self.hints, base, real_matrix_hint());
        if !has_colon {
            for a in args {
                backward_expr(a, &int_scalar_hint(), &mut self.hints);
            }
        }
    }

    fn call_hints(&mut self, id: majic_ast::NodeId, _callee: &str, args: &[Expr]) {
        if let SymbolKind::Builtin(b) = self.d.table.kind(id) {
            // Hint 5: creation-function arguments are integer scalars.
            match b {
                Builtin::Zeros | Builtin::Ones | Builtin::Rand | Builtin::Eye => {
                    for a in args {
                        backward_expr(a, &int_scalar_hint(), &mut self.hints);
                    }
                }
                Builtin::Size => {
                    if let Some(second) = args.get(1) {
                        backward_expr(second, &int_scalar_hint(), &mut self.hints);
                    }
                }
                _ => {}
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Range { start, step, stop } => {
                // Hint 1: colon operands are integer scalars.
                backward_expr(start, &int_scalar_hint(), &mut self.hints);
                if let Some(s) = step {
                    backward_expr(s, &int_scalar_hint(), &mut self.hints);
                    self.expr(s);
                }
                backward_expr(stop, &int_scalar_hint(), &mut self.hints);
                self.expr(start);
                self.expr(stop);
            }
            ExprKind::Binary { op, lhs, rhs } => {
                if op.is_relational() {
                    // Hint 2: relational operands are real scalars.
                    backward_expr(lhs, &real_scalar_hint(), &mut self.hints);
                    backward_expr(rhs, &real_scalar_hint(), &mut self.hints);
                }
                self.expr(lhs);
                self.expr(rhs);
            }
            ExprKind::Unary { operand, .. } | ExprKind::Transpose { operand, .. } => {
                self.expr(operand);
            }
            ExprKind::Matrix(rows) => {
                // Hint 3: a provably scalar bracket argument makes the
                // siblings probably scalar too.
                for row in rows {
                    let any_scalar_literal = row
                        .iter()
                        .any(|el| matches!(el.kind, ExprKind::Number { .. }));
                    if any_scalar_literal {
                        for el in row {
                            backward_expr(el, &real_scalar_hint(), &mut self.hints);
                        }
                    }
                    for el in row {
                        self.expr(el);
                    }
                }
            }
            ExprKind::Apply { callee, args } => {
                match self.d.table.kind(e.id) {
                    SymbolKind::Variable(_) | SymbolKind::Ambiguous(_) => {
                        self.subscript_hints(callee, args);
                    }
                    SymbolKind::Builtin(_) => self.call_hints(e.id, callee, args),
                    _ => {}
                }
                for a in args {
                    self.expr(a);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NoOracle;
    use majic_analysis::disambiguate;
    use majic_ast::parse_source;
    use std::collections::HashSet;

    fn speculate(src: &str) -> (Signature, Annotations, DisambiguatedFunction) {
        let file = parse_source(src).unwrap();
        let known: HashSet<String> = file.functions.iter().map(|f| f.name.clone()).collect();
        let d = disambiguate(&file.functions[0], &known);
        let (sig, ann) = infer_speculative(&d, InferOptions::default(), &NoOracle);
        (sig, ann, d)
    }

    #[test]
    fn colon_operand_is_guessed_integer_scalar() {
        let (sig, _, _) = speculate("function y = f(n)\ny = 0;\nfor k = 1:n\n y = y + k;\nend\n");
        let p = sig.params()[0];
        assert_eq!(p.intrinsic, Intrinsic::Int);
        assert!(p.is_scalar());
    }

    #[test]
    fn relational_operand_is_guessed_real_scalar() {
        let (sig, _, _) = speculate("function y = f(x)\nif x > 0\n y = 1;\nelse\n y = 2;\nend\n");
        let p = sig.params()[0];
        assert!(p.intrinsic.le(&Intrinsic::Real));
        assert!(p.is_scalar());
    }

    #[test]
    fn subscripted_name_is_guessed_real_array() {
        let (sig, _, _) = speculate("function y = f(A, i)\ny = A(i);\n");
        let a = sig.params()[0];
        let i = sig.params()[1];
        assert_eq!(a.intrinsic, Intrinsic::Real);
        assert!(!a.is_scalar());
        assert_eq!(i.intrinsic, Intrinsic::Int);
        assert!(i.is_scalar());
    }

    #[test]
    fn zeros_argument_is_guessed_integer_scalar() {
        let (sig, _, _) = speculate("function A = f(m, n)\nA = zeros(m, n);\n");
        assert!(sig.params()[0].is_scalar());
        assert_eq!(sig.params()[0].intrinsic, Intrinsic::Int);
        assert!(sig.params()[1].is_scalar());
    }

    #[test]
    fn unhinted_parameter_defaults_to_generic_complex() {
        // The mei failure mode: an argument that only feeds eig gets no
        // hint and is guessed complex.
        let (sig, _, _) = speculate("function e = f(A)\ne = eig(A);\n");
        let p = sig.params()[0];
        assert_eq!(p.intrinsic, Intrinsic::Complex);
        assert!(p.max_shape == Shape::top());
    }

    #[test]
    fn hints_propagate_through_scalar_arithmetic() {
        // `x` is used as `x+1` in a subscript: the hint reaches x.
        let (sig, _, _) = speculate("function y = f(A, x)\ny = A(x + 1);\n");
        let x = sig.params()[1];
        assert!(x.is_scalar());
        assert_eq!(x.intrinsic, Intrinsic::Int);
    }

    #[test]
    fn hints_chain_through_assignments() {
        // n flows into m which is used as a colon bound.
        let (sig, _, _) =
            speculate("function y = f(n)\nm = n;\ny = 0;\nfor k = 1:m\n y = y + k;\nend\n");
        assert!(sig.params()[0].is_scalar());
        assert_eq!(sig.params()[0].intrinsic, Intrinsic::Int);
    }

    #[test]
    fn colon_in_subscript_suppresses_scalar_index_hint() {
        // F90-style `A(1:k)`: the presence of the colon means no scalar
        // hint for the bound (the paper: colons indicate F90 syntax).
        let (sig, _, _) = speculate("function y = f(A)\ny = A(:, 1);\n");
        let a = sig.params()[0];
        assert_eq!(a.intrinsic, Intrinsic::Real);
    }

    #[test]
    fn speculative_annotations_cover_the_body() {
        let (_, ann, d) =
            speculate("function y = f(n)\ns = 0;\nfor k = 1:n\n s = s + k;\nend\ny = s;\n");
        // The speculative forward pass must have annotated the loop body
        // with non-top types (int scalars).
        assert_eq!(ann.params[0].intrinsic, Intrinsic::Int);
        let out = ann.outputs[0];
        assert!(out.intrinsic.le(&Intrinsic::Real), "{out}");
        let _ = d;
    }

    #[test]
    fn bracket_sibling_hint() {
        let (sig, _, _) = speculate("function v = f(a, b)\nv = [a b 0];\n");
        assert!(sig.params()[0].is_scalar());
        assert!(sig.params()[1].is_scalar());
    }
}
