//! Abstract syntax tree definitions.

use crate::token::Span;
use std::fmt;

/// Unique identifier of an expression (or lvalue) node within one parse.
///
/// Later passes attach analysis results — symbol meanings, type
/// annotations, code-selection choices — in side tables indexed by node id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Unary plus `+x`.
    Plus,
    /// Logical negation `~x`.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Neg => "-",
            UnOp::Plus => "+",
            UnOp::Not => "~",
        })
    }
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*` — matrix multiply.
    Mul,
    /// `/` — matrix right division.
    Div,
    /// `\` — matrix left division (linear solve).
    LeftDiv,
    /// `^` — matrix power.
    Pow,
    /// `.*`
    ElemMul,
    /// `./`
    ElemDiv,
    /// `.\`
    ElemLeftDiv,
    /// `.^`
    ElemPow,
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
    /// `&` — element-wise and.
    And,
    /// `|` — element-wise or.
    Or,
    /// `&&` — short-circuit and.
    ShortAnd,
    /// `||` — short-circuit or.
    ShortOr,
}

impl BinOp {
    /// Is this one of the six relational operators?
    pub fn is_relational(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// Does this operator work element-wise (as opposed to the matrix
    /// `*`, `/`, `\`, `^`)?
    pub fn is_elementwise(self) -> bool {
        !matches!(self, BinOp::Mul | BinOp::Div | BinOp::LeftDiv | BinOp::Pow)
    }

    /// The operator as written in source.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::LeftDiv => "\\",
            BinOp::Pow => "^",
            BinOp::ElemMul => ".*",
            BinOp::ElemDiv => "./",
            BinOp::ElemLeftDiv => ".\\",
            BinOp::ElemPow => ".^",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "~=",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::ShortAnd => "&&",
            BinOp::ShortOr => "||",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An expression node.
#[derive(Clone, Debug, PartialEq)]
pub struct Expr {
    /// Unique node id (side-table key).
    pub id: NodeId,
    /// Source location.
    pub span: Span,
    /// The expression itself.
    pub kind: ExprKind,
}

/// Expression kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum ExprKind {
    /// Numeric literal; `imaginary` marks `3i`-style literals.
    Number {
        /// The literal value.
        value: f64,
        /// Imaginary-unit suffix present?
        imaginary: bool,
    },
    /// String literal.
    Str(String),
    /// A bare symbol — variable, builtin constant (`pi`, `i`, …) or
    /// zero-argument function call. Which one is decided by the
    /// disambiguation pass.
    Ident(String),
    /// `name(args)` — array indexing *or* a call; disambiguated later.
    /// Arguments may contain [`ExprKind::Colon`] and [`ExprKind::End`].
    Apply {
        /// The symbol being indexed or called.
        callee: String,
        /// Subscripts or actual parameters.
        args: Vec<Expr>,
    },
    /// `start : end` or `start : step : end`.
    Range {
        /// First value.
        start: Box<Expr>,
        /// Optional step (defaults to 1).
        step: Option<Box<Expr>>,
        /// Inclusive upper bound.
        stop: Box<Expr>,
    },
    /// A bare `:` subscript (entire dimension).
    Colon,
    /// `end` inside a subscript — the extent of the indexed dimension.
    End,
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Matrix literal `[rows]`: a vector of rows, each a vector of
    /// horizontally concatenated elements.
    Matrix(Vec<Vec<Expr>>),
    /// Conjugate transpose `x'` (or the non-conjugating `x.'` when
    /// `conjugate` is false).
    Transpose {
        /// The transposed operand.
        operand: Box<Expr>,
        /// `'` (true) vs `.'` (false).
        conjugate: bool,
    },
}

impl Expr {
    /// Walk this expression and all sub-expressions, pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match &self.kind {
            ExprKind::Apply { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::Range { start, step, stop } => {
                start.walk(f);
                if let Some(s) = step {
                    s.walk(f);
                }
                stop.walk(f);
            }
            ExprKind::Unary { operand, .. } => operand.walk(f),
            ExprKind::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            ExprKind::Matrix(rows) => {
                for row in rows {
                    for e in row {
                        e.walk(f);
                    }
                }
            }
            ExprKind::Transpose { operand, .. } => operand.walk(f),
            ExprKind::Number { .. }
            | ExprKind::Str(_)
            | ExprKind::Ident(_)
            | ExprKind::Colon
            | ExprKind::End => {}
        }
    }
}

/// Walk a statement block and every nested body, pre-order: each
/// statement comes before the bodies it contains, and an `if` chain's
/// bodies come in source order (`if`, each `elseif`, then `else`).
pub fn walk_stmts(stmts: &[Stmt]) -> impl Iterator<Item = &Stmt> {
    StmtWalk {
        stack: vec![stmts.iter()],
    }
}

/// Every expression the statements of [`walk_stmts`] evaluate directly:
/// conditions, iteration spaces, right-hand sides, call arguments and
/// assignment subscripts. [`Expr::walk`] reaches their sub-expressions.
pub fn walk_exprs(stmts: &[Stmt]) -> impl Iterator<Item = &Expr> {
    walk_stmts(stmts).flat_map(|s| {
        let (lvalues, exprs): (&[LValue], Vec<&Expr>) = match &s.kind {
            StmtKind::Expr { expr: e, .. }
            | StmtKind::While { cond: e, .. }
            | StmtKind::For { iter: e, .. } => (&[], vec![e]),
            StmtKind::Assign { lhs, rhs, .. } => (std::slice::from_ref(lhs), vec![rhs]),
            StmtKind::MultiAssign { lhs, args, .. } => (lhs, args.iter().collect()),
            StmtKind::If { branches, .. } => (&[], branches.iter().map(|(c, _)| c).collect()),
            _ => (&[], Vec::new()),
        };
        let subscripts = lvalues.iter().flat_map(|lv| match lv {
            LValue::Index { args, .. } => args.as_slice(),
            LValue::Var { .. } => &[],
        });
        exprs.into_iter().chain(subscripts)
    })
}

/// The iterator behind [`walk_stmts`].
struct StmtWalk<'a> {
    /// One iterator per open block; the innermost is last.
    stack: Vec<std::slice::Iter<'a, Stmt>>,
}

impl<'a> Iterator for StmtWalk<'a> {
    type Item = &'a Stmt;

    fn next(&mut self) -> Option<&'a Stmt> {
        loop {
            let top = self.stack.last_mut()?;
            let Some(s) = top.next() else {
                self.stack.pop();
                continue;
            };
            // Pushed in reverse, so the first body is walked first.
            match &s.kind {
                StmtKind::If {
                    branches,
                    else_body,
                } => {
                    self.stack.extend(else_body.as_deref().map(<[Stmt]>::iter));
                    self.stack
                        .extend(branches.iter().rev().map(|(_, b)| b.iter()));
                }
                StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                    self.stack.push(body.iter());
                }
                _ => {}
            }
            return Some(s);
        }
    }
}

/// The target of an assignment.
#[derive(Clone, Debug, PartialEq)]
pub enum LValue {
    /// Plain variable assignment `x = …`.
    Var {
        /// Variable name.
        name: String,
        /// Node id for annotations.
        id: NodeId,
        /// Source location.
        span: Span,
    },
    /// Indexed assignment `A(i, j) = …` (may grow the array).
    Index {
        /// Array name.
        name: String,
        /// Subscripts (may contain `:` and `end`).
        args: Vec<Expr>,
        /// Node id for annotations.
        id: NodeId,
        /// Source location.
        span: Span,
    },
}

impl LValue {
    /// The assigned variable's name.
    pub fn name(&self) -> &str {
        match self {
            LValue::Var { name, .. } | LValue::Index { name, .. } => name,
        }
    }

    /// The lvalue's node id.
    pub fn id(&self) -> NodeId {
        match self {
            LValue::Var { id, .. } | LValue::Index { id, .. } => *id,
        }
    }

    /// The lvalue's span.
    pub fn span(&self) -> Span {
        match self {
            LValue::Var { span, .. } | LValue::Index { span, .. } => *span,
        }
    }
}

/// A statement node.
#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    /// Source location.
    pub span: Span,
    /// The statement itself.
    pub kind: StmtKind,
}

/// Statement kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum StmtKind {
    /// Expression statement (result displayed unless suppressed by `;`).
    Expr {
        /// The evaluated expression.
        expr: Expr,
        /// Trailing `;` present?
        suppressed: bool,
    },
    /// Single assignment `lhs = rhs`.
    Assign {
        /// Assignment target.
        lhs: LValue,
        /// Assigned value.
        rhs: Expr,
        /// Trailing `;` present?
        suppressed: bool,
    },
    /// Multi-assignment `[a, b] = f(args)`.
    MultiAssign {
        /// Assignment targets.
        lhs: Vec<LValue>,
        /// Node id of the call (for annotations).
        id: NodeId,
        /// Called function.
        callee: String,
        /// Actual parameters.
        args: Vec<Expr>,
        /// Trailing `;` present?
        suppressed: bool,
    },
    /// `if` / `elseif` / `else` chain; each branch is a condition with its
    /// body, plus an optional `else` body.
    If {
        /// `(condition, body)` per `if`/`elseif` arm.
        branches: Vec<(Expr, Vec<Stmt>)>,
        /// The `else` body, if present.
        else_body: Option<Vec<Stmt>>,
    },
    /// `while cond … end`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for var = iter … end`.
    For {
        /// Induction variable.
        var: String,
        /// Node id of the induction variable (for annotations).
        var_id: NodeId,
        /// Iteration space (typically a range, but any matrix iterates by
        /// columns in MATLAB).
        iter: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// `return`.
    Return,
    /// `global x y`.
    Global(Vec<String>),
    /// `clear` / `clear x y` — command syntax.
    Clear(Vec<String>),
}

/// A function definition.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Formal parameter names.
    pub params: Vec<String>,
    /// Output variable names.
    pub outputs: Vec<String>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source location of the header.
    pub span: Span,
}

/// A parsed source file: an optional leading script plus function
/// definitions (a function file's subfunctions follow its main function).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SourceFile {
    /// Statements before the first `function` keyword (script part).
    pub script: Vec<Stmt>,
    /// Function definitions in source order.
    pub functions: Vec<Function>,
    /// One past the largest [`NodeId`] allocated while parsing; side tables
    /// can be sized `node_count` up front.
    pub node_count: u32,
}

impl SourceFile {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_source;

    #[test]
    fn walk_stmts_is_pre_order_in_source_order() {
        let src = "function f(a)\nb = 1;\nif a\n c = 1;\n while c\n  d = 1;\n end\n\
                   elseif b\n e = 1;\nelse\n g = 1;\n for k = 1:2\n  h = 1;\n end\nend\nm = 1;\n";
        let file = parse_source(src).unwrap();
        let order: Vec<&str> = walk_stmts(&file.functions[0].body)
            .map(|s| match &s.kind {
                StmtKind::Assign { lhs, .. } => lhs.name(),
                StmtKind::If { .. } => "if",
                StmtKind::While { .. } => "while",
                StmtKind::For { .. } => "for",
                _ => "other",
            })
            .collect();
        assert_eq!(
            order,
            ["b", "if", "c", "while", "d", "e", "g", "for", "h", "m"]
        );
    }
}
