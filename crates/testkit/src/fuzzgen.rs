//! Grammar-based MATLAB program generation and shrinking for the
//! differential fuzzer.
//!
//! This module is deliberately dependency-free: it produces programs as
//! a small structured AST ([`Program`]) rendered to MATLAB source text,
//! plus entry-point arguments as plain data ([`ArgVal`]). The fuzz
//! harness (`crates/fuzz`) converts these into engine values and runs
//! them through the cross-mode oracle (`majic::diff`); keeping the
//! generator independent of the engine means a generator bug can never
//! mask an engine bug, and the shrinker can manipulate programs
//! structurally instead of slicing text.
//!
//! # Termination by construction
//!
//! Generated programs always terminate:
//!
//! * `for` ranges start from small literals and end at either a small
//!   literal or `min(<expr>, <small literal>)`, so the trip count is
//!   bounded even when `<expr>` turns out huge, `NaN`, or infinite;
//! * every `while` loop carries a decrementing guard counter
//!   (`g = k; while (g > 0) & cond; g = g - 1; …`);
//! * `break` and `continue` end `if` arms only when the innermost loop
//!   is a `for`, whose trip count is fixed on entry; `return` ends `if`
//!   arms anywhere;
//! * the call graph is a DAG — `f0` may call `f1`/`f2`, never itself.
//!
//! Infinity is also excluded from the entry-argument pool: a literal
//! infinite `for` bound is the one known semantic gap between the
//! interpreter (which materializes the iteration space and fails on
//! allocation) and compiled counted loops (which would run forever).
//! `NaN` arguments *are* generated — both paths agree on an empty
//! iteration.

use crate::Rng;
use std::fmt;

/// Which production set [`generate_with`] draws from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Grammar {
    /// The original general-purpose grammar.
    #[default]
    Default,
    /// Aliasing-heavy mode: biases generation toward the patterns that
    /// stress copy-on-write snapshot isolation — `x = y` binds followed
    /// by mutation of either alias, self-referential updates
    /// `a(i) = a(j)`, growth-through-store on an aliased array, calls
    /// passing the same variable to several formals, and callees that
    /// write to their formals. Programs stay terminating by the same
    /// construction rules as the default grammar.
    Aliasing,
}

/// An entry-point argument, engine-agnostic.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgVal {
    /// A real scalar.
    Scalar(f64),
    /// A real matrix, data in column-major order.
    Matrix {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
        /// `rows * cols` elements, column-major.
        data: Vec<f64>,
    },
}

/// A generated expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A literal (rendered so that `NaN` and `-0.0` survive parsing).
    Num(f64),
    /// A variable reference.
    Var(String),
    /// A binary operation; the operator is kept as source text.
    Bin(&'static str, Box<Expr>, Box<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
    /// A call — builtin or generated user function.
    Call(String, Vec<Expr>),
    /// An indexing read `v(subs…)`.
    Index(String, Vec<Expr>),
    /// A colon range `a : b` or `a : s : b`.
    Range(Box<Expr>, Option<Box<Expr>>, Box<Expr>),
    /// A matrix literal `[a b; c d]` (row-major rows of scalars).
    MatLit(Vec<Vec<Expr>>),
}

/// A generated statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `v = e;`
    Assign(String, Expr),
    /// `v(subs…) = e;` — exercises growth and the write-path guards.
    IndexAssign(String, Vec<Expr>, Expr),
    /// `if c … else … end` (else block may be empty).
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `for v = from : step : to … end`.
    For {
        /// Loop variable.
        var: String,
        /// Start bound.
        from: Expr,
        /// Optional step.
        step: Option<Expr>,
        /// End bound (clamped by construction).
        to: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// A guarded while loop; renders as
    /// `g = init; while (g > 0) & cond; g = g - 1; … end`.
    While {
        /// Guard-counter variable.
        guard: String,
        /// Initial guard value (maximum iterations).
        init: u32,
        /// The generated condition.
        cond: Expr,
        /// Body (guard decrement is emitted automatically).
        body: Vec<Stmt>,
    },
    /// `break`, `continue` or `return`, kept as source text.
    Jump(&'static str),
}

/// One generated function.
#[derive(Clone, Debug, PartialEq)]
pub struct Func {
    /// Function name (`f0` is the entry).
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Return variable (always assigned by the final statement).
    pub ret: String,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A complete generated case: functions plus entry arguments.
/// `funcs[0]` is the entry point; calls only ever go from lower to
/// higher indices (the DAG property).
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// The functions, entry first.
    pub funcs: Vec<Func>,
    /// Actual arguments for the entry function.
    pub args: Vec<ArgVal>,
}

impl Program {
    /// Name of the entry function.
    pub fn entry(&self) -> &str {
        &self.funcs[0].name
    }

    /// Render the MATLAB source defining every function.
    pub fn source(&self) -> String {
        let mut s = String::new();
        for f in &self.funcs {
            s.push_str(&f.to_string());
        }
        s
    }

    /// Render the self-contained corpus form: header comments recording
    /// the entry point and arguments, followed by the source. The `%`
    /// headers are ordinary MATLAB comments, so the whole file is also
    /// valid source.
    pub fn render_corpus(&self) -> String {
        let mut s = String::new();
        s.push_str("% majic differential-fuzzer reproducer\n");
        s.push_str(&format!("% entry: {}\n", self.entry()));
        for a in &self.args {
            match a {
                ArgVal::Scalar(v) => s.push_str(&format!("% arg: scalar {}\n", fmt_f64(*v))),
                ArgVal::Matrix { rows, cols, data } => {
                    let elems: Vec<String> = data.iter().map(|v| fmt_f64(*v)).collect();
                    s.push_str(&format!(
                        "% arg: matrix {rows}x{cols} {}\n",
                        elems.join(" ")
                    ));
                }
            }
        }
        s.push_str(&self.source());
        s
    }
}

/// `f64` to text such that `text.parse::<f64>()` round-trips exactly
/// (`{:?}` keeps full precision; `NaN` parses back as NaN).
fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

/// Entry point and arguments recovered from a corpus file's headers.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusHeader {
    /// Entry function name.
    pub entry: String,
    /// Entry arguments.
    pub args: Vec<ArgVal>,
}

/// Parse the `% entry:` / `% arg:` headers of a corpus file. The source
/// is the file itself (the headers are MATLAB comments).
///
/// # Errors
///
/// Returns a message when the `% entry:` header is missing or an
/// `% arg:` line is malformed.
pub fn parse_corpus(text: &str) -> Result<CorpusHeader, String> {
    let mut entry = None;
    let mut args = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("% entry:") {
            entry = Some(rest.trim().to_owned());
        } else if let Some(rest) = line.strip_prefix("% arg:") {
            args.push(parse_arg(rest.trim())?);
        }
    }
    Ok(CorpusHeader {
        entry: entry.ok_or("missing '% entry:' header")?,
        args,
    })
}

fn parse_arg(spec: &str) -> Result<ArgVal, String> {
    let mut it = spec.split_whitespace();
    match it.next() {
        Some("scalar") => {
            let v = it.next().ok_or("scalar arg missing value")?;
            Ok(ArgVal::Scalar(
                v.parse().map_err(|e| format!("bad scalar {v:?}: {e}"))?,
            ))
        }
        Some("matrix") => {
            let dims = it.next().ok_or("matrix arg missing dims")?;
            let (r, c) = dims
                .split_once('x')
                .ok_or_else(|| format!("bad matrix dims {dims:?}"))?;
            let rows: usize = r.parse().map_err(|e| format!("bad rows {r:?}: {e}"))?;
            let cols: usize = c.parse().map_err(|e| format!("bad cols {c:?}: {e}"))?;
            let data: Result<Vec<f64>, String> = it
                .map(|v| v.parse().map_err(|e| format!("bad element {v:?}: {e}")))
                .collect();
            let data = data?;
            if data.len() != rows * cols {
                return Err(format!(
                    "matrix {rows}x{cols} needs {} elements, got {}",
                    rows * cols,
                    data.len()
                ));
            }
            Ok(ArgVal::Matrix { rows, cols, data })
        }
        other => Err(format!("unknown arg kind {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num(v) => {
                if v.is_nan() {
                    // A computed NaN: survives any parser and is
                    // mode-agnostic (0/0 is NaN in every engine path).
                    write!(f, "(0/0)")
                } else if *v < 0.0 || (*v == 0.0 && v.is_sign_negative()) {
                    write!(f, "({})", fmt_f64(*v))
                } else {
                    write!(f, "{}", fmt_f64(*v))
                }
            }
            Expr::Var(n) => f.write_str(n),
            Expr::Bin(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::Call(name, args) | Expr::Index(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Expr::Range(a, None, b) => write!(f, "({a} : {b})"),
            Expr::Range(a, Some(s), b) => write!(f, "({a} : {s} : {b})"),
            Expr::MatLit(rows) => {
                f.write_str("[")?;
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    for (j, e) in row.iter().enumerate() {
                        if j > 0 {
                            f.write_str(" ")?;
                        }
                        write!(f, "{e}")?;
                    }
                }
                f.write_str("]")
            }
        }
    }
}

fn write_block(f: &mut fmt::Formatter<'_>, stmts: &[Stmt], indent: usize) -> fmt::Result {
    for s in stmts {
        s.write(f, indent)?;
    }
    Ok(())
}

impl Stmt {
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Stmt::Assign(v, e) => writeln!(f, "{pad}{v} = {e};"),
            Stmt::IndexAssign(v, subs, e) => {
                write!(f, "{pad}{v}(")?;
                for (i, s) in subs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{s}")?;
                }
                writeln!(f, ") = {e};")
            }
            Stmt::If(c, then, els) => {
                writeln!(f, "{pad}if {c}")?;
                write_block(f, then, indent + 1)?;
                if !els.is_empty() {
                    writeln!(f, "{pad}else")?;
                    write_block(f, els, indent + 1)?;
                }
                writeln!(f, "{pad}end")
            }
            Stmt::For {
                var,
                from,
                step,
                to,
                body,
            } => {
                match step {
                    Some(s) => writeln!(f, "{pad}for {var} = {from} : {s} : {to}")?,
                    None => writeln!(f, "{pad}for {var} = {from} : {to}")?,
                }
                write_block(f, body, indent + 1)?;
                writeln!(f, "{pad}end")
            }
            Stmt::While {
                guard,
                init,
                cond,
                body,
            } => {
                writeln!(f, "{pad}{guard} = {init};")?;
                writeln!(f, "{pad}while ({guard} > 0) & ({cond})")?;
                writeln!(f, "{}{guard} = {guard} - 1;", "  ".repeat(indent + 1))?;
                write_block(f, body, indent + 1)?;
                writeln!(f, "{pad}end")
            }
            Stmt::Jump(k) => writeln!(f, "{pad}{k};"),
        }
    }
}

impl fmt::Display for Func {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "function {} = {}({})",
            self.ret,
            self.name,
            self.params.join(", ")
        )?;
        write_block(f, &self.body, 0)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

/// Scalar literal pool for entry arguments: no infinities (see module
/// docs), NaN and signed zero very much included.
const ARG_POOL: [f64; 12] = [
    0.0,
    1.0,
    2.0,
    3.0,
    7.0,
    -1.0,
    -2.5,
    0.5,
    1e6,
    1e-3,
    f64::NAN,
    -0.0,
];

/// Scalar literal pool for expression leaves.
const LIT_POOL: [f64; 10] = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, -1.0, -2.0, 0.5, 10.0];

/// Builtins the generator calls with one general argument.
const UNARY_BUILTINS: [&str; 9] = [
    "abs", "floor", "sqrt", "sum", "length", "numel", "sign", "round", "fix",
];

/// Builtins the generator calls with two general arguments: the scalar
/// operators that compiled code evaluates in `F` registers.
const BINARY_BUILTINS: [&str; 5] = ["min", "max", "mod", "rem", "atan2"];

/// Creation builtins — the functions the speculator keys its shape
/// hints on (paper §2.5), so generated programs exercise exactly the
/// code speculative compilation guesses about.
const CREATION_BUILTINS: [&str; 4] = ["zeros", "ones", "rand", "eye"];

struct Gen {
    rng: Rng,
    /// Remaining statement budget for the whole program.
    budget: u32,
    /// Fresh-name counters (loop vars / guards).
    loops: u32,
    /// Active production set. The default path draws exactly the RNG
    /// sequence it always did; aliasing-only draws happen behind the
    /// mode check, so default-mode programs are unchanged per seed.
    grammar: Grammar,
}

/// Per-function generation scope.
struct Scope {
    /// Variables known to hold *scalars* (usable in bounds/subscripts).
    scalars: Vec<String>,
    /// All assigned variables (usable anywhere).
    vars: Vec<String>,
    /// Names of callable functions (higher DAG rank only) with arity.
    callees: Vec<(String, usize)>,
    /// Live loop-control variables (`while` guards, `for` induction
    /// vars) that statements in the loop body must never store to: a
    /// guard store breaks the decrementing-counter termination
    /// guarantee, and a `for`-var store is reset by the interpreter on
    /// the next iteration but not by a compiled counted loop.
    protected: Vec<String>,
    /// Variables that have participated in an `x = y` alias bind
    /// (either side) — the aliasing grammar's preferred mutation
    /// targets.
    aliases: Vec<String>,
    /// Is the innermost enclosing loop a `for`? Only then may an `if`
    /// arm end in `break` or `continue`.
    in_for: bool,
}

impl Scope {
    fn mark(&mut self, name: &str, scalar: bool) {
        if !self.vars.iter().any(|v| v == name) {
            self.vars.push(name.to_owned());
        }
        let present = self.scalars.iter().position(|v| v == name);
        match (scalar, present) {
            (true, None) => self.scalars.push(name.to_owned()),
            (false, Some(i)) => {
                self.scalars.remove(i);
            }
            _ => {}
        }
    }
}

impl Gen {
    /// A small positive literal.
    fn small_lit(&mut self) -> Expr {
        Expr::Num(*self.rng.choose(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    }

    /// A "tame" scalar expression: guaranteed scalar shape, values kept
    /// small enough for loop bounds and subscripts. Depth-limited.
    fn tame(&mut self, sc: &Scope, depth: u32) -> Expr {
        let var_w = if sc.scalars.is_empty() { 0 } else { 4 };
        let w: Vec<u32> = if depth == 0 {
            vec![3, 2, var_w]
        } else {
            vec![3, 2, var_w, 2, 2, 1]
        };
        match self.rng.weighted(&w) {
            0 => Expr::Num(*self.rng.choose(&LIT_POOL)),
            1 => self.small_lit(),
            2 => Expr::Var(self.rng.choose(&sc.scalars).clone()),
            3 => Expr::Bin(
                ["+", "-", "*"][self.rng.below(3)],
                Box::new(self.tame(sc, depth - 1)),
                Box::new(self.tame(sc, depth - 1)),
            ),
            4 => Expr::Call("abs".into(), vec![self.tame(sc, depth - 1)]),
            _ => Expr::Call("floor".into(), vec![self.tame(sc, depth - 1)]),
        }
    }

    /// A subscript expression: positive small integers most of the
    /// time (growth stays modest), occasionally adventurous.
    fn subscript(&mut self, sc: &Scope) -> Expr {
        match self.rng.weighted(&[6, 2, 2]) {
            0 => self.small_lit(),
            1 if !sc.scalars.is_empty() => Expr::Var(self.rng.choose(&sc.scalars).clone()),
            _ => Expr::Call(
                "abs".into(),
                vec![Expr::Call("floor".into(), vec![self.tame(sc, 1)])],
            ),
        }
    }

    /// A general expression (any shape, any value). Depth-limited.
    fn expr(&mut self, sc: &Scope, depth: u32) -> Expr {
        if depth == 0 {
            return match self.rng.weighted(&[3, 4]) {
                0 => Expr::Num(*self.rng.choose(&LIT_POOL)),
                _ if !sc.vars.is_empty() => Expr::Var(self.rng.choose(&sc.vars).clone()),
                _ => Expr::Num(*self.rng.choose(&LIT_POOL)),
            };
        }
        match self.rng.weighted(&[4, 4, 6, 2, 3, 2, 2, 2, 2, 2, 1]) {
            0 => Expr::Num(*self.rng.choose(&LIT_POOL)),
            1 if !sc.vars.is_empty() => Expr::Var(self.rng.choose(&sc.vars).clone()),
            1 => Expr::Num(*self.rng.choose(&LIT_POOL)),
            2 => {
                let op = *self.rng.choose(&[
                    "+", "-", ".*", "./", ".^", "*", "<", "<=", ">", ">=", "==", "~=", "&",
                ]);
                Expr::Bin(
                    op,
                    Box::new(self.expr(sc, depth - 1)),
                    Box::new(self.expr(sc, depth - 1)),
                )
            }
            3 => Expr::Neg(Box::new(self.expr(sc, depth - 1))),
            4 => {
                let name = *self.rng.choose(&UNARY_BUILTINS);
                Expr::Call(name.into(), vec![self.expr(sc, depth - 1)])
            }
            5 => {
                let name = *self.rng.choose(&BINARY_BUILTINS);
                let args = vec![self.expr(sc, depth - 1), self.expr(sc, depth - 1)];
                Expr::Call(name.into(), args)
            }
            6 => {
                // Creation builtin with small literal dims.
                let name = *self.rng.choose(&CREATION_BUILTINS);
                let dims = if self.rng.coin() {
                    vec![self.small_lit()]
                } else {
                    vec![self.small_lit(), self.small_lit()]
                };
                Expr::Call(name.into(), dims)
            }
            7 if !sc.vars.is_empty() => {
                let v = self.rng.choose(&sc.vars).clone();
                if self.rng.coin() {
                    Expr::Call("size".into(), vec![Expr::Var(v)])
                } else {
                    let subs = if self.rng.coin() {
                        vec![self.subscript(sc)]
                    } else {
                        vec![self.subscript(sc), self.subscript(sc)]
                    };
                    Expr::Index(v, subs)
                }
            }
            7 => Expr::Num(*self.rng.choose(&LIT_POOL)),
            8 => {
                let a = self.tame(sc, 1);
                let b = self.tame(sc, 1);
                let step = if self.rng.coin() {
                    None
                } else {
                    Some(Box::new(Expr::Num(
                        *self.rng.choose(&[0.5, 1.0, 2.0, -1.0]),
                    )))
                };
                Expr::Range(Box::new(a), step, Box::new(b))
            }
            9 => {
                let rows = 1 + self.rng.below(2);
                let cols = 1 + self.rng.below(3);
                let rows: Vec<Vec<Expr>> = (0..rows)
                    .map(|_| (0..cols).map(|_| self.tame(sc, 1)).collect())
                    .collect();
                Expr::MatLit(rows)
            }
            _ if !sc.callees.is_empty() => {
                let (name, arity) = self.rng.choose(&sc.callees).clone();
                let args = (0..arity).map(|_| self.expr(sc, depth - 1)).collect();
                Expr::Call(name, args)
            }
            _ => Expr::Num(*self.rng.choose(&LIT_POOL)),
        }
    }

    /// A loop end bound: a small literal, or `min(<tame>, <literal>)`
    /// so the trip count stays finite whatever `<tame>` evaluates to.
    fn loop_to(&mut self, sc: &Scope) -> Expr {
        if self.rng.coin() {
            self.small_lit()
        } else {
            let lit = self.small_lit();
            Expr::Call("min".into(), vec![self.tame(sc, 1), lit])
        }
    }

    /// A boolean-ish condition over tame scalars.
    fn cond(&mut self, sc: &Scope) -> Expr {
        let op = *self.rng.choose(&["<", "<=", ">", ">=", "==", "~="]);
        Expr::Bin(op, Box::new(self.tame(sc, 1)), Box::new(self.tame(sc, 1)))
    }

    /// One statement from the aliasing production set. Every target is
    /// filtered against `protected`, so the termination guarantees are
    /// untouched; subscripts stay small, so growth stays modest.
    fn aliasing_stmt(&mut self, sc: &mut Scope) -> Stmt {
        let storable: Vec<String> = sc
            .vars
            .iter()
            .filter(|v| !sc.protected.contains(v))
            .cloned()
            .collect();
        let aliased: Vec<String> = storable
            .iter()
            .filter(|v| sc.aliases.contains(v))
            .cloned()
            .collect();
        let w = [
            3,
            if aliased.is_empty() { 0 } else { 4 },
            if storable.is_empty() { 0 } else { 2 },
            if storable.is_empty() { 0 } else { 2 },
            if sc.callees.is_empty() || sc.vars.is_empty() {
                0
            } else {
                2
            },
        ];
        match self.rng.weighted(&w) {
            0 => {
                // Alias bind `aN = y`: the canonical CoW share. Both
                // sides become preferred mutation targets.
                let src = self.rng.choose(&sc.vars).clone();
                let name = format!("a{}", self.rng.below(3));
                for n in [&src, &name] {
                    if !sc.aliases.contains(n) {
                        sc.aliases.push(n.clone());
                    }
                }
                sc.mark(&name, false);
                Stmt::Assign(name, Expr::Var(src))
            }
            1 => {
                // Mutate one side of a live alias pair: the other side
                // must observe the pre-store snapshot.
                let name = self.rng.choose(&aliased).clone();
                sc.mark(&name, false);
                let subs = vec![self.subscript(sc)];
                Stmt::IndexAssign(name, subs, self.tame(sc, 2))
            }
            2 => {
                // Self-referential update `a(i) = a(j)`: the rhs reads
                // the array being stored to.
                let name = self.rng.choose(&storable).clone();
                sc.mark(&name, false);
                let i = self.subscript(sc);
                let j = if self.rng.coin() {
                    Expr::Num(1.0)
                } else {
                    self.subscript(sc)
                };
                Stmt::IndexAssign(name.clone(), vec![i], Expr::Index(name, vec![j]))
            }
            3 => {
                // Growth-through-store, preferably on an aliased array:
                // a subscript past the small extents every other
                // production produces, so the store relocates (or bumps
                // into oversizing slack) while an alias watches.
                let pool = if aliased.is_empty() {
                    &storable
                } else {
                    &aliased
                };
                let name = self.rng.choose(pool).clone();
                sc.mark(&name, false);
                let sub = Expr::Num(*self.rng.choose(&[7.0, 8.0, 9.0, 12.0]));
                Stmt::IndexAssign(name, vec![sub], self.tame(sc, 2))
            }
            _ => {
                // The same actual bound to every formal: callee-side
                // stores to one formal must not leak into the other.
                let (f, arity) = self.rng.choose(&sc.callees).clone();
                let x = self.rng.choose(&sc.vars).clone();
                let name = format!("v{}", self.rng.below(4));
                sc.mark(&name, false);
                Stmt::Assign(name, Expr::Call(f, vec![Expr::Var(x); arity]))
            }
        }
    }

    fn stmt(&mut self, sc: &mut Scope, nesting: u32) -> Stmt {
        self.budget = self.budget.saturating_sub(1);
        if self.grammar == Grammar::Aliasing && !sc.vars.is_empty() && self.rng.below(3) == 0 {
            return self.aliasing_stmt(sc);
        }
        let structural = u32::from(nesting < 2 && self.budget > 3);
        match self
            .rng
            .weighted(&[6, 3, 3 * structural, 3 * structural, 2 * structural])
        {
            0 => {
                let name = format!("v{}", self.rng.below(4));
                // Scalar-certain assignments keep the tame pool fed.
                if self.rng.coin() {
                    let e = self.tame(sc, 2);
                    sc.mark(&name, true);
                    Stmt::Assign(name, e)
                } else {
                    let e = self.expr(sc, 3);
                    sc.mark(&name, false);
                    Stmt::Assign(name, e)
                }
            }
            1 => {
                let storable: Vec<&String> = sc
                    .vars
                    .iter()
                    .filter(|v| !sc.protected.contains(v))
                    .collect();
                let name = if storable.is_empty() || self.rng.coin() {
                    let n = format!("m{}", self.rng.below(2));
                    sc.mark(&n, false);
                    n
                } else {
                    let n = (*self.rng.choose(&storable)).clone();
                    sc.mark(&n, false);
                    n
                };
                let subs = if self.rng.coin() {
                    vec![self.subscript(sc)]
                } else {
                    vec![self.subscript(sc), self.subscript(sc)]
                };
                Stmt::IndexAssign(name, subs, self.tame(sc, 2))
            }
            2 => {
                let c = self.cond(sc);
                let tlen = 1 + self.rng.below(2);
                let mut then = self.block(sc, nesting + 1, tlen);
                // Now and then the arm ends in a jump. A `return` first
                // assigns the return value, usually of another type than
                // the fall-through path's.
                if self.rng.below(3) == 0 {
                    let jumps: &[_] = if sc.in_for {
                        &["break", "continue", "return"]
                    } else {
                        &["return"]
                    };
                    let k = *self.rng.choose(jumps);
                    if k == "return" {
                        then.push(Stmt::Assign("r".into(), self.expr(sc, 2)));
                    }
                    then.push(Stmt::Jump(k));
                }
                let els = if self.rng.coin() {
                    self.block(sc, nesting + 1, 1)
                } else {
                    Vec::new()
                };
                Stmt::If(c, then, els)
            }
            3 => {
                let var = format!("k{}", self.loops);
                self.loops += 1;
                sc.mark(&var, true);
                let from = Expr::Num(*self.rng.choose(&[1.0, 1.0, 1.0, 2.0, -2.0]));
                let to = self.loop_to(sc);
                let step = if self.rng.coin() {
                    None
                } else {
                    Some(Expr::Num(*self.rng.choose(&[1.0, 2.0, 0.5])))
                };
                let blen = 1 + self.rng.below(2);
                sc.protected.push(var.clone());
                let outer = std::mem::replace(&mut sc.in_for, true);
                let body = self.block(sc, nesting + 1, blen);
                sc.in_for = outer;
                sc.protected.pop();
                Stmt::For {
                    var,
                    from,
                    step,
                    to,
                    body,
                }
            }
            _ => {
                let guard = format!("g{}", self.loops);
                self.loops += 1;
                sc.mark(&guard, true);
                let cond = self.cond(sc);
                let blen = 1 + self.rng.below(2);
                sc.protected.push(guard.clone());
                let outer = std::mem::replace(&mut sc.in_for, false);
                let body = self.block(sc, nesting + 1, blen);
                sc.in_for = outer;
                sc.protected.pop();
                Stmt::While {
                    guard,
                    init: 3 + self.rng.below(5) as u32,
                    cond,
                    body,
                }
            }
        }
    }

    fn block(&mut self, sc: &mut Scope, nesting: u32, len: usize) -> Vec<Stmt> {
        (0..len).map(|_| self.stmt(sc, nesting)).collect()
    }
}

/// Generate one random program from `seed` with the default grammar.
/// Same seed, same program.
pub fn generate(seed: u64) -> Program {
    generate_with(seed, Grammar::Default)
}

/// Generate one random program from `seed` under `grammar`. Same seed
/// and grammar, same program; the default grammar produces exactly what
/// [`generate`] always has.
pub fn generate_with(seed: u64, grammar: Grammar) -> Program {
    let mut g = Gen {
        rng: Rng::new(seed),
        budget: 14,
        loops: 0,
        grammar,
    };
    // Decide the call-graph shape first: every function knows the
    // signatures of the strictly-later functions it may call.
    let nfuncs = 1 + g.rng.below(3);
    let arities: Vec<usize> = (0..nfuncs).map(|_| 1 + g.rng.below(2)).collect();

    let mut funcs = Vec::with_capacity(nfuncs);
    for i in 0..nfuncs {
        let params: Vec<String> = (0..arities[i]).map(|p| format!("p{p}")).collect();
        let callees: Vec<(String, usize)> = (i + 1..nfuncs)
            .map(|j| (format!("f{j}"), arities[j]))
            .collect();
        let mut sc = Scope {
            // Parameters may be matrices: available generally, not tame.
            scalars: Vec::new(),
            vars: params.clone(),
            callees,
            protected: Vec::new(),
            aliases: Vec::new(),
            in_for: false,
        };
        let len = if i == 0 {
            2 + g.rng.below(4)
        } else {
            1 + g.rng.below(3)
        };
        let mut body = g.block(&mut sc, 0, len);
        if grammar == Grammar::Aliasing && i > 0 && g.rng.coin() {
            // A callee that writes its formal before anything else: the
            // caller's actual must keep its pre-call value (call-by-value
            // under shared buffers). Always legal: a linear store into a
            // scalar or row grows it, a store into a matrix with
            // subscript ≤ its extent writes in place, and a linear-growth
            // error is itself a cross-mode test point.
            let sub = g.small_lit();
            let rhs = g.small_lit();
            body.insert(0, Stmt::IndexAssign(params[0].clone(), vec![sub], rhs));
        }
        // The return value is always defined, whatever the body did.
        body.push(Stmt::Assign("r".into(), g.expr(&sc, 3)));
        funcs.push(Func {
            name: format!("f{i}"),
            params,
            ret: "r".into(),
            body,
        });
    }

    // Aliasing mode leans on matrix arguments: sharing a scalar buffer
    // is legal but uninteresting.
    let arg_weights: [u32; 2] = match grammar {
        Grammar::Default => [3, 1],
        Grammar::Aliasing => [1, 3],
    };
    let args = (0..arities[0])
        .map(|_| {
            if g.rng.weighted(&arg_weights) == 0 {
                ArgVal::Scalar(*g.rng.choose(&ARG_POOL))
            } else {
                let rows = 1 + g.rng.below(3);
                let cols = 1 + g.rng.below(3);
                let data = (0..rows * cols).map(|_| *g.rng.choose(&ARG_POOL)).collect();
                ArgVal::Matrix { rows, cols, data }
            }
        })
        .collect();

    Program { funcs, args }
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Greedily shrink `p` while `pred` keeps returning `true` (i.e. the
/// failure still reproduces). At most `max_evals` predicate calls are
/// spent; the smallest accepted program is returned.
///
/// The candidate order prefers coarse cuts (drop whole functions, drop
/// statements, hoist loop/if bodies) before fine-grained expression
/// simplification, so the typical reproducer collapses in a handful of
/// rounds.
pub fn shrink(p: &Program, mut pred: impl FnMut(&Program) -> bool, max_evals: usize) -> Program {
    let mut best = p.clone();
    let mut evals = 0;
    loop {
        let mut improved = false;
        for cand in candidates(&best) {
            if evals >= max_evals {
                return best;
            }
            evals += 1;
            if pred(&cand) {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

fn candidates(p: &Program) -> Vec<Program> {
    let mut out = Vec::new();
    // 1. Drop whole non-entry functions.
    for i in 1..p.funcs.len() {
        let mut q = p.clone();
        q.funcs.remove(i);
        out.push(q);
    }
    // 2. Statement-level shrinks per function.
    for (fi, f) in p.funcs.iter().enumerate() {
        for body in block_variants(&f.body) {
            let mut q = p.clone();
            q.funcs[fi].body = body;
            out.push(q);
        }
    }
    // 3. Argument simplification (entry arity is preserved).
    for (ai, a) in p.args.iter().enumerate() {
        for repl in arg_variants(a) {
            let mut q = p.clone();
            q.args[ai] = repl;
            out.push(q);
        }
    }
    out
}

fn arg_variants(a: &ArgVal) -> Vec<ArgVal> {
    let mut out = Vec::new();
    match a {
        ArgVal::Scalar(v) => {
            for &cand in simpler_literals(Some(*v)) {
                out.push(ArgVal::Scalar(cand));
            }
        }
        ArgVal::Matrix { data, .. } => {
            out.push(ArgVal::Scalar(data.first().copied().unwrap_or(0.0)));
            out.push(ArgVal::Scalar(0.0));
        }
    }
    out
}

/// The literals a value (`None` for a compound expression) may shrink
/// to. Every step must move down the order "anything, then 1, then 0":
/// offering 1 for 0 as well as 0 for 1 would let the greedy shrinker
/// toggle one literal until its budget runs out.
fn simpler_literals(v: Option<f64>) -> &'static [f64] {
    match v.map(f64::to_bits) {
        Some(b) if b == 0f64.to_bits() => &[],
        Some(b) if b == 1f64.to_bits() => &[0.0],
        _ => &[0.0, 1.0],
    }
}

/// All one-step shrinks of a statement list: drop a statement, hoist a
/// nested block, shrink inside a statement.
fn block_variants(stmts: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    for i in 0..stmts.len() {
        // Drop statement i.
        let mut v = stmts.to_vec();
        v.remove(i);
        out.push(v);
        // Replace statement i with each of its one-step shrinks.
        for s in stmt_variants(&stmts[i]) {
            let mut v = stmts.to_vec();
            v[i] = s;
            out.push(v);
        }
        // Hoist nested bodies in place of the structured statement.
        for body in hoisted(&stmts[i]) {
            let mut v = stmts.to_vec();
            v.splice(i..=i, body);
            out.push(v);
        }
    }
    out
}

/// Bodies a structured statement can be replaced by.
fn hoisted(s: &Stmt) -> Vec<Vec<Stmt>> {
    match s {
        Stmt::If(_, then, els) => {
            let mut v = vec![then.clone()];
            if !els.is_empty() {
                v.push(els.clone());
            }
            v
        }
        Stmt::For { body, .. } | Stmt::While { body, .. } => vec![body.clone()],
        _ => Vec::new(),
    }
}

/// One-step shrinks *within* a statement (expressions and nested
/// blocks).
fn stmt_variants(s: &Stmt) -> Vec<Stmt> {
    let mut out = Vec::new();
    match s {
        Stmt::Assign(v, e) => {
            for e2 in expr_variants(e) {
                out.push(Stmt::Assign(v.clone(), e2));
            }
        }
        Stmt::IndexAssign(v, subs, e) => {
            for e2 in expr_variants(e) {
                out.push(Stmt::IndexAssign(v.clone(), subs.clone(), e2));
            }
            for (i, sub) in subs.iter().enumerate() {
                for s2 in expr_variants(sub) {
                    let mut subs2 = subs.clone();
                    subs2[i] = s2;
                    out.push(Stmt::IndexAssign(v.clone(), subs2, e.clone()));
                }
            }
            if subs.len() > 1 {
                out.push(Stmt::IndexAssign(
                    v.clone(),
                    vec![subs[0].clone()],
                    e.clone(),
                ));
            }
            // An indexed store often shrinks to a plain store.
            out.push(Stmt::Assign(v.clone(), e.clone()));
        }
        Stmt::If(c, then, els) => {
            for c2 in expr_variants(c) {
                out.push(Stmt::If(c2, then.clone(), els.clone()));
            }
            for t2 in block_variants(then) {
                out.push(Stmt::If(c.clone(), t2, els.clone()));
            }
            for e2 in block_variants(els) {
                out.push(Stmt::If(c.clone(), then.clone(), e2));
            }
        }
        Stmt::For {
            var,
            from,
            step,
            to,
            body,
        } => {
            for f2 in expr_variants(from) {
                out.push(Stmt::For {
                    var: var.clone(),
                    from: f2,
                    step: step.clone(),
                    to: to.clone(),
                    body: body.clone(),
                });
            }
            for t2 in expr_variants(to) {
                out.push(Stmt::For {
                    var: var.clone(),
                    from: from.clone(),
                    step: step.clone(),
                    to: t2,
                    body: body.clone(),
                });
            }
            if step.is_some() {
                out.push(Stmt::For {
                    var: var.clone(),
                    from: from.clone(),
                    step: None,
                    to: to.clone(),
                    body: body.clone(),
                });
            }
            for b2 in block_variants(body) {
                out.push(Stmt::For {
                    var: var.clone(),
                    from: from.clone(),
                    step: step.clone(),
                    to: to.clone(),
                    body: b2,
                });
            }
        }
        Stmt::While {
            guard,
            init,
            cond,
            body,
        } => {
            for c2 in expr_variants(cond) {
                out.push(Stmt::While {
                    guard: guard.clone(),
                    init: *init,
                    cond: c2,
                    body: body.clone(),
                });
            }
            for b2 in block_variants(body) {
                out.push(Stmt::While {
                    guard: guard.clone(),
                    init: *init,
                    cond: cond.clone(),
                    body: b2,
                });
            }
            if *init > 1 {
                out.push(Stmt::While {
                    guard: guard.clone(),
                    init: 1,
                    cond: cond.clone(),
                    body: body.clone(),
                });
            }
        }
        Stmt::Jump(_) => {}
    }
    out
}

/// One-step shrinks of an expression: constants, direct subexpressions,
/// and recursive shrinks of each child.
fn expr_variants(e: &Expr) -> Vec<Expr> {
    let lit = match e {
        Expr::Num(v) => Some(*v),
        _ => None,
    };
    let mut out: Vec<Expr> = simpler_literals(lit)
        .iter()
        .map(|&c| Expr::Num(c))
        .collect();
    match e {
        Expr::Num(_) | Expr::Var(_) => {}
        Expr::Bin(op, a, b) => {
            out.push((**a).clone());
            out.push((**b).clone());
            for a2 in expr_variants(a) {
                out.push(Expr::Bin(op, Box::new(a2), b.clone()));
            }
            for b2 in expr_variants(b) {
                out.push(Expr::Bin(op, a.clone(), Box::new(b2)));
            }
        }
        Expr::Neg(a) => {
            out.push((**a).clone());
            for a2 in expr_variants(a) {
                out.push(Expr::Neg(Box::new(a2)));
            }
        }
        Expr::Call(name, args) | Expr::Index(name, args) => {
            let rebuild = |args2: Vec<Expr>| match e {
                Expr::Call(..) => Expr::Call(name.clone(), args2),
                _ => Expr::Index(name.clone(), args2),
            };
            for a in args {
                out.push(a.clone());
            }
            for (i, a) in args.iter().enumerate() {
                for a2 in expr_variants(a) {
                    let mut args2 = args.clone();
                    args2[i] = a2;
                    out.push(rebuild(args2));
                }
            }
        }
        Expr::Range(a, s, b) => {
            out.push((**a).clone());
            out.push((**b).clone());
            if s.is_some() {
                out.push(Expr::Range(a.clone(), None, b.clone()));
            }
            for a2 in expr_variants(a) {
                out.push(Expr::Range(Box::new(a2), s.clone(), b.clone()));
            }
            for b2 in expr_variants(b) {
                out.push(Expr::Range(a.clone(), s.clone(), Box::new(b2)));
            }
        }
        Expr::MatLit(rows) => {
            if let Some(first) = rows.first().and_then(|r| r.first()) {
                out.push(first.clone());
            }
            for (i, row) in rows.iter().enumerate() {
                for (j, el) in row.iter().enumerate() {
                    for e2 in expr_variants(el) {
                        let mut rows2 = rows.clone();
                        rows2[i][j] = e2;
                        out.push(Expr::MatLit(rows2));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Programs compared by their `Debug` text: a NaN argument is unequal
    /// to itself under `==`.
    fn text(p: &Program) -> String {
        format!("{p:?}")
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42);
        let b = generate(42);
        assert_eq!(text(&a), text(&b));
        assert_eq!(a.render_corpus(), b.render_corpus());
        // Different seeds almost surely differ.
        assert_ne!(generate(1).render_corpus(), generate(2).render_corpus());
    }

    #[test]
    fn every_generated_source_ends_with_return_assignment() {
        for seed in 0..200 {
            let p = generate(seed);
            for f in &p.funcs {
                assert!(
                    matches!(f.body.last(), Some(Stmt::Assign(v, _)) if v == "r"),
                    "seed {seed}: function {} does not end with r = …",
                    f.name
                );
            }
            assert!(!p.args.is_empty());
        }
    }

    #[test]
    fn aliasing_grammar_is_deterministic_and_leaves_default_alone() {
        assert_eq!(
            text(&generate_with(42, Grammar::Aliasing)),
            text(&generate_with(42, Grammar::Aliasing))
        );
        // `generate` is the default grammar, unchanged by the new mode.
        assert_eq!(
            text(&generate(42)),
            text(&generate_with(42, Grammar::Default))
        );
    }

    #[test]
    fn aliasing_grammar_emits_the_cow_stress_patterns() {
        fn walk(stmts: &[Stmt], f: &mut impl FnMut(&Stmt)) {
            for s in stmts {
                f(s);
                match s {
                    Stmt::If(_, a, b) => {
                        walk(a, f);
                        walk(b, f);
                    }
                    Stmt::For { body, .. } | Stmt::While { body, .. } => walk(body, f),
                    _ => {}
                }
            }
        }
        let (mut binds, mut self_refs, mut growths, mut dup_calls) = (0u32, 0u32, 0u32, 0u32);
        for seed in 0..300 {
            let p = generate_with(seed, Grammar::Aliasing);
            for func in &p.funcs {
                // The termination invariant must survive the new mode.
                assert!(
                    matches!(func.body.last(), Some(Stmt::Assign(v, _)) if v == "r"),
                    "seed {seed}: {} does not end with r = …",
                    func.name
                );
                walk(&func.body, &mut |s| match s {
                    Stmt::Assign(name, Expr::Var(_)) if name.starts_with('a') => binds += 1,
                    Stmt::Assign(_, Expr::Call(_, args))
                        if args.len() > 1 && args.windows(2).all(|w| w[0] == w[1]) =>
                    {
                        dup_calls += 1;
                    }
                    Stmt::IndexAssign(name, _, Expr::Index(rhs, _)) if name == rhs => {
                        self_refs += 1;
                    }
                    Stmt::IndexAssign(_, subs, _) if matches!(subs.as_slice(), [Expr::Num(v)] if *v >= 7.0) =>
                    {
                        growths += 1;
                    }
                    _ => {}
                });
            }
        }
        assert!(binds > 50, "alias binds are rare: {binds}");
        assert!(
            self_refs > 20,
            "self-referential updates are rare: {self_refs}"
        );
        assert!(growths > 20, "growth-through-store is rare: {growths}");
        assert!(
            dup_calls > 5,
            "duplicated-actual calls are rare: {dup_calls}"
        );
    }

    #[test]
    fn default_grammar_emits_jumps_where_termination_allows() {
        /// Count the jumps in `stmts`, checking where each one sits.
        fn walk(stmts: &[Stmt], in_for: bool, in_arm: bool, seen: &mut Vec<&'static str>) {
            for s in stmts {
                match s {
                    Stmt::Jump(k) => {
                        assert!(in_arm, "{k} outside an if arm");
                        assert!(*k == "return" || in_for, "{k} outside a for body");
                        seen.push(k);
                    }
                    Stmt::If(_, a, b) => {
                        walk(a, in_for, true, seen);
                        walk(b, in_for, true, seen);
                    }
                    Stmt::For { body, .. } => walk(body, true, false, seen),
                    Stmt::While { body, .. } => walk(body, false, false, seen),
                    _ => {}
                }
            }
        }
        // About 1.8 % of programs hold a `break`, and as many a
        // `continue`. The sample must keep the counts clear of the floor
        // whichever way a grammar change reshuffles the RNG stream:
        // 3,000 seeds expect about 55 of each.
        let mut seen = Vec::new();
        for seed in 0..3000 {
            for f in &generate(seed).funcs {
                walk(&f.body, false, false, &mut seen);
            }
        }
        for k in ["break", "continue", "return"] {
            let n = seen.iter().filter(|&&s| s == k).count();
            assert!(n > 30, "{k} is rare: {n}");
        }
    }

    #[test]
    fn corpus_round_trips() {
        for seed in 0..50 {
            let p = generate(seed);
            let text = p.render_corpus();
            let h = parse_corpus(&text).unwrap();
            assert_eq!(h.entry, p.entry());
            assert_eq!(h.args.len(), p.args.len());
            for (a, b) in h.args.iter().zip(&p.args) {
                match (a, b) {
                    (ArgVal::Scalar(x), ArgVal::Scalar(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                    (
                        ArgVal::Matrix { rows, cols, data },
                        ArgVal::Matrix {
                            rows: r2,
                            cols: c2,
                            data: d2,
                        },
                    ) => {
                        assert_eq!((rows, cols), (r2, c2));
                        assert_eq!(data.len(), d2.len());
                        for (x, y) in data.iter().zip(d2) {
                            assert_eq!(x.to_bits(), y.to_bits());
                        }
                    }
                    other => panic!("arg kind changed in round trip: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn shrinker_minimizes_against_a_syntactic_predicate() {
        // Find a generated program whose source contains `.^`, then
        // shrink while preserving that property: the result should be
        // drastically smaller but still contain the operator.
        let (_, p) = (0..500u64)
            .map(|s| (s, generate(s)))
            .find(|(_, p)| p.source().contains(".^"))
            .expect("some seed generates .^");
        let small = shrink(&p, |q| q.source().contains(".^"), 20_000);
        assert!(small.source().contains(".^"));
        assert!(
            small.source().len() <= p.source().len(),
            "shrinking must never grow the program"
        );
        // The shrunk program is tiny: every droppable statement and
        // function is gone (the entry function always survives, plus
        // at most the one statement carrying the `.^`).
        assert!(small.funcs.len() <= 2, "{}", small.source());
        let stmts: usize = small.funcs.iter().map(|f| f.body.len()).sum();
        assert!(stmts <= 2, "{} statements left:\n{}", stmts, small.source());
    }

    #[test]
    fn shrinking_stops_at_the_smallest_literals() {
        // `0.0 .^ 2.0` keeps its `.^` when the 0 becomes a 1 and when
        // the 1 becomes a 0 again: a shrinker offering both toggles
        // until its budget runs out.
        let pow = |a: f64, b: f64| Expr::Bin(".^", Box::new(Expr::Num(a)), Box::new(Expr::Num(b)));
        let p = Program {
            funcs: vec![Func {
                name: "f0".into(),
                params: vec!["p0".into()],
                ret: "r".into(),
                body: vec![Stmt::Assign("r".into(), pow(0.0, 2.0))],
            }],
            args: vec![ArgVal::Scalar(0.0)],
        };
        let mut evals = 0;
        let small = shrink(
            &p,
            |q| {
                evals += 1;
                q.source().contains(".^")
            },
            1_000,
        );
        assert!(evals < 1_000, "no fixpoint within the budget");
        assert_eq!(
            small.funcs[0].body,
            vec![Stmt::Assign("r".into(), pow(0.0, 0.0))]
        );
    }

    #[test]
    fn shrinker_respects_eval_budget() {
        let p = generate(7);
        let mut evals = 0;
        let _ = shrink(
            &p,
            |_| {
                evals += 1;
                false
            },
            10,
        );
        assert!(evals <= 10);
    }
}
