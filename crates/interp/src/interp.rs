//! The tree-walking interpreter.

use majic_ast::{
    parse_source, parse_statements, BinOp, Expr, ExprKind, Function, LValue, Stmt, StmtKind, UnOp,
};
use majic_runtime::builtins::{Builtin, CallCtx};
use majic_runtime::ops::{self, Cmp, Subscript};
use majic_runtime::{Complex, RuntimeError, RuntimeResult, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Control-flow outcome of executing a statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// Fall through to the next statement.
    Normal,
    /// `break` out of the innermost loop.
    Break,
    /// `continue` the innermost loop.
    Continue,
    /// `return` from the current function.
    Return,
}

/// One call frame: the dynamic symbol table of a function activation.
#[derive(Debug, Default)]
struct Frame {
    vars: HashMap<String, Value>,
    global_decls: HashSet<String>,
}

/// The interpreter session: user functions, global workspace, and the
/// base (command-window) frame.
#[derive(Debug)]
pub struct Interp {
    functions: HashMap<String, Arc<Function>>,
    globals: HashMap<String, Value>,
    /// Builtin-call context (random generator, captured output).
    pub ctx: CallCtx,
    base: Frame,
    /// Recursion guard.
    depth: usize,
}

impl Default for Interp {
    fn default() -> Self {
        Interp::new()
    }
}

impl Interp {
    /// A fresh session with an empty workspace.
    pub fn new() -> Interp {
        Interp {
            functions: HashMap::new(),
            globals: HashMap::new(),
            ctx: CallCtx::new(),
            base: Frame::default(),
            depth: 0,
        }
    }

    /// Parse a source file and register its functions; script statements
    /// (if any) execute immediately in the base workspace.
    ///
    /// # Errors
    ///
    /// Returns parse errors as [`RuntimeError::Raised`] and propagates
    /// execution errors from the script part.
    pub fn load_source(&mut self, src: &str) -> RuntimeResult<()> {
        let file =
            parse_source(src).map_err(|e| RuntimeError::Raised(format!("parse error: {e}")))?;
        for f in file.functions {
            self.functions.insert(f.name.clone(), Arc::new(f));
        }
        if !file.script.is_empty() {
            let mut base = std::mem::take(&mut self.base);
            let r = self.exec_block(&file.script, &mut base);
            self.base = base;
            r?;
        }
        Ok(())
    }

    /// Register a single already-parsed function.
    pub fn define_function(&mut self, f: Function) {
        self.functions.insert(f.name.clone(), Arc::new(f));
    }

    /// Look up a registered function.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.get(name).map(Arc::as_ref)
    }

    /// Evaluate command-window input in the base workspace.
    ///
    /// # Errors
    ///
    /// Returns parse or execution errors.
    pub fn eval(&mut self, src: &str) -> RuntimeResult<()> {
        let (stmts, _) =
            parse_statements(src).map_err(|e| RuntimeError::Raised(format!("parse error: {e}")))?;
        let mut base = std::mem::take(&mut self.base);
        let r = self.exec_block(&stmts, &mut base);
        self.base = base;
        r.map(|_| ())
    }

    /// Execute already-parsed statements in the base workspace.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn exec_statements(&mut self, stmts: &[Stmt]) -> RuntimeResult<()> {
        let mut base = std::mem::take(&mut self.base);
        let r = self.exec_block(stmts, &mut base);
        self.base = base;
        r.map(|_| ())
    }

    /// Evaluate a single expression in the base workspace.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn eval_value(&mut self, e: &Expr) -> RuntimeResult<Value> {
        let mut base = std::mem::take(&mut self.base);
        let r = self.eval_expr(e, &mut base);
        self.base = base;
        r
    }

    /// A variable from the base workspace.
    pub fn var(&self, name: &str) -> Option<&Value> {
        self.base.vars.get(name).or_else(|| self.globals.get(name))
    }

    /// Set a variable in the base workspace.
    pub fn set_var(&mut self, name: &str, value: Value) {
        self.base.vars.insert(name.to_owned(), value);
    }

    /// Call a user function by name with the given arguments, returning
    /// `nargout` outputs (missing outputs error, as in MATLAB).
    ///
    /// # Errors
    ///
    /// Propagates any runtime error from the callee.
    pub fn call_function(
        &mut self,
        name: &str,
        args: &[Value],
        nargout: usize,
    ) -> RuntimeResult<Vec<Value>> {
        let _sp = majic_trace::Span::enter_with("interp.call", || vec![("fn", name.to_owned())]);
        let f = self
            .functions
            .get(name)
            .cloned()
            .ok_or_else(|| RuntimeError::Undefined(name.to_owned()))?;
        self.invoke(&f, args, nargout)
    }

    fn invoke(
        &mut self,
        f: &Function,
        args: &[Value],
        nargout: usize,
    ) -> RuntimeResult<Vec<Value>> {
        if args.len() > f.params.len() {
            return Err(RuntimeError::BadArity {
                name: f.name.clone(),
                detail: format!("{} inputs, function takes {}", args.len(), f.params.len()),
            });
        }
        self.depth += 1;
        if self.depth > 10_000 {
            self.depth -= 1;
            return Err(RuntimeError::Raised("recursion limit exceeded".to_owned()));
        }
        let mut frame = Frame::default();
        for (p, a) in f.params.iter().zip(args) {
            // Call-by-value: the clone is cheap (copy-on-write buffers).
            frame.vars.insert(p.clone(), a.clone());
        }
        let result = self.exec_block(&f.body, &mut frame);
        self.depth -= 1;
        result?;
        let mut outs = Vec::with_capacity(nargout);
        for (k, o) in f.outputs.iter().enumerate() {
            if k >= nargout.max(1) {
                break;
            }
            match frame.vars.get(o) {
                Some(v) => outs.push(v.clone()),
                None => {
                    if k < nargout {
                        return Err(RuntimeError::Raised(format!(
                            "output argument '{o}' of '{}' not assigned",
                            f.name
                        )));
                    }
                }
            }
        }
        if outs.len() < nargout {
            return Err(RuntimeError::BadArity {
                name: f.name.clone(),
                detail: format!("{nargout} outputs requested"),
            });
        }
        Ok(outs)
    }

    fn exec_block(&mut self, stmts: &[Stmt], frame: &mut Frame) -> RuntimeResult<Flow> {
        for s in stmts {
            match self.exec_stmt(s, frame)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn display_assignment(&mut self, name: &str, frame: &Frame) {
        if let Some(v) = frame.vars.get(name) {
            self.ctx.printed.push_str(&format!("{name} = {v}\n"));
        }
    }

    fn exec_stmt(&mut self, s: &Stmt, frame: &mut Frame) -> RuntimeResult<Flow> {
        match &s.kind {
            StmtKind::Expr { expr, suppressed } => {
                // A bare call with zero outputs (e.g. `disp(x)`) must not
                // set `ans`.
                let produced = self.eval_maybe_void(expr, frame)?;
                if let Some(v) = produced {
                    frame.vars.insert("ans".to_owned(), v);
                    if !*suppressed {
                        self.display_assignment("ans", frame);
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Assign {
                lhs,
                rhs,
                suppressed,
            } => {
                let v = self.eval_expr(rhs, frame)?;
                self.assign(lhs, v, frame)?;
                if !*suppressed {
                    self.display_assignment(lhs.name(), frame);
                }
                Ok(Flow::Normal)
            }
            StmtKind::MultiAssign {
                lhs,
                callee,
                args,
                suppressed,
                ..
            } => {
                let argv = self.eval_args(args, frame, None)?;
                let argv = self.subscripts_to_values(argv)?;
                let outs = self.dispatch_call(callee, &argv, lhs.len(), frame)?;
                if outs.len() < lhs.len() {
                    return Err(RuntimeError::BadArity {
                        name: callee.clone(),
                        detail: format!("{} outputs requested", lhs.len()),
                    });
                }
                for (lv, v) in lhs.iter().zip(outs) {
                    self.assign(lv, v, frame)?;
                    if !*suppressed {
                        self.display_assignment(lv.name(), frame);
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::If {
                branches,
                else_body,
            } => {
                for (cond, body) in branches {
                    if self.eval_expr(cond, frame)?.is_true() {
                        return self.exec_block(body, frame);
                    }
                }
                if let Some(body) = else_body {
                    return self.exec_block(body, frame);
                }
                Ok(Flow::Normal)
            }
            StmtKind::While { cond, body } => {
                while self.eval_expr(cond, frame)?.is_true() {
                    match self.exec_block(body, frame)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For {
                var, iter, body, ..
            } => {
                let space = self.eval_expr(iter, frame)?;
                // MATLAB iterates over the columns of the iteration space.
                let (rows, cols) = space.dims();
                for c in 0..cols {
                    let item = if rows == 1 {
                        ops::index_get(&space, &[Subscript::Index(Value::scalar((c + 1) as f64))])?
                    } else {
                        ops::index_get(
                            &space,
                            &[
                                Subscript::Colon,
                                Subscript::Index(Value::scalar((c + 1) as f64)),
                            ],
                        )?
                    };
                    frame.vars.insert(var.clone(), item);
                    match self.exec_block(body, frame)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Return => Ok(Flow::Return),
            StmtKind::Global(names) => {
                for n in names {
                    frame.global_decls.insert(n.clone());
                    self.globals.entry(n.clone()).or_insert_with(Value::empty);
                }
                Ok(Flow::Normal)
            }
            StmtKind::Clear(names) => {
                if names.is_empty() {
                    frame.vars.clear();
                } else {
                    for n in names {
                        frame.vars.remove(n);
                        frame.global_decls.remove(n);
                    }
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn assign(&mut self, lhs: &LValue, v: Value, frame: &mut Frame) -> RuntimeResult<()> {
        match lhs {
            LValue::Var { name, .. } => {
                if frame.global_decls.contains(name) {
                    self.globals.insert(name.clone(), v);
                } else {
                    frame.vars.insert(name.clone(), v);
                }
                Ok(())
            }
            LValue::Index { name, args, .. } => {
                let is_global = frame.global_decls.contains(name);
                // Evaluate subscripts against a cheap handle first (for
                // `end` and self-referential subscripts)…
                let handle = if is_global {
                    self.globals.get(name).cloned()
                } else {
                    frame.vars.get(name).cloned()
                }
                .unwrap_or_else(Value::empty);
                let subs = self.eval_index_args(args, &handle, frame)?;
                drop(handle);
                // …then take the array out of the workspace so the store
                // mutates the buffer in place; leaving a live clone would
                // copy-on-write the whole array on every element store
                // (real MATLAB updates in place too).
                let mut base = if is_global {
                    self.globals.remove(name)
                } else {
                    frame.vars.remove(name)
                }
                .unwrap_or_else(Value::empty);
                // The stock interpreter resizes without oversizing — the
                // headroom trick is a MaJIC codegen optimization.
                ops::index_set(&mut base, &subs, &v, false)?;
                if is_global {
                    self.globals.insert(name.clone(), base);
                } else {
                    frame.vars.insert(name.clone(), base);
                }
                Ok(())
            }
        }
    }

    /// Evaluate call/index arguments. `end_base` supplies the value being
    /// indexed when the args are subscripts (enables `end` and `:`).
    fn eval_args(
        &mut self,
        args: &[Expr],
        frame: &mut Frame,
        end_base: Option<&Value>,
    ) -> RuntimeResult<Vec<Subscript>> {
        let n = args.len();
        let mut out = Vec::with_capacity(n);
        for (k, a) in args.iter().enumerate() {
            match &a.kind {
                ExprKind::Colon => out.push(Subscript::Colon),
                _ => {
                    let end_val = end_base.map(|b| end_extent(b, k, n));
                    let v = self.eval_with_end(a, frame, end_val)?;
                    out.push(Subscript::Index(v));
                }
            }
        }
        Ok(out)
    }

    fn eval_index_args(
        &mut self,
        args: &[Expr],
        base: &Value,
        frame: &mut Frame,
    ) -> RuntimeResult<Vec<Subscript>> {
        self.eval_args(args, frame, Some(base))
    }

    fn subscripts_to_values(&self, subs: Vec<Subscript>) -> RuntimeResult<Vec<Value>> {
        subs.into_iter()
            .map(|s| match s {
                Subscript::Index(v) => Ok(v),
                Subscript::Colon => Err(RuntimeError::Raised(
                    "':' is only valid as a subscript".to_owned(),
                )),
            })
            .collect()
    }

    /// Evaluate an expression that may legally produce no value (a call
    /// to a zero-output function in statement position).
    fn eval_maybe_void(&mut self, e: &Expr, frame: &mut Frame) -> RuntimeResult<Option<Value>> {
        if let ExprKind::Apply { callee, args } = &e.kind {
            if !frame.vars.contains_key(callee) && !frame.global_decls.contains(callee) {
                let argv = self.eval_args(args, frame, None)?;
                let argv = self.subscripts_to_values(argv)?;
                let mut outs = self.dispatch_call(callee, &argv, 0, frame)?;
                return Ok(if outs.is_empty() {
                    None
                } else {
                    Some(outs.remove(0))
                });
            }
        }
        self.eval_expr(e, frame).map(Some)
    }

    /// Evaluate an expression.
    fn eval_expr(&mut self, e: &Expr, frame: &mut Frame) -> RuntimeResult<Value> {
        self.eval_with_end(e, frame, None)
    }

    fn eval_with_end(
        &mut self,
        e: &Expr,
        frame: &mut Frame,
        end_val: Option<f64>,
    ) -> RuntimeResult<Value> {
        match &e.kind {
            ExprKind::Number { value, imaginary } => Ok(if *imaginary {
                Value::complex_scalar(Complex::new(0.0, *value))
            } else {
                Value::scalar(*value)
            }),
            ExprKind::Str(s) => Ok(Value::Str(s.clone())),
            ExprKind::Ident(name) => self.resolve_ident(name, frame),
            ExprKind::End => end_val.map(Value::scalar).ok_or_else(|| {
                RuntimeError::Raised("'end' is only valid inside a subscript".to_owned())
            }),
            ExprKind::Colon => Err(RuntimeError::Raised(
                "':' is only valid as a subscript".to_owned(),
            )),
            ExprKind::Apply { callee, args } => {
                // Dynamic disambiguation, exactly like the MATLAB
                // interpreter: variable first, then builtin, then user
                // function.
                let base = if frame.global_decls.contains(callee) {
                    self.globals.get(callee).cloned()
                } else {
                    frame.vars.get(callee).cloned()
                };
                if let Some(base) = base {
                    let subs = self.eval_index_args(args, &base, frame)?;
                    return ops::index_get(&base, &subs);
                }
                let argv = self.eval_args(args, frame, None)?;
                let argv = self.subscripts_to_values(argv)?;
                let mut outs = self.dispatch_call(callee, &argv, 1, frame)?;
                if outs.is_empty() {
                    return Err(RuntimeError::Raised(format!(
                        "function '{callee}' returned no value"
                    )));
                }
                Ok(outs.remove(0))
            }
            ExprKind::Range { start, step, stop } => {
                let sv = self.eval_with_end(start, frame, end_val)?;
                let ev = self.eval_with_end(stop, frame, end_val)?;
                let stepv = match step {
                    Some(s) => Some(self.eval_with_end(s, frame, end_val)?),
                    None => None,
                };
                ops::range(&sv, stepv.as_ref(), &ev)
            }
            ExprKind::Unary { op, operand } => {
                let v = self.eval_with_end(operand, frame, end_val)?;
                match op {
                    UnOp::Neg => ops::neg(&v),
                    UnOp::Plus => Ok(v),
                    UnOp::Not => ops::not(&v),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                // Short-circuit forms evaluate lazily.
                if matches!(op, BinOp::ShortAnd | BinOp::ShortOr) {
                    let l = self.eval_with_end(lhs, frame, end_val)?;
                    let lt = l.is_true();
                    return match op {
                        BinOp::ShortAnd if !lt => Ok(Value::bool_scalar(false)),
                        BinOp::ShortOr if lt => Ok(Value::bool_scalar(true)),
                        _ => {
                            let r = self.eval_with_end(rhs, frame, end_val)?;
                            Ok(Value::bool_scalar(r.is_true()))
                        }
                    };
                }
                let l = self.eval_with_end(lhs, frame, end_val)?;
                let r = self.eval_with_end(rhs, frame, end_val)?;
                apply_binop(*op, &l, &r)
            }
            ExprKind::Matrix(rows) => {
                let mut vals = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut rvals = Vec::with_capacity(row.len());
                    for el in row {
                        rvals.push(self.eval_with_end(el, frame, end_val)?);
                    }
                    vals.push(rvals);
                }
                ops::build_matrix(&vals)
            }
            ExprKind::Transpose { operand, conjugate } => {
                let v = self.eval_with_end(operand, frame, end_val)?;
                ops::transpose(&v, *conjugate)
            }
        }
    }

    fn resolve_ident(&mut self, name: &str, frame: &mut Frame) -> RuntimeResult<Value> {
        if frame.global_decls.contains(name) {
            if let Some(v) = self.globals.get(name) {
                return Ok(v.clone());
            }
        }
        if let Some(v) = frame.vars.get(name) {
            return Ok(v.clone());
        }
        if let Some(b) = Builtin::lookup(name) {
            let mut outs = b.call(&mut self.ctx, &[], 1)?;
            if outs.is_empty() {
                return Err(RuntimeError::Undefined(name.to_owned()));
            }
            return Ok(outs.remove(0));
        }
        if let Some(f) = self.functions.get(name).cloned() {
            let mut outs = self.invoke(&f, &[], 1)?;
            if outs.is_empty() {
                return Err(RuntimeError::Undefined(name.to_owned()));
            }
            return Ok(outs.remove(0));
        }
        Err(RuntimeError::Undefined(name.to_owned()))
    }

    fn dispatch_call(
        &mut self,
        callee: &str,
        args: &[Value],
        nargout: usize,
        _frame: &mut Frame,
    ) -> RuntimeResult<Vec<Value>> {
        if let Some(b) = Builtin::lookup(callee) {
            return b.call(&mut self.ctx, args, nargout);
        }
        if let Some(f) = self.functions.get(callee).cloned() {
            return self.invoke(&f, args, nargout);
        }
        Err(RuntimeError::Undefined(callee.to_owned()))
    }
}

/// Extent seen by `end` for subscript `k` of `n` on `base`.
fn end_extent(base: &Value, k: usize, n: usize) -> f64 {
    let (r, c) = base.dims();
    if n == 1 {
        (r * c) as f64
    } else if k == 0 {
        r as f64
    } else {
        c as f64
    }
}

fn apply_binop(op: BinOp, l: &Value, r: &Value) -> RuntimeResult<Value> {
    match op {
        BinOp::Add => ops::add(l, r),
        BinOp::Sub => ops::sub(l, r),
        BinOp::Mul => ops::mul(l, r),
        BinOp::Div => ops::div(l, r),
        BinOp::LeftDiv => ops::left_div(l, r),
        BinOp::Pow => ops::pow(l, r),
        BinOp::ElemMul => ops::elem_mul(l, r),
        BinOp::ElemDiv => ops::elem_div(l, r),
        BinOp::ElemLeftDiv => ops::elem_left_div(l, r),
        BinOp::ElemPow => ops::elem_pow(l, r),
        BinOp::Lt => ops::compare(Cmp::Lt, l, r),
        BinOp::Le => ops::compare(Cmp::Le, l, r),
        BinOp::Gt => ops::compare(Cmp::Gt, l, r),
        BinOp::Ge => ops::compare(Cmp::Ge, l, r),
        BinOp::Eq => ops::compare(Cmp::Eq, l, r),
        BinOp::Ne => ops::compare(Cmp::Ne, l, r),
        BinOp::And => ops::logical(l, r, false),
        BinOp::Or => ops::logical(l, r, true),
        BinOp::ShortAnd | BinOp::ShortOr => unreachable!("handled lazily"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Interp {
        let mut i = Interp::new();
        i.eval(src).unwrap();
        i
    }

    fn scalar(i: &Interp, name: &str) -> f64 {
        i.var(name).unwrap().to_scalar().unwrap()
    }

    #[test]
    fn arithmetic_and_variables() {
        let i = run("x = 2 + 3 * 4;\ny = x ^ 2;");
        assert_eq!(scalar(&i, "x"), 14.0);
        assert_eq!(scalar(&i, "y"), 196.0);
    }

    #[test]
    fn control_flow() {
        let i = run("s = 0;\nfor k = 1:10\n if mod(k, 2) == 0\n  s = s + k;\n end\nend");
        assert_eq!(scalar(&i, "s"), 30.0);
        let i = run("n = 0;\nwhile n < 5\n n = n + 1;\nend");
        assert_eq!(scalar(&i, "n"), 5.0);
    }

    #[test]
    fn break_and_continue() {
        let i = run("s = 0;\nfor k = 1:10\n if k == 3\n  continue\n end\n if k > 5\n  break\n end\n s = s + k;\nend");
        assert_eq!(scalar(&i, "s"), 1.0 + 2.0 + 4.0 + 5.0);
    }

    #[test]
    fn matrices_and_indexing() {
        let i = run("A = [1 2; 3 4];\nb = A(2, 1);\nA(1, 2) = 9;\nc = A(1, 2);\nd = A(end, end);");
        assert_eq!(scalar(&i, "b"), 3.0);
        assert_eq!(scalar(&i, "c"), 9.0);
        assert_eq!(scalar(&i, "d"), 4.0);
    }

    #[test]
    fn array_growth_on_assignment() {
        let i = run("v = [1 2];\nv(5) = 7;\nn = length(v);");
        assert_eq!(scalar(&i, "n"), 5.0);
        let i = run("clear\nB(3, 3) = 1;\n[r, c] = size(B);");
        assert_eq!(scalar(&i, "r"), 3.0);
        assert_eq!(scalar(&i, "c"), 3.0);
    }

    #[test]
    fn colon_and_ranges() {
        let i = run("v = 1:5;\ns = sum(v);\nw = v(2:4);\nt = sum(w);\nu = v(:);");
        assert_eq!(scalar(&i, "s"), 15.0);
        assert_eq!(scalar(&i, "t"), 9.0);
        assert_eq!(i.var("u").unwrap().dims(), (5, 1));
    }

    #[test]
    fn function_calls() {
        let mut i = Interp::new();
        i.load_source("function y = sq(x)\ny = x * x;\n").unwrap();
        i.eval("a = sq(6);").unwrap();
        assert_eq!(scalar(&i, "a"), 36.0);
    }

    #[test]
    fn recursion() {
        let mut i = Interp::new();
        i.load_source(
            "function f = fib(n)\nif n < 2\n f = n;\n return\nend\nf = fib(n-1) + fib(n-2);\n",
        )
        .unwrap();
        i.eval("a = fib(10);").unwrap();
        assert_eq!(scalar(&i, "a"), 55.0);
    }

    #[test]
    fn multiple_outputs() {
        let mut i = Interp::new();
        i.load_source("function [s, p] = sp(a, b)\ns = a + b;\np = a * b;\n")
            .unwrap();
        i.eval("[x, y] = sp(3, 4);").unwrap();
        assert_eq!(scalar(&i, "x"), 7.0);
        assert_eq!(scalar(&i, "y"), 12.0);
    }

    #[test]
    fn call_by_value_semantics() {
        let mut i = Interp::new();
        i.load_source("function y = clobber(v)\nv(1) = 999;\ny = v(1);\n")
            .unwrap();
        i.eval("a = [1 2 3];\nb = clobber(a);\nfirst = a(1);")
            .unwrap();
        assert_eq!(scalar(&i, "first"), 1.0, "caller's array must not change");
        assert_eq!(scalar(&i, "b"), 999.0);
    }

    #[test]
    fn dynamic_disambiguation_of_i() {
        // Paper Figure 2 (left): `i` is √−1 on the first iteration, a
        // variable thereafter.
        let i = run("n = 0;\nwhile n < 3\n z = i;\n i = z + 1;\n n = n + 1;\nend");
        // Iter 1: z = i (builtin) = 1i, i = 1i + 1.
        // Iter 2: z = 1 + 1i, i = 2 + 1i. Iter 3: i = 3 + 1i.
        let z = i.var("i").unwrap();
        match z {
            Value::Complex(m) => {
                let v = m.first();
                assert_eq!(v.re, 3.0);
                assert_eq!(v.im, 1.0);
            }
            other => panic!("expected complex, got {other:?}"),
        }
    }

    #[test]
    fn complex_literals_and_arithmetic() {
        let i = run("z = 3 + 4i;\nm = abs(z);\nr = real(z);");
        assert_eq!(scalar(&i, "m"), 5.0);
        assert_eq!(scalar(&i, "r"), 3.0);
    }

    #[test]
    fn globals() {
        let mut i = Interp::new();
        i.load_source("function bump()\nglobal counter\ncounter = counter + 1;\n")
            .unwrap();
        i.eval("global counter\ncounter = 0;\nbump();\nbump();\nx = counter;")
            .unwrap();
        assert_eq!(scalar(&i, "x"), 2.0);
    }

    #[test]
    fn strings_and_disp() {
        let mut i = Interp::new();
        i.eval("s = 'hello';\ndisp(s);").unwrap();
        assert_eq!(i.ctx.printed, "hello\n");
    }

    #[test]
    fn errors_propagate() {
        let mut i = Interp::new();
        assert!(i.eval("x = undefined_thing + 1;").is_err());
        assert!(i.eval("v = [1 2]; y = v(10);").is_err());
        assert!(i.eval("A = [1 2; 3 4]; A(7) = 1;").is_err());
    }

    #[test]
    fn ans_is_set_by_expression_statements() {
        let i = run("3 + 4;");
        assert_eq!(scalar(&i, "ans"), 7.0);
    }

    #[test]
    fn for_iterates_matrix_columns() {
        let i = run("A = [1 2 3; 4 5 6];\ns = 0;\nfor col = A\n s = s + col(1);\nend");
        assert_eq!(scalar(&i, "s"), 6.0);
    }

    #[test]
    fn unsuppressed_output_is_displayed() {
        let mut i = Interp::new();
        i.eval("x = 42").unwrap();
        assert!(i.ctx.printed.contains("x = 42"));
    }

    #[test]
    fn clear_statement() {
        let mut i = Interp::new();
        i.eval("x = 1; clear x").unwrap();
        assert!(i.var("x").is_none());
        assert!(i.eval("y = x;").is_err());
    }

    #[test]
    fn short_circuit_operators() {
        // `y` is undefined; && must not evaluate the right side.
        let i = run("x = 0;\nif x > 0 && undefined_fn(x)\n r = 1;\nelse\n r = 2;\nend");
        assert_eq!(scalar(&i, "r"), 2.0);
    }
}
