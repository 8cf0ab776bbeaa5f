//! The function inliner (paper §2.6.1, last rule).
//!
//! "MaJIC inlines calls to small (less than 200 lines of code) functions.
//! Inlining preserves the call-by-value semantics of MATLAB by making
//! copies of the actual parameters. However, read-only formal parameters
//! are not copied. … MaJIC does not attempt to inline more than 3 levels
//! of recursive calls in order to avoid code explosion." (§3.4)
//!
//! Strategy: calls in expression position are hoisted into temporary
//! assignments; the callee body is spliced in with all local variables
//! renamed. A body with a top-level `return` is wrapped in a single-trip
//! `for __inlN_once = 1:1` loop so that its `return`s become `break`s;
//! the code selector lowers that loop as straight-line code, with no
//! back-edge and nothing for loop-invariant code motion to hoist.
//! Functions whose `return` sits inside one of their own loops, or that
//! touch globals, are not inlined.
//!
//! The "copies of the actual parameters" taken for written formals are
//! plain assignments (`__inlN_p = actual;`). With the runtime's
//! copy-on-write buffers those bindings are O(1) — the physical copy is
//! deferred to the formal's first store, and elided entirely when the
//! actual's buffer turns out to be uniquely owned by then. Read-only
//! formals skip even the binding.

use majic_ast::{
    walk_exprs, walk_stmts, BinOp, Expr, ExprKind, Function, LValue, NodeId, Span, Stmt, StmtKind,
};
use std::collections::{HashMap, HashSet};

/// Inliner configuration.
#[derive(Clone, Copy, Debug)]
pub struct InlineOptions {
    /// Only functions with fewer statements than this are inlined
    /// (paper: 200 lines).
    pub max_statements: usize,
    /// Maximum depth of recursive-call expansion. The default is 2,
    /// inside the paper's ceiling of 3 (§3.4): the third level triples
    /// the statements every later phase compiles (`ackermann`: 119 →
    /// 371), which costs a cold first call far more than the calls it
    /// saves (EXPERIMENTS.md, "Recursion unroll depth").
    pub max_recursion: usize,
}

impl Default for InlineOptions {
    fn default() -> Self {
        InlineOptions {
            max_statements: 200,
            max_recursion: 2,
        }
    }
}

/// Inline eligible calls inside `function`, resolving callees from
/// `registry`. `next_node_id` continues the file's id allocation so new
/// nodes stay unique; it is updated in place.
pub fn inline_function(
    function: &Function,
    registry: &HashMap<String, Function>,
    opts: InlineOptions,
    next_node_id: &mut u32,
) -> Function {
    let mut ctx = Inliner {
        registry,
        opts,
        next_id: next_node_id,
        tmp_counter: 0,
        depth: HashMap::new(),
        defined: function.params.iter().cloned().collect(),
    };
    let mut out = function.clone();
    out.body = ctx.expand_block(&out.body, &local_names(function));
    out
}

/// Names that are variables (not calls) inside a function: parameters,
/// outputs and every name the body binds.
fn local_names(f: &Function) -> HashSet<String> {
    let mut names: HashSet<String> = f.params.iter().chain(&f.outputs).cloned().collect();
    names.extend(assigned_names(&f.body).map(str::to_owned));
    names
}

/// Names bound anywhere in `stmts`, nested bodies included: assignment
/// targets, `for` variables and `global` declarations. A name repeats
/// once per binding site.
pub fn assigned_names(stmts: &[Stmt]) -> impl Iterator<Item = &str> {
    walk_stmts(stmts).flat_map(|s| {
        let (lvalues, names): (&[LValue], &[String]) = match &s.kind {
            StmtKind::Assign { lhs, .. } => (std::slice::from_ref(lhs), &[]),
            StmtKind::MultiAssign { lhs, .. } => (lhs, &[]),
            StmtKind::For { var, .. } => (&[], std::slice::from_ref(var)),
            StmtKind::Global(gs) => (&[], gs),
            _ => (&[], &[]),
        };
        lvalues
            .iter()
            .map(LValue::name)
            .chain(names.iter().map(String::as_str))
    })
}

/// The first `global` or `clear` statement in `stmts`, nested bodies
/// included. Compiled frames honor neither, so the inliner, the engine
/// and the code generator all leave a function that has one alone.
pub fn global_or_clear(stmts: &[Stmt]) -> Option<&Stmt> {
    walk_stmts(stmts).find(|s| matches!(s.kind, StmtKind::Global(_) | StmtKind::Clear(_)))
}

/// Does `stmts` index or call `name` (`name(…)`), nested bodies included?
fn applies(stmts: &[Stmt], name: &str) -> bool {
    walk_exprs(stmts).any(|e| {
        let mut found = false;
        e.walk(&mut |e| {
            found |= matches!(&e.kind, ExprKind::Apply { callee, .. } if callee == name)
        });
        found
    })
}

/// Does a `return` occur in `stmts`, nested bodies included?
fn has_return(stmts: &[Stmt]) -> bool {
    walk_stmts(stmts).any(|s| matches!(s.kind, StmtKind::Return))
}

/// Does a `return` occur inside one of the function's own loops (which
/// would break the single-trip-loop lowering)?
fn has_return_in_loop(stmts: &[Stmt]) -> bool {
    walk_stmts(stmts).any(|s| match &s.kind {
        StmtKind::While { body, .. } | StmtKind::For { body, .. } => has_return(body),
        _ => false,
    })
}

struct Inliner<'a> {
    registry: &'a HashMap<String, Function>,
    opts: InlineOptions,
    next_id: &'a mut u32,
    tmp_counter: u32,
    /// Current expansion depth per function name (recursion control).
    depth: HashMap<String, usize>,
    /// Variables definitely assigned at the current expansion point
    /// (params, plus every unconditional assignment seen so far).
    /// Reading one of these can never raise `Undefined`, which makes two
    /// things safe: substituting it for a read-only formal without a
    /// copy, and leaving it un-hoisted when a later operand's inlined
    /// body is spliced ahead of it. Conditionally-assigned names
    /// (if/while/for bodies) are deliberately excluded.
    defined: HashSet<String>,
}

/// Does this expression contain a contextual `end` or `:` that would
/// lose its meaning if the expression were hoisted out of the indexing
/// operation it appears in? `end`/`:` nested inside a further indexing
/// expression binds there and travels with it.
fn has_contextual_marker(e: &Expr, locals: &HashSet<String>) -> bool {
    match &e.kind {
        ExprKind::End | ExprKind::Colon => true,
        ExprKind::Apply { callee, args } => {
            // Indexing a local rebinds `end`; a real call does not.
            !locals.contains(callee) && args.iter().any(|a| has_contextual_marker(a, locals))
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            has_contextual_marker(lhs, locals) || has_contextual_marker(rhs, locals)
        }
        ExprKind::Unary { operand, .. } | ExprKind::Transpose { operand, .. } => {
            has_contextual_marker(operand, locals)
        }
        ExprKind::Range { start, step, stop } => {
            has_contextual_marker(start, locals)
                || step
                    .as_deref()
                    .is_some_and(|s| has_contextual_marker(s, locals))
                || has_contextual_marker(stop, locals)
        }
        ExprKind::Matrix(rows) => rows
            .iter()
            .flatten()
            .any(|el| has_contextual_marker(el, locals)),
        _ => false,
    }
}

impl<'a> Inliner<'a> {
    fn fresh_id(&mut self) -> NodeId {
        let id = NodeId(*self.next_id);
        *self.next_id += 1;
        id
    }

    fn fresh_tmp(&mut self, stem: &str) -> String {
        self.tmp_counter += 1;
        format!("__inl{}_{stem}", self.tmp_counter)
    }

    /// The raw eligibility check: `Err(None)` means `name` is not a
    /// user function at all (builtin or unknown — not an inlining
    /// decision), `Err(Some(reason))` a user function rejected for a
    /// reportable reason.
    fn eligibility(&self, name: &str) -> Result<&'a Function, Option<String>> {
        let Some(f) = self.registry.get(name) else {
            return Err(None);
        };
        let statements = walk_stmts(&f.body).count();
        if statements >= self.opts.max_statements {
            return Err(Some(format!(
                "{statements} statements ≥ the {}-statement limit",
                self.opts.max_statements
            )));
        }
        if has_return_in_loop(&f.body) {
            return Err(Some(
                "return inside a callee loop (breaks the single-trip-loop lowering)".to_owned(),
            ));
        }
        if global_or_clear(&f.body).is_some() {
            return Err(Some("callee touches global/clear state".to_owned()));
        }
        let depth = *self.depth.get(name).unwrap_or(&0);
        if depth >= self.opts.max_recursion {
            return Err(Some(format!(
                "recursive expansion depth {depth} ≥ the {}-level limit",
                self.opts.max_recursion
            )));
        }
        Ok(f)
    }

    /// [`Inliner::eligibility`] plus an audit verdict for every decision
    /// about a *user* function (builtins never reach the inliner's
    /// decision and would only be noise).
    fn eligible(&self, name: &str) -> Option<&'a Function> {
        match self.eligibility(name) {
            Ok(f) => {
                majic_trace::audit::inline_verdict(|| majic_trace::audit::InlineVerdict {
                    callee: name.to_owned(),
                    inlined: true,
                    reason: format!(
                        "inlined ({} statements, expansion depth {})",
                        walk_stmts(&f.body).count(),
                        *self.depth.get(name).unwrap_or(&0)
                    ),
                });
                Some(f)
            }
            Err(Some(reason)) => {
                majic_trace::audit::inline_verdict(|| majic_trace::audit::InlineVerdict {
                    callee: name.to_owned(),
                    inlined: false,
                    reason: format!("not inlined: {reason}"),
                });
                None
            }
            Err(None) => None,
        }
    }

    /// Could evaluating this expression fail or have an observable
    /// effect? Only literals and definitely-assigned identifiers are
    /// known safe; everything else (indexing, arithmetic that may hit an
    /// undefined name, residual calls) is treated as fallible.
    fn must_hoist(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Number { .. } | ExprKind::Str(_) | ExprKind::Colon | ExprKind::End => false,
            ExprKind::Ident(n) => !self.defined.contains(n),
            _ => true,
        }
    }

    /// Expand the operands of a multi-operand construct left-to-right,
    /// preserving MATLAB's evaluation order when a later operand's
    /// callee body is spliced out: every earlier operand that could
    /// fail is hoisted into a temporary evaluated *before* the splice.
    /// When an earlier operand cannot be hoisted (it carries a
    /// contextual `end`/`:` that must stay inside its subscript), the
    /// later call is left un-inlined instead. The returned list is the
    /// rewritten operands, in the same positions as the input.
    fn expand_operand_list(
        &mut self,
        exprs: &[Expr],
        locals: &HashSet<String>,
        out: &mut Vec<Stmt>,
        allow_splice: bool,
    ) -> Vec<Expr> {
        let mut done: Vec<Expr> = Vec::with_capacity(exprs.len());
        for e in exprs {
            let mut buf = Vec::new();
            let expanded = self.expand_expr(e, locals, &mut buf);
            if buf.is_empty() {
                done.push(expanded);
                continue;
            }
            let can_commit = allow_splice
                && done
                    .iter()
                    .all(|d| !self.must_hoist(d) || !has_contextual_marker(d, locals));
            if !can_commit {
                // Revert: keep the original call expression. The temps
                // allocated for the discarded splice are never emitted
                // or referenced again.
                majic_trace::audit::inline_verdict(|| majic_trace::audit::InlineVerdict {
                    callee: match &e.kind {
                        ExprKind::Apply { callee, .. } => callee.clone(),
                        _ => "<expr>".to_owned(),
                    },
                    inlined: false,
                    reason: "splice reverted: a contextual end/: pins an earlier operand \
                             in place, so evaluation order cannot be preserved"
                        .to_owned(),
                });
                done.push(e.clone());
                continue;
            }
            for d in done.iter_mut() {
                if !self.must_hoist(d) {
                    continue;
                }
                let tmp = self.fresh_tmp("seq");
                let lhs = LValue::Var {
                    name: tmp.clone(),
                    id: self.fresh_id(),
                    span: d.span,
                };
                out.push(Stmt {
                    span: d.span,
                    kind: StmtKind::Assign {
                        lhs,
                        rhs: d.clone(),
                        suppressed: true,
                    },
                });
                self.defined.insert(tmp.clone());
                *d = Expr {
                    id: self.fresh_id(),
                    span: d.span,
                    kind: ExprKind::Ident(tmp),
                };
            }
            out.extend(buf);
            done.push(expanded);
        }
        done
    }

    /// Expand calls inside a block. `locals` holds the caller's variable
    /// names, so that `x(3)` with `x` a local is recognized as indexing,
    /// not a call.
    fn expand_block(&mut self, stmts: &[Stmt], locals: &HashSet<String>) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            self.expand_stmt(s, locals, &mut out);
        }
        out
    }

    fn expand_stmt(&mut self, s: &Stmt, locals: &HashSet<String>, out: &mut Vec<Stmt>) {
        match &s.kind {
            StmtKind::Assign {
                lhs,
                rhs,
                suppressed,
            } => {
                let rhs = self.expand_expr(rhs, locals, out);
                out.push(Stmt {
                    span: s.span,
                    kind: StmtKind::Assign {
                        lhs: lhs.clone(),
                        rhs,
                        suppressed: *suppressed,
                    },
                });
                // Both `x = …` and `x(i) = …` leave `x` defined
                // (indexed stores auto-vivify).
                self.defined.insert(lhs.name().to_owned());
            }
            StmtKind::Expr { expr, suppressed } => {
                let expr = self.expand_expr(expr, locals, out);
                out.push(Stmt {
                    span: s.span,
                    kind: StmtKind::Expr {
                        expr,
                        suppressed: *suppressed,
                    },
                });
            }
            StmtKind::MultiAssign {
                lhs,
                id,
                callee,
                args,
                suppressed,
            } => {
                let args = self.expand_operand_list(args, locals, out, true);
                if !locals.contains(callee) {
                    if let Some(callee_fn) = self.eligible(callee) {
                        let callee_fn = callee_fn.clone();
                        let results = self.splice(&callee_fn, &args, lhs.len(), out, s.span);
                        for (lv, tmp) in lhs.iter().zip(results) {
                            let rhs = Expr {
                                id: self.fresh_id(),
                                span: s.span,
                                kind: ExprKind::Ident(tmp),
                            };
                            out.push(Stmt {
                                span: s.span,
                                kind: StmtKind::Assign {
                                    lhs: lv.clone(),
                                    rhs,
                                    suppressed: true,
                                },
                            });
                        }
                        for lv in lhs {
                            self.defined.insert(lv.name().to_owned());
                        }
                        return;
                    }
                }
                out.push(Stmt {
                    span: s.span,
                    kind: StmtKind::MultiAssign {
                        lhs: lhs.clone(),
                        id: *id,
                        callee: callee.clone(),
                        args,
                        suppressed: *suppressed,
                    },
                });
                for lv in lhs {
                    self.defined.insert(lv.name().to_owned());
                }
            }
            StmtKind::If {
                branches,
                else_body,
            } => {
                // Hoisting out of the first condition is sound (it is
                // evaluated exactly once); later arms' conditions must not
                // be hoisted past earlier ones, so only the first arm's
                // condition is expanded.
                let mut new_branches = Vec::with_capacity(branches.len());
                // Assignments inside a branch are conditional: restore
                // the definedness set after each arm.
                let saved = self.defined.clone();
                for (i, (cond, body)) in branches.iter().enumerate() {
                    let cond = if i == 0 {
                        self.expand_expr(cond, locals, out)
                    } else {
                        cond.clone()
                    };
                    new_branches.push((cond, self.expand_block(body, locals)));
                    self.defined = saved.clone();
                }
                let else_body = else_body.as_ref().map(|b| self.expand_block(b, locals));
                self.defined = saved;
                out.push(Stmt {
                    span: s.span,
                    kind: StmtKind::If {
                        branches: new_branches,
                        else_body,
                    },
                });
            }
            StmtKind::While { cond, body } => {
                // The condition re-evaluates every trip; hoisting would
                // change semantics, so calls in while-conditions stay.
                // The body may run zero times: restore definedness after.
                let saved = self.defined.clone();
                let body = self.expand_block(body, locals);
                self.defined = saved;
                out.push(Stmt {
                    span: s.span,
                    kind: StmtKind::While {
                        cond: cond.clone(),
                        body,
                    },
                });
            }
            StmtKind::For {
                var,
                var_id,
                iter,
                body,
            } => {
                let iter = self.expand_expr(iter, locals, out);
                let mut locals2 = locals.clone();
                locals2.insert(var.clone());
                // Inside the body the loop variable is assigned; the
                // body itself may run zero times (empty range), so the
                // definedness set is restored afterwards.
                let saved = self.defined.clone();
                self.defined.insert(var.clone());
                let body = self.expand_block(body, &locals2);
                self.defined = saved;
                out.push(Stmt {
                    span: s.span,
                    kind: StmtKind::For {
                        var: var.clone(),
                        var_id: *var_id,
                        iter,
                        body,
                    },
                });
            }
            StmtKind::Clear(names) => {
                if names.is_empty() {
                    self.defined.clear();
                } else {
                    for n in names {
                        self.defined.remove(n);
                    }
                }
                out.push(s.clone());
            }
            StmtKind::Global(names) => {
                // A global's value (and whether it is set at all) is
                // unknowable here.
                for n in names {
                    self.defined.remove(n);
                }
                out.push(s.clone());
            }
            _ => out.push(s.clone()),
        }
    }

    /// Expand calls inside one expression, emitting hoisted statements.
    fn expand_expr(&mut self, e: &Expr, locals: &HashSet<String>, out: &mut Vec<Stmt>) -> Expr {
        let kind = match &e.kind {
            ExprKind::Apply { callee, args } => {
                let args = self.expand_operand_list(args, locals, out, true);
                if !locals.contains(callee) {
                    if let Some(callee_fn) = self.eligible(callee) {
                        let callee_fn = callee_fn.clone();
                        let results = self.splice(&callee_fn, &args, 1, out, e.span);
                        return Expr {
                            id: self.fresh_id(),
                            span: e.span,
                            kind: ExprKind::Ident(results[0].clone()),
                        };
                    }
                }
                ExprKind::Apply {
                    callee: callee.clone(),
                    args,
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                if matches!(op, BinOp::ShortAnd | BinOp::ShortOr) {
                    // The rhs of `&&`/`||` evaluates lazily; splicing a
                    // callee body out of it would force evaluation, so
                    // only the lhs is expanded.
                    ExprKind::Binary {
                        op: *op,
                        lhs: Box::new(self.expand_expr(lhs, locals, out)),
                        rhs: rhs.clone(),
                    }
                } else {
                    let operands = [(**lhs).clone(), (**rhs).clone()];
                    let mut v = self
                        .expand_operand_list(&operands, locals, out, true)
                        .into_iter();
                    ExprKind::Binary {
                        op: *op,
                        lhs: Box::new(v.next().expect("two operands in, two out")),
                        rhs: Box::new(v.next().expect("two operands in, two out")),
                    }
                }
            }
            ExprKind::Unary { op, operand } => ExprKind::Unary {
                op: *op,
                operand: Box::new(self.expand_expr(operand, locals, out)),
            },
            ExprKind::Range { start, step, stop } => {
                // The interpreter evaluates start, then stop, then step;
                // the operand list must follow that order.
                let mut operands = vec![(**start).clone(), (**stop).clone()];
                if let Some(s) = step {
                    operands.push((**s).clone());
                }
                let mut v = self.expand_operand_list(&operands, locals, out, true);
                let new_step = if step.is_some() {
                    Some(Box::new(v.pop().expect("step operand")))
                } else {
                    None
                };
                let new_stop = Box::new(v.pop().expect("stop operand"));
                let new_start = Box::new(v.pop().expect("start operand"));
                ExprKind::Range {
                    start: new_start,
                    step: new_step,
                    stop: new_stop,
                }
            }
            ExprKind::Matrix(rows) => {
                let flat: Vec<Expr> = rows.iter().flatten().cloned().collect();
                let mut v = self
                    .expand_operand_list(&flat, locals, out, true)
                    .into_iter();
                ExprKind::Matrix(
                    rows.iter()
                        .map(|row| {
                            row.iter()
                                .map(|_| v.next().expect("element count unchanged"))
                                .collect()
                        })
                        .collect(),
                )
            }
            ExprKind::Transpose { operand, conjugate } => ExprKind::Transpose {
                operand: Box::new(self.expand_expr(operand, locals, out)),
                conjugate: *conjugate,
            },
            other => other.clone(),
        };
        Expr {
            id: e.id,
            span: e.span,
            kind,
        }
    }

    /// Splice the callee body into `out`, returning the temp names bound
    /// to its first `nargout` outputs.
    fn splice(
        &mut self,
        callee: &Function,
        args: &[Expr],
        nargout: usize,
        out: &mut Vec<Stmt>,
        span: Span,
    ) -> Vec<String> {
        *self.depth.entry(callee.name.clone()).or_insert(0) += 1;
        self.tmp_counter += 1;
        let prefix = format!("__inl{}_", self.tmp_counter);

        let assigned: HashSet<&str> = assigned_names(&callee.body).collect();
        // Build the renaming map for callee locals.
        let mut rename: HashMap<String, RenameTo> = HashMap::new();
        let mut pre = Vec::new();
        for (k, formal) in callee.params.iter().enumerate() {
            let actual = args.get(k);
            let read_only = !assigned.contains(formal.as_str());
            match actual {
                // Read-only formals bound to simple actuals are
                // substituted directly — the paper's "read-only formal
                // parameters are not copied". An identifier actual
                // qualifies only when it is definitely assigned:
                // substituting a possibly-undefined name would delay its
                // `Undefined` error from the call site into the body. A
                // literal cannot stand where the body indexes the formal.
                Some(a)
                    if read_only
                        && match &a.kind {
                            ExprKind::Number { .. } => !applies(&callee.body, formal),
                            ExprKind::Ident(n) => self.defined.contains(n),
                            _ => false,
                        } =>
                {
                    rename.insert(formal.clone(), RenameTo::Expr(a.clone()));
                }
                Some(a) => {
                    let tmp = format!("{prefix}{formal}");
                    let lhs = LValue::Var {
                        name: tmp.clone(),
                        id: self.fresh_id(),
                        span,
                    };
                    pre.push(Stmt {
                        span,
                        kind: StmtKind::Assign {
                            lhs,
                            rhs: a.clone(),
                            suppressed: true,
                        },
                    });
                    self.defined.insert(tmp.clone());
                    rename.insert(formal.clone(), RenameTo::Name(tmp));
                }
                None => {
                    // Missing actual: leave undefined (runtime error if
                    // used, same as MATLAB).
                    rename.insert(formal.clone(), RenameTo::Name(format!("{prefix}{formal}")));
                }
            }
        }
        let outputs_and_params = callee.outputs.iter().chain(&callee.params);
        for name in assigned
            .iter()
            .copied()
            .chain(outputs_and_params.map(String::as_str))
        {
            rename
                .entry(name.to_owned())
                .or_insert_with(|| RenameTo::Name(format!("{prefix}{name}")));
        }

        // Rename and re-id the body.
        let mut body: Vec<Stmt> = callee
            .body
            .iter()
            .map(|s| self.rewrite_stmt(s, &rename))
            .collect();

        // Wrap in a single-trip loop so `return` becomes `break` (returns
        // inside the callee's own loops rule inlining out).
        if has_return(&body) {
            replace_returns(&mut body);
            let guard = self.fresh_tmp("once");
            let one = |me: &mut Self| Expr {
                id: me.fresh_id(),
                span,
                kind: ExprKind::Number {
                    value: 1.0,
                    imaginary: false,
                },
            };
            let start = one(self);
            let stop = one(self);
            let iter = Expr {
                id: self.fresh_id(),
                span,
                kind: ExprKind::Range {
                    start: Box::new(start),
                    step: None,
                    stop: Box::new(stop),
                },
            };
            let var_id = self.fresh_id();
            body = vec![Stmt {
                span,
                kind: StmtKind::For {
                    var: guard,
                    var_id,
                    iter,
                    body,
                },
            }];
        }

        out.extend(pre);
        // Recursively expand calls inside the inlined body (this is where
        // bounded recursive unrolling happens).
        let empty_locals: HashSet<String> = rename
            .values()
            .filter_map(|r| match r {
                RenameTo::Name(n) => Some(n.clone()),
                RenameTo::Expr(_) => None,
            })
            .collect();
        let expanded = self.expand_block(&body, &empty_locals);
        out.extend(expanded);

        let results: Vec<String> = callee
            .outputs
            .iter()
            .take(nargout.max(1))
            .map(|o| match &rename[o] {
                RenameTo::Name(n) => n.clone(),
                RenameTo::Expr(_) => unreachable!("outputs are always renamed"),
            })
            .collect();
        *self.depth.get_mut(&callee.name).expect("pushed above") -= 1;
        results
    }

    fn rewrite_stmt(&mut self, s: &Stmt, rename: &HashMap<String, RenameTo>) -> Stmt {
        let kind = match &s.kind {
            StmtKind::Expr { expr, suppressed } => StmtKind::Expr {
                expr: self.rewrite_expr(expr, rename),
                suppressed: *suppressed,
            },
            StmtKind::Assign {
                lhs,
                rhs,
                suppressed,
            } => StmtKind::Assign {
                lhs: self.rewrite_lvalue(lhs, rename),
                rhs: self.rewrite_expr(rhs, rename),
                suppressed: *suppressed,
            },
            StmtKind::MultiAssign {
                lhs,
                callee,
                args,
                suppressed,
                ..
            } => StmtKind::MultiAssign {
                lhs: lhs
                    .iter()
                    .map(|lv| self.rewrite_lvalue(lv, rename))
                    .collect(),
                id: self.fresh_id(),
                callee: callee.clone(),
                args: args.iter().map(|a| self.rewrite_expr(a, rename)).collect(),
                suppressed: *suppressed,
            },
            StmtKind::If {
                branches,
                else_body,
            } => StmtKind::If {
                branches: branches
                    .iter()
                    .map(|(c, b)| {
                        (
                            self.rewrite_expr(c, rename),
                            b.iter().map(|st| self.rewrite_stmt(st, rename)).collect(),
                        )
                    })
                    .collect(),
                else_body: else_body
                    .as_ref()
                    .map(|b| b.iter().map(|st| self.rewrite_stmt(st, rename)).collect()),
            },
            StmtKind::While { cond, body } => StmtKind::While {
                cond: self.rewrite_expr(cond, rename),
                body: body
                    .iter()
                    .map(|st| self.rewrite_stmt(st, rename))
                    .collect(),
            },
            StmtKind::For {
                var, iter, body, ..
            } => {
                let new_var = match rename.get(var) {
                    Some(RenameTo::Name(n)) => n.clone(),
                    _ => var.clone(),
                };
                StmtKind::For {
                    var: new_var,
                    var_id: self.fresh_id(),
                    iter: self.rewrite_expr(iter, rename),
                    body: body
                        .iter()
                        .map(|st| self.rewrite_stmt(st, rename))
                        .collect(),
                }
            }
            other => other.clone(),
        };
        Stmt { span: s.span, kind }
    }

    fn rewrite_lvalue(&mut self, lv: &LValue, rename: &HashMap<String, RenameTo>) -> LValue {
        match lv {
            LValue::Var { name, span, .. } => LValue::Var {
                name: match rename.get(name) {
                    Some(RenameTo::Name(n)) => n.clone(),
                    _ => name.clone(),
                },
                id: self.fresh_id(),
                span: *span,
            },
            LValue::Index {
                name, args, span, ..
            } => LValue::Index {
                name: match rename.get(name) {
                    Some(RenameTo::Name(n)) => n.clone(),
                    _ => name.clone(),
                },
                args: args.iter().map(|a| self.rewrite_expr(a, rename)).collect(),
                id: self.fresh_id(),
                span: *span,
            },
        }
    }

    fn rewrite_expr(&mut self, e: &Expr, rename: &HashMap<String, RenameTo>) -> Expr {
        let kind = match &e.kind {
            ExprKind::Ident(name) => match rename.get(name) {
                Some(RenameTo::Name(n)) => ExprKind::Ident(n.clone()),
                Some(RenameTo::Expr(sub)) => {
                    // Substitute, but with a fresh id for the copy.
                    let mut copy = sub.clone();
                    self.refresh_ids(&mut copy);
                    return copy;
                }
                None => ExprKind::Ident(name.clone()),
            },
            ExprKind::Apply { callee, args } => {
                let new_args: Vec<Expr> =
                    args.iter().map(|a| self.rewrite_expr(a, rename)).collect();
                match rename.get(callee) {
                    Some(RenameTo::Name(n)) => ExprKind::Apply {
                        callee: n.clone(),
                        args: new_args,
                    },
                    Some(RenameTo::Expr(sub)) => {
                        // Indexing through a directly-substituted
                        // read-only parameter.
                        let ExprKind::Ident(n) = &sub.kind else {
                            unreachable!("indexed formals are never bound to literals")
                        };
                        ExprKind::Apply {
                            callee: n.clone(),
                            args: new_args,
                        }
                    }
                    None => ExprKind::Apply {
                        callee: callee.clone(),
                        args: new_args,
                    },
                }
            }
            ExprKind::Binary { op, lhs, rhs } => ExprKind::Binary {
                op: *op,
                lhs: Box::new(self.rewrite_expr(lhs, rename)),
                rhs: Box::new(self.rewrite_expr(rhs, rename)),
            },
            ExprKind::Unary { op, operand } => ExprKind::Unary {
                op: *op,
                operand: Box::new(self.rewrite_expr(operand, rename)),
            },
            ExprKind::Range { start, step, stop } => ExprKind::Range {
                start: Box::new(self.rewrite_expr(start, rename)),
                step: step
                    .as_ref()
                    .map(|s| Box::new(self.rewrite_expr(s, rename))),
                stop: Box::new(self.rewrite_expr(stop, rename)),
            },
            ExprKind::Matrix(rows) => ExprKind::Matrix(
                rows.iter()
                    .map(|row| row.iter().map(|el| self.rewrite_expr(el, rename)).collect())
                    .collect(),
            ),
            ExprKind::Transpose { operand, conjugate } => ExprKind::Transpose {
                operand: Box::new(self.rewrite_expr(operand, rename)),
                conjugate: *conjugate,
            },
            other => other.clone(),
        };
        Expr {
            id: self.fresh_id(),
            span: e.span,
            kind,
        }
    }

    fn refresh_ids(&mut self, e: &mut Expr) {
        e.id = self.fresh_id();
        match &mut e.kind {
            ExprKind::Apply { args, .. } => args.iter_mut().for_each(|a| self.refresh_ids(a)),
            ExprKind::Range { start, step, stop } => {
                self.refresh_ids(start);
                if let Some(s) = step {
                    self.refresh_ids(s);
                }
                self.refresh_ids(stop);
            }
            ExprKind::Unary { operand, .. } | ExprKind::Transpose { operand, .. } => {
                self.refresh_ids(operand)
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                self.refresh_ids(lhs);
                self.refresh_ids(rhs);
            }
            ExprKind::Matrix(rows) => rows
                .iter_mut()
                .flatten()
                .for_each(|el| self.refresh_ids(el)),
            _ => {}
        }
    }
}

#[derive(Clone, Debug)]
enum RenameTo {
    Name(String),
    Expr(Expr),
}

fn replace_returns(stmts: &mut [Stmt]) {
    for s in stmts {
        match &mut s.kind {
            StmtKind::Return => s.kind = StmtKind::Break,
            StmtKind::If {
                branches,
                else_body,
            } => {
                for (_, b) in branches {
                    replace_returns(b);
                }
                if let Some(b) = else_body {
                    replace_returns(b);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use majic_ast::parse_source;

    fn inline_first(src: &str, opts: InlineOptions) -> (Function, u32) {
        let file = parse_source(src).unwrap();
        let registry: HashMap<String, Function> = file
            .functions
            .iter()
            .map(|f| (f.name.clone(), f.clone()))
            .collect();
        let mut next = file.node_count;
        let f = inline_function(&file.functions[0], &registry, opts, &mut next);
        (f, next)
    }

    fn render(f: &Function) -> String {
        format!("{f}")
    }

    #[test]
    fn simple_call_is_expanded() {
        let (f, _) = inline_first(
            "function y = main(x)\ny = sq(x) + 1;\nfunction z = sq(a)\nz = a * a;\n",
            InlineOptions::default(),
        );
        let text = render(&f);
        assert!(!text.contains("sq("), "call survived: {text}");
        assert!(text.contains("* "), "inlined body missing: {text}");
    }

    #[test]
    fn read_only_param_is_not_copied() {
        let (f, _) = inline_first(
            "function y = main(x)\ny = sq(x);\nfunction z = sq(a)\nz = a * a;\n",
            InlineOptions::default(),
        );
        let text = render(&f);
        // `a` is read-only, the actual `x` is simple → direct substitution,
        // no `__inl…_a = x` copy statement.
        assert!(!text.contains("_a ="), "unexpected copy: {text}");
        assert!(text.contains("x * x"), "substitution missing: {text}");
    }

    #[test]
    fn written_param_gets_a_copy() {
        let (f, _) = inline_first(
            "function y = main(x)\ny = bump(x);\nfunction z = bump(a)\na = a + 1;\nz = a;\n",
            InlineOptions::default(),
        );
        let text = render(&f);
        assert!(text.contains("_a = x"), "copy missing: {text}");
    }

    #[test]
    fn complex_actual_gets_a_copy_even_if_read_only() {
        let (f, _) = inline_first(
            "function y = main(x)\ny = sq(x + 1);\nfunction z = sq(a)\nz = a * a;\n",
            InlineOptions::default(),
        );
        let text = render(&f);
        assert!(text.contains("_a = (x + 1)"), "copy missing: {text}");
    }

    #[test]
    fn early_return_becomes_single_trip_loop() {
        let (f, _) = inline_first(
            "function y = main(x)\ny = clamp(x);\nfunction z = clamp(a)\nif a > 1\n z = 1;\n return\nend\nz = a;\n",
            InlineOptions::default(),
        );
        let text = render(&f);
        assert!(text.contains("for __inl"), "guard loop missing: {text}");
        assert!(text.contains("break"), "break missing: {text}");
        assert!(!text.contains("return"), "return survived: {text}");
    }

    #[test]
    fn return_inside_callee_loop_blocks_inlining() {
        let (f, _) = inline_first(
            "function y = main(x)\ny = findit(x);\nfunction z = findit(a)\nz = 0;\nfor k = 1:10\n if k > a\n  z = k;\n  return\n end\nend\n",
            InlineOptions::default(),
        );
        let text = render(&f);
        assert!(text.contains("findit("), "should not inline: {text}");
    }

    #[test]
    fn recursion_unrolls_exactly_two_levels() {
        use majic_trace::audit;
        let opts = InlineOptions::default();
        assert_eq!(opts.max_recursion, 2);
        audit::retain_service();
        audit::begin("inline_test_unroll_depth");
        let (f, _) = inline_first(
            "function y = main(n)\ny = fib(n);\nfunction f = fib(n)\nif n < 2\n f = n;\n return\nend\nf = fib(n - 1) + fib(n - 2);\n",
            opts,
        );
        audit::commit(String::new, "test", String::new, None, 0);
        audit::release_service();
        let text = render(&f);
        // Level 1 is one copy of the body and level 2 two; the four
        // calls in the level-2 copies stay calls.
        let frames = text.matches("for __inl").count();
        assert_eq!(frames, 1 + 2, "inlined frames: {text}");
        assert_eq!(text.matches("fib(").count(), 4, "residual calls: {text}");
        let records = audit::records_for("inline_test_unroll_depth");
        let refusals: Vec<_> = records[0].inlining.iter().filter(|v| !v.inlined).collect();
        assert_eq!(refusals.len(), 4, "{:?}", records[0].inlining);
        for v in refusals {
            assert_eq!(
                v.reason,
                "not inlined: recursive expansion depth 2 ≥ the 2-level limit"
            );
        }
    }

    #[test]
    fn large_functions_are_not_inlined() {
        let mut body = String::new();
        for k in 0..250 {
            body.push_str(&format!("z = {k};\n"));
        }
        let src = format!("function y = main(x)\ny = big(x);\nfunction z = big(a)\n{body}z = a;\n");
        let (f, _) = inline_first(&src, InlineOptions::default());
        assert!(render(&f).contains("big("));
    }

    #[test]
    fn indexing_a_local_is_not_a_call() {
        // `x(2)` where x is a parameter must not be treated as a call even
        // if a function named x exists.
        let (f, _) = inline_first(
            "function y = main(x)\ny = x(2);\nfunction z = x(a)\nz = a;\n",
            InlineOptions::default(),
        );
        assert!(render(&f).contains("x(2)"));
    }

    #[test]
    fn multi_assign_inlines() {
        let (f, _) = inline_first(
            "function y = main(x)\n[a, b] = two(x);\ny = a + b;\nfunction [p, q] = two(v)\np = v + 1;\nq = v + 2;\n",
            InlineOptions::default(),
        );
        let text = render(&f);
        assert!(!text.contains("two("), "{text}");
        assert!(text.contains("a = __inl"), "{text}");
    }

    #[test]
    fn possibly_undefined_actual_is_copied_not_substituted() {
        // `g` is only conditionally assigned. Substituting it for the
        // read-only formal would move its `Undefined` error from the
        // call site into the middle of the spliced body; a copy at the
        // call site keeps the error where the interpreter raises it.
        let (f, _) = inline_first(
            "function r = main(p)\nif p > 2\n g = 3;\nend\nr = f1(g);\nfunction r = f1(a)\nm = 7;\nr = a + m;\n",
            InlineOptions::default(),
        );
        let text = render(&f);
        assert!(text.contains("_a = g"), "copy missing: {text}");
    }

    #[test]
    fn definitely_assigned_actual_is_still_substituted() {
        let (f, _) = inline_first(
            "function r = main(p)\ng = p + 1;\nr = f1(g);\nfunction r = f1(a)\nr = a * a;\n",
            InlineOptions::default(),
        );
        let text = render(&f);
        assert!(!text.contains("_a ="), "unexpected copy: {text}");
        assert!(text.contains("g * g"), "substitution missing: {text}");
    }

    #[test]
    fn earlier_fallible_operand_is_sequenced_before_splice() {
        // `v(1)` can fail; the interpreter evaluates it before the call
        // to f1, so the splice must not push f1's body ahead of it.
        let (f, _) = inline_first(
            "function r = main(v)\nr = v(1) + f1(2);\nfunction r = f1(a)\nr = a * 3;\n",
            InlineOptions::default(),
        );
        let text = render(&f);
        assert!(!text.contains("f1("), "call survived: {text}");
        let seq = text.find("_seq").expect("sequencing temp missing");
        let body = text.find("* 3").expect("inlined body missing");
        assert!(seq < body, "operand not sequenced before splice: {text}");
    }

    #[test]
    fn contextual_end_blocks_reordering_inline() {
        // `(end - 1)` cannot be hoisted out of the subscript position
        // it appears in, so the later call stays un-inlined rather than
        // being spliced ahead of it.
        let (f, _) = inline_first(
            "function r = main(v)\nr = v((end - 1) + f1(2));\nfunction r = f1(a)\nr = a * 3;\n",
            InlineOptions::default(),
        );
        let text = render(&f);
        assert!(text.contains("f1("), "should not inline: {text}");
    }

    #[test]
    fn end_inside_local_indexing_travels_with_its_operand() {
        // `v(end)` binds `end` to `v`'s extent, so the whole operand is
        // hoistable and the later call still inlines.
        let (f, _) = inline_first(
            "function r = main(v)\nr = v(v(end)) + f1(2);\nfunction r = f1(a)\nr = a * 3;\n",
            InlineOptions::default(),
        );
        let text = render(&f);
        assert!(!text.contains("f1("), "call survived: {text}");
    }

    #[test]
    fn node_ids_stay_unique_after_inlining() {
        let src = "function y = main(x)\ny = sq(x) + sq(x + 1);\nfunction z = sq(a)\nz = a * a;\n";
        let file = parse_source(src).unwrap();
        let registry: HashMap<String, Function> = file
            .functions
            .iter()
            .map(|f| (f.name.clone(), f.clone()))
            .collect();
        let mut next = file.node_count;
        let f = inline_function(
            &file.functions[0],
            &registry,
            InlineOptions::default(),
            &mut next,
        );
        let mut ids = Vec::new();
        for s in walk_stmts(&f.body) {
            let mut exprs: Vec<&Expr> = Vec::new();
            match &s.kind {
                StmtKind::Assign { lhs, rhs, .. } => {
                    ids.push(lhs.id());
                    exprs.push(rhs);
                }
                StmtKind::For { iter, .. } => exprs.push(iter),
                StmtKind::If { branches, .. } => exprs.extend(branches.iter().map(|(c, _)| c)),
                _ => {}
            }
            for e in exprs {
                e.walk(&mut |e| ids.push(e.id));
            }
        }
        let mut seen = HashSet::new();
        for id in ids {
            assert!(seen.insert(id), "dup id {id}");
        }
    }
}
