//! The structured dataflow driver that symbol disambiguation (paper §2.1,
//! reaching definitions) and type inference (§2.3, join of all paths)
//! both run on. An analysis supplies its lattice and transfer functions
//! ([`Dataflow`]); [`run_flow`] owns the control-flow rules:
//!
//! * After `break`, `continue` or `return` the rest of the block is still
//!   analysed, so every node gets an annotation, with the state of the
//!   path that ended; that dead code's effects reach no join.
//! * An `if` joins its arms' end states with the `else` end state (the
//!   incoming state without an `else`).
//! * A loop head is the loop entry joined with the body's end and the
//!   `continue` states, iterated until joining a pass's result into it
//!   changes nothing. Once an outer head carries an inner loop's effects,
//!   the inner loop settles in one pass, so a depth-d nest is visited
//!   d + 1 times. The loop exits with its head joined with the `break`
//!   states.
//! * The function exits with the fall-through state joined with every
//!   `return` state. A `break` or `continue` outside any loop returns, as
//!   in the interpreter and the code generator.
//!
//! The last pass over a loop runs at its fixpoint, so the annotations it
//! records replace those of earlier passes.

use majic_ast::{Expr, NodeId, Stmt, StmtKind};

/// A forward analysis: its lattice and transfer functions.
pub trait Dataflow {
    /// The state at a program point. `==` is the lattice's equality.
    type State: Clone + PartialEq;
    /// What [`Dataflow::enter_for`] computes once per `for` loop and
    /// [`Dataflow::bind_for`] writes at the top of every pass.
    type ForVar;

    /// Join of two path states at a merge.
    fn join(&self, a: &Self::State, b: &Self::State) -> Self::State;

    /// The head for the next pass over a loop body after pass number
    /// `pass` (from 0) left the head moving from `head` to `next`. The
    /// result must stop moving eventually; a lattice of finite height
    /// needs no widening.
    fn widen(&mut self, _pass: usize, _head: &Self::State, next: Self::State) -> Self::State {
        next
    }

    /// A straight-line statement: expression, assignment, `global` or
    /// `clear`.
    fn transfer(&mut self, s: &Stmt, state: &mut Self::State);

    /// An `if` or `while` condition, evaluated in `state`.
    fn condition(&mut self, cond: &Expr, state: &Self::State);

    /// A `for` loop's iteration space, evaluated once in the entry state.
    fn enter_for(
        &mut self,
        var: &str,
        var_id: NodeId,
        iter: &Expr,
        entry: &Self::State,
    ) -> Self::ForVar;

    /// Bind the `for` variable at the top of a pass over the body.
    fn bind_for(&mut self, var: &Self::ForVar, state: &mut Self::State);
}

/// Analyse a function body from the `entry` state and return the state at
/// function exit.
pub fn run_flow<A: Dataflow>(analysis: &mut A, body: &[Stmt], entry: A::State) -> A::State {
    let mut driver = Driver {
        a: analysis,
        loops: Vec::new(),
        exits: Vec::new(),
    };
    let mut exit = driver.block(body, Path::live(entry));
    for r in std::mem::take(&mut driver.exits) {
        exit = driver.join(&exit, &Path::live(r));
    }
    exit.state
}

/// A path's state; a path that has jumped is dead.
#[derive(Clone)]
struct Path<S> {
    state: S,
    live: bool,
}

impl<S> Path<S> {
    fn live(state: S) -> Self {
        Path { state, live: true }
    }
}

/// The `break` and `continue` states of one pass over a loop body.
type Jumps<S> = (Vec<S>, Vec<S>);

struct Driver<'a, A: Dataflow> {
    a: &'a mut A,
    /// One entry per enclosing loop, innermost last.
    loops: Vec<Jumps<A::State>>,
    /// States at `return` (and at jumps outside any loop).
    exits: Vec<A::State>,
}

impl<A: Dataflow> Driver<'_, A> {
    /// Join two paths. A dead path reaches the join only when both are
    /// dead (code after the jump still needs a state).
    fn join(&self, a: &Path<A::State>, b: &Path<A::State>) -> Path<A::State> {
        match (a.live, b.live) {
            (true, false) => a.clone(),
            (false, true) => b.clone(),
            _ => Path {
                state: self.a.join(&a.state, &b.state),
                live: a.live,
            },
        }
    }

    fn block(&mut self, stmts: &[Stmt], mut p: Path<A::State>) -> Path<A::State> {
        for s in stmts {
            p = self.stmt(s, p);
        }
        p
    }

    fn stmt(&mut self, s: &Stmt, mut p: Path<A::State>) -> Path<A::State> {
        match &s.kind {
            StmtKind::If {
                branches,
                else_body,
            } => {
                let mut arms = Vec::new();
                for (cond, body) in branches {
                    self.a.condition(cond, &p.state);
                    arms.push(self.block(body, p.clone()));
                }
                arms.push(match else_body {
                    Some(body) => self.block(body, p),
                    None => p,
                });
                let mut arms = arms.into_iter();
                let first = arms.next().expect("the else arm is always there");
                arms.fold(first, |out, arm| self.join(&out, &arm))
            }
            StmtKind::While { cond, body } => self.loop_(p, Some(cond), None, body),
            StmtKind::For {
                var,
                var_id,
                iter,
                body,
            } => {
                let v = self.a.enter_for(var, *var_id, iter, &p.state);
                self.loop_(p, None, Some(&v), body)
            }
            StmtKind::Break | StmtKind::Continue | StmtKind::Return => {
                if p.live {
                    let state = p.state.clone();
                    match (&s.kind, self.loops.last_mut()) {
                        (StmtKind::Break, Some((breaks, _))) => breaks.push(state),
                        (StmtKind::Continue, Some((_, continues))) => continues.push(state),
                        _ => self.exits.push(state),
                    }
                }
                p.live = false;
                p
            }
            _ => {
                self.a.transfer(s, &mut p.state);
                p
            }
        }
    }

    /// A `while` loop (with its condition) or a `for` loop (with its
    /// variable).
    fn loop_(
        &mut self,
        entry: Path<A::State>,
        cond: Option<&Expr>,
        for_var: Option<&A::ForVar>,
        body: &[Stmt],
    ) -> Path<A::State> {
        let mut head = entry.clone();
        let mut pass = 0;
        let returns = self.exits.len();
        loop {
            // Only the last pass's `return` states reach the exit.
            self.exits.truncate(returns);
            if let Some(c) = cond {
                self.a.condition(c, &head.state);
            }
            let mut top = head.clone();
            if let Some(v) = for_var {
                self.a.bind_for(v, &mut top.state);
            }
            self.loops.push((Vec::new(), Vec::new()));
            let end = self.block(body, top);
            let (breaks, continues) = self.loops.pop().expect("pushed above");
            let mut next = self.join(&entry, &end);
            for c in continues {
                next = self.join(&next, &Path::live(c));
            }
            let settled = next.live == head.live
                && (next.state == head.state
                    || self.a.join(&head.state, &next.state) == head.state);
            if settled {
                for b in breaks {
                    head = self.join(&head, &Path::live(b));
                }
                return head;
            }
            head = Path {
                state: self.a.widen(pass, &head.state, next.state),
                live: next.live,
            };
            pass += 1;
        }
    }
}
