//! Symbol disambiguation by reaching-definitions dataflow (paper §2.1).

use majic_ast::{Expr, ExprKind, Function, LValue, NodeId, Stmt, StmtKind};
use majic_runtime::builtins::Builtin;
use std::collections::{HashMap, HashSet};

/// Dense index of a variable in a function's static symbol table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// The id as a table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a symbol occurrence means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SymbolKind {
    /// Definitely a variable (has a reaching variable definition on *all*
    /// paths).
    Variable(VarId),
    /// A built-in primitive or constant.
    Builtin(Builtin),
    /// A user-defined function known to the session.
    UserFunction,
    /// Defined on some paths only — the paper's Figure 2 cases. MaJIC
    /// "defers their processing until runtime".
    Ambiguous(VarId),
    /// No definition, no builtin, no function: a runtime error if reached.
    Unknown,
}

/// Analysis results for one function (the paper's "static symbol table").
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    /// Variable names, indexed by [`VarId`]. Parameters first, then
    /// outputs, then locals in order of first definition.
    pub vars: Vec<String>,
    /// Symbol meaning per AST node (`Ident` / `Apply` / lvalue ids).
    pub symbols: HashMap<NodeId, SymbolKind>,
}

impl SymbolTable {
    /// Id of a variable by name.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v == name)
            .map(|i| VarId(i as u32))
    }

    /// Number of variables in the frame.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// The meaning recorded for a node (defaults to `Unknown`).
    pub fn kind(&self, id: NodeId) -> SymbolKind {
        self.symbols
            .get(&id)
            .copied()
            .unwrap_or(SymbolKind::Unknown)
    }
}

/// A function together with its symbol table.
#[derive(Clone, Debug)]
pub struct DisambiguatedFunction {
    /// The analyzed function (unchanged).
    pub function: Function,
    /// Its static symbol table and symbol annotations.
    pub table: SymbolTable,
}

/// Is a variable defined at a program point?
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Fact {
    /// On no path reaching the point.
    #[default]
    Undefined,
    /// On some paths only.
    Maybe,
    /// On every path.
    Definite,
}

/// The dataflow state: one fact per [`VarId`]. Ids past the end are
/// `Undefined`, so a state taken before a variable was interned needs
/// no resizing.
#[derive(Clone, Debug)]
struct State {
    facts: Vec<Fact>,
    /// Cleared when the current path has returned or jumped (`break` /
    /// `continue`); a join then ignores this side.
    reachable: bool,
}

impl State {
    fn fact(&self, v: VarId) -> Fact {
        self.facts.get(v.index()).copied().unwrap_or_default()
    }

    fn define(&mut self, v: VarId) {
        if self.facts.len() <= v.index() {
            self.facts.resize(v.index() + 1, Fact::Undefined);
        }
        self.facts[v.index()] = Fact::Definite;
    }

    /// Join of two path states (at control-flow merges): equal facts
    /// stay, different facts become `Maybe`.
    fn join(&self, other: &State) -> State {
        if !self.reachable {
            return other.clone();
        }
        if !other.reachable {
            return self.clone();
        }
        let len = self.facts.len().max(other.facts.len());
        let facts = (0..len)
            .map(|i| {
                let v = VarId(i as u32);
                let (a, b) = (self.fact(v), other.fact(v));
                if a == b {
                    a
                } else {
                    Fact::Maybe
                }
            })
            .collect();
        State {
            facts,
            reachable: true,
        }
    }
}

struct Analyzer<'a> {
    known_functions: &'a HashSet<String>,
    table: SymbolTable,
    var_index: HashMap<String, VarId>,
    /// States captured at `break` / `continue` sites of the innermost loop.
    break_states: Vec<State>,
    continue_states: Vec<State>,
}

impl<'a> Analyzer<'a> {
    fn intern(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.var_index.get(name) {
            return id;
        }
        let id = VarId(self.table.vars.len() as u32);
        self.table.vars.push(name.to_owned());
        self.var_index.insert(name.to_owned(), id);
        id
    }

    /// What `name` means when it is not a variable.
    fn callable(&self, name: &str) -> SymbolKind {
        if let Some(b) = Builtin::lookup(name) {
            SymbolKind::Builtin(b)
        } else if self.known_functions.contains(name) {
            SymbolKind::UserFunction
        } else {
            SymbolKind::Unknown
        }
    }

    fn record_use(&mut self, id: NodeId, name: &str, state: &State) {
        let var = self.var_index.get(name).copied();
        let kind = match var.map(|v| (v, state.fact(v))) {
            Some((v, Fact::Definite)) => SymbolKind::Variable(v),
            Some((v, Fact::Maybe)) => SymbolKind::Ambiguous(v),
            _ => self.callable(name),
        };
        self.table.symbols.insert(id, kind);
    }

    /// Record the meaning of every symbol in `e`, pre-order.
    fn visit_expr(&mut self, e: &Expr, state: &State) {
        e.walk(&mut |e| match &e.kind {
            ExprKind::Ident(name) | ExprKind::Apply { callee: name, .. } => {
                self.record_use(e.id, name, state)
            }
            _ => {}
        });
    }

    fn define_lvalue(&mut self, lv: &LValue, state: &mut State) {
        // `A(i) = …` reads its subscripts in the incoming state. It
        // defines A even when A was undefined: MATLAB creates the array.
        if let LValue::Index { args, .. } = lv {
            for a in args {
                self.visit_expr(a, state);
            }
        }
        let vid = self.intern(lv.name());
        state.define(vid);
        self.table
            .symbols
            .insert(lv.id(), SymbolKind::Variable(vid));
    }

    fn visit_block(&mut self, stmts: &[Stmt], mut state: State) -> State {
        for s in stmts {
            // Dead code after return/break is still analyzed, with the
            // facts of the path that ended, so annotations exist.
            state.reachable = true;
            state = self.visit_stmt(s, state);
        }
        state
    }

    /// A `while` loop (with its condition) or a `for` loop. `entry`
    /// reaches the loop, `body_in` the top of the first iteration. Two
    /// passes reach the fixpoint (facts have bounded height): the loop
    /// head is `body_in` joined with the first pass's body end and
    /// `continue` states, and the second pass, from the head, records
    /// the final annotations. The loop exits from its head, a `break`
    /// or (through the head) a `continue`.
    fn visit_loop(
        &mut self,
        cond: Option<&Expr>,
        body: &[Stmt],
        entry: State,
        body_in: State,
    ) -> State {
        if let Some(c) = cond {
            self.visit_expr(c, &entry);
        }
        let saved_breaks = std::mem::take(&mut self.break_states);
        let saved_continues = std::mem::take(&mut self.continue_states);
        let first = self.visit_block(body, body_in.clone());
        let mut head = body_in.join(&first);
        for c in self.continue_states.drain(..) {
            head = head.join(&c);
        }
        self.break_states.clear();
        if let Some(c) = cond {
            self.visit_expr(c, &head);
        }
        let second = self.visit_block(body, head.clone());
        let mut exit = entry.join(&head).join(&second);
        let breaks = std::mem::replace(&mut self.break_states, saved_breaks);
        let continues = std::mem::replace(&mut self.continue_states, saved_continues);
        for jump in breaks.iter().chain(&continues) {
            exit = exit.join(jump);
        }
        exit
    }

    fn visit_stmt(&mut self, s: &Stmt, mut state: State) -> State {
        match &s.kind {
            StmtKind::Expr { expr, .. } => {
                self.visit_expr(expr, &state);
                state
            }
            StmtKind::Assign { lhs, rhs, .. } => {
                self.visit_expr(rhs, &state);
                self.define_lvalue(lhs, &mut state);
                state
            }
            StmtKind::MultiAssign {
                lhs,
                id,
                callee,
                args,
                ..
            } => {
                for a in args {
                    self.visit_expr(a, &state);
                }
                // Multi-assign callees are always calls, never indexing.
                let kind = self.callable(callee);
                self.table.symbols.insert(*id, kind);
                for lv in lhs {
                    self.define_lvalue(lv, &mut state);
                }
                state
            }
            StmtKind::If {
                branches,
                else_body,
            } => {
                let mut out: Option<State> = None;
                for (cond, body) in branches {
                    // Every arm's condition is reached with the `if`'s
                    // incoming state.
                    self.visit_expr(cond, &state);
                    let branch_out = self.visit_block(body, state.clone());
                    out = Some(match out {
                        Some(o) => o.join(&branch_out),
                        None => branch_out,
                    });
                }
                let else_out = match else_body {
                    Some(body) => self.visit_block(body, state),
                    None => state,
                };
                match out {
                    Some(o) => o.join(&else_out),
                    None => else_out,
                }
            }
            StmtKind::While { cond, body } => {
                self.visit_loop(Some(cond), body, state.clone(), state)
            }
            StmtKind::For {
                var,
                var_id,
                iter,
                body,
            } => {
                self.visit_expr(iter, &state);
                let vid = self.intern(var);
                self.table
                    .symbols
                    .insert(*var_id, SymbolKind::Variable(vid));
                // The induction variable is definitely assigned inside the
                // body; after the loop it is only maybe-assigned (empty
                // ranges skip the body entirely).
                let mut body_in = state.clone();
                body_in.define(vid);
                self.visit_loop(None, body, state, body_in)
            }
            StmtKind::Break => {
                self.break_states.push(state.clone());
                state.reachable = false;
                state
            }
            StmtKind::Continue => {
                self.continue_states.push(state.clone());
                state.reachable = false;
                state
            }
            StmtKind::Return => {
                state.reachable = false;
                state
            }
            StmtKind::Global(names) => {
                for n in names {
                    let vid = self.intern(n);
                    state.define(vid);
                }
                state
            }
            StmtKind::Clear(names) => {
                if names.is_empty() {
                    state.facts.clear();
                }
                for n in names {
                    let v = self.var_index.get(n);
                    if let Some(fact) = v.and_then(|v| state.facts.get_mut(v.index())) {
                        *fact = Fact::Undefined;
                    }
                }
                state
            }
        }
    }
}

/// Disambiguate the symbols of one function (paper Figure 1, pass 2).
///
/// `known_functions` lists the user-function names visible to the session
/// (the repository's directory snoop provides these).
pub fn disambiguate(
    function: &Function,
    known_functions: &HashSet<String>,
) -> DisambiguatedFunction {
    let _sp = majic_trace::Span::enter_with("disambig", || vec![("fn", function.name.clone())]);
    let mut a = Analyzer {
        known_functions,
        table: SymbolTable::default(),
        var_index: HashMap::new(),
        break_states: Vec::new(),
        continue_states: Vec::new(),
    };
    let mut state = State {
        facts: Vec::new(),
        reachable: true,
    };
    // Formal parameters are defined at entry.
    for p in &function.params {
        let vid = a.intern(p);
        state.define(vid);
    }
    for o in &function.outputs {
        a.intern(o);
    }
    a.visit_block(&function.body, state);
    DisambiguatedFunction {
        function: function.clone(),
        table: a.table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use majic_ast::{parse_source, walk_stmts};

    fn analyze(src: &str) -> DisambiguatedFunction {
        let file = parse_source(src).unwrap();
        let known: HashSet<String> = file.functions.iter().map(|f| f.name.clone()).collect();
        disambiguate(&file.functions[0], &known)
    }

    /// The annotations of every Ident/Apply with the given name, in
    /// statement pre-order.
    fn kind_of(d: &DisambiguatedFunction, name: &str) -> Vec<SymbolKind> {
        let mut out = Vec::new();
        let mut on_expr = |e: &Expr| {
            e.walk(&mut |e| match &e.kind {
                ExprKind::Ident(n) | ExprKind::Apply { callee: n, .. } if n == name => {
                    out.push(d.table.kind(e.id));
                }
                _ => {}
            })
        };
        for s in walk_stmts(&d.function.body) {
            match &s.kind {
                StmtKind::Expr { expr: e, .. }
                | StmtKind::Assign { rhs: e, .. }
                | StmtKind::While { cond: e, .. }
                | StmtKind::For { iter: e, .. } => on_expr(e),
                StmtKind::MultiAssign { args, .. } => args.iter().for_each(&mut on_expr),
                StmtKind::If { branches, .. } => branches.iter().for_each(|(c, _)| on_expr(c)),
                _ => {}
            }
        }
        out
    }

    #[test]
    fn params_are_variables() {
        let d = analyze("function y = f(x)\ny = x + 1;\n");
        assert!(matches!(kind_of(&d, "x")[0], SymbolKind::Variable(_)));
    }

    #[test]
    fn builtins_resolve() {
        let d = analyze("function y = f(x)\ny = zeros(x) + pi;\n");
        assert!(matches!(kind_of(&d, "zeros")[0], SymbolKind::Builtin(_)));
        assert!(matches!(kind_of(&d, "pi")[0], SymbolKind::Builtin(_)));
    }

    #[test]
    fn user_functions_resolve() {
        let d = analyze("function y = f(x)\ny = g(x);\nfunction y = g(x)\ny = x;\n");
        assert!(matches!(kind_of(&d, "g")[0], SymbolKind::UserFunction));
    }

    #[test]
    fn unknown_symbols_flagged() {
        let d = analyze("function y = f(x)\ny = mystery(x);\n");
        assert!(matches!(kind_of(&d, "mystery")[0], SymbolKind::Unknown));
    }

    #[test]
    fn paper_figure2_left_i_is_ambiguous() {
        // First use of `i` in the loop body: builtin √−1 on iteration 1,
        // the variable thereafter → Ambiguous.
        let d = analyze("function f()\nwhile (1 < 2)\n z = i;\n i = z + 1;\nend\n");
        let kinds = kind_of(&d, "i");
        assert!(
            matches!(kinds[0], SymbolKind::Ambiguous(_)),
            "got {kinds:?}"
        );
    }

    #[test]
    fn paper_figure2_right_y_is_variable_via_control_flow() {
        // `x = y` executes only when p >= 2, by which time `y = p` has run.
        // Plain reaching definitions (ignoring the guard) see y as only
        // maybe-defined → Ambiguous, which is the conservative answer
        // MaJIC defers to runtime.
        let d = analyze(
            "function f(N)\nx = 0;\nfor p = 1:N\n if (p >= 2)\n x = y;\n end\n y = p;\nend\n",
        );
        let kinds = kind_of(&d, "y");
        assert!(
            matches!(kinds[0], SymbolKind::Ambiguous(_)),
            "got {kinds:?}"
        );
    }

    #[test]
    fn sequential_definition_is_definite() {
        let d = analyze("function f()\na = 1;\nb = a + 1;\n");
        assert!(matches!(kind_of(&d, "a")[0], SymbolKind::Variable(_)));
    }

    #[test]
    fn if_without_else_is_maybe() {
        let d = analyze("function f(c)\nif c > 0\n t = 1;\nend\nu = t;\n");
        assert!(matches!(kind_of(&d, "t")[0], SymbolKind::Ambiguous(_)));
    }

    #[test]
    fn both_branches_define_definitely() {
        let d = analyze("function f(c)\nif c > 0\n t = 1;\nelse\n t = 2;\nend\nu = t;\n");
        assert!(matches!(kind_of(&d, "t")[0], SymbolKind::Variable(_)));
    }

    #[test]
    fn clear_forgets_definitions() {
        let d = analyze("function f()\nt = 1;\nclear t\nu = t;\n");
        // After clear, `t` has no definition and no builtin → Unknown.
        assert!(matches!(kind_of(&d, "t")[0], SymbolKind::Unknown));
    }

    #[test]
    fn loop_variable_is_definite_in_body_maybe_after() {
        let d = analyze("function f(N)\nfor k = 1:N\n a = k;\nend\nb = k;\n");
        let kinds = kind_of(&d, "k");
        // Use inside the body: variable; use after the loop: ambiguous.
        assert!(matches!(kinds[0], SymbolKind::Variable(_)));
        assert!(matches!(kinds[1], SymbolKind::Ambiguous(_)));
    }

    #[test]
    fn loop_carried_def_is_seen_on_second_pass() {
        // `s` is defined before the loop and updated inside; the use in
        // the body is definite.
        let d = analyze("function f(N)\ns = 0;\nfor k = 1:N\n s = s + k;\nend\n");
        assert!(matches!(kind_of(&d, "s")[0], SymbolKind::Variable(_)));
    }

    #[test]
    fn while_body_def_reaches_own_use_as_maybe() {
        let d = analyze("function f()\nwhile (1 < 2)\n u = v;\n v = 1;\nend\n");
        assert!(matches!(kind_of(&d, "v")[0], SymbolKind::Ambiguous(_)));
    }

    #[test]
    fn indexed_assignment_defines() {
        let d = analyze("function f(n)\nA(1) = 0;\nfor k = 2:n\n A(k) = A(k-1) + 1;\nend\n");
        assert!(matches!(kind_of(&d, "A")[0], SymbolKind::Variable(_)));
    }

    #[test]
    fn shadowing_a_builtin() {
        let d = analyze("function f()\npi = 3;\ny = pi;\n");
        assert!(matches!(kind_of(&d, "pi")[0], SymbolKind::Variable(_)));
    }

    #[test]
    fn symbol_table_interns_in_order() {
        let d = analyze("function [a, b] = f(x, y)\nc = x;\na = c;\nb = y;\n");
        assert_eq!(d.table.vars, ["x", "y", "a", "b", "c"]);
        assert_eq!(d.table.var_id("c"), Some(VarId(4)));
        assert_eq!(d.table.var_count(), 5);
    }

    #[test]
    fn break_paths_join_into_exit() {
        let d = analyze(
            "function f(N)\nfor k = 1:N\n if k > 2\n  t = 1;\n  break\n end\nend\nu = t;\n",
        );
        // t defined only on the break path → maybe at exit.
        assert!(matches!(kind_of(&d, "t")[0], SymbolKind::Ambiguous(_)));
    }

    #[test]
    fn continue_paths_join_into_head_and_exit() {
        // t is defined only on the path that ends in `continue`: maybe at
        // the next iteration's top and after the loop.
        let d = analyze(
            "function y = f(N)\nfor k = 1:N\n u = t;\n if k > 0\n  t = 5;\n  continue\n end\nend\ny = t;\n",
        );
        let kinds = kind_of(&d, "t");
        assert!(
            matches!(
                kinds[..],
                [SymbolKind::Ambiguous(_), SymbolKind::Ambiguous(_)]
            ),
            "got {kinds:?}"
        );
    }
}
