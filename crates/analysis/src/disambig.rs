//! Symbol disambiguation by reaching-definitions dataflow (paper §2.1).

use crate::flow::{run_flow, Dataflow};
use crate::inline::assigned_names;
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fact {
    /// On no path reaching the point.
    Undefined,
    /// On some paths only.
    Maybe,
    /// On every path.
    Definite,
}

/// The dataflow state: one fact per [`VarId`].
type State = Vec<Fact>;

struct Analyzer<'a> {
    known_functions: &'a HashSet<String>,
    table: SymbolTable,
    var_index: HashMap<String, VarId>,
}

impl<'a> Analyzer<'a> {
    /// The analyzer for `function` and its entry state. Every variable is
    /// interned up front: parameters first, then outputs, then locals in
    /// order of first definition. Parameters are defined at entry.
    fn new(function: &Function, known_functions: &'a HashSet<String>) -> (Self, State) {
        let mut a = Analyzer {
            known_functions,
            table: SymbolTable::default(),
            var_index: HashMap::new(),
        };
        let params_and_outputs = function.params.iter().chain(&function.outputs);
        for name in params_and_outputs
            .map(String::as_str)
            .chain(assigned_names(&function.body))
        {
            if !a.var_index.contains_key(name) {
                let id = VarId(a.table.vars.len() as u32);
                a.var_index.insert(name.to_owned(), id);
                a.table.vars.push(name.to_owned());
            }
        }
        let mut entry = vec![Fact::Undefined; a.table.var_count()];
        for p in &function.params {
            entry[a.var_index[p].index()] = Fact::Definite;
        }
        (a, entry)
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
        let kind = match var.map(|v| (v, state[v.index()])) {
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
        let vid = self.var_index[lv.name()];
        state[vid.index()] = Fact::Definite;
        self.table
            .symbols
            .insert(lv.id(), SymbolKind::Variable(vid));
    }
}

/// Reaching definitions on the three-point lattice
/// `Undefined`/`Definite` < `Maybe`: equal facts stay at a join,
/// different facts become `Maybe`.
impl Dataflow for Analyzer<'_> {
    type State = State;
    type ForVar = VarId;

    fn join(&self, a: &State, b: &State) -> State {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| if x == y { x } else { Fact::Maybe })
            .collect()
    }

    fn transfer(&mut self, s: &Stmt, state: &mut State) {
        match &s.kind {
            StmtKind::Expr { expr, .. } => self.visit_expr(expr, state),
            StmtKind::Assign { lhs, rhs, .. } => {
                self.visit_expr(rhs, state);
                self.define_lvalue(lhs, state);
            }
            StmtKind::MultiAssign {
                lhs,
                id,
                callee,
                args,
                ..
            } => {
                for a in args {
                    self.visit_expr(a, state);
                }
                // Multi-assign callees are always calls, never indexing.
                let kind = self.callable(callee);
                self.table.symbols.insert(*id, kind);
                for lv in lhs {
                    self.define_lvalue(lv, state);
                }
            }
            StmtKind::Global(names) => {
                for n in names {
                    state[self.var_index[n].index()] = Fact::Definite;
                }
            }
            StmtKind::Clear(names) => {
                if names.is_empty() {
                    state.fill(Fact::Undefined);
                }
                for v in names.iter().filter_map(|n| self.var_index.get(n)) {
                    state[v.index()] = Fact::Undefined;
                }
            }
            _ => unreachable!("control flow is the flow driver's"),
        }
    }

    fn condition(&mut self, cond: &Expr, state: &State) {
        self.visit_expr(cond, state);
    }

    fn enter_for(&mut self, var: &str, var_id: NodeId, iter: &Expr, entry: &State) -> VarId {
        self.visit_expr(iter, entry);
        let vid = self.var_index[var];
        self.table.symbols.insert(var_id, SymbolKind::Variable(vid));
        vid
    }

    /// The induction variable is definitely assigned inside the body;
    /// after the loop it is only maybe-assigned (empty ranges skip the
    /// body entirely).
    fn bind_for(&mut self, vid: &VarId, state: &mut State) {
        state[vid.index()] = Fact::Definite;
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
    let (mut a, entry) = Analyzer::new(function, known_functions);
    run_flow(&mut a, &function.body, entry);
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

    /// Disambiguation counting the straight-line statements it visits.
    struct Counting<'a>(Analyzer<'a>, usize);

    impl Dataflow for Counting<'_> {
        type State = State;
        type ForVar = VarId;

        fn join(&self, a: &State, b: &State) -> State {
            self.0.join(a, b)
        }

        fn transfer(&mut self, s: &Stmt, state: &mut State) {
            self.1 += 1;
            self.0.transfer(s, state);
        }

        fn condition(&mut self, cond: &Expr, state: &State) {
            self.0.condition(cond, state);
        }

        fn enter_for(&mut self, var: &str, id: NodeId, iter: &Expr, entry: &State) -> VarId {
            self.0.enter_for(var, id, iter, entry)
        }

        fn bind_for(&mut self, v: &VarId, state: &mut State) {
            self.0.bind_for(v, state);
        }
    }

    #[test]
    fn a_depth_12_loop_nest_is_visited_depth_plus_one_times() {
        let mut src = "function f()\n".to_owned();
        for k in 0..12 {
            src += &format!("for k{k} = 1:2\n");
        }
        src += "x = 1;\n";
        src += &"end\n".repeat(12);
        let f = &parse_source(&src).unwrap().functions[0];
        let known = HashSet::new();
        let (a, entry) = Analyzer::new(f, &known);
        let mut counting = Counting(a, 0);
        run_flow(&mut counting, &f.body, entry);
        assert_eq!(counting.1, 13);
    }

    #[test]
    fn dead_code_after_return_is_annotated_but_reaches_no_join() {
        // `t = 1` follows `return`: the `w = t` beside it is annotated
        // from the returned path, but only the fall-through path, where
        // `t` is undefined, reaches `u = t`.
        let d = analyze("function f(c)\nif c > 0\n return\n t = 1;\n w = t;\nend\nu = t;\n");
        let kinds = kind_of(&d, "t");
        assert!(
            matches!(kinds[..], [SymbolKind::Variable(_), SymbolKind::Unknown]),
            "got {kinds:?}"
        );
    }
}
