//! The code selector: typed AST → register IR.
//!
//! Selection reads nothing but the type annotations. A node annotated
//! `⊤` (nothing inferred) compiles to a generic library call on boxed
//! values, so a function compiled against empty annotations is the
//! `mcc` baseline; every specialization below is guarded by what the
//! annotations prove.

use majic_analysis::{assigned_names, global_or_clear, DisambiguatedFunction, SymbolKind, VarId};
use majic_ast::{walk_stmts, BinOp, Expr, ExprKind, LValue, NodeId, Stmt, StmtKind, UnOp};
use majic_ir::passes::PassOptions;
use majic_ir::{
    Block, BlockId, CBinOp, CUnOp, CmpOp, FBinOp, FUnOp, Function, GenOp, Inst, LoopInfo, Operand,
    Reg, Slot, Terminator, VarBinding,
};
use majic_runtime::builtins::Builtin;
use majic_types::{Dim, Intrinsic, Lattice, Type};
use majic_vm::RegAllocMode;
use std::error::Error;
use std::fmt;

use majic_infer::Annotations;

/// Code generation knobs. None of them steers selection, which follows
/// the annotations alone.
#[derive(Clone, Copy, Debug)]
pub struct CodegenOptions {
    /// Oversize arrays on resizing stores (paper §2.6.1).
    pub oversize: bool,
    /// IR passes to run after selection.
    pub passes: PassOptions,
    /// Register-allocation mode.
    pub regalloc: RegAllocMode,
}

/// Why a function could not be compiled (the engine falls back to the
/// interpreter).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodegenError(pub String);

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot compile: {}", self.0)
    }
}

impl Error for CodegenError {}

/// Where a variable lives in compiled code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum VarLoc {
    F(Reg),
    C(Reg),
    Slot(Slot),
}

impl VarLoc {
    fn binding(self) -> VarBinding {
        match self {
            VarLoc::F(r) => VarBinding::F(r),
            VarLoc::C(r) => VarBinding::C(r),
            VarLoc::Slot(s) => VarBinding::Slot(s),
        }
    }

    fn operand(self) -> Operand {
        match self {
            VarLoc::F(r) => Operand::F(r),
            VarLoc::C(r) => Operand::C(r),
            VarLoc::Slot(s) => Operand::Slot(s),
        }
    }

    fn value(self) -> RVal {
        match self {
            VarLoc::F(r) => RVal::F(r),
            VarLoc::C(r) => RVal::C(r),
            VarLoc::Slot(s) => RVal::Slot(s),
        }
    }
}

/// A compiled expression value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RVal {
    F(Reg),
    /// An `F` register holding 0/1 whose value is *logical* (the result
    /// of a comparison or logical operator). Arithmetic consumes it
    /// like any `F` register, but boxing must produce `Value::Bool` so
    /// compiled code preserves the class the interpreter observes
    /// (function results, logical indexing, `disp`).
    FB(Reg),
    C(Reg),
    Slot(Slot),
}

/// What kind of value an annotation describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    F,
    C,
    Slot,
}

fn kind_of(t: &Type) -> Kind {
    if t.is_scalar() && t.intrinsic.le(&Intrinsic::Real) && t.intrinsic != Intrinsic::Bottom {
        Kind::F
    } else if t.is_scalar()
        && t.intrinsic.le(&Intrinsic::Complex)
        && t.intrinsic != Intrinsic::Bottom
    {
        Kind::C
    } else {
        Kind::Slot
    }
}

/// Compile one disambiguated, type-annotated function to (virtual
/// register) IR.
///
/// # Errors
///
/// Fails on `global` / `clear` statements, which compiled frames cannot
/// honor; the engine interprets such functions instead.
pub fn compile(
    d: &DisambiguatedFunction,
    ann: &Annotations,
    opts: &CodegenOptions,
) -> Result<Function, CodegenError> {
    match global_or_clear(&d.function.body).map(|s| &s.kind) {
        Some(StmtKind::Global(_)) => return Err(CodegenError("global variables".to_owned())),
        Some(_) => return Err(CodegenError("clear statements".to_owned())),
        None => {}
    }
    let mut g = Gen::new(d, ann, opts);
    g.classify_vars();
    g.func.params = g.bindings(&d.function.params);
    g.block(&d.function.body);
    g.seal(Terminator::Return);
    g.func.outputs = g.bindings(&d.function.outputs);
    Ok(g.func)
}

struct Gen<'a> {
    d: &'a DisambiguatedFunction,
    ann: &'a Annotations,
    opts: &'a CodegenOptions,
    func: Function,
    cur: BlockId,
    var_locs: Vec<VarLoc>,
    /// Slots below this index belong to variables; everything allocated
    /// afterwards is a single-use expression temporary (see
    /// [`Gen::is_temp_slot`]).
    var_slot_end: u32,
    /// Temporaries pre-allocated once in the entry block and refilled on
    /// every execution (small matrix literals, unrolled elementwise
    /// results). These outlive a single consumption and must never be
    /// moved out of.
    persistent_slots: Vec<Slot>,
    /// Where `break` and `continue` go in each enclosing loop.
    loop_stack: Vec<LoopExits>,
}

/// The targets of `break` and `continue` inside one loop.
enum LoopExits {
    /// A real loop: `continue` jumps to `cont`, `break` to `exit`.
    Loop { cont: BlockId, exit: BlockId },
    /// A single-trip loop lowered straight: both leave the body. Its
    /// exit block is allocated after the body, so the blocks that jump
    /// there wait here for its id.
    Once(Vec<BlockId>),
}

impl<'a> Gen<'a> {
    fn new(d: &'a DisambiguatedFunction, ann: &'a Annotations, opts: &'a CodegenOptions) -> Self {
        let mut func = Function {
            name: d.function.name.clone(),
            ..Function::default()
        };
        func.blocks.push(Block::default());
        Gen {
            d,
            ann,
            opts,
            func,
            cur: BlockId(0),
            var_locs: Vec::new(),
            var_slot_end: 0,
            persistent_slots: Vec::new(),
            loop_stack: Vec::new(),
        }
    }

    // ---- infrastructure ----

    fn fresh_f(&mut self) -> Reg {
        let r = Reg(self.func.f_regs);
        self.func.f_regs += 1;
        r
    }

    fn fresh_c(&mut self) -> Reg {
        let r = Reg(self.func.c_regs);
        self.func.c_regs += 1;
        r
    }

    fn fresh_slot(&mut self) -> Slot {
        let s = Slot(self.func.slots);
        self.func.slots += 1;
        s
    }

    fn emit(&mut self, i: Inst) {
        self.func.blocks[self.cur.index()].insts.push(i);
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.func.blocks.len() as u32);
        self.func.blocks.push(Block::default());
        id
    }

    fn seal(&mut self, t: Terminator) {
        self.func.blocks[self.cur.index()].term = t;
    }

    fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    fn fconst(&mut self, v: f64) -> Reg {
        let d = self.fresh_f();
        self.emit(Inst::FConst { d, v });
        d
    }

    /// Emit the generic operation `op` into a fresh temporary slot.
    fn gen_value(&mut self, op: GenOp, args: Vec<Operand>) -> RVal {
        let dst = self.fresh_slot();
        self.emit(Inst::Gen {
            op,
            dsts: vec![dst],
            args,
        });
        RVal::Slot(dst)
    }

    /// Call arguments, in order, as generic operands.
    fn operands(&mut self, args: &[Expr]) -> Vec<Operand> {
        args.iter()
            .map(|a| {
                let v = self.expr(a, None);
                self.to_operand(v)
            })
            .collect()
    }

    fn emit_display(&mut self, name: &str, arg: Operand) {
        self.emit(Inst::Gen {
            op: GenOp::Display(name.to_owned()),
            dsts: vec![],
            args: vec![arg],
        });
    }

    // ---- variable classification ----

    fn classify_vars(&mut self) {
        let n = self.d.table.var_count();
        let mut forced_slot = vec![false; n];
        let mut types: Vec<Vec<Type>> = vec![Vec::new(); n];

        // Parameter types from the signature the annotations ran with.
        for (k, p) in self.d.function.params.iter().enumerate() {
            if let Some(v) = self.d.table.var_id(p) {
                if let Some(t) = self.ann.params.get(k) {
                    types[v.index()].push(*t);
                }
            }
        }
        // Assignment sites and forced-slot positions.
        collect_var_evidence(
            &self.d.function.body,
            self.d,
            self.ann,
            &mut types,
            &mut forced_slot,
        );

        self.var_locs = (0..n)
            .map(|i| {
                if forced_slot[i] || types[i].is_empty() {
                    return VarLoc::Slot(Slot(u32::MAX)); // placeholder
                }
                // A variable that may hold a logical scalar lives in a
                // slot: an unboxed `F` register cannot carry the class
                // bit, and the class is observable (logical indexing,
                // function results, display).
                let maybe_bool = types[i].iter().any(|t| t.intrinsic == Intrinsic::Bool);
                let all_f = !maybe_bool && types[i].iter().all(|t| kind_of(t) == Kind::F);
                let all_scalar = !maybe_bool
                    && types[i]
                        .iter()
                        .all(|t| matches!(kind_of(t), Kind::F | Kind::C));
                if all_f {
                    VarLoc::F(Reg(u32::MAX))
                } else if all_scalar {
                    VarLoc::C(Reg(u32::MAX))
                } else {
                    VarLoc::Slot(Slot(u32::MAX))
                }
            })
            .collect();
        // Materialize the placeholders.
        for i in 0..n {
            self.var_locs[i] = match self.var_locs[i] {
                VarLoc::F(_) => VarLoc::F(self.fresh_f()),
                VarLoc::C(_) => VarLoc::C(self.fresh_c()),
                VarLoc::Slot(_) => VarLoc::Slot(self.fresh_slot()),
            };
        }
        // Every slot allocated from here on is an expression temporary.
        self.var_slot_end = self.func.slots;
    }

    /// Whether `s` is a single-use expression temporary (as opposed to a
    /// variable's home slot). Temporaries are produced immediately
    /// before their one consumer, so a consumer that stores one into a
    /// variable may *move* it — leaving a clone behind would keep a
    /// second owner of the buffer alive and force the variable's next
    /// element store to deep-copy under copy-on-write.
    fn is_temp_slot(&self, s: Slot) -> bool {
        s.0 >= self.var_slot_end && !self.persistent_slots.contains(&s)
    }

    fn var_loc(&self, v: VarId) -> VarLoc {
        self.var_locs[v.index()]
    }

    /// Where the named parameters or outputs live.
    fn bindings(&self, names: &[String]) -> Vec<VarBinding> {
        names
            .iter()
            .map(|n| {
                let v = self.d.table.var_id(n).expect("interned");
                self.var_loc(v).binding()
            })
            .collect()
    }

    // ---- coercions ----

    // `to_*` here converts the *argument* into the named storage class
    // (emitting moves), not `self`; the convention lint does not apply.
    #[allow(clippy::wrong_self_convention)]
    fn to_f(&mut self, v: RVal) -> Reg {
        match v {
            // A logical 0/1 *is* its double value (`true + 1 == 2`).
            RVal::F(r) | RVal::FB(r) => r,
            RVal::C(c) => {
                let d = self.fresh_f();
                self.emit(Inst::CPart {
                    d,
                    s: c,
                    imag: false,
                });
                d
            }
            RVal::Slot(s) => {
                let d = self.fresh_f();
                self.emit(Inst::SlotToF { d, slot: s });
                d
            }
        }
    }

    #[allow(clippy::wrong_self_convention)]
    fn to_c(&mut self, v: RVal) -> Reg {
        match v {
            RVal::C(r) => r,
            RVal::F(r) | RVal::FB(r) => {
                let zero = self.fconst(0.0);
                let d = self.fresh_c();
                self.emit(Inst::CMake { d, re: r, im: zero });
                d
            }
            RVal::Slot(s) => {
                let d = self.fresh_c();
                self.emit(Inst::SlotToC { d, slot: s });
                d
            }
        }
    }

    #[allow(clippy::wrong_self_convention)]
    fn to_slot(&mut self, v: RVal) -> Slot {
        match v {
            RVal::Slot(s) => s,
            RVal::F(r) => {
                let slot = self.fresh_slot();
                self.emit(Inst::FToSlot { slot, s: r });
                slot
            }
            RVal::FB(r) => {
                let slot = self.fresh_slot();
                self.emit(Inst::FToSlotBool { slot, s: r });
                slot
            }
            RVal::C(r) => {
                let slot = self.fresh_slot();
                self.emit(Inst::CToSlot { slot, s: r });
                slot
            }
        }
    }

    #[allow(clippy::wrong_self_convention)]
    fn to_operand(&mut self, v: RVal) -> Operand {
        match v {
            RVal::F(r) => Operand::F(r),
            // `Operand::F` materializes as a real scalar in the VM, so
            // logical values must cross generic boundaries boxed — the
            // class is observable to callees, indexing, and display.
            RVal::FB(_) => Operand::Slot(self.to_slot(v)),
            RVal::C(r) => Operand::C(r),
            RVal::Slot(s) => Operand::Slot(s),
        }
    }

    /// Truthiness of a value into an `F` register (0/1).
    fn truth(&mut self, v: RVal, t: &Type) -> Reg {
        match v {
            // Logical values are already 0/1 — use them directly.
            RVal::FB(r) => r,
            RVal::F(r) => {
                // Scalars are true iff nonzero; comparisons already
                // produce 0/1, so `r != 0` is the general form.
                if t.range == majic_types::Range::new(0.0, 1.0) {
                    r
                } else {
                    let zero = self.fconst(0.0);
                    let d = self.fresh_f();
                    self.emit(Inst::FCmp {
                        op: CmpOp::Ne,
                        d,
                        a: r,
                        b: zero,
                    });
                    d
                }
            }
            RVal::C(c) => {
                let a = self.fresh_f();
                self.emit(Inst::CAbs { d: a, s: c });
                let zero = self.fconst(0.0);
                let d = self.fresh_f();
                self.emit(Inst::FCmp {
                    op: CmpOp::Ne,
                    d,
                    a,
                    b: zero,
                });
                d
            }
            RVal::Slot(s) => {
                let d = self.fresh_f();
                self.emit(Inst::TruthF { d, slot: s });
                d
            }
        }
    }

    // ---- statements ----

    fn block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr { expr, suppressed } => {
                // A call in statement position may legitimately produce
                // no value (e.g. `disp(x)`).
                if let Some(v) = self.expr_stmt_value(expr) {
                    if !*suppressed {
                        let op = self.to_operand(v);
                        self.emit_display("ans", op);
                    }
                }
            }
            StmtKind::Assign {
                lhs,
                rhs,
                suppressed,
            } => {
                if !self.try_assign_unrolled(lhs, rhs) {
                    let v = self.expr(rhs, None);
                    self.assign(lhs, v);
                }
                if !*suppressed {
                    self.display(lhs.name());
                }
            }
            StmtKind::MultiAssign {
                lhs,
                id,
                callee,
                args,
                suppressed,
            } => {
                let argv = self.operands(args);
                let dsts: Vec<Slot> = (0..lhs.len()).map(|_| self.fresh_slot()).collect();
                let op = match self.d.table.kind(*id) {
                    SymbolKind::Builtin(b) => GenOp::CallBuiltin(b),
                    _ => GenOp::CallUser(callee.clone()),
                };
                self.emit(Inst::Gen {
                    op,
                    dsts: dsts.clone(),
                    args: argv,
                });
                for (lv, tmp) in lhs.iter().zip(dsts) {
                    self.assign(lv, RVal::Slot(tmp));
                    if !*suppressed {
                        self.display(lv.name());
                    }
                }
            }
            StmtKind::If {
                branches,
                else_body,
            } => {
                // The merge block must be created *after* every arm so
                // that block ids (the linear-scan position order) follow
                // execution order: a live interval ending at a use in the
                // merge must cover the arm blocks that execute first.
                // Arm-end jumps are therefore deferred until the merge id
                // is known.
                let mut exits = Vec::with_capacity(branches.len() + 1);
                let mut next_test = self.cur;
                for (cond, body) in branches {
                    self.switch_to(next_test);
                    let ct = self.ann.ty(cond.id);
                    let cv = self.expr(cond, None);
                    let c = self.truth(cv, &ct);
                    let then_bb = self.new_block();
                    next_test = self.new_block();
                    self.seal(Terminator::Branch {
                        cond: c,
                        then_bb,
                        else_bb: next_test,
                    });
                    self.switch_to(then_bb);
                    self.block(body);
                    exits.push(self.cur);
                }
                self.switch_to(next_test);
                if let Some(body) = else_body {
                    self.block(body);
                }
                exits.push(self.cur);
                let merge = self.new_block();
                for b in exits {
                    self.switch_to(b);
                    self.seal(Terminator::Jump(merge));
                }
                self.switch_to(merge);
            }
            StmtKind::While { cond, body } => {
                let preheader = self.new_block();
                self.seal(Terminator::Jump(preheader));
                let header = self.new_block();
                self.switch_to(preheader);
                self.seal(Terminator::Jump(header));
                let exit = self.new_block();
                let loop_body_start = self.func.blocks.len() as u32;
                self.switch_to(header);
                let ct = self.ann.ty(cond.id);
                let cv = self.expr(cond, None);
                let c = self.truth(cv, &ct);
                let body_bb = self.new_block();
                self.seal(Terminator::Branch {
                    cond: c,
                    then_bb: body_bb,
                    else_bb: exit,
                });
                self.switch_to(body_bb);
                self.loop_stack.push(LoopExits::Loop { cont: header, exit });
                self.block(body);
                self.loop_stack.pop();
                self.seal(Terminator::Jump(header));
                let loop_body_end = self.func.blocks.len() as u32;
                let mut blocks: Vec<BlockId> = vec![header];
                blocks.extend((loop_body_start..loop_body_end).map(BlockId));
                self.func.loops.push(LoopInfo {
                    preheader,
                    header,
                    blocks,
                });
                self.switch_to(exit);
            }
            StmtKind::For {
                var,
                var_id,
                iter,
                body,
            } => self.for_stmt(var, *var_id, iter, body),
            StmtKind::Break | StmtKind::Continue => {
                let is_break = matches!(s.kind, StmtKind::Break);
                match self.loop_stack.last_mut() {
                    Some(LoopExits::Loop { cont, exit }) => {
                        let target = if is_break { *exit } else { *cont };
                        self.seal(Terminator::Jump(target));
                    }
                    // Sealed when the exit block exists.
                    Some(LoopExits::Once(pending)) => pending.push(self.cur),
                    None => self.seal(Terminator::Return),
                }
                let dead = self.new_block();
                self.switch_to(dead);
            }
            StmtKind::Return => {
                self.seal(Terminator::Return);
                let dead = self.new_block();
                self.switch_to(dead);
            }
            StmtKind::Global(_) | StmtKind::Clear(_) => {
                unreachable!("rejected by compile")
            }
        }
    }

    fn display(&mut self, name: &str) {
        if let Some(v) = self.d.table.var_id(name) {
            let op = self.var_loc(v).operand();
            self.emit_display(name, op);
        }
    }

    fn assign(&mut self, lhs: &LValue, v: RVal) {
        match lhs {
            LValue::Var { name, .. } => {
                let var = self.d.table.var_id(name).expect("interned");
                match self.var_loc(var) {
                    VarLoc::F(r) => {
                        let s = self.to_f(v);
                        self.emit(Inst::FMov { d: r, s });
                    }
                    VarLoc::C(r) => {
                        let s = self.to_c(v);
                        self.emit(Inst::CMov { d: r, s });
                    }
                    VarLoc::Slot(slot) => match v {
                        RVal::F(s) => self.emit(Inst::FToSlot { slot, s }),
                        RVal::FB(s) => self.emit(Inst::FToSlotBool { slot, s }),
                        RVal::C(s) => self.emit(Inst::CToSlot { slot, s }),
                        RVal::Slot(s) => {
                            if s != slot {
                                // `x = y` between variables shares the
                                // buffer (CoW clone); a temporary is
                                // dead after this and is moved instead.
                                if self.is_temp_slot(s) {
                                    self.emit(Inst::SlotTake { d: slot, s });
                                } else {
                                    self.emit(Inst::SlotMov { d: slot, s });
                                }
                            }
                        }
                    },
                }
            }
            LValue::Index { name, args, id, .. } => {
                let var = self.d.table.var_id(name).expect("interned");
                let VarLoc::Slot(arr) = self.var_loc(var) else {
                    unreachable!("classification puts an indexed store's target in a slot")
                };
                let base_t = self.ann.base_ty(*id);
                let scalar_subs = self.scalar_subscripts(args);
                let checked = !in_bounds_provable(&base_t, args, self.ann);
                let oversize = self.opts.oversize;
                // A logical RHS takes the generic store path: storing a
                // logical into a logical array keeps the array logical,
                // which the real-scalar fast path cannot express.
                match v {
                    RVal::F(v) if scalar_subs && base_t.intrinsic.le(&Intrinsic::Real) => {
                        let (i, j) = self.index_regs(arr, args);
                        self.emit(Inst::AStoreF {
                            arr,
                            i,
                            j,
                            v,
                            checked,
                            oversize,
                        });
                    }
                    RVal::C(v) if scalar_subs && base_t.intrinsic.le(&Intrinsic::Complex) => {
                        let (i, j) = self.index_regs(arr, args);
                        self.emit(Inst::AStoreC {
                            arr,
                            i,
                            j,
                            v,
                            checked,
                            oversize,
                        });
                    }
                    _ => {
                        let mut gen_args = self.subscripts(arr, args, true);
                        gen_args.push(self.to_operand(v));
                        self.emit(Inst::Gen {
                            op: GenOp::IndexSet { oversize },
                            dsts: vec![],
                            args: gen_args,
                        });
                    }
                }
            }
        }
    }

    /// Whether `args` are one or two real-scalar subscripts, which index
    /// in registers.
    fn scalar_subscripts(&self, args: &[Expr]) -> bool {
        (1..=2).contains(&args.len())
            && args.iter().all(|a| {
                let t = self.ann.ty(a.id);
                !matches!(a.kind, ExprKind::Colon)
                    && t.is_scalar()
                    && t.intrinsic.le(&Intrinsic::Real)
            })
    }

    /// The scalar subscripts of `arr` in `F` registers: (row or linear
    /// index, column).
    fn index_regs(&mut self, arr: Slot, args: &[Expr]) -> (Reg, Option<Reg>) {
        let idx: Vec<Reg> = args
            .iter()
            .enumerate()
            .map(|(k, a)| {
                let ev = self.expr(a, Some((arr, end_dim(k, args.len()))));
                self.to_f(ev)
            })
            .collect();
        (idx[0], idx.get(1).copied())
    }

    /// `base` and its subscripts as generic operands (`end` inside a
    /// subscript reads `base`'s extent when `end_of_base` is set).
    fn subscripts(&mut self, base: Slot, args: &[Expr], end_of_base: bool) -> Vec<Operand> {
        let mut ops = vec![Operand::Slot(base)];
        for (k, a) in args.iter().enumerate() {
            if matches!(a.kind, ExprKind::Colon) {
                ops.push(Operand::Colon);
            } else {
                let end_ctx = end_of_base.then(|| (base, end_dim(k, args.len())));
                let ev = self.expr(a, end_ctx);
                ops.push(self.to_operand(ev));
            }
        }
        ops
    }

    /// `v = <small elementwise expr>` straight into `v`'s own buffer —
    /// the paper's pre-allocated temporaries, statement-level form. Safe
    /// because elementwise outputs depend only on same-index inputs.
    fn try_assign_unrolled(&mut self, lhs: &LValue, rhs: &Expr) -> bool {
        let LValue::Var { name, .. } = lhs else {
            return false;
        };
        let Some(var) = self.d.table.var_id(name) else {
            return false;
        };
        let VarLoc::Slot(slot) = self.var_loc(var) else {
            return false;
        };
        let ExprKind::Binary { op, lhs: a, rhs: b } = &rhs.kind else {
            return false;
        };
        let t = self.ann.ty(rhs.id);
        let (lt, rt) = (self.ann.ty(a.id), self.ann.ty(b.id));
        let scalar_side = lt.is_scalar() || rt.is_scalar();
        if !(op.is_elementwise() || scalar_side) {
            return false;
        }
        self.try_unrolled_elementwise(*op, a, b, &t, Some(slot))
            .is_some()
    }

    /// The shell every `for` loop but a single-trip one shares: a
    /// header testing `counter op bound`, a body that `bind` opens by
    /// setting the loop variable, and a latch adding `step` (a fresh 1
    /// when `None`) to the counter.
    fn for_loop(
        &mut self,
        op: CmpOp,
        counter: Reg,
        bound: Reg,
        step: Option<Reg>,
        bind: impl FnOnce(&mut Self),
        body: &[Stmt],
    ) {
        let preheader = self.new_block();
        self.seal(Terminator::Jump(preheader));
        let header = self.new_block();
        self.switch_to(preheader);
        self.seal(Terminator::Jump(header));
        let exit = self.new_block();
        let latch = self.new_block();
        let body_start = self.func.blocks.len() as u32;

        self.switch_to(header);
        let c = self.fresh_f();
        self.emit(Inst::FCmp {
            op,
            d: c,
            a: counter,
            b: bound,
        });
        let body_bb = self.new_block();
        self.seal(Terminator::Branch {
            cond: c,
            then_bb: body_bb,
            else_bb: exit,
        });
        self.switch_to(body_bb);
        bind(self);
        self.loop_stack.push(LoopExits::Loop { cont: latch, exit });
        self.block(body);
        self.loop_stack.pop();
        self.seal(Terminator::Jump(latch));
        self.switch_to(latch);
        let step = match step {
            Some(s) => s,
            None => self.fconst(1.0),
        };
        self.emit(Inst::FBin {
            op: FBinOp::Add,
            d: counter,
            a: counter,
            b: step,
        });
        self.seal(Terminator::Jump(header));
        let body_end = self.func.blocks.len() as u32;
        let mut blocks = vec![header, latch];
        blocks.extend((body_start..body_end).map(BlockId));
        self.func.loops.push(LoopInfo {
            preheader,
            header,
            blocks,
        });
        self.switch_to(exit);
    }

    /// `for k = c:c` over one finite real literal runs its body once,
    /// so it is lowered as straight-line code: set `k`, emit the body,
    /// and send `break` and `continue` to an exit block. The exit is
    /// allocated *after* the body, so block ids (linear scan's position
    /// order) still follow execution order; the blocks that leave early
    /// are sealed once its id is known. There is no header, latch or
    /// [`LoopInfo`]: with no back-edge, LICM has nothing to hoist out.
    /// The inliner wraps every early-returning callee in such a loop.
    fn single_trip(&mut self, var: Reg, c: f64, body: &[Stmt]) {
        self.emit(Inst::FConst { d: var, v: c });
        self.loop_stack.push(LoopExits::Once(Vec::new()));
        self.block(body);
        let Some(LoopExits::Once(pending)) = self.loop_stack.pop() else {
            unreachable!("loop stack unbalanced")
        };
        if pending.is_empty() {
            return;
        }
        let exit = self.new_block();
        self.seal(Terminator::Jump(exit));
        for b in pending {
            self.func.blocks[b.index()].term = Terminator::Jump(exit);
        }
        self.switch_to(exit);
    }

    /// Bind a loop variable to this trip's real value `k`.
    fn bind_loop_var(&mut self, var: VarId, k: Reg) {
        match self.var_loc(var) {
            VarLoc::F(r) => self.emit(Inst::FMov { d: r, s: k }),
            VarLoc::C(r) => {
                let zero = self.fconst(0.0);
                self.emit(Inst::CMake {
                    d: r,
                    re: k,
                    im: zero,
                });
            }
            VarLoc::Slot(slot) => self.emit(Inst::FToSlot { slot, s: k }),
        }
    }

    /// Lower `for var = iter`, picking the first form that applies:
    /// straight-line code for a literal one-element range `c:c` with a
    /// register loop variable ([`Gen::single_trip`]); a direct-form loop
    /// counting in the variable itself for a literal integer step the
    /// body never overwrites; a counted loop for any other scalar range;
    /// and otherwise a loop over the columns of the evaluated `iter`.
    fn for_stmt(&mut self, var: &str, var_id: NodeId, iter: &Expr, body: &[Stmt]) {
        let var_vid = self.d.table.var_id(var).expect("interned");
        let elem_t = self.ann.ty(var_id);

        // Counted-loop fast path: `for k = a:s:b` with scalar bounds and a
        // register-class loop variable.
        if let ExprKind::Range { start, step, stop } = &iter.kind {
            if let (None, Some(a), Some(b), VarLoc::F(kreg)) = (
                step,
                real_literal(start),
                real_literal(stop),
                self.var_loc(var_vid),
            ) {
                if a == b && a.is_finite() {
                    self.single_trip(kreg, a, body);
                    return;
                }
            }
            let bounds_scalar = self.ann.ty(start.id).is_scalar()
                && self.ann.ty(stop.id).is_scalar()
                && step.as_ref().is_none_or(|s| self.ann.ty(s.id).is_scalar());
            if bounds_scalar {
                // Direct-form loop: when the step is a known integer
                // constant and the body never writes the loop variable,
                // the variable itself is the counter (`k = a; …; k += s`)
                // — an exact iteration (integer increments don't drift)
                // with three fewer instructions per trip.
                let static_step: Option<f64> = match step {
                    None => Some(1.0),
                    Some(st) => real_literal(st).filter(|v| v.fract() == 0.0 && *v != 0.0),
                };
                if let (Some(step_v), VarLoc::F(kreg)) = (static_step, self.var_loc(var_vid)) {
                    if !assigned_names(body).any(|n| n == var) {
                        let a0 = self.expr(start, None);
                        let a = self.to_f(a0);
                        let b0 = self.expr(stop, None);
                        let b = self.to_f(b0);
                        // Keep the bound in a dedicated register so the
                        // header's compare survives whatever the body does.
                        let bound = self.fresh_f();
                        self.emit(Inst::FMov { d: bound, s: b });
                        let step = self.fconst(step_v);
                        self.emit(Inst::FMov { d: kreg, s: a });
                        let op = if step_v > 0.0 { CmpOp::Le } else { CmpOp::Ge };
                        self.for_loop(op, kreg, bound, Some(step), |_| {}, body);
                        return;
                    }
                }
                let a0 = self.expr(start, None);
                let a = self.to_f(a0);
                let s = match step {
                    Some(st) => {
                        let sv = self.expr(st, None);
                        self.to_f(sv)
                    }
                    None => self.fconst(1.0),
                };
                let b0 = self.expr(stop, None);
                let b = self.to_f(b0);
                // n = floor((b - a)/s + 1e-10) + 1 (clamped below by the
                // loop condition).
                let diff = self.fresh_f();
                self.emit(Inst::FBin {
                    op: FBinOp::Sub,
                    d: diff,
                    a: b,
                    b: a,
                });
                let quot = self.fresh_f();
                self.emit(Inst::FBin {
                    op: FBinOp::Div,
                    d: quot,
                    a: diff,
                    b: s,
                });
                let epsr = self.fconst(1e-10);
                let quot2 = self.fresh_f();
                self.emit(Inst::FBin {
                    op: FBinOp::Add,
                    d: quot2,
                    a: quot,
                    b: epsr,
                });
                let fl = self.fresh_f();
                self.emit(Inst::FUn {
                    op: FUnOp::Floor,
                    d: fl,
                    s: quot2,
                });
                let one = self.fconst(1.0);
                let n = self.fresh_f();
                self.emit(Inst::FBin {
                    op: FBinOp::Add,
                    d: n,
                    a: fl,
                    b: one,
                });
                let i = self.fresh_f();
                let zero = self.fconst(0.0);
                self.emit(Inst::FMov { d: i, s: zero });
                let bind = |g: &mut Self| {
                    // k = a + i*s
                    let scaled = g.fresh_f();
                    g.emit(Inst::FBin {
                        op: FBinOp::Mul,
                        d: scaled,
                        a: i,
                        b: s,
                    });
                    let k = g.fresh_f();
                    g.emit(Inst::FBin {
                        op: FBinOp::Add,
                        d: k,
                        a,
                        b: scaled,
                    });
                    g.bind_loop_var(var_vid, k);
                };
                self.for_loop(CmpOp::Lt, i, n, None, bind, body);
                return;
            }
        }

        // Generic path: iterate over the columns of the evaluated space.
        let space_v = self.expr(iter, None);
        let space = self.to_slot(space_v);
        let ncols = self.fresh_f();
        self.emit(Inst::ExtentF {
            d: ncols,
            arr: space,
            dim: 2,
        });
        let i = self.fconst(1.0);
        // Element: row vectors bind scalars; matrices bind columns.
        let bind = |g: &mut Self| {
            if kind_of(&elem_t) == Kind::F {
                let d = g.fresh_f();
                g.emit(Inst::ALoadF {
                    d,
                    arr: space,
                    i,
                    j: None,
                    checked: true,
                });
                g.bind_loop_var(var_vid, d);
                return;
            }
            let loc = g.var_loc(var_vid);
            let dst = match loc {
                VarLoc::Slot(s) => s,
                _ => g.fresh_slot(),
            };
            g.emit(Inst::Gen {
                op: GenOp::IndexGet,
                dsts: vec![dst],
                args: vec![Operand::Slot(space), Operand::Colon, Operand::F(i)],
            });
            match loc {
                VarLoc::Slot(_) => {}
                VarLoc::F(r) => g.emit(Inst::SlotToF { d: r, slot: dst }),
                VarLoc::C(r) => g.emit(Inst::SlotToC { d: r, slot: dst }),
            }
        };
        self.for_loop(CmpOp::Le, i, ncols, None, bind, body);
    }

    // ---- expressions ----

    /// Statement-position expression: may produce no value (zero-output
    /// call).
    fn expr_stmt_value(&mut self, e: &Expr) -> Option<RVal> {
        if let ExprKind::Apply { callee, args } = &e.kind {
            let kind = self.d.table.kind(e.id);
            if matches!(
                kind,
                SymbolKind::Builtin(_) | SymbolKind::UserFunction | SymbolKind::Unknown
            ) {
                let argv = self.operands(args);
                let op = match kind {
                    SymbolKind::Builtin(b) => GenOp::CallBuiltin(b),
                    _ => GenOp::CallUser(callee.clone()),
                };
                // Builtins like disp/fprintf/error yield nothing.
                let void = matches!(
                    kind,
                    SymbolKind::Builtin(Builtin::Disp | Builtin::Fprintf | Builtin::Error)
                );
                let dsts = if void {
                    vec![]
                } else {
                    vec![self.fresh_slot()]
                };
                self.emit(Inst::Gen {
                    op,
                    dsts: dsts.clone(),
                    args: argv,
                });
                return dsts.first().map(|s| RVal::Slot(*s));
            }
        }
        Some(self.expr(e, None))
    }

    /// Generate code for an expression. `end_ctx` carries the array and
    /// dimension `end` refers to inside subscripts.
    fn expr(&mut self, e: &Expr, end_ctx: Option<(Slot, u8)>) -> RVal {
        let t = self.ann.ty(e.id);
        match &e.kind {
            ExprKind::Number { value, imaginary } => {
                if *imaginary {
                    let d = self.fresh_c();
                    self.emit(Inst::CConst {
                        d,
                        re: 0.0,
                        im: *value,
                    });
                    return RVal::C(d);
                }
                let r = RVal::F(self.fconst(*value));
                // Without type information a literal is boxed like any
                // other value.
                if t.intrinsic == Intrinsic::Top {
                    RVal::Slot(self.to_slot(r))
                } else {
                    r
                }
            }
            // Unary `+` is the identity: a cheap way to box a literal.
            ExprKind::Str(s) => self.gen_value(GenOp::Unary("+"), vec![Operand::Str(s.clone())]),
            ExprKind::Ident(name) => self.ident(e.id, name, &t),
            ExprKind::Apply { callee, args } => self.apply(e.id, callee, args, &t),
            ExprKind::Range { start, step, stop } => {
                let mut gen_args = Vec::new();
                let sv = self.expr(start, end_ctx);
                gen_args.push(self.to_operand(sv));
                if let Some(st) = step {
                    let stv = self.expr(st, end_ctx);
                    gen_args.push(self.to_operand(stv));
                }
                let ev = self.expr(stop, end_ctx);
                gen_args.push(self.to_operand(ev));
                self.gen_value(GenOp::Range, gen_args)
            }
            ExprKind::Colon => {
                // Only reachable through malformed input; boxes a marker
                // error at runtime.
                let slot = self.fresh_slot();
                self.emit(Inst::ErrUndefined(":".to_owned()));
                RVal::Slot(slot)
            }
            ExprKind::End => match end_ctx {
                Some((arr, dim)) => {
                    let d = self.fresh_f();
                    self.emit(Inst::ExtentF { d, arr, dim });
                    RVal::F(d)
                }
                None => {
                    self.emit(Inst::ErrUndefined("end".to_owned()));
                    RVal::F(self.fconst(0.0))
                }
            },
            ExprKind::Unary { op, operand } => {
                let ov = self.expr(operand, end_ctx);
                let ot = self.ann.ty(operand.id);
                match (op, kind_of(&t), ov) {
                    (UnOp::Plus, _, v) => v,
                    (UnOp::Neg, Kind::F, v) if kind_of(&ot) == Kind::F => {
                        let s = self.to_f(v);
                        let d = self.fresh_f();
                        self.emit(Inst::FUn {
                            op: FUnOp::Neg,
                            d,
                            s,
                        });
                        RVal::F(d)
                    }
                    (UnOp::Neg, Kind::C, v) if kind_of(&ot) != Kind::Slot => {
                        let s = self.to_c(v);
                        let d = self.fresh_c();
                        self.emit(Inst::CUn {
                            op: CUnOp::Neg,
                            d,
                            s,
                        });
                        RVal::C(d)
                    }
                    (UnOp::Not, Kind::F, v) if kind_of(&ot) == Kind::F => {
                        let s = self.to_f(v);
                        let d = self.fresh_f();
                        self.emit(Inst::FUn {
                            op: FUnOp::Not,
                            d,
                            s,
                        });
                        RVal::FB(d)
                    }
                    (op, _, v) => {
                        let a = self.to_operand(v);
                        let op = match op {
                            UnOp::Neg => "-",
                            UnOp::Not => "~",
                            UnOp::Plus => "+",
                        };
                        self.gen_value(GenOp::Unary(op), vec![a])
                    }
                }
            }
            ExprKind::Binary { op, lhs, rhs } => self.binary(*op, lhs, rhs, &t, end_ctx),
            ExprKind::Matrix(rows) => self.matrix_literal(rows),
            ExprKind::Transpose { operand, conjugate } => {
                let ot = self.ann.ty(operand.id);
                let ov = self.expr(operand, end_ctx);
                match kind_of(&ot) {
                    Kind::F => ov, // transposing a real scalar is a no-op
                    Kind::C => {
                        if *conjugate {
                            let s = self.to_c(ov);
                            let d = self.fresh_c();
                            self.emit(Inst::CUn {
                                op: CUnOp::Conj,
                                d,
                                s,
                            });
                            RVal::C(d)
                        } else {
                            ov
                        }
                    }
                    Kind::Slot => {
                        let a = self.to_operand(ov);
                        self.gen_value(GenOp::Transpose(*conjugate), vec![a])
                    }
                }
            }
        }
    }

    fn ident(&mut self, id: NodeId, name: &str, t: &Type) -> RVal {
        match self.d.table.kind(id) {
            SymbolKind::Variable(v) => self.var_loc(v).value(),
            SymbolKind::Builtin(b) => match b {
                // Without type information a constant is a library call
                // like any other builtin.
                _ if t.intrinsic == Intrinsic::Top => self.gen_value(GenOp::CallBuiltin(b), vec![]),
                Builtin::Pi => RVal::F(self.fconst(std::f64::consts::PI)),
                Builtin::Eps => RVal::F(self.fconst(f64::EPSILON)),
                Builtin::Inf => RVal::F(self.fconst(f64::INFINITY)),
                Builtin::NaN => RVal::F(self.fconst(f64::NAN)),
                Builtin::ImagUnitI | Builtin::ImagUnitJ => {
                    let d = self.fresh_c();
                    self.emit(Inst::CConst {
                        d,
                        re: 0.0,
                        im: 1.0,
                    });
                    RVal::C(d)
                }
                _ => self.gen_value(GenOp::CallBuiltin(b), vec![]),
            },
            SymbolKind::UserFunction => self.gen_value(GenOp::CallUser(name.to_owned()), vec![]),
            SymbolKind::Ambiguous(v) => {
                let arg = self.var_loc(v).operand();
                self.gen_value(GenOp::ResolveAmbiguous(name.to_owned()), vec![arg])
            }
            SymbolKind::Unknown => {
                self.emit(Inst::ErrUndefined(name.to_owned()));
                RVal::F(self.fconst(0.0))
            }
        }
    }

    fn apply(&mut self, id: NodeId, callee: &str, args: &[Expr], t: &Type) -> RVal {
        match self.d.table.kind(id) {
            SymbolKind::Variable(v) => {
                let VarLoc::Slot(arr) = self.var_loc(v) else {
                    unreachable!("classification puts every indexed variable in a slot")
                };
                let base_t = self.ann.base_ty(id);
                // Scalar-subscript fast path.
                if self.scalar_subscripts(args) && base_t.intrinsic.le(&Intrinsic::Complex) {
                    let (i, j) = self.index_regs(arr, args);
                    let checked = !in_bounds_provable(&base_t, args, self.ann);
                    if !base_t.intrinsic.le(&Intrinsic::Real) {
                        let d = self.fresh_c();
                        self.emit(Inst::ALoadC {
                            d,
                            arr,
                            i,
                            j,
                            checked,
                        });
                        return RVal::C(d);
                    }
                    let d = self.fresh_f();
                    self.emit(Inst::ALoadF {
                        d,
                        arr,
                        i,
                        j,
                        checked,
                    });
                    // An element of a logical array is itself logical.
                    return if base_t.intrinsic == Intrinsic::Bool {
                        RVal::FB(d)
                    } else {
                        RVal::F(d)
                    };
                }
                let gen_args = self.subscripts(arr, args, true);
                self.gen_value(GenOp::IndexGet, gen_args)
            }
            SymbolKind::Builtin(b) => self.builtin_call(b, args, t),
            SymbolKind::UserFunction | SymbolKind::Unknown => {
                let argv = self.operands(args);
                self.gen_value(GenOp::CallUser(callee.to_owned()), argv)
            }
            SymbolKind::Ambiguous(v) => {
                // Runtime decides: variable indexing vs call. Compile the
                // conservative generic form through ResolveAmbiguous of
                // the base, then IndexGet.
                let base = self.var_loc(v).operand();
                let resolved = self.fresh_slot();
                self.emit(Inst::Gen {
                    op: GenOp::ResolveAmbiguous(callee.to_owned()),
                    dsts: vec![resolved],
                    args: vec![base],
                });
                let gen_args = self.subscripts(resolved, args, false);
                self.gen_value(GenOp::IndexGet, gen_args)
            }
        }
    }

    fn builtin_call(&mut self, b: Builtin, args: &[Expr], t: &Type) -> RVal {
        // Inlined scalar math (paper: "MaJIC inlines scalar arithmetic
        // and logical operations, elementary math functions …").
        if kind_of(t) == Kind::F && args.len() == 1 {
            let at = self.ann.ty(args[0].id);
            if kind_of(&at) == Kind::F {
                let unop = match b {
                    Builtin::Abs => Some(FUnOp::Abs),
                    Builtin::Sqrt => Some(FUnOp::Sqrt),
                    Builtin::Sin => Some(FUnOp::Sin),
                    Builtin::Cos => Some(FUnOp::Cos),
                    Builtin::Tan => Some(FUnOp::Tan),
                    Builtin::Asin => Some(FUnOp::Asin),
                    Builtin::Acos => Some(FUnOp::Acos),
                    Builtin::Atan => Some(FUnOp::Atan),
                    Builtin::Exp => Some(FUnOp::Exp),
                    Builtin::Log => Some(FUnOp::Log),
                    Builtin::Log10 => Some(FUnOp::Log10),
                    Builtin::Floor => Some(FUnOp::Floor),
                    Builtin::Ceil => Some(FUnOp::Ceil),
                    Builtin::Round => Some(FUnOp::Round),
                    Builtin::Fix => Some(FUnOp::Fix),
                    Builtin::Sign => Some(FUnOp::Sign),
                    Builtin::Real | Builtin::Conj => None, // identity on reals
                    _ => None,
                };
                if let Some(op) = unop {
                    let av = self.expr(&args[0], None);
                    let s = self.to_f(av);
                    let d = self.fresh_f();
                    self.emit(Inst::FUn { op, d, s });
                    return RVal::F(d);
                }
                if matches!(b, Builtin::Real | Builtin::Conj) {
                    return self.expr(&args[0], None);
                }
            }
            // Complex scalar argument with real result: abs / real / imag
            // / angle.
            if kind_of(&at) == Kind::C {
                match b {
                    Builtin::Abs => {
                        let av = self.expr(&args[0], None);
                        let s = self.to_c(av);
                        let d = self.fresh_f();
                        self.emit(Inst::CAbs { d, s });
                        return RVal::F(d);
                    }
                    Builtin::Real | Builtin::Imag => {
                        let av = self.expr(&args[0], None);
                        let s = self.to_c(av);
                        let d = self.fresh_f();
                        self.emit(Inst::CPart {
                            d,
                            s,
                            imag: b == Builtin::Imag,
                        });
                        return RVal::F(d);
                    }
                    _ => {}
                }
            }
        }
        // Scalar binary builtins.
        if kind_of(t) == Kind::F && args.len() == 2 {
            let k0 = kind_of(&self.ann.ty(args[0].id));
            let k1 = kind_of(&self.ann.ty(args[1].id));
            if k0 == Kind::F && k1 == Kind::F {
                let binop = match b {
                    Builtin::Mod => Some(FBinOp::Mod),
                    Builtin::Rem => Some(FBinOp::Rem),
                    Builtin::Atan2 => Some(FBinOp::Atan2),
                    Builtin::Min => Some(FBinOp::Min),
                    Builtin::Max => Some(FBinOp::Max),
                    _ => None,
                };
                if let Some(op) = binop {
                    let av = self.expr(&args[0], None);
                    let a = self.to_f(av);
                    let bv = self.expr(&args[1], None);
                    let bb = self.to_f(bv);
                    let d = self.fresh_f();
                    self.emit(Inst::FBin { op, d, a, b: bb });
                    return RVal::F(d);
                }
            }
        }
        // Complex-scalar math — only for arguments that are themselves
        // complex. A *real* argument whose result is inferred complex
        // (sqrt/log of a maybe-negative range) must go through the
        // generic builtin: the runtime decides real-vs-complex from the
        // actual value (`sqrt(NaN)` is the real NaN, `sqrt(4)` is real
        // even when the range admits negatives), and a C register
        // commits to the complex class statically.
        if kind_of(t) == Kind::C && args.len() == 1 {
            let at = self.ann.ty(args[0].id);
            if kind_of(&at) == Kind::C {
                let cop = match b {
                    Builtin::Sqrt => Some(CUnOp::Sqrt),
                    Builtin::Exp => Some(CUnOp::Exp),
                    Builtin::Log => Some(CUnOp::Log),
                    Builtin::Conj => Some(CUnOp::Conj),
                    Builtin::Sin => Some(CUnOp::Sin),
                    Builtin::Cos => Some(CUnOp::Cos),
                    _ => None,
                };
                if let Some(op) = cop {
                    let av = self.expr(&args[0], None);
                    let s = self.to_c(av);
                    let d = self.fresh_c();
                    self.emit(Inst::CUn { op, d, s });
                    return RVal::C(d);
                }
            }
        }
        // Pre-allocated creation with constant dims (paper: "small
        // temporary arrays of known sizes are pre-allocated").
        if b == Builtin::Zeros {
            if let Some(shape) = t.exact_shape() {
                if let (Some(r), Some(c)) = (shape.rows.finite(), shape.cols.finite()) {
                    // Only when the arguments are side-effect-free scalars
                    // (they are, if the shape is exact).
                    let op = GenOp::AllocReal {
                        rows: r as u32,
                        cols: c as u32,
                    };
                    return self.gen_value(op, vec![]);
                }
            }
        }
        // Generic builtin call.
        let argv = self.operands(args);
        self.gen_value(GenOp::CallBuiltin(b), argv)
    }

    fn binary(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        t: &Type,
        end_ctx: Option<(Slot, u8)>,
    ) -> RVal {
        // Short-circuit logicals need control flow.
        if matches!(op, BinOp::ShortAnd | BinOp::ShortOr) {
            return self.short_circuit(op, lhs, rhs, end_ctx);
        }
        let lt = self.ann.ty(lhs.id);
        let rt = self.ann.ty(rhs.id);
        let (lk, rk) = (kind_of(&lt), kind_of(&rt));

        // dgemv fusion (paper: "expressions like a*X+b*C*Y are
        // transformed into a single call to the BLAS routine dgemv").
        if op == BinOp::Add {
            if let Some(r) = self.try_gemv(lhs, rhs) {
                return r;
            }
        }

        // Inlined real-scalar arithmetic: the paper's "most important
        // performance optimization". Relations on complex scalars compare
        // real parts.
        let both_scalar = matches!(lk, Kind::F | Kind::C) && matches!(rk, Kind::F | Kind::C);
        if (lk == Kind::F && rk == Kind::F && kind_of(t) == Kind::F)
            || (both_scalar && op.is_relational())
        {
            let lv = self.expr(lhs, end_ctx);
            let a = self.to_f(lv);
            let rv = self.expr(rhs, end_ctx);
            let b = self.to_f(rv);
            let d = self.fresh_f();
            let inst = match real_scalar_inst(op, d, a, b) {
                Some(inst) => inst,
                None => {
                    // `&`/`|`: (a ≠ 0) op (b ≠ 0) in plain arithmetic.
                    let zero = self.fconst(0.0);
                    let ta = self.fresh_f();
                    self.emit(Inst::FCmp {
                        op: CmpOp::Ne,
                        d: ta,
                        a,
                        b: zero,
                    });
                    let tb = self.fresh_f();
                    self.emit(Inst::FCmp {
                        op: CmpOp::Ne,
                        d: tb,
                        a: b,
                        b: zero,
                    });
                    let op = if op == BinOp::And {
                        FBinOp::Mul
                    } else {
                        FBinOp::Max
                    };
                    Inst::FBin {
                        op,
                        d,
                        a: ta,
                        b: tb,
                    }
                }
            };
            self.emit(inst);
            // Comparisons and logical operators produce the logical
            // class; track that so boxing preserves it.
            return if op.is_relational() || matches!(op, BinOp::And | BinOp::Or) {
                RVal::FB(d)
            } else {
                RVal::F(d)
            };
        }

        // Complex-scalar arithmetic.
        if both_scalar && kind_of(t) == Kind::C {
            let cop = match op {
                BinOp::Add => Some(CBinOp::Add),
                BinOp::Sub => Some(CBinOp::Sub),
                BinOp::Mul | BinOp::ElemMul => Some(CBinOp::Mul),
                BinOp::Div | BinOp::ElemDiv => Some(CBinOp::Div),
                BinOp::Pow | BinOp::ElemPow => Some(CBinOp::Pow),
                _ => None,
            };
            if let Some(cop) = cop {
                let lv = self.expr(lhs, end_ctx);
                let a = self.to_c(lv);
                let rv = self.expr(rhs, end_ctx);
                let b = self.to_c(rv);
                let d = self.fresh_c();
                self.emit(Inst::CBin { op: cop, d, a, b });
                return RVal::C(d);
            }
        }

        // Small-vector unrolling (paper: "elementary vector
        // operations … are completely unrolled when exact array
        // shapes are known … very effective on small (up to 3×3)
        // matrices").
        // Scalar·vector `*` and `/` are elementwise in effect, so
        // they qualify too when one side is scalar.
        let scalar_side = lt.is_scalar() || rt.is_scalar();
        if op.is_elementwise() || scalar_side {
            if let Some(r) = self.try_unrolled_elementwise(op, lhs, rhs, t, None) {
                return r;
            }
        }

        // Generic fallback (paper: "the implicit default rule for any
        // operator is that the numeric operands are complex matrices").
        let lv = self.expr(lhs, end_ctx);
        let a = self.to_operand(lv);
        let rv = self.expr(rhs, end_ctx);
        let b = self.to_operand(rv);
        self.gen_value(GenOp::Binary(op.symbol()), vec![a, b])
    }

    fn short_circuit(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        end_ctx: Option<(Slot, u8)>,
    ) -> RVal {
        let lt = self.ann.ty(lhs.id);
        let lv = self.expr(lhs, end_ctx);
        let lc = self.truth(lv, &lt);
        let result = self.fresh_f();
        self.emit(Inst::FMov { d: result, s: lc });
        // As with `if` lowering, the merge block is created only after
        // the rhs arm so block ids stay consistent with execution order
        // (the rhs may itself create blocks); the entry branch is sealed
        // once the merge id is known.
        let entry = self.cur;
        let rhs_bb = self.new_block();
        self.switch_to(rhs_bb);
        let rt = self.ann.ty(rhs.id);
        let rv = self.expr(rhs, end_ctx);
        let rc = self.truth(rv, &rt);
        self.emit(Inst::FMov { d: result, s: rc });
        let rhs_end = self.cur;
        let merge = self.new_block();
        let (then_bb, else_bb) = if op == BinOp::ShortAnd {
            (rhs_bb, merge)
        } else {
            (merge, rhs_bb)
        };
        self.switch_to(entry);
        self.seal(Terminator::Branch {
            cond: lc,
            then_bb,
            else_bb,
        });
        self.switch_to(rhs_end);
        self.seal(Terminator::Jump(merge));
        self.switch_to(merge);
        // `&&`/`||` always yield a logical scalar.
        RVal::FB(result)
    }

    /// Detect `a*X + b*(C*Y)` shapes (and simpler variants) and emit a
    /// fused dgemv.
    fn try_gemv(&mut self, lhs: &Expr, rhs: &Expr) -> Option<RVal> {
        let l = decompose_gemv_term(self, lhs)?;
        let r = decompose_gemv_term(self, rhs)?;
        // One side must be the matrix-vector product, the other the plain
        // vector.
        let (mv, v) = match (&l.mat, &r.mat, &l.vec, &r.vec) {
            (Some(_), None, None, Some(_)) => (&l, &r),
            (None, Some(_), Some(_), None) => (&r, &l),
            _ => return None,
        };
        let (c_e, y_e) = mv.mat.expect("checked");
        let x_e = v.vec.expect("checked");

        let alpha = self.gemv_coeff(mv.coeff);
        let a_slot = self.boxed(c_e);
        let y_slot = self.boxed(y_e);
        let beta = self.gemv_coeff(v.coeff);
        let x_slot = self.boxed(x_e);
        let args = vec![alpha, a_slot, y_slot, beta, x_slot];
        Some(self.gen_value(GenOp::Gemv, args))
    }

    /// A dgemv coefficient: the expression's value, or 1.
    fn gemv_coeff(&mut self, coeff: Option<&Expr>) -> Operand {
        match coeff {
            Some(e) => {
                let v = self.expr(e, None);
                self.to_operand(v)
            }
            None => Operand::F(self.fconst(1.0)),
        }
    }

    /// An expression's value in a slot.
    fn boxed(&mut self, e: &Expr) -> Operand {
        let v = self.expr(e, None);
        Operand::Slot(self.to_slot(v))
    }

    /// Unroll `lhs op rhs` elementwise when both sides have the same
    /// exact small shape (or one is scalar) and everything is real.
    fn try_unrolled_elementwise(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        t: &Type,
        target: Option<Slot>,
    ) -> Option<RVal> {
        const MAX_UNROLL: u64 = 9;
        let shape = t.exact_shape()?;
        let n = shape.numel()?;
        if n == 0 || n > MAX_UNROLL || !t.intrinsic.le(&Intrinsic::Real) {
            return None;
        }
        let lt = self.ann.ty(lhs.id);
        let rt = self.ann.ty(rhs.id);
        if !lt.intrinsic.le(&Intrinsic::Real) || !rt.intrinsic.le(&Intrinsic::Real) {
            return None;
        }
        let fop = match op {
            BinOp::Add => FBinOp::Add,
            BinOp::Sub => FBinOp::Sub,
            BinOp::ElemMul => FBinOp::Mul,
            BinOp::ElemDiv => FBinOp::Div,
            BinOp::ElemPow => FBinOp::Pow,
            // Matrix `*` / `/` / `\` degenerate to elementwise when one
            // operand is scalar (`dt * v`, `v / d`); anything else (true
            // matrix products) must not unroll here.
            BinOp::Mul if lt.is_scalar() || rt.is_scalar() => FBinOp::Mul,
            BinOp::Div if rt.is_scalar() => FBinOp::Div,
            BinOp::ElemLeftDiv => {
                return self.try_unrolled_elementwise(BinOp::ElemDiv, rhs, lhs, t, target);
            }
            BinOp::LeftDiv if lt.is_scalar() => {
                return self.try_unrolled_elementwise(BinOp::Div, rhs, lhs, t, target);
            }
            _ => return None,
        };
        // Shapes must be exact: scalar or equal to the result.
        let side_ok = |st: &Type| st.is_scalar() || st.exact_shape().is_some_and(|s| s == shape);
        if !side_ok(&lt) || !side_ok(&rt) {
            return None;
        }
        let lv = self.expr(lhs, None);
        let rv = self.expr(rhs, None);
        enum Side {
            Scalar(Reg),
            Arr(Slot),
        }
        let prep = |g: &mut Gen<'_>, v: RVal, st: &Type| -> Side {
            if st.is_scalar() {
                Side::Scalar(g.to_f(v))
            } else {
                Side::Arr(g.to_slot(v))
            }
        };
        let ls = prep(self, lv, &lt);
        let rs = prep(self, rv, &rt);
        let (rows, cols) = (
            shape.rows.finite().expect("finite"),
            shape.cols.finite().expect("finite"),
        );
        // With a target, reuse its buffer like the paper's static
        // temporaries; elementwise in-place update is safe because each
        // output element depends only on the same-index inputs. Without
        // one, the temporary is allocated once in the entry block (the
        // `static tmp2[3]` of Figure 3) and overwritten per execution.
        let dst = match target {
            Some(slot) => {
                self.emit(Inst::Gen {
                    op: GenOp::EnsureReal {
                        rows: rows as u32,
                        cols: cols as u32,
                    },
                    dsts: vec![slot],
                    args: vec![],
                });
                slot
            }
            None => {
                let slot = self.fresh_slot();
                self.persistent_slots.push(slot);
                self.func.blocks[0].insts.push(Inst::Gen {
                    op: GenOp::AllocReal {
                        rows: rows as u32,
                        cols: cols as u32,
                    },
                    dsts: vec![slot],
                    args: vec![],
                });
                slot
            }
        };
        for lin in 0..n as u32 {
            let a = match &ls {
                Side::Scalar(r) => *r,
                Side::Arr(s) => {
                    let d = self.fresh_f();
                    self.emit(Inst::ALoadConstF { d, arr: *s, lin });
                    d
                }
            };
            let b = match &rs {
                Side::Scalar(r) => *r,
                Side::Arr(s) => {
                    let d = self.fresh_f();
                    self.emit(Inst::ALoadConstF { d, arr: *s, lin });
                    d
                }
            };
            let d = self.fresh_f();
            self.emit(Inst::FBin { op: fop, d, a, b });
            self.emit(Inst::AStoreConstF {
                arr: dst,
                lin,
                v: d,
            });
        }
        Some(RVal::Slot(dst))
    }

    fn matrix_literal(&mut self, rows: &[Vec<Expr>]) -> RVal {
        // Unrolled build for small all-real-scalar literals (also covers
        // the pre-allocated temporaries rule).
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let all_scalars = nrows > 0
            && ncols > 0
            && rows.iter().all(|r| r.len() == ncols)
            && rows.iter().flatten().all(|e| {
                let et = self.ann.ty(e.id);
                kind_of(&et) == Kind::F
            });
        if all_scalars && nrows * ncols <= 16 {
            let dst = self.fresh_slot();
            self.persistent_slots.push(dst);
            // Pre-allocated in the entry block; every element is
            // stored below on each execution of the literal.
            self.func.blocks[0].insts.push(Inst::Gen {
                op: GenOp::AllocReal {
                    rows: nrows as u32,
                    cols: ncols as u32,
                },
                dsts: vec![dst],
                args: vec![],
            });
            for (ri, row) in rows.iter().enumerate() {
                for (ci, e) in row.iter().enumerate() {
                    let v = self.expr(e, None);
                    let r = self.to_f(v);
                    let lin = (ci * nrows + ri) as u32;
                    self.emit(Inst::AStoreConstF {
                        arr: dst,
                        lin,
                        v: r,
                    });
                }
            }
            return RVal::Slot(dst);
        }
        // Generic concatenation.
        let mut args = Vec::new();
        let mut counts = Vec::with_capacity(rows.len());
        for row in rows {
            counts.push(row.len() as u32);
            for e in row {
                let v = self.expr(e, None);
                args.push(self.to_operand(v));
            }
        }
        self.gen_value(GenOp::BuildMatrix { rows: counts }, args)
    }
}

/// One side of a candidate dgemv fusion: an optional scalar coefficient
/// times either a matrix–vector product or a plain column vector.
struct GemvTerm<'e> {
    coeff: Option<&'e Expr>,
    mat: Option<(&'e Expr, &'e Expr)>,
    vec: Option<&'e Expr>,
}

fn decompose_gemv_term<'e>(g: &Gen<'_>, e: &'e Expr) -> Option<GemvTerm<'e>> {
    let is_scalar = |x: &Expr| g.ann.ty(x.id).is_scalar();
    let is_col_vec = |x: &Expr| {
        let t = g.ann.ty(x.id);
        !t.is_scalar() && t.max_shape.cols == Dim::Finite(1) && t.intrinsic.le(&Intrinsic::Real)
    };
    let is_mat = |x: &Expr| {
        let t = g.ann.ty(x.id);
        !t.is_scalar() && t.intrinsic.le(&Intrinsic::Real)
    };
    match &e.kind {
        ExprKind::Binary {
            op: BinOp::Mul,
            lhs,
            rhs,
        } => {
            if is_scalar(lhs) && is_mat(rhs) {
                // a * (C*Y) or a * X
                if let ExprKind::Binary {
                    op: BinOp::Mul,
                    lhs: c,
                    rhs: y,
                } = &rhs.kind
                {
                    if is_mat(c) && is_col_vec(y) {
                        return Some(GemvTerm {
                            coeff: Some(lhs),
                            mat: Some((c, y)),
                            vec: None,
                        });
                    }
                }
                if is_col_vec(rhs) {
                    return Some(GemvTerm {
                        coeff: Some(lhs),
                        mat: None,
                        vec: Some(rhs),
                    });
                }
            }
            if is_mat(lhs) && is_col_vec(rhs) {
                return Some(GemvTerm {
                    coeff: None,
                    mat: Some((lhs, rhs)),
                    vec: None,
                });
            }
            None
        }
        _ if is_col_vec(e) => Some(GemvTerm {
            coeff: None,
            mat: None,
            vec: Some(e),
        }),
        _ => None,
    }
}

/// The value of a real numeric literal, or of `-` applied to one.
fn real_literal(e: &Expr) -> Option<f64> {
    let (negate, e) = match &e.kind {
        ExprKind::Unary {
            op: UnOp::Neg,
            operand,
        } => (true, &**operand),
        _ => (false, e),
    };
    match e.kind {
        ExprKind::Number {
            value,
            imaginary: false,
        } => Some(if negate { -value } else { value }),
        _ => None,
    }
}

/// `a op b` on real scalars as one register instruction; `None` for `&`
/// and `|`, which test both operands first.
fn real_scalar_inst(op: BinOp, d: Reg, a: Reg, b: Reg) -> Option<Inst> {
    let (op, a, b) = match op {
        BinOp::Add => (FBinOp::Add, a, b),
        BinOp::Sub => (FBinOp::Sub, a, b),
        BinOp::Mul | BinOp::ElemMul => (FBinOp::Mul, a, b),
        BinOp::Div | BinOp::ElemDiv => (FBinOp::Div, a, b),
        BinOp::LeftDiv | BinOp::ElemLeftDiv => (FBinOp::Div, b, a),
        BinOp::Pow | BinOp::ElemPow => (FBinOp::Pow, a, b),
        _ => {
            let op = match op {
                BinOp::Lt => CmpOp::Lt,
                BinOp::Le => CmpOp::Le,
                BinOp::Gt => CmpOp::Gt,
                BinOp::Ge => CmpOp::Ge,
                BinOp::Eq => CmpOp::Eq,
                BinOp::Ne => CmpOp::Ne,
                _ => return None,
            };
            return Some(Inst::FCmp { op, d, a, b });
        }
    };
    Some(Inst::FBin { op, d, a, b })
}

/// Which extent `end` refers to in subscript `k` of `n`: numel for a
/// single subscript, rows/cols otherwise.
fn end_dim(k: usize, n: usize) -> u8 {
    if n == 1 {
        0
    } else if k == 0 {
        1
    } else {
        2
    }
}

/// Can an indexed load or store skip its subscript check? Only when the
/// indices provably stay inside the *guaranteed* extent (paper §2.4).
fn in_bounds_provable(base: &Type, args: &[Expr], ann: &Annotations) -> bool {
    let min = base.min_shape;
    match args.len() {
        1 => {
            let Some(numel) = min
                .rows
                .finite()
                .and_then(|r| min.cols.finite().map(|c| r * c))
            else {
                return false;
            };
            let it = ann.ty(args[0].id);
            it.intrinsic.le(&Intrinsic::Int) && it.range.within(1.0, numel as f64)
        }
        2 => {
            let (Some(rows), Some(cols)) = (min.rows.finite(), min.cols.finite()) else {
                return false;
            };
            let rt = ann.ty(args[0].id);
            let ct = ann.ty(args[1].id);
            rt.intrinsic.le(&Intrinsic::Int)
                && rt.range.within(1.0, rows as f64)
                && ct.intrinsic.le(&Intrinsic::Int)
                && ct.range.within(1.0, cols as f64)
        }
        _ => false,
    }
}

/// Gather assignment-site types and forced-slot evidence per variable.
fn collect_var_evidence(
    stmts: &[Stmt],
    d: &DisambiguatedFunction,
    ann: &Annotations,
    types: &mut [Vec<Type>],
    forced_slot: &mut [bool],
) {
    fn force(name: &str, d: &DisambiguatedFunction, forced_slot: &mut [bool]) {
        if let Some(v) = d.table.var_id(name) {
            forced_slot[v.index()] = true;
        }
    }
    fn note(
        name: &str,
        id: NodeId,
        d: &DisambiguatedFunction,
        ann: &Annotations,
        types: &mut [Vec<Type>],
    ) {
        if let Some(v) = d.table.var_id(name) {
            types[v.index()].push(ann.ty(id));
        }
    }
    /// An assignment target: a variable's new type, or an indexed
    /// store's array and whatever its subscripts index.
    fn target(
        lhs: &LValue,
        d: &DisambiguatedFunction,
        ann: &Annotations,
        types: &mut [Vec<Type>],
        forced_slot: &mut [bool],
    ) {
        match lhs {
            LValue::Var { name, id, .. } => note(name, *id, d, ann, types),
            LValue::Index { name, args, .. } => {
                force(name, d, forced_slot);
                for a in args {
                    force_apply_bases(a, d, forced_slot);
                }
            }
        }
    }
    for s in walk_stmts(stmts) {
        match &s.kind {
            StmtKind::Assign { lhs, rhs, .. } => {
                target(lhs, d, ann, types, forced_slot);
                force_apply_bases(rhs, d, forced_slot);
            }
            StmtKind::MultiAssign { lhs, args, .. } => {
                for lv in lhs {
                    target(lv, d, ann, types, forced_slot);
                }
                for a in args {
                    force_apply_bases(a, d, forced_slot);
                }
            }
            StmtKind::Expr { expr, .. } => force_apply_bases(expr, d, forced_slot),
            StmtKind::If { branches, .. } => {
                for (c, _) in branches {
                    force_apply_bases(c, d, forced_slot);
                }
            }
            StmtKind::While { cond, .. } => force_apply_bases(cond, d, forced_slot),
            StmtKind::For {
                var, var_id, iter, ..
            } => {
                note(var, *var_id, d, ann, types);
                force_apply_bases(iter, d, forced_slot);
            }
            _ => {}
        }
    }
    // Ambiguous symbols must be observable as "undefined" at runtime.
    for kind in d.table.symbols.values() {
        if let SymbolKind::Ambiguous(v) = kind {
            forced_slot[v.index()] = true;
        }
    }
}

/// Any variable used as an indexing base must live in a slot.
fn force_apply_bases(e: &Expr, d: &DisambiguatedFunction, forced_slot: &mut [bool]) {
    e.walk(&mut |e| {
        if let ExprKind::Apply { .. } = &e.kind {
            match d.table.kind(e.id) {
                SymbolKind::Variable(v) | SymbolKind::Ambiguous(v) => {
                    forced_slot[v.index()] = true;
                }
                _ => {}
            }
        }
    });
}
