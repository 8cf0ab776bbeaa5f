//! The vcode executor: a program-counter dispatch loop over flattened
//! register code.

use majic_ir::{
    Access, Function, GenOp, Inst, InstOperand, Operand, OperandRef, Reg, Slot, Terminator,
    VarBinding,
};
use majic_runtime::builtins::{Builtin, CallCtx};
use majic_runtime::ops::{self, Cmp, Subscript};
use majic_runtime::{linalg, Complex, Matrix, RuntimeError, RuntimeResult, Value};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::regalloc::{NUM_C_REGS, NUM_F_REGS};

/// Resolves user-function calls made by compiled code. The engine
/// implements this by consulting the code repository (compiling on a
/// miss); tests can use [`NoDispatch`].
pub trait Dispatcher {
    /// Call `name` with `args`, producing `nargout` outputs.
    ///
    /// # Errors
    ///
    /// Propagates callee errors; unknown names are
    /// [`RuntimeError::Undefined`].
    fn call_user(
        &mut self,
        name: &str,
        args: &[Value],
        nargout: usize,
        ctx: &mut CallCtx,
    ) -> RuntimeResult<Vec<Value>>;
}

/// A dispatcher that knows no functions.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoDispatch;

impl Dispatcher for NoDispatch {
    fn call_user(
        &mut self,
        name: &str,
        _args: &[Value],
        _nargout: usize,
        _ctx: &mut CallCtx,
    ) -> RuntimeResult<Vec<Value>> {
        Err(RuntimeError::Undefined(name.to_owned()))
    }
}

/// One step of flattened code.
#[derive(Clone, Debug)]
enum Step {
    I(Inst),
    Jump(u32),
    /// Jump to `target` when the condition register is zero; fall
    /// through otherwise.
    BranchZero {
        cond: Reg,
        target: u32,
    },
    Ret,
}

/// Weight of one invocation relative to one loop back-edge in
/// [`Executable::hotness`]. A call does a fixed amount of work
/// (argument binding, machine setup) while a back-edge stands for one
/// loop iteration; weighting calls keeps call-dominated recursive
/// functions and iteration-dominated loop kernels on one scale, the
/// classic invocations + back-edges counter of adaptive JITs.
pub const CALL_HOTNESS_WEIGHT: u64 = 16;

/// Always-on execution counters shared by every thread running one
/// compiled version (the `Executable` itself is shared via `Arc`).
///
/// These feed the engine's tiered-recompilation policy: the dispatch
/// layer reads [`Executable::hotness`] after a call returns and promotes
/// versions that cross its threshold. The counting discipline keeps the
/// hot loop cheap: one relaxed increment per invocation, plus one local
/// (non-atomic) accumulation per loop back-edge that is flushed once
/// when the invocation leaves `run_loop`.
#[derive(Debug, Default)]
struct ExecCounters {
    /// Completed and in-progress invocations.
    calls: AtomicU64,
    /// Backward jumps taken (one per loop iteration).
    backedges: AtomicU64,
}

impl Clone for ExecCounters {
    /// Cloning snapshots the current counts: a cloned executable is
    /// still "the same code" for hotness purposes.
    fn clone(&self) -> ExecCounters {
        ExecCounters {
            calls: AtomicU64::new(self.calls.load(Ordering::Relaxed)),
            backedges: AtomicU64::new(self.backedges.load(Ordering::Relaxed)),
        }
    }
}

/// Executable (flattened, register-allocated) code for one compiled
/// function version.
#[derive(Clone, Debug)]
pub struct Executable {
    /// Function name (diagnostics).
    pub name: String,
    steps: Vec<Step>,
    f_spill: u32,
    c_spill: u32,
    slots: u32,
    params: Vec<VarBinding>,
    outputs: Vec<VarBinding>,
    /// Execution profile.
    counters: ExecCounters,
}

/// Why [`Executable::validate`] refused a program: the first
/// out-of-range reference or malformed step it found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct InvalidCode(&'static str);

impl Executable {
    /// Flatten an already register-allocated [`Function`].
    pub fn new(f: &Function, f_spill: u32, c_spill: u32) -> Executable {
        // Layout: per block, all insts, then Jump/Branch(+Jump)/Ret.
        let mut offsets = Vec::with_capacity(f.blocks.len());
        let mut pc = 0u32;
        for b in &f.blocks {
            offsets.push(pc);
            pc += b.insts.len() as u32;
            pc += match b.term {
                Terminator::Jump(_) | Terminator::Return => 1,
                Terminator::Branch { .. } => 2,
            };
        }
        let mut steps = Vec::with_capacity(pc as usize);
        for b in &f.blocks {
            steps.extend(b.insts.iter().cloned().map(Step::I));
            match &b.term {
                Terminator::Jump(t) => steps.push(Step::Jump(offsets[t.index()])),
                Terminator::Return => steps.push(Step::Ret),
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    steps.push(Step::BranchZero {
                        cond: *cond,
                        target: offsets[else_bb.index()],
                    });
                    steps.push(Step::Jump(offsets[then_bb.index()]));
                }
            }
        }
        let exe = Executable {
            name: f.name.clone(),
            steps,
            f_spill,
            c_spill,
            slots: f.slots,
            params: f.params.clone(),
            outputs: f.outputs.clone(),
            counters: ExecCounters::default(),
        };
        debug_assert_eq!(exe.validate(), Ok(()), "{}: invalid code", exe.name);
        exe
    }

    /// Number of flattened steps (diagnostics / benches).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Execution counts so far: `(invocations, loop back-edges)`.
    ///
    /// Both are monotone (only [`Executable::new`] starts them at
    /// zero) and shared across every thread running this version.
    pub fn exec_counts(&self) -> (u64, u64) {
        (
            self.counters.calls.load(Ordering::Relaxed),
            self.counters.backedges.load(Ordering::Relaxed),
        )
    }

    /// The hotness score driving tiered recompilation:
    /// `invocations × CALL_HOTNESS_WEIGHT + loop back-edges`.
    pub fn hotness(&self) -> u64 {
        let (calls, backedges) = self.exec_counts();
        calls
            .saturating_mul(CALL_HOTNESS_WEIGHT)
            .saturating_add(backedges)
    }

    /// Bounds-check every reference in the program: each operand the
    /// instruction table reports, every binding and every jump target.
    /// The executor's hot loop reads registers and steps without bounds
    /// checks, which is sound only for code that passes here. Sound
    /// allocator output never trips these; debug builds check every
    /// executable [`Executable::new`] flattens.
    fn validate(&self) -> Result<(), InvalidCode> {
        // `run_loop` advances the pc with unchecked reads; a program that
        // can fall through its final step would walk off the end. The
        // flattener always ends blocks with an explicit terminator, so
        // require it: the last step must be an
        // unconditional control transfer.
        match self.steps.last() {
            Some(Step::Ret) | Some(Step::Jump(_)) => {}
            _ => return Err(InvalidCode("executable must end in ret or jump")),
        }
        let target = |t: u32| {
            ((t as usize) < self.steps.len())
                .then_some(())
                .ok_or(InvalidCode("jump target out of range"))
        };
        let mut bad = None;
        let mut check = |op: OperandRef| {
            let (ok, what) = match op {
                InstOperand::F(r, _) => (r.0 < NUM_F_REGS, "f register out of range"),
                InstOperand::C(r, _) => (r.0 < NUM_C_REGS, "c register out of range"),
                InstOperand::Slot(s) => (s.0 < self.slots, "slot out of range"),
                InstOperand::FSpill(n) => (*n < self.f_spill, "f spill out of range"),
                InstOperand::CSpill(n) => (*n < self.c_spill, "c spill out of range"),
            };
            if !ok {
                bad.get_or_insert(what);
            }
        };
        for p in &self.params {
            check(p.operand(Access::Write));
        }
        for o in &self.outputs {
            check(o.operand(Access::Read));
        }
        for s in &self.steps {
            match s {
                Step::Ret => {}
                Step::Jump(t) => target(*t)?,
                Step::BranchZero { cond, target: t } => {
                    check(InstOperand::F(cond, Access::Read));
                    target(*t)?;
                }
                Step::I(i) => {
                    i.for_each_operand(&mut check);
                    // `exec_gen` indexes some operand lists directly;
                    // enforce the minimum arity each op assumes so bad
                    // code errors here instead of panicking there.
                    if let Inst::Gen { op, dsts, args } = i {
                        let (min_args, min_dsts) = match op {
                            GenOp::Binary(_) => (2, 0),
                            GenOp::Unary(_) | GenOp::Transpose(_) => (1, 0),
                            GenOp::IndexGet | GenOp::ResolveAmbiguous(_) | GenOp::Display(_) => {
                                (1, 0)
                            }
                            GenOp::IndexSet { .. } => (2, 0),
                            GenOp::Gemv => (5, 0),
                            GenOp::EnsureReal { .. } => (0, 1),
                            _ => (0, 0),
                        };
                        if args.len() < min_args || dsts.len() < min_dsts {
                            return Err(InvalidCode("genop arity"));
                        }
                    }
                }
            }
        }
        bad.map_or(Ok(()), |what| Err(InvalidCode(what)))
    }
}

/// The most frames a thread keeps for reuse. A recursion deeper than
/// this allocates the frames below it and frees them on return.
const MAX_RETAINED_FRAMES: usize = 64;

thread_local! {
    /// Frames of finished invocations on this thread, handed to the next
    /// [`execute`]. None holds a value: slots are emptied when a frame
    /// comes back, and the argument buffer is empty between calls.
    static FRAMES: RefCell<Vec<Machine>> = const { RefCell::new(Vec::new()) };
}

/// One invocation's frame: register files, spill areas, value slots,
/// and the argument vector its user calls refill.
struct Machine {
    f: Vec<f64>,
    c: Vec<Complex>,
    fspill: Vec<f64>,
    cspill: Vec<Complex>,
    slots: Vec<Option<Value>>,
    args: Vec<Value>,
}

impl Machine {
    /// A frame for `exe` with zeroed registers and spills and empty
    /// slots, taken from this thread's free list when it holds one.
    fn acquire(exe: &Executable) -> Machine {
        let mut m = FRAMES
            .with(|frames| frames.borrow_mut().pop())
            .unwrap_or_else(|| Machine {
                f: vec![0.0; NUM_F_REGS as usize],
                c: vec![Complex::ZERO; NUM_C_REGS as usize],
                fspill: Vec::new(),
                cspill: Vec::new(),
                slots: Vec::new(),
                args: Vec::new(),
            });
        m.f.fill(0.0);
        m.c.fill(Complex::ZERO);
        m.fspill.clear();
        m.fspill.resize(exe.f_spill as usize, 0.0);
        m.cspill.clear();
        m.cspill.resize(exe.c_spill as usize, Complex::ZERO);
        // Released frames hold no values, so this only sizes.
        m.slots.resize(exe.slots as usize, None);
        m
    }

    /// Return the frame to this thread's free list, dropping its values
    /// first: a value kept alive here would make the caller's next
    /// store into it copy the buffer. Past the cap the frame is freed.
    fn release(mut self) {
        self.slots.clear();
        FRAMES.with(|frames| {
            let mut frames = frames.borrow_mut();
            if frames.len() < MAX_RETAINED_FRAMES {
                frames.push(self);
            }
        });
    }

    /// Read an `F` register. Register numbers come from the allocator and
    /// are always inside the fixed register file.
    #[inline(always)]
    fn rf(&self, r: Reg) -> f64 {
        debug_assert!(r.index() < self.f.len());
        // SAFETY: the register allocator only emits numbers < NUM_F_REGS,
        // and `f` is allocated with exactly that length.
        unsafe { *self.f.get_unchecked(r.index()) }
    }

    /// Write an `F` register.
    #[inline(always)]
    fn wf(&mut self, r: Reg, v: f64) {
        debug_assert!(r.index() < self.f.len());
        // SAFETY: as for `rf`.
        unsafe {
            *self.f.get_unchecked_mut(r.index()) = v;
        }
    }
}

/// Resolve the 1-based subscripts `(i[, j])` of a `rows × cols` array to
/// a 0-based `(row, col)`. A checked access validates each subscript and
/// yields `None` past the extent; an unchecked one was proven in bounds
/// by type inference.
#[inline(always)]
fn resolve_rc(
    i: f64,
    j: Option<f64>,
    rows: usize,
    cols: usize,
    checked: bool,
) -> RuntimeResult<Option<(usize, usize)>> {
    if !checked {
        return Ok(Some(match j {
            None => linear_rc(i as usize - 1, rows),
            Some(j) => (i as usize - 1, j as usize - 1),
        }));
    }
    Ok(match j {
        None => {
            let k = ops::to_index(i)?;
            (k < rows * cols).then(|| linear_rc(k, rows))
        }
        Some(j) => {
            let (r, c) = (ops::to_index(i)?, ops::to_index(j)?);
            (r < rows && c < cols).then_some((r, c))
        }
    })
}

/// [`resolve_rc`] for a load, where a position past the extent is an
/// error.
#[inline(always)]
fn load_rc(
    i: f64,
    j: Option<f64>,
    rows: usize,
    cols: usize,
    checked: bool,
) -> RuntimeResult<(usize, usize)> {
    resolve_rc(i, j, rows, cols, checked)?.ok_or_else(|| match j {
        None => RuntimeError::IndexOutOfBounds {
            index: (i as usize).to_string(),
            extent: (rows * cols).to_string(),
        },
        Some(j) => RuntimeError::IndexOutOfBounds {
            index: format!("({}, {})", i as usize, j as usize),
            extent: format!("{rows}x{cols}"),
        },
    })
}

#[inline]
fn linear_rc(k: usize, rows: usize) -> (usize, usize) {
    if rows == 0 {
        (0, 0)
    } else {
        (k % rows, k / rows)
    }
}

fn undefined(slot: Slot) -> RuntimeError {
    RuntimeError::Undefined(format!("slot {slot}"))
}

/// Execute compiled code, producing the first `nargout` outputs (at
/// least one when the function has any).
///
/// # Errors
///
/// Propagates MATLAB runtime errors (bad subscripts, shape mismatches,
/// `error(...)` calls, …) and reports unassigned requested outputs.
pub fn execute(
    exe: &Executable,
    args: &[Value],
    nargout: usize,
    disp: &mut dyn Dispatcher,
    ctx: &mut CallCtx,
) -> RuntimeResult<Vec<Value>> {
    let mut m = Machine::acquire(exe);
    let r = execute_in(exe, &mut m, args, nargout, disp, ctx);
    m.release();
    r
}

/// [`execute`] on the frame `m`, which the caller releases on every
/// exit path.
fn execute_in(
    exe: &Executable,
    m: &mut Machine,
    args: &[Value],
    nargout: usize,
    disp: &mut dyn Dispatcher,
    ctx: &mut CallCtx,
) -> RuntimeResult<Vec<Value>> {
    // Bind parameters.
    for (k, b) in exe.params.iter().enumerate() {
        let arg = match args.get(k) {
            Some(a) => a,
            None => continue, // missing actuals stay undefined
        };
        match b {
            VarBinding::F(r) => m.f[r.index()] = arg.to_scalar()?,
            VarBinding::FSpill(s) => m.fspill[*s as usize] = arg.to_scalar()?,
            VarBinding::C(r) => m.c[r.index()] = to_complex_scalar(arg)?,
            VarBinding::CSpill(s) => m.cspill[*s as usize] = to_complex_scalar(arg)?,
            VarBinding::Slot(s) => m.slots[s.index()] = Some(arg.clone()),
        }
    }

    // Always-on hotness accounting (one relaxed increment per call; the
    // back-edge half is flushed by `run_loop` when the invocation ends).
    exe.counters.calls.fetch_add(1, Ordering::Relaxed);

    // Opt-in execution profiling: the disabled cost is one relaxed load
    // here plus a branch on a local per step inside `run_loop`.
    let mut prof = majic_trace::vm_profile_enabled().then(VmProfile::default);
    let run = run_loop(exe, m, disp, ctx, prof.as_mut());
    if let Some(p) = prof {
        // Flush on the error path too: a profile of a crashing program
        // is exactly what the profiler is for.
        p.flush(&exe.name);
    }
    if let Err(e) = &run {
        // Audit which compiled function raised: by the time the error
        // surfaces to the session it has crossed dispatcher frames and
        // lost that attribution.
        majic_trace::audit::session_event("vm.error", || {
            (exe.name.clone(), format!("compiled code raised: {e}"))
        });
    }
    run?;

    // Collect the requested outputs.
    let wanted = nargout
        .max(usize::from(!exe.outputs.is_empty()))
        .min(exe.outputs.len());
    let mut outs = Vec::with_capacity(wanted);
    for b in exe.outputs.iter().take(wanted) {
        outs.push(match b {
            VarBinding::F(r) => Value::scalar(m.f[r.index()]),
            VarBinding::FSpill(s) => Value::scalar(m.fspill[*s as usize]),
            VarBinding::C(r) => Value::complex_scalar(m.c[r.index()]).normalized(),
            VarBinding::CSpill(s) => Value::complex_scalar(m.cspill[*s as usize]).normalized(),
            VarBinding::Slot(s) => m.slots[s.index()].clone().ok_or_else(|| {
                RuntimeError::Raised(format!("output argument of '{}' not assigned", exe.name))
            })?,
        });
    }
    Ok(outs)
}

fn run_loop(
    exe: &Executable,
    m: &mut Machine,
    disp: &mut dyn Dispatcher,
    ctx: &mut CallCtx,
    mut prof: Option<&mut VmProfile>,
) -> RuntimeResult<()> {
    let mut pc = 0usize;
    // Loop back-edges accumulate in a local and hit the shared counter
    // once per invocation (on every exit path, including errors), so the
    // per-iteration cost is a compare and a local add.
    let mut backedges = 0u64;
    let flush = |n: u64| {
        if n > 0 {
            exe.counters.backedges.fetch_add(n, Ordering::Relaxed);
        }
    };
    loop {
        debug_assert!(pc < exe.steps.len());
        // SAFETY: jump targets are produced by the flattener and always
        // point inside `steps`; straight-line fallthrough ends at `Ret`.
        match unsafe { exe.steps.get_unchecked(pc) } {
            Step::Ret => {
                flush(backedges);
                return Ok(());
            }
            Step::Jump(t) => {
                // A backward jump is a loop back-edge: the flattener
                // only emits non-forward targets to re-enter a loop
                // header.
                backedges += u64::from(*t as usize <= pc);
                pc = *t as usize;
                continue;
            }
            Step::BranchZero { cond, target } => {
                if let Some(p) = prof.as_deref_mut() {
                    p.branches += 1;
                }
                if m.rf(*cond) == 0.0 {
                    backedges += u64::from(*target as usize <= pc);
                    pc = *target as usize;
                    continue;
                }
            }
            Step::I(inst) => {
                if let Some(p) = prof.as_deref_mut() {
                    p.count(inst);
                }
                if let Err(e) = exec_inst(inst, m, disp, ctx) {
                    flush(backedges);
                    return Err(e);
                }
            }
        }
        pc += 1;
    }
}

/// Per-invocation instruction profile, flushed into the global trace
/// counters when the invocation finishes (`vm.inst.total`,
/// `vm.op.<opcode>`, `vm.call.builtin`, `vm.call.user`, `vm.branch`).
/// Kept invocation-local so the hot loop touches no shared state.
#[derive(Debug, Default)]
struct VmProfile {
    total: u64,
    branches: u64,
    builtin_calls: u64,
    user_calls: u64,
    by_op: std::collections::BTreeMap<&'static str, u64>,
}

impl VmProfile {
    fn count(&mut self, inst: &Inst) {
        self.total += 1;
        *self.by_op.entry(opcode_name(inst)).or_insert(0) += 1;
        match inst {
            Inst::Gen {
                op: GenOp::CallBuiltin(_),
                ..
            } => self.builtin_calls += 1,
            Inst::Gen {
                op: GenOp::CallUser(_),
                ..
            } => self.user_calls += 1,
            _ => {}
        }
    }

    fn flush(self, fn_name: &str) {
        majic_trace::counter("vm.inst.total").add(self.total);
        majic_trace::counter("vm.branch").add(self.branches);
        majic_trace::counter("vm.call.builtin").add(self.builtin_calls);
        majic_trace::counter("vm.call.user").add(self.user_calls);
        majic_trace::counter(&format!("vm.fn.{fn_name}")).inc();
        let mut name = String::with_capacity(32);
        for (op, n) in self.by_op {
            name.clear();
            name.push_str("vm.op.");
            name.push_str(op);
            majic_trace::counter(&name).add(n);
        }
    }
}

/// Stable profiling name of one instruction.
fn opcode_name(inst: &Inst) -> &'static str {
    match inst {
        Inst::FConst { .. } => "fconst",
        Inst::FMov { .. } => "fmov",
        Inst::FBin { .. } => "fbin",
        Inst::FUn { .. } => "fun",
        Inst::FCmp { .. } => "fcmp",
        Inst::FSpillLoad { .. } => "fspill_load",
        Inst::FSpillStore { .. } => "fspill_store",
        Inst::CConst { .. } => "cconst",
        Inst::CMov { .. } => "cmov",
        Inst::CBin { .. } => "cbin",
        Inst::CUn { .. } => "cun",
        Inst::CAbs { .. } => "cabs",
        Inst::CPart { .. } => "cpart",
        Inst::CMake { .. } => "cmake",
        Inst::CSpillLoad { .. } => "cspill_load",
        Inst::CSpillStore { .. } => "cspill_store",
        Inst::ALoadF { .. } => "aload_f",
        Inst::AStoreF { .. } => "astore_f",
        Inst::ALoadC { .. } => "aload_c",
        Inst::AStoreC { .. } => "astore_c",
        Inst::ALoadConstF { .. } => "aload_const_f",
        Inst::AStoreConstF { .. } => "astore_const_f",
        Inst::FToSlot { .. } => "f_to_slot",
        Inst::FToSlotBool { .. } => "f_to_slot_bool",
        Inst::SlotToF { .. } => "slot_to_f",
        Inst::CToSlot { .. } => "c_to_slot",
        Inst::SlotToC { .. } => "slot_to_c",
        Inst::SlotMov { .. } => "slot_mov",
        Inst::SlotTake { .. } => "slot_take",
        Inst::TruthF { .. } => "truth_f",
        Inst::ExtentF { .. } => "extent_f",
        Inst::ErrUndefined(_) => "err_undefined",
        Inst::Gen { op, .. } => match op {
            GenOp::Binary(_) => "gen.binary",
            GenOp::Unary(_) => "gen.unary",
            GenOp::Transpose(_) => "gen.transpose",
            GenOp::Range => "gen.range",
            GenOp::BuildMatrix { .. } => "gen.build_matrix",
            GenOp::IndexGet => "gen.index_get",
            GenOp::IndexSet { .. } => "gen.index_set",
            GenOp::CallBuiltin(_) => "gen.call_builtin",
            GenOp::CallUser(_) => "gen.call_user",
            GenOp::ResolveAmbiguous(_) => "gen.resolve_ambiguous",
            GenOp::Gemv => "gen.gemv",
            GenOp::AllocReal { .. } => "gen.alloc_real",
            GenOp::EnsureReal { .. } => "gen.ensure_real",
            GenOp::Display(_) => "gen.display",
        },
    }
}

fn to_complex_scalar(v: &Value) -> RuntimeResult<Complex> {
    match v {
        Value::Complex(m) if !m.is_empty() => Ok(m.first()),
        other => Ok(Complex::from(other.to_scalar()?)),
    }
}

fn exec_inst(
    inst: &Inst,
    m: &mut Machine,
    disp: &mut dyn Dispatcher,
    ctx: &mut CallCtx,
) -> RuntimeResult<()> {
    match inst {
        Inst::FConst { d, v } => m.wf(*d, *v),
        Inst::FMov { d, s } => {
            let v = m.rf(*s);
            m.wf(*d, v);
        }
        Inst::FBin { op, d, a, b } => m.wf(*d, op.apply(m.rf(*a), m.rf(*b))),
        Inst::FUn { op, d, s } => m.wf(*d, op.apply(m.rf(*s))),
        Inst::FCmp { op, d, a, b } => m.wf(*d, f64::from(op.apply(m.rf(*a), m.rf(*b)))),
        Inst::FSpillLoad { d, slot } => m.f[d.index()] = m.fspill[*slot as usize],
        Inst::FSpillStore { slot, s } => m.fspill[*slot as usize] = m.f[s.index()],

        Inst::CConst { d, re, im } => m.c[d.index()] = Complex::new(*re, *im),
        Inst::CMov { d, s } => m.c[d.index()] = m.c[s.index()],
        Inst::CBin { op, d, a, b } => m.c[d.index()] = op.apply(m.c[a.index()], m.c[b.index()]),
        Inst::CUn { op, d, s } => m.c[d.index()] = op.apply(m.c[s.index()]),
        Inst::CAbs { d, s } => m.f[d.index()] = m.c[s.index()].abs(),
        Inst::CPart { d, s, imag } => {
            let z = m.c[s.index()];
            m.f[d.index()] = if *imag { z.im } else { z.re };
        }
        Inst::CMake { d, re, im } => {
            m.c[d.index()] = Complex::new(m.f[re.index()], m.f[im.index()]);
        }
        Inst::CSpillLoad { d, slot } => m.c[d.index()] = m.cspill[*slot as usize],
        Inst::CSpillStore { slot, s } => m.cspill[*slot as usize] = m.c[s.index()],

        Inst::ALoadF {
            d,
            arr,
            i,
            j,
            checked,
        } => {
            let (iv, jv) = (m.f[i.index()], j.map(|j| m.f[j.index()]));
            let slot = m.slots[arr.index()]
                .as_ref()
                .ok_or_else(|| undefined(*arr))?;
            let mat = match slot {
                Value::Real(mat) => mat,
                other => {
                    // Inference proved "real matrix", but a generic path
                    // may have produced e.g. Bool; fall back gently.
                    let v = ops::index_get(other, &subs_from_regs(iv, jv))?;
                    m.f[d.index()] = v.to_scalar()?;
                    return Ok(());
                }
            };
            let (r, c) = load_rc(iv, jv, mat.rows(), mat.cols(), *checked)?;
            // SAFETY: checked paths validated above; unchecked paths were
            // proven in-bounds by type inference (subscript-check
            // removal, §2.4) and guarded by the repository's signature
            // check.
            m.f[d.index()] = unsafe { mat.get_unchecked(r, c) };
        }

        Inst::AStoreF {
            arr,
            i,
            j,
            v,
            checked,
            oversize,
        } => {
            let val = m.f[v.index()];
            let iv = m.f[i.index()];
            let jv = j.map(|j| m.f[j.index()]);
            let slot = &mut m.slots[arr.index()];
            if slot.is_none() {
                if !checked {
                    return Err(undefined(*arr));
                }
                *slot = Some(Value::Real(Matrix::zeros(0, 0)));
            }
            let value = slot.as_mut().expect("initialized above");
            if let Value::Real(mat) = value {
                if let Some((r, c)) = resolve_rc(iv, jv, mat.rows(), mat.cols(), *checked)? {
                    // SAFETY: bounds established just above (or proven by
                    // inference on the unchecked path).
                    unsafe { mat.set_unchecked(r, c, val) };
                    return Ok(());
                }
            }
            // Growth (or non-real value): generic store path.
            let subs = subs_from_regs(iv, jv);
            ops::index_set(value, &subs, &Value::scalar(val), *oversize)?;
        }

        Inst::ALoadC {
            d,
            arr,
            i,
            j,
            checked,
        } => {
            let (iv, jv) = (m.f[i.index()], j.map(|j| m.f[j.index()]));
            let slot = m.slots[arr.index()]
                .as_ref()
                .ok_or_else(|| undefined(*arr))?;
            match slot {
                Value::Complex(mat) => {
                    let (r, c) = load_rc(iv, jv, mat.rows(), mat.cols(), *checked)?;
                    // SAFETY: as for ALoadF.
                    m.c[d.index()] = unsafe { mat.get_unchecked(r, c) };
                }
                other => {
                    let v = ops::index_get(other, &subs_from_regs(iv, jv))?;
                    m.c[d.index()] = to_complex_scalar(&v)?;
                }
            }
        }

        Inst::AStoreC {
            arr,
            i,
            j,
            v,
            checked,
            oversize,
        } => {
            let val = m.c[v.index()];
            let iv = m.f[i.index()];
            let jv = j.map(|j| m.f[j.index()]);
            let slot = &mut m.slots[arr.index()];
            // In bounds: store exactly what `ops::index_set` would. A zero
            // imaginary part (either sign) stores `re + 0i` into a complex
            // array and `re` into a real one.
            match slot {
                Some(Value::Complex(mat)) => {
                    if let Some((r, c)) = resolve_rc(iv, jv, mat.rows(), mat.cols(), *checked)? {
                        let z = if val.im == 0.0 {
                            Complex::from(val.re)
                        } else {
                            val
                        };
                        // SAFETY: `resolve_rc` bounds-checked (r, c), or
                        // inference proved them in bounds (`checked: false`).
                        unsafe { mat.set_unchecked(r, c, z) };
                        return Ok(());
                    }
                }
                Some(Value::Real(mat)) if val.im == 0.0 => {
                    if let Some((r, c)) = resolve_rc(iv, jv, mat.rows(), mat.cols(), *checked)? {
                        // SAFETY: as for the complex array above.
                        unsafe { mat.set_unchecked(r, c, val.re) };
                        return Ok(());
                    }
                }
                Some(_) => {}
                None => {
                    // Fresh arrays start real; the store below promotes
                    // when the value is genuinely complex.
                    *slot = Some(Value::Real(Matrix::zeros(0, 0)));
                }
            }
            let value = slot.as_mut().expect("initialized above");
            let subs = subs_from_regs(iv, jv);
            // MATLAB stores values, not static types: a complex register
            // holding a purely real value stores as a real (keeping the
            // array real), exactly like the interpreter.
            let rhs = if val.im == 0.0 {
                Value::scalar(val.re)
            } else {
                Value::complex_scalar(val)
            };
            ops::index_set(value, &subs, &rhs, *oversize)?;
        }

        Inst::ALoadConstF { d, arr, lin } => {
            let slot = m.slots[arr.index()]
                .as_ref()
                .ok_or_else(|| undefined(*arr))?;
            match slot {
                Value::Real(mat) => {
                    let (r, c) = linear_rc(*lin as usize, mat.rows());
                    // SAFETY: exact-shape inference proved the extent.
                    m.f[d.index()] = unsafe { mat.get_unchecked(r, c) };
                }
                other => {
                    let v = ops::index_get(
                        other,
                        &[Subscript::Index(Value::scalar((*lin + 1) as f64))],
                    )?;
                    m.f[d.index()] = v.to_scalar()?;
                }
            }
        }
        Inst::AStoreConstF { arr, lin, v } => {
            let val = m.f[v.index()];
            let slot = m.slots[arr.index()]
                .as_mut()
                .ok_or_else(|| undefined(*arr))?;
            match slot {
                Value::Real(mat) => {
                    let (r, c) = linear_rc(*lin as usize, mat.rows());
                    // SAFETY: exact-shape inference proved the extent.
                    unsafe { mat.set_unchecked(r, c, val) };
                }
                other => {
                    ops::index_set(
                        other,
                        &[Subscript::Index(Value::scalar((*lin + 1) as f64))],
                        &Value::scalar(val),
                        false,
                    )?;
                }
            }
        }

        Inst::FToSlot { slot, s } => {
            m.slots[slot.index()] = Some(Value::scalar(m.f[s.index()]));
        }
        Inst::FToSlotBool { slot, s } => {
            m.slots[slot.index()] = Some(Value::bool_scalar(m.f[s.index()] != 0.0));
        }
        Inst::SlotToF { d, slot } => {
            let v = m.slots[slot.index()]
                .as_ref()
                .ok_or_else(|| undefined(*slot))?;
            m.f[d.index()] = v.to_scalar()?;
        }
        Inst::CToSlot { slot, s } => {
            m.slots[slot.index()] = Some(Value::complex_scalar(m.c[s.index()]).normalized());
        }
        Inst::SlotToC { d, slot } => {
            let v = m.slots[slot.index()]
                .as_ref()
                .ok_or_else(|| undefined(*slot))?;
            m.c[d.index()] = to_complex_scalar(v)?;
        }
        Inst::SlotMov { d, s } => {
            m.slots[d.index()] = m.slots[s.index()].clone();
        }
        Inst::SlotTake { d, s } => {
            // The source is a dead temporary: moving (rather than
            // cloning) keeps the destination the unique owner of its
            // buffer, so subsequent element stores stay in place.
            m.slots[d.index()] = m.slots[s.index()].take();
        }
        Inst::TruthF { d, slot } => {
            let v = m.slots[slot.index()]
                .as_ref()
                .ok_or_else(|| undefined(*slot))?;
            m.f[d.index()] = if v.is_true() { 1.0 } else { 0.0 };
        }
        Inst::ExtentF { d, arr, dim } => {
            let v = m.slots[arr.index()]
                .as_ref()
                .ok_or_else(|| undefined(*arr))?;
            let (r, c) = v.dims();
            m.f[d.index()] = match dim {
                0 => (r * c) as f64,
                1 => r as f64,
                _ => c as f64,
            };
        }
        Inst::Gen { op, dsts, args } => exec_gen(op, dsts, args, m, disp, ctx)?,
        Inst::ErrUndefined(name) => return Err(RuntimeError::Undefined(name.clone())),
    }
    Ok(())
}

fn subs_from_regs(i: f64, j: Option<f64>) -> Vec<Subscript> {
    match j {
        None => vec![Subscript::Index(Value::scalar(i))],
        Some(j) => vec![
            Subscript::Index(Value::scalar(i)),
            Subscript::Index(Value::scalar(j)),
        ],
    }
}

fn operand_value(a: &Operand, m: &Machine) -> RuntimeResult<Value> {
    Ok(match a {
        Operand::Slot(s) => m.slots[s.index()].clone().ok_or_else(|| undefined(*s))?,
        Operand::F(r) => Value::scalar(m.f[r.index()]),
        Operand::C(r) => Value::complex_scalar(m.c[r.index()]).normalized(),
        Operand::FSpill(s) => Value::scalar(m.fspill[*s as usize]),
        Operand::CSpill(s) => Value::complex_scalar(m.cspill[*s as usize]).normalized(),
        Operand::Str(s) => Value::Str(s.clone()),
        Operand::Colon => {
            return Err(RuntimeError::Raised(
                "':' outside an indexing operation".to_owned(),
            ))
        }
    })
}

fn operand_subscript(a: &Operand, m: &Machine) -> RuntimeResult<Subscript> {
    Ok(match a {
        Operand::Colon => Subscript::Colon,
        other => Subscript::Index(operand_value(other, m)?),
    })
}

fn store_results(
    dsts: &[Slot],
    mut vals: Vec<Value>,
    m: &mut Machine,
    what: &str,
) -> RuntimeResult<()> {
    if vals.len() < dsts.len() {
        return Err(RuntimeError::BadArity {
            name: what.to_owned(),
            detail: format!("{} outputs requested, {} produced", dsts.len(), vals.len()),
        });
    }
    for (k, d) in dsts.iter().enumerate().rev() {
        m.slots[d.index()] = Some(std::mem::replace(&mut vals[k], Value::empty()));
    }
    Ok(())
}

fn exec_gen(
    op: &GenOp,
    dsts: &[Slot],
    args: &[Operand],
    m: &mut Machine,
    disp: &mut dyn Dispatcher,
    ctx: &mut CallCtx,
) -> RuntimeResult<()> {
    match op {
        GenOp::Binary(name) => {
            let a = operand_value(&args[0], m)?;
            let b = operand_value(&args[1], m)?;
            let r = match *name {
                "+" => ops::add(&a, &b)?,
                "-" => ops::sub(&a, &b)?,
                "*" => ops::mul(&a, &b)?,
                "/" => ops::div(&a, &b)?,
                "\\" => ops::left_div(&a, &b)?,
                "^" => ops::pow(&a, &b)?,
                ".*" => ops::elem_mul(&a, &b)?,
                "./" => ops::elem_div(&a, &b)?,
                ".\\" => ops::elem_left_div(&a, &b)?,
                ".^" => ops::elem_pow(&a, &b)?,
                "<" => ops::compare(Cmp::Lt, &a, &b)?,
                "<=" => ops::compare(Cmp::Le, &a, &b)?,
                ">" => ops::compare(Cmp::Gt, &a, &b)?,
                ">=" => ops::compare(Cmp::Ge, &a, &b)?,
                "==" => ops::compare(Cmp::Eq, &a, &b)?,
                "~=" => ops::compare(Cmp::Ne, &a, &b)?,
                "&" => ops::logical(&a, &b, false)?,
                "|" => ops::logical(&a, &b, true)?,
                other => {
                    return Err(RuntimeError::Raised(format!(
                        "unknown generic operator '{other}'"
                    )))
                }
            };
            store_results(dsts, vec![r], m, name)
        }
        GenOp::Unary(name) => {
            let a = operand_value(&args[0], m)?;
            let r = match *name {
                "-" => ops::neg(&a)?,
                "~" => ops::not(&a)?,
                "+" => a,
                other => {
                    return Err(RuntimeError::Raised(format!(
                        "unknown generic unary '{other}'"
                    )))
                }
            };
            store_results(dsts, vec![r], m, name)
        }
        GenOp::Transpose(conj) => {
            let a = operand_value(&args[0], m)?;
            store_results(dsts, vec![ops::transpose(&a, *conj)?], m, "'")
        }
        GenOp::Range => {
            let r = match args.len() {
                2 => {
                    let a = operand_value(&args[0], m)?;
                    let b = operand_value(&args[1], m)?;
                    ops::range(&a, None, &b)?
                }
                3 => {
                    let a = operand_value(&args[0], m)?;
                    let s = operand_value(&args[1], m)?;
                    let b = operand_value(&args[2], m)?;
                    ops::range(&a, Some(&s), &b)?
                }
                n => return Err(RuntimeError::Raised(format!("range with {n} operands"))),
            };
            store_results(dsts, vec![r], m, ":")
        }
        GenOp::BuildMatrix { rows } => {
            let mut vals = Vec::new();
            let mut it = args.iter();
            for &n in rows {
                let mut row = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let a = it.next().ok_or_else(|| {
                        RuntimeError::Raised("malformed matrix literal".to_owned())
                    })?;
                    row.push(operand_value(a, m)?);
                }
                vals.push(row);
            }
            store_results(dsts, vec![ops::build_matrix(&vals)?], m, "[]")
        }
        GenOp::IndexGet => {
            let base = operand_value(&args[0], m)?;
            let subs: RuntimeResult<Vec<Subscript>> =
                args[1..].iter().map(|a| operand_subscript(a, m)).collect();
            store_results(dsts, vec![ops::index_get(&base, &subs?)?], m, "()")
        }
        GenOp::IndexSet { oversize } => {
            // args: base slot, subscripts…, value (last).
            let Operand::Slot(base_slot) = &args[0] else {
                return Err(RuntimeError::Raised(
                    "indexed store needs a slot base".to_owned(),
                ));
            };
            let rhs = operand_value(args.last().expect("value operand"), m)?;
            let subs: RuntimeResult<Vec<Subscript>> = args[1..args.len() - 1]
                .iter()
                .map(|a| operand_subscript(a, m))
                .collect();
            let subs = subs?;
            let mut base = m.slots[base_slot.index()]
                .take()
                .unwrap_or_else(Value::empty);
            let r = ops::index_set(&mut base, &subs, &rhs, *oversize);
            m.slots[base_slot.index()] = Some(base);
            r
        }
        GenOp::CallBuiltin(b) => {
            let vals: RuntimeResult<Vec<Value>> =
                args.iter().map(|a| operand_value(a, m)).collect();
            let outs = b.call(ctx, &vals?, dsts.len())?;
            store_results(dsts, outs, m, b.name())
        }
        GenOp::CallUser(name) => {
            // The frame's argument vector, refilled per call and emptied
            // before the results land so no argument outlives the call.
            let mut vals = std::mem::take(&mut m.args);
            let outs = args
                .iter()
                .try_for_each(|a| {
                    vals.push(operand_value(a, m)?);
                    Ok(())
                })
                .and_then(|()| disp.call_user(name, &vals, dsts.len(), ctx));
            vals.clear();
            m.args = vals;
            store_results(dsts, outs?, m, name)
        }
        GenOp::ResolveAmbiguous(name) => {
            // Paper §2.1: ambiguous symbols are deferred to runtime — the
            // dynamic meaning is "variable if defined, else builtin, else
            // user function".
            if let Operand::Slot(s) = &args[0] {
                if let Some(v) = &m.slots[s.index()] {
                    let v = v.clone();
                    return store_results(dsts, vec![v], m, name);
                }
            }
            if let Some(b) = Builtin::lookup(name) {
                let outs = b.call(ctx, &[], dsts.len().max(1))?;
                return store_results(dsts, outs, m, name);
            }
            let outs = disp.call_user(name, &[], dsts.len().max(1), ctx)?;
            store_results(dsts, outs, m, name)
        }
        GenOp::Gemv => {
            // args: alpha, A, x, beta, y.
            let alpha = operand_value(&args[0], m)?.to_scalar()?;
            let a = operand_value(&args[1], m)?;
            let x = operand_value(&args[2], m)?;
            let beta = operand_value(&args[3], m)?.to_scalar()?;
            let y = operand_value(&args[4], m)?;
            // The fused fast path only fires when the shapes really are
            // the dgemv pattern (the selector's guess can be wrong when
            // shape inference was throttled); anything else — including a
            // fused-call failure — recomputes generically, which is
            // always semantically valid.
            let fused = match (&a, &x, &y) {
                (Value::Real(am), Value::Real(xm), Value::Real(ym))
                    if xm.cols() == 1 && ym.cols() == 1 && am.rows() == ym.rows() =>
                {
                    linalg::gemv_fused(alpha, am, &xm.to_contiguous(), beta, &ym.to_contiguous())
                        .ok()
                }
                _ => None,
            };
            let result = match fused {
                Some(out) => {
                    let n = out.len();
                    Value::Real(Matrix::from_vec(n, 1, out))
                }
                None => {
                    let ax = ops::mul(&a, &x)?;
                    let s1 = ops::elem_mul(&Value::scalar(alpha), &ax)?;
                    let s2 = ops::elem_mul(&Value::scalar(beta), &y)?;
                    ops::add(&s1, &s2)?
                }
            };
            store_results(dsts, vec![result], m, "dgemv")
        }
        GenOp::AllocReal { rows, cols } => {
            let v = Value::Real(Matrix::try_zeros(*rows as usize, *cols as usize)?);
            store_results(dsts, vec![v], m, "alloc")
        }
        GenOp::EnsureReal { rows, cols } => {
            let (r, c) = (*rows as usize, *cols as usize);
            let slot = &mut m.slots[dsts[0].index()];
            match slot {
                Some(Value::Real(mat)) if mat.rows() == r && mat.cols() == c => {}
                _ => *slot = Some(Value::Real(Matrix::try_zeros(r, c)?)),
            }
            Ok(())
        }
        GenOp::Display(name) => {
            let v = operand_value(&args[0], m)?;
            ctx.printed.push_str(&format!("{name} = {v}\n"));
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regalloc::{allocate, RegAllocMode};
    use majic_ir::{Block, BlockId, CBinOp, CmpOp, FBinOp};

    fn run(f: &Function, args: &[Value]) -> RuntimeResult<Vec<Value>> {
        let mut f = f.clone();
        let (fs, cs) = allocate(&mut f, RegAllocMode::LinearScan);
        let exe = Executable::new(&f, fs, cs);
        execute(&exe, args, 1, &mut NoDispatch, &mut CallCtx::new())
    }

    /// `y = a + b` through F registers.
    #[test]
    fn scalar_add() {
        let f = Function {
            name: "add".into(),
            blocks: vec![Block {
                insts: vec![Inst::FBin {
                    op: FBinOp::Add,
                    d: Reg(2),
                    a: Reg(0),
                    b: Reg(1),
                }],
                term: Terminator::Return,
            }],
            f_regs: 3,
            params: vec![VarBinding::F(Reg(0)), VarBinding::F(Reg(1))],
            outputs: vec![VarBinding::F(Reg(2))],
            ..Function::default()
        };
        let out = run(&f, &[Value::scalar(2.0), Value::scalar(3.0)]).unwrap();
        assert_eq!(out, vec![Value::scalar(5.0)]);
    }

    /// Counted loop: sum 1..n.
    fn sum_loop() -> Function {
        // r0 = n (param), r1 = k, r2 = s, r3 = cond, r4 = one
        Function {
            name: "sum".into(),
            blocks: vec![
                // bb0: k = 1; s = 0; one = 1
                Block {
                    insts: vec![
                        Inst::FConst { d: Reg(1), v: 1.0 },
                        Inst::FConst { d: Reg(2), v: 0.0 },
                        Inst::FConst { d: Reg(4), v: 1.0 },
                    ],
                    term: Terminator::Jump(BlockId(1)),
                },
                // bb1: cond = k <= n
                Block {
                    insts: vec![Inst::FCmp {
                        op: CmpOp::Le,
                        d: Reg(3),
                        a: Reg(1),
                        b: Reg(0),
                    }],
                    term: Terminator::Branch {
                        cond: Reg(3),
                        then_bb: BlockId(2),
                        else_bb: BlockId(3),
                    },
                },
                // bb2: s += k; k += 1
                Block {
                    insts: vec![
                        Inst::FBin {
                            op: FBinOp::Add,
                            d: Reg(2),
                            a: Reg(2),
                            b: Reg(1),
                        },
                        Inst::FBin {
                            op: FBinOp::Add,
                            d: Reg(1),
                            a: Reg(1),
                            b: Reg(4),
                        },
                    ],
                    term: Terminator::Jump(BlockId(1)),
                },
                Block {
                    insts: vec![],
                    term: Terminator::Return,
                },
            ],
            f_regs: 5,
            params: vec![VarBinding::F(Reg(0))],
            outputs: vec![VarBinding::F(Reg(2))],
            ..Function::default()
        }
    }

    #[test]
    fn loops_and_branches() {
        let out = run(&sum_loop(), &[Value::scalar(100.0)]).unwrap();
        assert_eq!(out, vec![Value::scalar(5050.0)]);
    }

    #[test]
    fn spill_everything_is_slower_but_correct() {
        let mut f = sum_loop();
        let (fs, cs) = allocate(&mut f, RegAllocMode::SpillEverything);
        assert!(fs >= 5);
        let exe = Executable::new(&f, fs, cs);
        let out = execute(
            &exe,
            &[Value::scalar(100.0)],
            1,
            &mut NoDispatch,
            &mut CallCtx::new(),
        )
        .unwrap();
        assert_eq!(out, vec![Value::scalar(5050.0)]);
    }

    #[test]
    fn array_store_grows_and_load_reads() {
        // v(3) = 7 on an undefined slot, then y = v(3).
        let f = Function {
            name: "arr".into(),
            blocks: vec![Block {
                insts: vec![
                    Inst::FConst { d: Reg(0), v: 3.0 },
                    Inst::FConst { d: Reg(1), v: 7.0 },
                    Inst::AStoreF {
                        arr: Slot(0),
                        i: Reg(0),
                        j: None,
                        v: Reg(1),
                        checked: true,
                        oversize: false,
                    },
                    Inst::ALoadF {
                        d: Reg(2),
                        arr: Slot(0),
                        i: Reg(0),
                        j: None,
                        checked: true,
                    },
                ],
                term: Terminator::Return,
            }],
            f_regs: 3,
            slots: 1,
            outputs: vec![VarBinding::F(Reg(2))],
            ..Function::default()
        };
        let out = run(&f, &[]).unwrap();
        assert_eq!(out, vec![Value::scalar(7.0)]);
    }

    #[test]
    fn checked_load_rejects_out_of_bounds() {
        let f = Function {
            name: "oob".into(),
            blocks: vec![Block {
                insts: vec![
                    Inst::FConst { d: Reg(0), v: 5.0 },
                    Inst::ALoadF {
                        d: Reg(1),
                        arr: Slot(0),
                        i: Reg(0),
                        j: None,
                        checked: true,
                    },
                ],
                term: Terminator::Return,
            }],
            f_regs: 2,
            slots: 1,
            params: vec![VarBinding::Slot(Slot(0))],
            outputs: vec![VarBinding::F(Reg(1))],
            ..Function::default()
        };
        let arg = Value::Real(Matrix::from_rows(vec![vec![1.0, 2.0]]));
        assert!(matches!(
            run(&f, &[arg]),
            Err(RuntimeError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn generic_ops_round_trip() {
        // y = [1 2] + [10 20] via the generic path.
        let f = Function {
            name: "gen".into(),
            blocks: vec![Block {
                insts: vec![Inst::Gen {
                    op: GenOp::Binary("+"),
                    dsts: vec![Slot(2)],
                    args: vec![Operand::Slot(Slot(0)), Operand::Slot(Slot(1))],
                }],
                term: Terminator::Return,
            }],
            slots: 3,
            params: vec![VarBinding::Slot(Slot(0)), VarBinding::Slot(Slot(1))],
            outputs: vec![VarBinding::Slot(Slot(2))],
            ..Function::default()
        };
        let a = Value::Real(Matrix::from_rows(vec![vec![1.0, 2.0]]));
        let b = Value::Real(Matrix::from_rows(vec![vec![10.0, 20.0]]));
        let out = run(&f, &[a, b]).unwrap();
        assert_eq!(
            out[0],
            Value::Real(Matrix::from_rows(vec![vec![11.0, 22.0]]))
        );
    }

    #[test]
    fn complex_registers() {
        // y = (1+2i) * (3+4i) = -5 + 10i
        let f = Function {
            name: "cplx".into(),
            blocks: vec![Block {
                insts: vec![
                    Inst::CConst {
                        d: Reg(0),
                        re: 1.0,
                        im: 2.0,
                    },
                    Inst::CConst {
                        d: Reg(1),
                        re: 3.0,
                        im: 4.0,
                    },
                    Inst::CBin {
                        op: CBinOp::Mul,
                        d: Reg(2),
                        a: Reg(0),
                        b: Reg(1),
                    },
                ],
                term: Terminator::Return,
            }],
            c_regs: 3,
            outputs: vec![VarBinding::C(Reg(2))],
            ..Function::default()
        };
        let out = run(&f, &[]).unwrap();
        assert_eq!(out[0], Value::complex_scalar(Complex::new(-5.0, 10.0)));
    }

    /// An in-bounds `AStoreC` (checked or proven) stores bit for bit what
    /// the generic `ops::index_set` path stores, into a real and into a
    /// complex array, for imaginary parts +0, −0 and NaN.
    #[test]
    fn in_bounds_complex_store_matches_index_set() {
        fn bits(v: &Value) -> (bool, Vec<u64>) {
            match v {
                Value::Real(m) => (false, m.iter().map(|x| x.to_bits()).collect()),
                Value::Complex(m) => (
                    true,
                    m.iter()
                        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                        .collect(),
                ),
                other => panic!("unexpected slot {other:?}"),
            }
        }
        let store = |checked: bool, re: f64, im: f64| Function {
            name: "astore_c".into(),
            blocks: vec![Block {
                insts: vec![
                    Inst::FConst { d: Reg(0), v: 2.0 },
                    Inst::FConst { d: Reg(1), v: re },
                    Inst::FConst { d: Reg(2), v: im },
                    Inst::CMake {
                        d: Reg(0),
                        re: Reg(1),
                        im: Reg(2),
                    },
                    Inst::AStoreC {
                        arr: Slot(0),
                        i: Reg(0),
                        j: None,
                        v: Reg(0),
                        checked,
                        oversize: false,
                    },
                ],
                term: Terminator::Return,
            }],
            f_regs: 3,
            c_regs: 1,
            slots: 1,
            params: vec![VarBinding::Slot(Slot(0))],
            outputs: vec![VarBinding::Slot(Slot(0))],
            ..Function::default()
        };
        let real = Value::Real(Matrix::from_rows(vec![vec![1.0, 2.0, 3.0]]));
        let complex = Value::Complex(Matrix::from_rows(vec![vec![
            Complex::new(1.0, 1.0),
            Complex::new(2.0, -0.0),
            Complex::new(3.0, 0.0),
        ]]));
        for base in [real, complex] {
            for im in [0.0, -0.0, f64::NAN] {
                for checked in [false, true] {
                    let got = run(&store(checked, -4.5, im), std::slice::from_ref(&base)).unwrap();
                    // The generic path's right-hand side: a zero imaginary
                    // part stores as a real value.
                    let rhs = if im == 0.0 {
                        Value::scalar(-4.5)
                    } else {
                        Value::complex_scalar(Complex::new(-4.5, im))
                    };
                    let mut want = base.clone();
                    let subs = [Subscript::Index(Value::scalar(2.0))];
                    ops::index_set(&mut want, &subs, &rhs, false).unwrap();
                    assert_eq!(
                        bits(&got[0]),
                        bits(&want),
                        "base {base:?}, im {im:?}, checked {checked}"
                    );
                }
            }
        }
    }

    /// `validate` accepts what the allocator and flattener produce and
    /// rejects hand-corrupted programs whose references the executor
    /// would follow without bounds checks.
    #[test]
    fn validate_rejects_out_of_range_code() {
        let mut f = sum_loop();
        let (fs, cs) = allocate(&mut f, RegAllocMode::LinearScan);
        let exe = Executable::new(&f, fs, cs);
        assert_eq!(exe.validate(), Ok(()));

        // Jump target beyond the program.
        let mut evil = exe.clone();
        evil.steps[3] = Step::Jump(evil.steps.len() as u32 + 7);
        assert!(evil.validate().is_err());

        // Register beyond the fixed register file.
        let mut evil = exe.clone();
        evil.steps[0] = Step::I(Inst::FConst {
            d: Reg(NUM_F_REGS + 1),
            v: 0.0,
        });
        assert!(evil.validate().is_err());

        // Program that can fall off the end.
        let mut evil = exe.clone();
        evil.steps.push(Step::I(Inst::FConst { d: Reg(0), v: 0.0 }));
        assert!(evil.validate().is_err());

        // Spill slot and array slot past the frame.
        let mut evil = exe.clone();
        evil.steps[0] = Step::I(Inst::FSpillLoad {
            d: Reg(0),
            slot: evil.f_spill,
        });
        assert!(evil.validate().is_err());
        let mut evil = exe.clone();
        evil.outputs = vec![VarBinding::Slot(Slot(evil.slots))];
        assert!(evil.validate().is_err());

        // A generic op with fewer operands than it indexes.
        let mut evil = exe.clone();
        evil.steps[0] = Step::I(Inst::Gen {
            op: GenOp::Binary("+"),
            dsts: vec![],
            args: vec![],
        });
        assert!(evil.validate().is_err());
    }

    #[test]
    fn builtin_calls_from_compiled_code() {
        // y = zeros(2, 3); r = size(y, 1)
        let f = Function {
            name: "bt".into(),
            blocks: vec![Block {
                insts: vec![
                    Inst::FConst { d: Reg(0), v: 2.0 },
                    Inst::FConst { d: Reg(1), v: 3.0 },
                    Inst::Gen {
                        op: GenOp::CallBuiltin(Builtin::Zeros),
                        dsts: vec![Slot(0)],
                        args: vec![Operand::F(Reg(0)), Operand::F(Reg(1))],
                    },
                    Inst::ExtentF {
                        d: Reg(2),
                        arr: Slot(0),
                        dim: 2,
                    },
                ],
                term: Terminator::Return,
            }],
            f_regs: 3,
            slots: 1,
            outputs: vec![VarBinding::F(Reg(2))],
            ..Function::default()
        };
        let out = run(&f, &[]).unwrap();
        assert_eq!(out, vec![Value::scalar(3.0)]);
    }

    /// A function of one block whose output lives in slot 0.
    fn slot_output(name: &str, insts: Vec<Inst>) -> Executable {
        let mut f = Function {
            name: name.into(),
            blocks: vec![Block {
                insts,
                term: Terminator::Return,
            }],
            f_regs: 1,
            slots: 1,
            outputs: vec![VarBinding::Slot(Slot(0))],
            ..Function::default()
        };
        let (fs, cs) = allocate(&mut f, RegAllocMode::LinearScan);
        Executable::new(&f, fs, cs)
    }

    /// A call of an unknown user function, which [`NoDispatch`] refuses.
    fn failing_call() -> Inst {
        Inst::Gen {
            op: GenOp::CallUser("missing".into()),
            dsts: vec![],
            args: vec![],
        }
    }

    /// A frame that raised after writing its output slot goes back to
    /// the free list empty: the next call on this thread, which leaves
    /// its output unassigned, still raises instead of returning the
    /// stale value.
    #[test]
    fn reused_frame_keeps_no_value_of_a_raising_call() {
        let writes_then_raises = slot_output(
            "raises",
            vec![
                Inst::FConst { d: Reg(0), v: 7.0 },
                Inst::FToSlot {
                    slot: Slot(0),
                    s: Reg(0),
                },
                failing_call(),
            ],
        );
        let assigns_nothing = slot_output("silent", vec![]);
        let mut ctx = CallCtx::new();
        let err = execute(&writes_then_raises, &[], 1, &mut NoDispatch, &mut ctx).unwrap_err();
        assert_eq!(err, RuntimeError::Undefined("missing".into()));
        let err = execute(&assigns_nothing, &[], 1, &mut NoDispatch, &mut ctx).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::Raised("output argument of 'silent' not assigned".into())
        );
    }

    /// Recursion deeper than [`MAX_RETAINED_FRAMES`] allocates the extra
    /// frames and drops them on return: the free list fills to the cap
    /// and no further.
    #[test]
    fn retained_frames_stay_within_the_cap() {
        /// Re-enters `exe` until `left` reaches zero, then returns 0.
        struct Recurse<'a> {
            exe: &'a Executable,
            left: usize,
        }
        impl Dispatcher for Recurse<'_> {
            fn call_user(
                &mut self,
                _name: &str,
                args: &[Value],
                nargout: usize,
                ctx: &mut CallCtx,
            ) -> RuntimeResult<Vec<Value>> {
                if self.left == 0 {
                    return Ok(vec![Value::scalar(0.0)]);
                }
                self.left -= 1;
                let exe = self.exe;
                execute(exe, args, nargout, self, ctx)
            }
        }
        std::thread::Builder::new()
            .stack_size(64 * 1024 * 1024)
            .spawn(|| {
                let exe = slot_output(
                    "deep",
                    vec![Inst::Gen {
                        op: GenOp::CallUser("deep".into()),
                        dsts: vec![Slot(0)],
                        args: vec![],
                    }],
                );
                let mut disp = Recurse {
                    exe: &exe,
                    left: 3 * MAX_RETAINED_FRAMES,
                };
                let out = execute(&exe, &[], 1, &mut disp, &mut CallCtx::new()).unwrap();
                assert_eq!(out, vec![Value::scalar(0.0)]);
                let retained = FRAMES.with(|frames| frames.borrow().len());
                assert_eq!(retained, MAX_RETAINED_FRAMES);
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
