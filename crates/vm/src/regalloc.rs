//! Linear-scan register allocation (Poletto & Sarkar, TOPLAS 1999).

use majic_ir::{Access, Function, Inst, InstOperand, Operand, Reg, Terminator, VarBinding};

/// Physical `F` register-file size.
pub const NUM_F_REGS: u32 = 32;
/// Physical `C` register-file size.
pub const NUM_C_REGS: u32 = 16;
/// Scratch registers reserved per class for spill traffic.
const SCRATCH: u32 = 3;

/// Allocation mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegAllocMode {
    /// Normal linear scan.
    LinearScan,
    /// Spill every virtual register — Figure 7's "no regalloc" ablation
    /// ("forcing the linear-scan register allocator to spill every
    /// variable … roughly equivalent to compiling with the -g flag").
    SpillEverything,
}

#[derive(Clone, Copy, Debug)]
struct Interval {
    vreg: u32,
    start: u32,
    end: u32,
}

#[derive(Clone, Copy, Debug)]
enum Loc {
    Reg(u32),
    Spill(u32),
}

/// Rewrite `f` in place: virtual `F`/`C` registers become physical ones,
/// with spill loads/stores through scratch registers. Returns the spill
/// area sizes `(f_spill, c_spill)`.
pub fn allocate(f: &mut Function, mode: RegAllocMode) -> (u32, u32) {
    let f_spill = allocate_class(f, Class::F, mode);
    let c_spill = allocate_class(f, Class::C, mode);
    f.f_regs = NUM_F_REGS;
    f.c_regs = NUM_C_REGS;
    (f_spill, c_spill)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    F,
    C,
}

impl Class {
    /// The register `op` names in this class, if any.
    fn reg<R, S, N>(self, op: InstOperand<R, S, N>) -> Option<(R, Access)> {
        match (self, op) {
            (Class::F, InstOperand::F(r, a)) | (Class::C, InstOperand::C(r, a)) => Some((r, a)),
            _ => None,
        }
    }

    fn spill_load(self, d: Reg, slot: u32) -> Inst {
        match self {
            Class::F => Inst::FSpillLoad { d, slot },
            Class::C => Inst::CSpillLoad { d, slot },
        }
    }

    fn spill_store(self, slot: u32, s: Reg) -> Inst {
        match self {
            Class::F => Inst::FSpillStore { slot, s },
            Class::C => Inst::CSpillStore { slot, s },
        }
    }
}

/// Positions are instruction indices over the linearized block list,
/// ×2 so that spill code slots between them conceptually.
fn allocate_class(f: &mut Function, class: Class, mode: RegAllocMode) -> u32 {
    let vreg_count = match class {
        Class::F => f.f_regs,
        Class::C => f.c_regs,
    };
    if vreg_count == 0 {
        return 0;
    }
    // Allocatable registers; the scratch registers sit above them.
    let num_regs = match class {
        Class::F => NUM_F_REGS,
        Class::C => NUM_C_REGS,
    } - SCRATCH;
    let scratch_base = num_regs;

    // ---- build live intervals ----
    // `live[v]` is the `(first, last)` position of vreg `v`, if it occurs.
    let mut live: Vec<Option<(u32, u32)>> = vec![None; vreg_count as usize];
    let mut touch = |r: &Reg, pos: u32| {
        let e = live[r.index()].get_or_insert((pos, pos));
        e.1 = e.1.max(pos);
    };

    // Parameters are live from position 0.
    for b in &f.params {
        if let Some((r, _)) = class.reg(b.operand(Access::Write)) {
            touch(r, 0);
        }
    }

    let mut pos = 1u32;
    let mut block_ranges = Vec::with_capacity(f.blocks.len());
    for block in &f.blocks {
        let start = pos;
        for inst in &block.insts {
            inst.for_each_operand(|op| {
                if let Some((r, _)) = class.reg(op) {
                    touch(r, pos);
                }
            });
            pos += 1;
        }
        if class == Class::F {
            if let Terminator::Branch { cond, .. } = &block.term {
                touch(cond, pos);
            }
        }
        pos += 1;
        block_ranges.push((start, pos));
    }
    let end_pos = pos;

    // Outputs are live to the end.
    for b in &f.outputs {
        if let Some((r, _)) = class.reg(b.operand(Access::Read)) {
            touch(r, end_pos);
        }
    }

    // Loop extension: an interval that pokes into a loop extends over the
    // whole loop (live across the backedge).
    let loop_ranges: Vec<(u32, u32)> = f
        .loops
        .iter()
        .map(|lp| {
            let mut lo = u32::MAX;
            let mut hi = 0;
            for b in &lp.blocks {
                let (s, e) = block_ranges[b.index()];
                lo = lo.min(s);
                hi = hi.max(e);
            }
            (lo, hi)
        })
        .collect();

    // In vreg order, so equal `(start, end)` keys below break ties
    // towards the lower vreg and the output does not depend on anything
    // but the input.
    let mut intervals: Vec<Interval> = (0..)
        .zip(&live)
        .filter_map(|(vreg, r)| r.map(|(start, end)| Interval { vreg, start, end }))
        .collect();
    // Iterate: extension into one loop may overlap another.
    let mut changed = true;
    while changed {
        changed = false;
        for iv in &mut intervals {
            for &(lo, hi) in &loop_ranges {
                // Inclusive on both sides: a value whose last use is the
                // loop header's first instruction is still live around
                // the backedge.
                let overlaps = iv.start <= hi && iv.end >= lo;
                let inside = iv.start >= lo && iv.end <= hi;
                if overlaps && !inside && (iv.start > lo || iv.end < hi) {
                    let ns = iv.start.min(lo);
                    let ne = iv.end.max(hi);
                    if ns != iv.start || ne != iv.end {
                        iv.start = ns;
                        iv.end = ne;
                        changed = true;
                    }
                }
            }
        }
    }

    // ---- linear scan ----
    // Indexed by vreg; a vreg that never occurs keeps the placeholder.
    let mut assignment: Vec<Loc> = vec![Loc::Reg(0); vreg_count as usize];
    let mut next_spill = 0u32;
    match mode {
        RegAllocMode::SpillEverything => {
            for iv in &intervals {
                assignment[iv.vreg as usize] = Loc::Spill(next_spill);
                next_spill += 1;
            }
        }
        RegAllocMode::LinearScan => {
            intervals.sort_by_key(|iv| (iv.start, iv.end));
            let mut active: Vec<Interval> = Vec::new();
            let mut free: Vec<u32> = (0..num_regs).rev().collect();
            for iv in &intervals {
                // Expire old intervals.
                active.retain(|a| {
                    if a.end < iv.start {
                        if let Loc::Reg(r) = assignment[a.vreg as usize] {
                            free.push(r);
                        }
                        false
                    } else {
                        true
                    }
                });
                if let Some(r) = free.pop() {
                    assignment[iv.vreg as usize] = Loc::Reg(r);
                    active.push(*iv);
                } else {
                    // Spill the interval with the furthest end.
                    let (far_idx, far) = active
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, a)| a.end)
                        .map(|(i, a)| (i, *a))
                        .expect("active nonempty when out of registers");
                    if far.end > iv.end {
                        let r = match assignment[far.vreg as usize] {
                            Loc::Reg(r) => r,
                            Loc::Spill(_) => unreachable!("active holds registers"),
                        };
                        assignment[far.vreg as usize] = Loc::Spill(next_spill);
                        next_spill += 1;
                        assignment[iv.vreg as usize] = Loc::Reg(r);
                        active.remove(far_idx);
                        active.push(*iv);
                    } else {
                        assignment[iv.vreg as usize] = Loc::Spill(next_spill);
                        next_spill += 1;
                    }
                }
            }
        }
    }

    // ---- rewrite ----
    let loc = |r: Reg| assignment[r.index()];
    for block in &mut f.blocks {
        let mut out: Vec<Inst> = Vec::with_capacity(block.insts.len());
        for mut inst in block.insts.drain(..) {
            // Generic ops may carry arbitrarily many scalar operands; the
            // spill area is addressed directly instead of going through
            // the (finite) scratch registers.
            if let Inst::Gen { args, .. } = &mut inst {
                for a in args.iter_mut() {
                    match (class, &a) {
                        (Class::F, Operand::F(r)) => match loc(*r) {
                            Loc::Reg(p) => *a = Operand::F(Reg(p)),
                            Loc::Spill(s) => *a = Operand::FSpill(s),
                        },
                        (Class::C, Operand::C(r)) => match loc(*r) {
                            Loc::Reg(p) => *a = Operand::C(Reg(p)),
                            Loc::Spill(s) => *a = Operand::CSpill(s),
                        },
                        _ => {}
                    }
                }
                out.push(inst);
                continue;
            }
            // A spilled read reloads through the next scratch register,
            // once per slot: a second read of the same slot reuses the
            // register the first one loaded. A spilled write goes through
            // the last scratch register and is stored after.
            let mut scratch_used = 0u32;
            let mut loads: Vec<Inst> = Vec::new();
            let mut stores: Vec<Inst> = Vec::new();
            let mut loaded: Vec<(u32, Reg)> = Vec::new();
            inst.for_each_operand_mut(|op| {
                let Some((r, access)) = class.reg(op) else {
                    return;
                };
                match (loc(*r), access) {
                    (Loc::Reg(p), _) => *r = Reg(p),
                    (Loc::Spill(slot), Access::Read) => {
                        if let Some(&(_, s)) = loaded.iter().find(|(l, _)| *l == slot) {
                            *r = s;
                            return;
                        }
                        *r = Reg(scratch_base + scratch_used);
                        scratch_used = (scratch_used + 1) % SCRATCH;
                        // A wrapped-around scratch register no longer holds
                        // the slot it loaded before.
                        loaded.retain(|&(_, s)| s != *r);
                        loaded.push((slot, *r));
                        loads.push(class.spill_load(*r, slot));
                    }
                    (Loc::Spill(slot), Access::Write) => {
                        *r = Reg(scratch_base + SCRATCH - 1);
                        stores.push(class.spill_store(slot, *r));
                    }
                }
            });
            out.extend(loads);
            out.push(inst);
            out.extend(stores);
        }
        // Branch condition.
        if class == Class::F {
            if let Terminator::Branch { cond, .. } = &mut block.term {
                match loc(*cond) {
                    Loc::Reg(p) => *cond = Reg(p),
                    Loc::Spill(slot) => {
                        *cond = Reg(scratch_base);
                        out.push(class.spill_load(*cond, slot));
                    }
                }
            }
        }
        block.insts = out;
    }

    // Bindings.
    for b in f.params.iter_mut().chain(&mut f.outputs) {
        *b = match (class, *b) {
            (Class::F, VarBinding::F(r)) => match loc(r) {
                Loc::Reg(p) => VarBinding::F(Reg(p)),
                Loc::Spill(s) => VarBinding::FSpill(s),
            },
            (Class::C, VarBinding::C(r)) => match loc(r) {
                Loc::Reg(p) => VarBinding::C(Reg(p)),
                Loc::Spill(s) => VarBinding::CSpill(s),
            },
            (_, other) => other,
        };
    }

    next_spill
}

#[cfg(test)]
mod tests {
    use super::*;
    use majic_ir::{Block, FBinOp};

    /// Build a straight-line function with `n` simultaneously-live vregs.
    fn many_live(n: u32) -> Function {
        let mut insts = Vec::new();
        for k in 0..n {
            insts.push(Inst::FConst {
                d: Reg(k),
                v: k as f64,
            });
        }
        // One big sum keeps them all live to the end.
        let mut acc = Reg(n);
        insts.push(Inst::FMov { d: acc, s: Reg(0) });
        for k in 1..n {
            let next = Reg(n + k);
            insts.push(Inst::FBin {
                op: FBinOp::Add,
                d: next,
                a: acc,
                b: Reg(k),
            });
            acc = next;
        }
        Function {
            name: "t".into(),
            blocks: vec![Block {
                insts,
                term: Terminator::Return,
            }],
            f_regs: 2 * n,
            outputs: vec![VarBinding::F(acc)],
            ..Function::default()
        }
    }

    #[test]
    fn no_spills_when_pressure_is_low() {
        let mut f = many_live(5);
        let (fs, _) = allocate(&mut f, RegAllocMode::LinearScan);
        assert_eq!(fs, 0);
        // All register numbers now within the physical file.
        for b in &f.blocks {
            for i in &b.insts {
                i.for_each_operand(|op| {
                    if let InstOperand::F(r, _) = op {
                        assert!(r.0 < NUM_F_REGS);
                    }
                });
            }
        }
    }

    #[test]
    fn spills_appear_under_pressure() {
        let mut f = many_live(64);
        let (fs, _) = allocate(&mut f, RegAllocMode::LinearScan);
        assert!(fs > 0, "64 live values must spill on a 32-register file");
        let spill_insts = f.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::FSpillLoad { .. } | Inst::FSpillStore { .. }))
            .count();
        assert!(spill_insts > 0);
    }

    #[test]
    fn spill_everything_spills_everything() {
        let mut f = many_live(4);
        let before = f.inst_count();
        let (fs, _) = allocate(&mut f, RegAllocMode::SpillEverything);
        assert!(fs >= 4);
        assert!(
            f.inst_count() > before * 2,
            "spill-everything must add heavy spill traffic"
        );
    }

    /// `x*x` with `x` spilled reloads `x` once and reads the one
    /// scratch register twice.
    #[test]
    fn repeated_spilled_read_loads_once() {
        let mut f = Function {
            name: "sq".into(),
            blocks: vec![Block {
                insts: vec![Inst::FBin {
                    op: FBinOp::Mul,
                    d: Reg(1),
                    a: Reg(0),
                    b: Reg(0),
                }],
                term: Terminator::Return,
            }],
            f_regs: 2,
            params: vec![VarBinding::F(Reg(0))],
            outputs: vec![VarBinding::F(Reg(1))],
            ..Function::default()
        };
        allocate(&mut f, RegAllocMode::SpillEverything);
        let insts = &f.blocks[0].insts;
        let loads: Vec<&Inst> = insts
            .iter()
            .filter(|i| matches!(i, Inst::FSpillLoad { .. }))
            .collect();
        assert_eq!(loads.len(), 1, "{insts:?}");
        let Inst::FSpillLoad { d, .. } = *loads[0] else {
            unreachable!()
        };
        assert!(
            insts
                .iter()
                .any(|i| matches!(i, Inst::FBin { a, b, .. } if *a == d && *b == d)),
            "{insts:?}"
        );
    }

    #[test]
    fn bindings_are_remapped() {
        let mut f = many_live(64);
        allocate(&mut f, RegAllocMode::LinearScan);
        match f.outputs[0] {
            VarBinding::F(r) => assert!(r.0 < NUM_F_REGS),
            VarBinding::FSpill(_) => {}
            other => panic!("unexpected binding {other:?}"),
        }
    }
}
