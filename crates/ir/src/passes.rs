//! The optimizing backend's IR passes.
//!
//! The paper's speculative pipeline leans on a slow, aggressive backend
//! (the platform C/Fortran compiler at `-O`-max). These passes are our
//! equivalent: loop-invariant code motion and dead-code elimination over
//! the pure `F`-register subset of the IR. They are deliberately *not* run by the
//! JIT pipeline — "no loop optimizations or instruction scheduling are
//! performed" there (§2.6) — which is exactly the JIT-vs-optimized gap
//! the evaluation measures.

use crate::inst::{Access, Function, Inst, InstOperand, Reg, Terminator, VarBinding};
use std::collections::HashMap;

/// The `F` register `i` writes, if any (an instruction writes at most one).
fn f_def(i: &Inst) -> Option<Reg> {
    let mut def = None;
    i.for_each_operand(|op| {
        if let InstOperand::F(r, Access::Write) = op {
            def = Some(*r);
        }
    });
    def
}

/// Call `use_reg` on each `F` register `i` reads.
fn for_each_f_use(i: &Inst, mut use_reg: impl FnMut(Reg)) {
    i.for_each_operand(|op| {
        if let InstOperand::F(r, Access::Read) = op {
            use_reg(*r);
        }
    });
}

/// Which passes to run.
#[derive(Clone, Copy, Debug)]
pub struct PassOptions {
    /// Loop-invariant code motion.
    pub licm: bool,
    /// Dead-code elimination.
    pub dce: bool,
}

impl PassOptions {
    /// Everything on (the optimizing backend).
    pub fn all() -> PassOptions {
        PassOptions {
            licm: true,
            dce: true,
        }
    }

    /// Everything off (the JIT backend).
    pub fn none() -> PassOptions {
        PassOptions {
            licm: false,
            dce: false,
        }
    }
}

/// Run the selected passes once: LICM, then DCE. One round suffices:
/// `f.loops` lists inner loops first, so an invariant hoisted into an
/// inner preheader is hoisted again when its enclosing loop is visited,
/// and DCE iterates to its own fixpoint.
pub fn optimize(f: &mut Function, opts: PassOptions) {
    if opts.licm {
        licm(f);
    }
    if opts.dce {
        dce(f);
    }
}

/// Loop-invariant code motion: move pure `F` instructions whose inputs
/// are not defined anywhere in the loop — and whose destination is
/// defined exactly once in the whole function — into the preheader.
pub fn licm(f: &mut Function) {
    // Whole-function def counts.
    let mut def_count: HashMap<Reg, u32> = HashMap::new();
    for b in &f.blocks {
        for i in &b.insts {
            if let Some(d) = f_def(i) {
                *def_count.entry(d).or_default() += 1;
            }
        }
    }
    for p in &f.params {
        if let VarBinding::F(r) = p {
            *def_count.entry(*r).or_default() += 1;
        }
    }

    let loops = f.loops.clone();
    for lp in &loops {
        loop {
            // Defs inside the loop.
            let mut in_loop_defs: HashMap<Reg, u32> = HashMap::new();
            for &bid in &lp.blocks {
                for i in &f.blocks[bid.index()].insts {
                    if let Some(d) = f_def(i) {
                        *in_loop_defs.entry(d).or_default() += 1;
                    }
                }
            }
            // Find one hoistable instruction.
            let mut found: Option<(usize, usize)> = None;
            'search: for &bid in &lp.blocks {
                for (k, i) in f.blocks[bid.index()].insts.iter().enumerate() {
                    if !i.pure_f() {
                        continue;
                    }
                    let Some(d) = f_def(i) else { continue };
                    if def_count.get(&d).copied().unwrap_or(0) != 1 {
                        continue;
                    }
                    let mut variant = false;
                    for_each_f_use(i, |s| variant |= in_loop_defs.contains_key(&s));
                    if variant {
                        continue;
                    }
                    found = Some((bid.index(), k));
                    break 'search;
                }
            }
            match found {
                Some((bi, k)) => {
                    let inst = f.blocks[bi].insts.remove(k);
                    f.blocks[lp.preheader.index()].insts.push(inst);
                }
                None => break,
            }
        }
    }
}

/// Dead-code elimination: drop pure `F`/`C` instructions whose result is
/// never used.
pub fn dce(f: &mut Function) {
    loop {
        let mut used: HashMap<Reg, u32> = HashMap::new();
        let mut bump = |r: Reg| *used.entry(r).or_default() += 1;
        for b in &f.blocks {
            for i in &b.insts {
                for_each_f_use(i, &mut bump);
            }
            if let Terminator::Branch { cond, .. } = &b.term {
                bump(*cond);
            }
        }
        for o in &f.outputs {
            if let VarBinding::F(r) = o {
                bump(*r);
            }
        }
        // CMake's `F` operands count as uses above; C registers
        // themselves are kept conservatively (C code is rare and cheap).
        let mut removed = false;
        for b in &mut f.blocks {
            b.insts.retain(|i| {
                let dead =
                    i.pure_f() && f_def(i).is_some_and(|d| used.get(&d).copied().unwrap_or(0) == 0);
                if dead {
                    removed = true;
                }
                !dead
            });
        }
        if !removed {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Block, BlockId, FBinOp, LoopInfo};

    fn func(blocks: Vec<Block>) -> Function {
        Function {
            name: "t".into(),
            f_regs: 32,
            blocks,
            ..Function::default()
        }
    }

    fn bin(op: FBinOp, d: u32, a: u32, b: u32) -> Inst {
        Inst::FBin {
            op,
            d: Reg(d),
            a: Reg(a),
            b: Reg(b),
        }
    }

    fn konst(d: u32, v: f64) -> Inst {
        Inst::FConst { d: Reg(d), v }
    }

    #[test]
    fn dce_removes_unused_results() {
        let mut f = func(vec![Block {
            insts: vec![
                konst(0, 1.0),
                bin(FBinOp::Add, 1, 0, 0), // dead
                konst(2, 5.0),             // kept: feeds the output
            ],
            term: Terminator::Return,
        }]);
        f.outputs = vec![VarBinding::F(Reg(2))];
        dce(&mut f);
        assert_eq!(f.blocks[0].insts.len(), 1);
        assert_eq!(f.blocks[0].insts[0], konst(2, 5.0));
    }

    #[test]
    fn dce_keeps_branch_conditions() {
        let mut f = func(vec![
            Block {
                insts: vec![konst(0, 1.0)],
                term: Terminator::Branch {
                    cond: Reg(0),
                    then_bb: BlockId(1),
                    else_bb: BlockId(1),
                },
            },
            Block {
                insts: vec![],
                term: Terminator::Return,
            },
        ]);
        dce(&mut f);
        assert_eq!(f.blocks[0].insts.len(), 1);
    }

    #[test]
    fn licm_hoists_invariant_computation() {
        // Block 0: preheader; block 1: loop header/body with an invariant
        // mul (r3 = r0*r1, inputs defined outside).
        let mut f = func(vec![
            Block {
                insts: vec![konst(0, 2.0), konst(1, 3.0), konst(4, 0.0)],
                term: Terminator::Jump(BlockId(1)),
            },
            Block {
                insts: vec![
                    bin(FBinOp::Mul, 3, 0, 1), // invariant
                    bin(FBinOp::Add, 4, 4, 3), // varying accumulator
                ],
                term: Terminator::Branch {
                    cond: Reg(4),
                    then_bb: BlockId(1),
                    else_bb: BlockId(2),
                },
            },
            Block {
                insts: vec![],
                term: Terminator::Return,
            },
        ]);
        f.loops = vec![LoopInfo {
            preheader: BlockId(0),
            header: BlockId(1),
            blocks: vec![BlockId(1)],
        }];
        f.outputs = vec![VarBinding::F(Reg(4))];
        licm(&mut f);
        // The mul moved to block 0; the accumulator stayed.
        assert!(f.blocks[0].insts.contains(&bin(FBinOp::Mul, 3, 0, 1)));
        assert_eq!(f.blocks[1].insts.len(), 1);
    }

    #[test]
    fn licm_leaves_multiply_defined_registers() {
        // r3 is defined both inside and outside the loop: not hoistable.
        let mut f = func(vec![
            Block {
                insts: vec![konst(0, 2.0), konst(3, 0.0)],
                term: Terminator::Jump(BlockId(1)),
            },
            Block {
                insts: vec![bin(FBinOp::Mul, 3, 0, 0)],
                term: Terminator::Branch {
                    cond: Reg(3),
                    then_bb: BlockId(1),
                    else_bb: BlockId(2),
                },
            },
            Block {
                insts: vec![],
                term: Terminator::Return,
            },
        ]);
        f.loops = vec![LoopInfo {
            preheader: BlockId(0),
            header: BlockId(1),
            blocks: vec![BlockId(1)],
        }];
        licm(&mut f);
        assert_eq!(f.blocks[1].insts.len(), 1, "must not hoist");
    }

    #[test]
    fn optimize_hoists_then_drops_dead_code() {
        // r3 = r0*r1 is invariant and feeds the accumulator; r5 = r3+r3
        // is invariant too but unread. LICM hoists both into block 0,
        // then DCE drops r5 there.
        let mut f = func(vec![
            Block {
                insts: vec![konst(0, 2.0), konst(1, 3.0), konst(4, 0.0)],
                term: Terminator::Jump(BlockId(1)),
            },
            Block {
                insts: vec![
                    bin(FBinOp::Mul, 3, 0, 1),
                    bin(FBinOp::Add, 5, 3, 3),
                    bin(FBinOp::Add, 4, 4, 3),
                ],
                term: Terminator::Branch {
                    cond: Reg(4),
                    then_bb: BlockId(1),
                    else_bb: BlockId(2),
                },
            },
            Block {
                insts: vec![],
                term: Terminator::Return,
            },
        ]);
        f.loops = vec![LoopInfo {
            preheader: BlockId(0),
            header: BlockId(1),
            blocks: vec![BlockId(1)],
        }];
        f.outputs = vec![VarBinding::F(Reg(4))];
        optimize(&mut f, PassOptions::all());
        assert_eq!(
            f.blocks[0].insts,
            [
                konst(0, 2.0),
                konst(1, 3.0),
                konst(4, 0.0),
                bin(FBinOp::Mul, 3, 0, 1)
            ]
        );
        assert_eq!(f.blocks[1].insts, [bin(FBinOp::Add, 4, 4, 3)]);
    }
}
