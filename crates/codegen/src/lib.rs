//! MaJIC code generation (paper §2.6).
//!
//! "Both code generators use the parsed AST and type annotations to drive
//! code selection. The code generators follow the same general selection
//! rules, but build radically different code."
//!
//! This crate implements the shared **code selector** (typed AST →
//! register IR) and the option presets of the two pipelines built on
//! it, which the engine runs one layer at a time:
//!
//! * the **JIT pipeline** — selection, then register allocation, then
//!   flattening; "no loop optimizations or instruction scheduling are
//!   performed. Register allocation is done using the linear-scan
//!   register allocator";
//! * the **optimizing pipeline** — the same selection followed by the
//!   `majic-ir` pass set (LICM, then DCE), standing in
//!   for the platform C/Fortran compiler of the paper's speculative
//!   backend.
//!
//! Selection rules implemented (paper §2.6.1):
//!
//! * generic complex-matrix fallback for anything un-inferred,
//! * inlined scalar arithmetic/logic/math on `F`/`C` registers,
//! * inlined scalar and F90-style array indexing, with **subscript
//!   checks removed** when ranges and shapes prove them redundant,
//! * pre-allocated small temporaries and **full unrolling** of small
//!   (≤ 3×3) vector operations with exactly known shapes,
//! * `dgemv` call fusion for `a*X + b*C*Y`-shaped expressions,
//! * array **oversizing** (~10% headroom) on resizing stores,
//! * (function inlining runs earlier, as an AST pass in
//!   `majic-analysis`).
//!
//! Selection is driven by the annotations alone; no option steers it.
//! The `mcc` baseline (the bottom row of the paper's Figure 3) is the
//! JIT pipeline run without inference: against empty annotations every
//! node is `⊤`, so every variable lives in a slot and every operation,
//! literal and constant is a generic library call.

#![deny(missing_docs)]

mod select;

pub use select::{compile, CodegenError, CodegenOptions};

use majic_ir::passes::PassOptions;
use majic_vm::RegAllocMode;

impl CodegenOptions {
    /// The JIT pipeline: fast selection, no IR passes, linear scan
    /// (paper §2.6: "builds code fast and in memory").
    pub fn jit() -> CodegenOptions {
        CodegenOptions {
            passes: PassOptions::none(),
            regalloc: RegAllocMode::LinearScan,
            oversize: true,
        }
    }

    /// The optimizing pipeline used behind speculative / batch
    /// compilation: full IR pass set.
    pub fn optimizing() -> CodegenOptions {
        CodegenOptions {
            passes: PassOptions::all(),
            ..CodegenOptions::jit()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use majic_analysis::{disambiguate, inline_function, InlineOptions};
    use majic_ast::Function;
    use majic_infer::{infer_jit, Annotations, InferOptions, NoOracle};
    use majic_ir::{passes, FBinOp, GenOp, Inst, VarBinding};
    use majic_runtime::builtins::Builtin;
    use majic_types::{Intrinsic, Signature, Type};
    use std::collections::{HashMap, HashSet};

    /// Without type information selection produces the `mcc` baseline:
    /// every variable lives in a slot, every operation is one generic
    /// library call, and a literal is boxed where it is made.
    #[test]
    fn untyped_code_is_one_library_call_per_operation() {
        let src = "function r = f(x, a)\ny = sin(x) + 2 * x;\na(2) = y;\nr = a(1) - 0.5;\n";
        let file = majic_ast::parse_source(src).unwrap();
        let known: HashSet<String> = file.functions.iter().map(|f| f.name.clone()).collect();
        let d = disambiguate(&file.functions[0], &known);
        let func = compile(&d, &Annotations::default(), &CodegenOptions::jit()).unwrap();

        let in_slots = |b: &[VarBinding]| b.iter().all(|b| matches!(b, VarBinding::Slot(_)));
        assert!(in_slots(&func.params) && in_slots(&func.outputs));
        let (mut ops, mut literals, mut boxed) = (Vec::new(), 0, 0);
        for inst in func.blocks.iter().flat_map(|b| &b.insts) {
            match inst {
                Inst::Gen { op, .. } => ops.push(op.clone()),
                Inst::FConst { .. } => literals += 1,
                Inst::FToSlot { .. } => boxed += 1,
                Inst::SlotMov { .. } | Inst::SlotTake { .. } => {}
                other => panic!("untyped code emitted {other:?}"),
            }
        }
        assert_eq!(
            ops,
            [
                GenOp::CallBuiltin(Builtin::Sin),
                GenOp::Binary("*"),
                GenOp::Binary("+"),
                GenOp::IndexSet { oversize: true },
                GenOp::IndexGet,
                GenOp::Binary("-"),
            ]
        );
        // `2`, `2`, `1` and `0.5`, each boxed at once; no variable holds a
        // register.
        assert_eq!((literals, boxed), (4, 4));
        assert_eq!((func.f_regs, func.c_regs), (4, 0));
    }

    /// A complex element store drops its subscript check when inference
    /// proves the subscript in bounds (§2.4), exactly as a real store
    /// does; a subscript past the known extent keeps it.
    #[test]
    fn provably_in_bounds_complex_store_is_unchecked() {
        let src = "function a = f(a, z)\na(2) = z;\na(4) = z;\n";
        let file = majic_ast::parse_source(src).unwrap();
        let known: HashSet<String> = file.functions.iter().map(|f| f.name.clone()).collect();
        let d = disambiguate(&file.functions[0], &known);
        let sig = Signature::new(vec![
            Type::matrix(Intrinsic::Complex, 1, 3),
            Type::scalar(Intrinsic::Complex),
        ]);
        let ann = infer_jit(&d, &sig, InferOptions::default(), &NoOracle);
        let func = compile(&d, &ann, &CodegenOptions::jit()).unwrap();
        let checked: Vec<bool> = func
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|i| match i {
                Inst::AStoreC { checked, .. } => Some(*checked),
                _ => None,
            })
            .collect();
        assert_eq!(checked, [false, true]);
    }

    /// Selection records nested loops inner first, so one `optimize`
    /// call hoists an inner-loop invariant into the inner preheader and
    /// then, visiting the outer loop, into the outer preheader.
    #[test]
    fn one_optimize_hoists_an_invariant_out_of_nested_loops() {
        let src =
            "function s = f(a, b, n)\ns = 0;\nfor i = 1:n\nfor j = 1:n\ns = s + a * b;\nend\nend\n";
        let file = majic_ast::parse_source(src).unwrap();
        let known: HashSet<String> = file.functions.iter().map(|f| f.name.clone()).collect();
        let d = disambiguate(&file.functions[0], &known);
        let real = Type::scalar(Intrinsic::Real);
        let sig = Signature::new(vec![real; 3]);
        let ann = infer_jit(&d, &sig, InferOptions::default(), &NoOracle);
        let mut func = compile(&d, &ann, &CodegenOptions::optimizing()).unwrap();
        let [inner, outer] = &func.loops[..] else {
            panic!("expected two loops, got {:?}", func.loops);
        };
        assert!(
            outer.blocks.contains(&inner.preheader),
            "inner loop listed first"
        );
        let outer_preheader = outer.preheader.index();

        let is_mul = |i: &Inst| {
            matches!(
                i,
                Inst::FBin {
                    op: FBinOp::Mul,
                    ..
                }
            )
        };
        passes::optimize(&mut func, CodegenOptions::optimizing().passes);
        let homes: Vec<usize> = (0..func.blocks.len())
            .filter(|&b| func.blocks[b].insts.iter().any(is_mul))
            .collect();
        assert_eq!(homes, [outer_preheader]);
    }

    /// The inliner wraps an early-returning callee in `for once = 1:1`.
    /// Selection lowers that loop as straight-line code, so only the
    /// real loop records a `LoopInfo`, and one `optimize` still hoists
    /// an invariant out of the single-trip body into the real loop's
    /// preheader.
    #[test]
    fn inlined_single_trip_loop_records_no_loop_info() {
        let src = "function s = f(a, b, n)\ns = 0;\nfor i = 1:n\ns = s + g(a, b, i);\nend\n\
                   function r = g(a, b, i)\nt = a * b;\nr = t;\nif i > 2\nreturn;\nend\nr = r + i;\n";
        let file = majic_ast::parse_source(src).unwrap();
        let known: HashSet<String> = file.functions.iter().map(|f| f.name.clone()).collect();
        let registry: HashMap<String, Function> = file
            .functions
            .iter()
            .map(|f| (f.name.clone(), f.clone()))
            .collect();
        let mut next = file.node_count;
        let inlined = inline_function(
            &file.functions[0],
            &registry,
            InlineOptions::default(),
            &mut next,
        );
        assert!(format!("{inlined}").contains("for __inl"), "{inlined}");
        let d = disambiguate(&inlined, &known);
        let real = Type::scalar(Intrinsic::Real);
        let ann = infer_jit(
            &d,
            &Signature::new(vec![real; 3]),
            InferOptions::default(),
            &NoOracle,
        );
        let mut func = compile(&d, &ann, &CodegenOptions::optimizing()).unwrap();
        let [real_loop] = &func.loops[..] else {
            panic!("expected the real loop alone, got {:?}", func.loops);
        };
        let preheader = real_loop.preheader.index();
        passes::optimize(&mut func, CodegenOptions::optimizing().passes);
        let homes: Vec<usize> = (0..func.blocks.len())
            .filter(|&b| {
                func.blocks[b].insts.iter().any(|i| {
                    matches!(
                        i,
                        Inst::FBin {
                            op: FBinOp::Mul,
                            ..
                        }
                    )
                })
            })
            .collect();
        assert_eq!(homes, [preheader]);
    }
}
