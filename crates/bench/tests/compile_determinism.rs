//! Compiled code is a function of its input alone: compiling the same
//! program twice in one process, in every compiling mode, yields
//! identical executables. Nothing in the pipeline (in particular
//! the register allocator's tie-breaking) may depend on hash-map
//! iteration order, which `RandomState` seeds differently per map.

use majic::{ExecMode, Majic};
use majic_bench::{all, Benchmark};
use majic_vm::Executable;
use std::collections::BTreeMap;

const SCALE: f64 = 0.02;

/// An executable's whole `Debug` rendering — name, spill and slot
/// counts, bindings and every step — up to its execution counters,
/// the last field, which record how often the code ran rather than what
/// it is.
fn render(code: &Executable) -> String {
    let full = format!("{code:?}");
    let cut = full
        .rfind(", counters: ")
        .expect("Executable's Debug ends with its counters");
    full[..cut].to_owned()
}

/// Every repository version after one first call of `b`: rendered code
/// keyed by (function, signature, tier). A key holding several versions
/// keeps their renderings sorted.
fn compile(b: &Benchmark, mode: ExecMode) -> BTreeMap<(String, String, u8), Vec<String>> {
    let mut m = Majic::with_mode(mode);
    m.load_source(b.source)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    if mode == ExecMode::Spec {
        m.speculate_all();
    }
    m.call(b.entry, &(b.args)(SCALE), 1)
        .unwrap_or_else(|e| panic!("{} ({mode:?}): {e}", b.name));
    m.background().wait();
    let mut versions: BTreeMap<_, Vec<String>> = BTreeMap::new();
    for (name, _, vs) in m.repository().entries_ns() {
        for v in vs {
            versions
                .entry((name.clone(), format!("{:?}", v.signature), v.tier.level()))
                .or_default()
                .push(render(&v.code));
        }
    }
    for codes in versions.values_mut() {
        codes.sort();
    }
    versions
}

#[test]
fn every_mode_compiles_byte_identical_code_twice() {
    // Deep recursion (ackermann) needs a roomy stack in debug builds.
    std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(|| {
            for b in all() {
                for mode in [
                    ExecMode::Mcc,
                    ExecMode::Jit,
                    ExecMode::Spec,
                    ExecMode::Falcon,
                ] {
                    let first = compile(&b, mode);
                    assert!(!first.is_empty(), "{} ({mode:?}): nothing compiled", b.name);
                    let second = compile(&b, mode);
                    assert_eq!(
                        first.keys().collect::<Vec<_>>(),
                        second.keys().collect::<Vec<_>>(),
                        "{} ({mode:?}): different versions compiled",
                        b.name
                    );
                    for (key, code) in &first {
                        assert!(
                            second[key] == *code,
                            "{} ({mode:?}): {key:?} compiled to different code",
                            b.name
                        );
                    }
                }
            }
        })
        .unwrap()
        .join()
        .unwrap();
}
