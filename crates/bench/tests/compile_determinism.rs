//! Compiled code is a function of its input alone: compiling the same
//! program twice in one process, in every compiling mode, yields
//! identical executables. Nothing in the pipeline (in particular
//! the register allocator's tie-breaking) may depend on hash-map
//! iteration order, which `RandomState` seeds differently per map.
//!
//! The code is also pinned across commits: one digest per (program,
//! configuration) must match the recorded table [`EXPECTED`]. A failure
//! lists the rows that moved, then prints the whole computed table in
//! that format. Regenerate the table only for a change that is meant to
//! change generated code.

use majic::{EngineOptions, ExecMode, InferOptions, Platform, RegAllocMode, Session};
use majic_bench::{all, by_name, Benchmark};
use majic_types::wire::fnv1a;
use majic_vm::Executable;
use std::collections::BTreeMap;

mod digest_table;

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
fn compile(b: &Benchmark, options: EngineOptions) -> BTreeMap<(String, String, u8), Vec<String>> {
    let mode = options.mode;
    let mut m = Session::with_options(options);
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
                    let options = EngineOptions::builder().mode(mode).build();
                    let first = compile(&b, options);
                    assert!(!first.is_empty(), "{} ({mode:?}): nothing compiled", b.name);
                    let second = compile(&b, options);
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

/// A Jit first call of a recursive program compiles its entry function
/// three times: two exact-signature versions for the first two
/// signatures the unrolled code calls with, then the range-widened
/// version `ensure_code` builds once two exist, which admits every
/// deeper call.
#[test]
fn recursive_first_call_compiles_two_exact_versions_then_one_widened() {
    std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(|| {
            for name in ["ackermann", "fibonacci"] {
                let b = by_name(name).unwrap();
                let mut m = Session::with_mode(ExecMode::Jit);
                m.options.tier.enabled = false;
                m.load_source(b.source).unwrap();
                m.call(b.entry, &(b.args)(SCALE), 1).unwrap();
                let widened: Vec<bool> = m
                    .repository()
                    .entries_ns()
                    .into_iter()
                    .filter(|(function, _, _)| function == b.entry)
                    .flat_map(|(_, _, versions)| versions)
                    .map(|v| v.signature.params().iter().all(|t| t.range.is_top()))
                    .collect();
                assert_eq!(widened, [false, false, true], "{name}: versions compiled");
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

/// The pinned configurations: every compiling mode on both simulated
/// platforms, then the JIT under each Figure 7 ablation.
fn configurations() -> Vec<(String, EngineOptions)> {
    let mut configs = Vec::new();
    for (pname, platform) in [("sparc", Platform::Sparc), ("mips", Platform::Mips)] {
        for (mname, mode) in [
            ("mcc", ExecMode::Mcc),
            ("jit", ExecMode::Jit),
            ("spec", ExecMode::Spec),
            ("falcon", ExecMode::Falcon),
        ] {
            let options = EngineOptions::builder()
                .mode(mode)
                .platform(platform)
                .build();
            configs.push((format!("{mname}/{pname}"), options));
        }
    }
    let jit = || EngineOptions::builder().mode(ExecMode::Jit);
    let no_ranges = InferOptions {
        range_propagation: false,
        ..InferOptions::default()
    };
    let no_min_shapes = InferOptions {
        min_shape_propagation: false,
        ..InferOptions::default()
    };
    configs.push(("jit/no-ranges".to_owned(), jit().infer(no_ranges).build()));
    configs.push((
        "jit/no-min-shapes".to_owned(),
        jit().infer(no_min_shapes).build(),
    ));
    let spill = jit().regalloc(RegAllocMode::SpillEverything).build();
    configs.push(("jit/spill-everything".to_owned(), spill));
    configs
}

/// `fnv1a` over every (function, signature, tier) key and its rendered
/// versions, in key order.
fn code_digest(versions: &BTreeMap<(String, String, u8), Vec<String>>) -> u64 {
    let mut bytes = Vec::new();
    for ((name, sig, tier), codes) in versions {
        for part in [name.as_str(), sig.as_str()] {
            bytes.extend_from_slice(part.as_bytes());
            bytes.push(0);
        }
        bytes.push(*tier);
        for code in codes {
            bytes.extend_from_slice(code.as_bytes());
            bytes.push(0);
        }
    }
    fnv1a(&bytes)
}

#[test]
fn generated_code_matches_the_recorded_baseline() {
    std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(|| {
            let mut got = Vec::new();
            for b in all() {
                for (label, options) in configurations() {
                    let digest = code_digest(&compile(&b, options));
                    got.push((format!("{}:{label}", b.name), digest));
                }
            }
            digest_table::assert_matches("generated code differs", &got, EXPECTED);
        })
        .unwrap()
        .join()
        .unwrap();
}

const EXPECTED: &[(&str, u64)] = &[
    ("adapt:mcc/sparc", 0x0d8814640c4aa7c9),
    ("adapt:jit/sparc", 0x7bd1f787dfb802bd),
    ("adapt:spec/sparc", 0xe56953b76e767493),
    ("adapt:falcon/sparc", 0x71cacbbf2146f81e),
    ("adapt:mcc/mips", 0x0d8814640c4aa7c9),
    ("adapt:jit/mips", 0x7bd1f787dfb802bd),
    ("adapt:spec/mips", 0xf1c0d1dd78191039),
    ("adapt:falcon/mips", 0x0d90bc02ecb76b3a),
    ("adapt:jit/no-ranges", 0x7bd1f787dfb802bd),
    ("adapt:jit/no-min-shapes", 0x56f563f14c79eebc),
    ("adapt:jit/spill-everything", 0x5e672aeae6b6e22f),
    ("cgopt:mcc/sparc", 0xd175405e26818520),
    ("cgopt:jit/sparc", 0xf199dd2a509d3968),
    ("cgopt:spec/sparc", 0xaea6d39089206367),
    ("cgopt:falcon/sparc", 0x69757e8b7a4fc185),
    ("cgopt:mcc/mips", 0xd175405e26818520),
    ("cgopt:jit/mips", 0xf199dd2a509d3968),
    ("cgopt:spec/mips", 0x67c8bd1afce8dd5b),
    ("cgopt:falcon/mips", 0xaa19bee5a69f25b5),
    ("cgopt:jit/no-ranges", 0x646b484990203bee),
    ("cgopt:jit/no-min-shapes", 0xa4a576cdeebc1645),
    ("cgopt:jit/spill-everything", 0xdb6b2476c739609f),
    ("crnich:mcc/sparc", 0x5f4d223de5221725),
    ("crnich:jit/sparc", 0x6efb900593d308f5),
    ("crnich:spec/sparc", 0x60f435131b970354),
    ("crnich:falcon/sparc", 0x90101825a4194df6),
    ("crnich:mcc/mips", 0x5f4d223de5221725),
    ("crnich:jit/mips", 0x6efb900593d308f5),
    ("crnich:spec/mips", 0x3c01908ad0836ef1),
    ("crnich:falcon/mips", 0xec137d02edf5e5d9),
    ("crnich:jit/no-ranges", 0x048d06565f3cc121),
    ("crnich:jit/no-min-shapes", 0x0c3f6ec8319f9cb3),
    ("crnich:jit/spill-everything", 0xa22d783463a940dc),
    ("dirich:mcc/sparc", 0x1abeb908e47c89a7),
    ("dirich:jit/sparc", 0x498739334cb2ee7d),
    ("dirich:spec/sparc", 0xed7bb5c0b4a06c79),
    ("dirich:falcon/sparc", 0x0ae2308b7470b254),
    ("dirich:mcc/mips", 0x1abeb908e47c89a7),
    ("dirich:jit/mips", 0x498739334cb2ee7d),
    ("dirich:spec/mips", 0xeda588538df9c9a9),
    ("dirich:falcon/mips", 0x14b1e9b8158962e0),
    ("dirich:jit/no-ranges", 0x87597d6ad8824f97),
    ("dirich:jit/no-min-shapes", 0xd8338aefecc373a1),
    ("dirich:jit/spill-everything", 0xbad1760268ab80a5),
    ("finedif:mcc/sparc", 0xf1f3974e3c37e038),
    ("finedif:jit/sparc", 0xc1a399a77e9fd7dd),
    ("finedif:spec/sparc", 0xaa903136f945fe66),
    ("finedif:falcon/sparc", 0xda77dce4e3a078f4),
    ("finedif:mcc/mips", 0xf1f3974e3c37e038),
    ("finedif:jit/mips", 0xc1a399a77e9fd7dd),
    ("finedif:spec/mips", 0x0b7599c05532a009),
    ("finedif:falcon/mips", 0x01d21d6ae671f861),
    ("finedif:jit/no-ranges", 0x4e79bc7af4848a53),
    ("finedif:jit/no-min-shapes", 0x569eda5d5e6d2104),
    ("finedif:jit/spill-everything", 0x6db7c70e1a3fc9ad),
    ("galrkn:mcc/sparc", 0x393c1e4fbd14f11c),
    ("galrkn:jit/sparc", 0x11ec9c0f101de023),
    ("galrkn:spec/sparc", 0x517a6dd1795665b3),
    ("galrkn:falcon/sparc", 0x9e40f69616e1bae6),
    ("galrkn:mcc/mips", 0x393c1e4fbd14f11c),
    ("galrkn:jit/mips", 0x11ec9c0f101de023),
    ("galrkn:spec/mips", 0xff2ab1b4c84cfcfa),
    ("galrkn:falcon/mips", 0xfb884a8bf5652174),
    ("galrkn:jit/no-ranges", 0xd6a7598de9dbe1e9),
    ("galrkn:jit/no-min-shapes", 0x21f8c289b28460c1),
    ("galrkn:jit/spill-everything", 0x1890288753579bdf),
    ("icn:mcc/sparc", 0x12a84a25eaecedd0),
    ("icn:jit/sparc", 0x01961094109bd0f9),
    ("icn:spec/sparc", 0x6ce4797b265f09d2),
    ("icn:falcon/sparc", 0x5f06ff3bae90898c),
    ("icn:mcc/mips", 0x12a84a25eaecedd0),
    ("icn:jit/mips", 0x01961094109bd0f9),
    ("icn:spec/mips", 0x03e6d7df0ff7974e),
    ("icn:falcon/mips", 0xae1915907d23cb6c),
    ("icn:jit/no-ranges", 0x1ab82ab2efd211e8),
    ("icn:jit/no-min-shapes", 0x85af0a573430cce2),
    ("icn:jit/spill-everything", 0x006e8d219fa86865),
    ("mei:mcc/sparc", 0x416e9212a919319b),
    ("mei:jit/sparc", 0x74d89722b8e8d403),
    ("mei:spec/sparc", 0xf250612984d5bc17),
    ("mei:falcon/sparc", 0xd9d73f22da3c86f0),
    ("mei:mcc/mips", 0x416e9212a919319b),
    ("mei:jit/mips", 0x74d89722b8e8d403),
    ("mei:spec/mips", 0x0bcc985a16ae9750),
    ("mei:falcon/mips", 0x8ba1f07e7e138d75),
    ("mei:jit/no-ranges", 0xdf6e7405ca1336a1),
    ("mei:jit/no-min-shapes", 0x49845a8187b5a74b),
    ("mei:jit/spill-everything", 0x0e4d592cb91f45a6),
    ("orbec:mcc/sparc", 0xee2e3ef9c86b7841),
    ("orbec:jit/sparc", 0x088b0f1ee6d1ed76),
    ("orbec:spec/sparc", 0xca83316206811446),
    ("orbec:falcon/sparc", 0xd90893f729c20969),
    ("orbec:mcc/mips", 0xee2e3ef9c86b7841),
    ("orbec:jit/mips", 0x088b0f1ee6d1ed76),
    ("orbec:spec/mips", 0x2b62042e476798b5),
    ("orbec:falcon/mips", 0xd86f02bf7eb02cc0),
    ("orbec:jit/no-ranges", 0x1460b5aa384c83cc),
    ("orbec:jit/no-min-shapes", 0xb8b3bbf74d21053d),
    ("orbec:jit/spill-everything", 0x49d6ea206957e7fb),
    ("orbrk:mcc/sparc", 0x59354b61a88a602f),
    ("orbrk:jit/sparc", 0x87e890bd464d3792),
    ("orbrk:spec/sparc", 0x5bc2e8de9d5ba588),
    ("orbrk:falcon/sparc", 0x7d776a9e9f782ebb),
    ("orbrk:mcc/mips", 0x59354b61a88a602f),
    ("orbrk:jit/mips", 0x87e890bd464d3792),
    ("orbrk:spec/mips", 0x0486cb8acbfbcc09),
    ("orbrk:falcon/mips", 0xe97425ee421e7ce6),
    ("orbrk:jit/no-ranges", 0x94bde9f0a6f2a099),
    ("orbrk:jit/no-min-shapes", 0x304dfec35d089723),
    ("orbrk:jit/spill-everything", 0xb44e2963161ead49),
    ("qmr:mcc/sparc", 0xac0a6513b36dc261),
    ("qmr:jit/sparc", 0x911847d2f8f12fb3),
    ("qmr:spec/sparc", 0xe6939af3f16242c8),
    ("qmr:falcon/sparc", 0x09693c6ac2000ef8),
    ("qmr:mcc/mips", 0xac0a6513b36dc261),
    ("qmr:jit/mips", 0x911847d2f8f12fb3),
    ("qmr:spec/mips", 0x4eb938f16b5bcb1f),
    ("qmr:falcon/mips", 0xb9629c1540c0c3d5),
    ("qmr:jit/no-ranges", 0x8a66e937880057a1),
    ("qmr:jit/no-min-shapes", 0x1deac911367ec192),
    ("qmr:jit/spill-everything", 0xb1e860614d66915c),
    ("sor:mcc/sparc", 0x72d802980fec434b),
    ("sor:jit/sparc", 0x453e491b03beb48d),
    ("sor:spec/sparc", 0x5cf081d4a8f17bde),
    ("sor:falcon/sparc", 0x8f06c8ce6e71a358),
    ("sor:mcc/mips", 0x72d802980fec434b),
    ("sor:jit/mips", 0x453e491b03beb48d),
    ("sor:spec/mips", 0x7ac819df28d96792),
    ("sor:falcon/mips", 0x974158326a638b42),
    ("sor:jit/no-ranges", 0xfe5bb5ee428c7139),
    ("sor:jit/no-min-shapes", 0x952802b7652032ad),
    ("sor:jit/spill-everything", 0x8c6c7dc396f1aceb),
    ("ackermann:mcc/sparc", 0x320df9545cc1f7bc),
    ("ackermann:jit/sparc", 0xc3d400f67351e4ef),
    ("ackermann:spec/sparc", 0xa3e6a943ca873eec),
    ("ackermann:falcon/sparc", 0xd92fd219878cc65a),
    ("ackermann:mcc/mips", 0x320df9545cc1f7bc),
    ("ackermann:jit/mips", 0xc3d400f67351e4ef),
    ("ackermann:spec/mips", 0xa3e6a943ca873eec),
    ("ackermann:falcon/mips", 0xd92fd219878cc65a),
    ("ackermann:jit/no-ranges", 0xc3d400f67351e4ef),
    ("ackermann:jit/no-min-shapes", 0xcde2d5732ec12c13),
    ("ackermann:jit/spill-everything", 0xbd8093b45833f5c6),
    ("fractal:mcc/sparc", 0x9af8c894ab3e28c1),
    ("fractal:jit/sparc", 0x87097e99a3395ddb),
    ("fractal:spec/sparc", 0x6da4b8748384817b),
    ("fractal:falcon/sparc", 0x7d4b2b5712d0467a),
    ("fractal:mcc/mips", 0x9af8c894ab3e28c1),
    ("fractal:jit/mips", 0x87097e99a3395ddb),
    ("fractal:spec/mips", 0xd9b7535fddf50aac),
    ("fractal:falcon/mips", 0x4b4d0c4bcd52640f),
    ("fractal:jit/no-ranges", 0x87097e99a3395ddb),
    ("fractal:jit/no-min-shapes", 0xd1b6210cdd5bee74),
    ("fractal:jit/spill-everything", 0x41733982ddfd6ae9),
    ("mandel:mcc/sparc", 0x38f3a1cbb434bcef),
    ("mandel:jit/sparc", 0x4139c1205aea551a),
    ("mandel:spec/sparc", 0x9bf081b8e3eb33b3),
    ("mandel:falcon/sparc", 0x94db151ceee9df8b),
    ("mandel:mcc/mips", 0x38f3a1cbb434bcef),
    ("mandel:jit/mips", 0x4139c1205aea551a),
    ("mandel:spec/mips", 0x9cd8f6cf9c3d1cba),
    ("mandel:falcon/mips", 0x1c96848f509d3d48),
    ("mandel:jit/no-ranges", 0x565b835a0a287eab),
    ("mandel:jit/no-min-shapes", 0xb753a01c17fa0d65),
    ("mandel:jit/spill-everything", 0x090364df98dfe0d5),
    ("fibonacci:mcc/sparc", 0x1d404fe82a1ebf8b),
    ("fibonacci:jit/sparc", 0xd314f894bd037299),
    ("fibonacci:spec/sparc", 0xa4e91b36b8bf7eec),
    ("fibonacci:falcon/sparc", 0x64b6b4a75c5ce70d),
    ("fibonacci:mcc/mips", 0x1d404fe82a1ebf8b),
    ("fibonacci:jit/mips", 0xd314f894bd037299),
    ("fibonacci:spec/mips", 0xa4e91b36b8bf7eec),
    ("fibonacci:falcon/mips", 0x64b6b4a75c5ce70d),
    ("fibonacci:jit/no-ranges", 0xd314f894bd037299),
    ("fibonacci:jit/no-min-shapes", 0x54fe0797b71fbaff),
    ("fibonacci:jit/spill-everything", 0xef9095991f739d2f),
];
