//! Compiled code is a function of its input alone: compiling the same
//! program twice in one process, in every compiling mode, yields
//! identical executables. Nothing in the pipeline (in particular
//! the register allocator's tie-breaking) may depend on hash-map
//! iteration order, which `RandomState` seeds differently per map.
//!
//! The code is also pinned across commits: one digest per (program,
//! configuration) must match the recorded table [`EXPECTED`]. A failure
//! prints the whole computed table in that format. Regenerate the table
//! only for a change that is meant to change generated code.

use majic::{EngineOptions, ExecMode, InferOptions, Majic, Platform, RegAllocMode};
use majic_bench::{all, Benchmark};
use majic_types::wire::fnv1a;
use majic_vm::Executable;
use std::collections::BTreeMap;
use std::fmt::Write as _;

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
    let mut m = Majic::with_options(options);
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
            let expected: Vec<(String, u64)> = EXPECTED
                .iter()
                .map(|&(label, digest)| (label.to_owned(), digest))
                .collect();
            if got != expected {
                let mut table = String::new();
                for (label, digest) in &got {
                    writeln!(table, "    (\"{label}\", 0x{digest:016x}),").unwrap();
                }
                panic!("generated code differs from the baseline; computed table:\n{table}");
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

const EXPECTED: &[(&str, u64)] = &[
    ("adapt:mcc/sparc", 0x0d8814640c4aa7c9),
    ("adapt:jit/sparc", 0x7bd1f787dfb802bd),
    ("adapt:spec/sparc", 0x76ccff0c27be038e),
    ("adapt:falcon/sparc", 0x3f27161239f7a3a9),
    ("adapt:mcc/mips", 0x0d8814640c4aa7c9),
    ("adapt:jit/mips", 0x7bd1f787dfb802bd),
    ("adapt:spec/mips", 0xce54e71621dc4c04),
    ("adapt:falcon/mips", 0xff43f19cb7450331),
    ("adapt:jit/no-ranges", 0x7bd1f787dfb802bd),
    ("adapt:jit/no-min-shapes", 0x56f563f14c79eebc),
    ("adapt:jit/spill-everything", 0x5e672aeae6b6e22f),
    ("cgopt:mcc/sparc", 0xa93f02b001b7875a),
    ("cgopt:jit/sparc", 0xf199dd2a509d3968),
    ("cgopt:spec/sparc", 0xe809e559f5452495),
    ("cgopt:falcon/sparc", 0x8b23ba7a6234b945),
    ("cgopt:mcc/mips", 0xa93f02b001b7875a),
    ("cgopt:jit/mips", 0xf199dd2a509d3968),
    ("cgopt:spec/mips", 0x7975626a3cc14ff4),
    ("cgopt:falcon/mips", 0x1543f8bba17be5f3),
    ("cgopt:jit/no-ranges", 0x646b484990203bee),
    ("cgopt:jit/no-min-shapes", 0x1f5068a6d154e9ec),
    ("cgopt:jit/spill-everything", 0xdb6b2476c739609f),
    ("crnich:mcc/sparc", 0xb18bcb83fdc9381f),
    ("crnich:jit/sparc", 0x6efb900593d308f5),
    ("crnich:spec/sparc", 0xc53afd83cb01e185),
    ("crnich:falcon/sparc", 0x3e989fc6dac772f5),
    ("crnich:mcc/mips", 0xb18bcb83fdc9381f),
    ("crnich:jit/mips", 0x6efb900593d308f5),
    ("crnich:spec/mips", 0x477cc02a4920f47a),
    ("crnich:falcon/mips", 0xc7bdd967679dd427),
    ("crnich:jit/no-ranges", 0x048d06565f3cc121),
    ("crnich:jit/no-min-shapes", 0x96c1a78e76a6392d),
    ("crnich:jit/spill-everything", 0xa22d783463a940dc),
    ("dirich:mcc/sparc", 0xe59f4a912689f091),
    ("dirich:jit/sparc", 0x498739334cb2ee7d),
    ("dirich:spec/sparc", 0x5d6a4b1e344e048e),
    ("dirich:falcon/sparc", 0x495dd3bab447ebdb),
    ("dirich:mcc/mips", 0xe59f4a912689f091),
    ("dirich:jit/mips", 0x498739334cb2ee7d),
    ("dirich:spec/mips", 0xf2b536aa4c7cd545),
    ("dirich:falcon/mips", 0x86916b6aa824a47a),
    ("dirich:jit/no-ranges", 0x87597d6ad8824f97),
    ("dirich:jit/no-min-shapes", 0xbf45073ee53278ca),
    ("dirich:jit/spill-everything", 0xbad1760268ab80a5),
    ("finedif:mcc/sparc", 0x88d0b4145c990df9),
    ("finedif:jit/sparc", 0xc1a399a77e9fd7dd),
    ("finedif:spec/sparc", 0xf07b0ecb34fd1649),
    ("finedif:falcon/sparc", 0x86a194e6ec2f331d),
    ("finedif:mcc/mips", 0x88d0b4145c990df9),
    ("finedif:jit/mips", 0xc1a399a77e9fd7dd),
    ("finedif:spec/mips", 0xd5ce2d1f863f4adc),
    ("finedif:falcon/mips", 0xa43618155c82649e),
    ("finedif:jit/no-ranges", 0x4e79bc7af4848a53),
    ("finedif:jit/no-min-shapes", 0x14c39bfe80672f61),
    ("finedif:jit/spill-everything", 0x6db7c70e1a3fc9ad),
    ("galrkn:mcc/sparc", 0xb2893eebbdcc1c22),
    ("galrkn:jit/sparc", 0x11ec9c0f101de023),
    ("galrkn:spec/sparc", 0x29ddd939f0cf84bb),
    ("galrkn:falcon/sparc", 0x2b843c14ce4bb83c),
    ("galrkn:mcc/mips", 0xb2893eebbdcc1c22),
    ("galrkn:jit/mips", 0x11ec9c0f101de023),
    ("galrkn:spec/mips", 0x4a50565116bb22a5),
    ("galrkn:falcon/mips", 0x526ab5a59efdf748),
    ("galrkn:jit/no-ranges", 0xd6a7598de9dbe1e9),
    ("galrkn:jit/no-min-shapes", 0x4fc6b29824d3e560),
    ("galrkn:jit/spill-everything", 0x1890288753579bdf),
    ("icn:mcc/sparc", 0x4e9eb05d168a8cdc),
    ("icn:jit/sparc", 0xf403c4b365990a9a),
    ("icn:spec/sparc", 0x7f3970d04d0fadfd),
    ("icn:falcon/sparc", 0xb03556dd31d249c2),
    ("icn:mcc/mips", 0x4e9eb05d168a8cdc),
    ("icn:jit/mips", 0xf403c4b365990a9a),
    ("icn:spec/mips", 0x036edf0503809015),
    ("icn:falcon/mips", 0x40252fd2c40a3550),
    ("icn:jit/no-ranges", 0x1ab82ab2efd211e8),
    ("icn:jit/no-min-shapes", 0x642803bbaaf20d32),
    ("icn:jit/spill-everything", 0x68e90a22573f1024),
    ("mei:mcc/sparc", 0x0f9dd6a54660e70c),
    ("mei:jit/sparc", 0x74d89722b8e8d403),
    ("mei:spec/sparc", 0x945f4b4ae892f04d),
    ("mei:falcon/sparc", 0x566fb3e046db5d5c),
    ("mei:mcc/mips", 0x0f9dd6a54660e70c),
    ("mei:jit/mips", 0x74d89722b8e8d403),
    ("mei:spec/mips", 0x36f54bfc7d4d05e7),
    ("mei:falcon/mips", 0x6fdb1bce5de220f0),
    ("mei:jit/no-ranges", 0xdf6e7405ca1336a1),
    ("mei:jit/no-min-shapes", 0xbdfdeae8de726c19),
    ("mei:jit/spill-everything", 0x0e4d592cb91f45a6),
    ("orbec:mcc/sparc", 0xe05400d3008c72d6),
    ("orbec:jit/sparc", 0x088b0f1ee6d1ed76),
    ("orbec:spec/sparc", 0x41ea80da3cd7856b),
    ("orbec:falcon/sparc", 0x7b5e34bf05fe89a8),
    ("orbec:mcc/mips", 0xe05400d3008c72d6),
    ("orbec:jit/mips", 0x088b0f1ee6d1ed76),
    ("orbec:spec/mips", 0x5854dd4cc5d7edfe),
    ("orbec:falcon/mips", 0xd0f5e50f9f3ef1ad),
    ("orbec:jit/no-ranges", 0x1460b5aa384c83cc),
    ("orbec:jit/no-min-shapes", 0x887713645220a713),
    ("orbec:jit/spill-everything", 0x49d6ea206957e7fb),
    ("orbrk:mcc/sparc", 0xe90c36f1f0824769),
    ("orbrk:jit/sparc", 0x87e890bd464d3792),
    ("orbrk:spec/sparc", 0xe2266969b6a7f2ae),
    ("orbrk:falcon/sparc", 0xe394d6df70378432),
    ("orbrk:mcc/mips", 0xe90c36f1f0824769),
    ("orbrk:jit/mips", 0x87e890bd464d3792),
    ("orbrk:spec/mips", 0x4e7b75d2e228dd32),
    ("orbrk:falcon/mips", 0x785746de534da816),
    ("orbrk:jit/no-ranges", 0x94bde9f0a6f2a099),
    ("orbrk:jit/no-min-shapes", 0x7e7f77486cd6613a),
    ("orbrk:jit/spill-everything", 0xb44e2963161ead49),
    ("qmr:mcc/sparc", 0xfaf4f36a96186e1a),
    ("qmr:jit/sparc", 0x911847d2f8f12fb3),
    ("qmr:spec/sparc", 0xf448f5d2f12911f4),
    ("qmr:falcon/sparc", 0xc695c0393ddb67a4),
    ("qmr:mcc/mips", 0xfaf4f36a96186e1a),
    ("qmr:jit/mips", 0x911847d2f8f12fb3),
    ("qmr:spec/mips", 0x63aa26f7fe3cb8cf),
    ("qmr:falcon/mips", 0xaebe8160bcf06f24),
    ("qmr:jit/no-ranges", 0x8a66e937880057a1),
    ("qmr:jit/no-min-shapes", 0x7a391d80ba8e1300),
    ("qmr:jit/spill-everything", 0xb1e860614d66915c),
    ("sor:mcc/sparc", 0x989a41902c8bb9c2),
    ("sor:jit/sparc", 0x453e491b03beb48d),
    ("sor:spec/sparc", 0x9f91d9f4e013bea2),
    ("sor:falcon/sparc", 0xedb777e98e89ff23),
    ("sor:mcc/mips", 0x989a41902c8bb9c2),
    ("sor:jit/mips", 0x453e491b03beb48d),
    ("sor:spec/mips", 0x3a9886909e520e17),
    ("sor:falcon/mips", 0x9e437cad8dcbe7ff),
    ("sor:jit/no-ranges", 0xfe5bb5ee428c7139),
    ("sor:jit/no-min-shapes", 0xfb79375249dbd168),
    ("sor:jit/spill-everything", 0x8c6c7dc396f1aceb),
    ("ackermann:mcc/sparc", 0x320df9545cc1f7bc),
    ("ackermann:jit/sparc", 0x63460d4c3514c3ab),
    ("ackermann:spec/sparc", 0x54be6739ba1043f4),
    ("ackermann:falcon/sparc", 0xe8e5555332c026ac),
    ("ackermann:mcc/mips", 0x320df9545cc1f7bc),
    ("ackermann:jit/mips", 0x002347b3c974a03a),
    ("ackermann:spec/mips", 0x3fc7da77d97e2a13),
    ("ackermann:falcon/mips", 0x7ebaa465d1b953db),
    ("ackermann:jit/no-ranges", 0x63460d4c3514c3ab),
    ("ackermann:jit/no-min-shapes", 0x801ae7558107d40a),
    ("ackermann:jit/spill-everything", 0x40277cfade871648),
    ("fractal:mcc/sparc", 0x10b1e06edbf15f53),
    ("fractal:jit/sparc", 0x87097e99a3395ddb),
    ("fractal:spec/sparc", 0xb083245b80676d48),
    ("fractal:falcon/sparc", 0x1625701986541a39),
    ("fractal:mcc/mips", 0x10b1e06edbf15f53),
    ("fractal:jit/mips", 0x87097e99a3395ddb),
    ("fractal:spec/mips", 0x47eaf847e97d477c),
    ("fractal:falcon/mips", 0x8a1d5fe46ba7ed25),
    ("fractal:jit/no-ranges", 0x87097e99a3395ddb),
    ("fractal:jit/no-min-shapes", 0x6387549dfe532102),
    ("fractal:jit/spill-everything", 0x41733982ddfd6ae9),
    ("mandel:mcc/sparc", 0x49ff7ecec1e8838a),
    ("mandel:jit/sparc", 0x4139c1205aea551a),
    ("mandel:spec/sparc", 0x57e279c25ce308eb),
    ("mandel:falcon/sparc", 0x2866e66a8f7216fd),
    ("mandel:mcc/mips", 0x49ff7ecec1e8838a),
    ("mandel:jit/mips", 0x4139c1205aea551a),
    ("mandel:spec/mips", 0x1f7ba4d39bf728e6),
    ("mandel:falcon/mips", 0x7d6abebe1985a080),
    ("mandel:jit/no-ranges", 0x565b835a0a287eab),
    ("mandel:jit/no-min-shapes", 0x45e4c7e4b1f64ed7),
    ("mandel:jit/spill-everything", 0x090364df98dfe0d5),
    ("fibonacci:mcc/sparc", 0x1d404fe82a1ebf8b),
    ("fibonacci:jit/sparc", 0x95de2be0ebcd0a4c),
    ("fibonacci:spec/sparc", 0x815ba40f41148f73),
    ("fibonacci:falcon/sparc", 0x0f62986babc448ec),
    ("fibonacci:mcc/mips", 0x1d404fe82a1ebf8b),
    ("fibonacci:jit/mips", 0x95de2be0ebcd0a4c),
    ("fibonacci:spec/mips", 0x5866622156bae366),
    ("fibonacci:falcon/mips", 0xa80639a7aaa4baa1),
    ("fibonacci:jit/no-ranges", 0x95de2be0ebcd0a4c),
    ("fibonacci:jit/no-min-shapes", 0xbb19f070f6fce1d3),
    ("fibonacci:jit/spill-everything", 0xe2259bcf1ecc38ff),
];
