//! Golden symbol tables: disambiguation must give every function the
//! same static symbol table (`vars` in order, and the meaning of every
//! annotated node) as the recorded baseline. It covers the 16 Table-1
//! programs and the fuzz-regression corpus files listed in
//! [`CORPUS`], each function both as written and after default inlining.
//!
//! A failure lists the rows that moved, then prints the whole computed
//! table in the format of [`EXPECTED`]. Regenerate the table only for a
//! change that is meant to change what a symbol means.

use majic_analysis::{disambiguate, inline_function, InlineOptions, SymbolTable};
use majic_ast::{parse_source, Function};
use majic_types::wire::fnv1a;
use std::collections::{HashMap, HashSet};

mod digest_table;

/// The corpus files the baseline was recorded for (later additions to
/// `tests/fuzz_regressions/` are not part of it).
const CORPUS: [&str; 17] = [
    "bool-class-preservation",
    "empty-value-range-subsumption",
    "floor-of-nan-inference",
    "inline-operand-order",
    "inline-substitute-undefined",
    "logical-minus-logical-class",
    "loop-store-vivifies",
    "matmul-maybe-scalar-shape",
    "maybe-undefined-store-orientation",
    "neg-of-logical",
    "pow-real-in-complex-register",
    "powi-huge-exponent",
    "range-nan-endpoint",
    "range-tiny-step-alloc-limit",
    "sqrt-nan-complex-commit",
    "undefined-name-error-class",
    "zero-fill-read",
];

/// `fnv1a` over `vars` in order, then `(node id, kind)` sorted by id.
fn table_digest(t: &SymbolTable) -> u64 {
    let mut bytes = Vec::new();
    for v in &t.vars {
        bytes.extend_from_slice(v.as_bytes());
        bytes.push(0);
    }
    let mut symbols: Vec<_> = t.symbols.iter().collect();
    symbols.sort_by_key(|(id, _)| **id);
    for (id, kind) in symbols {
        bytes.extend_from_slice(&id.0.to_le_bytes());
        bytes.extend_from_slice(format!("{kind:?}").as_bytes());
        bytes.push(0);
    }
    fnv1a(&bytes)
}

/// One row per function of `source`, then one per inlined function.
/// Inlining continues the file's node-id allocation function by
/// function, the way a session does after loading the file.
fn digests(label: &str, source: &str, out: &mut Vec<(String, u64)>) {
    let file = parse_source(source).unwrap_or_else(|e| panic!("{label}: {e}"));
    let known: HashSet<String> = file.functions.iter().map(|f| f.name.clone()).collect();
    let registry: HashMap<String, Function> = file
        .functions
        .iter()
        .map(|f| (f.name.clone(), f.clone()))
        .collect();
    let mut next = file.node_count;
    for f in &file.functions {
        let plain = disambiguate(f, &known);
        out.push((format!("{label}:{}", f.name), table_digest(&plain.table)));
        let inlined = inline_function(f, &registry, InlineOptions::default(), &mut next);
        let d = disambiguate(&inlined, &known);
        out.push((format!("{label}:{}+inline", f.name), table_digest(&d.table)));
    }
}

#[test]
fn symbol_tables_match_the_recorded_baseline() {
    let mut got = Vec::new();
    for b in majic_bench::all() {
        digests(&format!("golden:{}", b.name), b.source, &mut got);
    }
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fuzz_regressions");
    for name in CORPUS {
        let path = format!("{corpus}/{name}.m");
        let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        digests(&format!("corpus:{name}"), &source, &mut got);
    }
    digest_table::assert_matches("symbol tables differ", &got, EXPECTED);
}

const EXPECTED: &[(&str, u64)] = &[
    ("golden:adapt:adapt", 0xf8ae8780938e537f),
    ("golden:adapt:adapt+inline", 0xf8ae8780938e537f),
    ("golden:cgopt:cgopt", 0xc59289ff0a510c2a),
    ("golden:cgopt:cgopt+inline", 0xc59289ff0a510c2a),
    ("golden:crnich:crnich", 0xd942087cf10859bb),
    ("golden:crnich:crnich+inline", 0xd942087cf10859bb),
    ("golden:dirich:dirich", 0x72b76db267f363ef),
    ("golden:dirich:dirich+inline", 0x72b76db267f363ef),
    ("golden:finedif:finedif", 0x8de5a9bea426db9e),
    ("golden:finedif:finedif+inline", 0x8de5a9bea426db9e),
    ("golden:galrkn:galrkn", 0xbe6a080205f381ac),
    ("golden:galrkn:galrkn+inline", 0xbe6a080205f381ac),
    ("golden:icn:icn", 0xa5d54170e3378eea),
    ("golden:icn:icn+inline", 0xa5d54170e3378eea),
    ("golden:mei:mei", 0x8ab2aa838ad72789),
    ("golden:mei:mei+inline", 0x8ab2aa838ad72789),
    ("golden:orbec:orbec", 0x5e5aa7720a471b92),
    ("golden:orbec:orbec+inline", 0x5e5aa7720a471b92),
    ("golden:orbrk:orbrk", 0xfd039ee65686ea8c),
    ("golden:orbrk:orbrk+inline", 0x4f2d9a93301c7714),
    ("golden:orbrk:accel", 0x9e3bc8343b055750),
    ("golden:orbrk:accel+inline", 0x9e3bc8343b055750),
    ("golden:qmr:qmr", 0xbe9b36fe4370f9ab),
    ("golden:qmr:qmr+inline", 0xbe9b36fe4370f9ab),
    ("golden:sor:sor", 0x720abf95e21a0bdd),
    ("golden:sor:sor+inline", 0x720abf95e21a0bdd),
    ("golden:ackermann:ackermann", 0x1b2545d942202498),
    ("golden:ackermann:ackermann+inline", 0x4b498b3a09dee1e6),
    ("golden:fractal:fractal", 0x8fda9bef3b3d4e6d),
    ("golden:fractal:fractal+inline", 0x8fda9bef3b3d4e6d),
    ("golden:mandel:mandel", 0x0f552d2739d8f70d),
    ("golden:mandel:mandel+inline", 0x0f552d2739d8f70d),
    ("golden:fibonacci:fibonacci", 0x0a5591a25f205223),
    ("golden:fibonacci:fibonacci+inline", 0x0a91ec506b2e005a),
    ("corpus:bool-class-preservation:f0", 0x07769a618b359e99),
    (
        "corpus:bool-class-preservation:f0+inline",
        0x07769a618b359e99,
    ),
    (
        "corpus:empty-value-range-subsumption:f0",
        0xc1fc62d5893f3985,
    ),
    (
        "corpus:empty-value-range-subsumption:f0+inline",
        0xc1fc62d5893f3985,
    ),
    ("corpus:floor-of-nan-inference:f0", 0xb4a6804eae9b4b4b),
    (
        "corpus:floor-of-nan-inference:f0+inline",
        0xb4a6804eae9b4b4b,
    ),
    ("corpus:inline-operand-order:f0", 0xfe5ef54691c81191),
    ("corpus:inline-operand-order:f0+inline", 0x5072eefaafc51d07),
    ("corpus:inline-operand-order:f2", 0xbaf62600c5b7f578),
    ("corpus:inline-operand-order:f2+inline", 0xbaf62600c5b7f578),
    ("corpus:inline-substitute-undefined:f0", 0x7d5ff123148b332b),
    (
        "corpus:inline-substitute-undefined:f0+inline",
        0x6ab21acb0f0e5e28,
    ),
    ("corpus:inline-substitute-undefined:f1", 0xbb03cf7ce50a3e05),
    (
        "corpus:inline-substitute-undefined:f1+inline",
        0xbb03cf7ce50a3e05,
    ),
    ("corpus:logical-minus-logical-class:f0", 0x109aef6b9803b04a),
    (
        "corpus:logical-minus-logical-class:f0+inline",
        0x109aef6b9803b04a,
    ),
    ("corpus:loop-store-vivifies:f0", 0x37b07c6a03434a5b),
    ("corpus:loop-store-vivifies:f0+inline", 0x37b07c6a03434a5b),
    ("corpus:matmul-maybe-scalar-shape:f0", 0x4f3265c4b2dcf683),
    (
        "corpus:matmul-maybe-scalar-shape:f0+inline",
        0x4f3265c4b2dcf683,
    ),
    (
        "corpus:maybe-undefined-store-orientation:f0",
        0xf26e37c711ef7800,
    ),
    (
        "corpus:maybe-undefined-store-orientation:f0+inline",
        0xf26e37c711ef7800,
    ),
    ("corpus:neg-of-logical:f0", 0x3c8cc9280f1fd2a9),
    ("corpus:neg-of-logical:f0+inline", 0x3c8cc9280f1fd2a9),
    ("corpus:pow-real-in-complex-register:f0", 0x4d3f0dba1c4bd52b),
    (
        "corpus:pow-real-in-complex-register:f0+inline",
        0x4d3f0dba1c4bd52b,
    ),
    ("corpus:powi-huge-exponent:f0", 0x411abd783b43d9ab),
    ("corpus:powi-huge-exponent:f0+inline", 0x411abd783b43d9ab),
    ("corpus:range-nan-endpoint:f0", 0x7822594d57c092a8),
    ("corpus:range-nan-endpoint:f0+inline", 0x7822594d57c092a8),
    ("corpus:range-tiny-step-alloc-limit:f0", 0x003bec633f1248fa),
    (
        "corpus:range-tiny-step-alloc-limit:f0+inline",
        0x003bec633f1248fa,
    ),
    ("corpus:sqrt-nan-complex-commit:f0", 0x6b447aa34c548acc),
    (
        "corpus:sqrt-nan-complex-commit:f0+inline",
        0x6b447aa34c548acc,
    ),
    ("corpus:undefined-name-error-class:f0", 0xd693d17634049ce5),
    (
        "corpus:undefined-name-error-class:f0+inline",
        0xd693d17634049ce5,
    ),
    ("corpus:zero-fill-read:f0", 0x58f486afe1fb4530),
    ("corpus:zero-fill-read:f0+inline", 0x58f486afe1fb4530),
];
