//! Golden-output tests: every Table-1 benchmark must produce results
//! **bitwise identical** to the interpreter baseline under every
//! compiled mode (at a small problem scale), including speculative mode
//! with background workers, the Figure 7 ablations, and the optimizing
//! modes on MIPS. This is the repository's safety guarantee ("a wrong
//! guess … never affects program correctness") applied to the full
//! suite, with no floating-point tolerance to hide behind.

use majic::{EngineOptions, ExecMode, InferOptions, Platform, RegAllocMode, Session, Value};
use majic_bench::{all, digest, line_count};

const SCALE: f64 = 0.05;

/// Run one benchmark in session `m`; `spec_workers = Some(n)` uses
/// background speculation with `n` workers (drained before the call so
/// the optimized versions actually get exercised), `None` with
/// `ExecMode::Spec` uses the synchronous path.
fn run(
    mut m: Session,
    spec_workers: Option<usize>,
    b: &majic_bench::Benchmark,
    args: &[Value],
) -> Vec<u64> {
    let mode = m.options.mode;
    m.load_source(b.source)
        .unwrap_or_else(|e| panic!("{}: {e}", b.entry));
    if mode == ExecMode::Spec {
        match spec_workers {
            Some(n) => {
                m.options.tier.workers = n;
                m.speculate_background();
                m.background().wait();
            }
            None => {
                m.speculate_all();
            }
        }
    }
    let out = m
        .call(b.entry, args, 1)
        .unwrap_or_else(|e| panic!("{} [{mode:?}]: {e}", b.entry));
    digest(&out[0])
}

#[test]
fn all_benchmarks_bitwise_identical_across_modes() {
    // Deep recursion (ackermann) needs a roomy stack in debug builds.
    std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(all_benchmarks_bitwise_body)
        .expect("spawn")
        .join()
        .expect("no panics");
}

fn all_benchmarks_bitwise_body() {
    for b in all() {
        let args = (b.args)(SCALE);
        let reference = run(Session::with_mode(ExecMode::Interpret), None, &b, &args);
        for mode in [
            ExecMode::Mcc,
            ExecMode::Jit,
            ExecMode::Spec,
            ExecMode::Falcon,
        ] {
            let got = run(Session::with_mode(mode), None, &b, &args);
            assert_eq!(
                got, reference,
                "{} [{mode:?}]: output not bitwise identical to interpreter",
                b.name
            );
        }
        for (label, options) in more_configurations() {
            let got = run(Session::with_options(options), None, &b, &args);
            assert_eq!(
                got, reference,
                "{} [{label}]: output not bitwise identical to interpreter",
                b.name
            );
        }
        // Speculation off the critical path must not change a single bit
        // either — the acceptance criterion for background compilation.
        for workers in [1, 4] {
            let got = run(Session::with_mode(ExecMode::Spec), Some(workers), &b, &args);
            assert_eq!(
                got, reference,
                "{} [spec, {workers} background workers]: output not bitwise identical",
                b.name
            );
        }
    }
}

/// The JIT under each Figure 7 ablation, and the optimizing modes on
/// MIPS, whose backend adds loop-invariant code motion.
fn more_configurations() -> Vec<(&'static str, EngineOptions)> {
    let jit = || EngineOptions::builder().mode(ExecMode::Jit);
    let mips = |mode| EngineOptions::builder().mode(mode).platform(Platform::Mips);
    let no_ranges = InferOptions {
        range_propagation: false,
        ..InferOptions::default()
    };
    let no_min_shapes = InferOptions {
        min_shape_propagation: false,
        ..InferOptions::default()
    };
    vec![
        ("jit, no ranges", jit().infer(no_ranges).build()),
        ("jit, no min. shapes", jit().infer(no_min_shapes).build()),
        (
            "jit, spill everything",
            jit().regalloc(RegAllocMode::SpillEverything).build(),
        ),
        ("spec, mips", mips(ExecMode::Spec).build()),
        ("falcon, mips", mips(ExecMode::Falcon).build()),
    ]
}

#[test]
fn suite_matches_table_one_inventory() {
    let names: Vec<&str> = all().iter().map(|b| b.name).collect();
    for expected in [
        "adapt",
        "cgopt",
        "crnich",
        "dirich",
        "finedif",
        "galrkn",
        "icn",
        "mei",
        "orbec",
        "orbrk",
        "qmr",
        "sor",
        "ackermann",
        "fractal",
        "mandel",
        "fibonacci",
    ] {
        assert!(names.contains(&expected), "missing benchmark {expected}");
    }
    assert_eq!(names.len(), 16);
}

#[test]
fn line_counts_match_paper_band() {
    // Table 1 reports 10–119 lines; ours must stay in the same band
    // (10–250 per §3.1: "between 50 and 250 lines" for the suite
    // overall, with the small recursive codes at 10–15).
    for b in all() {
        let lines = line_count(&b);
        assert!(
            (5..=250).contains(&lines),
            "{}: {lines} lines out of band",
            b.name
        );
    }
}

#[test]
fn known_values_spot_checks() {
    // fibonacci(10) = 55 via every mode's default path.
    let fib = majic_bench::by_name("fibonacci").unwrap();
    for mode in [ExecMode::Interpret, ExecMode::Jit, ExecMode::Spec] {
        let mut m = Session::with_mode(mode);
        m.load_source(fib.source).unwrap();
        if mode == ExecMode::Spec {
            m.speculate_all();
        }
        let out = m.call("fibonacci", &[Value::scalar(10.0)], 1).unwrap();
        assert_eq!(out[0].to_scalar().unwrap(), 55.0);
    }
    // ackermann(2, 3) = 9.
    let ack = majic_bench::by_name("ackermann").unwrap();
    let mut m = Session::with_mode(ExecMode::Jit);
    m.load_source(ack.source).unwrap();
    let out = m
        .call("ackermann", &[Value::scalar(2.0), Value::scalar(3.0)], 1)
        .unwrap();
    assert_eq!(out[0].to_scalar().unwrap(), 9.0);
    // adapt integrates sin on [0, π] → q ≈ 2.
    let adapt = majic_bench::by_name("adapt").unwrap();
    let mut m = Session::with_mode(ExecMode::Jit);
    m.load_source(adapt.source).unwrap();
    let out = m
        .call("adapt", &[Value::scalar(4000.0), Value::scalar(1e-10)], 1)
        .unwrap();
    assert!((out[0].to_scalar().unwrap() - 2.0).abs() < 1e-6);
}
