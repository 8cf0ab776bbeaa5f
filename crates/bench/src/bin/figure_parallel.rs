//! Data-parallel kernel throughput: per-op speedup of the size-gated
//! parallel kernels over the sequential loops, with bitwise-identical
//! outputs as a hard precondition.
//!
//! Each elementwise op (`add`, `sub`, `.*`, `./`, `.^`, unary `-`, `<`,
//! `|`) runs over a large (≥ 1M-element at scale 1) matrix, and the
//! blocked product `*` over a square matrix, once with the kernel pool
//! off and once with `--threads` participating threads. Every parallel
//! output is digested bit-for-bit against the sequential one before any
//! timing is reported — the determinism invariant of `majic_runtime::par`
//! is asserted, not assumed.
//!
//! The ≥ `--target` (default 2.0) median elementwise speedup is only
//! asserted when the host actually has `--threads` hardware threads;
//! on smaller machines the figure still runs, checks determinism, and
//! reports the (meaningless) timings with a note.
//!
//! ```text
//! cargo run --release -p majic-bench --bin figure_parallel -- \
//!     [--scale X] [--runs N] [--threads N] [--target X]
//! ```

use majic_bench::{digest, harness};
use majic_runtime::ops::{self, Cmp};
use majic_runtime::{par, Lcg, Matrix, Value};
use std::time::{Duration, Instant};

/// A positive pseudorandom matrix (positive keeps `.^` on the real
/// path) with a deterministic seed.
fn random_matrix(rows: usize, cols: usize, seed: u64) -> Value {
    let mut lcg = Lcg::seeded(seed);
    let data: Vec<f64> = (0..rows * cols).map(|_| 0.5 + lcg.next_f64()).collect();
    Value::Real(Matrix::from_vec(rows, cols, data))
}

/// Best-of-`runs` wall time of `f`.
fn measure(runs: usize, f: &dyn Fn() -> Value) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..runs {
        let t0 = Instant::now();
        let out = f();
        let took = t0.elapsed();
        assert!(out.numel() > 0, "kernel produced an empty result");
        if took < best {
            best = took;
        }
    }
    best
}

fn arg_after(argv: &[String], flag: &str) -> Option<String> {
    argv.iter()
        .position(|a| a == flag)
        .and_then(|i| argv.get(i + 1))
        .cloned()
}

fn main() {
    let _trace = harness::trace_from_env();
    let cfg = harness::config_from_args();
    let argv: Vec<String> = std::env::args().collect();
    let threads: usize = arg_after(&argv, "--threads")
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let target: f64 = arg_after(&argv, "--target")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.0);
    let best_of = cfg.runs.max(1);

    // ~1M elements at scale 1 for the elementwise ops; the product uses
    // a smaller square so its cubic flop count stays comparable.
    let rows = 1024;
    let cols = ((1024.0 * cfg.scale) as usize).max(64);
    let mdim = ((320.0 * cfg.scale.sqrt()) as usize).max(48);

    let a = random_matrix(rows, cols, 1);
    let b = random_matrix(rows, cols, 2);
    let ma = random_matrix(mdim, mdim, 3);
    let mb = random_matrix(mdim, mdim, 4);

    type Op = (&'static str, bool, Box<dyn Fn() -> Value>);
    let ops: Vec<Op> = {
        let (a1, b1) = (a.clone(), b.clone());
        let (a2, b2) = (a.clone(), b.clone());
        let (a3, b3) = (a.clone(), b.clone());
        let (a4, b4) = (a.clone(), b.clone());
        let (a5, b5) = (a.clone(), b.clone());
        let a6 = a.clone();
        let (a7, b7) = (a.clone(), b.clone());
        let (a8, b8) = (a.clone(), b.clone());
        vec![
            ("add", true, Box::new(move || ops::add(&a1, &b1).unwrap())),
            ("sub", true, Box::new(move || ops::sub(&a2, &b2).unwrap())),
            (
                "elem_mul",
                true,
                Box::new(move || ops::elem_mul(&a3, &b3).unwrap()),
            ),
            (
                "elem_div",
                true,
                Box::new(move || ops::elem_div(&a4, &b4).unwrap()),
            ),
            (
                "elem_pow",
                true,
                Box::new(move || ops::elem_pow(&a5, &b5).unwrap()),
            ),
            ("neg", true, Box::new(move || ops::neg(&a6).unwrap())),
            (
                "compare_lt",
                true,
                Box::new(move || ops::compare(Cmp::Lt, &a7, &b7).unwrap()),
            ),
            (
                "logical_or",
                true,
                Box::new(move || ops::logical(&a8, &b8, true).unwrap()),
            ),
            ("mul", false, Box::new(move || ops::mul(&ma, &mb).unwrap())),
        ]
    };

    println!(
        "Figure P: data-parallel kernels vs sequential \
         ({rows}x{cols} elementwise, {mdim}x{mdim} product, {threads} threads, best of {best_of})"
    );
    println!(
        "{:<12} {:>10} {:>10} {:>9}",
        "op", "seq (ms)", "par (ms)", "speedup"
    );

    let mut elem_speedups = Vec::new();
    for (name, elementwise, f) in &ops {
        par::set_threads(0);
        let want = digest(&f());
        let t_seq = measure(best_of, f.as_ref());

        par::set_threads(threads);
        let dispatched_before = majic_trace::counter("kernel.par.dispatch").get();
        let got = digest(&f());
        assert_eq!(
            want, got,
            "{name}: parallel output must be bitwise identical to sequential"
        );
        assert!(
            majic_trace::counter("kernel.par.dispatch").get() > dispatched_before,
            "{name}: op never took the parallel path (below the size gate?)"
        );
        let t_par = measure(best_of, f.as_ref());
        par::set_threads(0);

        let speedup = t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9);
        println!(
            "{:<12} {:>10.3} {:>10.3} {:>9.2}",
            name,
            t_seq.as_secs_f64() * 1e3,
            t_par.as_secs_f64() * 1e3,
            speedup
        );
        if *elementwise {
            elem_speedups.push(speedup);
        }
    }

    elem_speedups.sort_by(f64::total_cmp);
    let median = elem_speedups[elem_speedups.len() / 2];

    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\nmedian elementwise speedup: {median:.2} (target ≥ {target})");
    if available >= threads {
        assert!(
            median >= target,
            "median elementwise speedup {median:.2} below the ≥ {target} target at {threads} threads"
        );
    } else {
        println!(
            "note: host has {available} hardware thread(s) < {threads} requested; \
             determinism verified, speedup target not asserted"
        );
    }
}
