//! Copy elision under copy-on-write values: uniqueness-driven in-place
//! updates vs. the pre-CoW "every store copies" discipline.
//!
//! Two runtime-level kernels contrast the CoW fast path against a
//! baseline that forces the physical copy the old representation would
//! have taken:
//!
//! * `update` — fill an n-element row vector one element at a time. The
//!   CoW loop owns its buffer uniquely, so every store is in place
//!   (O(n) total). The baseline deep-copies the buffer before each
//!   store — what a value-semantics engine does when the stored value
//!   is still shared with the environment (O(n²) total).
//! * `growth` — append one element at a time through `grow`. The CoW
//!   loop oversizes (paper §2.6.1), so appends almost always stay
//!   within the allocation; the baseline re-layouts to the exact new
//!   size on every append.
//!
//! A third, engine-level section runs a compiled element-update loop
//! end to end and asserts — via the `runtime.matrix.deep_copy` trace
//! counter — that the uniquely-owned update loop records **zero** deep
//! copies. The acceptance targets are `update` ≥ 2× over baseline and
//! a zero counter delta in both the kernel and the compiled loop.
//!
//! ```text
//! cargo run --release -p majic-bench --bin figure_copyelision -- \
//!     [--scale X] [--runs N]
//! ```

use majic::{ExecMode, Session, Value};
use majic_bench::harness;
use majic_runtime::Matrix;
use std::time::{Duration, Instant};

fn deep_copies() -> u64 {
    majic_trace::counter("runtime.matrix.deep_copy").get()
}

/// Fill via uniquely-owned in-place stores. Returns a checksum so the
/// work cannot be optimized away.
fn update_cow(n: usize) -> f64 {
    let mut m: Matrix<f64> = Matrix::zeros(1, n);
    for k in 0..n {
        m.set_linear(k, k as f64);
    }
    m.get_linear(n - 1)
}

/// Pre-CoW discipline: the stored value is still shared, so every store
/// pays a full snapshot first.
fn update_baseline(n: usize) -> f64 {
    let mut m: Matrix<f64> = Matrix::zeros(1, n);
    for k in 0..n {
        m = m.deep_clone();
        m.set_linear(k, k as f64);
    }
    m.get_linear(n - 1)
}

/// Append-one-at-a-time with oversizing: amortized O(1) per append.
fn growth_cow(n: usize) -> f64 {
    let mut m: Matrix<f64> = Matrix::zeros(1, 1);
    for k in 1..n {
        m.grow(1, k + 1, true);
        m.set_linear(k, k as f64);
    }
    m.get_linear(n - 1)
}

/// Exact re-layout on every append.
fn growth_baseline(n: usize) -> f64 {
    let mut m: Matrix<f64> = Matrix::zeros(1, 1);
    for k in 1..n {
        m.grow(1, k + 1, false);
        m.set_linear(k, k as f64);
    }
    m.get_linear(n - 1)
}

/// Best-of-`runs` wall time of `f`, with the deep-copy counter delta of
/// the best run.
fn measure(runs: usize, f: impl Fn() -> f64) -> (Duration, u64, f64) {
    let mut best = Duration::MAX;
    let mut copies = u64::MAX;
    let mut result = f64::NAN;
    for _ in 0..runs {
        let c0 = deep_copies();
        let t0 = Instant::now();
        let r = f();
        let took = t0.elapsed();
        if took < best {
            best = took;
            copies = deep_copies() - c0;
            result = r;
        }
    }
    (best, copies, result)
}

type Kernel = fn(usize) -> f64;

fn main() {
    let _trace = harness::trace_from_env();
    let cfg = harness::config_from_args();
    let n = ((4096.0 * cfg.scale) as usize).max(256);
    let best_of = cfg.runs.max(1);

    println!("Figure C: copy elision under copy-on-write values (n = {n}, best of {best_of})");
    println!(
        "{:<8} {:>12} {:>14} {:>9} {:>12}",
        "kernel", "cow (ms)", "baseline (ms)", "speedup", "cow copies"
    );

    let kernels: [(&'static str, Kernel, Kernel); 2] = [
        ("update", update_cow, update_baseline),
        ("growth", growth_cow, growth_baseline),
    ];
    let mut speedups = Vec::new();
    for (name, cow, baseline) in kernels {
        let (t_cow, copies, r_cow) = measure(best_of, || cow(n));
        let (t_base, _, r_base) = measure(best_of, || baseline(n));
        assert_eq!(
            r_cow.to_bits(),
            r_base.to_bits(),
            "{name}: cow and baseline must compute the same value"
        );
        assert_eq!(
            copies, 0,
            "{name}: the uniquely-owned kernel must record zero deep copies"
        );
        let speedup = t_base.as_secs_f64() / t_cow.as_secs_f64().max(1e-9);
        println!(
            "{:<8} {:>12.3} {:>14.3} {:>9.1} {:>12}",
            name,
            t_cow.as_secs_f64() * 1e3,
            t_base.as_secs_f64() * 1e3,
            speedup,
            copies
        );
        speedups.push(speedup);
    }

    // Engine-level: the same update loop, compiled and run end to end,
    // must not deep-copy either (the VM takes the array out of its slot
    // to store, and dead temporaries are moved, not cloned).
    let source = "function r = f(n)\na = zeros(1, n);\nfor k = 1:n\na(k) = k;\nend\nr = sum(a);\n";
    let mut session = Session::with_options(cfg.engine_options(ExecMode::Jit));
    session.load_source(source).expect("parses");
    session
        .call("f", &[Value::scalar(8.0)], 1)
        .expect("warm-up call");
    let mut jit_time = Duration::MAX;
    let mut jit_copies = u64::MAX;
    for _ in 0..best_of {
        let c0 = deep_copies();
        let t0 = Instant::now();
        let out = session
            .call("f", &[Value::scalar(n as f64)], 1)
            .expect("compiled update loop");
        let took = t0.elapsed();
        let expect = (n * (n + 1)) as f64 / 2.0;
        assert_eq!(out[0], Value::scalar(expect), "compiled loop result");
        if took < jit_time {
            jit_time = took;
            jit_copies = deep_copies() - c0;
        }
    }
    assert_eq!(
        jit_copies, 0,
        "the compiled update loop must record zero deep copies"
    );
    println!(
        "\ncompiled update loop (jit): {:.3} ms, {} deep copies",
        jit_time.as_secs_f64() * 1e3,
        jit_copies
    );

    let update = speedups[0];
    println!("update kernel speedup: {update:.1} (target ≥ 2.0)");
    assert!(
        update >= 2.0,
        "update kernel must be at least 2x faster than the pre-CoW baseline"
    );
}
