//! Tiered recompilation at steady state: per-call runtime once the
//! hotness profile has promoted a function to tier-1, versus a session
//! pinned to tier-0 JIT code forever.
//!
//! For every benchmark we run two arms with identical call sequences:
//!
//! * `tier-0` — promotion disabled: every call dispatches the code the
//!   first-call JIT produced.
//! * `tiered` — hotness threshold 1: the first call triggers a
//!   background recompile through the optimizing pipeline, we wait for
//!   it to publish, and subsequent calls dispatch tier-1 code.
//!
//! Both arms then make the same number of warm-up and measured calls;
//! the per-call time is the best of the measured calls (the paper's
//! §3.2 best-of-runs basis), so the numbers describe steady-state
//! throughput — compile time is off the clock in both arms (tier-0
//! compiled before the window, tier-1 in the background). Promotion must never change answers, so every call
//! is asserted bitwise-identical against the same call index in the
//! other arm (call-for-call, because some benchmarks advance the
//! session's `rand` stream between calls).
//!
//! The binary reports the median steady-state speedup on the
//! loop-heavy Scalar group (dirich, finedif, icn, mandel, crnich) — the
//! programs where the optimizing backend's preallocation and loop
//! optimizations pay off most — and over all 16. Neither median is
//! gated: the run asserts only bitwise agreement. The tier-1 gate is
//! ROADMAP item 6 (no golden program below 0.95× tier 0 on either
//! platform).
//!
//! ```text
//! cargo run --release -p majic-bench --bin figure_tiered -- \
//!     [--scale X] [--runs N] [--platform mips|sparc]
//! ```
//!
//! The default platform is MIPS: the simulated SPARC backend disables
//! loop-invariant code motion, which is part of what tier-1 buys.

use majic::{ExecMode, Platform, Session, Value};
use majic_bench::{all, digest, harness, Benchmark, Category};
use std::time::{Duration, Instant};

/// Calls that warm the dispatch path but are not measured.
const WARMUP_CALLS: usize = 3;
/// Measured calls per arm; the per-call time is the best of these
/// (§3.2's best-of-runs basis — the minimum is what the code can do,
/// everything above it is scheduler noise).
const MEASURED_CALLS: usize = 15;

/// One arm mid-measurement: a prepared session plus everything it has
/// produced so far.
struct Arm {
    m: Session,
    digests: Vec<Vec<u64>>,
    samples: Vec<Duration>,
}

impl Arm {
    /// Build a session, pay the tier-0 compile on the first call, and
    /// (for the tiered arm) wait for the background promotion to
    /// publish before the measured window opens.
    fn prepare(b: &Benchmark, cfg: &harness::MeasureConfig, args: &[Value], tiered: bool) -> Arm {
        let mut options = cfg.engine_options(ExecMode::Jit);
        options.tier.enabled = tiered;
        options.tier.threshold = 1;
        let mut m = Session::with_options(options);
        m.load_source(b.source).expect("benchmark parses");

        let mut digests = Vec::new();
        let out = m
            .call(b.entry, args, 1)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        digests.push(digest(&out[0]));
        if tiered {
            m.background().wait();
            let t1 = m.repository().stats().tier1_versions;
            assert!(t1 > 0, "{}: nothing promoted at threshold 1", b.name);
        }
        for _ in 0..WARMUP_CALLS {
            let out = m.call(b.entry, args, 1).expect("warm-up call");
            digests.push(digest(&out[0]));
        }
        Arm {
            m,
            digests,
            samples: Vec::with_capacity(MEASURED_CALLS),
        }
    }

    /// One timed call, recorded in the sample and digest sequences.
    fn sample(&mut self, b: &Benchmark, args: &[Value]) {
        let t0 = Instant::now();
        let out = self.m.call(b.entry, args, 1).expect("measured call");
        self.samples.push(t0.elapsed());
        self.digests.push(digest(&out[0]));
    }

    fn per_call(&self) -> Duration {
        self.samples
            .iter()
            .copied()
            .min()
            .expect("at least one sample")
    }
}

fn main() {
    let _trace = harness::trace_from_env();
    let mut cfg = harness::config_from_args();
    if !std::env::args().any(|a| a == "--platform") {
        cfg.platform = Platform::Mips;
    }
    // Steady state is execution-dominated; the default quarter scale
    // keeps the 16-benchmark sweep quick while each call is long enough
    // for the loops to dominate both dispatch and timer noise.
    let scale = cfg.scale;

    println!(
        "Figure T: steady-state per-call runtime, tiered vs. perpetual tier-0 \
         (scale {scale:.2}, {} platform, best of {MEASURED_CALLS})",
        match cfg.platform {
            Platform::Mips => "mips",
            Platform::Sparc => "sparc",
        }
    );
    println!(
        "{:<10} {:>9} {:>13} {:>12} {:>9}  results",
        "benchmark", "category", "tier-0 (ms)", "tiered (ms)", "speedup"
    );

    let mut speedups = Vec::new();
    for b in all() {
        let args = (b.args)(scale);
        let mut t0 = Arm::prepare(&b, &cfg, &args, false);
        let mut t1 = Arm::prepare(&b, &cfg, &args, true);
        // Interleave the two arms' measured calls so slow drift in the
        // machine (frequency scaling, cache pressure from neighbours)
        // lands on both arms evenly instead of biasing the ratio.
        for _ in 0..MEASURED_CALLS {
            t0.sample(&b, &args);
            t1.sample(&b, &args);
        }
        assert_eq!(
            t0.digests, t1.digests,
            "{}: tiered arm diverged from tier-0 (call-for-call)",
            b.name
        );
        assert!(
            t1.m.repository().stats().tier1_hits > 0,
            "{}: promoted version never dispatched",
            b.name
        );
        let (t0, t1) = (t0.per_call(), t1.per_call());
        let speedup = t0.as_secs_f64() / t1.as_secs_f64().max(1e-9);
        println!(
            "{:<10} {:>9} {:>13.3} {:>12.3} {:>9}  bitwise-identical",
            b.name,
            format!("{:?}", b.category),
            t0.as_secs_f64() * 1e3,
            t1.as_secs_f64() * 1e3,
            harness::fmt_speedup(speedup).trim(),
        );
        speedups.push((b.category, speedup));
    }

    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let scalar = median(
        speedups
            .iter()
            .filter(|(c, _)| *c == Category::Scalar)
            .map(|&(_, s)| s)
            .collect(),
    );
    let overall = median(speedups.iter().map(|&(_, s)| s).collect());
    println!(
        "\nmedian steady-state speedup, Scalar group: {scalar:.2} (reported, not gated; \
         ROADMAP item 6 holds the tier-1 gate)"
    );
    println!("median steady-state speedup, all 16:       {overall:.2}");
}
