//! Responsiveness of speculative compilation: first-call latency with
//! background spec workers on vs. off.
//!
//! The paper's motivation for speculation is *responsiveness* — the
//! optimizing compiler runs off the user's critical path. This figure
//! quantifies it. For every benchmark we measure the latency from
//! "sources loaded" to "first call answered" under three regimes:
//!
//! * `jit` — no speculation at all: the fast JIT compiles on the first
//!   miss (the responsiveness baseline).
//! * `spec-sync` — the seed behaviour: [`majic::Session::speculate_all`] blocks
//!   the session until every optimized version is built, *then* the
//!   call runs.
//! * `spec-async` — background workers ([`majic::Session::speculate_background`])
//!   compile while the session answers immediately via the JIT; the
//!   first call must not wait for them.
//!
//! The acceptance target: `spec-async` first-call latency within 10% of
//! pure JIT (plus measurement noise), while `spec-sync` pays the whole
//! optimizing-backend latency up front. Results are checked bitwise
//! against the synchronous path.
//!
//! ```text
//! cargo run --release -p majic-bench --bin figure_responsiveness -- --workers 4
//! ```

use majic::{EngineOptions, ExecMode, Session, Value};
use majic_bench::{all, harness, Benchmark};
use std::time::{Duration, Instant};

/// `--workers N` from `argv`: the background pool size of the
/// spec-async arm. A missing or unparsable value falls back to 2.
fn workers_from(argv: &[String]) -> usize {
    argv.iter()
        .position(|a| a == "--workers")
        .and_then(|i| argv.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// The spec-async arm's options: the measured Spec-mode options, with
/// `workers` as [`majic::TierOptions::workers`], which sizes the pool
/// [`Session::speculate_background`] starts.
fn async_options(cfg: &harness::MeasureConfig, workers: usize) -> EngineOptions {
    let mut options = cfg.engine_options(ExecMode::Spec);
    options.tier.workers = workers;
    options
}

/// First-call latency and result under one regime. `best_of` fresh
/// sessions; the best latency is reported (paper §3.2 methodology).
///
/// `setup` runs *outside* the timed window (one-time session setup,
/// e.g. spawning the worker pool — its background jobs still race the
/// timed call); `blocking_prepare` runs *inside* it (work that holds up
/// the session, e.g. synchronous speculation).
fn first_call(
    b: &Benchmark,
    options: EngineOptions,
    best_of: usize,
    args: &[Value],
    setup: impl Fn(&mut Session),
    blocking_prepare: impl Fn(&mut Session),
) -> (Duration, f64) {
    let mut best = Duration::MAX;
    let mut result = f64::NAN;
    for _ in 0..best_of {
        let mut m = Session::with_options(options);
        m.load_source(b.source).expect("benchmark parses");
        setup(&mut m);
        let t0 = Instant::now();
        blocking_prepare(&mut m);
        let out = m
            .call(b.entry, args, 1)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let took = t0.elapsed();
        if took < best {
            best = took;
            result = out
                .first()
                .and_then(|v| v.to_scalar().ok())
                .unwrap_or(f64::NAN);
        }
    }
    (best, result)
}

fn main() {
    let _trace = harness::trace_from_env();
    let cfg = harness::config_from_args();
    let workers = workers_from(&std::env::args().collect::<Vec<_>>());
    let (spec, spec_async) = (
        cfg.engine_options(ExecMode::Spec),
        async_options(&cfg, workers),
    );
    // First-call latency is compile-dominated, so a small problem size
    // makes the responsiveness gap starkest; override with --scale.
    let scale = cfg.scale.min(0.05);
    const BEST_OF: usize = 3;

    println!("Figure R: first-call latency, speculation on vs. off ({workers} workers, scale {scale:.2})");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>10}  results",
        "benchmark", "jit (ms)", "spec-sync", "spec-async", "async/jit"
    );

    let mut ratios = Vec::new();
    for b in all() {
        let args = (b.args)(scale);

        let (t_jit, r_jit) = first_call(&b, spec, BEST_OF, &args, |_| {}, |_| {});
        let (t_sync, r_sync) = first_call(
            &b,
            spec,
            BEST_OF,
            &args,
            |_| {},
            |m| {
                m.speculate_all();
            },
        );
        let (t_async, r_async) = first_call(
            &b,
            spec_async,
            BEST_OF,
            &args,
            Session::speculate_background,
            |_| {},
        );

        // The repository safety check guarantees every regime computes
        // the same function: results must match bitwise.
        let identical =
            (r_jit.to_bits() == r_sync.to_bits()) && (r_sync.to_bits() == r_async.to_bits());
        let ratio = t_async.as_secs_f64() / t_jit.as_secs_f64().max(1e-9);
        ratios.push(ratio);
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>12.3} {:>10.2}  {}",
            b.name,
            t_jit.as_secs_f64() * 1e3,
            t_sync.as_secs_f64() * 1e3,
            t_async.as_secs_f64() * 1e3,
            ratio,
            if identical {
                "bitwise-identical"
            } else {
                "MISMATCH"
            }
        );
        assert!(identical, "{}: cross-regime result mismatch", b.name);
    }

    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    println!("\nmedian spec-async / jit first-call latency: {median:.2} (target ≤ 1.10)");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--workers N` reaches the engine only as the spec-async arm's
    /// `TierOptions::workers`; the other knobs stay the measured ones.
    #[test]
    fn workers_flag_sets_tier_workers() {
        let cfg = harness::MeasureConfig::default();
        for (argv, workers) in [
            ("figure_responsiveness --workers 4", 4),
            ("figure_responsiveness --scale 0.02 --workers 0", 0),
            ("figure_responsiveness", 2),
            ("figure_responsiveness --workers many", 2),
        ] {
            let argv: Vec<String> = argv.split(' ').map(String::from).collect();
            let options = async_options(&cfg, workers_from(&argv));
            assert_eq!(options.tier.workers, workers, "{argv:?}");
            let mut tier = options.tier;
            tier.workers = cfg.engine_options(ExecMode::Spec).tier.workers;
            assert_eq!(
                EngineOptions { tier, ..options },
                cfg.engine_options(ExecMode::Spec)
            );
        }
    }
}
