//! Warm-start responsiveness: first-call latency of a session that
//! replays the persistent repository manifest, or that shares code
//! another session compiled, vs. a cold session that must JIT from
//! scratch.
//!
//! For every benchmark we measure the latency from "session created" to
//! "first call answered" three times:
//!
//! * `cold` — an empty repository: the first call pays parse + inference
//!   + code generation + execution (the JIT bars of Figure 6).
//! * `warm` — a manifest written by a previous session is attached
//!   before the sources load: loading hands its signatures to the
//!   background pool as tier-1 recompiles, and the first call runs
//!   whatever the repository holds by then (tier-0 JIT code compiled on
//!   the spot when the replay has not finished).
//! * `shared` — on one [`majic::CompilerService`], a first session loads
//!   and calls the benchmark outside the timed window; a second session
//!   is timed. Sessions with matching source share compiled versions
//!   through the repository's closure-hash namespaces, so its first call
//!   dispatches straight into compiled code.
//!
//! The warm path only recompiles recorded signatures from the live
//! source (per-entry checksums, per-function source hashes), and the
//! shared path only dispatches versions compiled from identical source,
//! so neither can compute anything different: results are asserted
//! bitwise-identical to cold. The shared session's first call must
//! compile nothing (asserted), and the acceptance target is median
//! shared ≤ 0.5× cold (asserted) on the golden benchmark set. The warm
//! median is printed, not asserted.
//!
//! ```text
//! cargo run --release -p majic-bench --bin figure_warmstart -- \
//!     [--scale X] [--runs N]
//! ```

use majic::{CompilerService, ExecMode, Session, Value};
use majic_bench::{all, digest, harness, Benchmark};
use std::path::Path;
use std::time::{Duration, Instant};

fn session(cfg: &harness::MeasureConfig) -> Session {
    Session::with_options(cfg.engine_options(ExecMode::Jit))
}

/// One timed first call. The timed window covers everything a user at a
/// fresh prompt would wait for: (optional) cache attach, source load,
/// and the call itself.
fn first_call(
    b: &Benchmark,
    cfg: &harness::MeasureConfig,
    args: &[Value],
    cache: Option<&Path>,
) -> (Duration, Vec<u64>, usize) {
    let mut m = session(cfg);
    let t0 = Instant::now();
    if let Some(path) = cache {
        m.attach_cache(path);
    }
    m.load_source(b.source).expect("benchmark parses");
    let out = m
        .call(b.entry, args, 1)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let took = t0.elapsed();
    let installed = m.cache_report().installed;
    // Don't let the drop-flush write back into the shared cache file
    // while other runs race it: detach by saving explicitly first.
    if cache.is_some() {
        m.save_cache().expect("cache flush");
    }
    (took, digest(&out[0]), installed)
}

/// One timed first call of a second session on a service where a first
/// session already loaded and called the benchmark (off the clock).
fn shared_first_call(
    b: &Benchmark,
    cfg: &harness::MeasureConfig,
    args: &[Value],
) -> (Duration, Vec<u64>) {
    let service = CompilerService::with_options(cfg.engine_options(ExecMode::Jit));
    let mut s = service.session();
    s.load_source(b.source).expect("benchmark parses");
    s.call(b.entry, args, 1)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    drop(s);
    let mut s = service.session();
    let t0 = Instant::now();
    s.load_source(b.source).expect("benchmark parses");
    let out = s
        .call(b.entry, args, 1)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let took = t0.elapsed();
    assert_eq!(
        s.times.codegen,
        Duration::ZERO,
        "{}: the shared session's first call compiled",
        b.name
    );
    (took, digest(&out[0]))
}

fn main() {
    let _trace = harness::trace_from_env();
    let cfg = harness::config_from_args();
    // First-call latency is compile-dominated; a small problem size
    // isolates the compile-vs-load contrast. Override with --scale.
    let scale = cfg.scale.min(0.05);
    let best_of = cfg.runs.max(1);

    let cache_dir = std::env::temp_dir().join(format!("majic-warmstart-{}", std::process::id()));
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");

    println!(
        "Figure W: first-call latency, warm cache and shared service vs. cold JIT \
         (scale {scale:.2}, best of {best_of})"
    );
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>11} {:>12} {:>9}  results",
        "benchmark", "cold (ms)", "warm (ms)", "warm/cold", "shared (ms)", "shared/cold", "replays"
    );

    let mut warm_ratios = Vec::new();
    let mut shared_ratios = Vec::new();
    for b in all() {
        let args = (b.args)(scale);
        let cache = cache_dir.join(format!("{}.majiccache", b.name));

        // Populate the cache once, outside every timed window.
        {
            let mut m = session(&cfg);
            m.attach_cache(&cache);
            m.load_source(b.source).expect("benchmark parses");
            m.call(b.entry, &args, 1)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            m.save_cache().expect("cache populate");
        }

        let mut cold = Duration::MAX;
        let mut warm = Duration::MAX;
        let mut shared = Duration::MAX;
        let mut d_cold = Vec::new();
        let mut d_warm = Vec::new();
        let mut d_shared = Vec::new();
        let mut warm_installs = 0usize;
        for _ in 0..best_of {
            let (t, d, _) = first_call(&b, &cfg, &args, None);
            if t < cold {
                cold = t;
                d_cold = d;
            }
            let (t, d, installs) = first_call(&b, &cfg, &args, Some(&cache));
            if t < warm {
                warm = t;
                d_warm = d;
                warm_installs = installs;
            }
            let (t, d) = shared_first_call(&b, &cfg, &args);
            if t < shared {
                shared = t;
                d_shared = d;
            }
        }

        assert!(
            warm_installs > 0,
            "{}: warm session installed nothing from the cache",
            b.name
        );
        assert_eq!(d_cold, d_warm, "{}: warm/cold result mismatch", b.name);
        assert_eq!(
            d_cold, d_shared,
            "{}: shared session result differs from cold",
            b.name
        );
        let ratio = |t: Duration| t.as_secs_f64() / cold.as_secs_f64().max(1e-9);
        let (warm_ratio, shared_ratio) = (ratio(warm), ratio(shared));
        println!(
            "{:<10} {:>10.3} {:>10.3} {:>10.2} {:>11.3} {:>12.2} {:>9}  bitwise-identical",
            b.name,
            cold.as_secs_f64() * 1e3,
            warm.as_secs_f64() * 1e3,
            warm_ratio,
            shared.as_secs_f64() * 1e3,
            shared_ratio,
            warm_installs,
        );
        warm_ratios.push(warm_ratio);
        shared_ratios.push(shared_ratio);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    let median_of = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let warm = median_of(warm_ratios);
    println!("\nmedian warm / cold first-call latency:   {warm:.2}");
    let median = median_of(shared_ratios);
    println!("median shared / cold first-call latency: {median:.2} (target ≤ 0.50)");
    assert!(
        median <= 0.5,
        "shared sessions must at least halve first-call latency \
         (median shared / cold {median:.2})"
    );
}
