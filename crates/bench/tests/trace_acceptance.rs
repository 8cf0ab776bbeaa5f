//! Acceptance: the trace reconstructs Figure 6.
//!
//! A single JIT call of each of the 16 benchmarks must produce layer
//! spans whose durations, summed per Figure 6 bucket (disambiguation →
//! inference → codegen → execution), match the engine's `PhaseTimes`
//! within 5%, and repository lookups must carry their
//! Manhattan-distance annotations. Spans and `PhaseTimes` are fed from
//! the *same* measurement, so the tolerance only absorbs rounding.

use majic::{ExecMode, Session};
use majic_bench::all;
use majic_trace::{reset, set_enabled, snapshot, EventKind};
use std::sync::Mutex;
use std::time::Duration;

/// The collector is process-global; serialize tests in this binary.
static LOCK: Mutex<()> = Mutex::new(());

const SCALE: f64 = 0.05;

fn within_5_percent(traced: Duration, engine: Duration, what: &str) {
    let t = traced.as_secs_f64();
    let e = engine.as_secs_f64();
    if e <= 1e-9 {
        assert!(t <= 1e-6, "{what}: traced {t}s against empty phase");
        return;
    }
    let rel = (t - e).abs() / e;
    assert!(
        rel <= 0.05,
        "{what}: traced {t:.6}s vs engine {e:.6}s ({:.2}% off)",
        rel * 100.0
    );
}

#[test]
fn figure6_phases_reconstruct_from_trace() {
    let _g = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    reset();
    set_enabled(true);

    let mut engine_times = majic::PhaseTimes::default();
    let mut misses = 0;
    let benchmarks = all();
    assert_eq!(benchmarks.len(), 16, "the paper's 16-benchmark suite");
    for b in &benchmarks {
        let mut m = Session::with_mode(ExecMode::Jit);
        // Hot promotion would run background tier-1 compiles whose
        // spans land in the global trace but whose PhaseTimes are
        // worker-local; this test reconstructs the *foreground*
        // pipeline, so keep it single-tier.
        m.options.tier.enabled = false;
        m.load_source(b.source).unwrap();
        let args = (b.args)(SCALE);
        m.call(b.entry, &args, 1)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        engine_times.disambiguation += m.times.disambiguation;
        engine_times.inference += m.times.inference;
        engine_times.codegen += m.times.codegen;
        engine_times.execution += m.times.execution;
        misses += m.repository().stats().misses;
    }
    assert!(misses >= 16, "every first call misses");

    set_enabled(false);
    let snap = snapshot();

    let sum_spans = |names: &[&str]| -> Duration {
        snap.events
            .iter()
            .filter(|e| e.kind == EventKind::Span && names.contains(&e.name))
            .map(|e| Duration::from_nanos(e.dur_ns))
            .sum()
    };
    within_5_percent(
        sum_spans(&["analysis.inline", "analysis.disambig"]),
        engine_times.disambiguation,
        "disambiguation",
    );
    within_5_percent(
        sum_spans(&["infer.jit", "infer.speculative"]),
        engine_times.inference,
        "inference",
    );
    within_5_percent(
        sum_spans(&["codegen.select", "ir.passes", "vm.regalloc", "vm.flatten"]),
        engine_times.codegen,
        "codegen",
    );
    within_5_percent(
        sum_spans(&["execution"]),
        engine_times.execution,
        "execution",
    );

    // Every benchmark compiled at least its entry function, annotated
    // with the function name, nested under the top-level call span.
    let compiles: Vec<_> = snap.events.iter().filter(|e| e.name == "compile").collect();
    assert!(compiles.len() >= 16, "got {} compile spans", compiles.len());
    for b in &benchmarks {
        assert!(
            compiles
                .iter()
                .any(|e| e.args.iter().any(|(k, v)| *k == "fn" && v == b.entry)),
            "no compile span for {}",
            b.entry
        );
    }
    assert!(snap
        .events
        .iter()
        .any(|e| e.path == "call;compile;infer.jit"));

    // Repository lookups carry Manhattan-distance annotations.
    let lookups: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.name == "repo.lookup")
        .collect();
    assert!(!lookups.is_empty(), "no repo.lookup events");
    for l in &lookups {
        assert_eq!(l.kind, EventKind::Instant);
        assert!(l.args.iter().any(|(k, _)| *k == "hit"));
    }
    assert!(
        lookups
            .iter()
            .any(|l| l.args.iter().any(|(k, _)| *k == "distance")),
        "no lookup recorded a best-match distance"
    );
    assert!(snap
        .histograms
        .iter()
        .any(|h| h.name == "repo.lookup.distance" && h.count > 0));

    reset();
}

#[test]
fn chrome_export_of_real_run_is_parseable() {
    let _g = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    reset();
    set_enabled(true);

    let b = majic_bench::by_name("fib").unwrap_or_else(|| all().remove(0));
    let mut m = Session::with_mode(ExecMode::Jit);
    m.load_source(b.source).unwrap();
    m.call(b.entry, &(b.args)(0.02), 1).unwrap();
    set_enabled(false);

    let json = majic_trace::export::chrome_trace_json(&snapshot());
    let doc = majic_testkit::json::Json::parse(&json).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(majic_testkit::json::Json::as_arr)
        .expect("traceEvents");
    assert!(events.len() > 4);
    let report = majic_trace::export::render_report(&snapshot());
    assert!(report.contains("compile"), "report:\n{report}");
    reset();
}
