//! End-to-end tests for the compilation audit log and `Session::explain`
//! (`docs/EXPLAIN_FORMAT.md`): drive real programs through the engine
//! and assert that the explanation answers the questions it promises —
//! which variables inference widened and why, what the inliner decided
//! at each call site, how the persistent cache treated the session, and
//! that the machine-readable JSON form round-trips through a parser.
//!
//! The audit store is process-global (like tracing), so this file is its
//! own test binary and every test uses function names unique to it; the
//! tests never call `audit::reset()`, which would race with each other.

use majic::{ExecMode, Session, Value};
use majic_testkit::json::Json;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

struct TempDir {
    dir: PathBuf,
}

impl TempDir {
    fn new() -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "majic-explain-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir { dir }
    }

    fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn jit() -> Session {
    let m = Session::with_mode(ExecMode::Jit);
    m.service().set_audit(true);
    m
}

fn call1(m: &mut Session, f: &str, x: f64) -> f64 {
    m.call(f, &[Value::scalar(x)], 1).unwrap()[0]
        .to_scalar()
        .unwrap()
}

/// A fib-style loop: the accumulators' value ranges grow every
/// iteration, so the inference fixpoint cannot converge under its
/// iteration cap without widening them — exactly the event the audit
/// log must surface with a variable name and a reason.
#[test]
fn explain_reports_inference_widenings() {
    let mut m = jit();
    m.load_source(
        "function f = exwfib(n)\n\
         a = 0;\n\
         b = 1;\n\
         for i = 1:n\n\
         t = a + b;\n\
         a = b;\n\
         b = t;\n\
         end\n\
         f = a;\n",
    )
    .unwrap();
    assert_eq!(call1(&mut m, "exwfib", 10.0), 55.0);

    let ex = m.explain("exwfib");
    assert_eq!(ex.function, "exwfib");
    let rec = ex
        .records
        .iter()
        .find(|r| r.trigger == "first_call")
        .expect("no first_call record for exwfib");
    assert!(
        rec.outcome.starts_with("published"),
        "unexpected outcome: {}",
        rec.outcome
    );
    assert!(
        !rec.widenings.is_empty(),
        "fib-style loop inferred without widening?\n{}",
        ex.report
    );
    for w in &rec.widenings {
        assert!(!w.variable.is_empty(), "widening lost its variable name");
        assert!(!w.reason.is_empty(), "widening lost its reason");
        assert_ne!(w.from, w.to, "widening that changed nothing: {w:?}");
    }
    // The fib accumulators are what keeps moving.
    let vars: Vec<&str> = rec.widenings.iter().map(|w| w.variable.as_str()).collect();
    assert!(
        vars.iter().any(|v| ["a", "b", "t"].contains(v)),
        "widened variables {vars:?} do not include a fib accumulator"
    );
    assert!(
        ex.report.contains("widen "),
        "report does not render widenings:\n{}",
        ex.report
    );
    // Codegen shape rides along on the same record.
    let cg = rec
        .codegen
        .expect("published record without codegen summary");
    assert!(cg.instructions > 0);
}

/// Inliner verdicts: a small helper is inlined (with the positive
/// reason), and a self-recursive callee is refused at the expansion
/// depth limit (with that reason).
#[test]
fn explain_reports_inliner_verdicts_with_reasons() {
    let mut m = jit();
    m.load_source("function y = exhelp(x)\ny = x + 1;\n")
        .unwrap();
    m.load_source("function z = exmain(x)\nz = exhelp(x) * 2;\n")
        .unwrap();
    m.load_source(
        "function r = exrec(n)\n\
         if n <= 1\n\
         r = 1;\n\
         else\n\
         r = n * exrec(n - 1);\n\
         end\n",
    )
    .unwrap();
    assert_eq!(call1(&mut m, "exmain", 3.0), 8.0);
    assert_eq!(call1(&mut m, "exrec", 5.0), 120.0);

    let ex = m.explain("exmain");
    let rec = ex.records.first().expect("no record for exmain");
    let v = rec
        .inlining
        .iter()
        .find(|v| v.callee == "exhelp")
        .expect("no inline verdict for exhelp");
    assert!(v.inlined, "one-statement helper not inlined: {}", v.reason);
    assert!(
        v.reason.contains("statement"),
        "positive verdict lost its reason: {}",
        v.reason
    );
    assert!(
        ex.report.contains("inline"),
        "report does not render inliner verdicts:\n{}",
        ex.report
    );

    let ex = m.explain("exrec");
    let rec = ex.records.first().expect("no record for exrec");
    let refusal = rec
        .inlining
        .iter()
        .find(|v| !v.inlined)
        .expect("recursive expansion was never refused");
    assert_eq!(refusal.callee, "exrec");
    assert!(
        refusal.reason.contains("recursive"),
        "refusal carries the wrong reason: {}",
        refusal.reason
    );
}

/// Warm hits and source-hash rejects are attributed per function.
#[test]
fn explain_reports_warm_cache_interactions() {
    let t = TempDir::new();
    let path = t.file("warm.majiccache");
    {
        let mut m = jit();
        m.attach_cache(&path);
        m.load_source("function y = exwarm(x)\ny = x - 1;\n")
            .unwrap();
        assert_eq!(call1(&mut m, "exwarm", 3.0), 2.0);
        assert!(m.save_cache().unwrap() > 0);
    }

    // Warm session: the manifest's signature replays as a background
    // tier-1 compile, and the first call runs that code.
    let mut m = jit();
    m.attach_cache(&path);
    m.load_source("function y = exwarm(x)\ny = x - 1;\n")
        .unwrap();
    m.background().wait();
    let ex = m.explain("exwarm");
    let warm = ex
        .records
        .iter()
        .find(|r| r.trigger == "warm_cache")
        .expect("warm replay left no record");
    assert!(warm.outcome.starts_with("published"), "{}", warm.outcome);
    assert_eq!(warm.tier, Some(1), "{}", ex.report);
    assert!(warm.compile_ns > 0, "a replay records its compile time");
    assert!(warm.queue_wait_ns.is_some(), "a replay is a background job");
    assert_eq!(call1(&mut m, "exwarm", 3.0), 2.0);
    assert!(m.repository().stats().tier1_hits >= 1);
    assert_eq!(m.times.codegen, std::time::Duration::ZERO, "{:?}", m.times);

    // Changed source: the same cache is now refused for this function.
    let mut m = jit();
    m.attach_cache(&path);
    m.load_source("function y = exwarm(x)\ny = x - 2;\n")
        .unwrap();
    let ex = m.explain("exwarm");
    let reject = ex
        .events
        .iter()
        .find(|e| e.kind == "cache.reject.source_hash" && e.function == "exwarm")
        .expect("source-hash rejection left no session event");
    assert!(
        reject.detail.contains("source changed"),
        "{}",
        reject.detail
    );
}

/// Speculative compilation records carry the spec trigger, and the
/// background variant records how long the job waited in the queue.
#[test]
fn explain_reports_speculative_triggers() {
    let mut m = jit();
    m.load_source("function y = exspec(x)\ny = x * x;\n")
        .unwrap();
    m.speculate_all();
    let ex = m.explain("exspec");
    assert!(
        ex.records.iter().any(|r| r.trigger == "spec_sync"),
        "synchronous speculation left no record:\n{}",
        ex.report
    );

    let mut m = jit();
    m.load_source("function y = exspecbg(x)\ny = x * x;\n")
        .unwrap();
    m.speculate_background();
    m.background().wait();
    let ex = m.explain("exspecbg");
    let rec = ex
        .records
        .iter()
        .find(|r| r.trigger == "spec_worker")
        .expect("background speculation left no record");
    assert!(
        rec.queue_wait_ns.is_some(),
        "spec-worker record lost its queue wait"
    );
}

/// The machine-readable form (`MAJIC_EXPLAIN=json:…` writes exactly
/// this) parses with a real JSON parser and carries the same facts as
/// the in-process API.
#[test]
fn audit_json_parses_and_matches_records() {
    let mut m = jit();
    m.load_source(
        "function f = exjson(n)\n\
         s = 0;\n\
         for i = 1:n\n\
         s = s + i;\n\
         end\n\
         f = s;\n",
    )
    .unwrap();
    assert_eq!(call1(&mut m, "exjson", 4.0), 10.0);

    let snap = majic_trace::audit::snapshot();
    let doc =
        Json::parse(&majic_trace::audit::audit_json(&snap)).expect("audit JSON does not parse");
    let records = doc
        .get("records")
        .and_then(Json::as_arr)
        .expect("no records array");
    let rec = records
        .iter()
        .find(|r| r.get("function").and_then(Json::as_str) == Some("exjson"))
        .expect("exjson record missing from JSON");
    assert_eq!(
        rec.get("trigger").and_then(Json::as_str),
        Some("first_call")
    );
    assert!(rec
        .get("outcome")
        .and_then(Json::as_str)
        .unwrap()
        .starts_with("published"));
    let widenings = rec
        .get("widenings")
        .and_then(Json::as_arr)
        .expect("record lost its widenings array");
    assert!(
        !widenings.is_empty(),
        "accumulator loop widened nothing in JSON"
    );
    assert!(widenings[0]
        .get("variable")
        .and_then(Json::as_str)
        .is_some());
    assert!(widenings[0].get("reason").and_then(Json::as_str).is_some());
    assert!(rec
        .get("codegen")
        .and_then(|c| c.get("instructions"))
        .is_some());
    doc.get("events")
        .and_then(Json::as_arr)
        .expect("no events array");
    assert!(doc.get("evicted_records").and_then(Json::as_f64).is_some());
}
