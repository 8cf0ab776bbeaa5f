//! Observability acceptance at the engine level: dispatch counters,
//! background-worker span attribution and per-worker trace tracks.

use majic::{ExecMode, Majic, Value};
use std::sync::Mutex;

/// The trace collector is process-global; serialize tests here.
static LOCK: Mutex<()> = Mutex::new(());

const FIB: &str = "function y = fib(n)\n\
                   if n <= 1\n\
                   y = 1;\n\
                   else\n\
                   y = fib(n - 1) + fib(n - 2);\n\
                   end\n";

/// fib(5) with inlining off dispatches exactly 14 inner user calls
/// (the 15-node call tree minus the root, which enters through
/// `Majic::call`, not the dispatcher).
#[test]
fn call_user_counter_matches_hand_count() {
    let _g = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    majic_trace::reset();
    majic_trace::set_enabled(true);

    let mut m = Majic::with_mode(ExecMode::Jit);
    m.options.inline = false;
    m.load_source(FIB).unwrap();
    let out = m.call("fib", &[Value::scalar(5.0)], 1).unwrap();
    assert_eq!(out[0].to_scalar().unwrap(), 8.0);

    majic_trace::set_enabled(false);
    let snap = majic_trace::snapshot();
    let count = |name: &str| {
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    assert_eq!(count("engine.call"), 1);
    assert_eq!(count("engine.call_user"), 14);
    majic_trace::reset();
}

/// Background workers record their compile spans on their own named
/// threads, nested as spec.compile → compile → phases.
#[test]
fn spec_workers_trace_on_their_own_threads() {
    let _g = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    majic_trace::reset();
    majic_trace::set_enabled(true);

    let mut m = Majic::with_mode(ExecMode::Spec);
    let src: String = (0..8)
        .map(|i| format!("function y = s{i}(x)\ny = x + {i};\n"))
        .collect();
    m.load_source(&src).unwrap();
    m.speculate_background(4);
    m.background().wait();
    m.background().finish();

    majic_trace::set_enabled(false);
    let snap = majic_trace::snapshot();
    let worker_events: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.thread_name.starts_with("majic-spec-"))
        .collect();
    assert!(
        worker_events
            .iter()
            .filter(|e| e.name == "spec.compile")
            .count()
            >= 8,
        "each job compiles on a worker thread"
    );
    assert!(worker_events
        .iter()
        .any(|e| e.path == "spec.compile;compile;inference"));
    assert!(worker_events.iter().any(|e| e.name == "spec.queue_wait"));
    // Worker spans never inherit the main thread's stack.
    assert!(worker_events.iter().all(|e| !e.path.starts_with("call;")));
    majic_trace::reset();
}
