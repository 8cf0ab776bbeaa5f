//! Golden parallel-kernel suite: every benchmark must produce **bitwise
//! identical** results for every kernel thread count. Determinism is
//! the hard invariant of the data-parallel layer — each output element
//! is computed by the exact same expression (and, for the blocked
//! product, the same accumulation order) as the sequential path, so
//! `MAJIC_THREADS` may only change how fast an answer arrives, never
//! the answer. The gate threshold is lowered here so benchmark-sized
//! matrices actually take the parallel path instead of ducking under
//! the size gate.

use majic::{ExecMode, Session};
use majic_bench::{all, digest};
use majic_runtime::par;
use std::sync::Mutex;

const SCALE: f64 = 0.02;

/// The kernel pool is process-global; tests that reconfigure it must
/// not interleave.
static CONFIG: Mutex<()> = Mutex::new(());

fn run_all(threads: usize) -> Vec<(&'static str, Vec<u64>)> {
    par::set_threads(threads);
    all()
        .iter()
        .map(|b| {
            let args = (b.args)(SCALE);
            let mut m = Session::with_mode(ExecMode::Jit);
            m.load_source(b.source).unwrap();
            let out = m
                .call(b.entry, &args, 1)
                .unwrap_or_else(|e| panic!("{} @ {threads} threads: {e}", b.name));
            (b.name, digest(&out[0]))
        })
        .collect()
}

#[test]
fn engine_options_threads_configures_the_pool() {
    let _guard = CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let mut m = Session::with_mode(ExecMode::Jit);
    m.options.threads = Some(2);
    m.load_source("function y = twice(x)\ny = 2 * x;\n")
        .unwrap();
    let out = m.call("twice", &[21.0f64.into()], 1).unwrap();
    assert_eq!(out[0].to_scalar().unwrap(), 42.0);
    assert_eq!(
        par::thread_count(),
        2,
        "EngineOptions::threads must reach the kernel pool on call"
    );
    par::set_threads(0);
}

#[test]
fn all_benchmarks_bitwise_identical_across_thread_counts() {
    let _guard = CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    // Deep recursion (ackermann) needs a roomy stack in debug builds.
    std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(|| {
            // Force benchmark-sized ops through the parallel path.
            par::set_threshold(16);
            let baseline = run_all(0);
            for threads in [1usize, 4] {
                let dispatched_before = majic_trace::counter("kernel.par.dispatch").get();
                let got = run_all(threads);
                for ((name, want), (_, have)) in baseline.iter().zip(&got) {
                    assert_eq!(
                        want, have,
                        "{name}: results diverge at MAJIC_THREADS={threads}"
                    );
                }
                if threads > 1 {
                    // The agreement must be between genuinely parallel
                    // and sequential executions, not sequential twice.
                    assert!(
                        majic_trace::counter("kernel.par.dispatch").get() > dispatched_before,
                        "no parallel kernel ever dispatched at {threads} threads"
                    );
                }
            }
            par::set_threads(0);
            par::set_threshold(par::DEFAULT_PAR_THRESHOLD);
        })
        .unwrap()
        .join()
        .unwrap();
}
