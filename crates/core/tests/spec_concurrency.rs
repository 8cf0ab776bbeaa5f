//! Engine-level concurrency tests for background speculation: the
//! session must produce identical results with 0, 1, and 4 spec
//! workers, pick up published versions transparently, and shut the pool
//! down cleanly (join-on-drop, no leaked work).

use majic::{ExecMode, Session, Value};
use majic_repo::{CodeQuality, NO_SESSION};
use majic_types::Signature;

const PROGRAMS: &[(&str, &str, &[f64])] = &[
    (
        "function s = sumsq(n)\ns = 0;\nfor k = 1:n\n s = s + k * k;\nend\n",
        "sumsq",
        &[200.0],
    ),
    (
        "function f = fib(n)\nif n < 2\n f = n;\nelse\n f = fib(n-1) + fib(n-2);\nend\n",
        "fib",
        &[15.0],
    ),
    (
        "function s = ap(n)\nv = zeros(1, n);\nfor k = 1:n\n v(k) = k * 3;\nend\ns = sum(v) + v(1) + v(n);\n",
        "ap",
        &[40.0],
    ),
    (
        "function r = smallvec(n)\nr0 = [1 0];\nv = [0 6.28];\nfor k = 1:n\n v = v + 0.001 * r0;\n r0 = r0 + 0.001 * v;\nend\nr = r0(1) + v(2);\n",
        "smallvec",
        &[500.0],
    ),
];

fn run_with_workers(workers: usize) -> Vec<u64> {
    let mut results = Vec::new();
    for &(src, entry, args) in PROGRAMS {
        let mut m = Session::with_mode(ExecMode::Spec);
        m.load_source(src).unwrap();
        if workers > 0 {
            m.options.tier.workers = workers;
            m.speculate_background();
            // Drain so every arm actually runs whatever the workers
            // published (the race itself is exercised elsewhere).
            m.background().wait();
        }
        let argv: Vec<Value> = args.iter().map(|&a| Value::scalar(a)).collect();
        let out = m.call(entry, &argv, 1).unwrap();
        results.push(out[0].to_scalar().unwrap().to_bits());
    }
    results
}

/// Identical final results with 0, 1, and 4 workers — bit for bit.
#[test]
fn results_identical_across_worker_counts() {
    let baseline = run_with_workers(0);
    for workers in [1, 4] {
        assert_eq!(
            run_with_workers(workers),
            baseline,
            "{workers} spec workers changed results"
        );
    }
}

/// Background workers publish optimized versions that later foreground
/// calls transparently pick up.
#[test]
fn published_versions_are_picked_up() {
    let (src, entry, args) = PROGRAMS[0];
    let mut m = Session::with_mode(ExecMode::Spec);
    m.load_source(src).unwrap();
    m.options.tier.workers = 2;
    m.speculate_background();
    m.background().wait();

    let stats = m.background().stats().expect("pool running");
    assert_eq!(stats.enqueued, 1);
    assert_eq!(stats.published, 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(
        m.repository().version_count_ns(entry, m.namespace(entry)),
        1
    );

    let argv: Vec<Value> = args.iter().map(|&a| Value::scalar(a)).collect();
    let before = m.repository().stats();
    m.call(entry, &argv, 1).unwrap();
    let after = m.repository().stats();
    // The call hit the speculative version: one more hit, no new miss.
    assert_eq!(after.hits, before.hits + 1);
    assert_eq!(after.misses, before.misses);

    // And the hit really is the optimized background version.
    let sig: Signature = argv.iter().map(Value::type_of).collect();
    let hit = m
        .repository()
        .lookup_ns(entry, m.namespace(entry), NO_SESSION, &sig)
        .unwrap();
    assert_eq!(hit.quality, CodeQuality::Optimized);
}

/// Functions loaded *after* the pool starts are speculated too (the
/// paper's "source directory snoop").
#[test]
fn late_loaded_functions_are_speculated() {
    let mut m = Session::with_mode(ExecMode::Spec);
    m.options.tier.workers = 2;
    m.speculate_background();
    m.load_source("function y = late(x)\ny = x * 2 + 1;\n")
        .unwrap();
    m.background().wait();
    let stats = m.background().stats().expect("pool running");
    assert_eq!(stats.published, 1);
    assert_eq!(
        m.repository().version_count_ns("late", m.namespace("late")),
        1
    );
}

/// Shutdown drains pending jobs, returns final statistics, and joins
/// every worker; dropping the session joins too (nothing to observe
/// there beyond "does not hang", which this test also covers).
#[test]
fn shutdown_drains_and_reports() {
    let mut m = Session::with_mode(ExecMode::Spec);
    for i in 0..12 {
        m.load_source(&format!("function y = f{i}(x)\ny = x + {i};\n"))
            .unwrap();
    }
    m.options.tier.workers = 4;
    m.speculate_background();
    let stats = m.background().finish().expect("pool was running");
    assert_eq!(stats.enqueued, 12);
    assert_eq!(stats.published + stats.failed, 12);
    assert_eq!(stats.published, 12);
    assert!(m.background().stats().is_none(), "pool gone after finish");
}

/// `TierOptions::workers = 0` means no background compiles: the pool
/// rejects speculative and promotion jobs alike, whichever of them
/// started it, and every call still answers from its first-call code.
#[test]
fn zero_worker_pool_rejects_and_session_survives() {
    let mut m = Session::with_mode(ExecMode::Spec);
    m.options.tier.workers = 0;
    m.options.tier.threshold = 1;
    m.load_source("function y = g(x)\ny = x - 1;\n").unwrap();
    m.speculate_background();
    m.background().wait(); // must not hang
    let stats = m.background().stats().unwrap();
    assert_eq!(stats.enqueued, 0);
    assert_eq!(stats.rejected, 1);
    let out = m.call("g", &[Value::scalar(5.0)], 1).unwrap();
    assert_eq!(out[0].to_scalar().unwrap(), 4.0);
    // The call ran hot, and its promotion was rejected too.
    let stats = m.background().stats().unwrap();
    assert_eq!((stats.enqueued, stats.rejected), (0, 2));

    // A promotion that finds no pool starts the same rejecting pool.
    let mut m = Session::with_mode(ExecMode::Jit);
    m.options.tier.workers = 0;
    m.options.tier.threshold = 1;
    m.load_source("function y = g(x)\ny = x - 1;\n").unwrap();
    for _ in 0..2 {
        let out = m.call("g", &[Value::scalar(5.0)], 1).unwrap();
        assert_eq!(out[0].to_scalar().unwrap(), 4.0);
    }
    m.background().wait();
    let stats = m
        .background()
        .stats()
        .expect("the promotion started the pool");
    assert_eq!((stats.enqueued, stats.rejected), (0, 2));
    assert_eq!(m.repository().stats().tier1_versions, 0);
}

/// A pool that a promotion started is the service's one pool:
/// `speculate_background` queues onto it instead of replacing it, so its
/// statistics count both jobs, and it speculates sources loaded later.
#[test]
fn promotion_pool_keeps_running_through_speculate_background() {
    let mut m = Session::with_mode(ExecMode::Jit);
    m.options.tier.threshold = 1;
    m.load_source("function y = hot(x)\ny = x * 3;\n").unwrap();
    m.call("hot", &[Value::scalar(2.0)], 1).unwrap();
    m.background().wait();
    let stats = m
        .background()
        .stats()
        .expect("the promotion started the pool");
    assert_eq!((stats.enqueued, stats.published), (1, 1));

    m.speculate_background();
    m.background().wait();
    let stats = m.background().stats().expect("pool still running");
    assert_eq!(stats.enqueued, 2, "one promotion and one speculative job");
    assert_eq!(stats.published, 2);

    m.load_source("function y = later(x)\ny = x + 7;\n")
        .unwrap();
    m.background().wait();
    let stats = m.background().stats().expect("pool still running");
    assert_eq!((stats.enqueued, stats.published), (3, 3));
    assert_eq!(
        m.repository()
            .version_count_ns("later", m.namespace("later")),
        1
    );
}

/// Hammer the engine while workers publish: interleave foreground calls
/// with background publication instead of draining first. Results must
/// match the interpreter regardless of who wins each race.
#[test]
fn racing_foreground_calls_agree_with_interpreter() {
    let (src, entry, args) = PROGRAMS[1]; // fib: many recursive signatures
    let mut reference = Session::with_mode(ExecMode::Interpret);
    reference.load_source(src).unwrap();
    let argv: Vec<Value> = args.iter().map(|&a| Value::scalar(a)).collect();
    let expect = reference.call(entry, &argv, 1).unwrap()[0]
        .to_scalar()
        .unwrap();

    for trial in 0..8 {
        let mut m = Session::with_mode(ExecMode::Spec);
        m.load_source(src).unwrap();
        m.options.tier.workers = 1 + trial % 4;
        m.speculate_background();
        // No background().wait(): the call races the background publish.
        let out = m.call(entry, &argv, 1).unwrap();
        assert_eq!(out[0].to_scalar().unwrap(), expect, "trial {trial}");
    }
}

/// `f` calls `g`, whose `return` inside a loop keeps it from being
/// inlined, so `f`'s speculative output type is whatever the repository
/// holds for `g` when `f` compiles. Speculation compiles callees first,
/// so every session builds the same repository: `g`'s version is
/// already there and `f` inherits its integer output.
#[test]
fn speculation_compiles_callees_first() {
    const SRC: &str = "function r = f(x)\nif x > 0\n r = g(x);\nelse\n r = 0;\nend\n\
                       function r = g(x)\nr = 0;\nfor k = 1:3\n if k > x\n  return;\n end\n r = k;\nend\n";
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..40 {
        let mut m = Session::with_mode(ExecMode::Spec);
        m.load_source(SRC).unwrap();
        m.speculate_all();
        let ns = m.namespace("f");
        for (name, n, versions) in m.repository().entries_ns() {
            if name == "f" && n == ns {
                for v in versions {
                    seen.insert(format!(
                        "{} -> {} ({} steps)",
                        v.signature,
                        v.output_types[0],
                        v.code.step_count()
                    ));
                }
            }
        }
    }
    let versions: Vec<String> = seen.into_iter().collect();
    assert_eq!(
        versions,
        ["(real shape=<1,1> limits=<-inf,inf>) -> int shape=<1,1> limits=<0,3> (12 steps)"],
        "every session must speculate the same f, typed from g's version"
    );
}
