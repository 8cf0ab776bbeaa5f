//! Observability acceptance at the engine level: call counts from the
//! `call` span and the VM profile, background-worker span attribution,
//! per-worker trace tracks, and service facts kept per service.

use majic::{CacheReport, CompilerService, EngineOptions, ExecMode, Session, TierOptions, Value};
use std::sync::Mutex;

/// The trace collector is process-global; serialize tests here.
static LOCK: Mutex<()> = Mutex::new(());

const FIB: &str = "function y = fib(n)\n\
                   if n <= 1\n\
                   y = 1;\n\
                   else\n\
                   y = fib(n - 1) + fib(n - 2);\n\
                   end\n";

/// fib(5) with inlining off makes exactly 14 inner user calls (the
/// 15-node call tree minus the root, which enters through
/// `Session::call` and opens the one `call` span).
#[test]
fn call_user_counter_matches_hand_count() {
    let _g = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    majic_trace::reset();
    majic_trace::set_enabled(true);
    majic_trace::set_vm_profile(true);

    let mut m = Session::with_mode(ExecMode::Jit);
    m.options.inline = false;
    m.load_source(FIB).unwrap();
    let out = m.call("fib", &[Value::scalar(5.0)], 1).unwrap();
    assert_eq!(out[0].to_scalar().unwrap(), 8.0);

    majic_trace::set_vm_profile(false);
    majic_trace::set_enabled(false);
    let snap = majic_trace::snapshot();
    let calls = snap.events.iter().filter(|e| e.name == "call").count();
    let user_calls = snap
        .counters
        .iter()
        .find(|c| c.name == "vm.call.user")
        .map_or(0, |c| c.value);
    assert_eq!(calls, 1);
    assert_eq!(user_calls, 14);
    majic_trace::reset();
}

/// Background workers record their compile spans on their own named
/// threads, nested as compile → layers.
#[test]
fn spec_workers_trace_on_their_own_threads() {
    let _g = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    majic_trace::reset();
    majic_trace::set_enabled(true);

    let mut m = Session::with_mode(ExecMode::Spec);
    let src: String = (0..8)
        .map(|i| format!("function y = s{i}(x)\ny = x + {i};\n"))
        .collect();
    m.load_source(&src).unwrap();
    m.options.tier.workers = 4;
    m.speculate_background();
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
        worker_events.iter().filter(|e| e.name == "compile").count() >= 8,
        "each job compiles on a worker thread"
    );
    assert!(worker_events
        .iter()
        .any(|e| e.path == "compile;infer.speculative"));
    assert!(worker_events.iter().any(|e| e.name == "spec.queue_wait"));
    // Worker spans never inherit the main thread's stack.
    assert!(worker_events.iter().all(|e| !e.path.starts_with("call;")));
    majic_trace::reset();
}

/// Two services in one process, tracing on: each service's
/// `RepoStats`, `CacheReport` and `SpecStats` count only its own work,
/// and no service fact is mirrored into the process-global counters.
#[test]
fn two_services_keep_their_facts_apart() {
    let _g = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    majic_trace::reset();
    majic_trace::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("majic-two-services-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repo.majiccache");
    let options = EngineOptions::builder()
        .mode(ExecMode::Jit)
        .tier(TierOptions {
            enabled: false,
            ..TierOptions::default()
        })
        .build();
    let one = |x: f64| [Value::scalar(x)];

    // Service A: a clean cache, one first call and one repeat, then two
    // functions speculated in the background; its manifest is saved.
    let a = CompilerService::with_options(options);
    let mut sa = a.session();
    assert_eq!(sa.attach_cache(&path), CacheReport::default());
    sa.load_source("function y = a1(x)\ny = x + 1;\nfunction y = a2(x)\ny = 2 * x;\n")
        .unwrap();
    sa.call("a1", &one(1.0), 1).unwrap();
    sa.call("a1", &one(1.0), 1).unwrap();
    sa.speculate_background();
    sa.background().wait();
    let written = sa.save_cache().unwrap();
    assert!(written >= 2, "wrote {written} entries");

    // Service B attaches A's manifest with its last byte flipped, runs
    // three functions of its own and speculates them.
    let mut bytes = std::fs::read(&path).unwrap();
    *bytes.last_mut().unwrap() ^= 1;
    std::fs::write(&path, &bytes).unwrap();
    let b = CompilerService::with_options(options);
    let mut sb = b.session();
    let damaged = sb.attach_cache(&path);
    sb.load_source(
        "function y = b1(x)\ny = x - 1;\nfunction y = b2(x)\ny = x / 2;\n\
         function y = b3(x)\ny = -x;\n",
    )
    .unwrap();
    sb.call("b1", &one(4.0), 1).unwrap();
    sb.speculate_background();
    sb.background().wait();
    a.background().wait();

    // A miss compiles and runs the version it published without a
    // second lookup: A's first call misses and its repeat hits, B's one
    // call misses.
    let (ra, rb) = (a.repository().stats(), b.repository().stats());
    assert_eq!((ra.hits, ra.misses, ra.inserts), (1, 1, 3), "{ra:?}");
    assert_eq!((rb.hits, rb.misses, rb.inserts), (0, 1, 4), "{rb:?}");
    assert_eq!(sa.cache_report(), CacheReport::default());
    assert_eq!(
        sb.cache_report(),
        CacheReport {
            loaded: written - 1,
            rejected_checksum: 1,
            ..CacheReport::default()
        }
    );
    assert_eq!(sb.cache_report(), damaged);
    let (pa, pb) = (
        a.background().finish().unwrap(),
        b.background().finish().unwrap(),
    );
    assert_eq!(
        (pa.enqueued, pa.published, pa.completed()),
        (2, 2, 2),
        "{pa:?}"
    );
    assert_eq!(
        (pb.enqueued, pb.published, pb.completed()),
        (3, 3, 3),
        "{pb:?}"
    );

    majic_trace::set_enabled(false);
    let mirrored: Vec<String> = majic_trace::snapshot()
        .counters
        .into_iter()
        .map(|c| c.name)
        .filter(|n| {
            ["repo.", "engine.", "spec."]
                .iter()
                .any(|p| n.starts_with(p))
        })
        .collect();
    assert!(
        mirrored.is_empty(),
        "service facts in global counters: {mirrored:?}"
    );
    drop((sa, sb, a, b));
    std::fs::remove_dir_all(&dir).ok();
    majic_trace::reset();
}
