//! Golden warm-start suite: every benchmark must produce **bitwise
//! identical** results whether its first call is compiled cold, served
//! from a persistent repository cache written by a previous session, or
//! dispatched into code another session of a shared service compiled.
//! This extends the repository safety guarantee ("a wrong guess … never
//! affects program correctness") across process lifetimes and across
//! concurrent sessions, with no floating-point tolerance to hide behind.

use majic::{CompilerService, ExecMode, Session, Value};
use majic_bench::{all, digest};
use std::path::Path;

const SCALE: f64 = 0.02;
/// Concurrent sessions in the shared-service arm.
const SESSIONS: usize = 4;
/// Deep recursion (ackermann) needs a roomy stack in debug builds.
const STACK: usize = 256 * 1024 * 1024;

fn run(b: &majic_bench::Benchmark, args: &[Value], cache: Option<&Path>) -> (Vec<u64>, usize) {
    let mut m = Session::with_mode(ExecMode::Jit);
    if let Some(path) = cache {
        m.attach_cache(path);
    }
    m.load_source(b.source)
        .unwrap_or_else(|e| panic!("{}: {e}", b.entry));
    let out = m
        .call(b.entry, args, 1)
        .unwrap_or_else(|e| panic!("{}: {e}", b.entry));
    let installed = m.cache_report().installed;
    if cache.is_some() {
        m.save_cache().unwrap();
    }
    (digest(&out[0]), installed)
}

/// First call of `b` in a fresh session of `service`.
fn first_call(service: &CompilerService, b: &majic_bench::Benchmark, args: &[Value]) -> Vec<u64> {
    let mut s = service.session();
    s.load_source(b.source)
        .unwrap_or_else(|e| panic!("{}: {e}", b.entry));
    let out = s
        .call(b.entry, args, 1)
        .unwrap_or_else(|e| panic!("{}: {e}", b.entry));
    digest(&out[0])
}

#[test]
fn all_benchmarks_bitwise_identical_cold_vs_warm() {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(|| {
            let benches = all();
            let args: Vec<Vec<Value>> = benches.iter().map(|b| (b.args)(SCALE)).collect();
            let dir =
                std::env::temp_dir().join(format!("majic-golden-warm-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let mut colds = Vec::new();
            for (b, args) in benches.iter().zip(&args) {
                let cache = dir.join(format!("{}.majiccache", b.name));

                let (cold, _) = run(b, args, None);
                // Session 1 populates the cache; session 2 is warm.
                let (populate, _) = run(b, args, Some(&cache));
                assert_eq!(cold, populate, "{}: populate run diverged", b.name);
                let (warm, installed) = run(b, args, Some(&cache));
                assert!(installed > 0, "{}: warm run installed nothing", b.name);
                assert_eq!(cold, warm, "{}: warm result differs from cold", b.name);
                colds.push(cold);
            }
            let _ = std::fs::remove_dir_all(&dir);

            // Shared service: one session compiles every program, then
            // concurrent sessions first-call each program and must
            // dispatch into that code with the cold result. Each first
            // call gets a fresh session, because `rand`-driven programs
            // advance their session's generator.
            let service = CompilerService::new();
            let mut first = service.session();
            for (b, args) in benches.iter().zip(&args) {
                first.load_source(b.source).unwrap();
                first
                    .call(b.entry, args, 1)
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            }
            std::thread::scope(|scope| {
                for _ in 0..SESSIONS {
                    std::thread::Builder::new()
                        .stack_size(STACK)
                        .spawn_scoped(scope, || {
                            for ((b, args), cold) in benches.iter().zip(&args).zip(&colds) {
                                assert_eq!(
                                    &first_call(&service, b, args),
                                    cold,
                                    "{}: shared-service session differs from cold",
                                    b.name
                                );
                            }
                        })
                        .unwrap();
                }
            });
            let stats = service.repository().stats();
            assert!(
                stats.shared_hits > 0,
                "identical-source sessions never shared compiled code (stats: {stats:?})"
            );
        })
        .unwrap()
        .join()
        .unwrap();
}
