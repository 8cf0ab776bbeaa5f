//! Tier-transition coverage for profile-guided recompilation.
//!
//! A JIT-compiled (tier-0) version carries execution counters; crossing
//! the hotness threshold enqueues a background recompile that re-runs
//! inference with the observed signature through the optimizing
//! pipeline and publishes the result as tier-1. These tests pin the
//! promotion policy: it fires at the threshold and not below, the
//! promoted code is preferred on dispatch but never changes results,
//! a persistent-cache round trip replays the promoted signature as
//! tier-1 code, and a call the tier-1 version does not admit falls back
//! to tier-0 compilation.

use majic::{ExecMode, Session, Value};

/// A loop-heavy function: one call of `hot(n)` contributes ~`n` loop
/// back-edges to the hotness score on top of the per-call weight.
fn loop_source(name: &str) -> String {
    format!("function s = {name}(n)\ns = 0;\nfor i = 1:n\ns = s + i * i;\nend\n")
}

fn scalar(out: &[Value]) -> f64 {
    out[0].to_scalar().expect("scalar result")
}

/// Live versions in the session's repository: `[tier-0, tier-1]`.
fn tier_versions(m: &Session) -> [usize; 2] {
    let stats = m.repository().stats();
    [stats.tier0_versions, stats.tier1_versions]
}

#[test]
fn promotion_fires_at_threshold() {
    let mut m = Session::with_mode(ExecMode::Jit);
    m.service().set_audit(true);
    m.options.tier.threshold = 1;
    m.load_source(&loop_source("tier_hot")).unwrap();

    let first = scalar(&m.call("tier_hot", &[200.0f64.into()], 1).unwrap());
    m.background().wait();
    let stats = m
        .background()
        .stats()
        .expect("promotion started the background pool");
    assert_eq!(stats.published, 1, "one hot version, one tier-1 publish");
    assert_eq!(tier_versions(&m), [1, 1]);

    // The next call dispatches the tier-1 version — bitwise the same.
    let again = scalar(&m.call("tier_hot", &[200.0f64.into()], 1).unwrap());
    assert_eq!(first.to_bits(), again.to_bits());
    let repo_stats = m.repository().stats();
    assert!(repo_stats.tier1_hits >= 1, "tier-1 never dispatched");

    // The audit log attributes the background compile to hot promotion.
    let why = m.explain("tier_hot");
    assert!(
        why.records.iter().any(|r| r.trigger == "recompile_hot"),
        "no recompile_hot record:\n{}",
        why.report
    );
    assert!(
        why.records
            .iter()
            .any(|r| r.trigger == "recompile_hot" && r.tier == Some(1)),
        "recompile_hot record missing tier 1:\n{}",
        why.report
    );
}

#[test]
fn no_promotion_below_threshold() {
    let mut m = Session::with_mode(ExecMode::Jit);
    // One call of hot(50) scores ~16 + 50 ≪ the default 10_000.
    m.load_source(&loop_source("tier_cold")).unwrap();
    m.call("tier_cold", &[50.0f64.into()], 1).unwrap();
    m.background().wait();
    assert!(
        m.background().stats().is_none(),
        "background pool started while cold"
    );
    assert_eq!(tier_versions(&m), [1, 0]);
}

#[test]
fn promotion_disabled_by_options() {
    let mut m = Session::with_mode(ExecMode::Jit);
    m.options.tier.enabled = false;
    m.options.tier.threshold = 1;
    m.load_source(&loop_source("tier_off")).unwrap();
    m.call("tier_off", &[200.0f64.into()], 1).unwrap();
    m.background().wait();
    assert!(m.background().stats().is_none());
    assert_eq!(tier_versions(&m), [1, 0]);
}

#[test]
fn tier1_survives_cache_round_trip() {
    let dir = std::env::temp_dir().join(format!("majic-tiered-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repo.majiccache");
    let src = loop_source("tier_warm");

    // Session 1: get hot, promote, flush tier-0 + tier-1 to disk.
    let first = {
        let mut m = Session::with_mode(ExecMode::Jit);
        m.options.tier.threshold = 1;
        m.attach_cache(&path);
        m.load_source(&src).unwrap();
        let out = scalar(&m.call("tier_warm", &[150.0f64.into()], 1).unwrap());
        m.background().wait();
        assert_eq!(tier_versions(&m), [1, 1]);
        out
    }; // drop saves the cache

    // Session 2: the manifest replays the signature through the
    // promotion path, and the first call dispatches the tier-1 version
    // without compiling anything in the session.
    let mut m = Session::with_mode(ExecMode::Jit);
    let report = m.attach_cache(&path);
    assert_eq!(report.loaded, 1, "both tiers share one signature entry");
    m.load_source(&src).unwrap();
    m.background().wait();
    assert_eq!(
        tier_versions(&m),
        [0, 1],
        "the replay compiled anything but one tier-1 version"
    );
    let stats = m.background().stats().expect("replay started the pool");
    assert_eq!((stats.enqueued, stats.published), (1, 1));
    let warm = scalar(&m.call("tier_warm", &[150.0f64.into()], 1).unwrap());
    assert_eq!(first.to_bits(), warm.to_bits());
    assert!(m.repository().stats().tier1_hits >= 1);
    assert_eq!(m.times.codegen, std::time::Duration::ZERO, "{:?}", m.times);
    m.background().wait();
    assert_eq!(
        m.background().stats().unwrap().enqueued,
        1,
        "warm tier-1 re-promoted"
    );

    drop(m);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn redefinition_during_promotion_never_publishes_stale() {
    // A hot-promotion job compiles from the registry snapshot taken at
    // enqueue time. If the function is redefined while the job is in
    // flight, the worker's publish must be dropped (the repository's
    // generation check): old-source tier-1 code outranking the fresh
    // tier-0 version would silently return results from the previous
    // definition. Redefinition and promotion are interleaved with no
    // drain between them to maximize the in-flight overlap; every call
    // must answer from the *current* source no matter which way each
    // race resolves.
    fn source(c: u32) -> String {
        format!("function s = tier_race(n)\ns = {c};\nfor i = 1:n\ns = s + {c} * i;\nend\n")
    }
    let expected = |c: u32| f64::from(c) * (1.0 + 5050.0); // n = 100

    let mut m = Session::with_mode(ExecMode::Jit);
    m.options.tier.threshold = 1; // every first call promotes
    for round in 0..20u32 {
        let c = round % 3 + 1;
        m.load_source(&source(c)).unwrap();
        // First call: fresh tier-0 JIT of the current source, hot at
        // once, promotion enqueued while the previous round's job may
        // still be compiling the old source.
        let first = scalar(&m.call("tier_race", &[100.0f64.into()], 1).unwrap());
        assert_eq!(first, expected(c), "round {round}: stale code dispatched");
        // Second call may pick up this round's tier-1 publish.
        let second = scalar(&m.call("tier_race", &[100.0f64.into()], 1).unwrap());
        assert_eq!(
            second,
            expected(c),
            "round {round}: stale tier-1 dispatched"
        );
    }
    m.background().wait();
    // Every drained job either published current-source code, was
    // dropped as stale, or failed — and dispatch still answers from the
    // last definition.
    let stats = m.background().stats().expect("promotions ran");
    assert_eq!(stats.completed(), stats.enqueued);
    let last = scalar(&m.call("tier_race", &[100.0f64.into()], 1).unwrap());
    assert_eq!(last, expected(19 % 3 + 1));
}

#[test]
fn unseen_signature_falls_back_to_tier0() {
    let mut m = Session::with_mode(ExecMode::Jit);
    m.options.tier.threshold = 1;
    // The loop result depends on the argument, so a wrong dispatch
    // would be visible in the output.
    m.load_source(&loop_source("tier_fallback")).unwrap();
    m.call("tier_fallback", &[300.0f64.into()], 1).unwrap();
    m.background().wait();
    assert_eq!(tier_versions(&m), [1, 1]);

    // Both existing versions were compiled for the constant signature
    // of 300.0; an argument outside that range is not admitted by the
    // tier-1 version, so dispatch must fall back to a fresh tier-0
    // compile — and still agree with the interpreter bit for bit.
    let compiled = scalar(&m.call("tier_fallback", &[77.0f64.into()], 1).unwrap());
    let mut interp = Session::with_mode(ExecMode::Interpret);
    interp.load_source(&loop_source("tier_fallback")).unwrap();
    let reference = scalar(&interp.call("tier_fallback", &[77.0f64.into()], 1).unwrap());
    assert_eq!(compiled.to_bits(), reference.to_bits());
    let [t0, _t1] = tier_versions(&m);
    assert!(t0 >= 2, "no tier-0 fallback version was compiled");
}

/// Speculation and promotion share one background pool: a hot call
/// after `speculate_background` promotes through the speculation pool,
/// whose statistics then count both jobs.
#[test]
fn promotion_rides_the_speculation_pool() {
    let mut m = Session::with_mode(ExecMode::Jit);
    m.service().set_audit(true);
    m.options.tier.threshold = 1;
    m.load_source(&loop_source("tier_shared")).unwrap();
    m.options.tier.workers = 2;
    m.speculate_background();
    // Speculation guesses an integer `n`; a fractional argument misses
    // the speculative version whenever it lands, so this call JITs
    // tier-0 code, runs hot and is promoted.
    let compiled = scalar(&m.call("tier_shared", &[200.5f64.into()], 1).unwrap());
    m.background().wait();

    let why = m.explain("tier_shared");
    assert!(
        why.records.iter().any(|r| r.trigger == "recompile_hot"
            && r.tier == Some(1)
            && r.outcome == "published (optimized)"),
        "no published tier-1 recompile_hot record:\n{}",
        why.report
    );
    let stats = m
        .background()
        .stats()
        .expect("speculation started the pool");
    assert_eq!(stats.enqueued, 2, "one speculative and one promotion job");
    assert_eq!(stats.published, 2);

    let mut interp = Session::with_mode(ExecMode::Interpret);
    interp.load_source(&loop_source("tier_shared")).unwrap();
    let reference = scalar(&interp.call("tier_shared", &[200.5f64.into()], 1).unwrap());
    assert_eq!(compiled.to_bits(), reference.to_bits());
    // The next call dispatches the promoted version — bitwise the same.
    let promoted = scalar(&m.call("tier_shared", &[200.5f64.into()], 1).unwrap());
    assert_eq!(promoted.to_bits(), reference.to_bits());
}
