//! Golden tiered suite: every benchmark must produce **bitwise
//! identical** results whether it runs on tier-0 JIT code forever or is
//! promoted to tier-1 by the hotness profile. This is the paper's
//! safety invariant (§2.2.1: a wrong guess "never affects program
//! correctness") applied to the recompilation tier: promotion may only
//! change how fast an answer arrives, never the answer. Tier 1 is
//! checked on both platforms: SPARC's passes are DCE alone, MIPS's are
//! LICM then DCE.

use majic::{EngineOptions, ExecMode, Platform, Session};
use majic_bench::{all, by_name, digest};
use majic_trace::audit::CodegenSummary;

const SCALE: f64 = 0.02;

#[test]
fn all_benchmarks_bitwise_identical_across_tiers() {
    // Deep recursion (ackermann) needs a roomy stack in debug builds.
    std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(|| {
            for b in all() {
                let args = (b.args)(SCALE);

                // Arm A: perpetual tier-0 (promotion off), called twice.
                // Some benchmarks carry state across calls (mei and fern
                // advance the global `rand` stream), so each arm B call
                // is compared against the arm A call at the same point
                // in the sequence — never across call counts. The
                // platform only changes tier-1 passes, so one arm A
                // serves both.
                let mut t0 = Session::with_mode(ExecMode::Jit);
                t0.options.tier.enabled = false;
                t0.load_source(b.source).unwrap();
                let first = digest(
                    &t0.call(b.entry, &args, 1)
                        .unwrap_or_else(|e| panic!("{}: {e}", b.name))[0],
                );
                let second = digest(&t0.call(b.entry, &args, 1).unwrap()[0]);

                // Arm B, per platform: promote everything the profile
                // touches, then call again so tier-1 code actually
                // dispatches.
                for platform in [Platform::Sparc, Platform::Mips] {
                    let mut tiered = Session::with_options(
                        EngineOptions::builder()
                            .mode(ExecMode::Jit)
                            .platform(platform)
                            .build(),
                    );
                    tiered.options.tier.threshold = 1;
                    tiered.load_source(b.source).unwrap();
                    let cold = digest(&tiered.call(b.entry, &args, 1).unwrap()[0]);
                    assert_eq!(
                        first, cold,
                        "{} ({platform:?}): tier-0 run diverged",
                        b.name
                    );
                    tiered.background().wait();
                    let t1_versions = tiered.repository().stats().tier1_versions;
                    assert!(
                        t1_versions > 0,
                        "{} ({platform:?}): nothing promoted at threshold 1",
                        b.name
                    );
                    let hot = digest(&tiered.call(b.entry, &args, 1).unwrap()[0]);
                    assert_eq!(
                        second, hot,
                        "{} ({platform:?}): tier-1 result differs from tier-0",
                        b.name
                    );
                    assert!(
                        tiered.repository().stats().tier1_hits > 0,
                        "{} ({platform:?}): promoted version never dispatched",
                        b.name
                    );
                }
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

/// ROADMAP item 6 on the recursive programs, read from the audit log's
/// codegen summaries rather than the clock: on MIPS, where tier 1 runs
/// LICM, every tier-1 version of `ackermann` and `fibonacci` has no `F`
/// spill and no more instructions than the tier-0 version compiled for
/// the same signature. The inliner's single-trip loops are straight-line
/// code, so LICM has nothing to hoist across the unrolled recursion.
#[test]
fn recursive_tier1_versions_spill_nothing_and_grow_nothing() {
    std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(|| {
            for name in ["ackermann", "fibonacci"] {
                let b = by_name(name).unwrap();
                let mut m = Session::with_options(
                    EngineOptions::builder()
                        .mode(ExecMode::Jit)
                        .platform(Platform::Mips)
                        .build(),
                );
                m.service().set_audit(true);
                m.options.tier.threshold = 1;
                m.load_source(b.source).unwrap();
                m.call(b.entry, &(b.args)(SCALE), 1).unwrap();
                m.background().wait();
                let why = m.explain(b.entry);
                let summaries = |tier: u8| -> Vec<(String, CodegenSummary)> {
                    why.records
                        .iter()
                        .filter(|r| r.tier == Some(tier))
                        .map(|r| (r.signature.clone(), r.codegen.expect("codegen ran")))
                        .collect()
                };
                let (t0, t1) = (summaries(0), summaries(1));
                assert!(!t1.is_empty(), "{name}: nothing promoted\n{}", why.report);
                for (sig, hot) in &t1 {
                    let (_, cold) = t0
                        .iter()
                        .find(|(s, _)| s == sig)
                        .unwrap_or_else(|| panic!("{name}{sig}: no tier-0 version"));
                    assert_eq!(hot.f_spills, 0, "{name}{sig}: tier 1 spills");
                    assert!(
                        hot.instructions <= cold.instructions,
                        "{name}{sig}: tier 1 has {} instructions, tier 0 {}",
                        hot.instructions,
                        cold.instructions
                    );
                }
            }
        })
        .unwrap()
        .join()
        .unwrap();
}
