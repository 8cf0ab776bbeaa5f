//! Concurrent-session semantics of the shared [`CompilerService`]:
//! cross-session code sharing, session-local redefinition, bitwise
//! parity with solo sessions under interleaved call/redefine stress,
//! per-namespace callee inference, and per-service audit enablement.

use majic::diff::value_bits_eq;
use majic::{CompilerService, Session, Value};
use majic_repo::NO_SESSION;
use majic_types::{Intrinsic, Signature};
use std::collections::HashMap;

const SESSIONS: usize = 4;
const ROUNDS: usize = 3;
const CALLS_PER_ROUND: usize = 3;

/// A per-(session, round) redefinition of the same function name: the
/// accumulation loop makes compilation worthwhile and any stale
/// dispatch (an old `c`) produce a visibly different value.
fn variant_src(c: u64) -> String {
    format!(
        "function y = msf(x)\n\
         s = 0;\n\
         for k = 1:40\n\
         s = s + x * {c} + k;\n\
         end\n\
         y = s;\n"
    )
}

/// The function every session loads with identical source — the
/// cross-session sharing case.
const COMMON_SRC: &str = "function y = mscommon(x)\n\
                          s = 1;\n\
                          for k = 1:25\n\
                          s = s + x / k;\n\
                          end\n\
                          y = s;\n";

fn coeff(session: usize, round: usize) -> u64 {
    (session as u64 + 1) * 100 + round as u64
}

fn args_for(call: usize) -> Vec<Value> {
    vec![Value::scalar(1.5 + call as f64 * 0.25)]
}

fn bits_of(out: &[Value]) -> u64 {
    out[0].to_scalar().expect("scalar result").to_bits()
}

/// Interleaved call/redefine from four concurrent sessions: every call
/// must be bitwise-identical to the same (variant, argument) evaluated
/// by a solo single-session engine — which rules out both stale
/// executions (an old variant's code answering after a redefinition)
/// and cross-session leakage (another session's same-named variant
/// answering here). The identical `mscommon` source must be shared:
/// compiled once, dispatched by everyone.
#[test]
fn concurrent_sessions_match_solo_bitwise() {
    // Solo ground truth, one fresh engine per (session, round).
    let mut expected: HashMap<(usize, usize, usize), u64> = HashMap::new();
    let mut expected_common: HashMap<usize, u64> = HashMap::new();
    for session in 0..SESSIONS {
        for round in 0..ROUNDS {
            let mut solo = Session::new();
            solo.load_source(&variant_src(coeff(session, round)))
                .unwrap();
            for call in 0..CALLS_PER_ROUND {
                let out = solo.call("msf", &args_for(call), 1).unwrap();
                expected.insert((session, round, call), bits_of(&out));
            }
        }
    }
    {
        let mut solo = Session::new();
        solo.load_source(COMMON_SRC).unwrap();
        for call in 0..CALLS_PER_ROUND {
            let out = solo.call("mscommon", &args_for(call), 1).unwrap();
            expected_common.insert(call, bits_of(&out));
        }
    }

    let service = CompilerService::new();
    let expected = &expected;
    let expected_common = &expected_common;
    std::thread::scope(|scope| {
        for session in 0..SESSIONS {
            let service = &service;
            scope.spawn(move || {
                let mut s = service.session();
                s.load_source(COMMON_SRC).unwrap();
                for round in 0..ROUNDS {
                    // Redefine `msf` (round 0 is the initial definition)
                    // while the other sessions keep calling their own.
                    s.load_source(&variant_src(coeff(session, round))).unwrap();
                    for call in 0..CALLS_PER_ROUND {
                        let out = s.call("msf", &args_for(call), 1).unwrap();
                        assert_eq!(
                            bits_of(&out),
                            expected[&(session, round, call)],
                            "session {session} round {round} call {call}: \
                             result differs from the solo engine"
                        );
                        let out = s.call("mscommon", &args_for(call), 1).unwrap();
                        assert_eq!(
                            bits_of(&out),
                            expected_common[&call],
                            "session {session}: shared function diverged from solo"
                        );
                    }
                }
            });
        }
    });

    let stats = service.repository().stats();
    assert!(
        stats.shared_hits > 0,
        "identical-source sessions never shared a compiled version \
         (stats: {stats:?})"
    );
}

/// A session's redefinition must not disturb a neighbor mid-stream,
/// and dropping a session must leave its namespaces warm for the next
/// session on the same source.
#[test]
fn redefinition_and_reuse_across_session_lifetimes() {
    let service = CompilerService::new();
    let src = variant_src(7);
    let expected = {
        let mut solo = Session::new();
        solo.load_source(&src).unwrap();
        bits_of(&solo.call("msf", &args_for(0), 1).unwrap())
    };
    {
        let mut a = service.session();
        a.load_source(&src).unwrap();
        assert_eq!(bits_of(&a.call("msf", &args_for(0), 1).unwrap()), expected);
        let mut b = service.session();
        b.load_source(&variant_src(9)).unwrap(); // different definition
        b.call("msf", &args_for(0), 1).unwrap();
        // A is unaffected by B's same-named function.
        assert_eq!(bits_of(&a.call("msf", &args_for(0), 1).unwrap()), expected);
    } // both sessions drop; compiled versions stay
    let misses_before = service.repository().stats().misses;
    let mut c = service.session();
    c.load_source(&src).unwrap();
    assert_eq!(bits_of(&c.call("msf", &args_for(0), 1).unwrap()), expected);
    assert_eq!(
        service.repository().stats().misses,
        misses_before,
        "the successor session should dispatch the kept version, not recompile"
    );
}

/// Two sessions load the same caller `msinf_g` over different callees
/// `msinf_h` (real in one, complex in the other). Callee output types
/// reach inference through the repository oracle, scoped to the calling
/// session's namespace, so each compiled `msinf_g` must carry the output
/// type of its *own* `msinf_h` and compute what a solo session does.
#[test]
fn callee_inference_stays_in_the_session_namespace() {
    const CALLER: &str = "function y = msinf_g(x)\ny = msinf_h(x) + 1;\n";
    const H_REAL: &str = "function y = msinf_h(x)\ny = x * 2;\n";
    const H_COMPLEX: &str = "function y = msinf_h(x)\ny = x + 2i;\n";
    let args = [Value::scalar(1.5)];
    let sig: Signature = args.iter().map(Value::type_of).collect();
    let cases = [(H_REAL, Intrinsic::Real), (H_COMPLEX, Intrinsic::Complex)];
    let solo: Vec<Value> = cases
        .iter()
        .map(|(callee, _)| {
            let mut m = Session::new();
            m.options.inline = false;
            m.load_source(callee).unwrap();
            m.load_source(CALLER).unwrap();
            m.call("msinf_g", &args, 1).unwrap().remove(0)
        })
        .collect();
    // A leaking lookup would pick between the two sessions' equally
    // close `msinf_h` versions by hash-map order; fresh services re-roll
    // that order.
    for _ in 0..6 {
        let service = CompilerService::new();
        let mut sessions: Vec<_> = cases
            .iter()
            .map(|(callee, _)| {
                let mut s = service.session();
                s.options.inline = false;
                s.load_source(callee).unwrap();
                s.load_source(CALLER).unwrap();
                s
            })
            .collect();
        // Compile both callees before either caller, so each caller's
        // inference asks the oracle while both versions exist.
        for s in &mut sessions {
            s.call("msinf_h", &args, 1).unwrap();
        }
        for ((s, (_, intrinsic)), solo) in sessions.iter_mut().zip(cases).zip(&solo) {
            let out = s.call("msinf_g", &args, 1).unwrap();
            assert!(
                value_bits_eq(&out[0], solo),
                "{intrinsic:?} callee: {:?} != solo {solo:?}",
                out[0]
            );
            let g = service
                .repository()
                .lookup_ns("msinf_g", s.namespace("msinf_g"), NO_SESSION, &sig)
                .expect("compiled msinf_g in this session's namespace");
            assert_eq!(
                g.output_types[0].intrinsic, intrinsic,
                "msinf_g inferred from another session's msinf_h"
            );
        }
        assert_ne!(
            sessions[0].namespace("msinf_g"),
            sessions[1].namespace("msinf_g")
        );
    }
}

/// Audit enablement is per service: compilations of a service with
/// auditing off must leave no records even while another service's
/// auditing keeps the process-wide recorder on.
#[test]
fn audit_enablement_is_per_service() {
    let loud = CompilerService::new();
    let quiet = CompilerService::new();
    loud.set_audit(true);
    assert!(loud.audit_enabled());
    assert!(!quiet.audit_enabled());

    let mut sl = loud.session();
    let mut sq = quiet.session();
    sl.load_source("function y = msaud_loud(x)\ny = x + 1;\n")
        .unwrap();
    sq.load_source("function y = msaud_quiet(x)\ny = x + 2;\n")
        .unwrap();
    sl.call("msaud_loud", &[Value::scalar(1.0)], 1).unwrap();
    sq.call("msaud_quiet", &[Value::scalar(1.0)], 1).unwrap();

    let loud_records = majic_trace::audit::records_for("msaud_loud");
    assert!(!loud_records.is_empty(), "audited service left no records");
    assert_eq!(
        loud_records[0].session,
        Some(sl.id()),
        "records must say which session compiled"
    );
    assert!(
        majic_trace::audit::records_for("msaud_quiet").is_empty(),
        "a service with auditing off polluted the process recorder"
    );

    // Turning the last interested service off releases the recorder.
    loud.set_audit(false);
    assert!(!loud.audit_enabled());
}
