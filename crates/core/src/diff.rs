//! Cross-mode differential oracle.
//!
//! The paper's central safety claim is that every execution mode —
//! interpretation, `mcc`-style generic compilation, JIT compilation,
//! speculative ahead-of-time compilation, and warm starts replayed
//! from the persistent manifest — computes *the same program*: "wrong
//! guesses are never executed, merely wasted". This module turns that
//! claim into a checkable oracle. [`run_case`] executes one program through every
//! mode in a fresh session each and demands:
//!
//! * **bitwise-identical results** — every output value equal down to
//!   the `f64` bit pattern (so `NaN` payloads and signed zeros count),
//!   or
//! * **identical failure** — the same [`crate::RuntimeError`] variant from
//!   every mode, and
//! * **identical printed output** — `disp`/`fprintf` transcripts agree,
//!   and
//! * **type soundness** — every value actually produced by compiled
//!   code is admitted by the compiled version's inferred output type
//!   (`Q ⊑ T`, the repository's safety invariant applied to outputs).
//!
//! Any violation is reported as a [`Divergence`]; the differential
//! fuzzer (`crates/fuzz`) feeds thousands of generated programs through
//! this oracle and shrinks whatever fails.

use crate::engine::signature_of;
#[cfg(test)]
use crate::RuntimeError;
use crate::{EngineOptions, ExecMode, Platform, RuntimeResult, Session, Value};
use majic_repo::NO_SESSION;
use majic_runtime::{Complex, Matrix};
use majic_types::Type;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One program to run through every mode: MATLAB source defining the
/// functions, plus the entry invocation.
#[derive(Clone, Debug)]
pub struct DiffCase {
    /// MATLAB source text (function definitions).
    pub source: String,
    /// Function to invoke.
    pub entry: String,
    /// Actual arguments.
    pub args: Vec<Value>,
    /// Requested output count.
    pub nargout: usize,
}

/// The observable behaviour of one mode on one case.
#[derive(Clone, Debug)]
pub struct ModeOutcome {
    /// Mode label (`"interp"`, `"mcc"`, `"jit"`, `"spec"`, `"warm"`,
    /// `"falcon"`).
    pub label: &'static str,
    /// Output values, or the error.
    pub result: RuntimeResult<Vec<Value>>,
    /// Captured `disp`/`fprintf` transcript.
    pub printed: String,
}

/// What kind of disagreement was observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Both modes produced values, but they differ bitwise.
    Value,
    /// Both modes failed, but with different error classes.
    ErrorClass,
    /// One mode produced values where the other failed.
    ValueVsError,
    /// Printed transcripts differ.
    Printed,
    /// A compiled mode produced a value outside its inferred output
    /// type (type-soundness oracle).
    Soundness,
}

/// A single cross-mode disagreement (or soundness violation).
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Classification.
    pub kind: DivergenceKind,
    /// Reference mode (always the interpreter for cross-mode kinds;
    /// the offending mode for [`DivergenceKind::Soundness`]).
    pub left: &'static str,
    /// Disagreeing mode.
    pub right: &'static str,
    /// Human-readable explanation.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:?}] {} vs {}: {}",
            self.kind, self.left, self.right, self.detail
        )
    }
}

/// Everything observed while running one case through the mode matrix.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Per-mode behaviour, interpreter first.
    pub outcomes: Vec<ModeOutcome>,
    /// All disagreements found (empty = the case passes).
    pub divergences: Vec<Divergence>,
}

impl DiffReport {
    /// No divergences and no soundness violations?
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Labels of the modes [`run_case`] exercises, in order. `"warm"` is
/// the persistent-cache round trip: a JIT session saves its repository's
/// manifest to disk and a second session replays it and calls through
/// the replayed tier-1 code. `"spec"` runs on the default SPARC platform
/// and `"falcon"` on MIPS, so both optimizing pipelines are exercised:
/// DCE alone, and LICM then DCE.
pub const DIFF_MODE_LABELS: [&str; 6] = ["interp", "mcc", "jit", "spec", "warm", "falcon"];

/// Run `case` through every execution mode and compare behaviours.
///
/// The interpreter is the reference semantics; each compiled mode is
/// compared against it. Every mode gets a fresh session (so `rand`
/// seeding and workspace state are identical), and compiled modes are
/// additionally checked against the type-soundness oracle.
pub fn run_case(case: &DiffCase) -> DiffReport {
    let mut outcomes = Vec::with_capacity(DIFF_MODE_LABELS.len());
    let mut divergences = Vec::new();

    let options = |mode, platform| {
        EngineOptions::builder()
            .mode(mode)
            .platform(platform)
            .build()
    };
    let baseline = run_mode(
        case,
        options(ExecMode::Interpret, Platform::Sparc),
        "interp",
    );
    for (mode, label) in [
        (ExecMode::Mcc, "mcc"),
        (ExecMode::Jit, "jit"),
        (ExecMode::Spec, "spec"),
    ] {
        let run = run_mode(case, options(mode, Platform::Sparc), label);
        compare(&baseline.0, &run.0, &mut divergences);
        check_soundness(case, &run, &mut divergences);
        outcomes.push(run.0);
    }
    {
        let run = run_warm(case);
        compare(&baseline.0, &run.0, &mut divergences);
        check_soundness(case, &run, &mut divergences);
        outcomes.push(run.0);
    }
    {
        let run = run_mode(case, options(ExecMode::Falcon, Platform::Mips), "falcon");
        compare(&baseline.0, &run.0, &mut divergences);
        check_soundness(case, &run, &mut divergences);
        outcomes.push(run.0);
    }
    outcomes.insert(0, baseline.0);
    DiffReport {
        outcomes,
        divergences,
    }
}

/// One mode's outcome plus (for compiled modes) the inferred output
/// types of the version the repository would dispatch to.
struct ModeRun(ModeOutcome, Option<Vec<Type>>);

fn run_mode(case: &DiffCase, options: EngineOptions, label: &'static str) -> ModeRun {
    let mode = options.mode;
    let mut session = Session::with_options(options);
    if let Err(e) = session.load_source(&case.source) {
        let printed = session.take_printed();
        return ModeRun(
            ModeOutcome {
                label,
                result: Err(e),
                printed,
            },
            None,
        );
    }
    if mode == ExecMode::Spec {
        session.speculate_all();
    }
    let result = session.call(&case.entry, &case.args, case.nargout);
    let printed = session.take_printed();
    let output_types = if mode == ExecMode::Interpret {
        None
    } else {
        session
            .repository()
            .lookup_ns(
                &case.entry,
                session.namespace(&case.entry),
                NO_SESSION,
                &signature_of(&case.args),
            )
            .map(|v| v.output_types.clone())
    };
    ModeRun(
        ModeOutcome {
            label,
            result,
            printed,
        },
        output_types,
    )
}

/// The warm-start round trip: session A JITs the entry and saves its
/// repository's manifest to a private cache file; session B attaches
/// the cache, reloads the source (replaying the recorded signatures as
/// background tier-1 compiles), waits for the pool, and calls. The
/// compared behaviour is session B's, so every case runs the replayed
/// tier-1 code wherever the manifest recorded the call's signature.
fn run_warm(case: &DiffCase) -> ModeRun {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "majic-diff-{}-{}.cache",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));

    let outcome = (|| {
        let mut a = Session::with_mode(ExecMode::Jit);
        a.attach_cache(&path);
        if let Err(e) = a.load_source(&case.source) {
            let printed = a.take_printed();
            return ModeRun(
                ModeOutcome {
                    label: "warm",
                    result: Err(e),
                    printed,
                },
                None,
            );
        }
        // Populate the repository (result intentionally discarded; the
        // warm session below is the measured one) and flush to disk.
        let _ = a.call(&case.entry, &case.args, case.nargout);
        let _ = a.take_printed();
        let _ = a.save_cache();
        drop(a);

        let mut b = Session::with_mode(ExecMode::Jit);
        b.attach_cache(&path);
        if let Err(e) = b.load_source(&case.source) {
            let printed = b.take_printed();
            return ModeRun(
                ModeOutcome {
                    label: "warm",
                    result: Err(e),
                    printed,
                },
                None,
            );
        }
        b.background().wait();
        let result = b.call(&case.entry, &case.args, case.nargout);
        let printed = b.take_printed();
        let output_types = b
            .repository()
            .lookup_ns(
                &case.entry,
                b.namespace(&case.entry),
                NO_SESSION,
                &signature_of(&case.args),
            )
            .map(|v| v.output_types.clone());
        ModeRun(
            ModeOutcome {
                label: "warm",
                result,
                printed,
            },
            output_types,
        )
    })();
    let _ = std::fs::remove_file(&path);
    outcome
}

/// Compare a compiled mode's behaviour against the interpreter's.
fn compare(base: &ModeOutcome, other: &ModeOutcome, out: &mut Vec<Divergence>) {
    match (&base.result, &other.result) {
        (Ok(a), Ok(b)) => {
            if a.len() != b.len() {
                out.push(Divergence {
                    kind: DivergenceKind::Value,
                    left: base.label,
                    right: other.label,
                    detail: format!("{} outputs vs {} outputs", a.len(), b.len()),
                });
            } else {
                for (i, (x, y)) in a.iter().zip(b).enumerate() {
                    if !value_bits_eq(x, y) {
                        out.push(Divergence {
                            kind: DivergenceKind::Value,
                            left: base.label,
                            right: other.label,
                            detail: format!("output {i}: {x:?} vs {y:?}"),
                        });
                    }
                }
            }
            if base.printed != other.printed {
                out.push(Divergence {
                    kind: DivergenceKind::Printed,
                    left: base.label,
                    right: other.label,
                    detail: format!("printed {:?} vs {:?}", base.printed, other.printed),
                });
            }
        }
        (Err(a), Err(b)) => {
            // Same error *class*: messages may legitimately differ
            // (e.g. the subscript that first overflowed inside a loop
            // unrolled differently), the variant may not.
            if std::mem::discriminant(a) != std::mem::discriminant(b) {
                out.push(Divergence {
                    kind: DivergenceKind::ErrorClass,
                    left: base.label,
                    right: other.label,
                    detail: format!("{a:?} vs {b:?}"),
                });
            }
        }
        (Ok(a), Err(e)) => out.push(Divergence {
            kind: DivergenceKind::ValueVsError,
            left: base.label,
            right: other.label,
            detail: format!("values {a:?} vs error {e:?}"),
        }),
        (Err(e), Ok(b)) => out.push(Divergence {
            kind: DivergenceKind::ValueVsError,
            left: base.label,
            right: other.label,
            detail: format!("error {e:?} vs values {b:?}"),
        }),
    }
}

/// The type-soundness oracle: every value a compiled version actually
/// produced must be admitted by that version's inferred output type.
/// This is the output-side image of the repository's `Q ⊑ T` argument
/// check — if it ever fails, inference produced an unsound annotation
/// and the optimizer may have specialized on a lie.
fn check_soundness(case: &DiffCase, run: &ModeRun, out: &mut Vec<Divergence>) {
    let (Ok(values), Some(output_types)) = (&run.0.result, &run.1) else {
        return;
    };
    for (i, v) in values.iter().enumerate() {
        let Some(expected) = output_types.get(i) else {
            continue;
        };
        let actual = v.type_of();
        if !actual.is_subtype_of(expected) {
            out.push(Divergence {
                kind: DivergenceKind::Soundness,
                left: run.0.label,
                right: run.0.label,
                detail: format!(
                    "{}: output {i} has runtime type {actual} not subsumed by inferred {expected}",
                    case.entry
                ),
            });
        }
    }
}

/// Bitwise value equality: shapes, kinds, and every element equal down
/// to the bit pattern (`NaN == NaN` here, `0.0 != -0.0`).
pub fn value_bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Real(x), Value::Real(y)) => mat_eq(x, y, |p, q| p.to_bits() == q.to_bits()),
        (Value::Complex(x), Value::Complex(y)) => mat_eq(x, y, |p: &Complex, q: &Complex| {
            p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits()
        }),
        (Value::Bool(x), Value::Bool(y)) => mat_eq(x, y, |p, q| p == q),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

fn mat_eq<T>(a: &Matrix<T>, b: &Matrix<T>, eq: impl Fn(&T, &T) -> bool) -> bool
where
    T: Clone + Default + PartialEq,
{
    a.rows() == b.rows() && a.cols() == b.cols() && a.iter().zip(b.iter()).all(|(x, y)| eq(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(source: &str, entry: &str, args: Vec<Value>) -> DiffCase {
        DiffCase {
            source: source.to_owned(),
            entry: entry.to_owned(),
            args,
            nargout: 1,
        }
    }

    #[test]
    fn simple_function_agrees_everywhere() {
        let c = case(
            "function y = f(x)\ny = x * 2 + 1;\n",
            "f",
            vec![Value::scalar(20.0)],
        );
        let r = run_case(&c);
        assert!(r.is_clean(), "{:?}", r.divergences);
        assert_eq!(r.outcomes.len(), DIFF_MODE_LABELS.len());
        for o in &r.outcomes {
            assert_eq!(o.result.as_ref().unwrap()[0], Value::scalar(41.0));
        }
    }

    #[test]
    fn nan_colon_agrees_everywhere() {
        // The regression the fuzzer first flushed out: a NaN loop bound
        // ran once under interpretation ([NaN]) and zero times under
        // compilation (counted loop with a NaN trip count).
        let c = case(
            "function s = f(b)\ns = 0;\nfor k = 1:b\ns = s + k;\nend\n",
            "f",
            vec![Value::scalar(f64::NAN)],
        );
        let r = run_case(&c);
        assert!(r.is_clean(), "{:?}", r.divergences);
        assert_eq!(
            r.outcomes[0].result.as_ref().unwrap()[0],
            Value::scalar(0.0)
        );
    }

    #[test]
    fn errors_agree_as_a_class() {
        // Out-of-range subscript fails identically in every mode.
        let c = case(
            "function y = f(x)\na = [1 2 3];\ny = a(x);\n",
            "f",
            vec![Value::scalar(9.0)],
        );
        let r = run_case(&c);
        assert!(r.is_clean(), "{:?}", r.divergences);
        assert!(r.outcomes.iter().all(|o| o.result.is_err()));
    }

    #[test]
    fn alloc_limit_agrees_as_a_class() {
        let c = case(
            "function y = f(n)\ny = 0:1e-300:n;\n",
            "f",
            vec![Value::scalar(1.0)],
        );
        let r = run_case(&c);
        assert!(r.is_clean(), "{:?}", r.divergences);
        assert!(matches!(
            r.outcomes[0].result,
            Err(RuntimeError::AllocLimit { .. })
        ));
    }

    #[test]
    fn logical_outputs_keep_their_class_across_modes() {
        // Scalar comparisons, element loads from a logical array and
        // stores of logical scalars all flow through F registers in
        // compiled code; the logical class must survive the round trip
        // or the output is a double where the interpreter says logical.
        let c = case(
            "function r = f(p)\nv = ([1.0 2.0 3.0] ~= p);\nv(2.0) = (p > 1.0);\nr = v(3.0);\n",
            "f",
            vec![Value::scalar(2.0)],
        );
        let r = run_case(&c);
        assert!(r.is_clean(), "{:?}", r.divergences);
        assert_eq!(
            r.outcomes[0].result.as_ref().unwrap()[0],
            Value::bool_scalar(true)
        );
    }

    #[test]
    fn real_power_in_complex_typed_code_is_bit_exact() {
        // Speculated ranges can't prove the base non-negative, so spec
        // mode types the power complex; the complex pow must still give
        // exactly what the interpreter's real dispatch computes.
        let c = case(
            "function r = f(p)\nr = (p .^ (2.0 ~= p));\n",
            "f",
            vec![Value::scalar(3.0)],
        );
        let r = run_case(&c);
        assert!(r.is_clean(), "{:?}", r.divergences);
    }

    #[test]
    fn bitwise_compare_distinguishes_signed_zero() {
        assert!(!value_bits_eq(&Value::scalar(0.0), &Value::scalar(-0.0)));
        assert!(value_bits_eq(
            &Value::scalar(f64::NAN),
            &Value::scalar(f64::NAN)
        ));
    }
}
