//! Differential fuzzing harness.
//!
//! Glue between the engine-agnostic program generator
//! ([`majic_testkit::fuzzgen`]) and the cross-mode oracle
//! ([`majic::diff`]): generate a program from a seed, run it through
//! every execution mode, and — when any mode disagrees with the
//! interpreter or produces a value outside its inferred type — shrink
//! the program to a minimal reproducer.
//!
//! The `fuzz_differential` binary drives [`fuzz`] from the command
//! line; the checked-in regression corpus under `tests/fuzz_regressions/`
//! is replayed by `cargo test` through [`replay_file`].

use majic::diff::{run_case, DiffCase, DiffReport, DivergenceKind};
use majic_runtime::{Matrix, Value};
use majic_testkit::fuzzgen::{self, ArgVal, Program};
use std::path::Path;

pub use majic_testkit::fuzzgen::Grammar;

/// Convert a generator argument into an engine value.
pub fn value_of(a: &ArgVal) -> Value {
    match a {
        ArgVal::Scalar(v) => Value::scalar(*v),
        ArgVal::Matrix { rows, cols, data } => {
            Value::Real(Matrix::from_vec(*rows, *cols, data.clone()))
        }
    }
}

/// Build the oracle case for a generated program.
pub fn case_of(p: &Program) -> DiffCase {
    DiffCase {
        source: p.source(),
        entry: p.entry().to_owned(),
        args: p.args.iter().map(value_of).collect(),
        nargout: 1,
    }
}

/// One divergent case, shrunk to a minimal reproducer.
#[derive(Debug)]
pub struct Failure {
    /// Seed that generated the original program.
    pub seed: u64,
    /// The minimized program.
    pub shrunk: Program,
    /// The oracle report for the minimized program.
    pub report: DiffReport,
}

impl Failure {
    /// The self-contained corpus text of the reproducer (headers plus
    /// source; drop it into `tests/fuzz_regressions/` once fixed).
    pub fn reproducer(&self) -> String {
        self.shrunk.render_corpus()
    }
}

/// Maximum oracle evaluations the shrinker may spend per failure.
/// Each evaluation runs six engine sessions, so this bounds shrink
/// time at roughly a second.
const SHRINK_EVALS: usize = 400;

/// Run one seed through generate → oracle → (on failure) shrink, with
/// the chosen grammar (the aliasing mode stresses copy-on-write
/// snapshot isolation).
pub fn run_seed_with(seed: u64, grammar: Grammar) -> (DiffReport, Option<Failure>) {
    let program = fuzzgen::generate_with(seed, grammar);
    let report = run_case(&case_of(&program));
    if report.is_clean() {
        return (report, None);
    }
    // Shrink while *some* divergence of the original kinds survives —
    // this keeps the minimizer from wandering onto an unrelated bug
    // halfway through and attributing it to this seed.
    let kinds: Vec<DivergenceKind> = report.divergences.iter().map(|d| d.kind).collect();
    let shrunk = fuzzgen::shrink(
        &program,
        |q| {
            let r = run_case(&case_of(q));
            r.divergences.iter().any(|d| kinds.contains(&d.kind))
        },
        SHRINK_EVALS,
    );
    let shrunk_report = run_case(&case_of(&shrunk));
    let failure = Failure {
        seed,
        shrunk,
        report: shrunk_report,
    };
    (report, Some(failure))
}

/// Aggregate statistics of one fuzzing run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FuzzStats {
    /// Programs executed.
    pub iters: u64,
    /// Cases where every mode returned values (all agreeing).
    pub ok_cases: u64,
    /// Cases where every mode failed with the same error class.
    pub err_cases: u64,
    /// Divergent cases (fuzzer failures).
    pub failures: u64,
}

/// Run `iters` seeds starting at `seed` with the default grammar,
/// calling `on_failure` for each divergent (already shrunk) case.
/// Returns the aggregate statistics.
pub fn fuzz(seed: u64, iters: u64, on_failure: impl FnMut(&Failure)) -> FuzzStats {
    fuzz_with(seed, iters, Grammar::Default, on_failure)
}

/// [`fuzz`] with an explicit grammar.
pub fn fuzz_with(
    seed: u64,
    iters: u64,
    grammar: Grammar,
    mut on_failure: impl FnMut(&Failure),
) -> FuzzStats {
    let mut stats = FuzzStats::default();
    for i in 0..iters {
        let (report, failure) = run_seed_with(seed.wrapping_add(i), grammar);
        stats.iters += 1;
        match failure {
            Some(f) => {
                stats.failures += 1;
                on_failure(&f);
            }
            None => {
                if report.outcomes.iter().all(|o| o.result.is_ok()) {
                    stats.ok_cases += 1;
                } else {
                    stats.err_cases += 1;
                }
            }
        }
    }
    stats
}

/// Replay one corpus file (see `tests/fuzz_regressions/`): parse its
/// `% entry:` / `% arg:` headers, run the full file as source, and
/// return the oracle report.
///
/// # Errors
///
/// Returns a message when the file cannot be read or its headers are
/// malformed.
pub fn replay_file(path: &Path) -> Result<DiffReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let header = fuzzgen::parse_corpus(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let case = DiffCase {
        source: text,
        entry: header.entry,
        args: header.args.iter().map(value_of).collect(),
        nargout: 1,
    };
    Ok(run_case(&case))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_seeds_stay_clean() {
        // A smoke sample of the generator space: every case must agree
        // across all six engine configurations.
        for seed in 0..25 {
            let (report, failure) = run_seed_with(seed, Grammar::Default);
            assert!(
                failure.is_none(),
                "seed {seed} diverged:\n{}\nreproducer:\n{}",
                report
                    .divergences
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\n"),
                failure.map(|f| f.reproducer()).unwrap_or_default(),
            );
        }
    }

    #[test]
    fn clean_aliasing_seeds_stay_clean() {
        // The aliasing-heavy grammar hammers copy-on-write snapshot
        // isolation; every case must still agree across all six modes.
        for seed in 0..25 {
            let (report, failure) = run_seed_with(seed, Grammar::Aliasing);
            assert!(
                failure.is_none(),
                "aliasing seed {seed} diverged:\n{}\nreproducer:\n{}",
                report
                    .divergences
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\n"),
                failure.map(|f| f.reproducer()).unwrap_or_default(),
            );
        }
    }

    #[test]
    fn corpus_text_replays() {
        let p = fuzzgen::generate(3);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("majic-fuzz-selftest-{}.m", std::process::id()));
        std::fs::write(&path, p.render_corpus()).unwrap();
        let report = replay_file(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        // Replaying the rendered corpus must behave exactly like the
        // in-memory case.
        let direct = run_case(&case_of(&p));
        assert_eq!(report.is_clean(), direct.is_clean());
    }
}
