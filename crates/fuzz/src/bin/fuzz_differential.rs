//! Differential fuzzer CLI.
//!
//! Runs generated MATLAB programs through every execution mode
//! (interpreter, mcc, JIT, speculative, warm cache round-trip, FALCON)
//! and reports any divergence, shrunk to a minimal reproducer.
//!
//! ```text
//! fuzz_differential [--seed N] [--iters N] [--grammar MODE] [--artifacts DIR]
//! ```
//!
//! * `--seed N`      — first seed (default 0); iteration `i` uses seed `N+i`.
//! * `--iters N`     — number of programs to run (default 1000).
//! * `--grammar M`   — `default` or `aliasing` (the CoW-stress grammar:
//!   alias binds, mutation of either alias, self-referential updates,
//!   growth after aliasing, duplicated actuals).
//! * `--artifacts D` — write each shrunk reproducer to `D/repro-<seed>.m`
//!   (created on first failure; CI uploads this).
//!
//! Exit status: 0 when every case agrees, 1 on any divergence, 2 on
//! usage errors.

use majic_fuzz::{fuzz_with, Failure, Grammar};
use std::path::PathBuf;

struct Options {
    seed: u64,
    iters: u64,
    grammar: Grammar,
    artifacts: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        seed: 0,
        iters: 1000,
        grammar: Grammar::Default,
        artifacts: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                o.seed = v.parse().map_err(|e| format!("bad --seed {v:?}: {e}"))?;
            }
            "--iters" => {
                let v = it.next().ok_or("--iters needs a value")?;
                o.iters = v.parse().map_err(|e| format!("bad --iters {v:?}: {e}"))?;
            }
            "--grammar" => {
                let v = it.next().ok_or("--grammar needs a value")?;
                o.grammar = match v.as_str() {
                    "default" => Grammar::Default,
                    "aliasing" => Grammar::Aliasing,
                    other => return Err(format!("unknown grammar {other:?}")),
                };
            }
            "--artifacts" => {
                let v = it.next().ok_or("--artifacts needs a directory")?;
                o.artifacts = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "usage: fuzz_differential [--seed N] [--iters N] [--grammar default|aliasing] [--artifacts DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn save_artifact(dir: &PathBuf, f: &Failure) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("repro-{}.m", f.seed));
    if let Err(e) = std::fs::write(&path, f.reproducer()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        eprintln!("reproducer written to {}", path.display());
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let progress_every = (opts.iters / 20).max(1);
    let stats = fuzz_with(opts.seed, opts.iters, opts.grammar, |f| {
        eprintln!("--- divergence at seed {} ---", f.seed);
        for d in &f.report.divergences {
            eprintln!("  {d}");
        }
        eprintln!("minimal reproducer:\n{}", f.reproducer());
        if let Some(dir) = &opts.artifacts {
            save_artifact(dir, f);
        }
    });
    if opts.iters >= progress_every {
        eprintln!(
            "ran {} programs: {} all-ok, {} agreeing-error, {} divergent",
            stats.iters, stats.ok_cases, stats.err_cases, stats.failures
        );
    }

    if stats.failures == 0 {
        println!(
            "clean: {} programs, {} all-ok, {} agreeing-error",
            stats.iters, stats.ok_cases, stats.err_cases
        );
    } else {
        println!(
            "{} divergent case(s) out of {}",
            stats.failures, stats.iters
        );
    }

    std::process::exit(i32::from(stats.failures != 0));
}
