//! A minimal interactive MaJIC prompt: type MATLAB statements, define
//! functions with `function …` blocks pasted as one line using `;`, and
//! watch the repository fill up.
//!
//! Run with `cargo run --release --example repl`, then try:
//!
//! ```text
//! >> x = 2 + 3 * 4
//! >> v = 1:10; s = sum(v)
//! >> .mode jit
//! >> \explain poly
//! >> .quit
//! ```

use majic::{ExecMode, Session};
use std::io::{BufRead, Write};

fn main() {
    // The repl always runs with the compilation audit log on: it is the
    // interactive consumer `\explain` and `\stats` read from, and the
    // flight recorder is bounded + cheap enough to leave recording.
    let mut session = Session::with_mode(ExecMode::Jit);
    session.service().set_audit(true);
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    println!("MaJIC interactive session — .help for commands");
    print!(">> ");
    out.flush().ok();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        match trimmed {
            ".quit" | ".exit" => break,
            ".help" => {
                println!(".mode interp|mcc|jit|spec|falcon   switch execution mode");
                println!(".repo                               repository statistics");
                println!("\\explain <fn>                       why does <fn> run the way it does?");
                println!("\\stats                              session-wide compilation audit");
                println!(".quit                               leave");
            }
            "\\stats" => {
                print!("{}", session.explain_stats());
                let stats = session.repository().stats();
                println!(
                    "tiers: {} tier-0 versions ({} hits), {} tier-1 versions ({} hits)",
                    stats.tier0_versions, stats.tier0_hits, stats.tier1_versions, stats.tier1_hits
                );
            }
            ".repo" => {
                let stats = session.repository().stats();
                println!(
                    "function locator: {} hits, {} misses ({:.0}% hit rate), {} inserts, {} invalidations",
                    stats.hits,
                    stats.misses,
                    100.0 * stats.hit_rate(),
                    stats.inserts,
                    stats.invalidations
                );
                println!(
                    "tiers: {} tier-0 versions ({} hits), {} tier-1 versions ({} hits)",
                    stats.tier0_versions, stats.tier0_hits, stats.tier1_versions, stats.tier1_hits
                );
            }
            _ if trimmed.starts_with("\\explain") => match trimmed.split_whitespace().nth(1) {
                Some(name) => print!("{}", session.explain(name).report),
                None => println!("usage: \\explain <function>"),
            },
            _ if trimmed.starts_with(".mode") => {
                let mode = match trimmed.split_whitespace().nth(1) {
                    Some("interp") => Some(ExecMode::Interpret),
                    Some("mcc") => Some(ExecMode::Mcc),
                    Some("jit") => Some(ExecMode::Jit),
                    Some("spec") => Some(ExecMode::Spec),
                    Some("falcon") => Some(ExecMode::Falcon),
                    _ => None,
                };
                match mode {
                    Some(mode) => {
                        session.options.mode = mode;
                        if mode == ExecMode::Spec {
                            session.speculate_all();
                        }
                        println!("mode set to {mode:?}");
                    }
                    None => println!("unknown mode"),
                }
            }
            "" => {}
            src if src.starts_with("function") => {
                if let Err(e) = session.load_source(&src.replace(';', "\n")) {
                    println!("error: {e}");
                }
            }
            src => {
                if let Err(e) = session.eval(src) {
                    println!("error: {e}");
                }
                let printed = session.take_printed();
                if !printed.is_empty() {
                    print!("{printed}");
                }
            }
        }
        print!(">> ");
        out.flush().ok();
    }
}
