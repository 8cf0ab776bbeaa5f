//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a few `#` lines describing the run, one line per metric, and
//! as its last line one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Exits non-zero without a result when the run is refused or a replay
//! self-check fails.

use majic_perfbench::{run, Config, Workload};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: perfbench --workload <cold_start|steady_loops|steady_calls|shared_sessions> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

/// The checkout's git revision, if it is a git checkout.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| r.to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        flag("--workload").as_deref().and_then(Workload::parse),
        flag("--seed").and_then(|s| s.parse::<u64>().ok()),
        flag("--seconds").and_then(|s| s.parse::<f64>().ok()),
        flag("--trace").and_then(|s| match s.as_str() {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return usage();
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("MAJIC_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "# perfbench workload={} seed={seed} seconds={seconds} trace={} nproc={cores} git={} env=[{}]",
        workload.name(),
        u8::from(trace),
        git_revision(),
        env.join(" ")
    );

    let report = match run(&Config::new(workload, seed, seconds, trace)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &report.tally.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let t = &report.tally;
    println!(
        "# ops attempted={} failed={} failed_ratio={}",
        t.attempted,
        t.failed,
        t.failed as f64 / t.attempted.max(1) as f64
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("# {:<26} {:>16.3} {}", m.name, m.value, m.unit);
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                if m.value.is_finite() { m.value } else { 0.0 },
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0 && t.attempted > 0 && finite,
        t.attempted,
        t.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
