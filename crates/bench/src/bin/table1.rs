//! Table 1: the benchmark inventory — name, description, problem size,
//! line count, interpreter runtime on this host.

use majic::ExecMode;
use majic_bench::{all, harness, line_count};

fn main() {
    let _trace = harness::trace_from_env();
    let cfg = harness::config_from_args();
    println!("Table 1: MaJIC benchmarks (scale {:.2})", cfg.scale);
    println!(
        "{:<10} {:<48} {:>14} {:>6} {:>12}",
        "benchmark", "short description", "problem size", "lines", "runtime (s)"
    );
    for b in all() {
        let m = harness::measure(&b, ExecMode::Interpret, &cfg);
        println!(
            "{:<10} {:<48} {:>14} {:>6} {:>12.3}",
            b.name,
            b.description,
            b.size,
            line_count(&b),
            m.runtime.as_secs_f64()
        );
    }
}
