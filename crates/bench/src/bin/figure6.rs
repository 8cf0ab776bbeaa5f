//! Figure 6: the composition of JIT execution — how much of each
//! JIT-compiled benchmark's runtime goes to disambiguation, type
//! inference, code generation and actual execution.

use majic::ExecMode;
use majic_bench::{all, harness};

fn main() {
    let _trace = harness::trace_from_env();
    let mut cfg = harness::config_from_args();
    cfg.runs = 1; // the breakdown comes from the compiling run
    println!(
        "Figure 6: composition of JIT execution (scale {:.2}), % of total runtime",
        cfg.scale
    );
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>11}",
        "benchmark", "disamb", "typeinf", "codegen", "exec", "total (ms)"
    );
    for b in all() {
        let m = harness::measure(&b, ExecMode::Jit, &cfg);
        let p = m.phases;
        let total = p.total().as_secs_f64().max(1e-12);
        let pct = |d: std::time::Duration| 100.0 * d.as_secs_f64() / total;
        println!(
            "{:<10} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>11.2}",
            b.name,
            pct(p.disambiguation),
            pct(p.inference),
            pct(p.codegen),
            pct(p.execution),
            total * 1e3
        );
    }
}
