//! Figure 4 (SPARC) / Figure 5 (`--platform mips`): speedups of
//! mcc / FALCON / MaJIC-JIT(+codegen time) / MaJIC-speculative over the
//! interpreter, per benchmark, log-scale in the paper.

use majic::ExecMode;
use majic_bench::{all, harness};

fn main() {
    let _trace = harness::trace_from_env();
    let cfg = harness::config_from_args();
    println!(
        "Figure 4/5: speedup over the interpreter ({:?}, scale {:.2}, best of {})",
        cfg.platform, cfg.scale, cfg.runs
    );
    println!(
        "{:<10} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "benchmark", "ti (ms)", "mmc", "falcon", "jit+gen", "spec"
    );
    for b in all() {
        let ti = harness::measure(&b, ExecMode::Interpret, &cfg).runtime;
        let mut row = format!("{:<10} {:>9.1}", b.name, ti.as_secs_f64() * 1e3);
        for mode in [
            ExecMode::Mcc,
            ExecMode::Falcon,
            ExecMode::Jit,
            ExecMode::Spec,
        ] {
            let tc = harness::measure(&b, mode, &cfg).runtime;
            let s = ti.as_secs_f64() / tc.as_secs_f64().max(1e-9);
            row.push(' ');
            row.push_str(&harness::fmt_speedup(s));
        }
        println!("{row}");
    }
}
