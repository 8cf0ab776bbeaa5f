//! Table 2: JIT vs. speculative *type inference* — the same optimizing
//! code generator driven by either annotation source, speedups computed
//! without compile time.

use majic::ExecMode;
use majic_bench::{all, harness};

fn main() {
    let _trace = harness::trace_from_env();
    let cfg = harness::config_from_args();
    println!(
        "Table 2: JIT vs. speculative type inference (same backend, no compile time, scale {:.2})",
        cfg.scale
    );
    println!("{:<10} {:>9} {:>9}", "benchmark", "spec.", "JIT");
    for b in all() {
        let ti = harness::measure(&b, ExecMode::Interpret, &cfg)
            .runtime
            .as_secs_f64();
        // Speculative annotations + optimizing backend, compile hidden.
        let spec = harness::measure(&b, ExecMode::Spec, &cfg)
            .runtime
            .as_secs_f64();
        // JIT annotations + the same optimizing backend = the FALCON
        // configuration (exact signature, compile excluded).
        let jit_ann = harness::measure(&b, ExecMode::Falcon, &cfg)
            .runtime
            .as_secs_f64();
        println!(
            "{:<10} {} {}",
            b.name,
            harness::fmt_speedup(ti / spec.max(1e-9)),
            harness::fmt_speedup(ti / jit_ann.max(1e-9)),
        );
    }
}
