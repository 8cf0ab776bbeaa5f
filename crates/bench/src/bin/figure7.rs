//! Figure 7: disabling individual JIT optimizations — range propagation
//! ("no ranges"), minimum-shape propagation ("no min. shapes"), register
//! allocation ("no regalloc") — and reporting performance relative to
//! the fully optimized JIT.

use majic::{ExecMode, InferOptions, RegAllocMode};
use majic_bench::{all, harness};

fn main() {
    let _trace = harness::trace_from_env();
    let cfg = harness::config_from_args();
    println!(
        "Figure 7: JIT performance with optimizations disabled (scale {:.2}), % of full JIT",
        cfg.scale
    );
    println!(
        "{:<10} {:>10} {:>14} {:>12}",
        "benchmark", "no ranges", "no min. shapes", "no regalloc"
    );
    for b in all() {
        let full = harness::measure(&b, ExecMode::Jit, &cfg)
            .runtime
            .as_secs_f64();
        let mut no_ranges = cfg;
        no_ranges.infer = InferOptions {
            range_propagation: false,
            ..InferOptions::default()
        };
        let mut no_shapes = cfg;
        no_shapes.infer = InferOptions {
            min_shape_propagation: false,
            ..InferOptions::default()
        };
        let mut no_regalloc = cfg;
        no_regalloc.regalloc = RegAllocMode::SpillEverything;
        let rel = |c: &harness::MeasureConfig| {
            let t = harness::measure(&b, ExecMode::Jit, c).runtime.as_secs_f64();
            100.0 * full / t.max(1e-12)
        };
        println!(
            "{:<10} {:>9.0}% {:>13.0}% {:>11.0}%",
            b.name,
            rel(&no_ranges),
            rel(&no_shapes),
            rel(&no_regalloc)
        );
    }
}
