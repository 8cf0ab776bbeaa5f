//! Measurement methodology (paper §3.2): speedups `s = ti / tc` where
//! `ti` is the interpreter's runtime and `tc` the compiled runtime. "In
//! JIT mode runtime includes the time spent by the JIT compiler
//! producing object code. In speculative mode the repository is assumed
//! to have generated the code ahead of time; hence compile time is not
//! included" (nor for the batch compilers mcc / FALCON). "Execution
//! times were measured on a best-of-10-runs basis"; we default to best
//! of 3.

use crate::programs::Benchmark;
use majic::{ExecMode, Platform, RegAllocMode, Session, Value};
use std::time::Duration;

/// Harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct MeasureConfig {
    /// Problem-size scale in (0, 1]; 1.0 = the paper's sizes.
    pub scale: f64,
    /// Best-of-N runs (paper: 10).
    pub runs: usize,
    /// Simulated platform for the optimizing backend.
    pub platform: Platform,
    /// Extra engine tweaks (Figure 7 ablations).
    pub infer: majic::InferOptions,
    /// Register allocation mode.
    pub regalloc: RegAllocMode,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            scale: 0.25,
            runs: 3,
            platform: Platform::Sparc,
            infer: majic::InferOptions::default(),
            regalloc: RegAllocMode::LinearScan,
        }
    }
}

impl MeasureConfig {
    /// These measurement knobs as [`majic::EngineOptions`] for `mode`,
    /// via the named-switch builder.
    pub fn engine_options(&self, mode: ExecMode) -> majic::EngineOptions {
        majic::EngineOptions::builder()
            .mode(mode)
            .platform(self.platform)
            .infer(self.infer)
            .regalloc(self.regalloc)
            .build()
    }
}

/// One measurement result.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Wall-clock runtime charged to the mode (per §3.2 accounting).
    pub runtime: Duration,
    /// Phase breakdown of the *first* (compiling) run.
    pub phases: majic::PhaseTimes,
}

/// Run one benchmark in one mode, returning the §3.2-accounted runtime:
/// the interpreter is the baseline `ti`; `mcc` and FALCON exclude their
/// batch compile time; the JIT includes its compile time (the "jit+gen"
/// bars); speculation compiles ahead of time, so only residual JIT
/// fallbacks count.
pub fn measure(bench: &Benchmark, mode: ExecMode, cfg: &MeasureConfig) -> Measurement {
    let args: Vec<Value> = (bench.args)(cfg.scale);
    let mut best: Option<Duration> = None;
    let mut first_phases = None;
    for run in 0..cfg.runs.max(1) {
        // A fresh session per run: the JIT bars must include compile
        // time on *every* measured run ("we started our experiments with
        // an empty repository"), while batch modes exclude it.
        let mut m = Session::with_options(cfg.engine_options(mode));
        m.load_source(bench.source).expect("benchmark parses");
        if mode == ExecMode::Spec {
            m.speculate_all(); // hidden, ahead-of-time
        }
        if matches!(mode, ExecMode::Mcc | ExecMode::Falcon) {
            // Batch compilers build the code before the program runs;
            // warm the repository, then measure execution only.
            let _ = m.call(bench.entry, &args, 1);
        }
        m.reset_times();
        m.call(bench.entry, &args, 1)
            .unwrap_or_else(|e| panic!("{} [{mode:?}]: {e}", bench.name));
        let t = match mode {
            // JIT: compile + execute. Spec: execute + any fallback JIT.
            ExecMode::Jit | ExecMode::Spec => m.times.total(),
            // Interpreter and batch modes: execution only.
            _ => m.times.execution,
        };
        if best.is_none_or(|b| t < b) {
            best = Some(t);
        }
        if run == 0 {
            first_phases = Some(m.times);
        }
    }
    Measurement {
        runtime: best.expect("at least one run"),
        phases: first_phases.expect("at least one run"),
    }
}

/// Exact bit-level digest of a value: a class tag, the dimensions, then
/// every element with no rounding. Two values digest equal only if they
/// have the same class, the same shape and the same bits.
pub fn digest(v: &Value) -> Vec<u64> {
    let (rows, cols) = v.dims();
    let (tag, elems): (u64, Vec<u64>) = match v {
        Value::Real(m) => (0, m.iter().map(|x| x.to_bits()).collect()),
        Value::Bool(m) => (1, m.iter().map(|&b| u64::from(b)).collect()),
        Value::Complex(m) => (
            2,
            m.iter()
                .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                .collect(),
        ),
        Value::Str(s) => (3, s.bytes().map(u64::from).collect()),
    };
    [tag, rows as u64, cols as u64]
        .into_iter()
        .chain(elems)
        .collect()
}

/// Format a speedup the way the paper's log-scale plots read.
pub fn fmt_speedup(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:7.0}")
    } else if s >= 10.0 {
        format!("{s:7.1}")
    } else {
        format!("{s:7.2}")
    }
}

/// RAII guard honoring the `MAJIC_TRACE` environment variable for the
/// duration of a bench binary: tracing is configured on creation
/// ([`majic_trace::init_from_env`]) and the selected exporter runs on
/// drop ([`majic_trace::finish`]). Bind it first thing in `main`:
///
/// ```no_run
/// let _trace = majic_bench::harness::trace_from_env();
/// ```
#[must_use = "the guard exports the trace when dropped"]
pub struct TraceSession(());

/// Start a [`TraceSession`] from the `MAJIC_TRACE` environment variable.
pub fn trace_from_env() -> TraceSession {
    majic_trace::init_from_env();
    TraceSession(())
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        majic_trace::finish();
    }
}

/// Parse `--scale X` / `--platform sparc|mips` / `--runs N` from argv.
pub fn config_from_args() -> MeasureConfig {
    let mut cfg = MeasureConfig::default();
    let args: Vec<String> = std::env::args().collect();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    cfg.scale = v;
                }
            }
            "--runs" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    cfg.runs = v;
                }
            }
            "--platform" => match it.next().map(String::as_str) {
                Some("mips") => cfg.platform = Platform::Mips,
                Some("sparc") => cfg.platform = Platform::Sparc,
                _ => {}
            },
            _ => {}
        }
    }
    cfg
}
