//! The repository benchmark.
//!
//! One seeded command runs one of four workloads against MaJIC as closed
//! loops in a single process, checks every output bitwise against the
//! interpreter, and reports end-to-end metrics; with `--trace 1` it
//! instead replays the same ops through each layer crate's public
//! functions and reports per-layer metrics. See `README.md` for the
//! workloads and the metric table.

pub mod adapter;
pub mod replay;
pub mod stats;
pub mod workloads;

pub use workloads::{
    run, Config, Kind, Metric, Op, OpStream, Report, Tally, Workload, END_TO_END, PER_LAYER,
};
