//! Benchmark suite and measurement harness reproducing the paper's
//! evaluation (Tables 1–2, Figures 4–7).
//!
//! Run the reproduction binaries with, e.g.:
//!
//! ```text
//! cargo run --release -p majic-bench --bin table1 -- --scale 0.25
//! cargo run --release -p majic-bench --bin figure4
//! cargo run --release -p majic-bench --bin figure4 -- --platform mips
//! cargo run --release -p majic-bench --bin figure6
//! cargo run --release -p majic-bench --bin figure7
//! cargo run --release -p majic-bench --bin table2
//! cargo run --release -p majic-bench --bin handopt
//! ```
//!
//! `--scale` shrinks problem sizes (default 0.25; 1.0 = the paper's
//! sizes). Speedups are ratios, so the reported *shape* is stable under
//! scaling.
//!
//! The post-paper figures (`figure_warmstart`, `figure_tiered`,
//! `figure_copyelision`, `figure_parallel`, `figure_responsiveness`)
//! assert the gates of the features they cover. The numbers of record
//! come from the repository benchmark, `perfbench/`, which reuses this
//! crate's [`all`] / [`by_name`] program table.

pub mod harness;
pub mod programs;

pub use harness::{digest, measure, MeasureConfig, Measurement};
pub use programs::{all, by_name, line_count, Benchmark, Category};
