//! Benchmark harness for the CLaMPI reproduction.
//!
//! One binary per figure of the paper's evaluation (`fig01` … `fig18`,
//! matching the numbering in DESIGN.md), plus wall-clock micro-benchmarks
//! of the core data structures under `benches/`, driven by the in-tree
//! [`timer`] runner (the workspace is hermetic — no Criterion).
//!
//! Every figure binary prints a self-describing TSV: `#`-prefixed comment
//! lines carry the experiment metadata (paper parameters, seed, scale),
//! followed by a header row and the data series. Common flags:
//!
//! - `--seed <u64>`: RNG seed (default 42);
//! - `--paper`: run at the paper's full scale (default: scaled down to
//!   laptop size — the *shape* of every series is preserved, see
//!   EXPERIMENTS.md);
//! - figure-specific overrides, see each binary's `--help`.

#![forbid(unsafe_code)]

pub mod access;
pub mod cli;
pub mod gate;
pub mod micro;
pub mod pairs;
pub mod summary;
pub mod timer;

pub use cli::Args;
pub use micro::{run_micro, MicroRunConfig, MicroRunResult};
pub use summary::{mean, median};
pub use timer::smoke_mode;
