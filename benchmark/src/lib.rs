//! The repo's benchmark: six workloads over the public APIs of the CLaMPI
//! reproduction, measured end to end (host time and virtual time, never
//! mixed) and layer by layer. See `README.md` for definitions.

pub mod counters;
pub mod host;
pub mod json;
pub mod ladder;
pub mod names;
pub mod report;
pub mod spans;
pub mod stats;
pub mod stream;
pub mod suite;
pub mod workloads;
