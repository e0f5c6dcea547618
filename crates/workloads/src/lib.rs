//! Workload generators for the CLaMPI reproduction.
//!
//! - [`micro`]: the paper's micro-benchmark get sequence (Sec. IV-A):
//!   `N` distinct gets with power-of-two sizes, sampled `Z` times under a
//!   normal distribution so a subset of gets is more frequent than others;
//! - [`rmat`]: the R-MAT recursive random graph generator (Chakrabarti et
//!   al.) producing the scale-free inputs of the LCC experiments;
//! - [`bodies`]: Plummer-model initial conditions for the Barnes-Hut
//!   N-body simulation;
//! - [`zipf`]: Zipf-distributed key streams for hot-key cache studies;
//! - [`keys`]: DHT key traffic — Zipf lookups over a mixed key space plus
//!   skewed churn schedules, shared-seed replayable on every rank.
//!
//! Everything is deterministic under an explicit seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bodies;
pub mod keys;
pub mod micro;
pub mod rmat;
pub mod zipf;

pub use bodies::{plummer, Body};
pub use keys::{mix_key, KeyStream};
pub use micro::{GetSpec, MicroWorkload};
pub use rmat::{Csr, RmatParams};
pub use zipf::Zipf;
