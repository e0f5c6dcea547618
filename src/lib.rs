//! Umbrella crate for the CLaMPI reproduction workspace.
//!
//! Re-exports every member crate so that integration tests (`tests/`) and
//! examples (`examples/`) can reach the whole system through one dependency.
//! Library users should depend on the individual crates instead:
//!
//! - [`clampi`] — the caching layer (the paper's contribution)
//! - [`clampi_rma`] — the MPI-3 RMA simulator substrate
//! - [`clampi_datatype`] — the datatype library
//! - [`clampi_workloads`] — workload generators (microbench, R-MAT, bodies)
//! - [`clampi_apps`] — Barnes-Hut and Local Clustering Coefficient
//! - [`clampi_prng`] — the in-tree PRNG and property-test harness

#![forbid(unsafe_code)]

pub use clampi;
pub use clampi_apps;
pub use clampi_datatype;
pub use clampi_prng;
pub use clampi_rma;
pub use clampi_workloads;
