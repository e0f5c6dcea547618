//! Applications over the RMA simulator: the paper's two evaluation
//! workloads.
//!
//! - [`barnes_hut`]: the Barnes-Hut N-body force computation over a
//!   distributed octree (Sec. IV-B), using CLaMPI's *user-defined* mode
//!   (read-only force phase, explicit invalidation at its end);
//! - [`lcc`]: the Local Clustering Coefficient over a 1D-partitioned
//!   R-MAT graph (Sec. IV-C), using the *always-cache* mode (the graph is
//!   immutable);
//! - [`mod@pagerank`]: pull-based PageRank (an extension beyond the paper's
//!   evaluation), using the *user-defined* mode — scores are read-only
//!   within an iteration and explicitly invalidated between iterations;
//! - [`mod@dht`]: a distributed hash table with open-addressed buckets in
//!   RMA windows, all reads through the transparent cache plus a
//!   DrTM-style location cache (an extension beyond the paper's
//!   evaluation — the ROADMAP's "hot keyspace" workload);
//! - [`backend`]: the foMPI / CLaMPI / native-block-cache configuration
//!   switch shared by both.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod barnes_hut;
pub mod dht;
pub mod lcc;
pub mod pagerank;

pub use backend::{AnyWindow, Backend};
pub use barnes_hut::{force_phase, BhConfig, BhResult};
pub use dht::{Dht, DhtConfig, DhtLookup, DhtStats, BUCKET_BYTES};
pub use lcc::{lcc_phase, LccConfig, LccResult};
pub use pagerank::{pagerank, sequential_pagerank, PrConfig, PrResult};
