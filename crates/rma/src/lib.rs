//! A thread-based MPI-3 RMA simulator with a LogGP-style network cost model.
//!
//! The CLaMPI paper evaluates on Piz Daint (Cray XC, Aries/Dragonfly) with
//! the foMPI MPI-3 RMA implementation. This crate substitutes that testbed
//! with a deterministic simulator:
//!
//! - **Ranks are OS threads** inside one process ([`run`]); window memory is
//!   shared byte buffers protected by `std::sync` reader/writer locks
//!   (poison-tolerant: a panicking rank does not cascade into the others).
//! - **MPI-3 passive-target semantics**: windows ([`Window`]) support
//!   `lock_all`/`unlock_all`, `flush`/`flush_all`, and `get`/`put` with
//!   arbitrary [`clampi_datatype::Datatype`] layouts.
//!   Epochs are counted per the paper's `w.eph` (concluded synchronization
//!   events since window creation).
//! - **Write notification**: each region keeps a write-version counter and
//!   a bounded put-notification ring ([`Window::try_drain_notifications`]).
//!   Every write is stamped on one window-global commit clock, a
//!   `Mutex<u64>` locked only inside the written or drained target's ring
//!   lock: drained timestamps follow version order, and a drain's clock
//!   sample ([`NotifyDrain::now_ts`]) caps every write it did not see.
//! - **Virtual time**: every rank owns a [`clock::Clock`]. CPU work
//!   (issue overheads, memcpys, cache management) advances the clock
//!   immediately; network transfers post *completions* that are only waited
//!   on at flush/unlock_all. This reproduces the comm/comp overlap behaviour the
//!   paper studies in Fig. 8.
//! - **Cost model**: [`netmodel::NetModel`] charges `o + L(distance) +
//!   size · G(distance)` per transfer, with Dragonfly-like distance classes
//!   (same node / chassis / group / remote group) derived from a
//!   [`topology::Topology`] placement, calibrated against the paper's Fig. 1
//!   (≈0.1 µs local … 2–3 µs remote).
//!
//! The simulator moves real bytes (a `get` is an actual memcpy out of the
//! target's region), so applications built on it — Barnes-Hut, LCC — compute
//! real answers while their *timing* comes from the model.
//!
//! # Example
//!
//! ```
//! use clampi_rma::{run, SimConfig};
//! use clampi_datatype::Datatype;
//!
//! let reports = run(SimConfig::default(), 2, |p| {
//!     // Each rank exposes 1 KiB; rank 0 reads rank 1's first 8 bytes.
//!     let mut win = p.win_allocate(1024);
//!     if p.rank() == 1 {
//!         win.local_mut()[..8].copy_from_slice(&42u64.to_le_bytes());
//!     }
//!     p.barrier();
//!     if p.rank() == 0 {
//!         win.lock_all(p);
//!         let mut buf = [0u8; 8];
//!         win.get(p, &mut buf, 1, 0, &Datatype::bytes(8), 1);
//!         win.flush(p, 1);
//!         assert_eq!(u64::from_le_bytes(buf), 42);
//!         win.unlock_all(p);
//!     }
//!     p.barrier();
//! });
//! assert_eq!(reports.len(), 2);
//! assert!(reports[0].elapsed_ns > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod clock;
mod collectives;
pub mod fault;
pub mod netmodel;
pub mod process;
mod sync;
pub mod topology;
pub mod window;

pub use check::{AccessKind, CheckerConfig, PoisonSnapshot, SanDiag, SanHandle, SanKind};
pub use clock::Clock;
pub use fault::{FaultConfig, FaultDecision, FaultPlan, RankFailure, RmaError};
pub use netmodel::{NetModel, TransferCost};
pub use process::{run, run_collect, OpCounters, Process, RankReport, SimConfig};
pub use topology::{Distance, Topology};
pub use window::{GetStamp, NotifyDrain, NotifyHorizon, PutRecord, StagedGet, Window};

/// Write guard over a rank's own window region (see [`Window::local_mut`]),
/// dereferencing straight to the byte slice.
#[derive(Debug)]
pub struct MappedWriteGuard<'a>(pub(crate) std::sync::RwLockWriteGuard<'a, Box<[u8]>>);

impl std::ops::Deref for MappedWriteGuard<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl std::ops::DerefMut for MappedWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

/// Read guard over a rank's own window region (see [`Window::local_ref`]),
/// dereferencing straight to the byte slice.
#[derive(Debug)]
pub struct MappedReadGuard<'a>(pub(crate) std::sync::RwLockReadGuard<'a, Box<[u8]>>);

impl std::ops::Deref for MappedReadGuard<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}
