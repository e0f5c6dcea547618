//! A recorded get stream and the two-rank session that replays it.
//!
//! Every rank-based workload boils down to rank 0 issuing gets against
//! bytes exposed by rank 1. This module owns that shape: [`GetOp`] is one
//! get, [`session`] spawns the two simulated ranks, fills rank 1's window
//! and hands rank 0 an [`Initiator`] that replays streams through
//! `CachedWindow::get` or the plain `rma::Window` underneath it, checking
//! every returned byte against the fill pattern.

use std::time::Instant;

use clampi::{AccessType, CacheStats, CachedWindow, ClampiConfig};
use clampi_datatype::{Datatype, FlatLayout};
use clampi_rma::{run_collect, OpCounters, Process, RankReport, SimConfig};

/// Simulated ranks (= OS threads) of every rank-based workload. Fixed, not
/// derived from the host, so numbers compare across hosts.
pub const RANKS: usize = 2;
/// The rank that issues gets.
pub const INITIATOR: usize = 0;
/// The rank whose window is read.
pub const TARGET: usize = 1;

/// Payload bytes of a strided get: [`STRIDED_BLOCKS`] blocks of
/// [`STRIDED_BLOCK_LEN`] bytes, block starts [`STRIDED_STRIDE`] bytes apart.
pub const STRIDED_BLOCKS: usize = 4;
pub const STRIDED_BLOCK_LEN: usize = 64;
pub const STRIDED_STRIDE: usize = 128;

/// The one strided datatype the suite uses (256 B payload over a 448 B
/// span): a vector of 64-byte elements, every second one taken. (The same
/// layout typed as a vector of single bytes flattens element by element —
/// 7 µs per call on the reference host, against ~0.1 µs for this one.)
pub fn strided_type() -> Datatype {
    Datatype::vector(
        STRIDED_BLOCKS,
        1,
        STRIDED_STRIDE / STRIDED_BLOCK_LEN,
        Datatype::bytes(STRIDED_BLOCK_LEN),
    )
}

/// One get of rank 0 against rank 1's window: `len` payload bytes at
/// `disp`, contiguous or through [`strided_type`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetOp {
    pub disp: usize,
    pub len: usize,
    pub strided: bool,
}

impl GetOp {
    pub fn contiguous(disp: usize, len: usize) -> Self {
        GetOp {
            disp,
            len,
            strided: false,
        }
    }
}

/// What one pass over a stream observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    pub wall_s: f64,
    /// Virtual nanoseconds rank 0's clock advanced.
    pub virt_ns: f64,
    /// Gets whose bytes did not match the fill pattern.
    pub failed: u64,
}

impl Pass {
    /// Runs `pass` `n` times and adds the results up.
    pub fn repeated(n: usize, mut pass: impl FnMut() -> Pass) -> Pass {
        (0..n).fold(Pass::default(), |sum, _| {
            let next = pass();
            Pass {
                wall_s: sum.wall_s + next.wall_s,
                virt_ns: sum.virt_ns + next.virt_ns,
                failed: sum.failed + next.failed,
            }
        })
    }
}

/// Virtual-clock totals and wire counters of rank 0 at one instant; two
/// of them subtract to what a pass cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClockMark {
    pub cpu_ns: f64,
    pub wire_ns: f64,
    pub blocked_ns: f64,
    pub counters: OpCounters,
}

impl ClockMark {
    /// `p`'s totals now.
    pub fn of(p: &Process) -> Self {
        ClockMark {
            cpu_ns: p.clock().total_cpu(),
            wire_ns: p.clock().total_wire(),
            blocked_ns: p.clock().total_blocked(),
            counters: p.counters(),
        }
    }

    /// A rank's totals at the end of its run (the mark before it is
    /// [`ClockMark::default`]).
    pub fn from_report(r: &RankReport) -> Self {
        ClockMark {
            cpu_ns: r.cpu_ns,
            wire_ns: r.wire_ns,
            blocked_ns: r.blocked_ns,
            counters: r.counters,
        }
    }
}

/// One per-call sample of a traced pass.
#[derive(Debug, Clone, Copy)]
pub struct CallSample {
    /// Host nanoseconds since the pass's `origin` at which the call began
    /// and ended (timer cost not yet subtracted).
    pub start_ns: u64,
    pub end_ns: u64,
    /// Virtual nanoseconds the call charged.
    pub virt_ns: f64,
    /// The returned classification (`None`: bypassed the cache).
    pub class: Option<AccessType>,
    pub strided: bool,
}

/// Sample sinks of a traced [`Initiator::nb_pass`].
pub struct NbTrace {
    pub origin: Instant,
    pub gets: Vec<CallSample>,
    /// `(start, end)` of every `flush_all`, host ns since `origin`.
    pub flushes: Vec<(u64, u64)>,
}

/// Rank 0's handle inside a [`session`].
pub struct Initiator<'a> {
    pub p: &'a mut Process,
    pub win: CachedWindow,
    /// Rank 1's window contents: the oracle every get is checked against.
    expect: &'a [u8],
    dst: Vec<u8>,
    strided: Datatype,
    strided_layout: FlatLayout,
}

impl Initiator<'_> {
    fn verify(&self, op: &GetOp) -> bool {
        if op.strided {
            self.strided_layout
                .blocks()
                .iter()
                .zip(self.dst.chunks(STRIDED_BLOCK_LEN))
                .all(|(b, got)| got == &self.expect[op.disp + b.offset..op.disp + b.end()])
        } else {
            self.dst[..op.len] == self.expect[op.disp..op.disp + op.len]
        }
    }

    fn reserve(&mut self, ops: &[GetOp]) {
        let need = ops.iter().map(|o| o.len).max().unwrap_or(0);
        if self.dst.len() < need {
            self.dst.resize(need, 0);
        }
    }

    /// One cached get the way an application issues it: flush only when the
    /// access was not a hit (a hit's data is already local).
    fn cached_get(&mut self, op: &GetOp) -> Option<AccessType> {
        let class = if op.strided {
            self.win.get(
                self.p,
                &mut self.dst[..op.len],
                TARGET,
                op.disp,
                &self.strided,
                1,
            )
        } else {
            let dtype = Datatype::bytes(op.len);
            self.win
                .get(self.p, &mut self.dst[..op.len], TARGET, op.disp, &dtype, 1)
        };
        if class != Some(AccessType::Hit) {
            self.win.flush(self.p, TARGET);
        }
        class
    }

    /// One uncached get on the plain `rma::Window`: get + flush.
    fn plain_get(&mut self, op: &GetOp) {
        let dst = &mut self.dst[..op.len];
        let win = self.win.inner_mut();
        if op.strided {
            win.get(self.p, dst, TARGET, op.disp, &self.strided, 1);
        } else {
            win.get(self.p, dst, TARGET, op.disp, &Datatype::bytes(op.len), 1);
        }
        win.flush(self.p, TARGET);
    }

    fn pass(&mut self, ops: &[GetOp], mut get: impl FnMut(&mut Self, &GetOp)) -> Pass {
        self.reserve(ops);
        let virt0 = self.p.now();
        let t = Instant::now();
        let mut failed = 0u64;
        for op in ops {
            get(self, op);
            failed += u64::from(!self.verify(op));
        }
        Pass {
            wall_s: t.elapsed().as_secs_f64(),
            virt_ns: self.p.now() - virt0,
            failed,
        }
    }

    /// Replays `ops` through `CachedWindow::get`.
    pub fn cached_pass(&mut self, ops: &[GetOp]) -> Pass {
        self.pass(ops, |s, op| {
            s.cached_get(op);
        })
    }

    /// Replays `ops` through the plain window (`get` + `flush` each).
    pub fn uncached_pass(&mut self, ops: &[GetOp]) -> Pass {
        self.pass(ops, Self::plain_get)
    }

    /// [`Initiator::cached_pass`] with a host-time and virtual-time sample
    /// around every call (flush included, as the application pays it).
    pub fn traced_pass(
        &mut self,
        ops: &[GetOp],
        origin: Instant,
        samples: &mut Vec<CallSample>,
    ) -> Pass {
        self.pass(ops, |s, op| {
            let virt0 = s.p.now();
            let start_ns = origin.elapsed().as_nanos() as u64;
            let class = s.cached_get(op);
            let end_ns = origin.elapsed().as_nanos() as u64;
            samples.push(CallSample {
                start_ns,
                end_ns,
                virt_ns: s.p.now() - virt0,
                class,
                strided: op.strided,
            });
        })
    }

    /// Replays `ops` through `CachedWindow::get_nb`, completing each batch
    /// of `batch` gets with one `flush_all` when any of them missed — the
    /// shape of a level-synchronous traversal. With `trace`, samples every
    /// `get_nb` call and every flush.
    pub fn nb_pass(
        &mut self,
        ops: &[GetOp],
        batch: usize,
        mut trace: Option<&mut NbTrace>,
    ) -> Pass {
        self.reserve(ops);
        // Every get of a batch needs its own landing buffer until the flush.
        let slot = self.dst.len();
        let mut bufs = vec![0u8; slot * batch];
        let virt0 = self.p.now();
        let t_pass = Instant::now();
        let mut failed = 0u64;
        for chunk in ops.chunks(batch) {
            let mut pending = false;
            for (op, buf) in chunk.iter().zip(bufs.chunks_mut(slot)) {
                let dtype = Datatype::bytes(op.len);
                let v0 = self.p.now();
                let start_ns = trace.as_ref().map(|t| t.origin.elapsed().as_nanos() as u64);
                let class = self
                    .win
                    .get_nb(self.p, &mut buf[..op.len], TARGET, op.disp, &dtype, 1);
                if let (Some(t), Some(start_ns)) = (trace.as_deref_mut(), start_ns) {
                    t.gets.push(CallSample {
                        start_ns,
                        end_ns: t.origin.elapsed().as_nanos() as u64,
                        virt_ns: self.p.now() - v0,
                        class,
                        strided: false,
                    });
                }
                pending |= class != Some(AccessType::Hit);
            }
            if pending {
                let start_ns = trace.as_ref().map(|t| t.origin.elapsed().as_nanos() as u64);
                self.win.flush_all(self.p);
                if let (Some(t), Some(start_ns)) = (trace.as_deref_mut(), start_ns) {
                    t.flushes
                        .push((start_ns, t.origin.elapsed().as_nanos() as u64));
                }
            }
            for (op, buf) in chunk.iter().zip(bufs.chunks(slot)) {
                failed += u64::from(buf[..op.len] != self.expect[op.disp..op.disp + op.len]);
            }
        }
        Pass {
            wall_s: t_pass.elapsed().as_secs_f64(),
            virt_ns: self.p.now() - virt0,
            failed,
        }
    }

    pub fn stats(&self) -> CacheStats {
        self.win.stats()
    }

    pub fn mark(&self) -> ClockMark {
        ClockMark::of(self.p)
    }

    /// The bytes rank 1 exposes.
    pub fn expect(&self) -> &[u8] {
        self.expect
    }
}

/// Spawns the two ranks, creates one `CachedWindow` under `cfg` whose rank-1
/// side holds `target_bytes`, opens the access epoch and runs `body` on rank
/// 0. Rank 1 only exposes memory: it waits at the closing barrier.
pub fn session<T: Send>(
    target_bytes: &[u8],
    cfg: &ClampiConfig,
    body: impl Fn(&mut Initiator) -> T + Sync,
) -> (T, RankReport) {
    let out = run_collect(SimConfig::bench(), RANKS, |p| {
        let size = if p.rank() == TARGET {
            target_bytes.len()
        } else {
            8
        };
        let mut win = CachedWindow::create(p, size, cfg.clone());
        if p.rank() == TARGET {
            win.local_mut().copy_from_slice(target_bytes);
        }
        p.barrier();
        let result = (p.rank() == INITIATOR).then(|| {
            win.lock_all(p);
            let strided = strided_type();
            let mut init = Initiator {
                p: &mut *p,
                win,
                expect: target_bytes,
                dst: Vec::new(),
                strided_layout: strided.flatten(),
                strided,
            };
            let r = body(&mut init);
            let Initiator { mut win, .. } = init;
            win.unlock_all(p);
            r
        });
        p.barrier();
        result
    });
    let mut out = out.into_iter();
    let (report, result) = out.next().expect("rank 0 reports");
    (result.expect("rank 0 ran the body"), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clampi::{CacheParams, Mode};

    fn window() -> Vec<u8> {
        let mut w = vec![0u8; 64 << 10];
        crate::host::fill_pattern(&mut w, 5);
        w
    }

    fn ops() -> Vec<GetOp> {
        (0..64)
            .map(|i| GetOp {
                disp: (i % 16) * 1024,
                len: 256,
                strided: i % 4 == 3,
            })
            .collect()
    }

    #[test]
    fn cached_and_uncached_passes_return_the_window_bytes() {
        let cfg = ClampiConfig::fixed(Mode::AlwaysCache, CacheParams::default());
        let w = window();
        let ((cached, uncached, stats), report) = session(&w, &cfg, |i| {
            let ops = ops();
            let c = i.cached_pass(&ops);
            let u = i.uncached_pass(&ops);
            (c, u, i.stats())
        });
        assert_eq!((cached.failed, uncached.failed), (0, 0));
        assert_eq!(stats.total_gets, 64);
        assert_eq!(stats.hits, 48, "16 distinct gets miss once each");
        assert!(cached.virt_ns < uncached.virt_ns);
        assert!(report.elapsed_ns >= cached.virt_ns + uncached.virt_ns);
    }

    #[test]
    fn a_wrong_oracle_is_detected() {
        let cfg = ClampiConfig::disabled();
        let w = window();
        let (pass, _) = session(&w, &cfg, |i| {
            // Read 256 B but claim they came from 8 bytes further on.
            i.reserve(&ops());
            let op = GetOp::contiguous(0, 256);
            i.plain_get(&op);
            let shifted = GetOp::contiguous(8, 256);
            (i.verify(&op), i.verify(&shifted))
        });
        assert_eq!(pass, (true, false));
    }

    #[test]
    fn traced_passes_sample_every_call() {
        let cfg = ClampiConfig::fixed(Mode::AlwaysCache, CacheParams::default());
        let w = window();
        let ((n_block, n_nb, n_flush, failed), _) = session(&w, &cfg, |i| {
            let contiguous: Vec<GetOp> = ops().into_iter().filter(|o| !o.strided).collect();
            let mut samples = Vec::new();
            let origin = Instant::now();
            let a = i.traced_pass(&ops(), origin, &mut samples);
            let mut trace = NbTrace {
                origin,
                gets: Vec::new(),
                flushes: Vec::new(),
            };
            i.win.invalidate(i.p);
            let b = i.nb_pass(&contiguous, 8, Some(&mut trace));
            let c = i.nb_pass(&contiguous, 8, None);
            (
                samples.len(),
                trace.gets.len(),
                trace.flushes.len(),
                a.failed + b.failed + c.failed,
            )
        });
        assert_eq!((n_block, n_nb, failed), (64, 48, 0));
        assert!((1..=6).contains(&n_flush), "{n_flush} flushes");
    }
}
