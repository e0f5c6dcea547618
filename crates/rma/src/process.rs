//! The per-rank process handle and the SPMD launcher.
//!
//! [`run`] spawns one OS thread per simulated MPI rank and hands each a
//! [`Process`]: the rank's identity, virtual [`Clock`], cost model, and
//! access to collectives and window creation. Ranks execute the same
//! closure (SPMD), diverging on `p.rank()` exactly like an MPI program.

use std::any::Any;
use std::sync::Arc;

use crate::check::{self, CheckerConfig, SanCtx};
use crate::clock::Clock;
use crate::collectives::{Deposit, Rendezvous};
use crate::fault::{FaultConfig, FaultDecision, FaultPlan};
use crate::netmodel::NetModel;
use crate::sync::Liveness;
use crate::window::{WinShared, Window};

/// Simulation-wide configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The network/memory cost model (includes the rank placement).
    pub netmodel: NetModel,
    /// `Some` injects faults per the deterministic [`FaultConfig`]
    /// schedule; `None` (the default) is the fault-free simulator,
    /// bit-identical to pre-fault-injection behaviour.
    pub faults: Option<FaultConfig>,
    /// Capacity of each window region's put-notification ring (see
    /// [`crate::Window::try_drain_notifications`]). A reader that falls
    /// more than this many records behind observes an overflow and must
    /// fall back to full invalidation. `0` disables record retention
    /// entirely (every drain overflows); version counters still work.
    pub notify_ring_cap: usize,
    /// `Some` enables RMASAN, the runtime MPI-3 RMA semantics sanitizer
    /// (see [`crate::check`]). `None` (the default) defers to the
    /// `CLAMPI_SAN` environment variable: when set, [`run`] installs a
    /// collecting checker and asserts zero diagnostics at the end of the
    /// run. The checker is observation-only — it never charges virtual
    /// time, so clean runs are bit-identical with it on or off.
    pub checker: Option<CheckerConfig>,
}

/// Default capacity of the per-region put-notification ring.
pub const DEFAULT_NOTIFY_RING_CAP: usize = 64;

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            netmodel: NetModel::default(),
            faults: None,
            notify_ring_cap: DEFAULT_NOTIFY_RING_CAP,
            checker: None,
        }
    }
}

impl SimConfig {
    /// The default configuration with RMASAN armed fail-fast: the first
    /// MPI-3 RMA violation (e.g. conflicting put/get accesses within one
    /// epoch, the rule the paper's Sec. II relies on) panics.
    pub fn checked() -> Self {
        SimConfig::default().with_checker(CheckerConfig::fail_fast())
    }

    /// Configuration for benchmarks: no sanitizer bookkeeping.
    pub fn bench() -> Self {
        SimConfig::default()
    }

    /// Replaces the cost model.
    pub fn with_netmodel(mut self, m: NetModel) -> Self {
        self.netmodel = m;
        self
    }

    /// Enables fault injection with the given schedule.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Replaces the put-notification ring capacity.
    pub fn with_notify_ring_cap(mut self, cap: usize) -> Self {
        self.notify_ring_cap = cap;
        self
    }

    /// Enables RMASAN with the given reporting mode (see
    /// [`CheckerConfig::fail_fast`] and [`CheckerConfig::collect`]).
    pub fn with_checker(mut self, checker: CheckerConfig) -> Self {
        self.checker = Some(checker);
        self
    }
}

/// Per-rank operation counters, reported at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Number of `get` operations issued.
    pub gets: u64,
    /// Number of `put` operations issued.
    pub puts: u64,
    /// Payload bytes fetched by gets.
    pub bytes_get: u64,
    /// Payload bytes written by puts.
    pub bytes_put: u64,
    /// Number of flush/flush_all calls.
    pub flushes: u64,
}

pub(crate) struct CommShared {
    rendezvous: Rendezvous,
    /// Which rank died first, for every blocking call to check.
    pub(crate) liveness: Liveness,
    config: SimConfig,
}

/// The per-rank handle: identity, virtual clock, cost model, collectives.
pub struct Process {
    rank: usize,
    nranks: usize,
    clock: Clock,
    pub(crate) shared: Arc<CommShared>,
    /// See [`Process::sync_events`].
    pub(crate) sync_events: u64,
    fault_plan: Option<FaultPlan>,
    pub(crate) counters: OpCounters,
    /// RMASAN context (vector clock + reporting sink); `None` when the
    /// sanitizer is disabled.
    pub(crate) san: Option<SanCtx>,
}

impl Process {
    /// This rank's id in `0..nranks`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Communicator size.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.shared.config
    }

    /// The cost model.
    pub fn netmodel(&self) -> &NetModel {
        &self.shared.config.netmodel
    }

    /// Read access to the virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Mutable access to the virtual clock (used by layered libraries such
    /// as the cache to charge their own CPU costs).
    pub fn clock_mut(&mut self) -> &mut Clock {
        &mut self.clock
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Charges `ns` nanoseconds of application computation.
    pub fn compute(&mut self, ns: f64) {
        self.clock.charge_cpu(ns);
    }

    /// Operation counters accumulated so far.
    pub fn counters(&self) -> OpCounters {
        self.counters
    }

    /// How many events this rank has gone through after which its next
    /// get may have to see a write it was not bound to see before: its
    /// own puts (through any window), lock
    /// acquisitions (`lock`, `lock_all`), PSCW `start` and `wait`, and
    /// collectives (`barrier` and everything built on it, `fence`
    /// included) — every point where RMASAN joins a clock, plus every
    /// write. Releases (`unlock`, `post`, `complete`) and flushes order
    /// nothing before this rank's later reads and are not counted. A
    /// layer that reasons "nothing can have become visible since I last
    /// looked" compares two readings of this count.
    pub fn sync_events(&self) -> u64 {
        self.sync_events
    }

    /// Draws the fate of the next data-movement operation towards
    /// `target` from this rank's fault schedule ([`FaultDecision::None`]
    /// when fault injection is disabled or the target is this rank —
    /// local copies cannot fail).
    pub(crate) fn fault_decision(&mut self, target: usize) -> FaultDecision {
        match self.fault_plan.as_mut() {
            Some(plan) if target != self.rank => {
                let now = self.clock.now();
                plan.decide(target, now)
            }
            _ => FaultDecision::None,
        }
    }

    /// The configured dead-target detection cost (0 without faults).
    pub(crate) fn timeout_detect_ns(&self) -> f64 {
        self.shared
            .config
            .faults
            .as_ref()
            .map_or(0.0, |f| f.timeout_detect_ns)
    }

    /// One collective: a single pass through the run's [`Rendezvous`],
    /// which also carries RMASAN's happens-before edge (every rank's
    /// vector clock joins every other's; a no-op when the checker is
    /// off). Every rank leaves at the latest arrival's virtual time plus
    /// the modeled barrier cost, with what `read` takes from the ranks'
    /// deposits.
    fn collective<R>(&mut self, deposit: Deposit, read: impl FnOnce(&[Deposit]) -> R) -> R {
        let vc = self.san.as_mut().map(|san| &mut san.vc[..]);
        let (joint, out) = self.shared.rendezvous.enter(
            &self.shared.liveness,
            self.rank,
            self.clock.now(),
            vc.unwrap_or_default(),
            deposit,
            read,
        );
        let cost = self.netmodel().barrier_cost(self.nranks);
        self.clock.advance_to(joint + cost);
        if let Some(san) = self.san.as_mut() {
            san.tick();
        }
        self.sync_events += 1;
        out
    }

    /// Collective barrier: synchronizes both the threads and the virtual
    /// clocks (every rank leaves at the same virtual time, plus the modeled
    /// barrier cost).
    pub fn barrier(&mut self) {
        self.collective(None, |_| ());
    }

    /// Allgather of one value per rank, ordered by rank. Synchronizes
    /// virtual clocks like a barrier.
    ///
    /// # Panics
    ///
    /// Panics if the ranks disagree on `T` (an SPMD ordering bug).
    pub fn allgather<T: Any + Send + Clone>(&mut self, value: T) -> Vec<T> {
        self.collective(Some(Box::new(value)), |all| {
            all.iter().map(|v| downcast::<T>(v).clone()).collect()
        })
    }

    /// Broadcast from `root`. Exactly the root passes `Some(value)`.
    /// Synchronizes virtual clocks like a barrier.
    pub fn bcast<T: Any + Send + Clone>(&mut self, root: usize, value: Option<T>) -> T {
        assert_eq!(
            self.rank == root,
            value.is_some(),
            "exactly the root must supply the broadcast value"
        );
        let deposit = value.map(|v| Box::new(v) as Box<dyn Any + Send>);
        self.collective(deposit, |all| downcast::<T>(&all[root]).clone())
    }

    /// Allreduce: the sum of every rank's `f64` contribution.
    pub fn allreduce_sum(&mut self, value: f64) -> f64 {
        self.allgather(value).into_iter().sum()
    }

    /// Allreduce: the maximum of every rank's `f64` contribution.
    pub fn allreduce_max(&mut self, value: f64) -> f64 {
        self.allgather(value)
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Collectively creates a window exposing `size` bytes on this rank
    /// (MPI_Win_allocate). Every rank must call with its own size.
    pub fn win_allocate(&mut self, size: usize) -> Window {
        let sizes = self.allgather(size);
        let ring_cap = self.shared.config.notify_ring_cap;
        let san_enabled = self.san.is_some();
        let shared: Arc<WinShared> = if self.rank == 0 {
            let ws = Arc::new(WinShared::new(sizes, ring_cap, san_enabled));
            self.bcast(0, Some(ws))
        } else {
            self.bcast::<Arc<WinShared>>(0, None)
        };
        Window::new(shared, self.rank, san_enabled)
    }

    /// Builds the end-of-run report for this rank.
    fn report(&self) -> RankReport {
        RankReport {
            rank: self.rank,
            elapsed_ns: self.clock.now(),
            cpu_ns: self.clock.total_cpu(),
            wire_ns: self.clock.total_wire(),
            blocked_ns: self.clock.total_blocked(),
            counters: self.counters,
        }
    }
}

/// A rank's deposit at a collective, as the `T` every rank agreed on.
fn downcast<T: Any>(deposit: &Deposit) -> &T {
    deposit
        .as_ref()
        .and_then(|v| v.downcast_ref())
        // xlint: allow(no-unwrap) invariant: SPMD ranks deposit the same T at the same collective
        .expect("collective deposits disagree on the value type")
}

/// End-of-run summary for one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankReport {
    /// The rank.
    pub rank: usize,
    /// Final virtual time (nanoseconds).
    pub elapsed_ns: f64,
    /// Total CPU time charged.
    pub cpu_ns: f64,
    /// Total wire time posted (overlappable).
    pub wire_ns: f64,
    /// Total time spent blocked in waits and barriers.
    pub blocked_ns: f64,
    /// Operation counters.
    pub counters: OpCounters,
}

/// Runs `f` as an SPMD program over `nranks` simulated ranks (one OS thread
/// each) and returns each rank's [`RankReport`] ordered by rank.
///
/// The closure may return a value; retrieve per-rank results with
/// [`run_collect`] instead if you need them.
pub fn run<F>(config: SimConfig, nranks: usize, f: F) -> Vec<RankReport>
where
    F: Fn(&mut Process) + Sync,
{
    run_collect(config, nranks, |p| f(p))
        .into_iter()
        .map(|(r, ())| r)
        .collect()
}

/// Like [`run`] but collects the closure's per-rank return values.
///
/// # Panics
///
/// Panics if `nranks == 0`. If a rank panics, the ranks blocked on it
/// panic too ("peer rank r panicked"), every rank is joined, and the
/// first rank's own panic is re-raised.
pub fn run_collect<T, F>(mut config: SimConfig, nranks: usize, f: F) -> Vec<(RankReport, T)>
where
    F: Fn(&mut Process) -> T + Sync,
    T: Send,
{
    assert!(nranks > 0, "need at least one rank");
    // CLAMPI_SAN=1 turns every run without an explicit checker into a
    // checked run: diagnostics are collected silently and asserted empty
    // below, so the whole test suite doubles as a sanitizer suite.
    let env_handle = if config.checker.is_none() && check::env_enabled() {
        let (cfg, handle) = CheckerConfig::collect();
        config.checker = Some(cfg);
        Some(handle)
    } else {
        None
    };
    let shared = Arc::new(CommShared {
        rendezvous: Rendezvous::new(nranks),
        liveness: Liveness::default(),
        config,
    });
    let live = &shared.liveness;
    let out = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nranks)
            .map(|rank| {
                let shared = Arc::clone(&shared);
                let f = &f;
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    // Apps recurse over octrees; give ranks deep stacks.
                    .stack_size(16 << 20)
                    .spawn_scoped(scope, move || {
                        let _watch = live.watch(rank);
                        let fault_plan = shared
                            .config
                            .faults
                            .as_ref()
                            .map(|cfg| FaultPlan::new(cfg.clone(), rank));
                        let san = shared
                            .config
                            .checker
                            .clone()
                            .map(|cfg| SanCtx::new(cfg, rank, nranks));
                        let mut p = Process {
                            rank,
                            nranks,
                            clock: Clock::new(),
                            shared,
                            sync_events: 0,
                            fault_plan,
                            counters: OpCounters::default(),
                            san,
                        };
                        let out = f(&mut p);
                        (p.report(), out)
                    })
                    // xlint: allow(no-unwrap) OS spawn failure is unrecoverable for the simulation
                    .expect("failed to spawn rank thread")
            })
            .collect();
        let mut joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        // The first rank to panic is the cause; any other rank that
        // panicked did so learning of it.
        if let Some(first) = live.dead().filter(|&r| joined[r].is_err()) {
            if let Err(payload) = joined.swap_remove(first) {
                std::panic::resume_unwind(payload);
            }
        }
        joined
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    if let Some(handle) = env_handle {
        let diags = handle.take();
        assert!(
            diags.is_empty(),
            "RMASAN (CLAMPI_SAN) found {} violation(s):\n{}",
            diags.len(),
            diags
                .iter()
                .map(|d| format!("  {d}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::LockKind;
    use clampi_datatype::Datatype;

    #[test]
    fn single_rank_runs() {
        let reports = run(SimConfig::default(), 1, |p| {
            p.compute(1000.0);
        });
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].elapsed_ns, 1000.0);
    }

    #[test]
    fn barrier_synchronizes_virtual_clocks() {
        let reports = run(SimConfig::default(), 4, |p| {
            p.compute(p.rank() as f64 * 1000.0);
            p.barrier();
        });
        // Everyone leaves at max(now) + barrier cost: identical elapsed.
        let t0 = reports[0].elapsed_ns;
        assert!(t0 >= 3000.0);
        for r in &reports {
            assert_eq!(r.elapsed_ns, t0, "rank {}", r.rank);
        }
    }

    #[test]
    fn every_collective_is_counted_once() {
        let out = run_collect(SimConfig::default(), 2, |p| {
            let before = p.sync_events();
            p.barrier();
            p.allgather(p.rank());
            p.bcast(0, (p.rank() == 0).then_some(7u8));
            p.allreduce_sum(1.0);
            p.compute(10.0);
            p.sync_events() - before
        });
        assert!(out.iter().all(|(_, n)| *n == 4), "{out:?}");
    }

    /// Writes and acquisitions count once each; releases, gets and
    /// flushes not at all.
    #[test]
    fn writes_and_acquisitions_are_sync_events_releases_are_not() {
        let out = run_collect(SimConfig::default(), 2, |p| {
            let me = p.rank();
            let mut win = p.win_allocate(64);
            let dt = Datatype::bytes(8);
            let mut buf = [0u8; 8];
            let mut deltas = Vec::new();
            let mut step = |p: &mut Process, f: &mut dyn FnMut(&mut Process)| {
                let before = p.sync_events();
                f(p);
                deltas.push(p.sync_events() - before);
            };
            let slot = 8 * me;
            step(p, &mut |p| win.lock(p, LockKind::Shared, 0));
            step(p, &mut |p| win.get(p, &mut buf, 0, slot, &dt, 1));
            step(p, &mut |p| win.flush(p, 0));
            step(p, &mut |p| win.put(p, &[1; 8], 0, slot, &dt, 1));
            step(p, &mut |p| win.unlock(p, 0));
            step(p, &mut |p| win.lock_all(p));
            step(p, &mut |p| win.unlock_all(p));
            // PSCW: rank 0 exposes to rank 1, which accesses it.
            if me == 0 {
                step(p, &mut |p| win.post(p, &[1]));
                step(p, &mut |p| win.wait(p, &[1]));
            } else {
                step(p, &mut |p| win.start(p, &[0]));
                step(p, &mut |p| win.complete(p));
            }
            deltas
        });
        let (post_wait, start_complete) = ([0, 1], [1, 0]);
        let common = [1, 0, 0, 1, 0, 1, 0];
        assert_eq!(out[0].1, [&common[..], &post_wait[..]].concat());
        assert_eq!(out[1].1, [&common[..], &start_complete[..]].concat());
    }

    #[test]
    fn allgather_roundtrips_rank_ids() {
        run(SimConfig::default(), 3, |p| {
            let all = p.allgather(p.rank() * 7);
            assert_eq!(all, vec![0, 7, 14]);
        });
    }

    #[test]
    fn get_reads_remote_data_and_charges_time() {
        let reports = run(SimConfig::default(), 2, |p| {
            let mut win = p.win_allocate(256);
            {
                let mut mem = win.local_mut();
                let base = (p.rank() as u8 + 1) * 10;
                for (i, b) in mem.iter_mut().enumerate() {
                    *b = base.wrapping_add(i as u8);
                }
            }
            p.barrier();
            win.lock_all(p);
            let peer = 1 - p.rank();
            let mut buf = [0u8; 4];
            win.get(p, &mut buf, peer, 8, &Datatype::bytes(4), 1);
            win.flush(p, peer);
            let base = (peer as u8 + 1) * 10;
            assert_eq!(buf, [base + 8, base + 9, base + 10, base + 11]);
            assert_eq!(win.epoch(), 1);
            win.unlock_all(p);
            assert_eq!(win.epoch(), 2);
            p.barrier();
        });
        for r in &reports {
            assert_eq!(r.counters.gets, 1);
            assert_eq!(r.counters.bytes_get, 4);
            assert!(r.wire_ns > 0.0, "remote get must cost wire time");
        }
    }

    #[test]
    fn put_writes_remote_data() {
        run(SimConfig::default(), 2, |p| {
            let mut win = p.win_allocate(64);
            p.barrier();
            if p.rank() == 0 {
                win.lock(p, LockKind::Shared, 1);
                let data = [9u8, 8, 7];
                win.put(p, &data, 1, 5, &Datatype::bytes(3), 1);
                win.unlock(p, 1);
            }
            p.barrier();
            if p.rank() == 1 {
                let mem = win.local_ref();
                assert_eq!(&mem[5..8], &[9, 8, 7]);
            }
            p.barrier();
        });
    }

    #[test]
    fn strided_get_packs_blocks() {
        run(SimConfig::default(), 2, |p| {
            let mut win = p.win_allocate(64);
            if p.rank() == 1 {
                let mut mem = win.local_mut();
                for (i, b) in mem.iter_mut().enumerate() {
                    *b = i as u8;
                }
            }
            p.barrier();
            if p.rank() == 0 {
                win.lock_all(p);
                // 3 blocks of 2 bytes, stride 4 bytes.
                let dt = Datatype::vector(3, 2, 4, Datatype::bytes(1));
                let mut buf = [0u8; 6];
                win.get(p, &mut buf, 1, 10, &dt, 1);
                win.flush(p, 1);
                assert_eq!(buf, [10, 11, 14, 15, 18, 19]);
                win.unlock_all(p);
            }
            p.barrier();
        });
    }

    #[test]
    fn flush_blocks_until_wire_completion() {
        let reports = run(SimConfig::default(), 2, |p| {
            let mut win = p.win_allocate(8192);
            p.barrier();
            if p.rank() == 0 {
                win.lock_all(p);
                let mut buf = vec![0u8; 4096];
                win.get(p, &mut buf, 1, 0, &Datatype::bytes(4096), 1);
                let before = p.now();
                win.flush(p, 1);
                let after = p.now();
                // The 4 KiB wire time dominates the sync overhead.
                assert!(after - before > 1000.0, "flush advanced {}", after - before);
                win.unlock_all(p);
            }
            p.barrier();
        });
        assert!(reports[0].blocked_ns > 0.0);
    }

    #[test]
    fn self_get_is_local() {
        let reports = run(SimConfig::default(), 1, |p| {
            let mut win = p.win_allocate(64);
            win.lock_all(p);
            let mut buf = [0u8; 16];
            win.get(p, &mut buf, 0, 0, &Datatype::bytes(16), 1);
            win.flush(p, 0);
            win.unlock_all(p);
        });
        assert_eq!(reports[0].wire_ns, 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_past_window_end_panics() {
        run(SimConfig::default(), 1, |p| {
            let mut win = p.win_allocate(16);
            win.lock_all(p);
            let mut buf = [0u8; 32];
            win.get(p, &mut buf, 0, 0, &Datatype::bytes(32), 1);
        });
    }

    #[test]
    #[should_panic(expected = "RMASAN")]
    fn put_get_conflict_detected() {
        run(SimConfig::checked(), 1, |p| {
            let mut win = p.win_allocate(64);
            win.lock_all(p);
            let mut buf = [0u8; 8];
            win.get(p, &mut buf, 0, 0, &Datatype::bytes(8), 1);
            let data = [0u8; 8];
            win.put(p, &data, 0, 4, &Datatype::bytes(8), 1); // overlaps the get
        });
    }

    #[test]
    fn flush_resets_conflict_tracking() {
        run(SimConfig::checked(), 1, |p| {
            let mut win = p.win_allocate(64);
            win.lock_all(p);
            let mut buf = [0u8; 8];
            win.get(p, &mut buf, 0, 0, &Datatype::bytes(8), 1);
            win.flush(p, 0);
            // New epoch: the same range may now be written.
            let data = [1u8; 8];
            win.put(p, &data, 0, 0, &Datatype::bytes(8), 1);
            win.unlock_all(p);
        });
    }

    #[test]
    fn concurrent_gets_from_many_ranks() {
        let n = 8;
        run(SimConfig::default(), n, |p| {
            let mut win = p.win_allocate(1024);
            {
                let mut mem = win.local_mut();
                mem[0] = p.rank() as u8;
            }
            p.barrier();
            win.lock_all(p);
            // Everyone reads everyone's first byte.
            for t in 0..p.nranks() {
                let mut b = [0u8; 1];
                win.get(p, &mut b, t, 0, &Datatype::bytes(1), 1);
                assert_eq!(b[0], t as u8);
            }
            win.flush_all(p);
            win.unlock_all(p);
            p.barrier();
        });
    }

    #[test]
    fn fence_closes_epoch_collectively() {
        run(SimConfig::default(), 2, |p| {
            let mut win = p.win_allocate(32);
            win.fence(p);
            assert_eq!(win.epoch(), 1);
            win.fence(p);
            assert_eq!(win.epoch(), 2);
        });
    }

    #[test]
    fn run_collect_returns_results_in_rank_order() {
        let out = run_collect(SimConfig::default(), 4, |p| p.rank() * 2);
        let vals: Vec<usize> = out.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![0, 2, 4, 6]);
        for (i, (r, _)) in out.iter().enumerate() {
            assert_eq!(r.rank, i);
        }
    }

    #[test]
    fn farther_targets_cost_more_time() {
        // Rank 0 gets from rank 1 (same chassis) vs rank 96 (remote group).
        let reports = run_collect(SimConfig::default(), 97, |p| {
            let mut win = p.win_allocate(64);
            p.barrier();
            let mut near_far = (0.0, 0.0);
            if p.rank() == 0 {
                win.lock_all(p);
                let mut b = [0u8; 8];
                let t0 = p.now();
                win.get(p, &mut b, 1, 0, &Datatype::bytes(8), 1);
                win.flush(p, 1);
                let t1 = p.now();
                win.get(p, &mut b, 96, 0, &Datatype::bytes(8), 1);
                win.flush(p, 96);
                let t2 = p.now();
                win.unlock_all(p);
                near_far = (t1 - t0, t2 - t1);
            }
            p.barrier();
            near_far
        });
        let (near, far) = reports[0].1;
        assert!(far > near, "far {far} <= near {near}");
    }
}
