//! Per-rank virtual clocks with communication/computation overlap.
//!
//! The simulator separates two kinds of cost:
//!
//! - **CPU time** — issue overheads, memory copies, cache management. These
//!   advance the clock *immediately*: the rank cannot do anything else while
//!   they run.
//! - **Wire time** — the network part of a transfer (`L + size·G`). Posting
//!   a transfer records a *completion time* but does not advance the clock;
//!   the rank is free to compute. Waiting (flush/unlock_all) jumps the clock to
//!   the latest outstanding completion, if that is in the future.
//!
//! This is the distinction the paper's overlap study (Fig. 8) measures: a
//! *failing* access overlaps almost as well as plain foMPI because it skips
//! the (CPU) cache-fill copy, while *direct*/*capacity* accesses pay that
//! copy at flush time and overlap less.

/// An outstanding (posted, not yet waited-on) network transfer.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    /// Initiator-side target rank the transfer is bound to, for per-target
    /// `flush(rank)`.
    target: usize,
    /// Virtual completion time in nanoseconds.
    completes_at: f64,
}

/// A per-rank virtual clock.
///
/// All times are nanoseconds since the start of the simulation, as `f64`
/// (the cost model produces fractional nanoseconds).
#[derive(Debug, Default)]
pub struct Clock {
    now: f64,
    outstanding: Vec<Outstanding>,
    total_cpu: f64,
    total_wire: f64,
    total_blocked: f64,
}

impl Clock {
    /// A clock at time zero with no outstanding transfers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances the clock by `ns` of CPU work.
    pub fn charge_cpu(&mut self, ns: f64) {
        debug_assert!(ns >= 0.0, "negative CPU charge: {ns}");
        self.now += ns;
        self.total_cpu += ns;
    }

    /// Posts a network transfer towards `target` that occupies the wire for
    /// `wire_ns`. The clock does not advance.
    pub fn post_network(&mut self, target: usize, wire_ns: f64) {
        debug_assert!(wire_ns >= 0.0, "negative wire charge: {wire_ns}");
        let completes_at = self.now + wire_ns;
        self.outstanding.push(Outstanding {
            target,
            completes_at,
        });
        self.total_wire += wire_ns;
    }

    /// Waits for all outstanding transfers towards `target` (MPI_Win_flush):
    /// jumps the clock to the latest such completion if it is in the future
    /// and forgets those transfers.
    pub fn wait_target(&mut self, target: usize) {
        let mut latest = self.now;
        self.outstanding.retain(|o| {
            if o.target == target {
                latest = latest.max(o.completes_at);
                false
            } else {
                true
            }
        });
        self.block_until(latest);
    }

    /// Waits for every outstanding transfer (MPI_Win_flush_all / unlock_all).
    pub fn wait_all(&mut self) {
        let latest = self
            .outstanding
            .iter()
            .fold(self.now, |m, o| m.max(o.completes_at));
        self.outstanding.clear();
        self.block_until(latest);
    }

    /// Moves the clock forward to `t` if `t` is in the future (used by
    /// barriers to synchronize ranks). Outstanding transfers are unaffected.
    pub fn advance_to(&mut self, t: f64) {
        self.block_until(t);
    }

    fn block_until(&mut self, t: f64) {
        if t > self.now {
            self.total_blocked += t - self.now;
            self.now = t;
        }
    }

    /// Total CPU nanoseconds charged so far.
    pub fn total_cpu(&self) -> f64 {
        self.total_cpu
    }

    /// Total wire nanoseconds posted so far (overlappable time).
    pub fn total_wire(&self) -> f64 {
        self.total_wire
    }

    /// Total nanoseconds spent blocked in waits/barriers.
    pub fn total_blocked(&self) -> f64 {
        self.total_blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_advances_immediately() {
        let mut c = Clock::new();
        c.charge_cpu(100.0);
        c.charge_cpu(50.0);
        assert_eq!(c.now(), 150.0);
        assert_eq!(c.total_cpu(), 150.0);
    }

    #[test]
    fn network_does_not_advance_until_wait() {
        let mut c = Clock::new();
        c.post_network(1, 1000.0);
        assert_eq!(c.now(), 0.0);
        c.wait_all();
        assert_eq!(c.now(), 1000.0);
    }

    #[test]
    fn compute_overlaps_with_wire() {
        let mut c = Clock::new();
        c.post_network(1, 1000.0);
        c.charge_cpu(800.0); // fully hidden behind the wire
        c.wait_all();
        assert_eq!(c.now(), 1000.0);
        assert_eq!(c.total_blocked(), 200.0);

        let mut c = Clock::new();
        c.post_network(1, 1000.0);
        c.charge_cpu(1500.0); // compute exceeds the wire: no blocking
        c.wait_all();
        assert_eq!(c.now(), 1500.0);
        assert_eq!(c.total_blocked(), 0.0);
    }

    #[test]
    fn wait_target_is_selective() {
        let mut c = Clock::new();
        c.post_network(1, 1000.0);
        c.post_network(2, 2000.0);
        c.wait_target(1);
        assert_eq!(c.now(), 1000.0);
        c.wait_target(2);
        assert_eq!(c.now(), 2000.0);
    }

    #[test]
    fn wait_on_past_completion_is_free() {
        let mut c = Clock::new();
        c.post_network(0, 100.0);
        c.charge_cpu(500.0);
        c.wait_all();
        assert_eq!(c.now(), 500.0);
        assert_eq!(c.total_blocked(), 0.0);
    }

    #[test]
    fn advance_to_never_moves_backwards() {
        let mut c = Clock::new();
        c.charge_cpu(300.0);
        c.advance_to(200.0);
        assert_eq!(c.now(), 300.0);
        c.advance_to(400.0);
        assert_eq!(c.now(), 400.0);
    }

    #[test]
    fn multiple_transfers_same_target() {
        let mut c = Clock::new();
        c.post_network(3, 100.0);
        c.charge_cpu(10.0);
        c.post_network(3, 100.0); // completes at 110
        c.wait_target(3);
        assert_eq!(c.now(), 110.0);
    }
}
