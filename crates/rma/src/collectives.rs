//! The one rendezvous every collective goes through.
//!
//! [`Rendezvous`] is a generation-counted meeting point for the `n` ranks
//! of a run. Each rank arrives with its virtual clock, its RMASAN vector
//! clock (empty when the sanitizer is off) and an optional value. The
//! last rank to arrive publishes the generation: the max of the clocks
//! (every rank leaves a collective at the same virtual time, like real
//! processes leave a real barrier at the same wall time), the join of the
//! vector clocks, and every deposited value. The others wake and read
//! what they need from it, so a barrier, an allgather and a broadcast are
//! each one rendezvous, RMASAN's happens-before edge included.
//!
//! One round suffices. A rank cannot arrive at generation g + 2 before
//! every rank has arrived at g + 1, and so has left g. Two buffers,
//! indexed by the generation's parity, therefore let g + 1 fill while g
//! is still being read, and the rank that publishes g + 1 clears g's.
//! SPMD discipline applies: every rank calls every collective in the same
//! order.

use std::any::Any;
use std::sync::{Condvar, Mutex};

use crate::check::vc_join;
use crate::sync::{self, Liveness};

/// A value deposited at a collective (`None` for a rank with nothing to
/// give, as at a barrier or a non-root broadcast).
pub(crate) type Deposit = Option<Box<dyn Any + Send>>;

/// A reusable rendezvous over `n` ranks.
#[derive(Debug)]
pub(crate) struct Rendezvous {
    n: usize,
    state: Mutex<State>,
    cv: Condvar,
}

#[derive(Debug)]
struct State {
    generation: u64,
    arrived: usize,
    /// Generation g fills and publishes `rounds[g % 2]`.
    rounds: [Round; 2],
}

#[derive(Debug)]
struct Round {
    max: f64,
    vc: Vec<u64>,
    deposits: Vec<Deposit>,
}

impl Round {
    fn new(n: usize) -> Self {
        Round {
            max: f64::NEG_INFINITY,
            vc: vec![0; n],
            deposits: (0..n).map(|_| None).collect(),
        }
    }

    fn clear(&mut self) {
        self.max = f64::NEG_INFINITY;
        self.vc.fill(0);
        self.deposits.fill_with(|| None);
    }
}

impl Rendezvous {
    /// A rendezvous for `n` ranks.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "a rendezvous needs at least one participant");
        Rendezvous {
            n,
            state: Mutex::new(State {
                generation: 0,
                arrived: 0,
                rounds: [Round::new(n), Round::new(n)],
            }),
            cv: Condvar::new(),
        }
    }

    /// `rank` arrives at virtual time `now` with vector clock `vc` and
    /// `deposit`, and blocks until every rank has arrived. Then `vc`
    /// joins every arrival's clock, and the result is the max of the
    /// arrival times with what `read` takes from the deposits, ordered
    /// by rank.
    pub(crate) fn enter<R>(
        &self,
        live: &Liveness,
        rank: usize,
        now: f64,
        vc: &mut [u64],
        deposit: Deposit,
        read: impl FnOnce(&[Deposit]) -> R,
    ) -> (f64, R) {
        let mut st = sync::lock(&self.state);
        let gen = st.generation;
        let this = (gen % 2) as usize;
        let round = &mut st.rounds[this];
        round.max = round.max.max(now);
        vc_join(&mut round.vc, vc);
        round.deposits[rank] = deposit;
        st.arrived += 1;
        if st.arrived == self.n {
            st.arrived = 0;
            st.generation += 1;
            // Every rank has left gen - 1: its buffer is gen + 1's.
            st.rounds[1 - this].clear();
            self.cv.notify_all();
        } else {
            st = sync::wait_until(live, &self.cv, st, |st| st.generation != gen);
        }
        let round = &st.rounds[this];
        vc_join(vc, &round.vc);
        (round.max, read(&round.deposits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f(rank)` on `n` threads sharing one rendezvous.
    fn on_ranks(n: usize, f: impl Fn(&Rendezvous, &Liveness, usize) + Sync) {
        let (rv, live) = (Rendezvous::new(n), Liveness::default());
        std::thread::scope(|s| {
            for r in 0..n {
                let (rv, live, f) = (&rv, &live, &f);
                s.spawn(move || f(rv, live, r));
            }
        });
    }

    /// `rank` enters with `value` (if any) and reads back every deposit
    /// as a `T`, `None` where a rank gave nothing.
    fn gather<T: Any + Send + Clone>(
        rv: &Rendezvous,
        live: &Liveness,
        rank: usize,
        value: Option<T>,
    ) -> Vec<Option<T>> {
        let deposit = value.map(|v| Box::new(v) as Box<dyn Any + Send>);
        rv.enter(live, rank, 0.0, &mut [], deposit, |d| {
            d.iter()
                .map(|v| v.as_ref()?.downcast_ref::<T>().cloned())
                .collect()
        })
        .1
    }

    #[test]
    fn barrier_max_reduces() {
        on_ranks(4, |rv, live, r| {
            let (max, ()) = rv.enter(live, r, r as f64 * 10.0, &mut [], None, |_| ());
            assert_eq!(max, 30.0);
        });
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        on_ranks(3, |rv, live, r| {
            for round in 0..50u64 {
                let now = (round + r as u64) as f64;
                let (max, ()) = rv.enter(live, r, now, &mut [], None, |_| ());
                assert_eq!(max, (round + 2) as f64, "round {round}");
            }
        });
    }

    #[test]
    fn allgather_orders_by_rank() {
        on_ranks(4, |rv, live, r| {
            let got = gather(rv, live, r, Some(format!("rank{r}")));
            let want: Vec<_> = (0..4).map(|q| Some(format!("rank{q}"))).collect();
            assert_eq!(got, want);
        });
    }

    #[test]
    fn consecutive_collectives_do_not_interfere() {
        on_ranks(2, |rv, live, r| {
            for seq in 0..20u64 {
                let got = gather(rv, live, r, Some(seq * 2 + r as u64));
                assert_eq!(got, [Some(seq * 2), Some(seq * 2 + 1)], "seq {seq}");
            }
        });
    }

    #[test]
    fn bcast_delivers_root_value() {
        on_ranks(3, |rv, live, r| {
            let got = gather(rv, live, r, (r == 1).then(|| vec![1u8, 2, 3]));
            assert_eq!(got, [None, Some(vec![1, 2, 3]), None]);
        });
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participant_barrier_rejected() {
        let _ = Rendezvous::new(0);
    }

    #[test]
    fn every_rank_leaves_with_the_join_of_all_vector_clocks() {
        on_ranks(3, |rv, live, r| {
            let mut vc = vec![0u64; 3];
            vc[r] = r as u64 + 5;
            rv.enter(live, r, 0.0, &mut vc, None, |_| ());
            assert_eq!(vc, [5, 6, 7]);
        });
    }
}
