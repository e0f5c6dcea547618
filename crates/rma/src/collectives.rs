//! Barrier and data-exchange primitives shared by all ranks of a simulation.
//!
//! Two building blocks:
//!
//! - [`ReduceBarrier`]: a generation-counted barrier that additionally
//!   max-reduces a `f64` — used to synchronize the ranks' *virtual clocks*
//!   at every collective (all ranks leave a barrier at the same virtual
//!   time, like real processes leave a real barrier at the same wall time).
//! - [`Exchange`]: a slot board for allgather/broadcast of arbitrary
//!   `Send + Clone` values, keyed by a per-rank collective sequence number.
//!   SPMD discipline applies: every rank must call every collective in the
//!   same order.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};

use crate::sync;

/// A reusable barrier over `n` participants that max-reduces an `f64`.
#[derive(Debug)]
pub struct ReduceBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Debug)]
struct BarrierState {
    count: usize,
    generation: u64,
    pending_max: f64,
    result: f64,
}

impl ReduceBarrier {
    /// A barrier for `n` participants.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        ReduceBarrier {
            n,
            state: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
                pending_max: f64::NEG_INFINITY,
                result: 0.0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enters the barrier contributing `value`; returns the maximum over
    /// all participants' contributions once everyone has arrived.
    pub fn wait_max(&self, value: f64) -> f64 {
        let mut st = sync::lock(&self.state);
        st.pending_max = st.pending_max.max(value);
        st.count += 1;
        if st.count == self.n {
            st.result = st.pending_max;
            st.pending_max = f64::NEG_INFINITY;
            st.count = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
            st.result
        } else {
            let gen = st.generation;
            while st.generation == gen {
                st = sync::wait(&self.cv, st);
            }
            st.result
        }
    }

    /// Plain barrier (contributes negative infinity, ignores the result).
    pub fn wait(&self) {
        self.wait_max(f64::NEG_INFINITY);
    }
}

type SlotBoard = HashMap<u64, Vec<Option<Box<dyn Any + Send>>>>;

/// All-to-all slot board for allgather/broadcast of typed values.
#[derive(Debug)]
pub struct Exchange {
    n: usize,
    slots: Mutex<SlotBoard>,
    barrier: ReduceBarrier,
}

impl Exchange {
    /// An exchange among `n` ranks with its own internal barrier.
    pub fn new(n: usize) -> Self {
        Exchange {
            n,
            slots: Mutex::new(HashMap::new()),
            barrier: ReduceBarrier::new(n),
        }
    }

    /// Allgather: every rank deposits `value` under collective id `seq` and
    /// receives all `n` values ordered by rank.
    ///
    /// # Panics
    ///
    /// Panics if two ranks disagree on the deposited type for the same
    /// `seq`, or a rank deposits twice (both are SPMD ordering bugs).
    pub fn allgather<T: Any + Send + Clone>(&self, seq: u64, rank: usize, value: T) -> Vec<T> {
        {
            let mut slots = sync::lock(&self.slots);
            let entry = slots
                .entry(seq)
                .or_insert_with(|| (0..self.n).map(|_| None).collect());
            assert!(
                entry[rank].is_none(),
                "rank {rank} deposited twice for collective {seq}"
            );
            entry[rank] = Some(Box::new(value));
        }
        self.barrier.wait(); // all deposited
        let gathered: Vec<T> = {
            let slots = sync::lock(&self.slots);
            let entry = &slots[&seq];
            entry
                .iter()
                .enumerate()
                .map(|(r, v)| {
                    v.as_ref()
                        .unwrap_or_else(|| panic!("rank {r} missing from collective {seq}"))
                        .downcast_ref::<T>()
                        .unwrap_or_else(|| panic!("type mismatch in collective {seq} at rank {r}"))
                        .clone()
                })
                .collect()
        };
        self.barrier.wait(); // all copied out
        if rank == 0 {
            sync::lock(&self.slots).remove(&seq);
        }
        gathered
    }

    /// Broadcast from `root`: the root deposits `Some(value)`, everyone
    /// receives the root's value.
    pub fn bcast<T: Any + Send + Clone>(
        &self,
        seq: u64,
        rank: usize,
        root: usize,
        value: Option<T>,
    ) -> T {
        assert_eq!(
            rank == root,
            value.is_some(),
            "exactly the root must supply the broadcast value"
        );
        {
            let mut slots = sync::lock(&self.slots);
            let entry = slots
                .entry(seq)
                .or_insert_with(|| (0..self.n).map(|_| None).collect());
            if let Some(v) = value {
                entry[root] = Some(Box::new(v));
            }
        }
        self.barrier.wait();
        let out: T = {
            let slots = sync::lock(&self.slots);
            slots[&seq][root]
                .as_ref()
                // xlint: allow(no-unwrap) invariant: the barrier above guarantees the root deposited
                .expect("root value missing")
                .downcast_ref::<T>()
                // xlint: allow(no-unwrap) invariant: all ranks call bcast with the same T
                .expect("type mismatch in broadcast")
                .clone()
        };
        self.barrier.wait();
        if rank == 0 {
            sync::lock(&self.slots).remove(&seq);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn spawn_ranks<F>(n: usize, f: F)
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let handles: Vec<_> = (0..n)
            .map(|r| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || f(r))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn barrier_max_reduces() {
        let b = Arc::new(ReduceBarrier::new(4));
        let b2 = Arc::clone(&b);
        spawn_ranks(4, move |r| {
            let m = b2.wait_max(r as f64 * 10.0);
            assert_eq!(m, 30.0);
        });
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let b = Arc::new(ReduceBarrier::new(3));
        let b2 = Arc::clone(&b);
        spawn_ranks(3, move |r| {
            for round in 0..50u64 {
                let m = b2.wait_max(round as f64 + r as f64);
                assert_eq!(m, round as f64 + 2.0, "round {round}");
            }
        });
    }

    #[test]
    fn allgather_orders_by_rank() {
        let e = Arc::new(Exchange::new(4));
        let e2 = Arc::clone(&e);
        spawn_ranks(4, move |r| {
            let v = e2.allgather(0, r, format!("rank{r}"));
            assert_eq!(v, vec!["rank0", "rank1", "rank2", "rank3"]);
        });
    }

    #[test]
    fn consecutive_collectives_do_not_interfere() {
        let e = Arc::new(Exchange::new(2));
        let e2 = Arc::clone(&e);
        spawn_ranks(2, move |r| {
            for seq in 0..20u64 {
                let v = e2.allgather(seq, r, seq * 2 + r as u64);
                assert_eq!(v, vec![seq * 2, seq * 2 + 1]);
            }
        });
    }

    #[test]
    fn bcast_delivers_root_value() {
        let e = Arc::new(Exchange::new(3));
        let e2 = Arc::clone(&e);
        spawn_ranks(3, move |r| {
            let got = e2.bcast(7, r, 1, (r == 1).then(|| vec![1u8, 2, 3]));
            assert_eq!(got, vec![1, 2, 3]);
        });
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participant_barrier_rejected() {
        let _ = ReduceBarrier::new(0);
    }
}
