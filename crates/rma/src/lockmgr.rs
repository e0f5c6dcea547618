//! Passive-target lock manager (MPI_Win_lock semantics).
//!
//! MPI-3 passive target synchronization lets an initiator lock a target's
//! window region in `SHARED` or `EXCLUSIVE` mode. Shared locks coexist;
//! an exclusive lock excludes everyone else. This manager implements those
//! semantics per target rank with a mutex/condvar pair.
//!
//! Note this is *synchronization-correctness* state only — it does not model
//! time (lock acquisition cost is charged by the caller through the cost
//! model) and it is independent from the `RwLock` that protects the raw
//! window bytes during individual transfers.

use std::sync::{Condvar, Mutex};

use crate::check::{vc_join, SanCtx};
use crate::sync::{self, Liveness};

/// Lock mode for [`crate::Window::lock`], mirroring `MPI_LOCK_SHARED` /
/// `MPI_LOCK_EXCLUSIVE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// Multiple initiators may hold the lock concurrently.
    Shared,
    /// Only one initiator may hold the lock; excludes shared holders too.
    Exclusive,
}

#[derive(Debug, Default)]
struct TargetLockState {
    shared_holders: usize,
    exclusive_held: bool,
    /// RMASAN only: vector clock published by the last *exclusive*
    /// release. A later shared acquire joins this — shared readers are
    /// ordered after the writer that preceded them, but not after each
    /// other.
    excl_release_vc: Vec<u64>,
    /// RMASAN only: join of the clocks of *every* release. A later
    /// exclusive acquire joins this — the writer is ordered after all
    /// prior holders, shared or exclusive.
    all_release_vc: Vec<u64>,
}

/// Per-target passive locks for one window.
#[derive(Debug)]
pub(crate) struct LockManager {
    targets: Vec<(Mutex<TargetLockState>, Condvar)>,
}

impl LockManager {
    /// A manager for a window spanning `nranks` target regions.
    pub(crate) fn new(nranks: usize) -> Self {
        LockManager {
            targets: (0..nranks)
                .map(|_| (Mutex::new(TargetLockState::default()), Condvar::new()))
                .collect(),
        }
    }

    /// Acquires the lock on `target`, blocking until compatible. With a
    /// checker context, the acquirer joins the release clock(s) of the
    /// holders it is ordered after (shared joins the last exclusive
    /// release; exclusive joins every prior release).
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range, or if a peer rank dies while
    /// this one waits (see [`sync::wait_until`]).
    pub(crate) fn lock(
        &self,
        live: &Liveness,
        kind: LockKind,
        target: usize,
        san: Option<&mut SanCtx>,
    ) {
        let (m, cv) = &self.targets[target];
        let mut st = sync::wait_until(live, cv, sync::lock(m), |st| match kind {
            LockKind::Shared => !st.exclusive_held,
            LockKind::Exclusive => !st.exclusive_held && st.shared_holders == 0,
        });
        match kind {
            LockKind::Shared => st.shared_holders += 1,
            LockKind::Exclusive => st.exclusive_held = true,
        }
        if let Some(san) = san {
            match kind {
                LockKind::Shared => san.join(&st.excl_release_vc),
                LockKind::Exclusive => san.join(&st.all_release_vc),
            }
            san.tick();
        }
    }

    /// Releases a previously acquired lock on `target`. With a checker
    /// context, the releaser publishes its clock for later acquirers to
    /// join (see [`Self::lock`]).
    ///
    /// # Panics
    ///
    /// Panics if no lock is held on `target` (an unlock without a matching
    /// lock is an MPI usage error).
    pub(crate) fn unlock(&self, target: usize, san: Option<&mut SanCtx>) {
        let (m, cv) = &self.targets[target];
        let mut st = sync::lock(m);
        let was_exclusive = if st.exclusive_held {
            st.exclusive_held = false;
            true
        } else if st.shared_holders > 0 {
            st.shared_holders -= 1;
            false
        } else {
            panic!("unlock({target}) without a matching lock");
        };
        if let Some(san) = san {
            if st.all_release_vc.len() < san.vc.len() {
                st.all_release_vc.resize(san.vc.len(), 0);
            }
            vc_join(&mut st.all_release_vc, &san.vc);
            if was_exclusive {
                if st.excl_release_vc.len() < san.vc.len() {
                    st.excl_release_vc.resize(san.vc.len(), 0);
                }
                vc_join(&mut st.excl_release_vc, &san.vc);
            }
            san.tick();
        }
        cv.notify_all();
    }

    /// Acquires a shared lock on every target (MPI_Win_lock_all).
    pub(crate) fn lock_all(&self, live: &Liveness, mut san: Option<&mut SanCtx>) {
        for t in 0..self.targets.len() {
            self.lock(live, LockKind::Shared, t, san.as_deref_mut());
        }
    }

    /// Releases the shared lock on every target (MPI_Win_unlock_all).
    pub(crate) fn unlock_all(&self, mut san: Option<&mut SanCtx>) {
        for t in 0..self.targets.len() {
            self.unlock(t, san.as_deref_mut());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn shared_locks_coexist() {
        let (lm, live) = (LockManager::new(2), Liveness::default());
        lm.lock(&live, LockKind::Shared, 0, None);
        lm.lock(&live, LockKind::Shared, 0, None);
        lm.unlock(0, None);
        lm.unlock(0, None);
    }

    #[test]
    fn lock_all_then_unlock_all() {
        let lm = LockManager::new(4);
        lm.lock_all(&Liveness::default(), None);
        lm.unlock_all(None);
        assert_eq!(lm.targets.len(), 4);
    }

    #[test]
    #[should_panic(expected = "without a matching lock")]
    fn unbalanced_unlock_panics() {
        LockManager::new(1).unlock(0, None);
    }

    /// Rank 0 holds `held` on target 0 while a second thread requests
    /// `wanted`: the request must wait until rank 0 unlocks.
    fn second_lock_waits(held: LockKind, wanted: LockKind) {
        let (lm, live) = (LockManager::new(1), Liveness::default());
        let entered = AtomicUsize::new(0);
        lm.lock(&live, held, 0, None);
        std::thread::scope(|s| {
            s.spawn(|| {
                lm.lock(&live, wanted, 0, None);
                // Release: pairs with the Acquire loads below; a progress
                // flag needs no stronger order (audited: the only property
                // is flag-set happens-before flag-observed).
                entered.store(1, Ordering::Release);
                lm.unlock(0, None);
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            // Acquire: pairs with the Release store above.
            assert_eq!(
                entered.load(Ordering::Acquire),
                0,
                "{wanted:?} after {held:?}"
            );
            lm.unlock(0, None);
        });
        // Acquire: pairs with the Release store above.
        assert_eq!(entered.load(Ordering::Acquire), 1);
    }

    #[test]
    fn exclusive_excludes_shared() {
        second_lock_waits(LockKind::Exclusive, LockKind::Shared);
    }

    #[test]
    fn exclusive_waits_for_shared() {
        second_lock_waits(LockKind::Shared, LockKind::Exclusive);
    }

    #[test]
    fn locks_on_different_targets_are_independent() {
        let (lm, live) = (LockManager::new(2), Liveness::default());
        lm.lock(&live, LockKind::Exclusive, 0, None);
        // Locking target 1 must not block even though 0 is held exclusively.
        lm.lock(&live, LockKind::Exclusive, 1, None);
        lm.unlock(0, None);
        lm.unlock(1, None);
    }
}
