//! The simulator's synchronisation primitives: poison-tolerant lock
//! wrappers, and the one place a rank blocks.
//!
//! **Poison.** `std::sync` locks poison on a panicking holder, and a
//! naive `.unwrap()` would cascade that one panic through every other
//! rank's `get`/`put`. [`lock`], [`read`] and [`write`] recover the inner
//! guard with `unwrap_or_else(|e| e.into_inner())` instead (window bytes
//! are plain data; there is no invariant a half-completed memcpy can break
//! that the epoch discipline doesn't already forbid).
//!
//! **Blocking.** The one blocking call of the simulator — the
//! collectives' rendezvous — waits through [`wait_until`], on its own
//! mutex and condvar (`lock_all` is shared and never blocks). The wait
//! re-checks the run's [`Liveness`] record: once any rank has panicked, a
//! waiter whose condition does not hold drops its guard (so it poisons
//! nothing) and panics with "peer rank r panicked", and `run_collect`
//! re-raises the dead rank's own panic. A dead rank notifies nobody, so a
//! waiter also wakes every [`TICK`] to look; every live state change
//! notifies, so a healthy run never needs the tick, and a tick that fires
//! while a peer is merely slow re-checks and waits again.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// How many times any wrapper below recovered a guard from a poisoned
/// lock. Observable through `check::poison_recoveries()`: a nonzero value
/// in an otherwise green run means a rank panicked while holding an
/// internal lock and the others kept going.
///
/// This is **process-global** state. `cargo test` runs every test of a
/// binary concurrently in one process, so any test that deliberately
/// panics a lock holder bumps this counter for everyone — an assertion on
/// the absolute value (`== 0`) is flipped by whichever unrelated test
/// happens to run first. Assert *deltas* instead: record
/// `check::poison_snapshot()` before the bracketed region and compare
/// with `check::recoveries_since()` after.
static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

pub(crate) fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

/// Locks `m`, recovering from poisoning.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| {
        POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
        e.into_inner()
    })
}

/// Read-locks `l`, recovering from poisoning.
pub(crate) fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| {
        POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
        e.into_inner()
    })
}

/// Write-locks `l`, recovering from poisoning.
pub(crate) fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| {
        POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
        e.into_inner()
    })
}

/// How often a blocked rank looks at the [`Liveness`] record when
/// nobody notifies it.
const TICK: Duration = Duration::from_millis(10);

/// The per-run record of the first rank to panic.
#[derive(Debug, Default)]
pub(crate) struct Liveness(OnceLock<usize>);

impl Liveness {
    /// The first rank to panic in this run, if any.
    pub(crate) fn dead(&self) -> Option<usize> {
        self.0.get().copied()
    }

    /// A guard for `rank`'s thread: dropped by a panic's unwind, it
    /// records `rank` as dead unless an earlier rank already is.
    pub(crate) fn watch(&self, rank: usize) -> Watch<'_> {
        Watch { live: self, rank }
    }
}

/// See [`Liveness::watch`].
pub(crate) struct Watch<'a> {
    live: &'a Liveness,
    rank: usize,
}

impl Drop for Watch<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Only the first rank to die is recorded.
            let _ = self.live.0.set(self.rank);
        }
    }
}

/// Blocks on `cv` until `ready` holds for the guarded state, and returns
/// the guard with it holding. Panics with "peer rank r panicked" instead,
/// after dropping the guard, once `live` records a dead rank and `ready`
/// still does not hold.
pub(crate) fn wait_until<'a, T>(
    live: &Liveness,
    cv: &Condvar,
    mut guard: MutexGuard<'a, T>,
    ready: impl Fn(&T) -> bool,
) -> MutexGuard<'a, T> {
    while !ready(&guard) {
        if let Some(rank) = live.dead() {
            drop(guard);
            panic!("peer rank {rank} panicked");
        }
        guard = match cv.wait_timeout(guard, TICK) {
            Ok((g, _)) => g,
            Err(e) => {
                POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
                e.into_inner().0
            }
        };
    }
    guard
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn mutex_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("holder dies");
        })
        .join();
        // The lock is poisoned; a plain unwrap would propagate the panic.
        assert!(m.lock().is_err());
        assert_eq!(*lock(&m), 7, "poison-tolerant lock still works");
    }

    #[test]
    fn recoveries_are_asserted_as_deltas_not_absolutes() {
        // Snapshot first: the counter is process-global and the two
        // panicking-holder tests in this module (plus anything else in
        // the test binary) bump it concurrently, so `== 0` or any other
        // absolute assertion would be order-dependent.
        let before = crate::check::poison_snapshot();
        let m = Arc::new(Mutex::new(1u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("holder dies");
        })
        .join();
        assert_eq!(*lock(&m), 1);
        // This thread performed exactly one recovery; concurrent tests
        // can only add to the delta, so `>= 1` is the robust form.
        assert!(
            crate::check::recoveries_since(before) >= 1,
            "the recovery above must be visible in the delta"
        );
    }

    #[test]
    fn rwlock_survives_a_panicking_writer() {
        let l = Arc::new(RwLock::new(vec![1u8, 2, 3]));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let mut g = l2.write().unwrap();
            g[0] = 9;
            panic!("writer dies");
        })
        .join();
        assert_eq!(read(&l)[0], 9, "completed writes are visible");
        write(&l)[1] = 8;
        assert_eq!(&*read(&l), &[9, 8, 3]);
    }
}
