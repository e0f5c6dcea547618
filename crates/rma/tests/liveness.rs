//! A rank that panics fails the run instead of hanging it.
//!
//! Each test kills rank 1 with its own message while rank 0 blocks on it
//! at one blocking site: a barrier, an allgather and a broadcast (the
//! collectives' one rendezvous; `lock_all` never blocks). Rank 0 must
//! learn of the death and `run` must re-raise rank 1's own panic, not
//! rank 0's "peer rank 1 panicked". The run goes on a helper thread
//! behind a timeout, so a regression fails the test instead of hanging
//! the suite.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use clampi_rma::{run, Process, SimConfig};

/// Runs `body` on two ranks and returns the message of the panic `run`
/// re-raises.
fn reraised(body: impl Fn(&mut Process) + Send + Sync + 'static) -> String {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let out = catch_unwind(AssertUnwindSafe(|| run(SimConfig::default(), 2, &body)));
        let _ = tx.send(out.err().map(message));
    });
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(Some(msg)) => msg,
        Ok(None) => panic!("the run returned although rank 1 panicked"),
        Err(_) => panic!("the run hung: rank 0 never learned that rank 1 died"),
    }
}

fn message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast_ref::<&str>().map_or("?", |s| s).to_string(),
    }
}

#[test]
fn a_rank_dying_before_a_barrier_fails_the_run() {
    let msg = reraised(|p| {
        if p.rank() == 1 {
            panic!("rank 1 dies before the barrier");
        }
        p.barrier();
    });
    assert_eq!(msg, "rank 1 dies before the barrier");
}

#[test]
fn a_rank_dying_before_an_allgather_fails_the_run() {
    let msg = reraised(|p| {
        if p.rank() == 1 {
            panic!("rank 1 dies before the allgather");
        }
        p.allgather(p.rank());
    });
    assert_eq!(msg, "rank 1 dies before the allgather");
}

#[test]
fn a_root_dying_before_its_bcast_fails_the_run() {
    let msg = reraised(|p| {
        if p.rank() == 1 {
            panic!("rank 1 dies before its bcast");
        }
        p.bcast::<u64>(1, None);
    });
    assert_eq!(msg, "rank 1 dies before its bcast");
}
