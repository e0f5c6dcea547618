//! A window with caching disabled is the plain RMA window: the paper's
//! foMPI baseline is CLaMPI disabled, and every foMPI series in the
//! figures, apps and benchmark runs on `ClampiConfig::disabled()`.
//!
//! One schedule runs on a raw `clampi_rma::Window` and on
//! `CachedWindow::create(.., ClampiConfig::disabled())`, two ranks each
//! reading from and writing to the other, through two `lock_all` epochs
//! (one completed by `flush` towards the peer, one by `flush_all`), with
//! contiguous and strided datatypes and a mix of `get`, `get_nb` + flush
//! and `put`. After every step both runs must read the same bytes at a
//! bit-equal `p.now()`.
//!
//! Within an epoch, gets and puts touch disjoint bytes, and a rank copies
//! its own region only after the synchronisation that completes the
//! peer's puts into it and before the peer can write again, so every
//! recorded byte is deterministic.

use clampi::{CachedWindow, ClampiConfig};
use clampi_datatype::Datatype;
use clampi_rma::{run_collect, Process, SimConfig, Window};

const WIN: usize = 4096;

fn truth(rank: usize, d: usize) -> u8 {
    (rank.wrapping_mul(131).wrapping_add(d * 7)) as u8
}

/// The window under test: raw, or fronted by a disabled cache.
enum Side {
    Plain(Window),
    Disabled(Box<CachedWindow>),
}

/// Forwards each call to the window the side holds: both window types
/// name these methods alike and take the same arguments.
macro_rules! forward {
    ($($name:ident($($arg:ident: $ty:ty),*);)*) => {
        impl Side {
            $(fn $name(&mut self, p: &mut Process, $($arg: $ty),*) {
                match self {
                    Side::Plain(w) => {
                        w.$name(p, $($arg),*);
                    }
                    Side::Disabled(w) => {
                        w.$name(p, $($arg),*);
                    }
                }
            })*
        }
    };
}

forward! {
    get(dst: &mut [u8], target: usize, disp: usize, dtype: &Datatype, count: usize);
    put(src: &[u8], target: usize, disp: usize, dtype: &Datatype, count: usize);
    flush(target: usize);
    flush_all();
    lock_all();
    unlock_all();
}

impl Side {
    /// A get completed by a later flush: `get_nb` on the cached window;
    /// on the raw one every get already completes only at the next flush.
    fn get_nb(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
        dtype: &Datatype,
    ) {
        match self {
            Side::Plain(w) => w.get(p, dst, target, disp, dtype, 1),
            Side::Disabled(w) => {
                w.get_nb(p, dst, target, disp, dtype, 1);
            }
        }
    }

    fn local(&self) -> Vec<u8> {
        match self {
            Side::Plain(w) => w.local_ref().to_vec(),
            Side::Disabled(w) => w.local_ref().to_vec(),
        }
    }
}

/// One recorded step: its name, the bytes it made consumable, the clock.
type Step = (&'static str, Vec<u8>, f64);

fn note(log: &mut Vec<Step>, p: &Process, label: &'static str, bytes: &[u8]) {
    log.push((label, bytes.to_vec(), p.now()));
}

/// Records this rank's own region between two barriers: the first waits
/// for the peer's epoch to end (its puts complete), the second keeps the
/// peer's next epoch from writing before the copy is taken.
fn settled_region(log: &mut Vec<Step>, p: &mut Process, w: &Side, label: &'static str) {
    p.barrier();
    note(log, p, label, &w.local());
    p.barrier();
}

/// Runs the schedule on two ranks; each rank's steps, by rank.
fn run(disabled: bool) -> Vec<Vec<Step>> {
    let out = run_collect(SimConfig::default(), 2, move |p| {
        let mut w = if disabled {
            Side::Disabled(Box::new(CachedWindow::create(
                p,
                WIN,
                ClampiConfig::disabled(),
            )))
        } else {
            Side::Plain(p.win_allocate(WIN))
        };
        let (me, peer) = (p.rank(), 1 - p.rank());
        match &w {
            Side::Plain(win) => win.local_mut(),
            Side::Disabled(win) => win.local_mut(),
        }
        .iter_mut()
        .enumerate()
        .for_each(|(d, b)| *b = truth(me, d));
        p.barrier();

        let contig = Datatype::bytes(64);
        // 4 blocks of 8 bytes, 16 apart: 32 bytes over a 56-byte extent.
        let strided = Datatype::vector(4, 8, 16, Datatype::bytes(1));
        let src: Vec<u8> = (0..64).map(|i| (i * 3 + me) as u8).collect();
        let (mut c, mut s) = (vec![0u8; 64], vec![0u8; 32]);
        let mut log = Vec::new();

        // First epoch, one peer flushed: lock_all / get + flush / get_nb +
        // flush / put / unlock_all.
        w.lock_all(p);
        note(&mut log, p, "first lock_all", &[]);
        w.get(p, &mut c, peer, 0, &contig, 1);
        w.flush(p, peer);
        note(&mut log, p, "first epoch: get + flush", &c);
        w.get_nb(p, &mut s, peer, 128, &strided);
        w.get_nb(p, &mut c, peer, 256, &contig);
        w.flush(p, peer);
        note(&mut log, p, "first epoch: get_nb strided + flush", &s);
        note(&mut log, p, "first epoch: get_nb contig + flush", &c);
        w.put(p, &src, peer, 2048, &contig, 1);
        w.unlock_all(p);
        note(&mut log, p, "first unlock_all", &[]);
        settled_region(&mut log, p, &w, "first epoch: own region");

        // Second epoch: lock_all / flush / flush_all.
        w.lock_all(p);
        note(&mut log, p, "second lock_all", &[]);
        w.get(p, &mut s, peer, 2048, &strided, 1);
        w.flush(p, peer);
        note(&mut log, p, "second epoch: get strided + flush", &s);
        w.get_nb(p, &mut c, peer, 512, &contig);
        w.get_nb(p, &mut s, peer, 1024, &strided);
        w.put(p, &src[..32], peer, 3072, &strided, 1);
        w.flush_all(p);
        note(&mut log, p, "second epoch: get_nb contig + flush_all", &c);
        note(&mut log, p, "second epoch: get_nb strided + flush_all", &s);
        w.unlock_all(p);
        note(&mut log, p, "second unlock_all", &[]);
        settled_region(&mut log, p, &w, "second epoch: own region");

        log
    });
    let mut by_rank: Vec<_> = out.into_iter().map(|(rep, log)| (rep.rank, log)).collect();
    by_rank.sort_by_key(|&(rank, _)| rank);
    by_rank.into_iter().map(|(_, log)| log).collect()
}

#[test]
fn a_disabled_window_reads_and_times_like_the_plain_window() {
    let (plain, disabled) = (run(false), run(true));
    for (rank, (a, b)) in plain.iter().zip(&disabled).enumerate() {
        assert_eq!(a.len(), b.len(), "rank {rank}: step counts differ");
        for ((label, bytes_a, now_a), (_, bytes_b, now_b)) in a.iter().zip(b) {
            assert_eq!(bytes_a, bytes_b, "rank {rank}, {label}: bytes differ");
            assert_eq!(
                now_a.to_bits(),
                now_b.to_bits(),
                "rank {rank}, {label}: clock {now_a} (plain) vs {now_b} (disabled)"
            );
        }
        // The schedule reads what it should, so equality is not vacuous.
        let peer = 1 - rank;
        let first: Vec<u8> = (0..64).map(|d| truth(peer, d)).collect();
        assert_eq!(a[1].1, first, "rank {rank}: first get");
        assert!(a.last().is_some_and(|s| s.2 > 0.0));
    }
}
