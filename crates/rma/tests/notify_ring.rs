//! Unit tests for the coherence primitives at the simulator layer:
//! per-target window version counters and the bounded put-notification
//! ring (see `clampi-rma`'s window module and `docs/INTERNALS.md`
//! § Coherence).

use clampi_datatype::Datatype;
use clampi_rma::{run, run_collect, SimConfig};

#[test]
fn versions_bump_on_puts_not_on_gets() {
    run(SimConfig::checked(), 2, |p| {
        let mut win = p.win_allocate(64);
        p.barrier();
        if p.rank() == 0 {
            win.lock_all(p);
            assert_eq!(win.version(1), 0, "fresh window starts at version 0");

            win.put(p, &[7u8; 8], 1, 0, &Datatype::bytes(8), 1);
            win.flush(p, 1);
            assert_eq!(win.version(1), 1);

            // Reads never bump anything.
            let mut buf = [0u8; 8];
            win.get(p, &mut buf, 1, 0, &Datatype::bytes(8), 1);
            win.flush(p, 1);
            assert_eq!(win.version(1), 1);
            win.unlock_all(p);
        }
        p.barrier();
        // The owner sees the same counter, locally and for free.
        if p.rank() == 1 {
            assert_eq!(win.version(1), 1);
            assert_eq!(win.version(0), 0, "untouched target stays at 0");
        }
        p.barrier();
    });
}

#[test]
fn drain_returns_records_after_cursor_and_tracks_overflow() {
    let cfg = SimConfig::checked().with_notify_ring_cap(4);
    run(cfg, 2, |p| {
        let mut win = p.win_allocate(256);
        p.barrier();
        if p.rank() == 0 {
            win.lock_all(p);
            for i in 0..3u64 {
                win.put(
                    p,
                    &[i as u8; 16],
                    1,
                    16 * i as usize,
                    &Datatype::bytes(16),
                    1,
                );
            }
            win.flush(p, 1);

            let mut out = Vec::new();
            let d = win.try_drain_notifications(p, 1, 0, &mut out).unwrap();
            assert!(!d.overflowed);
            assert_eq!(d.version, 3);
            assert_eq!(d.drained, 3);
            // Commit timestamps depend on the writer's virtual clock, so
            // compare the deterministic fields and pin the timestamp's
            // *ordering* contract separately below.
            assert_eq!(
                out.iter()
                    .map(|r| (r.origin, r.disp, r.len, r.version))
                    .collect::<Vec<_>>(),
                vec![(0, 0, 16, 1), (0, 16, 16, 2), (0, 32, 16, 3)]
            );
            assert!(
                out.windows(2).all(|w| w[0].ts < w[1].ts),
                "commit timestamps are strictly increasing in version order"
            );
            assert!(out[0].ts >= 1, "timestamps start above the zero epoch");

            // Cursor semantics: an up-to-date cursor drains nothing.
            out.clear();
            let d = win.try_drain_notifications(p, 1, 3, &mut out).unwrap();
            assert_eq!((d.drained, d.overflowed), (0, false));
            assert!(out.is_empty());

            // 5 more puts through a 4-slot ring push the oldest record
            // out: a cursor at 3 has lost version 4 — overflow — while
            // a cursor inside the retained tail is still fine.
            for i in 0..5u64 {
                win.put(p, &[0xAA; 8], 1, 8 * i as usize, &Datatype::bytes(8), 1);
            }
            win.flush(p, 1);
            out.clear();
            let d = win.try_drain_notifications(p, 1, 3, &mut out).unwrap();
            assert!(d.overflowed, "a dropped-past cursor must report overflow");
            assert_eq!(d.version, 8);
            out.clear();
            let d = win.try_drain_notifications(p, 1, 4, &mut out).unwrap();
            assert!(!d.overflowed);
            assert_eq!(d.drained, 4, "versions 5..=8 are retained");
            assert_eq!(out.first().map(|r| r.version), Some(5));
            win.unlock_all(p);
        }
        p.barrier();
    });
}

#[test]
fn get_stamp_and_horizon_expose_exact_commit_timestamps() {
    let cfg = SimConfig::checked().with_notify_ring_cap(2);
    run(cfg, 2, |p| {
        let mut win = p.win_allocate(64);
        p.barrier();
        if p.rank() == 0 {
            win.lock_all(p);
            // Before any write: stamps and horizon are all zero.
            assert_eq!(win.last_get_stamp(), clampi_rma::GetStamp::default());
            let h0 = win.notify_horizon(1);
            assert_eq!((h0.version, h0.last_ts, h0.now_ts), (0, 0, 0));

            win.put(p, &[1u8; 8], 1, 0, &Datatype::bytes(8), 1);
            win.flush(p, 1);
            let mut buf = [0u8; 8];
            win.get(p, &mut buf, 1, 0, &Datatype::bytes(8), 1);
            win.flush(p, 1);
            let s1 = win.last_get_stamp();
            assert_eq!(s1.version, 1);
            assert!(s1.ts >= 1);

            // A second write advances both the stamp a fresh get sees
            // and the horizon's clock, strictly.
            win.put(p, &[2u8; 8], 1, 8, &Datatype::bytes(8), 1);
            win.flush(p, 1);
            win.get(p, &mut buf, 1, 0, &Datatype::bytes(8), 1);
            win.flush(p, 1);
            let s2 = win.last_get_stamp();
            assert_eq!(s2.version, 2);
            assert!(s2.ts > s1.ts);
            let h = win.notify_horizon(1);
            assert_eq!((h.version, h.last_ts), (2, s2.ts));
            assert_eq!(h.now_ts, s2.ts, "single-target run: clock == last ts");
            assert_eq!(h.dropped_through, 0, "2-cap ring retains both records");

            // Overflow the 2-slot ring: the evicted record's (version,
            // ts) become the horizon watermark, and a drain reports the
            // same clock sample it validated against.
            win.put(p, &[3u8; 8], 1, 16, &Datatype::bytes(8), 1);
            win.flush(p, 1);
            let h = win.notify_horizon(1);
            assert_eq!(h.dropped_through, 1);
            assert_eq!(h.dropped_through_ts, s1.ts);
            let mut out = Vec::new();
            let d = win.try_drain_notifications(p, 1, 1, &mut out).unwrap();
            assert!(!d.overflowed);
            assert_eq!(d.now_ts, h.now_ts);
            assert!(out.iter().all(|r| r.ts > s1.ts));
            win.unlock_all(p);
        }
        p.barrier();
    });
}

#[test]
fn zero_capacity_ring_always_overflows_behind_writes() {
    let cfg = SimConfig::checked().with_notify_ring_cap(0);
    run(cfg, 2, |p| {
        let mut win = p.win_allocate(64);
        p.barrier();
        if p.rank() == 0 {
            win.lock_all(p);
            let mut out = Vec::new();
            // No writes yet: nothing lost, nothing to report.
            let d = win.try_drain_notifications(p, 1, 0, &mut out).unwrap();
            assert!(!d.overflowed);
            win.put(p, &[1u8; 8], 1, 0, &Datatype::bytes(8), 1);
            win.flush(p, 1);
            let d = win.try_drain_notifications(p, 1, 0, &mut out).unwrap();
            assert!(d.overflowed, "cap 0 must overflow as soon as a put lands");
            assert_eq!(d.version, 1);
            assert!(out.is_empty());
            win.unlock_all(p);
        }
        p.barrier();
    });
}

/// The commit clock under concurrent writers: ranks 1..n put to target 0
/// at once, then rank 0 drains. Drained timestamps follow version order,
/// none exceeds the drain's `now_ts`, and a put issued after the drain
/// stamps above it — the two properties the snapshot layer builds on —
/// and no stamp falls behind its writer's virtual time.
#[test]
fn concurrent_writers_stamp_in_version_order_under_the_drain_cap() {
    const PUTS: usize = 8;
    let n = 4;
    let out = run_collect(SimConfig::checked(), n, |p| {
        let mut win = p.win_allocate(n * PUTS * 8);
        p.barrier();
        let me = p.rank();
        if me != 0 {
            win.lock_all(p);
            for i in 0..PUTS {
                let disp = (me * PUTS + i) * 8;
                win.put(p, &[me as u8; 8], 0, disp, &Datatype::bytes(8), 1);
            }
            win.unlock_all(p);
        }
        p.barrier();
        let mut first = (Vec::new(), 0);
        if me == 0 {
            let d = win.try_drain_notifications(p, 0, 0, &mut first.0).unwrap();
            first.1 = d.now_ts;
        }
        p.barrier();
        let mut put_at = 0;
        if me == 1 {
            win.lock_all(p);
            put_at = p.now() as u64;
            win.put(p, &[9u8; 8], 0, 0, &Datatype::bytes(8), 1);
            win.unlock_all(p);
        }
        p.barrier();
        let mut later = Vec::new();
        if me == 0 {
            let cursor = first.0.last().map_or(0, |r| r.version);
            win.try_drain_notifications(p, 0, cursor, &mut later)
                .unwrap();
        }
        (first, later, put_at)
    });
    let ((records, now_ts), later, _) = &out[0].1;
    assert_eq!(records.len(), (n - 1) * PUTS, "every put was drained");
    assert!(
        records
            .windows(2)
            .all(|w| w[0].version + 1 == w[1].version && w[0].ts < w[1].ts),
        "ts order must be version order: {records:?}"
    );
    assert!(
        records.iter().all(|r| r.ts <= *now_ts),
        "a drained ts above now_ts {now_ts}: {records:?}"
    );
    assert_eq!(later.len(), 1, "the post-drain put is drained next");
    assert!(
        later[0].ts > *now_ts,
        "a put after the drain stamped {} <= now_ts {now_ts}",
        later[0].ts
    );
    let put_at = out[1].1 .2;
    assert!(
        put_at > 0 && later[0].ts >= put_at,
        "stamp {} behind the writer's virtual now {put_at}",
        later[0].ts
    );
}
