//! Cross-crate integration tests: CLaMPI's consistency semantics over the
//! RMA simulator (the paper's Sec. II/III-A contract).

use clampi_repro::clampi::{AccessType, CacheParams, CachedWindow, ClampiConfig, Mode};
use clampi_repro::clampi_datatype::Datatype;
use clampi_repro::clampi_rma::{run, run_collect, SimConfig};

fn cfg(mode: Mode) -> ClampiConfig {
    ClampiConfig::fixed(
        mode,
        CacheParams {
            index_entries: 1024,
            storage_bytes: 1 << 20,
            ..CacheParams::default()
        },
    )
}

#[test]
fn transparent_mode_never_serves_stale_data() {
    // Writer updates its window between epochs; a transparent-mode reader
    // must observe every update (the cache dies at each epoch closure).
    run(SimConfig::checked(), 2, |p| {
        let mut win = CachedWindow::create(p, 64, cfg(Mode::Transparent));
        for round in 0..5u8 {
            if p.rank() == 1 {
                win.local_mut()[..4].copy_from_slice(&[round; 4]);
            }
            p.barrier();
            if p.rank() == 0 {
                win.lock_all(p);
                let mut buf = [0u8; 4];
                let class = win.get(p, &mut buf, 1, 0, &Datatype::bytes(4), 1);
                win.flush(p, 1);
                assert_eq!(buf, [round; 4], "stale data in round {round}");
                assert_ne!(
                    class,
                    Some(AccessType::Hit),
                    "transparent mode must not hit across epochs"
                );
                win.unlock_all(p);
            }
            p.barrier();
        }
    });
}

#[test]
fn always_cache_hits_across_epochs() {
    run(SimConfig::checked(), 2, |p| {
        let mut win = CachedWindow::create(p, 64, cfg(Mode::AlwaysCache));
        if p.rank() == 1 {
            win.local_mut()[..8].copy_from_slice(b"constant");
        }
        p.barrier();
        if p.rank() == 0 {
            win.lock_all(p);
            let mut buf = [0u8; 8];
            win.get(p, &mut buf, 1, 0, &Datatype::bytes(8), 1);
            win.flush(p, 1);
            for _ in 0..10 {
                let class = win.get(p, &mut buf, 1, 0, &Datatype::bytes(8), 1);
                assert_eq!(class, Some(AccessType::Hit));
                assert_eq!(&buf, b"constant");
                win.flush(p, 1); // epoch closures do not invalidate
            }
            assert_eq!(win.stats().hits, 10);
            win.unlock_all(p);
        }
        p.barrier();
    });
}

#[test]
fn user_defined_invalidate_ends_the_read_only_phase() {
    // Listing 1 of the paper: a block of read-only epochs, then
    // CLAMPI_Invalidate, then the data may change.
    run(SimConfig::checked(), 2, |p| {
        let mut win = CachedWindow::create(p, 64, cfg(Mode::UserDefined));
        if p.rank() == 1 {
            win.local_mut()[..4].copy_from_slice(&[1; 4]);
        }
        p.barrier();
        if p.rank() == 0 {
            win.lock_all(p);
            let mut buf = [0u8; 4];
            win.get(p, &mut buf, 1, 0, &Datatype::bytes(4), 1);
            win.flush(p, 1);
            let class = win.get(p, &mut buf, 1, 0, &Datatype::bytes(4), 1);
            assert_eq!(class, Some(AccessType::Hit));
            win.invalidate(p);
            win.unlock_all(p);
        }
        p.barrier();
        // Phase 2: the writer changes the data; the reader must re-fetch.
        if p.rank() == 1 {
            win.local_mut()[..4].copy_from_slice(&[2; 4]);
        }
        p.barrier();
        if p.rank() == 0 {
            win.lock_all(p);
            let mut buf = [0u8; 4];
            let class = win.get(p, &mut buf, 1, 0, &Datatype::bytes(4), 1);
            win.flush(p, 1);
            assert_ne!(class, Some(AccessType::Hit));
            assert_eq!(buf, [2; 4]);
            win.unlock_all(p);
        }
        p.barrier();
    });
}

#[test]
fn cached_and_plain_gets_agree_bytewise() {
    // Random-ish access pattern: every cached read must equal the plain
    // RMA read, whatever the hit/miss/eviction sequence was.
    let out = run_collect(SimConfig::checked(), 3, |p| {
        let mut cached = CachedWindow::create(
            p,
            4096,
            ClampiConfig::fixed(
                Mode::AlwaysCache,
                CacheParams {
                    index_entries: 32,       // force conflicts
                    storage_bytes: 16 << 10, // force capacity pressure
                    ..CacheParams::default()
                },
            ),
        );
        let mut plain = CachedWindow::create(p, 4096, ClampiConfig::disabled());
        {
            let mut a = cached.local_mut();
            let mut b = plain.local_mut();
            for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
                let v = (i as u8).wrapping_mul(p.rank() as u8 + 3);
                *x = v;
                *y = v;
            }
        }
        p.barrier();
        cached.lock_all(p);
        plain.lock_all(p);
        let mut mismatches = 0;
        let mut state = 0x9E3779B97F4A7C15u64 ^ p.rank() as u64;
        for _ in 0..500 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let target = (state >> 8) as usize % p.nranks();
            let disp = (state >> 16) as usize % 3800;
            let len = 1 + (state >> 32) as usize % (4096 - disp).min(600);
            let dt = Datatype::bytes(len);
            let mut a = vec![0u8; len];
            let mut b = vec![1u8; len];
            let class = cached.get(p, &mut a, target, disp, &dt, 1);
            if class != Some(AccessType::Hit) {
                cached.flush(p, target);
            }
            plain.get(p, &mut b, target, disp, &dt, 1);
            plain.flush(p, target);
            if a != b {
                mismatches += 1;
            }
        }
        cached.unlock_all(p);
        plain.unlock_all(p);
        p.barrier();
        (mismatches, cached.stats())
    });
    for (rep, (mismatches, stats)) in &out {
        assert_eq!(*mismatches, 0, "rank {} saw divergent reads", rep.rank);
        assert!(stats.total_gets >= 500);
        // The stress parameters must actually have exercised evictions.
        assert!(
            stats.conflicting + stats.capacity + stats.failed > 0,
            "rank {}: stress run produced no evictions: {stats:?}",
            rep.rank
        );
    }
}

#[test]
fn adaptive_run_is_deterministic() {
    let run_once = || {
        run_collect(SimConfig::checked(), 2, |p| {
            let mut win = CachedWindow::create(
                p,
                1 << 16,
                ClampiConfig::adaptive(
                    Mode::AlwaysCache,
                    CacheParams {
                        index_entries: 64,
                        storage_bytes: 8 << 10,
                        ..CacheParams::default()
                    },
                ),
            );
            p.barrier();
            if p.rank() == 0 {
                win.lock_all(p);
                let mut buf = vec![0u8; 512];
                for i in 0..5000usize {
                    let disp = (i * 7919) % ((1 << 16) - 512);
                    let class = win.get(p, &mut buf, 1, disp, &Datatype::bytes(512), 1);
                    if class != Some(AccessType::Hit) {
                        win.flush(p, 1);
                    }
                }
                win.unlock_all(p);
            }
            p.barrier();
            (win.stats(), p.now())
        })
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(
        a[0].1 .0, b[0].1 .0,
        "stats diverged between identical runs"
    );
    assert_eq!(a[0].1 .1, b[0].1 .1, "virtual time diverged");
}

#[test]
fn disabled_mode_is_pure_passthrough() {
    let out = run_collect(SimConfig::checked(), 2, |p| {
        let mut win = CachedWindow::create(p, 256, ClampiConfig::disabled());
        if p.rank() == 1 {
            win.local_mut()[100] = 42;
        }
        p.barrier();
        let mut hit = None;
        if p.rank() == 0 {
            win.lock_all(p);
            let mut b = [0u8; 1];
            hit = win.get(p, &mut b, 1, 100, &Datatype::bytes(1), 1);
            win.flush(p, 1);
            assert_eq!(b[0], 42);
            win.unlock_all(p);
        }
        p.barrier();
        (hit, win.stats().total_gets)
    });
    assert_eq!(out[0].1 .0, None, "disabled mode must not classify");
    assert_eq!(out[0].1 .1, 0, "disabled mode must not count");
}

#[test]
fn two_windows_have_independent_caches() {
    run(SimConfig::checked(), 2, |p| {
        let mut w1 = CachedWindow::create(p, 64, cfg(Mode::AlwaysCache));
        let mut w2 = CachedWindow::create(p, 64, cfg(Mode::AlwaysCache));
        if p.rank() == 1 {
            w1.local_mut()[..2].copy_from_slice(&[1, 1]);
            w2.local_mut()[..2].copy_from_slice(&[2, 2]);
        }
        p.barrier();
        if p.rank() == 0 {
            w1.lock_all(p);
            w2.lock_all(p);
            let mut b = [0u8; 2];
            w1.get(p, &mut b, 1, 0, &Datatype::bytes(2), 1);
            w1.flush(p, 1);
            assert_eq!(b, [1, 1]);
            // Same (target, disp) key on the other window: must miss and
            // fetch the other window's bytes.
            let class = w2.get(p, &mut b, 1, 0, &Datatype::bytes(2), 1);
            w2.flush(p, 1);
            assert_ne!(class, Some(AccessType::Hit));
            assert_eq!(b, [2, 2]);
            w1.unlock_all(p);
            w2.unlock_all(p);
        }
        p.barrier();
    });
}

#[test]
fn partial_hits_extend_through_the_window_api() {
    run(SimConfig::checked(), 2, |p| {
        let mut win = CachedWindow::create(p, 1024, cfg(Mode::AlwaysCache));
        if p.rank() == 1 {
            let mut m = win.local_mut();
            for (i, b) in m.iter_mut().enumerate() {
                *b = i as u8;
            }
        }
        p.barrier();
        if p.rank() == 0 {
            win.lock_all(p);
            let mut small = [0u8; 100];
            win.get(p, &mut small, 1, 0, &Datatype::bytes(100), 1);
            win.flush(p, 1);
            // Larger request at the same displacement: partial hit.
            let mut big = [0u8; 300];
            let class = win.get(p, &mut big, 1, 0, &Datatype::bytes(300), 1);
            win.flush(p, 1);
            assert_ne!(class, Some(AccessType::Hit));
            for (i, &b) in big.iter().enumerate() {
                assert_eq!(b, i as u8, "byte {i}");
            }
            assert_eq!(win.stats().partial_hits, 1);
            // And now the big one hits.
            let class = win.get(p, &mut big, 1, 0, &Datatype::bytes(300), 1);
            assert_eq!(class, Some(AccessType::Hit));
            win.unlock_all(p);
        }
        p.barrier();
    });
}
