//! Tests of the weak-caching design choice (Sec. III-D2) and the
//! per-operation bypass extension.

use clampi::cache::{CacheParams, LayoutSig, Lookup, RmaCache};
use clampi::index::GetKey;
use clampi::{AccessType, CacheCostModel};

fn key(d: u64) -> GetKey {
    GetKey { target: 0, disp: d }
}

/// Drives one miss-then-cache cycle.
fn insert(c: &mut RmaCache, k: GetKey, len: usize) -> AccessType {
    let sig = LayoutSig::Contig(len);
    let data = vec![3u8; len];
    let mut dst = vec![0u8; len];
    match c.process_lookup(k, &sig, &mut dst) {
        Lookup::Miss => {
            let t = c.finish_miss(k, sig, &data, 0);
            c.epoch_close();
            t
        }
        other => panic!("expected miss, got {other:?}"),
    }
}

fn params(budget: usize) -> CacheParams {
    CacheParams {
        index_entries: 256,
        storage_bytes: 2048, // 32 small or 4 large entries
        max_evictions_per_miss: budget,
        costs: CacheCostModel::free(),
        ..CacheParams::default()
    }
}

#[test]
fn weak_caching_fails_big_inserts_after_one_eviction() {
    // Fill with 32 small (64 B) entries, then request one 512 B entry:
    // a single eviction frees at most ~64 B (plus neighbours), so the
    // paper's weak caching gives up.
    let mut c = RmaCache::new(params(1));
    for i in 0..32u64 {
        assert_eq!(insert(&mut c, key(i * 100), 64), AccessType::Direct);
    }
    assert_eq!(c.free_bytes(), 0);
    let t = insert(&mut c, key(9999), 512);
    assert_eq!(
        t,
        AccessType::Failed,
        "one eviction cannot fit 8 entries' worth"
    );
    // Exactly one eviction attempt ran (constant overhead guarantee).
    assert_eq!(c.stats().evictions, 1);
}

#[test]
fn larger_eviction_budget_eventually_fits_big_inserts() {
    // With a budget of 32 the allocator may keep evicting until a hole of
    // 512 contiguous bytes appears.
    let mut c = RmaCache::new(params(32));
    for i in 0..32u64 {
        insert(&mut c, key(i * 100), 64);
    }
    let t = insert(&mut c, key(9999), 512);
    assert!(
        matches!(t, AccessType::Capacity),
        "a generous budget should succeed, got {t:?}"
    );
    assert!(c.stats().evictions > 1, "needed multiple evictions");
    // The new entry is servable.
    let mut dst = vec![0u8; 512];
    assert_eq!(
        c.process_lookup(key(9999), &LayoutSig::Contig(512), &mut dst),
        Lookup::Hit
    );
}

#[test]
fn budget_zero_behaves_like_one() {
    let mut c = RmaCache::new(params(0));
    for i in 0..32u64 {
        insert(&mut c, key(i * 100), 64);
    }
    let t = insert(&mut c, key(777), 64);
    assert_eq!(t, AccessType::Capacity, "clamped budget still evicts once");
}

/// An always-cache window stays coherent with the issuing rank's own puts
/// under `EagerInvalidate`: they land in the target's notification ring
/// like anyone's and are drained at the next flush.
mod own_put_coherence {
    use clampi::{AccessType, CacheParams, CachedWindow, ClampiConfig, CoherenceMode, Mode};
    use clampi_datatype::Datatype;
    use clampi_rma::{run, SimConfig};

    fn cfg() -> ClampiConfig {
        ClampiConfig {
            mode: Mode::AlwaysCache,
            params: CacheParams {
                coherence: CoherenceMode::EagerInvalidate,
                ..CacheParams::default()
            },
            ..ClampiConfig::default()
        }
    }

    #[test]
    fn own_puts_drop_overlapping_entries_only() {
        run(SimConfig::default(), 2, |p| {
            let mut win = CachedWindow::create(p, 256, cfg());
            if p.rank() == 1 {
                win.local_mut().fill(7);
            }
            p.barrier();
            if p.rank() == 0 {
                win.lock_all(p);
                let dt = Datatype::bytes(16);
                let mut b = [0u8; 16];
                win.get(p, &mut b, 1, 0, &dt, 1); // entry A: [0,16)
                win.get(p, &mut b, 1, 128, &dt, 1); // entry B: [128,144)
                win.flush(p, 1);

                // Put overlapping entry A only.
                let newdata = [9u8; 16];
                win.put(p, &newdata, 1, 8, &dt, 1);
                win.flush(p, 1);

                // A must re-fetch (and see the new bytes), B still hits.
                let class_a = win.get(p, &mut b, 1, 0, &dt, 1);
                win.flush(p, 1);
                assert_ne!(class_a, Some(AccessType::Hit), "stale overlap survived");
                assert_eq!(&b[8..], &[9u8; 8], "re-fetch missed the put");
                let class_b = win.get(p, &mut b, 1, 128, &dt, 1);
                assert_eq!(
                    class_b,
                    Some(AccessType::Hit),
                    "non-overlapping entry dropped"
                );
                win.unlock_all(p);
            }
            p.barrier();
        });
    }

    #[test]
    fn uncached_get_bypasses_the_cache() {
        run(SimConfig::default(), 2, |p| {
            let mut win = CachedWindow::create(p, 64, cfg());
            if p.rank() == 1 {
                win.local_mut().fill(3);
            }
            p.barrier();
            if p.rank() == 0 {
                win.lock_all(p);
                let dt = Datatype::bytes(8);
                let mut b = [0u8; 8];
                win.get_uncached(p, &mut b, 1, 0, &dt, 1);
                win.flush(p, 1);
                assert_eq!(b, [3u8; 8]);
                assert_eq!(win.stats().total_gets, 0, "bypass must not touch the cache");
                // A normal get afterwards misses (nothing was cached).
                let class = win.get(p, &mut b, 1, 0, &dt, 1);
                assert_ne!(class, Some(AccessType::Hit));
                win.unlock_all(p);
            }
            p.barrier();
        });
    }
}

/// Exact LRU is `Temporal` at `M = |I_w|`: the victim scan visits every
/// slot, so the lowest `R_T` is the globally least-recent entry.
mod temporal_full_scan {
    use clampi::cache::{CacheParams, LayoutSig, Lookup, RmaCache};
    use clampi::index::GetKey;
    use clampi::{AccessType, CacheCostModel, VictimScheme};

    fn key(d: u64) -> GetKey {
        GetKey { target: 0, disp: d }
    }

    fn cache() -> RmaCache {
        RmaCache::new(CacheParams {
            index_entries: 64,
            storage_bytes: 4 * 512, // exactly four 512 B entries
            victim_scheme: VictimScheme::Temporal,
            sample_size: 64,
            costs: CacheCostModel::free(),
            ..CacheParams::default()
        })
    }

    fn insert(c: &mut RmaCache, k: GetKey) -> AccessType {
        let sig = LayoutSig::Contig(512);
        let data = vec![1u8; 512];
        let mut dst = vec![0u8; 512];
        match c.process_lookup(k, &sig, &mut dst) {
            Lookup::Miss => {
                let t = c.finish_miss(k, sig, &data, 0);
                c.epoch_close();
                t
            }
            other => panic!("expected miss, got {other:?}"),
        }
    }

    fn touch(c: &mut RmaCache, k: GetKey) {
        let mut dst = vec![0u8; 512];
        assert_eq!(
            c.process_lookup(k, &LayoutSig::Contig(512), &mut dst),
            Lookup::Hit,
            "touch of {k:?} missed"
        );
    }

    #[test]
    fn evicts_the_globally_oldest_entry() {
        let mut c = cache();
        for d in 0..4u64 {
            insert(&mut c, key(d * 1000));
        }
        // Refresh everyone except entry 1: it becomes the global LRU.
        touch(&mut c, key(0));
        touch(&mut c, key(2000));
        touch(&mut c, key(3000));

        assert_eq!(insert(&mut c, key(9000)), AccessType::Capacity);
        let mut dst = vec![0u8; 512];
        assert_eq!(
            c.process_lookup(key(1000), &LayoutSig::Contig(512), &mut dst),
            Lookup::Miss,
            "the untouched entry must have been the victim"
        );
        // Everyone else survived.
        for d in [0u64, 2000, 3000, 9000] {
            touch(&mut c, key(d));
        }
    }

    #[test]
    fn repeated_evictions_follow_recency_order() {
        let mut c = cache();
        for d in 0..4u64 {
            insert(&mut c, key(d * 1000));
        }
        // Insert four more: victims must be 0, 1000, 2000, 3000 in order.
        for (i, d) in [9000u64, 9100, 9200, 9300].iter().enumerate() {
            assert_eq!(insert(&mut c, key(*d)), AccessType::Capacity);
            let mut dst = vec![0u8; 512];
            assert_eq!(
                c.process_lookup(key(i as u64 * 1000), &LayoutSig::Contig(512), &mut dst),
                Lookup::Miss,
                "victim {i} out of LRU order"
            );
            c.epoch_close();
        }
    }
}

mod typed_origin_cached {
    use clampi::{AccessType, CacheParams, CachedWindow, ClampiConfig, Mode};
    use clampi_datatype::Datatype;
    use clampi_rma::{run, SimConfig};

    #[test]
    fn get_typed_hits_like_a_plain_get() {
        run(SimConfig::default(), 2, |p| {
            let mut win = CachedWindow::create(
                p,
                64,
                ClampiConfig::fixed(Mode::AlwaysCache, CacheParams::default()),
            );
            if p.rank() == 1 {
                let mut m = win.local_mut();
                for (i, b) in m.iter_mut().enumerate() {
                    *b = 100 + i as u8;
                }
            }
            p.barrier();
            if p.rank() == 0 {
                win.lock_all(p);
                let origin = Datatype::vector(2, 4, 8, Datatype::bytes(1));
                let mut dst = vec![0u8; 12];
                let c1 = win.get_typed(p, &mut dst, &origin, 1, 1, 0, &Datatype::bytes(8), 1);
                assert_ne!(c1, Some(AccessType::Hit));
                win.flush(p, 1);
                let mut dst2 = vec![0u8; 12];
                let c2 = win.get_typed(p, &mut dst2, &origin, 1, 1, 0, &Datatype::bytes(8), 1);
                assert_eq!(c2, Some(AccessType::Hit), "same target key must hit");
                assert_eq!(dst, dst2);
                assert_eq!(&dst[..4], &[100, 101, 102, 103]);
                assert_eq!(&dst[8..12], &[104, 105, 106, 107]);
                win.unlock_all(p);
            }
            p.barrier();
        });
    }
}

mod pscw_cached {
    use clampi::{AccessType, CacheParams, CachedWindow, ClampiConfig, Mode};
    use clampi_datatype::Datatype;
    use clampi_rma::{run, run_collect, SimConfig};

    #[test]
    fn caching_works_across_pscw_epochs() {
        // Two PSCW access epochs over a read-only window: the second
        // epoch's gets hit. Transparent mode instead invalidates at
        // `complete` and misses again — both semantics in one test.
        for (mode, expect_hit) in [(Mode::AlwaysCache, true), (Mode::Transparent, false)] {
            run(SimConfig::checked(), 2, |p| {
                let mut win =
                    CachedWindow::create(p, 64, ClampiConfig::fixed(mode, CacheParams::default()));
                if p.rank() == 0 {
                    win.local_mut()[..4].copy_from_slice(&[5, 6, 7, 8]);
                    for _ in 0..2 {
                        win.post(p, &[1]);
                        win.wait(p, &[1]);
                    }
                } else {
                    let mut last_class = None;
                    for _ in 0..2 {
                        win.start(p, &[0]);
                        let mut b = [0u8; 4];
                        last_class = win.get(p, &mut b, 0, 0, &Datatype::bytes(4), 1);
                        win.complete(p);
                        assert_eq!(b, [5, 6, 7, 8]);
                    }
                    assert_eq!(
                        last_class == Some(AccessType::Hit),
                        expect_hit,
                        "mode {mode:?}"
                    );
                }
                p.barrier();
            });
        }
    }

    /// `wait` closes this rank's *exposure* epoch only: its own access
    /// epoch's transfers stay in flight, so a later adjacent miss still
    /// coalesces into them and no overlap credit is booked at the `wait`.
    #[test]
    fn wait_leaves_own_outstanding_misses_in_flight() {
        let out = run_collect(SimConfig::checked(), 2, |p| {
            let cfg = ClampiConfig::fixed(Mode::AlwaysCache, CacheParams::default());
            let mut win = CachedWindow::create(p, 256, cfg);
            let mut seen = None;
            if p.rank() == 0 {
                let bytes = Datatype::bytes(64);
                let (mut a, mut b) = ([0u8; 64], [0u8; 64]);
                win.post(p, &[1]);
                win.start(p, &[1]);
                let first = win.get_nb(p, &mut a, 1, 0, &bytes, 1);
                let before = win.stats().overlapped_wire_ns;
                win.wait(p, &[1]);
                let after = win.stats().overlapped_wire_ns;
                let second = win.get_nb(p, &mut b, 1, 64, &bytes, 1);
                let coalesced = win.stats().coalesced_misses;
                win.complete(p);
                seen = Some((first, second, before, after, coalesced));
            } else {
                win.post(p, &[0]);
                win.start(p, &[0]);
                win.complete(p);
                win.wait(p, &[0]);
            }
            p.barrier();
            seen
        });
        let (first, second, before, after, coalesced) = out[0].1.unwrap();
        assert_ne!(first, Some(AccessType::Hit));
        assert_ne!(second, Some(AccessType::Hit));
        assert_eq!(
            after, before,
            "wait booked a completion of rank 0's own misses"
        );
        assert_eq!(coalesced, 1, "the second miss must coalesce into the first");
    }
}

mod config_defaults {
    use clampi::{CachedWindow, ClampiConfig, Mode};
    use clampi_datatype::Datatype;
    use clampi_rma::{run, SimConfig};

    #[test]
    fn default_config_is_transparent_and_caching_enabled() {
        let cfg = ClampiConfig::default();
        assert_eq!(cfg.mode, Mode::Transparent);
        assert!(cfg.adaptive.is_none());
        run(SimConfig::default(), 2, |p| {
            let mut win = CachedWindow::create(p, 64, ClampiConfig::default());
            p.barrier();
            if p.rank() == 0 {
                win.lock_all(p);
                let mut b = [0u8; 4];
                // Two gets in ONE epoch: second hits even transparently.
                win.get(p, &mut b, 1, 0, &Datatype::bytes(4), 1);
                let second = win.get(p, &mut b, 1, 0, &Datatype::bytes(4), 1);
                assert_eq!(second, Some(clampi::AccessType::Hit));
                win.flush(p, 1);
                // New epoch: transparent mode starts cold.
                let third = win.get(p, &mut b, 1, 0, &Datatype::bytes(4), 1);
                assert_ne!(third, Some(clampi::AccessType::Hit));
                win.unlock_all(p);
            }
            p.barrier();
        });
    }

    #[test]
    fn backend_labels_are_stable() {
        use clampi::{AccessType, VictimScheme};
        // `zip` stops at the shorter side: pin the lengths first, or a
        // label added to (or missing from) either list goes unchecked.
        let access = [
            "hit",
            "direct",
            "conflicting",
            "capacity",
            "failed",
            "faulted",
        ];
        assert_eq!(AccessType::ALL.len(), access.len());
        for (t, want) in AccessType::ALL.iter().zip(access) {
            assert_eq!(t.label(), want);
        }
        let schemes = ["full", "temporal", "positional"];
        assert_eq!(VictimScheme::ALL.len(), schemes.len());
        for (s, want) in VictimScheme::ALL.iter().zip(schemes) {
            assert_eq!(s.label(), want);
        }
    }
}
