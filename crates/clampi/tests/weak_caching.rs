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

/// A completion event towards one target completes that target only.
mod targeted_completion {
    use clampi::{AccessType, CacheParams, CachedWindow, ClampiConfig, Mode};
    use clampi_datatype::Datatype;
    use clampi_rma::{run, SimConfig};

    /// Rank 0 issues a `get_nb` miss to target 1, flushes target 2, then
    /// a `get_nb` miss adjacent to the first: the flush must book no
    /// overlap credit and the second miss must coalesce into the first.
    #[test]
    fn flush_of_another_target_leaves_a_miss_in_flight() {
        run(SimConfig::checked(), 3, |p| {
            let cfg = ClampiConfig::fixed(Mode::AlwaysCache, CacheParams::default());
            let mut win = CachedWindow::create(p, 256, cfg);
            if p.rank() == 0 {
                let bytes = Datatype::bytes(64);
                let (mut a, mut b) = ([0u8; 64], [0u8; 64]);
                win.lock_all(p);
                let first = win.get_nb(p, &mut a, 1, 0, &bytes, 1);
                assert_ne!(first, Some(AccessType::Hit));
                let before = win.stats().overlapped_wire_ns;
                win.flush(p, 2);
                let after = win.stats().overlapped_wire_ns;
                assert_eq!(after, before, "completing target 2 booked target 1's miss");
                let second = win.get_nb(p, &mut b, 1, 64, &bytes, 1);
                assert_ne!(second, Some(AccessType::Hit));
                let coalesced = win.stats().coalesced_misses;
                assert_eq!(coalesced, 1, "the second miss must coalesce into the first");
                win.unlock_all(p);
            }
            p.barrier();
        });
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
