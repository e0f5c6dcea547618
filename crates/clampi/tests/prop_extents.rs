//! Property tests for the ordered extent directory behind the ranged
//! invalidations (`CLAMPI_PROP_SEED` replays a single case;
//! `CLAMPI_PROP_CASES` overrides the counts).
//!
//! `invalidate_range` and `invalidate_overlapping_stale` used to scan
//! every index slot; they now seek an ordered `(target, disp)` directory and examine only the
//! entries that can overlap. The directory is a second description of the
//! resident set, so the property is equivalence with the scan it
//! replaced: two engines with the same parameters are driven through the
//! same random sequence of gets (mixed sizes, overlapping extents,
//! entries larger than the puts that hit them, partial-hit extensions,
//! capacity and conflict evictions), epoch closes, full invalidations,
//! resizes, policy switches and both ranged invalidations — one
//! through the engine's own methods, the other through a test-local
//! **full-scan oracle**: the loops the directory replaced (one pass over
//! every index slot, victims collected, then evicted in ascending slot
//! order), rebuilt here on the engine's two debug hooks
//! ([`RmaCache::residents`], [`RmaCache::evict_slot`]). After every step
//! the two must agree on the dropped count, `content_fingerprint()`,
//! every `CacheStats` field and the resident list down to the slab ids
//! (recycled last-dropped-first, so they pin the eviction *order*); only
//! the virtual cost drained by `take_cost` may differ (that is the point
//! of the directory). Both engines also pass `check_invariants()` after
//! every step.
//!
//! The hooks and `check_invariants` exist in debug builds only.
#![cfg(debug_assertions)]

use clampi::cache::{CacheParams, LayoutSig, Lookup, RmaCache};
use clampi::index::GetKey;
use clampi::{AccessType, CacheCostModel, EntryState, VictimScheme};
use clampi_prng::prop::{check, Gen};

const TARGETS: u32 = 3;
/// Displacements are multiples of this, sizes are not: extents overlap.
const GRAIN: u64 = 8;
const DISPS: u64 = 96;

/// The index-scan invalidation: every slot is visited, the entries of
/// `target` that `doomed(e_lo, e_hi, version)` condemns are collected,
/// then evicted in slot order.
fn scan_invalidate(c: &mut RmaCache, target: u32, doomed: impl Fn(u64, u64, u64) -> bool) -> usize {
    let victims: Vec<_> = c
        .residents()
        .into_iter()
        .filter(|r| {
            let (e_lo, e_hi) = (r.key.disp, r.key.disp + r.size as u64);
            r.key.target == target && doomed(e_lo, e_hi, r.version)
        })
        .collect();
    for v in &victims {
        assert!(c.evict_slot(v.slot), "victim vanished: {v:?}");
    }
    victims.len()
}

fn scan_range(c: &mut RmaCache, target: u32, lo: u64, hi: u64) -> usize {
    scan_invalidate(c, target, |e_lo, e_hi, _| e_lo < hi && lo < e_hi)
}

fn scan_overlapping_stale(c: &mut RmaCache, target: u32, ranges: &[(u64, u64, u64)]) -> usize {
    scan_invalidate(c, target, |e_lo, e_hi, version| {
        ranges
            .iter()
            .any(|&(lo, hi, v)| e_lo < hi && lo < e_hi && version < v)
    })
}

/// The byte at `disp` of `target` once `version` writes have landed.
fn byte_at(target: u32, disp: u64, version: u64) -> u8 {
    (disp as u8)
        .wrapping_mul(31)
        .wrapping_add(target as u8)
        .wrapping_add((version as u8).wrapping_mul(17))
}

fn gen_size(g: &mut Gen) -> usize {
    match g.range(0..10u32) {
        0..=3 => g.range(1..=GRAIN as usize),
        4..=7 => g.range(9..=64usize),
        _ => g.range(65..=400usize),
    }
}

fn gen_key(g: &mut Gen) -> GetKey {
    GetKey {
        target: g.range(0..TARGETS as u64) as u32,
        disp: g.range(0..DISPS) * GRAIN,
    }
}

/// A byte range of the kind the callers produce: a put-sized range, one
/// that matches nothing, an empty or inverted one, a saturated one
/// (`hi == u64::MAX`) and the full-target drop.
fn gen_range(g: &mut Gen) -> (u64, u64) {
    let lo = g.range(0..DISPS * GRAIN + 64);
    match g.range(0..10u32) {
        0..=4 => (lo, lo + g.range(1..=48u64)),
        5 => (1 << 40, (1 << 40) + 8),
        6 => (lo, lo),
        7 => (lo, lo.saturating_sub(g.range(1..=32u64))),
        8 => (lo, u64::MAX),
        _ => (0, u64::MAX),
    }
}

/// The engine under test and its full-scan twin.
struct Pair {
    new: RmaCache,
    old: RmaCache,
    /// Current write version per target (what a get observes).
    versions: [u64; TARGETS as usize],
    /// Put records not yet drained, per target.
    ring: [Vec<(u64, u64, u64)>; TARGETS as usize],
}

impl Pair {
    fn new(params: CacheParams) -> Self {
        Pair {
            new: RmaCache::new(params.clone()),
            old: RmaCache::new(params),
            versions: [1; TARGETS as usize],
            ring: Default::default(),
        }
    }

    /// One `get_c` of `size` bytes at `key`, issued to both engines the
    /// way the window wrapper would.
    fn get(&mut self, g: &mut Gen, key: GetKey, size: usize) {
        let t = key.target as usize;
        // Mostly the current version; sometimes a conservatively older
        // peek, so that entries of one target differ in staleness.
        let version = self.versions[t] - u64::from(g.bool_with(0.15));
        let sig = LayoutSig::Contig(size);
        let mut classes = [None, None];
        for (c, class) in [&mut self.new, &mut self.old].into_iter().zip(&mut classes) {
            let mut dst = vec![0u8; size];
            let looked = c.process_lookup(key, &sig, &mut dst);
            let fetched_from = match looked {
                Lookup::Hit => size,
                Lookup::PartialHit { cached_len } => cached_len,
                Lookup::Miss => 0,
            };
            for (i, b) in dst.iter_mut().enumerate().skip(fetched_from) {
                *b = byte_at(key.target, key.disp + i as u64, version);
            }
            let installed: Option<AccessType> = match looked {
                Lookup::Hit => None,
                Lookup::PartialHit { .. } => {
                    Some(c.finish_partial(key, sig.clone(), &dst, version))
                }
                Lookup::Miss => Some(c.finish_miss(key, sig.clone(), &dst, version)),
            };
            *class = Some((looked, installed, dst));
        }
        assert_eq!(classes[0], classes[1], "get of {size} B at {key:?}");
    }

    /// A remote put: bumps the target's version and leaves a record.
    fn put(&mut self, g: &mut Gen) {
        let t = g.range(0..TARGETS as usize);
        self.versions[t] += 1;
        let disp = g.range(0..DISPS * GRAIN);
        let len = g.range(1..=24u64);
        self.ring[t].push((disp, disp + len, self.versions[t]));
    }

    /// Drains `target`'s records into one surgical invalidation, salted
    /// with what a real drain can also contain: duplicates, records out
    /// of order, records that match nothing, empty and saturated ranges.
    fn drain(&mut self, g: &mut Gen) {
        let t = g.range(0..TARGETS as usize);
        let mut ranges = std::mem::take(&mut self.ring[t]);
        for _ in 0..g.range(0..4usize) {
            let (lo, hi) = gen_range(g);
            ranges.push((lo, hi, g.range(0..=self.versions[t] + 1)));
        }
        if !ranges.is_empty() {
            for _ in 0..g.range(0..3usize) {
                ranges.push(ranges[g.range(0..ranges.len())]);
            }
            if g.bool() {
                ranges.reverse();
            }
        }
        let dropped = self.new.invalidate_overlapping_stale(t as u32, &ranges);
        let expected = scan_overlapping_stale(&mut self.old, t as u32, &ranges);
        assert_eq!(dropped, expected, "overlapping_stale({t}, {ranges:?})");
    }

    fn agree(&mut self, step: &str) {
        self.new.check_invariants();
        self.old.check_invariants();
        let fields = |c: &RmaCache| c.stats().fields().collect::<Vec<_>>();
        assert_eq!(fields(&self.new), fields(&self.old), "stats after {step}");
        assert_eq!(
            self.new.content_fingerprint(),
            self.old.content_fingerprint(),
            "fingerprint after {step}"
        );
        // Slab ids are recycled last-dropped-first: equal ids mean the
        // victims went in the same order, not just the same victims.
        assert_eq!(
            self.new.residents(),
            self.old.residents(),
            "residents after {step}"
        );
        assert_eq!(self.new.free_bytes(), self.old.free_bytes(), "{step}");
        // The one thing allowed to differ.
        self.new.take_cost();
        self.old.take_cost();
    }
}

/// `(|I_w|, |S_w|)`, small enough for Cuckoo conflicts and capacity
/// evictions.
fn gen_geometry(g: &mut Gen) -> (usize, usize) {
    (g.range(8..64usize), g.range(1024..12288usize))
}

fn gen_params(g: &mut Gen) -> CacheParams {
    let (index_entries, storage_bytes) = gen_geometry(g);
    CacheParams {
        index_entries,
        storage_bytes,
        victim_scheme: VictimScheme::ALL[g.range(0..VictimScheme::ALL.len())],
        sample_size: g.range(1..=16usize),
        max_evictions_per_miss: g.range(1..=3usize),
        seed: g.u64(),
        ..CacheParams::default()
    }
}

fn run_case(g: &mut Gen) {
    let mut pair = Pair::new(gen_params(g));
    // Keys seen so far: revisited for hits and partial-hit extensions.
    let mut seen: Vec<GetKey> = Vec::new();
    for _ in 0..g.range(150..400usize) {
        let step = match g.range(0..100u32) {
            0..=49 => {
                let key = match seen.is_empty() || g.bool_with(0.4) {
                    true => gen_key(g),
                    false => seen[g.range(0..seen.len())],
                };
                seen.push(key);
                let size = gen_size(g);
                pair.get(g, key, size);
                "get"
            }
            50..=61 => {
                pair.new.epoch_close();
                pair.old.epoch_close();
                "epoch_close"
            }
            62..=71 => {
                pair.put(g);
                "put"
            }
            72..=83 => {
                pair.drain(g);
                "invalidate_overlapping_stale"
            }
            84..=95 => {
                let t = g.range(0..TARGETS as u64) as u32;
                let (lo, hi) = gen_range(g);
                let dropped = pair.new.invalidate_range(t, lo, hi);
                let expected = scan_range(&mut pair.old, t, lo, hi);
                assert_eq!(dropped, expected, "invalidate_range({t}, {lo}, {hi})");
                "invalidate_range"
            }
            96 => {
                pair.new.invalidate();
                pair.old.invalidate();
                "invalidate"
            }
            97 => {
                let (index, storage) = gen_geometry(g);
                pair.new.resize(index, storage);
                pair.old.resize(index, storage);
                "resize"
            }
            _ => {
                let to = VictimScheme::ALL[g.range(0..VictimScheme::ALL.len())];
                assert_eq!(
                    pair.new.set_victim_scheme(to),
                    pair.old.set_victim_scheme(to)
                );
                "set_victim_scheme"
            }
        };
        pair.agree(step);
    }
}

#[test]
fn prop_directory_invalidation_equals_full_scan() {
    check("extent directory == full index scan", 40, run_case);
}

/// A coherence drain sorts its records by displacement before it seeks
/// the directory. Here they arrive in descending displacements, each
/// written once or twice (the same bytes at two versions), and go through
/// the keeping drain the window runs inside an epoch: PENDING entries they
/// make stale are evicted, CACHED ones kept resident and logged. The
/// victims, the kept log and the charge must be the full scan's. The
/// charge is priced from the scan's view of the directory's seeks: the
/// drain builds it (one visit per index slot, the size mark the largest
/// resident), each record costs a visit and one per entry of the target
/// that starts within the mark below its bytes; each victim freed, one.
#[test]
fn prop_a_drain_in_descending_order_with_duplicates_equals_the_scan() {
    check("unsorted keeping drain == full index scan", 60, |g| {
        let costs = CacheCostModel {
            evict_visit_ns: 1.0,
            alloc_ns: 1.0,
            ..CacheCostModel::free()
        };
        let mut pair = Pair::new(CacheParams {
            costs,
            ..gen_params(g)
        });
        // Gets and epoch closes only, so the drain is what builds the
        // directory.
        for _ in 0..g.range(20..150usize) {
            if g.bool_with(0.15) {
                pair.new.epoch_close();
                pair.old.epoch_close();
            } else {
                let (key, size) = (gen_key(g), gen_size(g));
                pair.get(g, key, size);
            }
        }
        let t = g.range(0..TARGETS as usize);
        let mut ranges = Vec::new();
        for _ in 0..g.range(1..12usize) {
            let disp = g.range(0..DISPS * GRAIN);
            let hi = disp + g.range(1..=24u64);
            for _ in 0..g.range(1..=2u32) {
                pair.versions[t] += 1;
                ranges.push((disp, hi, pair.versions[t]));
            }
        }
        ranges.sort_unstable_by(|a, b| b.cmp(a));

        let residents = pair.old.residents();
        let of_t = || residents.iter().filter(|r| r.key.target == t as u32);
        let doomed: Vec<_> = of_t()
            .filter(|r| {
                let (e_lo, e_hi) = (r.key.disp, r.key.disp + r.size as u64);
                (ranges.iter()).any(|&(lo, hi, v)| e_lo < hi && lo < e_hi && r.version < v)
            })
            .collect();
        let mut kept: Vec<_> = (doomed.iter())
            .filter(|r| r.state == EntryState::Cached)
            .map(|r| (r.key, r.id))
            .collect();
        kept.sort_by_key(|&(key, id)| (key.disp, id));
        let victims: Vec<_> = (doomed.iter())
            .filter(|r| r.state == EntryState::Pending)
            .map(|r| r.slot)
            .collect();
        let reach = residents.iter().map(|r| r.size as u64 - 1).max();
        let charge = match reach {
            Some(reach) if of_t().next().is_some() => {
                let examined: usize = (ranges.iter())
                    .map(|&(lo, hi, _)| {
                        let seek = lo.saturating_sub(reach);
                        1 + of_t().filter(|r| (seek..hi).contains(&r.key.disp)).count()
                    })
                    .sum();
                pair.new.params().index_entries + examined + victims.len()
            }
            _ => 0,
        };

        pair.new.take_cost();
        let (dropped, log) = pair.new.drain_keeping(t as u32, &mut ranges.clone());
        let cost = pair.new.take_cost();
        for &slot in &victims {
            assert!(
                pair.old.evict_slot(slot),
                "victim slot {slot} emptied early"
            );
        }
        assert_eq!(dropped, kept.len() + victims.len(), "dropped, {ranges:?}");
        assert_eq!(log, kept, "kept log, {ranges:?}");
        assert_eq!(cost, charge as f64, "charged ns, {ranges:?}");
        pair.agree("drain");
    });
}

fn filled(entries: &[(u64, usize)]) -> RmaCache {
    let mut c = RmaCache::new(CacheParams {
        index_entries: 64,
        storage_bytes: 16 << 10,
        ..CacheParams::default()
    });
    for &(disp, size) in entries {
        let key = GetKey { target: 1, disp };
        let sig = LayoutSig::Contig(size);
        let mut dst = vec![0u8; size];
        assert_eq!(c.process_lookup(key, &sig, &mut dst), Lookup::Miss);
        assert_eq!(c.finish_miss(key, sig, &dst, 1), AccessType::Direct);
    }
    c.epoch_close();
    c.check_invariants();
    c
}

#[test]
fn a_put_into_the_tail_of_a_large_entry_finds_it() {
    // The 400-byte entry starts 390 bytes before the put, behind a run of
    // small entries: the seek must reach back by the size mark.
    let mut c = filled(&[(0, 400), (8, 8), (16, 8), (392, 8), (1000, 8)]);
    assert_eq!(c.invalidate_range(1, 390, 392), 1, "only the large entry");
    assert_eq!(c.len(), 4);
    // Built now; an entry born after the build must be found too.
    let mut c2 = filled(&[(8, 8)]);
    assert_eq!(c2.invalidate_range(1, 0, 1), 0);
    let (key, sig) = (GetKey { target: 1, disp: 0 }, LayoutSig::Contig(400));
    let mut dst = vec![0u8; 400];
    assert_eq!(c2.process_lookup(key, &sig, &mut dst), Lookup::Miss);
    c2.finish_miss(key, sig, &dst, 1);
    assert_eq!(c2.invalidate_range(1, 399, 400), 1);
    c2.check_invariants();
}

#[test]
fn an_extended_entry_is_found_through_its_new_tail() {
    let mut c = filled(&[(0, 8), (64, 8)]);
    assert_eq!(c.invalidate_range(1, 200, 204), 0, "builds the directory");
    let (key, sig) = (GetKey { target: 1, disp: 0 }, LayoutSig::Contig(300));
    let mut dst = vec![0u8; 300];
    assert_eq!(
        c.process_lookup(key, &sig, &mut dst),
        Lookup::PartialHit { cached_len: 8 }
    );
    assert_eq!(c.finish_partial(key, sig, &dst, 1), AccessType::Direct);
    c.check_invariants();
    assert_eq!(c.invalidate_range(1, 200, 204), 1, "the extension's tail");
    assert_eq!(c.len(), 1);
}

#[test]
fn full_target_drop_takes_every_key_and_only_that_target() {
    let mut c = filled(&[(0, 8), (u64::MAX - 8, 8), (4096, 100)]);
    let other = GetKey { target: 2, disp: 0 };
    let mut dst = vec![0u8; 8];
    assert_eq!(
        c.process_lookup(other, &LayoutSig::Contig(8), &mut dst),
        Lookup::Miss
    );
    c.finish_miss(other, LayoutSig::Contig(8), &dst, 1);
    // `hi == u64::MAX` is "to the end of the target", the key at the very
    // top of the displacement space included, with no arithmetic on it.
    assert_eq!(c.invalidate_range(1, 0, u64::MAX), 3);
    assert!(!c.has_entries_for(1));
    assert!(c.has_entries_for(2));
    c.check_invariants();
    // Hostile ranges: inverted, empty, saturated from the top.
    assert_eq!(c.invalidate_range(2, 9, 3), 0);
    assert_eq!(c.invalidate_range(2, u64::MAX, u64::MAX), 0);
    assert_eq!(
        c.invalidate_range(2, 4, 4),
        1,
        "an empty range inside an entry"
    );
}
