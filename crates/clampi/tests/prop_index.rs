//! Property tests for the Cuckoo index's slot fingerprints
//! (`CLAMPI_PROP_SEED` replays a single case; `CLAMPI_PROP_CASES`
//! overrides the counts).
//!
//! The fingerprints in `index.rs` are a probe-time filter only: a
//! one-byte reject in front of the full `GetKey` compare. They must
//! never change *what* the table answers, only how many bytes each
//! probe touches. The properties pin that down:
//!
//! 1. after any sequence of inserts, removes, slot evictions, and
//!    clears, `lookup` (fingerprinted) agrees with `lookup_full_compare`
//!    (the un-fingerprinted probe of the same table) on present *and*
//!    absent keys;
//! 2. the table agrees with a naive model replaying the same ops, so
//!    the filter cannot hide residents or resurrect removed keys;
//! 3. `remove` through the filter takes exactly the model's keys out.
//!
//! The insertion walk searches before it moves. Three properties pin that:
//!
//! 4. a search that comes back `Full` leaves `iter()` unchanged;
//! 5. `evict_on_path(j)` then removes exactly the pair step `j` displaced
//!    and places the new key;
//! 6. while every insert is placed, the table is slot for slot the one an
//!    in-place walk (the same hash functions and draws, written as it
//!    goes) leaves — kept below as `InPlaceWalk`.
//!
//! A second subject is the division-free slot reduction: `FastMod32` must
//! equal the hardware remainder on its whole domain (32-bit hash values,
//! moduli up to `u32::MAX`), which is what makes every slot position the
//! one the `%` form computed.

use clampi::index::{CuckooIndex, EntryId, FastMod32, GetKey, InsertOutcome};
use clampi_prng::prop::{check, Gen};
use clampi_prng::SmallRng;

fn gen_key(g: &mut Gen) -> GetKey {
    GetKey {
        target: g.range(0..6u64) as u32,
        // Small displacement universe so removes and re-inserts collide
        // with live keys often enough to exercise the filter's zeroing.
        disp: g.range(0..512u64) * 8,
    }
}

/// Naive replay model: the set of pairs that must be resident.
fn model_remove(model: &mut Vec<(GetKey, EntryId)>, key: &GetKey) -> Option<EntryId> {
    let pos = model.iter().position(|(k, _)| k == key)?;
    Some(model.swap_remove(pos).1)
}

#[test]
fn prop_fingerprint_filter_is_behavior_preserving() {
    check("fingerprinted lookup == full-compare lookup", 48, |g| {
        let cap = g.range(8..192usize);
        let mut ix = CuckooIndex::new(cap, 32, g.u64());
        let mut model: Vec<(GetKey, EntryId)> = Vec::new();
        let mut next_id: EntryId = 0;
        let ops = g.range(40..160usize);
        for _ in 0..ops {
            match g.range(0..10u32) {
                0..=5 => {
                    // Insert a fresh key (the API requires lookup-first).
                    let key = gen_key(g);
                    if ix.lookup(&key).is_some() {
                        continue;
                    }
                    let id = next_id;
                    next_id += 1;
                    match ix.insert(key, id) {
                        InsertOutcome::Placed { .. } => model.push((key, id)),
                        InsertOutcome::Full { steps } => {
                            // The borrowed path is this walk's: at most one
                            // resident per step of the iteration budget.
                            // Nothing moved; half the time, evict the first
                            // resident on the path to place the key.
                            assert!(ix.last_path().count() <= steps);
                            if g.bool() {
                                let (j, _, _) = ix.last_path().next().unwrap();
                                let (gone, e) = ix.evict_on_path(j);
                                assert_eq!(model_remove(&mut model, &gone), Some(e));
                                model.push((key, id));
                            }
                        }
                    }
                }
                6..=7 => {
                    // Remove a key — resident with probability ~1/2.
                    let key = if g.bool() {
                        match model.first() {
                            Some(&(k, _)) => k,
                            None => gen_key(g),
                        }
                    } else {
                        gen_key(g)
                    };
                    assert_eq!(ix.remove(&key), model_remove(&mut model, &key));
                }
                8 => {
                    // Evict by slot position (the victim-scan path).
                    let pos = g.range(0..cap);
                    match ix.remove_slot(pos) {
                        Some((k, e)) => {
                            assert_eq!(model_remove(&mut model, &k), Some(e));
                        }
                        None => assert!(!model.iter().any(|&(k, _)| {
                            // An occupied slot can't report empty; cross-check
                            // via the public probe.
                            ix.lookup(&k).is_none()
                        })),
                    }
                }
                _ => {
                    if g.bool_with(0.2) {
                        ix.clear();
                        model.clear();
                    }
                }
            }
            // Invariant sweep: both probes agree on every resident and on
            // a batch of arbitrary (mostly absent) keys.
            assert_eq!(ix.len(), model.len());
            for &(k, e) in &model {
                assert_eq!(ix.lookup(&k), Some(e), "resident {k:?} must be found");
                assert_eq!(ix.lookup(&k), ix.lookup_full_compare(&k));
            }
            for _ in 0..8 {
                let probe = gen_key(g);
                assert_eq!(
                    ix.lookup(&probe),
                    ix.lookup_full_compare(&probe),
                    "filtered and full-compare probes diverge on {probe:?}"
                );
            }
        }
    });
}

#[test]
fn prop_filter_never_false_negatives_at_high_load() {
    check("every placed key is found until the first Full", 32, |g| {
        let cap = g.range(32..256usize);
        let mut ix = CuckooIndex::new(cap, 32, g.u64());
        let mut placed = Vec::new();
        for d in 0..cap as u64 {
            let key = GetKey {
                target: 1,
                disp: d * 64,
            };
            match ix.insert(key, d as EntryId) {
                InsertOutcome::Placed { .. } => placed.push((key, d as EntryId)),
                InsertOutcome::Full { .. } => break,
            }
        }
        for &(k, e) in &placed {
            assert_eq!(ix.lookup(&k), Some(e));
            assert_eq!(ix.lookup_full_compare(&k), Some(e));
        }
    });
}

/// The resident pairs in key order.
fn pairs(ix: &CuckooIndex) -> Vec<(GetKey, EntryId)> {
    let mut v: Vec<_> = ix.iter().map(|(_, k, e)| (k, e)).collect();
    v.sort_by_key(|&(k, e)| (k.target, k.disp, e));
    v
}

#[test]
fn prop_full_search_moves_nothing_and_evict_on_path_swaps_one_pair() {
    check(
        "Full moves nothing, evict_on_path swaps one pair",
        48,
        |g| {
            let cap = g.range(4..64usize);
            let mut ix = CuckooIndex::new(cap, g.range(1..40usize), g.u64());
            let mut fulls = 0;
            for id in 0..3 * cap as EntryId {
                let key = gen_key(g);
                if ix.lookup(&key).is_some() {
                    continue;
                }
                let before: Vec<_> = ix.iter().collect();
                let InsertOutcome::Full { steps } = ix.insert(key, id) else {
                    continue;
                };
                fulls += 1;
                assert_eq!(ix.iter().collect::<Vec<_>>(), before, "a Full search moved");
                // The path lists residents, each once, at the step that first
                // displaced it.
                let path: Vec<_> = ix.last_path().collect();
                let resident: Vec<_> = before.iter().map(|&(_, k, e)| (k, e)).collect();
                for (n, &(j, k, e)) in path.iter().enumerate() {
                    assert!(j < steps, "step {j} of {steps}");
                    assert!(resident.contains(&(k, e)), "{k:?} was not resident");
                    assert!(path[..n].iter().all(|&(i, other, _)| i < j && other != k));
                }
                // Some searches are left unresolved, as a Failed get leaves them.
                if g.bool_with(0.25) {
                    continue;
                }
                let (j, k, e) = path[g.range(0..path.len())];
                let mut want = pairs(&ix);
                want.retain(|&p| p != (k, e));
                want.push((key, id));
                want.sort_by_key(|&(k, e)| (k.target, k.disp, e));
                assert_eq!(ix.evict_on_path(j), (k, e));
                assert_eq!(pairs(&ix), want, "evict_on_path({j}) of {steps}");
                for &(k, e) in &want {
                    assert_eq!(ix.lookup(&k), Some(e), "{k:?} not found after the commit");
                    assert_eq!(ix.lookup_full_compare(&k), Some(e));
                }
            }
            assert!(
                fulls > 0,
                "{} inserts into {cap} slots never filled them",
                3 * cap
            );
        },
    );
}

/// The in-place insertion walk: the same hash functions and RNG draws as
/// `CuckooIndex::insert`, but every displacement is written as the walk
/// goes. A walk that places its key must leave the same table either way.
struct InPlaceWalk {
    slots: Vec<Option<(GetKey, EntryId)>>,
    hashers: [(u64, u64); 4],
    modulus: FastMod32,
    max_iters: usize,
    rng: SmallRng,
}

impl InPlaceWalk {
    fn new(cap: usize, max_iters: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let hashers = [(); 4].map(|_| (rng.gen_u64() | 1, rng.gen_u64()));
        let walk_cap = 32 * (usize::BITS - cap.leading_zeros()) as usize;
        InPlaceWalk {
            slots: vec![None; cap],
            hashers,
            modulus: FastMod32::new(cap),
            max_iters: max_iters.min(walk_cap),
            rng,
        }
    }

    /// Candidate slot `h` of `key`: the key mix, then `((a·x + b) >> 32) mod m`.
    fn slot(&self, h: usize, key: &GetKey) -> usize {
        let mut x = key
            .disp
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((key.target as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        let (a, b) = self.hashers[h];
        self.modulus
            .reduce((a.wrapping_mul(x).wrapping_add(b) >> 32) as u32)
    }

    /// The steps the walk took to place `key`, or `None` if it gave up.
    fn insert(&mut self, key: GetKey, entry: EntryId) -> Option<usize> {
        let mut cur = (key, entry);
        for step in 0..self.max_iters {
            let free = (0..4)
                .map(|h| self.slot(h, &cur.0))
                .find(|&i| self.slots[i].is_none());
            if let Some(i) = free {
                self.slots[i] = Some(cur);
                return Some(step);
            }
            let h = self.rng.gen_range(0..4usize);
            let i = self.slot(h, &cur.0);
            cur = self.slots[i]
                .replace(cur)
                .expect("displaced from an occupied slot");
        }
        None
    }

    fn remove(&mut self, key: &GetKey) -> Option<EntryId> {
        let s = self
            .slots
            .iter_mut()
            .find(|s| s.is_some_and(|(k, _)| k == *key))?;
        s.take().map(|(_, e)| e)
    }

    fn table(&self) -> Vec<(usize, GetKey, EntryId)> {
        (self.slots.iter().enumerate())
            .filter_map(|(i, s)| s.map(|(k, e)| (i, k, e)))
            .collect()
    }
}

#[test]
fn prop_placed_walks_leave_the_in_place_table() {
    check("placed walks leave the in-place table", 64, |g| {
        let cap = g.range(4..96usize);
        let iters = g.range(1..48usize);
        let seed = g.u64();
        let mut ix = CuckooIndex::new(cap, iters, seed);
        let mut reference = InPlaceWalk::new(cap, iters, seed);
        for id in 0..4 * cap as EntryId {
            let key = gen_key(g);
            if g.bool_with(0.1) {
                assert_eq!(ix.remove(&key), reference.remove(&key));
                continue;
            }
            if ix.lookup(&key).is_some() {
                continue;
            }
            let placed = match ix.insert(key, id) {
                InsertOutcome::Placed { steps } => Some(steps),
                // From here on the in-place walk has shuffled its table.
                InsertOutcome::Full { .. } => None,
            };
            assert_eq!(placed, reference.insert(key, id), "steps of insert {id}");
            if placed.is_none() {
                break;
            }
            assert_eq!(
                ix.iter().collect::<Vec<_>>(),
                reference.table(),
                "insert {id}"
            );
        }
    });
}

/// `FastMod32::reduce` against `%` for one modulus: the edge values and
/// `sample`.
fn assert_reduces_like_remainder(m: usize, sample: &[u32]) {
    let fm = FastMod32::new(m);
    let edges = [0, 1, (m - 1) as u32, m as u32, u32::MAX];
    for &x in edges.iter().chain(sample) {
        assert_eq!(fm.reduce(x), x as usize % m, "{x} mod {m}");
    }
}

#[test]
fn fastmod_equals_remainder() {
    // Every small capacity, over one fixed sample of hash values...
    let mut g = Gen::from_seed(0x5107);
    let sample: Vec<u32> = (0..256).map(|_| g.u64() as u32).collect();
    for m in 1..=4096 {
        assert_reduces_like_remainder(m, &sample);
    }
    // ...and random capacities over the whole domain, each with its own
    // sample (multiples of the modulus and their neighbours included).
    check("fastmod == % up to u32::MAX", 256, |g| {
        let m = match g.range(0..4u32) {
            0 => g.range(1..=u32::MAX as u64),
            1 => u32::MAX as u64 - g.range(0..1024u64),
            2 => 1u64 << g.range(0..32u32),
            _ => g.range(1..1u64 << 20),
        } as usize;
        let mut sample: Vec<u32> = (0..64).map(|_| g.u64() as u32).collect();
        for _ in 0..16 {
            let multiple = (g.range(0..=u32::MAX as u64 / m as u64) * m as u64) as u32;
            sample.extend([multiple.wrapping_sub(1), multiple, multiple.wrapping_add(1)]);
        }
        assert_reduces_like_remainder(m, &sample);
    });
}
