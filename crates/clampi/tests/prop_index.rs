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
//! A second subject is the division-free slot reduction: `FastMod32` must
//! equal the hardware remainder on its whole domain (32-bit hash values,
//! moduli up to `u32::MAX`), which is what makes every slot position the
//! one the `%` form computed.

use clampi::index::{CuckooIndex, EntryId, FastMod32, GetKey, InsertOutcome};
use clampi_prng::prop::{check, Gen};

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
                        InsertOutcome::Cycle { homeless } => {
                            // The borrowed path is this walk's: one slot
                            // per step of the iteration budget.
                            assert_eq!(ix.last_path().len(), 32);
                            assert!(ix.last_path().iter().all(|&slot| slot < cap));
                            // The walk keeps every displacement except the
                            // homeless pair; mirror that in the model.
                            model.push((key, id));
                            let gone = model_remove(&mut model, &homeless.0);
                            assert_eq!(gone, Some(homeless.1), "homeless pair was resident");
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
    check("every placed key is found until the first cycle", 32, |g| {
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
                InsertOutcome::Cycle { homeless, .. } => {
                    placed.retain(|&(k, _)| k != homeless.0);
                    break;
                }
            }
        }
        for &(k, e) in &placed {
            assert_eq!(ix.lookup(&k), Some(e));
            assert_eq!(ix.lookup_full_compare(&k), Some(e));
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
