//! Virtual (shadow) caches: tag-only policy simulators for the lab.
//!
//! A [`ShadowCache`] replays the engine's get stream against one
//! candidate [`VictimScheme`] without storing any payload: each entry is
//! a tag, a size and a recency stamp — 24 bytes instead of the payload
//! bytes, so running one shadow per candidate policy costs a fixed few
//! hundred kilobytes, not a second cache.
//!
//! **Why tag-only shadows are sound.** A hit is determined entirely by
//! *which keys are resident*, and residency is determined by the miss
//! and eviction sequence — neither needs the payload. What the shadow
//! cannot reproduce is the storage *layout* (the best-fit arena),
//! so the positional score `R_P` is approximated with a per-tag hash:
//! in the live arena an entry's adjacent free space is a property of
//! *where* best-fit happened to place it, essentially uncorrelated
//! with how recently it was used, so positional eviction behaves like
//! recency-blind (placement-keyed) replacement. A deterministic hash
//! of the tag reproduces exactly that: stable per entry, independent
//! of the access stream. (An earlier surrogate used the entry's size,
//! but under uniform-size workloads every score ties and the shadow
//! degenerates to FIFO-within-set, systematically *overestimating*
//! the positional policy.) For the `Full` shadow the hash factor is
//! damped to `[0.75, 1]`: live `R_P` is ~1 for almost every entry —
//! packed storage has no adjacent free space — so `Full` follows its
//! temporal factor with only a mild placement perturbation. The
//! approximation shifts absolute hit ratios; the lab only consumes
//! *relative* rankings between policies, and the controller's switch
//! hysteresis margin ([`crate::adaptive::SWITCH_MARGIN`]) absorbs the
//! residual error.
//!
//! **Shape.** The shadow is a [`WAYS`]-way set-associative tag table
//! with a byte budget, mirroring the live cache's two constraints
//! (index slots and storage bytes). Lookups scan one set — O(1).
//! Misses insert after freeing bytes via policy-chosen victims: the
//! lowest score in a bounded random sample, for every scheme — no shadow
//! keeps state beyond its tag table. Every slot inspection is counted so
//! the lab's overhead can be priced on the virtual clock
//! ([`crate::CacheCostModel::shadow_visit_ns`]) — the engine itself
//! never charges for shadow work, which is what keeps lab-on runs
//! bit-identical to lab-off runs.
//!
//! [`VictimScheme`]: crate::VictimScheme

use crate::eviction::{temporal_score, VictimScheme};
use crate::stats::CacheStats;
use clampi_prng::{SmallRng, SplitMix64};

/// Recency-blind per-tag stand-in for the live positional score `R_P`
/// (see the module docs): a deterministic hash mapped into `(0, 1]`.
fn positional_surrogate(tag: u64) -> f64 {
    let h = SplitMix64::new(tag ^ 0x9E37_79B9_7F4A_7C15).next_u64();
    ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Set associativity of the shadow tag table.
pub const WAYS: usize = 4;

/// Capacity evictions a shadow attempts per miss before giving up on
/// caching the access (the analogue of weak caching's bounded effort).
const MAX_EVICT: usize = 4;

#[derive(Debug, Clone, Copy)]
struct ShadowEntry {
    tag: u64,
    last: u64,
    /// Entry size in bytes; 0 marks an empty slot (real gets are never
    /// zero-sized).
    size: usize,
}

const EMPTY: ShadowEntry = ShadowEntry {
    tag: 0,
    last: 0,
    size: 0,
};

/// One tag-only simulator of a single victim-selection policy.
#[derive(Debug, Clone)]
pub struct ShadowCache {
    policy: VictimScheme,
    slots: Vec<ShadowEntry>,
    set_mask: usize,
    used_bytes: usize,
    capacity_bytes: usize,
    sample: usize,
    rng: SmallRng,
    gets: u64,
    hits: u64,
    visits: u64,
}

impl ShadowCache {
    /// A shadow sized like a live cache with `index_entries` slots and
    /// `storage_bytes` of payload budget.
    pub fn new(
        policy: VictimScheme,
        index_entries: usize,
        storage_bytes: usize,
        sample_size: usize,
        seed: u64,
    ) -> Self {
        let sets = (index_entries / WAYS).next_power_of_two().clamp(4, 1 << 20);
        ShadowCache {
            policy,
            slots: vec![EMPTY; sets * WAYS],
            set_mask: sets - 1,
            used_bytes: 0,
            capacity_bytes: storage_bytes.max(1),
            // Half the engine's default sample: shadow victims only need
            // to rank policies, and the smaller scan halves lab overhead.
            sample: sample_size.clamp(1, 8),
            rng: SmallRng::seed_from_u64(seed ^ 0x5CAC_0DE5),
            gets: 0,
            hits: 0,
            visits: 0,
        }
    }

    /// The simulated policy.
    pub fn policy(&self) -> VictimScheme {
        self.policy
    }

    /// `(gets, hits)` replayed so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.gets, self.hits)
    }

    /// Slot inspections performed so far (the lab's overhead unit).
    pub fn visits(&self) -> u64 {
        self.visits
    }

    /// Victim score under the shadow's approximations (lower = evicted
    /// first). See the module docs for the positional surrogate.
    fn score(&self, e: &ShadowEntry, now: u64) -> f64 {
        match self.policy {
            VictimScheme::Temporal => temporal_score(e.last, now),
            VictimScheme::Positional => positional_surrogate(e.tag),
            // In the live arena `R_P` is ~1 for almost every entry
            // (packed storage has no adjacent free space) and only dips
            // for the few entries bordering a hole, so Full mostly
            // follows the temporal factor with a placement-keyed
            // perturbation — model it as a damped hash factor rather
            // than the full-range one Positional uses.
            VictimScheme::Full => {
                temporal_score(e.last, now) * (0.75 + 0.25 * positional_surrogate(e.tag))
            }
        }
    }

    fn clear_slot(&mut self, slot: usize) {
        debug_assert!(self.slots[slot].size > 0, "evicting an empty shadow slot");
        self.used_bytes -= self.slots[slot].size;
        self.slots[slot] = EMPTY;
    }

    /// Evicts one entry for capacity; returns false when nothing
    /// evictable was found within the bounded scan.
    fn evict_for_capacity(&mut self, now: u64) -> bool {
        // Sampled scan from a random start, like the live engine: keep
        // scanning past the minimum sample until a candidate appears,
        // but bound the walk so one eviction stays O(1).
        let n = self.slots.len();
        let start = self.rng.gen_below(n as u64) as usize;
        let budget = (self.sample * 8).min(n);
        let mut best: Option<(usize, f64)> = None;
        for i in 0..budget {
            let pos = (start + i) & (n - 1);
            self.visits += 1;
            let e = &self.slots[pos];
            if e.size > 0 {
                let s = self.score(e, now);
                if best.is_none_or(|(_, bs)| s < bs) {
                    best = Some((pos, s));
                }
            }
            if i + 1 >= self.sample && best.is_some() {
                break;
            }
        }
        match best {
            Some((pos, _)) => {
                self.clear_slot(pos);
                true
            }
            None => false,
        }
    }

    /// Replays one get; returns whether this shadow would have hit.
    pub fn observe(&mut self, tag: u64, size: usize, now: u64) -> bool {
        self.gets += 1;
        let set = (SplitMix64::new(tag).next_u64() as usize) & self.set_mask;
        let base = set * WAYS;

        // Lookup: scan the set, stopping at a match; each way examined
        // is one counted visit (a miss costs the full set).
        for w in 0..WAYS {
            let slot = base + w;
            self.visits += 1;
            let e = self.slots[slot];
            if e.size > 0 && e.tag == tag {
                self.hits += 1;
                self.slots[slot].last = now;
                if size > e.size {
                    // Served size grew (e.g. a partial hit extension):
                    // track the larger footprint.
                    self.used_bytes += size - e.size;
                    self.slots[slot].size = size;
                }
                return true;
            }
        }

        // Miss: free bytes, then place within the home set.
        if size > self.capacity_bytes {
            return false; // never cacheable, like the live engine
        }
        let mut evictions = 0;
        while self.used_bytes + size > self.capacity_bytes && evictions < MAX_EVICT {
            if !self.evict_for_capacity(now) {
                break;
            }
            evictions += 1;
        }
        if self.used_bytes + size > self.capacity_bytes {
            return false; // weak caching: the get succeeds uncached
        }
        let mut way = None;
        for w in 0..WAYS {
            if self.slots[base + w].size == 0 {
                way = Some(base + w);
                break;
            }
        }
        let slot = match way {
            Some(s) => s,
            None => {
                // Conflict eviction: lowest score within the set.
                self.visits += WAYS as u64;
                let mut best = base;
                let mut best_s = f64::INFINITY;
                for w in 0..WAYS {
                    let s = self.score(&self.slots[base + w], now);
                    if s < best_s {
                        best_s = s;
                        best = base + w;
                    }
                }
                self.clear_slot(best);
                best
            }
        };
        self.slots[slot] = ShadowEntry {
            tag,
            last: now,
            size,
        };
        self.used_bytes += size;
        false
    }
}

/// The policy lab: one shadow per candidate scheme, replaying every get
/// and accumulating per-policy hit counters into [`CacheStats`].
#[derive(Debug)]
pub struct PolicyLab {
    shadows: Vec<ShadowCache>,
}

impl PolicyLab {
    /// One shadow per scheme in [`VictimScheme::ALL`], each sized like
    /// the live cache.
    pub fn new(index_entries: usize, storage_bytes: usize, sample_size: usize, seed: u64) -> Self {
        let shadows = VictimScheme::ALL
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                ShadowCache::new(
                    v,
                    index_entries,
                    storage_bytes,
                    sample_size,
                    // Decorrelate the shadows' sampling streams from each
                    // other and from the live engine's RNG.
                    seed ^ (0xD15E_A5E0 + i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
            })
            .collect();
        PolicyLab { shadows }
    }

    /// Replays one get against every shadow, updating `stats`'
    /// `shadow_gets` / `shadow_hits` / `shadow_slot_visits` counters.
    pub fn observe(&mut self, tag: u64, size: usize, now: u64, stats: &mut CacheStats) {
        stats.shadow_gets += 1;
        for (i, sh) in self.shadows.iter_mut().enumerate() {
            let before = sh.visits();
            if sh.observe(tag, size, now) {
                stats.shadow_hits[i] += 1;
            }
            stats.shadow_slot_visits += sh.visits() - before;
        }
    }

    /// The shadows, in [`VictimScheme::ALL`] order.
    pub fn shadows(&self) -> &[ShadowCache] {
        &self.shadows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::POLICY_COUNT;

    const N: usize = POLICY_COUNT;

    fn lab() -> PolicyLab {
        PolicyLab::new(256, 64 << 10, 8, 0xC1A3)
    }

    #[test]
    fn lab_has_one_shadow_per_policy_in_order() {
        let lab = lab();
        assert_eq!(lab.shadows().len(), N);
        for (i, sh) in lab.shadows().iter().enumerate() {
            assert_eq!(sh.policy(), VictimScheme::ALL[i]);
        }
    }

    #[test]
    fn repeated_key_hits_in_every_shadow() {
        let mut lab = lab();
        let mut stats = CacheStats::default();
        for now in 1..=100u64 {
            lab.observe(0xABCD, 64, now, &mut stats);
        }
        assert_eq!(stats.shadow_gets, 100);
        for (i, &h) in stats.shadow_hits.iter().enumerate() {
            assert_eq!(h, 99, "{:?}", VictimScheme::ALL[i]);
        }
        // Every lookup inspects at least one slot per shadow.
        assert!(stats.shadow_slot_visits >= 100 * (N as u64));
    }

    #[test]
    fn byte_budget_is_respected() {
        let mut sh = ShadowCache::new(VictimScheme::Full, 64, 4096, 8, 1);
        for i in 0..1000u64 {
            sh.observe(SplitMix64::new(i).next_u64(), 512, i + 1);
            assert!(sh.used_bytes <= sh.capacity_bytes);
        }
        let (gets, hits) = sh.counts();
        assert_eq!(gets, 1000);
        assert!(hits < gets);
    }

    #[test]
    fn oversized_accesses_are_never_cached() {
        let mut sh = ShadowCache::new(VictimScheme::Temporal, 64, 1024, 8, 1);
        for now in 1..=10u64 {
            assert!(!sh.observe(7, 4096, now), "cannot ever fit");
        }
        assert_eq!(sh.used_bytes, 0);
    }

    /// A shadow takes any `|S_w|`, past 4 GiB too, so a shadow entry's size
    /// must not be a `u32`: `1 << 32` would read back as 0, the empty-slot
    /// mark.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn sizes_past_u32_are_tracked_exactly() {
        const BIG: usize = 1 << 32;
        let mut sh = ShadowCache::new(VictimScheme::Temporal, 64, 3 * BIG, 8, 1);
        assert!(!sh.observe(7, BIG, 1));
        assert!(sh.observe(7, BIG, 2), "resident after its miss");
        assert_eq!(sh.used_bytes, BIG);
        // A partial-hit extension by one byte is tracked to the byte.
        assert!(sh.observe(7, BIG + 1, 3));
        assert_eq!(sh.used_bytes, BIG + 1);
    }

    #[test]
    fn shadow_replay_is_deterministic() {
        let mut a = ShadowCache::new(VictimScheme::Full, 128, 8 << 10, 8, 42);
        let mut b = ShadowCache::new(VictimScheme::Full, 128, 8 << 10, 8, 42);
        for i in 0..3000u64 {
            let tag = SplitMix64::new(i % 97).next_u64();
            assert_eq!(a.observe(tag, 96, i + 1), b.observe(tag, 96, i + 1));
        }
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.visits(), b.visits());
    }
}
