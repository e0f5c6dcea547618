//! The cache index `I_w`: a Cuckoo hash table with `p = 4` hash functions.
//!
//! Entries are indexed by the `(target, displacement)` pair of the get that
//! created them (Sec. III-B: a hit requires equality on both). Collisions
//! are resolved with the Cuckoo scheme of Fotakis et al.: an element may
//! live in any of `p` positions given by universal hash functions, lookups
//! probe at most `p` slots (constant time), and insertion performs a random
//! walk displacing residents. The walk visits an *insertion path* of slots;
//! if it exceeds the iteration threshold (a cycle in the Cuckoo graph), the
//! paper does **not** rehash — it reports the failure so the caller can
//! treat the access as *conflicting* and evict an entry on the path.

use clampi_prng::SmallRng;

/// Number of hash functions (97 % load factor per Fotakis et al.).
pub const NUM_HASHES: usize = 4;

/// Identifier of a cache entry in the engine's entry slab.
pub type EntryId = u32;

/// The identity of a `get_c` for caching purposes: target rank and byte
/// displacement in the window (datatype and count determine the *size*,
/// which is compared separately for full/partial hits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GetKey {
    /// Target rank.
    pub target: u32,
    /// Byte displacement in the target's window region.
    pub disp: u64,
}

impl GetKey {
    fn mix(&self) -> u64 {
        // SplitMix-style finalizer over the packed pair; the universal
        // hashers add the per-table randomness on top.
        let mut x = self
            .disp
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((self.target as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x
    }

    /// A well-mixed value for striping keys across cache shards. One more
    /// finalizer round on top of [`GetKey::mix`] so the stripe bits do not
    /// correlate with the inputs the per-shard universal hashers see.
    pub fn stripe(&self) -> u64 {
        let mut x = self.mix();
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        x
    }
}

/// `x mod m` for 32-bit `x` and `1 <= m <= u32::MAX` without a division
/// (Lemire, Kaser & Kurz, "Faster remainder by direct computation"): with
/// `magic = ceil(2^64 / m)`, the low 64 bits of `magic · x` are the
/// fractional part of `x / m` scaled by `2^64`, and multiplying them by `m`
/// leaves the remainder in the high word. Exact on that whole domain —
/// property-tested against `%` in `tests/prop_index.rs` — so slot positions
/// are the ones a hardware remainder yields.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct FastMod32 {
    m: u64,
    magic: u64,
}

impl FastMod32 {
    /// The reducer for modulus `m`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= m <= u32::MAX`.
    pub fn new(m: usize) -> Self {
        assert!(
            (1..=u32::MAX as usize).contains(&m),
            "modulus {m} outside 1..=u32::MAX"
        );
        FastMod32 {
            m: m as u64,
            // `m == 1` wraps to 0, and `0 · x · 1 >> 64 == 0 == x mod 1`.
            magic: (u64::MAX / m as u64).wrapping_add(1),
        }
    }

    /// `x mod m`.
    #[inline]
    pub fn reduce(&self, x: u32) -> usize {
        let low = self.magic.wrapping_mul(x as u64);
        ((low as u128 * self.m as u128) >> 64) as usize
    }
}

/// One multiply-add universal hash function `h(x) = ((a·x + b) >> 32) mod m`.
#[derive(Debug, Clone, Copy)]
struct UniversalHasher {
    a: u64,
    b: u64,
}

impl UniversalHasher {
    fn new(rng: &mut SmallRng) -> Self {
        UniversalHasher {
            a: rng.gen_u64() | 1, // odd multiplier
            b: rng.gen_u64(),
        }
    }

    #[inline]
    fn hash(&self, x: u64, m: FastMod32) -> usize {
        m.reduce((self.a.wrapping_mul(x).wrapping_add(self.b) >> 32) as u32)
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: GetKey,
    entry: EntryId,
}

/// 8-bit slot fingerprint from the mixed key (top byte); `0` is reserved
/// for "empty", so occupied slots always carry a nonzero fingerprint.
fn fingerprint(x: u64) -> u8 {
    let f = (x >> 56) as u8;
    if f == 0 {
        1
    } else {
        f
    }
}

/// Outcome of a Cuckoo insertion attempt.
#[derive(Debug)]
pub enum InsertOutcome {
    /// Placed after `steps` displacement steps (0 = straight into an empty
    /// slot).
    Placed {
        /// Displacement steps performed.
        steps: usize,
    },
    /// The random walk hit the iteration threshold. `homeless` is the
    /// key/entry pair left without a slot (not necessarily the one the
    /// caller tried to insert — displacements are kept).
    /// [`CuckooIndex::last_path`] lists the slot indices the walk visited;
    /// the caller should evict one of the entries living there (a
    /// *conflicting* access) and re-insert the homeless pair.
    Cycle {
        /// The displaced pair currently without a slot.
        homeless: (GetKey, EntryId),
    },
}

/// The Cuckoo hash table indexing cache entries.
///
/// # Examples
///
/// ```
/// use clampi::index::{CuckooIndex, GetKey, InsertOutcome};
///
/// let mut ix = CuckooIndex::new(64, 32, 42);
/// let key = GetKey { target: 1, disp: 4096 };
/// assert!(matches!(ix.insert(key, 7), InsertOutcome::Placed { .. }));
/// assert_eq!(ix.lookup(&key), Some(7));
/// assert_eq!(ix.remove(&key), Some(7));
/// assert!(ix.is_empty());
/// ```
#[derive(Debug)]
pub struct CuckooIndex {
    slots: Vec<Option<Slot>>,
    /// Per-slot key fingerprints (0 = empty), checked before the full
    /// `GetKey` compare on every probe: a cheap one-byte reject that
    /// skips the 12-byte key comparison on almost every non-matching
    /// occupied slot. Invariant: `fps[i] == fingerprint(slots[i].key)`
    /// for occupied slots, `0` otherwise. Pure filter — never consulted
    /// by insertion placement or displacement choices, so table behavior
    /// is bit-identical to the un-fingerprinted scheme (property-tested).
    fps: Vec<u8>,
    hashers: [UniversalHasher; NUM_HASHES],
    /// Reduces a 32-bit hash value to a slot (`mod slots.len()`).
    modulus: FastMod32,
    len: usize,
    max_iters: usize,
    rng: SmallRng,
    /// Slots displaced by the most recent [`CuckooIndex::insert`] walk, in
    /// order. Owned here so a displacing insert reuses one buffer instead
    /// of allocating a path per call.
    path: Vec<usize>,
}

impl CuckooIndex {
    /// A table with `capacity` slots (the paper's `|I_w|`), deterministic
    /// under `seed`. An insertion walk gives up after `max_iters`
    /// displacements, capped at `32 · bits(capacity)`: a random walk places
    /// its key in polylogarithmically many steps or is going round a cycle,
    /// so a larger threshold only buys a longer spin on a full table (with
    /// `usize::MAX` it never returned). No walk of 32 steps or fewer is cut.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `capacity > u32::MAX`: hash values are
    /// 32 bits wide, so slots past `2^32` could never be reached.
    pub fn new(capacity: usize, max_iters: usize, seed: u64) -> Self {
        assert!(capacity > 0, "index capacity must be positive");
        assert!(
            capacity <= u32::MAX as usize,
            "index capacity {capacity} exceeds the 32-bit hash range"
        );
        let walk_cap = 32 * (usize::BITS - capacity.leading_zeros()) as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let hashers = [
            UniversalHasher::new(&mut rng),
            UniversalHasher::new(&mut rng),
            UniversalHasher::new(&mut rng),
            UniversalHasher::new(&mut rng),
        ];
        CuckooIndex {
            slots: vec![None; capacity],
            fps: vec![0; capacity],
            hashers,
            modulus: FastMod32::new(capacity),
            len: 0,
            max_iters: max_iters.min(walk_cap),
            rng,
            path: Vec::new(),
        }
    }

    /// Number of slots `|I_w|`.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Constant-time lookup: probes the `p` candidate slots, rejecting
    /// non-matching ones on their one-byte fingerprint before the full
    /// key compare.
    pub fn lookup(&self, key: &GetKey) -> Option<EntryId> {
        self.position(key).map(|(_, id)| id)
    }

    /// [`CuckooIndex::lookup`] that also reports *where* the key lives:
    /// `(slot, entry)`. The ranged invalidations find their victims in
    /// the ordered extent directory and come here for the slot, so they
    /// can evict in ascending slot order without scanning the table.
    #[inline]
    pub fn position(&self, key: &GetKey) -> Option<(usize, EntryId)> {
        let x = key.mix();
        let fp = fingerprint(x);
        for h in &self.hashers {
            let i = h.hash(x, self.modulus);
            if self.fps[i] != fp {
                continue;
            }
            if let Some(s) = &self.slots[i] {
                if s.key == *key {
                    return Some((i, s.entry));
                }
            }
        }
        None
    }

    /// [`CuckooIndex::lookup`] without the fingerprint filter: probes the
    /// candidate slots with full key compares only. Exists so the
    /// property suite can check the filter is behavior-preserving.
    #[doc(hidden)]
    pub fn lookup_full_compare(&self, key: &GetKey) -> Option<EntryId> {
        let x = key.mix();
        for h in &self.hashers {
            let i = h.hash(x, self.modulus);
            if let Some(s) = &self.slots[i] {
                if s.key == *key {
                    return Some(s.entry);
                }
            }
        }
        None
    }

    /// The entry stored at slot `i`, if any (used by the victim-selection
    /// scan, which samples consecutive slots).
    pub fn slot(&self, i: usize) -> Option<(GetKey, EntryId)> {
        self.slots[i].map(|s| (s.key, s.entry))
    }

    /// Inserts `key -> entry` with the random-walk Cuckoo scheme.
    ///
    /// The caller must ensure `key` is not already present (lookup first).
    pub fn insert(&mut self, key: GetKey, entry: EntryId) -> InsertOutcome {
        debug_assert!(self.lookup(&key).is_none(), "duplicate insert of {key:?}");
        let m = self.modulus;
        let mut cur = Slot { key, entry };
        self.path.clear();
        for step in 0..self.max_iters {
            let x = cur.key.mix();
            // Try all p candidate positions for an empty slot first.
            for h in &self.hashers {
                let i = h.hash(x, m);
                if self.slots[i].is_none() {
                    self.slots[i] = Some(cur);
                    self.fps[i] = fingerprint(x);
                    self.len += 1;
                    return InsertOutcome::Placed { steps: step };
                }
            }
            // All occupied: displace a random candidate.
            let choice = self.rng.gen_range(0..NUM_HASHES);
            let i = self.hashers[choice].hash(x, m);
            self.path.push(i);
            // xlint: allow(no-unwrap) invariant: the all-occupied branch was just checked
            let displaced = self.slots[i].replace(cur).expect("slot checked occupied");
            self.fps[i] = fingerprint(x);
            cur = displaced;
        }
        InsertOutcome::Cycle {
            homeless: (cur.key, cur.entry),
        }
    }

    /// The slot indices the most recent [`CuckooIndex::insert`] displaced,
    /// in walk order (empty when it found a free slot straight away). After
    /// an [`InsertOutcome::Cycle`] this is the insertion path to evict
    /// from.
    pub fn last_path(&self) -> &[usize] {
        &self.path
    }

    /// Removes `key`; returns its entry id if present.
    pub fn remove(&mut self, key: &GetKey) -> Option<EntryId> {
        let x = key.mix();
        let fp = fingerprint(x);
        for h in &self.hashers {
            let i = h.hash(x, self.modulus);
            if self.fps[i] != fp {
                continue;
            }
            if let Some(s) = &self.slots[i] {
                if s.key == *key {
                    let id = s.entry;
                    self.slots[i] = None;
                    self.fps[i] = 0;
                    self.len -= 1;
                    return Some(id);
                }
            }
        }
        None
    }

    /// Removes whatever occupies slot `i` (victim eviction by position).
    pub fn remove_slot(&mut self, i: usize) -> Option<(GetKey, EntryId)> {
        let s = self.slots[i].take();
        if s.is_some() {
            self.fps[i] = 0;
            self.len -= 1;
        }
        s.map(|s| (s.key, s.entry))
    }

    /// Empties the table, keeping capacity and hash functions.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.fps.iter_mut().for_each(|f| *f = 0);
        self.len = 0;
    }

    /// Iterates over all occupied slots as `(slot, key, entry)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, GetKey, EntryId)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (i, s.key, s.entry)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: u32, d: u64) -> GetKey {
        GetKey { target: t, disp: d }
    }

    fn idx(cap: usize) -> CuckooIndex {
        CuckooIndex::new(cap, 32, 42)
    }

    #[test]
    fn insert_then_lookup() {
        let mut ix = idx(64);
        assert!(matches!(
            ix.insert(key(1, 100), 7),
            InsertOutcome::Placed { .. }
        ));
        assert_eq!(ix.lookup(&key(1, 100)), Some(7));
        assert_eq!(ix.lookup(&key(1, 101)), None);
        assert_eq!(ix.lookup(&key(2, 100)), None);
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn remove_frees_the_slot() {
        let mut ix = idx(64);
        ix.insert(key(0, 0), 1);
        assert_eq!(ix.remove(&key(0, 0)), Some(1));
        assert_eq!(ix.lookup(&key(0, 0)), None);
        assert_eq!(ix.len(), 0);
        assert_eq!(ix.remove(&key(0, 0)), None);
    }

    #[test]
    fn fills_to_high_load_factor() {
        // Fotakis et al. report ~97% utilization with p=4. The exact
        // point of the first cycle depends on the hash coefficients, so
        // assert over several seeds: every run must clear 85% and the
        // average must clear 90% (a single seed sits right at the
        // threshold and would pin the test to one PRNG stream).
        let cap = 256;
        let mut total_inserted = 0usize;
        let seeds = [42u64, 7, 99, 1234, 5555];
        for &seed in &seeds {
            let mut ix = CuckooIndex::new(cap, 32, seed);
            let mut inserted = 0usize;
            let mut homeless_key = None;
            for d in 0..cap as u64 {
                match ix.insert(key(0, d), d as EntryId) {
                    InsertOutcome::Placed { .. } => inserted += 1,
                    InsertOutcome::Cycle { homeless, .. } => {
                        // The walk leaves exactly one (displaced) pair homeless.
                        homeless_key = Some(homeless.0);
                        break;
                    }
                }
            }
            assert!(
                inserted as f64 >= 0.85 * cap as f64,
                "seed {seed}: only {inserted}/{cap} inserted before first cycle"
            );
            total_inserted += inserted;
            // Everything inserted is still findable, except the homeless
            // pair the cycle displaced out of the table.
            for d in 0..inserted as u64 {
                if homeless_key == Some(key(0, d)) {
                    continue;
                }
                assert_eq!(ix.lookup(&key(0, d)), Some(d as EntryId), "d={d}");
            }
        }
        let mean = total_inserted as f64 / seeds.len() as f64;
        assert!(
            mean >= 0.90 * cap as f64,
            "mean fill before first cycle too low: {mean}/{cap}"
        );
    }

    #[test]
    fn cycle_reports_path_and_homeless() {
        let mut ix = CuckooIndex::new(4, 8, 1);
        let mut homeless = None;
        for d in 0..64u64 {
            if let InsertOutcome::Cycle { homeless: h } = ix.insert(key(9, d), d as EntryId) {
                assert_eq!(ix.last_path().len(), 8, "one slot per walk step");
                for &slot in ix.last_path() {
                    assert!(slot < ix.capacity());
                }
                homeless = Some(h);
                break;
            }
        }
        let (hk, he) = homeless.expect("a 4-slot table must overflow within 64 inserts");
        // The homeless pair is not in the table.
        assert_ne!(ix.lookup(&hk), Some(he));
        // Every resident is a (key, entry) pair we inserted.
        for (_, k, e) in ix.iter() {
            assert_eq!(k.target, 9);
            assert_eq!(k.disp, e as u64);
        }
    }

    #[test]
    fn displacements_preserve_all_residents() {
        let mut ix = idx(128);
        let mut placed = Vec::new();
        let mut homeless_key = None;
        for d in 0..120u64 {
            match ix.insert(key(3, d * 16), d as EntryId) {
                InsertOutcome::Placed { .. } => placed.push(d),
                InsertOutcome::Cycle { homeless, .. } => {
                    homeless_key = Some(homeless.0);
                    break;
                }
            }
        }
        // Every placed key except the (at most one) homeless pair survives
        // all the displacement swaps.
        for &d in &placed {
            if homeless_key == Some(key(3, d * 16)) {
                continue;
            }
            assert_eq!(ix.lookup(&key(3, d * 16)), Some(d as EntryId));
        }
    }

    #[test]
    fn remove_slot_by_position() {
        let mut ix = idx(32);
        ix.insert(key(5, 40), 11);
        let (pos, k, e) = ix.iter().next().unwrap();
        assert_eq!((k, e), (key(5, 40), 11));
        assert_eq!(ix.position(&key(5, 40)), Some((pos, 11)));
        assert_eq!(ix.remove_slot(pos), Some((key(5, 40), 11)));
        assert_eq!(ix.position(&key(5, 40)), None);
        assert!(ix.is_empty());
        assert_eq!(ix.remove_slot(pos), None);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut ix = idx(32);
        for d in 0..10 {
            ix.insert(key(0, d), d as EntryId);
        }
        ix.clear();
        assert!(ix.is_empty());
        assert_eq!(ix.capacity(), 32);
        assert!(matches!(
            ix.insert(key(0, 3), 99),
            InsertOutcome::Placed { .. }
        ));
        assert_eq!(ix.lookup(&key(0, 3)), Some(99));
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = CuckooIndex::new(64, 16, 7);
        let mut b = CuckooIndex::new(64, 16, 7);
        for d in 0..50u64 {
            let ra = matches!(a.insert(key(1, d), d as u32), InsertOutcome::Placed { .. });
            let rb = matches!(b.insert(key(1, d), d as u32), InsertOutcome::Placed { .. });
            assert_eq!(ra, rb, "divergence at {d}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = CuckooIndex::new(0, 8, 0);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "32-bit hash range")]
    fn capacity_beyond_the_hash_range_rejected() {
        // The assertion fires before any slot is allocated.
        let _ = CuckooIndex::new(u32::MAX as usize + 1, 8, 0);
    }
}
