//! Get-trace capture and offline replay.
//!
//! Tuning `|I_w|`, `|S_w|`, the victim scheme or the adaptive thresholds
//! against a full application run is slow; a *trace* of the application's
//! `get_c` stream replayed directly through the cache engine explores the
//! same policy space in milliseconds. This module provides:
//!
//! - [`Trace`]: an in-memory get/epoch/invalidate event stream with a
//!   compact little-endian binary serialization (no external format
//!   dependencies);
//! - [`replay`]: drives a [`RmaCache`] through the trace and returns the
//!   statistics plus a modelled completion time, so policies can be ranked
//!   exactly like the figure binaries rank live runs.
//!
//! The replayer feeds the cache synthetic payloads — policy decisions
//! depend only on keys and sizes, never on payload bytes.

use clampi_rma::NetModel;

use crate::cache::{CacheParams, LayoutSig, Lookup, RmaCache};
use crate::index::GetKey;
use crate::stats::CacheStats;

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A contiguous `get_c` of `size` bytes.
    Get {
        /// Target rank.
        target: u32,
        /// Byte displacement in the target window.
        disp: u64,
        /// Payload size in bytes.
        size: u32,
    },
    /// An epoch closure (flush/unlock in the traced run).
    EpochClose,
    /// An invalidation restricted to the bytes `[disp, disp + len)` of
    /// `target`'s window — what a coherence pass or a per-target
    /// degradation performs. A *full* invalidation (`CLAMPI_Invalidate`)
    /// is the sentinel `target == u32::MAX` (with `disp == 0`,
    /// `len == u64::MAX`).
    Invalidate {
        /// Target rank, or `u32::MAX` for a full invalidation.
        target: u32,
        /// First invalidated byte displacement.
        disp: u64,
        /// Length of the invalidated range in bytes.
        len: u64,
    },
}

/// The [`TraceEvent::Invalidate`] sentinel for a full (all-targets)
/// invalidation.
pub const INVALIDATE_ALL: TraceEvent = TraceEvent::Invalidate {
    target: u32::MAX,
    disp: 0,
    len: u64::MAX,
};

/// A recorded event stream.
///
/// # Examples
///
/// ```
/// use clampi::trace::{replay, Trace};
/// use clampi::CacheParams;
/// use clampi_rma::NetModel;
///
/// let mut trace = Trace::new();
/// for _ in 0..3 {
///     trace.get(1, 0, 256); // the same get, three times
///     trace.epoch_close();
/// }
/// let result = replay(&trace, CacheParams::default(), &NetModel::default());
/// assert_eq!(result.stats.hits, 2); // first is a miss, rest hit
///
/// // Round-trips through the compact binary format.
/// assert_eq!(Trace::from_bytes(&trace.to_bytes()).unwrap(), trace);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

/// Format version 2: `Invalidate` carries `(target, disp, len)`.
const MAGIC: &[u8; 8] = b"CLAMPIT2";
const TAG_GET: u8 = 1;
const TAG_EPOCH: u8 = 2;
const TAG_INVALIDATE: u8 = 3;

/// Reads a little-endian `u32` at `data[at..at + 4]`; the caller has
/// already length-checked the slice.
fn le32(data: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&data[at..at + 4]);
    u32::from_le_bytes(b)
}

/// Reads a little-endian `u64` at `data[at..at + 8]`; the caller has
/// already length-checked the slice.
fn le64(data: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(b)
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Records a contiguous get.
    pub fn get(&mut self, target: u32, disp: u64, size: u32) {
        self.events.push(TraceEvent::Get { target, disp, size });
    }

    /// Records an epoch closure.
    pub fn epoch_close(&mut self) {
        self.events.push(TraceEvent::EpochClose);
    }

    /// Records an explicit full invalidation (`CLAMPI_Invalidate`).
    pub fn invalidate(&mut self) {
        self.events.push(INVALIDATE_ALL);
    }

    /// Records a per-target ranged invalidation of the bytes
    /// `[disp, disp + len)` — what a coherence pass emits when it drops
    /// entries overlapping a drained put record, or a degradation path
    /// emits with `disp = 0, len = u64::MAX`.
    pub fn invalidate_range(&mut self, target: u32, disp: u64, len: u64) {
        self.events
            .push(TraceEvent::Invalidate { target, disp, len });
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of `Get` events.
    pub fn num_gets(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Get { .. }))
            .count()
    }

    /// Serializes to the compact binary format (version 2).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.events.len() * 21);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        for e in &self.events {
            match *e {
                TraceEvent::Get { target, disp, size } => {
                    out.push(TAG_GET);
                    out.extend_from_slice(&target.to_le_bytes());
                    out.extend_from_slice(&disp.to_le_bytes());
                    out.extend_from_slice(&size.to_le_bytes());
                }
                TraceEvent::EpochClose => out.push(TAG_EPOCH),
                TraceEvent::Invalidate { target, disp, len } => {
                    out.push(TAG_INVALIDATE);
                    out.extend_from_slice(&target.to_le_bytes());
                    out.extend_from_slice(&disp.to_le_bytes());
                    out.extend_from_slice(&len.to_le_bytes());
                }
            }
        }
        out
    }

    /// Parses the binary format (`CLAMPIT2`: 16-byte header, then one
    /// tagged record per event).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed byte sequence.
    pub fn from_bytes(data: &[u8]) -> Result<Self, String> {
        if data.len() < 16 {
            return Err("not a CLaMPI trace (too short)".into());
        }
        if &data[..8] != MAGIC {
            return Err("not a CLaMPI trace (bad magic)".into());
        }
        // Every event is at least its tag byte, so a count the buffer
        // cannot hold is a lie: reject it before reserving memory for it.
        let count = usize::try_from(le64(data, 8))
            .ok()
            .filter(|&n| n <= data.len() - 16)
            .ok_or("event count exceeds the trace's length")?;
        let mut events = Vec::with_capacity(count);
        let mut at = 16;
        for i in 0..count {
            let tag = *data
                .get(at)
                .ok_or_else(|| format!("truncated at event {i}"))?;
            at += 1;
            match tag {
                TAG_GET => {
                    if data.len() < at + 16 {
                        return Err(format!("truncated get at event {i}"));
                    }
                    let target = le32(data, at);
                    let disp = le64(data, at + 4);
                    let size = le32(data, at + 12);
                    at += 16;
                    events.push(TraceEvent::Get { target, disp, size });
                }
                TAG_EPOCH => events.push(TraceEvent::EpochClose),
                TAG_INVALIDATE => {
                    if data.len() < at + 20 {
                        return Err(format!("truncated invalidate at event {i}"));
                    }
                    let target = le32(data, at);
                    let disp = le64(data, at + 4);
                    let len = le64(data, at + 12);
                    at += 20;
                    events.push(TraceEvent::Invalidate { target, disp, len });
                }
                t => return Err(format!("unknown tag {t} at event {i}")),
            }
        }
        if at != data.len() {
            return Err(format!("{} trailing bytes", data.len() - at));
        }
        Ok(Trace { events })
    }

    /// Writes the trace to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a trace from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; malformed contents become
    /// `io::ErrorKind::InvalidData`.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let data = std::fs::read(path)?;
        Self::from_bytes(&data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// The outcome of a replay.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Cache statistics over the whole trace.
    pub stats: CacheStats,
    /// Modelled completion time (management + copies + miss latencies).
    pub completion_ns: f64,
}

/// Replays `trace` through a fresh cache with `params`. Every non-hit
/// pays `net`'s same-chassis get plus one sync: issue overhead, latency
/// and sync overhead, then the per-byte wire cost of the missing bytes.
///
/// Buffers are sized by what the cache can hold, never by the file: a
/// get larger than `|S_w|` (`params.storage_bytes`) can never be cached,
/// so it is charged as an uncached miss and recorded `Failed` without a
/// payload buffer of its size. This is where replay and a live run
/// differ: a live get that size would also serve the head of a smaller
/// resident entry at its key, and its failed install would still evict
/// up to `max_evictions_per_miss` entries for space.
pub fn replay(trace: &Trace, params: CacheParams, net: &NetModel) -> ReplayResult {
    let mut cache = RmaCache::new(params);
    let completion_ns = replay_on(&mut cache, trace, net);
    ReplayResult {
        stats: *cache.stats(),
        completion_ns,
    }
}

/// [`replay`] into a given engine; returns the modelled completion time.
fn replay_on(cache: &mut RmaCache, trace: &Trace, net: &NetModel) -> f64 {
    // Index 2 is the same-chassis distance class.
    let miss_base_ns = net.issue_overhead_ns + net.latency_ns[2] + net.sync_overhead_ns;
    let miss_per_byte_ns = net.per_byte_ns[2];
    let cacheable = cache.params().storage_bytes;
    let mut completion_ns = 0.0;
    let mut payload: Vec<u8> = Vec::new();
    let mut dst: Vec<u8> = Vec::new();
    for e in trace.events() {
        match *e {
            TraceEvent::Get { target, disp, size } => {
                let size = size as usize;
                if size == 0 {
                    continue;
                }
                let key = GetKey { target, disp };
                if size > cacheable {
                    completion_ns += miss_base_ns + size as f64 * miss_per_byte_ns;
                    cache.record_uncacheable(key, size);
                } else {
                    let sig = LayoutSig::Contig(size);
                    dst.resize(size, 0);
                    match cache.process_lookup(key, &sig, &mut dst) {
                        Lookup::Hit => {}
                        Lookup::PartialHit { cached_len } => {
                            payload.resize(size, 0);
                            completion_ns +=
                                miss_base_ns + (size - cached_len) as f64 * miss_per_byte_ns;
                            cache.finish_partial(key, sig, &payload, 0);
                        }
                        Lookup::Miss => {
                            payload.resize(size, 0);
                            completion_ns += miss_base_ns + size as f64 * miss_per_byte_ns;
                            cache.finish_miss(key, sig, &payload, 0);
                        }
                    }
                }
            }
            TraceEvent::EpochClose => cache.epoch_close(),
            e if e == INVALIDATE_ALL => cache.invalidate(),
            TraceEvent::Invalidate { target, disp, len } => {
                cache.invalidate_range(target, disp, disp.saturating_add(len));
            }
        }
        completion_ns += cache.take_cost();
    }
    cache.epoch_close();
    completion_ns + cache.take_cost()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::CacheCostModel;
    use clampi_prng::prop::check;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        for round in 0..5u64 {
            for d in 0..20u64 {
                t.get(1, d * 256, 128);
                t.epoch_close();
            }
            if round == 2 {
                t.invalidate();
            }
        }
        t
    }

    #[test]
    fn roundtrip_bytes() {
        let t = sample_trace();
        let b = t.to_bytes();
        let back = Trace::from_bytes(&b).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.num_gets(), 100);
    }

    #[test]
    fn roundtrip_file() {
        let t = sample_trace();
        let path = std::env::temp_dir().join("clampi_trace_test.bin");
        t.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(t, back);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(Trace::from_bytes(b"garbage").is_err());
        let mut ok = sample_trace().to_bytes();
        ok.push(0xFF); // trailing byte
        assert!(Trace::from_bytes(&ok).is_err());
        let mut truncated = sample_trace().to_bytes();
        truncated.truncate(20);
        assert!(Trace::from_bytes(&truncated).is_err());
        let mut bad_tag = sample_trace().to_bytes();
        bad_tag[16] = 99;
        assert!(Trace::from_bytes(&bad_tag).is_err());
        // Hostile headers: an event count no buffer could back must not
        // reach the allocator (it used to panic or abort there).
        for count in [u64::MAX, 1 << 36] {
            let mut header = MAGIC.to_vec();
            header.extend_from_slice(&count.to_le_bytes());
            assert!(Trace::from_bytes(&header).is_err(), "count {count}");
        }
        // An invalidate must carry its 20-byte payload.
        let mut t = Trace::new();
        t.invalidate_range(1, 0, 64);
        let mut cut = t.to_bytes();
        cut.truncate(cut.len() - 4);
        assert!(Trace::from_bytes(&cut).is_err());
    }

    /// ROADMAP aim 3, hostile inputs: whatever bytes arrive, `from_bytes`
    /// returns `Ok` or `Err` and never panics; an accepted trace is the
    /// canonical encoding of what it parsed to, and replaying it leaves a
    /// small engine consistent. Inputs: random bytes (bare, or behind a
    /// valid header with a small event count), truncations and
    /// single-byte flips of valid traces — a flip can turn a field into a
    /// hostile target, displacement or size, which replay must survive
    /// without allocating what it says.
    #[test]
    fn hostile_bytes_parse_or_fail_and_replay_consistently() {
        let mut mixed = sample_trace();
        for i in 0..24u64 {
            mixed.get((i % 3) as u32, i * 40, 8 + (i as u32 * 13) % 200);
            if i % 5 == 0 {
                mixed.invalidate_range((i % 3) as u32, i * 40, 64);
                mixed.epoch_close();
            }
        }
        let valid = [sample_trace().to_bytes(), mixed.to_bytes()];
        let params = CacheParams {
            index_entries: 16,
            storage_bytes: 1024,
            ..CacheParams::default()
        };
        check("Trace::from_bytes on hostile bytes", 400, |g| {
            let mut bytes = match g.range(0..4u32) {
                0 => Vec::new(),
                1 => {
                    let mut header = MAGIC.to_vec();
                    header.extend_from_slice(&g.range(0..8u64).to_le_bytes());
                    header
                }
                _ => valid[g.range(0..valid.len())].clone(),
            };
            if bytes.len() <= 16 {
                let tail = g.range(0..120usize);
                bytes.extend((0..tail).map(|_| g.range(0..256u32) as u8));
            } else if g.bool() {
                bytes.truncate(g.range(0..bytes.len()));
            } else {
                let at = g.range(0..bytes.len());
                bytes[at] ^= g.range(1..256u32) as u8;
            }
            let Ok(trace) = Trace::from_bytes(&bytes) else {
                return;
            };
            assert_eq!(trace.to_bytes(), bytes, "accepted a non-canonical encoding");
            let mut cache = RmaCache::new(params.clone());
            replay_on(&mut cache, &trace, &NetModel::default());
            cache.check_invariants();
        });
    }

    #[test]
    fn ranged_invalidates_roundtrip() {
        let mut t = Trace::new();
        t.get(2, 128, 64);
        t.epoch_close();
        t.invalidate_range(2, 128, 64);
        t.invalidate_range(7, 0, u64::MAX); // full per-target drop
        t.invalidate(); // full invalidation sentinel
        let back = Trace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back, t);
        assert_eq!(
            back.events()[2],
            TraceEvent::Invalidate {
                target: 2,
                disp: 128,
                len: 64
            }
        );
        assert_eq!(back.events()[4], INVALIDATE_ALL);
    }

    #[test]
    fn replay_ranged_invalidation_is_surgical() {
        // Two cached blocks; invalidating one range must only re-miss the
        // overlapped block.
        let mut t = Trace::new();
        t.get(0, 0, 128);
        t.get(0, 4096, 128);
        t.epoch_close();
        t.invalidate_range(0, 0, 128); // hits only the first block
        t.get(0, 0, 128); // miss again
        t.get(0, 4096, 128); // still a hit
        t.epoch_close();
        let r = replay(
            &t,
            CacheParams {
                index_entries: 64,
                storage_bytes: 64 << 10,
                costs: CacheCostModel::free(),
                ..CacheParams::default()
            },
            &NetModel::default(),
        );
        assert_eq!(r.stats.total_gets, 4);
        assert_eq!(r.stats.direct, 3, "the invalidated block re-missed");
        assert_eq!(r.stats.hits, 1, "the untouched block kept hitting");
    }

    #[test]
    fn replay_reproduces_reuse_and_invalidation() {
        let t = sample_trace();
        let r = replay(
            &t,
            CacheParams {
                index_entries: 64,
                storage_bytes: 64 << 10,
                costs: CacheCostModel::free(),
                ..CacheParams::default()
            },
            &NetModel::default(),
        );
        // Round 1 misses (20), rounds 2-3 hit, invalidate, round 4 misses
        // again, round 5 hits.
        assert_eq!(r.stats.total_gets, 100);
        assert_eq!(r.stats.direct, 40);
        assert_eq!(r.stats.hits, 60);
        assert_eq!(r.stats.invalidations, 1);
        assert!(r.completion_ns > 0.0);
    }

    #[test]
    fn replay_ranks_policies_like_live_runs() {
        // A tiny index must replay slower (conflict evictions) than an
        // adequate one — the property that makes offline tuning useful.
        let mut t = Trace::new();
        for _ in 0..10 {
            for d in 0..100u64 {
                t.get(0, d * 1000, 64);
                t.epoch_close();
            }
        }
        let small = replay(
            &t,
            CacheParams {
                index_entries: 8,
                storage_bytes: 1 << 20,
                ..CacheParams::default()
            },
            &NetModel::default(),
        );
        let big = replay(
            &t,
            CacheParams {
                index_entries: 512,
                storage_bytes: 1 << 20,
                ..CacheParams::default()
            },
            &NetModel::default(),
        );
        assert!(big.stats.hit_ratio() > small.stats.hit_ratio());
        assert!(big.completion_ns < small.completion_ns);
    }
}
