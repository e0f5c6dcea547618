//! Per-layer metrics read from the library's public counters, as deltas
//! over one fixed-work repetition (so they repeat exactly for a seed).

use clampi::{CacheStats, RmaCache};

use crate::report::Metrics;
use crate::stream::ClockMark;

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// `cache.*`, the counter-based `window.*`, `coherence.*` and `snapshot.*`
/// metrics from a `CacheStats` delta. Reads single fields only, so a
/// reshaped stats struct breaks a line here, not a struct literal.
pub fn emit_cache(m: &mut Metrics, s: &CacheStats) {
    let gets = s.total_gets;
    m.set("cache.hit_ratio", share(s.hits, gets));
    m.set("cache.direct_share", share(s.direct, gets));
    m.set("cache.conflicting_share", share(s.conflicting, gets));
    m.set("cache.capacity_share", share(s.capacity, gets));
    m.set("cache.failed_share", share(s.failed, gets));
    m.set(
        "cache.bytes_from_cache_share",
        share(
            s.bytes_from_cache,
            s.bytes_from_cache + s.bytes_from_network,
        ),
    );
    m.set("cache.evictions", s.evictions as f64);
    m.set(
        "cache.visited_slots_per_eviction",
        share(s.visited_slots, s.evictions),
    );
    m.set(
        "cache.visited_nonempty_share",
        share(s.visited_nonempty, s.visited_slots),
    );
    m.set("cache.adjustments", s.adjustments as f64);
    m.set("cache.invalidations", s.invalidations as f64);
    let misses = gets - s.hits;
    m.set("window.coalesced_share", share(s.coalesced_misses, misses));
    m.set(
        "coherence.notifications_drained",
        s.notifications_drained as f64,
    );
    m.set("coherence.overflows", s.notification_overflows as f64);
    m.set("coherence.stale_prevented", s.stale_hits_prevented as f64);
    m.set("coherence.version_fetches", s.version_fetches as f64);
    m.set(
        "snapshot.refetch_share",
        share(s.snapshot_refetches, s.snapshot_gets),
    );
    m.set(
        "snapshot.abort_share",
        share(s.snapshot_aborts, s.snapshot_gets),
    );
    m.set(
        "snapshot.staleness_virt_ns",
        share(s.snapshot_staleness_ns, s.snapshot_gets),
    );
}

/// `(index.load_factor, storage.occupancy)` of a window's cache (zeros
/// without one).
pub fn fill_of(cache: Option<&RmaCache>) -> (f64, f64) {
    cache.map_or((0.0, 0.0), |c| {
        (
            c.len() as f64 / c.params().index_entries.max(1) as f64,
            c.occupancy(),
        )
    })
}

/// `rma.virt_*` and the wire counts from rank 0's clock between two marks,
/// plus `window.overlapped_wire_share` (it needs the wire total).
pub fn emit_clock(
    m: &mut Metrics,
    before: &ClockMark,
    after: &ClockMark,
    ops: u64,
    stats: &CacheStats,
) {
    let per_op = |x: f64| if ops == 0 { 0.0 } else { x / ops as f64 };
    let wire = after.wire_ns - before.wire_ns;
    m.set(
        "rma.virt_cpu_ns_per_op",
        per_op(after.cpu_ns - before.cpu_ns),
    );
    m.set("rma.virt_wire_ns_per_op", per_op(wire));
    m.set(
        "rma.virt_blocked_ns_per_op",
        per_op(after.blocked_ns - before.blocked_ns),
    );
    let (a, b) = (after.counters, before.counters);
    m.set("rma.wire_gets", (a.gets - b.gets) as f64);
    m.set("rma.wire_bytes_get", (a.bytes_get - b.bytes_get) as f64);
    m.set("rma.wire_puts", (a.puts - b.puts) as f64);
    m.set("rma.flushes", (a.flushes - b.flushes) as f64);
    m.set(
        "window.overlapped_wire_share",
        if wire > 0.0 {
            stats.overlapped_wire_ns as f64 / wire
        } else {
            0.0
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::PER_LAYER;
    use clampi::AccessType;

    #[test]
    fn shares_are_fractions_of_the_gets() {
        let mut s = CacheStats::default();
        for t in [
            AccessType::Hit,
            AccessType::Hit,
            AccessType::Direct,
            AccessType::Capacity,
        ] {
            s.record(t);
        }
        s.evictions = 2;
        s.visited_slots = 10;
        s.visited_nonempty = 5;
        s.coalesced_misses = 1;
        let mut m = Metrics::new(&PER_LAYER);
        emit_cache(&mut m, &s);
        assert_eq!(m.get("cache.hit_ratio"), Some(0.5));
        assert_eq!(m.get("cache.capacity_share"), Some(0.25));
        assert_eq!(m.get("cache.visited_slots_per_eviction"), Some(5.0));
        assert_eq!(m.get("cache.visited_nonempty_share"), Some(0.5));
        assert_eq!(m.get("window.coalesced_share"), Some(0.5));
        assert_eq!(m.get("snapshot.abort_share"), Some(0.0));
    }
}
