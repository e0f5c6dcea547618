//! The registry of workload and metric names: the single list the binary
//! emits from and `BENCHMARK.json` is checked against (`tests/names.rs`).

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction and — for end-to-end metrics — the
/// share of the parent's median by which it may worsen (0 for per-layer
/// metrics, which carry no bound).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// The six workloads, in suite order.
pub const WORKLOADS: [&str; 6] = [
    "hit_small",
    "miss_churn",
    "bh_force",
    "lcc_adaptive",
    "dht_mixed",
    "shared_front",
];

/// End-to-end metrics, reported by every workload on an untraced run.
/// `setup_s`, `cpu_speedup_x` and `rss_peak_mb` are host measurements (the
/// first two from CPU seconds of the process, which an untraced run keeps to
/// one CPU); `virt_*` are simulated nanoseconds and repeat exactly for a
/// fixed seed (their bounds only absorb the difference between the seeds the
/// driver draws).
///
/// Each bound is at least three times the widest spread (interquartile
/// distance over the median) seen across ten seeds on the 2-core reference
/// host (README.md, "Reference run"). `setup_s`, the one absolute host time
/// left, has the largest bound the driver allows: the host has phases of
/// minutes in which everything takes up to three times as long.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("cpu_speedup_x", "x", Better::Higher, 0.25),
    e2e("virt_ns_per_op", "ns/op", Better::Lower, 0.08),
    e2e("virt_speedup_x", "x", Better::Higher, 0.10),
    e2e("rss_peak_mb", "MiB", Better::Lower, 0.15),
];

/// Per-layer metrics, reported by every workload on a traced run. A metric
/// a workload does not exercise is reported as 0 (and left out of the
/// human-readable listing). The prefix is the layer (module) name.
pub const PER_LAYER: [MetricDef; 82] = [
    // host: calibration only.
    lo("host.timer_ns", "ns"),
    lo("host.memcpy_ns_per_get", "ns/get"),
    hi("host.parallelism", "count"),
    lo("host.rep_spread", "share"),
    // datatype
    lo("datatype.flatten_ns_per_call", "ns/call"),
    lo("datatype.pack_ns_per_call", "ns/call"),
    // rma: the simulator (window.rs, clock.rs, netmodel.rs, collectives.rs).
    lo("rma.get_wall_ns", "ns/get"),
    lo("rma.put_wall_ns", "ns/call"),
    lo("rma.barrier_wall_ns", "ns/call"),
    lo("rma.lock_all_wall_ns", "ns/call"),
    lo("rma.virt_cpu_ns_per_op", "ns/op"),
    lo("rma.virt_wire_ns_per_op", "ns/op"),
    lo("rma.virt_blocked_ns_per_op", "ns/op"),
    lo("rma.wire_gets", "count"),
    lo("rma.wire_bytes_get", "bytes"),
    lo("rma.wire_puts", "count"),
    lo("rma.flushes", "count"),
    // index: the cuckoo index.
    lo("index.lookup_wall_ns", "ns/call"),
    lo("index.load_factor", "share"),
    // storage: the AVL best-fit allocator.
    lo("storage.alloc_free_wall_ns", "ns/call"),
    hi("storage.occupancy", "share"),
    // cache: engine, eviction, adaptive controller.
    lo("cache.engine_wall_ns_per_get", "ns/get"),
    hi("cache.hit_ratio", "share"),
    lo("cache.direct_share", "share"),
    lo("cache.conflicting_share", "share"),
    lo("cache.capacity_share", "share"),
    lo("cache.failed_share", "share"),
    hi("cache.bytes_from_cache_share", "share"),
    lo("cache.evictions", "count"),
    lo("cache.visited_slots_per_eviction", "count"),
    hi("cache.visited_nonempty_share", "share"),
    lo("cache.adjustments", "count"),
    lo("cache.invalidations", "count"),
    // window: CachedWindow.
    lo("window.get_wall_ns", "ns/get"),
    lo("window.get_wall_ns_p50", "ns"),
    lo("window.get_wall_ns_p99", "ns"),
    hi("window.get_samples", "count"),
    lo("window.get_wall_ns_hit", "ns/get"),
    lo("window.get_wall_ns_direct", "ns/get"),
    lo("window.get_wall_ns_conflicting", "ns/get"),
    lo("window.get_wall_ns_capacity", "ns/get"),
    lo("window.get_wall_ns_failed", "ns/get"),
    lo("window.hit_contig_wall_ns", "ns/get"),
    lo("window.hit_strided_wall_ns", "ns/get"),
    lo("window.self_wall_ns", "ns/get"),
    lo("window.overhead_x", "x"),
    lo("window.get_nb_wall_ns", "ns/call"),
    lo("window.flush_batch_wall_ns", "ns/call"),
    hi("window.coalesced_share", "share"),
    hi("window.overlapped_wire_share", "share"),
    // coherence
    lo("coherence.validate_wall_ns", "ns/call"),
    lo("coherence.notifications_drained", "count"),
    lo("coherence.overflows", "count"),
    hi("coherence.stale_prevented", "count"),
    lo("coherence.version_fetches", "count"),
    // snapshot
    lo("snapshot.multi_get_wall_ns_per_req", "ns/req"),
    lo("snapshot.refetch_share", "share"),
    lo("snapshot.abort_share", "share"),
    lo("snapshot.staleness_virt_ns", "ns/req"),
    // shard: the concurrent front.
    lo("shard.get_wall_ns_t1", "ns/call"),
    lo("shard.get_wall_ns_t2", "ns/call"),
    lo("shard.insert_wall_ns", "ns/call"),
    hi("shard.scaling_x", "x"),
    lo("shard.vs_engine_x", "x"),
    lo("shard.opt_retries", "count"),
    lo("shard.locked_reads", "count"),
    lo("shard.write_locks", "count"),
    // apps
    lo("dht.lookup_wall_ns", "ns/call"),
    lo("dht.insert_wall_ns", "ns/call"),
    lo("dht.bucket_gets_per_lookup", "count"),
    hi("dht.loc_hit_ratio", "share"),
    lo("dht.multi_get_fallback_share", "share"),
    lo("bh.nodes_visited_per_body", "count"),
    lo("bh.remote_fetches_per_body", "count"),
    lo("lcc.remote_fetches_per_vertex", "count"),
    lo("lcc.avg_get_bytes", "bytes"),
    lo("lcc.final_index_entries", "count"),
    lo("lcc.final_storage_bytes", "bytes"),
    // model: model-vs-metal reconciliation (virtual ns ÷ host ns).
    lo("model.hit_ratio_x", "x"),
    lo("model.lookup_ratio_x", "x"),
    // trace: the cost of recording.
    lo("trace.overhead_x", "x"),
    hi("trace.spans", "count"),
];

/// Whether metric `d` of `workload` must read bit for bit the same on two
/// runs of one commit with one seed: the virtual-time metrics, and every
/// per-layer count, share or byte total read from the library's counters
/// after fixed work from a fixed state. Host measurements never do; nor do
/// the counters of `shared_front` (two threads interleave freely) or the
/// `trace` layer (its span count depends on how many passes fit the time).
pub fn repeats_exactly(d: &MetricDef, workload: &str) -> bool {
    if END_TO_END.iter().any(|e| e.name == d.name) {
        return d.name.starts_with("virt_");
    }
    let counted = matches!(d.unit, "count" | "share" | "bytes") || d.name.contains("virt_");
    let host_side = ["host.", "shard.", "trace."]
        .iter()
        .any(|p| d.name.starts_with(p));
    counted && !host_side && workload != "shared_front"
}

/// Whether `s` obeys the driver's naming rule: starts with a letter or a
/// digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Whether `s` obeys the driver's unit rule: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad name `{name}`");
            assert!(seen.insert(name), "duplicate name `{name}`");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_unit(m.unit), "bad unit `{}` on {}", m.unit, m.name);
        }
    }

    #[test]
    fn end_to_end_bounds_obey_the_contract() {
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_per_layer_metric_belongs_to_a_layer() {
        // `dht.`/`bh.`/`lcc.` are the apps layer's three applications.
        let prefixes: Vec<&str> = crate::spans::LAYERS
            .iter()
            .copied()
            .filter(|l| *l != "apps")
            .chain(["dht", "bh", "lcc"])
            .collect();
        for m in &PER_LAYER {
            let prefix = m.name.split('.').next().expect("prefix");
            assert!(prefixes.contains(&prefix), "{} has no layer", m.name);
        }
    }

    #[test]
    fn only_counters_and_virtual_time_repeat_exactly() {
        let def = |name: &str| {
            *END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .find(|d| d.name == name)
                .expect("registered")
        };
        for name in [
            "virt_ns_per_op",
            "cache.hit_ratio",
            "rma.wire_gets",
            "rma.virt_cpu_ns_per_op",
        ] {
            assert!(repeats_exactly(&def(name), "miss_churn"), "{name}");
        }
        for name in [
            "cpu_speedup_x",
            "setup_s",
            "window.get_wall_ns",
            "host.parallelism",
            "trace.spans",
        ] {
            assert!(!repeats_exactly(&def(name), "miss_churn"), "{name}");
        }
        assert!(repeats_exactly(&def("virt_speedup_x"), "shared_front"));
        assert!(!repeats_exactly(&def("cache.hit_ratio"), "shared_front"));
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("window.get_wall_ns_p99"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("ops/s") && valid_unit("%") && !valid_unit("") && !valid_unit("a b"));
    }
}
