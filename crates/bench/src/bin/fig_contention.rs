//! Contention scaling of the sharded cache front
//! ([`clampi::ShardedCache`]: one reader–writer lock per stripe).
//!
//! Many worker threads hammer one shared window's cache with Zipf-skewed
//! keys (skew makes popular keys collide on the same shard — the hard case
//! for any lock-based design). Two phases:
//!
//! - **read-only**: the cache is prefilled so every get is a hit; gets/sec
//!   and p99 get latency are reported for 1..N threads. The shard
//!   write-lock counter must stay *flat* across this phase — the "zero
//!   write-locks on the hit path" guarantee, asserted, not claimed. Every
//!   payload is self-identifying and verified, so a torn read that got
//!   past the stripe lock would be caught here.
//! - **mixed**: gets with a slice of refreshing inserts; afterwards the
//!   merged stats must satisfy `hits + direct + conflicting + capacity +
//!   failed == total_gets`.
//!
//! Unlike the virtual-clock figure benches, the numbers here are **wall
//! clock** (real threads, real cachelines) and therefore noisy; CI's
//! `golden` stage masks them. A
//! `scaling_x` figure is reported only when the host has at least as many
//! CPUs as the largest thread count — a number the host could not have
//! produced is not printed; the ≥3x scaling assertion additionally needs
//! ≥8 worker threads and a non-smoke run.
//!
//! Emits `# PERF <key> <value>` lines. Honours `CLAMPI_BENCH_SMOKE=1`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use clampi::index::GetKey;
use clampi::{AccessType, CacheParams, ShardedCache};
use clampi_bench::cli::{meta, row, Args};
use clampi_bench::smoke_mode;
use clampi_workloads::Zipf;

/// Self-identifying payload for key `i`: any torn or misdirected read
/// fails the byte checks below.
fn payload(i: usize, len: usize) -> Vec<u8> {
    let tag = (i as u64).wrapping_mul(0x9E37_79B9).to_le_bytes();
    (0..len).map(|j| tag[j % 8] ^ (j as u8)).collect()
}

fn key_of(i: usize, val_bytes: usize) -> GetKey {
    GetKey {
        target: 1,
        disp: (i * val_bytes) as u64,
    }
}

struct PhaseResult {
    gets_per_sec: f64,
    p99_ns: u64,
    misses: u64,
}

/// Read-only phase: `threads` workers issue `ops` Zipf-keyed gets each.
fn read_phase(
    cache: &Arc<ShardedCache>,
    threads: usize,
    ops: u64,
    keys: usize,
    val_bytes: usize,
    zipf_s: f64,
    seed: u64,
) -> PhaseResult {
    let barrier = Arc::new(Barrier::new(threads + 1));
    let misses = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let cache = Arc::clone(cache);
            let barrier = Arc::clone(&barrier);
            let misses = Arc::clone(&misses);
            std::thread::spawn(move || {
                let mut zipf =
                    Zipf::new(keys, zipf_s, seed ^ (tid as u64 + 1).wrapping_mul(0xD1B5));
                let mut dst = vec![0u8; val_bytes];
                let mut samples = Vec::with_capacity((ops / 32 + 1) as usize);
                let mut missed = 0u64;
                barrier.wait();
                for op in 0..ops {
                    let i = zipf.sample();
                    let k = key_of(i, val_bytes);
                    if op % 32 == 0 {
                        let t0 = Instant::now();
                        let hit = cache.get(k, &mut dst);
                        samples.push(t0.elapsed().as_nanos() as u64);
                        if !hit {
                            missed += 1;
                            continue;
                        }
                    } else if !cache.get(k, &mut dst) {
                        missed += 1;
                        continue;
                    }
                    // Torn-read tripwire: head, middle and tail bytes of
                    // the self-identifying payload.
                    let tag = (i as u64).wrapping_mul(0x9E37_79B9).to_le_bytes();
                    let mid = val_bytes / 2;
                    let last = val_bytes - 1;
                    assert_eq!(dst[0], tag[0], "torn head byte for key {i}");
                    assert_eq!(
                        dst[mid],
                        tag[mid % 8] ^ (mid as u8),
                        "torn mid byte for key {i}"
                    );
                    assert_eq!(
                        dst[last],
                        tag[last % 8] ^ (last as u8),
                        "torn tail byte for key {i}"
                    );
                }
                misses.fetch_add(missed, Ordering::Relaxed);
                samples
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    let mut samples: Vec<u64> = Vec::new();
    for h in handles {
        // xlint: allow(no-unwrap) bench: propagate worker panics
        samples.extend(h.join().unwrap());
    }
    let elapsed = t0.elapsed().as_secs_f64();
    samples.sort_unstable();
    let p99 = samples[((samples.len() * 99) / 100).min(samples.len() - 1)];
    PhaseResult {
        gets_per_sec: (threads as u64 * ops) as f64 / elapsed,
        p99_ns: p99,
        misses: misses.load(Ordering::Relaxed),
    }
}

/// Mixed phase: every 16th op refreshes its key with an insert; gets that
/// miss are re-inserted (the stats-equation workload shape).
fn mixed_phase(
    cache: &Arc<ShardedCache>,
    threads: usize,
    ops: u64,
    keys: usize,
    val_bytes: usize,
    zipf_s: f64,
    seed: u64,
) {
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let cache = Arc::clone(cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut zipf =
                    Zipf::new(keys, zipf_s, seed ^ (tid as u64 + 1).wrapping_mul(0xB0B5));
                let mut dst = vec![0u8; val_bytes];
                barrier.wait();
                for op in 0..ops {
                    let i = zipf.sample();
                    let k = key_of(i, val_bytes);
                    // Every 16th op refreshes unconditionally; the rest
                    // insert only on a miss.
                    if op % 16 == 0 || !cache.get(k, &mut dst) {
                        cache.insert(k, &payload(i, val_bytes));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        // xlint: allow(no-unwrap) bench: propagate worker panics
        h.join().unwrap();
    }
}

fn main() {
    let args = Args::parse();
    let smoke = smoke_mode();
    let keys: usize = args.get("keys", if smoke { 256 } else { 2048 });
    let val_bytes: usize = args.get("val-bytes", 256);
    let shards: usize = args.get("shards", 16);
    let max_threads: usize = args.get("threads", 8);
    let ops: u64 = args.get("ops", if smoke { 20_000 } else { 400_000 });
    let zipf_s: f64 = args.get("zipf-s", 0.99);
    let seed = args.seed();

    // 4x headroom in both index and storage so the prefill is
    // eviction-free and the read phase is all hits.
    let cache = Arc::new(ShardedCache::new(CacheParams {
        index_entries: keys * 4,
        storage_bytes: keys * val_bytes * 4,
        shards,
        ..CacheParams::default()
    }));
    for i in 0..keys {
        let class = cache.insert(key_of(i, val_bytes), &payload(i, val_bytes));
        assert_eq!(class, AccessType::Direct, "prefill evicted at key {i}");
    }
    assert_eq!(cache.len(), keys, "prefill must be eviction-free");

    meta(&format!(
        "fig_contention keys={keys} val_bytes={val_bytes} shards={shards} ops_per_thread={ops} zipf_s={zipf_s} seed={seed}"
    ));
    meta(&format!(
        "host_parallelism {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    row(&["threads", "mgets_per_sec", "p99_ns"]);

    let thread_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= max_threads)
        .collect();
    let mut rates = Vec::new();
    let mut p99s = Vec::new();
    for &t in &thread_counts {
        let locks_before = cache.write_lock_acquisitions();
        let r = read_phase(&cache, t, ops, keys, val_bytes, zipf_s, seed);
        // The acceptance criterion of the sharded front: a read-only
        // phase acquires zero write locks, at every thread count.
        assert_eq!(
            cache.write_lock_acquisitions(),
            locks_before,
            "hit path took a write lock at {t} threads"
        );
        assert_eq!(r.misses, 0, "prefilled read phase must not miss");
        row(&[
            format!("{t}"),
            format!("{:.3}", r.gets_per_sec / 1e6),
            format!("{}", r.p99_ns),
        ]);
        rates.push(r.gets_per_sec);
        p99s.push(r.p99_ns);
    }

    let scaling = rates.last().copied().map_or(0.0, |last| last / rates[0]);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    // xlint: allow(no-unwrap) thread_counts is never empty (1 <= max_threads)
    let tmax = *thread_counts.last().unwrap();
    // A scaling figure means something only if the host could actually run
    // `tmax` workers in parallel; otherwise only the per-thread-count
    // rates below are reported.
    let host_can_scale = host >= tmax;
    if host_can_scale && !smoke && tmax >= 8 {
        assert!(
            scaling >= 3.0,
            "throughput must scale >=3x at {tmax} threads vs 1, got {scaling:.2}x"
        );
    } else if host_can_scale {
        meta(&format!(
            "note scaling assertion skipped (smoke={smoke} threads={tmax} host_cpus={host}); measured {scaling:.2}x"
        ));
    } else {
        meta(&format!(
            "note scaling skipped (smoke={smoke} threads={tmax} host_cpus={host}): the host cannot run {tmax} workers in parallel, so no scaling_x is reported"
        ));
    }

    mixed_phase(&cache, max_threads, ops / 4, keys, val_bytes, zipf_s, seed);
    let s = cache.stats();
    assert_eq!(
        s.hits + s.direct + s.conflicting + s.capacity + s.failed,
        s.total_gets,
        "stats classes must partition total_gets after the mixed phase"
    );

    meta(&format!("PERF gets_per_sec_t1 {:.1}", rates[0]));
    // xlint: allow(no-unwrap) rates has one entry per thread count
    meta(&format!(
        "PERF gets_per_sec_tmax {:.1}",
        rates.last().unwrap()
    ));
    meta(&format!("PERF p99_ns_t1 {}", p99s[0]));
    meta(&format!("PERF p99_ns_tmax {}", p99s.last().unwrap()));
    if host_can_scale {
        meta(&format!("PERF scaling_x {scaling:.4}"));
    }
    clampi_bench::cli::san_summary();
}
