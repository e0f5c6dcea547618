//! One table of every outcome the get pipeline can produce, each driven
//! through all three public entry points — `get`, `get_nb` and a
//! one-request `multi_get` — asserting the class, the delivered bytes and
//! the stats partition. The entry points share one pipeline, so the same
//! row must hold for each; what legitimately differs (`batched_gets`, and
//! `multi_get` reporting a fault as an error instead of zeros) is spelled
//! out where it is checked.
//!
//! A second table drives the typed wrappers' flatten memo: scripts of
//! non-basic `(dtype, count)` gets that hit, miss and thrash the memo,
//! each compared step by step — class, bytes, every counter — against the
//! same script issued through `get_flat`/`get_nb_flat` with a layout
//! flattened afresh for every call, which never touches the memo.
//!
//! A directed test pins where an entry's stamp comes from: the fetch that
//! filled it (exact), the merge of head and tail on an extension, or the
//! caller's version on the public stamp-blind install (inexact).
//!
//! Observations are collected inside the simulation and asserted after
//! the join: a panicking rank would strand its peer at a barrier.

use clampi::{
    AccessType, CacheParams, CacheStats, CachedWindow, ClampiConfig, GetKey, LayoutSig, Mode,
    RetryPolicy, RmaCache, SnapReq, SnapStamp, SnapshotCtx, SnapshotError,
};
use clampi_datatype::{pack, Datatype};
use clampi_rma::{run_collect, FaultConfig, Process, SimConfig};

const WIN: usize = 4096;

/// Ground truth for byte `d` of rank 1's region (never zero, so a
/// zero-filled payload cannot pass for data).
fn truth(d: usize) -> u8 {
    (d % 251) as u8 + 1
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Via {
    Get,
    GetNb,
    MultiGet,
}

/// One row of the table: how to reach the outcome, and what it looks like.
struct Case {
    name: &'static str,
    mode: Mode,
    params: CacheParams,
    faults: Option<FaultConfig>,
    retry: RetryPolicy,
    /// Gets issued and flushed before the probe: `(disp, dtype)`.
    setup: Vec<(usize, Datatype)>,
    /// The probed request: `(disp, len)`, contiguous.
    probe: (usize, usize),
    class: Option<AccessType>,
    /// Whether the payload is the fault path's zeros (else ground truth).
    zeroed: bool,
    /// Probe deltas of `(partial_hits, bytes_from_cache,
    /// bytes_from_network, degraded_gets, abandoned_gets)`.
    counters: (u64, u64, u64, u64, u64),
}

impl Case {
    fn new(name: &'static str, probe: (usize, usize), class: Option<AccessType>) -> Self {
        Case {
            name,
            mode: Mode::AlwaysCache,
            params: CacheParams::default(),
            faults: None,
            retry: RetryPolicy::default(),
            setup: Vec::new(),
            probe,
            class,
            zeroed: false,
            counters: (0, 0, 0, 0, 0),
        }
    }
}

fn table() -> Vec<Case> {
    let dead_owner = FaultConfig::default().with_rank_failure(1, 0.0);
    vec![
        Case {
            setup: vec![(0, Datatype::bytes(64))],
            counters: (0, 64, 0, 0, 0),
            ..Case::new("hit", (0, 64), Some(AccessType::Hit))
        },
        Case {
            setup: vec![(0, Datatype::bytes(32))],
            counters: (1, 32, 32, 0, 0),
            ..Case::new("contiguous partial hit", (0, 64), Some(AccessType::Direct))
        },
        Case {
            // A strided resident layout serves no prefix of a contiguous
            // request under the same key: `cached_len == 0`.
            setup: vec![(0, Datatype::vector(2, 16, 32, Datatype::bytes(1)))],
            counters: (1, 0, 64, 0, 0),
            ..Case::new(
                "incompatible-layout partial",
                (0, 64),
                Some(AccessType::Direct),
            )
        },
        Case {
            counters: (0, 0, 64, 0, 0),
            ..Case::new("direct miss", (128, 64), Some(AccessType::Direct))
        },
        Case {
            // 2048 B of storage full of 64 B entries, eviction budget 1:
            // a 512 B miss is fetched fine but cannot be cached.
            params: CacheParams {
                index_entries: 256,
                storage_bytes: 2048,
                max_evictions_per_miss: 1,
                ..CacheParams::default()
            },
            setup: (0..32).map(|i| (i * 64, Datatype::bytes(64))).collect(),
            counters: (0, 0, 512, 0, 0),
            ..Case::new("engine failed", (2048, 512), Some(AccessType::Failed))
        },
        Case {
            // The setup get is abandoned on the dead owner and marks it
            // degraded; the probe is then served locally.
            faults: Some(dead_owner),
            setup: vec![(256, Datatype::bytes(64))],
            zeroed: true,
            counters: (0, 0, 0, 1, 0),
            ..Case::new("degraded target", (0, 64), Some(AccessType::Faulted))
        },
        Case {
            faults: Some(FaultConfig::transient(1.0, 7)),
            retry: RetryPolicy::none(),
            zeroed: true,
            counters: (0, 0, 0, 0, 1),
            ..Case::new("abandoned fetch", (0, 64), Some(AccessType::Faulted))
        },
        Case {
            mode: Mode::Disabled,
            ..Case::new("disabled-mode bypass", (0, 64), None)
        },
        Case::new("zero-size get", (64, 0), None),
    ]
}

struct Obs {
    class: Option<AccessType>,
    snapshot: Option<Result<u64, SnapshotError>>,
    bytes: Vec<u8>,
    before: CacheStats,
    after: CacheStats,
}

/// Runs `body` on rank 0 of a two-rank simulation, inside one `lock_all`
/// epoch on a window whose rank-1 side holds [`truth`], and returns what
/// it observed.
fn on_rank0<T: Send>(
    sim: SimConfig,
    cfg: &ClampiConfig,
    body: impl Fn(&mut Process, &mut CachedWindow) -> T + Sync,
) -> T {
    let out = run_collect(sim, 2, |p| {
        let mut win = CachedWindow::create(p, WIN, cfg.clone());
        if p.rank() == 1 {
            for (d, b) in win.local_mut().iter_mut().enumerate() {
                *b = truth(d);
            }
        }
        p.barrier();
        let obs = (p.rank() == 0).then(|| {
            win.lock_all(p);
            let obs = body(p, &mut win);
            win.unlock_all(p);
            obs
        });
        p.barrier();
        obs
    });
    out.into_iter()
        .next()
        .and_then(|(_, obs)| obs)
        .expect("rank 0 observes")
}

fn drive(case: &Case, via: Via) -> Obs {
    let mut sim = SimConfig::default();
    if let Some(f) = &case.faults {
        sim = sim.with_faults(f.clone());
    }
    let cfg = ClampiConfig::fixed(case.mode, case.params.clone()).with_retry(case.retry);
    on_rank0(sim, &cfg, |p, win| {
        for (disp, dtype) in &case.setup {
            let mut buf = vec![0u8; dtype.size()];
            win.get(p, &mut buf, 1, *disp, dtype, 1);
        }
        win.flush_all(p);
        let (disp, len) = case.probe;
        let mut bytes = vec![0xAAu8; len]; // poisoned: every outcome must overwrite
        let before = win.stats();
        let (mut class, mut snapshot) = (None, None);
        match via {
            Via::Get => class = win.get(p, &mut bytes, 1, disp, &Datatype::bytes(len), 1),
            Via::GetNb => class = win.get_nb(p, &mut bytes, 1, disp, &Datatype::bytes(len), 1),
            Via::MultiGet => {
                let req = SnapReq {
                    target: 1,
                    disp,
                    len,
                };
                let r = win.multi_get(p, &mut SnapshotCtx::new(), &[req], &mut bytes);
                snapshot = Some(r.map(|info| info.refetched));
            }
        }
        win.flush_all(p);
        Obs {
            class,
            snapshot,
            bytes,
            before,
            after: win.stats(),
        }
    })
}

#[test]
fn an_entry_carries_the_stamp_of_the_fetch_that_filled_it() {
    let cfg = ClampiConfig::fixed(Mode::AlwaysCache, CacheParams::default());
    let (fills, extensions) = on_rank0(SimConfig::default(), &cfg, |p, win| {
        // One remote write, away from the bytes read below, moves the
        // target's version; then a get of the first `len` bytes. Returns
        // the fetch's stamp and the one the resident entry ends up with.
        let mut write_then_get = |disp: usize, len: usize| {
            win.put(p, &[7u8; 8], 1, disp, &Datatype::bytes(8), 1);
            win.flush(p, 1);
            let mut buf = vec![0u8; len];
            win.get(p, &mut buf, 1, 0, &Datatype::bytes(len), 1);
            let fetch = win.inner().last_get_stamp();
            let key = GetKey { target: 1, disp: 0 };
            let entry = win.cache().and_then(|c| c.snap_stamp(&key));
            win.flush(p, 1);
            (SnapStamp::exact(fetch.version, fetch.ts), entry)
        };
        let miss = write_then_get(1024, 32);
        // A partial hit: the head is one write older than the tail.
        let extended = write_then_get(1032, 64);
        (miss, extended)
    });
    let (fetch, entry) = fills;
    assert!(fetch.version > 0 && fetch.ts > 0, "{fetch:?}");
    assert_eq!(
        entry,
        Some(fetch),
        "a miss installs the fetch's exact stamp"
    );
    let (tail, entry) = extensions;
    assert_eq!(tail.version, fetch.version + 1);
    let merged = SnapStamp {
        exact: false,
        ..fetch
    };
    assert_eq!(entry, Some(merged), "an extension keeps the older half");

    // The public install is stamp-blind: inexact, at the caller's version.
    let mut engine = RmaCache::new(CacheParams::default());
    let key = GetKey { target: 1, disp: 0 };
    engine.finish_miss(key, LayoutSig::Contig(8), &[1u8; 8], 5);
    let blind = SnapStamp {
        version: 5,
        ts: 0,
        exact: false,
    };
    assert_eq!(engine.snap_stamp(&key), Some(blind));
}

#[test]
fn every_outcome_through_every_entry_point() {
    for case in table() {
        let (disp, len) = case.probe;
        let want_bytes: Vec<u8> = (disp..disp + len)
            .map(|d| if case.zeroed { 0 } else { truth(d) })
            .collect();
        for via in [Via::Get, Via::GetNb, Via::MultiGet] {
            let at = format!("{} via {via:?}", case.name);
            let obs = drive(&case, via);
            let d = obs.after.delta_since(&obs.before);
            // The classes partition total_gets, whatever happened.
            let classified: u64 = AccessType::ALL.iter().map(|t| obs.after.count(*t)).sum();
            assert_eq!(classified, obs.after.total_gets, "{at}: partition");
            assert_eq!(
                obs.after.faulted,
                obs.after.degraded_gets + obs.after.abandoned_gets,
                "{at}: faulted = degraded + abandoned"
            );

            if via == Via::MultiGet {
                assert_eq!(d.snapshot_gets, 1, "{at}");
                // A snapshot never fabricates zeros: a fault is an error.
                if case.zeroed {
                    let err = Err(SnapshotError::TargetFaulted { target: 1 });
                    assert_eq!(obs.snapshot, Some(err), "{at}");
                    continue;
                }
                // A cached head + fetched tail has no single stamp, so
                // both partial outcomes cost exactly one refetch.
                assert_eq!(obs.snapshot, Some(Ok(case.counters.0)), "{at}: refetches");
                assert_eq!(obs.bytes, want_bytes, "{at}: bytes");
                continue;
            }

            assert_eq!(obs.class, case.class, "{at}: class");
            assert_eq!(obs.bytes, want_bytes, "{at}: bytes");
            // Exactly the returned class moved (none on a bypass).
            for t in AccessType::ALL {
                assert_eq!(d.count(t), (Some(t) == case.class) as u64, "{at}: {t:?}");
            }
            assert_eq!(
                (
                    d.partial_hits,
                    d.bytes_from_cache,
                    d.bytes_from_network,
                    d.degraded_gets,
                    d.abandoned_gets
                ),
                case.counters,
                "{at}: counters"
            );
            // The only stats difference between the two completions.
            assert_eq!(d.batched_gets, (via == Via::GetNb) as u64, "{at}: batched");
        }
    }
}

/// One step of a memo script: a typed get, and the class it must have
/// (`None`: its `dst` is one byte short and the get must panic).
struct Step {
    disp: usize,
    dtype: Datatype,
    count: usize,
    class: Option<AccessType>,
}

/// The memo table: every way a typed get can meet the one-entry memo. Each
/// step is followed by a flush, so the next one finds its entry CACHED.
fn memo_script() -> Vec<Step> {
    use AccessType::{Direct, Hit};
    // Two strided types of 32 payload bytes (spans 48 and 56), and a
    // non-contiguous type (extent 48 > size 32) whose one block flattens
    // dense, i.e. to a `Contig` signature.
    let a = || Datatype::vector(2, 16, 32, Datatype::bytes(1));
    let b = || Datatype::vector(4, 8, 16, Datatype::bytes(1));
    let dense = || Datatype::vector(1, 1, 1, Datatype::resized(48, Datatype::bytes(32)));
    // Contiguous, but not a basic type: measured once, then memoised.
    let packed = || Datatype::vector(4, 8, 8, Datatype::bytes(1));
    let step = |disp, dtype, count, class| Step {
        disp,
        dtype,
        count,
        class: Some(class),
    };
    vec![
        // Two types alternating at one displacement: the resident layout
        // is incompatible each time and is replaced; a repeat then hits
        // through the memo, on the very layout the entry holds.
        step(0, a(), 1, Direct),
        step(0, b(), 1, Direct),
        step(0, a(), 1, Direct),
        step(0, a(), 1, Hit),
        // Alternating at different displacements: every get replaces the
        // memo, and the hits compare a fresh layout with the entry's older
        // copy of it.
        step(512, a(), 1, Direct),
        step(1024, b(), 1, Direct),
        step(512, a(), 1, Hit),
        step(1024, b(), 1, Hit),
        // One type with two counts: the count is part of the memo's key.
        step(2048, a(), 1, Direct),
        step(2304, a(), 2, Direct),
        step(2048, a(), 1, Hit),
        step(2304, a(), 2, Hit),
        step(2048, a(), 2, Direct),
        // Memoised as `Contig(32)`: the same entry then serves a plain
        // contiguous get, and is the head of a longer one.
        step(3072, dense(), 1, Direct),
        step(3072, dense(), 1, Hit),
        step(3072, Datatype::bytes(32), 1, Hit),
        step(3072, Datatype::bytes(64), 1, Direct),
        // A contiguous vector is `Contig(32)` from its first get on, and
        // its entry serves a plain contiguous get.
        step(3200, packed(), 1, Direct),
        step(3200, packed(), 1, Hit),
        step(3200, Datatype::bytes(32), 1, Hit),
        // A basic-type get between two memo hits leaves the memo be.
        step(3328, a(), 1, Direct),
        step(3328, a(), 1, Hit),
        step(3456, Datatype::bytes(32), 1, Direct),
        step(3328, a(), 1, Hit),
        // Right after that memo hit, the memoised type with a short `dst`
        // is still rejected; the next get of it is a hit as before.
        Step {
            class: None,
            ..step(3328, a(), 1, Hit)
        },
        step(3328, a(), 1, Hit),
    ]
}

/// What one step of a script left behind.
#[derive(Debug, PartialEq)]
struct StepObs {
    class: Option<AccessType>,
    /// The get panicked (and `class` is `None`).
    panicked: bool,
    bytes: Vec<u8>,
    stats: Vec<(&'static str, u64)>,
    /// `RmaCache::check_invariants` held (checked in debug builds).
    sound: bool,
}

/// Runs the memo script through `via` — the typed wrapper, or with
/// `oracle` its `_flat` twin on a freshly flattened layout.
fn drive_script(via: Via, oracle: bool) -> Vec<StepObs> {
    let script = memo_script();
    let cfg = ClampiConfig::fixed(Mode::AlwaysCache, CacheParams::default());
    on_rank0(SimConfig::default(), &cfg, |p, win| {
        let mut obs = Vec::new();
        for s in &script {
            let (disp, dtype, count) = (s.disp, &s.dtype, s.count);
            let short = s.class.is_none() as usize;
            let mut bytes = vec![0xAAu8; dtype.size() * count - short];
            let get = std::panic::AssertUnwindSafe(|| match (via, oracle) {
                (Via::Get, false) => win.get(p, &mut bytes, 1, disp, dtype, count),
                (Via::GetNb, false) => win.get_nb(p, &mut bytes, 1, disp, dtype, count),
                (Via::Get, true) => win.get_flat(p, &mut bytes, 1, disp, &dtype.flatten_n(count)),
                (Via::GetNb, true) => {
                    win.get_nb_flat(p, &mut bytes, 1, disp, &dtype.flatten_n(count))
                }
                (Via::MultiGet, _) => unreachable!("multi_get takes no datatype"),
            });
            let (class, panicked) = match std::panic::catch_unwind(get) {
                Ok(class) => (class, false),
                Err(_) => (None, true),
            };
            win.flush_all(p);
            #[cfg(debug_assertions)]
            let sound = {
                let cache = win.cache().expect("caching is enabled");
                let check = std::panic::AssertUnwindSafe(|| cache.check_invariants());
                std::panic::catch_unwind(check).is_ok()
            };
            #[cfg(not(debug_assertions))]
            let sound = true;
            obs.push(StepObs {
                class,
                panicked,
                bytes,
                stats: win.stats().fields().collect(),
                sound,
            });
        }
        obs
    })
}

#[test]
fn typed_gets_match_the_memo_free_oracle() {
    let script = memo_script();
    let window: Vec<u8> = (0..WIN).map(truth).collect();
    for via in [Via::Get, Via::GetNb] {
        let typed = drive_script(via, false);
        let oracle = drive_script(via, true);
        assert_eq!(typed.len(), script.len());
        for (i, (step, (got, want))) in script.iter().zip(typed.iter().zip(&oracle)).enumerate() {
            let at = format!("step {i} ({:?} x{}) via {via:?}", step.dtype, step.count);
            assert_eq!(got.class, step.class, "{at}: class");
            assert_eq!(got.panicked, step.class.is_none(), "{at}: panicked");
            let layout = step.dtype.flatten_n(step.count);
            let mut want_bytes = vec![0u8; layout.total_size()];
            pack(&window[step.disp..], &layout, &mut want_bytes);
            if got.panicked {
                // Rejected before a byte moved.
                want_bytes = vec![0xAA; want_bytes.len() - 1];
            }
            assert_eq!(got.bytes, want_bytes, "{at}: bytes");
            assert!(got.sound && want.sound, "{at}: engine invariants");
            // Class, bytes and every counter, as without the memo.
            assert_eq!(got, want, "{at}: differs from the memo-free oracle");
        }
    }
}

/// A typed get whose `size × count` does not fit a `usize` is rejected in
/// every build, never served wrapped: 2 × (2^63 + 32) bytes would wrap to
/// the 64 bytes of `dst` (and cache a 64-byte entry). One rank, so the
/// panic strands no peer.
fn overflowing_typed_get(via: Via) {
    let cfg = ClampiConfig::fixed(Mode::AlwaysCache, CacheParams::default());
    run_collect(SimConfig::default(), 1, |p| {
        let mut win = CachedWindow::create(p, 64, cfg.clone());
        win.lock_all(p);
        let (dtype, mut dst) = (Datatype::bytes((1 << 63) + 32), [0u8; 64]);
        match via {
            Via::Get => win.get(p, &mut dst, 0, 0, &dtype, 2),
            Via::GetNb => win.get_nb(p, &mut dst, 0, 0, &dtype, 2),
            Via::MultiGet => unreachable!("multi_get takes no datatype"),
        }
    });
}

#[test]
#[should_panic(expected = "datatype extent overflows usize")]
fn get_rejects_an_overflowing_count() {
    overflowing_typed_get(Via::Get);
}

#[test]
#[should_panic(expected = "datatype extent overflows usize")]
fn get_nb_rejects_an_overflowing_count() {
    overflowing_typed_get(Via::GetNb);
}
