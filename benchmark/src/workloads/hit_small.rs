//! `hit_small` — the warm hit path.
//!
//! Rank 0 replays a Zipf(0.99) stream over 16 384 keys of 256 B held by
//! rank 1 through `CachedWindow::get` in `Mode::AlwaysCache`, with an index
//! and a storage that hold everything (after the warm-up pass every get is
//! a hit and nothing is ever evicted). Three keys in four are contiguous;
//! keys with `k % 4 == 3` are always fetched through a strided vector type
//! of the same payload.
//!
//! Why it exists: window dispatch, `flatten_n`, the cuckoo probe, a small
//! memcpy and the clock charge do all the work; insertion, eviction, the
//! allocator and the simulator's wire do none. A hit-path optimisation
//! shows here and nowhere else.

use clampi::{CacheParams, ClampiConfig, Mode};
use clampi_prng::SmallRng;
use clampi_workloads::Zipf;

use super::{stream_end_to_end, stream_traced, Opts, StreamInput};
use crate::report::Report;
use crate::stream::GetOp;

pub const KEYS: usize = 16_384;
/// Bytes of window per key (a strided get spans 448 of them).
pub const SLOT_BYTES: usize = 512;
pub const PAYLOAD_BYTES: usize = 256;
pub const ZIPF_S: f64 = 0.99;
pub const INDEX_ENTRIES: usize = 65_536;
pub const STORAGE_BYTES: usize = 64 << 20;
/// Gets per repetition.
pub const GETS_PER_REP: usize = 1 << 20;

pub fn generate(o: &Opts) -> StreamInput {
    // Key k (its Zipf rank) lives in a seeded random slot, so hot keys are
    // not neighbours in memory.
    let mut rng = SmallRng::seed_from_u64(o.seed ^ 0x5107_5107);
    let mut slot_of: Vec<usize> = (0..KEYS).collect();
    for i in (1..KEYS).rev() {
        slot_of.swap(i, rng.gen_below(i as u64 + 1) as usize);
    }
    let mut zipf = Zipf::new(KEYS, ZIPF_S, o.seed);
    let ops = (0..o.scaled(GETS_PER_REP, 1 << 12))
        .map(|_| {
            let k = zipf.sample();
            GetOp {
                disp: slot_of[k] * SLOT_BYTES,
                len: PAYLOAD_BYTES,
                strided: k % 4 == 3,
            }
        })
        .collect();
    let mut window = vec![0u8; KEYS * SLOT_BYTES];
    crate::host::fill_pattern(&mut window, o.seed);
    let params = CacheParams {
        index_entries: INDEX_ENTRIES,
        storage_bytes: STORAGE_BYTES,
        ..CacheParams::default()
    };
    StreamInput {
        ops,
        window,
        cfg: ClampiConfig::fixed(Mode::AlwaysCache, params),
    }
}

pub fn run(o: &Opts) -> Report {
    if o.trace {
        stream_traced(o, "hit_small", &generate(o))
    } else {
        stream_end_to_end(o, || generate(o)).into_report()
    }
}
