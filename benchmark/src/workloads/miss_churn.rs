//! `miss_churn` — the miss, insert and evict path.
//!
//! The paper's Sec. IV-A micro-benchmark shape (`MicroWorkload`: distinct
//! gets of power-of-two sizes, 2^6 … 2^14 bytes here, issued in a Gaussian
//! order) against a storage eight times smaller than the ~15 MiB working
//! set and a deliberately tight index, fixed parameters, the paper's weak
//! caching (one eviction per miss). Two gets in three miss; the misses
//! split between plain inserts, index conflicts, and space-pressure misses
//! — which weak caching mostly classifies `Failed` (the one eviction did
//! not free a fitting region) rather than `Capacity`; both run the victim
//! scan and a free.
//!
//! Why it exists: the other side of the same engine — `finish_miss`, cuckoo
//! insertion walks, the victim scan, AVL best-fit alloc/free, and
//! `rma::Window::get`. A hit-path gain should predict no change here; an
//! allocator or eviction gain shows here and not in `hit_small`.

use clampi::{CacheParams, ClampiConfig, Mode};
use clampi_workloads::micro::MicroParams;
use clampi_workloads::MicroWorkload;

use super::{stream_end_to_end, stream_traced, Opts, StreamInput};
use crate::report::Report;
use crate::stream::GetOp;

pub const DISTINCT_GETS: usize = 4096;
/// `MicroWorkload` draws sizes 2^0 … 2^8; shifted by this they become
/// 2^6 … 2^14 bytes.
pub const SIZE_SHIFT: u32 = 6;
pub const MAX_EXP: u32 = 8;
// Tuned once on seeds 1-3 and frozen: hit ratio ~0.32, conflicting share
// ~0.18, capacity + failed share ~0.17 (see README.md, "miss_churn").
pub const INDEX_ENTRIES: usize = 1120;
pub const STORAGE_BYTES: usize = 1792 << 10;
/// Gets per repetition.
pub const GETS_PER_REP: usize = 1 << 17;

pub fn generate(o: &Opts) -> StreamInput {
    let wl = MicroWorkload::generate(
        MicroParams {
            distinct: DISTINCT_GETS,
            sequence_len: o.scaled(GETS_PER_REP, DISTINCT_GETS),
            max_exp: MAX_EXP,
        },
        o.seed,
    );
    let ops = wl
        .issued()
        .map(|g| GetOp::contiguous(g.disp << SIZE_SHIFT, g.size << SIZE_SHIFT))
        .collect();
    let mut window = vec![0u8; wl.window_size << SIZE_SHIFT];
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
        stream_traced(o, "miss_churn", &generate(o))
    } else {
        stream_end_to_end(o, || generate(o)).into_report()
    }
}
