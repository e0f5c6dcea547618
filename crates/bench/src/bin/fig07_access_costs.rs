//! Fig. 7 — CLaMPI caching costs per access type and data size.
//!
//! For each data size the paper reports the latency of each access type
//! (hit / direct / conflicting / capacity / failing) next to the plain
//! foMPI get, with a reference line at 25 % of the foMPI latency; the
//! headline result is the hit being up to 9.3× (4 KiB) and 3.7× (16 KiB)
//! faster than foMPI. Latency is issue-to-consumable (hits skip the
//! flush). The foMPI column is the same loop on a window with caching
//! disabled.
//!
//! Asserts that shape at 4 KiB, so a run that keeps printing but loses it
//! fails: the hit speedup lies in 3-15x (the paper's 9.3x), and every miss
//! kind stays below 1.5x the foMPI latency (the band and the bound of the
//! `access` module's tests).

use clampi_bench::access::{measure, Forced};
use clampi_bench::cli::{meta, row, Args};
use clampi_bench::summary::median;

fn main() {
    let args = Args::parse();
    let reps: usize = args.get("reps", 32);
    let seed = args.seed();
    let sizes: Vec<usize> = vec![16, 64, 256, 1024, 4096, 16384, 65536];

    meta("Fig. 7: per-access-type latency (us) by data size");
    meta("fompi_25pct is the paper's 25%-of-foMPI reference line");
    row(&[
        "size_bytes",
        "foMPI",
        "hit",
        "direct",
        "conflicting",
        "capacity",
        "failing",
        "fompi_25pct",
        "hit_speedup",
    ]);

    for &s in &sizes {
        let mut med = std::collections::HashMap::new();
        for kind in Forced::ALL {
            let lat: Vec<f64> = measure(kind, s, reps, 0.0, seed)
                .iter()
                .map(|m| m.latency_ns)
                .collect();
            med.insert(kind.label(), median(lat) / 1000.0);
        }
        let fompi = med["foMPI"];
        let hit = med["hit"];
        row(&[
            s.to_string(),
            format!("{:.3}", fompi),
            format!("{:.3}", hit),
            format!("{:.3}", med["direct"]),
            format!("{:.3}", med["conflicting"]),
            format!("{:.3}", med["capacity"]),
            format!("{:.3}", med["failing"]),
            format!("{:.3}", fompi * 0.25),
            format!("{:.2}", fompi / hit.max(1e-9)),
        ]);
        if s == 4096 {
            let speedup = fompi / hit;
            assert!(
                (3.0..15.0).contains(&speedup),
                "4 KiB hit speedup {speedup:.2} outside 3-15x"
            );
            for kind in ["direct", "conflicting", "capacity", "failing"] {
                assert!(
                    med[kind] < 1.5 * fompi,
                    "4 KiB {kind} {:.3} us not below 1.5x foMPI {fompi:.3} us",
                    med[kind]
                );
            }
        }
    }
}
