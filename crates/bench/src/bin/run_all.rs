//! Runs every figure and ablation binary, teeing each output into
//! `results/<name>.tsv` — one command to regenerate the whole evaluation.
//!
//! `--only a,b,c` (consumed here, not forwarded) runs only the named
//! binaries. All other flags are forwarded to every binary (e.g.
//! `--paper`, `--seed 7`).

use std::path::PathBuf;
use std::process::Command;

/// Every `src/bin/{fig*,abl_*}.rs`, in run order (the test
/// below keeps the two in step).
const BINARIES: &[&str] = &[
    "fig01_latency",
    "fig02_nbody_reuse",
    "fig03_lcc_sizes",
    "fig07_access_costs",
    "fig08_overlap",
    "fig_coherence",
    "fig_contention",
    "fig_dht",
    "fig_fault_recovery",
    "fig_policy",
    "fig_tx",
    "fig09_adaptive",
    "fig10_fragmentation",
    "fig11_victim_stats",
    "fig12_bh_params",
    "fig13_bh_stats",
    "fig14_bh_weak",
    "fig15_lcc_params",
    "fig16_lcc_stats",
    "fig17_lcc_weak",
    "fig18_lcc_weak_stats",
    "abl_weak_caching",
    "abl_sample_size",
    "abl_zipf",
];

fn main() {
    let mut forwarded: Vec<String> = Vec::new();
    let mut only: Option<Vec<String>> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        if a == "--only" {
            let v = argv.next().expect("--only needs a comma-separated list");
            only = Some(v.split(',').map(|s| s.trim().to_string()).collect());
        } else {
            forwarded.push(a);
        }
    }
    if let Some(names) = &only {
        for n in names {
            assert!(BINARIES.contains(&n.as_str()), "unknown binary: {n}");
        }
    }

    let me = std::env::current_exe().expect("own path");
    let bindir = me.parent().expect("bin dir").to_path_buf();
    let results = PathBuf::from("results");
    std::fs::create_dir_all(&results).expect("create results/");

    let mut failures = 0;
    for name in BINARIES {
        if let Some(names) = &only {
            if !names.iter().any(|n| n == name) {
                continue;
            }
        }
        let exe = bindir.join(name);
        if !exe.exists() {
            eprintln!("[skip] {name}: not built (cargo build --release -p clampi-bench)");
            failures += 1;
            continue;
        }
        let started = std::time::Instant::now();
        eprint!("[run ] {name} ... ");
        let out = Command::new(&exe)
            .args(&forwarded)
            .output()
            .unwrap_or_else(|e| panic!("spawning {name}: {e}"));
        if !out.status.success() {
            eprintln!("FAILED ({})", out.status);
            failures += 1;
            continue;
        }
        let path = results.join(format!("{name}.tsv"));
        std::fs::write(&path, &out.stdout).expect("write results");
        let lines = out.stdout.iter().filter(|&&b| b == b'\n').count();
        eprintln!(
            "ok ({:.1}s, {lines} lines -> {})",
            started.elapsed().as_secs_f64(),
            path.display()
        );
    }
    if failures > 0 {
        eprintln!("{failures} binaries failed or were missing");
        std::process::exit(1);
    }
    eprintln!("all outputs regenerated under results/");
}

#[cfg(test)]
mod tests {
    use super::BINARIES;

    #[test]
    fn binaries_lists_every_figure_and_ablation_source() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
            .expect("read src/bin")
            .filter_map(|e| {
                let name = e.expect("dir entry").file_name().into_string().ok()?;
                let stem = name.strip_suffix(".rs")?.to_string();
                (stem.starts_with("fig") || stem.starts_with("abl_")).then_some(stem)
            })
            .collect();
        on_disk.sort();
        let mut listed: Vec<String> = BINARIES.iter().map(|s| s.to_string()).collect();
        listed.sort();
        assert_eq!(listed, on_disk, "run_all's BINARIES and src/bin/ disagree");
    }
}
