//! Runs every figure and ablation binary, teeing each output into
//! `results/<name>.tsv` — one command to regenerate the whole evaluation.
//!
//! Harness flags (consumed here, not forwarded):
//!
//! - `--only a,b,c` — run only the named binaries;
//! - `--json <path>` — write a machine-readable summary: one JSON object
//!   per binary per line (`{"name":...,"wall_ms":...,"lines":...,
//!   "san_diags":...,"perf":{...}}`), with `perf` harvested from
//!   `# PERF <key> <value>` lines in the binary's stdout and `san_diags`
//!   from its `# SAN diags <n>` RMASAN summary (0 when the binary prints
//!   none). bench-smoke asserts every `san_diags` is 0;
//! - `--gate <baseline> <current>` — run nothing: compare two such
//!   summaries with [`clampi_bench::gate`] (enforced keys must be equal,
//!   wall-clock keys warn), print one line per key, and exit nonzero if
//!   an enforced key changed or went missing. CI's perf-gate stage is
//!   this invocation against the committed `ci/perf_baseline.json`.
//!
//! All other flags are forwarded to every binary (e.g. `--paper`,
//! `--seed 7`).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

const BINARIES: &[&str] = &[
    "fig01_latency",
    "fig02_nbody_reuse",
    "fig03_lcc_sizes",
    "fig07_access_costs",
    "fig08_overlap",
    "fig_coherence",
    "fig_contention",
    "fig_dht",
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
    "trace_tune",
];

/// Extracts the `# SAN diags <n>` count emitted by binaries that print an
/// RMASAN summary; 0 when absent (sanitizer off or binary predates it).
fn harvest_san(stdout: &str) -> u64 {
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("# SAN diags "))
        .filter_map(|v| v.trim().parse().ok())
        .next_back()
        .unwrap_or(0)
}

/// Extracts `(key, value)` pairs from `# PERF <key> <value>` stdout lines.
fn harvest_perf(stdout: &str) -> Vec<(String, String)> {
    let mut perf = Vec::new();
    for line in stdout.lines() {
        let Some(rest) = line.strip_prefix("# PERF ") else {
            continue;
        };
        let mut it = rest.split_whitespace();
        if let (Some(k), Some(v)) = (it.next(), it.next()) {
            perf.push((k.to_string(), v.to_string()));
        }
    }
    perf
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn main() {
    let mut forwarded: Vec<String> = Vec::new();
    let mut only: Option<Vec<String>> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--only" => {
                let v = argv.next().expect("--only needs a comma-separated list");
                only = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--json" => {
                let v = argv.next().expect("--json needs a path");
                json_path = Some(PathBuf::from(v));
            }
            "--gate" => {
                let mut read = |what: &str| {
                    let path = argv
                        .next()
                        .unwrap_or_else(|| panic!("--gate needs a {what} path"));
                    std::fs::read_to_string(&path)
                        .unwrap_or_else(|e| panic!("perf-gate: cannot read {what} {path}: {e}"))
                };
                let report = clampi_bench::gate::check(&read("baseline"), &read("current"));
                report.lines.iter().for_each(|l| println!("{l}"));
                if report.failures > 0 {
                    eprintln!(
                        "perf-gate: {} enforced key(s) changed or missing (refresh ci/perf_baseline.json if intended)",
                        report.failures
                    );
                    std::process::exit(1);
                }
                println!("perf-gate: all enforced keys equal to baseline");
                return;
            }
            _ => forwarded.push(a),
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
    let mut json_lines = String::new();
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
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let path = results.join(format!("{name}.tsv"));
        std::fs::write(&path, &out.stdout).expect("write results");
        let lines = out.stdout.iter().filter(|&&b| b == b'\n').count();
        eprintln!(
            "ok ({:.1}s, {lines} lines -> {})",
            wall_ms / 1e3,
            path.display()
        );

        if json_path.is_some() {
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut perf_obj = String::new();
            for (i, (k, v)) in harvest_perf(&stdout).iter().enumerate() {
                if i > 0 {
                    perf_obj.push(',');
                }
                // PERF values are emitted by our own binaries as bare
                // numbers; anything else is quoted defensively.
                if v.parse::<f64>().is_ok() {
                    let _ = write!(perf_obj, "\"{}\":{v}", json_escape(k));
                } else {
                    let _ = write!(perf_obj, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
                }
            }
            let san_diags = harvest_san(&stdout);
            let _ = writeln!(
                json_lines,
                "{{\"name\":\"{}\",\"wall_ms\":{wall_ms:.1},\"lines\":{lines},\"san_diags\":{san_diags},\"perf\":{{{perf_obj}}}}}",
                json_escape(name)
            );
        }
    }
    if let Some(path) = &json_path {
        std::fs::write(path, &json_lines).expect("write json summary");
        eprintln!("json summary -> {}", path.display());
    }
    if failures > 0 {
        eprintln!("{failures} binaries failed or were missing");
        std::process::exit(1);
    }
    eprintln!("all outputs regenerated under results/");
}
