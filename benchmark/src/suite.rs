//! The suite runner: every workload, untraced and traced, one child process
//! each (so `rss_peak_mb` and allocator state are per workload), plus the
//! `--repeat-check` that compares two suites of the same code.

use std::path::Path;
use std::process::{Command, ExitCode};

use crate::json::{self, Value};
use crate::names::{repeats_exactly, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::Opts;

/// One child run, parsed back from its standard output.
struct Run {
    workload: &'static str,
    trace: bool,
    /// `host.rep_spread` exceeded the noise threshold: host-time numbers unresolved.
    noisy: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl Run {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Runs one workload in a child process, echoes its listing and parses its
/// result line. `Err` carries what went wrong (the child prints no result
/// line on a correctness failure).
fn run_child(workload: &'static str, o: &Opts, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&o.out_dir);
    if o.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("{workload}: cannot start child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (listing, last) = match text.trim_end().rsplit_once('\n') {
        Some((listing, last)) => (listing, last),
        None => ("", text.trim_end()),
    };
    println!("{listing}");
    if !out.status.success() {
        println!("{last}");
        return Err(format!(
            "{workload} (trace {}): exited with {}",
            u8::from(trace),
            out.status
        ));
    }
    let v = json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let metrics = v
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{workload}: result line has no metrics"))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            (name.clone(), value)
        })
        .collect();
    Ok(Run {
        workload,
        trace,
        noisy: listing.contains("NOISY"),
        failed: v.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        metrics,
    })
}

/// Runs all six workloads, untraced then traced.
fn run_suite(o: &Opts) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for w in WORKLOADS {
        for trace in [false, true] {
            runs.push(run_child(w, o, trace)?);
        }
    }
    Ok(runs)
}

fn print_summary(runs: &[Run]) {
    println!("\n== end-to-end summary ==");
    print!("{:<13}", "workload");
    for d in &END_TO_END {
        print!(" {:>22}", format!("{} [{}]", d.name, d.unit));
    }
    println!(" {:>9} {:>7}", "rep_noise", "failed");
    for r in runs.iter().filter(|r| !r.trace) {
        print!("{:<13}", r.workload);
        for d in &END_TO_END {
            print!(" {:>22.4}", r.get(d.name));
        }
        println!(
            " {:>9} {:>7}",
            if r.noisy { "NOISY" } else { "ok" },
            r.failed
        );
    }
}

fn write_results(path: &Path, o: &Opts, runs: &[Run]) {
    let doc = Value::Obj(vec![
        ("seed".into(), Value::Num(o.seed as f64)),
        ("seconds".into(), Value::Num(o.seconds)),
        (
            "runs".into(),
            Value::Arr(
                runs.iter()
                    .map(|r| {
                        Value::Obj(vec![
                            ("workload".into(), Value::Str(r.workload.into())),
                            ("trace".into(), Value::Bool(r.trace)),
                            ("noisy".into(), Value::Bool(r.noisy)),
                            ("failed".into(), Value::Num(r.failed as f64)),
                            (
                                "metrics".into(),
                                Value::Obj(
                                    r.metrics
                                        .iter()
                                        .map(|(n, v)| (n.clone(), Value::Num(*v)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let written =
        std::fs::create_dir_all(&o.out_dir).and_then(|()| std::fs::write(path, format!("{doc}\n")));
    match written {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => println!("results not written to {}: {e}", path.display()),
    }
}

/// The separation the workloads were built for, checked on every full-size
/// suite: a violated line means a workload no longer stresses what its name
/// says. A smoke suite's inputs are too small to show it; there only the
/// failed operations count.
fn check_separation(runs: &[Run], smoke: bool) -> Vec<String> {
    let mut bad = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };
    for r in runs {
        expect(
            r.failed == 0,
            format!("{}: {} failed operations", r.workload, r.failed),
        );
    }
    for r in runs.iter().filter(|r| r.trace && !smoke) {
        let w = r.workload;
        match w {
            "hit_small" => {
                expect(
                    r.get("cache.evictions") == 0.0,
                    format!("{w}: evictions on the hit path"),
                );
                expect(
                    r.get("cache.hit_ratio") >= 0.99,
                    format!("{w}: hit ratio below 0.99"),
                );
            }
            "miss_churn" => {
                let hit = r.get("cache.hit_ratio");
                expect(
                    (0.3..=0.6).contains(&hit),
                    format!("{w}: hit ratio {hit} outside 0.3-0.6"),
                );
                let conflicting = r.get("cache.conflicting_share");
                expect(
                    conflicting >= 0.15,
                    format!("{w}: conflicting share {conflicting} below 0.15"),
                );
                // Weak caching classifies most space-pressure misses Failed,
                // not Capacity; the pair is the paper's capacity signal.
                let space = r.get("cache.capacity_share") + r.get("cache.failed_share");
                expect(
                    space >= 0.15,
                    format!("{w}: capacity + failed share {space} below 0.15"),
                );
            }
            _ => {}
        }
        let coherent = r.get("coherence.notifications_drained") > 0.0
            && r.get("coherence.stale_prevented") > 0.0
            && r.get("snapshot.multi_get_wall_ns_per_req") > 0.0;
        let quiet = PER_LAYER
            .iter()
            .filter(|d| d.name.starts_with("coherence.") || d.name.starts_with("snapshot."))
            .all(|d| r.get(d.name) == 0.0);
        if w == "dht_mixed" {
            expect(coherent, format!("{w}: coherence/snapshot layers idle"));
        } else {
            expect(
                quiet,
                format!("{w}: coherence/snapshot activity outside dht_mixed"),
            );
        }
        let adjusted = r.get("cache.adjustments") > 0.0;
        expect(
            adjusted == (w == "lcc_adaptive"),
            format!("{w}: cache.adjustments = {}", r.get("cache.adjustments")),
        );
    }
    bad
}

#[derive(PartialEq)]
enum Verdict {
    Pass,
    Unresolved,
    Fail,
}

/// Compares one metric of two runs of the same code and seed.
fn compare(d: &MetricDef, workload: &str, a: &Run, b: &Run) -> (Verdict, String) {
    let (x, y) = (a.get(d.name), b.get(d.name));
    let diff = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
    if repeats_exactly(d, workload) {
        // A per-layer virtual-time figure is the difference of two readings
        // of a running clock, and how far the clock has run by then depends
        // on how many time-limited passes came before: its last digits
        // differ (102.79999995 against 102.80000019 ns). Everything else is
        // a count, or starts from a clock at zero.
        let clock_delta = d.name.contains('.') && d.name.contains("virt_");
        let same = x.to_bits() == y.to_bits() || (clock_delta && diff <= 1e-6);
        let verdict = if same { Verdict::Pass } else { Verdict::Fail };
        return (verdict, format!("{x} vs {y} (must be identical)"));
    }
    let text = format!(
        "{x:.4} vs {y:.4}: {:.1} % apart, bound {:.0} %",
        diff * 100.0,
        d.bound * 100.0
    );
    let verdict = if diff <= d.bound {
        Verdict::Pass
    } else if (a.noisy || b.noisy) && d.name != "rss_peak_mb" {
        Verdict::Unresolved
    } else {
        Verdict::Fail
    };
    (verdict, text)
}

/// Two suites on one seed must agree (deterministic metrics bit for bit,
/// host-time metrics within their bounds); a third on another seed must keep the
/// workloads' separation.
fn repeat_check(o: &Opts) -> Result<bool, String> {
    println!("== repeat-check: suite 1 of 3 (seed {}) ==", o.seed);
    let first = run_suite(o)?;
    println!("== repeat-check: suite 2 of 3 (seed {}) ==", o.seed);
    let second = run_suite(o)?;
    let other = Opts {
        seed: if o.seed == 7 { 8 } else { 7 },
        ..o.clone()
    };
    println!("== repeat-check: suite 3 of 3 (seed {}) ==", other.seed);
    let third = run_suite(&other)?;

    println!("\n== repeat-check ==");
    let (mut fails, mut unresolved) = (0, 0);
    for (a, b) in first.iter().zip(&second) {
        let defs: Vec<&MetricDef> = if a.trace {
            // Per-layer wall metrics carry no bound: only the counters are
            // compared.
            PER_LAYER
                .iter()
                .filter(|d| repeats_exactly(d, a.workload))
                .collect()
        } else {
            END_TO_END.iter().collect()
        };
        for d in defs {
            let (verdict, text) = compare(d, a.workload, a, b);
            let tag = match verdict {
                Verdict::Pass => continue,
                Verdict::Unresolved => {
                    unresolved += 1;
                    "UNRESOLVED (noisy run)"
                }
                Verdict::Fail => {
                    fails += 1;
                    "FAIL"
                }
            };
            println!("{tag}: {} {}: {text}", a.workload, d.name);
        }
    }
    for (label, suite) in [
        ("suite 1", &first),
        ("suite 2", &second),
        ("suite 3", &third),
    ] {
        for line in check_separation(suite, o.smoke) {
            fails += 1;
            println!("FAIL: {label}: {line}");
        }
    }
    println!("repeat-check: {fails} failed, {unresolved} unresolved");
    Ok(fails == 0)
}

/// Entry point of `clampi-benchmark` without `--workload`.
pub fn run(o: &Opts, repeat: bool) -> ExitCode {
    let outcome = if repeat {
        repeat_check(o)
    } else {
        run_suite(o).map(|runs| {
            print_summary(&runs);
            write_results(
                &o.out_dir.join(format!("suite-seed{}.json", o.seed)),
                o,
                &runs,
            );
            let bad = check_separation(&runs, o.smoke);
            for line in &bad {
                println!("FAIL: {line}");
            }
            bad.is_empty()
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
