//! The perf gate behind `run_all --gate <baseline> <current>`: compares
//! two `run_all --json` summaries key by key.
//!
//! Every `perf` key is a deterministic virtual-clock total unless it is on
//! the wall-clock allowlist ([`is_wall_clock`]), so enforced keys must be
//! *equal* to the committed baseline — any tolerance would hide exactly
//! the accounting slips a refactor makes. If a change is intended, refresh
//! the baseline (`./ci.sh bench-smoke && cp BENCH_perf.json
//! ci/perf_baseline.json`). Wall-clock keys (real threads on whatever
//! machine runs CI) only warn, and only on >2x drift. Keys present on one
//! side only are reported in both directions: a baseline-only key means a
//! gated number was dropped — a failure for an enforced key, since a
//! refactor must not lose one silently (refresh the baseline if the key
//! left on purpose) —, a current-only key means the baseline is out of
//! date.

/// `("<name>.<key>", raw value)` for every entry of each line's `"perf"`
/// object, in file order. Reads what `run_all --json` writes: one flat
/// object per line whose perf keys and values are whitespace-free tokens
/// without `,`, `:` or braces.
pub fn perf_entries(jsonl: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for line in jsonl.lines() {
        let Some(name) = line
            .split_once("\"name\":\"")
            .and_then(|(_, rest)| rest.split_once('"'))
            .map(|(name, _)| name)
        else {
            continue;
        };
        let Some((_, body)) = line.split_once("\"perf\":{") else {
            continue;
        };
        let body = body.split_once('}').map_or(body, |(body, _)| body);
        for kv in body.split(',') {
            if let Some((k, v)) = kv.split_once(':') {
                out.push((format!("{name}.{}", k.trim_matches('"')), v.to_string()));
            }
        }
    }
    out
}

/// Whether `key` is measured in wall-clock time and therefore warn-only:
/// everything `fig_contention` reports, and the `wall_*` keys of `fig_dht`,
/// `fig_policy` and `fig_tx`.
pub fn is_wall_clock(key: &str) -> bool {
    key.starts_with("fig_contention.")
        || ["fig_dht.wall_", "fig_policy.wall_", "fig_tx.wall_"]
            .iter()
            .any(|p| key.starts_with(p))
}

/// The gate's verdict: one report line per key, and whether any enforced
/// key differed.
#[derive(Debug)]
pub struct GateReport {
    /// `ok:` / `WARN:` / `FAIL:` lines, baseline keys first.
    pub lines: Vec<String>,
    /// Number of enforced baseline keys whose value is missing from the
    /// current summary or not equal to the baseline's.
    pub failures: usize,
}

/// Compares `current` against `baseline` (both `run_all --json` texts).
pub fn check(baseline: &str, current: &str) -> GateReport {
    let (base, cur) = (perf_entries(baseline), perf_entries(current));
    fn find<'a>(set: &'a [(String, String)], key: &str) -> Option<&'a str> {
        set.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
    let mut report = GateReport {
        lines: Vec::new(),
        failures: 0,
    };
    for (key, b) in &base {
        let line = match find(&cur, key) {
            None if is_wall_clock(key) => {
                format!("WARN: {key} present in baseline but missing from current")
            }
            None => {
                report.failures += 1;
                format!("FAIL: {key} present in baseline but missing from current")
            }
            Some(c) if c == b => format!("ok: {key} {b}"),
            Some(c) if is_wall_clock(key) => {
                let (bv, cv) = (b.parse().unwrap_or(0.0f64), c.parse().unwrap_or(0.0f64));
                if bv > 0.0 && (cv > 2.0 * bv || cv * 2.0 < bv) {
                    format!("WARN: {key} drifted >2x (allowlisted, wall-clock): baseline {b}, current {c}")
                } else {
                    format!("ok: {key} baseline {b}, current {c} (wall-clock)")
                }
            }
            Some(c) => {
                report.failures += 1;
                format!("FAIL: {key} changed: baseline {b}, current {c}")
            }
        };
        report.lines.push(line);
    }
    for (key, _) in &cur {
        if find(&base, key).is_none() {
            report.lines.push(format!(
                "WARN: {key} present in current but missing from baseline (refresh ci/perf_baseline.json)"
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = include_str!("../../../ci/fixtures/perf/baseline.json");
    const REGRESSED: &str = include_str!("../../../ci/fixtures/perf/current_regressed.json");
    const DRIFTED_OK: &str = include_str!("../../../ci/fixtures/perf/current_ok.json");

    #[test]
    fn reads_what_run_all_writes() {
        let entries = perf_entries(BASELINE);
        assert_eq!(
            entries[0],
            ("fig08_overlap.blocking_total_ns".into(), "300000.0".into())
        );
        assert_eq!(entries.len(), 4);
        assert!(perf_entries("not json\n{\"name\":\"x\"}\n").is_empty());
    }

    #[test]
    fn planted_enforced_regression_is_caught() {
        let r = check(BASELINE, REGRESSED);
        assert_eq!(r.failures, 1, "{:#?}", r.lines);
        assert!(r
            .lines
            .iter()
            .any(|l| l.starts_with("FAIL: fig08_overlap.blocking_total_ns")));
    }

    #[test]
    fn allowlisted_wall_clock_drift_only_warns() {
        let r = check(BASELINE, DRIFTED_OK);
        assert_eq!(r.failures, 0, "{:#?}", r.lines);
        assert!(r
            .lines
            .iter()
            .any(|l| l.starts_with("WARN: fig_contention.gets_per_sec_t1")));
    }

    #[test]
    fn any_enforced_difference_fails_however_small() {
        let cur = BASELINE.replace("300000.0", "300000.1");
        assert_eq!(check(BASELINE, &cur).failures, 1);
        assert_eq!(check(BASELINE, BASELINE).failures, 0);
    }

    #[test]
    fn one_sided_keys_are_reported_in_both_directions() {
        // An enforced key and a wall-clock key leave, each under a new name.
        let cur = BASELINE
            .replace("\"coal_speedup_at_max\"", "\"renamed\"")
            .replace("\"gets_per_sec_t1\"", "\"gets_per_sec\"");
        let r = check(BASELINE, &cur);
        let says = |verdict: &str, needle: &str| {
            r.lines
                .iter()
                .any(|l| l.starts_with(verdict) && l.contains(needle))
        };
        // A dropped enforced key fails; a dropped wall-clock key warns.
        assert_eq!(r.failures, 1, "{:#?}", r.lines);
        assert!(says(
            "FAIL:",
            "fig08_overlap.coal_speedup_at_max present in baseline but missing"
        ));
        assert!(says(
            "WARN:",
            "fig_contention.gets_per_sec_t1 present in baseline but missing"
        ));
        for new in ["fig08_overlap.renamed", "fig_contention.gets_per_sec"] {
            assert!(says(
                "WARN:",
                &format!("{new} present in current but missing")
            ));
        }
    }
}
