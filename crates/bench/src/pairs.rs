//! The statistics behind `ab_pairs`: alternating parent/change runs of
//! benchmark workloads, compared metric by metric.
//!
//! The rule is the one a performance claim in this repository is held to:
//! at least ten pairs, alternating which side runs first; each side's
//! median and quartiles; and a gain only when the change wins at least
//! nine tenths of the pairs (ties count for neither side) *and* the
//! medians differ by more than the parent's own spread, the distance
//! between its quartiles.

use crate::summary::median;

/// The end-to-end metrics of the benchmark's result object, each with
/// whether a higher value is better (as `BENCHMARK.json` declares them).
pub const END_TO_END: [(&str, bool); 5] = [
    ("setup_s", false),
    ("cpu_speedup_x", true),
    ("virt_ns_per_op", false),
    ("virt_speedup_x", true),
    ("rss_peak_mb", false),
];

/// The benchmark's workloads in `BENCHMARK.json` order: what `ab_pairs
/// --workload all` runs.
pub const WORKLOADS: [&str; 6] = [
    "hit_small",
    "miss_churn",
    "bh_force",
    "lcc_adaptive",
    "dht_mixed",
    "shared_front",
];

/// The end-to-end metrics that come from virtual time: a host-only change
/// must leave them bit-equal, seed for seed.
pub const VIRTUAL: [&str; 2] = ["virt_ns_per_op", "virt_speedup_x"];

/// Whether two result objects of one seed read bit-equal in every
/// [`VIRTUAL`] metric (a metric missing from either side is not equal).
pub fn virtual_equal(parent: &str, change: &str) -> bool {
    VIRTUAL.iter().all(|name| {
        matches!((metric(parent, name), metric(change, name)),
            (Some(p), Some(c)) if p.to_bits() == c.to_bits())
    })
}

/// The number right after `"key":` in `json`, searched from `from` on:
/// the token up to the next `,`, `}` or whitespace. Reads the one-line
/// result object `benchmark/run.sh` prints last, whose keys are unique.
fn number_after(json: &str, key: &str, from: usize) -> Option<f64> {
    let quoted = format!("\"{key}\"");
    let at = from + json[from..].find(&quoted)? + quoted.len();
    let rest = json[at..].trim_start().strip_prefix(':')?.trim_start();
    let end =
        (rest.find(|c: char| c == ',' || c == '}' || c.is_whitespace())).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `metrics.<name>.value` of a benchmark result object.
pub fn metric(json: &str, name: &str) -> Option<f64> {
    let metrics = json.find("\"metrics\"")?;
    let at = metrics + json[metrics..].find(&format!("\"{name}\""))?;
    number_after(json, "value", at)
}

/// The top-level `failed` count of a benchmark result object.
pub fn failed(json: &str) -> Option<u64> {
    number_after(json, "failed", 0).map(|v| v as u64)
}

/// A sample's lower quartile, median and upper quartile (the medians of
/// its lower and upper halves, Tukey's hinges). All 0 for an empty sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let m = median(sorted);
        return (m, m, m);
    }
    let (lower, upper) = (sorted[..n / 2].to_vec(), sorted[n.div_ceil(2)..].to_vec());
    (median(lower), median(sorted), median(upper))
}

/// One metric over the pairs: who won how often, and whether the change
/// may claim a gain.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Pairs where the change read better / worse / the same.
    pub wins: usize,
    pub losses: usize,
    pub ties: usize,
    /// `median(change) - median(parent)`.
    pub gap: f64,
    /// The parent's spread: its upper minus its lower quartile.
    pub spread: f64,
    /// At least ten pairs, nine tenths of them won, and the medians
    /// differ, in the better direction, by more than the parent's spread.
    pub gain: bool,
    /// The same rule with the sides swapped: the change is worse.
    pub loss: bool,
}

/// Compares `change[i]` with `parent[i]` pair by pair.
pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool) -> Verdict {
    assert_eq!(parent.len(), change.len(), "one value per side and pair");
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let losses = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(p, c))
        .count();
    let ties = parent.len() - wins - losses;
    let (p1, pm, p3) = quartiles(parent);
    let (c1, cm, c3) = quartiles(change);
    let gap = cm - pm;
    let (spread, change_spread) = (p3 - p1, c3 - c1);
    let n = parent.len();
    let clear = |won: usize, by: f64, beyond: f64| n >= 10 && 10 * won >= 9 * n && by > beyond;
    let signed = if higher_is_better { gap } else { -gap };
    Verdict {
        wins,
        losses,
        ties,
        gap,
        spread,
        gain: clear(wins, signed, spread),
        loss: clear(losses, -signed, change_spread),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RESULT: &str = r#"{"correct": true, "attempted": 15988736, "failed": 2, "metrics": {"setup_s": {"value": 0.1447, "unit": "s"}, "cpu_speedup_x": {"value": 0.9895, "unit": "x"}, "virt_ns_per_op": {"value": 160.31, "unit": "ns/op"}, "virt_speedup_x": {"value": 7.96, "unit": "x"}, "rss_peak_mb": {"value": 15, "unit": "MiB"}}}"#;

    #[test]
    fn reads_the_result_object() {
        assert_eq!(metric(RESULT, "setup_s"), Some(0.1447));
        assert_eq!(metric(RESULT, "cpu_speedup_x"), Some(0.9895));
        assert_eq!(metric(RESULT, "rss_peak_mb"), Some(15.0));
        assert_eq!(metric(RESULT, "virt_speedup_x"), Some(7.96));
        assert_eq!(metric(RESULT, "no_such_metric"), None);
        assert_eq!(failed(RESULT), Some(2));
        let compact = RESULT.replace(": ", ":").replace(", ", ",");
        assert_eq!(metric(&compact, "virt_ns_per_op"), Some(160.31));
        assert_eq!(failed(&compact), Some(2));
        assert_eq!(metric("not json", "setup_s"), None);
    }

    #[test]
    fn virtual_time_must_match_to_the_bit() {
        assert!(virtual_equal(RESULT, RESULT));
        let moved = RESULT.replace("160.31", "160.31000000000003");
        assert!(!virtual_equal(RESULT, &moved));
        // Host metrics may move freely.
        assert!(virtual_equal(RESULT, &RESULT.replace("0.9895", "1.2")));
        assert!(!virtual_equal(RESULT, "not json"));
    }

    #[test]
    fn quartiles_are_the_halves_medians() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.5, 2.5, 3.5));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 3.0, 4.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread() {
        let parent: Vec<f64> = (0..10).map(|i| 1.0 + 0.01 * i as f64).collect();
        let change: Vec<f64> = parent.iter().map(|p| p + 0.2).collect();
        let v = verdict(&parent, &change, true);
        assert_eq!((v.wins, v.losses, v.ties), (10, 0, 0));
        assert!(v.gain && !v.loss);
        // Lower is better: the same numbers are a loss.
        let v = verdict(&parent, &change, false);
        assert!(!v.gain && v.loss);
        // Eight wins of ten are not enough, however large the gap.
        let mut eight = change.clone();
        eight[0] = parent[0];
        eight[1] = parent[1] - 1.0;
        let v = verdict(&parent, &eight, true);
        assert_eq!((v.wins, v.losses, v.ties), (8, 1, 1));
        assert!(!v.gain);
        // Every pair won, by less than the parent's spread: no gain.
        let close: Vec<f64> = parent.iter().map(|p| p + 0.001).collect();
        let v = verdict(&parent, &close, true);
        assert_eq!(v.wins, 10);
        assert!(v.gap < v.spread && !v.gain);
        // Fewer than ten pairs decide nothing.
        let v = verdict(&parent[..9], &change[..9], true);
        assert_eq!(v.wins, 9);
        assert!(!v.gain && !v.loss);
    }
}
