//! Order statistics over repetition and per-call samples.

/// Median of `v` (mean of the two middle values for an even count; 0 when
/// empty). Sorts in place.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The in-run noise figure reported as `host.rep_spread`: the distance
/// between the 10th and the 90th percentile (nearest rank) of the
/// repetition times (CPU seconds on an untraced run, wall seconds on a
/// traced one), as a share of their median. With five repetitions or fewer this is `(max − min) / median`; with the dozens a
/// time-limited run takes it stays comparable instead of growing with the
/// number of repetitions.
pub fn rep_spread(reps: &[f64]) -> f64 {
    let mut v = reps.to_vec();
    let med = median(&mut v);
    if v.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let rank = |p: f64| ((p * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    (v[rank(0.9)] - v[rank(0.1)]) / med
}

/// A run whose repetitions spread wider than this is flagged `noisy`: its
/// host-time numbers are reported as unresolved, not as a pass.
pub const NOISY_REP_SPREAD: f64 = 0.15;

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) gives them — the spread rule the driver
/// applies across runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |k: usize| {
        // Python: j = k*(n+1)//4 clamped to [1, n-1], delta = k*(n+1) - 4j.
        let m = n + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the across-run spread
/// `--repeat-check` and the driver compare with a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(&mut values.to_vec());
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The percentiles a report may quote, ascending, each with the `n` of the
/// "one sample in `n`" that lies beyond it.
const PERCENTILES: [(f64, usize); 5] = [
    (50.0, 2),
    (90.0, 10),
    (99.0, 100),
    (99.9, 1000),
    (99.99, 10_000),
];

/// The highest percentile that still has at least ten samples beyond it
/// (`None` below 20 samples, where even the median has fewer than ten on
/// each side).
pub fn highest_percentile(samples: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rfind(|(_, one_in)| samples / one_in >= 10)
        .map(|(p, _)| *p)
}

/// The `p`-th percentile (nearest rank) of an ascending-sorted sample.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(100_000), Some(99.99));
        assert_eq!(highest_percentile(usize::MAX / 2), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7], 99.0), 7.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn median_and_rep_spread() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(rep_spread(&[1.0, 1.1, 0.9]), (1.1 - 0.9) / 1.0);
        assert_eq!(rep_spread(&[1.0, 1.2, 0.9, 1.1, 1.0]), (1.2 - 0.9) / 1.0);
        assert_eq!(rep_spread(&[1.0]), 0.0);
        // One outlier among twenty repetitions does not flag the run.
        let mut many = vec![1.0; 19];
        many.push(5.0);
        assert_eq!(rep_spread(&many), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 12.0));
        assert_eq!(quartile_spread(&[16.0, 1.0, 4.0, 2.0, 8.0]), 10.5 / 4.0);
    }
}
