//! Victim-selection scores (Sec. III-C2 and III-D1).
//!
//! Each cache entry `x` is scored by:
//!
//! - a **temporal** score `R_T(x) = x.last / i` — the LRU-like recency
//!   ratio between the sequence number of the last get that matched `x`
//!   and the current get sequence number `i`;
//! - a **positional** score `R_P(x) = min(|ags - d_x| / ags, 1)` — how far
//!   the free space adjacent to `x` (`d_x`) is from the running average get
//!   size (`ags`): evicting an entry whose adjacent free space is close to
//!   `ags` is likely to open a usable hole;
//! - the **full** score `R(x) = R_P(x) · R_T(x)`.
//!
//! The eviction procedure selects the *lowest* score among a sample of
//! `M` index slots ([`crate::CacheParams::sample_size`]), so no get pays
//! per-access bookkeeping for the victim order. The paper's Figs. 10–11
//! ablate the three schemes; the [`VictimScheme`] enum selects which one
//! is active. Exact LRU is not a fourth scheme but a corner of the
//! second: `Temporal` with `M ≥ |I_w|` scans every slot and evicts the
//! globally least-recent entry (the `abl_sample_size` ablation's last
//! row).

/// Which score drives victim selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VictimScheme {
    /// `R = R_P · R_T` (the paper's proposal; default).
    #[default]
    Full,
    /// LRU-like: `R = R_T` only.
    Temporal,
    /// Fragmentation-only: `R = R_P`.
    Positional,
}

/// Number of candidate victim schemes ([`VictimScheme::ALL`]); sizes the
/// per-policy shadow-hit counters in [`crate::CacheStats`].
pub const POLICY_COUNT: usize = 3;

impl VictimScheme {
    /// Stable label used by the figure binaries. Round-trips through
    /// [`str::parse`] for every scheme in [`VictimScheme::ALL`].
    pub fn label(&self) -> &'static str {
        match self {
            VictimScheme::Full => "full",
            VictimScheme::Temporal => "temporal",
            VictimScheme::Positional => "positional",
        }
    }

    /// The position of this scheme in [`VictimScheme::ALL`] — the index
    /// of its shadow-hit counter in [`crate::CacheStats::shadow_hits`].
    pub fn index(&self) -> usize {
        match self {
            VictimScheme::Full => 0,
            VictimScheme::Temporal => 1,
            VictimScheme::Positional => 2,
        }
    }

    /// All schemes in reporting order (the paper's Figs. 10-11).
    pub const ALL: [VictimScheme; POLICY_COUNT] = [
        VictimScheme::Full,
        VictimScheme::Temporal,
        VictimScheme::Positional,
    ];
}

/// Schemes parse from their [`VictimScheme::label`] form, so benches and
/// `run_all --only`-style filters can select policies by name.
impl std::str::FromStr for VictimScheme {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        VictimScheme::ALL
            .into_iter()
            .find(|v| v.label() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = VictimScheme::ALL.iter().map(|v| v.label()).collect();
                format!("unknown victim scheme {s:?} (known: {})", known.join(", "))
            })
    }
}

/// The temporal score `R_T = last / now` (both 1-based get sequence
/// numbers). 1.0 when `now` is 0 (nothing processed yet).
pub fn temporal_score(last: u64, now: u64) -> f64 {
    if now == 0 {
        1.0
    } else {
        last as f64 / now as f64
    }
}

/// The positional score `R_P = min(|ags - d_c| / ags, 1)`.
///
/// Lower means "evicting this entry likely frees a hole of about the size
/// the workload is asking for". When `ags` is not yet meaningful — not a
/// finite positive number — every entry scores 1 (position carries no
/// information). The NaN/infinite guard matters: `ags` is a running mean
/// fed by the caller, and a degenerate mean must degrade victim selection
/// to temporal-only, not poison the score comparison with NaN (any
/// comparison against NaN is false, which would freeze the victim scan on
/// its first candidate).
pub fn positional_score(ags: f64, adjacent_free: usize) -> f64 {
    if !ags.is_finite() || ags <= 0.0 {
        return 1.0;
    }
    ((ags - adjacent_free as f64).abs() / ags).min(1.0)
}

/// The combined score for `scheme`.
pub fn score(scheme: VictimScheme, r_p: f64, r_t: f64) -> f64 {
    match scheme {
        VictimScheme::Full => r_p * r_t,
        VictimScheme::Temporal => r_t,
        VictimScheme::Positional => r_p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temporal_score_is_recency_ratio() {
        assert_eq!(temporal_score(50, 100), 0.5);
        assert_eq!(temporal_score(100, 100), 1.0);
        assert_eq!(temporal_score(0, 0), 1.0);
    }

    #[test]
    fn recently_used_entries_score_higher() {
        let old = temporal_score(10, 1000);
        let fresh = temporal_score(990, 1000);
        assert!(fresh > old);
    }

    #[test]
    fn positional_score_minimized_when_adjacent_matches_ags() {
        let ags = 1024.0;
        let exact = positional_score(ags, 1024);
        let off = positional_score(ags, 0);
        let far = positional_score(ags, 10_000);
        assert_eq!(exact, 0.0);
        assert_eq!(off, 1.0);
        assert_eq!(far, 1.0, "clamped at 1");
        assert!(positional_score(ags, 768) < positional_score(ags, 256));
    }

    #[test]
    fn positional_score_degenerate_ags() {
        assert_eq!(positional_score(0.0, 500), 1.0);
        assert_eq!(positional_score(-1.0, 0), 1.0);
    }

    #[test]
    fn positional_score_non_finite_ags_is_neutral_not_nan() {
        for ags in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for adj in [0usize, 1, 1 << 20] {
                let s = positional_score(ags, adj);
                assert_eq!(s, 1.0, "ags={ags}, adj={adj}");
                assert!(!s.is_nan());
            }
        }
    }

    #[test]
    fn full_score_is_product_and_bounded() {
        for &(rp, rt) in &[(0.0, 1.0), (1.0, 0.0), (0.5, 0.5), (1.0, 1.0)] {
            let s = score(VictimScheme::Full, rp, rt);
            assert!((0.0..=1.0).contains(&s));
            assert_eq!(s, rp * rt);
        }
    }

    #[test]
    fn schemes_project_the_right_component() {
        assert_eq!(score(VictimScheme::Temporal, 0.2, 0.9), 0.9);
        assert_eq!(score(VictimScheme::Positional, 0.2, 0.9), 0.2);
        assert_eq!(score(VictimScheme::Full, 0.2, 0.9), 0.2 * 0.9);
    }

    #[test]
    fn labels_round_trip_through_from_str_exhaustively() {
        assert_eq!(VictimScheme::ALL.len(), POLICY_COUNT);
        for (i, v) in VictimScheme::ALL.into_iter().enumerate() {
            assert_eq!(v.index(), i, "{v:?} out of reporting order");
            let parsed: VictimScheme = v.label().parse().expect("label must parse");
            assert_eq!(parsed, v, "label {:?} did not round-trip", v.label());
        }
        let err = "no-such-policy".parse::<VictimScheme>().unwrap_err();
        for v in VictimScheme::ALL {
            assert!(err.contains(v.label()), "error must list {:?}", v.label());
        }
    }

    #[test]
    fn full_scheme_prefers_old_and_well_positioned() {
        // Entry A: old and adjacent space ~ ags -> very low score (victim).
        // Entry B: recent and badly positioned -> high score (kept).
        let ags = 512.0;
        let a = score(
            VictimScheme::Full,
            positional_score(ags, 512),
            temporal_score(10, 1000),
        );
        let b = score(
            VictimScheme::Full,
            positional_score(ags, 0),
            temporal_score(950, 1000),
        );
        assert!(a < b);
    }
}
