//! Deterministic, dependency-free pseudo-randomness for the CLaMPI
//! reproduction.
//!
//! The workspace must build and test with an **empty cargo registry** (no
//! network), so it cannot depend on the `rand` ecosystem. Everything the
//! reproduction needs — a seedable uniform generator driving the Cuckoo
//! hashers, victim sampling, and the workload generators (Zipf, R-MAT,
//! Plummer) — fits in this small crate:
//!
//! - [`SplitMix64`]: the stateless-feeling 64-bit mixer of Steele et al.,
//!   used to expand a single `u64` seed into generator state (the same
//!   seeding discipline `rand`'s `SmallRng::seed_from_u64` uses).
//! - [`Xoshiro256StarStar`] (aliased [`SmallRng`]): Blackman & Vigna's
//!   xoshiro256\*\* — 256 bits of state, period `2^256 - 1`, passes
//!   BigCrush, and is the generator family behind `rand`'s `SmallRng` on
//!   64-bit targets.
//!
//! Determinism is load-bearing: every figure binary takes a `--seed`, and
//! byte-identical reruns are what make the reproduced figures comparable
//! run-to-run and regression-testable (see the golden-value tests in
//! `clampi-workloads`). The algorithms here are frozen; changing them is a
//! *distribution change* that must update those golden tests.
//!
//! The [`prop`] module builds a minimal property-test harness (seeded case
//! generation, fixed case counts, failure-seed reporting) on top of the
//! generator, replacing `proptest` for this workspace's needs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod prop;

/// SplitMix64 (Steele, Lea, Flood — OOPSLA 2014): a tiny 64-bit generator
/// whose main job here is *seed expansion*: filling larger generator state
/// from one `u64` so that similar seeds yield uncorrelated streams.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed` (any value, including 0, is fine).
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* (Blackman & Vigna, 2018): the workspace's only PRNG.
///
/// # Examples
///
/// ```
/// use clampi_prng::SmallRng;
///
/// let mut rng = SmallRng::seed_from_u64(42);
/// let a = rng.gen_u64();
/// let b = rng.gen_range(0..10usize);
/// let p = rng.gen_f64();
/// assert!(b < 10);
/// assert!((0.0..1.0).contains(&p));
/// // Same seed, same stream.
/// assert_eq!(SmallRng::seed_from_u64(42).gen_u64(), a);
/// ```
#[derive(Debug, Clone)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

/// The workspace's drop-in name for its small fast RNG (mirrors
/// `rand::rngs::SmallRng`, which is also xoshiro-family on 64-bit).
pub type SmallRng = Xoshiro256StarStar;

impl Xoshiro256StarStar {
    /// Seeds the full 256-bit state from one `u64` through a [`SplitMix64`]
    /// stream — the constructor shape of `rand`'s `SeedableRng`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        // SplitMix64 never yields four consecutive zeros, so the all-zero
        // state (the one fixed point of xoshiro) is unreachable.
        Xoshiro256StarStar {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// The next 64 uniformly distributed bits.
    pub fn gen_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    pub fn gen_f64(&mut self) -> f64 {
        (self.gen_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped into `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p.is_nan() || p <= 0.0 {
            return false;
        }
        self.gen_f64() < p
    }

    /// A uniform value in `range` — accepts the same half-open and
    /// inclusive integer ranges and half-open float ranges the call sites
    /// used with `rand::Rng::gen_range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: UniformRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Unbiased uniform draw in `[0, n)` via Lemire's widening-multiply
    /// rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let mut x = self.gen_u64();
        let mut m = (x as u128) * (n as u128);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.gen_u64();
                m = (x as u128) * (n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

/// A range shape [`Xoshiro256StarStar::gen_range`] can sample uniformly.
pub trait UniformRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut Xoshiro256StarStar) -> Self::Output;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Xoshiro256StarStar) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.gen_below(span) as $t
            }
        }
        impl UniformRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Xoshiro256StarStar) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as u64) - (lo as u64);
                if span == u64::MAX {
                    return rng.gen_u64() as $t;
                }
                lo + rng.gen_below(span + 1) as $t
            }
        }
    )*};
}

impl_uniform_int!(u32, u64, usize);

impl UniformRange for std::ops::Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut Xoshiro256StarStar) -> f64 {
        assert!(self.start < self.end, "empty range");
        let v = self.start + rng.gen_f64() * (self.end - self.start);
        // Guard the end against rounding when the span is tiny.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference stream for seed 0 (Vigna's splitmix64.c).
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..32).map(|_| r.gen_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..32).map(|_| r.gen_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(8);
            (0..32).map(|_| r.gen_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!((3..17usize).contains(&r.gen_range(3..17usize)));
            assert!((0..=16u32).contains(&r.gen_range(0..=16u32)));
            let f = r.gen_range(-1.0..1.0f64);
            assert!((-1.0..1.0).contains(&f), "{f}");
        }
    }

    #[test]
    fn range_draws_hit_every_value() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn integer_draws_are_roughly_uniform() {
        let mut r = SmallRng::seed_from_u64(4);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.gen_range(0..10usize)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut r = SmallRng::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "{hits}");
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
        assert!(!r.gen_bool(f64::NAN), "NaN probability must not panic");
    }

    #[test]
    fn single_value_inclusive_range() {
        let mut r = SmallRng::seed_from_u64(6);
        assert_eq!(r.gen_range(9..=9u32), 9);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        SmallRng::seed_from_u64(0).gen_range(5..5usize);
    }
}
