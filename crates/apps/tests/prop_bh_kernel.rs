//! The softened-gravity kernel every Barnes-Hut force sum uses
//! ([`softened_inv_r3`], `1 / (r2 · √r2)` with `r2 = d2 + eps²`) against
//! the textbook form it replaced, `1 / r2.powf(1.5)`, kept here as the
//! reference (`CLAMPI_PROP_SEED` replays a single case;
//! `CLAMPI_PROP_CASES` overrides the count).
//!
//! 1. **Random `r2`**: eps²-dominated (`d2` far below `eps²`, the regime
//!    of every near pair under the default softening), tiny (`eps = 0`,
//!    `d2` down to 1e-200), huge (`d2` up to 1e200) and order-one values.
//!    The bounds keep `r2^{3/2}` a normal `f64`; past them both forms
//!    underflow or overflow alike. The property asserts every shape was
//!    drawn.
//! 2. **Every accepted pair** of `plummer(2000, s)` at θ = 0.5 and the
//!    default softening, for three seeds: the `(body, node)` pairs whose
//!    force `force_phase` sums.
//!
//! The bound is [`MAX_REL_ERR`]: 4 ulps of 1.0 (8.9e-16). `√` is
//! correctly rounded, so the kernel's own error is about 2 ulps at most,
//! and `powf`'s is under 1. The largest relative difference measured is
//! 3.1e-16 (1.4 ulps) on the random draws and on each seed's ~1.07 M
//! pairs, a margin of 2.8×. A kernel that drops the `√r2` factor misses by
//! orders of magnitude.

use clampi_apps::barnes_hut::{softened_inv_r3, BhConfig, Octree};
use clampi_apps::Backend;
use clampi_prng::prop::{check, Gen};
use clampi_workloads::plummer;

/// The largest relative difference the kernel may show against the
/// `powf` reference.
const MAX_REL_ERR: f64 = 4.0 * f64::EPSILON;

/// The form the kernel replaced.
fn reference(d2: f64, eps: f64) -> f64 {
    1.0 / (d2 + eps * eps).powf(1.5)
}

fn rel_err(d2: f64, eps: f64) -> f64 {
    let want = reference(d2, eps);
    (softened_inv_r3(d2, eps) - want).abs() / want
}

/// `10^e` for `e` uniform in `lo..hi`: a log-uniform draw.
fn log_uniform(g: &mut Gen, lo: f64, hi: f64) -> f64 {
    10f64.powf(g.range(lo..hi))
}

const SHAPES: [&str; 4] = ["eps²-dominated", "tiny", "huge", "order one"];

#[test]
fn kernel_matches_powf_on_random_r2() {
    let mut seen = [false; SHAPES.len()];
    let mut worst = 0.0f64;
    check("softened_inv_r3 within MAX_REL_ERR of powf", 4000, |g| {
        let shape = g.range(0..SHAPES.len());
        seen[shape] = true;
        let (d2, eps) = match shape {
            0 => {
                let eps = log_uniform(g, -3.0, 1.0);
                (eps * eps * log_uniform(g, -12.0, -1.0), eps)
            }
            1 => (log_uniform(g, -200.0, -3.0), 0.0),
            2 => (log_uniform(g, 3.0, 200.0), log_uniform(g, -3.0, 1.0)),
            _ => (g.range(0.0..4.0), g.range(0.0..0.2)),
        };
        let err = rel_err(d2, eps);
        worst = worst.max(err);
        assert!(
            err <= MAX_REL_ERR,
            "{}: d2 {d2:e} eps {eps:e}: relative error {err:e}",
            SHAPES[shape]
        );
    });
    eprintln!("worst relative error on random r2: {worst:e}");
    let replaying = std::env::var_os("CLAMPI_PROP_SEED").is_some()
        || std::env::var_os("CLAMPI_PROP_CASES").is_some();
    if !replaying {
        for (shape, hit) in SHAPES.iter().zip(seen) {
            assert!(hit, "no case drew the shape `{shape}`");
        }
    }
}

fn every_accepted_pair_matches(seed: u64) {
    let cfg = BhConfig::with_backend(Backend::Fompi);
    let bodies = plummer(2000, seed);
    let tree = Octree::build(&bodies);
    let mut pairs = 0u64;
    let mut worst = 0.0f64;
    for (i, body) in bodies.iter().enumerate() {
        tree.walk(body, cfg.theta, |_, _, d2| {
            let err = rel_err(d2, cfg.eps);
            assert!(
                err <= MAX_REL_ERR,
                "seed {seed}, body {i}: d2 {d2:e}: relative error {err:e}"
            );
            worst = worst.max(err);
            pairs += 1;
        });
    }
    assert!(pairs > 100 * bodies.len() as u64, "only {pairs} pairs");
    eprintln!("seed {seed}: {pairs} pairs, worst relative error {worst:e}");
}

#[test]
fn every_accepted_pair_of_plummer_seed_1() {
    every_accepted_pair_matches(1);
}

#[test]
fn every_accepted_pair_of_plummer_seed_7() {
    every_accepted_pair_matches(7);
}

#[test]
fn every_accepted_pair_of_plummer_seed_42() {
    every_accepted_pair_matches(42);
}
