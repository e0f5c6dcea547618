//! The LCC triangle kernel `lcc_phase` runs ([`AdjBitmap::intersect`])
//! against the reference merge/gallop kernel ([`intersect_sorted`]) that
//! defines the work charged to the virtual clock: both must return the
//! same `(count, work)` for every pair (`CLAMPI_PROP_SEED` replays a
//! single case; `CLAMPI_PROP_CASES` overrides the count).
//!
//! 1. **Random strictly increasing lists**, drawn so that the shapes where
//!    a closed-form work count can slip are all hit: empty lists,
//!    singletons, identical lists, disjoint lists, equal maxima, the
//!    longer list at `8|S| − 1`, `8|S|` and `8|S| + 1` (either side of the
//!    gallop switch), ids 0, 63, 64 and `n − 1` (word edges of the
//!    bitmap), and the marked list both the shorter and the longer one.
//!    The property asserts that every shape was seen.
//! 2. **Every neighbour pair** `(v, u ∈ adj(v))` of `graph500(s, 16)` for
//!    `s` = 6…13 under three seeds, on one bitmap re-marked per vertex as
//!    `lcc_phase` uses it.

use std::collections::BTreeSet;

use clampi_apps::lcc::{intersect_sorted, AdjBitmap};
use clampi_prng::prop::{check, Gen};
use clampi_workloads::{Csr, RmatParams};

/// `len` distinct ids below `n`, ascending, holding every id of `must`
/// that fits, drawn from `pick`.
fn sorted_ids(
    g: &mut Gen,
    len: usize,
    must: &[u32],
    mut pick: impl FnMut(&mut Gen) -> u32,
) -> Vec<u32> {
    let mut ids: BTreeSet<u32> = must.iter().copied().take(len).collect();
    while ids.len() < len {
        ids.insert(pick(g));
    }
    ids.into_iter().collect()
}

/// The shapes the random property must hit, read off the lists drawn.
const SHAPES: [&str; 14] = [
    "empty",
    "singleton",
    "identical",
    "disjoint",
    "equal maxima",
    "|L| = 8|S| - 1",
    "|L| = 8|S|",
    "|L| = 8|S| + 1",
    "id 0",
    "id 63",
    "id 64",
    "id n - 1",
    "marked shorter",
    "marked longer",
];

fn shapes_of(marked: &[u32], other: &[u32], n: u32) -> [bool; SHAPES.len()] {
    let (s, l) = if marked.len() <= other.len() {
        (marked, other)
    } else {
        (other, marked)
    };
    let both = |id: u32| marked.contains(&id) && other.contains(&id);
    [
        s.is_empty(),
        s.len() == 1,
        !s.is_empty() && marked == other,
        !s.is_empty() && intersect_sorted(s, l).0 == 0,
        !s.is_empty() && s.last() == l.last(),
        !s.is_empty() && l.len() + 1 == 8 * s.len(),
        !s.is_empty() && l.len() == 8 * s.len(),
        !s.is_empty() && l.len() == 8 * s.len() + 1,
        both(0),
        both(63),
        both(64),
        both(n - 1),
        marked.len() < other.len(),
        marked.len() > other.len(),
    ]
}

#[test]
fn marked_kernel_equals_the_reference_on_random_lists() {
    let mut seen = [false; SHAPES.len()];
    check("marked kernel equals intersect_sorted", 3000, |g| {
        let n = g.range(100..3000u32);
        let short = g.range(0..=40usize);
        let long = match g.range(0..6u32) {
            0 => g.range(0..=1usize),
            1 => short,
            2 => (8 * short).saturating_sub(1),
            3 => 8 * short,
            4 => 8 * short + 1,
            _ => g.range(0..=400usize),
        }
        .min(n as usize / 2);
        let edges = [0, 63, 64, n - 1];
        let mut must: Vec<u32> = edges.iter().copied().filter(|_| g.bool()).collect();
        let (a, b) = match g.range(0..4u32) {
            // Identical.
            0 => {
                let a = sorted_ids(g, short, &must, |g| g.range(0..n));
                (a.clone(), a)
            }
            // Disjoint: even ids against odd ids.
            1 => (
                sorted_ids(g, short, &[], |g| g.range(0..n / 2) * 2),
                sorted_ids(g, long, &[], |g| g.range(0..n / 2) * 2 + 1),
            ),
            // Equal maxima.
            2 => {
                must.insert(0, n - 1);
                (
                    sorted_ids(g, short, &must, |g| g.range(0..n)),
                    sorted_ids(g, long, &must, |g| g.range(0..n)),
                )
            }
            // Overlapping, either maximum larger; ids drawn from a window
            // of the id space so that the lists share some.
            _ => {
                let span = g.range(short.max(1) as u32..=n);
                (
                    sorted_ids(g, short, &must, |g| g.range(0..span)),
                    sorted_ids(g, long, &must, |g| g.range(0..n)),
                )
            }
        };
        let (marked, other) = if g.bool() { (a, b) } else { (b, a) };
        for (flag, hit) in seen.iter_mut().zip(shapes_of(&marked, &other, n)) {
            *flag |= hit;
        }

        // A list marked before must leave no bit behind.
        let mut bits = AdjBitmap::new(n as usize);
        let len = g.range(0..=64usize);
        let before = sorted_ids(g, len, &edges, |g| g.range(0..n));
        bits.mark(&before);
        bits.mark(&marked);
        assert_eq!(
            bits.intersect(&other),
            intersect_sorted(&marked, &other),
            "marked {marked:?} other {other:?}"
        );
    });
    let replaying = std::env::var_os("CLAMPI_PROP_SEED").is_some()
        || std::env::var_os("CLAMPI_PROP_CASES").is_some();
    if !replaying {
        for (shape, hit) in SHAPES.iter().zip(seen) {
            assert!(hit, "no case drew the shape `{shape}`");
        }
    }
}

fn every_neighbour_pair_matches(seed: u64) {
    for scale in 6..=13 {
        let g = Csr::rmat(RmatParams::graph500(scale, 16), seed);
        let mut bits = AdjBitmap::new(g.num_vertices());
        for v in 0..g.num_vertices() {
            let adj_v = g.adj(v);
            bits.mark(adj_v);
            for &u in adj_v {
                let adj_u = g.adj(u as usize);
                assert_eq!(
                    bits.intersect(adj_u),
                    intersect_sorted(adj_v, adj_u),
                    "scale {scale} seed {seed}: pair ({v}, {u})"
                );
            }
        }
    }
}

#[test]
fn every_neighbour_pair_of_graph500_seed_1() {
    every_neighbour_pair_matches(1);
}

#[test]
fn every_neighbour_pair_of_graph500_seed_7() {
    every_neighbour_pair_matches(7);
}

#[test]
fn every_neighbour_pair_of_graph500_seed_42() {
    every_neighbour_pair_matches(42);
}
