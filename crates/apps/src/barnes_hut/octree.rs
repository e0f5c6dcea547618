//! The Barnes-Hut octree: construction, serialization, and a sequential
//! reference force computation.
//!
//! Every rank builds the same octree from the (replicated) body array —
//! construction is deterministic — and then each tree node is *owned* by
//! one rank, which serializes it into its RMA window. The force phase
//! traverses the tree top-down, fetching non-local node records with
//! (cached) gets; this module provides the tree, the fixed-size node
//! record encoding, and a purely local traversal used both as the
//! correctness reference and as the compute kernel.

// Dimension-indexed loops (`for d in 0..3`) read better than iterator
// chains in the vector math of this module.
#![allow(clippy::needless_range_loop)]

use clampi_workloads::Body;

/// Maximum children of an octree cell.
pub const NCHILD: usize = 8;

/// Sentinel for "no child".
pub const NO_CHILD: i32 = -1;

/// One octree node. Leaves hold exactly one body (their centre of mass
/// *is* the body); internal cells hold aggregate mass data.
#[derive(Debug, Clone, Copy)]
pub struct OctNode {
    /// Centre of mass (for leaves: the body position).
    pub com: [f64; 3],
    /// Total mass of the subtree.
    pub mass: f64,
    /// Half the side length of the cell cube.
    pub half_width: f64,
    /// Child node ids (`NO_CHILD` when absent). All `NO_CHILD` for leaves.
    pub children: [i32; NCHILD],
}

impl OctNode {
    /// Whether this node is a leaf (single body).
    pub fn is_leaf(&self) -> bool {
        self.children.iter().all(|&c| c == NO_CHILD)
    }
}

/// Bytes of the serialized node record: 5 f64 + 8 i32.
pub const NODE_BYTES: usize = 5 * 8 + NCHILD * 4;

impl OctNode {
    /// Serializes the node into its fixed-size wire record.
    pub fn encode(&self) -> [u8; NODE_BYTES] {
        let mut out = [0u8; NODE_BYTES];
        let mut o = 0;
        for v in [
            self.com[0],
            self.com[1],
            self.com[2],
            self.mass,
            self.half_width,
        ] {
            out[o..o + 8].copy_from_slice(&v.to_le_bytes());
            o += 8;
        }
        for c in self.children {
            out[o..o + 4].copy_from_slice(&c.to_le_bytes());
            o += 4;
        }
        out
    }

    /// Deserializes a wire record.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`NODE_BYTES`].
    pub fn decode(buf: &[u8]) -> Self {
        assert!(buf.len() >= NODE_BYTES, "short node record");
        let f = |i: usize| {
            let mut a = [0u8; 8];
            a.copy_from_slice(&buf[i * 8..i * 8 + 8]);
            f64::from_le_bytes(a)
        };
        let mut children = [NO_CHILD; NCHILD];
        for (k, c) in children.iter_mut().enumerate() {
            let off = 40 + k * 4;
            let mut a = [0u8; 4];
            a.copy_from_slice(&buf[off..off + 4]);
            *c = i32::from_le_bytes(a);
        }
        OctNode {
            com: [f(0), f(1), f(2)],
            mass: f(3),
            half_width: f(4),
            children,
        }
    }
}

/// A fully built octree over a body set.
#[derive(Debug, Clone)]
pub struct Octree {
    /// Nodes; index 0 is the root.
    pub nodes: Vec<OctNode>,
}

impl Octree {
    /// Builds the octree over `bodies` with one body per leaf.
    ///
    /// # Panics
    ///
    /// Panics if `bodies` is empty.
    pub fn build(bodies: &[Body]) -> Self {
        assert!(!bodies.is_empty(), "cannot build a tree over zero bodies");
        // Bounding cube.
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for b in bodies {
            for d in 0..3 {
                lo[d] = lo[d].min(b.pos[d]);
                hi[d] = hi[d].max(b.pos[d]);
            }
        }
        let mut half = 0.0f64;
        let mut center = [0.0; 3];
        for d in 0..3 {
            center[d] = 0.5 * (lo[d] + hi[d]);
            half = half.max(0.5 * (hi[d] - lo[d]));
        }
        half = half.max(1e-12) * 1.0001; // avoid bodies exactly on the border

        let mut tree = Octree {
            nodes: vec![OctNode {
                com: [0.0; 3],
                mass: 0.0,
                half_width: half,
                children: [NO_CHILD; NCHILD],
            }],
        };
        // `slot[i]`: the body stored at leaf i (internal nodes: usize::MAX).
        let mut slot: Vec<usize> = vec![usize::MAX];
        tree.nodes[0].com = bodies[0].pos;
        tree.nodes[0].mass = bodies[0].mass;
        slot[0] = 0;
        let mut centers = vec![center];

        for (bi, b) in bodies.iter().enumerate().skip(1) {
            tree.insert(b, bi, bodies, &mut slot, &mut centers);
        }
        tree.aggregate(0, bodies, &slot);
        tree
    }

    fn insert(
        &mut self,
        body: &Body,
        bi: usize,
        bodies: &[Body],
        slot: &mut Vec<usize>,
        centers: &mut Vec<[f64; 3]>,
    ) {
        let mut cur = 0usize;
        loop {
            if slot[cur] == usize::MAX && self.nodes[cur].is_leaf() && self.nodes[cur].mass == 0.0 {
                // Fresh empty cell: place the body here.
                slot[cur] = bi;
                self.nodes[cur].com = body.pos;
                self.nodes[cur].mass = body.mass;
                return;
            }
            if self.nodes[cur].is_leaf() {
                // Occupied leaf: split it, reinserting the resident body.
                let resident = slot[cur];
                slot[cur] = usize::MAX;
                // Degenerate case: coincident bodies would recurse forever;
                // merge them into one heavier pseudo-body.
                if bodies[resident].pos == body.pos {
                    self.nodes[cur].mass += body.mass;
                    slot[cur] = resident; // remains a (heavier) leaf
                    return;
                }
                let r = resident;
                let child = self.descend_or_create(cur, &bodies[r].pos, centers, slot);
                slot[child] = r;
                self.nodes[child].com = bodies[r].pos;
                self.nodes[child].mass = bodies[r].mass;
                // Fall through: `cur` is now internal; continue descending.
            }
            cur = self.descend_or_create(cur, &body.pos, centers, slot);
            if slot[cur] == usize::MAX && self.nodes[cur].is_leaf() && self.nodes[cur].mass == 0.0 {
                slot[cur] = bi;
                self.nodes[cur].com = body.pos;
                self.nodes[cur].mass = body.mass;
                return;
            }
        }
    }

    /// The child octant of `pos` under `cur`, creating the cell if absent.
    fn descend_or_create(
        &mut self,
        cur: usize,
        pos: &[f64; 3],
        centers: &mut Vec<[f64; 3]>,
        slot: &mut Vec<usize>,
    ) -> usize {
        let c = centers[cur];
        let mut oct = 0usize;
        for d in 0..3 {
            if pos[d] >= c[d] {
                oct |= 1 << d;
            }
        }
        if self.nodes[cur].children[oct] == NO_CHILD {
            let hw = self.nodes[cur].half_width * 0.5;
            let mut cc = c;
            for d in 0..3 {
                cc[d] += if oct & (1 << d) != 0 { hw } else { -hw };
            }
            let id = self.nodes.len();
            self.nodes.push(OctNode {
                com: [0.0; 3],
                mass: 0.0,
                half_width: hw,
                children: [NO_CHILD; NCHILD],
            });
            centers.push(cc);
            slot.push(usize::MAX);
            self.nodes[cur].children[oct] = id as i32;
        }
        self.nodes[cur].children[oct] as usize
    }

    /// Bottom-up centre-of-mass aggregation.
    #[allow(clippy::only_used_in_recursion)]
    fn aggregate(&mut self, cur: usize, bodies: &[Body], slot: &[usize]) -> (f64, [f64; 3]) {
        if self.nodes[cur].is_leaf() {
            let m = self.nodes[cur].mass;
            return (m, self.nodes[cur].com);
        }
        let mut mass = 0.0;
        let mut com = [0.0; 3];
        for k in 0..NCHILD {
            let child = self.nodes[cur].children[k];
            if child == NO_CHILD {
                continue;
            }
            let (m, c) = self.aggregate(child as usize, bodies, slot);
            mass += m;
            for d in 0..3 {
                com[d] += m * c[d];
            }
        }
        if mass > 0.0 {
            for d in com.iter_mut() {
                *d /= mass;
            }
        }
        self.nodes[cur].mass = mass;
        self.nodes[cur].com = com;
        (mass, com)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (never: build requires bodies).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Sequential Barnes-Hut force on `body` with opening angle `theta`
    /// and softening `eps`. Returns (force vector, nodes visited).
    pub fn force_on(&self, body: &Body, theta: f64, eps: f64) -> ([f64; 3], usize) {
        let mut force = [0.0; 3];
        let visited = self.walk(body, theta, |n, d, d2| {
            let f = body.mass * n.mass * softened_inv_r3(d2, eps);
            for k in 0..3 {
                force[k] += f * d[k];
            }
        });
        (force, visited)
    }

    /// Depth-first Barnes-Hut traversal for `body` with opening angle
    /// `theta`: calls `accept(node, d, d2)` for every node the opening test
    /// accepts, with `d` the node's centre of mass minus the body position
    /// and `d2 = |d|²` (the body itself, `d2 < 1e-24`, is skipped).
    /// Returns the nodes visited. The set of accepted nodes is the one
    /// `force_phase`'s level-synchronous descent accepts, in another order.
    pub fn walk(
        &self,
        body: &Body,
        theta: f64,
        mut accept: impl FnMut(&OctNode, [f64; 3], f64),
    ) -> usize {
        let mut visited = 0usize;
        let mut stack = vec![0usize];
        while let Some(cur) = stack.pop() {
            visited += 1;
            let n = &self.nodes[cur];
            if n.mass == 0.0 {
                continue;
            }
            let dx = n.com[0] - body.pos[0];
            let dy = n.com[1] - body.pos[1];
            let dz = n.com[2] - body.pos[2];
            let d2 = dx * dx + dy * dy + dz * dz;
            let d = d2.sqrt();
            let open = !n.is_leaf() && 2.0 * n.half_width > theta * d;
            if open {
                for &c in &n.children {
                    if c != NO_CHILD {
                        stack.push(c as usize);
                    }
                }
            } else if d2 >= 1e-24 {
                accept(n, [dx, dy, dz], d2);
            }
        }
        visited
    }
}

/// The softened-gravity kernel `1 / (d2 + eps²)^{3/2}`, computed as
/// `1 / (r2 · √r2)` with `r2 = d2 + eps²`: the one form every force sum
/// here uses (`force_phase`, [`Octree::force_on`], [`direct_force`]), so
/// the distributed phase and both references agree by construction.
/// `√` is correctly rounded, so this stays within a few ulps of
/// `r2.powf(1.5)` at a fraction of its cost.
#[inline]
pub fn softened_inv_r3(d2: f64, eps: f64) -> f64 {
    let r2 = d2 + eps * eps;
    1.0 / (r2 * r2.sqrt())
}

/// Direct O(N^2) force sum (correctness reference for tests).
pub fn direct_force(bodies: &[Body], i: usize, eps: f64) -> [f64; 3] {
    let mut force = [0.0; 3];
    let b = &bodies[i];
    for (j, o) in bodies.iter().enumerate() {
        if j == i {
            continue;
        }
        let dx = o.pos[0] - b.pos[0];
        let dy = o.pos[1] - b.pos[1];
        let dz = o.pos[2] - b.pos[2];
        let d2 = dx * dx + dy * dy + dz * dz;
        let f = b.mass * o.mass * softened_inv_r3(d2, eps);
        force[0] += f * dx;
        force[1] += f * dy;
        force[2] += f * dz;
    }
    force
}

#[cfg(test)]
mod tests {
    use super::*;
    use clampi_workloads::plummer;

    #[test]
    fn tree_mass_equals_total_mass() {
        let bodies = plummer(500, 1);
        let tree = Octree::build(&bodies);
        let total: f64 = bodies.iter().map(|b| b.mass).sum();
        assert!((tree.nodes[0].mass - total).abs() < 1e-9);
    }

    #[test]
    fn root_com_matches_body_com() {
        let bodies = plummer(300, 2);
        let tree = Octree::build(&bodies);
        let mut com = [0.0; 3];
        let mut m = 0.0;
        for b in &bodies {
            m += b.mass;
            for d in 0..3 {
                com[d] += b.mass * b.pos[d];
            }
        }
        for d in 0..3 {
            com[d] /= m;
            assert!(
                (tree.nodes[0].com[d] - com[d]).abs() < 1e-9,
                "dim {d}: {} vs {}",
                tree.nodes[0].com[d],
                com[d]
            );
        }
    }

    #[test]
    fn bh_force_approximates_direct_sum() {
        let bodies = plummer(400, 3);
        let tree = Octree::build(&bodies);
        let eps = 0.05;
        let mut rel_err_sum = 0.0;
        for i in (0..bodies.len()).step_by(37) {
            let (f_bh, _) = tree.force_on(&bodies[i], 0.3, eps);
            let f_d = direct_force(&bodies, i, eps);
            let num: f64 = (0..3)
                .map(|d| (f_bh[d] - f_d[d]).powi(2))
                .sum::<f64>()
                .sqrt();
            let den: f64 = f_d.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
            rel_err_sum += num / den;
        }
        let samples = (0..bodies.len()).step_by(37).count() as f64;
        let avg = rel_err_sum / samples;
        assert!(avg < 0.05, "average relative force error {avg}");
    }

    #[test]
    fn larger_theta_visits_fewer_nodes() {
        let bodies = plummer(1000, 4);
        let tree = Octree::build(&bodies);
        let (_, v_accurate) = tree.force_on(&bodies[0], 0.2, 0.05);
        let (_, v_fast) = tree.force_on(&bodies[0], 1.0, 0.05);
        assert!(
            v_fast < v_accurate,
            "theta=1.0 visited {v_fast} >= theta=0.2 visited {v_accurate}"
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let n = OctNode {
            com: [1.5, -2.25, 3.125],
            mass: 0.75,
            half_width: 8.0,
            children: [1, -1, 3, -1, 5, -1, 7, -1],
        };
        let d = OctNode::decode(&n.encode());
        assert_eq!(d.com, n.com);
        assert_eq!(d.mass, n.mass);
        assert_eq!(d.half_width, n.half_width);
        assert_eq!(d.children, n.children);
        assert!(!d.is_leaf());
    }

    #[test]
    fn coincident_bodies_merge() {
        let b = Body {
            pos: [1.0, 1.0, 1.0],
            vel: [0.0; 3],
            mass: 0.5,
        };
        let bodies = vec![b, b, b];
        let tree = Octree::build(&bodies);
        assert!((tree.nodes[0].mass - 1.5).abs() < 1e-12);
    }

    #[test]
    fn two_bodies_make_three_plus_nodes() {
        let bodies = vec![
            Body {
                pos: [-1.0, 0.0, 0.0],
                vel: [0.0; 3],
                mass: 1.0,
            },
            Body {
                pos: [1.0, 0.0, 0.0],
                vel: [0.0; 3],
                mass: 1.0,
            },
        ];
        let tree = Octree::build(&bodies);
        assert!(tree.len() >= 3, "root + two leaves, got {}", tree.len());
        let leaves = tree
            .nodes
            .iter()
            .filter(|n| n.is_leaf() && n.mass > 0.0)
            .count();
        assert_eq!(leaves, 2);
    }

    #[test]
    #[should_panic(expected = "zero bodies")]
    fn empty_build_panics() {
        let _ = Octree::build(&[]);
    }
}
