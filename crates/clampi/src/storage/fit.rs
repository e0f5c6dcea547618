//! Exact best-fit index of the free storage regions (Sec. III-C2).
//!
//! The paper indexes free regions with an AVL tree keyed by size, so a
//! best-fit allocation is a successor search. This index returns the same
//! region — the smallest `(len, offset)` with `len >= want`, the lowest
//! offset among equal lengths — from size classes instead of a tree:
//!
//! - Every multiple of [`CACHE_LINE`] below [`SMALL_LIMIT`] (16 KiB) is a
//!   class of its own. A two-level bitmap of the non-empty small classes
//!   finds the smallest one that fits in a few word operations.
//! - Every other length — 16 KiB and up, and the one region that touches
//!   the end of a buffer whose size is not a multiple of the line — is a
//!   class of its own in a table sorted by length. A buffer of `|S_w|`
//!   bytes holds at most `|S_w| / 16 KiB + 1` of them, so a new length's
//!   row shifts a short table.
//! - A class keeps its regions in a heap on offset with one node per
//!   descriptor id (a randomized meldable heap: each node links to its
//!   parent and two children, and a meld walks one random path), so
//!   insert, remove and "lowest offset" cost expected `O(log n)` even
//!   with thousands of equal-length holes, and a class needs no storage
//!   of its own beyond its root.
//!
//! The node array grows with the descriptor slab and the table keeps its
//! capacity, so a steady alternation of allocations and frees allocates
//! nothing.

use super::{DescId, CACHE_LINE};

/// Number of exact small classes: lengths `c * CACHE_LINE` for `c < SMALL`.
const SMALL: usize = 256;

/// Lengths from here up are classed in the sorted table.
const SMALL_LIMIT: usize = SMALL * CACHE_LINE;

/// No node: an empty class, a missing child, or a root's parent.
const NIL: u32 = u32::MAX;

/// The parent of a descriptor that is not in the index.
const OUT: u32 = u32::MAX - 1;

/// One heap node, by descriptor id.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The region's offset: the heap key (distinct among live regions).
    off: u32,
    parent: u32,
    kids: [u32; 2],
}

const OUT_NODE: Node = Node {
    off: 0,
    parent: OUT,
    kids: [NIL; 2],
};

/// The free-region index: see the module documentation.
#[derive(Debug)]
pub struct FreeIndex {
    /// Heap root of each small class (`NIL` when empty).
    roots: [u32; SMALL],
    /// `(len, root)` for every other non-empty length, sorted by length.
    table: Vec<(usize, u32)>,
    /// Bit `c` set iff small class `c` is non-empty.
    words: [u64; SMALL / 64],
    /// Bit `w` set iff `words[w] != 0`.
    summary: u64,
    nodes: Vec<Node>,
    /// The melds' coin flips (xorshift64).
    coin: u64,
    len: usize,
    /// Meld steps taken, for the tests' cost bound.
    #[cfg(test)]
    steps: u64,
}

impl Default for FreeIndex {
    fn default() -> Self {
        FreeIndex {
            roots: [NIL; SMALL],
            table: Vec::new(),
            words: [0; SMALL / 64],
            summary: 0,
            nodes: Vec::new(),
            coin: 0x9E37_79B9_7F4A_7C15,
            len: 0,
            #[cfg(test)]
            steps: 0,
        }
    }
}

/// The small class of `len`, if it has one.
fn small_class(len: usize) -> Option<usize> {
    (len < SMALL_LIMIT && len.is_multiple_of(CACHE_LINE)).then_some(len / CACHE_LINE)
}

impl FreeIndex {
    /// An empty index.
    pub fn new() -> Self {
        FreeIndex::default()
    }

    /// Number of free regions indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no region is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every region, keeping the capacity.
    pub fn clear(&mut self) {
        self.roots = [NIL; SMALL];
        self.table.clear();
        self.words = [0; SMALL / 64];
        self.summary = 0;
        // Nodes are written as ids are first inserted, so a clear (every
        // epoch in transparent mode) costs nothing per past id.
        self.nodes.clear();
        self.len = 0;
    }

    /// Makes room for descriptor ids below `n`, so that inserting them
    /// allocates nothing: the storage calls it as its descriptor slab
    /// grows, when that slab allocates anyway.
    pub fn reserve_ids(&mut self, n: usize) {
        self.nodes.reserve(n.saturating_sub(self.nodes.len()));
    }

    fn flip(&mut self) -> usize {
        self.coin ^= self.coin << 13;
        self.coin ^= self.coin >> 7;
        self.coin ^= self.coin << 17;
        (self.coin & 1) as usize
    }

    /// Melds the heaps rooted at `a` and `b` (either may be `NIL`) and
    /// returns the new root; its parent link is the caller's to set.
    fn meld(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        let (mut a, mut b) = if self.nodes[b as usize].off < self.nodes[a as usize].off {
            (b, a)
        } else {
            (a, b)
        };
        let top = a;
        // Invariant: `a` heads its subtree, `b` goes into one of `a`'s
        // child subtrees, chosen by a coin flip.
        loop {
            #[cfg(test)]
            {
                self.steps += 1;
            }
            let side = self.flip();
            let c = self.nodes[a as usize].kids[side];
            if c == NIL || self.nodes[b as usize].off < self.nodes[c as usize].off {
                self.nodes[a as usize].kids[side] = b;
                self.nodes[b as usize].parent = a;
                if c == NIL {
                    return top;
                }
                (a, b) = (b, c);
            } else {
                a = c;
            }
        }
    }

    /// The root slot of a small class (`Ok`) or a table row (`Err`).
    fn root_mut(&mut self, class: Result<usize, usize>) -> &mut u32 {
        match class {
            Ok(c) => &mut self.roots[c],
            Err(row) => &mut self.table[row].1,
        }
    }

    /// Indexes the free region `desc` of `len` bytes at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `desc` is already indexed, or `offset` exceeds 32 bits.
    pub fn insert(&mut self, len: usize, offset: usize, desc: DescId) {
        assert!(
            offset <= u32::MAX as usize,
            "offset {offset} exceeds 32 bits"
        );
        let d = desc as usize;
        if d >= self.nodes.len() {
            self.nodes.resize(d + 1, OUT_NODE);
        }
        assert_eq!(self.nodes[d].parent, OUT, "duplicate free region {desc}");
        self.nodes[d] = Node {
            off: offset as u32,
            parent: NIL,
            kids: [NIL; 2],
        };
        let class = match small_class(len) {
            Some(c) => {
                self.words[c / 64] |= 1 << (c % 64);
                self.summary |= 1 << (c / 64);
                Ok(c)
            }
            None => match self.table.binary_search_by_key(&len, |&(l, _)| l) {
                Ok(row) => Err(row),
                Err(row) => {
                    self.table.insert(row, (len, NIL));
                    Err(row)
                }
            },
        };
        let root = *self.root_mut(class);
        let root = self.meld(root, desc);
        self.nodes[root as usize].parent = NIL;
        *self.root_mut(class) = root;
        self.len += 1;
    }

    /// Removes the free region `desc` of `len` bytes at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `desc` is not indexed.
    pub fn remove(&mut self, len: usize, offset: usize, desc: DescId) {
        let n = self.nodes.get(desc as usize).copied().unwrap_or(OUT_NODE);
        assert_ne!(n.parent, OUT, "free region {desc} is not indexed");
        debug_assert_eq!(n.off as usize, offset);
        let sub = self.meld(n.kids[0], n.kids[1]);
        if sub != NIL {
            self.nodes[sub as usize].parent = n.parent;
        }
        self.nodes[desc as usize] = OUT_NODE;
        self.len -= 1;
        if n.parent != NIL {
            let p = &mut self.nodes[n.parent as usize];
            let side = usize::from(p.kids[1] == desc);
            p.kids[side] = sub;
            return;
        }
        // `desc` was its class's root.
        match small_class(len) {
            Some(c) => {
                self.roots[c] = sub;
                if sub == NIL {
                    self.words[c / 64] &= !(1 << (c % 64));
                    if self.words[c / 64] == 0 {
                        self.summary &= !(1 << (c / 64));
                    }
                }
            }
            None => {
                let i = self.table.partition_point(|&(l, _)| l < len);
                debug_assert_eq!(self.table[i], (len, desc));
                if sub == NIL {
                    self.table.remove(i);
                } else {
                    self.table[i].1 = sub;
                }
            }
        }
    }

    /// The smallest non-empty small class `c >= from`.
    fn small_from(&self, from: usize) -> Option<usize> {
        if from >= SMALL {
            return None;
        }
        let w = from / 64;
        let bits = self.words[w] & (!0u64 << (from % 64));
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        let rest = self.summary & (!0u64).checked_shl(w as u32 + 1).unwrap_or(0);
        if rest == 0 {
            return None;
        }
        let w = rest.trailing_zeros() as usize;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }

    /// The region best-fit allocation of `want` bytes takes: the smallest
    /// `(len, offset)` with `len >= want`, the root of the smallest
    /// non-empty class that fits.
    pub fn best_fit(&self, want: usize) -> Option<DescId> {
        let small = self
            .small_from(want.div_ceil(CACHE_LINE))
            .map(|c| (c * CACHE_LINE, self.roots[c]));
        // The table holds every length >= SMALL_LIMIT, so a small hit is
        // beaten only by a table length below it: at most the one odd
        // region, which the first row's check rules out without a search.
        let best = match (small, self.table.first()) {
            (Some(s), Some(&(l, _))) if l > s.0 => Some(s),
            (Some(s), None) => Some(s),
            _ => {
                let r = self.table.partition_point(|&(l, _)| l < want);
                let big = self.table.get(r).copied();
                match (small, big) {
                    (Some(s), Some(b)) => Some(if b.0 < s.0 { b } else { s }),
                    (s, b) => s.or(b),
                }
            }
        };
        best.map(|(_, root)| root)
    }

    /// Shortens the free region `desc` of `len` bytes at `offset` by the
    /// `want` bytes an allocation carves from its front. A region alone in
    /// a table row keeps the row when no other row lies between the old and
    /// the new length: carving the one large region, as every miss of a
    /// filling cache does, touches no heap and shifts no row.
    pub fn carve(&mut self, len: usize, offset: usize, desc: DescId, want: usize) {
        let (rest, at) = (len - want, offset + want);
        let n = self.nodes[desc as usize];
        let lone = n.parent == NIL && n.kids == [NIL; 2];
        if lone && small_class(len).is_none() && small_class(rest).is_none() {
            let row = self.table.partition_point(|&(l, _)| l < len);
            if row == 0 || self.table[row - 1].0 < rest {
                self.table[row].0 = rest;
                self.nodes[desc as usize].off = at as u32;
                return;
            }
        }
        self.remove(len, offset, desc);
        self.insert(rest, at, desc);
    }

    /// The largest indexed length (0 when empty).
    pub fn largest(&self) -> usize {
        let top_small = (0..SMALL / 64)
            .rev()
            .find(|&w| self.words[w] != 0)
            .map_or(0, |w| {
                (w * 64 + 63 - self.words[w].leading_zeros() as usize) * CACHE_LINE
            });
        self.table
            .last()
            .map_or(top_small, |&(l, _)| l.max(top_small))
    }

    /// Walks the heap under `root`: parent links and heap order hold.
    /// Returns its node count.
    fn check_heap(&self, root: u32) -> usize {
        let mut count = 0;
        let mut stack = vec![root];
        while let Some(x) = stack.pop() {
            count += 1;
            let n = self.nodes[x as usize];
            for k in n.kids.into_iter().filter(|&k| k != NIL) {
                let kn = self.nodes[k as usize];
                assert_eq!(kn.parent, x, "node {k}: parent link");
                assert!(n.off < kn.off, "heap order broken below {x}");
                stack.push(k);
            }
        }
        count
    }

    /// Verifies the index against `free`, the `(len, offset, desc)` of
    /// every free region: each is indexed under its class's root with its
    /// offset, heaps are ordered and linked, bitmaps and table match the
    /// non-empty classes, and nothing else is indexed.
    pub fn check_invariants(&self, free: &[(usize, usize, DescId)]) {
        assert_eq!(
            self.len,
            free.len(),
            "index holds {} regions, not {}",
            self.len,
            free.len()
        );
        for &(len, offset, desc) in free {
            let n = self.nodes[desc as usize];
            assert_eq!(n.off as usize, offset, "region {desc}: offset");
            let mut top = desc;
            while self.nodes[top as usize].parent != NIL {
                top = self.nodes[top as usize].parent;
            }
            let root = match small_class(len) {
                Some(c) => self.roots[c],
                None => self
                    .table
                    .iter()
                    .find(|&&(l, _)| l == len)
                    .map_or(NIL, |&(_, r)| r),
            };
            assert_eq!(top, root, "region {desc} outside its class's heap");
        }
        let mut held = 0;
        for (c, &root) in self.roots.iter().enumerate() {
            let bit = self.words[c / 64] >> (c % 64) & 1 == 1;
            assert_eq!(bit, root != NIL, "bitmap out of sync at class {c}");
            if root != NIL {
                held += self.check_heap(root);
            }
        }
        for w in 0..SMALL / 64 {
            assert_eq!(
                self.summary >> w & 1 == 1,
                self.words[w] != 0,
                "summary bit {w}"
            );
        }
        assert!(
            self.table.windows(2).all(|p| p[0].0 < p[1].0),
            "table not sorted"
        );
        for &(len, root) in &self.table {
            assert!(
                small_class(len).is_none(),
                "small length {len} in the table"
            );
            assert_ne!(root, NIL, "empty table row {len}");
            held += self.check_heap(root);
        }
        assert_eq!(held, self.len, "heaps hold stray regions");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashMap};

    /// The index next to a `BTreeSet<(len, offset)>` oracle.
    struct Pair {
        idx: FreeIndex,
        oracle: BTreeSet<(usize, usize)>,
        by_off: HashMap<usize, DescId>,
        next: DescId,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                idx: FreeIndex::new(),
                oracle: BTreeSet::new(),
                by_off: HashMap::new(),
                next: 0,
            }
        }

        fn insert(&mut self, len: usize, off: usize) {
            self.idx.insert(len, off, self.next);
            self.oracle.insert((len, off));
            self.by_off.insert(off, self.next);
            self.next += 1;
        }

        fn remove(&mut self, len: usize, off: usize) {
            let d = self.by_off.remove(&off).unwrap();
            self.idx.remove(len, off, d);
            assert!(self.oracle.remove(&(len, off)));
        }

        fn carve(&mut self, len: usize, off: usize, want: usize) {
            let d = self.by_off.remove(&off).unwrap();
            self.idx.carve(len, off, d, want);
            assert!(self.oracle.remove(&(len, off)));
            self.oracle.insert((len - want, off + want));
            self.by_off.insert(off + want, d);
        }

        /// Best fit of both; takes the region when `take`.
        fn fit(&mut self, want: usize, take: bool) {
            let expect = self.oracle.range((want, 0)..).next().copied();
            let got = self.idx.best_fit(want);
            assert_eq!(
                got,
                expect.map(|(_, o)| self.by_off[&o]),
                "best fit of {want}"
            );
            if let (true, Some((len, off))) = (take, expect) {
                self.remove(len, off);
            }
        }

        fn check(&self) {
            let free: Vec<_> = self
                .oracle
                .iter()
                .map(|&(l, o)| (l, o, self.by_off[&o]))
                .collect();
            self.idx.check_invariants(&free);
            assert_eq!(
                self.idx.largest(),
                self.oracle.iter().map(|&(l, _)| l).max().unwrap_or(0)
            );
        }
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut p = Pair::new();
        p.insert(128, 0);
        p.insert(64, 1024);
        p.insert(32768, 4096);
        p.check();
        p.remove(64, 1024);
        p.check();
        assert_eq!(p.idx.len(), 2);
    }

    #[test]
    fn best_fit_picks_smallest_sufficient() {
        let mut t = FreeIndex::new();
        t.insert(64, 0, 1);
        t.insert(128, 128, 2);
        t.insert(256, 320, 3);
        t.insert(20_032, 1024, 4);
        assert_eq!(t.best_fit(65), Some(2));
        assert_eq!(t.best_fit(64), Some(1));
        assert_eq!(t.best_fit(200), Some(3));
        assert_eq!(t.best_fit(257), Some(4));
        assert_eq!(t.best_fit(20_033), None);
    }

    #[test]
    fn best_fit_ties_break_by_offset() {
        let mut t = FreeIndex::new();
        for (off, d) in [(512, 1), (128, 2), (320, 3)] {
            t.insert(64, off, d);
            t.insert(65_536, off << 10, d + 10);
        }
        assert_eq!(t.best_fit(10), Some(2));
        assert_eq!(t.best_fit(20_000), Some(12));
    }

    #[test]
    fn an_odd_tail_region_beats_a_larger_small_class() {
        // A 1000-byte buffer's end region (not a line multiple) is a better
        // fit for 960 bytes than a 1024-byte hole.
        let mut p = Pair::new();
        p.insert(1024, 0);
        p.insert(1000, 2048);
        p.fit(960, false);
        p.fit(1000, false);
        p.fit(1024, false);
        p.check();
    }

    #[test]
    fn removal_with_two_children() {
        // Equal lengths at shuffled offsets build one class's heap; remove
        // an inner node with two children, then the root.
        let mut p = Pair::new();
        let mut offs: Vec<usize> = (0..64).map(|i| i * 128).collect();
        let mut rng = clampi_prng::SmallRng::seed_from_u64(5);
        for i in (1..offs.len()).rev() {
            offs.swap(i, rng.gen_range(0..i + 1));
        }
        for &o in &offs {
            p.insert(192, o);
        }
        let root = p.idx.roots[3];
        let inner = (0..p.next)
            .find(|&d| {
                let n = p.idx.nodes[d as usize];
                d != root && n.kids.iter().all(|&k| k != NIL)
            })
            .expect("a heap of 64 has an inner node with two children");
        let off = p.idx.nodes[inner as usize].off as usize;
        p.remove(192, off);
        p.check();
        p.fit(100, true);
        p.check();
        assert_eq!(p.idx.len(), 62);
    }

    #[test]
    fn stays_shallow_under_sequential_inserts() {
        // Thousands of equal-length holes inserted in ascending, then
        // descending offset order (the second makes each new node the
        // root), then taken lowest first: a meld walks one random path, so
        // the steps per operation stay logarithmic in the class's size.
        let n = 4096;
        let mut p = Pair::new();
        for i in 0..n {
            p.insert(64, (2 * i + 1) * 64);
        }
        for i in (0..n).rev() {
            p.insert(64, 2 * i * 64);
        }
        p.check();
        for _ in 0..2 * n {
            p.fit(64, true);
        }
        assert!(p.idx.is_empty());
        let per_op = p.idx.steps as f64 / (4 * n) as f64;
        let bound = 2.0 * ((2 * n) as f64).log2();
        assert!(
            per_op < bound,
            "{per_op:.1} meld steps per operation, over {bound}"
        );
    }

    #[test]
    fn carving_keeps_or_moves_the_row() {
        // Carving the lone 1 MiB region keeps its row; carving it past the
        // 40 KiB row moves it below that row; carving a 32 KiB region into
        // a small class leaves the table.
        let mut p = Pair::new();
        p.insert(1 << 20, 0);
        p.insert(40 << 10, 2 << 20);
        p.carve(1 << 20, 0, 64);
        assert_eq!(p.idx.table.len(), 2);
        p.check();
        p.carve((1 << 20) - 64, 64, (1 << 20) - (32 << 10) - 64);
        p.check();
        p.fit(33 << 10, false);
        p.carve(32 << 10, (1 << 20) - (32 << 10), (32 << 10) - 128);
        p.check();
        p.fit(100, false);
        assert_eq!(p.idx.table.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut t = FreeIndex::new();
        t.insert(64, 0, 0);
        t.insert(1 << 20, 64, 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.best_fit(1), None);
        t.insert(1 << 20, 0, 1);
        t.check_invariants(&[(1 << 20, 0, 1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_key_panics() {
        let mut t = FreeIndex::new();
        t.insert(64, 0, 0);
        t.insert(128, 64, 0);
    }

    /// Random insert, remove, carve and best-fit sequences against the
    /// oracle, on storage-shaped regions: line-multiple lengths, distinct
    /// offsets, and now and then a length that is not a line multiple (a
    /// capacity not a multiple of 64), with thousands of equal-length holes
    /// in some cases.
    #[test]
    fn prop_matches_a_btreeset_oracle() {
        clampi_prng::prop::check("fit_oracle", 48, |g| {
            let mut p = Pair::new();
            let lines = g.range(1..400usize);
            // The distribution of lengths in lines: few lengths (many equal
            // holes) or a wide spread across both parts of the index.
            let spread = [1usize, 4, 300, 2000][g.range(0..4usize)];
            let odd = g.range(1..64usize);
            let mut live: Vec<(usize, usize)> = Vec::new();
            let steps = if spread == 1 { 4000 } else { 1500 };
            for step in 0..steps {
                // Far enough apart that a carved region keeps its own offset.
                let off = (step + 1) << 18;
                match g.range(0..10u32) {
                    0..=4 => {
                        let len = if g.range(0..50u32) == 0 {
                            g.range(0..spread) * 64 + odd
                        } else {
                            (lines + g.range(0..spread)) * 64
                        };
                        p.insert(len, off);
                        live.push((len, off));
                    }
                    5 if !live.is_empty() => {
                        let (len, off) = live.swap_remove(g.range(0..live.len()));
                        p.remove(len, off);
                    }
                    6 if !live.is_empty() => {
                        let i = g.range(0..live.len());
                        let (len, off) = live[i];
                        if len > 64 {
                            let want = 64 * g.range(1..(len - 1) / 64 + 1);
                            p.carve(len, off, want);
                            live[i] = (len - want, off + want);
                        }
                    }
                    _ => {
                        let want = (lines + g.range(0..spread + 2)) * 64;
                        let take = g.range(0..2u32) == 0;
                        p.fit(want, take);
                        if take {
                            live.retain(|&(_, o)| p.by_off.contains_key(&o));
                        }
                    }
                }
                if step % 500 == 0 {
                    p.check();
                }
            }
            p.check();
        });
    }
}
