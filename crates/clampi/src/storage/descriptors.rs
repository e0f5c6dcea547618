//! Cache-entry and free-region descriptors (Sec. III-C3).
//!
//! Every region of the storage buffer — occupied by a cache entry or free —
//! has a descriptor carrying its interval endpoints. Descriptors are
//! organized in a doubly linked list reflecting their address order in
//! `S_w`, so that:
//!
//! - inserting a new entry next to the free region it was carved from is
//!   `O(1)`;
//! - removing an evicted entry is `O(1)` (we already hold its descriptor);
//! - the free memory adjacent to an entry (`d_c`, the input of the
//!   positional score) is read off the two neighbours in `O(1)`.
//!
//! The paper stores `d_c` and updates it on each allocation/eviction; so
//! does the engine, on the entry line, from the changes
//! [`Storage::adj_deltas`](super::Storage::adj_deltas) reports, so that
//! scoring a victim loads no descriptor.

use crate::index::EntryId;

/// Descriptor identifier (slab index).
pub type DescId = u32;

/// What a storage region currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescKind {
    /// Unoccupied space.
    Free,
    /// Data of a cache entry.
    Entry(EntryId),
}

/// One region descriptor: interval endpoints plus list links.
#[derive(Debug, Clone, Copy)]
pub struct Descriptor {
    /// Byte offset of the region in the storage buffer.
    pub offset: usize,
    /// Region length in bytes.
    pub len: usize,
    /// Occupancy.
    pub kind: DescKind,
    /// Address-order predecessor.
    pub prev: Option<DescId>,
    /// Address-order successor.
    pub next: Option<DescId>,
}

/// Slab-backed doubly linked list of descriptors in address order.
#[derive(Debug, Default)]
pub struct DescList {
    descs: Vec<Descriptor>,
    spare: Vec<DescId>,
    head: Option<DescId>,
    tail: Option<DescId>,
    live: usize,
}

impl DescList {
    /// An empty list.
    pub fn new() -> Self {
        DescList::default()
    }

    /// Number of live descriptors.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no descriptor is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// First descriptor in address order.
    pub fn head(&self) -> Option<DescId> {
        self.head
    }

    /// Descriptor ids the slab holds room for without reallocating.
    pub fn id_capacity(&self) -> usize {
        self.descs.capacity()
    }

    /// Immutable access to a descriptor.
    pub fn get(&self, id: DescId) -> &Descriptor {
        &self.descs[id as usize]
    }

    /// Mutable access to a descriptor.
    pub fn get_mut(&mut self, id: DescId) -> &mut Descriptor {
        &mut self.descs[id as usize]
    }

    fn alloc(&mut self, d: Descriptor) -> DescId {
        self.live += 1;
        if let Some(id) = self.spare.pop() {
            self.descs[id as usize] = d;
            id
        } else {
            self.descs.push(d);
            (self.descs.len() - 1) as DescId
        }
    }

    /// Appends a descriptor at the end of the address order (used once, for
    /// the initial all-free region, and by tests).
    pub fn push_back(&mut self, offset: usize, len: usize, kind: DescKind) -> DescId {
        let id = self.alloc(Descriptor {
            offset,
            len,
            kind,
            prev: self.tail,
            next: None,
        });
        match self.tail {
            Some(t) => self.descs[t as usize].next = Some(id),
            None => self.head = Some(id),
        }
        self.tail = Some(id);
        id
    }

    /// Inserts a new descriptor immediately before `anchor`.
    pub fn insert_before(
        &mut self,
        anchor: DescId,
        offset: usize,
        len: usize,
        kind: DescKind,
    ) -> DescId {
        let prev = self.get(anchor).prev;
        let id = self.alloc(Descriptor {
            offset,
            len,
            kind,
            prev,
            next: Some(anchor),
        });
        match prev {
            Some(p) => self.descs[p as usize].next = Some(id),
            None => self.head = Some(id),
        }
        self.descs[anchor as usize].prev = Some(id);
        id
    }

    /// Unlinks and retires `id`. The caller must not use `id` afterwards.
    pub fn remove(&mut self, id: DescId) {
        let d = self.descs[id as usize];
        match d.prev {
            Some(p) => self.descs[p as usize].next = d.next,
            None => self.head = d.next,
        }
        match d.next {
            Some(n) => self.descs[n as usize].prev = d.prev,
            None => self.tail = d.prev,
        }
        self.spare.push(id);
        self.live -= 1;
    }

    /// Drops every descriptor.
    pub fn clear(&mut self) {
        self.descs.clear();
        self.spare.clear();
        self.head = None;
        self.tail = None;
        self.live = 0;
    }

    /// Iterates descriptor ids in address order.
    pub fn iter_ids(&self) -> DescIdIter<'_> {
        DescIdIter {
            list: self,
            cur: self.head,
        }
    }
}

/// Address-order iterator over descriptor ids.
pub struct DescIdIter<'a> {
    list: &'a DescList,
    cur: Option<DescId>,
}

impl Iterator for DescIdIter<'_> {
    type Item = DescId;
    fn next(&mut self) -> Option<DescId> {
        let id = self.cur?;
        self.cur = self.list.get(id).next;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_back_builds_address_order() {
        let mut l = DescList::new();
        let a = l.push_back(0, 10, DescKind::Free);
        let b = l.push_back(10, 20, DescKind::Entry(1));
        let c = l.push_back(30, 5, DescKind::Free);
        let ids: Vec<_> = l.iter_ids().collect();
        assert_eq!(ids, vec![a, b, c]);
        assert_eq!(l.get(b).prev, Some(a));
        assert_eq!(l.get(b).next, Some(c));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn insert_before_links_correctly() {
        let mut l = DescList::new();
        let a = l.push_back(0, 100, DescKind::Free);
        let b = l.insert_before(a, 0, 40, DescKind::Entry(7));
        assert_eq!(l.head(), Some(b));
        assert_eq!(l.get(b).next, Some(a));
        assert_eq!(l.get(a).prev, Some(b));
        let c = l.insert_before(a, 40, 10, DescKind::Entry(8));
        let ids: Vec<_> = l.iter_ids().collect();
        assert_eq!(ids, vec![b, c, a]);
    }

    #[test]
    fn remove_relinks_neighbours() {
        let mut l = DescList::new();
        let a = l.push_back(0, 10, DescKind::Free);
        let b = l.push_back(10, 10, DescKind::Entry(0));
        let c = l.push_back(20, 10, DescKind::Free);
        l.remove(b);
        assert_eq!(l.get(a).next, Some(c));
        assert_eq!(l.get(c).prev, Some(a));
        assert_eq!(l.len(), 2);
        l.remove(a);
        assert_eq!(l.head(), Some(c));
        l.remove(c);
        assert!(l.is_empty());
        assert_eq!(l.head(), None);
    }

    #[test]
    fn slab_reuses_retired_ids() {
        let mut l = DescList::new();
        let a = l.push_back(0, 10, DescKind::Free);
        l.remove(a);
        let b = l.push_back(0, 20, DescKind::Free);
        assert_eq!(a, b, "spare id should be reused");
        assert_eq!(l.get(b).len, 20);
    }

    #[test]
    fn clear_resets() {
        let mut l = DescList::new();
        l.push_back(0, 10, DescKind::Free);
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.iter_ids().count(), 0);
    }
}
