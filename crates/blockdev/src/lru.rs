//! [`Lru`]: the one exact-LRU index, keyed by block address.
//!
//! Both caches of the stack — [`crate::BufferCache`] and ext3's private
//! post-verification cache — order their residents with it. The index
//! knows recency only: *when* to evict (capacity) and *what eviction
//! costs* (a dirty victim must be destaged first) stay with the caller,
//! which asks for [`Lru::oldest`] and decides.
//!
//! Entries are packed in one `Vec` and threaded oldest → newest by index,
//! so a touch re-links the block's one record in O(1) and memory is
//! proportional to the resident entries, never to the number of touches.

use std::collections::HashMap;

use iron_core::BlockAddr;

/// "No entry": the end of the thread in either direction.
const NONE: usize = usize::MAX;

struct Node<V> {
    addr: BlockAddr,
    value: V,
    older: usize,
    newer: usize,
}

/// An exact-LRU map from block address to `V`.
pub struct Lru<V> {
    /// addr → position in `nodes`.
    index: HashMap<BlockAddr, usize>,
    /// The resident entries, densely packed (a removal moves the last one
    /// into the hole).
    nodes: Vec<Node<V>>,
    oldest: usize,
    newest: usize,
}

impl<V> Default for Lru<V> {
    /// An empty index.
    fn default() -> Self {
        Lru {
            index: HashMap::new(),
            nodes: Vec::new(),
            oldest: NONE,
            newest: NONE,
        }
    }
}

impl<V> Lru<V> {
    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Look `addr` up without touching it.
    pub fn peek(&self, addr: BlockAddr) -> Option<&V> {
        self.index.get(&addr).map(|&i| &self.nodes[i].value)
    }

    /// Mutable look-up without touching.
    pub fn peek_mut(&mut self, addr: BlockAddr) -> Option<&mut V> {
        self.index.get(&addr).map(|&i| &mut self.nodes[i].value)
    }

    /// Look `addr` up and make it the most recently used.
    pub fn get(&mut self, addr: BlockAddr) -> Option<&V> {
        let i = *self.index.get(&addr)?;
        self.touch(i);
        Some(&self.nodes[i].value)
    }

    /// Mutable look-up that makes `addr` the most recently used, as
    /// [`Lru::insert`] of a resident address does.
    pub fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut V> {
        let i = *self.index.get(&addr)?;
        self.touch(i);
        Some(&mut self.nodes[i].value)
    }

    /// Insert or replace `addr`, making it the most recently used.
    pub fn insert(&mut self, addr: BlockAddr, value: V) {
        if let Some(&i) = self.index.get(&addr) {
            self.nodes[i].value = value;
            self.touch(i);
        } else {
            let i = self.nodes.len();
            self.index.insert(addr, i);
            self.nodes.push(Node {
                addr,
                value,
                older: NONE,
                newer: NONE,
            });
            self.link_newest(i);
        }
    }

    /// Drop `addr`, returning its value if it was resident.
    pub fn remove(&mut self, addr: BlockAddr) -> Option<V> {
        let i = self.index.remove(&addr)?;
        self.unlink(i);
        let removed = self.nodes.swap_remove(i);
        if let Some(moved) = self.nodes.get(i) {
            // The last node now lives at `i`: re-point what pointed at it.
            let (addr, older, newer) = (moved.addr, moved.older, moved.newer);
            self.index.insert(addr, i);
            self.set_newer(older, i);
            self.set_older(newer, i);
        }
        Some(removed.value)
    }

    /// The least recently used entry — the eviction victim — left in place.
    pub fn oldest(&self) -> Option<(BlockAddr, &V)> {
        let node = self.nodes.get(self.oldest)?;
        Some((node.addr, &node.value))
    }

    /// Make node `i` the newest.
    fn touch(&mut self, i: usize) {
        if self.newest != i {
            self.unlink(i);
            self.link_newest(i);
        }
    }

    /// Append the unlinked node `i` at the newest end of the thread.
    fn link_newest(&mut self, i: usize) {
        self.nodes[i].older = self.newest;
        self.nodes[i].newer = NONE;
        self.set_newer(self.newest, i);
        self.newest = i;
    }

    /// Take node `i` out of the thread, joining its neighbours.
    fn unlink(&mut self, i: usize) {
        let (older, newer) = (self.nodes[i].older, self.nodes[i].newer);
        self.set_newer(older, newer);
        self.set_older(newer, older);
    }

    /// `to` follows `of` (or is the oldest, if nothing is older).
    fn set_newer(&mut self, of: usize, to: usize) {
        match of {
            NONE => self.oldest = to,
            older => self.nodes[older].newer = to,
        }
    }

    /// `to` precedes `of` (or is the newest, if nothing is newer).
    fn set_older(&mut self, of: usize, to: usize) {
        match of {
            NONE => self.newest = to,
            newer => self.nodes[newer].older = to,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(lru: &Lru<u8>) -> Vec<u64> {
        let mut out = Vec::new();
        let mut i = lru.oldest;
        while i != NONE {
            out.push(lru.nodes[i].addr.0);
            i = lru.nodes[i].newer;
        }
        out
    }

    /// `get_mut` moves an entry to the newest end exactly as `insert` of
    /// the same address does, and leaves a miss without an entry.
    #[test]
    fn get_mut_touches_as_insert_does() {
        let mut by_get_mut: Lru<u8> = Lru::default();
        let mut by_insert: Lru<u8> = Lru::default();
        for a in 0..4 {
            by_get_mut.insert(BlockAddr(a), a as u8);
            by_insert.insert(BlockAddr(a), a as u8);
        }
        for a in [1, 0, 3, 1] {
            *by_get_mut.get_mut(BlockAddr(a)).unwrap() += 10;
            let v = *by_insert.peek(BlockAddr(a)).unwrap();
            by_insert.insert(BlockAddr(a), v + 10);
            assert_eq!(order(&by_get_mut), order(&by_insert));
        }
        assert_eq!(order(&by_get_mut), [2, 0, 3, 1]);
        assert_eq!(by_get_mut.oldest(), Some((BlockAddr(2), &2)));
        assert_eq!(by_get_mut.peek(BlockAddr(1)), Some(&21));
        assert_eq!(by_get_mut.get_mut(BlockAddr(9)), None);
        assert_eq!(by_get_mut.len(), 4);
    }
}
