//! Balanced-tree node formats and in-node operations.
//!
//! Every ReiserFS object lives in one tree, addressed by a key
//! `(object id, item kind, offset)`:
//!
//! * **stat items** — per-object attributes (like inodes);
//! * **directory items** — one per directory entry in this model, keyed by
//!   a name hash (real ReiserFS packs several per item; the policy-relevant
//!   structure — lookups keyed by hash through the tree — is the same);
//! * **direct items** — small-file bodies and tails, stored in the leaf;
//! * **indirect items** — arrays of data-block pointers for large files,
//!   keyed by file block offset.
//!
//! Every node begins with a block header `{level, item count, free space}`
//! that ReiserFS sanity-checks on each read (§5.2) — [`NodeView::new`]
//! returns `None` exactly when those checks fail, and [`Node::decode`] is
//! that view copied out.

use iron_core::{Block, BLOCK_SIZE};

/// Node header size.
pub const HDR: usize = 8;
/// Per-item on-disk overhead (24-byte key + 2-byte length).
pub const ITEM_OVERHEAD: usize = 26;
/// Maximum payload bytes a leaf can hold.
pub const LEAF_CAPACITY: usize = BLOCK_SIZE - HDR;
/// Maximum children of an internal node (kept small so splits happen in
/// tests; real ReiserFS packs far more).
pub const INTERNAL_MAX: usize = 64;
/// Maximum tree height accepted by sanity checks.
pub const MAX_HEIGHT: u16 = 8;
/// Data-block pointers per indirect item chunk.
pub const PTRS_PER_INDIRECT: usize = 256;
/// Largest file body stored as a direct item (tail) in the leaf.
pub const TAIL_MAX: usize = 1024;

/// Item kinds, in key order (stat < dir < direct < indirect).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum ItemKind {
    /// Attributes.
    Stat = 1,
    /// Directory entry.
    Dir = 2,
    /// Inline file body (tail).
    Direct = 3,
    /// Block-pointer array.
    Indirect = 4,
}

impl ItemKind {
    /// Decode a kind byte.
    pub fn from_u8(v: u8) -> Option<ItemKind> {
        Some(match v {
            1 => ItemKind::Stat,
            2 => ItemKind::Dir,
            3 => ItemKind::Direct,
            4 => ItemKind::Indirect,
            _ => return None,
        })
    }
}

/// A tree key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Key {
    /// Object id (file/directory identity).
    pub oid: u64,
    /// Item kind.
    pub kind: ItemKind,
    /// Offset (file block index, name hash, …).
    pub offset: u64,
}

impl Key {
    /// Construct a key.
    pub fn new(oid: u64, kind: ItemKind, offset: u64) -> Self {
        Key { oid, kind, offset }
    }

    /// The smallest key for `(oid, kind)`.
    pub fn min_of(oid: u64, kind: ItemKind) -> Self {
        Key::new(oid, kind, 0)
    }

    /// The largest key for `(oid, kind)`.
    pub fn max_of(oid: u64, kind: ItemKind) -> Self {
        Key::new(oid, kind, u64::MAX)
    }
}

/// A leaf item: key + payload bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Item {
    /// The key.
    pub key: Key,
    /// The payload.
    pub payload: Vec<u8>,
}

impl Item {
    /// Bytes this item occupies in a leaf.
    pub fn on_disk_size(&self) -> usize {
        ITEM_OVERHEAD + self.payload.len()
    }
}

/// A decoded tree node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Node {
    /// A leaf (level 1): sorted items.
    Leaf(Vec<Item>),
    /// An internal node (level ≥ 2): `children.len() == keys.len() + 1`,
    /// subtree `i` holds keys < `keys[i]`.
    Internal {
        /// This node's level (2 = just above the leaves).
        level: u16,
        /// Separator keys.
        keys: Vec<Key>,
        /// Child block addresses.
        children: Vec<u64>,
    },
}

fn encode_key(b: &mut Block, off: usize, k: &Key) {
    b.put_u64(off, k.oid);
    b[off + 8] = k.kind as u8;
    b.put_u64(off + 16, k.offset);
}

fn decode_key(b: &Block, off: usize) -> Option<Key> {
    Some(Key {
        oid: b.get_u64(off),
        kind: ItemKind::from_u8(b[off + 8])?,
        offset: b.get_u64(off + 16),
    })
}

impl Node {
    /// This node's level.
    pub fn level(&self) -> u16 {
        match self {
            Node::Leaf(_) => 1,
            Node::Internal { level, .. } => *level,
        }
    }

    /// Bytes used by a leaf's items.
    pub fn leaf_used(items: &[Item]) -> usize {
        items.iter().map(Item::on_disk_size).sum()
    }

    /// Serialize, writing a correct header (level, nitems, free space).
    pub fn encode(&self) -> Block {
        let mut b = Block::zeroed();
        match self {
            Node::Leaf(items) => {
                b.put_u16(0, 1);
                b.put_u16(2, items.len() as u16);
                let used = Self::leaf_used(items);
                b.put_u16(4, (LEAF_CAPACITY - used) as u16);
                let mut off = HDR;
                for item in items {
                    encode_key(&mut b, off, &item.key);
                    b.put_u16(off + 24, item.payload.len() as u16);
                    b.put_bytes(off + 26, &item.payload);
                    off += item.on_disk_size();
                }
            }
            Node::Internal {
                level,
                keys,
                children,
            } => {
                debug_assert_eq!(children.len(), keys.len() + 1);
                b.put_u16(0, *level);
                b.put_u16(2, keys.len() as u16);
                let used = keys.len() * 24 + children.len() * 8;
                b.put_u16(4, (LEAF_CAPACITY - used) as u16);
                let mut off = HDR;
                for k in keys {
                    encode_key(&mut b, off, k);
                    off += 24;
                }
                for c in children {
                    b.put_u64(off, *c);
                    off += 8;
                }
            }
        }
        b
    }

    /// Decode with ReiserFS's block-header sanity checks: the checks of
    /// [`NodeView::new`], then every item, key and child copied out.
    /// Returns `None` on any failed check — the caller decides whether
    /// that means `panic` or `RPropagate` (§5.2 does both, in different
    /// places).
    pub fn decode(b: &Block, expected_level: Option<u16>) -> Option<Node> {
        NodeView::new(b, expected_level).map(|v| v.to_node())
    }

    /// Child index to descend into for `key`.
    pub fn child_index(keys: &[Key], key: &Key) -> usize {
        keys.iter().take_while(|k| key >= k).count()
    }
}

/// A leaf item as it lies in its block: the key and a borrowed payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ItemRef<'a> {
    /// The key.
    pub key: Key,
    /// The payload, in the block.
    pub payload: &'a [u8],
}

impl ItemRef<'_> {
    /// Copy the item out of its block.
    pub fn to_item(self) -> Item {
        Item {
            key: self.key,
            payload: self.payload.to_vec(),
        }
    }
}

/// A tree node read in place: a block that passed ReiserFS's block-header
/// sanity checks (§5.2), searched by key in its own bytes. Nothing is
/// copied until an item is taken out ([`ItemRef::to_item`],
/// [`Self::to_node`]).
#[derive(Clone, Copy, Debug)]
pub struct NodeView<'a> {
    b: &'a Block,
    level: u16,
    /// Items of a leaf, separator keys of an internal node.
    count: usize,
}

impl<'a> NodeView<'a> {
    /// Check `b` as a tree node: level within bounds (and equal to
    /// `expected_level` when the caller knows it from the descent), item
    /// count within what the node can hold, every item inside the block,
    /// the free-space field equal to what the items leave, every key's
    /// kind known, and keys strictly sorted. `None` on any failed check;
    /// these are the only sanity rules, and [`Node::decode`] runs them
    /// through here.
    pub fn new(b: &'a Block, expected_level: Option<u16>) -> Option<Self> {
        let level = b.get_u16(0);
        if level == 0 || level > MAX_HEIGHT {
            return None;
        }
        if expected_level.is_some_and(|exp| level != exp) {
            return None;
        }
        let count = b.get_u16(2) as usize;
        let mut prev = None;
        let mut sorted = |key: Key| prev.replace(key).is_none_or(|p| p < key);
        let used = if level == 1 {
            if count > LEAF_CAPACITY / ITEM_OVERHEAD {
                return None;
            }
            let mut off = HDR;
            for _ in 0..count {
                if off + ITEM_OVERHEAD > BLOCK_SIZE || !sorted(decode_key(b, off)?) {
                    return None;
                }
                off += ITEM_OVERHEAD + b.get_u16(off + 24) as usize;
            }
            off - HDR
        } else {
            if count == 0 || count > INTERNAL_MAX {
                return None;
            }
            for i in 0..count {
                if !sorted(decode_key(b, HDR + 24 * i)?) {
                    return None;
                }
            }
            count * 24 + (count + 1) * 8
        };
        // Items past the block's end, or a free-space field that disagrees
        // with them: a corrupt header.
        if HDR + used > BLOCK_SIZE || b.get_u16(4) as usize != LEAF_CAPACITY - used {
            return None;
        }
        Some(NodeView { b, level, count })
    }

    /// A leaf?
    pub fn is_leaf(&self) -> bool {
        self.level == 1
    }

    /// Separator key `i` of an internal node.
    pub fn key(&self, i: usize) -> Key {
        debug_assert!(!self.is_leaf() && i < self.count);
        decode_key(self.b, HDR + 24 * i).expect("checked by NodeView::new")
    }

    /// Child address `i` of an internal node (`i` up to its key count).
    pub fn child(&self, i: usize) -> u64 {
        debug_assert!(!self.is_leaf() && i <= self.count);
        self.b.get_u64(HDR + 24 * self.count + 8 * i)
    }

    /// The child of an internal node to descend into for `key`: the
    /// number of separators `<= key`, found by binary search.
    pub fn child_index(&self, key: &Key) -> usize {
        let (mut lo, mut hi) = (0, self.count);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.key(mid) <= *key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The children of an internal node whose subtrees can hold a key in
    /// `[lo, hi]`, left to right (child `i` covers `[key(i-1), key(i))`).
    pub fn children_between(&self, lo: &Key, hi: &Key) -> impl Iterator<Item = u64> + 'a {
        let view = *self;
        (self.child_index(lo)..=self.child_index(hi)).map(move |i| view.child(i))
    }

    /// A leaf's items, in key order.
    pub fn items(&self) -> impl Iterator<Item = ItemRef<'a>> + 'a {
        debug_assert!(self.is_leaf());
        let b = self.b;
        let mut off = HDR;
        (0..self.count).map(move |_| {
            let len = b.get_u16(off + 24) as usize;
            let item = ItemRef {
                key: decode_key(b, off).expect("checked by NodeView::new"),
                payload: b.get_bytes(off + 26, len),
            };
            off += ITEM_OVERHEAD + len;
            item
        })
    }

    /// The leaf item with exactly `key`.
    pub fn find(&self, key: &Key) -> Option<ItemRef<'a>> {
        self.items()
            .find(|i| i.key >= *key)
            .filter(|i| i.key == *key)
    }

    /// Copy the whole node out.
    pub fn to_node(&self) -> Node {
        if self.is_leaf() {
            Node::Leaf(self.items().map(ItemRef::to_item).collect())
        } else {
            Node::Internal {
                level: self.level,
                keys: (0..self.count).map(|i| self.key(i)).collect(),
                children: (0..=self.count).map(|i| self.child(i)).collect(),
            }
        }
    }
}

/// Encode an indirect-item payload (block pointers).
pub fn encode_ptrs(ptrs: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ptrs.len() * 4);
    for p in ptrs {
        out.extend_from_slice(&p.to_le_bytes());
    }
    out
}

/// Decode an indirect-item payload.
pub fn decode_ptrs(payload: &[u8]) -> Vec<u32> {
    payload
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(oid: u64, kind: ItemKind, off: u64, len: usize) -> Item {
        Item {
            key: Key::new(oid, kind, off),
            payload: vec![0xAB; len],
        }
    }

    #[test]
    fn leaf_round_trip() {
        let items = vec![
            item(1, ItemKind::Stat, 0, 40),
            item(1, ItemKind::Dir, 77, 20),
            item(2, ItemKind::Stat, 0, 40),
            item(2, ItemKind::Direct, 0, 500),
        ];
        let n = Node::Leaf(items.clone());
        let decoded = Node::decode(&n.encode(), Some(1)).unwrap();
        assert_eq!(decoded, n);
    }

    #[test]
    fn internal_round_trip() {
        let n = Node::Internal {
            level: 2,
            keys: vec![
                Key::new(5, ItemKind::Stat, 0),
                Key::new(9, ItemKind::Dir, 1234),
            ],
            children: vec![100, 200, 300],
        };
        assert_eq!(Node::decode(&n.encode(), Some(2)).unwrap(), n);
    }

    #[test]
    fn sanity_rejects_wrong_level() {
        let n = Node::Leaf(vec![item(1, ItemKind::Stat, 0, 10)]);
        let b = n.encode();
        assert!(Node::decode(&b, Some(2)).is_none());
        assert!(Node::decode(&b, Some(1)).is_some());
        assert!(Node::decode(&b, None).is_some());
    }

    #[test]
    fn sanity_rejects_corrupt_header_fields() {
        let n = Node::Leaf(vec![item(1, ItemKind::Stat, 0, 10)]);
        let mut b = n.encode();
        b.put_u16(4, 9999); // free-space field corrupted
        assert!(Node::decode(&b, None).is_none());

        let mut b2 = n.encode();
        b2.put_u16(0, 99); // absurd level
        assert!(Node::decode(&b2, None).is_none());

        let mut b3 = n.encode();
        b3.put_u16(2, 400); // absurd item count
        assert!(Node::decode(&b3, None).is_none());
    }

    #[test]
    fn sanity_rejects_random_noise_and_zeroes() {
        assert!(Node::decode(&Block::zeroed(), None).is_none());
        assert!(Node::decode(&Block::filled(0xC3), None).is_none());
    }

    #[test]
    fn sanity_rejects_unsorted_keys() {
        // Hand-craft a leaf with out-of-order keys.
        let items = vec![item(5, ItemKind::Stat, 0, 4), item(3, ItemKind::Stat, 0, 4)];
        let mut b = Block::zeroed();
        b.put_u16(0, 1);
        b.put_u16(2, 2);
        let used: usize = items.iter().map(Item::on_disk_size).sum();
        b.put_u16(4, (LEAF_CAPACITY - used) as u16);
        let mut off = HDR;
        for it in &items {
            b.put_u64(off, it.key.oid);
            b[off + 8] = it.key.kind as u8;
            b.put_u64(off + 16, it.key.offset);
            b.put_u16(off + 24, it.payload.len() as u16);
            b.put_bytes(off + 26, &it.payload);
            off += it.on_disk_size();
        }
        assert!(Node::decode(&b, None).is_none());
    }

    #[test]
    fn key_ordering_is_oid_kind_offset() {
        let a = Key::new(1, ItemKind::Indirect, 999);
        let b = Key::new(2, ItemKind::Stat, 0);
        assert!(a < b);
        let c = Key::new(1, ItemKind::Stat, 5);
        let d = Key::new(1, ItemKind::Dir, 0);
        assert!(c < d, "stat sorts before dir for the same oid");
    }

    #[test]
    fn child_index_picks_subtree() {
        let keys = vec![
            Key::new(10, ItemKind::Stat, 0),
            Key::new(20, ItemKind::Stat, 0),
        ];
        assert_eq!(Node::child_index(&keys, &Key::new(5, ItemKind::Stat, 0)), 0);
        assert_eq!(
            Node::child_index(&keys, &Key::new(10, ItemKind::Stat, 0)),
            1
        );
        assert_eq!(Node::child_index(&keys, &Key::new(15, ItemKind::Dir, 3)), 1);
        assert_eq!(
            Node::child_index(&keys, &Key::new(25, ItemKind::Stat, 0)),
            2
        );
    }

    #[test]
    fn ptr_payload_round_trip() {
        let ptrs = vec![1u32, 500, 4095, 0];
        assert_eq!(decode_ptrs(&encode_ptrs(&ptrs)), ptrs);
    }
}
