//! `NodeView` reads untrusted bytes in place: a seeded differential test
//! holds it to a reference decoder over encoded nodes and their
//! corruptions.
//!
//! The reference is the owning decoder the view replaced, kept here
//! verbatim: it checks each rule on the materialised items, the view on
//! the block's bytes. On every input, with the expected level unknown,
//! right and wrong, the two must accept and reject alike, `Node::decode`
//! must equal the reference's node, and on every accepted node the
//! view's child and item lookups must equal `Node::child_index` and a
//! linear find.

use iron_core::{Block, BLOCK_SIZE};
use iron_reiser::tree::{
    Item, ItemKind, Key, Node, NodeView, HDR, INTERNAL_MAX, ITEM_OVERHEAD, LEAF_CAPACITY,
    MAX_HEIGHT,
};
use iron_testkit::Rng;

/// The decoder before `NodeView`: every rule checked on owned items.
fn reference_decode(b: &Block, expected_level: Option<u16>) -> Option<Node> {
    let key_at = |off: usize| {
        Some(Key {
            oid: b.get_u64(off),
            kind: ItemKind::from_u8(b[off + 8])?,
            offset: b.get_u64(off + 16),
        })
    };
    let level = b.get_u16(0);
    if level == 0 || level > MAX_HEIGHT {
        return None;
    }
    if let Some(exp) = expected_level {
        if level != exp {
            return None;
        }
    }
    let nitems = b.get_u16(2) as usize;
    let declared_free = b.get_u16(4) as usize;
    if level == 1 {
        if nitems > LEAF_CAPACITY / ITEM_OVERHEAD {
            return None;
        }
        let mut items = Vec::with_capacity(nitems);
        let mut off = HDR;
        for _ in 0..nitems {
            if off + ITEM_OVERHEAD > BLOCK_SIZE {
                return None;
            }
            let key = key_at(off)?;
            let len = b.get_u16(off + 24) as usize;
            if off + ITEM_OVERHEAD + len > BLOCK_SIZE {
                return None;
            }
            items.push(Item {
                key,
                payload: b.get_bytes(off + 26, len).to_vec(),
            });
            off += ITEM_OVERHEAD + len;
        }
        if declared_free != LEAF_CAPACITY - Node::leaf_used(&items) {
            return None;
        }
        if items.windows(2).any(|w| w[0].key >= w[1].key) {
            return None;
        }
        Some(Node::Leaf(items))
    } else {
        if nitems == 0 || nitems > INTERNAL_MAX {
            return None;
        }
        let used = nitems * 24 + (nitems + 1) * 8;
        if HDR + used > BLOCK_SIZE || declared_free != LEAF_CAPACITY - used {
            return None;
        }
        let mut keys = Vec::with_capacity(nitems);
        let mut off = HDR;
        for _ in 0..nitems {
            keys.push(key_at(off)?);
            off += 24;
        }
        let mut children = Vec::with_capacity(nitems + 1);
        for _ in 0..=nitems {
            children.push(b.get_u64(off));
            off += 8;
        }
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        Some(Node::Internal {
            level,
            keys,
            children,
        })
    }
}

const KINDS: [ItemKind; 4] = [
    ItemKind::Stat,
    ItemKind::Dir,
    ItemKind::Direct,
    ItemKind::Indirect,
];

/// `n` distinct keys, sorted, drawn from a small space so neighbours
/// often share an oid or a kind.
fn sorted_keys(rng: &mut Rng, n: usize) -> Vec<Key> {
    let mut keys = std::collections::BTreeSet::new();
    while keys.len() < n {
        keys.insert(Key::new(
            rng.below(40),
            *rng.choose(&KINDS),
            if rng.bool() {
                rng.below(4)
            } else {
                rng.next_u64()
            },
        ));
    }
    keys.into_iter().collect()
}

fn random_leaf(rng: &mut Rng) -> Node {
    let n = rng.range(0, 40);
    let mut room = LEAF_CAPACITY;
    let mut items = Vec::new();
    for key in sorted_keys(rng, n) {
        if room < ITEM_OVERHEAD {
            break;
        }
        let len = rng.range(0, (room - ITEM_OVERHEAD).min(300) + 1);
        let mut payload = vec![0; len];
        rng.fill(&mut payload);
        room -= ITEM_OVERHEAD + len;
        items.push(Item { key, payload });
    }
    Node::Leaf(items)
}

fn random_internal(rng: &mut Rng) -> Node {
    let n = rng.range(1, INTERNAL_MAX + 1);
    Node::Internal {
        level: rng.range(2, MAX_HEIGHT as usize + 1) as u16,
        keys: sorted_keys(rng, n),
        children: (0..=n).map(|_| rng.next_u64()).collect(),
    }
}

/// Byte offsets of the keys an encoded node holds, in order.
fn key_offsets(b: &Block) -> Vec<usize> {
    let n = b.get_u16(2) as usize;
    if b.get_u16(0) != 1 {
        return (0..n.min(INTERNAL_MAX)).map(|i| HDR + 24 * i).collect();
    }
    let mut offs = Vec::new();
    let mut off = HDR;
    for _ in 0..n {
        if off + ITEM_OVERHEAD > BLOCK_SIZE {
            break;
        }
        offs.push(off);
        off += ITEM_OVERHEAD + b.get_u16(off + 24) as usize;
    }
    offs
}

/// The free-space field that a node of `b`'s level with `count` items
/// (or separators) would declare, as far as the block holds them.
fn free_for(b: &Block, count: usize) -> usize {
    let used = if b.get_u16(0) != 1 {
        count * 24 + (count + 1) * 8
    } else {
        let mut off = HDR;
        for _ in 0..count {
            if off + ITEM_OVERHEAD > BLOCK_SIZE {
                break;
            }
            off += ITEM_OVERHEAD + b.get_u16(off + 24) as usize;
        }
        off - HDR
    };
    LEAF_CAPACITY.wrapping_sub(used)
}

/// One corruption of an encoded node.
fn corrupt(rng: &mut Rng, mut b: Block) -> Block {
    let keys = key_offsets(&b);
    match rng.below(10) {
        // Bit flips, mostly near the header and the first items.
        0 => {
            for _ in 0..rng.range(1, 4) {
                let limit = *rng.choose(&[HDR, 128, 1024, BLOCK_SIZE]);
                let at = rng.range(0, limit);
                b[at] ^= 1 << rng.below(8);
            }
        }
        // The level field: off by one, or anything.
        1 => {
            let level = b.get_u16(0);
            let v = match rng.below(3) {
                0 => level.wrapping_add(1),
                1 => level.wrapping_sub(1),
                _ => rng.next_u32() as u16 % (MAX_HEIGHT + 3),
            };
            b.put_u16(0, v);
        }
        // The count field.
        2 => {
            let count = b.get_u16(2);
            let v = match rng.below(3) {
                0 => count.wrapping_add(1),
                1 => count.wrapping_sub(1),
                _ => rng.next_u32() as u16,
            };
            b.put_u16(2, v);
        }
        // The count field with a free-space field that agrees with it.
        8 => {
            let count = b.get_u16(2) as usize;
            let c = match rng.below(4) {
                0 => count + 1,
                1 => count.saturating_sub(1),
                2 => *rng.choose(&[0, INTERNAL_MAX, INTERNAL_MAX + 1]),
                _ => LEAF_CAPACITY / ITEM_OVERHEAD + rng.range(0, 2),
            };
            b.put_u16(2, c as u16);
            b.put_u16(4, free_for(&b, c) as u16);
        }
        // The free-space field.
        3 => {
            let free = b.get_u16(4);
            let v = match rng.below(3) {
                0 => free.wrapping_add(1),
                1 => free.wrapping_sub(1),
                _ => rng.next_u32() as u16,
            };
            b.put_u16(4, v);
        }
        // A bad kind byte.
        4 if !keys.is_empty() => {
            let at = *rng.choose(&keys) + 8;
            let noise = rng.next_u32() as u8;
            b[at] = *rng.choose(&[0, 5, 0xFF, noise]);
        }
        // An item length running past the block (or just past its item).
        5 if b.get_u16(0) == 1 && !keys.is_empty() => {
            // The last item half the time: an earlier one that grows is
            // caught by the items after it.
            let item = match rng.bool() {
                true => keys[keys.len() - 1],
                false => *rng.choose(&keys),
            };
            let at = item + 24;
            let len = b.get_u16(at);
            // The item ends one byte short of the block's end, at it, or
            // one past it.
            let to_end = (BLOCK_SIZE - at - 2) as u16;
            let v = match rng.below(3) {
                0 => len.wrapping_add(1),
                1 => (to_end + rng.below(3) as u16).wrapping_sub(1),
                _ => rng.next_u32() as u16,
            };
            b.put_u16(at, v);
        }
        // Two keys swapped (a leaf's keys stay with their lengths).
        6 if keys.len() >= 2 => {
            let i = rng.range(0, keys.len() - 1);
            let j = if rng.bool() {
                i + 1
            } else {
                rng.range(0, keys.len())
            };
            let (ki, kj) = (
                b.get_bytes(keys[i], 24).to_vec(),
                b.get_bytes(keys[j], 24).to_vec(),
            );
            b.put_bytes(keys[i], &kj);
            b.put_bytes(keys[j], &ki);
        }
        // A key made equal to its neighbour.
        7 if keys.len() >= 2 => {
            let i = rng.range(0, keys.len() - 1);
            let k = b.get_bytes(keys[i], 24).to_vec();
            b.put_bytes(keys[i + 1], &k);
        }
        // All zeros, or noise.
        _ => {
            if rng.bool() {
                b = Block::zeroed();
            } else {
                rng.fill(&mut b[..]);
            }
        }
    }
    b
}

/// Keys to look up in `node`: its own, their neighbours, and strangers.
fn probes(rng: &mut Rng, node: &Node) -> Vec<Key> {
    let own: Vec<Key> = match node {
        Node::Leaf(items) => items.iter().map(|i| i.key).collect(),
        Node::Internal { keys, .. } => keys.clone(),
    };
    let mut out = vec![
        Key::min_of(0, ItemKind::Stat),
        Key::max_of(u64::MAX, ItemKind::Indirect),
    ];
    for k in own {
        out.push(k);
        out.push(Key::new(k.oid, k.kind, k.offset.wrapping_add(1)));
        out.push(Key::new(k.oid, k.kind, k.offset.wrapping_sub(1)));
    }
    out.extend(sorted_keys(rng, 8));
    out
}

/// One input: accept/reject and the decoded node agree with the
/// reference at every expected level, and an accepted node's lookups
/// agree with `Node`'s.
fn check(rng: &mut Rng, b: &Block) -> bool {
    let level = b.get_u16(0);
    let wrong = if level == 1 { 2 } else { 1 };
    let mut accepted = false;
    for exp in [None, Some(level), Some(wrong)] {
        let reference = reference_decode(b, exp);
        let view = NodeView::new(b, exp);
        assert_eq!(
            view.is_some(),
            reference.is_some(),
            "accept/reject differ at expected level {exp:?} on {:?}",
            &b[..64]
        );
        assert_eq!(Node::decode(b, exp), reference);
        let (Some(view), Some(node)) = (view, reference) else {
            continue;
        };
        accepted = true;
        assert_eq!(view.to_node(), node);
        for key in probes(rng, &node) {
            match &node {
                Node::Leaf(items) => {
                    let want = items.iter().find(|i| i.key == key).cloned();
                    assert_eq!(view.find(&key).map(|i| i.to_item()), want);
                }
                Node::Internal { keys, children, .. } => {
                    let i = Node::child_index(keys, &key);
                    assert_eq!(view.child_index(&key), i);
                    assert_eq!(view.child(i), children[i]);
                }
            }
        }
        if let Node::Internal { keys, children, .. } = &node {
            let mut bounds = probes(rng, &node);
            bounds.sort();
            for w in bounds.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                // The range walk's filter: child i covers
                // [keys[i-1], keys[i]).
                let want: Vec<u64> = (0..children.len())
                    .filter(|&i| !(i > 0 && hi < keys[i - 1] || i < keys.len() && lo >= keys[i]))
                    .map(|i| children[i])
                    .collect();
                assert_eq!(view.children_between(&lo, &hi).collect::<Vec<_>>(), want);
            }
        }
    }
    accepted
}

#[test]
fn node_view_agrees_with_the_reference_decoder() {
    let mut rng = Rng::from_seed(0x5EED_41EF);
    let (mut inputs, mut accepted) = (0, 0);
    let (mut corrupted, mut corrupted_accepted) = (0, 0);
    for round in 0..3_000 {
        let node = if round % 2 == 0 {
            random_leaf(&mut rng)
        } else {
            random_internal(&mut rng)
        };
        let clean = node.encode();
        assert!(check(&mut rng, &clean), "an encoded node must be accepted");
        assert_eq!(
            NodeView::new(&clean, Some(node.level())).unwrap().to_node(),
            node
        );
        inputs += 1;
        accepted += 1;
        for _ in 0..4 {
            let mut b = clean.clone();
            for _ in 0..rng.range(1, 3) {
                b = corrupt(&mut rng, b);
            }
            let ok = check(&mut rng, &b);
            inputs += 1;
            corrupted += 1;
            accepted += ok as usize;
            corrupted_accepted += ok as usize;
        }
    }
    for b in [Block::zeroed(), Block::filled(0xFF), Block::filled(0x01)] {
        assert!(!check(&mut rng, &b));
    }
    // The limits, which random corruption seldom lands on exactly:
    // separator counts at and past the bounds, levels at and past the
    // height limit, and a leaf whose last item ends one byte short of the
    // block's end, at it, or one past it (its free-space field agreeing).
    for n in [0, 1, INTERNAL_MAX, INTERNAL_MAX + 1] {
        for level in [2, MAX_HEIGHT, MAX_HEIGHT + 1] {
            let node = Node::Internal {
                level,
                keys: sorted_keys(&mut rng, n),
                children: (0..=n as u64).collect(),
            };
            let in_bounds = (1..=INTERNAL_MAX).contains(&n) && level <= MAX_HEIGHT;
            assert_eq!(check(&mut rng, &node.encode()), in_bounds);
        }
    }
    for level in [0, MAX_HEIGHT, MAX_HEIGHT + 1] {
        let mut b = random_leaf(&mut rng).encode();
        b.put_u16(0, level);
        assert!(!check(&mut rng, &b));
    }
    let first = Item {
        key: Key::new(1, ItemKind::Stat, 0),
        payload: vec![7; 40],
    };
    let last = Item {
        key: Key::new(1, ItemKind::Direct, 0),
        payload: vec![9; LEAF_CAPACITY - 2 * ITEM_OVERHEAD - 40],
    };
    let full = Node::Leaf(vec![first.clone(), last]).encode();
    assert!(check(&mut rng, &full));
    let len_at = HDR + first.on_disk_size() + 24;
    for (delta, fits) in [(-1, true), (1, false)] {
        let mut b = full.clone();
        let len = b.get_u16(len_at) as i32 + delta;
        b.put_u16(len_at, len as u16);
        b.put_u16(4, free_for(&b, 2) as u16);
        assert_eq!(check(&mut rng, &b), fits, "last item resized by {delta}");
    }
    // A third, empty item squeezed into the block's last `gap` bytes: its
    // header fits only from 26 bytes up.
    for gap in [ITEM_OVERHEAD - 1, ITEM_OVERHEAD, ITEM_OVERHEAD + 1] {
        let shorter = Item {
            key: Key::new(1, ItemKind::Direct, 0),
            payload: vec![9; LEAF_CAPACITY - 2 * ITEM_OVERHEAD - 40 - gap],
        };
        let mut b = Node::Leaf(vec![first.clone(), shorter]).encode();
        let at = BLOCK_SIZE - gap;
        b.put_u64(at, 2);
        b[at + 8] = ItemKind::Stat as u8;
        b.put_u16(2, 3);
        b.put_u16(4, free_for(&b, 3) as u16);
        assert_eq!(check(&mut rng, &b), gap >= ITEM_OVERHEAD, "gap {gap}");
    }
    // Both sides of every rule are exercised: most corruptions are
    // caught, and some (a flipped payload bit, a child pointer) are not.
    assert_eq!(inputs, 15_000);
    assert!(
        corrupted_accepted * 10 < corrupted && corrupted_accepted * 50 > corrupted,
        "{corrupted_accepted} of {corrupted} corrupted nodes accepted"
    );
    assert!(accepted > 3_000);
}
