//! Directory block format: ext2-style variable-length entries.
//!
//! Each entry is `{ino: u32, rec_len: u16, name_len: u8, ftype: u8, name}`
//! with `rec_len` chaining entries through the block; the final entry's
//! `rec_len` runs to the end of the block. An entry with `ino == 0` is a
//! hole.
//!
//! Parsing is deliberately *lenient*: ext3 does "little type checking …
//! for many important blocks, such as directories" (§5.1), so a corrupted
//! directory block does not raise an error — malformed chains simply
//! truncate the listing, silently (that is `DZero` behavior, and the
//! fingerprinting framework observes exactly that).

use iron_core::{Block, BLOCK_SIZE};
use iron_vfs::FileType;

/// File-type byte stored in directory entries.
pub fn ftype_code(t: FileType) -> u8 {
    match t {
        FileType::Regular => 1,
        FileType::Directory => 2,
        FileType::Symlink => 7,
    }
}

/// Inverse of [`ftype_code`]; unknown codes default to regular (lenient).
pub fn ftype_from_code(c: u8) -> FileType {
    match c {
        2 => FileType::Directory,
        7 => FileType::Symlink,
        _ => FileType::Regular,
    }
}

/// A parsed directory entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RawDirEntry {
    /// Referenced inode (never 0 after parsing).
    pub ino: u32,
    /// File-type code byte.
    pub ftype: u8,
    /// Entry name.
    pub name: String,
}

impl RawDirEntry {
    /// A new entry.
    pub fn new(ino: u32, ftype: FileType, name: &str) -> Self {
        RawDirEntry {
            ino,
            ftype: ftype_code(ftype),
            name: name.to_string(),
        }
    }

    /// On-disk size of this entry (header + name, 4-byte aligned).
    pub fn on_disk_size(&self) -> usize {
        entry_size(self.name.len())
    }
}

/// On-disk size of an entry with an `n`-byte name.
pub fn entry_size(n: usize) -> usize {
    (8 + n + 3) & !3
}

/// The live records of a directory block in chain order, as `(ino, ftype,
/// name bytes)` borrowed from the block — the one definition of ext3's
/// leniency.
///
/// Stops (without error) at the first malformed record: zero/unaligned
/// `rec_len`, a record running past the block end, or a `name_len` that
/// does not fit its record.
fn records(b: &Block) -> impl Iterator<Item = (u32, u8, &[u8])> {
    let mut off = 0usize;
    std::iter::from_fn(move || {
        while off + 8 <= BLOCK_SIZE {
            let at = off;
            let ino = b.get_u32(at);
            let rec_len = b.get_u16(at + 4) as usize;
            let name_len = b[at + 6] as usize;
            let ftype = b[at + 7];
            if rec_len < 8 || !rec_len.is_multiple_of(4) || at + rec_len > BLOCK_SIZE {
                break; // malformed chain: silently truncate (lenient)
            }
            if ino != 0 && 8 + name_len > rec_len {
                break; // name overruns record
            }
            off += rec_len;
            if ino != 0 {
                return Some((ino, ftype, b.get_bytes(at + 8, name_len)));
            }
        }
        None // `off` rests on the record that ended the chain
    })
}

/// Parse a directory block, leniently (see [`find_in_block`] to look for
/// one name without building the listing).
///
/// Names decode as lossy UTF-8: a corrupted name is still "a name" to
/// ext3.
pub fn parse_block(b: &Block) -> Vec<RawDirEntry> {
    records(b)
        .map(|(ino, ftype, name)| RawDirEntry {
            ino,
            ftype,
            name: String::from_utf8_lossy(name).into_owned(),
        })
        .collect()
}

/// The first entry of a directory block named `name`, with
/// [`parse_block`]'s leniency and name decoding but nothing allocated
/// until it is found.
pub fn find_in_block(b: &Block, name: &str) -> Option<RawDirEntry> {
    records(b)
        .find(|(_, _, raw)| String::from_utf8_lossy(raw) == name)
        .map(|(ino, ftype, _)| RawDirEntry {
            ino,
            ftype,
            name: name.to_string(),
        })
}

/// Pack entries into a single block. Returns `None` if they do not fit.
pub fn pack_block(entries: &[RawDirEntry]) -> Option<Block> {
    let used: usize = entries.iter().map(RawDirEntry::on_disk_size).sum();
    if used > BLOCK_SIZE {
        return None;
    }
    let mut b = Block::zeroed();
    if entries.is_empty() {
        // One hole record spanning the block.
        b.put_u32(0, 0);
        b.put_u16(4, BLOCK_SIZE as u16);
        return Some(b);
    }
    let mut off = 0usize;
    for (i, e) in entries.iter().enumerate() {
        let last = i == entries.len() - 1;
        let size = if last {
            BLOCK_SIZE - off
        } else {
            e.on_disk_size()
        };
        b.put_u32(off, e.ino);
        b.put_u16(off + 4, size as u16);
        b[off + 6] = e.name.len() as u8;
        b[off + 7] = e.ftype;
        b.put_bytes(off + 8, e.name.as_bytes());
        off += size;
    }
    Some(b)
}

/// Greedily pack entries into as many blocks as needed.
pub fn pack_blocks(entries: &[RawDirEntry]) -> Vec<Block> {
    let mut blocks = Vec::new();
    let mut current: Vec<RawDirEntry> = Vec::new();
    let mut used = 0usize;
    for e in entries {
        let sz = e.on_disk_size();
        if used + sz > BLOCK_SIZE {
            blocks.push(pack_block(&current).expect("tracked size fits"));
            current.clear();
            used = 0;
        }
        used += sz;
        current.push(e.clone());
    }
    blocks.push(pack_block(&current).expect("tracked size fits"));
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(names: &[&str]) -> Vec<RawDirEntry> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| RawDirEntry::new(i as u32 + 10, FileType::Regular, n))
            .collect()
    }

    #[test]
    fn pack_parse_round_trip() {
        let es = entries(&["alpha", "b", "a-much-longer-name.txt"]);
        let block = pack_block(&es).unwrap();
        assert_eq!(parse_block(&block), es);
    }

    #[test]
    fn empty_block_parses_empty() {
        let block = pack_block(&[]).unwrap();
        assert!(parse_block(&block).is_empty());
        assert!(parse_block(&Block::zeroed()).is_empty());
    }

    #[test]
    fn corrupted_rec_len_truncates_silently() {
        let es = entries(&["one", "two", "three"]);
        let mut block = pack_block(&es).unwrap();
        // Corrupt the second record's rec_len (first is 12 bytes: name "one").
        block.put_u16(entry_size(3) + 4, 3); // unaligned, < 8
        let parsed = parse_block(&block);
        assert_eq!(parsed.len(), 1, "parsing stops at corruption, no error");
        assert_eq!(parsed[0].name, "one");
    }

    #[test]
    fn multi_block_packing() {
        // 300 entries with 20-byte names won't fit one block.
        let names: Vec<String> = (0..300).map(|i| format!("file-{i:015}")).collect();
        let refs: Vec<RawDirEntry> = names
            .iter()
            .map(|n| RawDirEntry::new(5, FileType::Regular, n))
            .collect();
        let blocks = pack_blocks(&refs);
        assert!(blocks.len() > 1);
        let mut parsed = Vec::new();
        for b in &blocks {
            parsed.extend(parse_block(b));
        }
        assert_eq!(parsed.len(), 300);
        assert_eq!(parsed[299].name, names[299]);
    }

    #[test]
    fn entry_size_is_aligned() {
        assert_eq!(entry_size(0), 8);
        assert_eq!(entry_size(1), 12);
        assert_eq!(entry_size(4), 12);
        assert_eq!(entry_size(5), 16);
        for n in 0..64 {
            assert_eq!(entry_size(n) % 4, 0);
        }
    }

    #[test]
    fn ftype_codes_round_trip() {
        for t in [FileType::Regular, FileType::Directory, FileType::Symlink] {
            assert_eq!(ftype_from_code(ftype_code(t)), t);
        }
        assert_eq!(ftype_from_code(99), FileType::Regular);
    }

    /// `parse_block` as it was before it and `find_in_block` shared
    /// `records`: the reference both are held to.
    fn parse_block_reference(b: &Block) -> Vec<RawDirEntry> {
        let mut out = Vec::new();
        let mut off = 0usize;
        while off + 8 <= BLOCK_SIZE {
            let ino = b.get_u32(off);
            let rec_len = b.get_u16(off + 4) as usize;
            let name_len = b[off + 6] as usize;
            let ftype = b[off + 7];
            if rec_len < 8 || !rec_len.is_multiple_of(4) || off + rec_len > BLOCK_SIZE {
                break;
            }
            if ino != 0 {
                if 8 + name_len > rec_len {
                    break;
                }
                let name = String::from_utf8_lossy(b.get_bytes(off + 8, name_len)).into_owned();
                out.push(RawDirEntry { ino, ftype, name });
            }
            off += rec_len;
        }
        out
    }

    /// `parse_block` against the reference, and `find_in_block` against a
    /// search of the reference listing, for every name the block holds (as
    /// parsed, so lossy names too) and some it does not.
    fn assert_find_agrees(b: &Block, extra: &[String]) {
        let listing = parse_block_reference(b);
        assert_eq!(parse_block(b), listing);
        let present = listing.iter().map(|e| e.name.clone());
        for name in present.chain(extra.iter().cloned()) {
            let expected = listing.iter().find(|e| e.name == name).cloned();
            assert_eq!(find_in_block(b, &name), expected, "name {name:?}");
        }
    }

    #[test]
    fn find_in_block_agrees_with_parse_block_on_packed_and_corrupted_blocks() {
        use iron_testkit::gen;
        // A packed block drawn from a seed, then 0–8 bytes of it overwritten:
        // zero or unaligned `rec_len`, overrunning `name_len`, zeroed `ino`,
        // invalid UTF-8 in a name — whatever the positions hit.
        let hits = gen::vec_of((gen::usize_in(0..BLOCK_SIZE), gen::u8_any()), 0..9);
        let cases = (gen::u64_in(0..u64::MAX), hits);
        iron_testkit::check(
            "find_in_block_agrees_with_parse_block_on_packed_and_corrupted_blocks",
            iron_testkit::Config::cases(256),
            &cases,
            |(seed, hits)| {
                let mut rng = iron_testkit::Rng::from_seed(*seed);
                let names: Vec<String> = (0..rng.range(0, 120))
                    .map(|i| format!("{i}-{}", "n".repeat(rng.range(0, 24))))
                    .collect();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                let mut block = pack_block(&entries(&refs)).expect("120 short names fit");
                let mut extra = names.clone();
                extra.extend(["".to_string(), "absent".to_string(), "\u{FFFD}".to_string()]);
                assert_find_agrees(&block, &extra);
                // Aim half the hits at record headers, where they do the most.
                for (i, &(at, byte)) in hits.iter().enumerate() {
                    let at = if i % 2 == 0 { at % 64 } else { at };
                    block[at] = byte;
                }
                assert_find_agrees(&block, &extra);
            },
        );
    }

    #[test]
    fn find_in_block_keeps_each_of_parse_blocks_stop_conditions() {
        let es = entries(&["one", "two", "three"]);
        let second = entry_size(3);
        let packed = pack_block(&es).unwrap();
        assert_eq!(find_in_block(&packed, "three"), Some(es[2].clone()));

        let mut zero_rec_len = packed.clone();
        zero_rec_len.put_u16(second + 4, 0);
        let mut name_overrun = packed.clone();
        name_overrun[second + 6] = 200;
        for b in [&zero_rec_len, &name_overrun] {
            assert_eq!(find_in_block(b, "one"), Some(es[0].clone()));
            assert_eq!(
                find_in_block(b, "two"),
                None,
                "the chain ends at the bad record"
            );
            assert_eq!(find_in_block(b, "three"), None);
        }

        // Lossy names compare as `parse_block` would have decoded them.
        let mut bad_utf8 = packed.clone();
        bad_utf8[second + 8] = 0xFF;
        assert_eq!(find_in_block(&bad_utf8, "two"), None);
        let lossy = find_in_block(&bad_utf8, "\u{FFFD}wo").expect("found by its lossy name");
        assert_eq!(lossy, parse_block(&bad_utf8)[1]);
        assert_eq!(find_in_block(&bad_utf8, "three"), Some(es[2].clone()));
    }
}
