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

use std::ops::Range;

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

/// The first entry of a directory block named `name`, as `(ino, ftype)`,
/// with [`Listing::read_block`]'s leniency and name decoding but nothing
/// allocated for a valid UTF-8 name.
pub fn find_in_block(b: &Block, name: &str) -> Option<(u32, u8)> {
    records(b)
        .find(|(_, _, raw)| String::from_utf8_lossy(raw) == name)
        .map(|(ino, ftype, _)| (ino, ftype))
}

/// One entry of a [`Listing`]: its name is `names[name]`.
#[derive(Debug)]
struct Entry {
    ino: u32,
    ftype: u8,
    name: Range<usize>,
}

/// A directory's live entries in chain order, every name in one buffer:
/// what `create`, `unlink` and `rename` edit and pack back, and what
/// `readdir` and fsck read.
///
/// Names decode as lossy UTF-8 — a corrupted name is still "a name" to
/// ext3 — and pack back as decoded, with `name_len` the decoded length
/// cut to its byte.
#[derive(Debug, Default)]
pub struct Listing {
    names: String,
    entries: Vec<Entry>,
}

impl Listing {
    /// Append the live records of one directory block, leniently.
    pub fn read_block(&mut self, b: &Block) {
        for (ino, ftype, raw) in records(b) {
            let start = self.names.len();
            // `String::from_utf8_lossy`, written into the buffer.
            for chunk in raw.utf8_chunks() {
                self.names.push_str(chunk.valid());
                if !chunk.invalid().is_empty() {
                    self.names.push(char::REPLACEMENT_CHARACTER);
                }
            }
            let name = start..self.names.len();
            self.entries.push(Entry { ino, ftype, name });
        }
    }

    /// Append an entry; `ftype` is the on-disk code ([`ftype_code`]).
    pub fn push(&mut self, ino: u32, ftype: u8, name: &str) {
        let start = self.names.len();
        self.names.push_str(name);
        let name = start..self.names.len();
        self.entries.push(Entry { ino, ftype, name });
    }

    /// Drop every entry named `name`.
    pub fn remove(&mut self, name: &str) {
        let names = &self.names;
        self.entries.retain(|e| &names[e.name.clone()] != name);
    }

    /// Point every entry named `name` at `ino`.
    pub fn repoint(&mut self, name: &str, ino: u32) {
        for e in &mut self.entries {
            if self.names[e.name.clone()] == *name {
                e.ino = ino;
            }
        }
    }

    /// The entries in order, as `(ino, ftype, name)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u8, &str)> + '_ {
        self.entries
            .iter()
            .map(|e| (e.ino, e.ftype, &self.names[e.name.clone()]))
    }

    /// Pack the entries greedily into as many blocks as they need, in
    /// order; each block's last record runs to the block's end, and an
    /// empty listing is one block holding a single hole record.
    pub fn pack(&self) -> Vec<Block> {
        let mut blocks = Vec::new();
        let (mut first, mut used) = (0, 0);
        for (i, e) in self.entries.iter().enumerate() {
            let size = entry_size(e.name.len());
            if used + size > BLOCK_SIZE {
                blocks.push(self.pack_block(&self.entries[first..i]));
                (first, used) = (i, 0);
            }
            used += size;
        }
        blocks.push(self.pack_block(&self.entries[first..]));
        blocks
    }

    /// One block of `entries`, which fit it.
    fn pack_block(&self, entries: &[Entry]) -> Block {
        let mut b = Block::zeroed();
        if entries.is_empty() {
            b.put_u16(4, BLOCK_SIZE as u16); // a hole record (ino 0) spanning the block
            return b;
        }
        let mut off = 0usize;
        for (i, e) in entries.iter().enumerate() {
            let name = &self.names[e.name.clone()];
            let size = if i + 1 == entries.len() {
                BLOCK_SIZE - off
            } else {
                entry_size(name.len())
            };
            b.put_u32(off, e.ino);
            b.put_u16(off + 4, size as u16);
            b[off + 6] = name.len() as u8;
            b[off + 7] = e.ftype;
            b.put_bytes(off + 8, name.as_bytes());
            off += size;
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A decoded directory entry of the reference below.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct RawDirEntry {
        ino: u32,
        ftype: u8,
        name: String,
    }

    impl RawDirEntry {
        fn new(ino: u32, ftype: FileType, name: &str) -> Self {
            let (ftype, name) = (ftype_code(ftype), name.to_string());
            RawDirEntry { ino, ftype, name }
        }
    }

    fn entries(names: &[&str]) -> Vec<RawDirEntry> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| RawDirEntry::new(i as u32 + 10, FileType::Regular, n))
            .collect()
    }

    fn listing_of(entries: &[RawDirEntry]) -> Listing {
        let mut l = Listing::default();
        for e in entries {
            l.push(e.ino, e.ftype, &e.name);
        }
        l
    }

    fn listed(l: &Listing) -> Vec<RawDirEntry> {
        l.iter()
            .map(|(ino, ftype, name)| RawDirEntry {
                ino,
                ftype,
                name: name.to_string(),
            })
            .collect()
    }

    fn read(blocks: &[&Block]) -> Listing {
        let mut l = Listing::default();
        for b in blocks {
            l.read_block(b);
        }
        l
    }

    #[test]
    fn pack_parse_round_trip() {
        let es = entries(&["alpha", "b", "a-much-longer-name.txt"]);
        let blocks = listing_of(&es).pack();
        assert_eq!(blocks.len(), 1);
        assert_eq!(listed(&read(&[&blocks[0]])), es);
    }

    #[test]
    fn empty_block_parses_empty() {
        let blocks = Listing::default().pack();
        assert_eq!(blocks.len(), 1);
        assert_eq!(listed(&read(&[&blocks[0]])), []);
        assert_eq!(listed(&read(&[&Block::zeroed()])), []);
    }

    #[test]
    fn corrupted_rec_len_truncates_silently() {
        let es = entries(&["one", "two", "three"]);
        let mut block = listing_of(&es).pack().remove(0);
        // Corrupt the second record's rec_len (first is 12 bytes: name "one").
        block.put_u16(entry_size(3) + 4, 3); // unaligned, < 8
        let parsed = listed(&read(&[&block]));
        assert_eq!(parsed.len(), 1, "parsing stops at corruption, no error");
        assert_eq!(parsed[0].name, "one");
    }

    #[test]
    fn multi_block_packing() {
        // 300 entries with 20-byte names won't fit one block.
        let names: Vec<String> = (0..300).map(|i| format!("file-{i:015}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let blocks = listing_of(&entries(&refs)).pack();
        assert!(blocks.len() > 1);
        let parsed = listed(&read(&blocks.iter().collect::<Vec<_>>()));
        assert_eq!(parsed.len(), 300);
        assert_eq!(parsed[299].name, names[299]);
    }

    #[test]
    fn removal_and_repointing_edit_every_entry_of_the_name() {
        let mut l = listing_of(&entries(&[".", "..", "x", "y", "x"]));
        l.remove("x");
        l.repoint("..", 99);
        let names: Vec<(u32, &str)> = l.iter().map(|(ino, _, n)| (ino, n)).collect();
        assert_eq!(names, [(10, "."), (99, ".."), (13, "y")]);
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

    /// The block parser as it was before `records` was shared: the
    /// reference every decoder here is held to.
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

    /// One block of entries, as the packer was before [`Listing`].
    fn pack_block_reference(entries: &[RawDirEntry]) -> Block {
        let mut b = Block::zeroed();
        if entries.is_empty() {
            b.put_u32(0, 0);
            b.put_u16(4, BLOCK_SIZE as u16);
            return b;
        }
        let mut off = 0usize;
        for (i, e) in entries.iter().enumerate() {
            let last = i == entries.len() - 1;
            let size = if last {
                BLOCK_SIZE - off
            } else {
                entry_size(e.name.len())
            };
            b.put_u32(off, e.ino);
            b.put_u16(off + 4, size as u16);
            b[off + 6] = e.name.len() as u8;
            b[off + 7] = e.ftype;
            b.put_bytes(off + 8, e.name.as_bytes());
            off += size;
        }
        b
    }

    /// Greedy packing into blocks, as it was before [`Listing`].
    fn pack_blocks_reference(entries: &[RawDirEntry]) -> Vec<Block> {
        let mut blocks = Vec::new();
        let mut current: Vec<RawDirEntry> = Vec::new();
        let mut used = 0usize;
        for e in entries {
            let sz = entry_size(e.name.len());
            if used + sz > BLOCK_SIZE {
                blocks.push(pack_block_reference(&current));
                current.clear();
                used = 0;
            }
            used += sz;
            current.push(e.clone());
        }
        blocks.push(pack_block_reference(&current));
        blocks
    }

    /// `Listing` against the references on `blocks`: it decodes what
    /// `parse_block_reference` decodes, and packs that (and that with one
    /// entry added and one removed) to the bytes `pack_blocks_reference`
    /// writes.
    fn assert_listing_agrees(blocks: &[&Block]) {
        let reference: Vec<RawDirEntry> = blocks
            .iter()
            .flat_map(|b| parse_block_reference(b))
            .collect();
        let mut l = read(blocks);
        assert_eq!(listed(&l), reference);
        assert!(
            l.pack() == pack_blocks_reference(&reference),
            "pack differs"
        );

        let mut edited = reference.clone();
        edited.push(RawDirEntry::new(7, FileType::Directory, "added"));
        l.push(7, ftype_code(FileType::Directory), "added");
        if let Some(gone) = reference.first().map(|e| e.name.clone()) {
            edited.retain(|e| e.name != gone);
            l.remove(&gone);
        }
        assert_eq!(listed(&l), edited);
        assert!(
            l.pack() == pack_blocks_reference(&edited),
            "edited pack differs"
        );
    }

    /// `find_in_block` against a search of the reference listing, for
    /// every name the block holds (as decoded, so lossy names too) and some
    /// it does not.
    fn assert_find_agrees(b: &Block, extra: &[String]) {
        let listing = parse_block_reference(b);
        let present = listing.iter().map(|e| e.name.clone());
        for name in present.chain(extra.iter().cloned()) {
            let expected = listing.iter().find(|e| e.name == name);
            let expected = expected.map(|e| (e.ino, e.ftype));
            assert_eq!(find_in_block(b, &name), expected, "name {name:?}");
        }
    }

    /// A packed block of up to 120 short names drawn from `seed`, and the
    /// names.
    fn drawn_block(seed: u64) -> (Block, Vec<String>) {
        let mut rng = iron_testkit::Rng::from_seed(seed);
        let names: Vec<String> = (0..rng.range(0, 120))
            .map(|i| format!("{i}-{}", "n".repeat(rng.range(0, 24))))
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let blocks = pack_blocks_reference(&entries(&refs));
        assert_eq!(blocks.len(), 1, "120 short names fit");
        (blocks.into_iter().next().unwrap(), names)
    }

    /// Hits aimed at a block: half of them at the record headers of its
    /// first 64 bytes, where they do the most.
    fn corrupt(block: &mut Block, hits: &[(usize, u8)]) {
        for (i, &(at, byte)) in hits.iter().enumerate() {
            let at = if i % 2 == 0 { at % 64 } else { at };
            block[at] = byte;
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
                let (mut block, names) = drawn_block(*seed);
                let mut extra = names.clone();
                extra.extend(["".to_string(), "absent".to_string(), "\u{FFFD}".to_string()]);
                assert_find_agrees(&block, &extra);
                corrupt(&mut block, hits);
                assert_find_agrees(&block, &extra);
            },
        );
    }

    /// `Listing` decodes and packs byte for byte as the old parser and
    /// packer did, over one or two blocks: packed, corrupted (broken
    /// chains, zeroed inodes, invalid UTF-8 where the hits land) and
    /// holding long non-UTF-8 names.
    #[test]
    fn listing_agrees_with_the_reference_parser_and_packer() {
        use iron_testkit::gen;
        let hits = gen::vec_of((gen::usize_in(0..BLOCK_SIZE), gen::u8_any()), 0..9);
        let cases = (gen::u64_in(0..u64::MAX), gen::u64_in(0..u64::MAX), hits);
        iron_testkit::check(
            "listing_agrees_with_the_reference_parser_and_packer",
            iron_testkit::Config::cases(256),
            &cases,
            |(seed, second, hits)| {
                let (mut block, _) = drawn_block(*seed);
                let (other, _) = drawn_block(*second);
                assert_listing_agrees(&[&block]);
                assert_listing_agrees(&[&block, &other]);
                corrupt(&mut block, hits);
                assert_listing_agrees(&[&block]);
                assert_listing_agrees(&[&other, &block]);
            },
        );
    }

    #[test]
    fn listing_packs_a_255_byte_invalid_name_as_its_lossy_form() {
        // One record: `name_len` 255, every byte invalid UTF-8, so the
        // decoded name is 255 replacement characters — 765 bytes, whose
        // length no longer fits the `name_len` byte.
        let mut block = Block::zeroed();
        block.put_u32(0, 12);
        block.put_u16(4, BLOCK_SIZE as u16);
        block[6] = 255;
        block[7] = ftype_code(FileType::Regular);
        block.put_bytes(8, &[0xFF; 255]);
        let l = read(&[&block]);
        let (_, _, name) = l.iter().next().unwrap();
        assert_eq!(name.len(), 765);
        assert_eq!(name.chars().count(), 255);
        assert_listing_agrees(&[&block]);
        let packed = l.pack();
        assert_eq!(packed[0][6], 765u16 as u8, "name_len keeps its low byte");

        // Enough of them to spill into a second block.
        let mut many = Listing::default();
        for _ in 0..6 {
            many.read_block(&block);
        }
        assert_eq!(many.pack().len(), 2);
        let reference: Vec<RawDirEntry> =
            (0..6).flat_map(|_| parse_block_reference(&block)).collect();
        assert!(many.pack() == pack_blocks_reference(&reference));
    }

    #[test]
    fn find_in_block_keeps_each_of_parse_blocks_stop_conditions() {
        let es = entries(&["one", "two", "three"]);
        let found = |i: usize| Some((es[i].ino, es[i].ftype));
        let second = entry_size(3);
        let packed = listing_of(&es).pack().remove(0);
        assert_eq!(find_in_block(&packed, "three"), found(2));

        let mut zero_rec_len = packed.clone();
        zero_rec_len.put_u16(second + 4, 0);
        let mut name_overrun = packed.clone();
        name_overrun[second + 6] = 200;
        for b in [&zero_rec_len, &name_overrun] {
            assert_eq!(find_in_block(b, "one"), found(0));
            assert_eq!(
                find_in_block(b, "two"),
                None,
                "the chain ends at the bad record"
            );
            assert_eq!(find_in_block(b, "three"), None);
        }

        // Lossy names compare as the listing decodes them.
        let mut bad_utf8 = packed.clone();
        bad_utf8[second + 8] = 0xFF;
        assert_eq!(find_in_block(&bad_utf8, "two"), None);
        let (_, _, lossy) = read(&[&bad_utf8])
            .iter()
            .nth(1)
            .map(|(i, f, n)| (i, f, n.to_string()))
            .unwrap();
        assert_eq!(lossy, "\u{FFFD}wo");
        assert_eq!(find_in_block(&bad_utf8, &lossy), found(1));
        assert_eq!(find_in_block(&bad_utf8, "three"), found(2));
    }
}
