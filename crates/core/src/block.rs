//! Block-level primitives: fixed-size block buffers, block addresses, and
//! the type tags that make *type-aware* fault injection (§4.2) possible.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Size of a file-system block in bytes.
///
/// The paper's file systems all use 4 KiB blocks on Linux; we fix the same
/// size across every simulated file system.
pub const BLOCK_SIZE: usize = 4096;

/// Address of a block on a (simulated) disk, in units of [`BLOCK_SIZE`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// Byte offset of the start of this block on the device.
    pub fn byte_offset(self) -> u64 {
        self.0 * BLOCK_SIZE as u64
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A type tag attached to block I/O by the file system issuing it.
///
/// Each file system crate exposes a `BlockType` enum mirroring Table 4 of
/// the paper; the enum converts into a `BlockTag` (a static string such as
/// `"inode"` or `"j-commit"`) when the I/O is issued. The fault-injection
/// layer matches on these tags to fail *blocks of a specific type*, which is
/// the key idea of the paper's fingerprinting framework.
///
/// The fingerprinting crate additionally re-derives tags gray-box style by
/// walking the on-disk image, and the test suite asserts the two sources
/// agree — so tags are a convenience, not a cheat.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BlockTag(pub &'static str);

impl BlockTag {
    /// Tag used when a layer has no type information (e.g. raw device tools).
    pub const UNTYPED: BlockTag = BlockTag("untyped");
}

impl fmt::Display for BlockTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// A 4 KiB block buffer.
///
/// Stored on the heap (blocks are large) and cheaply cloneable only via
/// explicit [`Block::clone`]; dereferences to `[u8]` for byte access.
#[derive(Clone, PartialEq, Eq)]
pub struct Block(Box<[u8; BLOCK_SIZE]>);

impl Block {
    /// An all-zero block.
    pub fn zeroed() -> Self {
        Block(Box::new([0u8; BLOCK_SIZE]))
    }

    /// A block filled with the given byte (useful in tests).
    pub fn filled(byte: u8) -> Self {
        Block(Box::new([byte; BLOCK_SIZE]))
    }

    /// Build a block from a slice of at most [`BLOCK_SIZE`] bytes; the tail
    /// is zero-filled.
    ///
    /// # Panics
    /// Panics if `data` is longer than [`BLOCK_SIZE`].
    pub fn from_bytes(data: &[u8]) -> Self {
        assert!(data.len() <= BLOCK_SIZE, "slice exceeds block size");
        let mut b = Block::zeroed();
        b.0[..data.len()].copy_from_slice(data);
        b
    }

    /// A block holding a copy of exactly one block's worth of bytes: a
    /// single 4 KiB copy, where [`Block::from_bytes`] zero-fills first.
    pub fn from_array(data: &[u8; BLOCK_SIZE]) -> Self {
        Block(Box::new(*data))
    }

    /// Read a little-endian `u16` at `off`.
    #[inline]
    pub fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.0[off..off + 2].try_into().expect("in-bounds"))
    }

    /// Read a little-endian `u32` at `off`.
    #[inline]
    pub fn get_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.0[off..off + 4].try_into().expect("in-bounds"))
    }

    /// Read a little-endian `u64` at `off`.
    #[inline]
    pub fn get_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.0[off..off + 8].try_into().expect("in-bounds"))
    }

    /// Write a little-endian `u16` at `off`.
    pub fn put_u16(&mut self, off: usize, v: u16) {
        self.0[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u32` at `off`.
    pub fn put_u32(&mut self, off: usize, v: u32) {
        self.0[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64` at `off`.
    pub fn put_u64(&mut self, off: usize, v: u64) {
        self.0[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Copy `data` into the block at `off`.
    ///
    /// # Panics
    /// Panics if the copy would run past the end of the block.
    pub fn put_bytes(&mut self, off: usize, data: &[u8]) {
        self.0[off..off + data.len()].copy_from_slice(data);
    }

    /// Borrow `len` bytes starting at `off`.
    #[inline]
    pub fn get_bytes(&self, off: usize, len: usize) -> &[u8] {
        &self.0[off..off + len]
    }

    /// True if every byte is zero.
    pub fn is_zeroed(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }

    // The block as an allocation bitmap: bit `i` is bit `i % 8` of byte
    // `i / 8`, set meaning allocated. Nothing here judges the contents (the
    // commodity file systems trust their bitmaps completely, §5.1), and an
    // index past the block panics: a caller holding one read from disk
    // checks it against its geometry first.

    /// Test bit `i`.
    pub fn bit(&self, i: u64) -> bool {
        self.0[(i / 8) as usize] & (1 << (i % 8)) != 0
    }

    /// Set bit `i` (mark allocated).
    pub fn set_bit(&mut self, i: u64) {
        self.0[(i / 8) as usize] |= 1 << (i % 8);
    }

    /// Clear bit `i` (mark free).
    pub fn clear_bit(&mut self, i: u64) {
        self.0[(i / 8) as usize] &= !(1 << (i % 8));
    }

    /// The first zero bit below `limit`, searching from `hint` and wrapping
    /// around to the bits before it (first fit with a locality goal, like
    /// ext3's goal blocks; a `hint` of 0 is plain first fit).
    pub fn first_zero_bit(&self, limit: u64, hint: u64) -> Option<u64> {
        self.first_zero_bit_masked(None, limit, hint)
    }

    /// [`Self::first_zero_bit`] of `self | mask` without building it: a bit
    /// set in `mask` is busy whatever this block says.
    pub fn first_zero_bit_masked(
        &self,
        mask: Option<&Block>,
        limit: u64,
        hint: u64,
    ) -> Option<u64> {
        let start = hint.min(limit);
        self.zero_in(mask, start, limit)
            .or_else(|| self.zero_in(mask, 0, start))
    }

    /// The first zero bit of `self | mask` in `lo..hi`, 64 bits at a step:
    /// bit `i` of the block is bit `i % 64` of the little-endian word
    /// `i / 64`, so the lowest clear bit of a word is its `trailing_ones`.
    fn zero_in(&self, mask: Option<&Block>, lo: u64, hi: u64) -> Option<u64> {
        // Bits of the first word below `lo` count as set.
        let mut skipped = (1u64 << (lo % 64)) - 1;
        let mut base = lo - lo % 64;
        while base < hi {
            let at = (base / 8) as usize;
            let word = self.get_u64(at) | mask.map_or(0, |m| m.get_u64(at)) | skipped;
            if word != u64::MAX {
                let i = base + u64::from(word.trailing_ones());
                return (i < hi).then_some(i);
            }
            skipped = 0;
            base += 64;
        }
        None
    }

    /// XOR `other` into this block, a word at a time (parity, §6.1).
    pub fn xor_with(&mut self, other: &Block) {
        for (d, s) in self.0.chunks_exact_mut(8).zip(other.0.chunks_exact(8)) {
            let x = u64::from_ne_bytes((&*d).try_into().expect("8 bytes"))
                ^ u64::from_ne_bytes(s.try_into().expect("8 bytes"));
            d.copy_from_slice(&x.to_ne_bytes());
        }
    }
}

impl Default for Block {
    fn default() -> Self {
        Block::zeroed()
    }
}

impl Deref for Block {
    type Target = [u8; BLOCK_SIZE];
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for Block {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nonzero = self.0.iter().filter(|&&b| b != 0).count();
        write!(f, "Block({nonzero} nonzero bytes)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iron_testkit::prop::{check, Config};
    use iron_testkit::{gen, Rng};

    #[test]
    fn zeroed_block_is_zero() {
        let b = Block::zeroed();
        assert!(b.is_zeroed());
        assert_eq!(b.len(), BLOCK_SIZE);
    }

    #[test]
    fn little_endian_round_trips() {
        let mut b = Block::zeroed();
        b.put_u16(0, 0xBEEF);
        b.put_u32(2, 0xDEADBEEF);
        b.put_u64(6, 0x0123_4567_89AB_CDEF);
        assert_eq!(b.get_u16(0), 0xBEEF);
        assert_eq!(b.get_u32(2), 0xDEADBEEF);
        assert_eq!(b.get_u64(6), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn bits_set_test_clear() {
        let mut b = Block::zeroed();
        assert!(!b.bit(0));
        for i in [0, 7, 8, 1023] {
            b.set_bit(i);
            assert!(b.bit(i));
        }
        assert_eq!(
            (b[0], b[1], b[127]),
            (0x81, 0x01, 0x80),
            "bit i % 8 of byte i / 8"
        );
        assert!(!b.bit(9));
        b.clear_bit(7);
        assert!(!b.bit(7));
        assert!(b.bit(8), "neighbors untouched");
    }

    #[test]
    fn first_zero_bit_respects_limit_and_hint() {
        let mut b = Block::zeroed();
        for i in 0..10 {
            b.set_bit(i);
        }
        assert_eq!(b.first_zero_bit(1024, 0), Some(10));
        // Hint skips ahead…
        assert_eq!(b.first_zero_bit(1024, 100), Some(100));
        // …but wraps around when the tail is full.
        let mut c = Block::zeroed();
        for i in 5..1024 {
            c.set_bit(i);
        }
        assert_eq!(c.first_zero_bit(1024, 500), Some(0));
        // A full bitmap yields None, whatever lies past the limit.
        let mut full = Block::zeroed();
        for i in 0..64 {
            full.set_bit(i);
        }
        assert_eq!(full.first_zero_bit(64, 0), None);
        assert_eq!(full.first_zero_bit(64, 9999), None);
    }

    /// The search one bit per step: the body `first_zero_bit` had before it
    /// went word-wise, kept as its reference.
    fn reference_first_zero_bit(b: &Block, limit: u64, hint: u64) -> Option<u64> {
        let start = hint.min(limit);
        (start..limit).chain(0..start).find(|&i| !b.bit(i))
    }

    /// A bitmap of the given shape: all ones, all zeros, all ones but one
    /// hole, or random bytes thinned or thickened to a random density.
    fn bitmap(shape: u8, rng: &mut Rng) -> Block {
        let mut b = Block::zeroed();
        match shape {
            0 => b = Block::filled(0xFF),
            1 => {}
            2 => {
                b = Block::filled(0xFF);
                b.clear_bit(rng.below(BLOCK_SIZE as u64 * 8));
            }
            _ => {
                let density = rng.below(4);
                for byte in b.iter_mut() {
                    let (x, y, z) = (rng.next_u32(), rng.next_u32(), rng.next_u32());
                    *byte = match density {
                        0 => x & y & z,
                        1 => x,
                        2 => x | y,
                        _ => x | y | z,
                    } as u8;
                }
            }
        }
        b
    }

    /// Word-wise ≡ bit-wise: for a bitmap and a mask of the given shapes
    /// and a `limit`, hints below, at and past the limit give the
    /// reference's answer — plain, and masked against the materialised
    /// `bitmap | mask` — and `xor_with` equals the byte loop.
    fn searches_match_reference(shape: u8, mask_shape: u8, seed: u64, limit: u64) {
        let mut rng = Rng::from_seed(seed);
        let b = bitmap(shape, &mut rng);
        let mask = bitmap(mask_shape, &mut rng);
        let mut merged = b.clone();
        for (m, x) in merged.iter_mut().zip(mask.iter()) {
            *m |= x;
        }
        let hints = [
            0,
            rng.below(limit.max(1)),
            limit.saturating_sub(1),
            limit,
            limit + 1 + rng.below(100),
        ];
        for hint in hints {
            assert_eq!(
                b.first_zero_bit(limit, hint),
                reference_first_zero_bit(&b, limit, hint),
                "limit {limit} hint {hint}"
            );
            assert_eq!(
                b.first_zero_bit_masked(Some(&mask), limit, hint),
                reference_first_zero_bit(&merged, limit, hint),
                "masked, limit {limit} hint {hint}"
            );
        }

        let mut xored = b.clone();
        xored.xor_with(&mask);
        let bytewise: Vec<u8> = b.iter().zip(mask.iter()).map(|(x, y)| x ^ y).collect();
        assert_eq!(xored[..], bytewise[..]);
    }

    #[test]
    fn word_wise_search_matches_the_bit_wise_reference() {
        // Limits around every word boundary near both ends of the block,
        // on every pair of shapes.
        let bits = BLOCK_SIZE as u64 * 8;
        for limit in [
            0,
            1,
            63,
            64,
            65,
            127,
            128,
            bits - 65,
            bits - 64,
            bits - 1,
            bits,
        ] {
            for shape in 0..4 {
                for mask_shape in 0..4 {
                    searches_match_reference(shape, mask_shape, limit ^ 0x5EED, limit);
                }
            }
        }
        let inputs = (
            gen::u8_in(0..4),
            gen::u8_in(0..4),
            gen::u64_in(0..u64::MAX),
            gen::u64_in(0..bits + 1),
        );
        check(
            "word_wise_search_matches_the_bit_wise_reference",
            Config::cases(300),
            &inputs,
            |&(shape, mask_shape, seed, limit)| {
                searches_match_reference(shape, mask_shape, seed, limit)
            },
        );
    }

    #[test]
    #[should_panic]
    fn a_search_running_past_the_block_panics() {
        let _ = Block::filled(0xFF).first_zero_bit(BLOCK_SIZE as u64 * 8 + 1, 0);
    }

    #[test]
    fn put_get_bytes_round_trip() {
        let mut b = Block::zeroed();
        b.put_bytes(100, b"iron file systems");
        assert_eq!(b.get_bytes(100, 17), b"iron file systems");
        assert!(!b.is_zeroed());
    }

    #[test]
    fn from_bytes_zero_fills_tail() {
        let b = Block::from_bytes(&[1, 2, 3]);
        assert_eq!(&b[..3], &[1, 2, 3]);
        assert!(b[3..].iter().all(|&x| x == 0));
    }

    #[test]
    fn from_array_copies_every_byte() {
        let mut page = [0u8; BLOCK_SIZE];
        page[0] = 9;
        page[BLOCK_SIZE - 1] = 7;
        let b = Block::from_array(&page);
        assert_eq!(*b, page);
    }

    #[test]
    #[should_panic(expected = "slice exceeds block size")]
    fn from_bytes_rejects_oversized() {
        let big = vec![0u8; BLOCK_SIZE + 1];
        let _ = Block::from_bytes(&big);
    }

    #[test]
    fn block_addr_byte_offset() {
        assert_eq!(BlockAddr(3).byte_offset(), 3 * 4096);
        assert_eq!(format!("{}", BlockAddr(7)), "#7");
    }

    #[test]
    fn tag_display() {
        assert_eq!(format!("{}", BlockTag("inode")), "inode");
        assert_eq!(BlockTag::UNTYPED.0, "untyped");
    }
}
