//! Checksums used across the workspace.
//!
//! The paper's ixt3 prototype uses SHA-1 over block contents (§6.1); it is
//! the one hash every checksum in the workspace uses, ixt3's transactional
//! checksum (`Tc`) included. SHA-1 has two kernels, chosen at run time:
//!
//! * on x86-64 with the SHA extensions, it compresses all whole chunks of
//!   an input, and then its padding, in one call each with the state in
//!   registers;
//! * everywhere else (other CPUs, other architectures), the portable
//!   scalar Rust it falls back on: an unrolled SHA-1 that allocates
//!   nothing.
//!
//! The choice is `std::is_x86_feature_detected!`, which std caches; it
//! never changes a digest. The call into the hardware kernel, behind its
//! feature check, is the workspace's only `unsafe` code. Both kernels are
//! test-vectored against the published standard and compared against the
//! straight-from-the-spec form (kept under `#[cfg(test)]`), so the
//! workspace carries no external crypto dependency.
//!
//! CRC-32 ([`crc32`], scalar slice-by-8) has no library user; it stays
//! only for the benchmark's checksum-throughput row.

/// A SHA-1 digest (20 bytes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Sha1Digest(pub [u8; 20]);

impl Sha1Digest {
    /// Render as lowercase hex.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A truncated 64-bit view of the digest, used where a compact on-disk
    /// checksum field is wanted (first 8 bytes, big-endian, as SHA-1 output
    /// order).
    pub fn truncated64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("20 >= 8"))
    }
}

const SHA1_INIT: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// A SHA-1 block kernel: compresses every 64-byte chunk of its input
/// (whose length is a multiple of 64) into the state, in order.
type Sha1Blocks = fn(&mut [u32; 5], &[u8]);

/// The SHA-NI block kernel, when this CPU has the SHA extensions.
fn sha1_hw() -> Option<Sha1Blocks> {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sha") && std::is_x86_feature_detected!("sse4.1") {
        #[allow(unsafe_code)]
        fn blocks(h: &mut [u32; 5], data: &[u8]) {
            // SAFETY: `blocks` is only handed out after the check above
            // found `sha` and `sse4.1`, the features the kernel enables.
            unsafe { x86::sha1_blocks(h, data) }
        }
        return Some(blocks);
    }
    None
}

/// Compute the SHA-1 digest of `data` (FIPS 180-1).
///
/// Runs the SHA-NI kernel when the CPU has it (checked once by std and
/// cached), else the scalar one; both give the same digest.
pub fn sha1(data: &[u8]) -> Sha1Digest {
    sha1_with(sha1_hw(), data)
}

/// SHA-1 through the block kernel `hw`, or the scalar one if `None`.
///
/// All whole 64-byte chunks go to the kernel in one call, straight out of
/// `data`; only the last partial chunk is copied, into the one or two
/// padding blocks (0x80, zeros, then the 64-bit big-endian bit length) on
/// the stack, which go through a second call.
fn sha1_with(hw: Option<Sha1Blocks>, data: &[u8]) -> Sha1Digest {
    let blocks = hw.unwrap_or(sha1_blocks_scalar);
    let mut h = SHA1_INIT;
    let (whole, rest) = data.split_at(data.len() - data.len() % 64);
    blocks(&mut h, whole);

    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    // The length needs 8 bytes after the 0x80: a remainder of 56..=63
    // bytes spills it into a second block.
    let tail_len = if rest.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    blocks(&mut h, &tail[..tail_len]);

    let mut out = [0u8; 20];
    for (bytes, word) in out.chunks_exact_mut(4).zip(h) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Sha1Digest(out)
}

/// The portable block kernel: `sha1_compress` over each chunk.
fn sha1_blocks_scalar(h: &mut [u32; 5], data: &[u8]) {
    for chunk in data.chunks_exact(64) {
        sha1_compress(h, chunk.try_into().expect("64-byte chunk"));
    }
}

/// The SHA-1 compression function over one 64-byte chunk: 80 rounds
/// written out by macro, over a 16-word circular message schedule. Instead
/// of shuffling `a..e` after every round the *roles* rotate through the
/// five registers, returning to where they started every fifth round.
fn sha1_compress(h: &mut [u32; 5], chunk: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(chunk.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
    }
    let [mut a, mut b, mut c, mut d, mut e] = *h;

    // Message word `t`: loaded for the first 16 rounds, then
    // w[t] = rotl1(w[t-3] ^ w[t-8] ^ w[t-14] ^ w[t-16]) kept modulo 16.
    // `t` is a literal at every expansion, so the branch folds away (the
    // `& 15` in the load arm keeps its index in range where it is dead).
    macro_rules! word {
        ($t:expr) => {
            if $t < 16 {
                w[$t & 15]
            } else {
                w[$t & 15] = (w[($t + 13) & 15] ^ w[($t + 8) & 15] ^ w[($t + 2) & 15] ^ w[$t & 15])
                    .rotate_left(1);
                w[$t & 15]
            }
        };
    }
    macro_rules! ch {
        ($b:ident, $c:ident, $d:ident) => {
            $d ^ ($b & ($c ^ $d))
        };
    }
    macro_rules! parity {
        ($b:ident, $c:ident, $d:ident) => {
            $b ^ $c ^ $d
        };
    }
    macro_rules! maj {
        ($b:ident, $c:ident, $d:ident) => {
            ($b & $c) | ($d & ($b | $c))
        };
    }
    macro_rules! round {
        ($f:ident, $k:expr, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $t:expr) => {
            $e = $e
                .wrapping_add($a.rotate_left(5))
                .wrapping_add($f!($b, $c, $d))
                .wrapping_add($k)
                .wrapping_add(word!($t));
            $b = $b.rotate_left(30);
        };
    }
    macro_rules! five_rounds {
        ($f:ident, $k:expr, $t:expr) => {
            round!($f, $k, a, b, c, d, e, $t);
            round!($f, $k, e, a, b, c, d, $t + 1);
            round!($f, $k, d, e, a, b, c, $t + 2);
            round!($f, $k, c, d, e, a, b, $t + 3);
            round!($f, $k, b, c, d, e, a, $t + 4);
        };
    }

    five_rounds!(ch, 0x5A827999, 0);
    five_rounds!(ch, 0x5A827999, 5);
    five_rounds!(ch, 0x5A827999, 10);
    five_rounds!(ch, 0x5A827999, 15);

    five_rounds!(parity, 0x6ED9EBA1, 20);
    five_rounds!(parity, 0x6ED9EBA1, 25);
    five_rounds!(parity, 0x6ED9EBA1, 30);
    five_rounds!(parity, 0x6ED9EBA1, 35);

    five_rounds!(maj, 0x8F1BBCDC, 40);
    five_rounds!(maj, 0x8F1BBCDC, 45);
    five_rounds!(maj, 0x8F1BBCDC, 50);
    five_rounds!(maj, 0x8F1BBCDC, 55);

    five_rounds!(parity, 0xCA62C1D6, 60);
    five_rounds!(parity, 0xCA62C1D6, 65);
    five_rounds!(parity, 0xCA62C1D6, 70);
    five_rounds!(parity, 0xCA62C1D6, 75);

    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
}

/// The reflected CRC-32 polynomial (IEEE 802.3).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time: `CRC32_TABLES[0]` is
/// the classic byte-at-a-time table, and `CRC32_TABLES[k][i]` is the CRC
/// state after byte `i` followed by `k` zero bytes.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut state = i as u32;
        let mut bit = 0;
        while bit < 8 {
            state = (state >> 1) ^ (CRC32_POLY & (state & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = state;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Compute the CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of
/// `data`, as used by zlib/gzip.
///
/// Slice-by-8: eight input bytes are folded per step, one table lookup
/// each; the last `len % 8` bytes go one at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut state = 0xFFFF_FFFF;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = state ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ u32::from(byte)) & 0xFF) as usize];
    }
    state ^ 0xFFFF_FFFF
}

/// The x86-64 SHA-NI kernel. It is a safe function that enables the CPU
/// features it needs, so calling it is `unsafe` only until those features
/// are checked (`sha1_hw`). Vectors are built from `from_be_bytes` words,
/// so nothing here reads through a pointer.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Message words `4i..4i + 4` of a chunk, big-endian, word `4i` in the
    /// top lane as the SHA instructions take them.
    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn sha1_words(chunk: &[u8; 64], i: usize) -> __m128i {
        let w = |j: usize| {
            let at = 4 * (4 * i + j);
            u32::from_be_bytes(chunk[at..at + 4].try_into().expect("4 bytes")) as i32
        };
        _mm_set_epi32(w(0), w(1), w(2), w(3))
    }

    /// SHA-1 over every 64-byte chunk of `data` with the SHA-NI
    /// instructions: `sha1rnds4` does four rounds, `sha1nexte` derives
    /// the next four rounds' `e` from the state four rounds back, and
    /// `sha1msg1`/`sha1msg2` extend the message schedule four words at a
    /// time. The state stays in two registers across chunks.
    #[target_feature(enable = "sha,sse4.1")]
    pub(super) fn sha1_blocks(h: &mut [u32; 5], data: &[u8]) {
        let mut abcd = _mm_set_epi32(h[0] as i32, h[1] as i32, h[2] as i32, h[3] as i32);
        let mut e = _mm_set_epi32(h[4] as i32, 0, 0, 0);
        for chunk in data.chunks_exact(64) {
            let chunk: &[u8; 64] = chunk.try_into().expect("64-byte chunk");
            // Schedule group `k` (words 4k..4k + 4) lives in w[k % 4].
            let mut w = [0, 1, 2, 3].map(|i| sha1_words(chunk, i));
            let (abcd0, e0) = (abcd, e);
            // Group 0's `e` is the state's; every later group's comes
            // from `prev`, the state the group before it started from.
            let mut prev = abcd;
            abcd = _mm_sha1rnds4_epu32(abcd, _mm_add_epi32(e, w[0]), 0);
            macro_rules! group {
                ($k:literal, $f:literal) => {
                    if $k >= 4 {
                        w[$k % 4] = _mm_sha1msg2_epu32(
                            _mm_xor_si128(
                                _mm_sha1msg1_epu32(w[$k % 4], w[($k + 1) % 4]),
                                w[($k + 2) % 4],
                            ),
                            w[($k + 3) % 4],
                        );
                    }
                    let ew = _mm_sha1nexte_epu32(prev, w[$k % 4]);
                    prev = abcd;
                    abcd = _mm_sha1rnds4_epu32(abcd, ew, $f);
                };
            }
            group!(1, 0);
            group!(2, 0);
            group!(3, 0);
            group!(4, 0);
            group!(5, 1);
            group!(6, 1);
            group!(7, 1);
            group!(8, 1);
            group!(9, 1);
            group!(10, 2);
            group!(11, 2);
            group!(12, 2);
            group!(13, 2);
            group!(14, 2);
            group!(15, 3);
            group!(16, 3);
            group!(17, 3);
            group!(18, 3);
            group!(19, 3);
            abcd = _mm_add_epi32(abcd, abcd0);
            e = _mm_sha1nexte_epu32(prev, e0);
        }
        h[0] = _mm_extract_epi32(abcd, 3) as u32;
        h[1] = _mm_extract_epi32(abcd, 2) as u32;
        h[2] = _mm_extract_epi32(abcd, 1) as u32;
        h[3] = _mm_extract_epi32(abcd, 0) as u32;
        h[4] = _mm_extract_epi32(e, 3) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iron_testkit::gen;
    use iron_testkit::prop::{check, Config};

    /// SHA-1 as FIPS 180-1 writes it down — pad into a copy, expand the
    /// 80-word schedule, pick the round function by index. The body
    /// `sha1` had before it was unrolled, kept as its reference.
    fn reference_sha1(data: &[u8]) -> Sha1Digest {
        let mut h: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

        // Message padding: 0x80, zeros, then the 64-bit big-endian bit length.
        let bit_len = (data.len() as u64).wrapping_mul(8);
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&bit_len.to_be_bytes());

        let mut w = [0u32; 80];
        for chunk in msg.chunks_exact(64) {
            for (i, word) in chunk.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes(word.try_into().expect("4 bytes"));
            }
            for i in 16..80 {
                w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
            }
            let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
            for (i, &wi) in w.iter().enumerate() {
                let (f, k) = match i {
                    0..=19 => ((b & c) | ((!b) & d), 0x5A827999),
                    20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                    40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                    _ => (b ^ c ^ d, 0xCA62C1D6),
                };
                let tmp = a
                    .rotate_left(5)
                    .wrapping_add(f)
                    .wrapping_add(e)
                    .wrapping_add(k)
                    .wrapping_add(wi);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = tmp;
            }
            h[0] = h[0].wrapping_add(a);
            h[1] = h[1].wrapping_add(b);
            h[2] = h[2].wrapping_add(c);
            h[3] = h[3].wrapping_add(d);
            h[4] = h[4].wrapping_add(e);
        }

        let mut out = [0u8; 20];
        for (i, word) in h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Sha1Digest(out)
    }

    /// CRC-32 one bit at a time: the definition, and the reference for
    /// the table-driven `crc32`.
    fn reference_crc32(data: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFF_u32;
        for &byte in data {
            state ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (state & 1).wrapping_neg();
                state = (state >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        state ^ 0xFFFF_FFFF
    }

    /// Every SHA-1 padding boundary (55/56 and 63/64 bytes into a chunk,
    /// first and second chunk), every slice-by-8 tail length, and a block
    /// either side of 4 KiB.
    const BOUNDARY_LENGTHS: [usize; 19] = [
        0, 1, 7, 8, 9, 55, 56, 57, 63, 64, 65, 119, 120, 121, 127, 128, 4095, 4096, 4097,
    ];

    /// The scalar SHA-1 kernel (`None`), then the hardware one when this
    /// CPU has it, each with its name for a failure message.
    fn sha1_kernels() -> impl Iterator<Item = (&'static str, Option<Sha1Blocks>)> {
        std::iter::once(("scalar", None)).chain(sha1_hw().map(|k| ("hardware", Some(k))))
    }

    /// Every SHA-1 kernel, scalar and (where the CPU has it) hardware, and
    /// `crc32` equal their references on `data[..len]` for every boundary
    /// length that fits and on all of `data`.
    fn kernels_match_references(data: &[u8]) {
        let lens = BOUNDARY_LENGTHS.iter().copied().filter(|&n| n < data.len());
        for n in lens.chain([data.len()]) {
            let d = &data[..n];
            for (which, hw) in sha1_kernels() {
                let digest = sha1_with(hw, d);
                assert_eq!(digest, reference_sha1(d), "{which} sha1 at length {n}");
            }
            assert_eq!(crc32(d), reference_crc32(d), "crc32 at length {n}");
        }
    }

    fn check_kernels(name: &str, cases: u32) {
        check(name, Config::cases(cases), &gen::bytes(0..8193), |data| {
            kernels_match_references(data)
        });
    }

    #[test]
    fn kernels_match_their_references() {
        check_kernels("kernels_match_their_references", 200);
    }

    #[test]
    #[ignore = "stress lane; run with --ignored (IRON_STRESS=1 ./ci.sh)"]
    fn kernels_match_their_references_stress() {
        check_kernels("kernels_match_their_references_stress", 20_000);
    }

    // FIPS 180-1 / RFC 3174 test vectors.
    #[test]
    fn sha1_empty() {
        assert_eq!(
            sha1(b"").to_hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn sha1_abc() {
        assert_eq!(
            sha1(b"abc").to_hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn sha1_two_block_message() {
        assert_eq!(
            sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn sha1_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha1(&data).to_hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn sha1_truncated64_matches_prefix() {
        let d = sha1(b"abc");
        assert_eq!(d.truncated64(), 0xa9993e364706816a);
    }

    // Canonical CRC-32 check value.
    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_empty_is_zero() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn checksums_distinguish_single_bit_flips() {
        let base = vec![0xA5u8; 4096];
        let base_sha = sha1(&base);
        let base_crc = crc32(&base);
        for pos in [0usize, 1, 2048, 4095] {
            let mut flipped = base.clone();
            flipped[pos] ^= 0x01;
            assert_ne!(sha1(&flipped), base_sha, "sha1 missed flip at {pos}");
            assert_ne!(crc32(&flipped), base_crc, "crc32 missed flip at {pos}");
        }
    }
}
