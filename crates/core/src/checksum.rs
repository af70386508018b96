//! Checksums used across the workspace.
//!
//! The paper's ixt3 prototype uses SHA-1 over block contents (§6.1); CRC32
//! is the whole-transaction pass inside ixt3's transactional checksum
//! (`Tc`) and has no other user. Each has two kernels, chosen at run time:
//!
//! * on x86-64 with the SHA extensions, SHA-1 compresses all whole chunks
//!   of an input, and then its padding, in one call each with the state in
//!   registers; with PCLMULQDQ, CRC-32 folds an input of at least 64 bytes
//!   by carry-less multiplies down to its last `len % 16` bytes;
//! * everywhere else (other CPUs, other architectures, and CRC-32's short
//!   inputs and tails), the portable scalar Rust they fall back on: an
//!   unrolled SHA-1 that allocates nothing and a slice-by-8 CRC-32.
//!
//! The choice is `std::is_x86_feature_detected!`, which std caches; it
//! never changes a digest or a CRC. The two calls into the hardware
//! kernels, each behind its feature check, are the workspace's only
//! `unsafe` code. Every kernel is test-vectored against the published
//! standards and compared against the straight-from-the-spec forms (kept
//! under `#[cfg(test)]`), so the workspace carries no external crypto
//! dependency.

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

/// A CRC-32 fold kernel: `crc32_update` over an input of at least 64
/// bytes whose length is a multiple of 16.
type Crc32Fold = fn(u32, &[u8]) -> u32;

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

/// The carry-less-multiply fold kernel, when this CPU has PCLMULQDQ.
fn crc32_hw() -> Option<Crc32Fold> {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1") {
        #[allow(unsafe_code)]
        fn fold(state: u32, data: &[u8]) -> u32 {
            // SAFETY: `fold` is only handed out after the check above
            // found `pclmulqdq` and `sse4.1`, the features the kernel
            // enables.
            unsafe { x86::crc32_fold(state, data) }
        }
        return Some(fold);
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
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental CRC-32 update. `state` starts as `0xFFFF_FFFF`; the final
/// checksum is `state ^ 0xFFFF_FFFF`.
///
/// On a CPU with PCLMULQDQ (checked once by std and cached), an input of
/// at least 64 bytes is folded with carry-less multiplies down to its last
/// `len % 16` bytes; everything else goes through the portable slice-by-8.
/// Both give the same CRC.
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    crc32_update_with(crc32_hw(), state, data)
}

/// `crc32_update` through the fold kernel `hw`, or slice-by-8 alone if
/// `None`.
fn crc32_update_with(hw: Option<Crc32Fold>, state: u32, data: &[u8]) -> u32 {
    match hw {
        Some(fold) if data.len() >= 64 => {
            let (body, tail) = data.split_at(data.len() - data.len() % 16);
            crc32_slice8(fold(state, body), tail)
        }
        _ => crc32_slice8(state, data),
    }
}

/// Slice-by-8: eight input bytes are folded per step, one table lookup
/// each; the last `len % 8` bytes go one at a time.
fn crc32_slice8(mut state: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
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
    state
}

/// The x86-64 kernels. Each is a safe function that enables the CPU
/// features it needs, so calling one is `unsafe` only until those features
/// are checked (`sha1_hw`, `crc32_hw`). Vectors are built from
/// `from_be_bytes`/`from_le_bytes` words, so nothing here reads through a
/// pointer.
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

    /// Sixteen input bytes as two little-endian words, the first low.
    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn crc32_lane(bytes: &[u8]) -> __m128i {
        let q = |at: usize| i64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        _mm_set_epi64x(q(8), q(0))
    }

    /// `x` carried 128 bits further along the message by the constant
    /// pair `k` (low word times `k`'s low, high word times `k`'s high).
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn crc32_fold_by(x: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128(x, k, 0x00),
            _mm_clmulepi64_si128(x, k, 0x11),
        )
    }

    /// The reflected CRC-32 over `data` (at least 64 bytes, a multiple
    /// of 16) with carry-less multiplies, after Intel's "Fast CRC
    /// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
    /// (Gopal et al., 2009), with its constants for `0xEDB88320` (also
    /// Linux's `crc32-pclmul`): fold four 128-bit lanes by 512 bits per
    /// 64-byte step, fold them into one, fold each remaining 16 bytes by
    /// 128 bits, take 128 bits down to 64, then a bit-reflected Barrett
    /// reduction to 32.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32_fold(state: u32, data: &[u8]) -> u32 {
        // Each fold constant is (x^n mod P) << 32, bit-reflected and
        // shifted left by one, as the paper derives them.
        // n = 4*128+32 (low) and 4*128-32 (high).
        let k1k2 = _mm_set_epi64x(0x1_c6e4_1596, 0x1_5444_2bd4);
        // n = 128+32 (low) and 128-32 (high).
        let k3k4 = _mm_set_epi64x(0x0_ccaa_009e, 0x1_7519_97d0);
        // n = 64.
        let k5 = _mm_set_epi64x(0, 0x1_63cd_6124);
        // P' (low) and the Barrett constant mu' (high), both reflected.
        let poly_mu = _mm_set_epi64x(0x1_f701_1641, 0x1_db71_0641);
        let low32 = _mm_set_epi64x(0, 0xffff_ffff);

        let mut lines = data.chunks_exact(64);
        let first = lines.next().expect("at least 64 bytes");
        let lane = |line: &[u8], i: usize| crc32_lane(&line[16 * i..16 * i + 16]);
        let mut x = [0, 1, 2, 3].map(|i| lane(first, i));
        x[0] = _mm_xor_si128(x[0], _mm_set_epi64x(0, i64::from(state)));
        for line in &mut lines {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = _mm_xor_si128(crc32_fold_by(*xi, k1k2), lane(line, i));
            }
        }
        let mut acc = x[0];
        for &xi in &x[1..] {
            acc = _mm_xor_si128(crc32_fold_by(acc, k3k4), xi);
        }
        for rest in lines.remainder().chunks_exact(16) {
            acc = _mm_xor_si128(crc32_fold_by(acc, k3k4), crc32_lane(rest));
        }

        // 128 bits to 96: the low word times x^(128-32) into the high.
        acc = _mm_xor_si128(
            _mm_srli_si128(acc, 8),
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
        );
        // 96 bits to 64: the low 32 bits times x^64 into the rest.
        acc = _mm_xor_si128(
            _mm_srli_si128(acc, 4),
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00),
        );
        // Barrett: q = floor(low32 * mu'), then acc ^ q * P' leaves the
        // remainder in bits 32..64.
        let q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), poly_mu, 0x10);
        let qp = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(acc, qp), 1) as u32
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
    /// the table-driven `crc32_update`.
    fn reference_crc32_update(mut state: u32, data: &[u8]) -> u32 {
        for &byte in data {
            state ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (state & 1).wrapping_neg();
                state = (state >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        state
    }

    fn reference_crc32(data: &[u8]) -> u32 {
        reference_crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// Every SHA-1 padding boundary (55/56 and 63/64 bytes into a chunk,
    /// first and second chunk), every slice-by-8 tail length, the CRC
    /// fold's edges (64 bytes, one 64-byte step plus 15/16/17 bytes, two
    /// steps plus 15/16/17, one 16-byte tail either side of 4 KiB), and a
    /// block either side of 4 KiB.
    const BOUNDARY_LENGTHS: [usize; 27] = [
        0, 1, 7, 8, 9, 55, 56, 57, 63, 64, 65, 79, 80, 81, 119, 120, 121, 127, 128, 143, 144, 145,
        4095, 4096, 4097, 4111, 4112,
    ];

    /// The scalar kernel (`None`), then the hardware one when this CPU
    /// has it, each with its name for a failure message.
    fn kernels<T>(hw: Option<T>) -> impl Iterator<Item = (&'static str, Option<T>)> {
        std::iter::once(("scalar", None)).chain(hw.map(|k| ("hardware", Some(k))))
    }

    /// Every kernel, scalar and (where the CPU has it) hardware, equals
    /// its reference on `data[..len]` for every boundary length that fits
    /// and on all of `data`; `crc32_update` fed `data` in the pieces
    /// `cuts` delimit equals the reference, and so does a split whose
    /// pieces straddle the 64-byte fold threshold.
    fn kernels_match_references(data: &[u8], cuts: &[usize]) {
        let lens = BOUNDARY_LENGTHS.iter().copied().filter(|&n| n < data.len());
        for n in lens.chain([data.len()]) {
            let d = &data[..n];
            for (which, hw) in kernels(sha1_hw()) {
                let digest = sha1_with(hw, d);
                assert_eq!(digest, reference_sha1(d), "{which} sha1 at length {n}");
            }
            for (which, hw) in kernels(crc32_hw()) {
                let crc = crc32_update_with(hw, 0xFFFF_FFFF, d) ^ 0xFFFF_FFFF;
                assert_eq!(crc, reference_crc32(d), "{which} crc32 at length {n}");
            }
        }
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        // Pieces of 63, 1, 64, 65 bytes and the rest: below, at and above
        // the threshold, each fold starting from a state mid-stream.
        let straddle = [63, 64, 128, 193].map(|c: usize| c.min(data.len()));
        for cuts in [&cuts[..], &straddle[..]] {
            for (which, hw) in kernels(crc32_hw()) {
                let mut state = 0xFFFF_FFFF;
                let mut from = 0;
                for &to in cuts.iter().chain([&data.len()]) {
                    state = crc32_update_with(hw, state, &data[from..to]);
                    from = to;
                }
                let crc = state ^ 0xFFFF_FFFF;
                assert_eq!(
                    crc,
                    reference_crc32(data),
                    "{which} crc32 split at {cuts:?}"
                );
            }
        }
    }

    fn check_kernels(name: &str, cases: u32) {
        let inputs = (
            gen::bytes(0..8193),
            gen::vec_of(gen::usize_in(0..8193), 1..5),
        );
        check(name, Config::cases(cases), &inputs, |(data, cuts)| {
            kernels_match_references(data, cuts)
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
    fn crc32_incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let oneshot = crc32(data);
        let mut st = 0xFFFF_FFFF;
        for chunk in data.chunks(7) {
            st = crc32_update(st, chunk);
        }
        assert_eq!(st ^ 0xFFFF_FFFF, oneshot);
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
