//! The workspace's one copy of each small PRNG step and hash.
//!
//! Workload generators, fault noise, the reliability Monte-Carlo and the
//! serve protocol all want a few lines of deterministic mixing. Seeding
//! and post-processing belong to the caller; only the step lives here, so
//! every stream is bit-identical wherever it is drawn. (`iron-testkit`
//! keeps its own SplitMix64: it depends on nothing, by design.)

/// One step of SplitMix64 (Steele, Lea & Flood 2014): advance `state` and
/// return the next output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step of Marsaglia's 13/7/17 xorshift64: advance `state` (which must
/// be nonzero — zero is the generator's fixed point) and return it.
pub fn xorshift64(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// FNV-1a, 64-bit, over a byte slice.
pub fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A 64-bit content digest that reads its input a word at a time — what
/// the serve protocol puts in a read reply in place of the bytes.
///
/// Four independent lanes walk the input in 32-byte stripes, one
/// little-endian `u64` per lane per stripe: `lane = rotl((lane ^ word) *
/// ODD, 31)`. For a fixed word the step is a bijection of the lane, and
/// for a fixed lane a bijection of the word; the fold of the lanes with
/// the length, the bytewise tail (the last `len % 32` bytes) and the
/// finaliser are bijections of the running value too. So a change
/// confined to one 8-byte word — a flipped bit, a torn byte — always
/// changes the result, and the four multiply chains overlap instead of
/// waiting on each other as [`fnv1a`]'s one chain per byte does.
///
/// Not an on-disk format and not keyed: [`fnv1a`] stays the lock-shard
/// and ReiserFS name hash.
pub fn digest64(data: &[u8]) -> u64 {
    const ODD: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, x: u64| (h ^ x).wrapping_mul(ODD).rotate_left(31);
    let mut lanes: [u64; 4] = [
        0x243F_6A88_85A3_08D3,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    let mut stripes = data.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
            *lane = mix(*lane, word);
        }
    }
    let mut h = lanes.into_iter().fold(data.len() as u64, mix);
    for &b in stripes.remainder() {
        h = mix(h, u64::from(b));
    }
    // SplitMix64's output function: every input bit reaches every output bit.
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_vector() {
        // First outputs for seed 0 — the vector `iron-testkit` pins too.
        let mut s = 0;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn xorshift64_steps_and_returns_its_state() {
        let mut s = 1;
        assert_eq!(xorshift64(&mut s), 0x4082_2041);
        assert_eq!(s, 0x4082_2041);
        let mut zero = 0;
        assert_eq!(xorshift64(&mut zero), 0, "zero is the fixed point");
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
    }

    /// A deterministic filler for the digest tests (iron-serve's `payload`
    /// lives above this crate).
    fn stream(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len).map(|_| splitmix64(&mut state) as u8).collect()
    }

    #[test]
    fn digest64_literals_are_pinned() {
        // The benchmark compares replies between a parent and a change
        // build: the function must not drift unnoticed.
        assert_eq!(digest64(b""), 0xB988_1A59_2AF9_D635);
        assert_eq!(digest64(b"a"), 0xCF59_2018_0F21_3938);
        assert_eq!(digest64(&stream(42, 4096)), 0x2B6B_C730_8DF5_EB7E);
    }

    #[test]
    fn digest64_sees_every_bit_of_short_inputs() {
        for len in 0..=200usize {
            let mut data = stream(len as u64, len);
            let d0 = digest64(&data);
            for bit in 0..len * 8 {
                data[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(digest64(&data), d0, "len {len}, bit {bit}");
                data[bit / 8] ^= 1 << (bit % 8);
            }
            data.push(0);
            assert_ne!(digest64(&data), d0, "len {len}: appending a zero byte");
        }
    }

    #[test]
    fn digest64_sees_a_flipped_bit_anywhere_in_a_large_input() {
        let data = stream(7, 64 * 1024);
        let d0 = digest64(&data);
        iron_testkit::check(
            "digest64_sees_a_flipped_bit_anywhere_in_a_large_input",
            iron_testkit::Config::cases(64),
            &iron_testkit::gen::usize_in(0..64 * 1024 * 8),
            |&bit| {
                let mut flipped = data.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(digest64(&flipped), d0, "bit {bit}");
            },
        );
    }

    #[test]
    fn digest64_sees_two_aligned_blocks_swapped() {
        let data = stream(9, 8 * 4096);
        let d0 = digest64(&data);
        for (i, j) in [(0usize, 1usize), (0, 7), (2, 5), (6, 7)] {
            let mut swapped = data.clone();
            let (lo, hi) = swapped.split_at_mut(j * 4096);
            lo[i * 4096..(i + 1) * 4096].swap_with_slice(&mut hi[..4096]);
            assert_ne!(digest64(&swapped), d0, "blocks {i} and {j}");
        }
    }
}
