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
}
