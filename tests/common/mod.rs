//! Helpers shared by the integration suites that pin recorded hashes.

/// FNV-1a, 64-bit: the hash every recorded golden hash is taken with.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
