//! The workspace's one content hash: FNV-1a/64 (Fowler, Noll & Vo).
//!
//! Snapshot checksums and fingerprints, explore cache keys, artifact
//! checksums and the client's backoff jitter all hash with it. None of
//! them needs collision resistance against an adversary, only a stable,
//! platform-independent digest, and every one of them is persisted or
//! compared across runs, so the output must never change.

/// FNV-1a/64 offset basis: the seed of a fresh hash.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV1A64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a/64 over `bytes`, continuing from `seed`.
///
/// Pass [`FNV1A64_OFFSET`] to start a fresh hash; pass a previous result
/// to extend it, so `fnv1a64(b, fnv1a64(a, s))` hashes `a` then `b`.
///
/// # Example
///
/// ```
/// use ldafp_stats::{fnv1a64, FNV1A64_OFFSET};
///
/// assert_eq!(fnv1a64(b"a", FNV1A64_OFFSET), 0xaf63_dc4c_8601_ec8c);
/// let whole = fnv1a64(b"foobar", FNV1A64_OFFSET);
/// assert_eq!(fnv1a64(b"bar", fnv1a64(b"foo", FNV1A64_OFFSET)), whole);
/// ```
#[must_use]
#[inline]
pub fn fnv1a64(bytes: &[u8], seed: u64) -> u64 {
    let mut hash = seed;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV1A64_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a64_vectors() {
        assert_eq!(fnv1a64(b"", FNV1A64_OFFSET), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a", FNV1A64_OFFSET), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar", FNV1A64_OFFSET), 0x8594_4171_f739_67e8);
    }
}
