//! Stable content hashing for cache keys.
//!
//! A server caching parsed circuits across requests (`qdd-serve`) keys them
//! by a hash of the QASM source. The hash must be deterministic across
//! processes and platforms, so it is a fixed FNV-1a rather than `std`'s
//! randomly seeded hasher.

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte string: the workspace's one deterministic,
/// dependency-free content hash for cache keys (QASM sources, histogram
/// digests). Not cryptographic — so any cache serving results by this key
/// alone would conflate colliding inputs. Callers keying shared state off
/// this hash must verify the stored source on lookup (as
/// `qdd_serve::cache` does), making a collision cost a rebuild instead of
/// a wrong answer.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }
}
