//! The workspace's one FNV-1a implementation and its one SplitMix64
//! stream.
//!
//! Workload fingerprints ([`crate::BenchmarkSpec::fingerprint`]), shard
//! partitioning in the runtime repository, deterministic job seeds, the
//! replication digest exchange and testkit's seeded fault decisions all
//! hash through this module, so every consumer agrees bit-for-bit on what
//! a given byte sequence hashes to. [`fnv1a`] is the one-shot form;
//! [`Fnv1a`] is the streaming form for hashing composite values without
//! first materialising a buffer. [`splitmix64`] is the seeded stream
//! behind random search's sampler, the online tuner's candidate rotation
//! and testkit's scenario generator.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Stable 64-bit FNV-1a hash of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().update(bytes).finish()
}

/// Streaming FNV-1a hasher.
///
/// The builder-style `update*` methods consume and return the hasher so
/// composite hashes read as one expression:
///
/// ```
/// use kernels::hash::{fnv1a, Fnv1a};
/// let composite = Fnv1a::new().update(b"app").update_u64(7).finish();
/// assert_ne!(composite, fnv1a(b"app"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Fold `bytes` into the hash state.
    #[must_use]
    pub fn update(mut self, bytes: &[u8]) -> Self {
        for byte in bytes {
            self.state ^= u64::from(*byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Fold a `u64` into the hash state as its little-endian bytes.
    #[must_use]
    pub fn update_u64(self, value: u64) -> Self {
        self.update(&value.to_le_bytes())
    }

    /// The hash of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// One SplitMix64 step: advance `state` and return the next output of
/// the stream.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Canonical FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let one_shot = fnv1a(b"hello world");
        let streamed = Fnv1a::new().update(b"hello ").update(b"world").finish();
        assert_eq!(one_shot, streamed);
    }

    #[test]
    fn update_u64_is_little_endian_bytes() {
        let via_u64 = Fnv1a::new().update_u64(0x0102_0304_0506_0708).finish();
        let via_bytes = fnv1a(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]);
        assert_eq!(via_u64, via_bytes);
    }

    #[test]
    fn splitmix64_matches_reference_stream() {
        let mut state = 0;
        assert_eq!(splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut state), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(&mut state), 0x06c4_5d18_8009_454f);
    }
}
