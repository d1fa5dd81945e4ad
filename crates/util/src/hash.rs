//! Deterministic hashing for fingerprints and cache keys.
//!
//! `std::hash::DefaultHasher` is seeded per process via `RandomState`, so
//! its output cannot serve as a persistent fingerprint. FNV-1a is small,
//! fast for short keys, and fixed forever — every fingerprint in the
//! workspace (program structure, predicate catalogs, ground truths,
//! intervention-cache keys) routes through this one implementation so the
//! domains can never silently diverge.

/// Incremental 64-bit FNV-1a hasher.
#[derive(Clone, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Feeds one little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Lets structural types fingerprint through `#[derive(Hash)]` instead of
/// through a rendered text: `value.hash(&mut fnv)` feeds the same FNV-1a
/// state the inherent methods do.
impl std::hash::Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        Fnv1a::write(self, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"foo").write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        let mut a = Fnv1a::new();
        a.write_u64(7);
        assert_eq!(a.finish(), fnv1a(&7u64.to_le_bytes()));
    }

    #[test]
    fn hasher_impl_matches_inherent_methods() {
        use std::hash::Hasher;
        let mut inherent = Fnv1a::new();
        inherent.write(b"foo").write(b"bar");
        let mut hasher = Fnv1a::new();
        Hasher::write(&mut hasher, b"foo");
        Hasher::write(&mut hasher, b"bar");
        assert_eq!(Hasher::finish(&hasher), inherent.finish());
        assert_eq!(Hasher::finish(&hasher), fnv1a(b"foobar"));
    }
}
