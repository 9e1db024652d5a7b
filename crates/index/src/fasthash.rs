//! A fast, non-cryptographic hasher for index-internal hash tables.
//!
//! The default SipHash-1-3 of `std::collections::HashMap` is designed to
//! resist HashDoS, which the index's internal tables (keyed by Dewey ids and
//! interned term ids we generate ourselves) do not need; a multiply-xor
//! hasher in the style of rustc's FxHash is substantially faster on these hot
//! paths. Implemented here rather than pulled in as a dependency to keep the
//! approved dependency set minimal.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the fast hasher.
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the fast hasher.
pub type FastSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;
const FINISH_ROTATE: u32 = 26;

/// The FxHash mixing function: rotate, xor, multiply per word.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    // chunks_exact(8) yields exactly-8-byte slices, so the conversion cannot
    // fail (also entered in xtask/lint-allow.toml).
    #[allow(clippy::expect_used)]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("chunk of 8")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    /// The multiply leaves its best-mixed bits at the top of the word, while
    /// hashbrown picks the bucket from the low bits. Rotating the high bits
    /// down (as rustc-hash 2 does) keeps keys that differ only in one
    /// 8-byte word — a Dewey key's `[doc, step0]` pair — from clustering.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FINISH_ROTATE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
        // Padding in the tail must not collapse distinct lengths.
        assert_ne!(hash_of(&[1u8].as_slice()), hash_of(&[1u8, 0].as_slice()));
    }

    #[test]
    fn sequential_dewey_keys_spread_over_low_bit_buckets() {
        // 4 096 keys `[doc, a, b]` as sibling ids enumerate them; the bucket
        // is the low 12 bits of the hash, as a 4 096-bucket table uses.
        let mut buckets = std::collections::HashSet::new();
        for doc in 0..4u32 {
            for a in 0..32u32 {
                for b in 0..32u32 {
                    buckets.insert(hash_of(&[doc, a, b].as_slice()) & 0xfff);
                }
            }
        }
        assert!(buckets.len() >= 2048, "only {} of 4096 buckets used", buckets.len());
    }

    #[test]
    fn usable_as_map() {
        let mut m: FastMap<String, u32> = FastMap::default();
        m.insert("x".into(), 1);
        m.insert("y".into(), 2);
        assert_eq!(m.get("x"), Some(&1));
        assert_eq!(m.len(), 2);
    }
}
