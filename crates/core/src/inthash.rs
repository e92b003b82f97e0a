//! A fixed multiply-shift hasher for the runtime's integer-keyed maps.
//!
//! CALL and REF sets, pointer-name maps, the function registry and the
//! per-module indirect-call counters are keyed by addresses and dense
//! ids that the kernel assigns, not by attacker-chosen strings, so they
//! need no keyed SipHash. One multiply per word mixes a key; the final
//! rotation moves the product's well-mixed high bits down to where
//! `HashMap` takes its bucket index, so 16-byte-aligned function
//! addresses do not all share their low bits' bucket.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (as in `rustc-hash`).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A word-at-a-time multiply hasher; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Builds [`IntHasher`]s (every map starts from the same state).
pub type BuildIntHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` keyed by integers or integer ids, hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildIntHasher>;

/// A `HashSet` of integers or integer ids, hashed by [`IntHasher`].
pub type IntSet<T> = HashSet<T, BuildIntHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildIntHasher::default().hash_one(v)
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // Function addresses 16 bytes apart must not share a bucket in a
        // small table: their hashes' low bits differ.
        let mut low: Vec<u64> = (0..64u64)
            .map(|i| hash(0xffff_a000_00f0_0000u64 + i * 16) & 0x3f)
            .collect();
        low.sort_unstable();
        low.dedup();
        assert!(low.len() > 32, "only {} of 64 distinct buckets", low.len());
    }

    #[test]
    fn tuple_keys_depend_on_every_field() {
        assert_ne!(hash((1u32, 0x1000u64)), hash((2u32, 0x1000u64)));
        assert_ne!(hash((1u32, 0x1000u64)), hash((1u32, 0x1008u64)));
        assert_eq!(hash(7u64), hash(7u64), "fixed, unkeyed state");
    }
}
