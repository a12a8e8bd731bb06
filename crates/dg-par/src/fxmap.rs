//! FxHash-style hashing for simulator hot paths.
//!
//! The simulator's inner loops hash small fixed-width keys — block
//! addresses in the coherence directory, 64-byte-aligned addresses in
//! `dg_mem::MemoryImage` — millions of times per run. `std`'s default SipHash
//! is DoS-resistant but pays for it with ~1ns+ per small key; none of
//! these maps are exposed to untrusted input, so we trade that
//! resistance for speed with the multiply-rotate hash used by the
//! Firefox and rustc codebases ("FxHash").
//!
//! The core step folds each input word into the state as
//! `state = (state.rotate_left(5) ^ word) * K` with a fixed odd 64-bit
//! constant `K`. The hash is deterministic across processes (no random
//! seed), which also helps reproducibility: iteration order of an
//! `FxHashMap` is stable for a fixed insertion sequence.

use std::hash::{BuildHasherDefault, Hasher};

/// Type alias for a `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Type alias for a `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// `BuildHasher` producing [`FxHasher`]s; zero-sized and deterministic.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The odd multiplier from the Firefox / rustc FxHash implementations:
/// `(sqrt(2) - 1) * 2^64`, truncated to an odd integer.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

const ROTATE: u32 = 5;

/// A fast, non-cryptographic, deterministic 64-bit hasher.
///
/// Not resistant to collision attacks — use only on trusted keys
/// (block addresses, small tuples), never on external input.
#[derive(Debug, Clone, Copy, Default)]
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
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_builders() {
        // No per-instance randomness: two independently built hashers
        // must agree, which is what makes map iteration reproducible.
        let a = hash_of(&0xdead_beef_u64);
        let b = hash_of(&0xdead_beef_u64);
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_nearby_block_addrs() {
        // Block addresses differ in low bits after the offset shift;
        // consecutive keys must not collide.
        let hashes: Vec<u64> = (0u64..1024).map(|addr| hash_of(&(addr << 6))).collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), hashes.len(), "collision among 1024 block addrs");
    }

    #[test]
    fn unaligned_tail_bytes_are_hashed() {
        let mut h1 = FxHasher::default();
        h1.write(b"abcdefghi"); // 8-byte chunk + 1 tail byte
        let mut h2 = FxHasher::default();
        h2.write(b"abcdefghj");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn tail_length_disambiguates_zero_padding() {
        // b"a" and b"a\0" pad to the same 8-byte word; the encoded
        // remainder length must keep them distinct.
        let mut h1 = FxHasher::default();
        h1.write(b"a");
        let mut h2 = FxHasher::default();
        h2.write(b"a\0");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut map: FxHashMap<u64, u32> = FxHashMap::default();
        for addr in 0..100u64 {
            map.insert(addr << 6, addr as u32);
        }
        assert_eq!(map.len(), 100);
        assert_eq!(map.get(&(42 << 6)), Some(&42));

        let mut set: FxHashSet<(u64, u8)> = FxHashSet::default();
        set.insert((7, 1));
        set.insert((7, 1));
        assert_eq!(set.len(), 1);
    }
}
