//! A multiply-rotate hasher for the simulator's integer-keyed maps.
//!
//! The simulated path keys its maps by node ids, tags, version and request
//! indices. `std`'s default SipHash is built to resist adversarial keys,
//! which a deterministic simulation never sees, and costs a few dozen
//! nanoseconds per lookup. [`FastHasher`] folds each word in with one add
//! and one multiply by an odd constant, and rotates the high (well-mixed)
//! product bits down into the low bits the table indexes by. No map on the
//! simulated path is ever iterated into an output, so swapping the hasher
//! cannot change behaviour.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier (the Fx/rustc-hash constant): multiplying by it is a
/// bijection on `u64`, so distinct single-word keys never collide.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-rotate [`Hasher`] for integer keys (strings work too, a word at
/// a time).
#[derive(Default, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The product's low bits depend only on the key's low bits; bring
        // the mixed high bits down to where the table's bucket index is.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed by [`FastHasher`]. Build with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(key)
    }

    #[test]
    fn integer_keys_are_distinct_and_spread() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for k in 0..10_000u64 {
            m.insert(k * 4096, k);
        }
        for k in 0..10_000u64 {
            assert_eq!(m.get(&(k * 4096)), Some(&k));
        }
        assert_eq!(m.get(&1), None);
        // One word in: the hash is a bijection, so no two keys collide.
        // Without the final rotation every page-aligned key would share
        // low-bit bucket 0; with it they spread over the table.
        for stride in [1u64, 4096] {
            let mut low: Vec<u64> = (0..1024u64).map(|k| hash_of(k * stride) & 1023).collect();
            low.sort_unstable();
            low.dedup();
            assert!(low.len() > 256, "stride {stride}: {} buckets", low.len());
        }
        assert_eq!(hash_of(7u64), hash_of(7u64), "not deterministic");
    }

    #[test]
    fn tuple_keys_hash_both_fields() {
        let mut m: FastMap<(usize, u64), usize> = FastMap::default();
        for src in 0..64usize {
            for tag in 0..64u64 {
                m.insert((src, tag), src * 64 + tag as usize);
            }
        }
        assert_eq!(m.len(), 64 * 64);
        for src in 0..64usize {
            for tag in 0..64u64 {
                assert_eq!(m[&(src, tag)], src * 64 + tag as usize);
            }
        }
        assert_ne!(hash_of((1usize, 2u64)), hash_of((2usize, 1u64)));
    }

    #[test]
    fn str_keys_work() {
        let names = [
            "gemm",
            "potrf",
            "syrk",
            "trsm",
            "a",
            "",
            "a-longer-class-name",
        ];
        let mut m: FastMap<&'static str, usize> = FastMap::default();
        for (i, n) in names.iter().enumerate() {
            m.insert(n, i);
        }
        assert_eq!(m.len(), names.len());
        for (i, n) in names.iter().enumerate() {
            assert_eq!(m[n], i);
        }
        assert_eq!(m.get("gem"), None);
    }
}
