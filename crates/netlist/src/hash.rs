//! Fast, deterministic hashing for name-keyed maps.
//!
//! The default `std` hasher (SipHash with a random seed) is designed to
//! resist hash-flooding from untrusted keys, but it costs tens of
//! nanoseconds per short string — and netlist names are hashed millions of
//! times during parse/write. [`FastHasher`] is a word-at-a-time
//! multiply-xor hasher in the rustc-hash family: a few nanoseconds for a
//! typical net name, unseeded and therefore deterministic run to run
//! (map *lookups* don't depend on iteration order anyway; nothing in the
//! crate iterates these maps for output).
//!
//! Flooding resistance is deliberately traded away: the maps keyed with
//! this hasher hold netlist names, and the hostile-input gates
//! (`bench/src/bin/hostile.rs`, the fuzz corpus) bound what an adversarial
//! netlist can do — worst case is a slow parse, never unsoundness.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier with high bit dispersion (the golden-ratio constant familiar
/// from Fibonacci hashing, oddified).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A word-folding multiply-xor hasher. Not flooding-resistant; see the
/// module docs for why that is acceptable here.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(26) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.fold(u64::from_le_bytes(buf));
        }
        // Fold the length so `"a"` and `"a\0"` (same padded word) differ.
        self.fold(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // `HashMap` derives its bucket from the high bits; one final mix
        // spreads low-entropy tails (e.g. trailing length words) upward.
        self.hash.rotate_left(20).wrapping_mul(K)
    }
}

/// 128-bit content hash of a byte stream: two independently-seeded
/// [`FastHasher`] lanes folded over the same bytes. Deterministic across
/// runs and processes (no random seed), so it is usable as a persistent
/// cache key; two lanes push accidental collisions far below anything a
/// flow cache holding thousands of netlists can hit. Not
/// collision-resistant against an adversary — callers that cache on this
/// key trade that away exactly like the name maps above do.
pub fn content_hash128(bytes: &[u8]) -> u128 {
    let mut a = FastHasher {
        hash: 0xC0DE_CAFE_0000_0001,
    };
    let mut b = FastHasher {
        hash: 0x5EED_FACE_0000_0002,
    };
    a.write(bytes);
    b.write(bytes);
    (u128::from(a.finish()) << 64) | u128::from(b.finish())
}

/// [`content_hash128`] rendered as a fixed-width lowercase hex string —
/// the wire/report form of the cache key.
pub fn content_hash_hex(bytes: &[u8]) -> String {
    format!("{:032x}", content_hash128(bytes))
}

/// Deterministic (unseeded) builder for [`FastHasher`].
pub type BuildFastHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildFastHasher>;

/// A `HashSet` keyed with [`FastHasher`].
pub type FastHashSet<T> = HashSet<T, BuildFastHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildFastHasher::default().hash_one(v)
    }

    #[test]
    fn equal_values_hash_equal_and_runs_are_deterministic() {
        assert_eq!(hash_of("n_romb_3988"), hash_of("n_romb_3988"));
        assert_eq!(hash_of(42u64), hash_of(42u64));
    }

    #[test]
    fn near_identical_names_disperse() {
        // Netlist names differ in a trailing counter; buckets must too.
        let hashes: FastHashSet<u64> = (0..10_000)
            .map(|i| hash_of(format!("drd_g{}_net_{i}", i % 97)))
            .collect();
        assert_eq!(hashes.len(), 10_000);
        // Padding bytes must not collide with real zeros.
        assert_ne!(hash_of("a"), hash_of("a\0"));
    }

    #[test]
    fn content_hash_is_stable_wide_and_sensitive() {
        let v = b"module t (clk); endmodule\n";
        assert_eq!(content_hash128(v), content_hash128(v));
        assert_ne!(
            content_hash128(v),
            content_hash128(b"module t (clk); endmodule")
        );
        assert_ne!(content_hash128(b""), content_hash128(b"\0"));
        let hex = content_hash_hex(v);
        assert_eq!(hex.len(), 32);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        // The two lanes are independent: flipping one byte changes both
        // halves of the rendered key.
        let other = content_hash_hex(b"module u (clk); endmodule\n");
        assert_ne!(hex[..16], other[..16]);
        assert_ne!(hex[16..], other[16..]);
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: FastHashMap<String, u32> = FastHashMap::default();
        for i in 0..1000u32 {
            m.insert(format!("net_{i}"), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get("net_500"), Some(&500));
        assert_eq!(m.get("net_1000"), None);
    }
}
