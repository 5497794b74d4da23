//! FNV-1a hashing for the workspace's hot string-keyed tables.
//!
//! The linker's resolution table, the interner and the elaborator all key
//! hash maps on short identifier strings. The default SipHash costs more
//! than such a probe itself, and none of these tables needs DoS
//! resistance — their keys come from source text the user already
//! controls. Nothing may depend on a table's iteration order: callers
//! that report or emit names sort them first.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, 64-bit.
#[derive(Default)]
pub struct FnvHasher(u64);

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.0 = h;
    }
}

/// A [`HashMap`] hashed with [`FnvHasher`].
pub type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// A [`HashSet`] hashed with [`FnvHasher`].
pub type FnvSet<K> = HashSet<K, BuildHasherDefault<FnvHasher>>;
