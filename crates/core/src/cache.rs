//! Content-addressed compile cache.
//!
//! The paper's §6 measurement (reproduced by `bench --bin build_time`) shows
//! that >95% of a Knit build is spent in the C compiler and linker. The
//! harnesses in this repository — `table1`, `table2`, `build_time`,
//! `micro_overhead`, repeated `knitc` invocations — rebuild heavily
//! overlapping unit sets, so [`BuildCache`] lets every
//! [`BuildSession`](crate::session::BuildSession) — and through them the
//! composition server's [`Engine`](crate::server::Engine) — skip `cmini`
//! entirely for any unit whose *content* was compiled before.
//!
//! A cache key is a stable 64-bit FNV-1a hash of everything that can affect
//! a unit's compiled objects:
//!
//! * the **preprocessed** text of every source file in the unit's `files`
//!   clause (so edits to headers reached through `-I` invalidate too);
//! * pre-compiled object files named in `files`, hashed structurally;
//! * the unit's effective compiler flags (in order — `-I` search order
//!   matters);
//! * the unit's `rename` map.
//!
//! The unit *name* is deliberately excluded: two units with identical
//! sources, flags, and renames compile to identical objects and share one
//! entry. Instance-level symbol renaming happens after compilation and is
//! never cached.
//!
//! The cache is `Sync`; compile workers running under
//! [`BuildOptions::jobs`](crate::BuildOptions) query and fill it
//! concurrently. If two workers race on the same key the last insert wins —
//! both values are equal by construction, so the race is benign.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::driver::CompiledUnit;

/// A stable, process-independent 64-bit FNV-1a hasher. `std`'s
/// `DefaultHasher` is unspecified across releases; cache keys should not
/// silently change meaning when the toolchain updates.
#[derive(Debug, Clone)]
pub(crate) struct StableHasher(u64);

impl StableHasher {
    pub(crate) fn new() -> StableHasher {
        StableHasher(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // length terminator: distinguishes ["ab","c"] from ["a","bc"]
        self.write_u64(bytes.len() as u64);
    }

    pub(crate) fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// A reusable, thread-safe compile cache, owned by every
/// [`BuildSession`](crate::session::BuildSession) and shared across all
/// sessions of a composition-server [`Engine`](crate::server::Engine).
///
/// Cloning a `BuildCache` is cheap and the clone **shares storage** with
/// the original (it is an `Arc` handle), so several sessions can warm each
/// other — that sharing is exactly the cross-client compile dedupe the
/// server advertises.
///
/// [`build`](crate::driver::build) creates a throwaway cache per call (a
/// cold build); sessions opened from one `Engine` share one cache, so a
/// unit any client compiled is a hit for every other client:
///
/// ```
/// use knit::{Engine, SessionOptions};
///
/// const UNIT: &str = r#"
///     bundletype Main = { main }
///     unit App = { exports [ main : Main ]; files { "app.c" }; }
/// "#;
/// let engine = Engine::new();
/// let opts = SessionOptions::new("App");
/// let (a, _) = engine.open_session("alice", &opts).unwrap();
/// a.load_units("m.unit", UNIT).unwrap();
/// a.update_source("app.c", "int main() { return 40 + 2; }");
/// let cold = a.build().unwrap();
///
/// let (b, _) = engine.open_session("bob", &opts).unwrap();
/// b.load_units("m.unit", UNIT).unwrap();
/// b.update_source("app.c", "int main() { return 40 + 2; }");
/// let warm = b.build().unwrap();
/// assert_eq!(cold.stats.cache_misses, 1);
/// assert_eq!(warm.stats.cache_misses, 0); // deduped across sessions
/// assert_eq!(cold.image, warm.image);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BuildCache {
    entries: Arc<Mutex<HashMap<u64, Arc<CompiledUnit>>>>,
}

impl BuildCache {
    /// An empty cache.
    pub fn new() -> BuildCache {
        BuildCache::default()
    }

    /// Number of cached compiled units.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry.
    pub fn clear(&self) {
        self.entries.lock().expect("cache lock").clear();
    }

    pub(crate) fn lookup(&self, key: u64) -> Option<Arc<CompiledUnit>> {
        self.entries.lock().expect("cache lock").get(&key).cloned()
    }

    pub(crate) fn insert(&self, key: u64, unit: Arc<CompiledUnit>) {
        self.entries.lock().expect("cache lock").insert(key, unit);
    }

    /// Hand back `unit`, cached under `key`, that a session edit
    /// superseded. The entry is dropped when `unit` is the last reference
    /// besides the cache's own: no session holds it any more, and keeping
    /// it would grow the cache by one entry per edit for the life of a
    /// server. An artifact another session (or the current build) still
    /// holds stays cached for reuse.
    pub(crate) fn release(&self, key: u64, unit: Arc<CompiledUnit>) {
        let mut entries = self.entries.lock().expect("cache lock");
        if entries.get(&key).is_some_and(|e| Arc::ptr_eq(e, &unit) && Arc::strong_count(e) == 2) {
            entries.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::StableHasher;

    #[test]
    fn hasher_is_stable_and_separates_boundaries() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());

        let mut c = StableHasher::new();
        c.write_str("ab");
        c.write_str("c");
        assert_eq!(a.finish(), c.finish());
    }
}
