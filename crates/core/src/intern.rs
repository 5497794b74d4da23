//! A global string interner for the composition hot paths.
//!
//! Elaboration, constraint checking, and scheduling at 10k+ units spend
//! most of their time comparing, hashing, and cloning the same few
//! thousand distinct port/unit/member names. [`Sym`] replaces `String`
//! in those structures: a `Copy` handle to a leaked, deduplicated
//! `&'static str`.
//!
//! Properties that the rest of the engine relies on:
//!
//! * **Equality is pointer equality.** The interner guarantees one
//!   allocation per distinct string for the lifetime of the process, so
//!   `a == b` compares two pointers (plus a length), never bytes.
//! * **Ordering is string ordering.** `BTreeMap<Sym, _>` iterates in
//!   exactly the order `BTreeMap<String, _>` did — this is what keeps
//!   images and diagnostics byte-identical across the migration. The
//!   compare fast-paths pointer-equal symbols.
//! * **`Borrow<str>`** lets `BTreeMap<Sym, _>` be queried with plain
//!   `&str` keys, so call sites that hold a `String` keep working.
//!
//! Interned strings are never freed. That is the right trade for a
//! compiler: the vocabulary (unit names, port names, bundle members) is
//! bounded by the source text, shared across sessions in the server, and
//! a few hundred kilobytes at the 10k-unit scale.

use std::borrow::Borrow;
use std::fmt;
use std::sync::RwLock;

use cobj::fnv::FnvSet;

// The interner probes with short identifier strings on the elaboration
// hot path, so it hashes with FNV-1a rather than SipHash.
type StrSet = FnvSet<&'static str>;

static INTERNER: RwLock<Option<StrSet>> = RwLock::new(None);

/// An interned string: `Copy`, pointer-equality, string-ordered.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Sym(&'static str);

impl Sym {
    /// Intern `s`, returning its canonical symbol.
    pub fn new(s: &str) -> Sym {
        if let Some(set) = INTERNER.read().unwrap().as_ref() {
            if let Some(&hit) = set.get(s) {
                return Sym(hit);
            }
        }
        let mut guard = INTERNER.write().unwrap();
        let set = guard.get_or_insert_with(StrSet::default);
        if let Some(&hit) = set.get(s) {
            return Sym(hit);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        set.insert(leaked);
        Sym(leaked)
    }

    /// The interned text.
    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Sym) -> std::cmp::Ordering {
        if std::ptr::eq(self.0, other.0) {
            std::cmp::Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

// Hash the text, not the pointer: `Borrow<str>` requires `Sym` and `str`
// to hash identically so `HashMap<Sym, _>` can be probed with `&str`.
// Hot maps that want integer keys use dense ids, not `Sym` hashing.
impl std::hash::Hash for Sym {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl Borrow<str> for Sym {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl std::ops::Deref for Sym {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        Sym::new(s)
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialEq<String> for Sym {
    fn eq(&self, other: &String) -> bool {
        self.0 == other.as_str()
    }
}

impl PartialEq<Sym> for String {
    fn eq(&self, other: &Sym) -> bool {
        self.as_str() == other.0
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

// Debug renders like `str`'s Debug so derived Debug output of structures
// holding `Sym` matches what it printed when the field was a `String`.
impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes() {
        let a = Sym::new("hello");
        let b = Sym::new(&String::from("hello"));
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(a, b);
    }

    #[test]
    fn ordering_matches_strings() {
        let mut syms = [Sym::new("b"), Sym::new("a"), Sym::new("ab"), Sym::new("")];
        syms.sort();
        let strs: Vec<&str> = syms.iter().map(|s| s.as_str()).collect();
        assert_eq!(strs, vec!["", "a", "ab", "b"]);
    }

    #[test]
    fn btreemap_str_lookup() {
        let mut m = std::collections::BTreeMap::new();
        m.insert(Sym::new("port"), 1);
        assert_eq!(m.get("port"), Some(&1));
        assert_eq!(m.get("nope"), None);
    }

    #[test]
    fn debug_matches_string_debug() {
        assert_eq!(format!("{:?}", Sym::new("a\"b")), format!("{:?}", "a\"b"));
    }
}
