//! Execution profiles: call edges and per-function instruction counts.
//!
//! [`crate::Machine`] can optionally record, per call site class, every
//! (caller, callee) pair it executes — direct calls, indirect calls
//! resolved through function pointers, and intrinsic (device) calls — plus
//! how many instructions each function retires. The result is surfaced as
//! a [`Profile`]: a plain-data artifact with a stable, deterministic JSON
//! encoding, suitable for writing to disk in a `--profile-gen` build and
//! feeding back into the linker's profile-guided layout (and the PGO
//! flatten advisor) in a `--profile-use` build.
//!
//! The encoding is written by hand here — its bytes feed build
//! fingerprints through [`Profile::stable_hash`], so the writer doubles as
//! the format's specification — and read back with the shared
//! [`crate::json`] parser.

use std::collections::BTreeMap;

use cobj::layout::LayoutProfile;

use crate::json::{self, Json};

/// One observed call edge, aggregated over the run.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CallEdge {
    /// Link-level name of the calling function.
    pub caller: String,
    /// Link-level name of the called function (or intrinsic).
    pub callee: String,
    /// Whether the calls were made through a function pointer.
    pub indirect: bool,
    /// Number of calls observed.
    pub count: u64,
}

/// Aggregated execution counts for one function.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FuncCount {
    /// Link-level function name.
    pub name: String,
    /// Instructions retired while executing in this function.
    pub instructions: u64,
}

/// A serializable execution profile.
///
/// Both vectors are kept sorted (edges by `(caller, callee, indirect)`,
/// functions by name), so two profiles describing the same behaviour
/// compare equal and serialize identically regardless of how they were
/// accumulated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Observed call edges, sorted.
    pub edges: Vec<CallEdge>,
    /// Per-function instruction counts (executed functions only), sorted.
    pub funcs: Vec<FuncCount>,
}

impl Profile {
    /// True when the profile recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty() && self.funcs.is_empty()
    }

    /// Total calls across all edges.
    pub fn total_calls(&self) -> u64 {
        self.edges.iter().map(|e| e.count).sum()
    }

    /// Merge another profile into this one (summing matching counters),
    /// e.g. to combine profiles from several workloads.
    pub fn merge(&mut self, other: &Profile) {
        let mut edges: BTreeMap<(String, String, bool), u64> = BTreeMap::new();
        for e in self.edges.iter().chain(other.edges.iter()) {
            *edges.entry((e.caller.clone(), e.callee.clone(), e.indirect)).or_insert(0) += e.count;
        }
        self.edges = edges
            .into_iter()
            .map(|((caller, callee, indirect), count)| CallEdge { caller, callee, indirect, count })
            .collect();
        let mut funcs: BTreeMap<String, u64> = BTreeMap::new();
        for f in self.funcs.iter().chain(other.funcs.iter()) {
            *funcs.entry(f.name.clone()).or_insert(0) += f.instructions;
        }
        self.funcs = funcs
            .into_iter()
            .map(|(name, instructions)| FuncCount { name, instructions })
            .collect();
    }

    /// Project onto the layout-relevant view consumed by
    /// [`cobj::layout::Layout::ProfileGuided`]: edge weights summed over
    /// direct/indirect, intrinsic callees dropped (the runtime has no
    /// placement), plus per-function heat.
    pub fn layout_profile(&self) -> LayoutProfile {
        let mut lp = LayoutProfile::default();
        for e in &self.edges {
            if e.count > 0 && !crate::cpu::INTRINSIC_NAMES.contains(&e.callee.as_str()) {
                lp.record_edge(e.caller.clone(), e.callee.clone(), e.count);
            }
        }
        for f in &self.funcs {
            if f.instructions > 0 {
                lp.record_func(f.name.clone(), f.instructions);
            }
        }
        lp
    }

    /// Stable FNV-1a hash of the canonical JSON encoding. Used to fold a
    /// profile into build fingerprints.
    pub fn stable_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_json().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Serialize to the stable JSON encoding (sorted arrays, fixed key
    /// order, newline-terminated).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"version\": 1,\n  \"edges\": [");
        for (i, e) in self.edges.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    {\"caller\": ");
            json::write_str(&mut s, &e.caller);
            s.push_str(", \"callee\": ");
            json::write_str(&mut s, &e.callee);
            s.push_str(&format!(
                ", \"indirect\": {}, \"count\": {}}}",
                if e.indirect { "true" } else { "false" },
                e.count
            ));
        }
        s.push_str(if self.edges.is_empty() { "],\n" } else { "\n  ],\n" });
        s.push_str("  \"funcs\": [");
        for (i, f) in self.funcs.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    {\"name\": ");
            json::write_str(&mut s, &f.name);
            s.push_str(&format!(", \"instructions\": {}}}", f.instructions));
        }
        s.push_str(if self.funcs.is_empty() { "]\n" } else { "\n  ]\n" });
        s.push_str("}\n");
        s
    }

    /// Parse a profile from its JSON encoding. Accepts any JSON with the
    /// expected shape (whitespace and key order are free); unknown keys
    /// are ignored so the schema can grow.
    pub fn from_json(text: &str) -> Result<Profile, String> {
        let v = Json::parse(text)?;
        let obj = v.as_object().ok_or("profile: top level must be an object")?;
        let mut p = Profile::default();
        if let Some(edges) = obj.get("edges") {
            for (i, e) in
                edges.as_array().ok_or("profile: `edges` must be an array")?.iter().enumerate()
            {
                let eo =
                    e.as_object().ok_or_else(|| format!("profile: edge {i} must be an object"))?;
                let ctx = format!("profile: edge {i}");
                p.edges.push(CallEdge {
                    caller: json::str_field(eo, &ctx, "caller")?,
                    callee: json::str_field(eo, &ctx, "callee")?,
                    indirect: eo.get("indirect").and_then(Json::as_bool).unwrap_or(false),
                    count: json::u64_field(eo, &ctx, "count")?,
                });
            }
        }
        if let Some(funcs) = obj.get("funcs") {
            for (i, f) in
                funcs.as_array().ok_or("profile: `funcs` must be an array")?.iter().enumerate()
            {
                let fo =
                    f.as_object().ok_or_else(|| format!("profile: func {i} must be an object"))?;
                let ctx = format!("profile: func {i}");
                p.funcs.push(FuncCount {
                    name: json::str_field(fo, &ctx, "name")?,
                    instructions: json::u64_field(fo, &ctx, "instructions")?,
                });
            }
        }
        p.edges.sort();
        p.funcs.sort();
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        Profile {
            edges: vec![
                CallEdge {
                    caller: "classify".into(),
                    callee: "__net_tx".into(),
                    indirect: false,
                    count: 7,
                },
                CallEdge {
                    caller: "router_step".into(),
                    callee: "classify".into(),
                    indirect: true,
                    count: 512,
                },
            ],
            funcs: vec![
                FuncCount { name: "classify".into(), instructions: 4096 },
                FuncCount { name: "router_step".into(), instructions: 1024 },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let p = sample();
        let json = p.to_json();
        let back = Profile::from_json(&json).unwrap();
        assert_eq!(p, back);
        // Encoding is stable: re-serializing the parse is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn json_round_trips_weird_names() {
        let mut p = Profile::default();
        p.funcs.push(FuncCount { name: "we\"ird\\name\n\u{1}é𝔣".into(), instructions: 1 });
        let back = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
        // A non-BMP name written as an escaped surrogate pair decodes to
        // the one scalar it names.
        let text = r#"{"funcs": [{"name": "\ud835\udd23", "instructions": 1}]}"#;
        assert_eq!(Profile::from_json(text).unwrap().funcs[0].name, "𝔣");
    }

    #[test]
    fn empty_profile_round_trips() {
        let p = Profile::default();
        let back = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
        assert!(back.is_empty());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Profile::from_json("").is_err());
        assert!(Profile::from_json("[]").is_err());
        assert!(Profile::from_json("{\"edges\": 3}").is_err());
        assert!(Profile::from_json("{} trailing").is_err());
        assert!(Profile::from_json("{\"edges\": [{\"caller\": \"a\"}]}").is_err());
        assert!(
            Profile::from_json(r#"{"funcs": [{"name": "\ud835", "instructions": 1}]}"#).is_err()
        );
    }

    #[test]
    fn parser_accepts_unknown_keys_and_any_order() {
        let text = r#"{
            "future": {"nested": [1, 2, null]},
            "funcs": [{"instructions": 5, "name": "f", "extra": true}],
            "edges": []
        }"#;
        let p = Profile::from_json(text).unwrap();
        assert_eq!(p.funcs, vec![FuncCount { name: "f".into(), instructions: 5 }]);
    }

    #[test]
    fn stable_hash_tracks_content() {
        let p = sample();
        let mut q = sample();
        assert_eq!(p.stable_hash(), q.stable_hash());
        q.edges[1].count += 1;
        assert_ne!(p.stable_hash(), q.stable_hash());
    }

    #[test]
    fn merge_sums_counts() {
        let mut p = sample();
        p.merge(&sample());
        assert_eq!(p.total_calls(), 2 * sample().total_calls());
        assert_eq!(p.funcs[0].instructions, 8192);
        // Still sorted and deduplicated.
        assert_eq!(p.edges.len(), 2);
    }

    #[test]
    fn layout_profile_drops_intrinsic_callees() {
        let lp = sample().layout_profile();
        assert_eq!(lp.edges.len(), 1, "intrinsic callee edge dropped");
        assert_eq!(lp.edges.get(&("router_step".into(), "classify".into())), Some(&512));
        assert_eq!(lp.func_counts.get("classify"), Some(&4096));
    }
}
