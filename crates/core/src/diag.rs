//! Structured, span-carrying diagnostics.
//!
//! Every [`KnitError`](crate::error::KnitError) renders to one or more
//! [`Diagnostic`]s via
//! [`KnitError::diagnostics`](crate::error::KnitError::diagnostics). A
//! diagnostic carries a stable code, a severity, the offending `.unit`
//! source position when one is known, and remedy notes — so tools (and
//! `knitc --error-format=json`) can consume errors without parsing prose.

use std::fmt;

use machine::json::{self, write_str};

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A note attached to another diagnostic.
    Note,
    /// A non-fatal problem.
    Warning,
    /// A build-stopping error.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One structured diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code for the error kind (`K0001`…), for grepping and docs.
    pub code: &'static str,
    /// Severity of this diagnostic.
    pub severity: Severity,
    /// Primary human-readable message (no location prefix).
    pub message: String,
    /// `(file, line, col)` of the offending declaration, 1-based, when the
    /// pipeline could attribute the error to a source position.
    pub span: Option<(String, u32, u32)>,
    /// Additional notes: remedies, blame chains, related positions.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Render in the conventional compiler format:
    ///
    /// ```text
    /// error[K0011]: file.unit:12:9: constraint violation on property `context`
    ///   note: blame: requires at least `ProcessContext` (…)
    /// ```
    pub fn human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}[{}]: ", self.severity, self.code));
        if let Some((file, line, col)) = &self.span {
            out.push_str(&format!("{file}:{line}:{col}: "));
        }
        out.push_str(&self.message);
        for n in &self.notes {
            out.push_str(&format!("\n  note: {n}"));
        }
        out
    }

    /// Render as a single-line JSON object with fixed key order; strings
    /// are escaped by the shared [`machine::json::write_str`].
    pub fn json(&self) -> String {
        let mut out =
            format!("{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":", self.code, self.severity);
        write_str(&mut out, &self.message);
        match &self.span {
            Some((file, line, col)) => {
                out.push_str(",\"span\":{\"file\":");
                write_str(&mut out, file);
                out.push_str(&format!(",\"line\":{line},\"col\":{col}}}"));
            }
            None => out.push_str(",\"span\":null"),
        }
        out.push_str(",\"notes\":");
        json::write_array(&mut out, &self.notes, |out, n| write_str(out, n));
        out.push('}');
        out
    }
}

/// Sort diagnostics into the canonical deterministic order — by (file,
/// line, col, code, message), span-less diagnostics after spanned ones —
/// and drop exact duplicates. Every diagnostic-producing surface
/// ([`KnitError::diagnostics`](crate::error::KnitError::diagnostics), the
/// lint driver) funnels through this, so output order never depends on
/// traversal order.
pub fn sort_dedupe(diags: &mut Vec<Diagnostic>) {
    fn key(d: &Diagnostic) -> (bool, &str, u32, u32, &str, &str) {
        match &d.span {
            Some((file, line, col)) => (false, file.as_str(), *line, *col, d.code, &d.message),
            None => (true, "", 0, 0, d.code, &d.message),
        }
    }
    diags.sort_by(|a, b| key(a).cmp(&key(b)));
    diags.dedup();
}

/// A `knitc explain` entry: what a diagnostic code means and a minimal
/// example that triggers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Explain {
    /// The stable code (`K0001`…, `K1001`…).
    pub code: &'static str,
    /// One-line summary of the condition.
    pub summary: &'static str,
    /// A minimal example that triggers it.
    pub example: &'static str,
}

/// Explain entries for the error codes issued by
/// [`KnitError`](crate::error::KnitError) (`K0001`–`K0015`). Lint codes
/// (`K1xxx`) live in the lint registry
/// ([`crate::analyze::LINTS`]); [`explain`] searches both.
pub const ERROR_EXPLAINS: &[Explain] = &[
    Explain {
        code: "K0001",
        summary: "a `.unit` file failed to lex or parse",
        example: "unit U = { files { };", // missing closing brace
    },
    Explain {
        code: "K0002",
        summary: "two top-level declarations share a name",
        example: "bundletype T = { f }\nbundletype T = { g }",
    },
    Explain {
        code: "K0003",
        summary: "a reference names an undeclared unit, bundletype, flags set, property, or lint",
        example: "unit U = { imports [ a : Missing ]; files { \"u.c\" }; }",
    },
    Explain {
        code: "K0004",
        summary: "an instantiated unit's import port was left unwired in the link block",
        example: "link { w : Web; }  // Web imports serveFile, but no binding supplies it",
    },
    Explain {
        code: "K0005",
        summary: "a wiring connects an import to an export of a different bundle type",
        example: "link { l : Log [ stdio = f.serve ]; }  // stdio : Stdio wired to a Serve export",
    },
    Explain {
        code: "K0006",
        summary: "unit code references a symbol that is neither imported, defined, nor a runtime symbol",
        example: "int f() { return mystery(); }  // `mystery` appears in no import bundle",
    },
    Explain {
        code: "K0007",
        summary: "a unit imports and exports the same C identifier without renaming one side",
        example: "imports [ a : T ]; exports [ b : T ];  // both bind member `f` to C symbol `f`",
    },
    Explain {
        code: "K0008",
        summary: "a rename clause names an unknown port or bundle member",
        example: "rename { serveWeb.nope to x; }",
    },
    Explain {
        code: "K0009",
        summary: "a declaration is structurally invalid (bad initializer port, bad depends, undefined export at build time, bad flags)",
        example: "initializer boot for imported_port;  // `for` must name an export port",
    },
    Explain {
        code: "K0010",
        summary: "initializer-level dependencies form a cycle",
        example: "depends { ia needs b; }  // while the b-provider declares `ib needs a;`",
    },
    Explain {
        code: "K0011",
        summary: "an architectural constraint (§4) is violated; the note carries the blame chain",
        example: "constraints { context(exports) <= context(imports); }  // wired to a lower context",
    },
    Explain {
        code: "K0012",
        summary: "two constraints force incomparable property values (no unique meet)",
        example: "type A\ntype B  // unrelated values forced onto the same port",
    },
    Explain {
        code: "K0013",
        summary: "a C source failed to compile (cmini error, with its own file position)",
        example: "int f( { }  // syntax error in a files { … } entry",
    },
    Explain {
        code: "K0014",
        summary: "the final link failed (duplicate or missing link-level symbols)",
        example: "two pre-compiled objects exporting the same symbol",
    },
    Explain {
        code: "K0015",
        summary: "a files { … } entry names a path missing from the source tree",
        example: "files { \"nope.c\" };",
    },
    Explain {
        code: "K0016",
        summary: "a composition-server connection opened with a mismatched protocol version",
        example: "{\"req\":\"hello\",\"version\":0}  // server speaks proto::VERSION",
    },
    Explain {
        code: "K0017",
        summary: "a composition-server request was malformed or of an unknown kind",
        example: "{\"req\":\"frobnicate\"}",
    },
];

/// Look up the explain entry for `code`, searching the error table and the
/// lint registry. Backs `knitc explain` and the generated
/// `docs/diagnostics.md`.
pub fn explain(code: &str) -> Option<Explain> {
    if let Some(e) = ERROR_EXPLAINS.iter().find(|e| e.code == code) {
        return Some(*e);
    }
    crate::analyze::LINTS.iter().find(|l| l.code == code).map(|l| Explain {
        code: l.code,
        summary: l.summary,
        example: l.example,
    })
}

/// Map a runtime diagnostic code back to its canonical `&'static str` —
/// needed when decoding wire diagnostics, since [`Diagnostic::code`] is a
/// static string. Returns `None` for codes in neither the error table nor
/// the lint registry.
pub fn static_code(code: &str) -> Option<&'static str> {
    if let Some(e) = ERROR_EXPLAINS.iter().find(|e| e.code == code) {
        return Some(e.code);
    }
    crate::analyze::LINTS.iter().find(|l| l.code == code).map(|l| l.code)
}

/// Render the full diagnostic-code table as markdown — the generator for
/// `docs/diagnostics.md` (a test pins the file to this output).
pub fn diagnostics_markdown() -> String {
    let mut out = String::new();
    out.push_str("# Diagnostic codes\n\n");
    out.push_str("Generated by `knit::diag::diagnostics_markdown()`; do not edit by hand.\n");
    out.push_str("`knitc explain <code>` prints the same entries.\n\n");
    out.push_str("## Errors (K0xxx)\n\n");
    out.push_str("| Code | Summary |\n|------|---------|\n");
    for e in ERROR_EXPLAINS {
        out.push_str(&format!("| {} | {} |\n", e.code, e.summary.replace('|', "\\|")));
    }
    out.push_str("\n## Lints (K1xxx)\n\n");
    out.push_str(
        "Lints default to `warn`; configure with `knitc lint --allow/--warn/--deny <lint>`\n",
    );
    out.push_str(
        "or a `#[allow(...)]`/`#[warn(...)]`/`#[deny(...)]` pragma on a unit declaration.\n\n",
    );
    out.push_str("| Code | Name | Summary |\n|------|------|---------|\n");
    for l in crate::analyze::LINTS {
        out.push_str(&format!("| {} | {} | {} |\n", l.code, l.name, l.summary.replace('|', "\\|")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_format_includes_code_span_and_notes() {
        let d = Diagnostic {
            code: "K0011",
            severity: Severity::Error,
            message: "constraint violation on property `context`".into(),
            span: Some(("sys.unit".into(), 12, 9)),
            notes: vec!["blame: requires at least `ProcessContext`".into()],
        };
        let h = d.human();
        assert!(h.starts_with("error[K0011]: sys.unit:12:9: "), "{h}");
        assert!(h.contains("\n  note: blame:"), "{h}");
    }

    #[test]
    fn json_is_escaped_and_well_formed() {
        let d = Diagnostic {
            code: "K0009",
            severity: Severity::Error,
            message: "unit `A`: bad \"quote\"\nsecond line".into(),
            span: None,
            notes: vec![],
        };
        let j = d.json();
        assert!(j.contains(r#""span":null"#), "{j}");
        assert!(j.contains(r#"\"quote\"\nsecond"#), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }
}
