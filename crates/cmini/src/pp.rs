//! A small C preprocessor.
//!
//! Supports exactly what the component corpus needs: `#include "file"`
//! (resolved through a [`FileProvider`], typically the Knit build's virtual
//! source tree, searched through `-I` include directories), object-like
//! `#define`/`#undef`, and `#ifdef`/`#ifndef`/`#else`/`#endif` conditionals.
//! Macro substitution is token-aware (identifiers only — never inside
//! string or character literals).

use std::collections::BTreeMap;

use crate::error::CError;

/// Source of header files for `#include`.
pub trait FileProvider {
    /// Return the contents of `path`, if it exists.
    fn read_file(&self, path: &str) -> Option<String>;
}

/// A provider with no files (for sources without includes).
pub struct NoFiles;

impl FileProvider for NoFiles {
    fn read_file(&self, _path: &str) -> Option<String> {
        None
    }
}

impl FileProvider for BTreeMap<String, String> {
    fn read_file(&self, path: &str) -> Option<String> {
        self.get(path).cloned()
    }
}

/// Preprocessor configuration.
#[derive(Default)]
pub struct PpOptions {
    /// `-I` include directories, searched in order; `""` means the bare
    /// path is also tried.
    pub include_dirs: Vec<String>,
    /// `-D` style predefined macros.
    pub defines: Vec<(String, String)>,
}

const MAX_INCLUDE_DEPTH: usize = 32;

/// Run the preprocessor over `src`, returning expanded source.
pub fn preprocess(
    file: &str,
    src: &str,
    opts: &PpOptions,
    provider: &dyn FileProvider,
) -> Result<String, CError> {
    let mut macros: BTreeMap<String, String> = opts.defines.iter().cloned().collect();
    let mut out = String::with_capacity(src.len() + 1);
    let mut stack = vec![file.to_string()];
    expand(file, src, opts, provider, &mut macros, &mut out, &mut stack)?;
    Ok(out)
}

fn expand(
    file: &str,
    src: &str,
    opts: &PpOptions,
    provider: &dyn FileProvider,
    macros: &mut BTreeMap<String, String>,
    out: &mut String,
    include_stack: &mut Vec<String>,
) -> Result<(), CError> {
    // Conditional-inclusion state: each entry is (currently_active,
    // any_branch_taken).
    let mut conds: Vec<(bool, bool)> = Vec::new();
    let err = |line: u32, msg: String| CError::Pp { file: file.to_string(), line, msg };

    for (lineno0, line) in src.lines().enumerate() {
        let lineno = lineno0 as u32 + 1;
        let trimmed = line.trim_start();
        let active = conds.iter().all(|(a, _)| *a);
        if let Some(rest) = trimmed.strip_prefix('#') {
            let rest = rest.trim_start();
            let (directive, arg) = match rest.find(char::is_whitespace) {
                Some(i) => (&rest[..i], rest[i..].trim()),
                None => (rest, ""),
            };
            match directive {
                "include" => {
                    if !active {
                        continue;
                    }
                    let path = arg
                        .strip_prefix('"')
                        .and_then(|s| s.strip_suffix('"'))
                        .ok_or_else(|| err(lineno, format!("malformed #include: `{arg}`")))?;
                    if include_stack.len() >= MAX_INCLUDE_DEPTH {
                        return Err(err(lineno, "include depth exceeded".into()));
                    }
                    if include_stack.iter().any(|f| f == path) {
                        return Err(err(lineno, format!("circular #include of \"{path}\"")));
                    }
                    let mut found = None;
                    let bare_first =
                        std::iter::once(String::new()).chain(opts.include_dirs.iter().cloned());
                    for dir in bare_first {
                        let cand = if dir.is_empty() {
                            path.to_string()
                        } else {
                            format!("{}/{}", dir.trim_end_matches('/'), path)
                        };
                        if let Some(text) = provider.read_file(&cand) {
                            found = Some((cand, text));
                            break;
                        }
                    }
                    let (cand, text) = found
                        .ok_or_else(|| err(lineno, format!("cannot find include \"{path}\"")))?;
                    include_stack.push(path.to_string());
                    expand(&cand, &text, opts, provider, macros, out, include_stack)?;
                    include_stack.pop();
                }
                "define" => {
                    if !active {
                        continue;
                    }
                    let (name, val) = match arg.find(char::is_whitespace) {
                        Some(i) => (&arg[..i], arg[i..].trim()),
                        None => (arg, ""),
                    };
                    if name.is_empty() || !is_ident(name) {
                        return Err(err(lineno, format!("bad macro name `{name}`")));
                    }
                    if name.contains('(') {
                        return Err(err(lineno, "function-like macros are not supported".into()));
                    }
                    macros.insert(name.to_string(), val.to_string());
                }
                "undef" => {
                    if !active {
                        continue;
                    }
                    macros.remove(arg);
                }
                "ifdef" => {
                    conds.push((active && macros.contains_key(arg), macros.contains_key(arg)));
                }
                "ifndef" => {
                    conds.push((active && !macros.contains_key(arg), !macros.contains_key(arg)));
                }
                "else" => {
                    if conds.is_empty() {
                        return Err(err(lineno, "#else without #ifdef".into()));
                    }
                    let parent_active = conds[..conds.len() - 1].iter().all(|(x, _)| *x);
                    let last = conds.last_mut().expect("nonempty");
                    last.0 = parent_active && !last.1;
                    last.1 = true;
                }
                "endif" => {
                    if conds.pop().is_none() {
                        return Err(err(lineno, "#endif without #ifdef".into()));
                    }
                }
                other => return Err(err(lineno, format!("unknown directive `#{other}`"))),
            }
            continue;
        }
        if !active {
            continue;
        }
        substitute(line, macros, out);
        out.push('\n');
    }
    if !conds.is_empty() {
        return Err(CError::Pp {
            file: file.to_string(),
            line: src.lines().count() as u32,
            msg: "unterminated #ifdef".into(),
        });
    }
    Ok(())
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Append `line` to `out` with object-like macros substituted, skipping
/// string and character literals and comments. Repeats until fixpoint
/// (bounded, to tolerate self-referential macros). A line that names no
/// macro, as every line does when none is defined, is copied as is.
fn substitute(line: &str, macros: &BTreeMap<String, String>, out: &mut String) {
    let Some(mut cur) = substitute_once(line, macros) else {
        out.push_str(line);
        return;
    };
    for _ in 1..8 {
        match substitute_once(&cur, macros) {
            Some(next) if next != cur => cur = next,
            _ => break,
        }
    }
    out.push_str(&cur);
}

/// One substitution pass over `line`, or `None` when it names no macro.
/// Unchanged runs are copied as `&str` slices, so every byte outside a
/// replaced identifier (UTF-8 included) comes through intact.
fn substitute_once(line: &str, macros: &BTreeMap<String, String>) -> Option<String> {
    if macros.is_empty() {
        return None;
    }
    let b = line.as_bytes();
    let mut out: Option<String> = None;
    // `line[copied..i]` is pending: scanned, unchanged, not yet copied
    let mut copied = 0;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        // skip string literals
        if c == b'"' || c == b'\'' {
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' && i + 1 < b.len() {
                    i += 2;
                    continue;
                }
                i += 1;
                if b[i - 1] == c {
                    break;
                }
            }
            continue;
        }
        // skip line comments entirely
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            break;
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            if let Some(val) = macros.get(&line[start..i]) {
                let o = out.get_or_insert_with(|| String::with_capacity(line.len()));
                o.push_str(&line[copied..start]);
                o.push_str(val);
                copied = i;
            }
            continue;
        }
        i += 1;
    }
    let mut o = out?;
    o.push_str(&line[copied..]);
    Some(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pp(src: &str) -> String {
        preprocess("t.c", src, &PpOptions::default(), &NoFiles).unwrap()
    }

    #[test]
    fn define_and_substitute() {
        let out = pp("#define N 4\nint x = N;\n");
        assert_eq!(out, "int x = 4;\n");
    }

    #[test]
    fn no_substitution_in_strings() {
        let out = pp("#define N 4\nchar *s = \"N is N\"; int x = N;\n");
        assert_eq!(out, "char *s = \"N is N\"; int x = 4;\n");
    }

    #[test]
    fn word_boundaries_respected() {
        let out = pp("#define N 4\nint NN = N1 + N;\n");
        assert_eq!(out, "int NN = N1 + 4;\n");
    }

    #[test]
    fn chained_macros_reach_fixpoint() {
        let out = pp("#define A B\n#define B 7\nint x = A;\n");
        assert_eq!(out, "int x = 7;\n");
    }

    #[test]
    fn ifdef_else_endif() {
        let src = "#define YES 1\n#ifdef YES\nint a;\n#else\nint b;\n#endif\n#ifdef NO\nint c;\n#else\nint d;\n#endif\n";
        assert_eq!(pp(src), "int a;\nint d;\n");
    }

    #[test]
    fn nested_conditionals() {
        let src = "#ifdef A\n#ifdef B\nint x;\n#endif\nint y;\n#endif\nint z;\n";
        assert_eq!(pp(src), "int z;\n");
        let src2 = "#define A 1\n#ifdef A\n#ifndef B\nint x;\n#endif\n#endif\n";
        assert_eq!(pp(src2), "int x;\n");
    }

    #[test]
    fn include_via_provider_and_dirs() {
        let mut files = BTreeMap::new();
        files.insert("inc/defs.h".to_string(), "#define MAX 10\n".to_string());
        let opts = PpOptions { include_dirs: vec!["inc".into()], defines: vec![] };
        let out = preprocess("t.c", "#include \"defs.h\"\nint x = MAX;\n", &opts, &files).unwrap();
        assert_eq!(out, "int x = 10;\n");
    }

    #[test]
    fn circular_include_rejected() {
        let mut files = BTreeMap::new();
        files.insert("a.h".to_string(), "#include \"a.h\"\n".to_string());
        let r = preprocess("t.c", "#include \"a.h\"\n", &PpOptions::default(), &files);
        assert!(r.is_err());
    }

    #[test]
    fn missing_include_is_error() {
        let r = preprocess("t.c", "#include \"nope.h\"\n", &PpOptions::default(), &NoFiles);
        assert!(r.is_err());
    }

    #[test]
    fn predefines_from_options() {
        let opts = PpOptions { include_dirs: vec![], defines: vec![("DEBUG".into(), "1".into())] };
        let out =
            preprocess("t.c", "#ifdef DEBUG\nint dbg = DEBUG;\n#endif\n", &opts, &NoFiles).unwrap();
        assert_eq!(out, "int dbg = 1;\n");
    }

    #[test]
    fn unterminated_ifdef_is_error() {
        assert!(preprocess("t.c", "#ifdef X\nint a;\n", &PpOptions::default(), &NoFiles).is_err());
    }

    #[test]
    fn non_ascii_text_comes_through_byte_for_byte() {
        for src in ["char *s = \"café\";\n", "/* café */\n", "int x; // naïve — ok\n"] {
            assert_eq!(pp(src), src);
            let with_macro = format!("#define N 4\n{src}");
            assert_eq!(pp(&with_macro), src);
        }
        let src = "#define N 4\nchar *s = \"é\"; int x = N; /* ü */\n";
        assert_eq!(pp(src), "char *s = \"é\"; int x = 4; /* ü */\n");
    }

    #[test]
    fn utf8_string_literals_compile_to_their_bytes() {
        let obj = crate::compile(
            "t.c",
            "char s[] = \"café\";\n",
            &crate::CompileOptions::default(),
            &NoFiles,
        )
        .unwrap();
        assert!(obj.data.iter().any(|d| d.init == b"caf\xc3\xa9\0"), "{:?}", obj.data);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// With no macro defined, directive-free text is returned as is,
        /// whatever its quotes, escapes, comments and non-ASCII characters.
        #[test]
        fn macro_free_text_is_returned_unchanged(
            lines in proptest::collection::vec("[a-z0-9_ \t\"'\\\\/*;(){}=é€ü😀]{0,40}", 0..8)
        ) {
            let src: String = lines.iter().map(|l| format!("{l}\n")).collect();
            proptest::prop_assert_eq!(pp(&src), src);
        }
    }

    #[test]
    fn ifndef_include_guard_pattern() {
        let mut files = BTreeMap::new();
        files.insert(
            "g.h".to_string(),
            "#ifndef G_H\n#define G_H 1\nint from_header;\n#endif\n".to_string(),
        );
        // Including twice from different nesting is fine because of the
        // guard (direct circularity is separately rejected).
        let src = "#include \"g.h\"\n#include \"g.h\"\nint main_var;\n";
        let out = preprocess("t.c", src, &PpOptions::default(), &files).unwrap();
        assert_eq!(out.matches("from_header").count(), 1);
    }
}
