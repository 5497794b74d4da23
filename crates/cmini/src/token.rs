//! Lexer for mini-C.
//!
//! Operates on preprocessed source (see [`crate::pp`]). Tokens carry line
//! and column for diagnostics.

use crate::error::CError;

/// Source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token kinds for mini-C.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    // literals and names
    Ident(String),
    Int(i64),
    Str(Vec<u8>),
    Char(u8),
    // keywords
    KwInt,
    KwChar,
    KwVoid,
    KwStruct,
    KwIf,
    KwElse,
    KwWhile,
    KwFor,
    KwDo,
    KwReturn,
    KwBreak,
    KwContinue,
    KwStatic,
    KwExtern,
    KwSizeof,
    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Arrow,
    Ellipsis,
    Question,
    Colon,
    // operators
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    AmpAssign,
    PipeAssign,
    CaretAssign,
    ShlAssign,
    ShrAssign,
    PlusPlus,
    MinusMinus,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    AmpAmp,
    PipePipe,
    Shl,
    Shr,
    EqEq,
    NotEq,
    Lt,
    Gt,
    Le,
    Ge,
    /// End of input.
    Eof,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(v) => write!(f, "integer {v}"),
            Tok::Str(_) => write!(f, "string literal"),
            Tok::Char(c) => write!(f, "character literal '{}'", *c as char),
            Tok::Eof => write!(f, "end of input"),
            other => {
                let s = match other {
                    Tok::KwInt => "int",
                    Tok::KwChar => "char",
                    Tok::KwVoid => "void",
                    Tok::KwStruct => "struct",
                    Tok::KwIf => "if",
                    Tok::KwElse => "else",
                    Tok::KwWhile => "while",
                    Tok::KwFor => "for",
                    Tok::KwDo => "do",
                    Tok::KwReturn => "return",
                    Tok::KwBreak => "break",
                    Tok::KwContinue => "continue",
                    Tok::KwStatic => "static",
                    Tok::KwExtern => "extern",
                    Tok::KwSizeof => "sizeof",
                    Tok::LParen => "(",
                    Tok::RParen => ")",
                    Tok::LBrace => "{",
                    Tok::RBrace => "}",
                    Tok::LBracket => "[",
                    Tok::RBracket => "]",
                    Tok::Semi => ";",
                    Tok::Comma => ",",
                    Tok::Dot => ".",
                    Tok::Arrow => "->",
                    Tok::Ellipsis => "...",
                    Tok::Question => "?",
                    Tok::Colon => ":",
                    Tok::Assign => "=",
                    Tok::PlusAssign => "+=",
                    Tok::MinusAssign => "-=",
                    Tok::StarAssign => "*=",
                    Tok::SlashAssign => "/=",
                    Tok::PercentAssign => "%=",
                    Tok::AmpAssign => "&=",
                    Tok::PipeAssign => "|=",
                    Tok::CaretAssign => "^=",
                    Tok::ShlAssign => "<<=",
                    Tok::ShrAssign => ">>=",
                    Tok::PlusPlus => "++",
                    Tok::MinusMinus => "--",
                    Tok::Plus => "+",
                    Tok::Minus => "-",
                    Tok::Star => "*",
                    Tok::Slash => "/",
                    Tok::Percent => "%",
                    Tok::Amp => "&",
                    Tok::Pipe => "|",
                    Tok::Caret => "^",
                    Tok::Tilde => "~",
                    Tok::Bang => "!",
                    Tok::AmpAmp => "&&",
                    Tok::PipePipe => "||",
                    Tok::Shl => "<<",
                    Tok::Shr => ">>",
                    Tok::EqEq => "==",
                    Tok::NotEq => "!=",
                    Tok::Lt => "<",
                    Tok::Gt => ">",
                    Tok::Le => "<=",
                    Tok::Ge => ">=",
                    _ => unreachable!(),
                };
                write!(f, "`{s}`")
            }
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// Where it begins.
    pub span: Span,
}

fn keyword(s: &str) -> Option<Tok> {
    Some(match s {
        "int" => Tok::KwInt,
        "char" => Tok::KwChar,
        "void" => Tok::KwVoid,
        "struct" => Tok::KwStruct,
        "if" => Tok::KwIf,
        "else" => Tok::KwElse,
        "while" => Tok::KwWhile,
        "for" => Tok::KwFor,
        "do" => Tok::KwDo,
        "return" => Tok::KwReturn,
        "break" => Tok::KwBreak,
        "continue" => Tok::KwContinue,
        "static" => Tok::KwStatic,
        "extern" => Tok::KwExtern,
        "sizeof" => Tok::KwSizeof,
        _ => return None,
    })
}

/// Lex a full mini-C source string.
pub fn lex(file: &str, src: &str) -> Result<Vec<Token>, CError> {
    let b = src.as_bytes();
    // about one token per eight bytes: one or two doublings for most files
    let mut out = Vec::with_capacity(b.len() / 8 + 1);
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! bump {
        () => {{
            if i < b.len() {
                if b[i] == b'\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
                i += 1;
            }
        }};
    }

    let err = |line: u32, col: u32, msg: String| CError::Lex {
        file: file.to_string(),
        span: Span { line, col },
        msg,
    };

    while i < b.len() {
        let c = b[i];
        let span = Span { line, col };
        // whitespace
        if c.is_ascii_whitespace() {
            bump!();
            continue;
        }
        // comments
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                bump!();
            }
            continue;
        }
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            bump!();
            bump!();
            let (sl, sc) = (span.line, span.col);
            loop {
                if i + 1 >= b.len() {
                    return Err(err(sl, sc, "unterminated block comment".into()));
                }
                if b[i] == b'*' && b[i + 1] == b'/' {
                    bump!();
                    bump!();
                    break;
                }
                bump!();
            }
            continue;
        }
        // identifiers / keywords
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                bump!();
            }
            let s = &src[start..i];
            let tok = keyword(s).unwrap_or_else(|| Tok::Ident(s.to_string()));
            out.push(Token { tok, span });
            continue;
        }
        // numbers (decimal and hex)
        if c.is_ascii_digit() {
            let start = i;
            let mut radix = 10;
            if c == b'0' && i + 1 < b.len() && (b[i + 1] == b'x' || b[i + 1] == b'X') {
                radix = 16;
                bump!();
                bump!();
            }
            while i < b.len() && (b[i].is_ascii_alphanumeric()) {
                bump!();
            }
            let text = &src[start..i];
            let digits = if radix == 16 { &text[2..] } else { text };
            let v = i64::from_str_radix(digits, radix)
                .map_err(|_| err(span.line, span.col, format!("bad integer literal `{text}`")))?;
            out.push(Token { tok: Tok::Int(v), span });
            continue;
        }
        // char literal
        if c == b'\'' {
            bump!();
            if i >= b.len() {
                return Err(err(span.line, span.col, "unterminated character literal".into()));
            }
            let ch = if b[i] == b'\\' {
                bump!();
                if i >= b.len() {
                    return Err(err(span.line, span.col, "unterminated escape".into()));
                }
                let e = unescape(b[i]).ok_or_else(|| {
                    err(span.line, span.col, format!("bad escape `\\{}`", b[i] as char))
                })?;
                bump!();
                e
            } else {
                let e = b[i];
                bump!();
                e
            };
            if i >= b.len() || b[i] != b'\'' {
                return Err(err(span.line, span.col, "unterminated character literal".into()));
            }
            bump!();
            out.push(Token { tok: Tok::Char(ch), span });
            continue;
        }
        // string literal
        if c == b'"' {
            bump!();
            let mut bytes = Vec::new();
            loop {
                if i >= b.len() {
                    return Err(err(span.line, span.col, "unterminated string literal".into()));
                }
                match b[i] {
                    b'"' => {
                        bump!();
                        break;
                    }
                    b'\\' => {
                        bump!();
                        if i >= b.len() {
                            return Err(err(span.line, span.col, "unterminated escape".into()));
                        }
                        let e = unescape(b[i]).ok_or_else(|| {
                            err(span.line, span.col, format!("bad escape `\\{}`", b[i] as char))
                        })?;
                        bytes.push(e);
                        bump!();
                    }
                    other => {
                        bytes.push(other);
                        bump!();
                    }
                }
            }
            out.push(Token { tok: Tok::Str(bytes), span });
            continue;
        }
        // operators & punctuation (longest match first)
        let rest = &b[i..];
        let two = |a: u8, b2: u8| rest.len() >= 2 && rest[0] == a && rest[1] == b2;
        let three = |a: u8, b2: u8, c2: u8| {
            rest.len() >= 3 && rest[0] == a && rest[1] == b2 && rest[2] == c2
        };
        let (tok, n) = if three(b'.', b'.', b'.') {
            (Tok::Ellipsis, 3)
        } else if three(b'<', b'<', b'=') {
            (Tok::ShlAssign, 3)
        } else if three(b'>', b'>', b'=') {
            (Tok::ShrAssign, 3)
        } else if two(b'-', b'>') {
            (Tok::Arrow, 2)
        } else if two(b'+', b'+') {
            (Tok::PlusPlus, 2)
        } else if two(b'-', b'-') {
            (Tok::MinusMinus, 2)
        } else if two(b'+', b'=') {
            (Tok::PlusAssign, 2)
        } else if two(b'-', b'=') {
            (Tok::MinusAssign, 2)
        } else if two(b'*', b'=') {
            (Tok::StarAssign, 2)
        } else if two(b'/', b'=') {
            (Tok::SlashAssign, 2)
        } else if two(b'%', b'=') {
            (Tok::PercentAssign, 2)
        } else if two(b'&', b'=') {
            (Tok::AmpAssign, 2)
        } else if two(b'|', b'=') {
            (Tok::PipeAssign, 2)
        } else if two(b'^', b'=') {
            (Tok::CaretAssign, 2)
        } else if two(b'&', b'&') {
            (Tok::AmpAmp, 2)
        } else if two(b'|', b'|') {
            (Tok::PipePipe, 2)
        } else if two(b'<', b'<') {
            (Tok::Shl, 2)
        } else if two(b'>', b'>') {
            (Tok::Shr, 2)
        } else if two(b'=', b'=') {
            (Tok::EqEq, 2)
        } else if two(b'!', b'=') {
            (Tok::NotEq, 2)
        } else if two(b'<', b'=') {
            (Tok::Le, 2)
        } else if two(b'>', b'=') {
            (Tok::Ge, 2)
        } else {
            let t = match c {
                b'(' => Tok::LParen,
                b')' => Tok::RParen,
                b'{' => Tok::LBrace,
                b'}' => Tok::RBrace,
                b'[' => Tok::LBracket,
                b']' => Tok::RBracket,
                b';' => Tok::Semi,
                b',' => Tok::Comma,
                b'.' => Tok::Dot,
                b'?' => Tok::Question,
                b':' => Tok::Colon,
                b'=' => Tok::Assign,
                b'+' => Tok::Plus,
                b'-' => Tok::Minus,
                b'*' => Tok::Star,
                b'/' => Tok::Slash,
                b'%' => Tok::Percent,
                b'&' => Tok::Amp,
                b'|' => Tok::Pipe,
                b'^' => Tok::Caret,
                b'~' => Tok::Tilde,
                b'!' => Tok::Bang,
                b'<' => Tok::Lt,
                b'>' => Tok::Gt,
                _ => {
                    return Err(err(
                        span.line,
                        span.col,
                        format!("unexpected character `{}`", c as char),
                    ))
                }
            };
            (t, 1)
        };
        for _ in 0..n {
            bump!();
        }
        out.push(Token { tok, span });
    }
    out.push(Token { tok: Tok::Eof, span: Span { line, col } });
    Ok(out)
}

fn unescape(c: u8) -> Option<u8> {
    Some(match c {
        b'n' => b'\n',
        b't' => b'\t',
        b'r' => b'\r',
        b'0' => 0,
        b'\\' => b'\\',
        b'\'' => b'\'',
        b'"' => b'"',
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex("t.c", src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lex_simple_function() {
        let t = toks("int f(int x) { return x + 1; }");
        assert_eq!(
            t,
            vec![
                Tok::KwInt,
                Tok::Ident("f".into()),
                Tok::LParen,
                Tok::KwInt,
                Tok::Ident("x".into()),
                Tok::RParen,
                Tok::LBrace,
                Tok::KwReturn,
                Tok::Ident("x".into()),
                Tok::Plus,
                Tok::Int(1),
                Tok::Semi,
                Tok::RBrace,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn lex_operators_longest_match() {
        assert_eq!(
            toks("a <<= b >> c <= d < e"),
            vec![
                Tok::Ident("a".into()),
                Tok::ShlAssign,
                Tok::Ident("b".into()),
                Tok::Shr,
                Tok::Ident("c".into()),
                Tok::Le,
                Tok::Ident("d".into()),
                Tok::Lt,
                Tok::Ident("e".into()),
                Tok::Eof
            ]
        );
        assert_eq!(toks("p->x")[1], Tok::Arrow);
        assert_eq!(toks("...")[0], Tok::Ellipsis);
    }

    #[test]
    fn lex_literals() {
        assert_eq!(toks("0x2A")[0], Tok::Int(42));
        assert_eq!(toks("'a'")[0], Tok::Char(b'a'));
        assert_eq!(toks(r"'\n'")[0], Tok::Char(b'\n'));
        assert_eq!(toks(r#""hi\n""#)[0], Tok::Str(b"hi\n".to_vec()));
    }

    #[test]
    fn lex_comments_skipped() {
        let t = toks("a // line\n/* block\nstill */ b");
        assert_eq!(t, vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]);
    }

    #[test]
    fn spans_track_lines() {
        let tokens = lex("t.c", "a\n  b").unwrap();
        assert_eq!(tokens[0].span, Span { line: 1, col: 1 });
        assert_eq!(tokens[1].span, Span { line: 2, col: 3 });
    }

    #[test]
    fn lex_errors() {
        assert!(lex("t.c", "\"unterminated").is_err());
        assert!(lex("t.c", "'x").is_err());
        assert!(lex("t.c", "/* unterminated").is_err());
        assert!(lex("t.c", "@").is_err());
        assert!(lex("t.c", "0xZZ").is_err());
    }
}
