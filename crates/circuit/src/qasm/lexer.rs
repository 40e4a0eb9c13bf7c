//! Tokenizer for OpenQASM 2.0.
//!
//! Like the parser, this is an untrusted-input boundary: malformed source
//! must yield [`CircuitError::Parse`], never a panic.
#![warn(clippy::unwrap_used)]

use crate::error::CircuitError;

/// A lexical token with its source line (1-based).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Token {
    pub kind: TokenKind,
    pub line: usize,
}

#[derive(Clone, Debug, PartialEq)]
pub(crate) enum TokenKind {
    Ident(String),
    /// A digit-only literal that fits a `u64`, kept exact: register sizes,
    /// indices and `if` values are integers, and a 64-bit register value
    /// has more digits than an `f64` holds.
    Int(u64),
    Number(f64),
    Str(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Semicolon,
    Comma,
    Arrow,
    EqEq,
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
    Eof,
}

impl TokenKind {
    pub(crate) fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Int(n) => format!("number `{n}`"),
            TokenKind::Number(n) => format!("number `{n}`"),
            TokenKind::Str(s) => format!("string \"{s}\""),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::LBracket => "`[`".into(),
            TokenKind::RBracket => "`]`".into(),
            TokenKind::LBrace => "`{`".into(),
            TokenKind::RBrace => "`}`".into(),
            TokenKind::Semicolon => "`;`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Arrow => "`->`".into(),
            TokenKind::EqEq => "`==`".into(),
            TokenKind::Plus => "`+`".into(),
            TokenKind::Minus => "`-`".into(),
            TokenKind::Star => "`*`".into(),
            TokenKind::Slash => "`/`".into(),
            TokenKind::Caret => "`^`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

/// Tokenizes QASM source, stripping `//` line comments.
pub(crate) fn tokenize(src: &str) -> Result<Vec<Token>, CircuitError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let n = bytes.len();
    while i < n {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => {
                i += 1;
            }
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                while i < n && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(Token { kind: TokenKind::LParen, line });
                i += 1;
            }
            ')' => {
                out.push(Token { kind: TokenKind::RParen, line });
                i += 1;
            }
            '[' => {
                out.push(Token { kind: TokenKind::LBracket, line });
                i += 1;
            }
            ']' => {
                out.push(Token { kind: TokenKind::RBracket, line });
                i += 1;
            }
            '{' => {
                out.push(Token { kind: TokenKind::LBrace, line });
                i += 1;
            }
            '}' => {
                out.push(Token { kind: TokenKind::RBrace, line });
                i += 1;
            }
            ';' => {
                out.push(Token { kind: TokenKind::Semicolon, line });
                i += 1;
            }
            ',' => {
                out.push(Token { kind: TokenKind::Comma, line });
                i += 1;
            }
            '+' => {
                out.push(Token { kind: TokenKind::Plus, line });
                i += 1;
            }
            '*' => {
                out.push(Token { kind: TokenKind::Star, line });
                i += 1;
            }
            '/' => {
                out.push(Token { kind: TokenKind::Slash, line });
                i += 1;
            }
            '^' => {
                out.push(Token { kind: TokenKind::Caret, line });
                i += 1;
            }
            '-' => {
                if i + 1 < n && bytes[i + 1] == '>' {
                    out.push(Token { kind: TokenKind::Arrow, line });
                    i += 2;
                } else {
                    out.push(Token { kind: TokenKind::Minus, line });
                    i += 1;
                }
            }
            '=' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    out.push(Token { kind: TokenKind::EqEq, line });
                    i += 2;
                } else {
                    return Err(CircuitError::parse(line, "single `=` (expected `==`)"));
                }
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < n && bytes[j] != '"' {
                    if bytes[j] == '\n' {
                        return Err(CircuitError::parse(line, "unterminated string"));
                    }
                    j += 1;
                }
                if j >= n {
                    return Err(CircuitError::parse(line, "unterminated string"));
                }
                let s: String = bytes[start..j].iter().collect();
                out.push(Token { kind: TokenKind::Str(s), line });
                i = j + 1;
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                let mut j = i;
                let mut seen_e = false;
                while j < n {
                    let d = bytes[j];
                    if d.is_ascii_digit() || d == '.' {
                        j += 1;
                    } else if (d == 'e' || d == 'E') && !seen_e {
                        seen_e = true;
                        j += 1;
                        if j < n && (bytes[j] == '+' || bytes[j] == '-') {
                            j += 1;
                        }
                    } else {
                        break;
                    }
                }
                let text: String = bytes[start..j].iter().collect();
                let kind = match text.parse::<u64>() {
                    Ok(v) => TokenKind::Int(v),
                    Err(_) => TokenKind::Number(text.parse().map_err(|_| {
                        CircuitError::parse(line, format!("bad number `{text}`"))
                    })?),
                };
                out.push(Token { kind, line });
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < n && (bytes[j].is_ascii_alphanumeric() || bytes[j] == '_') {
                    j += 1;
                }
                let text: String = bytes[start..j].iter().collect();
                out.push(Token { kind: TokenKind::Ident(text), line });
                i = j;
            }
            other => {
                return Err(CircuitError::parse(line, format!("unexpected character `{other}`")));
            }
        }
    }
    out.push(Token { kind: TokenKind::Eof, line });
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_basic_statement() {
        let toks = tokenize("h q[0];").unwrap();
        let kinds: Vec<_> = toks.iter().map(|t| t.kind.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::Ident("h".into()),
                TokenKind::Ident("q".into()),
                TokenKind::LBracket,
                TokenKind::Int(0),
                TokenKind::RBracket,
                TokenKind::Semicolon,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn strips_comments_and_counts_lines() {
        let toks = tokenize("// header\nqreg q[1]; // trailing\nh q[0];").unwrap();
        let h = toks
            .iter()
            .find(|t| t.kind == TokenKind::Ident("h".into()))
            .unwrap();
        assert_eq!(h.line, 3);
    }

    #[test]
    fn arrow_and_eqeq() {
        let toks = tokenize("measure q -> c; if (c == 2)").unwrap();
        assert!(toks.iter().any(|t| t.kind == TokenKind::Arrow));
        assert!(toks.iter().any(|t| t.kind == TokenKind::EqEq));
    }

    #[test]
    fn scientific_notation() {
        let toks = tokenize("rx(1.5e-3)").unwrap();
        assert!(toks
            .iter()
            .any(|t| matches!(t.kind, TokenKind::Number(v) if (v - 1.5e-3).abs() < 1e-12)));
    }

    #[test]
    fn rejects_single_equals() {
        assert!(tokenize("if (c = 1)").is_err());
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(tokenize("include \"qelib1.inc;").is_err());
    }
}
