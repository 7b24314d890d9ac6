//! JSON string literals for the workspace's hand-rendered JSON writers.
//!
//! The repo has no serde dependency: results files, analyzer reports and
//! trace exports render their JSON by hand with a fixed field order. They
//! share this one escaper, so every writer quotes strings the same way.
//!
//! # Examples
//!
//! ```
//! assert_eq!(obs::json::quote(r#"a"b\c"#), r#""a\"b\\c""#);
//! assert_eq!(obs::json::quote("tab\there"), r#""tab\there""#);
//! ```

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal: quotes, backslashes and
/// control characters are escaped, everything else is copied verbatim.
pub fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal (see [`push_quoted`]).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(quote("plain"), "\"plain\"");
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quote("n\nr\rt\t"), "\"n\\nr\\rt\\t\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        assert_eq!(quote("µs"), "\"µs\"");
    }
}
