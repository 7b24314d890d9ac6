//! The workspace's one JSON module: an ordered value type, its parser,
//! the compact and pretty renderers, and the results-document writer.
//!
//! The repo has no serde dependency. Every results document (figure
//! results, analyzer and explorer reports, happens-before graphs) is
//! built as a [`Json`] value and written through [`Json::pretty`], so
//! they all share one layout; the tests that pin committed results read
//! them back with [`Json::parse`]. The Perfetto exporter streams its
//! events by hand and shares only the string escaper ([`quote`]).
//!
//! Objects preserve insertion order (`Vec` of pairs, not a map), so a
//! document lists its fields in the order its producer built them.
//!
//! # Examples
//!
//! ```
//! use obs::json::Json;
//!
//! assert_eq!(obs::json::quote(r#"a"b\c"#), r#""a\"b\\c""#);
//! assert_eq!(obs::json::quote("tab\there"), r#""tab\there""#);
//!
//! let doc = Json::parse(
//!     r#"{ "empty": [], "none": {}, "flat": [1.0, "a"], "pair": { "x": 2, "y": [null] },
//!          "rows": [["a"], []], "nested": { "inner": [{ "k": 0.5 }] } }"#,
//! )
//! .unwrap();
//! assert_eq!(
//!     doc.pretty(),
//!     r#"{
//!   "empty": [],
//!   "none": {},
//!   "flat": [1, "a"],
//!   "pair": { "x": 2, "y": [null] },
//!   "rows": [
//!     ["a"],
//!     []
//!   ],
//!   "nested": {
//!     "inner": [
//!       { "k": 0.5 }
//!     ]
//!   }
//! }
//! "#
//! );
//! assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
//! ```

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Environment variable redirecting every results document to another
/// directory.
pub const RESULTS_DIR_VAR: &str = "DAB_RESULTS_DIR";

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (held as `f64`; the results documents stay well
    /// inside the 2^53 integer-exact range, and 64-bit digests are
    /// written as hex strings).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

/// Numbers: every counter in the results documents stays below 2^53, so
/// the conversion to `f64` is exact.
macro_rules! json_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Self {
                Json::Num(n as f64)
            }
        }
    )*};
}
json_from_number!(f64, u64, usize, u32);

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl Json {
    /// An object from `(key, value)` pairs, in the given order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// An array of strings.
    pub fn strs(items: &[String]) -> Json {
        Json::Arr(items.iter().map(|s| Json::from(s.as_str())).collect())
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Member lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering (`{"k": v}`, `[a, b]`; round-trips
    /// through [`Json::parse`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, None);
        out
    }

    /// The results-document layout, newline-terminated. The root object
    /// puts one member per line; an array breaks to one element per line
    /// iff any element is a container; any other object breaks iff it
    /// holds a broken child. Everything else is written inline as
    /// `{ "k": v, "k": v }` / `[a, b]`. Round-trips through
    /// [`Json::parse`].
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        let root_breaks = matches!(self, Json::Obj(m) if !m.is_empty());
        self.write_into(&mut out, Some((0, root_breaks)));
        out.push('\n');
        out
    }

    /// Whether [`Json::pretty`] spreads this (non-root) value over lines.
    fn breaks(&self) -> bool {
        match self {
            Json::Arr(items) => items
                .iter()
                .any(|v| matches!(v, Json::Arr(_) | Json::Obj(_))),
            Json::Obj(members) => members.iter().any(|(_, v)| v.breaks()),
            _ => false,
        }
    }

    /// Writes the compact form when `pretty` is `None`, else the pretty
    /// form at `(indent, force_break)`.
    fn write_into(&self, out: &mut String, pretty: Option<(usize, bool)>) {
        let (open, close, len, is_obj) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => return push_num(out, *x),
            Json::Str(s) => return push_quoted(out, s),
            Json::Arr(items) => ('[', ']', items.len(), false),
            Json::Obj(members) => ('{', '}', members.len(), true),
        };
        let indent = pretty.map_or(0, |(indent, _)| indent);
        let broken = pretty.is_some_and(|(_, force)| force || self.breaks());
        // Inline objects of the pretty layout pad their braces: `{ "k": v }`.
        let pad = pretty.is_some() && !broken && is_obj && len > 0;
        out.push(open);
        for i in 0..len {
            if broken {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.extend(std::iter::repeat_n(' ', indent + 2));
            } else if i > 0 {
                out.push_str(", ");
            } else if pad {
                out.push(' ');
            }
            let value = match self {
                Json::Arr(items) => &items[i],
                Json::Obj(members) => {
                    push_quoted(out, &members[i].0);
                    out.push_str(": ");
                    &members[i].1
                }
                _ => unreachable!("only containers reach the member loop"),
            };
            value.write_into(out, pretty.map(|_| (indent + 2, false)));
        }
        if broken {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', indent));
        } else if pad {
            out.push(' ');
        }
        out.push(close);
    }
}

/// The one number spelling: integer-valued numbers without a fraction,
/// any other finite number in its shortest round-trip form (`f64`'s
/// `Display`), and non-finite numbers as `null` (JSON has no NaN).
fn push_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

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

/// The directory results documents are written to: `$DAB_RESULTS_DIR`
/// when set and not empty, else the repository's `results/`.
pub fn results_dir() -> PathBuf {
    crate::env::dir(RESULTS_DIR_VAR)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"))
}

/// Writes `doc` in the [`Json::pretty`] layout to `dir/file`, creating
/// `dir` first, and returns the path written. The error names the path.
pub fn write(dir: &Path, file: &str, doc: &Json) -> io::Result<PathBuf> {
    let path = dir.join(file);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, doc.pretty()))
        .map_err(|e| io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display())))?;
    Ok(path)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self
                .items(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            Some(b'[') => self.items(b']', Self::value).map(Json::Arr),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// The comma-separated items of the container opening at the current
    /// byte, through its `close` byte.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                other => {
                    return Err(format!(
                        "expected ',' or '{}' at byte {}, found {:?}",
                        close as char,
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(format!("invalid escape '\\{}'", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Consume one whole UTF-8 scalar (input is a &str, so
                    // the byte stream is valid UTF-8 by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|e| format!("invalid utf-8 in string: {e}"))?;
                    let c = rest.chars().next().expect("peeked byte exists");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hex4 = |p: &mut Self| -> Result<u32, String> {
            let end = p.pos + 4;
            let slice = p
                .bytes
                .get(p.pos..end)
                .ok_or_else(|| "truncated \\u escape".to_string())?;
            let s = std::str::from_utf8(slice).map_err(|_| "bad \\u escape".to_string())?;
            let v = u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape '{s}'"))?;
            p.pos = end;
            Ok(v)
        };
        let hi = hex4(self)?;
        // Surrogate pair: \uD800-\uDBFF must be followed by \uDC00-\uDFFF.
        if (0xD800..0xDC00).contains(&hi) {
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err("lone high surrogate".to_string());
            }
            self.pos += 2;
            let lo = hex4(self)?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err("invalid low surrogate".to_string());
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            return char::from_u32(code).ok_or_else(|| "invalid surrogate pair".to_string());
        }
        char::from_u32(hi).ok_or_else(|| format!("invalid \\u{hi:04x}"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number '{text}' at byte {start}: {e}"))
    }
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

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" -1.5e2 ").unwrap(), Json::Num(-150.0));
        assert_eq!(
            Json::parse("\"a\\nb\\u0041\"").unwrap(),
            Json::Str("a\nbA".to_string())
        );
    }

    #[test]
    fn parses_nested_containers_in_order() {
        let doc = Json::parse(r#"{ "b": [1, {"x": true}], "a": "s" }"#).unwrap();
        let Json::Obj(members) = &doc else {
            panic!("not an object")
        };
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        assert_eq!(doc.get("b").unwrap().as_arr().unwrap()[0], Json::Num(1.0));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("{\"a\": ").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_string())
        );
        assert!(Json::parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn render_round_trips() {
        let text = r#"{ "s": "a\"b", "n": 1.25, "i": 42, "arr": [true, null] }"#;
        let doc = Json::parse(text).unwrap();
        let rendered = doc.render();
        assert_eq!(Json::parse(&rendered).unwrap(), doc);
        assert!(rendered.contains("\"i\": 42"), "{rendered}");
    }

    #[test]
    fn numbers_have_one_spelling() {
        let spell = |x: f64| Json::Num(x).render();
        assert_eq!(spell(2.0), "2");
        assert_eq!(spell(-3.0), "-3");
        assert_eq!(spell(1.5), "1.5");
        assert_eq!(spell(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(spell(f64::NAN), "null");
        assert_eq!(spell(f64::INFINITY), "null");
        assert_eq!(Json::from(u64::from(u32::MAX)).render(), "4294967295");
    }

    #[test]
    fn parses_the_real_results_schema() {
        let doc = Json::parse(
            r#"{
  "target": "fig10_overall",
  "host": { "nproc": 1 },
  "runs": [
    { "label": "atomic_sum_64k/dab", "seed": 1,
      "cycles": 3269, "digest": "0xe88d0f3e5effc624", "wall_secs": 0.165340 }
  ],
  "metrics": { "geomean_dab": 1.2373 }
}"#,
        )
        .unwrap();
        let run = &doc.get("runs").unwrap().as_arr().unwrap()[0];
        assert_eq!(run.get("cycles").unwrap().as_f64(), Some(3269.0));
        assert_eq!(
            run.get("digest").unwrap().as_str(),
            Some("0xe88d0f3e5effc624")
        );
    }

    #[test]
    fn results_dir_override() {
        std::env::set_var(RESULTS_DIR_VAR, "/tmp/dab-results-test");
        assert_eq!(results_dir(), PathBuf::from("/tmp/dab-results-test"));
        std::env::remove_var(RESULTS_DIR_VAR);
        assert!(results_dir().ends_with("results"));
    }

    #[test]
    fn write_fails_loudly_under_a_regular_file() {
        let file = std::env::temp_dir().join(format!("dab-json-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, "").unwrap();
        let err = write(&file.join("sub"), "x.json", &Json::Null).unwrap_err();
        std::fs::remove_file(&file).unwrap();
        assert!(
            err.to_string()
                .contains(&*file.join("sub").join("x.json").to_string_lossy()),
            "{err}"
        );
    }
}
