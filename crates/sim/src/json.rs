//! The one JSON writer. Every report, dump, trace and payload implements
//! [`ToJson`] and is written through [`Seq`], so the format is decided here
//! once: every string (keys and run-time names included) is escaped, a
//! finite float is written in Rust's shortest round-trip form and any other
//! as `null`, and members are separated as their [`Layout`] says. The bytes
//! are pinned by `json_outputs_are_pinned` (`crates/bench/tests/json_pinned.rs`):
//! `metrics_fingerprint` hashes [`Metric`](crate::Metric) JSON.

use std::fmt::Write;

/// A value the writer can render.
pub trait ToJson {
    /// Append this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);

    /// This value's JSON text.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// How a container lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// No whitespace: `{"a":1,"b":[2,3]}`.
    Compact,
    /// One member per line after the indent and `": "` after keys, so that
    /// a changed row of the committed `REPRO.json` is one changed line.
    Lines(&'static str),
}

/// The members of an object or an array being written.
pub struct Seq<'a> {
    out: &'a mut String,
    layout: Layout,
    first: bool,
}

impl Seq<'_> {
    /// Write the object member `key: value`.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        let colon = if self.layout == Layout::Compact { ":" } else { ": " };
        self.item(key).out.push_str(colon);
        value.write_json(self.out);
        self
    }

    /// Write the array item `value`.
    pub fn item(&mut self, value: impl ToJson) -> &mut Self {
        if !std::mem::take(&mut self.first) {
            self.out.push_str(if self.layout == Layout::Compact { "," } else { ",\n" });
        }
        if let Layout::Lines(indent) = self.layout {
            self.out.push_str(indent);
        }
        value.write_json(self.out);
        self
    }
}

struct Container<F>(&'static str, Layout, F);

impl<F: Fn(&mut Seq<'_>)> ToJson for Container<F> {
    fn write_json(&self, out: &mut String) {
        let newline = if self.1 == Layout::Compact { "" } else { "\n" };
        out.extend([&self.0[..1], newline]);
        (self.2)(&mut Seq { out: &mut *out, layout: self.1, first: true });
        out.extend([newline, &self.0[1..]]);
    }
}

/// Write the compact object whose members `fields` writes.
pub fn object(out: &mut String, fields: impl Fn(&mut Seq<'_>)) {
    obj(Layout::Compact, fields).write_json(out);
}

/// An object whose members `fields` writes with [`Seq::field`].
pub fn obj(layout: Layout, fields: impl Fn(&mut Seq<'_>)) -> impl ToJson {
    Container("{}", layout, fields)
}

/// An array whose members `items` writes with [`Seq::item`].
pub fn arr(layout: Layout, items: impl Fn(&mut Seq<'_>)) -> impl ToJson {
    Container("[]", layout, items)
}

/// An array of `items`, laid out as `layout`.
pub fn each<'a, T: ToJson>(layout: Layout, items: &'a [T]) -> impl ToJson + 'a {
    arr(layout, move |a| {
        for v in items {
            a.item(v);
        }
    })
}

/// The compact object of `fields`.
pub fn flat<'a>(fields: &'a [(&'a str, &'a dyn ToJson)]) -> impl ToJson + 'a {
    obj(Layout::Compact, move |o| {
        for (key, value) in fields {
            o.field(key, value);
        }
    })
}

/// Text that is already JSON, written verbatim.
pub struct Raw<'a>(pub &'a str);

/// `impl<$generics> ToJson for $t`, writing `$v: &$t` into `$out` with
/// `$body`.
macro_rules! impl_to_json {
    ($([$($g:tt)*] $t:ty: |$v:ident, $out:ident| $body:expr;)*) => {$(
        impl<$($g)*> ToJson for $t {
            fn write_json(&self, $out: &mut String) {
                let $v = self;
                $body;
            }
        }
    )*};
}

impl_to_json! {
    [T: ToJson + ?Sized] &T: |v, out| (**v).write_json(out);
    [] Raw<'_>: |v, out| out.push_str(v.0);
    [] str: |v, out| escape(v, out);
    [] String: |v, out| escape(v, out);
    [] bool: |v, out| write!(out, "{v}").ok();
    [] u16: |v, out| write!(out, "{v}").ok();
    [] u32: |v, out| write!(out, "{v}").ok();
    [] u64: |v, out| write!(out, "{v}").ok();
    [] usize: |v, out| write!(out, "{v}").ok();
    [] f64: |v, out| if v.is_finite() { write!(out, "{v}").ok(); } else { out.push_str("null") };
    [T: ToJson] Option<T>: |v, out| match v {
        Some(v) => v.write_json(out),
        None => out.push_str("null"),
    };
    [T: ToJson] [T]: |v, out| each(Layout::Compact, v).write_json(out);
    [T: ToJson] Vec<T>: |v, out| each(Layout::Compact, v).write_json(out);
    [] (u64, u64): |v, out| each(Layout::Compact, &[v.0, v.1]).write_json(out);
}

/// `s` as a JSON string: `"` and `\` get a backslash, control characters
/// become `\u00XX`, everything else is written as is.
fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Minimal JSON well-formedness checker (recursive descent, zero deps).
///
/// Accepts exactly the RFC 8259 grammar (no trailing commas, no
/// comments); rejects trailing garbage. Returns the byte offset of the
/// first error.
pub fn validate_json(s: &str) -> Result<(), String> {
    let mut p = JsonChecker { b: s.as_bytes(), i: 0 };
    p.ws();
    p.value(0)?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(())
}

struct JsonChecker<'a> {
    b: &'a [u8],
    i: usize,
}

impl JsonChecker<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn value(&mut self, depth: usize) -> Result<(), String> {
        if depth > 256 {
            return Err(self.err("nesting too deep"));
        }
        match self.b.get(self.i) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string(),
            Some(b't') => self.lit("true"),
            Some(b'f') => self.lit("false"),
            Some(b'n') => self.lit("null"),
            Some(c) if *c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn lit(&mut self, word: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), String> {
        self.i += 1; // '{'
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            if self.b.get(self.i) != Some(&b'"') {
                return Err(self.err("expected object key"));
            }
            self.string()?;
            self.ws();
            if self.b.get(self.i) != Some(&b':') {
                return Err(self.err("expected ':'"));
            }
            self.i += 1;
            self.ws();
            self.value(depth + 1)?;
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<(), String> {
        self.i += 1; // '['
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.value(depth + 1)?;
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.i += 1; // opening '"'
        while let Some(&c) = self.b.get(self.i) {
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(());
                }
                b'\\' => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                if !self.b.get(self.i).is_some_and(u8::is_ascii_hexdigit) {
                                    return Err(self.err("bad \\u escape"));
                                }
                                self.i += 1;
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                0x00..=0x1f => return Err(self.err("raw control char in string")),
                _ => self.i += 1,
            }
        }
        Err(self.err("unterminated string"))
    }

    fn number(&mut self) -> Result<(), String> {
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Self| -> Result<(), String> {
            let start = p.i;
            while p.b.get(p.i).is_some_and(u8::is_ascii_digit) {
                p.i += 1;
            }
            if p.i == start {
                Err(p.err("expected digits"))
            } else {
                Ok(())
            }
        };
        // No leading zeros: `0` stands alone before any `.` or exponent.
        if self.b.get(self.i) == Some(&b'0') {
            self.i += 1;
        } else {
            digits(self)?;
        }
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            digits(self)?;
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            digits(self)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_escapes_and_non_finite_floats() {
        assert_eq!("a\"b\\c\n\u{1}é".to_json(), r#""a\"b\\c\u000a\u0001é""#);
        assert_eq!(0.1f64.to_json(), "0.1");
        assert_eq!(1e21f64.to_json(), "1000000000000000000000");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::NEG_INFINITY.to_json(), "null");
        assert_eq!(Some(7u64).to_json(), "7");
        assert_eq!(None::<u64>.to_json(), "null");
        assert_eq!(vec![vec![1u64, 2], vec![3]].to_json(), "[[1,2],[3]]");
        assert_eq!(Vec::<u64>::new().to_json(), "[]");
    }

    #[test]
    fn containers_in_both_layouts() {
        let v = obj(Layout::Compact, |o| {
            o.field("k\"ey", true).field("inner", obj(Layout::Compact, |_| {}));
            o.field("raw", Raw("[1]"));
        });
        assert_eq!(v.to_json(), r#"{"k\"ey":true,"inner":{},"raw":[1]}"#);
        assert_eq!(flat(&[("a", &1u64), ("b", &None::<u64>)]).to_json(), r#"{"a":1,"b":null}"#);
        assert_eq!(flat(&[]).to_json(), "{}");
        let rows = arr(Layout::Lines("  "), |a| {
            a.item(1u32).item("x");
        });
        let s = obj(Layout::Lines(""), |o| {
            o.field("a", 1u32).field("rows", &rows);
        })
        .to_json();
        assert_eq!(s, "{\n\"a\": 1,\n\"rows\": [\n  1,\n  \"x\"\n]\n}");
        assert_eq!(arr(Layout::Lines("  "), |_| {}).to_json(), "[\n\n]");
        validate_json(&s).unwrap();
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        validate_json("{\"a\":[1,2.5,-3e2,true,null,\"x\\n\"]}").unwrap();
        validate_json("[]").unwrap();
        validate_json("  {\"k\":{}}  ").unwrap();
        assert!(validate_json("{\"a\":1,}").is_err(), "trailing comma");
        assert!(validate_json("[1 2]").is_err());
        assert!(validate_json("[01]").is_err(), "leading zero");
        validate_json("[0,-0.5,0e1]").unwrap();
        assert!(validate_json("{'a':1}").is_err(), "single quotes");
        assert!(validate_json("{\"a\":1} x").is_err(), "trailing garbage");
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("nul").is_err());
    }
}
