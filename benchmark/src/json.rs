//! A small JSON writer and reader (the build has no serde).
//!
//! The writer renders the result files, the trace file and the driver's
//! last-line object; the reader loads result files for `compare` and
//! `BENCHMARK.json` for the tests.

use std::collections::BTreeMap;

/// Escapes a string for a JSON string literal (without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a float with every digit it was measured with (shortest text
/// that round-trips); non-finite values become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders a JSON array from already-rendered elements.
pub fn array(elems: &[String]) -> String {
    format!("[{}]", elems.join(", "))
}

/// An object under construction; keys keep insertion order.
#[derive(Debug, Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    /// Creates an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an already-rendered JSON value.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.0.push((key.to_string(), json.to_string()));
        self
    }

    /// Adds a string.
    pub fn str(&mut self, key: &str, val: &str) -> &mut Self {
        self.raw(key, &format!("\"{}\"", escape(val)))
    }

    /// Adds a float.
    pub fn num(&mut self, key: &str, val: f64) -> &mut Self {
        self.raw(key, &number(val))
    }

    /// Adds an unsigned integer.
    pub fn int(&mut self, key: &str, val: u64) -> &mut Self {
        self.raw(key, &val.to_string())
    }

    /// Adds a boolean.
    pub fn bool(&mut self, key: &str, val: bool) -> &mut Self {
        self.raw(key, if val { "true" } else { "false" })
    }

    /// Renders on one line.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (sorted by key).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Nesting limit: input comes from files on disk, so recursion is bounded.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.value_at(0)
    }

    fn value_at(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end")),
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Object(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("expected ':'"));
                    }
                    map.insert(key, self.value_at(depth + 1)?);
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    if self.eat("}") {
                        return Ok(Value::Object(map));
                    }
                    return Err(self.err("expected ',' or '}'"));
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value_at(depth + 1)?);
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    if self.eat("]") {
                        return Ok(Value::Array(items));
                    }
                    return Err(self.err("expected ',' or ']'"));
                }
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("bad number"))?;
                text.parse()
                    .map(Value::Num)
                    .map_err(|_| self.err("bad number"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected string"));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.err("bad UTF-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = *self.bytes.get(self.pos).ok_or(self.err("bad escape"))?;
                    self.pos += 1;
                    match c {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(self.err("bad \\u escape"))?;
                            self.pos += 4;
                            let ch = char::from_u32(hex).unwrap_or('\u{FFFD}');
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_parses_back() {
        let mut o = Obj::new();
        o.str("name", "a \"quoted\"\nline")
            .num("x", 1.25)
            .int("n", 7)
            .bool("ok", true)
            .raw("list", &array(&[number(1.0), number(f64::NAN)]));
        let v = parse(&o.render()).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a \"quoted\"\nline"));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(1.25));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("list").unwrap().as_array().unwrap(),
            &[Value::Num(1.0), Value::Null]
        );
    }

    #[test]
    fn numbers_keep_all_digits() {
        let x = 0.123_456_789_012_345_68_f64;
        assert_eq!(number(x).parse::<f64>().unwrap(), x);
    }

    #[test]
    fn malformed_input_is_an_error() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "\"abc", "{} x", "tru"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }
}
