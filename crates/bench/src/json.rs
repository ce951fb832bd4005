//! The `--json` documents as data: one JSON [`Value`], one writer, one
//! parser. Each writer builds its document inline (its module doc holds
//! the schema) and hands it to [`write()`]; readers [`parse`] it back.
//! The offline build has no JSON library.
//!
//! The layout is fixed so two runs' documents diff cleanly: objects keep
//! insertion order; an object or array whose
//! members are all scalars prints on one line, any other prints one
//! member per line. Integral numbers print without decimals, other finite
//! numbers at three decimal places, and non-finite numbers (a degenerate,
//! zero-duration run) as `null`, so a reader drops the point instead of
//! reading it as a genuine zero.

use std::fmt::{self, Write as _};

/// One JSON value; objects keep their members in insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Exact for every count the documents hold (the largest,
    /// `ledger_bytes`, is ~3·10⁸).
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs, in order.
    pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn fmt_at(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) if !n.is_finite() => f.write_str("null"),
            Value::Num(n) if n.fract() == 0.0 => write!(f, "{n:.0}"),
            Value::Num(n) => write!(f, "{n:.3}"),
            Value::Str(s) => write_str(f, s),
            Value::Arr(items) => fmt_members(f, depth, "[]", items.iter().map(|v| (None, v))),
            Value::Obj(pairs) => {
                fmt_members(f, depth, "{}", pairs.iter().map(|(k, v)| (Some(k.as_str()), v)))
            }
        }
    }
}

/// Prints a container's members between the two characters of
/// `brackets`: on one line when every member is a scalar, else one member
/// per line, indented two spaces per level.
fn fmt_members<'a>(
    f: &mut fmt::Formatter<'_>,
    depth: usize,
    brackets: &str,
    members: impl Iterator<Item = (Option<&'a str>, &'a Value)> + Clone,
) -> fmt::Result {
    let one_line = members.clone().all(|(_, v)| !matches!(v, Value::Arr(_) | Value::Obj(_)));
    f.write_str(&brackets[..1])?;
    for (i, (key, v)) in members.enumerate() {
        if i > 0 {
            f.write_str(if one_line { ", " } else { "," })?;
        }
        if !one_line {
            write!(f, "\n{:w$}", "", w = 2 * (depth + 1))?;
        }
        if let Some(key) = key {
            write_str(f, key)?;
            f.write_str(": ")?;
        }
        v.fmt_at(f, depth + 1)?;
    }
    if !one_line {
        write!(f, "\n{:w$}", "", w = 2 * depth)?;
    }
    f.write_str(&brackets[1..])
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if c < ' ' => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_at(f, 0)
    }
}

/// `From` impls, so a document builds as `Value::obj([("cores", n.into())])`.
macro_rules! impl_from {
    ($($t:ty => |$x:ident| $v:expr;)*) => {
        $(impl From<$t> for Value {
            fn from($x: $t) -> Value {
                $v
            }
        })*
    };
}

impl_from! {
    bool => |b| Value::Bool(b);
    f64 => |n| Value::Num(n);
    u64 => |n| Value::Num(n as f64);
    usize => |n| Value::Num(n as f64);
    &str => |s| Value::Str(s.to_string());
    String => |s| Value::Str(s);
    Vec<Value> => |items| Value::Arr(items);
}

/// Writes `doc` to `path` (truncate + write) and says so. A failed write
/// exits with status 1: a run whose document did not land has failed.
pub fn write(path: &str, doc: &Value) {
    if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
        eprintln!("could not write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

/// Parses one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { s: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.ws();
    (p.pos == p.s.len()).then_some(v).ok_or_else(|| p.err("trailing characters"))
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn ws(&mut self) {
        while self.s.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.eat(b).then_some(()).ok_or_else(|| self.err(&format!("expected '{}'", b as char)))
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        let rest = &self.s[self.pos..];
        for (word, v) in [("null", Value::Null), ("true", true.into()), ("false", false.into())] {
            if rest.starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(v);
            }
        }
        match rest.first() {
            None => Err(self.err("unexpected end of input")),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                self.members(b']', Self::value).map(Value::Arr)
            }
            Some(b'{') => {
                self.pos += 1;
                let member = |p: &mut Self| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                };
                self.members(b'}', member).map(Value::Obj)
            }
            Some(_) => self.number(),
        }
    }

    /// Comma-separated members up to `close`, the opener consumed.
    fn members<T>(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        if self.eat(close) {
            return Ok(out);
        }
        out.push(member(self)?);
        while self.eat(b',') {
            out.push(member(self)?);
        }
        self.expect(close)?;
        Ok(out)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self.s.get(self.pos).is_some_and(|b| b"0123456789+-.eE".contains(b)) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Num)
            .ok_or_else(|| format!("bad value at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.s.get(self.pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            // The input is a `str` cut at ASCII bytes, so this is UTF-8.
            out.push_str(&String::from_utf8_lossy(&self.s[start..self.pos]));
            let Some(&b) = self.s.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let esc = self.s.get(self.pos).copied();
            self.pos += 1;
            let simple = br#""\/bfnrt"#.iter().position(|&e| Some(e) == esc);
            out.push(match (simple, esc) {
                (Some(i), _) => ['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i],
                (None, Some(b'u')) => {
                    let c = (self.s.get(self.pos..self.pos + 4))
                        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                        .and_then(|h| u32::from_str_radix(&String::from_utf8_lossy(h), 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    c
                }
                _ => return Err(self.err("bad escape")),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random document `depth` levels deep: every value kind, keys and
    /// strings with characters that need escaping, and numbers the
    /// writer prints exactly (integers and thousandths).
    fn generated(rng: &mut StdRng, depth: u32) -> Value {
        let text = |rng: &mut StdRng| -> String {
            let len = rng.gen_range(0..8usize);
            (0..len)
                .map(|_| ['a', 'Z', '_', ' ', '"', '\\', '\n', '\u{7}', 'é'][rng.gen_range(0..9)])
                .collect()
        };
        let kind = if depth == 0 { rng.gen_range(0..4u32) } else { rng.gen_range(0..6u32) };
        match kind {
            0 => [Value::Null, Value::Bool(false), Value::Bool(true)][rng.gen_range(0..3)].clone(),
            1 => Value::Num(rng.gen_range(0..1_000_000_000u64) as f64),
            2 => Value::Num(rng.gen_range(-1_000_000..1_000_000i64) as f64 / 1000.0),
            3 => Value::Str(text(rng)),
            4 => Value::Arr((0..rng.gen_range(0..5)).map(|_| generated(rng, depth - 1)).collect()),
            _ => Value::Obj(
                (0..rng.gen_range(0..5)).map(|_| (text(rng), generated(rng, depth - 1))).collect(),
            ),
        }
    }

    #[test]
    fn generated_documents_round_trip() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let doc = generated(&mut rng, 4);
            assert_eq!(parse(&doc.to_string()), Ok(doc));
        }
    }

    #[test]
    fn float_writer_rejects_non_finite_values() {
        // Raw `NaN`/`inf` is not JSON: a degenerate point reads back as null.
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Value::obj([("mpps", n.into())]);
            assert_eq!(doc.to_string(), "{\"mpps\": null}");
            assert_eq!(parse(&doc.to_string()), Ok(Value::obj([("mpps", Value::Null)])));
        }
        // Finite values: integral ones without decimals, others at three.
        let printed = |n: f64| Value::Num(n).to_string();
        assert_eq!(printed(312_000_000.0), "312000000");
        assert_eq!(printed(1.0), "1");
        assert_eq!(printed(0.0), "0");
        assert_eq!(printed(308.25), "308.250");
        assert_eq!(printed(3.2446), "3.245");
        assert_eq!(printed(-1.5), "-1.500");
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "quote \" back \\ newline \n tab \t bell \u{7} é";
        let written = Value::from(s).to_string();
        assert_eq!(written, r#""quote \" back \\ newline \u000a tab \u0009 bell \u0007 é""#);
        assert_eq!(parse(&written), Ok(Value::from(s)));
        assert_eq!(parse(r#""\n\t\/\b\f\r\u00e9""#), Ok(Value::from("\n\t/\u{8}\u{c}\ré")));
    }

    #[test]
    fn layout_is_one_line_per_scalar_container() {
        let doc = Value::obj([
            ("schema", 4u64.into()),
            ("records", vec![Value::obj([("exec", "threaded".into())])].into()),
            ("curve", vec![Value::Num(1.5), Value::Null].into()),
        ]);
        let text = doc.to_string();
        assert_eq!(
            text,
            "{\n  \"schema\": 4,\n  \"records\": [\n    {\"exec\": \"threaded\"}\n  ],\
             \n  \"curve\": [1.500, null]\n}"
        );
        assert_eq!(parse(&text), Ok(doc));
    }

    #[test]
    fn empty_record_set_is_valid() {
        let doc = Value::obj([("records", Vec::new().into()), ("state", Value::obj([]))]);
        assert_eq!(doc.to_string(), "{\n  \"records\": [],\n  \"state\": {}\n}");
        assert_eq!(parse(&doc.to_string()), Ok(doc));
    }

    #[test]
    fn malformed_input_is_an_error() {
        let doc = Value::obj([("records", vec![Value::obj([("mpps", 3.25.into())])].into())]);
        let text = doc.to_string();
        let truncated = &text[..text.len() / 2];
        let bad = ["", truncated, "[1,]", "{\"a\": 1,}", "NaN", "{\"a\": NaN}", "{\"a\" 1}"];
        for bad in bad.into_iter().chain(["tru", "1 2", "\"abc", "\"\\x\"", "\"\\u12\"", "1e999"]) {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
