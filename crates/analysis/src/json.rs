//! A minimal JSON reader and writer for the committed `BENCH_*.json`
//! reports.
//!
//! The workspace is fully offline (no serde). The bench binaries write
//! their reports with [`Obj`] and [`document`], and [`parse`] reads them
//! back for the CI report gate, which names a differing value by its
//! path and prints it with `Json`'s `Display`. Both handle exactly the
//! JSON subset those reports use: objects, arrays, strings without
//! escapes beyond `\"` and `\\`, numbers, booleans, and null.

use std::collections::BTreeMap;
use std::fmt::{self, Display};

/// Row members that identify a row, in the order rows carry them. The
/// report writer copies them into each host-file row, and the report
/// gate names array rows by them.
pub const ID_FIELDS: &[&str] = &["scenario", "backend", "feature", "lane", "shards", "faults"];

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64; bench sim costs fit exactly below 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order not preserved; comparisons are by key).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }
}

impl Display for Json {
    /// Compact JSON on one line, members in key order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => f.write_str(&quote(s)),
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(Json::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
            Json::Obj(map) => {
                let members: Vec<String> = map
                    .iter()
                    .map(|(k, v)| format!("{}: {v}", quote(k)))
                    .collect();
                write!(f, "{{{}}}", members.join(", "))
            }
        }
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Parses `input` into a [`Json`] value.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at offset {pos}, found {:?}",
            b as char,
            bytes.get(*pos).map(|&c| c as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(bytes, pos),
        other => Err(format!("unexpected {other:?} at offset {pos}")),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at offset {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    other => return Err(format!("unsupported escape {other:?} at {pos}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through byte by byte;
                // the reports are ASCII in practice.
                out.push(c as char);
                *pos += 1;
            }
            None => return Err("unterminated string".into()),
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected `,` or `]`, found {other:?}")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            other => return Err(format!("expected `,` or `}}`, found {other:?}")),
        }
    }
}

/// One JSON object whose members keep insertion order: a report row, a
/// report header, or an element nested in a row. Each value is rendered
/// as it is added, so a report's bytes are exactly what its writer chose.
#[derive(Debug, Clone, Default)]
pub struct Obj(Vec<(&'static str, String)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// A member rendered by `Display`: integers and booleans.
    pub fn num(mut self, key: &'static str, v: impl Display) -> Self {
        self.0.push((key, v.to_string()));
        self
    }

    /// A float with `decimals` digits after the point.
    pub fn fixed(self, key: &'static str, v: f64, decimals: usize) -> Self {
        self.num(key, format!("{v:.decimals$}"))
    }

    /// A string member.
    pub fn str(self, key: &'static str, v: &str) -> Self {
        self.num(key, quote(v))
    }

    /// An array of values rendered by `Display`.
    pub fn nums<T: Display>(self, key: &'static str, items: impl IntoIterator<Item = T>) -> Self {
        let items: Vec<String> = items.into_iter().map(|v| v.to_string()).collect();
        self.num(key, format!("[{}]", items.join(", ")))
    }

    /// An array of objects, each on the same line.
    pub fn objs(self, key: &'static str, items: &[Obj]) -> Self {
        self.nums(key, items.iter().map(Obj::inline))
    }

    /// The members whose key passes `keep`, in order.
    pub fn filter(&self, keep: impl Fn(&str) -> bool) -> Obj {
        Obj(self.0.iter().filter(|(k, _)| keep(k)).cloned().collect())
    }

    /// Whether the object has no members.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The object on one line: `{"key": value, ...}`.
    pub fn inline(&self) -> String {
        let members: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", members.join(", "))
    }
}

/// A report document: `header`'s members one per line, then the array
/// `section` holding `rows`, one row per line.
pub fn document(header: &Obj, section: &str, rows: &[Obj]) -> String {
    let mut out = String::from("{\n");
    for (key, value) in &header.0 {
        out.push_str(&format!("  \"{key}\": {value},\n"));
    }
    out.push_str(&format!("  \"{section}\": [\n"));
    let rows: Vec<String> = rows.iter().map(|r| format!("    {}", r.inline())).collect();
    if !rows.is_empty() {
        out.push_str(&rows.join(",\n"));
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bench_shaped_report() {
        let doc = r#"{
  "seed": 42,
  "rows": [
    {"backend": "ebpf", "shards": 1, "sim_elapsed_ns": 400000, "ok": true},
    {"backend": "safe-ext", "shards": 2, "sim_elapsed_ns": 50110.5, "ok": false}
  ]
}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("seed"), Some(&Json::Num(42.0)));
        let Some(Json::Arr(rows)) = v.get("rows") else {
            panic!("rows is not an array: {v}")
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("backend"), Some(&Json::Str("ebpf".into())));
        assert_eq!(rows[1].get("sim_elapsed_ns"), Some(&Json::Num(50110.5)));
        assert_eq!(rows[1].get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn displays_as_compact_json() {
        let v = parse(r#"{"b": [1, 0.5, null], "a": "q\"x", "c": {"t": true}}"#).unwrap();
        assert_eq!(
            v.to_string(),
            r#"{"a": "q\"x", "b": [1, 0.5, null], "c": {"t": true}}"#
        );
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::Num(8.0).to_string(), "8");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn writer_output_round_trips_byte_exact() {
        let row = Obj::new()
            .str("backend", "a\"b")
            .num("ok", true)
            .fixed("pps", 1234.56, 0)
            .nums("counts", [1u64, 2])
            .objs("stages", &[Obj::new().num("n", 3)]);
        let text = document(&Obj::new().num("seed", 42), "rows", &[row]);
        assert_eq!(
            text,
            "{\n  \"seed\": 42,\n  \"rows\": [\n    {\"backend\": \"a\\\"b\", \"ok\": true, \
             \"pps\": 1235, \"counts\": [1, 2], \"stages\": [{\"n\": 3}]}\n  ]\n}\n"
        );
        let v = parse(&text).unwrap();
        let Some(Json::Arr(rows)) = v.get("rows") else {
            panic!("rows is not an array: {v}")
        };
        assert_eq!(rows[0].get("backend"), Some(&Json::Str("a\"b".into())));
    }

    #[test]
    fn filter_keeps_member_order() {
        let row = Obj::new().num("a", 1).num("host_x", 2).num("b", 3);
        assert_eq!(
            row.filter(|k| k != "host_x").inline(),
            r#"{"a": 1, "b": 3}"#
        );
        assert!(row.filter(|k| k == "none").is_empty());
    }
}
