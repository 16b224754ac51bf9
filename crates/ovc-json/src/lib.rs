//! # ovc-json — the workspace's one JSON layer
//!
//! The workspace builds without crates.io, so there is no serde.  This
//! crate is the one hand-written stand-in, shared by the bench snapshots
//! (`ovc-bench`), the lint report (`ovc-lint`) and the wire protocol
//! (`ovc-server`):
//!
//! * [`Json`] — a value type with insertion-ordered objects, accessors,
//!   and the two-space pretty layout of [`Json::to_pretty`];
//! * [`write_str`] — the one string escaper, and [`write_u64`] — the
//!   one integer writer (the server's compact frames call both
//!   directly);
//! * [`Json::parse`] — the one parser.  It copies each run of plain
//!   string bytes as one slice, so its time is linear in the input, and
//!   it refuses nesting deeper than [`MAX_DEPTH`], so a hostile document
//!   gets an `Err` instead of overflowing the stack.
//!
//! Numbers are `f64`, exact up to 2^53; larger integers (the server's
//! offset-value codes) travel as decimal strings.
//!
//! ```
//! use ovc_json::Json;
//! let doc = Json::parse(r#"{"name": "t\"1", "rows": [1, 2.5]}"#).unwrap();
//! assert_eq!(doc.get("name").and_then(Json::as_str), Some("t\"1"));
//! assert_eq!(
//!     doc.to_pretty(),
//!     "{\n  \"name\": \"t\\\"1\",\n  \"rows\": [\n    1,\n    2.5\n  ]\n}\n"
//! );
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts; deeper input
/// is an `Err`.  The parser recurses once per level, and this bound
/// keeps that recursion far inside any thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.  Object members keep insertion order, which keeps
/// emitted documents diffable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (`None` for other variants or missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

    /// Serialize with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                let pad = "  ".repeat(depth + 1);
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    out.push_str(&pad);
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            Json::Obj(members) if members.is_empty() => out.push_str("{}"),
            Json::Obj(members) => {
                let pad = "  ".repeat(depth + 1);
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(&pad);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
        }
    }

    /// Parse one JSON document (surrounding whitespace allowed, nothing
    /// else).  Never panics: malformed, truncated, or too deeply nested
    /// input is an `Err` naming the byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// Append `s` to `out` as a quoted JSON string literal.  `"` and `\`
/// are backslash-escaped, `\n` `\r` `\t` use their short forms, other
/// control characters become `\u00XX`, and everything else is copied
/// as is (non-ASCII stays raw UTF-8).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so the runs between them
    // are whole UTF-8 sequences and copy as slices.
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[plain..i]);
        plain = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Integral values below 9e15 print without a fraction (`3`, not
/// `3.0`) through [`write_u64`]; everything else uses `f64`'s shortest
/// round-trip form.
fn write_num(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let i = n as i64;
        if i < 0 {
            out.push('-');
        }
        write_u64(out, i.unsigned_abs());
    } else {
        let _ = write!(out, "{n}");
    }
}

/// `"00"` through `"99"`: the two decimal digits of every `0..100`.
const DIGIT_PAIRS: &str = "\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Append `v` to `out` in decimal — the workspace's one integer writer
/// (JSON numbers, and the server's row values and codes).  It allocates
/// nothing beyond `out`'s own growth: the value is split into base-100
/// digits on the stack, and each goes out as a two-byte slice of a pair
/// table.
#[inline]
pub fn write_u64(out: &mut String, mut v: u64) {
    // u64::MAX has 20 digits: a leading one or two, then at most nine
    // pairs.
    let mut pairs = [0u8; 10];
    let mut n = 0;
    while v >= 100 {
        pairs[n] = (v % 100) as u8;
        v /= 100;
        n += 1;
    }
    let lead = v as usize;
    if lead >= 10 {
        out.push_str(&DIGIT_PAIRS[2 * lead..2 * lead + 2]);
    } else {
        out.push(char::from(b'0' + lead as u8));
    }
    for &p in pairs[..n].iter().rev() {
        let p = 2 * p as usize;
        out.push_str(&DIGIT_PAIRS[p..p + 2]);
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), String> {
        if self.text.as_bytes()[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(format!("expected `{token}` at byte {}", self.pos))
        }
    }

    /// One value, `depth` containers deep.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'[') => self.seq(b']', |p| p.value(depth + 1)).map(Json::Arr),
            Some(b'{') => self
                .seq(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(":")?;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Json::Obj),
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(_) => self.number().map(Json::Num),
        }
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket through `close`.
    fn seq<T>(
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
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => {
                    return Err(format!(
                        "expected `,` or `{}` at byte {}",
                        close as char, self.pos
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one
            // slice.  Both are ASCII, so the run ends on a char boundary.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {}
            }
            let esc = self
                .text
                .as_bytes()
                .get(self.pos + 1)
                .copied()
                .ok_or("unterminated escape")?;
            self.pos += 2;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let mut cp = self.hex4()?;
                    // A high surrogate and a low one after it spell one
                    // supplementary-plane character; a lone surrogate
                    // is no `char` and fails below.
                    let high = (0xD800..0xDC00).contains(&cp);
                    if high && self.text[self.pos..].starts_with("\\u") {
                        self.pos += 2;
                        let low = self.hex4()?;
                        if (0xDC00..0xE000).contains(&low) {
                            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                        }
                    }
                    let c = char::from_u32(cp)
                        .ok_or_else(|| format!("invalid \\u escape before byte {}", self.pos))?;
                    out.push(c);
                }
                other => return Err(format!("unknown escape `\\{}`", other as char)),
            }
        }
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        u32::from_str_radix(digits, 16).map_err(|e| e.to_string())
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        // JSON has no spelling for infinity, so an overflowing literal
        // is refused rather than read back as one.
        self.text[start..self.pos]
            .parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::{Duration, Instant};

    /// A `figures --quick` snapshot and an `ovc-lint --json` report, as
    /// the two deleted writers emitted them.
    const FIGURES: &str = include_str!("../testdata/figures_quick.json");
    const LINT_REPORT: &str = include_str!("../testdata/lint_report.json");
    /// Wire-protocol documents: requests, a table registration, frames.
    const WIRE: [&str; 5] = [
        r#"{"plan": {"set_op": {"left": {"scan": "t1"}, "right": {"scan": "t2"}, "op": "intersect"}}}"#,
        r#"{"plan": {"sort": {"input": {"group_by": {"input": {"scan": "heap"},
            "group_len": 2, "aggs": ["count", {"sum": 2}]}}, "key_len": 2}}, "mode": "analyze"}"#,
        r#"{"name": "t\"1", "rows": [[1, 5], [2, 3]], "dirs": ["desc", "asc"], "normalized": true}"#,
        r#"{"frame":"batch","seq":0,"rows":[["1","2"],["3","4"]],"codes":["4611686018427400000","4611686018427387904"]}"#,
        r#"{"frame":"trailer","status":"ok","rows":2,"batches":1,"stats":{"col_value_cmps":3,"ovc_cmps":1},"analyze":"Scan t\n  rows out=2"}"#,
    ];

    /// `write_num`'s integral branch prints what `i64`'s `Display`
    /// printed before it went through [`write_u64`]: zero, negatives and
    /// both edges of the integral range are unchanged.
    #[test]
    fn integral_numbers_print_as_before() {
        for (n, want) in [
            (0.0, "0"),
            (-0.0, "0"),
            (7.0, "7"),
            (-1.0, "-1"),
            (-42.0, "-42"),
            (100.0, "100"),
            (-1234567.0, "-1234567"),
            (8_999_999_999_999_999.0, "8999999999999999"),
            (-8_999_999_999_999_999.0, "-8999999999999999"),
        ] {
            let mut out = String::new();
            write_num(&mut out, n);
            assert_eq!(out, want, "{n}");
            assert_eq!(out, format!("{}", n as i64), "{n}");
        }
    }

    /// The pair-table writer agrees with `Display` at every digit-count
    /// boundary and on a seeded sweep, and appends without clearing.
    #[test]
    fn write_u64_matches_display() {
        let mut edges = vec![0, u64::MAX, (1 << 53) + 1, (1 << 62) | 12345];
        let mut p = 1u64;
        for _ in 0..19 {
            edges.extend([p - 1, p, p + 1]);
            p *= 10;
        }
        edges.extend([p - 1, p, p + 1]);
        let mut rng = StdRng::seed_from_u64(0x0DEC);
        edges.extend((0..10_000).map(|_| rng.gen::<u64>() >> rng.gen_range(0..64u32)));
        for v in edges {
            let mut out = String::from("x");
            write_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn pretty_layout_is_pinned() {
        let doc = Json::Obj(vec![
            (
                "s".into(),
                Json::Str("q\"b\\s/\n\r\t\u{1}\u{8}\u{c}\u{1f} é 😀".into()),
            ),
            (
                "nums".into(),
                Json::Arr(vec![
                    Json::Num(0.0),
                    Json::Num(-3.0),
                    Json::Num(2.5),
                    Json::Num(1234567.0),
                    Json::Num(0.1),
                    Json::Num(9.0e15),
                    Json::Num(1.0e20),
                ]),
            ),
            (
                "nested".into(),
                Json::Arr(vec![
                    Json::Obj(vec![("k\"ey".into(), Json::Bool(true))]),
                    Json::Arr(vec![Json::Null, Json::Bool(false)]),
                ]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let expected = r#"{
  "s": "q\"b\\s/\n\r\t\u0001\u0008\u000c\u001f é 😀",
  "nums": [
    0,
    -3,
    2.5,
    1234567,
    0.1,
    9000000000000000,
    100000000000000000000
  ],
  "nested": [
    {
      "k\"ey": true
    },
    [
      null,
      false
    ]
  ],
  "empty_arr": [],
  "empty_obj": {}
}
"#;
        assert_eq!(doc.to_pretty(), expected);
        assert_eq!(Json::parse(expected), Ok(doc));
    }

    #[test]
    fn real_documents_round_trip_byte_for_byte() {
        for text in [FIGURES, LINT_REPORT] {
            let doc = Json::parse(text).expect("fixture parses");
            assert_eq!(doc.to_pretty(), text);
        }
        for text in WIRE {
            let doc = Json::parse(text).expect("wire document parses");
            assert_eq!(Json::parse(&doc.to_pretty()), Ok(doc));
        }
    }

    #[test]
    fn escapes_decode() {
        let doc = Json::parse(r#""\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00 é😀""#).expect("parses");
        assert_eq!(doc.as_str(), Some("\"\\/\u{8}\u{c}\n\r\té😀 é😀"));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1, 2,]",
            "{\"a\": 1,}",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "nul",
            "1e999",
            "-",
            "[1 2]",
            r#""\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\u12""#,
            r#""\u+123""#,
            r#""\x""#,
            "\"\\",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    /// 1 MiB of `[` on a 256 KiB stack is an `Err`, not a stack overflow
    /// that aborts the process; the deepest legal nesting fits too.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let parsed = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
                let deepest = Json::parse(&nest(MAX_DEPTH)).map(|_| ());
                let too_deep = Json::parse(&nest(MAX_DEPTH + 1)).map(|_| ());
                let objects = Json::parse(&format!(
                    "{}1{}",
                    "{\"a\":".repeat(MAX_DEPTH + 1),
                    "}".repeat(MAX_DEPTH + 1)
                ))
                .map(|_| ());
                let hostile = Json::parse(&"[".repeat(1 << 20)).map(|_| ());
                (deepest, too_deep, objects, hostile)
            })
            .expect("spawn parser thread")
            .join()
            .expect("parser thread must not overflow its stack");
        let (deepest, too_deep, objects, hostile) = parsed;
        assert_eq!(deepest, Ok(()));
        for err in [too_deep, objects, hostile] {
            let err = err.expect_err("past MAX_DEPTH");
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
    }

    /// A 1 MiB string parses in well under a second: plain runs are
    /// copied as slices, not re-validated byte by byte.
    #[test]
    fn long_strings_parse_in_linear_time() {
        let plain = "x".repeat(1 << 20);
        let mixed = "ab\"é\\\n😀".repeat(1 << 16);
        for s in [plain, mixed] {
            let mut text = String::new();
            write_str(&mut text, &s);
            let start = Instant::now();
            let parsed = Json::parse(&text).expect("parses");
            let took = start.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "{} bytes took {took:?}",
                text.len()
            );
            assert_eq!(parsed.as_str(), Some(s.as_str()));
        }
    }

    /// Random bytes, truncations and byte flips of real documents: every
    /// input is `Ok` or `Err`, never a panic, and every `Ok` value reads
    /// back from its own pretty form.  `RANDOM_SEED` reseeds the loop.
    #[test]
    fn hostile_bytes_never_panic() {
        let seed = std::env::var("RANDOM_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0x0A5C_1150);
        eprintln!("ovc-json fuzz seed = {seed}");
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus: Vec<&str> = [FIGURES, LINT_REPORT].into_iter().chain(WIRE).collect();
        let syntax = b"{}[]\",:\\/ u0123456789.eE-+ntrfalse\xc3\xa9\xf0\x9f";
        let (mut ok, mut err) = (0, 0);
        for _ in 0..4000 {
            let base = corpus[rng.gen_range(0..corpus.len())].as_bytes();
            let bytes: Vec<u8> = match rng.gen_range(0..3u32) {
                0 => (0..rng.gen_range(0..200usize))
                    .map(|_| {
                        if rng.gen_bool(0.8) {
                            syntax[rng.gen_range(0..syntax.len())]
                        } else {
                            rng.gen_range(0..=255u8)
                        }
                    })
                    .collect(),
                1 => base[..rng.gen_range(0..=base.len())].to_vec(),
                _ => {
                    let mut b = base.to_vec();
                    for _ in 0..rng.gen_range(1..5u32) {
                        let at = rng.gen_range(0..b.len());
                        b[at] ^= rng.gen_range(1..=255u8);
                    }
                    b
                }
            };
            let text = String::from_utf8_lossy(&bytes);
            match Json::parse(&text) {
                Ok(doc) => {
                    assert_eq!(Json::parse(&doc.to_pretty()).as_ref(), Ok(&doc), "{text:?}");
                    ok += 1;
                }
                Err(_) => err += 1,
            }
        }
        assert!(
            ok > 0 && err > 0,
            "the loop explored both outcomes: {ok} ok, {err} err"
        );
    }
}
