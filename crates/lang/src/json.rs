//! A minimal, dependency-free JSON reader/writer.
//!
//! The `.bti`, `.gx` and `.sig` artefact files are JSON so that they
//! stay inspectable with standard tools, but this repository builds in
//! environments with no package registry, so the implementation is
//! hand-rolled: a [`Json`] tree, a recursive-descent parser and a
//! writer, plus the [`ToJson`]/[`FromJson`] traits each crate implements
//! for its on-disk types.
//!
//! Numbers are unsigned integers up to `u128` (binding-time masks are
//! 128-bit); floats are not needed by any artefact format and are
//! rejected.
//!
//! The decode path is panic-free by policy: artefact files come from
//! disk and may be truncated or corrupted, so every malformed input
//! must surface as a [`JsonError`], never an unwrap.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (masks need the full 128 bits).
    Num(u128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved when writing.
    Obj(Vec<(String, Json)>),
}

/// A JSON parse or decode error with a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError(format!("missing field `{key}`"))),
            other => err(format!("expected object with `{key}`, got {}", other.kind())),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected string, got {}", other.kind())),
        }
    }

    /// The value as a `u128`.
    pub fn as_u128(&self) -> Result<u128, JsonError> {
        match self {
            Json::Num(n) => Ok(*n),
            other => err(format!("expected number, got {}", other.kind())),
        }
    }

    /// The value as a `u64`.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        u64::try_from(self.as_u128()?).map_err(|_| JsonError("number exceeds u64".into()))
    }

    /// The value as a `u32`.
    pub fn as_u32(&self) -> Result<u32, JsonError> {
        u32::try_from(self.as_u128()?).map_err(|_| JsonError("number exceeds u32".into()))
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        usize::try_from(self.as_u128()?).map_err(|_| JsonError("number exceeds usize".into()))
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => err(format!("expected bool, got {}", other.kind())),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => err(format!("expected array, got {}", other.kind())),
        }
    }

    /// The value as object fields.
    pub fn as_obj(&self) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => err(format!("expected object, got {}", other.kind())),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Serialises compactly (no whitespace).
    pub fn write_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises with two-space indentation.
    pub fn write_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// [`JsonError`] describing the first problem found.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Json::parse_nested(text, usize::MAX)
    }

    /// [`Json::parse`], refusing arrays and objects nested more than
    /// `max_depth` levels deep. The parser recurses once per level, so a
    /// reader of untrusted text on a small stack bounds the depth here
    /// rather than overflowing its stack.
    ///
    /// # Errors
    ///
    /// As [`Json::parse`], plus a [`JsonError`] at the first container
    /// past `max_depth`.
    pub fn parse_nested(text: &str, max_depth: usize) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, max_depth)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return err(format!("trailing characters at byte {pos}"));
        }
        Ok(v)
    }
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        // Every escaped byte is ASCII, so the unescaped run before it
        // ends on a character boundary and is copied whole.
        out.push_str(&s[run..i]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

/// Parses one value; `depth` is how many more levels of arrays and
/// objects it may open.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => err("unexpected end of input"),
        Some(b'{' | b'[') if depth == 0 => {
            err(format!("nesting exceeds the depth limit at byte {}", *pos))
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos, depth - 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth - 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            while *pos < b.len() && b[*pos].is_ascii_digit() {
                *pos += 1;
            }
            if matches!(b.get(*pos), Some(b'.' | b'e' | b'E')) {
                return err(format!("floating-point numbers are not supported (byte {start})"));
            }
            let text = std::str::from_utf8(&b[start..*pos])
                .map_err(|_| JsonError(format!("invalid utf8 in number at byte {start}")))?;
            text.parse::<u128>()
                .map(Json::Num)
                .map_err(|_| JsonError(format!("number out of range at byte {start}")))
        }
        Some(c) => err(format!("unexpected `{}` at byte {}", *c as char, *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy everything up to the next `"` or `\` as one run: both
        // are ASCII, so the run is checked as UTF-8 once and appended
        // whole, keeping decoding linear in the input.
        let rest = &b[*pos..];
        let len = rest.iter().position(|&c| c == b'"' || c == b'\\').unwrap_or(rest.len());
        let run = std::str::from_utf8(&rest[..len])
            .map_err(|_| JsonError("invalid utf8 in string".into()))?;
        out.push_str(run);
        *pos += len;
        match b.get(*pos) {
            None => return err("unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // A `\`: the only other byte a run stops at.
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = parse_hex4(b, *pos + 1)?;
                        *pos += 4;
                        out.push(unicode_escape(b, pos, code));
                    }
                    _ => return err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
        }
    }
}

/// The four hex digits of a `\u` escape starting at byte `at`.
fn parse_hex4(b: &[u8], at: usize) -> Result<u32, JsonError> {
    let hex = b.get(at..at + 4).ok_or_else(|| JsonError("truncated \\u escape".into()))?;
    let hex = std::str::from_utf8(hex).map_err(|_| JsonError("bad \\u escape".into()))?;
    u32::from_str_radix(hex, 16).map_err(|_| JsonError("bad \\u escape".into()))
}

/// The character a `\u` escape of `code` stands for, with `*pos` on
/// its last hex digit. A high surrogate followed by an escaped low one
/// is a pair, the way other encoders write characters outside the BMP:
/// the two give one character and `*pos` moves onto the second escape's
/// last digit. A lone or reversed surrogate is U+FFFD, and an escape
/// after a high surrogate that does not complete it is decoded on its
/// own.
fn unicode_escape(b: &[u8], pos: &mut usize, code: u32) -> char {
    if (0xd800..0xdc00).contains(&code) && b.get(*pos + 1..*pos + 3) == Some(b"\\u".as_slice()) {
        if let Ok(low @ 0xdc00..=0xdfff) = parse_hex4(b, *pos + 3) {
            *pos += 6;
            let pair = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            return char::from_u32(pair).unwrap_or('\u{fffd}');
        }
    }
    char::from_u32(code).unwrap_or('\u{fffd}')
}

/// Types that serialise to a [`Json`] tree.
pub trait ToJson {
    /// The JSON representation.
    fn to_json_value(&self) -> Json;

    /// Compact one-line serialisation.
    fn to_json_compact(&self) -> String {
        self.to_json_value().write_compact()
    }

    /// Pretty (indented) serialisation.
    fn to_json_pretty(&self) -> String {
        self.to_json_value().write_pretty()
    }
}

/// Types that deserialise from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Decodes the value.
    ///
    /// # Errors
    ///
    /// [`JsonError`] when the tree does not match the expected shape.
    fn from_json_value(j: &Json) -> Result<Self, JsonError>;

    /// Parses then decodes.
    ///
    /// # Errors
    ///
    /// As [`FromJson::from_json_value`], plus parse errors.
    fn from_json_str(s: &str) -> Result<Self, JsonError> {
        Self::from_json_value(&Json::parse(s)?)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json_value(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json_value(j: &Json) -> Result<Self, JsonError> {
        j.as_arr()?.iter().map(T::from_json_value).collect()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn roundtrip_document() {
        let doc = Json::obj([
            ("name", Json::str("Power")),
            ("mask", Json::Num(u128::MAX)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("items", Json::Arr(vec![Json::Num(1), Json::str("a\"b\\c\nd")])),
            ("empty", Json::Obj(vec![])),
        ]);
        for text in [doc.write_compact(), doc.write_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("not json").is_err());
        assert!(Json::parse("{\"a\":1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn full_u128_survives() {
        let n = Json::Num(u128::MAX);
        assert_eq!(Json::parse(&n.write_compact()).unwrap().as_u128().unwrap(), u128::MAX);
    }

    #[test]
    fn accessors_report_shape_errors() {
        let j = Json::parse("{\"a\": 3}").unwrap();
        assert_eq!(j.get("a").unwrap().as_u64().unwrap(), 3);
        assert!(j.get("b").is_err());
        assert!(j.as_str().is_err());
        assert!(j.get("a").unwrap().as_bool().is_err());
    }

    #[test]
    fn unicode_and_escapes() {
        let j = Json::Str("héllo \u{1}\tπ".to_string());
        let text = j.write_compact();
        assert_eq!(Json::parse(&text).unwrap(), j);
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
    }

    /// SplitMix64: a seeded generator for the random-string tests.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A string of control bytes, the characters JSON treats specially,
    /// 2-, 3- and 4-byte characters, printable ASCII and long
    /// unescaped runs.
    fn random_string(rng: &mut Rng) -> String {
        const SPECIAL: [&str; 10] =
            ["\"", "\\", "/", "é", "π", "€", "\u{ffff}", "😀", "𝄞", "\u{10ffff}"];
        let mut s = String::new();
        for _ in 0..rng.below(48) {
            match rng.below(4) {
                0 => s.push(char::from(rng.below(0x20) as u8)),
                1 => s.push_str(SPECIAL[rng.below(SPECIAL.len())]),
                2 => s.push(char::from(b' ' + rng.below(95) as u8)),
                _ => s.push_str(&"r".repeat(rng.below(2048))),
            }
        }
        s
    }

    /// The char-by-char escaper the writer's run copying replaced.
    fn reference_escape(s: &str) -> String {
        let mut out = String::from('"');
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
        out.push('"');
        out
    }

    /// Every character as a `\u` escape, astral ones as surrogate
    /// pairs: what ASCII-only encoders such as Python's `json.dumps`
    /// write.
    fn escape_all(s: &str) -> String {
        let mut out = String::from('"');
        for unit in s.encode_utf16() {
            let _ = write!(out, "\\u{unit:04X}");
        }
        out.push('"');
        out
    }

    #[test]
    fn random_strings_roundtrip_and_match_reference_escaper() {
        let mut rng = Rng(0x6d73_7065_6373);
        let controls: String = (0u8..0x20).map(char::from).collect();
        let strings = std::iter::once(controls).chain((0..200).map(|_| random_string(&mut rng)));
        for s in strings {
            let text = Json::Str(s.clone()).write_compact();
            assert_eq!(text, reference_escape(&s), "{s:?}");
            assert_eq!(Json::parse(&text).unwrap(), Json::Str(s.clone()), "{s:?}");
            assert_eq!(Json::parse(&escape_all(&s)).unwrap(), Json::Str(s.clone()), "{s:?}");
            let doc = Json::Obj(vec![(s.clone(), Json::Arr(vec![Json::Str(s.clone())]))]);
            for text in [doc.write_compact(), doc.write_pretty()] {
                assert_eq!(Json::parse(&text).unwrap(), doc, "{s:?}");
            }
        }
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_replaced() {
        let decode = |text: &str| Json::parse(text).unwrap().as_str().unwrap().to_string();
        assert_eq!(decode("\"a\\ud83d\\ude00b\""), "a😀b");
        assert_eq!(decode("\"\\uD834\\uDD1E\""), "𝄞");
        assert_eq!(decode("\"\\ud83d\\ud83d\\ude00\""), "\u{fffd}😀");
        assert_eq!(decode("\"\\ude00\\ud83d\""), "\u{fffd}\u{fffd}");
        assert_eq!(decode("\"\\ud83dx\\udc00\""), "\u{fffd}x\u{fffd}");
        assert_eq!(decode("\"\\ud83d\\u0041\\ud83d\""), "\u{fffd}A\u{fffd}");
    }

    #[test]
    fn malformed_strings_keep_their_errors() {
        let cases = [
            ("\"abc", "unterminated string"),
            ("\"ab\\", "bad escape at byte 4"),
            ("\"a\\qb\"", "bad escape at byte 3"),
            ("{\"k\\x\":1}", "bad escape at byte 4"),
            ("\"\\u12", "truncated \\u escape"),
            ("\"\\ud83d\\ude0", "truncated \\u escape"),
            ("\"\\u12g4\"", "bad \\u escape"),
            ("\"\\ud83d\\uzz00\"", "bad \\u escape"),
        ];
        for (text, msg) in cases {
            assert_eq!(Json::parse(text), Err(JsonError(msg.to_string())), "{text:?}");
        }
    }

    /// A bounded parse refuses the first container past its limit with
    /// a typed error; an unbounded one reads artefact-deep documents.
    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(Json::parse_nested(&nested(64), 64).is_ok());
        let e = Json::parse_nested(&nested(65), 64).unwrap_err();
        assert!(e.0.contains("depth limit at byte 64"), "{e}");
        assert!(Json::parse_nested(r#"{"a":{"b":[1]}}"#, 2).is_err());
        assert!(Json::parse_nested(r#"{"a":{"b":[1]}}"#, 3).is_ok());
        // Stops at the limit without recursing further, so a deep
        // document fails on any stack instead of overflowing it.
        assert!(Json::parse_nested(&nested(100_000), 64).is_err());
        // Unbounded parsing still reads deep artefacts: a `.gx` nests
        // three levels per expression level (9,002 for a 3,000-deep
        // expression). The parser recurses per level, so this runs on a
        // roomy stack, as artefact loading does.
        let deep = nested(9_002);
        let parsed = std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn(move || Json::parse(&deep).is_ok())
            .unwrap()
            .join()
            .unwrap();
        assert!(parsed);
    }

    /// Decoding time grows linearly with the string: 8x the bytes must
    /// cost well under 64x (quadratic) the time.
    #[test]
    fn string_decode_is_linear() {
        fn encoded(len: usize) -> String {
            let chunk = format!("{} é π 😀 \"q\" \\ /\n\t\u{1}", "r".repeat(200));
            Json::Str(chunk.repeat(len / chunk.len() + 1)).write_compact()
        }
        fn decode_time(text: &str) -> std::time::Duration {
            let start = std::time::Instant::now();
            let value = Json::parse(text);
            let took = start.elapsed();
            assert!(value.is_ok());
            took
        }
        let (small_text, large_text) = (encoded(256 << 10), encoded(2 << 20));
        // Best of three each, interleaved so that a burst of load on
        // the machine slows both sizes alike.
        let (mut small, mut large) = (std::time::Duration::MAX, std::time::Duration::MAX);
        for _ in 0..3 {
            small = small.min(decode_time(&small_text));
            large = large.min(decode_time(&large_text));
        }
        let ratio = large.as_secs_f64() / small.as_secs_f64();
        assert!(ratio < 24.0, "256 KiB took {small:?}, 2 MiB took {large:?}: ratio {ratio:.1}");
    }
}
