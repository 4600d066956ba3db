//! The workspace's JSON: a minimal reader and the string escaping its
//! writers share, for every crate that reads or writes the repository's
//! JSON artifacts (timelines and pipeline traces).
//!
//! [`parse_json`] produces a [`Json`] tree with just enough accessors to
//! decode the repository's formats. Integers that fit `u64` are kept exact
//! ([`Json::Int`]) rather than routed through `f64`, so 64-bit counters and
//! addresses round-trip bit for bit. The writers format numbers and keys
//! themselves and quote every string value through [`write_str`].

use std::fmt::Write;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact (never widened
    /// through `f64`, which silently rounds above 2^53).
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer: [`Json::Int`] directly, or a
    /// [`Json::Num`] that happens to be a non-negative whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Maximum container nesting accepted by [`parse_json`]. The parser is
/// recursive-descent, so without this cap a hostile document of a few
/// kilobytes of `[` overflows the stack (an abort, not a catchable error).
/// No workspace artifact nests deeper than a dozen levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
///
/// # Errors
/// Returns a description of the first syntax error, with a byte offset.
/// Documents nested deeper than [`MAX_DEPTH`] are rejected rather than
/// recursed into.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

/// Appends `s` to `out` as a quoted JSON string, escaping `"`, `\` and
/// every control character below U+0020; [`parse_json`] reads it back as
/// `s`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let Json::Str(key) = parse_value(bytes, pos, depth + 1)? else {
                    return Err(format!("object key must be a string at byte {pos}"));
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'u') => {
                                let hex = bytes
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| "non-ASCII \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                                s.push(
                                    char::from_u32(code)
                                        .ok_or(format!("invalid code point {code:#x}"))?,
                                );
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(&b) if b < 0x80 => {
                        s.push(b as char);
                        *pos += 1;
                    }
                    Some(_) => {
                        // Multi-byte UTF-8: copy the whole code point.
                        let rest = std::str::from_utf8(&bytes[*pos..])
                            .map_err(|_| "invalid UTF-8 in string".to_string())?;
                        #[expect(
                            clippy::expect_used,
                            reason = "from_utf8 succeeded on a non-empty suffix"
                        )]
                        let c = rest.chars().next().expect("non-empty");
                        s.push(c);
                        *pos += c.len_utf8();
                    }
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while bytes.get(*pos).is_some_and(|b| {
                b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
            }) {
                *pos += 1;
            }
            #[expect(
                clippy::expect_used,
                reason = "the scanned range is ASCII digits and signs"
            )]
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII");
            // Keep integers exact; only genuine floats go through f64.
            if let Ok(i) = text.parse::<u64>() {
                return Ok(Json::Int(i));
            }
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{text}' at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a": [1, 2.5, "x\n\"y\""], "b": {"c": null, "d": true}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![
                Json::Int(1),
                Json::Num(2.5),
                Json::Str("x\n\"y\"".to_string()),
            ])
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
        assert!(parse_json("{\"unterminated\": ").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("[1] trailing").is_err());
    }

    #[test]
    fn written_strings_round_trip_every_escape() {
        for s in [
            "plain",
            "a\"b",
            "back\\slash",
            "line\nfeed",
            "tab\there",
            "bell\u{7}",
            "\r\u{1f}é",
        ] {
            let mut out = String::new();
            write_str(&mut out, s);
            assert_eq!(parse_json(&out), Ok(Json::Str(s.to_string())), "{out}");
        }
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\n\u{1}");
        assert_eq!(out, r#""a\"b\\c\n\u0001""#);
    }

    #[test]
    fn integers_beyond_f64_precision_stay_exact() {
        let big = u64::MAX - 1;
        let v = parse_json(&format!("[{big}, 9007199254740993]")).unwrap();
        let Json::Arr(items) = v else { panic!() };
        assert_eq!(items[0].as_u64(), Some(big));
        assert_eq!(items[1].as_u64(), Some(9_007_199_254_740_993));
        // The same values through f64 would have rounded.
        assert_ne!(9_007_199_254_740_993f64 as u64, 9_007_199_254_740_993);
    }

    #[test]
    fn hostile_nesting_is_rejected_not_overflowed() {
        // Deep enough to smash the stack if the parser recursed into it.
        let bomb = "[".repeat(200_000);
        let err = parse_json(&bomb).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let obj_bomb = "{\"k\":".repeat(100_000);
        assert!(parse_json(&obj_bomb).is_err());
        // Anything at or under the cap still parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
    }

    #[test]
    fn negative_and_scientific_numbers_parse_as_floats() {
        let v = parse_json("[-3, 1e3, -2.5]").unwrap();
        let Json::Arr(items) = v else { panic!() };
        assert_eq!(items[0], Json::Num(-3.0));
        assert_eq!(items[0].as_u64(), None, "negative is not a u64");
        assert_eq!(items[1], Json::Num(1000.0));
        assert_eq!(items[1].as_u64(), Some(1000), "whole float still reads");
        assert_eq!(items[2].as_u64(), None);
    }
}
