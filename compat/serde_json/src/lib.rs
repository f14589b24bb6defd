//! Offline compat shim: the `serde_json` API surface this workspace uses —
//! [`json!`], [`to_string`], [`to_string_pretty`], [`from_str`],
//! [`to_value`] and the re-exported [`Value`] tree (which lives in the
//! sibling `serde` shim so derives can target it).
//!
//! Output is deterministic: objects are BTreeMaps, so keys serialize in
//! sorted order, and float formatting goes through Rust's shortest-repr
//! `Display`. The telemetry JSONL determinism tests lean on this.

use std::fmt::Write as _;

pub use serde::{Map, Number, Value};

/// Error for both parsing and (infallible here) serialization paths.
pub type Error = serde::DeError;

/// Serialize any `Serialize` type into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_json_value()
}

/// Compact one-line JSON, `{"a":1,"b":[2,3]}` style.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_compact(&value.to_json_value(), &mut out);
    Ok(out)
}

/// Pretty JSON with two-space indentation, mirroring serde_json's layout.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&value.to_json_value(), &mut out, 0);
    Ok(out)
}

/// Parse JSON text into any `Deserialize` type.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value_complete(s)?;
    T::from_json_value(&value)
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => {
            let _ = write!(out, "{n}");
        }
        Value::String(s) => write_escaped(s, out),
        Value::Array(a) => {
            out.push('[');
            for (i, elem) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(elem, out);
            }
            out.push(']');
        }
        Value::Object(m) => {
            out.push('{');
            for (i, (k, elem)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_compact(elem, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Value, out: &mut String, indent: usize) {
    const STEP: usize = 2;
    match v {
        Value::Array(a) if !a.is_empty() => {
            out.push_str("[\n");
            for (i, elem) in a.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&" ".repeat(indent + STEP));
                write_pretty(elem, out, indent + STEP);
            }
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            out.push(']');
        }
        Value::Object(m) if !m.is_empty() => {
            out.push_str("{\n");
            for (i, (k, elem)) in m.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&" ".repeat(indent + STEP));
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(elem, out, indent + STEP);
            }
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over bytes.
// ---------------------------------------------------------------------------

/// Deepest array/object nesting the parser accepts (serde_json's limit):
/// recursion is bounded, so hostile input fails instead of overflowing
/// the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

fn parse_value_complete(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(Error::custom("unexpected end of input")),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::custom(format!(
                        "recursion limit exceeded at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let nested = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(Error::custom(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut out = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            out.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(out));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::custom("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.eat_keyword("\\u") {
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((hi - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| Error::custom("invalid \\u escape"))?);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(Error::custom("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote or
                    // escape at once. Both are ASCII, so the run ends on a
                    // char boundary and multi-byte UTF-8 passes through;
                    // validating only the run keeps parsing linear in the
                    // input length.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::custom("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::custom("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::custom("invalid \\u escape"))?;
        let n = u32::from_str_radix(hex, 16).map_err(|_| Error::custom("invalid \\u escape"))?;
        self.pos += 4;
        Ok(n)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        let num = if is_float {
            let f = text
                .parse::<f64>()
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))?;
            if !f.is_finite() {
                return Err(Error::custom(format!("number out of range `{text}`")));
            }
            Number::Float(f)
        } else if let Some(stripped) = text.strip_prefix('-') {
            let _ = stripped;
            Number::NegInt(
                text.parse::<i64>()
                    .map_err(|_| Error::custom(format!("invalid number `{text}`")))?,
            )
        } else {
            Number::PosInt(
                text.parse::<u64>()
                    .map_err(|_| Error::custom(format!("invalid number `{text}`")))?,
            )
        };
        Ok(Value::Number(num))
    }
}

// ---------------------------------------------------------------------------
// json! — a tt-muncher in the style of serde_json's, reduced to the forms
// used here (string-literal keys; values may be null, literals, nested
// arrays/objects, or arbitrary expressions of Serialize types).
// ---------------------------------------------------------------------------

#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => { $crate::json_internal!($($tt)+) };
}

#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => { $crate::Value::Array($crate::json_internal!(@array [] $($tt)+)) };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut object = $crate::Map::new();
        $crate::json_internal!(@object object () ($($tt)+));
        $crate::Value::Object(object)
    }};
    ($other:expr) => { $crate::to_value(&$other) };

    // ----- array elements ---------------------------------------------------
    (@array [$($elems:expr,)*]) => { vec![$($elems,)*] };
    (@array [$($elems:expr),*]) => { vec![$($elems),*] };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true)] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($arr:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($arr)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    // ----- object entries ---------------------------------------------------
    // Done.
    (@object $object:ident () ()) => {};
    // Insert entry, more to come.
    (@object $object:ident [$key:tt] ($value:expr) , $($rest:tt)*) => {
        let _ = $object.insert(::std::string::String::from($key), $value);
        $crate::json_internal!(@object $object () ($($rest)*));
    };
    // Insert final entry.
    (@object $object:ident [$key:tt] ($value:expr)) => {
        let _ = $object.insert(::std::string::String::from($key), $value);
    };
    // Current entry's value is a special form.
    (@object $object:ident ($key:tt) (: null $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$key] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($key:tt) (: true $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$key] ($crate::json_internal!(true)) $($rest)*);
    };
    (@object $object:ident ($key:tt) (: false $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$key] ($crate::json_internal!(false)) $($rest)*);
    };
    (@object $object:ident ($key:tt) (: [$($arr:tt)*] $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$key] ($crate::json_internal!([$($arr)*])) $($rest)*);
    };
    (@object $object:ident ($key:tt) (: {$($map:tt)*} $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$key] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    // Value is an expression followed by a comma, or the last one.
    (@object $object:ident ($key:tt) (: $value:expr , $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$key] ($crate::json_internal!($value)) , $($rest)*);
    };
    (@object $object:ident ($key:tt) (: $value:expr)) => {
        $crate::json_internal!(@object $object [$key] ($crate::json_internal!($value)));
    };
    // Take the next token as the key.
    (@object $object:ident () ($key:tt $($rest:tt)*)) => {
        $crate::json_internal!(@object $object ($key) ($($rest)*));
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_shapes() {
        let name = "vm-1";
        let v = json!({
            "server": {"id": 7u64, "name": name, "status": "ACTIVE"},
            "tags": ["a", "b"],
            "empty": [],
            "nothing": null,
            "flag": true,
            "computed": 6 * 7,
        });
        assert_eq!(v["server"]["id"].as_u64(), Some(7));
        assert_eq!(v["server"]["name"], "vm-1");
        assert_eq!(v["tags"][0], "a");
        assert!(v["nothing"].is_null());
        assert_eq!(v["flag"].as_bool(), Some(true));
        assert_eq!(v["computed"].as_u64(), Some(42));
        assert!(v["absent"].is_null());
    }

    #[test]
    fn compact_roundtrip() {
        let v = json!({"b": [1, 2.5, null], "a": {"x": "y\n\"z\""}});
        let s = to_string(&v).expect("serializes");
        // BTreeMap ⇒ sorted keys.
        assert_eq!(s, r#"{"a":{"x":"y\n\"z\""},"b":[1,2.5,null]}"#);
        let back: Value = from_str(&s).expect("parses");
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_layout() {
        let v = json!({"a": 1, "b": []});
        assert_eq!(
            to_string_pretty(&v).expect("ok"),
            "{\n  \"a\": 1,\n  \"b\": []\n}"
        );
    }

    #[test]
    fn parse_errors() {
        assert!(from_str::<Value>("{nope").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("12 34").is_err());
        assert!(from_str::<Value>("\"open").is_err());
    }

    #[test]
    fn nesting_is_capped_at_128() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str::<Value>(&nested(128)).is_ok());
        let err = from_str::<Value>(&nested(129)).expect_err("129 levels refused");
        assert!(err.to_string().contains("recursion limit"), "{err}");
        // Far past the cap fails the same way instead of overflowing
        // the stack.
        assert!(from_str::<Value>(&"[{\"a\":".repeat(300_000)).is_err());
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for text in ["1e999999", "-1e999999", "[0, 1.5e400]"] {
            let err = from_str::<Value>(text).expect_err("overflows to ±inf");
            assert!(err.to_string().contains("out of range"), "{text}: {err}");
        }
        assert_eq!(
            from_str::<Value>("1.7976931348623157e308")
                .expect("largest finite f64")
                .as_f64(),
            Some(f64::MAX)
        );
    }

    #[test]
    fn long_strings_keep_multibyte_chars_and_escapes() {
        let text = "Lagoon → Sullivan, 100 µs \"quoted\" \\ tab\t".repeat(2_000);
        let v = json!({"s": text.clone(), "t": ["é", "日本", ""]});
        let back: Value = from_str(&to_string(&v).expect("serializes")).expect("parses");
        assert_eq!(back["s"], text.as_str());
        assert_eq!(back, v);
    }

    #[test]
    fn numbers() {
        let v: Value = from_str("[-3, 18446744073709551615, 2.5e3]").expect("parses");
        assert_eq!(v[0].as_i64(), Some(-3));
        assert_eq!(v[1].as_u64(), Some(u64::MAX));
        assert_eq!(v[2].as_f64(), Some(2500.0));
        assert_eq!(
            to_string(&v).expect("ok"),
            "[-3,18446744073709551615,2500.0]"
        );
        // Whole floats past 10^15 print in exponent form, so they read
        // back as floats even beyond the 64-bit integers.
        let big: Value = from_str("[1e15, -2.5e20, 1e300]").expect("parses");
        let text = to_string(&big).expect("ok");
        assert_eq!(text, "[1e15,-2.5e20,1e300]");
        assert_eq!(from_str::<Value>(&text).expect("reads back"), big);
    }

    #[test]
    fn index_mut_autovivifies() {
        let mut v = json!({"server": {"id": 1}});
        v["server"]["cloud"] = json!("adler");
        assert_eq!(v["server"]["cloud"], "adler");
    }
}
