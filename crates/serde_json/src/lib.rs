//! Vendored minimal `serde_json` substitute for offline builds.
//!
//! Implements the subset of the real crate's API that this workspace uses:
//! [`Value`]/[`Map`]/[`Number`] (shared with the vendored `serde`), the
//! [`json!`] macro, [`to_value`]/[`from_value`], [`from_str`], and
//! [`to_string`]/[`to_string_pretty`]. Objects keep sorted key order, so
//! output is deterministic regardless of construction order or thread
//! schedule.

#![forbid(unsafe_code)]

mod parse;

pub use serde::value::{Map, Number, Value};

use std::fmt;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// Error type for JSON parsing and conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    message: String,
}

impl Error {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::value::ValueError> for Error {
    fn from(e: serde::value::ValueError) -> Self {
        Error::new(e.to_string())
    }
}

/// Converts any serializable value into a [`Value`] tree.
///
/// # Errors
///
/// Never fails in this vendored implementation; the `Result` mirrors the
/// real serde_json signature.
pub fn to_value<T: Serialize>(value: T) -> Result<Value, Error> {
    Ok(value.to_json_value())
}

/// Rebuilds a typed structure from a [`Value`] tree.
///
/// # Errors
///
/// Returns [`Error`] when the value's shape does not match `T`.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T, Error> {
    T::from_json_value(&value).map_err(Error::from)
}

/// Deepest nesting of arrays and objects [`from_str`] accepts. The parser
/// recurses once per level, so without a bound a small hostile document
/// (a few hundred kilobytes of `[`) would overflow the thread's stack,
/// which aborts the process instead of returning an error.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document into a typed structure (or a raw [`Value`]).
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON, on nesting deeper than
/// [`MAX_DEPTH`], or on a shape mismatch.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    let value = parse::parse(input)?;
    T::from_json_value(&value).map_err(Error::from)
}

/// Parses a JSON document and, when it is an object, walks its members
/// without building the object: each key (borrowed from `input` when it
/// holds no escape) and its parsed value go to `member` in document order,
/// a repeated key once per occurrence. Returns `Ok(false)` for a valid
/// document that is not an object. Syntax errors, their byte offsets and
/// the [`MAX_DEPTH`] limit are exactly those of `from_str::<Value>`.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or nesting deeper than
/// [`MAX_DEPTH`].
pub fn walk_object<'a>(
    input: &'a str,
    member: impl FnMut(std::borrow::Cow<'a, str>, Value),
) -> Result<bool, Error> {
    parse::walk_object(input, member)
}

/// Serializes to a compact JSON string.
///
/// # Errors
///
/// Never fails in this vendored implementation.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_json_value().to_string())
}

/// Serializes to a human-readable JSON string (two-space indent).
///
/// # Errors
///
/// Never fails in this vendored implementation.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&value.to_json_value(), 0, &mut out);
    Ok(out)
}

fn write_pretty(value: &Value, indent: usize, out: &mut String) {
    const STEP: usize = 2;
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                push_indent(out, indent + STEP);
                write_pretty(item, indent + STEP, out);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Value::Object(map) if !map.is_empty() => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                push_indent(out, indent + STEP);
                let _ = write!(out, "{}: ", Value::String(k.clone()));
                write_pretty(v, indent + STEP, out);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        // Empty containers and scalars use the compact form.
        other => {
            let _ = write!(out, "{other}");
        }
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push(' ');
    }
}

#[doc(hidden)]
pub fn __to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_json_value()
}

/// Builds a [`Value`] from a JSON-like literal, interpolating Rust
/// expressions as in the real `serde_json::json!`.
///
/// Supported: object literals with string-literal keys (arbitrarily
/// nested), array literals of expressions, `null`/`true`/`false`, and any
/// Rust expression whose type implements `Serialize`.
#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => { $crate::json_internal!($($tt)+) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_internal {
    // ---- entry points -----------------------------------------------------
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([ $($elems:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::__to_value(&($elems)) ),* ])
    };
    ({ $($body:tt)* }) => {{
        #[allow(unused_mut)]
        let mut object = $crate::Map::new();
        $crate::json_internal!(@object object () ($($body)*) ($($body)*));
        $crate::Value::Object(object)
    }};
    ($other:expr) => { $crate::__to_value(&($other)) };

    // ---- object munching --------------------------------------------------
    // Done.
    (@object $object:ident () () ()) => {};

    // Insert the current [key] (value) entry, then continue with the rest.
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        let _ = $object.insert(($($key)+).to_string(), $value);
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        let _ = $object.insert(($($key)+).to_string(), $value);
    };

    // Current value is `null`.
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::Value::Null) $($rest)*);
    };
    // Current value is `true`.
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::Value::Bool(true)) $($rest)*);
    };
    // Current value is `false`.
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::Value::Bool(false)) $($rest)*);
    };
    // Current value is a nested object literal.
    (@object $object:ident ($($key:tt)+) (: { $($map:tt)* } $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+]
            ($crate::json_internal!({ $($map)* })) $($rest)*);
    };
    // Current value is a nested array literal.
    (@object $object:ident ($($key:tt)+) (: [ $($arr:tt)* ] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+]
            ($crate::json_internal!([ $($arr)* ])) $($rest)*);
    };
    // Current value is an expression followed by more entries.
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+]
            ($crate::__to_value(&($value))) , $($rest)*);
    };
    // Current value is the final expression.
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+]
            ($crate::__to_value(&($value))));
    };

    // Take one token as the key (string literal), then parse the value.
    (@object $object:ident () ($key:tt : $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($key) (: $($rest)*) (: $($rest)*));
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_nested_values() {
        let rows = vec![1u64, 2, 3];
        let v = json!({
            "name": "alpha",
            "count": 3u64,
            "nested": { "pi": 3.25, "flag": true, "nothing": null },
            "rows": rows,
            "maybe": Option::<u64>::None,
        });
        assert_eq!(v["name"].as_str(), Some("alpha"));
        assert_eq!(v["nested"]["pi"].as_f64(), Some(3.25));
        assert!(v["maybe"].is_null());
        assert_eq!(v["rows"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn round_trip_through_text() {
        let v = json!({
            "a": -42i64,
            "b": [1.5, 2.5e-3],
            "s": "esc\"ape\n",
        });
        let text = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parses_golden_style_numbers() {
        let v: Value = from_str("{\"x\": 4.440892098500626e-16, \"y\": 12345678901234}").unwrap();
        assert!(v["x"].as_f64().unwrap() > 0.0);
        assert_eq!(v["y"].as_u64(), Some(12345678901234));
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let at_limit: Value = from_str(&nested(MAX_DEPTH)).unwrap();
        assert!(at_limit.as_array().is_some());
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(from_str::<Value>(&objects).is_ok());

        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // Far past any stack: still a plain error.
        assert!(from_str::<Value>(&nested(200_000)).is_err());
        let mixed = "[{\"a\":".repeat(100_000);
        assert!(from_str::<Value>(&mixed).is_err());
    }

    /// `walk_object` is `from_str::<Value>` without the object: the same
    /// members (last key wins once collected), the same errors at the same
    /// offsets, and `false` for a valid non-object document.
    #[test]
    fn walk_object_agrees_with_the_value_parser() {
        let walk = |text: &str| {
            let mut map = Map::new();
            let mut borrowed = Vec::new();
            walk_object(text, |key, value| {
                borrowed.push(matches!(key, std::borrow::Cow::Borrowed(_)));
                map.insert(key.into_owned(), value);
            })
            .map(|is_object| (is_object.then(|| Value::Object(map)), borrowed))
        };
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{{\"k\":{}1{}}}", open.repeat(depth), close.repeat(depth))
        };
        let deep_ok = nested("[", "]", MAX_DEPTH - 1);
        let too_deep = nested("[", "]", MAX_DEPTH);
        let cases = [
            " {\"a\": 1, \"b\": [true, null], \"a\": \"x\"} ",
            "{\"na\\u006de\": \"k\", \"\\\"q\": {\"n\": -1.5e3}}",
            "{}",
            "{\"a\": 1} x",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "{\"a\": \"unterminated",
            "{\"tab\there\": 1}",
            "{\"caf\u{e9}\": 2}",
            "[1, 2]",
            "\"just a string\"",
            "",
            "nul",
            &deep_ok,
            &too_deep,
        ];
        for text in cases {
            let tree: Result<Value, Error> = from_str(text);
            match (walk(text), tree) {
                (Ok((Some(walked), _)), Ok(tree)) => assert_eq!(walked, tree, "{text}"),
                (Ok((None, _)), Ok(tree)) => assert!(tree.as_object().is_none(), "{text}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "{text}"),
                (a, b) => panic!("{text}: walk {a:?} vs tree {b:?}"),
            }
        }
        let (walked, borrowed) = walk("{\"plain\": 1, \"esc\\u0061ped\": 2}").unwrap();
        assert_eq!(walked, Some(json!({"plain": 1u64, "escaped": 2u64})));
        assert_eq!(borrowed, [true, false]);
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let v = json!({ "inf": f64::INFINITY });
        assert_eq!(to_string(&v).unwrap(), "{\"inf\":null}");
    }
}
