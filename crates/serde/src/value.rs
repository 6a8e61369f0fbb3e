//! The JSON-like value tree shared by the vendored `serde` and
//! `serde_json` crates.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

/// Map type used for JSON objects. A `BTreeMap` keeps key order (and
/// therefore serialization) deterministic, which the parity and golden-file
/// tests rely on.
pub type Map = BTreeMap<String, Value>;

/// A JSON number: unsigned integer, signed integer, or float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    PosInt(u64),
    /// A negative integer.
    NegInt(i64),
    /// A floating-point number.
    Float(f64),
}

impl Number {
    /// The number as `f64` (always possible, possibly lossy for huge ints).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::PosInt(n) => n as f64,
            Number::NegInt(n) => n as f64,
            Number::Float(n) => n,
        }
    }

    /// The number as `u64` if it is a non-negative integer (floats qualify
    /// when they are integral and in range).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(n) => Some(n),
            Number::NegInt(n) => u64::try_from(n).ok(),
            Number::Float(f) if f >= 0.0 && f <= u64::MAX as f64 && f.fract() == 0.0 => {
                Some(f as u64)
            }
            Number::Float(_) => None,
        }
    }

    /// The number as `i64` if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(n) => i64::try_from(n).ok(),
            Number::NegInt(n) => Some(n),
            Number::Float(f)
                if f >= i64::MIN as f64 && f <= i64::MAX as f64 && f.fract() == 0.0 =>
            {
                Some(f as i64)
            }
            Number::Float(_) => None,
        }
    }
}

/// A JSON document: the interchange type produced by [`crate::Serialize`]
/// and consumed by [`crate::Deserialize`].
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number.
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object with deterministic (sorted) key order.
    Object(Map),
}

static NULL: Value = Value::Null;

impl Value {
    /// True for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, if this is a `Number`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The numeric payload as `i64`, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The string payload, if this is a `String`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an `Array`.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The key/value map, if this is an `Object`.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object member lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(Number::PosInt(n))
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Number(Number::PosInt(u64::from(n)))
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Number(Number::PosInt(n as u64))
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        if n >= 0 {
            Value::Number(Number::PosInt(n as u64))
        } else {
            Value::Number(Number::NegInt(n))
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(Number::Float(n))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;

    fn index(&self, index: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(index).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl fmt::Display for Value {
    /// Compact JSON rendering (used by `format!("{value}")`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_compact(self, f)
    }
}

fn write_compact(value: &Value, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match value {
        Value::Null => f.write_str("null"),
        Value::Bool(b) => write!(f, "{b}"),
        Value::Number(n) => write_number(n, f),
        Value::String(s) => write_escaped(s, f),
        Value::Array(items) => {
            f.write_str("[")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write_compact(item, f)?;
            }
            f.write_str("]")
        }
        Value::Object(map) => {
            f.write_str("{")?;
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write_escaped(k, f)?;
                f.write_str(":")?;
                write_compact(v, f)?;
            }
            f.write_str("}")
        }
    }
}

pub(crate) fn write_number(n: &Number, f: &mut impl fmt::Write) -> fmt::Result {
    match *n {
        Number::PosInt(v) => write!(f, "{v}"),
        Number::NegInt(v) => write!(f, "{v}"),
        // JSON has no NaN/Infinity literal; follow serde_json and emit null.
        Number::Float(v) if !v.is_finite() => f.write_str("null"),
        // `{:?}` is Rust's shortest round-trip float form and, like
        // serde_json's Ryu output, always keeps a `.0` on whole floats —
        // `{}` would collapse 1.0 to "1" and change golden-file bytes.
        Number::Float(v) => write!(f, "{v:?}"),
    }
}

/// Writes `s` as a JSON string literal: quoted, with `"`, `\` and control
/// characters escaped. The one string escaper behind every rendering of a
/// [`Value`], exposed so a hand-written JSON writer emits the same bytes.
///
/// # Errors
///
/// Propagates the sink's error (never for a `String`).
pub fn write_escaped(s: &str, f: &mut impl fmt::Write) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{08}' => f.write_str("\\b")?,
            '\u{0c}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_str("\"")
}

/// Error produced when converting a [`Value`] back into a typed structure.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueError {
    message: String,
}

impl ValueError {
    /// Creates an error with a free-form message.
    pub fn custom(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// Prefixes the message with the field or type being deserialized.
    pub fn in_context(mut self, context: &str) -> Self {
        self.message = format!("{context}: {}", self.message);
        self
    }
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ValueError {}
