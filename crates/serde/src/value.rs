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
/// Each run of characters that needs no escape goes to the sink in one
/// `write_str`. Every escaped character is ASCII, so a run ends on a
/// `char` boundary.
///
/// # Errors
///
/// Propagates the sink's error (never for a `String`).
pub fn write_escaped(s: &str, f: &mut impl fmt::Write) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            // The other control characters take the `\u00XX` form below.
            0x00..=0x1f => "",
            _ => continue,
        };
        f.write_str(&s[run..i])?;
        if escape.is_empty() {
            write!(f, "\\u{b:04x}")?;
        } else {
            f.write_str(escape)?;
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The escaper before it copied runs: one `write_char` per `char`.
    /// Kept as the oracle for [`write_escaped`].
    fn write_escaped_by_char(s: &str, f: &mut impl fmt::Write) -> fmt::Result {
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

    /// `s` through both escapers, into a `String` and, by way of
    /// `Value`'s `Display`, into a `Formatter`.
    fn check(s: &str) -> Result<(), TestCaseError> {
        let mut want = String::new();
        write_escaped_by_char(s, &mut want).unwrap();
        let mut got = String::new();
        write_escaped(s, &mut got).unwrap();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(Value::String(s.into()).to_string(), want);
        Ok(())
    }

    /// A string of pieces that need an escape (`"`, `\`, control
    /// characters), DEL, and 1- to 4-byte UTF-8 text, so escapes land at
    /// the start, at the end, side by side and between runs.
    fn arb_text(rng: &mut TestRng) -> String {
        const TEXT: [&str; 8] = ["a", "run", "\u{7f}", "é", "日本", "😀", "\u{2028}", "é😀x"];
        (0..rng.next_below(12))
            .map(|_| match rng.next_below(3) {
                0 => ['"', '\\'][rng.next_below(2) as usize].to_string(),
                1 => char::from(rng.next_below(0x20) as u8).to_string(),
                _ => TEXT[rng.next_below(TEXT.len() as u64) as usize].to_string(),
            })
            .collect()
    }

    #[test]
    fn every_control_character_matches_the_char_oracle() {
        for c in (0u8..0x20).chain([b'"', b'\\', 0x7f]).map(char::from) {
            for s in [
                format!("{c}"),
                format!("{c}ab"),
                format!("ab{c}"),
                format!("é{c}😀"),
            ] {
                check(&s).unwrap();
            }
        }
        check("").unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Copying runs writes exactly the bytes of escaping char by char.
        #[test]
        fn write_escaped_equals_the_char_by_char_oracle(seed in any::<u64>()) {
            let mut rng = TestRng::from_seed(seed);
            check(&arb_text(&mut rng))?;
        }
    }
}
