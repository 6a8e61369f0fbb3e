//! Vendored minimal `serde` facade for offline builds.
//!
//! The real serde crate is unreachable in this build environment (the
//! registry mirror resolves to nothing), so this workspace ships a tiny
//! drop-in covering exactly the surface the PKA codebase uses: the
//! `Serialize`/`Deserialize` traits (re-implemented over a concrete JSON
//! [`value::Value`] tree instead of serde's generic data model) and the
//! derive macros re-exported from the vendored `serde_derive`.
//!
//! Determinism note: objects serialize with sorted keys (`value::Map` is a
//! `BTreeMap`), so serialization is byte-stable across runs and thread
//! schedules — a property the parallel-parity tests rely on.

#![forbid(unsafe_code)]

// Derive-generated code refers to this crate by its public name `serde`;
// alias ourselves so the derives also expand inside this crate's own tests.
extern crate self as serde;

pub mod value;

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};

use value::{Number, Value, ValueError};

/// Types that can render themselves as a JSON [`Value`].
pub trait Serialize {
    /// Converts `self` into a JSON value tree.
    fn to_json_value(&self) -> Value;
}

/// Types that can be rebuilt from a JSON [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a JSON value tree.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError`] when the value's shape or range does not
    /// match `Self`.
    fn from_json_value(value: &Value) -> Result<Self, ValueError>;

    /// The value of a struct field whose key is absent from the object
    /// (derived readers call this instead of reading an absent key as
    /// `null`).
    ///
    /// # Errors
    ///
    /// Fails by default, naming `field`; [`Option<T>`] reads an absent
    /// field as `None`.
    fn from_missing(field: &str) -> Result<Self, ValueError> {
        Err(ValueError::custom(format!("missing field `{field}`")))
    }
}

// ---------------------------------------------------------------------------
// Serialize impls
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl Serialize for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_json_value(&self) -> Value {
        Value::String(self.clone())
    }
}

macro_rules! serialize_unsigned {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_json_value(&self) -> Value {
                Value::Number(Number::PosInt(*self as u64))
            }
        }
    )*};
}
serialize_unsigned!(u8, u16, u32, u64, usize);

macro_rules! serialize_signed {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_json_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 {
                    Value::Number(Number::PosInt(v as u64))
                } else {
                    Value::Number(Number::NegInt(v))
                }
            }
        }
    )*};
}
serialize_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_json_value(&self) -> Value {
        Value::Number(Number::Float(*self))
    }
}

impl Serialize for f32 {
    fn to_json_value(&self) -> Value {
        Value::Number(Number::Float(*self as f64))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(v) => v.to_json_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_json_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_json_value()))
                .collect(),
        )
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_json_value(&self) -> Value {
        // Collected into the sorted Map, so hash order never leaks out.
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_json_value()))
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// Deserialize impls
// ---------------------------------------------------------------------------

impl Deserialize for Value {
    fn from_json_value(value: &Value) -> Result<Self, ValueError> {
        Ok(value.clone())
    }
}

impl Deserialize for bool {
    fn from_json_value(value: &Value) -> Result<Self, ValueError> {
        value
            .as_bool()
            .ok_or_else(|| ValueError::custom("expected boolean"))
    }
}

impl Deserialize for String {
    fn from_json_value(value: &Value) -> Result<Self, ValueError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| ValueError::custom("expected string"))
    }
}

macro_rules! deserialize_unsigned {
    ($($ty:ty),*) => {$(
        impl Deserialize for $ty {
            fn from_json_value(value: &Value) -> Result<Self, ValueError> {
                let n = value
                    .as_u64()
                    .ok_or_else(|| ValueError::custom(concat!(
                        "expected non-negative integer for ", stringify!($ty))))?;
                <$ty>::try_from(n).map_err(|_| {
                    ValueError::custom(concat!("integer out of range for ", stringify!($ty)))
                })
            }
        }
    )*};
}
deserialize_unsigned!(u8, u16, u32, u64, usize);

macro_rules! deserialize_signed {
    ($($ty:ty),*) => {$(
        impl Deserialize for $ty {
            fn from_json_value(value: &Value) -> Result<Self, ValueError> {
                let n = value
                    .as_i64()
                    .ok_or_else(|| ValueError::custom(concat!(
                        "expected integer for ", stringify!($ty))))?;
                <$ty>::try_from(n).map_err(|_| {
                    ValueError::custom(concat!("integer out of range for ", stringify!($ty)))
                })
            }
        }
    )*};
}
deserialize_signed!(i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn from_json_value(value: &Value) -> Result<Self, ValueError> {
        match value {
            Value::Number(n) => Ok(n.as_f64()),
            // serde_json emits null for non-finite floats; accept the
            // round-trip rather than failing on it.
            Value::Null => Ok(f64::NAN),
            _ => Err(ValueError::custom("expected number for f64")),
        }
    }
}

impl Deserialize for f32 {
    fn from_json_value(value: &Value) -> Result<Self, ValueError> {
        f64::from_json_value(value).map(|v| v as f32)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json_value(value: &Value) -> Result<Self, ValueError> {
        if value.is_null() {
            Ok(None)
        } else {
            T::from_json_value(value).map(Some)
        }
    }

    fn from_missing(_field: &str) -> Result<Self, ValueError> {
        Ok(None)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json_value(value: &Value) -> Result<Self, ValueError> {
        let items = value
            .as_array()
            .ok_or_else(|| ValueError::custom("expected array"))?;
        items.iter().map(T::from_json_value).collect()
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_json_value(value: &Value) -> Result<Self, ValueError> {
        let map = value
            .as_object()
            .ok_or_else(|| ValueError::custom("expected object"))?;
        map.iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json_value(v)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::value::Map;
    use super::*;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Point {
        x: u64,
        y: f64,
        label: String,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Kind {
        Alpha,
        Beta,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Wrapper(u64);

    #[test]
    fn derive_round_trips_struct() {
        let p = Point {
            x: 7,
            y: -1.5,
            label: "hello".into(),
        };
        let v = p.to_json_value();
        assert_eq!(v["x"].as_u64(), Some(7));
        assert_eq!(Point::from_json_value(&v).unwrap(), p);
    }

    #[test]
    fn derive_round_trips_unit_enum_and_newtype() {
        let v = Kind::Beta.to_json_value();
        assert_eq!(v.as_str(), Some("Beta"));
        assert_eq!(Kind::from_json_value(&v).unwrap(), Kind::Beta);

        let w = Wrapper(99).to_json_value();
        assert_eq!(Wrapper::from_json_value(&w).unwrap(), Wrapper(99));
    }

    #[test]
    fn missing_field_reports_context() {
        let v = Value::Object(Map::new());
        let err = Point::from_json_value(&v).unwrap_err();
        assert!(err.to_string().contains("Point.x"), "{err}");
    }

    /// An absent float is an error naming the field, not NaN; an explicit
    /// `null` still reads as NaN (serializers write non-finite floats as
    /// `null`), and an absent `Option` is `None`.
    #[test]
    fn absent_fields_are_missing_unless_optional() {
        #[derive(Debug, PartialEq, Deserialize)]
        struct Maybe {
            n: Option<u64>,
        }
        let mut obj = Map::new();
        obj.insert("x".into(), Value::from(1u64));
        obj.insert("label".into(), Value::from("p"));
        let err = Point::from_json_value(&Value::Object(obj.clone())).unwrap_err();
        assert_eq!(err.to_string(), "Point.y: missing field `y`");

        obj.insert("y".into(), Value::Null);
        let p = Point::from_json_value(&Value::Object(obj)).unwrap();
        assert!(p.y.is_nan());

        let none = Maybe::from_json_value(&Value::Object(Map::new())).unwrap();
        assert_eq!(none, Maybe { n: None });
    }

    #[test]
    fn option_and_vec_round_trip() {
        let xs: Vec<Option<u32>> = vec![Some(1), None, Some(3)];
        let v = xs.to_json_value();
        assert_eq!(Vec::<Option<u32>>::from_json_value(&v).unwrap(), xs);
    }
}
