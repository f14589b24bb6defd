//! Offline compat shim: the `serde` API surface this workspace uses.
//!
//! Real serde abstracts over data formats with `Serializer`/`Deserializer`
//! visitors. The only format in this workspace is JSON (through the
//! sibling `serde_json` shim), so the traits here collapse to a direct
//! conversion through a JSON [`Value`] tree:
//!
//! * [`Serialize::to_json_value`] — `&T -> Value`
//! * [`Deserialize::from_json_value`] — `&Value -> Result<T, DeError>`
//!
//! `#[derive(Serialize, Deserialize)]` come from the sibling hand-rolled
//! `serde_derive` and generate impls of these traits. `serde_json`
//! re-exports [`Value`] and implements the text format on top.

use std::collections::BTreeMap;
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// Map type backing JSON objects. A BTreeMap keeps key order sorted and
/// deterministic, which the telemetry export determinism tests rely on.
pub type Map = BTreeMap<String, Value>;

/// A JSON number: integers keep full 64-bit precision, everything else is
/// an f64 (mirroring serde_json's three-way split).
#[derive(Clone, Copy, Debug)]
pub enum Number {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        use Number::*;
        match (*self, *other) {
            (PosInt(a), PosInt(b)) => a == b,
            (NegInt(a), NegInt(b)) => a == b,
            (Float(a), Float(b)) => a == b,
            (PosInt(a), NegInt(b)) | (NegInt(b), PosInt(a)) => b >= 0 && a == b as u64,
            (PosInt(a), Float(b)) | (Float(b), PosInt(a)) => a as f64 == b,
            (NegInt(a), Float(b)) | (Float(b), NegInt(a)) => a as f64 == b,
        }
    }
}

impl Number {
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(n) => Some(n),
            Number::NegInt(n) if n >= 0 => Some(n as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(n) => i64::try_from(n).ok(),
            Number::NegInt(n) => Some(n),
            Number::Float(_) => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Number::PosInt(n) => Some(n as f64),
            Number::NegInt(n) => Some(n as f64),
            Number::Float(f) => Some(f),
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::PosInt(n) => write!(f, "{n}"),
            Number::NegInt(n) => write!(f, "{n}"),
            Number::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    // serde_json prints whole floats with a trailing `.0`.
                    write!(f, "{x:.1}")
                } else if x.fract() == 0.0 {
                    // Larger whole floats in exponent form: as a bare run
                    // of digits they would read back as an integer, or
                    // past 64 bits fail to read back at all.
                    write!(f, "{x:e}")
                } else {
                    write!(f, "{x}")
                }
            }
        }
    }
}

/// A JSON document tree.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

static NULL: Value = Value::Null;

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object member lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    /// `value["key"]` — Null for non-objects and missing keys, as in
    /// serde_json.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::IndexMut<&str> for Value {
    /// Auto-vivifying object insert: indexing Null with a key turns it into
    /// an object, and missing keys spring into existence as Null.
    fn index_mut(&mut self, key: &str) -> &mut Value {
        if self.is_null() {
            *self = Value::Object(Map::new());
        }
        self.as_object_mut()
            .unwrap_or_else(|| panic!("cannot index non-object value with string \"{key}\""))
            .entry(key.to_string())
            .or_insert(Value::Null)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

impl std::ops::IndexMut<usize> for Value {
    fn index_mut(&mut self, idx: usize) -> &mut Value {
        self.as_array_mut()
            .and_then(|a| a.get_mut(idx))
            .expect("array index out of bounds")
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other.as_str() == Some(*self)
    }
}

macro_rules! eq_num {
    ($($ty:ty => $variant:ident as $cast:ty),* $(,)?) => {$(
        impl PartialEq<$ty> for Value {
            fn eq(&self, other: &$ty) -> bool {
                matches!(self, Value::Number(n) if *n == Number::$variant(*other as $cast))
            }
        }
        impl PartialEq<Value> for $ty {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}
eq_num! {
    u8 => PosInt as u64, u16 => PosInt as u64, u32 => PosInt as u64,
    u64 => PosInt as u64, usize => PosInt as u64,
    i8 => NegInt as i64, i16 => NegInt as i64, i32 => NegInt as i64,
    i64 => NegInt as i64, isize => NegInt as i64,
    f32 => Float as f64, f64 => Float as f64,
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

// ---------------------------------------------------------------------------
// Serialize
// ---------------------------------------------------------------------------

/// Conversion into the JSON data model.
pub trait Serialize {
    fn to_json_value(&self) -> Value;
}

impl Serialize for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

macro_rules! ser_uint {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_json_value(&self) -> Value {
                Value::Number(Number::PosInt(*self as u64))
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_json_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 {
                    Value::Number(Number::PosInt(n as u64))
                } else {
                    Value::Number(Number::NegInt(n))
                }
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

macro_rules! ser_float {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_json_value(&self) -> Value {
                let f = *self as f64;
                // Non-finite numbers have no JSON form; serde_json emits
                // null for them through to_value.
                if f.is_finite() {
                    Value::Number(Number::Float(f))
                } else {
                    Value::Null
                }
            }
        }
    )*};
}
ser_float!(f32, f64);

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

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(v) => v.to_json_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        self.as_slice().to_json_value()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json_value(&self) -> Value {
        self.as_slice().to_json_value()
    }
}

impl<K: AsRef<str>, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_json_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.as_ref().to_string(), v.to_json_value()))
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// Deserialize
// ---------------------------------------------------------------------------

/// Deserialization error (also reused by `serde_json::from_str`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
    pub fn expected(what: &str, ty: &str) -> Self {
        DeError(format!("expected {what} for `{ty}`"))
    }
    pub fn missing_field(ty: &str, field: &str) -> Self {
        DeError(format!("missing field `{field}` in `{ty}`"))
    }
    pub fn unknown_variant(ty: &str, got: &str) -> Self {
        DeError(format!("unknown variant `{got}` for `{ty}`"))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Conversion out of the JSON data model.
pub trait Deserialize: Sized {
    fn from_json_value(value: &Value) -> Result<Self, DeError>;
}

impl Deserialize for Value {
    fn from_json_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }
}

impl Deserialize for bool {
    fn from_json_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_bool()
            .ok_or_else(|| DeError::expected("bool", "bool"))
    }
}

impl Deserialize for String {
    fn from_json_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError::expected("string", "String"))
    }
}

macro_rules! de_uint {
    ($($ty:ty),*) => {$(
        impl Deserialize for $ty {
            fn from_json_value(value: &Value) -> Result<Self, DeError> {
                value
                    .as_u64()
                    .and_then(|n| <$ty>::try_from(n).ok())
                    .ok_or_else(|| DeError::expected("unsigned integer", stringify!($ty)))
            }
        }
    )*};
}
de_uint!(u8, u16, u32, u64, usize);

macro_rules! de_int {
    ($($ty:ty),*) => {$(
        impl Deserialize for $ty {
            fn from_json_value(value: &Value) -> Result<Self, DeError> {
                value
                    .as_i64()
                    .and_then(|n| <$ty>::try_from(n).ok())
                    .ok_or_else(|| DeError::expected("integer", stringify!($ty)))
            }
        }
    )*};
}
de_int!(i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn from_json_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_f64()
            .ok_or_else(|| DeError::expected("number", "f64"))
    }
}

impl Deserialize for f32 {
    fn from_json_value(value: &Value) -> Result<Self, DeError> {
        f64::from_json_value(value).map(|f| f as f32)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_json_value(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_array()
            .ok_or_else(|| DeError::expected("array", "Vec"))?
            .iter()
            .map(T::from_json_value)
            .collect()
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_json_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_object()
            .ok_or_else(|| DeError::expected("object", "map"))?
            .iter()
            .map(|(k, v)| V::from_json_value(v).map(|v| (k.clone(), v)))
            .collect()
    }
}
