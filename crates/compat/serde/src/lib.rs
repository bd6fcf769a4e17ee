//! Offline API-compatible subset of the
//! [`serde`](https://crates.io/crates/serde) crate, vendored under
//! `crates/compat/` because the build environment has no registry access.
//!
//! Instead of serde's generic serializer/deserializer architecture, this
//! shim knows two formats. Text goes through one self-describing [`Value`]
//! tree (the JSON data model): [`Serialize::to_value`] renders a type into
//! a [`Value`], [`Deserialize::from_value`] rebuilds it, and `serde_json`
//! (also vendored) converts between [`Value`] and JSON text. The binary
//! tag-length-value codec in [`binary`] skips the tree:
//! [`Serialize::write_binary`] and [`Deserialize::read_binary`] go straight
//! between typed values and bytes. Every type implements both routes; none
//! has a default that falls back to the tree. The
//! `#[derive(Serialize, Deserialize)]` macros are provided by the
//! companion `serde_derive` shim and re-exported here exactly like the
//! real crate does with its `derive` feature.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

pub mod binary;

/// Self-describing serialized representation (the JSON data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer (serialized without a decimal point).
    U64(u64),
    /// Signed integer (serialized without a decimal point).
    I64(i64),
    /// Floating-point number. Non-finite values serialize as `null`.
    F64(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Seq(Vec<Value>),
    /// JSON object with insertion-ordered keys.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Borrow as a map, if this value is one.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// Borrow as a sequence, if this value is one.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// Borrow as a string, if this value is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view accepting any of the number variants.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(v) => Some(v as f64),
            Value::I64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Integer view accepting the integral number variants (and integral
    /// floats, which JSON cannot distinguish).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(v) => Some(v),
            Value::I64(v) if v >= 0 => Some(v as u64),
            Value::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// Signed integer view accepting the integral number variants.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::U64(v) if v <= i64::MAX as u64 => Some(v as i64),
            Value::I64(v) => Some(v),
            Value::F64(v) if v.fract() == 0.0 && v.abs() <= i64::MAX as f64 => Some(v as i64),
            _ => None,
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError {
    message: String,
}

impl DeError {
    /// Creates an error from a message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// Creates a "expected X while deserializing Y" error.
    pub fn expected(what: &str, context: &str) -> Self {
        Self::new(format!("expected {what} while deserializing {context}"))
    }
}

impl core::fmt::Display for DeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for DeError {}

/// Looks up a required field in a map value; used by generated code.
pub fn map_get<'a>(entries: &'a [(String, Value)], key: &str) -> Result<&'a Value, DeError> {
    entries
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError::new(format!("missing field `{key}`")))
}

/// Reads a required field of a map value; used by generated code.
pub fn map_get_deserialize<T: Deserialize>(
    entries: &[(String, Value)],
    key: &str,
) -> Result<T, DeError> {
    T::from_value(map_get(entries, key)?)
}

/// Reads a field that may be absent (an `Option`) from a map value: a
/// missing key reads as the default, `None`. Used by generated code.
pub fn map_get_or_default<T: Deserialize + Default>(
    entries: &[(String, Value)],
    key: &str,
) -> Result<T, DeError> {
    match entries.iter().find(|(k, _)| k == key) {
        Some((_, value)) => T::from_value(value),
        None => Ok(T::default()),
    }
}

/// Types that can render themselves into a [`Value`] and the binary codec.
pub trait Serialize {
    /// Renders `self` into the serde data model.
    fn to_value(&self) -> Value;

    /// Appends the [`binary`] encoding of `self` to `out`, straight from
    /// the fields. It must equal [`binary::encode_value`] of
    /// [`to_value`](Self::to_value).
    fn write_binary(&self, out: &mut Vec<u8>);
}

/// Types that can be rebuilt from a [`Value`] and the binary codec.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from the serde data model.
    fn from_value(value: &Value) -> Result<Self, DeError>;

    /// Reads `Self` from its [`binary`] encoding at nesting `depth`,
    /// straight into the fields. It must accept exactly what
    /// [`binary::decode_value`] followed by [`from_value`](Self::from_value)
    /// accepts, and build the same value; a reader may hand a
    /// non-canonical tag to [`binary::via_value`] to get that.
    fn read_binary(reader: &mut binary::Reader<'_>, depth: usize) -> Result<Self, DeError>;
}

/// A [`Value`] tree is its own data model; its binary form is the tree
/// codec itself. JSON envelopes and hand-built test payloads use it.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::encode_value(self, out);
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    #[inline]
    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_bool(out, *self);
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::expected("bool", "bool")),
        }
    }

    #[inline(always)]
    fn read_binary(reader: &mut binary::Reader<'_>, depth: usize) -> Result<Self, DeError> {
        if reader.accept(depth, binary::TAG_TRUE)? {
            Ok(true)
        } else if reader.accept(depth, binary::TAG_FALSE)? {
            Ok(false)
        } else {
            binary::via_value(reader, depth)
        }
    }
}

/// Integers: the canonical tag (`U64` for unsigned, `I64` for signed) is
/// read directly; any other tag goes through the lenient [`Value`] views.
macro_rules! impl_serde_integer {
    ($variant:ident, $raw:ty, $tag:ident, $write:ident, $view:ident, $what:literal: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::$variant(*self as $raw) }

            #[inline]
            fn write_binary(&self, out: &mut Vec<u8>) {
                binary::$write(out, *self as $raw);
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let raw = value.$view().ok_or_else(|| DeError::expected($what, stringify!($t)))?;
                <$t>::try_from(raw).map_err(|_| DeError::new(format!("{raw} out of range for {}", stringify!($t))))
            }

            #[inline(always)]
            fn read_binary(reader: &mut binary::Reader<'_>, depth: usize) -> Result<Self, DeError> {
                if !reader.accept(depth, binary::$tag)? {
                    return binary::via_value(reader, depth);
                }
                let raw = reader.take_u64()? as $raw;
                <$t>::try_from(raw).map_err(|_| DeError::new(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_integer!(U64, u64, TAG_U64, write_u64, as_u64, "unsigned integer": u8, u16, u32, u64, usize);
impl_serde_integer!(I64, i64, TAG_I64, write_i64, as_i64, "integer": i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }

    #[inline]
    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_f64(out, *self);
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value.as_f64().ok_or_else(|| DeError::expected("number", "f64"))
    }

    #[inline(always)]
    fn read_binary(reader: &mut binary::Reader<'_>, depth: usize) -> Result<Self, DeError> {
        if reader.accept(depth, binary::TAG_F64)? {
            Ok(f64::from_bits(reader.take_u64()?))
        } else {
            binary::via_value(reader, depth)
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }

    #[inline]
    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_f64(out, f64::from(*self));
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_f64()
            .map(|v| v as f32)
            .ok_or_else(|| DeError::expected("number", "f32"))
    }

    #[inline]
    fn read_binary(reader: &mut binary::Reader<'_>, depth: usize) -> Result<Self, DeError> {
        f64::read_binary(reader, depth).map(|v| v as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    #[inline]
    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_str(out, self);
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| DeError::expected("string", "String"))
    }

    #[inline]
    fn read_binary(reader: &mut binary::Reader<'_>, depth: usize) -> Result<Self, DeError> {
        if reader.accept(depth, binary::TAG_STR)? {
            Ok(reader.take_str()?.to_owned())
        } else {
            binary::via_value(reader, depth)
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }

    #[inline]
    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_str(out, self);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }

    #[inline]
    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_seq(out, self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_seq()
            .ok_or_else(|| DeError::expected("array", "Vec"))?
            .iter()
            .map(T::from_value)
            .collect()
    }

    #[inline]
    fn read_binary(reader: &mut binary::Reader<'_>, depth: usize) -> Result<Self, DeError> {
        binary::read_seq(reader, depth)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }

    #[inline]
    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_seq(out, self);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }

    #[inline]
    fn write_binary(&self, out: &mut Vec<u8>) {
        match self {
            Some(inner) => inner.write_binary(out),
            None => binary::write_null(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    #[inline]
    fn read_binary(reader: &mut binary::Reader<'_>, depth: usize) -> Result<Self, DeError> {
        if reader.accept(depth, binary::TAG_NULL)? {
            Ok(None)
        } else {
            T::read_binary(reader, depth).map(Some)
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    #[inline]
    fn write_binary(&self, out: &mut Vec<u8>) {
        (**self).write_binary(out);
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $index:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$index.to_value()),+])
            }

            #[inline]
            fn write_binary(&self, out: &mut Vec<u8>) {
                binary::write_seq_header(out, [$($index,)+].len());
                $(self.$index.write_binary(out);)+
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let items = value.as_seq().ok_or_else(|| DeError::expected("array", "tuple"))?;
                let expected = [$($index,)+].len();
                if items.len() != expected {
                    return Err(DeError::new(format!(
                        "tuple length mismatch: expected {expected}, found {}",
                        items.len()
                    )));
                }
                Ok(($($name::from_value(&items[$index])?,)+))
            }

            #[inline]
            fn read_binary(reader: &mut binary::Reader<'_>, depth: usize) -> Result<Self, DeError> {
                if !reader.accept(depth, binary::TAG_SEQ)? {
                    return Err(DeError::expected("array", "tuple"));
                }
                let expected = [$($index,)+].len();
                let found = reader.take_len()?;
                if found != expected {
                    return Err(DeError::new(format!(
                        "tuple length mismatch: expected {expected}, found {found}"
                    )));
                }
                Ok(($($name::read_binary(reader, depth + 1)?,)+))
            }
        }
    )*};
}

impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(String::from_value(&"hi".to_string().to_value()).unwrap(), "hi");
        assert!(bool::from_value(&true.to_value()).unwrap());
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1.0f64, 2.0f64), (3.0, 4.0)];
        assert_eq!(Vec::<(f64, f64)>::from_value(&v.to_value()).unwrap(), v);
        let opt: Option<usize> = None;
        assert_eq!(Option::<usize>::from_value(&opt.to_value()).unwrap(), None);
        assert_eq!(
            Option::<usize>::from_value(&Some(3usize).to_value()).unwrap(),
            Some(3)
        );
    }

    #[test]
    fn map_get_reports_missing_fields() {
        let entries = vec![("a".to_string(), Value::U64(1))];
        assert!(map_get(&entries, "a").is_ok());
        assert!(map_get(&entries, "b").is_err());
    }

    #[test]
    fn out_of_range_integers_error() {
        assert!(u8::from_value(&Value::U64(300)).is_err());
        assert!(usize::from_value(&Value::I64(-1)).is_err());
    }
}
