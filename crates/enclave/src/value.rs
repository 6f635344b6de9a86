//! Attribute values and their matching-friendly scalar encoding.
//!
//! Publication headers carry typed values ([`Value`]); the matching engine
//! compiles them into fixed-size [`Scalar`]s: integers and floats compare
//! by order, strings by a 64-bit FNV-1a hash (SCBR's filters only ever test
//! strings for equality — ranges over strings are rejected at subscription
//! build time).

use std::cmp::Ordering;
use std::fmt;

/// The type of a value or constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float (NaN rejected at the API boundary).
    Float,
    /// UTF-8 string (equality-only in filters).
    Str,
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueKind::Int => write!(f, "int"),
            ValueKind::Float => write!(f, "float"),
            ValueKind::Str => write!(f, "str"),
        }
    }
}

/// A typed attribute value as carried in publication headers and
/// subscription predicates.
///
/// ```
/// use scbr_enclave::value::Value;
///
/// let price = Value::Float(49.5);
/// assert_eq!(price.kind(), scbr_enclave::value::ValueKind::Float);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Floating-point value.
    Float(f64),
    /// String value.
    Str(String),
}

impl Value {
    /// The value's kind.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Int(_) => ValueKind::Int,
            Value::Float(_) => ValueKind::Float,
            Value::Str(_) => ValueKind::Str,
        }
    }

    /// True for floats that are NaN (disallowed in headers and filters).
    pub fn is_nan(&self) -> bool {
        matches!(self, Value::Float(f) if f.is_nan())
    }

    /// Compiles to the fixed-size scalar used by the matching engine.
    pub fn to_scalar(&self) -> Scalar {
        match self {
            Value::Int(i) => Scalar::Int(*i),
            Value::Float(f) => Scalar::Float(*f),
            Value::Str(s) => Scalar::Str(fnv1a(s.as_bytes())),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Fixed-size compiled form of a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// Integer.
    Int(i64),
    /// Float (never NaN once validated upstream).
    Float(f64),
    /// FNV-1a hash of a string (equality comparisons only).
    Str(u64),
}

impl Scalar {
    /// The scalar's kind.
    pub fn kind(&self) -> ValueKind {
        match self {
            Scalar::Int(_) => ValueKind::Int,
            Scalar::Float(_) => ValueKind::Float,
            Scalar::Str(_) => ValueKind::Str,
        }
    }

    /// Orders two scalars of the same orderable kind.
    ///
    /// Returns `None` across kinds and for strings (hash order is
    /// meaningless).
    pub fn order(&self, other: &Scalar) -> Option<Ordering> {
        match (self, other) {
            (Scalar::Int(a), Scalar::Int(b)) => Some(a.cmp(b)),
            (Scalar::Float(a), Scalar::Float(b)) => Some(a.total_cmp(b)),
            _ => None,
        }
    }
}

/// FNV-1a 64-bit hash (stable across runs; used for string equality).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds() {
        assert_eq!(Value::Int(1).kind(), ValueKind::Int);
        assert_eq!(Value::Float(1.0).kind(), ValueKind::Float);
        assert_eq!(Value::Str("x".into()).kind(), ValueKind::Str);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::from(String::from("hi")), Value::Str("hi".into()));
    }

    #[test]
    fn nan_detection() {
        assert!(Value::Float(f64::NAN).is_nan());
        assert!(!Value::Float(0.0).is_nan());
        assert!(!Value::Int(0).is_nan());
    }

    #[test]
    fn scalar_ordering_within_kind() {
        assert_eq!(Scalar::Int(1).order(&Scalar::Int(2)), Some(Ordering::Less));
        assert_eq!(Scalar::Float(2.0).order(&Scalar::Float(2.0)), Some(Ordering::Equal));
        assert_eq!(Scalar::Float(3.0).order(&Scalar::Float(2.0)), Some(Ordering::Greater));
    }

    #[test]
    fn scalar_ordering_across_kinds_none() {
        assert_eq!(Scalar::Int(1).order(&Scalar::Float(1.0)), None);
        assert_eq!(Scalar::Str(1).order(&Scalar::Str(1)), None, "strings are unordered");
    }

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Float(1.5).to_string(), "1.5");
        assert_eq!(Value::Str("s".into()).to_string(), "\"s\"");
        assert_eq!(ValueKind::Float.to_string(), "float");
    }
}
