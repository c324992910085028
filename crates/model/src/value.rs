//! Dynamically typed attribute values.

/// A value instantiated for one attribute of one entity.
///
/// The universal table is schemaless per attribute: the same attribute may
/// hold text for one entity and a number for another (DBpedia does exactly
/// this). Values therefore carry their own type tag.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// Boolean flag.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
}

/// A [`Value`] borrowed where it lies: text is a `&str` into someone else's
/// bytes (a stored record, an owned `Value`), so reading or re-encoding it
/// copies nothing.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ValueRef<'a> {
    /// Boolean flag.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(&'a str),
}

impl ValueRef<'_> {
    /// Serialized payload size in bytes (type tag excluded), the one
    /// definition [`Value::payload_len`] reads too.
    #[inline]
    pub fn payload_len(self) -> usize {
        match self {
            ValueRef::Bool(_) => 1,
            ValueRef::Int(_) | ValueRef::Float(_) => 8,
            ValueRef::Text(s) => s.len(),
        }
    }

    /// The owned value (copies text).
    #[inline]
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(x) => Value::Float(x),
            ValueRef::Text(s) => Value::Text(s.to_owned()),
        }
    }
}

impl Value {
    /// This value, borrowed.
    #[inline]
    pub fn borrowed(&self) -> ValueRef<'_> {
        match self {
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(x) => ValueRef::Float(*x),
            Value::Text(s) => ValueRef::Text(s),
        }
    }

    /// Serialized payload size in bytes (type tag excluded). This feeds the
    /// byte-based [`SizeModel`](crate::SizeModel).
    pub fn payload_len(&self) -> usize {
        self.borrowed().payload_len()
    }

}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
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
        Value::Text(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Bool(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_lengths() {
        assert_eq!(Value::Bool(true).payload_len(), 1);
        assert_eq!(Value::Int(5).payload_len(), 8);
        assert_eq!(Value::Float(1.5).payload_len(), 8);
        assert_eq!(Value::Text("abc".into()).payload_len(), 3);
        assert_eq!(Value::Text(String::new()).payload_len(), 0);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from("x"), Value::Text("x".into()));
        assert_eq!(Value::from(String::from("y")), Value::Text("y".into()));
    }

    #[test]
    fn borrowed_roundtrip() {
        for v in [Value::Bool(true), Value::Int(-3), Value::Float(-0.0), Value::Text("é".into())] {
            assert_eq!(v.borrowed().to_value(), v);
        }
    }

    #[test]
    fn display_renders_the_value() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Text("hi".into()).to_string(), "hi");
    }
}
