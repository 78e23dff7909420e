//! Typed values and their coercion rules.

use crate::error::{DbError, DbResult};
use std::cmp::Ordering;
use std::fmt;

/// The type of a column or value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Bool,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "INT"),
            ValueType::Float => write!(f, "FLOAT"),
            ValueType::Text => write!(f, "TEXT"),
            ValueType::Bool => write!(f, "BOOL"),
        }
    }
}

/// The text of a [`Value::Text`] in 16 bytes: up to [`Text::INLINE`] bytes
/// in place, longer text behind one thin heap pointer, so cloning,
/// comparing or indexing a short text (a bidding program's formulas and
/// keywords) allocates nothing. It compares, orders and displays like its
/// [`Text::as_str`].
#[derive(Clone, PartialEq, Eq)]
pub struct Text(Repr);

/// Inline exactly when the text fits, so equal texts have equal
/// representations. Inline, the first `len` bytes are the text copied
/// whole from a `&str`, and the rest are zero.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Inline(u8, [u8; Text::INLINE]),
    Heap(Box<Box<str>>),
}

impl Text {
    /// The longest text, in bytes, stored without a heap allocation.
    pub const INLINE: usize = 14;

    /// The text as a string slice.
    pub fn as_str(&self) -> &str {
        // The bytes are always a whole `&str`: the fallback never runs.
        std::str::from_utf8(self.as_bytes()).unwrap_or_default()
    }

    /// The text's UTF-8 bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline(len, bytes) => bytes.get(..usize::from(*len)).unwrap_or_default(),
            Repr::Heap(text) => text.as_bytes(),
        }
    }
}

impl From<&str> for Text {
    fn from(text: &str) -> Text {
        let mut bytes = [0; Text::INLINE];
        match bytes.get_mut(..text.len()) {
            Some(head) => {
                head.copy_from_slice(text.as_bytes());
                Text(Repr::Inline(text.len() as u8, bytes)) // it fit: len <= 14
            }
            None => Text(Repr::Heap(Box::new(text.into()))),
        }
    }
}

impl From<String> for Text {
    fn from(text: String) -> Text {
        Text::from(text.as_str())
    }
}

impl Default for Text {
    fn default() -> Self {
        Text::from("")
    }
}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Byte order, which is `str`'s order.
impl Ord for Text {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

/// A dynamically-typed SQL value, 16 bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Text.
    Text(Text),
    /// Boolean.
    Bool(bool),
    /// SQL NULL.
    Null,
}

impl Value {
    /// `true` if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer view (exact).
    pub fn as_int(&self) -> DbResult<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(DbError::Type(format!("expected INT, got {other}"))),
        }
    }

    /// Numeric view: INT and FLOAT both coerce to `f64`.
    pub fn as_f64(&self) -> DbResult<f64> {
        match self {
            Value::Int(v) => Ok(*v as f64),
            Value::Float(v) => Ok(*v),
            other => Err(DbError::Type(format!("expected a number, got {other}"))),
        }
    }

    /// Text view.
    pub fn as_text(&self) -> DbResult<&str> {
        match self {
            Value::Text(s) => Ok(s.as_str()),
            other => Err(DbError::Type(format!("expected TEXT, got {other}"))),
        }
    }

    /// Boolean view. NULL is "unknown" and treated as `false` in predicate
    /// position by the executor, but `as_bool` itself is strict.
    pub fn as_bool(&self) -> DbResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(DbError::Type(format!("expected BOOL, got {other}"))),
        }
    }

    /// `true` if both values are numeric (INT or FLOAT).
    fn both_numeric(&self, other: &Value) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
            && matches!(other, Value::Int(_) | Value::Float(_))
    }

    /// SQL three-valued comparison: NULL compares as None.
    pub fn compare(&self, other: &Value) -> DbResult<Option<Ordering>> {
        if self.is_null() || other.is_null() {
            return Ok(None);
        }
        if self.both_numeric(other) {
            // INT/INT comparisons stay exact.
            if let (Value::Int(a), Value::Int(b)) = (self, other) {
                return Ok(Some(a.cmp(b)));
            }
            let (a, b) = (self.as_f64()?, other.as_f64()?);
            return Ok(a.partial_cmp(&b));
        }
        match (self, other) {
            (Value::Text(a), Value::Text(b)) => Ok(Some(a.cmp(b))),
            (Value::Bool(a), Value::Bool(b)) => Ok(Some(a.cmp(b))),
            _ => Err(DbError::Type(format!("cannot compare {self} with {other}"))),
        }
    }

    /// Arithmetic with INT-preserving semantics and NULL propagation.
    pub fn arith(&self, op: ArithOp, other: &Value) -> DbResult<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        if let (Value::Int(a), Value::Int(b)) = (self, other) {
            // Checked arithmetic throughout: bids near i64::MAX must error,
            // not silently wrap (and i64::MIN / -1 and % -1 must not trap).
            return match op {
                ArithOp::Add => a.checked_add(*b).map(Value::Int).ok_or(DbError::Overflow),
                ArithOp::Sub => a.checked_sub(*b).map(Value::Int).ok_or(DbError::Overflow),
                ArithOp::Mul => a.checked_mul(*b).map(Value::Int).ok_or(DbError::Overflow),
                ArithOp::Div => {
                    if *b == 0 {
                        Err(DbError::DivisionByZero)
                    } else {
                        // SQL-style: integer division when exact, float
                        // otherwise — the ROI heuristic divides cents by
                        // time and expects a rate.
                        match a.checked_rem(*b) {
                            None => Err(DbError::Overflow),
                            Some(0) => a.checked_div(*b).map(Value::Int).ok_or(DbError::Overflow),
                            Some(_) => Ok(Value::Float(*a as f64 / *b as f64)),
                        }
                    }
                }
                ArithOp::Mod => {
                    if *b == 0 {
                        Err(DbError::DivisionByZero)
                    } else {
                        a.checked_rem(*b).map(Value::Int).ok_or(DbError::Overflow)
                    }
                }
            };
        }
        if !self.both_numeric(other) {
            return Err(DbError::Type(format!(
                "arithmetic on non-numbers: {self} {op} {other}"
            )));
        }
        let (a, b) = (self.as_f64()?, other.as_f64()?);
        let out = match op {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => {
                if b == 0.0 {
                    return Err(DbError::DivisionByZero);
                }
                a / b
            }
            ArithOp::Mod => {
                if b == 0.0 {
                    return Err(DbError::DivisionByZero);
                }
                a % b
            }
        };
        Ok(Value::Float(out))
    }

    /// Checks assignability into a column of the given type (NULL fits
    /// anywhere; INT widens into FLOAT).
    pub fn conforms_to(&self, ty: ValueType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), ValueType::Int | ValueType::Float)
                | (Value::Float(_), ValueType::Float)
                | (Value::Text(_), ValueType::Text)
                | (Value::Bool(_), ValueType::Bool)
        )
    }
}

/// Arithmetic operators used by [`Value::arith`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Text(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Text(v.into())
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn numeric_coercion() {
        assert_eq!(
            Value::Int(3)
                .arith(ArithOp::Add, &Value::Float(0.5))
                .unwrap(),
            Value::Float(3.5)
        );
        assert_eq!(
            Value::Int(7).arith(ArithOp::Div, &Value::Int(2)).unwrap(),
            Value::Float(3.5)
        );
        assert_eq!(
            Value::Int(6).arith(ArithOp::Div, &Value::Int(2)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            Value::Int(7).arith(ArithOp::Mod, &Value::Int(4)).unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn null_propagation() {
        assert_eq!(
            Value::Null.arith(ArithOp::Add, &Value::Int(1)).unwrap(),
            Value::Null
        );
        assert_eq!(Value::Int(1).compare(&Value::Null).unwrap(), None);
    }

    #[test]
    fn division_by_zero() {
        assert_eq!(
            Value::Int(1).arith(ArithOp::Div, &Value::Int(0)),
            Err(DbError::DivisionByZero)
        );
        assert_eq!(
            Value::Float(1.0).arith(ArithOp::Mod, &Value::Float(0.0)),
            Err(DbError::DivisionByZero)
        );
    }

    #[test]
    fn overflow_is_an_error_not_a_wrap() {
        let max = Value::Int(i64::MAX);
        let min = Value::Int(i64::MIN);
        assert_eq!(
            max.arith(ArithOp::Add, &Value::Int(1)),
            Err(DbError::Overflow)
        );
        assert_eq!(
            min.arith(ArithOp::Sub, &Value::Int(1)),
            Err(DbError::Overflow)
        );
        assert_eq!(
            max.arith(ArithOp::Mul, &Value::Int(2)),
            Err(DbError::Overflow)
        );
        assert_eq!(
            min.arith(ArithOp::Div, &Value::Int(-1)),
            Err(DbError::Overflow)
        );
        assert_eq!(
            min.arith(ArithOp::Mod, &Value::Int(-1)),
            Err(DbError::Overflow)
        );
        // Near the edge but in range stays exact.
        assert_eq!(
            max.arith(ArithOp::Sub, &Value::Int(1)).unwrap(),
            Value::Int(i64::MAX - 1)
        );
        assert_eq!(
            max.arith(ArithOp::Add, &Value::Int(0)).unwrap(),
            Value::Int(i64::MAX)
        );
    }

    #[test]
    fn comparisons() {
        use Ordering::*;
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.5)).unwrap(),
            Some(Less)
        );
        assert_eq!(
            Value::Text("a".into())
                .compare(&Value::Text("b".into()))
                .unwrap(),
            Some(Less)
        );
        assert_eq!(
            Value::Bool(true).compare(&Value::Bool(true)).unwrap(),
            Some(Equal)
        );
        assert!(Value::Int(1).compare(&Value::Text("x".into())).is_err());
    }

    #[test]
    fn type_conformance() {
        assert!(Value::Int(1).conforms_to(ValueType::Float));
        assert!(!Value::Float(1.0).conforms_to(ValueType::Int));
        assert!(Value::Null.conforms_to(ValueType::Text));
        assert!(!Value::Text("x".into()).conforms_to(ValueType::Bool));
    }

    #[test]
    fn strict_accessors() {
        assert!(Value::Text("x".into()).as_f64().is_err());
        assert!(Value::Int(1).as_bool().is_err());
        assert_eq!(Value::Float(2.0).as_f64().unwrap(), 2.0);
        assert_eq!(Value::Text("hi".into()).as_text().unwrap(), "hi");
    }

    #[test]
    fn display() {
        assert_eq!(Value::Text("a".into()).to_string(), "'a'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
    }

    #[test]
    fn a_value_is_pinned_at_16_bytes() {
        // 24 B while `Value::Text` held a `String`.
        assert_eq!(std::mem::size_of::<Text>(), 16);
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    /// `true` if `text`'s bytes live inside the `Text` itself.
    fn stored_inline(text: &Text) -> bool {
        let at = text.as_bytes().as_ptr() as usize;
        let own = text as *const Text as usize;
        (own..own + std::mem::size_of::<Text>()).contains(&at)
    }

    /// `Text` agrees with `str` on everything it exposes, and is inline
    /// exactly when the text fits.
    fn assert_text_is_str(a: &str, b: &str) {
        for (text, from_string) in [
            (a, Text::from(a.to_string())),
            (b, Text::from(b.to_string())),
        ] {
            let from_str = Text::from(text);
            assert_eq!(from_str.as_str(), text);
            assert_eq!(from_str, from_string);
            assert_eq!(
                stored_inline(&from_str),
                text.len() <= Text::INLINE,
                "{text:?}"
            );
            assert_eq!(from_str.to_string(), text);
            assert_eq!(
                format!("{from_str:>20}|{from_str:?}"),
                format!("{text:>20}|{text:?}")
            );
            assert_eq!(
                Value::Text(from_str.clone()).to_string(),
                format!("'{text}'")
            );
            assert_eq!(Value::Text(from_str).as_text().unwrap(), text);
        }
        let (ta, tb) = (Text::from(a), Text::from(b));
        assert_eq!(ta == tb, a == b, "{a:?} = {b:?}");
        assert_eq!(ta.cmp(&tb), a.cmp(b), "{a:?} <=> {b:?}");
        assert_eq!(
            Value::Text(ta).compare(&Value::Text(tb)).unwrap(),
            Some(a.cmp(b))
        );
    }

    #[test]
    fn text_round_trips_at_the_inline_boundary() {
        let cases = [
            "",
            "Click",
            "abcdefghijklmn",  // 14 bytes: the longest inline text
            "abcdefghijklmno", // 15 bytes: the shortest heap text
            "abcdefghijk€",    // 14 bytes, the last char 3 bytes wide
            "abcdefghijklm€",  // 16 bytes, a char straddling byte 14
            "abcdefghijklmé",  // 15 bytes, a char straddling byte 14
            "abcdefghijkl😀",  // 16 bytes, a 4-byte char across byte 14
        ];
        for a in cases {
            for b in cases {
                assert_text_is_str(a, b);
            }
        }
        assert_eq!(Text::default(), Text::from(""));
    }

    /// Chars one to four bytes wide, so generated texts cross the inline
    /// length on and off a char boundary.
    const ALPHABET: [char; 7] = ['a', 'b', 'z', ' ', 'é', '€', '😀'];

    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..ALPHABET.len(), 0..12)
            .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn text_behaves_like_str(a in text(), b in text()) {
            assert_text_is_str(&a, &b);
        }
    }
}
