//! The one byte codec: little-endian writers, a checked [`Reader`], and
//! the typed [`CodecError`] every decoder in the workspace reports.
//!
//! [`crate::journal::MutationRecord`] builds the operation codec on it;
//! `ssa_durable` builds the snapshot body and `ssa_net` its responses. The
//! rules are the same everywhere: fixed-width little-endian integers, `f64`
//! as raw [`f64::to_bits`] words (recovery and the wire are *bit-identical*,
//! so no decimal round-trip is allowed anywhere), `u32`-length-prefixed
//! UTF-8 strings, `u32`-counted vectors, one-byte enum tags. Hostile input
//! (truncated, trailing garbage, absurd counts) never panics and never
//! over-allocates: every read names the field it is reading, and a claimed
//! element count is checked against the bytes actually present before any
//! buffer is reserved.
//!
//! The primitives are `#[inline]`: they are a few instructions each and
//! their callers sit in other crates, where a call per field would cost
//! several times the decode itself.

use ssa_bidlang::targeting::{AttrValue, UserAttrs};

/// Why a byte buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the named field.
    Truncated {
        /// Which field was being decoded.
        what: &'static str,
    },
    /// An enum tag byte had no corresponding variant.
    UnknownTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// Bytes remained after a complete message.
    Trailing {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A string field held invalid UTF-8.
    InvalidUtf8 {
        /// Which field was being decoded.
        what: &'static str,
    },
    /// A count or length field claimed more elements than the remaining
    /// bytes could possibly hold; rejected before allocating.
    Oversized {
        /// Which field was being decoded.
        what: &'static str,
        /// The claimed count.
        len: u64,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { what } => write!(f, "buffer truncated reading {what}"),
            CodecError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            CodecError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
            CodecError::InvalidUtf8 { what } => write!(f, "{what} is not valid UTF-8"),
            CodecError::Oversized { what, len } => {
                write!(
                    f,
                    "{what} claims {len} elements, more than the buffer holds"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// Writers.
// ---------------------------------------------------------------------------

/// Appends a `u16`.
#[inline]
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `i64`.
#[inline]
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its raw bits.
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a `bool` as one byte.
#[inline]
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

/// Appends a `u32`-length-prefixed UTF-8 string.
#[inline]
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a `u32`-counted vector of `f64`s.
#[inline]
pub fn put_f64_vec(buf: &mut Vec<u8>, v: &[f64]) {
    put_u32(buf, v.len() as u32);
    for &x in v {
        put_f64(buf, x);
    }
}

/// Appends a `u32`-counted vector of `f64` pairs.
#[inline]
pub fn put_pair_vec(buf: &mut Vec<u8>, v: &[(f64, f64)]) {
    put_u32(buf, v.len() as u32);
    for &(a, b) in v {
        put_f64(buf, a);
        put_f64(buf, b);
    }
}

/// Appends an optional value: a presence byte, then the value if present.
pub fn put_opt<T>(buf: &mut Vec<u8>, v: &Option<T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        None => buf.push(0),
        Some(x) => {
            buf.push(1);
            put(buf, x);
        }
    }
}

/// Appends a typed attribute bag: a count, then sorted `key → value`
/// entries (value tag 0 = integer, 1 = string).
pub fn put_attrs(buf: &mut Vec<u8>, attrs: &UserAttrs) {
    put_u32(buf, attrs.len() as u32);
    for (key, value) in attrs.iter() {
        put_string(buf, key);
        match value {
            AttrValue::Int(v) => {
                buf.push(0);
                put_i64(buf, *v);
            }
            AttrValue::Str(s) => {
                buf.push(1);
                put_string(buf, s);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

/// A cursor over an immutable byte buffer; every read names the field it
/// is reading so a failure says *what* was truncated or malformed.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    #[inline]
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated { what });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        let bytes = self.take(N, what)?;
        bytes.try_into().map_err(|_| CodecError::Truncated { what })
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a `bool`; any byte other than 0 or 1 is an unknown tag.
    #[inline]
    pub fn bool(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::UnknownTag { what, tag }),
        }
    }

    /// Reads a `u16`.
    #[inline]
    pub fn u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// Reads an `i64`.
    #[inline]
    pub fn i64(&mut self, what: &'static str) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.array(what)?))
    }

    /// Reads an `f64` from its raw bits.
    #[inline]
    pub fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a `u32` element count and checks that the remaining bytes can
    /// hold at least `min_elem_bytes` per element: a hostile count cannot
    /// reserve more memory than the buffer it rode in on could justify.
    #[inline]
    pub fn count(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, CodecError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.buf.len() {
            return Err(CodecError::Oversized {
                what,
                len: n as u64,
            });
        }
        Ok(n)
    }

    /// Reads `count` elements of at least `min_elem_bytes` each.
    pub fn vec<T>(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        // The count is already bounded by the bytes present, so reserving
        // for it up front is safe — and collecting through `Result` would
        // grow the vector blind.
        let n = self.count(what, min_elem_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string.
    #[inline]
    pub fn string(&mut self, what: &'static str) -> Result<String, CodecError> {
        let n = self.count(what, 1)?;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::InvalidUtf8 { what })
    }

    /// Reads a counted vector of `f64`s.
    pub fn f64_vec(&mut self, what: &'static str) -> Result<Vec<f64>, CodecError> {
        self.vec(what, 8, |r| r.f64(what))
    }

    /// Reads a counted vector of `f64` pairs.
    pub fn pair_vec(&mut self, what: &'static str) -> Result<Vec<(f64, f64)>, CodecError> {
        self.vec(what, 16, |r| Ok((r.f64(what)?, r.f64(what)?)))
    }

    /// Reads an optional value written by [`put_opt`].
    pub fn opt<T>(
        &mut self,
        what: &'static str,
        read: impl FnOnce(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(read(self)?)),
            tag => Err(CodecError::UnknownTag { what, tag }),
        }
    }

    /// Reads a typed attribute bag written by [`put_attrs`]. Minimum entry
    /// size is the key length prefix (4) + value tag (1) + the shorter
    /// value, a string length prefix (4).
    pub fn attrs(&mut self, what: &'static str) -> Result<UserAttrs, CodecError> {
        let n = self.count(what, 9)?;
        (0..n)
            .map(|_| {
                let key = self.string(what)?;
                let value = match self.u8(what)? {
                    0 => AttrValue::Int(self.i64(what)?),
                    1 => AttrValue::Str(self.string(what)?),
                    tag => return Err(CodecError::UnknownTag { what, tag }),
                };
                Ok((key, value))
            })
            .collect()
    }

    /// Requires the buffer to be exactly consumed.
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Trailing {
                extra: self.buf.len(),
            })
        }
    }
}
