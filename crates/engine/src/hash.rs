//! Stable content hashing of serialized values.
//!
//! The cache key for a scenario is a 128-bit FNV-1a hash over the spec's
//! *canonical* serialized form: object keys sorted recursively, each value
//! fed as a type tag plus its payload bytes. The hash is defined by this
//! crate (not by `std::hash`, whose output is explicitly not stable across
//! releases), so cache artifacts written by one build remain addressable by
//! the next.
//!
//! The byte format is defined once, by the canonical-form primitives on
//! [`Fnv128`] (`map_header`, `key`, `str`, `int`, `uint`, `float`, `flag`,
//! ...). [`content_hash`] drives them from a serde [`Value`] tree;
//! `ScenarioSpec::content_hash` drives them straight from the spec's
//! fields, in sorted key order, and builds no tree. Both produce the same
//! digest for the same spec.

use serde::Value;
use std::fmt;

/// A 128-bit content hash, printable as 32 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

impl ContentHash {
    /// Hex rendering, usable as a filename.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse the hex rendering back.
    pub fn from_hex(s: &str) -> Option<ContentHash> {
        u128::from_str_radix(s, 16).ok().map(ContentHash)
    }

    /// Fold to 64 bits (for seed derivation).
    pub fn fold_u64(self) -> u64 {
        (self.0 as u64) ^ ((self.0 >> 64) as u64)
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Short prefix for human-facing output; full digest via to_hex().
        write!(f, "{}", &self.to_hex()[..12])
    }
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Incremental 128-bit FNV-1a.
#[derive(Debug, Clone)]
pub struct Fnv128(u128);

impl Default for Fnv128 {
    fn default() -> Fnv128 {
        Fnv128(FNV_OFFSET)
    }
}

impl Fnv128 {
    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Final digest.
    pub fn finish(&self) -> ContentHash {
        ContentHash(self.0)
    }

    /// A length prefix, as 8 little-endian bytes.
    fn length_prefix(&mut self, len: usize) {
        self.update(&(len as u64).to_le_bytes());
    }

    /// Canonical form of `null`.
    pub(crate) fn null(&mut self) {
        self.update(b"n");
    }

    /// Canonical form of a boolean.
    pub(crate) fn flag(&mut self, b: bool) {
        self.update(if b { b"T" } else { b"F" });
    }

    /// Canonical form of a signed integer.
    pub(crate) fn int(&mut self, i: i64) {
        self.update(b"i");
        self.update(&i.to_le_bytes());
    }

    /// Canonical form of an unsigned integer: one that fits `i64` hashes as
    /// that signed integer, so a `u64` field hashes the same whichever
    /// integer variant its serde form took.
    pub(crate) fn uint(&mut self, u: u64) {
        match i64::try_from(u) {
            Ok(i) => self.int(i),
            Err(_) => {
                self.update(b"u");
                self.update(&u.to_le_bytes());
            }
        }
    }

    /// Canonical form of a float. Integral floats hash like their integer
    /// value so that a parameter that round-trips through JSON as `2` or
    /// `2.0` stays one scenario (so `-0.0` hashes as `0`); NaN, ±∞ and
    /// integral floats outside `i64` hash their bits.
    pub(crate) fn float(&mut self, f: f64) {
        if f.fract() == 0.0 && f.abs() < i64::MAX as f64 {
            self.int(f as i64);
        } else {
            self.update(b"f");
            self.update(&f.to_bits().to_le_bytes());
        }
    }

    /// Canonical form of a string: length-prefixed, so concatenations
    /// cannot collide.
    pub(crate) fn str(&mut self, s: &str) {
        self.update(b"s");
        self.length_prefix(s.len());
        self.update(s.as_bytes());
    }

    /// Header of a sequence of `len` elements; the elements follow in
    /// order.
    pub(crate) fn seq_header(&mut self, len: usize) {
        self.update(b"[");
        self.length_prefix(len);
    }

    /// Header of a map of `len` entries; each entry follows as a
    /// [`Fnv128::key`] then its value, in ascending byte order of keys.
    pub(crate) fn map_header(&mut self, len: usize) {
        self.update(b"{");
        self.length_prefix(len);
    }

    /// A map entry's key.
    pub(crate) fn key(&mut self, k: &str) {
        self.update(b"k");
        self.length_prefix(k.len());
        self.update(k.as_bytes());
    }
}

/// Sort object keys recursively, producing the canonical form of a value.
/// Sequences keep their order (order is meaningful there).
pub fn canonicalize(v: &mut Value) {
    match v {
        Value::Seq(items) => {
            for item in items {
                canonicalize(item);
            }
        }
        Value::Map(entries) => {
            for (_, val) in entries.iter_mut() {
                canonicalize(val);
            }
            entries.sort_by(|a, b| a.0.cmp(&b.0));
        }
        _ => {}
    }
}

/// Hash a value's canonical form.
///
/// The walk feeds type tags plus payload bytes directly into the hasher, so
/// the digest is independent of any JSON text layer — but because the
/// canonical JSON rendering is also deterministic, equal digests imply
/// byte-equal canonical JSON and vice versa.
pub fn content_hash(value: &Value) -> ContentHash {
    let mut h = Fnv128::default();
    hash_value(&mut h, value);
    h.finish()
}

fn hash_value(h: &mut Fnv128, v: &Value) {
    match v {
        Value::Null => h.null(),
        Value::Bool(b) => h.flag(*b),
        Value::Int(i) => h.int(*i),
        Value::UInt(u) => h.uint(*u),
        Value::Float(f) => h.float(*f),
        Value::Str(s) => h.str(s),
        Value::Seq(items) => {
            h.seq_header(items.len());
            for item in items {
                hash_value(h, item);
            }
        }
        Value::Map(entries) => {
            let mut sorted: Vec<&(String, Value)> = entries.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            h.map_header(sorted.len());
            for (k, val) in sorted {
                h.key(k);
                hash_value(h, val);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_order_insensitive() {
        let a = Value::Map(vec![
            ("x".into(), Value::Int(1)),
            ("y".into(), Value::Int(2)),
        ]);
        let b = Value::Map(vec![
            ("y".into(), Value::Int(2)),
            ("x".into(), Value::Int(1)),
        ]);
        assert_eq!(content_hash(&a), content_hash(&b));
    }

    #[test]
    fn seq_order_sensitive() {
        let a = Value::Seq(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::Seq(vec![Value::Int(2), Value::Int(1)]);
        assert_ne!(content_hash(&a), content_hash(&b));
    }

    #[test]
    fn integral_float_and_int_collide_on_purpose() {
        assert_eq!(
            content_hash(&Value::Float(2.0)),
            content_hash(&Value::Int(2))
        );
        assert_ne!(
            content_hash(&Value::Float(2.5)),
            content_hash(&Value::Int(2))
        );
    }

    #[test]
    fn hex_round_trip() {
        let h = content_hash(&Value::Str("abc".into()));
        assert_eq!(ContentHash::from_hex(&h.to_hex()), Some(h));
        assert_eq!(h.to_hex().len(), 32);
    }

    #[test]
    fn string_length_prefix_prevents_concat_collisions() {
        let ab = Value::Seq(vec![Value::Str("ab".into()), Value::Str("c".into())]);
        let a_bc = Value::Seq(vec![Value::Str("a".into()), Value::Str("bc".into())]);
        assert_ne!(content_hash(&ab), content_hash(&a_bc));
    }
}
