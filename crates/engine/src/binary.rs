//! Compact binary artifact codec for the result cache.
//!
//! At population scale (10⁵–10⁷ scenarios) a text encoding's serde cost —
//! float formatting on the way out, text parsing on the way back — would
//! dominate a warm sweep, and its size the artifact directory. This module
//! defines the cache's one artifact codec: the serde [`Value`] tree of an
//! artifact, encoded as a tagged, length-prefixed byte stream with a fixed
//! header:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"HGRA"           (hpcgrid result artifact)
//! 4       1     version byte             (currently 1)
//! 5       16    content hash (u128 LE)   the spec hash the artifact answers
//! 21      4     CRC32 of the payload (LE)
//! 25      4     payload length (u32 LE)
//! 29      n     payload: encoded Value
//! ```
//!
//! The header makes three read-side checks cheap and order-independent: the
//! magic/version reject foreign files, the embedded content hash rejects an
//! artifact copied under the wrong key, and the CRC rejects torn or
//! bit-rotted payloads *before* any decoding happens. Values encode as one
//! tag byte plus a payload (varint-length-prefixed where variable), so a
//! typical `f64` result costs 9 bytes against the ~20+ characters its JSON
//! rendering costs, and decode is a linear scan with no text parsing.
//!
//! Bit-identity: floats are encoded by bit pattern (`f64::to_bits`), so a
//! round trip is bit-identical by construction — pinned by a property test
//! in `tests/properties.rs` and by the committed artifact bytes in
//! `tests/format_golden.rs`.

use serde::Value;

/// Artifact magic: "HpcGrid Result Artifact".
pub const MAGIC: [u8; 4] = *b"HGRA";
/// Current artifact format version.
pub const VERSION: u8 = 1;
/// Fixed header length in bytes (magic + version + key + CRC + payload len).
pub const HEADER_LEN: usize = 4 + 1 + 16 + 4 + 4;

// Value tags. A tag is one byte; anything above `TAG_MAP` is a decode error,
// which is how a future format revision stays detectable under version 1.
const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_UINT: u8 = 4;
const TAG_FLOAT: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

/// Why a binary artifact failed to decode. Rendered into
/// [`crate::EngineError::Serialize`] by the cache, where the sweep runner
/// counts it as `cache_corrupt` and recomputes the scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinaryError {
    /// The file is shorter than the fixed header.
    Truncated,
    /// The magic bytes are not [`MAGIC`].
    BadMagic,
    /// The version byte is not [`VERSION`].
    BadVersion(u8),
    /// The payload length in the header disagrees with the file length.
    LengthMismatch {
        /// Payload length the header declares.
        declared: usize,
        /// Payload bytes actually present.
        present: usize,
    },
    /// The payload CRC does not match the header CRC.
    ChecksumMismatch,
    /// The embedded content hash differs from the key the caller asked for.
    KeyMismatch,
    /// The payload is structurally invalid (bad tag, overrun, bad UTF-8).
    Malformed(String),
}

impl std::fmt::Display for BinaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinaryError::Truncated => write!(f, "binary artifact truncated before the header"),
            BinaryError::BadMagic => write!(f, "not a binary artifact (bad magic)"),
            BinaryError::BadVersion(v) => write!(f, "unsupported binary artifact version {v}"),
            BinaryError::LengthMismatch { declared, present } => write!(
                f,
                "binary artifact payload truncated: header declares {declared} bytes, {present} present"
            ),
            BinaryError::ChecksumMismatch => write!(f, "binary artifact payload fails its CRC"),
            BinaryError::KeyMismatch => {
                write!(f, "binary artifact does not answer the requested key")
            }
            BinaryError::Malformed(m) => write!(f, "malformed binary artifact payload: {m}"),
        }
    }
}

impl std::error::Error for BinaryError {}

/// Encode an artifact: `key` is the spec's content hash, `payload` the
/// artifact body (spec + result map, same shape the JSON tier writes).
pub fn encode_artifact(key: u128, payload: &Value) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    encode_value(payload, &mut body);
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decode an artifact, verifying magic, version, length, CRC, and that the
/// embedded content hash equals `expect_key`.
pub fn decode_artifact(bytes: &[u8], expect_key: u128) -> Result<Value, BinaryError> {
    if bytes.len() < HEADER_LEN {
        return Err(BinaryError::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(BinaryError::BadMagic);
    }
    if bytes[4] != VERSION {
        return Err(BinaryError::BadVersion(bytes[4]));
    }
    let key = u128::from_le_bytes(bytes[5..21].try_into().expect("16 bytes"));
    if key != expect_key {
        return Err(BinaryError::KeyMismatch);
    }
    let crc = u32::from_le_bytes(bytes[21..25].try_into().expect("4 bytes"));
    let declared = u32::from_le_bytes(bytes[25..29].try_into().expect("4 bytes")) as usize;
    let body = &bytes[HEADER_LEN..];
    if body.len() != declared {
        return Err(BinaryError::LengthMismatch {
            declared,
            present: body.len(),
        });
    }
    if crc32(body) != crc {
        return Err(BinaryError::ChecksumMismatch);
    }
    let mut cursor = Cursor { buf: body, pos: 0 };
    let value = decode_value(&mut cursor)?;
    if cursor.pos != body.len() {
        return Err(BinaryError::Malformed(format!(
            "{} trailing bytes after the payload value",
            body.len() - cursor.pos
        )));
    }
    Ok(value)
}

/// Encode one [`Value`] into `out` (tag byte + payload).
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            write_varint(zigzag(*i), out);
        }
        Value::UInt(u) => {
            out.push(TAG_UINT);
            write_varint(*u, out);
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            write_varint(s.len() as u64, out);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            write_varint(items.len() as u64, out);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            write_varint(entries.len() as u64, out);
            for (k, val) in entries {
                write_varint(k.len() as u64, out);
                out.extend_from_slice(k.as_bytes());
                encode_value(val, out);
            }
        }
    }
}

/// Append a `Seq` header (tag + element count) to `out`; the caller must
/// follow with exactly `len` encoded values. Lets hot paths stream a
/// fixed-shape sequence without materializing a `Value::Seq`.
pub(crate) fn encode_seq_header(len: usize, out: &mut Vec<u8>) {
    out.push(TAG_SEQ);
    write_varint(len as u64, out);
}

/// Append one encoded `UInt` value to `out`.
pub(crate) fn encode_uint(v: u64, out: &mut Vec<u8>) {
    out.push(TAG_UINT);
    write_varint(v, out);
}

/// Decode one [`Value`] from the front of `buf`, returning it and the
/// number of bytes consumed. The run journal uses this to decode framed
/// record payloads with the same codec artifacts use.
pub(crate) fn decode_value_prefix(buf: &[u8]) -> Result<(Value, usize), BinaryError> {
    let mut cursor = Cursor { buf, pos: 0 };
    let value = decode_value(&mut cursor)?;
    Ok((value, cursor.pos))
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], BinaryError> {
        if self.buf.len() - self.pos < n {
            return Err(BinaryError::Malformed(format!(
                "payload overrun: wanted {n} bytes at offset {}",
                self.pos
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn byte(&mut self) -> Result<u8, BinaryError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, BinaryError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(BinaryError::Malformed("varint overflows u64".to_string()));
            }
            value |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }
}

fn decode_value(c: &mut Cursor<'_>) -> Result<Value, BinaryError> {
    match c.byte()? {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_INT => Ok(Value::Int(unzigzag(c.varint()?))),
        TAG_UINT => Ok(Value::UInt(c.varint()?)),
        TAG_FLOAT => {
            let bits = u64::from_le_bytes(c.take(8)?.try_into().expect("8 bytes"));
            Ok(Value::Float(f64::from_bits(bits)))
        }
        TAG_STR => {
            let len = c.varint()? as usize;
            let bytes = c.take(len)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|e| BinaryError::Malformed(format!("string is not UTF-8: {e}")))?;
            Ok(Value::Str(s.to_string()))
        }
        TAG_SEQ => {
            let len = c.varint()? as usize;
            // Guard allocation against a corrupt length claiming more items
            // than the remaining bytes could possibly hold (1 byte/item min).
            if len > c.buf.len() - c.pos {
                return Err(BinaryError::Malformed(format!(
                    "sequence claims {len} items with {} bytes left",
                    c.buf.len() - c.pos
                )));
            }
            let mut items = Vec::with_capacity(len);
            for _ in 0..len {
                items.push(decode_value(c)?);
            }
            Ok(Value::Seq(items))
        }
        TAG_MAP => {
            let len = c.varint()? as usize;
            if len > c.buf.len() - c.pos {
                return Err(BinaryError::Malformed(format!(
                    "map claims {len} entries with {} bytes left",
                    c.buf.len() - c.pos
                )));
            }
            let mut entries = Vec::with_capacity(len);
            for _ in 0..len {
                let klen = c.varint()? as usize;
                let kbytes = c.take(klen)?;
                let key = std::str::from_utf8(kbytes)
                    .map_err(|e| BinaryError::Malformed(format!("map key is not UTF-8: {e}")))?
                    .to_string();
                entries.push((key, decode_value(c)?));
            }
            Ok(Value::Map(entries))
        }
        tag => Err(BinaryError::Malformed(format!("unknown value tag {tag}"))),
    }
}

fn write_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn zigzag(i: i64) -> u64 {
    // Shift in u64 space: `i << 1` would overflow i64::MAX in debug builds.
    ((i as u64) << 1) ^ ((i >> 63) as u64)
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_value() -> Value {
        Value::Map(vec![
            ("spec".to_string(), Value::Str("demo".to_string())),
            (
                "result".to_string(),
                Value::Seq(vec![
                    Value::Float(1.5e-13),
                    Value::Float(-0.0),
                    Value::Int(-42),
                    Value::UInt(u64::MAX - 1),
                    Value::Null,
                    Value::Bool(true),
                ]),
            ),
        ])
    }

    #[test]
    fn round_trip_is_exact() {
        let v = sample_value();
        let bytes = encode_artifact(7, &v);
        let back = decode_artifact(&bytes, 7).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn float_bits_survive() {
        for f in [f64::MIN_POSITIVE, -0.0, 1.0 / 3.0, f64::MAX, 2.2e-308] {
            let bytes = encode_artifact(1, &Value::Float(f));
            match decode_artifact(&bytes, 1).unwrap() {
                Value::Float(g) => assert_eq!(f.to_bits(), g.to_bits()),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn varint_edges_round_trip() {
        for i in [0i64, 1, -1, i64::MAX, i64::MIN, 127, -128, 300] {
            let bytes = encode_artifact(1, &Value::Int(i));
            assert_eq!(decode_artifact(&bytes, 1).unwrap(), Value::Int(i));
        }
        for u in [0u64, u64::MAX, (i64::MAX as u64) + 1] {
            let bytes = encode_artifact(1, &Value::UInt(u));
            assert_eq!(decode_artifact(&bytes, 1).unwrap(), Value::UInt(u));
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = encode_artifact(9, &sample_value());
        for cut in 0..bytes.len() {
            assert!(
                decode_artifact(&bytes[..cut], 9).is_err(),
                "truncation at {cut}/{} must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn bit_flip_fails_the_crc() {
        let mut bytes = encode_artifact(9, &sample_value());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            decode_artifact(&bytes, 9),
            Err(BinaryError::ChecksumMismatch) | Err(BinaryError::Malformed(_))
        ));
    }

    #[test]
    fn wrong_key_is_rejected() {
        let bytes = encode_artifact(9, &sample_value());
        assert_eq!(decode_artifact(&bytes, 10), Err(BinaryError::KeyMismatch));
    }

    #[test]
    fn foreign_and_future_files_are_rejected() {
        assert_eq!(
            decode_artifact(b"{ \"json\": true } padded out past header length...", 1),
            Err(BinaryError::BadMagic)
        );
        let mut bytes = encode_artifact(1, &Value::Null);
        bytes[4] = 2;
        assert_eq!(decode_artifact(&bytes, 1), Err(BinaryError::BadVersion(2)));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn binary_is_denser_than_json() {
        // Full-mantissa floats, as real bill totals are: JSON needs ~17
        // significant digits to round-trip them, binary needs 8 bytes.
        let v = Value::Seq(
            (0..64)
                .map(|i| Value::Float(f64::from_bits(0x3FF0_0000_0000_0001 + i as u64)))
                .collect(),
        );
        let bin = encode_artifact(1, &v).len();
        let json = serde_json::to_string_pretty(&v).unwrap().len();
        assert!(bin * 2 <= json, "binary {bin} B vs JSON {json} B");
    }
}
