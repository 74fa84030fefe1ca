//! The run journal: an append-only, CRC-framed record of sweep progress
//! that makes [`crate::SweepRunner::resume`] possible.
//!
//! A killed 10⁷-scenario `run_fold` without a journal loses every byte of
//! fold state, even though the artifact cache still holds most results. The
//! journal closes that gap: the journaled fold appends one `Done` record per
//! resolved unique scenario (hash, multiplicity, and serialized result) and
//! a periodic `Checkpoint` record carrying the serialized accumulator, in
//! the exact order results were folded. Resume replays the journal — fold
//! state restores from the latest checkpoint plus the `Done` records after
//! it — and executes only scenarios with no `Done` record.
//!
//! # Framing
//!
//! Records reuse the [`crate::binary`] value codec and its CRC32:
//!
//! ```text
//! offset  size  field
//! 0       1     record kind: b'H' header / b'D' done / b'C' checkpoint
//! 1       4     payload length (u32 LE)
//! 5       4     CRC32 of the payload (LE)
//! 9       n     payload: one encoded Value
//! ```
//!
//! # Crash-consistency contract
//!
//! * Appends are buffered; the buffer is flushed at every checkpoint and at
//!   sweep completion. A record is **journaled** once flushed — a crash can
//!   lose at most the unflushed tail, and losing a record only means the
//!   scenario re-executes on resume (never a wrong fold).
//! * Replay stops at the first torn or corrupt frame and discards the tail
//!   ([`JournalReplay::torn`]): a partial final write from a killed process
//!   shortens the journal, it never corrupts the resume. Reopening for
//!   append cuts that tail off first, so records appended by a resume
//!   follow the last valid frame and a later replay reads them.
//! * The header binds the journal to a sweep fingerprint
//!   ([`sweep_fingerprint`]: an order-insensitive multiset hash of the spec
//!   hashes), so resuming against a different spec list is a typed
//!   [`crate::EngineError::Journal`] instead of a silently wrong fold.

use crate::binary::{self, crc32, encode_value};
use crate::chaos::{sites, FailpointSet};
use crate::error::EngineError;
use crate::hash::ContentHash;
use crate::spec::ScenarioSpec;
use serde::Value;
use std::io::{Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const KIND_HEADER: u8 = b'H';
const KIND_DONE: u8 = b'D';
const KIND_CHECKPOINT: u8 = b'C';
const FRAME_HEADER_LEN: usize = 1 + 4 + 4;
const JOURNAL_VERSION: u64 = 1;

/// Order-insensitive fingerprint of a sweep's spec multiset: the wrapping
/// sum of every spec's content hash, folded with the submission count.
/// Binds a journal to "these scenarios", not "this submission order".
pub fn sweep_fingerprint(specs: &[ScenarioSpec]) -> ContentHash {
    let hashes: Vec<ContentHash> = specs.iter().map(ScenarioSpec::content_hash).collect();
    sweep_fingerprint_of(&hashes)
}

/// [`sweep_fingerprint`] over already-computed spec hashes. The runner uses
/// this to share its one hash pass over the submitted specs between the
/// fingerprint and its own bookkeeping.
pub fn sweep_fingerprint_of(hashes: &[ContentHash]) -> ContentHash {
    let mut sum = 0u128;
    for h in hashes {
        sum = sum.wrapping_add(h.0);
    }
    ContentHash(sum ^ (hashes.len() as u128).rotate_left(64))
}

/// An open run journal (write side). Created fresh by
/// [`crate::SweepRunner::run_fold_journaled`], reopened in append mode by
/// [`crate::SweepRunner::resume`].
#[derive(Debug)]
pub struct RunJournal {
    out: std::io::BufWriter<std::fs::File>,
    path: PathBuf,
    /// `Done` records written (including replayed ones on resume).
    done: usize,
    chaos: Arc<FailpointSet>,
    /// Reused frame buffer: one `Done` record per scenario at population
    /// scale makes per-append allocation the dominant journaling cost.
    scratch: Vec<u8>,
}

impl RunJournal {
    /// Create (truncating any previous file) a journal for a sweep with the
    /// given fingerprint and submission count.
    pub fn create(
        path: impl Into<PathBuf>,
        fingerprint: ContentHash,
        total: usize,
        chaos: Arc<FailpointSet>,
    ) -> Result<RunJournal, EngineError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(&path)?;
        let mut journal = RunJournal {
            out: std::io::BufWriter::new(file),
            path,
            done: 0,
            chaos,
            scratch: Vec::with_capacity(128),
        };
        let header = Value::Map(vec![
            ("version".to_string(), Value::UInt(JOURNAL_VERSION)),
            ("fingerprint".to_string(), Value::Str(fingerprint.to_hex())),
            ("total".to_string(), Value::UInt(total as u64)),
        ]);
        journal.append(KIND_HEADER, &header)?;
        journal.flush()?;
        Ok(journal)
    }

    /// Reopen an existing journal for appending, continuing after `done`
    /// already-journaled records (from [`RunJournal::replay`]). A torn tail
    /// is truncated away before the first append.
    pub fn open_append(
        path: impl Into<PathBuf>,
        done: usize,
        chaos: Arc<FailpointSet>,
    ) -> Result<RunJournal, EngineError> {
        let path = path.into();
        let valid_len = RunJournal::replay(&path)?.valid_len;
        RunJournal::reopen(path, done, valid_len, chaos)
    }

    /// [`RunJournal::open_append`] for a caller that has already replayed
    /// the journal: truncate it to `valid_len` bytes (the end of its last
    /// valid frame), then append after `done` journaled records.
    pub(crate) fn reopen(
        path: PathBuf,
        done: usize,
        valid_len: u64,
        chaos: Arc<FailpointSet>,
    ) -> Result<RunJournal, EngineError> {
        let mut file = std::fs::OpenOptions::new().write(true).open(&path)?;
        file.set_len(valid_len)?;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(RunJournal {
            out: std::io::BufWriter::new(file),
            path,
            done,
            chaos,
            scratch: Vec::with_capacity(128),
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `Done` records journaled so far (replayed + appended).
    pub fn done_count(&self) -> usize {
        self.done
    }

    /// Append a `Done` record: `spec` resolved to `result`, folded `mult`
    /// times (its multiplicity in the submitted spec list).
    ///
    /// The payload is the fixed four-element sequence
    /// `[hash high 64, hash low 64, multiplicity, result]` — no map keys,
    /// no hex strings, no clone of the result — encoded straight into the
    /// reused frame buffer. This is the journal's hot path: a fully
    /// cache-served warm sweep runs one append per unique scenario, so the
    /// per-record cost here is the journaling overhead.
    pub fn append_done(
        &mut self,
        spec: ContentHash,
        mult: u64,
        result: &Value,
    ) -> Result<(), EngineError> {
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
        binary::encode_seq_header(4, &mut self.scratch);
        binary::encode_uint((spec.0 >> 64) as u64, &mut self.scratch);
        binary::encode_uint(spec.0 as u64, &mut self.scratch);
        binary::encode_uint(mult, &mut self.scratch);
        encode_value(result, &mut self.scratch);
        self.write_frame(KIND_DONE)?;
        self.done += 1;
        Ok(())
    }

    /// Append a `Checkpoint` record carrying the serialized accumulator
    /// after `done` records, then flush — everything up to here survives a
    /// kill.
    pub fn append_checkpoint(&mut self, done: usize, acc: &Value) -> Result<(), EngineError> {
        let payload = Value::Map(vec![
            ("done".to_string(), Value::UInt(done as u64)),
            ("acc".to_string(), acc.clone()),
        ]);
        self.append(KIND_CHECKPOINT, &payload)?;
        self.flush()
    }

    /// Flush buffered records to the OS. Flushed records are journaled;
    /// unflushed ones are the (bounded) window a crash can lose.
    pub fn flush(&mut self) -> Result<(), EngineError> {
        self.out.flush().map_err(EngineError::Io)
    }

    fn append(&mut self, kind: u8, payload: &Value) -> Result<(), EngineError> {
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
        encode_value(payload, &mut self.scratch);
        self.write_frame(kind)
    }

    /// Finish and write the frame staged in `scratch`: the body sits after
    /// `FRAME_HEADER_LEN` reserved bytes, which are back-filled with the
    /// kind, length, and CRC here.
    fn write_frame(&mut self, kind: u8) -> Result<(), EngineError> {
        let body_len = self.scratch.len() - FRAME_HEADER_LEN;
        let crc = crc32(&self.scratch[FRAME_HEADER_LEN..]);
        self.scratch[0] = kind;
        self.scratch[1..5].copy_from_slice(&(body_len as u32).to_le_bytes());
        self.scratch[5..9].copy_from_slice(&crc.to_le_bytes());
        if let Some(action) = self.chaos.fire(sites::JOURNAL_TORN) {
            if let Some(err) = crate::chaos::io_fault(sites::JOURNAL_TORN, action) {
                // Tear the frame: half of it reaches the file, then the
                // "process" dies. Replay must drop this tail.
                let _ = self.out.write_all(&self.scratch[..self.scratch.len() / 2]);
                let _ = self.out.flush();
                return Err(EngineError::Io(err));
            }
        }
        self.out.write_all(&self.scratch).map_err(EngineError::Io)
    }

    /// Replay a journal from disk, tolerating a torn tail.
    pub fn replay(path: impl AsRef<Path>) -> Result<JournalReplay, EngineError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| {
            EngineError::Journal(format!("cannot read journal {}: {e}", path.display()))
        })?;
        let mut offset = 0usize;
        let mut header: Option<(ContentHash, usize)> = None;
        let mut entries: Vec<(ContentHash, u64, Value)> = Vec::new();
        let mut checkpoint: Option<(usize, Value)> = None;
        let mut torn = false;
        while offset < bytes.len() {
            let Some((kind, payload, next)) = read_frame(&bytes, offset) else {
                torn = true;
                break;
            };
            match kind {
                KIND_HEADER => {
                    let fingerprint = payload
                        .get("fingerprint")
                        .and_then(Value::as_str)
                        .and_then(ContentHash::from_hex);
                    let total = payload.get("total").and_then(as_u64);
                    let version = payload.get("version").and_then(as_u64);
                    match (fingerprint, total, version) {
                        (Some(f), Some(t), Some(JOURNAL_VERSION)) => {
                            header = Some((f, t as usize));
                        }
                        (_, _, Some(v)) if v != JOURNAL_VERSION => {
                            return Err(EngineError::Journal(format!(
                                "journal {} has unsupported version {v}",
                                path.display()
                            )));
                        }
                        _ => {
                            torn = true;
                            break;
                        }
                    }
                }
                KIND_DONE => match decode_done(payload) {
                    Some(entry) => entries.push(entry),
                    None => {
                        torn = true;
                        break;
                    }
                },
                KIND_CHECKPOINT => {
                    let done = payload.get("done").and_then(as_u64);
                    let acc = payload.get("acc");
                    match (done, acc) {
                        // A checkpoint claiming more records than precede it
                        // is inconsistent — treat as torn.
                        (Some(d), Some(a)) if d as usize <= entries.len() => {
                            checkpoint = Some((d as usize, a.clone()));
                        }
                        _ => {
                            torn = true;
                            break;
                        }
                    }
                }
                _ => {
                    torn = true;
                    break;
                }
            }
            offset = next;
        }
        let Some((fingerprint, total)) = header else {
            return Err(EngineError::Journal(format!(
                "journal {} has no valid header record",
                path.display()
            )));
        };
        Ok(JournalReplay {
            fingerprint,
            total,
            entries,
            checkpoint,
            torn,
            valid_len: offset as u64,
        })
    }
}

/// Decode one frame at `offset`: `(kind, payload, next offset)`, or `None`
/// if the frame is truncated, fails its CRC, or does not decode.
fn read_frame(bytes: &[u8], offset: usize) -> Option<(u8, Value, usize)> {
    let rest = &bytes[offset..];
    if rest.len() < FRAME_HEADER_LEN {
        return None;
    }
    let kind = rest[0];
    let len = u32::from_le_bytes(rest[1..5].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(rest[5..9].try_into().expect("4 bytes"));
    let body = rest.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + len)?;
    if crc32(body) != crc {
        return None;
    }
    let (payload, consumed) = binary::decode_value_prefix(body).ok()?;
    if consumed != body.len() {
        return None;
    }
    Some((kind, payload, offset + FRAME_HEADER_LEN + len))
}

/// Decode a `Done` payload: `[hash high 64, hash low 64, mult, result]`.
fn decode_done(payload: Value) -> Option<(ContentHash, u64, Value)> {
    let Value::Seq(fields) = payload else {
        return None;
    };
    let [hi, lo, mult, result]: [Value; 4] = fields.try_into().ok()?;
    let hash = (u128::from(as_u64(&hi)?) << 64) | u128::from(as_u64(&lo)?);
    Some((ContentHash(hash), as_u64(&mult)?, result))
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(u) => Some(*u),
        Value::Int(i) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

/// The decoded contents of a run journal — what a resume starts from.
#[derive(Debug)]
pub struct JournalReplay {
    /// The sweep fingerprint the journal's header binds it to.
    pub fingerprint: ContentHash,
    /// Scenario submission count recorded at journal creation.
    pub total: usize,
    /// Every journaled `Done` record, in append (= fold) order:
    /// `(spec hash, multiplicity, serialized result)`.
    pub entries: Vec<(ContentHash, u64, Value)>,
    /// The latest valid checkpoint: `(done-record count it covers,
    /// serialized accumulator)`.
    pub checkpoint: Option<(usize, Value)>,
    /// True if a torn or corrupt tail was discarded during replay.
    pub torn: bool,
    /// Byte length up to the end of the last valid frame — where a resume
    /// truncates the journal before appending.
    pub(crate) valid_len: u64,
}

impl JournalReplay {
    /// The set of journaled scenario hashes (resolved scenarios a resume
    /// must not re-execute).
    pub fn done_set(&self) -> std::collections::HashSet<ContentHash> {
        self.entries.iter().map(|(h, ..)| *h).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FailpointSet;

    fn temp_journal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hpcgrid-journal-{tag}-{}.hgj", std::process::id()))
    }

    fn inert() -> Arc<FailpointSet> {
        Arc::new(FailpointSet::empty())
    }

    #[test]
    fn round_trip_with_checkpoint() {
        let path = temp_journal("roundtrip");
        let fp = ContentHash(0xfeed);
        let mut j = RunJournal::create(&path, fp, 3, inert()).unwrap();
        j.append_done(ContentHash(1), 1, &Value::Float(1.5))
            .unwrap();
        j.append_done(ContentHash(2), 2, &Value::Float(-2.5))
            .unwrap();
        j.append_checkpoint(2, &Value::Float(-3.5)).unwrap();
        j.append_done(ContentHash(3), 1, &Value::Float(4.0))
            .unwrap();
        j.flush().unwrap();
        drop(j);

        let replay = RunJournal::replay(&path).unwrap();
        assert_eq!(replay.fingerprint, fp);
        assert_eq!(replay.total, 3);
        assert!(!replay.torn);
        assert_eq!(replay.entries.len(), 3);
        assert_eq!(replay.entries[1], (ContentHash(2), 2, Value::Float(-2.5)));
        assert_eq!(replay.checkpoint, Some((2, Value::Float(-3.5))));
        assert_eq!(replay.done_set().len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = temp_journal("torn");
        let mut j = RunJournal::create(&path, ContentHash(1), 2, inert()).unwrap();
        j.append_done(ContentHash(10), 1, &Value::UInt(7)).unwrap();
        j.append_done(ContentHash(11), 1, &Value::UInt(8)).unwrap();
        j.flush().unwrap();
        drop(j);
        // Simulate a kill mid-append: chop bytes off the tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let replay = RunJournal::replay(&path).unwrap();
        assert!(replay.torn);
        assert_eq!(replay.entries.len(), 1, "torn record dropped");
        assert_eq!(replay.entries[0].0, ContentHash(10));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_torn_write_truncates_and_errors() {
        let path = temp_journal("chaos-torn");
        // Hit 1 is the header record; hits 2 and 3 are the two Done appends.
        let chaos =
            Arc::new(FailpointSet::parse(&format!("{}=err@nth:3", sites::JOURNAL_TORN)).unwrap());
        let mut j = RunJournal::create(&path, ContentHash(5), 2, chaos).unwrap();
        j.append_done(ContentHash(20), 1, &Value::UInt(1)).unwrap();
        let err = j
            .append_done(ContentHash(21), 1, &Value::UInt(2))
            .unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        drop(j);
        let replay = RunJournal::replay(&path).unwrap();
        assert!(replay.torn, "half-written frame must read as torn");
        assert_eq!(replay.entries.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_or_headerless_journals_are_typed_errors() {
        let missing = temp_journal("missing");
        let _ = std::fs::remove_file(&missing);
        assert!(matches!(
            RunJournal::replay(&missing),
            Err(EngineError::Journal(_))
        ));
        let garbage = temp_journal("garbage");
        std::fs::write(&garbage, b"not a journal at all").unwrap();
        assert!(matches!(
            RunJournal::replay(&garbage),
            Err(EngineError::Journal(_))
        ));
        std::fs::remove_file(&garbage).unwrap();
    }

    #[test]
    fn fingerprint_is_order_insensitive_and_multiset_sensitive() {
        let spec = |i: i64| ScenarioSpec::builder("fp-test").param("i", i).build();
        let a = vec![spec(1), spec(2), spec(3)];
        let b = vec![spec(3), spec(1), spec(2)];
        let dup = vec![spec(1), spec(1), spec(2)];
        assert_eq!(sweep_fingerprint(&a), sweep_fingerprint(&b));
        assert_ne!(sweep_fingerprint(&a), sweep_fingerprint(&dup));
        assert_ne!(sweep_fingerprint(&a), sweep_fingerprint(&a[..2]));
    }
}
