//! Golden bytes for the engine's two persisted binary formats: one `HGRA`
//! version-1 result artifact and one run journal with a torn tail, both
//! committed under `tests/golden/`.
//!
//! The artifact's result holds the values a codec most easily gets wrong:
//! ±0.0, NaN, ±∞, an integer above `i64::MAX` and a non-ASCII string. The
//! journal holds a header, three `Done` records, one `Checkpoint`, then half
//! of a fourth `Done` frame, as a killed process leaves it. Each test decodes
//! its file, checks the value, and re-encodes it byte for byte.
//!
//! To regenerate after a deliberate format change (which should also bump
//! the format's version and keep the old file as a read or rejection test),
//! run `cargo test -p hpcgrid-engine --test format_golden -- --ignored`.

use hpcgrid_engine::binary::{decode_artifact, encode_artifact};
use hpcgrid_engine::{CacheTier, ContentHash, FailpointSet, ResultCache, RunJournal};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The key the golden artifact answers.
const ARTIFACT_KEY: ContentHash = ContentHash(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
/// The sweep fingerprint the golden journal's header binds it to.
const JOURNAL_FINGERPRINT: ContentHash = ContentHash(0xfeed_face_cafe_beef_0000_0000_0000_0042);
/// The submission count the golden journal's header records.
const JOURNAL_TOTAL: usize = 5;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Artifacts are named `<key hex>.bin`, as the cache names them.
fn artifact_path() -> PathBuf {
    golden_dir().join(format!("{}.bin", ARTIFACT_KEY.to_hex()))
}

fn journal_path() -> PathBuf {
    golden_dir().join("journal_v1_torn.hgj")
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "hpcgrid-format-golden-{tag}-{}",
        std::process::id()
    ))
}

/// The golden artifact's result.
fn artifact_result() -> Value {
    Value::Map(vec![
        ("pos_zero".to_string(), Value::Float(0.0)),
        ("neg_zero".to_string(), Value::Float(-0.0)),
        ("nan".to_string(), Value::Float(f64::NAN)),
        ("pos_inf".to_string(), Value::Float(f64::INFINITY)),
        ("neg_inf".to_string(), Value::Float(f64::NEG_INFINITY)),
        (
            "above_i64_max".to_string(),
            Value::UInt(i64::MAX as u64 + 1),
        ),
        (
            "site".to_string(),
            Value::Str("Zürich — 東京 ⚡".to_string()),
        ),
        (
            "lines".to_string(),
            Value::Seq(vec![
                Value::Int(-42),
                Value::Float(1.0 / 3.0),
                Value::Bool(true),
                Value::Null,
            ]),
        ),
    ])
}

/// The whole artifact body, in the layout the cache writes.
fn artifact_value() -> Value {
    Value::Map(vec![
        ("spec_hash".to_string(), Value::Str(ARTIFACT_KEY.to_hex())),
        ("result".to_string(), artifact_result()),
    ])
}

/// The three `Done` records the golden journal holds, in append order.
fn done_records() -> Vec<(ContentHash, u64, Value)> {
    vec![
        (ContentHash(1), 1, Value::Float(-0.0)),
        (
            ContentHash(u128::MAX - 7),
            3,
            Value::Map(vec![
                ("total".to_string(), Value::Float(1234.5678)),
                ("label".to_string(), Value::Str("Gebühr".to_string())),
            ]),
        ),
        (
            ContentHash(0x8000_0000_0000_0000_0000_0000_0000_0001),
            2,
            Value::Seq(vec![Value::UInt(u64::MAX), Value::Float(f64::NAN)]),
        ),
    ]
}

/// The checkpoint after the three `Done` records.
fn checkpoint() -> (usize, Value) {
    (
        3,
        Value::Map(vec![
            ("sum".to_string(), Value::Float(1234.0)),
            ("count".to_string(), Value::UInt(6)),
        ]),
    )
}

/// The fourth `Done` record, of which only the first half reaches the file.
fn torn_record() -> (ContentHash, u64, Value) {
    (ContentHash(4), 1, Value::Float(f64::INFINITY))
}

/// Bitwise value equality: floats compare by bit pattern, so NaN equals
/// itself and -0.0 differs from +0.0.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Seq(x), Value::Seq(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same(x, y))
        }
        (Value::Map(x), Value::Map(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => a == b,
    }
}

/// Write the full journal (all four `Done` frames) to `path` and return
/// the byte length at which the fourth frame starts.
fn write_journal(path: &Path) -> u64 {
    let mut journal = RunJournal::create(
        path,
        JOURNAL_FINGERPRINT,
        JOURNAL_TOTAL,
        Arc::new(FailpointSet::empty()),
    )
    .unwrap();
    for (hash, mult, result) in done_records() {
        journal.append_done(hash, mult, &result).unwrap();
    }
    let (done, acc) = checkpoint();
    journal.append_checkpoint(done, &acc).unwrap();
    let torn_at = std::fs::metadata(path).unwrap().len();
    let (hash, mult, result) = torn_record();
    journal.append_done(hash, mult, &result).unwrap();
    journal.flush().unwrap();
    torn_at
}

#[test]
fn golden_artifact_decodes_and_reencodes_byte_for_byte() {
    let bytes = std::fs::read(artifact_path()).unwrap();
    let value = decode_artifact(&bytes, ARTIFACT_KEY.0).unwrap();
    assert!(same(&value, &artifact_value()), "decoded {value:?}");
    assert_eq!(encode_artifact(ARTIFACT_KEY.0, &value), bytes);

    // The cache serves the committed file as an artifact hit.
    let dir = scratch("artifact");
    let _ = std::fs::remove_dir_all(&dir);
    let hex = ARTIFACT_KEY.to_hex();
    let shard = dir.join(&hex[0..2]).join(&hex[2..4]);
    std::fs::create_dir_all(&shard).unwrap();
    std::fs::write(shard.join(format!("{hex}.bin")), &bytes).unwrap();
    let mut cache: ResultCache<Value> = ResultCache::with_artifact_dir(&dir).unwrap();
    let (result, tier) = cache.get(ARTIFACT_KEY).unwrap().expect("indexed artifact");
    assert_eq!(tier, CacheTier::Artifact);
    assert!(same(&result, &artifact_result()), "served {result:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_journal_replays_torn_and_reencodes_byte_for_byte() {
    let golden = std::fs::read(journal_path()).unwrap();
    let replay = RunJournal::replay(journal_path()).unwrap();
    assert_eq!(replay.fingerprint, JOURNAL_FINGERPRINT);
    assert_eq!(replay.total, JOURNAL_TOTAL);
    assert!(
        replay.torn,
        "the half-written fourth frame must read as torn"
    );
    let expected = done_records();
    assert_eq!(replay.entries.len(), expected.len());
    for ((hash, mult, result), (want_hash, want_mult, want_result)) in
        replay.entries.iter().zip(&expected)
    {
        assert_eq!((hash, mult), (want_hash, want_mult));
        assert!(same(result, want_result), "replayed {result:?}");
    }
    let (done, acc) = replay.checkpoint.expect("one checkpoint");
    let (want_done, want_acc) = checkpoint();
    assert_eq!(done, want_done);
    assert!(same(&acc, &want_acc), "checkpoint {acc:?}");

    // Re-encoding the replayed records reproduces every byte, the torn
    // half-frame included.
    let path = scratch("journal.hgj");
    let torn_at = write_journal(&path) as usize;
    let full = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(torn_at < golden.len() && golden.len() < full.len());
    assert_eq!(golden[..], full[..golden.len()]);
}

/// Regenerate the golden files from the definitions above.
#[test]
#[ignore]
fn regenerate_golden_formats() {
    std::fs::create_dir_all(golden_dir()).unwrap();
    std::fs::write(
        artifact_path(),
        encode_artifact(ARTIFACT_KEY.0, &artifact_value()),
    )
    .unwrap();
    let path = journal_path();
    let torn_at = write_journal(&path);
    let full_len = std::fs::metadata(&path).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(torn_at + (full_len - torn_at) / 2).unwrap();
}
