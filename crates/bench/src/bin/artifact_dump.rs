//! `artifact_dump` — print sweep-cache artifacts as pretty JSON.
//!
//! The result cache stores each scenario's result as a compact, checksummed
//! binary artifact named `<content hash>.bin` (see `hpcgrid_engine::binary`).
//! This bin makes one readable: it takes the key from the file name, checks
//! the artifact's magic, version, length and CRC, checks that its header and
//! its embedded `spec_hash` both name that key, and prints the artifact —
//! `spec_hash` and `result` — as pretty JSON.
//!
//! ```text
//! artifact_dump <dir>/xx/yy/<32 hex digits>.bin [more.bin ...]
//! ```
//!
//! JSON has no NaN or infinities; such floats print as `null`. A file that
//! fails a check is reported on stderr and the exit status is nonzero.

use hpcgrid_engine::binary::decode_artifact;
use hpcgrid_engine::ContentHash;
use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

/// Decode the artifact at `path` and render it as pretty JSON.
fn dump(path: &Path) -> Result<String, String> {
    let key = path
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.strip_suffix(".bin"))
        .filter(|stem| stem.len() == 32)
        .and_then(ContentHash::from_hex)
        .ok_or("file name is not `<32 hex digits>.bin`")?;
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    let artifact = decode_artifact(&bytes, key.0).map_err(|e| e.to_string())?;
    let embedded = artifact
        .get("spec_hash")
        .and_then(Value::as_str)
        .and_then(ContentHash::from_hex);
    if embedded != Some(key) {
        return Err("embedded spec_hash does not match the file name".into());
    }
    serde_json::to_string_pretty(&artifact).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: artifact_dump <artifact.bin> [more.bin ...]");
        return ExitCode::from(2);
    }
    let mut status = ExitCode::SUCCESS;
    for path in &paths {
        match dump(Path::new(path)) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                status = ExitCode::FAILURE;
            }
        }
    }
    status
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcgrid_engine::binary::encode_artifact;
    use std::path::PathBuf;

    const KEY: ContentHash = ContentHash(0x00ff_1234_5678_9abc_def0_1234_5678_9abc);

    fn artifact(embedded: ContentHash) -> Vec<u8> {
        let body = Value::Map(vec![
            ("spec_hash".to_string(), Value::Str(embedded.to_hex())),
            (
                "result".to_string(),
                Value::Seq(vec![Value::Float(-0.5), Value::Str("Zürich".into())]),
            ),
        ]);
        encode_artifact(KEY.0, &body)
    }

    /// Write `bytes` to `<case dir>/<name>`; each case gets its own dir, so
    /// parallel tests never share a file.
    fn scratch(case: &str, name: &str, bytes: &[u8]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hpcgrid-dump-{case}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn prints_a_valid_artifact_as_json() {
        let path = scratch("valid", &format!("{}.bin", KEY.to_hex()), &artifact(KEY));
        let json = dump(&path).unwrap();
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.get("spec_hash").unwrap().as_str(),
            Some(&*KEY.to_hex())
        );
        assert_eq!(
            back.get("result").unwrap(),
            &Value::Seq(vec![Value::Float(-0.5), Value::Str("Zürich".into())])
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn rejects_a_renamed_a_corrupt_and_a_mislabelled_artifact() {
        let other = ContentHash(KEY.0 + 1);
        let renamed = scratch(
            "renamed",
            &format!("{}.bin", other.to_hex()),
            &artifact(KEY),
        );
        assert!(dump(&renamed).unwrap_err().contains("does not answer"));

        let mut bytes = artifact(KEY);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let corrupt = scratch("corrupt", &format!("{}.bin", KEY.to_hex()), &bytes);
        assert!(dump(&corrupt).is_err());

        let mislabelled = scratch(
            "mislabelled",
            &format!("{}.bin", KEY.to_hex()),
            &artifact(other),
        );
        assert!(dump(&mislabelled).unwrap_err().contains("spec_hash"));

        let unnamed = scratch("unnamed", "artifact.bin", &artifact(KEY));
        assert!(dump(&unnamed).unwrap_err().contains("file name"));
        for path in [renamed, corrupt, mislabelled, unnamed] {
            std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        }
    }
}
