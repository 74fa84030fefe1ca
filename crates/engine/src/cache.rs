//! Content-addressed result cache: in-memory map, a sharded artifact
//! directory, and an in-memory artifact index.
//!
//! Keys are [`ContentHash`]es of scenario specs. The memory tier serves
//! repeat lookups within a process; the artifact tier makes results durable
//! across processes, so an overnight sweep interrupted halfway resumes from
//! where it stopped.
//!
//! At population scale (10⁵–10⁷ scenarios) three artifact-tier costs
//! dominate, and this cache removes each:
//!
//! * **Per-scenario `stat` probes.** An in-memory *index* of every artifact
//!   key is built by one directory walk when the cache opens and updated on
//!   every put, so hit/miss checks are a hash-map lookup — the filesystem is
//!   only touched to *fetch* artifacts the index says exist.
//!   [`ResultCache::probe_stats`] exposes index-answered probes vs disk
//!   reads; the sweep runner copies the deltas into its `RunReport`.
//! * **Flat-directory scaling.** Artifacts live in `xx/yy/<hash>.<ext>`
//!   fan-out subdirectories (first four hex digits of the key), so no single
//!   directory holds millions of entries.
//! * **JSON serde per hit.** The default artifact format is the compact
//!   checksummed binary codec in [`crate::binary`] (version byte +
//!   content-hash header + CRC32). JSON remains available for debugging via
//!   [`ArtifactFormat::Json`] and [`ResultCache::with_artifact_dir_and_format`];
//!   both formats decode to bit-identical results and can coexist in one
//!   directory.
//!
//! Every artifact embeds its own `spec_hash`, so the cache can verify an
//! artifact actually belongs to its key. JSON artifacts additionally embed
//! the full spec (a human can read what produced a result without the sweep
//! driver); binary artifacts store only hash + result, since the content
//! hash already commits to the spec and the driver probing the cache holds
//! it anyway. The artifact directory itself is created lazily on the first
//! put, so a sweep that turns out to be 100% memory-served never touches the
//! filesystem.

use crate::binary;
use crate::chaos::{self, sites, FailpointSet, FaultAction};
use crate::error::EngineError;
use crate::hash::ContentHash;
use crate::spec::ScenarioSpec;
use serde::{Deserialize, Serialize, Value};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Where a cache lookup was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// In-process map.
    Memory,
    /// Artifact directory (binary or JSON).
    Artifact,
}

/// On-disk artifact encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArtifactFormat {
    /// Length-prefixed, checksummed binary (see [`crate::binary`]) under
    /// sharded `xx/yy/<hash>.bin` paths. The default.
    #[default]
    Binary,
    /// Pretty-printed JSON under sharded `xx/yy/<hash>.json` paths. Larger
    /// and slower, but human-readable — keep it for debugging.
    Json,
}

impl ArtifactFormat {
    /// Stable label (`"binary"` / `"json"`).
    pub fn label(self) -> &'static str {
        match self {
            ArtifactFormat::Binary => "binary",
            ArtifactFormat::Json => "json",
        }
    }

    fn extension(self) -> &'static str {
        match self {
            ArtifactFormat::Binary => "bin",
            ArtifactFormat::Json => "json",
        }
    }
}

/// Where (and how) one key's artifact is stored — the index's value type.
/// One byte per entry instead of a `PathBuf`: the path is derived from the
/// key and the location kind, which keeps a 10⁷-entry index small.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArtifactLoc {
    /// Sharded `xx/yy/<hash>.bin`.
    Binary,
    /// Sharded `xx/yy/<hash>.json`.
    Json,
}

/// Index-probe and disk-read counters (see [`ResultCache::probe_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Artifact-tier membership checks answered by the in-memory index
    /// (no filesystem touch).
    pub index_probes: u64,
    /// Artifact files actually read from disk (fetches of present keys).
    pub disk_reads: u64,
}

/// A content-addressed result cache.
///
/// `R` is the scenario result type; it must round-trip through the serde
/// value model for the artifact tier to work.
///
/// ```
/// use hpcgrid_engine::{CacheTier, ResultCache, ScenarioSpec};
///
/// let spec = ScenarioSpec::builder("demo").param("x", 1.0).build();
/// let mut cache: ResultCache<f64> = ResultCache::in_memory();
/// assert!(cache.get(spec.content_hash())?.is_none());
///
/// cache.put(&spec, &12.5)?;
/// let (value, tier) = cache.get(spec.content_hash())?.expect("just stored");
/// assert_eq!(value, 12.5);
/// assert_eq!(tier, CacheTier::Memory);
/// # Ok::<(), hpcgrid_engine::EngineError>(())
/// ```
#[derive(Debug)]
pub struct ResultCache<R> {
    mem: HashMap<ContentHash, R>,
    dir: Option<PathBuf>,
    format: ArtifactFormat,
    /// Every key with an artifact on disk, by storage location. Built by one
    /// walk at open; updated on put. Hit/miss checks consult this map, never
    /// the filesystem.
    index: HashMap<ContentHash, ArtifactLoc>,
    /// Shard subdirectories (`xx * 256 + yy`) known to exist, so repeat puts
    /// into a warm shard skip the `create_dir_all` syscalls.
    shards_ready: HashSet<u16>,
    probes: ProbeStats,
    /// Stale `*.tmp.<pid>` files of provably-dead processes reclaimed by the
    /// opening walk.
    reclaimed_tmp: usize,
    chaos: Arc<FailpointSet>,
}

impl<R> Default for ResultCache<R> {
    fn default() -> Self {
        ResultCache {
            mem: HashMap::new(),
            dir: None,
            format: ArtifactFormat::default(),
            index: HashMap::new(),
            shards_ready: HashSet::new(),
            probes: ProbeStats::default(),
            reclaimed_tmp: 0,
            chaos: Arc::new(FailpointSet::empty()),
        }
    }
}

impl<R: Clone + Serialize + Deserialize> ResultCache<R> {
    /// Memory-only cache.
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Cache backed by an artifact directory, writing
    /// [`ArtifactFormat::Binary`].
    ///
    /// The directory is *not* created here — creation is deferred to the
    /// first [`ResultCache::put`], so a fully memory-served sweep leaves no
    /// trace on disk and a read-only directory still serves reads. If the
    /// directory exists, one walk indexes every artifact in it (sharded
    /// binary and JSON).
    pub fn with_artifact_dir(dir: impl Into<PathBuf>) -> Result<Self, EngineError> {
        Self::with_artifact_dir_and_format(dir, ArtifactFormat::Binary)
    }

    /// [`ResultCache::with_artifact_dir`] with an explicit write format.
    ///
    /// The opening walk also garbage-collects stale `*.tmp.<pid>` files
    /// left by the write-then-rename path of processes that died mid-put
    /// (see [`ResultCache::reclaimed_tmp`]).
    pub fn with_artifact_dir_and_format(
        dir: impl Into<PathBuf>,
        format: ArtifactFormat,
    ) -> Result<Self, EngineError> {
        let dir = dir.into();
        let (index, reclaimed_tmp) = build_index(&dir)?;
        Ok(ResultCache {
            mem: HashMap::new(),
            dir: Some(dir),
            format,
            index,
            shards_ready: HashSet::new(),
            probes: ProbeStats::default(),
            reclaimed_tmp,
            chaos: Arc::new(FailpointSet::empty()),
        })
    }

    /// Stale temp files of dead processes deleted when this cache opened
    /// its artifact directory. A write-then-rename interrupted between the
    /// two steps leaks its temp file; the next cache to open the directory
    /// reclaims any whose owning pid is provably gone (per procfs — on
    /// systems without `/proc`, files are left alone).
    pub fn reclaimed_tmp(&self) -> usize {
        self.reclaimed_tmp
    }

    /// Arm a failpoint set for this cache's artifact I/O; every cache
    /// starts with its own empty set.
    pub fn set_chaos(&mut self, set: Arc<FailpointSet>) {
        self.chaos = set;
    }

    /// The artifact directory, if configured.
    pub fn artifact_dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The write-side artifact format.
    pub fn artifact_format(&self) -> ArtifactFormat {
        self.format
    }

    /// Number of results in the memory tier.
    pub fn len_memory(&self) -> usize {
        self.mem.len()
    }

    /// Number of artifacts the in-memory index knows about.
    pub fn len_index(&self) -> usize {
        self.index.len()
    }

    /// Index-answered probes vs disk reads since the cache opened.
    pub fn probe_stats(&self) -> ProbeStats {
        self.probes
    }

    /// Whether `key` is present in either tier, answered without touching
    /// the filesystem (memory map, then artifact index).
    pub fn contains(&mut self, key: ContentHash) -> bool {
        if self.mem.contains_key(&key) {
            return true;
        }
        if self.dir.is_none() {
            return false;
        }
        self.probes.index_probes += 1;
        self.index.contains_key(&key)
    }

    /// The pre-index probe: check artifact presence by `stat`ing every path
    /// the key could live at (binary, then JSON). This is what a
    /// per-scenario hit check cost before the index existed; it is kept so
    /// the `exp_sweep_throughput` baseline can measure the index's speedup
    /// against it. Not used on any hot path.
    pub fn probe_disk_stat(&self, key: ContentHash) -> bool {
        let Some(dir) = &self.dir else {
            return false;
        };
        sharded_path(dir, key, "bin").exists() || sharded_path(dir, key, "json").exists()
    }

    /// Look up a result, promoting artifact hits into memory.
    ///
    /// Misses are answered by the in-memory index without a filesystem
    /// probe. A corrupt or mismatched artifact is reported as an error (the
    /// caller decides whether to recompute).
    pub fn get(&mut self, key: ContentHash) -> Result<Option<(R, CacheTier)>, EngineError> {
        if let Some(r) = self.mem.get(&key) {
            return Ok(Some((r.clone(), CacheTier::Memory)));
        }
        let Some(dir) = &self.dir else {
            return Ok(None);
        };
        self.probes.index_probes += 1;
        let Some(&loc) = self.index.get(&key) else {
            return Ok(None);
        };
        let path = loc_path(dir, key, loc);
        if let Some(action) = self.chaos.fire(sites::ARTIFACT_READ) {
            if let Some(err) = chaos::io_fault(sites::ARTIFACT_READ, action) {
                return Err(EngineError::Io(err));
            }
        }
        self.probes.disk_reads += 1;
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // The artifact vanished behind our back (external cleanup);
                // treat as a miss and forget it.
                self.index.remove(&key);
                return Ok(None);
            }
            Err(e) => return Err(EngineError::Io(e)),
        };
        let artifact = decode_artifact_value(&bytes, key, loc, &path)?;
        let stored_key = artifact
            .get("spec_hash")
            .and_then(Value::as_str)
            .and_then(ContentHash::from_hex);
        if stored_key != Some(key) {
            return Err(EngineError::Serialize(format!(
                "artifact {} does not match its key",
                path.display()
            )));
        }
        let result_value = artifact.get("result").ok_or_else(|| {
            EngineError::Serialize(format!("artifact {} has no result", path.display()))
        })?;
        let result = R::from_value(result_value)
            .map_err(|e| EngineError::Serialize(format!("decoding {}: {e}", path.display())))?;
        self.mem.insert(key, result.clone());
        Ok(Some((result, CacheTier::Artifact)))
    }

    /// Store a result under its spec's hash, writing an artifact if a
    /// directory is configured.
    ///
    /// The memory tier is updated *first* and unconditionally, so an
    /// artifact-write failure (read-only directory, disk full) still leaves
    /// the result servable in-process; the error reports the artifact
    /// problem to callers that care.
    pub fn put(&mut self, spec: &ScenarioSpec, result: &R) -> Result<(), EngineError> {
        self.put_keyed(spec.content_hash(), spec, result)
    }

    /// [`ResultCache::put`] under `key`, the spec's content hash the caller
    /// already holds: the sweep driver hashes each submitted spec once and
    /// commits under that key rather than hashing it again under the cache
    /// lock.
    pub(crate) fn put_keyed(
        &mut self,
        key: ContentHash,
        spec: &ScenarioSpec,
        result: &R,
    ) -> Result<(), EngineError> {
        debug_assert_eq!(key, spec.content_hash(), "put under a foreign key");
        self.mem.insert(key, result.clone());
        let Some(dir) = self.dir.clone() else {
            return Ok(());
        };
        // Binary artifacts are the compact tier: spec_hash + result only —
        // the content hash already commits to the full spec, and the sweep
        // driver that probes the cache holds the spec anyway. JSON artifacts
        // keep the full spec embedded so a human can read what produced a
        // result without the driver.
        let artifact = match self.format {
            ArtifactFormat::Binary => Value::Map(vec![
                ("spec_hash".to_string(), Value::Str(key.to_hex())),
                ("result".to_string(), result.to_value()),
            ]),
            ArtifactFormat::Json => Value::Map(vec![
                ("spec_hash".to_string(), Value::Str(key.to_hex())),
                ("spec".to_string(), spec.to_value()),
                ("result".to_string(), result.to_value()),
            ]),
        };
        self.ensure_shard(&dir, key)?;
        let final_path = sharded_path(&dir, key, self.format.extension());
        let mut bytes = match self.format {
            ArtifactFormat::Binary => binary::encode_artifact(key.0, &artifact),
            ArtifactFormat::Json => {
                let mut text = serde_json::to_string_pretty(&artifact)
                    .map_err(|e| EngineError::Serialize(e.to_string()))?;
                text.push('\n');
                text.into_bytes()
            }
        };
        if !self.chaos.is_empty() {
            if let Some(action) = self.chaos.fire(sites::ARTIFACT_WRITE) {
                if let Some(err) = chaos::io_fault(sites::ARTIFACT_WRITE, action) {
                    return Err(EngineError::Io(err));
                }
            }
            if let Some(action) = self.chaos.fire(sites::ARTIFACT_TRUNCATE) {
                if !matches!(action, FaultAction::Stall(_)) {
                    // Publish a torn artifact: the rename below still
                    // happens, and the CRC / parse check must catch the
                    // damage on the next cold read.
                    bytes.truncate(bytes.len() / 2);
                }
            }
        }
        // Write-then-rename so concurrent sweeps never observe a torn
        // artifact.
        let tmp_path = final_path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp_path, bytes)?;
        std::fs::rename(&tmp_path, &final_path)?;
        self.index.insert(
            key,
            match self.format {
                ArtifactFormat::Binary => ArtifactLoc::Binary,
                ArtifactFormat::Json => ArtifactLoc::Json,
            },
        );
        Ok(())
    }

    /// Drop the memory tier (artifacts are untouched). Used by tests to
    /// prove artifact-tier round trips.
    pub fn clear_memory(&mut self) {
        self.mem.clear();
    }

    /// The artifact file path a key maps to, if a directory is configured:
    /// the indexed location when the key has an artifact, otherwise where
    /// the current write format would put one. Callers use this to report
    /// which artifact a failed read came from.
    pub fn artifact_path_for(&self, key: ContentHash) -> Option<PathBuf> {
        let dir = self.dir.as_deref()?;
        Some(match self.index.get(&key) {
            Some(&loc) => loc_path(dir, key, loc),
            None => sharded_path(dir, key, self.format.extension()),
        })
    }

    /// Create the artifact directory and the key's `xx/yy` shard on first
    /// use, caching which shards exist to keep warm puts syscall-free.
    fn ensure_shard(&mut self, dir: &Path, key: ContentHash) -> Result<(), EngineError> {
        let shard = shard_of(key);
        if self.shards_ready.contains(&shard) {
            return Ok(());
        }
        std::fs::create_dir_all(shard_dir(dir, key))?;
        self.shards_ready.insert(shard);
        Ok(())
    }
}

/// The `xx * 256 + yy` shard a key fans out to (its top two hex bytes).
fn shard_of(key: ContentHash) -> u16 {
    (key.0 >> 112) as u16
}

fn shard_dir(dir: &Path, key: ContentHash) -> PathBuf {
    let shard = shard_of(key);
    dir.join(format!("{:02x}", shard >> 8))
        .join(format!("{:02x}", shard & 0xff))
}

fn sharded_path(dir: &Path, key: ContentHash, ext: &str) -> PathBuf {
    shard_dir(dir, key).join(format!("{}.{ext}", key.to_hex()))
}

fn loc_path(dir: &Path, key: ContentHash, loc: ArtifactLoc) -> PathBuf {
    match loc {
        ArtifactLoc::Binary => sharded_path(dir, key, "bin"),
        ArtifactLoc::Json => sharded_path(dir, key, "json"),
    }
}

/// Decode an artifact file into its `Value` tree, per storage location.
fn decode_artifact_value(
    bytes: &[u8],
    key: ContentHash,
    loc: ArtifactLoc,
    path: &Path,
) -> Result<Value, EngineError> {
    match loc {
        ArtifactLoc::Binary => binary::decode_artifact(bytes, key.0).map_err(|e| {
            EngineError::Serialize(format!("decoding binary artifact {}: {e}", path.display()))
        }),
        ArtifactLoc::Json => {
            let text = std::str::from_utf8(bytes).map_err(|e| {
                EngineError::Serialize(format!("artifact {} is not UTF-8: {e}", path.display()))
            })?;
            serde_json::from_str(text)
                .map_err(|e| EngineError::Serialize(format!("parsing {}: {e}", path.display())))
        }
    }
}

/// Walk an artifact directory once, indexing every sharded binary/JSON
/// artifact and reclaiming stale
/// `*.tmp.<pid>` files of dead processes along the way. A missing directory
/// is an empty index (creation is deferred to the first put). Returns the
/// index and the number of temp files reclaimed.
fn build_index(dir: &Path) -> Result<(HashMap<ContentHash, ArtifactLoc>, usize), EngineError> {
    let mut index = HashMap::new();
    let mut reclaimed = 0usize;
    let top = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((index, 0)),
        Err(e) => return Err(EngineError::Io(e)),
    };
    for entry in top {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let file_type = entry.file_type()?;
        if file_type.is_file() {
            if reclaim_stale_tmp(&name, &entry.path()) {
                reclaimed += 1;
            }
        } else if file_type.is_dir() && is_hex_pair(&name) {
            for sub in std::fs::read_dir(entry.path())? {
                let sub = sub?;
                if !sub.file_type()?.is_dir() || !is_hex_pair(&sub.file_name().to_string_lossy()) {
                    continue;
                }
                for file in std::fs::read_dir(sub.path())? {
                    let file = file?;
                    let fname = file.file_name();
                    let fname = fname.to_string_lossy();
                    if let Some(key) = parse_artifact_name(&fname, "bin") {
                        // Binary wins over a JSON sibling: it is the default
                        // write format, so it is the fresher of the two.
                        index.insert(key, ArtifactLoc::Binary);
                    } else if let Some(key) = parse_artifact_name(&fname, "json") {
                        index.entry(key).or_insert(ArtifactLoc::Json);
                    } else if reclaim_stale_tmp(&fname, &file.path()) {
                        reclaimed += 1;
                    }
                }
            }
        }
    }
    Ok((index, reclaimed))
}

/// If `name` is a `put` temp file (`<32 hex>.tmp.<pid>`) whose owning
/// process is provably dead, delete it. The pid check requires procfs: on
/// systems without `/proc` ownership is unknowable and the file is kept.
/// Temp files of *live* processes are in-flight writes, never touched.
fn reclaim_stale_tmp(name: &str, path: &Path) -> bool {
    let Some(pid) = parse_tmp_name(name) else {
        return false;
    };
    if pid == std::process::id()
        || !Path::new("/proc").is_dir()
        || Path::new(&format!("/proc/{pid}")).exists()
    {
        return false;
    }
    std::fs::remove_file(path).is_ok()
}

/// Parse a `<32 hex>.tmp.<pid>` temp-file name, returning the pid.
fn parse_tmp_name(name: &str) -> Option<u32> {
    let (stem, pid) = name.rsplit_once('.')?;
    let pid: u32 = pid.parse().ok()?;
    let stem = stem.strip_suffix(".tmp")?;
    if stem.len() != 32 || ContentHash::from_hex(stem).is_none() {
        return None;
    }
    Some(pid)
}

fn is_hex_pair(s: &str) -> bool {
    s.len() == 2 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

fn parse_artifact_name(name: &str, ext: &str) -> Option<ContentHash> {
    let stem = name.strip_suffix(&format!(".{ext}"))?;
    if stem.len() != 32 {
        return None;
    }
    ContentHash::from_hex(stem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    fn spec(seed: u64) -> ScenarioSpec {
        ScenarioSpec::builder("cache-test")
            .trace_seed(seed)
            .param("x", 1.5)
            .build()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hpcgrid-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_round_trip() {
        let mut c: ResultCache<f64> = ResultCache::in_memory();
        let s = spec(1);
        assert!(c.get(s.content_hash()).unwrap().is_none());
        c.put(&s, &42.5).unwrap();
        let (v, tier) = c.get(s.content_hash()).unwrap().unwrap();
        assert_eq!(v, 42.5);
        assert_eq!(tier, CacheTier::Memory);
    }

    #[test]
    fn artifact_round_trip_across_processes() {
        for format in [ArtifactFormat::Binary, ArtifactFormat::Json] {
            let dir = temp_dir(&format!("roundtrip-{}", format.label()));
            let s = spec(2);
            {
                let mut c: ResultCache<Vec<f64>> =
                    ResultCache::with_artifact_dir_and_format(&dir, format).unwrap();
                c.put(&s, &vec![1.0, 2.25, -3.5]).unwrap();
            }
            // Fresh cache: memory tier empty, must hit the artifact through
            // the index built by the opening walk.
            let mut c2: ResultCache<Vec<f64>> =
                ResultCache::with_artifact_dir_and_format(&dir, format).unwrap();
            assert_eq!(c2.len_index(), 1);
            let (v, tier) = c2.get(s.content_hash()).unwrap().unwrap();
            assert_eq!(v, vec![1.0, 2.25, -3.5]);
            assert_eq!(tier, CacheTier::Artifact);
            // Promoted to memory on the way through.
            let (_, tier2) = c2.get(s.content_hash()).unwrap().unwrap();
            assert_eq!(tier2, CacheTier::Memory);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn artifacts_are_sharded_by_key_prefix() {
        let dir = temp_dir("sharded");
        let s = spec(3);
        let mut c: ResultCache<f64> =
            ResultCache::with_artifact_dir_and_format(&dir, ArtifactFormat::Binary).unwrap();
        c.put(&s, &1.0).unwrap();
        let hex = s.content_hash().to_hex();
        let expected = dir
            .join(&hex[0..2])
            .join(&hex[2..4])
            .join(format!("{hex}.bin"));
        assert!(expected.exists(), "expected {}", expected.display());
        assert_eq!(c.artifact_path_for(s.content_hash()), Some(expected));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_answers_misses_without_disk_probes() {
        let dir = temp_dir("index-miss");
        let mut c: ResultCache<f64> = ResultCache::with_artifact_dir(&dir).unwrap();
        c.put(&spec(10), &1.0).unwrap();
        c.clear_memory();
        for seed in 11..100 {
            assert!(c.get(spec(seed).content_hash()).unwrap().is_none());
        }
        let stats = c.probe_stats();
        assert_eq!(stats.index_probes, 89, "one index probe per miss");
        assert_eq!(stats.disk_reads, 0, "misses must never touch the disk");
        // The one real fetch reads exactly one file.
        assert!(c.get(spec(10).content_hash()).unwrap().is_some());
        assert_eq!(c.probe_stats().disk_reads, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deferred_creation_leaves_no_directory_until_first_put() {
        let dir = temp_dir("deferred");
        let mut c: ResultCache<f64> = ResultCache::with_artifact_dir(&dir).unwrap();
        assert!(c.get(spec(5).content_hash()).unwrap().is_none());
        assert!(!dir.exists(), "lookups alone must not create the directory");
        c.put(&spec(5), &1.0).unwrap();
        assert!(dir.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_artifact_is_an_error_not_a_panic() {
        let dir = temp_dir("corrupt");
        let s = spec(3);
        let mut c: ResultCache<f64> =
            ResultCache::with_artifact_dir_and_format(&dir, ArtifactFormat::Json).unwrap();
        c.put(&s, &1.0).unwrap();
        std::fs::write(c.artifact_path_for(s.content_hash()).unwrap(), "{ not json").unwrap();
        // Re-open so the memory tier is empty and the read really happens.
        let mut fresh: ResultCache<f64> =
            ResultCache::with_artifact_dir_and_format(&dir, ArtifactFormat::Json).unwrap();
        assert!(fresh.get(s.content_hash()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_binary_artifact_is_an_error_not_a_panic() {
        let dir = temp_dir("truncated-bin");
        let s = spec(6);
        {
            let mut c: ResultCache<Vec<f64>> =
                ResultCache::with_artifact_dir_and_format(&dir, ArtifactFormat::Binary).unwrap();
            c.put(&s, &vec![1.0, 2.0, 3.0]).unwrap();
        }
        let path = sharded_path(&dir, s.content_hash(), "bin");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let mut c: ResultCache<Vec<f64>> =
            ResultCache::with_artifact_dir_and_format(&dir, ArtifactFormat::Binary).unwrap();
        let err = c.get(s.content_hash()).unwrap_err();
        assert!(
            err.to_string().contains("truncated") || err.to_string().contains("CRC"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vanished_artifact_is_a_miss_not_an_error() {
        let dir = temp_dir("vanished");
        let s = spec(7);
        let mut c: ResultCache<f64> = ResultCache::with_artifact_dir(&dir).unwrap();
        c.put(&s, &1.0).unwrap();
        c.clear_memory();
        std::fs::remove_file(c.artifact_path_for(s.content_hash()).unwrap()).unwrap();
        assert!(c.get(s.content_hash()).unwrap().is_none());
        // Forgotten from the index: the next probe is index-answered.
        assert_eq!(c.len_index(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn probe_disk_stat_agrees_with_the_index() {
        let dir = temp_dir("probe-agree");
        let mut c: ResultCache<f64> = ResultCache::with_artifact_dir(&dir).unwrap();
        c.put(&spec(20), &2.0).unwrap();
        assert!(c.probe_disk_stat(spec(20).content_hash()));
        assert!(!c.probe_disk_stat(spec(21).content_hash()));
        assert!(c.contains(spec(20).content_hash()));
        assert!(!c.contains(spec(21).content_hash()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_files_of_dead_processes_are_reclaimed_on_open() {
        let dir = temp_dir("tmp-gc");
        let s = spec(30);
        let mut c: ResultCache<f64> = ResultCache::with_artifact_dir(&dir).unwrap();
        c.put(&s, &1.0).unwrap();
        let shard = sharded_path(&dir, s.content_hash(), "bin")
            .parent()
            .unwrap()
            .to_path_buf();
        // A dead process's leak (pid far beyond pid_max) and a live one's
        // in-flight write (our own pid).
        let hex = s.content_hash().to_hex();
        let dead = shard.join(format!("{hex}.tmp.999999999"));
        let live = shard.join(format!("{hex}.tmp.{}", std::process::id()));
        std::fs::write(&dead, b"torn").unwrap();
        std::fs::write(&live, b"in flight").unwrap();

        let fresh: ResultCache<f64> = ResultCache::with_artifact_dir(&dir).unwrap();
        if Path::new("/proc").is_dir() {
            assert_eq!(fresh.reclaimed_tmp(), 1);
            assert!(!dead.exists(), "dead process's temp file reclaimed");
        } else {
            assert_eq!(fresh.reclaimed_tmp(), 0);
        }
        assert!(live.exists(), "live process's temp file untouched");
        // The real artifact still indexes and reads.
        assert_eq!(fresh.len_index(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tmp_name_parser_is_strict() {
        let hex = "0123456789abcdef0123456789abcdef";
        assert_eq!(parse_tmp_name(&format!("{hex}.tmp.123")), Some(123));
        assert_eq!(parse_tmp_name(&format!("{hex}.bin")), None);
        assert_eq!(parse_tmp_name(&format!("{hex}.tmp.notapid")), None);
        assert_eq!(parse_tmp_name("short.tmp.123"), None);
        assert_eq!(parse_tmp_name(&format!("{hex}.tmp")), None);
    }

    #[test]
    fn artifact_format_default_labels_and_extension() {
        assert_eq!(ArtifactFormat::default(), ArtifactFormat::Binary);
        assert_eq!(ArtifactFormat::Binary.label(), "binary");
        assert_eq!(ArtifactFormat::Json.label(), "json");
        assert_eq!(ArtifactFormat::Binary.extension(), "bin");
    }
}
