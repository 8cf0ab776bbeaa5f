//! The persistent repository manifest: which versions to compile again.
//!
//! MaJIC fills its repository ahead of time from the source (paper
//! §2.5). This module carries the repository's *shape* across
//! sessions: one manifest entry per distinct compiled signature,
//! naming the function, the closure-source hash it was compiled under
//! and the signature. A warm session replays the entries whose source
//! still matches through the background promotion path, so tier-1 code
//! for the signatures the last session used is compiled again off the
//! critical path. No compiled code is ever written to or read from
//! disk.
//!
//! The byte-level layout is specified in `docs/CACHE_FORMAT.md`. Two
//! gates keep a damaged or stale manifest from costing anything but
//! warm-up:
//!
//! 1. **Container + per-entry checksums** — a file with bad magic or
//!    another format version is rejected whole
//!    ([`CacheReport::rejected_version`]); corrupt or truncated entries
//!    are skipped ([`CacheReport::rejected_checksum`]).
//! 2. **Source hashes** — every entry records the closure hash of the
//!    source its version was compiled from; the engine replays an
//!    entry only when the freshly loaded source hashes to the same
//!    value ([`CacheReport::rejected_source_hash`]).
//!
//! A recorded signature is safe under any compiler build: replaying it
//! compiles fresh code, and the repository's signature check still
//! gates every dispatch. Loading never panics and never errors.

use majic_types::wire::{
    decode_signature, encode_signature, fnv1a, Reader, WireError, WireResult, Writer,
};
use majic_types::Signature;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// First eight bytes of every cache file.
pub const MAGIC: [u8; 8] = *b"MAJICRC\0";

/// Version of the file layout: header, entry framing and payload
/// encodings, the signature codec of `majic_types::wire` included.
///
/// History: v1 stored compiled code; v2 added a tier byte when tiered
/// recompilation landed; v3 stores a manifest of signatures, no code.
pub const CACHE_FORMAT_VERSION: u32 = 3;

/// One compiled version as recorded in (or destined for) the manifest:
/// the function, the closure-source hash it was compiled under and the
/// signature it was compiled for.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEntry {
    /// Function name.
    pub name: String,
    /// FNV-1a closure hash of the function's source (its repository
    /// namespace). The engine replays the entry only if the freshly
    /// loaded source hashes to the same value.
    pub source_hash: u64,
    /// The signature to compile again.
    pub signature: Signature,
}

/// Cumulative accounting of persistent-cache activity: what
/// [`RepoCache::load`] found, plus what the engine replayed from it.
///
/// This struct is the only count of these facts, kept per service; each
/// rejection also leaves a `cache.reject.*` audit event saying why.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// Entries that decoded and checksummed cleanly from disk.
    pub loaded: usize,
    /// Entries replayed after their function's source hash matched.
    pub installed: usize,
    /// Whole-file rejections: bad magic or container version.
    pub rejected_version: usize,
    /// Entries (or the file's tail) dropped for checksum, framing,
    /// truncation, or decode damage.
    pub rejected_checksum: usize,
    /// Entries whose function was reloaded with different source.
    pub rejected_source_hash: usize,
}

impl std::ops::AddAssign for CacheReport {
    fn add_assign(&mut self, o: CacheReport) {
        self.loaded += o.loaded;
        self.installed += o.installed;
        self.rejected_version += o.rejected_version;
        self.rejected_checksum += o.rejected_checksum;
        self.rejected_source_hash += o.rejected_source_hash;
    }
}

/// A versioned, integrity-checked on-disk manifest of repository
/// versions.
///
/// The store is a plain file; [`load`](RepoCache::load) is infallible
/// (any problem means fewer entries, never an error) and
/// [`save`](RepoCache::save) is atomic (temp file + rename), so a crash
/// mid-write can never leave a half-written file that poisons the next
/// session.
#[derive(Clone, Debug)]
pub struct RepoCache {
    path: PathBuf,
}

impl RepoCache {
    /// A cache at `path`. Nothing is read or written until
    /// `load`/`save`.
    pub fn new(path: impl Into<PathBuf>) -> RepoCache {
        RepoCache { path: path.into() }
    }

    /// The cache file location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read the cache, returning every entry that survives all integrity
    /// gates plus a report of what was loaded and rejected.
    ///
    /// A missing file is an ordinary cold start (empty result, clean
    /// report). A malformed file degrades: header problems reject the
    /// whole file, per-entry problems skip that entry and keep going.
    /// This function never panics and never returns an error.
    pub fn load(&self) -> (Vec<CacheEntry>, CacheReport) {
        let mut report = CacheReport::default();
        let bytes = match fs::read(&self.path) {
            Ok(b) => b,
            Err(_) => return (Vec::new(), report), // cold start
        };
        let entries = parse(&bytes, &mut report);
        if report.rejected_version > 0 {
            majic_trace::audit::session_event("cache.reject.version", || {
                (
                    String::new(),
                    format!(
                        "{}: bad magic or container version — not a cache this \
                         build can read",
                        self.path.display()
                    ),
                )
            });
        }
        if report.rejected_checksum > 0 {
            majic_trace::audit::session_event("cache.reject.checksum", || {
                (
                    String::new(),
                    format!(
                        "{}: {} entr{} dropped for checksum/framing/decode damage",
                        self.path.display(),
                        report.rejected_checksum,
                        if report.rejected_checksum == 1 {
                            "y"
                        } else {
                            "ies"
                        }
                    ),
                )
            });
        }
        (entries, report)
    }

    /// Atomically write `entries` to the cache file, replacing any
    /// previous contents. The bytes are first written to a sibling
    /// temporary file and then `rename`d into place, so concurrent or
    /// crashed writers can never expose a half-written cache.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (unwritable directory, disk full…).
    pub fn save(&self, entries: &[CacheEntry]) -> io::Result<()> {
        let bytes = serialize(entries);
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        let tmp = tmp_path(&self.path);
        fs::write(&tmp, &bytes)?;
        match fs::rename(&tmp, &self.path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

fn parse(bytes: &[u8], report: &mut CacheReport) -> Vec<CacheEntry> {
    let mut r = Reader::new(bytes);
    // Gate 1a: container magic + version.
    let header_ok = (|| -> WireResult<bool> {
        let mut magic = [0u8; 8];
        for m in &mut magic {
            *m = r.u8()?;
        }
        if magic != MAGIC {
            return Ok(false);
        }
        Ok(r.u32()? == CACHE_FORMAT_VERSION)
    })();
    if header_ok != Ok(true) {
        report.rejected_version += 1;
        return Vec::new();
    }
    let count = match r.seq_len(12) {
        Ok(n) => n,
        Err(_) => {
            report.rejected_checksum += 1;
            return Vec::new();
        }
    };
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        // Frame: checksum, then length-prefixed payload.
        let payload = (|| -> WireResult<&[u8]> {
            let sum = r.u64()?;
            let payload = r.blob()?;
            if fnv1a(payload) != sum {
                return Err(WireError::new("entry checksum"));
            }
            Ok(payload)
        })();
        // Gate 1b: checksum + structural decode. A bad frame means we
        // can no longer trust the framing of anything after it; a bad
        // payload in a good frame lets us keep scanning.
        match payload {
            Err(_) => {
                report.rejected_checksum += 1;
                return entries;
            }
            Ok(payload) => match decode_entry(payload) {
                Ok(e) => {
                    report.loaded += 1;
                    entries.push(e);
                }
                Err(_) => report.rejected_checksum += 1,
            },
        }
    }
    if !r.is_empty() {
        // Trailing garbage after the declared entries: the file was not
        // produced by our writer. Keep the verified entries but record
        // the damage.
        report.rejected_checksum += 1;
    }
    entries
}

/// The exact bytes `save` writes.
fn serialize(entries: &[CacheEntry]) -> Vec<u8> {
    let mut w = Writer::new();
    for b in MAGIC {
        w.u8(b);
    }
    w.u32(CACHE_FORMAT_VERSION);
    w.u32(entries.len() as u32);
    for e in entries {
        let payload = encode_entry(e);
        w.u64(fnv1a(&payload));
        w.blob(&payload);
    }
    w.into_bytes()
}

/// The temp-file sibling used by atomic saves: `<file>.tmp` in the same
/// directory (rename is only atomic within a filesystem).
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn encode_entry(e: &CacheEntry) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(&e.name);
    w.u64(e.source_hash);
    encode_signature(&mut w, &e.signature);
    w.into_bytes()
}

fn decode_entry(payload: &[u8]) -> WireResult<CacheEntry> {
    let mut r = Reader::new(payload);
    let name = r.str()?;
    let source_hash = r.u64()?;
    let signature = decode_signature(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::new("trailing bytes after cache entry"));
    }
    Ok(CacheEntry {
        name,
        source_hash,
        signature,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use majic_types::{Intrinsic, Lattice, Type};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch file path; the whole directory is removed on
    /// drop.
    struct TempFile {
        dir: PathBuf,
        path: PathBuf,
    }

    impl TempFile {
        fn new() -> TempFile {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "majic-cache-test-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&dir).unwrap();
            let path = dir.join("repo.majiccache");
            TempFile { dir, path }
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }

    /// True when nothing at all was rejected.
    fn nothing_rejected(r: &CacheReport) -> bool {
        r.rejected_version == 0 && r.rejected_checksum == 0
    }

    fn entry(name: &str, source_hash: u64) -> CacheEntry {
        CacheEntry {
            name: name.into(),
            source_hash,
            signature: Signature::new(vec![Type::scalar(Intrinsic::Real), Type::top()]),
        }
    }

    #[test]
    fn missing_file_is_a_quiet_cold_start() {
        let t = TempFile::new();
        let cache = RepoCache::new(&t.path);
        let (entries, report) = cache.load();
        assert!(entries.is_empty());
        assert_eq!(report, CacheReport::default());
        assert!(nothing_rejected(&report));
    }

    #[test]
    fn save_load_round_trips() {
        let t = TempFile::new();
        let cache = RepoCache::new(&t.path);
        let wrote = vec![entry("f", 11), entry("g", 22)];
        cache.save(&wrote).unwrap();
        let (got, report) = cache.load();
        assert!(nothing_rejected(&report));
        assert_eq!(report.loaded, 2);
        assert_eq!(got.len(), 2);
        assert_eq!(wrote, got);
        // Saving what we loaded reproduces the same bytes (canonical).
        assert_eq!(serialize(&wrote), serialize(&got));
        // No temp file left behind.
        assert!(!tmp_path(&t.path).exists());
    }

    /// The worked example of `docs/CACHE_FORMAT.md`, byte for byte.
    #[test]
    fn worked_example_matches_the_format_doc() {
        let inc = CacheEntry {
            name: "inc".into(),
            source_hash: 0x1122_3344_5566_7788,
            signature: Signature::new(vec![Type::scalar(Intrinsic::Real)]),
        };
        let bytes = serialize(&[inc]);
        assert_eq!(bytes.len(), 100);
        assert_eq!(&bytes[..12], b"MAJICRC\0\x03\0\0\0");
        assert_eq!(
            bytes[16..24],
            [0xc8, 0x5b, 0x8a, 0xd2, 0xd7, 0x92, 0x63, 0xea]
        );
        assert_eq!(bytes[96..], [0x00, 0x00, 0xf0, 0x7f]);
    }

    #[test]
    fn bad_magic_or_version_rejects_whole_file() {
        let t = TempFile::new();
        let cache = RepoCache::new(&t.path);
        cache.save(&[entry("f", 1)]).unwrap();

        let mut bytes = fs::read(&t.path).unwrap();
        bytes[0] ^= 0xFF; // magic
        fs::write(&t.path, &bytes).unwrap();
        let (entries, report) = cache.load();
        assert!(entries.is_empty());
        assert_eq!(report.rejected_version, 1);

        let mut bytes = serialize(&[entry("f", 1)]);
        bytes[8] = 0xEE; // container version (first byte, LE)
        fs::write(&t.path, &bytes).unwrap();
        let (entries, report) = cache.load();
        assert!(entries.is_empty());
        assert_eq!(report.rejected_version, 1);
    }

    #[test]
    fn corrupt_entry_is_skipped_and_counted() {
        let t = TempFile::new();
        let cache = RepoCache::new(&t.path);
        cache.save(&[entry("f", 1), entry("g", 2)]).unwrap();
        let mut bytes = fs::read(&t.path).unwrap();
        // Flip one byte in the *last* entry's payload (the file tail).
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        fs::write(&t.path, &bytes).unwrap();
        let (entries, report) = cache.load();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "f");
        assert_eq!(report.loaded, 1);
        assert_eq!(report.rejected_checksum, 1);
    }

    #[test]
    fn truncation_at_every_length_never_panics() {
        let t = TempFile::new();
        let cache = RepoCache::new(&t.path);
        cache.save(&[entry("f", 1), entry("g", 2)]).unwrap();
        let full = fs::read(&t.path).unwrap();
        for n in 0..full.len() {
            fs::write(&t.path, &full[..n]).unwrap();
            let (entries, report) = cache.load();
            // Whatever survives decoded from an intact prefix; the
            // damage is always accounted for.
            assert!(entries.len() <= 2);
            assert!((n == 0) || !nothing_rejected(&report) || entries.len() == 2);
        }
        // Trailing garbage is detected too.
        let mut padded = full.clone();
        padded.extend_from_slice(b"junk");
        fs::write(&t.path, &padded).unwrap();
        let (entries, report) = cache.load();
        assert_eq!(entries.len(), 2);
        assert_eq!(report.rejected_checksum, 1);
    }

    #[test]
    fn stale_temp_file_does_not_poison_saves() {
        let t = TempFile::new();
        let cache = RepoCache::new(&t.path);
        // A previous session died mid-write, leaving temp garbage.
        fs::write(tmp_path(&t.path), b"half-written garbage").unwrap();
        cache.save(&[entry("f", 1)]).unwrap();
        let (entries, report) = cache.load();
        assert!(nothing_rejected(&report));
        assert_eq!(entries.len(), 1);
        assert!(!tmp_path(&t.path).exists());
    }

    #[test]
    fn save_creates_parent_directories() {
        let t = TempFile::new();
        let nested = t.dir.join("a/b/repo.majiccache");
        let cache = RepoCache::new(&nested);
        cache.save(&[entry("f", 1)]).unwrap();
        assert_eq!(cache.load().0.len(), 1);
    }
}
