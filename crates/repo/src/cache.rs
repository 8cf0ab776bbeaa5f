//! The persistent repository cache: compiled versions on disk.
//!
//! MaJIC's responsiveness story rests on never recompiling what it has
//! already compiled. This module extends that across sessions: the
//! in-memory [`Repository`](crate::Repository) can be snapshotted to a
//! single cache file and reloaded at the next startup, so the first call
//! of a warm session dispatches straight into compiled code instead of
//! paying JIT latency.
//!
//! The byte-level layout is specified in `docs/CACHE_FORMAT.md`. The
//! safety argument (paper §2.2.1 — "a wrong guess … never affects
//! program correctness") is preserved across sessions by three gates:
//!
//! 1. **Build fingerprint** — the whole file is rejected unless it was
//!    written by the same compiler build (`repo.cache.reject.version` /
//!    `repo.cache.reject.fingerprint` counters).
//! 2. **Per-entry checksums + full structural validation** — corrupt or
//!    truncated entries are skipped (`repo.cache.reject.checksum`); a
//!    decoded executable is additionally bounds-checked by
//!    [`Executable::decode`](majic_vm::Executable) before it can run.
//! 3. **Source hashes** — every entry records a hash of the function
//!    source it was compiled from; the engine refuses to install an
//!    entry whose source has changed (`repo.cache.reject.source_hash`).
//!
//! Any failure at any gate degrades to a cold start; loading never
//! panics and never errors.

use crate::{CodeQuality, CompiledVersion, Tier};
use majic_types::wire::{
    decode_signature, decode_type, encode_signature, encode_type, fnv1a, Reader, WireError,
    WireResult, Writer,
};
use majic_vm::Executable;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// First eight bytes of every cache file.
pub const MAGIC: [u8; 8] = *b"MAJICRC\0";

/// Version of the container layout (header + entry framing). Bump when
/// the framing itself changes; changes to the *payload* encodings are
/// covered by the build fingerprint instead.
///
/// History: v1 had no tier byte in the entry payload; v2 added it when
/// tiered recompilation landed.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// One compiled function version as stored in (or destined for) the
/// cache file, together with the invalidation key that ties it to the
/// source text it was compiled from.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// Function name.
    pub name: String,
    /// FNV-1a hash of the function's canonical source text. The engine
    /// only installs the entry if the freshly loaded source hashes to
    /// the same value.
    pub source_hash: u64,
    /// The compiled version itself.
    pub version: CompiledVersion,
}

/// Cumulative accounting of persistent-cache activity: what
/// [`RepoCache::load`] found, plus what the engine installed from it.
///
/// Mirrored into the `repo.cache.*` trace counters; this struct is the
/// authoritative per-service record (trace counters are
/// process-global).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// Entries that decoded and checksummed cleanly from disk.
    pub loaded: usize,
    /// Entries installed into the live repository after their function's
    /// source hash matched (`repo.cache.warm_hit`).
    pub installed: usize,
    /// Whole-file rejections: bad magic or container version
    /// (`repo.cache.reject.version`).
    pub rejected_version: usize,
    /// Whole-file rejections: compiler build fingerprint mismatch
    /// (`repo.cache.reject.fingerprint`).
    pub rejected_fingerprint: usize,
    /// Entries (or the file's tail) dropped for checksum, framing,
    /// truncation, or decode damage (`repo.cache.reject.checksum`).
    pub rejected_checksum: usize,
    /// Entries whose function was reloaded with different source
    /// (`repo.cache.reject.source_hash`).
    pub rejected_source_hash: usize,
}

impl std::ops::AddAssign for CacheReport {
    fn add_assign(&mut self, o: CacheReport) {
        self.loaded += o.loaded;
        self.installed += o.installed;
        self.rejected_version += o.rejected_version;
        self.rejected_fingerprint += o.rejected_fingerprint;
        self.rejected_checksum += o.rejected_checksum;
        self.rejected_source_hash += o.rejected_source_hash;
    }
}

/// A versioned, integrity-checked on-disk store for compiled repository
/// entries.
///
/// The store is a plain file; [`load`](RepoCache::load) is infallible
/// (any problem means fewer entries, never an error) and
/// [`save`](RepoCache::save) is atomic (temp file + rename), so a crash
/// mid-write can never leave a half-written cache that poisons the next
/// session.
#[derive(Clone, Debug)]
pub struct RepoCache {
    path: PathBuf,
    fingerprint: String,
}

impl RepoCache {
    /// A cache at `path`, keyed by the given compiler build fingerprint
    /// (see `majic_codegen::build_fingerprint`). Nothing is read or
    /// written until `load`/`save`.
    pub fn new(path: impl Into<PathBuf>, fingerprint: impl Into<String>) -> RepoCache {
        RepoCache {
            path: path.into(),
            fingerprint: fingerprint.into(),
        }
    }

    /// The cache file location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The build fingerprint this cache accepts.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
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
        let entries = self.parse(&bytes, &mut report);
        majic_trace::counter("repo.cache.reject.version").add(report.rejected_version as u64);
        majic_trace::counter("repo.cache.reject.fingerprint")
            .add(report.rejected_fingerprint as u64);
        majic_trace::counter("repo.cache.reject.checksum").add(report.rejected_checksum as u64);
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
        if report.rejected_fingerprint > 0 {
            majic_trace::audit::session_event("cache.reject.fingerprint", || {
                (
                    String::new(),
                    format!(
                        "{}: written by a different compiler build (this build is {:?}); \
                         whole file rejected, cold start",
                        self.path.display(),
                        self.fingerprint
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

    fn parse(&self, bytes: &[u8], report: &mut CacheReport) -> Vec<CacheEntry> {
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
        match header_ok {
            Ok(true) => {}
            Ok(false) | Err(_) => {
                report.rejected_version += 1;
                return Vec::new();
            }
        }
        // Gate 1b: build fingerprint. A fingerprint that fails to even
        // decode (truncated or damaged region) is still a fingerprint
        // rejection: we cannot establish which build wrote the file.
        match r.str() {
            Ok(fp) if fp == self.fingerprint => {}
            _ => {
                report.rejected_fingerprint += 1;
                return Vec::new();
            }
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
            // Gate 2: checksum + structural decode (including executable
            // bounds validation). A bad frame means we can no longer
            // trust the framing of anything after it; a bad payload in a
            // good frame lets us keep scanning.
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
            // Trailing garbage after the declared entries: the file was
            // not produced by our writer. Keep the verified entries but
            // record the damage.
            report.rejected_checksum += 1;
        }
        entries
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
        let bytes = self.serialize(entries);
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

    /// The exact bytes `save` would write (exposed for tests and tools).
    pub fn serialize(&self, entries: &[CacheEntry]) -> Vec<u8> {
        let mut w = Writer::new();
        for b in MAGIC {
            w.u8(b);
        }
        w.u32(CACHE_FORMAT_VERSION);
        w.str(&self.fingerprint);
        w.u32(entries.len() as u32);
        for e in entries {
            let payload = encode_entry(e);
            w.u64(fnv1a(&payload));
            w.blob(&payload);
        }
        w.into_bytes()
    }
}

/// The temp-file sibling used by atomic saves: `<file>.tmp` in the same
/// directory (rename is only atomic within a filesystem).
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn quality_tag(q: CodeQuality) -> u8 {
    match q {
        CodeQuality::Generic => 0,
        CodeQuality::Jit => 1,
        CodeQuality::Optimized => 2,
    }
}

fn quality_from(tag: u8) -> WireResult<CodeQuality> {
    Ok(match tag {
        0 => CodeQuality::Generic,
        1 => CodeQuality::Jit,
        2 => CodeQuality::Optimized,
        _ => return Err(WireError::new("code quality tag")),
    })
}

fn tier_tag(t: Tier) -> u8 {
    t.level()
}

fn tier_from(tag: u8) -> WireResult<Tier> {
    Ok(match tag {
        0 => Tier::T0,
        1 => Tier::T1,
        _ => return Err(WireError::new("tier tag")),
    })
}

fn encode_entry(e: &CacheEntry) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(&e.name);
    w.u64(e.source_hash);
    w.u8(quality_tag(e.version.quality));
    w.u8(tier_tag(e.version.tier));
    w.u64(e.version.compile_time.as_nanos() as u64);
    encode_signature(&mut w, &e.version.signature);
    w.u32(e.version.output_types.len() as u32);
    for t in &e.version.output_types {
        encode_type(&mut w, t);
    }
    w.blob(&e.version.code.encode());
    w.into_bytes()
}

fn decode_entry(payload: &[u8]) -> WireResult<CacheEntry> {
    let mut r = Reader::new(payload);
    let name = r.str()?;
    let source_hash = r.u64()?;
    let quality = quality_from(r.u8()?)?;
    let tier = tier_from(r.u8()?)?;
    let compile_time = Duration::from_nanos(r.u64()?);
    let signature = decode_signature(&mut r)?;
    let n = r.seq_len(6)?;
    let mut output_types = Vec::with_capacity(n);
    for _ in 0..n {
        output_types.push(decode_type(&mut r)?);
    }
    let code = Executable::decode(r.blob()?)?;
    if !r.is_empty() {
        return Err(WireError::new("trailing bytes after cache entry"));
    }
    Ok(CacheEntry {
        name,
        source_hash,
        version: CompiledVersion {
            signature,
            code: Arc::new(code),
            quality,
            tier,
            output_types,
            compile_time,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use majic_ir::{Block, Function};
    use majic_types::{Intrinsic, Lattice, Signature, Type};
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
        r.rejected_version == 0 && r.rejected_fingerprint == 0 && r.rejected_checksum == 0
    }

    fn entry(name: &str, source_hash: u64) -> CacheEntry {
        let exe = Executable::new(
            &Function {
                name: name.into(),
                blocks: vec![Block::default()],
                ..Function::default()
            },
            0,
            0,
        );
        CacheEntry {
            name: name.into(),
            source_hash,
            version: CompiledVersion {
                signature: Signature::new(vec![Type::scalar(Intrinsic::Real)]),
                code: Arc::new(exe),
                quality: CodeQuality::Optimized,
                tier: Tier::T1,
                output_types: vec![Type::top(), Type::constant(2.0)],
                compile_time: Duration::from_micros(123),
            },
        }
    }

    #[test]
    fn missing_file_is_a_quiet_cold_start() {
        let t = TempFile::new();
        let cache = RepoCache::new(&t.path, "fp");
        let (entries, report) = cache.load();
        assert!(entries.is_empty());
        assert_eq!(report, CacheReport::default());
        assert!(nothing_rejected(&report));
    }

    #[test]
    fn save_load_round_trips() {
        let t = TempFile::new();
        let cache = RepoCache::new(&t.path, "fp");
        let wrote = vec![entry("f", 11), entry("g", 22)];
        cache.save(&wrote).unwrap();
        let (got, report) = cache.load();
        assert!(nothing_rejected(&report));
        assert_eq!(report.loaded, 2);
        assert_eq!(got.len(), 2);
        for (a, b) in wrote.iter().zip(&got) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.source_hash, b.source_hash);
            assert_eq!(a.version.signature, b.version.signature);
            assert_eq!(a.version.quality, b.version.quality);
            assert_eq!(a.version.tier, b.version.tier);
            assert_eq!(a.version.compile_time, b.version.compile_time);
            assert_eq!(a.version.output_types, b.version.output_types);
            assert_eq!(a.version.code.encode(), b.version.code.encode());
        }
        // Saving what we loaded reproduces the same bytes (canonical).
        assert_eq!(cache.serialize(&wrote), cache.serialize(&got));
        // No temp file left behind.
        assert!(!tmp_path(&t.path).exists());
    }

    #[test]
    fn fingerprint_mismatch_rejects_whole_file() {
        let t = TempFile::new();
        RepoCache::new(&t.path, "build-A")
            .save(&[entry("f", 1)])
            .unwrap();
        let (entries, report) = RepoCache::new(&t.path, "build-B").load();
        assert!(entries.is_empty());
        assert_eq!(report.rejected_fingerprint, 1);
    }

    #[test]
    fn bad_magic_or_version_rejects_whole_file() {
        let t = TempFile::new();
        let cache = RepoCache::new(&t.path, "fp");
        cache.save(&[entry("f", 1)]).unwrap();

        let mut bytes = fs::read(&t.path).unwrap();
        bytes[0] ^= 0xFF; // magic
        fs::write(&t.path, &bytes).unwrap();
        let (entries, report) = cache.load();
        assert!(entries.is_empty());
        assert_eq!(report.rejected_version, 1);

        let mut bytes = cache.serialize(&[entry("f", 1)]);
        bytes[8] = 0xEE; // container version (first byte, LE)
        fs::write(&t.path, &bytes).unwrap();
        let (entries, report) = cache.load();
        assert!(entries.is_empty());
        assert_eq!(report.rejected_version, 1);
    }

    #[test]
    fn corrupt_entry_is_skipped_and_counted() {
        let t = TempFile::new();
        let cache = RepoCache::new(&t.path, "fp");
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
        let cache = RepoCache::new(&t.path, "fp");
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
        let cache = RepoCache::new(&t.path, "fp");
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
        let cache = RepoCache::new(&nested, "fp");
        cache.save(&[entry("f", 1)]).unwrap();
        assert_eq!(cache.load().0.len(), 1);
    }
}
