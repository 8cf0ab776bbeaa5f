//! End-to-end warm-start tests: the persistent repository manifest
//! through the full engine — populate in one session, replay it in the
//! next, and every failure mode (corruption, truncation, version skew,
//! changed source) degrades to a correct cold start.

use majic::{ExecMode, Session, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const POLY: &str = "function p = poly(x)\np = x.^5 + 3*x + 2;\n";
const POLY_V2: &str = "function p = poly(x)\np = x.^5 + 3*x + 7;\n";

struct TempFile {
    dir: PathBuf,
    path: PathBuf,
}

impl TempFile {
    fn new() -> TempFile {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "majic-warmstart-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.majiccache");
        TempFile { dir, path }
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn jit() -> Session {
    Session::with_mode(ExecMode::Jit)
}

fn call1(m: &mut Session, f: &str, x: f64) -> f64 {
    m.call(f, &[Value::scalar(x)], 1).unwrap()[0]
        .to_scalar()
        .unwrap()
}

/// Compile `src` in a throwaway session and flush it to `path`.
fn populate(path: &std::path::Path, src: &str, f: &str, x: f64) -> f64 {
    let mut m = jit();
    m.attach_cache(path);
    m.load_source(src).unwrap();
    let r = call1(&mut m, f, x);
    let written = m.save_cache().unwrap();
    assert!(written > 0, "populate session wrote nothing");
    r
}

#[test]
fn warm_session_skips_compilation_and_matches_cold() {
    let t = TempFile::new();
    let cold = populate(&t.path, POLY, "poly", 3.0);

    let mut m = jit();
    let report = m.attach_cache(&t.path);
    assert!(report.loaded >= 1, "{report:?}");
    m.load_source(POLY).unwrap();
    let report = m.cache_report();
    assert!(report.installed >= 1, "{report:?}");
    assert_eq!(report.rejected_source_hash, 0, "{report:?}");
    // The replayed signature compiles in the background pool.
    m.background().wait();

    let warm = call1(&mut m, "poly", 3.0);
    assert_eq!(warm.to_bits(), cold.to_bits(), "warm result differs");
    assert!(
        m.repository().stats().tier1_hits >= 1,
        "warm call missed the replayed tier-1 version"
    );
    // The call was answered by the repository's signature check alone:
    // the session selected, optimized and register-allocated nothing.
    assert_eq!(
        m.times.codegen,
        Duration::ZERO,
        "warm first call still compiled: {:?}",
        m.times
    );
}

#[test]
fn changed_source_is_rejected_and_recompiled() {
    let t = TempFile::new();
    populate(&t.path, POLY, "poly", 3.0); // 3^5 + 9 + 2 = 254

    // Same function name, different body. The cached version must NOT
    // run; the fresh source must.
    let mut m = jit();
    m.attach_cache(&t.path);
    m.load_source(POLY_V2).unwrap();
    let report = m.cache_report();
    assert_eq!(report.installed, 0, "{report:?}");
    assert!(report.rejected_source_hash >= 1, "{report:?}");
    assert_eq!(call1(&mut m, "poly", 3.0), 259.0); // v2: +7, not +2
}

#[test]
fn garbage_file_is_a_cold_start() {
    let t = TempFile::new();
    std::fs::write(&t.path, b"this is not a majic cache at all").unwrap();
    let mut m = jit();
    let report = m.attach_cache(&t.path);
    assert_eq!(report.loaded, 0);
    assert_eq!(report.rejected_version, 1, "{report:?}");
    m.load_source(POLY).unwrap();
    assert_eq!(call1(&mut m, "poly", 3.0), 254.0);
}

#[test]
fn container_version_skew_is_a_cold_start() {
    let t = TempFile::new();
    populate(&t.path, POLY, "poly", 3.0);
    let mut bytes = std::fs::read(&t.path).unwrap();
    bytes[8] ^= 0xFF; // first byte of the little-endian format version
    std::fs::write(&t.path, &bytes).unwrap();

    let mut m = jit();
    let report = m.attach_cache(&t.path);
    assert_eq!(
        (report.loaded, report.rejected_version),
        (0, 1),
        "{report:?}"
    );
    m.load_source(POLY).unwrap();
    assert_eq!(call1(&mut m, "poly", 3.0), 254.0);
}

#[test]
fn truncation_at_every_length_degrades_to_a_correct_cold_start() {
    let t = TempFile::new();
    populate(&t.path, POLY, "poly", 3.0);
    let full = std::fs::read(&t.path).unwrap();
    // A crash can cut the file anywhere (atomic rename makes this
    // unreachable in practice; the reader must survive it anyway).
    for n in 0..full.len() {
        std::fs::write(&t.path, &full[..n]).unwrap();
        let mut m = jit();
        m.attach_cache(&t.path);
        m.load_source(POLY).unwrap();
        assert_eq!(call1(&mut m, "poly", 3.0), 254.0, "truncated at {n}");
    }
}

#[test]
fn stale_temp_file_from_a_killed_writer_is_harmless() {
    let t = TempFile::new();
    // Simulate a writer killed mid-write: a partial temp file next to
    // the (absent) real one.
    let tmp = t.dir.join("repo.majiccache.tmp");
    std::fs::write(&tmp, b"half-writ").unwrap();

    let mut m = jit();
    let report = m.attach_cache(&t.path);
    assert_eq!(report, Default::default(), "tmp file leaked into load");
    m.load_source(POLY).unwrap();
    assert_eq!(call1(&mut m, "poly", 3.0), 254.0);
    m.save_cache().unwrap();
    assert!(!tmp.exists(), "save left the stale temp file behind");

    // And the save that replaced it produced a loadable cache.
    let mut m = jit();
    let report = m.attach_cache(&t.path);
    assert!(report.loaded >= 1, "{report:?}");
}

#[test]
fn drop_flushes_the_cache() {
    let t = TempFile::new();
    {
        let mut m = jit();
        m.attach_cache(&t.path);
        m.load_source(POLY).unwrap();
        assert_eq!(call1(&mut m, "poly", 3.0), 254.0);
        // No explicit save_cache: Drop must flush.
    }
    assert!(t.path.exists(), "drop did not write the cache");

    let mut m = jit();
    m.attach_cache(&t.path);
    m.load_source(POLY).unwrap();
    assert!(m.cache_report().installed >= 1, "{:?}", m.cache_report());
    assert_eq!(call1(&mut m, "poly", 3.0), 254.0);
}

#[test]
fn unloaded_functions_survive_a_save() {
    let t = TempFile::new();
    populate(&t.path, POLY, "poly", 3.0);

    // A session that never loads `poly` but saves: poly's entry must be
    // carried over, not dropped.
    {
        let mut m = jit();
        m.attach_cache(&t.path);
        m.load_source("function y = other(x)\ny = x + 1;\n")
            .unwrap();
        assert_eq!(call1(&mut m, "other", 1.0), 2.0);
        m.save_cache().unwrap();
    }

    let mut m = jit();
    m.attach_cache(&t.path);
    m.load_source(POLY).unwrap();
    assert!(
        m.cache_report().installed >= 1,
        "carried-over entry was lost: {:?}",
        m.cache_report()
    );
    assert_eq!(call1(&mut m, "poly", 3.0), 254.0);
}

#[test]
fn sessions_that_never_promote_carry_the_manifest_unchanged() {
    let t = TempFile::new();
    populate(&t.path, POLY, "poly", 3.0);
    let entries = |path: &std::path::Path| {
        let mut m = jit();
        m.attach_cache(path).loaded
    };
    let before = entries(&t.path);

    // An mcc session compiles the same signature itself but replays
    // nothing: its save keeps one entry per signature, however often it
    // runs.
    for _ in 0..3 {
        let mut m = Session::with_mode(ExecMode::Mcc);
        m.attach_cache(&t.path);
        m.load_source(POLY).unwrap();
        assert_eq!(m.cache_report().installed, 0, "{:?}", m.cache_report());
        assert_eq!(call1(&mut m, "poly", 3.0), 254.0);
        m.save_cache().unwrap();
    }
    assert_eq!(entries(&t.path), before, "the manifest grew");

    let mut m = jit();
    m.attach_cache(&t.path);
    m.load_source(POLY).unwrap();
    assert!(m.cache_report().installed >= 1, "{:?}", m.cache_report());
}
