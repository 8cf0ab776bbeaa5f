//! Property tests for the persistent repository manifest.
//!
//! Two families, both driven by the testkit PRNG:
//!
//! * **round-trip** — random manifests of signatures serialize → load →
//!   re-serialize to bitwise-identical files (the format is canonical);
//! * **adversarial** — flipping any single byte of a valid cache file
//!   degrades gracefully: no panic, no bogus entries, and the rejection
//!   is attributed to the right `reject.*` bucket for the region hit.

use majic_repo::cache::{CacheEntry, CacheReport, RepoCache, MAGIC};
use majic_testkit::{forall, Rng};
use majic_types::{Dim, Intrinsic, Lattice, Range, Shape, Signature, Type};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

struct TempFile {
    dir: PathBuf,
    path: PathBuf,
}

impl TempFile {
    fn new() -> TempFile {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "majic-cache-props-{}-{}",
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

fn random_intrinsic(rng: &mut Rng) -> Intrinsic {
    *rng.choose(&[
        Intrinsic::Bottom,
        Intrinsic::Bool,
        Intrinsic::Int,
        Intrinsic::Real,
        Intrinsic::Complex,
        Intrinsic::Str,
        Intrinsic::Top,
    ])
}

fn random_type(rng: &mut Rng) -> Type {
    let mut t = Type::top().with_intrinsic(random_intrinsic(rng));
    if rng.coin() {
        let rows = Dim::Finite(rng.range_u64(0, 8));
        let cols = if rng.coin() {
            Dim::Inf
        } else {
            Dim::Finite(rng.range_u64(0, 8))
        };
        t.max_shape = Shape { rows, cols };
        t.min_shape = Shape {
            rows: Dim::Finite(0),
            cols: Dim::Finite(0),
        };
    }
    if rng.coin() {
        let lo = rng.range_f64(-100.0, 100.0);
        t = t.with_range(Range::new(lo, lo + rng.range_f64(0.0, 50.0)));
    }
    t
}

fn random_entry(rng: &mut Rng, k: usize) -> CacheEntry {
    let name = format!("fn_{k}_{}", rng.range_u64(0, 999));
    let n_params = rng.below(4);
    CacheEntry {
        signature: Signature::new((0..n_params).map(|_| random_type(rng)).collect()),
        source_hash: rng.next_u64(),
        name,
    }
}

fn random_state(rng: &mut Rng) -> Vec<CacheEntry> {
    let n = rng.below(6);
    (0..n).map(|k| random_entry(rng, k)).collect()
}

/// True when nothing at all was rejected.
fn nothing_rejected(r: &CacheReport) -> bool {
    r.rejected_version == 0 && r.rejected_checksum == 0
}

#[test]
fn random_states_round_trip_bitwise() {
    forall("cache round-trip", 60, |rng| {
        let t = TempFile::new();
        let cache = RepoCache::new(&t.path);
        let entries = random_state(rng);
        cache.save(&entries).unwrap();
        let bytes = std::fs::read(&t.path).unwrap();

        let (loaded, report) = cache.load();
        assert!(
            nothing_rejected(&report),
            "clean file reported damage: {report:?}"
        );
        assert_eq!(loaded.len(), entries.len());

        // Canonical encoding: re-saving what we loaded reproduces the
        // file bit for bit.
        cache.save(&loaded).unwrap();
        assert_eq!(std::fs::read(&t.path).unwrap(), bytes);

        // And field-level equality holds entry by entry.
        assert_eq!(loaded, entries);
    });
}

#[test]
fn any_single_byte_flip_degrades_gracefully() {
    forall("cache byte-flip", 120, |rng| {
        let t = TempFile::new();
        let cache = RepoCache::new(&t.path);
        // At least one entry so the file has all regions.
        let mut entries = random_state(rng);
        entries.push(random_entry(rng, 99));
        cache.save(&entries).unwrap();
        let clean = std::fs::read(&t.path).unwrap();

        let pos = rng.below(clean.len());
        let mut dirty = clean.clone();
        // Flip 1..8 bits at the position — never a no-op.
        dirty[pos] ^= rng.range_u64(1, 255) as u8;
        std::fs::write(&t.path, &dirty).unwrap();

        // Must not panic, must not report clean, must not hallucinate.
        let (loaded, report) = cache.load();
        assert!(
            !nothing_rejected(&report),
            "flip at byte {pos} went unnoticed: {report:?}"
        );
        assert!(loaded.len() <= entries.len());
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        for e in &loaded {
            assert!(names.contains(&e.name.as_str()));
        }

        // The rejection lands in the right bucket for the region hit.
        if pos < MAGIC.len() + 4 {
            assert_eq!(
                (report.rejected_version, loaded.len()),
                (1, 0),
                "header flip at {pos}: {report:?}"
            );
        } else {
            // Length prefixes, counts, checksums, payloads: all framing/
            // integrity damage.
            assert!(
                report.rejected_checksum >= 1,
                "body flip at {pos}: {report:?}"
            );
        }
    });
}

/// A flipped magic byte rejects the whole file once; a flipped last
/// byte drops exactly the one entry it damages.
#[test]
fn header_and_tail_damage_count_once_in_the_report() {
    let t = TempFile::new();
    let cache = RepoCache::new(&t.path);
    let mut rng = Rng::new(7);
    cache.save(&[random_entry(&mut rng, 0)]).unwrap();
    let clean = std::fs::read(&t.path).unwrap();

    let mut bytes = clean.clone();
    bytes[0] ^= 1;
    std::fs::write(&t.path, &bytes).unwrap();
    let (_, report) = cache.load();
    assert_eq!(report.rejected_version, 1);

    let mut bytes = clean;
    let n = bytes.len();
    bytes[n - 1] ^= 1;
    std::fs::write(&t.path, &bytes).unwrap();
    let (_, report) = cache.load();
    assert_eq!(report.rejected_checksum, 1);
}
