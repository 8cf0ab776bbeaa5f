//! Property tests for the persistent repository cache.
//!
//! Two families, both driven by the testkit PRNG:
//!
//! * **round-trip** — random repository states serialize → load →
//!   re-serialize to bitwise-identical files (the format is canonical);
//! * **adversarial** — flipping any single byte of a valid cache file
//!   degrades gracefully: no panic, no bogus entries, and the rejection
//!   is attributed to the right `reject.*` bucket for the region hit.

use majic_ir::{Block, FBinOp, FUnOp, Function, Inst, Reg, Slot, Terminator, VarBinding};
use majic_repo::cache::{CacheEntry, CacheReport, RepoCache, MAGIC};
use majic_repo::{CodeQuality, CompiledVersion, Tier};
use majic_testkit::{forall, Rng};
use majic_types::{Dim, Intrinsic, Lattice, Range, Shape, Signature, Type};
use majic_vm::Executable;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// A random — but *valid* — executable: a straight-line function over a
/// few registers, flattened by the real flattener so every reference is
/// in bounds.
fn random_executable(rng: &mut Rng, name: &str) -> Executable {
    let n_insts = rng.range_u64(1, 12) as usize;
    let mut insts = Vec::with_capacity(n_insts);
    for _ in 0..n_insts {
        insts.push(match rng.below(4) {
            0 => Inst::FConst {
                d: Reg(rng.range_u64(0, 7) as u32),
                v: rng.range_f64(-1e6, 1e6),
            },
            1 => Inst::FBin {
                op: *rng.choose(&[FBinOp::Add, FBinOp::Mul, FBinOp::Min]),
                d: Reg(rng.range_u64(0, 7) as u32),
                a: Reg(rng.range_u64(0, 7) as u32),
                b: Reg(rng.range_u64(0, 7) as u32),
            },
            2 => Inst::FUn {
                op: *rng.choose(&[FUnOp::Neg, FUnOp::Sqrt, FUnOp::Floor]),
                d: Reg(rng.range_u64(0, 7) as u32),
                s: Reg(rng.range_u64(0, 7) as u32),
            },
            _ => Inst::FToSlot {
                slot: Slot(rng.range_u64(0, 3) as u32),
                s: Reg(rng.range_u64(0, 7) as u32),
            },
        });
    }
    let f = Function {
        name: name.into(),
        blocks: vec![Block {
            insts,
            term: Terminator::Return,
        }],
        f_regs: 8,
        slots: 4,
        params: vec![VarBinding::F(Reg(0))],
        outputs: vec![VarBinding::F(Reg(1))],
        ..Function::default()
    };
    Executable::new(&f, 0, 0)
}

fn random_entry(rng: &mut Rng, k: usize) -> CacheEntry {
    let name = format!("fn_{k}_{}", rng.range_u64(0, 999));
    let n_params = rng.below(4);
    let signature = Signature::new((0..n_params).map(|_| random_type(rng)).collect());
    let n_outs = rng.below(3);
    CacheEntry {
        version: CompiledVersion {
            signature,
            code: Arc::new(random_executable(rng, &name)),
            quality: *rng.choose(&[
                CodeQuality::Generic,
                CodeQuality::Jit,
                CodeQuality::Optimized,
            ]),
            tier: *rng.choose(&[Tier::T0, Tier::T1]),
            output_types: (0..n_outs).map(|_| random_type(rng)).collect(),
            compile_time: Duration::from_nanos(rng.range_u64(0, 1_000_000_000)),
        },
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
    r.rejected_version == 0 && r.rejected_fingerprint == 0 && r.rejected_checksum == 0
}

#[test]
fn random_states_round_trip_bitwise() {
    forall("cache round-trip", 60, |rng| {
        let t = TempFile::new();
        let cache = RepoCache::new(&t.path, "prop-fp");
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
        for (a, b) in entries.iter().zip(&loaded) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.source_hash, b.source_hash);
            assert_eq!(a.version.signature, b.version.signature);
            assert_eq!(a.version.quality, b.version.quality);
            assert_eq!(a.version.tier, b.version.tier);
            assert_eq!(a.version.output_types, b.version.output_types);
            assert_eq!(a.version.compile_time, b.version.compile_time);
            assert_eq!(a.version.code.encode(), b.version.code.encode());
        }
    });
}

#[test]
fn any_single_byte_flip_degrades_gracefully() {
    forall("cache byte-flip", 120, |rng| {
        let t = TempFile::new();
        let fingerprint = "prop-fp";
        let cache = RepoCache::new(&t.path, fingerprint);
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
        let fp_region = 12..12 + 4 + fingerprint.len();
        if pos < MAGIC.len() + 4 {
            assert_eq!(
                (report.rejected_version, loaded.len()),
                (1, 0),
                "header flip at {pos}: {report:?}"
            );
        } else if fp_region.contains(&pos) {
            assert_eq!(
                (report.rejected_fingerprint, loaded.len()),
                (1, 0),
                "fingerprint flip at {pos}: {report:?}"
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

#[test]
fn reject_counters_reach_the_global_trace_registry() {
    // Counters are process-global and other tests run in parallel, so
    // assert on deltas of this test's own damage only.
    let t = TempFile::new();
    let cache = RepoCache::new(&t.path, "fp-A");
    let mut rng = Rng::new(7);
    cache.save(&[random_entry(&mut rng, 0)]).unwrap();

    let before = majic_trace::counter("repo.cache.reject.fingerprint").get();
    let (_, report) = RepoCache::new(&t.path, "fp-B").load();
    assert_eq!(report.rejected_fingerprint, 1);
    let after = majic_trace::counter("repo.cache.reject.fingerprint").get();
    assert!(after > before);

    let before = majic_trace::counter("repo.cache.reject.checksum").get();
    let mut bytes = std::fs::read(&t.path).unwrap();
    let n = bytes.len();
    bytes[n - 1] ^= 1;
    std::fs::write(&t.path, &bytes).unwrap();
    let (_, report) = cache.load();
    assert_eq!(report.rejected_checksum, 1);
    let after = majic_trace::counter("repo.cache.reject.checksum").get();
    assert!(after > before);
}
