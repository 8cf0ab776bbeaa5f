//! Concurrency stress: reader threads hammer `lookup` while writer
//! threads (standing in for spec workers) `insert`. Asserts the sharded
//! repository loses no versions, keeps locator statistics monotonically
//! non-decreasing, and never hands a reader an unsafe version.

use majic_repo::{CodeQuality, CompiledVersion, Repository, DEFAULT_NS, NO_SESSION};
use majic_types::{Intrinsic, Range, Signature, Type};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn dummy_code() -> Arc<majic_vm::Executable> {
    Arc::new(majic_vm::Executable::new(
        &majic_ir::Function {
            name: "f".into(),
            blocks: vec![majic_ir::Block::default()],
            ..majic_ir::Function::default()
        },
        0,
        0,
    ))
}

/// A distinct, self-admitting signature per (writer, iteration): an int
/// scalar constrained to the constant `k`.
fn sig(k: f64) -> Signature {
    Signature::new(vec![
        Type::scalar(Intrinsic::Int).with_range(Range::new(k, k))
    ])
}

#[test]
fn readers_never_block_out_lost_inserts() {
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const INSERTS_PER_WRITER: usize = 250;
    // Spread across several function names so multiple shards stay hot.
    const NAMES: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

    let repo = Arc::new(Repository::new());
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let repo = Arc::clone(&repo);
            std::thread::spawn(move || {
                for i in 0..INSERTS_PER_WRITER {
                    let k = (w * INSERTS_PER_WRITER + i) as f64;
                    let name = NAMES[i % NAMES.len()];
                    repo.insert_ns(
                        name,
                        DEFAULT_NS,
                        NO_SESSION,
                        CompiledVersion {
                            signature: sig(k),
                            code: dummy_code(),
                            quality: CodeQuality::Optimized,
                            tier: majic_repo::Tier::T1,
                            output_types: vec![],
                            compile_time: Duration::from_nanos(1),
                        },
                    );
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let repo = Arc::clone(&repo);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Each reader verifies its own observations: safe hits
                // only, and hit/miss counters never go backwards.
                let mut last_hits = 0u64;
                let mut last_misses = 0u64;
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let k = ((r * 37 + i) % (WRITERS * INSERTS_PER_WRITER)) as f64;
                    let actuals = sig(k);
                    if let Some(hit) =
                        repo.lookup_ns(NAMES[i % NAMES.len()], DEFAULT_NS, NO_SESSION, &actuals)
                    {
                        assert!(
                            hit.signature.admits(&actuals),
                            "reader observed an unsafe hit"
                        );
                    }
                    let stats = repo.stats();
                    assert!(stats.hits >= last_hits, "hit counter went backwards");
                    assert!(stats.misses >= last_misses, "miss counter went backwards");
                    last_hits = stats.hits;
                    last_misses = stats.misses;
                    i += 1;
                }
            })
        })
        .collect();

    for w in writers {
        w.join().expect("writer panicked");
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader panicked");
    }

    // No lost versions: every insert is present.
    let stats = repo.stats();
    assert_eq!(stats.inserts, (WRITERS * INSERTS_PER_WRITER) as u64);
    assert_eq!(
        stats.tier0_versions + stats.tier1_versions,
        WRITERS * INSERTS_PER_WRITER
    );
    // And every version is individually findable by its own signature.
    for w in 0..WRITERS {
        for i in 0..INSERTS_PER_WRITER {
            let k = (w * INSERTS_PER_WRITER + i) as f64;
            let name = NAMES[i % NAMES.len()];
            assert!(
                repo.lookup_ns(name, DEFAULT_NS, NO_SESSION, &sig(k))
                    .is_some(),
                "version {k} of {name} was lost"
            );
        }
    }
}
