//! Property tests of the repository's safety check and locator
//! heuristic (paper §2.2.1): a `lookup` hit must never violate the
//! per-parameter subtype condition `Qi ⊑ Ti`, and among safe candidates
//! the locator must prefer minimal Manhattan distance.

use majic_repo::{CodeQuality, CompiledVersion, Repository, DEFAULT_NS, NO_SESSION};
use majic_testkit::{forall, Rng};
use majic_types::{Dim, Intrinsic, Shape, Signature, Type};
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

fn arb_intrinsic(rng: &mut Rng) -> Intrinsic {
    *rng.choose(&[
        Intrinsic::Bottom,
        Intrinsic::Bool,
        Intrinsic::Int,
        Intrinsic::Real,
        Intrinsic::Complex,
        Intrinsic::Top,
    ])
}

fn arb_dim(rng: &mut Rng) -> Dim {
    if rng.below(5) == 0 {
        Dim::Inf
    } else {
        Dim::Finite(rng.range_u64(0, 6))
    }
}

fn arb_type(rng: &mut Rng) -> Type {
    use majic_types::Lattice;
    let a = Shape {
        rows: arb_dim(rng),
        cols: arb_dim(rng),
    };
    let b = Shape {
        rows: arb_dim(rng),
        cols: arb_dim(rng),
    };
    Type {
        intrinsic: arb_intrinsic(rng),
        min_shape: a.meet(&b),
        max_shape: a.join(&b),
        range: majic_types::Range::top(),
    }
}

fn arb_signature(rng: &mut Rng, arity: usize) -> Signature {
    Signature::new((0..arity).map(|_| arb_type(rng)).collect())
}

fn version(sig: Signature, quality: CodeQuality) -> CompiledVersion {
    CompiledVersion {
        signature: sig,
        code: dummy_code(),
        quality,
        tier: majic_repo::Tier::T0,
        output_types: vec![],
        compile_time: Duration::ZERO,
    }
}

/// A hit implies every actual parameter is a subtype of the matching
/// compiled parameter — speculation can never execute unsafe code.
#[test]
fn lookup_hit_implies_subtype_per_parameter() {
    forall("repo/hit_implies_subtype", 256, |rng| {
        let repo = Repository::new();
        let arity = rng.below(4);
        let n_versions = 1 + rng.below(6);
        for _ in 0..n_versions {
            // Mix arities so arity mismatches are exercised too.
            let v_arity = if rng.below(4) == 0 {
                rng.below(4)
            } else {
                arity
            };
            repo.insert_ns(
                "f",
                DEFAULT_NS,
                NO_SESSION,
                version(arb_signature(rng, v_arity), CodeQuality::Jit),
            );
        }
        let actuals = arb_signature(rng, arity);
        if let Some(hit) = repo.lookup_ns("f", DEFAULT_NS, NO_SESSION, &actuals) {
            assert_eq!(hit.signature.params().len(), actuals.params().len());
            for (q, t) in actuals.params().iter().zip(hit.signature.params()) {
                assert!(
                    q.is_subtype_of(t),
                    "unsafe hit: actual {q:?} not ⊑ compiled {t:?}"
                );
            }
            assert!(
                hit.signature.admits(&actuals),
                "locator returned a version that does not admit the invocation"
            );
        }
    });
}

/// Among all safe candidates, the locator returns one at minimal
/// Manhattan distance from the invocation.
#[test]
fn lookup_prefers_minimal_manhattan_distance() {
    forall("repo/minimal_distance", 256, |rng| {
        let repo = Repository::new();
        let arity = rng.below(3);
        let n_versions = 1 + rng.below(8);
        let mut versions = Vec::new();
        for _ in 0..n_versions {
            let sig = arb_signature(rng, arity);
            versions.push(sig.clone());
            repo.insert_ns("f", DEFAULT_NS, NO_SESSION, version(sig, CodeQuality::Jit));
        }
        let actuals = arb_signature(rng, arity);
        let best_admitting = versions
            .iter()
            .filter(|s| s.admits(&actuals))
            .filter_map(|s| s.distance(&actuals))
            .min();
        match (
            repo.lookup_ns("f", DEFAULT_NS, NO_SESSION, &actuals),
            best_admitting,
        ) {
            (Some(hit), Some(best)) => {
                assert_eq!(
                    hit.signature.distance(&actuals),
                    Some(best),
                    "locator picked distance {:?}, minimum is {best}",
                    hit.signature.distance(&actuals)
                );
            }
            (None, None) => {}
            (hit, best) => panic!(
                "locator and oracle disagree about admissibility: hit {:?}, best {best:?}",
                hit.map(|h| h.signature.clone())
            ),
        }
    });
}

/// Equal-distance ties go to the higher-quality version.
#[test]
fn quality_tie_break_holds_under_random_signatures() {
    forall("repo/quality_tie_break", 128, |rng| {
        let repo = Repository::new();
        let arity = 1 + rng.below(3);
        let sig = arb_signature(rng, arity);
        repo.insert_ns(
            "f",
            DEFAULT_NS,
            NO_SESSION,
            version(sig.clone(), CodeQuality::Jit),
        );
        repo.insert_ns(
            "f",
            DEFAULT_NS,
            NO_SESSION,
            version(sig.clone(), CodeQuality::Optimized),
        );
        repo.insert_ns(
            "f",
            DEFAULT_NS,
            NO_SESSION,
            version(sig.clone(), CodeQuality::Generic),
        );
        // Invoke with the signature itself: it always admits itself
        // (subtyping is reflexive), distance 0 for all three.
        if let Some(hit) = repo.lookup_ns("f", DEFAULT_NS, NO_SESSION, &sig) {
            assert_eq!(hit.quality, CodeQuality::Optimized);
        } else {
            // Bottom-typed parameters admit themselves too, so a miss
            // here would be a locator bug.
            panic!("self-invocation missed: {sig:?}");
        }
    });
}

/// The locator's hit/miss accounting matches what it returns.
#[test]
fn stats_count_every_lookup() {
    forall("repo/stats_accounting", 64, |rng| {
        let repo = Repository::new();
        for _ in 0..rng.below(4) {
            repo.insert_ns(
                "f",
                DEFAULT_NS,
                NO_SESSION,
                version(arb_signature(rng, 1), CodeQuality::Jit),
            );
        }
        let (mut hits, mut misses) = (0u64, 0u64);
        for _ in 0..20 {
            let arity = rng.below(2);
            let actuals = arb_signature(rng, arity);
            if repo
                .lookup_ns("f", DEFAULT_NS, NO_SESSION, &actuals)
                .is_some()
            {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        let stats = repo.stats();
        assert_eq!((stats.hits, stats.misses), (hits, misses));
    });
}
