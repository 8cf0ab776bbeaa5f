//! The code repository (paper §2, §2.2.1).
//!
//! "The code repository is a database of compiled code. … The code
//! repository may contain, at any time, several compiled versions of the
//! same code, differing only in the assumptions about the types of input
//! parameters. The function locator has to match a given invocation to a
//! version of compiled code in the repository that is safe to execute
//! (i.e. preserves the semantics of the program), and at the same time
//! is optimal performance-wise. … When several matching objects exist,
//! the code repository uses simple heuristics to find the best matching
//! candidate for a particular call, based on a Manhattan-like 'distance'
//! between the type signature of the invocation and the matching
//! compiled code."
//!
//! Safety is the subtype check `Qi ⊑ Ti` per parameter; it is what makes
//! speculation *safe*: "a wrong guess by the compiler results, at worst,
//! in degraded performance, but never affects program correctness".
//!
//! # Namespaces
//!
//! The repository is a *process-wide* asset shared by every session of a
//! [`CompilerService`](https://docs.rs/majic): versions are stored
//! two-level, `function name → namespace → versions`. A namespace key is
//! an opaque `u64` — the engine uses the function's transitive source
//! (closure) hash, so two sessions that loaded identical source share
//! one namespace (and each other's compiled versions), while a session
//! that redefined `f` (or any function `f` reaches) lands in a different
//! namespace and can never be answered with its neighbor's code.
//! Single-tenant callers (tests, tools) use [`DEFAULT_NS`].
//!
//! # Concurrency
//!
//! The repository is shared between the foreground engine and the
//! background speculative-compilation workers, so it is `Send + Sync`:
//! function entries are distributed across [`SHARD_COUNT`] independent
//! `RwLock` shards (keyed by a hash of the function name), and the
//! locator statistics are atomics. Lookups on one function never block
//! behind inserts on a function in a different shard, and concurrent
//! readers of the same shard proceed in parallel; a shard's write lock
//! is held only for the duration of one `Vec::push`.
//!
//! Background publishes are additionally guarded against *staleness*:
//! every (function, namespace) pair carries an invalidation generation,
//! bumped by [`Repository::invalidate_ns`] on source change, and a
//! worker that compiled from a pre-change snapshot publishes through
//! [`Repository::insert_if_current_ns`], which drops the version instead
//! of letting since-redefined code take over dispatch. The namespace key
//! joins that guard: generations are per namespace, so a session
//! redefining `f` never poisons a neighbor still running the old `f`.
//!
//! # Persistence
//!
//! The [`cache`] module persists a manifest of the repository across
//! sessions in an integrity-checked on-disk file
//! (`docs/CACHE_FORMAT.md`): one `(function, closure hash, signature)`
//! entry per compiled signature, no compiled code. A warm session replays the
//! signatures whose source is unchanged as background tier-1 compiles.

#![deny(missing_docs)]

pub mod cache;

use majic_types::{Signature, Type};
use majic_vm::Executable;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// The namespace of functions outside any session's closure-hash table
/// (tests, tools). Engine sessions use the function's closure hash.
pub const DEFAULT_NS: u64 = 0;

/// The session id recorded for versions inserted outside any session
/// (tests, tools). Lookups attributed to this id never count as shared
/// hits.
pub const NO_SESSION: u64 = 0;

/// Locator and lifecycle statistics of a [`Repository`].
///
/// All counts are since creation, except the `*_versions` fields, which are the repository's *current*
/// per-tier population at the moment [`Repository::stats`] ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepoStats {
    /// Lookups answered by an existing version.
    pub hits: u64,
    /// Lookups with no safe version (each triggers a JIT compile).
    pub misses: u64,
    /// Hits answered by a version a *different* session inserted —
    /// the cross-session amortization a shared service exists for.
    /// Only session-attributed lookups ([`Repository::lookup_ns`])
    /// can count here.
    pub shared_hits: u64,
    /// Versions inserted.
    pub inserts: u64,
    /// Invalidations (source-change recompilation triggers).
    pub invalidations: u64,
    /// Hits answered by a tier-0 (fast-pipeline) version.
    pub tier0_hits: u64,
    /// Hits answered by a tier-1 (optimizing-pipeline) version.
    pub tier1_hits: u64,
    /// Tier-0 versions currently live.
    pub tier0_versions: usize,
    /// Tier-1 versions currently live.
    pub tier1_versions: usize,
}

impl RepoStats {
    /// Fraction of lookups that hit, or 0.0 with no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The dispatch-preference level of a compiled version.
///
/// Tiers order the *pipelines* that produce code: tier 0 is anything
/// compiled on (or for) the critical path by a fast pipeline (the JIT
/// and the `mcc` emulation), tier 1 is the optimizing backend
/// (speculative, batch, or a hotness-driven background recompile). The
/// locator prefers the highest tier among the safe candidates, so a
/// tier-1 version atomically takes over dispatch the moment it is
/// inserted — and a call its signature does not admit falls back to
/// tier 0 just as atomically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Tier 0: fast-pipeline output (JIT / generic).
    T0,
    /// Tier 1: optimizing-backend output.
    T1,
}

impl Tier {
    /// Numeric level (0 or 1) for the audit log and diagnostics.
    pub fn level(self) -> u8 {
        match self {
            Tier::T0 => 0,
            Tier::T1 => 1,
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tier-{}", self.level())
    }
}

/// Number of independent lock shards. A small power of two: the
/// workload is dozens-to-hundreds of functions, not millions, and the
/// goal is only that foreground lookups rarely contend with background
/// publishes.
pub const SHARD_COUNT: usize = 16;

/// How a version was produced — used as a tie-breaker among equally
/// close candidates (optimized code wins) and reported in diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CodeQuality {
    /// `mcc`-style generic code.
    Generic,
    /// Fast JIT pipeline (no backend optimization).
    Jit,
    /// Optimizing pipeline (speculative / batch backend).
    Optimized,
}

/// One compiled version of a function.
#[derive(Clone, Debug)]
pub struct CompiledVersion {
    /// The type signature the code was compiled for.
    pub signature: Signature,
    /// The executable code (shared with any thread executing it).
    pub code: Arc<Executable>,
    /// Pipeline that produced it.
    pub quality: CodeQuality,
    /// Dispatch-preference level (see [`Tier`]).
    pub tier: Tier,
    /// Inferred output types (fed back into inference as the callee
    /// oracle).
    pub output_types: Vec<Type>,
    /// Time spent compiling this version.
    pub compile_time: Duration,
}

/// One stored version plus its insertion provenance (which session
/// published it — the input to [`RepoStats::shared_hits`]).
#[derive(Debug)]
struct Stored {
    version: Arc<CompiledVersion>,
    inserted_by: u64,
}

/// Versions and the invalidation generation of one (function,
/// namespace) pair. The generation is bumped by
/// [`Repository::invalidate_ns`]; background compiles capture it when
/// they start and publish through
/// [`Repository::insert_if_current_ns`], which rejects the version if
/// the source changed while the compile was in flight. Generations only
/// ever grow, so an in-flight publish can never resurrect stale code.
#[derive(Debug, Default)]
struct NsEntry {
    versions: Vec<Stored>,
    generation: u64,
}

#[derive(Debug, Default)]
struct Shard {
    /// `function name → namespace key → versions + generation`.
    functions: HashMap<String, HashMap<u64, NsEntry>>,
}

impl Shard {
    /// The invalidation generation of `(name, ns)` (0 if never seen).
    fn generation(&self, name: &str, ns: u64) -> u64 {
        self.functions
            .get(name)
            .and_then(|e| e.get(&ns))
            .map_or(0, |e| e.generation)
    }
}

/// The repository: compiled versions per function name and namespace,
/// sharded for concurrent access. All methods take `&self`; clone-free
/// sharing between threads goes through `Arc<Repository>`.
#[derive(Debug)]
pub struct Repository {
    shards: Vec<RwLock<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Hits answered by a version inserted by a different session.
    shared_hits: AtomicU64,
    inserts: AtomicU64,
    invalidations: AtomicU64,
    /// Hits answered by a tier-0 version.
    tier0_hits: AtomicU64,
    /// Hits answered by a tier-1 version.
    tier1_hits: AtomicU64,
}

impl Default for Repository {
    fn default() -> Self {
        Repository::new()
    }
}

fn shard_index(name: &str) -> usize {
    // Keyed by the bare name so every namespace of a function shares a
    // shard.
    (majic_types::wire::fnv1a(name.as_bytes()) % SHARD_COUNT as u64) as usize
}

/// The locator preference among safe candidates: highest [`Tier`]
/// first, then Manhattan-closest signature, then [`CodeQuality`].
fn best<'a>(
    candidates: impl Iterator<Item = &'a Stored>,
    actuals: &Signature,
) -> Option<&'a Stored> {
    candidates
        .filter(|s| s.version.signature.admits(actuals))
        .min_by_key(|s| {
            (
                std::cmp::Reverse(s.version.tier),
                s.version.signature.distance(actuals).unwrap_or(u64::MAX),
                std::cmp::Reverse(s.version.quality),
            )
        })
}

impl Repository {
    /// An empty repository.
    pub fn new() -> Repository {
        Repository {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(Shard::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            shared_hits: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            tier0_hits: AtomicU64::new(0),
            tier1_hits: AtomicU64::new(0),
        }
    }

    fn shard(&self, name: &str) -> &RwLock<Shard> {
        &self.shards[shard_index(name)]
    }

    /// Register a compiled version in namespace `ns`, attributed to
    /// `session` (use [`NO_SESSION`] outside any session). Returns the
    /// stored handle, so a caller that runs the version next needs no
    /// lookup.
    pub fn insert_ns(
        &self,
        name: &str,
        ns: u64,
        session: u64,
        version: CompiledVersion,
    ) -> Arc<CompiledVersion> {
        let mut shard = self.shard(name).write().expect("repository shard poisoned");
        self.push(&mut shard, name, ns, session, version)
    }

    /// Append `version` to `(name, ns)` in an already write-locked shard
    /// and return the stored handle.
    fn push(
        &self,
        shard: &mut Shard,
        name: &str,
        ns: u64,
        session: u64,
        version: CompiledVersion,
    ) -> Arc<CompiledVersion> {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let version = Arc::new(version);
        shard
            .functions
            .entry(name.to_owned())
            .or_default()
            .entry(ns)
            .or_default()
            .versions
            .push(Stored {
                version: Arc::clone(&version),
                inserted_by: session,
            });
        version
    }

    /// The current invalidation generation of `(name, ns)` (0 until the
    /// first invalidation). A compile that starts now and publishes
    /// through [`Repository::insert_if_current_ns`] with this value is
    /// guaranteed to be dropped if the source changes in between.
    pub fn generation_ns(&self, name: &str, ns: u64) -> u64 {
        self.shard(name)
            .read()
            .expect("repository shard poisoned")
            .generation(name, ns)
    }

    /// Register `version` only if `(name, ns)`'s invalidation generation
    /// is still `generation` (as captured by
    /// [`Repository::generation_ns`] when the compile started). Returns
    /// the stored handle, or `None` if the version was dropped.
    ///
    /// This is the publish path for *background* compiles: a worker's
    /// input is a registry snapshot taken at enqueue time, so by the
    /// time it finishes, [`Repository::invalidate_ns`] may have dropped
    /// every version of the old source. The check and the push happen
    /// under one shard write lock, so a version compiled from
    /// since-redefined source can never land — stale code would
    /// otherwise outrank (or coexist with) fresh tier-0 compiles and
    /// silently change results.
    pub fn insert_if_current_ns(
        &self,
        name: &str,
        ns: u64,
        generation: u64,
        session: u64,
        version: CompiledVersion,
    ) -> Option<Arc<CompiledVersion>> {
        let mut shard = self.shard(name).write().expect("repository shard poisoned");
        (shard.generation(name, ns) == generation)
            .then(|| self.push(&mut shard, name, ns, session, version))
    }

    /// Bump the locator counters and emit the per-lookup trace event.
    fn record_lookup(
        &self,
        name: &str,
        actuals: &Signature,
        found: Option<&Arc<CompiledVersion>>,
        shared: bool,
    ) {
        if let Some(v) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if shared {
                self.shared_hits.fetch_add(1, Ordering::Relaxed);
            }
            match v.tier {
                Tier::T0 => self.tier0_hits.fetch_add(1, Ordering::Relaxed),
                Tier::T1 => self.tier1_hits.fetch_add(1, Ordering::Relaxed),
            };
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        if majic_trace::enabled() {
            // Per-lookup locator event: the best match's Manhattan
            // distance is the signal Tables 1–2 and future heuristics
            // are built on.
            let distance = found.and_then(|v| v.signature.distance(actuals));
            if let Some(d) = distance {
                majic_trace::histogram("repo.lookup.distance").record(d);
            }
            majic_trace::instant("repo.lookup", || {
                let mut args = vec![
                    ("fn", name.to_owned()),
                    ("hit", found.is_some().to_string()),
                ];
                if let Some(d) = distance {
                    args.push(("distance", d.to_string()));
                }
                args
            });
        }
    }

    /// The function locator within one namespace, attributed to
    /// `session`: find the best safe version for an invocation, or
    /// `None` (triggering a JIT compilation). Only versions in `ns` are
    /// candidates — a session can never be answered with code compiled
    /// from source it did not load. A hit on a version a *different*
    /// session inserted counts as a shared hit
    /// ([`RepoStats::shared_hits`]).
    ///
    /// Among safe candidates the locator prefers the highest [`Tier`]
    /// (optimized code wins over naive code whenever both admit the
    /// call), then the Manhattan-closest signature within that tier,
    /// then [`CodeQuality`] as the final tie-breaker. Because the
    /// preference is evaluated per lookup against whatever versions are
    /// currently published, a tier-1 version inserted by a background
    /// recompile takes over dispatch atomically, with no stall — and a
    /// signature it does not admit falls back to tier 0 the same way.
    ///
    /// Returns a shared handle (versions live behind `Arc`s, so a hit
    /// clones one pointer, never the signature or output types) and the
    /// shard lock is released before the code runs.
    pub fn lookup_ns(
        &self,
        name: &str,
        ns: u64,
        session: u64,
        actuals: &Signature,
    ) -> Option<Arc<CompiledVersion>> {
        let (found, shared) = {
            let shard = self.shard(name).read().expect("repository shard poisoned");
            match shard
                .functions
                .get(name)
                .and_then(|namespaces| namespaces.get(&ns))
                .and_then(|e| best(e.versions.iter(), actuals))
            {
                Some(s) => (
                    Some(Arc::clone(&s.version)),
                    session != NO_SESSION && s.inserted_by != session,
                ),
                None => (None, false),
            }
        };
        self.record_lookup(name, actuals, found.as_ref(), shared);
        found
    }

    /// Inference oracle within one namespace (the multi-session path:
    /// a callee's output types must come from the *caller's* view of the
    /// callee, never from a neighbor's redefinition).
    pub fn call_types_ns(&self, name: &str, ns: u64, args: &Signature) -> Option<Vec<Type>> {
        let shard = self.shard(name).read().expect("repository shard poisoned");
        shard
            .functions
            .get(name)
            .and_then(|namespaces| namespaces.get(&ns))
            .and_then(|e| {
                e.versions
                    .iter()
                    .filter(|s| s.version.signature.admits(args))
                    .min_by_key(|s| s.version.signature.distance(args).unwrap_or(u64::MAX))
                    .map(|s| s.version.output_types.clone())
            })
    }

    /// Number of compiled versions of `name` in namespace `ns`.
    pub fn version_count_ns(&self, name: &str, ns: u64) -> usize {
        let shard = self.shard(name).read().expect("repository shard poisoned");
        shard
            .functions
            .get(name)
            .and_then(|namespaces| namespaces.get(&ns))
            .map_or(0, |e| e.versions.len())
    }

    /// Locator and lifecycle statistics, including the per-tier hit
    /// split and the current per-tier population. Shards are read-locked
    /// one at a time for the population; concurrent inserts may or may
    /// not be counted.
    pub fn stats(&self) -> RepoStats {
        let mut tier_versions = [0usize; 2];
        for s in &self.shards {
            let shard = s.read().expect("repository shard poisoned");
            for namespaces in shard.functions.values() {
                for e in namespaces.values() {
                    for s in &e.versions {
                        tier_versions[s.version.tier.level() as usize] += 1;
                    }
                }
            }
        }
        let [tier0_versions, tier1_versions] = tier_versions;
        RepoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            shared_hits: self.shared_hits.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            tier0_hits: self.tier0_hits.load(Ordering::Relaxed),
            tier1_hits: self.tier1_hits.load(Ordering::Relaxed),
            tier0_versions,
            tier1_versions,
        }
    }

    /// Drop every version of `name` in namespace `ns` only, and bump
    /// that namespace's generation. This is the multi-session
    /// redefinition path: when the *last* session using `(name, ns)`
    /// moves to new source, its old versions are dropped and any
    /// in-flight background publish against the old source is rejected —
    /// while other namespaces (other sessions' definitions of the same
    /// name) are untouched.
    pub fn invalidate_ns(&self, name: &str, ns: u64) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        majic_trace::audit::session_event("repo.invalidate", || {
            (
                name.to_owned(),
                format!("source changed in namespace {ns:016x}: its compiled versions dropped"),
            )
        });
        let mut shard = self.shard(name).write().expect("repository shard poisoned");
        let e = shard
            .functions
            .entry(name.to_owned())
            .or_default()
            .entry(ns)
            .or_default();
        e.versions.clear();
        e.generation += 1;
    }

    /// A point-in-time snapshot of every compiled version with its
    /// namespace key, sorted by `(name, ns)`. Empty namespaces (all
    /// versions invalidated) are skipped. This is the persistence
    /// walk: the namespace key *is* the closure hash a future session
    /// revalidates manifest entries against.
    pub fn entries_ns(&self) -> Vec<(String, u64, Vec<CompiledVersion>)> {
        let mut all: Vec<(String, u64, Vec<CompiledVersion>)> = Vec::new();
        for s in &self.shards {
            let shard = s.read().expect("repository shard poisoned");
            for (name, namespaces) in &shard.functions {
                for (&ns, e) in namespaces {
                    if e.versions.is_empty() {
                        continue;
                    }
                    // Deep clone: this keeps `Arc` an internal detail.
                    all.push((
                        name.clone(),
                        ns,
                        e.versions.iter().map(|s| (*s.version).clone()).collect(),
                    ));
                }
            }
        }
        all.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        all
    }
}

// The shards hold plain data behind std locks and the counters are
// atomics; assert the properties the engine relies on at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Repository>();
    assert_send_sync::<CompiledVersion>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use majic_ir::Function;
    use majic_types::{Intrinsic, Lattice};
    use majic_vm::Executable;

    fn dummy_code() -> Arc<Executable> {
        Arc::new(Executable::new(
            &Function {
                name: "f".into(),
                blocks: vec![majic_ir::Block::default()],
                ..Function::default()
            },
            0,
            0,
        ))
    }

    fn version(sig: Vec<Type>, quality: CodeQuality) -> CompiledVersion {
        CompiledVersion {
            signature: Signature::new(sig),
            code: dummy_code(),
            quality,
            tier: if quality == CodeQuality::Optimized {
                Tier::T1
            } else {
                Tier::T0
            },
            output_types: vec![Type::top()],
            compile_time: Duration::from_micros(10),
        }
    }

    #[test]
    fn lookup_requires_safety() {
        let repo = Repository::new();
        repo.insert_ns(
            "poly",
            DEFAULT_NS,
            NO_SESSION,
            version(vec![Type::scalar(Intrinsic::Int)], CodeQuality::Jit),
        );
        // Integer invocation: safe.
        let ok = Signature::new(vec![Type::constant(3.0)]);
        assert!(repo
            .lookup_ns("poly", DEFAULT_NS, NO_SESSION, &ok)
            .is_some());
        // Real invocation: 3.5 is not ⊑ int scalar.
        let bad = Signature::new(vec![Type::constant(3.5)]);
        assert!(repo
            .lookup_ns("poly", DEFAULT_NS, NO_SESSION, &bad)
            .is_none());
        let stats = repo.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.inserts, 1);
    }

    #[test]
    fn stats_track_lifecycle() {
        let repo = Repository::new();
        assert_eq!(repo.stats(), RepoStats::default());
        repo.insert_ns(
            "f",
            DEFAULT_NS,
            NO_SESSION,
            version(vec![], CodeQuality::Jit),
        );
        repo.invalidate_ns("f", DEFAULT_NS);
        repo.invalidate_ns("g", DEFAULT_NS); // counting is per trigger, not per removal
        let s = repo.stats();
        assert_eq!(s.inserts, 1);
        assert_eq!(s.invalidations, 2);
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(Repository::new().stats(), RepoStats::default());
    }

    #[test]
    fn best_candidate_wins() {
        // The Figure 3 ladder: an int-scalar invocation must pick the
        // int-scalar version over the real-scalar and complex-anything
        // versions.
        let repo = Repository::new();
        repo.insert_ns(
            "poly",
            DEFAULT_NS,
            NO_SESSION,
            version(
                vec![Type::top().with_intrinsic(Intrinsic::Complex)],
                CodeQuality::Jit,
            ),
        );
        repo.insert_ns(
            "poly",
            DEFAULT_NS,
            NO_SESSION,
            version(vec![Type::scalar(Intrinsic::Real)], CodeQuality::Jit),
        );
        repo.insert_ns(
            "poly",
            DEFAULT_NS,
            NO_SESSION,
            version(vec![Type::scalar(Intrinsic::Int)], CodeQuality::Jit),
        );
        let inv = Signature::new(vec![Type::constant(3.0)]);
        let found = repo
            .lookup_ns("poly", DEFAULT_NS, NO_SESSION, &inv)
            .unwrap();
        assert_eq!(
            found.signature,
            Signature::new(vec![Type::scalar(Intrinsic::Int)])
        );
    }

    #[test]
    fn quality_breaks_ties() {
        let repo = Repository::new();
        repo.insert_ns(
            "f",
            DEFAULT_NS,
            NO_SESSION,
            version(vec![Type::scalar(Intrinsic::Real)], CodeQuality::Jit),
        );
        repo.insert_ns(
            "f",
            DEFAULT_NS,
            NO_SESSION,
            version(vec![Type::scalar(Intrinsic::Real)], CodeQuality::Optimized),
        );
        let inv = Signature::new(vec![Type::scalar(Intrinsic::Real)]);
        assert_eq!(
            repo.lookup_ns("f", DEFAULT_NS, NO_SESSION, &inv)
                .unwrap()
                .quality,
            CodeQuality::Optimized
        );
    }

    #[test]
    fn arity_mismatch_never_matches() {
        let repo = Repository::new();
        repo.insert_ns(
            "f",
            DEFAULT_NS,
            NO_SESSION,
            version(vec![Type::scalar(Intrinsic::Real)], CodeQuality::Jit),
        );
        let inv = Signature::new(vec![]);
        assert!(repo.lookup_ns("f", DEFAULT_NS, NO_SESSION, &inv).is_none());
    }

    #[test]
    fn invalidation_forgets_versions() {
        let repo = Repository::new();
        repo.insert_ns(
            "f",
            DEFAULT_NS,
            NO_SESSION,
            version(vec![], CodeQuality::Jit),
        );
        assert_eq!(repo.version_count_ns("f", DEFAULT_NS), 1);
        repo.invalidate_ns("f", DEFAULT_NS);
        assert_eq!(repo.version_count_ns("f", DEFAULT_NS), 0);
    }

    #[test]
    fn stale_background_publish_is_rejected() {
        // The tier-1 publish race: a background worker captures the
        // generation when its compile starts; if the source is
        // redefined (invalidate) before it publishes, the publish must
        // be dropped — old-source code outranking fresh tier-0 compiles
        // would silently change results.
        let repo = Repository::new();
        assert_eq!(repo.generation_ns("f", DEFAULT_NS), 0);
        let gen = repo.generation_ns("f", DEFAULT_NS);
        repo.invalidate_ns("f", DEFAULT_NS); // source changed mid-compile
        assert_eq!(repo.generation_ns("f", DEFAULT_NS), 1);
        assert!(repo
            .insert_if_current_ns(
                "f",
                DEFAULT_NS,
                gen,
                NO_SESSION,
                version(vec![], CodeQuality::Optimized)
            )
            .is_none());
        assert_eq!(repo.version_count_ns("f", DEFAULT_NS), 0);
        assert_eq!(
            repo.stats().inserts,
            0,
            "rejected publish counted as insert"
        );

        // A publish whose generation is still current lands normally.
        let gen = repo.generation_ns("f", DEFAULT_NS);
        assert!(repo
            .insert_if_current_ns(
                "f",
                DEFAULT_NS,
                gen,
                NO_SESSION,
                version(vec![], CodeQuality::Optimized)
            )
            .is_some());
        assert_eq!(repo.version_count_ns("f", DEFAULT_NS), 1);
        assert_eq!(repo.stats().inserts, 1);
    }

    #[test]
    fn oracle_returns_output_types() {
        let repo = Repository::new();
        let mut v = version(vec![Type::scalar(Intrinsic::Int)], CodeQuality::Jit);
        v.output_types = vec![Type::scalar(Intrinsic::Real)];
        repo.insert_ns("f", DEFAULT_NS, NO_SESSION, v);
        let args = Signature::new(vec![Type::constant(1.0)]);
        assert_eq!(
            repo.call_types_ns("f", DEFAULT_NS, &args),
            Some(vec![Type::scalar(Intrinsic::Real)])
        );
        assert_eq!(repo.call_types_ns("g", DEFAULT_NS, &args), None);
    }

    #[test]
    fn shared_across_threads() {
        let repo = Arc::new(Repository::new());
        let writer = {
            let repo = Arc::clone(&repo);
            std::thread::spawn(move || {
                for _ in 0..100 {
                    repo.insert_ns(
                        "t",
                        DEFAULT_NS,
                        NO_SESSION,
                        version(vec![Type::scalar(Intrinsic::Int)], CodeQuality::Jit),
                    );
                }
            })
        };
        let inv = Signature::new(vec![Type::constant(1.0)]);
        for _ in 0..100 {
            let _ = repo.lookup_ns("t", DEFAULT_NS, NO_SESSION, &inv);
        }
        writer.join().unwrap();
        assert_eq!(repo.version_count_ns("t", DEFAULT_NS), 100);
        assert_eq!(repo.stats().inserts, 100);
    }

    #[test]
    fn namespaces_isolate_dispatch() {
        // Two sessions, two definitions of `f` (namespaces 10 and 20):
        // each session's lookup must only ever see its own namespace.
        let repo = Repository::new();
        let sig = vec![Type::scalar(Intrinsic::Real)];
        let stored = repo.insert_ns("f", 10, 1, version(sig.clone(), CodeQuality::Jit));
        repo.insert_ns("f", 20, 2, version(sig.clone(), CodeQuality::Optimized));
        let inv = Signature::new(sig);
        let a = repo.lookup_ns("f", 10, 1, &inv).expect("ns 10 version");
        assert!(Arc::ptr_eq(&a, &stored), "insert returns the stored handle");
        assert_eq!(a.quality, CodeQuality::Jit);
        let b = repo.lookup_ns("f", 20, 2, &inv).expect("ns 20 version");
        assert_eq!(b.quality, CodeQuality::Optimized);
        assert!(repo.lookup_ns("f", 30, 3, &inv).is_none(), "unknown ns hit");
        let stats = repo.stats();
        assert_eq!(stats.tier0_versions + stats.tier1_versions, 2);
        assert_eq!(repo.version_count_ns("f", 10), 1);
        assert_eq!(repo.version_count_ns("f", DEFAULT_NS), 0);
    }

    #[test]
    fn shared_hits_attribute_cross_session_reuse() {
        let repo = Repository::new();
        let sig = vec![Type::scalar(Intrinsic::Real)];
        repo.insert_ns("f", 10, 1, version(sig.clone(), CodeQuality::Jit));
        let inv = Signature::new(sig);
        // The inserting session's own hit is not "shared".
        repo.lookup_ns("f", 10, 1, &inv).unwrap();
        assert_eq!(repo.stats().shared_hits, 0);
        // Another session hitting the same version is.
        repo.lookup_ns("f", 10, 2, &inv).unwrap();
        assert_eq!(repo.stats().shared_hits, 1);
        // Unattributed lookups never count.
        repo.lookup_ns("f", 10, NO_SESSION, &inv).unwrap();
        repo.lookup_ns("f", 10, NO_SESSION, &inv).unwrap();
        let s = repo.stats();
        assert_eq!(s.shared_hits, 1);
        assert_eq!(s.hits, 4);
    }

    #[test]
    fn invalidate_ns_spares_other_namespaces() {
        let repo = Repository::new();
        let sig = vec![Type::scalar(Intrinsic::Real)];
        repo.insert_ns("f", 10, 1, version(sig.clone(), CodeQuality::Jit));
        repo.insert_ns("f", 20, 2, version(sig.clone(), CodeQuality::Jit));
        let g20 = repo.generation_ns("f", 20);
        repo.invalidate_ns("f", 10);
        assert_eq!(repo.version_count_ns("f", 10), 0);
        assert_eq!(repo.version_count_ns("f", 20), 1, "neighbor poisoned");
        assert_eq!(repo.generation_ns("f", 10), 1);
        assert_eq!(
            repo.generation_ns("f", 20),
            g20,
            "neighbor generation bumped"
        );
        // The generation guard is per namespace: a stale publish into
        // ns 10 is rejected while a current publish into ns 20 lands.
        assert!(repo
            .insert_if_current_ns("f", 10, 0, 1, version(sig.clone(), CodeQuality::Optimized))
            .is_none());
        assert!(repo
            .insert_if_current_ns("f", 20, g20, 2, version(sig, CodeQuality::Optimized))
            .is_some());
    }

    #[test]
    fn entries_ns_reports_namespace_keys() {
        let repo = Repository::new();
        let sig = vec![Type::scalar(Intrinsic::Real)];
        repo.insert_ns("a", 7, 1, version(sig.clone(), CodeQuality::Jit));
        repo.insert_ns("a", 9, 1, version(sig.clone(), CodeQuality::Jit));
        repo.insert_ns("b", 7, 1, version(sig.clone(), CodeQuality::Jit));
        repo.invalidate_ns("b", 7); // empty namespaces are skipped
        let entries = repo.entries_ns();
        let keys: Vec<(String, u64)> = entries.iter().map(|(n, ns, _)| (n.clone(), *ns)).collect();
        assert_eq!(keys, vec![("a".to_owned(), 7), ("a".to_owned(), 9)]);
        assert!(entries.iter().all(|(_, _, vs)| vs.len() == 1));
    }
}
