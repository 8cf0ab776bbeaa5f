//! **MaJIC** — *MATLAB Just-In-time Compiler* — reproduced in Rust after
//! Almási & Padua, PLDI 2002.
//!
//! MaJIC looks like MATLAB: an interactive front end interprets command
//! input, but function calls are deferred to a *code repository* of
//! compiled versions. On a repository miss the fast **JIT** pipeline
//! compiles the function for the invocation's exact type signature; ahead
//! of time, the **speculative** pipeline guesses likely signatures from
//! syntactic type hints and fills the repository with aggressively
//! optimized code, hiding compilation latency. The repository's
//! signature check (`Qi ⊑ Ti`) guarantees a wrong guess can cost
//! performance but never correctness.
//!
//! # Quick start
//!
//! ```
//! use majic::{ExecMode, Session};
//!
//! let mut session = Session::with_mode(ExecMode::Jit);
//! session
//!     .load_source("function p = poly(x)\np = x.^5 + 3*x + 2;\n")
//!     .unwrap();
//! let out = session.call("poly", &[2.0f64.into()], 1).unwrap();
//! assert_eq!(out[0].to_scalar().unwrap(), 40.0);
//! ```
//!
//! # Service and sessions
//!
//! [`Session`] is the one session type. [`Session::new`] and its
//! siblings build a session on a fresh service of its own; multi-user
//! embedders hold a shared [`CompilerService`] — the process-wide
//! repository, background pool, cache, and audit switch — and mint any
//! number of concurrent sessions against it, each from its own thread.
//! Sessions that loaded the same source share compiled code instantly;
//! a session that redefines a function moves to fresh namespaces
//! without disturbing anyone else (see [`CompilerService`]).
//!
//! ```
//! use majic::CompilerService;
//!
//! let service = CompilerService::new();
//! let mut a = service.session();
//! let mut b = service.session();
//! a.load_source("function y = sq(x)\ny = x * x;\n").unwrap();
//! b.load_source("function y = sq(x)\ny = x * x;\n").unwrap();
//! a.call("sq", &[3.0f64.into()], 1).unwrap(); // compiles
//! b.call("sq", &[3.0f64.into()], 1).unwrap(); // reuses a's version
//! assert!(service.repository().stats().shared_hits > 0);
//! ```
//!
//! # Execution modes
//!
//! | mode | compile when | pipeline | models |
//! |---|---|---|---|
//! | [`ExecMode::Interpret`] | never | — | MATLAB 6 interpreter (baseline `ti`) |
//! | [`ExecMode::Mcc`] | on miss | generic calls | Mathworks `mcc` |
//! | [`ExecMode::Jit`] | on miss | fast selection + linear scan | MaJIC JIT (compile time counts) |
//! | [`ExecMode::Spec`] | ahead of time ([`Session::speculate_all`]) | optimizing backend | MaJIC speculative |
//! | [`ExecMode::Falcon`] | on miss, exact signature | optimizing backend | FALCON batch compiler |
//!
//! # Warm start
//!
//! Attach a persistent cache ([`Session::attach_cache`]) and the service
//! reads a manifest of the signatures an earlier session compiled. As
//! each function's source loads unchanged, its signatures go to the
//! background pool as tier-1 promotions, so calls after the replay run
//! optimized code without compiling on the session's thread;
//! [`Session::save_cache`] (or service drop) writes the manifest back.
//! Stale or damaged files degrade to a cold start — see
//! `docs/CACHE_FORMAT.md` for the integrity gates.

pub mod diff;
mod engine;
mod service;
mod spec;

pub use diff::{DiffCase, DiffReport, Divergence, DivergenceKind, ModeOutcome};
pub use engine::{
    EngineOptions, EngineOptionsBuilder, ExecMode, Explanation, PhaseTimes, Platform, TierOptions,
};
pub use majic_repo::cache::{CacheReport, RepoCache};
pub use majic_repo::{RepoStats, Tier};
pub use service::{Background, CompilerService, Session};
pub use spec::SpecStats;

pub use majic_infer::InferOptions;
pub use majic_runtime::{Matrix, RuntimeError, RuntimeResult, Value};
pub use majic_vm::RegAllocMode;
