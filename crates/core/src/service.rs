//! The shared compiler service and its per-user sessions.
//!
//! The paper's code repository is a *service*: "a system-wide database
//! of previously compiled code" that many interactive sessions consult
//! and feed concurrently. This module is that split. A
//! [`CompilerService`] owns the process-wide assets — the
//! [`Repository`], the background compilation pool (speculation and
//! tier promotion), the persistent-cache lifecycle, and the audit
//! switch — and a
//! [`Session`] is the cheap per-user part: an interpreter workspace,
//! the sources that user loaded, and per-session phase timers. Any
//! number of sessions run concurrently against one service, each from
//! its own thread.
//!
//! # Namespaces: sharing without leakage
//!
//! Sessions share compiled code through *closure-hash namespaces*. When
//! a session loads source, it computes, for every registered function,
//! an FNV-1a hash over the canonical (pretty-printed) source of the
//! function's whole static call closure — the function itself plus
//! everything it transitively calls. That hash is the repository
//! namespace the session's compiled versions live in:
//!
//! - Two sessions that loaded the *same* source text compute the same
//!   hashes and therefore dispatch from the same namespaces — a
//!   function compiled by either is immediately available to both
//!   (counted in [`majic_repo::RepoStats::shared_hits`]).
//! - A session that *redefines* a function gets a new hash for it — and
//!   for every caller whose closure reaches it — so its future lookups
//!   and publishes move to fresh namespaces. Other sessions still on
//!   the old source keep dispatching their old, still-correct versions:
//!   a neighbor's redefinition can never leak into this session.
//!
//! Stale background publishes stay impossible for the same reason as
//! before, now per `(function, namespace)`: a job captures the
//! namespace generation at submit time and publishes through
//! [`Repository::insert_if_current_ns`], and retargeting the last user
//! away from a namespace invalidates it (bumping the generation).
//! Safety never depends on any of this bookkeeping, though — every
//! dispatch still runs the repository's `Qi ⊑ Ti` signature check, so
//! the worst a bookkeeping bug could cost is a recompile, never a wrong
//! answer.
//!
//! Namespace *reference counts* track which sessions currently use
//! which `(function, namespace)` pairs. A session dropping (or
//! retargeting away) decrements; compiled versions are invalidated only
//! when a redefinition strands a namespace with no users. A namespace
//! left behind by a plain session exit keeps its versions — that is
//! what makes the next session on the same source warm.

use crate::engine::{
    collect_callees, compile_and_publish, signature_of, speculation_order, take_outputs,
    EngineDispatcher, EngineOptions, ExecMode, Explanation, PhaseTimes, SessionCtx, Trigger,
};
use crate::spec::{JobSpec, SpecStats, SpecWorkerPool};
use majic_analysis::global_or_clear;
use majic_ast::{parse_source, parse_statements, ExprKind, Function, LValue, Stmt, StmtKind};
use majic_interp::Interp;
use majic_repo::cache::{CacheEntry, CacheReport, RepoCache};
use majic_repo::{Repository, DEFAULT_NS};
use majic_runtime::{RuntimeError, RuntimeResult, Value};
use majic_types::Signature;
use majic_vm::execute;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The shared, thread-safe compiler service: one per process (or per
/// isolated repository you want), any number of [`Session`]s against
/// it. Cloning is cheap — clones share the same service state.
///
/// ```
/// use majic::CompilerService;
///
/// let service = CompilerService::new();
/// let src = "function y = twice(x)\ny = 2 * x;\n";
/// std::thread::scope(|scope| {
///     for _ in 0..2 {
///         let service = &service;
///         scope.spawn(move || {
///             let mut session = service.session();
///             session.load_source(src).unwrap();
///             let out = session.call("twice", &[21.0f64.into()], 1).unwrap();
///             assert_eq!(out[0].to_scalar().unwrap(), 42.0);
///         });
///     }
/// });
/// ```
#[derive(Clone, Debug)]
pub struct CompilerService {
    state: Arc<ServiceState>,
}

#[derive(Debug)]
pub(crate) struct ServiceState {
    repo: Arc<Repository>,
    /// Options handed to each new session (the session's `options`
    /// field is its own mutable copy).
    defaults: EngineOptions,
    next_session: AtomicU64,
    /// The background compilation pool, started by
    /// [`ServiceState::pool_or_start`] on first use (a promotion or
    /// [`Session::speculate_background`]) and shut down only by
    /// [`Background::finish`] or service drop. Shared: speculative and
    /// promotion jobs from every session ride the same workers.
    pool: Mutex<Option<Arc<SpecWorkerPool>>>,
    /// Whether sources loaded from now on are speculated in the
    /// background (the paper's "source directory snoop"). Set by
    /// [`Session::speculate_background`], cleared by
    /// [`Background::finish`].
    snoop: AtomicBool,
    /// Hot promotions already enqueued, keyed by `(function, namespace,
    /// rendered signature)` — each tier-0 version is promoted at most
    /// once service-wide, no matter how many sessions run it hot.
    promoted: Mutex<HashSet<(String, u64, String)>>,
    /// How many live sessions currently map each `(function,
    /// namespace)` pair. Redefinitions invalidate a namespace only when
    /// its last user retargets away; plain session exits just
    /// decrement, leaving compiled versions warm for the next session
    /// on the same source.
    ns_users: Mutex<HashMap<(String, u64), usize>>,
    cache: Mutex<CacheState>,
    /// This service's audit-log request; mirrored into the trace
    /// crate's process-wide refcount so recording turns on while any
    /// service wants it.
    audit: AtomicBool,
}

#[derive(Debug, Default)]
struct CacheState {
    /// Attached persistent cache, if any ([`Session::attach_cache`]).
    cache: Option<RepoCache>,
    /// Manifest entries loaded from disk but not yet tied to live
    /// source: they replay only when a session registers the matching
    /// function with a matching closure hash.
    pending: HashMap<String, Vec<CacheEntry>>,
    /// Running warm-start accounting ([`Session::cache_report`]).
    report: CacheReport,
}

impl Default for CompilerService {
    fn default() -> Self {
        CompilerService::new()
    }
}

impl CompilerService {
    /// A fresh service with default (JIT) session options.
    pub fn new() -> CompilerService {
        CompilerService::with_options(EngineOptions::default())
    }

    /// A fresh service whose sessions start from `options`.
    pub fn with_options(options: EngineOptions) -> CompilerService {
        CompilerService {
            state: Arc::new(ServiceState {
                repo: Arc::new(Repository::new()),
                defaults: options,
                next_session: AtomicU64::new(0),
                pool: Mutex::new(None),
                snoop: AtomicBool::new(false),
                promoted: Mutex::new(HashSet::new()),
                ns_users: Mutex::new(HashMap::new()),
                cache: Mutex::new(CacheState::default()),
                audit: AtomicBool::new(false),
            }),
        }
    }

    /// Mint a new session. Sessions are independent users of the shared
    /// repository: each has its own workspace, loaded sources, and
    /// timers, and may live on its own thread.
    pub fn session(&self) -> Session {
        let id = self.state.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        Session {
            service: self.clone(),
            interp: Interp::new(),
            ctx: Arc::new(SessionCtx {
                session: id,
                options: self.state.defaults,
                ..SessionCtx::default()
            }),
            options: self.state.defaults,
            times: PhaseTimes::default(),
        }
    }

    /// The shared code repository (inspection).
    pub fn repository(&self) -> &Repository {
        &self.state.repo
    }

    /// Turn the compilation audit log on or off *for this service*.
    ///
    /// The flight recorder in `majic-trace` is process-global, so
    /// enabling any service turns recording on (each service holds one
    /// reference while its flag is set); records carry the session id
    /// of the session that compiled. Disabling this service releases
    /// its reference — recording stays on only while some other service
    /// (or the process-wide switch, e.g. `MAJIC_EXPLAIN`) still wants
    /// it.
    pub fn set_audit(&self, on: bool) {
        let was = self.state.audit.swap(on, Ordering::SeqCst);
        if on && !was {
            majic_trace::audit::retain_service();
        } else if !on && was {
            majic_trace::audit::release_service();
        }
    }

    /// Whether this service requested audit recording.
    pub fn audit_enabled(&self) -> bool {
        self.state.audit.load(Ordering::SeqCst)
    }

    /// Handle over the service's background compilation pool
    /// (speculation and tier promotion): wait for quiet, snapshot
    /// statistics, or shut it down.
    pub fn background(&self) -> Background<'_> {
        Background { state: &self.state }
    }
}

impl ServiceState {
    fn pool(&self) -> Option<Arc<SpecWorkerPool>> {
        self.pool.lock().expect("pool slot poisoned").clone()
    }

    /// The running pool, or one started now with `workers` threads (the
    /// calling session's [`crate::TierOptions::workers`]). This is the
    /// only place a pool starts; a running one is never replaced.
    fn pool_or_start(&self, workers: usize) -> Arc<SpecWorkerPool> {
        let mut slot = self.pool.lock().expect("pool slot poisoned");
        Arc::clone(slot.get_or_insert_with(|| {
            Arc::new(SpecWorkerPool::start(workers, Arc::clone(&self.repo)))
        }))
    }

    /// A session moved `name` from namespace `old` to `new` (a
    /// redefinition changed the closure hash). When the old namespace
    /// loses its last user its versions are invalidated — bumping the
    /// generation so in-flight background compiles against the old
    /// source are rejected at publish — and its promotion dedup keys
    /// are released so fresh code can earn promotion again.
    fn retarget_ns(&self, name: &str, old: Option<u64>, new: u64) {
        let mut users = self.ns_users.lock().expect("ns_users poisoned");
        if let Some(old) = old {
            let key = (name.to_owned(), old);
            if let Some(count) = users.get_mut(&key) {
                *count -= 1;
                if *count == 0 {
                    users.remove(&key);
                    self.repo.invalidate_ns(name, old);
                    self.promoted
                        .lock()
                        .expect("promoted poisoned")
                        .retain(|(n, ns, _)| !(n == name && *ns == old));
                }
            }
        }
        *users.entry((name.to_owned(), new)).or_insert(0) += 1;
    }

    /// A session dropped while mapping `name` to `ns`: decrement the
    /// user count *without* invalidating. Compiled versions outliving
    /// their sessions is the point — the next session loading the same
    /// source starts warm.
    fn release_ns(&self, name: &str, ns: u64) {
        let mut users = self.ns_users.lock().expect("ns_users poisoned");
        let key = (name.to_owned(), ns);
        if let Some(count) = users.get_mut(&key) {
            *count -= 1;
            if *count == 0 {
                users.remove(&key);
            }
        }
    }

    fn attach_cache(&self, path: std::path::PathBuf) -> CacheReport {
        let cache = RepoCache::new(path);
        let (entries, load) = cache.load();
        let mut cs = self.cache.lock().expect("cache state poisoned");
        cs.cache = Some(cache);
        cs.report += load;
        for e in entries {
            cs.pending.entry(e.name.clone()).or_default().push(e);
        }
        cs.report
    }

    fn save_cache(&self) -> std::io::Result<usize> {
        let cs = self.cache.lock().expect("cache state poisoned");
        let Some(cache) = &cs.cache else {
            return Ok(0);
        };
        // Only namespaced versions can be revalidated next session: their
        // namespace key is the closure-source hash. Versions in the
        // default namespace (compiled outside any session) carry no
        // source pedigree and are not persisted.
        let live = self
            .repo
            .entries_ns()
            .into_iter()
            .filter(|(_, ns, _)| *ns != DEFAULT_NS)
            .flat_map(|(name, ns, versions)| {
                versions.into_iter().map(move |v| CacheEntry {
                    name: name.clone(),
                    source_hash: ns,
                    signature: v.signature,
                })
            });
        let mut carried: Vec<&String> = cs.pending.keys().collect();
        carried.sort();
        let carried = carried
            .into_iter()
            .flat_map(|n| cs.pending[n].iter().cloned());
        // One entry per signature: a tier-0 and a tier-1 version of one
        // signature replay as one promotion, and an entry carried over
        // by a session that never replays must not pile up beside the
        // same signature that session compiled itself.
        let mut entries: Vec<CacheEntry> = Vec::new();
        for e in live.chain(carried) {
            if !entries.contains(&e) {
                entries.push(e);
            }
        }
        cache.save(&entries)?;
        Ok(entries.len())
    }

    fn cache_report(&self) -> CacheReport {
        self.cache.lock().expect("cache state poisoned").report
    }
}

impl Drop for ServiceState {
    /// Best-effort shutdown flush: drain and join the background pool
    /// (so its versions are included), then save the attached cache, if
    /// any. Errors are swallowed — drop must not panic, and a failed
    /// flush only costs next session's warm start.
    fn drop(&mut self) {
        let pool = self.pool.lock().ok().and_then(|mut s| s.take());
        if let Some(pool) = pool {
            pool.shutdown();
        }
        let _ = self.save_cache();
        if self.audit.load(Ordering::SeqCst) {
            majic_trace::audit::release_service();
        }
    }
}

/// One handle over a service's background compilation — speculation and
/// tier promotion share one pool. Obtained from
/// [`CompilerService::background`] or [`Session::background`].
#[derive(Debug)]
pub struct Background<'a> {
    state: &'a ServiceState,
}

impl Background<'_> {
    /// Block until the pool (if one was started) has drained its queue.
    /// Tests and batch experiments use this; interactive sessions never
    /// need to.
    pub fn wait(&self) {
        // Clone the handle out first: waiting must not hold the slot
        // lock, or a concurrent session couldn't submit work.
        if let Some(pool) = self.state.pool() {
            pool.wait_idle();
        }
    }

    /// Statistics of the pool, or `None` when none was started.
    pub fn stats(&self) -> Option<SpecStats> {
        self.state.pool().map(|p| p.stats())
    }

    /// Stop the source snoop, shut the pool down (drain, join) and return
    /// its final statistics; `None` when no pool was started. A later
    /// promotion or [`Session::speculate_background`] starts a new pool.
    pub fn finish(&self) -> Option<SpecStats> {
        self.state.snoop.store(false, Ordering::SeqCst);
        let pool = self.state.pool.lock().expect("pool slot poisoned").take();
        pool.map(|p| {
            p.shutdown();
            p.stats()
        })
    }
}

/// One user of a [`CompilerService`]: an interpreter workspace, the
/// sources this user loaded (with their closure-hash namespaces), and
/// per-session timers. [`CompilerService::session`] mints one on a shared
/// service; [`Session::new`], [`Session::with_mode`] and
/// [`Session::with_options`] build one on a fresh service of its own.
#[derive(Debug)]
pub struct Session {
    service: CompilerService,
    interp: Interp,
    /// Loaded sources, namespaces, id, and the options and audit flag of
    /// the latest compile. Copy-on-write: background jobs hold cheap
    /// snapshots.
    ctx: Arc<SessionCtx>,
    /// Engine configuration (mutable between calls; copied into the
    /// session context when the next compile or job needs it).
    pub options: EngineOptions,
    /// Cumulative phase times since the last [`Session::reset_times`].
    pub times: PhaseTimes,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A session with default (JIT) options on a fresh service of its
    /// own: [`Session::with_options`] with [`EngineOptions::default`], so
    /// tiered recompilation starts enabled with the default threshold.
    ///
    /// ```
    /// use majic::Session;
    ///
    /// let mut session = Session::new();
    /// session.load_source("function y = twice(x)\ny = 2 * x;\n").unwrap();
    /// let out = session.call("twice", &[21.0f64.into()], 1).unwrap();
    /// assert_eq!(out[0].to_scalar().unwrap(), 42.0);
    /// ```
    pub fn new() -> Session {
        Session::with_options(EngineOptions::default())
    }

    /// A session in `mode`, otherwise with default options, on a fresh
    /// service of its own.
    pub fn with_mode(mode: ExecMode) -> Session {
        Session::with_options(EngineOptions::builder().mode(mode).build())
    }

    /// A session with fully specified options on a fresh service of its
    /// own, whose later sessions start from the same options.
    ///
    /// ```
    /// use majic::{EngineOptions, ExecMode, Platform, Session};
    ///
    /// let mut session = Session::with_options(
    ///     EngineOptions::builder()
    ///         .mode(ExecMode::Jit)
    ///         .platform(Platform::Mips)
    ///         .threads(Some(1))
    ///         .build(),
    /// );
    /// session.load_source("function y = sq(x)\ny = x * x;\n").unwrap();
    /// assert_eq!(
    ///     session.call("sq", &[4.0f64.into()], 1).unwrap()[0]
    ///         .to_scalar()
    ///         .unwrap(),
    ///     16.0
    /// );
    /// ```
    pub fn with_options(options: EngineOptions) -> Session {
        CompilerService::with_options(options).session()
    }

    /// The service this session belongs to.
    pub fn service(&self) -> &CompilerService {
        &self.service
    }

    /// This session's id (1-based, unique within the service).
    pub fn id(&self) -> u64 {
        self.ctx.session
    }

    /// This session's repository namespace for `name`: the closure hash
    /// of its loaded source, or [`DEFAULT_NS`] for a name it never
    /// loaded. Pass it to the `*_ns` methods of [`Session::repository`].
    pub fn namespace(&self, name: &str) -> u64 {
        self.ctx.ns(name)
    }

    /// Bring the context's options and audit flag up to date before a
    /// compile or a job snapshot. Writes (and so copies a context a
    /// background job still holds) only when one of them changed.
    fn sync_ctx(&mut self) {
        let audit = self.service.audit_enabled() || majic_trace::audit::process_enabled();
        if self.ctx.options != self.options || self.ctx.audit != audit {
            let ctx = Arc::make_mut(&mut self.ctx);
            ctx.options = self.options;
            ctx.audit = audit;
        }
    }

    /// A background job on `name`, snapshotting the current context.
    fn job_spec(&mut self, name: &str, sig: Option<Signature>) -> JobSpec {
        self.sync_ctx();
        JobSpec {
            name: name.to_owned(),
            sig,
            replay: false,
            ctx: Arc::clone(&self.ctx),
        }
    }

    /// Load MATLAB source: functions are registered (this is the
    /// repository's "source directory snoop"), script statements run
    /// immediately.
    ///
    /// Registering source re-derives the closure hash of *every*
    /// function this session knows — a redefinition changes the
    /// namespace of each caller that reaches it, moving this session's
    /// future compiles and lookups onto the new source while other
    /// sessions keep their own view.
    ///
    /// # Errors
    ///
    /// Returns parse errors and script execution errors.
    pub fn load_source(&mut self, src: &str) -> RuntimeResult<()> {
        let sp = majic_trace::Span::enter("parse");
        let file =
            parse_source(src).map_err(|e| RuntimeError::Raised(format!("parse error: {e}")))?;
        sp.exit();
        if !file.functions.is_empty() {
            let ctx = Arc::make_mut(&mut self.ctx);
            ctx.node_base = ctx.node_base.max(file.node_count);
            let mut names = Vec::with_capacity(file.functions.len());
            for f in file.functions {
                ctx.known.insert(f.name.clone());
                ctx.registry.insert(f.name.clone(), f.clone());
                names.push(f.name.clone());
                self.interp.define_function(f);
            }
            // Source changed → namespaces move (repository dependency
            // tracking). Unchanged functions keep their hash, their
            // namespace, and every compiled version in it.
            let (new_hashes, interpreted) = closure_hashes(&ctx.registry, &ctx.known);
            for (name, &new_ns) in &new_hashes {
                let old = ctx.hashes.get(name).copied();
                if old != Some(new_ns) {
                    self.service.state.retarget_ns(name, old, new_ns);
                }
            }
            ctx.hashes = new_hashes;
            ctx.interpreted = interpreted;
            // Warm start: now that the authoritative source is known,
            // manifest entries whose closure hash still matches replay.
            for name in &names {
                self.install_cached(name);
            }
            // A speculating service snoops newly loaded sources (the
            // paper's "source directory snoop"): speculate on them right
            // away, callees first.
            let snoop = self.service.state.snoop.load(Ordering::SeqCst);
            if let Some(pool) = self.service.state.pool().filter(|_| snoop) {
                for name in speculation_order(&self.ctx) {
                    if names.contains(&name) {
                        pool.submit(self.job_spec(&name, None));
                    }
                }
            }
        }
        if !file.script.is_empty() {
            self.exec_statements(&file.script)?;
        }
        Ok(())
    }

    /// Evaluate command-window input. Function-call statements route
    /// through the repository (the front end "defers computationally
    /// complex tasks to the code repository"); everything else is
    /// interpreted directly.
    ///
    /// # Errors
    ///
    /// Returns parse and execution errors.
    pub fn eval(&mut self, src: &str) -> RuntimeResult<()> {
        let sp = majic_trace::Span::enter("parse");
        let (stmts, _) =
            parse_statements(src).map_err(|e| RuntimeError::Raised(format!("parse error: {e}")))?;
        sp.exit();
        self.exec_statements(&stmts)
    }

    fn exec_statements(&mut self, stmts: &[Stmt]) -> RuntimeResult<()> {
        for stmt in stmts {
            if self.options.mode != ExecMode::Interpret {
                if let Some(()) = self.try_deferred_call(stmt)? {
                    continue;
                }
            }
            let sp = majic_trace::Span::enter("execution");
            let r = self.interp.exec_statements(std::slice::from_ref(stmt));
            self.times.execution += sp.exit();
            r?;
        }
        Ok(())
    }

    /// Route `x = f(args)` / `[a,b] = f(args)` / `f(args)` statements
    /// through the compiled path when `f` is a known user function.
    fn try_deferred_call(&mut self, stmt: &Stmt) -> RuntimeResult<Option<()>> {
        let (lhs_names, callee, args): (Vec<&LValue>, &str, &[majic_ast::Expr]) = match &stmt.kind {
            StmtKind::Assign {
                lhs: lhs @ LValue::Var { .. },
                rhs,
                ..
            } => match &rhs.kind {
                ExprKind::Apply { callee, args } if self.ctx.registry.contains_key(callee) => {
                    (vec![lhs], callee, args)
                }
                _ => return Ok(None),
            },
            StmtKind::MultiAssign {
                lhs, callee, args, ..
            } if self.ctx.registry.contains_key(callee)
                && lhs.iter().all(|l| matches!(l, LValue::Var { .. })) =>
            {
                (lhs.iter().collect(), callee, args)
            }
            StmtKind::Expr { expr, .. } => match &expr.kind {
                ExprKind::Apply { callee, args } if self.ctx.registry.contains_key(callee) => {
                    (vec![], callee, args)
                }
                _ => return Ok(None),
            },
            _ => return Ok(None),
        };
        // Subscript-less arguments only (a `:` would mean indexing).
        if args
            .iter()
            .any(|a| matches!(a.kind, ExprKind::Colon | ExprKind::End))
        {
            return Ok(None);
        }
        let callee = callee.to_owned();
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.interp.eval_value(a)?);
        }
        let nargout = lhs_names
            .len()
            .max(if lhs_names.is_empty() { 0 } else { 1 });
        let outs = self.call(&callee, &argv, nargout)?;
        for (lv, v) in lhs_names.iter().zip(outs) {
            self.interp.set_var(lv.name(), v);
        }
        Ok(Some(()))
    }

    /// Invoke a user function through the configured execution mode.
    /// This is the operation the evaluation measures.
    ///
    /// ```
    /// use majic::{ExecMode, Session};
    ///
    /// let mut session = Session::with_mode(ExecMode::Jit);
    /// session
    ///     .load_source("function s = total(v)\ns = sum(v) + 1;\n")
    ///     .unwrap();
    /// let v = majic::Value::Real(majic::Matrix::from_rows(vec![vec![1.0, 2.0, 3.0]]));
    /// let out = session.call("total", &[v], 1).unwrap();
    /// assert_eq!(out[0].to_scalar().unwrap(), 7.0);
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from the function.
    pub fn call(
        &mut self,
        name: &str,
        args: &[Value],
        nargout: usize,
    ) -> RuntimeResult<Vec<Value>> {
        let _call = majic_trace::Span::enter_with("call", || {
            vec![
                ("fn", name.to_owned()),
                ("mode", format!("{:?}", self.options.mode).to_lowercase()),
            ]
        });
        // Apply the kernel-thread option cheaply (compare first) so
        // mid-session option mutations take effect on the next call.
        if let Some(threads) = self.options.threads {
            if threads != majic_runtime::par::thread_count() {
                majic_runtime::par::set_threads(threads);
            }
        }
        if self.options.mode == ExecMode::Interpret || self.ctx.interpreted.contains(name) {
            if self.options.mode != ExecMode::Interpret {
                // A compiled mode quietly routing a call through the
                // interpreter is exactly the decision the audit log
                // exists to expose.
                majic_trace::audit::session_event("fallback.interpreter", || {
                    (
                        name.to_owned(),
                        "static call graph reaches global/clear, which compiled code \
                         cannot express"
                            .to_owned(),
                    )
                });
            }
            let sp = majic_trace::Span::enter("execution");
            let r = self.interp.call_function(name, args, nargout);
            self.times.execution += sp.exit();
            return r;
        }
        self.sync_ctx();
        let mut disp = EngineDispatcher {
            ctx: &self.ctx,
            repo: &self.service.state.repo,
            times: &mut self.times,
            depth: 0,
            hot: Vec::new(),
            sig: Signature::empty(),
        };
        let sig = signature_of(args);
        let version = disp.ensure_code(name, &sig)?;
        // Nested calls refill this signature's buffer.
        disp.sig = sig;
        let sp = majic_trace::Span::enter("execution");
        let r = execute(
            &version.code,
            args,
            nargout,
            &mut disp,
            &mut self.interp.ctx,
        );
        disp.times.execution += sp.exit();
        // The run just finished bumped the version's execution counters;
        // collect any version that crossed the hotness threshold (the
        // one we dispatched plus any noted during nested dispatch) and
        // hand them to the background pool.
        disp.note_hot(name, &version);
        let hot = std::mem::take(&mut disp.hot);
        drop(disp);
        for (hot_name, hot_sig) in hot {
            self.promote(hot_name, hot_sig, false);
        }
        take_outputs(name, r, nargout)
    }

    /// Enqueue a background tier-1 recompile of `name` for `sig`,
    /// starting the service's pool on first use. `replay`
    /// marks a signature read from the persistent manifest rather than
    /// a hot version. Best-effort: a rejected enqueue releases the dedup
    /// key so a later hot call can retry.
    fn promote(&mut self, name: String, sig: Signature, replay: bool) {
        let key = (name.clone(), self.namespace(&name), sig.to_string());
        {
            let mut promoted = self
                .service
                .state
                .promoted
                .lock()
                .expect("promoted poisoned");
            if !promoted.insert(key.clone()) {
                // Another session (or an earlier call) already promoted
                // this exact version.
                return;
            }
        }
        let pool = self.service.state.pool_or_start(self.options.tier.workers);
        // The session's *current* options ride along with the job, so
        // mutating `self.options` (platform, inference, regalloc)
        // mid-session applies to later recompiles instead of being
        // frozen at pool start.
        let mut job = self.job_spec(&name, Some(sig));
        job.replay = replay;
        let accepted = pool.submit(job);
        if !accepted {
            self.service
                .state
                .promoted
                .lock()
                .expect("promoted poisoned")
                .remove(&key);
        }
    }

    /// Handle over the service's background pool; see
    /// [`CompilerService::background`].
    pub fn background(&self) -> Background<'_> {
        self.service.background()
    }

    /// Speculatively compile every registered function ahead of time
    /// (paper §2.5), filling the repository with optimized versions for
    /// the guessed signatures, callees before callers. Returns the hidden
    /// (ahead-of-time) compile latency.
    ///
    /// This is the *synchronous* path: it blocks the session until
    /// every speculative version is compiled.
    /// [`Session::speculate_background`] is the concurrent equivalent
    /// that keeps the session responsive.
    pub fn speculate_all(&mut self) -> Duration {
        self.sync_ctx();
        let t0 = Instant::now();
        for name in speculation_order(&self.ctx) {
            // Failures (globals etc.) simply leave no speculative
            // version; those calls interpret or JIT later.
            let _ = compile_and_publish(
                &self.ctx,
                &self.service.state.repo,
                &name,
                None,
                Trigger::SpecSync,
                &mut self.times,
            );
        }
        // Speculative compilation happens before the program runs: it is
        // *hidden* latency, not charged to any phase.
        let hidden = t0.elapsed();
        self.times = PhaseTimes::default();
        hidden
    }

    /// Start background speculative compilation: every function this
    /// session has registered is queued, callees before callers, and
    /// functions loaded later (by any session) are queued as they
    /// arrive. Returns immediately — the session keeps answering
    /// through the interpreter/JIT and transparently picks up
    /// speculative versions once published.
    ///
    /// The jobs ride the service's one background pool, which hot
    /// promotions share: a running pool is used as it is, and otherwise
    /// one starts with this session's [`crate::TierOptions::workers`]
    /// threads. With `0` workers the pool rejects every job —
    /// speculative and promotion jobs alike — so every call JITs and
    /// stays at tier 0.
    pub fn speculate_background(&mut self) {
        self.service.state.snoop.store(true, Ordering::SeqCst);
        let pool = self.service.state.pool_or_start(self.options.tier.workers);
        for name in speculation_order(&self.ctx) {
            pool.submit(self.job_spec(&name, None));
        }
    }

    /// Attach a persistent repository manifest at `path` and load
    /// whatever it holds (see `docs/CACHE_FORMAT.md`).
    ///
    /// Loading is infallible: a missing file is a cold start, and any
    /// corruption, truncation or version skew degrades to a cold start
    /// for the affected entries — never a panic. Each loaded entry names
    /// a function, a closure-source hash and a signature. It replays
    /// only when [`Session::load_source`] registers its function with an
    /// unchanged closure hash (functions already registered are checked
    /// immediately): the signature is then handed to the background
    /// pool as a tier-1 promotion, exactly as if a hot version had asked
    /// for it. Replay needs what promotion needs — tier promotion
    /// enabled and a mode whose first-call code is tier-0 JIT code
    /// ([`ExecMode::Jit`], [`ExecMode::Spec`]); other sessions leave the
    /// entries pending, and a save carries them over.
    ///
    /// The cache belongs to the *service*: every session shares it, and
    /// it is flushed by [`Session::save_cache`] and, best-effort, when
    /// the service drops.
    ///
    /// ```
    /// use majic::Session;
    ///
    /// let dir = std::env::temp_dir().join(format!("majic-doc-{}", std::process::id()));
    /// let path = dir.join("repo.majiccache");
    /// let mut session = Session::new();
    /// let report = session.attach_cache(&path);
    /// assert_eq!(report.loaded, 0); // nothing cached yet: a cold start
    /// session.load_source("function y = sq(x)\ny = x * x;\n").unwrap();
    /// session.call("sq", &[3.0f64.into()], 1).unwrap();
    /// assert!(session.save_cache().unwrap() > 0);
    /// # drop(session);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// ```
    pub fn attach_cache(&mut self, path: impl Into<std::path::PathBuf>) -> CacheReport {
        self.service.state.attach_cache(path.into());
        // Sources loaded before the cache was attached can warm up now.
        let names: Vec<String> = {
            let cs = self
                .service
                .state
                .cache
                .lock()
                .expect("cache state poisoned");
            cs.pending
                .keys()
                .filter(|n| self.ctx.registry.contains_key(*n))
                .cloned()
                .collect()
        };
        for name in names {
            self.install_cached(&name);
        }
        self.service.state.cache_report()
    }

    /// Flush the repository's manifest to the attached cache (atomic
    /// write): one `(function, closure hash, signature)` entry per
    /// distinct compiled signature. Returns the number of entries
    /// written, or 0 with no cache attached.
    ///
    /// Only namespaced (session-compiled) versions are saved — their
    /// namespace key *is* the closure-source hash the next process
    /// revalidates against. Entries still pending from load are carried
    /// over rather than dropped.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the atomic save.
    pub fn save_cache(&mut self) -> std::io::Result<usize> {
        self.service.state.save_cache()
    }

    /// This service's warm-start accounting so far.
    pub fn cache_report(&self) -> CacheReport {
        self.service.state.cache_report()
    }

    /// Replay `name`'s pending manifest entries through
    /// [`Session::promote`] if their recorded closure hash matches the
    /// just-registered source; reject them otherwise. Sessions that
    /// never promote leave the entries pending.
    fn install_cached(&mut self, name: &str) {
        let Some(&live) = self.ctx.hashes.get(name) else {
            return;
        };
        if !(self.options.tier.enabled
            && matches!(self.options.mode, ExecMode::Jit | ExecMode::Spec))
        {
            return;
        }
        let entries = {
            let mut cs = self
                .service
                .state
                .cache
                .lock()
                .expect("cache state poisoned");
            match cs.pending.remove(name) {
                Some(entries) => entries,
                None => return,
            }
        };
        let mut installed = 0usize;
        let mut rejected = 0usize;
        for e in entries {
            if e.source_hash == live {
                installed += 1;
                self.promote(e.name, e.signature, true);
            } else {
                rejected += 1;
                majic_trace::audit::session_event("cache.reject.source_hash", || {
                    (
                        name.to_owned(),
                        format!(
                            "source changed since the cache was written \
                             (cached hash {:016x} ≠ live {:016x}); entry dropped",
                            e.source_hash, live
                        ),
                    )
                });
            }
        }
        let mut cs = self
            .service
            .state
            .cache
            .lock()
            .expect("cache state poisoned");
        cs.report.installed += installed;
        cs.report.rejected_source_hash += rejected;
    }

    /// The interpreter session (workspace access, captured output).
    pub fn interp(&self) -> &Interp {
        &self.interp
    }

    /// Mutable interpreter access.
    pub fn interp_mut(&mut self) -> &mut Interp {
        &mut self.interp
    }

    /// A base-workspace variable.
    pub fn var(&self, name: &str) -> Option<&Value> {
        self.interp.var(name)
    }

    /// Drain the captured `disp`/`fprintf` output.
    pub fn take_printed(&mut self) -> String {
        std::mem::take(&mut self.interp.ctx.printed)
    }

    /// The code repository (inspection). Shared with every other
    /// session of the same service.
    pub fn repository(&self) -> &Repository {
        &self.service.state.repo
    }

    /// Zero the cumulative phase timers.
    pub fn reset_times(&mut self) {
        self.times = PhaseTimes::default();
    }

    /// Why does `name` run the way it does? Returns every retained
    /// compilation record and session event for the function, plus a
    /// rendered report ([`Explanation::report`]) answering: what
    /// triggered each compile, which variables inference widened and
    /// why, what the inliner did at each call site, how the generated
    /// code is shaped, and how the persistent cache treated it.
    ///
    /// Requires auditing to be on ([`CompilerService::set_audit`] or
    /// `MAJIC_EXPLAIN`) *before* the compilations of interest run;
    /// otherwise the explanation is empty.
    ///
    /// ```
    /// use majic::Session;
    ///
    /// let mut session = Session::new();
    /// session.service().set_audit(true);
    /// session.load_source("function y = cube(x)\ny = x * x * x;\n").unwrap();
    /// session.call("cube", &[2.0f64.into()], 1).unwrap();
    /// let why = session.explain("cube");
    /// assert!(!why.records.is_empty());
    /// assert!(why.report.contains("first_call"));
    /// ```
    pub fn explain(&self, name: &str) -> Explanation {
        let records = majic_trace::audit::records_for(name);
        let events = majic_trace::audit::events_for(name);
        let report = majic_trace::audit::render_function_report(name, &records, &events);
        Explanation {
            function: name.to_owned(),
            records,
            events,
            report,
        }
    }

    /// Session-wide audit report: every retained compilation record and
    /// session event, grouped per function, plus eviction counts when
    /// the bounded rings overflowed.
    pub fn explain_stats(&self) -> String {
        majic_trace::audit::render_report(&majic_trace::audit::snapshot())
    }
}

impl Drop for Session {
    /// Release this session's namespace references *without*
    /// invalidating anything: compiled versions outlive the session, so
    /// the next session on the same source starts warm.
    fn drop(&mut self) {
        for (name, &ns) in self.ctx.hashes.iter() {
            self.service.state.release_ns(name, ns);
        }
    }
}

/// The per-function namespace key: an FNV-1a hash over the canonical
/// (pretty-printed) source of the function's whole static call closure
/// — itself plus every registered function it transitively reaches.
/// Whitespace/comment-insensitive by construction, stable across
/// sessions, processes, and platforms (which is what lets the
/// persistent cache revalidate against it).
///
/// Hashing the *closure* rather than the single function means a
/// redefinition automatically moves every affected caller to a new
/// namespace too — inlining and cross-function inference make a
/// caller's compiled code depend on its callees' exact source.
///
/// The same walk also returns the functions whose closure reaches
/// `global` / `clear`: compiled code cannot express those, so the
/// session interprets their calls.
fn closure_hashes(
    registry: &HashMap<String, Function>,
    known: &HashSet<String>,
) -> (HashMap<String, u64>, HashSet<String>) {
    // Pretty-print each function once and record its direct callees.
    let mut printed: HashMap<&str, String> = HashMap::with_capacity(registry.len());
    let mut callees: HashMap<&str, Vec<String>> = HashMap::with_capacity(registry.len());
    let mut uncompilable: HashSet<&str> = HashSet::new();
    for (name, f) in registry {
        printed.insert(name, format!("{f}"));
        if global_or_clear(&f.body).is_some() {
            uncompilable.insert(name);
        }
        let mut out = Vec::new();
        collect_callees(&f.body, known, &mut out);
        out.retain(|c| registry.contains_key(c));
        callees.insert(name, out);
    }
    let mut hashes = HashMap::with_capacity(registry.len());
    let mut interpreted = HashSet::new();
    for name in registry.keys() {
        // Transitive closure, including the function itself. A BTreeSet
        // gives the deterministic order the hash needs.
        let mut closure: BTreeSet<&str> = BTreeSet::new();
        let mut stack: Vec<&str> = vec![name];
        while let Some(n) = stack.pop() {
            if !closure.insert(n) {
                continue;
            }
            if let Some(cs) = callees.get(n) {
                stack.extend(cs.iter().map(String::as_str));
            }
        }
        if closure.iter().any(|n| uncompilable.contains(n)) {
            interpreted.insert(name.clone());
        }
        let mut buf = Vec::new();
        for n in &closure {
            buf.extend_from_slice(n.as_bytes());
            buf.push(0);
            buf.extend_from_slice(printed[n].as_bytes());
            buf.push(0);
        }
        let mut h = majic_types::wire::fnv1a(&buf);
        if h == DEFAULT_NS {
            // The default namespace is reserved for out-of-session work;
            // remap the (astronomically unlikely) collision.
            h = 1;
        }
        hashes.insert(name.clone(), h);
    }
    (hashes, interpreted)
}

// The whole point of the service split: the service crosses threads,
// and each thread mints (or is handed) its own sessions.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<CompilerService>();
    assert_send::<Session>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn src_a() -> &'static str {
        "function y = helper(x)\ny = x + 1;\nfunction y = outer(x)\ny = helper(x) * 2;\n"
    }

    #[test]
    fn closure_hash_changes_ripple_to_callers() {
        let mut s = CompilerService::new().session();
        s.load_source(src_a()).unwrap();
        let h_helper = s.namespace("helper");
        let h_outer = s.namespace("outer");
        assert_ne!(h_helper, DEFAULT_NS);
        assert_ne!(h_outer, DEFAULT_NS);
        // Redefining the callee moves BOTH namespaces.
        s.load_source("function y = helper(x)\ny = x + 2;\n")
            .unwrap();
        assert_ne!(s.namespace("helper"), h_helper);
        assert_ne!(s.namespace("outer"), h_outer);
        // Reloading identical source moves neither.
        let h2_helper = s.namespace("helper");
        s.load_source("function y = helper(x)\ny = x + 2;\n")
            .unwrap();
        assert_eq!(s.namespace("helper"), h2_helper);
    }

    #[test]
    fn same_source_sessions_share_compiled_code() {
        let service = CompilerService::new();
        let mut a = service.session();
        let mut b = service.session();
        a.load_source(src_a()).unwrap();
        b.load_source(src_a()).unwrap();
        assert_eq!(
            a.call("outer", &[3.0f64.into()], 1).unwrap()[0]
                .to_scalar()
                .unwrap(),
            8.0
        );
        let stats_before = service.repository().stats();
        assert_eq!(
            b.call("outer", &[3.0f64.into()], 1).unwrap()[0]
                .to_scalar()
                .unwrap(),
            8.0
        );
        let stats_after = service.repository().stats();
        // B's call dispatched A's compiled version: a shared hit, and no
        // new top-level insert beyond what A produced.
        assert!(stats_after.shared_hits > stats_before.shared_hits);
    }

    #[test]
    fn redefinition_stays_session_local() {
        let service = CompilerService::new();
        let mut a = service.session();
        let mut b = service.session();
        let src = "function y = f(x)\ny = x * 10;\n";
        a.load_source(src).unwrap();
        b.load_source(src).unwrap();
        assert_eq!(
            a.call("f", &[2.0f64.into()], 1).unwrap()[0]
                .to_scalar()
                .unwrap(),
            20.0
        );
        // B redefines; A must keep its original behavior.
        b.load_source("function y = f(x)\ny = x * 100;\n").unwrap();
        assert_eq!(
            b.call("f", &[2.0f64.into()], 1).unwrap()[0]
                .to_scalar()
                .unwrap(),
            200.0
        );
        assert_eq!(
            a.call("f", &[2.0f64.into()], 1).unwrap()[0]
                .to_scalar()
                .unwrap(),
            20.0
        );
    }

    #[test]
    fn session_exit_leaves_namespace_warm() {
        let service = CompilerService::new();
        {
            let mut a = service.session();
            a.load_source(src_a()).unwrap();
            a.call("outer", &[3.0f64.into()], 1).unwrap();
        } // a drops: refcounts released, versions kept
        let versions_after_drop = service.repository().stats().inserts;
        assert!(versions_after_drop > 0);
        let mut b = service.session();
        b.load_source(src_a()).unwrap();
        let misses_before = service.repository().stats().misses;
        b.call("outer", &[3.0f64.into()], 1).unwrap();
        let stats = service.repository().stats();
        assert_eq!(
            stats.misses, misses_before,
            "warm session's first call must dispatch the kept version"
        );
        assert!(stats.shared_hits > 0);
    }

    /// A recursive call that crosses the hotness threshold queues each
    /// version it ran for promotion exactly once, however often the
    /// version ran after crossing it.
    #[test]
    fn recursive_call_queues_one_promotion_per_hot_version() {
        let options = EngineOptions::builder().mode(ExecMode::Jit).build();
        let mut s = CompilerService::with_options(options).session();
        s.options.tier.threshold = 1;
        s.load_source(
            "function r = fib(n)\nif n < 2\nr = n;\nelse\nr = fib(n - 1) + fib(n - 2);\nend\n",
        )
        .unwrap();
        s.sync_ctx();
        let mut disp = EngineDispatcher {
            ctx: &s.ctx,
            repo: &s.service.state.repo,
            times: &mut s.times,
            depth: 0,
            hot: Vec::new(),
            sig: Signature::empty(),
        };
        let out = majic_vm::Dispatcher::call_user(
            &mut disp,
            "fib",
            &[Value::scalar(12.0)],
            1,
            &mut s.interp.ctx,
        )
        .unwrap();
        assert_eq!(out, [Value::scalar(144.0)]);
        let hot = disp.hot;
        let repo = &s.service.state.repo;
        let versions = repo.version_count_ns("fib", s.ctx.ns("fib"));
        assert_eq!(hot.len(), versions, "{hot:?}");
        for (k, (name, sig)) in hot.iter().enumerate() {
            assert_eq!(name, "fib");
            assert!(!hot[..k].iter().any(|(_, seen)| seen == sig), "{sig} twice");
        }
    }
}
