//! The traced replay: re-drive what an op did through the layer crates'
//! public functions, one benchmark span per layer.
//!
//! * A compiling call is replayed by executing it again through a
//!   benchmark [`Dispatcher`] that compiles on a shadow-repository miss
//!   exactly as the engine's dispatcher does (same widening rule, same
//!   pipeline, same node-id base), so versions come out in the engine's
//!   order and each layer is timed in isolation.
//! * A warm call is re-issued through `execute` with a benchmark
//!   dispatcher over the engine's own repository and namespaces, on
//!   private copies of the code so the copies' back-edge counters belong
//!   to this call alone.
//!
//! Every replayed version must flatten to the engine's step count; a
//! mismatch means the replay measured a different program and aborts
//! the run.

use crate::adapter::{
    self, CallCtx, CompileEnv, CompiledVersion, Dispatcher, EngineOptions, Executable, Function,
    NsMap, Repository, RuntimeError, RuntimeResult, Signature, Value, VersionInfo, VersionKey,
};
use crate::stats::{us, Spans};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engine's recursion guard, mirrored.
const MAX_DEPTH: usize = 4000;

/// Node-id base of background tier-1 compiles (the tier worker's
/// scratch counter).
const TIER1_NODE_BASE: u32 = 1 << 24;

/// What a session has loaded, as the replay sees it.
#[derive(Clone, Debug, Default)]
pub struct Source {
    registry: HashMap<String, Function>,
    known: HashSet<String>,
    /// The session's next node id.
    next_id: u32,
}

impl Source {
    /// Parse and register `src` as `Session::load_source` does, timing
    /// the parse.
    pub fn load(&mut self, src: &str, spans: &mut Spans) -> Result<Vec<String>, String> {
        let (functions, nodes) = spans.time("ast.parse_us", || adapter::parse(src))?;
        spans.count("ast.nodes", u64::from(nodes));
        self.next_id = self.next_id.max(nodes);
        let names = functions.iter().map(|f| f.name.clone()).collect();
        for f in functions {
            self.known.insert(f.name.clone());
            self.registry.insert(f.name.clone(), f);
        }
        Ok(names)
    }
}

fn finish(name: &str, r: RuntimeResult<Vec<Value>>, nargout: usize) -> RuntimeResult<Vec<Value>> {
    let mut outs = r?;
    outs.truncate(nargout.max(1));
    if outs.len() < nargout {
        return Err(RuntimeError::BadArity {
            name: name.to_owned(),
            detail: format!("{nargout} outputs requested"),
        });
    }
    Ok(outs)
}

/// Replays compiling calls of one session against a shadow repository.
pub struct CompileReplay<'a> {
    shadow: Repository,
    ns: &'a NsMap,
    source: &'a mut Source,
    options: EngineOptions,
    /// Versions per function in the shadow (the widening trigger).
    versions: HashMap<String, usize>,
    /// Identities of the versions this replay compiled, in order.
    compiled: Vec<VersionKey>,
    spans: &'a mut Spans,
    depth: usize,
}

impl<'a> CompileReplay<'a> {
    /// A replay starting from `before` (the repository the op started
    /// from, restricted to the namespaces in `ns`).
    pub fn new(
        before: Option<&adapter::Snapshot>,
        ns: &'a NsMap,
        source: &'a mut Source,
        options: EngineOptions,
        spans: &'a mut Spans,
    ) -> CompileReplay<'a> {
        let shadow = Repository::new();
        let versions = before.map(|b| b.seed(&shadow, ns)).unwrap_or_default();
        CompileReplay {
            shadow,
            ns,
            source,
            options,
            versions,
            compiled: Vec::new(),
            spans,
            depth: 0,
        }
    }

    fn ns_of(&self, name: &str) -> u64 {
        self.ns.get(name).copied().unwrap_or_default()
    }

    fn compile(
        &mut self,
        name: &str,
        sig: &Signature,
        optimized: bool,
    ) -> RuntimeResult<CompiledVersion> {
        let env = CompileEnv {
            registry: &self.source.registry,
            known: &self.source.known,
            repo: &self.shadow,
            ns: self.ns,
            options: &self.options,
        };
        let v = adapter::compile(
            &env,
            name,
            sig,
            optimized,
            &mut self.source.next_id,
            self.spans,
        )?;
        self.compiled.push(adapter::key_of(name, &v));
        Ok(v)
    }

    /// The engine's `ensure_code`: dispatch from the shadow, compiling
    /// (range-widened after two exact versions) on a miss.
    fn ensure_code(&mut self, name: &str, sig: &Signature) -> RuntimeResult<Arc<CompiledVersion>> {
        let ns = self.ns_of(name);
        if let Some(v) = adapter::lookup(&self.shadow, name, ns, sig) {
            return Ok(v);
        }
        let sig = if self.versions.get(name).copied().unwrap_or(0) >= 2 {
            adapter::widen(sig)
        } else {
            sig.clone()
        };
        let v = self.compile(name, &sig, false)?;
        adapter::publish(&self.shadow, name, ns, v);
        *self.versions.entry(name.to_owned()).or_default() += 1;
        Ok(adapter::lookup(&self.shadow, name, ns, &sig)
            .expect("a fresh version admits its own signature"))
    }

    /// Register `src` as the session's `load_source` does.
    pub fn load(&mut self, src: &str) -> Result<Vec<String>, String> {
        self.source.load(src, self.spans)
    }

    /// Take the identities compiled so far.
    pub fn take_compiled(&mut self) -> Vec<VersionKey> {
        std::mem::take(&mut self.compiled)
    }

    /// Replay `Session::call(entry, args, 1)`.
    pub fn call(
        &mut self,
        entry: &str,
        args: &[Value],
        rng_seed: u64,
    ) -> RuntimeResult<Vec<Value>> {
        let v = self.ensure_code(entry, &adapter::signature(args))?;
        let mut ctx = adapter::call_ctx(rng_seed);
        let r = adapter::execute(adapter::code(&v), args, 1, self, &mut ctx);
        finish(entry, r, 1)
    }

    /// Replay a background tier-1 recompile of `v`.
    pub fn tier1(&mut self, v: &VersionInfo) -> RuntimeResult<()> {
        let saved = std::mem::replace(&mut self.source.next_id, TIER1_NODE_BASE);
        let r = self.compile(&v.key.name, &v.signature, true);
        self.source.next_id = saved;
        r.map(|_| ())
    }
}

impl Dispatcher for CompileReplay<'_> {
    fn call_user(
        &mut self,
        name: &str,
        args: &[Value],
        nargout: usize,
        ctx: &mut CallCtx,
    ) -> RuntimeResult<Vec<Value>> {
        if self.depth > MAX_DEPTH {
            return Err(RuntimeError::Raised("recursion limit exceeded".to_owned()));
        }
        let v = self.ensure_code(name, &adapter::signature(args))?;
        self.depth += 1;
        let r = adapter::execute(adapter::code(&v), args, nargout, self, ctx);
        self.depth -= 1;
        finish(name, r, nargout)
    }
}

/// The replay self-check: the replay must have compiled exactly the
/// versions the engine added (same functions, signatures, tiers and
/// flattened step counts).
pub fn check_same(
    what: &str,
    mut replayed: Vec<VersionKey>,
    engine: &[VersionInfo],
) -> Result<(), String> {
    let mut real: Vec<VersionKey> = engine.iter().map(|v| v.key.clone()).collect();
    replayed.sort();
    real.sort();
    if replayed == real {
        Ok(())
    } else {
        Err(format!(
            "replay self-check failed for {what}: the engine compiled {real:?} but the replay compiled {replayed:?}"
        ))
    }
}

/// What one replayed warm call did.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallStats {
    /// Repository lookups (the top-level one included).
    pub lookups: u64,
    /// Time inside `lookup_ns`.
    pub lookup: Duration,
    /// User-function calls made by compiled code.
    pub user_calls: u64,
    /// Loop back-edges taken.
    pub backedges: u64,
    /// VM time outside nested dispatch (runtime builtins included).
    pub exec_self: Duration,
    /// Wall time of the whole replayed call, less making private copies
    /// of the code.
    pub total: Duration,
}

impl CallStats {
    /// Record this call into `spans`.
    pub fn record(&self, spans: &mut Spans) {
        spans.count("repo.lookups", self.lookups);
        spans.record_time("repo.lookup_us", self.lookup);
        spans.count("vm.user_calls", self.user_calls);
        spans.count("vm.backedges", self.backedges);
        spans.record_time("vm.exec_self_us", self.exec_self);
    }
}

/// Re-issues warm calls through `execute` over the engine's repository.
struct CallReplay<'a> {
    repo: &'a Repository,
    ns: &'a NsMap,
    /// Private code per version used, with its starting back-edge count
    /// (the version handle is held so its address stays unique).
    code: HashMap<usize, (Arc<CompiledVersion>, Arc<Executable>, u64)>,
    stats: CallStats,
    /// Time the per-call split (off for the bare replay whose total is
    /// compared against the engine's call).
    split: bool,
    dispatch: Duration,
    /// Time spent making the private copies (not part of the call).
    copying: Duration,
    depth: usize,
}

impl CallReplay<'_> {
    fn resolve(&mut self, name: &str, args: &[Value]) -> RuntimeResult<Arc<Executable>> {
        let sig = adapter::signature(args);
        let ns = self.ns.get(name).copied().unwrap_or_default();
        let t = self.split.then(Instant::now);
        let v = adapter::lookup(self.repo, name, ns, &sig);
        if let Some(t) = t {
            self.stats.lookup += t.elapsed();
        }
        self.stats.lookups += 1;
        let v =
            v.ok_or_else(|| RuntimeError::Raised(format!("replay: warm call to {name} missed")))?;
        let copying = &mut self.copying;
        let entry = self
            .code
            .entry(Arc::as_ptr(&v) as usize)
            .or_insert_with(|| {
                let t = Instant::now();
                let (exe, backedges) = adapter::private_code(&v);
                *copying += t.elapsed();
                (Arc::clone(&v), exe, backedges)
            });
        Ok(Arc::clone(&entry.1))
    }
}

impl Dispatcher for CallReplay<'_> {
    fn call_user(
        &mut self,
        name: &str,
        args: &[Value],
        nargout: usize,
        ctx: &mut CallCtx,
    ) -> RuntimeResult<Vec<Value>> {
        let t0 = self.split.then(Instant::now);
        if self.depth > MAX_DEPTH {
            return Err(RuntimeError::Raised("recursion limit exceeded".to_owned()));
        }
        self.stats.user_calls += 1;
        let exe = self.resolve(name, args)?;
        if let Some(t0) = t0 {
            self.dispatch += t0.elapsed();
        }
        self.depth += 1;
        let r = adapter::execute(&exe, args, nargout, self, ctx);
        self.depth -= 1;
        let t1 = self.split.then(Instant::now);
        let r = finish(name, r, nargout);
        if let Some(t1) = t1 {
            self.dispatch += t1.elapsed();
        }
        r
    }
}

/// Replay the warm call `entry(args)` over `repo` with the session's
/// namespaces `ns`. With `split`, time lookups and VM self time too
/// (which costs a few timer reads per nested call).
pub fn replay_call(
    repo: &Repository,
    ns: &NsMap,
    entry: &str,
    args: &[Value],
    rng_seed: u64,
    split: bool,
) -> RuntimeResult<(Vec<Value>, CallStats)> {
    let mut r = CallReplay {
        repo,
        ns,
        code: HashMap::new(),
        stats: CallStats::default(),
        split,
        dispatch: Duration::ZERO,
        copying: Duration::ZERO,
        depth: 0,
    };
    let mut ctx = adapter::call_ctx(rng_seed);
    let t0 = Instant::now();
    let exe = r.resolve(entry, args)?;
    let t1 = Instant::now();
    let out = adapter::execute(&exe, args, 1, &mut r, &mut ctx);
    let exec = t1.elapsed();
    let out = finish(entry, out, 1)?;
    r.stats.total = t0.elapsed().saturating_sub(r.copying);
    r.stats.exec_self = exec.saturating_sub(r.dispatch);
    r.stats.backedges = r
        .code
        .values()
        .map(|(_, exe, start)| adapter::backedges(exe) - start)
        .sum();
    Ok((out, r.stats))
}

/// Record the engine-side facts of a compiling op: how many versions it
/// added, their compile times, and the first call's execution time
/// net of compiling.
pub fn record_compiles(spans: &mut Spans, added: &[VersionInfo], first_call: Duration) {
    spans.count("repo.versions_compiled", added.len() as u64);
    let mut compile_us = 0.0;
    for v in added {
        spans.record_us("repo.compile_us", v.compile_us);
        compile_us += v.compile_us;
    }
    spans.record_us("core.first_exec_us", (us(first_call) - compile_us).max(0.0));
}
