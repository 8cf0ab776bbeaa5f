//! The benchmark's one window onto MaJIC.
//!
//! Every read of the program goes through this file, and only through
//! surfaces meant to stay: `CompilerService::with_options`,
//! `Session::{load_source, call, interp_mut}`, the service's background
//! handle, `Repository::{lookup_ns, entries_ns, stats}` (plus
//! `insert_ns`/`call_types_ns` on the benchmark's private shadow
//! repository) and the layer crates' public functions. When one of those
//! surfaces changes, this is the only file to update.

use crate::stats::Spans;
use majic::{ExecMode, InferOptions, Platform, RegAllocMode, TierOptions};
use majic_analysis::{disambiguate, inline_function, InlineOptions};
use majic_codegen::CodegenOptions;
use majic_infer::{infer_jit, CalleeOracle};
use majic_ir::passes::{self, PassOptions};
use majic_repo::NO_SESSION;
use majic_runtime::Lcg;
use majic_types::{Lattice, Range, Type};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

pub use majic::{CompilerService, EngineOptions, RepoStats, Session, Value};
pub use majic_ast::Function;
pub use majic_repo::{CompiledVersion, Repository};
pub use majic_runtime::builtins::CallCtx;
pub use majic_runtime::{RuntimeError, RuntimeResult};
pub use majic_types::Signature;
pub use majic_vm::{Dispatcher, Executable};

/// Function name → the repository namespace its calls dispatch from.
pub type NsMap = HashMap<String, u64>;

/// Hotness at which the default tier options promote a version.
pub const TIER_THRESHOLD: u64 = 10_000;

/// Session id the replay attributes its shadow-repository inserts to.
const REPLAY_SESSION: u64 = 1;

/// Engine options with every switch written out, so no environment
/// variable (`MAJIC_TIER`, `MAJIC_THREADS`) changes what is measured.
/// Kernels run sequentially; tiering uses the default threshold with
/// one background worker. The platform is MIPS, whose tier-1 pipeline
/// runs every IR pass (SPARC's leaves loop-invariant code motion out);
/// it changes only tier-1 code.
fn engine_options(mode: ExecMode, tiering: bool) -> EngineOptions {
    EngineOptions::builder()
        .mode(mode)
        .infer(InferOptions::default())
        .regalloc(RegAllocMode::LinearScan)
        .oversize(true)
        .inline(true)
        .platform(Platform::Mips)
        .tier(TierOptions {
            enabled: tiering,
            threshold: TIER_THRESHOLD,
            workers: 1,
        })
        .threads(Some(1))
        .build()
}

/// The JIT-mode options of every measured service.
pub fn jit_options(tiering: bool) -> EngineOptions {
    engine_options(ExecMode::Jit, tiering)
}

/// A compiled-mode service (JIT, tiering on or off).
pub fn jit_service(tiering: bool) -> CompilerService {
    CompilerService::with_options(jit_options(tiering))
}

/// An interpreter-only service: the correctness oracle.
pub fn interp_service() -> CompilerService {
    CompilerService::with_options(engine_options(ExecMode::Interpret, false))
}

/// A fresh session on `service`.
pub fn session(service: &CompilerService) -> Session {
    service.session()
}

/// `Session::load_source`.
pub fn load_source(s: &mut Session, src: &str) -> Result<(), String> {
    s.load_source(src).map_err(|e| e.to_string())
}

/// `Session::call` with one output, after reseeding the session's
/// `rand` generator so the result does not depend on call order.
pub fn call(
    s: &mut Session,
    name: &str,
    args: &[Value],
    rng_seed: u64,
) -> Result<Vec<Value>, String> {
    s.interp_mut().ctx.rng = Lcg::seeded(rng_seed);
    s.call(name, args, 1).map_err(|e| e.to_string())
}

/// Block until the service's background compiles have drained.
pub fn wait_background(service: &CompilerService) {
    service.background().wait();
}

/// The service's shared repository.
pub fn repository(service: &CompilerService) -> &Repository {
    service.repository()
}

/// The repository of the service `s` belongs to.
pub fn session_repository(s: &Session) -> &Repository {
    s.service().repository()
}

/// `Repository::stats`.
pub fn stats(repo: &Repository) -> RepoStats {
    repo.stats()
}

/// `Repository::lookup_ns`, unattributed (so replays never count as
/// shared hits).
pub fn lookup(
    repo: &Repository,
    name: &str,
    ns: u64,
    sig: &Signature,
) -> Option<Arc<CompiledVersion>> {
    repo.lookup_ns(name, ns, NO_SESSION, sig)
}

/// Bitwise equality of two values (`majic::diff::value_bits_eq`).
pub fn bits_eq(a: &Value, b: &Value) -> bool {
    majic::diff::value_bits_eq(a, b)
}

/// The call signature the engine dispatches on.
pub fn signature(args: &[Value]) -> Signature {
    args.iter().map(Value::type_of).collect()
}

/// A builtin-call context whose `rand` stream starts at `rng_seed`.
pub fn call_ctx(rng_seed: u64) -> CallCtx {
    let mut ctx = CallCtx::new();
    ctx.rng = Lcg::seeded(rng_seed);
    ctx
}

/// `majic_vm::execute`.
pub fn execute(
    exe: &Executable,
    args: &[Value],
    nargout: usize,
    disp: &mut dyn Dispatcher,
    ctx: &mut CallCtx,
) -> RuntimeResult<Vec<Value>> {
    majic_vm::execute(exe, args, nargout, disp, ctx)
}

/// A private copy of a version's code: its execution counters start
/// from the shared ones but advance only for the copy. Returns the copy
/// and its loop back-edge count at the moment of copying.
pub fn private_code(v: &CompiledVersion) -> (Arc<Executable>, u64) {
    let exe = Arc::new((*v.code).clone());
    let backedges = exe.exec_counts().1;
    (exe, backedges)
}

/// Loop back-edges `exe` has taken so far.
pub fn backedges(exe: &Executable) -> u64 {
    exe.exec_counts().1
}

/// `majic_ast::parse_source`: the file's functions and its node count
/// (the engine's node-id base for the session that loads it).
pub fn parse(src: &str) -> Result<(Vec<Function>, u32), String> {
    let file = majic_ast::parse_source(src).map_err(|e| e.to_string())?;
    Ok((file.functions, file.node_count))
}

/// What the benchmark reads off one compiled version. Two versions with
/// equal keys are the same compiled program.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VersionKey {
    /// Function name.
    pub name: String,
    /// Rendered signature.
    pub signature: String,
    /// Tier level (0 or 1).
    pub tier: u8,
    /// Flattened VM steps (`Executable::step_count`).
    pub steps: usize,
}

/// One version in a snapshot.
#[derive(Clone, Debug)]
pub struct VersionInfo {
    /// Namespace the version lives in.
    pub ns: u64,
    /// Its identity.
    pub key: VersionKey,
    /// The signature it was compiled for.
    pub signature: Signature,
    /// Compile time the engine recorded, in µs.
    pub compile_us: f64,
    /// Current hotness (`Executable::hotness`).
    pub hotness: u64,
}

fn info(name: &str, ns: u64, v: &CompiledVersion) -> VersionInfo {
    VersionInfo {
        ns,
        key: VersionKey {
            name: name.to_owned(),
            signature: v.signature.to_string(),
            tier: v.tier.level(),
            steps: v.code.step_count(),
        },
        signature: v.signature.clone(),
        compile_us: v.compile_time.as_secs_f64() * 1e6,
        hotness: v.code.hotness(),
    }
}

/// A point-in-time copy of the repository (`Repository::entries_ns`).
pub struct Snapshot(Vec<(String, u64, Vec<CompiledVersion>)>);

impl Snapshot {
    /// Snapshot `repo`.
    pub fn take(repo: &Repository) -> Snapshot {
        Snapshot(repo.entries_ns())
    }

    /// Every version.
    pub fn versions(&self) -> Vec<VersionInfo> {
        self.0
            .iter()
            .flat_map(|(name, ns, vs)| vs.iter().map(move |v| info(name, *ns, v)))
            .collect()
    }

    /// Versions present here but not in `before`: per namespace, the
    /// suffix appended since (namespaces only grow between
    /// invalidations, and an invalidated namespace starts over).
    pub fn added_since(&self, before: &Snapshot) -> Vec<VersionInfo> {
        let old: HashMap<(&str, u64), usize> = before
            .0
            .iter()
            .map(|(n, ns, vs)| ((n.as_str(), *ns), vs.len()))
            .collect();
        let mut out = Vec::new();
        for (name, ns, vs) in &self.0 {
            let had = old.get(&(name.as_str(), *ns)).copied().unwrap_or(0);
            let from = if had <= vs.len() { had } else { 0 };
            out.extend(vs[from..].iter().map(|v| info(name, *ns, v)));
        }
        out
    }

    /// Copy the versions of every `(name, ns)` in `namespaces` into
    /// `shadow`, so a replay starts from the state the engine saw.
    /// Returns how many versions each function got.
    pub fn seed(&self, shadow: &Repository, namespaces: &NsMap) -> HashMap<String, usize> {
        let mut counts = HashMap::new();
        for (name, ns, vs) in &self.0 {
            if namespaces.get(name) == Some(ns) {
                for v in vs {
                    shadow.insert_ns(name, *ns, REPLAY_SESSION, v.clone());
                }
                counts.insert(name.clone(), vs.len());
            }
        }
        counts
    }

    /// Each function's namespace. Meant for snapshots where every name
    /// lives in one namespace; otherwise the first in `(name, ns)` order
    /// wins.
    pub fn ns_map(&self) -> NsMap {
        let mut map = NsMap::new();
        for (name, ns, _) in &self.0 {
            map.entry(name.clone()).or_insert(*ns);
        }
        map
    }
}

/// The inference oracle the engine uses, over a given repository:
/// callee output types from the caller's namespace of the callee.
struct NsOracle<'a> {
    repo: &'a Repository,
    ns: &'a NsMap,
}

impl CalleeOracle for NsOracle<'_> {
    fn call_types(&self, name: &str, args: &[Type], _nargout: usize) -> Option<Vec<Type>> {
        let ns = *self.ns.get(name)?;
        self.repo
            .call_types_ns(name, ns, &Signature::new(args.to_vec()))
    }
}

/// Everything one compile reads besides the function and signature.
pub struct CompileEnv<'a> {
    /// The session's functions.
    pub registry: &'a HashMap<String, Function>,
    /// Names the session knows as functions.
    pub known: &'a HashSet<String>,
    /// Repository the inference oracle reads.
    pub repo: &'a Repository,
    /// Namespace of each function.
    pub ns: &'a NsMap,
    /// The engine options of the session.
    pub options: &'a EngineOptions,
}

/// Widen a signature's ranges to top, as the engine does once two
/// exact versions of a function exist.
pub fn widen(sig: &Signature) -> Signature {
    Signature::new(
        sig.params()
            .iter()
            .map(|t| t.with_range(Range::top()))
            .collect(),
    )
}

/// Compile `name` for `sig` through the layer crates' public functions,
/// exactly as the engine's pipeline does (`optimized` selects the tier-1
/// backend), timing and counting each layer into `spans`. Publishes
/// nothing.
pub fn compile(
    env: &CompileEnv<'_>,
    name: &str,
    sig: &Signature,
    optimized: bool,
    next_id: &mut u32,
    spans: &mut Spans,
) -> RuntimeResult<CompiledVersion> {
    let f = env
        .registry
        .get(name)
        .ok_or_else(|| RuntimeError::Undefined(name.to_owned()))?;
    let t0 = Instant::now();
    let inlined = spans.time("analysis.inline_us", || {
        inline_function(f, env.registry, InlineOptions::default(), next_id)
    });
    let d = spans.time("analysis.disambig_us", || disambiguate(&inlined, env.known));
    let oracle = NsOracle {
        repo: env.repo,
        ns: env.ns,
    };
    let ann = spans.time("infer.jit_us", || {
        infer_jit(&d, sig, env.options.infer, &oracle)
    });
    let mut cg = if optimized {
        CodegenOptions::optimizing()
    } else {
        CodegenOptions::jit()
    };
    cg.regalloc = env.options.regalloc;
    cg.oversize = env.options.oversize;
    if optimized && env.options.platform == Platform::Sparc {
        cg.passes = PassOptions {
            licm: false,
            ..PassOptions::all()
        };
    }
    let mut func = spans
        .time("codegen.select_us", || {
            majic_codegen::compile(&d, &ann, &cg)
        })
        .map_err(|e| RuntimeError::Raised(e.to_string()))?;
    let selected = func.inst_count();
    spans.count("codegen.insts", selected as u64);
    let tp = Instant::now();
    passes::optimize(&mut func, cg.passes);
    if optimized {
        spans.record_time("ir.passes_us", tp.elapsed());
        spans.count("ir.insts_removed", (selected - func.inst_count()) as u64);
    }
    let (f_spill, c_spill) = spans.time("vm.regalloc_us", || {
        majic_vm::allocate(&mut func, cg.regalloc)
    });
    spans.count("vm.spills", u64::from(f_spill + c_spill));
    let exe = spans.time("vm.flatten_us", || Executable::new(&func, f_spill, c_spill));
    spans.count("vm.steps", exe.step_count() as u64);
    let mut output_types = ann.outputs.clone();
    if output_types.is_empty() {
        output_types = vec![Type::top(); d.function.outputs.len()];
    }
    let (quality, tier) = if optimized {
        (majic_repo::CodeQuality::Optimized, majic_repo::Tier::T1)
    } else {
        (majic_repo::CodeQuality::Jit, majic_repo::Tier::T0)
    };
    Ok(CompiledVersion {
        signature: sig.clone(),
        code: Arc::new(exe),
        quality,
        tier,
        output_types,
        compile_time: t0.elapsed(),
    })
}

/// The code of a version.
pub fn code(v: &CompiledVersion) -> &Executable {
    &v.code
}

/// The identity of a freshly compiled version.
pub fn key_of(name: &str, v: &CompiledVersion) -> VersionKey {
    info(name, 0, v).key
}

/// Publish `version` into a shadow repository.
pub fn publish(shadow: &Repository, name: &str, ns: u64, version: CompiledVersion) {
    shadow.insert_ns(name, ns, REPLAY_SESSION, version);
}
