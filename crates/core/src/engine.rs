//! The MaJIC engine: execution options, the shared compile pipeline,
//! and the per-call dispatcher.
//!
//! The process-wide machinery (repository, background pool, cache
//! lifecycle) lives in [`crate::service`]; this module owns everything
//! a compilation itself needs — [`EngineOptions`] and its builder, the
//! session context a compile reads ([`SessionCtx`]), the one
//! compile-and-publish path every trigger takes
//! ([`compile_and_publish`], shared by the foreground dispatcher,
//! synchronous speculation and the background workers), and the
//! [`EngineDispatcher`] compiled code calls back into.

#[cfg(doc)]
use crate::Session;
use majic_analysis::{disambiguate, inline_function, DisambiguatedFunction, InlineOptions};
use majic_ast::{walk_exprs, walk_stmts, ExprKind, Function, Stmt, StmtKind};
use majic_codegen::CodegenOptions;
use majic_infer::{infer_jit, infer_speculative, Annotations, CalleeOracle, InferOptions};
use majic_ir::passes::{self, PassOptions};
use majic_ir::Inst;
use majic_repo::{CodeQuality, CompiledVersion, Repository, Tier};
use majic_runtime::builtins::CallCtx;
use majic_runtime::{RuntimeError, RuntimeResult, Value};
use majic_types::{Lattice, Range, Signature, Type};
use majic_vm::{allocate, execute, Dispatcher, Executable, RegAllocMode};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// How function calls execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Pure interpretation (the measurement baseline).
    Interpret,
    /// Compile to generic library calls (`mcc` emulation).
    Mcc,
    /// Just-in-time compilation on repository miss.
    Jit,
    /// Speculative ahead-of-time compilation (run
    /// [`Session::speculate_all`] first); misses fall back to the JIT,
    /// exactly as in the paper.
    Spec,
    /// FALCON emulation: exact-signature inference plus the optimizing
    /// backend (batch compilation; callers exclude compile time).
    Falcon,
}

/// Simulated host platform. The paper's SPARC/MIPS difference is the
/// quality of the native backend ("On the SPARC platform the native
/// Fortran-90 compiler generates relatively poor code … on the MIPS
/// platform the native compiler is excellent"); we model it as the
/// optimizing pipeline's pass budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Platform {
    /// Weaker optimizing backend (no loop-invariant code motion).
    Sparc,
    /// Full optimizing backend.
    Mips,
}

/// Engine configuration, including every ablation switch used by the
/// evaluation harness.
///
/// Construct with [`EngineOptions::builder`] (or mutate the pub fields
/// directly on an existing value).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineOptions {
    /// Execution mode.
    pub mode: ExecMode,
    /// Type-inference switches (Figure 7: "no ranges", "no min. shapes").
    pub infer: InferOptions,
    /// Register allocation (Figure 7: "no regalloc").
    pub regalloc: RegAllocMode,
    /// Array oversizing on resizes (§2.6.1).
    pub oversize: bool,
    /// Function inlining (§2.6.1; recursion ≤ 2 levels, the paper allows 3).
    pub inline: bool,
    /// Simulated platform (Figures 4 vs 5).
    pub platform: Platform,
    /// Profile-guided tiered recompilation (hot tier-0 → tier-1).
    pub tier: TierOptions,
    /// Data-parallel kernel threads for the runtime's matrix kernels
    /// (`Some(n)` sets the process-global [`majic_runtime::par`] pool to
    /// `n` participating threads before each call; `None` leaves the
    /// `MAJIC_THREADS` environment setting in charge). `0` and `1` both
    /// mean sequential. Results are bitwise-identical either way — the
    /// kernels preserve the sequential expression and accumulation
    /// order per output element.
    pub threads: Option<usize>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            mode: ExecMode::Jit,
            infer: InferOptions::default(),
            regalloc: RegAllocMode::LinearScan,
            oversize: true,
            inline: true,
            platform: Platform::Sparc,
            tier: TierOptions::default(),
            threads: None,
        }
    }
}

impl EngineOptions {
    /// A fluent builder over the defaults, so callers name the switches
    /// they set instead of mutating pub fields positionally.
    ///
    /// ```
    /// use majic::{EngineOptions, ExecMode, Platform};
    ///
    /// let opts = EngineOptions::builder()
    ///     .mode(ExecMode::Falcon)
    ///     .platform(Platform::Mips)
    ///     .oversize(false)
    ///     .build();
    /// assert_eq!(opts.mode, ExecMode::Falcon);
    /// assert_eq!(opts.platform, Platform::Mips);
    /// assert!(!opts.oversize);
    /// assert!(opts.inline, "untouched switches keep their defaults");
    /// ```
    pub fn builder() -> EngineOptionsBuilder {
        EngineOptionsBuilder {
            opts: EngineOptions::default(),
        }
    }
}

/// Builder for [`EngineOptions`]; see [`EngineOptions::builder`].
#[derive(Clone, Copy, Debug)]
pub struct EngineOptionsBuilder {
    opts: EngineOptions,
}

impl EngineOptionsBuilder {
    /// Set the execution mode.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.opts.mode = mode;
        self
    }

    /// Set the type-inference switches.
    pub fn infer(mut self, infer: InferOptions) -> Self {
        self.opts.infer = infer;
        self
    }

    /// Set the register-allocation mode.
    pub fn regalloc(mut self, regalloc: RegAllocMode) -> Self {
        self.opts.regalloc = regalloc;
        self
    }

    /// Enable or disable array oversizing on resizes.
    pub fn oversize(mut self, oversize: bool) -> Self {
        self.opts.oversize = oversize;
        self
    }

    /// Enable or disable function inlining.
    pub fn inline(mut self, inline: bool) -> Self {
        self.opts.inline = inline;
        self
    }

    /// Set the simulated platform.
    pub fn platform(mut self, platform: Platform) -> Self {
        self.opts.platform = platform;
        self
    }

    /// Set the tiered-recompilation knobs.
    pub fn tier(mut self, tier: TierOptions) -> Self {
        self.opts.tier = tier;
        self
    }

    /// Set the data-parallel kernel thread count (`None` leaves the
    /// `MAJIC_THREADS` environment setting in charge).
    pub fn threads(mut self, threads: Option<usize>) -> Self {
        self.opts.threads = threads;
        self
    }

    /// Finish building.
    pub fn build(self) -> EngineOptions {
        self.opts
    }
}

/// Tiered-recompilation knobs.
///
/// Every JIT-compiled version starts at tier 0 and carries execution
/// counters (invocations, loop back-edges). When a version's hotness —
/// `calls × `[`majic_vm::CALL_HOTNESS_WEIGHT`]` + backedges` — crosses
/// [`threshold`](TierOptions::threshold), the engine enqueues a
/// background recompile that re-runs inference with the *observed*
/// signature through the full optimizing pipeline and publishes the
/// result as a tier-1 version. Dispatch prefers the highest valid tier
/// and falls back to tier 0 (or a fresh JIT compile) on a signature
/// mismatch, so promotion can only improve performance, never change
/// results.
///
/// Set per session through [`EngineOptions::tier`]; nothing outside the
/// options changes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierOptions {
    /// Master switch for hot promotion.
    pub enabled: bool,
    /// Hotness score at which a tier-0 version is promoted.
    pub threshold: u64,
    /// Worker threads of the service's one background pool (speculation
    /// and promotion), read by whichever session starts it: its first
    /// promotion or [`Session::speculate_background`]. A running pool is
    /// never resized. `0` means no background compiles: the pool rejects
    /// every job and calls stay on their first-call code.
    pub workers: usize,
}

impl Default for TierOptions {
    fn default() -> Self {
        TierOptions {
            enabled: true,
            threshold: 10_000,
            workers: 1,
        }
    }
}

/// Cumulative per-phase timing, matching Figure 6's decomposition of JIT
/// runtime into disambiguation / type inference / code generation /
/// execution. Each bucket is the sum of the trace spans named below.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Inlining + disambiguation (`analysis.inline`, `analysis.disambig`).
    pub disambiguation: Duration,
    /// Type inference (`infer.jit` or `infer.speculative`).
    pub inference: Duration,
    /// Code selection + IR passes + register allocation + flattening
    /// (`codegen.select`, `ir.passes`, `vm.regalloc`, `vm.flatten`).
    pub codegen: Duration,
    /// Execution of compiled code or the interpreter (`execution`).
    pub execution: Duration,
}

impl PhaseTimes {
    /// Total of all phases.
    pub fn total(&self) -> Duration {
        self.disambiguation + self.inference + self.codegen + self.execution
    }

    /// Compilation-only portion.
    pub fn compile(&self) -> Duration {
        self.disambiguation + self.inference + self.codegen
    }
}

/// Everything the audit log knows about one function, as returned by
/// [`Session::explain`].
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The function asked about.
    pub function: String,
    /// Retained compilation records for the function, oldest first.
    pub records: Vec<majic_trace::audit::CompilationRecord>,
    /// Session events naming the function, plus session-wide events
    /// (e.g. whole-cache rejections) that have no single owner.
    pub events: Vec<majic_trace::audit::SessionEvent>,
    /// Human-readable rendering of the above.
    pub report: String,
}

/// Stable lowercase name of a [`CodeQuality`] tier for audit outcomes.
pub(crate) fn quality_name(q: CodeQuality) -> &'static str {
    match q {
        CodeQuality::Generic => "generic",
        CodeQuality::Jit => "jit",
        CodeQuality::Optimized => "optimized",
    }
}

pub(crate) fn signature_of(args: &[Value]) -> Signature {
    args.iter().map(Value::type_of).collect()
}

pub(crate) fn collect_callees(stmts: &[Stmt], known: &HashSet<String>, out: &mut Vec<String>) {
    for s in walk_stmts(stmts) {
        if let StmtKind::MultiAssign { callee, .. } = &s.kind {
            if known.contains(callee) {
                out.push(callee.clone());
            }
        }
    }
    for e in walk_exprs(stmts) {
        e.walk(&mut |e| match &e.kind {
            ExprKind::Apply { callee, .. } | ExprKind::Ident(callee) if known.contains(callee) => {
                out.push(callee.clone());
            }
            _ => {}
        });
    }
}

/// The order speculation compiles the session's functions in: callees
/// before callers, so a caller's inference reads the output types of
/// callees it does not inline. It is a depth-first post-order over the
/// static call graph that visits roots and callees by name; a call cycle
/// is cut where the walk meets a function it already entered.
pub(crate) fn speculation_order(ctx: &SessionCtx) -> Vec<String> {
    fn visit<'a>(
        ctx: &'a SessionCtx,
        name: &'a str,
        seen: &mut HashSet<&'a str>,
        order: &mut Vec<String>,
    ) {
        if !seen.insert(name) {
            return;
        }
        let mut callees = Vec::new();
        collect_callees(&ctx.registry[name].body, &ctx.known, &mut callees);
        callees.sort_unstable();
        callees.dedup();
        for callee in &callees {
            if let Some((callee, _)) = ctx.registry.get_key_value(callee) {
                visit(ctx, callee, seen, order);
            }
        }
        order.push(name.to_owned());
    }
    let mut names: Vec<&str> = ctx.registry.keys().map(String::as_str).collect();
    names.sort_unstable();
    let mut seen = HashSet::with_capacity(names.len());
    let mut order = Vec::with_capacity(names.len());
    for name in names {
        visit(ctx, name, &mut seen, &mut order);
    }
    order
}

/// A compiling session's identity: the sources it loaded, the
/// namespaces they hash to, its id, and how it compiles. The foreground
/// [`EngineDispatcher`] borrows it; a background job holds an `Arc`
/// snapshot taken when it was submitted, so its compile sees exactly the
/// submitting session's view of every callee and publishes into that
/// session's namespace.
#[derive(Clone, Debug, Default)]
pub(crate) struct SessionCtx {
    pub(crate) registry: HashMap<String, Function>,
    pub(crate) known: HashSet<String>,
    /// `function name → closure hash` = the session's repository
    /// namespace for the function.
    pub(crate) hashes: HashMap<String, u64>,
    /// Functions whose static call closure reaches `global` / `clear`,
    /// which compiled code cannot express: their calls run in the
    /// interpreter. Recomputed with `hashes` on every load.
    pub(crate) interpreted: HashSet<String>,
    /// One past the largest AST node id of any file the session loaded:
    /// the first id a compile gives an inlined node.
    pub(crate) node_base: u32,
    /// 1-based session id; attributed on audit records and repository
    /// inserts (`0` is reserved for out-of-session work).
    pub(crate) session: u64,
    pub(crate) options: EngineOptions,
    /// Whether the session's compilations open an audit record.
    pub(crate) audit: bool,
}

impl SessionCtx {
    /// The session's namespace for `name`, or [`majic_repo::DEFAULT_NS`]
    /// for a name it never loaded.
    pub(crate) fn ns(&self, name: &str) -> u64 {
        self.hashes
            .get(name)
            .copied()
            .unwrap_or(majic_repo::DEFAULT_NS)
    }
}

/// Split-borrow helper: the dispatcher compiled code calls back into.
/// One is built per top-level [`Session::call`] and borrows the
/// session's [`SessionCtx`], so every repository interaction stays
/// inside the session's namespaces.
pub(crate) struct EngineDispatcher<'a> {
    pub(crate) ctx: &'a SessionCtx,
    pub(crate) repo: &'a Repository,
    pub(crate) times: &'a mut PhaseTimes,
    pub(crate) depth: usize,
    /// Versions that crossed the hotness threshold during this
    /// dispatch, each once; the session drains them into the background
    /// pool after the top-level call returns (the service-wide dedup
    /// happens there, so no service lock is held while user code runs).
    pub(crate) hot: Vec<(String, Signature)>,
    /// The signature of the call being dispatched, refilled in place by
    /// every [`Dispatcher::call_user`].
    pub(crate) sig: Signature,
}

/// The inference oracle: callee output types come from the repository,
/// scoped to the *calling session's* namespace for every function the
/// session has loaded (a neighbor's redefinition must never leak into
/// this session's inference).
struct RepoOracle<'a> {
    repo: &'a Repository,
    hashes: &'a HashMap<String, u64>,
}

impl CalleeOracle for RepoOracle<'_> {
    fn call_types(&self, name: &str, args: &[Type], _nargout: usize) -> Option<Vec<Type>> {
        let ns = *self.hashes.get(name)?;
        self.repo
            .call_types_ns(name, ns, &Signature::new(args.to_vec()))
    }
}

impl EngineDispatcher<'_> {
    /// Queue `name`'s version for tier-1 promotion if it is hot tier-0
    /// JIT code whose hotness crossed the threshold. Called right after
    /// an execution, when the counters are fresh. Dedup here is local
    /// to the dispatch (recursive calls would otherwise note the same
    /// version thousands of times) and scans the few entries of `hot`,
    /// so only a first sighting allocates; the session checks the
    /// service-wide promotion set when it drains `hot`.
    pub(crate) fn note_hot(&mut self, name: &str, v: &CompiledVersion) {
        let tier = &self.ctx.options.tier;
        if !tier.enabled
            || v.tier != Tier::T0
            || v.quality != CodeQuality::Jit
            || v.code.hotness() < tier.threshold
        {
            return;
        }
        if !self
            .hot
            .iter()
            .any(|(n, sig)| n == name && *sig == v.signature)
        {
            self.hot.push((name.to_owned(), v.signature.clone()));
        }
    }

    /// Find or build code for an invocation. Returns the repository's
    /// shared handle — a repository hit on the hot path clones one
    /// `Arc`, not the signature and output types.
    pub(crate) fn ensure_code(
        &mut self,
        name: &str,
        sig: &Signature,
    ) -> Result<Arc<CompiledVersion>, RuntimeError> {
        let ns = self.ctx.ns(name);
        if let Some(v) = self.repo.lookup_ns(name, ns, self.ctx.session, sig) {
            return Ok(v);
        }
        // Anti-explosion widening: recursive calls produce a fresh
        // constant signature per depth (fib(20), fib(19), …). After two
        // exact-signature versions exist, compile a range-widened version
        // that admits every future scalar invocation of the same shapes.
        let widened = self.repo.version_count_ns(name, ns) >= 2;
        let sig = if widened {
            Signature::new(
                sig.params()
                    .iter()
                    .map(|t| t.with_range(Range::top()))
                    .collect(),
            )
        } else {
            sig.clone()
        };
        // `compile_function` already speaks `RuntimeError` (codegen
        // failures arrive as `Raised("cannot compile: …")`); wrapping
        // again would collapse e.g. `Undefined` into `Raised` and make
        // compiled modes disagree with the interpreter about the error
        // class of `r = v` with `v` never assigned.
        let published = compile_and_publish(
            self.ctx,
            self.repo,
            name,
            Some(&sig),
            Trigger::Miss { widened },
            self.times,
        )?;
        Ok(published.expect("a miss publishes unconditionally"))
    }
}

/// Why a compilation runs. The trigger decides the pipeline, the audit
/// record's `trigger` string and how the result publishes.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Trigger {
    /// A repository miss, compiled in the session's mode: the first call
    /// for a signature, or the range-widened recompile that replaces
    /// per-signature versions threatening to explode.
    Miss { widened: bool },
    /// [`Session::speculate_all`].
    SpecSync,
    /// A background job: speculative (`sig = None`) or promotion, of a
    /// hot version or (`replay`) of a persistent-manifest signature.
    /// It publishes only if `(name, namespace)`'s invalidation generation
    /// is still `generation`, as captured at submit time — the source may
    /// have been redefined while the job waited or compiled.
    Job {
        generation: u64,
        queue_wait: Duration,
        replay: bool,
    },
}

impl Trigger {
    fn name(self, speculative: bool) -> &'static str {
        match self {
            Trigger::Miss { widened: false } => "first_call",
            Trigger::Miss { widened: true } => "recompile_widened",
            Trigger::SpecSync => "spec_sync",
            Trigger::Job { .. } if speculative => "spec_worker",
            Trigger::Job { replay: true, .. } => "warm_cache",
            Trigger::Job { .. } => "recompile_hot",
        }
    }
}

/// Compile `name` for `sig` (`None`: speculative), record the
/// compilation in the audit log when the session asks for it, and
/// publish the version into the session's namespace. This is the one
/// path into the repository for every compile trigger. One `compile`
/// span times the compile; its duration is both the version's
/// `compile_time` and the audit record's `compile_ns`. Returns the
/// published version, or `None` when a background job's version is
/// dropped because its source went stale.
///
/// # Errors
///
/// Returns the compile error; nothing is published.
pub(crate) fn compile_and_publish(
    ctx: &SessionCtx,
    repo: &Repository,
    name: &str,
    sig: Option<&Signature>,
    trigger: Trigger,
    times: &mut PhaseTimes,
) -> Result<Option<Arc<CompiledVersion>>, RuntimeError> {
    let quality = match (trigger, ctx.options.mode) {
        (Trigger::SpecSync | Trigger::Job { .. }, _) => CodeQuality::Optimized,
        (Trigger::Miss { .. }, ExecMode::Mcc) => CodeQuality::Generic,
        (Trigger::Miss { .. }, ExecMode::Falcon) => CodeQuality::Optimized,
        (Trigger::Miss { .. }, ExecMode::Jit | ExecMode::Spec | ExecMode::Interpret) => {
            CodeQuality::Jit
        }
    };
    // The audit scope opens only if the session wanted it (or the
    // process-wide switch is on): a service with auditing off must not
    // pollute another service's flight recorder.
    if ctx.audit {
        majic_trace::audit::begin(name);
        majic_trace::audit::session_id(ctx.session);
    }
    let sp = majic_trace::Span::enter_with("compile", || {
        vec![
            ("fn", name.to_owned()),
            ("pipeline", quality_name(quality).to_owned()),
            ("speculative", sig.is_none().to_string()),
        ]
    });
    let result = compile_function(ctx, repo, name, sig, quality, times);
    let compile_time = sp.exit();
    let compile_ns = compile_time.as_nanos() as u64;
    let queue_wait_ns = match trigger {
        Trigger::Job { queue_wait, .. } => Some(queue_wait.as_nanos() as u64),
        _ => None,
    };
    let trigger_name = trigger.name(sig.is_none());
    match result {
        Ok(mut version) => {
            version.compile_time = compile_time;
            // The version moves into the repository below; render its
            // signature first, and only when a record is open.
            let signature = ctx.audit.then(|| version.signature.to_string());
            let ns = ctx.ns(name);
            let published = match trigger {
                Trigger::Job { generation, .. } => {
                    repo.insert_if_current_ns(name, ns, generation, ctx.session, version)
                }
                _ => Some(repo.insert_ns(name, ns, ctx.session, version)),
            };
            majic_trace::audit::commit(
                || signature.unwrap_or_default(),
                trigger_name,
                || {
                    if published.is_some() {
                        format!("published ({})", quality_name(quality))
                    } else {
                        "dropped: source redefined while compiling".to_owned()
                    }
                },
                queue_wait_ns,
                compile_ns,
            );
            Ok(published)
        }
        Err(e) => {
            majic_trace::audit::commit(
                || sig.map_or_else(|| "(speculative)".to_owned(), ToString::to_string),
                trigger_name,
                || format!("failed: {e}"),
                queue_wait_ns,
                compile_ns,
            );
            Err(e)
        }
    }
}

/// Run one compilation pipeline for `name`, producing code of `quality`.
/// `sig = None` selects speculative inference (the signature is
/// guessed). The callee oracle reads the repository through `ctx`'s
/// namespaces.
///
/// It only *reads* the registry and repository ([`compile_and_publish`]
/// publishes the returned version), which is what makes it safe to run
/// concurrently on the background workers.
pub(crate) fn compile_function(
    ctx: &SessionCtx,
    repo: &Repository,
    name: &str,
    sig: Option<&Signature>,
    quality: CodeQuality,
    times: &mut PhaseTimes,
) -> Result<CompiledVersion, RuntimeError> {
    let options = &ctx.options;
    let f = ctx
        .registry
        .get(name)
        .ok_or_else(|| RuntimeError::Undefined(name.to_owned()))?;
    // Each layer runs under exactly one span, named for its perfbench
    // metric, and that span's `exit()` duration is added into its
    // Figure 6 bucket of `PhaseTimes`: the trace and the figure read the
    // same measurement.

    // Disambiguation = (inlining +) disambiguation.
    let inlined;
    let to_analyze = if options.inline && quality != CodeQuality::Generic {
        // Inlined copies are numbered from the session's node base, so
        // a compile's ids never depend on earlier compiles.
        let mut next_node_id = ctx.node_base;
        inlined = timed("analysis.inline", &mut times.disambiguation, || {
            inline_function(
                f,
                &ctx.registry,
                InlineOptions::default(),
                &mut next_node_id,
            )
        });
        &inlined
    } else {
        f
    };
    let d: DisambiguatedFunction = timed("analysis.disambig", &mut times.disambiguation, || {
        disambiguate(to_analyze, &ctx.known)
    });

    // Inference. Generic code infers nothing: it is the JIT pipeline run
    // on the `⊤` annotations below.
    let oracle = RepoOracle {
        repo,
        hashes: &ctx.hashes,
    };
    let (signature, ann): (Signature, Annotations) = match (quality, sig) {
        (CodeQuality::Generic, s) => (s.cloned().unwrap_or_default(), Annotations::default()),
        (_, Some(s)) => (
            s.clone(),
            timed("infer.jit", &mut times.inference, || {
                infer_jit(&d, s, options.infer, &oracle)
            }),
        ),
        (_, None) => timed("infer.speculative", &mut times.inference, || {
            infer_speculative(&d, options.infer, &oracle)
        }),
    };

    // Codegen = selection + IR passes + register allocation + flattening.
    // Generic code does not oversize (`mcc`).
    let mut cg = if quality == CodeQuality::Optimized {
        CodegenOptions::optimizing()
    } else {
        CodegenOptions::jit()
    };
    cg.regalloc = options.regalloc;
    cg.oversize = options.oversize && quality != CodeQuality::Generic;
    if quality == CodeQuality::Optimized && options.platform == Platform::Sparc {
        // The SPARC native compiler "generates relatively poor code".
        cg.passes = PassOptions {
            licm: false,
            ..PassOptions::all()
        };
    }
    let mut func = timed("codegen.select", &mut times.codegen, || {
        majic_codegen::compile(&d, &ann, &cg)
    })
    .map_err(|e| RuntimeError::Raised(e.to_string()))?;
    timed("ir.passes", &mut times.codegen, || {
        passes::optimize(&mut func, cg.passes);
    });
    let (f_spill, c_spill) = timed("vm.regalloc", &mut times.codegen, || {
        allocate(&mut func, cg.regalloc)
    });
    majic_trace::audit::codegen_summary(|| {
        let (mut slot_movs, mut slot_takes) = (0u64, 0u64);
        for i in func.blocks.iter().flat_map(|b| &b.insts) {
            match i {
                Inst::SlotMov { .. } => slot_movs += 1,
                Inst::SlotTake { .. } => slot_takes += 1,
                _ => {}
            }
        }
        majic_trace::audit::CodegenSummary {
            instructions: func.inst_count() as u64,
            slot_movs,
            slot_takes,
            f_regs: func.f_regs,
            c_regs: func.c_regs,
            slots: func.slots,
            f_spills: f_spill,
            c_spills: c_spill,
        }
    });
    let exe = timed("vm.flatten", &mut times.codegen, || {
        Executable::new(&func, f_spill, c_spill)
    });

    // The optimizing backend is the tier-1 product; everything else
    // (generic and fast-JIT code) sits at tier 0 and is promotion bait.
    let tier = if quality == CodeQuality::Optimized {
        Tier::T1
    } else {
        Tier::T0
    };
    majic_trace::audit::tier(tier.level());
    let mut outputs = ann.outputs.clone();
    if outputs.is_empty() {
        outputs = vec![Type::top(); d.function.outputs.len()];
    }
    Ok(CompiledVersion {
        signature,
        code: Arc::new(exe),
        quality,
        tier,
        output_types: outputs,
        // Set by `compile_and_publish` from its `compile` span.
        compile_time: Duration::ZERO,
    })
}

/// Run `f` under a span named `name` and add the span's duration into
/// `bucket`.
fn timed<T>(name: &'static str, bucket: &mut Duration, f: impl FnOnce() -> T) -> T {
    let sp = majic_trace::Span::enter(name);
    let out = f();
    *bucket += sp.exit();
    out
}

/// The shared tail of a compiled call: keep at most `nargout` outputs
/// (at least one), and fail when fewer than `nargout` came back.
pub(crate) fn take_outputs(
    name: &str,
    outs: RuntimeResult<Vec<Value>>,
    nargout: usize,
) -> RuntimeResult<Vec<Value>> {
    let mut outs = outs?;
    outs.truncate(nargout.max(1));
    if outs.len() < nargout {
        return Err(RuntimeError::BadArity {
            name: name.to_owned(),
            detail: format!("{nargout} outputs requested"),
        });
    }
    Ok(outs)
}

impl Dispatcher for EngineDispatcher<'_> {
    fn call_user(
        &mut self,
        name: &str,
        args: &[Value],
        nargout: usize,
        ctx: &mut CallCtx,
    ) -> RuntimeResult<Vec<Value>> {
        if self.depth > 4000 {
            return Err(RuntimeError::Raised("recursion limit exceeded".to_owned()));
        }
        let mut sig = std::mem::take(&mut self.sig);
        sig.refill(args.iter().map(Value::type_of));
        let version = self.ensure_code(name, &sig);
        self.sig = sig;
        let version = version?;
        self.depth += 1;
        let r = execute(&version.code, args, nargout, self, ctx);
        self.depth -= 1;
        self.note_hot(name, &version);
        take_outputs(name, r, nargout)
    }
}
