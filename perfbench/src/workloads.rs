//! The four workloads: seeded op streams, set-up, the timed loops, and
//! the metrics they report.

use crate::adapter::{self, CompilerService, NsMap, RepoStats, Session, Snapshot, Value};
use crate::replay::{self, CompileReplay, Source};
use crate::stats::{geomean, percentile, us, Spans, SplitMix};
use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Problem-size scale of the compile-dominated workloads.
const SMALL_SCALE: f64 = 0.02;
/// Problem-size scale of the steady-state workloads.
const STEADY_SCALE: f64 = 0.1;
/// Loop-bound programs (`steady_loops`).
const LOOP_PROGRAMS: [&str; 9] = [
    "adapt", "crnich", "dirich", "finedif", "fractal", "icn", "mandel", "orbec", "orbrk",
];
/// Call- and library-bound programs (`steady_calls`).
const CALL_PROGRAMS: [&str; 7] = [
    "ackermann",
    "fibonacci",
    "cgopt",
    "galrkn",
    "mei",
    "qmr",
    "sor",
];
/// Opens per edit in `shared_sessions`: edits are a quarter of each
/// program's ops, so the p50 falls among opens and the p90 among edits.
const OPENS_PER_EDIT: usize = 3;
/// Session threads of `shared_sessions`.
const SHARED_THREADS: usize = 2;
/// Upper bound on steady set-up warming rounds.
const MAX_WARM_ROUNDS: usize = 5_000;
/// Windows per end-to-end run, each a fresh set-up followed by ops for
/// an equal share of the measured time.
const WINDOWS: usize = 15;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A fresh service per op: load one program and make its first call.
    ColdStart,
    /// Warm, tiered calls to loop-bound programs.
    SteadyLoops,
    /// Warm, tiered calls to call- and library-bound programs.
    SteadyCalls,
    /// Two threads opening and editing programs on one service.
    SharedSessions,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdStart,
        Workload::SteadyLoops,
        Workload::SteadyCalls,
        Workload::SharedSessions,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdStart => "cold_start",
            Workload::SteadyLoops => "steady_loops",
            Workload::SteadyCalls => "steady_calls",
            Workload::SharedSessions => "shared_sessions",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the workload runs at once: session threads plus the
    /// background tier worker (kernels are sequential).
    pub fn threads(self) -> usize {
        match self {
            Workload::ColdStart => 1,
            Workload::SteadyLoops | Workload::SteadyCalls => 2,
            Workload::SharedSessions => SHARED_THREADS,
        }
    }

    fn steady(self) -> bool {
        matches!(self, Workload::SteadyLoops | Workload::SteadyCalls)
    }

    /// Rounds per sample block (per thread): about a third of a second of
    /// ops each, and at least ten samples per program where that allows.
    /// A `cold_start` round takes about 0.1 s, and its figures spread
    /// three times as much from run to run with blocks of 10 rounds as
    /// with blocks of 4 (noise episodes last about a second), so its
    /// blocks hold 4 samples per program.
    fn block_rounds(self) -> usize {
        match self {
            Workload::ColdStart => 4,
            Workload::SteadyLoops => 24,
            Workload::SteadyCalls => 128,
            Workload::SharedSessions => 2,
        }
    }

    fn lanes(self) -> usize {
        if self == Workload::SharedSessions {
            SHARED_THREADS
        } else {
            1
        }
    }

    fn program_names(self) -> Vec<&'static str> {
        match self {
            Workload::SteadyLoops => LOOP_PROGRAMS.to_vec(),
            Workload::SteadyCalls => CALL_PROGRAMS.to_vec(),
            _ => majic_bench::all().iter().map(|b| b.name).collect(),
        }
    }
}

/// One run's configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Report per-layer metrics from a traced replay instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Problem-size scale override (tests use the small one everywhere).
    pub scale: Option<f64>,
}

impl Config {
    /// The configuration the command line runs.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            scale: None,
        }
    }

    fn scale(&self) -> f64 {
        self.scale.unwrap_or(if self.workload.steady() {
            STEADY_SCALE
        } else {
            SMALL_SCALE
        })
    }
}

/// A golden program with its fixed arguments and interpreter reference.
struct Program {
    /// Benchmark name.
    pub name: &'static str,
    entry: &'static str,
    source: &'static str,
    /// Functions the source defines.
    functions: Vec<String>,
    args: Vec<Value>,
    /// Seed the `rand` stream is reset to before every call.
    rng_seed: u64,
    reference: Vec<Value>,
    /// Interpreter time of one call, µs (median of the reference calls).
    interp_us: f64,
}

/// The workload's programs, each with its reference output computed
/// once by the interpreter.
fn programs(cfg: &Config) -> Result<Vec<Program>, String> {
    let interp = adapter::interp_service();
    let reps = if cfg.trace { 3 } else { 1 };
    let mut out = Vec::new();
    for (i, name) in cfg.workload.program_names().into_iter().enumerate() {
        let b = majic_bench::by_name(name).ok_or_else(|| format!("unknown program {name}"))?;
        let args = (b.args)(cfg.scale());
        let rng_seed = SplitMix::new(cfg.seed, 1000 + i as u64).next_u64();
        let mut s = adapter::session(&interp);
        adapter::load_source(&mut s, b.source)?;
        let mut reference = None;
        let mut times = Vec::new();
        for _ in 0..reps {
            let t = Instant::now();
            let r = adapter::call(&mut s, b.entry, &args, rng_seed)
                .map_err(|e| format!("{name}: interpreter reference failed: {e}"))?;
            times.push(us(t.elapsed()));
            match &reference {
                None => reference = Some(r),
                Some(first) if same(first, &r) => {}
                Some(_) => return Err(format!("{name}: interpreter reference is not repeatable")),
            }
        }
        let (functions, _) = adapter::parse(b.source)?;
        out.push(Program {
            name,
            entry: b.entry,
            source: b.source,
            functions: functions.into_iter().map(|f| f.name).collect(),
            args,
            rng_seed,
            reference: reference.expect("at least one reference call"),
            interp_us: percentile(&times, 50.0).expect("reference timed"),
        });
    }
    Ok(out)
}

fn same(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| adapter::bits_eq(x, y))
}

/// The kind of one op.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Fresh service, `load_source`, first call, second call.
    Cold,
    /// One warm call.
    Call,
    /// Fresh session on the shared service loads the unmodified program.
    Open,
    /// The lane's long-lived session reloads a no-effect variant.
    Edit,
}

/// One op: a program (index into the workload's list) and what to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Op {
    /// Program index.
    pub program: usize,
    /// What the op does.
    pub kind: Kind,
}

/// A lane's seeded op sequence, produced in rounds: each round is a
/// seeded shuffle of one fixed multiset of ops, so every program gets
/// the same share of ops whatever the seed.
#[derive(Clone, Debug)]
pub struct OpStream {
    rng: SplitMix,
    template: Vec<Op>,
}

impl OpStream {
    /// The stream of `lane` for `seed`.
    pub fn new(workload: Workload, programs: usize, seed: u64, lane: usize) -> OpStream {
        let mut template = Vec::new();
        for program in 0..programs {
            match workload {
                Workload::ColdStart => template.push(Op {
                    program,
                    kind: Kind::Cold,
                }),
                Workload::SteadyLoops | Workload::SteadyCalls => template.push(Op {
                    program,
                    kind: Kind::Call,
                }),
                Workload::SharedSessions => {
                    template.extend((0..OPENS_PER_EDIT).map(|_| Op {
                        program,
                        kind: Kind::Open,
                    }));
                    template.push(Op {
                        program,
                        kind: Kind::Edit,
                    });
                }
            }
        }
        OpStream {
            rng: SplitMix::new(seed, lane as u64),
            template,
        }
    }

    /// The next round of ops.
    pub fn round(&mut self) -> Vec<Op> {
        let mut ops = self.template.clone();
        self.rng.shuffle(&mut ops);
        ops
    }
}

/// `program` with a dead assignment after its header: the same outputs,
/// but a new closure hash, hence a namespace no other session uses.
fn variant(source: &str, lane: usize, v: usize) -> String {
    let (header, body) = source.split_once('\n').expect("a function header line");
    format!("{header}\nedit_l{lane}_v{v} = 0;\n{body}")
}

/// Ops attempted and failed, with the first failures spelled out.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that raised an error or did not match the reference.
    pub failed: u64,
    /// The first few failures, by program and op.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one op whose calls returned `results`.
    fn op(&mut self, p: &Program, what: &str, results: &[&Result<Vec<Value>, String>]) {
        self.attempted += 1;
        let problem = results.iter().find_map(|r| match r {
            Err(e) => Some(format!("error: {e}")),
            Ok(v) if !same(v, &p.reference) => {
                Some("output differs from the interpreter".to_owned())
            }
            Ok(_) => None,
        });
        if let Some(problem) = problem {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(format!(
                    "{} op #{} ({what}): {problem}",
                    p.name, self.attempted
                ));
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 10usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// Latency samples per program (µs) and the ops of one block: a fixed
/// number of consecutive rounds of one lane (both lanes' blocks merged
/// in `shared_sessions`).
#[derive(Clone, Debug)]
struct Block {
    first: Vec<Vec<f64>>,
    call: Vec<Vec<f64>>,
    ops: u64,
    rounds: usize,
    time: Duration,
}

impl Block {
    fn new(programs: usize) -> Block {
        Block {
            first: vec![Vec::new(); programs],
            call: vec![Vec::new(); programs],
            ops: 0,
            rounds: 0,
            time: Duration::ZERO,
        }
    }

    /// Fold in the concurrent block of another lane.
    fn merge(&mut self, other: Block) {
        for (x, y) in self.first.iter_mut().zip(other.first) {
            x.extend(y);
        }
        for (x, y) in self.call.iter_mut().zip(other.call) {
            x.extend(y);
        }
        self.ops += other.ops;
        self.rounds = self.rounds.min(other.rounds);
        self.time = self.time.max(other.time);
    }
}

/// Repository statistics accumulated over a phase.
#[derive(Clone, Copy, Debug, Default)]
struct RepoDelta {
    hits: u64,
    misses: u64,
    shared_hits: u64,
    tier1_hits: u64,
    invalidations: u64,
    live: u64,
    tier1_versions: u64,
    snapshots: u64,
}

impl RepoDelta {
    fn add(&mut self, before: &RepoStats, after: &RepoStats) {
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.shared_hits += after.shared_hits - before.shared_hits;
        self.tier1_hits += after.tier1_hits - before.tier1_hits;
        self.invalidations += after.invalidations - before.invalidations;
        self.live += (after.tier0_versions + after.tier1_versions) as u64;
        self.tier1_versions += after.tier1_versions as u64;
        self.snapshots += 1;
    }

    fn merge(&mut self, o: RepoDelta) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.shared_hits += o.shared_hits;
        self.tier1_hits += o.tier1_hits;
        self.invalidations += o.invalidations;
        self.live += o.live;
        self.tier1_versions += o.tier1_versions;
        self.snapshots += o.snapshots;
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// One lane of a workload: its op stream and, in `shared_sessions`, its
/// long-lived editing session.
struct Lane {
    stream: OpStream,
    /// Rounds per sample block.
    block: usize,
    edit: Option<Session>,
    /// Edits made per program (picks the variant).
    edits: Vec<usize>,
    /// Two no-effect variants per program, private to this lane.
    variants: Vec<[String; 2]>,
}

/// A workload after set-up.
struct State {
    service: Option<CompilerService>,
    /// The steady workloads' warm session.
    session: Option<Session>,
    /// Namespaces the warm calls dispatch from: the steady session's,
    /// or the unmodified programs' in `shared_sessions`.
    ns: NsMap,
    lanes: Vec<Lane>,
}

fn lanes(
    cfg: &Config,
    progs: &[Program],
    window: usize,
    editing: Option<&CompilerService>,
) -> Vec<Lane> {
    (0..cfg.workload.lanes())
        .map(|lane| Lane {
            stream: OpStream::new(
                cfg.workload,
                progs.len(),
                cfg.seed,
                window * SHARED_THREADS + lane,
            ),
            block: cfg.workload.block_rounds(),
            edit: editing.map(adapter::session),
            edits: vec![0; progs.len()],
            variants: if editing.is_some() {
                progs
                    .iter()
                    .map(|p| [variant(p.source, lane, 0), variant(p.source, lane, 1)])
                    .collect()
            } else {
                Vec::new()
            },
        })
        .collect()
}

/// Set the workload up for window `window` (which picks the op
/// streams). Steady set-ups record their first calls into `first`; with
/// `spans`, they are replayed layer by layer.
fn setup(
    cfg: &Config,
    progs: &[Program],
    window: usize,
    tally: &mut Tally,
    first: &mut Block,
    spans: Option<&mut Spans>,
) -> Result<State, String> {
    match cfg.workload {
        Workload::ColdStart => {
            // Warm the process: one cold op per program, unmeasured.
            let mut scratch = Block::new(progs.len());
            let mut repo = RepoDelta::default();
            for (i, p) in progs.iter().enumerate() {
                cold_op(p, i, tally, &mut scratch, &mut repo, None)?;
            }
            Ok(State {
                service: None,
                session: None,
                ns: NsMap::new(),
                lanes: lanes(cfg, progs, window, None),
            })
        }
        Workload::SteadyLoops | Workload::SteadyCalls => {
            steady_setup(cfg, progs, window, tally, first, spans)
        }
        Workload::SharedSessions => {
            // Every unmodified program is compiled once, so opens are
            // served by code another session compiled.
            let service = adapter::jit_service(false);
            for p in progs {
                let mut s = adapter::session(&service);
                let r = adapter::load_source(&mut s, p.source)
                    .and_then(|()| adapter::call(&mut s, p.entry, &p.args, p.rng_seed));
                tally.op(p, "set-up open", &[&r]);
            }
            let ns = Snapshot::take(adapter::repository(&service)).ns_map();
            let lanes = lanes(cfg, progs, window, Some(&service));
            Ok(State {
                service: Some(service),
                session: None,
                ns,
                lanes,
            })
        }
    }
}

/// Steady set-up: one tiered session loads every program and makes its
/// first call, then calls each program whose tier-0 code is still
/// heating towards promotion until none is and the background has
/// drained.
fn steady_setup(
    cfg: &Config,
    progs: &[Program],
    window: usize,
    tally: &mut Tally,
    first: &mut Block,
    spans: Option<&mut Spans>,
) -> Result<State, String> {
    let service = adapter::jit_service(true);
    let mut session = adapter::session(&service);
    let mut first_exec = Vec::with_capacity(progs.len());
    for (i, p) in progs.iter().enumerate() {
        let t0 = Instant::now();
        let loaded = adapter::load_source(&mut session, p.source);
        let t1 = Instant::now();
        let r = loaded.and_then(|()| adapter::call(&mut session, p.entry, &p.args, p.rng_seed));
        let t2 = Instant::now();
        tally.op(p, "set-up first call", &[&r]);
        first.first[i].push(us(t2 - t0));
        first_exec.push((t1 - t0, t2 - t1));
    }
    let owner: HashMap<&str, usize> = progs
        .iter()
        .enumerate()
        .flat_map(|(i, p)| p.functions.iter().map(move |f| (f.as_str(), i)))
        .collect();
    let repo = adapter::repository(&service);
    let mut seen: HashMap<(u64, String, String), u64> = HashMap::new();
    for round in 0.. {
        adapter::wait_background(&service);
        let versions = Snapshot::take(repo).versions();
        let mut heating = BTreeSet::new();
        for v in versions.iter().filter(|v| v.key.tier == 0) {
            let promoted = versions.iter().any(|w| {
                w.key.tier == 1
                    && w.ns == v.ns
                    && w.key.name == v.key.name
                    && w.key.signature == v.key.signature
            });
            let previous = seen.insert(
                (v.ns, v.key.name.clone(), v.key.signature.clone()),
                v.hotness,
            );
            let warming = previous.is_none_or(|h| v.hotness > h);
            if !promoted && warming && v.hotness < adapter::TIER_THRESHOLD {
                if let Some(&i) = owner.get(v.key.name.as_str()) {
                    heating.insert(i);
                }
            }
        }
        if heating.is_empty() {
            break;
        }
        if round >= MAX_WARM_ROUNDS {
            return Err(format!("{}: tiering did not settle", cfg.workload.name()));
        }
        for i in heating {
            let p = &progs[i];
            let r = adapter::call(&mut session, p.entry, &p.args, p.rng_seed);
            tally.op(p, "set-up warming call", &[&r]);
        }
    }
    let snapshot = Snapshot::take(repo);
    let ns = snapshot.ns_map();
    if let Some(spans) = spans {
        replay_steady_setup(progs, &snapshot, &ns, &first_exec, spans)?;
    }
    Ok(State {
        service: Some(service),
        session: Some(session),
        ns,
        lanes: lanes(cfg, progs, window, None),
    })
}

/// Replay a steady set-up: each program's first call through the
/// layers in load order, then every tier-1 recompile.
fn replay_steady_setup(
    progs: &[Program],
    snapshot: &Snapshot,
    ns: &NsMap,
    first_exec: &[(Duration, Duration)],
    spans: &mut Spans,
) -> Result<(), String> {
    let versions = snapshot.versions();
    spans.count("repo.versions_compiled", versions.len() as u64);
    for v in &versions {
        spans.record_us("repo.compile_us", v.compile_us);
    }
    let (tier0, tier1): (Vec<_>, Vec<_>) = versions.into_iter().partition(|v| v.key.tier == 0);
    for (p, &(load, call)) in progs.iter().zip(first_exec) {
        spans.record_time("core.load_source_us", load);
        let compile_us: f64 = tier0
            .iter()
            .filter(|v| p.functions.contains(&v.key.name))
            .map(|v| v.compile_us)
            .sum();
        spans.record_us("core.first_exec_us", (us(call) - compile_us).max(0.0));
    }
    let mut source = Source::default();
    let options = adapter::jit_options(true);
    let mut r = CompileReplay::new(None, ns, &mut source, options, spans);
    for p in progs {
        r.load(p.source)?;
        let out = r
            .call(p.entry, &p.args, p.rng_seed)
            .map_err(|e| format!("replay of {}: {e}", p.name))?;
        if !same(&out, &p.reference) {
            return Err(format!("replay of {} differs from the reference", p.name));
        }
    }
    replay::check_same(
        "the steady set-up's tier-0 versions",
        r.take_compiled(),
        &tier0,
    )?;
    for v in &tier1 {
        r.tier1(v)
            .map_err(|e| format!("tier-1 replay of {}: {e}", v.key.name))?;
    }
    replay::check_same(
        "the steady set-up's tier-1 versions",
        r.take_compiled(),
        &tier1,
    )
}

/// Replay one compiling call and check it reproduced the engine's
/// versions.
fn trace_compile(
    spans: &mut Spans,
    p: &Program,
    src: &str,
    before: Option<&Snapshot>,
    ns: &NsMap,
    added: &[adapter::VersionInfo],
    first_call: Duration,
) -> Result<(), String> {
    replay::record_compiles(spans, added, first_call);
    let mut source = Source::default();
    let options = adapter::jit_options(false);
    let mut r = CompileReplay::new(before, ns, &mut source, options, spans);
    r.load(src)?;
    let out = r
        .call(p.entry, &p.args, p.rng_seed)
        .map_err(|e| format!("replay of {}: {e}", p.name))?;
    if !same(&out, &p.reference) {
        return Err(format!("replay of {} differs from the reference", p.name));
    }
    replay::check_same(p.name, r.take_compiled(), added)
}

/// Replay one warm call twice: bare, to compare its total with the
/// engine's `Session::call`, then with the per-call split timed.
fn trace_call(
    spans: &mut Spans,
    repo: &adapter::Repository,
    ns: &NsMap,
    p: &Program,
    real: Duration,
) -> Result<(), String> {
    for split in [false, true] {
        let (out, st) = replay::replay_call(repo, ns, p.entry, &p.args, p.rng_seed, split)
            .map_err(|e| format!("call replay of {}: {e}", p.name))?;
        if !same(&out, &p.reference) {
            return Err(format!(
                "call replay of {} differs from the reference",
                p.name
            ));
        }
        if split {
            st.record(spans);
        } else {
            spans.record_us("core.call_overhead_us", us(real) - us(st.total));
        }
    }
    Ok(())
}

/// `cold_start`'s op: a fresh service, `load_source`, the first call,
/// then one warm call.
fn cold_op(
    p: &Program,
    i: usize,
    tally: &mut Tally,
    samples: &mut Block,
    repo_delta: &mut RepoDelta,
    spans: Option<&mut Spans>,
) -> Result<(), String> {
    let service = adapter::jit_service(false);
    let mut s = adapter::session(&service);
    let t0 = Instant::now();
    let loaded = adapter::load_source(&mut s, p.source);
    let t1 = Instant::now();
    let first = loaded.and_then(|()| adapter::call(&mut s, p.entry, &p.args, p.rng_seed));
    let t2 = Instant::now();
    let second = adapter::call(&mut s, p.entry, &p.args, p.rng_seed);
    let t3 = Instant::now();
    samples.first[i].push(us(t2 - t0));
    samples.call[i].push(us(t3 - t2));
    tally.op(p, "cold", &[&first, &second]);
    let repo = adapter::repository(&service);
    repo_delta.add(&RepoStats::default(), &adapter::stats(repo));
    if let Some(spans) = spans {
        spans.record_time("core.load_source_us", t1 - t0);
        let after = Snapshot::take(repo);
        let ns = after.ns_map();
        trace_compile(spans, p, p.source, None, &ns, &after.versions(), t2 - t1)?;
        trace_call(spans, repo, &ns, p, t3 - t2)?;
    }
    Ok(())
}

/// A steady op: one warm call on the set-up session.
fn steady_op(
    session: &mut Session,
    ns: &NsMap,
    p: &Program,
    i: usize,
    tally: &mut Tally,
    samples: &mut Block,
    spans: Option<&mut Spans>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let r = adapter::call(session, p.entry, &p.args, p.rng_seed);
    let t1 = Instant::now();
    samples.call[i].push(us(t1 - t0));
    tally.op(p, "warm call", &[&r]);
    if let Some(spans) = spans {
        let repo = adapter::session_repository(session);
        trace_call(spans, repo, ns, p, t1 - t0)?;
    }
    Ok(())
}

/// A `shared_sessions` op: an open (fresh session, unmodified program)
/// or an edit (the lane's session reloads a private variant), each
/// followed by one warm call. Traced ops run one at a time under `lock`
/// so the repository diff belongs to this op alone.
#[allow(clippy::too_many_arguments)]
fn shared_op(
    service: &CompilerService,
    originals: &NsMap,
    lane: &mut Lane,
    op: Op,
    p: &Program,
    tally: &mut Tally,
    samples: &mut Block,
    trace: Option<(&mut Spans, &Mutex<()>)>,
) -> Result<(), String> {
    let repo = adapter::repository(service);
    let mut traced = trace.map(|(spans, lock)| {
        let guard = lock.lock().unwrap_or_else(|e| e.into_inner());
        (spans, guard, Snapshot::take(repo))
    });
    let mut fresh;
    let (s, src): (&mut Session, &str) = match op.kind {
        Kind::Edit => {
            let v = lane.edits[op.program] % 2;
            lane.edits[op.program] += 1;
            let s = lane
                .edit
                .as_mut()
                .expect("shared lanes have an editing session");
            (s, &lane.variants[op.program][v])
        }
        _ => {
            fresh = adapter::session(service);
            (&mut fresh, p.source)
        }
    };
    let t0 = Instant::now();
    let loaded = adapter::load_source(s, src);
    let t1 = Instant::now();
    let first = loaded.and_then(|()| adapter::call(s, p.entry, &p.args, p.rng_seed));
    let t2 = Instant::now();
    let second = adapter::call(s, p.entry, &p.args, p.rng_seed);
    let t3 = Instant::now();
    samples.first[op.program].push(us(t2 - t0));
    samples.call[op.program].push(us(t3 - t2));
    tally.op(
        p,
        if op.kind == Kind::Edit {
            "edit"
        } else {
            "open"
        },
        &[&first, &second],
    );
    if let Some((spans, guard, before)) = traced.take() {
        let after = Snapshot::take(repo);
        drop(guard);
        spans.record_time("core.load_source_us", t1 - t0);
        let added = after.added_since(&before);
        let mut ns = originals.clone();
        for v in &added {
            ns.insert(v.key.name.clone(), v.ns);
        }
        if !added.is_empty() {
            trace_compile(spans, p, src, Some(&before), &ns, &added, t2 - t1)?;
        }
        trace_call(spans, repo, &ns, p, t3 - t2)?;
    }
    Ok(())
}

/// When a phase ends.
#[derive(Clone, Copy, Debug)]
enum Stop {
    /// At the end of the first full block by which this much time has
    /// passed (so every block holds the same number of rounds).
    After(Duration),
    /// After this many rounds.
    Rounds(usize),
}

/// What one phase produced.
struct PhaseOut {
    ops: u64,
    elapsed: Duration,
    blocks: Vec<Block>,
    tally: Tally,
    repo: RepoDelta,
    spans: Spans,
}

/// Run one lane's rounds until `stop`.
#[allow(clippy::too_many_arguments)]
fn run_lane(
    progs: &[Program],
    service: Option<&CompilerService>,
    mut session: Option<&mut Session>,
    ns: &NsMap,
    lane: &mut Lane,
    stop: Stop,
    start: Instant,
    trace: Option<&Mutex<()>>,
) -> Result<PhaseOut, String> {
    let mut out = PhaseOut {
        ops: 0,
        elapsed: Duration::ZERO,
        blocks: Vec::new(),
        tally: Tally::default(),
        repo: RepoDelta::default(),
        spans: Spans::default(),
    };
    let mut rounds = 0;
    let mut block = Block::new(progs.len());
    let mut block_start = Instant::now();
    loop {
        for op in lane.stream.round() {
            let p = &progs[op.program];
            let spans = trace.is_some().then_some(&mut out.spans);
            match op.kind {
                Kind::Cold => cold_op(
                    p,
                    op.program,
                    &mut out.tally,
                    &mut block,
                    &mut out.repo,
                    spans,
                )?,
                Kind::Call => steady_op(
                    session
                        .as_deref_mut()
                        .expect("steady workloads have a session"),
                    ns,
                    p,
                    op.program,
                    &mut out.tally,
                    &mut block,
                    spans,
                )?,
                Kind::Open | Kind::Edit => shared_op(
                    service.expect("shared workloads have a service"),
                    ns,
                    lane,
                    op,
                    p,
                    &mut out.tally,
                    &mut block,
                    spans.zip(trace),
                )?,
            }
            block.ops += 1;
            out.ops += 1;
        }
        rounds += 1;
        block.rounds += 1;
        let full = block.rounds == lane.block;
        let done = match stop {
            Stop::After(d) => full && start.elapsed() >= d,
            Stop::Rounds(n) => rounds >= n,
        };
        if done || full {
            block.time = block_start.elapsed();
            out.blocks
                .push(std::mem::replace(&mut block, Block::new(progs.len())));
            block_start = Instant::now();
        }
        if done {
            out.elapsed = start.elapsed();
            return Ok(out);
        }
    }
}

/// Run the workload's lanes (two threads in `shared_sessions`) until
/// `stop`.
fn phase(
    progs: &[Program],
    state: &mut State,
    stop: Stop,
    traced: bool,
) -> Result<PhaseOut, String> {
    let State {
        service,
        session,
        ns,
        lanes,
    } = state;
    let service = service.as_ref();
    let before = service.map(|s| adapter::stats(adapter::repository(s)));
    let lock = Mutex::new(());
    let trace = traced.then_some(&lock);
    let start = Instant::now();
    let (head, tail) = lanes.split_at_mut(1);
    let mut out = if let Some(other) = tail.first_mut() {
        let ns = &*ns;
        let (a, b) = std::thread::scope(|scope| {
            let helper =
                scope.spawn(move || run_lane(progs, service, None, ns, other, stop, start, trace));
            let a = run_lane(progs, service, None, ns, &mut head[0], stop, start, trace);
            (a, helper.join().expect("lane thread panicked"))
        });
        let mut a = a?;
        let b = b?;
        a.ops += b.ops;
        // A block is both threads' concurrent blocks; a block only one
        // thread got to is dropped.
        a.blocks.truncate(b.blocks.len());
        for (block, o) in a.blocks.iter_mut().zip(b.blocks) {
            block.merge(o);
        }
        a.tally.merge(b.tally);
        a.repo.merge(b.repo);
        a.spans.merge(&b.spans);
        a.elapsed = start.elapsed();
        a
    } else {
        run_lane(
            progs,
            service,
            session.as_mut(),
            ns,
            &mut head[0],
            stop,
            start,
            trace,
        )?
    };
    if let (Some(s), Some(before)) = (service, before) {
        out.repo
            .add(&before, &adapter::stats(adapter::repository(s)));
    }
    Ok(out)
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Ops attempted and failed.
    pub tally: Tally,
    /// Human-readable facts about the run (sample counts).
    pub notes: Vec<String>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

/// Best of blocks: each program's `q`-th percentile in every block, the
/// lowest block per program, then the geometric mean over programs.
/// Machine noise on a shared host comes in episodes of milliseconds to
/// seconds that slow whole blocks, often most of a run's blocks; the
/// best block is one an episode spared, which is what makes the figure
/// repeat (paper §3.2 reports best of ten runs for the same reason).
fn latency(blocks: &[Block], first: bool, q: f64) -> Result<f64, String> {
    let programs = blocks.first().map_or(0, |b| b.first.len());
    let per_program: Vec<f64> = (0..programs)
        .filter_map(|p| {
            blocks
                .iter()
                .filter_map(|b| percentile(if first { &b.first[p] } else { &b.call[p] }, q))
                .min_by(f64::total_cmp)
        })
        .collect();
    geomean(&per_program).ok_or_else(|| "no latency samples".to_owned())
}

/// Ops per second of the best full block.
fn best_rate(blocks: &[Block]) -> f64 {
    let full = blocks.iter().map(|b| b.rounds).max().unwrap_or(0);
    blocks
        .iter()
        .filter(|b| b.rounds == full && !b.time.is_zero())
        .map(|b| b.ops as f64 / b.time.as_secs_f64())
        .fold(0.0, f64::max)
}

/// Peak resident memory of this process (`VmHWM`), MiB. Unlike
/// `getrusage`, this is not inherited from the parent across `exec`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Run one workload as configured.
///
/// # Errors
///
/// Refuses a workload that needs more threads than the machine has, and
/// aborts when a replay self-check fails or a reference cannot be
/// computed.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cfg.workload.threads() > cores {
        return Err(format!(
            "{} runs {} threads but only {cores} are available",
            cfg.workload.name(),
            cfg.workload.threads()
        ));
    }
    let progs = programs(cfg)?;
    if cfg.trace {
        traced(cfg, &progs)
    } else {
        untraced(cfg, &progs)
    }
}

/// The end-to-end run: `WINDOWS` windows, each a fresh set-up followed
/// by whole blocks of ops until its share of `cfg.seconds` has passed,
/// counted over all windows' ops so far.
fn untraced(cfg: &Config, progs: &[Program]) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut measured = Duration::ZERO;
    let mut blocks = Vec::new();
    let mut setup_s = Vec::new();
    for w in 0..WINDOWS {
        let mut first = Block::new(progs.len());
        let t = Instant::now();
        let mut state = setup(cfg, progs, w, &mut tally, &mut first, None)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let share = Duration::from_secs_f64(cfg.seconds * (w + 1) as f64 / WINDOWS as f64);
        let out = phase(
            progs,
            &mut state,
            Stop::After(share.saturating_sub(measured)),
            false,
        )?;
        drop(state);
        measured += out.elapsed;
        tally.merge(out.tally);
        if cfg.workload.steady() {
            // The steady workloads' first calls happen in set-up.
            blocks.push(first);
        }
        blocks.extend(out.blocks);
    }
    let values = [
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        latency(&blocks, true, 50.0)?,
        latency(&blocks, true, 90.0)?,
        latency(&blocks, false, 50.0)?,
        latency(&blocks, false, 90.0)?,
        best_rate(&blocks),
        peak_rss_mb(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    let counts = |first: bool| {
        let per_program: Vec<usize> = (0..progs.len())
            .map(|p| {
                blocks
                    .iter()
                    .map(|b| {
                        if first {
                            b.first[p].len()
                        } else {
                            b.call[p].len()
                        }
                    })
                    .sum()
            })
            .collect();
        let lo = per_program.iter().min().copied().unwrap_or(0);
        let hi = per_program.iter().max().copied().unwrap_or(0);
        format!("{lo}-{hi}")
    };
    let notes = vec![format!(
        "{} windows, {} blocks of {} rounds; samples per program: {} first calls, {} warm calls",
        WINDOWS,
        blocks.len(),
        cfg.workload.block_rounds(),
        counts(true),
        counts(false)
    )];
    Ok(Report {
        tally,
        notes,
        metrics,
    })
}

/// One deterministic traced pass: a fresh set-up and one round of ops
/// per lane, every op replayed.
fn count_pass(cfg: &Config, progs: &[Program], tally: &mut Tally) -> Result<Spans, String> {
    let mut spans = Spans::default();
    let mut scratch = Block::new(progs.len());
    let mut state = setup(cfg, progs, 0, tally, &mut scratch, Some(&mut spans))?;
    let out = phase(progs, &mut state, Stop::Rounds(1), true)?;
    tally.merge(out.tally);
    spans.merge(&out.spans);
    Ok(spans)
}

/// The end-to-end metrics and their units, in report order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("first_call_us_p50", "us"),
    ("first_call_us_p90", "us"),
    ("call_us_p50", "us"),
    ("call_us_p90", "us"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics and their units, in report order.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("core.load_source_us", "us"),
    ("ast.parse_us", "us"),
    ("ast.nodes", "count"),
    ("analysis.inline_us", "us"),
    ("analysis.disambig_us", "us"),
    ("infer.jit_us", "us"),
    ("codegen.select_us", "us"),
    ("codegen.insts", "count"),
    ("ir.passes_us", "us"),
    ("ir.insts_removed", "count"),
    ("vm.regalloc_us", "us"),
    ("vm.spills", "count"),
    ("vm.flatten_us", "us"),
    ("vm.steps", "count"),
    ("repo.versions_compiled", "count"),
    ("repo.compile_us", "us"),
    ("repo.miss_ratio", "ratio"),
    ("core.first_exec_us", "us"),
    ("repo.lookups", "count"),
    ("repo.lookup_us", "us"),
    ("vm.user_calls", "count"),
    ("vm.exec_self_us", "us"),
    ("vm.backedges", "count"),
    ("core.call_overhead_us", "us"),
    ("repo.tier1_hit_ratio", "ratio"),
    ("repo.tier1_versions", "count"),
    ("repo.shared_hit_ratio", "ratio"),
    ("repo.invalidations", "count/op"),
    ("repo.versions_live", "count"),
    ("interp.call_us", "us"),
    ("bench.speedup_vs_interp", "x"),
    ("bench.trace_overhead", "x"),
];

/// The traced run: two deterministic count passes that must agree
/// exactly, then the measured phase split into an untraced half (repo
/// ratios, throughput) and a traced half (layer times).
fn traced(cfg: &Config, progs: &[Program]) -> Result<Report, String> {
    let mut tally = Tally::default();
    let first = count_pass(cfg, progs, &mut tally)?;
    let second = count_pass(cfg, progs, &mut tally)?;
    if first.counts != second.counts {
        return Err(format!(
            "replay self-check failed: layer counts differ between two traced passes of seed {}: {:?} vs {:?}",
            cfg.seed, first.counts, second.counts
        ));
    }
    let mut spans = first;
    spans.merge_times(&second);

    let mut scratch = Block::new(progs.len());
    let mut state = setup(cfg, progs, 0, &mut tally, &mut scratch, None)?;
    let half = Duration::from_secs_f64(cfg.seconds / 2.0);
    let plain = phase(progs, &mut state, Stop::After(half), false)?;
    let traced = phase(progs, &mut state, Stop::After(half), true)?;
    drop(state);
    spans.merge_times(&traced.spans);
    let rate = |o: &PhaseOut| o.ops as f64 / o.elapsed.as_secs_f64();
    let trace_overhead = rate(&plain) / rate(&traced);
    let (plain_ops, traced_ops) = (plain.ops, traced.ops);
    tally.merge(plain.tally);
    tally.merge(traced.tally);

    let first = !cfg.workload.steady();
    let speedups: Vec<f64> = progs
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            let samples: Vec<f64> = plain
                .blocks
                .iter()
                .flat_map(|b| if first { &b.first[i] } else { &b.call[i] })
                .copied()
                .collect();
            percentile(&samples, 50.0).map(|t| p.interp_us / t)
        })
        .collect();
    let interp: Vec<f64> = progs.iter().map(|p| p.interp_us).collect();
    let r = plain.repo;
    let snapshots = r.snapshots.max(1) as f64;
    let derived: HashMap<&str, f64> = [
        ("repo.miss_ratio", ratio(r.misses, r.hits + r.misses)),
        ("repo.tier1_hit_ratio", ratio(r.tier1_hits, r.hits)),
        ("repo.tier1_versions", r.tier1_versions as f64 / snapshots),
        ("repo.shared_hit_ratio", ratio(r.shared_hits, r.hits)),
        ("repo.invalidations", ratio(r.invalidations, plain.ops)),
        ("repo.versions_live", r.live as f64 / snapshots),
        ("interp.call_us", geomean(&interp).unwrap_or(0.0)),
        ("bench.speedup_vs_interp", geomean(&speedups).unwrap_or(0.0)),
        ("bench.trace_overhead", trace_overhead),
    ]
    .into_iter()
    .collect();
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = derived
                .get(name)
                .copied()
                .or_else(|| spans.counts.get(name).map(|m| m.value()))
                .or_else(|| spans.times.get(name).map(|m| m.value()))
                .unwrap_or(0.0);
            Metric { name, value, unit }
        })
        .collect();
    let notes = vec![format!(
        "layer counts repeated exactly across two traced passes; {} untraced and {} traced ops",
        plain_ops, traced_ops
    )];
    Ok(Report {
        tally,
        notes,
        metrics,
    })
}
