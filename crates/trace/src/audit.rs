//! The compilation audit log: a bounded, always-on flight recorder that
//! explains *why* each compiled version of a function looks the way it
//! does.
//!
//! Spans and counters (the rest of this crate) answer "where did the
//! time go". This module answers the other observability question the
//! engine's silent mode-picking raises: *which decision went wrong* when
//! a workload is slow — a type widened to `⊤` at a loop header, an
//! inlining opportunity rejected, a persistent-cache entry bounced into
//! one of the `reject.*` buckets, a speculative version published after
//! the first call already paid for a JIT compile.
//!
//! One [`CompilationRecord`] is accumulated per compilation attempt (so
//! per (function, signature) lifecycle event): the trigger, every
//! inference widening with its reason, every inliner verdict with its
//! reason, a code-generation summary (`SlotTake`/`SlotMov` counts,
//! register pressure, spills), the outcome, and — for background jobs —
//! the speculation queue wait. Cache interactions, interpreter
//! fallbacks, and VM runtime errors that are not tied to one
//! compilation are recorded as [`SessionEvent`]s.
//!
//! # Recording model
//!
//! The engine opens a scope with [`begin`] on the thread that is about
//! to compile; instrumentation points deep in `infer`, `analysis`,
//! `codegen` etc. append to the thread-local scratch record through
//! [`widening`], [`inline_verdict`], [`codegen_summary`], and
//! [`lifecycle`]; the engine closes the scope with [`commit`], which
//! publishes the finished record into a global bounded ring. Records
//! from background speculation workers are attributed correctly because
//! the scratch is thread-local.
//!
//! # Overhead budget
//!
//! The same discipline as spans: disabled ([`enabled`] false), every
//! entry point is one relaxed atomic load and an immediate return — no
//! allocation, no locks, and no evaluation of the caller's closure
//! (asserted by the `zero_alloc` integration test). Enabled, the ring
//! bounds ([`MAX_RECORDS`], [`MAX_SESSION_EVENTS`], and the per-record
//! caps) keep an always-on session from growing without bound: the
//! newest data wins and evictions are counted, never silent.
//!
//! The record schema and its JSON rendering are documented in
//! `docs/EXPLAIN_FORMAT.md`.

use crate::export::fmt_ns;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide master switch for audit recording (independent of span
/// tracing, so a production session can keep the flight recorder on
/// without paying for event collection).
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Number of compiler services that currently request auditing.
/// Recording is on while *either* the process-wide switch or at least
/// one service holds it open — so two services in one process never
/// fight over a single boolean (see [`retain_service`]).
static ENABLED_SERVICES: AtomicUsize = AtomicUsize::new(0);
/// Finished compilation records, oldest first.
static RECORDS: Mutex<VecDeque<CompilationRecord>> = Mutex::new(VecDeque::new());
/// Session events, oldest first.
static EVENTS: Mutex<VecDeque<SessionEvent>> = Mutex::new(VecDeque::new());
/// Records evicted from the ring (flight-recorder semantics: newest
/// kept).
static EVICTED_RECORDS: AtomicU64 = AtomicU64::new(0);
/// Session events evicted from the ring.
static EVICTED_EVENTS: AtomicU64 = AtomicU64::new(0);
/// Global commit order across threads.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Ring capacity for finished [`CompilationRecord`]s.
pub const MAX_RECORDS: usize = 4096;
/// Ring capacity for [`SessionEvent`]s.
pub const MAX_SESSION_EVENTS: usize = 4096;
/// Per-record cap on widening notes, inline verdicts, and lifecycle
/// notes (each list individually). Overflow is counted in
/// [`CompilationRecord::truncated`].
pub const MAX_NOTES_PER_RECORD: usize = 128;

/// Is audit recording on? True while the process-wide switch is set
/// *or* any service holds a [`retain_service`] reference. The fast path
/// stays one relaxed atomic load: the refcount is only consulted when
/// the process-wide switch is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) || ENABLED_SERVICES.load(Ordering::Relaxed) > 0
}

/// Turn the process-wide audit switch on or off. Service-held
/// references ([`retain_service`]) are unaffected — recording stays on
/// while any service still wants it.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is the *process-wide* switch on (ignoring service references)?
/// Engines use this to decide whether a record they are about to open
/// was requested by anyone: their own service flag or this switch.
#[inline]
pub fn process_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A compiler service turned its audit flag on: hold recording open.
/// Paired with [`release_service`]; the count keeps independent
/// services from fighting over one process-global boolean.
pub fn retain_service() {
    ENABLED_SERVICES.fetch_add(1, Ordering::Relaxed);
}

/// A compiler service turned its audit flag off (or was dropped while
/// auditing): release one [`retain_service`] reference.
pub fn release_service() {
    // Saturating: a stray release (service flag toggled twice) must not
    // wrap the count and pin recording on forever.
    let _ =
        ENABLED_SERVICES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
}

/// One inference widening: a variable's type gave up precision, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Widening {
    /// Variable name (empty for temporaries the table cannot name).
    pub variable: String,
    /// Rendered type before widening.
    pub from: String,
    /// Rendered type after widening.
    pub to: String,
    /// Why precision was lost, e.g. `join at loop header: range still
    /// moving at iteration cap`.
    pub reason: String,
}

/// One inliner decision about one call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InlineVerdict {
    /// The callee the verdict is about.
    pub callee: String,
    /// Was the call spliced in?
    pub inlined: bool,
    /// The reason, for both outcomes (`inlined (5 statements)`,
    /// `not inlined: recursion depth limit reached`, …).
    pub reason: String,
}

/// Code-generation summary of the finished executable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodegenSummary {
    /// Instructions across all basic blocks after optimization.
    pub instructions: u64,
    /// `SlotMov` count (value copies between frame slots).
    pub slot_movs: u64,
    /// `SlotTake` count (dead-temp moves that elide a copy).
    pub slot_takes: u64,
    /// `F` (real scalar) registers in use — register pressure.
    pub f_regs: u32,
    /// `C` (complex scalar) registers in use.
    pub c_regs: u32,
    /// Whole-value frame slots.
    pub slots: u32,
    /// `F` spill slots introduced by register allocation.
    pub f_spills: u32,
    /// `C` spill slots introduced by register allocation.
    pub c_spills: u32,
}

/// A free-form lifecycle note inside one compilation (phase milestones,
/// pipeline selection, oddities worth surfacing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LifecycleNote {
    /// Short machine-matchable kind, e.g. `pipeline`.
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

/// One finished compilation attempt of one (function, signature) pair.
#[derive(Clone, Debug, Default)]
pub struct CompilationRecord {
    /// Function name.
    pub function: String,
    /// Rendered type signature the version was produced for.
    pub signature: String,
    /// What started this compilation: `first_call`, `recompile_widened`,
    /// `recompile_hot`, `spec_worker`, `spec_sync`, or `warm_cache`.
    pub trigger: String,
    /// Repository tier the produced version was installed at (0 = fast
    /// JIT, 1 = optimizing backend). Absent when the compilation never
    /// produced an installable version.
    pub tier: Option<u8>,
    /// How it ended: `published (…)`, `dropped: …` (a background
    /// version whose source was redefined in flight), or `failed: …`.
    pub outcome: String,
    /// Inference widenings, in the order they happened.
    pub widenings: Vec<Widening>,
    /// Inliner verdicts, in call-site order.
    pub inlining: Vec<InlineVerdict>,
    /// Code-generation summary (absent when codegen never ran).
    pub codegen: Option<CodegenSummary>,
    /// Free-form lifecycle notes.
    pub notes: Vec<LifecycleNote>,
    /// Notes dropped at [`MAX_NOTES_PER_RECORD`] across all three lists.
    pub truncated: u64,
    /// Session the compilation was performed for (multi-session
    /// services attribute foreground compiles and background jobs to
    /// the session that requested them; absent for single-tenant use).
    pub session: Option<u64>,
    /// Background queue wait in nanoseconds (speculation jobs only).
    pub queue_wait_ns: Option<u64>,
    /// Wall-clock compilation time in nanoseconds.
    pub compile_ns: u64,
    /// Global commit order (monotonic across threads).
    pub seq: u64,
    /// Commit time, nanoseconds since [`crate::epoch`].
    pub ts_ns: u64,
}

/// A session-level audit event not tied to a single compilation: cache
/// accepts/rejects, repository invalidations, interpreter fallbacks, VM
/// runtime errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionEvent {
    /// Machine-matchable kind, e.g. `cache.reject.version`,
    /// `fallback.interpreter`, `repo.invalidate`, `vm.error`.
    pub kind: &'static str,
    /// Function the event concerns (empty for whole-file / session-wide
    /// events such as a cache version rejection).
    pub function: String,
    /// Human-readable detail, including the reason.
    pub detail: String,
    /// Global order (shared sequence with compilation records).
    pub seq: u64,
    /// Event time, nanoseconds since [`crate::epoch`].
    pub ts_ns: u64,
}

thread_local! {
    /// The compilation record under construction on this thread.
    static CURRENT: RefCell<Option<CompilationRecord>> = const { RefCell::new(None) };
}

/// Open an audit scope for a compilation of `function` on this thread.
/// No-op when auditing is disabled. An unfinished scope from a previous
/// panic-unwound compile is silently replaced.
pub fn begin(function: &str) {
    if !enabled() {
        return;
    }
    let rec = CompilationRecord {
        function: function.to_owned(),
        ..CompilationRecord::default()
    };
    CURRENT.with(|c| *c.borrow_mut() = Some(rec));
}

fn with_current(f: impl FnOnce(&mut CompilationRecord)) {
    CURRENT.with(|c| {
        if let Some(rec) = c.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// Record an inference widening into the open scope. The closure is
/// only evaluated when auditing is enabled and a scope is open.
#[inline]
pub fn widening(f: impl FnOnce() -> Widening) {
    if !enabled() {
        return;
    }
    with_current(|rec| {
        if rec.widenings.len() < MAX_NOTES_PER_RECORD {
            rec.widenings.push(f());
        } else {
            rec.truncated += 1;
        }
    });
}

/// Record an inliner verdict into the open scope.
#[inline]
pub fn inline_verdict(f: impl FnOnce() -> InlineVerdict) {
    if !enabled() {
        return;
    }
    with_current(|rec| {
        if rec.inlining.len() < MAX_NOTES_PER_RECORD {
            rec.inlining.push(f());
        } else {
            rec.truncated += 1;
        }
    });
}

/// Record the repository tier of the version this compilation produced
/// (0 or 1; last write wins).
#[inline]
pub fn tier(t: u8) {
    if !enabled() {
        return;
    }
    with_current(|rec| rec.tier = Some(t));
}

/// Record the session id this compilation is attributed to (last write
/// wins).
#[inline]
pub fn session_id(id: u64) {
    if !enabled() {
        return;
    }
    with_current(|rec| rec.session = Some(id));
}

/// Record the code-generation summary into the open scope (last write
/// wins — a compilation runs codegen once).
#[inline]
pub fn codegen_summary(f: impl FnOnce() -> CodegenSummary) {
    if !enabled() {
        return;
    }
    with_current(|rec| rec.codegen = Some(f()));
}

/// Record a free-form lifecycle note into the open scope.
#[inline]
pub fn lifecycle(kind: &'static str, f: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    with_current(|rec| {
        if rec.notes.len() < MAX_NOTES_PER_RECORD {
            rec.notes.push(LifecycleNote { kind, detail: f() });
        } else {
            rec.truncated += 1;
        }
    });
}

/// Close the open scope and publish the record. The closures are only
/// evaluated when auditing is enabled and a scope is open; with no open
/// scope this is a no-op (the matching [`begin`] was skipped because
/// auditing was off at the time).
pub fn commit(
    signature: impl FnOnce() -> String,
    trigger: &str,
    outcome: impl FnOnce() -> String,
    queue_wait_ns: Option<u64>,
    compile_ns: u64,
) {
    if !enabled() {
        return;
    }
    let Some(mut rec) = CURRENT.with(|c| c.borrow_mut().take()) else {
        return;
    };
    rec.signature = signature();
    rec.trigger = trigger.to_owned();
    rec.outcome = outcome();
    rec.queue_wait_ns = queue_wait_ns;
    rec.compile_ns = compile_ns;
    rec.seq = SEQ.fetch_add(1, Ordering::Relaxed);
    rec.ts_ns = crate::epoch().elapsed().as_nanos() as u64;
    let mut records = RECORDS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    while records.len() >= MAX_RECORDS {
        records.pop_front();
        EVICTED_RECORDS.fetch_add(1, Ordering::Relaxed);
    }
    records.push_back(rec);
}

/// Record a session-level event. The closure returns `(function,
/// detail)` and is only evaluated when auditing is enabled.
#[inline]
pub fn session_event(kind: &'static str, f: impl FnOnce() -> (String, String)) {
    if !enabled() {
        return;
    }
    let (function, detail) = f();
    let ev = SessionEvent {
        kind,
        function,
        detail,
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        ts_ns: crate::epoch().elapsed().as_nanos() as u64,
    };
    let mut events = EVENTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    while events.len() >= MAX_SESSION_EVENTS {
        events.pop_front();
        EVICTED_EVENTS.fetch_add(1, Ordering::Relaxed);
    }
    events.push_back(ev);
}

/// Everything the audit recorder holds, cloned at one point in time.
#[derive(Clone, Debug, Default)]
pub struct AuditSnapshot {
    /// Finished compilation records, oldest first.
    pub records: Vec<CompilationRecord>,
    /// Session events, oldest first.
    pub events: Vec<SessionEvent>,
    /// Records evicted at the [`MAX_RECORDS`] ring bound.
    pub evicted_records: u64,
    /// Events evicted at the [`MAX_SESSION_EVENTS`] ring bound.
    pub evicted_events: u64,
}

/// Snapshot the audit recorder without clearing anything.
pub fn snapshot() -> AuditSnapshot {
    AuditSnapshot {
        records: RECORDS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .cloned()
            .collect(),
        events: EVENTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .cloned()
            .collect(),
        evicted_records: EVICTED_RECORDS.load(Ordering::Relaxed),
        evicted_events: EVICTED_EVENTS.load(Ordering::Relaxed),
    }
}

/// All retained records for one function, oldest first.
pub fn records_for(function: &str) -> Vec<CompilationRecord> {
    RECORDS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .filter(|r| r.function == function)
        .cloned()
        .collect()
}

/// All retained session events concerning `function`, plus session-wide
/// events (empty `function` field — e.g. whole-file cache rejections),
/// oldest first.
pub fn events_for(function: &str) -> Vec<SessionEvent> {
    EVENTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .filter(|e| e.function == function || e.function.is_empty())
        .cloned()
        .collect()
}

/// Clear all records and events and zero the eviction counters. Open
/// scopes on other threads still commit afterwards; call at quiescent
/// points.
pub fn reset() {
    RECORDS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
    EVENTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
    EVICTED_RECORDS.store(0, Ordering::Relaxed);
    EVICTED_EVENTS.store(0, Ordering::Relaxed);
}

fn render_record(out: &mut String, r: &CompilationRecord) {
    let _ = writeln!(
        out,
        "  [{}] {}({}) — {} → {}{}{} in {}{}",
        r.seq,
        r.function,
        r.signature,
        r.trigger,
        r.outcome,
        match r.tier {
            Some(t) => format!(" [tier-{t}]"),
            None => String::new(),
        },
        match r.session {
            Some(s) => format!(" [session {s}]"),
            None => String::new(),
        },
        fmt_ns(r.compile_ns),
        match r.queue_wait_ns {
            Some(w) => format!(" (queued {})", fmt_ns(w)),
            None => String::new(),
        },
    );
    for n in &r.notes {
        let _ = writeln!(out, "    note  {}: {}", n.kind, n.detail);
    }
    for w in &r.widenings {
        let _ = writeln!(
            out,
            "    widen {}: {} → {}  ({})",
            if w.variable.is_empty() {
                "<tmp>"
            } else {
                &w.variable
            },
            w.from,
            w.to,
            w.reason
        );
    }
    for v in &r.inlining {
        let _ = writeln!(
            out,
            "    inline {} {}: {}",
            if v.inlined { "✓" } else { "✗" },
            v.callee,
            v.reason
        );
    }
    if let Some(cg) = &r.codegen {
        let _ = writeln!(
            out,
            "    codegen {} insts, slot_mov {}, slot_take {}, regs F{}/C{}, slots {}, spills F{}/C{}",
            cg.instructions,
            cg.slot_movs,
            cg.slot_takes,
            cg.f_regs,
            cg.c_regs,
            cg.slots,
            cg.f_spills,
            cg.c_spills
        );
    }
    if r.truncated > 0 {
        let _ = writeln!(
            out,
            "    ({} notes dropped at the {MAX_NOTES_PER_RECORD}-per-record cap)",
            r.truncated
        );
    }
}

fn render_event(out: &mut String, e: &SessionEvent) {
    let _ = writeln!(
        out,
        "  [{}] {} {}{}",
        e.seq,
        e.kind,
        if e.function.is_empty() {
            "(session)"
        } else {
            &e.function
        },
        if e.detail.is_empty() {
            String::new()
        } else {
            format!(" — {}", e.detail)
        }
    );
}

/// Render the per-function explain report: every retained compilation of
/// `function` (use [`records_for`] / [`events_for`] to gather the
/// inputs).
pub fn render_function_report(
    function: &str,
    records: &[CompilationRecord],
    events: &[SessionEvent],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== explain {function} ==");
    if records.is_empty() {
        let _ = writeln!(
            out,
            "(no compilation records — not called in a compiled mode yet, or auditing was off)"
        );
    }
    for r in records {
        render_record(&mut out, r);
    }
    if !events.is_empty() {
        let _ = writeln!(out, "session events:");
        for e in events {
            render_event(&mut out, e);
        }
    }
    out
}

/// Render the whole-session audit report: records grouped by function
/// (first-seen order), then session events.
pub fn render_report(snap: &AuditSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== majic compilation audit ==");
    if snap.records.is_empty() && snap.events.is_empty() {
        let _ = writeln!(out, "(no audit records)");
        return out;
    }
    let mut order: Vec<&str> = Vec::new();
    for r in &snap.records {
        if !order.contains(&r.function.as_str()) {
            order.push(&r.function);
        }
    }
    for f in order {
        let _ = writeln!(out, "{f}:");
        for r in snap.records.iter().filter(|r| r.function == f) {
            render_record(&mut out, r);
        }
    }
    if !snap.events.is_empty() {
        let _ = writeln!(out, "session events:");
        for e in &snap.events {
            render_event(&mut out, e);
        }
    }
    if snap.evicted_records > 0 || snap.evicted_events > 0 {
        let _ = writeln!(
            out,
            "({} records / {} events evicted at the flight-recorder bound)",
            snap.evicted_records, snap.evicted_events
        );
    }
    out
}

fn json_str(s: &str, out: &mut String) {
    out.push('"');
    crate::export::json_escape(s, out);
    out.push('"');
}

fn json_record(r: &CompilationRecord, out: &mut String) {
    out.push_str("{\"function\":");
    json_str(&r.function, out);
    out.push_str(",\"signature\":");
    json_str(&r.signature, out);
    out.push_str(",\"trigger\":");
    json_str(&r.trigger, out);
    out.push_str(",\"outcome\":");
    json_str(&r.outcome, out);
    let _ = write!(out, ",\"seq\":{},\"ts_ns\":{}", r.seq, r.ts_ns);
    let _ = write!(out, ",\"compile_ns\":{}", r.compile_ns);
    if let Some(t) = r.tier {
        let _ = write!(out, ",\"tier\":{t}");
    }
    if let Some(s) = r.session {
        let _ = write!(out, ",\"session\":{s}");
    }
    if let Some(w) = r.queue_wait_ns {
        let _ = write!(out, ",\"queue_wait_ns\":{w}");
    }
    out.push_str(",\"widenings\":[");
    for (i, w) in r.widenings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"variable\":");
        json_str(&w.variable, out);
        out.push_str(",\"from\":");
        json_str(&w.from, out);
        out.push_str(",\"to\":");
        json_str(&w.to, out);
        out.push_str(",\"reason\":");
        json_str(&w.reason, out);
        out.push('}');
    }
    out.push_str("],\"inlining\":[");
    for (i, v) in r.inlining.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"callee\":");
        json_str(&v.callee, out);
        let _ = write!(out, ",\"inlined\":{}", v.inlined);
        out.push_str(",\"reason\":");
        json_str(&v.reason, out);
        out.push('}');
    }
    out.push(']');
    if let Some(cg) = &r.codegen {
        let _ = write!(
            out,
            ",\"codegen\":{{\"instructions\":{},\"slot_movs\":{},\"slot_takes\":{},\"f_regs\":{},\"c_regs\":{},\"slots\":{},\"f_spills\":{},\"c_spills\":{}}}",
            cg.instructions,
            cg.slot_movs,
            cg.slot_takes,
            cg.f_regs,
            cg.c_regs,
            cg.slots,
            cg.f_spills,
            cg.c_spills
        );
    }
    out.push_str(",\"notes\":[");
    for (i, n) in r.notes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"kind\":");
        json_str(n.kind, out);
        out.push_str(",\"detail\":");
        json_str(&n.detail, out);
        out.push('}');
    }
    out.push(']');
    if r.truncated > 0 {
        let _ = write!(out, ",\"truncated\":{}", r.truncated);
    }
    out.push('}');
}

/// Serialize an audit snapshot as a single JSON object (schema:
/// `docs/EXPLAIN_FORMAT.md`). Hand-rolled like the Chrome exporter —
/// the workspace is dependency-free.
pub fn audit_json(snap: &AuditSnapshot) -> String {
    let mut out = String::with_capacity(snap.records.len() * 256 + 256);
    out.push_str("{\"records\":[");
    for (i, r) in snap.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_record(r, &mut out);
    }
    out.push_str("],\"events\":[");
    for (i, e) in snap.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"kind\":");
        json_str(e.kind, &mut out);
        out.push_str(",\"function\":");
        json_str(&e.function, &mut out);
        out.push_str(",\"detail\":");
        json_str(&e.detail, &mut out);
        let _ = write!(out, ",\"seq\":{},\"ts_ns\":{}}}", e.seq, e.ts_ns);
    }
    let _ = write!(
        out,
        "],\"evicted_records\":{},\"evicted_events\":{}}}",
        snap.evicted_records, snap.evicted_events
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The audit switch is process-global and the test harness runs
    /// tests in parallel: a sibling turning recording on between
    /// `set_enabled(false)` and `begin` would make the "must not run"
    /// closures of `disabled_scope_records_nothing` panic. Every test
    /// that flips the switch (or the service refcount, which also turns
    /// recording on) holds this lock.
    static SWITCH: Mutex<()> = Mutex::new(());

    fn lock_switch() -> std::sync::MutexGuard<'static, ()> {
        SWITCH
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Serialize a full lifecycle through the thread-local scratch and
    /// check the published record. Audit state is process-global, so the
    /// test uses unique function names instead of resetting.
    #[test]
    fn scope_lifecycle_publishes_record() {
        let _switch = lock_switch();
        set_enabled(true);
        begin("audit_test_fn");
        widening(|| Widening {
            variable: "s".into(),
            from: "int[0,0]".into(),
            to: "real".into(),
            reason: "join at loop header".into(),
        });
        inline_verdict(|| InlineVerdict {
            callee: "helper".into(),
            inlined: true,
            reason: "inlined (3 statements)".into(),
        });
        codegen_summary(|| CodegenSummary {
            instructions: 10,
            slot_takes: 2,
            ..CodegenSummary::default()
        });
        lifecycle("pipeline", || "jit".into());
        tier(0);
        commit(
            || "(real)".into(),
            "first_call",
            || "published".into(),
            None,
            1234,
        );

        let recs = records_for("audit_test_fn");
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.trigger, "first_call");
        assert_eq!(r.signature, "(real)");
        assert_eq!(r.widenings.len(), 1);
        assert_eq!(r.widenings[0].reason, "join at loop header");
        assert_eq!(r.inlining[0].callee, "helper");
        assert_eq!(r.codegen.unwrap().slot_takes, 2);
        assert_eq!(r.compile_ns, 1234);
        assert_eq!(r.tier, Some(0));

        let report = render_function_report("audit_test_fn", &recs, &[]);
        assert!(report.contains("join at loop header"), "{report}");
        assert!(report.contains("helper"), "{report}");
        assert!(report.contains("slot_take 2"), "{report}");
    }

    #[test]
    fn disabled_scope_records_nothing() {
        let _switch = lock_switch();
        set_enabled(false);
        begin("audit_test_disabled");
        widening(|| panic!("closure must not run when disabled"));
        commit(
            || panic!("closure must not run when disabled"),
            "first_call",
            || panic!("closure must not run when disabled"),
            None,
            0,
        );
        set_enabled(true);
        assert!(records_for("audit_test_disabled").is_empty());
    }

    #[test]
    fn commit_without_scope_is_noop() {
        let _switch = lock_switch();
        set_enabled(true);
        // A begin() skipped while disabled leaves no scope; the commit
        // closures must not be evaluated against a phantom record.
        CURRENT.with(|c| *c.borrow_mut() = None);
        commit(
            || "(sig)".into(),
            "first_call",
            || "published".into(),
            None,
            0,
        );
        assert!(!records_for("").iter().any(|r| r.signature == "(sig)"));
    }

    #[test]
    fn session_events_filter_by_function_and_include_session_wide() {
        let _switch = lock_switch();
        set_enabled(true);
        session_event("cache.reject.version", || {
            (String::new(), "not a cache this build can read".into())
        });
        session_event("fallback.interpreter", || {
            ("audit_test_fb".into(), "reaches global".into())
        });
        session_event("fallback.interpreter", || {
            ("audit_test_other".into(), "reaches clear".into())
        });
        let evs = events_for("audit_test_fb");
        assert!(evs
            .iter()
            .any(|e| e.kind == "cache.reject.version" && e.function.is_empty()));
        assert!(evs
            .iter()
            .any(|e| e.kind == "fallback.interpreter" && e.function == "audit_test_fb"));
        assert!(!evs.iter().any(|e| e.function == "audit_test_other"));
    }

    #[test]
    fn per_record_caps_count_truncation() {
        let _switch = lock_switch();
        set_enabled(true);
        begin("audit_test_caps");
        for i in 0..(MAX_NOTES_PER_RECORD + 5) {
            widening(|| Widening {
                variable: format!("v{i}"),
                from: "a".into(),
                to: "b".into(),
                reason: "r".into(),
            });
        }
        commit(|| "()".into(), "first_call", || "published".into(), None, 0);
        let recs = records_for("audit_test_caps");
        assert_eq!(recs[0].widenings.len(), MAX_NOTES_PER_RECORD);
        assert_eq!(recs[0].truncated, 5);
    }

    #[test]
    fn service_refcount_saturates_at_zero() {
        // Nothing else in this test binary touches the service count,
        // so it starts at zero here.
        let _switch = lock_switch();
        assert_eq!(ENABLED_SERVICES.load(Ordering::Relaxed), 0);
        release_service(); // stray release must not wrap to usize::MAX
        assert_eq!(ENABLED_SERVICES.load(Ordering::Relaxed), 0);
        retain_service();
        retain_service();
        assert_eq!(ENABLED_SERVICES.load(Ordering::Relaxed), 2);
        release_service();
        release_service();
        assert_eq!(ENABLED_SERVICES.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn session_attribution_renders_and_serializes() {
        let _switch = lock_switch();
        set_enabled(true);
        begin("audit_test_session");
        session_id(7);
        commit(
            || "(real)".into(),
            "first_call",
            || "published".into(),
            None,
            5,
        );
        let recs = records_for("audit_test_session");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].session, Some(7));
        let mut rendered = String::new();
        render_record(&mut rendered, &recs[0]);
        assert!(rendered.contains("[session 7]"), "{rendered}");
        let snap = AuditSnapshot {
            records: recs,
            ..AuditSnapshot::default()
        };
        assert!(audit_json(&snap).contains("\"session\":7"));
    }

    #[test]
    fn json_round_trips_structurally() {
        let _switch = lock_switch();
        set_enabled(true);
        begin("audit_test_json");
        widening(|| Widening {
            variable: "x\"y".into(),
            from: "⊥".into(),
            to: "⊤".into(),
            reason: "quote \\ test".into(),
        });
        commit(
            || "(int 1×1)".into(),
            "spec_worker",
            || "published (optimized)".into(),
            Some(42),
            7,
        );
        let snap = AuditSnapshot {
            records: records_for("audit_test_json"),
            events: vec![SessionEvent {
                kind: "vm.error",
                function: "audit_test_json".into(),
                detail: "bad subscript".into(),
                seq: 1,
                ts_ns: 2,
            }],
            evicted_records: 0,
            evicted_events: 0,
        };
        let json = audit_json(&snap);
        // Structural sanity without a parser dependency here; the e2e
        // test parses this output with the testkit JSON parser.
        assert!(json.starts_with("{\"records\":["));
        assert!(json.contains("\"queue_wait_ns\":42"), "{json}");
        assert!(json.contains("\"kind\":\"vm.error\""), "{json}");
        assert!(json.contains("x\\\"y"), "{json}");
        assert!(json.ends_with("\"evicted_records\":0,\"evicted_events\":0}"));
    }
}
