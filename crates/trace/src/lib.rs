//! **majic-trace** — unified tracing, metrics, and profiling for the
//! majic compilation pipeline.
//!
//! The paper's entire evaluation is observability: Figure 6 decomposes
//! JIT runtime into disambiguation / inference / codegen / execution,
//! and Tables 1–2 hinge on repository hit/miss behaviour. This crate
//! carries the timing half and the process-wide facts; per-service
//! facts (repository hits and misses, cache and background-pool
//! counts) live only in that service's stats structs.
//!
//! * **Spans** — RAII guards ([`Span::enter`]) measuring one region of
//!   one thread. Spans nest via a thread-local stack, so background
//!   speculation workers trace correctly alongside the session thread.
//!   A span *always* measures (the engine adds each compile layer's
//!   [`Span::exit`] duration into its `PhaseTimes`); it only *records*
//!   an event into the global collector when tracing is enabled.
//! * **Counters and histograms** — named monotonic atomics
//!   ([`counter`]) and log₂-bucketed histograms ([`histogram`]),
//!   registered on first use and shared by the whole process.
//! * **Exporters** — a human-readable tree report
//!   ([`export::render_report`]), Chrome trace-event JSON
//!   ([`export::chrome_trace_json`], loadable in `chrome://tracing` /
//!   Perfetto), and folded stacks ([`export::folded_stacks`]) for
//!   flamegraph tools.
//!
//! # Overhead budget
//!
//! Disabled, a span costs two `Instant::now` calls and one relaxed
//! atomic load — no allocation, no locks (asserted by the
//! `zero_alloc` integration test). VM execution profiling (per-opcode
//! counts) is a separate opt-in flag ([`vm_profile_enabled`]) because
//! it adds a branch per executed instruction.
//!
//! # Environment control
//!
//! `MAJIC_TRACE=report | chrome:<path> | folded:<path> | off` selects
//! the exporter (see [`TraceMode::parse`]); appending `,vm` (e.g.
//! `report,vm`) additionally enables VM execution profiling.
//! `MAJIC_EXPLAIN=report | json:<path>` enables the compilation
//! [`audit`] flight recorder (see [`ExplainMode`]) and emits it at
//! [`finish`] alongside whatever `MAJIC_TRACE` selected.
//! The bench binaries call [`init_from_env`] at startup and [`finish`]
//! before exiting.

#![deny(missing_docs)]

pub mod audit;
pub mod export;
mod metrics;

pub use metrics::{
    counter, histogram, reset_metrics, Counter, CounterSnapshot, Histogram, HistogramSnapshot,
};

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Master switch for span/event recording.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Opt-in VM execution profiling (per-opcode counts etc.).
static VM_PROFILE: AtomicBool = AtomicBool::new(false);
/// Completed span / instant events, in completion order.
static EVENTS: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
/// Events discarded because the collector hit [`MAX_EVENTS`].
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// Next thread id handed out by the collector.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Collector capacity: recording stops (and [`dropped_events`] counts)
/// beyond this, so an always-on session cannot grow without bound.
pub const MAX_EVENTS: usize = 1 << 20;

/// Is span/event recording on?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn span/event recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is opt-in VM execution profiling on?
#[inline]
pub fn vm_profile_enabled() -> bool {
    VM_PROFILE.load(Ordering::Relaxed)
}

/// Turn VM execution profiling on or off.
pub fn set_vm_profile(on: bool) {
    VM_PROFILE.store(on, Ordering::Relaxed);
}

/// Number of events discarded since the last [`reset`].
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// The process-wide clock origin: every event timestamp is nanoseconds
/// since the first call to this function.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// This thread's collector identity, assigned on first recording.
    static THREAD: RefCell<Option<(u64, Arc<str>)>> = const { RefCell::new(None) };
}

fn thread_identity() -> (u64, Arc<str>) {
    THREAD.with(|t| {
        t.borrow_mut()
            .get_or_insert_with(|| {
                let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
                let name: Arc<str> = std::thread::current().name().unwrap_or("unnamed").into();
                (tid, name)
            })
            .clone()
    })
}

/// How an event was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A region with a duration (Chrome `ph:"X"`).
    Span,
    /// A point-in-time marker (Chrome `ph:"i"`).
    Instant,
}

/// One completed span or instant event.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Span name (the leaf of [`SpanEvent::path`]).
    pub name: &'static str,
    /// `;`-joined ancestry on the recording thread, e.g.
    /// `call;compile;inference` — the folded-stack identity.
    pub path: String,
    /// Start, nanoseconds since [`epoch`].
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Collector-assigned thread id.
    pub tid: u64,
    /// OS thread name at recording time.
    pub thread_name: Arc<str>,
    /// Span or instant.
    pub kind: EventKind,
    /// Key/value annotations (`fn`, `distance`, …).
    pub args: Vec<(&'static str, String)>,
}

fn record_event(ev: SpanEvent) {
    let mut events = EVENTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if events.len() >= MAX_EVENTS {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    events.push(ev);
}

fn path_of(stack: &[&'static str], leaf: Option<&'static str>) -> String {
    let mut path = String::with_capacity(16);
    for name in stack {
        if !path.is_empty() {
            path.push(';');
        }
        path.push_str(name);
    }
    if let Some(leaf) = leaf {
        if !path.is_empty() {
            path.push(';');
        }
        path.push_str(leaf);
    }
    path
}

/// An open region on the current thread. Created by [`Span::enter`];
/// closed (and recorded, when tracing is enabled) on [`Span::exit`] or
/// drop. The measured duration is returned by `exit` so callers can
/// feed phase accounting from the *same* measurement the trace records.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
    /// Recording was enabled at entry: we pushed onto the thread-local
    /// stack and must pop + emit exactly once.
    rec: bool,
    done: bool,
    args: Vec<(&'static str, String)>,
}

impl Span {
    /// Open a span. When tracing is disabled this is two instants and a
    /// relaxed load — no allocation.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        Span::enter_inner(name, Vec::new)
    }

    /// Open a span with annotations. `args` is evaluated only when
    /// tracing is enabled, so argument formatting costs nothing when
    /// disabled.
    #[inline]
    pub fn enter_with(
        name: &'static str,
        args: impl FnOnce() -> Vec<(&'static str, String)>,
    ) -> Span {
        Span::enter_inner(name, args)
    }

    fn enter_inner(name: &'static str, args: impl FnOnce() -> Vec<(&'static str, String)>) -> Span {
        let rec = enabled();
        let args = if rec {
            STACK.with(|s| s.borrow_mut().push(name));
            args()
        } else {
            Vec::new()
        };
        Span {
            name,
            start: Instant::now(),
            rec,
            done: false,
            args,
        }
    }

    /// Close the span and return its measured duration. Equivalent to
    /// dropping it, but hands the duration back for phase accounting.
    pub fn exit(mut self) -> Duration {
        self.finish()
    }

    fn finish(&mut self) -> Duration {
        if self.done {
            return Duration::ZERO;
        }
        self.done = true;
        let dur = self.start.elapsed();
        if self.rec {
            let path = STACK.with(|s| {
                let mut stack = s.borrow_mut();
                let path = path_of(&stack, None);
                stack.pop();
                path
            });
            let (tid, thread_name) = thread_identity();
            record_event(SpanEvent {
                name: self.name,
                path,
                ts_ns: self.start.duration_since(epoch()).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
                tid,
                thread_name,
                kind: EventKind::Span,
                args: std::mem::take(&mut self.args),
            });
        }
        dur
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Record a point-in-time event (Chrome "instant"). `args` is evaluated
/// only when tracing is enabled; disabled cost is one relaxed load.
#[inline]
pub fn instant(name: &'static str, args: impl FnOnce() -> Vec<(&'static str, String)>) {
    if !enabled() {
        return;
    }
    let path = STACK.with(|s| path_of(&s.borrow(), Some(name)));
    let (tid, thread_name) = thread_identity();
    record_event(SpanEvent {
        name,
        path,
        ts_ns: epoch().elapsed().as_nanos() as u64,
        dur_ns: 0,
        tid,
        thread_name,
        kind: EventKind::Instant,
        args: args(),
    });
}

/// Record a span whose interval was measured externally — e.g. a
/// queue-wait that *started* on the enqueueing thread and is reported by
/// the worker that dequeued the job. The event is attributed to the
/// calling thread but keeps the true start timestamp.
#[inline]
pub fn record_interval(
    name: &'static str,
    start: Instant,
    dur: Duration,
    args: impl FnOnce() -> Vec<(&'static str, String)>,
) {
    if !enabled() {
        return;
    }
    let path = STACK.with(|s| path_of(&s.borrow(), Some(name)));
    let (tid, thread_name) = thread_identity();
    let epoch = epoch();
    record_event(SpanEvent {
        name,
        path,
        ts_ns: start
            .checked_duration_since(epoch)
            .unwrap_or(Duration::ZERO)
            .as_nanos() as u64,
        dur_ns: dur.as_nanos() as u64,
        tid,
        thread_name,
        kind: EventKind::Span,
        args: args(),
    });
}

/// Everything the collector holds, cloned at one point in time.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// Completed events, in completion order.
    pub events: Vec<SpanEvent>,
    /// All registered counters (name-sorted) with their values.
    pub counters: Vec<CounterSnapshot>,
    /// All registered histograms (name-sorted).
    pub histograms: Vec<HistogramSnapshot>,
    /// Events discarded at the collector cap.
    pub dropped: u64,
}

/// Snapshot events, counters, and histograms without clearing anything.
pub fn snapshot() -> TraceSnapshot {
    TraceSnapshot {
        events: EVENTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone(),
        counters: metrics::counter_snapshots(),
        histograms: metrics::histogram_snapshots(),
        dropped: dropped_events(),
    }
}

/// Clear events and zero every counter and histogram. Open spans on
/// other threads still record when they close; `reset` is meant for
/// quiescent points (session start, between bench arms).
pub fn reset() {
    EVENTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
    DROPPED.store(0, Ordering::Relaxed);
    reset_metrics();
}

/// Where trace output goes at process exit — parsed from `MAJIC_TRACE`.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Tracing disabled (the default).
    #[default]
    Off,
    /// Print the human-readable tree report to stdout.
    Report,
    /// Write Chrome trace-event JSON to the given path.
    Chrome(PathBuf),
    /// Write folded stacks (flamegraph input) to the given path.
    Folded(PathBuf),
}

/// Outcome of parsing a `MAJIC_TRACE` value: the exporter mode plus
/// whether VM execution profiling was requested via a `,vm` suffix.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TraceRequest {
    /// Exporter selection.
    pub mode: TraceMode,
    /// `,vm` suffix present.
    pub vm_profile: bool,
}

impl TraceMode {
    /// Parse a `MAJIC_TRACE` value. Unknown values fall back to `Off`
    /// with a warning on stderr (observability must never break the
    /// program being observed, but a typo'd mode silently recording
    /// nothing is its own observability failure).
    ///
    /// ```
    /// use majic_trace::TraceMode;
    /// assert_eq!(TraceMode::parse("report").mode, TraceMode::Report);
    /// assert_eq!(
    ///     TraceMode::parse("chrome:t.json").mode,
    ///     TraceMode::Chrome("t.json".into())
    /// );
    /// assert!(TraceMode::parse("folded:out.folded,vm").vm_profile);
    /// assert_eq!(TraceMode::parse("off").mode, TraceMode::Off);
    /// ```
    pub fn parse(value: &str) -> TraceRequest {
        let value = value.trim();
        let (value, vm_profile) = match value.strip_suffix(",vm") {
            Some(v) => (v, true),
            None => (value, false),
        };
        let mode = if let Some(path) = value.strip_prefix("chrome:") {
            TraceMode::Chrome(path.into())
        } else if let Some(path) = value.strip_prefix("folded:") {
            TraceMode::Folded(path.into())
        } else if value == "report" {
            TraceMode::Report
        } else {
            if !value.is_empty() && value != "off" {
                eprintln!(
                    "majic-trace: unrecognized MAJIC_TRACE mode {value:?} \
                     (expected report | chrome:<path> | folded:<path> | off, \
                     optionally with a ,vm suffix); tracing stays off"
                );
            }
            TraceMode::Off
        };
        TraceRequest { mode, vm_profile }
    }
}

/// Where the compilation audit log goes at process exit — parsed from
/// `MAJIC_EXPLAIN`.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum ExplainMode {
    /// Audit emission disabled (the default).
    #[default]
    Off,
    /// Print the per-function audit report to stdout.
    Report,
    /// Write the audit log as JSON (`docs/EXPLAIN_FORMAT.md`) to the
    /// given path.
    Json(PathBuf),
}

impl ExplainMode {
    /// Parse a `MAJIC_EXPLAIN` value. Unknown values fall back to `Off`
    /// with a warning on stderr, mirroring [`TraceMode::parse`].
    ///
    /// ```
    /// use majic_trace::ExplainMode;
    /// assert_eq!(ExplainMode::parse("report"), ExplainMode::Report);
    /// assert_eq!(
    ///     ExplainMode::parse("json:audit.json"),
    ///     ExplainMode::Json("audit.json".into())
    /// );
    /// assert_eq!(ExplainMode::parse("off"), ExplainMode::Off);
    /// ```
    pub fn parse(value: &str) -> ExplainMode {
        let value = value.trim();
        if let Some(path) = value.strip_prefix("json:") {
            ExplainMode::Json(path.into())
        } else if value == "report" {
            ExplainMode::Report
        } else {
            if !value.is_empty() && value != "off" {
                eprintln!(
                    "majic-trace: unrecognized MAJIC_EXPLAIN mode {value:?} \
                     (expected report | json:<path> | off); audit stays off"
                );
            }
            ExplainMode::Off
        }
    }
}

static ENV_MODE: OnceLock<TraceMode> = OnceLock::new();
static ENV_EXPLAIN: OnceLock<ExplainMode> = OnceLock::new();

/// Read `MAJIC_TRACE` and `MAJIC_EXPLAIN`, enable
/// recording accordingly, and remember the exporters for [`finish`].
/// Idempotent: the first call wins (matching the process-lifetime
/// semantics of an env var).
pub fn init_from_env() -> &'static TraceMode {
    ENV_EXPLAIN.get_or_init(|| {
        let mode = std::env::var("MAJIC_EXPLAIN")
            .map(|v| ExplainMode::parse(&v))
            .unwrap_or_default();
        if mode != ExplainMode::Off {
            epoch();
            audit::set_enabled(true);
        }
        mode
    });
    ENV_MODE.get_or_init(|| {
        let req = std::env::var("MAJIC_TRACE")
            .map(|v| TraceMode::parse(&v))
            .unwrap_or_default();
        if req.mode != TraceMode::Off {
            epoch(); // anchor timestamps before any work happens
            set_enabled(true);
        }
        if req.vm_profile {
            set_vm_profile(true);
        }
        req.mode
    })
}

/// Export according to the modes captured by [`init_from_env`]: print
/// the trace report or write the Chrome/folded file, then emit the
/// compilation audit log the same way (errors go to stderr —
/// observability must not turn a successful run into a failure).
pub fn finish() {
    match ENV_MODE.get().unwrap_or(&TraceMode::Off) {
        TraceMode::Off => {}
        TraceMode::Report => print!("{}", export::render_report(&snapshot())),
        TraceMode::Chrome(path) => {
            if let Err(e) = export::write_chrome_trace(path) {
                eprintln!("majic-trace: failed to write {}: {e}", path.display());
            } else {
                eprintln!("majic-trace: chrome trace written to {}", path.display());
            }
        }
        TraceMode::Folded(path) => {
            if let Err(e) = std::fs::write(path, export::folded_stacks(&snapshot())) {
                eprintln!("majic-trace: failed to write {}: {e}", path.display());
            } else {
                eprintln!("majic-trace: folded stacks written to {}", path.display());
            }
        }
    }
    match ENV_EXPLAIN.get().unwrap_or(&ExplainMode::Off) {
        ExplainMode::Off => {}
        ExplainMode::Report => print!("{}", audit::render_report(&audit::snapshot())),
        ExplainMode::Json(path) => {
            if let Err(e) = std::fs::write(path, audit::audit_json(&audit::snapshot())) {
                eprintln!("majic-trace: failed to write {}: {e}", path.display());
            } else {
                eprintln!("majic-trace: audit log written to {}", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_modes() {
        assert_eq!(TraceMode::parse("").mode, TraceMode::Off);
        assert_eq!(TraceMode::parse("off").mode, TraceMode::Off);
        assert_eq!(TraceMode::parse("nonsense").mode, TraceMode::Off);
        assert_eq!(TraceMode::parse("report").mode, TraceMode::Report);
        assert_eq!(
            TraceMode::parse("chrome:/tmp/t.json").mode,
            TraceMode::Chrome("/tmp/t.json".into())
        );
        assert_eq!(
            TraceMode::parse("folded:x").mode,
            TraceMode::Folded("x".into())
        );
        let req = TraceMode::parse("report,vm");
        assert_eq!(req.mode, TraceMode::Report);
        assert!(req.vm_profile);
        assert!(TraceMode::parse("off,vm").vm_profile);
    }

    /// The full parse matrix: every mode × the `,vm` suffix ×
    /// whitespace, plus the unknown-mode fallback (which additionally
    /// warns on stderr — not assertable here, but the fallback must
    /// still be `Off` and must still honor the suffix).
    #[test]
    fn parse_matrix() {
        for (input, mode, vm) in [
            ("off", TraceMode::Off, false),
            ("off,vm", TraceMode::Off, true),
            ("report", TraceMode::Report, false),
            ("report,vm", TraceMode::Report, true),
            ("chrome:t.json", TraceMode::Chrome("t.json".into()), false),
            ("chrome:t.json,vm", TraceMode::Chrome("t.json".into()), true),
            (
                "folded:t.folded",
                TraceMode::Folded("t.folded".into()),
                false,
            ),
            (
                "folded:t.folded,vm",
                TraceMode::Folded("t.folded".into()),
                true,
            ),
            ("  report  ", TraceMode::Report, false),
            ("", TraceMode::Off, false),
            ("   ", TraceMode::Off, false),
            ("bogus", TraceMode::Off, false),
            ("bogus,vm", TraceMode::Off, true),
            ("Report", TraceMode::Off, false), // modes are case-sensitive
            ("REPORT", TraceMode::Off, false),
        ] {
            let req = TraceMode::parse(input);
            assert_eq!(req.mode, mode, "mode for {input:?}");
            assert_eq!(req.vm_profile, vm, "vm_profile for {input:?}");
        }
        // `,vm` is a suffix of the whole value, not a separate token:
        // the remainder still parses as its own mode.
        assert_eq!(TraceMode::parse(",vm").mode, TraceMode::Off);
        assert!(TraceMode::parse(",vm").vm_profile);
    }

    #[test]
    fn parse_explain_modes() {
        assert_eq!(ExplainMode::parse(""), ExplainMode::Off);
        assert_eq!(ExplainMode::parse("off"), ExplainMode::Off);
        assert_eq!(ExplainMode::parse("nonsense"), ExplainMode::Off);
        assert_eq!(ExplainMode::parse("report"), ExplainMode::Report);
        assert_eq!(ExplainMode::parse(" report "), ExplainMode::Report);
        assert_eq!(
            ExplainMode::parse("json:audit.json"),
            ExplainMode::Json("audit.json".into())
        );
    }

    #[test]
    fn path_joins() {
        assert_eq!(path_of(&[], None), "");
        assert_eq!(path_of(&["a"], None), "a");
        assert_eq!(path_of(&["a", "b"], Some("c")), "a;b;c");
        assert_eq!(path_of(&[], Some("c")), "c");
    }
}
