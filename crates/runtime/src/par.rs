//! Size-gated data-parallel matrix kernels.
//!
//! MaJIC's thesis is that MATLAB programs live in matrix primitives, so
//! the runtime's kernels — not just the compiler — decide throughput.
//! This module gives the operator library in [`crate::ops`] and the
//! dense algebra in [`crate::linalg`] a shared, zero-dependency worker
//! pool: elementwise maps/zips and blocked matrix products are split
//! into disjoint output chunks once the work crosses a threshold, and
//! fall back to the ordinary sequential loops below it.
//!
//! # Determinism is a hard invariant
//!
//! Every output element is computed by the *exact same expression* as
//! the sequential path, and the blocked product reuses the sequential
//! per-column accumulation loop verbatim, so results are bitwise
//! identical for every thread count. The golden suites (all 16
//! benchmarks across `MAJIC_THREADS ∈ {0, 1, 4}`) enforce this — the
//! differential-fuzzing and golden oracles from earlier PRs keep their
//! teeth no matter how the pool is configured.
//!
//! # Configuration
//!
//! The participating thread count (the submitting thread plus pool
//! workers) comes from the `MAJIC_THREADS` environment variable on
//! first use, or [`set_threads`] / `EngineOptions::threads` at runtime.
//! `0` and `1` both mean "stay sequential". Malformed values warn once
//! on stderr and leave the kernels off, mirroring how `MAJIC_TRACE`
//! treats unknown modes.
//!
//! # Observability
//!
//! Each parallel dispatch bumps the `kernel.par.dispatch` counter and
//! records its chunk size in the `kernel.par.chunk_elems` histogram; an
//! op that crossed the size gate but could not be parallelized (e.g. a
//! non-contiguous operand) bumps `kernel.par.bypass` instead.

use crate::Matrix;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Default element-count gate: ops touching fewer elements than this
/// stay on the sequential path (the fork/join handshake costs far more
/// than a small loop saves).
pub const DEFAULT_PAR_THRESHOLD: usize = 1 << 16;

/// Largest accepted thread count; values beyond this are clamped (via
/// [`set_threads`]) or rejected (from the environment).
pub const MAX_THREADS: usize = 256;

/// Smallest chunk handed to a worker, in elements: keeps per-chunk
/// bookkeeping negligible next to the element loop.
const MIN_CHUNK_ELEMS: usize = 4 * 1024;

/// Chunks per participating thread: a little over-decomposition evens
/// out scheduling noise without shrinking chunks into overhead.
const CHUNKS_PER_THREAD: usize = 4;

/// Sentinel: thread count not yet initialized from the environment.
const THREADS_UNSET: usize = usize::MAX;

static THREADS: AtomicUsize = AtomicUsize::new(THREADS_UNSET);
static THRESHOLD: AtomicUsize = AtomicUsize::new(DEFAULT_PAR_THRESHOLD);

/// Parse a `MAJIC_THREADS` value: a bare thread count in
/// `0..=`[`MAX_THREADS`]. `None` for anything else (floats, suffixes,
/// negatives, absurd counts).
pub fn parse_threads(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|&n| n <= MAX_THREADS)
}

/// The configured number of participating threads (submitting thread
/// included). `0` and `1` both mean sequential execution. Initialized
/// on first use from `MAJIC_THREADS`; adjustable with [`set_threads`].
pub fn thread_count() -> usize {
    let v = THREADS.load(Ordering::Relaxed);
    if v != THREADS_UNSET {
        return v;
    }
    let init = match std::env::var("MAJIC_THREADS") {
        Ok(s) => match parse_threads(&s) {
            Some(n) => n,
            None => {
                if !s.trim().is_empty() {
                    eprintln!(
                        "majic-runtime: unrecognized MAJIC_THREADS {s:?} (expected an integer \
                         0..={MAX_THREADS}); parallel kernels stay off"
                    );
                }
                0
            }
        },
        Err(_) => 0,
    };
    THREADS.store(init, Ordering::Relaxed);
    init
}

/// Override the participating thread count (process-global). The pool
/// is resized eagerly: `n - 1` workers are kept alive between kernels,
/// and shrinking to `0`/`1` joins and discards them.
pub fn set_threads(n: usize) {
    let n = n.min(MAX_THREADS);
    THREADS.store(n, Ordering::Relaxed);
    let mut cell = pool_cell().lock().expect("kernel pool lock poisoned");
    let workers = n.saturating_sub(1);
    if cell.as_ref().map(KernelPool::workers) != Some(workers) {
        // Dropping the old pool joins its threads before the new one
        // (if any) spawns.
        *cell = None;
        if workers > 0 {
            *cell = Some(KernelPool::start(workers));
        }
    }
}

/// The active element-count gate below which kernels stay sequential.
pub fn threshold() -> usize {
    THRESHOLD.load(Ordering::Relaxed)
}

/// Override the size gate (process-global; test/bench hook — lowering
/// it forces small ops through the parallel path).
pub fn set_threshold(n: usize) {
    THRESHOLD.store(n.max(1), Ordering::Relaxed);
}

/// Should an op over `work` elements take the parallel path?
pub(crate) fn gate(work: usize) -> bool {
    work >= threshold() && thread_count() > 1
}

/// Chunk size (in elements) for an `n`-element elementwise kernel.
pub(crate) fn chunk_elems(n: usize) -> usize {
    let threads = thread_count().max(2);
    n.div_ceil(threads * CHUNKS_PER_THREAD).max(MIN_CHUNK_ELEMS)
}

/// Record a parallel dispatch: one counter bump plus the chunk size
/// into the log₂ histogram.
pub(crate) fn note_dispatch(chunk: usize) {
    majic_trace::counter("kernel.par.dispatch").inc();
    majic_trace::histogram("kernel.par.chunk_elems").record(chunk as u64);
}

/// Record an op that crossed the size gate but ran sequentially anyway
/// (non-contiguous operand, degenerate shape, ...).
pub(crate) fn note_bypass() {
    majic_trace::counter("kernel.par.bypass").inc();
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// Type-erased pointer to the current job's chunk closure. The pointee
/// is `Sync`, and [`run_chunks`] keeps the closure alive (and the
/// submitting thread parked) until every chunk has finished, so workers
/// may dereference it for the duration of the job.
#[derive(Clone, Copy)]
struct RawChunkFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls are fine) and `run_chunks`
// guarantees it outlives every dereference; see `RawChunkFn` docs.
unsafe impl Send for RawChunkFn {}
// SAFETY: as above — the pointer is only ever dereferenced to a `Sync`
// closure that outlives the job.
unsafe impl Sync for RawChunkFn {}

/// One fork/join job: workers claim chunk indices from `next` until
/// exhausted; `pending` counts unfinished chunks and releases the
/// submitter when it reaches zero.
#[derive(Clone)]
struct ActiveJob {
    run: RawChunkFn,
    chunks: usize,
    next: Arc<AtomicUsize>,
    pending: Arc<AtomicUsize>,
    panicked: Arc<AtomicBool>,
}

/// The slot the submitter publishes jobs into. `seq` distinguishes a
/// new job from the still-installed previous one, so a worker that
/// finishes early does not re-enter the same job.
struct SlotState {
    job: Option<ActiveJob>,
    seq: u64,
    closed: bool,
}

struct PoolShared {
    slot: Mutex<SlotState>,
    /// Signaled when a new job lands (or the pool closes).
    work: Condvar,
    /// Signaled by the worker that finishes the last chunk.
    done: Condvar,
}

/// A persistent pool of kernel workers, following `SpecWorkerPool`'s
/// shutdown discipline: close the slot, wake everyone, join on drop.
struct KernelPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl KernelPool {
    fn start(workers: usize) -> KernelPool {
        let shared = Arc::new(PoolShared {
            slot: Mutex::new(SlotState {
                job: None,
                seq: 0,
                closed: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("majic-kernel-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn kernel worker")
            })
            .collect();
        KernelPool { shared, handles }
    }

    fn workers(&self) -> usize {
        self.handles.len()
    }
}

impl Drop for KernelPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().expect("kernel pool lock poisoned");
            slot.closed = true;
        }
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().expect("kernel pool lock poisoned");
            loop {
                if slot.closed {
                    return;
                }
                if slot.seq != seen {
                    seen = slot.seq;
                    if let Some(job) = slot.job.clone() {
                        break job;
                    }
                }
                slot = shared.work.wait(slot).expect("kernel pool lock poisoned");
            }
        };
        run_job(shared, &job);
    }
}

/// Claim and execute chunks of `job` until none remain. Called by every
/// worker and by the submitting thread itself (which always
/// participates instead of idling).
fn run_job(shared: &PoolShared, job: &ActiveJob) {
    loop {
        let chunk = job.next.fetch_add(1, Ordering::Relaxed);
        if chunk >= job.chunks {
            return;
        }
        // SAFETY: the submitter keeps the closure alive until `pending`
        // reaches zero, which cannot happen before this call returns.
        let f = unsafe { &*job.run.0 };
        if catch_unwind(AssertUnwindSafe(|| f(chunk))).is_err() {
            job.panicked.store(true, Ordering::Relaxed);
        }
        if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last chunk: take the slot lock before signaling so the
            // submitter cannot check `pending` and park between our
            // decrement and our notify.
            let _slot = shared.slot.lock().expect("kernel pool lock poisoned");
            shared.done.notify_all();
        }
    }
}

static POOL: OnceLock<Mutex<Option<KernelPool>>> = OnceLock::new();

fn pool_cell() -> &'static Mutex<Option<KernelPool>> {
    POOL.get_or_init(|| Mutex::new(None))
}

/// Run `f(0..chunks)` with chunks distributed over the kernel pool (the
/// calling thread participates). Falls back to a plain loop when the
/// pool is configured off or there is nothing to split. Panics from a
/// chunk are caught on the worker and re-raised here once every chunk
/// has finished, so the pool itself always survives.
pub(crate) fn run_chunks(chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    let threads = thread_count();
    if chunks <= 1 || threads <= 1 {
        for c in 0..chunks {
            f(c);
        }
        return;
    }
    // Holding the cell lock for the whole job serializes concurrent
    // submitters (each gets the full pool) and excludes `set_threads`
    // from swapping the pool mid-job.
    let mut cell = pool_cell().lock().expect("kernel pool lock poisoned");
    let workers = threads - 1;
    if cell.as_ref().map(KernelPool::workers) != Some(workers) {
        *cell = None;
        *cell = Some(KernelPool::start(workers));
    }
    let pool = cell.as_ref().expect("pool installed above");
    // SAFETY: lifetime erasure only — this function keeps `f` borrowed
    // (and this thread parked) until every chunk has completed, so the
    // erased pointer never outlives the pointee (see `RawChunkFn`).
    let run = RawChunkFn(unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
    });
    let job = ActiveJob {
        run,
        chunks,
        next: Arc::new(AtomicUsize::new(0)),
        pending: Arc::new(AtomicUsize::new(chunks)),
        panicked: Arc::new(AtomicBool::new(false)),
    };
    {
        let mut slot = pool.shared.slot.lock().expect("kernel pool lock poisoned");
        slot.job = Some(job.clone());
        slot.seq += 1;
    }
    pool.shared.work.notify_all();
    // Work alongside the pool rather than idling.
    run_job(&pool.shared, &job);
    // Wait out stragglers, then retire the job from the slot.
    {
        let mut slot = pool.shared.slot.lock().expect("kernel pool lock poisoned");
        while job.pending.load(Ordering::Acquire) != 0 {
            slot = pool
                .shared
                .done
                .wait(slot)
                .expect("kernel pool lock poisoned");
        }
        slot.job = None;
    }
    if job.panicked.load(Ordering::Relaxed) {
        panic!("parallel kernel chunk panicked");
    }
}

/// Covariant send-through-closure wrapper for the output base pointer.
struct SendPtr<U>(*mut U);
// SAFETY: each chunk writes a disjoint range of the output buffer (see
// `for_each_chunk_mut`), so sharing the base pointer across workers
// creates no aliasing mutable access.
unsafe impl<U> Send for SendPtr<U> {}
// SAFETY: as above — disjoint ranges only.
unsafe impl<U> Sync for SendPtr<U> {}

/// Split `out` into `chunk`-element runs and invoke
/// `f(start_index, run)` for each, in parallel when the pool is on.
/// `f` must derive everything it writes from `start_index` alone so the
/// runs stay disjoint.
pub(crate) fn for_each_chunk_mut<U: Send>(
    out: &mut [U],
    chunk: usize,
    f: impl Fn(usize, &mut [U]) + Sync,
) {
    let n = out.len();
    if n == 0 {
        return;
    }
    let chunk = chunk.max(1);
    let chunks = n.div_ceil(chunk);
    let base = SendPtr(out.as_mut_ptr());
    // Borrow the wrapper, not the field: 2021-edition closures capture
    // disjoint fields, and a bare `*mut U` capture would not be `Sync`.
    let base = &base;
    run_chunks(chunks, &|c: usize| {
        let start = c * chunk;
        let len = chunk.min(n - start);
        // SAFETY: chunk index `c` is handed out exactly once, so the
        // `[start, start + len)` ranges are pairwise disjoint and within
        // `out`; the borrow of `out` outlives `run_chunks`.
        let run = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), len) };
        f(start, run);
    });
}

// ---------------------------------------------------------------------------
// Matrix kernels
// ---------------------------------------------------------------------------

/// Elementwise map with the size-gated parallel fast path. Falls back
/// to [`Matrix::map`] below the gate or when the source has row slack
/// (`lda != rows`), counting the latter as a bypass.
pub(crate) fn map<T, U>(m: &Matrix<T>, f: impl Fn(&T) -> U + Sync) -> Matrix<U>
where
    T: Clone + Default + PartialEq + Sync,
    U: Clone + Default + PartialEq + Send,
{
    let n = m.numel();
    if gate(n) {
        if let Some(src) = m.as_contiguous_slice() {
            let chunk = chunk_elems(n);
            note_dispatch(chunk);
            let mut out = vec![U::default(); n];
            for_each_chunk_mut(&mut out, chunk, |start, run| {
                for (off, dst) in run.iter_mut().enumerate() {
                    *dst = f(&src[start + off]);
                }
            });
            return Matrix::from_vec(m.rows(), m.cols(), out);
        }
        note_bypass();
    }
    m.map(f)
}

/// Elementwise zip of two equal-shape matrices with the size-gated
/// parallel fast path; sequential fallback is [`Matrix::zip`].
///
/// # Panics
///
/// Panics if the shapes differ (callers check first, as for
/// [`Matrix::zip`]).
pub(crate) fn zip<T, U, V>(
    a: &Matrix<T>,
    b: &Matrix<U>,
    f: impl Fn(&T, &U) -> V + Sync,
) -> Matrix<V>
where
    T: Clone + Default + PartialEq + Sync,
    U: Clone + Default + PartialEq + Sync,
    V: Clone + Default + PartialEq + Send,
{
    let n = a.numel();
    if gate(n) {
        if let (Some(sa), Some(sb)) = (a.as_contiguous_slice(), b.as_contiguous_slice()) {
            assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
            let chunk = chunk_elems(n);
            note_dispatch(chunk);
            let mut out = vec![V::default(); n];
            for_each_chunk_mut(&mut out, chunk, |start, run| {
                for (off, dst) in run.iter_mut().enumerate() {
                    *dst = f(&sa[start + off], &sb[start + off]);
                }
            });
            return Matrix::from_vec(a.rows(), a.cols(), out);
        }
        note_bypass();
    }
    a.zip(b, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that reconfigure the process-global pool.
    fn config_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn with_pool<R>(threads: usize, threshold: usize, body: impl FnOnce() -> R) -> R {
        let _guard = config_lock();
        set_threads(threads);
        set_threshold(threshold);
        let out = body();
        set_threads(0);
        set_threshold(DEFAULT_PAR_THRESHOLD);
        out
    }

    #[test]
    fn parse_threads_matrix() {
        assert_eq!(parse_threads("0"), Some(0));
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 16 "), Some(16));
        assert_eq!(parse_threads(&MAX_THREADS.to_string()), Some(MAX_THREADS));
        assert_eq!(parse_threads("257"), None, "beyond MAX_THREADS");
        assert_eq!(parse_threads("-1"), None);
        assert_eq!(parse_threads("2e9"), None);
        assert_eq!(parse_threads("abc"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("4 threads"), None);
    }

    #[test]
    fn map_matches_sequential_bitwise() {
        let m = Matrix::from_vec(64, 2, (0..128).map(|k| k as f64 * 0.3).collect());
        let seq = m.map(|&v| v.sin());
        let par = with_pool(4, 8, || map(&m, |&v: &f64| v.sin()));
        assert_eq!(seq.rows(), par.rows());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn zip_matches_sequential_bitwise() {
        let a = Matrix::from_vec(128, 1, (0..128).map(|k| k as f64 * 1.7).collect());
        let b = Matrix::from_vec(128, 1, (0..128).map(|k| (k as f64).sqrt()).collect());
        let seq = a.zip(&b, |&x, &y| x / y);
        let par = with_pool(3, 8, || zip(&a, &b, |&x: &f64, &y: &f64| x / y));
        for (s, p) in seq.iter().zip(par.iter()) {
            assert_eq!(s.to_bits(), p.to_bits());
        }
    }

    #[test]
    fn below_gate_stays_sequential_without_counting() {
        let m = Matrix::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]);
        // Both counter reads happen under the pool lock: a parallel test
        // dispatching between them would otherwise bump the counter.
        let (out, before, after) = with_pool(4, DEFAULT_PAR_THRESHOLD, || {
            let dispatches = majic_trace::counter("kernel.par.dispatch");
            let before = dispatches.get();
            let out = map(&m, |&v: &f64| v + 1.0);
            (out, before, dispatches.get())
        });
        assert_eq!(out.get(2, 0), 4.0);
        assert_eq!(after, before);
    }

    #[test]
    fn non_contiguous_operand_bypasses() {
        let mut m: Matrix<f64> = Matrix::zeros(4, 1);
        m.grow(5, 1, true); // introduces lda slack
        m.grow(5, 2, true);
        assert!(m.as_contiguous_slice().is_none());
        let before = majic_trace::counter("kernel.par.bypass").get();
        let out = with_pool(4, 1, || map(&m, |&v: &f64| v + 2.0));
        assert!(out.iter().all(|&v| v == 2.0));
        assert!(majic_trace::counter("kernel.par.bypass").get() > before);
    }

    #[test]
    fn dispatch_counter_and_histogram_record() {
        let m = Matrix::from_vec(256, 1, vec![1.0; 256]);
        let before = majic_trace::counter("kernel.par.dispatch").get();
        let out = with_pool(2, 16, || map(&m, |&v: &f64| v * 2.0));
        assert!(out.iter().all(|&v| v == 2.0));
        assert!(majic_trace::counter("kernel.par.dispatch").get() > before);
    }

    #[test]
    fn pool_survives_a_panicking_chunk() {
        with_pool(4, 1, || {
            let m = Matrix::from_vec(64, 1, (0..64).map(|k| k as f64).collect());
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                map(&m, |&v: &f64| {
                    assert!(v < 63.0, "poison chunk");
                    v
                })
            }));
            assert!(r.is_err(), "chunk panic must propagate to the submitter");
            // The pool must still execute subsequent jobs correctly.
            let ok = map(&m, |&v: &f64| v + 1.0);
            assert_eq!(ok.get_linear(63), 64.0);
        });
    }

    #[test]
    fn repeated_reconfiguration_joins_cleanly() {
        let _guard = config_lock();
        for &threads in &[2usize, 4, 1, 3, 0] {
            set_threads(threads);
            set_threshold(1);
            let m = Matrix::from_vec(32, 1, vec![1.5; 32]);
            let out = map(&m, |&v: &f64| v * 2.0);
            assert!(out.iter().all(|&v| v == 3.0));
        }
        set_threads(0);
        set_threshold(DEFAULT_PAR_THRESHOLD);
    }

    #[test]
    fn blocked_gemm_is_bitwise_identical() {
        // Irrational-ish values make accumulation order observable: any
        // reordering of the inner loop would flip low mantissa bits.
        let mut lcg = crate::Lcg::seeded(42);
        let a = Matrix::from_vec(24, 32, (0..768).map(|_| lcg.next_f64() * 3.7).collect());
        let b = Matrix::from_vec(32, 40, (0..1280).map(|_| lcg.next_f64() * 2.3).collect());
        let seq = crate::linalg::gemm(&a, &b).unwrap();
        for &threads in &[2usize, 4] {
            let par = with_pool(threads, 16, || crate::linalg::gemm(&a, &b).unwrap());
            assert_eq!((seq.rows(), seq.cols()), (par.rows(), par.cols()));
            for (s, p) in seq.iter().zip(par.iter()) {
                assert_eq!(s.to_bits(), p.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn run_chunks_covers_every_chunk_exactly_once() {
        with_pool(4, 1, || {
            let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
            run_chunks(hits.len(), &|c: usize| {
                hits[c].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        });
    }
}
