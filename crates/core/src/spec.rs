//! Background speculative compilation (paper §2.5, made concurrent).
//!
//! The paper's repository "generates code ahead of time" so that
//! compilation latency is *hidden* from the interactive session. The
//! seed implementation ran that speculation synchronously
//! ([`crate::Session::speculate_all`]), blocking the session exactly
//! the way the paper says it must not. This module provides the
//! genuinely concurrent version: a [`SpecWorkerPool`] of OS threads
//! runs the speculative inference + optimizing backend off the critical
//! path and publishes [`CompiledVersion`](majic_repo::CompiledVersion)s
//! into the shared [`majic_repo::Repository`] as they finish. The
//! foreground engine keeps answering through the interpreter/JIT and
//! transparently picks up speculative versions on later repository
//! lookups.
//!
//! Safety never depends on the workers: the repository's signature
//! check (`Qi ⊑ Ti`) gates every lookup, so a version published late,
//! early, or not at all can only change *performance*, never results.
//! Workers compile from a registry snapshot taken at enqueue time, so
//! each job also captures the function's repository *invalidation
//! generation* (within the job's namespace) and publishes through
//! [`majic_repo::Repository::insert_if_current_ns`]: if the source was
//! redefined while the job was in flight, the compiled version is
//! dropped (counted in [`SpecStats::stale`]) instead of letting
//! old-source code take over dispatch.
//!
//! A pool is a *service-wide* asset: jobs from different sessions share
//! the workers, and each job carries the namespace, session id, and
//! closure-hash table of the session that submitted it, so its output
//! lands in (and its inference oracle reads from) exactly that
//! session's view of the repository.
//!
//! # Shutdown semantics
//!
//! [`SpecWorkerPool::shutdown`] closes the queue (pending jobs are
//! still drained), then joins every worker. It takes `&self`, so a pool
//! shared behind an `Arc` can be shut down by whichever owner finishes
//! last. Dropping the pool does the same — join-on-drop, so a session
//! never leaks threads.

use crate::engine::{compile_function, EngineOptions, PhaseTimes, Pipeline};
use majic_ast::Function;
use majic_repo::Repository;
use majic_types::Signature;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker-pool configuration.
#[derive(Clone, Copy, Debug)]
pub struct SpecConfig {
    /// Number of worker threads. `0` is allowed and means the pool
    /// accepts no jobs (every enqueue is rejected) — useful as the
    /// "speculation off" arm of an experiment.
    pub workers: usize,
    /// Bounded queue capacity; when full, enqueues are rejected rather
    /// than blocking the session (speculation is best-effort).
    pub queue_capacity: usize,
}

impl Default for SpecConfig {
    fn default() -> Self {
        SpecConfig {
            workers: 2,
            queue_capacity: 256,
        }
    }
}

/// Everything a background job needs, captured at submit time: the
/// compile inputs (registry/known snapshot, options), plus the
/// submitting session's identity (namespace, session id, closure-hash
/// table) and whether its service wants the compile audited. `sig =
/// None` is a speculative job (the signature is guessed); `sig =
/// Some(_)` is a hot-promotion job that re-runs inference with the
/// observed signature through the optimizing pipeline (tier-1
/// recompilation).
#[derive(Debug)]
pub(crate) struct JobSpec {
    pub(crate) name: String,
    pub(crate) sig: Option<Signature>,
    /// Namespace the result publishes into (the submitting session's
    /// closure hash for `name`).
    pub(crate) ns: u64,
    /// Session the job is attributed to.
    pub(crate) session: u64,
    pub(crate) registry: Arc<HashMap<String, Function>>,
    pub(crate) known: Arc<HashSet<String>>,
    /// The submitting session's closure-hash table: the worker's
    /// inference oracle resolves callee output types through it, so a
    /// background compile sees exactly the caller's view of every
    /// callee.
    pub(crate) hashes: Arc<HashMap<String, u64>>,
    /// Engine options in effect when the job was submitted: option
    /// mutations between submits apply to later jobs instead of being
    /// frozen at pool start.
    pub(crate) options: EngineOptions,
    /// The submitting service's audit flag at submit time.
    pub(crate) audit: bool,
}

/// One queued unit of work: a [`JobSpec`] plus what the pool captured
/// when it accepted the job.
#[derive(Debug)]
struct Job {
    spec: JobSpec,
    /// The (function, namespace) invalidation generation at submit
    /// time; the publish is dropped if it no longer matches (the source
    /// was redefined while this job was in flight).
    generation: u64,
    enqueued: Instant,
}

/// Aggregate observability for a pool's lifetime. Every counter is
/// exact; per-job detail (trigger, queue wait, compile time, outcome)
/// lives in the compilation audit log.
#[derive(Clone, Debug, Default)]
pub struct SpecStats {
    /// Jobs accepted into the queue.
    pub enqueued: u64,
    /// Versions published into the repository.
    pub published: u64,
    /// Jobs whose compilation failed (no version published).
    pub failed: u64,
    /// Jobs that compiled fine but were dropped at publish time because
    /// the function's source was redefined while they were in flight.
    pub stale: u64,
    /// Enqueues rejected because the queue was full or closed.
    pub rejected: u64,
    /// Exact queue-wait total across all completed jobs.
    pub queue_wait_total: Duration,
    /// Exact compile-time total across all completed jobs.
    pub compile_total: Duration,
}

impl SpecStats {
    /// Jobs that ran to completion (published, failed, or stale).
    pub fn completed(&self) -> u64 {
        self.published + self.failed + self.stale
    }
}

#[derive(Debug, Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Jobs dequeued but not yet finished.
    in_flight: usize,
    closed: bool,
}

#[derive(Debug)]
struct PoolShared {
    queue: Mutex<Queue>,
    /// Signals workers that a job (or shutdown) is available.
    job_ready: Condvar,
    /// Signals waiters that the pool went idle (queue empty, nothing in
    /// flight).
    idle: Condvar,
    capacity: usize,
    repo: Arc<Repository>,
    stats: Mutex<SpecStats>,
}

/// A pool of background speculative-compilation workers.
#[derive(Debug)]
pub(crate) struct SpecWorkerPool {
    shared: Arc<PoolShared>,
    /// Joined by [`SpecWorkerPool::shutdown`]; behind a `Mutex` so a
    /// pool shared through `Arc` can still be shut down via `&self`.
    handles: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
}

impl SpecWorkerPool {
    /// Start `cfg.workers` threads publishing into `repo`. Each job
    /// carries the engine options in effect when it was submitted.
    pub fn start(cfg: SpecConfig, repo: Arc<Repository>) -> SpecWorkerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue::default()),
            job_ready: Condvar::new(),
            idle: Condvar::new(),
            capacity: cfg.queue_capacity.max(1),
            repo,
            stats: Mutex::new(SpecStats::default()),
        });
        let handles = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("majic-spec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn speculative worker")
            })
            .collect();
        SpecWorkerPool {
            shared,
            handles: Mutex::new(handles),
            worker_count: cfg.workers,
        }
    }

    /// Queue a job. The [`JobSpec`] carries the namespace, session id,
    /// and hash table of the submitting session. Returns `false` (and
    /// records a rejection) when the pool has no workers, the queue is
    /// full, or the pool is shut down — speculation is best-effort and
    /// never blocks the caller.
    pub(crate) fn submit(&self, spec: JobSpec) -> bool {
        // Captured before the job is queued: the caller's registry
        // snapshot is current *now*, so a later invalidation (source
        // redefinition in this namespace) bumps the generation past
        // this value and the worker's publish is rejected.
        let generation = self.shared.repo.generation_ns(&spec.name, spec.ns);
        let accepted = {
            let mut q = self.shared.queue.lock().expect("spec queue poisoned");
            if q.closed || self.worker_count == 0 || q.jobs.len() >= self.shared.capacity {
                false
            } else {
                q.jobs.push_back(Job {
                    spec,
                    generation,
                    enqueued: Instant::now(),
                });
                true
            }
        };
        let mut stats = self.shared.stats.lock().expect("spec stats poisoned");
        if accepted {
            stats.enqueued += 1;
            drop(stats);
            self.shared.job_ready.notify_one();
        } else {
            stats.rejected += 1;
        }
        accepted
    }

    /// Block until every accepted job has been compiled and published
    /// (or failed). Used by tests and the deterministic arms of the
    /// responsiveness experiment; interactive sessions never call this.
    pub fn wait_idle(&self) {
        let mut q = self.shared.queue.lock().expect("spec queue poisoned");
        while !(q.jobs.is_empty() && q.in_flight == 0) {
            q = self.shared.idle.wait(q).expect("spec queue poisoned");
        }
    }

    /// Snapshot of the pool's statistics.
    pub fn stats(&self) -> SpecStats {
        self.shared
            .stats
            .lock()
            .expect("spec stats poisoned")
            .clone()
    }

    /// Close the queue and join all workers. Pending jobs are drained
    /// first; new enqueues are rejected. Idempotent, and callable
    /// through a shared reference (the pool is a service-wide asset
    /// held behind an `Arc`).
    pub fn shutdown(&self) {
        {
            let mut q = self.shared.queue.lock().expect("spec queue poisoned");
            q.closed = true;
        }
        self.shared.job_ready.notify_all();
        let handles: Vec<JoinHandle<()>> = self
            .handles
            .lock()
            .expect("spec handles poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for SpecWorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("spec queue poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    q.in_flight += 1;
                    break job;
                }
                if q.closed {
                    return;
                }
                q = shared.job_ready.wait(q).expect("spec queue poisoned");
            }
        };
        let Job {
            spec: job,
            generation,
            enqueued,
        } = job;
        let queue_wait = enqueued.elapsed();
        // The wait span is recorded retroactively with the enqueue
        // timestamp as its start, so Chrome traces show the job sitting
        // in the queue on this worker's track before compilation begins.
        majic_trace::record_interval("spec.queue_wait", enqueued, queue_wait, || {
            vec![("fn", job.name.clone())]
        });

        // Compile outside every lock: this is the expensive part and the
        // whole point is that it happens off the session's critical path.
        // Node ids are scratch — the inlined function is private to this
        // job — so a worker-local counter is safe.
        let mut scratch_ids: u32 = 1 << 24;
        let mut times = PhaseTimes::default();
        // The audit scope opens only if the submitting service wanted it
        // (or the process-wide switch is on): a service with auditing
        // off must not pollute another service's flight recorder.
        if job.audit || majic_trace::audit::process_enabled() {
            majic_trace::audit::begin(&job.name);
            majic_trace::audit::session_id(job.session);
        }
        let sp = majic_trace::Span::enter_with("spec.compile", || {
            vec![
                ("fn", job.name.clone()),
                ("session", job.session.to_string()),
            ]
        });
        let compiled = compile_function(
            &job.registry,
            &job.known,
            &shared.repo,
            &job.hashes,
            &job.options,
            &job.name,
            job.sig.as_ref(),
            Pipeline::Opt,
            &mut scratch_ids,
            &mut times,
        );
        let compile = sp.exit();
        let trigger = if job.sig.is_some() {
            "recompile_hot"
        } else {
            "spec_worker"
        };

        // Publish before committing the audit record so the recorded
        // outcome is the real one. The generation check rejects versions
        // whose source was redefined while this job was in flight —
        // publishing them would dispatch old-source code.
        let signature = match (&compiled, &job.sig) {
            (Ok(v), _) => v.signature.to_string(),
            (Err(_), Some(s)) => s.to_string(),
            (Err(_), None) => "(speculative)".to_owned(),
        };
        let (published, stale, outcome) = match compiled {
            Ok(version) => {
                let quality = crate::engine::quality_name(version.quality);
                if shared.repo.insert_if_current_ns(
                    &job.name,
                    job.ns,
                    generation,
                    job.session,
                    version,
                ) {
                    (true, false, format!("published ({quality})"))
                } else {
                    (
                        false,
                        true,
                        "dropped: source redefined while compiling".to_owned(),
                    )
                }
            }
            // Failures (globals etc.) leave no speculative version;
            // those calls interpret or JIT later.
            Err(e) => (false, false, format!("failed: {e}")),
        };
        majic_trace::audit::commit(
            || signature,
            trigger,
            || outcome,
            Some(queue_wait.as_nanos() as u64),
            compile.as_nanos() as u64,
        );

        {
            let mut stats = shared.stats.lock().expect("spec stats poisoned");
            if published {
                stats.published += 1;
            } else if stale {
                stats.stale += 1;
            } else {
                stats.failed += 1;
            }
            stats.queue_wait_total += queue_wait;
            stats.compile_total += compile;
        }

        let mut q = shared.queue.lock().expect("spec queue poisoned");
        q.in_flight -= 1;
        if q.jobs.is_empty() && q.in_flight == 0 {
            shared.idle.notify_all();
        }
    }
}
