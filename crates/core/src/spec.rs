//! The background compilation pool (paper §2.5, made concurrent).
//!
//! The paper's repository "generates code ahead of time" so that
//! compilation latency is *hidden* from the interactive session. The
//! seed implementation ran that speculation synchronously
//! ([`crate::Session::speculate_all`]), blocking the session exactly
//! the way the paper says it must not. This module provides the
//! genuinely concurrent version: a [`SpecWorkerPool`] of OS threads
//! runs the optimizing backend off the critical path and publishes
//! [`CompiledVersion`](majic_repo::CompiledVersion)s into the shared
//! [`majic_repo::Repository`] as they finish. The same pool runs both
//! kinds of background job: speculative compiles (the signature is
//! guessed) and tier-1 recompiles of hot tier-0 code (the observed
//! signature). The foreground engine keeps answering through the
//! interpreter/JIT and transparently picks up background versions on
//! later repository lookups.
//!
//! Safety never depends on the workers: the repository's signature
//! check (`Qi ⊑ Ti`) gates every lookup, so a version published late,
//! early, or not at all can only change *performance*, never results.
//! Workers compile from the session snapshot taken at submit time, so
//! each job also captures the function's repository *invalidation
//! generation* (within the job's namespace) and publishes through
//! [`majic_repo::Repository::insert_if_current_ns`]: if the source was
//! redefined while the job was in flight, the compiled version is
//! dropped (counted in [`SpecStats::stale`]) instead of letting
//! old-source code take over dispatch.
//!
//! A pool is a *service-wide* asset: each service starts at most one at
//! a time, sized by the starting session's `TierOptions::workers`. Jobs
//! from different sessions share the workers, and each job carries a
//! snapshot of the submitting session's [`SessionCtx`], so its output
//! lands in (and its inference oracle reads from) exactly that session's
//! view of the repository.
//!
//! # Shutdown semantics
//!
//! [`SpecWorkerPool::shutdown`] closes the queue (pending jobs are
//! still drained), then joins every worker. The service calls it from
//! `Background::finish` and when it drops; dropping the pool does the
//! same — join-on-drop, so a service never leaks threads.

use crate::engine::{compile_and_publish, PhaseTimes, SessionCtx, Trigger};
use majic_repo::Repository;
use majic_types::Signature;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Bounded queue capacity; when full, submits are rejected rather than
/// blocking the session (background compilation is best-effort).
const QUEUE_CAPACITY: usize = 256;

/// One background compile: `sig = None` is a speculative job (the
/// signature is guessed); `sig = Some(_)` is a promotion job that
/// re-runs inference with that signature through the optimizing
/// pipeline (tier-1 recompilation), for a hot version or, when `replay`
/// is set, for a signature replayed from the persistent manifest.
#[derive(Debug)]
pub(crate) struct JobSpec {
    pub(crate) name: String,
    pub(crate) sig: Option<Signature>,
    pub(crate) replay: bool,
    /// The submitting session as it was at submit time: option changes
    /// between submits apply to later jobs instead of being frozen at
    /// pool start.
    pub(crate) ctx: Arc<SessionCtx>,
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
    repo: Arc<Repository>,
    stats: Mutex<SpecStats>,
}

/// A pool of background compilation workers.
#[derive(Debug)]
pub(crate) struct SpecWorkerPool {
    shared: Arc<PoolShared>,
    /// Joined by [`SpecWorkerPool::shutdown`]; behind a `Mutex` so a
    /// pool shared through `Arc` can still be shut down via `&self`.
    handles: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
}

impl SpecWorkerPool {
    /// Start `workers` threads publishing into `repo`. `0` is allowed
    /// and means the pool accepts no jobs (every submit is rejected).
    pub fn start(workers: usize, repo: Arc<Repository>) -> SpecWorkerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue::default()),
            job_ready: Condvar::new(),
            idle: Condvar::new(),
            repo,
            stats: Mutex::new(SpecStats::default()),
        });
        let handles = (0..workers)
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
            worker_count: workers,
        }
    }

    /// Queue a job. Returns `false` (and records a rejection) when the
    /// pool has no workers, the queue is full, or the pool is shut down
    /// — background compilation is best-effort and never blocks the
    /// caller.
    pub(crate) fn submit(&self, spec: JobSpec) -> bool {
        // Captured before the job is queued: the caller's registry
        // snapshot is current *now*, so a later invalidation (source
        // redefinition in this namespace) bumps the generation past
        // this value and the worker's publish is rejected.
        let generation = self
            .shared
            .repo
            .generation_ns(&spec.name, spec.ctx.ns(&spec.name));
        let accepted = {
            let mut q = self.shared.queue.lock().expect("spec queue poisoned");
            if q.closed || self.worker_count == 0 || q.jobs.len() >= QUEUE_CAPACITY {
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
        // Failures (globals etc.) leave no background version; those
        // calls interpret or JIT later.
        let outcome = compile_and_publish(
            &job.ctx,
            &shared.repo,
            &job.name,
            job.sig.as_ref(),
            Trigger::Job {
                generation,
                queue_wait,
                replay: job.replay,
            },
            &mut PhaseTimes::default(),
        );

        {
            let mut stats = shared.stats.lock().expect("spec stats poisoned");
            match outcome {
                Ok(Some(_)) => stats.published += 1,
                Ok(None) => stats.stale += 1,
                Err(_) => stats.failed += 1,
            }
        }

        let mut q = shared.queue.lock().expect("spec queue poisoned");
        q.in_flight -= 1;
        if q.jobs.is_empty() && q.in_flight == 0 {
            shared.idle.notify_all();
        }
    }
}
