//! The distributed campaign coordinator: job queue, shard leases and
//! the local driver pool.
//!
//! Jobs move `Queued → Running → Done | Failed | Cancelled`. A fixed pool
//! of driver threads pops queued jobs, rebuilds the campaign from the job
//! spec (assemble → golden run → def/use plan), and splits the uncovered
//! fault-list tail into fixed-size *shards* ([`sofi_campaign::resume`]).
//! Each shard is then executed under a **lease**:
//!
//! * the local driver claims pending shards itself (worker id 0) and runs
//!   them through the in-process [`sofi_campaign::Campaign`] executor;
//! * registered remote workers poll [`Coordinator::request_lease`], get a
//!   shard's experiment list plus the full spec, execute it with their
//!   own campaign instance, and stream the outcomes back through
//!   [`Coordinator::upload`].
//!
//! Both paths converge on one idempotent commit: a shard commit is valid
//! only while the job is `Running`, the shard is still leased under the
//! uploaded lease id, and the uploaded experiment ids are exactly the
//! shard's ids. Committed outcomes are journaled *before* progress
//! advances, so a crash at any point loses at most in-flight shards,
//! never a reported one. A lease that is not committed before its
//! deadline (dead or partitioned worker) is re-queued — the worker loses
//! only its uncommitted work. Duplicate uploads after a re-grant are
//! detected by the shard's phase and acknowledged without a second
//! commit, so outcomes are never double-counted.
//!
//! On startup the coordinator replays the journal: jobs with a terminal
//! record are kept for status queries; jobs interrupted mid-campaign
//! (start record, no end record) are re-queued with their committed
//! results pre-loaded, and only the uncovered tail of the fault list is
//! re-dispatched. Because `assemble_result` sorts outcomes by experiment
//! id, the merged result is bit-identical to a single-process run no
//! matter how shards were interleaved across workers, crashes and
//! restarts.

use crate::job::{JobSpec, JobState, JobStatus, WorkerStatus};
use crate::journal::{self, Journal, Record};
use crate::protocol::UploadOutcome;
use crate::store::{self, WarmStore};
use sofi_campaign::{resume, Campaign, CampaignResult, ExecutorStats, ExperimentResult};
use sofi_isa::assemble_text;
use sofi_space::Experiment;
use sofi_telemetry::{names, Registry, Snapshot};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent local campaign drivers (each job additionally
    /// parallelizes internally per its own `CampaignConfig::threads`).
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it get a Busy response.
    pub queue_capacity: usize,
    /// Experiments per journaled shard (progress granularity, the unit
    /// of work leased to remote workers, and the upper bound on work
    /// lost in a crash).
    pub batch_size: usize,
    /// Idle-client read timeout on daemon connections.
    pub idle_timeout: Duration,
    /// How long a remote worker may sit on a leased shard without a
    /// commit or heartbeat before the shard is re-queued for someone
    /// else. Heartbeats renew every lease the worker holds.
    pub lease_timeout: Duration,
    /// When `true`, local drivers execute shards themselves only while
    /// *no* live remote worker is registered — the daemon becomes a pure
    /// coordinator as soon as workers attach (scaling benchmarks, or
    /// boxes that should only schedule). The local fallback keeps jobs
    /// live if every worker dies.
    pub remote_only: bool,
    /// Test hook: simulate the daemon being killed after this many shard
    /// commits in this process — drivers stop dead, no end records are
    /// written, the journal is left exactly as a real kill would leave
    /// it. `None` (the default) in production.
    pub crash_after_commits: Option<u64>,
    /// Path of the persistent cross-campaign warm store
    /// ([`crate::store::WarmStore`]); `None` (the default) disables the
    /// store entirely — jobs neither look up nor persist outcomes.
    pub warm_store: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            batch_size: 32,
            idle_timeout: Duration::from_secs(30),
            lease_timeout: Duration::from_secs(10),
            remote_only: false,
            crash_after_commits: None,
            warm_store: None,
        }
    }
}

/// Outcome of a submission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Queued under the given job id.
    Accepted(u64),
    /// Queue full — backpressure.
    Busy {
        /// Jobs currently queued.
        queued: u32,
        /// The configured capacity.
        capacity: u32,
    },
    /// The daemon is draining and accepts no new jobs.
    ShuttingDown,
}

/// Outcome of a cancellation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job will not (further) execute.
    Cancelled,
    /// The job had already reached a terminal state.
    AlreadyTerminal(JobState),
    /// No such job id.
    Unknown,
}

/// A progress snapshot returned by [`Coordinator::wait_progress`].
#[derive(Debug, Clone)]
pub struct JobUpdate {
    /// Point-in-time status.
    pub status: JobStatus,
    /// The final result + stats, present once the job is `Done`.
    pub outcome: Option<(CampaignResult, ExecutorStats)>,
}

/// What [`Coordinator::request_lease`] hands a polling worker.
#[derive(Debug, Clone)]
pub enum LeaseOffer {
    /// A shard to execute: rebuild the campaign from `spec`, run exactly
    /// `experiments`, upload under `lease` before the deadline.
    Grant {
        /// Lease id; quote it verbatim in the upload.
        lease: u64,
        /// Job id.
        job: u64,
        /// Shard index within the job's dispatch tail.
        shard: u32,
        /// The job spec (program source, domain, config).
        spec: JobSpec,
        /// The shard's experiments.
        experiments: Vec<Experiment>,
    },
    /// Nothing to lease right now.
    NoWork {
        /// `true` once the daemon drains — workers should exit rather
        /// than keep polling.
        draining: bool,
    },
}

/// One shard's lifecycle within a running job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardPhase {
    /// Waiting to be claimed (locally or by a remote lease).
    Pending,
    /// Claimed; `worker` 0 is the local driver (never expires).
    Leased {
        /// Lease id the commit must quote.
        lease: u64,
        /// Holder (0 = local driver).
        worker: u64,
        /// Re-queue time for remote holders.
        deadline: Instant,
    },
    /// Outcomes journaled; duplicate uploads are acknowledged as such.
    Committed,
}

#[derive(Debug)]
struct Shard {
    experiments: Vec<Experiment>,
    phase: ShardPhase,
}

/// A registered remote worker.
#[derive(Debug)]
struct WorkerInfo {
    name: String,
    last_seen: Instant,
    leases: u32,
    shards_committed: u64,
    experiments_committed: u64,
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    cancel: bool,
    done: u64,
    total: u64,
    /// Committed outcomes: journal-replayed results plus this
    /// incarnation's shards, in commit order.
    results: Vec<ExperimentResult>,
    outcome: Option<(CampaignResult, ExecutorStats)>,
    error: String,
    /// Executor counters merged from every shard committed so far —
    /// the live figures behind mid-run status queries. Shards merge via
    /// [`ExecutorStats::absorb_batch`] (counters sum, `workers` peaks).
    stats: ExecutorStats,
    /// The dispatch tail, populated by the driver once the plan is
    /// known; empty (with `shards_ready` false) before that and after
    /// the job ends.
    shards: Vec<Shard>,
    shards_ready: bool,
    /// Per-job telemetry registry, always enabled: the campaign records
    /// its spans and histograms here regardless of the spec's
    /// `telemetry` flag, so `Stats` queries work for every job.
    telemetry: Registry,
}

impl JobEntry {
    fn new(spec: JobSpec, state: JobState, results: Vec<ExperimentResult>) -> JobEntry {
        JobEntry {
            spec,
            state,
            cancel: false,
            done: results.len() as u64,
            total: 0,
            results,
            outcome: None,
            error: String::new(),
            stats: ExecutorStats::default(),
            shards: Vec::new(),
            shards_ready: false,
            telemetry: Registry::enabled(),
        }
    }

    fn status(&self, id: u64) -> JobStatus {
        JobStatus {
            id,
            name: self.spec.name.clone(),
            domain: self.spec.domain,
            state: self.state,
            done: self.done,
            total: self.total,
            error: self.error.clone(),
            stats: self.stats,
        }
    }
}

#[derive(Debug)]
struct CoordState {
    journal: Journal,
    jobs: BTreeMap<u64, JobEntry>,
    queue: VecDeque<u64>,
    next_id: u64,
    workers: HashMap<u64, WorkerInfo>,
    next_worker: u64,
    /// Lease ids are seeded from the journal commit count at open
    /// (shifted high), so a restarted coordinator practically never
    /// re-issues a lease id an old incarnation's worker might still
    /// quote. (Even a collision is harmless: a commit must also match
    /// the shard's exact experiment-id set, and outcomes are
    /// deterministic.)
    next_lease: u64,
    draining: bool,
    /// Set by the crash hook: every driver stops dead, nothing further
    /// is journaled.
    crashed: bool,
    batch_commits: u64,
}

#[derive(Debug)]
struct Inner {
    config: ServeConfig,
    state: Mutex<CoordState>,
    /// Wakes drivers (queue push, shard commit, lease re-queue, drain,
    /// crash).
    work_cv: Condvar,
    /// Wakes status watchers (progress, state transitions).
    watch_cv: Condvar,
    /// Daemon-wide telemetry: job lifecycle counters, queue-depth gauge,
    /// lease/upload counters, journal fsync latencies. Per-job
    /// registries live in [`JobEntry`].
    telemetry: Registry,
    /// The persistent cross-campaign warm store, when configured. Its
    /// own lock (not the coordinator state's): store appends fsync, and
    /// stalling status queries behind a disk flush would be rude.
    store: Option<Mutex<WarmStore>>,
}

impl Inner {
    /// Journals one record, timing the write+fsync into the
    /// `serve.journal_fsync_ns` histogram. Call with the state lock held
    /// (the journal lives inside it).
    fn append_timed(&self, st: &mut CoordState, record: &Record) -> io::Result<()> {
        let span = self.telemetry.span(names::JOURNAL_FSYNC_NS);
        let result = st.journal.append(record);
        span.finish();
        result
    }
}

/// Remote leases currently outstanding (local driver claims excluded).
fn active_leases(st: &CoordState) -> u64 {
    st.jobs
        .values()
        .flat_map(|j| j.shards.iter())
        .filter(|s| matches!(s.phase, ShardPhase::Leased { worker, .. } if worker != 0))
        .count() as u64
}

/// Re-queues every expired remote lease: the shard returns to `Pending`
/// and the (dead or partitioned) worker loses credit for it. Local
/// driver claims (worker 0) never expire — the driver thread is alive by
/// construction while it holds one.
fn reclaim_expired(telemetry: &Registry, st: &mut CoordState) {
    let now = Instant::now();
    let mut requeued = 0u64;
    let CoordState { jobs, workers, .. } = st;
    for job in jobs.values_mut() {
        if job.state != JobState::Running {
            continue;
        }
        for shard in &mut job.shards {
            if let ShardPhase::Leased {
                worker, deadline, ..
            } = shard.phase
            {
                if worker != 0 && deadline <= now {
                    shard.phase = ShardPhase::Pending;
                    requeued += 1;
                    if let Some(w) = workers.get_mut(&worker) {
                        w.leases = w.leases.saturating_sub(1);
                    }
                }
            }
        }
    }
    if requeued > 0 {
        telemetry.counter(names::LEASES_REQUEUED).add(requeued);
        telemetry.gauge(names::LEASES_ACTIVE).set(active_leases(st));
    }
}

/// `true` while at least one registered worker has been heard from
/// within the lease timeout.
fn any_live_worker(st: &CoordState, lease_timeout: Duration) -> bool {
    st.workers
        .values()
        .any(|w| w.last_seen.elapsed() < lease_timeout)
}

/// The campaign coordinator: owns the journal, the job table, the lease
/// table and the local driver pool. All methods take `&self`; clone the
/// [`Arc`] wrapper to share it with server connection threads.
#[derive(Debug)]
pub struct Coordinator {
    inner: Arc<Inner>,
    drivers: Mutex<Vec<JoinHandle<()>>>,
}

impl Coordinator {
    /// Opens the journal at `path`, recovers interrupted jobs, and
    /// starts the driver pool.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O failures.
    pub fn open(path: &Path, config: ServeConfig) -> io::Result<Coordinator> {
        let (journal, records) = Journal::open(path)?;
        let recovered = journal::recover(records);
        let mut jobs = BTreeMap::new();
        let mut queue = VecDeque::new();
        let mut next_id = 1;
        for job in recovered {
            next_id = next_id.max(job.job + 1);
            let interrupted = job.end.is_none();
            let state = if interrupted {
                JobState::Queued
            } else {
                job.end.unwrap()
            };
            jobs.insert(job.job, JobEntry::new(job.spec, state, job.results));
            if interrupted {
                queue.push_back(job.job);
            }
        }
        let telemetry = Registry::enabled();
        telemetry.gauge(names::QUEUE_DEPTH).set(queue.len() as u64);
        let store = match &config.warm_store {
            Some(path) => Some(Mutex::new(WarmStore::open(path)?)),
            None => None,
        };
        let next_lease = (journal.commits() << 32) | 1;
        let inner = Arc::new(Inner {
            config: config.clone(),
            state: Mutex::new(CoordState {
                journal,
                jobs,
                queue,
                next_id,
                workers: HashMap::new(),
                next_worker: 1,
                next_lease,
                draining: false,
                crashed: false,
                batch_commits: 0,
            }),
            work_cv: Condvar::new(),
            watch_cv: Condvar::new(),
            telemetry,
            store,
        });
        let drivers = (0..config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || driver_loop(&inner))
            })
            .collect();
        Ok(Coordinator {
            inner,
            drivers: Mutex::new(drivers),
        })
    }

    /// The daemon configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    /// Submits a job: journals the start record and queues it, or
    /// reports backpressure / drain.
    pub fn submit(&self, spec: JobSpec) -> SubmitOutcome {
        let mut st = self.inner.state.lock().unwrap();
        if st.draining || st.crashed {
            return SubmitOutcome::ShuttingDown;
        }
        if st.queue.len() >= self.inner.config.queue_capacity {
            return SubmitOutcome::Busy {
                queued: st.queue.len() as u32,
                capacity: self.inner.config.queue_capacity as u32,
            };
        }
        let id = st.next_id;
        // Commit the start record first: a job the client saw accepted
        // survives a crash.
        if self
            .inner
            .append_timed(
                &mut st,
                &Record::JobStart {
                    job: id,
                    spec: spec.clone(),
                },
            )
            .is_err()
        {
            return SubmitOutcome::Busy {
                queued: st.queue.len() as u32,
                capacity: self.inner.config.queue_capacity as u32,
            };
        }
        st.next_id += 1;
        st.jobs
            .insert(id, JobEntry::new(spec, JobState::Queued, Vec::new()));
        st.queue.push_back(id);
        self.inner.telemetry.counter(names::JOBS_SUBMITTED).incr();
        self.inner
            .telemetry
            .gauge(names::QUEUE_DEPTH)
            .set(st.queue.len() as u64);
        drop(st);
        self.inner.work_cv.notify_one();
        SubmitOutcome::Accepted(id)
    }

    /// Status of one job (`None` if unknown) or of every known job.
    pub fn status(&self, job: Option<u64>) -> Option<Vec<JobStatus>> {
        let st = self.inner.state.lock().unwrap();
        match job {
            Some(id) => st.jobs.get(&id).map(|j| vec![j.status(id)]),
            None => Some(st.jobs.iter().map(|(&id, j)| j.status(id)).collect()),
        }
    }

    /// Requests cancellation. Queued jobs are cancelled immediately
    /// (with a journaled end record); running jobs stop at the next
    /// shard boundary.
    pub fn cancel(&self, id: u64) -> CancelOutcome {
        let mut st = self.inner.state.lock().unwrap();
        let Some(job) = st.jobs.get_mut(&id) else {
            return CancelOutcome::Unknown;
        };
        if job.state.is_terminal() {
            return CancelOutcome::AlreadyTerminal(job.state);
        }
        job.cancel = true;
        if job.state == JobState::Queued {
            job.state = JobState::Cancelled;
            st.queue.retain(|&q| q != id);
            if !st.crashed {
                let _ = self.inner.append_timed(
                    &mut st,
                    &Record::End {
                        job: id,
                        state: JobState::Cancelled,
                    },
                );
            }
            self.inner.telemetry.counter(names::JOBS_FINISHED).incr();
            self.inner
                .telemetry
                .gauge(names::QUEUE_DEPTH)
                .set(st.queue.len() as u64);
        }
        drop(st);
        // Wake drivers so a running job notices the flag at its next
        // claim-loop pass even if no shard commits in the meantime.
        self.inner.work_cv.notify_all();
        self.inner.watch_cv.notify_all();
        CancelOutcome::Cancelled
    }

    /// The final result of a `Done` job, if it finished in this daemon
    /// incarnation.
    pub fn result(&self, id: u64) -> Option<(CampaignResult, ExecutorStats)> {
        self.inner
            .state
            .lock()
            .unwrap()
            .jobs
            .get(&id)?
            .outcome
            .clone()
    }

    /// A point-in-time telemetry snapshot: one job's registry, or (for
    /// `None`) the daemon-wide registry merged with every job's.
    /// Returns `None` only for an unknown job id.
    pub fn telemetry_snapshot(&self, job: Option<u64>) -> Option<Snapshot> {
        let st = self.inner.state.lock().unwrap();
        match job {
            Some(id) => st.jobs.get(&id).map(|j| j.telemetry.snapshot()),
            None => {
                let mut snap = self.inner.telemetry.snapshot();
                for j in st.jobs.values() {
                    snap.merge(&j.telemetry.snapshot());
                }
                Some(snap)
            }
        }
    }

    /// Registers a remote worker under a fresh id and returns
    /// `(worker_id, lease_timeout_ms)`. A worker that reconnects simply
    /// re-registers; the stale registration ages out of the live set and
    /// its leases expire back to the queue.
    pub fn register(&self, name: &str) -> (u64, u64) {
        let mut st = self.inner.state.lock().unwrap();
        let id = st.next_worker;
        st.next_worker += 1;
        st.workers.insert(
            id,
            WorkerInfo {
                name: name.to_string(),
                last_seen: Instant::now(),
                leases: 0,
                shards_committed: 0,
                experiments_committed: 0,
            },
        );
        self.inner
            .telemetry
            .counter(names::WORKERS_REGISTERED)
            .incr();
        (id, self.inner.config.lease_timeout.as_millis() as u64)
    }

    /// Worker liveness ping: refreshes the worker's `last_seen` and
    /// renews every lease it holds. Returns `(draining, known)`; a
    /// worker seeing `known == false` (coordinator restarted) must
    /// re-register before its uploads can be credited.
    pub fn heartbeat(&self, worker: u64) -> (bool, bool) {
        let mut st = self.inner.state.lock().unwrap();
        self.inner.telemetry.counter(names::HEARTBEATS).incr();
        let now = Instant::now();
        let known = match st.workers.get_mut(&worker) {
            Some(w) => {
                w.last_seen = now;
                true
            }
            None => false,
        };
        if known {
            let deadline = now + self.inner.config.lease_timeout;
            for job in st.jobs.values_mut() {
                for shard in &mut job.shards {
                    if let ShardPhase::Leased {
                        worker: holder,
                        deadline: d,
                        ..
                    } = &mut shard.phase
                    {
                        if *holder == worker {
                            *d = deadline;
                        }
                    }
                }
            }
        }
        (st.draining, known)
    }

    /// Offers the polling worker a shard lease: the first `Pending`
    /// shard of the lowest-id `Running` job, after expired leases have
    /// been re-queued. Jobs already accepted keep being dispatched
    /// during a drain — `NoWork { draining: true }` is returned only
    /// when the drain has nothing left to lease, telling workers to
    /// exit instead of poll.
    pub fn request_lease(&self, worker: u64) -> LeaseOffer {
        let mut st = self.inner.state.lock().unwrap();
        if st.crashed {
            return LeaseOffer::NoWork { draining: true };
        }
        let now = Instant::now();
        if let Some(w) = st.workers.get_mut(&worker) {
            w.last_seen = now;
        } else {
            // Unregistered (coordinator restarted): heartbeats report
            // `known == false`, prompting re-registration.
            return LeaseOffer::NoWork {
                draining: st.draining,
            };
        }
        reclaim_expired(&self.inner.telemetry, &mut st);
        let mut found = None;
        for (&jid, job) in st.jobs.iter() {
            if job.state != JobState::Running || !job.shards_ready {
                continue;
            }
            if let Some(idx) = job
                .shards
                .iter()
                .position(|s| s.phase == ShardPhase::Pending)
            {
                found = Some((jid, idx));
                break;
            }
        }
        let Some((jid, idx)) = found else {
            return LeaseOffer::NoWork {
                draining: st.draining,
            };
        };
        let lease = st.next_lease;
        st.next_lease += 1;
        let deadline = now + self.inner.config.lease_timeout;
        let (spec, experiments) = {
            let job = st.jobs.get_mut(&jid).expect("job exists");
            job.shards[idx].phase = ShardPhase::Leased {
                lease,
                worker,
                deadline,
            };
            (job.spec.clone(), job.shards[idx].experiments.clone())
        };
        if let Some(w) = st.workers.get_mut(&worker) {
            w.leases += 1;
        }
        // Advisory timeline record; recovery ignores it.
        let _ = self.inner.append_timed(
            &mut st,
            &Record::Lease {
                job: jid,
                shard: idx as u32,
                lease,
                worker,
            },
        );
        self.inner.telemetry.counter(names::LEASES_GRANTED).incr();
        self.inner
            .telemetry
            .gauge(names::LEASES_ACTIVE)
            .set(active_leases(&st));
        LeaseOffer::Grant {
            lease,
            job: jid,
            shard: idx as u32,
            spec,
            experiments,
        }
    }

    /// Accepts a shard's streamed results from a remote worker and
    /// merges them through the idempotent commit path. `Committed` means
    /// the outcomes are journaled and counted exactly once; `Duplicate`
    /// acknowledges a shard someone (possibly this worker, retrying)
    /// already committed; `StaleLease` rejects uploads whose lease
    /// expired, was re-granted, or whose contents do not match the
    /// shard.
    pub fn upload(
        &self,
        worker: u64,
        lease: u64,
        job: u64,
        shard: u32,
        results: Vec<ExperimentResult>,
        stats: &ExecutorStats,
    ) -> UploadOutcome {
        let outcome = commit_shard(&self.inner, worker, lease, job, shard, results, stats);
        match outcome {
            UploadOutcome::Committed => {
                self.inner.telemetry.counter(names::SHARDS_UPLOADED).incr();
            }
            UploadOutcome::Duplicate => {
                self.inner
                    .telemetry
                    .counter(names::UPLOADS_DUPLICATE)
                    .incr();
            }
            UploadOutcome::StaleLease => {
                self.inner.telemetry.counter(names::UPLOADS_STALE).incr();
            }
        }
        outcome
    }

    /// Point-in-time view of every registered worker, sorted by id.
    pub fn workers(&self) -> Vec<WorkerStatus> {
        let st = self.inner.state.lock().unwrap();
        let lease_timeout = self.inner.config.lease_timeout;
        let mut out: Vec<WorkerStatus> = st
            .workers
            .iter()
            .map(|(&id, w)| {
                let elapsed = w.last_seen.elapsed();
                WorkerStatus {
                    id,
                    name: w.name.clone(),
                    alive: elapsed < lease_timeout,
                    leases_active: w.leases,
                    shards_committed: w.shards_committed,
                    experiments_committed: w.experiments_committed,
                    last_seen_ms: elapsed.as_millis() as u64,
                }
            })
            .collect();
        out.sort_by_key(|w| w.id);
        out
    }

    /// Blocks until `job` progresses past `last_done` committed
    /// experiments or reaches a terminal state, then returns a snapshot.
    /// Returns `None` for unknown jobs and when the daemon crash hook
    /// has tripped (no further progress will happen).
    pub fn wait_progress(&self, job: u64, last_done: u64) -> Option<JobUpdate> {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            if st.crashed {
                return None;
            }
            let entry = st.jobs.get(&job)?;
            if entry.state.is_terminal() || entry.done != last_done {
                return Some(JobUpdate {
                    status: entry.status(job),
                    outcome: entry.outcome.clone(),
                });
            }
            st = self.inner.watch_cv.wait(st).unwrap();
        }
    }

    /// Blocks until every known job is terminal (or the crash hook
    /// tripped). Test/drain helper.
    pub fn wait_idle(&self) {
        let mut st = self.inner.state.lock().unwrap();
        while !st.crashed && st.jobs.values().any(|j| !j.state.is_terminal()) {
            st = self.inner.watch_cv.wait(st).unwrap();
        }
    }

    /// `true` once the [`ServeConfig::crash_after_commits`] hook has
    /// fired.
    pub fn crashed(&self) -> bool {
        self.inner.state.lock().unwrap().crashed
    }

    /// Flips the drain flag: every later submission is refused with
    /// [`SubmitOutcome::ShuttingDown`]. The cheap non-blocking first
    /// half of [`Coordinator::drain`], called by the server *before* it
    /// acknowledges a `Shutdown` request — otherwise a client that saw
    /// the acknowledgement could race a submission in through the
    /// window before the accept loop reaches the full drain.
    pub fn begin_drain(&self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.draining = true;
        }
        self.inner.work_cv.notify_all();
    }

    /// Graceful drain: stop accepting submissions, let queued and
    /// running jobs finish, then join the driver pool.
    pub fn drain(&self) {
        self.begin_drain();
        let handles: Vec<_> = self.drivers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        self.inner.watch_cv.notify_all();
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.drain();
    }
}

fn driver_loop(inner: &Inner) {
    loop {
        let (id, spec, recovered_ids, job_tel) = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if st.crashed {
                    return;
                }
                if let Some(&id) = st.queue.front() {
                    st.queue.pop_front();
                    inner
                        .telemetry
                        .gauge(names::QUEUE_DEPTH)
                        .set(st.queue.len() as u64);
                    let job = st.jobs.get_mut(&id).expect("queued job exists");
                    job.state = JobState::Running;
                    let spec = job.spec.clone();
                    let ids: HashSet<u32> = job.results.iter().map(|r| r.experiment.id).collect();
                    break (id, spec, ids, job.telemetry.clone());
                }
                if st.draining {
                    return;
                }
                st = inner.work_cv.wait(st).unwrap();
            }
        };
        inner.watch_cv.notify_all();
        run_job(inner, id, &spec, &recovered_ids, job_tel);
        inner.watch_cv.notify_all();
    }
}

/// Marks `id` failed (journaled) with a message.
fn fail_job(inner: &Inner, id: u64, message: String) {
    let mut st = inner.state.lock().unwrap();
    if !st.crashed {
        let _ = inner.append_timed(
            &mut st,
            &Record::End {
                job: id,
                state: JobState::Failed,
            },
        );
    }
    if let Some(job) = st.jobs.get_mut(&id) {
        job.state = JobState::Failed;
        job.error = message;
        job.shards = Vec::new();
    }
    inner.telemetry.counter(names::JOBS_FINISHED).incr();
    drop(st);
    inner.work_cv.notify_all();
    inner.watch_cv.notify_all();
}

/// Journals a cancellation end record and marks the job `Cancelled`.
/// Call without the state lock held.
fn finalize_cancelled(inner: &Inner, id: u64) {
    let mut st = inner.state.lock().unwrap();
    if !st.crashed {
        let _ = inner.append_timed(
            &mut st,
            &Record::End {
                job: id,
                state: JobState::Cancelled,
            },
        );
    }
    if let Some(job) = st.jobs.get_mut(&id) {
        job.state = JobState::Cancelled;
        job.shards = Vec::new();
    }
    inner.telemetry.counter(names::JOBS_FINISHED).incr();
    drop(st);
    inner.work_cv.notify_all();
    inner.watch_cv.notify_all();
}

/// The single idempotent commit path every executed shard goes through,
/// local (`from_worker == 0`) or uploaded. A commit is accepted only
/// when the job is still `Running`, the shard is `Leased` under exactly
/// `lease`, and the uploaded experiment ids are exactly the shard's ids
/// — so a late upload against a re-granted lease, a replay against a
/// restarted coordinator, or a mangled result set can never corrupt the
/// merged result. Returns `Duplicate` for an already-committed shard
/// without touching anything.
fn commit_shard(
    inner: &Inner,
    from_worker: u64,
    lease: u64,
    job_id: u64,
    shard_idx: u32,
    results: Vec<ExperimentResult>,
    batch_stats: &ExecutorStats,
) -> UploadOutcome {
    let st = inner.state.lock().unwrap();
    if st.crashed {
        return UploadOutcome::StaleLease;
    }
    {
        let Some(job) = st.jobs.get(&job_id) else {
            return UploadOutcome::StaleLease;
        };
        if job.state != JobState::Running {
            return UploadOutcome::StaleLease;
        }
        let Some(shard) = job.shards.get(shard_idx as usize) else {
            return UploadOutcome::StaleLease;
        };
        match shard.phase {
            ShardPhase::Committed => return UploadOutcome::Duplicate,
            ShardPhase::Leased { lease: held, .. } if held == lease => {}
            _ => return UploadOutcome::StaleLease,
        }
        // Contents must cover the shard exactly: same cardinality, same
        // experiment id set. Outcomes are deterministic, so any upload
        // passing this check carries the shard's true outcomes.
        if results.len() != shard.experiments.len() {
            return UploadOutcome::StaleLease;
        }
        let want: HashSet<u32> = shard.experiments.iter().map(|e| e.id).collect();
        let got: HashSet<u32> = results.iter().map(|r| r.experiment.id).collect();
        if want != got {
            return UploadOutcome::StaleLease;
        }
    }
    let n = results.len() as u64;
    let Some(mut st) = commit_batch(inner, st, job_id, results, batch_stats) else {
        return UploadOutcome::StaleLease;
    };
    {
        let CoordState { jobs, workers, .. } = &mut *st;
        let job = jobs.get_mut(&job_id).expect("checked above");
        job.shards[shard_idx as usize].phase = ShardPhase::Committed;
        if from_worker != 0 {
            if let Some(w) = workers.get_mut(&from_worker) {
                w.last_seen = Instant::now();
                w.leases = w.leases.saturating_sub(1);
                w.shards_committed += 1;
                w.experiments_committed += n;
            }
        }
    }
    if from_worker != 0 {
        inner
            .telemetry
            .gauge(names::LEASES_ACTIVE)
            .set(active_leases(&st));
    }
    drop(st);
    inner.work_cv.notify_all();
    inner.watch_cv.notify_all();
    UploadOutcome::Committed
}

/// Journals one batch of `job_id`'s outcomes and merges it into the
/// job's progress: the commit step shared by executed shards and by
/// experiments answered from the warm store. Outcomes are journaled
/// *before* progress advances. Returns the guard on success; `None`
/// when the crash hook fired or the journal write failed (the job is
/// then failed), in which case nothing was merged.
fn commit_batch<'a>(
    inner: &'a Inner,
    mut st: MutexGuard<'a, CoordState>,
    job_id: u64,
    results: Vec<ExperimentResult>,
    batch_stats: &ExecutorStats,
) -> Option<MutexGuard<'a, CoordState>> {
    // The crash hook models a kill between two journal commits: the
    // batch just computed is lost, exactly like a real crash mid-shard.
    if let Some(limit) = inner.config.crash_after_commits {
        if st.batch_commits >= limit {
            st.crashed = true;
            drop(st);
            inner.work_cv.notify_all();
            inner.watch_cv.notify_all();
            return None;
        }
    }
    if inner
        .append_timed(
            &mut st,
            &Record::Batch {
                job: job_id,
                results: results.clone(),
            },
        )
        .is_err()
    {
        drop(st);
        fail_job(inner, job_id, "journal write failed".into());
        return None;
    }
    st.batch_commits += 1;
    inner.telemetry.counter(names::BATCHES_COMMITTED).incr();
    let job = st.jobs.get_mut(&job_id).expect("committing job exists");
    job.done += results.len() as u64;
    job.stats.absorb_batch(batch_stats);
    job.results.extend(results);
    Some(st)
}

fn run_job(inner: &Inner, id: u64, spec: &JobSpec, recovered: &HashSet<u32>, job_tel: Registry) {
    let program = match assemble_text(&spec.name, &spec.source) {
        Ok(p) => p,
        Err(e) => return fail_job(inner, id, format!("assembly failed: {e}")),
    };
    let campaign = match Campaign::prepare(&program, spec.config, Vec::new(), job_tel) {
        Ok(c) => c,
        Err(e) => return fail_job(inner, id, format!("golden run failed: {e}")),
    };
    let plan = campaign.plan_for(spec.domain);
    let tail = resume::unfinished(&plan.experiments, recovered);
    inner
        .telemetry
        .counter(names::EXPERIMENTS_RECOVERED)
        .add(resume::recovered_count(&plan.experiments, recovered));
    // Warm-store lookup: outcomes persisted by earlier jobs over the same
    // context answer their coordinates outright; only the misses are
    // sharded for simulation.
    let store = inner.store.as_ref().filter(|_| spec.warm_store);
    let ctx = store::context_key(&spec.source, spec.domain, &spec.config);
    let (hits, misses) = match store {
        Some(store) => store.lock().unwrap().answer(ctx, &tail),
        None => (Vec::new(), tail),
    };
    let mut st = inner.state.lock().unwrap();
    if st.crashed {
        return;
    }
    if let Some(job) = st.jobs.get_mut(&id) {
        job.total = plan.experiments.len() as u64;
        job.done = recovered.len() as u64;
        job.shards = resume::shards(&misses, inner.config.batch_size)
            .into_iter()
            .map(|experiments| Shard {
                experiments,
                phase: ShardPhase::Pending,
            })
            .collect();
        job.shards_ready = true;
    }
    // Every hit is committed as one journal batch, so a restarted
    // daemon replays the job's store-answered part like any shard.
    let answered = hits.len() as u64;
    if answered > 0 {
        let stats = ExecutorStats {
            experiments: answered,
            store_hits: answered,
            ..ExecutorStats::default()
        };
        let Some(guard) = commit_batch(inner, st, id, hits, &stats) else {
            return;
        };
        st = guard;
        campaign
            .telemetry()
            .counter(names::STORE_HITS)
            .add(answered);
    }
    drop(st);
    inner.watch_cv.notify_all();

    // The drive loop: claim pending shards for local execution (unless
    // remote workers should get them), wait for remote commits, re-queue
    // expired leases, and finish when every shard has committed.
    let tick = (inner.config.lease_timeout / 8)
        .clamp(Duration::from_millis(5), Duration::from_millis(500));
    loop {
        let claim =
            {
                let mut st = inner.state.lock().unwrap();
                loop {
                    if st.crashed {
                        return;
                    }
                    reclaim_expired(&inner.telemetry, &mut st);
                    let Some(job) = st.jobs.get(&id) else {
                        return;
                    };
                    if job.state.is_terminal() {
                        return;
                    }
                    if job.cancel {
                        drop(st);
                        finalize_cancelled(inner, id);
                        return;
                    }
                    if job.shards.iter().all(|s| s.phase == ShardPhase::Committed) {
                        break None;
                    }
                    // In remote-only mode the driver defers to live workers
                    // and only falls back to local execution when none are
                    // registered or all have gone quiet.
                    let local_allowed = !inner.config.remote_only
                        || !any_live_worker(&st, inner.config.lease_timeout);
                    if local_allowed {
                        if let Some(idx) = st.jobs.get(&id).and_then(|j| {
                            j.shards.iter().position(|s| s.phase == ShardPhase::Pending)
                        }) {
                            let lease = st.next_lease;
                            st.next_lease += 1;
                            let job = st.jobs.get_mut(&id).expect("checked above");
                            // Local claims never expire: the driver thread
                            // is alive for as long as it holds one.
                            job.shards[idx].phase = ShardPhase::Leased {
                                lease,
                                worker: 0,
                                deadline: Instant::now() + Duration::from_secs(3600),
                            };
                            break Some((idx, lease, job.shards[idx].experiments.clone()));
                        }
                    }
                    // Nothing to run locally: wait for an upload, a lease
                    // expiry, or a cancellation.
                    let (guard, _) = inner.work_cv.wait_timeout(st, tick).unwrap();
                    st = guard;
                }
            };
        let Some((idx, lease, experiments)) = claim else {
            break;
        };
        let (results, batch_stats) = campaign.run_experiments_stats(spec.domain, &experiments);
        commit_shard(inner, 0, lease, id, idx as u32, results, &batch_stats);
    }

    // All shards committed. Persist every outcome the job now holds —
    // local and remote shards alike — as one store batch *before* the
    // result becomes visible, so a client that saw `Done` can re-submit
    // and be answered from the store. Best-effort: a store write failure
    // can only cost future speed, never this job's outcome. A job the
    // store answered in full has nothing new to persist.
    let results = {
        let st = inner.state.lock().unwrap();
        if st.crashed {
            return;
        }
        let Some(job) = st.jobs.get(&id) else {
            return;
        };
        job.results.clone()
    };
    if let Some(store) = store.filter(|_| results.len() as u64 > answered) {
        let span = inner.telemetry.span(names::STORE_APPEND_NS);
        let appended = store.lock().unwrap().append(ctx, &results);
        span.finish();
        if let Ok(n) = appended {
            inner.telemetry.counter(names::STORE_APPENDS).add(n);
        }
    }

    // Merge (replayed + store-answered + fresh + uploaded) into the
    // canonical result — bit-identical to an uninterrupted in-process
    // run, because `assemble_result` orders by experiment id.
    let mut st = inner.state.lock().unwrap();
    if st.crashed {
        return;
    }
    let Some(job) = st.jobs.get_mut(&id) else {
        return;
    };
    let stats = job.stats;
    let result = campaign.assemble_result(spec.domain, plan, results);
    job.outcome = Some((result, stats));
    job.state = JobState::Done;
    job.shards = Vec::new();
    let _ = inner.append_timed(
        &mut st,
        &Record::End {
            job: id,
            state: JobState::Done,
        },
    );
    inner.telemetry.counter(names::JOBS_FINISHED).incr();
    drop(st);
    inner.watch_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_campaign::{CampaignConfig, FaultDomain};
    use std::path::PathBuf;

    fn temp_journal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sofi-coord-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}-{name}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    const HI: &str = "
        .data
        msg: .space 2
        .text
        li r1, 'H'
        sb r1, msg(r0)
        li r1, 'i'
        sb r1, msg+1(r0)
        lb r2, msg(r0)
        serial r2
        lb r2, msg+1(r0)
        serial r2
    ";

    fn hi_spec() -> JobSpec {
        JobSpec {
            name: "hi".into(),
            source: HI.into(),
            domain: FaultDomain::Memory,
            config: CampaignConfig::sequential(),
            warm_store: true,
        }
    }

    #[test]
    fn submit_runs_to_done_and_matches_in_process() {
        let path = temp_journal("done");
        let coord = Coordinator::open(&path, ServeConfig::default()).unwrap();
        let SubmitOutcome::Accepted(id) = coord.submit(hi_spec()) else {
            panic!("fresh queue refused a job");
        };
        coord.wait_idle();
        let status = coord.status(Some(id)).unwrap().remove(0);
        assert_eq!(status.state, JobState::Done);
        assert_eq!(status.done, status.total);
        let (result, stats) = coord.result(id).unwrap();

        let program = assemble_text("hi", HI).unwrap();
        let campaign = Campaign::with_config(&program, CampaignConfig::sequential()).unwrap();
        assert_eq!(result, campaign.run_full_defuse_in(FaultDomain::Memory));
        assert_eq!(stats.experiments, result.results.len() as u64);
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_source_fails_cleanly() {
        let path = temp_journal("fail");
        let coord = Coordinator::open(&path, ServeConfig::default()).unwrap();
        let SubmitOutcome::Accepted(id) = coord.submit(JobSpec {
            source: "frobnicate r1\n".into(),
            ..hi_spec()
        }) else {
            panic!("refused");
        };
        coord.wait_idle();
        let status = coord.status(Some(id)).unwrap().remove(0);
        assert_eq!(status.state, JobState::Failed);
        assert!(status.error.contains("assembly failed"), "{}", status.error);
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn queue_backpressure_reports_busy() {
        let path = temp_journal("busy");
        let coord = Coordinator::open(
            &path,
            ServeConfig {
                workers: 1,
                queue_capacity: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut accepted = 0;
        let mut busy = 0;
        for _ in 0..32 {
            match coord.submit(hi_spec()) {
                SubmitOutcome::Accepted(_) => accepted += 1,
                SubmitOutcome::Busy { capacity, .. } => {
                    assert_eq!(capacity, 1);
                    busy += 1;
                }
                SubmitOutcome::ShuttingDown => panic!("not draining"),
            }
        }
        assert!(accepted >= 1);
        assert!(busy >= 1, "32 instant submissions never hit capacity 1");
        coord.wait_idle();
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cancel_queued_job() {
        let path = temp_journal("cancel");
        // Zero-driver pools are floored to one driver; use a pool busy
        // with an earlier job so the second stays queued.
        let coord = Coordinator::open(
            &path,
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let SubmitOutcome::Accepted(_first) = coord.submit(hi_spec()) else {
            panic!("refused");
        };
        let SubmitOutcome::Accepted(second) = coord.submit(hi_spec()) else {
            panic!("refused");
        };
        // Cancel the second job; whether it was still queued or already
        // running, it must end terminal without error.
        assert!(matches!(
            coord.cancel(second),
            CancelOutcome::Cancelled | CancelOutcome::AlreadyTerminal(_)
        ));
        coord.wait_idle();
        let state = coord.status(Some(second)).unwrap().remove(0).state;
        assert!(
            state == JobState::Cancelled || state == JobState::Done,
            "cancelled job ended {state:?}"
        );
        assert_eq!(coord.cancel(9999), CancelOutcome::Unknown);
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn drain_refuses_new_work() {
        let path = temp_journal("drain");
        let coord = Coordinator::open(&path, ServeConfig::default()).unwrap();
        coord.drain();
        assert_eq!(coord.submit(hi_spec()), SubmitOutcome::ShuttingDown);
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    /// The worker RPC surface, exercised directly against the
    /// coordinator: register → lease → upload commits exactly once; a
    /// second upload of the same shard is a duplicate; a bogus lease is
    /// stale.
    #[test]
    fn lease_upload_commits_once_and_deduplicates() {
        let path = temp_journal("lease-rpc");
        let coord = Coordinator::open(
            &path,
            ServeConfig {
                workers: 1,
                batch_size: 4,
                remote_only: true,
                lease_timeout: Duration::from_secs(5),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let (worker, lease_ms) = coord.register("test-worker");
        assert!(worker > 0);
        assert_eq!(lease_ms, 5000);
        let SubmitOutcome::Accepted(id) = coord.submit(hi_spec()) else {
            panic!("refused");
        };
        // Poll until the driver has populated the shard table.
        let (lease, job, shard, spec, experiments) = loop {
            match coord.request_lease(worker) {
                LeaseOffer::Grant {
                    lease,
                    job,
                    shard,
                    spec,
                    experiments,
                } => break (lease, job, shard, spec, experiments),
                LeaseOffer::NoWork { draining } => {
                    assert!(!draining);
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        assert_eq!(job, id);
        assert!(!experiments.is_empty());

        // Execute the shard exactly as a remote worker would.
        let program = assemble_text(&spec.name, &spec.source).unwrap();
        let campaign = Campaign::with_config(&program, spec.config).unwrap();
        let (results, stats) = campaign.run_experiments_stats(spec.domain, &experiments);

        assert_eq!(
            coord.upload(worker, lease, job, shard, results.clone(), &stats),
            UploadOutcome::Committed
        );
        // Retrying the identical upload must acknowledge, not recommit.
        assert_eq!(
            coord.upload(worker, lease, job, shard, results.clone(), &stats),
            UploadOutcome::Duplicate
        );
        // A made-up lease id against a pending/other shard is stale.
        assert_eq!(
            coord.upload(worker, 0xDEAD_BEEF, job, shard + 1, results, &stats),
            UploadOutcome::StaleLease
        );
        let ws = coord.workers();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].shards_committed, 1);
        assert_eq!(ws[0].experiments_committed, experiments.len() as u64);

        // Keep servicing leases ourselves until the job completes, then
        // check the merged result is bit-identical to in-process.
        loop {
            match coord.request_lease(worker) {
                LeaseOffer::Grant {
                    lease,
                    job,
                    shard,
                    spec,
                    experiments,
                } => {
                    let program = assemble_text(&spec.name, &spec.source).unwrap();
                    let campaign = Campaign::with_config(&program, spec.config).unwrap();
                    let (results, stats) =
                        campaign.run_experiments_stats(spec.domain, &experiments);
                    assert_eq!(
                        coord.upload(worker, lease, job, shard, results, &stats),
                        UploadOutcome::Committed
                    );
                }
                LeaseOffer::NoWork { .. } => {
                    if coord
                        .status(Some(id))
                        .unwrap()
                        .remove(0)
                        .state
                        .is_terminal()
                    {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        let (result, _) = coord.result(id).unwrap();
        let program = assemble_text("hi", HI).unwrap();
        let campaign = Campaign::with_config(&program, CampaignConfig::sequential()).unwrap();
        assert_eq!(
            result,
            campaign.run_full_defuse_in(FaultDomain::Memory),
            "remote-shard result drifted"
        );
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    /// An expired lease is re-queued and the late upload bounces as
    /// stale (or duplicate, if the re-run already committed); either
    /// way the shard commits exactly once.
    #[test]
    fn expired_lease_requeues_and_rejects_late_upload() {
        let path = temp_journal("lease-expiry");
        let coord = Coordinator::open(
            &path,
            ServeConfig {
                workers: 1,
                batch_size: 4,
                remote_only: true,
                lease_timeout: Duration::from_millis(80),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let (worker, _) = coord.register("flaky");
        let SubmitOutcome::Accepted(id) = coord.submit(hi_spec()) else {
            panic!("refused");
        };
        let (lease, job, shard, spec, experiments) = loop {
            match coord.request_lease(worker) {
                LeaseOffer::Grant {
                    lease,
                    job,
                    shard,
                    spec,
                    experiments,
                } => break (lease, job, shard, spec, experiments),
                LeaseOffer::NoWork { .. } => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        // Sit on the lease past its deadline without heartbeating. The
        // local driver (fallback: the worker has gone quiet) reclaims
        // and eventually finishes the job.
        std::thread::sleep(Duration::from_millis(200));
        let program = assemble_text(&spec.name, &spec.source).unwrap();
        let campaign = Campaign::with_config(&program, spec.config).unwrap();
        let (results, stats) = campaign.run_experiments_stats(spec.domain, &experiments);
        let late = coord.upload(worker, lease, job, shard, results, &stats);
        assert!(
            late == UploadOutcome::StaleLease || late == UploadOutcome::Duplicate,
            "late upload after expiry must not double-commit: {late:?}"
        );
        coord.wait_idle();
        let (result, _) = coord.result(id).unwrap();
        let campaign = Campaign::with_config(
            &assemble_text("hi", HI).unwrap(),
            CampaignConfig::sequential(),
        )
        .unwrap();
        assert_eq!(result, campaign.run_full_defuse_in(FaultDomain::Memory));
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    /// Heartbeats keep a slow worker's lease alive; unknown worker ids
    /// are reported as such.
    #[test]
    fn heartbeat_renews_and_reports_unknown() {
        let path = temp_journal("heartbeat");
        let coord = Coordinator::open(
            &path,
            ServeConfig {
                workers: 1,
                batch_size: 1024,
                remote_only: true,
                lease_timeout: Duration::from_millis(120),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(coord.heartbeat(777), (false, false), "unknown worker");
        let (worker, _) = coord.register("slowpoke");
        let SubmitOutcome::Accepted(id) = coord.submit(hi_spec()) else {
            panic!("refused");
        };
        let (lease, job, shard, spec, experiments) = loop {
            match coord.request_lease(worker) {
                LeaseOffer::Grant {
                    lease,
                    job,
                    shard,
                    spec,
                    experiments,
                } => break (lease, job, shard, spec, experiments),
                LeaseOffer::NoWork { .. } => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        // Outlive several lease timeouts, heartbeating the whole way.
        for _ in 0..8 {
            std::thread::sleep(Duration::from_millis(60));
            let (draining, known) = coord.heartbeat(worker);
            assert!(known);
            assert!(!draining);
        }
        let program = assemble_text(&spec.name, &spec.source).unwrap();
        let campaign = Campaign::with_config(&program, spec.config).unwrap();
        let (results, stats) = campaign.run_experiments_stats(spec.domain, &experiments);
        assert_eq!(
            coord.upload(worker, lease, job, shard, results, &stats),
            UploadOutcome::Committed,
            "heartbeats must have kept the lease alive"
        );
        coord.wait_idle();
        assert_eq!(
            coord.status(Some(id)).unwrap().remove(0).state,
            JobState::Done
        );
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }
}
