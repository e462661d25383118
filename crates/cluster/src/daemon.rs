//! The coordinator engine: the one scheduler behind every way a campaign
//! leaves its process.
//!
//! An engine holds a job queue, the [`WorkerRegistry`] and one dispatch
//! queue per open job, and it is fed in one of two ways:
//!
//! * [`serve`] — the campaign service. The engine accepts connections from
//!   a [`Listener`] forever and classifies each by its first frame, read
//!   under a 64 KiB cap because the peer is not yet authenticated:
//!   * [`Register`](Message::Register) — an elastic worker joins the fleet
//!     and gets a dynamic slot; the daemon answers
//!     [`RegisterAck`](Message::RegisterAck). Workers join and leave
//!     mid-campaign freely, and quarantine strikes accrue to the worker's
//!     *name*.
//!   * [`Hello`](Message::Hello) — a client authenticates with a
//!     per-tenant token and issues exactly one command: `Submit`,
//!     `Status`, `Cancel`, or `Drain`. Refusals are typed
//!     ([`ServiceErr`](Message::ServiceErr)).
//! * [`WorkerPool::run`] — a one-shot `--workers N` run. The queue holds
//!   one job that is open and draining from the start, and each of the N
//!   slots is fed by a [`Connector`] (a spawned `campaign --worker`
//!   process) instead of a listener. A slot opens its session over stdio:
//!   the coordinator sends `Hello`, and the worker answers `Hello` (or
//!   `Reject`) for the job that is already open. A slot whose session is
//!   lost reconnects behind an exponential backoff until its respawn
//!   budget runs out, and every session registers under the slot's name,
//!   so lifetime strikes quarantine a flaky slot exactly like a flaky
//!   registered worker.
//!
//! After its handshake every worker session runs the same *pull* loop:
//! the worker sends [`Ready`](Message::Ready); the engine picks the best
//! claimable batch (least-served job first, then submission order),
//! ships the campaign via [`JobOpen`](Message::JobOpen) if the session
//! has not expanded it yet, then streams a plain
//! [`Assign`](Message::Assign) — or answers `Shutdown` once nothing is
//! left. A voluntary [`Deregister`](Message::Deregister) retires the slot
//! without blame; a channel loss returns the batch remainder to the job's
//! dispatch queue as suspects, with crash blame and poisoning.
//!
//! Campaign expansion lives behind the [`JobPlanner`] seam so this crate
//! stays independent of the bench harness: the engine never interprets a
//! payload itself, it only routes indices and records. Every service job
//! journals into its own checkpoint file (when a state directory is
//! configured), so a daemon killed anywhere resumes every interrupted job
//! on restart, and the final report of every job is byte-identical to a
//! sequential run of the same campaign: results are merged first result
//! wins, keyed by index, however jobs interleave and workers come and go.

use crate::coordinator::{ClusterError, ClusterOutcome, WorkerPool};
use crate::dispatch::{exchange_batch, Batch, Dispatch, ExchangeEnd};
use crate::journal::resume_journal;
use crate::protocol::{
    BuildStamp, CheckpointEntry, DrainOk, Hello, JobOpen, JobStatusInfo, Message, Outcome,
    Register, ServiceErr, ServiceErrKind, SlotStatusInfo, StatusReply, Submitted, FIRST_FRAME_MAX,
};
use crate::queue::{JobPhase, JobQueue, JobSpec, QueueError};
use crate::registry::{RegisterRefusal, WorkerRegistry};
use crate::transport::{Connector, Listener, TcpTransport, Transport};
use qismet_telemetry::{counter, event, fleet_update, gauge};
use serde::Value;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How a [`JobPlanner`] describes one expanded campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPlan {
    /// Fingerprint of the expansion (handshake and journal resume key).
    pub fingerprint: u64,
    /// How many specs the expansion produced.
    pub spec_count: usize,
    /// The fully-resolved seed of every spec, in expansion order. Journal
    /// replay validates each entry's seed against this, so a stale journal
    /// can never leak a record into a reshuffled campaign.
    pub seeds: Vec<u64>,
}

/// The daemon's seam to campaign semantics. The bench harness implements
/// this over its grid expansion and report writer; tests implement toy
/// planners.
pub trait JobPlanner: Send + Sync {
    /// Expands a submission payload. An `Err` is a typed `BadPayload`
    /// refusal at submit time (and a job failure if a replayed payload
    /// stops expanding after an upgrade).
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason the payload cannot be expanded.
    fn open(&self, payload: &str) -> Result<JobPlan, String>;

    /// Consumes a settled job's complete record set (sorted by index) and
    /// writes its artifact. Returns a detail string for status output —
    /// conventionally the artifact path.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason the artifact could not be written;
    /// the job is then reported `failed` (its journal intact).
    fn finalize(&self, spec: &JobSpec, records: Vec<(usize, Value)>) -> Result<String, String>;
}

/// Tuning and authentication for one engine run.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Shared secret registering workers must present (in a one-shot run,
    /// the token both sides of the stdio `Hello` carry).
    pub fleet_token: String,
    /// `(tenant name, token)` pairs for the client API. The fleet token
    /// also authenticates clients, as the all-seeing operator principal.
    pub tenants: Vec<(String, String)>,
    /// Where the job event log and per-job journals live (`None` =
    /// ephemeral: no persistence, no resume).
    pub state_dir: Option<PathBuf>,
    /// Quarantine a worker *name* after this many lifetime channel
    /// strikes (`None` = never).
    pub quarantine_after: Option<usize>,
    /// Bound on a worker's silence while it owes a frame: mid-batch, and
    /// its `Ready` after a batch (`None` = wait forever mid-batch, and the
    /// handshake bound for `Ready`; workers heartbeat while computing).
    pub assign_timeout: Option<Duration>,
}

impl ServiceConfig {
    /// A config with the given fleet token and the same defaults as a
    /// one-shot run (no tenants, ephemeral, no quarantine).
    pub fn new(fleet_token: impl Into<String>) -> Self {
        ServiceConfig {
            fleet_token: fleet_token.into(),
            tenants: Vec::new(),
            state_dir: None,
            quarantine_after: None,
            assign_timeout: None,
        }
    }
}

/// What a drained daemon reports back to its embedder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSummary {
    /// Jobs that completed successfully.
    pub jobs_completed: usize,
    /// Jobs that failed or were cancelled.
    pub jobs_failed: usize,
    /// Connections accepted (workers, clients, and the drain wake-up).
    pub sessions: usize,
}

/// Bound on the exchanges a peer must answer promptly: the stdio `Hello`
/// round trip, registration, `JobReady`, client commands, and a worker's
/// `Ready` when no assign deadline is set. A worker that starts but never
/// answers must not hang its slot.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a parked session waits before it looks at the queues again
/// on its own. Every state change that can make work claimable notifies
/// parked sessions (see [`Engine::notify`]); this only bounds the cost of
/// a change that does not.
const WORK_POLL: Duration = Duration::from_millis(200);

/// Base pause between a one-shot slot's channel loss and its reconnect
/// attempt; doubles per consecutive attempt (capped by
/// [`RECONNECT_DELAY_MAX`]) so a worker that keeps failing to start is not
/// hammered into a spuriously exhausted respawn budget.
const RECONNECT_DELAY: Duration = Duration::from_millis(50);

/// Ceiling for the exponential reconnect backoff.
const RECONNECT_DELAY_MAX: Duration = Duration::from_secs(5);

/// Rejects zero/nonsense durations and thresholds before any session
/// starts.
fn validate_limits(
    assign_timeout: Option<Duration>,
    quarantine_after: Option<usize>,
) -> Result<(), ClusterError> {
    let problem = if matches!(assign_timeout, Some(t) if t.is_zero()) {
        "assign timeout must be positive (omit it to wait forever)"
    } else if quarantine_after == Some(0) {
        "quarantine-after threshold must be at least 1 (omit it to disable)"
    } else {
        return Ok(());
    };
    Err(ClusterError::Config(problem.into()))
}

/// Where a job's accepted results go before they are kept: the job's
/// journal on the service, the caller's `on_done` in a one-shot run. An
/// error means durability is lost, and the job fails.
type Sink<'a> = Box<dyn FnMut(&CheckpointEntry) -> Result<(), String> + Send + 'a>;

/// One opened (running) job's in-memory execution state.
struct JobRun<'a> {
    spec: JobSpec,
    dispatch: Dispatch,
    /// Journal-replayed records, sorted by index.
    resumed: Vec<(usize, Value)>,
    results: Mutex<Vec<(usize, Value)>>,
    sink: Mutex<Sink<'a>>,
    /// Sessions currently holding one of this job's batches (the
    /// least-served order that spreads a fleet across open jobs, making
    /// them genuinely concurrent).
    servers: AtomicUsize,
    /// Settle-once guard (finalize, fail, or cancel — first wins).
    settled: AtomicBool,
    /// Why the job failed, when it did; a one-shot run returns it.
    failure: Mutex<Option<ClusterError>>,
}

impl<'a> JobRun<'a> {
    fn new(spec: JobSpec, pending: &[usize], resumed: Vec<(usize, Value)>, sink: Sink<'a>) -> Self {
        JobRun {
            spec,
            dispatch: Dispatch::new(pending),
            resumed,
            results: Mutex::new(Vec::with_capacity(pending.len())),
            sink: Mutex::new(sink),
            servers: AtomicUsize::new(0),
            settled: AtomicBool::new(false),
            failure: Mutex::new(None),
        }
    }

    fn done_count(&self) -> usize {
        self.resumed.len() + self.dispatch.completed_count()
    }
}

/// What [`Engine::claim`] hands a worker session.
enum Claim<'a> {
    /// Serve this batch of this job.
    Work(Arc<JobRun<'a>>, Batch),
    /// Nothing will be claimable again: send `Shutdown`.
    Retire,
}

/// A live worker session's identity: its registry slot, its fleet-table
/// row, and its registered name. A registered worker's row is its slot;
/// a one-shot slot keeps its pool index as its row, so its respawns add
/// up in one row.
#[derive(Clone, Copy)]
struct Seat<'n> {
    slot: u64,
    fleet: u64,
    name: &'n str,
}

/// How a worker session ended, for whoever opened it to settle.
enum SessionEnd {
    /// Nothing is left to serve (`Shutdown` sent), or the worker
    /// deregistered.
    Retired,
    /// The channel failed; the outstanding batch is back in its queue.
    Lost {
        detail: String,
        /// The session delivered at least one result.
        productive: bool,
        /// The loss was a precise strike on a suspect spec.
        blamed: bool,
    },
    /// The worker broke the protocol or refused the campaign.
    Refused(ClusterError),
}

impl SessionEnd {
    fn lost(detail: String) -> Self {
        SessionEnd::Lost {
            detail,
            productive: false,
            blamed: false,
        }
    }
}

struct Engine<'a> {
    planner: &'a dyn JobPlanner,
    config: &'a ServiceConfig,
    queue: Mutex<JobQueue>,
    registry: WorkerRegistry,
    open_jobs: Mutex<BTreeMap<u64, Arc<JobRun<'a>>>>,
    /// Bumped by every [`Engine::notify`]; parked sessions wait for it to
    /// move.
    epoch: Mutex<u64>,
    work: Condvar,
    draining: AtomicBool,
    stopping: AtomicBool,
    jobs_completed: AtomicUsize,
    jobs_failed: AtomicUsize,
    sessions: AtomicUsize,
    /// The listener's address, for the drain self-connect wake-up.
    wake_addr: Option<String>,
}

impl<'a> Engine<'a> {
    fn new(
        planner: &'a dyn JobPlanner,
        config: &'a ServiceConfig,
        queue: JobQueue,
        wake_addr: Option<String>,
    ) -> Self {
        Engine {
            planner,
            config,
            queue: Mutex::new(queue),
            registry: WorkerRegistry::new(config.quarantine_after),
            open_jobs: Mutex::new(BTreeMap::new()),
            epoch: Mutex::new(0),
            work: Condvar::new(),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            jobs_completed: AtomicUsize::new(0),
            jobs_failed: AtomicUsize::new(0),
            sessions: AtomicUsize::new(0),
            wake_addr,
        }
    }

    /// Wakes every parked session. The epoch moves under its mutex, so a
    /// session that looked at the queues before this call either sees the
    /// new epoch or is already waiting when the wake-up comes: no
    /// notification is lost between a look and a wait.
    fn notify(&self) {
        *self.epoch.lock().expect("epoch mutex poisoned") += 1;
        self.work.notify_all();
    }

    /// The current epoch; read it *before* looking at the queues.
    fn epoch(&self) -> u64 {
        *self.epoch.lock().expect("epoch mutex poisoned")
    }

    /// Parks until the epoch moves past `seen` (or [`WORK_POLL`] passes).
    fn park(&self, seen: u64) {
        let epoch = self.epoch.lock().expect("epoch mutex poisoned");
        let _ = self
            .work
            .wait_timeout_while(epoch, WORK_POLL, |epoch| *epoch == seen)
            .expect("epoch mutex poisoned");
    }

    /// Whether nothing will ever be claimable again: the accept loop
    /// stopped, or the engine drains and every job has settled.
    fn is_drained(&self) -> bool {
        self.stopping.load(Ordering::Relaxed)
            || (self.draining.load(Ordering::Relaxed)
                && self
                    .queue
                    .lock()
                    .expect("queue mutex poisoned")
                    .all_terminal())
    }

    fn update_job_gauges(&self) {
        let queue = self.queue.lock().expect("queue mutex poisoned");
        let (mut queued, mut running, mut settled) = (0i64, 0i64, 0i64);
        for job in queue.jobs() {
            match job.phase {
                JobPhase::Queued => queued += 1,
                JobPhase::Running => running += 1,
                _ => settled += 1,
            }
        }
        gauge!("service.jobs_queued").set(queued);
        gauge!("service.jobs_running").set(running);
        gauge!("service.jobs_settled").set(settled);
    }

    /// Moves a job to a terminal phase exactly once per id and maintains
    /// the lifetime tallies; `open_jobs` entry (if any) is removed.
    fn conclude(&self, id: u64, phase: JobPhase, detail: String) {
        // The tallies move under the queue lock together with the phase, so
        // a drain that sees every job terminal also sees every tally.
        let transitioned = {
            let mut queue = self.queue.lock().expect("queue mutex poisoned");
            let transitioned = queue.set_phase(id, phase, Some(detail.clone())).is_ok();
            if transitioned {
                match phase {
                    JobPhase::Completed => self.jobs_completed.fetch_add(1, Ordering::Relaxed),
                    _ => self.jobs_failed.fetch_add(1, Ordering::Relaxed),
                };
            }
            transitioned
        };
        if transitioned {
            match phase {
                JobPhase::Completed => counter!("service.jobs_completed").inc(),
                _ => counter!("service.jobs_failed").inc(),
            }
            event("job", format!("job {id} -> {}: {detail}", phase.name()));
        }
        self.open_jobs
            .lock()
            .expect("open-jobs mutex poisoned")
            .remove(&id);
        self.update_job_gauges();
        self.notify();
    }

    /// Settles a run exactly once: poisoned specs fail it, otherwise the
    /// planner writes the artifact.
    fn settle_job(&self, run: &JobRun<'a>) {
        let poisoned = run.dispatch.poisoned_indices();
        if !poisoned.is_empty() {
            let completed = run.done_count();
            return self.fail_job(
                run,
                ClusterError::PoisonedSpecs {
                    indices: poisoned,
                    completed,
                },
            );
        }
        if run.settled.swap(true, Ordering::SeqCst) {
            return;
        }
        // Settled means no further result is kept, so the records move
        // out instead of being copied.
        let mut records = run.resumed.clone();
        records.append(&mut *run.results.lock().expect("results mutex poisoned"));
        records.sort_by_key(|(index, _)| *index);
        match self.planner.finalize(&run.spec, records) {
            Ok(detail) => self.conclude(run.spec.id, JobPhase::Completed, detail),
            Err(detail) => self.conclude(run.spec.id, JobPhase::Failed, detail),
        }
    }

    /// Fails a run exactly once (deterministic run failure, lost
    /// durability, poisoned specs, a refused handshake) and aborts its
    /// outstanding dispatch.
    fn fail_job(&self, run: &JobRun<'a>, error: ClusterError) {
        if run.settled.swap(true, Ordering::SeqCst) {
            return;
        }
        run.dispatch.abort();
        let detail = error.to_string();
        *run.failure.lock().expect("failure mutex poisoned") = Some(error);
        self.conclude(run.spec.id, JobPhase::Failed, detail);
    }

    /// Opens the oldest queued job: expands it through the planner,
    /// replays its journal, and publishes the run. Returns whether any
    /// queued job was taken (even if opening it failed).
    fn open_next_job(&self) -> bool {
        let spec = {
            let mut queue = self.queue.lock().expect("queue mutex poisoned");
            let next = queue
                .runnable()
                .find(|job| job.phase == JobPhase::Queued)
                .map(|job| job.spec.clone());
            let Some(spec) = next else {
                return false;
            };
            if queue.set_phase(spec.id, JobPhase::Running, None).is_err() {
                return false;
            }
            spec
        };
        self.update_job_gauges();
        let plan = match self.planner.open(&spec.payload) {
            Ok(plan)
                if plan.fingerprint == spec.fingerprint && plan.spec_count == spec.spec_count =>
            {
                plan
            }
            Ok(plan) => {
                self.conclude(
                    spec.id,
                    JobPhase::Failed,
                    format!(
                        "payload re-expanded to fingerprint {:#018x}/{} specs, \
                         submitted as {:#018x}/{} (planner changed?)",
                        plan.fingerprint, plan.spec_count, spec.fingerprint, spec.spec_count
                    ),
                );
                return true;
            }
            Err(detail) => {
                self.conclude(
                    spec.id,
                    JobPhase::Failed,
                    format!("payload no longer expands: {detail}"),
                );
                return true;
            }
        };
        let journal_path = {
            let queue = self.queue.lock().expect("queue mutex poisoned");
            queue.journal_path(spec.id)
        };
        let mut resumed: Vec<(usize, Value)> = Vec::new();
        let sink: Sink<'a> = match &journal_path {
            Some(path) => match resume_journal(path, spec.fingerprint, &plan.seeds) {
                Ok((entries, mut writer)) => {
                    resumed.extend(entries.into_iter().map(|e| (e.index, e.record)));
                    Box::new(move |entry: &CheckpointEntry| {
                        writer
                            .append(entry)
                            .map_err(|e| format!("journal append failed: {e}"))
                    })
                }
                Err(e) => {
                    self.conclude(
                        spec.id,
                        JobPhase::Failed,
                        format!("journal {} unusable: {e}", path.display()),
                    );
                    return true;
                }
            },
            None => Box::new(|_: &CheckpointEntry| Ok(())),
        };
        let mut replayed = vec![false; plan.spec_count];
        for &(index, _) in &resumed {
            replayed[index] = true;
        }
        let pending: Vec<usize> = (0..plan.spec_count).filter(|&i| !replayed[i]).collect();
        let run = Arc::new(JobRun::new(spec.clone(), &pending, resumed, sink));
        event(
            "job",
            format!(
                "job {} `{}` opened: {} spec(s), {} resumed",
                spec.id,
                spec.name,
                spec.spec_count,
                run.resumed.len()
            ),
        );
        self.open_jobs
            .lock()
            .expect("open-jobs mutex poisoned")
            .insert(spec.id, run.clone());
        self.notify();
        if run.dispatch.is_finished() {
            // Fully journaled already: settle without assigning anything.
            self.settle_job(&run);
        }
        true
    }

    /// Picks the best claimable batch across open jobs, opening queued
    /// jobs as needed; parks until work appears or nothing ever will.
    fn claim(&self, threads: usize) -> Claim<'a> {
        loop {
            let seen = self.epoch();
            if self.stopping.load(Ordering::Relaxed) {
                return Claim::Retire;
            }
            {
                let open = self.open_jobs.lock().expect("open-jobs mutex poisoned");
                let mut candidates: Vec<&Arc<JobRun<'a>>> = open.values().collect();
                candidates.sort_by_key(|run| (run.servers.load(Ordering::Relaxed), run.spec.id));
                for run in candidates {
                    if let Some(batch) = run.dispatch.try_pop_batch(threads) {
                        return Claim::Work(run.clone(), batch);
                    }
                }
            }
            if self.open_next_job() {
                continue;
            }
            if self.is_drained() {
                return Claim::Retire;
            }
            self.park(seen);
        }
    }

    /// Accepts one result: the job's sink first (durability before
    /// visibility), then the in-memory record set; settles the job when
    /// it was the last index.
    fn on_record(&self, seat: Seat<'_>, run: &JobRun<'a>, index: usize, seed: u64, record: Value) {
        // The results lock is held from marking the index complete until
        // its record is stored: a session that completes the last index of
        // the job settles it, and settling must see every record.
        let mut results = run.results.lock().expect("results mutex poisoned");
        if !run.dispatch.complete(index) {
            // Already settled: the first result was kept, so drop this one
            // without re-journaling.
            return;
        }
        let entry = CheckpointEntry {
            fingerprint: run.spec.fingerprint,
            index,
            seed,
            record,
        };
        let sunk = (run.sink.lock().expect("sink mutex poisoned"))(&entry);
        if let Err(detail) = sunk {
            drop(results);
            // Durability lost: completing more work that can never be
            // resumed helps nobody — fail the job, keep the fleet.
            self.fail_job(run, ClusterError::Io(detail));
            return;
        }
        fleet_update(seat.fleet, |s| s.done += 1);
        counter!("cluster.specs_done").inc();
        self.registry.record_done(seat.slot);
        results.push((index, entry.record));
        drop(results);
        if run.dispatch.is_finished() {
            self.settle_job(run);
        }
        self.notify();
    }

    /// Hands a lost session's outstanding work back to its job's dispatch
    /// queue, and settles the job if that loss poisoned its last spec.
    /// Returns whether the loss was a precise strike on a suspect spec.
    fn return_batch(&self, run: &JobRun<'a>, outstanding: &VecDeque<usize>, batch: &Batch) -> bool {
        let blamed = run.dispatch.settle_loss(outstanding, batch.suspect);
        if run.dispatch.is_finished() {
            self.settle_job(run);
        }
        self.notify();
        blamed
    }

    /// [`Engine::return_batch`] for a channel loss.
    fn lose_batch(
        &self,
        run: &JobRun<'a>,
        outstanding: &VecDeque<usize>,
        batch: &Batch,
        detail: String,
        productive: bool,
    ) -> SessionEnd {
        SessionEnd::Lost {
            blamed: self.return_batch(run, outstanding, batch),
            detail,
            productive,
        }
    }

    /// Serves one claimed batch over a worker channel. `Ok` means the
    /// channel survived; otherwise the outstanding work is already settled
    /// back into the dispatch queue.
    fn serve_batch(
        &self,
        seat: Seat<'_>,
        transport: &mut dyn Transport,
        run: &JobRun<'a>,
        batch: &Batch,
        needs_open: bool,
        accepted: &mut usize,
    ) -> Result<(), SessionEnd> {
        let mut outstanding: VecDeque<usize> = batch.indices.iter().copied().collect();
        macro_rules! lose {
            ($($detail:tt)*) => {
                return Err(self.lose_batch(
                    run,
                    &outstanding,
                    batch,
                    format!($($detail)*),
                    *accepted > 0,
                ))
            };
        }
        if needs_open {
            let open = Message::JobOpen(JobOpen {
                job_id: run.spec.id,
                payload: run.spec.payload.clone(),
                fingerprint: run.spec.fingerprint,
                spec_count: run.spec.spec_count,
            });
            let _ = transport.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
            if let Err(e) = transport.send(&open) {
                lose!("shipping job {} failed: {e}", run.spec.id);
            }
            match transport.recv() {
                Ok(Message::JobReady(ready)) => {
                    if ready.job_id != run.spec.id
                        || ready.fingerprint != run.spec.fingerprint
                        || ready.spec_count != run.spec.spec_count
                    {
                        lose!(
                            "worker expanded job {} to fingerprint {:#018x}/{} specs, \
                             daemon has {:#018x}/{}",
                            run.spec.id,
                            ready.fingerprint,
                            ready.spec_count,
                            run.spec.fingerprint,
                            run.spec.spec_count
                        );
                    }
                }
                Ok(Message::ServiceErr(err)) => {
                    lose!("worker refused job {}: {}", run.spec.id, err.detail);
                }
                Ok(other) => {
                    lose!("expected JobReady, got {other:?}");
                }
                Err(e) => lose!("job handshake failed: {e}"),
            }
        }
        let _ = transport.set_read_timeout(self.config.assign_timeout);
        let exchanged = exchange_batch(
            seat.fleet,
            transport,
            batch,
            &mut outstanding,
            |index, seed, outcome| match outcome {
                Outcome::Record(record) => {
                    *accepted += 1;
                    self.on_record(seat, run, index, seed, record);
                }
                Outcome::Failed(detail) => {
                    // Deterministic: retrying fails the same way. The job
                    // dies; the worker is innocent, so the rest of the
                    // batch drains normally.
                    run.dispatch.complete(index);
                    self.fail_job(run, ClusterError::RunFailed { index, detail });
                }
            },
        );
        match exchanged {
            Ok(()) => Ok(()),
            Err(ExchangeEnd::Lost(detail)) => {
                Err(self.lose_batch(run, &outstanding, batch, detail, *accepted > 0))
            }
            Err(ExchangeEnd::Violation(detail)) => {
                self.return_batch(run, &outstanding, batch);
                Err(SessionEnd::Refused(ClusterError::Protocol {
                    worker: seat.fleet as usize,
                    detail,
                }))
            }
        }
    }

    /// The pull loop every worker session runs after its handshake:
    /// `Ready` in, then `JobOpen`? + `Assign` or `Shutdown` out, until the
    /// worker deregisters, nothing is left, or the channel dies.
    /// `current_job` is the job the worker has already expanded (a stdio
    /// worker's launch campaign).
    fn worker_session(
        &self,
        seat: Seat<'_>,
        threads: usize,
        mut current_job: Option<u64>,
        transport: &mut dyn Transport,
    ) -> SessionEnd {
        let mut accepted = 0usize;
        loop {
            // A worker owes its `Ready` the moment its last batch is
            // answered, so the assign deadline bounds it when one is set.
            let ready_timeout = self.config.assign_timeout.unwrap_or(HANDSHAKE_TIMEOUT);
            let _ = transport.set_read_timeout(Some(ready_timeout));
            match transport.recv() {
                Ok(Message::Ready) => {}
                Ok(Message::Deregister) => {
                    let _ = transport.send(&Message::Shutdown);
                    event(
                        "fleet",
                        format!("slot {} ({}) deregistered", seat.slot, seat.name),
                    );
                    return SessionEnd::Retired;
                }
                Ok(other) => {
                    return SessionEnd::Refused(ClusterError::Protocol {
                        worker: seat.fleet as usize,
                        detail: format!("expected Ready, got {other:?}"),
                    })
                }
                // With nothing left to serve, a worker gone before its
                // next `Ready` costs nothing: it would only have been told
                // to shut down.
                Err(_) if self.is_drained() => return SessionEnd::Retired,
                Err(e) => {
                    return SessionEnd::Lost {
                        detail: format!("worker channel lost: {e}"),
                        productive: accepted > 0,
                        blamed: false,
                    }
                }
            }
            let (run, batch) = match self.claim(threads) {
                Claim::Retire => {
                    let _ = transport.send(&Message::Shutdown);
                    return SessionEnd::Retired;
                }
                Claim::Work(run, batch) => (run, batch),
            };
            run.servers.fetch_add(1, Ordering::Relaxed);
            self.registry.set_job(seat.slot, Some(run.spec.id));
            let needs_open = current_job != Some(run.spec.id);
            let served = self.serve_batch(seat, transport, &run, &batch, needs_open, &mut accepted);
            run.servers.fetch_sub(1, Ordering::Relaxed);
            self.registry.set_job(seat.slot, None);
            if let Err(end) = served {
                return end;
            }
            current_job = Some(run.spec.id);
        }
    }

    /// Retires a registered worker's slot with blame and records the
    /// strike in telemetry.
    fn strike(&self, seat: Seat<'_>, detail: String) {
        let strikes = self.registry.retire(seat.slot, false);
        fleet_update(seat.fleet, |s| {
            s.strikes += 1;
            s.last_error = Some(detail.clone());
            if self.registry.is_quarantined(seat.name) {
                s.quarantined = true;
            }
        });
        counter!("service.worker_strikes").inc();
        event(
            "fleet",
            format!(
                "slot {} ({}) lost (strike {strikes}): {detail}",
                seat.slot, seat.name
            ),
        );
        self.notify();
    }

    /// Serves one accepted connection, classified by its first frame.
    fn session(&self, transport: &mut dyn Transport) {
        let _ = transport.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
        let first = match transport.recv_capped(FIRST_FRAME_MAX) {
            Ok(first) => first,
            Err(e) => {
                if e.kind() == io::ErrorKind::InvalidData {
                    // An oversized or garbled frame from a peer nobody has
                    // authenticated yet: refuse it and cut the connection.
                    let _ = transport.send(&refuse(
                        ServiceErrKind::BadPayload,
                        format!("first frame refused: {e}"),
                    ));
                }
                // The drain wake-up lands here too: a connection that
                // says nothing.
                return;
            }
        };
        match first {
            Message::Register(register) => self.registered_session(register, transport),
            Message::Hello(hello) => self.client_session(&hello, transport),
            _ => {
                // Neither a registration nor a client handshake: drop it.
            }
        }
    }

    /// Admits a registering worker and runs its pull loop.
    fn registered_session(&self, register: Register, transport: &mut dyn Transport) {
        if register.token != self.config.fleet_token {
            let _ = transport.send(&refuse(
                ServiceErrKind::BadToken,
                "fleet token mismatch".into(),
            ));
            return;
        }
        let slot = match self.registry.register(&register.name, register.threads) {
            Ok(slot) => slot,
            Err(RegisterRefusal::Quarantined(strikes)) => {
                let _ = transport.send(&refuse(
                    ServiceErrKind::Quarantined,
                    format!(
                        "worker name `{}` is quarantined after {strikes} channel \
                         strike(s); register under a fresh name",
                        register.name
                    ),
                ));
                return;
            }
        };
        let ours = BuildStamp::local(false);
        if register.build != ours {
            event(
                "build_mismatch",
                format!(
                    "slot {slot}: worker build {:?} differs from daemon {ours:?}",
                    register.build
                ),
            );
        }
        if transport.send(&Message::RegisterAck(slot)).is_err() {
            self.registry.retire(slot, false);
            return;
        }
        event(
            "fleet",
            format!(
                "slot {slot}: worker `{}` registered ({} thread(s)) from {}",
                register.name,
                register.threads,
                transport.peer()
            ),
        );
        counter!("service.registrations").inc();
        let seat = Seat {
            slot,
            fleet: slot,
            name: &register.name,
        };
        match self.worker_session(seat, register.threads, None, transport) {
            SessionEnd::Retired => {
                self.registry.retire(slot, true);
            }
            SessionEnd::Lost { detail, .. } => self.strike(seat, detail),
            SessionEnd::Refused(error) => self.strike(seat, error.to_string()),
        }
    }

    /// Completes a client's mutual handshake and answers its one command.
    fn client_session(&self, hello: &Hello, transport: &mut dyn Transport) {
        let Some((tenant, fleet)) = self.resolve_principal(&hello.token) else {
            let _ = transport.send(&refuse(
                ServiceErrKind::BadToken,
                "token matches no tenant".into(),
            ));
            return;
        };
        // Never echo any token.
        let ours = Message::Hello(Hello {
            worker_id: 0,
            fingerprint: 0,
            spec_count: 0,
            token: String::new(),
            threads: 0,
            build: BuildStamp::local(false),
        });
        if transport.send(&ours).is_err() {
            return;
        }
        let command = match transport.recv() {
            Ok(command) => command,
            Err(_) => return,
        };
        let drain = matches!(command, Message::Drain);
        let reply = self.client_command(&tenant, fleet, command);
        let _ = transport.send(&reply);
        if drain && matches!(reply, Message::DrainOk(_)) {
            self.stop();
        }
    }

    /// Resolves a client token to `(tenant label, is_fleet_principal)`.
    fn resolve_principal(&self, token: &str) -> Option<(String, bool)> {
        if token == self.config.fleet_token {
            return Some(("fleet".to_string(), true));
        }
        self.config
            .tenants
            .iter()
            .find(|(_, t)| t == token)
            .map(|(name, _)| (name.clone(), false))
    }

    fn status_reply(&self, tenant: &str, fleet: bool) -> StatusReply {
        let open = self.open_jobs.lock().expect("open-jobs mutex poisoned");
        let queue = self.queue.lock().expect("queue mutex poisoned");
        let jobs = queue
            .jobs()
            .filter(|job| fleet || job.spec.tenant == tenant)
            .map(|job| {
                let done = match job.phase {
                    JobPhase::Completed => job.spec.spec_count,
                    _ => open
                        .get(&job.spec.id)
                        .map(|run| run.done_count())
                        .unwrap_or(0),
                };
                JobStatusInfo {
                    job_id: job.spec.id,
                    name: job.spec.name.clone(),
                    tenant: job.spec.tenant.clone(),
                    phase: job.phase.name().to_string(),
                    done,
                    total: job.spec.spec_count,
                    detail: job.detail.clone(),
                }
            })
            .collect();
        let workers = self
            .registry
            .snapshot()
            .into_iter()
            .map(|(slot, worker, strikes, quarantined)| SlotStatusInfo {
                slot,
                name: worker.name,
                active: worker.active,
                done: worker.done,
                strikes,
                quarantined,
                job: worker.job,
            })
            .collect();
        StatusReply {
            jobs,
            workers,
            draining: self.draining.load(Ordering::Relaxed),
        }
    }

    /// Handles one authenticated client command and returns the reply.
    fn client_command(&self, tenant: &str, fleet: bool, command: Message) -> Message {
        match command {
            Message::Submit(submit) => {
                if self.draining.load(Ordering::Relaxed) {
                    return refuse(ServiceErrKind::Draining, "service is draining".into());
                }
                let plan = match self.planner.open(&submit.payload) {
                    Ok(plan) => plan,
                    Err(detail) => return refuse(ServiceErrKind::BadPayload, detail),
                };
                let submitted = {
                    let mut queue = self.queue.lock().expect("queue mutex poisoned");
                    queue.submit(
                        &submit.name,
                        tenant,
                        &submit.payload,
                        plan.fingerprint,
                        plan.spec_count,
                    )
                };
                match submitted {
                    Ok(job_id) => {
                        event(
                            "job",
                            format!(
                                "job {job_id} `{}` submitted by {tenant} ({} specs)",
                                submit.name, plan.spec_count
                            ),
                        );
                        self.update_job_gauges();
                        self.notify();
                        Message::Submitted(Submitted {
                            job_id,
                            fingerprint: plan.fingerprint,
                        })
                    }
                    Err(QueueError::DuplicateFingerprint(existing)) => refuse(
                        ServiceErrKind::DuplicateFingerprint,
                        format!("non-terminal job {existing} already holds this campaign"),
                    ),
                    Err(e) => refuse(ServiceErrKind::BadPayload, e.to_string()),
                }
            }
            Message::Status => Message::StatusReply(self.status_reply(tenant, fleet)),
            Message::Cancel(cancel) => {
                let scope = if fleet { None } else { Some(tenant) };
                let cancelled = {
                    let mut queue = self.queue.lock().expect("queue mutex poisoned");
                    queue.cancel(cancel.job_id, scope)
                };
                match cancelled {
                    Ok(()) => {
                        self.jobs_failed.fetch_add(1, Ordering::Relaxed);
                        if let Some(run) = self
                            .open_jobs
                            .lock()
                            .expect("open-jobs mutex poisoned")
                            .get(&cancel.job_id)
                            .cloned()
                        {
                            // Mark settled so no late finalize resurrects
                            // it; in-flight batches drain and journal, so a
                            // resubmission resumes their work.
                            run.settled.store(true, Ordering::SeqCst);
                            run.dispatch.abort();
                        }
                        self.open_jobs
                            .lock()
                            .expect("open-jobs mutex poisoned")
                            .remove(&cancel.job_id);
                        event(
                            "job",
                            format!("job {} cancelled by {tenant}", cancel.job_id),
                        );
                        self.update_job_gauges();
                        self.notify();
                        Message::CancelOk(cancel.job_id)
                    }
                    Err(QueueError::UnknownJob(id)) => refuse(
                        ServiceErrKind::UnknownJob,
                        format!("no job {id} visible to {tenant}"),
                    ),
                    Err(QueueError::Terminal(id)) => refuse(
                        ServiceErrKind::UnknownJob,
                        format!("job {id} already settled"),
                    ),
                    Err(e) => refuse(ServiceErrKind::BadPayload, e.to_string()),
                }
            }
            Message::Drain => {
                self.draining.store(true, Ordering::Relaxed);
                event("service", format!("drain requested by {tenant}"));
                self.notify();
                loop {
                    let seen = self.epoch();
                    if self
                        .queue
                        .lock()
                        .expect("queue mutex poisoned")
                        .all_terminal()
                    {
                        break;
                    }
                    self.park(seen);
                }
                Message::DrainOk(DrainOk {
                    jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
                    jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
                })
            }
            other => refuse(
                ServiceErrKind::BadPayload,
                format!("unsupported command {other:?}"),
            ),
        }
    }

    /// Stops the accept loop (idle workers retire at their next `Ready`).
    fn stop(&self) {
        self.stopping.store(true, Ordering::Relaxed);
        self.notify();
        if let Some(addr) = &self.wake_addr {
            // Unblock a TCP accept with a throwaway connection; non-TCP
            // listeners are expected to fail accept on their own when
            // their feeding side closes.
            let _ = TcpTransport::connect(addr, Duration::from_secs(1));
        }
    }

    /// Opens a one-shot slot's session over a spawned worker's stdio: the
    /// coordinator sends `Hello` for `run`'s campaign and the worker must
    /// answer with its own `Hello` (or `Reject`). Returns the worker's
    /// executor thread count, the batch size for this session.
    fn greet(
        &self,
        worker: usize,
        run: &JobRun<'a>,
        transport: &mut dyn Transport,
    ) -> Result<usize, SessionEnd> {
        let _ = transport.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
        let ours = BuildStamp::local(false);
        let hello = Message::Hello(Hello {
            worker_id: worker,
            fingerprint: run.spec.fingerprint,
            spec_count: run.spec.spec_count,
            token: self.config.fleet_token.clone(),
            threads: 0,
            build: ours.clone(),
        });
        if let Err(e) = transport.send(&hello) {
            return Err(SessionEnd::lost(format!("handshake send failed: {e}")));
        }
        let reply = match transport.recv() {
            Ok(reply) => reply,
            Err(e) => return Err(SessionEnd::lost(format!("handshake failed: {e}"))),
        };
        let refused = match reply {
            Message::Hello(hello) if hello.token != self.config.fleet_token => {
                ClusterError::Rejected {
                    worker,
                    reason: "worker token differs from the coordinator's".into(),
                }
            }
            Message::Hello(hello) if hello.fingerprint != run.spec.fingerprint => {
                ClusterError::FingerprintMismatch {
                    worker,
                    ours: run.spec.fingerprint,
                    theirs: hello.fingerprint,
                }
            }
            Message::Hello(hello) if hello.spec_count != run.spec.spec_count => {
                ClusterError::SpecCountMismatch {
                    worker,
                    ours: run.spec.spec_count,
                    theirs: hello.spec_count,
                }
            }
            Message::Hello(hello) => {
                if hello.build != ours {
                    // Advisory only: fingerprint/token checks gate the
                    // session, but a mixed-build fleet is worth a record.
                    event(
                        "build_mismatch",
                        format!(
                            "slot {worker}: worker build {:?} differs from coordinator {ours:?}",
                            hello.build
                        ),
                    );
                }
                return Ok(hello.threads.max(1));
            }
            Message::Reject(reason) => ClusterError::Rejected { worker, reason },
            other => ClusterError::Protocol {
                worker,
                detail: format!("expected Hello, got {other:?}"),
            },
        };
        Err(SessionEnd::Refused(refused))
    }

    /// Keeps one one-shot slot served: connect, greet, run the pull loop,
    /// and after a channel loss strike the slot's name and reconnect
    /// behind the backoff — until the job settles, the respawn budget (of
    /// *consecutive* failures; a productive session refills it) runs out,
    /// or lifetime strikes quarantine the slot. A refused handshake or a
    /// protocol violation fails the job: every slot runs the same binary,
    /// so retrying cannot help.
    fn drive_slot(
        &self,
        worker: usize,
        connector: &dyn Connector,
        run: &JobRun<'a>,
        max_respawns: usize,
        respawns: &AtomicUsize,
    ) -> Result<(), ClusterError> {
        let name = format!("slot-{worker}");
        let fleet = worker as u64;
        let mut respawns_left = max_respawns;
        let mut attempts = 0usize;
        loop {
            if self.is_drained() {
                return Ok(());
            }
            if attempts > 0 {
                let backoff = RECONNECT_DELAY
                    .saturating_mul(1u32 << (attempts - 1).min(16) as u32)
                    .min(RECONNECT_DELAY_MAX);
                std::thread::sleep(backoff);
            }
            attempts += 1;
            // The registry only books the thread count, so the slot
            // registers before the handshake that reports it.
            let slot = self
                .registry
                .register(&name, 1)
                .expect("a quarantined slot returns before it registers again");
            let seat = Seat {
                slot,
                fleet,
                name: &name,
            };
            let end = match connector.connect(worker) {
                Ok(mut transport) => match self.greet(worker, run, transport.as_mut()) {
                    Ok(threads) => {
                        self.worker_session(seat, threads, Some(run.spec.id), transport.as_mut())
                    }
                    Err(end) => end,
                },
                Err(e) => SessionEnd::lost(format!("{} unavailable: {e}", connector.describe())),
            };
            let (detail, blamed) = match end {
                SessionEnd::Retired => {
                    self.registry.retire(slot, true);
                    return Ok(());
                }
                SessionEnd::Refused(error) => {
                    self.registry.retire(slot, false);
                    self.fail_job(run, error);
                    return Ok(());
                }
                SessionEnd::Lost {
                    detail,
                    productive,
                    blamed,
                } => {
                    if productive {
                        // Results flowed this session, so the failure
                        // streak restarts: a fresh budget and backoff ramp.
                        respawns_left = max_respawns;
                        attempts = 0;
                    }
                    (detail, blamed)
                }
            };
            let strikes = self.registry.retire(slot, false);
            fleet_update(fleet, |s| {
                s.strikes += 1;
                s.last_error = Some(detail.clone());
            });
            if self.registry.is_quarantined(&name) {
                // The slot's unfinished work is already back in the queue
                // for the surviving slots.
                fleet_update(fleet, |s| s.quarantined = true);
                event(
                    "quarantine",
                    format!("slot {worker} after {strikes} strikes: {detail}"),
                );
                counter!("cluster.workers_quarantined").inc();
                return Err(ClusterError::WorkerQuarantined {
                    worker,
                    strikes,
                    detail,
                });
            }
            if blamed {
                // The crash was attributed to a poisonous spec, not this
                // worker: reconnect without charging the respawn budget.
                continue;
            }
            if respawns_left == 0 {
                event(
                    "worker_lost",
                    format!("slot {worker} exhausted its respawn budget: {detail}"),
                );
                counter!("cluster.workers_lost").inc();
                return Err(ClusterError::WorkerLost {
                    worker,
                    respawns: max_respawns,
                    detail,
                });
            }
            respawns_left -= 1;
            respawns.fetch_add(1, Ordering::Relaxed);
            fleet_update(fleet, |s| s.respawns += 1);
            event("respawn", format!("slot {worker}: {detail}"));
            counter!("cluster.respawns").inc();
        }
    }
}

fn refuse(kind: ServiceErrKind, detail: String) -> Message {
    Message::ServiceErr(ServiceErr { kind, detail })
}

/// Runs the service daemon until a client drains it.
///
/// Every accepted connection is served on its own scoped thread; the call
/// returns once a `Drain` command has settled every job and the accept
/// loop has stopped.
///
/// # Errors
///
/// Returns [`ClusterError::Io`] when the state directory cannot be opened
/// or the listener dies before a drain, and [`ClusterError::Config`] for
/// nonsense thresholds.
pub fn serve(
    mut listener: Box<dyn Listener>,
    planner: &dyn JobPlanner,
    config: &ServiceConfig,
) -> Result<ServiceSummary, ClusterError> {
    validate_limits(config.assign_timeout, config.quarantine_after)?;
    let queue = match &config.state_dir {
        Some(dir) => JobQueue::open(dir)
            .map_err(|e| ClusterError::Io(format!("state dir {} unusable: {e}", dir.display())))?,
        None => JobQueue::in_memory(),
    };
    if queue.dropped_lines > 0 {
        event(
            "service",
            format!(
                "{} corrupt job-log line(s) dropped on replay",
                queue.dropped_lines
            ),
        );
    }
    let engine = Engine::new(planner, config, queue, listener.local_addr().ok());
    engine.update_job_gauges();
    let accept_result: Result<(), ClusterError> = std::thread::scope(|scope| {
        loop {
            if engine.stopping.load(Ordering::Relaxed) {
                return Ok(());
            }
            match listener.accept() {
                Ok(mut transport) => {
                    engine.sessions.fetch_add(1, Ordering::Relaxed);
                    let engine = &engine;
                    scope.spawn(move || engine.session(transport.as_mut()));
                }
                Err(e) => {
                    if engine.stopping.load(Ordering::Relaxed) {
                        return Ok(());
                    }
                    // The listener died under a live service: unblock any
                    // parked sessions before reporting.
                    engine.stopping.store(true, Ordering::Relaxed);
                    engine.notify();
                    return Err(ClusterError::Io(format!("accept failed: {e}")));
                }
            }
        }
    });
    accept_result?;
    Ok(ServiceSummary {
        jobs_completed: engine.jobs_completed.load(Ordering::Relaxed),
        jobs_failed: engine.jobs_failed.load(Ordering::Relaxed),
        sessions: engine.sessions.load(Ordering::Relaxed),
    })
}

/// The planner of a one-shot run. Its one job is opened before any worker
/// connects, so nothing is ever expanded here; settling the job hands its
/// record set back to [`run_one_shot`].
#[derive(Default)]
struct OneShot {
    records: Mutex<Option<Vec<(usize, Value)>>>,
}

impl JobPlanner for OneShot {
    fn open(&self, _payload: &str) -> Result<JobPlan, String> {
        Err("a one-shot run takes no submissions".into())
    }

    fn finalize(&self, _spec: &JobSpec, records: Vec<(usize, Value)>) -> Result<String, String> {
        *self.records.lock().expect("records mutex poisoned") = Some(records);
        Ok(String::new())
    }
}

/// Runs `pending` of a campaign (`fingerprint`, `total` specs) over
/// `pool`'s connector-fed slots: the engine behind [`WorkerPool::run`],
/// whose docs give the contract.
pub(crate) fn run_one_shot<F>(
    pool: &WorkerPool,
    fingerprint: u64,
    total: usize,
    pending: &[usize],
    on_done: F,
) -> Result<ClusterOutcome, ClusterError>
where
    F: FnMut(&CheckpointEntry) -> Result<(), String> + Send,
{
    validate_limits(pool.assign_timeout, pool.quarantine_after)?;
    if pending.is_empty() {
        return Ok(ClusterOutcome::default());
    }
    let planner = OneShot::default();
    let config = ServiceConfig {
        quarantine_after: pool.quarantine_after,
        assign_timeout: pool.assign_timeout,
        ..ServiceConfig::new(pool.token.clone())
    };
    let mut queue = JobQueue::in_memory();
    let spec = queue
        .submit("one-shot", "", "", fingerprint, total)
        .and_then(|id| queue.set_phase(id, JobPhase::Running, None).map(|()| id))
        .map(|id| queue.get(id).expect("job just submitted").spec.clone())
        .expect("an in-memory queue takes its one job");
    let engine = Engine::new(&planner, &config, queue, None);
    // Nothing else is ever submitted: the run drains from the start.
    engine.draining.store(true, Ordering::Relaxed);
    let run = Arc::new(JobRun::new(spec, pending, Vec::new(), Box::new(on_done)));
    engine
        .open_jobs
        .lock()
        .expect("open-jobs mutex poisoned")
        .insert(run.spec.id, Arc::clone(&run));
    let respawns = AtomicUsize::new(0);
    let workers = pool.connectors.len().min(pending.len());
    let ends: Vec<Result<(), ClusterError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = pool.connectors[..workers]
            .iter()
            .enumerate()
            .map(|(worker, connector)| {
                let (engine, run, respawns) = (&engine, &run, &respawns);
                scope.spawn(move || {
                    engine.drive_slot(worker, connector.as_ref(), run, pool.max_respawns, respawns)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("slot thread panicked"))
            .collect()
    });
    // A slot ends in error only when it is gone for good: lost or
    // quarantined, its unfinished work re-dispatched to the others.
    let gone: Vec<ClusterError> = ends.into_iter().filter_map(Result::err).collect();
    let lost_workers = gone
        .iter()
        .filter(|e| matches!(e, ClusterError::WorkerLost { .. }))
        .count();
    let quarantined_workers = gone.len() - lost_workers;
    if let Some(error) = run.failure.lock().expect("failure mutex poisoned").take() {
        return Err(error);
    }
    let Some(collected) = planner
        .records
        .lock()
        .expect("records mutex poisoned")
        .take()
    else {
        // Work remains: every slot that could have absorbed it is gone
        // (`gone` is in slot order, so the lowest slot's loss reports).
        return Err(gone.into_iter().next().unwrap_or_else(|| {
            ClusterError::Merge(format!(
                "collected {} of {} records with no worker failure",
                run.dispatch.completed_count(),
                pending.len()
            ))
        }));
    };
    let mut expected = pending.to_vec();
    expected.sort_unstable();
    let merged = crate::shard::merge_indexed(&expected, collected)
        .map_err(|e| ClusterError::Merge(e.to_string()))?;
    Ok(ClusterOutcome {
        records: expected.into_iter().zip(merged).collect(),
        respawns: respawns.into_inner(),
        lost_workers,
        quarantined_workers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::read_message;
    use crate::transport::TcpTransportListener;
    use std::io::{BufReader, Read, Write};
    use std::net::TcpStream;

    /// The planner of a daemon that is only asked for its status.
    struct NoJobs;

    impl JobPlanner for NoJobs {
        fn open(&self, _payload: &str) -> Result<JobPlan, String> {
            Err("this daemon takes no jobs".into())
        }

        fn finalize(
            &self,
            _spec: &JobSpec,
            _records: Vec<(usize, Value)>,
        ) -> Result<String, String> {
            Err("this daemon takes no jobs".into())
        }
    }

    /// One authenticated client command under the fleet token.
    fn client(addr: &str, command: &Message) -> Message {
        let mut t = TcpTransport::connect(addr, Duration::from_secs(5)).unwrap();
        t.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        t.send(&Message::Hello(Hello {
            worker_id: 0,
            fingerprint: 0,
            spec_count: 0,
            token: "fleet".into(),
            threads: 0,
            build: BuildStamp::local(false),
        }))
        .unwrap();
        assert!(matches!(t.recv().unwrap(), Message::Hello(_)));
        t.send(command).unwrap();
        t.recv().unwrap()
    }

    #[test]
    fn a_huge_first_frame_is_refused_at_its_header_and_the_daemon_keeps_serving() {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServiceConfig::new("fleet");
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| serve(Box::new(listener), &NoJobs, &config));
            // An unauthenticated peer claims a 1 GiB first frame and starts
            // streaming its body (one write, so the daemon's first read
            // takes all of it and closes the socket without a reset).
            let mut peer = TcpStream::connect(&addr).unwrap();
            peer.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut bytes = format!("{}\n", 1usize << 30).into_bytes();
            bytes.resize(4096, b'x');
            peer.write_all(&bytes).unwrap();
            // The daemon refuses it at the header with a typed error and
            // hangs up, long before 1 GiB could arrive.
            let mut reader = BufReader::new(peer);
            match read_message(&mut reader).unwrap() {
                Message::ServiceErr(err) => {
                    assert_eq!(err.kind, ServiceErrKind::BadPayload);
                    assert!(
                        err.detail.contains(&format!("{FIRST_FRAME_MAX}-byte cap")),
                        "{}",
                        err.detail
                    );
                }
                other => panic!("expected a typed refusal, got {other:?}"),
            }
            let mut rest = Vec::new();
            assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "connection cut");
            // The same daemon still answers clients, then drains.
            assert!(matches!(
                client(&addr, &Message::Status),
                Message::StatusReply(_)
            ));
            assert!(matches!(
                client(&addr, &Message::Drain),
                Message::DrainOk(_)
            ));
            daemon.join().unwrap().unwrap();
        });
    }
}
