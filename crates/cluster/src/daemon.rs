//! The long-running campaign service daemon.
//!
//! [`serve`] turns a [`Listener`] into a persistent coordinator: instead
//! of dialing a fixed worker topology for one campaign and exiting, the
//! daemon accepts connections forever and classifies each by its first
//! frame:
//!
//! * [`Register`](Message::Register) — an elastic worker joins the fleet.
//!   It gets a dynamic slot from the [`WorkerRegistry`] and enters a
//!   *pull* loop: the worker sends [`Ready`](Message::Ready), the daemon
//!   picks the best runnable job (priority desc, least-served first, then
//!   submission order), ships the campaign via
//!   [`JobOpen`](Message::JobOpen) if the worker has not expanded it yet,
//!   then streams a plain [`Assign`](Message::Assign). Workers join and
//!   leave mid-campaign freely: a voluntary
//!   [`Deregister`](Message::Deregister) retires the slot without blame,
//!   a channel loss returns the batch remainder to the job's dispatch
//!   queue as suspects (same crash-blame/poison machinery as the static
//!   pool) and charges a quarantine strike to the worker's *name*.
//! * [`Hello`](Message::Hello) — a client authenticates with a per-tenant
//!   token and issues exactly one command: `Submit`, `Status`, `Cancel`,
//!   or `Drain`. Refusals are typed ([`ServiceErr`](Message::ServiceErr)).
//!
//! Campaign expansion lives behind the [`JobPlanner`] seam so this crate
//! stays independent of the bench harness: the daemon never interprets a
//! payload itself, it only routes indices and records. Every job journals
//! into its own checkpoint file (when a state directory is configured),
//! so a daemon killed anywhere resumes every interrupted job on restart,
//! and the final report of every job is byte-identical to a sequential
//! run of the same campaign — the dispatch queue preserves the
//! first-result-wins, index-keyed merge discipline of the one-shot pool
//! regardless of how jobs interleave or when workers come and go.

use crate::coordinator::{validate_limits, ClusterError};
use crate::dispatch::{exchange_batch, Batch, Dispatch, ExchangeEnd};
use crate::journal::{load_journal, JournalWriter};
use crate::protocol::{
    BuildStamp, CheckpointEntry, DrainOk, Hello, JobOpen, JobStatusInfo, Message, Outcome,
    ServiceErr, ServiceErrKind, SlotStatusInfo, StatusReply, Submitted,
};
use crate::queue::{JobPhase, JobQueue, JobSpec, QueueError};
use crate::registry::{RegisterRefusal, WorkerRegistry};
use crate::transport::{Listener, TcpTransport, Transport};
use qismet_telemetry::{counter, event, fleet_update, gauge};
use serde::Value;
use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;
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

/// Tuning and authentication for one [`serve`] call.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Shared secret registering workers must present.
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
    /// Mid-batch silence bound, as in the one-shot pool (`None` = wait
    /// forever; workers heartbeat while computing).
    pub assign_timeout: Option<Duration>,
    /// Bound on handshake-ish exchanges (registration, `Ready`,
    /// `JobReady`, client commands).
    pub handshake_timeout: Duration,
}

impl ServiceConfig {
    /// A config with the given fleet token and the same defaults as the
    /// one-shot pool (no tenants, ephemeral, no quarantine).
    pub fn new(fleet_token: impl Into<String>) -> Self {
        ServiceConfig {
            fleet_token: fleet_token.into(),
            tenants: Vec::new(),
            state_dir: None,
            quarantine_after: None,
            assign_timeout: None,
            handshake_timeout: crate::coordinator::DEFAULT_HANDSHAKE_TIMEOUT,
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

/// How often parked session threads re-check for runnable work. The
/// condvar is notified on every state change; the timeout only bounds the
/// window for races between the check and the wait.
const WORK_POLL: Duration = Duration::from_millis(200);

/// One opened (running) job's in-memory execution state.
struct JobRun {
    spec: JobSpec,
    dispatch: Dispatch,
    /// Journal-replayed records, sorted by index.
    resumed: Vec<(usize, Value)>,
    results: Mutex<Vec<(usize, Value)>>,
    journal: Mutex<Option<JournalWriter>>,
    /// Sessions currently holding one of this job's batches (the
    /// least-served tie-break that spreads a fleet across equal-priority
    /// jobs, making them genuinely concurrent).
    servers: AtomicUsize,
    /// Settle-once guard (finalize, fail, or cancel — first wins).
    settled: AtomicBool,
}

impl JobRun {
    fn done_count(&self) -> usize {
        self.resumed.len() + self.dispatch.completed_count()
    }
}

/// What [`Engine::claim`] hands a worker session.
enum Claim {
    /// Serve this batch of this job.
    Work(Arc<JobRun>, Batch),
    /// The service is draining and nothing is left: send `Shutdown`.
    Retire,
}

struct Engine<'a> {
    planner: &'a dyn JobPlanner,
    config: &'a ServiceConfig,
    queue: Mutex<JobQueue>,
    registry: WorkerRegistry,
    open_jobs: Mutex<BTreeMap<u64, Arc<JobRun>>>,
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
    fn notify(&self) {
        self.work.notify_all();
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
    fn settle_job(&self, run: &Arc<JobRun>) {
        if run.settled.swap(true, Ordering::SeqCst) {
            return;
        }
        let id = run.spec.id;
        let poisoned = run.dispatch.poisoned_indices();
        if !poisoned.is_empty() {
            self.conclude(
                id,
                JobPhase::Failed,
                format!(
                    "{} spec(s) {:?} repeatedly killed their workers and were poisoned \
                     ({} other spec(s) completed and journaled)",
                    poisoned.len(),
                    poisoned,
                    run.done_count(),
                ),
            );
            return;
        }
        let mut records = run.resumed.clone();
        records.extend(
            run.results
                .lock()
                .expect("results mutex poisoned")
                .iter()
                .cloned(),
        );
        records.sort_by_key(|(index, _)| *index);
        match self.planner.finalize(&run.spec, records) {
            Ok(detail) => self.conclude(id, JobPhase::Completed, detail),
            Err(detail) => self.conclude(id, JobPhase::Failed, detail),
        }
    }

    /// Fails a run exactly once (deterministic run failure, lost
    /// durability) and aborts its outstanding dispatch.
    fn fail_job(&self, run: &Arc<JobRun>, detail: String) {
        if run.settled.swap(true, Ordering::SeqCst) {
            return;
        }
        run.dispatch.abort();
        self.conclude(run.spec.id, JobPhase::Failed, detail);
    }

    /// Opens the highest-priority queued job: expands it through the
    /// planner, replays its journal, and publishes the run. Returns
    /// whether any queued job was taken (even if opening it failed).
    fn open_next_job(&self) -> bool {
        let spec = {
            let mut queue = self.queue.lock().expect("queue mutex poisoned");
            let next = queue
                .runnable()
                .iter()
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
        let mut writer = None;
        let mut replayed: Vec<bool> = vec![false; plan.spec_count];
        if let Some(path) = &journal_path {
            let loaded = match load_journal(path, spec.fingerprint) {
                Ok(loaded) => loaded,
                Err(e) => {
                    self.conclude(
                        spec.id,
                        JobPhase::Failed,
                        format!("journal {} unreadable: {e}", path.display()),
                    );
                    return true;
                }
            };
            for (index, entry) in loaded.entries {
                // Same replay guard as the one-shot coordinator: the spec
                // must still exist and still resolve to the journaled seed.
                if index < plan.spec_count && plan.seeds[index] == entry.seed {
                    replayed[index] = true;
                    resumed.push((index, entry.record));
                }
            }
            writer = match JournalWriter::append_to(path) {
                Ok(writer) => Some(writer),
                Err(e) => {
                    self.conclude(
                        spec.id,
                        JobPhase::Failed,
                        format!("journal {} unwritable: {e}", path.display()),
                    );
                    return true;
                }
            };
        }
        let pending: Vec<usize> = (0..plan.spec_count).filter(|&i| !replayed[i]).collect();
        let run = Arc::new(JobRun {
            spec: spec.clone(),
            dispatch: Dispatch::new(&pending, false),
            resumed,
            results: Mutex::new(Vec::with_capacity(pending.len())),
            journal: Mutex::new(writer),
            servers: AtomicUsize::new(0),
            settled: AtomicBool::new(false),
        });
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
    /// jobs as needed; parks until work appears, the service drains, or
    /// the accept loop stops.
    fn claim(&self, threads: usize) -> Claim {
        loop {
            if self.stopping.load(Ordering::Relaxed) {
                return Claim::Retire;
            }
            {
                let open = self.open_jobs.lock().expect("open-jobs mutex poisoned");
                let mut candidates: Vec<&Arc<JobRun>> = open.values().collect();
                candidates.sort_by(|a, b| {
                    b.spec
                        .priority
                        .cmp(&a.spec.priority)
                        .then(
                            a.servers
                                .load(Ordering::Relaxed)
                                .cmp(&b.servers.load(Ordering::Relaxed)),
                        )
                        .then(a.spec.id.cmp(&b.spec.id))
                });
                for run in candidates {
                    if let Some(batch) = run.dispatch.try_pop_batch(threads) {
                        return Claim::Work(run.clone(), batch);
                    }
                }
            }
            if self.open_next_job() {
                continue;
            }
            if self.draining.load(Ordering::Relaxed)
                && self
                    .queue
                    .lock()
                    .expect("queue mutex poisoned")
                    .all_terminal()
            {
                return Claim::Retire;
            }
            let guard = self.open_jobs.lock().expect("open-jobs mutex poisoned");
            let _ = self
                .work
                .wait_timeout(guard, WORK_POLL)
                .expect("open-jobs mutex poisoned");
        }
    }

    /// Accepts one result: journal first (durability before visibility),
    /// then the in-memory record set; settles the job when it was the
    /// last index.
    fn on_record(&self, slot: u64, run: &Arc<JobRun>, index: usize, seed: u64, record: Value) {
        // The results lock is held from marking the index complete until
        // its record is stored: a session that completes the last index of
        // the job settles it, and settling must see every record.
        let mut results = run.results.lock().expect("results mutex poisoned");
        if !run.dispatch.complete(index) {
            // A twin finished first (re-dispatched suspect that was still
            // live elsewhere): byte-identical by construction, drop it.
            fleet_update(slot, |s| s.duplicates_lost += 1);
            return;
        }
        let mut entry = CheckpointEntry {
            fingerprint: run.spec.fingerprint,
            index,
            seed,
            record,
        };
        let journaled = {
            let mut journal = run.journal.lock().expect("journal mutex poisoned");
            match journal.as_mut() {
                Some(writer) => writer.append(&entry).map_err(|e| e.to_string()),
                None => Ok(()),
            }
        };
        if let Err(detail) = journaled {
            drop(results);
            // Durability lost: completing more work that can never be
            // resumed helps nobody — fail the job, keep the fleet.
            self.fail_job(run, format!("journal append failed: {detail}"));
            return;
        }
        fleet_update(slot, |s| s.done += 1);
        counter!("cluster.specs_done").inc();
        counter!("service.records").inc();
        self.registry.record_done(slot);
        results.push((index, std::mem::replace(&mut entry.record, Value::Null)));
        drop(results);
        if run.dispatch.is_finished() {
            self.settle_job(run);
        }
        self.notify();
    }

    /// Hands a lost session's outstanding work back to its job's dispatch
    /// queue and surfaces the loss detail.
    fn lose_batch(
        &self,
        run: &Arc<JobRun>,
        outstanding: &VecDeque<usize>,
        was_suspect: bool,
        detail: String,
    ) -> Result<(), String> {
        run.dispatch.settle_loss(outstanding, was_suspect);
        self.notify();
        Err(detail)
    }

    /// Serves one claimed batch over a worker channel. `Ok` means the
    /// channel survived; `Err` carries the loss detail (outstanding work
    /// already settled back into the dispatch queue).
    fn serve_batch(
        &self,
        slot: u64,
        transport: &mut dyn Transport,
        run: &Arc<JobRun>,
        batch: &Batch,
        needs_open: bool,
    ) -> Result<(), String> {
        let mut outstanding: VecDeque<usize> = batch.indices.iter().copied().collect();
        macro_rules! lose {
            ($($detail:tt)*) => {
                return self.lose_batch(run, &outstanding, batch.suspect, format!($($detail)*))
            };
        }
        if needs_open {
            let open = Message::JobOpen(JobOpen {
                job_id: run.spec.id,
                payload: run.spec.payload.clone(),
                fingerprint: run.spec.fingerprint,
                spec_count: run.spec.spec_count,
            });
            let _ = transport.set_read_timeout(Some(self.config.handshake_timeout));
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
            slot,
            transport,
            batch,
            &mut outstanding,
            |index, seed, outcome| {
                match outcome {
                    Outcome::Record(record) => self.on_record(slot, run, index, seed, record),
                    Outcome::Failed(detail) => {
                        // Deterministic: retrying fails the same way. The
                        // job dies; the worker is innocent and keeps serving
                        // other jobs, so drain the rest of the batch
                        // normally.
                        run.dispatch.complete(index);
                        self.fail_job(
                            run,
                            format!("spec {index} failed deterministically: {detail}"),
                        );
                    }
                }
                Ok::<(), Infallible>(())
            },
        );
        match exchanged {
            Ok(()) => Ok(()),
            Err(ExchangeEnd::Lost(detail) | ExchangeEnd::Violation(detail)) => {
                self.lose_batch(run, &outstanding, batch.suspect, detail)
            }
            Err(ExchangeEnd::Stopped(never)) => match never {},
        }
    }

    /// Drives one registered worker session until it deregisters, the
    /// service drains, or the channel dies.
    fn worker_session(&self, slot: u64, name: &str, threads: usize, transport: &mut dyn Transport) {
        let mut current_job: Option<u64> = None;
        loop {
            let _ = transport.set_read_timeout(Some(self.config.handshake_timeout));
            match transport.recv() {
                Ok(Message::Ready) => {}
                Ok(Message::Deregister) => {
                    let _ = transport.send(&Message::Shutdown);
                    self.registry.retire(slot, true);
                    event("fleet", format!("slot {slot} ({name}) deregistered"));
                    return;
                }
                Ok(other) => {
                    self.strike(slot, name, format!("expected Ready, got {other:?}"));
                    return;
                }
                Err(e) => {
                    self.strike(slot, name, format!("worker channel lost: {e}"));
                    return;
                }
            }
            match self.claim(threads) {
                Claim::Retire => {
                    let _ = transport.send(&Message::Shutdown);
                    self.registry.retire(slot, true);
                    return;
                }
                Claim::Work(run, batch) => {
                    run.servers.fetch_add(1, Ordering::Relaxed);
                    self.registry.set_job(slot, Some(run.spec.id));
                    let needs_open = current_job != Some(run.spec.id);
                    let served = self.serve_batch(slot, transport, &run, &batch, needs_open);
                    run.servers.fetch_sub(1, Ordering::Relaxed);
                    self.registry.set_job(slot, None);
                    match served {
                        Ok(()) => current_job = Some(run.spec.id),
                        Err(detail) => {
                            self.strike(slot, name, detail);
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Retires a slot with blame and records the strike in telemetry.
    fn strike(&self, slot: u64, name: &str, detail: String) {
        let strikes = self.registry.retire(slot, false);
        fleet_update(slot, |s| {
            s.strikes += 1;
            s.last_error = Some(detail.clone());
            if self.registry.is_quarantined(name) {
                s.quarantined = true;
            }
        });
        counter!("service.worker_strikes").inc();
        event(
            "fleet",
            format!("slot {slot} ({name}) lost (strike {strikes}): {detail}"),
        );
        self.notify();
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
                    priority: job.spec.priority,
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
                        submit.priority,
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
                                "job {job_id} `{}` submitted by {tenant} \
                                 (priority {}, {} specs)",
                                submit.name, submit.priority, plan.spec_count
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
                    if self
                        .queue
                        .lock()
                        .expect("queue mutex poisoned")
                        .all_terminal()
                    {
                        break;
                    }
                    let guard = self.open_jobs.lock().expect("open-jobs mutex poisoned");
                    let _ = self
                        .work
                        .wait_timeout(guard, WORK_POLL)
                        .expect("open-jobs mutex poisoned");
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

    /// Serves one accepted connection, classified by its first frame.
    fn session(&self, transport: &mut dyn Transport) {
        let _ = transport.set_read_timeout(Some(self.config.handshake_timeout));
        let first = match transport.recv() {
            Ok(first) => first,
            // The drain wake-up lands here: a connection that says nothing.
            Err(_) => return,
        };
        match first {
            Message::Register(register) => {
                if register.token != self.config.fleet_token {
                    let _ = transport.send(&refuse(
                        ServiceErrKind::BadToken,
                        "fleet token mismatch".into(),
                    ));
                    return;
                }
                match self.registry.register(&register.name, register.threads) {
                    Ok(slot) => {
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
                        self.worker_session(slot, &register.name, register.threads, transport);
                    }
                    Err(RegisterRefusal::Quarantined(strikes)) => {
                        let _ = transport.send(&refuse(
                            ServiceErrKind::Quarantined,
                            format!(
                                "worker name `{}` is quarantined after {strikes} channel \
                                 strike(s); register under a fresh name",
                                register.name
                            ),
                        ));
                    }
                }
            }
            Message::Hello(hello) => {
                let Some((tenant, fleet)) = self.resolve_principal(&hello.token) else {
                    let _ = transport.send(&refuse(
                        ServiceErrKind::BadToken,
                        "token matches no tenant".into(),
                    ));
                    return;
                };
                // Complete the mutual handshake; never echo any token.
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
            _ => {
                // Neither a registration nor a client handshake: drop it.
            }
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
/// nonsense thresholds (mirroring the one-shot pool's validation).
pub fn serve(
    mut listener: Box<dyn Listener>,
    planner: &dyn JobPlanner,
    config: &ServiceConfig,
) -> Result<ServiceSummary, ClusterError> {
    validate_limits(
        config.handshake_timeout,
        config.assign_timeout,
        config.quarantine_after,
    )?;
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
    let engine = Engine {
        planner,
        config,
        queue: Mutex::new(queue),
        registry: WorkerRegistry::new(config.quarantine_after),
        open_jobs: Mutex::new(BTreeMap::new()),
        work: Condvar::new(),
        draining: AtomicBool::new(false),
        stopping: AtomicBool::new(false),
        jobs_completed: AtomicUsize::new(0),
        jobs_failed: AtomicUsize::new(0),
        sessions: AtomicUsize::new(0),
        wake_addr: listener.local_addr().ok(),
    };
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
