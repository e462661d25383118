//! Sharded multi-process campaign execution — the bench-side adapter over
//! [`qismet_cluster`]'s coordinator engine for one-shot `--workers` runs.
//! (Remote fleets go through the campaign service in [`crate::service`].)
//!
//! Both halves of the protocol live here:
//!
//! * [`run_campaign_distributed`] is the coordinator: it expands the
//!   campaign, subtracts any runs already completed in the checkpoint
//!   journal (`--resume`), hands the remaining spec indices to a
//!   [`WorkerPool`] of spawned `campaign --worker` processes, journals
//!   every completion, and merges the records into a [`CampaignReport`]
//!   that is **byte-identical** to a sequential in-process run.
//! * The worker side is one session loop, `PullWorker::serve`, for
//!   every worker: after its handshake a worker sends `Ready`, expands
//!   the campaign a `JobOpen` ships (if any), and answers each batched
//!   `Assign(indices)` with one `Done(record)` per index — running each
//!   batch through a (possibly threaded) [`SweepExecutor`] — until
//!   `Shutdown`. [`serve_worker`], behind the hidden `--worker` mode,
//!   opens its session over stdio: it re-expands the same campaign from
//!   the same grid flags, authenticates the coordinator's shared token,
//!   and answers the coordinator's `Hello` with its own campaign
//!   fingerprint. `campaign --register` opens its session over TCP
//!   instead ([`crate::service::register_worker`]).
//!
//! Specs never cross the process boundary — they are pure data both sides
//! derive identically, so the wire carries only indices and records.

use crate::executor::{resolve_threads, try_run_one};
use crate::report::{CampaignReport, ReportMeta, RunRecord, RunsJsonlWriter};
use crate::scenario::{Campaign, RunSpec};
use crate::service::GridSpec;
use crate::SweepExecutor;
use qismet_cluster::protocol::{JobOpen, JobReady, ServiceErr};
use qismet_cluster::{
    resume_journal, BuildStamp, CheckpointEntry, ClusterError, Connector, Done, FaultPlan,
    FaultTransport, Hello, JournalWriter, Message, Outcome, ProcessConnector, ServiceErrKind,
    StdioTransport, Transport, WorkerLaunch, WorkerPool, WorkerStats, WORKER_ID_ENV,
};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};
use std::io;
use std::path::PathBuf;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// How often a worker pings while a batch computes, unless its options say
/// otherwise. An assign deadline must be longer than the heartbeat of the
/// workers it watches.
pub const DEFAULT_HEARTBEAT: Duration = Duration::from_secs(2);

/// How a distributed campaign should execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistributedOptions {
    /// Worker process count (at least 1; requires a launch spec).
    pub workers: usize,
    /// Shared authentication token carried in the `Hello` handshake.
    pub token: String,
    /// Append-only checkpoint journal path; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Replay the journal first and re-run only the missing specs.
    /// Requires `checkpoint`.
    pub resume: bool,
    /// Per-worker respawn budget.
    pub max_respawns: usize,
    /// Stream every completed record to this JSONL path, in expansion
    /// order (a record that completes early waits for every lower index).
    pub stream_jsonl: Option<PathBuf>,
    /// Per-`Assign` read deadline: a worker silent for this long (no
    /// `Done`, no `Ping`) is treated as hung and its channel cut. `None`
    /// disables the deadline (legacy behavior).
    pub assign_timeout: Option<Duration>,
    /// Quarantine a worker slot for good after this many lifetime session
    /// failures; `None` never quarantines.
    pub quarantine_after: Option<usize>,
}

impl Default for DistributedOptions {
    fn default() -> Self {
        DistributedOptions {
            workers: 2,
            token: String::new(),
            checkpoint: None,
            resume: false,
            max_respawns: 2,
            stream_jsonl: None,
            assign_timeout: None,
            quarantine_after: None,
        }
    }
}

/// What a distributed run did, for operator-facing summaries and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistributedStats {
    /// Total specs in the campaign.
    pub total: usize,
    /// Specs skipped because the journal already held their records.
    pub resumed: usize,
    /// Specs executed by the worker pool this invocation.
    pub executed: usize,
    /// Worker respawns along the way.
    pub respawns: usize,
    /// Worker slots lost for good (their work re-dispatched to survivors).
    pub lost_workers: usize,
    /// Worker slots quarantined after repeated session failures.
    pub quarantined_workers: usize,
}

/// Runs `campaign` across a pool of `opts.workers` spawned processes
/// (launched via `launch`), returning the merged report and run
/// statistics. See the module docs for the full contract; the short
/// version: same records, same order, same bytes as
/// `SweepExecutor::sequential().run(&campaign)`, whatever the worker count.
///
/// # Errors
///
/// Returns a [`ClusterError`] on worker launch/handshake/protocol
/// failures, when unfinished work outlives every worker, when a spec fails
/// deterministically, or when journal/stream I/O fails. Completed runs are
/// already journaled at that point, so a checkpointed invocation can be
/// retried with `resume` to pick up where it stopped.
pub fn run_campaign_distributed(
    campaign: &Campaign,
    launch: Option<WorkerLaunch>,
    opts: &DistributedOptions,
) -> Result<(CampaignReport, DistributedStats), ClusterError> {
    let specs = campaign.expand();
    let total = specs.len();
    let fingerprint = campaign.fingerprint();

    if opts.resume && opts.checkpoint.is_none() {
        return Err(ClusterError::Io(
            "resume requires a checkpoint journal path".into(),
        ));
    }
    if opts.workers == 0 {
        return Err(ClusterError::Spawn(
            "no workers: need a positive worker count".into(),
        ));
    }
    let launch = launch
        .ok_or_else(|| ClusterError::Spawn("workers requested without a launch spec".into()))?;
    let connectors: Vec<Box<dyn Connector>> = (0..opts.workers)
        .map(|_| {
            Box::new(ProcessConnector {
                launch: launch.clone(),
            }) as Box<dyn Connector>
        })
        .collect();

    // Replay the journal: a record is only adopted if its (fingerprint,
    // index, seed) triple still matches the campaign being run.
    let mut resumed: BTreeMap<usize, RunRecord> = BTreeMap::new();
    let journal = match &opts.checkpoint {
        Some(path) if opts.resume => {
            let seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
            let (entries, writer) = resume_journal(path, fingerprint, &seeds).map_err(io_err)?;
            for entry in entries {
                if let Ok(record) = RunRecord::from_value(&entry.record) {
                    resumed.insert(entry.index, record);
                }
            }
            Some(writer)
        }
        Some(path) => Some(JournalWriter::append_to(path).map_err(io_err)?),
        None => None,
    };
    let stream = match &opts.stream_jsonl {
        Some(path) => {
            let mut w = OrderedStream {
                writer: RunsJsonlWriter::create(path).map_err(io_err)?,
                next: 0,
                held: BTreeMap::new(),
            };
            // Resumed records go in too, so the file is a complete account
            // of the campaign, not just of this invocation.
            for (&index, record) in &resumed {
                w.push(index, record.clone()).map_err(io_err)?;
            }
            Some(w)
        }
        None => None,
    };

    let pending: Vec<usize> = (0..total).filter(|i| !resumed.contains_key(i)).collect();
    let executed = pending.len();

    // The engine calls `on_done` from its session threads; a journal or
    // stream failure is fatal — the run stops instead of completing runs
    // whose durability was silently lost (everything already journaled
    // remains resumable).
    let sink_state = Mutex::new((journal, stream));
    let pool = WorkerPool::new(connectors)
        .with_max_respawns(opts.max_respawns)
        .with_token(opts.token.clone())
        .with_assign_timeout(opts.assign_timeout)
        .with_quarantine_after(opts.quarantine_after);
    let outcome = pool.run(fingerprint, total, &pending, |entry: &CheckpointEntry| {
        let mut state = sink_state.lock().expect("sink mutex poisoned");
        let (journal, stream) = &mut *state;
        if let Some(j) = journal {
            j.append(entry)
                .map_err(|e| format!("checkpoint append failed: {e}"))?;
        }
        if let Some(s) = stream {
            let record = RunRecord::from_value(&entry.record)
                .map_err(|e| format!("spec {}: malformed record: {e}", entry.index))?;
            s.push(entry.index, record)
                .map_err(|e| format!("jsonl stream append failed: {e}"))?;
        }
        Ok(())
    })?;

    // Merge resumed + fresh records into expansion order — the same
    // exactly-once merge the shard layer guarantees.
    let mut parts: Vec<(usize, RunRecord)> = resumed.into_iter().collect();
    let resumed_count = parts.len();
    for (index, value) in &outcome.records {
        let record = RunRecord::from_value(value).map_err(|e| ClusterError::Protocol {
            worker: usize::MAX,
            detail: format!("spec {index} returned a malformed record: {e}"),
        })?;
        parts.push((*index, record));
    }
    let expected: Vec<usize> = (0..total).collect();
    let records = qismet_cluster::merge_indexed(&expected, parts)
        .map_err(|e| ClusterError::Merge(e.to_string()))?;

    let report = CampaignReport {
        name: campaign.name.clone(),
        seed: campaign.seed,
        meta: ReportMeta::current(),
        records,
    };
    let stats = DistributedStats {
        total,
        resumed: resumed_count,
        executed,
        respawns: outcome.respawns,
        lost_workers: outcome.lost_workers,
        quarantined_workers: outcome.quarantined_workers,
    };
    Ok((report, stats))
}

/// The `--jsonl` stream of a distributed run, written in expansion order:
/// a record that completes early waits in `held` until every lower index
/// is written, so the file is byte-identical to an in-process run's.
struct OrderedStream {
    writer: RunsJsonlWriter,
    /// The lowest index not yet written.
    next: usize,
    held: BTreeMap<usize, RunRecord>,
}

impl OrderedStream {
    fn push(&mut self, index: usize, record: RunRecord) -> io::Result<()> {
        self.held.insert(index, record);
        while let Some(record) = self.held.remove(&self.next) {
            self.writer.append(&record)?;
            self.next += 1;
        }
        Ok(())
    }
}

fn io_err(e: io::Error) -> ClusterError {
    ClusterError::Io(e.to_string())
}

/// Worker-side behavior knobs for the stdio worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerOptions {
    /// Shared authentication token; sessions whose coordinator presents a
    /// different token are rejected.
    pub token: String,
    /// Executor threads for batched assignments (0 = all cores).
    /// Advertised in the `Hello` reply so the coordinator sizes batches to
    /// match.
    pub threads: usize,
    /// Worker-initiated keepalive: while a batch computes, send a `Ping`
    /// whenever no result has been produced for this long, so a
    /// coordinator with an assign deadline can tell *slow* (frames still
    /// flowing) from *hung* (silence). `None` disables pings.
    pub heartbeat: Option<Duration>,
    /// Deterministic fault injection: the plan this worker executes
    /// against its own channel (see [`qismet_cluster::chaos`]). `None` (the
    /// default) runs the channel clean.
    pub plan: Option<FaultPlan>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            token: String::new(),
            threads: 1,
            heartbeat: Some(DEFAULT_HEARTBEAT),
            plan: None,
        }
    }
}

/// How one worker session ended (all are normal from the worker's side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOutcome {
    /// The coordinator sent `Shutdown` after draining its queue.
    Shutdown,
    /// The channel closed cleanly (coordinator exited or crashed).
    CoordinatorGone,
    /// The handshake was refused (token mismatch).
    Rejected,
    /// The channel was cut mid-stream (an injected fault or a network
    /// reset); from the worker's side this is a normal session end.
    Dropped,
}

/// Classifies a channel I/O failure: clean closes and connection cuts are
/// normal session ends for a worker; anything else is a real error.
fn channel_end(op: &str, e: io::Error) -> Result<SessionOutcome, ClusterError> {
    match e.kind() {
        io::ErrorKind::UnexpectedEof | io::ErrorKind::BrokenPipe => {
            Ok(SessionOutcome::CoordinatorGone)
        }
        io::ErrorKind::ConnectionAborted | io::ErrorKind::ConnectionReset => {
            Ok(SessionOutcome::Dropped)
        }
        _ => Err(ClusterError::Io(format!("{op} failed: {e}"))),
    }
}

/// Worker-side telemetry bookkeeping for the `Done.stats` piggyback:
/// samples the process-global sweep / plan-cache counters and ships the
/// **delta** since this session's previous `Done`, so the coordinator
/// aggregates by plain addition — arithmetic that survives respawns and
/// reconnecting registered workers without baseline bookkeeping. Also tallies the
/// keepalive `Ping` -> `Pong` round trips, so the next `Done` carries
/// every one taken before it. Inert while telemetry is disabled: every
/// `Done` then carries `stats: None`.
#[derive(Default)]
struct StatsTracker {
    last: [u64; 4],
    rtt_count: u64,
    rtt_ns_sum: u64,
    rtt_ns_max: u64,
}

impl StatsTracker {
    fn round_trip(&mut self, rtt: Duration) {
        if !qismet_telemetry::enabled() {
            return;
        }
        let ns = u64::try_from(rtt.as_nanos()).unwrap_or(u64::MAX);
        self.rtt_count += 1;
        self.rtt_ns_sum = self.rtt_ns_sum.saturating_add(ns);
        self.rtt_ns_max = self.rtt_ns_max.max(ns);
    }

    fn next_delta(&mut self) -> Option<WorkerStats> {
        if !qismet_telemetry::enabled() {
            return None;
        }
        let now = [
            qismet_telemetry::counter!("sweep.specs_done").get(),
            qismet_telemetry::counter!("sweep.eval_ns").get(),
            qismet_telemetry::counter!("qsim.plan_cache.hits").get(),
            qismet_telemetry::counter!("qsim.plan_cache.misses").get(),
        ];
        let delta = WorkerStats {
            specs_done: now[0].saturating_sub(self.last[0]),
            eval_ns: now[1].saturating_sub(self.last[1]),
            plan_hits: now[2].saturating_sub(self.last[2]),
            plan_misses: now[3].saturating_sub(self.last[3]),
            rtt_count: std::mem::take(&mut self.rtt_count),
            rtt_ns_sum: std::mem::take(&mut self.rtt_ns_sum),
            rtt_ns_max: std::mem::take(&mut self.rtt_ns_max),
        };
        self.last = now;
        Some(delta)
    }
}

/// Executes one `Assign` batch and streams its `Done`s — the inner step of
/// [`PullWorker::serve`].
///
/// The whole batch fans across the executor's threads; panics come back
/// as per-spec typed errors, so one poisoned spec fails its index, not
/// the session. Each `Done` streams out the moment its spec completes
/// (not when the whole batch does), so the coordinator journals finished
/// work at single-run granularity even when a threaded worker dies
/// mid-batch. While the batch computes, a `Ping` goes out per quiet
/// heartbeat interval so a coordinator assign deadline fires on hung
/// workers, not slow ones. The coordinator answers every `Ping` while a
/// batch is outstanding, so its `Pong` is read right away: that times the
/// control-plane round trip, and no reply is left unread when the batch's
/// last `Done` goes out.
///
/// Returns `Ok(None)` when the batch was fully acknowledged and
/// `Ok(Some(end))` when the channel ended mid-batch (the executor is
/// still drained so no run is left dangling).
fn run_assignment(
    executor: &SweepExecutor,
    specs: &[RunSpec],
    worker_id: usize,
    indices: &[usize],
    transport: &mut dyn Transport,
    heartbeat: Option<Duration>,
    stats: &mut StatsTracker,
) -> Result<Option<SessionOutcome>, ClusterError> {
    let batch: Vec<&RunSpec> = indices
        .iter()
        .map(|&index| {
            specs.get(index).ok_or_else(|| ClusterError::Protocol {
                worker: worker_id,
                detail: format!("assigned index {index} beyond spec count {}", specs.len()),
            })
        })
        .collect::<Result<_, _>>()?;
    let (tx, rx) = mpsc::channel::<(usize, u64, Outcome)>();
    // The executor shares the closure across its threads, so the
    // (per-thread) sender lives behind a mutex.
    let tx = Mutex::new(tx);
    let mut session_end: Option<Result<SessionOutcome, ClusterError>> = None;
    std::thread::scope(|scope| {
        let batch = &batch;
        scope.spawn(move || {
            executor.run_specs(batch, |spec| {
                let outcome = match try_run_one(spec) {
                    Ok(record) => Outcome::Record(record.to_value()),
                    Err(e) => Outcome::Failed(e.to_string()),
                };
                let sent = tx
                    .lock()
                    .expect("done channel mutex poisoned")
                    .send((spec.index, spec.seed, outcome));
                // A failed send means the receiver is gone (session
                // already ending): discard.
                let _ = sent;
            });
        });
        for _ in 0..batch.len() {
            let (index, seed, outcome) = loop {
                match heartbeat.filter(|_| session_end.is_none()) {
                    Some(interval) => match rx.recv_timeout(interval) {
                        Ok(result) => break result,
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            let sent = Instant::now();
                            if let Err(e) = transport.send(&Message::Ping) {
                                session_end = Some(channel_end("ping", e));
                                continue;
                            }
                            match transport.recv() {
                                Ok(Message::Pong) => stats.round_trip(sent.elapsed()),
                                Ok(other) => {
                                    session_end = Some(Err(ClusterError::Protocol {
                                        worker: worker_id,
                                        detail: format!("expected Pong, got {other:?}"),
                                    }))
                                }
                                Err(e) => session_end = Some(channel_end("pong read", e)),
                            }
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => {
                            panic!("executor thread closed the channel")
                        }
                    },
                    None => break rx.recv().expect("executor thread closed the channel"),
                }
            };
            if session_end.is_some() {
                // Already ending (channel cut mid-batch): drain the
                // executor without acknowledging.
                continue;
            }
            if let Err(e) = transport.send(&Message::Done(Done {
                index,
                seed,
                outcome,
                stats: stats.next_delta(),
            })) {
                session_end = Some(channel_end("done", e));
                continue;
            }
        }
    });
    match session_end {
        None => Ok(None),
        Some(Ok(end)) => Ok(Some(end)),
        Some(Err(e)) => Err(e),
    }
}

/// The worker side of every session after its handshake: the executor,
/// the campaigns this worker has expanded, and the batches it has served.
/// A registered worker keeps one across reconnects.
pub(crate) struct PullWorker<'s> {
    executor: SweepExecutor,
    heartbeat: Option<Duration>,
    /// Leave voluntarily (`Deregister`) once this many batches are served.
    deregister_after: Option<usize>,
    /// The campaign a stdio worker was launched with; assignments that no
    /// `JobOpen` preceded index into it.
    launched: &'s [RunSpec],
    /// Campaigns shipped by `JobOpen`, by job id: fingerprint and specs.
    /// An expansion is pure, so a worker that rejoins re-derives the same
    /// specs; keeping them saves the work.
    pub(crate) jobs: BTreeMap<u64, (u64, Vec<RunSpec>)>,
    /// Batches served to completion, across sessions.
    pub(crate) batches: usize,
}

impl<'s> PullWorker<'s> {
    pub(crate) fn new(
        threads: usize,
        heartbeat: Option<Duration>,
        deregister_after: Option<usize>,
        launched: &'s [RunSpec],
    ) -> Self {
        PullWorker {
            executor: SweepExecutor::with_threads(threads),
            heartbeat,
            deregister_after,
            launched,
            jobs: BTreeMap::new(),
            batches: 0,
        }
    }

    /// Serves one session after its handshake: `Ready` out; `JobOpen`
    /// (answered `JobReady` once the payload expands), `Assign` (answered
    /// with one `Done` per index) or `Shutdown` in; until `Shutdown`, a
    /// voluntary `Deregister`, or the channel ends.
    ///
    /// # Errors
    ///
    /// Returns a [`ClusterError`] on protocol violations or channel I/O
    /// failures mid-session. A cleanly closed or cut channel is a normal
    /// [`SessionOutcome`], not an error.
    pub(crate) fn serve(
        &mut self,
        transport: &mut dyn Transport,
        worker_id: usize,
    ) -> Result<SessionOutcome, ClusterError> {
        let mut stats = StatsTracker::default();
        let mut current: Option<u64> = None;
        loop {
            if matches!(self.deregister_after, Some(limit) if self.batches >= limit) {
                // Voluntary leave: no strike. The daemon acknowledges with
                // Shutdown (best-effort — it may already be gone).
                let _ = transport.send(&Message::Deregister);
                let _ = transport.recv();
                eprintln!("[worker] deregistered after {} batch(es)", self.batches);
                return Ok(SessionOutcome::Shutdown);
            }
            if let Err(e) = transport.send(&Message::Ready) {
                return channel_end("ready", e);
            }
            let mut message = match transport.recv() {
                Ok(message) => message,
                // Coordinator exited or the channel was cut: stop quietly.
                Err(e) => return channel_end("worker read", e),
            };
            if let Message::JobOpen(open) = &message {
                if let Err(detail) = self.open_job(open) {
                    // Typed refusal; the daemon cuts this session and
                    // re-dispatches elsewhere.
                    let _ = transport.send(&Message::ServiceErr(ServiceErr {
                        kind: ServiceErrKind::BadPayload,
                        detail,
                    }));
                    return Ok(SessionOutcome::Dropped);
                }
                let (fingerprint, specs) = &self.jobs[&open.job_id];
                let ready = Message::JobReady(JobReady {
                    job_id: open.job_id,
                    fingerprint: *fingerprint,
                    spec_count: specs.len(),
                });
                if let Err(e) = transport.send(&ready) {
                    return channel_end("job ready", e);
                }
                current = Some(open.job_id);
                message = match transport.recv() {
                    Ok(message) => message,
                    Err(e) => return channel_end("worker read", e),
                };
            }
            let assign = match message {
                Message::Assign(assign) => assign,
                Message::Shutdown => return Ok(SessionOutcome::Shutdown),
                other => {
                    return Err(ClusterError::Protocol {
                        worker: worker_id,
                        detail: format!("expected JobOpen/Assign/Shutdown, got {other:?}"),
                    })
                }
            };
            let specs = match current {
                Some(job_id) => &self.jobs[&job_id].1,
                None => self.launched,
            };
            if let Some(end) = run_assignment(
                &self.executor,
                specs,
                worker_id,
                &assign.indices,
                transport,
                self.heartbeat,
                &mut stats,
            )? {
                return Ok(end);
            }
            self.batches += 1;
        }
    }

    /// Expands a `JobOpen` payload (once per job id) — the worker's own
    /// expansion, which the daemon checks against its fingerprint.
    fn open_job(&mut self, open: &JobOpen) -> Result<(), String> {
        if let Entry::Vacant(slot) = self.jobs.entry(open.job_id) {
            let campaign = GridSpec::from_json(&open.payload)?.to_campaign()?;
            let specs = campaign.expand();
            slot.insert((campaign.fingerprint(), specs));
        }
        Ok(())
    }
}

/// Serves one coordinator session over `transport`: the stdio handshake
/// (the coordinator's `Hello` in; this worker's `Hello`, or `Reject` on a
/// token mismatch, out), then the pull loop every worker runs, until
/// `Shutdown` or disconnect.
///
/// # Errors
///
/// Returns a [`ClusterError`] on protocol violations or channel I/O
/// failures mid-session. A cleanly closed channel is a normal
/// [`SessionOutcome::CoordinatorGone`], not an error.
pub fn serve_session(
    campaign: &Campaign,
    specs: &[RunSpec],
    transport: &mut dyn Transport,
    opts: &WorkerOptions,
) -> Result<SessionOutcome, ClusterError> {
    let threads = resolve_threads(opts.threads);
    let mut worker = PullWorker::new(threads, opts.heartbeat, None, specs);
    let coordinator = match transport.recv() {
        Ok(Message::Hello(hello)) => hello,
        Ok(other) => {
            return Err(ClusterError::Protocol {
                worker: 0,
                detail: format!("expected coordinator Hello, got {other:?}"),
            })
        }
        Err(e) => return channel_end("handshake read", e),
    };
    if coordinator.token != opts.token {
        // Never echo this worker's own token to an unauthenticated peer.
        let _ = transport.send(&Message::Reject("token mismatch".into()));
        return Ok(SessionOutcome::Rejected);
    }
    transport
        .send(&Message::Hello(Hello {
            worker_id: coordinator.worker_id,
            fingerprint: campaign.fingerprint(),
            spec_count: specs.len(),
            token: opts.token.clone(),
            threads,
            build: BuildStamp::local(false),
        }))
        .map_err(|e| ClusterError::Io(format!("hello reply failed: {e}")))?;
    worker.serve(transport, coordinator.worker_id)
}

/// The stdio worker half: serves exactly one coordinator session over
/// stdin/stdout. Invoked by the hidden `campaign --worker` mode with the
/// campaign rebuilt from the same grid flags the coordinator parsed. When
/// the options carry a [`FaultPlan`], the channel runs through a
/// [`FaultTransport`] (slot learned from `QISMET_CLUSTER_WORKER_ID`).
///
/// # Errors
///
/// Returns a [`ClusterError`] on protocol violations or channel I/O
/// failures. A cleanly closed stdin is a normal shutdown, not an error.
pub fn serve_worker(campaign: &Campaign, opts: &WorkerOptions) -> Result<(), ClusterError> {
    // Worker processes always run with telemetry on so every `Done` can
    // piggyback stats; the gate never changes computed records, so the
    // coordinator-side on/off byte-identity guarantee is unaffected.
    qismet_telemetry::set_enabled(true);
    let specs = campaign.expand();
    let stdio = Box::new(StdioTransport::new());
    let mut transport: Box<dyn Transport> = match &opts.plan {
        Some(plan) if !plan.faults.is_empty() => {
            let slot = std::env::var(WORKER_ID_ENV)
                .ok()
                .and_then(|v| v.parse().ok());
            Box::new(FaultTransport::new(stdio, plan.clone(), slot))
        }
        _ => stdio,
    };
    serve_session(campaign, &specs, transport.as_mut(), opts).map(|_| ())
}
