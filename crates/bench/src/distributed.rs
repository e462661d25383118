//! Sharded multi-process / multi-machine campaign execution — the
//! bench-side adapter over [`qismet_cluster`].
//!
//! Both halves of the protocol live here:
//!
//! * [`run_campaign_distributed`] is the coordinator: it expands the
//!   campaign, subtracts any runs already completed in the checkpoint
//!   journal (`--resume`), fans the remaining spec indices across a
//!   [`WorkerPool`] — spawned `campaign --worker` processes, remote
//!   `campaign --serve` daemons dialed over TCP, or any mix — journals
//!   every completion, and merges the records into a [`CampaignReport`]
//!   that is **byte-identical** to a sequential in-process run.
//! * [`serve_worker`] is the stdio worker loop the hidden `--worker` mode
//!   enters, and [`serve_campaign`] is the long-running `--serve` daemon
//!   that accepts coordinator connections on a [`Listener`] and survives
//!   their disconnects. Both re-expand the same campaign from the same
//!   grid flags, authenticate the coordinator's shared token, handshake
//!   with the campaign fingerprint, and answer batched `Assign(indices)`
//!   with one `Done(record)` per index — running each batch through a
//!   (possibly threaded) [`SweepExecutor`].
//!
//! Specs never cross the process boundary — they are pure data both sides
//! derive identically, so the wire carries only indices and records.

use crate::executor::try_run_one;
use crate::report::{CampaignReport, ReportMeta, RunRecord, RunsJsonlWriter};
use crate::scenario::{Campaign, RunSpec};
use crate::SweepExecutor;
use qismet_cluster::{
    load_journal, BuildStamp, CheckpointEntry, ClusterError, Connector, Done, FaultListener,
    FaultPlan, FaultTransport, Hello, JournalWriter, Listener, Message, Outcome, ProcessConnector,
    StdioTransport, TcpConnector, Transport, WorkerLaunch, WorkerPool, WorkerStats, WORKER_ID_ENV,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

// The legacy fault-injection env hooks now live on the chaos seam
// (`FaultPlan::from_env` translates them); re-exported here so existing
// callers keep compiling.
pub use qismet_cluster::{DROP_AFTER_ENV, EXIT_AFTER_ENV, MAX_SESSIONS_ENV};

/// How a distributed campaign should execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistributedOptions {
    /// Local worker process count (0 = none; requires a launch spec when
    /// positive).
    pub workers: usize,
    /// Remote worker daemons to dial (`host:port` each).
    pub connect: Vec<String>,
    /// Shared authentication token carried in the `Hello` handshake.
    pub token: String,
    /// Append-only checkpoint journal path; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Replay the journal first and re-run only the missing specs.
    /// Requires `checkpoint`.
    pub resume: bool,
    /// Per-worker respawn (process) / reconnect (TCP) budget.
    pub max_respawns: usize,
    /// Stream every completed record to this JSONL path as it finishes.
    pub stream_jsonl: Option<PathBuf>,
    /// Drop per-run series from coordinator residency once streamed: the
    /// merged report keeps every aggregate (final energy, jobs, skips...)
    /// but its `series` are empty — the full series live in the JSONL.
    /// Requires `stream_jsonl`.
    pub summary_only: bool,
    /// Per-`Assign` read deadline: a worker silent for this long (no
    /// `Done`, no `Ping`) is treated as hung and its channel cut. `None`
    /// disables the deadline (legacy behavior).
    pub assign_timeout: Option<Duration>,
    /// Handshake read deadline per session attempt; `None` keeps the pool
    /// default.
    pub handshake_timeout: Option<Duration>,
    /// TCP connect deadline per dial attempt; `None` keeps the connector
    /// default.
    pub connect_timeout: Option<Duration>,
    /// Straggler mitigation: when idle workers outnumber remaining work,
    /// duplicate in-flight indices onto them (first result wins).
    pub speculative: bool,
    /// Quarantine a worker slot for good after this many lifetime session
    /// failures; `None` never quarantines.
    pub quarantine_after: Option<usize>,
}

impl Default for DistributedOptions {
    fn default() -> Self {
        DistributedOptions {
            workers: 2,
            connect: Vec::new(),
            token: String::new(),
            checkpoint: None,
            resume: false,
            max_respawns: 2,
            stream_jsonl: None,
            summary_only: false,
            assign_timeout: None,
            handshake_timeout: None,
            connect_timeout: None,
            speculative: false,
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
    /// Worker respawns/reconnects along the way.
    pub respawns: usize,
    /// Worker slots lost for good (their work re-dispatched to survivors).
    pub lost_workers: usize,
    /// Worker slots quarantined after repeated session failures.
    pub quarantined_workers: usize,
}

/// Runs `campaign` across a pool of workers — `opts.workers` spawned
/// processes (launched via `launch`) plus one remote TCP worker per
/// `opts.connect` address — returning the merged report and run
/// statistics. See the module docs for the full contract; the short
/// version: same records, same order, same bytes as
/// `SweepExecutor::sequential().run(&campaign)`, whatever the topology.
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
    if opts.summary_only && opts.stream_jsonl.is_none() {
        return Err(ClusterError::Io(
            "summary-only merge requires a JSONL stream path".into(),
        ));
    }
    let mut connectors: Vec<Box<dyn Connector>> = Vec::new();
    if opts.workers > 0 {
        let launch = launch.ok_or_else(|| {
            ClusterError::Spawn("local workers requested without a launch spec".into())
        })?;
        for _ in 0..opts.workers {
            connectors.push(Box::new(ProcessConnector {
                launch: launch.clone(),
            }));
        }
    }
    for addr in &opts.connect {
        let mut connector = TcpConnector::new(addr.clone());
        if let Some(timeout) = opts.connect_timeout {
            connector = connector.with_connect_timeout(timeout);
        }
        connectors.push(Box::new(connector));
    }
    if connectors.is_empty() {
        return Err(ClusterError::Spawn(
            "no workers: need a positive worker count or at least one connect address".into(),
        ));
    }

    // Replay the journal: a record is only adopted if its (fingerprint,
    // index, seed) triple still matches the campaign being run.
    let mut resumed: BTreeMap<usize, RunRecord> = BTreeMap::new();
    if opts.resume {
        let path = opts.checkpoint.as_ref().expect("checked above");
        let loaded =
            load_journal(path, fingerprint).map_err(|e| ClusterError::Io(e.to_string()))?;
        for (index, entry) in loaded.entries {
            if index >= total || specs[index].seed != entry.seed {
                continue;
            }
            if let Ok(record) = RunRecord::from_value(&entry.record) {
                resumed.insert(index, record);
            }
        }
    }

    let journal = match &opts.checkpoint {
        Some(path) => Some(JournalWriter::append_to(path).map_err(io_err)?),
        None => None,
    };
    let stream = match &opts.stream_jsonl {
        Some(path) => {
            let mut w = RunsJsonlWriter::create(path).map_err(io_err)?;
            // Resumed records stream first so the file is a complete
            // account of the campaign, not just of this invocation.
            for record in resumed.values() {
                w.append(record).map_err(io_err)?;
            }
            Some(w)
        }
        None => None,
    };
    if opts.summary_only {
        // The streamed JSONL holds the full series; residency keeps the
        // aggregates only.
        for record in resumed.values_mut() {
            record.series.clear();
        }
    }

    let pending: Vec<usize> = (0..total).filter(|i| !resumed.contains_key(i)).collect();
    let executed = pending.len();

    // The pool calls `on_done` from its collector threads; a journal or
    // stream failure is fatal — the pool aborts instead of completing runs
    // whose durability was silently lost (everything already journaled
    // remains resumable).
    let summary_only = opts.summary_only;
    let sink_state = Mutex::new((journal, stream));
    let mut pool = WorkerPool::new(connectors)
        .with_max_respawns(opts.max_respawns)
        .with_token(opts.token.clone())
        .with_assign_timeout(opts.assign_timeout)
        .with_speculative(opts.speculative)
        .with_quarantine_after(opts.quarantine_after)
        .with_build(BuildStamp::local(cfg!(feature = "parallel")));
    if let Some(timeout) = opts.handshake_timeout {
        pool = pool.with_handshake_timeout(timeout);
    }
    let outcome = pool.run(
        fingerprint,
        total,
        &pending,
        |entry: &mut CheckpointEntry| {
            let mut state = sink_state.lock().expect("sink mutex poisoned");
            let (journal, stream) = &mut *state;
            if let Some(j) = journal {
                j.append(entry)
                    .map_err(|e| format!("checkpoint append failed: {e}"))?;
            }
            if let Some(s) = stream {
                let mut record = RunRecord::from_value(&entry.record)
                    .map_err(|e| format!("spec {}: malformed record: {e}", entry.index))?;
                s.append(&record)
                    .map_err(|e| format!("jsonl stream append failed: {e}"))?;
                if summary_only {
                    record.series.clear();
                    entry.record = record.to_value();
                }
            }
            Ok(())
        },
    )?;

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

fn io_err(e: io::Error) -> ClusterError {
    ClusterError::Io(e.to_string())
}

/// Worker-side behavior knobs, shared by the stdio worker and the TCP
/// serve daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerOptions {
    /// Shared authentication token; sessions whose coordinator presents a
    /// different token are rejected.
    pub token: String,
    /// Executor threads for batched assignments (0 = all cores under the
    /// `parallel` feature; effectively 1 otherwise). Advertised in the
    /// `Hello` reply so the coordinator sizes batches to match.
    pub threads: usize,
    /// Worker-initiated keepalive: while a batch computes, send a `Ping`
    /// whenever no result has been produced for this long, so a
    /// coordinator with an assign deadline can tell *slow* (frames still
    /// flowing) from *hung* (silence). `None` disables pings.
    pub heartbeat: Option<Duration>,
    /// How long a serve daemon lets an accepted-but-silent connection
    /// stall the accept loop before shedding it.
    pub handshake_timeout: Duration,
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
            heartbeat: Some(Duration::from_secs(2)),
            handshake_timeout: Duration::from_secs(10),
            plan: None,
        }
    }
}

impl WorkerOptions {
    /// The executor batch size this worker advertises (at least 1).
    fn advertised_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
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
pub(crate) fn channel_end(op: &str, e: io::Error) -> Result<SessionOutcome, ClusterError> {
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
/// daemon session reuse without baseline bookkeeping. Also tallies the
/// keepalive `Ping` -> `Pong` round trips, so the next `Done` carries
/// every one taken before it. Inert while telemetry is disabled: every
/// `Done` then carries `stats: None`.
#[derive(Default)]
pub(crate) struct StatsTracker {
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

/// Executes one `Assign` batch and streams its `Done`s — the worker-side
/// inner loop shared by the one-shot session protocol ([`serve_session`])
/// and the service-registration protocol
/// ([`register_worker`](crate::service::register_worker)).
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
pub(crate) fn run_assignment(
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

/// Serves one coordinator session over `transport`: mutual handshake, then
/// batched `Assign` -> `Done` streaming until `Shutdown` or disconnect.
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
    let threads = opts.advertised_threads();
    let executor = SweepExecutor::with_threads(threads);
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
    let worker_id = coordinator.worker_id;
    if coordinator.token != opts.token {
        // Never echo this worker's own token to an unauthenticated peer.
        let _ = transport.send(&Message::Reject("token mismatch".into()));
        return Ok(SessionOutcome::Rejected);
    }
    transport
        .send(&Message::Hello(Hello {
            worker_id,
            fingerprint: campaign.fingerprint(),
            spec_count: specs.len(),
            token: opts.token.clone(),
            threads,
            build: BuildStamp::local(cfg!(feature = "parallel")),
        }))
        .map_err(|e| ClusterError::Io(format!("hello reply failed: {e}")))?;
    let mut stats = StatsTracker::default();
    // Handshake deadline (if the caller set one) no longer applies: an
    // authenticated coordinator may legitimately idle between batches.
    let _ = transport.set_read_timeout(None);

    loop {
        let message = match transport.recv() {
            Ok(message) => message,
            // Coordinator exited or the channel was cut: stop quietly.
            Err(e) => return channel_end("worker read", e),
        };
        match message {
            Message::Assign(assign) => {
                if let Some(end) = run_assignment(
                    &executor,
                    specs,
                    worker_id,
                    &assign.indices,
                    transport,
                    opts.heartbeat,
                    &mut stats,
                )? {
                    return Ok(end);
                }
            }
            Message::Shutdown => return Ok(SessionOutcome::Shutdown),
            other => {
                return Err(ClusterError::Protocol {
                    worker: worker_id,
                    detail: format!("unexpected message {other:?}"),
                })
            }
        }
    }
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

/// The long-running worker daemon behind `campaign --serve <addr>`:
/// accepts coordinator sessions from `listener` one at a time and serves
/// each until shutdown or disconnect. Coordinator disconnects, rejected
/// handshakes, and per-session errors do **not** stop the daemon — it
/// returns to `accept` and waits for the next campaign, forever (or until
/// the fault plan's `max_sessions` have been accepted, when set). When the
/// options carry a [`FaultPlan`] with faults, every accepted session runs
/// through a [`FaultTransport`] sharing one once-per-process fault state.
///
/// Returns the number of sessions accepted.
///
/// # Errors
///
/// Returns a [`ClusterError`] only when `accept` itself fails (the
/// listening socket died).
pub fn serve_campaign(
    campaign: &Campaign,
    listener: Box<dyn Listener>,
    opts: &WorkerOptions,
) -> Result<usize, ClusterError> {
    // Daemon workers run with telemetry on, like `serve_worker`.
    qismet_telemetry::set_enabled(true);
    let specs = campaign.expand();
    let max_sessions = opts.plan.as_ref().and_then(|p| p.max_sessions);
    let mut listener: Box<dyn Listener> = match &opts.plan {
        Some(plan) if !plan.faults.is_empty() => {
            Box::new(FaultListener::new(listener, plan.clone()))
        }
        _ => listener,
    };
    let mut sessions = 0usize;
    loop {
        if let Some(max) = max_sessions {
            if sessions >= max {
                return Ok(sessions);
            }
        }
        let mut transport = listener
            .accept()
            .map_err(|e| ClusterError::Io(format!("accept failed: {e}")))?;
        sessions += 1;
        let peer = transport.peer();
        let _ = transport.set_read_timeout(Some(opts.handshake_timeout));
        match serve_session(campaign, &specs, transport.as_mut(), opts) {
            Ok(outcome) => {
                eprintln!("[serve] session {sessions} from {peer}: {outcome:?}");
            }
            Err(e) => {
                // A broken session must not take the daemon down.
                eprintln!("[serve] session {sessions} from {peer} failed: {e}");
            }
        }
    }
}
