//! The worker-pool coordinator.
//!
//! [`WorkerPool::run`] drives one [`crate::transport::Connector`] per
//! worker slot (in production, a spawned `campaign --worker` process)
//! through the same lifecycle: connect, exchange the mutual
//! [`Hello`] handshake (campaign fingerprint, spec
//! count, shared token), then stream [`Assign`](crate::protocol::Assign)
//! batches sized to the worker's advertised thread count from a shared
//! dispatch queue. Each [`Done`](crate::protocol::Done) is surfaced to the caller's `on_done` sink (where the journal
//! append and any streaming writers live) before being merged into
//! index-addressed slots. The batch exchange itself is
//! `dispatch::exchange_batch`, shared with the service daemon.
//!
//! ## Fault model
//!
//! * **Channel loss** (crash, OOM-kill, network drop, corrupted frame): the
//!   un-acknowledged remainder of the batch returns to the shared queue as
//!   *suspects* — re-dispatched one index at a time so any further crash is
//!   precisely attributable — and the session is re-established through the
//!   connector (a respawn, for process workers) behind an exponential
//!   backoff. Respawns consume the slot's respawn budget, which measures
//!   *consecutive* failures: a session that delivered at least one result
//!   refills it.
//! * **Hang** (worker alive, frames stopped): with an assign deadline
//!   configured ([`WorkerPool::with_assign_timeout`]), silence past the
//!   deadline tears the session down exactly like a channel loss. Workers
//!   that are merely *slow* stay alive by sending
//!   [`Ping`](crate::protocol::Message::Ping) heartbeats while they
//!   compute; the coordinator answers each with a `Pong` and resets the
//!   deadline.
//! * **Slot exhaustion**: a slot whose budget runs out is declared lost;
//!   with [`WorkerPool::with_quarantine_after`], a slot that keeps striking
//!   (even non-consecutively) is quarantined. Either way its unfinished
//!   work is **re-dispatched to the surviving workers**; the pool only
//!   fails with [`ClusterError::WorkerLost`] if work remains when every
//!   slot is gone.
//! * **Poison specs**: a crash attributed to one specific spec twice stops
//!   being retried — the spec is isolated and reported as a typed
//!   [`ClusterError::PoisonedSpecs`] while every other spec completes and
//!   journals as usual. Attributed crashes do not consume the slot's
//!   respawn budget: the spec is at fault, not the worker.
//! * **Stragglers**: with [`WorkerPool::with_speculative`], an idle worker
//!   duplicates in-flight assignments instead of idling at the tail of the
//!   campaign; the first result per index wins and duplicates are
//!   discarded, so byte-identity is unaffected.
//! * **Deterministic run failure** ([`Outcome::Failed`], e.g. a panicking
//!   spec): retrying would fail the same way, so the pool shuts down and
//!   returns [`ClusterError::RunFailed`].
//!
//! Whatever the worker count or fault sequence, the merged records are
//! **byte-identical** to a sequential in-process run: results are keyed by
//! spec index and every record is a pure function of its pure spec.

use crate::dispatch::{exchange_batch, Batch, Dispatch, ExchangeEnd};
use crate::protocol::{BuildStamp, CheckpointEntry, Hello, Message, Outcome};
use crate::transport::{Connector, Transport};
use qismet_telemetry::{counter, event, fleet_update};
use serde::Value;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Everything that can go wrong while coordinating a pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The worker session could not be established at all.
    Spawn(String),
    /// The pool was configured with nonsense (zero timeouts, zero
    /// thresholds). Caught before any session starts.
    Config(String),
    /// A worker's `Hello` fingerprint disagrees with the coordinator's —
    /// the two sides expanded different campaigns (wrong flags, wrong
    /// binary). Never retried.
    FingerprintMismatch {
        /// Worker pool index.
        worker: usize,
        /// The coordinator's fingerprint.
        ours: u64,
        /// The worker's fingerprint.
        theirs: u64,
    },
    /// A worker's `Hello` spec count disagrees with the coordinator's.
    SpecCountMismatch {
        /// Worker pool index.
        worker: usize,
        /// The coordinator's spec count.
        ours: usize,
        /// The worker's spec count.
        theirs: usize,
    },
    /// The worker refused the handshake (shared-token mismatch). Never
    /// retried.
    Rejected {
        /// Worker pool index.
        worker: usize,
        /// The worker's stated reason.
        reason: String,
    },
    /// A worker kept dying after exhausting its respawn budget and no
    /// surviving worker could absorb its unfinished share.
    WorkerLost {
        /// Worker pool index.
        worker: usize,
        /// Respawns consumed before giving up.
        respawns: usize,
        /// The final channel failure.
        detail: String,
    },
    /// A worker accumulated too many lifetime channel strikes (see
    /// [`WorkerPool::with_quarantine_after`]) and was removed from the
    /// pool; its unfinished work was re-dispatched.
    WorkerQuarantined {
        /// Worker pool index.
        worker: usize,
        /// Lifetime strikes accumulated.
        strikes: usize,
        /// The final channel failure.
        detail: String,
    },
    /// One or more specs repeatedly killed the workers assigned to them
    /// and were isolated instead of burning the respawn budget. Every
    /// *other* spec completed and reached the `on_done` sink (so a
    /// journaling caller can resume after fixing the cause).
    PoisonedSpecs {
        /// The isolated spec indices, sorted.
        indices: Vec<usize>,
        /// How many other specs completed.
        completed: usize,
    },
    /// A worker reported a failed run (e.g. the spec panicked). The failure
    /// is deterministic, so it is not retried.
    RunFailed {
        /// The failing spec index.
        index: usize,
        /// The worker's failure description.
        detail: String,
    },
    /// A live worker violated the protocol (wrong index, unexpected
    /// message kind).
    Protocol {
        /// Worker pool index.
        worker: usize,
        /// What went wrong.
        detail: String,
    },
    /// Journal or streaming I/O failed on the coordinator side.
    Io(String),
    /// The collected records do not cover the dispatched index set.
    Merge(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Spawn(detail) => write!(f, "failed to start worker: {detail}"),
            ClusterError::Config(detail) => write!(f, "invalid pool configuration: {detail}"),
            ClusterError::FingerprintMismatch {
                worker,
                ours,
                theirs,
            } => write!(
                f,
                "worker {worker} expanded a different campaign \
                 (fingerprint {theirs:#018x}, coordinator has {ours:#018x})"
            ),
            ClusterError::SpecCountMismatch {
                worker,
                ours,
                theirs,
            } => write!(
                f,
                "worker {worker} expanded {theirs} specs, coordinator has {ours}"
            ),
            ClusterError::Rejected { worker, reason } => {
                write!(f, "worker {worker} refused the handshake: {reason}")
            }
            ClusterError::WorkerLost {
                worker,
                respawns,
                detail,
            } => write!(
                f,
                "worker {worker} lost after {respawns} respawn(s): {detail}"
            ),
            ClusterError::WorkerQuarantined {
                worker,
                strikes,
                detail,
            } => write!(
                f,
                "worker {worker} quarantined after {strikes} channel strike(s): {detail}"
            ),
            ClusterError::PoisonedSpecs { indices, completed } => write!(
                f,
                "{} spec(s) {:?} repeatedly killed their workers and were poisoned/isolated \
                 ({completed} other spec(s) completed; resume after fixing the cause)",
                indices.len(),
                indices
            ),
            ClusterError::RunFailed { index, detail } => {
                write!(f, "spec {index} failed: {detail}")
            }
            ClusterError::Protocol { worker, detail } => {
                write!(f, "protocol violation from worker {worker}: {detail}")
            }
            ClusterError::Io(detail) => write!(f, "cluster I/O error: {detail}"),
            ClusterError::Merge(detail) => write!(f, "record merge failed: {detail}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// The successful result of a pool run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// One `(index, record)` pair per dispatched spec, sorted by index.
    pub records: Vec<(usize, Value)>,
    /// Worker respawns/reconnects that occurred along the way.
    pub respawns: usize,
    /// Worker slots that were declared lost (their work was re-dispatched
    /// to the survivors).
    pub lost_workers: usize,
    /// Worker slots quarantined for accumulating channel strikes (their
    /// work was re-dispatched to the survivors).
    pub quarantined_workers: usize,
}

/// Default bound on the handshake round-trip (a worker that starts but
/// never answers must not hang the pool). Override via
/// [`WorkerPool::with_handshake_timeout`].
pub const DEFAULT_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Rejects zero/nonsense durations and thresholds before any session
/// starts — the checks the one-shot pool and the service daemon share.
pub(crate) fn validate_limits(
    handshake_timeout: Duration,
    assign_timeout: Option<Duration>,
    quarantine_after: Option<usize>,
) -> Result<(), ClusterError> {
    let problem = if handshake_timeout.is_zero() {
        "handshake timeout must be positive"
    } else if matches!(assign_timeout, Some(t) if t.is_zero()) {
        "assign timeout must be positive (omit it to wait forever)"
    } else if quarantine_after == Some(0) {
        "quarantine-after threshold must be at least 1 (omit it to disable)"
    } else {
        return Ok(());
    };
    Err(ClusterError::Config(problem.into()))
}

/// Base pause between a channel loss and the reconnect attempt; doubles
/// per consecutive attempt (capped by [`RECONNECT_DELAY_MAX`]) so a worker
/// that keeps failing to start is not hammered into a spuriously exhausted
/// respawn budget.
const RECONNECT_DELAY: Duration = Duration::from_millis(50);

/// Ceiling for the exponential reconnect backoff.
const RECONNECT_DELAY_MAX: Duration = Duration::from_secs(5);

/// A pool of workers — one [`Connector`] per slot — executing spec indices.
///
/// Production pools hold one `ProcessConnector` per slot (spawned
/// `campaign --worker` children); tests substitute scripted connectors
/// through the same seam.
pub struct WorkerPool {
    connectors: Vec<Box<dyn Connector>>,
    max_respawns: usize,
    token: String,
    assign_timeout: Option<Duration>,
    handshake_timeout: Duration,
    speculative: bool,
    quarantine_after: Option<usize>,
    build: BuildStamp,
}

impl WorkerPool {
    /// A pool with one worker slot per connector (at least one required).
    ///
    /// # Panics
    ///
    /// Panics if `connectors` is empty.
    pub fn new(connectors: Vec<Box<dyn Connector>>) -> Self {
        assert!(
            !connectors.is_empty(),
            "worker pool needs at least one connector"
        );
        WorkerPool {
            connectors,
            max_respawns: 2,
            token: String::new(),
            assign_timeout: None,
            handshake_timeout: DEFAULT_HANDSHAKE_TIMEOUT,
            speculative: false,
            quarantine_after: None,
            build: BuildStamp::local(false),
        }
    }

    /// Overrides the per-worker budget of *consecutive* session failures
    /// (0 = a slot is lost on its first channel failure). A session that
    /// delivered at least one result refills the budget.
    #[must_use]
    pub fn with_max_respawns(mut self, max_respawns: usize) -> Self {
        self.max_respawns = max_respawns;
        self
    }

    /// Sets the shared authentication token carried in the coordinator's
    /// `Hello` (workers reject sessions whose token differs from theirs).
    #[must_use]
    pub fn with_token(mut self, token: impl Into<String>) -> Self {
        self.token = token.into();
        self
    }

    /// Bounds how long a session may go silent mid-batch before it is torn
    /// down and its shard re-dispatched (`None` = wait forever, the
    /// legacy behavior). Workers heartbeat while computing, so this
    /// detects *hung* workers, not slow specs — set it well above the
    /// worker heartbeat interval.
    #[must_use]
    pub fn with_assign_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.assign_timeout = timeout;
        self
    }

    /// Replaces the default handshake round-trip bound
    /// ([`DEFAULT_HANDSHAKE_TIMEOUT`]).
    #[must_use]
    pub fn with_handshake_timeout(mut self, timeout: Duration) -> Self {
        self.handshake_timeout = timeout;
        self
    }

    /// Enables speculative tail execution: an idle worker duplicates
    /// in-flight assignments instead of idling; the first result per index
    /// wins and duplicates are discarded (byte-identity is unaffected —
    /// records are pure functions of their spec).
    #[must_use]
    pub fn with_speculative(mut self, speculative: bool) -> Self {
        self.speculative = speculative;
        self
    }

    /// Quarantines a slot after this many *lifetime* channel strikes
    /// (`None` = never). Unlike the respawn budget, strikes do not reset
    /// on productive sessions — this catches a flaky worker that limps
    /// along failing every few batches.
    #[must_use]
    pub fn with_quarantine_after(mut self, strikes: Option<usize>) -> Self {
        self.quarantine_after = strikes;
        self
    }

    /// Total worker slots in this pool.
    pub fn workers(&self) -> usize {
        self.connectors.len()
    }

    /// The worker count this pool will actually start for `n` pending specs.
    pub fn effective_workers(&self, n: usize) -> usize {
        self.connectors.len().min(n.max(1))
    }

    /// Dispatches `pending` spec indices across the pool and collects the
    /// records. `fingerprint`/`total` describe the campaign both sides
    /// expanded; `on_done` observes every completed run (in completion
    /// order, across workers) before the merge — the place to append
    /// checkpoints or stream records, and (via the mutable entry) to strip
    /// payload the coordinator should not keep resident. A sink error is
    /// fatal: the pool aborts rather than silently continuing without
    /// durability.
    ///
    /// # Errors
    ///
    /// Returns the first fatal [`ClusterError`] (by worker index) if any
    /// worker or the sink fails fatally; the remaining workers are aborted
    /// at their next assignment boundary instead of draining the queue.
    /// Completed work was already visible through `on_done`, so a
    /// journaling caller can resume. A non-fatal worker loss only surfaces
    /// as [`ClusterError::WorkerLost`] when no surviving worker could
    /// finish the queue; poisoned specs surface as
    /// [`ClusterError::PoisonedSpecs`] after everything else completed.
    pub fn run<F>(
        &self,
        fingerprint: u64,
        total: usize,
        pending: &[usize],
        on_done: F,
    ) -> Result<ClusterOutcome, ClusterError>
    where
        F: FnMut(&mut CheckpointEntry) -> Result<(), String> + Send,
    {
        validate_limits(
            self.handshake_timeout,
            self.assign_timeout,
            self.quarantine_after,
        )?;
        if pending.is_empty() {
            return Ok(ClusterOutcome {
                records: Vec::new(),
                respawns: 0,
                lost_workers: 0,
                quarantined_workers: 0,
            });
        }
        let workers = self.effective_workers(pending.len());
        let dispatch = Dispatch::new(pending, self.speculative);
        let results: Mutex<Vec<(usize, Value)>> = Mutex::new(Vec::with_capacity(pending.len()));
        let sink = Mutex::new(on_done);
        let respawns = AtomicUsize::new(0);

        let ends: Vec<WorkerEnd> = std::thread::scope(|scope| {
            let handles: Vec<_> = self.connectors[..workers]
                .iter()
                .enumerate()
                .map(|(worker, connector)| {
                    let dispatch = &dispatch;
                    let results = &results;
                    let sink = &sink;
                    let respawns = &respawns;
                    scope.spawn(move || {
                        let end = self.drive_worker(
                            worker,
                            connector.as_ref(),
                            fingerprint,
                            total,
                            dispatch,
                            results,
                            sink,
                            respawns,
                        );
                        if matches!(end, WorkerEnd::Fatal(_)) {
                            // Other workers stop at their next assignment
                            // boundary instead of draining a queue whose
                            // merged report will be discarded.
                            dispatch.abort();
                        }
                        if matches!(end, WorkerEnd::Lost(_) | WorkerEnd::Quarantined(_)) {
                            dispatch.worker_gone();
                        }
                        end
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("coordinator thread panicked"))
                .collect()
        });

        let mut lost_workers = 0usize;
        let mut quarantined_workers = 0usize;
        let mut first_lost: Option<ClusterError> = None;
        for end in ends {
            match end {
                WorkerEnd::Completed => {}
                WorkerEnd::Lost(e) => {
                    lost_workers += 1;
                    if first_lost.is_none() {
                        first_lost = Some(e);
                    }
                }
                WorkerEnd::Quarantined(e) => {
                    quarantined_workers += 1;
                    if first_lost.is_none() {
                        first_lost = Some(e);
                    }
                }
                // Fatal errors propagate in worker-index order (`ends` is
                // ordered by slot).
                WorkerEnd::Fatal(e) => return Err(e),
            }
        }

        let collected = results.into_inner().expect("results mutex poisoned");
        let poisoned = dispatch.poisoned_indices();
        if collected.len() + poisoned.len() != pending.len() {
            // Work remains: every slot that could have absorbed it is gone.
            return Err(first_lost.unwrap_or_else(|| {
                ClusterError::Merge(format!(
                    "collected {} of {} records with no worker failure",
                    collected.len(),
                    pending.len()
                ))
            }));
        }
        if !poisoned.is_empty() {
            // Everything else completed (and reached the sink); the
            // poisoned remainder is a typed report, not a mystery.
            return Err(ClusterError::PoisonedSpecs {
                indices: poisoned,
                completed: collected.len(),
            });
        }

        let mut expected = pending.to_vec();
        expected.sort_unstable();
        let merged = crate::shard::merge_indexed(&expected, collected)
            .map_err(|e| ClusterError::Merge(e.to_string()))?;
        Ok(ClusterOutcome {
            records: expected.into_iter().zip(merged).collect(),
            respawns: respawns.load(Ordering::Relaxed),
            lost_workers,
            quarantined_workers,
        })
    }

    /// Drives one worker slot: session establishment, handshake, batched
    /// assignment loop, and respawn/reconnect on channel loss.
    #[allow(clippy::too_many_arguments)]
    fn drive_worker<F>(
        &self,
        worker: usize,
        connector: &dyn Connector,
        fingerprint: u64,
        total: usize,
        dispatch: &Dispatch,
        results: &Mutex<Vec<(usize, Value)>>,
        sink: &Mutex<F>,
        respawns: &AtomicUsize,
    ) -> WorkerEnd
    where
        F: FnMut(&mut CheckpointEntry) -> Result<(), String> + Send,
    {
        let mut respawns_left = self.max_respawns;
        let mut strikes = 0usize;
        let mut attempts = 0usize;
        loop {
            if dispatch.is_aborted() || dispatch.is_finished() {
                // Nothing left to do (or another worker failed fatally):
                // do not even establish a session.
                return WorkerEnd::Completed;
            }
            if attempts > 0 {
                let backoff = RECONNECT_DELAY
                    .saturating_mul(1u32 << (attempts - 1).min(16) as u32)
                    .min(RECONNECT_DELAY_MAX);
                std::thread::sleep(backoff);
            }
            attempts += 1;
            let loss = match connector.connect(worker) {
                Ok(mut transport) => {
                    match self.serve_session(
                        worker,
                        transport.as_mut(),
                        fingerprint,
                        total,
                        dispatch,
                        results,
                        sink,
                    ) {
                        Ok(()) => {
                            let _ = transport.send(&Message::Shutdown);
                            return WorkerEnd::Completed;
                        }
                        Err(SessionEnd::Fatal(e)) => return WorkerEnd::Fatal(e),
                        Err(SessionEnd::ChannelLost(loss)) => loss,
                    }
                }
                Err(e) => SessionLoss {
                    detail: format!("{} unavailable: {e}", connector.describe()),
                    productive: false,
                    spec_blamed: false,
                },
            };
            if loss.productive {
                // The budget measures *consecutive* failures: results
                // flowed this session, so the slot earned a fresh budget
                // (and a fresh backoff ramp).
                respawns_left = self.max_respawns;
                attempts = 0;
            }
            strikes += 1;
            fleet_update(worker as u64, |s| {
                s.strikes += 1;
                s.last_error = Some(loss.detail.clone());
            });
            if let Some(limit) = self.quarantine_after {
                if strikes >= limit {
                    // The slot's unfinished work is already back in the
                    // shared queue for the surviving workers.
                    fleet_update(worker as u64, |s| s.quarantined = true);
                    event(
                        "quarantine",
                        format!("slot {worker} after {strikes} strikes: {}", loss.detail),
                    );
                    counter!("cluster.workers_quarantined").inc();
                    return WorkerEnd::Quarantined(ClusterError::WorkerQuarantined {
                        worker,
                        strikes,
                        detail: loss.detail,
                    });
                }
            }
            if loss.spec_blamed {
                // The crash was attributed to a poisonous spec, not this
                // worker: reconnect without charging the respawn budget.
                continue;
            }
            if respawns_left == 0 {
                // The slot is lost; its unfinished work is already back in
                // the shared queue for the surviving workers.
                event(
                    "worker_lost",
                    format!(
                        "slot {worker} exhausted its respawn budget: {}",
                        loss.detail
                    ),
                );
                counter!("cluster.workers_lost").inc();
                return WorkerEnd::Lost(ClusterError::WorkerLost {
                    worker,
                    respawns: self.max_respawns,
                    detail: loss.detail,
                });
            }
            respawns_left -= 1;
            respawns.fetch_add(1, Ordering::Relaxed);
            fleet_update(worker as u64, |s| s.respawns += 1);
            event("respawn", format!("slot {worker}: {}", loss.detail));
            counter!("cluster.respawns").inc();
        }
    }

    /// Handshakes one fresh session and streams it batches until the queue
    /// drains, the channel dies, or the pool aborts.
    #[allow(clippy::too_many_arguments)]
    fn serve_session<F>(
        &self,
        worker: usize,
        transport: &mut dyn Transport,
        fingerprint: u64,
        total: usize,
        dispatch: &Dispatch,
        results: &Mutex<Vec<(usize, Value)>>,
        sink: &Mutex<F>,
    ) -> Result<(), SessionEnd>
    where
        F: FnMut(&mut CheckpointEntry) -> Result<(), String> + Send,
    {
        let threads = self.handshake(worker, transport, fingerprint, total)?;
        let mut accepted = 0usize;
        loop {
            if dispatch.is_aborted() {
                // Another worker failed; stop at the assignment boundary.
                let _ = transport.send(&Message::Shutdown);
                return Ok(());
            }
            let Some(batch) = dispatch.pop_batch(threads) else {
                return Ok(());
            };
            self.serve_batch(
                worker,
                transport,
                fingerprint,
                &batch,
                dispatch,
                results,
                sink,
                &mut accepted,
            )?;
        }
    }

    /// Runs the mutual handshake, returning the worker's advertised thread
    /// count (the batch size for this session). Leaves the session's
    /// assign deadline installed as the read timeout.
    fn handshake(
        &self,
        worker: usize,
        transport: &mut dyn Transport,
        fingerprint: u64,
        total: usize,
    ) -> Result<usize, SessionEnd> {
        let _ = transport.set_read_timeout(Some(self.handshake_timeout));
        let ours = Message::Hello(Hello {
            worker_id: worker,
            fingerprint,
            spec_count: total,
            token: self.token.clone(),
            threads: 0,
            build: self.build.clone(),
        });
        if let Err(e) = transport.send(&ours) {
            return Err(SessionEnd::lost(format!("handshake send failed: {e}")));
        }
        let reply = match transport.recv() {
            Ok(reply) => reply,
            Err(e) => return Err(SessionEnd::lost(format!("handshake failed: {e}"))),
        };
        let _ = transport.set_read_timeout(self.assign_timeout);
        match reply {
            Message::Hello(hello) => {
                if hello.token != self.token {
                    return Err(SessionEnd::Fatal(ClusterError::Rejected {
                        worker,
                        reason: "worker token differs from the coordinator's".into(),
                    }));
                }
                if hello.fingerprint != fingerprint {
                    return Err(SessionEnd::Fatal(ClusterError::FingerprintMismatch {
                        worker,
                        ours: fingerprint,
                        theirs: hello.fingerprint,
                    }));
                }
                if hello.spec_count != total {
                    return Err(SessionEnd::Fatal(ClusterError::SpecCountMismatch {
                        worker,
                        ours: total,
                        theirs: hello.spec_count,
                    }));
                }
                if hello.build != self.build {
                    // Advisory only: fingerprint/token checks gate the
                    // session, but a mixed-build fleet is worth a record.
                    event(
                        "build_mismatch",
                        format!(
                            "slot {worker}: worker build {:?} differs from coordinator {:?}",
                            hello.build, self.build
                        ),
                    );
                }
                Ok(hello.threads.max(1))
            }
            Message::Reject(reason) => {
                Err(SessionEnd::Fatal(ClusterError::Rejected { worker, reason }))
            }
            other => Err(SessionEnd::Fatal(ClusterError::Protocol {
                worker,
                detail: format!("expected Hello, got {other:?}"),
            })),
        }
    }

    /// Assigns one batch and collects its `Done`s; on channel loss (or a
    /// deadline expiry with no heartbeat) the unacknowledged remainder is
    /// returned to the queue with crash blame recorded. A protocol
    /// violation, a failed run or a sink failure is fatal.
    #[allow(clippy::too_many_arguments)]
    fn serve_batch<F>(
        &self,
        worker: usize,
        transport: &mut dyn Transport,
        fingerprint: u64,
        batch: &Batch,
        dispatch: &Dispatch,
        results: &Mutex<Vec<(usize, Value)>>,
        sink: &Mutex<F>,
        accepted: &mut usize,
    ) -> Result<(), SessionEnd>
    where
        F: FnMut(&mut CheckpointEntry) -> Result<(), String> + Send,
    {
        let mut outstanding: VecDeque<usize> = batch.indices.iter().copied().collect();
        let exchanged = exchange_batch(
            worker as u64,
            transport,
            batch,
            &mut outstanding,
            |index, seed, outcome| {
                let record = match outcome {
                    Outcome::Record(record) => record,
                    Outcome::Failed(detail) => {
                        dispatch.complete(index);
                        return Err(ClusterError::RunFailed { index, detail });
                    }
                };
                *accepted += 1;
                if !dispatch.complete(index) {
                    // A speculative twin finished first; this duplicate is
                    // byte-identical by construction, so drop it without
                    // re-journaling.
                    fleet_update(worker as u64, |s| s.duplicates_lost += 1);
                    counter!("cluster.speculative.duplicates_lost").inc();
                    return Ok(());
                }
                fleet_update(worker as u64, |s| {
                    s.done += 1;
                    if batch.speculative {
                        s.speculative_won += 1;
                    }
                });
                counter!("cluster.specs_done").inc();
                if batch.speculative {
                    counter!("cluster.speculative.won").inc();
                }
                let mut entry = CheckpointEntry {
                    fingerprint,
                    index,
                    seed,
                    record,
                };
                // Durability lost (journal/stream write failed): continuing
                // would complete runs that can never be resumed, so fail
                // fast instead.
                (sink.lock().expect("sink mutex poisoned"))(&mut entry)
                    .map_err(ClusterError::Io)?;
                results
                    .lock()
                    .expect("results mutex poisoned")
                    .push((index, entry.record));
                Ok(())
            },
        );
        match exchanged {
            Ok(()) => Ok(()),
            Err(ExchangeEnd::Lost(detail)) => {
                let spec_blamed = dispatch.settle_loss(&outstanding, batch.suspect);
                Err(SessionEnd::ChannelLost(SessionLoss {
                    detail,
                    productive: *accepted > 0,
                    spec_blamed,
                }))
            }
            Err(ExchangeEnd::Violation(detail)) => {
                dispatch.settle_loss(&outstanding, false);
                Err(SessionEnd::Fatal(ClusterError::Protocol { worker, detail }))
            }
            Err(ExchangeEnd::Stopped(e)) => {
                dispatch.settle_loss(&outstanding, false);
                Err(SessionEnd::Fatal(e))
            }
        }
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field(
                "connectors",
                &self
                    .connectors
                    .iter()
                    .map(|c| c.describe())
                    .collect::<Vec<_>>(),
            )
            .field("max_respawns", &self.max_respawns)
            .field("assign_timeout", &self.assign_timeout)
            .field("speculative", &self.speculative)
            .field("quarantine_after", &self.quarantine_after)
            .finish_non_exhaustive()
    }
}

/// Why one worker slot's thread stopped.
enum WorkerEnd {
    /// Queue drained (from this worker's perspective).
    Completed,
    /// The slot exhausted its respawn budget; its work was re-queued.
    Lost(ClusterError),
    /// The slot hit its lifetime strike cap; its work was re-queued.
    Quarantined(ClusterError),
    /// Unrecoverable: propagate to the caller.
    Fatal(ClusterError),
}

/// What a lost session reports back to [`WorkerPool::drive_worker`].
struct SessionLoss {
    /// Human-readable failure description.
    detail: String,
    /// Whether the session delivered at least one result before dying
    /// (refills the respawn budget — the failure streak restarted).
    productive: bool,
    /// Whether the crash was attributed to a specific spec (does not
    /// charge the slot's respawn budget).
    spec_blamed: bool,
}

/// Why a worker session stopped serving.
enum SessionEnd {
    /// Unrecoverable: propagate to the caller.
    Fatal(ClusterError),
    /// The channel died (worker crashed / hung past the deadline /
    /// network drop); the slot's unfinished work was re-queued and the
    /// session can be re-established.
    ChannelLost(SessionLoss),
}

impl SessionEnd {
    fn lost(detail: String) -> Self {
        SessionEnd::ChannelLost(SessionLoss {
            detail,
            productive: false,
            spec_blamed: false,
        })
    }
}
