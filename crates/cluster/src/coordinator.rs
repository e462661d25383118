//! The one-shot run's front door: [`WorkerPool`], its typed errors and
//! its outcome.
//!
//! [`WorkerPool`] only collects the settings of a `--workers N` run; its
//! [`WorkerPool::run`] hands them to the coordinator engine in
//! [`crate::daemon`], the same engine that serves the campaign service.
//! There the run is a one-job queue that drains from the start, and each
//! of its slots is fed by a [`Connector`] (in production a spawned
//! `campaign --worker` process) instead of a listener.
//!
//! ## Fault model
//!
//! * **Channel loss** (crash, OOM-kill, network drop, corrupted frame): the
//!   un-acknowledged remainder of the batch returns to the job's queue as
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
//!   work is **re-dispatched to the surviving workers**; the run only
//!   fails with [`ClusterError::WorkerLost`] if work remains when every
//!   slot is gone.
//! * **Poison specs**: a crash attributed to one specific spec twice stops
//!   being retried — the spec is isolated and reported as a typed
//!   [`ClusterError::PoisonedSpecs`] while every other spec completes and
//!   journals as usual. Attributed crashes do not consume the slot's
//!   respawn budget: the spec is at fault, not the worker.
//! * **Deterministic run failure** (a [`Failed`](crate::protocol::Outcome)
//!   outcome, e.g. a panicking spec): retrying would fail the same way, so
//!   the run stops and returns [`ClusterError::RunFailed`].
//!
//! Whatever the worker count or fault sequence, the merged records are
//! **byte-identical** to a sequential in-process run: results are keyed by
//! spec index and every record is a pure function of its pure spec.

use crate::protocol::CheckpointEntry;
use crate::transport::Connector;
use serde::Value;
use std::fmt;
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
#[derive(Debug, Clone, Default, PartialEq)]
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

/// The settings of a one-shot run — one [`Connector`] per worker slot —
/// for the coordinator engine to execute.
///
/// Production pools hold one `ProcessConnector` per slot (spawned
/// `campaign --worker` children); tests substitute scripted connectors
/// through the same seam.
pub struct WorkerPool {
    pub(crate) connectors: Vec<Box<dyn Connector>>,
    pub(crate) max_respawns: usize,
    pub(crate) token: String,
    pub(crate) assign_timeout: Option<Duration>,
    pub(crate) quarantine_after: Option<usize>,
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
            quarantine_after: None,
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

    /// Quarantines a slot after this many *lifetime* channel strikes
    /// (`None` = never). Unlike the respawn budget, strikes do not reset
    /// on productive sessions — this catches a flaky worker that limps
    /// along failing every few batches.
    #[must_use]
    pub fn with_quarantine_after(mut self, strikes: Option<usize>) -> Self {
        self.quarantine_after = strikes;
        self
    }

    /// Dispatches `pending` spec indices across the pool and collects the
    /// records. `fingerprint`/`total` describe the campaign both sides
    /// expanded; `on_done` observes every completed run (in completion
    /// order, across workers) before the merge — the place to append
    /// checkpoints or stream records. A sink error is fatal: the pool
    /// aborts rather than silently continuing without durability.
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
        F: FnMut(&CheckpointEntry) -> Result<(), String> + Send,
    {
        crate::daemon::run_one_shot(self, fingerprint, total, pending, on_done)
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
            .field("quarantine_after", &self.quarantine_after)
            .finish_non_exhaustive()
    }
}
