//! Sharded multi-process and multi-machine campaign execution.
//!
//! The sweep engine in `qismet-bench` runs a campaign's independent,
//! pre-seeded grid points across threads; this crate is the step from
//! "bounded by cores" to "bounded by cluster". It knows nothing about VQAs —
//! run payloads travel as [`serde::Value`] trees — and splits into these
//! layers:
//!
//! * [`protocol`] — the length-framed serde-JSON messages exchanged with
//!   workers and clients. Specs are pure data addressed by index: both
//!   sides expand the same campaign and agree on it via a [`Fingerprint`]
//!   handshake that also carries a shared authentication token.
//! * [`transport`] — the byte-stream layer beneath the protocol: a
//!   blocking [`transport::Transport`]/[`transport::Listener`] trait pair
//!   with child-process stdio-pipe and TCP (`TCP_NODELAY`, read timeouts,
//!   graceful EOF -> worker-lost) implementations, plus the
//!   [`transport::Connector`] that (re)spawns the worker processes of a
//!   one-shot run.
//! * [`daemon`] — the coordinator engine, the one scheduler for both ways
//!   a campaign leaves its process. [`daemon::serve`] feeds it from a
//!   listener: a long-running, multi-tenant campaign service that
//!   classifies connections into worker registrations and one-command
//!   client sessions (`submit`/`status`/`cancel`/`drain`), schedules
//!   batches across concurrent jobs, and settles each into its report
//!   artifact via a [`daemon::JobPlanner`]. A one-shot `--workers N` run
//!   ([`coordinator::WorkerPool::run`]) is the same engine with a one-job
//!   queue that drains from the start and N slots fed by spawned worker
//!   processes. Either way every worker session pulls batches with the
//!   same loop (`Ready` in; `JobOpen`/`Assign`/`Shutdown` out).
//! * [`coordinator`] — [`coordinator::WorkerPool`], the builder of a
//!   one-shot run, with the typed [`ClusterError`]s it can end in. Crashed
//!   workers respawn, and a slot that stays gone has its unfinished work
//!   re-dispatched to the surviving workers.
//! * [`registry`] — the worker slot table. Quarantine strikes follow a
//!   worker's *name* across sessions: an operator-chosen name for a
//!   registered worker, the slot name for a one-shot slot.
//! * [`queue`] — the persistent, multi-tenant job queue, opened in
//!   submission order: submissions and phase transitions append to a
//!   checksummed event log, each job journals checkpoints into its own
//!   file, and an interrupted daemon resumes every job on restart.
//! * [`shard`] — the order-preserving, exactly-once merge of results that
//!   arrive from workers in completion order.
//! * [`journal`] — an append-only JSONL checkpoint keyed by (campaign
//!   fingerprint, spec index, seed), each line checksummed, so an
//!   interrupted campaign resumes instead of restarting — even past
//!   corrupted lines.
//! * [`chaos`] — deterministic fault injection: a seeded, serializable
//!   [`chaos::FaultPlan`] executed by a transport wrapper, so every fault
//!   the coordinator must survive is reproducible on demand.
//!
//! The merged result is **bit-identical** to a sequential in-process run —
//! whatever the worker count or fleet: every record is produced by the same pure
//! function of the same pure spec, and the JSON layer (`serde_json` shim)
//! round-trips every finite `f64` bit-exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod coordinator;
pub mod daemon;
mod dispatch;
pub mod journal;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod shard;
pub mod transport;

pub use chaos::{Fault, FaultKind, FaultPlan, FaultTransport};
pub use coordinator::{ClusterError, ClusterOutcome, WorkerPool};
pub use daemon::{serve, JobPlan, JobPlanner, ServiceConfig, ServiceSummary};
pub use journal::{load_journal, resume_journal, JournalWriter, LoadedJournal};
pub use protocol::{
    read_message, write_message, Assign, BuildStamp, CheckpointEntry, Done, DrainOk, Hello,
    JobOpen, JobReady, JobStatusInfo, Message, Outcome, Register, ServiceErr, ServiceErrKind,
    SlotStatusInfo, StatusReply, Submit, Submitted, WorkerStats,
};
pub use queue::{JobPhase, JobQueue, JobSpec, JobState, QueueError};
pub use registry::{RegisterRefusal, RegisteredWorker, WorkerRegistry};
pub use shard::{merge_indexed, MergeError};
pub use transport::{
    ChildTransport, Connector, Listener, ProcessConnector, StdioTransport, TcpTransport,
    TcpTransportListener, Transport, WorkerLaunch, WORKER_ID_ENV,
};

/// Incremental FNV-1a content hash used to fingerprint campaign definitions.
///
/// Both the coordinator and every worker hash their own expansion of the
/// campaign; the [`protocol::Hello`] handshake and every
/// [`protocol::CheckpointEntry`] carry the result, so records can never be
/// attached to (or resumed into) a campaign they were not produced by.
///
/// Variable-length inputs are length-prefixed, so field concatenations
/// cannot alias (`"ab" + "c"` hashes differently from `"a" + "bc"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fingerprint {
    /// A fresh hasher.
    pub fn new() -> Self {
        Fingerprint { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Absorbs a length-prefixed string.
    pub fn update_str(&mut self, s: &str) {
        self.update_u64(s.len() as u64);
        self.update(s.as_bytes());
    }

    /// The accumulated 64-bit hash.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        let mut a = Fingerprint::new();
        a.update_str("campaign");
        a.update_u64(42);
        let mut b = Fingerprint::new();
        b.update_str("campaign");
        b.update_u64(42);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fingerprint::new();
        c.update_str("campaign");
        c.update_u64(43);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn length_prefix_prevents_concatenation_aliasing() {
        let mut a = Fingerprint::new();
        a.update_str("ab");
        a.update_str("c");
        let mut b = Fingerprint::new();
        b.update_str("a");
        b.update_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
