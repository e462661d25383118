//! The coordinator <-> worker wire protocol.
//!
//! Six message kinds cover the whole lifecycle:
//!
//! * [`Hello`]: the mutual handshake. The coordinator sends one first
//!   (announcing its campaign [`fingerprint`](crate::Fingerprint), spec
//!   count, and shared authentication token); the worker verifies the token
//!   and replies with its own `Hello` (same fields, plus its thread count),
//!   so a mis-launched worker (different grid flags, different binary) — or
//!   an unauthorized coordinator dialing a serve daemon — is rejected
//!   before any work is assigned.
//! * [`Reject`](Message::Reject) (worker -> coordinator): the worker
//!   refused the handshake (token mismatch). Carries the reason and never
//!   echoes the worker's own token.
//! * [`Assign`] (coordinator -> worker): run a batch of spec indices. The
//!   batch size tracks the worker's advertised [`Hello::threads`], so a
//!   threaded worker can fan a whole batch across its own
//!   `SweepExecutor` cores.
//! * [`Done`] (worker -> coordinator): the outcome of one assigned index —
//!   a serialized record, or a typed failure message. One `Done` per index,
//!   even for batched assignments.
//! * [`Checkpoint`](Message::Checkpoint): a durably-completed run. This
//!   variant is the line format of the [`journal`](crate::journal) rather
//!   than channel traffic: the coordinator appends one per `Done` to the
//!   checkpoint file, using the same serialization as the live channel.
//! * [`Ping`](Message::Ping) / [`Pong`](Message::Pong): the liveness
//!   heartbeat. A worker whose batch is still computing sends `Ping` at its
//!   configured interval so the coordinator's per-`Assign` deadline
//!   distinguishes a *slow* worker (frames still flowing) from a *hung* one
//!   (silence past the deadline — the session is torn down and its shard
//!   re-dispatched). The coordinator answers each `Ping` with a `Pong`,
//!   which the worker reads before doing anything else on the channel;
//!   the reply exercises both directions of the channel and times the
//!   control-plane round trip.
//! * [`Shutdown`](Message::Shutdown) (coordinator -> worker): drain and
//!   end the session.
//!
//! ## Service frames
//!
//! The long-running daemon ([`crate::daemon`]) speaks the same framing
//! with an extended vocabulary:
//!
//! * [`Register`] / [`RegisterAck`](Message::RegisterAck): an elastic
//!   worker joins the fleet by *dialing the daemon* (inverting the static
//!   pool's connect direction) and is assigned a dynamic slot id.
//!   [`Deregister`](Message::Deregister) leaves voluntarily — no strike.
//! * [`Ready`](Message::Ready) (worker -> daemon): the worker is idle and
//!   pulls its next assignment. The daemon answers with [`JobOpen`] when
//!   the next batch belongs to a job the worker has not expanded yet
//!   (the worker replies [`JobReady`] after verifying the fingerprint),
//!   then a plain [`Assign`]; or `Shutdown` when the service drains.
//! * [`Submit`] / [`Submitted`](Message::Submitted),
//!   [`Status`](Message::Status) / [`StatusReply`],
//!   [`Cancel`] / [`CancelOk`](Message::CancelOk),
//!   [`Drain`](Message::Drain) / [`DrainOk`]: the client API. Clients
//!   authenticate with the same mutual `Hello` exchange (per-tenant
//!   tokens), then issue exactly one command per connection.
//! * [`ServiceErr`]: the daemon's typed refusal ([`ServiceErrKind`] — bad
//!   token, unknown job, duplicate fingerprint, ...), so scripted clients
//!   can branch on the failure class instead of parsing prose.
//!
//! Framing is `<decimal byte length>\n<json body>\n`. The explicit length
//! makes truncated or interleaved writes detectable instead of silently
//! re-synchronizing mid-stream, and the trailing newline keeps the stream
//! greppable when captured for debugging. The framing is
//! transport-agnostic — the same bytes flow over child-process pipes and
//! TCP sockets (see [`crate::transport`]).

use serde::{Deserialize, Serialize, Value};
use std::io::{self, BufRead, Write};

/// Upper bound on a single framed message body (guards against parsing a
/// corrupted length header into a giant allocation).
const MAX_FRAME_BYTES: usize = 1 << 30;

/// Longest valid length header: the decimal digits of [`MAX_FRAME_BYTES`]
/// plus the newline. Bounds the header read, so a peer that never sends
/// `\n` cannot grow it without limit.
const MAX_HEADER_BYTES: u64 = MAX_FRAME_BYTES.ilog10() as u64 + 2;

/// Build provenance carried by the [`Hello`] handshake so mismatched
/// binaries (different commit, different ISA features, different feature
/// flags) are visible at connection time and recorded in fleet telemetry.
/// Advisory only: the fingerprint/token checks remain the gate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BuildStamp {
    /// Workspace crate version.
    pub version: String,
    /// Short git commit hash at compile time (`"unknown"` outside git).
    pub git_hash: String,
    /// Enabled codegen target features of the sender's binary.
    pub target_features: String,
    /// Whether the sender was built with the `parallel` feature.
    pub parallel: bool,
}

impl BuildStamp {
    /// The stamp for the current binary. `parallel` is supplied by the
    /// caller because cargo features are per-crate: only the embedding
    /// crate knows whether its own `parallel` feature is on.
    pub fn local(parallel: bool) -> Self {
        qismet_telemetry::BuildInfo::current(parallel).into()
    }
}

impl From<qismet_telemetry::BuildInfo> for BuildStamp {
    fn from(b: qismet_telemetry::BuildInfo) -> Self {
        Self {
            version: b.version,
            git_hash: b.git_hash,
            target_features: b.target_features,
            parallel: b.parallel,
        }
    }
}

/// Compact worker-side telemetry delta piggybacked on [`Done`] frames.
///
/// Each `Done` carries the tallies accrued *since the previous `Done` of
/// the same session* (the first carries everything since session start),
/// so the coordinator aggregates fleet-wide metrics by plain addition and
/// the arithmetic survives respawns and daemon session reuse without any
/// baseline bookkeeping. All durations are nanoseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Specs completed (successfully or not).
    pub specs_done: u64,
    /// Wall time spent executing specs.
    pub eval_ns: u64,
    /// Compiled-plan cache hits in the worker's qsim backends.
    pub plan_hits: u64,
    /// Compiled-plan cache misses (compilations).
    pub plan_misses: u64,
    /// Heartbeat round trips (ping send -> pong read) since the previous
    /// `Done`.
    pub rtt_count: u64,
    /// Sum of those round trips.
    pub rtt_ns_sum: u64,
    /// Largest of those round trips.
    pub rtt_ns_max: u64,
}

/// Handshake message, sent by both sides (coordinator first).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    /// Worker slot index within the pool (assigned by the coordinator; the
    /// worker echoes it back).
    pub worker_id: usize,
    /// The sender's own fingerprint of the expanded campaign.
    pub fingerprint: u64,
    /// How many specs the sender's expansion produced.
    pub spec_count: usize,
    /// Shared authentication token. The worker compares the coordinator's
    /// token against its own and answers [`Message::Reject`] on mismatch;
    /// its reply carries its own (matching) token.
    pub token: String,
    /// How many executor threads the sender runs assignments on (workers
    /// advertise it so the coordinator sizes [`Assign`] batches; the
    /// coordinator sends 0).
    pub threads: usize,
    /// Build provenance of the sender's binary.
    pub build: BuildStamp,
}

/// Coordinator order: execute a batch of spec indices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Assign {
    /// Flat indices into the campaign's expansion order. The worker answers
    /// with one [`Done`] per index.
    pub indices: Vec<usize>,
}

/// The result payload of one assigned run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// The run's record, as a serde value tree.
    Record(Value),
    /// The run failed (e.g. panicked); carries the failure description.
    Failed(String),
}

/// Worker reply to an [`Assign`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Done {
    /// The assigned index this outcome belongs to.
    pub index: usize,
    /// The fully-resolved seed the run executed with (journal key).
    pub seed: u64,
    /// Record or failure.
    pub outcome: Outcome,
    /// Telemetry delta since this session's previous `Done` (see
    /// [`WorkerStats`]); `None` from workers predating telemetry or with
    /// collection disabled.
    pub stats: Option<WorkerStats>,
}

/// One durably-completed run, as appended to the checkpoint journal.
///
/// The (fingerprint, index, seed) triple is the resume key: a journal line
/// is only replayed into a campaign whose fingerprint matches *and* whose
/// spec at `index` still resolves to `seed`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointEntry {
    /// Fingerprint of the campaign this run belongs to.
    pub fingerprint: u64,
    /// Flat spec index.
    pub index: usize,
    /// The seed the run executed with.
    pub seed: u64,
    /// The completed record, as a serde value tree.
    pub record: Value,
}

/// An elastic worker's request to join a service daemon's fleet.
///
/// Unlike the static pool's [`Hello`] (where the coordinator knows the
/// campaign and dials the worker), a registering worker knows nothing
/// about the jobs it will serve — campaigns are shipped later via
/// [`JobOpen`]. The token is the fleet-side shared secret, distinct from
/// the per-tenant submission tokens.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Register {
    /// Stable worker name chosen by the operator. Quarantine strikes
    /// accrue to the *name* across sessions, so a crashy worker cannot
    /// launder its record by reconnecting.
    pub name: String,
    /// Fleet authentication token.
    pub token: String,
    /// Executor threads the worker runs assignments on (sizes batches).
    pub threads: usize,
    /// Build provenance of the worker's binary.
    pub build: BuildStamp,
}

/// Daemon -> worker: ships one job's campaign payload so the worker can
/// expand and verify it before any of its indices are assigned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOpen {
    /// Queue-assigned job id; subsequent [`Assign`] batches belong to the
    /// most recently opened job.
    pub job_id: u64,
    /// Planner-specific campaign description (the same payload the
    /// submitting client sent).
    pub payload: String,
    /// The daemon's fingerprint of the expanded campaign.
    pub fingerprint: u64,
    /// How many specs the daemon's expansion produced.
    pub spec_count: usize,
}

/// Worker -> daemon: the worker expanded a [`JobOpen`] payload and echoes
/// its own fingerprint/spec count (a mismatch means divergent binaries and
/// cuts the session before any result could contaminate the job).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobReady {
    /// The job this verification answers.
    pub job_id: u64,
    /// The worker's own fingerprint of the expanded campaign.
    pub fingerprint: u64,
    /// How many specs the worker's expansion produced.
    pub spec_count: usize,
}

/// Client -> daemon: enqueue one campaign as a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Submit {
    /// Job display name (also names the report artifact).
    pub name: String,
    /// Queue priority; higher runs first among runnable jobs.
    pub priority: i64,
    /// Planner-specific campaign description, shipped verbatim to
    /// workers via [`JobOpen`].
    pub payload: String,
}

/// Daemon -> client: a [`Submit`] was accepted and enqueued.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Submitted {
    /// Queue-assigned job id (the handle for `status`/`cancel`).
    pub job_id: u64,
    /// The daemon's fingerprint of the expanded campaign.
    pub fingerprint: u64,
}

/// One job's public state, as reported by [`StatusReply`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatusInfo {
    /// Queue-assigned job id.
    pub job_id: u64,
    /// Job display name.
    pub name: String,
    /// Owning tenant.
    pub tenant: String,
    /// Queue priority.
    pub priority: i64,
    /// Lifecycle phase name (`queued`, `running`, `completed`, `failed`,
    /// `cancelled`).
    pub phase: String,
    /// Specs completed so far (resumed + freshly executed).
    pub done: usize,
    /// Total specs in the expansion.
    pub total: usize,
    /// Phase detail: the report path for completed jobs, the failure for
    /// failed ones.
    pub detail: Option<String>,
}

/// One registered worker slot's public state, as reported by
/// [`StatusReply`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotStatusInfo {
    /// Dynamic slot id (monotonic across the daemon's lifetime).
    pub slot: u64,
    /// Operator-chosen worker name.
    pub name: String,
    /// Whether the session is still connected.
    pub active: bool,
    /// Results this slot has delivered.
    pub done: u64,
    /// Lifetime channel strikes accrued to the worker's *name*.
    pub strikes: usize,
    /// Whether the name is quarantined (future registrations refused).
    pub quarantined: bool,
    /// The job the slot is currently serving, if any.
    pub job: Option<u64>,
}

/// Daemon -> client: answer to [`Status`](Message::Status). Tenants see
/// their own jobs; the fleet token sees everything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusReply {
    /// Visible jobs, in id order.
    pub jobs: Vec<JobStatusInfo>,
    /// Registered worker slots, in slot order.
    pub workers: Vec<SlotStatusInfo>,
    /// Whether the daemon is draining (refusing new submissions).
    pub draining: bool,
}

/// Client -> daemon: cancel one job (queued jobs die immediately; running
/// jobs stop at the next assignment boundary, their journal intact).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cancel {
    /// The job to cancel.
    pub job_id: u64,
}

/// Daemon -> client: answer to [`Drain`](Message::Drain), sent once every
/// job has reached a terminal phase and the daemon is about to exit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrainOk {
    /// Jobs that completed successfully over the daemon's lifetime.
    pub jobs_completed: usize,
    /// Jobs that failed or were cancelled.
    pub jobs_failed: usize,
}

/// Failure classes a service daemon reports to clients and registering
/// workers, so scripted callers can branch without parsing prose.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceErrKind {
    /// The presented token matches no tenant (and not the fleet token).
    BadToken,
    /// The job id names no job visible to this principal.
    UnknownJob,
    /// A non-terminal job with the same campaign fingerprint already
    /// exists (double submission would race two writers on one journal).
    DuplicateFingerprint,
    /// The campaign payload did not expand (parse error, unknown app...).
    BadPayload,
    /// The daemon is draining and refuses new submissions.
    Draining,
    /// The worker name is quarantined; register under a fresh name.
    Quarantined,
}

/// A typed refusal from the service daemon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceErr {
    /// The failure class.
    pub kind: ServiceErrKind,
    /// Human-readable context.
    pub detail: String,
}

/// Every message that crosses a worker channel or a journal line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Handshake (coordinator first, then the worker's reply).
    Hello(Hello),
    /// The worker refused the handshake; carries the reason.
    Reject(String),
    /// Assign a batch of spec indices.
    Assign(Assign),
    /// Outcome of one assigned index.
    Done(Done),
    /// A durably-completed run (journal line format).
    Checkpoint(CheckpointEntry),
    /// Worker liveness heartbeat, sent while a batch is still computing.
    Ping,
    /// Coordinator acknowledgement of a [`Ping`](Message::Ping).
    Pong,
    /// Drain and end the session.
    Shutdown,
    /// An elastic worker joins a service daemon's fleet.
    Register(Register),
    /// Daemon -> worker: registration accepted; carries the dynamic slot id.
    RegisterAck(u64),
    /// Worker -> daemon: leave the fleet voluntarily (no strike). The
    /// daemon answers [`Shutdown`](Message::Shutdown).
    Deregister,
    /// Worker -> daemon: idle, pull the next assignment.
    Ready,
    /// Daemon -> worker: expand this job before its first assignment.
    JobOpen(JobOpen),
    /// Worker -> daemon: job expanded and verified.
    JobReady(JobReady),
    /// Client -> daemon: enqueue a campaign.
    Submit(Submit),
    /// Daemon -> client: submission accepted.
    Submitted(Submitted),
    /// Client -> daemon: report queue and fleet state.
    Status,
    /// Daemon -> client: answer to [`Status`](Message::Status).
    StatusReply(StatusReply),
    /// Client -> daemon: cancel one job.
    Cancel(Cancel),
    /// Daemon -> client: the job was cancelled.
    CancelOk(u64),
    /// Client -> daemon: refuse new submissions, wait for every job to
    /// settle, then exit.
    Drain,
    /// Daemon -> client: drain finished; the daemon is exiting.
    DrainOk(DrainOk),
    /// Daemon -> client/worker: typed refusal.
    ServiceErr(ServiceErr),
}

/// Writes one length-framed message and flushes.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer (e.g. a broken pipe
/// when the peer process has exited).
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> io::Result<()> {
    let body = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    writeln!(w, "{}", body.len())?;
    w.write_all(body.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Reads one length-framed message.
///
/// # Errors
///
/// Returns [`io::ErrorKind::UnexpectedEof`] when the channel closed cleanly
/// between messages, and [`io::ErrorKind::InvalidData`] on framing or JSON
/// corruption (a non-numeric or overlong length header, a missing trailing
/// newline, an oversized frame, or an unparsable or too deeply nested
/// body).
pub fn read_message<R: BufRead>(r: &mut R) -> io::Result<Message> {
    let mut header = String::new();
    let n = io::Read::take(&mut *r, MAX_HEADER_BYTES).read_line(&mut header)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "message channel closed",
        ));
    }
    if n as u64 == MAX_HEADER_BYTES && !header.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length header longer than {MAX_HEADER_BYTES} bytes"),
        ));
    }
    let len: usize = header.trim().parse().map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("invalid frame length header {header:?}"),
        )
    })?;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len + 1];
    r.read_exact(&mut body)?;
    if body[len] != b'\n' {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame missing trailing newline",
        ));
    }
    let text = std::str::from_utf8(&body[..len])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame body is not UTF-8"))?;
    serde_json::from_str(text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unparsable message body: {e}"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &Message) -> Message {
        let mut buf = Vec::new();
        write_message(&mut buf, msg).unwrap();
        let mut cursor = io::Cursor::new(buf);
        read_message(&mut cursor).unwrap()
    }

    #[test]
    fn every_message_kind_roundtrips() {
        let record = Value::Object(vec![
            ("final_energy".into(), Value::F64(-5.227_001)),
            ("seed".into(), Value::U64(u64::MAX - 1)),
        ]);
        let messages = [
            Message::Hello(Hello {
                worker_id: 3,
                fingerprint: 0xdead_beef_cafe_f00d,
                spec_count: 96,
                token: "s3cret".into(),
                threads: 4,
                build: qismet_telemetry::BuildInfo::current(false).into(),
            }),
            Message::Reject("token mismatch".into()),
            Message::Assign(Assign {
                indices: vec![17, 18, 19],
            }),
            Message::Done(Done {
                index: 17,
                seed: 0x5eed,
                outcome: Outcome::Record(record.clone()),
                stats: Some(WorkerStats {
                    specs_done: 1,
                    eval_ns: 12_345,
                    plan_hits: 7,
                    plan_misses: 1,
                    rtt_count: 2,
                    rtt_ns_sum: 900,
                    rtt_ns_max: 600,
                }),
            }),
            Message::Done(Done {
                index: 18,
                seed: 0x5eee,
                outcome: Outcome::Failed("run panicked: boom".into()),
                stats: None,
            }),
            Message::Checkpoint(CheckpointEntry {
                fingerprint: 1,
                index: 2,
                seed: 3,
                record,
            }),
            Message::Ping,
            Message::Pong,
            Message::Shutdown,
            Message::Register(Register {
                name: "node-7".into(),
                token: "fleet-key".into(),
                threads: 8,
                build: qismet_telemetry::BuildInfo::current(true).into(),
            }),
            Message::RegisterAck(41),
            Message::Deregister,
            Message::Ready,
            Message::JobOpen(JobOpen {
                job_id: 3,
                payload: "{\"apps\":[2]}".into(),
                fingerprint: 0x0123_4567_89ab_cdef,
                spec_count: 12,
            }),
            Message::JobReady(JobReady {
                job_id: 3,
                fingerprint: 0x0123_4567_89ab_cdef,
                spec_count: 12,
            }),
            Message::Submit(Submit {
                name: "fig9".into(),
                priority: -2,
                payload: "{\"apps\":[1,2]}".into(),
            }),
            Message::Submitted(Submitted {
                job_id: 3,
                fingerprint: 0x0123_4567_89ab_cdef,
            }),
            Message::Status,
            Message::StatusReply(StatusReply {
                jobs: vec![JobStatusInfo {
                    job_id: 3,
                    name: "fig9".into(),
                    tenant: "alice".into(),
                    priority: -2,
                    phase: "running".into(),
                    done: 4,
                    total: 12,
                    detail: None,
                }],
                workers: vec![SlotStatusInfo {
                    slot: 41,
                    name: "node-7".into(),
                    active: true,
                    done: 4,
                    strikes: 1,
                    quarantined: false,
                    job: Some(3),
                }],
                draining: true,
            }),
            Message::Cancel(Cancel { job_id: 3 }),
            Message::CancelOk(3),
            Message::Drain,
            Message::DrainOk(DrainOk {
                jobs_completed: 5,
                jobs_failed: 1,
            }),
            Message::ServiceErr(ServiceErr {
                kind: ServiceErrKind::DuplicateFingerprint,
                detail: "job 3 already holds this campaign".into(),
            }),
        ];
        for msg in &messages {
            assert_eq!(&roundtrip(msg), msg);
        }
    }

    #[test]
    fn floats_survive_the_frame_bit_exactly() {
        let x = 0.1f64 + 0.2;
        let msg = Message::Checkpoint(CheckpointEntry {
            fingerprint: 9,
            index: 0,
            seed: 1,
            record: Value::Array(vec![Value::F64(x), Value::F64(-x)]),
        });
        match roundtrip(&msg) {
            Message::Checkpoint(e) => match e.record {
                Value::Array(items) => {
                    assert_eq!(items[0].as_f64().unwrap().to_bits(), x.to_bits());
                    assert_eq!(items[1].as_f64().unwrap().to_bits(), (-x).to_bits());
                }
                other => panic!("unexpected record {other:?}"),
            },
            other => panic!("unexpected message {other:?}"),
        }
    }

    #[test]
    fn consecutive_frames_parse_in_order() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Message::Assign(Assign { indices: vec![1] })).unwrap();
        write_message(&mut buf, &Message::Assign(Assign { indices: vec![2] })).unwrap();
        write_message(&mut buf, &Message::Shutdown).unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(
            read_message(&mut cursor).unwrap(),
            Message::Assign(Assign { indices: vec![1] })
        );
        assert_eq!(
            read_message(&mut cursor).unwrap(),
            Message::Assign(Assign { indices: vec![2] })
        );
        assert_eq!(read_message(&mut cursor).unwrap(), Message::Shutdown);
        let eof = read_message(&mut cursor).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn corrupt_frames_are_typed_errors() {
        // Garbage length header.
        let mut cursor = io::Cursor::new(b"abc\n{}\n".to_vec());
        assert_eq!(
            read_message(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Truncated body.
        let mut cursor = io::Cursor::new(b"100\n{\"Shutdown\"".to_vec());
        assert_eq!(
            read_message(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Length lies about the boundary (no trailing newline where claimed).
        let mut cursor = io::Cursor::new(b"3\n\"Shutdown\"\n".to_vec());
        assert_eq!(
            read_message(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn deeply_nested_frame_is_a_typed_error() {
        // A body of 100 000 `[` would overflow the stack of a recursive
        // parser; the nesting cap must turn it into InvalidData.
        let body = "[".repeat(100_000);
        let frame = format!("{}\n{body}\n", body.len());
        let mut cursor = io::Cursor::new(frame.into_bytes());
        assert_eq!(
            read_message(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn unterminated_length_header_is_bounded() {
        // 1 MiB of digits and no newline: rejected after the longest valid
        // header, without buffering the rest.
        let mut cursor = io::Cursor::new(vec![b'1'; 1 << 20]);
        assert_eq!(
            read_message(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert!(
            cursor.position() <= MAX_HEADER_BYTES,
            "read {} header bytes",
            cursor.position()
        );
        // The cap is exactly the longest valid header.
        let max = format!("{MAX_FRAME_BYTES}\n");
        assert_eq!(max.len() as u64, MAX_HEADER_BYTES);
    }
}
