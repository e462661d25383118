//! The multi-tenant job queue behind the service daemon.
//!
//! Each submitted campaign becomes a [`JobSpec`] with a monotonically
//! assigned id and an owning tenant; the daemon opens queued jobs in
//! submission (id) order. Queue state is
//! persisted (when a state directory is configured) as an append-only
//! event log `jobs.jsonl` using the same `<checksum> <json>` line
//! discipline as the checkpoint [`journal`](crate::journal): submissions
//! and phase transitions append one line each, and reopening the
//! directory replays the log. Jobs that were `running` when the daemon
//! died replay as `queued` — their *results* live in the per-job
//! checkpoint journal ([`JobQueue::journal_path`]), so re-running them
//! resumes instead of recomputing.
//!
//! Duplicate-fingerprint submissions are refused while the original job
//! is non-terminal (two live jobs over one campaign would race two
//! writers on the same journal file); after it settles, resubmission is
//! legal and *resumes* from the journal.

use crate::journal::{line_checksum, split_checksummed};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A job's lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobPhase {
    /// Waiting for workers (or re-queued after a daemon restart).
    Queued,
    /// At least one worker has been assigned its specs.
    Running,
    /// Every spec completed and the report artifact was written.
    Completed,
    /// The job cannot finish (poisoned specs, deterministic run failure,
    /// unwritable artifact); the journal keeps completed work.
    Failed,
    /// Cancelled by a client; the journal keeps completed work.
    Cancelled,
}

impl JobPhase {
    /// Whether the phase is final (the job will never run again).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobPhase::Completed | JobPhase::Failed | JobPhase::Cancelled
        )
    }

    /// Lowercase display name (used in status output and CLI tables).
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Completed => "completed",
            JobPhase::Failed => "failed",
            JobPhase::Cancelled => "cancelled",
        }
    }
}

/// The immutable identity of one submitted job.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Queue-assigned id, monotonic across the daemon's lifetime
    /// (restarts included — the log replay advances the counter).
    pub id: u64,
    /// Job display name (also names the report artifact).
    pub name: String,
    /// Owning tenant (resolved from the submission token).
    pub tenant: String,
    /// Planner-specific campaign description, shipped to workers verbatim.
    pub payload: String,
    /// Fingerprint of the expanded campaign (journal resume key).
    pub fingerprint: u64,
    /// How many specs the expansion produced.
    pub spec_count: usize,
}

/// One job's mutable queue state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobState {
    /// The immutable submission.
    pub spec: JobSpec,
    /// Current lifecycle phase.
    pub phase: JobPhase,
    /// Phase detail (report path, failure reason).
    pub detail: Option<String>,
}

/// Typed queue-operation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueError {
    /// A non-terminal job already holds this campaign fingerprint;
    /// carries its id.
    DuplicateFingerprint(u64),
    /// No job with this id is visible to the caller.
    UnknownJob(u64),
    /// The job is already in a terminal phase.
    Terminal(u64),
    /// The event log could not be appended.
    Io(String),
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::DuplicateFingerprint(id) => {
                write!(
                    f,
                    "a non-terminal job (id {id}) already holds this campaign"
                )
            }
            QueueError::UnknownJob(id) => write!(f, "no such job: {id}"),
            QueueError::Terminal(id) => write!(f, "job {id} already settled"),
            QueueError::Io(detail) => write!(f, "job log append failed: {detail}"),
        }
    }
}

impl std::error::Error for QueueError {}

/// A phase transition, as appended to the event log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct PhaseEvent {
    job_id: u64,
    phase: JobPhase,
    detail: Option<String>,
}

/// One line of the `jobs.jsonl` event log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum QueueEvent {
    /// A job was submitted.
    Submitted(JobSpec),
    /// A job changed phase.
    Phase(PhaseEvent),
}

/// The job table plus its optional on-disk event log.
#[derive(Debug)]
pub struct JobQueue {
    dir: Option<PathBuf>,
    log: Option<File>,
    jobs: BTreeMap<u64, JobState>,
    next_id: u64,
    /// Event-log lines dropped during replay (corrupt or checksum
    /// mismatch) — surfaced so operators notice a damaged state dir.
    pub dropped_lines: usize,
}

impl JobQueue {
    /// An ephemeral queue with no persistence (tests, ad-hoc daemons).
    pub fn in_memory() -> Self {
        JobQueue {
            dir: None,
            log: None,
            jobs: BTreeMap::new(),
            next_id: 1,
            dropped_lines: 0,
        }
    }

    /// Opens (creating if needed) a persistent queue rooted at `dir`,
    /// replaying `jobs.jsonl`. Jobs that were `running` when the previous
    /// daemon died replay as `queued`; their journals make the re-run a
    /// resume.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and log open/read failures.
    pub fn open(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let log_path = dir.join("jobs.jsonl");
        let mut queue = JobQueue {
            dir: Some(dir.to_path_buf()),
            log: None,
            jobs: BTreeMap::new(),
            next_id: 1,
            dropped_lines: 0,
        };
        match std::fs::read_to_string(&log_path) {
            Ok(text) => {
                for line in text.lines() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    let body = match split_checksummed(line) {
                        Some(Ok(body)) => body,
                        Some(Err(())) | None => {
                            queue.dropped_lines += 1;
                            continue;
                        }
                    };
                    match serde_json::from_str::<QueueEvent>(body) {
                        Ok(QueueEvent::Submitted(spec)) => {
                            queue.next_id = queue.next_id.max(spec.id + 1);
                            queue.jobs.insert(
                                spec.id,
                                JobState {
                                    spec,
                                    phase: JobPhase::Queued,
                                    detail: None,
                                },
                            );
                        }
                        Ok(QueueEvent::Phase(event)) => {
                            if let Some(job) = queue.jobs.get_mut(&event.job_id) {
                                // An interrupted run re-queues; its journal
                                // turns the re-run into a resume.
                                job.phase = if event.phase == JobPhase::Running {
                                    JobPhase::Queued
                                } else {
                                    event.phase
                                };
                                job.detail = event.detail;
                            }
                        }
                        Err(_) => queue.dropped_lines += 1,
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        queue.log = Some(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(&log_path)?,
        );
        Ok(queue)
    }

    fn append_event(&mut self, event: &QueueEvent) -> Result<(), QueueError> {
        let Some(log) = self.log.as_mut() else {
            return Ok(());
        };
        let body = serde_json::to_string(event).map_err(|e| QueueError::Io(e.to_string()))?;
        let line = format!("{:016x} {body}\n", line_checksum(&body));
        log.write_all(line.as_bytes())
            .and_then(|()| log.flush())
            .map_err(|e| QueueError::Io(e.to_string()))
    }

    /// Enqueues a job, assigning its id.
    ///
    /// # Errors
    ///
    /// Refuses a fingerprint any *non-terminal* job (any tenant) already
    /// holds, and propagates event-log append failures.
    pub fn submit(
        &mut self,
        name: &str,
        tenant: &str,
        payload: &str,
        fingerprint: u64,
        spec_count: usize,
    ) -> Result<u64, QueueError> {
        if let Some(existing) = self
            .jobs
            .values()
            .find(|job| job.spec.fingerprint == fingerprint && !job.phase.is_terminal())
        {
            return Err(QueueError::DuplicateFingerprint(existing.spec.id));
        }
        let id = self.next_id;
        let spec = JobSpec {
            id,
            name: name.to_string(),
            tenant: tenant.to_string(),
            payload: payload.to_string(),
            fingerprint,
            spec_count,
        };
        self.append_event(&QueueEvent::Submitted(spec.clone()))?;
        self.next_id += 1;
        self.jobs.insert(
            id,
            JobState {
                spec,
                phase: JobPhase::Queued,
                detail: None,
            },
        );
        Ok(id)
    }

    /// Moves a job to `phase`, persisting the transition.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids, jobs already terminal, and log I/O errors.
    pub fn set_phase(
        &mut self,
        id: u64,
        phase: JobPhase,
        detail: Option<String>,
    ) -> Result<(), QueueError> {
        let current = match self.jobs.get(&id) {
            Some(job) => job.phase,
            None => return Err(QueueError::UnknownJob(id)),
        };
        if current.is_terminal() {
            return Err(QueueError::Terminal(id));
        }
        self.append_event(&QueueEvent::Phase(PhaseEvent {
            job_id: id,
            phase,
            detail: detail.clone(),
        }))?;
        let job = self.jobs.get_mut(&id).expect("job checked above");
        job.phase = phase;
        job.detail = detail;
        Ok(())
    }

    /// Cancels a job. `tenant` scopes visibility: a tenant can only
    /// cancel its own jobs (others answer [`QueueError::UnknownJob`], so
    /// ids leak nothing across tenants); `None` is the all-seeing fleet
    /// principal.
    ///
    /// # Errors
    ///
    /// Fails for invisible/unknown ids, settled jobs, and log I/O errors.
    pub fn cancel(&mut self, id: u64, tenant: Option<&str>) -> Result<(), QueueError> {
        match self.jobs.get(&id) {
            Some(job) => {
                if matches!(tenant, Some(t) if job.spec.tenant != t) {
                    return Err(QueueError::UnknownJob(id));
                }
            }
            None => return Err(QueueError::UnknownJob(id)),
        }
        self.set_phase(id, JobPhase::Cancelled, Some("cancelled by client".into()))
    }

    /// The job with this id, if any.
    pub fn get(&self, id: u64) -> Option<&JobState> {
        self.jobs.get(&id)
    }

    /// Every job, in id order.
    pub fn jobs(&self) -> impl Iterator<Item = &JobState> {
        self.jobs.values()
    }

    /// Non-terminal jobs in submission (id) order.
    pub fn runnable(&self) -> impl Iterator<Item = &JobState> {
        self.jobs.values().filter(|job| !job.phase.is_terminal())
    }

    /// Whether every job has settled (an empty queue counts).
    pub fn all_terminal(&self) -> bool {
        self.jobs.values().all(|job| job.phase.is_terminal())
    }

    /// The per-job checkpoint journal path, when persistence is on. Every
    /// job journals into its own file, so concurrent jobs never interleave
    /// writers and `--resume` semantics carry over per job.
    pub fn journal_path(&self, id: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|dir| dir.join(format!("job-{id:06}.ckpt.jsonl")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qismet-queue-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn scheduling_order_is_submission_order() {
        let mut q = JobQueue::in_memory();
        let first = q.submit("first", "a", "{}", 1, 4).unwrap();
        let second = q.submit("second", "b", "{}", 2, 4).unwrap();
        let third = q.submit("third", "a", "{}", 3, 4).unwrap();
        let fourth = q.submit("fourth", "b", "{}", 4, 4).unwrap();
        q.set_phase(second, JobPhase::Completed, None).unwrap();
        let order: Vec<u64> = q.runnable().map(|j| j.spec.id).collect();
        assert_eq!(order, vec![first, third, fourth]);
    }

    #[test]
    fn duplicate_fingerprints_are_refused_until_terminal() {
        let mut q = JobQueue::in_memory();
        let id = q.submit("one", "a", "{}", 0xf00d, 4).unwrap();
        assert_eq!(
            q.submit("two", "b", "{}", 0xf00d, 4),
            Err(QueueError::DuplicateFingerprint(id))
        );
        q.set_phase(id, JobPhase::Completed, None).unwrap();
        // After settling, resubmission is legal (and resumes the journal).
        assert!(q.submit("two", "b", "{}", 0xf00d, 4).is_ok());
    }

    #[test]
    fn tenant_scoped_cancel_hides_foreign_jobs() {
        let mut q = JobQueue::in_memory();
        let id = q.submit("one", "alice", "{}", 1, 4).unwrap();
        assert_eq!(q.cancel(id, Some("bob")), Err(QueueError::UnknownJob(id)));
        assert!(q.cancel(id, Some("alice")).is_ok());
        assert_eq!(q.cancel(id, None), Err(QueueError::Terminal(id)));
    }

    #[test]
    fn replay_restores_jobs_and_requeues_interrupted_runs() {
        let dir = temp_dir("replay");
        let (id_done, id_running, id_queued) = {
            let mut q = JobQueue::open(&dir).unwrap();
            let a = q.submit("a", "alice", "{\"n\":1}", 11, 4).unwrap();
            let b = q.submit("b", "bob", "{\"n\":2}", 22, 8).unwrap();
            let c = q.submit("c", "bob", "{\"n\":3}", 33, 2).unwrap();
            q.set_phase(a, JobPhase::Running, None).unwrap();
            q.set_phase(a, JobPhase::Completed, Some("report.json".into()))
                .unwrap();
            q.set_phase(b, JobPhase::Running, None).unwrap();
            (a, b, c)
        };
        let q = JobQueue::open(&dir).unwrap();
        assert_eq!(q.dropped_lines, 0);
        assert_eq!(q.get(id_done).unwrap().phase, JobPhase::Completed);
        assert_eq!(
            q.get(id_done).unwrap().detail.as_deref(),
            Some("report.json")
        );
        // The interrupted run is queued again, payload intact.
        let b = q.get(id_running).unwrap();
        assert_eq!(b.phase, JobPhase::Queued);
        assert_eq!(b.spec.payload, "{\"n\":2}");
        assert_eq!(q.get(id_queued).unwrap().phase, JobPhase::Queued);
        // Fresh submissions never reuse replayed ids.
        let mut q = q;
        let d = q.submit("d", "alice", "{}", 44, 1).unwrap();
        assert!(d > id_queued);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_log_with_submission_priorities_still_replays() {
        // Logs written while jobs carried a queue priority have a
        // `"priority"` key in every `Submitted` line; replay ignores it.
        let dir = temp_dir("priority");
        std::fs::create_dir_all(&dir).unwrap();
        let body = r#"{"Submitted":{"id":3,"name":"legacy","tenant":"alice","priority":7,"payload":"{\"n\":1}","fingerprint":65261,"spec_count":4}}"#;
        let line = format!("{:016x} {body}\n", line_checksum(body));
        std::fs::write(dir.join("jobs.jsonl"), line).unwrap();
        let q = JobQueue::open(&dir).unwrap();
        assert_eq!(q.dropped_lines, 0);
        let job = q.get(3).expect("the submission replays");
        assert_eq!(job.spec.name, "legacy");
        assert_eq!(job.spec.tenant, "alice");
        assert_eq!(job.spec.payload, "{\"n\":1}");
        assert_eq!(job.spec.fingerprint, 0xfeed);
        assert_eq!(job.spec.spec_count, 4);
        assert_eq!(job.phase, JobPhase::Queued);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_log_lines_are_dropped_not_replayed() {
        let dir = temp_dir("corrupt");
        {
            let mut q = JobQueue::open(&dir).unwrap();
            q.submit("a", "alice", "{}", 11, 4).unwrap();
            q.submit("b", "bob", "{}", 22, 4).unwrap();
        }
        let log = dir.join("jobs.jsonl");
        let text = std::fs::read_to_string(&log).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        // Flip a byte in the second line's body without fixing the checksum.
        let mut bytes = lines[1].clone().into_bytes();
        let at = bytes.len() - 5;
        bytes[at] ^= 0x20;
        lines[1] = String::from_utf8(bytes).unwrap();
        lines.push("not a journal line".into());
        std::fs::write(&log, format!("{}\n", lines.join("\n"))).unwrap();

        let q = JobQueue::open(&dir).unwrap();
        assert_eq!(q.dropped_lines, 2);
        assert_eq!(q.jobs().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn per_job_journal_paths_are_distinct() {
        let dir = temp_dir("paths");
        let mut q = JobQueue::open(&dir).unwrap();
        let a = q.submit("a", "alice", "{}", 1, 1).unwrap();
        let b = q.submit("b", "bob", "{}", 2, 1).unwrap();
        assert_ne!(q.journal_path(a), q.journal_path(b));
        assert!(JobQueue::in_memory().journal_path(1).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
