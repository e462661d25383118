//! Multi-job journal isolation.
//!
//! The service daemon gives every job its own checkpoint journal inside a
//! shared state directory ([`JobQueue::journal_path`]). These tests pin the
//! invariant that makes kill-anywhere resume safe under multi-tenancy: two
//! jobs sharing that directory never cross-contaminate on resume — not via
//! colliding spec indices, not via a mixed-up file, and not via a corrupted
//! line slipping past the checksum.

use qismet_cluster::protocol::CheckpointEntry;
use qismet_cluster::{load_journal, JobPhase, JobQueue, JournalWriter};
use serde::Value;
use std::path::PathBuf;

const FP_A: u64 = 0xaaaa_1111_feed_f00d;
const FP_B: u64 = 0xbbbb_2222_feed_f00d;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qismet-multijob-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A checkpoint whose record encodes which job wrote it, so replaying the
/// wrong journal is detectable by value and not just by count.
fn entry(fingerprint: u64, index: usize) -> CheckpointEntry {
    CheckpointEntry {
        fingerprint,
        index,
        seed: fingerprint ^ index as u64,
        record: Value::Object(vec![
            ("job".into(), Value::U64(fingerprint)),
            ("index".into(), Value::U64(index as u64)),
        ]),
    }
}

fn submit_two(queue: &mut JobQueue) -> (u64, u64) {
    let a = queue
        .submit("alpha", "alice", "alpha:4", FP_A, 4)
        .expect("alpha submits");
    let b = queue
        .submit("beta", "bob", "beta:4", FP_B, 4)
        .expect("beta submits");
    (a, b)
}

#[test]
fn per_job_journals_in_a_shared_dir_resume_without_cross_contamination() {
    let dir = temp_dir("disjoint");
    let (job_a, job_b) = {
        let mut queue = JobQueue::open(&dir).expect("queue opens");
        let (a, b) = submit_two(&mut queue);
        queue
            .set_phase(a, JobPhase::Running, None)
            .expect("alpha starts");
        queue
            .set_phase(b, JobPhase::Running, None)
            .expect("beta starts");
        (a, b)
    };
    let path_a;
    let path_b;
    {
        let queue = JobQueue::open(&dir).expect("queue reopens");
        path_a = queue.journal_path(job_a).expect("persistent queue");
        path_b = queue.journal_path(job_b).expect("persistent queue");
    }
    assert_ne!(path_a, path_b, "each job must journal into its own file");

    // Interleave checkpoints from both jobs, deliberately reusing the same
    // spec indices: index collision across jobs is the classic
    // cross-contamination vector a shared journal would invite.
    let mut writer_a = JournalWriter::append_to(&path_a).expect("journal A opens");
    let mut writer_b = JournalWriter::append_to(&path_b).expect("journal B opens");
    for index in [0usize, 2] {
        writer_a.append(&entry(FP_A, index)).expect("A appends");
        writer_b.append(&entry(FP_B, index)).expect("B appends");
    }
    writer_a.append(&entry(FP_A, 1)).expect("A appends");
    drop((writer_a, writer_b));

    // Kill-anywhere restart: the queue replays both running jobs as queued,
    // and each journal resumes only its own campaign.
    let queue = JobQueue::open(&dir).expect("queue survives restart");
    assert_eq!(queue.dropped_lines, 0);
    for id in [job_a, job_b] {
        assert_eq!(
            queue.get(id).expect("job replayed").phase,
            JobPhase::Queued,
            "interrupted running jobs must replay as queued"
        );
    }
    let loaded_a = load_journal(&path_a, FP_A).expect("A loads");
    let loaded_b = load_journal(&path_b, FP_B).expect("B loads");
    assert_eq!(
        loaded_a.entries.keys().copied().collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    assert_eq!(
        loaded_b.entries.keys().copied().collect::<Vec<_>>(),
        vec![0, 2]
    );
    assert_eq!(loaded_a.foreign + loaded_b.foreign, 0);
    for (loaded, fp) in [(&loaded_a, FP_A), (&loaded_b, FP_B)] {
        for (index, entry) in &loaded.entries {
            assert_eq!(entry.record.get("job").and_then(Value::as_u64), Some(fp));
            assert_eq!(
                entry.record.get("index").and_then(Value::as_u64),
                Some(*index as u64)
            );
        }
    }

    // Even if a resume pointed at the *wrong* file, the fingerprint guard
    // replays nothing: every line is foreign, none enter the entry map.
    let crossed = load_journal(&path_a, FP_B).expect("crossed load succeeds");
    assert!(crossed.entries.is_empty());
    assert_eq!(crossed.foreign, 3);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn corrupted_line_in_one_journal_is_dropped_without_touching_its_neighbor() {
    let dir = temp_dir("corrupt");
    let (job_a, job_b) = {
        let mut queue = JobQueue::open(&dir).expect("queue opens");
        submit_two(&mut queue)
    };
    let queue = JobQueue::open(&dir).expect("queue reopens");
    let path_a = queue.journal_path(job_a).expect("persistent queue");
    let path_b = queue.journal_path(job_b).expect("persistent queue");
    {
        let mut writer_a = JournalWriter::append_to(&path_a).expect("journal A opens");
        let mut writer_b = JournalWriter::append_to(&path_b).expect("journal B opens");
        for index in 0..3usize {
            writer_a.append(&entry(FP_A, index)).expect("A appends");
            writer_b.append(&entry(FP_B, index)).expect("B appends");
        }
    }

    // Flip one byte in the middle line of A's journal without updating its
    // checksum prefix — the bit-rot / torn-block scenario.
    let text = std::fs::read_to_string(&path_a).expect("A readable");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    assert_eq!(lines.len(), 3);
    let mut bytes = lines[1].clone().into_bytes();
    let flip_at = bytes.len() - 4;
    bytes[flip_at] ^= 0x01;
    lines[1] = String::from_utf8(bytes).expect("still utf-8");
    std::fs::write(&path_a, format!("{}\n", lines.join("\n"))).expect("A rewritten");

    // A resumes minus exactly the damaged line; B is untouched.
    let loaded_a = load_journal(&path_a, FP_A).expect("A loads");
    assert_eq!(
        loaded_a.mismatched, 1,
        "damaged line must fail its checksum"
    );
    assert_eq!(loaded_a.corrupt, 0);
    assert_eq!(
        loaded_a.entries.keys().copied().collect::<Vec<_>>(),
        vec![0, 2],
        "only the verified lines may replay"
    );
    let loaded_b = load_journal(&path_b, FP_B).expect("B loads");
    assert_eq!(loaded_b.mismatched + loaded_b.corrupt + loaded_b.foreign, 0);
    assert_eq!(loaded_b.entries.len(), 3);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn a_legacy_shared_journal_still_separates_jobs_by_fingerprint() {
    // Pre-service journals held every campaign in one file. If an operator
    // points two jobs at such a file, the fingerprint filter — not file
    // layout — is the isolation boundary, and it must hold even with a
    // forged line claiming the other job's fingerprint.
    let dir = temp_dir("shared");
    std::fs::create_dir_all(&dir).expect("dir created");
    let shared = dir.join("legacy.ckpt.jsonl");
    {
        let mut writer = JournalWriter::append_to(&shared).expect("journal opens");
        writer.append(&entry(FP_A, 0)).expect("appends");
        writer.append(&entry(FP_B, 0)).expect("appends");
        writer.append(&entry(FP_A, 1)).expect("appends");
        writer.append(&entry(FP_B, 1)).expect("appends");
    }
    let loaded_a = load_journal(&shared, FP_A).expect("A loads");
    let loaded_b = load_journal(&shared, FP_B).expect("B loads");
    for (loaded, fp) in [(&loaded_a, FP_A), (&loaded_b, FP_B)] {
        assert_eq!(loaded.entries.len(), 2);
        assert_eq!(loaded.foreign, 2, "the other job's lines are foreign");
        for entry in loaded.entries.values() {
            assert_eq!(entry.record.get("job").and_then(Value::as_u64), Some(fp));
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn tampered_queue_log_lines_are_counted_not_replayed() {
    let dir = temp_dir("queuelog");
    {
        let mut queue = JobQueue::open(&dir).expect("queue opens");
        let (a, _) = submit_two(&mut queue);
        queue.cancel(a, Some("alice")).expect("alice cancels hers");
    }
    // Corrupt the cancellation event in jobs.jsonl: the replayed queue must
    // drop that line (leaving alpha queued again) rather than trust it.
    let log_path = dir.join("jobs.jsonl");
    let text = std::fs::read_to_string(&log_path).expect("log readable");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    assert_eq!(lines.len(), 3, "two submissions plus one phase change");
    let mut bytes = lines[2].clone().into_bytes();
    let flip_at = bytes.len() - 6;
    bytes[flip_at] ^= 0x02;
    lines[2] = String::from_utf8(bytes).expect("still utf-8");
    std::fs::write(&log_path, format!("{}\n", lines.join("\n"))).expect("log rewritten");

    let queue = JobQueue::open(&dir).expect("queue reopens");
    assert_eq!(queue.dropped_lines, 1, "the tampered line must be counted");
    assert!(
        queue.jobs().all(|job| job.phase == JobPhase::Queued),
        "an unverifiable phase change must not replay"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
