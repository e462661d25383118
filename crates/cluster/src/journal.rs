//! Append-only JSONL checkpoint journal.
//!
//! The coordinator appends one [`Message::Checkpoint`] line per completed
//! run, flushed immediately, so an interrupted campaign (crash, OOM-kill,
//! Ctrl-C) leaves a valid prefix of its progress on disk. On `--resume`,
//! [`load_journal`] replays every line whose fingerprint matches the
//! campaign being run; lines from other campaigns are counted and skipped,
//! and a torn final line (the interrupted write itself) is tolerated.
//!
//! Every line the writer appends is prefixed with a 16-hex-digit FNV-1a
//! checksum of the JSON body (`<checksum> <json>`), so corruption in the
//! *middle* of a journal — a flipped bit, an overwritten block, a partial
//! line from an interleaved writer — is detected and the damaged line
//! skipped (counted in [`LoadedJournal::mismatched`]) instead of silently
//! resuming from a record that was never durably written. Bare legacy
//! lines without a checksum still load, so pre-existing journals resume
//! unchanged.
//!
//! [`resume_journal`] is the one replay both coordinators run: the
//! one-shot `--resume` and the service daemon reopening a job.

use crate::protocol::{CheckpointEntry, Message};
use crate::Fingerprint;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Appends checkpoint entries to a journal file, one JSONL line per run.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    appended: usize,
}

impl JournalWriter {
    /// Opens (creating if needed) `path` for appending.
    ///
    /// If the existing journal ends mid-line (the torn write of an
    /// interrupted invocation), a newline is appended first so new entries
    /// never fuse onto the torn fragment.
    ///
    /// # Errors
    ///
    /// Propagates the underlying open/create failure.
    pub fn append_to(path: &Path) -> io::Result<Self> {
        let mut needs_newline = false;
        match File::open(path) {
            Ok(mut existing) => {
                if existing.metadata()?.len() > 0 {
                    existing.seek(SeekFrom::End(-1))?;
                    let mut last = [0u8; 1];
                    existing.read_exact(&mut last)?;
                    needs_newline = last[0] != b'\n';
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if needs_newline {
            file.write_all(b"\n")?;
        }
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            appended: 0,
        })
    }

    /// Appends one completed run (checksum-prefixed) and flushes it to the
    /// OS.
    ///
    /// # Errors
    ///
    /// Propagates write/flush failures; the journal may then hold a torn
    /// final line, which [`load_journal`] tolerates.
    pub fn append(&mut self, entry: &CheckpointEntry) -> io::Result<()> {
        let body = serde_json::to_string(&Message::Checkpoint(entry.clone()))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let line = format!("{:016x} {body}\n", line_checksum(&body));
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.appended += 1;
        Ok(())
    }

    /// How many entries this writer has appended.
    pub fn appended(&self) -> usize {
        self.appended
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The result of replaying a journal against one campaign fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedJournal {
    /// Matching entries, keyed by spec index (the latest line wins if an
    /// index was journaled twice, e.g. across a respawn race).
    pub entries: BTreeMap<usize, CheckpointEntry>,
    /// Lines that parsed but belong to a different campaign fingerprint.
    pub foreign: usize,
    /// Lines that failed to parse (torn trailing writes, stray text).
    pub corrupt: usize,
    /// Lines whose checksum prefix did not match their body (mid-journal
    /// corruption); skipped rather than replayed.
    pub mismatched: usize,
}

/// FNV-1a over the JSON body of one journal line. Shared with the job
/// queue's event log, which uses the same `<checksum> <json>` discipline.
pub(crate) fn line_checksum(body: &str) -> u64 {
    let mut hash = Fingerprint::new();
    hash.update(body.as_bytes());
    hash.finish()
}

/// Splits a `<16-hex-digit checksum> <json>` line. Returns `None` for
/// legacy (bare JSON) lines, `Some(Err(()))` for a checksum mismatch, and
/// `Some(Ok(body))` when the checksum verifies.
pub(crate) fn split_checksummed(line: &str) -> Option<Result<&str, ()>> {
    let (prefix, body) = line.split_at_checked(16)?;
    let body = body.strip_prefix(' ')?;
    let stored = u64::from_str_radix(prefix, 16).ok()?;
    Some(if stored == line_checksum(body) {
        Ok(body)
    } else {
        Err(())
    })
}

/// Replays the journal at `path`, keeping entries for `fingerprint`.
///
/// A missing file is an empty journal, not an error — resuming a campaign
/// that never checkpointed simply runs everything.
///
/// # Errors
///
/// Propagates read failures other than `NotFound`.
pub fn load_journal(path: &Path, fingerprint: u64) -> io::Result<LoadedJournal> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let mut loaded = LoadedJournal {
        entries: BTreeMap::new(),
        foreign: 0,
        corrupt: 0,
        mismatched: 0,
    };
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let body = match split_checksummed(line) {
            Some(Ok(body)) => body,
            Some(Err(())) => {
                loaded.mismatched += 1;
                continue;
            }
            None => line, // legacy bare-JSON line (or torn fragment)
        };
        match serde_json::from_str::<Message>(body) {
            Ok(Message::Checkpoint(entry)) if entry.fingerprint == fingerprint => {
                loaded.entries.insert(entry.index, entry);
            }
            Ok(Message::Checkpoint(_)) => loaded.foreign += 1,
            Ok(_) | Err(_) => loaded.corrupt += 1,
        }
    }
    Ok(loaded)
}

/// Replays the journal at `path` into a campaign whose spec `i` runs with
/// `seeds[i]`, keeping an entry only if its fingerprint, index and seed
/// still match (a stale journal never leaks a record into a reshuffled
/// campaign), then reopens the file for append. Entries come in index
/// order.
///
/// # Errors
///
/// Propagates read failures other than `NotFound` and the reopen failure.
pub fn resume_journal(
    path: &Path,
    fingerprint: u64,
    seeds: &[u64],
) -> io::Result<(Vec<CheckpointEntry>, JournalWriter)> {
    let kept = load_journal(path, fingerprint)?
        .entries
        .into_values()
        .filter(|entry| seeds.get(entry.index) == Some(&entry.seed))
        .collect();
    Ok((kept, JournalWriter::append_to(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn entry(fingerprint: u64, index: usize, energy: f64) -> CheckpointEntry {
        CheckpointEntry {
            fingerprint,
            index,
            seed: 0x5eed + index as u64,
            record: Value::Object(vec![("final_energy".into(), Value::F64(energy))]),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("qismet-journal-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn write_then_load_roundtrips_matching_entries() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::append_to(&path).unwrap();
            w.append(&entry(7, 0, -5.5)).unwrap();
            w.append(&entry(7, 3, 0.1 + 0.2)).unwrap();
            w.append(&entry(99, 1, -1.0)).unwrap(); // foreign campaign
            assert_eq!(w.appended(), 3);
        }
        let loaded = load_journal(&path, 7).unwrap();
        assert_eq!(loaded.entries.len(), 2);
        assert_eq!(loaded.foreign, 1);
        assert_eq!(loaded.corrupt, 0);
        let x = loaded.entries[&3].record.get("final_energy").unwrap();
        assert_eq!(x.as_f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_line_is_tolerated() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::append_to(&path).unwrap();
            w.append(&entry(7, 0, -5.5)).unwrap();
        }
        // Simulate a kill mid-append: a truncated JSON line with no newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"Checkpoint\":{\"fingerprint\":7,\"ind")
                .unwrap();
        }
        let loaded = load_journal(&path, 7).unwrap();
        assert_eq!(loaded.entries.len(), 1);
        assert_eq!(loaded.corrupt, 1);
        // Appending after the interruption must not fuse onto the torn
        // fragment: `append_to` terminates it first, so the fragment stays
        // one corrupt line and the new entry loads intact.
        {
            let mut w = JournalWriter::append_to(&path).unwrap();
            w.append(&entry(7, 5, 2.0)).unwrap();
        }
        let reloaded = load_journal(&path, 7).unwrap();
        assert_eq!(reloaded.entries.len(), 2);
        assert!(reloaded.entries.contains_key(&0));
        assert!(reloaded.entries.contains_key(&5));
        assert_eq!(reloaded.corrupt, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_middle_line_is_skipped_not_replayed() {
        let path = temp_path("middle");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::append_to(&path).unwrap();
            w.append(&entry(7, 0, 1.0)).unwrap();
            w.append(&entry(7, 1, 2.0)).unwrap();
            w.append(&entry(7, 2, 3.0)).unwrap();
        }
        // Flip one byte in the middle line's JSON body (simulating disk or
        // torn-block corruption) without touching its checksum prefix.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        assert_eq!(lines.len(), 3);
        let victim = lines[1].clone();
        let flip_at = victim.len() - 5;
        let mut bytes = victim.into_bytes();
        bytes[flip_at] ^= 0x20;
        lines[1] = String::from_utf8(bytes).unwrap();
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

        let loaded = load_journal(&path, 7).unwrap();
        assert_eq!(loaded.mismatched, 1);
        assert_eq!(loaded.corrupt, 0);
        assert_eq!(loaded.entries.len(), 2);
        assert!(loaded.entries.contains_key(&0));
        assert!(!loaded.entries.contains_key(&1));
        assert!(loaded.entries.contains_key(&2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_prefix_forgery_does_not_load() {
        let path = temp_path("forged");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::append_to(&path).unwrap();
            w.append(&entry(7, 0, 1.0)).unwrap();
        }
        // A line with a well-formed prefix but the wrong checksum: the body
        // parses fine, so only verification can reject it.
        let body = serde_json::to_string(&Message::Checkpoint(entry(7, 9, -4.0))).unwrap();
        let forged = format!("{:016x} {body}\n", 0xdead_beef_u64);
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(forged.as_bytes()).unwrap();
        }
        let loaded = load_journal(&path, 7).unwrap();
        assert_eq!(loaded.mismatched, 1);
        assert_eq!(loaded.entries.len(), 1);
        assert!(!loaded.entries.contains_key(&9));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn legacy_unchecksummed_lines_still_load() {
        let path = temp_path("legacy");
        let _ = std::fs::remove_file(&path);
        // A pre-checksum journal: bare JSON lines, no prefix.
        let old = serde_json::to_string(&Message::Checkpoint(entry(7, 4, 8.5))).unwrap();
        std::fs::write(&path, format!("{old}\n")).unwrap();
        {
            let mut w = JournalWriter::append_to(&path).unwrap();
            w.append(&entry(7, 5, 9.5)).unwrap();
        }
        let loaded = load_journal(&path, 7).unwrap();
        assert_eq!(loaded.entries.len(), 2);
        assert_eq!(loaded.mismatched + loaded.corrupt + loaded.foreign, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_journal_is_empty() {
        let loaded = load_journal(Path::new("/nonexistent/qismet.jsonl"), 1).unwrap();
        assert!(loaded.entries.is_empty());
        assert_eq!(loaded.foreign + loaded.corrupt, 0);
    }

    #[test]
    fn resume_keeps_only_entries_whose_index_and_seed_still_match() {
        let path = temp_path("resume");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::append_to(&path).unwrap();
            w.append(&entry(7, 0, 1.0)).unwrap();
            w.append(&entry(7, 1, 2.0)).unwrap(); // reseeded below
            w.append(&entry(7, 5, 3.0)).unwrap(); // out of range
            w.append(&entry(9, 2, 4.0)).unwrap(); // foreign campaign
        }
        let seeds = [0x5eed, 1, 0x5eed + 2];
        let (kept, mut writer) = resume_journal(&path, 7, &seeds).unwrap();
        let indices: Vec<usize> = kept.iter().map(|e| e.index).collect();
        assert_eq!(indices, vec![0]);
        writer.append(&entry(7, 2, 5.0)).unwrap();
        let (kept, _) = resume_journal(&path, 7, &seeds).unwrap();
        let indices: Vec<usize> = kept.iter().map(|e| e.index).collect();
        assert_eq!(indices, vec![0, 2]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn latest_entry_wins_per_index() {
        let path = temp_path("latest");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::append_to(&path).unwrap();
            w.append(&entry(7, 2, 1.0)).unwrap();
            w.append(&entry(7, 2, 2.0)).unwrap();
        }
        let loaded = load_journal(&path, 7).unwrap();
        assert_eq!(loaded.entries.len(), 1);
        let x = loaded.entries[&2].record.get("final_energy").unwrap();
        assert_eq!(x.as_f64().unwrap(), 2.0);
        std::fs::remove_file(&path).unwrap();
    }
}
