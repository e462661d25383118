//! The per-job spec-dispatch queue and batch exchange.
//!
//! The coordinator engine ([`crate::daemon`]) keeps one [`Dispatch`] per
//! open job, whether the job is a one-shot `--workers` run or one of the
//! service's queued campaigns, so crash blame and poisoning behave the
//! same everywhere. [`Dispatch::try_pop_batch`] never blocks: the
//! engine scans its open jobs and parks the session on its own condvar
//! when nothing is claimable. The popped [`Batch`] goes to
//! [`exchange_batch`], the one `Assign` -> `Done`/`Ping` exchange with a
//! worker.

use crate::protocol::{Assign, Done, Message, Outcome};
use crate::transport::Transport;
use qismet_telemetry::{counter, event, fleet_update, gauge};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Precise crash strikes (suspect-singleton losses) after which a spec is
/// poisoned: isolated and reported instead of retried.
const POISON_AFTER: usize = 2;

/// One assignment handed to a session.
pub(crate) struct Batch {
    pub(crate) indices: Vec<usize>,
    /// Suspect batches are crash-implicated singletons: a further loss
    /// while one is outstanding is a precise blame strike on that spec.
    pub(crate) suspect: bool,
}

/// One job's dispatch queue.
///
/// Fresh work flows through `queue` in batches; crash-implicated work
/// flows through `suspects` one index at a time (so repeated crashes are
/// attributable to a single spec, feeding the poison counter). Each index
/// is held by at most one live session at a time.
pub(crate) struct Dispatch {
    state: Mutex<DispatchState>,
    aborted: AtomicBool,
}

struct DispatchState {
    /// Never-dispatched (or cleanly returned) work, in dispatch order.
    queue: VecDeque<usize>,
    /// Crash-implicated work, re-dispatched as singletons.
    suspects: VecDeque<usize>,
    /// Indices whose first result has been accepted.
    completed: BTreeSet<usize>,
    /// index -> precise crash strikes (suspect-singleton losses only).
    blame: BTreeMap<usize, usize>,
    /// Indices isolated after reaching the poison threshold.
    poisoned: BTreeSet<usize>,
    /// Total indices this run must settle (completed + poisoned).
    target: usize,
}

impl DispatchState {
    fn is_finished(&self) -> bool {
        self.completed.len() + self.poisoned.len() >= self.target
    }

    fn is_settled(&self, index: usize) -> bool {
        self.completed.contains(&index) || self.poisoned.contains(&index)
    }

    /// Pops the next assignment without waiting: a suspect singleton
    /// first, else up to `k` fresh indices.
    fn pop_ready(&mut self, k: usize) -> Option<Batch> {
        while let Some(front) = self.suspects.pop_front() {
            if !self.is_settled(front) {
                return Some(Batch {
                    indices: vec![front],
                    suspect: true,
                });
            }
        }
        let mut batch = Vec::new();
        while batch.len() < k {
            let Some(index) = self.queue.pop_front() else {
                break;
            };
            if !self.is_settled(index) {
                batch.push(index);
            }
        }
        if batch.is_empty() {
            return None;
        }
        gauge!("cluster.queue_depth").set(self.queue.len() as i64);
        Some(Batch {
            indices: batch,
            suspect: false,
        })
    }
}

impl Dispatch {
    pub(crate) fn new(pending: &[usize]) -> Self {
        Dispatch {
            state: Mutex::new(DispatchState {
                queue: pending.iter().copied().collect(),
                suspects: VecDeque::new(),
                completed: BTreeSet::new(),
                blame: BTreeMap::new(),
                poisoned: BTreeSet::new(),
                target: pending.len(),
            }),
            aborted: AtomicBool::new(false),
        }
    }

    /// Pops the next assignment: a suspect singleton first, else up to `k`
    /// fresh indices. Never blocks: `None` means nothing is claimable right
    /// now (in-flight work may still come back), the job is settled, or it
    /// aborted.
    pub(crate) fn try_pop_batch(&self, k: usize) -> Option<Batch> {
        if self.aborted.load(Ordering::Relaxed) {
            return None;
        }
        let mut state = self.state.lock().expect("dispatch mutex poisoned");
        state.pop_ready(k.max(1))
    }

    /// Records an accepted result for `index`. Returns `true` if it is the
    /// first (the caller sinks and keeps it), `false` if `index` was already
    /// settled (the caller drops the result).
    pub(crate) fn complete(&self, index: usize) -> bool {
        let mut state = self.state.lock().expect("dispatch mutex poisoned");
        state.completed.insert(index)
    }

    /// Settles a lost session's outstanding indices: anything not yet
    /// settled goes back as a suspect, and — when the lost batch was itself
    /// a suspect singleton — earns a precise blame strike that can poison
    /// the spec. Returns whether blame was assigned (a
    /// blamed loss does not charge the worker's respawn budget).
    pub(crate) fn settle_loss(&self, outstanding: &VecDeque<usize>, was_suspect: bool) -> bool {
        let mut state = self.state.lock().expect("dispatch mutex poisoned");
        let mut blamed = false;
        for &index in outstanding {
            if state.is_settled(index) {
                continue;
            }
            if was_suspect {
                let strikes = {
                    let s = state.blame.entry(index).or_insert(0);
                    *s += 1;
                    *s
                };
                blamed = true;
                if strikes >= POISON_AFTER {
                    state.poisoned.insert(index);
                    event(
                        "poison",
                        format!("spec {index} isolated after {strikes} attributed crashes"),
                    );
                    counter!("cluster.specs_poisoned").inc();
                    continue;
                }
            }
            state.suspects.push_back(index);
        }
        blamed
    }

    /// Stops handing out work (the job failed or was cancelled).
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::Relaxed);
    }

    /// Whether every index is settled (completed or poisoned).
    pub(crate) fn is_finished(&self) -> bool {
        let state = self.state.lock().expect("dispatch mutex poisoned");
        state.is_finished()
    }

    /// Indices whose first result has been accepted.
    pub(crate) fn completed_count(&self) -> usize {
        let state = self.state.lock().expect("dispatch mutex poisoned");
        state.completed.len()
    }

    /// The poisoned indices, sorted.
    pub(crate) fn poisoned_indices(&self) -> Vec<usize> {
        let state = self.state.lock().expect("dispatch mutex poisoned");
        state.poisoned.iter().copied().collect()
    }
}

/// Why [`exchange_batch`] stopped before every index was answered. The
/// indices still outstanding stay in the caller's deque, which decides
/// how to settle them.
pub(crate) enum ExchangeEnd {
    /// The channel failed: a send or read error, or a read deadline that
    /// expired without a frame.
    Lost(String),
    /// The worker sent something other than a `Ping` or a `Done` for an
    /// outstanding index.
    Violation(String),
}

/// Sends `batch` to a worker as one `Assign` and reads frames until every
/// index is answered: each `Ping` gets a `Pong`, each `Done` folds its
/// `stats` deltas into `slot`'s fleet-table row, and each `Done` for an
/// index in `outstanding` is removed from it and handed to `on_result`.
/// Worker stats are deltas, so plain addition aggregates correctly across
/// respawns and reused sessions.
///
/// `outstanding` starts as the batch's indices; whatever it still holds
/// when this returns an [`ExchangeEnd`] is unanswered work for the caller
/// to settle back into its dispatch queue.
pub(crate) fn exchange_batch(
    slot: u64,
    transport: &mut dyn Transport,
    batch: &Batch,
    outstanding: &mut VecDeque<usize>,
    mut on_result: impl FnMut(usize, u64, Outcome),
) -> Result<(), ExchangeEnd> {
    let assign = Message::Assign(Assign {
        indices: batch.indices.clone(),
    });
    if let Err(e) = transport.send(&assign) {
        let indices = &batch.indices;
        return Err(ExchangeEnd::Lost(format!(
            "assigning batch {indices:?} failed: {e}"
        )));
    }
    fleet_update(slot, |s| s.assigned += batch.indices.len() as u64);
    counter!("cluster.specs_assigned").add(batch.indices.len() as u64);
    while !outstanding.is_empty() {
        let done = match transport.recv() {
            Ok(Message::Done(done)) => done,
            Ok(Message::Ping) => {
                // The worker is alive, just still computing: answer and
                // keep waiting (the read deadline restarts per frame).
                fleet_update(slot, |s| s.pings += 1);
                counter!("cluster.pings").inc();
                if let Err(e) = transport.send(&Message::Pong) {
                    return Err(ExchangeEnd::Lost(format!("heartbeat reply failed: {e}")));
                }
                continue;
            }
            Ok(other) => {
                return Err(ExchangeEnd::Violation(format!(
                    "expected Done, got {other:?}"
                )))
            }
            Err(e) => {
                return Err(ExchangeEnd::Lost(format!(
                    "reading result of batch {outstanding:?} failed: {e}"
                )))
            }
        };
        let Done {
            index,
            seed,
            outcome,
            stats,
        } = done;
        if let Some(stats) = &stats {
            fleet_update(slot, |s| {
                s.worker_specs_done += stats.specs_done;
                s.worker_eval_ns += stats.eval_ns;
                s.worker_plan_hits += stats.plan_hits;
                s.worker_plan_misses += stats.plan_misses;
                s.rtt_count += stats.rtt_count;
                s.rtt_ns_sum += stats.rtt_ns_sum;
                s.rtt_ns_max = s.rtt_ns_max.max(stats.rtt_ns_max);
            });
        }
        let Some(pos) = outstanding.iter().position(|&i| i == index) else {
            return Err(ExchangeEnd::Violation(format!(
                "got result for unassigned spec {index}"
            )));
        };
        outstanding.remove(pos);
        on_result(index, seed, outcome);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_pop_never_blocks_and_respects_settled_state() {
        let d = Dispatch::new(&[0, 1, 2, 3]);
        let b = d.try_pop_batch(3).expect("fresh work is claimable");
        assert_eq!(b.indices, vec![0, 1, 2]);
        assert!(!b.suspect);
        // Remaining index 3 is claimable; in-flight work is not.
        let b2 = d.try_pop_batch(3).expect("index 3 still queued");
        assert_eq!(b2.indices, vec![3]);
        assert!(d.try_pop_batch(3).is_none(), "everything is in flight");
        for i in 0..4 {
            assert!(d.complete(i));
        }
        assert!(d.is_finished());
        assert!(d.try_pop_batch(3).is_none());
    }

    #[test]
    fn try_pop_returns_suspects_as_singletons_after_a_loss() {
        let d = Dispatch::new(&[0, 1]);
        let b = d.try_pop_batch(2).expect("fresh batch");
        assert_eq!(b.indices, vec![0, 1]);
        let outstanding: VecDeque<usize> = b.indices.iter().copied().collect();
        assert!(
            !d.settle_loss(&outstanding, false),
            "fresh loss is unblamed"
        );
        let s1 = d.try_pop_batch(2).expect("suspect singleton");
        assert_eq!(s1.indices, vec![0]);
        assert!(s1.suspect);
        let s2 = d.try_pop_batch(2).expect("second suspect singleton");
        assert_eq!(s2.indices, vec![1]);
        assert!(s2.suspect);
    }

    #[test]
    fn suspect_losses_blame_and_poison_the_spec() {
        let d = Dispatch::new(&[7]);
        for round in 0..2 {
            let b = d.try_pop_batch(4).expect("claimable");
            let was_suspect = b.suspect;
            assert_eq!(was_suspect, round > 0);
            let outstanding: VecDeque<usize> = b.indices.iter().copied().collect();
            let blamed = d.settle_loss(&outstanding, was_suspect);
            assert_eq!(blamed, was_suspect);
        }
        // Second suspect loss reached POISON_AFTER = 2.
        let b = d.try_pop_batch(4).expect("first suspect retry");
        let outstanding: VecDeque<usize> = b.indices.iter().copied().collect();
        assert!(d.settle_loss(&outstanding, true));
        assert_eq!(d.poisoned_indices(), vec![7]);
        assert!(d.is_finished());
        assert!(d.try_pop_batch(4).is_none());
    }

    #[test]
    fn aborted_dispatch_hands_out_nothing() {
        let d = Dispatch::new(&[0, 1]);
        d.abort();
        assert!(d.try_pop_batch(2).is_none());
    }
}
