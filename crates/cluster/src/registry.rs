//! The worker registry behind the coordinator engine.
//!
//! Every worker session registers here: on the service, each accepted
//! [`Register`](crate::protocol::Register); in a one-shot run, each
//! session a spawned slot opens. Each registration mints a fresh,
//! monotonically-increasing slot id — sessions are disposable, so a
//! reconnecting worker gets a new slot, never a recycled one.
//!
//! Quarantine works in this elastic world by accruing channel strikes to
//! the worker's *name* rather than its slot (a one-shot slot registers
//! every session under its slot name):
//! a crashy worker cannot launder its record by reconnecting (the strikes
//! follow the name), and once the name crosses the quarantine threshold
//! further registrations under it are refused with a typed
//! [`ServiceErrKind::Quarantined`](crate::protocol::ServiceErrKind). A
//! fresh name starts with a clean record, which is exactly the escape
//! hatch an operator wants after replacing bad hardware.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// One registered worker slot's bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisteredWorker {
    /// Operator-chosen worker name (the quarantine identity).
    pub name: String,
    /// Executor threads the worker advertised (sizes its batches).
    pub threads: usize,
    /// Whether the session is still connected.
    pub active: bool,
    /// Results this slot has delivered.
    pub done: u64,
    /// The job the slot is currently serving, if any.
    pub job: Option<u64>,
}

/// Why a registration was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterRefusal {
    /// The name accumulated too many lifetime strikes; carries the count.
    Quarantined(usize),
}

struct RegistryState {
    next_slot: u64,
    slots: BTreeMap<u64, RegisteredWorker>,
    strikes: BTreeMap<String, usize>,
}

/// Thread-safe dynamic slot table with per-name lifetime strikes.
pub struct WorkerRegistry {
    quarantine_after: Option<usize>,
    state: Mutex<RegistryState>,
}

impl WorkerRegistry {
    /// An empty registry. `quarantine_after` bounds a *name's* lifetime
    /// channel strikes (`None` = never quarantine).
    pub fn new(quarantine_after: Option<usize>) -> Self {
        WorkerRegistry {
            quarantine_after,
            state: Mutex::new(RegistryState {
                next_slot: 0,
                slots: BTreeMap::new(),
                strikes: BTreeMap::new(),
            }),
        }
    }

    /// Admits a worker, minting a fresh slot id.
    ///
    /// # Errors
    ///
    /// Refuses names that already crossed the quarantine threshold.
    pub fn register(&self, name: &str, threads: usize) -> Result<u64, RegisterRefusal> {
        let mut state = self.state.lock().expect("registry mutex poisoned");
        if let Some(limit) = self.quarantine_after {
            let strikes = state.strikes.get(name).copied().unwrap_or(0);
            if strikes >= limit {
                return Err(RegisterRefusal::Quarantined(strikes));
            }
        }
        let slot = state.next_slot;
        state.next_slot += 1;
        state.slots.insert(
            slot,
            RegisteredWorker {
                name: name.to_string(),
                threads: threads.max(1),
                active: true,
                done: 0,
                job: None,
            },
        );
        Ok(slot)
    }

    /// Retires a slot. An involuntary retirement (channel loss, protocol
    /// violation) charges one strike to the worker's name; a voluntary one
    /// ([`Deregister`](crate::protocol::Message::Deregister), drain
    /// shutdown) does not. Returns the name's strike count afterwards.
    pub fn retire(&self, slot: u64, voluntary: bool) -> usize {
        let mut state = self.state.lock().expect("registry mutex poisoned");
        let name = match state.slots.get_mut(&slot) {
            Some(worker) => {
                worker.active = false;
                worker.job = None;
                worker.name.clone()
            }
            None => return 0,
        };
        if voluntary {
            state.strikes.get(&name).copied().unwrap_or(0)
        } else {
            let strikes = state.strikes.entry(name).or_insert(0);
            *strikes += 1;
            *strikes
        }
    }

    /// Records which job a slot is serving (shown in status/fleet views).
    pub fn set_job(&self, slot: u64, job: Option<u64>) {
        let mut state = self.state.lock().expect("registry mutex poisoned");
        if let Some(worker) = state.slots.get_mut(&slot) {
            worker.job = job;
        }
    }

    /// Bumps a slot's delivered-result tally.
    pub fn record_done(&self, slot: u64) {
        let mut state = self.state.lock().expect("registry mutex poisoned");
        if let Some(worker) = state.slots.get_mut(&slot) {
            worker.done += 1;
        }
    }

    /// Whether a name is currently quarantined.
    pub fn is_quarantined(&self, name: &str) -> bool {
        let state = self.state.lock().expect("registry mutex poisoned");
        match self.quarantine_after {
            Some(limit) => state.strikes.get(name).copied().unwrap_or(0) >= limit,
            None => false,
        }
    }

    /// Currently-connected slots.
    pub fn active(&self) -> usize {
        let state = self.state.lock().expect("registry mutex poisoned");
        state.slots.values().filter(|w| w.active).count()
    }

    /// Every slot ever registered with its name's strike/quarantine state,
    /// in slot order: `(slot, worker, name_strikes, quarantined)`.
    pub fn snapshot(&self) -> Vec<(u64, RegisteredWorker, usize, bool)> {
        let state = self.state.lock().expect("registry mutex poisoned");
        state
            .slots
            .iter()
            .map(|(&slot, worker)| {
                let strikes = state.strikes.get(&worker.name).copied().unwrap_or(0);
                let quarantined = matches!(self.quarantine_after, Some(limit) if strikes >= limit);
                (slot, worker.clone(), strikes, quarantined)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_monotonic_and_never_recycled() {
        let r = WorkerRegistry::new(None);
        let a = r.register("a", 2).unwrap();
        let b = r.register("b", 2).unwrap();
        r.retire(a, true);
        let a2 = r.register("a", 2).unwrap();
        assert!(a < b && b < a2);
        assert_eq!(r.active(), 2);
    }

    #[test]
    fn strikes_follow_the_name_and_quarantine_refuses_registration() {
        let r = WorkerRegistry::new(Some(2));
        let s1 = r.register("flaky", 1).unwrap();
        assert_eq!(r.retire(s1, false), 1);
        // Reconnecting does not launder the record: a new slot, same name.
        let s2 = r.register("flaky", 1).unwrap();
        assert_eq!(r.retire(s2, false), 2);
        assert!(r.is_quarantined("flaky"));
        assert_eq!(r.register("flaky", 1), Err(RegisterRefusal::Quarantined(2)));
        // A fresh name starts clean.
        assert!(r.register("fresh", 1).is_ok());
    }

    #[test]
    fn voluntary_retirement_is_not_a_strike() {
        let r = WorkerRegistry::new(Some(1));
        for _ in 0..3 {
            let s = r.register("polite", 1).unwrap();
            assert_eq!(r.retire(s, true), 0);
        }
        assert!(!r.is_quarantined("polite"));
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(snap
            .iter()
            .all(|(_, w, strikes, q)| !w.active && *strikes == 0 && !q));
    }
}
