//! Per-slot fleet health for the cluster coordinator.
//!
//! Unlike the metric registry, the fleet table is **always on**: updates
//! happen only on coordinator control-plane transitions (assign, done,
//! respawn, strike, ping), which are orders of magnitude rarer than kernel
//! hot-path events, and the end-of-campaign per-slot summary table must
//! print even when no `--metrics-out` was requested (silently dropped
//! respawn/quarantine/poison events are exactly the failure mode this
//! module exists to fix).

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::JsonWriter;

/// Health and throughput tallies for one coordinator slot (one logical
/// worker seat, across every respawned process that occupied it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotHealth {
    /// Specs handed to this slot (re-dispatches and duplicates included).
    pub assigned: u64,
    /// Specs whose result this slot delivered first.
    pub done: u64,
    /// Specs this slot computed that a speculative twin had already won.
    pub duplicates_lost: u64,
    /// Speculative assignments this slot won.
    pub speculative_won: u64,
    /// Times the coordinator relaunched a worker into this slot.
    pub respawns: u64,
    /// Lifetime strikes accrued toward quarantine.
    pub strikes: u64,
    /// Slot reached its quarantine threshold and was retired.
    pub quarantined: bool,
    /// Heartbeat pings received while this slot computed batches.
    pub pings: u64,
    /// Worker-reported heartbeat round-trip tallies (nanoseconds). The
    /// worker measures ping-send to pong-read, reading each pong as soon
    /// as it sends the ping, so this is the control-plane round trip while
    /// computing: wire time plus the coordinator's reply latency.
    pub rtt_ns_sum: u64,
    pub rtt_count: u64,
    pub rtt_ns_max: u64,
    /// Worker-reported execution tallies piggybacked on `Done` frames.
    pub worker_specs_done: u64,
    pub worker_eval_ns: u64,
    pub worker_plan_hits: u64,
    pub worker_plan_misses: u64,
    /// Most recent session-level error observed on this slot, if any.
    pub last_error: Option<String>,
}

impl SlotHealth {
    /// Mean heartbeat RTT in nanoseconds (0 when no pongs were matched).
    pub fn rtt_ns_mean(&self) -> u64 {
        self.rtt_ns_sum.checked_div(self.rtt_count).unwrap_or(0)
    }
}

static FLEET: Mutex<Option<BTreeMap<u64, SlotHealth>>> = Mutex::new(None);

/// Mutate (creating on first touch) the health record for `slot`.
pub fn fleet_update(slot: u64, f: impl FnOnce(&mut SlotHealth)) {
    let mut guard = FLEET.lock().unwrap_or_else(|e| e.into_inner());
    f(guard
        .get_or_insert_with(BTreeMap::new)
        .entry(slot)
        .or_default())
}

/// Owned copy of the fleet table, slot-ordered.
pub fn fleet_snapshot() -> Vec<(u64, SlotHealth)> {
    let mut guard = FLEET.lock().unwrap_or_else(|e| e.into_inner());
    guard
        .get_or_insert_with(BTreeMap::new)
        .iter()
        .map(|(k, v)| (*k, v.clone()))
        .collect()
}

/// Clear the fleet table (e.g. between campaigns in one process).
pub fn fleet_reset() {
    let mut guard = FLEET.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(m) = guard.as_mut() {
        m.clear();
    }
}

/// Serialize the fleet table as a JSON array under the key `"fleet"`.
pub fn write_fleet_json(w: &mut JsonWriter, fleet: &[(u64, SlotHealth)]) {
    w.begin_array(Some("fleet"));
    for (slot, h) in fleet {
        w.begin_object(None);
        w.field_u64("slot", *slot);
        w.field_u64("assigned", h.assigned);
        w.field_u64("done", h.done);
        w.field_u64("duplicates_lost", h.duplicates_lost);
        w.field_u64("speculative_won", h.speculative_won);
        w.field_u64("respawns", h.respawns);
        w.field_u64("strikes", h.strikes);
        w.field_bool("quarantined", h.quarantined);
        w.field_u64("pings", h.pings);
        w.field_u64("heartbeat_rtt_ns_mean", h.rtt_ns_mean());
        w.field_u64("heartbeat_rtt_ns_max", h.rtt_ns_max);
        w.field_u64("worker_specs_done", h.worker_specs_done);
        w.field_u64("worker_eval_ns", h.worker_eval_ns);
        w.field_u64("worker_plan_hits", h.worker_plan_hits);
        w.field_u64("worker_plan_misses", h.worker_plan_misses);
        if let Some(e) = &h.last_error {
            w.field_str("last_error", e);
        }
        w.end_object();
    }
    w.end_array();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_snapshot_roundtrip() {
        fleet_update(900_001, |s| {
            s.assigned += 4;
            s.done += 3;
            s.respawns += 1;
            s.last_error = Some("io: broken pipe".into());
        });
        fleet_update(900_001, |s| s.done += 1);
        let snap = fleet_snapshot();
        let (_, h) = snap.iter().find(|(k, _)| *k == 900_001).unwrap();
        assert_eq!(h.assigned, 4);
        assert_eq!(h.done, 4);
        assert_eq!(h.respawns, 1);
        assert_eq!(h.last_error.as_deref(), Some("io: broken pipe"));
    }

    #[test]
    fn rtt_mean_handles_zero_count() {
        let h = SlotHealth::default();
        assert_eq!(h.rtt_ns_mean(), 0);
    }
}
