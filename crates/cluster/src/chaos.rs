//! Deterministic fault injection: the single seam every cluster fault
//! flows through.
//!
//! QISMET's premise is that long campaigns must *navigate transient
//! disruptions*; this module makes our own cluster's disruption surface a
//! first-class, reproducible input. A [`FaultPlan`] is a seeded,
//! serializable schedule of faults, each addressed by worker slot and
//! session event count; the plan is executed by a [`FaultTransport`]
//! wrapper that implements the ordinary [`Transport`] trait beneath a
//! worker's channel, so the protocol, coordinator, and worker code under
//! test are byte-for-byte the production paths — only the stream beneath
//! them misbehaves, on schedule.
//!
//! ## Fault taxonomy
//!
//! | [`FaultKind`]      | Effect at trigger                                     |
//! |--------------------|-------------------------------------------------------|
//! | `Disconnect`       | channel ops fail (`ConnectionAborted`) for the session|
//! | `Hang`             | channel ops block forever (process alive, no frames)  |
//! | `SlowFrames(ms)`   | every subsequent send sleeps `ms` first               |
//! | `TruncateFrame`    | next frame is cut mid-body, then the channel dies     |
//! | `CorruptFrame`     | next frame is replaced by garbage, then the channel   |
//! |                    | dies                                                  |
//! | `CrashProcess`     | `std::process::exit(17)` (the whole worker process)   |
//! | `CrashOnSpec(i)`   | session dies when spec `i` is assigned — once per     |
//! |                    | process lifetime                                      |
//! | `PoisonSpec(i)`    | session dies when spec `i` is assigned — every time   |
//!
//! Count-addressed faults (`after_dones`) trigger once the session has sent
//! that many [`Done`](crate::protocol::Done) frames. Spec-addressed faults
//! trigger when an [`Assign`](crate::protocol::Assign) containing the spec
//! arrives (gated on `after_dones` too, normally 0).
//!
//! `CrashOnSpec` is "once" *per session*. A stdio worker process serves
//! exactly one session and is respawned with fresh state, so across a
//! campaign `CrashOnSpec` behaves like `PoisonSpec` — which the
//! coordinator's poison-spec quarantine is built to absorb.

use crate::protocol::Message;
use crate::transport::Transport;
use serde::{Deserialize, Serialize};
use std::io;
use std::time::Duration;

/// Exit code used by [`FaultKind::CrashProcess`] so a chaos crash is
/// distinguishable from a panic in logs.
pub const CRASH_EXIT_CODE: i32 = 17;

/// One kind of injected misbehavior. See the [module docs](self) for the
/// full taxonomy table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Channel operations fail with `ConnectionAborted` from the trigger on.
    Disconnect,
    /// Channel operations block forever; the process stays alive but sends
    /// no frames (detectable only via deadlines, not EOF).
    Hang,
    /// Every send after the trigger sleeps this many milliseconds first
    /// (a straggler, not a failure).
    SlowFrames(u64),
    /// The next frame after the trigger is truncated mid-body; the channel
    /// then dies.
    TruncateFrame,
    /// The next frame after the trigger is replaced with non-protocol
    /// garbage; the channel then dies.
    CorruptFrame,
    /// The whole worker process exits with [`CRASH_EXIT_CODE`].
    CrashProcess,
    /// The session dies when an `Assign` containing this spec index
    /// arrives — once per session.
    CrashOnSpec(usize),
    /// The session dies *every time* an `Assign` containing this spec
    /// index arrives (the poison-spec scenario).
    PoisonSpec(usize),
}

/// One scheduled fault: where, when, what.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fault {
    /// Which pool slot this fault applies to (`None` = every slot). A
    /// stdio worker learns its slot from `QISMET_CLUSTER_WORKER_ID`.
    pub worker: Option<usize>,
    /// The fault arms once the session has sent this many `Done` frames.
    pub after_dones: usize,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic, serializable schedule of faults.
///
/// Plans travel as JSON (`campaign --chaos-plan <file>`) or derive from a
/// seed ([`FaultPlan::random`], `--chaos-seed`). The same plan against the
/// same campaign reproduces the same fault sequence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults, evaluated independently.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A seeded pseudo-random plan of 1–3 faults over `workers` slots and
    /// `specs` spec indices. Deterministic in `seed`; slow-frame delays are
    /// bounded (<= 50 ms) so chaos suites stay fast.
    pub fn random(seed: u64, workers: usize, specs: usize) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        let count = 1 + (rng.next() % 3) as usize;
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            // Mostly slot-addressed, so some slots stay healthy and the
            // campaign usually completes instead of erroring out.
            let worker = if workers > 0 && !rng.next().is_multiple_of(4) {
                Some((rng.next() % workers as u64) as usize)
            } else {
                None
            };
            let after_dones = 1 + (rng.next() % 3) as usize;
            let spec = |r: u64| (r % specs.max(1) as u64) as usize;
            let kind = match rng.next() % 8 {
                0 => FaultKind::Disconnect,
                1 => FaultKind::Hang,
                2 => FaultKind::SlowFrames(5 + rng.next() % 46),
                3 => FaultKind::TruncateFrame,
                4 => FaultKind::CorruptFrame,
                5 => FaultKind::CrashProcess,
                6 => FaultKind::CrashOnSpec(spec(rng.next())),
                _ => FaultKind::PoisonSpec(spec(rng.next())),
            };
            faults.push(Fault {
                worker,
                after_dones,
                kind,
            });
        }
        FaultPlan { faults }
    }

    /// Serializes the plan to its JSON file format.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("FaultPlan serializes infallibly")
    }

    /// Parses a plan from its JSON file format.
    ///
    /// # Errors
    ///
    /// A description of the parse failure.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid fault plan: {e}"))
    }
}

/// What a triggered garbling fault writes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Garble {
    Truncate,
    Corrupt,
}

/// A [`Transport`] wrapper that executes a [`FaultPlan`] against the
/// stream. Wraps the *worker side* of a session; the coordinator side
/// always runs the production transport.
pub struct FaultTransport {
    inner: Box<dyn Transport>,
    plan: FaultPlan,
    slot: Option<usize>,
    dones_sent: usize,
    fired: Vec<bool>,
    dead: bool,
    hung: bool,
    slow_millis: u64,
    garble: Option<Garble>,
}

impl FaultTransport {
    /// Wraps `inner`, executing `plan`. `slot` is the worker's pool slot
    /// (stdio workers read `QISMET_CLUSTER_WORKER_ID`); `None` means only
    /// faults addressed to every slot apply.
    pub fn new(inner: Box<dyn Transport>, plan: FaultPlan, slot: Option<usize>) -> Self {
        let fired = vec![false; plan.faults.len()];
        FaultTransport {
            inner,
            plan,
            slot,
            dones_sent: 0,
            fired,
            dead: false,
            hung: false,
            slow_millis: 0,
            garble: None,
        }
    }

    fn applies(&self, fault: &Fault) -> bool {
        match fault.worker {
            None => true,
            Some(slot) => self.slot == Some(slot),
        }
    }

    /// Fires every armed count-addressed fault. Called at each channel
    /// operation boundary so faults land deterministically between frames.
    fn check_triggers(&mut self) {
        for i in 0..self.plan.faults.len() {
            if self.fired[i] {
                continue;
            }
            let fault = self.plan.faults[i].clone();
            if !self.applies(&fault) || self.dones_sent < fault.after_dones {
                continue;
            }
            match fault.kind {
                FaultKind::Disconnect => self.dead = true,
                FaultKind::Hang => self.hung = true,
                FaultKind::SlowFrames(millis) => self.slow_millis = millis,
                FaultKind::TruncateFrame => self.garble = Some(Garble::Truncate),
                FaultKind::CorruptFrame => self.garble = Some(Garble::Corrupt),
                FaultKind::CrashProcess => {
                    qismet_telemetry::counter!("chaos.faults_fired").inc();
                    std::process::exit(CRASH_EXIT_CODE)
                }
                // Spec-addressed faults trigger on Assign contents, not here.
                FaultKind::CrashOnSpec(_) | FaultKind::PoisonSpec(_) => continue,
            }
            self.fired[i] = true;
            qismet_telemetry::counter!("chaos.faults_fired").inc();
            qismet_telemetry::event(
                "chaos_fault",
                format!("{:?} fired on slot {:?}", fault.kind, self.slot),
            );
        }
    }

    /// Enforces terminal states: a dead channel errors, a hung channel
    /// blocks until the process is killed.
    fn gate(&mut self) -> io::Result<()> {
        if self.hung {
            loop {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "chaos: connection dropped by fault plan",
            ));
        }
        Ok(())
    }

    /// The armed spec fault hit by this assignment, if any.
    fn spec_fault_hit(&self, indices: &[usize]) -> bool {
        for fault in &self.plan.faults {
            if !self.applies(fault) || self.dones_sent < fault.after_dones {
                continue;
            }
            // The session dies on the hit, so a once-per-session
            // `CrashOnSpec` and an every-time `PoisonSpec` fire alike here.
            if let FaultKind::CrashOnSpec(spec) | FaultKind::PoisonSpec(spec) = fault.kind {
                if indices.contains(&spec) {
                    qismet_telemetry::counter!("chaos.faults_fired").inc();
                    qismet_telemetry::event(
                        "chaos_fault",
                        format!("{:?} fired on slot {:?}", fault.kind, self.slot),
                    );
                    return true;
                }
            }
        }
        false
    }
}

impl std::fmt::Debug for FaultTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultTransport")
            .field("peer", &self.inner.peer())
            .field("slot", &self.slot)
            .field("dones_sent", &self.dones_sent)
            .field("dead", &self.dead)
            .finish_non_exhaustive()
    }
}

impl Transport for FaultTransport {
    fn send(&mut self, msg: &Message) -> io::Result<()> {
        self.check_triggers();
        self.gate()?;
        if let Some(garble) = self.garble.take() {
            let bytes: &[u8] = match garble {
                // A frame that claims 64 bytes but delivers 9: the peer's
                // read_exact hits EOF mid-body once we die.
                Garble::Truncate => b"64\n{\"Done\":{\"",
                // A header that is not a number at all.
                Garble::Corrupt => b"\xff\xfenot a frame\n\x00garbage\n",
            };
            let _ = self.inner.send_raw(bytes);
            self.dead = true;
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "chaos: frame garbled by fault plan",
            ));
        }
        if self.slow_millis > 0 {
            std::thread::sleep(Duration::from_millis(self.slow_millis));
        }
        self.inner.send(msg)?;
        if matches!(msg, Message::Done(_)) {
            self.dones_sent += 1;
        }
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Message> {
        self.check_triggers();
        self.gate()?;
        let msg = self.inner.recv()?;
        if let Message::Assign(assign) = &msg {
            if self.spec_fault_hit(&assign.indices) {
                self.dead = true;
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "chaos: session killed by spec fault",
                ));
            }
        }
        Ok(msg)
    }

    fn peer(&self) -> String {
        format!("chaos({})", self.inner.peer())
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.send_raw(bytes)
    }
}

/// SplitMix64: tiny, dependency-free PRNG for [`FaultPlan::random`]. Not
/// the campaign RNG — plans only need stable stream-from-seed behavior.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Assign, Done, Outcome};
    use serde::Value;
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// Records sends and replays scripted incoming messages; no real peer.
    /// State lives behind an `Arc` so tests can inspect it after handing
    /// the transport to a `FaultTransport`.
    #[derive(Debug, Default)]
    struct MockState {
        sent: Vec<Message>,
        raw: Vec<Vec<u8>>,
        incoming: VecDeque<Message>,
    }

    #[derive(Default)]
    struct MockTransport {
        state: Arc<Mutex<MockState>>,
    }

    impl MockTransport {
        fn scripted(incoming: &[Message]) -> (Box<Self>, Arc<Mutex<MockState>>) {
            let state = Arc::new(Mutex::new(MockState {
                incoming: incoming.iter().cloned().collect(),
                ..MockState::default()
            }));
            (
                Box::new(MockTransport {
                    state: Arc::clone(&state),
                }),
                state,
            )
        }
    }

    impl Transport for MockTransport {
        fn send(&mut self, msg: &Message) -> io::Result<()> {
            self.state.lock().unwrap().sent.push(msg.clone());
            Ok(())
        }

        fn recv(&mut self) -> io::Result<Message> {
            self.state
                .lock()
                .unwrap()
                .incoming
                .pop_front()
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::UnexpectedEof, "mock script exhausted")
                })
        }

        fn peer(&self) -> String {
            "mock".into()
        }

        fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.state.lock().unwrap().raw.push(bytes.to_vec());
            Ok(())
        }
    }

    fn done(index: usize) -> Message {
        Message::Done(Done {
            index,
            seed: index as u64,
            outcome: Outcome::Record(Value::U64(index as u64)),
            stats: None,
        })
    }

    fn assign(indices: &[usize]) -> Message {
        Message::Assign(Assign {
            indices: indices.to_vec(),
        })
    }

    fn plan(kind: FaultKind, worker: Option<usize>, after_dones: usize) -> FaultPlan {
        FaultPlan {
            faults: vec![Fault {
                worker,
                after_dones,
                kind,
            }],
        }
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan {
            faults: vec![
                Fault {
                    worker: Some(1),
                    after_dones: 2,
                    kind: FaultKind::SlowFrames(25),
                },
                Fault {
                    worker: None,
                    after_dones: 0,
                    kind: FaultKind::PoisonSpec(7),
                },
            ],
        };
        let text = plan.to_json();
        assert_eq!(FaultPlan::from_json(&text).unwrap(), plan);
        assert!(FaultPlan::from_json("{broken").is_err());
        // Plan files written while plans still carried a session cap
        // keep parsing: the stale key is ignored.
        let legacy = text.replacen('{', "{\"max_sessions\":null,", 1);
        assert_eq!(FaultPlan::from_json(&legacy).unwrap(), plan);
    }

    #[test]
    fn random_plans_are_deterministic_in_the_seed() {
        let a = FaultPlan::random(42, 3, 16);
        let b = FaultPlan::random(42, 3, 16);
        assert_eq!(a, b);
        assert!(!a.faults.is_empty() && a.faults.len() <= 3);
        // Different seeds diverge somewhere in a small window.
        assert!((0..32u64).any(|s| FaultPlan::random(s, 3, 16) != a));
    }

    #[test]
    fn disconnect_fires_after_the_scheduled_done_count() {
        let (mock, _state) = MockTransport::scripted(&[]);
        let mut t = FaultTransport::new(mock, plan(FaultKind::Disconnect, None, 2), Some(0));
        t.send(&done(0)).unwrap();
        t.send(&done(1)).unwrap();
        let err = t.send(&done(2)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        // Dead is terminal: recv fails too.
        assert_eq!(
            t.recv().unwrap_err().kind(),
            io::ErrorKind::ConnectionAborted
        );
    }

    #[test]
    fn slot_addressed_faults_skip_other_workers() {
        let (mock, _state) = MockTransport::scripted(&[]);
        let mut t = FaultTransport::new(mock, plan(FaultKind::Disconnect, Some(1), 0), Some(0));
        for i in 0..4 {
            t.send(&done(i)).unwrap();
        }
    }

    #[test]
    fn slow_frames_delay_but_do_not_fail() {
        let (mock, _state) = MockTransport::scripted(&[]);
        let mut t = FaultTransport::new(mock, plan(FaultKind::SlowFrames(1), None, 1), Some(0));
        for i in 0..3 {
            t.send(&done(i)).unwrap();
        }
    }

    #[test]
    fn garbling_faults_emit_raw_bytes_then_die() {
        for (kind, expect_prefix) in [
            (FaultKind::TruncateFrame, b"64\n".as_slice()),
            (FaultKind::CorruptFrame, b"\xff\xfe".as_slice()),
        ] {
            let (mock, state) = MockTransport::scripted(&[]);
            let mut t = FaultTransport::new(mock, plan(kind, None, 1), Some(0));
            t.send(&done(0)).unwrap();
            let err = t.send(&done(1)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
            let state = state.lock().unwrap();
            // The clean frame went through; the garbled one went out raw.
            assert_eq!(state.sent, vec![done(0)]);
            assert_eq!(state.raw.len(), 1);
            assert!(state.raw[0].starts_with(expect_prefix));
        }
    }

    #[test]
    fn poison_spec_kills_every_matching_assign() {
        for _session in 0..3 {
            let (mock, _state) = MockTransport::scripted(&[assign(&[3, 7])]);
            let mut t = FaultTransport::new(mock, plan(FaultKind::PoisonSpec(7), None, 0), Some(0));
            let err = t.recv().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        }
    }

    #[test]
    fn crash_on_spec_fires_once_per_session() {
        // Each session is a fresh worker process with fresh fault state,
        // so a respawned worker crashes on the spec again.
        for _session in 0..2 {
            let (mock, _state) = MockTransport::scripted(&[assign(&[7]), assign(&[7])]);
            let mut t =
                FaultTransport::new(mock, plan(FaultKind::CrashOnSpec(7), None, 0), Some(0));
            assert_eq!(t.recv().unwrap_err().kind(), io::ErrorKind::ConnectionReset);
            // The session is dead after the crash.
            assert_eq!(
                t.recv().unwrap_err().kind(),
                io::ErrorKind::ConnectionAborted
            );
        }
    }

    #[test]
    fn unrelated_assigns_pass_through_spec_faults() {
        let (mock, _state) = MockTransport::scripted(&[assign(&[0, 1])]);
        let mut t = FaultTransport::new(mock, plan(FaultKind::PoisonSpec(7), None, 0), Some(0));
        assert_eq!(t.recv().unwrap(), assign(&[0, 1]));
    }
}
