//! Scripted-worker tests for the hardened [`WorkerPool`].
//!
//! Each test drives the *real* coordinator — handshake, dispatch queue,
//! deadline handling, blame accounting — against in-memory mock transports
//! whose behavior is a deterministic per-session script. No processes, no
//! sockets: assign-deadline recovery, heartbeat keepalive, quarantine and
//! poison-spec isolation are all exercised at the `Connector`/`Transport`
//! seam the production paths use.

use qismet_cluster::{
    Assign, ClusterError, Connector, Done, Hello, Message, Outcome, Transport, WorkerPool,
};
use serde::Value;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const FP: u64 = 0x51c2_7a11_feed_f00d;

/// How long one test may run before its [`Watchdog`] ends the process.
/// Every test here finishes in a few seconds at most.
const WATCHDOG: Duration = Duration::from_secs(60);

/// The longest a helper below blocks when no caller set a deadline. A wait
/// this long is a hang: it ends in a `TimedOut` error and a stderr line
/// naming the wait, well before the watchdog fires.
const HELPER_WAIT: Duration = Duration::from_secs(20);

/// Writes straight to stderr. The test harness captures `eprintln!`, and
/// captured output is lost when the watchdog ends the process.
fn report(line: &str) {
    let _ = writeln!(io::stderr(), "pool_faults: {line}");
}

/// Ends the whole test process, naming the test, if the test is still
/// running after [`WATCHDOG`]. A hang then fails loudly and says which
/// test hung instead of stalling until an outer timeout kills the run.
struct Watchdog(Arc<(Mutex<bool>, Condvar)>);

impl Watchdog {
    fn arm(test: &'static str) -> Self {
        let finished = Arc::new((Mutex::new(false), Condvar::new()));
        let shared = Arc::clone(&finished);
        std::thread::spawn(move || {
            let (lock, condvar) = &*shared;
            let done = lock.lock().expect("watchdog poisoned");
            let (done, _) = condvar
                .wait_timeout_while(done, WATCHDOG, |done| !*done)
                .expect("watchdog poisoned");
            if !*done {
                report(&format!(
                    "test `{test}` still running after {WATCHDOG:?}; exiting"
                ));
                std::process::exit(101);
            }
        });
        Watchdog(finished)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let (lock, condvar) = &*self.0;
        *lock.lock().expect("watchdog poisoned") = true;
        condvar.notify_all();
    }
}

/// Arms a [`Watchdog`] named after the enclosing test function.
macro_rules! watchdog {
    () => {{
        fn here() {}
        let path = std::any::type_name_of_val(&here);
        Watchdog::arm(path.trim_end_matches("::here"))
    }};
}

/// The deterministic record a scripted worker produces for `index` — the
/// same pure-function-of-the-spec contract real workers honor.
fn record(index: usize) -> Value {
    Value::Object(vec![
        ("index".into(), Value::U64(index as u64)),
        ("energy".into(), Value::F64(-(index as f64) / 8.0)),
    ])
}

fn seed_of(index: usize) -> u64 {
    0x9e37_79b9 ^ (index as u64).wrapping_mul(0x1000_0001)
}

fn expected(n: usize) -> Vec<(usize, Value)> {
    (0..n).map(|i| (i, record(i))).collect()
}

/// One session's scripted behavior. A connector holds a queue of these;
/// the last script repeats for every further session.
#[derive(Clone)]
enum Script {
    /// Serve every assignment normally.
    Solid,
    /// Serve normally, but sleep this long before each result (slow).
    SlowSolid(Duration),
    /// Send this many heartbeat pings before each result (slow, alive).
    PingThenSolid(usize),
    /// Serve `n` results, then fail the channel on the next read.
    DieAfter(usize),
    /// Pull a batch, then never produce a result: every read for one
    /// times out, the way a transport deadline surfaces a hung peer.
    Hang,
    /// Reset the channel whenever this spec index is next in line.
    CrashOnSpec(usize),
    /// Fail the connect itself (worker unreachable).
    ConnectFail,
    /// Answer an assignment with a result for a spec that was never
    /// assigned (protocol violation).
    Rogue,
}

/// Counters shared across every scripted session of one pool run.
#[derive(Default)]
struct PoolLog {
    /// `Pong` frames the coordinator sent back to scripted pings.
    pongs: AtomicUsize,
}

struct ScriptedTransport {
    script: Script,
    threads: usize,
    log: Arc<PoolLog>,
    /// Coordinator `Hello` received and not yet answered.
    greeted: bool,
    hello: Option<Hello>,
    pending: VecDeque<usize>,
    served: usize,
    pings_left: usize,
    deadline: Option<Duration>,
}

impl Transport for ScriptedTransport {
    fn send(&mut self, msg: &Message) -> io::Result<()> {
        match msg {
            Message::Hello(h) => {
                self.hello = Some(h.clone());
                self.greeted = true;
            }
            Message::Assign(Assign { indices }) => self.pending.extend(indices.iter().copied()),
            Message::Pong => {
                self.log.pongs.fetch_add(1, Ordering::SeqCst);
            }
            _ => {}
        }
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Message> {
        if self.greeted {
            self.greeted = false;
            let theirs = self.hello.as_ref().expect("coordinator hello stored");
            return Ok(Message::Hello(Hello {
                worker_id: theirs.worker_id,
                fingerprint: theirs.fingerprint,
                spec_count: theirs.spec_count,
                token: theirs.token.clone(),
                threads: self.threads,
                build: theirs.build.clone(),
            }));
        }
        let Some(&next) = self.pending.front() else {
            // An idle worker pulls its next batch.
            return Ok(Message::Ready);
        };
        if matches!(self.script, Script::Hang) {
            assert!(
                self.deadline.is_some(),
                "a hung mock without an assign deadline would block the pool forever"
            );
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "scripted hang: read deadline expired",
            ));
        }
        match self.script {
            Script::DieAfter(n) if self.served >= n => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "scripted channel death",
                ));
            }
            Script::CrashOnSpec(bad) if next == bad => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    format!("scripted crash on spec {bad}"),
                ));
            }
            Script::SlowSolid(pause) => std::thread::sleep(pause),
            Script::PingThenSolid(n) => {
                if self.pings_left > 0 {
                    self.pings_left -= 1;
                    return Ok(Message::Ping);
                }
                self.pings_left = n;
            }
            Script::Rogue => {
                return Ok(Message::Done(Done {
                    index: next + 999,
                    seed: 0,
                    outcome: Outcome::Record(record(next + 999)),
                    stats: None,
                }));
            }
            _ => {}
        }
        self.pending.pop_front();
        self.served += 1;
        Ok(Message::Done(Done {
            index: next,
            seed: seed_of(next),
            outcome: Outcome::Record(record(next)),
            stats: None,
        }))
    }

    fn peer(&self) -> String {
        "scripted".into()
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.deadline = timeout;
        Ok(())
    }
}

struct ScriptedConnector {
    scripts: Mutex<VecDeque<Script>>,
    threads: usize,
    log: Arc<PoolLog>,
}

impl ScriptedConnector {
    fn slot(scripts: &[Script], threads: usize, log: &Arc<PoolLog>) -> Box<dyn Connector> {
        assert!(!scripts.is_empty(), "a slot needs at least one script");
        Box::new(ScriptedConnector {
            scripts: Mutex::new(scripts.iter().cloned().collect()),
            threads,
            log: Arc::clone(log),
        })
    }
}

impl Connector for ScriptedConnector {
    fn connect(&self, _worker: usize) -> io::Result<Box<dyn Transport>> {
        let script = {
            let mut scripts = self.scripts.lock().expect("script queue poisoned");
            if scripts.len() > 1 {
                scripts.pop_front().expect("non-empty script queue")
            } else {
                scripts.front().expect("non-empty script queue").clone()
            }
        };
        if matches!(script, Script::ConnectFail) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "scripted connect failure",
            ));
        }
        let pings_left = match script {
            Script::PingThenSolid(n) => n,
            _ => 0,
        };
        Ok(Box::new(ScriptedTransport {
            script,
            threads: self.threads,
            log: Arc::clone(&self.log),
            greeted: false,
            hello: None,
            pending: VecDeque::new(),
            served: 0,
            pings_left,
            deadline: None,
        }))
    }

    fn describe(&self) -> String {
        "scripted worker".into()
    }
}

/// Runs a pool over `n` specs, collecting sink entries as (index, seed).
fn run_pool(
    pool: &WorkerPool,
    n: usize,
) -> (
    Result<qismet_cluster::ClusterOutcome, ClusterError>,
    Vec<(usize, u64)>,
) {
    let pending: Vec<usize> = (0..n).collect();
    let sunk = Mutex::new(Vec::new());
    let result = pool.run(FP, n, &pending, |entry| {
        sunk.lock()
            .expect("sink log poisoned")
            .push((entry.index, entry.seed));
        Ok(())
    });
    let sunk = sunk.into_inner().expect("sink log poisoned");
    (result, sunk)
}

#[test]
fn hung_session_hits_the_deadline_and_the_respawn_completes_the_work() {
    let _watchdog = watchdog!();
    let log = Arc::new(PoolLog::default());
    let pool = WorkerPool::new(vec![ScriptedConnector::slot(
        &[Script::Hang, Script::Solid],
        2,
        &log,
    )])
    .with_assign_timeout(Some(Duration::from_millis(50)));
    let (result, _) = run_pool(&pool, 4);
    let outcome = result.expect("the respawned session must finish the campaign");
    assert_eq!(outcome.records, expected(4));
    assert_eq!(outcome.respawns, 1, "exactly one deadline-driven respawn");
    assert_eq!(outcome.lost_workers, 0);
}

#[test]
fn heartbeats_are_answered_and_keep_a_slow_session_alive() {
    let _watchdog = watchdog!();
    let log = Arc::new(PoolLog::default());
    let pool = WorkerPool::new(vec![ScriptedConnector::slot(
        &[Script::PingThenSolid(2)],
        1,
        &log,
    )])
    .with_assign_timeout(Some(Duration::from_millis(50)));
    let (result, _) = run_pool(&pool, 3);
    let outcome = result.expect("a pinging worker must never be torn down");
    assert_eq!(outcome.records, expected(3));
    assert_eq!(outcome.respawns, 0, "heartbeats must not count as losses");
    // Two pings per result, each answered with a coordinator Pong.
    assert_eq!(log.pongs.load(Ordering::SeqCst), 6);
}

#[test]
fn respawn_budget_exhaustion_loses_the_worker_with_a_typed_error() {
    let _watchdog = watchdog!();
    let log = Arc::new(PoolLog::default());
    let pool = WorkerPool::new(vec![ScriptedConnector::slot(
        &[Script::DieAfter(0)],
        2,
        &log,
    )])
    .with_max_respawns(1);
    let (result, sunk) = run_pool(&pool, 4);
    match result.expect_err("a worker dying before any result must be lost") {
        ClusterError::WorkerLost {
            worker, respawns, ..
        } => {
            assert_eq!(worker, 0);
            assert_eq!(respawns, 1);
        }
        other => panic!("expected WorkerLost, got {other}"),
    }
    assert!(sunk.is_empty(), "no result ever flowed");
}

#[test]
fn unreachable_worker_consumes_the_budget_like_a_channel_loss() {
    let _watchdog = watchdog!();
    let log = Arc::new(PoolLog::default());
    let pool = WorkerPool::new(vec![ScriptedConnector::slot(
        &[Script::ConnectFail],
        2,
        &log,
    )])
    .with_max_respawns(0);
    let (result, _) = run_pool(&pool, 2);
    assert!(
        matches!(
            result.expect_err("an unreachable worker must surface as lost"),
            ClusterError::WorkerLost { worker: 0, .. }
        ),
        "connect failures share the worker-lost path"
    );
}

#[test]
fn lost_slot_work_is_redispatched_to_the_surviving_worker() {
    let _watchdog = watchdog!();
    let log = Arc::new(PoolLog::default());
    // Slot 0 dies before every first result and exhausts one respawn; its
    // batches land back in the queue for the slow-but-solid survivor.
    let pool = WorkerPool::new(vec![
        ScriptedConnector::slot(&[Script::DieAfter(0)], 1, &log),
        ScriptedConnector::slot(&[Script::SlowSolid(Duration::from_millis(40))], 1, &log),
    ])
    .with_max_respawns(1);
    let (result, _) = run_pool(&pool, 8);
    let outcome = result.expect("the survivor must absorb the lost slot's work");
    assert_eq!(outcome.records, expected(8));
    assert_eq!(outcome.lost_workers, 1);
    assert_eq!(outcome.quarantined_workers, 0);
}

#[test]
fn lifetime_strikes_quarantine_a_flaky_worker() {
    let _watchdog = watchdog!();
    let log = Arc::new(PoolLog::default());
    // Each session is productive (one result), so the consecutive-failure
    // respawn budget refills forever — only the lifetime strike counter
    // catches a worker limping like this.
    let pool = WorkerPool::new(vec![ScriptedConnector::slot(
        &[Script::DieAfter(1)],
        1,
        &log,
    )])
    .with_max_respawns(10)
    .with_quarantine_after(Some(2));
    let (result, sunk) = run_pool(&pool, 6);
    match result.expect_err("the only worker got quarantined mid-campaign") {
        ClusterError::WorkerQuarantined {
            worker, strikes, ..
        } => {
            assert_eq!(worker, 0);
            assert_eq!(strikes, 2);
        }
        other => panic!("expected WorkerQuarantined, got {other}"),
    }
    assert_eq!(sunk.len(), 2, "one result per session reached the sink");
}

#[test]
fn quarantined_slot_work_is_redispatched_to_the_surviving_worker() {
    let _watchdog = watchdog!();
    let log = Arc::new(PoolLog::default());
    let pool = WorkerPool::new(vec![
        ScriptedConnector::slot(&[Script::DieAfter(1)], 1, &log),
        ScriptedConnector::slot(&[Script::SlowSolid(Duration::from_millis(40))], 1, &log),
    ])
    .with_max_respawns(10)
    .with_quarantine_after(Some(2));
    let (result, _) = run_pool(&pool, 8);
    let outcome = result.expect("the survivor must absorb the quarantined slot's work");
    assert_eq!(outcome.records, expected(8));
    assert_eq!(outcome.quarantined_workers, 1);
    assert_eq!(outcome.lost_workers, 0);
}

#[test]
fn a_spec_that_keeps_killing_workers_is_poisoned_and_reported() {
    let _watchdog = watchdog!();
    let log = Arc::new(PoolLog::default());
    // Every session of the only worker dies the moment spec 2 is next in
    // line. Blamed crashes do not charge the respawn budget, so the default
    // budget of 2 survives the repeated re-dispatch; after two precise
    // strikes the spec is isolated and everything else completes.
    let pool = WorkerPool::new(vec![ScriptedConnector::slot(
        &[Script::CrashOnSpec(2)],
        4,
        &log,
    )]);
    let (result, mut sunk) = run_pool(&pool, 4);
    match result.expect_err("spec 2 must be poisoned") {
        ClusterError::PoisonedSpecs { indices, completed } => {
            assert_eq!(indices, vec![2]);
            assert_eq!(completed, 3);
        }
        other => panic!("expected PoisonedSpecs, got {other}"),
    }
    sunk.sort_unstable();
    let survivors: Vec<usize> = sunk.iter().map(|&(index, _)| index).collect();
    assert_eq!(
        survivors,
        vec![0, 1, 3],
        "every non-poisoned spec must reach the durable sink"
    );
    assert!(sunk.iter().all(|&(index, seed)| seed == seed_of(index)));
}

#[test]
fn rogue_results_for_unassigned_specs_are_a_fatal_protocol_error() {
    let _watchdog = watchdog!();
    let log = Arc::new(PoolLog::default());
    let pool = WorkerPool::new(vec![ScriptedConnector::slot(&[Script::Rogue], 2, &log)]);
    let (result, _) = run_pool(&pool, 2);
    assert!(
        matches!(
            result.expect_err("an unassigned result must not be merged"),
            ClusterError::Protocol { worker: 0, .. }
        ),
        "rogue results are protocol violations, not channel losses"
    );
}

// ===========================================================================
// Campaign-service tests: the same scripted-worker idea pointed at the
// dynamic registry and service daemon instead of the one-shot pool. Workers
// here *register* over in-memory duplex channels, join late, leave
// voluntarily, or crash to accrue name-keyed strikes — and every settled
// job's finalize payload must equal the sequential reference, whatever the
// fleet did.
// ===========================================================================

use qismet_cluster::daemon::{serve, JobPlan, JobPlanner, ServiceConfig};
use qismet_cluster::protocol::{Cancel, JobReady, Register, Submit};
use qismet_cluster::queue::JobSpec;
use qismet_cluster::{BuildStamp, DrainOk, Fingerprint, Listener, ServiceErrKind, StatusReply};
use std::sync::mpsc;
use std::time::Instant;

/// In-memory bidirectional channel: two [`Transport`] ends over shared
/// message queues. Dropping one end surfaces as a channel loss on the
/// other — exactly how the daemon experiences a crashed worker.
struct DuplexState {
    /// Inbound queue per side.
    queues: [VecDeque<Message>; 2],
    closed: [bool; 2],
}

struct DuplexEnd {
    state: Arc<(Mutex<DuplexState>, std::sync::Condvar)>,
    side: usize,
    timeout: Option<Duration>,
}

impl std::fmt::Debug for DuplexEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DuplexEnd")
            .field("side", &self.side)
            .finish()
    }
}

fn duplex() -> (DuplexEnd, DuplexEnd) {
    let state = Arc::new((
        Mutex::new(DuplexState {
            queues: [VecDeque::new(), VecDeque::new()],
            closed: [false, false],
        }),
        std::sync::Condvar::new(),
    ));
    (
        DuplexEnd {
            state: Arc::clone(&state),
            side: 0,
            timeout: None,
        },
        DuplexEnd {
            state,
            side: 1,
            timeout: None,
        },
    )
}

impl Transport for DuplexEnd {
    fn send(&mut self, msg: &Message) -> io::Result<()> {
        let (lock, condvar) = &*self.state;
        let mut state = lock.lock().expect("duplex poisoned");
        if state.closed[1 - self.side] {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"));
        }
        state.queues[1 - self.side].push_back(msg.clone());
        condvar.notify_all();
        Ok(())
    }

    /// Waits for the next message until the read timeout, or for
    /// [`HELPER_WAIT`] when none is set.
    fn recv(&mut self) -> io::Result<Message> {
        let (lock, condvar) = &*self.state;
        let mut state = lock.lock().expect("duplex poisoned");
        let deadline = Instant::now() + self.timeout.unwrap_or(HELPER_WAIT);
        loop {
            if let Some(msg) = state.queues[self.side].pop_front() {
                return Ok(msg);
            }
            if state.closed[1 - self.side] {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let now = Instant::now();
            if now >= deadline {
                if self.timeout.is_some() {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "duplex read deadline expired",
                    ));
                }
                let line = format!(
                    "duplex side {} read nothing for {HELPER_WAIT:?} with no deadline set",
                    self.side
                );
                report(&line);
                return Err(io::Error::new(io::ErrorKind::TimedOut, line));
            }
            state = condvar
                .wait_timeout(state, deadline - now)
                .expect("duplex poisoned")
                .0;
        }
    }

    fn peer(&self) -> String {
        "duplex".into()
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.timeout = timeout;
        Ok(())
    }
}

impl Drop for DuplexEnd {
    fn drop(&mut self) {
        let (lock, condvar) = &*self.state;
        lock.lock().expect("duplex poisoned").closed[self.side] = true;
        condvar.notify_all();
    }
}

/// A [`Listener`] fed by a channel of pre-built transports. Accept fails
/// once the feeding side closes — which the daemon treats as a clean end
/// while stopping, an I/O error under a live service.
struct ChannelListener {
    rx: mpsc::Receiver<Box<dyn Transport>>,
}

impl Listener for ChannelListener {
    fn accept(&mut self) -> io::Result<Box<dyn Transport>> {
        self.rx.recv_timeout(HELPER_WAIT).map_err(|e| match e {
            mpsc::RecvTimeoutError::Timeout => {
                let line = format!("daemon accepted no connection for {HELPER_WAIT:?}");
                report(&line);
                io::Error::new(io::ErrorKind::TimedOut, line)
            }
            mpsc::RecvTimeoutError::Disconnected => {
                // DrainOk is written before the daemon flips its stopping
                // flag, so a test may close the feeder inside that window.
                // Give stop() a beat to land so the disconnect reads as a
                // clean shutdown.
                std::thread::sleep(Duration::from_millis(200));
                io::Error::new(io::ErrorKind::BrokenPipe, "connection feeder closed")
            }
        })
    }

    fn local_addr(&self) -> io::Result<String> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "in-memory"))
    }
}

/// Toy campaign semantics: a payload `label:count` expands to `count`
/// specs with the shared scripted seeds/records, and finalize renders the
/// full record set into a deterministic string — the byte-identity probe.
#[derive(Default)]
struct ToyPlanner {
    finals: Mutex<Vec<(u64, String)>>,
}

fn toy_count(payload: &str) -> Result<usize, String> {
    payload
        .rsplit(':')
        .next()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("payload `{payload}` is not label:count"))
}

fn toy_fingerprint(payload: &str) -> u64 {
    let mut fp = Fingerprint::new();
    fp.update_str(payload);
    fp.finish()
}

/// The detail string a job's finalize renders — computable directly from
/// the payload, which is what makes it a sequential reference.
fn reference_detail(payload: &str) -> String {
    let count = toy_count(payload).expect("reference payload expands");
    let mut out = format!("{payload}=>");
    for index in 0..count {
        out.push_str(&format!("{index}:{:?};", record(index)));
    }
    out
}

impl JobPlanner for ToyPlanner {
    fn open(&self, payload: &str) -> Result<JobPlan, String> {
        let count = toy_count(payload)?;
        Ok(JobPlan {
            fingerprint: toy_fingerprint(payload),
            spec_count: count,
            seeds: (0..count).map(seed_of).collect(),
        })
    }

    fn finalize(&self, spec: &JobSpec, records: Vec<(usize, Value)>) -> Result<String, String> {
        let mut out = format!("{}=>", spec.payload);
        for (index, value) in &records {
            out.push_str(&format!("{index}:{value:?};"));
        }
        self.finals
            .lock()
            .expect("finals poisoned")
            .push((spec.id, out.clone()));
        Ok(out)
    }
}

/// A running in-memory service daemon plus the feeder used to connect
/// scripted workers and clients to it.
struct ServiceHarness {
    tx: mpsc::Sender<Box<dyn Transport>>,
    handle: std::thread::JoinHandle<Result<qismet_cluster::ServiceSummary, ClusterError>>,
    planner: &'static ToyPlanner,
}

impl ServiceHarness {
    fn start(config: ServiceConfig) -> Self {
        let (tx, rx) = mpsc::channel();
        // Tests leak one planner each so `serve` can borrow it across the
        // daemon thread; the finals log stays inspectable afterwards.
        let planner: &'static ToyPlanner = Box::leak(Box::new(ToyPlanner::default()));
        let handle =
            std::thread::spawn(move || serve(Box::new(ChannelListener { rx }), planner, &config));
        ServiceHarness {
            tx,
            handle,
            planner,
        }
    }

    /// Opens a fresh connection to the daemon.
    fn connect(&self) -> DuplexEnd {
        let (ours, theirs) = duplex();
        self.tx
            .send(Box::new(theirs))
            .expect("daemon accept loop alive");
        ours
    }

    /// Closes the feeder and collects the daemon's summary.
    fn finish(self) -> qismet_cluster::ServiceSummary {
        drop(self.tx);
        self.handle
            .join()
            .expect("daemon thread panicked")
            .expect("daemon must drain cleanly")
    }

    fn finals(&self) -> Vec<(u64, String)> {
        self.planner.finals.lock().expect("finals poisoned").clone()
    }
}

fn service_config() -> ServiceConfig {
    let mut config = ServiceConfig::new("fleet");
    config.tenants = vec![
        ("alice".to_string(), "a-token".to_string()),
        ("bob".to_string(), "b-token".to_string()),
    ];
    config
}

/// How a scripted *service* worker behaves across its registered session.
#[derive(Clone, Copy)]
enum FleetScript {
    /// Serve batches until the daemon says `Shutdown`.
    Serve,
    /// Voluntarily deregister after this many completed batches.
    DeregisterAfter(usize),
    /// Drop the channel (mid-batch) after this many results.
    DieAfterResults(usize),
}

/// Registers at the daemon and follows the script. Returns the batches
/// served, or the typed refusal the registration got.
fn fleet_worker(
    harness: &ServiceHarness,
    name: &str,
    token: &str,
    threads: usize,
    script: FleetScript,
) -> std::thread::JoinHandle<Result<usize, (ServiceErrKind, String)>> {
    let mut transport = harness.connect();
    let name = name.to_string();
    let token = token.to_string();
    std::thread::spawn(move || {
        transport
            .send(&Message::Register(Register {
                name,
                token,
                threads,
                build: BuildStamp::local(false),
            }))
            .expect("registration frame sends");
        match transport.recv().expect("registration reply arrives") {
            Message::RegisterAck(_) => {}
            Message::ServiceErr(err) => return Err((err.kind, err.detail)),
            other => panic!("expected RegisterAck, got {other:?}"),
        }
        let mut batches = 0usize;
        let mut results = 0usize;
        loop {
            if matches!(script, FleetScript::DeregisterAfter(limit) if batches >= limit) {
                transport
                    .send(&Message::Deregister)
                    .expect("deregister sends");
                let _ = transport.recv();
                return Ok(batches);
            }
            if transport.send(&Message::Ready).is_err() {
                return Ok(batches);
            }
            let assign = match transport.recv().expect("daemon stays responsive") {
                Message::Shutdown => return Ok(batches),
                Message::JobOpen(open) => {
                    // Honest re-expansion: fingerprint derived from the
                    // payload, exactly like the real worker.
                    let count = toy_count(&open.payload).expect("toy payload expands");
                    transport
                        .send(&Message::JobReady(JobReady {
                            job_id: open.job_id,
                            fingerprint: toy_fingerprint(&open.payload),
                            spec_count: count,
                        }))
                        .expect("job-ready sends");
                    match transport.recv().expect("assignment follows job-ready") {
                        Message::Assign(assign) => assign,
                        Message::Shutdown => return Ok(batches),
                        other => panic!("expected Assign, got {other:?}"),
                    }
                }
                Message::Assign(assign) => assign,
                other => panic!("expected JobOpen/Assign/Shutdown, got {other:?}"),
            };
            for index in assign.indices {
                if matches!(script, FleetScript::DieAfterResults(limit) if results >= limit) {
                    // Dropping the transport mid-batch is the crash.
                    return Ok(batches);
                }
                transport
                    .send(&Message::Done(Done {
                        index,
                        seed: seed_of(index),
                        outcome: Outcome::Record(record(index)),
                        stats: None,
                    }))
                    .expect("result frame sends");
                results += 1;
            }
            batches += 1;
        }
    })
}

/// Opens an authenticated client session (one command per connection).
fn client_session(
    harness: &ServiceHarness,
    token: &str,
) -> Result<DuplexEnd, (ServiceErrKind, String)> {
    let mut transport = harness.connect();
    transport
        .send(&Message::Hello(Hello {
            worker_id: 0,
            fingerprint: 0,
            spec_count: 0,
            token: token.to_string(),
            threads: 0,
            build: BuildStamp::local(false),
        }))
        .expect("client hello sends");
    match transport.recv().expect("handshake reply arrives") {
        Message::Hello(_) => Ok(transport),
        Message::ServiceErr(err) => Err((err.kind, err.detail)),
        other => panic!("expected Hello or ServiceErr, got {other:?}"),
    }
}

fn submit(
    harness: &ServiceHarness,
    token: &str,
    name: &str,
    payload: &str,
) -> Result<u64, (ServiceErrKind, String)> {
    let mut transport = client_session(harness, token)?;
    transport
        .send(&Message::Submit(Submit {
            name: name.to_string(),
            payload: payload.to_string(),
        }))
        .expect("submit sends");
    match transport.recv().expect("submit reply arrives") {
        Message::Submitted(submitted) => Ok(submitted.job_id),
        Message::ServiceErr(err) => Err((err.kind, err.detail)),
        other => panic!("expected Submitted, got {other:?}"),
    }
}

fn status(harness: &ServiceHarness, token: &str) -> StatusReply {
    let mut transport = client_session(harness, token).expect("status handshake accepted");
    transport.send(&Message::Status).expect("status sends");
    match transport.recv().expect("status reply arrives") {
        Message::StatusReply(reply) => reply,
        other => panic!("expected StatusReply, got {other:?}"),
    }
}

fn cancel(
    harness: &ServiceHarness,
    token: &str,
    job_id: u64,
) -> Result<u64, (ServiceErrKind, String)> {
    let mut transport = client_session(harness, token)?;
    transport
        .send(&Message::Cancel(Cancel { job_id }))
        .expect("cancel sends");
    match transport.recv().expect("cancel reply arrives") {
        Message::CancelOk(id) => Ok(id),
        Message::ServiceErr(err) => Err((err.kind, err.detail)),
        other => panic!("expected CancelOk, got {other:?}"),
    }
}

fn drain(harness: &ServiceHarness, token: &str) -> DrainOk {
    let mut transport = client_session(harness, token).expect("drain handshake accepted");
    transport.set_read_timeout(None).expect("clear deadline");
    transport.send(&Message::Drain).expect("drain sends");
    match transport.recv().expect("drain reply arrives") {
        Message::DrainOk(ok) => ok,
        other => panic!("expected DrainOk, got {other:?}"),
    }
}

fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn elastic_fleet_serves_two_tenants_and_settles_reference_identical_reports() {
    let _watchdog = watchdog!();
    let harness = ServiceHarness::start(service_config());
    let job_a = submit(&harness, "a-token", "alpha", "alpha:12").expect("alice submits");
    let job_b = submit(&harness, "b-token", "beta", "beta:9").expect("bob submits");
    // Tenant isolation in status: alice sees only her job, fleet sees both.
    let alice_view = status(&harness, "a-token");
    assert_eq!(alice_view.jobs.len(), 1);
    assert_eq!(alice_view.jobs[0].job_id, job_a);
    assert_eq!(alice_view.jobs[0].tenant, "alice");
    assert_eq!(status(&harness, "fleet").jobs.len(), 2);
    // Elastic fleet: a worker that serves two batches alone and leaves,
    // then a steady worker and a late joiner that finish both jobs. The
    // transient worker leaves before the others register, so its two
    // batches (4 of the 21 specs) cannot be taken from it.
    let transient = fleet_worker(
        &harness,
        "transient",
        "fleet",
        2,
        FleetScript::DeregisterAfter(2),
    );
    assert_eq!(
        transient.join().expect("transient exits").expect("served"),
        2
    );
    let midway = status(&harness, "fleet");
    assert_eq!(midway.jobs.len(), 2);
    for job in &midway.jobs {
        assert!(
            job.done < job.total && job.phase != "completed",
            "job {} settled before the rest of the fleet joined: {job:?}",
            job.job_id
        );
    }
    let steady = fleet_worker(&harness, "steady", "fleet", 2, FleetScript::Serve);
    let late = fleet_worker(&harness, "late", "fleet", 3, FleetScript::Serve);
    let drained = drain(&harness, "fleet");
    assert_eq!(drained.jobs_completed, 2);
    assert_eq!(drained.jobs_failed, 0);
    steady.join().expect("steady exits").expect("served");
    late.join().expect("late exits").expect("served");
    let finals = harness.finals();
    let summary = harness.finish();
    assert_eq!(summary.jobs_completed, 2);
    assert_eq!(summary.jobs_failed, 0);
    // Byte-identity: each job's finalize payload equals the sequential
    // reference of its own campaign, however the three workers interleaved.
    assert_eq!(finals.len(), 2);
    let by_id: std::collections::BTreeMap<u64, String> = finals.into_iter().collect();
    assert_eq!(by_id[&job_a], reference_detail("alpha:12"));
    assert_eq!(by_id[&job_b], reference_detail("beta:9"));
}

#[test]
fn voluntary_deregister_takes_no_strike_and_the_name_can_rejoin() {
    let _watchdog = watchdog!();
    // Quarantine after a single strike: if a voluntary leave were blamed,
    // the rejoin below would be refused.
    let mut config = service_config();
    config.quarantine_after = Some(1);
    let harness = ServiceHarness::start(config);
    let job = submit(&harness, "a-token", "gamma", "gamma:6").expect("submit accepted");
    let polite = fleet_worker(
        &harness,
        "polite",
        "fleet",
        1,
        FleetScript::DeregisterAfter(1),
    );
    assert_eq!(polite.join().expect("exits").expect("one batch"), 1);
    // Same name registers again — no strike accrued, so it must be let in —
    // and finishes the job alongside nobody else.
    let rejoined = fleet_worker(&harness, "polite", "fleet", 2, FleetScript::Serve);
    let drained = drain(&harness, "fleet");
    assert_eq!(drained.jobs_completed, 1);
    rejoined
        .join()
        .expect("exits")
        .expect("accepted and served");
    let strikes: usize = status_strikes(&harness);
    assert_eq!(strikes, 0, "voluntary deregistration must not be blamed");
    let finals = harness.finals();
    assert_eq!(finals, vec![(job, reference_detail("gamma:6"))]);
    harness.finish();
}

/// Total strikes across the fleet, per the status API.
fn status_strikes(harness: &ServiceHarness) -> usize {
    status(harness, "fleet")
        .workers
        .iter()
        .map(|w| w.strikes)
        .sum()
}

#[test]
fn strikes_follow_the_name_and_a_quarantined_name_is_refused() {
    let _watchdog = watchdog!();
    let mut config = service_config();
    config.quarantine_after = Some(2);
    let harness = ServiceHarness::start(config);
    let job = submit(&harness, "b-token", "delta", "delta:8").expect("submit accepted");
    // Two crashy sessions under the same name: one strike each.
    for strikes in 1..=2usize {
        let flaky = fleet_worker(
            &harness,
            "flaky",
            "fleet",
            2,
            FleetScript::DieAfterResults(1),
        );
        flaky.join().expect("exits").expect("registered");
        wait_until(
            || status_strikes(&harness) >= strikes,
            "the crash to be blamed on the name",
        );
    }
    // The name is now quarantined: a third session is refused with a typed
    // error even though every slot it held is long gone.
    let refused = fleet_worker(&harness, "flaky", "fleet", 2, FleetScript::Serve)
        .join()
        .expect("exits")
        .expect_err("quarantined name must be refused");
    assert_eq!(refused.0, ServiceErrKind::Quarantined);
    // A fresh name starts clean and completes the job — including the work
    // the crashy sessions dropped mid-batch.
    let fresh = fleet_worker(&harness, "fresh", "fleet", 2, FleetScript::Serve);
    let drained = drain(&harness, "fleet");
    assert_eq!(drained.jobs_completed, 1);
    fresh.join().expect("exits").expect("served");
    let finals = harness.finals();
    assert_eq!(finals, vec![(job, reference_detail("delta:8"))]);
    harness.finish();
}

#[test]
fn service_errors_are_typed() {
    let _watchdog = watchdog!();
    let harness = ServiceHarness::start(service_config());
    // Registration under a wrong fleet token.
    let bad_register = fleet_worker(&harness, "w", "wrong", 1, FleetScript::Serve)
        .join()
        .expect("exits")
        .expect_err("wrong fleet token must be refused");
    assert_eq!(bad_register.0, ServiceErrKind::BadToken);
    // Client handshake under an unknown token.
    let bad_client = client_session(&harness, "nope").expect_err("unknown token refused");
    assert_eq!(bad_client.0, ServiceErrKind::BadToken);
    // Unparseable submission payload.
    let bad_payload =
        submit(&harness, "a-token", "x", "not-a-count").expect_err("bad payload refused");
    assert_eq!(bad_payload.0, ServiceErrKind::BadPayload);
    // Duplicate fingerprint while the first job is still live.
    let job = submit(&harness, "a-token", "x", "epsilon:5").expect("first submit accepted");
    let duplicate = submit(&harness, "b-token", "x2", "epsilon:5")
        .expect_err("same campaign cannot be queued twice");
    assert_eq!(duplicate.0, ServiceErrKind::DuplicateFingerprint);
    // Cancel: unknown id, foreign tenant (indistinguishable from unknown),
    // then the owner really cancels.
    assert_eq!(
        cancel(&harness, "a-token", 999).expect_err("unknown job").0,
        ServiceErrKind::UnknownJob
    );
    assert_eq!(
        cancel(&harness, "b-token", job)
            .expect_err("foreign job hidden")
            .0,
        ServiceErrKind::UnknownJob
    );
    cancel(&harness, "a-token", job).expect("owner cancels");
    // A settled job cannot be cancelled again.
    assert_eq!(
        cancel(&harness, "a-token", job)
            .expect_err("already settled")
            .0,
        ServiceErrKind::UnknownJob
    );
    let drained = drain(&harness, "fleet");
    assert_eq!(drained.jobs_completed, 0);
    assert_eq!(drained.jobs_failed, 1, "the cancelled job counts as failed");
    harness.finish();
}

#[test]
fn nonsense_pool_configuration_is_rejected_before_any_session() {
    let _watchdog = watchdog!();
    let log = Arc::new(PoolLog::default());
    let cases: [Box<dyn Fn(WorkerPool) -> WorkerPool>; 2] = [
        Box::new(|p| p.with_assign_timeout(Some(Duration::ZERO))),
        Box::new(|p| p.with_quarantine_after(Some(0))),
    ];
    for misconfigure in cases {
        let pool = misconfigure(WorkerPool::new(vec![ScriptedConnector::slot(
            &[Script::Solid],
            1,
            &log,
        )]));
        let (result, sunk) = run_pool(&pool, 2);
        assert!(
            matches!(
                result.expect_err("zero durations/thresholds are nonsense"),
                ClusterError::Config(_)
            ),
            "misconfiguration must surface as ClusterError::Config"
        );
        assert!(sunk.is_empty(), "validation must run before any dispatch");
    }
}
