//! Integration tests for the transport-abstracted remote-worker subsystem:
//! a campaign fanned across TCP loopback workers (threaded or not, mixed
//! with local process workers or not) must produce reports byte-identical
//! to a sequential in-process run; token and fingerprint mismatches must be
//! rejected with typed errors; and a worker that disconnects mid-campaign
//! and never comes back must have its unfinished work re-dispatched to the
//! surviving workers without changing a single bit.
//!
//! Remote workers are real [`serve_campaign`] daemons on loopback listener
//! threads (the same loop `campaign --serve` enters); process workers are
//! the real `campaign` binary in `--worker` mode. Disconnects are injected
//! deterministically through the chaos seam: a [`FaultPlan`] with a
//! `Disconnect` fault makes a daemon drop each session after sending N
//! results.

use proptest::prelude::*;
use qismet_bench::{
    run_campaign_distributed, serve_campaign, serve_session, Campaign, CampaignGrid,
    CampaignReport, DistributedOptions, Scheme, SessionOutcome, SweepExecutor, WorkerOptions,
};
use qismet_cluster::{
    Assign, BuildStamp, ClusterError, Done, Fault, FaultKind, FaultPlan, Hello, Message,
    TcpTransportListener, Transport, WorkerLaunch,
};
use std::collections::VecDeque;
use std::io;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Duration;

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_campaign");
const TOKEN: &str = "transport-suite-t0k3n";

/// A grid campaign and the exact `campaign` CLI flags that rebuild it in a
/// worker process (token and thread count included).
struct GridCase {
    campaign: Campaign,
    flags: Vec<String>,
}

fn grid_case(name: &str, seed: u64, app_ids: &[u8], trials: usize, iterations: usize) -> GridCase {
    let apps = app_ids
        .iter()
        .map(|&id| qismet_vqa::AppSpec::by_id(id).unwrap())
        .collect();
    let grid = CampaignGrid {
        apps,
        machines: Vec::new(),
        schemes: vec![Scheme::Baseline, Scheme::Qismet],
        thresholds: Vec::new(),
        magnitudes: Vec::new(),
        iterations,
        trials,
    };
    let campaign = grid.into_campaign(name, seed);
    let flags: Vec<String> = [
        "--name",
        name,
        "--apps",
        &app_ids
            .iter()
            .map(u8::to_string)
            .collect::<Vec<_>>()
            .join(","),
        "--schemes",
        "baseline,qismet",
        "--iterations",
        &iterations.to_string(),
        "--trials",
        &trials.to_string(),
        "--seed",
        &seed.to_string(),
        "--token",
        TOKEN,
        "--worker",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    GridCase { campaign, flags }
}

fn launch(case: &GridCase) -> WorkerLaunch {
    WorkerLaunch::new(PathBuf::from(WORKER_BIN), case.flags.clone())
}

/// Starts an in-process serve daemon for `campaign` on a loopback port,
/// returning its address and join handle (the daemon exits after
/// `max_sessions` accepted sessions).
fn spawn_serve(
    campaign: &Campaign,
    mut opts: WorkerOptions,
    max_sessions: usize,
) -> (String, JoinHandle<usize>) {
    let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.socket_addr().unwrap().to_string();
    let campaign = campaign.clone();
    // The daemon exits after `max_sessions` accepted sessions (carried on
    // the fault plan) so the test thread can join it.
    let plan = opts.plan.get_or_insert_with(FaultPlan::new);
    plan.max_sessions = Some(max_sessions);
    let handle =
        std::thread::spawn(move || serve_campaign(&campaign, Box::new(listener), &opts).unwrap());
    (addr, handle)
}

fn worker_opts(threads: usize) -> WorkerOptions {
    WorkerOptions {
        token: TOKEN.into(),
        threads,
        ..WorkerOptions::default()
    }
}

/// A plan that drops every session after it has sent `after_dones` results
/// (the chaos-seam equivalent of the old `drop_after` hook).
fn drop_plan(after_dones: usize) -> FaultPlan {
    FaultPlan {
        faults: vec![Fault {
            worker: None,
            after_dones,
            kind: FaultKind::Disconnect,
        }],
        max_sessions: None,
    }
}

fn remote_opts(connect: Vec<String>) -> DistributedOptions {
    DistributedOptions {
        workers: 0,
        connect,
        token: TOKEN.into(),
        ..DistributedOptions::default()
    }
}

fn assert_reports_bitwise_equal(a: &CampaignReport, b: &CampaignReport) {
    assert_eq!(a, b);
    for (x, y) in a.records.iter().zip(b.records.iter()) {
        assert_eq!(x.final_energy.to_bits(), y.final_energy.to_bits());
        assert_eq!(x.series.len(), y.series.len());
        for (u, v) in x.series.iter().zip(y.series.iter()) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }
    // The strongest form of the acceptance criterion: identical artifacts.
    assert_eq!(
        serde_json::to_string_pretty(a).unwrap(),
        serde_json::to_string_pretty(b).unwrap()
    );
}

#[test]
fn two_tcp_workers_one_threaded_match_sequential_bitwise() {
    let case = grid_case("net-bitwise", 42, &[1, 2], 2, 25);
    let sequential = SweepExecutor::sequential().run(&case.campaign);

    let (addr_a, serve_a) = spawn_serve(&case.campaign, worker_opts(1), 1);
    let (addr_b, serve_b) = spawn_serve(&case.campaign, worker_opts(2), 1);
    let (remote, stats) =
        run_campaign_distributed(&case.campaign, None, &remote_opts(vec![addr_a, addr_b])).unwrap();
    assert_eq!(serve_a.join().unwrap(), 1);
    assert_eq!(serve_b.join().unwrap(), 1);

    assert_eq!(stats.executed, case.campaign.len());
    assert_eq!(stats.respawns, 0);
    assert_eq!(stats.lost_workers, 0);
    assert_reports_bitwise_equal(&sequential, &remote);
}

#[test]
fn token_mismatch_is_rejected_and_the_daemon_survives() {
    let case = grid_case("net-token", 11, &[1], 1, 22);
    let (addr, serve) = spawn_serve(&case.campaign, worker_opts(1), 2);

    // Wrong token: the daemon answers Reject and keeps listening.
    let mut bad = remote_opts(vec![addr.clone()]);
    bad.token = "wrong-token".into();
    bad.max_respawns = 0;
    let err = run_campaign_distributed(&case.campaign, None, &bad).unwrap_err();
    assert!(
        matches!(err, ClusterError::Rejected { .. }),
        "unexpected error: {err}"
    );

    // Same daemon, right token: the campaign completes byte-identically.
    let (report, _) =
        run_campaign_distributed(&case.campaign, None, &remote_opts(vec![addr])).unwrap();
    assert_eq!(serve.join().unwrap(), 2);
    assert_reports_bitwise_equal(&SweepExecutor::sequential().run(&case.campaign), &report);
}

#[test]
fn fingerprint_mismatch_is_rejected_at_handshake() {
    let case = grid_case("net-fp", 21, &[1], 1, 22);
    // A daemon serving a different campaign (different master seed).
    let other = grid_case("net-fp", 22, &[1], 1, 22);
    let (addr, serve) = spawn_serve(&other.campaign, worker_opts(1), 1);

    let mut opts = remote_opts(vec![addr]);
    opts.max_respawns = 0;
    let err = run_campaign_distributed(&case.campaign, None, &opts).unwrap_err();
    assert!(
        matches!(err, ClusterError::FingerprintMismatch { .. }),
        "unexpected error: {err}"
    );
    serve.join().unwrap();
}

#[test]
fn mid_campaign_disconnect_redispatches_to_the_surviving_worker() {
    let case = grid_case("net-redispatch", 7, &[1], 3, 22);
    assert_eq!(case.campaign.len(), 6);
    let sequential = SweepExecutor::sequential().run(&case.campaign);

    // Worker A serves one run, drops the session, and (max_sessions = 1)
    // refuses to come back; with a zero reconnect budget its slot is lost
    // immediately and worker B must absorb A's unfinished share.
    let mut dropping = worker_opts(1);
    dropping.plan = Some(drop_plan(1));
    let (addr_a, serve_a) = spawn_serve(&case.campaign, dropping, 1);
    let (addr_b, serve_b) = spawn_serve(&case.campaign, worker_opts(1), 1);

    let mut opts = remote_opts(vec![addr_a, addr_b]);
    opts.max_respawns = 0;
    let (report, stats) = run_campaign_distributed(&case.campaign, None, &opts).unwrap();
    assert_eq!(serve_a.join().unwrap(), 1);
    assert_eq!(serve_b.join().unwrap(), 1);

    assert_eq!(stats.lost_workers, 1, "worker A must be declared lost");
    assert_eq!(stats.executed, case.campaign.len());
    assert_reports_bitwise_equal(&sequential, &report);
}

#[test]
fn dropped_sessions_reconnect_through_the_whole_campaign() {
    let case = grid_case("net-reconnect", 0x5eed, &[1], 2, 22);
    let total = case.campaign.len();
    assert_eq!(total, 4);
    let sequential = SweepExecutor::sequential().run(&case.campaign);

    // The daemon drops every session after 1 result; the coordinator must
    // reconnect its way through the whole campaign on this single worker
    // (one session per run — the final session's drop goes unobserved).
    let mut dropping = worker_opts(1);
    dropping.plan = Some(drop_plan(1));
    let (addr, serve) = spawn_serve(&case.campaign, dropping, total);

    let mut opts = remote_opts(vec![addr]);
    opts.max_respawns = total;
    let (report, stats) = run_campaign_distributed(&case.campaign, None, &opts).unwrap();
    assert_eq!(serve.join().unwrap(), total);
    assert_eq!(
        stats.respawns,
        total - 1,
        "every further run costs a reconnect"
    );
    assert_eq!(stats.lost_workers, 0);
    assert_reports_bitwise_equal(&sequential, &report);
}

#[test]
fn stdio_threaded_workers_match_sequential_bitwise() {
    // Hybrid threads x processes over the original stdio transport: two
    // local worker processes, each running batches on 2 executor threads.
    let case = grid_case("net-hybrid-stdio", 0xab, &[1, 2], 2, 22);
    let mut launch = launch(&case);
    launch
        .args
        .insert(launch.args.len() - 1, "--threads".into());
    launch.args.insert(launch.args.len() - 1, "2".to_string());
    let (report, stats) = run_campaign_distributed(
        &case.campaign,
        Some(launch),
        &DistributedOptions {
            workers: 2,
            token: TOKEN.into(),
            ..DistributedOptions::default()
        },
    )
    .unwrap();
    assert_eq!(stats.executed, case.campaign.len());
    assert_reports_bitwise_equal(&SweepExecutor::sequential().run(&case.campaign), &report);
}

#[test]
fn mixed_local_and_remote_workers_match_sequential_bitwise() {
    let case = grid_case("net-mixed", 0xc4fe, &[1], 3, 22);
    let sequential = SweepExecutor::sequential().run(&case.campaign);
    let (addr, serve) = spawn_serve(&case.campaign, worker_opts(2), 1);
    let (report, stats) = run_campaign_distributed(
        &case.campaign,
        Some(launch(&case)),
        &DistributedOptions {
            workers: 1,
            connect: vec![addr],
            token: TOKEN.into(),
            ..DistributedOptions::default()
        },
    )
    .unwrap();
    serve.join().unwrap();
    assert_eq!(stats.executed, case.campaign.len());
    assert_eq!(stats.lost_workers, 0);
    assert_reports_bitwise_equal(&sequential, &report);
}

/// A coordinator played from a script: greets, assigns, answers every
/// `Ping` with a `Pong`, and sends `Shutdown` after the last `Done`.
struct ScriptedCoordinator {
    incoming: VecDeque<Message>,
    outstanding: usize,
    pings: u64,
    dones: Vec<Done>,
}

impl Transport for ScriptedCoordinator {
    fn send(&mut self, msg: &Message) -> io::Result<()> {
        match msg {
            Message::Ping => {
                self.pings += 1;
                self.incoming.push_back(Message::Pong);
            }
            Message::Done(done) => {
                self.dones.push(done.clone());
                self.outstanding -= 1;
                if self.outstanding == 0 {
                    self.incoming.push_back(Message::Shutdown);
                }
            }
            _ => {}
        }
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Message> {
        self.incoming
            .pop_front()
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "script exhausted"))
    }

    fn peer(&self) -> String {
        "scripted".into()
    }
}

#[test]
fn heartbeat_round_trips_reach_the_last_done_of_a_session() {
    // Worker sessions always run with telemetry on; without it `Done`
    // carries no stats.
    qismet_telemetry::set_enabled(true);
    let case = grid_case("net-rtt", 5, &[1], 1, 20);
    let hello = Hello {
        worker_id: 0,
        fingerprint: case.campaign.fingerprint(),
        spec_count: case.campaign.len(),
        token: TOKEN.into(),
        threads: 0,
        build: BuildStamp::local(false),
    };
    // One single-spec batch: every heartbeat of the session happens during
    // the batch whose `Done` is the session's last frame.
    let mut coordinator = ScriptedCoordinator {
        incoming: VecDeque::from([
            Message::Hello(hello),
            Message::Assign(Assign { indices: vec![0] }),
        ]),
        outstanding: 1,
        pings: 0,
        dones: Vec::new(),
    };
    let opts = WorkerOptions {
        heartbeat: Some(Duration::from_micros(50)),
        ..worker_opts(1)
    };
    let specs = case.campaign.expand();
    let end = serve_session(&case.campaign, &specs, &mut coordinator, &opts).unwrap();
    assert_eq!(end, SessionOutcome::Shutdown);
    assert!(coordinator.pings > 0, "the spec outlasts a 50us heartbeat");
    let stats = coordinator.dones[0].stats.as_ref().expect("telemetry on");
    assert_eq!(stats.rtt_count, coordinator.pings);
    assert!(stats.rtt_ns_sum > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    // For random small campaigns, sequential execution and a threaded TCP
    // remote worker produce bitwise-identical reports.
    #[test]
    fn random_grids_agree_between_sequential_and_threaded_tcp(
        seed in 0u64..u64::MAX,
        n_apps in 1usize..3,
        trials in 1usize..3,
        threads in 1usize..4,
    ) {
        let app_ids: Vec<u8> = (1..=n_apps as u8).collect();
        let case = grid_case("net-prop", seed, &app_ids, trials, 20);
        let sequential = SweepExecutor::sequential().run(&case.campaign);
        let (addr, serve) = spawn_serve(&case.campaign, worker_opts(threads), 1);
        let (remote, _) =
            run_campaign_distributed(&case.campaign, None, &remote_opts(vec![addr])).unwrap();
        serve.join().unwrap();
        assert_reports_bitwise_equal(&sequential, &remote);
    }
}
