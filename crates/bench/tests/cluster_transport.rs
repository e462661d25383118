//! Integration tests for the worker side of the stdio transport: threaded
//! `campaign --worker` processes must produce reports byte-identical to a
//! sequential in-process run; a coordinator presenting the wrong token
//! must be refused with a typed error before any record lands; a spawned
//! worker must answer the coordinator's `Hello` before anything else and
//! exit cleanly on `Shutdown`; and a worker's keepalive round trips must
//! reach the coordinator in the last `Done` of its session.
//!
//! Process workers are the real `campaign` binary in `--worker` mode;
//! the heartbeat test drives [`serve_session`] against a scripted
//! coordinator.

use qismet_bench::{
    run_campaign_distributed, serve_session, Campaign, CampaignGrid, CampaignReport,
    DistributedOptions, Scheme, SessionOutcome, SweepExecutor, WorkerOptions,
};
use qismet_cluster::{
    load_journal, Assign, BuildStamp, ChildTransport, ClusterError, Done, Hello, Message,
    Transport, WorkerLaunch,
};
use std::collections::VecDeque;
use std::io;
use std::path::PathBuf;
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

fn worker_opts(threads: usize) -> WorkerOptions {
    WorkerOptions {
        token: TOKEN.into(),
        threads,
        ..WorkerOptions::default()
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
fn stdio_worker_token_mismatch_is_rejected_with_no_records() {
    let case = grid_case("net-token", 11, &[1], 1, 22);
    let journal = std::env::temp_dir().join(format!(
        "qismet-transport-token-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);
    // The worker was launched with TOKEN; the coordinator presents another.
    let err = run_campaign_distributed(
        &case.campaign,
        Some(launch(&case)),
        &DistributedOptions {
            workers: 1,
            token: "wrong-token".into(),
            checkpoint: Some(journal.clone()),
            ..DistributedOptions::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, ClusterError::Rejected { .. }),
        "unexpected error: {err}"
    );
    let loaded = load_journal(&journal, case.campaign.fingerprint()).unwrap();
    assert!(loaded.entries.is_empty(), "a rejected session ran specs");
    let _ = std::fs::remove_file(&journal);
}

/// The exchange a benchmark times as a sharded run's session setup: spawn
/// a `--worker` child, send the coordinator `Hello`, and read the worker's
/// `Hello` — which must come before any other frame and carry the
/// campaign's fingerprint and spec count. `Shutdown` then ends the worker
/// with exit code 0.
#[test]
fn spawned_worker_answers_hello_first_and_exits_cleanly_on_shutdown() {
    let case = grid_case("net-probe", 9, &[1, 2], 2, 20);
    let mut transport = ChildTransport::spawn(&launch(&case), 0).expect("spawn worker");
    transport
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    transport
        .send(&Message::Hello(Hello {
            worker_id: 0,
            fingerprint: case.campaign.fingerprint(),
            spec_count: case.campaign.len(),
            token: TOKEN.into(),
            threads: 0,
            build: BuildStamp::local(false),
        }))
        .unwrap();
    match transport.recv().unwrap() {
        Message::Hello(hello) => {
            assert_eq!(hello.fingerprint, case.campaign.fingerprint());
            assert_eq!(hello.spec_count, case.campaign.len());
        }
        other => panic!("the worker's first frame must be its Hello, got {other:?}"),
    }
    transport.send(&Message::Shutdown).unwrap();
    let status = transport.wait().unwrap();
    assert_eq!(status.code(), Some(0), "worker exit status {status}");
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
