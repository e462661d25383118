//! Full-stack campaign-service integration over real TCP.
//!
//! One daemon thread serves two tenants' campaigns concurrently while the
//! worker fleet changes under it — one worker deregisters mid-run, another
//! joins late — and every settled job's report file must be byte-identical
//! to a sequential run of the same campaign. A second test pins the typed
//! client errors end to end.

use qismet_bench::service::{serve, ServiceConfig};
use qismet_bench::{
    cancel_job, drain_service, job_status, run_campaign, submit_job, CampaignPlanner, GridSpec,
    RegisterOptions, RegisterStats, ServiceError,
};
use qismet_cluster::{Listener, ServiceErrKind, TcpTransportListener};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qismet-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn alpha_grid() -> GridSpec {
    GridSpec {
        name: "svc-alpha".into(),
        seed: 7,
        apps: vec![1],
        machines: vec![],
        schemes: vec!["baseline".into(), "qismet".into()],
        thresholds: vec![],
        magnitudes: vec![],
        iterations: 25,
        trials: 3,
    }
}

fn beta_grid() -> GridSpec {
    GridSpec {
        name: "svc-beta".into(),
        seed: 13,
        apps: vec![2],
        machines: vec![],
        schemes: vec!["baseline".into()],
        thresholds: vec![85],
        magnitudes: vec![],
        iterations: 25,
        trials: 2,
    }
}

struct Daemon {
    addr: String,
    handle: std::thread::JoinHandle<qismet_cluster::ServiceSummary>,
}

/// Starts a service daemon on an ephemeral TCP port with tenants `alice`
/// and `bob` under the `fleet` token.
fn start_daemon(tag: &str) -> (Daemon, PathBuf) {
    let listener = TcpTransportListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound address");
    let report_dir = temp_dir(&format!("{tag}-reports"));
    let state_dir = temp_dir(&format!("{tag}-state"));
    let planner = CampaignPlanner {
        report_dir: report_dir.clone(),
    };
    let mut config = ServiceConfig::new("fleet");
    config.tenants = vec![
        ("alice".to_string(), "a-token".to_string()),
        ("bob".to_string(), "b-token".to_string()),
    ];
    config.state_dir = Some(state_dir);
    let handle = std::thread::spawn(move || {
        serve(Box::new(listener), &planner, &config).expect("daemon drains cleanly")
    });
    (Daemon { addr, handle }, report_dir)
}

fn worker(name: &str, deregister_after: Option<usize>) -> RegisterOptions {
    RegisterOptions {
        name: name.into(),
        token: "fleet".into(),
        threads: 1,
        deregister_after,
        ..RegisterOptions::default()
    }
}

fn spawn_worker(
    addr: &str,
    opts: RegisterOptions,
) -> std::thread::JoinHandle<Result<RegisterStats, ServiceError>> {
    let addr = addr.to_string();
    std::thread::spawn(move || qismet_bench::register_worker(&addr, &opts))
}

/// Waits until a worker named `name` holds a connected slot.
fn await_registered(addr: &str, name: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !job_status(addr, "fleet")
        .expect("fleet status")
        .workers
        .iter()
        .any(|w| w.name == name && w.active)
    {
        assert!(
            Instant::now() < deadline,
            "worker `{name}` never registered"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn daemon_serves_two_tenants_elastically_with_byte_identical_reports() {
    let (daemon, report_dir) = start_daemon("elastic");
    let alpha = alpha_grid();
    let beta = beta_grid();
    let job_a = submit_job(&daemon.addr, "a-token", &alpha).expect("alice submits");
    let job_b = submit_job(&daemon.addr, "b-token", &beta).expect("bob submits");
    assert_ne!(job_a.job_id, job_b.job_id);
    assert_ne!(job_a.fingerprint, job_b.fingerprint);

    // Tenant-scoped status: alice sees only her own job; the fleet
    // principal sees both.
    let alice_view = job_status(&daemon.addr, "a-token").expect("alice status");
    assert_eq!(alice_view.jobs.len(), 1);
    assert_eq!(alice_view.jobs[0].job_id, job_a.job_id);
    assert_eq!(alice_view.jobs[0].tenant, "alice");
    let fleet_view = job_status(&daemon.addr, "fleet").expect("fleet status");
    assert_eq!(fleet_view.jobs.len(), 2);

    // Elastic fleet: one worker that voluntarily leaves after two batches,
    // then a steady worker, and one that joins only once the run is
    // underway. The leaver serves alone until it leaves, so its two
    // batches do not depend on how fast another worker drains the queue,
    // and the drain waits for every registration, so no worker dials a
    // daemon that has already stopped.
    let transient = spawn_worker(&daemon.addr, worker("transient", Some(2)));
    let transient_stats = transient
        .join()
        .expect("transient exits")
        .expect("voluntary leave is not an error");
    assert_eq!(transient_stats.batches, 2);
    let steady = spawn_worker(&daemon.addr, worker("steady", None));
    await_registered(&daemon.addr, "steady");
    let late = spawn_worker(&daemon.addr, worker("late", None));
    await_registered(&daemon.addr, "late");

    let drained = drain_service(&daemon.addr, "fleet").expect("drain completes");
    assert_eq!(drained.jobs_completed, 2);
    assert_eq!(drained.jobs_failed, 0);
    steady.join().expect("steady exits").expect("steady served");
    late.join().expect("late exits").expect("late served");
    let summary = daemon.handle.join().expect("daemon thread exits");
    assert_eq!(summary.jobs_completed, 2);
    assert_eq!(summary.jobs_failed, 0);

    // Byte-identity: whatever the fleet did, each report file equals a
    // sequential in-process run of the same campaign, byte for byte.
    let reference_dir = temp_dir("elastic-reference");
    for grid in [&alpha, &beta] {
        let reference = run_campaign(&grid.to_campaign().expect("grid expands"));
        let reference_path = reference
            .write_json_in(&reference_dir, None)
            .expect("reference written");
        let service_path = report_dir.join(format!("{}.json", grid.name));
        let service_bytes = std::fs::read(&service_path).expect("service report exists");
        let reference_bytes = std::fs::read(&reference_path).expect("reference report exists");
        assert!(
            service_bytes == reference_bytes,
            "service report {} differs from its sequential reference",
            grid.name
        );
    }
    let _ = std::fs::remove_dir_all(&report_dir);
    let _ = std::fs::remove_dir_all(&reference_dir);
}

#[test]
fn client_verbs_return_typed_errors_end_to_end() {
    let (daemon, report_dir) = start_daemon("errors");

    // Bad tenant token on submit.
    let refused = submit_job(&daemon.addr, "wrong", &alpha_grid())
        .expect_err("unknown token must be refused");
    assert!(matches!(
        refused,
        ServiceError::Refused {
            kind: ServiceErrKind::BadToken,
            ..
        }
    ));

    // Bad fleet token on worker registration.
    let refused = qismet_bench::register_worker(
        &daemon.addr,
        &RegisterOptions {
            name: "intruder".into(),
            token: "wrong".into(),
            ..RegisterOptions::default()
        },
    )
    .expect_err("wrong fleet token must be refused");
    assert!(matches!(
        refused,
        ServiceError::Refused {
            kind: ServiceErrKind::BadToken,
            ..
        }
    ));

    let job = submit_job(&daemon.addr, "a-token", &alpha_grid()).expect("submit accepted");

    // Duplicate fingerprint while the first submission is still live —
    // even from a different tenant.
    let duplicate = submit_job(&daemon.addr, "b-token", &alpha_grid())
        .expect_err("same campaign cannot queue twice");
    assert!(matches!(
        duplicate,
        ServiceError::Refused {
            kind: ServiceErrKind::DuplicateFingerprint,
            ..
        }
    ));

    // Unknown id, then a foreign tenant's id (indistinguishable by
    // design), then the owner really cancels.
    for (token, id) in [("a-token", 999), ("b-token", job.job_id)] {
        let missing = cancel_job(&daemon.addr, token, id).expect_err("job must be invisible");
        assert!(matches!(
            missing,
            ServiceError::Refused {
                kind: ServiceErrKind::UnknownJob,
                ..
            }
        ));
    }
    assert_eq!(
        cancel_job(&daemon.addr, "a-token", job.job_id).expect("owner cancels"),
        job.job_id
    );

    let drained = drain_service(&daemon.addr, "fleet").expect("drain completes");
    assert_eq!(drained.jobs_completed, 0);
    assert_eq!(
        drained.jobs_failed, 1,
        "the cancelled job settles as failed"
    );
    let summary = daemon.handle.join().expect("daemon thread exits");
    assert_eq!(summary.jobs_failed, 1);
    let _ = std::fs::remove_dir_all(&report_dir);
}
