//! CLI argument-validation tests for the `campaign` binary, run against the
//! real executable (`CARGO_BIN_EXE_campaign`). These pin the typed-error
//! contract: a bad flag exits with status 2 and a named error on stderr,
//! before any work starts.

use std::process::Command;

const CAMPAIGN_BIN: &str = env!("CARGO_BIN_EXE_campaign");

fn run_campaign_cli(args: &[&str]) -> (i32, String) {
    let out = Command::new(CAMPAIGN_BIN)
        .args(args)
        .output()
        .expect("spawn campaign binary");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn removed_engine_flags_are_unknown() {
    for (flag, value) in [
        ("--batch-lanes", "2"),
        ("--inner-threads", "2"),
        // The static TCP worker pool: remote fleets use --daemon/--register.
        ("--serve", "127.0.0.1:0"),
        ("--connect", "a:1"),
        // Session deadlines are constants: 10 s handshakes, 5 s dials.
        ("--handshake-timeout", "10"),
        ("--connect-timeout", "5"),
    ] {
        let (code, stderr) = run_campaign_cli(&[flag, value]);
        assert_eq!(code, 2, "{flag} must exit 2");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{flag} stderr: {stderr}"
        );
    }
}

/// End-to-end observability acceptance: a real 2-worker cluster run with
/// `--metrics-out`/`--trace-out` must produce a metrics document carrying
/// the plan-cache hit rate, per-worker done/respawn/heartbeat-RTT health,
/// and build provenance — and print the per-slot fleet table.
#[test]
fn metrics_out_from_two_worker_cluster_carries_fleet_health() {
    let dir = std::env::temp_dir();
    let metrics_path = dir.join(format!("qismet-cli-metrics-{}.json", std::process::id()));
    let trace_path = dir.join(format!("qismet-cli-trace-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&metrics_path);
    let _ = std::fs::remove_file(&trace_path);
    let out = Command::new(CAMPAIGN_BIN)
        .args([
            "--apps",
            "1",
            "--schemes",
            "baseline,qismet",
            "--iterations",
            "10000",
            "--trials",
            "2",
            "--workers",
            "2",
            "--heartbeat",
            "0.02",
            "--name",
            "cli-obs-smoke",
            "--metrics-out",
            metrics_path.to_str().unwrap(),
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn campaign binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    // Satellite guarantee: the per-slot summary prints on every
    // distributed run, not only when artifacts are requested.
    assert!(
        stdout.contains("fleet health (per worker slot)"),
        "missing fleet table: {stdout}"
    );

    let metrics: serde_json::JsonValue =
        serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    let build = metrics.get("build").expect("build provenance");
    assert!(build.get("git_hash").and_then(|v| v.as_str()).is_some());
    assert!(build.get("parallel").is_some());
    let counters = metrics.get("counters").expect("counters object");
    assert_eq!(
        counters.get("cluster.specs_done").and_then(|v| v.as_u64()),
        Some(4),
        "counters: {counters:?}"
    );
    assert_eq!(
        counters
            .get("cluster.specs_assigned")
            .and_then(|v| v.as_u64()),
        Some(4)
    );
    let fleet = metrics
        .get("fleet")
        .and_then(|v| v.as_array())
        .expect("fleet array");
    assert_eq!(fleet.len(), 2, "two worker slots");
    for slot in fleet {
        assert!(slot.get("done").and_then(|v| v.as_u64()).unwrap() > 0);
        assert_eq!(slot.get("respawns").and_then(|v| v.as_u64()), Some(0));
        // A spec of 10 000 iterations computes for ~70 ms on a 2-vCPU
        // host, so the 20 ms heartbeat guarantees pings (and matched RTT
        // samples).
        assert!(slot.get("pings").and_then(|v| v.as_u64()).unwrap() > 0);
        assert!(
            slot.get("heartbeat_rtt_ns_mean")
                .and_then(|v| v.as_u64())
                .unwrap()
                > 0
        );
        // Plan-cache hit rate, per worker: hits dominate (one compile per
        // objective, hundreds of rebind evaluations).
        let hits = slot
            .get("worker_plan_hits")
            .and_then(|v| v.as_u64())
            .unwrap();
        let misses = slot
            .get("worker_plan_misses")
            .and_then(|v| v.as_u64())
            .unwrap();
        assert!(hits > 0 && misses > 0, "hits {hits} misses {misses}");
        assert!(hits > misses);
    }

    // Coordinator trace: structurally valid Chrome trace_event JSON (the
    // coordinator itself runs no simulation, so events may be empty).
    let trace: serde_json::JsonValue =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    assert!(trace
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .is_some());

    let _ = std::fs::remove_file(&metrics_path);
    let _ = std::fs::remove_file(&trace_path);
}

/// In-process runs populate the qsim-level metrics: per-kernel-class op
/// counters, plan-cache activity, evaluate-plan latency histogram — and a
/// non-empty Chrome trace.
#[test]
fn metrics_out_in_process_carries_qsim_taxonomy() {
    let dir = std::env::temp_dir();
    let metrics_path = dir.join(format!("qismet-cli-metrics-ip-{}.json", std::process::id()));
    let trace_path = dir.join(format!("qismet-cli-trace-ip-{}.json", std::process::id()));
    let out = Command::new(CAMPAIGN_BIN)
        .args([
            "--apps",
            "1",
            "--schemes",
            "baseline",
            "--iterations",
            "25",
            "--trials",
            "2",
            "--name",
            "cli-obs-ip",
            "--metrics-out",
            metrics_path.to_str().unwrap(),
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn campaign binary");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics: serde_json::JsonValue =
        serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    let counters = metrics.get("counters").expect("counters");
    for key in [
        "qsim.plan_cache.hits",
        "qsim.plan_cache.misses",
        "qsim.plans_compiled",
        "sweep.specs_done",
    ] {
        assert!(
            counters.get(key).and_then(|v| v.as_u64()).unwrap_or(0) > 0,
            "counter {key} missing or zero: {counters:?}"
        );
    }
    // At least one kernel-class op counter ticks on any real circuit.
    let ops_total: u64 = counters
        .as_object()
        .unwrap()
        .iter()
        .filter(|(k, _)| k.starts_with("qsim.ops."))
        .filter_map(|(_, v)| v.as_u64())
        .sum();
    assert!(ops_total > 0, "no qsim.ops.* counters: {counters:?}");
    let hists = metrics.get("histograms").expect("histograms");
    for key in ["qsim.evaluate_plan", "sweep.spec_ns"] {
        let h = hists.get(key).unwrap_or_else(|| panic!("histogram {key}"));
        assert!(h.get("count").and_then(|v| v.as_u64()).unwrap() > 0);
    }
    let trace: serde_json::JsonValue =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    assert!(
        !trace
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap()
            .is_empty(),
        "in-process trace must contain span events"
    );
    let _ = std::fs::remove_file(&metrics_path);
    let _ = std::fs::remove_file(&trace_path);
}

/// Validation conflicts — whatever the flag combination — exit with the
/// usage code and a named conflict, never a partial run.
#[test]
fn typed_conflicts_exit_with_usage_code() {
    for (args, needle) in [
        (&["--resume"][..], "--resume requires --checkpoint"),
        (
            &["--daemon", "127.0.0.1:0", "--workers", "2"][..],
            "--daemon is a service mode",
        ),
        (
            &["cancel", "--to", "127.0.0.1:1"][..],
            "cancel requires --job",
        ),
        (
            &["--to", "127.0.0.1:1"][..],
            "submit/status/cancel/drain require --to",
        ),
    ] {
        let (code, stderr) = run_campaign_cli(args);
        assert_eq!(code, 2, "{args:?} must exit 2; stderr: {stderr}");
        assert!(stderr.contains(needle), "{args:?} stderr: {stderr}");
    }
}

/// A campaign whose spec repeatedly kills its workers ends with the
/// poisoned-spec exit code (4), distinct from generic failure.
#[test]
fn poisoned_specs_exit_with_their_own_code() {
    let plan_path = std::env::temp_dir().join(format!(
        "qismet-cli-poison-plan-{}.json",
        std::process::id()
    ));
    std::fs::write(
        &plan_path,
        r#"{"faults":[{"worker":null,"after_dones":0,"kind":{"PoisonSpec":0}}]}"#,
    )
    .expect("plan written");
    let (code, stderr) = run_campaign_cli(&[
        "--apps",
        "1",
        "--schemes",
        "baseline",
        "--iterations",
        "20",
        "--trials",
        "4",
        "--workers",
        "2",
        "--chaos-plan",
        plan_path.to_str().unwrap(),
        "--name",
        "cli-poison-exit",
    ]);
    assert_eq!(code, 4, "stderr: {stderr}");
    assert!(
        stderr.contains("poisoned/isolated"),
        "stderr must name the poisoned specs: {stderr}"
    );
    let _ = std::fs::remove_file(&plan_path);
}

/// Rejected service handshakes exit 5; authorized status/drain verbs round
/// trip against a live daemon, which then drains to a clean exit 0.
#[test]
fn rejected_service_token_exits_5_and_drain_round_trips() {
    use std::io::BufRead as _;
    let mut daemon = Command::new(CAMPAIGN_BIN)
        .args([
            "--daemon",
            "127.0.0.1:0",
            "--token",
            "fleet",
            "--tenants",
            "alice=a-token",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    // The readiness line carries the bound address (the port was 0).
    let mut stdout = std::io::BufReader::new(daemon.stdout.take().expect("piped stdout"));
    let mut ready = String::new();
    stdout.read_line(&mut ready).expect("readiness line");
    let addr = ready
        .strip_prefix("campaign service on ")
        .and_then(|rest| rest.split_once(": "))
        .map(|(addr, _)| addr.to_string())
        .unwrap_or_else(|| panic!("unexpected readiness line: {ready:?}"));

    // A wrong tenant token is a typed rejection: exit 5, nothing queued.
    let (code, stderr) = run_campaign_cli(&[
        "submit",
        "--to",
        &addr,
        "--token",
        "wrong",
        "--apps",
        "1",
        "--schemes",
        "baseline",
        "--iterations",
        "20",
        "--name",
        "cli-rejected",
    ]);
    assert_eq!(code, 5, "stderr: {stderr}");
    assert!(stderr.contains("BadToken"), "stderr: {stderr}");

    // So is cancelling a job that does not exist — but with the generic
    // failure code: the session authenticated fine.
    let (code, stderr) = run_campaign_cli(&[
        "cancel", "--to", &addr, "--token", "a-token", "--job", "999",
    ]);
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(stderr.contains("UnknownJob"), "stderr: {stderr}");

    // Authorized status and drain round trip, and the daemon exits 0.
    let out = Command::new(CAMPAIGN_BIN)
        .args(["status", "--to", &addr, "--token", "a-token"])
        .output()
        .expect("status runs");
    assert_eq!(out.status.code(), Some(0));
    let out = Command::new(CAMPAIGN_BIN)
        .args(["drain", "--to", &addr, "--token", "fleet"])
        .output()
        .expect("drain runs");
    assert_eq!(out.status.code(), Some(0));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("drained: 0 job(s) completed, 0 failed"),
        "drain stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(
        status.code(),
        Some(0),
        "daemon must exit cleanly after drain"
    );
    let mut rest = String::new();
    stdout.read_line(&mut rest).expect("drain summary line");
    assert!(
        rest.contains("service drained: 0 job(s) completed"),
        "daemon stdout: {rest:?}"
    );
}
