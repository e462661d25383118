//! Integration tests for the sharded multi-process campaign executor:
//! 2-process sharded execution must be byte-identical to sequential (and
//! threaded) in-process execution, a killed-mid-campaign invocation must
//! resume from its checkpoint journal re-running only the missing specs,
//! and crashed workers must respawn without changing a single bit.
//!
//! The worker side is the real `campaign` binary (via
//! `CARGO_BIN_EXE_campaign`) in its hidden `--worker` mode; the coordinator
//! runs in-process. Mid-campaign crashes are injected deterministically
//! with the `QISMET_CLUSTER_EXIT_AFTER` hook, which makes a worker exit
//! after sending N results.

use proptest::prelude::*;
use qismet_bench::distributed::EXIT_AFTER_ENV;
use qismet_bench::{
    run_campaign_distributed, Campaign, CampaignGrid, CampaignReport, DistributedOptions, Scheme,
    SweepExecutor,
};
use qismet_cluster::{load_journal, ClusterError, WorkerLaunch};
use qismet_vqa::AppSpec;
use std::path::PathBuf;

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_campaign");

/// A grid campaign and the exact `campaign` CLI flags that rebuild it.
struct GridCase {
    campaign: Campaign,
    flags: Vec<String>,
}

fn grid_case(name: &str, seed: u64, app_ids: &[u8], trials: usize, iterations: usize) -> GridCase {
    let apps: Vec<AppSpec> = app_ids
        .iter()
        .map(|&id| AppSpec::by_id(id).unwrap())
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

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "qismet-cluster-test-{tag}-{}.jsonl",
        std::process::id()
    ))
}

#[test]
fn two_process_sharded_matches_sequential_and_threaded_bitwise() {
    let case = grid_case("dist-bitwise", 42, &[1, 2], 2, 25);
    let sequential = SweepExecutor::sequential().run(&case.campaign);
    let threaded = SweepExecutor::with_threads(2).run(&case.campaign);
    let (sharded, stats) = run_campaign_distributed(
        &case.campaign,
        Some(launch(&case)),
        &DistributedOptions {
            workers: 2,
            ..DistributedOptions::default()
        },
    )
    .unwrap();
    assert_eq!(stats.total, case.campaign.len());
    assert_eq!(stats.executed, case.campaign.len());
    assert_eq!(stats.resumed, 0);
    assert_eq!(stats.respawns, 0);
    assert_reports_bitwise_equal(&sequential, &threaded);
    assert_reports_bitwise_equal(&sequential, &sharded);
}

#[test]
fn interrupted_campaign_resumes_rerunning_only_missing_specs() {
    let case = grid_case("dist-resume", 0xbeef, &[1], 3, 22);
    let total = case.campaign.len();
    assert_eq!(total, 6);
    let journal_path = temp_journal("resume");
    let _ = std::fs::remove_file(&journal_path);

    // Phase 1: a single worker that dies after 2 completed runs, with no
    // respawn budget — the invocation fails mid-campaign, like a kill -9.
    let mut crashing = launch(&case);
    crashing.envs.push((EXIT_AFTER_ENV.into(), "2".into()));
    let err = run_campaign_distributed(
        &case.campaign,
        Some(crashing),
        &DistributedOptions {
            workers: 1,
            checkpoint: Some(journal_path.clone()),
            max_respawns: 0,
            ..DistributedOptions::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, ClusterError::WorkerLost { .. }),
        "unexpected error: {err}"
    );

    // Exactly the two completed runs are durably checkpointed.
    let loaded = load_journal(&journal_path, case.campaign.fingerprint()).unwrap();
    assert_eq!(loaded.entries.len(), 2);
    assert_eq!(loaded.corrupt, 0);

    // Phase 2: resume with healthy workers — only the 4 missing specs
    // re-run, and the merged report is bit-identical to sequential.
    let (resumed_report, stats) = run_campaign_distributed(
        &case.campaign,
        Some(launch(&case)),
        &DistributedOptions {
            workers: 2,
            checkpoint: Some(journal_path.clone()),
            resume: true,
            ..DistributedOptions::default()
        },
    )
    .unwrap();
    assert_eq!(stats.resumed, 2, "journaled specs must not re-run");
    assert_eq!(stats.executed, total - 2);
    let sequential = SweepExecutor::sequential().run(&case.campaign);
    assert_reports_bitwise_equal(&sequential, &resumed_report);

    // After the resumed completion the journal covers the whole campaign;
    // a further resume executes nothing.
    let (idempotent, stats) = run_campaign_distributed(
        &case.campaign,
        Some(launch(&case)),
        &DistributedOptions {
            workers: 2,
            checkpoint: Some(journal_path.clone()),
            resume: true,
            ..DistributedOptions::default()
        },
    )
    .unwrap();
    assert_eq!(stats.resumed, total);
    assert_eq!(stats.executed, 0);
    assert_reports_bitwise_equal(&sequential, &idempotent);

    std::fs::remove_file(&journal_path).unwrap();
}

#[test]
fn crashing_workers_respawn_and_the_report_is_unchanged() {
    let case = grid_case("dist-respawn", 7, &[1], 2, 22);
    // Every worker process dies after a single completed run; the
    // coordinator must keep respawning them through the whole campaign.
    let mut crashing = launch(&case);
    crashing.envs.push((EXIT_AFTER_ENV.into(), "1".into()));
    let (report, stats) = run_campaign_distributed(
        &case.campaign,
        Some(crashing),
        &DistributedOptions {
            workers: 2,
            max_respawns: 16,
            ..DistributedOptions::default()
        },
    )
    .unwrap();
    assert!(
        stats.respawns >= 1,
        "the exit-after hook must have forced at least one respawn"
    );
    let sequential = SweepExecutor::sequential().run(&case.campaign);
    assert_reports_bitwise_equal(&sequential, &report);
}

#[test]
fn unwritable_checkpoint_path_fails_before_any_work() {
    let case = grid_case("dist-sink", 5, &[1], 1, 22);
    let err = run_campaign_distributed(
        &case.campaign,
        Some(launch(&case)),
        &DistributedOptions {
            workers: 1,
            checkpoint: Some(PathBuf::from("/nonexistent-dir/ckpt.jsonl")),
            ..DistributedOptions::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, ClusterError::Io(_)),
        "unexpected error: {err}"
    );
}

#[test]
fn mismatched_worker_campaign_is_rejected_at_handshake() {
    let case = grid_case("dist-fp", 11, &[1], 1, 22);
    // A worker launched with a different master seed expands a different
    // campaign; the fingerprint handshake must refuse it outright.
    let other = grid_case("dist-fp", 12, &[1], 1, 22);
    let err = run_campaign_distributed(
        &case.campaign,
        Some(launch(&other)),
        &DistributedOptions {
            workers: 1,
            ..DistributedOptions::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, ClusterError::FingerprintMismatch { .. }),
        "unexpected error: {err}"
    );
}

#[test]
fn journal_from_another_campaign_resumes_nothing() {
    let case = grid_case("dist-foreign", 21, &[1], 1, 22);
    let other = grid_case("dist-foreign", 22, &[1], 1, 22);
    let journal_path = temp_journal("foreign");
    let _ = std::fs::remove_file(&journal_path);

    // Checkpoint the *other* campaign completely.
    run_campaign_distributed(
        &other.campaign,
        Some(launch(&other)),
        &DistributedOptions {
            workers: 1,
            checkpoint: Some(journal_path.clone()),
            ..DistributedOptions::default()
        },
    )
    .unwrap();

    // Resuming `case` from it must adopt nothing (fingerprint mismatch)
    // and still produce the right records.
    let (report, stats) = run_campaign_distributed(
        &case.campaign,
        Some(launch(&case)),
        &DistributedOptions {
            workers: 1,
            checkpoint: Some(journal_path.clone()),
            resume: true,
            ..DistributedOptions::default()
        },
    )
    .unwrap();
    assert_eq!(stats.resumed, 0);
    assert_eq!(stats.executed, case.campaign.len());
    assert_reports_bitwise_equal(&SweepExecutor::sequential().run(&case.campaign), &report);

    std::fs::remove_file(&journal_path).unwrap();
}

#[test]
fn summary_only_merge_drops_series_and_jsonl_reaggregates_identically() {
    let case = grid_case("dist-summary", 0x50f7, &[1], 2, 22);
    let jsonl_path = temp_journal("summary-stream");
    let _ = std::fs::remove_file(&jsonl_path);

    let (summary_report, stats) = run_campaign_distributed(
        &case.campaign,
        Some(launch(&case)),
        &DistributedOptions {
            workers: 2,
            stream_jsonl: Some(jsonl_path.clone()),
            summary_only: true,
            ..DistributedOptions::default()
        },
    )
    .unwrap();
    assert_eq!(stats.executed, case.campaign.len());

    // Residency holds aggregates only: every series is gone, everything
    // else matches the sequential run exactly.
    let sequential = SweepExecutor::sequential().run(&case.campaign);
    assert!(
        summary_report.records.iter().all(|r| r.series.is_empty()),
        "summary-only records must not retain series"
    );
    let mut stripped = sequential.clone();
    for r in &mut stripped.records {
        r.series.clear();
    }
    assert_reports_bitwise_equal(&stripped, &summary_report);

    // The streamed JSONL carries the full series; re-aggregating it in
    // expansion order reproduces the sequential report byte-for-byte.
    let reaggregated =
        qismet_bench::reaggregate_runs_jsonl(&jsonl_path, &case.campaign.name, case.campaign.seed)
            .unwrap();
    assert_reports_bitwise_equal(&sequential, &reaggregated);

    // summary-only without a stream is refused outright.
    let err = run_campaign_distributed(
        &case.campaign,
        Some(launch(&case)),
        &DistributedOptions {
            workers: 1,
            summary_only: true,
            ..DistributedOptions::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, ClusterError::Io(_)),
        "unexpected error: {err}"
    );

    std::fs::remove_file(&jsonl_path).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    // For random small campaigns, sequential, threaded, and 2-process
    // sharded execution produce bitwise-identical reports.
    #[test]
    fn random_grids_agree_across_all_executors(
        seed in 0u64..u64::MAX,
        n_apps in 1usize..3,
        trials in 1usize..3,
    ) {
        let app_ids: Vec<u8> = (1..=n_apps as u8).collect();
        let case = grid_case("dist-prop", seed, &app_ids, trials, 20);
        let sequential = SweepExecutor::sequential().run(&case.campaign);
        let threaded = SweepExecutor::with_threads(2).run(&case.campaign);
        let (sharded, _) = run_campaign_distributed(
            &case.campaign,
            Some(launch(&case)),
            &DistributedOptions { workers: 2, ..DistributedOptions::default() },
        )
        .unwrap();
        assert_reports_bitwise_equal(&sequential, &threaded);
        assert_reports_bitwise_equal(&sequential, &sharded);
    }
}
