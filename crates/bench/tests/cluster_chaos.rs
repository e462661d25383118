//! Chaos suite for the hardened distributed executor: seeded
//! [`FaultPlan`]s injected into real `campaign --worker` processes (via the
//! hidden `--chaos-json` flag) must never change a byte of the merged
//! report — every run either completes bit-identical to sequential
//! execution or fails with a *typed* terminal error, and never hangs.
//!
//! Covered fault kinds: `Hang` (recovered via the assign deadline and
//! re-dispatch), `SlowFrames` (tolerated, no respawn), `TruncateFrame` /
//! `CorruptFrame` (survived via respawn), `CrashProcess` (every worker
//! process exits after each result and is respawned), and `PoisonSpec`
//! (isolated as `ClusterError::PoisonedSpecs` without exhausting the
//! respawn budget, then finished by a plan-free resume). The closing
//! proptest throws fully random seeded plans at random grids.

use proptest::prelude::*;
use qismet_bench::{
    run_campaign_distributed, Campaign, CampaignGrid, CampaignReport, DistributedOptions, Scheme,
    SweepExecutor,
};
use qismet_cluster::{load_journal, ClusterError, Fault, FaultKind, FaultPlan, WorkerLaunch};
use qismet_vqa::AppSpec;
use std::path::PathBuf;
use std::time::Duration;

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_campaign");

/// A grid campaign and the exact `campaign` CLI flags that rebuild it.
struct GridCase {
    campaign: Campaign,
    flags: Vec<String>,
}

fn grid_case(name: &str, seed: u64, trials: usize, iterations: usize) -> GridCase {
    let grid = CampaignGrid {
        apps: vec![AppSpec::by_id(1).unwrap()],
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
        "1",
        "--schemes",
        "baseline,qismet",
        "--iterations",
        &iterations.to_string(),
        "--trials",
        &trials.to_string(),
        "--seed",
        &seed.to_string(),
        // A fast heartbeat so slow-but-alive workers always outpace the
        // tight assign deadlines these tests use.
        "--heartbeat",
        "0.1",
        "--worker",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    GridCase { campaign, flags }
}

/// Launches the real worker binary with `plan` injected beneath its
/// transport — the same path `campaign --chaos-plan`/`--chaos-seed` uses.
fn chaotic_launch(case: &GridCase, plan: &FaultPlan) -> WorkerLaunch {
    let mut flags = case.flags.clone();
    flags.push("--chaos-json".into());
    flags.push(plan.to_json());
    WorkerLaunch::new(PathBuf::from(WORKER_BIN), flags)
}

fn clean_launch(case: &GridCase) -> WorkerLaunch {
    WorkerLaunch::new(PathBuf::from(WORKER_BIN), case.flags.clone())
}

fn everywhere(after_dones: usize, kind: FaultKind) -> FaultPlan {
    FaultPlan {
        faults: vec![Fault {
            worker: None,
            after_dones,
            kind,
        }],
    }
}

fn assert_reports_bitwise_equal(a: &CampaignReport, b: &CampaignReport) {
    assert_eq!(a, b);
    assert_eq!(
        serde_json::to_string_pretty(a).unwrap(),
        serde_json::to_string_pretty(b).unwrap()
    );
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "qismet-chaos-test-{tag}-{}.jsonl",
        std::process::id()
    ))
}

#[test]
fn hung_worker_hits_the_deadline_and_redispatch_keeps_the_report_identical() {
    // The only worker goes silent after every 2 results. Each hang is
    // detected by the 1 s assign deadline (the process is alive, so only a
    // deadline can see it), the held spec is re-dispatched, and the
    // respawned process carries on: 6 specs at 2 per session = exactly 2
    // deadline-driven respawns, and not a byte of drift.
    let case = grid_case("chaos-hang", 41, 3, 22);
    let (report, stats) = run_campaign_distributed(
        &case.campaign,
        Some(chaotic_launch(&case, &everywhere(2, FaultKind::Hang))),
        &DistributedOptions {
            workers: 1,
            assign_timeout: Some(Duration::from_secs(1)),
            ..DistributedOptions::default()
        },
    )
    .unwrap();
    assert_eq!(stats.executed, case.campaign.len());
    assert_eq!(stats.respawns, 2, "one respawn per mid-campaign hang");
    assert_eq!(stats.lost_workers, 0);
    let sequential = SweepExecutor::sequential().run(&case.campaign);
    assert_reports_bitwise_equal(&sequential, &report);
}

#[test]
fn slow_frames_straggler_is_tolerated_without_any_respawn() {
    // 25 ms of injected latency per frame is a straggler, not a failure:
    // well under the 500 ms deadline, so the session must ride it out.
    let case = grid_case("chaos-slow", 43, 2, 22);
    let (report, stats) = run_campaign_distributed(
        &case.campaign,
        Some(chaotic_launch(
            &case,
            &everywhere(1, FaultKind::SlowFrames(25)),
        )),
        &DistributedOptions {
            workers: 1,
            assign_timeout: Some(Duration::from_millis(500)),
            ..DistributedOptions::default()
        },
    )
    .unwrap();
    assert_eq!(stats.respawns, 0, "slowness must not be treated as loss");
    let sequential = SweepExecutor::sequential().run(&case.campaign);
    assert_reports_bitwise_equal(&sequential, &report);
}

#[test]
fn truncated_and_corrupted_frames_are_survived_by_respawn() {
    for (tag, kind) in [
        ("truncate", FaultKind::TruncateFrame),
        ("corrupt", FaultKind::CorruptFrame),
    ] {
        // After each session's first result the next frame arrives mangled
        // and the channel dies; the coordinator must classify that as a
        // channel loss (never accept garbage as data) and respawn.
        let case = grid_case(&format!("chaos-{tag}"), 47, 2, 22);
        let (report, stats) = run_campaign_distributed(
            &case.campaign,
            Some(chaotic_launch(&case, &everywhere(1, kind))),
            &DistributedOptions {
                workers: 1,
                max_respawns: 6,
                ..DistributedOptions::default()
            },
        )
        .unwrap();
        assert!(
            stats.respawns >= 1,
            "{tag}: the mangled frame must have cost at least one session"
        );
        let sequential = SweepExecutor::sequential().run(&case.campaign);
        assert_reports_bitwise_equal(&sequential, &report);
    }
}

#[test]
fn crashing_workers_respawn_and_the_report_is_unchanged() {
    // Every worker process exits(17) after one result, all campaign long;
    // the coordinator must keep respawning them through the whole
    // campaign.
    let case = grid_case("chaos-crash", 53, 3, 22);
    let (report, stats) = run_campaign_distributed(
        &case.campaign,
        Some(chaotic_launch(
            &case,
            &everywhere(1, FaultKind::CrashProcess),
        )),
        &DistributedOptions {
            workers: 2,
            max_respawns: 16,
            ..DistributedOptions::default()
        },
    )
    .unwrap();
    assert!(stats.respawns >= 1, "crashes must have forced respawns");
    let sequential = SweepExecutor::sequential().run(&case.campaign);
    assert_reports_bitwise_equal(&sequential, &report);
}

#[test]
fn poison_spec_is_isolated_without_exhausting_respawns_and_resume_completes() {
    let case = grid_case("chaos-poison", 59, 3, 22);
    let total = case.campaign.len();
    assert_eq!(total, 6);
    let journal_path = temp_journal("poison");
    let _ = std::fs::remove_file(&journal_path);

    // Both workers die instantly whenever spec 3 is assigned. The first
    // death re-dispatches it as a suspect singleton; two precisely
    // attributed strikes poison it. Blamed crashes don't charge the
    // respawn budget, so max_respawns=2 must survive the whole dance and
    // every other spec must complete and journal.
    let poison = everywhere(0, FaultKind::PoisonSpec(3));
    let err = run_campaign_distributed(
        &case.campaign,
        Some(chaotic_launch(&case, &poison)),
        &DistributedOptions {
            workers: 2,
            max_respawns: 2,
            checkpoint: Some(journal_path.clone()),
            ..DistributedOptions::default()
        },
    )
    .unwrap_err();
    match err {
        ClusterError::PoisonedSpecs { indices, completed } => {
            assert_eq!(indices, vec![3]);
            assert_eq!(completed, total - 1);
        }
        other => panic!("expected PoisonedSpecs, got {other}"),
    }
    let loaded = load_journal(&journal_path, case.campaign.fingerprint()).unwrap();
    assert_eq!(loaded.entries.len(), total - 1);

    // Fault fixed (no plan): resuming re-runs only the poisoned spec and
    // lands on the sequential bytes.
    let (report, stats) = run_campaign_distributed(
        &case.campaign,
        Some(clean_launch(&case)),
        &DistributedOptions {
            workers: 1,
            checkpoint: Some(journal_path.clone()),
            resume: true,
            ..DistributedOptions::default()
        },
    )
    .unwrap();
    assert_eq!(stats.resumed, total - 1);
    assert_eq!(stats.executed, 1);
    let sequential = SweepExecutor::sequential().run(&case.campaign);
    assert_reports_bitwise_equal(&sequential, &report);

    std::fs::remove_file(&journal_path).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    // The chaos contract, stated over *random* plans and grids: whatever
    // the injected fault sequence, the campaign either completes with a
    // report bit-identical to sequential execution or fails with one of
    // the typed terminal errors — never a hang (the assign deadline bounds
    // every wait), never silently wrong bytes.
    #[test]
    fn random_fault_plans_yield_identical_bytes_or_typed_errors(
        seed in 0u64..u64::MAX,
        chaos_seed in 0u64..u64::MAX,
        trials in 1usize..3,
    ) {
        let case = grid_case("chaos-prop", seed, trials, 20);
        let plan = FaultPlan::random(chaos_seed, 2, case.campaign.len());
        let result = run_campaign_distributed(
            &case.campaign,
            Some(chaotic_launch(&case, &plan)),
            &DistributedOptions {
                workers: 2,
                max_respawns: 6,
                assign_timeout: Some(Duration::from_secs(1)),
                quarantine_after: Some(8),
                ..DistributedOptions::default()
            },
        );
        match result {
            Ok((report, _)) => {
                let sequential = SweepExecutor::sequential().run(&case.campaign);
                assert_reports_bitwise_equal(&sequential, &report);
            }
            Err(
                ClusterError::WorkerLost { .. }
                | ClusterError::WorkerQuarantined { .. }
                | ClusterError::PoisonedSpecs { .. },
            ) => {}
            Err(other) => panic!("untyped terminal error under plan {}: {other}", plan.to_json()),
        }
    }
}
