//! The telemetry no-perturbation guarantee, pinned: campaign reports with
//! metric recording (and tracing) enabled are **byte-identical** to runs
//! with telemetry off — sequentially, threaded, and across a
//! real 2-process cluster whose workers piggyback stats on `Done` frames.
//!
//! Telemetry only observes (wall-clock samples, counter bumps); no
//! simulation or scheduling decision may read it. These tests are the
//! enforcement: any instrumentation hook that leaks into results breaks
//! them bitwise.

use proptest::prelude::*;
use qismet_bench::{
    run_campaign_distributed, Campaign, CampaignGrid, CampaignReport, DistributedOptions, Scheme,
    SweepExecutor,
};
use qismet_cluster::WorkerLaunch;
use qismet_vqa::AppSpec;
use std::path::PathBuf;
use std::sync::Mutex;

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_campaign");

/// The telemetry gate is process-global, so identity tests serialize here
/// to keep `cargo test`'s parallel runner from interleaving one test's
/// toggle with another's run. (The assertions would hold anyway — that is
/// the invariant under test — but serialized runs keep a failure
/// unambiguous.)
static GATE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

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

fn report_bytes(report: &CampaignReport) -> String {
    serde_json::to_string_pretty(report).unwrap()
}

/// Runs `f` twice — telemetry fully off, then metrics *and* tracing on —
/// and asserts the two reports serialize to identical bytes. Leaves the
/// process with telemetry off and counters reset.
fn assert_identity_under_gate(f: impl Fn() -> CampaignReport) {
    qismet_telemetry::set_enabled(false);
    qismet_telemetry::set_trace_enabled(false);
    qismet_telemetry::reset();
    let off = f();
    qismet_telemetry::set_enabled(true);
    qismet_telemetry::set_trace_enabled(true);
    let on = f();
    qismet_telemetry::set_enabled(false);
    qismet_telemetry::set_trace_enabled(false);
    qismet_telemetry::reset();
    assert_eq!(
        report_bytes(&off),
        report_bytes(&on),
        "telemetry perturbed the campaign report"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    // Sequential in-process runs: metrics/tracing on vs off, byte-identical.
    #[test]
    fn sequential_reports_identical_with_telemetry_on(
        seed in 0u64..u64::MAX,
        trials in 1usize..3,
    ) {
        let _g = lock();
        let case = grid_case("telem-seq", seed, &[1], trials, 20);
        assert_identity_under_gate(|| SweepExecutor::sequential().run(&case.campaign));
    }

    // Threaded executor (degenerates to sequential without the `parallel`
    // feature — the identity must hold in both configs).
    #[test]
    fn threaded_reports_identical_with_telemetry_on(
        seed in 0u64..u64::MAX,
    ) {
        let _g = lock();
        let case = grid_case("telem-thr", seed, &[1, 2], 1, 20);
        assert_identity_under_gate(|| SweepExecutor::with_threads(2).run(&case.campaign));
    }

    // Ten specs over three executor threads: workers finish unevenly, so
    // per-worker counters and histograms interleave in varying order.
    #[test]
    fn uneven_threaded_reports_identical_with_telemetry_on(
        seed in 0u64..u64::MAX,
    ) {
        let _g = lock();
        let case = grid_case("telem-uneven", seed, &[1], 5, 20);
        assert_identity_under_gate(|| SweepExecutor::with_threads(3).run(&case.campaign));
    }
}

// A real 2-process cluster: coordinator telemetry on vs off. (Workers
// always run with telemetry on to piggyback stats — the wire extras must
// never reach the records either.)
#[test]
fn two_process_cluster_reports_identical_with_telemetry_on() {
    let _g = lock();
    let case = grid_case("telem-dist", 4242, &[1], 2, 22);
    let launch = WorkerLaunch::new(PathBuf::from(WORKER_BIN), case.flags.clone());
    assert_identity_under_gate(|| {
        let (report, _stats) = run_campaign_distributed(
            &case.campaign,
            Some(launch.clone()),
            &DistributedOptions {
                workers: 2,
                ..DistributedOptions::default()
            },
        )
        .unwrap();
        report
    });
}
