//! End-to-end measurement: whole campaigns in a closed loop (one campaign
//! at a time, each waited to completion), untraced.

use crate::workload::{self, median, quantile, Workload, SHARDED_WORKERS};
use crate::{Args, Metric, Outcome};
use qismet_bench::{
    run_campaign_distributed, run_one, Campaign, CampaignReport, DistributedOptions, ReportMeta,
    RunRecord, RunSpec, SweepExecutor,
};
use qismet_cluster::WorkerLaunch;
use qismet_qsim::BackendPool;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-up samples per run; `setup_s` is their median.
const SETUP_SAMPLES_IN_PROCESS: usize = 7;
const SETUP_SAMPLES_SHARDED: usize = 11;

/// Specs of the sharded campaign re-checked by [`check_sample`].
const SHARDED_SAMPLES: usize = 6;

/// One timed campaign.
struct Rep {
    wall: Duration,
    records: Vec<RunRecord>,
    /// Per-spec latencies (in-process workloads only).
    spec_latencies: Vec<Duration>,
}

pub fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let grid = w.grid(args.seed);
    let campaign = w.campaign(args.seed);
    let specs = campaign.expand();
    let launch = workload::worker_launch(&args.campaign_bin, &grid);
    let journal = args.work_dir.join(format!("{}-e2e.ckpt.jsonl", w.name()));
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Vec::new(),
    };

    let setups = match measure_setup(w, args.seed, &launch) {
        Ok(setups) => setups,
        Err(e) => {
            outcome.problems.push(e);
            return outcome;
        }
    };

    // Each campaign is checked as it finishes and only the first one's
    // records are kept, so memory does not grow with the campaign count.
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut first: Option<(u64, Vec<RunRecord>)> = None;
    let mut walls: Vec<Duration> = Vec::new();
    let mut latencies: Vec<Vec<Duration>> = Vec::new();
    while walls.is_empty() || started.elapsed() < budget {
        outcome.attempted += specs.len();
        let rep = match w {
            Workload::ShardedGrid => run_sharded(&campaign, &launch, &journal),
            Workload::PaperGrid | Workload::LongTuning => run_in_process(&campaign, &specs),
        };
        let rep = match rep {
            Ok(rep) => rep,
            Err(e) => {
                outcome.failed += specs.len();
                outcome.problems.push(e);
                break;
            }
        };
        let (failed, problem) = workload::check_records(&specs, &rep.records);
        outcome.failed += failed;
        outcome.problems.extend(problem);
        let digest = workload::records_digest(&rep.records);
        match &first {
            None => first = Some((digest, rep.records)),
            Some((d, _)) if *d != digest => {
                outcome.failed += specs.len();
                outcome
                    .problems
                    .push("repeated campaigns produced different records".into());
            }
            Some(_) => {}
        }
        walls.push(rep.wall);
        latencies.push(rep.spec_latencies);
    }
    let _ = std::fs::remove_file(&journal);
    let Some((_, records)) = first else {
        return outcome;
    };
    let shown: Vec<String> = walls
        .iter()
        .map(|d| format!("{:.3}", d.as_secs_f64()))
        .collect();
    println!(
        "measured {} campaign(s) of {} specs, wall s: {}",
        walls.len(),
        specs.len(),
        shown.join(" ")
    );
    workload::check_pin(w, args.seed, &records, &mut outcome);
    if w == Workload::ShardedGrid {
        check_sample(args.seed, &specs, &records, &mut outcome);
    }

    // Other tenants of a shared host slow whole stretches of a run, so rates
    // and per-spec latencies come from the fastest campaign (or the fastest
    // run of each spec): the program's speed when nothing contends.
    let best = *walls.iter().min().expect("at least one campaign");
    let iterations: usize = records.iter().map(|r| r.series.len()).sum();
    let spec_ms: Vec<f64> = match w {
        // Per-spec completion is not visible from outside the worker pool:
        // report each campaign's worker occupancy per spec instead.
        Workload::ShardedGrid => walls
            .iter()
            .map(|d| workload::ms(*d) * SHARDED_WORKERS as f64 / specs.len() as f64)
            .collect(),
        Workload::PaperGrid | Workload::LongTuning => (0..specs.len())
            .map(|i| {
                let fastest = latencies.iter().map(|l| l[i]).min();
                workload::ms(fastest.expect("at least one campaign"))
            })
            .collect(),
    };
    outcome.metrics = vec![
        Metric {
            name: "specs_per_s",
            value: specs.len() as f64 / best.as_secs_f64(),
            unit: "1/s",
        },
        Metric {
            name: "iters_per_s",
            value: iterations as f64 / best.as_secs_f64(),
            unit: "1/s",
        },
        Metric {
            name: "spec_ms_p50",
            value: quantile(&spec_ms, 0.5),
            unit: "ms",
        },
        Metric {
            name: "spec_ms_p90",
            value: quantile(&spec_ms, 0.9),
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: crate::rss::peak_mb().unwrap_or(f64::NAN),
            unit: "MB",
        },
        Metric {
            name: "fidelity_gain",
            value: workload::fidelity_gain(&records, workload::ground_energy()),
            unit: "ratio",
        },
    ];
    outcome
}

/// Times the set-up before the first tuning iteration, several times: grid
/// expansion, then in-process the first spec's application build (as the
/// scheme runner does it), and on `sharded-grid` spawning the workers and
/// completing their handshakes (the workers build their own apps).
fn measure_setup(w: Workload, seed: u64, launch: &WorkerLaunch) -> Result<Vec<f64>, String> {
    let samples = match w {
        Workload::ShardedGrid => SETUP_SAMPLES_SHARDED,
        Workload::PaperGrid | Workload::LongTuning => SETUP_SAMPLES_IN_PROCESS,
    };
    let mut setups = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        let campaign = w.campaign(seed);
        let specs = campaign.expand();
        let setup = if w == Workload::ShardedGrid {
            // The probe's clock stops before the workers are torn down.
            t.elapsed() + workload::handshake_probe(launch, SHARDED_WORKERS, &campaign)?
        } else {
            let first = &specs[0];
            let backend = BackendPool::new().backend_for(first.app.n_qubits);
            let capacity = first.iterations * 7 + 16;
            std::hint::black_box(first.app.build_with_backend(
                capacity,
                first.magnitude,
                first.seed,
                backend,
            ));
            t.elapsed()
        };
        setups.push(setup.as_secs_f64());
    }
    Ok(setups)
}

/// One campaign through the sweep executor, then its JSON report.
fn run_in_process(campaign: &Campaign, specs: &[RunSpec]) -> Result<Rep, String> {
    let started = Instant::now();
    let timed = SweepExecutor::new()
        .try_run_specs(specs, |spec| {
            let t = Instant::now();
            let record = run_one(spec);
            (record, t.elapsed())
        })
        .map_err(|e| e.to_string())?;
    let (records, spec_latencies): (Vec<RunRecord>, Vec<Duration>) = timed.into_iter().unzip();
    let report = CampaignReport {
        name: campaign.name.clone(),
        seed: campaign.seed,
        meta: ReportMeta::current(),
        records,
    };
    std::hint::black_box(serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?);
    Ok(Rep {
        wall: started.elapsed(),
        records: report.records,
        spec_latencies,
    })
}

/// One campaign across the worker processes with a fresh checkpoint
/// journal, then its JSON report.
fn run_sharded(campaign: &Campaign, launch: &WorkerLaunch, journal: &Path) -> Result<Rep, String> {
    let _ = std::fs::remove_file(journal);
    let opts = DistributedOptions {
        workers: SHARDED_WORKERS,
        checkpoint: Some(journal.to_path_buf()),
        ..DistributedOptions::default()
    };
    let started = Instant::now();
    let (report, _stats) = run_campaign_distributed(campaign, Some(launch.clone()), &opts)
        .map_err(|e| format!("distributed campaign: {e}"))?;
    std::hint::black_box(serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?);
    Ok(Rep {
        wall: started.elapsed(),
        records: report.records,
        spec_latencies: Vec::new(),
    })
}

/// Re-runs a few specs of the sharded campaign in-process and compares the
/// records byte for byte, so every seed is checked against the sequential
/// program.
fn check_sample(seed: u64, specs: &[RunSpec], records: &[RunRecord], outcome: &mut Outcome) {
    let stride = (specs.len() / SHARDED_SAMPLES).max(1);
    for k in 0..SHARDED_SAMPLES {
        let index = (seed as usize % stride + k * stride) % specs.len();
        outcome.attempted += 1;
        if !workload::same_record(&run_one(&specs[index]), &records[index]) {
            outcome.failed += 1;
            outcome.problems.push(format!(
                "sharded record {index} differs from in-process run_one"
            ));
        }
    }
}
