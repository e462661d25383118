//! Diagnostic probe (not a paper figure): multi-seed baseline-vs-QISMET
//! comparison with skip/burst alignment statistics. Used to validate the
//! noise calibration that the figure benches rely on.

use qismet::{run_qismet, QismetConfig};
use qismet_bench::{build_objective, f4, print_table, SweepExecutor};
use qismet_optim::{GainSchedule, Spsa};
use qismet_vqa::{run_tuning, AppSpec, TuningScheme};

/// One seed's baseline/QISMET comparison (unbudgeted QISMET, by design:
/// the probe studies skip/burst alignment, not device-budget accounting).
struct ProbeOutcome {
    row: Vec<String>,
    ratio: f64,
}

fn probe_seed(spec: &AppSpec, iterations: usize, seed: u64) -> ProbeOutcome {
    let master = 0x9999 + seed;
    // Baseline.
    let mut obj_b = build_objective(spec, iterations, None, master);
    let theta0 = {
        let app = spec.build(8, None, master);
        app.theta0
    };
    let mut spsa_b = Spsa::new(theta0.len(), GainSchedule::vqa_paper(), 1 + seed);
    let brec = run_tuning(
        &mut spsa_b,
        &mut obj_b,
        theta0.clone(),
        iterations,
        TuningScheme::Baseline,
    );
    // QISMET.
    let mut obj_q = build_objective(spec, iterations, None, master);
    let mut spsa_q = Spsa::new(theta0.len(), GainSchedule::vqa_paper(), 1 + seed);
    let qrec = run_qismet(
        &mut spsa_q,
        &mut obj_q,
        theta0,
        iterations,
        QismetConfig::paper_default(),
    );
    let half = iterations / 2;
    let b_mean = qismet_mathkit::mean(&brec.measured[half..]);
    let q_mean = qismet_mathkit::mean(&qrec.record.measured[half..]);
    let b_exact = qismet_mathkit::mean(&brec.exact[half..]);
    let q_exact = qismet_mathkit::mean(&qrec.record.exact[half..]);
    // How well do skips align with bursts? Check the |trace| value at
    // skipped jobs vs overall.
    ProbeOutcome {
        row: vec![
            seed.to_string(),
            f4(b_mean),
            f4(q_mean),
            f4(b_exact),
            f4(q_exact),
            qrec.skips.to_string(),
            qrec.forced_accepts.to_string(),
            format!("{:.2}", q_mean / b_mean),
        ],
        ratio: q_mean / b_mean,
    }
}

fn main() {
    let iterations = 1200;
    let spec = AppSpec::by_id(5).expect("App5 (Cairo, severe)");
    let seeds: Vec<u64> = (0..5).collect();
    let outcomes = SweepExecutor::with_threads(0)
        .run_specs(&seeds, |&seed| probe_seed(&spec, iterations, seed));
    let rows: Vec<Vec<String>> = outcomes.iter().map(|o| o.row.clone()).collect();
    let ratios: Vec<f64> = outcomes.iter().map(|o| o.ratio).collect();
    print_table(
        "probe: App5 (severe), mean over 2nd half, 5 seeds",
        &[
            "seed",
            "base_meas",
            "qis_meas",
            "base_exact",
            "qis_exact",
            "skips",
            "forced",
            "ratio",
        ],
        &rows,
    );
    println!(
        "geomean ratio (qismet/baseline, >1 is better): {:.3}",
        qismet_mathkit::geomean(&ratios)
    );
}
