//! Figure 16: Kalman filtering vs QISMET vs baseline on App6, 500
//! iterations, with the (MV, T) hyper-parameter grid of the paper.
//!
//! Paper shape: good Kalman settings beat the baseline somewhat (up to
//! ~1.4x) but sit well below QISMET (~3x better than the best Kalman);
//! low-MV instances chase transients, high-MV instances saturate early, and
//! T < 1 drags the estimate toward zero.

use qismet_bench::{
    f2, f4, print_table, scaled, write_csv, Campaign, ScenarioSpec, Scheme, SweepExecutor,
};
use qismet_filters::KalmanFilter;
use qismet_vqa::{relative_expectation, AppSpec};

fn main() {
    let iterations = scaled(500);
    let spec = AppSpec::by_id(6).expect("App6");
    let seed = 0xf16;

    let mut campaign = Campaign::new("fig16", seed)
        .with(ScenarioSpec::new(spec.clone(), Scheme::Baseline, iterations).seeded(seed))
        .with(ScenarioSpec::new(spec.clone(), Scheme::Qismet, iterations).seeded(seed));
    for filter in KalmanFilter::fig16_grid() {
        campaign.push(ScenarioSpec::kalman(spec.clone(), filter, iterations).seeded(seed));
    }
    let report = SweepExecutor::with_threads(0).run(&campaign);
    let base = report.single(0);
    let qis = report.single(1);

    let mut rows = vec![
        vec![
            "Base".to_string(),
            f4(base.final_energy),
            "1.00".to_string(),
        ],
        vec![
            "Qismet".to_string(),
            f4(qis.final_energy),
            f2(relative_expectation(qis.final_energy, base.final_energy)),
        ],
    ];
    let mut best_kalman = f64::INFINITY;
    for record in &report.records[2..] {
        best_kalman = best_kalman.min(record.final_energy);
        rows.push(vec![
            record.label.clone(),
            f4(record.final_energy),
            f2(relative_expectation(record.final_energy, base.final_energy)),
        ]);
    }
    print_table(
        "Fig.16: Kalman grid vs QISMET vs baseline (App6)",
        &["scheme", "final_energy", "rel_baseline"],
        &rows,
    );
    write_csv(
        "fig16.csv",
        &["scheme", "final_energy", "rel_baseline"],
        &rows,
    );

    let qis_vs_kal = qis.final_energy / best_kalman;
    println!(
        "\nbest Kalman {best_kalman:.4}; QISMET/bestKalman = {qis_vs_kal:.2} (paper: ~3x; >1 means QISMET better)"
    );
    let checks = [
        ("QISMET beats best Kalman", qis.final_energy < best_kalman),
        (
            "QISMET beats baseline",
            qis.final_energy < base.final_energy,
        ),
    ];
    for (name, ok) in checks {
        println!("[shape] {name}: {}", if ok { "PASS" } else { "MISS" });
    }
}
