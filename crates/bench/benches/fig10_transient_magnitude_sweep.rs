//! Figure 10: VQA on the simulator with the transient-noise model injected
//! at magnitudes 0 / 2.5 / 12.5 / 20 / 25 / 50 % of the ideal objective
//! magnitude, 2000 SPSA iterations.
//!
//! Paper shape: accuracy and convergence degrade monotonically as the
//! transient magnitude grows; 2.5% is near-indistinguishable from
//! transient-free while 50% is crippled.
//!
//! As an extension, the same sweep is also run under QISMET, showing how
//! much of the degradation iteration-skipping claws back at each magnitude.

use qismet_bench::{
    downsample, f4, final_window, print_table, scaled, write_csv, Campaign, ScenarioSpec, Scheme,
    SweepExecutor,
};
use qismet_vqa::AppSpec;

fn main() {
    let iterations = scaled(2000);
    let seed = 0xf10;
    // A Guadalupe-trace app (App2's machine) mirrors the paper's setup.
    let spec = AppSpec::by_id(2).expect("App2 exists");
    let magnitudes = [0.0, 0.025, 0.125, 0.20, 0.25, 0.50];

    // Declarative sweep: magnitude x {Baseline, QISMET}, one fixed seed so
    // every magnitude sees the same optimizer stream.
    let mut campaign = Campaign::new("fig10", seed);
    for &mag in &magnitudes {
        for scheme in [Scheme::Baseline, Scheme::Qismet] {
            campaign.push(
                ScenarioSpec::new(spec.clone(), scheme, iterations)
                    .with_magnitude(mag)
                    .seeded(seed),
            );
        }
    }

    println!(
        "Fig.10 | transient magnitude sweep on App2, SPSA, {iterations} iterations, \
         final window {}",
        final_window(iterations)
    );

    let report = SweepExecutor::with_threads(0).run(&campaign);

    let mut rows = Vec::new();
    let mut series_rows = Vec::new();
    for (mi, &mag) in magnitudes.iter().enumerate() {
        let base = report.single(2 * mi);
        let qis = report.single(2 * mi + 1);
        rows.push(vec![
            format!("{:.1}%", mag * 100.0),
            f4(base.final_energy),
            f4(qis.final_energy),
            qis.skips.to_string(),
        ]);
        for (i, v) in downsample(&base.series, 100) {
            series_rows.push(vec![format!("{:.1}%", mag * 100.0), i.to_string(), f4(v)]);
        }
    }
    print_table(
        "Fig.10: final VQE expectation vs transient magnitude",
        &[
            "magnitude",
            "baseline_final",
            "qismet_final (ext)",
            "qismet_skips",
        ],
        &rows,
    );
    write_csv(
        "fig10_summary.csv",
        &[
            "magnitude",
            "baseline_final",
            "qismet_final",
            "qismet_skips",
        ],
        &rows,
    );
    write_csv(
        "fig10_series.csv",
        &["magnitude", "iteration", "energy"],
        &series_rows,
    );

    // Shape check: baseline final energies should worsen monotonically with
    // magnitude (allowing small non-monotonic wiggle at adjacent points).
    let finals: Vec<f64> = rows
        .iter()
        .map(|r| r[1].parse::<f64>().expect("numeric"))
        .collect();
    let ok = finals[0] < finals[5] && finals[1] < finals[5] && finals[0] <= finals[1] + 0.3;
    println!(
        "[shape] degradation grows with magnitude (0% best, 50% worst): {}",
        if ok { "PASS" } else { "MISS" }
    );
}
