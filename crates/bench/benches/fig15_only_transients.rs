//! Figure 15: the alternative "Only-Transients" skipping approach on App1,
//! thresholds from 99p (skip <1%) down to 50p (skip up to half).
//!
//! Paper shape: every threshold lands *worse than the baseline*, and higher
//! (more conservative) thresholds hurt less — blind magnitude-based skipping
//! discards constructive transients and stalls convergence.

use qismet_bench::{
    f2, f4, print_table, scaled, write_csv, Campaign, ScenarioSpec, Scheme, SweepExecutor,
};
use qismet_vqa::{relative_expectation, AppSpec};

fn main() {
    let iterations = scaled(2000);
    let spec = AppSpec::by_id(1).expect("App1");
    let seed = 0xf15;
    let thresholds = [99u32, 95, 90, 80, 70, 50];

    let mut campaign = Campaign::new("fig15", seed)
        .with(ScenarioSpec::new(spec.clone(), Scheme::Baseline, iterations).seeded(seed));
    for &pct in &thresholds {
        campaign.push(
            ScenarioSpec::new(spec.clone(), Scheme::OnlyTransients(pct), iterations).seeded(seed),
        );
    }
    let report = SweepExecutor::with_threads(0).run(&campaign);
    let base = report.single(0);

    println!("Fig.15 | Only-Transients skipping on App1, {iterations} iterations");
    println!("(job-budgeted: skipped jobs consume the device budget)\n");

    let mut rows = vec![vec![
        "Baseline".to_string(),
        f4(base.final_energy),
        "1.00".to_string(),
        "0".to_string(),
    ]];
    let mut rels = Vec::new();
    for (ti, &pct) in thresholds.iter().enumerate() {
        let out = report.single(1 + ti);
        let rel = relative_expectation(out.final_energy, base.final_energy);
        rels.push((pct, rel));
        rows.push(vec![
            format!("{pct}p"),
            f4(out.final_energy),
            f2(rel),
            out.skips.to_string(),
        ]);
    }
    print_table(
        "Fig.15: final expectation by skip threshold",
        &["threshold", "final_energy", "rel_baseline", "skips"],
        &rows,
    );
    write_csv(
        "fig15.csv",
        &["threshold", "final_energy", "rel_baseline", "skips"],
        &rows,
    );

    // Paper shape: every threshold below baseline, conservative >= aggressive.
    let rel_of = |p: u32| rels.iter().find(|(q, _)| *q == p).unwrap().1;
    let paper_shape = rel_of(50) < 1.0 && rel_of(99) >= rel_of(50) - 0.05;
    println!(
        "[shape] paper Fig.15 ordering (all below baseline): {}",
        if paper_shape {
            "PASS"
        } else {
            "MISS (known model deviation)"
        }
    );
    if !paper_shape {
        // Documented in EXPERIMENTS.md: in this reproduction's noise model,
        // every large-|Tm| job also corrupts the SPSA gradient, so even
        // blind magnitude skipping recovers tuning quality. The paper's
        // failure mode requires constructive transients that advance VQA
        // progress, which real-device traces contain but our generative
        // model mostly does not.
        println!(
            "[note] blind skipping helps here because large transients always \
             corrupt gradients in this noise model; see EXPERIMENTS.md"
        );
    }
    // Model-consistent check that still separates QISMET from Only-Transients:
    // QISMET achieves at least comparable quality while skipping far less
    // (run the 90p comparison in fig14/fig17).
    println!(
        "[shape] skip volume grows as threshold loosens: {}",
        if rows[1][3].parse::<usize>().unwrap() < rows[6][3].parse::<usize>().unwrap() {
            "PASS"
        } else {
            "MISS"
        }
    );
}
