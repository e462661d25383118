//! Figure 11: QISMET vs baseline for a 6-qubit TFIM VQA on the Guadalupe
//! profile, ~270 iterations (the paper's 48-hour machine run).
//!
//! Paper shape: moderate transient phases hit the baseline (which partially
//! recovers from some, stagnates after others) while QISMET avoids them,
//! ending ~40% better.

use qismet_bench::{
    downsample, f4, final_window, scaled, write_csv, Campaign, ScenarioSpec, Scheme, SweepExecutor,
};
use qismet_qnoise::Machine;
use qismet_vqa::{improvement_percent, AppSpec};

fn main() {
    let iterations = scaled(270);
    let mut spec = AppSpec::by_id(2).expect("App2 shape");
    spec.machine = Machine::Guadalupe;

    let campaign = Campaign::new("fig11", 0xf11)
        .with(ScenarioSpec::new(spec.clone(), Scheme::Baseline, iterations).seeded(0xf11))
        .with(ScenarioSpec::new(spec, Scheme::Qismet, iterations).seeded(0xf11));
    let report = SweepExecutor::with_threads(0).run(&campaign);
    let base = report.single(0);
    let qis = report.single(1);

    println!(
        "Fig.11 | Guadalupe, {iterations} iterations (window {})\n",
        final_window(iterations)
    );
    println!("  iter   baseline   qismet");
    let b = downsample(&base.series, 30);
    let q = downsample(&qis.series, 30);
    for ((i, bv), (_, qv)) in b.iter().zip(q.iter()) {
        println!("  {i:>4}   {bv:+.4}   {qv:+.4}");
    }
    let rows: Vec<Vec<String>> = base
        .series
        .iter()
        .zip(qis.series.iter())
        .enumerate()
        .map(|(i, (&bv, &qv))| vec![i.to_string(), f4(bv), f4(qv)])
        .collect();
    write_csv(
        "fig11_series.csv",
        &["iteration", "baseline", "qismet"],
        &rows,
    );

    let imp = improvement_percent(qis.final_energy, base.final_energy);
    println!(
        "\nfinal: baseline {:.4}, qismet {:.4} -> improvement {:.0}% (paper: ~40%)",
        base.final_energy, qis.final_energy, imp
    );
    println!(
        "qismet skips: {} of {} attempts",
        qis.skips,
        iterations + qis.skips
    );
    println!(
        "[shape] QISMET improves over baseline: {}",
        if imp > 5.0 { "PASS" } else { "MISS" }
    );
}
