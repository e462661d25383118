//! Figure 12: QISMET vs baseline on the Sydney profile, ~350 iterations.
//!
//! Paper shape: Sydney is smooth for most of the run with one sharp
//! turbulent phase; QISMET skips through it and continues steady progress
//! (~50% improvement).

use qismet_bench::{
    downsample, f4, scaled, write_csv, Campaign, ScenarioSpec, Scheme, SweepExecutor,
};
use qismet_qnoise::Machine;
use qismet_vqa::{improvement_percent, AppSpec};

fn main() {
    let iterations = scaled(350);
    let mut spec = AppSpec::by_id(2).expect("App2 shape");
    spec.machine = Machine::Sydney;

    let campaign = Campaign::new("fig12", 0xf12)
        .with(ScenarioSpec::new(spec.clone(), Scheme::Baseline, iterations).seeded(0xf12))
        .with(ScenarioSpec::new(spec, Scheme::Qismet, iterations).seeded(0xf12));
    let report = SweepExecutor::with_threads(0).run(&campaign);
    let base = report.single(0);
    let qis = report.single(1);

    println!("Fig.12 | Sydney, {iterations} iterations\n");
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
        "fig12_series.csv",
        &["iteration", "baseline", "qismet"],
        &rows,
    );

    let imp = improvement_percent(qis.final_energy, base.final_energy);
    println!(
        "\nfinal: baseline {:.4}, qismet {:.4} -> improvement {:.0}% (paper: ~50%)",
        base.final_energy, qis.final_energy, imp
    );
    println!("qismet skips: {}", qis.skips);
    println!(
        "[shape] QISMET improves over baseline: {}",
        if imp > 5.0 { "PASS" } else { "MISS" }
    );
    // Sydney is calm: QISMET should skip less here than on turbulent
    // machines at the same servo target would imply bursts-wise.
    println!(
        "[shape] skips bounded by servo target (~10% + retries): {}",
        if qis.skips < iterations / 4 {
            "PASS"
        } else {
            "MISS"
        }
    );
}
