//! Figure 5: extreme impact of transient errors on VQA tuning — a baseline
//! run on the Jakarta profile showing multiple sharp spikes, where the
//! expectation value at iteration 500 is no better than at iteration 100.

use qismet_bench::{
    downsample, f4, scaled, write_csv, Campaign, ScenarioSpec, Scheme, SweepExecutor,
};
use qismet_qnoise::Machine;
use qismet_vqa::{count_spikes, AppSpec};

fn main() {
    let iterations = scaled(500);
    // A Jakarta-trace app: App1's shape (SU2 reps=2) on the Jakarta machine.
    let spec = AppSpec::by_id(1).expect("App1");
    let campaign = Campaign::new("fig05", 0xf05).with(
        ScenarioSpec::new(spec, Scheme::Baseline, iterations)
            .on_machine(Machine::Jakarta)
            .seeded(0xf05),
    );
    let report = SweepExecutor::with_threads(0).run(&campaign);
    let out = report.single(0);

    println!("Fig.5 | baseline VQA on Jakarta profile, {iterations} iterations\n");
    for (i, v) in downsample(&out.series, 50) {
        println!("  iter {i:>4}  E = {v:+.4}");
    }
    let rows: Vec<Vec<String>> = out
        .series
        .iter()
        .enumerate()
        .map(|(i, &v)| vec![i.to_string(), f4(v)])
        .collect();
    write_csv("fig05_series.csv", &["iteration", "energy"], &rows);

    let spikes = count_spikes(&out.series, 10, 0.8);
    let e100 =
        qismet_mathkit::mean(&out.series[90.min(out.series.len() - 1)..100.min(out.series.len())]);
    let tail = out.series.len();
    let e_end = qismet_mathkit::mean(&out.series[tail - 10..]);
    println!("\nspikes detected: {spikes}");
    println!("E(~100) = {e100:.3} vs E(end) = {e_end:.3}");

    // Shape: multiple sharp spikes; limited 100->end improvement.
    let benefit = e100 - e_end; // positive = improved
    let checks = [
        ("multiple sharp spikes", spikes >= 3),
        (
            "100th -> end benefit small (transients stall progress)",
            benefit < 0.5 * e100.abs().max(0.5),
        ),
    ];
    for (name, ok) in checks {
        println!("[shape] {name}: {}", if ok { "PASS" } else { "MISS" });
    }
}
