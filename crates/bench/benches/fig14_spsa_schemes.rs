//! Figure 14: simulating VQA with transient errors for App2 using the SPSA
//! tuner over 2000 iterations — QISMET vs Baseline, Blocking, Resampling and
//! 2nd-order SPSA.
//!
//! Paper shape to reproduce: QISMET best (~65% better than baseline);
//! Blocking and Resampling some improvement; 2nd-order *worse* than the
//! baseline.

use qismet_bench::{
    downsample, f2, f4, final_window, print_table, scaled, write_csv, Campaign, RunRecord,
    ScenarioSpec, Scheme, SweepExecutor,
};
use qismet_vqa::{relative_expectation, AppSpec};

fn main() {
    let iterations = scaled(2000);
    let seed = 0xf14;
    let spec = AppSpec::by_id(2).expect("App2 exists");
    let schemes = [
        Scheme::Baseline,
        Scheme::Qismet,
        Scheme::Blocking,
        Scheme::Resampling,
        Scheme::SecondOrder,
    ];

    let mut campaign = Campaign::new("fig14", seed);
    for &s in &schemes {
        campaign.push(ScenarioSpec::new(spec.clone(), s, iterations).seeded(seed));
    }

    println!(
        "Fig.14 | App2 (RA reps=4, Guadalupe trace), SPSA, {iterations} iterations, \
         final window {}",
        final_window(iterations)
    );

    let report = SweepExecutor::with_threads(0).run(&campaign);
    let outcomes: Vec<&RunRecord> = report.records.iter().collect();
    let baseline_final = outcomes[0].final_energy;

    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.scheme.clone(),
                f4(o.final_energy),
                f2(relative_expectation(o.final_energy, baseline_final)),
                o.jobs.to_string(),
                o.evals.to_string(),
                o.skips.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fig.14: App2 final VQE expectation by scheme",
        &[
            "scheme",
            "final_energy",
            "rel_baseline",
            "jobs",
            "evals",
            "skips",
        ],
        &rows,
    );
    write_csv(
        "fig14_summary.csv",
        &[
            "scheme",
            "final_energy",
            "rel_baseline",
            "jobs",
            "evals",
            "skips",
        ],
        &rows,
    );

    // Convergence series (downsampled) for plotting.
    let mut series_rows = Vec::new();
    for o in &outcomes {
        for (i, v) in downsample(&o.series, 100) {
            series_rows.push(vec![o.scheme.clone(), i.to_string(), f4(v)]);
        }
    }
    write_csv(
        "fig14_series.csv",
        &["scheme", "iteration", "energy"],
        &series_rows,
    );

    // Shape assertions (soft): report pass/fail without aborting the bench.
    let get = |s: Scheme| {
        outcomes
            .iter()
            .find(|o| o.scheme == s.name())
            .expect("scheme present")
            .final_energy
    };
    let checks = [
        (
            "QISMET best overall",
            schemes[1..].iter().all(|&s| get(Scheme::Qismet) <= get(s))
                && get(Scheme::Qismet) < baseline_final,
        ),
        (
            "QISMET beats baseline",
            get(Scheme::Qismet) < baseline_final,
        ),
        (
            "2nd-order worse than baseline",
            get(Scheme::SecondOrder) >= baseline_final,
        ),
    ];
    for (name, ok) in checks {
        println!("[shape] {name}: {}", if ok { "PASS" } else { "MISS" });
    }
}
