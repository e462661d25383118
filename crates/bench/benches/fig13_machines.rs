//! Figure 13: QISMET benefit across six machines (Guadalupe, Toronto,
//! Sydney, Casablanca, Jakarta, Mumbai), each run for the iteration count
//! machine availability allowed (200-450 in the paper).
//!
//! Paper shape: QISMET improves the measured VQE expectation on every
//! machine, 1.27x-1.51x, geomean ~1.39x.

use qismet_bench::{
    f2, f4, print_table, scaled, write_csv, Campaign, ScenarioSpec, Scheme, SweepExecutor,
};
use qismet_qnoise::Machine;
use qismet_vqa::{relative_expectation, AppSpec};

fn main() {
    // Per-machine iteration counts mirroring the paper's bars.
    let iters: [(Machine, usize); 6] = [
        (Machine::Guadalupe, 270),
        (Machine::Toronto, 450),
        (Machine::Sydney, 350),
        (Machine::Casablanca, 220),
        (Machine::Jakarta, 320),
        (Machine::Mumbai, 330),
    ];
    // Three trials per machine (the VQE basin lottery is large at 200-450
    // iterations); report the mean final energies. Seeds follow the fixed
    // per-machine convention so results match the historical harness.
    let mut campaign = Campaign::new("fig13", 0xf13);
    for (machine, its) in iters {
        let mut spec = AppSpec::by_id(2).expect("App2 shape");
        spec.machine = machine;
        for scheme in [Scheme::Baseline, Scheme::Qismet] {
            campaign.push(
                ScenarioSpec::new(spec.clone(), scheme, scaled(its))
                    .seeded(0xf13 + machine.seed_stream())
                    .with_trials(3),
            );
        }
    }
    let report = SweepExecutor::with_threads(0).run(&campaign);

    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for (mi, (machine, its)) in iters.iter().enumerate() {
        let iterations = scaled(*its);
        let base_mean = report.mean_final(2 * mi);
        let qis_mean = report.mean_final(2 * mi + 1);
        let skips = report.total_skips(2 * mi + 1);
        let rel = relative_expectation(qis_mean, base_mean);
        ratios.push(rel);
        rows.push(vec![
            machine.name().to_string(),
            iterations.to_string(),
            f4(base_mean),
            f4(qis_mean),
            f2(rel),
            (skips / 3).to_string(),
        ]);
    }
    let geo = qismet_mathkit::geomean(&ratios);
    rows.push(vec![
        "Geomean".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        f2(geo),
        "-".into(),
    ]);
    print_table(
        "Fig.13: QISMET vs baseline across machines",
        &[
            "machine",
            "iters",
            "baseline",
            "qismet",
            "rel_baseline",
            "skips",
        ],
        &rows,
    );
    write_csv(
        "fig13.csv",
        &[
            "machine",
            "iters",
            "baseline",
            "qismet",
            "rel_baseline",
            "skips",
        ],
        &rows,
    );
    println!("\ngeomean improvement: {geo:.2}x (paper: ~1.39x, range 1.27-1.51)");
    let all_improve = ratios.iter().all(|&r| r > 1.0);
    println!(
        "[shape] QISMET improves on every machine: {}",
        if all_improve { "PASS" } else { "MISS" }
    );
    println!(
        "[shape] geomean in plausible band (1.1-3x): {}",
        if geo > 1.1 && geo < 3.0 {
            "PASS"
        } else {
            "MISS"
        }
    );
}
