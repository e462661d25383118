//! Figure 17: all six Table 1 applications x {QISMET, Blocking, Resampling,
//! 2nd-order, Kalman-best}, 2000 SPSA iterations, relative to the baseline.
//!
//! Paper shape: QISMET consistently best (geomean ~2x, up to ~3x);
//! Blocking/Resampling modest and inconsistent (worse than baseline on some
//! apps); 2nd-order consistently below baseline; Kalman-best a small win.

use qismet_bench::{
    f2, print_table, scaled, write_csv, Campaign, ScenarioSpec, Scheme, SweepExecutor,
};
use qismet_vqa::{relative_expectation, AppSpec};

fn main() {
    let iterations = scaled(2000);
    let schemes = [
        Scheme::Qismet,
        Scheme::Blocking,
        Scheme::Resampling,
        Scheme::SecondOrder,
        Scheme::KalmanBest,
    ];
    let apps = AppSpec::table1();

    // Declarative grid: per app, the baseline plus every comparison scheme,
    // at the app's historical fixed seed.
    let mut campaign = Campaign::new("fig17", 0xf17);
    for spec in &apps {
        let seed = 0xf17 + spec.id as u64;
        campaign.push(ScenarioSpec::new(spec.clone(), Scheme::Baseline, iterations).seeded(seed));
        for &scheme in &schemes {
            campaign.push(ScenarioSpec::new(spec.clone(), scheme, iterations).seeded(seed));
        }
    }
    let report = SweepExecutor::with_threads(0).run(&campaign);

    let width = 1 + schemes.len();
    let mut rows = Vec::new();
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for (ai, spec) in apps.iter().enumerate() {
        let base = report.single(ai * width);
        let mut row = vec![spec.name()];
        for (si, rels) in per_scheme.iter_mut().enumerate() {
            let out = report.single(ai * width + 1 + si);
            let rel = relative_expectation(out.final_energy, base.final_energy);
            rels.push(rel);
            row.push(f2(rel));
        }
        rows.push(row);
        println!("... {} done", rows.last().unwrap()[0]);
    }
    let mut geo_row = vec!["Geomean".to_string()];
    let mut geos = Vec::new();
    for rels in &per_scheme {
        let g = qismet_mathkit::geomean(rels);
        geos.push(g);
        geo_row.push(f2(g));
    }
    rows.push(geo_row);

    let headers = [
        "app",
        "QISMET",
        "Blocking",
        "Resampling",
        "2nd-order",
        "Kalman(Best)",
    ];
    print_table("Fig.17: VQE expectation rel. baseline", &headers, &rows);
    write_csv("fig17.csv", &headers, &rows);

    println!(
        "\npaper geomeans: QISMET 1.98, Blocking 1.32, Resampling 1.25, 2nd-order 0.89, Kalman 1.07"
    );
    let qis = &per_scheme[0];
    let checks = [
        (
            "QISMET beats baseline on every app",
            qis.iter().all(|&r| r > 1.0),
        ),
        (
            "QISMET geomean highest",
            geos[1..].iter().all(|&g| geos[0] >= g),
        ),
        ("2nd-order below baseline", geos[3] < 1.0),
        (
            "QISMET geomean in 1.3-3x band",
            geos[0] > 1.3 && geos[0] < 3.2,
        ),
    ];
    for (name, ok) in checks {
        println!("[shape] {name}: {}", if ok { "PASS" } else { "MISS" });
    }
}
