//! Figure 19: sweeping the QISMET error threshold (99p conservative / 90p
//! best / 75p aggressive) on two simulated use cases with low and high
//! transient noise.
//!
//! Paper shape: conservative ~= baseline (skips too little to matter);
//! aggressive wins under high noise but *loses to the baseline* under low
//! noise (skips burn budget needlessly); the 90p best-case wins in both
//! (1.2x low, 3x high).

use qismet_bench::{
    f2, f4, print_table, scaled, write_csv, Campaign, ScenarioSpec, Scheme, SweepExecutor,
};
use qismet_vqa::{relative_expectation, AppSpec};

fn main() {
    let iterations = scaled(1750);
    let cases = [("low", 0.12_f64), ("high", 0.55_f64)];
    let schemes = [
        Scheme::QismetConservative,
        Scheme::Qismet,
        Scheme::QismetAggressive,
    ];
    let seed = 0xf19;
    let spec = AppSpec::by_id(2).expect("App2");

    // Grid: noise case x (baseline + threshold variants), one shared seed.
    let mut campaign = Campaign::new("fig19", seed);
    for (_, mag) in cases {
        campaign.push(
            ScenarioSpec::new(spec.clone(), Scheme::Baseline, iterations)
                .with_magnitude(mag)
                .seeded(seed),
        );
        for &scheme in &schemes {
            campaign.push(
                ScenarioSpec::new(spec.clone(), scheme, iterations)
                    .with_magnitude(mag)
                    .seeded(seed),
            );
        }
    }
    let report = SweepExecutor::with_threads(0).run(&campaign);

    let width = 1 + schemes.len();
    let mut all_rows = Vec::new();
    let mut rels = std::collections::HashMap::new();
    for (ci, (case, _)) in cases.iter().enumerate() {
        let base = report.single(ci * width);
        all_rows.push(vec![
            case.to_string(),
            "Baseline".to_string(),
            f4(base.final_energy),
            "1.00".to_string(),
            "0".to_string(),
        ]);
        for (si, &scheme) in schemes.iter().enumerate() {
            let out = report.single(ci * width + 1 + si);
            let rel = relative_expectation(out.final_energy, base.final_energy);
            rels.insert((*case, scheme.name()), rel);
            all_rows.push(vec![
                case.to_string(),
                scheme.name(),
                f4(out.final_energy),
                f2(rel),
                out.skips.to_string(),
            ]);
        }
        println!("... {case}-noise case done");
    }
    print_table(
        "Fig.19: QISMET threshold sweep under low/high transient noise",
        &["case", "scheme", "final_energy", "rel_baseline", "skips"],
        &all_rows,
    );
    write_csv(
        "fig19.csv",
        &["case", "scheme", "final_energy", "rel_baseline", "skips"],
        &all_rows,
    );

    let get = |case: &str, scheme: Scheme| rels[&(case, scheme.name())];
    let checks = [
        (
            "best (90p) helps under high noise",
            get("high", Scheme::Qismet) > 1.05,
        ),
        (
            "best (90p) >= conservative under high noise",
            get("high", Scheme::Qismet) >= get("high", Scheme::QismetConservative) - 0.05,
        ),
        (
            "aggressive <= best under low noise",
            get("low", Scheme::QismetAggressive) <= get("low", Scheme::Qismet) + 0.05,
        ),
        (
            "conservative ~= baseline under low noise",
            (get("low", Scheme::QismetConservative) - 1.0).abs() < 0.25,
        ),
    ];
    for (name, ok) in checks {
        println!("[shape] {name}: {}", if ok { "PASS" } else { "MISS" });
    }
}
