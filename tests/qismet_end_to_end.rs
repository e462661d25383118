//! Integration: the headline result end to end — QISMET vs baseline on a
//! turbulent machine profile, multiple seeds, equal job budgets.

use qismet::{run_qismet_budgeted, QismetConfig};
use qismet_optim::{GainSchedule, Spsa};
use qismet_vqa::{run_tuning, AppSpec, TuningScheme};

#[test]
fn qismet_beats_baseline_on_turbulent_machine() {
    let budget = 500;
    let spec = AppSpec::by_id(5).unwrap(); // Cairo profile, severe transients
    let mut ratios = Vec::new();
    for seed in 0..3u64 {
        let master = 0xe2e + seed;
        let mut app = spec.build(budget * 7 + 16, None, master);
        let theta0 = app.theta0.clone();
        let mut spsa = Spsa::new(theta0.len(), GainSchedule::vqa_paper(), seed);
        let base = run_tuning(
            &mut spsa,
            &mut app.objective,
            theta0.clone(),
            budget,
            TuningScheme::Baseline,
        );
        let mut app = spec.build(budget * 7 + 16, None, master);
        let mut spsa = Spsa::new(theta0.len(), GainSchedule::vqa_paper(), seed);
        let qis = run_qismet_budgeted(
            &mut spsa,
            &mut app.objective,
            theta0,
            budget,
            budget + 1,
            QismetConfig::paper_default(),
        );
        let window = 25;
        let b = base.final_energy(window);
        let q = qis
            .record
            .final_energy(window.min(qis.record.measured.len()));
        ratios.push(q / b);
        // Both descend (negative energies).
        assert!(b < 0.0 && q < 0.0, "seed {seed}: base {b}, qismet {q}");
    }
    let geo = qismet_mathkit::geomean(&ratios);
    assert!(
        geo > 1.1,
        "QISMET should clearly beat baseline on Cairo; geomean ratio {geo:.3} from {ratios:?}"
    );
}

#[test]
fn qismet_harmless_without_transients() {
    let budget = 300;
    let spec = AppSpec::by_id(2).unwrap();
    let master = 0x0;
    let mut app = spec.build(budget * 7 + 16, Some(0.0), master);
    let theta0 = app.theta0.clone();
    let mut spsa = Spsa::new(theta0.len(), GainSchedule::vqa_paper(), 1);
    let base = run_tuning(
        &mut spsa,
        &mut app.objective,
        theta0.clone(),
        budget,
        TuningScheme::Baseline,
    );
    let mut app = spec.build(budget * 7 + 16, Some(0.0), master);
    let mut spsa = Spsa::new(theta0.len(), GainSchedule::vqa_paper(), 1);
    let qis = run_qismet_budgeted(
        &mut spsa,
        &mut app.objective,
        theta0,
        budget,
        budget + 1,
        QismetConfig::paper_default(),
    );
    let b = base.final_energy(20);
    let q = qis.record.final_energy(20.min(qis.record.measured.len()));
    // Within 25% of each other: QISMET costs little when there is nothing
    // to skip (Section 8.3's "only negatively reflected if transients are
    // entirely absent" — the cost is the budget spent on skips).
    assert!(
        (q / b - 1.0).abs() < 0.25,
        "transient-free gap too large: baseline {b:.4} vs qismet {q:.4}"
    );
}
