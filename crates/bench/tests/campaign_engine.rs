//! Integration tests for the campaign sweep engine: parallel execution must
//! be bit-identical to sequential execution, and derived per-run seeds must
//! never collide across a campaign grid.

use proptest::prelude::*;
use qismet_bench::{
    run_campaign, run_seed, Campaign, CampaignGrid, ScenarioSpec, Scheme, SweepExecutor,
};
use qismet_qnoise::Machine;
use qismet_vqa::AppSpec;
use std::collections::HashSet;

fn small_campaign() -> Campaign {
    let app1 = AppSpec::by_id(1).unwrap();
    let app2 = AppSpec::by_id(2).unwrap();
    Campaign::new("engine-test", 0xabc)
        .with(ScenarioSpec::new(app1.clone(), Scheme::Baseline, 30).with_trials(2))
        .with(ScenarioSpec::new(app1.clone(), Scheme::Qismet, 30).with_trials(2))
        .with(
            ScenarioSpec::new(app2.clone(), Scheme::Blocking, 25)
                .on_machine(Machine::Sydney)
                .with_magnitude(0.3),
        )
        .with(ScenarioSpec::new(app2, Scheme::OnlyTransients(90), 25).seeded(0x77))
        .with(ScenarioSpec::kalman(
            AppSpec::by_id(1).unwrap(),
            qismet_filters::KalmanFilter::new(1.0, 0.1, 1e-4),
            25,
        ))
}

#[test]
fn parallel_and_sequential_records_are_bit_identical() {
    let campaign = small_campaign();
    let seq = SweepExecutor::sequential().run(&campaign);
    let par = SweepExecutor::with_threads(4).run(&campaign);
    let all = SweepExecutor::with_threads(0).run(&campaign);

    assert_eq!(seq.records.len(), campaign.len());
    assert_eq!(seq, par);
    assert_eq!(seq, all);
    // PartialEq on f64 would already fail on NaN mismatches; additionally
    // require bitwise equality of every series sample.
    for (a, b) in seq.records.iter().zip(par.records.iter()) {
        assert_eq!(a.series.len(), b.series.len());
        for (x, y) in a.series.iter().zip(b.series.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.final_energy.to_bits(), b.final_energy.to_bits());
    }
}

#[test]
fn rerunning_a_campaign_is_deterministic() {
    let campaign = small_campaign();
    let a = run_campaign(&campaign);
    let b = run_campaign(&campaign);
    assert_eq!(a, b);
}

#[test]
fn worker_backends_match_fresh_backends() {
    use qismet_optim::{GainSchedule, Spsa};
    use qismet_vqa::{run_tuning, TuningScheme};

    // Replicate `run_scheme`'s Baseline scheme by hand on an app built
    // with a fresh backend and require bitwise-identical series.
    let spec = AppSpec::by_id(1).unwrap();
    let (iterations, seed) = (30usize, 123u64);
    let worker = qismet_bench::run_scheme(&spec, Scheme::Baseline, iterations, None, seed);

    let mut app = spec.build(iterations * 7 + 16, None, seed);
    let mut spsa = Spsa::new(
        app.theta0.len(),
        GainSchedule::vqa_paper(),
        qismet_mathkit::derive_seed(seed, 0xa11),
    );
    let rec = run_tuning(
        &mut spsa,
        &mut app.objective,
        app.theta0.clone(),
        iterations,
        TuningScheme::Baseline,
    );
    assert_eq!(worker.series.len(), rec.measured.len());
    for (i, (a, b)) in worker.series.iter().zip(&rec.measured).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "iteration {i}: worker {a} vs fresh {b}"
        );
    }
    assert_eq!(worker.jobs, rec.jobs);
    assert_eq!(worker.evals, rec.evals);

    // And a rerun of the same spec stays bitwise identical.
    let again = qismet_bench::run_scheme(&spec, Scheme::Baseline, iterations, None, seed);
    for (a, b) in worker.series.iter().zip(&again.series) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn threshold_percentiles_snap_to_the_named_presets_bitwise() {
    // QismetAt at the paper's named percentiles must run bit-identically
    // to the preset schemes; an off-grid percentile must actually differ
    // in configuration (different skip target -> at minimum a valid run).
    let app = AppSpec::by_id(1).unwrap();
    let (iterations, seed) = (25usize, 0x7715u64);
    for (pct, preset) in [
        (90u32, Scheme::Qismet),
        (99, Scheme::QismetConservative),
        (75, Scheme::QismetAggressive),
    ] {
        let at = qismet_bench::run_scheme(&app, Scheme::QismetAt(pct), iterations, None, seed);
        let named = qismet_bench::run_scheme(&app, preset, iterations, None, seed);
        assert_eq!(at.series.len(), named.series.len());
        for (a, b) in at.series.iter().zip(&named.series) {
            assert_eq!(a.to_bits(), b.to_bits(), "QismetAt({pct}) vs {preset:?}");
        }
        assert_eq!(at.final_energy.to_bits(), named.final_energy.to_bits());
        assert_eq!(at.skips, named.skips);
    }
    // Off-grid percentile: a valid run (series length may fall short of
    // the iteration grant — skips consume the job budget).
    let custom = qismet_bench::run_scheme(&app, Scheme::QismetAt(85), iterations, None, seed);
    assert!(!custom.series.is_empty() && custom.series.len() <= iterations);
    assert!(custom.final_energy.is_finite());
}

#[test]
fn threshold_axis_campaign_runs_through_every_executor_identically() {
    let grid = CampaignGrid {
        apps: vec![AppSpec::by_id(1).unwrap()],
        machines: Vec::new(),
        schemes: vec![Scheme::Baseline],
        thresholds: vec![75, 90],
        magnitudes: vec![0.3],
        iterations: 22,
        trials: 2,
    };
    let campaign = grid.into_campaign("thr-engine", 0xf19);
    assert_eq!(campaign.len(), 3 * 2);
    let seq = SweepExecutor::sequential().run(&campaign);
    let par = SweepExecutor::with_threads(3).run(&campaign);
    assert_eq!(seq, par);
    // Expansion order: [Baseline t0, t1, QismetAt(75) t0, t1, QismetAt(90) t0, t1].
    assert_eq!(seq.records[2].scheme, "QISMET (75p)");
    // Threshold variants pair against the baseline (same seed per trial).
    assert_eq!(seq.records[0].seed, seq.records[2].seed);
    let t = seq.paired_scenario_test(0, 1, 500, 7);
    assert_eq!(t.pairs, 2);
    assert!(t.p_value > 0.0 && t.p_value <= 1.0);
}

#[test]
fn expansion_seeds_are_unique_within_campaign() {
    let campaign = small_campaign();
    let runs = campaign.expand();
    // The fixed-seed scenario aside, derived seeds must all be distinct.
    let derived: Vec<u64> = runs
        .iter()
        .filter(|r| r.scenario != 3)
        .map(|r| r.seed)
        .collect();
    let set: HashSet<u64> = derived.iter().copied().collect();
    assert_eq!(set.len(), derived.len(), "derived seed collision");
}

#[test]
fn generic_run_specs_matches_direct_map() {
    let specs: Vec<u64> = (0..40).collect();
    let f = |&x: &u64| qismet_mathkit::derive_seed(x, 3);
    let seq: Vec<u64> = specs.iter().map(f).collect();
    let par = SweepExecutor::with_threads(8).run_specs(&specs, f);
    assert_eq!(seq, par);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Derived per-run seeds are collision-free across any campaign grid
    // shape (scenarios x trials) and any campaign seed.
    #[test]
    fn derived_seeds_collision_free(
        campaign_seed in 0u64..u64::MAX,
        scenarios in 1usize..40,
        trials in 1usize..40,
    ) {
        let mut seen = HashSet::with_capacity(scenarios * trials);
        for s in 0..scenarios {
            for t in 0..trials {
                prop_assert!(
                    seen.insert(run_seed(campaign_seed, s, t)),
                    "collision at scenario {s}, trial {t} (campaign seed {campaign_seed})"
                );
            }
        }
    }

    // Grid expansion is total: every (app, machine, scheme, magnitude,
    // trial) combination appears exactly once. Schemes within one grid
    // cell share per-trial seeds (same-seed comparability), while distinct
    // (cell, trial) coordinates never collide.
    #[test]
    fn grid_expansion_is_total_and_cell_seeded(
        seed in 0u64..u64::MAX,
        n_apps in 1usize..3,
        n_machines in 1usize..4,
        n_mags in 1usize..3,
        trials in 1usize..4,
    ) {
        let apps: Vec<AppSpec> = (1..=n_apps as u8).map(|i| AppSpec::by_id(i).unwrap()).collect();
        let machines: Vec<Machine> = Machine::FIG13_SET[..n_machines].to_vec();
        let grid = CampaignGrid {
            apps,
            machines,
            schemes: vec![Scheme::Baseline, Scheme::Qismet],
            thresholds: Vec::new(),
            magnitudes: (0..n_mags).map(|i| 0.1 * (i + 1) as f64).collect(),
            iterations: 20,
            trials,
        };
        let campaign = grid.into_campaign("prop", seed);
        let runs = campaign.expand();
        let n_schemes = 2;
        prop_assert_eq!(runs.len(), n_apps * n_machines * n_schemes * n_mags * trials);
        // Within a cell, every scheme runs trial t at the same seed; across
        // cells and trials, seeds are distinct.
        let mut per_coord: HashSet<(usize, usize, u64)> = HashSet::new();
        for r in &runs {
            let cell = r.scenario / n_schemes;
            per_coord.insert((cell, r.trial, r.seed));
        }
        prop_assert_eq!(per_coord.len(), n_apps * n_machines * n_mags * trials);
        let distinct_seeds: HashSet<u64> = per_coord.iter().map(|&(_, _, s)| s).collect();
        prop_assert_eq!(distinct_seeds.len(), per_coord.len());
        // Indices are the identity permutation (stable output ordering).
        for (i, r) in runs.iter().enumerate() {
            prop_assert_eq!(r.index, i);
        }
    }
}
