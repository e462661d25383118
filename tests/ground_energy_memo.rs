//! The exact TFIM ground energy is solved once per Hamiltonian per process.
//!
//! The memo and the telemetry counters are process-global, so everything
//! lives in one `#[test]`: a second test in this binary could solve or hit
//! concurrently and break the exact counts.

use qismet_repro::bench::{CampaignGrid, Scheme, SweepExecutor};
use qismet_repro::telemetry;
use qismet_repro::vqa::{AppSpec, Boundary, Tfim};

#[test]
fn campaign_solves_ground_energy_once_and_racing_threads_share_one_solve() {
    telemetry::reset();
    telemetry::set_enabled(true);

    // Apps 1-6 x baseline,qismet x 2 trials: 24 specs, one 6-qubit chain.
    let grid = CampaignGrid {
        apps: (1..=6).map(|id| AppSpec::by_id(id).unwrap()).collect(),
        machines: Vec::new(),
        schemes: vec![Scheme::Baseline, Scheme::Qismet],
        thresholds: Vec::new(),
        magnitudes: Vec::new(),
        iterations: 20,
        trials: 2,
    };
    let report = SweepExecutor::new().run(&grid.into_campaign("ground-energy-memo", 11));
    assert_eq!(report.records.len(), 24);
    let snap = telemetry::snapshot();
    assert_eq!(snap.counter("vqa.ground_energy.solves"), 1);
    assert_eq!(snap.counter("vqa.ground_energy.hits"), 23);
    // The solve's wall time is counted; a hit adds nothing to it.
    let solve_ns = snap.counter("vqa.ground_energy.solve_ns");
    assert!(solve_ns > 0);
    Tfim::paper_6q().exact_ground_energy().unwrap();
    let snap = telemetry::snapshot();
    assert_eq!(snap.counter("vqa.ground_energy.hits"), 24);
    assert_eq!(snap.counter("vqa.ground_energy.solve_ns"), solve_ns);

    // Eight threads race on a key nobody has solved: exactly one solves,
    // the rest wait on the memo lock and hit.
    let fresh = Tfim {
        n: 5,
        j: 0.75,
        h: 1.25,
        boundary: Boundary::Periodic,
    };
    let bits: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| s.spawn(|| fresh.exact_ground_energy().unwrap().to_bits()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(bits.iter().all(|&b| b == bits[0]), "{bits:?}");
    let snap = telemetry::snapshot();
    assert_eq!(snap.counter("vqa.ground_energy.solves"), 2);
    assert_eq!(snap.counter("vqa.ground_energy.hits"), 24 + 7);
    assert!(snap.counter("vqa.ground_energy.solve_ns") > solve_ns);

    telemetry::set_enabled(false);
    telemetry::reset();
}
