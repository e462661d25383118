//! Campaign results are pinned byte for byte in tier-1: the paper-grid
//! inputs, run in-process, must produce records whose digest equals a
//! checked-in constant. Apps 2, 3, 5 and 6 run on the real-amplitude
//! (`f64`) simulator path and apps 1 and 4 on the complex one, so the pin
//! guards both.
//!
//! A change that means to move results updates [`PAPER_GRID_DIGEST`] in the
//! same commit and records the old digest, the new one and the reason.

use qismet_repro::bench::report::records_digest;
use qismet_repro::bench::{GridSpec, SweepExecutor};

/// `records_digest` of the paper-grid records at seed 7.
const PAPER_GRID_DIGEST: u64 = 0xd070_fcd0_a80c_493d;

#[test]
fn paper_grid_records_match_the_pinned_digest() {
    let strings = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
    let grid = GridSpec {
        name: "paper-grid".into(),
        seed: 7,
        apps: vec![1, 2, 3, 4, 5, 6],
        machines: strings(&["guadalupe", "sydney"]),
        schemes: strings(&["baseline", "qismet"]),
        thresholds: Vec::new(),
        magnitudes: Vec::new(),
        iterations: 100,
        trials: 5,
    };
    let campaign = grid.to_campaign().expect("paper-grid inputs resolve");
    let report = SweepExecutor::new().run(&campaign);
    assert_eq!(report.records.len(), 120);
    let digest = records_digest(&report.records);
    assert_eq!(
        digest, PAPER_GRID_DIGEST,
        "paper-grid records digest is {digest:#018x}, pinned {PAPER_GRID_DIGEST:#018x}. \
         To find what moved, write the records with `campaign --name paper-grid \
         --apps 1,2,3,4,5,6 --machines guadalupe,sydney --schemes baseline,qismet \
         --iterations 100 --trials 5 --seed 7 --jsonl new.jsonl` here and at the parent \
         commit, then `cmp` the two files."
    );
}
