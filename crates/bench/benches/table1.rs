//! Table 1: the TFIM VQA applications used for simulation, with the derived
//! properties of each instance (parameters, CX depth, static attenuation).

use qismet_bench::{f4, print_table, write_csv, SweepExecutor};
use qismet_vqa::AppSpec;

fn main() {
    // One grid point per Table 1 app, fanned through the engine.
    let apps = AppSpec::table1();
    let rows = SweepExecutor::with_threads(0).run_specs(&apps, |spec| {
        let app = spec.build(8, None, 42);
        let circuit = app.ansatz.circuit();
        vec![
            spec.name(),
            spec.n_qubits.to_string(),
            spec.ansatz.label().to_string(),
            spec.reps.to_string(),
            format!("{} (v{})", spec.machine.name(), spec.trial),
            app.ansatz.n_params().to_string(),
            circuit.cx_count().to_string(),
            circuit.depth().to_string(),
            f4(app.objective.attenuation()),
            f4(app.exact_ground),
        ]
    });
    print_table(
        "Table 1: TFIM VQA applications for simulation",
        &[
            "app",
            "qubits",
            "ansatz",
            "reps",
            "machine",
            "params",
            "cx",
            "depth",
            "attenuation",
            "exact_E0",
        ],
        &rows,
    );
    write_csv(
        "table1.csv",
        &[
            "app",
            "qubits",
            "ansatz",
            "reps",
            "machine",
            "params",
            "cx",
            "depth",
            "attenuation",
            "exact_E0",
        ],
        &rows,
    );
    // Shape: deeper apps must have lower attenuation (paper Section 3.2).
    let att: Vec<f64> = rows.iter().map(|r| r[8].parse().unwrap()).collect();
    let ok = att[0] > att[4] && att[1] > att[4];
    println!(
        "[shape] deeper circuits attenuate more (App5 reps=8 lowest among its machine class): {}",
        if ok { "PASS" } else { "MISS" }
    );
}
