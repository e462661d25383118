//! Figure 3: transient fluctuations in T1 times observed over 65 hours.
//!
//! Paper shape: T1 hovers near its baseline most of the time with occasional
//! deep dips (the circled "potential transient errors") — rare events from
//! TLS defects drifting into resonance.

use qismet_bench::{f2, print_table, write_csv, SweepExecutor};
use qismet_mathkit::{mean, min, percentile, rng_from_seed};
use qismet_qnoise::Machine;

fn main() {
    let hours = 65.0;
    let dt = 0.1;
    let machine = Machine::Guadalupe;
    let bank = machine.tls_bank();

    // One grid point (trace generation), routed through the engine so
    // larger multi-machine trace campaigns are a one-line change.
    let specs = [(machine, 0xf03u64)];
    let traces = SweepExecutor::with_threads(0).run_specs(&specs, |&(m, seed)| {
        m.tls_bank()
            .sample_t1_trace(&mut rng_from_seed(seed), hours, dt)
    });
    let trace = &traces[0];

    // Print a coarse series (one sample per ~2 hours) plus dip markers.
    let mut rows = Vec::new();
    let stride = (2.0 / dt) as usize;
    for (i, &t1) in trace.iter().enumerate() {
        if i % stride == 0 {
            rows.push(vec![format!("{:.1}", i as f64 * dt), f2(t1)]);
        }
    }
    print_table(
        &format!("Fig.3: T1(t) over {hours} hours ({} profile)", machine),
        &["hour", "T1_us"],
        &rows,
    );

    let full: Vec<Vec<String>> = trace
        .iter()
        .enumerate()
        .map(|(i, &t1)| vec![format!("{:.2}", i as f64 * dt), format!("{t1:.3}")])
        .collect();
    write_csv("fig03_t1_trace.csv", &["hour", "T1_us"], &full);

    let base = bank.base_t1_us();
    let m = mean(trace);
    let lo = min(trace);
    let dip_threshold = 0.5 * base;
    let dips = trace.iter().filter(|&&t| t < dip_threshold).count();
    let dip_frac = dips as f64 / trace.len() as f64;
    println!("\nbase T1 = {base:.1} us | mean = {m:.1} us | min = {lo:.1} us");
    println!(
        "samples below 50% of base: {dips} ({:.1}% of {} samples)",
        dip_frac * 100.0,
        trace.len()
    );
    println!(
        "p5/p50/p95 = {:.1}/{:.1}/{:.1} us",
        percentile(trace, 5.0),
        percentile(trace, 50.0),
        percentile(trace, 95.0)
    );

    // Shape checks: dips exist but are the exception.
    let has_dips = lo < dip_threshold;
    let rare = dip_frac < 0.3;
    let mostly_healthy = m > 0.6 * base;
    println!(
        "[shape] deep dips exist: {} | dips are the exception: {} | mean near base: {}",
        if has_dips { "PASS" } else { "MISS" },
        if rare { "PASS" } else { "MISS" },
        if mostly_healthy { "PASS" } else { "MISS" }
    );
}
