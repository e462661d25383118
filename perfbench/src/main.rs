//! Campaign benchmark for the QISMET reproduction.
//!
//! One invocation measures one workload for a fixed time and prints every
//! metric by name with its unit, then one JSON result line:
//!
//! ```text
//! perfbench --workload <paper-grid|long-tuning|sharded-grid> [--seed 7]
//!           [--seconds 25] [--trace 0|1] --campaign-bin <path> --work-dir <dir>
//! ```
//!
//! `--trace 0` runs the end-to-end measurement ([`e2e`]): whole campaigns in
//! a closed loop, one at a time, untraced. `--trace 1` runs traced campaigns
//! instead ([`trace`]) and reports the per-layer split. Both check every
//! record they produce; any failed check makes the exit code 1.
//! `perfbench/run.py` builds the program and this binary and is the usual
//! entry point.

mod e2e;
mod rss;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The built `campaign` binary, launched as the sharded-grid workers.
    pub campaign_bin: PathBuf,
    /// Scratch directory for checkpoint journals.
    pub work_dir: PathBuf,
}

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation measured and whether every check passed.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// What failed, for the report; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = 25.0f64;
    let mut trace = false;
    let mut campaign_bin = None;
    let mut work_dir = None;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            "--campaign-bin" => campaign_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        campaign_bin: campaign_bin.ok_or("--campaign-bin is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// Prints the build and host facts every result is read against.
fn print_provenance(args: &Args, specs: usize) {
    let meta = qismet_bench::ReportMeta::current();
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!("provenance:");
    println!("  workload        {}", args.workload.name());
    println!("  seed            {}", args.seed);
    println!("  specs           {specs}");
    println!("  nproc           {nproc}");
    println!(
        "  features        default (parallel={})",
        if meta.parallel { "on" } else { "off" }
    );
    println!("  target_features {}", meta.target_features);
    println!("  profile         {profile}");
    println!("  git             {}", meta.git_hash);
    println!("  version         {}", meta.version);
    println!(
        "  mode            {}",
        if args.trace { "traced" } else { "end-to-end" }
    );
}

fn json_result(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!(
            "perfbench: cannot create work dir {}: {e}",
            args.work_dir.display()
        );
        return ExitCode::from(2);
    }
    let campaign = args.workload.campaign(args.seed);
    print_provenance(&args, campaign.len());
    let mut outcome = if args.trace {
        trace::run(&args)
    } else {
        e2e::run(&args)
    };
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            outcome.problems.push(format!("{} is not finite", m.name));
        }
    }
    println!(
        "checks: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for p in &outcome.problems {
        println!("  FAILED: {p}");
    }
    println!("metrics:");
    for m in &outcome.metrics {
        println!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_result(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
