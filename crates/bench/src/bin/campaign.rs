//! `campaign` — run an arbitrary user-specified sweep grid from the CLI.
//!
//! Expands machines x schemes x threshold-percentiles x magnitudes x apps x
//! trials into a flat run list and executes it through the sweep engine,
//! in-process by default (sequential, or threaded with `--threads`). There
//! are two ways to spread the grid beyond one process:
//!
//! * **One-shot runs** shard across local worker *processes* with
//!   `--workers N`; each worker runs its batches through its own threaded
//!   executor (`--threads`). Sharded runs can checkpoint every completed
//!   run to an append-only journal (`--checkpoint`) and `--resume` an
//!   interrupted invocation, re-executing only the missing runs.
//! * **Remote fleets** go through service mode: `--daemon <addr>` runs a
//!   long-lived multi-tenant campaign service, `--register <addr>` joins
//!   its elastic worker fleet from any machine, and the
//!   `submit`/`status`/`cancel`/`drain` verbs talk to it over the same
//!   framed protocol.
//!
//! Either way the report is byte-identical to a sequential in-process run.
//! Prints a summary table (with bootstrap confidence intervals and paired
//! cross-scheme significance tests when scenarios have multiple trials)
//! and writes JSON + CSV artifacts under `target/paper_results/`.
//!
//! ```text
//! # one-shot: 4 local worker processes with a resume journal:
//! cargo run --release -p qismet-bench --bin campaign -- \
//!     --apps 2 --schemes baseline,qismet --iterations 300 --trials 2 \
//!     --seed 42 --workers 4 --checkpoint campaign.ckpt.jsonl
//!
//! # campaign service: daemon + elastic workers + tenanted submissions:
//! campaign --daemon 0.0.0.0:7500 --token fleet --tenants alice=a1,bob=b2
//! campaign --register host:7500 --token fleet --worker-name w1 --threads 4
//! campaign submit --to host:7500 --token a1 --apps 2 --schemes qismet
//! campaign status --to host:7500 --token a1
//! campaign drain  --to host:7500 --token fleet
//! ```
//!
//! The hidden `--worker` flag re-invokes this binary as a cluster worker
//! serving spec indices over stdin/stdout; it is appended automatically by
//! the coordinator and never needed by hand.

use qismet_bench::cli::{
    exit_code_for, exit_code_for_service, parse_args, Args, CliError, ClientVerb, EXIT_USAGE,
    EXIT_WORKER,
};
use qismet_bench::{
    cancel_job, drain_service, f2, f4, job_status, print_table, register_worker, results_dir,
    run_campaign_distributed, scheme_cli_name, serve_worker, submit_job, CampaignGrid,
    CampaignPlanner, CampaignReport, DistributedOptions, GridSpec, RegisterOptions,
    RunsJsonlWriter, ServiceError, SweepExecutor, WorkerOptions,
};
use qismet_cluster::{FaultPlan, ServiceConfig, TcpTransportListener, WorkerLaunch};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
campaign — declarative QISMET sweep runner

USAGE:
    campaign [OPTIONS]
    campaign submit|status|cancel|drain --to <addr> --token <str> [OPTIONS]

GRID OPTIONS:
    --apps <ids>          Comma-separated Table 1 app ids (default: 2)
    --machines <names>    Comma-separated machine names (default: each app's native machine)
    --schemes <names>     Comma-separated schemes (default: baseline,qismet)
                          [baseline, qismet, qismet-conservative, qismet-aggressive,
                           blocking, resampling, second-order, kalman-best,
                           only-transients-<pct>, qismet-<pct>p]
    --thresholds <pcts>   QISMET |Tm| threshold percentiles (1..=99) added as an
                          extra per-cell axis (Fig. 19 generalized), e.g. 75,90,99
    --magnitudes <vals>   Comma-separated transient magnitudes (default: machine native)
    --iterations <n>      SPSA iterations per run (default: scaled 500)
    --trials <n>          Trials per grid point (default: 1)
    --seed <n>            Campaign master seed; per-run seeds derive from it (default: 7)
    --name <str>          Campaign/artifact name (default: campaign)

EXECUTION OPTIONS:
    --threads <n>         Executor threads, 0 = all cores (default: 1).
                          Each thread runs whole specs; reports are bit-identical
                          at any count. In-process: sizes the sweep pool. With
                          --workers/--register: each worker runs its assigned
                          batches on <n> threads (hybrid threads x
                          processes/machines)
    --workers <n>         Shard across <n> local worker processes
    --token <str>         Shared worker-authentication token (both sides)
    --checkpoint <path>   Append every completed run to a resume journal
    --resume              Skip runs already completed in the --checkpoint journal
    --max-respawns <n>    Respawn budget per worker (default: 2)
    --jsonl <path>        Stream per-run records to a JSONL file in campaign order

SERVICE MODE (campaign-as-a-service; the way to run on remote machines):
    --daemon <addr>       Run a long-lived multi-tenant campaign service bound
                          to <addr>. Clients submit grids as jobs; registered
                          workers serve them. --token is the fleet/admin token
    --tenants <pairs>     Daemon: tenant credentials, name=token[,name=token...]
    --state-dir <dir>     Daemon: persistent queue + per-job journals; restart
                          with the same dir to resume every interrupted job
    --report-dir <dir>    Daemon: where settled jobs write <name>.json reports
                          (default: target/paper_results)
    --register <addr>     Join a daemon's worker fleet (elastic: join/leave any
                          time; grid flags are ignored — jobs arrive over the
                          wire). --max-respawns bounds reconnect attempts
    --worker-name <str>   Registered worker identity; quarantine strikes follow
                          the name across sessions (default: worker-<pid>)
    --deregister-after <n> Voluntarily leave the fleet after <n> batches
    submit                Enqueue the grid flags as a job (--to, --token;
                          prints the assigned job id)
    status                Print jobs visible to the token + the worker fleet
    cancel --job <id>     Cancel a queued/running job
    drain                 Finish all jobs, refuse new ones, stop the daemon
    --to <addr>           Client verbs: daemon address to talk to

RESILIENCE & CHAOS OPTIONS:
    --assign-timeout <secs>    Coordinator read deadline per assignment: a worker
                               silent for this long (no Done, no Ping keepalive,
                               no Ready after its batch) is hung — cut the
                               channel, re-dispatch its work (default: off)
    --heartbeat <secs>         Worker keepalive interval while a batch computes;
                               must be shorter than --assign-timeout (default: 2)
    --quarantine-after <n>     Retire a worker slot (or, with --daemon, a worker
                               *name*) for good after <n> failed sessions
                               (default: off)
    --chaos-plan <file>        Execute a JSON fault plan on the workers
                               (deterministic fault injection for testing)
    --chaos-seed <n>           Generate and execute a seeded random fault plan

OBSERVABILITY OPTIONS:
    --metrics-out <file>  Write a JSON metrics document (build provenance,
                          counters/gauges/histograms, structured events,
                          per-slot fleet health) when the campaign completes
    --trace-out <file>    Write a Chrome trace_event JSON file (open in
                          chrome://tracing or https://ui.perfetto.dev)
    --progress            Live progress line on stderr: done/total, rate,
                          ETA, queue depth, per-worker health
                          Telemetry never changes results: reports are
                          byte-identical with these flags on or off

EXIT CODES:
    0 success   2 usage/flag conflict   3 worker/daemon/register failure
    4 poisoned specs (crash-looping inputs)   5 rejected handshake/bad token
    1 any other failure

    -h, --help            Print this help
";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(EXIT_USAGE);
}

/// Flags (with a value) that configure the coordinator only and must not be
/// forwarded to worker processes. (`--threads`, `--token` and
/// `--heartbeat` are *not* here: workers need them to size their
/// executors, authenticate, and pace their keepalives.
/// `--chaos-plan`/`--chaos-seed` are stripped too — the coordinator
/// resolves them into one concrete plan and forwards it via the hidden
/// `--chaos-json`.)
const COORDINATOR_VALUE_FLAGS: &[&str] = &[
    "--workers",
    "--checkpoint",
    "--max-respawns",
    "--jsonl",
    "--assign-timeout",
    "--quarantine-after",
    "--chaos-plan",
    "--chaos-seed",
    "--metrics-out",
    "--trace-out",
];

/// Resolves the fault plan this invocation should execute (worker side)
/// or forward (coordinator side). Precedence: a concrete forwarded
/// plan, then an explicit plan file, then a seed. Malformed plans are
/// configuration errors.
fn resolve_chaos_plan(args: &Args, workers: usize, specs: usize) -> Option<FaultPlan> {
    if let Some(json) = &args.chaos_json {
        return Some(FaultPlan::from_json(json).unwrap_or_else(|e| die(&e)));
    }
    if let Some(path) = &args.chaos_plan {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read chaos plan `{}`: {e}", path.display())));
        return Some(FaultPlan::from_json(&text).unwrap_or_else(|e| die(&e)));
    }
    args.chaos_seed
        .map(|seed| FaultPlan::random(seed, workers, specs))
}

/// The argv a worker process is launched with: the grid flags verbatim
/// (including `--threads`/`--token`/`--heartbeat`), coordinator-only
/// execution flags stripped, the resolved chaos plan (if any) appended as
/// `--chaos-json`, plus `--worker`.
fn worker_argv(argv: &[String], chaos_json: Option<&str>) -> Vec<String> {
    let mut out = Vec::with_capacity(argv.len() + 3);
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if COORDINATOR_VALUE_FLAGS.contains(&flag) {
            i += 2;
        } else if flag == "--resume" || flag == "--worker" || flag == "--progress" {
            i += 1;
        } else {
            out.push(argv[i].clone());
            i += 1;
        }
    }
    if let Some(json) = chaos_json {
        out.push("--chaos-json".to_string());
        out.push(json.to_string());
    }
    out.push("--worker".to_string());
    out
}

/// The grid flags as a wire payload for `submit`.
fn grid_spec_from(args: &Args) -> GridSpec {
    GridSpec {
        name: args.name.clone(),
        seed: args.seed,
        apps: args.apps.iter().map(|a| a.id).collect(),
        machines: args.machines.iter().map(|m| m.name().to_string()).collect(),
        schemes: args.schemes.iter().map(|s| scheme_cli_name(*s)).collect(),
        thresholds: args.thresholds.clone(),
        magnitudes: args.magnitudes.clone(),
        iterations: args.iterations,
        trials: args.trials,
    }
}

/// Runs a service-client verb; returns the process exit code.
fn run_client(verb: ClientVerb, args: &Args) -> i32 {
    let addr = args
        .to
        .as_deref()
        .expect("validated: client verbs carry --to");
    let outcome: Result<(), ServiceError> = match verb {
        ClientVerb::Submit => {
            let grid = grid_spec_from(args);
            submit_job(addr, &args.token, &grid).map(|submitted| {
                println!(
                    "submitted job {} `{}` (fingerprint {:#018x})",
                    submitted.job_id, grid.name, submitted.fingerprint
                );
            })
        }
        ClientVerb::Status => job_status(addr, &args.token).map(|reply| {
            let rows: Vec<Vec<String>> = reply
                .jobs
                .iter()
                .map(|j| {
                    vec![
                        j.job_id.to_string(),
                        j.name.clone(),
                        j.tenant.clone(),
                        j.phase.clone(),
                        format!("{}/{}", j.done, j.total),
                        j.detail.clone().unwrap_or_else(|| "-".into()),
                    ]
                })
                .collect();
            print_table(
                if reply.draining {
                    "jobs (daemon draining)"
                } else {
                    "jobs"
                },
                &["job", "name", "tenant", "phase", "done", "detail"],
                &rows,
            );
            let rows: Vec<Vec<String>> = reply
                .workers
                .iter()
                .map(|w| {
                    vec![
                        format!("s{}", w.slot),
                        w.name.clone(),
                        if w.active { "yes" } else { "no" }.to_string(),
                        w.done.to_string(),
                        w.strikes.to_string(),
                        if w.quarantined { "yes" } else { "no" }.to_string(),
                        w.job.map(|j| j.to_string()).unwrap_or_else(|| "-".into()),
                    ]
                })
                .collect();
            print_table(
                "workers",
                &[
                    "slot",
                    "name",
                    "active",
                    "done",
                    "strikes",
                    "quarantined",
                    "job",
                ],
                &rows,
            );
        }),
        ClientVerb::Cancel => {
            let job_id = args.job.expect("validated: cancel carries --job");
            cancel_job(addr, &args.token, job_id).map(|id| println!("cancelled job {id}"))
        }
        ClientVerb::Drain => drain_service(addr, &args.token).map(|ok| {
            println!(
                "drained: {} job(s) completed, {} failed/cancelled",
                ok.jobs_completed, ok.jobs_failed
            );
        }),
    };
    match outcome {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            exit_code_for_service(&e)
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(CliError::Help) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => die(&e.to_string()),
    };

    // Service-client verbs: one short authenticated session, no grid
    // expansion (submit serializes the grid flags instead of running them).
    if let Some(verb) = args.command {
        std::process::exit(run_client(verb, &args));
    }

    // Service daemon: jobs arrive over the wire; the grid flags are unused.
    if let Some(addr) = &args.daemon {
        let listener = TcpTransportListener::bind(addr)
            .unwrap_or_else(|e| die(&format!("cannot bind `{addr}`: {e}")));
        let bound = listener
            .socket_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.clone());
        let mut config = ServiceConfig::new(args.token.clone());
        config.tenants = args.tenants.clone();
        config.state_dir = args.state_dir.clone();
        config.quarantine_after = args.quarantine_after;
        config.assign_timeout = args.assign_timeout;
        let planner = CampaignPlanner {
            report_dir: args.report_dir.clone().unwrap_or_else(results_dir),
        };
        println!(
            "campaign service on {bound}: {} tenant(s), state {}, reports under {}",
            config.tenants.len(),
            config
                .state_dir
                .as_ref()
                .map(|d| d.display().to_string())
                .unwrap_or_else(|| "(ephemeral)".into()),
            planner.report_dir.display(),
        );
        // Readiness marker for scripts tailing a redirected stdout (the
        // listener is already bound, so connecting is safe from here on).
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        match qismet_bench::service::serve(Box::new(listener), &planner, &config) {
            Ok(summary) => {
                println!(
                    "service drained: {} job(s) completed, {} failed/cancelled, {} session(s)",
                    summary.jobs_completed, summary.jobs_failed, summary.sessions
                );
                return;
            }
            Err(e) => {
                eprintln!("daemon error: {e}");
                std::process::exit(EXIT_WORKER);
            }
        }
    }

    // Elastic fleet worker: jobs (and their grids) arrive over the wire.
    if let Some(addr) = &args.register {
        let mut opts = RegisterOptions {
            name: args
                .worker_name
                .clone()
                .unwrap_or_else(|| format!("worker-{}", std::process::id())),
            token: args.token.clone(),
            threads: args.threads.unwrap_or(1),
            max_reconnects: args.max_respawns,
            deregister_after: args.deregister_after,
            ..RegisterOptions::default()
        };
        if let Some(heartbeat) = args.heartbeat {
            opts.heartbeat = Some(heartbeat);
        }
        match register_worker(addr, &opts) {
            Ok(stats) => {
                println!(
                    "worker `{}` retired: {} batch(es) across {} job(s), {} session(s)",
                    opts.name, stats.batches, stats.jobs, stats.sessions
                );
                return;
            }
            Err(e) => {
                eprintln!("register error: {e}");
                let code = exit_code_for_service(&e);
                std::process::exit(if code == 1 { EXIT_WORKER } else { code });
            }
        }
    }

    let grid = CampaignGrid {
        apps: args.apps.clone(),
        machines: args.machines.clone(),
        schemes: args.schemes.clone(),
        thresholds: args.thresholds.clone(),
        magnitudes: args.magnitudes.clone(),
        iterations: args.iterations,
        trials: args.trials,
    };
    let campaign = grid.into_campaign(args.name.clone(), args.seed);

    if args.worker_mode {
        // Hidden cluster-worker mode: stdout belongs to the protocol, so
        // nothing below this point may run. The worker resolves its own
        // plan (forwarded json, plan file or seed); a seed-derived plan
        // here addresses all slots (`workers = 0`) since the pool size is
        // unknown.
        let mut opts = WorkerOptions {
            token: args.token.clone(),
            threads: args.threads.unwrap_or(1),
            plan: resolve_chaos_plan(&args, 0, campaign.len()),
            ..WorkerOptions::default()
        };
        if let Some(heartbeat) = args.heartbeat {
            opts.heartbeat = Some(heartbeat);
        }
        if let Err(e) = serve_worker(&campaign, &opts) {
            eprintln!("worker error: {e}");
            std::process::exit(EXIT_WORKER);
        }
        return;
    }

    let n = campaign.len();
    let distributed = args.workers > 0;
    // Observability gates: metric recording is a runtime switch, so the
    // same binary runs with telemetry on or off (byte-identical reports
    // either way). Worker processes switch themselves on in serve_worker.
    let observing = args.metrics_out.is_some() || args.trace_out.is_some() || args.progress;
    if observing {
        qismet_telemetry::set_enabled(true);
    }
    if args.trace_out.is_some() {
        qismet_telemetry::set_trace_enabled(true);
    }
    let progress = args.progress.then(|| start_progress(n, distributed));
    let report = if distributed {
        // Explicit chaos flags resolve to ONE concrete plan here and travel
        // to spawned workers as `--chaos-json`, so a seeded plan is
        // identical on every worker.
        let forwarded_chaos: Option<String> =
            if args.chaos_plan.is_some() || args.chaos_seed.is_some() {
                resolve_chaos_plan(&args, args.workers, campaign.len()).map(|plan| plan.to_json())
            } else {
                None
            };
        let program = std::env::current_exe().expect("resolve current executable");
        let launch = WorkerLaunch::new(program, worker_argv(&argv, forwarded_chaos.as_deref()));
        let opts = DistributedOptions {
            workers: args.workers,
            token: args.token.clone(),
            checkpoint: args.checkpoint.clone(),
            resume: args.resume,
            max_respawns: args.max_respawns,
            stream_jsonl: args.jsonl.clone(),
            assign_timeout: args.assign_timeout,
            quarantine_after: args.quarantine_after,
        };
        println!(
            "campaign `{}`: {} scenarios, {} runs, {} iterations each, {} worker process(es), fingerprint {:#018x}",
            campaign.name,
            campaign.scenarios.len(),
            n,
            args.iterations,
            opts.workers,
            campaign.fingerprint(),
        );
        let started = std::time::Instant::now();
        match run_campaign_distributed(&campaign, Some(launch), &opts) {
            Ok((report, stats)) => {
                println!(
                    "completed {n} runs in {:.2}s ({} resumed from checkpoint, {} executed, {} worker respawn(s), {} worker(s) lost, {} worker(s) quarantined)",
                    started.elapsed().as_secs_f64(),
                    stats.resumed,
                    stats.executed,
                    stats.respawns,
                    stats.lost_workers,
                    stats.quarantined_workers,
                );
                report
            }
            Err(e) => {
                eprintln!("error: {e}");
                if args.checkpoint.is_some() {
                    eprintln!("completed runs are checkpointed; re-run with --resume to continue");
                }
                // Typed exits: scripts branch on poisoned specs (4) and
                // rejected handshakes (5) without parsing stderr.
                std::process::exit(exit_code_for(&e));
            }
        }
    } else {
        let executor = match args.threads {
            Some(t) => SweepExecutor::with_threads(t),
            None => SweepExecutor::new(),
        };
        println!(
            "campaign `{}`: {} scenarios, {} runs, {} iterations each, {} worker(s)",
            campaign.name,
            campaign.scenarios.len(),
            n,
            args.iterations,
            executor.effective_threads(n),
        );
        let started = std::time::Instant::now();
        let report = executor.run(&campaign);
        println!(
            "completed {n} runs in {:.2}s",
            started.elapsed().as_secs_f64()
        );
        // In-process runs hold every record resident anyway; honor --jsonl
        // by writing the stream post-hoc in expansion order.
        if let Some(path) = &args.jsonl {
            let mut w = RunsJsonlWriter::create(path).expect("create jsonl stream");
            for record in &report.records {
                w.append(record).expect("append jsonl record");
            }
            println!(
                "[jsonl] wrote {} records to {}",
                w.written(),
                path.display()
            );
        }
        report
    };

    if let Some((stop, handle)) = progress {
        stop.store(true, Ordering::Relaxed);
        let _ = handle.join();
    }
    // Per-slot fleet health prints after every distributed campaign —
    // respawns, strikes, quarantines, and poisoned-spec blame stay visible
    // even without --metrics-out.
    if distributed {
        print_fleet_summary();
    }
    if let Some(path) = &args.metrics_out {
        let build = qismet_telemetry::BuildInfo::current();
        std::fs::write(path, qismet_telemetry::metrics_json(&build))
            .unwrap_or_else(|e| die(&format!("cannot write metrics `{}`: {e}", path.display())));
        println!("[metrics] wrote {}", path.display());
    }
    if let Some(path) = &args.trace_out {
        let json = qismet_telemetry::drain_trace_json()
            .unwrap_or_else(|| "{\"traceEvents\":[]}".to_string());
        std::fs::write(path, json)
            .unwrap_or_else(|e| die(&format!("cannot write trace `{}`: {e}", path.display())));
        println!("[trace] wrote {}", path.display());
    }

    // Per-run summary table (series live in the JSON artifact).
    let rows: Vec<Vec<String>> = report
        .records
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                r.machine.clone(),
                r.scheme.clone(),
                r.magnitude.map(f2).unwrap_or_else(|| "native".into()),
                r.trial.to_string(),
                f4(r.final_energy),
                r.jobs.to_string(),
                r.skips.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("campaign `{}` results", report.name),
        &[
            "app",
            "machine",
            "scheme",
            "magnitude",
            "trial",
            "final_E",
            "jobs",
            "skips",
        ],
        &rows,
    );
    print_scenario_cis(&campaign, &report);
    print_paired_tests(&campaign, &report);
    report.write_json(None);
    report.write_runs_csv(None);
}

/// Per-scenario mean + bootstrap 95% CI table, for scenarios with enough
/// trials for an interval to mean anything.
fn print_scenario_cis(campaign: &qismet_bench::Campaign, report: &CampaignReport) {
    if !campaign.scenarios.iter().any(|s| s.trials >= 2) {
        return;
    }
    let ci_seed = qismet_mathkit::derive_seed(campaign.seed, 0xc1);
    let rows: Vec<Vec<String>> = campaign
        .scenarios
        .iter()
        .enumerate()
        .filter(|(_, s)| s.trials >= 2)
        .map(|(i, s)| {
            let ci = report.scenario_ci(i, 1000, qismet_mathkit::derive_seed(ci_seed, i as u64));
            vec![
                s.display_label(),
                s.app.name(),
                s.trials.to_string(),
                f4(ci.mean),
                f4(ci.lo),
                f4(ci.hi),
            ]
        })
        .collect();
    print_table(
        "per-scenario trailing-window mean ± bootstrap 95% CI",
        &["scenario", "app", "trials", "mean", "ci_lo", "ci_hi"],
        &rows,
    );
}

/// Paired cross-scheme significance tests: within every grid cell (same
/// app, machine, magnitude, seed policy), each scheme's trials are paired
/// with the first scheme's by trial index — exact pairs, because grid
/// cells share per-trial seeds — and a sign-flip permutation test asks
/// whether the mean final-energy difference is distinguishable from zero.
fn print_paired_tests(campaign: &qismet_bench::Campaign, report: &CampaignReport) {
    // Cells are consecutive scenarios sharing everything but the scheme.
    let cell_key = |s: &qismet_bench::ScenarioSpec| {
        format!(
            "{:?}|{:?}|{}|{}|{:?}",
            s.app,
            s.magnitude.map(f64::to_bits),
            s.iterations,
            s.trials,
            s.seed
        )
    };
    let mut cells: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, s) in campaign.scenarios.iter().enumerate() {
        if s.trials < 2 {
            continue;
        }
        let key = cell_key(s);
        match cells.last_mut() {
            Some((k, idxs)) if *k == key => idxs.push(i),
            _ => cells.push((key, vec![i])),
        }
    }
    let test_seed = qismet_mathkit::derive_seed(campaign.seed, 0x9a17ed);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (_, idxs) in cells.iter().filter(|(_, idxs)| idxs.len() >= 2) {
        let reference = idxs[0];
        for &other in &idxs[1..] {
            let t = report.paired_scenario_test(
                other,
                reference,
                2000,
                qismet_mathkit::derive_seed(test_seed, other as u64),
            );
            let s = &campaign.scenarios[other];
            rows.push(vec![
                s.app.name(),
                s.app.machine.name().to_string(),
                s.magnitude.map(f2).unwrap_or_else(|| "native".into()),
                format!(
                    "{} - {}",
                    s.display_label(),
                    campaign.scenarios[reference].display_label()
                ),
                t.pairs.to_string(),
                f4(t.mean_diff),
                format!("{:.4}", t.p_value),
            ]);
        }
    }
    if rows.is_empty() {
        return;
    }
    print_table(
        "paired cross-scheme significance (sign-flip permutation, same-seed pairs)",
        &[
            "app",
            "machine",
            "magnitude",
            "difference",
            "pairs",
            "mean_diff",
            "p_value",
        ],
        &rows,
    );
}

/// Spawns the `--progress` status-line thread: twice a second it rewrites
/// one stderr line with done/total, completion rate, ETA, the live queue
/// depth, and (distributed) per-slot fleet health. Reads only telemetry
/// counters and the fleet table — it can never perturb the campaign.
fn start_progress(
    total: usize,
    distributed: bool,
) -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let started = std::time::Instant::now();
        loop {
            if flag.load(Ordering::Relaxed) {
                break;
            }
            let (done, queue) = if distributed {
                (
                    qismet_telemetry::counter!("cluster.specs_done").get(),
                    qismet_telemetry::gauge!("cluster.queue_depth").get(),
                )
            } else {
                (
                    qismet_telemetry::counter!("sweep.specs_done").get(),
                    qismet_telemetry::gauge!("sweep.queue_depth").get(),
                )
            };
            let elapsed = started.elapsed().as_secs_f64();
            let rate = if elapsed > 0.0 {
                done as f64 / elapsed
            } else {
                0.0
            };
            let eta = if done > 0 && rate > 0.0 {
                format!("{:.0}s", (total as f64 - done as f64).max(0.0) / rate)
            } else {
                "?".to_string()
            };
            let mut line =
                format!("[progress] {done}/{total} runs, {rate:.2}/s, eta {eta}, queue {queue}");
            if distributed {
                for (slot, h) in qismet_telemetry::fleet_snapshot() {
                    line.push_str(&format!(" | w{slot}: {}", h.done));
                    if h.respawns > 0 {
                        line.push_str(&format!(" ({}r)", h.respawns));
                    }
                    if h.quarantined {
                        line.push_str(" [q]");
                    }
                }
            }
            // \x1b[2K clears the previous (possibly longer) line.
            eprint!("\r\x1b[2K{line}");
            std::thread::sleep(Duration::from_millis(500));
        }
        eprint!("\r\x1b[2K");
    });
    (stop, handle)
}

/// Per-slot fleet summary table: dispatch accounting, failure history, and
/// the worker-reported totals piggybacked on `Done` frames. Printed after
/// every distributed campaign (satellite of the telemetry PR: respawn /
/// quarantine / poison outcomes used to vanish into stderr noise).
fn print_fleet_summary() {
    let fleet = qismet_telemetry::fleet_snapshot();
    if fleet.is_empty() {
        return;
    }
    let rows: Vec<Vec<String>> = fleet
        .iter()
        .map(|(slot, h)| {
            vec![
                format!("w{slot}"),
                h.assigned.to_string(),
                h.done.to_string(),
                h.worker_specs_done.to_string(),
                h.respawns.to_string(),
                h.strikes.to_string(),
                if h.quarantined { "yes" } else { "no" }.to_string(),
                h.pings.to_string(),
                if h.rtt_count > 0 {
                    format!("{:.1}", h.rtt_ns_mean() as f64 / 1e6)
                } else {
                    "-".to_string()
                },
                h.last_error.clone().unwrap_or_else(|| "-".to_string()),
            ]
        })
        .collect();
    print_table(
        "fleet health (per worker slot)",
        &[
            "slot",
            "assigned",
            "done",
            "reported",
            "respawns",
            "strikes",
            "quarantined",
            "pings",
            "rtt_ms",
            "last_error",
        ],
        &rows,
    );
}
