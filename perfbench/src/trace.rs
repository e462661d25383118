//! The traced run: per-layer attribution from outside the program.
//!
//! Each spec repeats what `qismet_bench::run_scheme` does for the baseline
//! and QISMET schemes, using only public calls, with a clock around every
//! layer boundary: the steps of `AppSpec::build_with_backend`, a timing
//! wrapper around the `Backend` that `BackendPool::backend_for` returns,
//! and a timing wrapper around the `Proposer`. Both wrappers delegate every
//! trait method, so the batched evaluation path stays the one the program
//! takes. Every traced record must equal the `run_one` record of the same
//! spec, so the numbers describe the same program.
//!
//! On `sharded-grid` the cluster layers are measured too: worker spawn and
//! handshake, and one distributed run whose result frames and checkpoint
//! entries are replayed through the wire codec, the journal and the merge.

use crate::workload::{self, median, ms, Workload, SHARDED_WORKERS};
use crate::{Args, Metric, Outcome};
use qismet::{run_qismet_budgeted, QismetConfig};
use qismet_bench::{
    final_window, run_campaign_distributed, run_one, CampaignReport, DistributedOptions,
    ReportMeta, RunKind, RunRecord, RunSpec, Scheme, SweepExecutor,
};
use qismet_cluster::{
    load_journal, merge_indexed, read_message, write_message, CheckpointEntry, Done, JournalWriter,
    Message, Outcome as WireOutcome,
};
use qismet_mathkit::{derive_seed, rng_from_seed};
use qismet_optim::{GainSchedule, Proposal, Proposer, Spsa};
use qismet_qsim::{
    Backend, BackendPool, Circuit, CompiledCircuit, CompiledObservable, GateError, PauliSum,
};
use qismet_vqa::{
    run_tuning, AppInstance, Boundary, NoisyObjective, NoisyObjectiveConfig, Tfim, TuningScheme,
};
use serde::Serialize as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker spawn-and-handshake probes; `cluster.session_setup_ms` is their
/// median.
const SESSION_PROBES: usize = 5;

/// Time and points spent in the backend. Shared by every clone of one
/// [`TimedBackend`]; the counters publish no other data.
#[derive(Debug, Default)]
struct EvalClock {
    ns: AtomicU64,
    points: AtomicU64,
}

impl EvalClock {
    fn add(&self, since: Instant, points: usize) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.points.fetch_add(points as u64, Ordering::Relaxed);
    }

    fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.ns.load(Ordering::Relaxed))
    }
}

/// Times every call into the wrapped backend.
struct TimedBackend {
    inner: Box<dyn Backend>,
    clock: Arc<EvalClock>,
}

impl Backend for TimedBackend {
    fn evaluate(&mut self, circuit: &Circuit, observable: &PauliSum) -> Result<f64, GateError> {
        let t = Instant::now();
        let r = self.inner.evaluate(circuit, observable);
        self.clock.add(t, 1);
        r
    }

    fn evaluate_batch(
        &mut self,
        circuits: &[Circuit],
        observable: &PauliSum,
    ) -> Result<Vec<f64>, GateError> {
        let t = Instant::now();
        let r = self.inner.evaluate_batch(circuits, observable);
        self.clock.add(t, circuits.len());
        r
    }

    fn evaluate_plan(
        &mut self,
        plan: &mut CompiledCircuit,
        params: &[f64],
        observable: &CompiledObservable,
    ) -> Result<f64, GateError> {
        let t = Instant::now();
        let r = self.inner.evaluate_plan(plan, params, observable);
        self.clock.add(t, 1);
        r
    }

    fn evaluate_plan_batch(
        &mut self,
        plan: &mut CompiledCircuit,
        points: &[Vec<f64>],
        observable: &CompiledObservable,
    ) -> Result<Vec<f64>, GateError> {
        let t = Instant::now();
        let r = self.inner.evaluate_plan_batch(plan, points, observable);
        self.clock.add(t, points.len());
        r
    }

    fn clone_box(&self) -> Box<dyn Backend> {
        Box::new(TimedBackend {
            inner: self.inner.clone_box(),
            clock: Arc::clone(&self.clock),
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times the optimizer's own work: every call, minus the time spent in the
/// objective closure it is handed.
struct TimedProposer<P> {
    inner: P,
    self_time: Duration,
    proposals: u64,
}

impl<P: Proposer> Proposer for TimedProposer<P> {
    fn propose(&mut self, theta: &[f64], objective: &mut dyn FnMut(&[f64]) -> f64) -> Proposal {
        let t = Instant::now();
        let mut inside = Duration::ZERO;
        let proposal = {
            let mut timed = |x: &[f64]| {
                let s = Instant::now();
                let v = objective(x);
                inside += s.elapsed();
                v
            };
            self.inner.propose(theta, &mut timed)
        };
        self.self_time += t.elapsed().saturating_sub(inside);
        self.proposals += 1;
        proposal
    }

    fn eval_points(&mut self, theta: &[f64]) -> Option<Vec<Vec<f64>>> {
        let t = Instant::now();
        let points = self.inner.eval_points(theta);
        self.self_time += t.elapsed();
        points
    }

    fn propose_from(&mut self, theta: &[f64], values: &[f64]) -> Proposal {
        let t = Instant::now();
        let proposal = self.inner.propose_from(theta, values);
        self.self_time += t.elapsed();
        self.proposals += 1;
        proposal
    }

    fn advance(&mut self) {
        let t = Instant::now();
        self.inner.advance();
        self.self_time += t.elapsed();
    }

    fn iteration(&self) -> usize {
        self.inner.iteration()
    }

    fn evals_per_proposal(&self) -> usize {
        self.inner.evals_per_proposal()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Per-layer totals of one traced campaign.
#[derive(Default)]
struct Layers {
    clock: Arc<EvalClock>,
    build: Duration,
    build_calls: u64,
    eig: Duration,
    trace: Duration,
    trace_slots: u64,
    objective_new: Duration,
    optim_self: Duration,
    proposals: u64,
    runner_self: Duration,
    controller_self: Duration,
    attempts: u64,
    accepted: u64,
    report: Duration,
    report_bytes: u64,
}

/// One spec, as `run_scheme` runs it, with every layer timed.
fn traced_spec(spec: &RunSpec, pool: &mut BackendPool, layers: &mut Layers) -> RunRecord {
    let scheme = match &spec.kind {
        RunKind::Scheme(s @ (Scheme::Baseline | Scheme::Qismet)) => *s,
        other => panic!("the traced run covers baseline and qismet specs, got {other:?}"),
    };
    let app = &spec.app;
    let iterations = spec.iterations;

    // AppSpec::build_with_backend, step by step.
    let build_start = Instant::now();
    let tfim = Tfim {
        n: app.n_qubits,
        j: 1.0,
        h: 1.0,
        boundary: Boundary::Open,
    };
    let hamiltonian = tfim.hamiltonian();
    let t = Instant::now();
    let exact_ground = tfim
        .exact_ground_energy()
        .expect("dense TFIM diagonalization");
    layers.eig += t.elapsed();
    let ansatz = app.build_ansatz();
    let seed = app.seed(spec.seed);
    let magnitude = spec
        .magnitude
        .unwrap_or_else(|| app.machine.native_transient_magnitude());
    let capacity = iterations * 7 + 16;
    let t = Instant::now();
    let trace = app
        .machine
        .transient_model(magnitude)
        .generate(&mut rng_from_seed(derive_seed(seed, 1)), capacity);
    layers.trace += t.elapsed();
    layers.trace_slots += capacity as u64;
    let cfg = NoisyObjectiveConfig {
        static_model: app.machine.static_model(app.n_qubits),
        trace,
        magnitude_ref: exact_ground.abs(),
        shot_sigma: 0.01 * exact_ground.abs(),
        within_job_spread: 0.2,
        seed: derive_seed(seed, 2),
    };
    let theta0 = ansatz.initial_params_wide(derive_seed(seed, 3));
    let backend: Box<dyn Backend> = Box::new(TimedBackend {
        inner: pool.backend_for(app.n_qubits),
        clock: Arc::clone(&layers.clock),
    });
    let t = Instant::now();
    let objective = NoisyObjective::with_backend(ansatz.clone(), hamiltonian.clone(), cfg, backend);
    layers.objective_new += t.elapsed();
    let mut inst = AppInstance {
        spec: app.clone(),
        ansatz,
        hamiltonian,
        exact_ground,
        objective,
        theta0,
    };
    layers.build += build_start.elapsed();
    layers.build_calls += 1;

    // The tuning loop.
    let opt_seed = derive_seed(spec.seed, 0xa11);
    let mut proposer = TimedProposer {
        inner: Spsa::new(inst.theta0.len(), GainSchedule::vqa_paper(), opt_seed),
        self_time: Duration::ZERO,
        proposals: 0,
    };
    let eval_before = layers.clock.elapsed();
    let t = Instant::now();
    let (series, jobs, evals, skips) = if scheme == Scheme::Baseline {
        let rec = run_tuning(
            &mut proposer,
            &mut inst.objective,
            inst.theta0.clone(),
            iterations,
            TuningScheme::Baseline,
        );
        (rec.measured, rec.jobs, rec.evals, 0)
    } else {
        let rec = run_qismet_budgeted(
            &mut proposer,
            &mut inst.objective,
            inst.theta0.clone(),
            iterations,
            iterations + 1,
            QismetConfig::paper_default(),
        );
        layers.accepted += rec.record.measured.len() as u64;
        layers.attempts += (rec.record.measured.len() + rec.skips) as u64;
        (
            rec.record.measured,
            rec.record.jobs,
            rec.record.evals,
            rec.skips,
        )
    };
    let loop_self = t
        .elapsed()
        .saturating_sub(proposer.self_time)
        .saturating_sub(layers.clock.elapsed() - eval_before);
    if scheme == Scheme::Baseline {
        layers.runner_self += loop_self;
    } else {
        layers.controller_self += loop_self;
    }
    layers.optim_self += proposer.self_time;
    layers.proposals += proposer.proposals;

    let n = series.len();
    let final_energy = qismet_mathkit::mean(&series[n.saturating_sub(final_window(iterations))..]);
    RunRecord {
        label: spec.label.clone(),
        app: app.name(),
        machine: app.machine.name().to_string(),
        scheme: spec.kind.name(),
        scenario: spec.scenario,
        trial: spec.trial,
        iterations,
        magnitude: spec.magnitude,
        seed: spec.seed,
        final_energy,
        jobs,
        evals,
        skips,
        series,
    }
}

/// Cluster-layer measurements (`sharded-grid` only; zero elsewhere).
#[derive(Default)]
struct ClusterLayers {
    session_setup_ms: f64,
    frame_bytes: f64,
    encode_us: f64,
    decode_us: f64,
    journal_append_us: f64,
    journal_bytes: f64,
    journal_load_ms: f64,
    merge_ms: f64,
    respawns: f64,
    lost_workers: f64,
}

pub fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let campaign = w.campaign(args.seed);
    let specs = campaign.expand();
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Vec::new(),
    };
    let report_of = |records: Vec<RunRecord>| CampaignReport {
        name: campaign.name.clone(),
        seed: campaign.seed,
        meta: ReportMeta::current(),
        records,
    };

    // Warm caches and lazy set-up before either pass is timed.
    std::hint::black_box(run_one(&specs[0]));

    // Untraced: the program itself, spec by spec.
    let started = Instant::now();
    let reference = match SweepExecutor::new().try_run_specs(&specs, run_one) {
        Ok(records) => report_of(records),
        Err(e) => {
            outcome.failed = specs.len();
            outcome.problems.push(e.to_string());
            return outcome;
        }
    };
    std::hint::black_box(serde_json::to_string_pretty(&reference).expect("report serializes"));
    let untraced_wall = started.elapsed();
    workload::check_pin(w, args.seed, &reference.records, &mut outcome);

    // Traced passes over the same specs until the time budget is spent;
    // each metric is the median over passes.
    let budget = Duration::from_secs_f64(args.seconds);
    let mut pool = BackendPool::new();
    let mut passes: Vec<Vec<Metric>> = Vec::new();
    while passes.is_empty() || started.elapsed() < budget {
        let mut layers = Layers::default();
        let pass_start = Instant::now();
        let traced = report_of(
            specs
                .iter()
                .map(|spec| traced_spec(spec, &mut pool, &mut layers))
                .collect(),
        );
        let t = Instant::now();
        let json = serde_json::to_string_pretty(&traced).expect("report serializes");
        layers.report = t.elapsed();
        layers.report_bytes = json.len() as u64;
        let traced_wall = pass_start.elapsed();

        outcome.attempted += specs.len();
        for (spec, (a, b)) in specs
            .iter()
            .zip(traced.records.iter().zip(&reference.records))
        {
            if !workload::same_record(a, b) {
                outcome.failed += 1;
                outcome
                    .problems
                    .push(format!("traced record {} differs from run_one", spec.index));
            }
        }
        let (failed, first) = workload::check_records(&specs, &traced.records);
        outcome.failed += failed;
        outcome.problems.extend(first);
        passes.push(layers.metrics(traced_wall, untraced_wall));
    }
    println!("measured {} traced campaign(s)", passes.len());
    outcome.metrics = passes[0]
        .iter()
        .enumerate()
        .map(|(i, m)| Metric {
            name: m.name,
            value: median(&passes.iter().map(|p| p[i].value).collect::<Vec<_>>()),
            unit: m.unit,
        })
        .collect();

    let cluster = if w == Workload::ShardedGrid {
        cluster_layers(args, &reference.records, &mut outcome)
    } else {
        ClusterLayers::default()
    };
    outcome.metrics.extend(cluster.metrics());
    outcome
}

impl Layers {
    fn metrics(&self, traced_wall: Duration, untraced_wall: Duration) -> Vec<Metric> {
        let eval = self.clock.elapsed();
        let points = self.clock.points.load(Ordering::Relaxed);
        // Self times of the named layers. The build's sub-steps are inside
        // `build`, and the loop self times already exclude optimizer and
        // simulator time.
        let named = self.build
            + eval
            + self.optim_self
            + self.runner_self
            + self.controller_self
            + self.report;
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("vqa.build_ms", ms(self.build), "ms"),
            m("vqa.build_calls", self.build_calls as f64, "count"),
            m("mathkit.eig_ms", ms(self.eig), "ms"),
            m("qnoise.trace_ms", ms(self.trace), "ms"),
            m("qnoise.trace_slots", self.trace_slots as f64, "count"),
            m("vqa.objective_new_ms", ms(self.objective_new), "ms"),
            m("qsim.eval_ms", ms(eval), "ms"),
            m("qsim.points", points as f64, "count"),
            m(
                "qsim.ns_per_point",
                ratio(eval.as_nanos() as f64, points as f64),
                "ns",
            ),
            m("optim.self_ms", ms(self.optim_self), "ms"),
            m("optim.proposals", self.proposals as f64, "count"),
            m("vqa.runner_self_ms", ms(self.runner_self), "ms"),
            m("core.controller_self_ms", ms(self.controller_self), "ms"),
            m("core.attempts", self.attempts as f64, "count"),
            m(
                "core.accept_ratio",
                ratio(self.accepted as f64, self.attempts as f64),
                "ratio",
            ),
            m("bench.report_ms", ms(self.report), "ms"),
            m("bench.report_bytes", self.report_bytes as f64, "bytes"),
            m(
                "coverage",
                ratio(named.as_secs_f64(), traced_wall.as_secs_f64()),
                "ratio",
            ),
            m(
                "trace_overhead",
                ratio(traced_wall.as_secs_f64(), untraced_wall.as_secs_f64()) - 1.0,
                "ratio",
            ),
        ]
    }
}

impl ClusterLayers {
    fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("cluster.session_setup_ms", self.session_setup_ms, "ms"),
            m("cluster.frame_bytes", self.frame_bytes, "bytes"),
            m("cluster.encode_us", self.encode_us, "us"),
            m("cluster.decode_us", self.decode_us, "us"),
            m("cluster.journal_append_us", self.journal_append_us, "us"),
            m("cluster.journal_bytes", self.journal_bytes, "bytes"),
            m("cluster.journal_load_ms", self.journal_load_ms, "ms"),
            m("cluster.merge_ms", self.merge_ms, "ms"),
            m("cluster.respawns", self.respawns, "count"),
            m("cluster.lost_workers", self.lost_workers, "count"),
        ]
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Spawn and handshake probes, then one distributed run whose frames,
/// journal entries and merge are replayed through the cluster layer's
/// public functions.
fn cluster_layers(args: &Args, reference: &[RunRecord], outcome: &mut Outcome) -> ClusterLayers {
    let grid = args.workload.grid(args.seed);
    let campaign = args.workload.campaign(args.seed);
    let specs = campaign.expand();
    let fingerprint = campaign.fingerprint();
    let launch = workload::worker_launch(&args.campaign_bin, &grid);
    let mut layers = ClusterLayers::default();

    let mut setups = Vec::with_capacity(SESSION_PROBES);
    for _ in 0..SESSION_PROBES {
        match workload::handshake_probe(&launch, SHARDED_WORKERS, &campaign) {
            Ok(d) => setups.push(ms(d)),
            Err(e) => {
                outcome.problems.push(e);
                return layers;
            }
        }
    }
    layers.session_setup_ms = median(&setups);

    let journal = args.work_dir.join("sharded-grid-trace.ckpt.jsonl");
    let _ = std::fs::remove_file(&journal);
    let opts = DistributedOptions {
        workers: SHARDED_WORKERS,
        checkpoint: Some(journal.clone()),
        ..DistributedOptions::default()
    };
    outcome.attempted += specs.len();
    let (report, stats) = match run_campaign_distributed(&campaign, Some(launch), &opts) {
        Ok(done) => done,
        Err(e) => {
            outcome.failed += specs.len();
            outcome.problems.push(format!("distributed campaign: {e}"));
            return layers;
        }
    };
    layers.respawns = stats.respawns as f64;
    layers.lost_workers = stats.lost_workers as f64;
    for (i, (a, b)) in report.records.iter().zip(reference).enumerate() {
        if !workload::same_record(a, b) {
            outcome.failed += 1;
            outcome
                .problems
                .push(format!("sharded record {i} differs from run_one"));
        }
    }
    let n = report.records.len().max(1) as f64;

    // Result frames through the wire codec.
    let (mut encode, mut decode, mut bytes) = (Duration::ZERO, Duration::ZERO, 0usize);
    for (spec, record) in specs.iter().zip(&report.records) {
        let msg = Message::Done(Done {
            index: spec.index,
            seed: spec.seed,
            outcome: WireOutcome::Record(record.to_value()),
            stats: None,
        });
        let mut frame = Vec::new();
        let t = Instant::now();
        write_message(&mut frame, &msg).expect("in-memory frame write");
        encode += t.elapsed();
        bytes += frame.len();
        let t = Instant::now();
        let back = read_message(&mut frame.as_slice());
        decode += t.elapsed();
        if back.ok().as_ref() != Some(&msg) {
            outcome.failed += 1;
            outcome
                .problems
                .push(format!("frame of spec {} did not round-trip", spec.index));
        }
    }
    layers.frame_bytes = bytes as f64 / n;
    layers.encode_us = encode.as_secs_f64() * 1e6 / n;
    layers.decode_us = decode.as_secs_f64() * 1e6 / n;

    // The run's own journal: size and resume-side load.
    layers.journal_bytes = std::fs::metadata(&journal).map_or(0.0, |m| m.len() as f64);
    let t = Instant::now();
    let loaded = load_journal(&journal, fingerprint);
    layers.journal_load_ms = ms(t.elapsed());
    if loaded.map(|l| l.entries.len()).ok() != Some(specs.len()) {
        outcome.failed += 1;
        outcome
            .problems
            .push("checkpoint journal does not hold every spec".into());
    }
    let _ = std::fs::remove_file(&journal);

    // The same entries appended to a fresh journal.
    let replay = args.work_dir.join("sharded-grid-replay.ckpt.jsonl");
    let _ = std::fs::remove_file(&replay);
    match JournalWriter::append_to(&replay) {
        Ok(mut writer) => {
            let mut append = Duration::ZERO;
            for (spec, record) in specs.iter().zip(&report.records) {
                let entry = CheckpointEntry {
                    fingerprint,
                    index: spec.index,
                    seed: spec.seed,
                    record: record.to_value(),
                };
                let t = Instant::now();
                let appended = writer.append(&entry);
                append += t.elapsed();
                if let Err(e) = appended {
                    outcome.problems.push(format!("journal append: {e}"));
                    break;
                }
            }
            layers.journal_append_us = append.as_secs_f64() * 1e6 / n;
        }
        Err(e) => outcome.problems.push(format!("journal open: {e}")),
    }
    let _ = std::fs::remove_file(&replay);

    // The coordinator's merge, fed in reverse completion order.
    let expected: Vec<usize> = (0..specs.len()).collect();
    let parts: Vec<(usize, RunRecord)> = report.records.iter().cloned().enumerate().rev().collect();
    let t = Instant::now();
    let merged = merge_indexed(&expected, parts);
    layers.merge_ms = ms(t.elapsed());
    if merged.ok().as_deref() != Some(report.records.as_slice()) {
        outcome.failed += 1;
        outcome.problems.push("merge changed the records".into());
    }
    layers
}
