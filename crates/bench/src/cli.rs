//! `campaign` CLI parsing: one typed validation pass over every flag.
//!
//! The binary used to sprinkle `die()` calls through `parse_args`; every
//! flag-compatibility rule now lives in a single [`validate`] pass over the
//! fully-parsed [`Args`], producing a typed [`ConfigConflict`] — one enum
//! variant per rule, one unit test per variant, and one place to read when
//! adding a mode. The binary maps [`CliError`] onto the typed
//! [exit codes](EXIT_USAGE) shared with the runtime error paths.

use crate::distributed::DEFAULT_HEARTBEAT;
use crate::scenario::{parse_scheme, parse_threshold, valid_magnitude};
use crate::service::machine_by_name;
use crate::{scaled, Scheme};
use qismet_cluster::ClusterError;
use qismet_qnoise::Machine;
use qismet_vqa::AppSpec;
use std::path::PathBuf;
use std::time::Duration;

/// Generic runtime failure (I/O, merge, lost fleet, ...).
pub const EXIT_FAILURE: i32 = 1;
/// Usage/validation error — bad flag value or a [`ConfigConflict`].
pub const EXIT_USAGE: i32 = 2;
/// `--worker`/`--daemon`/`--register` side failed while serving.
pub const EXIT_WORKER: i32 = 3;
/// The campaign completed except for poisoned specs
/// ([`ClusterError::PoisonedSpecs`]).
pub const EXIT_POISONED: i32 = 4;
/// A handshake was rejected (token/fingerprint mismatch, quarantined
/// name) — [`ClusterError::Rejected`] or a `BadToken` service refusal.
pub const EXIT_REJECTED: i32 = 5;

/// Maps a coordinator error onto the typed exit codes: poisoned specs and
/// rejected handshakes get distinct codes scripts can branch on; everything
/// else is a generic failure.
pub fn exit_code_for(error: &ClusterError) -> i32 {
    match error {
        ClusterError::PoisonedSpecs { .. } => EXIT_POISONED,
        ClusterError::Rejected { .. } => EXIT_REJECTED,
        _ => EXIT_FAILURE,
    }
}

/// Maps a service-client error onto the typed exit codes: authentication
/// refusals (bad token, quarantined worker name) exit like rejected
/// handshakes; other refusals and channel failures are generic.
pub fn exit_code_for_service(error: &crate::service::ServiceError) -> i32 {
    use qismet_cluster::ServiceErrKind;
    match error {
        crate::service::ServiceError::Refused {
            kind: ServiceErrKind::BadToken | ServiceErrKind::Quarantined,
            ..
        } => EXIT_REJECTED,
        _ => EXIT_FAILURE,
    }
}

/// The service-client verb given as the first positional argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientVerb {
    /// Enqueue the grid described by the flags as a job.
    Submit,
    /// Print the queue and fleet status visible to the token.
    Status,
    /// Cancel a queued/running job by id (`--job`).
    Cancel,
    /// Refuse new submissions, wait for settlement, stop the daemon.
    Drain,
}

impl ClientVerb {
    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            ClientVerb::Submit => "submit",
            ClientVerb::Status => "status",
            ClientVerb::Cancel => "cancel",
            ClientVerb::Drain => "drain",
        }
    }

    fn parse(word: &str) -> Option<Self> {
        match word {
            "submit" => Some(ClientVerb::Submit),
            "status" => Some(ClientVerb::Status),
            "cancel" => Some(ClientVerb::Cancel),
            "drain" => Some(ClientVerb::Drain),
            _ => None,
        }
    }
}

/// Fully-parsed `campaign` arguments (defaults applied, values validated,
/// cross-flag rules checked by [`validate`]).
#[allow(missing_docs)]
#[derive(Debug, Clone)]
pub struct Args {
    pub apps: Vec<AppSpec>,
    pub machines: Vec<Machine>,
    pub schemes: Vec<Scheme>,
    pub thresholds: Vec<u32>,
    pub magnitudes: Vec<f64>,
    pub iterations: usize,
    pub trials: usize,
    pub seed: u64,
    pub threads: Option<usize>,
    pub name: String,
    pub workers: usize,
    pub token: String,
    pub checkpoint: Option<PathBuf>,
    pub resume: bool,
    pub max_respawns: usize,
    pub jsonl: Option<PathBuf>,
    pub worker_mode: bool,
    pub assign_timeout: Option<Duration>,
    pub heartbeat: Option<Duration>,
    pub quarantine_after: Option<usize>,
    pub chaos_plan: Option<PathBuf>,
    pub chaos_seed: Option<u64>,
    pub chaos_json: Option<String>,
    pub metrics_out: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
    pub progress: bool,
    // --- service mode ---
    /// Run as a long-lived campaign-service daemon bound to this address.
    pub daemon: Option<String>,
    /// Daemon state directory (queue event log + per-job journals).
    pub state_dir: Option<PathBuf>,
    /// Daemon tenant credentials, `name=token` pairs.
    pub tenants: Vec<(String, String)>,
    /// Daemon report directory (default: the standard results dir).
    pub report_dir: Option<PathBuf>,
    /// Register as an elastic worker at this daemon address.
    pub register: Option<String>,
    /// Registered worker name (quarantine identity).
    pub worker_name: Option<String>,
    /// Voluntarily deregister after serving this many batches.
    pub deregister_after: Option<usize>,
    /// Client verb (first positional argument).
    pub command: Option<ClientVerb>,
    /// Client: daemon address to talk to.
    pub to: Option<String>,
    /// Client: job id for `cancel`.
    pub job: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            apps: vec![AppSpec::by_id(2).expect("App2")],
            machines: Vec::new(),
            schemes: vec![Scheme::Baseline, Scheme::Qismet],
            thresholds: Vec::new(),
            magnitudes: Vec::new(),
            iterations: scaled(500),
            trials: 1,
            seed: 7,
            threads: None,
            name: "campaign".to_string(),
            workers: 0,
            token: String::new(),
            checkpoint: None,
            resume: false,
            max_respawns: 2,
            jsonl: None,
            worker_mode: false,
            assign_timeout: None,
            heartbeat: None,
            quarantine_after: None,
            chaos_plan: None,
            chaos_seed: None,
            chaos_json: None,
            metrics_out: None,
            trace_out: None,
            progress: false,
            daemon: None,
            state_dir: None,
            tenants: Vec::new(),
            report_dir: None,
            register: None,
            worker_name: None,
            deregister_after: None,
            command: None,
            to: None,
            job: None,
        }
    }
}

/// Every cross-flag incompatibility `campaign` refuses, as data. The
/// [`std::fmt::Display`] impl is the operator-facing message; each variant
/// has a unit test pinning the flag combination that trips it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigConflict {
    /// No apps, or neither schemes nor thresholds: the grid is empty.
    EmptyGrid,
    /// `--resume` without `--checkpoint`.
    ResumeWithoutCheckpoint,
    /// `--checkpoint`/`--resume` on a plain in-process run.
    JournalNeedsSharding,
    /// The workers' heartbeat (`--heartbeat`, or the default one of
    /// workers this process spawns) is not shorter than `--assign-timeout`.
    HeartbeatSlowerThanDeadline,
    /// Both `--chaos-plan` and `--chaos-seed`.
    ChaosPlanAndSeed,
    /// Chaos flags without any workers to inject faults into.
    ChaosNeedsWorkers,
    /// `--daemon` combined with any other execution mode.
    DaemonWithPool,
    /// Coordinator journaling flags on a `--daemon` (jobs journal under
    /// `--state-dir` instead).
    DaemonWithJournal,
    /// `--register` combined with any other execution mode.
    RegisterWithPool,
    /// Coordinator journaling/streaming flags on a `--register` worker.
    RegisterWithJournal,
    /// A daemon-only flag (`--state-dir`/`--tenants`/`--report-dir`)
    /// without `--daemon`.
    DaemonFlagOutsideDaemon(&'static str),
    /// A register-only flag (`--worker-name`/`--deregister-after`)
    /// without `--register`.
    RegisterFlagOutsideRegister(&'static str),
    /// A client verb without `--to <addr>`.
    ClientNeedsTo,
    /// `cancel` without `--job <id>`.
    CancelNeedsJob,
    /// `--job` with a verb other than `cancel`.
    JobOutsideCancel,
}

impl std::fmt::Display for ConfigConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigConflict::EmptyGrid => {
                write!(f, "need at least one app and one scheme (or threshold percentile)")
            }
            ConfigConflict::ResumeWithoutCheckpoint => {
                write!(f, "--resume requires --checkpoint <path>")
            }
            ConfigConflict::JournalNeedsSharding => write!(
                f,
                "--checkpoint/--resume need sharded execution: add --workers <n>"
            ),
            ConfigConflict::HeartbeatSlowerThanDeadline => write!(
                f,
                "--heartbeat (default {DEFAULT_HEARTBEAT:?} for --workers) must be shorter than --assign-timeout"
            ),
            ConfigConflict::ChaosPlanAndSeed => {
                write!(f, "--chaos-plan and --chaos-seed are mutually exclusive")
            }
            ConfigConflict::ChaosNeedsWorkers => write!(
                f,
                "--chaos-plan/--chaos-seed inject faults into workers: add --workers <n>"
            ),
            ConfigConflict::DaemonWithPool => write!(
                f,
                "--daemon is a service mode; it cannot combine with --workers/--worker/--register or a client verb"
            ),
            ConfigConflict::DaemonWithJournal => write!(
                f,
                "--checkpoint/--resume/--jsonl do not apply to --daemon; jobs journal under --state-dir"
            ),
            ConfigConflict::RegisterWithPool => write!(
                f,
                "--register is a worker mode; it cannot combine with --workers/--worker/--daemon or a client verb"
            ),
            ConfigConflict::RegisterWithJournal => write!(
                f,
                "--checkpoint/--resume/--jsonl belong on the daemon/client side, not --register"
            ),
            ConfigConflict::DaemonFlagOutsideDaemon(flag) => {
                write!(f, "{flag} requires --daemon <addr>")
            }
            ConfigConflict::RegisterFlagOutsideRegister(flag) => {
                write!(f, "{flag} requires --register <addr>")
            }
            ConfigConflict::ClientNeedsTo => {
                write!(f, "submit/status/cancel/drain require --to <addr>")
            }
            ConfigConflict::CancelNeedsJob => write!(f, "cancel requires --job <id>"),
            ConfigConflict::JobOutsideCancel => write!(f, "--job only applies to cancel"),
        }
    }
}

/// A failed parse: `--help`, a malformed flag value, or a typed
/// cross-flag conflict. All except `Help` exit with [`EXIT_USAGE`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `-h`/`--help` was given.
    Help,
    /// A flag value failed to parse (message is operator-facing).
    Usage(String),
    /// A typed flag-compatibility conflict.
    Conflict(ConfigConflict),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Help => write!(f, "help requested"),
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Conflict(conflict) => write!(f, "{conflict}"),
        }
    }
}

impl std::error::Error for CliError {}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn parse_list<T>(
    value: &str,
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, CliError> {
    value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse(s.trim()).ok_or_else(|| usage(format!("invalid {what}: `{s}`"))))
        .collect()
}

/// Parses a duration flag as seconds; non-numeric values, values that
/// round to zero and values too large for a [`Duration`] are configuration
/// errors, not clamps.
fn parse_secs(flag: &str, value: &str) -> Result<Duration, CliError> {
    value
        .parse::<f64>()
        .ok()
        .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
        .filter(|duration| !duration.is_zero())
        .ok_or_else(|| {
            usage(format!(
                "invalid {flag} `{value}`: must be a number of seconds from 1e-9 to 1.8e19"
            ))
        })
}

/// Parses a numeric flag value, naming `what` it is on failure.
fn parse_num<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| usage(format!("invalid {what} `{value}`")))
}

/// Parses `name=token` tenant credential pairs.
fn parse_tenants(value: &str) -> Result<Vec<(String, String)>, CliError> {
    value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            let (name, token) = pair
                .split_once('=')
                .ok_or_else(|| usage(format!("invalid tenant `{pair}`: expected name=token")))?;
            if name.is_empty() || token.is_empty() {
                return Err(usage(format!(
                    "invalid tenant `{pair}`: name and token must be non-empty"
                )));
            }
            Ok((name.trim().to_string(), token.to_string()))
        })
        .collect()
}

/// Parses the full argv (program name already stripped) into [`Args`],
/// then runs the single [`validate`] pass.
pub fn parse_args(argv: &[String]) -> Result<Args, CliError> {
    let mut args = Args::default();
    let mut words = argv.iter().map(String::as_str).peekable();
    // First positional word = client verb.
    if let Some(word) = words.next_if(|word| !word.starts_with('-')) {
        args.command = Some(
            ClientVerb::parse(word).ok_or_else(|| usage(format!("unknown command `{word}`")))?,
        );
    }
    while let Some(flag) = words.next() {
        // Only a known flag that takes a value reads the next word, so an
        // unknown flag is reported as unknown even when it ends the line.
        let mut value = || {
            words
                .next()
                .ok_or_else(|| usage(format!("missing value for `{flag}`")))
        };
        match flag {
            "-h" | "--help" => return Err(CliError::Help),
            // Boolean flags.
            "--resume" => args.resume = true,
            "--worker" => args.worker_mode = true,
            "--progress" => args.progress = true,
            // Flags with a value.
            "--apps" => {
                args.apps = parse_list(value()?, "app id", |s| {
                    s.parse::<u8>().ok().and_then(AppSpec::by_id)
                })?;
            }
            "--machines" => args.machines = parse_list(value()?, "machine", machine_by_name)?,
            "--schemes" => args.schemes = parse_list(value()?, "scheme", parse_scheme)?,
            "--thresholds" => {
                args.thresholds = parse_list(value()?, "threshold percentile", parse_threshold)?;
            }
            "--magnitudes" => {
                args.magnitudes = parse_list(value()?, "magnitude (finite and >= 0)", |s| {
                    s.parse().ok().filter(|&m| valid_magnitude(m))
                })?;
            }
            "--iterations" => args.iterations = parse_num(value()?, "iteration count")?,
            "--trials" => args.trials = parse_num(value()?, "trial count")?,
            "--seed" => args.seed = parse_num(value()?, "seed")?,
            "--threads" => args.threads = Some(parse_num(value()?, "thread count")?),
            "--workers" => args.workers = parse_num(value()?, "worker count")?,
            "--token" => args.token = value()?.to_string(),
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value()?)),
            "--max-respawns" => args.max_respawns = parse_num(value()?, "respawn budget")?,
            "--jsonl" => args.jsonl = Some(PathBuf::from(value()?)),
            "--assign-timeout" => args.assign_timeout = Some(parse_secs(flag, value()?)?),
            "--heartbeat" => args.heartbeat = Some(parse_secs(flag, value()?)?),
            "--quarantine-after" => {
                let value = value()?;
                args.quarantine_after = match value.parse::<usize>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => {
                        return Err(usage(format!(
                            "invalid --quarantine-after `{value}`: must be a positive strike count"
                        )))
                    }
                };
            }
            "--chaos-plan" => args.chaos_plan = Some(PathBuf::from(value()?)),
            "--chaos-seed" => args.chaos_seed = Some(parse_num(value()?, "chaos seed")?),
            // Hidden: a concrete fault plan the coordinator resolved and
            // forwarded to its spawned workers (never needed by hand).
            "--chaos-json" => args.chaos_json = Some(value()?.to_string()),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value()?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--name" => args.name = value()?.to_string(),
            "--daemon" => args.daemon = Some(value()?.to_string()),
            "--state-dir" => args.state_dir = Some(PathBuf::from(value()?)),
            "--tenants" => args.tenants = parse_tenants(value()?)?,
            "--report-dir" => args.report_dir = Some(PathBuf::from(value()?)),
            "--register" => args.register = Some(value()?.to_string()),
            "--worker-name" => args.worker_name = Some(value()?.to_string()),
            "--deregister-after" => {
                args.deregister_after =
                    Some(parse_num(value()?, "--deregister-after batch count")?);
            }
            "--to" => args.to = Some(value()?.to_string()),
            "--job" => args.job = Some(parse_num(value()?, "job id")?),
            other => return Err(usage(format!("unknown flag `{other}`"))),
        }
    }
    validate(&args).map_err(CliError::Conflict)?;
    Ok(args)
}

/// The single typed flag-compatibility pass: every cross-flag rule the
/// binary enforces, checked over the fully-parsed [`Args`]. Returns the
/// first conflict in a fixed order, so error messages are deterministic.
pub fn validate(args: &Args) -> Result<(), ConfigConflict> {
    use ConfigConflict as C;
    let any_pool = args.workers > 0 || args.worker_mode;
    // A grid is required by every mode that expands one (everything except
    // the client verbs that carry no grid: status/cancel/drain).
    let needs_grid = !matches!(
        args.command,
        Some(ClientVerb::Status) | Some(ClientVerb::Cancel) | Some(ClientVerb::Drain)
    );
    if needs_grid
        && (args.apps.is_empty() || (args.schemes.is_empty() && args.thresholds.is_empty()))
    {
        return Err(C::EmptyGrid);
    }
    // --- mutually exclusive top-level modes ---
    if args.daemon.is_some() && (any_pool || args.register.is_some() || args.command.is_some()) {
        return Err(C::DaemonWithPool);
    }
    if args.register.is_some() && (any_pool || args.command.is_some()) {
        return Err(C::RegisterWithPool);
    }
    // --- journaling/streaming placement ---
    let journal_flags = args.checkpoint.is_some() || args.resume || args.jsonl.is_some();
    if args.daemon.is_some() && journal_flags {
        // Jobs journal under --state-dir; a daemon that silently ignored
        // these would fake durability.
        return Err(C::DaemonWithJournal);
    }
    if args.register.is_some() && journal_flags {
        return Err(C::RegisterWithJournal);
    }
    if args.resume && args.checkpoint.is_none() {
        return Err(C::ResumeWithoutCheckpoint);
    }
    let plain_run =
        !any_pool && args.daemon.is_none() && args.register.is_none() && args.command.is_none();
    if plain_run && (args.checkpoint.is_some() || args.resume) {
        // Only the sharded coordinator journals; refusing beats silently
        // running an unresumable campaign.
        return Err(C::JournalNeedsSharding);
    }
    // --- flags that only configure one side ---
    // Workers this process spawns beat at the default interval unless told
    // otherwise; registered workers pick their own.
    let heartbeat = args
        .heartbeat
        .or((args.workers > 0).then_some(DEFAULT_HEARTBEAT));
    if let (Some(heartbeat), Some(deadline)) = (heartbeat, args.assign_timeout) {
        if heartbeat >= deadline {
            // A keepalive slower than the deadline can never land in time,
            // so every slow batch would be misread as a hang.
            return Err(C::HeartbeatSlowerThanDeadline);
        }
    }
    // --- chaos ---
    if args.chaos_plan.is_some() && args.chaos_seed.is_some() {
        return Err(C::ChaosPlanAndSeed);
    }
    let chaos_requested =
        args.chaos_plan.is_some() || args.chaos_seed.is_some() || args.chaos_json.is_some();
    if chaos_requested && !any_pool {
        return Err(C::ChaosNeedsWorkers);
    }
    // --- service-mode flag placement ---
    if args.daemon.is_none() {
        if args.state_dir.is_some() {
            return Err(C::DaemonFlagOutsideDaemon("--state-dir"));
        }
        if !args.tenants.is_empty() {
            return Err(C::DaemonFlagOutsideDaemon("--tenants"));
        }
        if args.report_dir.is_some() {
            return Err(C::DaemonFlagOutsideDaemon("--report-dir"));
        }
    }
    if args.register.is_none() {
        if args.worker_name.is_some() {
            return Err(C::RegisterFlagOutsideRegister("--worker-name"));
        }
        if args.deregister_after.is_some() {
            return Err(C::RegisterFlagOutsideRegister("--deregister-after"));
        }
    }
    // --- client verbs ---
    match args.command {
        Some(verb) => {
            if args.to.is_none() {
                return Err(C::ClientNeedsTo);
            }
            if verb == ClientVerb::Cancel && args.job.is_none() {
                return Err(C::CancelNeedsJob);
            }
            if verb != ClientVerb::Cancel && args.job.is_some() {
                return Err(C::JobOutsideCancel);
            }
        }
        None => {
            if args.to.is_some() {
                // `--to` names a daemon to talk to; without a verb there is
                // nothing to say to it.
                return Err(C::ClientNeedsTo);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, CliError> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    fn conflict(line: &str) -> ConfigConflict {
        match parse(line) {
            Err(CliError::Conflict(c)) => c,
            other => panic!("expected a conflict for `{line}`, got {other:?}"),
        }
    }

    #[test]
    fn defaults_parse_clean() {
        let args = parse("").unwrap();
        assert_eq!(args.trials, 1);
        assert!(args.command.is_none());
    }

    #[test]
    fn empty_grid_conflicts() {
        assert_eq!(
            conflict("--schemes , --thresholds ,"),
            ConfigConflict::EmptyGrid
        );
    }

    #[test]
    fn resume_without_checkpoint_conflicts() {
        assert_eq!(
            conflict("--workers 2 --resume"),
            ConfigConflict::ResumeWithoutCheckpoint
        );
    }

    #[test]
    fn journal_needs_sharding_conflicts() {
        assert_eq!(
            conflict("--checkpoint c.jsonl"),
            ConfigConflict::JournalNeedsSharding
        );
    }

    #[test]
    fn heartbeat_slower_than_deadline_conflicts() {
        assert_eq!(
            conflict("--workers 1 --heartbeat 5 --assign-timeout 5"),
            ConfigConflict::HeartbeatSlowerThanDeadline
        );
        assert!(parse("--workers 1 --heartbeat 1 --assign-timeout 5").is_ok());
        // Spawned workers beat every DEFAULT_HEARTBEAT (2 s) when no
        // --heartbeat is given.
        assert_eq!(
            conflict("--workers 1 --assign-timeout 1"),
            ConfigConflict::HeartbeatSlowerThanDeadline
        );
        assert!(parse("--workers 1 --assign-timeout 5").is_ok());
    }

    #[test]
    fn durations_out_of_range_are_usage_errors() {
        for flag in ["--assign-timeout", "--heartbeat"] {
            for value in ["1e300", "1e-300", "0", "-1", "nan", "inf"] {
                let line = format!("--workers 1 {flag} {value}");
                assert!(
                    matches!(parse(&line), Err(CliError::Usage(_))),
                    "`{line}` must be a usage error"
                );
            }
        }
    }

    #[test]
    fn chaos_plan_and_seed_conflicts() {
        assert_eq!(
            conflict("--workers 1 --chaos-plan p.json --chaos-seed 3"),
            ConfigConflict::ChaosPlanAndSeed
        );
    }

    #[test]
    fn chaos_needs_workers_conflicts() {
        assert_eq!(
            conflict("--chaos-seed 3"),
            ConfigConflict::ChaosNeedsWorkers
        );
    }

    #[test]
    fn daemon_with_pool_conflicts() {
        assert_eq!(
            conflict("--daemon 0:0 --workers 2"),
            ConfigConflict::DaemonWithPool
        );
        assert_eq!(
            conflict("--daemon 0:0 --worker"),
            ConfigConflict::DaemonWithPool
        );
        assert_eq!(
            conflict("--daemon 0:0 --register h:1"),
            ConfigConflict::DaemonWithPool
        );
        assert_eq!(
            conflict("status --daemon 0:0 --to h:1"),
            ConfigConflict::DaemonWithPool
        );
    }

    #[test]
    fn daemon_with_journal_conflicts() {
        assert_eq!(
            conflict("--daemon 0:0 --checkpoint c.jsonl"),
            ConfigConflict::DaemonWithJournal
        );
    }

    #[test]
    fn register_with_pool_conflicts() {
        assert_eq!(
            conflict("--register h:1 --workers 2"),
            ConfigConflict::RegisterWithPool
        );
        assert_eq!(
            conflict("status --register h:1 --to h:1"),
            ConfigConflict::RegisterWithPool
        );
    }

    #[test]
    fn register_with_journal_conflicts() {
        assert_eq!(
            conflict("--register h:1 --jsonl out.jsonl"),
            ConfigConflict::RegisterWithJournal
        );
    }

    #[test]
    fn daemon_flags_outside_daemon_conflict() {
        assert_eq!(
            conflict("--state-dir d"),
            ConfigConflict::DaemonFlagOutsideDaemon("--state-dir")
        );
        assert_eq!(
            conflict("--tenants a=b"),
            ConfigConflict::DaemonFlagOutsideDaemon("--tenants")
        );
        assert_eq!(
            conflict("--report-dir d"),
            ConfigConflict::DaemonFlagOutsideDaemon("--report-dir")
        );
    }

    #[test]
    fn register_flags_outside_register_conflict() {
        assert_eq!(
            conflict("--worker-name w"),
            ConfigConflict::RegisterFlagOutsideRegister("--worker-name")
        );
        assert_eq!(
            conflict("--deregister-after 1"),
            ConfigConflict::RegisterFlagOutsideRegister("--deregister-after")
        );
    }

    #[test]
    fn client_needs_to_conflicts() {
        assert_eq!(conflict("status"), ConfigConflict::ClientNeedsTo);
        assert_eq!(conflict("--to h:1"), ConfigConflict::ClientNeedsTo);
    }

    #[test]
    fn cancel_needs_job_conflicts() {
        assert_eq!(conflict("cancel --to h:1"), ConfigConflict::CancelNeedsJob);
        assert!(parse("cancel --to h:1 --job 3").is_ok());
    }

    #[test]
    fn job_outside_cancel_conflicts() {
        assert_eq!(
            conflict("status --to h:1 --job 3"),
            ConfigConflict::JobOutsideCancel
        );
    }

    #[test]
    fn valid_modes_parse_clean() {
        assert!(parse("--daemon 0:0 --tenants alice=a,bob=b --state-dir d --report-dir r").is_ok());
        assert!(parse("--register h:1 --worker-name w1 --deregister-after 2").is_ok());
        assert!(parse("submit --to h:1 --token t --apps 2 --schemes baseline").is_ok());
        assert!(parse("drain --to h:1 --token t").is_ok());
        assert!(parse("--workers 2 --checkpoint c.jsonl --resume").is_ok());
    }

    #[test]
    fn tenant_pairs_parse_and_reject_malformed() {
        let args = parse("--daemon 0:0 --tenants alice=s3cret,bob=hunter2").unwrap();
        assert_eq!(
            args.tenants,
            vec![
                ("alice".to_string(), "s3cret".to_string()),
                ("bob".to_string(), "hunter2".to_string())
            ]
        );
        assert!(matches!(
            parse("--daemon 0:0 --tenants alice"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse("--daemon 0:0 --tenants =tok"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn exit_codes_are_typed() {
        let poisoned = ClusterError::PoisonedSpecs {
            indices: vec![1],
            completed: 3,
        };
        assert_eq!(exit_code_for(&poisoned), EXIT_POISONED);
        let rejected = ClusterError::Rejected {
            worker: 0,
            reason: "bad token".into(),
        };
        assert_eq!(exit_code_for(&rejected), EXIT_REJECTED);
        assert_eq!(exit_code_for(&ClusterError::Io("x".into())), EXIT_FAILURE);
        use crate::service::ServiceError;
        use qismet_cluster::ServiceErrKind;
        let bad = ServiceError::Refused {
            kind: ServiceErrKind::BadToken,
            detail: String::new(),
        };
        assert_eq!(exit_code_for_service(&bad), EXIT_REJECTED);
        let dup = ServiceError::Refused {
            kind: ServiceErrKind::DuplicateFingerprint,
            detail: String::new(),
        };
        assert_eq!(exit_code_for_service(&dup), EXIT_FAILURE);
    }

    #[test]
    fn help_is_not_a_conflict() {
        assert_eq!(parse("--help").unwrap_err(), CliError::Help);
    }
}
