//! Campaign result records, aggregation helpers, and artifact writers.
//!
//! Every run executed by the sweep engine produces one serializable
//! [`RunRecord`]; a whole campaign's worth is a [`CampaignReport`] that can
//! be written as JSON (full fidelity, including series) or CSV (summary
//! rows) under `target/paper_results/`. The aggregation helpers
//! (trailing-window means, geometric means over grouped ratios) replace the
//! per-figure copies of that logic the bench binaries used to hand-roll.

use rand::Rng as _;
use serde::{Deserialize, Serialize};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Outcome of one campaign run, with enough identity (app, machine, scheme,
/// grid coordinates, seed) to regroup and re-aggregate offline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Scenario label (defaults to the scheme display name).
    pub label: String,
    /// Application name (`"App2"`).
    pub app: String,
    /// Machine profile name.
    pub machine: String,
    /// Scheme display name.
    pub scheme: String,
    /// Scenario index within the campaign.
    pub scenario: usize,
    /// Trial index within the scenario.
    pub trial: usize,
    /// Iterations the run was granted.
    pub iterations: usize,
    /// Transient magnitude override (`None` = machine native).
    pub magnitude: Option<f64>,
    /// The fully-resolved seed this run executed with.
    pub seed: u64,
    /// Final energy (trailing-window mean of `series`).
    pub final_energy: f64,
    /// Quantum jobs consumed.
    pub jobs: usize,
    /// Circuit-level evaluations consumed.
    pub evals: u64,
    /// Skipped/rejected attempts.
    pub skips: usize,
    /// Per-iteration measured (or filtered) energies.
    pub series: Vec<f64>,
}

/// Build provenance stamped into every report so archived artifacts record
/// what produced them. Deterministic for a given binary — reports from
/// different topologies of the same build stay byte-identical.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReportMeta {
    /// Workspace crate version.
    pub version: String,
    /// Short git commit hash at compile time (`"unknown"` outside git).
    pub git_hash: String,
    /// Enabled codegen target features (e.g. from `-C target-cpu=native`).
    pub target_features: String,
    /// Always `false` (the workspace has a single build); kept so report
    /// `meta` keeps its field set.
    pub parallel: bool,
}

impl ReportMeta {
    /// The stamp for this build of the bench harness.
    pub fn current() -> Self {
        let b = qismet_telemetry::BuildInfo::current();
        Self {
            version: b.version,
            git_hash: b.git_hash,
            target_features: b.target_features,
            parallel: b.parallel,
        }
    }
}

/// A campaign's complete result set, in grid-expansion order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Campaign name (used for artifact file names).
    pub name: String,
    /// Campaign master seed.
    pub seed: u64,
    /// Build provenance of the producing harness.
    pub meta: ReportMeta,
    /// One record per expanded run, in expansion order.
    pub records: Vec<RunRecord>,
}

impl CampaignReport {
    /// Records of one scenario, in trial order.
    pub fn scenario(&self, index: usize) -> Vec<&RunRecord> {
        self.records
            .iter()
            .filter(|r| r.scenario == index)
            .collect()
    }

    /// The single record of a one-trial scenario.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has zero or multiple records.
    pub fn single(&self, index: usize) -> &RunRecord {
        let runs = self.scenario(index);
        assert_eq!(runs.len(), 1, "scenario {index} has {} runs", runs.len());
        runs[0]
    }

    /// Mean final energy across a scenario's trials.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no records.
    pub fn mean_final(&self, index: usize) -> f64 {
        let finals: Vec<f64> = self
            .scenario(index)
            .iter()
            .map(|r| r.final_energy)
            .collect();
        assert!(!finals.is_empty(), "scenario {index} has no records");
        qismet_mathkit::mean(&finals)
    }

    /// Total skips across a scenario's trials.
    pub fn total_skips(&self, index: usize) -> usize {
        self.scenario(index).iter().map(|r| r.skips).sum()
    }

    /// Loads a report previously written by [`CampaignReport::write_json`]
    /// (or any JSON with the same shape). The loader counterpart exists so
    /// downstream aggregation — and the campaign resume path — can rehydrate
    /// full-fidelity records; floats round-trip bit-exactly through the
    /// shortest-representation JSON writer.
    ///
    /// # Errors
    ///
    /// Propagates file-read failures; malformed JSON or a mismatched shape
    /// surfaces as [`io::ErrorKind::InvalidData`].
    pub fn read_json(path: &Path) -> io::Result<CampaignReport> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    /// Bootstrap confidence interval of a scenario's mean final energy
    /// (over its trials' trailing-window finals). Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no records or `resamples` is zero.
    pub fn scenario_ci(&self, index: usize, resamples: usize, seed: u64) -> BootstrapCi {
        let finals: Vec<f64> = self
            .scenario(index)
            .iter()
            .map(|r| r.final_energy)
            .collect();
        assert!(!finals.is_empty(), "scenario {index} has no records");
        bootstrap_ci(&finals, resamples, seed)
    }

    /// Paired cross-scheme significance test between scenarios `a` and `b`
    /// (see [`paired_scheme_test`]): trials are paired by trial index,
    /// which is an exact pairing for grid campaigns because every scheme
    /// within one (app, machine, magnitude) cell runs trial `t` from the
    /// same seed.
    ///
    /// # Panics
    ///
    /// Panics if the scenarios share no trial indices or `resamples` is
    /// zero.
    pub fn paired_scenario_test(
        &self,
        a: usize,
        b: usize,
        resamples: usize,
        seed: u64,
    ) -> PairedTest {
        let finals = |index: usize| -> Vec<f64> {
            self.scenario(index)
                .iter()
                .map(|r| r.final_energy)
                .collect()
        };
        let xs = finals(a);
        let ys = finals(b);
        let n = xs.len().min(ys.len());
        assert!(n > 0, "scenarios {a}/{b} share no trials to pair");
        paired_scheme_test(&xs[..n], &ys[..n], resamples, seed)
    }

    /// Writes the full report (series included) as pretty JSON under
    /// [`results_dir`], named `<name>.json` unless overridden.
    pub fn write_json(&self, file_name: Option<&str>) -> PathBuf {
        let path = self
            .write_json_in(&results_dir(), file_name)
            .expect("write json report");
        println!("[json] wrote {}", path.display());
        path
    }

    /// Writes the full report as pretty JSON into `dir` (created if
    /// missing), named `<name>.json` unless overridden. The fallible form
    /// behind [`CampaignReport::write_json`], used directly by the service
    /// daemon so a bad report directory fails the *job*, not the process.
    /// Byte-for-byte the same artifact whichever entry point writes it.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write failures.
    pub fn write_json_in(
        &self,
        dir: &std::path::Path,
        file_name: Option<&str>,
    ) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let name = file_name
            .map(str::to_string)
            .unwrap_or_else(|| format!("{}.json", self.name));
        let path = dir.join(name);
        let json = serde_json::to_string_pretty(self).expect("serialize report");
        std::fs::write(&path, json)?;
        Ok(path)
    }

    /// Writes one summary row per record (no series) as CSV under
    /// [`results_dir`], named `<name>_runs.csv` unless overridden.
    pub fn write_runs_csv(&self, file_name: Option<&str>) -> PathBuf {
        let name = file_name
            .map(str::to_string)
            .unwrap_or_else(|| format!("{}_runs.csv", self.name));
        let rows: Vec<Vec<String>> = self
            .records
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    r.app.clone(),
                    r.machine.clone(),
                    r.scheme.clone(),
                    r.trial.to_string(),
                    r.iterations.to_string(),
                    r.magnitude.map(|m| format!("{m}")).unwrap_or_default(),
                    r.seed.to_string(),
                    format!("{:.6}", r.final_energy),
                    r.jobs.to_string(),
                    r.evals.to_string(),
                    r.skips.to_string(),
                ]
            })
            .collect();
        write_csv_at(
            &name,
            &[
                "label",
                "app",
                "machine",
                "scheme",
                "trial",
                "iterations",
                "magnitude",
                "seed",
                "final_energy",
                "jobs",
                "evals",
                "skips",
            ],
            &rows,
        )
    }
}

/// Trailing window used for "final expectation" summaries: 5% of the run,
/// at least 10 iterations.
pub fn final_window(iterations: usize) -> usize {
    (iterations / 20).max(10)
}

/// Mean over the trailing `window` entries of a series (the whole series if
/// shorter).
///
/// # Panics
///
/// Panics if the series is empty.
pub fn trailing_mean(series: &[f64], window: usize) -> f64 {
    assert!(!series.is_empty(), "trailing_mean of empty series");
    let n = series.len();
    qismet_mathkit::mean(&series[n.saturating_sub(window)..])
}

/// A percentile-bootstrap confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BootstrapCi {
    /// The plain sample mean.
    pub mean: f64,
    /// Lower 95% bound (2.5th percentile of resampled means).
    pub lo: f64,
    /// Upper 95% bound (97.5th percentile of resampled means).
    pub hi: f64,
}

/// Percentile-bootstrap 95% confidence interval of the mean of
/// `series_finals` (a scenario's per-trial trailing-window finals):
/// `resamples` resamples with replacement, each of the original size, and
/// the 2.5/97.5 percentiles of the resampled means. Fully deterministic in
/// `seed`, so figure shape checks built on it stay reproducible.
///
/// # Panics
///
/// Panics if `series_finals` is empty or `resamples` is zero.
pub fn bootstrap_ci(series_finals: &[f64], resamples: usize, seed: u64) -> BootstrapCi {
    assert!(!series_finals.is_empty(), "bootstrap_ci of empty sample");
    assert!(resamples > 0, "bootstrap_ci needs at least one resample");
    let n = series_finals.len();
    let mut rng = qismet_mathkit::rng_from_seed(seed);
    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let mut acc = 0.0;
        for _ in 0..n {
            acc += series_finals[(rng.gen::<u64>() % n as u64) as usize];
        }
        means.push(acc / n as f64);
    }
    means.sort_by(f64::total_cmp);
    let last = resamples - 1;
    let lo = means[(last as f64 * 0.025).floor() as usize];
    let hi = means[(last as f64 * 0.975).ceil() as usize];
    BootstrapCi {
        mean: qismet_mathkit::mean(series_finals),
        lo,
        hi,
    }
}

/// Result of a paired cross-scheme significance test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairedTest {
    /// Number of trial pairs.
    pub pairs: usize,
    /// Mean of the paired differences `a[t] - b[t]`.
    pub mean_diff: f64,
    /// Two-sided sign-flip permutation p-value for "mean difference is 0".
    pub p_value: f64,
}

/// Paired significance test between two same-length samples whose entries
/// are paired by position (same-seed trials of two schemes in one grid
/// cell are paired by construction: trial `t` of each scheme sees the same
/// transient trace and starting parameters).
///
/// The test is a deterministic-seed sign-flip permutation test on the
/// paired differences `d[t] = a[t] - b[t]`: under the null hypothesis the
/// schemes are exchangeable within a pair, so each `d[t]` is equally
/// likely to carry either sign. `resamples` random sign assignments are
/// drawn, and the two-sided p-value is the add-one-smoothed fraction of
/// resampled `|mean|`s at or above the observed `|mean|` — so `p` is
/// always in `(0, 1]` and fully reproducible in `seed`.
///
/// # Panics
///
/// Panics if the samples are empty, their lengths differ, or `resamples`
/// is zero.
pub fn paired_scheme_test(a: &[f64], b: &[f64], resamples: usize, seed: u64) -> PairedTest {
    assert!(!a.is_empty(), "paired_scheme_test of empty samples");
    assert_eq!(a.len(), b.len(), "paired samples must have equal lengths");
    assert!(resamples > 0, "paired_scheme_test needs resamples");
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let n = diffs.len();
    let observed = qismet_mathkit::mean(&diffs);
    let mut rng = qismet_mathkit::rng_from_seed(seed);
    let mut at_least_as_extreme = 0usize;
    for _ in 0..resamples {
        let mut acc = 0.0;
        for &d in &diffs {
            // One RNG draw per pair: bit 0 decides the sign flip.
            if rng.gen::<u64>() & 1 == 0 {
                acc += d;
            } else {
                acc -= d;
            }
        }
        if (acc / n as f64).abs() >= observed.abs() {
            at_least_as_extreme += 1;
        }
    }
    PairedTest {
        pairs: n,
        mean_diff: observed,
        p_value: (at_least_as_extreme + 1) as f64 / (resamples + 1) as f64,
    }
}

/// Streams [`RunRecord`]s to a JSONL file, one compact line per record,
/// flushed as each run completes. This is the durable output path for
/// 10k+-run campaigns: every record (series included) is on disk the
/// moment it finishes, so downstream aggregation can read the JSONL
/// instead of the in-memory report. (The executors themselves still
/// build a full `CampaignReport`; a summary-only merge that drops series
/// from residency after streaming is the roadmap's next rung.)
#[derive(Debug)]
pub struct RunsJsonlWriter {
    file: std::fs::File,
    path: PathBuf,
    written: usize,
}

impl RunsJsonlWriter {
    /// Creates (truncating) the JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the create failure.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(RunsJsonlWriter {
            file: std::fs::File::create(path)?,
            path: path.to_path_buf(),
            written: 0,
        })
    }

    /// Appends one record as a compact JSON line and flushes it.
    ///
    /// The campaign CLI appends in expansion order, in-process and
    /// distributed alike; each line also carries its full grid identity
    /// (`scenario`, `trial`, `seed`), so readers regroup without
    /// positional assumptions.
    ///
    /// # Errors
    ///
    /// Propagates write/flush failures.
    pub fn append(&mut self, record: &RunRecord) -> io::Result<()> {
        let line = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()?;
        self.written += 1;
        Ok(())
    }

    /// How many records have been appended.
    pub fn written(&self) -> usize {
        self.written
    }

    /// The output path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// FNV-1a over the records' compact JSON (`serde_json::to_string`): the
/// digest that pins a campaign's results. The report's `meta` (git hash,
/// build features) is left out, so the digest compares results across
/// commits and builds. It equals the FNV-1a of `campaign --jsonl` output
/// with its lines joined by `,` inside `[...]`.
pub fn records_digest(records: &[RunRecord]) -> u64 {
    let json = serde_json::to_string(records).expect("records serialize");
    let mut fp = qismet_cluster::Fingerprint::new();
    fp.update(json.as_bytes());
    fp.finish()
}

/// Reads back a JSONL record stream written by [`RunsJsonlWriter`].
///
/// # Errors
///
/// Propagates read failures; an unparsable line surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn read_runs_jsonl(path: &Path) -> io::Result<Vec<RunRecord>> {
    let text = std::fs::read_to_string(path)?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            serde_json::from_str(l).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })
        })
        .collect()
}

/// Rebuilds a full-fidelity [`CampaignReport`] from a streamed JSONL file
/// by sorting the records into campaign expansion order — `(scenario,
/// trial)` lexicographic, which is exactly how
/// [`crate::scenario::Campaign::expand`] orders runs. This is the
/// summary-only merge's counterpart: the resident report keeps only
/// aggregates, and downstream consumers that need series re-aggregate from
/// the stream.
///
/// # Errors
///
/// Propagates read failures; an unparsable line surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn reaggregate_runs_jsonl(path: &Path, name: &str, seed: u64) -> io::Result<CampaignReport> {
    let mut records = read_runs_jsonl(path)?;
    records.sort_by_key(|r| (r.scenario, r.trial));
    Ok(CampaignReport {
        name: name.to_string(),
        seed,
        meta: ReportMeta::current(),
        records,
    })
}

/// Directory where harnesses drop their artifacts.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("target/paper_results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a CSV file under [`results_dir`].
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    write_csv_at(name, headers, rows);
}

fn write_csv_at(name: &str, headers: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = results_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", headers.join(",")).expect("write header");
    for row in rows {
        writeln!(f, "{}", row.join(",")).expect("write row");
    }
    println!("[csv] wrote {}", path.display());
    path
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Downsamples a series to at most ~`points` entries for compact printing.
pub fn downsample(series: &[f64], points: usize) -> Vec<(usize, f64)> {
    if series.is_empty() || points == 0 {
        return Vec::new();
    }
    let stride = (series.len() / points).max(1);
    series
        .iter()
        .enumerate()
        .filter(|(i, _)| i % stride == 0 || *i == series.len() - 1)
        .map(|(i, &v)| (i, v))
        .collect()
}

/// Formats a float with 4 decimals.
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a ratio with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(scenario: usize, trial: usize, final_energy: f64) -> RunRecord {
        RunRecord {
            label: "QISMET".into(),
            app: "App2".into(),
            machine: "Guadalupe".into(),
            scheme: "QISMET".into(),
            scenario,
            trial,
            iterations: 100,
            magnitude: Some(0.25),
            seed: 7,
            final_energy,
            jobs: 100,
            evals: 700,
            skips: 3,
            series: vec![final_energy; 4],
        }
    }

    #[test]
    fn report_groups_and_aggregates() {
        let report = CampaignReport {
            name: "t".into(),
            seed: 1,
            meta: ReportMeta::current(),
            records: vec![record(0, 0, -4.0), record(0, 1, -6.0), record(1, 0, -5.0)],
        };
        assert_eq!(report.scenario(0).len(), 2);
        assert!((report.mean_final(0) + 5.0).abs() < 1e-12);
        assert_eq!(report.single(1).final_energy, -5.0);
        assert_eq!(report.total_skips(0), 6);
    }

    #[test]
    fn record_json_roundtrip_is_exact() {
        let report = CampaignReport {
            name: "t".into(),
            seed: u64::MAX - 5,
            meta: ReportMeta::current(),
            records: vec![record(0, 0, -4.125), record(2, 3, 0.1 + 0.2)],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(
            back.records[1].final_energy.to_bits(),
            report.records[1].final_energy.to_bits()
        );
    }

    #[test]
    fn write_then_read_json_roundtrips_exactly() {
        let report = CampaignReport {
            name: format!("roundtrip-{}", std::process::id()),
            seed: 0xfeed,
            meta: ReportMeta::current(),
            records: vec![record(0, 0, 0.1 + 0.2), record(1, 0, -7.25)],
        };
        let path = report.write_json(None);
        let back = CampaignReport::read_json(&path).unwrap();
        assert_eq!(back, report);
        assert_eq!(
            back.records[0].final_energy.to_bits(),
            report.records[0].final_energy.to_bits()
        );
        std::fs::remove_file(&path).unwrap();
        assert!(CampaignReport::read_json(&path).is_err());
    }

    #[test]
    fn bootstrap_ci_is_deterministic_and_ordered() {
        let finals = [-5.1, -5.3, -4.9, -5.6, -5.0, -5.2, -4.8, -5.4];
        let a = bootstrap_ci(&finals, 500, 42);
        let b = bootstrap_ci(&finals, 500, 42);
        assert_eq!(a.lo.to_bits(), b.lo.to_bits());
        assert_eq!(a.hi.to_bits(), b.hi.to_bits());
        assert!(a.lo <= a.mean && a.mean <= a.hi, "{a:?}");
        // A different seed resamples differently but stays a sane interval.
        let c = bootstrap_ci(&finals, 500, 43);
        assert!(c.lo <= c.mean && c.mean <= c.hi, "{c:?}");
        assert!(a.lo >= -5.6 && a.hi <= -4.8, "bounds within sample range");
    }

    #[test]
    fn bootstrap_ci_degenerate_sample_collapses() {
        let ci = bootstrap_ci(&[2.5, 2.5, 2.5], 100, 7);
        assert_eq!(ci.lo, 2.5);
        assert_eq!(ci.hi, 2.5);
        assert_eq!(ci.mean, 2.5);
    }

    #[test]
    fn scenario_ci_bootstraps_trial_finals() {
        let report = CampaignReport {
            name: "ci".into(),
            seed: 1,
            meta: ReportMeta::current(),
            records: vec![
                record(0, 0, -4.0),
                record(0, 1, -6.0),
                record(0, 2, -5.0),
                record(1, 0, -1.0),
            ],
        };
        let ci = report.scenario_ci(0, 400, 9);
        assert!((ci.mean + 5.0).abs() < 1e-12);
        assert!(ci.lo >= -6.0 && ci.hi <= -4.0);
        assert!(ci.lo <= ci.hi);
    }

    #[test]
    fn jsonl_stream_roundtrips_in_append_order() {
        let path = std::env::temp_dir().join(format!("qismet-runs-{}.jsonl", std::process::id()));
        let records = [
            record(0, 0, 0.1 + 0.2),
            record(0, 1, -3.5),
            record(1, 0, 9.0),
        ];
        {
            let mut w = RunsJsonlWriter::create(&path).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
            assert_eq!(w.written(), 3);
            assert_eq!(w.path(), path.as_path());
        }
        let back = read_runs_jsonl(&path).unwrap();
        assert_eq!(back, records.to_vec());
        assert_eq!(
            back[0].final_energy.to_bits(),
            records[0].final_energy.to_bits()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn paired_test_is_deterministic_and_two_sided() {
        let a = [-5.2, -5.4, -5.1, -5.3, -5.5, -5.2, -5.35, -5.25];
        let b = [-4.1, -4.3, -4.0, -4.2, -4.4, -4.1, -4.25, -4.15];
        let t1 = paired_scheme_test(&a, &b, 999, 7);
        let t2 = paired_scheme_test(&a, &b, 999, 7);
        assert_eq!(t1, t2, "same seed must resample identically");
        assert_eq!(t1.pairs, 8);
        assert!((t1.mean_diff + 1.1).abs() < 1e-9);
        // Every pair moves the same direction by ~1.1: strongly significant.
        assert!(t1.p_value <= 0.05, "p = {}", t1.p_value);
        // Swapping the samples flips the sign but not the significance.
        let flipped = paired_scheme_test(&b, &a, 999, 7);
        assert_eq!(flipped.mean_diff.to_bits(), (-t1.mean_diff).to_bits());
        assert_eq!(flipped.p_value.to_bits(), t1.p_value.to_bits());
    }

    #[test]
    fn paired_test_on_identical_samples_is_insignificant() {
        let a = [-5.0, -5.1, -4.9, -5.05];
        let t = paired_scheme_test(&a, &a, 500, 3);
        assert_eq!(t.mean_diff, 0.0);
        // Every resampled mean is 0 >= |0|, so p collapses to 1.
        assert_eq!(t.p_value, 1.0);
    }

    #[test]
    fn paired_test_p_value_stays_in_unit_interval() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.5, 1.0, 3.5];
        let t = paired_scheme_test(&a, &b, 200, 11);
        assert!(t.p_value > 0.0 && t.p_value <= 1.0, "{t:?}");
    }

    #[test]
    fn scenario_pairing_truncates_to_common_trials() {
        let report = CampaignReport {
            name: "p".into(),
            seed: 1,
            meta: ReportMeta::current(),
            records: vec![
                record(0, 0, -4.0),
                record(0, 1, -4.2),
                record(0, 2, -4.1),
                record(1, 0, -5.0),
                record(1, 1, -5.2),
            ],
        };
        let t = report.paired_scenario_test(0, 1, 300, 9);
        assert_eq!(t.pairs, 2);
        assert!((t.mean_diff - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reaggregated_jsonl_restores_expansion_order() {
        let path = std::env::temp_dir().join(format!("qismet-reagg-{}.jsonl", std::process::id()));
        // Completion order scrambles the expansion order.
        let scrambled = [
            record(1, 0, 9.0),
            record(0, 1, -3.5),
            record(0, 0, 0.1 + 0.2),
        ];
        {
            let mut w = RunsJsonlWriter::create(&path).unwrap();
            for r in &scrambled {
                w.append(r).unwrap();
            }
        }
        let report = reaggregate_runs_jsonl(&path, "t", 42).unwrap();
        assert_eq!(report.name, "t");
        assert_eq!(report.seed, 42);
        assert_eq!(
            report
                .records
                .iter()
                .map(|r| (r.scenario, r.trial))
                .collect::<Vec<_>>(),
            vec![(0, 0), (0, 1), (1, 0)]
        );
        assert_eq!(
            report.records[0].final_energy.to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trailing_mean_windows() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert!((trailing_mean(&s, 2) - 3.5).abs() < 1e-12);
        assert!((trailing_mean(&s, 10) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn final_window_floor() {
        assert_eq!(final_window(40), 10);
        assert_eq!(final_window(2000), 100);
    }
}
