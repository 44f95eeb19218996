//! `rdbp-e2ebench` — the timed end-to-end benchmark.
//!
//! ```text
//! rdbp-e2ebench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `sim-oblivious`, `sim-adversarial` (in-process), and
//! `serve-replay`, `cluster-replay` (the shipped `rdbp-serve` and
//! `rdbp-router` executables, found beside this one). The last line of
//! stdout is one JSON object with the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics of the traced run (`--trace 1`); notes go
//! to stderr. The exit code is nonzero when any output check fails.
//! See README.md for the workloads, metrics and client model.

mod report;
mod sim;
mod spans;
mod wire;

use std::path::PathBuf;
use std::process::exit;

use report::{END_TO_END, PER_LAYER};

/// The benchmark's command-line arguments.
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed: every trace and scenario seed derives from it.
    pub seed: u64,
    /// How long to measure, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Run {
    /// The metric set this run reports.
    #[must_use]
    pub fn metric_names(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Directory beside the executable for run-time files (server
    /// address files, written span traces).
    #[must_use]
    pub fn run_dir(&self) -> PathBuf {
        std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|dir| dir.join("e2ebench-run")))
            .unwrap_or_else(|| PathBuf::from("e2ebench-run"))
    }

    /// Where the traced run writes its spans.
    #[must_use]
    pub fn spans_path(&self) -> PathBuf {
        self.run_dir().join(format!("spans-{}.tsv", self.workload))
    }
}

const WORKLOADS: [&str; 4] = [
    "sim-oblivious",
    "sim-adversarial",
    "serve-replay",
    "cluster-replay",
];

fn usage(problem: &str) -> ! {
    eprintln!(
        "rdbp-e2ebench: {problem}\n\
         usage: rdbp-e2ebench --workload {{{}}} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    exit(2)
}

fn parse_args() -> Run {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("flag {flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 120.0) {
                    usage("--seconds must be in (0, 120]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("missing --workload"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    Run {
        workload,
        seed: seed.unwrap_or_else(|| usage("missing --seed")),
        seconds: seconds.unwrap_or_else(|| usage("missing --seconds")),
        trace: trace.unwrap_or(false),
    }
}

/// Checks that this run's deterministic results repeat those of an
/// earlier run of the same executable with the same workload and seed
/// (recorded beside the executable), or records them for the next run.
fn compare_fingerprint(run: &Run, fingerprint: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let meta = std::fs::metadata(&exe).map_err(|e| e.to_string())?;
    let built = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let key = format!("executable {} bytes, modified {built}", meta.len());
    let dir = run.run_dir().join("fingerprints");
    let path = dir.join(format!("{}-{}.txt", run.workload, run.seed));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Some((old_key, old)) = text.split_once('\n') {
            if old_key == key {
                return if old == fingerprint {
                    Ok(())
                } else {
                    Err(format!(
                        "costs, bounds or work counters differ from an earlier run with seed {} ({})",
                        run.seed,
                        path.display()
                    ))
                };
            }
        }
    }
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    std::fs::write(&path, format!("{key}\n{fingerprint}")).map_err(|e| e.to_string())
}

fn main() {
    let run = parse_args();
    let outcome = match run.workload.as_str() {
        "sim-oblivious" => sim::run(&run, false),
        "sim-adversarial" => sim::run(&run, true),
        "serve-replay" => wire::run(&run, false),
        _ => wire::run(&run, true),
    };
    let mut outcome = outcome;
    if !outcome.fingerprint.is_empty() {
        let repeat = compare_fingerprint(&run, &outcome.fingerprint);
        outcome
            .checks
            .check(repeat.is_ok(), || repeat.err().unwrap_or_default());
    }
    eprintln!(
        "rdbp-e2ebench: workload {} seed {} ({} run)",
        run.workload,
        run.seed,
        if run.trace { "traced" } else { "untraced" }
    );
    for line in &outcome.notes {
        eprintln!("{line}");
    }
    let checks = &outcome.checks;
    eprintln!(
        "  error_rate: {} failed of {} attempted = {}",
        checks.failed,
        checks.attempted,
        checks.failed as f64 / checks.attempted.max(1) as f64
    );
    for problem in &checks.problems {
        eprintln!("  FAILED: {problem}");
    }
    for (name, unit) in run.metric_names() {
        eprintln!("  {name:<38} {:>16.6} {unit}", outcome.metrics[name]);
    }
    println!("{}", outcome.json(run.metric_names()));
    if checks.failed > 0 {
        exit(1);
    }
}
