//! Result bookkeeping shared by every workload: output checks, the
//! metric set, statistics helpers and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports every one of them; see README.md for their definitions.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("certified_ratio_s", "s"),
    ("cost_per_kreq", "cost/kreq"),
    ("cert_ratio", "ratio"),
    ("submit_p50_us", "us"),
    ("submit_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.resolve_us", "us"),
    ("model.workload_ns_per_req", "ns"),
    ("model.audit_ns_per_req", "ns"),
    ("model.migrations_per_kreq", "count/kreq"),
    ("model.journal_records_per_kreq", "count/kreq"),
    ("core.serve_ns_per_req", "ns"),
    ("mts.hst_visits_per_req", "count/req"),
    ("mts.coupling_follows_per_req", "count/req"),
    ("baselines.greedy.serve_ns_per_req", "ns"),
    ("baselines.bisection.serve_ns_per_req", "ns"),
    ("baselines.learning.serve_ns_per_req", "ns"),
    ("ringload.lb_ms", "ms"),
    ("ringload.ub_ms", "ms"),
    ("ringload.cut_evals", "count"),
    ("ringload.rounding_passes", "count"),
    ("serve.encode_ns_per_edge", "ns"),
    ("serve.decode_ns_per_edge", "ns"),
    ("serve.bytes_per_edge", "B"),
    ("serve.session_submit_us", "us"),
    ("serve.manager_wait_us", "us"),
    ("serve.hop_us", "us"),
    ("serve.create_us", "us"),
    ("serve.errors", "count"),
    ("cluster.route_us", "us"),
    ("cluster.frontend_us", "us"),
    ("cluster.migrate_ms", "ms"),
    ("cluster.snapshot_bytes", "B"),
    ("cluster.errors", "count"),
    ("trace.untraced_req_per_s", "1/s"),
    ("trace.traced_req_per_s", "1/s"),
    ("trace.unaccounted_share", "share"),
    ("submit_samples", "count"),
];

/// Latency samples an end-to-end run collects at least, so that more
/// than 10 lie beyond the reported p99.
pub const MIN_SAMPLES: usize = 1100;

/// Operations attempted and output checks made, with the failures.
#[derive(Default)]
pub struct Checks {
    /// Operations plus checks attempted.
    pub attempted: u64,
    /// Failed or refused operations plus failed checks.
    pub failed: u64,
    /// One line per failure (printed to stderr, first few only).
    pub problems: Vec<String>,
}

impl Checks {
    /// Counts one operation or check; records a failure if `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts `n` operations that succeeded.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one failed operation that was already counted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Merges another set of checks (e.g. from a client thread).
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 20 {
                self.problems.push(p);
            }
        }
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Operations and output checks.
    pub checks: Checks,
    /// Metric name → value (end-to-end or per-layer, by run mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines for stderr.
    pub notes: Vec<String>,
    /// Every deterministic result of the run (costs, bounds, work
    /// counters), compared across runs with the same seed.
    pub fingerprint: String,
}

impl Outcome {
    /// An outcome with every metric of `names` preset to 0.
    #[must_use]
    pub fn new(names: &[(&'static str, &'static str)]) -> Self {
        Self {
            checks: Checks::default(),
            metrics: names.iter().map(|&(n, _)| (n, 0.0)).collect(),
            notes: Vec::new(),
            fingerprint: String::new(),
        }
    }

    /// Sets a metric that must already be declared.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .metrics
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        *slot = value;
    }

    /// Adds a stderr note.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The final JSON line.
    #[must_use]
    pub fn json(&self, units: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.failed == 0,
            self.checks.attempted.max(1),
            self.checks.failed
        );
        for (i, &(name, unit)) in units.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `values` (0 if empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of sorted `samples`.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Latency p50 and p99 of a run, in the samples' unit. Consecutive
/// passes are grouped into windows of at least [`MIN_SAMPLES`] samples
/// (a short tail joins the last window); each window gives its own
/// percentiles and the run reports their medians. Like every other
/// timing, a few passes slowed by the machine then move the result
/// little, while each window keeps more than 10 samples beyond its p99.
#[must_use]
pub fn windowed_p50_p99(passes: &[&[u64]]) -> (f64, f64) {
    let mut windows: Vec<Vec<u64>> = vec![Vec::new()];
    for samples in passes {
        let last = windows.last_mut().expect("at least one window");
        if last.len() >= MIN_SAMPLES {
            windows.push(samples.to_vec());
        } else {
            last.extend_from_slice(samples);
        }
    }
    if windows.len() > 1 && windows.last().is_some_and(|w| w.len() < MIN_SAMPLES) {
        let tail = windows.pop().expect("checked above");
        windows.last_mut().expect("checked above").extend(tail);
    }
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for mut window in windows {
        window.sort_unstable();
        p50.push(percentile(&window, 50.0));
        p99.push(percentile(&window, 99.0));
    }
    (median(&p50), median(&p99))
}

/// Geometric mean of positive values (0 if empty).
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `VmHWM` (peak resident set) of process `pid` in MiB, if readable.
#[must_use]
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Nanoseconds elapsed since `t`.
#[must_use]
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `part / whole`, or 0 when `whole` is 0.
#[must_use]
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
