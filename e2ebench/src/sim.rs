//! The in-process simulation workloads, `sim-oblivious` and
//! `sim-adversarial`.
//!
//! One *pass* resolves every cell (`Scenario::resolve` — the set-up),
//! serves every cell's requests through an audited `Driver::step_batch`
//! on a single thread, and certifies every cell's cost with the
//! ring-loading oracle. A run repeats passes until its time is up and
//! reports medians over passes; every pass must reproduce the first
//! pass's costs, bounds and work counters exactly.

use std::time::Instant;

use rdbp_engine::{AlgorithmSpec, AuditSpec, InstanceSpec, Registries, Scenario, WorkloadSpec};
use rdbp_model::{
    split_mix64, Driver, Edge, NoopObserver, OnlineAlgorithm, Placement, RingInstance,
    WorkCounters, Workload,
};
use rdbp_offline::OfflineOracle as _;
use rdbp_ringload::RingloadOracle;

use crate::report::{geomean, median, ns_since, peak_rss_mb, ratio, windowed_p50_p99, Outcome};
use crate::spans::{Layer, Trace, Tracer};
use crate::Run;

/// Requests per driver batch of an oblivious cell (one latency sample
/// each).
const BATCH: usize = 1000;

/// Zipf exponent of the oblivious `zipf` cells.
const ZIPF_S: f64 = 0.5;

/// Independently seeded copies of every oblivious shape. The online
/// cost of one randomized run moves in large quantized steps (a
/// migration moves a whole segment); averaging copies keeps
/// `cost_per_kreq` and `cert_ratio` steady across seeds.
const OBLIVIOUS_REPLICAS: usize = 3;

/// Requests per oblivious cell.
const OBLIVIOUS_STEPS: u64 = 60_000;

/// Rounds of an adversarial pass: each round serves one slice of every
/// adaptive cell and is one latency sample.
const ADAPTIVE_ROUNDS: usize = 150;

/// Which algorithm family a cell runs (selects its per-layer metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Dynamic,
    Greedy,
    Bisection,
    Learning,
}

impl Family {
    fn metric(self) -> &'static str {
        match self {
            Family::Dynamic => "core.serve_ns_per_req",
            Family::Greedy => "baselines.greedy.serve_ns_per_req",
            Family::Bisection => "baselines.bisection.serve_ns_per_req",
            Family::Learning => "baselines.learning.serve_ns_per_req",
        }
    }
}

/// One (instance, algorithm, request source) combination.
struct Cell {
    label: String,
    family: Family,
    scenario: Scenario,
    steps: u64,
    /// Requests per latency sample (one `step_batch` call for oblivious
    /// cells; adaptive cells step each request on its own).
    batch: usize,
    /// Pre-generated requests (oblivious cells); adaptive cells
    /// generate per request while they are served.
    trace: Option<Vec<Edge>>,
}

/// What one cell produced in one pass. Everything but the trace is
/// deterministic for a seed and compared across passes.
#[derive(Debug, Clone, PartialEq)]
struct CellResult {
    cost: u64,
    steps: u64,
    violations: u64,
    counters: WorkCounters,
    lb: f64,
    ub: Option<f64>,
    oracle: WorkCounters,
}

struct Pass {
    traced: bool,
    setup_ns: u64,
    serve_ns: u64,
    certify_ns: u64,
    requests: u64,
    batch_ns: Vec<u64>,
    results: Vec<CellResult>,
    /// Requests each cell served, in order (recorded for adaptive cells).
    traces: Vec<Vec<Edge>>,
    /// Unit id of the pass's first batch.
    first_unit: u64,
}

fn cell_seed(seed: u64, index: usize) -> u64 {
    split_mix64(split_mix64(seed).wrapping_add(index as u64))
}

fn scenario(
    algorithm: &str,
    policy: Option<&str>,
    workload: &str,
    servers: u32,
    capacity: u32,
    steps: u64,
    seed: u64,
) -> Scenario {
    let mut spec = AlgorithmSpec::named(algorithm);
    spec.policy = policy.map(Into::into);
    let mut scenario = Scenario::new(
        InstanceSpec::packed(servers, capacity),
        spec,
        WorkloadSpec::named(workload),
        steps,
    );
    scenario.seed = seed;
    scenario.audit = AuditSpec::Full;
    scenario
}

/// `dynamic`×`hedge` on oblivious traces, medium and large rings.
fn oblivious_cells(seed: u64) -> Vec<Cell> {
    // (workload, ℓ, k): every certified lower bound stays far above
    // the clamp at 1.
    let shapes: [(&str, u32, u32); 6] = [
        ("zipf", 16, 64),
        ("zipf", 32, 256),
        ("allreduce", 16, 64),
        ("allreduce", 32, 256),
        ("sliding", 16, 64),
        ("sliding", 32, 256),
    ];
    let mut cells = Vec::with_capacity(shapes.len() * OBLIVIOUS_REPLICAS);
    for replica in 0..OBLIVIOUS_REPLICAS {
        for &(workload, servers, capacity) in &shapes {
            let mut scenario = scenario(
                "dynamic",
                Some("hedge"),
                workload,
                servers,
                capacity,
                OBLIVIOUS_STEPS,
                cell_seed(seed, cells.len()),
            );
            // A flatter skew than the default 1.2, so every edge of a
            // cut window recurs and the phase lower bound stays large.
            scenario.workload.zipf_s = Some(ZIPF_S);
            cells.push(Cell {
                label: format!("dynamic-hedge/{workload}/l{servers}k{capacity}#{replica}"),
                family: Family::Dynamic,
                scenario,
                steps: OBLIVIOUS_STEPS,
                batch: BATCH,
                trace: None,
            });
        }
    }
    cells
}

/// Algorithm, MTS policy, adversary, ℓ, k, requests per round, family.
type AdversarialShape = (
    &'static str,
    Option<&'static str>,
    &'static str,
    u32,
    u32,
    usize,
    Family,
);

/// Adaptive adversaries against `dynamic`×`hedge` at large n, plus the
/// `greedy`, `bisection` and `learning` families.
fn adversarial_cells(seed: u64) -> Vec<Cell> {
    // (algorithm, policy, adversary, ℓ, k, requests per round). The
    // slices give every cell about 1 ms of a round.
    #[rustfmt::skip]
    let shapes: [AdversarialShape; 6] = [
        ("dynamic", Some("hedge"), "cut-chaser", 32, 1024, 128, Family::Dynamic),
        ("dynamic", Some("hedge"), "greedy-cut", 32, 1024, 16, Family::Dynamic),
        ("dynamic", Some("hedge"), "separation", 32, 1024, 20, Family::Dynamic),
        ("greedy", None, "cut-chaser", 32, 1024, 32, Family::Greedy),
        ("bisection", None, "greedy-cut", 2, 1024, 48, Family::Bisection),
        ("learning", None, "separation", 32, 1024, 16, Family::Learning),
    ];
    shapes
        .iter()
        .enumerate()
        .map(
            |(i, &(algorithm, policy, adversary, servers, capacity, batch, family))| {
                let steps = (ADAPTIVE_ROUNDS * batch) as u64;
                Cell {
                    label: format!(
                        "{algorithm}{}/{adversary}/l{servers}k{capacity}",
                        policy.map(|p| format!("-{p}")).unwrap_or_default()
                    ),
                    family,
                    scenario: scenario(
                        algorithm,
                        policy,
                        adversary,
                        servers,
                        capacity,
                        steps,
                        cell_seed(seed, i),
                    ),
                    steps,
                    batch,
                    trace: None,
                }
            },
        )
        .collect()
}

/// A cell's scenario resolved into its live parts.
type Parts = (
    RingInstance,
    Box<dyn OnlineAlgorithm>,
    Box<dyn Workload>,
    rdbp_model::AuditLevel,
);

/// Resolves a cell's scenario into its live parts.
fn resolve(cell: &Cell, registries: &Registries) -> Result<Parts, String> {
    let prepared = cell
        .scenario
        .resolve(registries)
        .map_err(|e| format!("{}: {e}", cell.label))?;
    let (instance, algorithm, workload, _steps, audit, _bound) = prepared.into_parts();
    Ok((instance, algorithm, workload, audit))
}

/// Pre-generates every oblivious cell's requests (before any timing).
fn generate_traces(
    cells: &mut [Cell],
    registries: &Registries,
    tracer: &mut Tracer,
) -> Result<(), String> {
    for cell in cells.iter_mut() {
        let (instance, _algorithm, mut workload, _audit) = resolve(cell, registries)?;
        if workload.is_adaptive() {
            continue;
        }
        let placement = Placement::contiguous(&instance);
        let mut trace = Vec::with_capacity(cell.steps as usize);
        tracer.time(Layer::FillBatch, 0, None, || {
            workload.fill_batch(&placement, cell.steps, &mut trace);
        });
        cell.trace = Some(trace);
    }
    Ok(())
}

fn certify(
    instance: &RingInstance,
    trace: &[Edge],
    tracer: &mut Tracer,
) -> (f64, Option<f64>, WorkCounters) {
    let initial = Placement::contiguous(instance);
    let mut oracle = RingloadOracle::new();
    let lb = tracer.time(Layer::OracleLb, 0, None, || {
        oracle.lower_bound(instance, &initial, trace)
    });
    let ub = tracer.time(Layer::OracleUb, 0, None, || {
        oracle.upper_bound(instance, &initial, trace)
    });
    (lb, ub, oracle.work_counters())
}

fn run_pass(
    cells: &[Cell],
    registries: &Registries,
    tracer: &mut Tracer,
    next_unit: &mut u64,
) -> Result<Pass, String> {
    let traced = tracer.enabled();
    // Set-up: resolve every cell (builds the HST arenas).
    let mut parts = Vec::with_capacity(cells.len());
    let setup = Instant::now();
    for (i, cell) in cells.iter().enumerate() {
        tracer.set_tag(i);
        parts.push(tracer.time(Layer::Resolve, 0, None, || resolve(cell, registries))?);
    }
    let setup_ns = ns_since(setup);
    let mut drivers: Vec<Driver> = parts
        .iter()
        .map(|(_, algorithm, workload, audit)| {
            Driver::new(algorithm.name(), workload.name(), *audit)
        })
        .collect();

    let mut pass = Pass {
        traced,
        setup_ns,
        serve_ns: 0,
        certify_ns: 0,
        requests: 0,
        batch_ns: Vec::new(),
        results: Vec::with_capacity(cells.len()),
        traces: vec![Vec::new(); cells.len()],
        first_unit: *next_unit,
    };
    let start = Instant::now();
    if cells[0].trace.is_some() {
        // Oblivious: each cell in turn, one `step_batch` per batch.
        for (i, (cell, (_, algorithm, _, _))) in cells.iter().zip(parts.iter_mut()).enumerate() {
            tracer.set_tag(i);
            let trace = cell
                .trace
                .as_deref()
                .expect("oblivious cells are pre-generated");
            for chunk in trace.chunks(cell.batch) {
                let unit = *next_unit;
                *next_unit += 1;
                let t = Instant::now();
                let root = tracer.open(Layer::Unit, unit, None);
                tracer.time(Layer::StepBatch, unit, root, || {
                    drivers[i].step_batch(algorithm.as_mut(), chunk, &mut NoopObserver)
                });
                tracer.close(root);
                pass.batch_ns.push(ns_since(t));
            }
        }
    } else {
        // Adaptive: rounds over all cells, each serving its slice one
        // generated request at a time. One round is one latency sample,
        // so every sample mixes the same work.
        for _ in 0..ADAPTIVE_ROUNDS {
            let unit = *next_unit;
            *next_unit += 1;
            let t = Instant::now();
            tracer.set_tag(0);
            let root = tracer.open(Layer::Unit, unit, None);
            for (i, (cell, (_, algorithm, workload, _))) in
                cells.iter().zip(parts.iter_mut()).enumerate()
            {
                tracer.set_tag(i);
                for _ in 0..cell.batch {
                    let request = tracer.time(Layer::NextRequest, unit, root, || {
                        workload.next_request(algorithm.placement())
                    });
                    tracer.time(Layer::StepBatch, unit, root, || {
                        drivers[i].step_batch(
                            algorithm.as_mut(),
                            std::slice::from_ref(&request),
                            &mut NoopObserver,
                        )
                    });
                    pass.traces[i].push(request);
                }
            }
            tracer.close(root);
            pass.batch_ns.push(ns_since(t));
        }
    }
    pass.serve_ns = ns_since(start);

    // Certificates.
    for (i, (cell, (instance, algorithm, _, _))) in cells.iter().zip(&parts).enumerate() {
        tracer.set_tag(i);
        let report = drivers[i].report();
        let trace = cell.trace.as_deref().unwrap_or(&pass.traces[i]);
        let (lb, ub, oracle) = certify(instance, trace, tracer);
        pass.requests += report.steps;
        pass.results.push(CellResult {
            cost: report.ledger.total(),
            steps: report.steps,
            violations: report.capacity_violations,
            counters: drivers[i].work_counters(algorithm.as_ref()),
            lb,
            ub,
            oracle,
        });
    }
    pass.certify_ns = ns_since(start);
    Ok(pass)
}

/// Replays one pass's requests through bare twin algorithms
/// (`serve_batch`, no driver, no audit) under the same unit ids and
/// cell tags, returning each cell's bare serve time. Adaptive cells are
/// replayed one request per span, matching the per-request
/// `step_batch` spans they are compared with.
fn probe_pass(
    cells: &[Cell],
    pass: &Pass,
    registries: &Registries,
    tracer: &mut Tracer,
) -> Result<Vec<u64>, String> {
    let mut per_cell = Vec::with_capacity(cells.len());
    let mut unit = pass.first_unit;
    for (i, cell) in cells.iter().enumerate() {
        let (_instance, mut algorithm, _workload, _audit) = resolve(cell, registries)?;
        tracer.set_tag(i);
        let mut ns = 0u64;
        match &cell.trace {
            Some(trace) => {
                for chunk in trace.chunks(cell.batch) {
                    let t = Instant::now();
                    tracer.time(Layer::ProbeServe, unit, None, || {
                        algorithm.serve_batch(chunk)
                    });
                    ns += ns_since(t);
                    unit += 1;
                }
            }
            None => {
                for (round, chunk) in pass.traces[i].chunks(cell.batch).enumerate() {
                    for request in chunk {
                        let t = Instant::now();
                        tracer.time(
                            Layer::ProbeServe,
                            pass.first_unit + round as u64,
                            None,
                            || algorithm.serve_batch(std::slice::from_ref(request)),
                        );
                        ns += ns_since(t);
                    }
                }
            }
        }
        per_cell.push(ns);
    }
    Ok(per_cell)
}

/// Runs `sim-oblivious` (`adaptive = false`) or `sim-adversarial`.
pub fn run(run: &Run, adaptive: bool) -> Outcome {
    let registries = Registries::builtin();
    let mut cells = if adaptive {
        adversarial_cells(run.seed)
    } else {
        oblivious_cells(run.seed)
    };
    let mut out = Outcome::new(run.metric_names());
    let origin = Instant::now();
    let mut setup_tracer = Tracer::new(origin, 0, run.trace);
    let gen_start = Instant::now();
    if let Err(e) = generate_traces(&mut cells, &registries, &mut setup_tracer) {
        out.checks.check(false, || e);
        return out;
    }
    let gen_ns = ns_since(gen_start);

    let mut trace = Trace::default();
    trace.absorb(setup_tracer);
    let mut passes: Vec<Pass> = Vec::new();
    let mut probe: Option<Vec<u64>> = None;
    let mut next_unit = 1u64;
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let untraced_passes = passes.iter().filter(|p| !p.traced).count();
        let traced_passes = passes.len() - untraced_passes;
        let done = if run.trace {
            elapsed >= run.seconds && traced_passes >= 1 && untraced_passes >= 1
        } else {
            let samples: usize = passes.iter().map(|p| p.batch_ns.len()).sum();
            elapsed >= run.seconds && passes.len() >= 3 && samples >= crate::report::MIN_SAMPLES
        };
        if done {
            break;
        }
        // The first pass always runs untraced so both halves exist.
        let traced = run.trace && elapsed >= run.seconds / 2.0 && untraced_passes >= 1;
        let mut tracer = Tracer::new(origin, 0, traced);
        let pass = match run_pass(&cells, &registries, &mut tracer, &mut next_unit) {
            Ok(pass) => pass,
            Err(e) => {
                out.checks.check(false, || e);
                return out;
            }
        };
        if traced && probe.is_none() {
            let mut probe_tracer = Tracer::new(origin, 0, true);
            match probe_pass(&cells, &pass, &registries, &mut probe_tracer) {
                Ok(per_cell) => probe = Some(per_cell),
                Err(e) => out.checks.check(false, || e),
            }
            trace.absorb(probe_tracer);
        }
        trace.absorb(tracer);
        passes.push(pass);
    }

    check_passes(&cells, &passes, &mut out);
    let first = &passes[0];
    out.fingerprint = format!("{:?}", first.results);
    let total_cost: u64 = first.results.iter().map(|r| r.cost).sum();
    let ratios: Vec<f64> = first
        .results
        .iter()
        .map(|r| r.cost as f64 / r.lb.max(1.0))
        .collect();
    let req_per_s = |p: &Pass| p.requests as f64 / (p.serve_ns as f64 / 1e9);
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let batch_ns: Vec<&[u64]> = untraced.iter().map(|p| p.batch_ns.as_slice()).collect();
    let samples: usize = batch_ns.iter().map(|b| b.len()).sum();

    for (cell, r) in cells.iter().zip(&first.results) {
        out.note(format!(
            "  cell {:<40} cost {:>8}  LB {:>9.1}  UB {:>9.1}  cost/LB {:.3}",
            cell.label,
            r.cost,
            r.lb,
            r.ub.unwrap_or(f64::NAN),
            r.cost as f64 / r.lb.max(1.0)
        ));
    }
    out.note(format!(
        "  passes: {} untraced, {} traced; trace generation {:.3} s",
        untraced.len(),
        traced.len(),
        gen_ns as f64 / 1e9
    ));

    out.note(format!(
        "  req/s per pass: {}",
        passes
            .iter()
            .map(|p| format!("{:.0}{}", req_per_s(p), if p.traced { "t" } else { "" }))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if !run.trace {
        out.set(
            "setup_s",
            median(
                &untraced
                    .iter()
                    .map(|p| p.setup_ns as f64 / 1e9)
                    .collect::<Vec<_>>(),
            ),
        );
        out.set(
            "req_per_s",
            median(&untraced.iter().map(|p| req_per_s(p)).collect::<Vec<_>>()),
        );
        out.set(
            "certified_ratio_s",
            median(
                &untraced
                    .iter()
                    .map(|p| p.certify_ns as f64 / 1e9)
                    .collect::<Vec<_>>(),
            ),
        );
        out.set(
            "cost_per_kreq",
            total_cost as f64 * 1000.0 / first.requests as f64,
        );
        out.set("cert_ratio", geomean(&ratios));
        let (p50, p99) = windowed_p50_p99(&batch_ns);
        out.set("submit_p50_us", p50 / 1e3);
        out.set("submit_p99_us", p99 / 1e3);
        out.set(
            "peak_rss_mb",
            peak_rss_mb(std::process::id()).unwrap_or(0.0),
        );
        out.note(format!("  submit samples: {samples}"));
        return out;
    }

    // --- traced run: per-layer metrics -----------------------------------
    let mut counters = WorkCounters::default();
    let mut oracle = WorkCounters::default();
    let mut dynamic_requests = 0u64;
    for (cell, r) in cells.iter().zip(&first.results) {
        counters.merge(&r.counters);
        oracle.merge(&r.oracle);
        if cell.family == Family::Dynamic {
            dynamic_requests += r.steps;
        }
    }
    let per_kreq = |v: u64| v as f64 * 1000.0 / first.requests as f64;
    out.set("engine.resolve_us", trace.mean_ns(Layer::Resolve) / 1e3);
    let workload_ns = if adaptive {
        ratio(
            trace.total(Layer::NextRequest).0 as f64,
            traced.iter().map(|p| p.requests).sum::<u64>() as f64,
        )
    } else {
        ratio(
            trace.total(Layer::FillBatch).0 as f64,
            first.requests as f64,
        )
    };
    out.set("model.workload_ns_per_req", workload_ns);
    out.set("model.migrations_per_kreq", per_kreq(counters.migrations));
    out.set(
        "model.journal_records_per_kreq",
        per_kreq(counters.journal_records),
    );
    out.set(
        "mts.hst_visits_per_req",
        ratio(counters.hst_node_visits as f64, dynamic_requests as f64),
    );
    out.set(
        "mts.coupling_follows_per_req",
        ratio(counters.coupling_follows as f64, dynamic_requests as f64),
    );
    out.set("ringload.lb_ms", trace.mean_ns(Layer::OracleLb) / 1e6);
    out.set("ringload.ub_ms", trace.mean_ns(Layer::OracleUb) / 1e6);
    out.set("ringload.cut_evals", oracle.oracle_cut_evals as f64);
    out.set(
        "ringload.rounding_passes",
        oracle.oracle_rounding_passes as f64,
    );
    out.set("submit_samples", samples as f64);

    // Driver + audit time = audited step_batch minus the bare twin's
    // serve_batch on the same requests. Step spans cover every traced
    // pass, the twins replayed one of them.
    let per_cell = probe.expect("a traced pass ran the probes");
    let traced_passes = traced.len() as f64;
    let mut step_per_req = 0.0;
    let mut serve_per_req = 0.0;
    for family in [
        Family::Dynamic,
        Family::Greedy,
        Family::Bisection,
        Family::Learning,
    ] {
        let (ns, reqs) = cells
            .iter()
            .zip(&per_cell)
            .filter(|(c, _)| c.family == family)
            .fold((0u64, 0u64), |(ns, n), (c, &cns)| (ns + cns, n + c.steps));
        out.set(family.metric(), ratio(ns as f64, reqs as f64));
    }
    for (i, (cell, &ns)) in cells.iter().zip(&per_cell).enumerate() {
        let reqs = cell.steps as f64;
        let step = trace.total_tagged(Layer::StepBatch, i) as f64 / (reqs * traced_passes);
        let generate = trace.total_tagged(Layer::NextRequest, i) as f64 / (reqs * traced_passes);
        let serve = ns as f64 / reqs;
        step_per_req += step * reqs / first.requests as f64;
        serve_per_req += serve * reqs / first.requests as f64;
        out.note(format!(
            "  cell {:<40} next_request {generate:>8.1} ns/req  step_batch {step:>8.1} ns/req  bare serve {serve:>8.1} ns/req",
            cell.label
        ));
    }
    out.set("model.audit_ns_per_req", step_per_req - serve_per_req);

    // Tracing overhead and layer accounting over the traced passes.
    let untraced_rps = median(&untraced.iter().map(|p| req_per_s(p)).collect::<Vec<_>>());
    let traced_rps = median(&traced.iter().map(|p| req_per_s(p)).collect::<Vec<_>>());
    out.set("trace.untraced_req_per_s", untraced_rps);
    out.set("trace.traced_req_per_s", traced_rps);
    let wall: f64 = traced.iter().map(|p| p.serve_ns as f64).sum();
    let step = trace.self_ns(Layer::StepBatch) as f64;
    let generate = trace.self_ns(Layer::NextRequest) as f64;
    let traced_requests: f64 = traced.iter().map(|p| p.requests as f64).sum();
    let serve_share = ratio(serve_per_req * traced_requests, wall);
    out.set(
        "trace.unaccounted_share",
        ratio(wall - step - generate, wall),
    );
    out.note(format!(
        "  layer accounting over {:.3} s traced serve time: model.next_request {:.1}%, \
         core/baselines serve (bare twin) {:.1}%, model driver+audit {:.1}%, unaccounted {:.1}%",
        wall / 1e9,
        100.0 * ratio(generate, wall),
        100.0 * serve_share,
        100.0 * (ratio(step, wall) - serve_share),
        100.0 * ratio(wall - step - generate, wall)
    ));
    out.note(format!(
        "  tracing overhead: {:.0} req/s untraced vs {:.0} req/s traced ({:+.1}%)",
        untraced_rps,
        traced_rps,
        100.0 * (traced_rps / untraced_rps - 1.0)
    ));
    if let Err(e) = trace.write_tsv(&run.spans_path()) {
        out.note(format!("  could not write spans: {e}"));
    }
    out
}

/// The output checks of the simulation workloads.
fn check_passes(cells: &[Cell], passes: &[Pass], out: &mut Outcome) {
    let first = &passes[0];
    for (p, pass) in passes.iter().enumerate() {
        out.checks.ops(pass.batch_ns.len() as u64);
        for (cell, r) in cells.iter().zip(&pass.results) {
            out.checks.check(r.violations == 0, || {
                format!("{}: {} capacity violations", cell.label, r.violations)
            });
            out.checks.check(r.steps == cell.steps, || {
                format!(
                    "{}: served {} of {} requests",
                    cell.label, r.steps, cell.steps
                )
            });
            out.checks.check(r.lb <= r.cost as f64, || {
                format!(
                    "{}: LB {} above the online cost {}",
                    cell.label, r.lb, r.cost
                )
            });
            out.checks.check(r.ub.is_some_and(|ub| r.lb <= ub), || {
                format!("{}: LB {} above UB {:?}", cell.label, r.lb, r.ub)
            });
        }
        out.checks.check(pass.results == first.results, || {
            format!("pass {p}: costs, bounds or work counters differ from pass 0")
        });
    }
}
