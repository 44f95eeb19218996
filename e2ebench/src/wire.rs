//! The over-the-wire workloads, `serve-replay` and `cluster-replay`.
//!
//! One *pass* starts the shipped server executable(s) as child
//! processes (`rdbp-serve --workers 2`, or `rdbp-router` over two
//! spawned one-worker backends), creates the 16-session fleet over two
//! binary connections (the set-up), then drives a closed loop: each
//! connection's client thread round-robins its 8 sessions with one
//! submit in flight, every submit carrying 256 pre-generated edges
//! (`Work::Replay`). The cluster pass live-migrates every session once,
//! half way through. Afterwards every session's counters and final
//! report are fetched and compared with an in-process
//! `Session::submit_trace` replay of the same edges, each session's
//! trace is certified by the ring-loading oracle, and the processes
//! are shut down.
//!
//! The traced run adds a probe phase to its first traced pass: the
//! recorded submits are replayed, one layer and one call at a time,
//! through twin sessions — the wire codec, `Session::submit_trace`,
//! `SessionManager::submit`, a bare `serve_batch`, sessions on the
//! server under test, and for the cluster sessions on its backends,
//! through the router, and through an in-process `Cluster` attached to
//! the same backends — so the client round trip can be split into
//! layers by difference.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rdbp_cluster::{Cluster, ClusterConfig};
use rdbp_engine::{AlgorithmSpec, AuditSpec, InstanceSpec, Registries, Scenario, WorkloadSpec};
use rdbp_model::{split_mix64, Edge, OnlineAlgorithm, Placement, RunReport, WorkCounters};
use rdbp_offline::OfflineOracle as _;
use rdbp_ringload::RingloadOracle;
use rdbp_serve::wire::{self, HEADER_LEN};
use rdbp_serve::{BatchSummary, Client, Request, Response, Session, SessionManager, Work};

use crate::report::{
    geomean, median, ns_since, peak_rss_mb, ratio, windowed_p50_p99, Checks, Outcome,
};
use crate::spans::{Layer, Trace, Tracer};
use crate::Run;

/// Sessions in the fleet.
const SESSIONS: usize = 16;
/// Client connections (one client thread each).
const CONNECTIONS: usize = 2;
/// Edges per submit.
const EDGES_PER_SUBMIT: usize = 256;
/// Submits per session per pass.
const ROUNDS: usize = 512;
/// Worker threads of the single server (`serve-replay`).
const SERVE_WORKERS: &str = "2";
/// Backends the router spawns (`cluster-replay`), one worker each.
const BACKENDS: &str = "2";

/// The fleet: one scenario and one pre-generated trace per session.
struct Fleet {
    scenarios: Vec<Scenario>,
    traces: Vec<Vec<Edge>>,
    /// Final report and counters of the in-process replay.
    reference: Vec<(RunReport, WorkCounters)>,
}

fn session_scenario(seed: u64, index: usize) -> Scenario {
    let mut algorithm = AlgorithmSpec::named("dynamic");
    algorithm.policy = Some("hedge".into());
    let mut scenario = Scenario::new(
        InstanceSpec::packed(8, 32),
        algorithm,
        WorkloadSpec::named("zipf"),
        (ROUNDS * EDGES_PER_SUBMIT) as u64,
    );
    scenario.seed = split_mix64(split_mix64(seed).wrapping_add(index as u64));
    scenario.audit = AuditSpec::Full;
    scenario
}

/// Builds the fleet and its reference replay (before any timing).
fn fleet(seed: u64, registries: &Registries, tracer: &mut Tracer) -> Result<Fleet, String> {
    let mut fleet = Fleet {
        scenarios: Vec::with_capacity(SESSIONS),
        traces: Vec::with_capacity(SESSIONS),
        reference: Vec::with_capacity(SESSIONS),
    };
    for index in 0..SESSIONS {
        let scenario = session_scenario(seed, index);
        let prepared = scenario.resolve(registries).map_err(|e| e.to_string())?;
        let (instance, _algorithm, mut workload, steps, _audit, _bound) = prepared.into_parts();
        let placement = Placement::contiguous(&instance);
        let mut trace = Vec::with_capacity(steps as usize);
        tracer.time(Layer::FillBatch, 0, None, || {
            workload.fill_batch(&placement, steps, &mut trace);
        });
        let mut session = Session::new(scenario.clone(), registries).map_err(|e| e.0)?;
        for chunk in trace.chunks(EDGES_PER_SUBMIT) {
            session.submit_trace(chunk);
        }
        let counters = session.work_counters();
        fleet.reference.push((session.finish(), counters));
        fleet.scenarios.push(scenario);
        fleet.traces.push(trace);
    }
    Ok(fleet)
}

fn unit_id(pass: usize, round: usize, session: usize) -> u64 {
    1 + (pass * (ROUNDS + 1) * SESSIONS + round * SESSIONS + session) as u64
}

fn submit(session: u64, chunk: &[Edge]) -> Request {
    Request::Submit {
        session,
        work: Work::Replay(chunk.to_vec()),
    }
}

fn chunk(fleet: &Fleet, session: usize, round: usize) -> &[Edge] {
    &fleet.traces[session][round * EDGES_PER_SUBMIT..(round + 1) * EDGES_PER_SUBMIT]
}

// --- child processes ------------------------------------------------------

/// A server child process; shut down (or killed) on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
    /// Pids of the router's spawned backends (cluster only).
    backend_pids: Vec<u32>,
    /// Backend addresses (cluster only).
    backend_addrs: Vec<SocketAddr>,
}

impl Server {
    fn start(cluster: bool, dir: &Path) -> Result<Self, String> {
        let exe_dir = std::env::current_exe()
            .map_err(|e| format!("cannot locate the benchmark executable: {e}"))?
            .parent()
            .map(Path::to_path_buf)
            .ok_or("benchmark executable has no directory")?;
        let addr_file = dir.join(format!("{}.addr", std::process::id()));
        let _ = std::fs::remove_file(&addr_file);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let addr_arg = addr_file.to_string_lossy().into_owned();
        let (bin, args): (PathBuf, Vec<&str>) = if cluster {
            (
                exe_dir.join("rdbp-router"),
                vec![
                    "--port",
                    "0",
                    "--backends",
                    BACKENDS,
                    "--workers",
                    "1",
                    "--ping-ms",
                    "0",
                    "--snapshot-ms",
                    "0",
                    "--rebalance-ms",
                    "0",
                    "--addr-file",
                    &addr_arg,
                ],
            )
        } else {
            (
                exe_dir.join("rdbp-serve"),
                vec![
                    "--port",
                    "0",
                    "--workers",
                    SERVE_WORKERS,
                    "--addr-file",
                    &addr_arg,
                ],
            )
        };
        let child = Command::new(&bin)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            backend_pids: Vec::new(),
            backend_addrs: Vec::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(addr) = text.trim().parse() {
                    server.addr = addr;
                    break;
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("{} exited early: {status}", bin.display()));
            }
            if Instant::now() > deadline {
                return Err(format!("{} did not become ready", bin.display()));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let _ = std::fs::remove_file(&addr_file);
        if cluster {
            let mut client = Client::connect(server.addr).map_err(|e| e.to_string())?;
            match client.call(&Request::Cluster).map_err(|e| e.to_string())? {
                Response::Cluster { backends } => {
                    for b in backends {
                        server.backend_pids.push(u32::try_from(b.pid).unwrap_or(0));
                        server.backend_addrs.push(
                            b.addr
                                .parse()
                                .map_err(|_| format!("bad backend address {}", b.addr))?,
                        );
                    }
                }
                other => return Err(format!("expected the backend roster, got {other:?}")),
            }
        }
        Ok(server)
    }

    /// Peak resident set of the server process(es), MiB.
    fn peak_rss_mb(&self) -> f64 {
        std::iter::once(self.child.id())
            .chain(self.backend_pids.iter().copied())
            .filter_map(peak_rss_mb)
            .sum()
    }

    /// Asks the server to stop and waits for it (and, for the router,
    /// its backends) to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let bye = Client::connect(self.addr)
            .and_then(|mut c| c.call(&Request::Shutdown))
            .map_err(|e| e.to_string());
        let exited = self.wait(Duration::from_secs(15));
        match bye {
            Ok(Response::Bye) if exited => Ok(()),
            Ok(Response::Bye) => Err("server did not exit after shutdown".into()),
            Ok(other) => Err(format!("expected bye, got {other:?}")),
            Err(e) => Err(format!("shutdown failed: {e}")),
        }
    }

    fn wait(&mut self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(Some(_)) = self.child.try_wait() {
            return;
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        // A killed router cannot stop its backends; stop them here.
        for pid in &self.backend_pids {
            let _ = Command::new("kill")
                .args(["-9", &pid.to_string()])
                .stderr(Stdio::null())
                .status();
        }
    }
}

// --- one pass -------------------------------------------------------------

struct Pass {
    traced: bool,
    setup_ns: u64,
    wall_ns: u64,
    certify_ns: u64,
    latencies: Vec<u64>,
    rss_mb: f64,
    /// (final report, counters) per session, over the wire.
    results: Vec<(RunReport, WorkCounters)>,
    /// (LB, UB) per session.
    bounds: Vec<(f64, Option<f64>)>,
    oracle: WorkCounters,
    /// Σ over client threads of their loop wall time.
    thread_ns: u64,
    create_ns: Vec<u64>,
}

struct ThreadOut {
    latencies: Vec<u64>,
    checks: Checks,
    tracer: Tracer,
    start: Instant,
    end: Instant,
}

fn expect_created(response: Response) -> Result<u64, String> {
    match response {
        Response::Created { info } => Ok(info.id),
        other => Err(format!("expected created, got {other:?}")),
    }
}

/// What every pass of a run shares.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    run: &'a Run,
    cluster: bool,
    fleet: &'a Fleet,
    /// Time origin of every span.
    origin: Instant,
}

fn run_pass(
    ctx: Ctx<'_>,
    pass_index: usize,
    traced: bool,
    checks: &mut Checks,
    trace: &mut Trace,
    probe: Option<&mut Probe>,
) -> Result<Pass, String> {
    let Ctx {
        run,
        cluster,
        fleet,
        origin,
    } = ctx;
    // Set-up: process start until ready, plus every create.
    let setup = Instant::now();
    let server = Server::start(cluster, &run.run_dir())?;
    let mut clients = (0..CONNECTIONS)
        .map(|_| Client::connect(server.addr).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut setup_tracer = Tracer::new(origin, 0, traced);
    let mut ids = Vec::with_capacity(SESSIONS);
    let mut create_ns = Vec::with_capacity(SESSIONS);
    for (index, scenario) in fleet.scenarios.iter().enumerate() {
        let request = Request::Create {
            scenario: Box::new(scenario.clone()),
        };
        let t = Instant::now();
        let response = setup_tracer.time(Layer::Create, 0, None, || {
            clients[index % CONNECTIONS].call(&request)
        });
        create_ns.push(ns_since(t));
        checks.ops(1);
        ids.push(expect_created(response.map_err(|e| e.to_string())?)?);
    }
    let setup_ns = ns_since(setup);
    trace.absorb(setup_tracer);

    // The closed loop.
    let barrier = Barrier::new(CONNECTIONS);
    let ids_ref = &ids;
    let outs: Vec<ThreadOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .drain(..)
            .enumerate()
            .map(|(c, mut client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mine: Vec<usize> = (c..SESSIONS).step_by(CONNECTIONS).collect();
                    let mut out = ThreadOut {
                        latencies: Vec::with_capacity(ROUNDS * mine.len()),
                        checks: Checks::default(),
                        tracer: Tracer::new(
                            origin,
                            u16::try_from(c + 1).unwrap_or(u16::MAX),
                            traced,
                        ),
                        start: Instant::now(),
                        end: Instant::now(),
                    };
                    barrier.wait();
                    out.start = Instant::now();
                    'rounds: for round in 0..ROUNDS {
                        if cluster && round == ROUNDS / 2 {
                            for &s in &mine {
                                let unit = unit_id(pass_index, ROUNDS, s);
                                let request = Request::Migrate {
                                    session: ids_ref[s],
                                    backend: None,
                                };
                                let root = out.tracer.open(Layer::Unit, unit, None);
                                let response =
                                    out.tracer.time(Layer::RoutedMigrate, unit, root, || {
                                        client.call(&request)
                                    });
                                out.tracer.close(root);
                                match response {
                                    Ok(Response::Migrated { .. }) => out.checks.ops(1),
                                    Ok(other) => {
                                        out.checks.ops(1);
                                        out.checks.fail(format!("migrate {s}: {other:?}"));
                                    }
                                    Err(e) => {
                                        out.checks.ops(1);
                                        out.checks.fail(format!("migrate {s}: {e}"));
                                        break 'rounds;
                                    }
                                }
                            }
                        }
                        for &s in &mine {
                            let unit = unit_id(pass_index, round, s);
                            let request = submit(ids_ref[s], chunk(fleet, s, round));
                            let t = Instant::now();
                            let root = out.tracer.open(Layer::Unit, unit, None);
                            let response = out
                                .tracer
                                .time(Layer::ClientCall, unit, root, || client.call(&request));
                            out.tracer.close(root);
                            out.latencies.push(ns_since(t));
                            out.checks.ops(1);
                            match response {
                                Ok(Response::Submitted { summary, .. })
                                    if summary.served == EDGES_PER_SUBMIT as u64 => {}
                                Ok(other) => out.checks.fail(format!("submit {s}: {other:?}")),
                                Err(e) => {
                                    out.checks.fail(format!("submit {s}: {e}"));
                                    break 'rounds;
                                }
                            }
                        }
                    }
                    out.end = Instant::now();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = outs
        .iter()
        .map(|o| o.start)
        .min()
        .expect("client threads ran");
    let end = outs
        .iter()
        .map(|o| o.end)
        .max()
        .expect("client threads ran");
    let wall_ns = u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
    let thread_ns = outs
        .iter()
        .map(|o| u64::try_from((o.end - o.start).as_nanos()).unwrap_or(0))
        .sum();
    let mut latencies = Vec::with_capacity(ROUNDS * SESSIONS);
    for out in outs {
        latencies.extend(out.latencies);
        checks.merge(out.checks);
        trace.absorb(out.tracer);
    }

    // Final reports, then the certificates.
    let mut client = Client::connect(server.addr).map_err(|e| e.to_string())?;
    let mut results = Vec::with_capacity(SESSIONS);
    for (s, &id) in ids.iter().enumerate() {
        checks.ops(2);
        let counters = match client
            .call(&Request::Query { session: id })
            .map_err(|e| e.to_string())?
        {
            Response::Status { status } => status.counters,
            other => return Err(format!("query {s}: {other:?}")),
        };
        let report = match client
            .call(&Request::Close { session: id })
            .map_err(|e| e.to_string())?
        {
            Response::Closed { report, .. } => report,
            other => return Err(format!("close {s}: {other:?}")),
        };
        results.push((report, counters));
    }
    let mut oracle_counters = WorkCounters::default();
    let mut bounds = Vec::with_capacity(SESSIONS);
    let mut oracle_tracer = Tracer::new(origin, 0, traced);
    for edges in &fleet.traces {
        let instance = fleet.scenarios[0].instance.build().map_err(|e| e.0)?;
        let initial = Placement::contiguous(&instance);
        let mut oracle = RingloadOracle::new();
        let lb = oracle_tracer.time(Layer::OracleLb, 0, None, || {
            oracle.lower_bound(&instance, &initial, edges)
        });
        let ub = oracle_tracer.time(Layer::OracleUb, 0, None, || {
            oracle.upper_bound(&instance, &initial, edges)
        });
        oracle_counters.merge(&oracle.work_counters());
        bounds.push((lb, ub));
    }
    trace.absorb(oracle_tracer);
    let certify_ns = ns_since(start);
    let rss_mb = server.peak_rss_mb();

    if let Some(probe) = probe {
        probe.run(ctx, &server, &ids, pass_index, checks, trace)?;
    }
    server.shutdown()?;
    checks.ops(1);
    Ok(Pass {
        traced,
        setup_ns,
        wall_ns,
        certify_ns,
        latencies,
        rss_mb,
        results,
        bounds,
        oracle: oracle_counters,
        thread_ns,
        create_ns,
    })
}

// --- probes ---------------------------------------------------------------

/// Twin sessions behind real sockets: session `s` lives on
/// `clients[s % clients.len()]`.
struct RemoteTwins {
    clients: Vec<Client>,
    ids: Vec<u64>,
}

impl RemoteTwins {
    /// Creates the fleet's twins round-robin over `addrs`.
    fn create(addrs: &[SocketAddr], fleet: &Fleet) -> Result<Self, String> {
        let mut clients = addrs
            .iter()
            .map(|addr| Client::connect(*addr).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut ids = Vec::with_capacity(SESSIONS);
        for (s, scenario) in fleet.scenarios.iter().enumerate() {
            let request = Request::Create {
                scenario: Box::new(scenario.clone()),
            };
            let n = clients.len();
            let response = clients[s % n].call(&request).map_err(|e| e.to_string())?;
            ids.push(expect_created(response)?);
        }
        Ok(Self { clients, ids })
    }

    fn request(&self, s: usize, edges: &[Edge]) -> Request {
        submit(self.ids[s], edges)
    }

    fn client(&mut self, s: usize) -> &mut Client {
        let n = self.clients.len();
        &mut self.clients[s % n]
    }

    /// Closes every twin, checking its final report against the
    /// reference replay.
    fn close(mut self, fleet: &Fleet, checks: &mut Checks) {
        for s in 0..self.ids.len() {
            let request = Request::Close {
                session: self.ids[s],
            };
            let closed = self.client(s).call(&request);
            checks.check(
                matches!(closed, Ok(Response::Closed { report, .. }) if report == fleet.reference[s].0),
                || format!("probe remote twin {s} differs from the reference replay"),
            );
        }
    }
}

/// Whether `response` is a submit summary equal to `summary`.
fn summary_is(response: &std::io::Result<Response>, summary: &BatchSummary) -> bool {
    matches!(response, Ok(Response::Submitted { summary: got, .. }) if got == summary)
}

/// What the probe phase measured that spans alone do not carry.
#[derive(Default)]
struct Probe {
    edges: u64,
    request_bytes: u64,
    snapshot_bytes: Vec<u64>,
    serve_errors: u64,
    cluster_errors: u64,
}

impl Probe {
    fn run(
        &mut self,
        ctx: Ctx<'_>,
        server: &Server,
        ids: &[u64],
        pass_index: usize,
        checks: &mut Checks,
        trace: &mut Trace,
    ) -> Result<(), String> {
        let Ctx {
            cluster,
            fleet,
            origin,
            ..
        } = ctx;
        let registries = Registries::builtin();
        let mut tracer = Tracer::new(origin, 0, true);
        let manager = SessionManager::new(2, Registries::builtin());
        let mut sessions = Vec::with_capacity(SESSIONS);
        let mut bare: Vec<Box<dyn OnlineAlgorithm>> = Vec::with_capacity(SESSIONS);
        let mut manager_ids = Vec::with_capacity(SESSIONS);
        for scenario in &fleet.scenarios {
            let prepared = tracer
                .time(Layer::Resolve, 0, None, || scenario.resolve(&registries))
                .map_err(|e| e.0)?;
            bare.push(prepared.into_parts().1);
            sessions.push(Session::new(scenario.clone(), &registries).map_err(|e| e.0)?);
            manager_ids.push(manager.create(scenario.clone()).map_err(|e| e.0)?.id);
        }
        // Twins behind sockets, called one at a time: on the server
        // under test (for the cluster: on its backends, and through the
        // router), and an in-process router over the same backends.
        let direct_addrs = if cluster {
            server.backend_addrs.clone()
        } else {
            vec![server.addr]
        };
        let mut direct = RemoteTwins::create(&direct_addrs, fleet)?;
        let mut routed = None;
        let mut probe_cluster = None;
        let mut cluster_ids = Vec::new();
        if cluster {
            routed = Some(RemoteTwins::create(&[server.addr], fleet)?);
            let mut config = ClusterConfig::quiescent();
            config.attach.clone_from(&server.backend_addrs);
            let c = Cluster::start(&config).map_err(|e| e.0)?;
            for scenario in &fleet.scenarios {
                cluster_ids.push(c.create(scenario.clone()).map_err(|e| e.0)?.id);
            }
            probe_cluster = Some(c);
        }

        for round in 0..ROUNDS {
            if let (Some(c), true) = (&probe_cluster, round == ROUNDS / 2) {
                for (s, &id) in cluster_ids.iter().enumerate() {
                    let unit = unit_id(pass_index, ROUNDS, s);
                    match c.snapshot(id) {
                        Ok(value) => {
                            let mut bytes = Vec::new();
                            wire::encode_value(&value, &mut bytes);
                            self.snapshot_bytes.push(bytes.len() as u64);
                        }
                        Err(e) => {
                            self.cluster_errors += 1;
                            checks.fail(format!("probe snapshot {s}: {e}"));
                        }
                    }
                    if let Err(e) = tracer.time(Layer::ProbeClusterMigrate, unit, None, || {
                        c.migrate(id, None)
                    }) {
                        self.cluster_errors += 1;
                        checks.fail(format!("probe migrate {s}: {e}"));
                    }
                    checks.ops(2);
                }
            }
            for s in 0..SESSIONS {
                let unit = unit_id(pass_index, round, s);
                let edges = chunk(fleet, s, round);
                let request = submit(ids[s], edges);
                let bytes = tracer.time(Layer::ProbeEncodeRequest, unit, None, || {
                    wire::encode_request(&request)
                });
                self.request_bytes += bytes.len() as u64;
                let decoded = tracer.time(Layer::ProbeDecodeRequest, unit, None, || {
                    wire::decode_request(bytes[1], &bytes[HEADER_LEN..])
                });
                checks.check(decoded.is_ok(), || format!("probe decode_request {s}"));
                let summary = tracer.time(Layer::ProbeSession, unit, None, || {
                    sessions[s].submit_trace(edges)
                });
                let work = Work::Replay(edges.to_vec());
                let managed = tracer.time(Layer::ProbeManager, unit, None, || {
                    manager.submit(manager_ids[s], work)
                });
                checks.check(managed.as_ref().is_ok_and(|m| *m == summary), || {
                    format!("probe manager submit {s} disagrees with the session")
                });
                tracer.time(Layer::ProbeServe, unit, None, || bare[s].serve_batch(edges));
                let response = Response::Submitted {
                    session: ids[s],
                    summary,
                };
                let rbytes = tracer.time(Layer::ProbeEncodeResponse, unit, None, || {
                    wire::encode_response(&response)
                });
                let rdecoded = tracer.time(Layer::ProbeDecodeResponse, unit, None, || {
                    wire::decode_response(rbytes[1], &rbytes[HEADER_LEN..])
                });
                checks.check(rdecoded.is_ok(), || format!("probe decode_response {s}"));
                let request = direct.request(s, edges);
                let response = tracer.time(Layer::ProbeDirectCall, unit, None, || {
                    direct.client(s).call(&request)
                });
                checks.ops(1);
                if !summary_is(&response, &summary) {
                    self.serve_errors += 1;
                    checks.fail(format!(
                        "probe server submit {s} disagrees with the session"
                    ));
                }
                if let Some(routed) = &mut routed {
                    let request = routed.request(s, edges);
                    let response = tracer.time(Layer::ProbeRoutedCall, unit, None, || {
                        routed.client(s).call(&request)
                    });
                    checks.ops(1);
                    if !summary_is(&response, &summary) {
                        self.cluster_errors += 1;
                        checks.fail(format!(
                            "probe routed submit {s} disagrees with the session"
                        ));
                    }
                }
                if let Some(c) = &probe_cluster {
                    let work = Work::Replay(edges.to_vec());
                    let submitted = tracer.time(Layer::ProbeClusterSubmit, unit, None, || {
                        c.submit(cluster_ids[s], &work)
                    });
                    checks.ops(1);
                    if submitted.as_ref().map_or(true, |r| *r != summary) {
                        self.cluster_errors += 1;
                        checks.fail(format!(
                            "probe cluster submit {s} disagrees with the session"
                        ));
                    }
                }
                self.edges += edges.len() as u64;
            }
        }

        // The twins must end where the reference replay ended.
        for (s, session) in sessions.into_iter().enumerate() {
            let counters = session.work_counters();
            let report = session.finish();
            checks.check((report, counters) == fleet.reference[s], || {
                format!("probe session twin {s} differs from the reference replay")
            });
            let closed = manager.close(manager_ids[s]);
            checks.check(closed.is_ok_and(|r| r == fleet.reference[s].0), || {
                format!("probe manager twin {s} differs from the reference replay")
            });
        }
        if let Some(c) = probe_cluster {
            for (s, &id) in cluster_ids.iter().enumerate() {
                checks.check(c.close(id).is_ok_and(|r| r == fleet.reference[s].0), || {
                    format!("probe cluster twin {s} differs from the reference replay")
                });
            }
            c.shutdown();
        }
        direct.close(fleet, checks);
        if let Some(routed) = routed {
            routed.close(fleet, checks);
        }
        let _stats = manager.shutdown();
        trace.absorb(tracer);
        Ok(())
    }
}

// --- the workload ---------------------------------------------------------

/// Runs `serve-replay` (`cluster = false`) or `cluster-replay`.
pub fn run(run: &Run, cluster: bool) -> Outcome {
    let registries = Registries::builtin();
    let mut out = Outcome::new(run.metric_names());
    let origin = Instant::now();
    let mut setup_tracer = Tracer::new(origin, 0, run.trace);
    let fleet = match fleet(run.seed, &registries, &mut setup_tracer) {
        Ok(fleet) => fleet,
        Err(e) => {
            out.checks.check(false, || format!("fleet: {e}"));
            return out;
        }
    };
    let mut trace = Trace::default();
    trace.absorb(setup_tracer);

    let mut passes: Vec<Pass> = Vec::new();
    let mut probe: Option<Probe> = None;
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let untraced_passes = passes.iter().filter(|p| !p.traced).count();
        let traced_passes = passes.len() - untraced_passes;
        let done = if run.trace {
            elapsed >= run.seconds && traced_passes >= 1 && untraced_passes >= 1
        } else {
            let samples: usize = passes.iter().map(|p| p.latencies.len()).sum();
            elapsed >= run.seconds && passes.len() >= 3 && samples >= crate::report::MIN_SAMPLES
        };
        if done {
            break;
        }
        let traced = run.trace && elapsed >= run.seconds / 2.0 && untraced_passes >= 1;
        let mut new_probe = (traced && probe.is_none()).then(Probe::default);
        let mut pass_trace = Trace::default();
        let ctx = Ctx {
            run,
            cluster,
            fleet: &fleet,
            origin,
        };
        match run_pass(
            ctx,
            passes.len(),
            traced,
            &mut out.checks,
            &mut pass_trace,
            new_probe.as_mut(),
        ) {
            Ok(pass) => passes.push(pass),
            Err(e) => {
                out.checks
                    .check(false, || format!("pass {}: {e}", passes.len()));
                return out;
            }
        }
        if traced {
            trace.append(pass_trace);
        }
        if new_probe.is_some() {
            probe = new_probe;
        }
    }

    // Output checks.
    for (p, pass) in passes.iter().enumerate() {
        for (s, (result, reference)) in pass.results.iter().zip(&fleet.reference).enumerate() {
            out.checks.check(result.0.capacity_violations == 0, || {
                format!(
                    "pass {p} session {s}: {} capacity violations",
                    result.0.capacity_violations
                )
            });
            out.checks.check(result == reference, || {
                format!("pass {p} session {s}: wire report or counters differ from the in-process replay")
            });
            let (lb, ub) = pass.bounds[s];
            let cost = result.0.ledger.total() as f64;
            out.checks.check(lb <= cost, || {
                format!("session {s}: LB {lb} above the cost {cost}")
            });
            out.checks.check(ub.is_some_and(|ub| lb <= ub), || {
                format!("session {s}: LB {lb} above UB {ub:?}")
            });
        }
        out.checks.check(
            pass.bounds == passes[0].bounds && pass.oracle == passes[0].oracle,
            || format!("pass {p}: certificates differ from pass 0"),
        );
    }

    let edges = (SESSIONS * ROUNDS * EDGES_PER_SUBMIT) as f64;
    let first = &passes[0];
    out.fingerprint = format!("{:?} {:?} {:?}", first.results, first.bounds, first.oracle);
    let total_cost: u64 = first.results.iter().map(|r| r.0.ledger.total()).sum();
    let ratios: Vec<f64> = first
        .results
        .iter()
        .zip(&first.bounds)
        .map(|(r, (lb, _))| r.0.ledger.total() as f64 / lb.max(1.0))
        .collect();
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let req_per_s = |p: &Pass| edges / (p.wall_ns as f64 / 1e9);
    let latencies: Vec<&[u64]> = untraced.iter().map(|p| p.latencies.as_slice()).collect();
    let samples: usize = latencies.iter().map(|l| l.len()).sum();
    let min_lb = first
        .bounds
        .iter()
        .map(|b| b.0)
        .fold(f64::INFINITY, f64::min);
    out.note(format!(
        "  fleet: {SESSIONS} sessions, {CONNECTIONS} connections, {ROUNDS} submits of {EDGES_PER_SUBMIT} edges per session per pass; smallest LB {min_lb:.1}"
    ));
    out.note(format!(
        "  passes: {} untraced, {} traced; submit samples: {samples}",
        untraced.len(),
        traced.len()
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
        out.set("cost_per_kreq", total_cost as f64 * 1000.0 / edges);
        out.set("cert_ratio", geomean(&ratios));
        let (p50, p99) = windowed_p50_p99(&latencies);
        out.set("submit_p50_us", p50 / 1e3);
        out.set("submit_p99_us", p99 / 1e3);
        out.set(
            "peak_rss_mb",
            median(&untraced.iter().map(|p| p.rss_mb).collect::<Vec<_>>()),
        );
        return out;
    }

    // --- traced run: per-layer metrics -----------------------------------
    let Some(probe) = probe else {
        out.checks
            .check(false, || "the traced run ran no probe phase".into());
        return out;
    };
    let mut counters = WorkCounters::default();
    for (_, c) in &fleet.reference {
        counters.merge(c);
    }
    let per_kreq = |v: u64| v as f64 * 1000.0 / edges;
    let (fill_ns, _) = trace.total(Layer::FillBatch);
    out.set("engine.resolve_us", trace.mean_ns(Layer::Resolve) / 1e3);
    out.set("model.workload_ns_per_req", fill_ns as f64 / edges);
    out.set("model.migrations_per_kreq", per_kreq(counters.migrations));
    out.set(
        "model.journal_records_per_kreq",
        per_kreq(counters.journal_records),
    );
    out.set(
        "mts.hst_visits_per_req",
        counters.hst_node_visits as f64 / edges,
    );
    out.set(
        "mts.coupling_follows_per_req",
        counters.coupling_follows as f64 / edges,
    );
    out.set("ringload.lb_ms", trace.mean_ns(Layer::OracleLb) / 1e6);
    out.set("ringload.ub_ms", trace.mean_ns(Layer::OracleUb) / 1e6);
    out.set("ringload.cut_evals", first.oracle.oracle_cut_evals as f64);
    out.set(
        "ringload.rounding_passes",
        first.oracle.oracle_rounding_passes as f64,
    );
    out.set("submit_samples", samples as f64);

    // Per-submit layer times: medians of the probe spans, so a few
    // slow calls (a worker wake-up, a descheduled thread) do not swamp
    // the differences between layers.
    let med_us = |layer| trace.median_ns(layer) / 1e3;
    let per_edge_ns = |layer| trace.median_ns(layer) / EDGES_PER_SUBMIT as f64;
    out.set("core.serve_ns_per_req", per_edge_ns(Layer::ProbeServe));
    out.set(
        "model.audit_ns_per_req",
        per_edge_ns(Layer::ProbeSession) - per_edge_ns(Layer::ProbeServe),
    );
    out.set(
        "serve.encode_ns_per_edge",
        per_edge_ns(Layer::ProbeEncodeRequest),
    );
    out.set(
        "serve.decode_ns_per_edge",
        per_edge_ns(Layer::ProbeDecodeRequest),
    );
    out.set(
        "serve.bytes_per_edge",
        probe.request_bytes as f64 / probe.edges as f64,
    );
    let session_us = med_us(Layer::ProbeSession);
    let manager_us = med_us(Layer::ProbeManager);
    let codec_us = med_us(Layer::ProbeEncodeRequest)
        + med_us(Layer::ProbeDecodeRequest)
        + med_us(Layer::ProbeEncodeResponse)
        + med_us(Layer::ProbeDecodeResponse);
    let direct_us = med_us(Layer::ProbeDirectCall);
    let hop_us = direct_us - manager_us - codec_us;
    out.set("serve.session_submit_us", session_us);
    out.set("serve.manager_wait_us", manager_us - session_us);
    out.set("serve.hop_us", hop_us);
    let create: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.create_ns.iter().map(|&n| n as f64 / 1e3))
        .collect();
    out.set("serve.create_us", median(&create));
    let wire_errors = out.checks.failed as f64;
    // One call at a time through the whole path; the real calls, two
    // connections at once, add queueing on top.
    let mut path_us = direct_us;
    let mut route_us = 0.0;
    let mut frontend_us = 0.0;
    if cluster {
        let cluster_us = med_us(Layer::ProbeClusterSubmit);
        path_us = med_us(Layer::ProbeRoutedCall);
        route_us = cluster_us - direct_us;
        frontend_us = path_us - cluster_us;
        out.set("cluster.route_us", route_us);
        out.set("cluster.frontend_us", frontend_us);
        out.set(
            "cluster.migrate_ms",
            trace.median_ns(Layer::ProbeClusterMigrate) / 1e6,
        );
        let snaps = &probe.snapshot_bytes;
        out.set(
            "cluster.snapshot_bytes",
            snaps.iter().sum::<u64>() as f64 / snaps.len().max(1) as f64,
        );
        out.set("cluster.errors", probe.cluster_errors as f64 + wire_errors);
        out.set("serve.errors", probe.serve_errors as f64);
    } else {
        out.set("serve.errors", probe.serve_errors as f64 + wire_errors);
    }
    let call_us = trace.mean_ns(Layer::ClientCall) / 1e3;
    let queue_us = call_us - path_us;

    // Tracing overhead and layer accounting over the traced passes.
    let untraced_rps = median(&untraced.iter().map(|p| req_per_s(p)).collect::<Vec<_>>());
    let traced_rps = median(&traced.iter().map(|p| req_per_s(p)).collect::<Vec<_>>());
    out.set("trace.untraced_req_per_s", untraced_rps);
    out.set("trace.traced_req_per_s", traced_rps);
    let wall: f64 = traced.iter().map(|p| p.thread_ns as f64).sum();
    let calls = trace.self_ns(Layer::ClientCall) as f64;
    let migrates = trace.self_ns(Layer::RoutedMigrate) as f64;
    let unaccounted = ratio(wall - calls - migrates, wall);
    out.set("trace.unaccounted_share", unaccounted);
    let submits = trace.total(Layer::ClientCall).1 as f64;
    let share = |us: f64| 100.0 * ratio(us * 1e3 * submits, wall);
    let mut line = format!(
        "  layer accounting over {:.3} s of client-thread time: wire codec {:.1}%, \
         session (driver+audit+policy) {:.1}%, manager wait {:.1}%, reactor+socket hop {:.1}%",
        wall / 1e9,
        share(codec_us),
        share(session_us),
        share(manager_us - session_us),
        share(hop_us)
    );
    if cluster {
        line.push_str(&format!(
            ", router route {:.1}%, router frontend {:.1}%, migrate calls {:.1}%",
            share(route_us),
            share(frontend_us),
            100.0 * ratio(migrates, wall)
        ));
    }
    line.push_str(&format!(
        ", queueing under load {:.1}%, unaccounted {:.1}%",
        share(queue_us),
        100.0 * unaccounted
    ));
    out.note(line);
    out.note(format!(
        "  per submit: client call {call_us:.1} us (mean, under load) = codec {codec_us:.1} + session {session_us:.1} \
         + manager wait {:.1} + hop {hop_us:.1}{} + queueing {queue_us:.1} (medians, one call at a time)",
        manager_us - session_us,
        if cluster {
            format!(" + route {route_us:.1} + frontend {frontend_us:.1}")
        } else {
            String::new()
        }
    ));
    out.note(format!(
        "  tracing overhead: {untraced_rps:.0} req/s untraced vs {traced_rps:.0} req/s traced ({:+.1}%)",
        100.0 * (traced_rps / untraced_rps - 1.0)
    ));
    if let Err(e) = trace.write_tsv(&run.spans_path()) {
        out.note(format!("  could not write spans: {e}"));
    }
    out
}
