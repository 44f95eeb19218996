//! The ringload oracle's certificate, machine-checked wherever the
//! exact solver is feasible: on every small-instance family ×
//! algorithm × workload run,
//!
//! ```text
//! ringload LB  ≤  exact dynamic OPT  ≤  ringload UB
//! ```
//!
//! (the dynamic optimum is what the oracle bounds; online costs can be
//! *below* OPT(k) because the online algorithms run augmented, so they
//! are deliberately not part of the sandwich). Plus property tests for
//! the classical ring-loading solver on every instance with `n ≤ 8`:
//! the streaming `O(n²)` demands-across-cuts scan must match the
//! brute-force per-cut-pair enumeration (the LP optimum equals
//! `max D(g,h)/2` on a cycle), the half-split `{0, ½, 1}` routing grid
//! must land inside the split↔unsplit sandwich, and the rounded
//! routing must respect the Schrijver–Seymour–Winkler bound
//! `unsplit ≤ split + 3/2·max demand`. And a differential test: the
//! oracle's lane-parallel phase scan must return the same lower bound
//! and the same `oracle_cut_evals` as the plain one-pass-per-offset
//! scan on random traces.

use proptest::prelude::*;
use rdbp::model::observers::TraceRecorder;
use rdbp::prelude::*;
use rdbp_ringload::{Demand, RingLoading, RingloadOracle};

/// Small-n families where `dynamic_opt` is still affordable — its DP
/// is quadratic in the number of canonical configurations, so many
/// servers with small capacities blow up fastest (`packed(4,3)` is
/// already ~15k states; these stay under ~500).
fn small_instances() -> Vec<RingInstance> {
    vec![
        RingInstance::packed(2, 4),
        RingInstance::packed(3, 3),
        RingInstance::packed(2, 5),
        RingInstance::packed(2, 6),
    ]
}

const ALGORITHMS: [(&str, Option<&str>); 6] = [
    ("dynamic", Some("hedge")),
    ("dynamic", Some("wfa")),
    ("static", None),
    ("greedy", None),
    ("component", None),
    ("never-move", None),
];

#[test]
fn ringload_sandwiches_the_exact_dynamic_opt_on_small_instances() {
    let registries = Registries::builtin();
    for inst in small_instances() {
        for (algorithm, policy) in ALGORITHMS {
            for workload in ["uniform", "zipf", "chaser"] {
                let mut algorithm_spec = AlgorithmSpec::named(algorithm);
                algorithm_spec.policy = policy.map(String::from);
                let mut scenario = Scenario::new(
                    InstanceSpec::packed(inst.servers(), inst.capacity()),
                    algorithm_spec,
                    WorkloadSpec::named(workload),
                    60,
                );
                scenario.seed = 5;
                let prepared = scenario.resolve(&registries).expect("resolve");
                let mut recorder = TraceRecorder::new();
                prepared.run_counted(&mut recorder);
                let trace = recorder.into_requests();

                let initial = Placement::contiguous(&inst);
                let exact = dynamic_opt(&inst, &initial, &trace) as f64;
                let mut oracle = RingloadOracle::new();
                let lb = oracle.lower_bound(&inst, &initial, &trace);
                let ub = oracle
                    .upper_bound(&inst, &initial, &trace)
                    .expect("ringload always has a UB");
                assert!(
                    lb <= exact + 1e-9,
                    "LB {lb} > exact OPT {exact} on {inst:?} {algorithm}/{workload}"
                );
                assert!(
                    exact <= ub + 1e-9,
                    "exact OPT {exact} > UB {ub} on {inst:?} {algorithm}/{workload}"
                );
            }
        }
    }
}

#[test]
fn exact_oracle_and_ringload_agree_on_ordering() {
    // Both oracle implementations must sit on the same trait and agree
    // that the exact value lies inside the ringload band.
    let inst = RingInstance::packed(2, 4);
    let initial = Placement::contiguous(&inst);
    let trace: Vec<Edge> = (0..80u64).map(|i| inst.edge(i * 5 + 2)).collect();
    let mut exact = ExactDynamicOracle;
    let mut ringload = RingloadOracle::new();
    let opt = exact
        .opt_cost(&inst, &initial, &trace)
        .expect("tiny instance");
    let lb = ringload.lower_bound(&inst, &initial, &trace);
    let ub = ringload.upper_bound(&inst, &initial, &trace).unwrap();
    assert!(lb <= opt && opt <= ub, "lb={lb} opt={opt} ub={ub}");
}

/// Brute-force routing enumeration: every demand routed CW, CCW, or
/// split exactly in half. Every grid point is a feasible fractional
/// routing, so the grid minimum sits *between* the split LP optimum
/// and the unsplit optimum (the true LP optimum can need finer
/// fractions — sixths already appear at `n = 4` — so the grid is an
/// upper bound, not an equality). Loads are doubled to stay integral.
fn brute_force_split_doubled(n: u32, demands: &[Demand]) -> u64 {
    let m = demands.len() as u32;
    let mut best = u64::MAX;
    // 3^m assignments: fraction routed clockwise ∈ {0, ½, 1}.
    for mut code in 0..3u64.pow(m) {
        let mut loads = vec![0u64; n as usize];
        for d in demands {
            let cw_doubled = code % 3; // 0, 1 (=½·2), or 2 (=1·2)
            code /= 3;
            // Clockwise arc from..to, counterclockwise the rest.
            let mut e = d.from;
            while e != d.to {
                loads[e as usize] += cw_doubled * d.amount;
                e = (e + 1) % n;
            }
            let mut e = d.to;
            while e != d.from {
                loads[e as usize] += (2 - cw_doubled) * d.amount;
                e = (e + 1) % n;
            }
        }
        best = best.min(loads.iter().copied().max().unwrap_or(0));
    }
    best
}

fn demand_sets() -> impl Strategy<Value = (u32, Vec<Demand>)> {
    (3u32..8).prop_flat_map(|n| {
        // `to = from + delta mod n` with `delta ≥ 1` — never a
        // self-loop by construction.
        let demand = (0u32..n, 1u32..n, 0u64..5)
            .prop_map(move |(from, delta, amount)| Demand::new(from, (from + delta) % n, amount));
        (Just(n), proptest::collection::vec(demand, 1..=6))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The streaming O(n²) demands-across-cuts scan equals the
    /// brute-force per-pair reference (`demand_across_cut` recounts
    /// each pair from scratch), and the routing-grid enumeration lands
    /// inside the split↔unsplit sandwich.
    #[test]
    fn split_scan_matches_brute_force_enumeration(set in demand_sets()) {
        let (n, demands) = set;
        let mut rl = RingLoading::new(n, demands.clone());
        let scanned = rl.split_optimum_doubled();
        let reference = (0..n)
            .flat_map(|g| (g + 1..n).map(move |h| (g, h)))
            .map(|(g, h)| rl.demand_across_cut(g, h))
            .max()
            .unwrap_or(0);
        prop_assert_eq!(scanned, reference, "n={} demands={:?}", n, &demands);
        // Every grid point is a feasible routing (upper-bounds the LP)
        // and the grid contains all unsplit corners (lower-bounds the
        // unsplit optimum).
        let grid = brute_force_split_doubled(n, &demands);
        let exact = rl.unsplit_exact(6).expect("m ≤ 6 fits the limit");
        prop_assert!(scanned <= grid, "split LP above a feasible routing");
        prop_assert!(grid <= 2 * exact, "grid above the unsplit corner points");
    }

    /// Split ≤ exact unsplit ≤ rounded unsplit, the rounded routing is
    /// internally consistent, and the exact unsplit optimum respects
    /// the Schrijver–Seymour–Winkler additive bound
    /// `unsplit ≤ split + 3/2·max demand`.
    #[test]
    fn rounding_stays_sandwiched(set in demand_sets()) {
        let (n, demands) = set;
        let max_demand = demands.iter().map(|d| d.amount).max().unwrap_or(0);
        let mut rl = RingLoading::new(n, demands);
        let split = rl.split_optimum();
        let exact = rl.unsplit_exact(6).expect("m ≤ 6 fits the limit");
        let rounded = rl.round_unsplit();
        prop_assert!(split <= exact as f64 + 1e-9);
        prop_assert!(exact <= rounded.max_load);
        prop_assert!(exact as f64 <= split + 1.5 * max_demand as f64 + 1e-9);
        prop_assert_eq!(
            rounded.max_load,
            rounded.loads.iter().copied().max().unwrap_or(0)
        );
    }
}

/// The plain phase scan: one pass over the trace per sampled window
/// offset (DESIGN.md §13). Returns the best phase count and the
/// (offset, request) pairs decided — the reference for the oracle's
/// lane-parallel scan and its `oracle_cut_evals`.
fn per_offset_phase_count(
    instance: &RingInstance,
    max_offsets: usize,
    trace: &[Edge],
) -> (u64, u64) {
    let n = instance.n();
    let k = instance.capacity();
    if n <= k {
        return (0, 0);
    }
    let windows = (n / k) as usize;
    let covered = windows * k as usize;
    let step = (k as usize / max_offsets.max(1)).max(1);
    let mut seen = vec![false; covered];
    let mut count = vec![0u32; windows];
    let (mut best, mut evals) = (0u64, 0u64);
    for c in (0..k).step_by(step) {
        seen.fill(false);
        count.fill(0);
        let mut phases = 0u64;
        for e in trace {
            let pos = ((e.0 + n - c) % n) as usize;
            if pos < covered && !seen[pos] {
                seen[pos] = true;
                let w = pos / k as usize;
                count[w] += 1;
                if count[w] == k {
                    phases += 1;
                    count[w] = 0;
                    seen[w * k as usize..(w + 1) * k as usize].fill(false);
                }
            }
        }
        evals += trace.len() as u64;
        best = best.max(phases);
    }
    (best, evals)
}

/// Capacities around the 64-lane group boundary: one group for
/// `k ≤ 64`, two for `64 < k < 128` at the default offset budget.
const SCAN_CAPACITIES: [u32; 8] = [1, 2, 63, 64, 65, 100, 127, 256];
const SCAN_OFFSET_BUDGETS: [usize; 4] = [1, 7, 64, 200];

/// Shape 0: packed `n = ℓ·k`. Shape 1: `n < ℓ·k` with `n mod k` drawn
/// from `slack`, so edges past the last full window are uncovered.
/// Shape 2: `n ≤ k` (no forced cut), when `k ≥ 3` allows it.
fn scan_instance(k: u32, shape: u32, servers: u32, slack: u32) -> RingInstance {
    match shape {
        1 => RingInstance::new(servers * k + slack % k, servers + 1, k),
        2 if k >= 3 => RingInstance::new(3 + slack % (k - 2), 1, k),
        _ => RingInstance::packed(servers, k),
    }
}

/// Trace segments `(kind, start, len, repeats)`: kind 0 is one edge
/// `repeats + 1` times; kind 1 sweeps `len + 1` consecutive edges and
/// then repeats the last one `repeats` times at once (a sweep's last
/// edge often completes a window); kind 2 strides `k` edges apart by
/// `len + 1`.
fn scan_trace(instance: &RingInstance, segments: &[(u32, u32, u32, u32)]) -> Vec<Edge> {
    let mut trace = Vec::new();
    for &(kind, start, len, repeats) in segments {
        let (start, len) = (u64::from(start), u64::from(len));
        match kind {
            0 => trace.extend((0..=repeats).map(|_| instance.edge(start))),
            1 => {
                trace.extend((0..=len).map(|i| instance.edge(start + i)));
                let last = instance.edge(start + len);
                trace.extend((0..repeats).map(|_| last));
            }
            _ => trace.extend(
                (0..u64::from(instance.capacity())).map(|i| instance.edge(start + i * (len + 1))),
            ),
        }
    }
    trace
}

fn assert_scan_matches_reference(instance: &RingInstance, max_offsets: usize, trace: &[Edge]) {
    let mut oracle = RingloadOracle::new();
    oracle.max_offsets = max_offsets;
    let initial = Placement::contiguous(instance);
    let lb = oracle.lower_bound(instance, &initial, trace);
    let (phases, evals) = per_offset_phase_count(instance, max_offsets, trace);
    assert_eq!(
        lb,
        phases as f64 / 2.0,
        "{instance:?} max_offsets={max_offsets} len={}",
        trace.len()
    );
    assert_eq!(
        oracle.work_counters().oracle_cut_evals,
        evals,
        "{instance:?} max_offsets={max_offsets} len={}",
        trace.len()
    );
}

#[test]
fn lane_scan_matches_the_per_offset_scan_on_every_grid_case() {
    for k in SCAN_CAPACITIES {
        for max_offsets in SCAN_OFFSET_BUDGETS {
            for shape in 0..3 {
                let inst = scan_instance(k, shape, 3, 2 * k / 3 + 1);
                let trace = scan_trace(
                    &inst,
                    &[
                        (1, 0, 3 * k, 2),
                        (2, 5, 2, 0),
                        (1, k / 2, 2 * k, 1),
                        (0, 1, 0, 3),
                    ],
                );
                assert_scan_matches_reference(&inst, max_offsets, &trace);
                assert_scan_matches_reference(&inst, max_offsets, &[]);
            }
        }
    }
}

fn scan_cases() -> impl Strategy<Value = (RingInstance, usize, Vec<Edge>)> {
    (0usize..8, 0usize..4, 0u32..3, 3u32..=5, 0u32..1000)
        .prop_flat_map(|(ki, mi, shape, servers, slack)| {
            let inst = scan_instance(SCAN_CAPACITIES[ki], shape, servers, slack);
            let segment = (0u32..3, 0u32..inst.n(), 0..2 * inst.capacity() + 1, 0u32..3);
            (
                Just(inst),
                Just(SCAN_OFFSET_BUDGETS[mi]),
                proptest::collection::vec(segment, 0..=12),
            )
        })
        .prop_map(|(inst, max_offsets, segments)| {
            let trace = scan_trace(&inst, &segments);
            (inst, max_offsets, trace)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lane-parallel phase scan returns the same lower bound and
    /// counts the same `oracle_cut_evals` as one pass per offset.
    #[test]
    fn lane_scan_matches_the_per_offset_scan(case in scan_cases()) {
        let (inst, max_offsets, trace) = case;
        assert_scan_matches_reference(&inst, max_offsets, &trace);
    }
}
