//! The scalable dynamic-partitioning oracle built on ring-cut
//! structure.
//!
//! ## Lower bound: phases against disjoint cut windows
//!
//! Any placement that respects capacity `k` must cut at least one edge
//! in **every window of `k` consecutive ring edges** — a window with no
//! cut edge would put its `k+1` spanned processes on one server. Tile
//! the ring with `⌊n/k⌋` disjoint windows (at some offset `c`) and
//! split the trace, per window, into **phases**: a phase ends as soon
//! as every edge of the window has been requested at least once since
//! the phase began. During a complete phase the offline schedule either
//! (a) kept the window's cut set fixed — then its cut edge in the
//! window (which exists) was requested and cost 1 of communication —
//! or (b) changed it, which requires migrating a process incident to
//! the window and costs 1 per move. A communication payment belongs to
//! exactly one window (windows are edge-disjoint) and one migration
//! can toggle edges of at most two adjacent windows, so
//!
//! ```text
//! OPT ≥ (total complete phases over disjoint windows) / 2
//! ```
//!
//! for **every** offset `c`; the oracle maximizes over a deterministic
//! sample of offsets (each individually sound, so sampling never breaks
//! the certificate): every `s`-th offset of `0..k` with stride
//! `s = max(⌊k/max_offsets⌋, 1)`, i.e. `⌈k/s⌉` offsets — all `k` of
//! them when `k < 2·max_offsets`, and at most `2·max_offsets − 1`.
//! This is the demands-across-cuts idea of the ring-loading solver
//! transported to the time axis: a phase is exactly the moment the
//! demand across every cut position of the window has become positive.
//!
//! The scan is lane-parallel: one pass over the trace advances up to
//! 64 sampled offsets ("lanes") together, one bit each of a per-edge
//! `u64` seen-word, so a request already seen in every lane costs one
//! load and one NOT. Per group of lanes the cost is one word
//! operation per request, plus one counter bump per newly seen
//! (request, offset) pair, plus `k` per completed phase, in `O(n)`
//! words of scratch. `oracle_cut_evals` counts the (offset, request)
//! pairs decided — offsets × trace length — not loop iterations.
//!
//! ## Upper bound: explicit feasible schedules
//!
//! Any feasible schedule's cost upper-bounds `OPT`. The oracle
//! evaluates (a) the **lazy** schedule — keep the initial placement,
//! pay every request on its cut set — and (b) for packed instances
//! (`n = ℓ·k`), **migrate-then-freeze** schedules: pay the migrations
//! into the contiguous rotation placement with blocks at offset `c`,
//! then serve statically. Candidate offsets are chosen by the solver's
//! lightest-cut scan (the rotation whose `ℓ` cut edges carry the least
//! aggregate demand — tight cuts in reverse), and block-to-server
//! labelings are matched cyclically to minimize the migration count.
//! The reported bound is the cheapest schedule found.

use rdbp_model::{Edge, Placement, RingInstance, WorkCounters};
use rdbp_offline::OfflineOracle;

/// The ring-loading oracle: certified `lower_bound ≤ OPT ≤ upper_bound`
/// at sizes far beyond the exact solvers (see module docs).
#[derive(Debug, Clone)]
pub struct RingloadOracle {
    /// Offset budget of the lower bound: it maximizes over every
    /// `s`-th window offset of `0..k`, stride
    /// `s = max(⌊k/max_offsets⌋, 1)`, which is `⌈k/s⌉` offsets — not a
    /// hard cap: up to `2·max_offsets − 1` of them (`k = 100` with the
    /// default 64 samples all 100). Each offset is individually sound;
    /// more offsets only tighten the bound.
    pub max_offsets: usize,
    /// Maximum number of candidate rotations the upper bound evaluates
    /// migration costs for (pre-ranked by their cut sets' aggregate
    /// demand).
    pub max_rotations: usize,
    cut_evals: u64,
    rounding_passes: u64,
}

impl Default for RingloadOracle {
    fn default() -> Self {
        Self {
            max_offsets: 64,
            max_rotations: 16,
            cut_evals: 0,
            rounding_passes: 0,
        }
    }
}

impl RingloadOracle {
    /// An oracle with the default offset/rotation budgets.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The phase count of the best sampled window offset (twice the
    /// lower bound, kept integral).
    ///
    /// The sampled offsets run in groups of up to [`LANES`], one pass
    /// over the trace per group (see [`best_in_group`]).
    /// `oracle_cut_evals` counts the (offset, request) pairs decided —
    /// offsets × trace length — not loop iterations, so it does not
    /// depend on how the scan is organised.
    fn best_phase_count(&mut self, instance: &RingInstance, trace: &[Edge]) -> u64 {
        let n = instance.n();
        let k = instance.capacity();
        if n <= k {
            // One server could hold the whole ring: no forced cuts.
            return 0;
        }
        let step = (k as usize / self.max_offsets.max(1)).max(1);
        let offsets: Vec<u32> = (0..k).step_by(step).collect();
        let windows = (n / k) as usize;
        let mut seen = vec![0u64; n as usize];
        let mut count = vec![0u32; windows * offsets.len().min(LANES)];
        let mut best = 0u64;
        for lanes in offsets.chunks(LANES) {
            best = best.max(best_in_group(k, lanes, trace, &mut seen, &mut count));
            self.cut_evals += (lanes.len() * trace.len()) as u64;
        }
        best
    }

    /// The cheapest explicit feasible schedule (see module docs).
    fn cheapest_schedule(
        &mut self,
        instance: &RingInstance,
        initial: &Placement,
        trace: &[Edge],
    ) -> u64 {
        let n = instance.n();
        let ell = instance.servers();
        let k = instance.capacity();

        // Lazy: stay put, pay the initial cut set.
        self.rounding_passes += 1;
        let mut best: u64 = trace.iter().filter(|&&e| initial.is_cut(e)).count() as u64;

        // Migrate-then-freeze rotations need exact blocks of k.
        if u64::from(n) != u64::from(ell) * u64::from(k) || trace.is_empty() {
            return best;
        }
        // Migrations only happen *after* serving a request (the cost
        // model charges communication on the pre-migration config), so
        // the earliest rotation schedule still serves the first request
        // on the initial placement.
        let first_charge = u64::from(initial.is_cut(trace[0]));
        let mut weights = vec![0u64; n as usize];
        for e in &trace[1..] {
            weights[e.0 as usize] += 1;
        }
        // Rank rotations by the aggregate demand on their cut set
        // {c−1, c−1+k, …} — the lightest-cut scan.
        let mut rotations: Vec<(u64, u32)> = (0..k)
            .map(|c| {
                self.cut_evals += u64::from(ell);
                let comm: u64 = (0..ell)
                    .map(|j| weights[((c + j * k + n - 1) % n) as usize])
                    .sum();
                (comm, c)
            })
            .collect();
        rotations.sort_unstable();
        for &(comm, c) in rotations.iter().take(self.max_rotations) {
            if first_charge + comm >= best {
                break; // sorted: migrations only add on top
            }
            // Cheapest cyclic block→server labeling, by match counts.
            let mut matches = vec![0u64; ell as usize];
            for p in 0..n {
                let block = ((p + n - c) % n) / k;
                let server = initial.server(rdbp_model::Process(p)).0;
                matches[((block + ell - server % ell) % ell) as usize] += 1;
            }
            self.rounding_passes += u64::from(ell);
            let moves = u64::from(n) - matches.iter().copied().max().unwrap_or(0);
            best = best.min(first_charge + moves + comm);
        }
        best
    }
}

/// Offsets ("lanes") one pass of the phase scan advances together: one
/// bit each of a `u64` seen-word.
const LANES: usize = 64;

/// The most complete phases of any window offset in `lanes` (at most
/// [`LANES`], each `< k`), in one pass over `trace`.
///
/// `seen[e]` holds one bit per lane: edge `e` was requested in the
/// current phase of its window in that lane. Bits of unused lanes, and
/// of lanes whose windows leave `e` uncovered (`n` not a multiple of
/// `k`), start set and are never cleared, so a request's newly seen
/// lanes are one load and one NOT, and a request already seen in every
/// lane costs nothing more. Each newly seen lane bumps its window's
/// counter; a counter reaching `k` banks a phase and clears that lane's
/// bit over the window's `k` edges. `count` holds the per-lane window
/// counters, `windows × lanes.len()` of them.
fn best_in_group(
    k: u32,
    lanes: &[u32],
    trace: &[Edge],
    seen: &mut [u64],
    count: &mut [u32],
) -> u64 {
    let n = seen.len();
    let k_us = k as usize;
    let windows = n / k_us;
    let covered = windows * k_us;
    let width = lanes.len();
    seen.fill(u64::MAX.checked_shl(width as u32).unwrap_or(0));
    if covered < n {
        for (j, &c) in lanes.iter().enumerate() {
            // Lane j's windows tile [c, c + covered): the rest is never new.
            let start = (c as usize + covered) % n;
            for part in arc(seen, start, n - covered) {
                part.iter_mut().for_each(|s| *s |= 1 << j);
            }
        }
    }
    let count = &mut count[..windows * width];
    count.fill(0);
    let mut phases = [0u64; LANES];
    for e in trace {
        let e = e.0 as usize;
        let mut newly = !seen[e];
        if newly == 0 {
            continue;
        }
        seen[e] = u64::MAX;
        // Lane j's window holding e starts at c_j + w·k with c_j < k:
        // block q = ⌊e/k⌋ when c_j ≤ e mod k, else the block before it
        // (cyclically — lanes that would leave e uncovered are masked).
        let (q, r) = (e / k_us, e % k_us);
        let before = if q == 0 { windows - 1 } else { q - 1 };
        while newly != 0 {
            let j = newly.trailing_zeros() as usize;
            newly &= newly - 1;
            let c = lanes[j] as usize;
            let w = if c <= r { q } else { before };
            let slot = w * width + j;
            count[slot] += 1;
            if count[slot] == k {
                // Window complete: one phase banked, reset it.
                count[slot] = 0;
                phases[j] += 1;
                for part in arc(seen, c + w * k_us, k_us) {
                    part.iter_mut().for_each(|s| *s &= !(1 << j));
                }
            }
        }
    }
    phases.into_iter().max().unwrap_or(0)
}

/// The cyclic run of `len ≤ words.len()` words starting at
/// `start < words.len()`, as at most two contiguous slices.
fn arc(words: &mut [u64], start: usize, len: usize) -> [&mut [u64]; 2] {
    let (head, tail) = words.split_at_mut(start);
    if len <= tail.len() {
        [&mut tail[..len], &mut []]
    } else {
        let wrapped = len - tail.len();
        [tail, &mut head[..wrapped]]
    }
}

impl OfflineOracle for RingloadOracle {
    fn name(&self) -> &'static str {
        "ringload"
    }

    fn lower_bound(
        &mut self,
        instance: &RingInstance,
        _initial: &Placement,
        trace: &[Edge],
    ) -> f64 {
        self.best_phase_count(instance, trace) as f64 / 2.0
    }

    fn opt_cost(
        &mut self,
        _instance: &RingInstance,
        _initial: &Placement,
        _trace: &[Edge],
    ) -> Option<f64> {
        None // certified bounds, not the exact optimum
    }

    fn upper_bound(
        &mut self,
        instance: &RingInstance,
        initial: &Placement,
        trace: &[Edge],
    ) -> Option<f64> {
        Some(self.cheapest_schedule(instance, initial, trace) as f64)
    }

    fn work_counters(&self) -> WorkCounters {
        WorkCounters {
            oracle_cut_evals: self.cut_evals,
            oracle_rounding_passes: self.rounding_passes,
            ..WorkCounters::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace that sweeps every edge of the ring repeatedly: every
    /// window completes one phase per sweep.
    fn sweep_trace(instance: &RingInstance, sweeps: u64) -> Vec<Edge> {
        (0..sweeps * u64::from(instance.n()))
            .map(|i| instance.edge(i))
            .collect()
    }

    #[test]
    fn full_sweeps_force_half_a_phase_per_window() {
        let inst = RingInstance::packed(4, 8); // n=32, 4 windows of 8
        let initial = Placement::contiguous(&inst);
        let mut oracle = RingloadOracle::new();
        let trace = sweep_trace(&inst, 10);
        let lb = oracle.lower_bound(&inst, &initial, &trace);
        // 4 windows × 10 complete phases each, halved.
        assert_eq!(lb, 20.0);
        let ub = oracle.upper_bound(&inst, &initial, &trace).unwrap();
        assert!(lb <= ub, "certified sandwich");
        // Lazy schedule pays the 4 cut edges once per sweep.
        assert_eq!(ub, 40.0);
    }

    #[test]
    fn single_server_instances_have_a_zero_bound() {
        let inst = RingInstance::new(6, 1, 8); // n ≤ k: everything fits
        let initial = Placement::contiguous(&inst);
        let mut oracle = RingloadOracle::new();
        let trace = sweep_trace(&inst, 5);
        assert_eq!(oracle.lower_bound(&inst, &initial, &trace), 0.0);
    }

    #[test]
    fn localized_traffic_yields_a_small_lower_bound() {
        // Requests hammer one edge only: no window ever completes, and
        // the rotation schedule can dodge the hot edge entirely.
        let inst = RingInstance::packed(4, 8);
        let initial = Placement::contiguous(&inst);
        let mut oracle = RingloadOracle::new();
        let trace: Vec<Edge> = (0..1000).map(|_| inst.edge(3)).collect();
        assert_eq!(oracle.lower_bound(&inst, &initial, &trace), 0.0);
        let ub = oracle.upper_bound(&inst, &initial, &trace).unwrap();
        // Edge 3 is interior to the first contiguous block: lazy pays 0.
        assert_eq!(ub, 0.0);
    }

    #[test]
    fn rotation_schedule_beats_lazy_when_the_cut_is_hot() {
        // Hammer the initial placement's own cut edge: lazy pays every
        // request, while rotating the blocks by one is k migrations
        // and then free.
        let inst = RingInstance::packed(4, 8);
        let initial = Placement::contiguous(&inst);
        let hot = inst.edge(7); // a boundary edge of the contiguous blocks
        assert!(initial.is_cut(hot));
        let mut oracle = RingloadOracle::new();
        let trace: Vec<Edge> = (0..10_000).map(|_| hot).collect();
        let ub = oracle.upper_bound(&inst, &initial, &trace).unwrap();
        assert!(
            ub < 10_000.0,
            "migrate-then-freeze must beat the lazy schedule, got {ub}"
        );
        assert!(oracle.lower_bound(&inst, &initial, &trace) <= ub);
    }

    #[test]
    fn bounds_and_counters_are_deterministic() {
        let inst = RingInstance::packed(4, 8);
        let initial = Placement::contiguous(&inst);
        let trace: Vec<Edge> = (0..500u64).map(|i| inst.edge(i * 7 + 1)).collect();
        let run = || {
            let mut oracle = RingloadOracle::new();
            let lb = oracle.lower_bound(&inst, &initial, &trace);
            let ub = oracle.upper_bound(&inst, &initial, &trace).unwrap();
            (lb, ub, oracle.work_counters())
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert!(a.2.oracle_cut_evals > 0);
        assert!(a.2.oracle_rounding_passes > 0);
    }
}
