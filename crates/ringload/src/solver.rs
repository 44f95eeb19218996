//! The classical ring-loading solver.
//!
//! Demands `(from, to, amount)` between nodes of an `n`-cycle are each
//! routed clockwise (edges `from, …, to−1`) or counterclockwise (the
//! complementary arc); the load of an edge is the total amount routed
//! through it. The **split** relaxation may route fractions of a demand
//! both ways; on a cycle the cut condition is tight, so the split
//! optimum has the closed form
//!
//! ```text
//! L* = max over edge pairs {g, h} of D(g, h) / 2
//! ```
//!
//! where `D(g, h)` — the *demand across the cut* `{g, h}` — is the
//! total amount of demands whose endpoints are separated by removing
//! edges `g` and `h` (any route crosses such a cut an odd number of
//! times, so at least once; conversely the two arcs of the cut can
//! absorb `D/2` each). [`RingLoading::split_optimum`] evaluates every
//! cut pair in `O(n·(n+m))` with a per-anchor streaming scan and
//! records the **tight cut** (the argmax pair), and
//! [`RingLoading::round_unsplit`] produces a certified integral routing
//! by greedy insertion plus local-search rounding sweeps.
//! [`RingLoading::unsplit_exact`] enumerates all `2^m` routings for
//! small demand sets — the exact-on-small-instances mode the
//! differential tests pin the heuristics against.

use rdbp_model::WorkCounters;

/// One demand: `amount` units between `from` and `to` (nodes of the
/// cycle), routed entirely clockwise or counterclockwise in the
/// unsplit problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Demand {
    /// Source node (`< n`).
    pub from: u32,
    /// Destination node (`< n`, distinct from `from`).
    pub to: u32,
    /// Demand amount (zero-amount demands are legal and route-free).
    pub amount: u64,
}

impl Demand {
    /// A demand of `amount` units between `from` and `to`.
    #[must_use]
    pub fn new(from: u32, to: u32, amount: u64) -> Self {
        Self { from, to, amount }
    }
}

/// A certified integral routing: per demand the chosen direction, plus
/// the edge loads it induces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routing {
    /// Direction per demand (`true` = clockwise), index-aligned with
    /// [`RingLoading::demands`].
    pub clockwise: Vec<bool>,
    /// Resulting load per edge.
    pub loads: Vec<u64>,
    /// `max(loads)` — the objective value, certified feasible by
    /// construction.
    pub max_load: u64,
}

/// A ring-loading instance with cached analysis results and the
/// deterministic work counters the perf gate tracks.
#[derive(Debug, Clone)]
pub struct RingLoading {
    n: u32,
    demands: Vec<Demand>,
    /// Per node: `(other endpoint, amount)` of each incident demand.
    by_node: Vec<Vec<(u32, u64)>>,
    cut_evals: u64,
    rounding_passes: u64,
    split_doubled: Option<u64>,
    tight_cut: (u32, u32),
}

impl RingLoading {
    /// Builds an instance on an `n`-cycle.
    ///
    /// # Panics
    /// Panics if `n < 3` or any demand has an endpoint `≥ n` or
    /// `from == to`.
    #[must_use]
    pub fn new(n: u32, demands: Vec<Demand>) -> Self {
        assert!(n >= 3, "ring loading needs a cycle of at least 3 nodes");
        let mut by_node = vec![Vec::new(); n as usize];
        for d in &demands {
            assert!(
                d.from < n && d.to < n && d.from != d.to,
                "demand endpoints must be distinct nodes < n, got ({}, {})",
                d.from,
                d.to
            );
            by_node[d.from as usize].push((d.to, d.amount));
            by_node[d.to as usize].push((d.from, d.amount));
        }
        Self {
            n,
            demands,
            by_node,
            cut_evals: 0,
            rounding_passes: 0,
            split_doubled: None,
            tight_cut: (0, 1),
        }
    }

    /// Ring size `n`.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The demands, in construction order.
    #[must_use]
    pub fn demands(&self) -> &[Demand] {
        &self.demands
    }

    /// Direct `O(m)` demand-across-cut evaluation for the pair of edges
    /// `{g, h}` — the reference the streaming scan is tested against.
    ///
    /// # Panics
    /// Panics if `g == h` or either edge index is `≥ n`.
    #[must_use]
    pub fn demand_across_cut(&self, g: u32, h: u32) -> u64 {
        assert!(
            g < self.n && h < self.n && g != h,
            "need two distinct edges"
        );
        // Removing edges g and h splits the nodes into the arc
        // {g+1, …, h} and its complement; a demand crosses iff exactly
        // one endpoint lies in the arc.
        let in_arc = |v: u32| {
            let rel = (v + self.n - g - 1) % self.n;
            rel <= (h + self.n - g - 1) % self.n
        };
        self.demands
            .iter()
            .filter(|d| in_arc(d.from) != in_arc(d.to))
            .map(|d| d.amount)
            .sum()
    }

    /// Twice the split optimum: `max_{g<h} D(g, h)`, kept doubled so
    /// the half-integral value stays exact in `u64`. Caches the result
    /// and the tight cut.
    pub fn split_optimum_doubled(&mut self) -> u64 {
        if let Some(v) = self.split_doubled {
            return v;
        }
        let n = self.n;
        let mut best = 0u64;
        for g in 0..n {
            // Streaming over h = g+1, …, n−1: when node h joins the arc
            // {g+1, …, h}, demands incident to h flip their crossing
            // status against the cut {g, h}.
            let mut d = 0u64;
            for h in (g + 1)..n {
                let rel_h = h - g;
                for &(other, amount) in &self.by_node[h as usize] {
                    let rel_other = (other + n - g) % n;
                    if rel_other >= 1 && rel_other < rel_h {
                        // Other endpoint already inside the arc: the
                        // demand just became internal.
                        d -= amount;
                    } else {
                        d += amount;
                    }
                }
                self.cut_evals += 1;
                if d > best {
                    best = d;
                    self.tight_cut = (g, h);
                }
            }
        }
        self.split_doubled = Some(best);
        best
    }

    /// The exact split (fractional) optimum `L*` — half-integral for
    /// integer demands.
    pub fn split_optimum(&mut self) -> f64 {
        self.split_optimum_doubled() as f64 / 2.0
    }

    /// The tight cut: an edge pair `{g, h}` maximizing `D(g, h)`,
    /// together with that demand. Both of its edges must carry load
    /// `≥ D/2` in any routing — the certificate behind `L*`.
    pub fn tight_cut(&mut self) -> (u32, u32, u64) {
        let d = self.split_optimum_doubled();
        (self.tight_cut.0, self.tight_cut.1, d)
    }

    /// Edges of the clockwise path `from → to` (counterclockwise is the
    /// complementary arc, i.e. the clockwise path `to → from`).
    fn path(&self, from: u32, to: u32, clockwise: bool, mut f: impl FnMut(usize)) {
        let (mut e, end) = if clockwise { (from, to) } else { (to, from) };
        while e != end {
            f(e as usize);
            e = (e + 1) % self.n;
        }
    }

    /// Moves `d`'s load off its route in direction `from_cw` onto the
    /// complementary arc.
    fn reroute(&self, d: Demand, from_cw: bool, loads: &mut [u64]) {
        self.path(d.from, d.to, from_cw, |e| loads[e] -= d.amount);
        self.path(d.from, d.to, !from_cw, |e| loads[e] += d.amount);
    }

    /// The partial-integer rounding step: routes every demand
    /// integrally — greedy insertion in decreasing amount, then
    /// bounded local-search sweeps flipping single demands while the
    /// maximum load improves. The returned [`Routing`] is feasible by
    /// construction, so its `max_load` is a certified upper bound on
    /// the unsplit optimum (and `≥` the split optimum, which the
    /// differential tests sandwich it between).
    pub fn round_unsplit(&mut self) -> Routing {
        let n = self.n as usize;
        let m = self.demands.len();
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&a, &b| {
            self.demands[b]
                .amount
                .cmp(&self.demands[a].amount)
                .then(a.cmp(&b))
        });

        let mut clockwise = vec![true; m];
        let mut loads = vec![0u64; n];
        let mut global_max = 0u64;
        // Insertion pass: place each demand in the direction with the
        // smaller resulting peak (ties: the shorter arc, then clockwise).
        self.rounding_passes += 1;
        for &i in &order {
            let d = self.demands[i];
            if d.amount == 0 {
                continue;
            }
            let peak = |dir: bool| {
                let mut peak = global_max;
                self.path(d.from, d.to, dir, |e| peak = peak.max(loads[e] + d.amount));
                peak
            };
            let (cw_peak, ccw_peak) = (peak(true), peak(false));
            let cw_len = (d.to + self.n - d.from) % self.n;
            let dir = match cw_peak.cmp(&ccw_peak) {
                core::cmp::Ordering::Less => true,
                core::cmp::Ordering::Greater => false,
                core::cmp::Ordering::Equal => u64::from(cw_len) * 2 <= u64::from(self.n),
            };
            clockwise[i] = dir;
            self.path(d.from, d.to, dir, |e| loads[e] += d.amount);
            global_max = global_max.max(if dir { cw_peak } else { ccw_peak });
        }

        // Local-search rounding sweeps: flip any demand whose reversal
        // lowers the maximum load, until a sweep finds nothing (bounded
        // so the counter stays small and deterministic). A flip is
        // tried in place and reverted unless it improves.
        const MAX_SWEEPS: u32 = 8;
        let mut current_max = loads.iter().copied().max().unwrap_or(0);
        for _ in 0..MAX_SWEEPS {
            self.rounding_passes += 1;
            let mut improved = false;
            for (cw, &d) in clockwise.iter_mut().zip(&self.demands) {
                if d.amount == 0 {
                    continue;
                }
                self.reroute(d, *cw, &mut loads);
                let trial_max = loads.iter().copied().max().unwrap_or(0);
                if trial_max < current_max {
                    *cw = !*cw;
                    current_max = trial_max;
                    improved = true;
                } else {
                    self.reroute(d, !*cw, &mut loads);
                }
            }
            if !improved {
                break;
            }
        }

        Routing {
            clockwise,
            loads,
            max_load: current_max,
        }
    }

    /// The exact unsplit optimum by enumerating all `2^m` direction
    /// choices over the demands with positive amount — the
    /// exact-on-small-instances mode. Returns `None` when more than
    /// `limit` demands would have to be enumerated.
    pub fn unsplit_exact(&mut self, limit: u32) -> Option<u64> {
        let live: Vec<Demand> = self
            .demands
            .iter()
            .copied()
            .filter(|d| d.amount > 0)
            .collect();
        let m = u32::try_from(live.len()).ok()?;
        if m > limit || m >= 63 {
            return None;
        }
        let n = self.n as usize;
        let mut best = u64::MAX;
        for mask in 0u64..(1u64 << m) {
            let mut loads = vec![0u64; n];
            for (i, d) in live.iter().enumerate() {
                self.path(d.from, d.to, mask & (1 << i) != 0, |e| loads[e] += d.amount);
            }
            best = best.min(loads.iter().copied().max().unwrap_or(0));
        }
        Some(best)
    }

    /// The deterministic work performed so far, as the oracle metrics
    /// of [`WorkCounters`].
    #[must_use]
    pub fn work_counters(&self) -> WorkCounters {
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

    fn solver(n: u32, demands: &[(u32, u32, u64)]) -> RingLoading {
        RingLoading::new(
            n,
            demands
                .iter()
                .map(|&(f, t, a)| Demand::new(f, t, a))
                .collect(),
        )
    }

    #[test]
    fn split_optimum_has_the_textbook_value_on_hand_instances() {
        // One unit demand between adjacent nodes: best split is half
        // each way.
        let mut rl = solver(3, &[(0, 1, 1)]);
        assert_eq!(rl.split_optimum_doubled(), 1);
        assert_eq!(rl.split_optimum(), 0.5);

        // Two opposing unit demands force a full unit through some cut.
        let mut rl = solver(3, &[(0, 1, 1), (1, 0, 1)]);
        assert_eq!(rl.split_optimum_doubled(), 2);

        // Antipodal demand on an even cycle: both arcs have length 3,
        // split halves it.
        let mut rl = solver(6, &[(0, 3, 4)]);
        assert_eq!(rl.split_optimum(), 2.0);

        // No demands: zero load.
        let mut rl = solver(5, &[]);
        assert_eq!(rl.split_optimum_doubled(), 0);
    }

    #[test]
    fn streaming_scan_matches_the_direct_cut_evaluation() {
        let mut rl = solver(7, &[(0, 3, 2), (1, 5, 1), (2, 6, 3), (4, 0, 5), (3, 1, 1)]);
        let mut best = 0;
        for g in 0..7 {
            for h in (g + 1)..7 {
                best = best.max(rl.demand_across_cut(g, h));
            }
        }
        assert_eq!(rl.split_optimum_doubled(), best);
        let (g, h, d) = rl.tight_cut();
        assert_eq!(d, best);
        assert_eq!(rl.demand_across_cut(g, h), best);
    }

    #[test]
    fn rounding_is_sandwiched_between_split_and_certified_feasible() {
        let mut rl = solver(8, &[(0, 4, 3), (1, 5, 2), (2, 6, 2), (7, 3, 1), (6, 1, 4)]);
        let split2 = rl.split_optimum_doubled();
        let routing = rl.round_unsplit();
        let exact = rl.unsplit_exact(16).expect("small instance");
        assert!(split2 <= 2 * exact, "split ≤ exact unsplit");
        assert!(exact <= routing.max_load, "exact ≤ rounded");

        // The routing's loads must be exactly what its directions imply.
        let mut check = vec![0u64; 8];
        let demands: Vec<Demand> = rl.demands().to_vec();
        for (i, d) in demands.iter().enumerate() {
            rl.path(d.from, d.to, routing.clockwise[i], |e| {
                check[e] += d.amount;
            });
        }
        assert_eq!(check, routing.loads);
        assert_eq!(
            routing.loads.iter().copied().max().unwrap(),
            routing.max_load
        );
    }

    #[test]
    fn counters_are_deterministic_and_nonzero() {
        let run = || {
            let mut rl = solver(9, &[(0, 4, 2), (2, 7, 3), (5, 1, 1)]);
            rl.split_optimum_doubled();
            rl.round_unsplit();
            rl.work_counters()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.oracle_cut_evals, 9 * 8 / 2, "one eval per cut pair");
        assert!(a.oracle_rounding_passes >= 2, "insertion + ≥1 sweep");
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn self_loop_demands_are_rejected() {
        let _ = solver(4, &[(2, 2, 1)]);
    }
}
