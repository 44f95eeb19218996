//! Hierarchical multiplicative weights with phase resets, on a flat
//! arena.
//!
//! This is the documented substitution (DESIGN.md §1) for the
//! Bubeck–Cohen–Lee–Lee mirror-descent MTS algorithm \[25\] that the
//! paper invokes as a black box: a randomized policy over a hierarchy
//! of the line whose structure mirrors the classical HST-recursion
//! approach to MTS (Bartal–Blum–Burch–Tomkins \[22\], Fiat–Mendel
//! \[23\]).
//!
//! Structure: a balanced tree over the `N` line states with branching
//! factor up to [`MAX_ARITY`] (near-equal splits). Every internal node
//! — a *family* — runs Hedge (multiplicative weights) over its
//! children with learning rate `1/Δ`, where `Δ` is the family's span
//! (its subtree diameter in the line metric). The leaf distribution is
//! the product of conditional child probabilities along root→leaf
//! paths. Each family tracks the cumulative cost charged to each child
//! during the current *phase*; when every child has accumulated ≥ Δ
//! the family resets its weights (phase end). Phases are what make the
//! policy adaptive to a moving optimum: within a phase the family
//! behaves like a static-expert Hedge, and a phase only ends once
//! *any* strategy confined to the subtree has paid Ω(Δ) — the standard
//! amortization that converts static competitiveness into dynamic
//! competitiveness.
//!
//! ## Data-oriented layout (DESIGN.md §14)
//!
//! The hierarchy lives in a **flat arena** in BFS order: parallel
//! `Vec<u32>` topology tables (`lo`/`hi`/`parent`/`child_start`/
//! `child_count`, see [`HstTopology`]) and parallel `Vec<f64>` live
//! state (`log_w`/`phase_cost`) plus the write-through softmax caches
//! `exp`/`cond`, all indexed by arena node.
//! BFS order gives two invariants the serve paths lean on: a node's
//! children occupy the contiguous index range
//! `child_start..child_start + child_count` (a family's Hedge lanes
//! are adjacent in memory, so the softmax runs over one small slice),
//! and parents precede children (forward iteration is top-down,
//! reverse iteration is bottom-up — no recursion, no pointer chasing).
//!
//! The topology depends only on `N`, so it is built once per size by
//! an [`HstTemplate`] and shared behind an `Arc` by every policy the
//! template instantiates — the dynamic partitioner's `ℓ′` intervals
//! all have `k′` states and share one. The template also holds the
//! initial live state and the initial leaf distribution; an instance
//! copies those, seeds its own RNG and draws its coupling `u`.
//!
//! ## Single-lane softmax refresh
//!
//! A family's conditionals are `cond = exp / Σ exp` with
//! `exp[i] = exp(log_w[i] − top)`, `top` the family's maximum lane
//! weight; the `exp` column keeps these numerators as of the family's
//! last full refresh, and a lane at `top` holds exactly `1.0` (no
//! `exp` call: `exp(±0.0) == 1.0`). A one-hot hit changes one lane's
//! weight per family, and only downwards, so the other lanes' numerators
//! stay valid for as long as `top` keeps its bits: the hit walk then
//! recomputes the one charged lane's numerator and re-normalizes the
//! family (summing in lane order, as the full refresh does), which is
//! bit-identical to refreshing all lanes. A phase end, or a charge
//! that moves `top` (the charged lane was the unique maximum), falls
//! back to the full refresh. The vector serve path, construction and
//! snapshot restore always refresh in full, so the column is derived
//! state and never snapshotted.
//!
//! Per-family lane costs are the *conditional* expected costs
//! `E[cost | child subtree]`, computed bottom-up as
//! `val(c) = Σ_d cond(d)·val(d)` — no global leaf distribution and no
//! mass division needed. A one-hot task zeroes `val` everywhere off
//! the hit leaf's root→leaf path, so [`HstHedge::serve_hit`] is a
//! branch-light leaf→root walk over `O(levels)` families that is
//! bit-identical to the full vector pass (IEEE: `x + 0.0 = x` and
//! `x - 1/Δ·0.0 = x` for the never-negative-zero accumulators used
//! here). The realized state follows the leaf distribution through an
//! inverse-CDF coupling *descended through the tree* (one quantile
//! step per family, mirroring [`Distribution::quantile_of`] lane by
//! lane), so a serve never materializes the `O(N)` leaf distribution;
//! expected realized movement still equals the distribution's
//! Wasserstein drift.
//!
//! The explicit leaf distribution survives only as a
//! generation-stamped cache for [`HstHedge::leaf_distribution`]
//! (tests, ablations): `gen` advances whenever any weight changes and
//! the cached array is recomputed only when its stamp is stale. The
//! array is allocated on its first read, so a policy that is only
//! served never holds it.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use rdbp_smin::{Distribution, QuantileCoupling};

use serde::{DeError, Deserialize, Serialize, Value};

use crate::policy::{
    coupling_from_value, coupling_to_value, ensure_finite, validate_costs, MtsPolicy,
    PolicyCounters,
};

/// Maximum children per family (the near-equal split uses
/// `min(MAX_ARITY, width)` lanes). Four keeps the tree shallow — for
/// the pinned `k′ = 48` interval size the root→leaf path crosses 3
/// families instead of the binary tree's 6 — while a family's lane
/// slice still fits one cache line.
const MAX_ARITY: usize = 4;

/// `parent` sentinel for the root.
const NO_PARENT: u32 = u32::MAX;

/// The immutable arena topology of one hierarchy size, in BFS order.
/// Built once per policy template and shared by every policy it
/// instantiates.
#[derive(Debug)]
pub struct HstTopology {
    /// Subtree state range `[lo, hi)` per node.
    lo: Vec<u32>,
    hi: Vec<u32>,
    /// Parent arena index ([`NO_PARENT`] for the root).
    parent: Vec<u32>,
    /// First child's arena index (children are contiguous).
    child_start: Vec<u32>,
    /// Number of children (0 = leaf).
    child_count: Vec<u32>,
    /// `leaf_of_state[s]` = arena index of the width-1 node for state
    /// `s` — the entry point of the `serve_hit` leaf→root walk.
    leaf_of_state: Vec<u32>,
    /// Tree depth in levels (a root-only tree has 1).
    levels: u32,
}

impl HstTopology {
    /// Builds the hierarchy over `[0, n)` in BFS order: node 0 is the
    /// root, every node's children are contiguous, and parents precede
    /// children. Internal nodes split into `min(MAX_ARITY, width)`
    /// near-equal parts (the first `width % arity` parts get the extra
    /// state), so e.g. 48 states level out as 48 → 12 → 3 → 1 with a
    /// uniform initial leaf distribution.
    fn build(n: usize) -> Self {
        let n32 = u32::try_from(n).expect("state count fits u32");
        let mut lo = vec![0u32];
        let mut hi = vec![n32];
        let mut parent = vec![NO_PARENT];
        let mut depth = vec![0u32];
        let mut child_start = Vec::new();
        let mut child_count = Vec::new();
        let mut leaf_of_state = vec![0u32; n];
        let mut levels = 1;
        let mut i = 0;
        while i < lo.len() {
            let width = (hi[i] - lo[i]) as usize;
            if width >= 2 {
                let arity = width.min(MAX_ARITY);
                child_start.push(u32::try_from(lo.len()).expect("arena fits u32"));
                child_count.push(arity as u32);
                let base = width / arity;
                let rem = width % arity;
                let mut cursor = lo[i];
                for j in 0..arity {
                    let size = (base + usize::from(j < rem)) as u32;
                    lo.push(cursor);
                    hi.push(cursor + size);
                    parent.push(i as u32);
                    depth.push(depth[i] + 1);
                    levels = levels.max(depth[i] + 2);
                    cursor += size;
                }
                debug_assert_eq!(cursor, hi[i], "children must tile the parent");
            } else {
                child_start.push(0);
                child_count.push(0);
                leaf_of_state[lo[i] as usize] = i as u32;
            }
            i += 1;
        }
        Self {
            lo,
            hi,
            parent,
            child_start,
            child_count,
            leaf_of_state,
            levels,
        }
    }

    /// Number of arena nodes.
    fn len(&self) -> usize {
        self.lo.len()
    }

    /// Bytes of the six `u32` tables.
    fn bytes(&self) -> usize {
        let u32s = self.lo.len()
            + self.hi.len()
            + self.parent.len()
            + self.child_start.len()
            + self.child_count.len()
            + self.leaf_of_state.len();
        u32s * std::mem::size_of::<u32>()
    }

    /// Writes the normalized leaf distribution for the conditionals
    /// `cond` into `out` (top-down product of conditionals, normalized
    /// exactly as [`Distribution::new`] would).
    fn leaf_probs(&self, cond: &[f64], out: &mut [f64]) {
        let n_nodes = self.len();
        let mut node_prob = vec![0.0f64; n_nodes];
        for i in 0..n_nodes {
            let p = if self.parent[i] == NO_PARENT {
                1.0
            } else {
                node_prob[self.parent[i] as usize] * cond[i]
            };
            node_prob[i] = p;
            if self.child_count[i] == 0 {
                out[self.lo[i] as usize] = p;
            }
        }
        let sum: f64 = out.iter().sum();
        for q in out.iter_mut() {
            *q /= sum;
        }
    }
}

/// The live Hedge state, as parallel arrays indexed by arena node (an
/// entry is the node's Hedge lane within its parent family — the root
/// entries are unused; `log_w`/`phase_cost` stay 0.0 there and
/// `cond`/`exp` stay 1.0).
#[derive(Debug, Clone)]
struct HedgeState {
    /// Log-domain Hedge weights.
    log_w: Vec<f64>,
    /// Per-phase accumulated expected cost.
    phase_cost: Vec<f64>,
    /// Write-through conditional-probability cache:
    /// `cond[i] = P(node i | parent(i))`, the softmax of the parent
    /// family's lane weights (`cond[root] = 1.0`). Updated in place
    /// whenever a family's weights change, so a serve never rebuilds
    /// probabilities for untouched families.
    cond: Vec<f64>,
    /// The softmax numerators behind `cond`: `exp[i] = exp(log_w[i] −
    /// top)` as of the last refresh of `i`'s family, `top` being that
    /// family's maximum lane weight (exactly `1.0` for lanes at `top`).
    /// Lets [`HedgeState::charge_lane`] recompute one lane instead of
    /// all of them while `top` is unchanged.
    exp: Vec<f64>,
}

impl HedgeState {
    /// Recomputes every family's slice of `exp` and `cond` from
    /// `log_w`.
    fn refresh_all(&mut self, topo: &HstTopology) {
        for i in 0..topo.len() {
            let cc = topo.child_count[i] as usize;
            if cc > 0 {
                self.refresh_family_cond(topo.child_start[i] as usize, cc);
            }
        }
    }

    /// Charges the per-lane costs to `family` — the vector serve
    /// path's update: Hedge weight step with `η = 1/Δ`, phase
    /// accounting, phase reset once every lane has suffered ≥ Δ, and a
    /// full refresh of the family's slices of the softmax caches.
    ///
    /// Callers have already established that some lane cost is nonzero
    /// (zero-cost lanes are IEEE no-ops on the accumulators, so a
    /// family with all-zero costs is skipped without touching the
    /// cache).
    fn update_family(&mut self, topo: &HstTopology, family: usize, lane_costs: &[f64]) {
        let cs = topo.child_start[family] as usize;
        let cc = topo.child_count[family] as usize;
        debug_assert_eq!(lane_costs.len(), cc);
        let span = f64::from(topo.hi[family] - topo.lo[family]);
        let eta = 1.0 / span;
        for (lane, &cost) in (cs..cs + cc).zip(lane_costs) {
            self.log_w[lane] -= eta * cost;
            self.phase_cost[lane] += cost;
        }
        if !self.end_phase_if_due(cs, cc, span) {
            self.refresh_family_cond(cs, cc);
        }
    }

    /// Charges `val` to the single arena lane `lane` of `family` — the
    /// one-hot (`serve_hit`) form of [`HedgeState::update_family`] with
    /// every other lane cost `0.0`, and bit-identical to it. The other
    /// lanes' weights are untouched, so while the family maximum `top`
    /// keeps its bits their cached `exp` entries are exactly what a
    /// full refresh would recompute: only `exp[lane]` is refreshed,
    /// then the lanes are re-summed in lane order and divided, as in
    /// [`HedgeState::refresh_family_cond`]. A phase end or a moved
    /// `top` (the charged lane was the family's unique maximum) takes
    /// the full refresh.
    fn charge_lane(&mut self, topo: &HstTopology, family: usize, lane: usize, val: f64) {
        let cs = topo.child_start[family] as usize;
        let cc = topo.child_count[family] as usize;
        debug_assert!((cs..cs + cc).contains(&lane));
        let span = f64::from(topo.hi[family] - topo.lo[family]);
        let eta = 1.0 / span;
        let old_top = family_top(&self.log_w[cs..cs + cc]);
        self.log_w[lane] -= eta * val;
        self.phase_cost[lane] += val;
        if self.end_phase_if_due(cs, cc, span) {
            return;
        }
        let top = family_top(&self.log_w[cs..cs + cc]);
        if top.to_bits() != old_top.to_bits() {
            self.refresh_family_cond(cs, cc);
            return;
        }
        self.exp[lane] = shifted_exp(self.log_w[lane], top);
        self.normalize_family(cs, cc);
    }

    /// Phase end: once every lane of the family has suffered ≥ `span`,
    /// any strategy inside this subtree paid Ω(span) — forgive the past
    /// (zero the lanes' weights and phase costs) and refresh the
    /// family. Returns whether the phase ended.
    fn end_phase_if_due(&mut self, cs: usize, cc: usize, span: f64) -> bool {
        if !self.phase_cost[cs..cs + cc].iter().all(|&p| p >= span) {
            return false;
        }
        self.log_w[cs..cs + cc].fill(0.0);
        self.phase_cost[cs..cs + cc].fill(0.0);
        self.refresh_family_cond(cs, cc);
        true
    }

    /// Recomputes one family's slices of the softmax caches:
    /// `exp[cs..cs+cc] = exp(log_w − top)` with `top` the family's
    /// maximum lane weight (max-shifted for stability), and
    /// `cond[cs..cs+cc]` their normalization. Lanes at `top` get
    /// exactly `1.0` without calling `exp` (`exp(±0.0) == 1.0`). The
    /// single softmax shared by construction, both serve paths and
    /// snapshot restore — any two code paths that land on the same
    /// weights produce bit-identical conditionals — and the only
    /// writer of a family's whole `exp` slice, which
    /// [`HedgeState::charge_lane`] reuses for as long as `top` keeps
    /// its bits.
    fn refresh_family_cond(&mut self, cs: usize, cc: usize) {
        debug_assert!(cc <= MAX_ARITY);
        let lanes = &self.log_w[cs..cs + cc];
        let top = family_top(lanes);
        for (e, &w) in self.exp[cs..cs + cc].iter_mut().zip(lanes) {
            *e = shifted_exp(w, top);
        }
        self.normalize_family(cs, cc);
    }

    /// `cond[cs..cs+cc] = exp[cs..cs+cc] / Σ exp`, summed in lane order.
    fn normalize_family(&mut self, cs: usize, cc: usize) {
        let exp = &self.exp[cs..cs + cc];
        let mut sum = 0.0;
        for &e in exp {
            sum += e;
        }
        for (c, &e) in self.cond[cs..cs + cc].iter_mut().zip(exp) {
            *c = e / sum;
        }
    }
}

/// A family's maximum lane weight (the softmax shift).
fn family_top(lanes: &[f64]) -> f64 {
    let mut top = f64::NEG_INFINITY;
    for &w in lanes {
        top = top.max(w);
    }
    top
}

/// The softmax numerator `exp(w − top)` of a lane, exactly `1.0` for a
/// lane at `top`.
fn shifted_exp(w: f64, top: f64) -> f64 {
    if w == top {
        1.0
    } else {
        (w - top).exp()
    }
}

/// Construction template for [`HstHedge`] policies of one size: the
/// shared topology, the initial live state and the initial leaf
/// distribution, computed once. [`HstTemplate::instantiate`] is the
/// only way a policy is built; every instance is bit-identical to a
/// policy built alone with the same `initial` and `seed`.
#[derive(Debug)]
pub(crate) struct HstTemplate {
    topo: Arc<HstTopology>,
    /// Live state of a fresh policy (all-zero weights and phases, the
    /// uniform-per-family softmax in `exp`/`cond`).
    hedge: HedgeState,
    /// The initial leaf distribution, as [`HstHedge::leaf_distribution`]
    /// returns it on a fresh policy.
    dist: Distribution,
}

impl HstTemplate {
    /// Builds the template for `num_states` line states.
    ///
    /// # Panics
    /// Panics if `num_states == 0`.
    pub(crate) fn new(num_states: usize) -> Self {
        assert!(num_states > 0, "need at least one state");
        let topo = HstTopology::build(num_states);
        let n_nodes = topo.len();
        let mut hedge = HedgeState {
            log_w: vec![0.0; n_nodes],
            phase_cost: vec![0.0; n_nodes],
            cond: vec![0.0; n_nodes],
            exp: vec![0.0; n_nodes],
        };
        hedge.cond[0] = 1.0;
        hedge.exp[0] = 1.0;
        hedge.refresh_all(&topo);
        let dist = if num_states == 1 {
            Distribution::point(0, 1)
        } else {
            let mut probs = vec![0.0; num_states];
            topo.leaf_probs(&hedge.cond, &mut probs);
            Distribution::new(probs)
        };
        Self {
            topo: Arc::new(topo),
            hedge,
            dist,
        }
    }

    /// A fresh policy starting at `initial`, seeding its randomness
    /// from `seed`.
    ///
    /// # Panics
    /// Panics if `initial` is out of range.
    pub(crate) fn instantiate(&self, initial: usize, seed: u64) -> HstHedge {
        let num_states = self.dist.len();
        assert!(initial < num_states, "initial state out of range");
        let mut rng = StdRng::seed_from_u64(seed);
        // Draw u uniformly inside initial's quantile block, so the
        // realized initial state is `initial` while u stays random
        // within the block (see the same note in `SminGradient::new`).
        let mut cdf = 0.0;
        for i in 0..initial {
            cdf += self.dist.prob(i);
        }
        let jitter: f64 = rng.random::<f64>().max(1e-9);
        let u = (cdf + jitter * self.dist.prob(initial)).clamp(1e-12, 1.0 - 1e-12);
        let coupling = QuantileCoupling::with_u(&self.dist, u);
        debug_assert_eq!(coupling.state(), initial);
        HstHedge {
            topo: Arc::clone(&self.topo),
            num_states,
            hedge: self.hedge.clone(),
            gen: 1,
            probs: RefCell::new(Vec::new()),
            // A fresh policy's leaf cache counts as current (its
            // contents are the template's `dist`, filled in on the first
            // read), except for a single state, whose distribution never
            // goes through the cache.
            probs_gen: Cell::new(u64::from(num_states > 1)),
            val: Vec::new(),
            coupling,
            rng,
            serves: 0,
            hits: 0,
            node_visits: 0,
            cache_hits: 0,
        }
    }
}

/// Randomized hierarchical-Hedge MTS policy on the line (see module
/// docs).
#[derive(Debug)]
pub struct HstHedge {
    /// Arena topology, shared with every policy of the same template.
    topo: Arc<HstTopology>,
    num_states: usize,
    hedge: HedgeState,
    /// Weight generation: advances whenever any `log_w` changes.
    gen: u64,
    /// Generation-stamped leaf-distribution cache (lazy; only
    /// [`HstHedge::leaf_distribution`] reads it, so it lives behind
    /// interior mutability and never touches the serve paths). Empty
    /// until the first read fills it; a restore empties it again.
    probs: RefCell<Vec<f64>>,
    /// The `gen` the cached `probs` were computed at.
    probs_gen: Cell<u64>,
    /// Scratch: bottom-up conditional expected costs (aligned with the
    /// arena; vector-serve path only, allocated on its first use).
    val: Vec<f64>,
    coupling: QuantileCoupling,
    rng: StdRng,
    /// Work counters (transient, never snapshotted): serves by task
    /// shape, families whose weights were actually updated, and serves
    /// that reused the write-through conditional-probability cache.
    serves: u64,
    hits: u64,
    node_visits: u64,
    cache_hits: u64,
}

impl HstHedge {
    /// Creates the policy over `num_states` line states starting at
    /// `initial` (a one-off template; use
    /// [`crate::PolicyKind::build_many`] to build many policies of one
    /// size over a shared topology).
    ///
    /// # Panics
    /// Panics if `num_states == 0` or `initial >= num_states`.
    #[must_use]
    pub fn new(num_states: usize, initial: usize, seed: u64) -> Self {
        HstTemplate::new(num_states).instantiate(initial, seed)
    }

    /// The current leaf distribution (product of conditional Hedge
    /// probabilities along root→leaf paths), served from the
    /// generation-stamped cache when the weights have not changed since
    /// the last call.
    #[must_use]
    pub fn leaf_distribution(&self) -> Distribution {
        if self.num_states == 1 {
            return Distribution::point(0, 1);
        }
        let mut probs = self.probs.borrow_mut();
        // An empty cache stamped current (a fresh or restored policy)
        // stands for the distribution of the current `cond`.
        if self.probs_gen.get() != self.gen || probs.is_empty() {
            probs.resize(self.num_states, 0.0);
            self.topo.leaf_probs(&self.hedge.cond, &mut probs);
            self.probs_gen.set(self.gen);
        }
        Distribution::new(probs.clone())
    }

    /// Bytes of the arena's parallel arrays as seen by one policy: the
    /// topology tables (counted in full although policies of one
    /// template share them), the live state, the softmax caches, and
    /// the two lazily allocated arrays at their full lengths whether or
    /// not they exist yet (the vector-serve scratch at the arena
    /// length, the leaf cache at `num_states`) — the debug accessor
    /// behind the data-oriented layout work; see DESIGN.md §14.
    #[must_use]
    pub fn hst_arena_bytes(&self) -> usize {
        let f64s = self.hedge.log_w.len()
            + self.hedge.phase_cost.len()
            + self.hedge.cond.len()
            + self.hedge.exp.len()
            + self.topo.len()
            + self.num_states;
        self.topo.bytes() + f64s * std::mem::size_of::<f64>()
    }

    /// Number of levels in the hierarchy (1 for a single state). The
    /// `serve_hit` walk touches at most `hst_levels() - 1` families.
    #[must_use]
    pub fn hst_levels(&self) -> u32 {
        self.topo.levels
    }

    /// Debug accessor: the state ranges `[lo, hi)` of the families a
    /// `serve_hit(state)` walk updates, in walk (leaf→root) order,
    /// ignoring the zero-cost early break. The differential proptests
    /// compare this against an independently built reference pointer
    /// tree, node for node and in order.
    ///
    /// # Panics
    /// Panics if `state >= num_states`.
    #[must_use]
    pub fn hit_path(&self, state: usize) -> Vec<(u32, u32)> {
        assert!(state < self.num_states, "state out of range");
        let topo = &*self.topo;
        let mut path = Vec::with_capacity(topo.levels as usize);
        let mut node = topo.leaf_of_state[state] as usize;
        while topo.parent[node] != NO_PARENT {
            let family = topo.parent[node] as usize;
            path.push((topo.lo[family], topo.hi[family]));
            node = family;
        }
        path
    }

    /// The cost-vector serve body: one bottom-up sweep computing the
    /// conditional expected cost of every subtree, then an independent
    /// Hedge update per family that carries cost. Reverse BFS order is
    /// a valid bottom-up order (parents precede children), and all
    /// `val` reads use the pre-update `cond` — the property the
    /// `serve_hit` walk's old-cond read reproduces.
    fn serve_vector_body(&mut self, costs: &[f64]) -> usize {
        self.cache_hits += 1;
        let topo = &*self.topo;
        let n_nodes = topo.len();
        if self.val.is_empty() {
            self.val = vec![0.0; n_nodes];
        }
        let val = &mut self.val;
        for i in (0..n_nodes).rev() {
            let cc = topo.child_count[i] as usize;
            val[i] = if cc == 0 {
                costs[topo.lo[i] as usize]
            } else {
                let cs = topo.child_start[i] as usize;
                (cs..cs + cc).map(|c| self.hedge.cond[c] * val[c]).sum()
            };
        }
        let mut touched = false;
        for i in (0..n_nodes).rev() {
            let cc = topo.child_count[i] as usize;
            if cc == 0 {
                continue;
            }
            let cs = topo.child_start[i] as usize;
            if val[cs..cs + cc].iter().all(|&c| c == 0.0) {
                continue;
            }
            self.node_visits += 1;
            touched = true;
            let mut lanes = [0.0f64; MAX_ARITY];
            lanes[..cc].copy_from_slice(&val[cs..cs + cc]);
            self.hedge.update_family(topo, i, &lanes[..cc]);
        }
        if touched {
            self.gen = self.gen.wrapping_add(1);
        }
        self.descend_and_follow()
    }

    /// The one-hot serve body: a leaf→root walk over the hit's path.
    ///
    /// For a unit task every off-path subtree has conditional expected
    /// cost exactly `0.0` (sums of products of zeros), so the vector
    /// pass above degenerates to: path families see one nonzero lane
    /// carrying `val` ([`HedgeState::charge_lane`], the single-lane
    /// form of the family update), everything else is skipped. `val`
    /// propagates as `cond(child)·val` read **before** the family
    /// update — the vector pass computes every `val` from the
    /// pre-update cache — and once it underflows to `0.0` all
    /// remaining ancestors would see all-zero lanes, so the walk stops.
    /// `O(levels)` work, bit for bit the trajectory of the `O(N)` pass
    /// (pinned by `serve_hit_equals_one_hot_serve_for_every_policy`,
    /// `single_lane_hits_equal_full_refresh_serves` and the arena-walk
    /// proptests).
    fn serve_hit_body(&mut self, index: usize) -> usize {
        self.cache_hits += 1;
        // One topology reference for the whole walk: the shared `Arc`
        // is dereferenced once, not per family.
        let topo = &*self.topo;
        let mut node = topo.leaf_of_state[index] as usize;
        let mut val = 1.0f64;
        let mut touched = false;
        while topo.parent[node] != NO_PARENT && val != 0.0 {
            let family = topo.parent[node] as usize;
            let next_val = self.hedge.cond[node] * val;
            self.node_visits += 1;
            touched = true;
            self.hedge.charge_lane(topo, family, node, val);
            val = next_val;
            node = family;
        }
        if touched {
            self.gen = self.gen.wrapping_add(1);
        }
        self.descend_and_follow()
    }

    /// Realizes the coupling's state by descending the hierarchy: one
    /// inverse-CDF step per family over its (contiguous) lane slice of
    /// the conditional cache, rescaling the residual quantile into the
    /// chosen child's block. Each step mirrors
    /// [`Distribution::quantile_of`] exactly — positive-probability
    /// lanes only, with the same last-positive fallback when the lane
    /// CDF falls short of `u` by floating-point shortfall — so the
    /// walk is monotone in `u` and the coupling remains an optimal
    /// transport along the leaf order.
    fn descend_and_follow(&mut self) -> usize {
        let topo = &*self.topo;
        let mut u = self.coupling.u();
        let mut node = 0usize;
        while topo.child_count[node] != 0 {
            let cs = topo.child_start[node] as usize;
            let cc = topo.child_count[node] as usize;
            let mut cdf = 0.0f64;
            let mut last_positive = cs;
            let mut chosen = usize::MAX;
            for c in cs..cs + cc {
                let p = self.hedge.cond[c];
                if p > 0.0 {
                    last_positive = c;
                }
                cdf += p;
                if cdf >= u && p > 0.0 {
                    chosen = c;
                    u = ((u - (cdf - p)) / p).clamp(0.0, 1.0);
                    break;
                }
            }
            if chosen == usize::MAX {
                // The family's lane CDF fell short of u (softmax sums
                // to 1 only up to rounding): take the last positive
                // lane, pinned to its upper quantile edge — exactly
                // `quantile_of`'s fallback. The softmax guarantees at
                // least one positive lane (the max-weight lane).
                chosen = last_positive;
                u = 1.0;
            }
            node = chosen;
        }
        let state = topo.lo[node] as usize;
        self.coupling.follow_to(state);
        state
    }
}

impl MtsPolicy for HstHedge {
    fn num_states(&self) -> usize {
        self.num_states
    }

    fn state(&self) -> usize {
        self.coupling.state()
    }

    fn serve(&mut self, costs: &[f64]) -> usize {
        validate_costs(costs, self.num_states);
        self.serves += 1;
        if self.num_states == 1 {
            return 0;
        }
        self.serve_vector_body(costs)
    }

    fn serve_hit(&mut self, index: usize) -> usize {
        assert!(
            index < self.num_states,
            "hit index {index} out of range 0..{}",
            self.num_states
        );
        self.hits += 1;
        if self.num_states == 1 {
            return 0;
        }
        self.serve_hit_body(index)
    }

    fn name(&self) -> &'static str {
        "hst-hedge"
    }

    fn hst_topology(&self) -> Option<&Arc<HstTopology>> {
        Some(&self.topo)
    }

    // The arena topology is construction-derived from `num_states`;
    // only the flat Hedge weights and phase accumulators are live
    // state, plus the coupling and RNG. `probs_fresh` rides along so a
    // restored policy performs exactly the work the uninterrupted one
    // would: whether `leaf_distribution` may reuse the cached array is
    // part of the state, and dropping it would make a live-migrated
    // session recompute (or skip recomputing) the distribution where
    // its unmigrated twin would not — the "one cache hit per restore"
    // drift the snapshot round-trip tests pin down.
    fn export_state(&self) -> Option<Value> {
        Some(Value::Obj(vec![
            ("log_w".into(), self.hedge.log_w.to_value()),
            ("phase_cost".into(), self.hedge.phase_cost.to_value()),
            ("coupling".into(), coupling_to_value(&self.coupling)),
            ("rng".into(), self.rng.to_value()),
            (
                "probs_fresh".into(),
                (self.probs_gen.get() == self.gen).to_value(),
            ),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let log_w = <Vec<f64> as Deserialize>::from_value(state.get_field("log_w")?)?;
        let phase = <Vec<f64> as Deserialize>::from_value(state.get_field("phase_cost")?)?;
        let n_nodes = self.topo.len();
        if log_w.len() != n_nodes || phase.len() != n_nodes {
            return Err(DeError(format!(
                "arena length mismatch: snapshot has {}/{} entries, arena has {n_nodes}",
                log_w.len(),
                phase.len(),
            )));
        }
        ensure_finite("log_w", &log_w)?;
        ensure_finite("phase_cost", &phase)?;
        let coupling = coupling_from_value(state.get_field("coupling")?, self.num_states)?;
        let probs_fresh = bool::from_value(state.get_field("probs_fresh")?)?;
        self.rng = StdRng::from_value(state.get_field("rng")?)?;
        self.coupling = coupling;
        self.hedge.log_w = log_w;
        self.hedge.phase_cost = phase;
        // Rebuild the write-through softmax caches for the restored
        // weights (bit-identical: the same shared softmax the serve
        // paths use), then honor the snapshot's leaf-cache freshness:
        // the emptied cache refills from the restored `cond` on its
        // next read, and the stamp says whether that read is current.
        self.hedge.refresh_all(&self.topo);
        self.gen = 1;
        self.probs.borrow_mut().clear();
        self.probs_gen.set(if probs_fresh { self.gen } else { 0 });
        Ok(())
    }

    fn work_counters(&self) -> PolicyCounters {
        PolicyCounters {
            serve_vector: self.serves,
            serve_hit: self.hits,
            node_visits: self.node_visits,
            cache_hits: self.cache_hits,
            coupling_follows: self.coupling.follows(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(n: usize, i: usize) -> Vec<f64> {
        let mut v = vec![0.0; n];
        v[i] = 1.0;
        v
    }

    #[test]
    fn starts_at_requested_state() {
        for n in [1usize, 2, 3, 7, 16, 31] {
            for init in [0, n / 2, n - 1] {
                let p = HstHedge::new(n, init, 5);
                assert_eq!(p.state(), init, "n={n} init={init}");
            }
        }
    }

    #[test]
    fn initial_distribution_is_dyadic_uniformish() {
        // 8 states split 8 → 4 × 2 → 2 × 1: every leaf is the product
        // of one fair 4-way and one fair 2-way choice, so the initial
        // distribution is exactly uniform.
        let p = HstHedge::new(8, 0, 1);
        let d = p.leaf_distribution();
        for i in 0..8 {
            assert!((d.prob(i) - 0.125).abs() < 1e-9);
        }
    }

    #[test]
    fn arena_invariants_hold_across_sizes() {
        for n in [1usize, 2, 3, 5, 8, 13, 31, 48, 100] {
            let p = HstHedge::new(n, 0, 7);
            let t = &*p.topo;
            let nodes = t.len();
            assert_eq!(t.lo[0], 0);
            assert_eq!(t.hi[0] as usize, n);
            assert_eq!(t.parent[0], NO_PARENT);
            for i in 0..nodes {
                assert!(t.lo[i] < t.hi[i], "n={n}: empty node {i}");
                let cc = t.child_count[i] as usize;
                if cc == 0 {
                    assert_eq!(t.hi[i] - t.lo[i], 1, "n={n}: wide leaf {i}");
                    continue;
                }
                // Children are contiguous, tile the parent, and come
                // after it (BFS).
                let cs = t.child_start[i] as usize;
                assert!(cs > i, "n={n}: child before parent");
                let mut cursor = t.lo[i];
                for c in cs..cs + cc {
                    assert_eq!(t.parent[c] as usize, i);
                    assert_eq!(t.lo[c], cursor);
                    cursor = t.hi[c];
                }
                assert_eq!(cursor, t.hi[i], "n={n}: children must tile node {i}");
            }
            for s in 0..n {
                let leaf = t.leaf_of_state[s] as usize;
                assert_eq!(t.lo[leaf] as usize, s);
                assert_eq!(t.child_count[leaf], 0);
            }
            assert!(p.hst_arena_bytes() > 0);
            assert!(p.hst_levels() >= 1);
        }
    }

    #[test]
    fn arena_bytes_of_the_ledger_probe_are_stable() {
        // `s7_arena_ledger.csv` records this probe's footprint: the
        // 69-node arena's six u32 tables, five f64 columns (log_w,
        // phase_cost, cond, exp, val) and the 48-entry leaf cache. The
        // lazy `val` scratch and `probs` cache are counted at their
        // full lengths before and after their allocation, so neither
        // sharing the topology nor deferring them moves the figure.
        let mut p = HstHedge::new(48, 24, 1);
        assert_eq!(p.hst_arena_bytes(), 4716);
        assert!(p.val.is_empty(), "scratch is allocated on first use");
        assert!(
            p.probs.borrow().is_empty(),
            "leaf cache is allocated on first read"
        );
        p.serve(&unit(48, 3));
        let _ = p.leaf_distribution();
        assert_eq!(p.val.len(), p.topo.len());
        assert_eq!(p.probs.borrow().len(), 48);
        assert_eq!(p.hst_arena_bytes(), 4716);
    }

    #[test]
    fn restore_rejects_non_finite_weights_and_phases() {
        let mut p = HstHedge::new(16, 5, 2);
        for t in 0..40 {
            p.serve_hit((t * 3) % 16);
        }
        let snap = p.export_state().expect("hedge exports state");
        for field in ["log_w", "phase_cost"] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let corrupt = crate::policy::tests::with_float(&snap, field, 7, bad);
                let mut q = HstHedge::new(16, 5, 9);
                let before = q.export_state();
                let err = q.restore_state(&corrupt).expect_err("non-finite entry");
                assert!(err.0.contains(field), "{field}: {}", err.0);
                assert_eq!(
                    q.export_state(),
                    before,
                    "a refused restore changes nothing"
                );
            }
        }
        let mut q = HstHedge::new(16, 5, 9);
        q.restore_state(&snap)
            .expect("the uncorrupted snapshot restores");
    }

    #[test]
    fn single_lane_refresh_keeps_the_exp_column_exact() {
        // After any mix of hits and vector serves, every family's `exp`
        // slice must equal what a full refresh recomputes from `log_w`
        // (bit for bit), and lanes at the family maximum hold 1.0.
        let n = 48;
        let mut p = HstHedge::new(n, 24, 4);
        for t in 0..600 {
            if t % 7 == 6 {
                let costs: Vec<f64> = (0..n).map(|i| ((i + t) % 3) as f64 * 0.5).collect();
                p.serve(&costs);
            } else {
                p.serve_hit((t * 11 + t / 5) % 6 + 12);
            }
            let mut fresh = p.hedge.clone();
            fresh.refresh_all(&p.topo);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&p.hedge.exp), bits(&fresh.exp), "step {t}");
            assert_eq!(bits(&p.hedge.cond), bits(&fresh.cond), "step {t}");
        }
        assert!(p.hedge.exp.iter().any(|&e| e == 1.0));
    }

    #[test]
    fn quaternary_tree_is_shallow() {
        // The data-oriented redesign's point: 48 states (the pinned
        // dynamic×hedge interval size) level out as 48 → 12 → 3 → 1,
        // so a hit walk crosses at most 3 families — half the binary
        // tree's 6.
        let p = HstHedge::new(48, 0, 1);
        assert_eq!(p.hst_levels(), 4);
        let mut q = HstHedge::new(48, 24, 1);
        let visits_before = q.node_visits;
        let _ = q.serve_hit(10);
        assert!(q.node_visits - visits_before <= 3);
    }

    #[test]
    fn mass_drains_from_hammered_state() {
        let n = 16;
        let mut p = HstHedge::new(n, 5, 2);
        let before = p.leaf_distribution().prob(5);
        for _ in 0..60 {
            p.serve(&unit(n, 5));
        }
        let after = p.leaf_distribution().prob(5);
        assert!(
            after < before / 2.0,
            "mass should drain: {before} -> {after}"
        );
    }

    #[test]
    fn phase_reset_forgives_history() {
        // Hammer left half until phases cycle, then hammer right half;
        // the policy should recover mass on the left.
        let n = 8;
        let mut p = HstHedge::new(n, 0, 3);
        let left_heavy: Vec<f64> = (0..n).map(|i| if i < 4 { 1.0 } else { 0.0 }).collect();
        let right_heavy: Vec<f64> = (0..n).map(|i| if i >= 4 { 1.0 } else { 0.0 }).collect();
        for _ in 0..200 {
            p.serve(&left_heavy);
        }
        let after_left: f64 = (0..4).map(|i| p.leaf_distribution().prob(i)).sum();
        for _ in 0..200 {
            p.serve(&right_heavy);
        }
        let recovered: f64 = (0..4).map(|i| p.leaf_distribution().prob(i)).sum();
        assert!(
            after_left < 0.2,
            "left mass should be tiny, got {after_left}"
        );
        assert!(recovered > 0.8, "left mass should recover, got {recovered}");
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let n = 12;
        let run = |seed: u64| {
            let mut p = HstHedge::new(n, 6, seed);
            (0..80)
                .map(|t| p.serve(&unit(n, (t * 5) % n)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn single_state_is_trivial() {
        let mut p = HstHedge::new(1, 0, 0);
        assert_eq!(p.serve(&[3.0]), 0);
        assert_eq!(p.num_states(), 1);
        assert_eq!(p.hst_levels(), 1);
    }

    #[test]
    fn leaf_distribution_cache_is_generation_stamped() {
        let n = 16;
        let mut p = HstHedge::new(n, 5, 2);
        let _ = p.leaf_distribution();
        let stamped = p.probs_gen.get();
        // Re-reading without serving reuses the cache (stamp stable).
        let _ = p.leaf_distribution();
        assert_eq!(p.probs_gen.get(), stamped);
        // A serve that charges cost advances the generation and the
        // next read recomputes under the new stamp.
        p.serve(&unit(n, 5));
        assert_ne!(p.gen, stamped);
        let _ = p.leaf_distribution();
        assert_eq!(p.probs_gen.get(), p.gen);
        // An all-zero task changes no weight: same generation, cache
        // still fresh.
        let gen = p.gen;
        p.serve(&vec![0.0; n]);
        assert_eq!(p.gen, gen);
    }

    #[test]
    fn oblivious_round_robin_tracks_offline_optimum() {
        // Oblivious adversary (adaptive chasers void randomized
        // guarantees): hammer states round-robin. OPT pays ≈ T/N by
        // sitting anywhere; the hedge should stay within a polylog
        // factor plus the usual additive diameter·log term.
        let n = 32;
        let mut p = HstHedge::new(n, 16, 9);
        let steps = 60 * n;
        let tasks: Vec<Vec<f64>> = (0..steps).map(|t| unit(n, t % n)).collect();
        let mut total = 0.0;
        for task in &tasks {
            let cur = p.state();
            let next = p.serve(task);
            total += task[next] + cur.abs_diff(next) as f64;
        }
        let opt = crate::offline::optimum(n, 16, &tasks);
        let logn = (n as f64).ln();
        let budget = 8.0 * logn * logn * opt + 4.0 * n as f64 * logn;
        assert!(
            total <= budget,
            "hedge paid {total}, opt {opt}, budget {budget}"
        );
    }
}
