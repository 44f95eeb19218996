//! Cross-module property tests for the MTS crate: exactness of the
//! offline DP, competitiveness sanity of each online policy, and the
//! arena-layout differentials (flat walk ≡ reference pointer tree,
//! snapshot round-trips of the flattened caches, template-built ≡
//! standalone policies).

use std::sync::Arc;

use proptest::prelude::*;
use rdbp_mts::{offline, run_policy, HstHedge, MtsPolicy, PolicyKind};

/// Random unit-task sequences (the only task shape the partitioning
/// reduction produces).
fn unit_tasks(n: usize, len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(0..n, 1..=len).prop_map(move |hits| {
        hits.into_iter()
            .map(|h| {
                let mut v = vec![0.0; n];
                v[h] = 1.0;
                v
            })
            .collect()
    })
}

/// Random dense task sequences with fractional costs.
fn dense_tasks(n: usize, len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..2.0, n..=n), 1..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The O(N)-per-task sweep DP equals the O(N²) brute force.
    #[test]
    fn offline_sweeps_match_bruteforce(tasks in dense_tasks(6, 12), init in 0usize..6) {
        let fast = offline::optimum(6, init, &tasks);
        let slow = offline::optimum_bruteforce(6, init, &tasks);
        prop_assert!((fast - slow).abs() < 1e-9, "{fast} vs {slow}");
    }

    /// The reconstructed trajectory achieves exactly the optimum value.
    #[test]
    fn offline_trajectory_is_optimal(tasks in unit_tasks(5, 15), init in 0usize..5) {
        let (opt, traj) = offline::optimum_with_trajectory(5, init, &tasks);
        let mut cost = 0.0;
        let mut cur = init;
        for (t, task) in tasks.iter().enumerate() {
            cost += cur.abs_diff(traj[t]) as f64;
            cur = traj[t];
            cost += task[cur];
        }
        prop_assert!((cost - opt).abs() < 1e-9, "traj {cost} vs opt {opt}");
    }

    /// Every online policy is weakly worse than the offline optimum,
    /// and the work function algorithm respects its (2N−1) guarantee
    /// with a +N slack for the finite horizon.
    #[test]
    fn online_policies_dominate_offline(tasks in unit_tasks(8, 40), init in 0usize..8) {
        let n = 8;
        let opt = offline::optimum(n, init, &tasks);
        for kind in [PolicyKind::WorkFunction, PolicyKind::SminGradient, PolicyKind::HstHedge] {
            let mut p = kind.build(n, init, 7);
            let c = run_policy(p.as_mut(), &tasks);
            prop_assert!(
                c.total() >= opt - 1e-9,
                "{}: online {} below optimum {opt}",
                kind.label(),
                c.total()
            );
        }
        // WFA guarantee: cost ≤ (2N−1)·OPT + additive (bounded by the
        // diameter for the finite prefix).
        let mut wfa = PolicyKind::WorkFunction.build(n, init, 0);
        let c = run_policy(wfa.as_mut(), &tasks);
        let bound = (2 * n - 1) as f64 * opt + 2.0 * n as f64;
        prop_assert!(c.total() <= bound + 1e-9, "WFA {} > bound {bound}", c.total());
    }

    /// Policies never step outside the state space and report the state
    /// they moved to.
    #[test]
    fn policies_stay_in_range(tasks in unit_tasks(9, 30), seed in 0u64..1000) {
        for kind in [PolicyKind::WorkFunction, PolicyKind::SminGradient, PolicyKind::HstHedge] {
            let mut p = kind.build(9, 4, seed);
            for task in &tasks {
                let s = p.serve(task);
                prop_assert!(s < 9);
                prop_assert_eq!(s, p.state());
            }
        }
    }
}

/// A reference pointer tree built independently of the arena: the
/// hierarchy as heap-allocated nodes with owned child vectors, split
/// with the same near-equal rule (branching ≤ 4, first `width % arity`
/// children one wider). This is the layout `HstHedge` used before the
/// flattening — kept here as the oracle the arena walk is diffed
/// against.
struct RefNode {
    lo: u32,
    hi: u32,
    children: Vec<RefNode>,
}

impl RefNode {
    fn build(lo: u32, hi: u32) -> Self {
        let width = (hi - lo) as usize;
        let mut children = Vec::new();
        if width >= 2 {
            let arity = width.min(4);
            let base = width / arity;
            let rem = width % arity;
            let mut cursor = lo;
            for j in 0..arity {
                let size = (base + usize::from(j < rem)) as u32;
                children.push(Self::build(cursor, cursor + size));
                cursor += size;
            }
            assert_eq!(cursor, hi, "children must tile the parent");
        }
        Self { lo, hi, children }
    }

    /// The families a pointer-tree hit walk on `state` updates, in
    /// leaf→root order: descend to the leaf, record every internal
    /// node on the way, reverse.
    fn hit_path(&self, state: u32) -> Vec<(u32, u32)> {
        let mut path = Vec::new();
        let mut node = self;
        while !node.children.is_empty() {
            path.push((node.lo, node.hi));
            node = node
                .children
                .iter()
                .find(|c| c.lo <= state && state < c.hi)
                .expect("children tile the parent");
        }
        assert_eq!(
            (node.lo, node.hi),
            (state, state + 1),
            "walk ends at the leaf"
        );
        path.reverse();
        path
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tentpole differential: for every state of a random-size
    /// hierarchy, the arena's flat hit walk visits exactly the node
    /// sequence (order included) a reference pointer-tree walk visits.
    #[test]
    fn arena_hit_walk_matches_reference_pointer_tree(n in 1usize..96) {
        let policy = HstHedge::new(n, n / 2, 11);
        let reference = RefNode::build(0, n as u32);
        for state in 0..n {
            prop_assert_eq!(
                policy.hit_path(state),
                reference.hit_path(state as u32),
                "n={} state={}", n, state
            );
        }
    }

    /// Snapshot round-trip of the flattened state: a restored twin
    /// replays the continuation bit-identically — same realized
    /// states, same leaf distribution — and performs exactly the same
    /// work, including the cache bookkeeping the "one cache hit per
    /// restore" note in hst.rs pins (`probs_fresh` rides the snapshot,
    /// so restoring neither grants nor steals a leaf-cache refresh).
    #[test]
    fn snapshot_round_trip_preserves_flattened_caches(
        n in 2usize..64,
        seed in 0u64..500,
        warm in 0usize..40,
        cont in 1usize..40,
    ) {
        // Derived coin: exercise both freshness polarities of the
        // exported `probs_fresh` flag across the sample space.
        let read_dist = seed % 2 == 0;
        let mut original = HstHedge::new(n, n / 2, seed);
        for t in 0..warm {
            original.serve_hit((t * 7 + 3) % n);
        }
        if read_dist {
            // Freshen the leaf-distribution cache so both freshness
            // polarities of the exported `probs_fresh` flag are hit.
            let _ = original.leaf_distribution();
        }
        let snapshot = original.export_state().expect("hedge exports state");
        let mut restored = HstHedge::new(n, n / 2, seed.wrapping_add(1));
        restored.restore_state(&snapshot).expect("restore");
        prop_assert_eq!(restored.state(), original.state());

        let before_original = original.work_counters();
        let before_restored = restored.work_counters();
        for t in 0..cont {
            let hit = (t * 5 + 1) % n;
            prop_assert_eq!(original.serve_hit(hit), restored.serve_hit(hit));
            prop_assert_eq!(original.state(), restored.state());
        }
        let da = original.work_counters().diff(&before_original);
        let db = restored.work_counters().diff(&before_restored);
        prop_assert_eq!(da, db, "continuation must cost both twins the same work");

        let a = original.leaf_distribution();
        let b = restored.leaf_distribution();
        for i in 0..n {
            prop_assert_eq!(
                a.prob(i).to_bits(),
                b.prob(i).to_bits(),
                "leaf {} diverged after round-trip", i
            );
        }
    }
}

/// Hierarchy sizes of the template differential: the degenerate and
/// odd-arity small trees, and the interval sizes `k′ = ⌈1.5·k⌉` the
/// benchmarks pin (k = 32, 64, 256, 1024).
const TEMPLATE_SIZES: [usize; 10] = [1, 2, 3, 4, 5, 7, 48, 96, 384, 1536];

/// Bit-exact rendering of an exported snapshot (`{:?}` of an `f64`
/// distinguishes every non-NaN bit pattern, `-0.0` included).
fn snapshot_bits(p: &dyn MtsPolicy) -> String {
    format!("{:?}", p.export_state().expect("hedge exports state"))
}

/// Checks a fresh policy's snapshot against the state a fresh
/// `HstHedge` is specified to start in, rebuilt independently: zero
/// weights and phases over the whole arena, the coupling at `initial`
/// with `u` drawn inside `initial`'s quantile block by the seed's first
/// `f64`, and a current leaf cache exactly when the distribution goes
/// through it (`n > 1`).
fn assert_fresh_snapshot(p: &HstHedge, initial: usize, seed: u64) {
    use rand::{RngExt, SeedableRng};
    use serde::Deserialize;
    let n = p.num_states();
    let snap = p.export_state().expect("hedge exports state");
    let field = |k: &str| snap.get_field(k).expect("snapshot field");
    let log_w = <Vec<f64>>::from_value(field("log_w")).expect("log_w");
    let phase = <Vec<f64>>::from_value(field("phase_cost")).expect("phase_cost");
    assert_eq!(log_w.len(), phase.len());
    assert!(
        log_w.len() >= n,
        "the arena holds at least one leaf per state"
    );
    assert!(log_w.iter().chain(&phase).all(|&x| x.to_bits() == 0));
    assert_eq!(bool::from_value(field("probs_fresh")).expect("flag"), n > 1);

    let dist = p.leaf_distribution();
    let cdf: f64 = (0..initial).map(|i| dist.prob(i)).sum();
    let jitter = rand::rngs::StdRng::seed_from_u64(seed)
        .random::<f64>()
        .max(1e-9);
    let u = (cdf + jitter * dist.prob(initial)).clamp(1e-12, 1.0 - 1e-12);
    let coupling = <(f64, usize, u64)>::from_value(field("coupling")).expect("coupling");
    assert_eq!(
        (coupling.0.to_bits(), coupling.1, coupling.2),
        (u.to_bits(), initial, 0)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Template instantiation is bit-identical to a standalone build:
    /// a policy from `build_many` exports the same snapshot as
    /// `HstHedge::new` with its seed, both before and after a mixed
    /// `serve_hit`/`serve` trajectory in which every realized state and
    /// every work counter agrees. The fresh state itself is checked
    /// against an independent reference, and the batch shares one
    /// topology.
    #[test]
    fn template_instances_equal_standalone_policies(
        size in 0usize..TEMPLATE_SIZES.len(),
        init_raw in 0usize..1 << 20,
        seed in 0u64..1 << 40,
        steps in 1usize..120,
    ) {
        let n = TEMPLATE_SIZES[size];
        let initial = init_raw % n;
        let seeds = [seed.wrapping_mul(3), seed, seed.wrapping_add(1)];
        let mut batch = PolicyKind::HstHedge.build_many(n, initial, seeds);
        for p in &batch {
            prop_assert!(Arc::ptr_eq(
                p.hst_topology().expect("hedge topology"),
                batch[0].hst_topology().expect("hedge topology"),
            ));
        }
        let mut alone = HstHedge::new(n, initial, seed);
        assert_fresh_snapshot(&alone, initial, seed);
        let (head, tail) = batch.split_at_mut(1);
        let (sibling, templated) = (head[0].as_mut(), tail[0].as_mut());
        prop_assert_eq!(snapshot_bits(templated), snapshot_bits(&alone));

        let mut costs = vec![0.0; n];
        for t in 0..steps {
            let mix = (seed as usize).wrapping_add(t.wrapping_mul(0x9e37));
            // A sibling of the same template serves in between: sharing
            // the template must not couple the instances.
            sibling.serve_hit((mix >> 3) % n);
            let (a, b) = if t % 4 == 3 {
                for (i, c) in costs.iter_mut().enumerate() {
                    *c = ((i ^ mix) % 5) as f64 * 0.25;
                }
                (templated.serve(&costs), alone.serve(&costs))
            } else {
                let hit = mix % n;
                (templated.serve_hit(hit), alone.serve_hit(hit))
            };
            prop_assert_eq!(a, b, "n={} step {} diverged", n, t);
        }
        prop_assert_eq!(snapshot_bits(templated), snapshot_bits(&alone));
        prop_assert_eq!(templated.work_counters(), alone.work_counters());
    }
}

/// How the next hit of the single-lane differential is chosen.
#[derive(Debug, Clone, Copy)]
enum HitPlan {
    /// A state drawn from the case's mixing sequence.
    Any,
    /// The first state of maximal leaf probability. Siblings share
    /// their parent's mass, so its lane is at the top of its leaf
    /// family, and a unique top moves when that lane is charged.
    Top,
    /// The last state of maximal leaf probability: a lane tied at its
    /// family's top whenever the maximum is shared (every fresh or
    /// just-reset family).
    TiedTop,
    /// Round-robin over the states of the hit's leaf family (the
    /// family `hit_path` lists first), `span` rounds. When its
    /// children are leaves each round charges every lane exactly 1.0,
    /// so a phase reset happens during the sweep.
    Sweep,
}

/// The hits `plan` issues next against `policy`, drawn from `mix`.
fn plan_hits(policy: &HstHedge, plan: HitPlan, mix: usize) -> Vec<usize> {
    let n = policy.num_states();
    let argmax = |last: bool| {
        let dist = policy.leaf_distribution();
        let top = (0..n)
            .map(|i| dist.prob(i))
            .fold(f64::NEG_INFINITY, f64::max);
        let mut at_top = (0..n).filter(|&i| dist.prob(i) == top);
        if last { at_top.last() } else { at_top.next() }.expect("a state of maximal probability")
    };
    match plan {
        HitPlan::Any => vec![mix % n],
        HitPlan::Top => vec![argmax(false)],
        HitPlan::TiedTop => vec![argmax(true)],
        HitPlan::Sweep => match policy.hit_path(mix % n).first() {
            Some(&(lo, hi)) => {
                let span = (hi - lo) as usize;
                (0..span * span).map(|t| lo as usize + t % span).collect()
            }
            None => vec![0],
        },
    }
}

/// Asserts bit-equal snapshots and leaf distributions of two twins
/// (reading the distribution of both, so their leaf-cache stamps stay
/// in step).
fn assert_twins_bit_equal(a: &HstHedge, b: &HstHedge, what: &str) {
    assert_eq!(
        snapshot_bits(a),
        snapshot_bits(b),
        "{what}: snapshots differ"
    );
    let (da, db) = (a.leaf_distribution(), b.leaf_distribution());
    for i in 0..a.num_states() {
        assert_eq!(
            da.prob(i).to_bits(),
            db.prob(i).to_bits(),
            "{what}: leaf {i} differs"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The single-lane softmax refresh of the `serve_hit` walk equals
    /// the full per-family refresh of the vector path bit for bit: one
    /// twin serves `serve_hit`, the other the same hits as one-hot
    /// vectors through `serve`. The trajectory charges top lanes (a
    /// moved family maximum), lanes tied at the top (an unmoved one)
    /// and whole leaf families until their phase resets, and the hit
    /// twin is replaced by a restored copy of itself mid-run (its
    /// caches rebuilt by the full refresh).
    #[test]
    fn single_lane_hits_equal_full_refresh_serves(
        size in 0usize..TEMPLATE_SIZES.len(),
        seed in 0u64..1 << 40,
        plans in proptest::collection::vec(0usize..4, 4..24),
        restore_at in 0usize..24,
    ) {
        let n = TEMPLATE_SIZES[size];
        let initial = (seed as usize) % n;
        let mut hit_twin = HstHedge::new(n, initial, seed);
        let mut vector_twin = HstHedge::new(n, initial, seed);
        let mut one_hot = vec![0.0; n];
        for (step, &plan) in plans.iter().enumerate() {
            if step == restore_at % plans.len() {
                assert_twins_bit_equal(&hit_twin, &vector_twin, "before restore");
                let snapshot = hit_twin.export_state().expect("hedge exports state");
                let mut restored = HstHedge::new(n, initial, seed ^ 0x5bd1);
                restored.restore_state(&snapshot).expect("restore");
                hit_twin = restored;
            }
            let plan = [HitPlan::Any, HitPlan::Top, HitPlan::TiedTop, HitPlan::Sweep][plan];
            let mix = (seed as usize).wrapping_add(step.wrapping_mul(0x9e37_79b9));
            for hit in plan_hits(&hit_twin, plan, mix) {
                one_hot[hit] = 1.0;
                let a = hit_twin.serve_hit(hit);
                let b = vector_twin.serve(&one_hot);
                one_hot[hit] = 0.0;
                prop_assert_eq!(a, b, "n={} step {} ({:?}) hit {} diverged", n, step, plan, hit);
            }
        }
        assert_twins_bit_equal(&hit_twin, &vector_twin, "end of run");
    }
}

/// Deterministic spot-check: on a long single-state hammer, all three
/// policies end far from linear cost while a sitter pays every step.
#[test]
fn all_policies_beat_sitting_under_hammer() {
    let n = 16;
    let hot = 7;
    let tasks: Vec<Vec<f64>> = (0..800)
        .map(|_| {
            let mut v = vec![0.0; n];
            v[hot] = 1.0;
            v
        })
        .collect();
    for kind in [
        PolicyKind::WorkFunction,
        PolicyKind::SminGradient,
        PolicyKind::HstHedge,
    ] {
        let mut p = kind.build(n, hot, 13);
        let c = run_policy(p.as_mut(), &tasks);
        assert!(
            c.total() < 400.0,
            "{} paid {} on an 800-step hammer",
            kind.label(),
            c.total()
        );
    }
}
