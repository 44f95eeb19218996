//! The smin-gradient randomized policy (the paper's Appendix-A engine).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use rdbp_smin::{grad_smin_scaled, grad_smin_scaled_into, Distribution, QuantileCoupling};

use serde::{DeError, Deserialize, Serialize, Value};

use crate::policy::{
    coupling_from_value, coupling_to_value, ensure_finite, validate_costs, MtsPolicy,
    PolicyCounters,
};

/// Randomized policy that maintains the distribution
/// `p⁽ᵗ⁾ = ∇smin_c(x⁽ᵗ⁾)` over cumulative state costs `x⁽ᵗ⁾` and plays
/// the quantile-coupled state.
///
/// This is exactly the machinery the paper's hitting game (Section 4.1)
/// runs inside one interval: the scale `c = N−1` (clamped to ≥ 1) makes
/// the distribution drift slowly enough that movement cost stays
/// comparable to hitting cost (Lemma A.3(iv): the L1 drift is at most
/// `(2/c)·pᵀℓ`). It is competitive against a **static** optimum with an
/// additive `c·ln N`; it is *not* competitive against a moving optimum
/// on its own — interval growing (static model) or phase resets /
/// work-function (dynamic model) supply that.
#[derive(Debug)]
pub struct SminGradient {
    x: Vec<f64>,
    scale: f64,
    coupling: QuantileCoupling,
    rng: StdRng,
    /// Scratch: normalized gradient probabilities for the hit fast
    /// path (never part of a snapshot).
    probs: Vec<f64>,
    /// Work counters: serves by task shape (transient, never
    /// snapshotted).
    serves: u64,
    hits: u64,
}

impl SminGradient {
    /// Creates the policy over `num_states` line states.
    ///
    /// `initial` seeds the coupling's starting state by conditioning:
    /// the initial cumulative cost vector is zero, so the initial
    /// distribution is uniform; we override the realized state to
    /// `initial` (cost-free, matching the hitting game's "start at the
    /// center edge" convention).
    ///
    /// # Panics
    /// Panics if `num_states == 0` or `initial >= num_states`.
    #[must_use]
    pub fn new(num_states: usize, initial: usize, seed: u64) -> Self {
        assert!(num_states > 0, "need at least one state");
        assert!(initial < num_states, "initial state out of range");
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Distribution::uniform(num_states);
        // Draw u uniformly inside `initial`'s quantile block of the
        // uniform start distribution: the realized initial state is
        // `initial` by construction, and u stays random *within* the
        // block. Pinning u deterministically (e.g. at the block center)
        // would be a trap: hammering the initial state drains mass
        // symmetrically around that quantile and the realized state
        // would never escape.
        let jitter: f64 = rng.random::<f64>().max(1e-9);
        let u = ((initial as f64 + jitter) / num_states as f64).clamp(1e-12, 1.0 - 1e-12);
        let coupling = QuantileCoupling::with_u(&dist, u);
        debug_assert_eq!(coupling.state(), initial);
        Self {
            x: vec![0.0; num_states],
            scale: ((num_states - 1).max(1)) as f64,
            coupling,
            rng,
            probs: vec![0.0; num_states],
            serves: 0,
            hits: 0,
        }
    }

    /// Current distribution `∇smin_c(x)` (exposed for tests/ablations).
    #[must_use]
    pub fn distribution(&self) -> Distribution {
        Distribution::new(grad_smin_scaled(&self.x, self.scale))
    }

    /// Cumulative cost vector.
    #[must_use]
    pub fn cumulative(&self) -> &[f64] {
        &self.x
    }

    /// Redraws the coupling's randomness from the internal RNG (used by
    /// the hitting game when an interval grows and the state set
    /// changes).
    pub fn resample(&mut self) -> u64 {
        let dist = self.distribution();
        self.coupling.resample(&dist, &mut self.rng)
    }
}

impl MtsPolicy for SminGradient {
    fn num_states(&self) -> usize {
        self.x.len()
    }

    fn state(&self) -> usize {
        self.coupling.state()
    }

    fn serve(&mut self, costs: &[f64]) -> usize {
        validate_costs(costs, self.x.len());
        self.serves += 1;
        crate::vecops::add_assign(&mut self.x, costs);
        let dist = self.distribution();
        self.coupling.follow(&dist);
        self.coupling.state()
    }

    fn serve_hit(&mut self, index: usize) -> usize {
        assert!(index < self.x.len(), "hit index {index} out of range");
        self.hits += 1;
        self.x[index] += 1.0;
        // Allocation-free equivalent of `Distribution::new(grad)` +
        // `follow`: gradient into the scratch, then the same final
        // normalization `Distribution::new` applies, then the raw-slice
        // quantile follow. Bit-identical to the cost-vector path.
        let mut probs = std::mem::take(&mut self.probs);
        grad_smin_scaled_into(&self.x, self.scale, &mut probs);
        let sum: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= sum;
        }
        self.coupling.follow_probs(&probs);
        self.probs = probs;
        self.coupling.state()
    }

    fn name(&self) -> &'static str {
        "smin-gradient"
    }

    fn export_state(&self) -> Option<Value> {
        Some(Value::Obj(vec![
            ("x".into(), self.x.to_value()),
            ("coupling".into(), coupling_to_value(&self.coupling)),
            ("rng".into(), self.rng.to_value()),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let x = <Vec<f64> as Deserialize>::from_value(state.get_field("x")?)?;
        if x.len() != self.x.len() {
            return Err(DeError(format!(
                "cumulative cost arity {} != {}",
                x.len(),
                self.x.len()
            )));
        }
        ensure_finite("x", &x)?;
        self.coupling = coupling_from_value(state.get_field("coupling")?, self.x.len())?;
        self.rng = StdRng::from_value(state.get_field("rng")?)?;
        self.x = x;
        Ok(())
    }

    fn work_counters(&self) -> PolicyCounters {
        PolicyCounters {
            serve_vector: self.serves,
            serve_hit: self.hits,
            coupling_follows: self.coupling.follows(),
            ..PolicyCounters::default()
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
        for init in 0..7 {
            let p = SminGradient::new(7, init, 1);
            assert_eq!(p.state(), init);
        }
    }

    #[test]
    fn restore_rejects_non_finite_cumulative_costs() {
        let mut p = SminGradient::new(9, 4, 3);
        for t in 0..30 {
            p.serve_hit((t * 5) % 9);
        }
        let snap = p.export_state().expect("smin exports state");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let corrupt = crate::policy::tests::with_float(&snap, "x", 2, bad);
            let mut q = SminGradient::new(9, 4, 8);
            let before = q.export_state();
            let err = q.restore_state(&corrupt).expect_err("non-finite entry");
            assert!(err.0.contains("x[2]"), "{}", err.0);
            assert_eq!(
                q.export_state(),
                before,
                "a refused restore changes nothing"
            );
        }
        let mut q = SminGradient::new(9, 4, 8);
        q.restore_state(&snap)
            .expect("the uncorrupted snapshot restores");
    }

    #[test]
    fn mass_drains_from_hammered_state() {
        let n = 9;
        let mut p = SminGradient::new(n, 4, 3);
        let before = p.distribution().prob(4);
        for _ in 0..200 {
            p.serve(&unit(n, 4));
        }
        let after = p.distribution().prob(4);
        assert!(
            after < before / 4.0,
            "mass should drain: {before} -> {after}"
        );
    }

    #[test]
    fn distribution_updates_are_slow_lemma_a3_iv() {
        // One unit of cost changes the distribution by at most
        // (2/c)·p(e) in L1.
        let n = 17;
        let mut p = SminGradient::new(n, 8, 5);
        for step in 0..50 {
            let e = (step * 7) % n;
            let before = p.distribution();
            let pe = before.prob(e);
            p.serve(&unit(n, e));
            let after = p.distribution();
            let drift = before.l1_distance(&after);
            let bound = 2.0 / (n as f64 - 1.0) * pe;
            assert!(
                drift <= bound + 1e-9,
                "step {step}: drift {drift} > bound {bound}"
            );
        }
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let n = 11;
        let run = |seed: u64| {
            let mut p = SminGradient::new(n, 5, seed);
            (0..100)
                .map(|t| p.serve(&unit(n, (t * 3) % n)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn cost_against_static_adversary_is_logarithmic() {
        // Hammer a single state forever: the policy's total cost should
        // be O(c·ln N) ≪ T, because mass escapes the hammered state.
        let n = 33;
        let mut p = SminGradient::new(n, 16, 7);
        let steps = 40 * n;
        let mut total = 0.0;
        for _ in 0..steps {
            let prev = p.state();
            let task = unit(n, 16);
            let next = p.serve(&task);
            total += task[next] + prev.abs_diff(next) as f64;
        }
        let budget = 6.0 * (n as f64) * (n as f64).ln();
        assert!(
            total < budget,
            "smin policy paid {total}, budget {budget} over {steps} steps"
        );
    }

    #[test]
    fn resample_keeps_state_in_range() {
        let n = 15;
        let mut p = SminGradient::new(n, 7, 11);
        for t in 0..30 {
            p.serve(&unit(n, (t * 5) % n));
            p.resample();
            assert!(p.state() < n);
        }
    }
}
