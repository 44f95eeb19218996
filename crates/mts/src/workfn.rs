//! The deterministic work-function algorithm on the line.

use serde::{DeError, Deserialize, Serialize, Value};

use crate::policy::{ensure_finite, validate_costs, MtsPolicy, PolicyCounters};

/// Work-function algorithm (Borodin–Linial–Saks \[21\]), specialized to
/// the line metric.
///
/// The work function after `t` tasks is
/// `w_t(x) = min_y ( w_{t-1}(y) + T_t(y) + d(y, x) )` — the cheapest way
/// to have served all tasks and end in state `x`. On a line the min-plus
/// convolution with `d(y,x) = |y−x|` is two linear sweeps, so each task
/// costs O(N).
///
/// After updating, the algorithm moves to the state minimizing
/// `w_t(x) + d(x, s_{t-1})`, breaking ties toward staying put and then
/// toward the lower index. This is (2N−1)-competitive against the
/// *dynamic* offline optimum on any metric — the conservative
/// instantiation of the paper's MTS black box.
#[derive(Debug, Clone)]
pub struct WorkFunction {
    w: Vec<f64>,
    state: usize,
    scratch: Vec<f64>,
    /// Work counters: serves by task shape (transient, never
    /// snapshotted).
    serves: u64,
    hits: u64,
}

impl WorkFunction {
    /// Creates the algorithm on `num_states` line states, starting at
    /// `initial` (work function initialized to `d(initial, ·)`).
    ///
    /// # Panics
    /// Panics if `num_states == 0` or `initial >= num_states`.
    #[must_use]
    pub fn new(num_states: usize, initial: usize) -> Self {
        assert!(num_states > 0, "need at least one state");
        assert!(initial < num_states, "initial state out of range");
        let w = (0..num_states)
            .map(|x| x.abs_diff(initial) as f64)
            .collect();
        Self {
            w,
            state: initial,
            scratch: vec![0.0; num_states],
            serves: 0,
            hits: 0,
        }
    }

    /// Read-only view of the current work function (used by tests and
    /// the well-behaved-strategy analysis).
    #[must_use]
    pub fn work_function(&self) -> &[f64] {
        &self.w
    }

    /// Shared tail of `serve`/`serve_hit`: min-plus convolve the
    /// prepared `scratch` (= `w_{t-1} + T_t`) with the line metric and
    /// move to the best state.
    fn settle(&mut self) -> usize {
        let n = self.w.len();
        // Forward: w_t(x) = min(w_t(x-1) + 1, tmp(x)).
        let mut best = f64::INFINITY;
        for x in 0..n {
            best = (best + 1.0).min(self.scratch[x]);
            self.w[x] = best;
        }
        // Backward: w_t(x) = min(w_t(x), w_t(x+1) + 1).
        let mut best = f64::INFINITY;
        for x in (0..n).rev() {
            best = (best + 1.0).min(self.w[x]);
            self.w[x] = best;
        }

        // Move to argmin_x w_t(x) + d(x, s_prev). Tie-breaking matters:
        // among minimizers, prefer the *smaller work-function value*
        // (the retrospectively cheaper state). Without this rule the
        // algorithm can sit in a saturated state forever, paying every
        // request, because w stops changing once neighbours cap it.
        let prev = self.state;
        let mut best_x = prev;
        let mut best_v = self.w[prev];
        let mut best_w = self.w[prev];
        for (x, &wx) in self.w.iter().enumerate() {
            let v = wx + x.abs_diff(prev) as f64;
            if v + 1e-9 < best_v || (v < best_v + 1e-9 && wx + 1e-9 < best_w) {
                best_v = v;
                best_x = x;
                best_w = wx;
            }
        }
        self.state = best_x;
        best_x
    }
}

impl MtsPolicy for WorkFunction {
    fn num_states(&self) -> usize {
        self.w.len()
    }

    fn state(&self) -> usize {
        self.state
    }

    fn serve(&mut self, costs: &[f64]) -> usize {
        validate_costs(costs, self.w.len());
        self.serves += 1;
        // tmp(y) = w_{t-1}(y) + T_t(y); then min-plus with |y − x| via a
        // forward and a backward sweep (in `settle`).
        crate::vecops::sum_into(&mut self.scratch, &self.w, costs);
        self.settle()
    }

    fn serve_hit(&mut self, index: usize) -> usize {
        assert!(index < self.w.len(), "hit index {index} out of range");
        self.hits += 1;
        // One-hot task: tmp = w except tmp(index) = w(index) + 1.
        self.scratch.copy_from_slice(&self.w);
        self.scratch[index] += 1.0;
        self.settle()
    }

    fn name(&self) -> &'static str {
        "work-function"
    }

    fn export_state(&self) -> Option<Value> {
        Some(Value::Obj(vec![
            ("w".into(), self.w.to_value()),
            ("state".into(), self.state.to_value()),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let w = <Vec<f64> as Deserialize>::from_value(state.get_field("w")?)?;
        let s = usize::from_value(state.get_field("state")?)?;
        if w.len() != self.w.len() {
            return Err(DeError(format!(
                "work function arity {} != {}",
                w.len(),
                self.w.len()
            )));
        }
        if s >= self.w.len() {
            return Err(DeError(format!("state {s} out of range")));
        }
        ensure_finite("w", &w)?;
        self.w = w;
        self.state = s;
        Ok(())
    }

    fn work_counters(&self) -> PolicyCounters {
        PolicyCounters {
            serve_vector: self.serves,
            serve_hit: self.hits,
            ..PolicyCounters::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::run_policy;

    fn unit(n: usize, i: usize) -> Vec<f64> {
        let mut v = vec![0.0; n];
        v[i] = 1.0;
        v
    }

    #[test]
    fn initial_work_function_is_distance() {
        let wfa = WorkFunction::new(5, 2);
        assert_eq!(wfa.work_function(), &[2.0, 1.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn stays_put_when_cost_is_elsewhere() {
        let mut wfa = WorkFunction::new(5, 2);
        let s = wfa.serve(&unit(5, 0));
        assert_eq!(s, 2, "no reason to move when another state is hit");
    }

    #[test]
    fn eventually_flees_a_hammered_state() {
        let mut wfa = WorkFunction::new(5, 2);
        let mut moved = false;
        for _ in 0..20 {
            if wfa.serve(&unit(5, 2)) != 2 {
                moved = true;
                break;
            }
        }
        assert!(moved, "WFA must leave a state with unbounded cost");
    }

    #[test]
    fn work_function_is_one_lipschitz() {
        // |w(x) − w(x+1)| ≤ 1 always holds for line work functions.
        let mut wfa = WorkFunction::new(9, 4);
        for i in [0usize, 3, 3, 8, 4, 4, 4, 1] {
            wfa.serve(&unit(9, i));
            for pair in wfa.work_function().windows(2) {
                assert!((pair[0] - pair[1]).abs() <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn chasing_adversary_respects_wfa_guarantee() {
        // WFA is deterministic, so the adaptive position-chaser is a
        // legitimate adversary. Record the chased sequence and compare
        // against the exact offline optimum: cost ≤ (2N−1)·OPT + O(N).
        let n = 16;
        let mut wfa = WorkFunction::new(n, n / 2);
        let mut total = 0.0;
        let steps = 40 * n;
        let mut tasks = Vec::with_capacity(steps);
        for _ in 0..steps {
            let cur = wfa.state();
            let task = unit(n, cur);
            let next = wfa.serve(&task);
            total += task[next] + cur.abs_diff(next) as f64;
            tasks.push(task);
        }
        let opt = crate::offline::optimum(n, n / 2, &tasks);
        let bound = (2 * n - 1) as f64 * opt + 2.0 * n as f64;
        assert!(total <= bound, "WFA paid {total}, opt {opt}, bound {bound}");
    }

    #[test]
    fn run_policy_integrates() {
        // Hammering the start state: WFA pays a couple of hits, then
        // sidesteps once and parks — total far below the horizon.
        let mut wfa = WorkFunction::new(4, 0);
        let tasks: Vec<Vec<f64>> = (0..10).map(|_| unit(4, 0)).collect();
        let c = run_policy(&mut wfa, &tasks);
        assert!(c.total() > 0.0);
        assert!(c.total() < 10.0);
    }

    #[test]
    fn restore_rejects_non_finite_work_function() {
        let mut wfa = WorkFunction::new(6, 2);
        for t in 0..20 {
            wfa.serve_hit((t * 5) % 6);
        }
        let snap = wfa.export_state().expect("wfa exports state");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let corrupt = crate::policy::tests::with_float(&snap, "w", 4, bad);
            let mut q = WorkFunction::new(6, 2);
            let before = q.export_state();
            let err = q.restore_state(&corrupt).expect_err("non-finite entry");
            assert!(err.0.contains("w[4]"), "{}", err.0);
            assert_eq!(
                q.export_state(),
                before,
                "a refused restore changes nothing"
            );
        }
        let mut q = WorkFunction::new(6, 2);
        q.restore_state(&snap)
            .expect("the uncorrupted snapshot restores");
    }

    #[test]
    #[should_panic(expected = "initial state out of range")]
    fn rejects_bad_initial() {
        let _ = WorkFunction::new(3, 3);
    }
}
