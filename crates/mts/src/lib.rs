//! Metrical task systems (MTS) on the line: online policies and exact
//! offline optima.
//!
//! Section 3 of the paper reduces dynamic balanced ring partitioning to
//! independent MTS instances on line metrics (one per interval, states =
//! the interval's edges, unit cost on the requested edge). Theorem 2.1
//! only needs *some* α(k)-competitive MTS black box; this crate provides
//! three interchangeable ones plus the exact offline optimum:
//!
//! * [`WorkFunction`] — the deterministic work-function algorithm of
//!   Borodin, Linial & Saks \[21\], (2N−1)-competitive on any metric,
//!   here specialized to the line with O(N)-per-task sweeps.
//! * [`SminGradient`] — the paper's own Appendix-A machinery as a
//!   policy: play state `F⁻¹_p(u)` for `p = ∇smin_c(x)` over cumulative
//!   costs `x`, with inverse-CDF coupling (competitive against a
//!   *static* optimum; it is the engine of the Section 4.1 hitting
//!   game).
//! * [`HstHedge`] — a randomized hierarchical multiplicative-weights
//!   policy over a flat arena hierarchy (branching ≤ 4) with per-family
//!   phase resets; the documented substitution for the
//!   Bubeck–Cohen–Lee–Lee O(log²N) MTS algorithm \[25\] (see DESIGN.md
//!   §§1, 14).
//! * [`Marking`] — the classic randomized marking/phase policy for the
//!   *uniform* metric, used for comparisons and inside tests.
//! * [`offline`] — exact dynamic-programming optimum for line MTS
//!   (O(N) per task), with optional trajectory reconstruction; this is
//!   the `OPT_MTS(I)` of Lemma 3.3.
//!
//! All randomized policies draw from seeded RNGs and realize concrete
//! states through [`rdbp_smin::QuantileCoupling`], so expected movement
//! equals the Wasserstein drift of their distributions.

mod hst;
mod marking;
pub mod offline;
mod policy;
mod smin_policy;
mod vecops;
mod workfn;

pub use hst::{HstHedge, HstTopology};
pub use marking::Marking;
pub use policy::{run_policy, MtsCosts, MtsPolicy, PolicyCounters, PolicyKind};
pub use smin_policy::SminGradient;
pub use workfn::WorkFunction;
