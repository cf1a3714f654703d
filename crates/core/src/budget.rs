//! Resource budgets and graceful degradation for the solvers.
//!
//! A [`Budget`] bounds what a solve may consume — wall-clock time, frontier
//! width, guard evaluations, approximate memory — and
//! [`SyncSolver::solve_budgeted`](crate::SyncSolver::solve_budgeted)
//! honours it by returning a structured
//! [`PartialSolution`](crate::PartialSolution) instead of dying: the layers
//! induced before exhaustion, the protocol entries derived so far, and a
//! typed [`BudgetExhausted`] diagnosis saying which resource ran out and
//! where. Nothing already computed is lost, which is what lets a caller
//! retry with a larger budget, a coarser fault model, or a shorter
//! horizon.

use std::fmt;
use std::time::{Duration, Instant};

/// The resource whose budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The wall-clock deadline passed.
    Deadline,
    /// A frontier layer exceeded the per-layer point cap.
    LayerPoints,
    /// The total guard-evaluation cap was reached.
    GuardEvaluations,
    /// The approximate memory ceiling was crossed.
    Memory,
    /// The unrolling's node limit was hit.
    Nodes,
    /// The enumerator's branch cap was reached.
    Branches,
    /// The enumerator found its requested number of solutions.
    Solutions,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Resource::Deadline => "wall-clock deadline",
            Resource::LayerPoints => "points per layer",
            Resource::GuardEvaluations => "guard evaluations",
            Resource::Memory => "approximate memory",
            Resource::Nodes => "total nodes",
            Resource::Branches => "search branches",
            Resource::Solutions => "requested solutions",
        };
        f.write_str(name)
    }
}

/// Typed diagnosis of budget exhaustion: which [`Resource`] ran out, and
/// at which layer the induction stopped.
///
/// Layers `0 .. at_layer` of the accompanying
/// [`PartialSolution`](crate::PartialSolution) are fully induced: their
/// guards were evaluated and their protocol entries recorded. The
/// generated system may additionally contain layer `at_layer` itself when
/// it was built before the budget check fired (it is then present but not
/// induced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// The exhausted resource.
    pub resource: Resource,
    /// The first layer that was *not* induced.
    pub at_layer: usize,
}

impl fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget exhausted ({}) before layer {}",
            self.resource, self.at_layer
        )
    }
}

/// Per-layer solving statistics, recorded by the budgeted solver for every
/// induced layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerStats {
    /// The layer index (time step).
    pub layer: usize,
    /// Points in the layer, counted in *explicit-equivalent* worlds: on a
    /// layer generated by the fused step+quotient path this is the width
    /// an explicit unrolling would have had (the sum of class
    /// multiplicities), not the number of resident representatives — so
    /// the field keeps one meaning across generation modes.
    pub points: usize,
    /// Guard evaluations charged while inducing this layer.
    pub guard_evaluations: usize,
    /// Protocol entries added while inducing this layer.
    pub protocol_entries: usize,
    /// Always `1`: world-range kernel sharding is gone. Inert; kept only
    /// while the `kbpbench` benchmark names it.
    pub shards: usize,
    /// Representatives resident in the layer when it was generated by the
    /// fused step+quotient path; `0` when the layer was generated
    /// explicitly.
    pub gen_quotient_worlds: usize,
    /// Compression ratio of the generation quotient in per-mille
    /// (`gen_quotient_worlds * 1000 / points`, rounded down); `0` when
    /// the layer was generated explicitly.
    pub gen_quotient_ratio: u32,
}

/// A resource budget for [`SyncSolver`](crate::SyncSolver): every field is
/// optional; an empty budget never degrades.
///
/// # Example
///
/// ```
/// use kbp_core::Budget;
/// use std::time::Duration;
///
/// let b = Budget::new()
///     .deadline(Duration::from_secs(5))
///     .max_layer_points(10_000)
///     .max_guard_evaluations(1_000_000);
/// assert!(b.is_bounded());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock allowance measured from the start of the solve.
    pub deadline: Option<Duration>,
    /// Maximum points a single frontier layer may hold before induction
    /// stops, counted in explicit-equivalent worlds (see
    /// [`LayerStats::points`]) — the cap means the same thing whether or
    /// not the fused generation path is active.
    pub max_layer_points: Option<usize>,
    /// Maximum total guard evaluations across all layers.
    pub max_guard_evaluations: Option<usize>,
    /// Approximate memory ceiling in bytes (coarse estimate of point and
    /// partition storage; not an allocator measurement). Like
    /// `max_layer_points` this is accounted in explicit-equivalent
    /// points, so it bounds the *semantic size* of the solve — a fused
    /// solve's resident footprint is smaller than the estimate.
    pub max_memory_bytes: Option<usize>,
}

impl Budget {
    /// An unbounded budget.
    #[must_use]
    pub fn new() -> Self {
        Budget::default()
    }

    /// Sets the wall-clock allowance.
    #[must_use]
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets the per-layer point cap.
    #[must_use]
    pub fn max_layer_points(mut self, n: usize) -> Self {
        self.max_layer_points = Some(n);
        self
    }

    /// Sets the total guard-evaluation cap.
    #[must_use]
    pub fn max_guard_evaluations(mut self, n: usize) -> Self {
        self.max_guard_evaluations = Some(n);
        self
    }

    /// Sets the approximate memory ceiling in bytes.
    #[must_use]
    pub fn max_memory_bytes(mut self, n: usize) -> Self {
        self.max_memory_bytes = Some(n);
        self
    }

    /// Whether any bound is set.
    #[must_use]
    pub fn is_bounded(&self) -> bool {
        self.deadline.is_some()
            || self.max_layer_points.is_some()
            || self.max_guard_evaluations.is_some()
            || self.max_memory_bytes.is_some()
    }

    /// Checks every bound against the solver's running totals; returns the
    /// first exhausted resource, if any. `frontier_points` is the size of
    /// the layer about to be induced (`at_layer`), `guard_evaluations` the
    /// running total, and `total_points` the points across all generated
    /// layers (for the memory estimate).
    #[must_use]
    pub(crate) fn exhausted(
        &self,
        started: Instant,
        at_layer: usize,
        frontier_points: usize,
        guard_evaluations: usize,
        total_points: usize,
        agents: usize,
    ) -> Option<BudgetExhausted> {
        let hit = |resource| Some(BudgetExhausted { resource, at_layer });
        if let Some(d) = self.deadline {
            if started.elapsed() >= d {
                return hit(Resource::Deadline);
            }
        }
        if let Some(cap) = self.max_layer_points {
            if frontier_points > cap {
                return hit(Resource::LayerPoints);
            }
        }
        if let Some(cap) = self.max_guard_evaluations {
            if guard_evaluations >= cap {
                return hit(Resource::GuardEvaluations);
            }
        }
        if let Some(cap) = self.max_memory_bytes {
            if approx_memory_bytes(total_points, agents) > cap {
                return hit(Resource::Memory);
            }
        }
        None
    }
}

/// Coarse estimate of the memory held by `total_points` generated points:
/// per-point locals (4 bytes per agent) plus parent/edge/model
/// bookkeeping. Deliberately a cheap lower-bound model, not an allocator
/// measurement — budgets using it should leave headroom.
#[must_use]
pub fn approx_memory_bytes(total_points: usize, agents: usize) -> usize {
    total_points * (48 + 4 * agents)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_budget_never_exhausts() {
        let b = Budget::new();
        assert!(!b.is_bounded());
        assert_eq!(
            b.exhausted(Instant::now(), 3, 1_000_000, 1_000_000, 1_000_000, 8),
            None
        );
    }

    #[test]
    fn caps_trigger_in_order() {
        let now = Instant::now();
        let b = Budget::new().max_layer_points(10).max_guard_evaluations(5);
        // Layer cap checked before guard cap.
        assert_eq!(
            b.exhausted(now, 2, 11, 9, 11, 1),
            Some(BudgetExhausted {
                resource: Resource::LayerPoints,
                at_layer: 2
            })
        );
        assert_eq!(
            b.exhausted(now, 2, 10, 5, 10, 1),
            Some(BudgetExhausted {
                resource: Resource::GuardEvaluations,
                at_layer: 2
            })
        );
        assert_eq!(b.exhausted(now, 2, 10, 4, 10, 1), None);
    }

    #[test]
    fn zero_deadline_exhausts_immediately() {
        let b = Budget::new().deadline(Duration::ZERO);
        assert_eq!(
            b.exhausted(Instant::now(), 0, 1, 0, 1, 1)
                .map(|e| e.resource),
            Some(Resource::Deadline)
        );
    }

    #[test]
    fn memory_estimate_is_monotone() {
        assert!(approx_memory_bytes(100, 2) < approx_memory_bytes(200, 2));
        assert!(approx_memory_bytes(100, 2) < approx_memory_bytes(100, 8));
        let b = Budget::new().max_memory_bytes(1);
        assert_eq!(
            b.exhausted(Instant::now(), 1, 1, 0, 100, 2)
                .map(|e| e.resource),
            Some(Resource::Memory)
        );
    }
}
