//! Run extraction from bounded generated systems.
//!
//! A *run prefix* of length `T` is a path through the layers: one node per
//! time step, consecutive nodes connected by an edge. Because the builder
//! merges epistemically identical points, a path here may stand for many
//! concrete executions; what it preserves is everything formulas can see.
//!
//! On layers generated through the fused step+quotient path (see
//! [`SystemBuilder::step`]), each node is further a
//! *bisimulation representative* carrying a multiplicity, so a path is a
//! representative run: it stands for every explicit run threading through
//! the corresponding bisimulation classes. Counts and enumerations below
//! are therefore over representatives — the distinctions formulas can
//! observe — not over explicit-equivalent executions.
//!
//! [`SystemBuilder::step`]: crate::SystemBuilder::step

use crate::system::{InterpretedSystem, Point};
use std::fmt;

/// A root-to-horizon path through a generated system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    nodes: Vec<usize>,
}

impl Run {
    /// The point of this run at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` exceeds the run length.
    #[must_use]
    pub fn point(&self, t: usize) -> Point {
        Point {
            time: t,
            node: self.nodes[t],
        }
    }

    /// Length in time steps (number of points minus one).
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The node indices, one per layer.
    #[must_use]
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }
}

impl fmt::Display for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (t, n) in self.nodes.iter().enumerate() {
            if t > 0 {
                write!(f, " → ")?;
            }
            write!(f, "({t},{n})")?;
        }
        Ok(())
    }
}

impl InterpretedSystem {
    /// The number of distinct root-to-horizon paths.
    ///
    /// Counted over deduplicated child edges, so this is the number of
    /// epistemically distinct executions, not raw scheduler choices. On a
    /// system with quotient-generated layers the paths are representative
    /// runs (one per chain of bisimulation classes); multiplicities are
    /// not expanded.
    #[must_use]
    pub fn run_count(&self) -> u128 {
        let last = self.layer_count() - 1;
        // paths[n] = number of paths from node n of the current layer to
        // the horizon; computed backwards.
        let mut paths: Vec<u128> = vec![1; self.layer(last).len()];
        for t in (0..last).rev() {
            let layer = self.layer(t);
            let mut new_paths = vec![0u128; layer.len()];
            for (ni, node) in layer.nodes().iter().enumerate() {
                new_paths[ni] = node.children().iter().map(|&c| paths[c]).sum();
            }
            paths = new_paths;
        }
        paths.iter().sum()
    }

    /// Enumerates runs depth-first, up to `limit` of them.
    #[must_use]
    pub fn runs(&self, limit: usize) -> Vec<Run> {
        let mut out = Vec::new();
        let last = self.layer_count() - 1;
        let mut stack: Vec<Vec<usize>> = (0..self.layer(0).len()).rev().map(|n| vec![n]).collect();
        while let Some(path) = stack.pop() {
            if out.len() >= limit {
                break;
            }
            let t = path.len() - 1;
            if t == last {
                out.push(Run { nodes: path });
                continue;
            }
            let node = &self.layer(t).nodes()[path[t]];
            for &c in node.children().iter().rev() {
                let mut next = path.clone();
                next.push(c);
                stack.push(next);
            }
        }
        out
    }

    /// The lexicographically first run.
    #[must_use]
    pub fn first_run(&self) -> Run {
        let mut nodes = vec![0usize];
        for t in 0..self.layer_count() - 1 {
            let node = &self.layer(t).nodes()[nodes[t]];
            // Non-final layers always have children; stop early defensively
            // if the invariant is ever violated.
            match node.children().first().copied() {
                Some(next) => nodes.push(next),
                None => break,
            }
        }
        Run { nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ActionId, ContextBuilder, EnvActionId};
    use crate::protocol::LocalView;
    use crate::state::{GlobalState, Obs};
    use crate::system::{generate, Recall};
    use kbp_logic::Vocabulary;

    fn coin_context() -> crate::context::FnContext {
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("observer");
        ContextBuilder::new(voc)
            .initial_state(GlobalState::new(vec![0]))
            .agent_actions(a, ["noop"])
            .env_protocol(|_| vec![EnvActionId(0), EnvActionId(1)])
            .transition(|s, j| {
                // Shift the flip into the register so every step doubles
                // the state space (register is a bit-history).
                GlobalState::new(vec![s.reg(0) * 2 + j.env.0])
            })
            .observe(|_, s| Obs(u64::from(s.reg(0))))
            .props(|_, _| false)
            .build()
    }

    #[test]
    fn run_count_matches_enumeration() {
        let ctx = coin_context();
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &noop, Recall::Perfect, 4).unwrap();
        assert_eq!(sys.run_count(), 16);
        assert_eq!(sys.runs(1000).len(), 16);
    }

    #[test]
    fn runs_respect_limit() {
        let ctx = coin_context();
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &noop, Recall::Perfect, 4).unwrap();
        assert_eq!(sys.runs(5).len(), 5);
    }

    #[test]
    fn runs_are_connected_paths() {
        let ctx = coin_context();
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &noop, Recall::Perfect, 3).unwrap();
        for run in sys.runs(100) {
            assert_eq!(run.horizon(), 3);
            for t in 0..3 {
                let node = &sys.layer(t).nodes()[run.nodes()[t]];
                assert!(
                    node.children().contains(&run.nodes()[t + 1]),
                    "run {run} breaks at t={t}"
                );
            }
        }
    }

    #[test]
    fn first_run_is_a_run() {
        let ctx = coin_context();
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &noop, Recall::Perfect, 3).unwrap();
        let first = sys.first_run();
        assert!(sys.runs(1000).contains(&first));
        assert_eq!(first.point(0), Point { time: 0, node: 0 });
    }

    #[test]
    fn deterministic_system_has_one_run() {
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("x");
        let ctx = ContextBuilder::new(voc)
            .initial_state(GlobalState::new(vec![0]))
            .agent_actions(a, ["noop"])
            .transition(|s, _| s.clone())
            .observe(|_, _| Obs(0))
            .props(|_, _| false)
            .build();
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &noop, Recall::Perfect, 5).unwrap();
        assert_eq!(sys.run_count(), 1);
        assert_eq!(sys.runs(10).len(), 1);
    }
}
