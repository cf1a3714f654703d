//! Stock model constructions: ignorance hypercubes and generated
//! submodels.

use crate::eval::EvalError;
use crate::model::{S5Builder, S5Model, WorldId};
use kbp_logic::{Agent, AgentSet, PropId};

impl S5Model {
    /// The *ignorance hypercube* over `n` propositions and `agents`
    /// agents: worlds are all `2^n` valuations; agent `i` observes exactly
    /// the propositions in `observes[i]` and is ignorant of the rest
    /// (its partition groups worlds agreeing on its observed set).
    ///
    /// This is the initial model of most epistemic puzzles: muddy
    /// children is the cube where child `i` observes every proposition
    /// except its own.
    ///
    /// # Panics
    ///
    /// Panics if `n > 20` (world count `2^n`) or `observes.len()` differs
    /// from the intended agent count.
    ///
    /// # Example
    ///
    /// ```
    /// use kbp_kripke::S5Model;
    /// use kbp_logic::{Agent, Formula, PropId};
    ///
    /// // Two props; agent 0 sees prop 0 only.
    /// let m = S5Model::hypercube(2, &[vec![PropId::new(0)]]);
    /// assert_eq!(m.world_count(), 4);
    /// let knows_own = Formula::knows_whether(Agent::new(0), Formula::prop(PropId::new(0)));
    /// let knows_other = Formula::knows_whether(Agent::new(0), Formula::prop(PropId::new(1)));
    /// assert!(m.holds_everywhere(&knows_own)?);
    /// assert!(!m.satisfying(&knows_other)?.iter().next().is_some());
    /// # Ok::<(), kbp_kripke::EvalError>(())
    /// ```
    #[must_use]
    pub fn hypercube(n: usize, observes: &[Vec<PropId>]) -> S5Model {
        assert!(n <= 20, "hypercube too large (2^{n} worlds)");
        let mut b = S5Builder::new(observes.len(), n);
        for mask in 0u32..(1 << n) {
            let props = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| PropId::new(i as u32));
            b.add_world(props);
        }
        for (i, seen) in observes.iter().enumerate() {
            let seen_mask: u32 = seen.iter().map(|p| 1u32 << p.index()).sum();
            b.partition_by_key(Agent::new(i), move |w: WorldId| {
                (w.index() as u32) & seen_mask
            });
        }
        b.build()
    }

    /// The submodel *generated* by `world` for `group`: the restriction
    /// to the worlds `group` can jointly reach (the `group`-connected
    /// component). Truth of formulas whose modalities only mention agents
    /// in `group` is invariant under this restriction.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::EmptyGroup`] or
    /// [`EvalError::AgentOutOfRange`] on misuse.
    ///
    /// # Panics
    ///
    /// Panics if `world` is out of range.
    ///
    /// # Example
    ///
    /// ```
    /// use kbp_kripke::{S5Builder, S5Model};
    /// use kbp_logic::{Agent, AgentSet, PropId};
    ///
    /// let a = Agent::new(0);
    /// let mut b = S5Builder::new(1, 1);
    /// let w0 = b.add_world([PropId::new(0)]);
    /// let w1 = b.add_world([]);
    /// let w2 = b.add_world([]); // disconnected from w0
    /// b.link(a, w0, w1);
    /// let m = b.build();
    /// let (sub, new_w0) = m.generated_submodel(w0, AgentSet::singleton(a))?;
    /// assert_eq!(sub.world_count(), 2);
    /// assert!(sub.prop_holds(new_w0, PropId::new(0)));
    /// # Ok::<(), kbp_kripke::EvalError>(())
    /// ```
    pub fn generated_submodel(
        &self,
        world: WorldId,
        group: AgentSet,
    ) -> Result<(S5Model, WorldId), EvalError> {
        let component = self.group_join(group)?;
        let block = component.block_of(world.index());
        let members: Vec<usize> = component.block(block).iter().map(|&w| w as usize).collect();
        // `world` is in its own block, so the search always succeeds.
        let new_world = members
            .binary_search(&world.index())
            .map_err(|_| EvalError::Internal("generated world missing from its own component"))?;
        let mut b = S5Builder::new(self.agent_count(), self.prop_count());
        for &w in &members {
            let props = (0..self.prop_count())
                .map(|p| PropId::new(p as u32))
                .filter(|&p| self.prop_holds(WorldId::new(w), p));
            b.add_world(props);
        }
        for i in 0..self.agent_count() {
            let agent = Agent::new(i);
            let part = self.partition(agent).clone();
            let members = members.clone();
            b.partition_by_index_key(agent, move |w: WorldId| part.block_of(members[w.index()]));
        }
        Ok((b.build(), WorldId::new(new_world)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbp_logic::Formula;

    fn p(i: u32) -> Formula {
        Formula::prop(PropId::new(i))
    }

    #[test]
    fn hypercube_shape() {
        let m = S5Model::hypercube(3, &[vec![PropId::new(0), PropId::new(1)], vec![]]);
        assert_eq!(m.world_count(), 8);
        // Agent 0: 4 cells of 2 (ignorant only of prop 2).
        assert_eq!(m.partition(Agent::new(0)).block_count(), 4);
        // Agent 1: sees nothing — one big cell.
        assert_eq!(m.partition(Agent::new(1)).block_count(), 1);
    }

    #[test]
    fn muddy_cube_matches_scenario_convention() {
        // Child i observes everyone else's prop.
        let n = 3;
        let observes: Vec<Vec<PropId>> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| PropId::new(j as u32))
                    .collect()
            })
            .collect();
        let m = S5Model::hypercube(n, &observes);
        // Child 0's cells pair worlds differing only in prop 0.
        let w_all = WorldId::new(0b111);
        let w_rest = WorldId::new(0b110);
        assert!(m.indistinguishable(Agent::new(0), w_all, w_rest));
        assert!(!m.indistinguishable(Agent::new(0), w_all, WorldId::new(0b101)));
    }

    #[test]
    fn generated_submodel_preserves_group_formulas() {
        let a = Agent::new(0);
        let b_ag = Agent::new(1);
        let mut b = S5Builder::new(2, 1);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([]);
        let w2 = b.add_world([PropId::new(0)]);
        b.link(a, w0, w1);
        b.link(b_ag, w1, w2);
        let m = b.build();

        // Restrict to agent 0's reachability from w0: {w0, w1}.
        let (sub, nw0) = m.generated_submodel(w0, AgentSet::singleton(a)).unwrap();
        assert_eq!(sub.world_count(), 2);
        for f in [
            Formula::knows(a, p(0)),
            Formula::not(Formula::knows(a, p(0))),
            Formula::knows(a, Formula::not(Formula::knows(a, p(0)))),
        ] {
            assert_eq!(
                m.check(w0, &f).unwrap(),
                sub.check(nw0, &f).unwrap(),
                "disagree on {f}"
            );
        }

        // The full group reaches everything: identity restriction.
        let (all, _) = m
            .generated_submodel(w0, kbp_logic::AgentSet::all(2))
            .unwrap();
        assert_eq!(all.world_count(), 3);
    }

    #[test]
    fn disconnected_worlds_are_dropped() {
        let a = Agent::new(0);
        let mut b = S5Builder::new(1, 0);
        let w0 = b.add_world([]);
        let _w1 = b.add_world([]);
        let m = b.build();
        let (sub, nw0) = m.generated_submodel(w0, AgentSet::singleton(a)).unwrap();
        assert_eq!(sub.world_count(), 1);
        assert_eq!(nw0, WorldId::new(0));
    }
}
