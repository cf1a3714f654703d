//! Public announcements: model restriction in the style of public
//! announcement logic.
//!
//! Announcing a true formula `φ` publicly removes every world where `φ`
//! fails; agents' partitions are restricted accordingly. This is the update
//! that drives the muddy-children analysis: the father's announcement and
//! each round of simultaneous "no" answers are public announcements.

use crate::eval::EvalError;
use crate::model::{S5Model, WorldId};
use crate::partition::Partition;
use kbp_logic::Formula;
use std::error::Error;
use std::fmt;

/// Error produced by [`S5Model::announce`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnounceError {
    /// The announced formula could not be evaluated.
    Eval(EvalError),
    /// The announcement holds at no world; the updated model would be
    /// empty (an inconsistent announcement).
    Inconsistent,
}

impl fmt::Display for AnnounceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnnounceError::Eval(e) => write!(f, "cannot evaluate announcement: {e}"),
            AnnounceError::Inconsistent => {
                write!(f, "announcement holds at no world; update would be empty")
            }
        }
    }
}

impl Error for AnnounceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnnounceError::Eval(e) => Some(e),
            AnnounceError::Inconsistent => None,
        }
    }
}

impl From<EvalError> for AnnounceError {
    fn from(e: EvalError) -> Self {
        AnnounceError::Eval(e)
    }
}

/// The result of a public announcement: the restricted model plus the
/// mapping from old world ids to new ones.
#[derive(Debug, Clone)]
pub struct Announcement {
    model: S5Model,
    old_to_new: Vec<Option<WorldId>>,
}

impl Announcement {
    /// The updated (restricted) model.
    #[must_use]
    pub fn model(&self) -> &S5Model {
        &self.model
    }

    /// Consumes the announcement, returning the updated model.
    #[must_use]
    pub fn into_model(self) -> S5Model {
        self.model
    }

    /// Where an old world ended up (`None` if it was eliminated).
    ///
    /// # Panics
    ///
    /// Panics if `old` is out of range for the pre-announcement model.
    #[must_use]
    pub fn map_world(&self, old: WorldId) -> Option<WorldId> {
        self.old_to_new[old.index()]
    }
}

impl S5Model {
    /// Repeats the public announcement of `formula` until it no longer
    /// removes worlds (a fixpoint) or it becomes inconsistent, returning
    /// the final model and the number of effective announcements made.
    ///
    /// Epistemic announcements can be informative several times (each
    /// round changes what is known, re-validating the formula on the
    /// smaller model) — this drives cascades like muddy children, where
    /// "nobody knows their state" is announced round after round.
    ///
    /// # Errors
    ///
    /// Returns [`AnnounceError::Eval`] if the formula cannot be
    /// evaluated. An announcement that holds nowhere *stops* the
    /// iteration (returning the model before it) rather than erroring:
    /// the fixpoint semantics is "announce while truthful somewhere".
    ///
    /// # Example
    ///
    /// ```
    /// use kbp_kripke::S5Model;
    /// use kbp_logic::{Agent, Formula, PropId};
    ///
    /// // Muddy-children cascade on the 3-cube, after the father speaks:
    /// // announcing "nobody knows their own state" stabilises.
    /// let n = 3;
    /// let observes: Vec<Vec<PropId>> = (0..n)
    ///     .map(|i| (0..n).filter(|&j| j != i).map(|j| PropId::new(j as u32)).collect())
    ///     .collect();
    /// let cube = S5Model::hypercube(n, &observes);
    /// let father = Formula::or((0..n).map(|i| Formula::prop(PropId::new(i as u32))));
    /// let model = cube.announce(&father)?.into_model();
    /// let nobody = Formula::and((0..n).map(|i| Formula::not(
    ///     Formula::knows_whether(Agent::new(i), Formula::prop(PropId::new(i as u32))))));
    /// let (stable, rounds) = model.announce_until_fixpoint(&nobody)?;
    /// assert_eq!(rounds, 2);                 // two informative rounds
    /// assert_eq!(stable.world_count(), 1);   // only the all-muddy world resists
    /// # Ok::<(), kbp_kripke::AnnounceError>(())
    /// ```
    pub fn announce_until_fixpoint(
        &self,
        formula: &Formula,
    ) -> Result<(S5Model, usize), AnnounceError> {
        let mut model = self.clone();
        let mut rounds = 0;
        loop {
            let keep = model.satisfying(formula).map_err(AnnounceError::Eval)?;
            let count = keep.count();
            if count == model.world_count() || count == 0 {
                return Ok((model, rounds));
            }
            model = model.announce(formula)?.into_model();
            rounds += 1;
        }
    }

    /// Performs the public announcement of `formula`, returning the
    /// restricted model and the world mapping.
    ///
    /// # Errors
    ///
    /// Returns [`AnnounceError::Eval`] if the formula cannot be evaluated,
    /// or [`AnnounceError::Inconsistent`] if it holds at no world.
    ///
    /// # Example
    ///
    /// ```
    /// use kbp_kripke::S5Builder;
    /// use kbp_logic::{Agent, Formula, PropId};
    ///
    /// let a = Agent::new(0);
    /// let p = PropId::new(0);
    /// let mut b = S5Builder::new(1, 1);
    /// let w0 = b.add_world([p]);
    /// let w1 = b.add_world([]);
    /// b.link(a, w0, w1);
    /// let m = b.build();
    ///
    /// // After announcing p, the agent knows p.
    /// let upd = m.announce(&Formula::prop(p))?;
    /// let w0_new = upd.map_world(w0).expect("w0 survives");
    /// assert!(upd.model().check(w0_new, &Formula::knows(a, Formula::prop(p)))?);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn announce(&self, formula: &Formula) -> Result<Announcement, AnnounceError> {
        let keep = self.satisfying(formula)?;
        if keep.is_empty() {
            return Err(AnnounceError::Inconsistent);
        }
        let mut old_to_new: Vec<Option<WorldId>> = vec![None; self.world_count()];
        let mut new_to_old: Vec<usize> = Vec::with_capacity(keep.count());
        for old in keep.iter() {
            old_to_new[old] = Some(WorldId::new(new_to_old.len()));
            new_to_old.push(old);
        }
        let n_new = new_to_old.len();

        let valuation = (0..self.prop_count())
            .map(|p| {
                let old = self.prop_worlds(kbp_logic::PropId::new(p as u32));
                crate::bitset::BitSet::from_indices(
                    n_new,
                    new_to_old
                        .iter()
                        .enumerate()
                        .filter(|&(_, &o)| old.contains(o))
                        .map(|(i, _)| i),
                )
            })
            .collect();

        let partitions = (0..self.agent_count())
            .map(|a| {
                let p = self.partition(kbp_logic::Agent::new(a));
                Partition::from_index_keys(n_new, |i| p.block_of(new_to_old[i]))
            })
            .collect();

        Ok(Announcement {
            model: S5Model::from_parts(self.prop_count(), valuation, partitions, n_new),
            old_to_new,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::S5Builder;
    use kbp_logic::{Agent, PropId};

    fn p(i: u32) -> Formula {
        Formula::prop(PropId::new(i))
    }

    #[test]
    fn announcement_restricts_worlds() {
        let a = Agent::new(0);
        let mut b = S5Builder::new(1, 1);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([]);
        b.link(a, w0, w1);
        let m = b.build();

        let upd = m.announce(&p(0)).unwrap();
        assert_eq!(upd.model().world_count(), 1);
        assert_eq!(upd.map_world(w0), Some(WorldId::new(0)));
        assert_eq!(upd.map_world(w1), None);
    }

    #[test]
    fn announcement_creates_knowledge() {
        let a = Agent::new(0);
        let mut b = S5Builder::new(1, 1);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([]);
        b.link(a, w0, w1);
        let m = b.build();

        assert!(!m.check(w0, &Formula::knows(a, p(0))).unwrap());
        let upd = m.announce(&p(0)).unwrap();
        let w = upd.map_world(w0).unwrap();
        assert!(upd.model().check(w, &Formula::knows(a, p(0))).unwrap());

        // Two agents, both blind to p: after the announcement p is common
        // knowledge between them.
        let (alice, bob) = (Agent::new(0), Agent::new(1));
        let mut b = S5Builder::new(2, 1);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([]);
        b.link(alice, w0, w1);
        b.link(bob, w0, w1);
        let m = b.build();
        let upd = m.announce(&p(0)).unwrap();
        assert_eq!(upd.model().world_count(), 1);
        let w = upd.map_world(w0).unwrap();
        let common = Formula::common(kbp_logic::AgentSet::all(2), p(0));
        assert!(!m.check(w0, &common).unwrap());
        assert!(upd.model().check(w, &Formula::knows(bob, p(0))).unwrap());
        assert!(upd.model().check(w, &common).unwrap());
    }

    #[test]
    fn inconsistent_announcement_is_error() {
        let mut b = S5Builder::new(1, 1);
        b.add_world([]);
        let m = b.build();
        assert!(matches!(
            m.announce(&p(0)),
            Err(AnnounceError::Inconsistent)
        ));
    }

    #[test]
    fn partitions_are_restricted_consistently() {
        let a = Agent::new(0);
        let mut b = S5Builder::new(1, 2);
        let w0 = b.add_world([PropId::new(0), PropId::new(1)]);
        let w1 = b.add_world([PropId::new(0)]);
        let w2 = b.add_world([PropId::new(1)]);
        b.link(a, w0, w1);
        b.link(a, w1, w2);
        let m = b.build();
        // Announce p0: keeps w0, w1 which stay linked.
        let upd = m.announce(&p(0)).unwrap();
        let n0 = upd.map_world(w0).unwrap();
        let n1 = upd.map_world(w1).unwrap();
        assert!(upd.model().indistinguishable(a, n0, n1));
        // q is not known at n0 (fails at n1).
        assert!(!upd.model().check(n0, &Formula::knows(a, p(1))).unwrap());
    }

    #[test]
    fn fixpoint_iteration_counts_informative_rounds() {
        // Cascade on a 2-agent chain: iterating an ignorance announcement
        // peels worlds until stable.
        let a = Agent::new(0);
        let mut b = S5Builder::new(1, 2);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([PropId::new(0), PropId::new(1)]);
        let w2 = b.add_world([PropId::new(1)]);
        b.link(a, w0, w1);
        b.link(a, w1, w2);
        let m = b.build();
        // "The agent does not know p0": false at no world initially
        // (cells all mixed on p0? w0's cell = all three: p0 fails at w2 →
        // unknown everywhere) — announcing is uninformative; fixpoint in
        // zero rounds.
        let unknown = Formula::not(Formula::knows(a, p(0)));
        let (stable, rounds) = m.announce_until_fixpoint(&unknown).unwrap();
        assert_eq!(rounds, 0);
        assert_eq!(stable.world_count(), 3);
        // "p0 holds": one informative round, then stable.
        let (stable, rounds) = m.announce_until_fixpoint(&p(0)).unwrap();
        assert_eq!(rounds, 1);
        assert_eq!(stable.world_count(), 2);
    }

    #[test]
    fn fixpoint_iteration_stops_before_inconsistency() {
        // Announcing `false` holds nowhere: zero rounds, model unchanged.
        let a = Agent::new(0);
        let mut b = S5Builder::new(1, 1);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([]);
        b.link(a, w0, w1);
        let m = b.build();
        let (stable, rounds) = m.announce_until_fixpoint(&Formula::False).unwrap();
        assert_eq!(rounds, 0);
        assert_eq!(stable.world_count(), 2);
    }

    #[test]
    fn announcing_knowledge_formulas_works() {
        // "Announce that the agent does not know p" — Moore-style updates
        // are the engine of muddy children.
        let a = Agent::new(0);
        let mut b = S5Builder::new(1, 1);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([]);
        b.link(a, w0, w1);
        let m = b.build();
        let unknown = Formula::not(Formula::knows_whether(a, p(0)));
        // Initially the agent doesn't know whether p anywhere.
        assert!(m.holds_everywhere(&unknown).unwrap());
        let upd = m.announce(&unknown).unwrap();
        assert_eq!(upd.model().world_count(), 2);

        // One muddy-children round on the 3-child cube: the father's
        // announcement removes the clean world (8 -> 7), and a public
        // "nobody knows" round removes the one-muddy worlds (7 -> 4).
        let n = 3;
        let observes: Vec<Vec<PropId>> = (0..n)
            .map(|i| (0..n).filter(|&j| j != i).map(PropId::new).collect())
            .collect();
        let cube = S5Model::hypercube(n as usize, &observes);
        assert_eq!(cube.world_count(), 8);
        let father = Formula::or((0..n).map(p));
        let after_father = cube.announce(&father).unwrap().into_model();
        assert_eq!(after_father.world_count(), 7);
        let nobody = Formula::and(
            (0..n).map(|i| Formula::not(Formula::knows_whether(Agent::new(i as usize), p(i)))),
        );
        let after_round = after_father.announce(&nobody).unwrap().into_model();
        assert_eq!(after_round.world_count(), 4);
    }
}
