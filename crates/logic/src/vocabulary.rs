//! Interning of proposition and agent names.

use crate::agents::Agent;
use crate::formula::PropId;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A symbol table mapping human-readable names to dense [`PropId`] and
/// [`Agent`] indices, and back.
///
/// All formulas in a model should be built against a single vocabulary so
/// that proposition ids are comparable. A vocabulary is append-only: ids
/// never change once assigned.
///
/// # Example
///
/// ```
/// use kbp_logic::Vocabulary;
///
/// let mut voc = Vocabulary::new();
/// let p = voc.add_prop("muddy_1");
/// assert_eq!(voc.add_prop("muddy_1"), p); // idempotent
/// assert_eq!(voc.prop_name(p), "muddy_1");
/// let child = voc.add_agent("child_1");
/// assert_eq!(voc.agent_name(child), "child_1");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Vocabulary {
    prop_names: Vec<String>,
    prop_ids: HashMap<String, PropId>,
    agent_names: Vec<String>,
    agent_ids: HashMap<String, Agent>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a proposition name, returning its id. Idempotent.
    pub fn add_prop(&mut self, name: impl Into<String>) -> PropId {
        let name = name.into();
        if let Some(&id) = self.prop_ids.get(&name) {
            return id;
        }
        let id = PropId::new(self.prop_names.len() as u32);
        self.prop_names.push(name.clone());
        self.prop_ids.insert(name, id);
        id
    }

    /// Interns several proposition names at once.
    pub fn add_props<I, S>(&mut self, names: I) -> Vec<PropId>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        names.into_iter().map(|n| self.add_prop(n)).collect()
    }

    /// Interns an agent name, returning its identity. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if more than [`Agent::MAX_AGENTS`] distinct agents are added.
    pub fn add_agent(&mut self, name: impl Into<String>) -> Agent {
        let name = name.into();
        if let Some(&a) = self.agent_ids.get(&name) {
            return a;
        }
        let a = Agent::new(self.agent_names.len());
        self.agent_names.push(name.clone());
        self.agent_ids.insert(name, a);
        a
    }

    /// Looks up a proposition by name.
    #[must_use]
    pub fn prop(&self, name: &str) -> Option<PropId> {
        self.prop_ids.get(name).copied()
    }

    /// Looks up an agent by name.
    #[must_use]
    pub fn agent(&self, name: &str) -> Option<Agent> {
        self.agent_ids.get(name).copied()
    }

    /// The name of a proposition.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this vocabulary.
    #[must_use]
    pub fn prop_name(&self, id: PropId) -> &str {
        &self.prop_names[id.index()]
    }

    /// The name of an agent.
    ///
    /// # Panics
    ///
    /// Panics if `agent` was not produced by this vocabulary.
    #[must_use]
    pub fn agent_name(&self, agent: Agent) -> &str {
        &self.agent_names[agent.index()]
    }

    /// Number of interned propositions.
    #[must_use]
    pub fn prop_count(&self) -> usize {
        self.prop_names.len()
    }

    /// Number of interned agents.
    #[must_use]
    pub fn agent_count(&self) -> usize {
        self.agent_names.len()
    }

    /// Iterates over all `(PropId, name)` pairs in id order.
    pub fn props(&self) -> impl Iterator<Item = (PropId, &str)> {
        self.prop_names
            .iter()
            .enumerate()
            .map(|(i, n)| (PropId::new(i as u32), n.as_str()))
    }

    /// Iterates over all `(Agent, name)` pairs in id order.
    pub fn agents(&self) -> impl Iterator<Item = (Agent, &str)> {
        self.agent_names
            .iter()
            .enumerate()
            .map(|(i, n)| (Agent::new(i), n.as_str()))
    }

    /// Checks that every proposition and agent used in `formula` is known to
    /// this vocabulary.
    ///
    /// # Errors
    ///
    /// Returns [`VocabularyError`] naming the first out-of-range id found.
    pub fn validate(&self, formula: &crate::Formula) -> Result<(), VocabularyError> {
        for sub in formula.subformulas() {
            if let crate::Formula::Prop(p) = sub {
                if p.index() >= self.prop_count() {
                    return Err(VocabularyError::UnknownProp(*p));
                }
            }
            for a in sub.top_agents() {
                if a.index() >= self.agent_count() {
                    return Err(VocabularyError::UnknownAgent(a));
                }
            }
        }
        Ok(())
    }
}

/// Error returned by [`Vocabulary::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VocabularyError {
    /// A proposition id not produced by this vocabulary.
    UnknownProp(PropId),
    /// An agent id not produced by this vocabulary.
    UnknownAgent(Agent),
}

impl fmt::Display for VocabularyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VocabularyError::UnknownProp(p) => {
                write!(f, "proposition id {} is not in the vocabulary", p.index())
            }
            VocabularyError::UnknownAgent(a) => {
                write!(f, "agent id {} is not in the vocabulary", a.index())
            }
        }
    }
}

impl Error for VocabularyError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Formula;

    #[test]
    fn interning_is_idempotent() {
        let mut voc = Vocabulary::new();
        let p = voc.add_prop("p");
        let q = voc.add_prop("q");
        assert_ne!(p, q);
        assert_eq!(voc.add_prop("p"), p);
        assert_eq!(voc.prop_count(), 2);
    }

    #[test]
    fn lookup_by_name() {
        let mut voc = Vocabulary::new();
        let p = voc.add_prop("p");
        assert_eq!(voc.prop("p"), Some(p));
        assert_eq!(voc.prop("zzz"), None);
        let a = voc.add_agent("alice");
        assert_eq!(voc.agent("alice"), Some(a));
        assert_eq!(voc.agent("bob"), None);
        // Agents are numbered in order of first addition.
        assert_eq!(voc.add_agent("bob"), Agent::new(1));
        assert_eq!(voc.agent("bob"), Some(Agent::new(1)));
    }

    #[test]
    fn iteration_in_id_order() {
        let mut voc = Vocabulary::new();
        voc.add_prop("p");
        voc.add_prop("q");
        let names: Vec<&str> = voc.props().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["p", "q"]);
    }

    #[test]
    fn validate_catches_foreign_ids() {
        let mut voc = Vocabulary::new();
        let p = voc.add_prop("p");
        let a = voc.add_agent("alice");
        let good = Formula::knows(a, Formula::prop(p));
        assert!(voc.validate(&good).is_ok());

        let bad_prop = Formula::prop(PropId::new(99));
        assert_eq!(
            voc.validate(&bad_prop),
            Err(VocabularyError::UnknownProp(PropId::new(99)))
        );

        let bad_agent = Formula::knows(Agent::new(7), Formula::prop(p));
        assert_eq!(
            voc.validate(&bad_agent),
            Err(VocabularyError::UnknownAgent(Agent::new(7)))
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = VocabularyError::UnknownProp(PropId::new(3));
        assert!(e.to_string().contains("3"));
    }
}
