//! Global states, observations, and interning tables.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// A global state of the environment-plus-agents system.
///
/// Represented as a small vector of `u32` registers whose meaning is fixed
/// by the [`Context`](crate::Context) that produces it (e.g. register 0 =
/// the hidden bit, register 1 = messages in flight). Contexts encode and
/// decode; the framework only clones, hashes and compares.
///
/// # Example
///
/// ```
/// use kbp_systems::GlobalState;
///
/// let s = GlobalState::new(vec![1, 0, 3]);
/// assert_eq!(s.reg(2), 3);
/// let t = s.with_reg(2, 4);
/// assert_eq!(t.regs(), &[1, 0, 4]);
/// assert_eq!(s.reg(2), 3); // original untouched
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalState(Vec<u32>);

impl GlobalState {
    /// Creates a state from raw registers.
    #[must_use]
    pub fn new(regs: Vec<u32>) -> Self {
        GlobalState(regs)
    }

    /// The raw registers.
    #[must_use]
    pub fn regs(&self) -> &[u32] {
        &self.0
    }

    /// Register `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn reg(&self, i: usize) -> u32 {
        self.0[i]
    }

    /// A copy of this state with register `i` replaced by `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn with_reg(&self, i: usize, value: u32) -> GlobalState {
        let mut regs = self.0.clone();
        regs[i] = value;
        GlobalState(regs)
    }

    /// Number of registers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the state has no registers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<Vec<u32>> for GlobalState {
    fn from(regs: Vec<u32>) -> Self {
        GlobalState(regs)
    }
}

impl fmt::Display for GlobalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (k, r) in self.0.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "⟩")
    }
}

/// What an agent sees of a global state at one instant.
///
/// An opaque 64-bit code; contexts choose the encoding. Equal codes mean
/// "indistinguishable at this instant".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Obs(pub u64);

impl fmt::Display for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obs:{}", self.0)
    }
}

/// Dense id of an interned [`GlobalState`] within a generated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// The dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Interns [`GlobalState`]s into dense [`StateId`]s.
#[derive(Debug, Clone, Default)]
pub struct StateTable {
    states: Vec<GlobalState>,
    ids: HashMap<GlobalState, StateId>,
}

impl StateTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a state, returning its id, in one probe. Idempotent; only
    /// a state seen for the first time is cloned.
    pub fn intern(&mut self, state: GlobalState) -> StateId {
        match self.ids.entry(state) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(v) => {
                let id = StateId(self.states.len() as u32);
                self.states.push(v.key().clone());
                *v.insert(id)
            }
        }
    }

    /// The state for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    #[must_use]
    pub fn state(&self, id: StateId) -> &GlobalState {
        &self.states[id.index()]
    }

    /// Number of interned states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// Dense id of an interned local state (per agent, within one generated
/// system).
///
/// With perfect recall a local state is an observation *history*; with
/// observational semantics it is a single observation. Either way it is
/// interned to an id; resolve it back through
/// [`InterpretedSystem::local_view`](crate::InterpretedSystem::local_view).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalId(pub(crate) u32);

impl LocalId {
    /// The dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a raw local-state id. Meaningful ids come from a generated
    /// system; this constructor exists so external explorers can fill
    /// error-report fields.
    #[must_use]
    pub fn from_raw(raw: u32) -> Self {
        LocalId(raw)
    }
}

impl fmt::Display for LocalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Interns local states for one agent.
///
/// Entries form a forest: a local state is either an initial observation or
/// a `(parent, observation)` extension. Observational semantics simply
/// always uses initial entries.
#[derive(Debug, Clone, Default)]
pub struct LocalTable {
    entries: Vec<(Option<LocalId>, Obs)>,
    ids: HashMap<(Option<LocalId>, Obs), LocalId>,
}

impl LocalTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a root local state (initial observation, or the whole local
    /// state under observational semantics).
    pub fn intern_root(&mut self, obs: Obs) -> LocalId {
        self.intern(None, obs)
    }

    /// Interns the extension of `parent` by one more observation.
    pub fn intern_child(&mut self, parent: LocalId, obs: Obs) -> LocalId {
        self.intern(Some(parent), obs)
    }

    fn intern(&mut self, parent: Option<LocalId>, obs: Obs) -> LocalId {
        match self.ids.entry((parent, obs)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(v) => {
                let id = LocalId(self.entries.len() as u32);
                self.entries.push(*v.key());
                *v.insert(id)
            }
        }
    }

    /// The id of the root (`parent` `None`) or extension already interned
    /// for `obs`, without interning it.
    pub(crate) fn find(&self, parent: Option<LocalId>, obs: Obs) -> Option<LocalId> {
        self.ids.get(&(parent, obs)).copied()
    }

    /// The id of the local state with observation history `history`
    /// (oldest first), if it has been interned. An empty history names
    /// no local state.
    pub(crate) fn lookup(&self, history: &[Obs]) -> Option<LocalId> {
        let (&first, rest) = history.split_first()?;
        rest.iter()
            .try_fold(self.find(None, first)?, |id, &obs| self.find(Some(id), obs))
    }

    /// The `(parent, observation)` pair local state `id` was interned as.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub(crate) fn entry(&self, id: LocalId) -> (Option<LocalId>, Obs) {
        self.entries[id.index()]
    }

    /// The observation history of a local state, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    #[must_use]
    pub fn history(&self, id: LocalId) -> Vec<Obs> {
        let mut rev = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let (parent, obs) = self.entries[c.index()];
            rev.push(obs);
            cur = parent;
        }
        rev.reverse();
        rev
    }

    /// The most recent observation of a local state.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    #[must_use]
    pub fn last_obs(&self, id: LocalId) -> Obs {
        self.entries[id.index()].1
    }

    /// Number of interned local states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_table_interning_is_idempotent() {
        let mut t = StateTable::new();
        let a = t.intern(GlobalState::new(vec![1, 2]));
        let b = t.intern(GlobalState::new(vec![1, 2]));
        let c = t.intern(GlobalState::new(vec![2, 1]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.len(), 2);
        assert_eq!(t.state(c).regs(), &[2, 1]);
    }

    #[test]
    fn local_table_builds_histories() {
        let mut t = LocalTable::new();
        let root = t.intern_root(Obs(7));
        let step1 = t.intern_child(root, Obs(8));
        let step2 = t.intern_child(step1, Obs(9));
        assert_eq!(t.history(step2), vec![Obs(7), Obs(8), Obs(9)]);
        assert_eq!(t.history(root), vec![Obs(7)]);
        assert_eq!(t.last_obs(step2), Obs(9));
        // Interning the same extension twice yields the same id.
        assert_eq!(t.intern_child(root, Obs(8)), step1);
        // Lookup walks the path without interning.
        assert_eq!(t.lookup(&[Obs(7), Obs(8), Obs(9)]), Some(step2));
        assert_eq!(t.lookup(&[Obs(7)]), Some(root));
        assert_eq!(t.lookup(&[Obs(7), Obs(9)]), None);
        assert_eq!(t.lookup(&[]), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn distinct_histories_distinct_ids() {
        let mut t = LocalTable::new();
        let r1 = t.intern_root(Obs(0));
        let r2 = t.intern_root(Obs(1));
        assert_ne!(r1, r2);
        let a = t.intern_child(r1, Obs(5));
        let b = t.intern_child(r2, Obs(5));
        assert_ne!(a, b, "same obs, different pasts");
    }

    #[test]
    fn global_state_display() {
        let s = GlobalState::new(vec![3, 1]);
        assert_eq!(s.to_string(), "⟨3,1⟩");
    }
}
