//! The shared evaluation engine.
//!
//! Every satisfaction-set computation in the workspace — solver guards,
//! enumerator branch tests, bounded-temporal layer evaluation, CTLK model
//! checking — is the same operation: walk an interned [`FormulaArena`] in
//! postorder over one S5 layer, memoizing each distinct subformula in an
//! [`EvalCache`]. [`EvalEngine`] packages that walk behind a stable API so
//! all consumers share one arena (one interning pass, maximal subformula
//! sharing) and one kernel (the word-level partition routines of this
//! crate).
//!
//! The walk is sequential: one postorder pass per batch of roots.
//!
//! **Temporal hooks** ([`TemporalOps`] / [`EvalEngine::populate_temporal`]):
//! the static kernel cannot evaluate `X/F/G/U`; a consumer that can
//! (backward induction in `kbp-systems`, CTL fixpoints in `kbp-mck`)
//! supplies the four set-level operators and the engine drives the
//! postorder walk, memoizing temporal results per [`FormulaId`] like any
//! other node.

use crate::bitset::BitSet;
use crate::eval::{EvalCache, EvalError};
use crate::model::S5Model;
use kbp_logic::{Formula, FormulaArena, FormulaId, InternedNode};
use std::error::Error;
use std::fmt;

/// Environment variable overriding the *generation* quotient gate:
/// frontiers with at least this many points are folded to bisimulation
/// representatives with multiplicities before the next layer is
/// generated, so the explicit frontier is never resident (DESIGN.md
/// §17). `0` means "generate quotient-first from layer 0"; a huge value
/// disables fused generation entirely. Read by
/// `kbp_systems::SystemBuilder`; defined here so all engine gates share
/// one parser and one error type.
pub const GEN_QUOTIENT_MIN_WORLDS_ENV: &str = "KBP_GEN_QUOTIENT_MIN_WORLDS";

/// Default generation quotient gate: narrow frontiers are generated
/// explicitly (the canonicalization pass costs more than it saves
/// there), wide frontiers advance on representatives — solutions are
/// bit-identical either way.
pub const DEFAULT_GEN_QUOTIENT_MIN_WORLDS: usize = 4096;

/// Largest worker-thread count accepted from an environment variable.
/// Far above any plausible machine; a value beyond it is a typo (an extra
/// digit, a pasted timestamp), not a configuration.
pub const MAX_CONFIG_THREADS: usize = 4096;

/// A thread-count environment variable held a value that cannot mean any
/// worker-pool size. Surfaced as a typed error so services can refuse to
/// start instead of silently falling back to a default the operator did
/// not choose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadConfigError {
    /// The value did not parse as an unsigned integer.
    NotANumber {
        /// The variable that held the value.
        var: &'static str,
        /// The offending value.
        value: String,
    },
    /// The value parsed as `0`; a worker pool needs at least one thread.
    Zero {
        /// The variable that held the value.
        var: &'static str,
    },
    /// The value exceeds [`MAX_CONFIG_THREADS`].
    TooLarge {
        /// The variable that held the value.
        var: &'static str,
        /// The offending value.
        value: String,
    },
}

impl fmt::Display for ThreadConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreadConfigError::NotANumber { var, value } => {
                write!(f, "{var}={value:?} is not an unsigned integer")
            }
            ThreadConfigError::Zero { var } => {
                write!(f, "{var}=0: a worker pool needs at least one thread")
            }
            ThreadConfigError::TooLarge { var, value } => write!(
                f,
                "{var}={value}: exceeds the {MAX_CONFIG_THREADS}-thread cap"
            ),
        }
    }
}

impl Error for ThreadConfigError {}

/// Parses a thread-count setting taken from environment variable `var`.
/// `0`, non-numeric input and values above [`MAX_CONFIG_THREADS`] are
/// typed errors, never silent fallbacks.
///
/// # Errors
///
/// Returns [`ThreadConfigError`] describing exactly how the value is
/// unusable.
pub fn parse_thread_count(var: &'static str, raw: &str) -> Result<usize, ThreadConfigError> {
    let trimmed = raw.trim();
    let n: usize = trimmed.parse().map_err(|_| ThreadConfigError::NotANumber {
        var,
        value: raw.to_owned(),
    })?;
    if n == 0 {
        return Err(ThreadConfigError::Zero { var });
    }
    if n > MAX_CONFIG_THREADS {
        return Err(ThreadConfigError::TooLarge {
            var,
            value: raw.to_owned(),
        });
    }
    Ok(n)
}

/// Reads a thread-count override from environment variable `var`.
/// `Ok(None)` when unset or empty; malformed values are typed errors.
///
/// # Errors
///
/// Returns [`ThreadConfigError`] if the variable is set to `0`, to a
/// non-number, or to a value above [`MAX_CONFIG_THREADS`].
pub fn env_threads(var: &'static str) -> Result<Option<usize>, ThreadConfigError> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(raw) if raw.trim().is_empty() => Ok(None),
        Ok(raw) => parse_thread_count(var, &raw).map(Some),
    }
}

/// Reads the generation quotient gate from
/// [`GEN_QUOTIENT_MIN_WORLDS_ENV`]. `Ok(None)` when unset or empty.
/// Unlike thread counts, `0` is a valid setting (fuse step+quotient from
/// layer 0) and there is no upper cap (a huge value keeps generation
/// explicit).
///
/// # Errors
///
/// Returns [`ThreadConfigError::NotANumber`] if the variable holds
/// anything but an unsigned integer.
pub fn env_gen_quotient_min_worlds() -> Result<Option<usize>, ThreadConfigError> {
    match std::env::var(GEN_QUOTIENT_MIN_WORLDS_ENV) {
        Err(_) => Ok(None),
        Ok(raw) if raw.trim().is_empty() => Ok(None),
        Ok(raw) => {
            raw.trim()
                .parse::<usize>()
                .map(Some)
                .map_err(|_| ThreadConfigError::NotANumber {
                    var: GEN_QUOTIENT_MIN_WORLDS_ENV,
                    value: raw,
                })
        }
    }
}

/// Set-level temporal operators, supplied by evaluators that have a
/// notion of time (bounded layers, an explored state graph, …).
///
/// Each operator maps the satisfaction set(s) of the subformula(s) to the
/// satisfaction set of the temporal formula **on the same model**. The
/// engine calls them during [`EvalEngine::populate_temporal`]'s postorder
/// walk, so arguments are always fully evaluated.
pub trait TemporalOps {
    /// Satisfaction set of `X φ` given that of `φ`.
    fn next(&self, phi: &BitSet) -> BitSet;
    /// Satisfaction set of `F φ` given that of `φ`.
    fn eventually(&self, phi: &BitSet) -> BitSet;
    /// Satisfaction set of `G φ` given that of `φ`.
    fn always(&self, phi: &BitSet) -> BitSet;
    /// Satisfaction set of `φ U ψ` given those of `φ` and `ψ`.
    fn until(&self, hold: &BitSet, target: &BitSet) -> BitSet;
}

/// The unified arena-based evaluator.
///
/// Owns the [`FormulaArena`] for a whole run (a solve, an enumeration, a
/// model-checking session). Per-layer state lives in the caller's
/// [`EvalCache`]s, so one engine serves any number of layers/models.
///
/// # Example
///
/// ```
/// use kbp_kripke::{EvalCache, EvalEngine, S5Builder};
/// use kbp_logic::{Agent, Formula, FormulaArena, PropId};
///
/// let a = Agent::new(0);
/// let p = Formula::prop(PropId::new(0));
/// let mut b = S5Builder::new(1, 1);
/// let w0 = b.add_world([PropId::new(0)]);
/// let w1 = b.add_world([]);
/// b.link(a, w0, w1);
/// let m = b.build();
///
/// let mut engine = EvalEngine::new(FormulaArena::new());
/// let yes = engine.intern(&Formula::knows(a, p.clone()));
/// let no = engine.intern(&Formula::not(Formula::knows(a, p)));
///
/// let mut cache = EvalCache::new();
/// let sets = engine.satisfying_sets(&m, &mut cache, &[yes, no])?;
/// assert_eq!(sets[1], sets[0].complemented());
/// # Ok::<(), kbp_kripke::EvalError>(())
/// ```
#[derive(Debug)]
pub struct EvalEngine {
    arena: FormulaArena,
}

impl EvalEngine {
    /// Wraps `arena`.
    #[must_use]
    pub fn new(arena: FormulaArena) -> Self {
        EvalEngine { arena }
    }

    /// Same as [`new`](Self::new); never fails. Inert; kept only while
    /// the `kbpbench` benchmark names it.
    ///
    /// # Errors
    ///
    /// None: the engine reads no environment variable.
    pub fn from_env(arena: FormulaArena) -> Result<Self, ThreadConfigError> {
        Ok(Self::new(arena))
    }

    /// The engine's arena.
    #[must_use]
    pub fn arena(&self) -> &FormulaArena {
        &self.arena
    }

    /// Interns `formula` into the engine's arena.
    pub fn intern(&mut self, formula: &Formula) -> FormulaId {
        self.arena.intern(formula)
    }

    /// Fills `cache` with the satisfaction sets of `roots` (and all their
    /// subformulas) on `model`, in one postorder walk. Already-cached
    /// formulas are not recomputed: a seeded entry is authoritative.
    ///
    /// # Errors
    ///
    /// Same conditions as [`S5Model::satisfying_cached`]; on error the
    /// cache retains the entries filled so far (all of them valid).
    pub fn populate(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        roots: &[FormulaId],
    ) -> Result<(), EvalError> {
        cache.bind(model.world_count())?;
        for &id in roots {
            model.eval_into_cache(cache, &self.arena, id)?;
        }
        Ok(())
    }

    /// Same as [`populate`](Self::populate). Inert; kept only while the
    /// `kbpbench` benchmark names it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`populate`](Self::populate).
    pub fn populate_prereduced(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        roots: &[FormulaId],
    ) -> Result<(), EvalError> {
        self.populate(model, cache, roots)
    }

    /// Like [`populate`](Self::populate), but accepts temporal operators:
    /// `X/F/G/U` nodes are computed from their (already evaluated)
    /// children via `ops` and memoized in `cache` like any other node.
    ///
    /// # Errors
    ///
    /// Same conditions as [`S5Model::satisfying_cached`] (minus
    /// [`EvalError::Temporal`], which this walk handles).
    pub fn populate_temporal(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        roots: &[FormulaId],
        ops: &dyn TemporalOps,
    ) -> Result<(), EvalError> {
        cache.bind(model.world_count())?;
        for id in self.arena.reachable(roots) {
            if cache.has(id) {
                continue;
            }
            let missing = EvalError::Internal("postorder child missing from cache");
            let set = match self.arena.node(id) {
                InternedNode::Next(f) => ops.next(cache.get(*f).ok_or(missing)?),
                InternedNode::Eventually(f) => ops.eventually(cache.get(*f).ok_or(missing)?),
                InternedNode::Always(f) => ops.always(cache.get(*f).ok_or(missing)?),
                InternedNode::Until(a, b) => ops.until(
                    cache.get(*a).ok_or(missing.clone())?,
                    cache.get(*b).ok_or(missing)?,
                ),
                _ => {
                    // Non-temporal: children are cached, so this recurses
                    // at most one level before hitting the memo.
                    model.eval_into_cache(cache, &self.arena, id)?;
                    continue;
                }
            };
            cache.insert(id, set)?;
        }
        Ok(())
    }

    /// [`populate`](Self::populate) followed by cloning out the root sets,
    /// in root order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`populate`](Self::populate).
    pub fn satisfying_sets(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        roots: &[FormulaId],
    ) -> Result<Vec<BitSet>, EvalError> {
        self.populate(model, cache, roots)?;
        roots
            .iter()
            .map(|&r| {
                cache
                    .get(r)
                    .cloned()
                    .ok_or(EvalError::Internal("root missing after populate"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::S5Builder;
    use kbp_logic::{Agent, AgentSet, PropId};

    const VAR: &str = "KBP_TEST_THREADS";

    fn p(i: u32) -> Formula {
        Formula::prop(PropId::new(i))
    }

    fn model() -> S5Model {
        let mut b = S5Builder::new(2, 3);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([PropId::new(0), PropId::new(1)]);
        let w2 = b.add_world([PropId::new(2)]);
        let w3 = b.add_world([]);
        b.link(Agent::new(0), w0, w1);
        b.link(Agent::new(1), w1, w2);
        b.link(Agent::new(0), w2, w3);
        b.build()
    }

    fn guards() -> Vec<Formula> {
        let g = AgentSet::all(2);
        vec![
            Formula::knows(Agent::new(0), p(0)),
            Formula::not(Formula::knows(Agent::new(0), p(0))),
            Formula::common(g, Formula::or([p(0), p(2)])),
            Formula::Distributed(g, Box::new(p(1))),
            Formula::implies(p(2), Formula::knows(Agent::new(1), p(2))),
            Formula::iff(p(0), p(1)),
        ]
    }

    #[test]
    fn populate_respects_existing_cache_entries() {
        let m = model();
        let mut engine = EvalEngine::new(FormulaArena::new());
        let ids: Vec<_> = guards().iter().map(|f| engine.intern(f)).collect();
        let mut cache = EvalCache::new();
        // Pre-seed a shared subformula with a *wrong* value; populate must
        // treat it as authoritative (the carry-forward contract).
        let k = engine.intern(&Formula::knows(Agent::new(0), p(0)));
        cache.insert(k, BitSet::full(m.world_count())).unwrap();
        engine.populate(&m, &mut cache, &ids).unwrap();
        // ¬K₀p₀ was computed from the seeded set, proving the seed was
        // read rather than recomputed.
        let neg = engine.intern(&Formula::not(Formula::knows(Agent::new(0), p(0))));
        assert!(cache.get(neg).unwrap().is_empty());
    }

    #[test]
    fn eval_errors_propagate() {
        let m = model();
        let mut engine = EvalEngine::new(FormulaArena::new());
        let bad = engine.intern(&Formula::knows(Agent::new(9), p(0)));
        let ok = engine.intern(&p(0));
        let mut cache = EvalCache::new();
        assert_eq!(
            engine.populate(&m, &mut cache, &[ok, bad]),
            Err(EvalError::AgentOutOfRange(Agent::new(9)))
        );
    }

    #[test]
    fn temporal_walk_uses_ops_and_memoizes() {
        struct Const(BitSet);
        impl TemporalOps for Const {
            fn next(&self, _: &BitSet) -> BitSet {
                self.0.clone()
            }
            fn eventually(&self, phi: &BitSet) -> BitSet {
                phi.clone()
            }
            fn always(&self, phi: &BitSet) -> BitSet {
                phi.clone()
            }
            fn until(&self, _: &BitSet, target: &BitSet) -> BitSet {
                target.clone()
            }
        }
        let m = model();
        let mut engine = EvalEngine::new(FormulaArena::new());
        // ¬X p0 — the Not must read the ops-computed X node.
        let root = engine.intern(&Formula::not(Formula::next(p(0))));
        let marker = BitSet::from_indices(m.world_count(), [1usize, 3]);
        let ops = Const(marker.clone());
        let mut cache = EvalCache::new();
        engine
            .populate_temporal(&m, &mut cache, &[root], &ops)
            .unwrap();
        assert_eq!(*cache.get(root).unwrap(), marker.complemented());
    }

    #[test]
    fn thread_config_zero_is_a_typed_error() {
        assert_eq!(
            parse_thread_count(VAR, "0"),
            Err(ThreadConfigError::Zero { var: VAR })
        );
    }

    #[test]
    fn thread_config_garbage_is_a_typed_error() {
        for raw in ["four", "", " ", "-2", "3.5", "0x10", "1 2"] {
            assert_eq!(
                parse_thread_count(VAR, raw),
                Err(ThreadConfigError::NotANumber {
                    var: VAR,
                    value: raw.to_owned(),
                }),
                "raw={raw:?}"
            );
        }
    }

    #[test]
    fn thread_config_huge_is_a_typed_error() {
        let raw = format!("{}", MAX_CONFIG_THREADS + 1);
        assert_eq!(
            parse_thread_count(VAR, &raw),
            Err(ThreadConfigError::TooLarge {
                var: VAR,
                value: raw.clone(),
            })
        );
        // usize overflow is reported as not-a-number by the parser.
        assert!(matches!(
            parse_thread_count(VAR, "99999999999999999999999999"),
            Err(ThreadConfigError::NotANumber { .. })
        ));
    }

    #[test]
    fn thread_config_accepts_sane_values() {
        assert_eq!(parse_thread_count(VAR, "1"), Ok(1));
        assert_eq!(parse_thread_count(VAR, " 8 "), Ok(8));
        assert_eq!(
            parse_thread_count(VAR, &format!("{MAX_CONFIG_THREADS}")),
            Ok(MAX_CONFIG_THREADS)
        );
    }
}
