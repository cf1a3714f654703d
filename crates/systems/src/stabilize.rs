//! Stabilisation detection: has the unrolling reached a steady state?
//!
//! The PODC'95 examples either terminate (muddy children) or reach a
//! *steady* regime (bit transmission keeps retransmitting but the
//! knowledge situation stops changing). Bounded unrollings can certify the
//! latter: when two consecutive layers are structurally equivalent — same
//! multiset of global states, same knowledge partitions up to renaming,
//! same transition shape — every later layer generated by a
//! layer-structure-driven rule is equivalent too, so conclusions drawn at
//! the stabilisation layer extend to all later times.
//!
//! Equivalence is approximated by colour refinement (1-WL) over the
//! layer's nodes — colours are 64-bit structural digests, refined each
//! round by a commutative digest of every agent cell's colours, so a
//! round is Θ(n·agents) regardless of cell size — which is exact (up to
//! digest collisions) for the partition-structured layers that arise in
//! practice; it is documented as a *certificate heuristic*: equal
//! signatures strongly indicate stabilisation, unequal signatures prove
//! its absence. When a *sound* certificate is needed — e.g. to carry
//! satisfaction sets across layers — [`layer_renaming`] upgrades the
//! heuristic: it uses the stable colours only to *propose* a node
//! bijection and then verifies it is a genuine S5 isomorphism
//! (state-preserving, valuation-preserving, partition-preserving), so a
//! returned renaming is correct regardless of 1-WL's completeness.

use crate::system::{InterpretedSystem, Layer};
use kbp_logic::PropId;
use std::collections::{BTreeMap, VecDeque};

/// A canonical fingerprint of one layer, comparable across layers of the
/// same system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSignature(Vec<(u64, usize)>);

/// The splitmix64 finaliser: deterministic, dependency-free mixing for
/// the colour digests below.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Stable 1-WL colour digests of a layer's nodes, one per node.
///
/// The initial colour of a node is a digest of its interned global state
/// (comparable across layers, since states are interned in one shared
/// table); each round refines every node's colour by the multiset of
/// colours in each agent's information cell, digested commutatively
/// (a sum of mixed member colours) so the result is independent of
/// member order. Colours are therefore pure functions of layer
/// structure — equal structure yields equal digests across layers.
///
/// Digests replace the explicit colour-descriptor vectors this function
/// used to materialise: a node's descriptor embedded the full sorted
/// colour list of each of its agent cells, which on wide layers with
/// large information cells (the quotient-friendly shape: millions of
/// worlds in cells of tens of thousands) allocated Θ(Σ_cells |cell|²)
/// bytes per refinement round — tens of gigabytes at a few million
/// worlds, and the memory ceiling of the whole solver. A round now
/// costs Θ(n·agents) time and memory. The price is the usual one for
/// fingerprinting: a 64-bit collision could make two structurally
/// different layers *look* equal. The signature was always documented
/// as a certificate heuristic, and the sound consumer
/// ([`layer_renaming`]) verifies every proposed bijection before use,
/// so a collision can only cost a spurious heuristic answer, never a
/// wrong carried satisfaction set.
fn stable_colours(layer: &Layer) -> Vec<u64> {
    let n = layer.len();
    let model = layer.model();
    let agents = model.agent_count();
    let mut colour: Vec<u64> = layer
        .nodes()
        .iter()
        .map(|node| mix(1 + node.state().index() as u64))
        .collect();
    // On a layer generated as bisimulation representatives, a node stands
    // for `multiplicity` explicit points: fold class sizes > 1 into the
    // initial colour so representative structure that repeats with
    // *different* explicit widths is not mistaken for stabilisation.
    // Multiplicity-1 classes keep the explicit colour, so a reduced layer
    // whose fold found nothing to merge signs identically to its
    // explicit counterpart.
    for (node, col) in colour.iter_mut().enumerate() {
        let m = layer.multiplicity(node);
        if m > 1 {
            *col = mix(*col ^ mix(m));
        }
    }

    let block_ids: Vec<&[u32]> = (0..agents)
        .map(|a| model.partition(kbp_logic::Agent::new(a)).block_ids())
        .collect();
    let mut distinct_old = {
        let mut seen: Vec<u64> = colour.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    };
    for _round in 0..n.max(1) {
        // Commutative multiset digest of every agent cell's colours,
        // computed once per cell and shared by its members.
        let cell_digest: Vec<Vec<u64>> = (0..agents)
            .map(|a| {
                let blocks = model.partition(kbp_logic::Agent::new(a)).block_count();
                let mut per_block: Vec<u64> = vec![0; blocks];
                for (i, &b) in block_ids[a].iter().enumerate() {
                    per_block[b as usize] = per_block[b as usize].wrapping_add(mix(colour[i]));
                }
                per_block
            })
            .collect();
        // New colour: old colour chained with each agent's cell digest
        // (agent order fixed, so the chain is canonical).
        let new_colour: Vec<u64> = (0..n)
            .map(|i| {
                let mut h = colour[i];
                for a in 0..agents {
                    h = mix(h ^ cell_digest[a][block_ids[a][i] as usize]);
                }
                h
            })
            .collect();
        let distinct_new = {
            let mut seen: Vec<u64> = new_colour.clone();
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        };
        let stable = {
            // Same partition as before? New colours are functions of old
            // ones, so refinement never merges: the partitions are equal
            // exactly when the old→new colour map is functional and no
            // new class appeared.
            let mut old_to_new: BTreeMap<u64, u64> = BTreeMap::new();
            let mut consistent = true;
            for i in 0..n {
                match old_to_new.get(&colour[i]) {
                    Some(&c) if c != new_colour[i] => {
                        consistent = false;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        old_to_new.insert(colour[i], new_colour[i]);
                    }
                }
            }
            consistent && distinct_old == distinct_new
        };
        colour = new_colour;
        distinct_old = distinct_new;
        if stable {
            break;
        }
    }

    colour
}

impl InterpretedSystem {
    /// Computes the canonical signature of layer `t`: the multiset of
    /// stable 1-WL colour digests (see module docs).
    ///
    /// Returns `None` if `t >= layer_count` — out-of-range queries are
    /// answerable ("no such layer, hence no signature") rather than a
    /// panic, keeping the crate's panic-free guarantee.
    #[must_use]
    pub fn layer_signature(&self, t: usize) -> Option<LayerSignature> {
        if t >= self.layer_count() {
            return None;
        }
        let layer = self.layer(t);
        let colours = stable_colours(layer);
        // Multiset of colour digests with multiplicities, counted in
        // explicit-equivalent points: on a reduced layer each
        // representative contributes its class's multiplicity.
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for (node, col) in colours.into_iter().enumerate() {
            let m = usize::try_from(layer.multiplicity(node)).unwrap_or(usize::MAX);
            let entry = counts.entry(col).or_insert(0);
            *entry = entry.saturating_add(m);
        }
        Some(LayerSignature(counts.into_iter().collect()))
    }

    /// The first time `t` such that layers `t` and `t+1` have equal
    /// signatures, if any.
    ///
    /// Equal signatures certify (heuristically; see module docs) that the
    /// knowledge situation has stopped changing: analyses at layer `t`
    /// extend to all later times as long as the protocol keeps acting the
    /// same way on the repeating structure.
    #[must_use]
    pub fn stabilization(&self) -> Option<usize> {
        if self.layer_count() < 2 {
            return None;
        }
        let mut prev = self.layer_signature(0)?;
        for t in 1..self.layer_count() {
            let cur = self.layer_signature(t)?;
            if cur == prev {
                return Some(t - 1);
            }
            prev = cur;
        }
        None
    }
}

/// A **verified** S5 isomorphism from `to`'s nodes onto `from`'s nodes,
/// as `renaming[i] = j`: node `i` of `to` corresponds to node `j` of
/// `from`. Returns `None` when the layers are not isomorphic (or the
/// colour heuristic fails to find a witness).
///
/// The candidate bijection is proposed cheaply — identity first, then a
/// smallest-index matching of equal stable-colour classes — but every
/// candidate is checked to be a genuine isomorphism before it is
/// returned: equal length, equal interned global states under the
/// renaming, equal proposition valuations, and each agent's
/// indistinguishability blocks mapping bijectively onto blocks. A
/// `Some` result is therefore *sound* independent of 1-WL completeness;
/// incompleteness can only cost a missed renaming.
///
/// This is the certificate behind cross-layer cache carry-forward (see
/// `kbp_kripke::EvalCache::carried_forward`): satisfaction of every
/// non-temporal formula is invariant under S5 isomorphism, so cached
/// sets for `from` map pointwise to `to` through the renaming.
#[must_use]
pub fn layer_renaming(from: &Layer, to: &Layer) -> Option<Vec<u32>> {
    let n = from.len();
    if n != to.len() {
        return None;
    }
    let identity: Vec<u32> = (0..n as u32).collect();
    if verify_renaming(from, to, &identity) {
        return Some(identity);
    }
    let colours_from = stable_colours(from);
    let colours_to = stable_colours(to);
    // Group `from`-nodes by colour digest (digests are pure functions of
    // structure, hence the cross-layer currency), ascending index; match
    // each `to`-node to the first unused same-colour `from`-node
    // (deterministic).
    let mut pool: BTreeMap<u64, VecDeque<u32>> = BTreeMap::new();
    for (j, &c) in colours_from.iter().enumerate() {
        pool.entry(c).or_default().push_back(j as u32);
    }
    let mut renaming = Vec::with_capacity(n);
    for c in &colours_to {
        renaming.push(pool.get_mut(c)?.pop_front()?);
    }
    if verify_renaming(from, to, &renaming) {
        Some(renaming)
    } else {
        None
    }
}

/// Checks that `renaming` (to-index → from-index) is an S5 isomorphism.
fn verify_renaming(from: &Layer, to: &Layer, renaming: &[u32]) -> bool {
    let n = from.len();
    // Bijectivity.
    let mut hit = vec![false; n];
    for &j in renaming {
        let Some(slot) = hit.get_mut(j as usize) else {
            return false;
        };
        if *slot {
            return false;
        }
        *slot = true;
    }
    // Interned global states agree (states live in one shared table, so
    // equal ids mean equal states).
    let (from_nodes, to_nodes) = (from.nodes(), to.nodes());
    for i in 0..n {
        if to_nodes[i].state() != from_nodes[renaming[i] as usize].state() {
            return false;
        }
    }
    let (mf, mt) = (from.model(), to.model());
    // Valuations agree pointwise (redundant given equal states when props
    // are functions of the state, but it keeps the certificate
    // self-contained).
    if mf.prop_count() != mt.prop_count() {
        return false;
    }
    for p in 0..mt.prop_count() {
        let pf = mf.prop_worlds(PropId::new(p as u32));
        let pt = mt.prop_worlds(PropId::new(p as u32));
        for (i, &j) in renaming.iter().enumerate() {
            if pt.contains(i) != pf.contains(j as usize) {
                return false;
            }
        }
    }
    // Each agent's partition maps blocks onto blocks, injectively. With
    // equal block counts and every block image contained in its target
    // (|to-block| ≤ |from-block| summing to n on both sides), this forces
    // a size-preserving bijection of blocks.
    if mf.agent_count() != mt.agent_count() {
        return false;
    }
    for a in 0..mt.agent_count() {
        let pf = mf.partition(kbp_logic::Agent::new(a));
        let pt = mt.partition(kbp_logic::Agent::new(a));
        if pf.block_count() != pt.block_count() {
            return false;
        }
        let (bf, bt) = (pf.block_ids(), pt.block_ids());
        let mut image: Vec<Option<u32>> = vec![None; pt.block_count()];
        let mut used = vec![false; pf.block_count()];
        for (i, &j) in renaming.iter().enumerate() {
            let tb = bt[i] as usize;
            let fb = bf[j as usize];
            match image[tb] {
                None => {
                    if used[fb as usize] {
                        return false;
                    }
                    used[fb as usize] = true;
                    image[tb] = Some(fb);
                }
                Some(x) if x != fb => return false,
                Some(_) => {}
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::layer_renaming;
    use crate::context::{ActionId, ContextBuilder, EnvActionId};
    use crate::protocol::LocalView;
    use crate::state::{GlobalState, Obs};
    use crate::system::{generate, Recall};
    use kbp_logic::Vocabulary;

    #[test]
    fn static_system_stabilizes_immediately() {
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
        let sys = generate(&ctx, &noop, Recall::Perfect, 4).unwrap();
        assert_eq!(sys.stabilization(), Some(0));
    }

    #[test]
    fn counter_does_not_stabilize_before_saturation() {
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("x");
        let ctx = ContextBuilder::new(voc)
            .initial_state(GlobalState::new(vec![0]))
            .agent_actions(a, ["tick"])
            .transition(|s, _| s.with_reg(0, (s.reg(0) + 1).min(3)))
            .observe(|_, s| Obs(u64::from(s.reg(0))))
            .props(|_, _| false)
            .build();
        let tick = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &tick, Recall::Perfect, 6).unwrap();
        // Counter values 0,1,2,3,3,3,3 — stabilises at layer 3.
        assert_eq!(sys.stabilization(), Some(3));
    }

    #[test]
    fn distinct_uncertainty_means_distinct_signature() {
        // Env keeps flipping an observable bit: layers alternate between
        // "bit known 0/1" structures of size 1 and 2 and never... actually
        // the structure stabilises once both values are present; check
        // that signature comparison runs and finds the right layer.
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("x");
        let ctx = ContextBuilder::new(voc)
            .initial_state(GlobalState::new(vec![0]))
            .agent_actions(a, ["noop"])
            .env_protocol(|_| vec![EnvActionId(0), EnvActionId(1)])
            .transition(|s, j| s.with_reg(0, j.env.0))
            .observe(|_, _| Obs(0))
            .props(|_, _| false)
            .build();
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &noop, Recall::Perfect, 4).unwrap();
        // Layer 0: one node (state 0). Layer 1+: two nodes (state 0/1),
        // same shape ever after.
        assert_eq!(sys.stabilization(), Some(1));
        assert_ne!(sys.layer_signature(0), sys.layer_signature(1));
        assert_eq!(sys.layer_signature(1), sys.layer_signature(3));
    }

    #[test]
    fn out_of_range_layer_has_no_signature() {
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
        let sys = generate(&ctx, &noop, Recall::Perfect, 2).unwrap();
        assert!(sys.layer_signature(2).is_some()); // horizon layer exists
        assert_eq!(sys.layer_signature(3), None);
        assert_eq!(sys.layer_signature(usize::MAX), None);
    }

    #[test]
    fn signatures_distinguish_partition_structure() {
        // Same states, different observability: signatures must differ.
        let mk = |observable: bool| {
            let mut voc = Vocabulary::new();
            let a = voc.add_agent("x");
            let ctx = ContextBuilder::new(voc)
                .initial_states([GlobalState::new(vec![0]), GlobalState::new(vec![1])])
                .agent_actions(a, ["noop"])
                .transition(|s, _| s.clone())
                .observe(move |_, s| {
                    if observable {
                        Obs(u64::from(s.reg(0)))
                    } else {
                        Obs(0)
                    }
                })
                .props(|_, _| false)
                .build();
            let noop = |_: &LocalView<'_>| vec![ActionId(0)];
            generate(&ctx, &noop, Recall::Perfect, 0).unwrap()
        };
        let seen = mk(true).layer_signature(0);
        let blind = mk(false).layer_signature(0);
        assert_ne!(seen, blind);
    }

    #[test]
    fn renaming_found_between_stabilized_layers() {
        // The flipping-bit system stabilises at layer 1: layers 1..=4 are
        // pairwise isomorphic.
        let mut voc = Vocabulary::new();
        let a = voc.add_agent("x");
        let ctx = ContextBuilder::new(voc)
            .initial_state(GlobalState::new(vec![0]))
            .agent_actions(a, ["noop"])
            .env_protocol(|_| vec![EnvActionId(0), EnvActionId(1)])
            .transition(|s, j| s.with_reg(0, j.env.0))
            .observe(|_, s| Obs(u64::from(s.reg(0))))
            .props(|_, _| false)
            .build();
        let noop = |_: &LocalView<'_>| vec![ActionId(0)];
        let sys = generate(&ctx, &noop, Recall::Observational, 4).unwrap();
        let r = layer_renaming(sys.layer(1), sys.layer(2)).expect("isomorphic layers");
        assert_eq!(r.len(), sys.layer(1).len());
        // The renaming preserves interned states.
        for (i, &j) in r.iter().enumerate() {
            assert_eq!(
                sys.layer(2).nodes()[i].state(),
                sys.layer(1).nodes()[j as usize].state()
            );
        }
        // Non-isomorphic layers (different sizes) yield no renaming.
        assert!(layer_renaming(sys.layer(0), sys.layer(1)).is_none());
    }
}
