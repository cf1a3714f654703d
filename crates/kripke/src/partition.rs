//! Partitions of a finite universe, and the union–find used to build them.
//!
//! In an S5 model each agent's accessibility relation is an equivalence
//! relation, i.e. a [`Partition`] of the worlds into information cells.

/// A classic union–find (disjoint-set) structure over `0..len`.
///
/// Used to close "indistinguishable" links declared by a model builder into
/// an equivalence relation.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates a union–find with every element in its own class.
    #[must_use]
    pub fn new(len: usize) -> Self {
        UnionFind {
            parent: (0..len as u32).collect(),
            rank: vec![0; len],
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Finds the class representative of `x` (with path halving).
    ///
    /// # Panics
    ///
    /// Panics if `x >= len`.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x as usize
    }

    /// Merges the classes of `a` and `b`; returns `true` if they were
    /// previously distinct.
    ///
    /// # Panics
    ///
    /// Panics if `a >= len` or `b >= len`.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi as u32;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        true
    }

    /// Whether `a` and `b` are in the same class.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Converts into a [`Partition`] with dense block ids.
    #[must_use]
    #[allow(clippy::needless_range_loop)] // find(x) needs &mut self
    pub fn into_partition(mut self) -> Partition {
        let n = self.len();
        let mut block_of = vec![u32::MAX; n];
        let mut rep_to_block = vec![u32::MAX; n];
        let mut count = 0u32;
        for x in 0..n {
            let r = self.find(x);
            if rep_to_block[r] == u32::MAX {
                rep_to_block[r] = count;
                count += 1;
            }
            block_of[x] = rep_to_block[r];
        }
        Partition::from_dense_labels(block_of, count as usize)
    }
}

/// A partition of `0..len` into disjoint, jointly exhaustive blocks.
///
/// Blocks have dense ids assigned in order of their smallest member.
/// Storage is compressed sparse rows: one label per element, one offset
/// per block, and one buffer holding every block's members back to back
/// in ascending order — three allocations whatever the block count.
///
/// # Example
///
/// ```
/// use kbp_kripke::Partition;
///
/// // {0,2} | {1}
/// let p = Partition::from_keys(3, |x| x % 2);
/// assert_eq!(p.block_count(), 2);
/// assert_eq!(p.block_of(0), p.block_of(2));
/// assert_ne!(p.block_of(0), p.block_of(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// The block id of every element.
    block_of: Vec<u32>,
    /// Block `b`'s members are `elems[start[b]..start[b + 1]]`; one more
    /// entry than there are blocks.
    start: Vec<u32>,
    /// Every element, grouped by block, ascending within each block.
    elems: Vec<u32>,
}

impl Partition {
    /// The discrete partition (every element alone).
    #[must_use]
    pub fn discrete(len: usize) -> Self {
        Partition::from_dense_labels((0..len as u32).collect(), len)
    }

    /// The trivial partition (all elements in one block); empty if `len == 0`.
    #[must_use]
    pub fn trivial(len: usize) -> Self {
        Partition::from_dense_labels(vec![0; len], usize::from(len > 0))
    }

    /// Builds a partition by grouping elements with equal keys.
    #[must_use]
    pub fn from_keys<K: std::hash::Hash + Eq>(len: usize, key: impl Fn(usize) -> K) -> Self {
        use std::collections::HashMap;
        let mut map: HashMap<K, u32> = HashMap::new();
        let block_of: Vec<u32> = (0..len)
            .map(|x| {
                let next = map.len() as u32;
                *map.entry(key(x)).or_insert(next)
            })
            .collect();
        let count = map.len();
        Partition::from_dense_labels(block_of, count)
    }

    /// Builds a partition by grouping elements with equal keys, where the
    /// keys are already small dense ids (local-state indices, union-find
    /// roots): grouping goes through a slot table over the keys' range
    /// instead of a hash map. Equals [`from_keys`](Self::from_keys) over
    /// the same keys.
    ///
    /// The slot table costs memory proportional to the span between the
    /// smallest and largest key; a span wider than the universe several
    /// times over groups by hashing instead.
    #[must_use]
    pub fn from_index_keys(len: usize, key: impl Fn(usize) -> usize) -> Self {
        let keys: Vec<usize> = (0..len).map(key).collect();
        let (lo, hi) = keys
            .iter()
            .fold((usize::MAX, 0), |(lo, hi), &k| (lo.min(k), hi.max(k)));
        if len == 0 || hi - lo > 4 * len {
            return Partition::from_keys(len, |x| keys[x]);
        }
        let mut slot = vec![u32::MAX; hi - lo + 1];
        let mut count = 0u32;
        let block_of: Vec<u32> = keys
            .iter()
            .map(|&k| {
                let s = &mut slot[k - lo];
                if *s == u32::MAX {
                    *s = count;
                    count += 1;
                }
                *s
            })
            .collect();
        Partition::from_dense_labels(block_of, count as usize)
    }

    /// Builds a partition from a dense label vector whose ids are already
    /// assigned in order of first occurrence (label `k` first appears only
    /// after labels `0..k`), as the refinement kernels produce them. Every
    /// constructor ends here: one counting sort fills the member buffer,
    /// so blocks come out ascending.
    pub(crate) fn from_dense_labels(block_of: Vec<u32>, count: usize) -> Self {
        debug_assert!(
            block_of
                .iter()
                .try_fold(0u32, |seen, &b| (b <= seen).then(|| seen.max(b + 1)))
                .is_some_and(|seen| seen as usize == count),
            "labels must be dense and numbered by first occurrence"
        );
        // `start[b + 1]` counts block `b`; the prefix sum turns counts
        // into offsets, and placing element `x` bumps `start[b]` to the
        // next free slot, so after the pass `start[b]` is block `b + 1`'s
        // offset and one shift restores the table.
        let mut start = vec![0u32; count + 1];
        for &b in &block_of {
            start[b as usize + 1] += 1;
        }
        for b in 0..count {
            start[b + 1] += start[b];
        }
        let mut elems = vec![0u32; block_of.len()];
        for (x, &b) in block_of.iter().enumerate() {
            let at = &mut start[b as usize];
            elems[*at as usize] = x as u32;
            *at += 1;
        }
        start.copy_within(0..count, 1);
        start[0] = 0;
        Partition {
            block_of,
            start,
            elems,
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.block_of.len()
    }

    /// Whether the partition covers an empty universe.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.block_of.is_empty()
    }

    /// Number of blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.start.len() - 1
    }

    /// The block id of element `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len`.
    #[must_use]
    pub fn block_of(&self, x: usize) -> usize {
        self.block_of[x] as usize
    }

    /// The members of block `b`, in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `b >= block_count`.
    #[must_use]
    pub fn block(&self, b: usize) -> &[u32] {
        &self.elems[self.start[b] as usize..self.start[b + 1] as usize]
    }

    /// Iterates over all blocks as slices.
    pub fn blocks(&self) -> impl Iterator<Item = &[u32]> {
        self.start
            .windows(2)
            .map(|w| &self.elems[w[0] as usize..w[1] as usize])
    }

    /// Whether `a` and `b` share a block.
    #[must_use]
    pub fn same_block(&self, a: usize, b: usize) -> bool {
        self.block_of[a] == self.block_of[b]
    }

    /// The block id of every element as one dense slice (`block_ids()[x]
    /// == block_of(x)`), for kernels that scan the whole universe.
    #[must_use]
    pub fn block_ids(&self) -> &[u32] {
        &self.block_of
    }

    /// The common refinement of two partitions over the same universe
    /// (blocks are the non-empty pairwise intersections) — the relation for
    /// *distributed* knowledge among two agents.
    ///
    /// # Panics
    ///
    /// Panics on universe-size mismatch.
    #[must_use]
    pub fn refine_with(&self, other: &Partition) -> Partition {
        assert_eq!(self.len(), other.len(), "partition length mismatch");
        let n = self.len();
        // Identity fast paths: refining with (or being) the trivial
        // partition changes nothing; a discrete operand forces discrete.
        if other.block_count() <= 1 && n > 0 {
            return self.clone();
        }
        if self.block_count() <= 1 {
            return other.clone();
        }
        if self.block_count() == n || other.block_count() == n {
            return Partition::discrete(n);
        }
        // Pass 1: group each of our blocks by the other partition's block
        // id, using a scratch slot per other-block reset between our
        // blocks — no hashing, O(n + blocks).
        let mut tmp_of = vec![0u32; n];
        let mut tmp_count: u32 = 0;
        let mut slot = vec![u32::MAX; other.block_count()];
        let mut touched: Vec<u32> = Vec::new();
        for block in self.blocks() {
            for &x in block {
                let bb = other.block_of[x as usize] as usize;
                let id = if slot[bb] == u32::MAX {
                    let id = tmp_count;
                    tmp_count += 1;
                    slot[bb] = id;
                    touched.push(bb as u32);
                    id
                } else {
                    slot[bb]
                };
                tmp_of[x as usize] = id;
            }
            for &bb in &touched {
                slot[bb as usize] = u32::MAX;
            }
            touched.clear();
        }
        // Pass 2: relabel by first appearance in element order, restoring
        // the canonical smallest-member block numbering.
        let mut remap = vec![u32::MAX; tmp_count as usize];
        let mut count = 0u32;
        for t in &mut tmp_of {
            let r = &mut remap[*t as usize];
            if *r == u32::MAX {
                *r = count;
                count += 1;
            }
            *t = *r;
        }
        Partition::from_dense_labels(tmp_of, count as usize)
    }

    /// The finest common coarsening of two partitions (join in the
    /// partition lattice; blocks are connected components of the union of
    /// the two equivalence relations) — the relation for *common* knowledge
    /// among two agents.
    ///
    /// # Panics
    ///
    /// Panics on universe-size mismatch.
    #[must_use]
    pub fn join_with(&self, other: &Partition) -> Partition {
        assert_eq!(self.len(), other.len(), "partition length mismatch");
        let n = self.len();
        // Identity fast paths: joining with the discrete partition changes
        // nothing; a trivial operand forces the trivial join.
        if self.block_count() == n {
            return other.clone();
        }
        if other.block_count() == n {
            return self.clone();
        }
        if self.block_count() <= 1 || other.block_count() <= 1 {
            return Partition::trivial(n);
        }
        let mut uf = UnionFind::new(n);
        for block in self.blocks().chain(other.blocks()) {
            // Star unions against the block's first member keep the
            // union-find trees shallow (one find chain per member).
            if let Some((&first, rest)) = block.split_first() {
                for &w in rest {
                    uf.union(first as usize, w as usize);
                }
            }
        }
        uf.into_partition()
    }
}

/// Minimal open-addressing map from packed block-pair keys to dense ids,
/// for the bisimulation hash-signature kernel. Linear probing at ≤ 50%
/// load with a Fibonacci multiplicative hash: the kernel performs one
/// lookup per element, and the standard `HashMap`'s SipHash costs more
/// than the rest of the kernel combined.
/// Keys are packed pairs such as `(block_a << 32) | block_b` with
/// `u64::MAX` as the empty sentinel — unreachable for real keys, since
/// block ids are `u32` indices into universes far below `u32::MAX`
/// elements.
pub(crate) struct PairMap {
    keys: Vec<u64>,
    vals: Vec<u32>,
    mask: usize,
    len: usize,
}

impl PairMap {
    /// A map with room for `inserts` distinct keys without exceeding 50%
    /// load (no resizing is ever needed).
    pub(crate) fn for_inserts(inserts: usize) -> Self {
        let cap = (inserts.max(1) * 2).next_power_of_two();
        PairMap {
            keys: vec![u64::MAX; cap],
            vals: vec![0; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The id for `key`, inserting `new_id(next_dense_id)` on first
    /// sight.
    #[inline]
    pub(crate) fn get_or_insert_with(&mut self, key: u64, new_id: impl FnOnce(u32) -> u32) -> u32 {
        let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & self.mask;
        loop {
            let k = self.keys[i];
            if k == key {
                return self.vals[i];
            }
            if k == u64::MAX {
                let id = new_id(self.len as u32);
                self.keys[i] = key;
                self.vals[i] = id;
                self.len += 1;
                return id;
            }
            i = (i + 1) & self.mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn union_find_basic() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 3));
        let p = uf.into_partition();
        assert_eq!(p.block_count(), 3); // {0,1,2},{3},{4}
        assert!(p.same_block(0, 2));
        assert!(!p.same_block(2, 3));
    }

    #[test]
    fn discrete_and_trivial() {
        let d = Partition::discrete(4);
        assert_eq!(d.block_count(), 4);
        let t = Partition::trivial(4);
        assert_eq!(t.block_count(), 1);
        assert_eq!(t.block(0), &[0, 1, 2, 3]);
        assert_eq!(Partition::trivial(0).block_count(), 0);
    }

    #[test]
    fn from_keys_groups_correctly() {
        let p = Partition::from_keys(6, |x| x % 3);
        assert_eq!(p.block_count(), 3);
        assert!(p.same_block(0, 3));
        assert!(p.same_block(1, 4));
        assert!(!p.same_block(0, 1));
        // Block ids in order of first appearance.
        assert_eq!(p.block_of(0), 0);
        assert_eq!(p.block_of(1), 1);
        assert_eq!(p.block_of(2), 2);
    }

    #[test]
    fn refinement_is_intersection() {
        let a = Partition::from_keys(4, |x| x / 2); // {0,1},{2,3}
        let b = Partition::from_keys(4, |x| x % 2); // {0,2},{1,3}
        let r = a.refine_with(&b);
        assert_eq!(r.block_count(), 4);
    }

    #[test]
    fn join_is_connected_components() {
        let a = Partition::from_keys(4, |x| x / 2); // {0,1},{2,3}
        let b = Partition::from_keys(4, |x| if x == 1 || x == 2 { 0 } else { x }); // {1,2},{0},{3}
        let j = a.join_with(&b);
        assert_eq!(j.block_count(), 1); // chain 0-1-2-3 connects everything
    }

    #[test]
    fn refine_matches_from_keys_reference() {
        // Interleaved blocks exercise the scratch-slot reset path; the
        // result must match the hash-based reference exactly, including
        // the canonical smallest-member block numbering.
        let a = Partition::from_keys(8, |x| x % 3);
        let b = Partition::from_keys(8, |x| (x / 2) % 2);
        let reference = Partition::from_keys(8, |x| (a.block_of(x), b.block_of(x)));
        assert_eq!(a.refine_with(&b), reference);
        assert_eq!(b.refine_with(&a).block_count(), reference.block_count());
    }

    #[test]
    fn refine_and_join_fast_paths() {
        let a = Partition::from_keys(6, |x| x % 2);
        let d = Partition::discrete(6);
        let t = Partition::trivial(6);
        assert_eq!(a.refine_with(&d), d);
        assert_eq!(d.refine_with(&a), d);
        assert_eq!(t.refine_with(&a), a);
        assert_eq!(a.join_with(&t), t);
        assert_eq!(t.join_with(&a), t);
        assert_eq!(d.join_with(&a), a);
        // Empty universe round-trips through every operation.
        let e = Partition::discrete(0);
        assert_eq!(e.refine_with(&e), e);
        assert_eq!(e.join_with(&e), e);
    }

    /// Blocks ascend, every element sits in the block its label names,
    /// labels are numbered by first occurrence, and the partition equals
    /// the hash-grouped one over its own labels.
    fn assert_canonical(p: &Partition) -> Result<(), TestCaseError> {
        let mut next_new = 0;
        for (x, &b) in p.block_ids().iter().enumerate() {
            prop_assert!(b as usize <= next_new, "label {b} before {next_new}");
            next_new = next_new.max(b as usize + 1);
            prop_assert!(p.block(b as usize).contains(&(x as u32)));
        }
        prop_assert_eq!(next_new, p.block_count());
        for block in p.blocks() {
            prop_assert!(!block.is_empty());
            prop_assert!(block.windows(2).all(|w| w[0] < w[1]), "{block:?}");
        }
        prop_assert_eq!(p.blocks().map(<[u32]>::len).sum::<usize>(), p.len());
        prop_assert_eq!(p, &Partition::from_keys(p.len(), |x| p.block_ids()[x]));
        Ok(())
    }

    proptest! {
        #[test]
        fn every_constructor_is_canonical(
            labels in proptest::collection::vec((0usize..6, 0usize..4), 0..40),
        ) {
            let n = labels.len();
            let a = Partition::from_keys(n, |x| labels[x].0);
            let b = Partition::from_keys(n, |x| labels[x].1);
            prop_assert_eq!(&Partition::from_index_keys(n, |x| labels[x].0), &a);
            // Offset keys exercise the slot table's base; spread-out keys
            // exercise the hashing fallback.
            prop_assert_eq!(&Partition::from_index_keys(n, |x| labels[x].0 + 1000), &a);
            prop_assert_eq!(&Partition::from_index_keys(n, |x| labels[x].0 * 100_000), &a);
            let mut uf = UnionFind::new(n);
            for (x, &(k, _)) in labels.iter().enumerate() {
                uf.union(x, k % n);
            }
            for p in [
                Partition::discrete(n),
                Partition::trivial(n),
                a.refine_with(&b),
                a.join_with(&b),
                uf.into_partition(),
                a,
                b,
            ] {
                assert_canonical(&p)?;
            }
        }
    }

    #[test]
    fn join_identity_with_discrete() {
        let a = Partition::from_keys(5, |x| x % 2);
        let d = Partition::discrete(5);
        assert_eq!(a.join_with(&d), a);
        // refinement with trivial is identity as well
        let t = Partition::trivial(5);
        assert_eq!(a.refine_with(&t), a);
    }
}
