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
        let mut blocks: Vec<Vec<u32>> = Vec::new();
        let mut rep_to_block = vec![u32::MAX; n];
        for x in 0..n {
            let r = self.find(x);
            let b = if rep_to_block[r] == u32::MAX {
                let id = blocks.len() as u32;
                rep_to_block[r] = id;
                blocks.push(Vec::new());
                id
            } else {
                rep_to_block[r]
            };
            block_of[x] = b;
            blocks[b as usize].push(x as u32);
        }
        Partition { block_of, blocks }
    }
}

/// A partition of `0..len` into disjoint, jointly exhaustive blocks.
///
/// Blocks have dense ids assigned in order of their smallest member.
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
    block_of: Vec<u32>,
    blocks: Vec<Vec<u32>>,
}

impl Partition {
    /// The discrete partition (every element alone).
    #[must_use]
    pub fn discrete(len: usize) -> Self {
        Partition {
            block_of: (0..len as u32).collect(),
            blocks: (0..len as u32).map(|x| vec![x]).collect(),
        }
    }

    /// The trivial partition (all elements in one block); empty if `len == 0`.
    #[must_use]
    pub fn trivial(len: usize) -> Self {
        if len == 0 {
            return Partition {
                block_of: Vec::new(),
                blocks: Vec::new(),
            };
        }
        Partition {
            block_of: vec![0; len],
            blocks: vec![(0..len as u32).collect()],
        }
    }

    /// Builds a partition by grouping elements with equal keys.
    #[must_use]
    pub fn from_keys<K: std::hash::Hash + Eq>(len: usize, key: impl Fn(usize) -> K) -> Self {
        use std::collections::HashMap;
        let mut map: HashMap<K, u32> = HashMap::new();
        let mut block_of = Vec::with_capacity(len);
        let mut blocks: Vec<Vec<u32>> = Vec::new();
        for x in 0..len {
            let k = key(x);
            let b = *map.entry(k).or_insert_with(|| {
                blocks.push(Vec::new());
                (blocks.len() - 1) as u32
            });
            block_of.push(b);
            blocks[b as usize].push(x as u32);
        }
        Partition { block_of, blocks }
    }

    /// Builds a partition from a dense label vector whose ids are already
    /// assigned in order of first occurrence (label `k` first appears only
    /// after labels `0..k`), as the refinement kernels produce them.
    pub(crate) fn from_dense_labels(block_of: Vec<u32>, count: usize) -> Self {
        let mut blocks: Vec<Vec<u32>> = vec![Vec::new(); count];
        for (x, &b) in block_of.iter().enumerate() {
            blocks[b as usize].push(x as u32);
        }
        Partition { block_of, blocks }
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
        self.blocks.len()
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
        &self.blocks[b]
    }

    /// Iterates over all blocks as slices.
    pub fn blocks(&self) -> impl Iterator<Item = &[u32]> {
        self.blocks.iter().map(Vec::as_slice)
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
        for block in &self.blocks {
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
        let mut block_of = Vec::with_capacity(n);
        let mut blocks: Vec<Vec<u32>> = Vec::new();
        for (x, &t) in tmp_of.iter().enumerate() {
            let id = if remap[t as usize] == u32::MAX {
                let id = blocks.len() as u32;
                remap[t as usize] = id;
                blocks.push(Vec::new());
                id
            } else {
                remap[t as usize]
            };
            block_of.push(id);
            blocks[id as usize].push(x as u32);
        }
        Partition { block_of, blocks }
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
        for blocks in [&self.blocks, &other.blocks] {
            for block in blocks {
                // Star unions against the block's first member keep the
                // union-find trees shallow (one find chain per member).
                let first = block[0] as usize;
                for &w in &block[1..] {
                    uf.union(first, w as usize);
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
