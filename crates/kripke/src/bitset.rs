//! A fixed-capacity bitset used for world sets and state sets.

use std::fmt;

/// A set of indices in `0..len`, stored as packed 64-bit words.
///
/// All binary operations require both operands to have the same length;
/// they panic otherwise (mixing sets from different models is a logic bug,
/// not a recoverable condition).
///
/// # Example
///
/// ```
/// use kbp_kripke::BitSet;
///
/// let mut s = BitSet::new(10);
/// s.insert(3);
/// s.insert(7);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 7]);
/// assert_eq!(s.count(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty set over the universe `0..len`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates the full set over the universe `0..len`.
    #[must_use]
    pub fn full(len: usize) -> Self {
        let mut s = BitSet {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        s.trim();
        s
    }

    /// Creates a set from the indices yielded by `iter`.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    #[must_use]
    pub fn from_indices(len: usize, iter: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new(len);
        for i in iter {
            s.insert(i);
        }
        s
    }

    fn trim(&mut self) {
        let extra = self.words.len() * 64 - self.len;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }

    /// The universe size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the universe is empty (`len == 0`).
    #[must_use]
    pub fn is_empty_universe(&self) -> bool {
        self.len == 0
    }

    /// Whether no index is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of indices present.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Inserts an index; returns `true` if newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Removes an index; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Whether index `i` is present.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    fn check_compat(&self, other: &BitSet) {
        assert_eq!(
            self.len, other.len,
            "bitset length mismatch: {} vs {}",
            self.len, other.len
        );
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics on universe-size mismatch.
    pub fn union_with(&mut self, other: &BitSet) {
        self.check_compat(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    ///
    /// # Panics
    ///
    /// Panics on universe-size mismatch.
    pub fn intersect_with(&mut self, other: &BitSet) {
        self.check_compat(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place set difference (`self \ other`).
    ///
    /// # Panics
    ///
    /// Panics on universe-size mismatch.
    pub fn difference_with(&mut self, other: &BitSet) {
        self.check_compat(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// In-place symmetric difference (`self Δ other`, word-level XOR).
    ///
    /// # Panics
    ///
    /// Panics on universe-size mismatch.
    pub fn xor_with(&mut self, other: &BitSet) {
        self.check_compat(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// The backing words, least-significant bit first: bit `i % 64` of
    /// word `i / 64` is index `i`. Bits at positions `>= len` are zero.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the backing words for kernel code in this crate.
    /// Callers must keep bits at positions `>= len` zero.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// In-place complement (relative to the universe).
    pub fn complement(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.trim();
    }

    /// Returns the complement as a new set.
    #[must_use]
    pub fn complemented(&self) -> BitSet {
        let mut s = self.clone();
        s.complement();
        s
    }

    /// Whether `self ⊆ other`.
    ///
    /// # Panics
    ///
    /// Panics on universe-size mismatch.
    #[must_use]
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.check_compat(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Whether the sets share at least one index.
    ///
    /// # Panics
    ///
    /// Panics on universe-size mismatch.
    #[must_use]
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.check_compat(other);
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// The smallest index present, if any.
    #[must_use]
    pub fn first(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterates over present indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + b)
            })
        })
    }

    /// Removes all indices.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects indices into a set whose universe is just large enough.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let len = items.iter().max().map_or(0, |m| m + 1);
        BitSet::from_indices(len, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(64));
        assert!(!s.contains(1));
        assert!(s.remove(64));
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn full_and_complement_respect_trailing_bits() {
        let s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        let mut c = s.clone();
        c.complement();
        assert!(c.is_empty());
        let e = BitSet::new(70).complemented();
        assert_eq!(e, s);
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_indices(10, [1, 2, 3]);
        let b = BitSet::from_indices(10, [3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, BitSet::from_indices(10, [1, 2, 3, 4]));
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i, BitSet::from_indices(10, [3]));
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d, BitSet::from_indices(10, [1, 2]));
        assert!(i.is_subset(&a));
        assert!(a.intersects(&b));
        assert!(!i.intersects(&d));
    }

    #[test]
    fn iteration_is_sorted() {
        let s = BitSet::from_indices(200, [150, 3, 64, 65]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 65, 150]);
        assert_eq!(s.first(), Some(3));
        assert_eq!(BitSet::new(5).first(), None);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mixing_universes_panics() {
        let mut a = BitSet::new(10);
        let b = BitSet::new(11);
        a.union_with(&b);
    }

    #[test]
    fn from_iterator_sizes_universe() {
        let s: BitSet = [5usize, 2].into_iter().collect();
        assert_eq!(s.len(), 6);
        assert!(s.contains(5));
    }

    #[test]
    fn xor_is_symmetric_difference() {
        let a = BitSet::from_indices(70, [1, 2, 64, 69]);
        let b = BitSet::from_indices(70, [2, 3, 64]);
        let mut x = a.clone();
        x.xor_with(&b);
        assert_eq!(x, BitSet::from_indices(70, [1, 3, 69]));
        // a Δ a = ∅, and Δ with the full set is complement.
        let mut y = a.clone();
        y.xor_with(&a);
        assert!(y.is_empty());
        let mut z = a.clone();
        z.xor_with(&BitSet::full(70));
        assert_eq!(z, a.complemented());
    }

    #[test]
    fn words_expose_packed_bits() {
        let s = BitSet::from_indices(130, [0, 63, 64, 129]);
        let w = s.words();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], 1 | (1 << 63));
        assert_eq!(w[1], 1);
        assert_eq!(w[2], 1 << 1);
        // Trailing bits beyond `len` stay zero even through complement.
        assert_eq!(BitSet::new(70).complemented().words()[1] >> 6, 0);
    }

    #[test]
    fn zero_universe() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert!(s.is_empty_universe());
        assert_eq!(s.count(), 0);
        assert_eq!(BitSet::full(0), s);
    }
}
