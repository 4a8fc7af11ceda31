//! A small calculus of finite binary relations over event indices, enough
//! to express the axiomatic model of Fig. 6 (unions, compositions,
//! restrictions, acyclicity).

/// A binary relation over `0..n`, stored as a bit matrix: row `a` is
/// `n.div_ceil(64)` consecutive words whose bit `b` says whether `a → b`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Relation {
    n: usize,
    /// Words per row.
    words: usize,
    /// The rows, one after another. Bits at or beyond `n` in a row stay
    /// zero, so word-wise equality is relation equality.
    bits: Vec<u64>,
}

/// The indices of the set bits of `w`, lowest first.
fn ones(mut w: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (w != 0).then(|| {
            let i = w.trailing_zeros() as usize;
            w &= w - 1;
            i
        })
    })
}

impl Relation {
    /// The empty relation over `0..n`.
    pub fn new(n: usize) -> Relation {
        let words = n.div_ceil(64);
        Relation {
            n,
            words,
            bits: vec![0; n * words],
        }
    }

    /// Number of elements of the carrier.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the relation has no edges.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    fn row(&self, a: usize) -> &[u64] {
        &self.bits[a * self.words..(a + 1) * self.words]
    }

    fn row_mut(&mut self, a: usize) -> &mut [u64] {
        &mut self.bits[a * self.words..(a + 1) * self.words]
    }

    /// The word index and bit mask of the edge `a → b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is not below `n`: in the flat layout `b ≥ n`
    /// would otherwise alias an edge of a later row.
    fn bit(&self, a: usize, b: usize) -> (usize, u64) {
        assert!(
            a < self.n && b < self.n,
            "edge {a} → {b} outside a relation over 0..{}",
            self.n
        );
        (a * self.words + b / 64, 1 << (b % 64))
    }

    /// The targets of the edges out of `a`, in increasing order.
    fn successors(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(a)
            .iter()
            .enumerate()
            .flat_map(|(k, &w)| ones(w).map(move |i| k * 64 + i))
    }

    /// Add the edge `a → b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn add(&mut self, a: usize, b: usize) {
        let (i, mask) = self.bit(a, b);
        self.bits[i] |= mask;
    }

    /// Whether `a → b` is in the relation.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn contains(&self, a: usize, b: usize) -> bool {
        let (i, mask) = self.bit(a, b);
        self.bits[i] & mask != 0
    }

    /// Build from an edge list.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Relation {
        let mut r = Relation::new(n);
        for (a, b) in edges {
            r.add(a, b);
        }
        r
    }

    /// The edges, in index order, without collecting them.
    fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |a| self.successors(a).map(move |b| (a, b)))
    }

    /// All edges, in index order.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        self.pairs().collect()
    }

    /// Union of two relations.
    #[must_use]
    pub fn union(&self, other: &Relation) -> Relation {
        let mut r = self.clone();
        r.extend(other);
        r
    }

    /// In-place union.
    pub fn extend(&mut self, other: &Relation) {
        assert_eq!(self.n, other.n);
        for (w, o) in self.bits.iter_mut().zip(&other.bits) {
            *w |= o;
        }
    }

    /// Relational composition `self ; other`.
    #[must_use]
    pub fn compose(&self, other: &Relation) -> Relation {
        assert_eq!(self.n, other.n);
        let mut r = Relation::new(self.n);
        for a in 0..self.n {
            for m in self.successors(a) {
                for (w, o) in r.row_mut(a).iter_mut().zip(other.row(m)) {
                    *w |= o;
                }
            }
        }
        r
    }

    /// Intersection.
    #[must_use]
    pub fn intersect(&self, other: &Relation) -> Relation {
        assert_eq!(self.n, other.n);
        let mut r = self.clone();
        for (w, o) in r.bits.iter_mut().zip(&other.bits) {
            *w &= o;
        }
        r
    }

    /// Inverse relation.
    #[must_use]
    pub fn inverse(&self) -> Relation {
        let mut r = Relation::new(self.n);
        for (a, b) in self.pairs() {
            r.add(b, a);
        }
        r
    }

    /// Keep only edges whose source satisfies `dom` and target satisfies
    /// `rng` (the `[A]; r; [B]` idiom of cat files).
    #[must_use]
    pub fn restrict(&self, dom: impl Fn(usize) -> bool, rng: impl Fn(usize) -> bool) -> Relation {
        let mut mask = vec![0u64; self.words];
        for b in (0..self.n).filter(|&b| rng(b)) {
            mask[b / 64] |= 1 << (b % 64);
        }
        let mut r = Relation::new(self.n);
        for a in (0..self.n).filter(|&a| dom(a)) {
            let src = self.row(a);
            for ((w, s), m) in r.row_mut(a).iter_mut().zip(src).zip(&mask) {
                *w = s & m;
            }
        }
        r
    }

    /// Keep only edges satisfying `keep`.
    #[must_use]
    pub fn filter(&self, keep: impl Fn(usize, usize) -> bool) -> Relation {
        let mut r = Relation::new(self.n);
        for (a, b) in self.pairs() {
            if keep(a, b) {
                r.add(a, b);
            }
        }
        r
    }

    /// Whether the relation is acyclic (no directed cycle; a self-edge is a
    /// cycle).
    pub fn is_acyclic(&self) -> bool {
        // iterative DFS with colours: an edge to a grey node (one on the
        // stack) closes a cycle
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour = vec![Colour::White; self.n];
        for start in 0..self.n {
            if colour[start] != Colour::White {
                continue;
            }
            colour[start] = Colour::Grey;
            let mut stack = vec![(start, self.successors(start))];
            while let Some((node, next)) = stack.last_mut() {
                let (node, child) = (*node, next.next());
                match child {
                    None => {
                        colour[node] = Colour::Black;
                        stack.pop();
                    }
                    Some(child) => match colour[child] {
                        Colour::Grey => return false,
                        Colour::White => {
                            colour[child] = Colour::Grey;
                            stack.push((child, self.successors(child)));
                        }
                        Colour::Black => {}
                    },
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_relation_is_acyclic() {
        assert!(Relation::new(5).is_acyclic());
        assert!(Relation::new(0).is_acyclic());
    }

    #[test]
    fn self_edge_is_a_cycle() {
        let r = Relation::from_edges(3, [(1, 1)]);
        assert!(!r.is_acyclic());
    }

    #[test]
    fn two_cycle_detected() {
        let r = Relation::from_edges(4, [(0, 1), (1, 2), (2, 0)]);
        assert!(!r.is_acyclic());
    }

    #[test]
    fn dag_is_acyclic() {
        let r = Relation::from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        assert!(r.is_acyclic());
    }

    #[test]
    fn compose_follows_paths() {
        let a = Relation::from_edges(4, [(0, 1), (2, 3)]);
        let b = Relation::from_edges(4, [(1, 2)]);
        let c = a.compose(&b);
        assert_eq!(c.edges(), vec![(0, 2)]);
    }

    #[test]
    fn union_and_intersect() {
        let a = Relation::from_edges(3, [(0, 1)]);
        let b = Relation::from_edges(3, [(1, 2), (0, 1)]);
        assert_eq!(a.union(&b).edges(), vec![(0, 1), (1, 2)]);
        assert_eq!(a.intersect(&b).edges(), vec![(0, 1)]);
    }

    #[test]
    fn inverse_swaps_edges() {
        let a = Relation::from_edges(3, [(0, 2)]);
        assert_eq!(a.inverse().edges(), vec![(2, 0)]);
    }

    #[test]
    fn restrict_applies_domain_and_range() {
        let a = Relation::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let r = a.restrict(|x| x != 1, |y| y != 3);
        assert_eq!(r.edges(), vec![(0, 1)]);
    }

    #[test]
    fn rows_spanning_several_words() {
        let n = 130;
        let a = Relation::from_edges(n, [(0, 70), (70, 129), (129, 1), (3, 64)]);
        let b = Relation::from_edges(n, [(70, 128), (64, 63)]);
        assert_eq!(a.compose(&b).edges(), vec![(0, 128), (3, 63)]);
        assert_eq!(
            a.restrict(|x| x != 129, |y| y >= 64).edges(),
            vec![(0, 70), (3, 64), (70, 129)]
        );
        assert_eq!(
            a.inverse().edges(),
            vec![(1, 129), (64, 3), (70, 0), (129, 70)]
        );
        assert!(a.is_acyclic());
        assert!(!a.union(&Relation::from_edges(n, [(1, 0)])).is_acyclic());
    }

    #[test]
    #[should_panic(expected = "outside a relation")]
    fn add_rejects_an_out_of_range_target() {
        // 0 → 64 would otherwise set 1 → 0 in the flat layout
        Relation::new(64).add(0, 64);
    }

    #[test]
    #[should_panic(expected = "outside a relation")]
    fn contains_rejects_an_out_of_range_target() {
        Relation::from_edges(64, [(1, 0)]).contains(0, 64);
    }

    #[test]
    fn long_chain_acyclic_and_with_backedge_cyclic() {
        let n = 60;
        let mut r = Relation::new(n);
        for i in 0..n - 1 {
            r.add(i, i + 1);
        }
        assert!(r.is_acyclic());
        r.add(n - 1, 0);
        assert!(!r.is_acyclic());
    }
}
