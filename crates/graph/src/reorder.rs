//! Vertex reordering for memory locality.
//!
//! §6 of the paper attributes most push/pull performance deltas to memory
//! behaviour — cache misses, TLB misses, and how well "cache prefetchers"
//! cope with the access pattern (§6.5). Vertex order is the main software
//! lever over that behaviour: neighbors with nearby ids share cache lines
//! and TLB pages in every per-vertex array (`pr`, `dist`, `labels`, …).
//!
//! This module provides the two classic orderings plus the machinery to
//! apply an arbitrary permutation:
//!
//! * [`degree_order`] — hubs first. On skewed (R-MAT-like) graphs the hot
//!   high-degree vertices end up sharing a few cache lines;
//! * [`bfs_order`] — breadth-first discovery order from a pseudo-peripheral
//!   root. Neighbors get nearby ids, which turns pull-side gathers into
//!   near-streaming sweeps on meshes/road networks;
//! * [`apply_permutation`] — relabel a graph with any bijection.
//!
//! `tables ext3` (the vertex-order × prefetcher cache ablation) runs
//! instrumented PageRank over original vs. reordered layouts to regenerate
//! the effect.

use crate::{CsrGraph, GraphBuilder, VertexId};

/// A vertex relabeling: `perm[old] = new`. The inverse (`order[new] = old`)
/// is available via [`Permutation::inverse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<VertexId>,
}

impl Permutation {
    /// Wraps `perm[old] = new`, validating bijectivity.
    pub fn new(perm: Vec<VertexId>) -> Self {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &p in &perm {
            assert!((p as usize) < n, "permutation target out of range");
            assert!(!seen[p as usize], "permutation repeats target {p}");
            seen[p as usize] = true;
        }
        Self { perm }
    }

    /// The identity on `n` vertices.
    pub fn identity(n: usize) -> Self {
        Self {
            perm: (0..n as VertexId).collect(),
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// New id of `old`.
    #[inline]
    pub fn map(&self, old: VertexId) -> VertexId {
        self.perm[old as usize]
    }

    /// The inverse permutation (`inverse.map(new) = old`).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0 as VertexId; self.perm.len()];
        for (old, &new) in self.perm.iter().enumerate() {
            inv[new as usize] = old as VertexId;
        }
        Permutation { perm: inv }
    }

    /// Maps a per-vertex value array from old to new labeling.
    pub fn map_values<T: Clone>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.perm.len());
        let mut out: Vec<T> = values.to_vec();
        for (old, &new) in self.perm.iter().enumerate() {
            out[new as usize] = values[old].clone();
        }
        out
    }
}

/// Relabels `g` so that vertex `old` becomes `perm.map(old)`. Weights ride
/// along; the result is isomorphic to the input.
pub fn apply_permutation(g: &CsrGraph, perm: &Permutation) -> CsrGraph {
    assert_eq!(perm.len(), g.num_vertices());
    let b = if g.is_directed() {
        GraphBuilder::directed(g.num_vertices())
    } else {
        GraphBuilder::undirected(g.num_vertices())
    };
    if g.is_weighted() {
        b.weighted_edges(g.edges().map(|(u, v, w)| (perm.map(u), perm.map(v), w)))
            .build()
    } else {
        b.edges(g.edges().map(|(u, v, _)| (perm.map(u), perm.map(v))))
            .build()
    }
}

/// Descending-degree ordering: the hubs of a skewed graph receive the
/// smallest ids (ties broken by old id, so the order is deterministic).
pub fn degree_order(g: &CsrGraph) -> Permutation {
    let mut by_degree: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    let mut perm = vec![0 as VertexId; g.num_vertices()];
    for (new, &old) in by_degree.iter().enumerate() {
        perm[old as usize] = new as VertexId;
    }
    Permutation::new(perm)
}

/// BFS discovery ordering from `root`; unreached vertices keep their
/// relative order after all reached ones. Adjacent vertices end up at most
/// one frontier apart in the new id space — the locality transform behind
/// bandwidth-minimizing schemes like Cuthill–McKee.
pub fn bfs_order(g: &CsrGraph, root: VertexId) -> Permutation {
    let n = g.num_vertices();
    let mut perm = vec![VertexId::MAX; n];
    let mut next = 0 as VertexId;
    let mut queue = std::collections::VecDeque::new();
    perm[root as usize] = next;
    next += 1;
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        for &u in g.neighbors(v) {
            if perm[u as usize] == VertexId::MAX {
                perm[u as usize] = next;
                next += 1;
                queue.push_back(u);
            }
        }
    }
    for p in &mut perm {
        if *p == VertexId::MAX {
            *p = next;
            next += 1;
        }
    }
    Permutation::new(perm)
}

/// Average absolute id distance across edges — the locality score the
/// orderings optimize (lower = neighbors closer in memory).
pub fn edge_span(g: &CsrGraph) -> f64 {
    let (mut total, mut count) = (0u64, 0u64);
    for (u, v, _) in g.edges() {
        total += u.abs_diff(v) as u64;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, stats};
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn shuffled(g: &CsrGraph, seed: u64) -> (CsrGraph, Permutation) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut ids: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        ids.shuffle(&mut rng);
        let p = Permutation::new(ids);
        (apply_permutation(g, &p), p)
    }

    #[test]
    fn permutation_roundtrip() {
        let p = Permutation::new(vec![2, 0, 1]);
        let inv = p.inverse();
        for v in 0..3 {
            assert_eq!(inv.map(p.map(v)), v);
        }
        assert_eq!(p.map_values(&['a', 'b', 'c']), vec!['b', 'c', 'a']);
    }

    #[test]
    #[should_panic(expected = "repeats target")]
    fn permutation_rejects_duplicates() {
        Permutation::new(vec![0, 0, 1]);
    }

    #[test]
    fn apply_preserves_structure() {
        let g = gen::rmat(7, 4, 3);
        let (h, p) = shuffled(&g, 9);
        assert_eq!(h.num_edges(), g.num_edges());
        let mut dg: Vec<_> = g.vertices().map(|v| g.degree(v)).collect();
        let mut dh: Vec<_> = h.vertices().map(|v| h.degree(v)).collect();
        dg.sort_unstable();
        dh.sort_unstable();
        assert_eq!(dg, dh, "degree multiset must survive relabeling");
        assert_eq!(stats::num_components(&g), stats::num_components(&h));
        // Edges map exactly.
        for (u, v, _) in g.edges() {
            assert!(h.has_edge(p.map(u), p.map(v)));
        }
    }

    #[test]
    fn apply_preserves_weights() {
        let g = gen::with_random_weights(&gen::cycle(10), 1, 9, 5);
        let (h, p) = shuffled(&g, 1);
        for (u, v, w) in g.edges() {
            assert_eq!(h.edge_weight(p.map(u), p.map(v)), Some(w));
        }
    }

    #[test]
    fn degree_order_places_hubs_first() {
        let g = gen::rmat(8, 6, 1);
        let p = degree_order(&g);
        let h = apply_permutation(&g, &p);
        let degrees: Vec<_> = h.vertices().map(|v| h.degree(v)).collect();
        assert!(
            degrees.windows(2).all(|w| w[0] >= w[1]),
            "degrees must be non-increasing after reorder"
        );
    }

    #[test]
    fn bfs_order_improves_span_on_shuffled_grid() {
        let g = gen::road_grid(20, 25, 1.0, 0);
        let (shuf, _) = shuffled(&g, 4);
        let reordered = apply_permutation(&shuf, &bfs_order(&shuf, 0));
        assert!(
            edge_span(&reordered) < edge_span(&shuf) / 3.0,
            "span {} vs {}",
            edge_span(&reordered),
            edge_span(&shuf)
        );
    }

    #[test]
    fn bfs_order_handles_disconnected_graphs() {
        let g = gen::erdos_renyi(50, 20, 7); // many components
        let p = bfs_order(&g, 0);
        // Must still be a bijection covering every vertex.
        assert_eq!(p.inverse().len(), 50);
        let h = apply_permutation(&g, &p);
        assert_eq!(h.num_edges(), g.num_edges());
    }

    #[test]
    fn identity_and_empty() {
        let g = gen::path(5);
        let h = apply_permutation(&g, &Permutation::identity(5));
        assert_eq!(h, g);
        assert!(Permutation::identity(0).is_empty());
        assert_eq!(edge_span(&gen::path(2)), 1.0);
    }
}
