//! Property: the §5 partition-aware view yields exactly the split the
//! paper's copied `2n + 2m` layout stores (the reference below) — in order,
//! for targets and weights, for any graph and any part count, including
//! `p > n` and `n` not divisible by `p`.

use pp_graph::{gen, BlockPartition, CsrGraph, GraphBuilder, PartitionAwareGraph, VertexId};
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (1usize..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..(4 * n))
            .prop_map(move |edges| GraphBuilder::undirected(n).edges(edges).build())
    })
}

/// One row of the copied split: `row` (parallel to `v`'s neighbors) filed
/// into `[local, remote]` by each neighbor's owner, in row order.
fn copy_split<T: Copy>(g: &CsrGraph, part: BlockPartition, v: VertexId, row: &[T]) -> [Vec<T>; 2] {
    let (mut local, mut remote) = (Vec::new(), Vec::new());
    for (&u, &x) in g.neighbors(v).iter().zip(row) {
        if part.owner(u) == part.owner(v) {
            local.push(x);
        } else {
            remote.push(x);
        }
    }
    [local, remote]
}

fn assert_view_matches_copy(g: &CsrGraph, p: usize) {
    let part = BlockPartition::new(g.num_vertices(), p);
    let pa = PartitionAwareGraph::new(g, part);
    let mut local_arcs = 0;
    for v in g.vertices() {
        let [local, remote] = copy_split(g, part, v, g.neighbors(v));
        local_arcs += local.len();
        assert_eq!(pa.local_neighbors(v), local, "p={p} v={v}: local run");
        let remote_runs = pa.remote_neighbors(v).concat();
        assert_eq!(remote_runs, remote, "p={p} v={v}: remote runs");
        let degrees = (pa.local_degree(v), pa.remote_degree(v));
        assert_eq!(degrees, (local.len(), remote.len()), "p={p} v={v}");
        if g.is_weighted() {
            let [wl, wr] = copy_split(g, part, v, g.neighbor_weights(v));
            let (prefix, owned, suffix) = pa.split(v, g.neighbor_weights(v));
            assert_eq!(owned, wl, "p={p} v={v}: local weights");
            assert_eq!([prefix, suffix].concat(), wr, "p={p} v={v}: remote weights");
        }
    }
    assert_eq!(pa.num_local_arcs(), local_arcs, "p={p}");
    assert_eq!(pa.num_remote_arcs(), g.num_arcs() - local_arcs, "p={p}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn split_is_a_permutation_of_csr_for_any_partition(
        g in arb_graph(40),
        p in 1usize..64,
    ) {
        // `p` ranges past `max_n`, so part counts exceeding the vertex
        // count (empty parts) are drawn routinely.
        assert_view_matches_copy(&g, p);
    }

    #[test]
    fn weighted_split_is_a_permutation_too(
        g in arb_graph(24),
        p in 1usize..40,
        seed in 0u64..1000,
    ) {
        assert_view_matches_copy(&gen::with_random_weights(&g, 1, 64, seed), p);
    }
}

#[test]
fn non_divisible_and_oversized_part_counts_explicitly() {
    // The deterministic edge cases the properties above draw by chance:
    // n % p != 0, p == n, and p > n (some parts own no vertices).
    for (n, p) in [(7usize, 3usize), (10, 4), (5, 5), (3, 11)] {
        let g = gen::erdos_renyi(n, 2 * n, 42);
        assert_view_matches_copy(&g, p);
        assert_view_matches_copy(&gen::with_random_weights(&g, 1, 9, 7), p);
    }
    // A single vertex split over many parts: all but one part own nothing.
    assert_view_matches_copy(&GraphBuilder::undirected(1).build(), 8);
}
