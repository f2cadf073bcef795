//! Property-based tests (proptest) over random graphs: structural
//! invariants of the graph substrate and algorithm-level push/pull
//! equivalences that must hold for *every* input, not just the curated
//! families.

use proptest::prelude::*;
use pushpull::core::{
    bellman_ford, bfs, coloring, components, gas, kcore, kruskal, labelprop, mst, pagerank, prim,
    sssp, triangles, validate, Direction,
};
use pushpull::graph::{
    gen, io, reorder, stats, BlockPartition, CsrGraph, GraphBuilder, PartitionAwareGraph,
};

/// Strategy: an arbitrary undirected graph with up to `max_n` vertices.
fn arb_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (2usize..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..(4 * n))
            .prop_map(move |edges| GraphBuilder::undirected(n).edges(edges).build())
    })
}

/// Strategy: an arbitrary weighted graph.
fn arb_weighted_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (arb_graph(max_n), 1u64..u64::MAX)
        .prop_map(|(g, seed)| gen::with_random_weights(&g, 1, 100, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // --- Graph substrate invariants. ---

    #[test]
    fn csr_degrees_sum_to_arcs(g in arb_graph(64)) {
        let total: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, g.num_arcs());
        prop_assert_eq!(g.num_arcs(), 2 * g.num_edges());
    }

    #[test]
    fn csr_adjacency_is_symmetric(g in arb_graph(48)) {
        for (u, v) in g.arcs() {
            prop_assert!(g.has_edge(v, u), "missing reverse arc ({v},{u})");
        }
    }

    #[test]
    fn transpose_is_involutive(g in arb_graph(48)) {
        prop_assert_eq!(g.transpose().transpose(), g);
    }

    #[test]
    fn partition_covers_and_is_consistent(g in arb_graph(64), parts in 1usize..12) {
        let part = BlockPartition::new(g.num_vertices(), parts);
        let mut seen = vec![false; g.num_vertices()];
        for t in 0..parts {
            for v in part.range(t) {
                prop_assert_eq!(part.owner(v), t);
                prop_assert!(!seen[v as usize], "vertex owned twice");
                seen[v as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn partition_aware_split_loses_nothing(g in arb_graph(48), parts in 1usize..8) {
        let part = BlockPartition::new(g.num_vertices(), parts);
        let pa = PartitionAwareGraph::new(&g, part);
        prop_assert_eq!(pa.num_local_arcs() + pa.num_remote_arcs(), g.num_arcs());
        prop_assert_eq!(pa.num_remote_arcs(), part.cut_arcs(&g));
        for v in g.vertices() {
            let [prefix, suffix] = pa.remote_neighbors(v);
            let merged = [prefix, pa.local_neighbors(v), suffix].concat();
            prop_assert_eq!(merged.as_slice(), g.neighbors(v));
        }
    }

    // --- Push/pull equivalences on arbitrary graphs. ---

    #[test]
    fn pagerank_push_equals_pull(g in arb_graph(48)) {
        let opts = pagerank::PrOptions { iters: 6, damping: 0.85 };
        let push = pagerank::pagerank(&g, Direction::Push, &opts);
        let pull = pagerank::pagerank(&g, Direction::Pull, &opts);
        prop_assert!(pagerank::l1_distance(&push, &pull) < 1e-9);
    }

    #[test]
    fn pagerank_mass_is_conserved_without_dangling_vertices(g in arb_graph(40)) {
        prop_assume!(g.vertices().all(|v| g.degree(v) > 0));
        let opts = pagerank::PrOptions { iters: 10, damping: 0.85 };
        let r = pagerank::pagerank(&g, Direction::Pull, &opts);
        let sum: f64 = r.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "rank mass {sum}");
    }

    #[test]
    fn triangle_counts_push_equals_pull(g in arb_graph(32)) {
        prop_assert_eq!(
            triangles::triangle_counts(&g, Direction::Push),
            triangles::triangle_counts(&g, Direction::Pull)
        );
    }

    #[test]
    fn triangle_total_is_consistent_with_per_vertex(g in arb_graph(32)) {
        let per_vertex: u64 = triangles::triangle_counts(&g, Direction::Pull).iter().sum();
        prop_assert_eq!(per_vertex % 3, 0, "corner counts must be divisible by 3");
        prop_assert_eq!(triangles::total_triangles(&g, Direction::Pull), per_vertex / 3);
    }

    #[test]
    fn bfs_all_modes_equal_sequential(g in arb_graph(48), root_sel in 0usize..48) {
        let root = (root_sel % g.num_vertices()) as u32;
        let (expected, _, _) = stats::bfs_levels(&g, root);
        for mode in [bfs::BfsMode::Push, bfs::BfsMode::Pull, bfs::BfsMode::direction_optimizing()] {
            prop_assert_eq!(&bfs::bfs(&g, root, mode).level, &expected);
        }
    }

    #[test]
    fn bfs_parents_form_a_valid_tree(g in arb_graph(48)) {
        let r = bfs::bfs(&g, 0, bfs::BfsMode::Push);
        for v in g.vertices() {
            if v != 0 && r.level[v as usize] != bfs::UNVISITED {
                let p = r.parent[v as usize];
                prop_assert!(g.has_edge(p, v));
                prop_assert_eq!(r.level[p as usize] + 1, r.level[v as usize]);
            }
        }
    }

    #[test]
    fn sssp_push_pull_and_dijkstra_agree(g in arb_weighted_graph(40), delta_exp in 0u32..16) {
        let reference = sssp::dijkstra(&g, 0);
        let delta = 1u64 << delta_exp;
        for dir in Direction::BOTH {
            let r = sssp::sssp_delta(&g, 0, dir, &sssp::SsspOptions { delta });
            prop_assert_eq!(&r.dist, &reference);
        }
    }

    #[test]
    fn sssp_satisfies_triangle_inequality_on_edges(g in arb_weighted_graph(40)) {
        let r = sssp::sssp_delta(&g, 0, Direction::Push, &sssp::SsspOptions { delta: 16 });
        for (u, v, w) in g.edges() {
            let (du, dv) = (r.dist[u as usize], r.dist[v as usize]);
            if du != sssp::INF {
                prop_assert!(dv <= du.saturating_add(w as u64), "edge ({u},{v})");
            }
            if dv != sssp::INF {
                prop_assert!(du <= dv.saturating_add(w as u64), "edge ({v},{u})");
            }
        }
    }

    #[test]
    fn mst_weight_matches_kruskal(g in arb_weighted_graph(40)) {
        let (_, expected) = mst::kruskal_seq(&g);
        for dir in Direction::BOTH {
            prop_assert_eq!(mst::boruvka(&g, dir).total_weight, expected);
        }
    }

    #[test]
    fn mst_edge_count_is_n_minus_components(g in arb_weighted_graph(40)) {
        let components = stats::num_components(&g);
        let r = mst::boruvka(&g, Direction::Pull);
        prop_assert_eq!(r.edges.len(), g.num_vertices() - components);
    }

    #[test]
    fn coloring_strategies_always_proper(g in arb_graph(40), parts in 1usize..6) {
        let opts = coloring::GcOptions::default();
        prop_assert!(coloring::is_proper_coloring(
            &g,
            &coloring::boman(&g, parts, Direction::Push, &opts).colors
        ));
        prop_assert!(coloring::is_proper_coloring(
            &g,
            &coloring::frontier_exploit(&g, Direction::Pull, &opts).colors
        ));
        prop_assert!(coloring::is_proper_coloring(
            &g,
            &coloring::conflict_removal(&g, parts).colors
        ));
    }

    #[test]
    fn greedy_coloring_respects_degree_bound(g in arb_graph(48)) {
        let colors = coloring::greedy_seq(&g);
        prop_assert!(coloring::is_proper_coloring(&g, &colors));
        let used = colors.iter().copied().max().unwrap_or(0) as usize;
        prop_assert!(used <= g.max_degree(), "greedy exceeded Δ+1 colors");
    }

    // --- Extensions: components, GAS, Prim, I/O. ---

    #[test]
    fn components_match_reference_in_both_directions(g in arb_graph(48)) {
        let expected = stats::num_components(&g);
        let push = components::connected_components(&g, Direction::Push);
        let pull = components::connected_components(&g, Direction::Pull);
        prop_assert_eq!(push.num_components(), expected);
        prop_assert_eq!(&push.labels, &pull.labels);
        // Endpoints of every edge share a label.
        for (u, v, _) in g.edges() {
            prop_assert_eq!(push.labels[u as usize], push.labels[v as usize]);
        }
    }

    #[test]
    fn gas_sssp_equals_delta_stepping(g in arb_weighted_graph(32)) {
        let reference = sssp::dijkstra(&g, 0);
        for dir in Direction::BOTH {
            prop_assert_eq!(&gas::gas_sssp(&g, 0, dir), &reference);
        }
    }

    #[test]
    fn prim_matches_kruskal_on_the_roots_component(g in arb_weighted_graph(32)) {
        // Restrict to the root's component by comparing against Kruskal run
        // on a graph filtered to that component.
        let labels = components::connected_components(&g, Direction::Pull).labels;
        let root_label = labels[0];
        let mut b = GraphBuilder::undirected(g.num_vertices());
        for (u, v, w) in g.edges() {
            if labels[u as usize] == root_label {
                b.add_weighted_edge(u, v, w);
            }
        }
        let component = b.build();
        let (_, expected) = if component.is_weighted() {
            mst::kruskal_seq(&component)
        } else {
            (Vec::new(), 0) // component of the root has no edges
        };
        for dir in Direction::BOTH {
            prop_assert_eq!(prim::prim(&g, 0, dir).total_weight, expected);
        }
    }

    #[test]
    fn edge_list_round_trip_is_identity(g in arb_graph(48)) {
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let back = io::read_edge_list(buf.as_slice(), g.num_vertices()).unwrap();
        prop_assert_eq!(back, g);
    }

    #[test]
    fn pagerank_ranks_are_probabilities(g in arb_graph(40)) {
        let r = pagerank::pagerank(
            &g,
            Direction::Pull,
            &pagerank::PrOptions { iters: 8, damping: 0.85 },
        );
        let sum: f64 = r.iter().sum();
        prop_assert!(sum <= 1.0 + 1e-9, "mass {sum} exceeds 1");
        prop_assert!(r.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }

    // --- Tech-report extension algorithms. ---

    #[test]
    fn kcore_matches_sequential_reference(g in arb_graph(48)) {
        let expected = kcore::coreness_seq(&g);
        for dir in Direction::BOTH {
            prop_assert_eq!(&kcore::kcore(&g, dir).coreness, &expected, "{:?}", dir);
        }
    }

    #[test]
    fn kcore_is_monotone_under_edge_removal(g in arb_graph(32)) {
        // Dropping the last vertex's edges can only lower coreness values.
        prop_assume!(g.num_vertices() > 2);
        let n = g.num_vertices();
        let keep = GraphBuilder::undirected(n)
            .edges(
                g.edges()
                    .filter(|&(u, v, _)| (u as usize) < n - 1 && (v as usize) < n - 1)
                    .map(|(u, v, _)| (u, v)),
            )
            .build();
        let full = kcore::kcore(&g, Direction::Pull).coreness;
        let sub = kcore::kcore(&keep, Direction::Pull).coreness;
        for v in 0..n {
            prop_assert!(sub[v] <= full[v], "vertex {} rose from {} to {}", v, full[v], sub[v]);
        }
    }

    #[test]
    fn labelprop_push_equals_pull(g in arb_graph(40), iters in 1usize..12) {
        let push = labelprop::label_propagation(&g, Direction::Push, iters);
        let pull = labelprop::label_propagation(&g, Direction::Pull, iters);
        prop_assert_eq!(push.labels, pull.labels);
        prop_assert_eq!(push.iterations, pull.iterations);
    }

    #[test]
    fn labelprop_fixpoint_labels_are_witnessed(g in arb_graph(40)) {
        // At a fixpoint every vertex's label is the plurality label of its
        // neighborhood, so a non-isolated vertex's label must appear on one
        // of its neighbors. (Mid-run this is false — labels shift under
        // vertices — so the property is conditioned on convergence.)
        let r = labelprop::label_propagation(&g, Direction::Pull, 64);
        prop_assume!(r.converged);
        for v in g.vertices() {
            let l = r.labels[v as usize];
            let ok = g.degree(v) == 0 && l == v
                || g.neighbors(v).iter().any(|&u| r.labels[u as usize] == l);
            prop_assert!(ok, "vertex {} wears unwitnessed label {}", v, l);
        }
    }

    #[test]
    fn bellman_ford_agrees_with_dijkstra(g in arb_weighted_graph(40)) {
        let reference = sssp::dijkstra(&g, 0);
        for dir in Direction::BOTH {
            prop_assert_eq!(&bellman_ford::bellman_ford(&g, 0, dir).dist, &reference);
        }
    }

    #[test]
    fn kruskal_directions_agree_and_match_boruvka(g in arb_weighted_graph(40)) {
        let push = kruskal::kruskal(&g, Direction::Push);
        let pull = kruskal::kruskal(&g, Direction::Pull);
        prop_assert_eq!(&push.edges, &pull.edges);
        prop_assert_eq!(push.total_weight, mst::boruvka(&g, Direction::Pull).total_weight);
        prop_assert!(validate::validate_spanning_forest(&g, &pull.edges).is_ok());
    }

    #[test]
    fn dsu_union_count_tracks_components(g in arb_graph(48)) {
        let mut dsu = kruskal::DisjointSets::new(g.num_vertices());
        for (u, v, _) in g.edges() {
            dsu.union(u, v);
        }
        prop_assert_eq!(dsu.num_sets(), stats::num_components(&g));
    }

    // --- Validators accept real results on arbitrary graphs. ---

    #[test]
    fn validators_accept_all_real_results(g in arb_weighted_graph(40)) {
        let r = bfs::bfs(&g, 0, bfs::BfsMode::direction_optimizing());
        prop_assert!(validate::validate_bfs(&g, 0, &r).is_ok());
        let d = sssp::dijkstra(&g, 0);
        prop_assert!(validate::validate_sssp(&g, 0, &d).is_ok());
        let colors = coloring::greedy_seq(&g);
        prop_assert!(validate::validate_coloring(&g, &colors).is_ok());
    }

    // --- Reordering is an isomorphism. ---

    #[test]
    fn reordering_preserves_algorithm_results(g in arb_weighted_graph(32)) {
        let p = reorder::degree_order(&g);
        let h = reorder::apply_permutation(&g, &p);
        // Coreness commutes with relabeling.
        let core_g = kcore::kcore(&g, Direction::Pull).coreness;
        let core_h = kcore::kcore(&h, Direction::Pull).coreness;
        prop_assert_eq!(p.map_values(&core_g), core_h);
        // Shortest-path distances commute with relabeling (root tracks too).
        let d_g = sssp::dijkstra(&g, 0);
        let d_h = sssp::dijkstra(&h, p.map(0));
        prop_assert_eq!(p.map_values(&d_g), d_h);
        // Total MST weight is invariant.
        prop_assert_eq!(
            kruskal::kruskal(&g, Direction::Pull).total_weight,
            kruskal::kruskal(&h, Direction::Pull).total_weight
        );
    }

    #[test]
    fn bfs_order_is_a_bijection(g in arb_graph(48)) {
        let p = reorder::bfs_order(&g, 0);
        let inv = p.inverse();
        for v in g.vertices() {
            prop_assert_eq!(inv.map(p.map(v)), v);
        }
    }
}
