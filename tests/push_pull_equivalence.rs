//! The paper's foundational invariant (§3): push and pull are two
//! *schedules* of the same algorithm — results must be identical across
//! directions, and identical to a sequential reference, on every graph
//! family the paper evaluates.

use proptest::prelude::*;
use pushpull::core::{
    bc, bfs, coloring, components, kcore, labelprop, mst, pagerank, sssp, triangles, validate,
    Direction,
};
use pushpull::engine::{algo, DirectionPolicy, Engine, ExecutionMode, ProbeShards, Runner};
use pushpull::graph::datasets::{Dataset, Scale};
use pushpull::graph::{gen, stats, CsrGraph, GraphBuilder};
use pushpull::telemetry::{CountingProbe, NullProbe};

fn families() -> Vec<(&'static str, CsrGraph)> {
    let mut v: Vec<(&'static str, CsrGraph)> = vec![
        ("path", gen::path(64)),
        ("cycle", gen::cycle(65)),
        ("star", gen::star(64)),
        ("complete", gen::complete(24)),
        ("binary-tree", gen::binary_tree(63)),
        ("erdos-renyi", gen::erdos_renyi(256, 1024, 7)),
        ("rmat", gen::rmat(8, 8, 7)),
        ("road-grid", gen::road_grid(12, 14, 0.6, 7)),
    ];
    for ds in Dataset::ALL {
        v.push((ds.id(), ds.generate(Scale::Test)));
    }
    v
}

#[test]
fn pagerank_directions_agree_everywhere() {
    let opts = pagerank::PrOptions {
        iters: 12,
        damping: 0.85,
    };
    for (name, g) in families() {
        let reference = pagerank::pagerank_seq(&g, &opts);
        for dir in Direction::BOTH {
            let r = pagerank::pagerank(&g, dir, &opts);
            let diff = pagerank::l1_distance(&reference, &r);
            assert!(diff < 1e-9, "{name} {dir:?}: L1 {diff}");
        }
    }
}

#[test]
fn triangle_counts_agree_everywhere() {
    for (name, g) in families() {
        let reference = triangles::triangle_counts_seq(&g);
        for dir in Direction::BOTH {
            assert_eq!(
                triangles::triangle_counts(&g, dir),
                reference,
                "{name} {dir:?}"
            );
        }
    }
}

#[test]
fn bfs_levels_agree_everywhere() {
    for (name, g) in families() {
        if g.num_vertices() == 0 {
            continue;
        }
        let (expected, _, _) = stats::bfs_levels(&g, 0);
        for mode in [
            bfs::BfsMode::Push,
            bfs::BfsMode::Pull,
            bfs::BfsMode::direction_optimizing(),
        ] {
            let r = bfs::bfs(&g, 0, mode);
            assert_eq!(r.level, expected, "{name} {mode:?}");
        }
    }
}

#[test]
fn sssp_agrees_with_dijkstra_everywhere() {
    for (name, g) in families() {
        let gw = gen::with_random_weights(&g, 1, 64, 0xabc);
        let reference = sssp::dijkstra(&gw, 0);
        for dir in Direction::BOTH {
            for delta in [4u64, 64, 1 << 14] {
                let r = sssp::sssp_delta(&gw, 0, dir, &sssp::SsspOptions { delta });
                assert_eq!(r.dist, reference, "{name} {dir:?} Δ={delta}");
            }
        }
    }
}

#[test]
fn betweenness_agrees_with_brandes_everywhere() {
    for (name, g) in families() {
        // Exact BC is O(n·m): cap sources on the larger families.
        let cap = Some(24usize.min(g.num_vertices()));
        let reference = bc::betweenness_seq(&g, cap);
        for dir in Direction::BOTH {
            let r = bc::betweenness(&g, dir, &bc::BcOptions { max_sources: cap });
            for (i, (a, b)) in r.scores.iter().zip(&reference).enumerate() {
                assert!(
                    (a - b).abs() < 1e-6 * (1.0 + b.abs()),
                    "{name} {dir:?} vertex {i}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn mst_weight_agrees_with_kruskal_everywhere() {
    for (name, g) in families() {
        let gw = gen::with_random_weights(&g, 1, 1000, 0xdef);
        let (kedges, kweight) = mst::kruskal_seq(&gw);
        for dir in Direction::BOTH {
            let r = mst::boruvka(&gw, dir);
            assert_eq!(r.total_weight, kweight, "{name} {dir:?}");
            assert_eq!(r.edges.len(), kedges.len(), "{name} {dir:?} edge count");
        }
    }
}

#[test]
fn coloring_proper_in_both_directions_everywhere() {
    let opts = coloring::GcOptions::default();
    for (name, g) in families() {
        for dir in Direction::BOTH {
            for parts in [2usize, 5] {
                let r = coloring::boman(&g, parts, dir, &opts);
                assert!(
                    coloring::is_proper_coloring(&g, &r.colors),
                    "{name} {dir:?} parts={parts}"
                );
            }
        }
    }
}

#[test]
fn coloring_push_and_pull_schedule_identically() {
    // §6.1: "the number of locks acquired is the same in both variants" —
    // our deterministic tie-breaking makes the whole iteration trace equal.
    let opts = coloring::GcOptions::default();
    for (name, g) in families() {
        let push = coloring::boman(&g, 4, Direction::Push, &opts);
        let pull = coloring::boman(&g, 4, Direction::Pull, &opts);
        assert_eq!(push.iterations, pull.iterations, "{name}");
        assert_eq!(push.conflicts_per_iter, pull.conflicts_per_iter, "{name}");
        assert_eq!(
            push.colors, pull.colors,
            "{name}: same schedule, same colors"
        );
    }
}

// ---------------------------------------------------------------------------
// The parallel engine against the sequential oracles: the same invariant —
// push and pull are two schedules of one algorithm — must survive real
// threads, every dataset stand-in, and the adaptive scheduler.
// ---------------------------------------------------------------------------

/// Thread counts every engine equivalence test sweeps.
const THREADS: [usize; 3] = [1, 2, 8];

fn engine_policies() -> impl Iterator<Item = DirectionPolicy> {
    DirectionPolicy::sweep().into_iter().map(|(_, p)| p)
}

#[test]
fn engine_bfs_matches_sequential_levels_everywhere() {
    for (name, g) in families() {
        if g.num_vertices() == 0 {
            continue;
        }
        let (expected, _, _) = stats::bfs_levels(&g, 0);
        for threads in THREADS {
            let engine = Engine::new(threads);
            let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
            for policy in engine_policies() {
                let r = Runner::new(&engine, &probes)
                    .policy(policy)
                    .run(&g, algo::bfs::BfsProgram::new(&g, 0));
                assert_eq!(r.report.phases, 1, "{name}: BFS is single-phase");
                let (parent, level) = r.output;
                assert_eq!(level, expected, "{name} x{threads} {policy:?}");
                // The Graph500-style validator accepts the parent tree too.
                let as_core = bfs::BfsResult {
                    parent,
                    level,
                    rounds: Vec::new(),
                };
                assert!(
                    validate::validate_bfs(&g, 0, &as_core).is_ok(),
                    "{name} x{threads} {policy:?}: invalid BFS tree"
                );
            }
        }
    }
}

#[test]
fn engine_pagerank_matches_sequential_oracle_everywhere() {
    let opts = pagerank::PrOptions {
        iters: 12,
        damping: 0.85,
    };
    for (name, g) in families() {
        if g.num_vertices() == 0 {
            continue;
        }
        let reference = pagerank::pagerank_seq(&g, &opts);
        for threads in THREADS {
            let engine = Engine::new(threads);
            let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
            for dir in Direction::BOTH {
                let r = Runner::new(&engine, &probes)
                    .policy(DirectionPolicy::Fixed(dir))
                    .run(&g, algo::pagerank::PageRankProgram::new(&g, &opts))
                    .output;
                let diff = pagerank::l1_distance(&reference, &r);
                assert!(diff < 1e-9, "{name} {dir:?} x{threads}: L1 {diff}");
            }
        }
    }
}

#[test]
fn engine_sssp_matches_dijkstra_everywhere() {
    for (name, g) in families() {
        if g.num_vertices() == 0 {
            continue;
        }
        let gw = gen::with_random_weights(&g, 1, 64, 0xabc);
        let reference = sssp::dijkstra(&gw, 0);
        for threads in THREADS {
            let engine = Engine::new(threads);
            let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
            for delta in [4u64, 64] {
                for policy in engine_policies() {
                    let opts = sssp::SsspOptions { delta };
                    let (dist, _) = Runner::new(&engine, &probes)
                        .policy(policy)
                        .run(&gw, algo::sssp::SsspProgram::new(&gw, 0, &opts))
                        .output;
                    assert_eq!(dist, reference, "{name} x{threads} Δ={delta} {policy:?}");
                    assert!(
                        validate::validate_sssp(&gw, 0, &dist).is_ok(),
                        "{name} x{threads}: invalid SSSP distances"
                    );
                }
            }
        }
    }
}

#[test]
fn engine_adaptive_switching_is_exercised_on_dense_families() {
    // On the dense stand-ins, the adaptive policy must actually pull at the
    // peak and push on the fringes — otherwise these tests are vacuous.
    let g = Dataset::Orc.generate(Scale::Test);
    let engine = Engine::new(4);
    let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
    let r = Runner::new(&engine, &probes)
        .policy(DirectionPolicy::adaptive())
        .run(&g, algo::bfs::BfsProgram::new(&g, 0));
    assert!(
        r.report.pull_rounds() > 0,
        "expected at least one pull round"
    );
    assert!(
        r.report.push_rounds() > 0,
        "expected at least one push round"
    );
    assert!(r.report.switched());
}

// ---------------------------------------------------------------------------
// The four algorithms newly ported onto the `Program`/`Runner` API: CC,
// k-core, label propagation, coloring — each against its sequential pp-core
// twin, at 1/2/8 threads, under push, pull, and adaptive policies.
// ---------------------------------------------------------------------------

#[test]
fn engine_components_match_core_labels_everywhere() {
    for (name, g) in families() {
        let expected = components::connected_components(&g, Direction::Pull).labels;
        for threads in THREADS {
            let engine = Engine::new(threads);
            let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
            for policy in engine_policies() {
                let labels = Runner::new(&engine, &probes)
                    .policy(policy)
                    .run(&g, algo::components::CcProgram::new(&g))
                    .output;
                assert_eq!(labels, expected, "{name} x{threads} {policy:?}");
                let roots = (0..labels.len()).filter(|&v| labels[v] as usize == v);
                assert_eq!(
                    roots.count(),
                    stats::num_components(&g),
                    "{name} x{threads} {policy:?}: component count"
                );
            }
        }
    }
}

#[test]
fn engine_kcore_matches_sequential_peeling_everywhere() {
    for (name, g) in families() {
        let expected = kcore::coreness_seq(&g);
        for threads in THREADS {
            let engine = Engine::new(threads);
            let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
            for policy in engine_policies() {
                let coreness = Runner::new(&engine, &probes)
                    .policy(policy)
                    .run(&g, algo::kcore::KCoreProgram::new(&g))
                    .output;
                assert_eq!(coreness, expected, "{name} x{threads} {policy:?}");
            }
        }
    }
}

#[test]
fn engine_labelprop_matches_core_iteration_for_iteration() {
    // Synchronous LP with deterministic tie-breaking: the engine must
    // reproduce the core twin's exact label sequence, iteration count, and
    // convergence flag — in every schedule, at every thread count.
    const CAP: usize = 30;
    for (name, g) in families() {
        let expected = labelprop::label_propagation(&g, Direction::Pull, CAP);
        for threads in THREADS {
            let engine = Engine::new(threads);
            let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
            for policy in engine_policies() {
                let (labels, iterations, converged) = Runner::new(&engine, &probes)
                    .policy(policy)
                    .run(&g, algo::labelprop::LabelPropProgram::new(&g, CAP))
                    .output;
                assert_eq!(labels, expected.labels, "{name} x{threads} {policy:?}");
                assert_eq!(iterations, expected.iterations, "{name} {policy:?}");
                assert_eq!(converged, expected.converged, "{name} {policy:?}");
            }
        }
    }
}

#[test]
fn engine_coloring_is_proper_and_greedy_bounded_everywhere() {
    for (name, g) in families() {
        for threads in THREADS {
            let engine = Engine::new(threads);
            let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
            for policy in engine_policies() {
                let colors = Runner::new(&engine, &probes)
                    .policy(policy)
                    .run(&g, algo::coloring::ColoringProgram::new(&g))
                    .output;
                assert!(
                    coloring::is_proper_coloring(&g, &colors),
                    "{name} x{threads} {policy:?}"
                );
                let max = colors.iter().copied().max().unwrap_or(0);
                assert!(
                    max as usize <= g.max_degree(),
                    "{name} x{threads} {policy:?}: color {max} > Δ = {}",
                    g.max_degree()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The three remaining paper algorithms — triangle counting (§3.2), Boruvka
// MST (§3.7), Brandes BC — as engine Programs: each against its sequential
// pp-core twin, at 1/2/8 threads, under push, pull, and adaptive policies,
// in BOTH execution modes (the §5 owner-computes push included).
// ---------------------------------------------------------------------------

#[test]
fn engine_triangles_match_sequential_counts_everywhere() {
    use algo::triangles::TcProgram;
    for (name, g) in families() {
        let expected = triangles::triangle_counts_seq(&g);
        for threads in THREADS {
            let engine = Engine::new(threads);
            let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
            for policy in engine_policies() {
                for (mode_name, mode) in ExecutionMode::sweep() {
                    let counts = Runner::new(&engine, &probes)
                        .policy(policy)
                        .mode(mode)
                        .run(&g, TcProgram::new(&g))
                        .output;
                    assert_eq!(counts, expected, "{name} x{threads} {policy:?} {mode_name}");
                }
            }
        }
    }
}

#[test]
fn engine_mst_matches_kruskal_everywhere() {
    use algo::mst::{MstPhaseKind, MstProgram};
    for (name, g) in families() {
        let gw = gen::with_random_weights(&g, 1, 1000, 0xdef);
        let (kedges, kweight) = mst::kruskal_seq(&gw);
        for threads in THREADS {
            let engine = Engine::new(threads);
            let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
            for policy in engine_policies() {
                for (mode_name, mode) in ExecutionMode::sweep() {
                    let run = Runner::new(&engine, &probes)
                        .policy(policy)
                        .mode(mode)
                        .run(&gw, MstProgram::new(&gw));
                    let (edges, weight) = run.output;
                    let tag = format!("{name} x{threads} {policy:?} {mode_name}");
                    assert_eq!(weight, kweight, "{tag}");
                    assert_eq!(edges.len(), kedges.len(), "{tag} edge count");
                    // The report exposes the paper's FM/BMT/M phase cycle.
                    for p in 0..run.report.phases {
                        let rounds = run.report.phase_rounds(p).count();
                        assert_eq!(rounds, 1, "{tag}: {:?}", MstPhaseKind::of(p));
                    }
                    if g.num_vertices() > 0 {
                        assert_eq!(
                            run.report.phases % 3,
                            2,
                            "{tag}: runs end after a merge-free BMT"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn engine_bc_matches_brandes_everywhere() {
    use algo::bc::BcProgram;
    for (name, g) in families() {
        // Exact BC is O(n·m): cap sources on the larger families, matching
        // the pp-core equivalence test above.
        let cap = Some(24usize.min(g.num_vertices()));
        let reference = bc::betweenness_seq(&g, cap);
        let opts = bc::BcOptions { max_sources: cap };
        for threads in THREADS {
            let engine = Engine::new(threads);
            let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
            for policy in engine_policies() {
                for (mode_name, mode) in ExecutionMode::sweep() {
                    let scores = Runner::new(&engine, &probes)
                        .policy(policy)
                        .mode(mode)
                        .run(&g, BcProgram::new(&g, &opts))
                        .output;
                    for (i, (a, b)) in scores.iter().zip(&reference).enumerate() {
                        assert!(
                            (a - b).abs() < 1e-6 * (1.0 + b.abs()),
                            "{name} x{threads} {policy:?} {mode_name} vertex {i}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn engine_tc_atomic_push_faas_per_corner_hit_pa_push_issues_none() {
    use algo::triangles::TcProgram;
    // The acceptance telemetry for triangle counting: shared-state push
    // resolves every corner hit with one FAA (§4.2); the owner-computes
    // schedule issues zero atomics and the identical counts. The FAA total
    // must equal the pp-core twin's on the same graph.
    let g = gen::rmat(7, 6, 7);
    let expected = triangles::triangle_counts_seq(&g);
    let corner_hits: u64 = {
        // Each ordered neighbor-pair adjacency hit is one FAA; per-vertex
        // counts are corner hits / 2, so the total is 2 · Σ tc[v] · ... —
        // count directly against the instrumented pp-core push.
        let probe = pushpull::telemetry::CountingProbe::new();
        triangles::triangle_counts_probed(&g, Direction::Push, &probe);
        probe.counts().atomics
    };
    assert!(corner_hits > 0, "rmat(7,6) must contain triangles");

    let engine = Engine::new(4);
    let run_mode = |mode: ExecutionMode| {
        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        let run = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .mode(mode)
            .run(&g, TcProgram::new(&g));
        assert_eq!(run.output, expected);
        (probes.merged(), run.report)
    };

    let (atomic, atomic_report) = run_mode(ExecutionMode::Atomic);
    assert_eq!(
        atomic.atomics, corner_hits,
        "one FAA per triangle corner hit, same total as the pp-core twin"
    );
    assert_eq!(atomic.locks, 0);
    assert_eq!(atomic_report.remote_updates(), 0);

    let (pa, pa_report) = run_mode(ExecutionMode::PartitionAware);
    assert_eq!(pa.atomics, 0, "owner-computes TC push must not FAA");
    assert_eq!(pa.locks, 0);
    assert!(pa.remote_sends > 0, "rmat must cut across 4 parts");
    assert_eq!(pa.remote_sends, pa_report.remote_updates());
}

// ---------------------------------------------------------------------------
// Partition-aware execution (§5): the owner-computes push schedule is a
// *third* schedule of the same algorithm. Every Program, on every family,
// at 1/2/8 threads, under push, pull, and adaptive policies, must land on
// the oracle fixpoint in PartitionAware mode exactly as in Atomic mode.
// ---------------------------------------------------------------------------

#[test]
fn engine_partition_aware_mode_matches_every_oracle_everywhere() {
    use algo::{
        bfs::BfsProgram, coloring::ColoringProgram, components::CcProgram, kcore::KCoreProgram,
        labelprop::LabelPropProgram, pagerank::PageRankProgram, sssp::SsspProgram,
    };
    let pr_opts = pagerank::PrOptions {
        iters: 12,
        damping: 0.85,
    };
    const LP_CAP: usize = 30;
    for (name, g) in families() {
        if g.num_vertices() == 0 {
            continue;
        }
        let gw = gen::with_random_weights(&g, 1, 64, 0xabc);
        let (bfs_oracle, _, _) = stats::bfs_levels(&g, 0);
        let pr_oracle = pagerank::pagerank_seq(&g, &pr_opts);
        let sssp_oracle = sssp::dijkstra(&gw, 0);
        let cc_oracle = components::connected_components(&g, Direction::Pull).labels;
        let core_oracle = kcore::coreness_seq(&g);
        let lp_oracle = labelprop::label_propagation(&g, Direction::Pull, LP_CAP);
        for threads in THREADS {
            let engine = Engine::new(threads);
            let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
            for policy in engine_policies() {
                let runner = Runner::new(&engine, &probes)
                    .policy(policy)
                    .mode(ExecutionMode::PartitionAware);
                let tag = format!("{name} x{threads} {policy:?} pa");

                let (_, level) = runner.run(&g, BfsProgram::new(&g, 0)).output;
                assert_eq!(level, bfs_oracle, "bfs {tag}");

                let pr = runner.run(&g, PageRankProgram::new(&g, &pr_opts)).output;
                let diff = pagerank::l1_distance(&pr_oracle, &pr);
                assert!(diff < 1e-9, "pagerank {tag}: L1 {diff}");

                let (dist, _) = runner
                    .run(
                        &gw,
                        SsspProgram::new(&gw, 0, &sssp::SsspOptions { delta: 16 }),
                    )
                    .output;
                assert_eq!(dist, sssp_oracle, "sssp {tag}");

                let cc = runner.run(&g, CcProgram::new(&g)).output;
                assert_eq!(cc, cc_oracle, "components {tag}");

                let coreness = runner.run(&g, KCoreProgram::new(&g)).output;
                assert_eq!(coreness, core_oracle, "kcore {tag}");

                let (labels, iters, converged) =
                    runner.run(&g, LabelPropProgram::new(&g, LP_CAP)).output;
                assert_eq!(labels, lp_oracle.labels, "labelprop {tag}");
                assert_eq!(iters, lp_oracle.iterations, "labelprop iters {tag}");
                assert_eq!(converged, lp_oracle.converged, "labelprop conv {tag}");

                let colors = runner.run(&g, ColoringProgram::new(&g)).output;
                assert!(coloring::is_proper_coloring(&g, &colors), "coloring {tag}");
                let num_colors = colors
                    .iter()
                    .filter(|&&c| c != coloring::NO_COLOR)
                    .map(|&c| c as usize + 1)
                    .max()
                    .unwrap_or(0);
                assert!(num_colors <= g.max_degree() + 1, "coloring bound {tag}");
            }
        }
    }
}

#[test]
fn partition_aware_push_issues_zero_atomics_on_rmat() {
    // The acceptance telemetry: on an RMAT dataset, BFS and PageRank push
    // rounds under PartitionAware report zero atomic-CAS events and
    // nonzero buffered sends, while Atomic mode reports the opposite.
    let g = gen::rmat(8, 8, 7);
    let engine = Engine::new(4);
    let push = DirectionPolicy::Fixed(Direction::Push);
    let pr_opts = pagerank::PrOptions {
        iters: 3,
        damping: 0.85,
    };

    for algo_name in ["bfs", "pagerank"] {
        let run_mode = |mode: ExecutionMode| {
            let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
            let runner = Runner::new(&engine, &probes).policy(push).mode(mode);
            let report = match algo_name {
                "bfs" => runner.run(&g, algo::bfs::BfsProgram::new(&g, 0)).report,
                _ => {
                    runner
                        .run(&g, algo::pagerank::PageRankProgram::new(&g, &pr_opts))
                        .report
                }
            };
            (probes.merged(), report)
        };

        let (atomic, atomic_report) = run_mode(ExecutionMode::Atomic);
        assert!(
            atomic.atomics > 0,
            "{algo_name}: shared-state push must CAS"
        );
        assert_eq!(atomic.remote_sends, 0);
        assert_eq!(atomic_report.remote_updates(), 0);

        let (pa, pa_report) = run_mode(ExecutionMode::PartitionAware);
        assert_eq!(
            pa.atomics, 0,
            "{algo_name}: owner-computes push must not CAS"
        );
        assert_eq!(pa.locks, 0, "{algo_name}: nor lock");
        assert!(
            pa.remote_sends > 0,
            "{algo_name}: RMAT must cut across 4 parts"
        );
        assert_eq!(
            pa.remote_sends,
            pa_report.remote_updates(),
            "{algo_name}: probe and report must agree on exchange volume"
        );
        assert!(pa_report.max_buffer_peak() > 0);
        for round in &pa_report.rounds {
            assert!(
                round.remote_updates <= g.num_arcs() as u64,
                "{algo_name}: §5 bound — a sweep buffers at most 2m remote updates"
            );
            assert!(round.buffer_peak <= round.remote_updates);
        }
    }
}

// ---------------------------------------------------------------------------
// Property-based: for *any* random graph, a Program's push and pull
// schedules (and their adaptive interleaving) converge to the same fixpoint.
// ---------------------------------------------------------------------------

fn arb_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (2usize..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..(3 * n))
            .prop_map(move |edges| GraphBuilder::undirected(n).edges(edges).build())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn program_schedules_share_one_fixpoint(g in arb_graph(48), threads in 1usize..5) {
        use algo::{
            bc::BcProgram, bfs::BfsProgram, coloring::ColoringProgram,
            components::CcProgram, kcore::KCoreProgram, labelprop::LabelPropProgram,
            mst::MstProgram, triangles::TcProgram,
        };
        let engine = Engine::new(threads);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let sweep: Vec<DirectionPolicy> = engine_policies().collect();
        let modes = ExecutionMode::sweep();

        let cc_oracle = components::connected_components(&g, Direction::Pull).labels;
        let core_oracle = kcore::coreness_seq(&g);
        let lp_oracle = labelprop::label_propagation(&g, Direction::Pull, 20);
        let (bfs_oracle, _, _) = stats::bfs_levels(&g, 0);
        let tc_oracle = triangles::triangle_counts_seq(&g);
        let gw = gen::with_random_weights(&g, 1, 64, 0xfeed);
        let (mst_edges_oracle, mst_weight_oracle) = mst::kruskal_seq(&gw);
        let bc_opts = bc::BcOptions { max_sources: Some(8) };
        let bc_oracle = bc::betweenness_seq(&g, Some(8));

        // Every (policy, execution-mode) pair is one schedule; all of them
        // must converge to the same fixpoint.
        for &policy in &sweep {
            for (mode_name, mode) in modes {
                let runner = Runner::new(&engine, &probes).policy(policy).mode(mode);

                // Components: every schedule must land on the component minima.
                let cc = runner.run(&g, CcProgram::new(&g)).output;
                prop_assert_eq!(&cc, &cc_oracle, "cc {:?} {}", policy, mode_name);

                // k-core: every schedule must produce the sequential coreness.
                let coreness = runner.run(&g, KCoreProgram::new(&g)).output;
                prop_assert_eq!(&coreness, &core_oracle, "kcore {:?} {}", policy, mode_name);

                // Label propagation: schedules must agree label-for-label.
                let (labels, iters, _) = runner.run(&g, LabelPropProgram::new(&g, 20)).output;
                prop_assert_eq!(&labels, &lp_oracle.labels, "lp {:?} {}", policy, mode_name);
                prop_assert_eq!(iters, lp_oracle.iterations, "lp iters {:?} {}", policy, mode_name);

                // BFS: levels are schedule-invariant.
                let (_, level) = runner.run(&g, BfsProgram::new(&g, 0)).output;
                prop_assert_eq!(&level, &bfs_oracle, "bfs {:?} {}", policy, mode_name);

                // Coloring: fixpoints may differ per schedule but must all
                // be proper and greedy-bounded.
                let colors = runner.run(&g, ColoringProgram::new(&g)).output;
                prop_assert!(
                    coloring::is_proper_coloring(&g, &colors),
                    "gc {:?} {}", policy, mode_name
                );
                let used = colors
                    .iter()
                    .filter(|&&c| c != coloring::NO_COLOR)
                    .map(|&c| c as usize + 1)
                    .max()
                    .unwrap_or(0);
                prop_assert!(used <= g.max_degree() + 1, "gc bound {:?} {}", policy, mode_name);

                // Triangle counts: exact integers in every schedule.
                let tc = runner.run(&g, TcProgram::new(&g)).output;
                prop_assert_eq!(&tc, &tc_oracle, "tc {:?} {}", policy, mode_name);

                // MST: forest weight and size are schedule-invariant.
                let (mst_edges, mst_weight) = runner.run(&gw, MstProgram::new(&gw)).output;
                prop_assert_eq!(mst_weight, mst_weight_oracle, "mst {:?} {}", policy, mode_name);
                prop_assert_eq!(
                    mst_edges.len(), mst_edges_oracle.len(),
                    "mst edges {:?} {}", policy, mode_name
                );

                // BC: dependencies match Brandes to ε (push reorders floats).
                let scores = runner.run(&g, BcProgram::new(&g, &bc_opts)).output;
                for (i, (a, b)) in scores.iter().zip(&bc_oracle).enumerate() {
                    prop_assert!(
                        (a - b).abs() < 1e-6 * (1.0 + b.abs()),
                        "bc {:?} {} vertex {}: {} vs {}", policy, mode_name, i, a, b
                    );
                }
            }
        }
    }
}

#[test]
fn engine_probe_shards_reconcile_with_a_single_counting_probe() {
    // Per-worker shards are an implementation detail: their merged totals
    // must equal what one funneled CountingProbe sees for the same run, and
    // (for deterministic pull schedules) must be thread-count-invariant.
    for (name, g) in families() {
        if g.num_vertices() == 0 {
            continue;
        }
        let run = |threads: usize, shards: usize| {
            let engine = Engine::new(threads);
            let probes: ProbeShards<CountingProbe> = ProbeShards::new(shards);
            Runner::new(&engine, &probes)
                .policy(DirectionPolicy::Fixed(Direction::Pull))
                .run(&g, algo::bfs::BfsProgram::new(&g, 0));
            probes.merged()
        };
        let sharded = run(8, 8);
        let funneled = run(8, 1);
        let sequential = run(1, 1);
        assert_eq!(sharded, funneled, "{name}: shard layout changed totals");
        assert_eq!(sharded, sequential, "{name}: thread count changed totals");
        assert!(sharded.reads > 0, "{name}: pull BFS must read");
        assert_eq!(sharded.atomics, 0, "{name}: pull BFS is sync-free");
    }
}

#[test]
fn generalized_bfs_matches_plain_bfs_levels() {
    for (name, g) in families() {
        let n = g.num_vertices();
        if n == 0 {
            continue;
        }
        let mut ready = vec![1i64; n];
        ready[0] = 0;
        let (expected, _, _) = stats::bfs_levels(&g, 0);
        for dir in Direction::BOTH {
            let r = bfs::generalized_bfs(
                &g,
                &g,
                &ready,
                vec![0u32; n],
                |t, s| *t = (*t).max(s + 1),
                dir,
                &pushpull::telemetry::NullProbe,
            );
            let levels: Vec<u32> = r
                .values
                .iter()
                .enumerate()
                .map(|(v, &x)| {
                    if v == 0 {
                        0
                    } else if x == 0 {
                        u32::MAX
                    } else {
                        x
                    }
                })
                .collect();
            assert_eq!(levels, expected, "{name} {dir:?}");
        }
    }
}
