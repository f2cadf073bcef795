//! Table 1: PAPI-style event counts for PR, TC, BGC, and SSSP-Δ in push /
//! push+PA / pull variants, gathered with the cache-simulating probe.
//!
//! PR and BGC rows are averages per iteration; TC and SSSP rows are totals,
//! matching the paper's caption.

use pp_core::{coloring, pagerank, sssp, triangles, Direction};
use pp_graph::datasets::{Dataset, Scale};
use pp_graph::{BlockPartition, PartitionAwareGraph};
use pp_telemetry::{CacheSimProbe, EventCounts, EventReport};

use crate::with_threads;

use super::{header, Ctx};

fn scaled(c: EventCounts, div: u64) -> EventCounts {
    EventCounts {
        reads: c.reads / div,
        writes: c.writes / div,
        atomics: c.atomics / div,
        locks: c.locks / div,
        branches_cond: c.branches_cond / div,
        branches_uncond: c.branches_uncond / div,
        barriers: c.barriers / div,
        remote_sends: c.remote_sends / div,
        l1_misses: c.l1_misses / div,
        l2_misses: c.l2_misses / div,
        l3_misses: c.l3_misses / div,
        dtlb_misses: c.dtlb_misses / div,
    }
}

/// Prints the four event blocks of Table 1.
pub fn run(ctx: Ctx) {
    header(
        "Table 1: PAPI-style events (software probe + cache simulator)",
        "§6.1, Table 1 — PR/BGC per iteration, TC/SSSP totals",
    );
    // Table 1 columns use the sparser scale for the heavy quadratic kernels.
    let tc_scale = Scale::Test;

    with_threads(ctx.threads, || {
        // --- PageRank: orc (dense) and rca (sparse), Push/Push+PA/Pull. ---
        for ds in [Dataset::Orc, Dataset::Rca] {
            let g = ds.generate(ctx.scale);
            let iters = 3usize;
            let opts = pagerank::PrOptions {
                iters,
                damping: 0.85,
            };
            let mut report = EventReport::new();

            let probe = CacheSimProbe::new();
            pagerank::pagerank_push(&g, &opts, pagerank::PushSync::Cas, &probe);
            report.add_column("Push", scaled(probe.counts(), iters as u64));

            let pa =
                PartitionAwareGraph::new(&g, BlockPartition::new(g.num_vertices(), ctx.threads));
            let probe = CacheSimProbe::new();
            pagerank::pagerank_push_pa(&g, &pa, &opts, pagerank::PushSync::Cas, &probe);
            report.add_column("Push+PA", scaled(probe.counts(), iters as u64));

            let probe = CacheSimProbe::new();
            pagerank::pagerank_pull(&g, &opts, &probe);
            report.add_column("Pull", scaled(probe.counts(), iters as u64));

            println!("-- {} (PR, per iteration) --", ds.id());
            println!("{report}");
        }

        // --- Triangle counting: ljn and rca, totals. ---
        for ds in [Dataset::Ljn, Dataset::Rca] {
            let g = ds.generate(tc_scale);
            let mut report = EventReport::new();
            for dir in Direction::BOTH {
                let probe = CacheSimProbe::new();
                triangles::triangle_counts_probed(&g, dir, &probe);
                report.add_column(dir.label(), probe.counts());
            }
            println!("-- {} (TC, total) --", ds.id());
            println!("{report}");
        }

        // --- Boman coloring: orc and rca, per iteration. ---
        for ds in [Dataset::Orc, Dataset::Rca] {
            let g = ds.generate(ctx.scale);
            let mut report = EventReport::new();
            for dir in Direction::BOTH {
                let probe = CacheSimProbe::new();
                let r = coloring::boman_probed(
                    &g,
                    ctx.threads,
                    dir,
                    &coloring::GcOptions::default(),
                    &probe,
                );
                report.add_column(dir.label(), scaled(probe.counts(), r.iterations as u64));
            }
            println!("-- {} (BGC, per iteration) --", ds.id());
            println!("{report}");
        }

        // --- SSSP-Δ: pok and rca, totals. ---
        for ds in [Dataset::Pok, Dataset::Rca] {
            let g = ds.generate_weighted(ctx.scale, 1, 100);
            let mut report = EventReport::new();
            for dir in Direction::BOTH {
                let probe = CacheSimProbe::new();
                sssp::sssp_delta_probed(&g, 0, dir, &sssp::SsspOptions { delta: 64 }, &probe);
                report.add_column(dir.label(), probe.counts());
            }
            println!("-- {} (SSSP-Δ, total) --", ds.id());
            println!("{report}");
        }
    });
    println!("note: instruction-TLB misses are not modeled (no software analogue; negligible in the paper's data).");
}
