//! Table 4: PageRank per-iteration time on two "machines" — reproduced as
//! two thread-pool sizes on the host (a commodity-class pool vs. a
//! server-class pool), with Push / Pull / Push+PA rows.

use pp_core::{pagerank, Direction};
use pp_graph::datasets::Dataset;
use pp_graph::{BlockPartition, PartitionAwareGraph};

use crate::{median_time, with_threads};

use super::{header, print_series, Ctx};

/// Prints one machine block per thread count.
pub fn run(ctx: Ctx) {
    header(
        "Table 4: PR time/iteration [ms] across machines (thread pools)",
        "§6.4, Table 4 — Trivium (T=8) vs Daint XC40 (T=24), modeled as pools",
    );
    let iters = 5usize;
    let opts = pagerank::PrOptions {
        iters,
        damping: 0.85,
    };
    let machines = [
        ("commodity-pool", (ctx.threads / 2).max(1)),
        ("server-pool", ctx.threads),
    ];
    for (name, threads) in machines {
        with_threads(threads, || {
            let xs: Vec<String> = Dataset::ALL.iter().map(|d| d.id().to_string()).collect();
            let mut push = Vec::new();
            let mut pull = Vec::new();
            let mut push_pa = Vec::new();
            for ds in Dataset::ALL {
                let g = ds.generate(ctx.scale);
                let pa =
                    PartitionAwareGraph::new(&g, BlockPartition::new(g.num_vertices(), threads));
                let ms =
                    |t: std::time::Duration| format!("{:.3}", t.as_secs_f64() * 1e3 / iters as f64);
                push.push(ms(median_time(ctx.samples, || {
                    pagerank::pagerank(&g, Direction::Push, &opts)
                })));
                pull.push(ms(median_time(ctx.samples, || {
                    pagerank::pagerank(&g, Direction::Pull, &opts)
                })));
                push_pa.push(ms(median_time(ctx.samples, || {
                    pagerank::pagerank_push_pa(
                        &g,
                        &pa,
                        &opts,
                        pagerank::PushSync::Cas,
                        &pp_telemetry::NullProbe,
                    )
                })));
            }
            println!("-- {name} (T = {threads}) --");
            print_series(
                "graph",
                &xs,
                &[("Push", push), ("Pull", pull), ("Push+PA", push_pa)],
            );
            println!();
        });
    }
}
