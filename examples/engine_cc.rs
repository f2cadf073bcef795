//! One `Program`, every schedule: connected components on the `pp-engine`
//! runtime.
//!
//! Demonstrates the `Runner`/`Program` API: the same `CcProgram` label-min
//! kernels run under push, pull, and adaptive policies, land on the
//! identical component labeling, and the unified `RunReport` shows how
//! differently the three schedules got there.
//!
//! ```text
//! cargo run --release --example engine_cc
//! ```

use pushpull::core::components::connected_components as cc_seq;
use pushpull::core::Direction;
use pushpull::engine::{algo::components::CcProgram, DirectionPolicy, Engine, ProbeShards, Runner};
use pushpull::graph::datasets::{Dataset, Scale};
use pushpull::telemetry::CountingProbe;

fn main() {
    let g = Dataset::Rca.generate(Scale::Test);
    let engine = Engine::new(4);
    println!(
        "graph: {} vertices, {} edges (road-network stand-in); engine: {} threads",
        g.num_vertices(),
        g.num_edges(),
        engine.threads()
    );

    let oracle = cc_seq(&g, Direction::Pull);
    println!(
        "sequential oracle: {} components\n",
        oracle.num_components()
    );

    println!(
        "{:>9} {:>8} {:>7} {:>7} {:>12} {:>10} {:>10}",
        "policy", "rounds", "push", "pull", "edges", "atomics", "reads"
    );
    for (name, policy) in DirectionPolicy::sweep() {
        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        let run = Runner::new(&engine, &probes)
            .policy(policy)
            .run(&g, CcProgram::new(&g));
        assert_eq!(
            run.output, oracle.labels,
            "{name}: schedule changed the fixpoint"
        );
        let c = probes.merged();
        println!(
            "{:>9} {:>8} {:>7} {:>7} {:>12} {:>10} {:>10}",
            name,
            run.report.num_rounds(),
            run.report.push_rounds(),
            run.report.pull_rounds(),
            run.report.edges_traversed(),
            c.atomics,
            c.reads
        );
    }
    println!("\nidentical labels from all three schedules — the Program is the algorithm,");
    println!("the Runner is the schedule.");
}
