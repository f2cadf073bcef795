//! Adaptive push⇄pull switching, live: BFS on the `pp-engine` runtime.
//!
//! Runs the same traversal three ways — always-push, always-pull, and the
//! Beamer-style adaptive policy — and prints the round-by-round trace from
//! the unified `RunReport`: the frontier swelling until the engine flips
//! to bottom-up (pull), then shrinking until it flips back.
//!
//! ```text
//! cargo run --release --example engine_bfs
//! ```

use pushpull::core::bfs::UNVISITED;
use pushpull::core::Direction;
use pushpull::engine::{algo::bfs::BfsProgram, DirectionPolicy, Engine, ProbeShards, Runner};
use pushpull::graph::datasets::{Dataset, Scale};
use pushpull::telemetry::{CountingProbe, NullProbe};

fn main() {
    let g = Dataset::Orc.generate(Scale::Test);
    let threads = 4;
    let engine = Engine::new(threads);
    println!(
        "graph: {} vertices, {} edges (orkut stand-in); engine: {} threads",
        g.num_vertices(),
        g.num_edges(),
        engine.threads()
    );

    // --- The adaptive schedule, round by round. ---
    let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
    let r = Runner::new(&engine, &probes)
        .policy(DirectionPolicy::adaptive())
        .run(&g, BfsProgram::new(&g, 0));
    let (_, level) = &r.output;
    let reached = level.iter().filter(|&&l| l != UNVISITED).count();
    println!("\nadaptive BFS from vertex 0 ({reached} reached):");
    println!(
        "{:>6} {:>10} {:>12}  direction",
        "round", "frontier", "edges"
    );
    for round in &r.report.rounds {
        println!(
            "{:>6} {:>10} {:>12}  {}",
            round.round,
            round.frontier,
            round.frontier_edges,
            round.dir.label()
        );
    }
    println!(
        "({} push rounds, {} pull rounds, {} edges traversed)",
        r.report.push_rounds(),
        r.report.pull_rounds(),
        r.report.edges_traversed()
    );

    // --- Same results, different synchronization profile (§4.3). ---
    println!("\nevent counts per fixed schedule (merged from per-worker shards):");
    for dir in Direction::BOTH {
        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        let fixed = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(dir))
            .run(&g, BfsProgram::new(&g, 0));
        assert_eq!(&fixed.output.1, level, "schedules must agree on levels");
        let c = probes.merged();
        println!(
            "  {dir:>7}: {:>9} atomics, {:>10} reads, {:>9} writes",
            c.atomics, c.reads, c.writes
        );
    }
    println!("\nidentical levels in all three schedules — switching is free of semantics.");
}
