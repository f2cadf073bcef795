//! # pp-engine — a parallel frontier runtime with a `Program` vertex-program
//! API and adaptive push⇄pull switching.
//!
//! The paper's central claim is that push vs. pull is a *scheduling*
//! decision: the same algorithm, two schedules, different synchronization
//! and communication profiles. This crate turns the claim into a type
//! split:
//!
//! * a [`Program`] is what an algorithm **is** — per-vertex state, a
//!   `push_update`/`pull_gather` kernel pair sharing one update semantics
//!   ([`EdgeKernel`]), frontier seeding/reseeding, and the convergence
//!   predicate;
//! * a [`Runner`] is what a **run** is — the engine, the
//!   [`DirectionPolicy`], the probe shards, and the one shared round loop;
//!   it returns the program's output inside a [`Run`] together with a
//!   [`RunReport`] of per-round direction/frontier/edge statistics.
//!
//! Under the hood: [`pool::Pool`] (persistent workers, dynamic chunk
//! claiming), [`frontier::Frontier`] (sparse↔dense active set with lazily
//! cached `|E_F|`), [`ops::Engine`] (`edge_map`/`vertex_map` operators,
//! degree-aware partitioning), [`probes::ProbeShards`] (per-worker
//! telemetry that merges into [`pp_telemetry::EventCounts`]).
//!
//! Ten algorithms ship as programs in [`algo`] — the paper's full workload
//! table: BFS (§3.3), PageRank (§3.1), Δ-stepping SSSP (§3.4), connected
//! components, k-core decomposition, community label propagation,
//! Boman-style coloring (§5), triangle counting (§3.2, Algorithm 2),
//! Boruvka MST (§3.7, Algorithm 7), and Brandes betweenness centrality
//! (§3.5, Algorithm 5) — each oracle-checked against its sequential
//! `pp-core` twin under every policy × execution-mode schedule.
//!
//! ## Per-phase kernel lifecycle
//!
//! Multi-kernel algorithms widen the frontier-shaped contract through two
//! mechanisms (see [`program`]): a *kernel state machine* — the program's
//! edge kernels dispatch on internal state advanced between rounds (BC's
//! forward σ-counting vs. backward δ-accumulation sweeps) — and
//! [`Program::phase_kernel`], which lets a phase declare itself a
//! [`PhaseKernel::VertexStep`]: the runner runs `begin_round` (where the
//! program does frontier-wide vertex work) and skips edge traversal. MST
//! uses both: its FM/BMT/M phases cycle an edge sweep and two vertex
//! steps, so `RunReport::phase_rounds` exposes Figure 4's per-phase
//! structure directly.
//!
//! ## Quickstart
//!
//! ```
//! use pp_engine::{algo::bfs::BfsProgram, DirectionPolicy, Engine, ProbeShards, Runner};
//! use pp_graph::datasets::{Dataset, Scale};
//! use pp_telemetry::NullProbe;
//!
//! let g = Dataset::Orc.generate(Scale::Test);
//! let engine = Engine::new(4);
//! let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
//!
//! // A Runner owns the schedule; a Program owns the algorithm.
//! let run = Runner::new(&engine, &probes)
//!     .policy(DirectionPolicy::adaptive())
//!     .run(&g, BfsProgram::new(&g, 0));
//! let (parent, level) = run.output;
//! assert_eq!(parent[0], 0, "the root is its own parent");
//! assert!(level.iter().filter(|&&l| l != u32::MAX).count() > 1);
//! // The unified report records which direction each round ran in:
//! for round in &run.report.rounds {
//!     let _ = (round.phase, round.frontier, round.frontier_edges, round.dir);
//! }
//! assert!(run.report.switched() || run.report.pull_rounds() == 0);
//! ```
//!
//! ## Partition-aware execution (§5)
//!
//! Push's per-edge atomics are a *scheduling* artifact too: they exist
//! because any thread may target any vertex. [`Runner::mode`] with
//! [`ExecutionMode::PartitionAware`] removes them. The run binds one
//! [`pp_graph::BlockPartition`] part to each engine thread and cuts every
//! CSR row into its same-owner run and the foreign-owner prefix and suffix
//! around it ([`pp_graph::PartitionAwareGraph`], a view; the paper copies
//! the halves into a `2n + 2m`-cell second graph). Each push round then
//! has two phases ([`partitioned::exchange`]):
//!
//! 1. **Traversal** — the worker owning part `t` walks its frontier
//!    vertices: local targets get the update applied immediately with
//!    plain writes ([`EdgeKernel::apply_owned`]); remote targets are
//!    buffered into a per-(worker × owner) queue
//!    ([`partitioned::ExchangeBuffers`]), counting one
//!    `Probe::remote_send` where the atomic engine counted a CAS.
//! 2. **Delivery** — after one barrier, every owner drains its inbound
//!    queues and applies the buffered updates to the vertices it owns,
//!    again with plain writes.
//!
//! No atomic RMW is issued anywhere on the push path; `RunReport` rounds
//! carry the exchange volume (`remote_updates`) and occupancy skew
//! (`buffer_peak`). All ten programs run unmodified in either mode —
//! delivery applies updates through [`EdgeKernel::apply_owned`], which
//! defaults to each program's atomic-free pull kernel (the contract
//! already requires both kernels to encode one update semantics; BC
//! overrides it because its σ accumulation needs every delivered parent,
//! not a candidate-gated first one). Pull rounds are untouched, so any
//! [`DirectionPolicy`] composes with either mode.
//!
//! ## Ingestion and external drivers (PR 5)
//!
//! Two modules make the engine drivable from outside the workspace's own
//! experiments:
//!
//! * [`ingest`] parses on-disk edge lists on the engine pool —
//!   `pp_graph::io`'s byte-level shard stages scheduled as one
//!   dynamically-claimed chunk per shard, oracle-identical to the
//!   sequential reader;
//! * [`registry`] is the name → [`Program`] dispatch table: all ten
//!   algorithms runnable by string name under one
//!   [`registry::RunConfig`] (policy × mode × threads), returning the
//!   unified [`RunReport`] plus an output digest. The `ppgraph` CLI in
//!   `pp-bench` (`gen` / `convert` / `stats` / `run`) is built on exactly
//!   these two modules plus `pp_graph::snapshot`'s binary `.ppg` format.
//!
//! ## Run-wide observability (PR 6)
//!
//! The §6 measurement discipline now covers *time* as well as events,
//! opt-in per run via [`pp_telemetry::MetricsLevel`]:
//!
//! * `Runner` gains `.metrics(MetricsLevel)` (and [`registry::RunConfig`]
//!   a `collect` field). The default is `Off` — the exact pre-PR path,
//!   producing a report identical to the legacy one.
//! * `RoundStat` gained `start_ns`/`duration_ns` and an optional
//!   [`policy::PolicyDecision`] record (the observed Beamer share, the
//!   hysteresis threshold it was compared against, and whether the
//!   direction switched) — struct-literal constructions must add them.
//! * `RunReport` gained `elapsed_ns`, per-worker [`pp_telemetry::timing::
//!   WorkerLap`] ledgers filled by [`Pool`]'s lap accounting, and (at
//!   `Trace` level) the per-round × per-worker busy matrix;
//!   [`RunReport::chrome_trace`] maps a run onto Chrome trace-event JSON
//!   (`chrome://tracing` / Perfetto) with one track per pool worker.
//! * `RoundStat`/`RunReport` lost their `Eq` derives (`PolicyDecision`
//!   holds `f64` shares); `PartialEq` comparisons are unchanged.
//! * The registry is generic over the probe type:
//!   [`registry::all_counting`]/[`registry::find_counting`] expose the
//!   same ten algorithms over [`pp_telemetry::CountingProbe`], so one run
//!   yields timing *and* Table-1 event counts (`ppgraph run --metrics`).
//!
//! ## Checked invariants (PR 9)
//!
//! The engine's correctness rests on contracts the compiler cannot see.
//! They are stated here once and enforced mechanically — statically by
//! the workspace's `pp-audit` pass (CI-gating; see the repository
//! README's "Correctness tooling") and dynamically by the `race-detect`
//! feature:
//!
//! * **Single-writer ownership (§5).** During a partition-aware phase,
//!   vertex-state slot `v` is plain-written only by the worker that
//!   claimed `v`'s part; phases are separated by the exchange barrier.
//!   Every `unsafe` block in [`partitioned`] cites this contract in its
//!   `// SAFETY:` comment, and [`race::note_state_write`] checks it per
//!   write when the `race-detect` feature is on ([`race`] is a set of
//!   empty inline bodies otherwise).
//! * **Justified orderings.** Every atomic that is not a `Relaxed`
//!   statistics counter carries an adjacent `// ORDERING:` comment
//!   naming the acquire/release pairing it relies on; `pp-audit` flags
//!   unannotated sites, so a weakened ordering cannot slip in silently.
//! * **Zero-clock `MetricsLevel::Off`.** The engine never reads a clock
//!   directly: all timing goes through [`pp_telemetry::timing::Clock`],
//!   constructed only when a run opted into metrics. `pp-audit` rejects
//!   `Instant::now` anywhere outside `pp-telemetry`.
//! * **Contained spawning.** Worker threads come from [`pool::Pool`]
//!   alone (the serve crate's accept loop is the one other spawn site);
//!   nothing else may create threads, keeping lap accounting and the
//!   barrier discipline total over all workers.
//!
//! ## Batched multi-source execution (PR 10)
//!
//! A run can now carry a *batch* of up to 64 sources end to end
//! ([`algo::msbfs`]):
//!
//! * **Lane model.** An [`algo::msbfs::SourceBatch`] maps each distinct
//!   source to one bit of a `u64` *lane mask*; the program keeps three
//!   mask words per vertex (`visit` — lanes that reached it, `cur` — the
//!   round's frontier lanes, `visit_next` — lanes arriving this round).
//!   One push `fetch_or` (or one owner-computes buffered merge — the
//!   PartitionAware path stays zero-RMW because `cur[u]` is a
//!   round-immutable snapshot, exactly the `apply_owned` timing contract)
//!   advances up to 64 frontiers per traversed edge. The
//!   scheduler-visible [`Frontier`] is the per-lane union, so any
//!   [`DirectionPolicy`] steers on the batch-aggregate `|F|`/`|E_F|`
//!   unchanged.
//! * **Reporting.** [`RoundStat`] gained `lanes_active` and `RunReport` a
//!   per-source axis ([`SourceStat`]: `source`, `rounds_active`, `depth`),
//!   filled through two defaulted [`Program`] hooks
//!   ([`Program::lanes_active`], [`Program::source_stats`]) — single-source
//!   programs report the exact pre-batch shape. Chrome traces carry
//!   `lanes_active` as a round arg when non-zero.
//! * **Dispatch.** [`registry::RunConfig`] gained `sources: Vec<u32>`
//!   (deduplicated, validated against the 64-lane width); `bfs` with
//!   multiple sources — or its `msbfs` alias — runs the batched program,
//!   with a digest concatenated from per-source digests, each bit-equal
//!   to its single-source run.
//! * **BC waves.** Brandes betweenness drives its forward σ phase through
//!   the same batched traversal in waves of ≤ 64 sources
//!   (`algo::bc::BcProgram`), one traversal per wave instead of one per
//!   source; backward dependency accumulation stays per-lane.

pub mod algo;
pub mod frontier;
pub mod ingest;
pub mod ops;
pub mod partitioned;
pub mod policy;
pub mod pool;
pub mod probes;
pub mod program;
pub mod race;
pub mod registry;
pub mod report;
pub mod runner;

pub use frontier::Frontier;
pub use ops::{EdgeKernel, Engine};
pub use partitioned::{ExecutionMode, PaContext};
pub use policy::{AdaptiveSwitch, DirectionPolicy, PolicyDecision};
pub use pool::Pool;
pub use probes::{ProbeShards, ShardProbe};
pub use program::{PhaseKernel, Program, RoundCtx};
pub use report::{RoundStat, RunReport, SourceStat};
pub use runner::{Run, Runner};
