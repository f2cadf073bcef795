//! `ppbench` — the one seeded benchmark harness of this repository.
//!
//! The harness lives outside the root workspace and drives the program
//! only through the `pub` surface of `pp-graph`, `pp-engine`, `pp-serve`,
//! `pp-telemetry` and `pp-core` (the pinned list is in `README.md`). One
//! process measures one workload: `setup` builds the seeded inputs and the
//! oracle, `measure` runs the timed phases, and every timed operation is
//! checked against the oracle before its sample counts.
//!
//! Module map (data flows top to bottom):
//!
//! * [`plan`] — the workload table, the metric lists, `BENCHMARK.json`.
//! * [`input`] — seeded inputs, files on disk, the correctness oracle.
//! * [`ops`] — one registry run / one cold run, checked.
//! * [`loadgen`] — closed-loop, open-loop and flood traffic against an
//!   in-process `pp_serve::Server`.
//! * [`layers`] — the per-layer microbenchmarks of the traced pass.
//! * [`run`] — one workload process: setup, timed phases, metric assembly.
//! * [`report`], [`compare`] — TSV / JSON output and the a-vs-b verdicts.
//! * [`stats`], [`rng`], [`spans`], [`alloc`] — medians and percentiles,
//!   the seeded generator, the span recorder, the counting allocator.

pub mod alloc;
pub mod compare;
pub mod input;
pub mod layers;
pub mod loadgen;
pub mod ops;
pub mod plan;
pub mod report;
pub mod rng;
pub mod run;
pub mod spans;
pub mod stats;
