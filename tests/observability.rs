//! Observability-layer guarantees (PR 6): the timing/tracing exports are
//! well-formed, the lap accounting reconciles with the round clock, and —
//! critically — `MetricsLevel::Off` reproduces the legacy report exactly.
//!
//! These are the cross-crate halves of the story: `pp-engine` produces the
//! instrumented `RunReport`, `pp-telemetry` serializes the Chrome trace,
//! and `pp-serve`'s JSON reader (the `ppgraph report` parser) reads the
//! trace back. Unit tests inside each crate cover the pieces; this suite
//! covers the pipeline.

use pp_engine::algo::bfs::BfsProgram;
use pp_engine::report::WORKER_TID_BASE;
use pp_engine::{DirectionPolicy, Engine, ProbeShards, Runner};
use pp_graph::datasets::{Dataset, Scale};
use pp_serve::json::{self, Value};
use pp_telemetry::{MetricsLevel, NullProbe};

fn traced_bfs(threads: usize) -> pp_engine::Run<(Vec<u32>, Vec<u32>)> {
    let g = Dataset::Orc.generate(Scale::Test);
    let engine = Engine::new(threads);
    let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
    Runner::new(&engine, &probes)
        .policy(DirectionPolicy::adaptive())
        .metrics(MetricsLevel::Trace)
        .run(&g, BfsProgram::new(&g, 0))
}

/// The `--trace` export parse-checks through the harness's own JSON
/// reader and contains one duration event per executed round plus one
/// named track per pool thread.
#[test]
fn trace_json_has_an_event_per_round_and_a_track_per_worker() {
    let threads = 2;
    let run = traced_bfs(threads);
    assert!(run.report.num_rounds() >= 2, "BFS on orc runs real rounds");

    let trace = run.report.chrome_trace("bfs adaptive");
    let doc = json::parse(&trace.to_json()).expect("trace JSON parses");
    let events = doc.arr().expect("a trace is a JSON array");
    assert_eq!(events.len(), trace.len());

    let tid = |e: &Value| e.get("tid").and_then(Value::u64).unwrap();
    let round_events: Vec<&Value> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::str) == Some("X") && tid(e) == 0)
        .collect();
    assert_eq!(
        round_events.len(),
        run.report.num_rounds(),
        "one duration event per executed round"
    );
    for e in &round_events {
        assert!(e.get("dur").and_then(Value::num).unwrap() > 0.0);
        assert!(e.get("args").and_then(|a| a.get("dir")).is_some());
    }

    let worker_tracks: Vec<u64> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Value::str) == Some("M") && tid(e) >= u64::from(WORKER_TID_BASE)
        })
        .map(tid)
        .collect();
    assert_eq!(
        worker_tracks.len(),
        threads,
        "one named track per pool thread (caller + workers)"
    );

    // The adaptive BFS on orc switches push→pull; the switch shows up as
    // an instant event.
    if run.report.switches() > 0 {
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Value::str) == Some("i")));
    }
}

/// Per-worker busy time reconciles with the round clock at every pool
/// width: a worker can never be busy longer than the rounds lasted, the
/// caller (worker 0) always does work, and at `Trace` level the per-round
/// busy matrix sums to each round's wall time at most `threads`-fold.
#[test]
fn worker_busy_totals_reconcile_with_round_durations() {
    for threads in [1, 2, 8] {
        let run = traced_bfs(threads);
        let r = &run.report;
        let total_ns = r.round_duration_ns();
        assert!(total_ns > 0, "timed rounds at {threads} threads");
        assert_eq!(r.worker_laps.len(), threads);

        // Pool rounds are sub-intervals of runner rounds, so each
        // worker's recorded wall (busy + idle) is bounded by the summed
        // round durations. Generous slack: clocks are read at different
        // nesting depths.
        let slack = total_ns / 5 + 1_000_000;
        for (w, lap) in r.worker_laps.iter().enumerate() {
            assert!(
                lap.busy_ns + lap.idle_ns <= total_ns + slack,
                "worker {w} of {threads}: busy {} + idle {} vs rounds {total_ns}",
                lap.busy_ns,
                lap.idle_ns
            );
        }
        assert!(r.worker_laps[0].busy_ns > 0, "the caller always works");
        assert!(r.worker_laps[0].chunks_claimed > 0);
        assert!(r.imbalance() >= 1.0, "imbalance is max/mean");
        assert!(r.elapsed_ns >= total_ns, "rounds happen within the run");

        // The Trace-level matrix is per round × per worker and its totals
        // fold into the same ledgers the laps report.
        assert_eq!(r.round_worker_busy.len(), r.num_rounds());
        let matrix_busy: u64 = r.round_worker_busy.iter().flatten().sum();
        let lap_busy: u64 = r.worker_laps.iter().map(|l| l.busy_ns).sum();
        assert!(
            matrix_busy <= lap_busy,
            "per-round busy deltas cannot exceed the run totals"
        );
        for (i, row) in r.round_worker_busy.iter().enumerate() {
            assert_eq!(row.len(), threads);
            let round_busy: u64 = row.iter().sum();
            assert!(
                round_busy <= (r.rounds[i].duration_ns + slack) * threads as u64,
                "round {i}: {round_busy} busy across {threads} workers"
            );
        }
    }
}

/// Every edge-map round's recorded decision reproduces why the policy
/// chose its direction: the share/threshold comparison matches the
/// direction taken, and switch flags agree with the report aggregate.
#[test]
fn policy_decisions_explain_the_chosen_directions() {
    let run = traced_bfs(2);
    let decisions: Vec<_> = run
        .report
        .rounds
        .iter()
        .filter_map(|r| r.decision)
        .collect();
    assert_eq!(
        decisions.len(),
        run.report.num_rounds(),
        "BFS is all edge-map rounds; each records a decision"
    );
    for (s, d) in run.report.rounds.iter().zip(&decisions) {
        assert_eq!(s.dir, d.dir, "the decision is the direction taken");
        assert!((0.0..=1.0).contains(&d.observed_share));
        assert!(d.threshold > 0.0, "adaptive rounds compare to a threshold");
    }
    let switched = decisions.iter().filter(|d| d.switched).count();
    assert_eq!(switched, run.report.switches());
    assert!(switched >= 1, "orc BFS crosses the Beamer threshold");
}

/// The no-regression guard: `MetricsLevel::Off` (the default) produces a
/// report equal to an explicit-Off run and carries none of the new
/// instrumentation — the legacy report, byte for byte.
#[test]
fn metrics_off_reproduces_the_legacy_report() {
    let g = Dataset::Orc.generate(Scale::Test);
    let engine = Engine::new(2);
    let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
    let default_run = Runner::new(&engine, &probes)
        .policy(DirectionPolicy::adaptive())
        .run(&g, BfsProgram::new(&g, 0));
    let off_run = Runner::new(&engine, &probes)
        .policy(DirectionPolicy::adaptive())
        .metrics(MetricsLevel::Off)
        .run(&g, BfsProgram::new(&g, 0));

    assert_eq!(default_run.report, off_run.report, "Off is the default");
    let r = &default_run.report;
    assert_eq!(r.elapsed_ns, 0);
    assert_eq!(r.round_duration_ns(), 0);
    assert!(r.worker_laps.is_empty());
    assert!(r.round_worker_busy.is_empty());
    assert!(r.rounds.iter().all(|s| s.decision.is_none()));
    assert!(r
        .rounds
        .iter()
        .all(|s| s.duration_ns == 0 && s.start_ns == 0));
    // The frontier trajectory itself is deterministic and identical to an
    // instrumented run's.
    let traced = traced_bfs(2);
    assert_eq!(r.num_rounds(), traced.report.num_rounds());
    for (a, b) in r.rounds.iter().zip(&traced.report.rounds) {
        assert_eq!(
            (a.frontier, a.frontier_edges, a.dir),
            (b.frontier, b.frontier_edges, b.dir)
        );
    }
}
