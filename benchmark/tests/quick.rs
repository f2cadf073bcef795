//! End-to-end smoke test of the harness itself: every workload, untraced
//! and traced, at `--quick` size. Asserts that every declared
//! (metric, workload) pair is emitted, that no operation fails its check
//! on the seed code, and that each traced run leaves a trace whose child
//! spans stay inside their parents (`run_workload` refuses otherwise).

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

use ppbench::input::{Input, Needs};
use ppbench::loadgen::{flood, Target};
use ppbench::plan::{self, Family, Traffic, FLOOD_WINDOW, WORKLOADS};
use ppbench::run::{run_workload, Args};
use ppbench::spans::Tracer;

#[test]
fn every_declared_pair_is_emitted_and_nothing_fails() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ppbench-quick");
    for workload in &WORKLOADS {
        for traced in [false, true] {
            let outcome = run_workload(&Args {
                workload,
                seed: 2,
                seconds: 0.4,
                traced,
                quick: true,
                out_dir: out_dir.clone(),
            })
            .unwrap_or_else(|e| panic!("{} (traced: {traced}): {e}", workload.name));
            assert_eq!(outcome.failed, 0, "{}", workload.name);
            assert!(outcome.attempted > 0);
            let declared = if traced {
                plan::per_layer()
            } else {
                plan::end_to_end()
            };
            let emitted: Vec<&str> = outcome.rows.iter().map(|r| r.metric.as_str()).collect();
            let wanted: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(emitted, wanted, "{}", workload.name);
            for row in &outcome.rows {
                assert_eq!(row.workload, workload.name);
                assert!(
                    row.summary.median.is_finite(),
                    "{} {}",
                    workload.name,
                    row.metric
                );
            }
            if traced {
                let trace = out_dir.join(format!("trace-{}.json", workload.name));
                let text = std::fs::read_to_string(&trace).expect("the traced run wrote its trace");
                for span in [
                    "setup",
                    "generate",
                    "oracle",
                    "load_construct",
                    "warmup",
                    "pass",
                    "run:bfs",
                    "cold_run",
                    "request",
                ] {
                    assert!(
                        text.contains(&format!("\"name\": \"{span}\"")),
                        "{}: no {span} span",
                        workload.name
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(out_dir);
}

/// A server that reads a full window of requests, answers none and hangs
/// up: the flood's sender is waiting for room at that moment. It must be
/// woken, stop, and count what went unanswered as failed.
#[test]
fn a_server_that_hangs_up_fails_the_flood_and_does_not_hang_it() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ppbench-hangup");
    std::fs::create_dir_all(&dir).unwrap();
    let input = Input::build(
        Family::Rmat { scale: 6, ef: 4 },
        1,
        Needs {
            serve: true,
            ..Needs::default()
        },
        &dir,
        false,
        &mut Tracer::new(false),
    )
    .unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let lines = BufReader::new(&stream).lines().take(FLOOD_WINDOW);
        assert_eq!(lines.filter(Result::is_ok).count(), FLOOD_WINDOW);
    });
    let started = Instant::now();
    let phase = flood(
        &Target {
            addr,
            input: &input,
            params: "",
            traffic: Traffic::Flood,
            epoch: started,
        },
        Duration::from_secs(60),
    )
    .expect("every write went through: the server read a full window");
    server.join().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the sender waited for room nobody would make"
    );
    assert_eq!(phase.attempted(), FLOOD_WINDOW as u64);
    assert_eq!(phase.failed(), FLOOD_WINDOW as u64);
    let _ = std::fs::remove_dir_all(dir);
}
