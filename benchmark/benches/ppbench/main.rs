//! `ppbench` command line (see `benchmark/README.md`).
//!
//! ```text
//! run.sh --workload W --seed S --seconds X --trace 0|1   one run (the driver's contract)
//! run.sh [--seed S] [--label L] [--seconds X] [--quick]  every workload, untraced then traced
//! run.sh compare A/metrics.tsv B/metrics.tsv             per-pair verdicts
//! run.sh manifest                                        the text of BENCHMARK.json
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use ppbench::plan::{self, RUN_SECONDS, WORKLOADS};
use ppbench::report::{self, json_str, Row};
use ppbench::run::{self, write_file, Args};
use ppbench::{alloc, compare};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: run.sh [--workload W] [--seed S] [--seconds X] [--trace 0|1] [--label L] [--quick]
       run.sh compare A/metrics.tsv B/metrics.tsv
       run.sh manifest";

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    label: String,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        label: "default".to_string(),
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--label" => {
                let l = value()?;
                if l.is_empty()
                    || !l
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                    || l.starts_with('.')
                {
                    return Err("--label takes letters, digits, _ . -".to_string());
                }
                cli.label = l.clone();
            }
            "--quick" => cli.quick = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(cli)
}

fn out_dir(label: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(label)
}

/// Paths the user typed are relative to where they typed them; `cargo
/// bench` runs this binary from the package root.
fn user_path(p: &str) -> PathBuf {
    match std::env::var_os("PPBENCH_CALLER_DIR") {
        Some(dir) => Path::new(&dir).join(p),
        None => PathBuf::from(p),
    }
}

fn part_path(dir: &Path, workload: &str, traced: bool, ext: &str) -> PathBuf {
    dir.join("parts")
        .join(format!("{workload}.{}.{ext}", u8::from(traced)))
}

fn print_rows(rows: &[Row], quick: bool) {
    let mark = if quick { "  [quick: unusable]" } else { "" };
    for r in rows {
        println!(
            "{:<16} {:<44} {:>16.6} {:<9} n={} q1={:.6} q3={:.6}{mark}",
            r.workload,
            r.metric,
            r.value(),
            r.unit,
            r.summary.n,
            r.summary.q1,
            r.summary.q3
        );
    }
}

fn one(cli: &Cli, name: &str) -> Result<bool, String> {
    let workload = plan::find_workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let dir = out_dir(&cli.label);
    let outcome = run::run_workload(&Args {
        workload,
        seed: cli.seed,
        seconds: cli
            .seconds
            .unwrap_or(if cli.quick { 0.5 } else { RUN_SECONDS as f64 }),
        traced: cli.traced,
        quick: cli.quick,
        out_dir: dir.clone(),
    })?;
    print_rows(&outcome.rows, cli.quick);
    let tsv: Vec<String> = outcome.rows.iter().map(report::tsv_line).collect();
    write_file(
        &part_path(&dir, name, cli.traced, "tsv"),
        &(tsv.join("\n") + "\n"),
    )?;
    let meta: Vec<String> = outcome
        .meta
        .iter()
        .map(|(k, v)| format!("{k}\t{v}"))
        .collect();
    write_file(
        &part_path(&dir, name, cli.traced, "meta"),
        &(meta.join("\n") + "\n"),
    )?;
    println!(
        "{}",
        report::contract_line(outcome.attempted, outcome.failed, &outcome.rows)?
    );
    Ok(outcome.correct())
}

/// Every workload in its own process (so `peak_rss_mb` is per workload),
/// untraced first, then traced; then `metrics.tsv` and `results.json`.
fn all(cli: &Cli) -> Result<bool, String> {
    let dir = out_dir(&cli.label);
    let _ = std::fs::remove_dir_all(dir.join("parts"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in &WORKLOADS {
        for traced in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--label", &cli.label])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if let Some(s) = cli.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if cli.quick {
                cmd.arg("--quick");
            }
            let status = cmd.status().map_err(|e| format!("spawn {exe:?}: {e}"))?;
            if !status.success() {
                eprintln!(
                    "ppbench: {} (trace {}) failed: {status}",
                    w.name,
                    u8::from(traced)
                );
                ok = false;
            }
        }
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut runs: Vec<String> = Vec::new();
    for traced in [false, true] {
        for w in &WORKLOADS {
            let read = |ext: &str| std::fs::read_to_string(part_path(&dir, w.name, traced, ext));
            let (Ok(tsv), Ok(meta)) = (read("tsv"), read("meta")) else {
                ok = false;
                continue;
            };
            rows.extend(tsv.lines().filter_map(report::parse_tsv_line));
            let fields: Vec<String> = meta
                .lines()
                .filter_map(|l| l.split_once('\t'))
                .map(|(k, v)| format!("{}: {v}", json_str(k)))
                .collect();
            runs.push(format!("{{{}}}", fields.join(", ")));
        }
    }
    let tsv: Vec<String> = std::iter::once(report::TSV_HEADER.to_string())
        .chain(rows.iter().map(report::tsv_line))
        .collect();
    write_file(&dir.join("metrics.tsv"), &(tsv.join("\n") + "\n"))?;
    let meta = vec![
        ("label".to_string(), json_str(&cli.label)),
        ("seed".to_string(), cli.seed.to_string()),
        ("quick".to_string(), cli.quick.to_string()),
        ("usable".to_string(), (!cli.quick).to_string()),
        // This harness measures; it claims no gain.
        ("claim".to_string(), "null".to_string()),
        ("all_correct".to_string(), ok.to_string()),
        (
            "runs".to_string(),
            format!("[\n    {}\n  ]", runs.join(",\n    ")),
        ),
    ];
    write_file(
        &dir.join("results.json"),
        &report::results_json(&meta, &rows),
    )?;
    eprintln!("ppbench: wrote {}", dir.join("results.json").display());
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    let result = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", plan::manifest());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => {
                let read = |p: &String| {
                    std::fs::read_to_string(user_path(p)).map_err(|e| format!("read {p}: {e}"))
                };
                read(a).and_then(|a| Ok((a, read(b)?))).map(|(a, b)| {
                    let (table, failed) = compare::compare(&a, &b);
                    print!("{table}");
                    !failed
                })
            }
            _ => Err(USAGE.to_string()),
        },
        _ => match parse(&args) {
            Ok(cli) => match cli.workload.clone() {
                Some(name) => one(&cli, &name),
                None => all(&cli),
            },
            Err(e) => {
                eprintln!("ppbench: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ppbench: {e}");
            ExitCode::from(2)
        }
    }
}
