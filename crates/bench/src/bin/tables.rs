//! The table/figure harness: regenerates every table and figure of the
//! paper's evaluation section on the synthetic dataset stand-ins.
//!
//! ```text
//! tables <experiment> [--scale test|small|medium] [--threads N] [--samples K]
//!
//! experiments:
//!   table1 table2 table3 table4 fig1 fig2 fig3 fig4 fig5 fig6a fig6b
//!   weak pram ext all
//! ```

use pp_bench::experiments::{self, Ctx};

const USAGE: &str = "\
usage: tables <experiment> [--scale test|small|medium] [--threads N] [--samples K]

defaults: --scale small, --threads <available parallelism>, --samples 3

experiments:
  table1   PAPI-style event counts for PR/TC/BGC/SSSP (push|push+PA|pull)
  table2   dataset statistics
  table3   PR ms/iteration and TC total seconds, push vs pull
  table4   PR across two machine configurations
  fig1     BGC time per iteration: push / pull / Greedy-Switch
  fig2     SSSP-Δ per-epoch times and the Δ sweep
  fig3     DM strong scaling for PR and TC (simulated ranks)
  fig4     Boruvka MST phase times per round
  fig5     BC scalability vs threads
  fig6a    PR push vs push+PA
  fig6b    BGC iteration counts per strategy
  weak     PR weak scaling (n/P constant, simulated ranks)
  pram     the §4 PRAM analysis table
  ext      tech-report extensions: new algorithms, SM/DM SSSP inversion,
           vertex-order x prefetcher cache ablation
  all      everything above
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print!("{USAGE}");
        return;
    }
    let mut ctx = Ctx::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                ctx.scale = args
                    .get(i)
                    .and_then(|s| experiments::parse_scale(s))
                    .unwrap_or_else(|| die("--scale expects test|small|medium"));
            }
            "--threads" => {
                i += 1;
                ctx.threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&t: &usize| t >= 1)
                    .unwrap_or_else(|| die("--threads expects a positive integer"));
            }
            "--samples" => {
                i += 1;
                ctx.samples = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&k: &usize| k >= 1)
                    .unwrap_or_else(|| die("--samples expects a positive integer"));
            }
            other => die(&format!("unknown option: {other}\n\n{USAGE}")),
        }
        i += 1;
    }

    match args[0].as_str() {
        "table1" => experiments::table1::run(ctx),
        "table2" => experiments::table2::run(ctx),
        "table3" => experiments::table3::run(ctx),
        "table4" => experiments::table4::run(ctx),
        "fig1" => experiments::fig1::run(ctx),
        "fig2" => experiments::fig2::run(ctx),
        "fig3" => experiments::fig3::run(ctx),
        "fig4" => experiments::fig4::run(ctx),
        "fig5" => experiments::fig5::run(ctx),
        "fig6a" => experiments::fig6::run_a(ctx),
        "fig6b" => experiments::fig6::run_b(ctx),
        "fig6" => experiments::fig6::run(ctx),
        "weak" => experiments::weak::run(ctx),
        "pram" => experiments::pram_table::run(ctx),
        "ext" => experiments::ext::run(ctx),
        "ext1" => experiments::ext::run_algorithms(ctx),
        "ext2" => experiments::ext::run_sm_dm_inversion(ctx),
        "ext3" => experiments::ext::run_locality(ctx),
        "all" => {
            experiments::table2::run(ctx);
            experiments::table1::run(ctx);
            experiments::table3::run(ctx);
            experiments::table4::run(ctx);
            experiments::fig1::run(ctx);
            experiments::fig2::run(ctx);
            experiments::fig3::run(ctx);
            experiments::fig4::run(ctx);
            experiments::fig5::run(ctx);
            experiments::fig6::run(ctx);
            experiments::weak::run(ctx);
            experiments::pram_table::run(ctx);
            experiments::ext::run(ctx);
        }
        other => die(&format!("unknown experiment: {other}\n\n{USAGE}")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
