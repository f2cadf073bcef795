//! Smoke tests for the table/figure harness: every experiment must run to
//! completion at test scale (the CI-grade guarantee that `tables all`
//! works). Output goes to stdout and is not checked beyond "no panic".

use pp_bench::experiments::{self, Ctx};
use pp_graph::datasets::Scale;

fn ctx() -> Ctx {
    Ctx {
        scale: Scale::Test,
        threads: 2,
        samples: 1,
    }
}

#[test]
fn table1_runs() {
    experiments::table1::run(ctx());
}

#[test]
fn table2_runs() {
    experiments::table2::run(ctx());
}

#[test]
fn table3_runs() {
    experiments::table3::run(ctx());
}

#[test]
fn table4_runs() {
    experiments::table4::run(ctx());
}

#[test]
fn fig1_runs() {
    experiments::fig1::run(ctx());
}

#[test]
fn fig2_runs() {
    experiments::fig2::run(ctx());
}

#[test]
fn fig3_runs() {
    experiments::fig3::run(ctx());
}

#[test]
fn fig4_runs() {
    experiments::fig4::run(ctx());
}

#[test]
fn fig5_runs() {
    experiments::fig5::run(ctx());
}

#[test]
fn fig6_runs() {
    experiments::fig6::run(ctx());
}

#[test]
fn weak_runs() {
    experiments::weak::run(ctx());
}

#[test]
fn pram_table_runs() {
    experiments::pram_table::run(ctx());
}

#[test]
fn ext_runs() {
    experiments::ext::run(ctx());
}
