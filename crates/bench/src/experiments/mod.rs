//! One module per table/figure of the paper's evaluation (§6). Each
//! exposes `run(ctx)` printing the same rows/series the paper reports;
//! the `tables` binary dispatches to them.

pub mod ext;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod pram_table;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod weak;

use pp_graph::datasets::Scale;

/// Shared experiment context.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// Dataset scale for every stand-in graph.
    pub scale: Scale,
    /// Worker threads (the paper's `T`); defaults to the machine's
    /// available parallelism so no timing row is oversubscribed.
    pub threads: usize,
    /// Timing samples per measurement (median reported).
    pub samples: usize,
}

impl Default for Ctx {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            samples: 3,
        }
    }
}

/// Parses a `--scale` value.
pub fn parse_scale(s: &str) -> Option<Scale> {
    match s {
        "test" => Some(Scale::Test),
        "small" => Some(Scale::Small),
        "medium" => Some(Scale::Medium),
        _ => None,
    }
}

/// Prints a section header in the harness's uniform style.
pub fn header(title: &str, source: &str) {
    println!();
    println!("=== {title} ===");
    println!("    (paper reference: {source})");
    println!();
}

/// Prints an x/series table: one row per x value, one column per series.
pub fn print_series(x_label: &str, xs: &[String], series: &[(&str, Vec<String>)]) {
    print!("{x_label:>12}");
    for (name, _) in series {
        print!(" {name:>14}");
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>12}");
        for (_, col) in series {
            print!(" {:>14}", col.get(i).map(String::as_str).unwrap_or("-"));
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale("test"), Some(Scale::Test));
        assert_eq!(parse_scale("small"), Some(Scale::Small));
        assert_eq!(parse_scale("medium"), Some(Scale::Medium));
        assert_eq!(parse_scale("huge"), None);
    }

    #[test]
    fn default_ctx_is_sane() {
        let c = Ctx::default();
        assert!(c.threads >= 1);
        assert!(c.samples >= 1);
    }
}
