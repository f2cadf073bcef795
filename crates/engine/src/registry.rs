//! A name → [`Program`] registry: every algorithm the engine ships,
//! runnable by string name with one configuration surface.
//!
//! The paper's evaluation drives many algorithms over many graphs from one
//! harness; this module is the dispatch table that makes that possible for
//! external drivers (the `ppgraph` CLI in `pp-bench`, scripts, CI smoke
//! tests) without each of them hand-wiring ten `Runner::run` call sites.
//! Each [`AlgoSpec`] knows its name (plus aliases), whether it needs edge
//! weights, and how to run itself under a [`RunConfig`]; the result packs
//! the unified [`RunReport`] with a small human/JSON-friendly summary of
//! the output (component counts, tree weight, reached vertices, …).
//!
//! [`Program`]: crate::program::Program

use pp_core::{bc::BcOptions, pagerank::PrOptions, sssp::SsspOptions};
use pp_graph::{CsrGraph, VertexId};
use pp_telemetry::{CountingProbe, MetricsLevel, NullProbe};

use crate::algo::{
    bc::BcProgram,
    bfs::BfsProgram,
    coloring::ColoringProgram,
    components::CcProgram,
    kcore::KCoreProgram,
    labelprop::LabelPropProgram,
    msbfs::{MsBfsProgram, SourceBatch, MAX_LANES},
    mst::MstProgram,
    pagerank::PageRankProgram,
    sssp::SsspProgram,
    triangles::TcProgram,
};
use crate::partitioned::ExecutionMode;
use crate::policy::DirectionPolicy;
use crate::probes::{ProbeShards, ShardProbe};
use crate::report::RunReport;
use crate::runner::Runner;
use crate::Engine;

/// Everything a registry run needs besides the graph. Construct with
/// [`RunConfig::new`] and override fields as needed.
///
/// Generic over the probe shard type: the default `NullProbe` keeps the
/// zero-overhead benchmark path; a `CountingProbe` config (paired with
/// [`all_counting`]/[`find_counting`]) additionally tallies Table-1 event
/// counts during the same run.
pub struct RunConfig<'a, P: ShardProbe = NullProbe> {
    /// The engine to schedule onto.
    pub engine: &'a Engine,
    /// Per-worker probe shards (sized to `engine.threads()`).
    pub probes: &'a ProbeShards<P>,
    /// Direction policy for every round.
    pub policy: DirectionPolicy,
    /// Push execution mode (atomic vs. §5 owner-computes).
    pub mode: ExecutionMode,
    /// How much run-wide observability to collect (decisions, timing,
    /// trace substrate). `Off` by default: the probe type alone decides
    /// what is counted, and nothing else is recorded.
    pub collect: MetricsLevel,
    /// Source vertex for rooted algorithms (BFS, SSSP).
    pub source: VertexId,
    /// Source *batch* for batched multi-source execution (`bfs --sources`
    /// / the `msbfs` alias): when non-empty, the run traverses all listed
    /// sources in one bit-parallel pass ([`crate::algo::msbfs`]) and
    /// `source` is ignored. Repeated sources share a lane; at most
    /// [`MAX_LANES`] distinct sources validate. Empty (the default) keeps
    /// the single-source path byte-identical to the pre-batch one.
    pub sources: Vec<VertexId>,
    /// Iteration cap for label propagation.
    pub lp_iters: usize,
    /// Source cap for betweenness centrality (`None` = all sources; exact
    /// BC is O(n·m) per source, so drivers default to a small cap).
    pub bc_sources: Option<usize>,
}

impl<'a, P: ShardProbe> RunConfig<'a, P> {
    /// Defaults: adaptive policy, atomic mode, metrics off, source 0, 20
    /// LP iterations, 8 BC sources.
    pub fn new(engine: &'a Engine, probes: &'a ProbeShards<P>) -> Self {
        Self {
            engine,
            probes,
            policy: DirectionPolicy::adaptive(),
            mode: ExecutionMode::Atomic,
            collect: MetricsLevel::Off,
            source: 0,
            sources: Vec::new(),
            lp_iters: 20,
            bc_sources: Some(8),
        }
    }

    fn runner(&self) -> Runner<'a, P> {
        Runner::new(self.engine, self.probes)
            .policy(self.policy)
            .mode(self.mode)
            .metrics(self.collect)
    }
}

/// Why a registry run was refused before any kernel executed.
///
/// The registry sits behind untrusted drivers now (the `pp-serve` query
/// service feeds it socket input): bad input must come back as a value the
/// driver can render, not a panic that kills the process. Every variant
/// corresponds to a validation [`AlgoSpec::validate`] performs up front.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// No registered algorithm matches the name or any alias.
    UnknownAlgo(String),
    /// A rooted algorithm's source vertex is outside `0..n`.
    SourceOutOfRange {
        /// The requested source.
        source: VertexId,
        /// The graph's vertex count.
        n: usize,
    },
    /// The algorithm requires edge weights and the graph has none.
    NeedsWeights {
        /// The algorithm that refused.
        algo: &'static str,
    },
    /// A configuration field holds a value no run can honor.
    InvalidParam {
        /// The offending [`RunConfig`] field.
        param: &'static str,
        /// Why the value is unusable.
        reason: &'static str,
    },
}

impl RunError {
    /// A stable machine-readable tag for each variant — what the serve
    /// protocol puts in its `error.kind` field.
    pub fn kind(&self) -> &'static str {
        match self {
            RunError::UnknownAlgo(_) => "unknown_algo",
            RunError::SourceOutOfRange { .. } => "source_out_of_range",
            RunError::NeedsWeights { .. } => "needs_weights",
            RunError::InvalidParam { .. } => "bad_param",
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownAlgo(name) => {
                write!(f, "unknown algorithm: {name} (see `ppgraph algos`)")
            }
            RunError::SourceOutOfRange { source, n } => {
                write!(f, "source {source} out of range (n = {n})")
            }
            RunError::NeedsWeights { algo } => {
                write!(f, "{algo} requires edge weights")
            }
            RunError::InvalidParam { param, reason } => {
                write!(f, "invalid {param}: {reason}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// One completed registry run: the unified report plus a summary of the
/// program's output as `(fact, value)` pairs.
#[derive(Clone, Debug)]
pub struct AlgoRun {
    /// Per-round direction/frontier/edge statistics.
    pub report: RunReport,
    /// Output digest, e.g. `("components", "17")` for CC.
    pub summary: Vec<(&'static str, String)>,
}

/// A registered algorithm, monomorphized for probe type `P` (the two
/// shipped tables are [`all`] for `NullProbe` and [`all_counting`] for
/// `CountingProbe` — both are stamped from one list by `registry_table!`,
/// so they cannot drift apart).
pub struct AlgoSpec<P: ShardProbe + 'static = NullProbe> {
    /// Canonical name (`ppgraph run <name>`).
    pub name: &'static str,
    /// Accepted alternative names.
    pub aliases: &'static [&'static str],
    /// One-line description with the paper section it reproduces.
    pub description: &'static str,
    /// Whether the graph must carry edge weights.
    pub needs_weights: bool,
    /// Whether the run is rooted at `cfg.source` (BFS, SSSP) — rooted
    /// algorithms validate the source against the graph's vertex count.
    pub rooted: bool,
    /// Whether the algorithm accepts a multi-source batch
    /// (`cfg.sources`) — only `bfs` dispatches the bit-parallel MS-BFS
    /// path; everything else rejects a non-empty batch up front.
    pub batched: bool,
    run: fn(&RunConfig<'_, P>, &CsrGraph) -> AlgoRun,
}

impl<P: ShardProbe> AlgoSpec<P> {
    /// Checks that `cfg` and `g` make a runnable pair, without running
    /// anything: weights present where required, a rooted source in range,
    /// parameter values a run can honor. This is the complete list of
    /// preconditions — a config that validates cannot panic inside
    /// [`AlgoSpec::try_run`] on account of its input.
    pub fn validate(&self, cfg: &RunConfig<'_, P>, g: &CsrGraph) -> Result<(), RunError> {
        if self.needs_weights && !g.is_weighted() {
            return Err(RunError::NeedsWeights { algo: self.name });
        }
        if self.rooted && cfg.sources.is_empty() && (cfg.source as usize) >= g.num_vertices() {
            return Err(RunError::SourceOutOfRange {
                source: cfg.source,
                n: g.num_vertices(),
            });
        }
        if !cfg.sources.is_empty() {
            if !self.batched {
                return Err(RunError::InvalidParam {
                    param: "sources",
                    reason: "this algorithm runs single-source (a batch needs bfs/msbfs)",
                });
            }
            for &s in &cfg.sources {
                if (s as usize) >= g.num_vertices() {
                    return Err(RunError::SourceOutOfRange {
                        source: s,
                        n: g.num_vertices(),
                    });
                }
            }
            // Repeated sources are legal (they fold onto one lane in the
            // run path); only the *distinct* count is bounded by the lane
            // width of the mask words.
            if distinct(&cfg.sources) > MAX_LANES {
                return Err(RunError::InvalidParam {
                    param: "sources",
                    reason: "a batch holds at most 64 distinct sources",
                });
            }
        }
        if cfg.lp_iters == 0 {
            return Err(RunError::InvalidParam {
                param: "lp_iters",
                reason: "must be >= 1",
            });
        }
        if cfg.bc_sources == Some(0) {
            return Err(RunError::InvalidParam {
                param: "bc_sources",
                reason: "must be >= 1 (omit the cap to run every source)",
            });
        }
        Ok(())
    }

    /// Runs the algorithm on `g` under `cfg`, refusing bad input as a
    /// [`RunError`] instead of panicking — the entry point for drivers fed
    /// from outside the process (the `pp-serve` query loop, the `ppgraph`
    /// CLI).
    pub fn try_run(&self, cfg: &RunConfig<'_, P>, g: &CsrGraph) -> Result<AlgoRun, RunError> {
        self.validate(cfg, g)?;
        Ok((self.run)(cfg, g))
    }

    /// Runs the algorithm on `g` under `cfg`.
    ///
    /// # Panics
    /// Panics with the [`RunError`] message if [`AlgoSpec::validate`]
    /// refuses the input (e.g. the algorithm requires edge weights and `g`
    /// has none) — callers that cannot guarantee their input use
    /// [`AlgoSpec::try_run`].
    pub fn run(&self, cfg: &RunConfig<'_, P>, g: &CsrGraph) -> AlgoRun {
        self.try_run(cfg, g).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Whether `name` matches the canonical name or an alias
    /// (ASCII-case-insensitively).
    pub fn matches(&self, name: &str) -> bool {
        self.name.eq_ignore_ascii_case(name)
            || self.aliases.iter().any(|a| a.eq_ignore_ascii_case(name))
    }
}

/// Every registered algorithm — the paper's full ten-program workload
/// table, in its order.
pub fn all() -> &'static [AlgoSpec] {
    &REGISTRY
}

/// Looks an algorithm up by name or alias.
pub fn find(name: &str) -> Option<&'static AlgoSpec> {
    REGISTRY.iter().find(|spec| spec.matches(name))
}

/// Resolves `name` and runs it under `cfg`, returning every failure —
/// including an unknown name — as a [`RunError`]. One malformed request
/// cannot panic past this function; it is the registry entry point the
/// serve loop and the CLI call for externally-supplied input.
pub fn run_checked(
    name: &str,
    cfg: &RunConfig<'_, NullProbe>,
    g: &CsrGraph,
) -> Result<AlgoRun, RunError> {
    find(name)
        .ok_or_else(|| RunError::UnknownAlgo(name.to_string()))?
        .try_run(cfg, g)
}

/// The same table monomorphized over [`CountingProbe`], for drivers that
/// want Table-1 event counts from the run (`ppgraph run --metrics`).
pub fn all_counting() -> &'static [AlgoSpec<CountingProbe>] {
    &COUNTING_REGISTRY
}

/// [`find`] against the [`CountingProbe`] table.
pub fn find_counting(name: &str) -> Option<&'static AlgoSpec<CountingProbe>> {
    COUNTING_REGISTRY.iter().find(|spec| spec.matches(name))
}

/// Stamps the ten-algorithm table for one probe type. One source list,
/// instantiated per probe type below — adding an algorithm here lands in
/// every monomorphization at once.
macro_rules! registry_table {
    ($P:ty) => {
        [
            AlgoSpec {
                name: "bfs",
                aliases: &["msbfs"],
                description: "breadth-first search from --source, batched over --sources (§3.3)",
                needs_weights: false,
                rooted: true,
                batched: true,
                run: run_bfs::<$P>,
            },
            AlgoSpec {
                name: "pagerank",
                aliases: &["pr"],
                description: "PageRank power iterations (§3.1)",
                needs_weights: false,
                rooted: false,
                batched: false,
                run: run_pagerank::<$P>,
            },
            AlgoSpec {
                name: "sssp",
                aliases: &["delta-stepping"],
                description: "Δ-stepping shortest paths from --source (§3.4)",
                needs_weights: true,
                rooted: true,
                batched: false,
                run: run_sssp::<$P>,
            },
            AlgoSpec {
                name: "cc",
                aliases: &["components"],
                description: "connected components by label-min propagation",
                needs_weights: false,
                rooted: false,
                batched: false,
                run: run_cc::<$P>,
            },
            AlgoSpec {
                name: "kcore",
                aliases: &["k-core"],
                description: "k-core decomposition by iterative peeling",
                needs_weights: false,
                rooted: false,
                batched: false,
                run: run_kcore::<$P>,
            },
            AlgoSpec {
                name: "labelprop",
                aliases: &["lp"],
                description: "synchronous community label propagation",
                needs_weights: false,
                rooted: false,
                batched: false,
                run: run_labelprop::<$P>,
            },
            AlgoSpec {
                name: "coloring",
                aliases: &["bgc"],
                description: "Boman-style speculative graph coloring (§5)",
                needs_weights: false,
                rooted: false,
                batched: false,
                run: run_coloring::<$P>,
            },
            AlgoSpec {
                name: "tc",
                aliases: &["triangles"],
                description: "triangle counting by adjacency intersection (§3.2)",
                needs_weights: false,
                rooted: false,
                batched: false,
                run: run_tc::<$P>,
            },
            AlgoSpec {
                name: "mst",
                aliases: &["boruvka"],
                description: "Boruvka minimum spanning forest (§3.7)",
                needs_weights: true,
                rooted: false,
                batched: false,
                run: run_mst::<$P>,
            },
            AlgoSpec {
                name: "bc",
                aliases: &["betweenness"],
                description: "Brandes betweenness centrality (§3.5)",
                needs_weights: false,
                rooted: false,
                batched: false,
                run: run_bc::<$P>,
            },
        ]
    };
}

static REGISTRY: [AlgoSpec; 10] = registry_table!(NullProbe);
static COUNTING_REGISTRY: [AlgoSpec<CountingProbe>; 10] = registry_table!(CountingProbe);

fn distinct<T: Ord + Copy>(values: &[T]) -> usize {
    let mut sorted: Vec<T> = values.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

fn run_bfs<P: ShardProbe>(cfg: &RunConfig<'_, P>, g: &CsrGraph) -> AlgoRun {
    if !cfg.sources.is_empty() {
        return run_bfs_batched(cfg, g);
    }
    let run = cfg.runner().run(g, BfsProgram::new(g, cfg.source));
    let (_, level) = run.output;
    let (reached, depth) = level_digest(&level);
    AlgoRun {
        report: run.report,
        summary: vec![
            ("reached", reached.to_string()),
            ("depth", depth.to_string()),
        ],
    }
}

/// `(reached, depth)` of one BFS level vector — the single-source summary
/// digest, shared by the single and the batched path so a batch lane's
/// digest is bit-equal to its single-source run.
fn level_digest(level: &[u32]) -> (usize, u32) {
    let reached = level.iter().filter(|&&l| l != u32::MAX).count();
    let depth = level
        .iter()
        .filter(|&&l| l != u32::MAX)
        .max()
        .copied()
        .unwrap_or(0);
    (reached, depth)
}

/// One bit-parallel MS-BFS over `cfg.sources`. The digest is the
/// concatenation of the per-source digests, in lane (deduplicated,
/// first-occurrence) order, plus the lane list itself.
fn run_bfs_batched<P: ShardProbe>(cfg: &RunConfig<'_, P>, g: &CsrGraph) -> AlgoRun {
    let batch = SourceBatch::new(g, &cfg.sources);
    let lane_sources: Vec<String> = batch.sources().iter().map(u32::to_string).collect();
    let run = cfg.runner().run(g, MsBfsProgram::new(g, batch));
    let digests: Vec<(usize, u32)> = run.output.iter().map(|l| level_digest(l)).collect();
    let join =
        |f: &dyn Fn(&(usize, u32)) -> String| digests.iter().map(f).collect::<Vec<_>>().join(",");
    AlgoRun {
        report: run.report,
        summary: vec![
            ("sources", lane_sources.join(",")),
            ("reached", join(&|d| d.0.to_string())),
            ("depth", join(&|d| d.1.to_string())),
        ],
    }
}

/// Runs one batched MS-BFS over `cfg.sources` and slices a
/// single-source-shaped [`AlgoRun`] per *configured* source (input order;
/// repeated sources share a lane): each slice's summary is bit-equal to
/// the corresponding single-source `bfs` run's, and each carries the
/// shared batched report. This is the entry the `pp-serve` query
/// coalescer uses to answer N queued queries with one traversal.
pub fn run_bfs_sliced(
    cfg: &RunConfig<'_, NullProbe>,
    g: &CsrGraph,
) -> Result<Vec<AlgoRun>, RunError> {
    let spec = find("bfs").expect("bfs is registered");
    if cfg.sources.is_empty() {
        return Err(RunError::InvalidParam {
            param: "sources",
            reason: "a sliced batch needs at least one source",
        });
    }
    spec.validate(cfg, g)?;
    let batch = SourceBatch::new(g, &cfg.sources);
    let run = cfg.runner().run(g, MsBfsProgram::new(g, batch.clone()));
    let digests: Vec<(usize, u32)> = run.output.iter().map(|l| level_digest(l)).collect();
    Ok(cfg
        .sources
        .iter()
        .map(|&s| {
            let lane = batch
                .sources()
                .iter()
                .position(|&x| x == s)
                .expect("every configured source has a lane");
            AlgoRun {
                report: run.report.clone(),
                summary: vec![
                    ("reached", digests[lane].0.to_string()),
                    ("depth", digests[lane].1.to_string()),
                ],
            }
        })
        .collect())
}

fn run_pagerank<P: ShardProbe>(cfg: &RunConfig<'_, P>, g: &CsrGraph) -> AlgoRun {
    let run = cfg
        .runner()
        .run(g, PageRankProgram::new(g, &PrOptions::default()));
    let pr = run.output;
    let sum: f64 = pr.iter().sum();
    let top = pr
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(v, _)| v)
        .unwrap_or(0);
    AlgoRun {
        report: run.report,
        summary: vec![
            ("rank_sum", format!("{sum:.6}")),
            ("top_vertex", top.to_string()),
        ],
    }
}

fn run_sssp<P: ShardProbe>(cfg: &RunConfig<'_, P>, g: &CsrGraph) -> AlgoRun {
    let run = cfg
        .runner()
        .run(g, SsspProgram::new(g, cfg.source, &SsspOptions::default()));
    let (dist, buckets) = run.output;
    let reached = dist.iter().filter(|&&d| d != u64::MAX).count();
    let ecc = dist.iter().filter(|&&d| d != u64::MAX).max().copied();
    AlgoRun {
        report: run.report,
        summary: vec![
            ("reached", reached.to_string()),
            ("max_dist", ecc.unwrap_or(0).to_string()),
            ("epochs", buckets.len().to_string()),
        ],
    }
}

fn run_cc<P: ShardProbe>(cfg: &RunConfig<'_, P>, g: &CsrGraph) -> AlgoRun {
    let run = cfg.runner().run(g, CcProgram::new(g));
    AlgoRun {
        summary: vec![("components", distinct(&run.output).to_string())],
        report: run.report,
    }
}

fn run_kcore<P: ShardProbe>(cfg: &RunConfig<'_, P>, g: &CsrGraph) -> AlgoRun {
    let run = cfg.runner().run(g, KCoreProgram::new(g));
    let degeneracy = run.output.iter().max().copied().unwrap_or(0);
    AlgoRun {
        report: run.report,
        summary: vec![("degeneracy", degeneracy.to_string())],
    }
}

fn run_labelprop<P: ShardProbe>(cfg: &RunConfig<'_, P>, g: &CsrGraph) -> AlgoRun {
    let run = cfg.runner().run(g, LabelPropProgram::new(g, cfg.lp_iters));
    let (labels, iterations, converged) = run.output;
    AlgoRun {
        report: run.report,
        summary: vec![
            ("communities", distinct(&labels).to_string()),
            ("iterations", iterations.to_string()),
            ("converged", converged.to_string()),
        ],
    }
}

fn run_coloring<P: ShardProbe>(cfg: &RunConfig<'_, P>, g: &CsrGraph) -> AlgoRun {
    let run = cfg.runner().run(g, ColoringProgram::new(g));
    AlgoRun {
        summary: vec![("colors", distinct(&run.output).to_string())],
        report: run.report,
    }
}

fn run_tc<P: ShardProbe>(cfg: &RunConfig<'_, P>, g: &CsrGraph) -> AlgoRun {
    let run = cfg.runner().run(g, TcProgram::new(g));
    // Per-corner counts: each triangle is counted once at each of its
    // three corners.
    let total: u64 = run.output.iter().sum::<u64>() / 3;
    AlgoRun {
        report: run.report,
        summary: vec![("triangles", total.to_string())],
    }
}

fn run_mst<P: ShardProbe>(cfg: &RunConfig<'_, P>, g: &CsrGraph) -> AlgoRun {
    let run = cfg.runner().run(g, MstProgram::new(g));
    let (edges, total_weight) = run.output;
    AlgoRun {
        report: run.report,
        summary: vec![
            ("tree_edges", edges.len().to_string()),
            ("total_weight", total_weight.to_string()),
        ],
    }
}

fn run_bc<P: ShardProbe>(cfg: &RunConfig<'_, P>, g: &CsrGraph) -> AlgoRun {
    let opts = BcOptions {
        max_sources: cfg.bc_sources,
    };
    let run = cfg.runner().run(g, BcProgram::new(g, &opts));
    let (top, score) = run
        .output
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(v, &s)| (v, s))
        .unwrap_or((0, 0.0));
    AlgoRun {
        report: run.report,
        summary: vec![
            ("top_vertex", top.to_string()),
            ("top_score", format!("{score:.3}")),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_graph::{gen, stats};

    #[test]
    fn registry_lists_ten_uniquely_named_algorithms() {
        assert_eq!(all().len(), 10);
        let mut names: Vec<&str> = Vec::new();
        for spec in all() {
            names.push(spec.name);
            names.extend(spec.aliases);
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "names and aliases collide");
    }

    #[test]
    fn find_resolves_names_and_aliases_case_insensitively() {
        for spec in all() {
            assert_eq!(find(spec.name).unwrap().name, spec.name);
            assert_eq!(find(&spec.name.to_uppercase()).unwrap().name, spec.name);
            for alias in spec.aliases {
                assert_eq!(find(alias).unwrap().name, spec.name);
            }
        }
        assert!(find("no-such-algo").is_none());
    }

    #[test]
    fn every_algorithm_runs_by_name_with_a_sane_summary() {
        let g = gen::rmat(7, 5, 3);
        let gw = gen::with_random_weights(&g, 1, 40, 9);
        let engine = Engine::new(2);
        let probes = ProbeShards::new(engine.threads());
        let cfg = RunConfig::new(&engine, &probes);
        for spec in all() {
            let run = spec.run(&cfg, if spec.needs_weights { &gw } else { &g });
            assert!(
                !run.summary.is_empty() && run.report.num_rounds() > 0,
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn summaries_match_reference_statistics() {
        use pp_core::{bc, kcore, labelprop, mst, pagerank, sssp, triangles, Direction};

        let g = gen::erdos_renyi(120, 90, 5); // several components
        let gw = gen::with_random_weights(&g, 1, 40, 9);
        let engine = Engine::new(2);
        let probes = ProbeShards::new(engine.threads());
        let cfg = RunConfig::new(&engine, &probes);
        let summary = |algo: &str| {
            let spec = find(algo).unwrap();
            spec.run(&cfg, if spec.needs_weights { &gw } else { &g })
                .summary
        };
        let get = |summary: &[(&str, String)], key: &str| -> String {
            let (_, v) = summary.iter().find(|(k, _)| *k == key).unwrap();
            v.clone()
        };
        // The twin's score at the reported top vertex is the twin's
        // maximum — robust to ties and to ε-level float reordering.
        let tops_agree = |algo: &str, twin: &[f64]| {
            let top: usize = get(&summary(algo), "top_vertex").parse().unwrap();
            let max = twin.iter().copied().fold(f64::MIN, f64::max);
            assert!((twin[top] - max).abs() <= 1e-9 * max.abs(), "{algo}");
        };

        assert_eq!(
            summary("cc"),
            [("components", stats::num_components(&g).to_string())]
        );

        let (level, _, ecc) = stats::bfs_levels(&g, 0);
        let reached = level.iter().filter(|&&l| l != u32::MAX).count();
        assert_eq!(
            summary("bfs"),
            [("reached", reached.to_string()), ("depth", ecc.to_string())]
        );

        let dist = sssp::dijkstra(&gw, 0);
        let finite: Vec<u64> = dist.into_iter().filter(|&d| d != sssp::INF).collect();
        let s = summary("sssp");
        assert_eq!(get(&s, "reached"), finite.len().to_string());
        let max_dist = finite.iter().max().unwrap();
        assert_eq!(get(&s, "max_dist"), max_dist.to_string());

        let degeneracy = kcore::coreness_seq(&g).into_iter().max().unwrap();
        assert_eq!(summary("kcore"), [("degeneracy", degeneracy.to_string())]);

        let lp = labelprop::label_propagation(&g, Direction::Pull, cfg.lp_iters);
        assert_eq!(
            summary("labelprop"),
            [
                ("communities", distinct(&lp.labels).to_string()),
                ("iterations", lp.iterations.to_string()),
                ("converged", lp.converged.to_string()),
            ]
        );

        let colors: usize = get(&summary("coloring"), "colors").parse().unwrap();
        assert!(colors <= g.max_degree() + 1, "{colors} colors");

        let expected: u64 = triangles::triangle_counts_seq(&g).iter().sum::<u64>() / 3;
        assert_eq!(summary("tc"), [("triangles", expected.to_string())]);

        let (edges, weight) = mst::kruskal_seq(&gw);
        assert_eq!(
            summary("mst"),
            [
                ("tree_edges", edges.len().to_string()),
                ("total_weight", weight.to_string()),
            ]
        );

        tops_agree(
            "pagerank",
            &pagerank::pagerank_seq(&g, &pagerank::PrOptions::default()),
        );
        tops_agree("bc", &bc::betweenness_seq(&g, cfg.bc_sources));
    }

    #[test]
    fn modes_and_policies_flow_through_the_config() {
        use pp_core::Direction;
        let g = gen::rmat(7, 4, 1);
        let engine = Engine::new(2);
        let probes = ProbeShards::new(engine.threads());
        for (_, policy) in DirectionPolicy::sweep() {
            for (_, mode) in ExecutionMode::sweep() {
                let cfg = RunConfig {
                    policy,
                    mode,
                    ..RunConfig::new(&engine, &probes)
                };
                let run = find("cc").unwrap().run(&cfg, &g);
                if let DirectionPolicy::Fixed(Direction::Push) = policy {
                    assert_eq!(run.report.pull_rounds(), 0);
                }
            }
        }
    }

    #[test]
    fn counting_registry_mirrors_the_null_one_and_counts_events() {
        assert_eq!(all().len(), all_counting().len());
        for (a, b) in all().iter().zip(all_counting()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.aliases, b.aliases);
            assert_eq!(a.needs_weights, b.needs_weights);
        }
        let g = gen::rmat(7, 5, 3);
        let engine = Engine::new(2);
        let probes: ProbeShards<pp_telemetry::CountingProbe> = ProbeShards::new(engine.threads());
        let cfg = RunConfig::new(&engine, &probes);
        let run = find_counting("bfs").unwrap().run(&cfg, &g);
        assert!(run.report.num_rounds() > 0);
        assert!(probes.merged().communication() > 0, "events were counted");
    }

    #[test]
    fn collect_knob_fills_timing_without_changing_round_structure() {
        let g = gen::rmat(7, 5, 3);
        let engine = Engine::new(2);
        let probes = ProbeShards::new(engine.threads());
        let off = RunConfig::new(&engine, &probes);
        let timed = RunConfig {
            collect: MetricsLevel::Trace,
            ..RunConfig::new(&engine, &probes)
        };
        let a = find("cc").unwrap().run(&off, &g);
        let b = find("cc").unwrap().run(&timed, &g);
        assert_eq!(a.report.elapsed_ns, 0);
        assert!(a.report.worker_laps.is_empty());
        assert!(a.report.rounds.iter().all(|r| r.decision.is_none()));
        assert!(b.report.elapsed_ns > 0);
        assert_eq!(b.report.worker_laps.len(), engine.threads());
        assert_eq!(b.report.num_rounds(), a.report.num_rounds());
        assert_eq!(b.report.round_worker_busy.len(), b.report.num_rounds());
        assert!(b.report.rounds.iter().all(|r| r.decision.is_some()));
        assert!(b.report.elapsed_ns >= b.report.round_duration_ns());
    }

    #[test]
    #[should_panic(expected = "requires edge weights")]
    fn weighted_algorithms_reject_unweighted_graphs() {
        let g = gen::path(10);
        let engine = Engine::new(1);
        let probes = ProbeShards::new(engine.threads());
        let cfg = RunConfig::new(&engine, &probes);
        find("mst").unwrap().run(&cfg, &g);
    }

    #[test]
    fn bad_input_returns_structured_errors_instead_of_panicking() {
        let g = gen::path(10);
        let engine = Engine::new(1);
        let probes = ProbeShards::new(engine.threads());
        let cfg = RunConfig::new(&engine, &probes);

        let e = run_checked("no-such-algo", &cfg, &g).unwrap_err();
        assert_eq!(e, RunError::UnknownAlgo("no-such-algo".to_string()));
        assert_eq!(e.kind(), "unknown_algo");

        // Out-of-range source on every rooted algorithm (weighted graph,
        // so SSSP gets past the weights check to the range check).
        let wg = gen::with_random_weights(&g, 1, 4, 1);
        let far = RunConfig {
            source: 10,
            ..RunConfig::new(&engine, &probes)
        };
        for name in ["bfs", "sssp"] {
            let spec = find(name).unwrap();
            assert!(spec.rooted, "{name}");
            let e = run_checked(name, &far, &wg).unwrap_err();
            assert_eq!(e, RunError::SourceOutOfRange { source: 10, n: 10 });
            assert_eq!(e.kind(), "source_out_of_range");
            assert!(e.to_string().contains("out of range"));
        }
        // ... including on an empty graph, where no source is valid.
        let empty = gen::erdos_renyi(0, 0, 1);
        assert_eq!(
            run_checked("bfs", &cfg, &empty).unwrap_err(),
            RunError::SourceOutOfRange { source: 0, n: 0 }
        );
        // Unrooted algorithms ignore the source entirely.
        assert!(run_checked("cc", &far, &g).is_ok());

        let e = run_checked("mst", &cfg, &g).unwrap_err();
        assert_eq!(e, RunError::NeedsWeights { algo: "mst" });
        assert_eq!(e.kind(), "needs_weights");

        let zero_bc = RunConfig {
            bc_sources: Some(0),
            ..RunConfig::new(&engine, &probes)
        };
        let e = run_checked("bc", &zero_bc, &g).unwrap_err();
        assert_eq!(e.kind(), "bad_param");
        assert!(e.to_string().contains("bc_sources"));

        let zero_lp = RunConfig {
            lp_iters: 0,
            ..RunConfig::new(&engine, &probes)
        };
        let e = run_checked("labelprop", &zero_lp, &g).unwrap_err();
        assert_eq!(e.kind(), "bad_param");
        assert!(e.to_string().contains("lp_iters"));

        // Errors resolve through aliases the same as canonical names.
        assert_eq!(
            run_checked("boruvka", &cfg, &g).unwrap_err(),
            RunError::NeedsWeights { algo: "mst" }
        );

        // A config that validates runs — and matches the panicking path.
        let ok = run_checked("bfs", &cfg, &g).unwrap();
        assert!(!ok.summary.is_empty());
    }

    #[test]
    fn batched_sources_validate_dedupe_and_match_single_source_runs() {
        let g = gen::rmat(7, 5, 3);
        let engine = Engine::new(2);
        let probes = ProbeShards::new(engine.threads());

        // The msbfs alias resolves to bfs, which is the only batched spec.
        assert_eq!(find("msbfs").unwrap().name, "bfs");
        assert!(find("bfs").unwrap().batched);
        assert!(all().iter().filter(|s| s.batched).count() == 1);

        // More than 64 *distinct* sources is a structured bad_param...
        let too_many = RunConfig {
            sources: (0..65).collect(),
            ..RunConfig::new(&engine, &probes)
        };
        let e = run_checked("bfs", &too_many, &g).unwrap_err();
        assert_eq!(e.kind(), "bad_param");
        assert!(e.to_string().contains("sources"));

        // ...but 65 entries with ≤ 64 distinct values validate (duplicates
        // fold onto one lane).
        let dup_heavy = RunConfig {
            sources: (0..65).map(|i| i % 64).collect(),
            ..RunConfig::new(&engine, &probes)
        };
        assert!(run_checked("bfs", &dup_heavy, &g).is_ok());

        // Every batch member is range-checked individually.
        let far = RunConfig {
            sources: vec![0, 9999],
            ..RunConfig::new(&engine, &probes)
        };
        let e = run_checked("msbfs", &far, &g).unwrap_err();
        assert_eq!(
            e,
            RunError::SourceOutOfRange {
                source: 9999,
                n: g.num_vertices()
            }
        );

        // Non-batched algorithms reject a batch up front (sssp on a
        // weighted graph, so the check under test is the one that fires).
        let gw = gen::with_random_weights(&g, 1, 9, 4);
        for name in ["cc", "sssp", "pagerank"] {
            let cfg = RunConfig {
                sources: vec![0, 1],
                ..RunConfig::new(&engine, &probes)
            };
            let e = find(name).unwrap().validate(&cfg, &gw).unwrap_err();
            assert_eq!(e.kind(), "bad_param", "{name}");
        }

        // A batched run dedupes repeated sources and its digest is the
        // concatenation of per-source digests, bit-equal to single runs.
        let batched = RunConfig {
            sources: vec![3, 17, 3, 5],
            ..RunConfig::new(&engine, &probes)
        };
        let run = run_checked("bfs", &batched, &g).unwrap();
        assert_eq!(run.summary[0], ("sources", "3,17,5".to_string()));
        let singles: Vec<AlgoRun> = [3u32, 17, 5]
            .iter()
            .map(|&s| {
                let cfg = RunConfig {
                    source: s,
                    ..RunConfig::new(&engine, &probes)
                };
                run_checked("bfs", &cfg, &g).unwrap()
            })
            .collect();
        let joined = |k: usize| {
            singles
                .iter()
                .map(|r| r.summary[k].1.clone())
                .collect::<Vec<_>>()
                .join(",")
        };
        assert_eq!(run.summary[1], ("reached", joined(0)));
        assert_eq!(run.summary[2], ("depth", joined(1)));
        assert!(run.report.sources.len() == 3, "per-lane report axis");

        // The serve-facing slicer returns one single-source-shaped run per
        // *configured* source, duplicates included, each digest-equal to
        // its direct single-source run.
        let slices = run_bfs_sliced(&batched, &g).unwrap();
        assert_eq!(slices.len(), 4);
        for (i, &s) in [3usize, 17, 3, 5].iter().enumerate() {
            let single = &singles[[3, 17, 5].iter().position(|&x| x == s).unwrap()];
            assert_eq!(slices[i].summary, single.summary, "source {s}");
        }
    }

    #[test]
    fn validate_mirrors_try_run_on_the_counting_table() {
        let g = gen::path(6);
        let engine = Engine::new(1);
        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        let bad = RunConfig {
            source: 99,
            ..RunConfig::new(&engine, &probes)
        };
        let spec = find_counting("bfs").unwrap();
        assert_eq!(
            spec.validate(&bad, &g).unwrap_err(),
            RunError::SourceOutOfRange { source: 99, n: 6 }
        );
        assert!(spec.try_run(&bad, &g).is_err());
        let ok = RunConfig::new(&engine, &probes);
        assert!(spec.try_run(&ok, &g).is_ok());
    }
}
