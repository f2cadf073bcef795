//! Seeded inputs and the correctness oracle.
//!
//! An input is one generated graph (weights `1..=64`), a seeded pool of 64
//! sources from its giant component, its files on disk, and the expected
//! output digest of every operation that will be timed on it. Expected
//! digests come from a 1-thread fixed-direction `registry` run and are
//! cross-checked against the plain sequential twins (`pp-core`,
//! `pp_graph::stats`) where one exists: bfs reached/depth, cc components,
//! tc triangles, mst weight — plus pagerank and sssp in the traced pass,
//! where the twins are timed anyway.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pp_core::pagerank::PrOptions;
use pp_engine::registry::{self, RunConfig};
use pp_engine::{DirectionPolicy, Engine, ExecutionMode, ProbeShards};
use pp_graph::{gen, io, snapshot, stats, CsrGraph, VertexId};
use pp_telemetry::NullProbe;

use crate::plan::{Family, BC_SOURCES, BFS_SOURCES, GRAPH_SEED, POOL, SSSP_SOURCES, WEIGHT_HI};
use crate::rng::Rng;
use crate::spans::Tracer;

/// An output digest: the `summary` pairs of a registry run.
pub type Digest = Vec<(String, String)>;

pub fn digest_of(summary: &[(&'static str, String)]) -> Digest {
    summary
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// What will be timed on an input, hence what set-up must prepare.
#[derive(Clone, Debug, Default)]
pub struct Needs {
    pub algos: Vec<&'static str>,
    pub cold: bool,
    pub serve: bool,
}

impl Needs {
    fn wants(&self, algo: &str) -> bool {
        self.algos.contains(&algo)
    }
}

#[derive(Clone, Debug, Default)]
pub struct Oracle {
    /// Digests of the unrooted algorithms, by name.
    pub unrooted: BTreeMap<&'static str, Digest>,
    /// Digests of `bfs` and `sssp`, by source vertex.
    pub bfs: BTreeMap<VertexId, Digest>,
    pub sssp: BTreeMap<VertexId, Digest>,
    /// First-fit colouring never needs more than `max_degree + 1`.
    pub max_degree: usize,
    /// Wall time of the sequential twins, by probe (per source for bfs).
    pub seq_ms: BTreeMap<&'static str, f64>,
}

impl Oracle {
    /// The digest `algo` from `source` must produce.
    pub fn expected(&self, algo: &str, source: VertexId) -> Option<&Digest> {
        match algo {
            "bfs" => self.bfs.get(&source),
            "sssp" => self.sssp.get(&source),
            _ => self.unrooted.get(algo),
        }
    }
}

/// Whether `got` is the output `want` describes.
///
/// Integers compare exactly, floats at `tests/push_pull_equivalence.rs`'s
/// tolerance (`1e-6·(1+|b|)`). Two fields are schedule-dependent by design
/// and are not compared: the arg-max `top_vertex` of float scores (ties
/// break by summation order) and the speculative colouring's `colors`
/// (3 or 4 on the same road grid here) — the latter is held to the
/// first-fit bound `1 ..= max_degree + 1` instead.
pub fn digest_matches(algo: &str, got: &Digest, want: &Digest, max_degree: usize) -> bool {
    if got.len() != want.len() {
        return false;
    }
    got.iter().zip(want).all(|((gk, gv), (wk, wv))| {
        if gk != wk {
            return false;
        }
        match (algo, gk.as_str()) {
            (_, "top_vertex") => true,
            ("coloring", "colors") => gv
                .parse::<usize>()
                .is_ok_and(|c| (1..=max_degree + 1).contains(&c)),
            _ => value_matches(gv, wv),
        }
    })
}

fn value_matches(got: &str, want: &str) -> bool {
    if got == want {
        return true;
    }
    if got.parse::<u64>().is_ok() && want.parse::<u64>().is_ok() {
        return false;
    }
    match (got.parse::<f64>(), want.parse::<f64>()) {
        (Ok(a), Ok(b)) => (a - b).abs() < 1e-6 * (1.0 + b.abs()),
        _ => false,
    }
}

pub struct Input {
    pub family: Family,
    pub graph: CsrGraph,
    /// The sources of the batch samples (`bfs` sums all of them, `sssp`
    /// and the cold run use the first): drawn like the pool but from
    /// [`GRAPH_SEED`]. One `sssp` costs 2.0 or 3.0 ms on the same small
    /// graph depending on its source, so seeded sources would put that
    /// spread between any two seeds.
    pub batch_sources: Vec<VertexId>,
    /// `--seed`'s pool: the sources of the serve queries.
    pub pool: Vec<VertexId>,
    pub ppg_path: PathBuf,
    /// Written only when a cold run is timed on this input.
    pub text_path: Option<PathBuf>,
    pub oracle: Oracle,
    pub needs: Needs,
    pub generate_s: f64,
}

/// The graph of a family: topology and weights come from [`GRAPH_SEED`],
/// not from `--seed` (see the constant for why).
fn generate(family: Family) -> CsrGraph {
    let plain = match family {
        Family::Rmat { scale, ef } => gen::rmat(scale, ef, GRAPH_SEED),
        Family::Road { side } => gen::road_grid(side, side, 0.55, GRAPH_SEED),
    };
    gen::with_random_weights(&plain, 1, WEIGHT_HI, GRAPH_SEED + 1)
}

/// `POOL` sources from the giant component: distinct when it is large
/// enough, cycling through it otherwise (smoke-test sizes).
fn source_pool(g: &CsrGraph, seed: u64) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut label = vec![u32::MAX; n];
    let mut sizes: Vec<usize> = Vec::new();
    let mut stack = Vec::new();
    for s in 0..n {
        if label[s] != u32::MAX {
            continue;
        }
        let id = sizes.len() as u32;
        let mut size = 0;
        label[s] = id;
        stack.push(s as VertexId);
        while let Some(v) = stack.pop() {
            size += 1;
            for &w in g.neighbors(v) {
                if label[w as usize] == u32::MAX {
                    label[w as usize] = id;
                    stack.push(w);
                }
            }
        }
        sizes.push(size);
    }
    let giant = (0..sizes.len()).max_by_key(|&c| sizes[c]).unwrap_or(0) as u32;
    let mut members: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| label[v as usize] == giant)
        .collect();
    let mut rng = Rng::new(seed, 2);
    let take = POOL.min(members.len());
    for i in 0..take {
        let j = i + rng.below(members.len() - i);
        members.swap(i, j);
    }
    (0..POOL).map(|i| members[i % take.max(1)]).collect()
}

impl Input {
    /// Generates, writes and oracles one input; spans go under the
    /// caller's open span. `twin_all` additionally times and checks the
    /// pagerank and sssp twins (the traced pass reports them).
    pub fn build(
        family: Family,
        seed: u64,
        needs: Needs,
        dir: &Path,
        twin_all: bool,
        tracer: &mut Tracer,
    ) -> Result<Input, String> {
        let (graph, generate_s) = tracer.time("generate", 0, || generate(family));
        let pool = source_pool(&graph, seed);
        let batch_sources = source_pool(&graph, GRAPH_SEED)[..BFS_SOURCES].to_vec();

        let write = tracer.begin("write", 0);
        let stem = dir.join(family.label());
        let ppg_path = stem.with_extension("ppg");
        snapshot::save_ppg_path(&graph, &ppg_path)
            .map_err(|e| format!("save {ppg_path:?}: {e}"))?;
        let text_path = if needs.cold {
            let path = stem.with_extension("txt");
            let file = std::fs::File::create(&path).map_err(|e| format!("create {path:?}: {e}"))?;
            let mut w = std::io::BufWriter::new(file);
            io::write_edge_list(&graph, &mut w)
                .and_then(|()| w.flush())
                .map_err(|e| format!("write {path:?}: {e}"))?;
            Some(path)
        } else {
            None
        };
        tracer.end(write);

        let open = tracer.begin("oracle", 0);
        let oracle = build_oracle(family, &graph, &batch_sources, &pool, &needs, twin_all);
        tracer.end(open);

        Ok(Input {
            family,
            graph,
            batch_sources,
            pool,
            ppg_path,
            text_path,
            oracle: oracle?,
            needs,
            generate_s,
        })
    }
}

fn build_oracle(
    family: Family,
    g: &CsrGraph,
    batch: &[VertexId],
    pool: &[VertexId],
    needs: &Needs,
    twin_all: bool,
) -> Result<Oracle, String> {
    let engine = Engine::new(1);
    let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
    let run = |algo: &str, source: VertexId| -> Result<Digest, String> {
        let cfg = RunConfig {
            policy: DirectionPolicy::Fixed(family.oracle_direction()),
            mode: ExecutionMode::Atomic,
            source,
            bc_sources: Some(BC_SOURCES),
            ..RunConfig::new(&engine, &probes)
        };
        registry::run_checked(algo, &cfg, g)
            .map(|r| digest_of(&r.summary))
            .map_err(|e| format!("oracle {algo}: {e}"))
    };
    let mut o = Oracle {
        max_degree: g.max_degree(),
        ..Oracle::default()
    };
    let serve = |k: usize| &pool[..if needs.serve { k } else { 0 }];
    let bfs_batch = if needs.wants("bfs") {
        batch.len()
    } else {
        usize::from(needs.cold)
    };
    for &s in batch[..bfs_batch].iter().chain(serve(POOL)) {
        o.bfs.insert(s, run("bfs", s)?);
    }
    for &s in batch[..usize::from(needs.wants("sssp"))]
        .iter()
        .chain(serve(SSSP_SOURCES))
    {
        o.sssp.insert(s, run("sssp", s)?);
    }
    for algo in ["pagerank", "cc", "bc", "coloring", "mst", "tc"] {
        if needs.wants(algo) || (algo == "cc" && needs.serve) {
            o.unrooted.insert(algo, run(algo, 0)?);
        }
    }

    // Sequential twins: an implementation that shares no code with the
    // engine must agree with the reference before anything is timed.
    let field = |d: &Digest, key: &str| -> String {
        d.iter()
            .find(|(k, _)| k == key)
            .map_or_else(String::new, |(_, v)| v.clone())
    };
    let disagree = |what: &str, twin: String, engine: String| {
        if twin == engine {
            Ok(())
        } else {
            Err(format!(
                "{what}: twin says {twin}, engine reference says {engine}"
            ))
        }
    };
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let twins: Vec<(&VertexId, &Digest)> = o.bfs.iter().take(BFS_SOURCES).collect();
    if !twins.is_empty() {
        let t = Instant::now();
        for (&s, d) in &twins {
            let (level, _, depth) = stats::bfs_levels(g, s);
            let reached = level.iter().filter(|&&l| l != u32::MAX).count();
            disagree("bfs reached", reached.to_string(), field(d, "reached"))?;
            disagree("bfs depth", depth.to_string(), field(d, "depth"))?;
        }
        o.seq_ms.insert("bfs", ms(t) / twins.len() as f64);
    }
    if let Some(d) = o.unrooted.get("cc") {
        let t = Instant::now();
        let components = stats::num_components(g);
        o.seq_ms.insert("cc", ms(t));
        disagree(
            "cc components",
            components.to_string(),
            field(d, "components"),
        )?;
    }
    if let Some(d) = o.unrooted.get("tc") {
        let total = pp_core::triangles::triangle_counts_seq(g)
            .iter()
            .sum::<u64>()
            / 3;
        disagree("tc triangles", total.to_string(), field(d, "triangles"))?;
    }
    if let Some(d) = o.unrooted.get("mst") {
        let (_, weight) = pp_core::mst::kruskal_seq(g);
        disagree(
            "mst total_weight",
            weight.to_string(),
            field(d, "total_weight"),
        )?;
    }
    if twin_all {
        if let Some(d) = o.unrooted.get("pagerank") {
            let t = Instant::now();
            let sum: f64 = pp_core::pagerank::pagerank_seq(g, &PrOptions::default())
                .iter()
                .sum();
            o.seq_ms.insert("pagerank", ms(t));
            if !value_matches(&format!("{sum:.6}"), &field(d, "rank_sum")) {
                return Err(format!(
                    "pagerank rank_sum: twin says {sum:.6}, engine {d:?}"
                ));
            }
        }
        if let Some((&s, d)) = o.sssp.iter().next() {
            let t = Instant::now();
            let dist = pp_core::sssp::dijkstra(g, s);
            o.seq_ms.insert("sssp", ms(t));
            let reached = dist.iter().filter(|&&x| x != u64::MAX).count();
            let far = dist
                .iter()
                .filter(|&&x| x != u64::MAX)
                .max()
                .copied()
                .unwrap_or(0);
            disagree("sssp reached", reached.to_string(), field(d, "reached"))?;
            disagree("sssp max_dist", far.to_string(), field(d, "max_dist"))?;
        }
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(pairs: &[(&str, &str)]) -> Digest {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn digests_compare_integers_exactly_and_floats_with_tolerance() {
        assert!(digest_matches(
            "cc",
            &d(&[("components", "7")]),
            &d(&[("components", "7")]),
            3
        ));
        assert!(!digest_matches(
            "cc",
            &d(&[("components", "8")]),
            &d(&[("components", "7")]),
            3
        ));
        let want = d(&[("rank_sum", "0.797617"), ("top_vertex", "0")]);
        assert!(digest_matches(
            "pagerank",
            &d(&[("rank_sum", "0.797618"), ("top_vertex", "9")]),
            &want,
            3
        ));
        assert!(!digest_matches(
            "pagerank",
            &d(&[("rank_sum", "0.798"), ("top_vertex", "0")]),
            &want,
            3
        ));
        let inf = d(&[("top_vertex", "1"), ("top_score", "inf")]);
        assert!(digest_matches("bc", &inf, &inf, 3));
        assert!(!digest_matches("bc", &d(&[("top_score", "inf")]), &inf, 3));
    }

    #[test]
    fn colouring_is_held_to_the_first_fit_bound() {
        let want = d(&[("colors", "3")]);
        assert!(digest_matches("coloring", &d(&[("colors", "4")]), &want, 4));
        assert!(digest_matches("coloring", &d(&[("colors", "5")]), &want, 4));
        assert!(!digest_matches(
            "coloring",
            &d(&[("colors", "6")]),
            &want,
            4
        ));
        assert!(!digest_matches(
            "coloring",
            &d(&[("colors", "0")]),
            &want,
            4
        ));
    }

    #[test]
    fn the_pool_is_seeded_and_inside_one_component() {
        let g = generate(Family::Rmat { scale: 8, ef: 8 });
        let a = source_pool(&g, 3);
        assert_eq!(a, source_pool(&g, 3));
        assert_ne!(a, source_pool(&g, 4));
        assert_eq!(a.len(), POOL);
        let (level, _, _) = stats::bfs_levels(&g, a[0]);
        assert!(a.iter().all(|&v| level[v as usize] != u32::MAX));
    }
}
