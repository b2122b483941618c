//! Seeded inputs and the oracle checks every output goes through.
//!
//! Everything the program under test receives is generated here from
//! the workload seed; the program never sees the seed itself.

use dw_graph::gen::{self, WeightDist};
use dw_graph::{NodeId, WGraph, Weight, INFINITY};
use dw_pipeline::SspConfig;
use dw_serve::{QueryOutcome, TableSnapshot};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// A sub-seed for stream `tag` of workload seed `seed` (SplitMix64).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn rng(seed: u64, tag: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(sub_seed(seed, tag))
}

/// The graph families the workloads draw from.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// Preferential attachment, `n` nodes, 2 edges per arrival, 30% zero
    /// weights, the rest uniform in `1..=8`; `k` seeded sources.
    PowerLaw { n: usize, k: usize },
    /// Undirected G(n, 12/n) plus a Hamiltonian backbone, 50% zero
    /// weights, `W = 8`; all-pairs.
    ZeroHeavy { n: usize },
    /// Undirected G(n, 6/n) plus a backbone, weights uniform in `0..=9`;
    /// all-pairs.
    Gnp { n: usize },
    /// `side × side` 4-neighbour grid, weights uniform in `0..=9`;
    /// all-pairs.
    Grid { side: usize },
}

/// One problem instance: a graph, its sources, the oracle distances and
/// the `Δ` every runtime is given.
pub struct Instance {
    pub graph: WGraph,
    /// Sorted, distinct.
    pub sources: Vec<NodeId>,
    /// `oracle[i][v]`: Dijkstra distance from `sources[i]` to `v`.
    pub oracle: Vec<Vec<Weight>>,
    /// The same runs as servable tables, parents included.
    pub tables: TableSnapshot,
    /// Largest finite oracle distance (at least 1).
    pub delta: Weight,
    pub gen_s: f64,
    pub oracle_s: f64,
}

impl Instance {
    pub fn generate(family: Family, seed: u64) -> Instance {
        let t = Instant::now();
        let (graph, sources) = match family {
            Family::PowerLaw { n, k } => {
                let g = gen::power_law(
                    n,
                    2,
                    WeightDist::ZeroOr {
                        p_zero: 0.3,
                        max: 8,
                    },
                    seed,
                );
                let mut r = rng(seed, 1);
                let mut s: Vec<NodeId> = Vec::with_capacity(k);
                while s.len() < k {
                    let v = r.gen_range(0..n as NodeId);
                    if !s.contains(&v) {
                        s.push(v);
                    }
                }
                s.sort_unstable();
                (g, s)
            }
            Family::ZeroHeavy { n } => {
                let g = gen::zero_heavy(n, 12.0 / n as f64, 0.5, 8, false, seed);
                (g, (0..n as NodeId).collect())
            }
            Family::Gnp { n } => {
                let g = gen::gnp_connected(
                    n,
                    6.0 / n as f64,
                    false,
                    WeightDist::Uniform { max: 9 },
                    seed,
                );
                (g, (0..n as NodeId).collect())
            }
            Family::Grid { side } => {
                let g = gen::grid2d(side, side, WeightDist::Uniform { max: 9 }, seed);
                (g, (0..(side * side) as NodeId).collect())
            }
        };
        let gen_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let runs: Vec<_> = sources
            .iter()
            .map(|&s| dw_seqref::dijkstra(&graph, s))
            .collect();
        let oracle_s = t.elapsed().as_secs_f64();
        let tables = TableSnapshot::from_sssp(&runs, graph.n() as u32);
        let oracle: Vec<Vec<Weight>> = runs.into_iter().map(|r| r.dist).collect();
        let delta = oracle
            .iter()
            .flatten()
            .copied()
            .filter(|&d| d != INFINITY)
            .max()
            .unwrap_or(0)
            .max(1);
        Instance {
            graph,
            sources,
            oracle,
            tables,
            delta,
            gen_s,
            oracle_s,
        }
    }

    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// The Algorithm 1 configuration: the constructor's defaults, with
    /// the oracle's `Δ`, so every runtime solves the same problem.
    pub fn cfg(&self) -> SspConfig {
        if self.sources.len() == self.n() {
            SspConfig::apsp(self.n(), self.delta)
        } else {
            SspConfig::k_ssp(self.n(), self.sources.clone(), self.delta)
        }
    }

    /// The oracle row of source `src`, if `src` is a source.
    pub fn row(&self, src: NodeId) -> Option<&[Weight]> {
        self.sources
            .binary_search(&src)
            .ok()
            .map(|i| self.oracle[i].as_slice())
    }
}

/// Does every row of `snap` hold the oracle distances, with parent
/// pointers that walk over real, tight edges back to the row's source?
/// Returns the number of rows that fail.
pub fn bad_rows(
    g: &WGraph,
    snap: &TableSnapshot,
    sources: &[NodeId],
    oracle: &[Vec<Weight>],
) -> usize {
    let mut bad = sources.len().abs_diff(snap.tables.len());
    for t in &snap.tables {
        let want = sources.binary_search(&t.source).ok().map(|i| &oracle[i]);
        let ok =
            want.is_some_and(|w| *w == t.dist) && parents_walk(g, t.source, &t.dist, &t.parent);
        if !ok {
            bad += 1;
        }
    }
    bad
}

/// Every reachable node's parent chain is made of edges with
/// `dist[p] + w(p, v) = dist[v]` and ends at `source`.
fn parents_walk(g: &WGraph, source: NodeId, dist: &[Weight], parent: &[Option<NodeId>]) -> bool {
    // 0 = unknown, 1 = on the current walk, 2 = reaches the source.
    let mut state = vec![0u8; dist.len()];
    state[source as usize] = 2;
    let mut walk = Vec::new();
    for v in 0..dist.len() {
        if dist[v] == INFINITY || state[v] == 2 {
            continue;
        }
        walk.clear();
        let mut at = v;
        while state[at] == 0 {
            state[at] = 1;
            walk.push(at);
            let Some(p) = parent[at] else { return false };
            let p = p as usize;
            let tight = p < dist.len()
                && dist[p] != INFINITY
                && g.edge_weight(p as NodeId, at as NodeId)
                    .is_some_and(|w| dist[p].checked_add(w) == Some(dist[at]));
            if !tight {
                return false;
            }
            at = p;
        }
        if state[at] == 1 {
            return false; // a cycle of zero-weight edges
        }
        for &u in &walk {
            state[u] = 2;
        }
    }
    true
}

/// One query as the load side draws it.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub src: NodeId,
    pub dst: NodeId,
    pub want_path: bool,
}

/// Is `out` a correct answer to `q`, given the true distance `want`?
/// A path must start at `src`, end at `dst` and weigh `want` over edges
/// of `g`; errors and degraded answers are wrong.
pub fn answer_ok(g: &WGraph, q: Query, want: Weight, out: &QueryOutcome) -> bool {
    match out {
        QueryOutcome::Dist { dist } => !q.want_path && want != INFINITY && *dist == want,
        QueryOutcome::Path { dist, path } => {
            q.want_path
                && *dist == want
                && path.first() == Some(&q.src)
                && path.last() == Some(&q.dst)
                && path
                    .windows(2)
                    .try_fold(0u64, |acc, e| acc.checked_add(g.edge_weight(e[0], e[1])?))
                    == Some(want)
        }
        QueryOutcome::Unreachable => want == INFINITY,
        _ => false,
    }
}
