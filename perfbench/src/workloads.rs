//! The four workloads: set-up, timed stages and the end-to-end metrics.
//!
//! Every workload walks the system's one path — solve tables with
//! Algorithm 1, serve them from two shards behind a gateway, swap table
//! generations — and sizes the stages so that one layer does the work:
//!
//! * `kssp_sim`: k-SSP on 8,000-node power-law graphs on the simulator;
//!   the solves take most of the run (engine layer).
//! * `apsp_tcp`: APSP on small zero-heavy graphs over `tcp:2`; the solves
//!   take most of the run (transport layer).
//! * `serve_uniform`: uniform queries against APSP tables (serving plane).
//! * `serve_swap`: Zipf reads beside a stream of incremental updates
//!   (dynamic recompute and table swaps).

use crate::inputs::{bad_rows, rng, sub_seed, Family, Instance};
use crate::load::{self, QueryLog, SwapLog};
use crate::report::{iq_mean_of_medians, median, Metrics, Tally};
use crate::sys;
use dw_congest::{EngineConfig, RunOutcome, RunStats};
use dw_dynamic::UpdateReport;
use dw_pipeline::{run_hk_ssp_on, Runtime};
use dw_serve::{spawn_loopback, Gateway, GatewayConfig, ServeStats, ShardHandle, TableSnapshot};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The compute workloads repeat their set-up at least `SETUP_MIN_REPS`
/// times and until `SETUP_MIN_S` seconds have gone into it (at most
/// `SETUP_MAX_REPS`); the serving workloads once per graph. `setup_s` is
/// the median repetition.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 30;
const SETUP_MIN_S: f64 = 2.0;
/// Open-loop query rate.
const OPEN_QPS: f64 = 8000.0;
/// Queries kept in flight by the closed loop.
const CLOSED_OUTSTANDING: usize = 64;
/// The compute workloads' closed loop: a burst of this length after each
/// refresh, on the tables just installed; its two whole 0.25 s windows
/// count toward `query_qps`.
const BURST: Duration = Duration::from_millis(600);

/// What a workload's timed stage does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Refreshes (solve on `runtime`, install the tables, a closed-loop
    /// burst on them), then an open loop on the last tables installed.
    Compute { runtime: &'static str },
    /// Open loop, closed loop, then refreshes on `sim`; the solves are the
    /// table builds of set-up and the refreshes.
    Serve,
    /// Reads beside incremental updates; the solves are the table builds
    /// of set-up.
    ServeWithUpdates,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub family: Family,
    /// Instances generated from the seed, each from its own sub-seed;
    /// refreshes go round-robin over them. The serving workloads build
    /// one instance's tables per set-up repetition and serve the last.
    pub instances: usize,
    pub stage: Stage,
}

pub fn spec(name: &str) -> Option<Spec> {
    let (family, instances, stage) = match name {
        "kssp_sim" => (
            Family::PowerLaw { n: 8_000, k: 16 },
            8,
            Stage::Compute { runtime: "sim" },
        ),
        "apsp_tcp" => (
            Family::ZeroHeavy { n: 96 },
            8,
            Stage::Compute { runtime: "tcp:2" },
        ),
        "serve_uniform" => (Family::Gnp { n: 160 }, 8, Stage::Serve),
        "serve_swap" => (Family::Grid { side: 12 }, 10, Stage::ServeWithUpdates),
        _ => return None,
    };
    Some(Spec {
        family,
        instances,
        stage,
    })
}

/// One oracle-checked Algorithm 1 solve.
#[derive(Debug, Clone)]
pub struct Solve {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub stats: RunStats,
    pub allocs: u64,
    pub ok: bool,
}

/// Solve `inst` on `rt` with default engine settings; the tables are
/// returned even when wrong, so that serving them shows the damage.
pub fn solve(rt: Runtime, inst: &Instance) -> (Solve, Option<TableSnapshot>) {
    let cfg = inst.cfg();
    let (allocs0, cpu0, t) = (sys::allocs(), sys::process_cpu_s(), Instant::now());
    let run = run_hk_ssp_on(rt, &inst.graph, &cfg, EngineConfig::default());
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu0;
    let allocs = sys::allocs() - allocs0;
    match run {
        Ok((result, stats, outcome)) => {
            let snap = TableSnapshot::from_result(&result);
            let ok = outcome == RunOutcome::Quiet
                && bad_rows(&inst.graph, &snap, &inst.sources, &inst.oracle) == 0;
            let solve = Solve {
                wall_s,
                cpu_s,
                stats,
                allocs,
                ok,
            };
            (solve, Some(snap))
        }
        Err(_) => {
            let solve = Solve {
                wall_s,
                cpu_s,
                stats: RunStats::default(),
                allocs,
                ok: false,
            };
            (solve, None)
        }
    }
}

pub fn runtime(label: &str) -> Runtime {
    Runtime::parse(label).expect("workload runtimes are valid labels")
}

/// Two shards and a gateway, all defaults. Dropping it stops them.
pub struct Fleet {
    pub gateway: Gateway,
    _shards: Vec<ShardHandle>,
}

impl Fleet {
    pub fn spawn(snap: &TableSnapshot) -> io::Result<Fleet> {
        let (gateway, shards, _) = spawn_loopback(snap, 2, GatewayConfig::default())?;
        Ok(Fleet {
            gateway,
            _shards: shards,
        })
    }
}

/// Everything one pass over a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub gen_s: Vec<f64>,
    pub oracle_s: Vec<f64>,
    pub insts: Vec<Instance>,
    /// The tables the fleet served last (`serve_swap`: its first
    /// generation), and the instance they belong to.
    pub served: Option<TableSnapshot>,
    pub served_inst: usize,
    /// Per instance, its solves.
    pub solves: Vec<Vec<Solve>>,
    /// Gives `query_p50_us` / `query_p95_us`.
    pub latency: QueryLog,
    /// Give `query_qps`; empty when the latency log does.
    pub throughput: Vec<QueryLog>,
    /// Per instance, its swaps: update in → install accepted
    /// (`serve_swap`), or from-scratch refreshes, solve + install.
    pub swap_ms: Vec<Vec<f64>>,
    pub apply_ms: Vec<f64>,
    /// The open-loop generator's lateness (`serve_swap`: the closed-loop
    /// writer's gap between batches).
    pub late_us: Vec<f64>,
    pub offered_qps: f64,
    pub updates: Vec<UpdateReport>,
    pub serve_stats: ServeStats,
    pub cache_hit_rate: f64,
    pub tally: Tally,
}

/// Add 1 to every finite distance of the first table row: the fault
/// the benchmark's self-test injects to prove wrong answers are counted.
pub fn corrupt_first_row(snap: &mut TableSnapshot) {
    let row = Arc::make_mut(&mut snap.tables[0]);
    for d in row.dist.iter_mut().filter(|d| **d != dw_graph::INFINITY) {
        *d += 1;
    }
}

/// Run one workload's set-up and timed stages for `secs` seconds.
/// `corrupt` damages one row of every table set served (self-test only).
pub fn run(spec: Spec, seed: u64, secs: f64, corrupt: bool) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let sim = runtime("sim");
    let serving = !matches!(spec.stage, Stage::Compute { .. });
    let mut fleet = None;
    let mut insts = Vec::new();
    // The serving workloads' table builds, one per instance.
    let mut built = Vec::new();
    let gen = |i: usize| Instance::generate(spec.family, sub_seed(seed, 100 + i as u64));
    let setup_done = |reps: &[f64]| {
        if serving {
            reps.len() == spec.instances
        } else {
            reps.len() >= SETUP_MIN_REPS
                && (reps.iter().sum::<f64>() >= SETUP_MIN_S || reps.len() >= SETUP_MAX_REPS)
        }
    };
    while !setup_done(&out.setup_s) {
        drop(fleet.take());
        let t = Instant::now();
        // The serving workloads build one more graph's tables per
        // repetition and serve them. The compute workloads generate all
        // their graphs, bring the fleet up on the oracle's tables and
        // install their own as they solve.
        let mut snap = if serving {
            let inst = gen(insts.len());
            let (build, snap) = solve(sim, &inst);
            out.tally.record(build.ok);
            out.solves.push(vec![build]);
            out.served_inst = insts.len();
            insts.push(inst);
            snap.expect("the simulator cannot fail")
        } else {
            insts = (0..spec.instances).map(gen).collect();
            insts[0].tables.clone()
        };
        if corrupt {
            corrupt_first_row(&mut snap);
        }
        if serving {
            built.push(snap.clone());
        }
        fleet = Some(Fleet::spawn(&snap)?);
        out.served = Some(snap);
        out.setup_s.push(t.elapsed().as_secs_f64());
        let fresh = if serving { insts.len() - 1 } else { 0 };
        out.gen_s.extend(insts[fresh..].iter().map(|i| i.gen_s));
        out.oracle_s
            .extend(insts[fresh..].iter().map(|i| i.oracle_s));
    }
    let fleet = fleet.expect("set-up ran at least once");
    let addr = fleet.gateway.addr;

    let budget = |share: f64| Duration::from_secs_f64(secs * share);
    let mut qrng = rng(seed, 2);
    match spec.stage {
        Stage::Compute { runtime: label } => {
            out.solves = vec![Vec::new(); insts.len()];
            let rt = runtime(label);
            let bursts = Some(&mut qrng);
            refreshes(&mut out, addr, rt, &insts, budget(0.8), corrupt, bursts)?;
            let served = &insts[out.served_inst];
            open_loop(&mut out, served, addr, budget(0.2), &mut qrng)?;
        }
        Stage::Serve => {
            let served = &insts[out.served_inst];
            open_loop(&mut out, served, addr, budget(0.5), &mut qrng)?;
            closed_loop(&mut out, served, addr, budget(0.3), &mut qrng)?;
            refreshes(&mut out, addr, sim, &insts, budget(0.2), corrupt, None)?;
        }
        Stage::ServeWithUpdates => {
            // The served graph first, then round-robin over the others.
            let bases: Vec<(&Instance, &TableSnapshot)> = (0..insts.len())
                .map(|j| (out.served_inst + j) % insts.len())
                .map(|k| (&insts[k], &built[k]))
                .collect();
            let SwapLog {
                reads,
                swap_ms,
                apply_ms,
                late_us,
                reports,
                swaps,
            } = load::swap_stage(addr, &bases, &mut rng(seed, 3), &mut qrng, budget(1.0))?;
            out.tally.add(reads.tally);
            out.tally.add(swaps);
            out.offered_qps = reads.tally.attempted as f64 / reads.elapsed_s;
            out.latency = reads;
            out.swap_ms = swap_ms;
            out.apply_ms = apply_ms;
            out.late_us = late_us;
            out.updates = reports;
        }
    }
    out.serve_stats = fleet.gateway.stats();
    out.cache_hit_rate = fleet.gateway.cache_hit_rate();
    out.insts = insts;
    Ok(out)
}

/// From-scratch swaps, the refresh a deployment without dw-dynamic
/// makes, round-robin over `insts` (each at least once) until `budget`
/// has passed: solve `insts[k]` on `rt`, file the solve under
/// `out.solves[k]`, and install the tables as the fleet's next generation.
/// With `bursts`, each accepted install is followed by a closed-loop
/// burst on the new tables, which counts in the budget.
fn refreshes(
    out: &mut Outcome,
    addr: std::net::SocketAddr,
    rt: Runtime,
    insts: &[Instance],
    budget: Duration,
    corrupt: bool,
    mut bursts: Option<&mut rand_chacha::ChaCha8Rng>,
) -> io::Result<()> {
    let mut installer = load::Installer::connect(addr)?;
    out.swap_ms = vec![Vec::new(); insts.len()];
    let t = Instant::now();
    for i in 0.. {
        if i >= insts.len() && t.elapsed() >= budget {
            break;
        }
        let k = i % insts.len();
        let (s, snap) = solve(rt, &insts[k]);
        out.tally.record(s.ok);
        let wall_ms = s.wall_s * 1e3;
        out.solves[k].push(s);
        let Some(mut snap) = snap else {
            continue;
        };
        if corrupt {
            corrupt_first_row(&mut snap);
        }
        let (ms, accepted) = installer.install(&snap)?;
        out.tally.record(accepted);
        out.swap_ms[k].push(wall_ms + ms);
        out.apply_ms.push(ms);
        out.served = Some(snap);
        out.served_inst = k;
        if let (true, Some(qrng)) = (accepted, bursts.as_deref_mut()) {
            closed_loop(out, &insts[k], addr, BURST, qrng)?;
        }
    }
    Ok(())
}

/// The open loop on the fleet at `addr` for `dur`, checked against
/// `inst`'s oracle; gives the query latency.
fn open_loop(
    out: &mut Outcome,
    inst: &Instance,
    addr: std::net::SocketAddr,
    dur: Duration,
    qrng: &mut rand_chacha::ChaCha8Rng,
) -> io::Result<()> {
    let check = load::oracle_check(inst);
    let queries = load::uniform_queries(&inst.sources, inst.n(), qrng);
    let open = load::open_loop(addr, OPEN_QPS, dur, queries, &check)?;
    out.tally.add(open.tally);
    out.offered_qps = open.late_us.len() as f64 / open.elapsed_s;
    out.late_us = open.late_us.clone();
    out.latency = open;
    Ok(())
}

/// The closed loop on the fleet at `addr` for `dur`, checked against
/// `inst`'s oracle; adds to the query throughput.
fn closed_loop(
    out: &mut Outcome,
    inst: &Instance,
    addr: std::net::SocketAddr,
    dur: Duration,
    qrng: &mut rand_chacha::ChaCha8Rng,
) -> io::Result<()> {
    let check = load::oracle_check(inst);
    let queries = load::uniform_queries(&inst.sources, inst.n(), qrng);
    let closed = load::closed_loop(addr, CLOSED_OUTSTANDING, dur, queries, &check)?;
    out.tally.add(closed.tally);
    out.throughput.push(closed);
    Ok(())
}

impl Outcome {
    /// Per instance, the median of `f` over its solves; then the
    /// interquartile mean over instances. A run's figure so covers its
    /// inputs, and an instance whose `Δ` comes out several times larger
    /// than its siblings' (a node without a zero-weight edge in
    /// `apsp_tcp`) moves it little.
    fn per_solve(&self, f: impl Fn(&Solve) -> f64) -> f64 {
        let per: Vec<Vec<f64>> = self
            .solves
            .iter()
            .map(|s| s.iter().map(&f).collect())
            .collect();
        iq_mean_of_medians(&per)
    }

    /// The closed-loop phases, or the latency log when there are none.
    pub fn qps_logs(&self) -> &[QueryLog] {
        if self.throughput.is_empty() {
            std::slice::from_ref(&self.latency)
        } else {
            &self.throughput
        }
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self, m: &mut Metrics) {
        m.put("setup_s", median(&self.setup_s), "s");
        m.put("peak_rss_mb", sys::peak_rss_mb(), "MiB");
        m.put("solve_s", self.per_solve(|s| s.wall_s), "s");
        m.put("solve_cpu_s", self.per_solve(|s| s.cpu_s), "s");
        m.put(
            "rounds",
            self.per_solve(|s| s.stats.rounds as f64),
            "rounds",
        );
        m.put("query_p50_us", self.latency.p50_us(), "us");
        m.put("query_p95_us", self.latency.p95_us(), "us");
        m.put("query_qps", load::qps(self.qps_logs()), "1/s");
        m.put("swap_ms", iq_mean_of_medians(&self.swap_ms), "ms");
    }
}
