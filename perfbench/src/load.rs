//! The load side: open- and closed-loop query generators on one
//! pipelined gateway connection, table installs, and the update writer
//! of `serve_swap`. At most two load threads and two connections.

use crate::inputs::{answer_ok, bad_rows, Instance, Query};
use crate::report::{median, quantile, Tally};
use crate::sys;
use dw_dynamic::{apply_update_batch, gen_update_batch, RecomputeEngine, UpdateReport};
use dw_graph::{NodeId, WGraph, Weight};
use dw_serve::{
    ClientReply, ClientRequest, QueryOutcome, QueryRequest, ServeClient, TableSnapshot,
    VersionedTables, Zipf,
};
use dw_transport::wire::{read_frame, write_frame};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a load thread waits for a reply before it gives the rest
/// up as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Width of the windows the tail latency and the throughput are taken
/// over.
const WINDOW_S: f64 = 0.25;
/// A window needs this many answers for its p95 to count.
const WINDOW_MIN_ANSWERS: usize = 200;

/// What one query phase saw.
#[derive(Debug, Default)]
pub struct QueryLog {
    /// Per answered query: when it was due (open loop) or answered
    /// (closed loop), in seconds from the phase start, and its latency in
    /// µs, from its due time (open loop) or its send (closed loop) to its
    /// reply.
    pub samples: Vec<(f64, f64)>,
    /// Open loop: per query, how late the generator sent it, in µs.
    pub late_us: Vec<f64>,
    pub tally: Tally,
    /// Until the last query was sent, in seconds.
    pub busy_s: f64,
    /// Until the last reply was in, in seconds.
    pub elapsed_s: f64,
    /// Process CPU over the phase, the update writer's excluded.
    pub cpu_s: f64,
    /// Allocations over the phase (counted in the traced run only).
    pub allocs: u64,
}

impl QueryLog {
    pub fn answered(&self) -> usize {
        self.samples.len()
    }

    pub fn p50_us(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// The tail: the median over 0.25 s windows of each window's 95th
    /// percentile, from the windows with at least 200 answers (ten beyond
    /// the p95), or the p95 of the whole phase when none has.
    ///
    /// Not the 99th percentile: on a shared VM the p99 of one second of
    /// queries swings from 0.5 to 11 ms with hypervisor stalls, while the
    /// p95 stays within a few percent. And per window: a single stall of a
    /// few hundred milliseconds, which the open loop charges to every query
    /// due behind it, moved a whole run's p95 from 0.41 to 3.5 ms; it now
    /// moves the windows it falls in.
    pub fn p95_us(&self) -> f64 {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for &(t, lat) in &self.samples {
            let w = (t / WINDOW_S) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(lat);
        }
        let p95s: Vec<f64> = windows
            .iter()
            .filter(|w| w.len() >= WINDOW_MIN_ANSWERS)
            .map(|w| quantile(w, 0.95))
            .collect();
        if p95s.is_empty() {
            quantile(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>(), 0.95)
        } else {
            median(&p95s)
        }
    }

    /// Answers per second in each 0.25 s window that lies wholly inside
    /// the phase.
    fn window_rates(&self) -> Vec<f64> {
        let whole = (self.busy_s / WINDOW_S) as usize;
        let mut counts = vec![0usize; whole];
        for &(t, _) in &self.samples {
            if let Some(c) = counts.get_mut((t / WINDOW_S) as usize) {
                *c += 1;
            }
        }
        counts.iter().map(|&c| c as f64 / WINDOW_S).collect()
    }
}

/// Answers per second over one or more phases: the median over every
/// 0.25 s window that lies wholly inside one of them, or the average
/// over the phases when none is that long.
pub fn qps(logs: &[QueryLog]) -> f64 {
    let rates: Vec<f64> = logs.iter().flat_map(QueryLog::window_rates).collect();
    if rates.is_empty() {
        let answered: usize = logs.iter().map(QueryLog::answered).sum();
        answered as f64 / logs.iter().map(|l| l.elapsed_s).sum::<f64>()
    } else {
        median(&rates)
    }
}

/// Checks one answer; `true` when it is correct.
pub type Check<'a> = &'a (dyn Fn(Query, &QueryOutcome) -> bool + Sync);

fn connect(addr: SocketAddr) -> io::Result<(TcpStream, TcpStream)> {
    let tx = TcpStream::connect(addr)?;
    tx.set_nodelay(true)?;
    let rx = tx.try_clone()?;
    rx.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok((tx, rx))
}

fn send(tx: &mut TcpStream, scratch: &mut Vec<u8>, id: u64, q: Query) -> io::Result<()> {
    let req = ClientRequest::Query(QueryRequest {
        id,
        src: q.src,
        dst: q.dst,
        want_path: q.want_path,
    });
    write_frame(tx, &req, scratch)
}

/// Open loop: `rate` queries per second for `dur`, sent on schedule by
/// this thread whatever the replies do, read back by a second thread.
/// Latency runs from each query's due time, so a stalled generator or
/// server charges every query queued behind the stall.
pub fn open_loop(
    addr: SocketAddr,
    rate: f64,
    dur: Duration,
    mut draw: impl FnMut() -> Query,
    check: Check,
) -> io::Result<QueryLog> {
    let total = (rate * dur.as_secs_f64()).round() as usize;
    let queries: Vec<Query> = (0..total).map(|_| draw()).collect();
    let (mut tx, mut rx) = connect(addr)?;
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + period.mul_f64(i as f64);
    let (cpu0, allocs0) = (sys::process_cpu_s(), sys::allocs());
    let mut log = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut log = QueryLog::default();
            let mut seen = vec![false; total];
            while log.answered() < total {
                let Ok(Some(ClientReply::Query(r))) = read_frame::<_, ClientReply>(&mut rx) else {
                    break;
                };
                let at = Instant::now();
                let i = r.id as usize;
                if i < total && !seen[i] {
                    seen[i] = true;
                    let d = due(i);
                    log.samples.push((
                        d.duration_since(start).as_secs_f64(),
                        at.duration_since(d).as_secs_f64() * 1e6,
                    ));
                    log.tally.record(check(queries[i], &r.outcome));
                }
            }
            log
        });
        let mut late_us = Vec::with_capacity(total);
        let mut scratch = Vec::new();
        for (i, &q) in queries.iter().enumerate() {
            let d = due(i);
            let now = Instant::now();
            if d > now {
                std::thread::sleep(d - now);
            }
            late_us.push(Instant::now().saturating_duration_since(d).as_secs_f64() * 1e6);
            if send(&mut tx, &mut scratch, i as u64, q).is_err() {
                break;
            }
        }
        let busy_s = start.elapsed().as_secs_f64();
        let mut log = reader.join().expect("open-loop reader panicked");
        log.late_us = late_us;
        log.busy_s = busy_s;
        log
    });
    log.elapsed_s = start.elapsed().as_secs_f64();
    log.cpu_s = sys::process_cpu_s() - cpu0;
    log.allocs = sys::allocs() - allocs0;
    // Queries never answered count as failed.
    let missing = (total - log.answered()) as u64;
    log.tally.attempted += missing;
    log.tally.failed += missing;
    Ok(log)
}

/// Closed loop: keep `outstanding` queries in flight on one connection
/// for `dur`, sending the next as each reply lands; then drain.
pub fn closed_loop(
    addr: SocketAddr,
    outstanding: usize,
    dur: Duration,
    mut draw: impl FnMut() -> Query,
    check: Check,
) -> io::Result<QueryLog> {
    let (mut tx, mut rx) = connect(addr)?;
    let mut scratch = Vec::new();
    let mut inflight: HashMap<u64, (Query, Instant)> = HashMap::with_capacity(outstanding);
    let mut next_id = 0u64;
    let mut log = QueryLog::default();
    let (cpu0, allocs0) = (sys::process_cpu_s(), sys::allocs());
    let start = Instant::now();
    let end = start + dur;
    let mut issue = |inflight: &mut HashMap<u64, (Query, Instant)>| -> io::Result<()> {
        let q = draw();
        inflight.insert(next_id, (q, Instant::now()));
        send(&mut tx, &mut scratch, next_id, q)?;
        next_id += 1;
        Ok(())
    };
    for _ in 0..outstanding {
        issue(&mut inflight)?;
    }
    while !inflight.is_empty() {
        let Ok(Some(ClientReply::Query(r))) = read_frame::<_, ClientReply>(&mut rx) else {
            break;
        };
        let Some((q, sent)) = inflight.remove(&r.id) else {
            continue;
        };
        let at = Instant::now();
        log.samples.push((
            at.duration_since(start).as_secs_f64(),
            at.duration_since(sent).as_secs_f64() * 1e6,
        ));
        log.tally.record(check(q, &r.outcome));
        if at < end {
            if issue(&mut inflight).is_err() {
                break;
            }
            log.busy_s = at.duration_since(start).as_secs_f64();
        }
    }
    log.elapsed_s = start.elapsed().as_secs_f64();
    log.cpu_s = sys::process_cpu_s() - cpu0;
    log.allocs = sys::allocs() - allocs0;
    let missing = inflight.len() as u64;
    log.tally.attempted += missing;
    log.tally.failed += missing;
    Ok(log)
}

/// Uniform pairs over the served rows: source uniform over `sources`,
/// destination uniform over `0..n`, half of them path queries.
pub fn uniform_queries<'a>(
    sources: &'a [NodeId],
    n: usize,
    rng: &'a mut ChaCha8Rng,
) -> impl FnMut() -> Query + 'a {
    move || Query {
        src: sources[rng.gen_range(0..sources.len())],
        dst: rng.gen_range(0..n as NodeId),
        want_path: rng.gen_bool(0.5),
    }
}

/// The oracle check for queries against `inst`'s (unchanging) tables.
pub fn oracle_check(inst: &Instance) -> impl Fn(Query, &QueryOutcome) -> bool + Sync + '_ {
    move |q, out| {
        inst.row(q.src)
            .is_some_and(|row| answer_ok(&inst.graph, q, row[q.dst as usize], out))
    }
}

/// Installs table sets into a fleet as successive generations.
pub struct Installer {
    client: ServeClient,
    generation: u64,
}

impl Installer {
    pub fn connect(addr: SocketAddr) -> io::Result<Installer> {
        Ok(Installer {
            client: ServeClient::connect(addr, REPLY_TIMEOUT)?,
            generation: 0,
        })
    }

    /// Install `snap` as the next generation. Returns the milliseconds
    /// until `apply_tables` came back, and whether the whole fleet
    /// accepted it.
    pub fn install(&mut self, snap: &TableSnapshot) -> io::Result<(f64, bool)> {
        self.generation += 1;
        let t = Instant::now();
        let report = self.client.apply_tables(self.generation, snap)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        Ok((ms, report.accepted && report.generation == self.generation))
    }
}

/// One table generation as the reader of `serve_swap` may see it.
struct Generation {
    graph: WGraph,
    snap: TableSnapshot,
    /// The tables equal Dijkstra on `graph`.
    exact: bool,
}

impl Generation {
    fn dist(&self, src: NodeId, dst: NodeId) -> Option<Weight> {
        self.snap.table_for(src).map(|t| t.dist[dst as usize])
    }
}

/// What the reads-beside-writes stage saw.
#[derive(Debug, Default)]
pub struct SwapLog {
    pub reads: QueryLog,
    /// Per base graph, per batch applied to it: update in →
    /// `apply_tables` accepted, in ms.
    pub swap_ms: Vec<Vec<f64>>,
    /// Per batch: the `apply_tables` call alone, in ms.
    pub apply_ms: Vec<f64>,
    /// Per batch: how long after the previous one was accepted (or the
    /// stage began) the writer started it, in µs.
    pub late_us: Vec<f64>,
    pub reports: Vec<UpdateReport>,
    pub swaps: Tally,
}

/// Update batches the `serve_swap` writer applies to one graph before it
/// moves on to the next.
const UPDATES_PER_GRAPH: u64 = 12;

/// `serve_swap`'s timed stage. A reader thread runs a closed loop with
/// one outstanding Zipf(1.1) query; this thread, a closed loop too,
/// applies batch-1 updates one after another with Algorithm 1 recompute
/// and pushes each new generation to the fleet. Every `UPDATES_PER_GRAPH`
/// batches it moves on to the next of `bases` (graph and served tables,
/// the fleet's current ones first), whose tables go in as a generation
/// of their own, so that a run's figures cover several graphs. Every
/// answer must match a generation that was live or being installed
/// while it was in flight; every generation must equal Dijkstra on its
/// graph.
pub fn swap_stage(
    addr: SocketAddr,
    bases: &[(&Instance, &TableSnapshot)],
    rng: &mut ChaCha8Rng,
    reader_rng: &mut ChaCha8Rng,
    dur: Duration,
) -> io::Result<SwapLog> {
    let (inst, initial) = bases[0];
    let n = inst.n() as NodeId;
    let max_w = inst.graph.max_weight();
    let gens: Mutex<Vec<Arc<Generation>>> = Mutex::new(vec![Arc::new(Generation {
        graph: inst.graph.clone(),
        snap: initial.clone(),
        exact: bad_rows(&inst.graph, initial, &inst.sources, &inst.oracle) == 0,
    })]);
    let committed = AtomicU64::new(0);
    let pending = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let pairs: Vec<(NodeId, NodeId)> = (0..10_000)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let zipf = Zipf::new(pairs.len(), 1.1);
    let mut reader_client = ServeClient::connect(addr, REPLY_TIMEOUT)?;
    let mut writer_client = ServeClient::connect(addr, REPLY_TIMEOUT)?;
    // Make `next` visible to the reader's check, then push it to the
    // fleet: the seconds `apply_tables` took and whether it was accepted.
    let mut install = |next: &VersionedTables, graph: &WGraph, exact: bool| {
        gens.lock()
            .expect("generation list poisoned")
            .push(Arc::new(Generation {
                graph: graph.clone(),
                snap: next.snap.clone(),
                exact,
            }));
        pending.store(next.generation, Ordering::SeqCst);
        let t = Instant::now();
        let applied = writer_client.apply_tables(next.generation, &next.snap)?;
        let accepted = applied.accepted && applied.generation == next.generation;
        if accepted {
            committed.store(next.generation, Ordering::SeqCst);
        }
        io::Result::Ok((t.elapsed().as_secs_f64(), accepted))
    };

    let start = Instant::now();
    let end = start + dur;
    let (cpu0, allocs0) = (sys::process_cpu_s(), sys::allocs());
    let (mut log, reads) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut log = QueryLog::default();
            while !stop.load(Ordering::SeqCst) {
                let (src, dst) = pairs[zipf.sample(reader_rng)];
                let q = Query {
                    src,
                    dst,
                    want_path: reader_rng.gen_bool(0.5),
                };
                let lo = committed.load(Ordering::SeqCst) as usize;
                let t = Instant::now();
                let Ok(out) = reader_client.query(q.src, q.dst, q.want_path) else {
                    log.tally.record(false);
                    break;
                };
                let at = Instant::now();
                log.samples.push((
                    at.duration_since(start).as_secs_f64(),
                    at.duration_since(t).as_secs_f64() * 1e6,
                ));
                let hi = pending.load(Ordering::SeqCst) as usize;
                let live: Vec<Arc<Generation>> =
                    gens.lock().expect("generation list poisoned")[lo..=hi].to_vec();
                let ok = live.iter().any(|g| {
                    g.exact
                        && g.dist(q.src, q.dst)
                            .is_some_and(|want| answer_ok(&g.graph, q, want, &out))
                });
                log.tally.record(ok);
            }
            log
        });

        sys::set_exempt(true);
        let writer_cpu0 = sys::thread_cpu_s();
        let mut log = SwapLog {
            swap_ms: vec![Vec::new(); bases.len()],
            ..SwapLog::default()
        };
        let mut base_at = 0;
        let mut g = inst.graph.clone();
        let mut current = VersionedTables {
            generation: 0,
            snap: initial.clone(),
        };
        let mut due = start;
        for seq in 0u64.. {
            let now = Instant::now();
            if now >= end {
                break;
            }
            log.late_us
                .push(now.duration_since(due).as_secs_f64() * 1e6);
            if seq > 0 && seq % UPDATES_PER_GRAPH == 0 {
                base_at = (seq / UPDATES_PER_GRAPH) as usize % bases.len();
                let (base, snap) = bases[base_at];
                g = base.graph.clone();
                current = VersionedTables {
                    generation: current.generation + 1,
                    snap: snap.clone(),
                };
                let exact = bad_rows(&g, snap, &base.sources, &base.oracle) == 0;
                let Ok((_, accepted)) = install(&current, &g, exact) else {
                    log.swaps.record(false);
                    break;
                };
                log.swaps.record(accepted && exact);
            }
            let batch = gen_update_batch(&g, seq, 1, max_w, rng);
            let t = Instant::now();
            let Ok((next, report)) =
                apply_update_batch(&mut g, &current, &batch, RecomputeEngine::Alg1)
            else {
                log.swaps.record(false);
                continue;
            };
            let update_s = t.elapsed().as_secs_f64();
            let oracle = dw_seqref::apsp_dijkstra(&g);
            let exact = bad_rows(&g, &next.snap, &oracle.sources, &oracle.dist) == 0;
            let Ok((apply_s, accepted)) = install(&next, &g, exact) else {
                log.swaps.record(false);
                break;
            };
            log.swap_ms[base_at].push((update_s + apply_s) * 1e3);
            log.apply_ms.push(apply_s * 1e3);
            log.reports.push(report);
            log.swaps.record(accepted && exact);
            current = next;
            due = Instant::now();
        }
        stop.store(true, Ordering::SeqCst);
        let writer_cpu = sys::thread_cpu_s() - writer_cpu0;
        sys::set_exempt(false);
        let reads = reader.join().expect("swap reader panicked");
        (log, (reads, writer_cpu))
    });
    let (mut reads, writer_cpu) = reads;
    reads.elapsed_s = start.elapsed().as_secs_f64();
    reads.busy_s = reads.elapsed_s;
    reads.cpu_s = sys::process_cpu_s() - cpu0 - writer_cpu;
    reads.allocs = sys::allocs() - allocs0;
    log.reads = reads;
    Ok(log)
}
