//! The traced run's per-layer measurements. Every probe calls a layer's
//! public entry points from here, on the workload's own graph and
//! tables, and times the calls from outside; nothing inside the program
//! is instrumented.

use crate::inputs::{bad_rows, rng, Instance, Query};
use crate::load::{oracle_check, uniform_queries};
use crate::report::{mean, median, Metrics, Tally};
use crate::workloads::{runtime, solve, Outcome, Solve};
use dw_dynamic::{apply_update_batch, gen_update_batch, RecomputeEngine, UpdateReport};
use dw_pipeline::entry::PipelineMsg;
use dw_pipeline::hk_round_bound;
use dw_serve::{
    answer, QueryBatch, QueryRequest, ShardFrame, ShardHandle, ShardReply, TableSnapshot,
    VersionedTables,
};
use dw_transport::wire::{read_frame, write_frame, BatchEntry, Frame};
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Solve instance 0 on `sim`, `threads:2` and `tcp:2`, repeating the
/// triple until `budget` has passed (at least once). The three must
/// agree on rounds, messages and distances. Reports the engine's own
/// figures from `sim` and the transport's cost as differences against it.
pub fn transport_split(inst: &Instance, budget: Duration, m: &mut Metrics, tally: &mut Tally) {
    let labels = ["sim", "threads:2", "tcp:2"];
    let mut runs: [Vec<Solve>; 3] = Default::default();
    let t = Instant::now();
    while runs[0].is_empty() || t.elapsed() < budget {
        let triple: Vec<(Solve, Option<TableSnapshot>)> =
            labels.iter().map(|l| solve(runtime(l), inst)).collect();
        let (base, base_snap) = &triple[0];
        let agree = triple.iter().all(|(s, snap)| {
            s.ok && s.stats.rounds == base.stats.rounds
                && s.stats.rounds_executed == base.stats.rounds_executed
                && s.stats.messages == base.stats.messages
                && snap.as_ref().map(|x| &x.tables) == base_snap.as_ref().map(|x| &x.tables)
        });
        tally.record(agree);
        for (k, (s, _)) in triple.into_iter().enumerate() {
            runs[k].push(s);
        }
    }
    let med = |k: usize, f: fn(&Solve) -> f64| median(&runs[k].iter().map(f).collect::<Vec<_>>());
    let (sim_wall, tcp_wall) = (med(0, |s| s.wall_s), med(2, |s| s.wall_s));
    let (sim_cpu, thr_cpu, tcp_cpu) = (
        med(0, |s| s.cpu_s),
        med(1, |s| s.cpu_s),
        med(2, |s| s.cpu_s),
    );
    let st = &runs[0][0].stats;
    let executed = st.rounds_executed.max(1) as f64;
    let cfg = inst.cfg();
    m.put("congest.solve_s", sim_wall, "s");
    m.put("congest.cpu_s", sim_cpu, "s");
    m.put("congest.us_per_round", sim_wall / executed * 1e6, "us");
    m.put(
        "congest.rounds_executed",
        st.rounds_executed as f64,
        "rounds",
    );
    m.put(
        "congest.ff_ratio",
        st.rounds_executed as f64 / st.rounds.max(1) as f64,
        "ratio",
    );
    m.put("congest.messages", st.messages as f64, "count");
    m.put("congest.msgs_per_s", st.messages as f64 / sim_wall, "1/s");
    m.put("congest.max_link_load", st.max_link_load as f64, "count");
    m.put(
        "congest.allocs_per_round",
        med(0, |s| s.allocs as f64) / executed,
        "count",
    );
    m.put("pipeline.rounds", st.rounds as f64, "rounds");
    m.put(
        "pipeline.bound_ratio",
        st.rounds as f64 / hk_round_bound(cfg.h, cfg.k(), cfg.delta) as f64,
        "ratio",
    );
    m.put("transport.sim_gap", tcp_wall / sim_wall, "ratio");
    m.put("transport.us_per_round", tcp_wall / executed * 1e6, "us");
    m.put("transport.coord_cpu_s", thr_cpu - sim_cpu, "s");
    m.put("transport.socket_cpu_s", tcp_cpu - thr_cpu, "s");
    m.put(
        "transport.cpu_split_sum_s",
        sim_cpu + (thr_cpu - sim_cpu) + (tcp_cpu - thr_cpu),
        "s",
    );
    m.put(
        "transport.allocs_per_round",
        med(2, |s| s.allocs as f64) / executed,
        "count",
    );
}

/// Encode and decode `Frame::RoundBatch<PipelineMsg>` frames through the
/// public `write_frame` / `read_frame`, with one message per served
/// table entry (at most 50,000), 256 messages per frame.
pub fn wire(snap: &TableSnapshot, budget: Duration, m: &mut Metrics) {
    let mut entries: Vec<BatchEntry<PipelineMsg>> = Vec::new();
    'fill: for t in &snap.tables {
        for (v, (&d, &p)) in t.dist.iter().zip(&t.parent).enumerate() {
            if entries.len() == 50_000 {
                break 'fill;
            }
            entries.push(BatchEntry {
                from: p.unwrap_or(t.source),
                to: v as u32,
                due: d,
                msg: PipelineMsg {
                    d,
                    l: v as u64,
                    src: t.source,
                    flag_sp: p.is_some(),
                    nu: 1,
                },
            });
        }
    }
    let frames: Vec<Frame<PipelineMsg>> = entries
        .chunks(256)
        .enumerate()
        .map(|(r, c)| Frame::RoundBatch {
            round: r as u64,
            entries: c.to_vec(),
        })
        .collect();
    let msgs = entries.len() as f64;
    let mut bytes = Vec::new();
    let mut scratch = Vec::new();
    let (mut enc_s, mut dec_s, mut reps) = (0.0, 0.0, 0u32);
    let t = Instant::now();
    while reps == 0 || t.elapsed() < budget {
        bytes.clear();
        let e = Instant::now();
        for f in &frames {
            write_frame(&mut bytes, f, &mut scratch).expect("writing to memory cannot fail");
        }
        enc_s += e.elapsed().as_secs_f64();
        let d = Instant::now();
        let mut view = bytes.as_slice();
        let mut decoded = 0usize;
        while let Some(f) =
            read_frame::<_, Frame<PipelineMsg>>(&mut view).expect("own frames decode")
        {
            if let Frame::RoundBatch { entries, .. } = f {
                decoded += entries.len();
            }
        }
        dec_s += d.elapsed().as_secs_f64();
        assert_eq!(decoded, entries.len(), "every encoded message decodes");
        reps += 1;
    }
    let per = msgs * f64::from(reps);
    m.put("transport.wire.encode_ns_per_msg", enc_s / per * 1e9, "ns");
    m.put("transport.wire.decode_ns_per_msg", dec_s / per * 1e9, "ns");
    m.put(
        "transport.wire.bytes_per_msg",
        bytes.len() as f64 / msgs,
        "bytes",
    );
}

/// `server::answer` in process over uniform queries, and one-query
/// `ShardFrame::Queries` round trips straight to a shard serving every
/// row. Returns the shard round trip's median, in µs.
pub fn table_and_shard(
    inst: &Instance,
    snap: &TableSnapshot,
    seed: u64,
    budget: Duration,
    m: &mut Metrics,
    tally: &mut Tally,
) -> io::Result<f64> {
    let mut qrng = rng(seed, 10);
    let mut draw = uniform_queries(&inst.sources, inst.n(), &mut qrng);
    let check = oracle_check(inst);
    let request = |id: u64, q: Query| QueryRequest {
        id,
        src: q.src,
        dst: q.dst,
        want_path: q.want_path,
    };
    let (mut lookup_ns, mut walk_ns, mut lookups, mut walks) = (0u64, 0u64, 0u64, 0u64);
    let t = Instant::now();
    while lookups < 1000 || t.elapsed() < budget / 2 {
        let q = draw();
        let (reply, l, w) = answer(snap, &request(lookups, q));
        tally.record(check(q, &reply.outcome));
        lookup_ns += l;
        walk_ns += w;
        lookups += 1;
        walks += u64::from(q.want_path);
    }
    m.put(
        "serve.table.lookup_ns",
        lookup_ns as f64 / lookups as f64,
        "ns",
    );
    m.put(
        "serve.table.path_walk_ns",
        walk_ns as f64 / walks.max(1) as f64,
        "ns",
    );

    let mut shard = ShardHandle::spawn(snap.clone())?;
    let mut stream = TcpStream::connect(shard.addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut scratch = Vec::new();
    let mut rtt_us = Vec::new();
    let t = Instant::now();
    for seq in 0u64.. {
        if seq >= 500 && t.elapsed() >= budget / 2 {
            break;
        }
        let q = draw();
        let frame = ShardFrame::Queries(QueryBatch {
            seq,
            queries: vec![request(seq, q)],
        });
        let sent = Instant::now();
        write_frame(&mut stream, &frame, &mut scratch)?;
        let reply = read_frame::<_, ShardReply>(&mut stream)?;
        rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
        let ok = matches!(&reply, Some(ShardReply::Replies(b))
            if b.seq == seq && b.replies.len() == 1 && check(q, &b.replies[0].outcome));
        tally.record(ok);
    }
    drop(stream);
    shard.stop();
    let rtt = median(&rtt_us);
    m.put("serve.server.rtt_us", rtt, "us");
    Ok(rtt)
}

/// Seeded batch-1 updates with Algorithm 1 recompute on a copy of the
/// workload's graph and tables, until `budget` has passed (at least
/// one). Each new generation must equal Dijkstra on the patched graph.
pub fn dynamic(
    inst: &Instance,
    snap: &TableSnapshot,
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
) -> Vec<UpdateReport> {
    let mut g = inst.graph.clone();
    let mut tables = VersionedTables {
        generation: 0,
        snap: snap.clone(),
    };
    let mut r = rng(seed, 11);
    let mut reports = Vec::new();
    let t = Instant::now();
    for seq in 0u64.. {
        if seq >= 1 && t.elapsed() >= budget {
            break;
        }
        let batch = gen_update_batch(&g, seq, 1, g.max_weight(), &mut r);
        let Ok((next, report)) = apply_update_batch(&mut g, &tables, &batch, RecomputeEngine::Alg1)
        else {
            tally.record(false);
            continue;
        };
        let oracle = dw_seqref::k_source_dijkstra(&g, &inst.sources);
        tally.record(bad_rows(&g, &next.snap, &oracle.sources, &oracle.dist) == 0);
        reports.push(report);
        tables = next;
    }
    reports
}

pub fn dynamic_metrics(reports: &[UpdateReport], m: &mut Metrics) {
    let f = |g: fn(&UpdateReport) -> f64| reports.iter().map(g).collect::<Vec<_>>();
    m.put(
        "dynamic.patch_us",
        mean(&f(|r| r.patch_micros as f64)),
        "us",
    );
    m.put(
        "dynamic.solve_ms",
        mean(&f(|r| r.solve_micros as f64 / 1e3)),
        "ms",
    );
    m.put(
        "dynamic.recomputed_fraction",
        mean(&f(UpdateReport::recomputed_fraction)),
        "ratio",
    );
}

/// The per-layer metrics of a traced pass, with its probes.
pub fn per_layer(
    traced: &Outcome,
    untraced: &Metrics,
    traced_e2e: &Metrics,
    seed: u64,
    secs: f64,
    m: &mut Metrics,
    tally: &mut Tally,
) -> io::Result<()> {
    let inst = &traced.insts[traced.served_inst];
    let snap = traced
        .served
        .as_ref()
        .expect("every workload serves tables");
    let budget = |share: f64| Duration::from_secs_f64(secs * share);
    m.put("graph.gen_s", median(&traced.gen_s), "s");
    m.put("graph.csr_bytes", inst.graph.csr_bytes() as f64, "bytes");
    m.put("seqref.oracle_s", median(&traced.oracle_s), "s");
    transport_split(inst, budget(0.2), m, tally);
    wire(snap, budget(0.02), m);
    let rtt = table_and_shard(inst, snap, seed, budget(0.04), m, tally)?;
    let stats = traced.serve_stats;
    m.put(
        "serve.gateway.overhead_us",
        traced_e2e.get("query_p50_us") - rtt,
        "us",
    );
    m.put("serve.gateway.batch_size", stats.mean_batch_size(), "count");
    let logs = traced.qps_logs();
    let answered = logs.iter().map(|q| q.answered()).sum::<usize>().max(1) as f64;
    let cpu_s: f64 = logs.iter().map(|q| q.cpu_s).sum();
    let allocs: u64 = logs.iter().map(|q| q.allocs).sum();
    m.put(
        "serve.gateway.cpu_us_per_query",
        cpu_s / answered * 1e6,
        "us",
    );
    m.put(
        "serve.gateway.allocs_per_query",
        allocs as f64 / answered,
        "count",
    );
    m.put("serve.cache.hit_rate", traced.cache_hit_rate, "ratio");
    m.put("serve.gateway.apply_ms", median(&traced.apply_ms), "ms");
    // `serve_swap` reports its own stage's updates; the others probe.
    if !traced.updates.is_empty() {
        dynamic_metrics(&traced.updates, m);
    } else {
        dynamic_metrics(&dynamic(inst, snap, seed, budget(0.1), tally), m);
    }
    m.put(
        "loadgen.late_p99_us",
        crate::report::quantile(&traced.late_us, 0.99),
        "us",
    );
    m.put("loadgen.offered_qps", traced.offered_qps, "1/s");
    m.put("trace.solve_cpu_s", traced_e2e.get("solve_cpu_s"), "s");
    for (name, e2e, unit) in [
        ("trace.overhead_solve_s", "solve_s", "s"),
        ("trace.overhead_query_p50_us", "query_p50_us", "us"),
        ("trace.overhead_swap_ms", "swap_ms", "ms"),
    ] {
        m.put(name, traced_e2e.get(e2e) - untraced.get(e2e), unit);
    }
    Ok(())
}
