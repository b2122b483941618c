//! Engine micro-benchmarks for the active-set scheduler rework: the two
//! regimes the scheduler separates (idle-heavy pipelined schedules vs
//! dense every-node-sends-every-round), each under both scheduling modes.
//!
//! `make bench-smoke` runs this suite; the wall-clock regression gate
//! lives in `bench_check` (driven from `BENCH_2.json`), so these numbers
//! are for eyeballing relative cost, not for CI pass/fail.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dw_bench::engine_bench::DensePing;
use dw_bench::workloads;
use dw_congest::{EngineConfig, Network, SchedulingMode};
use dw_pipeline as pipeline;

fn cfg(mode: SchedulingMode) -> EngineConfig {
    EngineConfig {
        scheduling: mode,
        ..EngineConfig::default()
    }
}

const MODES: [(&str, SchedulingMode); 2] = [
    ("exhaustive", SchedulingMode::ExhaustivePoll),
    ("active_set", SchedulingMode::ActiveSet),
];

/// Idle-heavy: Algorithm 1 APSP on a zero-heavy graph — the pipelined
/// schedule keeps most nodes silent in most rounds, so active-set
/// scheduling should win by not polling them.
fn idle_heavy(c: &mut Criterion) {
    let wl = workloads::zero_heavy(48, 6, 77);
    let mut group = c.benchmark_group("idle_heavy_apsp");
    group.sample_size(10);
    for (label, mode) in MODES {
        group.bench_with_input(BenchmarkId::from_parameter(label), &wl, |b, wl| {
            b.iter(|| pipeline::apsp(&wl.graph, wl.delta, cfg(mode)))
        });
    }
    group.finish();
}

/// Dense: every node broadcasts every round — the worst case for any
/// scheduling overhead; active-set must track exhaustive polling here.
fn dense_send(c: &mut Criterion) {
    let wl = workloads::unweighted(128, 33);
    let mut group = c.benchmark_group("dense_ping");
    group.sample_size(10);
    for (label, mode) in MODES {
        group.bench_with_input(BenchmarkId::from_parameter(label), &wl, |b, wl| {
            b.iter(|| {
                let mut net = Network::new(&wl.graph, cfg(mode), |_| DensePing { until: 100 });
                net.run(110);
                net.stats()
            })
        });
    }
    group.finish();
}

/// Fast-forward stress: a long-horizon short-range SSSP where almost every
/// round is skipped entirely — measures the scan-vs-heap silent-round cost.
fn fast_forward(c: &mut Criterion) {
    let wl = workloads::sparse_positive(1024, 32, 901);
    let mut group = c.benchmark_group("fast_forward_sssp");
    group.sample_size(10);
    for (label, mode) in MODES {
        group.bench_with_input(BenchmarkId::from_parameter(label), &wl, |b, wl| {
            b.iter(|| pipeline::short_range_sssp(&wl.graph, 0, 48, wl.delta, cfg(mode)))
        });
    }
    group.finish();
}

criterion_group!(benches, idle_heavy, dense_send, fast_forward);
criterion_main!(benches);
