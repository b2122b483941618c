//! Engine- and primitive-level integration tests: degenerate topologies,
//! fast-forward interactions, and primitive composition on the
//! structured graph families.

use dw_congest::primitives::{build_bfs_tree, converge_max, converge_sum, pipeline_broadcast};
use dw_congest::{EngineConfig, Envelope, Network, NodeCtx, Outbox, Protocol, Round, RunOutcome};
use dw_graph::gen::{self, WeightDist};
use dw_graph::GraphBuilder;

/// Counts everything it hears and echoes once.
#[derive(Clone, Default)]
struct Echo {
    heard: u64,
    spoken: bool,
}

impl Protocol for Echo {
    type Msg = u64;
    fn send(&mut self, round: Round, ctx: &NodeCtx, out: &mut Outbox<u64>) {
        if round == 1 && ctx.id == 0 {
            out.broadcast(7);
        } else if self.heard > 0 && !self.spoken {
            self.spoken = true;
            out.broadcast(self.heard);
        }
    }
    fn receive(&mut self, _r: Round, inbox: &[Envelope<u64>], _c: &NodeCtx) {
        self.heard += inbox.len() as u64;
    }
    fn earliest_send(&self, after: Round, ctx: &NodeCtx) -> Option<Round> {
        if (ctx.id == 0 && after <= 1) || (self.heard > 0 && !self.spoken) {
            Some(after.max(1))
        } else {
            None
        }
    }
}

#[test]
fn single_node_network_is_trivially_quiet() {
    let g = gen::path(1, false, WeightDist::Constant(1), 0);
    let mut net = Network::new(&g, EngineConfig::default(), |_| Echo::default());
    assert_eq!(net.run(100), RunOutcome::Quiet);
    assert_eq!(net.stats().messages, 0);
    assert_eq!(net.stats().rounds, 0);
}

#[test]
fn disconnected_components_run_independently() {
    let mut b = GraphBuilder::new(5, false);
    b.add_edge(0, 1, 1).add_edge(2, 3, 1).add_edge(3, 4, 1);
    let g = b.build();
    let mut net = Network::new(&g, EngineConfig::default(), |_| Echo::default());
    assert_eq!(net.run(100), RunOutcome::Quiet);
    // 0 broadcasts to 1; 1 echoes; 0 echoes the echo (its round-1 special
    // send doesn't set `spoken`); then both are done. The 2-3-4 component
    // stays silent throughout.
    assert_eq!(net.node(1).heard, 2);
    assert_eq!(net.node(2).heard, 0);
    assert_eq!(net.node(4).heard, 0);
}

#[test]
fn primitives_compose_on_structured_families() {
    for (name, g) in [
        (
            "tree",
            gen::binary_tree(31, false, WeightDist::Constant(1), 0),
        ),
        ("torus", gen::torus(5, 5, WeightDist::Constant(1), 1)),
        ("barbell", gen::barbell(6, 5, WeightDist::Constant(1), 2)),
    ] {
        let (tree, _) = build_bfs_tree(&g, 0, EngineConfig::default());
        assert_eq!(tree.size(), g.n(), "{name}: spanning");

        // broadcast a payload, then convergecast aggregates over it
        let items: Vec<u64> = (0..5).map(|i| 100 + i).collect();
        let (received, _) = pipeline_broadcast(&g, &tree, items.clone(), EngineConfig::default());
        for (v, got) in received.iter().enumerate().skip(1) {
            assert_eq!(got, &items, "{name}: node {v}");
        }

        let values: Vec<u64> = (0..g.n() as u64).map(|v| (v * 13) % 97).collect();
        let ((mx, arg), _) = converge_max(&g, &tree, &values, EngineConfig::default());
        let expect = values
            .iter()
            .enumerate()
            .max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i)))
            .unwrap();
        assert_eq!((mx, arg as usize), (*expect.1, expect.0), "{name}: max");

        let (sum, _) = converge_sum(&g, &tree, &values, EngineConfig::default());
        assert_eq!(sum, values.iter().sum::<u64>(), "{name}: sum");
    }
}

#[test]
fn bfs_tree_height_matches_hop_distance_on_barbell() {
    let g = gen::barbell(5, 7, WeightDist::Constant(1), 4);
    let (tree, stats) = build_bfs_tree(&g, 0, EngineConfig::default());
    // root is inside the left clique: height = 1 (clique) .. bridge .. clique
    let expected_height = 1 + 7 + 1;
    assert_eq!(tree.height(), expected_height as u64);
    assert!(stats.rounds <= expected_height as u64 + 2);
}

/// Two LateSenders at different future rounds: fast-forward must hit both
/// in order without skipping either.
#[derive(Clone)]
struct TimedSender {
    fire_at: Round,
    sent: bool,
    heard_rounds: Vec<Round>,
}

impl Protocol for TimedSender {
    type Msg = u64;
    fn send(&mut self, round: Round, _ctx: &NodeCtx, out: &mut Outbox<u64>) {
        if !self.sent && round >= self.fire_at {
            self.sent = true;
            out.broadcast(round);
        }
    }
    fn receive(&mut self, round: Round, _inbox: &[Envelope<u64>], _c: &NodeCtx) {
        self.heard_rounds.push(round);
    }
    fn earliest_send(&self, after: Round, _ctx: &NodeCtx) -> Option<Round> {
        if self.sent {
            None
        } else {
            Some(after.max(self.fire_at))
        }
    }
}

#[test]
fn fast_forward_visits_every_scheduled_round() {
    let g = gen::path(3, false, WeightDist::Constant(1), 0);
    let fires = [50u64, 500, 5000];
    let mut net = Network::new(&g, EngineConfig::default(), |v| TimedSender {
        fire_at: fires[v as usize],
        sent: false,
        heard_rounds: Vec::new(),
    });
    assert_eq!(net.run(10_000), RunOutcome::Quiet);
    let st = net.stats();
    assert_eq!(st.rounds, 5000);
    assert!(st.rounds_executed <= 10, "executed {}", st.rounds_executed);
    // the middle node heard the endpoints exactly at their fire rounds
    assert_eq!(net.node(1).heard_rounds, vec![50, 5000]);
    assert_eq!(net.node(0).heard_rounds, vec![500]);
}
