//! CONGEST-model conformance across the whole stack: deterministic
//! replays and bandwidth accounting sanity.

use dwapsp::prelude::*;

#[test]
fn apsp_runs_are_bit_deterministic() {
    let g = gen::zero_heavy(18, 0.2, 0.5, 6, true, 5);
    let delta = max_finite_distance(&g).max(1);
    let (r1, s1, _) = apsp(&g, delta, EngineConfig::default());
    let (r2, s2, _) = apsp(&g, delta, EngineConfig::default());
    assert_eq!(r1, r2);
    assert_eq!(s1, s2);
}

#[test]
fn message_words_accounted() {
    let g = gen::zero_heavy(12, 0.25, 0.5, 5, true, 3);
    let delta = max_finite_distance(&g).max(1);
    let (_, stats, _) = apsp(&g, delta, EngineConfig::default());
    // Algorithm 1 messages are 4 words each.
    assert_eq!(stats.total_words, 4 * stats.messages);
}

#[test]
fn per_link_congestion_bounded_by_rounds() {
    let g = gen::zero_heavy(14, 0.2, 0.5, 6, true, 21);
    let delta = max_finite_distance(&g).max(1);
    let (_, stats, _) = apsp(&g, delta, EngineConfig::default());
    // each directed link carries at most one message per round
    assert!(stats.max_link_load <= stats.rounds);
    assert!(stats.max_round_messages <= 2 * g.m() as u64);
}

#[test]
fn directed_communication_is_bidirectional() {
    // A strictly one-directional weighted path still floods information
    // both ways at the CONGEST layer; only relaxations respect direction.
    let mut b = GraphBuilder::new(4, true);
    b.add_edge(3, 2, 1).add_edge(2, 1, 1).add_edge(1, 0, 1);
    let g = b.build();
    let (res, _, _) = apsp_auto(&g, EngineConfig::default());
    assert_eq!(res.dist[3][0], 3);
    assert_eq!(res.dist[0][3], INFINITY);
}
