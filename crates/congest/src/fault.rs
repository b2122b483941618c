//! Deterministic fault injection for the round engine.
//!
//! The CONGEST model assumes perfectly reliable synchronous links. Real
//! deployments (and robustness arguments about the paper's pipelined
//! schedules) need the opposite: messages that are dropped, duplicated or
//! delayed, and links that fail for whole round intervals. A [`FaultPlan`]
//! describes such an adversary **deterministically**: the decision for the
//! message on directed link `(u, v)` in round `r` is a pure function of
//! `(plan seed, u, v, r)`, derived from a dedicated ChaCha8 stream. Two
//! runs with the same seed and the same traffic therefore see byte-for-byte
//! identical faults, regardless of engine parallelism or iteration order —
//! which is what makes the conformance suite in `dwapsp` possible.
//!
//! The plan is enforced inside [`crate::engine::Network`]'s delivery path:
//! the sender still occupies the link (the message was put on the wire, so
//! capacity and congestion accounting are unchanged), only the *delivery*
//! is tampered with. All tampering is tallied in [`crate::RunStats`] and,
//! per round, in [`crate::trace::RoundRecord`].

use crate::protocol::Round;
use dw_graph::NodeId;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// What happens to one message on one directed link in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Normal delivery this round.
    Deliver,
    /// The message vanishes (random loss).
    Drop,
    /// The message vanishes because the link is in a scheduled outage.
    OutageDrop,
    /// The receiver gets two copies this round.
    Duplicate,
    /// Delivery is postponed by this many rounds (`>= 1`).
    Delay(Round),
}

/// A scheduled link failure: messages on the link are dropped for every
/// round in `start..=end` (inclusive), then the link heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    pub from: NodeId,
    pub to: NodeId,
    pub start: Round,
    pub end: Round,
    /// Also fail the reverse direction `to -> from`.
    pub symmetric: bool,
}

impl Outage {
    fn covers(&self, u: NodeId, v: NodeId, round: Round) -> bool {
        if round < self.start || round > self.end {
            return false;
        }
        (u == self.from && v == self.to) || (self.symmetric && u == self.to && v == self.from)
    }
}

/// A per-directed-link delay profile: messages on `from -> to` are
/// delayed with probability `p`, by a uniform number of rounds in
/// `1..=max_delay`, *instead of* the plan-wide fault mix. Distinct links
/// with distinct profiles make deliveries genuinely reorder (a message
/// sent in round `r` and delayed by 4 arrives after the round-`r+1`
/// message that was delayed by 1), which is the adversary the reliable
/// channel's sequence numbers exist for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDelay {
    pub from: NodeId,
    pub to: NodeId,
    pub p: f64,
    pub max_delay: Round,
}

impl LinkDelay {
    fn covers(&self, u: NodeId, v: NodeId) -> bool {
        u == self.from && v == self.to
    }
}

/// A deterministic, seeded description of link faults.
///
/// Build with the `with_*` combinators:
///
/// ```
/// use dw_congest::fault::FaultPlan;
/// let plan = FaultPlan::new(42)
///     .with_drop(0.05)
///     .with_duplicate(0.01)
///     .with_delay(0.02, 3);
/// assert!(!plan.is_pristine());
/// ```
///
/// The per-message probabilities must sum to at most 1; the remainder is
/// the probability of clean delivery. Outages override the random draws.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_p: f64,
    dup_p: f64,
    delay_p: f64,
    max_delay: Round,
    outages: Vec<Outage>,
    link_delays: Vec<LinkDelay>,
}

impl FaultPlan {
    /// A plan that (so far) faults nothing; combine with `with_*`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            max_delay: 0,
            outages: Vec::new(),
            link_delays: Vec::new(),
        }
    }

    /// Shorthand for a pure random-loss plan.
    pub fn drop_only(seed: u64, p: f64) -> Self {
        FaultPlan::new(seed).with_drop(p)
    }

    /// Drop each message independently with probability `p`.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_p = p;
        self.validate();
        self
    }

    /// Duplicate each message independently with probability `p`.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.dup_p = p;
        self.validate();
        self
    }

    /// Delay each message with probability `p`, by a uniform number of
    /// rounds in `1..=max_delay`.
    pub fn with_delay(mut self, p: f64, max_delay: Round) -> Self {
        self.delay_p = p;
        self.max_delay = max_delay;
        assert!(
            p == 0.0 || max_delay >= 1,
            "delay faults need max_delay >= 1"
        );
        self.validate();
        self
    }

    /// Give one directed link its own delay profile, overriding the
    /// plan-wide fault mix on that link. Heterogeneous profiles across
    /// the links of one node are what reorder deliveries relative to
    /// send order (see [`LinkDelay`]).
    pub fn with_link_delay(mut self, rule: LinkDelay) -> Self {
        assert!(
            (0.0..=1.0).contains(&rule.p),
            "link delay probability {} not in [0, 1]",
            rule.p
        );
        assert!(
            rule.p == 0.0 || rule.max_delay >= 1,
            "link delay faults need max_delay >= 1"
        );
        self.link_delays.push(rule);
        self
    }

    /// Schedule a link outage.
    pub fn with_outage(mut self, outage: Outage) -> Self {
        assert!(outage.start <= outage.end, "outage interval is empty");
        self.outages.push(outage);
        self
    }

    fn validate(&self) {
        for (name, p) in [
            ("drop", self.drop_p),
            ("duplicate", self.dup_p),
            ("delay", self.delay_p),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} probability {p} not in [0, 1]"
            );
        }
        let total = self.drop_p + self.dup_p + self.delay_p;
        assert!(total <= 1.0, "fault probabilities sum to {total} > 1");
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True iff this plan can never tamper with any message.
    pub fn is_pristine(&self) -> bool {
        self.drop_p == 0.0
            && self.dup_p == 0.0
            && self.delay_p == 0.0
            && self.outages.is_empty()
            && self.link_delays.iter().all(|r| r.p == 0.0)
    }

    /// True iff the plan schedules delay faults (the multi-instance
    /// scheduler cannot absorb those; see [`crate::scheduler`]).
    pub fn has_delays(&self) -> bool {
        self.delay_p > 0.0 || self.link_delays.iter().any(|r| r.p > 0.0)
    }

    /// The deterministic per-message seed: a SplitMix64 chain over the plan
    /// seed and the message coordinates. Order-independent, so every
    /// runtime agrees whatever order it delivers messages in.
    fn event_seed(&self, u: NodeId, v: NodeId, round: Round) -> u64 {
        fn splitmix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        splitmix(self.seed ^ splitmix(((u as u64) << 32 | v as u64) ^ splitmix(round)))
    }

    /// Decide the fate of the message sent on `u -> v` in `round`.
    ///
    /// At most one message exists per directed link per round (the CONGEST
    /// capacity), so `(u, v, round)` identifies the message uniquely.
    pub fn decide(&self, u: NodeId, v: NodeId, round: Round) -> FaultAction {
        for o in &self.outages {
            if o.covers(u, v, round) {
                return FaultAction::OutageDrop;
            }
        }
        if let Some(rule) = self.link_delays.iter().find(|r| r.covers(u, v)) {
            let mut rng = ChaCha8Rng::seed_from_u64(self.event_seed(u, v, round));
            let x = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            return if x < rule.p {
                FaultAction::Delay(rng.gen_range(1..=rule.max_delay))
            } else {
                FaultAction::Deliver
            };
        }
        let total = self.drop_p + self.dup_p + self.delay_p;
        if total == 0.0 {
            return FaultAction::Deliver;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.event_seed(u, v, round));
        // 53-bit uniform in [0, 1).
        let x = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if x < self.drop_p {
            FaultAction::Drop
        } else if x < self.drop_p + self.dup_p {
            FaultAction::Duplicate
        } else if x < total {
            FaultAction::Delay(rng.gen_range(1..=self.max_delay))
        } else {
            FaultAction::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_plan_always_delivers() {
        let plan = FaultPlan::new(7);
        assert!(plan.is_pristine());
        for r in 1..100 {
            assert_eq!(plan.decide(0, 1, r), FaultAction::Deliver);
        }
    }

    #[test]
    fn link_delay_rule_overrides_plan_mix_on_its_link_only() {
        let plan = FaultPlan::new(3).with_drop(1.0).with_link_delay(LinkDelay {
            from: 0,
            to: 1,
            p: 1.0,
            max_delay: 4,
        });
        assert!(plan.has_delays());
        for r in 1..50 {
            // The ruled link only ever delays (never the plan-wide drop)…
            match plan.decide(0, 1, r) {
                FaultAction::Delay(d) => assert!((1..=4).contains(&d)),
                other => panic!("round {r}: expected a delay, got {other:?}"),
            }
            // …while every other link still sees the plan-wide mix.
            assert_eq!(plan.decide(1, 0, r), FaultAction::Drop);
            assert_eq!(plan.decide(0, 2, r), FaultAction::Drop);
        }
        // Same coordinates, same decision — the rule is deterministic.
        assert_eq!(plan.decide(0, 1, 7), plan.decide(0, 1, 7));
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::new(11).with_drop(0.3).with_delay(0.2, 4);
        let b = a.clone();
        for r in 1..500 {
            for (u, v) in [(0, 1), (1, 0), (2, 5)] {
                assert_eq!(a.decide(u, v, r), b.decide(u, v, r));
            }
        }
    }

    #[test]
    fn different_links_get_independent_decisions() {
        let plan = FaultPlan::drop_only(3, 0.5);
        let mut differ = false;
        for r in 1..64 {
            if plan.decide(0, 1, r) != plan.decide(1, 0, r) {
                differ = true;
                break;
            }
        }
        assert!(differ, "forward and reverse links must draw independently");
    }

    #[test]
    fn drop_rate_is_roughly_respected() {
        let plan = FaultPlan::drop_only(99, 0.25);
        let mut drops = 0u32;
        let trials = 4000;
        for r in 1..=trials {
            if plan.decide(4, 9, r) == FaultAction::Drop {
                drops += 1;
            }
        }
        let rate = drops as f64 / trials as f64;
        assert!((0.2..0.3).contains(&rate), "observed drop rate {rate}");
    }

    #[test]
    fn delay_magnitudes_in_bounds() {
        let plan = FaultPlan::new(5).with_delay(1.0, 3);
        for r in 1..200 {
            match plan.decide(1, 2, r) {
                FaultAction::Delay(d) => assert!((1..=3).contains(&d)),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn outage_overrides_randomness() {
        let plan = FaultPlan::new(1).with_outage(Outage {
            from: 0,
            to: 1,
            start: 10,
            end: 20,
            symmetric: true,
        });
        assert_eq!(plan.decide(0, 1, 9), FaultAction::Deliver);
        assert_eq!(plan.decide(0, 1, 10), FaultAction::OutageDrop);
        assert_eq!(plan.decide(1, 0, 15), FaultAction::OutageDrop);
        assert_eq!(plan.decide(0, 1, 21), FaultAction::Deliver);
        assert_eq!(plan.decide(2, 3, 15), FaultAction::Deliver);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn overfull_probabilities_rejected() {
        let _ = FaultPlan::new(0).with_drop(0.7).with_duplicate(0.5);
    }
}
