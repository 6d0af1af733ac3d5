//! Deterministic fault injection for the delivery path.
//!
//! The paper's correctness story — the IOP doubly-linked list (§II-C) and
//! the Data Triangle prefix consistency (§IV-A.2) — is argued over clean
//! executions; Chord \[26\] and the epidemic estimator \[14\] are only
//! *probabilistically* correct under message loss. This module makes loss
//! a first-class, replayable input: a [`FaultPlane`] can drop, duplicate
//! or jitter-delay every link-level delivery and mark nodes as crashed,
//! all from its **own** seeded RNG.
//!
//! Two properties matter for the experiments:
//!
//! * **Zero-cost when off.** A `Sim` without a fault plane takes no extra
//!   RNG draws and schedules exactly the same events, so fault-free runs
//!   stay byte-identical to pre-fault-plane builds.
//! * **Byte-identical replay.** The plane owns a dedicated `StdRng`
//!   seeded from [`FaultConfig::seed`]; given the same workload and the
//!   same fault config, every drop/duplicate/jitter decision — and thus
//!   the whole faulty execution — replays exactly.

use crate::sim::NodeIndex;
use crate::time::SimTime;
use detrand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Fault rates for one directed link (or the all-links default).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability in `[0, 1]` that a delivery is silently dropped.
    pub drop: f64,
    /// Probability in `[0, 1]` that a delivery is duplicated (two copies
    /// arrive, each with its own jitter draw).
    pub duplicate: f64,
    /// Upper bound on extra uniformly-drawn delivery delay. `ZERO`
    /// disables jitter (and its RNG draw).
    pub jitter: SimTime,
}

impl LinkFaults {
    /// A perfectly reliable link.
    pub const NONE: LinkFaults =
        LinkFaults { drop: 0.0, duplicate: 0.0, jitter: SimTime::ZERO };

    /// Drop-only faults at probability `p`.
    pub fn drop_rate(p: f64) -> LinkFaults {
        LinkFaults { drop: p, ..LinkFaults::NONE }
    }

    fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.drop), "drop out of range");
        assert!((0.0..=1.0).contains(&self.duplicate), "duplicate out of range");
    }
}

/// Configuration for a [`FaultPlane`].
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed for the plane's dedicated RNG. Independent of the engine
    /// seed so the same fault schedule can be replayed under different
    /// latency draws (and vice versa).
    pub seed: u64,
    /// Faults applied to every link without an override.
    pub default: LinkFaults,
    /// Per-directed-link overrides, keyed by `(from, to)`.
    pub links: HashMap<(NodeIndex, NodeIndex), LinkFaults>,
}

impl FaultConfig {
    /// A plane with no faults (useful when only crash injection is
    /// wanted).
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig { seed, default: LinkFaults::NONE, links: HashMap::new() }
    }

    /// Uniform drop probability on every link.
    pub fn uniform_drop(seed: u64, p: f64) -> FaultConfig {
        FaultConfig { seed, default: LinkFaults::drop_rate(p), links: HashMap::new() }
    }

    /// Replace the all-links default.
    pub fn with_default(mut self, faults: LinkFaults) -> FaultConfig {
        self.default = faults;
        self
    }

    /// Override faults for one directed link.
    pub fn with_link(mut self, from: NodeIndex, to: NodeIndex, faults: LinkFaults) -> FaultConfig {
        self.links.insert((from, to), faults);
        self
    }
}

/// Counters describing what the plane actually did.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FaultStats {
    /// Deliveries that arrived (duplicated copies counted individually).
    pub delivered: u64,
    /// Deliveries silently dropped by link faults.
    pub dropped: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Deliveries that received non-zero jitter.
    pub jittered: u64,
    /// Deliveries discarded because the destination had crashed.
    pub to_crashed: u64,
}

impl FaultStats {
    /// Fraction of attempted deliveries that arrived, in `[0, 1]`;
    /// `1.0` when nothing was attempted.
    pub fn delivery_rate(&self) -> f64 {
        let attempted = self.delivered + self.dropped + self.to_crashed;
        if attempted == 0 {
            1.0
        } else {
            self.delivered as f64 / attempted as f64
        }
    }
}

/// The verdict for one attempted delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// How many copies to deliver (0 = dropped, 1 = normal, 2 = duplicated).
    pub copies: u8,
    /// Extra delay for each copy (index 0 and 1).
    pub extra_delay: [SimTime; 2],
}

/// Seeded fault-injection state consulted by `Sim::send`.
pub struct FaultPlane {
    default: LinkFaults,
    links: HashMap<(NodeIndex, NodeIndex), LinkFaults>,
    crashed: HashSet<NodeIndex>,
    rng: StdRng,
    stats: FaultStats,
}

impl FaultPlane {
    /// Build a plane from its config.
    pub fn new(cfg: FaultConfig) -> FaultPlane {
        cfg.default.validate();
        for f in cfg.links.values() {
            f.validate();
        }
        FaultPlane {
            default: cfg.default,
            links: cfg.links,
            crashed: HashSet::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
            stats: FaultStats::default(),
        }
    }

    fn faults_for(&self, from: NodeIndex, to: NodeIndex) -> LinkFaults {
        self.links.get(&(from, to)).copied().unwrap_or(self.default)
    }

    /// Mark `node` crashed: every future delivery to it is discarded.
    /// (In-flight deliveries are checked again at delivery time, so a
    /// crash takes effect immediately, mid-protocol.)
    pub fn crash(&mut self, node: NodeIndex) {
        self.crashed.insert(node);
    }

    /// Has `node` been crashed?
    pub fn is_crashed(&self, node: NodeIndex) -> bool {
        self.crashed.contains(&node)
    }

    /// Record a delivery discarded at delivery time because the
    /// destination crashed after the message was sent.
    pub(crate) fn note_delivery_to_crashed(&mut self) {
        self.stats.to_crashed += 1;
        // The copy was counted as delivered at send time (saturating:
        // local self-deliveries never went through `judge`).
        self.stats.delivered = self.stats.delivered.saturating_sub(1);
    }

    /// Decide the fate of one delivery `from -> to`. Draw order is fixed
    /// (drop, duplicate, then one jitter per copy) so executions replay
    /// byte-identically.
    pub fn judge(&mut self, from: NodeIndex, to: NodeIndex) -> Verdict {
        if self.crashed.contains(&to) || self.crashed.contains(&from) {
            self.stats.to_crashed += 1;
            return Verdict { copies: 0, extra_delay: [SimTime::ZERO; 2] };
        }
        let f = self.faults_for(from, to);
        if f.drop > 0.0 && self.rng.gen_bool(f.drop) {
            self.stats.dropped += 1;
            return Verdict { copies: 0, extra_delay: [SimTime::ZERO; 2] };
        }
        let copies = if f.duplicate > 0.0 && self.rng.gen_bool(f.duplicate) {
            self.stats.duplicated += 1;
            2u8
        } else {
            1u8
        };
        let mut extra_delay = [SimTime::ZERO; 2];
        for slot in extra_delay.iter_mut().take(copies as usize) {
            if f.jitter > SimTime::ZERO {
                let us = self.rng.gen_range(0..=f.jitter.as_micros());
                if us > 0 {
                    self.stats.jittered += 1;
                }
                *slot = SimTime::from_micros(us);
            }
        }
        self.stats.delivered += copies as u64;
        Verdict { copies, extra_delay }
    }

    /// Sample whether a single synchronous (RPC-style) transfer
    /// `from -> to` is lost. Used by protocol code whose exchanges do not
    /// go through the event queue (e.g. the triangle refresh fetch).
    pub fn sample_loss(&mut self, from: NodeIndex, to: NodeIndex) -> bool {
        if self.crashed.contains(&to) || self.crashed.contains(&from) {
            self.stats.to_crashed += 1;
            return true;
        }
        let f = self.faults_for(from, to);
        let lost = f.drop > 0.0 && self.rng.gen_bool(f.drop);
        if lost {
            self.stats.dropped += 1;
        } else {
            self.stats.delivered += 1;
        }
        lost
    }

    /// What the plane has done so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::ms;

    #[test]
    fn clean_plane_delivers_everything() {
        let mut p = FaultPlane::new(FaultConfig::none(1));
        for _ in 0..100 {
            assert_eq!(p.judge(0, 1), Verdict { copies: 1, extra_delay: [SimTime::ZERO; 2] });
        }
        assert_eq!(p.stats().delivered, 100);
        assert_eq!(p.stats().dropped, 0);
        assert_eq!(p.stats().delivery_rate(), 1.0);
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let mut p = FaultPlane::new(FaultConfig::uniform_drop(7, 0.3));
        for _ in 0..10_000 {
            p.judge(0, 1);
        }
        let rate = p.stats().dropped as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "observed drop rate {rate}");
    }

    #[test]
    fn duplication_and_jitter_bounds() {
        let cfg = FaultConfig::none(3).with_default(LinkFaults {
            drop: 0.0,
            duplicate: 0.5,
            jitter: ms(20),
        });
        let mut p = FaultPlane::new(cfg);
        let mut dup = 0;
        for _ in 0..2_000 {
            let v = p.judge(4, 5);
            assert!(v.copies >= 1);
            if v.copies == 2 {
                dup += 1;
            }
            for d in &v.extra_delay[..v.copies as usize] {
                assert!(*d <= ms(20));
            }
        }
        assert!((800..1_200).contains(&dup), "duplications {dup}");
    }

    #[test]
    fn per_link_override_beats_default() {
        let cfg = FaultConfig::uniform_drop(9, 1.0).with_link(2, 3, LinkFaults::NONE);
        let mut p = FaultPlane::new(cfg);
        assert_eq!(p.judge(2, 3).copies, 1); // overridden link is clean
        assert_eq!(p.judge(3, 2).copies, 0); // default drops everything
    }

    #[test]
    fn crash_discards_in_both_directions() {
        let mut p = FaultPlane::new(FaultConfig::none(11));
        p.crash(6);
        assert_eq!(p.judge(0, 6).copies, 0);
        assert_eq!(p.judge(6, 0).copies, 0);
        assert!(p.sample_loss(0, 6));
        assert_eq!(p.stats().to_crashed, 3);
        assert!(p.is_crashed(6));
        assert!(!p.is_crashed(0));
    }

    #[test]
    fn same_seed_same_verdicts() {
        let run = |seed| {
            let mut p = FaultPlane::new(FaultConfig::uniform_drop(seed, 0.2).with_default(
                LinkFaults { drop: 0.2, duplicate: 0.1, jitter: ms(10) },
            ));
            (0..500).map(|i| p.judge(i % 7, (i + 1) % 7)).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
