//! The WAN latency plane: a [`geo::Topology`] consulted on every
//! delivery, alongside (and independent of) the fault plane.
//!
//! Where the fault plane answers "does this delivery arrive, and
//! mangled how", the geo plane answers "how far is the wire": each
//! `Sim::send` between sites in different regions is charged the
//! topology's deterministic base latency plus bandwidth term, and — for
//! pairs with a non-zero jitter bound — one uniform draw from the
//! plane's **own** seeded RNG. The same two properties the fault plane
//! guarantees hold here:
//!
//! * **Zero-cost when off (or zero).** No plane, or a plane with a
//!   zero topology ([`geo::Topology::is_zero`]), takes no RNG draws and
//!   adds no delay, so such runs stay byte-identical to pre-geo builds
//!   (the wan byte-identity gate in `scripts/verify.sh`).
//! * **Byte-identical replay.** The plane's `StdRng` is seeded from
//!   [`GeoConfig::seed`], independent of the engine and fault seeds.
//!
//! The plane also owns the **region-cut** partition fault: a severed
//! region pair parks (never drops) deliveries at the engine until the
//! pair is healed, modeling a WAN netsplit whose traffic resumes — in
//! original sequence order — once the route returns.

use crate::time::SimTime;
use detrand::{rngs::StdRng, Rng, SeedableRng};
use geo::{GeoStats, RegionId, Topology};
use std::collections::HashSet;

/// Configuration for a [`GeoPlane`].
#[derive(Clone, Debug)]
pub struct GeoConfig {
    /// Seed for the plane's dedicated jitter RNG. Independent of the
    /// engine seed so the same WAN weather replays under different
    /// workload draws (and vice versa).
    pub seed: u64,
    /// Who sits where and what every region pair costs.
    pub topology: Topology,
}

impl GeoConfig {
    /// A plane over `topology` with jitter seeded from `seed`.
    pub fn new(seed: u64, topology: Topology) -> GeoConfig {
        GeoConfig { seed, topology }
    }
}

/// Seeded WAN-latency state consulted by `Sim::send`.
pub struct GeoPlane {
    topology: Topology,
    rng: StdRng,
    stats: GeoStats,
    /// Severed *directed* region pairs. `sever` inserts both
    /// directions; a partition is symmetric.
    severed: HashSet<(RegionId, RegionId)>,
}

impl GeoPlane {
    /// Build a plane from its config.
    pub fn new(cfg: GeoConfig) -> GeoPlane {
        let regions = cfg.topology.regions();
        GeoPlane {
            topology: cfg.topology,
            rng: StdRng::seed_from_u64(cfg.seed),
            stats: GeoStats::new(regions),
            severed: HashSet::new(),
        }
    }

    /// The topology the plane runs on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Per-region-pair traffic the plane has charged so far.
    pub fn stats(&self) -> &GeoStats {
        &self.stats
    }

    /// Extra delivery delay for one message `from -> to` of `bytes`:
    /// the deterministic wire cost plus — only when the pair's jitter
    /// bound is non-zero — one uniform RNG draw. Also counts the
    /// message in [`GeoPlane::stats`].
    pub fn extra_delay(&mut self, from: usize, to: usize, bytes: usize) -> SimTime {
        let (a, b) = (self.topology.region_of(from), self.topology.region_of(to));
        self.stats.record(a, b, bytes);
        let base = self.topology.wire_us(a, b, bytes);
        let bound = self.topology.jitter_bound_us(a, b);
        let jitter = if bound > 0 { self.rng.gen_range(0..=bound) } else { 0 };
        SimTime::from_micros(base + jitter)
    }

    /// Sever the (symmetric) link between two regions: deliveries whose
    /// endpoints straddle the cut are parked by the engine until
    /// [`GeoPlane::heal`]. Severing a pair twice, or `a == b`, is a
    /// no-op.
    pub fn sever(&mut self, a: RegionId, b: RegionId) {
        if a == b {
            return;
        }
        self.severed.insert((a, b));
        self.severed.insert((b, a));
    }

    /// Heal the link between two regions (the engine then releases
    /// parked deliveries for the pair).
    pub fn heal(&mut self, a: RegionId, b: RegionId) {
        self.severed.remove(&(a, b));
        self.severed.remove(&(b, a));
    }

    /// Heal every severed pair.
    pub fn heal_all(&mut self) {
        self.severed.clear();
    }

    /// Is any region pair currently severed?
    pub fn any_severed(&self) -> bool {
        !self.severed.is_empty()
    }

    /// Does a message between these two *sites* cross a severed pair?
    pub fn sites_severed(&self, from: usize, to: usize) -> bool {
        !self.severed.is_empty()
            && self
                .severed
                .contains(&(self.topology.region_of(from), self.topology.region_of(to)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_topology_adds_no_delay_and_draws_nothing() {
        let mut p = GeoPlane::new(GeoConfig::new(1, Topology::single_region(4)));
        for i in 0..100 {
            assert_eq!(p.extra_delay(i % 4, (i + 1) % 4, 512), SimTime::ZERO);
        }
        // The RNG was never advanced: a fresh plane's RNG produces the
        // same next value.
        let mut fresh = StdRng::seed_from_u64(1);
        assert_eq!(p.rng.gen::<u64>(), fresh.gen::<u64>());
        assert_eq!(p.stats().cross_bytes(), 0);
        assert_eq!(p.stats().intra_bytes(), 100 * 512);
    }

    #[test]
    fn wan_delay_is_base_plus_bounded_jitter() {
        let t = Topology::wan3(6);
        let mut p = GeoPlane::new(GeoConfig::new(7, t.clone()));
        for _ in 0..200 {
            let d = p.extra_delay(0, 5, 1024).as_micros(); // eu -> ap
            let base = t.wire_us(0, 2, 1024);
            assert!(d >= base && d <= base + t.jitter_bound_us(0, 2), "delay {d}");
        }
        assert!(p.stats().cross_bytes() > 0);
    }

    #[test]
    fn same_seed_same_weather() {
        let run = |seed| {
            let mut p = GeoPlane::new(GeoConfig::new(seed, Topology::wan3(6)));
            (0..300).map(|i| p.extra_delay(i % 6, (i + 3) % 6, 64)).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn sever_is_symmetric_and_healable() {
        let mut p = GeoPlane::new(GeoConfig::new(1, Topology::wan3(6)));
        assert!(!p.any_severed());
        p.sever(0, 2);
        assert!(p.sites_severed(0, 5)); // eu site -> ap site
        assert!(p.sites_severed(5, 0));
        assert!(!p.sites_severed(0, 3)); // eu -> us untouched
        assert!(!p.sites_severed(0, 1)); // intra-eu untouched
        p.sever(1, 1); // self-cut is a no-op
        p.heal(2, 0); // order-insensitive
        assert!(!p.any_severed());
        assert!(!p.sites_severed(0, 5));
    }
}
