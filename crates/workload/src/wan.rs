//! Cross-region supply-chain workloads (DESIGN.md §17).
//!
//! The paper's domain examples move objects through manufacturer →
//! port → distributor chains; over a [`geo::Topology`] those tiers sit
//! on different continents. [`WanChain`] generates exactly that
//! movement: every object is manufactured at a site in its home
//! region, then handed off through **every region in order** (3+
//! handoffs across region boundaries), with optional intra-region
//! dwell stops between the long hauls.
//!
//! Determinism: one `detrand::StdRng` seeded from the caller's seed
//! drives every draw, so the same `(topology, seed)` always produces
//! the identical event list — the wan sweep replays it under both
//! placement policies and compares costs at equal work.

use crate::{epc_object, CaptureEvent};
use detrand::{rngs::StdRng, Rng, SeedableRng};
use geo::{RegionId, Topology};
use moods::SiteId;
use simnet::SimTime;

/// A generated cross-region supply chain: the event list plus the
/// per-object routes (ground truth for route-shape assertions).
#[derive(Clone, Debug)]
pub struct WanChain {
    /// All capture events, in generation order (not globally sorted —
    /// `workload::replay` sorts).
    pub events: Vec<CaptureEvent>,
    /// Route of each object, as visited site ids in order.
    pub routes: Vec<Vec<SiteId>>,
}

impl WanChain {
    /// Generate `objects` objects flowing through `topology`'s regions
    /// in order. Object `k` starts in region `k % regions` and visits
    /// every region once, wrapping (so with three regions every object
    /// makes at least two region crossings and the flow is balanced
    /// across all directed region pairs). Within each region the
    /// object dwells at `1..=max_dwell_stops` distinct sites. Capture
    /// instants step by `step` per hop, objects staggered by `stagger`.
    ///
    /// Panics if the topology has fewer than 2 regions or no sites.
    pub fn generate(
        topology: &Topology,
        objects: usize,
        max_dwell_stops: usize,
        start: SimTime,
        step: SimTime,
        stagger: SimTime,
        seed: u64,
    ) -> WanChain {
        let regions = topology.regions();
        assert!(regions >= 2, "a WAN chain needs at least two regions");
        assert!(max_dwell_stops >= 1, "each region needs at least one stop");
        // Sites per region, in site order (deterministic).
        let mut by_region: Vec<Vec<SiteId>> = vec![Vec::new(); regions];
        for s in 0..topology.sites() {
            by_region[topology.region_of(s) as usize].push(SiteId(s as u32));
        }
        for (r, sites) in by_region.iter().enumerate() {
            assert!(!sites.is_empty(), "region {r} has no sites");
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut routes = Vec::with_capacity(objects);
        for k in 0..objects {
            let home = (k % regions) as RegionId;
            let object = epc_object(home as u32, k as u64);
            let mut clock = start + SimTime::from_micros(stagger.as_micros() * k as u64);
            let mut route: Vec<SiteId> = Vec::new();
            for leg in 0..regions {
                let r = ((home as usize + leg) % regions) as usize;
                let stops = rng.gen_range(1..=max_dwell_stops);
                for _ in 0..stops {
                    let mut site = by_region[r][rng.gen_range(0..by_region[r].len())];
                    if route.last() == Some(&site) {
                        // Never capture the same site twice in a row —
                        // the oracle counts it as one visit anyway.
                        let alt = (site.0 as usize + 1) % topology.sites();
                        if topology.region_of(alt) as usize == r {
                            site = SiteId(alt as u32);
                        } else {
                            continue;
                        }
                    }
                    events.push(CaptureEvent { at: clock, site, objects: vec![object] });
                    route.push(site);
                    clock = clock + step;
                }
            }
            routes.push(route);
        }
        WanChain { events, routes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::wan3(9)
    }

    #[test]
    fn same_seed_same_chain() {
        let t = topo();
        let step = SimTime::from_millis(40);
        let a = WanChain::generate(&t, 12, 2, SimTime::ZERO, step, step, 7);
        let b = WanChain::generate(&t, 12, 2, SimTime::ZERO, step, step, 7);
        assert_eq!(a.events, b.events);
        assert_eq!(a.routes, b.routes);
        let c = WanChain::generate(&t, 12, 2, SimTime::ZERO, step, step, 8);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn every_object_visits_every_region_in_order() {
        let t = topo();
        let step = SimTime::from_millis(40);
        let chain = WanChain::generate(&t, 9, 3, SimTime::ZERO, step, step, 3);
        assert_eq!(chain.routes.len(), 9);
        for (k, route) in chain.routes.iter().enumerate() {
            let regs: Vec<RegionId> =
                route.iter().map(|s| t.region_of(s.0 as usize)).collect();
            // Dedup consecutive: must be home, home+1, home+2 (mod 3).
            let mut seq = regs.clone();
            seq.dedup();
            let home = (k % 3) as RegionId;
            assert_eq!(seq, vec![home, (home + 1) % 3, (home + 2) % 3], "object {k}");
            // 3+ region handoffs requirement: at least regions-1 crossings.
            assert!(regs.windows(2).filter(|w| w[0] != w[1]).count() >= 2);
        }
    }

    #[test]
    fn capture_instants_strictly_advance_per_object() {
        let t = topo();
        let step = SimTime::from_millis(40);
        let chain = WanChain::generate(&t, 6, 3, SimTime::from_secs(1), step, step, 5);
        for (k, route) in chain.routes.iter().enumerate() {
            let times: Vec<SimTime> = chain
                .events
                .iter()
                .filter(|e| e.objects == vec![epc_object((k % 3) as u32, k as u64)])
                .map(|e| e.at)
                .collect();
            assert_eq!(times.len(), route.len());
            assert!(times.windows(2).all(|w| w[0] < w[1]), "object {k} times not increasing");
        }
    }
}
