//! Tiered supply-chain topologies for the domain examples.
//!
//! §II-A: "in a supply chain network, a node may be a distribution
//! center or a retail store". The examples ship goods through a classic
//! three-tier chain: suppliers → distribution centres → retailers, with
//! each downstream site wired to a subset of the upstream tier.

use moods::SiteId;
use detrand::rngs::StdRng;
use detrand::{seq::SliceRandom, Rng, SeedableRng};

/// Role of a site in the chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Produces goods (trace origins).
    Supplier,
    /// Cross-docks and stores goods.
    DistributionCenter,
    /// Sells goods (trace terminals).
    Retailer,
}

/// A three-tier supply chain over sites `0..total()`.
#[derive(Clone, Debug)]
pub struct SupplyChain {
    suppliers: usize,
    dcs: usize,
    retailers: usize,
    /// dc → suppliers feeding it.
    dc_sources: Vec<Vec<SiteId>>,
    /// retailer → DCs feeding it.
    retail_sources: Vec<Vec<SiteId>>,
}

impl SupplyChain {
    /// Build a chain; every DC is fed by 1–3 suppliers, every retailer
    /// by 1–2 DCs (drawn deterministically from `seed`).
    pub fn generate(suppliers: usize, dcs: usize, retailers: usize, seed: u64) -> SupplyChain {
        assert!(suppliers > 0 && dcs > 0 && retailers > 0, "all tiers must be populated");
        let mut rng = StdRng::seed_from_u64(seed);
        let supplier_ids: Vec<SiteId> = (0..suppliers).map(|i| SiteId(i as u32)).collect();
        let dc_ids: Vec<SiteId> =
            (0..dcs).map(|i| SiteId((suppliers + i) as u32)).collect();

        let dc_sources = (0..dcs)
            .map(|_| {
                let k = rng.gen_range(1..=3.min(suppliers));
                supplier_ids.choose_multiple(&mut rng, k).copied().collect()
            })
            .collect();
        let retail_sources = (0..retailers)
            .map(|_| {
                let k = rng.gen_range(1..=2.min(dcs));
                dc_ids.choose_multiple(&mut rng, k).copied().collect()
            })
            .collect();
        SupplyChain { suppliers, dcs, retailers, dc_sources, retail_sources }
    }

    /// Total number of sites.
    pub fn total(&self) -> usize {
        self.suppliers + self.dcs + self.retailers
    }

    /// The tier of a site.
    pub fn tier(&self, site: SiteId) -> Tier {
        let i = site.0 as usize;
        assert!(i < self.total(), "site {site} outside topology");
        if i < self.suppliers {
            Tier::Supplier
        } else if i < self.suppliers + self.dcs {
            Tier::DistributionCenter
        } else {
            Tier::Retailer
        }
    }

    /// Sample a downstream route supplier → DC → retailer that respects
    /// the wiring (the retailer's DC is one of its sources; the DC's
    /// supplier one of its own).
    pub fn sample_route(&self, rng: &mut StdRng) -> Vec<SiteId> {
        let retailer_i = rng.gen_range(0..self.retailers);
        let retailer = SiteId((self.suppliers + self.dcs + retailer_i) as u32);
        let dc = *self.retail_sources[retailer_i]
            .choose(rng)
            .expect("every retailer has a source");
        let dc_i = dc.0 as usize - self.suppliers;
        let supplier = *self.dc_sources[dc_i].choose(rng).expect("every DC has a source");
        vec![supplier, dc, retailer]
    }

    /// Is `route` a valid downstream flow in this chain?
    pub fn is_valid_route(&self, route: &[SiteId]) -> bool {
        if route.len() != 3 {
            return false;
        }
        let (s, d, r) = (route[0], route[1], route[2]);
        if self.tier(s) != Tier::Supplier
            || self.tier(d) != Tier::DistributionCenter
            || self.tier(r) != Tier::Retailer
        {
            return false;
        }
        let dc_i = d.0 as usize - self.suppliers;
        let r_i = r.0 as usize - self.suppliers - self.dcs;
        self.dc_sources[dc_i].contains(&s) && self.retail_sources[r_i].contains(&d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_partition_sites() {
        let c = SupplyChain::generate(3, 4, 5, 1);
        assert_eq!(c.total(), 12);
        let count = |tier| (0..12).filter(|&i| c.tier(SiteId(i)) == tier).count();
        assert_eq!(count(Tier::Supplier), 3);
        assert_eq!(count(Tier::DistributionCenter), 4);
        assert_eq!(count(Tier::Retailer), 5);
        assert_eq!(c.tier(SiteId(0)), Tier::Supplier);
        assert_eq!(c.tier(SiteId(3)), Tier::DistributionCenter);
        assert_eq!(c.tier(SiteId(7)), Tier::Retailer);
    }

    #[test]
    fn sampled_routes_are_valid() {
        let c = SupplyChain::generate(5, 6, 20, 42);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let route = c.sample_route(&mut rng);
            assert!(c.is_valid_route(&route), "invalid route {route:?}");
        }
    }

    #[test]
    fn invalid_routes_detected() {
        let c = SupplyChain::generate(2, 2, 2, 3);
        assert!(!c.is_valid_route(&[SiteId(0), SiteId(1), SiteId(2)])); // 1 is a supplier
        assert!(!c.is_valid_route(&[SiteId(0), SiteId(2)]));
    }

    #[test]
    fn deterministic_wiring() {
        let a = SupplyChain::generate(4, 4, 4, 9);
        let b = SupplyChain::generate(4, 4, 4, 9);
        assert_eq!(a.dc_sources, b.dc_sources);
        assert_eq!(a.retail_sources, b.retail_sources);
    }

    #[test]
    #[should_panic(expected = "tiers")]
    fn empty_tier_rejected() {
        let _ = SupplyChain::generate(0, 1, 1, 1);
    }
}
