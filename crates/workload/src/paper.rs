//! The §V workload generator.
//!
//! Reproduces the evaluation setup verbatim: `Nn` nodes, `No` objects
//! generated at each node, a `move_fraction` (10 %) of each node's local
//! objects moved along a trace of `trace_len` (10) nodes. The
//! `grouped_movement` flag realizes Fig. 6b's two movement styles:
//!
//! * **in groups** — all moving objects of a node travel together
//!   (a pallet): one capture event per (step, source node), so they
//!   "are more likely to fall into the same capturing window";
//! * **individually** — every object gets its own jittered capture
//!   instants, spreading arrivals across windows.

use crate::{epc_object, CaptureEvent};
use moods::SiteId;
use detrand::rngs::StdRng;
use detrand::{Rng, SeedableRng};
use simnet::time::secs;
use simnet::SimTime;

/// Parameters of the §V generator (defaults = the paper's constants).
#[derive(Clone, Copy, Debug)]
pub struct PaperWorkload {
    /// `Nn` — number of sites.
    pub sites: usize,
    /// `No` per node — objects generated at each site.
    pub objects_per_site: usize,
    /// Fraction of each site's objects that move (paper: 0.10).
    pub move_fraction: f64,
    /// Length of each moving object's trace (paper: 10 nodes).
    pub trace_len: usize,
    /// Move in groups (pallets) or individually — Fig. 6b's two series.
    pub grouped_movement: bool,
    /// Seed for the deterministic draws.
    pub seed: u64,
    /// Time of the initial inventory capture wave.
    pub start: SimTime,
    /// Spacing between consecutive movement steps.
    pub step: SimTime,
}

impl Default for PaperWorkload {
    fn default() -> Self {
        PaperWorkload {
            sites: 512,
            objects_per_site: 5_000,
            move_fraction: 0.10,
            trace_len: 10,
            grouped_movement: true,
            seed: 0x5EED,
            start: secs(10),
            step: secs(600),
        }
    }
}

impl PaperWorkload {
    /// Generate the capture-event list.
    ///
    /// Phase 1 — inventory: every site captures its `No` local objects
    /// at (staggered) start times: the initial indexing wave whose cost
    /// Fig. 6 measures.
    ///
    /// Phase 2 — movement: 10 % of each site's objects travel through
    /// `trace_len` further sites; captures are grouped or individual
    /// per [`PaperWorkload::grouped_movement`].
    pub fn generate(&self) -> Vec<CaptureEvent> {
        assert!(self.sites > 0, "need at least one site");
        assert!((0.0..=1.0).contains(&self.move_fraction), "move_fraction in [0,1]");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut events = Vec::new();

        // Phase 1: initial inventory at each site. Stagger site waves by
        // a few seconds so windows do not all open simultaneously.
        for s in 0..self.sites {
            let at = self.start + SimTime::from_millis(rng.gen_range(0..5_000));
            let objects: Vec<_> = (0..self.objects_per_site)
                .map(|i| epc_object(s as u32, i as u64))
                .collect();
            events.push(CaptureEvent { at, site: SiteId(s as u32), objects });
        }

        // Phase 2: movement.
        let movers_per_site =
            (self.objects_per_site as f64 * self.move_fraction).round() as usize;
        let phase2 = self.start + self.step;
        for s in 0..self.sites {
            if movers_per_site == 0 || self.trace_len == 0 {
                continue;
            }
            let movers: Vec<_> =
                (0..movers_per_site).map(|i| epc_object(s as u32, i as u64)).collect();
            // A shared route for the group; individual movers re-draw
            // per object.
            let route = self.random_route(&mut rng, s);
            if self.grouped_movement {
                // The pallet: one capture event per step for all movers.
                for (k, &dest) in route.iter().enumerate() {
                    let at = phase2 + SimTime(self.step.0 * k as u64)
                        + SimTime::from_millis(rng.gen_range(0..1_000));
                    events.push(CaptureEvent { at, site: dest, objects: movers.clone() });
                }
            } else {
                for &o in &movers {
                    let route = self.random_route(&mut rng, s);
                    for (k, &dest) in route.iter().enumerate() {
                        // Independent jitter far wider than any window.
                        let at = phase2 + SimTime(self.step.0 * k as u64)
                            + SimTime::from_millis(rng.gen_range(0..self.step.as_millis() / 2));
                        events.push(CaptureEvent { at, site: dest, objects: vec![o] });
                    }
                }
            }
        }
        events
    }

    /// A route of `trace_len` sites, none equal to its predecessor
    /// (objects do not "move" to where they already are).
    fn random_route(&self, rng: &mut StdRng, home: usize) -> Vec<SiteId> {
        let mut route = Vec::with_capacity(self.trace_len);
        let mut prev = home;
        for _ in 0..self.trace_len {
            let mut next = rng.gen_range(0..self.sites);
            if self.sites > 1 {
                while next == prev {
                    next = rng.gen_range(0..self.sites);
                }
            }
            route.push(SiteId(next as u32));
            prev = next;
        }
        route
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation_count;

    fn small() -> PaperWorkload {
        PaperWorkload {
            sites: 8,
            objects_per_site: 100,
            move_fraction: 0.1,
            trace_len: 4,
            grouped_movement: true,
            seed: 1,
            start: secs(1),
            step: secs(60),
        }
    }

    #[test]
    fn observation_budget_matches() {
        let w = small();
        let evs = w.generate();
        // 8 sites × 100 in inventory, then 8 × 10 movers × 4 steps.
        assert_eq!(observation_count(&evs), 8 * 100 + 8 * 10 * 4);
        // 8 inventory waves + 8 sites × 4 group steps.
        assert_eq!(evs.len(), 8 + 8 * 4);
    }

    #[test]
    fn individual_movement_spreads_events() {
        let mut w = small();
        w.grouped_movement = false;
        let evs = w.generate();
        assert_eq!(observation_count(&evs), 8 * 100 + 8 * 10 * 4);
        // One event per (mover, step) + inventory waves.
        assert_eq!(evs.len(), 8 + 8 * 10 * 4);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(small().generate(), small().generate());
        let mut other = small();
        other.seed = 2;
        assert_ne!(small().generate(), other.generate());
    }

    #[test]
    fn routes_never_repeat_consecutive_sites() {
        let w = PaperWorkload { sites: 3, trace_len: 20, ..small() };
        let evs = w.generate();
        // Reconstruct per-object routes from individual events and check
        // consecutive-distinct via the group route (home site precedes).
        for pair in evs.windows(2) {
            if pair[0].objects == pair[1].objects && pair[0].objects.len() > 1 {
                assert_ne!(pair[0].site, pair[1].site, "group route revisited a site");
            }
        }
    }

    #[test]
    fn zero_movers_yields_inventory_only() {
        let w = PaperWorkload { move_fraction: 0.0, ..small() };
        let evs = w.generate();
        assert_eq!(evs.len(), 8);
        assert_eq!(observation_count(&evs), 800);
    }

    #[test]
    #[should_panic(expected = "move_fraction")]
    fn invalid_fraction_rejected() {
        let w = PaperWorkload { move_fraction: 1.5, ..small() };
        let _ = w.generate();
    }
}
