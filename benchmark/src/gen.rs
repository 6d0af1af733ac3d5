//! Seed-driven input generators. The program under test only ever sees
//! the generated inputs; the same `--seed` yields the same inputs.

use detrand::rngs::StdRng;
use detrand::{Rng, SeedableRng};
use moods::{MovementLog, ObjectId, SiteId};
use simnet::time::secs;
use simnet::SimTime;
use workload::{epc_object, CaptureEvent};

/// Object `i` of `home`. Deliberately *not* seeded: on a 3-node ring
/// with `Lp = 3` an object's gateway is decided by the first three bits
/// of its hashed id, so seeded ids would move the hot objects of a
/// skewed workload between "local" and "two RPCs away" from seed to
/// seed, and the benchmark would measure the draw, not the program.
/// The seed decides what happens *to* the objects: routes, instants,
/// and which of them is asked about when.
pub fn object(home: u32, i: u64) -> ObjectId {
    epc_object(home, i)
}

/// An independent RNG stream per `(seed, purpose)`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `len` sites out of `sites`, none equal to its predecessor (objects
/// do not "move" to where they already are), starting away from `home`.
pub fn route(rng: &mut StdRng, sites: u32, home: u32, len: usize) -> Vec<SiteId> {
    let mut prev = home;
    (0..len)
        .map(|_| {
            let mut next = rng.gen_range(0..sites);
            while sites > 1 && next == prev {
                next = rng.gen_range(0..sites);
            }
            prev = next;
            SiteId(next)
        })
        .collect()
}

/// A §V `PaperWorkload`-style movement history with its oracle.
pub struct Movement {
    /// Capture events, in capture order.
    pub events: Vec<CaptureEvent>,
    /// Ground truth for every query.
    pub log: MovementLog,
    /// All objects, sorted, for index-based sampling.
    pub objects: Vec<ObjectId>,
    /// Latest capture instant.
    pub end: SimTime,
}

/// Pallets each site's movers are split into. The paper moves one
/// pallet per site; on three sites that is three routes in all, and how
/// long the backward walks are would depend on three draws. Twenty
/// pallets per site average that out.
const PALLETS_PER_SITE: usize = 20;

/// The paper's §V set-up on `sites` sites: every site captures
/// `per_site` local objects (inventory wave), then 10 % of them travel
/// in pallets along `trace_len`-step routes, one step every ten virtual
/// minutes. Mirrors `workload::paper::PaperWorkload` with
/// `grouped_movement`, with [`PALLETS_PER_SITE`] pallets per site.
pub fn paper_movement(seed: u64, sites: u32, per_site: usize, trace_len: usize) -> Movement {
    const MOVE_FRACTION: f64 = 0.10;
    let mut rng = rng(seed, 1);
    let (start, step) = (secs(10), secs(600));
    let mut events = Vec::new();
    for s in 0..sites {
        let at = start + SimTime::from_millis(rng.gen_range(0..5_000));
        let objects = (0..per_site).map(|i| object(s, i as u64)).collect();
        events.push(CaptureEvent {
            at,
            site: SiteId(s),
            objects,
        });
    }
    let movers = (per_site as f64 * MOVE_FRACTION).round() as usize;
    let all_movers: Vec<u64> = (0..movers as u64).collect();
    for s in 0..sites {
        for pallet in all_movers.chunks(movers.div_ceil(PALLETS_PER_SITE).max(1)) {
            let pallet: Vec<ObjectId> = pallet.iter().map(|&i| object(s, i)).collect();
            for (k, dest) in route(&mut rng, sites, s, trace_len).into_iter().enumerate() {
                let at = start
                    + SimTime(step.0 * (k as u64 + 1))
                    + SimTime::from_millis(rng.gen_range(0..1_000));
                events.push(CaptureEvent {
                    at,
                    site: dest,
                    objects: pallet.clone(),
                });
            }
        }
    }
    finish(events)
}

/// Sort events, build the oracle and the object list.
fn finish(mut events: Vec<CaptureEvent>) -> Movement {
    events.sort_by_key(|e| e.at);
    let mut log = MovementLog::new();
    for e in &events {
        for &o in &e.objects {
            log.record(o, e.site, e.at);
        }
    }
    let mut objects: Vec<ObjectId> = log.objects().collect();
    objects.sort_unstable();
    let end = events.last().map_or(SimTime::ZERO, |e| e.at);
    Movement {
        events,
        log,
        objects,
        end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moods::Locate;

    #[test]
    fn same_seed_same_inputs_other_seed_other_movement() {
        let a = paper_movement(7, 3, 200, 6);
        let b = paper_movement(7, 3, 200, 6);
        let c = paper_movement(8, 3, 200, 6);
        assert_eq!(a.events, b.events);
        assert_ne!(a.events, c.events);
        assert_eq!(
            a.objects, c.objects,
            "object placement is part of the fixture"
        );
        assert_eq!(a.objects.len(), 600);
        // 3 inventory waves + 3 sites × 20 one-object pallets × 6 steps.
        assert_eq!(a.events.len(), 3 + 3 * 20 * 6);
        assert_eq!(a.log.arrival_count(), 600 + 3 * 20 * 6);
    }

    #[test]
    fn oracle_follows_the_last_capture() {
        let m = paper_movement(3, 3, 50, 4);
        let mover = object(1, 0);
        let last = m
            .events
            .iter()
            .rev()
            .find(|e| e.objects.contains(&mover))
            .unwrap();
        assert_eq!(m.log.locate(mover, m.end), Some(last.site));
        assert_eq!(m.log.locate(object(2, 49), m.end), Some(SiteId(2)));
    }

    #[test]
    fn routes_never_stand_still() {
        let mut r = rng(1, 2);
        for home in 0..3 {
            let route = route(&mut r, 3, home, 50);
            assert_ne!(route[0], SiteId(home));
            assert!(route.windows(2).all(|w| w[0] != w[1]));
        }
    }
}
