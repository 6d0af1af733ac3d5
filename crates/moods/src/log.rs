//! The ground-truth movement oracle.
//!
//! [`MovementLog`] records every arrival centrally and answers `L`/`TR`
//! directly from the full history. It is the executable semantics of
//! §II-B against which the distributed implementations are verified: if
//! PeerTrack's IOP reconstruction and the oracle ever disagree, the
//! distributed index is wrong (tests enforce exact agreement).

use crate::model::{Locate, ObjectId, Path, SiteId, Trace, Visit};
use simnet::SimTime;
use std::collections::HashMap;

/// Append-only movement history, per object, sorted by time.
#[derive(Clone, Default, Debug)]
pub struct MovementLog {
    arrivals: HashMap<ObjectId, Vec<(SimTime, SiteId)>>,
}

impl MovementLog {
    /// Empty log.
    pub fn new() -> MovementLog {
        MovementLog::default()
    }

    /// Record that `object` arrived at `site` at `time`.
    ///
    /// # Panics
    /// If `time` precedes the object's latest recorded arrival — the
    /// physical object flow is totally ordered per object (§II-A), so an
    /// out-of-order append is a harness bug, not data noise.
    pub fn record(&mut self, object: ObjectId, site: SiteId, time: SimTime) {
        let v = self.arrivals.entry(object).or_default();
        if let Some(&(last, _)) = v.last() {
            assert!(time >= last, "out-of-order arrival for {object:?}: {time:?} < {last:?}");
        }
        v.push((time, site));
    }

    /// Total number of recorded arrivals.
    pub fn arrival_count(&self) -> usize {
        self.arrivals.values().map(Vec::len).sum()
    }

    /// All objects seen, in unspecified order.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.arrivals.keys().copied()
    }

    /// The full visit history of `object` (arrival-ordered), with each
    /// departure set to the next arrival.
    pub fn visits(&self, object: ObjectId) -> Path {
        let Some(arr) = self.arrivals.get(&object) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(arr.len());
        for (i, &(t, site)) in arr.iter().enumerate() {
            out.push(Visit {
                site,
                arrived: t,
                departed: arr.get(i + 1).map(|&(t2, _)| t2),
            });
        }
        out
    }

    /// The site of the object's latest arrival (its current location).
    pub fn last_site(&self, object: ObjectId) -> Option<SiteId> {
        self.arrivals.get(&object).and_then(|v| v.last()).map(|&(_, s)| s)
    }
}

impl Locate for MovementLog {
    fn locate(&self, object: ObjectId, t: SimTime) -> Option<SiteId> {
        let arr = self.arrivals.get(&object)?;
        // Latest arrival ≤ t. Arrivals are sorted; binary search.
        let idx = arr.partition_point(|&(at, _)| at <= t);
        if idx == 0 {
            None
        } else {
            Some(arr[idx - 1].1)
        }
    }
}

impl Trace for MovementLog {
    fn trace(&self, object: ObjectId, t_start: SimTime, t_end: SimTime) -> Path {
        if t_start > t_end {
            return Vec::new();
        }
        self.visits(object)
            .into_iter()
            .filter(|v| v.overlaps(t_start, t_end))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids::Id;
    use proptiny::prelude::*;
    use simnet::time::ms;

    fn obj(n: u64) -> ObjectId {
        ObjectId(Id::hash(&n.to_be_bytes()))
    }

    fn sample_log() -> MovementLog {
        let mut log = MovementLog::new();
        log.record(obj(1), SiteId(0), ms(10));
        log.record(obj(1), SiteId(1), ms(20));
        log.record(obj(1), SiteId(2), ms(30));
        log.record(obj(2), SiteId(5), ms(15));
        log
    }

    #[test]
    fn locate_before_first_arrival_is_nowhere() {
        let log = sample_log();
        assert_eq!(log.locate(obj(1), ms(9)), None);
        assert_eq!(log.locate(obj(1), ms(10)), Some(SiteId(0)));
    }

    #[test]
    fn locate_between_and_after() {
        let log = sample_log();
        assert_eq!(log.locate(obj(1), ms(25)), Some(SiteId(1)));
        assert_eq!(log.locate(obj(1), ms(30)), Some(SiteId(2)));
        assert_eq!(log.locate(obj(1), ms(1_000_000)), Some(SiteId(2)));
    }

    #[test]
    fn locate_unknown_object_is_nil() {
        assert_eq!(sample_log().locate(obj(42), ms(100)), None);
    }

    #[test]
    fn trace_full_lifetime() {
        let log = sample_log();
        let p = log.trace(obj(1), SimTime::ZERO, SimTime::INFINITY);
        assert_eq!(
            p.iter().map(|v| v.site).collect::<Vec<_>>(),
            vec![SiteId(0), SiteId(1), SiteId(2)]
        );
        assert_eq!(p[0].departed, Some(ms(20)));
        assert_eq!(p[2].departed, None);
    }

    #[test]
    fn trace_window_clips() {
        let log = sample_log();
        let p = log.trace(obj(1), ms(20), ms(29));
        assert_eq!(p.iter().map(|v| v.site).collect::<Vec<_>>(), vec![SiteId(1)]);
        // Visit at SiteId(0) ended exactly at 20 (half-open) — excluded.
    }

    #[test]
    fn trace_inverted_window_is_empty() {
        assert!(sample_log().trace(obj(1), ms(30), ms(10)).is_empty());
    }

    #[test]
    fn duplicate_site_arrivals_allowed() {
        // An object can be re-captured at the same site (cycle in path).
        let mut log = MovementLog::new();
        log.record(obj(1), SiteId(0), ms(1));
        log.record(obj(1), SiteId(1), ms(2));
        log.record(obj(1), SiteId(0), ms(3));
        let p = log.trace(obj(1), SimTime::ZERO, SimTime::INFINITY);
        assert_eq!(
            p.iter().map(|v| v.site).collect::<Vec<_>>(),
            vec![SiteId(0), SiteId(1), SiteId(0)]
        );
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_record_panics() {
        let mut log = MovementLog::new();
        log.record(obj(1), SiteId(0), ms(10));
        log.record(obj(1), SiteId(1), ms(5));
    }

    proptiny! {
        /// locate(o, t) equals the site of the last visit whose interval
        /// contains t, for arbitrary movement schedules.
        #[test]
        fn prop_locate_consistent_with_trace(
            arrivals in prop::collection::vec((0u64..1000, 0u32..16), 1..40)
        ) {
            let mut times: Vec<u64> = arrivals.iter().map(|&(t, _)| t).collect();
            times.sort_unstable();
            let mut log = MovementLog::new();
            for (t, (_, site)) in times.iter().zip(arrivals.iter()) {
                log.record(obj(7), SiteId(*site), ms(*t));
            }
            // Probe a spread of times.
            for probe in 0..1001u64 {
                if probe % 97 != 0 { continue; }
                let loc = log.locate(obj(7), ms(probe));
                let visits = log.visits(obj(7));
                let expect = visits.iter().rfind(|v| v.arrived <= ms(probe))
                    .map(|v| v.site);
                prop_assert_eq!(loc, expect);
            }
        }

        /// A trace over the full lifetime reports exactly the recorded
        /// arrival sequence.
        #[test]
        fn prop_full_trace_is_history(
            sites in prop::collection::vec(0u32..8, 1..30)
        ) {
            let mut log = MovementLog::new();
            for (i, s) in sites.iter().enumerate() {
                log.record(obj(1), SiteId(*s), ms(i as u64 + 1));
            }
            let got: Vec<u32> = log
                .trace(obj(1), SimTime::ZERO, SimTime::INFINITY)
                .iter().map(|v| v.site.0).collect();
            prop_assert_eq!(got, sites);
        }
    }
}
