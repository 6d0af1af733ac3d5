//! Shared helpers for the workspace integration tests.

#![forbid(unsafe_code)]

pub mod audit;

use moods::{MovementLog, ObjectId, Path, SiteId};
use peertrack::store::{IopRecord, Link};
use peertrack::TraceableNetwork;
use simnet::SimTime;

/// A triple of tracking backends fed the same workload: the distributed
/// system under test, the centralized baseline, and the semantic oracle.
pub struct Tripled {
    /// The P2P system.
    pub net: TraceableNetwork,
    /// The centralized warehouse baseline.
    pub warehouse: centralized::Warehouse,
    /// The ground-truth oracle.
    pub oracle: MovementLog,
}

/// Feed the same capture events into all three backends and drain the
/// P2P indexing traffic.
pub fn triple_from_events(
    mut net: TraceableNetwork,
    events: &[workload::CaptureEvent],
) -> Tripled {
    let mut warehouse = centralized::Warehouse::new();
    let mut oracle = MovementLog::new();
    let mut sorted: Vec<&workload::CaptureEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.at);
    for ev in sorted {
        net.schedule_capture(ev.at, ev.site, ev.objects.clone());
        for &o in &ev.objects {
            warehouse.ingest(o, ev.site, ev.at);
            oracle.record(o, ev.site, ev.at);
        }
    }
    net.run_until_quiescent();
    Tripled { net, warehouse, oracle }
}

/// Assert all three backends agree on `L(o, t)` and lifetime `TR`.
pub fn assert_agreement(t: &mut Tripled, object: ObjectId, probes: &[SimTime], from: SiteId) {
    use moods::{Locate, Trace};
    for &probe in probes {
        let p2p = t.net.locate(from, object, probe).0;
        let central = t.warehouse.locate(object, probe);
        let truth = t.oracle.locate(object, probe);
        assert_eq!(p2p, truth, "P2P disagrees with oracle at {probe}");
        assert_eq!(central, truth, "warehouse disagrees with oracle at {probe}");
    }
    let p2p = t.net.trace(from, object, SimTime::ZERO, SimTime::INFINITY).0;
    let truth = t.oracle.trace(object, SimTime::ZERO, SimTime::INFINITY);
    assert_eq!(p2p, truth, "P2P trace disagrees with oracle");
}

/// Walk `o`'s IOP chain back from the gateway's latest link along the
/// records' `from` links — structurally, below the query layer —
/// reading each record through `record` (an `Err` says why it cannot be
/// read). Returns every way the chain differs from the oracle path
/// `truth`: an unreadable record, a `to` link that is not the visit the
/// walk came from, or walked visits that are not the oracle's, in order.
pub fn chain_violations(
    o: ObjectId,
    latest: Link,
    truth: &Path,
    mut record: impl FnMut(Link) -> Result<IopRecord, String>,
) -> Vec<String> {
    let mut v = Vec::new();
    let (mut cur, mut next, mut walked) = (latest, None, Vec::new());
    loop {
        let rec = match record(cur) {
            Ok(rec) => rec,
            Err(why) => {
                v.push(why);
                return v;
            }
        };
        if rec.to != next {
            v.push(format!(
                "iop: {o:?} back-link at ({}, {}) is {:?}, expected {next:?}",
                cur.site, cur.time, rec.to
            ));
        }
        walked.push(cur);
        if walked.len() > truth.len() {
            v.push(format!("iop: chain of {o:?} longer than the oracle path (cycle?)"));
            return v;
        }
        match rec.from {
            None => break,
            Some(f) => (next, cur) = (Some(cur), f),
        }
    }
    walked.reverse();
    if !walked.iter().map(|l| (l.site, l.time)).eq(truth.iter().map(|t| (t.site, t.arrived))) {
        v.push(format!(
            "iop: chain of {o:?} visits {:?}, the oracle path {:?}",
            walked.iter().map(|l| (l.site.0, l.time)).collect::<Vec<_>>(),
            truth.iter().map(|t| (t.site.0, t.arrived)).collect::<Vec<_>>()
        ));
    }
    v
}
