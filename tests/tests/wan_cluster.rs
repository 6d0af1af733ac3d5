//! WAN federation over real sockets (DESIGN.md §17).
//!
//! The loopback-cluster counterpart of the simulator's region-cut
//! audits: a 6-node cluster started over `geo::Topology::wan3` (two
//! sites per region) runs a cross-region schedule, is then partitioned
//! into three isolated regions — every node holds its cross-region
//! protocol messages in their unacked suffix, writing none — keeps
//! answering queries about fully-propagated history exactly, and after
//! the heal writes what it held from each link's cursor, reconverges,
//! and is oracle-exact on
//! *everything*, movements made during the partition included, with
//! zero protocol anomalies on every node.
//!
//! The partition covers all three region pairs so that the mid-cut
//! movement is guaranteed to hold at least one message: the handoff's M2
//! (to the previous holder's region) and M3 (to the new holder's
//! region) cannot both be same-region with the serving gateway.

use daemon::LoopbackCluster;
use geo::Topology;
use moods::{MovementLog, ObjectId, SiteId};
use peertrack::config::GroupConfig;
use simnet::time::secs;
use simnet::SimTime;
use workload::CaptureEvent;

fn can_bind() -> bool {
    std::net::TcpListener::bind("127.0.0.1:0").is_ok()
}

macro_rules! require_sockets {
    () => {
        if !can_bind() {
            eprintln!("SKIP: sandbox forbids binding loopback sockets");
            return;
        }
    };
}

fn obj(n: u64) -> ObjectId {
    ObjectId::from_raw(&n.to_be_bytes())
}

/// Capture `o` at `site`/`t` in both the cluster schedule and the oracle.
fn hop(
    events: &mut Vec<CaptureEvent>,
    log: &mut MovementLog,
    o: ObjectId,
    site: u32,
    t: SimTime,
) {
    events.push(CaptureEvent { at: t, site: SiteId(site), objects: vec![o] });
    log.record(o, SiteId(site), t);
}

/// Every movement the oracle knows, re-asked at `origin` over sockets.
fn audit(cluster: &mut LoopbackCluster, log: &moods::MovementLog, origin: SiteId) {
    use moods::Trace;
    let objects: Vec<ObjectId> = log.objects().collect();
    for o in objects {
        let truth = log.trace(o, SimTime::ZERO, SimTime::INFINITY);
        let (path, _, complete) =
            cluster.trace(origin, o, SimTime::ZERO, SimTime::INFINITY).expect("cluster trace");
        assert!(complete, "trace of {o:?} flagged incomplete");
        assert_eq!(path, truth, "trace of {o:?} diverged from the oracle");
        for v in &truth {
            let (ans, _, complete) = cluster.locate(origin, o, v.arrived).expect("cluster locate");
            assert!(complete, "locate of {o:?} flagged incomplete");
            assert_eq!(ans, Some(v.site), "locate of {o:?} at {:?} wrong", v.arrived);
        }
    }
}

#[test]
fn partition_parks_frames_and_heals_to_oracle_exact() {
    require_sockets!();
    const SITES: usize = 6; // eu: 0,1  us: 2,3  ap: 4,5
    const SEED: u64 = 47;

    let topo = Topology::wan3(SITES);
    let mut cluster =
        LoopbackCluster::start_geo(SITES, SEED, GroupConfig::default(), 1, topo)
            .expect("geo cluster start");
    let mut log = MovementLog::new();

    // A cross-region supply chain per object, fully delivered pre-cut.
    let mut events: Vec<CaptureEvent> = Vec::new();
    for (n, path) in [
        (0u64, [0u32, 2, 4]), // eu -> us -> ap
        (1, [5, 3, 1]),       // ap -> us -> eu
        (2, [1, 0, 3]),       // eu -> eu -> us
    ] {
        let o = obj(n);
        for (i, s) in path.iter().enumerate() {
            hop(&mut events, &mut log, o, *s, secs(10 + n * 7 + i as u64 * 100));
        }
    }
    events.sort_by_key(|e| e.at);
    cluster.run_schedule(&events).expect("pre-cut schedule");
    audit(&mut cluster, &log, SiteId(0));

    // Partition the WAN into three islands.
    cluster.region_cut(0, 1).expect("cut eu-us");
    cluster.region_cut(0, 2).expect("cut eu-ap");
    cluster.region_cut(1, 2).expect("cut us-ap");

    // Fully-propagated history stays exact mid-cut from any region:
    // query RPCs are driver-plane (never held), and every index entry
    // they read was delivered before the cut.
    for origin in [0u32, 2, 4] {
        audit(&mut cluster, &log, SiteId(origin));
    }

    // A handoff *during* the partition: object 0 moves ap -> us. The
    // serving gateway cannot be in both the old and the new holder's
    // region, so at least one of the update messages is held at its
    // sender until the heal. The harness still quiesces — a held
    // message is not in flight.
    let mut more: Vec<CaptureEvent> = Vec::new();
    hop(&mut more, &mut log, obj(0), 2, secs(5_000));
    cluster.run_schedule(&more).expect("mid-cut schedule");

    // Heal every pair: held messages are written in sequence order and
    // the cluster drains to a converged state.
    cluster.region_heal(0, 1).expect("heal eu-us");
    cluster.region_heal(0, 2).expect("heal eu-ap");
    cluster.region_heal(1, 2).expect("heal us-ap");

    // Everything — the mid-cut movement included — is oracle-exact.
    for origin in [1u32, 3, 5] {
        audit(&mut cluster, &log, SiteId(origin));
    }

    // Clean protocol run on every node: nothing was dropped or
    // reordered by the partition, merely delayed.
    let reports = cluster.shutdown().expect("shutdown");
    assert_eq!(reports.len(), SITES);
    for r in &reports {
        assert_eq!(
            r.anomalies,
            peertrack::world::Anomalies::default(),
            "site {} protocol anomalies",
            r.site.0
        );
        assert_eq!(r.unsupported, 0, "site {} left the supported regime", r.site.0);
    }
}
