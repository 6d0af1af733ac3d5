//! Kill-forever failover over real sockets.
//!
//! The loopback-cluster counterpart of `replication.rs`: an 8-node
//! cluster started with `--replicas 3` semantics
//! (`LoopbackCluster::start_replicated`) runs a schedule that threads
//! objects through two victim sites, then loses both *permanently* —
//! process joined, data gone, `PeerDead` broadcast, no restart. Every
//! locate and trace asked at a survivor must still match the
//! `MovementLog` ground truth exactly and report `complete`, writes
//! aimed at the dead sites must redirect to their replica holders, and
//! the whole run — kills included — must finish with zero protocol
//! anomalies on every node that ever lived.

use daemon::{LoopbackCluster, Node, NodeConfig};
use moods::{MovementLog, ObjectId, SiteId, Trace};
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
fn audit(cluster: &mut LoopbackCluster, log: &MovementLog, origin: SiteId) {
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
fn cluster_survives_two_permanent_losses_with_k3() {
    require_sockets!();
    const SITES: usize = 8;
    const SEED: u64 = 41;
    const VICTIM_A: usize = 3;
    const VICTIM_B: usize = 6;

    let mut cluster =
        LoopbackCluster::start_replicated(SITES, SEED, GroupConfig::default(), 3)
            .expect("replicated cluster start");
    let mut log = MovementLog::new();

    // Thread every object through both victims so post-kill answers
    // depend on replica copies: records *at* the victims and links
    // *through* them.
    let mut events: Vec<CaptureEvent> = Vec::new();
    for (n, path) in [
        (0u64, [1u32, 3, 6, 2]),
        (1, [3, 6, 3, 5]),
        (2, [6, 0, 3, 7]),
        (3, [4, 3, 6, 1]),
    ] {
        let o = obj(n);
        for (i, s) in path.iter().enumerate() {
            hop(&mut events, &mut log, o, *s, secs(10 + n * 7 + i as u64 * 100));
        }
    }
    events.sort_by_key(|e| e.at);
    cluster.run_schedule(&events).expect("schedule");

    // First permanent loss.
    let report = cluster.kill_forever(VICTIM_A).expect("kill A");
    assert_eq!(report.anomalies, peertrack::world::Anomalies::default());
    assert_eq!(report.unsupported, 0);
    audit(&mut cluster, &log, SiteId(0));

    // A write whose M2 targets the dead repository: the object moves on
    // from its last pre-kill site, so the gateway must patch the dead
    // site's replica copies instead of dropping the link.
    let mut more: Vec<CaptureEvent> = Vec::new();
    hop(&mut more, &mut log, obj(1), 7, secs(5_000));
    cluster.run_schedule(&more).expect("post-kill schedule");
    audit(&mut cluster, &log, SiteId(4));

    // Second permanent loss — K = 3 tolerates exactly this much.
    let report = cluster.kill_forever(VICTIM_B).expect("kill B");
    assert_eq!(report.anomalies, peertrack::world::Anomalies::default());
    assert_eq!(report.unsupported, 0);
    audit(&mut cluster, &log, SiteId(1));

    // Clean protocol run on every survivor.
    let reports = cluster.shutdown().expect("shutdown");
    assert_eq!(reports.len(), SITES - 2);
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

/// A permanently dead site never rejoins: the survivor it asks answers
/// with a membership that leaves it out, and the spawn fails instead of
/// serving from a ring that nobody else routes to.
#[test]
fn a_killed_site_cannot_join_again() {
    require_sockets!();
    const SEED: u64 = 41;
    const VICTIM: usize = 2;
    let mut cluster = LoopbackCluster::start_replicated(4, SEED, GroupConfig::default(), 3)
        .expect("replicated cluster start");
    cluster.kill_forever(VICTIM).expect("kill");
    let mut cfg = NodeConfig::loopback(SiteId(VICTIM as u32), SEED, Some(cluster.addr(0)));
    cfg.replicas = 3;
    assert!(Node::spawn(cfg).is_err(), "a killed site joined again");
    cluster.shutdown().expect("shutdown");
}
