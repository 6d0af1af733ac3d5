//! Daemon mechanics over real loopback sockets: membership
//! convergence, identical ring replicas, a hand-driven movement with
//! explicit flushes, and query answers read back over the wire.
//!
//! The full simulator-oracle comparison lives in the workspace-level
//! `tests/tests/cluster_parity.rs`; this file checks the daemon layer
//! in isolation so failures point at the right layer.

use daemon::node::chord_id_for;
use daemon::proto::Frame;
use daemon::{LoopbackCluster, Node, NodeConfig};
use moods::SiteId;
use simnet::SimTime;
use transport::{dial, request, Backoff};
use workload::{epc_object, CaptureEvent};

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

fn us(t: u64) -> SimTime {
    SimTime::from_micros(t)
}

#[test]
fn three_nodes_converge_and_agree_on_the_ring() {
    require_sockets!();
    let seed = 7;
    let n0 = Node::spawn(NodeConfig::loopback(SiteId(0), seed, None)).expect("spawn 0");
    let n1 =
        Node::spawn(NodeConfig::loopback(SiteId(1), seed, Some(n0.addr()))).expect("spawn 1");
    let n2 =
        Node::spawn(NodeConfig::loopback(SiteId(2), seed, Some(n0.addr()))).expect("spawn 2");

    // Every node must converge to 3 members, including the bootstrap
    // (which learns of 1 and 2 only through their join requests) and
    // node 1 (which learns of 2 only through the PeerJoined broadcast).
    let nodes = [&n0, &n1, &n2];
    let mut ctl: Vec<_> =
        nodes.iter().map(|n| dial(n.addr(), &Backoff::default()).expect("dial")).collect();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let mut members = [0u32; 3];
        for (i, stream) in ctl.iter_mut().enumerate() {
            let raw = request(stream, &Frame::Status.encode()).expect("status");
            match Frame::decode(&raw).expect("status decode") {
                Frame::StatusResp { members: m, .. } => members[i] = m,
                other => panic!("unexpected status reply {other:?}"),
            }
        }
        if members == [3, 3, 3] {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "membership stuck at {members:?}");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Same derivation the simulator uses for ring identities.
    for (i, n) in nodes.iter().enumerate() {
        assert_eq!(chord_id_for(seed, n.site()), chord_id_for(seed, SiteId(i as u32)));
    }

    for (n, stream) in [n0, n1, n2].into_iter().zip(&mut ctl) {
        let raw = request(stream, &Frame::Shutdown.encode()).expect("shutdown rpc");
        assert!(matches!(Frame::decode(&raw), Ok(Frame::Ack)));
        let report = n.join();
        assert_eq!(report.unsupported, 0, "site {} hit an unsupported path", report.site.0);
    }
}

/// A join the bootstrap does not answer fails the spawn: a node that
/// served as a one-member ring would answer "not found" for objects its
/// cluster holds.
#[test]
fn join_through_a_peer_that_hangs_up_fails_the_spawn() {
    require_sockets!();
    let bootstrap = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = bootstrap.local_addr().expect("addr");
    let hangup = std::thread::spawn(move || drop(bootstrap.accept().expect("accept")));
    let started = std::time::Instant::now();
    let spawned = Node::spawn(NodeConfig::loopback(SiteId(1), 7, Some(addr)));
    assert!(spawned.is_err(), "a node started on an unanswered join");
    assert!(started.elapsed() < std::time::Duration::from_secs(2), "the failure is prompt");
    hangup.join().unwrap();
}

/// A join answered with a membership that leaves the joiner out — here
/// none at all — fails the spawn too: the node would serve as a
/// one-member ring that nobody else routes to.
#[test]
fn join_answered_without_the_joiner_fails_the_spawn() {
    require_sockets!();
    let bootstrap = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = bootstrap.local_addr().expect("addr");
    let refuse = std::thread::spawn(move || {
        let (mut stream, _) = bootstrap.accept().expect("accept");
        let req = transport::read_frame(&mut stream).expect("read").expect("a join request");
        assert!(matches!(Frame::decode(&req), Ok(Frame::JoinReq { .. })));
        let reply = Frame::JoinResp { peers: Vec::new() }.encode();
        transport::write_frame(&mut stream, &reply).expect("reply");
    });
    let spawned = Node::spawn(NodeConfig::loopback(SiteId(1), 7, Some(addr)));
    assert!(spawned.is_err(), "a node started on a join that left it out");
    refuse.join().unwrap();
}

#[test]
fn movement_is_queryable_over_the_wire() {
    require_sockets!();
    let mut cluster = LoopbackCluster::start(3, 11).expect("cluster");
    let o = epc_object(0, 1);

    // o: site 0 @1s → site 1 @2s → site 2 @3s, windows closed by Tmax
    // (500ms after each capture opens a window).
    let events = vec![
        CaptureEvent { at: us(1_000_000), site: SiteId(0), objects: vec![o] },
        CaptureEvent { at: us(2_000_000), site: SiteId(1), objects: vec![o] },
        CaptureEvent { at: us(3_000_000), site: SiteId(2), objects: vec![o] },
    ];
    cluster.run_schedule(&events).expect("schedule");

    // Locate at every instant of interest, from every origin.
    for origin in 0..3 {
        let origin = SiteId(origin);
        let probes = [
            (us(500_000), None),
            (us(1_000_000), Some(SiteId(0))),
            (us(1_999_999), Some(SiteId(0))),
            (us(2_500_000), Some(SiteId(1))),
            (us(9_000_000), Some(SiteId(2))),
        ];
        for (t, want) in probes {
            let (got, _cost, complete) = cluster.locate(origin, o, t).expect("locate");
            assert!(complete, "locate incomplete at {t:?}");
            assert_eq!(got, want, "locate({t:?}) from {origin}");
        }

        let (path, _cost, complete) =
            cluster.trace(origin, o, us(0), us(10_000_000)).expect("trace");
        assert!(complete);
        let sites: Vec<u32> = path.iter().map(|v| v.site.0).collect();
        assert_eq!(sites, vec![0, 1, 2], "full trace from {origin}");
        assert_eq!(path[0].departed, Some(us(2_000_000)));
        assert_eq!(path[2].departed, None);
    }

    let reports = cluster.shutdown().expect("shutdown");
    for r in &reports {
        assert_eq!(r.anomalies, Default::default(), "site {}", r.site.0);
        assert_eq!(r.unsupported, 0, "site {}", r.site.0);
    }
    // The movement demands real traffic: three GroupIndex messages (one
    // per window), their M3 self/remote updates, and two M2 back-links.
    let group_total: u64 = reports
        .iter()
        .map(|r| r.metrics.messages_of(simnet::metrics::MsgClass::GroupIndex))
        .sum();
    assert!(group_total >= 1, "no GroupIndex traffic crossed the wire");
}

#[test]
fn count_triggered_flush_needs_no_timer() {
    require_sockets!();
    let mut group = peertrack::config::GroupConfig::default();
    group.n_max = 2; // second capture in a window flushes by count
    let mut cluster = LoopbackCluster::start_with(3, 13, group).expect("cluster");
    let a = epc_object(0, 1);
    let b = epc_object(0, 2);

    let events = vec![
        CaptureEvent { at: us(1_000_000), site: SiteId(0), objects: vec![a, b] },
        CaptureEvent { at: us(2_000_000), site: SiteId(1), objects: vec![a, b] },
    ];
    cluster.run_schedule(&events).expect("schedule");

    let (got, _, complete) = cluster.locate(SiteId(2), a, us(1_500_000)).expect("locate");
    assert!(complete);
    assert_eq!(got, Some(SiteId(0)));
    let (got, _, complete) = cluster.locate(SiteId(2), b, us(9_000_000)).expect("locate");
    assert!(complete);
    assert_eq!(got, Some(SiteId(1)));

    for r in cluster.shutdown().expect("shutdown") {
        assert_eq!(r.anomalies, Default::default());
        assert_eq!(r.unsupported, 0);
    }
}
