//! The real-network daemon versus the simulator oracle.
//!
//! One workload, three executions: the deterministic simulator
//! (`peertrack::TraceableNetwork`), a loopback socket cluster
//! (`daemon::LoopbackCluster`), and the ground-truth `MovementLog` —
//! once on a fixed membership, once with a node joining mid-schedule.
//! Every locate/trace answer must agree across all three, every query's
//! modelled cost must match message-for-message, and the cluster's
//! merged per-class traffic accounting must equal the simulator's
//! global tally exactly — same messages, same model bytes, same overlay
//! hops. That is the claim that makes the socket path a *port* of the
//! protocol rather than a reimplementation drifting beside it.

use daemon::LoopbackCluster;
use integration_tests::triple_from_events;
use moods::{Locate, MovementLog, SiteId, Trace};
use peertrack::{Builder, TraceableNetwork};
use simnet::metrics::{Metrics, MsgClass, ALL_CLASSES};
use simnet::time::secs;
use simnet::SimTime;
use workload::paper::PaperWorkload;
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

#[test]
fn five_node_cluster_matches_simulator_and_oracle() {
    require_sockets!();
    const SITES: usize = 5;
    const VOL: usize = 12;
    const SEED: u64 = 21;

    let events = PaperWorkload {
        sites: SITES,
        objects_per_site: VOL,
        grouped_movement: true,
        seed: SEED,
        ..PaperWorkload::default()
    }
    .generate();

    // Simulator + ground truth.
    let net = Builder::new().sites(SITES).seed(SEED).build();
    let mut t = triple_from_events(net, &events);

    // The same schedule over real sockets.
    let mut cluster = LoopbackCluster::start(SITES, SEED).expect("cluster start");
    cluster.run_schedule(&events).expect("cluster schedule");

    // Identical query sequence against both (queries are themselves
    // charged traffic, so the sequences must match for metric parity).
    let probes: Vec<SimTime> = (0..8).map(|i| secs(i * 700)).collect();
    for site in 0..SITES as u32 {
        for serial in 0..VOL as u64 {
            let o = workload::epc_object(site, serial);
            let origin = SiteId((site + 2) % SITES as u32);

            for &probe in &probes {
                let truth = t.oracle.locate(o, probe);
                let (sim_ans, sim_stats) = t.net.locate(origin, o, probe);
                let (net_ans, net_cost, complete) =
                    cluster.locate(origin, o, probe).expect("cluster locate");
                assert!(complete, "cluster locate incomplete for {o:?} at {probe}");
                assert_eq!(sim_ans, truth, "simulator vs oracle at {probe}");
                assert_eq!(net_ans, truth, "cluster vs oracle at {probe}");
                assert_eq!(
                    (net_cost.messages, net_cost.hops, net_cost.bytes),
                    (sim_stats.messages, sim_stats.hops, sim_stats.bytes),
                    "locate cost diverged for {o:?} at {probe}"
                );
            }

            let truth = t.oracle.trace(o, SimTime::ZERO, SimTime::INFINITY);
            let (sim_path, sim_stats) = t.net.trace(origin, o, SimTime::ZERO, SimTime::INFINITY);
            let (net_path, net_cost, complete) = cluster
                .trace(origin, o, SimTime::ZERO, SimTime::INFINITY)
                .expect("cluster trace");
            assert!(complete, "cluster trace incomplete for {o:?}");
            assert_eq!(sim_path, truth, "simulator trace vs oracle for {o:?}");
            assert_eq!(net_path, truth, "cluster trace vs oracle for {o:?}");
            assert_eq!(
                (net_cost.messages, net_cost.hops, net_cost.bytes),
                (sim_stats.messages, sim_stats.hops, sim_stats.bytes),
                "trace cost diverged for {o:?}"
            );
        }
    }

    // Clean protocol run on both sides.
    assert_eq!(t.net.anomalies(), peertrack::world::Anomalies::default());
    let reports = cluster.shutdown().expect("cluster shutdown");
    let mut merged = Metrics::new();
    for r in &reports {
        assert_eq!(
            r.anomalies,
            peertrack::world::Anomalies::default(),
            "site {} protocol anomalies",
            r.site.0
        );
        assert_eq!(r.unsupported, 0, "site {} left the supported regime", r.site.0);
        merged.merge(&r.metrics);
    }

    // The headline: per-class accounting equality, class by class.
    let sim = t.net.metrics();
    for class in ALL_CLASSES {
        assert_eq!(
            merged.messages_of(class),
            sim.messages_of(class),
            "{class:?} message count diverged"
        );
        assert_eq!(
            merged.bytes_of(class),
            sim.bytes_of(class),
            "{class:?} model-byte count diverged"
        );
        assert_eq!(merged.hops_of(class), sim.hops_of(class), "{class:?} hop count diverged");
    }
    // And the run must have produced real traffic to compare.
    assert!(sim.total_messages() > 0, "workload produced no traffic");
}

fn simulate(net: &mut TraceableNetwork, events: &[CaptureEvent]) {
    for e in events {
        net.schedule_capture(e.at, e.site, e.objects.clone());
    }
    net.run_until_quiescent();
}

/// A seventh organization joins a six-node cluster that already holds
/// half the §V workload, crossing `Lp` 4 → 5: its successor hands it
/// the key ranges it now owns and every node splits its shards, as the
/// simulator's `join_site` does. Afterwards every locate and trace from
/// every origin — the newcomer included — is oracle-exact, complete and
/// costs what the simulator's does, and the merged tallies equal the
/// simulator's except for its overlay join traffic.
#[test]
fn a_node_joins_a_cluster_that_holds_data() {
    require_sockets!();
    const SITES: usize = 6;
    const VOL: usize = 12;
    const SEED: u64 = 21;

    let mut events = PaperWorkload {
        sites: SITES,
        objects_per_site: VOL,
        grouped_movement: true,
        seed: SEED,
        ..PaperWorkload::default()
    }
    .generate();
    events.sort_by_key(|e| e.at);
    let mut oracle = MovementLog::new();
    for e in &events {
        for &o in &e.objects {
            oracle.record(o, e.site, e.at);
        }
    }
    let cut = SimTime::from_micros(events.last().expect("events").at.as_micros() / 2);
    let (before, after): (Vec<CaptureEvent>, Vec<CaptureEvent>) =
        events.into_iter().partition(|e| e.at <= cut);

    // `join_site` drains whatever is scheduled, so both hosts run the
    // schedule in two halves around the join.
    let mut net = Builder::new().sites(SITES).seed(SEED).build();
    let mut cluster = LoopbackCluster::start(SITES, SEED).expect("cluster start");
    simulate(&mut net, &before);
    cluster.run_schedule(&before).expect("first half");
    let lp = net.current_lp();
    let newcomer = net.join_site();
    assert_eq!(cluster.join().expect("cluster join"), newcomer);
    assert!(net.current_lp() > lp, "the join must grow Lp");
    simulate(&mut net, &after);
    cluster.run_schedule(&after).expect("second half");

    let probes: Vec<SimTime> = (0..4).map(|i| secs(i * 1_400)).collect();
    for origin in (0..=SITES as u32).map(SiteId) {
        for site in 0..SITES as u32 {
            for serial in 0..VOL as u64 {
                let o = workload::epc_object(site, serial);
                for &probe in &probes {
                    let truth = oracle.locate(o, probe);
                    let (sim_ans, sim_stats) = net.locate(origin, o, probe);
                    let (net_ans, net_cost, complete) =
                        cluster.locate(origin, o, probe).expect("cluster locate");
                    assert_eq!(sim_ans, truth, "simulator vs oracle from {origin} at {probe}");
                    assert_eq!(net_ans, truth, "cluster vs oracle from {origin} at {probe}");
                    assert!(complete, "cluster locate incomplete from {origin}");
                    assert_eq!(
                        (net_cost.messages, net_cost.hops, net_cost.bytes),
                        (sim_stats.messages, sim_stats.hops, sim_stats.bytes),
                        "locate cost diverged for {o:?} from {origin} at {probe}"
                    );
                }
                let truth = oracle.trace(o, SimTime::ZERO, SimTime::INFINITY);
                let (sim_path, sim_stats) = net.trace(origin, o, SimTime::ZERO, SimTime::INFINITY);
                let (net_path, net_cost, complete) = cluster
                    .trace(origin, o, SimTime::ZERO, SimTime::INFINITY)
                    .expect("cluster trace");
                assert_eq!(sim_path, truth, "simulator trace vs oracle from {origin}");
                assert_eq!(net_path, truth, "cluster trace vs oracle from {origin}");
                assert!(complete, "cluster trace incomplete from {origin}");
                assert_eq!(
                    (net_cost.messages, net_cost.hops, net_cost.bytes),
                    (sim_stats.messages, sim_stats.hops, sim_stats.bytes),
                    "trace cost diverged for {o:?} from {origin}"
                );
            }
        }
    }

    assert_eq!(net.anomalies(), peertrack::world::Anomalies::default());
    let mut merged = Metrics::new();
    for r in cluster.shutdown().expect("cluster shutdown") {
        assert_eq!(r.anomalies, peertrack::world::Anomalies::default(), "site {}", r.site.0);
        assert_eq!(r.unsupported, 0, "site {} left the supported regime", r.site.0);
        merged.merge(&r.metrics);
    }
    let sim = net.metrics();
    assert!(sim.messages_of(MsgClass::SplitMerge) > 0, "no shard moved");
    for class in ALL_CLASSES.into_iter().filter(|&c| c != MsgClass::Overlay) {
        assert_eq!(merged.messages_of(class), sim.messages_of(class), "{class:?} messages");
        assert_eq!(merged.bytes_of(class), sim.bytes_of(class), "{class:?} model bytes");
        assert_eq!(merged.hops_of(class), sim.hops_of(class), "{class:?} hops");
    }
}
