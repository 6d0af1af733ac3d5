//! Failure injection: churn storms, gateway loss, repository loss, and
//! overlay degradation — the system must degrade *detectably* (flags,
//! anomaly counters), never silently return wrong answers.

use moods::{MovementLog, ObjectId, SiteId, Trace};
use peertrack::{Builder, GroupConfig, IndexingMode};
use detrand::{rngs::StdRng, Rng, SeedableRng};
use simnet::time::{ms, secs};
use simnet::SimTime;

fn obj(n: u64) -> ObjectId {
    ObjectId::from_raw(&n.to_be_bytes())
}

fn group_mode() -> IndexingMode {
    IndexingMode::Group(GroupConfig { n_max: 256, t_max: ms(200), ..GroupConfig::default() })
}

#[test]
fn churn_storm_preserves_all_index_entries() {
    // Interleave captures with joins and leaves; every object must stay
    // locatable at its true location throughout.
    const FOUNDERS: u32 = 16;
    let mut net = Builder::new().sites(FOUNDERS as usize).seed(1).mode(group_mode()).build();
    let mut truth: Vec<(ObjectId, SiteId)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(2);
    let mut next_obj = 0u64;
    let mut leavable: Vec<u32> = Vec::new(); // joined sites we may remove

    for round in 0..12 {
        // Capture a few objects at founding sites (which never leave).
        let t = secs(100 + round * 50);
        for _ in 0..10 {
            let o = obj(next_obj);
            next_obj += 1;
            let site = SiteId(rng.gen_range(0..FOUNDERS));
            net.schedule_capture(t, site, vec![o]);
            truth.push((o, site));
        }
        net.run_until_quiescent();

        match round % 3 {
            0 => {
                let s = net.join_site();
                leavable.push(s.0);
            }
            1
                if leavable.len() > 2 => {
                    let idx = rng.gen_range(0..leavable.len());
                    let s = leavable.swap_remove(idx);
                    net.leave_site(SiteId(s));
                }
            _ => {}
        }

        // Full audit after every round.
        for &(o, site) in &truth {
            let (loc, stats) = net.locate(SiteId(0), o, net.now());
            assert_eq!(loc, Some(site), "round {round}: object {o:?} lost");
            assert!(stats.complete);
        }
    }
    assert_eq!(net.anomalies().out_of_order_arrivals, 0);
}

#[test]
fn trace_through_departed_site_is_flagged_not_wrong() {
    let mut net = Builder::new().sites(10).seed(3).mode(group_mode()).build();
    let mut log = MovementLog::new();
    let o = obj(1);
    for (i, s) in [1u32, 4, 7, 2].iter().enumerate() {
        let t = secs(10 + i as u64 * 100);
        net.schedule_capture(t, SiteId(*s), vec![o]);
        log.record(o, SiteId(*s), t);
    }
    net.run_until_quiescent();

    // Remove a middle repository.
    net.leave_site(SiteId(4));
    let (p, stats) = net.trace(SiteId(0), o, SimTime::ZERO, SimTime::INFINITY);
    assert!(!stats.complete, "loss must be flagged");
    // Whatever is returned must be a suffix of the truth (the walk came
    // from the latest end and stopped at the hole).
    let full = log.trace(o, SimTime::ZERO, SimTime::INFINITY);
    assert!(!p.is_empty());
    assert!(
        full.ends_with(&p),
        "partial trace must be a true suffix: got {p:?}"
    );
}

#[test]
fn locate_of_current_position_survives_repository_loss() {
    // Even if intermediate repositories vanish, the *current* location
    // comes from the gateway index and must survive.
    let mut net = Builder::new().sites(10).seed(4).mode(group_mode()).build();
    let o = obj(9);
    net.schedule_capture(secs(10), SiteId(1), vec![o]);
    net.schedule_capture(secs(100), SiteId(5), vec![o]);
    net.schedule_capture(secs(200), SiteId(8), vec![o]);
    net.run_until_quiescent();
    net.leave_site(SiteId(1));
    net.leave_site(SiteId(5));

    let (loc, stats) = net.locate(SiteId(0), o, net.now());
    assert_eq!(loc, Some(SiteId(8)));
    assert!(stats.complete, "current location needs no lost records");
}

#[test]
fn overlay_survives_unstabilized_fail_storm() {
    // Abrupt failures (no goodbye): the chord layer must keep routing
    // and ground truth must match after stabilization rounds.
    use chord::Ring;
    use ids::Id;
    let mut rng = StdRng::seed_from_u64(5);
    let mut ring = Ring::new();
    let mut ids = Vec::new();
    for i in 0..80 {
        let id = Id::random(&mut rng);
        if i == 0 {
            ring.bootstrap(id, i);
        } else {
            ring.join(ids[0], id, i).unwrap();
        }
        ids.push(id);
    }
    ring.stabilize_all();

    // Kill 20 of 80 nodes abruptly.
    for v in &ids[55..75] {
        ring.fail(*v);
    }
    // Routing still converges to ground truth from every survivor.
    let live: Vec<Id> = ring.node_ids().collect();
    for _ in 0..200 {
        let key = Id::random(&mut rng);
        let from = live[rng.gen_range(0..live.len())];
        let r = ring.lookup(from, key).expect("must route around failures");
        assert_eq!(Some(r.owner), ring.successor_of(&key));
    }
    // And repair converges.
    for _ in 0..ids::ID_BITS {
        ring.stabilize_round();
    }
    ring.check_converged().unwrap();
}

#[test]
fn windows_flush_under_bursty_streams() {
    // Bursts larger than Nmax must split into several cycles; a trickle
    // must be flushed by Tmax — and nothing may be left unindexed.
    use workload::streams::ArrivalStream;
    let mut net = Builder::new()
        .sites(8)
        .seed(6)
        .mode(IndexingMode::Group(GroupConfig {
            n_max: 32,
            t_max: ms(250),
            ..GroupConfig::default()
        }))
        .build();

    let bursty = ArrivalStream::Bursty { burst_gap: secs(2), burst_size: 100 };
    let steady = ArrivalStream::Steady { mean_gap: ms(40) };
    let mut all = Vec::new();
    for ev in bursty
        .generate(SiteId(1), 300, secs(1), 7)
        .into_iter()
        .chain(steady.generate(SiteId(2), 150, secs(1), 7))
    {
        for &o in &ev.objects {
            all.push(o);
        }
        net.schedule_capture(ev.at, ev.site, ev.objects);
    }
    net.run_until_quiescent();

    for o in all {
        let (loc, _) = net.locate(SiteId(5), o, net.now());
        assert!(loc.is_some(), "object left unindexed after stream");
    }
}

#[test]
fn duplicate_epcs_in_one_window_do_not_corrupt_index() {
    // The same tag read twice within one window (double read after
    // cleansing failure) must not wedge the gateway: it is one visit,
    // and no record links to itself.
    let mut net = Builder::new().sites(8).seed(8).mode(group_mode()).build();
    let o = obj(77);
    let no_self_links = |net: &peertrack::TraceableNetwork| {
        for r in net.world.sites[3].iop.all(o) {
            let own = Some((SiteId(3), r.arrived));
            let links = [r.from, r.to].map(|l| l.map(|l| (l.site, l.time)));
            assert!(!links.contains(&own), "a record links to itself: {r:?}");
        }
    };
    net.capture(SiteId(3), &[o, o]);
    net.run_until_quiescent();
    no_self_links(&net);
    let (loc, _) = net.locate(SiteId(0), o, net.now());
    assert_eq!(loc, Some(SiteId(3)));
    // Next movement still threads correctly.
    net.schedule_capture(secs(100), SiteId(6), vec![o]);
    net.run_until_quiescent();
    no_self_links(&net);
    let (p, stats) = net.trace(SiteId(0), o, SimTime::ZERO, SimTime::INFINITY);
    assert_eq!(p.last().map(|v| v.site), Some(SiteId(6)));
    assert!(stats.complete);
}
