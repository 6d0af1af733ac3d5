//! End-to-end protocol tests: IOP acquisition (§III), group indexing
//! (§IV), Data Triangles, split/merge, churn, and agreement with the
//! MOODS ground-truth oracle.

use moods::{Locate, MovementLog, ObjectId, SiteId, Trace};
use peertrack::{Builder, GroupConfig, IndexingMode, PrefixScheme};
use proptiny::prelude::*;
use detrand::{rngs::StdRng, Rng, SeedableRng};
use simnet::time::{ms, secs};
use simnet::{MsgClass, SimTime};

fn obj(n: u64) -> ObjectId {
    ObjectId::from_raw(&n.to_be_bytes())
}

/// Move `o` through `sites`, one arrival every `step`, starting at
/// `start`; records ground truth in `log`.
fn move_along(
    net: &mut peertrack::TraceableNetwork,
    log: &mut MovementLog,
    o: ObjectId,
    sites: &[SiteId],
    start: SimTime,
    step: SimTime,
) {
    let mut t = start;
    for &s in sites {
        net.schedule_capture(t, s, vec![o]);
        log.record(o, s, t);
        t += step;
    }
}

fn group_mode(n_max: usize, t_max: SimTime) -> IndexingMode {
    IndexingMode::Group(GroupConfig { n_max, t_max, ..GroupConfig::default() })
}

// ---------------------------------------------------------------------
// Individual indexing (§III)
// ---------------------------------------------------------------------

#[test]
fn individual_three_messages_per_move() {
    let mut net = Builder::new().sites(16).seed(1).mode(IndexingMode::Individual).build();
    let o = obj(42);
    let path: Vec<SiteId> = vec![SiteId(0), SiteId(3), SiteId(7), SiteId(11)];
    let mut log = MovementLog::new();
    move_along(&mut net, &mut log, o, &path, secs(1), secs(60));
    net.run_until_quiescent();

    // First arrival: M1 + M3 (no previous site). Each of the 3 moves:
    // M1 + M2 + M3 — except that a message whose destination happens to
    // be its sender (gateway == capturing/previous site) is free.
    // Compute the exact expectation from ring ownership.
    let gw_site = {
        let owner = net.ring().successor_of(&o.id()).unwrap();
        SiteId(net.ring().app_index_of(&owner).unwrap() as u32)
    };
    let mut expect_m1 = 0u64; // capturing site -> gateway
    let mut expect_m2 = 0u64; // gateway -> previous site
    let mut expect_m3 = 0u64; // gateway -> capturing site
    for (i, &s) in path.iter().enumerate() {
        if s != gw_site {
            expect_m1 += 1;
            expect_m3 += 1;
        }
        if i > 0 && path[i - 1] != gw_site {
            expect_m2 += 1;
        }
    }
    let m = net.metrics();
    assert_eq!(m.messages_of(MsgClass::IndexReport), expect_m1, "one M1 per remote arrival");
    assert_eq!(
        m.messages_of(MsgClass::IopUpdate),
        expect_m2 + expect_m3,
        "M2 per move, M3 per arrival (self-sends free)"
    );
    assert_eq!(net.anomalies(), peertrack::world::Anomalies::default());
}

#[test]
fn individual_iop_links_thread_the_path() {
    let mut net = Builder::new().sites(16).seed(2).mode(IndexingMode::Individual).build();
    let o = obj(7);
    let path = vec![SiteId(1), SiteId(5), SiteId(9)];
    let mut log = MovementLog::new();
    move_along(&mut net, &mut log, o, &path, secs(1), secs(60));
    net.run_until_quiescent();

    // n1: from=None, to=n5; n5: from=n1, to=n9; n9: from=n5, to=None.
    let r1 = net.world.sites[1].iop.latest(o).unwrap();
    assert_eq!(r1.from, None);
    assert_eq!(r1.to.unwrap().site, SiteId(5));
    let r5 = net.world.sites[5].iop.latest(o).unwrap();
    assert_eq!(r5.from.unwrap().site, SiteId(1));
    assert_eq!(r5.to.unwrap().site, SiteId(9));
    let r9 = net.world.sites[9].iop.latest(o).unwrap();
    assert_eq!(r9.from.unwrap().site, SiteId(5));
    assert_eq!(r9.to, None);
}

#[test]
fn individual_locate_and_trace_match_oracle() {
    let mut net = Builder::new().sites(24).seed(3).mode(IndexingMode::Individual).build();
    let mut log = MovementLog::new();
    let o = obj(1);
    let path: Vec<SiteId> = vec![2, 4, 8, 16, 21].into_iter().map(SiteId).collect();
    move_along(&mut net, &mut log, o, &path, secs(10), secs(100));
    net.run_until_quiescent();

    for t_ms in (0..600_000).step_by(7_000) {
        let t = ms(t_ms);
        let (got, stats) = net.locate(SiteId(0), o, t);
        assert_eq!(got, log.locate(o, t), "locate at {t}");
        assert!(stats.complete);
    }
    let (p, stats) = net.trace(SiteId(13), o, SimTime::ZERO, SimTime::INFINITY);
    assert_eq!(p, log.trace(o, SimTime::ZERO, SimTime::INFINITY));
    assert!(stats.complete);
    assert!(stats.messages > 0);
}

// ---------------------------------------------------------------------
// Group indexing (§IV)
// ---------------------------------------------------------------------

#[test]
fn group_mode_batches_cut_message_count() {
    let n_objects = 2_000u64;
    let run = |mode: IndexingMode| -> u64 {
        let mut net = Builder::new().sites(64).seed(4).mode(mode).build();
        let objects: Vec<ObjectId> = (0..n_objects).map(obj).collect();
        net.schedule_capture(secs(1), SiteId(0), objects);
        net.run_until_quiescent();
        net.metrics().indexing_messages()
    };
    let individual = run(IndexingMode::Individual);
    let group = run(group_mode(4096, ms(500)));
    assert!(
        group * 3 < individual,
        "group indexing ({group}) should be far cheaper than individual ({individual})"
    );
}

#[test]
fn group_window_flushes_by_timer() {
    let mut net = Builder::new().sites(8).seed(5).mode(group_mode(10_000, ms(200))).build();
    net.capture(SiteId(2), &[obj(1), obj(2)]);
    assert_eq!(net.metrics().indexing_messages(), 0, "still buffered");
    net.run_until(ms(199));
    assert_eq!(net.metrics().indexing_messages(), 0, "Tmax not reached");
    net.run_until_quiescent();
    assert!(net.metrics().indexing_messages() > 0, "timer flushed the window");
}

#[test]
fn group_window_flushes_by_count() {
    let mut net = Builder::new().sites(8).seed(6).mode(group_mode(3, secs(3600))).build();
    net.capture(SiteId(1), &[obj(1), obj(2)]);
    assert_eq!(net.metrics().indexing_messages(), 0);
    net.capture(SiteId(1), &[obj(3)]); // Nmax=3 reached
    // Flush happens immediately (messages sent), delivery needs event
    // processing.
    assert!(net.metrics().indexing_messages() > 0, "Nmax flush is immediate");
    net.run_until_quiescent();
    // The Tmax timer was cancelled — quiescence must not wait an hour.
    assert!(net.now() < secs(60), "cancelled timer must not delay quiescence");
}

#[test]
fn group_locate_trace_match_oracle() {
    let mut net = Builder::new().sites(32).seed(7).mode(group_mode(256, ms(300))).build();
    let mut log = MovementLog::new();
    let mut rng = StdRng::seed_from_u64(99);
    // 40 objects, each moving through 4–8 random sites.
    for i in 0..40u64 {
        let o = obj(i);
        let hops = rng.gen_range(4..=8);
        let path: Vec<SiteId> = (0..hops).map(|_| SiteId(rng.gen_range(0..32))).collect();
        let start = secs(rng.gen_range(1..50));
        move_along(&mut net, &mut log, o, &path, start, secs(120));
    }
    net.run_until_quiescent();
    assert_eq!(net.anomalies(), peertrack::world::Anomalies::default());

    for i in 0..40u64 {
        let o = obj(i);
        let (p, stats) = net.trace(SiteId(0), o, SimTime::ZERO, SimTime::INFINITY);
        assert_eq!(p, log.trace(o, SimTime::ZERO, SimTime::INFINITY), "trace of {o:?}");
        assert!(stats.complete);
        for t_s in [0u64, 30, 120, 400, 900, 2000] {
            let t = secs(t_s);
            assert_eq!(net.locate(SiteId(9), o, t).0, log.locate(o, t), "locate {o:?}@{t}");
        }
    }
}

#[test]
fn locate_of_unknown_object_is_none() {
    let mut net = Builder::new().sites(8).seed(8).build();
    let (ans, stats) = net.locate(SiteId(0), obj(12345), secs(10));
    assert_eq!(ans, None);
    assert_eq!(stats.source, peertrack::query::AnswerSource::NotFound);
}

#[test]
fn locate_before_entry_is_none() {
    let mut net = Builder::new().sites(8).seed(9).mode(group_mode(8, ms(100))).build();
    let o = obj(5);
    net.schedule_capture(secs(100), SiteId(3), vec![o]);
    net.run_until_quiescent();
    let (ans, _) = net.locate(SiteId(0), o, secs(50));
    assert_eq!(ans, None, "object was nowhere before first capture");
    let (ans, _) = net.locate(SiteId(0), o, secs(150));
    assert_eq!(ans, Some(SiteId(3)));
}

#[test]
fn trait_impls_answer_without_stats() {
    let mut net = Builder::new().sites(8).seed(10).mode(group_mode(8, ms(100))).build();
    let o = obj(6);
    net.schedule_capture(secs(1), SiteId(2), vec![o]);
    net.schedule_capture(secs(2), SiteId(4), vec![o]);
    net.run_until_quiescent();
    assert_eq!(Locate::locate(&net.reader(), o, secs(10)), Some(SiteId(4)));
    let p = Trace::trace(&net.reader(), o, SimTime::ZERO, SimTime::INFINITY);
    assert_eq!(p.len(), 2);
}

// ---------------------------------------------------------------------
// Data Triangles: delegation + lookup through children
// ---------------------------------------------------------------------

#[test]
fn delegation_moves_earliest_records_to_children() {
    let cfg = GroupConfig {
        scheme: PrefixScheme::Fixed(2), // few, hot gateways
        l_min: 2,
        n_max: 10_000,
        t_max: ms(100),
        alpha: 0.5,
        delegate_threshold: Some(50),
        eager_split_merge: true,
        ..GroupConfig::default()
    };
    let mut net = Builder::new().sites(16).seed(11).mode(IndexingMode::Group(cfg)).build();
    let objects: Vec<ObjectId> = (0..400u64).map(obj).collect();
    net.schedule_capture(secs(1), SiteId(0), objects.clone());
    net.run_until_quiescent();

    assert!(
        net.metrics().messages_of(MsgClass::Delegate) > 0,
        "hot shards must delegate to triangle children"
    );
    // Every object is still locatable (through parent or children).
    for o in &objects {
        let (ans, _) = net.locate(SiteId(5), *o, secs(10));
        assert_eq!(ans, Some(SiteId(0)), "object {o:?} lost after delegation");
    }
}

#[test]
fn delegated_objects_keep_correct_iop_on_next_move() {
    let cfg = GroupConfig {
        scheme: PrefixScheme::Fixed(2),
        l_min: 2,
        n_max: 10_000,
        t_max: ms(100),
        alpha: 1.0, // delegate everything when triggered
        delegate_threshold: Some(10),
        eager_split_merge: true,
        ..GroupConfig::default()
    };
    let mut net = Builder::new().sites(16).seed(12).mode(IndexingMode::Group(cfg)).build();
    let objects: Vec<ObjectId> = (0..100u64).map(obj).collect();
    net.schedule_capture(secs(1), SiteId(0), objects.clone());
    net.run_until_quiescent();
    // Move everything to site 3: the gateway must refresh the delegated
    // entries from its children to thread the IOP correctly.
    net.schedule_capture(secs(100), SiteId(3), objects.clone());
    net.run_until_quiescent();

    for o in &objects {
        let (p, stats) = net.trace(SiteId(8), *o, SimTime::ZERO, SimTime::INFINITY);
        let sites: Vec<SiteId> = p.iter().map(|v| v.site).collect();
        assert_eq!(sites, vec![SiteId(0), SiteId(3)], "broken IOP for {o:?}");
        assert!(stats.complete);
    }
    assert_eq!(net.anomalies(), peertrack::world::Anomalies::default());
}

// ---------------------------------------------------------------------
// Lp changes: splitting / merging (§IV-A.2)
// ---------------------------------------------------------------------

#[test]
fn join_triggers_split_and_preserves_queries() {
    let cfg = GroupConfig { n_max: 512, t_max: ms(200), ..GroupConfig::default() };
    let mut net = Builder::new().sites(16).seed(13).mode(IndexingMode::Group(cfg)).build();
    let lp0 = net.current_lp();

    let mut log = MovementLog::new();
    for i in 0..60u64 {
        let o = obj(i);
        let path: Vec<SiteId> = vec![SiteId((i % 16) as u32), SiteId(((i + 5) % 16) as u32)];
        move_along(&mut net, &mut log, o, &path, secs(1 + i), secs(300));
    }
    net.run_until_quiescent();

    // Grow the network until Lp increases.
    let mut grew = 0;
    while net.current_lp() == lp0 {
        net.join_site();
        grew += 1;
        assert!(grew < 200, "Lp never changed while growing");
    }
    assert!(net.current_lp() > lp0);
    assert!(
        net.metrics().messages_of(MsgClass::SplitMerge) > 0,
        "eager split must migrate shards"
    );

    for i in 0..60u64 {
        let o = obj(i);
        let p = Trace::trace(&net.reader(), o, SimTime::ZERO, SimTime::INFINITY);
        assert_eq!(p, log.trace(o, SimTime::ZERO, SimTime::INFINITY), "trace after split");
    }
}

#[test]
fn leave_triggers_merge_and_preserves_index() {
    let cfg = GroupConfig { n_max: 512, t_max: ms(200), ..GroupConfig::default() };
    let mut net = Builder::new().sites(64).seed(14).mode(IndexingMode::Group(cfg)).build();
    let lp0 = net.current_lp();

    // Index objects at sites that will stay (0..8).
    let objects: Vec<ObjectId> = (0..50u64).map(obj).collect();
    for (i, o) in objects.iter().enumerate() {
        net.schedule_capture(secs(1 + i as u64), SiteId((i % 8) as u32), vec![*o]);
    }
    net.run_until_quiescent();

    // Shrink from the top until Lp decreases.
    let mut v = 63u32;
    while net.current_lp() == lp0 {
        net.leave_site(SiteId(v));
        v -= 1;
        assert!(v > 8, "Lp never decreased while shrinking");
    }
    assert!(net.current_lp() < lp0);

    for (i, o) in objects.iter().enumerate() {
        let (ans, _) = net.locate(SiteId(0), *o, secs(1000));
        assert_eq!(ans, Some(SiteId((i % 8) as u32)), "index lost after merge for {o:?}");
    }
}

#[test]
fn lazy_mode_repairs_via_refresh() {
    // With eager_split_merge off, old shards stay at the shorter prefix;
    // the next indexing cycle repairs via refresh_from_ascent.
    let cfg = GroupConfig {
        n_max: 512,
        t_max: ms(200),
        eager_split_merge: false,
        ..GroupConfig::default()
    };
    let mut net = Builder::new().sites(16).seed(15).mode(IndexingMode::Group(cfg)).build();
    let lp0 = net.current_lp();
    let o = obj(77);
    net.schedule_capture(secs(1), SiteId(2), vec![o]);
    net.run_until_quiescent();

    let mut grew = 0;
    while net.current_lp() == lp0 {
        net.join_site();
        grew += 1;
        assert!(grew < 200);
    }
    assert_eq!(net.metrics().messages_of(MsgClass::SplitMerge), 0, "lazy: no migration");

    // Move the object: the gateway at the *new* prefix must pull the
    // history from the ascent shard, keeping the IOP intact.
    net.schedule_capture(secs(500), SiteId(5), vec![o]);
    net.run_until_quiescent();
    assert!(net.metrics().messages_of(MsgClass::Refresh) > 0, "refresh must have fired");

    let p = Trace::trace(&net.reader(), o, SimTime::ZERO, SimTime::INFINITY);
    let sites: Vec<SiteId> = p.iter().map(|v| v.site).collect();
    assert_eq!(sites, vec![SiteId(2), SiteId(5)], "IOP must survive lazy Lp change");
}

// ---------------------------------------------------------------------
// Churn
// ---------------------------------------------------------------------

#[test]
fn leave_marks_traces_incomplete_when_repository_departs() {
    let mut net = Builder::new().sites(12).seed(16).mode(group_mode(64, ms(100))).build();
    let o = obj(3);
    let mut log = MovementLog::new();
    move_along(
        &mut net,
        &mut log,
        o,
        &[SiteId(1), SiteId(6), SiteId(9)],
        secs(1),
        secs(60),
    );
    net.run_until_quiescent();

    // The middle repository departs; its IOP records are gone.
    net.leave_site(SiteId(6));
    let (p, stats) = net.trace(SiteId(0), o, SimTime::ZERO, SimTime::INFINITY);
    assert!(!stats.complete, "trace through a departed repository must be flagged");
    // The latest segment is still reported.
    assert_eq!(p.last().map(|v| v.site), Some(SiteId(9)));
}

#[test]
fn index_survives_gateway_departure() {
    // When the *gateway* for an object leaves, its shards hand off to
    // the successor — queries must still find the object.
    let mut net = Builder::new().sites(24).seed(17).mode(group_mode(64, ms(100))).build();
    let objects: Vec<ObjectId> = (0..80u64).map(obj).collect();
    net.schedule_capture(secs(1), SiteId(0), objects.clone());
    net.run_until_quiescent();

    // Remove a third of the network (never site 0, which holds the IOP).
    for v in (12..20u32).rev() {
        net.leave_site(SiteId(v));
    }
    for o in &objects {
        let (ans, _) = net.locate(SiteId(1), *o, secs(100));
        assert_eq!(ans, Some(SiteId(0)), "index lost after gateway churn for {o:?}");
    }
}

#[test]
fn intermediate_nodes_answer_queries() {
    // With many sites on the object's path, some queries route through
    // one of them and get answered early (§IV-B Intermediate Node).
    let mut net = Builder::new().sites(64).seed(18).mode(group_mode(64, ms(100))).build();
    let mut log = MovementLog::new();
    let mut intermediate_or_local = 0;
    for i in 0..30u64 {
        let o = obj(i);
        let path: Vec<SiteId> = (0..10).map(|k| SiteId(((i * 7 + k * 3) % 64) as u32)).collect();
        move_along(&mut net, &mut log, o, &path, secs(1 + i), secs(60));
    }
    net.run_until_quiescent();
    for i in 0..30u64 {
        let o = obj(i);
        for from in 0..64u32 {
            let (ans, stats) = net.locate(SiteId(from), o, secs(100_000));
            assert_eq!(ans, log.locate(o, secs(100_000)));
            match stats.source {
                peertrack::query::AnswerSource::Intermediate(_)
                | peertrack::query::AnswerSource::Local => intermediate_or_local += 1,
                _ => {}
            }
        }
    }
    assert!(
        intermediate_or_local > 0,
        "with 10-site paths some queries must be answered before the gateway"
    );
}

// ---------------------------------------------------------------------
// The big agreement property: PeerTrack == oracle under random schedules
// ---------------------------------------------------------------------

proptiny! {
    #![proptiny_config(Config::with_cases(12))]

    #[test]
    fn prop_distributed_answers_equal_oracle(
        seed in any::<u64>(),
        n_sites in 4usize..24,
        n_objects in 1usize..20,
    ) {
        let mut net = Builder::new()
            .sites(n_sites)
            .seed(seed)
            .mode(group_mode(128, ms(250)))
            .build();
        let mut log = MovementLog::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);

        for i in 0..n_objects as u64 {
            let o = obj(i);
            let hops = rng.gen_range(1..=6);
            let path: Vec<SiteId> =
                (0..hops).map(|_| SiteId(rng.gen_range(0..n_sites as u32))).collect();
            let start = secs(rng.gen_range(1..100));
            move_along(&mut net, &mut log, o, &path, start, secs(rng.gen_range(30..300)));
        }
        net.run_until_quiescent();
        prop_assert_eq!(net.anomalies(), peertrack::world::Anomalies::default());

        for i in 0..n_objects as u64 {
            let o = obj(i);
            // Full trace agreement.
            let (p, stats) = net.trace(SiteId(0), o, SimTime::ZERO, SimTime::INFINITY);
            prop_assert_eq!(&p, &log.trace(o, SimTime::ZERO, SimTime::INFINITY));
            prop_assert!(stats.complete);
            // Windowed trace agreement.
            let (t0, t1) = (secs(rng.gen_range(0..500)), secs(rng.gen_range(500..3000)));
            let (p, _) = net.trace(SiteId(1 % n_sites as u32), o, t0, t1);
            prop_assert_eq!(&p, &log.trace(o, t0, t1));
            // Point locates.
            for _ in 0..8 {
                let t = secs(rng.gen_range(0..3000));
                let from = SiteId(rng.gen_range(0..n_sites as u32));
                prop_assert_eq!(net.locate(from, o, t).0, log.locate(o, t));
            }
        }
    }
}
