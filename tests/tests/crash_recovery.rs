//! Durability: kill a node mid-schedule, restart it from its data
//! directory, and prove nothing was lost.
//!
//! Three layers of the claim:
//!
//! 1. **Socket-level** — a 5-node durable loopback cluster runs half a
//!    workload, one node is crashed (no final snapshot, volatile state
//!    abandoned) and restarted on a fresh port; its canonical state
//!    encoding must come back byte-identical, the schedule continues,
//!    and every locate/trace answer afterwards must match the
//!    `MovementLog` ground truth with zero protocol anomalies. Reads
//!    are not events: a read-only run leaves every data dir and every
//!    node's state byte-identical.
//! 2. **State-machine level** — a socket-free property: replaying a WAL
//!    through `daemon::Core` equals snapshotting at *any* record
//!    boundary and replaying the tail. This is the invariant that makes
//!    snapshot cadence a pure performance knob. The state replayed is
//!    right, too: every object's IOP chain across the cores is its
//!    oracle path, though windows flush late and reach the gateways out
//!    of order. Logs holding the retired `Query` record replay as if it
//!    were absent.
//! 3. **Storage level** — torn writes and bit flips in a node's data
//!    dir either recover a strict prefix of the logged records (WAL
//!    damage) or fail the open loudly (snapshot damage) — never a
//!    silently wrong state.

use daemon::node::chord_id_for;
use daemon::{Core, LoopbackCluster, ScheduleCursor, WalRecord};
use durable::snapshot::SNAPSHOT_FILE;
use durable::{DataDir, FsyncMode, WAL_FILE};
use ids::Prefix;
use integration_tests::{chain_violations, triple_from_events};
use moods::{Locate, SiteId, Trace};
use peertrack::config::GroupConfig;
use peertrack::Builder;
use proptiny::prelude::*;
use simnet::time::secs;
use simnet::SimTime;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::PathBuf;
use workload::paper::PaperWorkload;

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

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pt-crash-{}-{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

// ----------------------------------------------------------------------
// 1. Socket level: crash + restart inside a live schedule
// ----------------------------------------------------------------------

#[test]
fn crashed_node_recovers_byte_identical_and_answers_match_oracle() {
    require_sockets!();
    const SITES: usize = 5;
    const VOL: usize = 12;
    const SEED: u64 = 21;
    const VICTIM: usize = 2;
    const FIRST_LEG_OPS: usize = 40;

    let events = PaperWorkload {
        sites: SITES,
        objects_per_site: VOL,
        grouped_movement: true,
        seed: SEED,
        ..PaperWorkload::default()
    }
    .generate();

    // Ground truth fed the full schedule up front (the oracle is
    // time-indexed, so it answers historical probes identically
    // whenever it is asked).
    let net = Builder::new().sites(SITES).seed(SEED).build();
    let t = triple_from_events(net, &events);

    let root = scratch("cluster");
    let mut cluster = LoopbackCluster::start_durable(
        SITES,
        SEED,
        GroupConfig::default(),
        &root,
        FsyncMode::Batch,
        64,
    )
    .expect("durable cluster start");

    // First leg: part of the schedule, then a query (which logs
    // nothing) before the crash.
    let mut cursor = ScheduleCursor::new(&events);
    let ran = cluster.run_cursor(&mut cursor, FIRST_LEG_OPS).expect("first schedule leg");
    assert_eq!(ran, FIRST_LEG_OPS, "workload too short to split around a crash");
    assert!(cursor.remaining() > 0, "nothing left for the post-restart leg");
    let probe_obj = workload::epc_object(VICTIM as u32, 0);
    cluster
        .locate(SiteId(VICTIM as u32), probe_obj, secs(100))
        .expect("pre-crash locate");

    // Kill it — no warning, no final snapshot — and bring it back.
    let before = cluster.state_dump(VICTIM).expect("state before crash");
    cluster.crash(VICTIM).expect("crash");

    // While it is down it is still a member, so routes still cross it.
    // Pick — from the ring, not by trial — a never-moving object and an
    // origin whose Chord path to the object's gateway passes through the
    // victim, with origin, gateway and holder all alive: the dead hop
    // only loses its `knows` shortcut, the answer stays exact.
    let ring = t.net.ring();
    let site_of = |id: &ids::Id| ring.app_index_of(id).expect("ring member");
    let crossing = (0..SITES)
        .flat_map(|home| (1..VOL as u64).map(move |serial| (home, serial)))
        .flat_map(|(home, serial)| (0..SITES).map(move |origin| (home, serial, origin)))
        .find(|&(home, serial, origin)| {
            let o = workload::epc_object(home as u32, serial);
            let key = Prefix::of_id(&o.id(), t.net.current_lp()).gateway_id();
            let from = chord_id_for(SEED, SiteId(origin as u32));
            let path: Vec<usize> =
                ring.lookup(from, key).expect("lookup").path.iter().map(site_of).collect();
            let (gateway, hops) = path.split_last().expect("path starts at the origin");
            hops.contains(&VICTIM)
                && ![origin, *gateway, home].contains(&VICTIM)
                && !hops.contains(&home)
        });
    let (home, serial, origin) = crossing.expect("some route crosses the victim");
    let o = workload::epc_object(home as u32, serial);
    let (ans, _, complete) =
        cluster.locate(SiteId(origin as u32), o, secs(100)).expect("locate across the dead hop");
    assert!(complete, "a silent route hop must not make the query incomplete");
    assert_eq!(ans, t.oracle.locate(o, secs(100)));

    cluster.restart(VICTIM).expect("restart from data dir");
    let after = cluster.state_dump(VICTIM).expect("state after restart");
    assert_eq!(before, after, "recovered state must be byte-identical");

    // Second leg: the restarted node keeps playing its protocol role.
    cluster.run_cursor(&mut cursor, usize::MAX).expect("second schedule leg");
    assert_eq!(cursor.remaining(), 0);

    // Every answer — asked at the node that died as well as its peers —
    // must match the ground truth over the full history.
    let probes: Vec<SimTime> = (0..8).map(|i| secs(i * 700)).collect();
    for site in 0..SITES as u32 {
        for serial in 0..VOL as u64 {
            let o = workload::epc_object(site, serial);
            let origin = SiteId((site + VICTIM as u32) % SITES as u32);
            for &probe in &probes {
                let truth = t.oracle.locate(o, probe);
                let (ans, _, complete) = cluster.locate(origin, o, probe).expect("locate");
                assert!(complete, "locate incomplete for {o:?} at {probe}");
                assert_eq!(ans, truth, "locate vs oracle for {o:?} at {probe}");
            }
            let truth = t.oracle.trace(o, SimTime::ZERO, SimTime::INFINITY);
            let (path, _, complete) =
                cluster.trace(origin, o, SimTime::ZERO, SimTime::INFINITY).expect("trace");
            assert!(complete, "trace incomplete for {o:?}");
            assert_eq!(path, truth, "trace vs oracle for {o:?}");
        }
    }

    // A clean protocol run end to end, crash included.
    let reports = cluster.shutdown().expect("shutdown");
    for r in &reports {
        assert_eq!(
            r.anomalies,
            peertrack::world::Anomalies::default(),
            "site {} protocol anomalies",
            r.site.0
        );
        assert_eq!(r.unsupported, 0, "site {} left the supported regime", r.site.0);
    }
    std::fs::remove_dir_all(&root).ok();
}

/// A crash loses nothing in flight, and a restart reorders nothing that
/// matters: the gateway of two objects is down while they are captured
/// and one of them moves on, so two senders hold a `GroupIndex` for it.
/// After the restart they arrive on two links, in either order, and
/// every locate and trace, from every origin, is oracle-exact and
/// complete, with no message in flight anywhere. Fails at the commit
/// before the delivery rule, where the frames were dropped and the
/// locates answered "not in the system" with `complete = true`; and
/// now and then at the commit before the gateway spliced, where the
/// later visit arriving first dropped the earlier one.
#[test]
fn index_updates_for_a_crashed_gateway_wait_for_its_restart() {
    require_sockets!();
    const SITES: usize = 6;
    const SEED: u64 = 5;
    const GATEWAY: u32 = 3;
    let sim = Builder::new().sites(SITES).seed(SEED).build();
    let gatewayed_at_3 = |o: &moods::ObjectId| {
        let key = Prefix::of_id(&o.id(), sim.current_lp()).gateway_id();
        let found = sim.ring().lookup(chord_id_for(SEED, SiteId(0)), key).expect("lookup");
        sim.ring().app_index_of(&found.owner) == Some(GATEWAY as usize)
    };
    let mut objects = (0..u64::MAX).map(|n| workload::epc_object(9, n)).filter(gatewayed_at_3);
    let (still, moved) = (objects.next().expect("object"), objects.next().expect("object"));

    let root = scratch("held");
    let group = GroupConfig::default();
    let mut cluster =
        LoopbackCluster::start_durable(SITES, SEED, group, &root, FsyncMode::Batch, 64)
            .expect("durable cluster start");
    cluster.crash(GATEWAY as usize).expect("crash");

    let mut log = moods::MovementLog::new();
    let mut capture = |cluster: &mut LoopbackCluster, site, t, objects: Vec<_>| {
        for &o in &objects {
            log.record(o, SiteId(site), t);
        }
        let event = workload::CaptureEvent { at: t, site: SiteId(site), objects };
        cluster.run_schedule(&[event]).expect("schedule");
    };
    capture(&mut cluster, 0, secs(10), vec![still, moved]);
    capture(&mut cluster, 1, secs(500), vec![moved]);
    cluster.restart(GATEWAY as usize).expect("restart");
    cluster.quiesce().expect("quiesce after the restart");

    for origin in (0..SITES as u32).map(SiteId) {
        for o in [still, moved] {
            for t in [secs(10), secs(300), secs(500), secs(900)] {
                let (ans, _, complete) = cluster.locate(origin, o, t).expect("locate");
                assert!(complete, "locate of {o:?} at {t} from {origin:?} incomplete");
                assert_eq!(ans, log.locate(o, t), "locate of {o:?} at {t} from {origin:?}");
            }
            let (path, _, complete) =
                cluster.trace(origin, o, SimTime::ZERO, SimTime::INFINITY).expect("trace");
            assert!(complete, "trace of {o:?} from {origin:?} incomplete");
            assert_eq!(path, log.trace(o, SimTime::ZERO, SimTime::INFINITY));
        }
    }
    for i in 0..SITES {
        let mut ctl = std::net::TcpStream::connect(cluster.addr(i)).expect("connect");
        transport::frame::write_frame(&mut ctl, &daemon::Frame::Status.encode()).expect("status");
        let raw = transport::frame::read_frame(&mut ctl).expect("read").expect("reply");
        match daemon::Frame::decode(&raw) {
            Ok(daemon::Frame::StatusResp { in_flight: 0, held: 0, .. }) => {}
            other => panic!("site {i} still has messages out: {other:?}"),
        }
    }
    cluster.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&root).ok();
}

/// Every site's `wal.log` and `snapshot.bin`, as bytes.
fn data_files(root: &std::path::Path, sites: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..sites)
        .map(|i| {
            let dir = root.join(format!("site-{i}"));
            let read = |name: &str| std::fs::read(dir.join(name)).expect("data file");
            (read(WAL_FILE), read(SNAPSHOT_FILE))
        })
        .collect()
}

/// A read is not an event: locates and traces on durable nodes append
/// no WAL record, install no snapshot and change no recovered state —
/// even at the tightest cadence, where any appended record would
/// rewrite `snapshot.bin`.
#[test]
fn reads_leave_the_data_dir_and_state_untouched() {
    require_sockets!();
    const SITES: usize = 3;
    const VOL: usize = 6;
    const SEED: u64 = 13;

    let events = PaperWorkload {
        sites: SITES,
        objects_per_site: VOL,
        grouped_movement: true,
        seed: SEED,
        ..PaperWorkload::default()
    }
    .generate();
    let root = scratch("read-only");
    let mut cluster = LoopbackCluster::start_durable(
        SITES,
        SEED,
        GroupConfig::default(),
        &root,
        FsyncMode::Batch,
        1,
    )
    .expect("durable cluster start");
    cluster.run_schedule(&events).expect("schedule");

    let dumps = |cluster: &mut LoopbackCluster| -> Vec<Vec<u8>> {
        (0..SITES).map(|i| cluster.state_dump(i).expect("state dump")).collect()
    };
    let files_before = data_files(&root, SITES);
    let state_before = dumps(&mut cluster);

    // 3 origins × 18 objects × (2 locates + 1 trace) = 162 reads, each
    // answered in full.
    for origin in 0..SITES as u32 {
        for home in 0..SITES as u32 {
            for serial in 0..VOL as u64 {
                let o = workload::epc_object(home, serial);
                for probe in [secs(100), secs(4_200)] {
                    let (_, _, complete) = cluster.locate(SiteId(origin), o, probe).expect("locate");
                    assert!(complete, "locate of {o:?} at {probe} incomplete");
                }
                let (_, _, complete) =
                    cluster.trace(SiteId(origin), o, SimTime::ZERO, SimTime::INFINITY).expect("trace");
                assert!(complete, "trace of {o:?} incomplete");
            }
        }
    }

    let files_after = data_files(&root, SITES);
    for (i, (before, after)) in files_before.iter().zip(&files_after).enumerate() {
        assert!(before.0 == after.0, "site {i}: a read wrote wal.log");
        assert!(before.1 == after.1, "site {i}: a read rewrote snapshot.bin");
    }
    assert!(dumps(&mut cluster) == state_before, "a read changed recovered state");
    cluster.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&root).ok();
}

// ----------------------------------------------------------------------
// 2. State-machine level: snapshot-at-any-boundary ≡ pure replay
// ----------------------------------------------------------------------

fn addr_of(i: usize) -> SocketAddr {
    format!("10.0.0.{}:7000", i + 1).parse().expect("synthetic addr")
}

/// A tiny WAL-only universe: every core's inputs are `WalRecord`s, and
/// outbound protocol messages are delivered by logging a `Protocol`
/// record at the destination — exactly the daemon's write path minus
/// the sockets. Returns each site's final core and its complete log.
fn run_universe(
    sites: usize,
    seed: u64,
    group: GroupConfig,
    events: &[workload::CaptureEvent],
) -> (Vec<Core>, Vec<Vec<WalRecord>>) {
    let mut cores: Vec<Core> =
        (0..sites).map(|i| Core::new(SiteId(i as u32), seed, group, addr_of(i))).collect();
    let mut logs: Vec<Vec<WalRecord>> = vec![Vec::new(); sites];

    let log_apply = |cores: &mut Vec<Core>, logs: &mut Vec<Vec<WalRecord>>,
                     site: usize, rec: WalRecord| {
        logs[site].push(rec.clone());
        cores[site].apply_record(&rec);
        // Deliver the fallout (and its fallout) in FIFO order.
        let mut queue: VecDeque<(SiteId, WalRecord)> = VecDeque::new();
        let enqueue = |queue: &mut VecDeque<(SiteId, WalRecord)>, from: SiteId, core: &mut Core| {
            for out in core.take_outbox() {
                queue.push_back((out.to, WalRecord::Protocol { sender: from, wire: out.wire }));
            }
        };
        enqueue(&mut queue, SiteId(site as u32), &mut cores[site]);
        while let Some((to, rec)) = queue.pop_front() {
            let t = to.0 as usize;
            logs[t].push(rec.clone());
            cores[t].apply_record(&rec);
            enqueue(&mut queue, to, &mut cores[t]);
        }
    };

    // Full membership first, like the join phase of a real cluster.
    for i in 0..sites {
        for j in 0..sites {
            let rec = WalRecord::Member { site: SiteId(j as u32), addr: addr_of(j).to_string() };
            log_apply(&mut cores, &mut logs, i, rec);
        }
    }
    let mut sorted: Vec<&workload::CaptureEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.at);
    let mut last = SimTime::ZERO;
    for ev in &sorted {
        last = ev.at;
        let rec = WalRecord::Capture { at: ev.at, objects: ev.objects.clone() };
        log_apply(&mut cores, &mut logs, ev.site.0 as usize, rec);
    }
    // Close every trailing window.
    for i in 0..sites {
        log_apply(&mut cores, &mut logs, i, WalRecord::Flush { now: last + group.t_max });
    }
    (cores, logs)
}

/// Every object's IOP chain across `cores`, walked from its one gateway
/// entry, against the oracle path of `events` (in the order
/// [`run_universe`] applied them).
fn chain_violations_of(cores: &[Core], events: &[workload::CaptureEvent]) -> Vec<String> {
    let mut sorted: Vec<&workload::CaptureEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.at);
    let mut log = moods::MovementLog::new();
    for ev in sorted {
        for &o in &ev.objects {
            log.record(o, ev.site, ev.at);
        }
    }
    let mut objects: Vec<moods::ObjectId> = log.objects().collect();
    objects.sort();
    objects
        .into_iter()
        .flat_map(|o| {
            let entries: Vec<_> = cores
                .iter()
                .flat_map(|c| c.proto().gateway.prefixes.values().filter_map(move |s| s.get(&o)))
                .collect();
            let [entry] = entries[..] else {
                return vec![format!("{o:?} is indexed {} times", entries.len())];
            };
            chain_violations(o, entry.link(), &log.visits(o), |l| {
                let rec = cores[l.site.0 as usize].proto().iop.record_at(o, l.time).copied();
                rec.ok_or_else(|| format!("no record of {o:?} at {l:?}"))
            })
        })
        .collect()
}

proptiny! {
    #![proptiny_config(Config::with_cases(12))]
    #[test]
    fn prop_snapshot_at_any_boundary_equals_pure_replay(
        sites in 2usize..=4,
        volume in 1usize..=6,
        seed in any::<u16>(),
        cut_pct in 0u8..=100,
    ) {
        let group = GroupConfig::default();
        let events = PaperWorkload {
            sites,
            objects_per_site: volume,
            grouped_movement: true,
            seed: seed as u64,
            ..PaperWorkload::default()
        }
        .generate();
        let (live, logs) = run_universe(sites, seed as u64, group, &events);
        prop_assert_eq!(chain_violations_of(&live, &events), Vec::<String>::new());

        for i in 0..sites {
            let site = SiteId(i as u32);
            let want = live[i].state_bytes(true);

            // Pure replay of the full log.
            let mut replayed = Core::new(site, seed as u64, group, addr_of(i));
            for rec in &logs[i] {
                replayed.replay(rec);
            }
            prop_assert_eq!(&replayed.state_bytes(true), &want);

            // Snapshot at an arbitrary record boundary + tail replay.
            let cut = logs[i].len() * cut_pct as usize / 100;
            let mut upto = Core::new(site, seed as u64, group, addr_of(i));
            for rec in &logs[i][..cut] {
                upto.replay(rec);
            }
            let body = upto.snapshot_body();
            let mut recovered = Core::from_snapshot(site, seed as u64, group, &body)
                .expect("self-produced snapshot loads");
            for rec in &logs[i][cut..] {
                recovered.replay(rec);
            }
            prop_assert_eq!(&recovered.state_bytes(true), &want);
        }
    }
}

/// Logs written before reads left the disk hold one `Query` record per
/// answered read. Kind 5 is retired, not forgotten: such a log still
/// opens, decodes and replays to the state — and the metrics — of the
/// same log without them.
#[test]
fn retired_query_records_replay_as_no_ops() {
    const SITES: usize = 3;
    const SEED: u64 = 5;
    let group = GroupConfig::default();
    let events = PaperWorkload {
        sites: SITES,
        objects_per_site: 4,
        grouped_movement: true,
        seed: SEED,
        ..PaperWorkload::default()
    }
    .generate();
    let (live, logs) = run_universe(SITES, SEED, group, &events);
    for (i, log) in logs.iter().enumerate() {
        let dir = scratch(&format!("retired-query-{i}"));
        {
            let (mut d, _) = DataDir::open(&dir, FsyncMode::Never).unwrap();
            for (k, rec) in log.iter().enumerate() {
                let query = WalRecord::Query { messages: k as u64 + 1, hops: 2, bytes: 64 };
                d.append_deferred(&query.encode()).unwrap();
                d.append_deferred(&rec.encode()).unwrap();
            }
        }
        let (_, recovery) = DataDir::open(&dir, FsyncMode::Never).unwrap();
        assert_eq!(recovery.tail.len(), 2 * log.len());
        let mut core = Core::new(SiteId(i as u32), SEED, group, addr_of(i));
        for e in &recovery.tail {
            core.replay(&WalRecord::decode(&e.payload).expect("old log decodes"));
        }
        assert_eq!(core.state_bytes(true), live[i].state_bytes(true), "site {i} state");
        assert_eq!(core.metrics(), live[i].metrics(), "site {i}: a retired record charged");
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ----------------------------------------------------------------------
// 3. Storage level: damage recovers a prefix or fails loudly
// ----------------------------------------------------------------------

proptiny! {
    #![proptiny_config(Config::with_cases(24))]
    #[test]
    fn prop_damaged_data_dir_recovers_prefix_or_fails_loudly(
        volume in 1usize..=8,
        seed in any::<u16>(),
        damage_at in any::<u16>(),
        damage_kind in 0u8..=8, // 0..8 = flip that bit, 8 = truncate
        hit_snapshot in any::<bool>(),
        snap_at_pct in 0u8..=100,
    ) {
        let (truncate_instead, flip_bit) = (damage_kind == 8, damage_kind % 8);
        let group = GroupConfig::default();
        let site = SiteId(0);
        let events = PaperWorkload {
            sites: 1,
            objects_per_site: volume,
            grouped_movement: true,
            seed: seed as u64,
            ..PaperWorkload::default()
        }
        .generate();
        // A one-site universe: every record self-applies, no sockets.
        let (_, logs) = run_universe(1, seed as u64, group, &events);
        let records = &logs[0];
        prop_assume!(!records.is_empty());

        let dir = scratch(&format!("dmg-{volume}-{seed}-{damage_at}-{damage_kind}-{hit_snapshot}-{snap_at_pct}"));
        let snap_at = records.len() * snap_at_pct as usize / 100;
        {
            let (mut d, _) = DataDir::open(&dir, FsyncMode::Never).unwrap();
            let mut core = Core::new(site, seed as u64, group, addr_of(0));
            for (k, rec) in records.iter().enumerate() {
                d.append_deferred(&rec.encode()).unwrap();
                core.replay(rec);
                if k + 1 == snap_at {
                    d.install_snapshot(&core.snapshot_body()).unwrap();
                }
            }
        }

        let target = if hit_snapshot && snap_at > 0 {
            dir.join("snapshot.bin")
        } else {
            dir.join(WAL_FILE)
        };
        let mut raw = std::fs::read(&target).unwrap();
        prop_assume!(!raw.is_empty());
        let pos = damage_at as usize % raw.len();
        if truncate_instead {
            raw.truncate(pos);
        } else {
            raw[pos] ^= 1 << flip_bit;
        }
        std::fs::write(&target, &raw).unwrap();

        match DataDir::open(&dir, FsyncMode::Never) {
            Err(_) => {
                // Loud refusal — the snapshot (or, for a truncated-to-
                // nothing WAL header, the log) could not be trusted.
            }
            Ok((_, rec)) => {
                // Whatever survived must decode to a *prefix* of what
                // was logged, and replaying it must reproduce exactly
                // the state after that prefix.
                let base = match &rec.snapshot {
                    Some((lsn, _)) => *lsn as usize,
                    None => 0,
                };
                let recovered: Vec<WalRecord> = rec
                    .tail
                    .iter()
                    .map(|e| WalRecord::decode(&e.payload).expect("intact payload decodes"))
                    .collect();
                let upto = base + recovered.len();
                prop_assert!(upto <= records.len(), "recovery invented records");

                let mut from_disk = match &rec.snapshot {
                    Some((_, body)) => Core::from_snapshot(site, seed as u64, group, body)
                        .expect("undamaged snapshot loads"),
                    None => Core::new(site, seed as u64, group, addr_of(0)),
                };
                for r in &recovered {
                    from_disk.replay(r);
                }
                let mut expect = Core::new(site, seed as u64, group, addr_of(0));
                for r in &records[..upto] {
                    expect.replay(r);
                }
                prop_assert_eq!(&from_disk.state_bytes(true), &expect.state_bytes(true));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
