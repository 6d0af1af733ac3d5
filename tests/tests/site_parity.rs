//! One write plane, two hosts: the simulator and the daemon `Core`.
//!
//! `peertrack::site` is hosted by `NetWorld` (every site in one
//! process, a virtual clock) and by `daemon::Core` (one site, an
//! outbox). This suite runs the same workload through both with no
//! sockets and no wall clock — N cores wired by an in-memory FIFO
//! (`take_outbox` → `WalRecord::Protocol` at the destination) beside a
//! `TraceableNetwork` at the same seed — and asserts that every site
//! ends in byte-identical canonical state and that the merged model
//! accounting agrees class by class — through a permanent death, and
//! through a join into a network that already holds data, with and
//! without an `Lp` change. What may differ is only what the hosts
//! supply: *when* the anti-entropy digest goes out, and the overlay's
//! own join and stabilization traffic.
//!
//! The same FIFO checks the daemon's delivery rule: a core crashed at
//! any delivery step, with frames to and from it undelivered, replayed
//! from its log and reconnected, ends every core in the state of the
//! crash-free run.

use daemon::node::{chord_id_for, Outbound};
use daemon::{Core, WalRecord};
use moods::{ObjectId, SiteId};
use peertrack::config::GroupConfig;
use peertrack::messages::{Msg, Wire};
use peertrack::site::Anomalies;
use peertrack::{Builder, TraceableNetwork};
use simnet::metrics::{Metrics, MsgClass, ALL_CLASSES};
use simnet::time::secs;
use simnet::{FaultConfig, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};
use workload::paper::PaperWorkload;
use workload::CaptureEvent;

fn addr(site: u32) -> String {
    format!("127.0.0.1:{}", 9_200 + site)
}

/// Daemon cores wired back to back: whatever one emits is applied at
/// its destination, first in first out, until nothing is in flight.
struct Cores {
    seed: u64,
    replicas: usize,
    live: BTreeMap<u32, Core>,
    /// Every record each core applied: its write-ahead log.
    logs: BTreeMap<u32, Vec<WalRecord>>,
    /// Protocol records delivered so far, and the one at which the
    /// receiving core crashes.
    delivered: usize,
    crash_at: Option<usize>,
    /// Open-window deadline per site plus its arming order — the
    /// simulator's `Tmax` timers, which off-sim are the driver's job.
    deadlines: BTreeMap<u32, (SimTime, u64)>,
    next_arm: u64,
}

impl Cores {
    fn start(n: u32, seed: u64, replicas: usize) -> Cores {
        let mut c = Cores {
            seed,
            replicas,
            live: BTreeMap::new(),
            logs: BTreeMap::new(),
            delivered: 0,
            crash_at: None,
            deadlines: BTreeMap::new(),
            next_arm: 0,
        };
        for s in 0..n {
            c.admit(s);
        }
        c
    }

    /// A new member: it learns the membership, then the membership
    /// learns it, every record ahead of the traffic they cause — as a
    /// socket join orders them: the newcomer reads nothing before its
    /// join reply has taught it the whole ring.
    fn admit(&mut self, s: u32) {
        let group = GroupConfig::default();
        let core = Core::new(SiteId(s), self.seed, group, addr(s).parse().expect("literal"))
            .with_replicas(self.replicas);
        let known: Vec<u32> = self.live.keys().copied().collect();
        self.live.insert(s, core);
        let member = |m: u32| WalRecord::Member { site: SiteId(m), addr: addr(m) };
        let learns = known.iter().map(|&other| (s, member(other)));
        let told = known.iter().map(|&other| (other, member(s)));
        self.deliver(learns.chain(told).collect());
    }

    fn apply(&mut self, at: u32, rec: WalRecord) {
        self.deliver(VecDeque::from([(at, rec)]));
    }

    fn deliver(&mut self, mut queue: VecDeque<(u32, WalRecord)>) {
        while let Some((at, rec)) = queue.pop_front() {
            if let WalRecord::Protocol { .. } = rec {
                self.delivered += 1;
                if self.crash_at == Some(self.delivered) {
                    self.crash(at, &mut queue);
                    continue;
                }
            }
            // A frame to a node that is gone is dropped, as a failed
            // socket write would.
            let Some(core) = self.live.get_mut(&at) else { continue };
            self.logs.entry(at).or_default().push(rec.clone());
            core.apply_record(&rec);
            for out in core.take_outbox() {
                queue.push_back((
                    out.to.0,
                    WalRecord::Protocol { sender: SiteId(at), wire: out.wire },
                ));
            }
        }
    }

    /// Play `events` the way the simulator's queue would: captures at
    /// their instants, each open window flushed when its `Tmax` runs
    /// out. At a tie the capture runs first (it was scheduled before
    /// the timer was armed); tied timers fire in arming order.
    fn run(&mut self, events: &[CaptureEvent]) {
        let t_max = GroupConfig::default().t_max;
        let mut evs: Vec<&CaptureEvent> = events.iter().collect();
        evs.sort_by_key(|e| e.at);
        let mut next = 0;
        loop {
            let due = self.deadlines.iter().map(|(&s, &(t, arm))| (t, arm, s)).min();
            match (due, evs.get(next)) {
                (Some((t, _, s)), Some(e)) if t < e.at => self.flush(s, t),
                (_, Some(e)) => {
                    next += 1;
                    let s = e.site.0;
                    self.apply(s, WalRecord::Capture { at: e.at, objects: e.objects.clone() });
                    let window = &self.live[&s].proto().window;
                    let deadline = (!window.is_empty()).then(|| window.opened() + t_max);
                    if deadline != self.deadlines.get(&s).map(|d| d.0) {
                        self.deadlines.remove(&s);
                        if let Some(t) = deadline {
                            self.deadlines.insert(s, (t, self.next_arm));
                            self.next_arm += 1;
                        }
                    }
                }
                (Some((t, _, s)), None) => self.flush(s, t),
                (None, None) => break,
            }
        }
    }

    /// Crash `v` as the frame to it arrives: that frame and every other
    /// one queued for it die with its socket buffers. It restarts by
    /// replaying its log, and each link is redialed: both ends write
    /// their watermark and their unacked suffix.
    fn crash(&mut self, v: u32, queue: &mut VecDeque<(u32, WalRecord)>) {
        queue.retain(|(at, _)| *at != v);
        let addr = addr(v).parse().expect("literal");
        let mut core = Core::new(SiteId(v), self.seed, GroupConfig::default(), addr)
            .with_replicas(self.replicas);
        for rec in &self.logs[&v] {
            core.replay(rec);
        }
        self.live.insert(v, core);
        for p in self.live.keys().copied().filter(|&p| p != v).collect::<Vec<_>>() {
            for (from, to) in [(p, v), (v, p)] {
                let core = &self.live[&from];
                let resend = core.ack_for(SiteId(to)).into_iter();
                for out in resend.chain(core.unacked(SiteId(to)).cloned()) {
                    let sender = SiteId(from);
                    queue.push_back((to, WalRecord::Protocol { sender, wire: out.wire }));
                }
            }
        }
    }

    fn flush(&mut self, s: u32, now: SimTime) {
        self.deadlines.remove(&s);
        self.apply(s, WalRecord::Flush { now });
    }

    /// `kill_forever`: the node is gone, every survivor is told.
    fn kill_forever(&mut self, s: u32) -> Core {
        assert!(!self.deadlines.contains_key(&s), "kill with an open window");
        let dead = self.live.remove(&s).expect("kill of a live core");
        let survivors: Vec<u32> = self.live.keys().copied().collect();
        for at in survivors {
            self.apply(at, WalRecord::Dead { site: SiteId(s) });
        }
        dead
    }

    fn merged_metrics<'a>(&'a self, gone: impl IntoIterator<Item = &'a Core>) -> Metrics {
        let mut merged = Metrics::new();
        for core in self.live.values().chain(gone) {
            merged.merge(core.metrics());
        }
        merged
    }

    fn assert_clean(&self) {
        for (s, core) in &self.live {
            assert_eq!(core.anomalies(), Anomalies::default(), "core {s} anomalies");
            assert_eq!(core.unsupported(), 0, "core {s} left the supported regime");
        }
    }
}

fn workload(sites: usize, seed: u64) -> Vec<CaptureEvent> {
    PaperWorkload {
        sites,
        objects_per_site: 12,
        grouped_movement: true,
        seed,
        ..PaperWorkload::default()
    }
    .generate()
}

fn simulate(net: &mut TraceableNetwork, events: &[CaptureEvent]) {
    let mut evs: Vec<&CaptureEvent> = events.iter().collect();
    evs.sort_by_key(|e| e.at);
    for e in evs {
        net.schedule_capture(e.at, e.site, e.objects.clone());
    }
    net.run_until_quiescent();
}

/// Every live site's primary stores, and its replica copy of every
/// other site, encode identically on both hosts. A copy that was never
/// written encodes as an empty one: the cores learn the membership one
/// record at a time, so a node that briefly succeeded a joining member
/// keeps that member's first (empty) state push, where the simulator's
/// builder places copies once, on the final ring.
fn assert_same_state(net: &TraceableNetwork, cores: &Cores) {
    for (&s, core) in &cores.live {
        let sim = &net.world.sites[s as usize];
        assert!(sim.alive, "site {s} is dead in the simulator only");
        let off = core.proto();
        assert_eq!(sim.store_state_bytes(), off.store_state_bytes(), "site {s} primary stores");
        for primary in (0..net.world.sites.len() as u32).map(SiteId) {
            assert_eq!(
                sim.replica_state_bytes(primary),
                off.replica_state_bytes(primary),
                "site {s}'s copy of {primary}"
            );
        }
    }
}

fn assert_same_accounting(sim: &Metrics, off: &Metrics, classes: &[MsgClass]) {
    for &class in classes {
        assert_eq!(sim.messages_of(class), off.messages_of(class), "{class:?} messages");
        assert_eq!(sim.bytes_of(class), off.bytes_of(class), "{class:?} model bytes");
        assert_eq!(sim.hops_of(class), off.hops_of(class), "{class:?} hops");
    }
}

#[test]
fn simulator_and_cores_agree_on_state_and_accounting() {
    const SITES: usize = 6;
    const SEED: u64 = 33;
    let events = workload(SITES, SEED);

    let mut net = Builder::new().sites(SITES).seed(SEED).build();
    simulate(&mut net, &events);
    let mut cores = Cores::start(SITES as u32, SEED, 1);
    cores.run(&events);

    assert_eq!(net.anomalies(), Anomalies::default());
    cores.assert_clean();
    assert_same_state(&net, &cores);
    assert_same_accounting(net.metrics(), &cores.merged_metrics([]), &ALL_CLASSES);
    assert!(net.metrics().messages_of(MsgClass::IopUpdate) > 0, "no movement was indexed");
}

#[test]
fn replicated_hosts_agree_through_a_permanent_death() {
    const SITES: usize = 8; // Lp is the same at 8 and at 7 members
    const SEED: u64 = 41;
    const VICTIM: u32 = 3;
    let mut events = workload(SITES, SEED);
    events.sort_by_key(|e| e.at);
    let last = events.last().expect("events").at;
    let cut = SimTime::from_micros(last.as_micros() / 2);
    let (before, after): (Vec<CaptureEvent>, Vec<CaptureEvent>) =
        events.into_iter().partition(|e| e.at <= cut);
    // Nothing is captured at a site that no longer exists.
    let mut after: Vec<CaptureEvent> = after.into_iter().filter(|e| e.site.0 != VICTIM).collect();
    assert!(!before.is_empty() && !after.is_empty());
    // Whatever the victim still holds at its death moves on afterwards,
    // so the M2 for those objects is aimed at a dead repository.
    let mut holder: HashMap<ObjectId, SiteId> = HashMap::new();
    for e in before.iter().chain(&after) {
        holder.extend(e.objects.iter().map(|&o| (o, e.site)));
    }
    let mut stranded: Vec<ObjectId> =
        holder.into_iter().filter(|&(_, s)| s.0 == VICTIM).map(|(o, _)| o).collect();
    stranded.sort();
    assert!(!stranded.is_empty(), "nothing rests at the victim: pick another");
    after.push(CaptureEvent { at: last + secs(600), site: SiteId(0), objects: stranded.clone() });

    let mut net =
        Builder::new().sites(SITES).seed(SEED).replicas(3).faults(FaultConfig::none(SEED)).build();
    let mut cores = Cores::start(SITES as u32, SEED, 3);
    // Bringing the members up one by one cost the cores placement
    // traffic the simulator's builder resets; start both tallies here.
    let warm_up = cores.merged_metrics([]);

    simulate(&mut net, &before);
    cores.run(&before);
    assert_same_state(&net, &cores);

    net.kill_forever(SiteId(VICTIM));
    let dead = cores.kill_forever(VICTIM);
    assert_same_state(&net, &cores);

    // Objects last seen at the victim move on: their M2 is redirected
    // to the dead repository's holders on both hosts.
    simulate(&mut net, &after);
    cores.run(&after);
    assert_same_state(&net, &cores);

    let patched = |core: &Core| {
        let copy = core.proto().replica_iop.get(&SiteId(VICTIM))?;
        copy.latest(stranded[0])?.to
    };
    assert!(
        cores.live.values().any(|c| patched(c).is_some_and(|to| to.site == SiteId(0))),
        "no holder's copy of the dead repository records the move"
    );
    assert_eq!(net.anomalies(), Anomalies::default());
    cores.assert_clean();
    assert!(net.world.replica_divergence().is_empty(), "{:?}", net.world.replica_divergence());
    // The indexing plane is charged identically. Replication rides
    // `Gossip`, where the digest *trigger* is the host's (a one-shot
    // timer per write burst vs. once per flush), and `Overlay` is the
    // simulator's stabilization after the kill — the cores rebuild
    // their ring replicas from the membership for free.
    let indexing: Vec<MsgClass> = ALL_CLASSES
        .into_iter()
        .filter(|c| !matches!(c, MsgClass::Gossip | MsgClass::Overlay))
        .collect();
    let off = cores.merged_metrics([&dead]);
    for class in &indexing {
        assert_eq!(warm_up.messages_of(*class), 0, "{class:?} charged during bring-up");
    }
    assert_same_accounting(net.metrics(), &off, &indexing);
    assert!(off.messages_of(MsgClass::Gossip) > warm_up.messages_of(MsgClass::Gossip));
}

/// A member joins a network that already holds data: the successor
/// hands it the key ranges it now owns and, when `Lp` grows, every site
/// splits its shards (§IV-A.2) — on both hosts alike, byte for byte at
/// every checkpoint. The schedule is split around the join because
/// `join_site` drains whatever captures are scheduled.
fn join_mid_schedule(sites: usize, seed: u64, replicas: usize, crosses_lp: bool) {
    let mut events = workload(sites, seed);
    events.sort_by_key(|e| e.at);
    let cut = SimTime::from_micros(events.last().expect("events").at.as_micros() / 2);
    let (before, after): (Vec<CaptureEvent>, Vec<CaptureEvent>) =
        events.into_iter().partition(|e| e.at <= cut);
    assert!(!before.is_empty() && !after.is_empty());

    let mut net = Builder::new().sites(sites).seed(seed).replicas(replicas).build();
    let mut cores = Cores::start(sites as u32, seed, replicas);
    simulate(&mut net, &before);
    cores.run(&before);
    assert_same_state(&net, &cores);

    let lp = net.current_lp();
    let newcomer = net.join_site();
    cores.admit(newcomer.0);
    assert_eq!(net.current_lp() != lp, crosses_lp, "Lp {lp} → {}", net.current_lp());
    let handed = cores.live[&newcomer.0].proto().gateway.load();
    assert!(handed > 0, "the newcomer was handed nothing: the case was not exercised");
    assert_same_state(&net, &cores);

    simulate(&mut net, &after);
    cores.run(&after);
    assert_same_state(&net, &cores);
    assert_eq!(net.anomalies(), Anomalies::default());
    cores.assert_clean();
    // `Overlay` is the simulator's join and stabilization traffic (the
    // cores rebuild their rings for free); with replication on,
    // `Gossip`'s digest trigger is the host's, as in the kill test.
    let classes: Vec<MsgClass> = ALL_CLASSES
        .into_iter()
        .filter(|c| *c != MsgClass::Overlay && (replicas == 1 || *c != MsgClass::Gossip))
        .collect();
    assert_same_accounting(net.metrics(), &cores.merged_metrics([]), &classes);
    assert!(net.metrics().messages_of(MsgClass::SplitMerge) > 0, "no shard moved");
}

#[test]
fn a_join_that_grows_lp_moves_the_same_shards_on_both_hosts() {
    join_mid_schedule(6, 33, 1, true);
}

#[test]
fn a_join_that_keeps_lp_hands_off_the_same_shards_on_both_hosts() {
    join_mid_schedule(8, 30, 1, false);
}

#[test]
fn replicated_hosts_agree_through_a_join_that_grows_lp() {
    join_mid_schedule(6, 33, 3, true);
}

#[test]
fn replicated_hosts_agree_through_a_join_that_keeps_lp() {
    join_mid_schedule(8, 30, 3, false);
}

/// A `ReplIopPatch` must never create a replica store. Holders of a
/// dead site are computed from the ring as it is *now*; a member
/// admitted into the arc between the dead id and its first successor is
/// therefore asked to patch a copy it never held. Planting a store
/// there would leave partial records (`from: None`) that a later trace
/// reads as the start of the chain.
#[test]
fn a_patch_never_plants_a_replica_store() {
    const SITES: u32 = 8;
    const SEED: u64 = 41;
    const DEAD: u32 = 3;
    let mut cores = Cores::start(SITES, SEED, 3);

    // Sixteen objects all last seen at the site about to die.
    let objects: Vec<ObjectId> = (0..16u64).map(|n| ObjectId::from_raw(&n.to_be_bytes())).collect();
    cores.run(&[CaptureEvent { at: secs(10), site: SiteId(DEAD), objects: objects.clone() }]);
    cores.kill_forever(DEAD);

    // Admit the first candidate whose ring id lands between the dead
    // id and its first live successor.
    let dead_id = chord_id_for(SEED, SiteId(DEAD));
    let first_successor = cores
        .live
        .keys()
        .map(|&s| chord_id_for(SEED, SiteId(s)))
        .min_by_key(|id| dead_id.distance_to(id))
        .expect("survivors");
    let newcomer = (SITES..)
        .find(|&c| chord_id_for(SEED, SiteId(c)).in_interval_oo(&dead_id, &first_successor))
        .expect("some id hashes into the arc");
    cores.admit(newcomer);

    // The objects move on: every gateway that still indexes one sends
    // the M2 for the dead repository to the holders it computes — the
    // newcomer among them.
    cores.run(&[CaptureEvent { at: secs(1_000), site: SiteId(0), objects }]);

    let planted = cores.live[&newcomer].proto();
    assert!(
        !planted.replica_iop.contains_key(&SiteId(DEAD)),
        "the newcomer was handed a partial copy of the dead repository"
    );
    assert!(
        cores.live[&newcomer].anomalies().dangling_iop_updates > 0,
        "no patch reached the newcomer: the case was not exercised"
    );

    // And the shared arm, directly: no copy, no store, one count per
    // update carried.
    let mut lone = Core::new(SiteId(0), SEED, GroupConfig::default(), addr(0).parse().unwrap())
        .with_replicas(3);
    let link = peertrack::Link { site: SiteId(1), time: secs(20) };
    lone.apply_record(&WalRecord::Protocol {
        sender: SiteId(1),
        wire: Wire {
            seq: 1,
            msg: Msg::ReplIopPatch {
                primary: SiteId(9),
                set_to: vec![(ObjectId::from_raw(b"o"), secs(10), link)],
                set_from: vec![(ObjectId::from_raw(b"o"), secs(10), None)],
            },
        },
    });
    assert!(lone.proto().replica_iop.is_empty());
    assert_eq!(lone.anomalies().dangling_iop_updates, 2);
}

/// A crash at any instant loses nothing: at every protocol delivery of
/// a short schedule, the receiving core dies with every frame queued for
/// it, replays its log and is reconnected; after the drain each core's
/// canonical state equals the crash-free run's.
#[test]
fn a_core_crashed_at_any_delivery_ends_in_the_crash_free_state() {
    const SITES: u32 = 4;
    const SEED: u64 = 12;
    let events = PaperWorkload {
        sites: SITES as usize,
        objects_per_site: 3,
        grouped_movement: true,
        seed: SEED,
        ..PaperWorkload::default()
    }
    .generate();
    let mut clean = Cores::start(SITES, SEED, 1);
    clean.run(&events);
    clean.assert_clean();
    let want: Vec<Vec<u8>> = clean.live.values().map(|c| c.state_bytes(false)).collect();
    assert!(clean.delivered > 10, "only {} deliveries: the schedule is too short", clean.delivered);
    for k in 1..=clean.delivered {
        let mut cores = Cores::start(SITES, SEED, 1);
        cores.crash_at = Some(k);
        cores.run(&events);
        let got: Vec<Vec<u8>> = cores.live.values().map(|c| c.state_bytes(false)).collect();
        assert!(got == want, "a crash at delivery {k} of {} changed the state", clean.delivered);
        for core in cores.live.values() {
            assert_eq!(core.unacked(SiteId(0)).count() + core.unacked(SiteId(1)).count(), 0);
        }
    }
}

/// The delivery rule at one receiver: the sender's next message is
/// applied and acked, a duplicate only re-acked, a gap dropped and
/// counted; the sender's suffix is trimmed by each cumulative ack.
#[test]
fn delivery_accepts_in_order_reacks_duplicates_drops_gaps_and_trims_cumulatively() {
    let group = GroupConfig::default();
    let mut core = Core::new(SiteId(0), 5, group, addr(0).parse().expect("literal"));
    core.apply_record(&WalRecord::Member { site: SiteId(1), addr: addr(1) });
    let from_1 = |seq| WalRecord::Protocol {
        sender: SiteId(1),
        wire: Wire { seq, msg: Msg::SetTo { updates: Vec::new() } },
    };
    let acks = |core: &mut Core| -> Vec<u64> {
        let outbox = core.take_outbox();
        let acked = |o: &Outbound| match o.wire.msg {
            Msg::Ack { acked } => acked,
            _ => u64::MAX,
        };
        outbox.iter().map(acked).collect()
    };
    core.apply_record(&from_1(1));
    assert_eq!((acks(&mut core), core.received()), (vec![1], 1), "accept");
    core.apply_record(&from_1(1));
    assert_eq!((acks(&mut core), core.received()), (vec![1], 1), "duplicate");
    assert_eq!(core.anomalies().duplicates_suppressed, 1);
    core.apply_record(&from_1(3));
    assert_eq!((acks(&mut core), core.received(), core.unsupported()), (vec![], 1, 1), "gap");

    // Index objects at both sites: site 0 sequences several messages
    // for site 1 and keeps them until acknowledged.
    let objects: Vec<ObjectId> = (0..40u64).map(|n| ObjectId::from_raw(&n.to_be_bytes())).collect();
    core.apply_record(&WalRecord::Capture { at: secs(1), objects });
    core.apply_record(&WalRecord::Flush { now: secs(2) });
    core.take_outbox();
    let seqs = |core: &Core| core.unacked(SiteId(1)).map(|o| o.wire.seq).collect::<Vec<_>>();
    let sent = core.sent();
    assert!(sent >= 3, "only {sent} messages for site 1");
    assert_eq!(seqs(&core), (1..=sent).collect::<Vec<_>>());
    let ack = |acked| {
        let wire = Wire { seq: 0, msg: Msg::Ack { acked } };
        WalRecord::Protocol { sender: SiteId(1), wire }
    };
    core.apply_record(&ack(2));
    assert_eq!(seqs(&core), (3..=sent).collect::<Vec<_>>(), "trimmed through 2");
    core.apply_record(&ack(1));
    assert_eq!(seqs(&core).len() as u64, sent - 2, "an older ack trims nothing");
    core.apply_record(&ack(sent));
    assert_eq!((seqs(&core), core.sent()), (vec![], sent), "trimmed, still counted sent");
    assert!(core.take_outbox().is_empty(), "acks are not acked");
}

/// Duplicate suppression costs O(members), not O(messages): at
/// quiescence the canonical state has the same length after N and 2N
/// messages received (it grew 12 bytes a message with a dedup set).
#[test]
fn dedup_state_does_not_grow_with_messages() {
    let group = GroupConfig::default();
    let mut core = Core::new(SiteId(0), 5, group, addr(0).parse().expect("literal"));
    core.apply_record(&WalRecord::Member { site: SiteId(1), addr: addr(1) });
    let mut lens = Vec::new();
    for seq in 1..=200u64 {
        let msg = Msg::SetTo { updates: Vec::new() };
        core.apply_record(&WalRecord::Protocol { sender: SiteId(1), wire: Wire { seq, msg } });
        if seq % 100 == 0 {
            lens.push(core.state_bytes(false).len());
        }
    }
    assert_eq!(lens[0], lens[1], "state grew with the messages received");
}
