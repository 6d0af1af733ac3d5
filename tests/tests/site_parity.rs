//! One write plane, two hosts: the simulator and the daemon `Core`.
//!
//! `peertrack::site` is hosted by `NetWorld` (every site in one
//! process, a virtual clock) and by `daemon::Core` (one site, an
//! outbox). This suite runs the same workload through both with no
//! sockets and no wall clock — N cores wired by an in-memory FIFO
//! (`take_outbox` → `WalRecord::Protocol` at the destination) beside a
//! `TraceableNetwork` at the same seed — and asserts that every site
//! ends in byte-identical canonical state and that the merged model
//! accounting agrees class by class. What may differ is only what the
//! hosts supply: *when* the anti-entropy digest goes out, and the
//! overlay's own stabilization traffic.

use daemon::node::chord_id_for;
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
            deadlines: BTreeMap::new(),
            next_arm: 0,
        };
        for s in 0..n {
            c.admit(s);
        }
        c
    }

    /// A new member: it learns the membership, the membership learns it.
    fn admit(&mut self, s: u32) {
        let group = GroupConfig::default();
        let core = Core::new(SiteId(s), self.seed, group, addr(s).parse().expect("literal"))
            .with_replicas(self.replicas);
        let known: Vec<u32> = self.live.keys().copied().collect();
        self.live.insert(s, core);
        for &other in &known {
            self.apply(s, WalRecord::Member { site: SiteId(other), addr: addr(other) });
            self.apply(other, WalRecord::Member { site: SiteId(s), addr: addr(s) });
        }
    }

    fn apply(&mut self, at: u32, rec: WalRecord) {
        let mut queue = VecDeque::from([(at, rec)]);
        while let Some((at, rec)) = queue.pop_front() {
            // A frame to a node that is gone is dropped, as a failed
            // socket write would.
            let Some(core) = self.live.get_mut(&at) else { continue };
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
