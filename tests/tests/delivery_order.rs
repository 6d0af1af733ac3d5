//! One merge rule at the gateway: the order in which a gateway meets an
//! object's visits changes neither its index entry nor the IOP chain.
//!
//! A visit can reach the gateway older than the one it indexes: two
//! senders' held messages after a restart, a window that flushes late,
//! a retransmission, a jittered link. `peertrack::site::splice` threads
//! such a visit into the chain instead of dropping it. Two hosts are
//! checked, each against a `MovementLog`:
//!
//! * daemon `Core`s, fed every order of four visits from two senders to
//!   one gateway by hand, with the fallout delivered after each visit or
//!   only after all four — every site's stores must encode identically;
//! * the simulator, whose fault plane jitters every delivery — the same
//!   captures under eight jitter seeds must end in identical stores.

use daemon::{Core, WalRecord};
use ids::Prefix;
use integration_tests::chain_violations;
use moods::{Locate, MovementLog, ObjectId, SiteId, Trace};
use peertrack::config::GroupConfig;
use peertrack::messages::Msg;
use peertrack::site;
use peertrack::store::{GatewayStore, IndexEntry};
use peertrack::{Builder, IndexingMode};
use simnet::fault::{FaultConfig, LinkFaults};
use simnet::time::{ms, secs};
use simnet::SimTime;
use std::collections::VecDeque;
use std::net::SocketAddr;

const SEED: u64 = 7;
/// Two senders and the gateway.
const SITES: u32 = 3;
const GATEWAY: u32 = 2;

fn addr(site: u32) -> SocketAddr {
    format!("10.0.0.{}:7000", site + 1).parse().expect("literal")
}

/// Deliver `queue` and everything it causes, first in first out,
/// straight through the protocol body.
fn drain(cores: &mut [Core], mut queue: VecDeque<(SiteId, SiteId, Msg)>) {
    while let Some((from, to, msg)) = queue.pop_front() {
        let core = &mut cores[to.0 as usize];
        assert!(site::handle(core, to, from, msg).is_none(), "a message the core does not run");
        queue.extend(core.take_outbox().into_iter().map(|out| (to, out.to, out.wire.msg)));
    }
}

/// Three cores that know each other.
fn cores() -> Vec<Core> {
    let group = GroupConfig::default();
    let mut cores: Vec<Core> =
        (0..SITES).map(|s| Core::new(SiteId(s), SEED, group, addr(s))).collect();
    for core in &mut cores {
        for m in 0..SITES {
            core.apply_record(&WalRecord::Member { site: SiteId(m), addr: addr(m).to_string() });
        }
        assert!(core.take_outbox().is_empty(), "an empty store moves nothing");
    }
    cores
}

/// [`cores`], and `o`'s visits in `log` captured and flushed at the
/// senders, their `GroupIndex` messages held, not delivered.
fn captured(o: ObjectId, log: &MovementLog) -> (Vec<Core>, Vec<(SiteId, Msg)>) {
    let mut cores = cores();
    let mut held = Vec::new();
    for v in log.visits(o) {
        let core = &mut cores[v.site.0 as usize];
        core.apply_record(&WalRecord::Capture { at: v.arrived, objects: vec![o] });
        core.apply_record(&WalRecord::Flush { now: v.arrived });
        let out = core.take_outbox();
        assert_eq!(out.len(), 1, "one group, one index message");
        assert_eq!(out[0].to, SiteId(GATEWAY), "the object's gateway");
        held.push((v.site, out[0].wire.msg.clone()));
    }
    (cores, held)
}

/// The `k`-th of the `n!` orders of `0..n`.
fn permutation(n: usize, mut k: usize) -> Vec<usize> {
    let mut left: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    for i in (1..=n).rev() {
        let f: usize = (1..i).product();
        order.push(left.remove(k / f));
        k %= f;
    }
    order
}

/// The one entry for `o` among `gateways`.
fn entry_of<'a>(o: ObjectId, gateways: impl Iterator<Item = &'a GatewayStore>) -> IndexEntry {
    let found: Vec<IndexEntry> = gateways
        .flat_map(|g| {
            let shards = g.prefixes.values().filter_map(|s| s.get(&o));
            g.objects.get(&o).into_iter().chain(shards)
        })
        .copied()
        .collect();
    assert_eq!(found.len(), 1, "{o:?} is indexed once");
    found[0]
}

#[test]
fn every_delivery_order_at_one_gateway_builds_one_chain() {
    let core = &cores()[0];
    let lp = site::Host::lp(core);
    let o = (0..)
        .map(|n| workload::epc_object(9, n))
        .find(|o| {
            site::Host::owner(core, Prefix::of_id(&o.id(), lp).gateway_id()) == SiteId(GATEWAY)
        })
        .expect("an object gatewayed at the third site");
    let mut log = MovementLog::new();
    for (i, s) in [0, 1, 0, 1].into_iter().enumerate() {
        log.record(o, SiteId(s), secs(10 * (i as u64 + 1)));
    }
    let truth = log.visits(o);
    let mut first: Option<Vec<Vec<u8>>> = None;
    for k in 0..24 {
        for fallout_after_each in [true, false] {
            let (mut cores, held) = captured(o, &log);
            let mut late = VecDeque::new();
            for i in permutation(4, k) {
                let (from, msg) = held[i].clone();
                late.push_back((from, SiteId(GATEWAY), msg));
                if fallout_after_each {
                    drain(&mut cores, std::mem::take(&mut late));
                }
            }
            drain(&mut cores, late);

            let order = permutation(4, k);
            let order = format!("order {order:?}, fallout after each: {fallout_after_each}");
            let entry = entry_of(o, cores.iter().map(|c| &c.proto().gateway));
            let last = &truth[truth.len() - 1];
            let prev = &truth[truth.len() - 2];
            assert_eq!((entry.site, entry.time), (last.site, last.arrived), "{order}");
            let want_prev = Some((prev.site, prev.arrived));
            assert_eq!(entry.prev.map(|p| (p.site, p.time)), want_prev, "{order}");
            let broken = chain_violations(o, entry.link(), &truth, |l| {
                let rec = cores[l.site.0 as usize].proto().iop.record_at(o, l.time).copied();
                rec.ok_or_else(|| format!("no record at {l:?}"))
            });
            assert_eq!(broken, Vec::<String>::new(), "{order}");
            for c in &cores {
                assert_eq!(c.anomalies(), peertrack::site::Anomalies::default(), "{order}");
                assert_eq!(c.unsupported(), 0, "{order}");
            }
            let states: Vec<Vec<u8>> =
                cores.iter().map(|c| c.proto().store_state_bytes()).collect();
            match &first {
                None => first = Some(states),
                Some(want) => assert!(&states == want, "{order}: stores differ from the first"),
            }
        }
    }
}

#[test]
fn every_jitter_seed_builds_one_chain_in_the_simulator() {
    const OBJECTS: u64 = 4;
    let objects: Vec<ObjectId> = (0..OBJECTS).map(|n| workload::epc_object(3, n)).collect();
    let group = GroupConfig { t_max: ms(300), ..GroupConfig::default() };
    for mode in [IndexingMode::Individual, IndexingMode::Group(group)] {
        let mut log = MovementLog::new();
        let mut first: Option<Vec<Vec<u8>>> = None;
        for jitter_seed in 0..8 {
            // Every delivery, fallout included, is late by up to 3 s;
            // the visits are 1 s apart.
            let jitter = LinkFaults { jitter: secs(3), ..LinkFaults::NONE };
            let mut net = Builder::new()
                .sites(8)
                .seed(SEED)
                .mode(mode)
                .faults(FaultConfig::none(jitter_seed).with_default(jitter))
                .build();
            for (i, (a, b)) in [(1, 4), (4, 6), (6, 1), (1, 6)].into_iter().enumerate() {
                let at = secs(i as u64 + 1);
                net.schedule_capture(at, SiteId(a), objects[..2].to_vec());
                net.schedule_capture(at, SiteId(b), objects[2..].to_vec());
                if jitter_seed == 0 {
                    for (k, &o) in objects.iter().enumerate() {
                        log.record(o, SiteId(if k < 2 { a } else { b }), at);
                    }
                }
            }
            net.run_until_quiescent();

            let run = format!("{mode:?}, jitter seed {jitter_seed}");
            assert_eq!(net.anomalies(), peertrack::site::Anomalies::default(), "{run}");
            for &o in &objects {
                let truth = log.visits(o);
                let entry = entry_of(o, net.world.sites.iter().map(|s| &s.gateway));
                let broken = chain_violations(o, entry.link(), &truth, |l| {
                    let rec = net.world.sites[l.site.0 as usize].iop.record_at(o, l.time).copied();
                    rec.ok_or_else(|| format!("no record at {l:?}"))
                });
                assert_eq!(broken, Vec::<String>::new(), "{run}");
                let (path, stats) = net.trace(SiteId(0), o, SimTime::ZERO, SimTime::INFINITY);
                assert_eq!(path, log.trace(o, SimTime::ZERO, SimTime::INFINITY), "{run}");
                assert!(stats.complete, "{run}");
                for t in [ms(1_500), ms(2_500), ms(3_500), secs(60)] {
                    assert_eq!(net.locate(SiteId(0), o, t).0, log.locate(o, t), "{run} at {t}");
                }
            }
            let states: Vec<Vec<u8>> =
                net.world.sites.iter().map(|s| s.store_state_bytes()).collect();
            match &first {
                None => first = Some(states),
                Some(want) => assert!(&states == want, "{run}: stores differ from seed 0"),
            }
        }
    }
}
