//! Durable state vocabulary: what the WAL stores and how a whole
//! [`Core`] is serialized.
//!
//! **Log events, not state diffs.** A [`WalRecord`] is an *inbound
//! event* that changes protocol state — a membership change, an
//! injected capture, a window flush, a received protocol message, a
//! death. Recovery replays these through the exact handler code that
//! ran live ([`Core::apply_record`]), so the WAL never has to describe
//! the node's data structures and can never disagree with the handlers
//! about what an event means. Reads are not events: a locate or trace
//! appends nothing, and kind 5 ([`WalRecord::Query`]) is retired. A
//! record on disk is its kind byte and then its fields, as
//! `WalRecord`'s declaration through [`peertrack::wire_enum!`] lays
//! them out — the frame's encodings, so a logged `Protocol` payload is
//! byte for byte the one that arrived.
//!
//! **Canonical state encoding (v4).** [`Core::state_bytes`] serializes
//! protocol state only — identity, membership, window, IOP repository,
//! gateway shards, the delivery state per peer (last sequence number
//! sent, watermark received, unacknowledged suffix), the dead set and
//! the replica copies — deterministically: maps in sorted key order,
//! sets sorted, every value through its [`peertrack::schema::Field`]
//! and the stores through the canonical encoders in
//! [`peertrack::codec`]. Two cores that went through the same
//! transitions produce the same bytes, which is the equality
//! `tests/tests/crash_recovery.rs` asserts across a kill-and-restart.
//! With addresses (`with_addrs`) it is the snapshot body — a restart
//! must recover the dial targets; without, a restart-stable digest,
//! since a restarted node binds a fresh port.
//!
//! Excluded on purpose: the Chord ring, `Lp` and the hosted prefixes
//! (derived from the membership and the shards); the per-class
//! `Metrics` and the `Anomalies` (volatile counters about the protocol:
//! a restarted node reports only its own life's traffic); the latency
//! recorder; and `unsupported`. A v2 snapshot, which still carries the
//! hosted list, the metrics and the anomalies, decodes by reading past
//! them; a v2 or v3 snapshot's global sequence number, per-message
//! dedup set and counters are read past too, leaving the delivery state
//! empty — they kept no suffix to resume.

use crate::node::{Channel, Core, Outbound};
use crate::proto::ProtoError;
use chord::Ring;
use ids::Prefix;
use moods::SiteId;
use peertrack::bytebuf::{ByteBuf, Reader};
use peertrack::codec;
use peertrack::config::GroupConfig;
use peertrack::messages::Wire;
use peertrack::schema::Field;
use peertrack::site::{Anomalies, Site};
use peertrack::wire_enum;
use simnet::metrics::Metrics;
use simnet::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::SocketAddr;

wire_enum! {
    /// One durable event. Appended to the WAL *before* the in-memory
    /// state is mutated and before the triggering request is
    /// acknowledged; replayed in LSN order on recovery. On disk: the kind
    /// byte, then the fields in declaration order.
    #[derive(Clone, Debug)]
    pub enum WalRecord {
        /// A site's listener address became known (join, broadcast, or the
        /// node's own rebind after a restart).
        Member {
            /// The site.
            site: SiteId,
            /// Its listener address, as received on the wire.
            addr: String,
        } = 1,
        /// An injected capture batch ([`crate::proto::Frame::Capture`]).
        Capture {
            /// Virtual capture instant.
            at: SimTime,
            /// Captured objects.
            objects: Vec<moods::ObjectId>,
        } = 2,
        /// An explicit window flush ([`crate::proto::Frame::Flush`]).
        Flush {
            /// Virtual flush instant.
            now: SimTime,
        } = 3,
        /// A received protocol-plane message.
        Protocol {
            /// Sending site.
            sender: SiteId,
            /// The sequenced payload.
            wire: Wire,
        } = 4,
        /// Retired: the model cost of one locate/trace, logged before
        /// reads left the disk. Kept only so older logs still decode; it
        /// replays as a no-op, nothing appends it, and kind 5 is never
        /// reused.
        Query {
            /// Model messages charged.
            messages: u64,
            /// Model overlay hops charged.
            hops: u64,
            /// Model payload bytes charged.
            bytes: u64,
        } = 5,
        /// A site was declared **permanently dead** (kill-forever). The
        /// receiver drops it from the membership; with replication on, the
        /// heir merges its replica copy of the dead site's gateway shards
        /// and placement is re-established on the shrunken ring.
        Dead {
            /// The dead site.
            site: SiteId,
        } = 6,
    }
}

impl WalRecord {
    /// Serialize to a WAL payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = ByteBuf::with_capacity(32);
        buf.put_u8(self.tag());
        self.put_fields(&mut buf);
        buf.into_vec()
    }

    /// Deserialize a WAL payload, read in place. Bytes after the record
    /// are an error: a record from a format this build does not know
    /// must not replay as if it were complete.
    pub fn decode(raw: &[u8]) -> Result<WalRecord, ProtoError> {
        let r = &mut Reader::new(raw);
        let rec = WalRecord::get_fields(r.u8()?, r, ProtoError::BadKind)?;
        r.finish()?;
        Ok(rec)
    }
}

const STATE_VERSION: u8 = 4;

impl Core {
    /// The canonical deterministic encoding of the protocol state.
    /// `with_addrs` keeps the members' listener addresses (snapshots);
    /// without them the bytes are restart-stable digests.
    pub fn state_bytes(&self, with_addrs: bool) -> Vec<u8> {
        let mut buf = ByteBuf::with_capacity(512);
        buf.put_u8(STATE_VERSION);
        with_addrs.put(&mut buf);
        self.site.put(&mut buf);
        self.seed.put(&mut buf);
        buf.put_u32(self.members.len() as u32);
        for (s, a) in &self.members {
            s.put(&mut buf);
            if with_addrs {
                a.to_string().put(&mut buf);
            }
        }
        codec::put_state_window(&mut buf, &self.proto.window);
        codec::put_state_iop(&mut buf, &self.proto.iop);
        codec::put_state_gateway(&mut buf, &self.proto.gateway);
        buf.put_u32(self.peers.len() as u32);
        for (peer, ch) in &self.peers {
            peer.put(&mut buf);
            ch.sent.put(&mut buf);
            ch.received.put(&mut buf);
            buf.put_u32(ch.unacked.len() as u32);
            for out in &ch.unacked {
                out.hops.put(&mut buf);
                out.wire.put(&mut buf);
            }
        }
        // The permanently-dead set and this node's replica copies,
        // sorted by primary (BTree iteration order is already sorted).
        buf.put_u32(self.dead.len() as u32);
        for s in &self.dead {
            s.put(&mut buf);
        }
        buf.put_u32(self.proto.replica_iop.len() as u32);
        for (primary, store) in &self.proto.replica_iop {
            primary.put(&mut buf);
            codec::put_state_iop(&mut buf, store);
        }
        buf.put_u32(self.proto.replica_gateway.len() as u32);
        for (primary, store) in &self.proto.replica_gateway {
            primary.put(&mut buf);
            codec::put_state_gateway(&mut buf, store);
        }
        buf.into_vec()
    }

    /// The snapshot body: the full state, addresses included.
    pub fn snapshot_body(&self) -> Vec<u8> {
        self.state_bytes(true)
    }

    /// Rebuild a core from a snapshot body. The caller supplies the
    /// static identity (site, seed, group config) and the snapshot must
    /// agree with it; any structural problem is a loud `InvalidData`.
    pub fn from_snapshot(
        site: SiteId,
        seed: u64,
        group: GroupConfig,
        body: &[u8],
    ) -> io::Result<Core> {
        decode_state(site, seed, group, body).map_err(|what| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("snapshot body rejected ({what}); refusing to load state"),
            )
        })
    }
}

fn decode_state(
    site: SiteId,
    seed: u64,
    group: GroupConfig,
    body: &[u8],
) -> Result<Core, Box<dyn std::error::Error>> {
    let r = &mut Reader::new(body);
    let version = r.u8()?;
    if !(2..=STATE_VERSION).contains(&version) {
        return Err(format!("unknown state version {version}").into());
    }
    if r.u8()? != 1 {
        return Err("snapshot lacks member addresses".into());
    }
    let got_site = SiteId::get(r)?;
    if got_site != site {
        return Err(format!("snapshot is for site {}, this node is {}", got_site.0, site.0).into());
    }
    let got_seed = u64::get(r)?;
    if got_seed != seed {
        return Err(format!("snapshot seed {got_seed} does not match configured {seed}").into());
    }
    let mut members = BTreeMap::new();
    for _ in 0..r.len(SiteId::MIN)? {
        let s = SiteId::get(r)?;
        let a: SocketAddr = String::get(r)?.parse().map_err(|e| format!("member address: {e}"))?;
        members.insert(s, a);
    }
    if !members.contains_key(&site) {
        return Err("snapshot membership is missing this site".into());
    }
    let window = codec::get_state_window(r, site, group.n_max)?;
    let iop = codec::get_state_iop(r)?;
    let gateway = codec::get_state_gateway(r)?;
    if version == 2 {
        // v2's hosted prefixes and its 12 classes × (messages, bytes,
        // hops) of metrics: derived or volatile, so read past.
        <Vec<Prefix>>::get(r)?;
        r.take(12 * 3 * 8)?;
    }
    let mut peers = BTreeMap::new();
    if version < 4 {
        // The global sequence number, the dedup set and the counters.
        r.u64()?;
        r.vec(12, |r| r.take(12))?;
        r.take(2 * 8)?;
    } else {
        for _ in 0..r.len(<(SiteId, u64, u64)>::MIN + <Vec<(u32, Wire)>>::MIN)? {
            let to = SiteId::get(r)?;
            let (sent, received) = (u64::get(r)?, u64::get(r)?);
            let unacked = <Vec<(u32, Wire)>>::get(r)?
                .into_iter()
                .map(|(hops, wire)| Outbound { to, hops, wire });
            peers.insert(to, Channel { sent, received, unacked: unacked.collect() });
        }
    }
    if version == 2 {
        r.take(6 * 8)?; // v2's anomaly counters
    }
    let dead: BTreeSet<SiteId> = <Vec<SiteId>>::get(r)?.into_iter().collect();
    let mut replica_iop = BTreeMap::new();
    for _ in 0..r.len(SiteId::MIN)? {
        replica_iop.insert(SiteId::get(r)?, codec::get_state_iop(r)?);
    }
    let mut replica_gateway = BTreeMap::new();
    for _ in 0..r.len(SiteId::MIN)? {
        replica_gateway.insert(SiteId::get(r)?, codec::get_state_gateway(r)?);
    }
    r.finish()?;
    let mut core = Core {
        site,
        seed,
        group,
        members,
        ring: Ring::new(),
        lp: group.l_min,
        proto: Site { site, window, iop, gateway, replica_iop, replica_gateway },
        metrics: Metrics::new(),
        peers,
        anomalies: Anomalies::default(),
        unsupported: 0,
        outbox: Vec::new(),
        replicas: 1,
        dead,
    };
    core.rebuild_ring();
    Ok(core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Frame;
    use ids::Id;
    use moods::ObjectId;
    use peertrack::messages::Msg;
    use proptiny::{hex, hostile_bytes};

    fn obj(n: u64) -> ObjectId {
        ObjectId(Id::hash(&n.to_be_bytes()))
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn samples() -> Vec<WalRecord> {
        vec![
            WalRecord::Member { site: SiteId(3), addr: "127.0.0.1:7403".into() },
            WalRecord::Capture { at: t(1_000), objects: vec![obj(1), obj(2), obj(3)] },
            WalRecord::Capture { at: t(2_000), objects: Vec::new() },
            WalRecord::Flush { now: t(3_000) },
            WalRecord::Protocol {
                sender: SiteId(1),
                wire: Wire {
                    seq: 9,
                    msg: peertrack::messages::Msg::SetTo {
                        updates: vec![(
                            obj(4),
                            t(10),
                            peertrack::store::Link { site: SiteId(2), time: t(20) },
                        )],
                    },
                },
            },
            WalRecord::Query { messages: 5, hops: 7, bytes: 160 },
            WalRecord::Dead { site: SiteId(2) },
        ]
    }

    /// `samples()[i].encode()` for every sample, as written before
    /// `WalRecord` was declared through the wire schema (`Member`,
    /// `Capture`, `Protocol`, `Query` and `Dead` were already pinned
    /// before the borrowed `Reader`): a data dir from then stays
    /// readable.
    const GOLDEN: [&str; 7] = [
        "01000000030000000e3132372e302e302e313a37343033",
        "0200000000000003e800000003cb473678976f425d6ec1339838f11011007ad27d07aae1b618f604c684ee3189fa1723bef8656fe4461d6580e38ccb6dc72699b6c945e53831dcdf03",
        "0200000000000007d000000000",
        "030000000000000bb8",
        "04000000010000003c03010000000000000000000000000009000000017f028ddbb42e47ac2cd00e27a37bd191f1c2b925000000000000000a000000020000000000000014",
        "050000000000000005000000000000000700000000000000a0",
        "0600000002",
    ];
    /// SHA-1 of the fixture's v4 `state_bytes(true)`, whose delivery
    /// state holds three unacked `GroupIndex` messages to site 3. The v3
    /// encoding of the same fixture hashed to
    /// 46c9a787887b16097eed947e16842cd350af1732, the v2 one to
    /// d38790083689854c3a07e2dd0b0824180fe9f8c2.
    const GOLDEN_SNAPSHOT_SHA1: &str = "d0e0705efefd6ed3a6ed48ca451157fa304b2538";
    /// The fixture's snapshot body as the last v3 build wrote it (global
    /// sequence number, per-message dedup set and counters).
    const V3_SNAPSHOT_BODY: &str = concat!(
        "030100000000000000000000002a00000002000000000000000e3132372e302e302e313a3734303000000003",
        "0000000e3132372e302e302e313a373430330000000000000bb8000000000000000307aae1b618f604c684ee",
        "3189fa1723bef8656fe40000000100000000000003e800000000000000000000000000000000000000000000",
        "00000000461d6580e38ccb6dc72699b6c945e53831dcdf030000000100000000000003e80000000000000000",
        "000000000000000000000000000000000000cb473678976f425d6ec1339838f11011007ad27d000000010000",
        "0000000003e80000000000000000000000000000000000000000000000000000000000000000000000000000",
        "0000000400000001000000010000000000000009000000000000000300000000000000010000000000000000",
        "00000000",
    );
    /// The fixture's snapshot body as the last v2 build wrote it (hosted
    /// prefixes, per-class metrics and anomalies included).
    const V2_SNAPSHOT_BODY: &str = concat!(
        "020100000000000000000000002a00000002000000000000000e3132372e302e302e313a3734303000000003",
        "0000000e3132372e302e302e313a373430330000000000000bb8000000000000000307aae1b618f604c684ee",
        "3189fa1723bef8656fe40000000100000000000003e800000000000000000000000000000000000000000000",
        "00000000461d6580e38ccb6dc72699b6c945e53831dcdf030000000100000000000003e80000000000000000",
        "000000000000000000000000000000000000cb473678976f425d6ec1339838f11011007ad27d000000010000",
        "0000000003e80000000000000000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000300000000000000ab000000000000000300000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000005",
        "00000000000000a0000000000000000700000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000004000000010000000100000000",
        "0000000900000000000000030000000000000001000000000000000000000000000000010000000000000000",
        "000000000000000000000000000000000000000000000000000000000000000000000000",
    );

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    fn fixture() -> (GroupConfig, Core) {
        let addr: SocketAddr = "127.0.0.1:7400".parse().unwrap();
        let group = GroupConfig::default();
        let mut core = Core::new(SiteId(0), 42, group, addr);
        for rec in samples() {
            core.replay(&rec);
        }
        (group, core)
    }

    #[test]
    fn wal_records_roundtrip() {
        let samples = samples();
        for (i, rec) in samples.iter().enumerate() {
            let mut raw = rec.encode();
            let back = WalRecord::decode(&raw).unwrap_or_else(|e| panic!("record {i}: {e}"));
            // `Msg` doesn't derive PartialEq; re-encoding is injective.
            assert_eq!(back.encode(), raw, "record {i} drifted");
            raw.push(0);
            assert!(WalRecord::decode(&raw).is_err(), "record {i} replayed with a trailing byte");
        }
        assert_eq!(samples.len(), GOLDEN.len());
        for (i, golden) in GOLDEN.iter().enumerate() {
            assert_eq!(hex(&samples[i].encode()), *golden, "record {i} changed on disk");
        }
    }

    /// A replica's full state passes a million bytes once its primary
    /// holds ~5,000 objects, and `site::settle` sends it on every
    /// membership change. It must cross a frame and the WAL like any
    /// other message: the replica installs it, counts nothing
    /// unsupported, and applies the sender's next message in turn.
    #[test]
    fn repl_state_over_a_mebibyte_crosses_a_frame_and_the_wal() {
        let group = GroupConfig::default();
        let addr = |port| SocketAddr::from(([127, 0, 0, 1], port));
        let mut a = Core::new(SiteId(0), 42, group, addr(7400)).with_replicas(2);
        let mut b = Core::new(SiteId(1), 42, group, addr(7401)).with_replicas(2);
        a.apply_record(&WalRecord::Capture { at: t(1_000), objects: (0..20_000).map(obj).collect() });
        a.apply_record(&WalRecord::Flush { now: t(2_000) });
        b.apply_record(&WalRecord::Member { site: SiteId(0), addr: addr(7400).to_string() });
        a.apply_record(&WalRecord::Member { site: SiteId(1), addr: addr(7401).to_string() });
        // What the engine does with each frame off the socket.
        let deliver = |to: &mut Core, out: Outbound| {
            let frame = Frame::Protocol { sender: SiteId(0), hops: out.hops, sent_us: 0, wire: out.wire };
            match Frame::decode(&frame.encode()) {
                Ok(Frame::Protocol { sender, wire, .. }) => {
                    let rec = WalRecord::Protocol { sender, wire }.encode();
                    to.apply_record(&WalRecord::decode(&rec).unwrap());
                }
                _ => to.unsupported += 1,
            }
        };
        let to_b = |a: &mut Core| a.take_outbox().into_iter().filter(|o| o.to == SiteId(1));
        let mut biggest = 0;
        for out in to_b(&mut a) {
            if let Msg::ReplState { state, .. } = &out.wire.msg {
                biggest = biggest.max(state.len());
            }
            deliver(&mut b, out);
        }
        assert!(biggest > 1 << 20, "the settle state is only {biggest} bytes");
        let copy = |b: &Core| b.proto().replica_iop.get(&SiteId(0)).map(|c| c.iter().count());
        assert_eq!(copy(&b), Some(20_000), "the replica copy is not installed");
        a.apply_record(&WalRecord::Capture { at: t(3_000), objects: vec![obj(20_000)] });
        a.apply_record(&WalRecord::Flush { now: t(4_000) });
        for out in to_b(&mut a) {
            deliver(&mut b, out);
        }
        assert_eq!(b.unsupported(), 0);
        assert_eq!(b.received(), a.sent(), "every message a sent b was applied");
        assert!(b.proto().replica_iop[&SiteId(0)].knows(obj(20_000)));
    }

    #[test]
    fn wal_record_truncations_never_panic() {
        let all: Vec<Vec<u8>> = samples().iter().map(WalRecord::encode).collect();
        for full in &all {
            for cut in 0..full.len() {
                assert!(WalRecord::decode(&full[..cut]).is_err(), "cut at {cut} of {}", hex(full));
            }
        }
        hostile_bytes(&all, |raw| drop(WalRecord::decode(raw)));
    }

    #[test]
    fn snapshot_roundtrips_to_identical_state() {
        let (group, core) = fixture();
        let body = core.snapshot_body();
        assert_eq!(Id::hash(&body).to_hex(), GOLDEN_SNAPSHOT_SHA1, "snapshot format changed");
        let restored = Core::from_snapshot(SiteId(0), 42, group, &body).unwrap();
        assert_eq!(restored.snapshot_body(), body);
        assert_eq!(restored.state_bytes(false), core.state_bytes(false));
    }

    /// The older formats kept no unacked suffix: they decode to the same
    /// stores with empty delivery state.
    #[test]
    fn v2_and_v3_snapshots_decode_with_empty_delivery_state() {
        let (group, mut core) = fixture();
        assert_eq!(core.unacked(SiteId(3)).count(), 3);
        core.peers.clear();
        for old in [V2_SNAPSHOT_BODY, V3_SNAPSHOT_BODY] {
            let restored = Core::from_snapshot(SiteId(0), 42, group, &unhex(old)).unwrap();
            assert_eq!(restored.state_bytes(true), core.state_bytes(true));
            assert_eq!(restored.metrics(), &Metrics::new(), "v2 metrics are read past");
        }
    }

    #[test]
    fn snapshot_for_wrong_identity_is_rejected() {
        let addr: SocketAddr = "127.0.0.1:7400".parse().unwrap();
        let group = GroupConfig::default();
        let core = Core::new(SiteId(0), 42, group, addr);
        let body = core.snapshot_body();
        assert!(Core::from_snapshot(SiteId(1), 42, group, &body).is_err(), "wrong site");
        assert!(Core::from_snapshot(SiteId(0), 43, group, &body).is_err(), "wrong seed");
        // A digest (no addresses) is not a valid snapshot body.
        let digest = core.state_bytes(false);
        assert!(Core::from_snapshot(SiteId(0), 42, group, &digest).is_err());
    }

    #[test]
    fn state_truncations_and_trailing_bytes_are_loud() {
        let (group, core) = fixture();
        let body = core.snapshot_body();
        for cut in 0..body.len() {
            assert!(
                Core::from_snapshot(SiteId(0), 42, group, &body[..cut]).is_err(),
                "truncation to {cut} went unnoticed"
            );
        }
        let mut padded = body.clone();
        padded.push(0);
        assert!(Core::from_snapshot(SiteId(0), 42, group, &padded).is_err());
        let old = [V2_SNAPSHOT_BODY, V3_SNAPSHOT_BODY].map(unhex);
        let all = [body, old[0].clone(), old[1].clone()];
        hostile_bytes(&all, |raw| drop(Core::from_snapshot(SiteId(0), 42, group, raw)));
    }
}
