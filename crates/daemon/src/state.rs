//! Durable state vocabulary: what the WAL stores and how a whole
//! [`Core`] is serialized.
//!
//! **Log events, not state diffs.** A [`WalRecord`] is an *inbound
//! event* — a membership change, an injected capture, a window flush, a
//! received protocol message, a query's model cost. Recovery replays
//! these through the exact handler code that ran live
//! ([`Core::apply_record`]), so the WAL never has to describe the
//! node's data structures and can never disagree with the handlers
//! about what an event means.
//!
//! **Canonical state encoding.** [`Core::state_bytes`] serializes the
//! full replicated state deterministically: maps are emitted in sorted
//! key order, sets sorted, and per-object IOP/gateway structure reuses
//! the canonical encoders in [`peertrack::codec`]. Two cores that went
//! through the same transitions produce the same bytes, which is the
//! equality `tests/tests/crash_recovery.rs` asserts across a
//! kill-and-restart. The `with_addrs` flag chooses between the two
//! uses: snapshots keep listener addresses (`true` — a restart must
//! recover the membership's dial targets), while comparison digests
//! drop them (`false` — a restarted node binds a fresh ephemeral port,
//! and that difference is *expected*).
//!
//! Excluded on purpose: the Chord ring and `Lp` (derived from the
//! membership via `rebuild_ring`), the wall-clock latency recorder
//! (observability, not protocol state), and the `unsupported`
//! diagnostic counter (bumped by un-logged read-side probes from
//! remote queries, so it is not replicated state and cannot survive
//! replay).

use crate::node::Core;
use crate::proto::{self, ProtoError};
use chord::Ring;
use ids::Prefix;
use moods::SiteId;
use peertrack::bytebuf::{ByteBuf, Reader};
use peertrack::codec::{self, get_site, get_str, get_time, put_site, put_str, put_time};
use peertrack::config::GroupConfig;
use peertrack::messages::Wire;
use peertrack::site::{Anomalies, Site};
use simnet::metrics::{Metrics, ALL_CLASSES};
use simnet::SimTime;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::io;
use std::net::SocketAddr;

/// One durable event. Appended to the WAL *before* the in-memory state
/// is mutated and before the triggering request is acknowledged;
/// replayed in LSN order on recovery.
#[derive(Clone, Debug)]
pub enum WalRecord {
    /// A site's listener address became known (join, broadcast, or the
    /// node's own rebind after a restart).
    Member {
        /// The site.
        site: SiteId,
        /// Its listener address, as received on the wire.
        addr: String,
    },
    /// An injected capture batch ([`crate::proto::Frame::Capture`]).
    Capture {
        /// Virtual capture instant.
        at: SimTime,
        /// Captured objects.
        objects: Vec<moods::ObjectId>,
    },
    /// An explicit window flush ([`crate::proto::Frame::Flush`]).
    Flush {
        /// Virtual flush instant.
        now: SimTime,
    },
    /// A received protocol-plane message.
    Protocol {
        /// Sending site.
        sender: SiteId,
        /// The sequenced payload.
        wire: Wire,
    },
    /// Model cost of one locate/trace answered at this node (queries
    /// mutate the metrics, and metrics are recovered state).
    Query {
        /// Model messages charged.
        messages: u64,
        /// Model overlay hops charged.
        hops: u64,
        /// Model payload bytes charged.
        bytes: u64,
    },
    /// A site was declared **permanently dead** (kill-forever). The
    /// receiver drops it from the membership; with replication on, the
    /// heir merges its replica copy of the dead site's gateway shards
    /// and placement is re-established on the shrunken ring.
    Dead {
        /// The dead site.
        site: SiteId,
    },
}

const R_MEMBER: u8 = 1;
const R_CAPTURE: u8 = 2;
const R_FLUSH: u8 = 3;
const R_PROTOCOL: u8 = 4;
const R_QUERY: u8 = 5;
const R_DEAD: u8 = 6;

impl WalRecord {
    /// Serialize to a WAL payload. Bodies a frame also carries
    /// (`Member`, `Capture`, `Protocol`) are written by the frame's
    /// functions.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = ByteBuf::with_capacity(32);
        match self {
            WalRecord::Member { site, addr } => {
                buf.put_u8(R_MEMBER);
                proto::put_member(&mut buf, *site, addr);
            }
            WalRecord::Capture { at, objects } => {
                buf.put_u8(R_CAPTURE);
                proto::put_capture(&mut buf, *at, objects);
            }
            WalRecord::Flush { now } => {
                buf.put_u8(R_FLUSH);
                put_time(&mut buf, *now);
            }
            WalRecord::Protocol { sender, wire } => {
                buf.put_u8(R_PROTOCOL);
                put_site(&mut buf, *sender);
                proto::put_wire(&mut buf, wire);
            }
            WalRecord::Query { messages, hops, bytes } => {
                buf.put_u8(R_QUERY);
                buf.put_u64(*messages);
                buf.put_u64(*hops);
                buf.put_u64(*bytes);
            }
            WalRecord::Dead { site } => {
                buf.put_u8(R_DEAD);
                put_site(&mut buf, *site);
            }
        }
        buf.into_vec()
    }

    /// Deserialize a WAL payload, read in place. Bytes after the record
    /// are an error: a record from a format this build does not know
    /// must not replay as if it were complete.
    pub fn decode(raw: &[u8]) -> Result<WalRecord, ProtoError> {
        let r = &mut Reader::new(raw);
        let rec = match r.u8()? {
            R_MEMBER => {
                let (site, addr) = proto::get_member(r)?;
                WalRecord::Member { site, addr }
            }
            R_CAPTURE => {
                let (at, objects) = proto::get_capture(r)?;
                WalRecord::Capture { at, objects }
            }
            R_FLUSH => WalRecord::Flush { now: get_time(r)? },
            R_PROTOCOL => WalRecord::Protocol { sender: get_site(r)?, wire: proto::get_wire(r)? },
            R_QUERY => WalRecord::Query { messages: r.u64()?, hops: r.u64()?, bytes: r.u64()? },
            R_DEAD => WalRecord::Dead { site: get_site(r)? },
            other => return Err(ProtoError::BadKind(other)),
        };
        r.finish()?;
        Ok(rec)
    }
}

const STATE_VERSION: u8 = 2;

impl Core {
    /// The canonical deterministic encoding of the full replicated
    /// state. `with_addrs` keeps the members' listener addresses
    /// (snapshots); without them the bytes are restart-stable digests.
    pub fn state_bytes(&self, with_addrs: bool) -> Vec<u8> {
        let mut buf = ByteBuf::with_capacity(512);
        buf.put_u8(STATE_VERSION);
        buf.put_u8(u8::from(with_addrs));
        put_site(&mut buf, self.site);
        buf.put_u64(self.seed);
        buf.put_u32(self.members.len() as u32);
        for (s, a) in &self.members {
            put_site(&mut buf, *s);
            if with_addrs {
                put_str(&mut buf, &a.to_string());
            }
        }
        codec::put_state_window(&mut buf, &self.proto.window);
        codec::put_state_iop(&mut buf, &self.proto.iop);
        codec::put_state_gateway(&mut buf, &self.proto.gateway);
        let mut hosted: Vec<&Prefix> = self.hosted.iter().collect();
        hosted.sort();
        buf.put_u32(hosted.len() as u32);
        for p in hosted {
            codec::put_prefix(&mut buf, p);
        }
        for class in ALL_CLASSES {
            buf.put_u64(self.metrics.messages_of(class));
            buf.put_u64(self.metrics.bytes_of(class));
            buf.put_u64(self.metrics.hops_of(class));
        }
        buf.put_u64(self.next_seq);
        let mut seen: Vec<(u32, u64)> = self.seen.iter().copied().collect();
        seen.sort_unstable();
        buf.put_u32(seen.len() as u32);
        for (sender, seq) in seen {
            buf.put_u32(sender);
            buf.put_u64(seq);
        }
        buf.put_u64(self.sent);
        buf.put_u64(self.received);
        let a = &self.anomalies;
        for v in [
            a.out_of_order_arrivals,
            a.dangling_iop_updates,
            a.dropped_to_dead,
            a.retries_exhausted,
            a.duplicates_suppressed,
            a.refresh_failures,
        ] {
            buf.put_u64(v);
        }
        // v2: the permanently-dead set and this node's replica copies,
        // sorted by primary (BTree iteration order is already sorted).
        buf.put_u32(self.dead.len() as u32);
        for s in &self.dead {
            put_site(&mut buf, *s);
        }
        buf.put_u32(self.proto.replica_iop.len() as u32);
        for (primary, store) in &self.proto.replica_iop {
            put_site(&mut buf, *primary);
            codec::put_state_iop(&mut buf, store);
        }
        buf.put_u32(self.proto.replica_gateway.len() as u32);
        for (primary, store) in &self.proto.replica_gateway {
            put_site(&mut buf, *primary);
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
    if version != STATE_VERSION {
        return Err(format!("unknown state version {version}").into());
    }
    if r.u8()? != 1 {
        return Err("snapshot lacks member addresses".into());
    }
    let got_site = get_site(r)?;
    if got_site != site {
        return Err(format!("snapshot is for site {}, this node is {}", got_site.0, site.0).into());
    }
    let got_seed = r.u64()?;
    if got_seed != seed {
        return Err(format!("snapshot seed {got_seed} does not match configured {seed}").into());
    }
    let mut members = BTreeMap::new();
    for _ in 0..r.len(4)? {
        let s = get_site(r)?;
        let a: SocketAddr = get_str(r)?.parse().map_err(|e| format!("member address: {e}"))?;
        members.insert(s, a);
    }
    if !members.contains_key(&site) {
        return Err("snapshot membership is missing this site".into());
    }
    let window = codec::get_state_window(r, site, group.n_max)?;
    let iop = codec::get_state_iop(r)?;
    let gateway = codec::get_state_gateway(r)?;
    let hosted: HashSet<Prefix> =
        r.vec(peertrack::messages::PREFIX_BYTES, codec::get_prefix)?.into_iter().collect();
    let mut metrics = Metrics::new();
    for class in ALL_CLASSES {
        let (messages, bytes, hops) = (r.u64()?, r.u64()?, r.u64()?);
        metrics.record_bulk(class, messages, bytes, hops);
    }
    let next_seq = r.u64()?;
    let seen: HashSet<(u32, u64)> = r.vec(12, |r| Ok((r.u32()?, r.u64()?)))?.into_iter().collect();
    let sent = r.u64()?;
    let received = r.u64()?;
    let anomalies = Anomalies {
        out_of_order_arrivals: r.u64()?,
        dangling_iop_updates: r.u64()?,
        dropped_to_dead: r.u64()?,
        retries_exhausted: r.u64()?,
        duplicates_suppressed: r.u64()?,
        refresh_failures: r.u64()?,
    };
    let dead: BTreeSet<SiteId> = r.vec(4, get_site)?.into_iter().collect();
    let mut replica_iop = BTreeMap::new();
    for _ in 0..r.len(4)? {
        replica_iop.insert(get_site(r)?, codec::get_state_iop(r)?);
    }
    let mut replica_gateway = BTreeMap::new();
    for _ in 0..r.len(4)? {
        replica_gateway.insert(get_site(r)?, codec::get_state_gateway(r)?);
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
        hosted,
        metrics,
        next_seq,
        seen,
        sent,
        received,
        anomalies,
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
    use ids::Id;
    use moods::ObjectId;
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

    /// `samples()[index].encode()` for `Member`, `Capture`, `Protocol`,
    /// `Query` and `Dead`, and the SHA-1 of the snapshot fixture's
    /// `state_bytes(true)`, as written by the commit before the borrowed
    /// `Reader` (PR 18): a data dir from then stays readable.
    const GOLDEN: [(usize, &str); 5] = [
        (0, "01000000030000000e3132372e302e302e313a37343033"),
        (1, "0200000000000003e800000003cb473678976f425d6ec1339838f11011007ad27d07aae1b618f604c684ee3189fa1723bef8656fe4461d6580e38ccb6dc72699b6c945e53831dcdf03"),
        (4, "04000000010000003c03010000000000000000000000000009000000017f028ddbb42e47ac2cd00e27a37bd191f1c2b925000000000000000a000000020000000000000014"),
        (5, "050000000000000005000000000000000700000000000000a0"),
        (6, "0600000002"),
    ];
    const GOLDEN_SNAPSHOT_SHA1: &str = "d38790083689854c3a07e2dd0b0824180fe9f8c2";

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
        for (i, golden) in GOLDEN {
            assert_eq!(hex(&samples[i].encode()), golden, "record {i} changed on disk");
        }
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
        hostile_bytes(&[body], |raw| drop(Core::from_snapshot(SiteId(0), 42, group, raw)));
    }
}
