//! Daemon wire protocol: everything that crosses a socket between
//! `peertrackd` nodes (and between the cluster harness and a node).
//!
//! One [`Frame`] per transport frame. Three families:
//!
//! * **Protocol** — an asynchronous PeerTrack message (`GroupIndex`,
//!   `SetTo`, `SetFrom`, …), the payload encoded by the canonical
//!   [`peertrack::codec`] and wrapped in an envelope carrying the
//!   sender, the *model* hop count the simulator would have charged,
//!   and a wall-clock send timestamp for receiver-side latency
//!   histograms. Fire-and-forget: no reply.
//! * **RPC** — the one node↔node request a query origin makes:
//!   [`Frame::Holdings`], a site's visit history of one object plus its
//!   index entry, replied with [`Frame::HoldingsResp`] on the
//!   originating connection.
//! * **Control** — harness/operator→node requests: capture injection,
//!   window flush, locate/trace, status, shutdown.
//!
//! The wire format is [`Frame`]'s declaration through
//! [`peertrack::wire_enum!`]: a kind byte, then each field in declaration
//! order, encoded by its [`peertrack::schema::Field`] — so an encoder
//! cannot drift from its decoder. Options follow their type's form,
//! vectors are `u32` counts bounded by arithmetic before any allocation,
//! byte strings by their input, and trailing bytes are rejected.

use moods::{ObjectId, Path, SiteId};
use peertrack::bytebuf::{ByteBuf, Reader};
use peertrack::codec::DecodeError;
use peertrack::messages::Wire;
use peertrack::schema::History;
use peertrack::store::{IopRecord, Link};
use peertrack::{wire_enum, wire_struct};
use simnet::SimTime;

/// Decode failures: the frame's own, or the shared field readers'.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Unknown frame kind byte.
    BadKind(u8),
    /// A field, or an embedded `peertrack::codec` payload, failed to
    /// decode: truncated, over-long, out of range, not UTF-8, trailing
    /// bytes.
    Codec(DecodeError),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            ProtoError::Codec(e) => write!(f, "frame: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<DecodeError> for ProtoError {
    fn from(e: DecodeError) -> ProtoError {
        ProtoError::Codec(e)
    }
}

/// Query cost triple as carried in responses: the *model* accounting
/// the origin charged, echoed so harnesses can cross-check it against
/// the simulator without touching the node's metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostWire {
    /// Model messages.
    pub messages: u64,
    /// Model overlay hops.
    pub hops: u64,
    /// Model payload bytes.
    pub bytes: u64,
}

wire_struct! {
    CostWire { messages: u64, hops: u64, bytes: u64 }
}

impl From<peertrack::query::QueryCost> for CostWire {
    fn from(c: peertrack::query::QueryCost) -> CostWire {
        CostWire { messages: c.messages, hops: c.hops, bytes: c.bytes }
    }
}

wire_enum! {
    /// Everything that crosses a daemon socket. Kinds 1–26 are requests,
    /// 32–43 responses. Retired and never reused: 11 and 36 (the
    /// networked Chord walk), and 12–14, 16, 17, 22, 37 and 38 (the
    /// per-view reads [`Frame::Holdings`] replaced).
    #[derive(Clone, Debug)]
    pub enum Frame {
        // -------------------------------------------------- protocol plane
        /// Asynchronous PeerTrack message. `hops` is the model hop count
        /// charged at the sender; `sent_us` the sender's wall clock (µs
        /// since `UNIX_EPOCH`) for the receiver's latency histogram.
        Protocol {
            /// Sending site.
            sender: SiteId,
            /// Model overlay hops this delivery was charged.
            hops: u32,
            /// Sender wall clock, µs since `UNIX_EPOCH`.
            sent_us: u64,
            /// The protocol payload (codec-encoded on the wire).
            wire: Wire,
        } = 1,

        // -------------------------------------------------- membership
        /// "Let me in": sent to the bootstrap node, replied with
        /// [`Frame::JoinResp`]; the bootstrap then broadcasts
        /// [`Frame::PeerJoined`] to every existing member.
        JoinReq {
            /// Joining site.
            site: SiteId,
            /// Its listener address (`host:port`).
            addr: String,
        } = 2,
        /// Bootstrap's reply: the full membership it now knows (itself and
        /// the joiner included).
        JoinResp {
            /// `(site, listener address)` pairs.
            peers: Vec<(SiteId, String)>,
        } = 3,
        /// Bootstrap→member broadcast: a new peer arrived.
        PeerJoined {
            /// The new site.
            site: SiteId,
            /// Its listener address.
            addr: String,
        } = 4,
        /// Harness→member broadcast: `site` is **permanently dead** (the
        /// kill-forever fault model). Receivers drop it from the
        /// membership, fail over its key ranges to the heir and
        /// re-establish replica placement. Replied with Ack.
        PeerDead {
            /// The dead site.
            site: SiteId,
        } = 21,

        // -------------------------------------------------- control plane
        /// Inject a capture at virtual instant `at` (the cluster drives
        /// virtual time explicitly; DESIGN.md §11). Replied with Ack after
        /// the capture is absorbed.
        Capture {
            /// Virtual capture instant.
            at: SimTime,
            /// Captured objects.
            objects: Vec<ObjectId>,
        } = 5,
        /// Flush the open capture window as if `Tmax` fired at `now`.
        /// Replied with Ack after the indexing messages are sent.
        Flush {
            /// Virtual flush instant.
            now: SimTime,
        } = 6,
        /// `L(o, t)` with the receiving node as query origin.
        Locate {
            /// The object.
            object: ObjectId,
            /// The instant asked about.
            t: SimTime,
        } = 7,
        /// `TR(o, t0, t1)` with the receiving node as query origin.
        Trace {
            /// The object.
            object: ObjectId,
            /// Window start.
            t0: SimTime,
            /// Window end.
            t1: SimTime,
        } = 8,
        /// Liveness/progress probe.
        Status = 9,
        /// Orderly shutdown request. Replied with Ack, then the node exits.
        Shutdown = 10,
        /// Abrupt-death request (fault injection): replied with Ack, then
        /// the node exits **without** flushing, snapshotting or closing
        /// anything — volatile state is abandoned exactly as a `kill -9`
        /// would abandon it. Recovery must come from the data dir alone.
        Crash = 18,
        /// Dump the node's canonical state encoding (addresses excluded, so
        /// dumps compare equal across a restart onto a new port). Replied
        /// with [`Frame::StateResp`].
        StateDump = 19,
        /// Read the node's query-load accounting: per-site served-locate
        /// attribution from queries this node originated, plus its
        /// locate-cache counters (DESIGN.md §15). Engine-side volatile
        /// state — a restarted node reports zeros. Replied with
        /// [`Frame::QueryLoadResp`].
        QueryLoad = 23,
        /// "What listener address do you have for `site`?" — harnesses poll
        /// this to watch a restarted peer's new address propagate. Replied
        /// with [`Frame::AddrResp`].
        Resolve {
            /// The site being resolved.
            site: SiteId,
        } = 20,
        /// WAN fault injection: sever the region pair `(a, b)` of the
        /// node's configured topology. Nothing is written to a peer across
        /// the severed pair: its protocol messages and acks are **held** in
        /// the delivery state until the matching [`Frame::RegionHeal`] —
        /// mirroring the simulator's park-and-release `GeoPlane::sever`.
        /// Replied with Ack; a no-op on nodes without a topology.
        RegionCut {
            /// One region of the severed pair.
            a: u16,
            /// The other region (order-insensitive; `a == b` is rejected by
            /// the harness, not the wire).
            b: u16,
        } = 24,
        /// Heal the region pair `(a, b)`: each peer across it is written our
        /// watermark and then the held messages from its link's cursor, in
        /// sequence order, as if they had merely been delayed. Replied with
        /// Ack.
        RegionHeal {
            /// One region of the healed pair.
            a: u16,
            /// The other region.
            b: u16,
        } = 25,

        // -------------------------------------------------- rpc plane
        /// The one read a query makes of a site: everything it holds
        /// about `object`. Replied with [`Frame::HoldingsResp`].
        Holdings {
            /// The object.
            object: ObjectId,
            /// `Some(primary)`: read the receiver's replica copy of dead
            /// `primary`'s repository instead of its own.
            copy_of: Option<SiteId>,
        } = 26,
        /// The latest IOP record with arrival ≤ `t`. Declared only for
        /// the benchmark's modeled RPC exchange: no node sends or serves
        /// it.
        RecLatestAtOrBefore {
            /// The object.
            object: ObjectId,
            /// Upper bound on arrival.
            t: SimTime,
        } = 15,

        // -------------------------------------------------- responses
        /// Generic acknowledgement.
        Ack = 32,
        /// Reply to [`Frame::Locate`].
        LocateResp {
            /// The answer (`None` = unknown object / incomplete data).
            answer: Option<SiteId>,
            /// Model cost charged at the origin.
            cost: CostWire,
            /// False when traversal hit missing data.
            complete: bool,
        } = 33,
        /// Reply to [`Frame::Trace`].
        TraceResp {
            /// The visits overlapping the window.
            path: Path,
            /// Model cost charged at the origin.
            cost: CostWire,
            /// False when traversal hit missing data.
            complete: bool,
        } = 34,
        /// Reply to [`Frame::Status`].
        StatusResp {
            /// The answering site.
            site: SiteId,
            /// Members it currently knows (itself included).
            members: u32,
            /// Protocol messages sequenced for other nodes so far.
            sent: u64,
            /// Protocol messages from other nodes applied so far.
            received: u64,
            /// Unacknowledged messages to reachable peers.
            in_flight: u64,
            /// Unacknowledged messages held back: their peer is across a
            /// region cut or down since a failed dial.
            held: u64,
        } = 35,
        /// Reply to [`Frame::Holdings`].
        HoldingsResp {
            /// The site's visit records of the object (of its replica
            /// copy's, for `copy_of`), in arrival order.
            history: History,
            /// The site's current-`Lp` index entry for the object, as its
            /// latest-state link; `None` for a replica copy.
            entry: Option<Link>,
        } = 43,
        /// Reply to [`Frame::RecLatestAtOrBefore`]. Declared only for the
        /// benchmark's modeled RPC exchange: no node sends or serves it.
        RecResp(Option<IopRecord>) = 39,
        /// Reply to [`Frame::QueryLoad`]. `loads` attributes each locate
        /// this node originated to the site that answered it (gateway or
        /// record holder; cache hits go to the origin itself) — merging
        /// every node's slice reproduces the simulator's per-site
        /// `query_load` tally.
        QueryLoadResp {
            /// `(answering site, locates attributed)` pairs, site-sorted.
            loads: Vec<(SiteId, u64)>,
            /// Locate-cache hits (0 when no cache is configured).
            hits: u64,
            /// Locate-cache misses (0 when no cache is configured).
            misses: u64,
        } = 42,
        /// Reply to [`Frame::StateDump`]: the opaque canonical encoding.
        StateResp(Vec<u8>) = 40,
        /// Reply to [`Frame::Resolve`]: the listener address on file.
        AddrResp(Option<String>) = 41,
    }
}

impl Frame {
    /// Serialize to a transport payload: the kind byte, then the fields.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = ByteBuf::with_capacity(64);
        buf.put_u8(self.tag());
        self.put_fields(&mut buf);
        buf.into_vec()
    }

    /// Deserialize from a transport payload, read in place. Bytes after
    /// the frame are an error.
    pub fn decode(raw: &[u8]) -> Result<Frame, ProtoError> {
        let r = &mut Reader::new(raw);
        let frame = Frame::get_fields(r.u8()?, r, ProtoError::BadKind)?;
        r.finish()?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids::{Id, Prefix};
    use moods::Visit;
    use peertrack::messages::Msg;
    use proptiny::{hex, hostile_bytes};

    fn obj(n: u64) -> ObjectId {
        ObjectId(Id::hash(&n.to_be_bytes()))
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn link(site: u32, us: u64) -> Link {
        Link { site: SiteId(site), time: t(us) }
    }

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Protocol {
                sender: SiteId(3),
                hops: 2,
                sent_us: 1_234_567,
                wire: Wire {
                    seq: 42,
                    msg: Msg::GroupIndex {
                        prefix: Prefix::from_bit_str("010"),
                        site: SiteId(3),
                        members: vec![(obj(1), t(5)), (obj(2), t(6))],
                    },
                },
            },
            Frame::JoinReq { site: SiteId(4), addr: "127.0.0.1:9999".into() },
            Frame::JoinResp {
                peers: vec![(SiteId(0), "127.0.0.1:1".into()), (SiteId(4), "127.0.0.1:2".into())],
            },
            Frame::PeerJoined { site: SiteId(2), addr: "[::1]:80".into() },
            Frame::PeerDead { site: SiteId(6) },
            Frame::Capture { at: t(99), objects: vec![obj(7), obj(8)] },
            Frame::Flush { now: t(100) },
            Frame::Locate { object: obj(9), t: t(55) },
            Frame::Trace { object: obj(9), t0: t(1), t1: t(1000) },
            Frame::Status,
            Frame::QueryLoad,
            Frame::Shutdown,
            Frame::Crash,
            Frame::StateDump,
            Frame::Resolve { site: SiteId(3) },
            Frame::RegionCut { a: 0, b: 2 },
            Frame::RegionHeal { a: 0, b: 2 },
            Frame::RecLatestAtOrBefore { object: obj(1), t: t(3) },
            Frame::Ack,
            Frame::LocateResp {
                answer: Some(SiteId(2)),
                cost: CostWire { messages: 3, hops: 5, bytes: 144 },
                complete: true,
            },
            Frame::LocateResp { answer: None, cost: CostWire::default(), complete: false },
            Frame::TraceResp {
                path: vec![
                    Visit { site: SiteId(1), arrived: t(10), departed: Some(t(20)) },
                    Visit { site: SiteId(2), arrived: t(20), departed: None },
                ],
                cost: CostWire { messages: 2, hops: 2, bytes: 96 },
                complete: true,
            },
            Frame::StatusResp {
                site: SiteId(1),
                members: 5,
                sent: 10,
                received: 9,
                in_flight: 1,
                held: 0,
            },
            Frame::QueryLoadResp {
                loads: vec![(SiteId(0), 3), (SiteId(2), 17)],
                hits: 11,
                misses: 9,
            },
            Frame::QueryLoadResp { loads: Vec::new(), hits: 0, misses: 0 },
            Frame::RecResp(Some(IopRecord {
                arrived: t(1),
                from: None,
                to: Some(Link { site: SiteId(2), time: t(9) }),
            })),
            Frame::RecResp(None),
            Frame::StateResp(vec![0xAB, 0xCD, 0xEF, 0x00, 0x01]),
            Frame::StateResp(Vec::new()),
            Frame::AddrResp(Some("127.0.0.1:7401".into())),
            Frame::AddrResp(None),
            Frame::Holdings { object: obj(1), copy_of: None },
            Frame::Holdings { object: obj(1), copy_of: Some(SiteId(6)) },
            Frame::HoldingsResp {
                history: History(vec![
                    IopRecord { arrived: t(1), from: None, to: Some(link(2, 5)) },
                    IopRecord { arrived: t(9), from: Some(link(2, 5)), to: None },
                ]),
                entry: Some(link(1, 9)),
            },
            Frame::HoldingsResp { history: History::default(), entry: None },
        ]
    }

    /// `samples()[i].encode()` for every sample, as written before
    /// `Frame` was declared through the wire schema: a peer from then
    /// still reads every frame. `Capture`, `Protocol{GroupIndex}` and
    /// `LocateResp` were already pinned before the borrowed `Reader`;
    /// before `in_flight` and `held`, `StatusResp` encoded as
    /// 230000000100000005000000000000000a0000000000000009.
    const GOLDEN: [&str; 35] = [
        "010000000300000002000000000012d687000000590201000000000000000000000000002a0340000000000000000000000300000002cb473678976f425d6ec1339838f11011007ad27d000000000000000507aae1b618f604c684ee3189fa1723bef8656fe40000000000000006",
        "02000000040000000e3132372e302e302e313a39393939",
        "0300000002000000000000000b3132372e302e302e313a31000000040000000b3132372e302e302e313a32",
        "0400000002000000085b3a3a315d3a3830",
        "1500000006",
        "05000000000000006300000002aebf740096fea5f738202d5d299fc84e932155d5c9e1208fdafeca60716624e08ac95d5d3036071c",
        "060000000000000064",
        "0763b0ee19900a432c8601bd0bed2b1f881fbd7a860000000000000037",
        "0863b0ee19900a432c8601bd0bed2b1f881fbd7a86000000000000000100000000000003e8",
        "09",
        "17",
        "0a",
        "12",
        "13",
        "1400000003",
        "180000000000000002",
        "190000000000000002",
        "0fcb473678976f425d6ec1339838f11011007ad27d0000000000000003",
        "20",
        "21010000000200000000000000030000000000000005000000000000009001",
        "21000000000000000000000000000000000000000000000000000000000000",
        "220000000200000001000000000000000a01000000000000001400000002000000000000001400000000000000000000000000000000020000000000000002000000000000006001",
        "230000000100000005000000000000000a000000000000000900000000000000010000000000000000",
        "2a00000002000000000000000000000003000000020000000000000011000000000000000b0000000000000009",
        "2a0000000000000000000000000000000000000000",
        "270100000000000000010000000000000000000000000001000000020000000000000009",
        "2700",
        "2800000005abcdef0001",
        "2800000000",
        "29010000000e3132372e302e302e313a37343031",
        "2900",
        "1acb473678976f425d6ec1339838f11011007ad27d0000000000",
        "1acb473678976f425d6ec1339838f11011007ad27d0100000006",
        "2b00000002000000000000000100000000000000000000000000010000000200000000000000050000000000000009010000000200000000000000050000000000000000000000000001000000010000000000000009",
        "2b0000000000000000000000000000000000",
    ];

    #[test]
    fn all_frames_roundtrip() {
        let samples = samples();
        for (i, f) in samples.iter().enumerate() {
            let mut raw = f.encode();
            let back = Frame::decode(&raw).unwrap_or_else(|e| panic!("frame {i}: {e}"));
            // `Msg` doesn't derive PartialEq; compare via re-encoding,
            // which is injective for this format.
            assert_eq!(back.encode(), raw, "frame {i} drifted");
            raw.push(0);
            assert_eq!(
                Frame::decode(&raw).unwrap_err(),
                ProtoError::Codec(DecodeError::Trailing(1)),
                "frame {i} served with a trailing byte"
            );
        }
        assert_eq!(samples.len(), GOLDEN.len());
        for (i, golden) in GOLDEN.iter().enumerate() {
            assert_eq!(hex(&samples[i].encode()), *golden, "frame {i} changed on the wire");
        }
        // A region id past `u16` names no pair; it must not be narrowed
        // into "sever (0, 1)".
        let mut cut = Frame::RegionCut { a: 0, b: 1 }.encode();
        cut[1..5].copy_from_slice(&65_536u32.to_be_bytes());
        assert_eq!(
            Frame::decode(&cut).unwrap_err(),
            ProtoError::Codec(DecodeError::OutOfRange(65_536))
        );
        // Retired kinds — the networked Chord walk (11, 36) and the
        // per-view reads (12–14, 16, 17, 22, 37, 38) — no longer name a
        // frame, whatever a peer from before sends with them.
        for kind in [11, 12, 13, 14, 16, 17, 22, 36, 37, 38] {
            let old = [&[kind][..], &[1; 40]].concat();
            assert_eq!(Frame::decode(&old).unwrap_err(), ProtoError::BadKind(kind));
        }
    }

    /// A history reply out of arrival order is refused: the planner
    /// binary-searches what a peer sends.
    #[test]
    fn holdings_reply_out_of_arrival_order_is_refused() {
        let rec = |us| IopRecord { arrived: t(us), from: None, to: None };
        let reply = |history| Frame::HoldingsResp { history: History(history), entry: None };
        let same_instant = reply(vec![rec(1), rec(3), rec(3)]).encode();
        assert!(Frame::decode(&same_instant).is_ok());
        assert_eq!(
            Frame::decode(&reply(vec![rec(3), rec(1)]).encode()).unwrap_err(),
            ProtoError::Codec(DecodeError::Unsorted)
        );
    }

    #[test]
    fn hostile_length_rejected_before_allocation() {
        // A Capture frame claiming ~4Gi objects must fail by arithmetic.
        let mut buf = ByteBuf::new();
        buf.put_u8(Frame::Capture { at: t(0), objects: Vec::new() }.tag());
        buf.put_u64(0);
        buf.put_u32(u32::MAX);
        assert_eq!(
            Frame::decode(&buf.into_vec()).unwrap_err(),
            ProtoError::Codec(DecodeError::TooLong(u32::MAX))
        );
    }

    #[test]
    fn truncations_never_panic() {
        let all: Vec<Vec<u8>> = samples().iter().map(Frame::encode).collect();
        for full in &all {
            for cut in 0..full.len() {
                assert!(Frame::decode(&full[..cut]).is_err(), "cut at {cut} of {}", hex(full));
            }
        }
        hostile_bytes(&all, |raw| drop(Frame::decode(raw)));
    }

    #[test]
    fn unknown_kind_rejected() {
        assert_eq!(Frame::decode(&[200]).unwrap_err(), ProtoError::BadKind(200));
        assert_eq!(Frame::decode(&[]).unwrap_err(), ProtoError::Codec(DecodeError::Truncated));
    }
}
