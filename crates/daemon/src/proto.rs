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
//! * **RPCs** — node↔node request/response pairs driven by a query
//!   origin: gateway/IOP probes, IOP record fetches. Replied on the
//!   originating connection.
//! * **Control** — harness/operator→node requests: capture injection,
//!   window flush, locate/trace, status, shutdown.
//!
//! Encoding is built from `peertrack::bytebuf` (big-endian writer,
//! checked borrowed reader — hermetic policy) and the field codecs of
//! [`peertrack::codec`], so it shares the codec's conventions: options
//! as a presence byte over a fixed-width body, `u32` length-prefixed
//! vectors bounded by arithmetic before any allocation, trailing bytes
//! rejected.

use ids::ID_BYTES;
use moods::{ObjectId, Path, SiteId, Visit};
use peertrack::bytebuf::{ByteBuf, Reader};
use peertrack::codec::{
    self, get_blob, get_object, get_opt_link, get_record, get_site, get_str, get_time, put_blob,
    put_object, put_opt_link, put_record, put_site, put_str, put_time, DecodeError,
};
use peertrack::messages::Wire;
use peertrack::store::{IopRecord, Link};
use simnet::SimTime;

/// Decode failures: the frame's own, or the shared field readers'.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Unknown frame kind byte.
    BadKind(u8),
    /// A region id does not fit the topology's `u16` labels.
    BadRegion(u32),
    /// A field, or an embedded `peertrack::codec` payload, failed to
    /// decode: truncated, over-long, not UTF-8, trailing bytes.
    Codec(DecodeError),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            ProtoError::BadRegion(r) => write!(f, "region id {r} out of range"),
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

impl From<peertrack::query::QueryCost> for CostWire {
    fn from(c: peertrack::query::QueryCost) -> CostWire {
        CostWire { messages: c.messages, hops: c.hops, bytes: c.bytes }
    }
}

/// Everything that crosses a daemon socket.
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
    },

    // -------------------------------------------------- membership
    /// "Let me in": sent to the bootstrap node, replied with
    /// [`Frame::JoinResp`]; the bootstrap then broadcasts
    /// [`Frame::PeerJoined`] to every existing member.
    JoinReq {
        /// Joining site.
        site: SiteId,
        /// Its listener address (`host:port`).
        addr: String,
    },
    /// Bootstrap's reply: the full membership it now knows (itself and
    /// the joiner included).
    JoinResp {
        /// `(site, listener address)` pairs.
        peers: Vec<(SiteId, String)>,
    },
    /// Bootstrap→member broadcast: a new peer arrived.
    PeerJoined {
        /// The new site.
        site: SiteId,
        /// Its listener address.
        addr: String,
    },
    /// Harness→member broadcast: `site` is **permanently dead** (the
    /// kill-forever fault model). Receivers drop it from the
    /// membership, fail over its key ranges to the heir and
    /// re-establish replica placement. Replied with Ack.
    PeerDead {
        /// The dead site.
        site: SiteId,
    },

    // -------------------------------------------------- control plane
    /// Inject a capture at virtual instant `at` (the cluster drives
    /// virtual time explicitly; DESIGN.md §11). Replied with Ack after
    /// the capture is absorbed.
    Capture {
        /// Virtual capture instant.
        at: SimTime,
        /// Captured objects.
        objects: Vec<ObjectId>,
    },
    /// Flush the open capture window as if `Tmax` fired at `now`.
    /// Replied with Ack after the indexing messages are sent.
    Flush {
        /// Virtual flush instant.
        now: SimTime,
    },
    /// `L(o, t)` with the receiving node as query origin.
    Locate {
        /// The object.
        object: ObjectId,
        /// The instant asked about.
        t: SimTime,
    },
    /// `TR(o, t0, t1)` with the receiving node as query origin.
    Trace {
        /// The object.
        object: ObjectId,
        /// Window start.
        t0: SimTime,
        /// Window end.
        t1: SimTime,
    },
    /// Liveness/progress probe.
    Status,
    /// Orderly shutdown request. Replied with Ack, then the node exits.
    Shutdown,
    /// Abrupt-death request (fault injection): replied with Ack, then
    /// the node exits **without** flushing, snapshotting or closing
    /// anything — volatile state is abandoned exactly as a `kill -9`
    /// would abandon it. Recovery must come from the data dir alone.
    Crash,
    /// Dump the node's canonical state encoding (addresses excluded, so
    /// dumps compare equal across a restart onto a new port). Replied
    /// with [`Frame::StateResp`].
    StateDump,
    /// Read the node's query-load accounting: per-site served-locate
    /// attribution from queries this node originated, plus its
    /// locate-cache counters (DESIGN.md §15). Engine-side volatile
    /// state — a restarted node reports zeros. Replied with
    /// [`Frame::QueryLoadResp`].
    QueryLoad,
    /// "What listener address do you have for `site`?" — harnesses poll
    /// this to watch a restarted peer's new address propagate. Replied
    /// with [`Frame::AddrResp`].
    Resolve {
        /// The site being resolved.
        site: SiteId,
    },
    /// WAN fault injection: sever the region pair `(a, b)` of the
    /// node's configured topology. Protocol frames whose destination
    /// lies across the severed pair are **parked** at the sender (not
    /// dropped, not counted sent) until the matching
    /// [`Frame::RegionHeal`] releases them in original order — mirroring
    /// the simulator's park-and-release `GeoPlane::sever`. Replied with
    /// Ack; a no-op on nodes without a topology.
    RegionCut {
        /// One region of the severed pair.
        a: u16,
        /// The other region (order-insensitive; `a == b` is rejected by
        /// the harness, not the wire).
        b: u16,
    },
    /// Heal the region pair `(a, b)`: parked frames for the pair are
    /// re-sent in the order they were parked (per-destination sequence
    /// order preserved, so duplicate suppression and in-order gateway
    /// updates behave as if the frames had merely been delayed).
    /// Replied with Ack.
    RegionHeal {
        /// One region of the healed pair.
        a: u16,
        /// The other region.
        b: u16,
    },

    // -------------------------------------------------- rpc plane
    /// Gateway probe: does your current-`Lp` shard index `object`?
    GatewayProbe {
        /// The object.
        object: ObjectId,
    },
    /// Does your IOP repository know `object` at all?
    IopKnows {
        /// The object.
        object: ObjectId,
    },
    /// Fetch the IOP record whose arrival time is exactly `time`.
    RecAt {
        /// The object.
        object: ObjectId,
        /// Exact arrival time of the wanted record.
        time: SimTime,
    },
    /// Fetch the latest IOP record with arrival ≤ `t`.
    RecLatestAtOrBefore {
        /// The object.
        object: ObjectId,
        /// Upper bound on arrival.
        t: SimTime,
    },
    /// Fetch the earliest IOP record.
    RecFirst {
        /// The object.
        object: ObjectId,
    },
    /// Fetch the latest IOP record.
    RecLatest {
        /// The object.
        object: ObjectId,
    },
    /// Replica probe: fetch, from the receiver's **replica copy** of
    /// dead `primary`'s repository, the IOP record whose arrival time
    /// is exactly `time`. Queries fall back to this when a trace walks
    /// through a permanently-lost site. Replied with [`Frame::RecResp`].
    ReplRecAt {
        /// The dead primary whose replica copy is being probed.
        primary: SiteId,
        /// The object.
        object: ObjectId,
        /// Exact arrival time of the wanted record.
        time: SimTime,
    },

    // -------------------------------------------------- responses
    /// Generic acknowledgement.
    Ack,
    /// Reply to [`Frame::Locate`].
    LocateResp {
        /// The answer (`None` = unknown object / incomplete data).
        answer: Option<SiteId>,
        /// Model cost charged at the origin.
        cost: CostWire,
        /// False when traversal hit missing data.
        complete: bool,
    },
    /// Reply to [`Frame::Trace`].
    TraceResp {
        /// The visits overlapping the window.
        path: Path,
        /// Model cost charged at the origin.
        cost: CostWire,
        /// False when traversal hit missing data.
        complete: bool,
    },
    /// Reply to [`Frame::Status`].
    StatusResp {
        /// The answering site.
        site: SiteId,
        /// Members it currently knows (itself included).
        members: u32,
        /// Protocol-plane frames sent to other nodes so far.
        sent: u64,
        /// Protocol-plane frames received and processed so far.
        received: u64,
    },
    /// Reply to [`Frame::GatewayProbe`]: the latest-state link on hit.
    LinkResp(Option<Link>),
    /// Reply to [`Frame::IopKnows`].
    BoolResp(bool),
    /// Reply to the `Rec*` fetches.
    RecResp(Option<IopRecord>),
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
    },
    /// Reply to [`Frame::StateDump`]: the opaque canonical encoding.
    StateResp(Vec<u8>),
    /// Reply to [`Frame::Resolve`]: the listener address on file.
    AddrResp(Option<String>),
}

const K_PROTOCOL: u8 = 1;
const K_JOIN_REQ: u8 = 2;
const K_JOIN_RESP: u8 = 3;
const K_PEER_JOINED: u8 = 4;
const K_CAPTURE: u8 = 5;
const K_FLUSH: u8 = 6;
const K_LOCATE: u8 = 7;
const K_TRACE: u8 = 8;
const K_STATUS: u8 = 9;
const K_SHUTDOWN: u8 = 10;
// 11 is retired (the networked Chord walk's request): never reuse.
const K_GATEWAY_PROBE: u8 = 12;
const K_IOP_KNOWS: u8 = 13;
const K_REC_AT: u8 = 14;
const K_REC_LAOB: u8 = 15;
const K_REC_FIRST: u8 = 16;
const K_REC_LATEST: u8 = 17;
const K_CRASH: u8 = 18;
const K_STATE_DUMP: u8 = 19;
const K_RESOLVE: u8 = 20;
const K_PEER_DEAD: u8 = 21;
const K_REPL_REC_AT: u8 = 22;
const K_QUERY_LOAD: u8 = 23;
const K_REGION_CUT: u8 = 24;
const K_REGION_HEAL: u8 = 25;
const K_ACK: u8 = 32;
const K_LOCATE_RESP: u8 = 33;
const K_TRACE_RESP: u8 = 34;
const K_STATUS_RESP: u8 = 35;
// 36 is retired (the reply to kind 11): never reuse.
const K_LINK_RESP: u8 = 37;
const K_BOOL_RESP: u8 = 38;
const K_REC_RESP: u8 = 39;
const K_STATE_RESP: u8 = 40;
const K_ADDR_RESP: u8 = 41;
const K_QUERY_LOAD_RESP: u8 = 42;

/// A membership entry: site + listener address. One body for `JoinReq`,
/// `PeerJoined`, each `JoinResp` peer and the WAL's `Member` record.
pub(crate) fn put_member(buf: &mut ByteBuf, site: SiteId, addr: &str) {
    put_site(buf, site);
    put_str(buf, addr);
}

/// A capture batch: one body for `Frame::Capture` and the WAL's record.
pub(crate) fn put_capture(buf: &mut ByteBuf, at: SimTime, objects: &[ObjectId]) {
    put_time(buf, at);
    buf.put_u32(objects.len() as u32);
    for o in objects {
        put_object(buf, o);
    }
}

/// A sequenced protocol payload, codec-encoded behind a length prefix.
pub(crate) fn put_wire(buf: &mut ByteBuf, wire: &Wire) {
    put_blob(buf, &codec::encode(&wire.msg, wire.seq));
}

fn put_cost(buf: &mut ByteBuf, c: &CostWire) {
    buf.put_u64(c.messages);
    buf.put_u64(c.hops);
    buf.put_u64(c.bytes);
}

impl Frame {
    /// Serialize to a transport payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = ByteBuf::with_capacity(64);
        match self {
            Frame::Protocol { sender, hops, sent_us, wire } => {
                buf.put_u8(K_PROTOCOL);
                put_site(&mut buf, *sender);
                buf.put_u32(*hops);
                buf.put_u64(*sent_us);
                put_wire(&mut buf, wire);
            }
            Frame::JoinReq { site, addr } => {
                buf.put_u8(K_JOIN_REQ);
                put_member(&mut buf, *site, addr);
            }
            Frame::JoinResp { peers } => {
                buf.put_u8(K_JOIN_RESP);
                buf.put_u32(peers.len() as u32);
                for (site, addr) in peers {
                    put_member(&mut buf, *site, addr);
                }
            }
            Frame::PeerJoined { site, addr } => {
                buf.put_u8(K_PEER_JOINED);
                put_member(&mut buf, *site, addr);
            }
            Frame::PeerDead { site } => {
                buf.put_u8(K_PEER_DEAD);
                put_site(&mut buf, *site);
            }
            Frame::Capture { at, objects } => {
                buf.put_u8(K_CAPTURE);
                put_capture(&mut buf, *at, objects);
            }
            Frame::Flush { now } => {
                buf.put_u8(K_FLUSH);
                put_time(&mut buf, *now);
            }
            Frame::Locate { object, t } => {
                buf.put_u8(K_LOCATE);
                put_object(&mut buf, object);
                put_time(&mut buf, *t);
            }
            Frame::Trace { object, t0, t1 } => {
                buf.put_u8(K_TRACE);
                put_object(&mut buf, object);
                put_time(&mut buf, *t0);
                put_time(&mut buf, *t1);
            }
            Frame::Status => buf.put_u8(K_STATUS),
            Frame::QueryLoad => buf.put_u8(K_QUERY_LOAD),
            Frame::Shutdown => buf.put_u8(K_SHUTDOWN),
            Frame::Crash => buf.put_u8(K_CRASH),
            Frame::StateDump => buf.put_u8(K_STATE_DUMP),
            Frame::Resolve { site } => {
                buf.put_u8(K_RESOLVE);
                put_site(&mut buf, *site);
            }
            Frame::RegionCut { a, b } => {
                buf.put_u8(K_REGION_CUT);
                buf.put_u32(*a as u32);
                buf.put_u32(*b as u32);
            }
            Frame::RegionHeal { a, b } => {
                buf.put_u8(K_REGION_HEAL);
                buf.put_u32(*a as u32);
                buf.put_u32(*b as u32);
            }
            Frame::GatewayProbe { object } => {
                buf.put_u8(K_GATEWAY_PROBE);
                put_object(&mut buf, object);
            }
            Frame::IopKnows { object } => {
                buf.put_u8(K_IOP_KNOWS);
                put_object(&mut buf, object);
            }
            Frame::RecAt { object, time } => {
                buf.put_u8(K_REC_AT);
                put_object(&mut buf, object);
                put_time(&mut buf, *time);
            }
            Frame::RecLatestAtOrBefore { object, t } => {
                buf.put_u8(K_REC_LAOB);
                put_object(&mut buf, object);
                put_time(&mut buf, *t);
            }
            Frame::RecFirst { object } => {
                buf.put_u8(K_REC_FIRST);
                put_object(&mut buf, object);
            }
            Frame::RecLatest { object } => {
                buf.put_u8(K_REC_LATEST);
                put_object(&mut buf, object);
            }
            Frame::ReplRecAt { primary, object, time } => {
                buf.put_u8(K_REPL_REC_AT);
                put_site(&mut buf, *primary);
                put_object(&mut buf, object);
                put_time(&mut buf, *time);
            }
            Frame::Ack => buf.put_u8(K_ACK),
            Frame::LocateResp { answer, cost, complete } => {
                buf.put_u8(K_LOCATE_RESP);
                match answer {
                    Some(s) => {
                        buf.put_u8(1);
                        put_site(&mut buf, *s);
                    }
                    None => buf.put_bytes(0, 5),
                }
                put_cost(&mut buf, cost);
                buf.put_u8(u8::from(*complete));
            }
            Frame::TraceResp { path, cost, complete } => {
                buf.put_u8(K_TRACE_RESP);
                buf.put_u32(path.len() as u32);
                for v in path {
                    put_site(&mut buf, v.site);
                    put_time(&mut buf, v.arrived);
                    match v.departed {
                        Some(d) => {
                            buf.put_u8(1);
                            put_time(&mut buf, d);
                        }
                        None => buf.put_bytes(0, 9),
                    }
                }
                put_cost(&mut buf, cost);
                buf.put_u8(u8::from(*complete));
            }
            Frame::StatusResp { site, members, sent, received } => {
                buf.put_u8(K_STATUS_RESP);
                put_site(&mut buf, *site);
                buf.put_u32(*members);
                buf.put_u64(*sent);
                buf.put_u64(*received);
            }
            Frame::QueryLoadResp { loads, hits, misses } => {
                buf.put_u8(K_QUERY_LOAD_RESP);
                buf.put_u32(loads.len() as u32);
                for (site, count) in loads {
                    put_site(&mut buf, *site);
                    buf.put_u64(*count);
                }
                buf.put_u64(*hits);
                buf.put_u64(*misses);
            }
            Frame::LinkResp(link) => {
                buf.put_u8(K_LINK_RESP);
                put_opt_link(&mut buf, link);
            }
            Frame::BoolResp(v) => {
                buf.put_u8(K_BOOL_RESP);
                buf.put_u8(u8::from(*v));
            }
            Frame::RecResp(rec) => {
                buf.put_u8(K_REC_RESP);
                match rec {
                    Some(r) => {
                        buf.put_u8(1);
                        put_record(&mut buf, r);
                    }
                    None => buf.put_u8(0),
                }
            }
            Frame::StateResp(state) => {
                buf.put_u8(K_STATE_RESP);
                put_blob(&mut buf, state);
            }
            Frame::AddrResp(addr) => {
                buf.put_u8(K_ADDR_RESP);
                match addr {
                    Some(a) => {
                        buf.put_u8(1);
                        put_str(&mut buf, a);
                    }
                    None => buf.put_u8(0),
                }
            }
        }
        buf.into_vec()
    }

    /// Deserialize from a transport payload, read in place. Bytes after
    /// the frame are an error.
    pub fn decode(raw: &[u8]) -> Result<Frame, ProtoError> {
        let r = &mut Reader::new(raw);
        let frame = match r.u8()? {
            K_PROTOCOL => Frame::Protocol {
                sender: get_site(r)?,
                hops: r.u32()?,
                sent_us: r.u64()?,
                wire: get_wire(r)?,
            },
            K_JOIN_REQ => {
                let (site, addr) = get_member(r)?;
                Frame::JoinReq { site, addr }
            }
            K_JOIN_RESP => Frame::JoinResp { peers: r.vec(8, get_member)? },
            K_PEER_JOINED => {
                let (site, addr) = get_member(r)?;
                Frame::PeerJoined { site, addr }
            }
            K_PEER_DEAD => Frame::PeerDead { site: get_site(r)? },
            K_CAPTURE => {
                let (at, objects) = get_capture(r)?;
                Frame::Capture { at, objects }
            }
            K_FLUSH => Frame::Flush { now: get_time(r)? },
            K_LOCATE => Frame::Locate { object: get_object(r)?, t: get_time(r)? },
            K_TRACE => Frame::Trace { object: get_object(r)?, t0: get_time(r)?, t1: get_time(r)? },
            K_STATUS => Frame::Status,
            K_QUERY_LOAD => Frame::QueryLoad,
            K_SHUTDOWN => Frame::Shutdown,
            K_CRASH => Frame::Crash,
            K_STATE_DUMP => Frame::StateDump,
            K_RESOLVE => Frame::Resolve { site: get_site(r)? },
            K_REGION_CUT => Frame::RegionCut { a: get_region(r)?, b: get_region(r)? },
            K_REGION_HEAL => Frame::RegionHeal { a: get_region(r)?, b: get_region(r)? },
            K_GATEWAY_PROBE => Frame::GatewayProbe { object: get_object(r)? },
            K_IOP_KNOWS => Frame::IopKnows { object: get_object(r)? },
            K_REC_AT => Frame::RecAt { object: get_object(r)?, time: get_time(r)? },
            K_REC_LAOB => Frame::RecLatestAtOrBefore { object: get_object(r)?, t: get_time(r)? },
            K_REC_FIRST => Frame::RecFirst { object: get_object(r)? },
            K_REC_LATEST => Frame::RecLatest { object: get_object(r)? },
            K_REPL_REC_AT => Frame::ReplRecAt {
                primary: get_site(r)?,
                object: get_object(r)?,
                time: get_time(r)?,
            },
            K_ACK => Frame::Ack,
            K_LOCATE_RESP => {
                let present = r.u8()? == 1;
                let site = get_site(r)?;
                let cost = get_cost(r)?;
                let complete = r.u8()? == 1;
                Frame::LocateResp { answer: present.then_some(site), cost, complete }
            }
            K_TRACE_RESP => {
                let path = r.vec(21, |r| {
                    let (site, arrived) = (get_site(r)?, get_time(r)?);
                    let present = r.u8()? == 1;
                    let departed = get_time(r)?;
                    Ok(Visit { site, arrived, departed: present.then_some(departed) })
                })?;
                Frame::TraceResp { path, cost: get_cost(r)?, complete: r.u8()? == 1 }
            }
            K_STATUS_RESP => Frame::StatusResp {
                site: get_site(r)?,
                members: r.u32()?,
                sent: r.u64()?,
                received: r.u64()?,
            },
            K_QUERY_LOAD_RESP => Frame::QueryLoadResp {
                loads: r.vec(12, |r| Ok((get_site(r)?, r.u64()?)))?,
                hits: r.u64()?,
                misses: r.u64()?,
            },
            K_LINK_RESP => Frame::LinkResp(get_opt_link(r)?),
            K_BOOL_RESP => Frame::BoolResp(r.u8()? == 1),
            K_REC_RESP => {
                Frame::RecResp(if r.u8()? == 1 { Some(get_record(r)?) } else { None })
            }
            K_STATE_RESP => {
                // State dumps may exceed `MAX_VECTOR_LEN` elements; the
                // frame itself bounds them (1 byte per element).
                let n = r.u32()? as usize;
                Frame::StateResp(r.take(n)?.to_vec())
            }
            K_ADDR_RESP => Frame::AddrResp(if r.u8()? == 1 { Some(get_str(r)?) } else { None }),
            other => return Err(ProtoError::BadKind(other)),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Inverse of [`put_member`].
pub(crate) fn get_member(r: &mut Reader) -> Result<(SiteId, String), DecodeError> {
    Ok((get_site(r)?, get_str(r)?))
}

/// Inverse of [`put_capture`].
pub(crate) fn get_capture(r: &mut Reader) -> Result<(SimTime, Vec<ObjectId>), DecodeError> {
    Ok((get_time(r)?, r.vec(ID_BYTES, get_object)?))
}

/// Inverse of [`put_wire`]: the payload is decoded where it lies, and
/// must fill its length prefix exactly.
pub(crate) fn get_wire(r: &mut Reader) -> Result<Wire, DecodeError> {
    let (msg, seq) = codec::decode(get_blob(r)?)?;
    Ok(Wire { seq, msg })
}

/// Region ids travel as `u32`; one outside the topology's `u16` labels
/// names no region pair and must not be narrowed into one that exists.
fn get_region(r: &mut Reader) -> Result<u16, ProtoError> {
    let id = r.u32()?;
    u16::try_from(id).map_err(|_| ProtoError::BadRegion(id))
}

fn get_cost(r: &mut Reader) -> Result<CostWire, DecodeError> {
    Ok(CostWire { messages: r.u64()?, hops: r.u64()?, bytes: r.u64()? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids::{Id, Prefix};
    use peertrack::messages::Msg;
    use proptiny::{hex, hostile_bytes};

    fn obj(n: u64) -> ObjectId {
        ObjectId(Id::hash(&n.to_be_bytes()))
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
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
            Frame::GatewayProbe { object: obj(1) },
            Frame::IopKnows { object: obj(1) },
            Frame::RecAt { object: obj(1), time: t(3) },
            Frame::RecLatestAtOrBefore { object: obj(1), t: t(3) },
            Frame::RecFirst { object: obj(1) },
            Frame::RecLatest { object: obj(1) },
            Frame::ReplRecAt { primary: SiteId(6), object: obj(1), time: t(3) },
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
            Frame::StatusResp { site: SiteId(1), members: 5, sent: 10, received: 9 },
            Frame::QueryLoadResp {
                loads: vec![(SiteId(0), 3), (SiteId(2), 17)],
                hits: 11,
                misses: 9,
            },
            Frame::QueryLoadResp { loads: Vec::new(), hits: 0, misses: 0 },
            Frame::LinkResp(Some(Link { site: SiteId(1), time: t(2) })),
            Frame::LinkResp(None),
            Frame::BoolResp(true),
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
        ]
    }

    /// `samples()[index].encode()` for `Capture`, `Protocol{GroupIndex}`
    /// and `LocateResp`, as written by the commit before the borrowed
    /// `Reader` (PR 18): a peer from then still reads these frames.
    const GOLDEN: [(usize, &str); 3] = [
        (5, "05000000000000006300000002aebf740096fea5f738202d5d299fc84e932155d5c9e1208fdafeca60716624e08ac95d5d3036071c"),
        (0, "010000000300000002000000000012d687000000590201000000000000000000000000002a0340000000000000000000000300000002cb473678976f425d6ec1339838f11011007ad27d000000000000000507aae1b618f604c684ee3189fa1723bef8656fe40000000000000006"),
        (25, "21010000000200000000000000030000000000000005000000000000009001"),
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
        for (i, golden) in GOLDEN {
            assert_eq!(hex(&samples[i].encode()), golden, "frame {i} changed on the wire");
        }
        // A region id past `u16` names no pair; it must not be narrowed
        // into "sever (0, 1)".
        let mut cut = Frame::RegionCut { a: 0, b: 1 }.encode();
        cut[1..5].copy_from_slice(&65_536u32.to_be_bytes());
        assert_eq!(Frame::decode(&cut).unwrap_err(), ProtoError::BadRegion(65_536));
        // Kinds 11 and 36 (the networked Chord walk) are retired: what a
        // peer from before would send for them no longer names a frame.
        for old in [[&[11][..], &[0; 20]].concat(), [&[36, 1][..], &[0; 20]].concat()] {
            assert_eq!(Frame::decode(&old).unwrap_err(), ProtoError::BadKind(old[0]));
        }
    }

    #[test]
    fn hostile_length_rejected_before_allocation() {
        // A Capture frame claiming ~4Gi objects must fail by arithmetic.
        let mut buf = ByteBuf::new();
        buf.put_u8(K_CAPTURE);
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
