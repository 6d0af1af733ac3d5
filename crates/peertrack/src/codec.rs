//! Binary wire codec for [`Msg`].
//!
//! The simulator never needs real serialization — state moves through
//! the event queue as Rust values — but the volume metric (§V-A, "total
//! volume of messages transferred over the network") must reflect real
//! message sizes. This codec grounds that definition: [`encode`]
//! produces the canonical on-wire form, and tests pin the exact
//! relationship `encode(msg).len() == msg.wire_size() + 4·(vector
//! fields)` (the accounting model carries vector lengths in the header's
//! reserved bytes; the standalone codec spends an explicit `u32`), so
//! the byte counts behind the figures can never silently drift from a
//! sendable encoding.
//!
//! Layout: a 16-byte header (tag, version, 6 reserved bytes, 8-byte
//! sequence number) followed by fixed-width fields; vectors are
//! length-prefixed with `u32`. `Option<Link>` is fixed-width (presence
//! byte + 12 bytes, zeroed when absent) so record sizes are predictable.
//!
//! The field writers and readers (`put_*` / `get_*`) are the only ones
//! in the workspace: the daemon's frames, WAL records and snapshots are
//! built from them, and every reader goes through the checked
//! [`Reader`], so no decoder can index past the end of its input.

use crate::bytebuf::{ByteBuf, Reader};
use crate::messages::{
    Msg, ENTRY_BYTES, HEADER_BYTES, LINK_BYTES, OBJECT_ID_BYTES, PREFIX_BYTES, TIME_BYTES,
};
use crate::store::{GatewayStore, IndexEntry, IopRecord, IopStore, Link};
use ids::Prefix;
use moods::{ObjectId, SiteId};
use simnet::SimTime;

/// Codec protocol version.
pub const VERSION: u8 = 1;

/// Maximum element count a decoded vector may claim. A hostile length
/// prefix (up to 4 GiB expressible in the `u32`) must be rejected by
/// *arithmetic*, before any allocation is sized from it. The bound is
/// far above anything the protocol produces (`n_max` windows are ≤ a
/// few thousand observations) yet small enough that even a
/// maximum-length claim times the largest element never overflows or
/// reserves pathological memory.
pub const MAX_VECTOR_LEN: usize = 1 << 20;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than its structure requires.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Malformed prefix field.
    BadPrefix(String),
    /// A vector length prefix exceeds [`MAX_VECTOR_LEN`].
    TooLong(u32),
    /// A string field is not UTF-8.
    BadString,
    /// Bytes left over after a complete structure.
    Trailing(usize),
    /// An IOP history is not in arrival order.
    Unsorted,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported codec version {v}"),
            DecodeError::BadPrefix(e) => write!(f, "bad prefix: {e}"),
            DecodeError::TooLong(n) => {
                write!(f, "vector length {n} exceeds limit {MAX_VECTOR_LEN}")
            }
            DecodeError::BadString => write!(f, "string field is not UTF-8"),
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes"),
            DecodeError::Unsorted => write!(f, "IOP history out of arrival order"),
        }
    }
}

impl std::error::Error for DecodeError {}

const TAG_ARRIVAL: u8 = 1;
const TAG_GROUP_INDEX: u8 = 2;
const TAG_SET_TO: u8 = 3;
const TAG_SET_FROM: u8 = 4;
const TAG_DELEGATE: u8 = 5;
const TAG_MIGRATE: u8 = 6;
const TAG_ACK: u8 = 7;
const TAG_REPL_IOP: u8 = 8;
const TAG_REPL_SHARD: u8 = 9;
const TAG_REPL_DIGEST: u8 = 10;
const TAG_REPL_SYNC_REQ: u8 = 11;
const TAG_REPL_STATE: u8 = 12;
const TAG_REPL_IOP_PATCH: u8 = 13;

/// Wire bytes of one `Option<Link>`: presence byte + fixed-width link.
const OPT_LINK_BYTES: usize = 1 + LINK_BYTES;
/// Wire bytes of one IOP record: arrival time + `from` + `to`.
const RECORD_BYTES: usize = TIME_BYTES + 2 * OPT_LINK_BYTES;

fn put_header(buf: &mut ByteBuf, tag: u8, seq: u64) {
    buf.put_u8(tag);
    buf.put_u8(VERSION);
    buf.put_bytes(0, 6); // reserved
    buf.put_u64(seq);
}

/// Append an object id.
pub fn put_object(buf: &mut ByteBuf, o: &ObjectId) {
    buf.put_slice(&o.0 .0);
}

/// Append a timestamp (µs).
pub fn put_time(buf: &mut ByteBuf, t: SimTime) {
    buf.put_u64(t.as_micros());
}

/// Append a site id.
pub fn put_site(buf: &mut ByteBuf, s: SiteId) {
    buf.put_u32(s.0);
}

fn put_link(buf: &mut ByteBuf, l: &Link) {
    put_site(buf, l.site);
    put_time(buf, l.time);
}

/// Append an optional link: presence byte over a fixed-width body,
/// zeroed when absent.
pub fn put_opt_link(buf: &mut ByteBuf, l: &Option<Link>) {
    match l {
        Some(l) => {
            buf.put_u8(1);
            put_link(buf, l);
        }
        None => buf.put_bytes(0, OPT_LINK_BYTES),
    }
}

/// Append an IOP record.
pub fn put_record(buf: &mut ByteBuf, r: &IopRecord) {
    put_time(buf, r.arrived);
    put_opt_link(buf, &r.from);
    put_opt_link(buf, &r.to);
}

fn put_entry(buf: &mut ByteBuf, e: &IndexEntry) {
    put_site(buf, e.site);
    put_time(buf, e.time);
    put_opt_link(buf, &e.prev);
}

/// Append a prefix descriptor.
pub fn put_prefix(buf: &mut ByteBuf, p: &Prefix) {
    buf.put_slice(&p.wire_bytes());
}

fn put_opt_prefix(buf: &mut ByteBuf, p: &Option<Prefix>) {
    // Absence encoded as an over-long sentinel length (0xFF).
    match p {
        Some(p) => put_prefix(buf, p),
        None => {
            buf.put_u8(0xFF);
            buf.put_bytes(0, 8);
        }
    }
}

/// Append a `u32` length-prefixed byte string.
pub fn put_blob(buf: &mut ByteBuf, bytes: &[u8]) {
    buf.put_u32(bytes.len() as u32);
    buf.put_slice(bytes);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut ByteBuf, s: &str) {
    put_blob(buf, s.as_bytes());
}

fn put_entries(buf: &mut ByteBuf, entries: &[(ObjectId, IndexEntry)]) {
    buf.put_u32(entries.len() as u32);
    for (o, e) in entries {
        put_object(buf, o);
        put_entry(buf, e);
    }
}

fn put_set_to(buf: &mut ByteBuf, updates: &[(ObjectId, SimTime, Link)]) {
    buf.put_u32(updates.len() as u32);
    for (o, arrived, link) in updates {
        put_object(buf, o);
        put_time(buf, *arrived);
        put_link(buf, link);
    }
}

fn put_set_from(buf: &mut ByteBuf, updates: &[(ObjectId, SimTime, Option<Link>)]) {
    buf.put_u32(updates.len() as u32);
    for (o, arrived, from) in updates {
        put_object(buf, o);
        put_time(buf, *arrived);
        put_opt_link(buf, from);
    }
}

/// Encode a message with the given header sequence number.
pub fn encode(msg: &Msg, seq: u64) -> Vec<u8> {
    let mut buf = ByteBuf::with_capacity(msg.wire_size() + 8);
    match msg {
        Msg::Arrival { object, site, time } => {
            put_header(&mut buf, TAG_ARRIVAL, seq);
            put_object(&mut buf, object);
            put_site(&mut buf, *site);
            put_time(&mut buf, *time);
        }
        Msg::GroupIndex { prefix, site, members } => {
            put_header(&mut buf, TAG_GROUP_INDEX, seq);
            put_prefix(&mut buf, prefix);
            put_site(&mut buf, *site);
            buf.put_u32(members.len() as u32);
            for (o, t) in members {
                put_object(&mut buf, o);
                put_time(&mut buf, *t);
            }
        }
        Msg::SetTo { updates } => {
            put_header(&mut buf, TAG_SET_TO, seq);
            put_set_to(&mut buf, updates);
        }
        Msg::SetFrom { updates } => {
            put_header(&mut buf, TAG_SET_FROM, seq);
            put_set_from(&mut buf, updates);
        }
        Msg::Delegate { prefix, entries } => {
            put_header(&mut buf, TAG_DELEGATE, seq);
            put_prefix(&mut buf, prefix);
            put_entries(&mut buf, entries);
        }
        Msg::Migrate { prefix, entries } => {
            put_header(&mut buf, TAG_MIGRATE, seq);
            put_opt_prefix(&mut buf, prefix);
            put_entries(&mut buf, entries);
        }
        Msg::Ack { acked } => {
            put_header(&mut buf, TAG_ACK, seq);
            buf.put_u64(*acked);
        }
        Msg::ReplIop { primary, updates } => {
            put_header(&mut buf, TAG_REPL_IOP, seq);
            put_site(&mut buf, *primary);
            buf.put_u32(updates.len() as u32);
            for (o, r) in updates {
                put_object(&mut buf, o);
                put_record(&mut buf, r);
            }
        }
        Msg::ReplShard { primary, prefix, entries, delegated } => {
            put_header(&mut buf, TAG_REPL_SHARD, seq);
            put_site(&mut buf, *primary);
            put_opt_prefix(&mut buf, prefix);
            buf.put_u8(u8::from(*delegated));
            put_entries(&mut buf, entries);
        }
        Msg::ReplDigest { primary, digest } => {
            put_header(&mut buf, TAG_REPL_DIGEST, seq);
            put_site(&mut buf, *primary);
            buf.put_slice(&digest.0);
        }
        Msg::ReplSyncReq { primary } => {
            put_header(&mut buf, TAG_REPL_SYNC_REQ, seq);
            put_site(&mut buf, *primary);
        }
        Msg::ReplState { primary, state } => {
            put_header(&mut buf, TAG_REPL_STATE, seq);
            put_site(&mut buf, *primary);
            put_blob(&mut buf, state);
        }
        Msg::ReplIopPatch { primary, set_to, set_from } => {
            put_header(&mut buf, TAG_REPL_IOP_PATCH, seq);
            put_site(&mut buf, *primary);
            put_set_to(&mut buf, set_to);
            put_set_from(&mut buf, set_from);
        }
    }
    buf.into_vec()
}

/// Read an object id.
pub fn get_object(r: &mut Reader) -> Result<ObjectId, DecodeError> {
    Ok(ObjectId(ids::Id(r.array()?)))
}

/// Read a timestamp (µs).
pub fn get_time(r: &mut Reader) -> Result<SimTime, DecodeError> {
    r.u64().map(SimTime::from_micros)
}

/// Read a site id.
pub fn get_site(r: &mut Reader) -> Result<SiteId, DecodeError> {
    r.u32().map(SiteId)
}

fn get_link(r: &mut Reader) -> Result<Link, DecodeError> {
    Ok(Link { site: get_site(r)?, time: get_time(r)? })
}

/// Read an optional link (inverse of [`put_opt_link`]).
pub fn get_opt_link(r: &mut Reader) -> Result<Option<Link>, DecodeError> {
    let present = r.u8()? == 1;
    let link = get_link(r)?;
    Ok(present.then_some(link))
}

/// Read an IOP record.
pub fn get_record(r: &mut Reader) -> Result<IopRecord, DecodeError> {
    Ok(IopRecord { arrived: get_time(r)?, from: get_opt_link(r)?, to: get_opt_link(r)? })
}

fn get_entry(r: &mut Reader) -> Result<IndexEntry, DecodeError> {
    Ok(IndexEntry { site: get_site(r)?, time: get_time(r)?, prev: get_opt_link(r)? })
}

/// Read a prefix descriptor.
pub fn get_prefix(r: &mut Reader) -> Result<Prefix, DecodeError> {
    Prefix::from_wire_bytes(&r.array()?).map_err(DecodeError::BadPrefix)
}

fn get_opt_prefix(r: &mut Reader) -> Result<Option<Prefix>, DecodeError> {
    let raw = r.array::<PREFIX_BYTES>()?;
    if raw[0] == 0xFF {
        return Ok(None);
    }
    Prefix::from_wire_bytes(&raw).map(Some).map_err(DecodeError::BadPrefix)
}

/// Read a length-prefixed byte string, borrowed from the input
/// (inverse of [`put_blob`]).
pub fn get_blob<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], DecodeError> {
    let n = r.len(1)?;
    r.take(n)
}

/// Read a length-prefixed UTF-8 string (inverse of [`put_str`]).
pub fn get_str(r: &mut Reader) -> Result<String, DecodeError> {
    String::from_utf8(get_blob(r)?.to_vec()).map_err(|_| DecodeError::BadString)
}

fn get_observation(r: &mut Reader) -> Result<(ObjectId, SimTime), DecodeError> {
    Ok((get_object(r)?, get_time(r)?))
}

fn get_entries(r: &mut Reader) -> Result<Vec<(ObjectId, IndexEntry)>, DecodeError> {
    r.vec(OBJECT_ID_BYTES + ENTRY_BYTES, |r| Ok((get_object(r)?, get_entry(r)?)))
}

fn get_set_to(r: &mut Reader) -> Result<Vec<(ObjectId, SimTime, Link)>, DecodeError> {
    r.vec(OBJECT_ID_BYTES + TIME_BYTES + LINK_BYTES, |r| {
        Ok((get_object(r)?, get_time(r)?, get_link(r)?))
    })
}

fn get_set_from(r: &mut Reader) -> Result<Vec<(ObjectId, SimTime, Option<Link>)>, DecodeError> {
    r.vec(OBJECT_ID_BYTES + TIME_BYTES + OPT_LINK_BYTES, |r| {
        Ok((get_object(r)?, get_time(r)?, get_opt_link(r)?))
    })
}

/// Decode a message; returns the message and the header sequence number.
/// Bytes after the message are an error.
pub fn decode(raw: impl AsRef<[u8]>) -> Result<(Msg, u64), DecodeError> {
    let r = &mut Reader::new(raw.as_ref());
    let mut header = Reader::new(r.take(HEADER_BYTES)?);
    let (tag, version) = (header.u8()?, header.u8()?);
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    header.take(6)?; // reserved
    let seq = header.u64()?;

    let msg = match tag {
        TAG_ARRIVAL => {
            Msg::Arrival { object: get_object(r)?, site: get_site(r)?, time: get_time(r)? }
        }
        TAG_GROUP_INDEX => Msg::GroupIndex {
            prefix: get_prefix(r)?,
            site: get_site(r)?,
            members: r.vec(OBJECT_ID_BYTES + TIME_BYTES, get_observation)?,
        },
        TAG_SET_TO => Msg::SetTo { updates: get_set_to(r)? },
        TAG_SET_FROM => Msg::SetFrom { updates: get_set_from(r)? },
        TAG_DELEGATE => Msg::Delegate { prefix: get_prefix(r)?, entries: get_entries(r)? },
        TAG_MIGRATE => Msg::Migrate { prefix: get_opt_prefix(r)?, entries: get_entries(r)? },
        TAG_ACK => Msg::Ack { acked: r.u64()? },
        TAG_REPL_IOP => Msg::ReplIop {
            primary: get_site(r)?,
            updates: r
                .vec(OBJECT_ID_BYTES + RECORD_BYTES, |r| Ok((get_object(r)?, get_record(r)?)))?,
        },
        TAG_REPL_SHARD => {
            let primary = get_site(r)?;
            let prefix = get_opt_prefix(r)?;
            let delegated = r.u8()? == 1;
            Msg::ReplShard { primary, prefix, entries: get_entries(r)?, delegated }
        }
        TAG_REPL_DIGEST => Msg::ReplDigest { primary: get_site(r)?, digest: ids::Id(r.array()?) },
        TAG_REPL_SYNC_REQ => Msg::ReplSyncReq { primary: get_site(r)? },
        TAG_REPL_STATE => Msg::ReplState { primary: get_site(r)?, state: get_blob(r)?.to_vec() },
        TAG_REPL_IOP_PATCH => Msg::ReplIopPatch {
            primary: get_site(r)?,
            set_to: get_set_to(r)?,
            set_from: get_set_from(r)?,
        },
        other => return Err(DecodeError::BadTag(other)),
    };
    r.finish()?;
    Ok((msg, seq))
}

// ----------------------------------------------------------------------
// State records (durable snapshots)
// ----------------------------------------------------------------------
//
// The daemon's crash-recovery layer snapshots a node's in-memory state
// with the same wire vocabulary as the protocol messages. Encodings are
// **canonical**: hash-map contents are emitted in sorted key order, so
// two semantically equal stores produce byte-identical encodings — which
// is what lets `tests/tests/crash_recovery.rs` compare a recovered node
// against its pre-crash self with `assert_eq!` on bytes.

/// Append a canonical encoding of an IOP repository.
pub fn put_state_iop(buf: &mut ByteBuf, iop: &IopStore) {
    let mut objects: Vec<ObjectId> = iop.iter().map(|(o, _)| o).collect();
    objects.sort();
    buf.put_u32(objects.len() as u32);
    for o in objects {
        put_object(buf, &o);
        let records = iop.all(o);
        buf.put_u32(records.len() as u32);
        for r in records {
            put_record(buf, r);
        }
    }
}

/// Decode an IOP repository (inverse of [`put_state_iop`]).
pub fn get_state_iop(r: &mut Reader) -> Result<IopStore, DecodeError> {
    let mut iop = IopStore::new();
    let n = r.len(OBJECT_ID_BYTES + 4)?;
    for _ in 0..n {
        let object = get_object(r)?;
        let records = r.vec(RECORD_BYTES, get_record)?;
        // The store binary-searches histories; one out of arrival order
        // is corrupt input, not something to install.
        if !records.is_sorted_by_key(|rec| rec.arrived) {
            return Err(DecodeError::Unsorted);
        }
        iop.insert_history(object, records);
    }
    Ok(iop)
}

fn put_entry_map(buf: &mut ByteBuf, entries: &std::collections::HashMap<ObjectId, IndexEntry>) {
    let mut objects: Vec<&ObjectId> = entries.keys().collect();
    objects.sort();
    buf.put_u32(objects.len() as u32);
    for o in objects {
        put_object(buf, o);
        put_entry(buf, &entries[o]);
    }
}

fn get_entry_map(
    r: &mut Reader,
) -> Result<std::collections::HashMap<ObjectId, IndexEntry>, DecodeError> {
    let n = r.len(OBJECT_ID_BYTES + ENTRY_BYTES)?;
    let mut map = std::collections::HashMap::with_capacity(n);
    for _ in 0..n {
        map.insert(get_object(r)?, get_entry(r)?);
    }
    Ok(map)
}

/// Append a canonical encoding of a gateway store (individual-mode
/// entries plus every group-mode prefix shard).
pub fn put_state_gateway(buf: &mut ByteBuf, g: &GatewayStore) {
    put_entry_map(buf, &g.objects);
    let mut prefixes: Vec<&Prefix> = g.prefixes.keys().collect();
    prefixes.sort();
    buf.put_u32(prefixes.len() as u32);
    for p in prefixes {
        put_prefix(buf, p);
        let shard = &g.prefixes[p];
        buf.put_u8(u8::from(shard.delegated));
        put_entry_map(buf, &shard.entries);
    }
}

/// Decode a gateway store (inverse of [`put_state_gateway`]). Shard
/// recency order is rebuilt from the entries' update times.
pub fn get_state_gateway(r: &mut Reader) -> Result<GatewayStore, DecodeError> {
    let mut g = GatewayStore::new();
    g.objects = get_entry_map(r)?;
    let n = r.len(PREFIX_BYTES + 1 + 4)?;
    for _ in 0..n {
        let prefix = get_prefix(r)?;
        let delegated = r.u8()? == 1;
        let entries = get_entry_map(r)?;
        let shard = g.shard_mut(prefix);
        shard.delegated = delegated;
        for (o, e) in entries {
            shard.upsert(o, e);
        }
    }
    Ok(g)
}

/// Append an open capture window's contents (observations are already
/// an ordered sequence — no sorting involved).
pub fn put_state_window(buf: &mut ByteBuf, w: &crate::window::WindowBuffer) {
    put_time(buf, w.opened());
    let obs = w.observations();
    buf.put_u32(obs.len() as u32);
    for (o, t) in obs {
        put_object(buf, o);
        put_time(buf, *t);
    }
}

/// Decode a capture window for `site` flushing at `n_max` (inverse of
/// [`put_state_window`]).
pub fn get_state_window(
    r: &mut Reader,
    site: SiteId,
    n_max: usize,
) -> Result<crate::window::WindowBuffer, DecodeError> {
    let opened = get_time(r)?;
    let n = r.len(OBJECT_ID_BYTES + TIME_BYTES)?;
    if n >= n_max {
        // A window this full would have flushed before it was captured.
        return Err(DecodeError::TooLong(n as u32));
    }
    let mut obs = Vec::with_capacity(n);
    for _ in 0..n {
        obs.push(get_observation(r)?);
    }
    Ok(crate::window::WindowBuffer::restore(site, n_max, obs, opened))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptiny::{hex, hostile_bytes};
    use proptiny::prelude::*;

    fn obj(n: u64) -> ObjectId {
        ObjectId::from_raw(&n.to_be_bytes())
    }

    fn link(n: u32, t: u64) -> Link {
        Link { site: SiteId(n), time: SimTime::from_micros(t) }
    }

    fn entry(n: u32, t: u64, prev: Option<Link>) -> IndexEntry {
        IndexEntry { site: SiteId(n), time: SimTime::from_micros(t), prev }
    }

    fn samples() -> Vec<Msg> {
        vec![
            Msg::Arrival { object: obj(1), site: SiteId(3), time: SimTime::from_micros(99) },
            Msg::GroupIndex {
                prefix: Prefix::from_bit_str("0101"),
                site: SiteId(2),
                members: (0..5).map(|i| (obj(i), SimTime::from_micros(i))).collect(),
            },
            Msg::GroupIndex {
                prefix: Prefix::ROOT,
                site: SiteId(0),
                members: vec![],
            },
            Msg::SetTo { updates: vec![(obj(1), SimTime::from_micros(5), link(2, 9))] },
            Msg::SetFrom {
                updates: vec![
                    (obj(1), SimTime::from_micros(5), Some(link(2, 9))),
                    (obj(2), SimTime::from_micros(6), None),
                ],
            },
            Msg::Delegate {
                prefix: Prefix::from_bit_str("111"),
                entries: vec![(obj(3), entry(1, 2, Some(link(0, 1))))],
            },
            Msg::Migrate { prefix: None, entries: vec![(obj(4), entry(5, 6, None))] },
            Msg::Migrate {
                prefix: Some(Prefix::from_bit_str("00")),
                entries: vec![],
            },
            Msg::Ack { acked: 0 },
            Msg::Ack { acked: u64::MAX },
            Msg::ReplIop {
                primary: SiteId(7),
                updates: vec![(
                    obj(5),
                    IopRecord {
                        arrived: SimTime::from_micros(11),
                        from: Some(link(1, 2)),
                        to: None,
                    },
                )],
            },
            Msg::ReplShard {
                primary: SiteId(8),
                prefix: Some(Prefix::from_bit_str("110")),
                entries: vec![(obj(6), entry(2, 3, Some(link(4, 5))))],
                delegated: true,
            },
            Msg::ReplShard { primary: SiteId(8), prefix: None, entries: vec![], delegated: false },
            Msg::ReplDigest { primary: SiteId(9), digest: ids::Id::hash(b"digest") },
            Msg::ReplSyncReq { primary: SiteId(10) },
            Msg::ReplState { primary: SiteId(11), state: vec![1, 2, 3, 4, 5] },
            Msg::ReplIopPatch {
                primary: SiteId(12),
                set_to: vec![(obj(7), SimTime::from_micros(3), link(1, 4))],
                set_from: vec![(obj(7), SimTime::from_micros(4), Some(link(2, 3))), (obj(8), SimTime::from_micros(5), None)],
            },
        ]
    }

    fn assert_msg_eq(a: &Msg, b: &Msg) {
        // Msg doesn't derive PartialEq (payloads are large); compare via
        // canonical encoding.
        assert_eq!(encode(a, 0), encode(b, 0));
    }

    /// `encode(sample, index)` of each `Msg` variant's first sample, as
    /// written by the commit before the borrowed `Reader` (PR 18): a peer
    /// or a WAL from before this codec was rewritten stays readable.
    const GOLDEN: [(usize, &str); 13] = [
        (0, "01010000000000000000000000000000cb473678976f425d6ec1339838f11011007ad27d000000030000000000000063"),
        (1, "02010000000000000000000000000001045000000000000000000000020000000505fe405753166f125559e7c9ac558654f107c7e90000000000000000cb473678976f425d6ec1339838f11011007ad27d000000000000000107aae1b618f604c684ee3189fa1723bef8656fe40000000000000002461d6580e38ccb6dc72699b6c945e53831dcdf0300000000000000037f028ddbb42e47ac2cd00e27a37bd191f1c2b9250000000000000004"),
        (3, "0301000000000000000000000000000300000001cb473678976f425d6ec1339838f11011007ad27d0000000000000005000000020000000000000009"),
        (4, "0401000000000000000000000000000400000002cb473678976f425d6ec1339838f11011007ad27d00000000000000050100000002000000000000000907aae1b618f604c684ee3189fa1723bef8656fe4000000000000000600000000000000000000000000"),
        (5, "0501000000000000000000000000000503e00000000000000000000001461d6580e38ccb6dc72699b6c945e53831dcdf0300000001000000000000000201000000000000000000000001"),
        (6, "06010000000000000000000000000006ff0000000000000000000000017f028ddbb42e47ac2cd00e27a37bd191f1c2b92500000005000000000000000600000000000000000000000000"),
        (8, "070100000000000000000000000000080000000000000000"),
        (10, "0801000000000000000000000000000a0000000700000001216a788021417ad345b1b1ee10753127c457afc0000000000000000b0100000001000000000000000200000000000000000000000000"),
        (11, "0901000000000000000000000000000b0000000803c0000000000000000100000001f2cd4b0184c354c1d748ce5d617db44f3fbf411000000002000000000000000301000000040000000000000005"),
        (13, "0a01000000000000000000000000000d000000092923f6fa36614586ea09b4424b438915cc1b9b67"),
        (14, "0b01000000000000000000000000000e0000000a"),
        (15, "0c01000000000000000000000000000f0000000b000000050102030405"),
        (16, "0d0100000000000000000000000000100000000c00000001aebf740096fea5f738202d5d299fc84e932155d5000000000000000300000001000000000000000400000002aebf740096fea5f738202d5d299fc84e932155d5000000000000000401000000020000000000000003c9e1208fdafeca60716624e08ac95d5d3036071c000000000000000500000000000000000000000000"),
    ];

    #[test]
    fn roundtrip_all_shapes() {
        let samples = samples();
        for (i, m) in samples.iter().enumerate() {
            let mut raw = encode(m, i as u64);
            let (back, seq) = decode(&raw).unwrap_or_else(|e| panic!("sample {i}: {e}"));
            assert_eq!(seq, i as u64);
            assert_msg_eq(m, &back);
            raw.push(0);
            assert_eq!(decode(raw).unwrap_err(), DecodeError::Trailing(1), "sample {i}");
        }
        for (i, golden) in GOLDEN {
            assert_eq!(hex(&encode(&samples[i], i as u64)), golden, "sample {i} changed on the wire");
        }
    }

    #[test]
    fn wire_size_matters_but_codec_adds_length_prefixes() {
        // wire_size models a codec whose vector lengths ride in the
        // reserved header bytes; the standalone codec spends an explicit
        // u32 per vector. Assert the exact relationship so the two can
        // never drift silently.
        for m in samples() {
            let encoded = encode(&m, 0).len();
            let vectors = match &m {
                Msg::Arrival { .. }
                | Msg::Ack { .. }
                | Msg::ReplDigest { .. }
                | Msg::ReplSyncReq { .. } => 0,
                Msg::GroupIndex { .. }
                | Msg::SetTo { .. }
                | Msg::SetFrom { .. }
                | Msg::Delegate { .. }
                | Msg::Migrate { .. }
                | Msg::ReplIop { .. }
                | Msg::ReplShard { .. }
                | Msg::ReplState { .. } => 1,
                Msg::ReplIopPatch { .. } => 2,
            };
            assert_eq!(
                encoded,
                m.wire_size() + 4 * vectors,
                "drift between codec and wire_size for {m:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(decode(b""), Err(DecodeError::Truncated)));
        let mut raw = ByteBuf::new();
        put_header(&mut raw, 99, 0);
        assert!(matches!(decode(raw.into_vec()), Err(DecodeError::BadTag(99))));
        let mut raw = ByteBuf::new();
        raw.put_u8(TAG_ARRIVAL);
        raw.put_u8(VERSION + 1);
        raw.put_bytes(0, 14);
        assert!(matches!(decode(raw.into_vec()), Err(DecodeError::BadVersion(v)) if v == VERSION + 1));
    }

    #[test]
    fn decode_rejects_hostile_length_prefix_without_allocating() {
        // A 4 GiB-worth length claim must fail by arithmetic, not by an
        // allocation attempt — for every vector-carrying tag.
        for tag in [
            TAG_GROUP_INDEX,
            TAG_SET_TO,
            TAG_SET_FROM,
            TAG_DELEGATE,
            TAG_MIGRATE,
            TAG_REPL_IOP,
            TAG_REPL_SHARD,
            TAG_REPL_STATE,
            TAG_REPL_IOP_PATCH,
        ] {
            let mut raw = ByteBuf::new();
            put_header(&mut raw, tag, 0);
            if matches!(tag, TAG_REPL_IOP | TAG_REPL_SHARD | TAG_REPL_STATE | TAG_REPL_IOP_PATCH) {
                put_site(&mut raw, SiteId(1));
            }
            if matches!(tag, TAG_GROUP_INDEX | TAG_DELEGATE | TAG_MIGRATE) {
                put_prefix(&mut raw, &Prefix::from_bit_str("01"));
            }
            if tag == TAG_GROUP_INDEX {
                put_site(&mut raw, SiteId(1));
            }
            if tag == TAG_REPL_SHARD {
                put_opt_prefix(&mut raw, &None);
                raw.put_u8(0);
            }
            raw.put_u32(u32::MAX); // claims ~4 Gi elements
            let err = decode(raw.into_vec()).unwrap_err();
            assert_eq!(err, DecodeError::TooLong(u32::MAX), "tag {tag}");
        }
    }

    #[test]
    fn decode_rejects_length_exceeding_remaining_bytes() {
        // A length under the cap but larger than the buffer could hold
        // must be Truncated *before* the element loop allocates.
        let mut raw = ByteBuf::new();
        put_header(&mut raw, TAG_SET_TO, 0);
        raw.put_u32((MAX_VECTOR_LEN - 1) as u32);
        assert_eq!(decode(raw.into_vec()).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn decode_rejects_truncated_body() {
        let m = Msg::SetTo { updates: vec![(obj(1), SimTime::from_micros(5), link(2, 9))] };
        let full = encode(&m, 0);
        for cut in [17, 20, full.len() - 1] {
            assert_eq!(decode(&full[..cut]).unwrap_err(), DecodeError::Truncated, "cut at {cut}");
        }
        let all: Vec<Vec<u8>> = samples().iter().map(|m| encode(m, 3)).collect();
        for cut in all.iter().flat_map(|full| (0..full.len()).map(move |cut| &full[..cut])) {
            assert_eq!(decode(cut).unwrap_err(), DecodeError::Truncated);
        }
        hostile_bytes(&all, |raw| drop(decode(raw)));
    }

    #[test]
    fn state_iop_roundtrip_is_canonical() {
        // Two stores with the same content built in different insertion
        // orders must encode byte-identically (canonical order), and
        // the roundtrip must preserve every record.
        let build = |order: &[u64]| {
            let mut iop = IopStore::new();
            for &n in order {
                iop.capture(obj(n), SimTime::from_micros(10 * n));
                iop.set_from(obj(n), SimTime::from_micros(10 * n), (n % 2 == 0).then(|| link(1, n)));
            }
            iop
        };
        let a = build(&[1, 2, 3, 4]);
        let b = build(&[4, 2, 3, 1]);
        let enc = |iop: &IopStore| {
            let mut buf = ByteBuf::new();
            put_state_iop(&mut buf, iop);
            buf.into_vec()
        };
        assert_eq!(enc(&a), enc(&b), "insertion order leaked into the encoding");
        let bytes = enc(&a);
        let mut r = Reader::new(&bytes);
        let back = get_state_iop(&mut r).unwrap();
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(enc(&back), enc(&a));
        for n in 1..=4 {
            assert_eq!(back.all(obj(n)), a.all(obj(n)));
        }
    }

    #[test]
    fn state_gateway_roundtrip_is_canonical() {
        let build = |order: &[u64]| {
            let mut g = GatewayStore::new();
            g.objects.insert(obj(9), entry(1, 1, None));
            for &n in order {
                let p = Prefix::from_bit_str(if n % 2 == 0 { "01" } else { "10" });
                g.shard_mut(p).upsert(obj(n), entry(n as u32, n, Some(link(2, n))));
            }
            g.shard_mut(Prefix::from_bit_str("01")).delegated = true;
            g
        };
        let enc = |g: &GatewayStore| {
            let mut buf = ByteBuf::new();
            put_state_gateway(&mut buf, g);
            buf.into_vec()
        };
        let a = build(&[1, 2, 3, 4, 5]);
        let b = build(&[5, 3, 1, 4, 2]);
        assert_eq!(enc(&a), enc(&b));
        let bytes = enc(&a);
        let mut r = Reader::new(&bytes);
        let back = get_state_gateway(&mut r).unwrap();
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(enc(&back), enc(&a));
        assert!(back.prefixes[&Prefix::from_bit_str("01")].delegated);
        // Recency order survives: the earliest record in shard "01"
        // (objects 2, 4 at times 2, 4) is object 2.
        let mut back = back;
        let earliest = back.shard_mut(Prefix::from_bit_str("01")).take_earliest(1);
        assert_eq!(earliest[0].0, obj(2));
    }

    #[test]
    fn state_window_roundtrip_and_full_window_rejected() {
        let mut w = crate::window::WindowBuffer::new(SiteId(3), 8);
        w.push(obj(1), SimTime::from_micros(100));
        w.push(obj(2), SimTime::from_micros(150));
        let mut buf = ByteBuf::new();
        put_state_window(&mut buf, &w);
        let bytes = buf.into_vec();
        let back = get_state_window(&mut Reader::new(&bytes), SiteId(3), 8).unwrap();
        assert_eq!(back.observations(), w.observations());
        assert_eq!(back.opened(), w.opened());

        // The same bytes against a smaller n_max claim a window that
        // could never have existed — loud error, not a panic later.
        assert!(get_state_window(&mut Reader::new(&bytes), SiteId(3), 2).is_err());
    }

    proptiny! {
        #[test]
        fn prop_group_index_roundtrip(
            seeds in prop::collection::vec((any::<u64>(), any::<u64>()), 0..64),
            bits in "[01]{0,20}",
            site in any::<u32>(),
            seq in any::<u64>(),
        ) {
            let m = Msg::GroupIndex {
                prefix: Prefix::from_bit_str(&bits),
                site: SiteId(site),
                members: seeds
                    .iter()
                    .map(|(s, t)| (obj(*s), SimTime::from_micros(*t)))
                    .collect(),
            };
            let (back, got_seq) = decode(encode(&m, seq)).unwrap();
            prop_assert_eq!(got_seq, seq);
            prop_assert_eq!(encode(&back, seq), encode(&m, seq));
        }

        #[test]
        fn prop_decode_arbitrary_bytes_never_panics(
            raw in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            // Hostile input must produce an error, never a panic or an
            // unbounded allocation.
            let _ = decode(raw);
        }

        #[test]
        fn prop_mutated_encodings_never_panic(
            which in 0usize..16,
            mutations in prop::collection::vec((any::<u16>(), any::<u8>()), 1..32),
            seq in any::<u64>(),
        ) {
            // Fuzz-style: start from a *valid* encoding and flip bytes at
            // random offsets. Decoding the corrupted frame must either
            // succeed (the mutation hit a don't-care byte) or return a
            // DecodeError — never panic, never attempt a hostile-sized
            // allocation (the TooLong/Truncated guards in get_len).
            let samples = samples();
            let mut bytes = encode(&samples[which % samples.len()], seq);
            for (off, val) in &mutations {
                let i = *off as usize % bytes.len();
                bytes[i] ^= *val;
            }
            let _ = decode(bytes);
        }

        #[test]
        fn prop_truncations_never_panic(
            seeds in prop::collection::vec((any::<u64>(), any::<u64>()), 1..16),
        ) {
            let m = Msg::GroupIndex {
                prefix: Prefix::from_bit_str("01"),
                site: SiteId(1),
                members: seeds
                    .iter()
                    .map(|(s, t)| (obj(*s), SimTime::from_micros(*t)))
                    .collect(),
            };
            let full = encode(&m, 1);
            for cut in 0..full.len() {
                let _ = decode(&full[..cut]);
            }
        }

        #[test]
        fn prop_every_variant_roundtrips_and_sizes_agree(
            variant in 0u8..14,
            seeds in prop::collection::vec((any::<u64>(), any::<u64>()), 0..24),
            bits in "[01]{0,20}",
            site in any::<u32>(),
            seq in any::<u64>(),
        ) {
            // One generator covering the whole `Msg` enum — including the
            // retry layer's `Ack` — so a new variant missing from the
            // codec fails here, not in the field.
            let prefix = Prefix::from_bit_str(&bits);
            let objects = |s: &[(u64, u64)]| -> Vec<(ObjectId, SimTime)> {
                s.iter().map(|(o, t)| (obj(*o), SimTime::from_micros(*t))).collect()
            };
            let m = match variant {
                0 => Msg::Arrival {
                    object: obj(seeds.first().map_or(0, |s| s.0)),
                    site: SiteId(site),
                    time: SimTime::from_micros(seq),
                },
                1 => Msg::GroupIndex { prefix, site: SiteId(site), members: objects(&seeds) },
                2 => Msg::SetTo {
                    updates: seeds
                        .iter()
                        .map(|(o, t)| (obj(*o), SimTime::from_micros(*t), link(site, *t ^ 1)))
                        .collect(),
                },
                3 => Msg::SetFrom {
                    updates: seeds
                        .iter()
                        .map(|(o, t)| {
                            (obj(*o), SimTime::from_micros(*t), (t % 2 == 0).then(|| link(site, *o)))
                        })
                        .collect(),
                },
                4 => Msg::Delegate {
                    prefix,
                    entries: seeds
                        .iter()
                        .map(|(o, t)| (obj(*o), entry(site, *t, (o % 2 == 0).then(|| link(2, 3)))))
                        .collect(),
                },
                5 => Msg::Migrate {
                    prefix: Some(prefix),
                    entries: seeds.iter().map(|(o, t)| (obj(*o), entry(site, *t, None))).collect(),
                },
                6 => Msg::Migrate {
                    prefix: None,
                    entries: seeds.iter().map(|(o, t)| (obj(*o), entry(site, *t, None))).collect(),
                },
                7 => Msg::Ack { acked: seeds.first().map_or(0, |s| s.0) },
                8 => Msg::ReplIop {
                    primary: SiteId(site),
                    updates: seeds
                        .iter()
                        .map(|(o, t)| {
                            (obj(*o), IopRecord {
                                arrived: SimTime::from_micros(*t),
                                from: (o % 2 == 0).then(|| link(site, *t)),
                                to: (t % 2 == 0).then(|| link(site ^ 1, *o)),
                            })
                        })
                        .collect(),
                },
                9 => Msg::ReplShard {
                    primary: SiteId(site),
                    prefix: (site % 2 == 0).then_some(prefix),
                    entries: seeds
                        .iter()
                        .map(|(o, t)| (obj(*o), entry(site, *t, (o % 2 == 0).then(|| link(1, 2)))))
                        .collect(),
                    delegated: site % 3 == 0,
                },
                10 => Msg::ReplDigest {
                    primary: SiteId(site),
                    digest: ids::Id::hash(&seq.to_be_bytes()),
                },
                11 => Msg::ReplSyncReq { primary: SiteId(site) },
                12 => Msg::ReplState {
                    primary: SiteId(site),
                    state: seeds.iter().map(|(o, _)| *o as u8).collect(),
                },
                _ => Msg::ReplIopPatch {
                    primary: SiteId(site),
                    set_to: seeds
                        .iter()
                        .map(|(o, t)| (obj(*o), SimTime::from_micros(*t), link(site, *o)))
                        .collect(),
                    set_from: seeds
                        .iter()
                        .map(|(o, t)| {
                            (obj(*t), SimTime::from_micros(*o), (o % 2 == 0).then(|| link(site, *t)))
                        })
                        .collect(),
                },
            };
            let raw = encode(&m, seq);
            let vectors = match m {
                Msg::Arrival { .. }
                | Msg::Ack { .. }
                | Msg::ReplDigest { .. }
                | Msg::ReplSyncReq { .. } => 0,
                Msg::ReplIopPatch { .. } => 2,
                _ => 1,
            };
            prop_assert_eq!(raw.len(), m.wire_size() + 4 * vectors);
            let (back, got_seq) = decode(raw).unwrap();
            prop_assert_eq!(got_seq, seq);
            prop_assert_eq!(encode(&back, seq), encode(&m, seq));
        }

        #[test]
        fn prop_migrate_roundtrip(
            entries in prop::collection::vec(
                (any::<u64>(), any::<u32>(), any::<u64>(), any::<bool>()), 0..32),
            has_prefix in any::<bool>(),
        ) {
            let m = Msg::Migrate {
                prefix: has_prefix.then(|| Prefix::from_bit_str("0110")),
                entries: entries
                    .iter()
                    .map(|(o, s, t, p)| {
                        (obj(*o), entry(*s, *t, p.then(|| link(1, 2))))
                    })
                    .collect(),
            };
            let (back, _) = decode(encode(&m, 7)).unwrap();
            prop_assert_eq!(encode(&back, 7), encode(&m, 7));
        }
    }
}
