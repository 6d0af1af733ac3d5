//! The binary form of a [`Msg`] and of a site's stores.
//!
//! The simulator never needs real serialization — state moves through
//! the event queue as Rust values — but the volume metric (§V-A, "total
//! volume of messages transferred over the network") must be the size
//! of a sendable encoding. [`encode`] produces it: a 16-byte header
//! (tag, version, 6 reserved bytes, 8-byte sequence number) followed by
//! the message's fields as `Msg`'s declaration in [`crate::schema`]
//! lays them out. [`Msg::wire_size`] is the header plus the same
//! declaration's model size, so `encode(msg).len() == msg.wire_size() +
//! 4·(vector fields)` by construction: the model carries vector lengths
//! in the header's reserved bytes, the codec spends an explicit `u32`.
//!
//! The snapshot encoders below (`put_state_*`) are canonical: hash-map
//! contents go out in sorted key order, so two semantically equal stores
//! produce byte-identical encodings — which is what lets
//! `tests/tests/crash_recovery.rs` compare a recovered node against its
//! pre-crash self with `assert_eq!` on bytes.

use crate::bytebuf::{ByteBuf, Reader};
use crate::messages::{Msg, HEADER_BYTES};
use crate::schema::{put_seq, Field, History};
use crate::store::{GatewayStore, IndexEntry, IopStore};
use ids::Prefix;
use moods::{ObjectId, SiteId};
use simnet::SimTime;
use std::collections::HashMap;

/// Codec protocol version.
pub const VERSION: u8 = 1;

/// Maximum element count a decoded vector may claim. A hostile length
/// prefix (up to 4 GiB expressible in the `u32`) must be rejected by
/// *arithmetic*, before any allocation is sized from it. The bound is
/// far above anything the protocol produces (`n_max` windows are ≤ a
/// few thousand observations) yet small enough that even a
/// maximum-length claim times the largest element never overflows or
/// reserves pathological memory. Byte strings are bounded by their
/// input instead ([`Reader::bytes`]).
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
    /// A `u32` on the wire is past its field's range.
    OutOfRange(u32),
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
            DecodeError::OutOfRange(v) => write!(f, "value {v} out of range"),
            DecodeError::BadString => write!(f, "string field is not UTF-8"),
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes"),
            DecodeError::Unsorted => write!(f, "IOP history out of arrival order"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encode a message with the given header sequence number.
pub fn encode(msg: &Msg, seq: u64) -> Vec<u8> {
    let mut buf = ByteBuf::with_capacity(msg.wire_size() + 8);
    buf.put_u8(msg.tag());
    buf.put_u8(VERSION);
    buf.put_bytes(0, 6); // reserved
    buf.put_u64(seq);
    msg.put_fields(&mut buf);
    buf.into_vec()
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
    let msg = Msg::get_fields(tag, r, DecodeError::BadTag)?;
    r.finish()?;
    Ok((msg, seq))
}

/// Append a canonical encoding of an IOP repository.
pub fn put_state_iop(buf: &mut ByteBuf, iop: &IopStore) {
    let mut objects: Vec<ObjectId> = iop.iter().map(|(o, _)| o).collect();
    objects.sort();
    buf.put_u32(objects.len() as u32);
    for o in objects {
        o.put(buf);
        put_seq(buf, iop.all(o));
    }
}

/// Decode an IOP repository (inverse of [`put_state_iop`]).
pub fn get_state_iop(r: &mut Reader) -> Result<IopStore, DecodeError> {
    let mut iop = IopStore::new();
    for _ in 0..r.len(ObjectId::MIN + History::MIN)? {
        let object = ObjectId::get(r)?;
        iop.insert_history(object, History::get(r)?.0);
    }
    Ok(iop)
}

fn put_entry_map(buf: &mut ByteBuf, entries: &HashMap<ObjectId, IndexEntry>) {
    let mut sorted: Vec<(ObjectId, IndexEntry)> = entries.iter().map(|(o, e)| (*o, *e)).collect();
    sorted.sort_unstable_by_key(|(o, _)| *o);
    sorted.put(buf);
}

fn get_entry_map(r: &mut Reader) -> Result<HashMap<ObjectId, IndexEntry>, DecodeError> {
    Ok(<Vec<(ObjectId, IndexEntry)>>::get(r)?.into_iter().collect())
}

/// Append a canonical encoding of a gateway store (individual-mode
/// entries plus every group-mode prefix shard).
pub fn put_state_gateway(buf: &mut ByteBuf, g: &GatewayStore) {
    put_entry_map(buf, &g.objects);
    let mut prefixes: Vec<&Prefix> = g.prefixes.keys().collect();
    prefixes.sort();
    buf.put_u32(prefixes.len() as u32);
    for p in prefixes {
        let shard = &g.prefixes[p];
        p.put(buf);
        shard.delegated.put(buf);
        put_entry_map(buf, &shard.entries);
    }
}

/// Decode a gateway store (inverse of [`put_state_gateway`]). Shard
/// recency order is rebuilt from the entries' update times.
pub fn get_state_gateway(r: &mut Reader) -> Result<GatewayStore, DecodeError> {
    let mut g = GatewayStore::new();
    g.objects = get_entry_map(r)?;
    for _ in 0..r.len(Prefix::MIN + bool::MIN + 4)? {
        let prefix = Prefix::get(r)?;
        let delegated = bool::get(r)?;
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
    w.opened().put(buf);
    put_seq(buf, w.observations());
}

/// Decode a capture window for `site` flushing at `n_max` (inverse of
/// [`put_state_window`]).
pub fn get_state_window(
    r: &mut Reader,
    site: SiteId,
    n_max: usize,
) -> Result<crate::window::WindowBuffer, DecodeError> {
    let opened = SimTime::get(r)?;
    let n = r.len(<(ObjectId, SimTime)>::MIN)?;
    if n >= n_max {
        // A window this full would have flushed before it was captured.
        return Err(DecodeError::TooLong(n as u32));
    }
    let mut obs = Vec::with_capacity(n);
    for _ in 0..n {
        obs.push(Field::get(r)?);
    }
    Ok(crate::window::WindowBuffer::restore(site, n_max, obs, opened))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{IopRecord, Link};
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
            Msg::Splice { updates: vec![(obj(9), SimTime::from_micros(8), link(3, 6))] },
        ]
    }

    fn assert_msg_eq(a: &Msg, b: &Msg) {
        // Msg doesn't derive PartialEq (payloads are large); compare via
        // canonical encoding.
        assert_eq!(encode(a, 0), encode(b, 0));
    }

    /// `encode(samples()[i], i)` for every sample, as written before
    /// `Msg` was declared through the wire schema; the first sample of
    /// each kind was already pinned before the borrowed `Reader`. A peer
    /// or a WAL from then stays readable.
    const GOLDEN: [&str; 18] = [
        "01010000000000000000000000000000cb473678976f425d6ec1339838f11011007ad27d000000030000000000000063",
        "02010000000000000000000000000001045000000000000000000000020000000505fe405753166f125559e7c9ac558654f107c7e90000000000000000cb473678976f425d6ec1339838f11011007ad27d000000000000000107aae1b618f604c684ee3189fa1723bef8656fe40000000000000002461d6580e38ccb6dc72699b6c945e53831dcdf0300000000000000037f028ddbb42e47ac2cd00e27a37bd191f1c2b9250000000000000004",
        "020100000000000000000000000000020000000000000000000000000000000000",
        "0301000000000000000000000000000300000001cb473678976f425d6ec1339838f11011007ad27d0000000000000005000000020000000000000009",
        "0401000000000000000000000000000400000002cb473678976f425d6ec1339838f11011007ad27d00000000000000050100000002000000000000000907aae1b618f604c684ee3189fa1723bef8656fe4000000000000000600000000000000000000000000",
        "0501000000000000000000000000000503e00000000000000000000001461d6580e38ccb6dc72699b6c945e53831dcdf0300000001000000000000000201000000000000000000000001",
        "06010000000000000000000000000006ff0000000000000000000000017f028ddbb42e47ac2cd00e27a37bd191f1c2b92500000005000000000000000600000000000000000000000000",
        "0601000000000000000000000000000702000000000000000000000000",
        "070100000000000000000000000000080000000000000000",
        "07010000000000000000000000000009ffffffffffffffff",
        "0801000000000000000000000000000a0000000700000001216a788021417ad345b1b1ee10753127c457afc0000000000000000b0100000001000000000000000200000000000000000000000000",
        "0901000000000000000000000000000b0000000803c0000000000000000100000001f2cd4b0184c354c1d748ce5d617db44f3fbf411000000002000000000000000301000000040000000000000005",
        "0901000000000000000000000000000c00000008ff00000000000000000000000000",
        "0a01000000000000000000000000000d000000092923f6fa36614586ea09b4424b438915cc1b9b67",
        "0b01000000000000000000000000000e0000000a",
        "0c01000000000000000000000000000f0000000b000000050102030405",
        "0d0100000000000000000000000000100000000c00000001aebf740096fea5f738202d5d299fc84e932155d5000000000000000300000001000000000000000400000002aebf740096fea5f738202d5d299fc84e932155d5000000000000000401000000020000000000000003c9e1208fdafeca60716624e08ac95d5d3036071c000000000000000500000000000000000000000000",
        "0e0100000000000000000000000000110000000163b0ee19900a432c8601bd0bed2b1f881fbd7a860000000000000008000000030000000000000006",
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
        assert_eq!(samples.len(), GOLDEN.len());
        for (i, golden) in GOLDEN.iter().enumerate() {
            assert_eq!(hex(&encode(&samples[i], i as u64)), *golden, "sample {i} changed on the wire");
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
                | Msg::Splice { .. }
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

    /// A header for `tag` with sequence number 0.
    fn header(tag: u8) -> ByteBuf {
        let mut raw = ByteBuf::new();
        raw.put_u8(tag);
        raw.put_u8(VERSION);
        raw.put_bytes(0, 14);
        raw
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(decode(b""), Err(DecodeError::Truncated)));
        assert!(matches!(decode(header(99).into_vec()), Err(DecodeError::BadTag(99))));
        let mut raw = ByteBuf::new();
        raw.put_u8(1);
        raw.put_u8(VERSION + 1);
        raw.put_bytes(0, 14);
        assert!(matches!(decode(raw.into_vec()), Err(DecodeError::BadVersion(v)) if v == VERSION + 1));
    }

    #[test]
    fn decode_rejects_hostile_length_prefix_without_allocating() {
        // A 4 GiB-worth length claim must fail by arithmetic, not by an
        // allocation attempt — for every vector-carrying tag. A byte
        // string (`ReplState`'s state) is bounded by the input after it,
        // so its claim is Truncated.
        for tag in [2, 3, 4, 14, 5, 6, 8, 9, 12, 13] {
            let mut raw = header(tag);
            // ReplIop, ReplShard, ReplState, ReplIopPatch: the primary.
            if matches!(tag, 8 | 9 | 12 | 13) {
                SiteId(1).put(&mut raw);
            }
            // GroupIndex, Delegate, Migrate: the prefix.
            if matches!(tag, 2 | 5 | 6) {
                Prefix::from_bit_str("01").put(&mut raw);
            }
            if tag == 2 {
                SiteId(1).put(&mut raw);
            }
            if tag == 9 {
                None::<Prefix>.put(&mut raw);
                false.put(&mut raw);
            }
            raw.put_u32(u32::MAX); // claims ~4 Gi elements
            let want = if tag == 12 { DecodeError::Truncated } else { DecodeError::TooLong(u32::MAX) };
            assert_eq!(decode(raw.into_vec()).unwrap_err(), want, "tag {tag}");
        }
    }

    #[test]
    fn decode_rejects_length_exceeding_remaining_bytes() {
        // A length under the cap but larger than the buffer could hold
        // must be Truncated *before* the element loop allocates.
        let mut raw = header(3);
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

    /// A repository whose history is out of arrival order is refused,
    /// by the field the daemon's history reply decodes through too.
    #[test]
    fn state_iop_history_out_of_arrival_order_is_refused() {
        let rec = |us| IopRecord { arrived: SimTime::from_micros(us), from: None, to: None };
        let mut buf = ByteBuf::new();
        buf.put_u32(1);
        obj(1).put(&mut buf);
        vec![rec(20), rec(10)].put(&mut buf);
        let bytes = buf.into_vec();
        assert_eq!(get_state_iop(&mut Reader::new(&bytes)).unwrap_err(), DecodeError::Unsorted);
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
            which in 0usize..18,
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
            variant in 0u8..15,
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
                2 | 13 => {
                    let updates = seeds
                        .iter()
                        .map(|(o, t)| (obj(*o), SimTime::from_micros(*t), link(site, *t ^ 1)))
                        .collect();
                    if variant == 2 { Msg::SetTo { updates } } else { Msg::Splice { updates } }
                }
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
