//! The wire protocol and its size accounting.
//!
//! §V-A measures indexing cost as "the total volume of messages
//! transferred over the network", so every message knows its serialized
//! size ([`Msg::wire_size`]): a fixed header plus the model size of the
//! fields `Msg`'s declaration lists (20-byte object ids, 8-byte
//! timestamps, 4-byte site ids). The same declaration is the codec
//! ([`crate::codec`]), so the size is that of a sendable encoding.

use crate::schema::Field;
use crate::store::{IndexEntry, IopRecord, Link};
use ids::{Id, Prefix};
use moods::{ObjectId, SiteId};
use simnet::SimTime;

/// Bytes of a message header (type tag, version, reserved bytes,
/// sequence number — comparable to OverSim's BaseOverlay header).
pub const HEADER_BYTES: usize = 16;
/// Bytes of one object id (SHA-1 digest).
pub const OBJECT_ID_BYTES: usize = ObjectId::MIN;
/// Bytes of one timestamp.
pub const TIME_BYTES: usize = SimTime::MIN;
/// Bytes of one index entry (site + time + optional link).
pub const ENTRY_BYTES: usize = IndexEntry::MIN;
/// Bytes of a prefix descriptor (length byte + up to 8 bits bytes).
pub const PREFIX_BYTES: usize = Prefix::MIN;

crate::wire_enum! {
    /// Protocol messages exchanged between sites, each field in wire order.
    #[derive(Clone, Debug)]
    pub enum Msg {
        /// **M1** (individual mode, §III): "object arrived at `site` at
        /// `time`", sent from the capturing node to the object's gateway.
        Arrival {
            /// The captured object.
            object: ObjectId,
            /// The capturing site.
            site: SiteId,
            /// Capture time.
            time: SimTime,
        } = 1,
        /// Group indexing message (§IV-A.2): "the indexing message has the
        /// format of (group id, (objects), timestamp)".
        GroupIndex {
            /// The group id (`Lp`-bit prefix).
            prefix: Prefix,
            /// The capturing site.
            site: SiteId,
            /// Member objects and their capture times.
            members: Vec<(ObjectId, SimTime)>,
        } = 2,
        /// **M2**: gateway → previous site. "o1 arrives at n4, so n3 updates
        /// its IOP by setting o1.to = n4". Batched per (group, source site).
        SetTo {
            /// `(object, arrival time at the receiving site, new to-link)`.
            updates: Vec<(ObjectId, SimTime, Link)>,
        } = 3,
        /// **M3**: gateway → new site. "o1 was from n3, so n4 updates its IOP
        /// by setting o1.from = n3". Batched per batch of captures.
        SetFrom {
            /// `(object, arrival time at the receiving site, from-link)`;
            /// `None` marks the object's first appearance.
            updates: Vec<(ObjectId, SimTime, Option<Link>)>,
        } = 4,
        /// **Splice**, the out-of-order M3: thread an earlier visit in
        /// behind the receiver's record, or pass it on to the record's later
        /// predecessor — a walk along `from` links to the gap that holds it.
        /// A stored link is answered with M2, which no gateway sent.
        Splice {
            /// `(object, arrival time at the receiving site, earlier visit)`.
            updates: Vec<(ObjectId, SimTime, Link)>,
        } = 14,
        /// Data-Triangle delegation (Fig. 5 `update_index`): parent pushes
        /// its earliest records to a child prefix's gateway.
        Delegate {
            /// The child prefix receiving the records.
            prefix: Prefix,
            /// The delegated records.
            entries: Vec<(ObjectId, IndexEntry)>,
        } = 5,
        /// Split/merge migration when `Lp` changes (§IV-A.2), or key-range
        /// handoff on churn.
        Migrate {
            /// Destination prefix shard (`None` = individual-mode entries).
            prefix: Option<Prefix>,
            /// The migrated records.
            entries: Vec<(ObjectId, IndexEntry)>,
        } = 6,
        /// Delivery acknowledgement for the at-least-once retry layer: the
        /// receiver echoes the [`Wire::seq`] of the delivery it accepted.
        Ack {
            /// Sequence number being acknowledged.
            acked: u64,
        } = 7,
        /// Replication write fan-out (IOP half): the primary pushes full
        /// visit records to each of its `K−1` successor replicas, which
        /// upsert them keyed by `(object, arrived)`.
        ReplIop {
            /// The primary whose repository these records belong to.
            primary: SiteId,
            /// `(object, full visit record)` pairs.
            updates: Vec<(ObjectId, IopRecord)>,
        } = 8,
        /// Replication write fan-out (index half): the full current content
        /// of one gateway shard, replacing the replica's copy wholesale
        /// (an empty `entries` drops it). Full-shard replace — rather than
        /// per-entry upsert — is what lets removals (refresh fetches,
        /// delegation, split/merge drains) propagate without tombstones.
        ReplShard {
            /// The primary whose shard this is.
            primary: SiteId,
            /// Which shard: a group-mode prefix, or `None` for the
            /// individual-mode object map.
            prefix: Option<Prefix>,
            /// The shard's Data-Triangle delegation flag.
            delegated: bool,
            /// The shard's entire content.
            entries: Vec<(ObjectId, IndexEntry)>,
        } = 9,
        /// Anti-entropy round-trip, step 1: the primary sends a digest of
        /// its canonical store encoding to each replica. A replica whose
        /// copy hashes differently answers with [`Msg::ReplSyncReq`].
        ReplDigest {
            /// The primary initiating the exchange.
            primary: SiteId,
            /// Hash of the primary's canonical store bytes.
            digest: Id,
        } = 10,
        /// Anti-entropy step 2: a replica that detected divergence asks the
        /// primary for its full state.
        ReplSyncReq {
            /// The primary being asked.
            primary: SiteId,
        } = 11,
        /// Anti-entropy step 3: the primary's full store state in the
        /// canonical encoding; the replica replaces its copy wholesale.
        ReplState {
            /// The primary whose state this is.
            primary: SiteId,
            /// Canonical encoding of the primary's IOP + gateway stores.
            state: Vec<u8>,
        } = 12,
        /// IOP link updates (M2/M3) redirected to the replica set because
        /// the primary is permanently gone: holders patch their replica
        /// copy of the dead site's repository so locate/trace chain walks
        /// stay oracle-exact after the failure.
        ReplIopPatch {
            /// The (dead) primary whose replica copies are patched.
            primary: SiteId,
            /// M2-shaped updates: `(object, arrival time, new to-link)`.
            set_to: Vec<(ObjectId, SimTime, Link)>,
            /// M3-shaped updates: `(object, arrival time, from-link)`.
            set_from: Vec<(ObjectId, SimTime, Option<Link>)>,
        } = 13,
    }
}

/// Link-level envelope: every networked delivery carries a sender-unique
/// sequence number so the retry layer can acknowledge it and the receiver
/// can discard duplicates (retransmissions and fault-plane duplication
/// both deliver the same `seq` twice). `seq = 0` is reserved for
/// unsequenced traffic — local self-sends and the acks themselves — which
/// is never retried or deduplicated.
#[derive(Clone, Debug)]
pub struct Wire {
    /// Sender-unique sequence number (0 = unsequenced).
    pub seq: u64,
    /// The protocol payload.
    pub msg: Msg,
}

impl Wire {
    /// Wrap a payload without a sequence number.
    pub fn unsequenced(msg: Msg) -> Wire {
        Wire { seq: 0, msg }
    }

    /// Serialized size: the sequence number rides the fixed header
    /// ([`HEADER_BYTES`] already accounts for it), so the envelope adds
    /// nothing on the wire.
    pub fn wire_size(&self) -> usize {
        self.msg.wire_size()
    }
}

impl Msg {
    /// Serialized size in bytes, for the volume metric: the header and
    /// the fields' model size.
    pub fn wire_size(&self) -> usize {
        HEADER_BYTES + self.model()
    }

    /// The metrics class this message is charged to.
    pub fn class(&self) -> simnet::MsgClass {
        match self {
            Msg::Arrival { .. } => simnet::MsgClass::IndexReport,
            Msg::GroupIndex { .. } => simnet::MsgClass::GroupIndex,
            Msg::SetTo { .. } | Msg::SetFrom { .. } | Msg::Splice { .. } => {
                simnet::MsgClass::IopUpdate
            }
            Msg::Delegate { .. } => simnet::MsgClass::Delegate,
            Msg::Migrate { .. } => simnet::MsgClass::SplitMerge,
            Msg::Ack { .. } => simnet::MsgClass::Ack,
            // All replication traffic rides the gossip class: it is
            // background state maintenance, not indexing work, and the
            // paper's cost figures never charge for it.
            Msg::ReplIop { .. }
            | Msg::ReplShard { .. }
            | Msg::ReplDigest { .. }
            | Msg::ReplSyncReq { .. }
            | Msg::ReplState { .. }
            | Msg::ReplIopPatch { .. } => simnet::MsgClass::Gossip,
        }
    }

    /// The single object this message concerns, when it concerns
    /// exactly one — used to tag trace records so a trace can be
    /// filtered per object (batched payloads return `None` and stay
    /// attributable through the causal chain instead).
    pub fn single_object(&self) -> Option<ObjectId> {
        match self {
            Msg::Arrival { object, .. } => Some(*object),
            Msg::GroupIndex { members, .. } if members.len() == 1 => Some(members[0].0),
            Msg::SetTo { updates } | Msg::Splice { updates } if updates.len() == 1 => {
                Some(updates[0].0)
            }
            Msg::SetFrom { updates } if updates.len() == 1 => Some(updates[0].0),
            Msg::Delegate { entries, .. } | Msg::Migrate { entries, .. }
                if entries.len() == 1 =>
            {
                Some(entries[0].0)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids::Id;
    use simnet::time::ms;

    fn obj(n: u64) -> ObjectId {
        ObjectId(Id::hash(&n.to_be_bytes()))
    }

    #[test]
    fn arrival_size_fixed() {
        let m = Msg::Arrival { object: obj(1), site: SiteId(0), time: ms(1) };
        assert_eq!(m.wire_size(), 16 + 20 + 4 + 8);
        assert_eq!(m.class(), simnet::MsgClass::IndexReport);
    }

    #[test]
    fn group_index_scales_with_members() {
        let members: Vec<_> = (0..10u64).map(|i| (obj(i), ms(i))).collect();
        let m = Msg::GroupIndex {
            prefix: Prefix::from_bit_str("0101"),
            site: SiteId(1),
            members,
        };
        assert_eq!(m.wire_size(), 16 + 9 + 4 + 10 * 28);
        assert_eq!(m.class(), simnet::MsgClass::GroupIndex);
    }

    #[test]
    fn one_group_message_cheaper_than_individual_reports() {
        // The core premise of §IV: indexing k objects as one group costs
        // less wire volume than k individual arrival messages (headers
        // and routing amortize).
        let k = 100u64;
        let members: Vec<_> = (0..k).map(|i| (obj(i), ms(i))).collect();
        let group = Msg::GroupIndex {
            prefix: Prefix::from_bit_str("00"),
            site: SiteId(0),
            members,
        }
        .wire_size();
        let individual: usize = (0..k)
            .map(|i| Msg::Arrival { object: obj(i), site: SiteId(0), time: ms(i) }.wire_size())
            .sum();
        assert!(group < individual, "group {group} >= individual {individual}");
    }

    #[test]
    fn iop_update_classes() {
        let set_to = Msg::SetTo {
            updates: vec![(obj(1), ms(1), Link { site: SiteId(2), time: ms(3) })],
        };
        let set_from = Msg::SetFrom { updates: vec![(obj(1), ms(3), None)] };
        let early = Link { site: SiteId(2), time: ms(1) };
        let splice = Msg::Splice { updates: vec![(obj(1), ms(3), early)] };
        for m in [&set_to, &set_from, &splice] {
            assert_eq!(m.class(), simnet::MsgClass::IopUpdate);
            assert!(m.wire_size() > HEADER_BYTES);
        }
    }

    #[test]
    fn replication_messages_charge_gossip() {
        let rec = IopRecord { arrived: ms(1), from: None, to: None };
        let msgs = [
            Msg::ReplIop { primary: SiteId(1), updates: vec![(obj(1), rec)] },
            Msg::ReplShard {
                primary: SiteId(1),
                prefix: Some(Prefix::from_bit_str("01")),
                entries: vec![],
                delegated: false,
            },
            Msg::ReplDigest { primary: SiteId(1), digest: Id::hash(b"x") },
            Msg::ReplSyncReq { primary: SiteId(1) },
            Msg::ReplState { primary: SiteId(1), state: vec![0u8; 64] },
            Msg::ReplIopPatch {
                primary: SiteId(1),
                set_to: vec![(obj(1), ms(1), Link { site: SiteId(2), time: ms(2) })],
                set_from: vec![(obj(1), ms(2), None)],
            },
        ];
        for m in &msgs {
            assert_eq!(m.class(), simnet::MsgClass::Gossip);
            assert!(m.wire_size() >= HEADER_BYTES + SiteId::MIN);
            assert_eq!(m.single_object(), None);
        }
    }

    #[test]
    fn migrate_and_delegate_classes() {
        let e = IndexEntry { site: SiteId(0), time: ms(1), prev: None };
        let d = Msg::Delegate { prefix: Prefix::from_bit_str("010"), entries: vec![(obj(1), e)] };
        let g = Msg::Migrate { prefix: None, entries: vec![(obj(1), e)] };
        assert_eq!(d.class(), simnet::MsgClass::Delegate);
        assert_eq!(g.class(), simnet::MsgClass::SplitMerge);
    }
}
