//! Span-kind registry and trace-context tags for the observability
//! layer.
//!
//! The engine's [`simnet::TraceSink`] treats span kinds as opaque
//! `u32`s; this module owns the peertrack assignments and their labels
//! so `obs` stays protocol-agnostic. Three ranges:
//!
//! * `1..16` — per-message end-to-end spans, opened when
//!   [`NetWorld`](crate::world::NetWorld) sends and closed when the first
//!   copy of that wire sequence number is *processed* (acked +
//!   deduplicated), so the span covers loss and retransmission, not
//!   just one network traversal;
//! * `16..32` — operation spans (join/leave/`Lp` migration), closed at
//!   quiescence;
//! * `32..` — query spans; queries are synchronous, so the closing
//!   time is the latency-model cost attached to the answer.

use moods::ObjectId;
use simnet::MsgClass;

/// Group-index flush: batch dispatched → gateway processed it.
pub const MSG_GROUP_INDEX: u32 = 1;
/// IOP establishment: M2/M3 dispatched → repository updated.
pub const MSG_IOP_UPDATE: u32 = 2;
/// Individual-mode arrival report (M1).
pub const MSG_ARRIVAL: u32 = 3;
/// Triangle delegation hand-off.
pub const MSG_DELEGATE: u32 = 4;
/// Split/merge shard migration hand-off.
pub const MSG_MIGRATE: u32 = 5;
/// A node joining: ring insert → network quiescent again.
pub const OP_JOIN: u32 = 16;
/// A node leaving: departure → network quiescent again.
pub const OP_LEAVE: u32 = 17;
/// An `Lp` recomputation, including any eager split/merge migration,
/// up to quiescence.
pub const OP_LP_REFRESH: u32 = 18;
/// A `locate` (L) query.
pub const QUERY_LOCATE: u32 = 32;
/// A `trace` (TR) query.
pub const QUERY_TRACE: u32 = 33;

/// Human-readable label for a span kind (exporters).
pub fn label(kind: u32) -> &'static str {
    match kind {
        MSG_GROUP_INDEX => "group-index-flush",
        MSG_IOP_UPDATE => "iop-establish",
        MSG_ARRIVAL => "arrival-report",
        MSG_DELEGATE => "delegate",
        MSG_MIGRATE => "migrate",
        OP_JOIN => "join",
        OP_LEAVE => "leave",
        OP_LP_REFRESH => "lp-refresh",
        QUERY_LOCATE => "query-locate",
        QUERY_TRACE => "query-trace",
        _ => "span",
    }
}

/// The per-message span kind for a wire class, if that class gets
/// end-to-end spans (reliability traffic and overlay upkeep do not —
/// their latency is visible through the class histograms already).
pub fn for_class(class: MsgClass) -> Option<u32> {
    match class {
        MsgClass::GroupIndex => Some(MSG_GROUP_INDEX),
        MsgClass::IopUpdate => Some(MSG_IOP_UPDATE),
        MsgClass::IndexReport => Some(MSG_ARRIVAL),
        MsgClass::Delegate => Some(MSG_DELEGATE),
        MsgClass::SplitMerge => Some(MSG_MIGRATE),
        _ => None,
    }
}

/// Trace-context tag for an object: the first eight bytes of its
/// (hashed) id. Never 0 in practice (a SHA-1 prefix of all zeroes),
/// which the trace layer reserves for "untagged".
pub fn object_tag(object: ObjectId) -> u64 {
    let b = object.id().0;
    u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::metrics::ALL_CLASSES;

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            MSG_GROUP_INDEX,
            MSG_IOP_UPDATE,
            MSG_ARRIVAL,
            MSG_DELEGATE,
            MSG_MIGRATE,
            OP_JOIN,
            OP_LEAVE,
            OP_LP_REFRESH,
            QUERY_LOCATE,
            QUERY_TRACE,
        ];
        let labels: std::collections::BTreeSet<_> = kinds.iter().map(|&k| label(k)).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn span_classes_are_the_protocol_payload_classes() {
        let spanned: Vec<_> =
            ALL_CLASSES.iter().filter(|c| for_class(**c).is_some()).collect();
        assert_eq!(spanned.len(), 5);
    }

    #[test]
    fn object_tags_differ() {
        let a = object_tag(ObjectId::from_raw(b"object-a"));
        let b = object_tag(ObjectId::from_raw(b"object-b"));
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
