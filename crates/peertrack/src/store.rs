//! Per-node storage: IOP repositories and gateway index shards.
//!
//! Each organization (site) holds two kinds of state:
//!
//! * its **local repository** of IOP records ([`IopStore`]) — the
//!   segments of object paths observed in its own territory, plus the
//!   `from`/`to` links the gateway threads through them (§II-C, §III);
//! * the **index shards** the DHT assigns it ([`GatewayStore`]) — either
//!   per-object entries (individual mode) or per-prefix group indexes
//!   ([`PrefixIndex`], group mode, §IV), including Data-Triangle
//!   bookkeeping.

use ids::{Interner, Prefix};
use moods::{ObjectId, SiteId};
use simnet::SimTime;
use std::collections::{BTreeSet, HashMap};

/// One hop of the distributed doubly-linked list: a site together with
/// the arrival timestamp that identifies the visit record there. Links
/// order by time, then site — the order of one object's chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Link {
    /// Arrival time of the object at that site (record key).
    pub time: SimTime,
    /// The linked site.
    pub site: SiteId,
}

/// What [`IopStore::set_from`] did with an offered predecessor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FromLink {
    /// The record is unchanged: no link was offered, the link was not
    /// earlier than the record, or it is the predecessor already held.
    Kept,
    /// Stored. `Some(old)` is the earlier predecessor it displaced,
    /// which now belongs behind the new one.
    Stored(Option<Link>),
    /// Refused: the record holds this later predecessor, and the offered
    /// link belongs behind it.
    Behind(Link),
}

/// A gateway's knowledge of one object: its latest location and the link
/// to the previous one (enough to thread M2/M3 on the next move).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// Site of the latest capture.
    pub site: SiteId,
    /// Time of the latest capture.
    pub time: SimTime,
    /// Where the object was before that (None for its first appearance).
    pub prev: Option<Link>,
}

impl IndexEntry {
    /// The link form of this entry (site + time).
    pub fn link(&self) -> Link {
        Link { site: self.site, time: self.time }
    }
}

/// One visit record in a site's local repository. `from`/`to` are filled
/// in by gateway messages M3/M2 respectively (§III, Fig. 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IopRecord {
    /// When the object arrived here (set at capture).
    pub arrived: SimTime,
    /// Previous stop (`o.from` in the paper), set by message M3.
    pub from: Option<Link>,
    /// Next stop (`o.to`), set by message M2 when the object moves on.
    pub to: Option<Link>,
}

/// A site's local repository: every visit it has observed, per object,
/// in arrival order.
///
/// Storage is flat: object ids are interned to dense `u32` handles
/// ([`ids::Interner`]) and each handle indexes a slab of per-object
/// visit histories — no nested hash maps on the simulation path. Every
/// history is kept **sorted by arrival time**, so the keyed lookups
/// (`record_at`, `latest_at_or_before`, the M2/M3 write paths) are
/// `partition_point` binary searches instead of linear backward walks —
/// hot at 10⁷ objects.
#[derive(Clone, Default, Debug)]
pub struct IopStore {
    /// Object id → dense handle, assigned in first-appearance order.
    interner: Interner,
    /// Handle → visit history, sorted ascending by `arrived`.
    histories: Vec<Vec<IopRecord>>,
}

impl IopStore {
    /// Empty repository.
    pub fn new() -> IopStore {
        IopStore::default()
    }

    /// The history slot for `object`, interning it on first sight.
    fn history_mut(&mut self, object: ObjectId) -> &mut Vec<IopRecord> {
        let h = self.interner.intern(&object.0) as usize;
        if h == self.histories.len() {
            self.histories.push(Vec::new());
        }
        &mut self.histories[h]
    }

    /// Record a capture (creates an open visit). Arrival times per object
    /// must be non-decreasing at one site.
    pub fn capture(&mut self, object: ObjectId, arrived: SimTime) {
        let v = self.history_mut(object);
        if let Some(last) = v.last() {
            debug_assert!(arrived >= last.arrived, "out-of-order capture at one site");
        }
        v.push(IopRecord { arrived, from: None, to: None });
    }

    /// Apply message **M2**: the object captured here at `arrived` has
    /// moved on to `to`. Writes commute: the earlier successor is kept,
    /// and a link not later than the record is refused. Returns false
    /// if no such record exists (e.g. the site joined after the visit).
    pub fn set_to(&mut self, object: ObjectId, arrived: SimTime, to: Link) -> bool {
        let Some(r) = self.record_mut(object, arrived) else { return false };
        if to.time > arrived && r.to.is_none_or(|old| to < old) {
            r.to = Some(to);
        }
        true
    }

    /// Apply message **M3**: the object captured here at `arrived` came
    /// from `from` (None = first appearance in the system). Writes
    /// commute: the later predecessor is kept, `None` never erases a
    /// link, and a link not earlier than the record is refused. `None`
    /// if no such record exists.
    pub fn set_from(
        &mut self,
        object: ObjectId,
        arrived: SimTime,
        from: Option<Link>,
    ) -> Option<FromLink> {
        let r = self.record_mut(object, arrived)?;
        Some(match (from, r.from) {
            (Some(f), old) if f.time < arrived && old.is_none_or(|old| f > old) => {
                r.from = Some(f);
                FromLink::Stored(old)
            }
            (Some(f), Some(old)) if f < old => FromLink::Behind(old),
            _ => FromLink::Kept,
        })
    }

    fn record_mut(&mut self, object: ObjectId, arrived: SimTime) -> Option<&mut IopRecord> {
        let h = self.interner.get(&object.0)?;
        let v = &mut self.histories[h as usize];
        let i = position_at(v, arrived)?;
        Some(&mut v[i])
    }

    /// The visit record keyed by arrival time.
    pub fn record_at(&self, object: ObjectId, arrived: SimTime) -> Option<&IopRecord> {
        record_at(self.all(object), arrived)
    }

    /// The site's latest visit record for the object.
    pub fn latest(&self, object: ObjectId) -> Option<&IopRecord> {
        self.all(object).last()
    }

    /// Latest visit record with `arrived ≤ t`.
    pub fn latest_at_or_before(&self, object: ObjectId, t: SimTime) -> Option<&IopRecord> {
        latest_at_or_before(self.all(object), t)
    }

    /// Does this repository know the object at all?
    pub fn knows(&self, object: ObjectId) -> bool {
        self.interner.get(&object.0).is_some()
    }

    /// All visit records for the object, in arrival order.
    pub fn all(&self, object: ObjectId) -> &[IopRecord] {
        self.interner.get(&object.0).map_or(&[], |h| &self.histories[h as usize])
    }

    /// Number of (object, visit) records stored.
    pub fn len(&self) -> usize {
        self.histories.iter().map(Vec::len).sum()
    }

    /// Iterate every `(object, visit history)` pair, in handle (=
    /// first-appearance) order — callers needing a canonical order
    /// (state snapshots) sort the keys themselves.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &[IopRecord])> {
        self.interner.iter().map(|(h, id)| (ObjectId(*id), self.histories[h as usize].as_slice()))
    }

    /// Install a full visit history for one object (state recovery —
    /// the inverse of [`IopStore::iter`]). Records must be in arrival
    /// order; replaces any existing history for the object.
    pub fn insert_history(&mut self, object: ObjectId, records: Vec<IopRecord>) {
        debug_assert!(
            records.windows(2).all(|w| w[0].arrived <= w[1].arrived),
            "history must be in arrival order"
        );
        *self.history_mut(object) = records;
    }

    /// Install or replace one visit record, keyed by `(object,
    /// arrived)` — the replication write path. Unlike [`capture`] this
    /// tolerates out-of-order arrival of replica updates: a record with
    /// the same arrival time is replaced in place (link fields may have
    /// been filled in since), otherwise the record is inserted at its
    /// sorted position (binary search — histories are sorted).
    ///
    /// [`capture`]: IopStore::capture
    pub fn upsert_record(&mut self, object: ObjectId, rec: IopRecord) {
        let v = self.history_mut(object);
        let i = v.partition_point(|r| r.arrived < rec.arrived);
        if i < v.len() && v[i].arrived == rec.arrived {
            v[i] = rec;
        } else {
            v.insert(i, rec);
        }
    }

    /// Is the repository empty?
    pub fn is_empty(&self) -> bool {
        self.interner.is_empty()
    }
}

// The views of one object's visit history (in arrival order) that a
// query reads. The repository and the query planner both answer from
// these, so each view is written once.

/// Index of the **last** record with `arrived == t`, if any (same-time
/// repeat visits resolve to the latest, matching the original backward
/// walk).
fn position_at(history: &[IopRecord], t: SimTime) -> Option<usize> {
    let i = history.partition_point(|r| r.arrived <= t);
    (i > 0 && history[i - 1].arrived == t).then(|| i - 1)
}

/// The visit of `history` that arrived at `t`.
pub fn record_at(history: &[IopRecord], t: SimTime) -> Option<&IopRecord> {
    position_at(history, t).map(|i| &history[i])
}

/// The latest visit of `history` arriving at or before `t`.
pub fn latest_at_or_before(history: &[IopRecord], t: SimTime) -> Option<&IopRecord> {
    let i = history.partition_point(|r| r.arrived <= t);
    i.checked_sub(1).map(|i| &history[i])
}

/// A group-index shard: the records a gateway keeps for one prefix.
///
/// The insertion-ordered `order` set supports the FIFO-like delegation
/// policy ("select the earliest α·objects.count objects indexed at this
/// gateway", Fig. 5 `update_index` — "based on the observation that the
/// latest records are more likely to be read and updated in the near
/// future").
#[derive(Clone, Debug, Default)]
pub struct PrefixIndex {
    /// Per-object latest state.
    pub entries: HashMap<ObjectId, IndexEntry>,
    /// `(last-update time, object)` — ordered oldest first.
    order: BTreeSet<(SimTime, ObjectId)>,
    /// Set once this shard has delegated records to its triangle
    /// children; lookups then also consult `p+'0'`/`p+'1'`.
    pub delegated: bool,
}

impl PrefixIndex {
    /// Empty shard.
    pub fn new() -> PrefixIndex {
        PrefixIndex::default()
    }

    /// Number of objects indexed here.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the shard empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Read an object's entry.
    pub fn get(&self, object: &ObjectId) -> Option<&IndexEntry> {
        self.entries.get(object)
    }

    /// Insert or update an object's entry, maintaining recency order.
    pub fn upsert(&mut self, object: ObjectId, entry: IndexEntry) {
        if let Some(old) = self.entries.insert(object, entry) {
            self.order.remove(&(old.time, object));
        }
        self.order.insert((entry.time, object));
    }

    /// Remove an object's entry (refresh-fetch takes records with it).
    pub fn take(&mut self, object: &ObjectId) -> Option<IndexEntry> {
        let e = self.entries.remove(object)?;
        self.order.remove(&(e.time, *object));
        Some(e)
    }

    /// Remove and return the `k` earliest records (delegation batch).
    pub fn take_earliest(&mut self, k: usize) -> Vec<(ObjectId, IndexEntry)> {
        let victims: Vec<(SimTime, ObjectId)> = self.order.iter().take(k).copied().collect();
        let mut out = Vec::with_capacity(victims.len());
        for (t, o) in victims {
            self.order.remove(&(t, o));
            let e = self.entries.remove(&o).expect("order/entries in sync");
            out.push((o, e));
        }
        out
    }

    /// Drain everything (split/merge migration).
    pub fn drain_all(&mut self) -> Vec<(ObjectId, IndexEntry)> {
        self.order.clear();
        self.entries.drain().collect()
    }
}

/// Everything a site stores *as a gateway*: per-object entries
/// (individual mode) and per-prefix shards (group mode).
#[derive(Clone, Debug, Default)]
pub struct GatewayStore {
    /// Individual-mode index: object id → latest state.
    pub objects: HashMap<ObjectId, IndexEntry>,
    /// Group-mode shards, keyed by prefix.
    pub prefixes: HashMap<Prefix, PrefixIndex>,
}

impl GatewayStore {
    /// Empty store.
    pub fn new() -> GatewayStore {
        GatewayStore::default()
    }

    /// Total number of object entries held (both modes) — the *load* a
    /// node carries for Fig. 8a.
    pub fn load(&self) -> usize {
        self.objects.len() + self.prefixes.values().map(PrefixIndex::len).sum::<usize>()
    }

    /// Shard for `prefix`, creating it if absent.
    pub fn shard_mut(&mut self, prefix: Prefix) -> &mut PrefixIndex {
        self.prefixes.entry(prefix).or_default()
    }

    /// The source side of a Fig. 5 refresh fetch: take the entries of
    /// `objects` out of shard `prefix`, then drop the shard if it is
    /// empty. Returns the entries taken and whether the shard went.
    pub fn take_from(
        &mut self,
        prefix: &Prefix,
        objects: &[ObjectId],
    ) -> (Vec<(ObjectId, IndexEntry)>, bool) {
        let taken = match self.prefixes.get_mut(prefix) {
            Some(shard) => objects.iter().filter_map(|o| Some((*o, shard.take(o)?))).collect(),
            None => Vec::new(),
        };
        (taken, self.prune_if_empty(prefix))
    }

    /// Remove a shard if it is empty; returns true if removed.
    pub fn prune_if_empty(&mut self, prefix: &Prefix) -> bool {
        if self.prefixes.get(prefix).is_some_and(PrefixIndex::is_empty) {
            self.prefixes.remove(prefix);
            true
        } else {
            false
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
    fn capture_then_link() {
        let mut iop = IopStore::new();
        iop.capture(obj(1), ms(10));
        assert!(iop.knows(obj(1)));
        assert_eq!(iop.set_from(obj(1), ms(10), None), Some(FromLink::Kept));
        assert!(iop.set_to(obj(1), ms(10), Link { site: SiteId(2), time: ms(30) }));
        let r = iop.record_at(obj(1), ms(10)).unwrap();
        assert_eq!(r.from, None);
        assert_eq!(r.to, Some(Link { site: SiteId(2), time: ms(30) }));
    }

    #[test]
    fn set_on_missing_record_reports_failure() {
        let mut iop = IopStore::new();
        assert!(!iop.set_to(obj(1), ms(10), Link { site: SiteId(0), time: ms(1) }));
        iop.capture(obj(1), ms(10));
        assert_eq!(iop.set_from(obj(1), ms(99), None), None);
    }

    #[test]
    fn link_writes_commute_and_never_point_at_their_own_record() {
        let at = |n: u32, t: u64| Link { site: SiteId(n), time: ms(t) };
        let mut iop = IopStore::new();
        iop.capture(obj(1), ms(50));
        // The later predecessor and the earlier successor win in any
        // order; a displaced or refused predecessor is handed back.
        let mut from = |l| iop.set_from(obj(1), ms(50), l).unwrap();
        assert_eq!(from(Some(at(2, 20))), FromLink::Stored(None));
        assert_eq!(from(Some(at(3, 30))), FromLink::Stored(Some(at(2, 20))));
        assert_eq!(from(Some(at(4, 10))), FromLink::Behind(at(3, 30)));
        for same in [Some(at(3, 30)), None, Some(at(0, 50))] {
            assert_eq!(from(same), FromLink::Kept);
        }
        for to in [at(5, 90), at(6, 70), at(5, 90), at(0, 50)] {
            assert!(iop.set_to(obj(1), ms(50), to));
        }
        let r = iop.record_at(obj(1), ms(50)).unwrap();
        assert_eq!((r.from, r.to), (Some(at(3, 30)), Some(at(6, 70))));
    }

    #[test]
    fn repeated_visits_tracked_separately() {
        let mut iop = IopStore::new();
        iop.capture(obj(1), ms(10));
        iop.capture(obj(1), ms(50));
        assert_eq!(iop.all(obj(1)).len(), 2);
        assert_eq!(iop.latest(obj(1)).unwrap().arrived, ms(50));
        assert_eq!(iop.latest_at_or_before(obj(1), ms(40)).unwrap().arrived, ms(10));
        assert_eq!(iop.latest_at_or_before(obj(1), ms(5)), None);
        assert_eq!(iop.len(), 2);
    }

    #[test]
    fn same_time_repeat_visits_resolve_to_latest() {
        // Two captures at the same instant: the binary-search paths
        // must resolve `(object, arrived)` to the *last* matching
        // record, exactly like the original backward linear walk.
        let mut iop = IopStore::new();
        iop.capture(obj(1), ms(10));
        iop.capture(obj(1), ms(10));
        assert_eq!(iop.all(obj(1)).len(), 2);
        assert!(iop.set_to(obj(1), ms(10), Link { site: SiteId(3), time: ms(20) }));
        let v = iop.all(obj(1));
        assert_eq!(v[1].to.map(|l| l.site), Some(SiteId(3)));
        assert_eq!(v[0].to, None, "earlier same-time record untouched");
        assert_eq!(iop.record_at(obj(1), ms(10)).unwrap().to.map(|l| l.site), Some(SiteId(3)));
    }

    #[test]
    fn iter_is_first_appearance_order_and_roundtrips() {
        let mut iop = IopStore::new();
        iop.capture(obj(9), ms(1));
        iop.capture(obj(2), ms(2));
        iop.capture(obj(9), ms(3));
        let pairs: Vec<(ObjectId, usize)> = iop.iter().map(|(o, v)| (o, v.len())).collect();
        assert_eq!(pairs, vec![(obj(9), 2), (obj(2), 1)]);
        assert_eq!(iop.len(), 3);
    }

    #[test]
    fn upsert_record_replaces_or_inserts_sorted() {
        let mut iop = IopStore::new();
        iop.upsert_record(obj(1), IopRecord { arrived: ms(50), from: None, to: None });
        // Out-of-order replica update lands at its sorted position.
        iop.upsert_record(obj(1), IopRecord { arrived: ms(10), from: None, to: None });
        assert_eq!(iop.all(obj(1)).iter().map(|r| r.arrived).collect::<Vec<_>>(), [ms(10), ms(50)]);
        // Same-key upsert replaces in place (link fields updated).
        let link = Link { site: SiteId(7), time: ms(60) };
        iop.upsert_record(obj(1), IopRecord { arrived: ms(10), from: None, to: Some(link) });
        assert_eq!(iop.all(obj(1)).len(), 2);
        assert_eq!(iop.record_at(obj(1), ms(10)).unwrap().to, Some(link));
    }

    #[test]
    fn prefix_index_upsert_updates_order() {
        let mut pi = PrefixIndex::new();
        pi.upsert(obj(1), IndexEntry { site: SiteId(0), time: ms(10), prev: None });
        pi.upsert(obj(2), IndexEntry { site: SiteId(1), time: ms(20), prev: None });
        // Re-index object 1 later — it should no longer be the earliest.
        pi.upsert(obj(1), IndexEntry { site: SiteId(2), time: ms(30), prev: None });
        let earliest = pi.take_earliest(1);
        assert_eq!(earliest[0].0, obj(2));
        assert_eq!(pi.len(), 1);
        assert!(pi.get(&obj(1)).is_some());
    }

    #[test]
    fn take_earliest_more_than_len() {
        let mut pi = PrefixIndex::new();
        pi.upsert(obj(1), IndexEntry { site: SiteId(0), time: ms(1), prev: None });
        let batch = pi.take_earliest(10);
        assert_eq!(batch.len(), 1);
        assert!(pi.is_empty());
    }

    #[test]
    fn take_removes_entry_and_order() {
        let mut pi = PrefixIndex::new();
        pi.upsert(obj(1), IndexEntry { site: SiteId(0), time: ms(1), prev: None });
        let e = pi.take(&obj(1)).unwrap();
        assert_eq!(e.site, SiteId(0));
        assert!(pi.take(&obj(1)).is_none());
        assert!(pi.take_earliest(1).is_empty());
    }

    #[test]
    fn gateway_load_counts_both_kinds() {
        let mut g = GatewayStore::new();
        g.objects.insert(obj(1), IndexEntry { site: SiteId(0), time: ms(1), prev: None });
        let p = Prefix::from_bit_str("01");
        g.shard_mut(p).upsert(obj(2), IndexEntry { site: SiteId(1), time: ms(2), prev: None });
        assert_eq!(g.load(), 2);
        g.shard_mut(p).take(&obj(2));
        assert!(g.prune_if_empty(&p));
        assert_eq!(g.load(), 1);
    }
}
