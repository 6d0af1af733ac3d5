//! The write plane of one site, written once.
//!
//! §III Fig. 2 (M1 arrival → gateway, M2 `set_to` to the previous site,
//! M3 `set_from` to the capturing site), the whole §IV Fig. 5 `index`
//! over a prefix group (the refresh walk, `update_index`, the
//! delegation trigger), the shard movement that keeps the index whole
//! as the ring and `Lp` change (Chord's key handoff, §IV-A.2 splitting
//! and merging, triangle delegation) and the K-successor replication
//! that rides on all of them are the same protocol whether a site lives
//! inside the simulator or behind a socket. This module is that
//! protocol's only implementation: [`Site`] is the state one site owns,
//! and the free functions below advance it.
//!
//! They are generic (static dispatch) over a [`Host`], which supplies
//! exactly what a site cannot know alone: how a message leaves, where a
//! prefix's gateway is, who is on the ring, which indexing mode runs,
//! and what the refresh walk can reach. Two hosts exist:
//!
//! * the simulator ([`crate::world::NetWorld`] plus its `Sim`) holds
//!   every site. It sends through the event queue, decides *when*
//!   shards move (after a join or leave, per live site on an `Lp`
//!   change), and fetches from any site's shard;
//! * the daemon's `Core` holds one site. It sends through its outbox,
//!   moves its own shards when a membership record changes its ring,
//!   and counts what falls outside its regime as unsupported.
//!
//! Two contracts carry the Fig. 5 walk across that difference:
//!
//! * [`Host::fetch`] takes a shard's entries for the objects a gateway
//!   lacks and hands them back; `index` lands them. `None` means the
//!   shard is not hosted as far as the host can see, and the descent
//!   does not recurse below it. The simulator reaches any site (charged
//!   as `Refresh` traffic, lossy under faults); the daemon reaches only
//!   the shards it holds itself, in place and free.
//! * [`Host::may_delegate`] is asked once a shard crosses the threshold.
//!   The daemon answers `false` (and counts it): its gateway read does
//!   not search triangle children.
//!
//! A gateway merges each visit it meets by one rule, [`splice`]: one
//! older than the visit it indexes is threaded into the IOP chain — by
//! a walk back along `from` links ([`Msg::Splice`]) when it belongs
//! further back — and link writes commute, so every delivery order
//! builds the same chain.
//!
//! [`handle`] applies every arm of the protocol and hands back only
//! what the host's mode does not run: an `Arrival` in group mode, a
//! `GroupIndex` in individual mode, and a replica state that does not
//! decode.

use crate::bytebuf::{ByteBuf, Reader};
use crate::codec;
use crate::config::GroupConfig;
use crate::grouping::group_batch;
use crate::messages::Msg;
use crate::store::{FromLink, GatewayStore, IndexEntry, IopRecord, IopStore, Link, PrefixIndex};
use crate::window::{WindowBatch, WindowBuffer, WindowEvent};
use ids::{Id, Prefix};
use moods::{ObjectId, SiteId};
use simnet::SimTime;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Counters for conditions that should not occur in well-formed runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Anomalies {
    /// Always 0: a gateway splices a visit older than the one it
    /// indexes into the chain ([`splice`]) instead of dropping it. Kept
    /// for the benchmark, which sums it.
    pub out_of_order_arrivals: u64,
    /// IOP update targeting a record the site does not hold (e.g. the
    /// site re-joined after data loss), or a redirected update reaching
    /// a node that holds no copy of the dead primary.
    pub dangling_iop_updates: u64,
    /// Messages dropped because the destination site had left.
    pub dropped_to_dead: u64,
    /// Deliveries that exhausted every retry attempt without an ack.
    pub retries_exhausted: u64,
    /// Duplicate deliveries (retransmission or fault-plane duplication)
    /// suppressed by the receiver's sequence filter.
    pub duplicates_suppressed: u64,
    /// Refresh RPCs abandoned because every attempt was lost (the
    /// entries stay at the remote shard; the index is stale until the
    /// next refresh).
    pub refresh_failures: u64,
}

/// The protocol state one organization owns.
pub struct Site {
    /// Application-level identity.
    pub site: SiteId,
    /// Group-mode capture window.
    pub window: WindowBuffer,
    /// Local repository (IOP records).
    pub iop: IopStore,
    /// Index shards this site hosts as a gateway.
    pub gateway: GatewayStore,
    /// Replica copies of other primaries' IOP repositories, keyed by
    /// primary. Held only while this site is in the primary's successor
    /// set; kept apart from the primary stores so index-placement
    /// invariants keep holding on the primary copies alone. Sorted, so
    /// every walk over the copies is hasher-independent.
    pub replica_iop: BTreeMap<SiteId, IopStore>,
    /// Replica copies of other primaries' gateway stores, same keying.
    pub replica_gateway: BTreeMap<SiteId, GatewayStore>,
}

impl Site {
    /// Empty state for `site`, its window flushing at `n_max` objects.
    pub fn new(site: SiteId, n_max: usize) -> Site {
        Site {
            site,
            window: WindowBuffer::new(site, n_max),
            iop: IopStore::new(),
            gateway: GatewayStore::new(),
            replica_iop: BTreeMap::new(),
            replica_gateway: BTreeMap::new(),
        }
    }

    /// Canonical byte encoding of the primary stores (IOP then
    /// gateway) — the unit both digests and full-state sync hash and
    /// ship. The sorted-key encoders the daemon's snapshots use, so
    /// semantically equal stores encode byte-identically.
    pub fn store_state_bytes(&self) -> Vec<u8> {
        state_bytes(&self.iop, &self.gateway)
    }

    /// Canonical encoding of this site's replica copy of `primary`'s
    /// stores (empty stores when it holds no copy yet).
    pub fn replica_state_bytes(&self, primary: SiteId) -> Vec<u8> {
        let (empty_iop, empty_gw) = (IopStore::new(), GatewayStore::new());
        state_bytes(
            self.replica_iop.get(&primary).unwrap_or(&empty_iop),
            self.replica_gateway.get(&primary).unwrap_or(&empty_gw),
        )
    }
}

fn state_bytes(iop: &IopStore, gateway: &GatewayStore) -> Vec<u8> {
    let mut buf = ByteBuf::new();
    codec::put_state_iop(&mut buf, iop);
    codec::put_state_gateway(&mut buf, gateway);
    buf.into_vec()
}

/// Inverse of [`state_bytes`]. Trailing bytes are an error: replica
/// digests are taken over the canonical encoding and nothing else.
fn stores_from_bytes(state: &[u8]) -> Result<(IopStore, GatewayStore), codec::DecodeError> {
    let mut r = Reader::new(state);
    let stores = (codec::get_state_iop(&mut r)?, codec::get_state_gateway(&mut r)?);
    r.finish()?;
    Ok(stores)
}

/// What a site needs from whatever runs it.
pub trait Host {
    /// The state of `site`. The simulator indexes its site table; a
    /// single-site host asserts the id and returns its own.
    fn site(&mut self, site: SiteId) -> &mut Site;

    /// Put `msg` on the network: sequence it, charge the model cost,
    /// deliver it later. Never called for a self-send.
    fn send(&mut self, from: SiteId, to: SiteId, hops: u32, msg: Msg);

    /// Run the host's whole handler for a message `to` sent itself —
    /// its own arms around [`handle`] — before returning.
    fn deliver(&mut self, to: SiteId, from: SiteId, msg: Msg);

    /// Gateway of `prefix` and the overlay hops to reach it from
    /// `from`. `None` = the host could not route (and has counted it).
    fn route(&mut self, from: SiteId, prefix: Prefix) -> Option<(SiteId, u32)>;

    /// The ring's ground-truth owner of `key` (its successor) — where a
    /// handed-off shard goes, one hop away. Not a routed lookup: it is
    /// neither charged nor traced.
    fn owner(&self, key: Id) -> SiteId;

    /// Current prefix length `Lp`.
    fn lp(&self) -> usize;

    /// Replication factor `K`; `1` turns every replication path below
    /// into an early return that sends nothing.
    fn replicas(&self) -> usize;

    /// Is `site` a current member, as far as this host knows?
    fn live(&self, site: SiteId) -> bool;

    /// The replica set of a live `site`: its K−1 ring successors, in
    /// ring order. Empty when replication is off.
    fn replica_peers(&self, site: SiteId) -> Vec<SiteId>;

    /// `Some(holders of its replica repository)` when `site` is
    /// permanently gone and replication is on, `None` otherwise.
    fn holders_if_dead(&self, site: SiteId) -> Option<Vec<SiteId>>;

    /// The anomaly counters.
    fn anomalies_mut(&mut self) -> &mut Anomalies;

    /// The §IV group parameters; `None` = individual mode (§III).
    fn group(&self) -> Option<GroupConfig>;

    /// One Fig. 5 refresh fetch for gateway `gw`: take the entries of
    /// the `missing` objects under `p` out of shard `p`, wherever it
    /// lives, and return them; `index` lands them. `None` = `p` is not
    /// hosted as far as this host can see, so the descent stops there.
    /// `Some` may be empty: nothing matched, or the fetch was lost. The
    /// host charges the exchange, and replicates the source shard when
    /// it gave something up.
    fn fetch(
        &mut self,
        gw: SiteId,
        p: Prefix,
        missing: &HashSet<ObjectId>,
    ) -> Option<Vec<(ObjectId, IndexEntry)>>;

    /// `gw`'s shard `prefix` crossed the delegation threshold: may it
    /// delegate to its triangle children? A host whose reads cannot
    /// follow the entries there answers `false`.
    fn may_delegate(&mut self, _gw: SiteId, _prefix: Prefix) -> bool {
        true
    }

    /// `prefix` now holds index data (the simulator keeps the global
    /// set its refresh walks consult).
    fn mark_hosted(&mut self, _prefix: Prefix) {}

    /// `prefix`'s shard was drained by a split or merge.
    fn unmark_hosted(&mut self, _prefix: Prefix) {}

    /// A [`Msg::Migrate`] landed entries in `site`'s shard `prefix`
    /// (the daemon re-levels one that arrives above its `Lp`).
    fn migrated(&mut self, _site: SiteId, _prefix: Prefix) {}

    /// The stored latest link of `object` changed content (the
    /// simulator bumps its locate-cache epoch).
    fn index_changed(&mut self, _object: ObjectId) {}

    /// `site` fanned a write out to its replica set (the simulator arms
    /// its one-shot anti-entropy timer).
    fn replicated_write(&mut self, _site: SiteId) {}

    /// Capturing `object` opened `site`'s window (the simulator arms
    /// `Tmax`; off-sim the driver closes windows with explicit flushes).
    fn window_opened(&mut self, _site: SiteId, _object: ObjectId) {}

    /// Capturing `object` filled `site`'s window to `Nmax`; it is about
    /// to be indexed (the simulator cancels `Tmax`).
    fn window_filled(&mut self, _site: SiteId, _object: ObjectId) {}
}

/// Deliver a message. A site does not pay network cost to talk to
/// itself: self-sends run inline, depth-first. An IOP update (M2, M3 or
/// a walk) aimed at a permanently failed site is repaired onto the
/// holders of its replica repository as a [`Msg::ReplIopPatch`] instead
/// of being dropped on the floor; with no surviving holder it is lost
/// and counted.
pub fn dispatch<H: Host>(h: &mut H, from: SiteId, to: SiteId, hops: u32, msg: Msg) {
    if from == to {
        h.deliver(to, from, msg);
        return;
    }
    let Some(holders) = h.holders_if_dead(to) else { return h.send(from, to, hops, msg) };
    let (set_to, set_from) = match msg {
        Msg::SetTo { updates } => (updates, Vec::new()),
        Msg::SetFrom { updates } => (Vec::new(), updates),
        Msg::Splice { updates } => (Vec::new(), from_links(updates)),
        other => return h.send(from, to, hops, other),
    };
    if holders.is_empty() {
        h.anomalies_mut().dropped_to_dead += 1;
    }
    for holder in holders {
        let (set_to, set_from) = (set_to.clone(), set_from.clone());
        dispatch(h, from, holder, 1, Msg::ReplIopPatch { primary: to, set_to, set_from });
    }
}

/// Apply `msg` at `to`. What the host's indexing mode does not run —
/// an `Arrival` in group mode, a `GroupIndex` in individual mode — and
/// a replica state that does not decode, which off-sim is network data,
/// come back for the host to count.
pub fn handle<H: Host>(h: &mut H, to: SiteId, from: SiteId, msg: Msg) -> Option<Msg> {
    match msg {
        // The §III gateway (Fig. 2): index the visit, then M2 to the
        // previous site and M3 to the capturing one.
        Msg::Arrival { object, site, time } if h.group().is_none() => {
            let mut out = Threads::default();
            splice(h, to, None, object, IndexEntry { site, time, prev: None }, true, &mut out);
            replicate_shard(h, to, None);
            out.send(h, to);
        }
        Msg::GroupIndex { prefix, site, members } => {
            let Some(g) = h.group() else {
                return Some(Msg::GroupIndex { prefix, site, members });
            };
            index(h, to, g, prefix, site, &members);
        }
        Msg::SetTo { updates } => thread_links(h, to, None, updates, Vec::new(), false),
        Msg::SetFrom { updates } => thread_links(h, to, None, Vec::new(), updates, false),
        Msg::Splice { updates } => thread_links(h, to, None, Vec::new(), from_links(updates), true),
        Msg::Delegate { prefix, entries } => land(h, to, Some(prefix), entries),
        Msg::Migrate { prefix: Some(p), entries } => {
            land(h, to, Some(p), entries);
            h.migrated(to, p);
        }
        Msg::Migrate { prefix: None, entries } => land(h, to, None, entries),
        Msg::ReplIop { primary, updates } => {
            let store = h.site(to).replica_iop.entry(primary).or_default();
            for (o, rec) in updates {
                store.upsert_record(o, rec);
            }
        }
        Msg::ReplShard { primary, prefix, entries, delegated } => {
            let gw = h.site(to).replica_gateway.entry(primary).or_default();
            match prefix {
                Some(p) if entries.is_empty() && !delegated => {
                    gw.prefixes.remove(&p);
                }
                Some(p) => {
                    let shard = gw.shard_mut(p);
                    *shard = PrefixIndex::new();
                    shard.delegated = delegated;
                    for (o, e) in entries {
                        shard.upsert(o, e);
                    }
                }
                None => gw.objects = entries.into_iter().collect(),
            }
        }
        Msg::ReplDigest { primary, digest } => {
            if Id::hash(&h.site(to).replica_state_bytes(primary)) != digest {
                dispatch(h, to, from, 1, Msg::ReplSyncReq { primary });
            }
        }
        Msg::ReplSyncReq { primary } => {
            debug_assert_eq!(to, primary, "sync request misrouted");
            let state = h.site(to).store_state_bytes();
            dispatch(h, to, from, 1, Msg::ReplState { primary, state });
        }
        Msg::ReplState { primary, state } => {
            let Ok((iop, gw)) = stores_from_bytes(&state) else {
                return Some(Msg::ReplState { primary, state });
            };
            let site = h.site(to);
            site.replica_iop.insert(primary, iop);
            site.replica_gateway.insert(primary, gw);
        }
        // A patch only ever repairs a copy that exists: planting a fresh
        // store would leave a partial record (`from: None`) that a later
        // trace reads as the start of the chain. It does not say whether
        // a `from` link was M3 or a walk, so it is answered like a walk,
        // whose extra M2 repeats the gateway's and changes nothing.
        Msg::ReplIopPatch { primary, set_to, set_from } => {
            thread_links(h, to, Some(primary), set_to, set_from, true);
        }
        other => return Some(other),
    }
    None
}

/// A walk's updates as `from` links.
fn from_links(updates: Vec<(ObjectId, SimTime, Link)>) -> Vec<(ObjectId, SimTime, Option<Link>)> {
    updates.into_iter().map(|(o, t, l)| (o, t, Some(l))).collect()
}

/// Apply M2 links (`to`) and M3 links (`from`; with `walk`, the links of
/// a [`Msg::Splice`]) to the repository at `at` — or, with `primary`,
/// to its copy of that dead primary's —, count the ones whose record it
/// does not hold, and replicate the rest. What does not stop here is
/// passed on: a link that belongs behind the record's later predecessor
/// walks on to it, and a predecessor that a later link displaced walks
/// on behind that link. A walk's stored link is answered with M2 to the
/// linked site. No link is lost on the way, so the chain ends the same
/// in every delivery order.
fn thread_links<H: Host>(
    h: &mut H,
    at: SiteId,
    primary: Option<SiteId>,
    to: Vec<(ObjectId, SimTime, Link)>,
    from: Vec<(ObjectId, SimTime, Option<Link>)>,
    walk: bool,
) {
    let (n, here, mut out) = (to.len() + from.len(), primary.unwrap_or(at), Threads::default());
    let site = h.site(at);
    let Some(iop) = primary.map_or(Some(&mut site.iop), |p| site.replica_iop.get_mut(&p)) else {
        h.anomalies_mut().dangling_iop_updates += n as u64;
        return;
    };
    let mut touched: Vec<(ObjectId, SimTime)> =
        to.into_iter().filter_map(|(o, t, l)| iop.set_to(o, t, l).then_some((o, t))).collect();
    for (o, arrived, l) in from {
        let Some(done) = iop.set_from(o, arrived, l) else { continue };
        touched.push((o, arrived));
        match (done, l) {
            (FromLink::Stored(old), Some(l)) => {
                if walk {
                    push(&mut out.to, l.site, (o, l.time, Link { site: here, time: arrived }));
                }
                if let Some(old) = old {
                    push(&mut out.walks, l.site, (o, l.time, old));
                }
            }
            (FromLink::Behind(b), Some(l)) => push(&mut out.walks, b.site, (o, b.time, l)),
            _ => {}
        }
    }
    h.anomalies_mut().dangling_iop_updates += (n - touched.len()) as u64;
    if primary.is_none() {
        replicate_iop(h, at, touched);
    }
    out.send(h, at);
}

// ----------------------------------------------------------------------
// The gateway: the one merge rule, and Fig. 5 `index`
// ----------------------------------------------------------------------

/// The link writes a site owes others, batched per destination and sent
/// M2, then M3, then walks ([`Msg::Splice`]) — each in site order.
#[derive(Default)]
struct Threads {
    to: BTreeMap<SiteId, Vec<(ObjectId, SimTime, Link)>>,
    from: BTreeMap<SiteId, Vec<(ObjectId, SimTime, Option<Link>)>>,
    walks: BTreeMap<SiteId, Vec<(ObjectId, SimTime, Link)>>,
}

impl Threads {
    fn send<H: Host>(self, h: &mut H, at: SiteId) {
        let to = self.to.into_iter().map(|(dest, updates)| (dest, Msg::SetTo { updates }));
        let from = self.from.into_iter().map(|(dest, updates)| (dest, Msg::SetFrom { updates }));
        let walks = self.walks.into_iter().map(|(dest, updates)| (dest, Msg::Splice { updates }));
        for (dest, msg) in to.chain(from).chain(walks) {
            dispatch(h, at, dest, 1, msg);
        }
    }
}

fn push<T>(batches: &mut BTreeMap<SiteId, Vec<T>>, dest: SiteId, update: T) {
    batches.entry(dest).or_default().push(update);
}

/// The gateway's one merge rule. `gw` indexes `o` in `shard` (`None` =
/// the individual-mode map); `v` is a visit of it reaching the gateway:
/// a `fresh` capture, or an entry moved here with what it knows of its
/// predecessor. The entry keeps the newer visit and, as its predecessor,
/// the later candidate. The older visit joins the chain behind the newer
/// one: in order (M2 and M3) when the newer one has no predecessor yet,
/// else by a walk back from the newer one's record. The same visit twice
/// is one visit. So every merge order ends in the same entry and, once
/// `out` lands, the same chain. A visit that changes the indexed latest,
/// or is a first capture, bumps the cache.
fn splice<H: Host>(
    h: &mut H,
    gw: SiteId,
    shard: Option<Prefix>,
    o: ObjectId,
    v: IndexEntry,
    fresh: bool,
    out: &mut Threads,
) {
    let gateway = &mut h.site(gw).gateway;
    let ex = match shard {
        Some(p) => gateway.shard_mut(p).get(&o).copied(),
        None => gateway.objects.get(&o).copied(),
    };
    let entry = match ex {
        None => {
            if fresh {
                push(&mut out.from, v.site, (o, v.time, None));
            }
            v
        }
        Some(n) if n.link() == v.link() => IndexEntry { prev: n.prev.max(v.prev), ..n },
        Some(n) => {
            let (older, newer) = if n.link() < v.link() { (n.link(), v) } else { (v.link(), n) };
            let at = newer.link();
            match newer.prev {
                None => {
                    push(&mut out.to, older.site, (o, older.time, at));
                    push(&mut out.from, at.site, (o, at.time, Some(older)));
                }
                Some(p) if p == older => {}
                Some(_) => push(&mut out.walks, at.site, (o, at.time, older)),
            }
            IndexEntry { prev: newer.prev.max(Some(older)), ..newer }
        }
    };
    match shard {
        Some(p) => gateway.shard_mut(p).upsert(o, entry),
        None => _ = gateway.objects.insert(o, entry),
    }
    if ex.map_or(fresh, |n| n.link() != entry.link()) {
        h.index_changed(o);
    }
}

/// The Fig. 5 `index` at gateway `gw` for a group captured at `site`:
/// refresh what the shard lacks — `refresh_from_ascent` (ancestors,
/// nearest first, down to `Lmin`), then `refresh_from_descent` (hosted
/// children) —, run `update_index` (splice each member in, M2 batched
/// per source site — "one message for each group of objects which are
/// from the same node" —, M3 to the capturing site), delegate the
/// earliest `α·count` records to the two triangle children if the shard
/// now exceeds the threshold (lines 2–4), and replicate the shard once.
fn index<H: Host>(
    h: &mut H,
    gw: SiteId,
    g: GroupConfig,
    prefix: Prefix,
    site: SiteId,
    members: &[(ObjectId, SimTime)],
) {
    // Line 2: the members not indexed here yet (the paper's set
    // expression has the operands transposed — its comment "objects
    // which are not stored locally" fixes the intent).
    let shard = h.site(gw).gateway.shard_mut(prefix);
    let mut missing: HashSet<ObjectId> =
        members.iter().map(|&(o, _)| o).filter(|o| shard.get(o).is_none()).collect();
    let mut l = prefix.len();
    while l > g.l_min && !missing.is_empty() {
        l -= 1;
        refresh(h, gw, prefix.truncate(l), prefix, &mut missing);
    }
    descend(h, gw, prefix, prefix, &mut missing);
    let mut out = Threads::default();
    for &(o, time) in members {
        splice(h, gw, Some(prefix), o, IndexEntry { site, time, prev: None }, true, &mut out);
    }
    h.mark_hosted(prefix);
    out.send(h, gw);
    let len = h.site(gw).gateway.shard_mut(prefix).len();
    if g.delegate_threshold.is_some_and(|t| len > t)
        && prefix.len() < ids::prefix::MAX_PREFIX_BITS
        && h.may_delegate(gw, prefix)
    {
        let k = ((g.alpha * len as f64).ceil() as usize).min(len);
        let shard = h.site(gw).gateway.shard_mut(prefix);
        let victims = shard.take_earliest(k);
        shard.delegated = true;
        to_children(h, gw, prefix, victims, |prefix, entries| Msg::Delegate { prefix, entries });
    }
    // One replication covers the upserts and the delegation's shrink
    // (the receivers replicate their own shards on receipt).
    replicate_shard(h, gw, Some(prefix));
}

/// The refresh descent below `node`: fetch from each child prefix that
/// covers a missing object, and recurse into the ones that were hosted.
fn descend<H: Host>(
    h: &mut H,
    gw: SiteId,
    node: Prefix,
    dest: Prefix,
    missing: &mut HashSet<ObjectId>,
) {
    if missing.is_empty() || node.len() >= ids::prefix::MAX_PREFIX_BITS {
        return;
    }
    for one in [false, true] {
        let child = node.child(one);
        // filter(objects, p+bit): only objects under this child.
        if missing.iter().any(|o| child.matches(&o.id())) && refresh(h, gw, child, dest, missing) {
            descend(h, gw, child, dest, missing);
        }
    }
}

/// One refresh fetch from shard `p` ([`Host::fetch`]); what it returns
/// lands in `gw`'s shard `dest`, the one that asked. Returns whether
/// `p` was hosted.
fn refresh<H: Host>(
    h: &mut H,
    gw: SiteId,
    p: Prefix,
    dest: Prefix,
    missing: &mut HashSet<ObjectId>,
) -> bool {
    let Some(fetched) = h.fetch(gw, p, missing) else { return false };
    if !fetched.is_empty() {
        h.mark_hosted(dest);
        let shard = h.site(gw).gateway.shard_mut(dest);
        for (o, e) in fetched {
            shard.upsert(o, e);
            missing.remove(&o);
        }
    }
    true
}

/// Receptors at `at` captured `objects` at `now`: open the visit
/// records and replicate them. Individual-mode hosts report the
/// arrivals themselves; group mode goes on through [`capture`].
pub fn record_visits<H: Host>(h: &mut H, at: SiteId, objects: &[ObjectId], now: SimTime) {
    let iop = &mut h.site(at).iop;
    for &o in objects {
        iop.capture(o, now);
    }
    replicate_iop(h, at, objects.iter().map(|&o| (o, now)));
}

/// Group-mode capture (§IV-A.1): record the visits, buffer them in the
/// adaptive window, and index the window whenever it fills to `Nmax`.
pub fn capture<H: Host>(h: &mut H, at: SiteId, objects: &[ObjectId], now: SimTime) {
    record_visits(h, at, objects, now);
    for &o in objects {
        match h.site(at).window.push(o, now) {
            WindowEvent::ArmTimer => h.window_opened(at, o),
            WindowEvent::Buffered => {}
            WindowEvent::FlushByCount(batch) => {
                h.window_filled(at, o);
                index_batch(h, batch);
            }
        }
    }
}

/// Close `at`'s open window (its `Tmax` ran out, or the driver says
/// so) and index it. Returns whether there was anything to index.
pub fn flush<H: Host>(h: &mut H, at: SiteId, now: SimTime) -> bool {
    match h.site(at).window.flush(now) {
        Some(batch) => {
            index_batch(h, batch);
            true
        }
        None => false,
    }
}

/// Send one `GroupIndex` message per group in the batch (§IV-A.2).
fn index_batch<H: Host>(h: &mut H, batch: WindowBatch) {
    let site = batch.site;
    for group in group_batch(&batch.observations, h.lp()) {
        let Some((owner, hops)) = h.route(site, group.prefix) else { continue };
        let msg = Msg::GroupIndex { prefix: group.prefix, site, members: group.members };
        dispatch(h, site, owner, hops, msg);
    }
}

// ----------------------------------------------------------------------
// Shard movement: key handoff, splitting–merging, delegation
// ----------------------------------------------------------------------
//
// A shard moves as one `Migrate` (or `Delegate`) per destination; the
// receiver splices it into whatever a racing index update put there
// ([`splice`]). *When* shards move is the host's: the simulator
// after each join or leave and, on an `Lp` change, per live site in
// index order; the daemon when a membership record changes its ring.

/// Where [`move_shards`] sends a drained shard's entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Move {
    /// §IV-A.2 splitting: every shard of length `l`, to its two
    /// children by bit `l` ("the data stored in the old parent will all
    /// be delegated into the two new parent nodes").
    Split(usize),
    /// §IV-A.2 merging: every shard of length `l`, to its parent ("the
    /// parent node's two child nodes migrate the data they are indexing
    /// to the parent node").
    Merge(usize),
    /// Chord's key handoff: every shard and individual-mode entry whose
    /// key this site no longer owns, whole, to the key's owner.
    Handoff,
}

/// Drain every shard of `at` that `mv` selects and send its entries on.
/// Shards go in prefix order: dispatch order feeds the latency and
/// fault RNGs, so it must not depend on the hasher.
pub fn move_shards<H: Host>(h: &mut H, at: SiteId, mv: Move) {
    if mv == Move::Handoff {
        hand_off_objects(h, at);
    }
    let mut shards: Vec<Prefix> = h.site(at).gateway.prefixes.keys().copied().collect();
    shards.retain(|p| match mv {
        Move::Split(l) | Move::Merge(l) => p.len() == l,
        Move::Handoff => h.owner(p.gateway_id()) != at,
    });
    shards.sort();
    for p in shards {
        move_shard(h, at, p, mv);
    }
}

/// Drain `at`'s shard `p` — its replicas drop it — and send the entries
/// where `mv` says.
pub fn move_shard<H: Host>(h: &mut H, at: SiteId, p: Prefix, mv: Move) {
    let Some(mut shard) = h.site(at).gateway.prefixes.remove(&p) else { return };
    let entries = shard.drain_all();
    if mv != Move::Handoff {
        h.unmark_hosted(p);
    }
    replicate_shard(h, at, Some(p));
    if entries.is_empty() {
        return;
    }
    let migrate = |prefix, entries| Msg::Migrate { prefix: Some(prefix), entries };
    match mv {
        Move::Split(_) => to_children(h, at, p, entries, migrate),
        Move::Merge(_) => {
            let parent = p.parent().expect("a merged shard has a parent");
            route_to(h, at, parent, migrate(parent, entries));
        }
        Move::Handoff => {
            let owner = h.owner(p.gateway_id());
            dispatch(h, at, owner, 1, Msg::Migrate { prefix: Some(p), entries });
        }
    }
}

/// Individual-mode half of [`Move::Handoff`]: entries move by object id,
/// one message per new owner, sorted so contents are hasher-independent.
fn hand_off_objects<H: Host>(h: &mut H, at: SiteId) {
    let mut moved: Vec<ObjectId> = h.site(at).gateway.objects.keys().copied().collect();
    moved.retain(|o| h.owner(o.id()) != at);
    if moved.is_empty() {
        return;
    }
    moved.sort();
    let mut by_owner: BTreeMap<SiteId, Vec<(ObjectId, IndexEntry)>> = BTreeMap::new();
    for o in moved {
        let e = h.site(at).gateway.objects.remove(&o).expect("listed above");
        by_owner.entry(h.owner(o.id())).or_default().push((o, e));
    }
    for (owner, entries) in by_owner {
        dispatch(h, at, owner, 1, Msg::Migrate { prefix: None, entries });
    }
    replicate_shard(h, at, None);
}

/// Partition `entries` of shard `p` by bit `p.len()` and route each
/// non-empty half to its child's gateway as `wrap(child, half)`.
fn to_children<H: Host>(
    h: &mut H,
    at: SiteId,
    p: Prefix,
    entries: Vec<(ObjectId, IndexEntry)>,
    wrap: fn(Prefix, Vec<(ObjectId, IndexEntry)>) -> Msg,
) {
    let bit = p.len();
    let mut halves: [Vec<(ObjectId, IndexEntry)>; 2] = [Vec::new(), Vec::new()];
    for (o, e) in entries {
        halves[o.id().bit(bit) as usize].push((o, e));
    }
    for (one, half) in halves.into_iter().enumerate() {
        if !half.is_empty() {
            let child = p.child(one == 1);
            route_to(h, at, child, wrap(child, half));
        }
    }
}

/// `prefix` is hosted now: send `msg` on to its gateway.
fn route_to<H: Host>(h: &mut H, at: SiteId, prefix: Prefix, msg: Msg) {
    h.mark_hosted(prefix);
    if let Some((owner, hops)) = h.route(at, prefix) {
        dispatch(h, at, owner, hops, msg);
    }
}

/// Splice moved entries into `gw`'s shard `p` (`None` = the
/// individual-mode map), each one's link writes sent before the next,
/// and replicate the shard. A move can be arbitrarily delayed by loss
/// and retransmission, so an index update may have reached it first.
fn land<H: Host>(h: &mut H, gw: SiteId, p: Option<Prefix>, entries: Vec<(ObjectId, IndexEntry)>) {
    for (o, e) in entries {
        let mut out = Threads::default();
        splice(h, gw, p, o, e, false, &mut out);
        out.send(h, gw);
    }
    replicate_shard(h, gw, p);
}

// ----------------------------------------------------------------------
// K-successor replication
// ----------------------------------------------------------------------
//
// With `Host::replicas() = K > 1`, every site's stores (IOP repository
// + gateway shards) are mirrored onto its K−1 ring successors. Writes
// fan out eagerly (`replicate_iop` / `replicate_shard`), a digest
// exchange over the canonical state encoding follows each write burst
// (`send_digest`; *when* is the host's: a one-shot timer in the
// simulator, the flush boundary in the daemon), reads fall back to
// replica copies when the primary is gone, and a permanent failure
// promotes the first successor (`inherit_gateway`). Every entry point
// returns early when `K <= 1`, so the default path sends no messages,
// arms no timers and draws no RNG values.

/// Fan IOP record updates out to `primary`'s replica set. `keys` are
/// `(object, arrival time)` record keys; the full records are read back
/// from the primary store so replicas always receive the post-update
/// state.
fn replicate_iop<H: Host>(
    h: &mut H,
    primary: SiteId,
    keys: impl IntoIterator<Item = (ObjectId, SimTime)>,
) {
    if h.replicas() <= 1 {
        return;
    }
    let iop = &h.site(primary).iop;
    let updates: Vec<(ObjectId, IopRecord)> =
        keys.into_iter().filter_map(|(o, t)| iop.record_at(o, t).map(|r| (o, *r))).collect();
    if updates.is_empty() {
        return;
    }
    for peer in h.replica_peers(primary) {
        dispatch(h, primary, peer, 1, Msg::ReplIop { primary, updates: updates.clone() });
    }
    h.replicated_write(primary);
}

/// Ship the full current content of one of `primary`'s gateway shards
/// (`None` = the individual-mode object map) to its replica set.
/// Full-shard replace semantics let removals propagate without
/// tombstones: an empty shard drops the replica copy.
pub fn replicate_shard<H: Host>(h: &mut H, primary: SiteId, prefix: Option<Prefix>) {
    if h.replicas() <= 1 {
        return;
    }
    let gateway = &h.site(primary).gateway;
    let (mut entries, delegated): (Vec<(ObjectId, IndexEntry)>, bool) = match prefix {
        Some(p) => match gateway.prefixes.get(&p) {
            Some(shard) => (shard.entries.iter().map(|(o, e)| (*o, *e)).collect(), shard.delegated),
            None => (Vec::new(), false),
        },
        None => (gateway.objects.iter().map(|(o, e)| (*o, *e)).collect(), false),
    };
    // Sorted: message contents feed the canonical encoding at the
    // replica and must be hasher-independent.
    entries.sort_by_key(|(o, _)| *o);
    for peer in h.replica_peers(primary) {
        let msg = Msg::ReplShard { primary, prefix, entries: entries.clone(), delegated };
        dispatch(h, primary, peer, 1, msg);
    }
    h.replicated_write(primary);
}

/// Anti-entropy, step 1: `primary` sends a digest of its canonical
/// store state to each replica; one whose copy hashes differently pulls
/// the full state ([`Msg::ReplSyncReq`]).
pub fn send_digest<H: Host>(h: &mut H, primary: SiteId) {
    let digest = Id::hash(&h.site(primary).store_state_bytes());
    for peer in h.replica_peers(primary) {
        dispatch(h, primary, peer, 1, Msg::ReplDigest { primary, digest });
    }
}

/// Re-establish the placement invariant at `at` after a membership
/// change: drop its copies of *live* primaries it no longer succeeds
/// (dead primaries' copies stay — they are the read fallback that keeps
/// locate/trace oracle-exact after a permanent loss), and push its own
/// full store state to its current replica set.
pub fn settle<H: Host>(h: &mut H, at: SiteId) {
    if h.replicas() <= 1 {
        return;
    }
    let site = h.site(at);
    let held: BTreeSet<SiteId> =
        site.replica_iop.keys().chain(site.replica_gateway.keys()).copied().collect();
    for primary in held {
        if h.live(primary) && !h.replica_peers(primary).contains(&at) {
            let site = h.site(at);
            site.replica_iop.remove(&primary);
            site.replica_gateway.remove(&primary);
        }
    }
    let state = h.site(at).store_state_bytes();
    for peer in h.replica_peers(at) {
        dispatch(h, at, peer, 1, Msg::ReplState { primary: at, state: state.clone() });
    }
}

/// Failover at `heir`, the first live successor of the permanently
/// failed `dead`: fold its replica copy of the dead site's *gateway*
/// stores into its own primary stores — the ring now routes the dead
/// site's key ranges to it, so the index data must be served as primary
/// data. Where both hold an entry they are spliced (a racing index
/// update at the heir may already be ahead). The dead site's IOP copies
/// stay where they are: repository records are keyed by the site that
/// observed them, and reads reach them through the replica fallback.
pub fn inherit_gateway<H: Host>(h: &mut H, heir: SiteId, dead: SiteId) {
    let Some(gw) = h.site(heir).replica_gateway.remove(&dead) else { return };
    let mut entries: Vec<(Option<Prefix>, ObjectId, IndexEntry)> =
        gw.objects.into_iter().map(|(o, e)| (None, o, e)).collect();
    for (p, shard) in gw.prefixes {
        h.site(heir).gateway.shard_mut(p).delegated |= shard.delegated;
        h.mark_hosted(p);
        entries.extend(shard.entries.into_iter().map(|(o, e)| (Some(p), o, e)));
    }
    // Sorted: the merge is hasher-independent.
    entries.sort_by_key(|&(p, o, _)| (p, o));
    for (p, o, e) in entries {
        let mut out = Threads::default();
        splice(h, heir, p, o, e, false, &mut out);
        out.send(h, heir);
    }
}
