//! The write plane of one site, written once.
//!
//! §III Fig. 2 (M1 arrival → gateway, M2 `set_to` to the previous site,
//! M3 `set_from` to the capturing site), the §IV Fig. 5 `update_index`
//! over a prefix group, and the K-successor replication that rides on
//! both are the same protocol whether a site lives inside the simulator
//! or behind a socket. This module is that protocol's only
//! implementation: [`Site`] is the state one site owns, and the free
//! functions below advance it.
//!
//! They are generic (static dispatch) over a [`Host`], which supplies
//! exactly what a site cannot know alone — how a message leaves, where a
//! prefix's gateway is, who is on the ring. Two hosts exist:
//!
//! * the simulator ([`crate::world::NetWorld`] plus its `Sim`), which
//!   holds every site, sends through the event queue and keeps the
//!   paths no single node runs off-sim — individual mode, refresh
//!   fetches, triangle delegation, split/merge, retries and acks;
//! * the daemon's `Core`, which holds one site, sends through its
//!   outbox and counts anything outside its regime as unsupported.
//!
//! [`handle`] applies the arms both hosts share and hands every other
//! message back to the caller, so each host keeps its own driver around
//! one protocol body instead of a copy of it.

use crate::bytebuf::{ByteBuf, Reader};
use crate::codec;
use crate::grouping::group_batch;
use crate::messages::Msg;
use crate::store::{GatewayStore, IndexEntry, IopRecord, IopStore, Link, PrefixIndex};
use crate::window::{WindowBatch, WindowBuffer, WindowEvent};
use ids::{Id, Prefix};
use moods::{ObjectId, SiteId};
use simnet::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Counters for conditions that should not occur in well-formed runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Anomalies {
    /// Gateway saw an arrival older than the indexed latest state
    /// (message reordering faster than the movement cadence).
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

    /// Fig. 5 `index` line 2: the members of a group this gateway does
    /// not index under `prefix` yet (the paper's set expression has the
    /// operands transposed — the accompanying comment "objects which
    /// are not stored locally" fixes the intent). What the host does
    /// about them — refresh fetches in the simulator — is its own.
    pub fn unindexed(&mut self, prefix: Prefix, members: &[(ObjectId, SimTime)]) -> Vec<ObjectId> {
        let shard = self.gateway.shard_mut(prefix);
        members.iter().map(|&(o, _)| o).filter(|o| shard.get(o).is_none()).collect()
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

    /// `prefix` now holds index data.
    fn mark_hosted(&mut self, prefix: Prefix);

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
/// itself: self-sends run inline, depth-first. An IOP update aimed at a
/// permanently failed site is repaired onto the holders of its replica
/// repository instead of being dropped on the floor.
pub fn dispatch<H: Host>(h: &mut H, from: SiteId, to: SiteId, hops: u32, msg: Msg) {
    if from == to {
        h.deliver(to, from, msg);
        return;
    }
    if matches!(msg, Msg::SetTo { .. } | Msg::SetFrom { .. }) {
        if let Some(holders) = h.holders_if_dead(to) {
            redirect_to_replicas(h, from, to, holders, msg);
            return;
        }
    }
    h.send(from, to, hops, msg);
}

/// Apply `msg` at `to` if it is one of the arms every host shares: the
/// IOP link updates and the replication plane. Anything else — and a
/// replica state that does not decode, which off-sim is network data —
/// comes back for the host's own driver.
pub fn handle<H: Host>(h: &mut H, to: SiteId, from: SiteId, msg: Msg) -> Option<Msg> {
    match msg {
        Msg::SetTo { updates } => thread_links(h, to, updates, IopStore::set_to),
        Msg::SetFrom { updates } => thread_links(h, to, updates, IopStore::set_from),
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
        Msg::ReplIopPatch { primary, set_to, set_from } => {
            // A patch only ever repairs a copy that exists. Planting a
            // fresh store here would leave a partial record (`from:
            // None`) that a later trace reads as the start of the chain.
            let Some(store) = h.site(to).replica_iop.get_mut(&primary) else {
                h.anomalies_mut().dangling_iop_updates += (set_to.len() + set_from.len()) as u64;
                return None;
            };
            let at = |store: &IopStore, o, arrived| {
                store.record_at(o, arrived).copied().unwrap_or(IopRecord {
                    arrived,
                    from: None,
                    to: None,
                })
            };
            for (o, arrived, link) in set_to {
                store.upsert_record(o, IopRecord { to: Some(link), ..at(store, o, arrived) });
            }
            for (o, arrived, from_link) in set_from {
                store.upsert_record(o, IopRecord { from: from_link, ..at(store, o, arrived) });
            }
        }
        other => return Some(other),
    }
    None
}

/// Apply one M2 or M3 batch to `to`'s repository, count the updates
/// whose record it does not hold, and replicate the ones it does.
fn thread_links<H: Host, L>(
    h: &mut H,
    to: SiteId,
    updates: Vec<(ObjectId, SimTime, L)>,
    set: impl Fn(&mut IopStore, ObjectId, SimTime, L) -> bool,
) {
    let n = updates.len();
    let iop = &mut h.site(to).iop;
    let touched: Vec<(ObjectId, SimTime)> = updates
        .into_iter()
        .filter_map(|(o, arrived, link)| set(iop, o, arrived, link).then_some((o, arrived)))
        .collect();
    h.anomalies_mut().dangling_iop_updates += (n - touched.len()) as u64;
    replicate_iop(h, to, touched);
}

/// The Fig. 5 `update_index` core at gateway `gw`: for each member of a
/// group captured at `site`, drop it if the index already holds a newer
/// visit, else upsert it and thread the IOP links — M2 batched per
/// source site ("one message for each group of objects which are from
/// the same node"), M3 to the capturing site. The caller replicates the
/// shard ([`replicate_shard`]) once it has finished with it.
pub fn update_index<H: Host>(
    h: &mut H,
    gw: SiteId,
    prefix: Prefix,
    site: SiteId,
    members: &[(ObjectId, SimTime)],
) {
    let mut m2: BTreeMap<SiteId, Vec<(ObjectId, SimTime, Link)>> = BTreeMap::new();
    let mut m3: Vec<(ObjectId, SimTime, Option<Link>)> = Vec::with_capacity(members.len());
    let shard = h.site(gw).gateway.shard_mut(prefix);
    for &(o, t) in members {
        let prev = shard.get(&o).copied();
        if prev.is_some_and(|p| p.time > t) {
            continue;
        }
        shard.upsert(o, IndexEntry { site, time: t, prev: prev.map(|p| p.link()) });
        if let Some(p) = prev {
            m2.entry(p.site).or_default().push((o, p.time, Link { site, time: t }));
        }
        m3.push((o, t, prev.map(|p| p.link())));
    }
    // `m3` holds exactly the accepted upserts: each changed the stored
    // latest link for its object; the rest arrived out of order.
    h.anomalies_mut().out_of_order_arrivals += (members.len() - m3.len()) as u64;
    h.mark_hosted(prefix);
    for &(o, _, _) in &m3 {
        h.index_changed(o);
    }
    for (dest, updates) in m2 {
        dispatch(h, gw, dest, 1, Msg::SetTo { updates });
    }
    if !m3.is_empty() {
        dispatch(h, gw, site, 1, Msg::SetFrom { updates: m3 });
    }
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

/// Redirect an M2/M3 IOP update whose destination is permanently dead
/// to the holders of that site's replica repository, as a
/// [`Msg::ReplIopPatch`]. With no surviving holder the update is lost
/// and counted.
fn redirect_to_replicas<H: Host>(
    h: &mut H,
    from: SiteId,
    dead: SiteId,
    holders: Vec<SiteId>,
    msg: Msg,
) {
    if holders.is_empty() {
        h.anomalies_mut().dropped_to_dead += 1;
        return;
    }
    let (set_to, set_from) = match msg {
        Msg::SetTo { updates } => (updates, Vec::new()),
        Msg::SetFrom { updates } => (Vec::new(), updates),
        other => unreachable!("only IOP updates are redirected, got {other:?}"),
    };
    for holder in holders {
        let patch =
            Msg::ReplIopPatch { primary: dead, set_to: set_to.clone(), set_from: set_from.clone() };
        dispatch(h, from, holder, 1, patch);
    }
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
/// data. Where both hold an entry the newer visit wins (a racing index
/// update at the heir may already be ahead). The dead site's IOP copies
/// stay where they are: repository records are keyed by the site that
/// observed them, and reads reach them through the replica fallback.
pub fn inherit_gateway<H: Host>(h: &mut H, heir: SiteId, dead: SiteId) {
    let site = h.site(heir);
    let Some(gw) = site.replica_gateway.remove(&dead) else { return };
    // Sorted walks: the merge is hasher-independent.
    let objects: BTreeMap<ObjectId, IndexEntry> = gw.objects.into_iter().collect();
    for (o, e) in objects {
        if site.gateway.objects.get(&o).is_none_or(|ex| ex.time < e.time) {
            site.gateway.objects.insert(o, e);
        }
    }
    let prefixes: BTreeMap<Prefix, PrefixIndex> = gw.prefixes.into_iter().collect();
    for (p, shard) in prefixes {
        let entries: BTreeMap<ObjectId, IndexEntry> = shard.entries.into_iter().collect();
        let dst = h.site(heir).gateway.shard_mut(p);
        dst.delegated |= shard.delegated;
        for (o, e) in entries {
            if dst.get(&o).is_none_or(|ex| ex.time < e.time) {
                dst.upsert(o, e);
            }
        }
        h.mark_hosted(p);
    }
}
