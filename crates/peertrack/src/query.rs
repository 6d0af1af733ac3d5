//! Query processing (§IV-A.3 lookup + §IV-B).
//!
//! To answer `L`/`TR` for an object the system must first find *any*
//! IOP record or index entry for it:
//!
//! 1. the querying node checks its own repository (free);
//! 2. otherwise the query routes towards the object's gateway; **any
//!    node along the routing path** holding IOP information answers
//!    early (§IV-B's *Intermediate Node* case);
//! 3. at the gateway, the §IV-A.3 lookup runs: the shard for the
//!    current-length prefix first, then a bidirectional linear search —
//!    the triangle children (where delegated records live) and the
//!    hosted ancestor prefixes (where pre-split history lives).
//!
//! From the anchor, the IOP's distributed doubly-linked list is
//! traversed backward/forward, one message per visited site.
//!
//! This module is the **only** implementation of that procedure. The
//! planner ([`locate`], [`trace`] and the walks under them) is generic
//! over a [`RecordSource`] — the handful of reads a query performs — so
//! the simulator (`&NetWorld`, below) and the socket daemon (local read
//! or RPC) run the same code and charge the same [`QueryCost`]. The
//! simulator's façade converts cost to simulated time via the latency
//! model and records it in the metrics, mirroring how the paper "added
//! 5ms as the network latency for each network query" (§V-B).

use crate::messages::{HEADER_BYTES, OBJECT_ID_BYTES, TIME_BYTES};
use crate::store::{IopRecord, Link};
use crate::world::NetWorld;
use ids::Prefix;
use moods::{ObjectId, Path, SiteId, Visit};
use simnet::SimTime;

/// Bytes of one query/traversal message (header + object id + time +
/// small opcode).
pub const QUERY_MSG_BYTES: usize = HEADER_BYTES + OBJECT_ID_BYTES + TIME_BYTES + 4;

/// Who ultimately answered the discovery phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerSource {
    /// The querying node held IOP records itself.
    Local,
    /// A node on the routing path answered before the gateway (§IV-B).
    Intermediate(SiteId),
    /// The gateway's index answered.
    Gateway(SiteId),
    /// No node knows the object.
    NotFound,
    /// The querying node's locate-answer cache answered without a
    /// discovery phase (DESIGN.md §15). Only produced when the network
    /// was built with `Builder::locate_cache`.
    Cached,
}

impl AnswerSource {
    /// The site a query issued at `origin` is attributed to as served
    /// load: the origin for local and cached answers, the answering
    /// node otherwise, nobody when the object is unknown.
    pub fn served_by(self, origin: SiteId) -> Option<SiteId> {
        match self {
            AnswerSource::Local | AnswerSource::Cached => Some(origin),
            AnswerSource::Intermediate(s) | AnswerSource::Gateway(s) => Some(s),
            AnswerSource::NotFound => None,
        }
    }
}

/// Message/hop accounting for one query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Messages exchanged.
    pub messages: u64,
    /// Overlay hops traversed (= messages here: queries step node to
    /// node).
    pub hops: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Deterministic WAN wire time (µs) the query spent crossing the
    /// topology, **base matrix only** — queries never draw jitter, so
    /// the query path stays RNG-free. Zero without a topology.
    pub wan_us: u64,
    /// Messages whose endpoints sat in different regions. Zero without
    /// a topology.
    pub cross_msgs: u64,
}

impl QueryCost {
    fn step(&mut self, n: u64) {
        self.messages += n;
        self.hops += n;
        self.bytes += n * QUERY_MSG_BYTES as u64;
    }
}

/// Full statistics the façade returns with each answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryStats {
    /// Simulated wall-clock the query took (latency model applied).
    pub time: SimTime,
    /// Messages exchanged.
    pub messages: u64,
    /// Overlay hops.
    pub hops: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// WAN wire time included in `time` (zero without a topology).
    pub wan: SimTime,
    /// Messages that crossed a region boundary (zero without a
    /// topology).
    pub cross_msgs: u64,
    /// Who answered the discovery phase.
    pub source: AnswerSource,
    /// False when the query could not read something it needed (an
    /// unreachable hop, a departed site's records) and the answer may
    /// be truncated.
    pub complete: bool,
}

// ----------------------------------------------------------------------
// The planner's view of the network
// ----------------------------------------------------------------------

/// The source could not produce something the query needed — a hop that
/// did not answer, a record no reachable site holds. The query's answer
/// is then *unknown* (`complete = false`), never "not in the system".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Incomplete;

/// The reads one query performs, each addressed to the site that serves
/// it. The simulator answers them from `&NetWorld`; the daemon answers
/// local ones from its own stores and each remote one with one request
/// frame.
pub trait RecordSource {
    /// Overlay route from `from` towards `object`'s gateway: the sites
    /// visited after `from`, ending with the gateway. Empty when `from`
    /// itself owns the key.
    fn route(&mut self, from: SiteId, object: ObjectId) -> Result<Vec<SiteId>, Incomplete>;
    /// Does `site`'s repository hold any visit record of `object`?
    fn knows(&mut self, site: SiteId, object: ObjectId) -> bool;
    /// The §IV-A.3 index lookup at `gateway`: the object's latest-state
    /// link, `Ok(None)` when the index does not know it. Whatever the
    /// lookup spends beyond reaching the gateway is charged to `cost`.
    fn gateway_lookup(
        &mut self,
        gateway: SiteId,
        object: ObjectId,
        cost: &mut QueryCost,
    ) -> Result<Option<Link>, Incomplete>;
    /// `site`'s visit record of `object` that arrived at `at`.
    fn record_at(&mut self, site: SiteId, object: ObjectId, at: SimTime) -> Option<IopRecord>;
    /// `site`'s latest visit record of `object` arriving at or before `t`.
    fn latest_at_or_before(&mut self, site: SiteId, object: ObjectId, t: SimTime)
        -> Option<IopRecord>;
    /// `site`'s earliest visit record of `object`.
    fn first(&mut self, site: SiteId, object: ObjectId) -> Option<IopRecord>;
    /// `site`'s latest visit record of `object`.
    fn latest(&mut self, site: SiteId, object: ObjectId) -> Option<IopRecord>;
    /// Is `site` still a member (its own repository can be asked)?
    fn alive(&self, site: SiteId) -> bool;
    /// The live sites to probe for replica copies of departed `site`'s
    /// repository, in probe order. Empty without replication.
    fn replica_holders(&self, site: SiteId) -> Vec<SiteId>;
    /// `holder`'s replica copy of `primary`'s visit record.
    fn replica_record_at(
        &mut self,
        holder: SiteId,
        primary: SiteId,
        object: ObjectId,
        at: SimTime,
    ) -> Option<IopRecord>;
    /// Charge whatever the network plane adds for one query-sized
    /// message `from -> to` (the simulator's WAN topology). Nothing by
    /// default.
    fn wire(&self, _cost: &mut QueryCost, _from: SiteId, _to: SiteId) {}
}

// ----------------------------------------------------------------------
// The planner
// ----------------------------------------------------------------------

/// Phase 1: find an anchor for `object`, starting at `from`. Returns
/// who answered — the query then rests at that site
/// ([`AnswerSource::served_by`]) — plus the gateway's latest-state link
/// when it was the index that answered; without one, the answering site
/// holds IOP records of the object itself.
fn discover<S: RecordSource>(
    src: &mut S,
    from: SiteId,
    object: ObjectId,
    cost: &mut QueryCost,
) -> Result<(AnswerSource, Option<Link>), Incomplete> {
    // Local repository?
    if src.knows(from, object) {
        return Ok((AnswerSource::Local, None));
    }

    // Route towards the gateway, checking intermediate nodes. An empty
    // path means the origin owns the key.
    let path = src.route(from, object)?;
    let mut at = from;
    for (i, &site) in path.iter().enumerate() {
        cost.step(1);
        src.wire(cost, at, site);
        at = site;
        if i + 1 < path.len() && src.knows(site, object) {
            return Ok((AnswerSource::Intermediate(site), None));
        }
    }
    // Gateway reached: run the §IV-A.3 lookup.
    let latest = src.gateway_lookup(at, object, cost)?;
    let source = if latest.is_some() { AnswerSource::Gateway(at) } else { AnswerSource::NotFound };
    Ok((source, latest))
}

/// Read the visit record `target` names, paying one message if it lives
/// elsewhere than `current` (the node currently holding the query).
pub fn fetch_record<S: RecordSource>(
    src: &mut S,
    current: &mut SiteId,
    target: Link,
    object: ObjectId,
    cost: &mut QueryCost,
) -> Result<IopRecord, Incomplete> {
    if *current != target.site {
        cost.step(1);
        src.wire(cost, *current, target.site);
        *current = target.site;
    }
    if src.alive(target.site) {
        return src.record_at(target.site, object, target.time).ok_or(Incomplete);
    }
    // The organization is gone. With replication the record survives on
    // the dead site's successors — probe the holders of its repository
    // copies, one message each. Without replication there are no
    // holders and this is exactly the seed's unreachable-segment
    // outcome (§I: sovereignty — the repository departed with its
    // owner).
    for holder in src.replica_holders(target.site) {
        cost.step(1);
        src.wire(cost, *current, holder);
        if let Some(rec) = src.replica_record_at(holder, target.site, object, target.time) {
            *current = holder;
            return Ok(rec);
        }
    }
    Err(Incomplete)
}

/// Walk the IOP list backward to the visit covering `t`. `from` is the
/// back link of a visit known to begin after `t` (for a gateway anchor,
/// the latest link itself when `t` precedes it); `Ok(None)` means the
/// object was not yet in the system at `t`.
pub fn walk_back<S: RecordSource>(
    src: &mut S,
    current: &mut SiteId,
    mut from: Option<Link>,
    object: ObjectId,
    t: SimTime,
    cost: &mut QueryCost,
) -> Result<Option<SiteId>, Incomplete> {
    while let Some(prev) = from {
        if prev.time <= t {
            return Ok(Some(prev.site));
        }
        from = fetch_record(src, current, prev, object, cost)?.from;
    }
    Ok(None)
}

/// Walk the IOP list forward from visit `at` (which began at or before
/// `t` and whose onward link is `to`) to the visit covering `t`.
pub fn walk_forward<S: RecordSource>(
    src: &mut S,
    current: &mut SiteId,
    mut at: Link,
    mut to: Option<Link>,
    object: ObjectId,
    t: SimTime,
    cost: &mut QueryCost,
) -> Result<Link, Incomplete> {
    while let Some(next) = to {
        if t < next.time {
            break;
        }
        to = fetch_record(src, current, next, object, cost)?.to;
        at = next;
    }
    Ok(at)
}

/// `L(o, t)` (Eq. 1) issued at `from`, charging `cost`. Returns the
/// answer, who answered discovery, whether the answer is complete, and
/// the gateway's latest link when discovery reached the index (the
/// value a locate cache stores).
pub fn locate<S: RecordSource>(
    src: &mut S,
    from: SiteId,
    object: ObjectId,
    t: SimTime,
    cost: &mut QueryCost,
) -> (Option<SiteId>, AnswerSource, bool, Option<Link>) {
    let Ok((source, latest)) = discover(src, from, object, cost) else {
        return (None, AnswerSource::NotFound, false, None);
    };
    let Some(mut current) = source.served_by(from) else {
        return (None, source, true, None);
    };
    let walked = match latest {
        // The index *is* the latest state: answer immediately.
        Some(link) if t >= link.time => Ok(Some(link.site)),
        Some(link) => walk_back(src, &mut current, Some(link), object, t, cost),
        None => locate_from_records(src, &mut current, object, t, cost),
    };
    (walked.unwrap_or(None), source, walked.is_ok(), latest)
}

/// Locate from a site that holds IOP records of the object itself (the
/// query rests there).
fn locate_from_records<S: RecordSource>(
    src: &mut S,
    current: &mut SiteId,
    object: ObjectId,
    t: SimTime,
    cost: &mut QueryCost,
) -> Result<Option<SiteId>, Incomplete> {
    let site = *current;
    if let Some(rec) = src.latest_at_or_before(site, object, t) {
        // The object was here at or before t; is it still the relevant
        // visit, or did it move on before t?
        let here = Link { site, time: rec.arrived };
        return walk_forward(src, current, here, rec.to, object, t, cost).map(|l| Some(l.site));
    }
    // All local records are later than t: walk backward from the
    // earliest local record.
    let first = src.first(site, object).ok_or(Incomplete)?;
    walk_back(src, current, first.from, object, t, cost)
}

/// The visit record `rec`, found by following `l`, as a path element.
fn visit(l: Link, rec: &IopRecord) -> Visit {
    Visit { site: l.site, arrived: l.time, departed: rec.to.map(|x| x.time) }
}

/// `TR(o, t_start, t_end)` (Eq. 2) issued at `from`, charging `cost`.
pub fn trace<S: RecordSource>(
    src: &mut S,
    from: SiteId,
    object: ObjectId,
    t0: SimTime,
    t1: SimTime,
    cost: &mut QueryCost,
) -> (Path, AnswerSource, bool) {
    if t0 > t1 {
        return (Vec::new(), AnswerSource::NotFound, true);
    }
    let Ok((source, latest)) = discover(src, from, object, cost) else {
        return (Vec::new(), AnswerSource::NotFound, false);
    };
    let Some(mut current) = source.served_by(from) else {
        return (Vec::new(), source, true);
    };
    let mut complete = true;

    // Find the anchor visit: for a gateway anchor it is the latest
    // visit; for a record anchor, the site's latest local record.
    let start = match latest {
        Some(link) => link,
        None => match src.latest(current, object) {
            Some(rec) => Link { site: current, time: rec.arrived },
            None => return (Vec::new(), source, false),
        },
    };

    // Phase A: walk forward from the anchor, collecting visits, until
    // the last visit that can overlap the window (arrivals beyond t1
    // cannot). Remember the anchor's back link for phase B.
    let mut after: Vec<Visit> = Vec::new();
    let mut back: Option<Link> = None;
    let mut cur = start;
    loop {
        let Ok(rec) = fetch_record(src, &mut current, cur, object, cost) else {
            complete = false;
            break;
        };
        if cur == start {
            back = rec.from;
        }
        after.push(visit(cur, &rec));
        match rec.to {
            Some(next) if next.time <= t1 => cur = next,
            _ => break,
        }
    }

    // Phase B: walk backward from the anchor until the window's lower
    // edge is passed.
    let mut before: Vec<Visit> = Vec::new();
    if start.time > t0 {
        while let Some(l) = back {
            let Ok(rec) = fetch_record(src, &mut current, l, object, cost) else {
                complete = false;
                break;
            };
            before.push(visit(l, &rec));
            if l.time <= t0 {
                break;
            }
            back = rec.from;
        }
    }

    before.reverse();
    before.extend(after);
    let path: Path = before.into_iter().filter(|v| v.overlaps(t0, t1)).collect();
    (path, source, complete)
}

// ----------------------------------------------------------------------
// The simulator as a record source
// ----------------------------------------------------------------------

impl RecordSource for &NetWorld {
    fn route(&mut self, from: SiteId, object: ObjectId) -> Result<Vec<SiteId>, Incomplete> {
        let key = self.gateway_key(object);
        let from_chord = self.sites[from.0 as usize].chord_id;
        let r = self.ring.lookup(from_chord, key).map_err(|_| Incomplete)?;
        // Path ids come from this same ring snapshot, so every one maps.
        let sites = r.path[1..].iter().filter_map(|nid| self.ring.app_index_of(nid));
        Ok(sites.map(|i| SiteId(i as u32)).collect())
    }

    fn knows(&mut self, site: SiteId, object: ObjectId) -> bool {
        self.sites[site.0 as usize].iop.knows(object)
    }

    fn gateway_lookup(
        &mut self,
        gateway: SiteId,
        object: ObjectId,
        cost: &mut QueryCost,
    ) -> Result<Option<Link>, Incomplete> {
        Ok(gateway_lookup(self, gateway.0 as usize, object, cost))
    }

    fn record_at(&mut self, site: SiteId, object: ObjectId, at: SimTime) -> Option<IopRecord> {
        self.sites[site.0 as usize].iop.record_at(object, at).copied()
    }

    fn latest_at_or_before(
        &mut self,
        site: SiteId,
        object: ObjectId,
        t: SimTime,
    ) -> Option<IopRecord> {
        self.sites[site.0 as usize].iop.latest_at_or_before(object, t).copied()
    }

    fn first(&mut self, site: SiteId, object: ObjectId) -> Option<IopRecord> {
        self.sites[site.0 as usize].iop.all(object).first().copied()
    }

    fn latest(&mut self, site: SiteId, object: ObjectId) -> Option<IopRecord> {
        self.sites[site.0 as usize].iop.latest(object).copied()
    }

    fn alive(&self, site: SiteId) -> bool {
        self.sites[site.0 as usize].alive
    }

    fn replica_holders(&self, site: SiteId) -> Vec<SiteId> {
        self.sites
            .iter()
            .filter(|h| h.alive && h.replica_iop.contains_key(&site))
            .map(|h| h.site)
            .collect()
    }

    fn replica_record_at(
        &mut self,
        holder: SiteId,
        primary: SiteId,
        object: ObjectId,
        at: SimTime,
    ) -> Option<IopRecord> {
        let copy = self.sites[holder.0 as usize].replica_iop.get(&primary)?;
        copy.record_at(object, at).copied()
    }

    /// The topology's deterministic wire cost. No-op without a
    /// topology — pre-geo builds stay byte-identical.
    fn wire(&self, cost: &mut QueryCost, from: SiteId, to: SiteId) {
        let Some(t) = self.geo.as_ref() else { return };
        let (a, b) = (t.region_of(from.0 as usize), t.region_of(to.0 as usize));
        cost.wan_us += t.wire_us(a, b, QUERY_MSG_BYTES);
        if a != b {
            cost.cross_msgs += 1;
        }
    }
}

/// §IV-A.3: check the current-`Lp` shard at the gateway, then search the
/// triangle children (delegated records) and hosted ancestors
/// (pre-split history). "To look up an object which does not exist
/// locally, we only need to ask the parent and its two children."
fn gateway_lookup(
    world: &NetWorld,
    gw_idx: usize,
    object: ObjectId,
    cost: &mut QueryCost,
) -> Option<Link> {
    // Individual mode: single per-object map.
    if world.group_config().is_none() {
        return world.sites[gw_idx].gateway.objects.get(&object).map(|e| e.link());
    }

    let lp = world.current_lp;
    let p = Prefix::of_id(&object.id(), lp);
    if let Some(e) = world.sites[gw_idx].gateway.prefixes.get(&p).and_then(|s| s.get(&object)) {
        return Some(e.link());
    }

    // Bidirectional linear search. Descend first (delegation is the
    // common cause of a miss), then ascend to Lmin.
    let l_min = world.group_config().map(|g| g.l_min).unwrap_or(0);
    let gw_site = world.sites[gw_idx].site;
    // One routed probe of the shard hosting prefix `q`.
    let probe = |q: Prefix, cost: &mut QueryCost| {
        let (owner, hops) = world.route(gw_site, q.gateway_id());
        cost.messages += 1;
        cost.hops += hops as u64;
        cost.bytes += QUERY_MSG_BYTES as u64;
        world.wire(cost, gw_site, world.sites[owner].site);
        world.sites[owner].gateway.prefixes.get(&q).and_then(|s| s.get(&object)).map(|e| e.link())
    };

    // Descent through hosted child prefixes the object can live under.
    let mut cur = p;
    while cur.len() < ids::prefix::MAX_PREFIX_BITS {
        cur = cur.child(object.id().bit(cur.len()));
        if !world.is_hosted(&cur) {
            break;
        }
        if let Some(link) = probe(cur, cost) {
            return Some(link);
        }
    }

    // Ascent towards Lmin.
    for l in (l_min..p.len()).rev() {
        let anc = p.truncate(l);
        if world.is_hosted(&anc) {
            if let Some(link) = probe(anc, cost) {
                return Some(link);
            }
        }
    }
    None
}

/// The simulator's `L(o, t)` through the read-scaling layer (DESIGN.md
/// §15): consult the origin's locate-answer cache when one is
/// configured, fall back to full discovery, fill the cache from gateway
/// answers, and count per-node served-query load. With
/// `Config.locate_cache == None` the query dispatch is exactly
/// [`locate`] — same lookups, same costs — plus pure counter updates
/// that touch no RNG or metrics.
pub(crate) fn locate_cached(
    world: &mut NetWorld,
    from: SiteId,
    object: ObjectId,
    t: SimTime,
) -> (Option<SiteId>, QueryCost, AnswerSource, bool) {
    let mut cost = QueryCost::default();
    let idx = from.0 as usize;
    let hit = {
        let NetWorld { sites, epochs, .. } = &mut *world;
        sites[idx].locate_cache.as_mut().and_then(|c| c.get(object, epochs.of(object)))
    };
    if let Some(link) = hit {
        world.sites[idx].query_load += 1;
        if t >= link.time {
            // The cached link *is* the latest state: answer free.
            return (Some(link.site), cost, AnswerSource::Cached, true);
        }
        // Historical query: the live cached link is a valid walk
        // anchor — discovery is skipped, only the IOP walk is paid.
        let mut current = from;
        let walked = walk_back(&mut &*world, &mut current, Some(link), object, t, &mut cost);
        return (walked.unwrap_or(None), cost, AnswerSource::Cached, walked.is_ok());
    }
    let (ans, source, complete, latest) = locate(&mut &*world, from, object, t, &mut cost);
    if let Some(served) = source.served_by(from) {
        world.sites[served.0 as usize].query_load += 1;
    }
    // Only gateway answers fill the cache: the latest link is the
    // authoritative state the epoch guards.
    let NetWorld { sites, epochs, .. } = world;
    if let (Some(cache), Some(link)) = (sites[idx].locate_cache.as_mut(), latest) {
        cache.insert(object, epochs.of(object), link);
    }
    (ans, cost, source, complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::IopStore;
    use ids::Id;
    use moods::{Locate, MovementLog, Trace};
    use proptiny::prelude::*;
    use simnet::time::ms;
    use std::collections::HashMap;

    const SITES: u32 = 6;

    fn obj(k: usize) -> ObjectId {
        ObjectId(Id::hash(&(k as u64).to_be_bytes()))
    }

    /// The planner's whole world in memory: `SITES` sites on a ring that
    /// routes clockwise one site per hop, object `k` indexed at gateway
    /// `k % SITES`, every visit in `log` threaded into the visited
    /// sites' repositories.
    #[derive(Default)]
    struct Fake {
        iop: Vec<IopStore>,
        index: HashMap<ObjectId, (SiteId, Link)>,
        /// Departed site → the holders probed for its repository; the
        /// last of them actually has the copy.
        dead: HashMap<SiteId, Vec<SiteId>>,
        cut_route: bool,
        cut_gateway: bool,
        /// Every site claims to know every object — a source whose
        /// records vanish between `knows` and the keyed read.
        phantom: bool,
    }

    impl Fake {
        fn new(log: &MovementLog, objects: usize) -> Fake {
            let mut f = Fake { iop: vec![IopStore::new(); SITES as usize], ..Fake::default() };
            for k in 0..objects {
                let visits = log.visits(obj(k));
                let link = |v: &Visit| Link { site: v.site, time: v.arrived };
                for (i, v) in visits.iter().enumerate() {
                    let rec = IopRecord {
                        arrived: v.arrived,
                        from: i.checked_sub(1).map(|p| link(&visits[p])),
                        to: visits.get(i + 1).map(link),
                    };
                    f.iop[v.site.0 as usize].upsert_record(obj(k), rec);
                }
                if let Some(last) = visits.last() {
                    f.index.insert(obj(k), (SiteId(k as u32 % SITES), link(last)));
                }
            }
            f
        }

        fn gateway_of(&self, object: ObjectId) -> SiteId {
            self.index.get(&object).map_or(SiteId(0), |e| e.0)
        }
    }

    impl RecordSource for Fake {
        fn route(&mut self, from: SiteId, object: ObjectId) -> Result<Vec<SiteId>, Incomplete> {
            if self.cut_route {
                return Err(Incomplete);
            }
            let gw = self.gateway_of(object);
            let hops = (gw.0 + SITES - from.0) % SITES;
            Ok((1..=hops).map(|h| SiteId((from.0 + h) % SITES)).collect())
        }
        fn knows(&mut self, site: SiteId, object: ObjectId) -> bool {
            self.phantom || self.iop[site.0 as usize].knows(object)
        }
        fn gateway_lookup(
            &mut self,
            gateway: SiteId,
            object: ObjectId,
            _cost: &mut QueryCost,
        ) -> Result<Option<Link>, Incomplete> {
            if self.cut_gateway {
                return Err(Incomplete);
            }
            Ok(self.index.get(&object).filter(|e| e.0 == gateway).map(|e| e.1))
        }
        fn record_at(&mut self, site: SiteId, object: ObjectId, at: SimTime) -> Option<IopRecord> {
            self.iop[site.0 as usize].record_at(object, at).copied()
        }
        fn latest_at_or_before(
            &mut self,
            site: SiteId,
            object: ObjectId,
            t: SimTime,
        ) -> Option<IopRecord> {
            self.iop[site.0 as usize].latest_at_or_before(object, t).copied()
        }
        fn first(&mut self, site: SiteId, object: ObjectId) -> Option<IopRecord> {
            self.iop[site.0 as usize].all(object).first().copied()
        }
        fn latest(&mut self, site: SiteId, object: ObjectId) -> Option<IopRecord> {
            self.iop[site.0 as usize].latest(object).copied()
        }
        fn alive(&self, site: SiteId) -> bool {
            !self.dead.contains_key(&site)
        }
        fn replica_holders(&self, site: SiteId) -> Vec<SiteId> {
            self.dead[&site].clone()
        }
        fn replica_record_at(
            &mut self,
            holder: SiteId,
            primary: SiteId,
            object: ObjectId,
            at: SimTime,
        ) -> Option<IopRecord> {
            let has_copy = self.dead[&primary].last() == Some(&holder);
            self.iop[primary.0 as usize].record_at(object, at).filter(|_| has_copy).copied()
        }
    }

    /// Object 0 (gateway: site 0) visits 1 → 2 → 4 at 10/20/30 ms.
    fn chain() -> (MovementLog, Fake) {
        let mut log = MovementLog::new();
        for (site, t) in [(1, 10), (2, 20), (4, 30)] {
            log.record(obj(0), SiteId(site), ms(t));
        }
        let fake = Fake::new(&log, 1);
        (log, fake)
    }

    fn locate_from(
        fake: &mut Fake,
        from: u32,
        t: SimTime,
    ) -> (Option<SiteId>, AnswerSource, bool, QueryCost) {
        let mut cost = QueryCost::default();
        let (ans, source, complete, _) = locate(fake, SiteId(from), obj(0), t, &mut cost);
        (ans, source, complete, cost)
    }

    #[test]
    fn every_anchor_kind_answers() {
        let (_, mut fake) = chain();
        // Origin 1 holds a record; origin 3 routes 4 → 5 → 0 and site 4
        // answers on the way; origin 5 routes straight to the gateway.
        for (from, source) in [
            (1, AnswerSource::Local),
            (3, AnswerSource::Intermediate(SiteId(4))),
            (5, AnswerSource::Gateway(SiteId(0))),
        ] {
            let (ans, got, complete, _) = locate_from(&mut fake, from, ms(25));
            assert_eq!((ans, got, complete), (Some(SiteId(2)), source, true));
        }
    }

    #[test]
    fn dead_primary_is_read_from_a_replica_holder_one_step_per_probe() {
        let (log, mut fake) = chain();
        fake.dead.insert(SiteId(2), vec![SiteId(3), SiteId(5)]);
        // From the gateway (site 0), t = 15 ms: latest link is site 4
        // (one step), back to dead site 2 (one step + two holder
        // probes), whose record's `from` answers site 1 without a move.
        let (ans, source, complete, cost) = locate_from(&mut fake, 0, ms(15));
        assert_eq!((ans, source, complete), (Some(SiteId(1)), AnswerSource::Gateway(SiteId(0)), true));
        assert_eq!(cost.messages, 4);
        assert_eq!(cost.bytes, 4 * QUERY_MSG_BYTES as u64);
        // And the trace crosses the dead segment intact.
        let mut cost = QueryCost::default();
        let (path, _, complete) = trace(&mut fake, SiteId(0), obj(0), ms(0), ms(40), &mut cost);
        assert_eq!((path, complete), (log.trace(obj(0), ms(0), ms(40)), true));
        // Without a surviving copy the segment is unreachable.
        fake.dead.insert(SiteId(2), Vec::new());
        let (ans, _, complete, _) = locate_from(&mut fake, 0, ms(15));
        assert_eq!((ans, complete), (None, false));
    }

    #[test]
    fn an_unreachable_hop_is_incomplete_not_absent() {
        for cut in [|f: &mut Fake| f.cut_route = true, |f: &mut Fake| f.cut_gateway = true] {
            let (_, mut fake) = chain();
            cut(&mut fake);
            let (ans, source, complete, _) = locate_from(&mut fake, 5, ms(25));
            assert_eq!((ans, source, complete), (None, AnswerSource::NotFound, false));
            let mut cost = QueryCost::default();
            let (path, _, complete) = trace(&mut fake, SiteId(5), obj(0), ms(0), ms(40), &mut cost);
            assert!(path.is_empty() && !complete);
        }
        // The same origin with every hop reachable but the object
        // unknown *is* an authoritative "nowhere".
        let mut fake = Fake::new(&MovementLog::new(), 0);
        let (ans, source, complete, _) = locate_from(&mut fake, 5, ms(25));
        assert_eq!((ans, source, complete), (None, AnswerSource::NotFound, true));
    }

    #[test]
    fn a_source_that_loses_its_records_is_incomplete_not_a_panic() {
        let (_, mut fake) = chain();
        fake.phantom = true;
        let (ans, source, complete, _) = locate_from(&mut fake, 3, ms(5));
        assert_eq!((ans, source, complete), (None, AnswerSource::Local, false));
        let mut cost = QueryCost::default();
        let (path, source, complete) =
            trace(&mut fake, SiteId(3), obj(0), ms(0), ms(40), &mut cost);
        assert_eq!((path, source, complete), (Vec::new(), AnswerSource::Local, false));
    }

    proptiny! {
        #[test]
        fn prop_planner_equals_oracle_from_every_origin(
            moves in prop::collection::vec(
                prop::collection::vec((0u32..SITES, 1u64..40), 1..8),
                1..5,
            ),
        ) {
            let mut log = MovementLog::new();
            for (k, hops) in moves.iter().enumerate() {
                let mut t = 0;
                for &(site, dt) in hops {
                    t += dt;
                    log.record(obj(k), SiteId(site), ms(t));
                }
            }
            let mut fake = Fake::new(&log, moves.len());
            for k in 0..moves.len() {
                let o = obj(k);
                let mut probes = vec![ms(0)];
                for v in log.visits(o) {
                    probes.extend([v.arrived, v.arrived + ms(1)]);
                }
                let visited = |s: SiteId| log.visits(o).iter().any(|v| v.site == s);
                for from in (0..SITES).map(SiteId) {
                    // The anchor the fake's geometry dictates.
                    let path = fake.route(from, o).unwrap();
                    let expected = if visited(from) {
                        AnswerSource::Local
                    } else {
                        match path.iter().find(|s| visited(**s)) {
                            Some(&s) if s != fake.gateway_of(o) => AnswerSource::Intermediate(s),
                            _ => AnswerSource::Gateway(fake.gateway_of(o)),
                        }
                    };
                    for (i, &t0) in probes.iter().enumerate() {
                        let mut cost = QueryCost::default();
                        let (ans, source, complete, _) = locate(&mut fake, from, o, t0, &mut cost);
                        prop_assert_eq!((ans, source, complete), (log.locate(o, t0), expected, true));
                        prop_assert_eq!(cost.messages, cost.hops);
                        for &t1 in &probes[i..] {
                            let (path, source, complete) =
                                trace(&mut fake, from, o, t0, t1, &mut QueryCost::default());
                            prop_assert_eq!(
                                (path, source, complete),
                                (log.trace(o, t0, t1), expected, true)
                            );
                        }
                    }
                }
            }
        }
    }
}
