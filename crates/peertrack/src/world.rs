//! The simulator's driver around the protocol: every site's state plus
//! the paths only a whole-network host runs.
//!
//! [`NetWorld`] owns all distributed state — the Chord ring and each
//! site's [`Site`] — and implements [`simnet::World`] so the
//! discrete-event engine can drive it. The write plane itself (§III
//! M2/M3 link threading, the §IV Fig. 5 `update_index`, capture →
//! window → `GroupIndex`, K-successor replication) is
//! [`crate::site`], which this module hosts through [`site::Host`]; what
//! stays here is what no single node does alone, or does only in the
//! simulator:
//!
//! * individual mode (**M1** arrivals, §III) and the sequenced
//!   at-least-once delivery layer (acks, retries, duplicate filter);
//! * the Fig. 5 `refresh_from_ascent` / `refresh_from_descent` fetches
//!   for unknown objects (charged as `Refresh` traffic; executed as
//!   zero-latency RPCs — the figures measure message volume, not
//!   indexing latency, see DESIGN.md);
//! * Data-Triangle delegation of an overfull shard's earliest `α·count`
//!   records (Fig. 5 `update_index` lines 2–4);
//! * the splitting–merging process on a change of `Lp` (§IV-A.2) when
//!   `eager_split_merge` is set, and key-range handoff on churn;
//! * timers (`Tmax`, scheduled captures, retry, the one-shot
//!   anti-entropy trigger), trace spans and the locate-cache epochs.

use crate::config::{Config, GroupConfig, IndexingMode};
use crate::messages::{Msg, Wire, ENTRY_BYTES, HEADER_BYTES, OBJECT_ID_BYTES, PREFIX_BYTES};
pub use crate::site::Anomalies;
use crate::site::{self, Site};
use crate::spans;
use crate::store::{IndexEntry, IopRecord, Link, PrefixIndex};
use chord::Ring;
use ids::{Id, Prefix};
use moods::{ObjectId, SiteId};
use qcache::{CacheStats, EpochTable, LocateCache};
use simnet::{MsgClass, NodeIndex, Sim, SimTime, TimerId, World};
use std::collections::{HashMap, HashSet};
use std::ops::{Deref, DerefMut};

/// Timer-kind tags (high byte of the `u64` timer kind).
const TAG_SHIFT: u32 = 56;
/// Window `Tmax` expiry; value = site index.
pub(crate) const TAG_WINDOW: u64 = 1;
/// Scheduled capture; value = pending-capture id.
pub(crate) const TAG_CAPTURE: u64 = 2;
/// Ack timeout for a sequenced delivery; value = sequence number.
pub(crate) const TAG_RETRY: u64 = 3;
/// One-shot anti-entropy digest exchange; value = site index. Armed by
/// a replicated write, never periodic — a quiescent network stays
/// quiescent.
pub(crate) const TAG_ANTIENTROPY: u64 = 4;

fn timer_kind(tag: u64, value: u64) -> u64 {
    debug_assert!(value < (1 << TAG_SHIFT));
    (tag << TAG_SHIFT) | value
}

/// One organization's full state: its protocol [`Site`] (which this
/// derefs to — `sites[i].iop`, `.gateway`, `.replica_iop`, …) plus what
/// only the simulator keeps per site.
pub struct SiteState {
    /// The state the shared write plane ([`crate::site`]) advances.
    pub proto: Site,
    /// Ring identity (SHA-1 of the site's external address).
    pub chord_id: Id,
    /// False once the site has left the network.
    pub alive: bool,
    /// Pending `Tmax` timer for the open window, if any.
    window_timer: Option<TimerId>,
    /// Sequence numbers already processed (retry mode): retransmissions
    /// and fault-plane duplicates are acked again but not re-applied —
    /// IOP upserts are not idempotent, so at-least-once delivery plus
    /// this filter gives exactly-once processing.
    seen_seqs: HashSet<u64>,
    /// Pending one-shot anti-entropy timer, if a write armed one.
    antientropy_timer: Option<TimerId>,
    /// Locate-answer cache (DESIGN.md §15), allocated only when
    /// `Config.locate_cache` is set. Derived state: never replicated,
    /// never persisted, cleared wholesale on membership change.
    pub(crate) locate_cache: Option<LocateCache<Link>>,
    /// Locates this node answered (cache hits, local/intermediate
    /// answers, gateway lookups) — the hot-shard load metric. Pure
    /// bookkeeping: counting never touches RNG, metrics or dispatch,
    /// so it is always on.
    pub(crate) query_load: u64,
}

impl Deref for SiteState {
    type Target = Site;
    fn deref(&self) -> &Site {
        &self.proto
    }
}

impl DerefMut for SiteState {
    fn deref_mut(&mut self) -> &mut Site {
        &mut self.proto
    }
}

/// The distributed system: ring + every site's state.
pub struct NetWorld {
    /// Static configuration.
    pub config: Config,
    /// The Chord overlay.
    pub ring: Ring,
    /// All sites ever created; index = `SiteId.0` = simnet `NodeIndex`.
    pub sites: Vec<SiteState>,
    /// Current global prefix length `Lp` (group mode).
    pub current_lp: usize,
    /// Prefixes that hold index data somewhere in the network. Nodes
    /// learn populated prefix *lengths* from the `Lp` reconfiguration
    /// broadcasts; we keep the exact set for determinism.
    hosted: HashSet<Prefix>,
    /// Deferred captures keyed by pending id.
    pending_captures: HashMap<u64, (SiteId, Vec<ObjectId>)>,
    next_pending: u64,
    /// Anomaly counters (see [`Anomalies`]).
    pub anomalies: Anomalies,
    /// Next wire sequence number (0 is reserved for unsequenced traffic).
    next_seq: u64,
    /// Unacked sequenced sends awaiting their retry timer.
    pending_retries: HashMap<u64, PendingSend>,
    /// Open end-to-end message spans keyed by wire sequence number
    /// (only populated while a trace sink is installed). Keying by seq
    /// makes the span cover retransmissions: it closes when the first
    /// copy is processed, whichever attempt delivered it.
    pending_spans: HashMap<u64, simnet::SpanId>,
    /// Per-object movement epochs guarding cached locate answers
    /// (DESIGN.md §15). Only maintained while `Config.locate_cache` is
    /// set — the off path never touches it.
    pub(crate) epochs: EpochTable,
    /// WAN topology, when the network was built with `Builder::geo`.
    /// The query path charges its deterministic wire costs from it
    /// (base matrix only, never jitter — queries stay RNG-free);
    /// `None`, or a zero topology, adds nothing.
    pub geo: Option<geo::Topology>,
}

/// A sequenced send the retry layer may have to retransmit.
struct PendingSend {
    from: usize,
    to: usize,
    hops: u32,
    msg: Msg,
    /// Delivery attempts made so far (first send included).
    attempts: u32,
    timer: TimerId,
}

impl NetWorld {
    /// Empty world with the given configuration. Sites are added by the
    /// builder / churn API in [`crate::net`].
    pub fn new(config: Config) -> NetWorld {
        let lp = match config.mode {
            IndexingMode::Group(g) => g.l_min,
            IndexingMode::Individual => 0,
        };
        NetWorld {
            config,
            ring: Ring::new(),
            sites: Vec::new(),
            current_lp: lp,
            hosted: HashSet::new(),
            pending_captures: HashMap::new(),
            next_pending: 0,
            anomalies: Anomalies::default(),
            next_seq: 1,
            pending_retries: HashMap::new(),
            pending_spans: HashMap::new(),
            epochs: EpochTable::new(),
            geo: None,
        }
    }

    /// Group configuration, if running in group mode.
    pub fn group_config(&self) -> Option<GroupConfig> {
        match self.config.mode {
            IndexingMode::Group(g) => Some(g),
            IndexingMode::Individual => None,
        }
    }

    /// Is this prefix known to hold data anywhere?
    pub fn is_hosted(&self, p: &Prefix) -> bool {
        self.hosted.contains(p)
    }

    /// Number of live sites.
    pub fn live_sites(&self) -> usize {
        self.sites.iter().filter(|s| s.alive).count()
    }

    // ------------------------------------------------------------------
    // Site plumbing
    // ------------------------------------------------------------------

    /// Register a new site's state (ring membership handled by caller).
    pub(crate) fn push_site(&mut self, chord_id: Id, n_max: usize) -> SiteId {
        let site = SiteId(self.sites.len() as u32);
        self.sites.push(SiteState {
            proto: Site::new(site, n_max),
            chord_id,
            alive: true,
            window_timer: None,
            seen_seqs: HashSet::new(),
            antientropy_timer: None,
            locate_cache: self.config.locate_cache.map(LocateCache::new),
            query_load: 0,
        });
        site
    }

    fn site_idx(&self, site: SiteId) -> usize {
        site.0 as usize
    }

    /// Route from a site towards a DHT key: returns `(owner site index,
    /// hops)`. Panics on routing failure — the runtime stabilizes after
    /// churn, so lookups always converge.
    pub(crate) fn route(&self, from: SiteId, key: Id) -> (usize, u32) {
        let from_chord = self.sites[self.site_idx(from)].chord_id;
        let r = self.ring.lookup(from_chord, key).expect("overlay lookup failed");
        let owner = self.ring.app_index_of(&r.owner).expect("owner is a member");
        (owner, r.hops)
    }

    /// [`NetWorld::route`], additionally emitting one `LookupHop` trace
    /// event per node visited when a sink is installed. Behaviour and
    /// result are identical to `route` — tracing never changes routing.
    pub(crate) fn route_traced(
        &self,
        sim: &mut Sim<Wire>,
        from: SiteId,
        key: Id,
    ) -> (usize, u32) {
        let from_chord = self.sites[self.site_idx(from)].chord_id;
        let r = self.ring.lookup(from_chord, key).expect("overlay lookup failed");
        let owner = self.ring.app_index_of(&r.owner).expect("owner is a member");
        if sim.tracing() && r.path.len() > 1 {
            let path = self.ring.app_path(&r.path[1..]);
            sim.trace_lookup_path(self.site_idx(from), &path);
        }
        (owner, r.hops)
    }

    /// The gateway key for an object under the current mode.
    pub fn gateway_key(&self, object: ObjectId) -> Id {
        match self.config.mode {
            IndexingMode::Individual => object.id(),
            IndexingMode::Group(_) => {
                Prefix::of_id(&object.id(), self.current_lp).gateway_id()
            }
        }
    }

    // ------------------------------------------------------------------
    // Capture path
    // ------------------------------------------------------------------

    /// A receptor at `site` captured `objects` at the current instant.
    pub fn capture_now(&mut self, sim: &mut Sim<Wire>, site: SiteId, objects: &[ObjectId]) {
        let idx = self.site_idx(site);
        assert!(self.sites[idx].alive, "capture at a departed site {site}");
        let now = sim.now();
        let tracing = sim.tracing();
        match self.config.mode {
            IndexingMode::Individual => {
                site::record_visits(&mut self.host(sim), site, objects, now);
                for &o in objects {
                    if tracing {
                        sim.set_trace_ctx(spans::object_tag(o));
                    }
                    let (owner, hops) = self.route_traced(sim, site, o.id());
                    let msg = Msg::Arrival { object: o, site, time: now };
                    self.dispatch(sim, idx, owner, hops, msg);
                }
            }
            IndexingMode::Group(_) => site::capture(&mut self.host(sim), site, objects, now),
        }
        if tracing {
            sim.clear_trace_ctx();
        }
    }

    /// Queue a capture for time `at` (workload injection).
    pub fn schedule_capture(
        &mut self,
        sim: &mut Sim<Wire>,
        at: SimTime,
        site: SiteId,
        objects: Vec<ObjectId>,
    ) {
        let id = self.next_pending;
        self.next_pending += 1;
        // Tag the injection with the object (single-object captures,
        // the auditor's shape) so the whole downstream chain of this
        // capture/movement is anchored to it.
        let tagged = sim.tracing() && objects.len() == 1;
        if tagged {
            sim.set_trace_ctx(spans::object_tag(objects[0]));
        }
        self.pending_captures.insert(id, (site, objects));
        sim.schedule(at, self.site_idx(site), timer_kind(TAG_CAPTURE, id));
        if tagged {
            sim.clear_trace_ctx();
        }
    }

    /// Flush one site's open window immediately.
    pub(crate) fn flush_site_window(&mut self, sim: &mut Sim<Wire>, idx: usize) {
        if let Some(t) = self.sites[idx].window_timer.take() {
            sim.cancel_timer(t);
        }
        let now = sim.now();
        site::flush(&mut self.host(sim), sid(idx), now);
    }

    // ------------------------------------------------------------------
    // Hosting the shared write plane (`crate::site`)
    // ------------------------------------------------------------------

    /// This world and its engine as one [`site::Host`].
    fn host<'a>(&'a mut self, sim: &'a mut Sim<Wire>) -> Driver<'a> {
        Driver { world: self, sim }
    }

    /// Drop every site's locate cache (membership or `Lp` changed): a
    /// membership change can move index ownership wholesale, and
    /// conservative correctness beats retained warmth — re-indexing
    /// that lands *after* this clear re-enters the caches through the
    /// epoch-bumped write path.
    pub(crate) fn clear_locate_caches(&mut self) {
        for s in &mut self.sites {
            if let Some(c) = s.locate_cache.as_mut() {
                c.clear();
            }
        }
    }

    /// Advance `o`'s movement epoch, killing every cached locate answer
    /// for it. Called exactly where a stored latest gateway link
    /// *changes content* (a fresh visit is indexed); moves of unchanged
    /// entries (delegation, refresh fetches, shard migration) leave the
    /// answer intact and do not bump. No-op while caching is off — the
    /// epoch table belongs to the opt-in subsystem.
    fn bump_epoch(&mut self, o: ObjectId) {
        if self.config.locate_cache.is_some() {
            self.epochs.bump(o);
        }
    }

    /// Deliver a message under the shared policy ([`site::dispatch`]):
    /// self-sends inline, IOP updates to a permanently dead site
    /// redirected, everything else through [`NetWorld::send`].
    fn dispatch(&mut self, sim: &mut Sim<Wire>, from: usize, to: usize, hops: u32, msg: Msg) {
        site::dispatch(&mut self.host(sim), sid(from), sid(to), hops, msg);
    }

    /// Put a message on the simulated network. Networked sends are
    /// sequenced; with the retry layer enabled they are also tracked
    /// for retransmission until acked.
    fn send(&mut self, sim: &mut Sim<Wire>, from: usize, to: usize, hops: u32, msg: Msg) {
        let class = msg.class();
        let bytes = msg.wire_size();
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut tagged = false;
        if sim.tracing() {
            // Tag single-object payloads so the trace can be filtered
            // per object; batched payloads stay linked via the causal
            // chain instead.
            if let Some(o) = msg.single_object() {
                sim.set_trace_ctx(spans::object_tag(o));
                tagged = true;
            }
            if let Some(kind) = spans::for_class(class) {
                let span = sim.span_open(kind, from);
                self.pending_spans.insert(seq, span);
            }
        }
        if self.config.retry.enabled {
            let timer =
                sim.set_timer(from, self.config.retry.timeout, timer_kind(TAG_RETRY, seq));
            self.pending_retries.insert(
                seq,
                PendingSend { from, to, hops, msg: msg.clone(), attempts: 1, timer },
            );
        }
        sim.send(from, to, class, bytes, hops, Wire { seq, msg });
        if tagged {
            sim.clear_trace_ctx();
        }
    }

    /// Send the ack for an accepted sequenced delivery (retry mode).
    /// Acks are themselves unsequenced: a lost ack is repaired by the
    /// retransmission it fails to suppress.
    fn send_ack(&mut self, sim: &mut Sim<Wire>, from: usize, to: usize, seq: u64) {
        let ack = Msg::Ack { acked: seq };
        let bytes = ack.wire_size();
        sim.send(from, to, MsgClass::Ack, bytes, 1, Wire::unsequenced(ack));
    }

    fn handle(&mut self, sim: &mut Sim<Wire>, to: usize, from: usize, wire: Wire) {
        let Wire { seq, msg } = wire;
        if let Msg::Ack { acked } = msg {
            // Acks complete the sender's pending entry even if the
            // sender has since left — there is nothing to retransmit.
            if let Some(p) = self.pending_retries.remove(&acked) {
                sim.cancel_timer(p.timer);
            }
            return;
        }
        if !self.sites[to].alive {
            self.anomalies.dropped_to_dead += 1;
            return;
        }
        if seq != 0 {
            if self.config.retry.enabled {
                self.send_ack(sim, to, from, seq);
            }
            if !self.sites[to].seen_seqs.insert(seq) {
                self.anomalies.duplicates_suppressed += 1;
                return;
            }
            // First processed copy of this sequence number: the
            // end-to-end message span (opened at dispatch) ends here.
            if !self.pending_spans.is_empty() {
                if let Some(span) = self.pending_spans.remove(&seq) {
                    sim.span_close(span);
                }
            }
        }
        // The arms every host shares are applied by the one protocol
        // body; what comes back is the simulator's own.
        let Some(msg) = site::handle(&mut self.host(sim), sid(to), sid(from), msg) else {
            return;
        };
        match msg {
            Msg::Arrival { object, site, time } => {
                self.handle_arrival(sim, to, object, site, time);
            }
            Msg::GroupIndex { prefix, site, members } => {
                self.handle_group_index(sim, to, prefix, site, members);
            }
            Msg::Delegate { prefix, entries } => {
                for (o, e) in entries {
                    self.merge_entry(sim, to, prefix, o, e);
                }
                self.replicate_shard(sim, to, Some(prefix));
            }
            Msg::Migrate { prefix, entries } => match prefix {
                Some(p) => {
                    for (o, e) in entries {
                        self.merge_entry(sim, to, p, o, e);
                    }
                    self.replicate_shard(sim, to, Some(p));
                }
                None => {
                    for (o, e) in entries {
                        match self.sites[to].gateway.objects.get(&o).copied() {
                            Some(ex) if ex.time > e.time => {} // racing update won
                            Some(ex) if ex.time == e.time && e.prev.is_none() => {}
                            _ => {
                                self.sites[to].gateway.objects.insert(o, e);
                            }
                        }
                    }
                    self.replicate_shard(sim, to, None);
                }
            },
            other => unreachable!("{other:?} is an ack or a well-formed shared arm"),
        }
    }

    /// A retry timer fired: retransmit if the delivery is still unacked
    /// and attempts remain, else record exhaustion.
    fn handle_retry_timeout(&mut self, sim: &mut Sim<Wire>, seq: u64) {
        let Some(mut p) = self.pending_retries.remove(&seq) else {
            return; // acked in the meantime
        };
        if !self.sites[p.from].alive {
            return; // sender left; nothing to repair
        }
        if p.attempts >= self.config.retry.max_attempts {
            self.anomalies.retries_exhausted += 1;
            return;
        }
        p.attempts += 1;
        let delay = self.config.retry.delay_after(p.attempts);
        p.timer = sim.set_timer(p.from, delay, timer_kind(TAG_RETRY, seq));
        sim.send(
            p.from,
            p.to,
            MsgClass::Retrans,
            p.msg.wire_size(),
            p.hops,
            Wire { seq, msg: p.msg.clone() },
        );
        self.pending_retries.insert(seq, p);
    }

    /// Individual-mode gateway logic (§III, Fig. 2): update the index,
    /// send M2 to the source and M3 to the destination of the move.
    fn handle_arrival(
        &mut self,
        sim: &mut Sim<Wire>,
        gw: usize,
        object: ObjectId,
        site: SiteId,
        time: SimTime,
    ) {
        let prev = self.sites[gw].gateway.objects.get(&object).copied();
        if let Some(p) = prev {
            if p.time > time {
                self.anomalies.out_of_order_arrivals += 1;
                return;
            }
        }
        let entry = IndexEntry { site, time, prev: prev.map(|p| p.link()) };
        self.sites[gw].gateway.objects.insert(object, entry);
        self.bump_epoch(object);
        self.replicate_shard(sim, gw, None);

        let new_link = Link { site, time };
        if let Some(p) = prev {
            // M2 — direct (the index stores the source's address).
            let m2 = Msg::SetTo { updates: vec![(object, p.time, new_link)] };
            self.dispatch(sim, gw, self.site_idx(p.site), 1, m2);
        }
        // M3 — direct to the capturing node.
        let m3 = Msg::SetFrom { updates: vec![(object, time, prev.map(|p| p.link()))] };
        self.dispatch(sim, gw, self.site_idx(site), 1, m3);
    }

    /// Group-mode gateway logic — the Fig. 5 `index` algorithm: refresh
    /// what this gateway does not know yet, run the shared
    /// `update_index`, delegate if the shard grew past its threshold.
    fn handle_group_index(
        &mut self,
        sim: &mut Sim<Wire>,
        gw: usize,
        prefix: Prefix,
        site: SiteId,
        members: Vec<(ObjectId, SimTime)>,
    ) {
        let unknown = self.sites[gw].unindexed(prefix, &members);
        if !unknown.is_empty() {
            let mut missing: HashSet<ObjectId> = unknown.into_iter().collect();
            self.refresh_from_ascent(sim, gw, prefix, &mut missing);
            if !missing.is_empty() {
                self.refresh_from_descent(sim, gw, prefix, &mut missing);
            }
        }
        site::update_index(&mut self.host(sim), sid(gw), prefix, site, &members);
        self.maybe_delegate(sim, gw, prefix);
        // One shard replication covers both the index upserts above and
        // any shrink `maybe_delegate` just performed (the delegation
        // receivers replicate their own shards on receipt).
        self.replicate_shard(sim, gw, Some(prefix));
    }

    /// Install one handed-off index entry (shard migration or triangle
    /// delegation), merging with any entry a concurrent index update
    /// created at this gateway while the handoff was in flight — a
    /// handoff can be arbitrarily delayed by loss and retransmission.
    /// The two racing visits are re-threaded into one IOP chain where
    /// possible (late M2/M3 repairs); a conflict that cannot be
    /// reconciled locally is counted as an out-of-order arrival so
    /// exactness-sensitive consumers can back off.
    fn merge_entry(
        &mut self,
        sim: &mut Sim<Wire>,
        gw: usize,
        p: Prefix,
        o: ObjectId,
        e: IndexEntry,
    ) {
        let Some(ex) = self.sites[gw].gateway.shard_mut(p).get(&o).copied() else {
            self.sites[gw].gateway.shard_mut(p).upsert(o, e);
            return;
        };
        if ex.time == e.time {
            // The same visit arrived twice (e.g. a duplicated handoff);
            // keep the richer threading.
            if ex.prev.is_none() && e.prev.is_some() {
                self.sites[gw].gateway.shard_mut(p).upsert(o, e);
            }
            return;
        }
        let handoff_is_newer = ex.time < e.time;
        let (older, newer) = if handoff_is_newer { (ex, e) } else { (e, ex) };
        // When the handoff carries the newer visit, the stored latest
        // link changes content below — cached answers die with it. (The
        // reverse direction only enriches threading; the answer stands.)
        if handoff_is_newer {
            self.bump_epoch(o);
        }
        if newer.prev == Some(older.link()) {
            // Already threaded past the older visit — nothing to repair.
            if handoff_is_newer {
                self.sites[gw].gateway.shard_mut(p).upsert(o, newer);
            }
        } else if newer.prev.is_none() {
            // Thread the older visit in as the newer one's predecessor
            // and repair the repositories' links (late M2/M3).
            let merged = IndexEntry { prev: Some(older.link()), ..newer };
            self.sites[gw].gateway.shard_mut(p).upsert(o, merged);
            let m2 = Msg::SetTo { updates: vec![(o, older.time, newer.link())] };
            self.dispatch(sim, gw, self.site_idx(older.site), 1, m2);
            let m3 = Msg::SetFrom { updates: vec![(o, newer.time, Some(older.link()))] };
            self.dispatch(sim, gw, self.site_idx(newer.site), 1, m3);
        } else {
            // The newer visit already has a different predecessor: the
            // older one belongs somewhere mid-chain. Keep the newer
            // entry and record the reordering.
            if handoff_is_newer {
                self.sites[gw].gateway.shard_mut(p).upsert(o, newer);
            }
            self.anomalies.out_of_order_arrivals += 1;
        }
    }

    /// Fig. 5 `refresh_from_ascent`: walk shorter prefixes (nearest
    /// ancestor first, down to `Lmin`), fetching — *moving* — any index
    /// entries for the missing objects into the local shard.
    fn refresh_from_ascent(
        &mut self,
        sim: &mut Sim<Wire>,
        gw: usize,
        prefix: Prefix,
        missing: &mut HashSet<ObjectId>,
    ) {
        let Some(g) = self.group_config() else { return };
        let mut l = prefix.len();
        while l > g.l_min && !missing.is_empty() {
            l -= 1;
            let p = prefix.truncate(l);
            self.fetch_remote(sim, gw, p, prefix, missing);
        }
    }

    /// Fig. 5 `refresh_from_descent`: recurse into hosted child prefixes
    /// fetching entries for the missing objects.
    fn refresh_from_descent(
        &mut self,
        sim: &mut Sim<Wire>,
        gw: usize,
        prefix: Prefix,
        missing: &mut HashSet<ObjectId>,
    ) {
        self.descend(sim, gw, prefix, prefix, missing);
    }

    fn descend(
        &mut self,
        sim: &mut Sim<Wire>,
        gw: usize,
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
            if !missing.iter().any(|o| child.matches(&o.id())) {
                continue;
            }
            let was_hosted = self.is_hosted(&child);
            self.fetch_remote(sim, gw, child, dest, missing);
            if was_hosted {
                self.descend(sim, gw, child, dest, missing);
            }
        }
    }

    /// One refresh fetch: take matching entries from the shard at
    /// `p`'s gateway into `gw`'s shard for the original prefix, charging
    /// a request/reply pair of `Refresh` messages.
    fn fetch_remote(
        &mut self,
        sim: &mut Sim<Wire>,
        gw: usize,
        p: Prefix,
        dest: Prefix,
        missing: &mut HashSet<ObjectId>,
    ) {
        if !self.is_hosted(&p) {
            return;
        }
        let (owner, hops) = self.route_traced(sim, self.sites[gw].site, p.gateway_id());
        let want: Vec<ObjectId> = missing
            .iter()
            .filter(|o| p.matches(&o.id()))
            .copied()
            .collect();
        if want.is_empty() {
            return;
        }

        // Fault plane: the fetch is a synchronous request/reply RPC, so
        // loss is sampled directly (it never crosses the event queue).
        // Either leg can be lost; with retries enabled the exchange is
        // re-attempted within the configured budget (extra requests are
        // charged as `Retrans`), otherwise a single loss abandons the
        // fetch — the entries stay at the remote shard and the local
        // index goes stale, a genuine fault the auditor can observe.
        if owner != gw && sim.has_faults() {
            let req_bytes = HEADER_BYTES + PREFIX_BYTES + want.len() * OBJECT_ID_BYTES;
            let max_attempts =
                if self.config.retry.enabled { self.config.retry.max_attempts } else { 1 };
            let mut attempt = 1u32;
            let ok = loop {
                let plane = sim.faults_mut().expect("has_faults");
                let lost = plane.sample_loss(gw, owner) || plane.sample_loss(owner, gw);
                if !lost {
                    break true;
                }
                if attempt >= max_attempts {
                    break false;
                }
                attempt += 1;
                sim.metrics_mut().record(MsgClass::Retrans, req_bytes, hops);
            };
            if !ok {
                // The initial request was still transmitted and charged.
                sim.metrics_mut().record(MsgClass::Refresh, req_bytes, hops);
                self.anomalies.refresh_failures += 1;
                return;
            }
        }

        // Take matching entries from the remote shard.
        let mut fetched: Vec<(ObjectId, IndexEntry)> = Vec::new();
        if let Some(shard) = self.sites[owner].gateway.prefixes.get_mut(&p) {
            for o in &want {
                if let Some(e) = shard.take(o) {
                    fetched.push((*o, e));
                }
            }
        }
        if self.sites[owner].gateway.prune_if_empty(&p) {
            self.hosted.remove(&p);
        }

        // Charge request + reply (even when the reply is empty: the
        // gateway could not know without asking).
        if owner != gw {
            let req_bytes = HEADER_BYTES + PREFIX_BYTES + want.len() * OBJECT_ID_BYTES;
            let rep_bytes =
                HEADER_BYTES + fetched.len() * (OBJECT_ID_BYTES + ENTRY_BYTES);
            let m = sim.metrics_mut();
            m.record(MsgClass::Refresh, req_bytes, hops);
            m.record(MsgClass::Refresh, rep_bytes, 1);
        }

        if !fetched.is_empty() {
            // History lands in the shard that requested the refresh.
            self.hosted.insert(dest);
            let shard = self.sites[gw].gateway.shard_mut(dest);
            for (o, e) in &fetched {
                shard.upsert(*o, *e);
                missing.remove(o);
            }
            // The source shard shrank (possibly to nothing); ship the
            // new content to its replica set. The destination shard is
            // replicated once by `handle_group_index` after all
            // refresh fetches land.
            self.replicate_shard(sim, owner, Some(p));
        }
    }

    /// Fig. 5 `update_index` lines 2–4: delegate the earliest `α·count`
    /// records to the two triangle children when the shard exceeds the
    /// configured threshold.
    fn maybe_delegate(&mut self, sim: &mut Sim<Wire>, gw: usize, prefix: Prefix) {
        let Some(g) = self.group_config() else { return };
        let Some(threshold) = g.delegate_threshold else { return };
        if prefix.len() >= ids::prefix::MAX_PREFIX_BITS {
            return;
        }
        let len = self.sites[gw].gateway.shard_mut(prefix).len();
        if len <= threshold {
            return;
        }
        let k = ((g.alpha * len as f64).ceil() as usize).min(len);
        let victims = self.sites[gw].gateway.shard_mut(prefix).take_earliest(k);
        self.sites[gw].gateway.shard_mut(prefix).delegated = true;

        let bit = prefix.len();
        let mut split: [Vec<(ObjectId, IndexEntry)>; 2] = [Vec::new(), Vec::new()];
        for (o, e) in victims {
            split[o.id().bit(bit) as usize].push((o, e));
        }
        for (oneness, entries) in split.into_iter().enumerate() {
            if entries.is_empty() {
                continue;
            }
            let child = prefix.child(oneness == 1);
            self.hosted.insert(child);
            let (owner, hops) = self.route_traced(sim, self.sites[gw].site, child.gateway_id());
            let msg = Msg::Delegate { prefix: child, entries };
            self.dispatch(sim, gw, owner, hops, msg);
        }
    }

    // ------------------------------------------------------------------
    // Lp maintenance: the splitting–merging process (§IV-A.2)
    // ------------------------------------------------------------------

    /// Recompute `Lp` from the ring size; on change, run the eager
    /// splitting/merging migration if configured. Returns the new `Lp`.
    pub fn refresh_lp(&mut self, sim: &mut Sim<Wire>) -> usize {
        let Some(g) = self.group_config() else { return self.current_lp };
        let target = g.scheme.lp_clamped(self.ring.len(), g.l_min);
        if !g.eager_split_merge {
            self.current_lp = target;
            return target;
        }
        while self.current_lp < target {
            let l = self.current_lp;
            self.split_level(sim, l);
            self.current_lp += 1;
        }
        while self.current_lp > target {
            let l = self.current_lp;
            // Children of the old triangles sit one level below the old
            // parents; they migrate up into the (new child) level first.
            self.merge_level(sim, l + 1);
            self.current_lp -= 1;
        }
        target
    }

    /// Push every shard of length `l` down into its two children
    /// ("the data stored in the old parent will all be delegated into
    /// the two new parent nodes which are its child nodes").
    fn split_level(&mut self, sim: &mut Sim<Wire>, l: usize) {
        // Sorted: the shard map iterates in hash order, and dispatch
        // order feeds the latency/fault RNGs — runs must not depend on
        // the process's hasher seed.
        let mut shards: Vec<(usize, Prefix)> = self
            .sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .flat_map(|(i, s)| {
                s.gateway
                    .prefixes
                    .keys()
                    .filter(|p| p.len() == l)
                    .map(move |p| (i, *p))
                    .collect::<Vec<_>>()
            })
            .collect();
        shards.sort();
        for (idx, p) in shards {
            let entries = match self.sites[idx].gateway.prefixes.get_mut(&p) {
                Some(s) => s.drain_all(),
                None => continue,
            };
            self.sites[idx].gateway.prefixes.remove(&p);
            self.hosted.remove(&p);
            self.replicate_shard(sim, idx, Some(p)); // now empty: replicas drop it
            if entries.is_empty() {
                continue;
            }
            let mut split: [Vec<(ObjectId, IndexEntry)>; 2] = [Vec::new(), Vec::new()];
            for (o, e) in entries {
                split[o.id().bit(l) as usize].push((o, e));
            }
            for (oneness, part) in split.into_iter().enumerate() {
                if part.is_empty() {
                    continue;
                }
                let child = p.child(oneness == 1);
                self.hosted.insert(child);
                let (owner, hops) =
                    self.route_traced(sim, self.sites[idx].site, child.gateway_id());
                let msg = Msg::Migrate { prefix: Some(child), entries: part };
                self.dispatch(sim, idx, owner, hops, msg);
            }
        }
    }

    /// Merge every shard of length `l` up into its parent ("the parent
    /// node's two child nodes migrate the data they are indexing to the
    /// parent node").
    fn merge_level(&mut self, sim: &mut Sim<Wire>, l: usize) {
        if l == 0 {
            return;
        }
        // Sorted for hasher-independent dispatch order, as in
        // `split_level`.
        let mut shards: Vec<(usize, Prefix)> = self
            .sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .flat_map(|(i, s)| {
                s.gateway
                    .prefixes
                    .keys()
                    .filter(|p| p.len() == l)
                    .map(move |p| (i, *p))
                    .collect::<Vec<_>>()
            })
            .collect();
        shards.sort();
        for (idx, p) in shards {
            let entries = match self.sites[idx].gateway.prefixes.get_mut(&p) {
                Some(s) => s.drain_all(),
                None => continue,
            };
            self.sites[idx].gateway.prefixes.remove(&p);
            self.hosted.remove(&p);
            self.replicate_shard(sim, idx, Some(p)); // now empty: replicas drop it
            if entries.is_empty() {
                continue;
            }
            let parent = p.parent().expect("l > 0");
            self.hosted.insert(parent);
            let (owner, hops) =
                self.route_traced(sim, self.sites[idx].site, parent.gateway_id());
            let msg = Msg::Migrate { prefix: Some(parent), entries };
            self.dispatch(sim, idx, owner, hops, msg);
        }
    }

    // ------------------------------------------------------------------
    // Churn support (data plane; ring membership handled by `net`)
    // ------------------------------------------------------------------

    /// After a ring change, move every gateway entry/shard whose key the
    /// migration covers from `from_site` to `to_site`, charging
    /// `SplitMerge` traffic (Chord's key handoff).
    pub(crate) fn apply_migration(
        &mut self,
        sim: &mut Sim<Wire>,
        migration: &chord::Migration,
        from_idx: usize,
        to_idx: usize,
    ) {
        // Individual-mode entries move by object id. Sorted so message
        // contents and dispatch order are hasher-independent.
        let mut moved_objects: Vec<ObjectId> = self.sites[from_idx]
            .gateway
            .objects
            .keys()
            .filter(|o| migration.covers(&o.id()))
            .copied()
            .collect();
        moved_objects.sort();
        let mut entries = Vec::with_capacity(moved_objects.len());
        for o in moved_objects {
            let e = self.sites[from_idx].gateway.objects.remove(&o).expect("listed above");
            entries.push((o, e));
        }
        if !entries.is_empty() {
            let msg = Msg::Migrate { prefix: None, entries };
            self.dispatch(sim, from_idx, to_idx, 1, msg);
            self.replicate_shard(sim, from_idx, None);
        }

        // Group-mode shards move whole, by their gateway key; sorted
        // for the same reason as above.
        let mut moved_prefixes: Vec<Prefix> = self.sites[from_idx]
            .gateway
            .prefixes
            .keys()
            .filter(|p| migration.covers(&p.gateway_id()))
            .copied()
            .collect();
        moved_prefixes.sort();
        for p in moved_prefixes {
            let mut shard = self.sites[from_idx]
                .gateway
                .prefixes
                .remove(&p)
                .expect("listed above");
            let entries = shard.drain_all();
            self.replicate_shard(sim, from_idx, Some(p)); // now gone at the source
            if entries.is_empty() {
                continue;
            }
            let msg = Msg::Migrate { prefix: Some(p), entries };
            self.dispatch(sim, from_idx, to_idx, 1, msg);
        }
    }

    /// Recompute the hosted-prefix set from the shards that actually
    /// exist at live sites. Used after a crash: prefixes whose only copy
    /// lived on the dead node must stop attracting refresh fetches.
    pub(crate) fn rebuild_hosted(&mut self) {
        self.hosted = self
            .sites
            .iter()
            .filter(|s| s.alive)
            .flat_map(|s| s.gateway.prefixes.keys().copied())
            .collect();
    }

    /// Total index load per site (objects indexed as gateway) — Fig. 8a.
    pub fn load_distribution(&self) -> Vec<u64> {
        self.sites
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.gateway.load() as u64)
            .collect()
    }

    /// Locates served per live site (cache hits and local answers at
    /// the origin, intermediate/gateway answers at the answering node) —
    /// the query-load hot-shard metric (DESIGN.md §15). Always counted,
    /// caching on or off.
    pub fn query_load(&self) -> Vec<u64> {
        self.sites
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.query_load)
            .collect()
    }

    /// Aggregated locate-cache counters over every site (all zero when
    /// caching is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.sites {
            if let Some(c) = &s.locate_cache {
                let st = c.stats();
                total.hits += st.hits;
                total.misses += st.misses;
                total.stale += st.stale;
                total.insertions += st.insertions;
                total.evictions += st.evictions;
            }
        }
        total
    }

    /// Borrow a shard for inspection (tests, queries).
    pub fn shard(&self, site: SiteId, p: &Prefix) -> Option<&PrefixIndex> {
        self.sites[self.site_idx(site)].gateway.prefixes.get(p)
    }

    // ------------------------------------------------------------------
    // K-successor replication: the host-supplied half (membership,
    // the anti-entropy trigger, inspection). The engine itself is
    // `crate::site`; with `Config.replication.replicas = 1` none of it
    // sends a message, arms a timer or draws an RNG value — committed
    // figure CSVs stay byte-identical.
    // ------------------------------------------------------------------

    fn replication_on(&self) -> bool {
        self.config.replication.enabled()
    }

    /// Live site indices of `idx`'s replica set (its K−1 ring
    /// successors), in ring order. Empty when replication is off.
    fn replica_peer_idxs(&self, idx: usize) -> Vec<usize> {
        let k = self.config.replication.replicas;
        if k <= 1 {
            return Vec::new();
        }
        // `successors_of` of a member id starts with the member itself.
        self.ring
            .successors_of(&self.sites[idx].chord_id, k)
            .into_iter()
            .skip(1)
            .filter_map(|id| self.ring.app_index_of(&id))
            .filter(|&h| h != idx)
            .collect()
    }

    /// Arm the one-shot anti-entropy timer for `idx` unless one is
    /// already pending. Called from every replicated write.
    fn arm_antientropy(&mut self, sim: &mut Sim<Wire>, idx: usize) {
        if self.sites[idx].antientropy_timer.is_some() {
            return;
        }
        let period = self.config.replication.anti_entropy_period;
        let t = sim.set_timer(idx, period, timer_kind(TAG_ANTIENTROPY, idx as u64));
        self.sites[idx].antientropy_timer = Some(t);
    }

    fn replicate_shard(&mut self, sim: &mut Sim<Wire>, idx: usize, prefix: Option<Prefix>) {
        site::replicate_shard(&mut self.host(sim), sid(idx), prefix);
    }

    /// Read a visit record, falling back to replica copies when the
    /// primary site is gone. With `replicas = 1` this is exactly the
    /// primary-only read the seed performed.
    pub fn iop_record(
        &self,
        site: SiteId,
        object: ObjectId,
        arrived: SimTime,
    ) -> Option<IopRecord> {
        let s = &self.sites[self.site_idx(site)];
        if s.alive {
            return s.iop.record_at(object, arrived).copied();
        }
        if !self.replication_on() {
            return None;
        }
        self.sites
            .iter()
            .filter(|h| h.alive)
            .filter_map(|h| h.replica_iop.get(&site))
            .find_map(|st| st.record_at(object, arrived))
            .copied()
    }

    /// The live sites currently holding replica copies for `site`,
    /// in site-index order — the observable holder set the replication
    /// property checks against the ring's ground truth.
    pub fn replica_holders(&self, site: SiteId) -> Vec<SiteId> {
        self.sites
            .iter()
            .filter(|h| h.alive && h.site != site)
            .filter(|h| {
                h.replica_iop.contains_key(&site) || h.replica_gateway.contains_key(&site)
            })
            .map(|h| h.site)
            .collect()
    }

    /// Anti-entropy reconvergence check (the schedule auditor's
    /// post-quiescence invariant): every live primary's current replica
    /// holders hold a byte-identical copy of the primary's canonical
    /// store state. Empty when replication is off or everything
    /// matches. Meaningful only after quiescence on a loss-free plane —
    /// in-flight or dropped `ReplState` deliveries legitimately leave
    /// copies behind until the next write re-arms the digest exchange.
    pub fn replica_divergence(&self) -> Vec<String> {
        if !self.replication_on() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for idx in 0..self.sites.len() {
            if !self.sites[idx].alive {
                continue;
            }
            let want = self.sites[idx].store_state_bytes();
            let primary = self.sites[idx].site;
            for h in self.replica_peer_idxs(idx) {
                if !self.sites[h].alive {
                    continue;
                }
                if self.sites[h].replica_state_bytes(primary) != want {
                    out.push(format!(
                        "replica: holder {} diverges from primary {primary} after quiescence",
                        self.sites[h].site
                    ));
                }
            }
        }
        out
    }

    /// Re-establish the replica placement invariant after a membership
    /// change: every live primary's state is held by exactly its K−1
    /// current ring successors. Each live site settles for itself
    /// ([`site::settle`]) — it knows the new membership from
    /// stabilization.
    pub(crate) fn replica_maintenance(&mut self, sim: &mut Sim<Wire>) {
        for idx in 0..self.sites.len() {
            if self.sites[idx].alive {
                site::settle(&mut self.host(sim), sid(idx));
            }
        }
    }

    /// Failover: the first live successor of a permanently failed
    /// primary inherits its gateway stores ([`site::inherit_gateway`]).
    /// Call after `ring.fail` + stabilization.
    pub(crate) fn promote_dead_primary(&mut self, sim: &mut Sim<Wire>, dead_idx: usize) {
        let dead = self.sites[dead_idx].site;
        let heir = self
            .ring
            .successor_of(&self.sites[dead_idx].chord_id)
            .and_then(|id| self.ring.app_index_of(&id));
        if let Some(heir) = heir {
            site::inherit_gateway(&mut self.host(sim), sid(heir), dead);
        }
        // The heir owns the ranges now; other holders' copies of the
        // dead gateway are stale bootstrap data, not serving state.
        for s in &mut self.sites {
            s.replica_gateway.remove(&dead);
        }
    }
}

fn sid(idx: usize) -> SiteId {
    SiteId(idx as u32)
}

/// The simulator as a [`site::Host`]: the world, which holds every
/// site, plus the engine it sends and arms timers through.
struct Driver<'a> {
    world: &'a mut NetWorld,
    sim: &'a mut Sim<Wire>,
}

impl site::Host for Driver<'_> {
    fn site(&mut self, site: SiteId) -> &mut Site {
        &mut self.world.sites[site.0 as usize].proto
    }

    fn send(&mut self, from: SiteId, to: SiteId, hops: u32, msg: Msg) {
        self.world.send(self.sim, from.0 as usize, to.0 as usize, hops, msg);
    }

    fn deliver(&mut self, to: SiteId, from: SiteId, msg: Msg) {
        self.world.handle(self.sim, to.0 as usize, from.0 as usize, Wire::unsequenced(msg));
    }

    /// Panics on routing failure — the runtime stabilizes after churn,
    /// so lookups always converge.
    fn route(&mut self, from: SiteId, prefix: Prefix) -> Option<(SiteId, u32)> {
        let (owner, hops) = self.world.route_traced(self.sim, from, prefix.gateway_id());
        Some((sid(owner), hops))
    }

    fn lp(&self) -> usize {
        self.world.current_lp
    }

    fn replicas(&self) -> usize {
        self.world.config.replication.replicas
    }

    fn live(&self, site: SiteId) -> bool {
        self.world.sites[site.0 as usize].alive
    }

    fn replica_peers(&self, site: SiteId) -> Vec<SiteId> {
        self.world.replica_peer_idxs(site.0 as usize).into_iter().map(sid).collect()
    }

    /// Any departed site counts as permanently gone once replication is
    /// on; its holders are whoever still has a copy of its repository.
    fn holders_if_dead(&self, site: SiteId) -> Option<Vec<SiteId>> {
        let w = &*self.world;
        if !w.replication_on() || w.sites[site.0 as usize].alive {
            return None;
        }
        Some(
            w.sites
                .iter()
                .filter(|h| h.alive && h.site != site && h.replica_iop.contains_key(&site))
                .map(|h| h.site)
                .collect(),
        )
    }

    fn anomalies_mut(&mut self) -> &mut Anomalies {
        &mut self.world.anomalies
    }

    fn mark_hosted(&mut self, prefix: Prefix) {
        self.world.hosted.insert(prefix);
    }

    fn index_changed(&mut self, object: ObjectId) {
        self.world.bump_epoch(object);
    }

    fn replicated_write(&mut self, site: SiteId) {
        self.world.arm_antientropy(self.sim, site.0 as usize);
    }

    /// Tag the armed `Tmax` timer with the object, so it (and a
    /// count-triggered flush, below) is causally attributable to a
    /// capture.
    fn window_opened(&mut self, site: SiteId, object: ObjectId) {
        let idx = site.0 as usize;
        let Some(g) = self.world.group_config() else { return };
        if self.sim.tracing() {
            self.sim.set_trace_ctx(spans::object_tag(object));
        }
        let t = self.sim.set_timer(idx, g.t_max, timer_kind(TAG_WINDOW, idx as u64));
        self.world.sites[idx].window_timer = Some(t);
    }

    fn window_filled(&mut self, site: SiteId, object: ObjectId) {
        if self.sim.tracing() {
            self.sim.set_trace_ctx(spans::object_tag(object));
        }
        if let Some(t) = self.world.sites[site.0 as usize].window_timer.take() {
            self.sim.cancel_timer(t);
        }
    }
}

impl World<Wire> for NetWorld {
    fn on_message(&mut self, sim: &mut Sim<Wire>, to: NodeIndex, from: NodeIndex, wire: Wire) {
        self.handle(sim, to, from, wire);
    }

    fn on_timer(&mut self, sim: &mut Sim<Wire>, node: NodeIndex, kind: u64) {
        let tag = kind >> TAG_SHIFT;
        let value = kind & ((1 << TAG_SHIFT) - 1);
        match tag {
            TAG_WINDOW => {
                let idx = value as usize;
                debug_assert_eq!(idx, node);
                if !self.sites[idx].alive {
                    return;
                }
                self.sites[idx].window_timer = None;
                let now = sim.now();
                site::flush(&mut self.host(sim), sid(idx), now);
            }
            TAG_CAPTURE => {
                if let Some((site, objects)) = self.pending_captures.remove(&value) {
                    if self.sites[site.0 as usize].alive {
                        self.capture_now(sim, site, &objects);
                    }
                }
            }
            TAG_RETRY => {
                self.handle_retry_timeout(sim, value);
            }
            TAG_ANTIENTROPY => {
                let idx = value as usize;
                debug_assert_eq!(idx, node);
                self.sites[idx].antientropy_timer = None;
                if !self.sites[idx].alive || !self.replication_on() {
                    return;
                }
                site::send_digest(&mut self.host(sim), sid(idx));
            }
            other => panic!("unknown timer tag {other}"),
        }
    }
}
