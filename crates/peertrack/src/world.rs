//! The simulator's driver around the protocol: every site's state plus
//! the paths only a whole-network host runs.
//!
//! [`NetWorld`] owns all distributed state — the Chord ring and each
//! site's [`Site`] — and implements [`simnet::World`] so the
//! discrete-event engine can drive it. The protocol itself (the §III
//! gateway and M2/M3 link threading, the whole §IV Fig. 5 `index`,
//! capture → window → `GroupIndex`, shard movement, K-successor
//! replication) is [`crate::site`], which this module hosts through
//! [`site::Host`]. What stays here is what only the simulator does:
//!
//! * individual-mode *capture*: each arrival routed to its gateway as
//!   an M1 message;
//! * the sequenced at-least-once delivery layer (acks, retries,
//!   duplicate filter);
//! * the host half of a Fig. 5 refresh fetch: a zero-latency read of
//!   any site's shard, charged as `Refresh` traffic (the figures
//!   measure message volume, not indexing latency, see DESIGN.md);
//! * *when* shards move: the key handoff after a join or leave, and the
//!   §IV-A.2 split or merge of every live site on an `Lp` change;
//! * timers (`Tmax`, scheduled captures, retry, the one-shot
//!   anti-entropy trigger), trace spans and the locate-cache epochs.

use crate::config::{Config, GroupConfig, IndexingMode};
use crate::messages::{Msg, Wire, ENTRY_BYTES, HEADER_BYTES, OBJECT_ID_BYTES, PREFIX_BYTES};
pub use crate::site::Anomalies;
use crate::site::{self, Site};
use crate::spans;
use crate::store::{IndexEntry, IopRecord, Link};
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
    /// Sequence numbers already processed, one bit each: retransmissions
    /// and fault-plane duplicates are acked again but not re-applied —
    /// IOP upserts are not idempotent, so at-least-once delivery plus
    /// this filter gives exactly-once processing. Every copy of a number
    /// goes to the one site it was first sent to, so one set for the
    /// whole network decides what a set per site would.
    seen_seqs: Vec<u64>,
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
            seen_seqs: Vec::new(),
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
            let (word, bit) = ((seq / 64) as usize, 1 << (seq % 64));
            if word >= self.seen_seqs.len() {
                self.seen_seqs.resize(word + 1, 0);
            }
            if self.seen_seqs[word] & bit != 0 {
                self.anomalies.duplicates_suppressed += 1;
                return;
            }
            self.seen_seqs[word] |= bit;
            // First processed copy of this sequence number: the
            // end-to-end message span (opened at dispatch) ends here.
            if !self.pending_spans.is_empty() {
                if let Some(span) = self.pending_spans.remove(&seq) {
                    sim.span_close(span);
                }
            }
        }
        // The one protocol body runs every arm the simulator's mode
        // sends; it hands back nothing a well-formed run produces.
        if let Some(msg) = site::handle(&mut self.host(sim), sid(to), sid(from), msg) {
            unreachable!("{msg:?} does not belong to this indexing mode");
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

    // ------------------------------------------------------------------
    // Lp maintenance: the splitting–merging process (§IV-A.2)
    // ------------------------------------------------------------------

    /// Recompute `Lp` from the ring size; on change, run the eager
    /// splitting/merging migration if configured — one level at a time,
    /// each live site in index order. Returns the new `Lp`.
    pub fn refresh_lp(&mut self, sim: &mut Sim<Wire>) -> usize {
        let Some(g) = self.group_config() else { return self.current_lp };
        let target = g.scheme.lp_clamped(self.ring.len(), g.l_min);
        if !g.eager_split_merge {
            self.current_lp = target;
            return target;
        }
        while self.current_lp < target {
            self.move_at_live_sites(sim, site::Move::Split(self.current_lp));
            self.current_lp += 1;
        }
        while self.current_lp > target {
            // Children of the old triangles sit one level below the old
            // parents; they migrate up into the (new child) level first.
            self.move_at_live_sites(sim, site::Move::Merge(self.current_lp + 1));
            self.current_lp -= 1;
        }
        target
    }

    fn move_at_live_sites(&mut self, sim: &mut Sim<Wire>, mv: site::Move) {
        for idx in 0..self.sites.len() {
            if self.sites[idx].alive {
                site::move_shards(&mut self.host(sim), sid(idx), mv);
            }
        }
    }

    // ------------------------------------------------------------------
    // Churn support (data plane; ring membership handled by `net`)
    // ------------------------------------------------------------------

    /// After a ring change, `idx` hands every shard whose key it no
    /// longer owns to the key's owner, charging `SplitMerge` traffic
    /// (Chord's key handoff).
    pub(crate) fn hand_off(&mut self, sim: &mut Sim<Wire>, idx: usize) {
        site::move_shards(&mut self.host(sim), sid(idx), site::Move::Handoff);
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
        let (dead, dead_chord) = (self.sites[dead_idx].site, self.sites[dead_idx].chord_id);
        let mut host = self.host(sim);
        let heir = site::Host::owner(&host, dead_chord);
        site::inherit_gateway(&mut host, heir, dead);
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

    fn group(&self) -> Option<GroupConfig> {
        self.world.group_config()
    }

    /// A zero-latency request/reply RPC to the shard's gateway, whoever
    /// that is: charged as a `Refresh` pair, with loss sampled directly
    /// (it never crosses the event queue).
    fn fetch(
        &mut self,
        gw: SiteId,
        p: Prefix,
        missing: &HashSet<ObjectId>,
    ) -> Option<Vec<(ObjectId, IndexEntry)>> {
        let (w, sim) = (&mut *self.world, &mut *self.sim);
        if !w.is_hosted(&p) {
            return None;
        }
        let (owner, hops) = w.route_traced(sim, gw, p.gateway_id());
        let want: Vec<ObjectId> = missing.iter().filter(|o| p.matches(&o.id())).copied().collect();
        if want.is_empty() {
            return Some(Vec::new());
        }
        let gw = gw.0 as usize;
        let req_bytes = HEADER_BYTES + PREFIX_BYTES + want.len() * OBJECT_ID_BYTES;

        // Either leg can be lost; with retries enabled the exchange is
        // re-attempted within the configured budget (extra requests are
        // charged as `Retrans`), otherwise a single loss abandons the
        // fetch — the entries stay at the remote shard and the local
        // index goes stale, a genuine fault the auditor can observe.
        if owner != gw && sim.has_faults() {
            let max_attempts = if w.config.retry.enabled { w.config.retry.max_attempts } else { 1 };
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
                w.anomalies.refresh_failures += 1;
                return Some(Vec::new());
            }
        }

        let (fetched, pruned) = w.sites[owner].gateway.take_from(&p, &want);
        if pruned {
            w.hosted.remove(&p);
        }
        // Charge request + reply (even when the reply is empty: the
        // gateway could not know without asking).
        if owner != gw {
            let rep_bytes = HEADER_BYTES + fetched.len() * (OBJECT_ID_BYTES + ENTRY_BYTES);
            let m = sim.metrics_mut();
            m.record(MsgClass::Refresh, req_bytes, hops);
            m.record(MsgClass::Refresh, rep_bytes, 1);
        }
        if !fetched.is_empty() {
            // The source shard shrank, possibly to nothing.
            site::replicate_shard(self, sid(owner), Some(p));
        }
        Some(fetched)
    }

    fn owner(&self, key: Id) -> SiteId {
        let owner = self.world.ring.successor_of(&key).expect("the ring has members");
        sid(self.world.ring.app_index_of(&owner).expect("owner is a member"))
    }

    fn mark_hosted(&mut self, prefix: Prefix) {
        self.world.hosted.insert(prefix);
    }

    fn unmark_hosted(&mut self, prefix: Prefix) {
        self.world.hosted.remove(&prefix);
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
