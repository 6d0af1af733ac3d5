//! [`TraceableNetwork`] — the public façade.
//!
//! Bundles the discrete-event engine and the protocol world, and exposes
//! the application-level API: build a network, feed receptor captures,
//! drain the indexing traffic, run MOODS queries with latency/message
//! accounting, and churn nodes in and out.

use crate::config::{Config, IndexingMode, Placement, ReplicationConfig, RetryConfig};
use crate::messages::Wire;
use crate::query::{self, QueryStats};
use crate::spans;
use crate::world::{Anomalies, NetWorld};
use chord::Ring;
use geo::{RegionId, Topology};
use ids::Id;
use moods::{Locate, ObjectId, Path, SiteId, Trace};
use simnet::trace::TraceSink;
use simnet::{
    FaultConfig, FaultStats, GeoConfig, LatencyModel, Metrics, MsgClass, Sim, SimConfig, SimTime,
};

/// Builder for a [`TraceableNetwork`].
pub struct Builder {
    sites: usize,
    config: Config,
    latency: Option<Box<dyn LatencyModel>>,
    faults: Option<FaultConfig>,
    geo: Option<GeoConfig>,
    trace: Option<Box<dyn TraceSink>>,
}

impl Builder {
    /// Start building; configure and finish with [`Builder::build`].
    pub fn new() -> Builder {
        Builder {
            sites: 0,
            config: Config::default(),
            latency: None,
            faults: None,
            geo: None,
            trace: None,
        }
    }

    /// Number of initial sites (`Nn`). Must be at least 1.
    pub fn sites(mut self, n: usize) -> Builder {
        self.sites = n;
        self
    }

    /// RNG seed (node identities, latency jitter).
    pub fn seed(mut self, seed: u64) -> Builder {
        self.config.seed = seed;
        self
    }

    /// Indexing algorithm (§III individual vs §IV group).
    pub fn mode(mut self, mode: IndexingMode) -> Builder {
        self.config.mode = mode;
        self
    }

    /// Replace the latency model (default: the paper's 5 ms/hop).
    pub fn latency(mut self, latency: Box<dyn LatencyModel>) -> Builder {
        self.latency = Some(latency);
        self
    }

    /// Inject link faults (drop/duplicate/jitter) and enable crash
    /// support. The plane has its own seed (see [`FaultConfig`]), so
    /// runs with faults disabled are byte-identical to builds without a
    /// fault plane at all.
    pub fn faults(mut self, faults: FaultConfig) -> Builder {
        self.faults = Some(faults);
        self
    }

    /// Configure the at-least-once delivery layer (acked, sequenced
    /// sends with timeout/retry/backoff). Off by default.
    pub fn retry(mut self, retry: RetryConfig) -> Builder {
        self.config.retry = retry;
        self
    }

    /// Install a WAN topology (DESIGN.md §17): the simulator charges
    /// the topology's per-region-pair wire costs — plus seeded jitter
    /// from the plane's own `detrand` RNG — on every protocol
    /// delivery, and the synchronous query path charges the
    /// deterministic base matrix (never jitter: queries stay RNG-free).
    /// Also enables [`TraceableNetwork::region_cut`]. A zero topology
    /// (e.g. `geo::Topology::single_region`) is a provable no-op: runs
    /// stay byte-identical to builds without a geo plane at all.
    pub fn geo(mut self, geo: GeoConfig) -> Builder {
        self.geo = Some(geo);
        self
    }

    /// Gateway placement policy: `Flat` (default, uniform SHA-1 ring)
    /// or `Proximity` (region-clustered identifier arcs; requires
    /// [`Builder::geo`]). See [`Placement`].
    pub fn placement(mut self, placement: Placement) -> Builder {
        self.config.placement = placement;
        self
    }

    /// Replicate every site's repository and index shards onto its
    /// K−1 Chord successors (`k` = K). `1` — the default — disables
    /// replication entirely: such runs are byte-identical to builds
    /// without a replication layer at all. With `k ≥ 2` the network
    /// supports [`TraceableNetwork::kill_forever`], and locate/trace
    /// answers survive up to `k − 1` permanent losses per key range.
    pub fn replicas(mut self, k: usize) -> Builder {
        self.config.replication = ReplicationConfig::with_replicas(k);
        self
    }

    /// Give every site a locate-answer cache bounded at `capacity`
    /// entries (DESIGN.md §15). Off by default — and the off state is a
    /// provable no-op: no caches are allocated, no epochs tracked, and
    /// every query dispatches exactly as in builds without a caching
    /// layer at all, so committed figure CSVs stay byte-identical.
    /// Cached answers are guarded by per-object movement epochs (any
    /// newer indexed visit kills the entry) and dropped wholesale on
    /// membership change, so enabling the cache never changes a locate
    /// answer — only its cost.
    pub fn locate_cache(mut self, capacity: usize) -> Builder {
        self.config.locate_cache = Some(capacity);
        self
    }

    /// Install a trace sink (e.g. `obs::SharedRecorder`) from the very
    /// first event — construction/warm-up traffic included. For traces
    /// that start clean at time zero, build without one and call
    /// [`TraceableNetwork::set_trace_sink`] instead. Tracing never
    /// changes behaviour: a traced run is byte-identical to an
    /// untraced run with the same seed.
    pub fn trace_sink(mut self, sink: Box<dyn TraceSink>) -> Builder {
        self.trace = Some(sink);
        self
    }

    /// Construct the network: all sites join the Chord ring, the overlay
    /// is stabilized, `Lp` is set from the scheme, and the metrics are
    /// zeroed so measurements start from a warm, converged system (the
    /// paper's OverSim warm-up).
    ///
    /// # Panics
    /// On invalid configuration (zero sites, bad group parameters).
    pub fn build(self) -> TraceableNetwork {
        assert!(self.sites > 0, "a traceable network needs at least one site");
        if let IndexingMode::Group(g) = self.config.mode {
            if let Err(e) = g.validate() {
                panic!("invalid group configuration: {e}");
            }
        }
        if let Err(e) = self.config.retry.validate() {
            panic!("invalid retry configuration: {e}");
        }
        if let Err(e) = self.config.replication.validate() {
            panic!("invalid replication configuration: {e}");
        }
        if self.config.locate_cache == Some(0) {
            panic!("locate cache capacity must be at least 1");
        }
        let n_max = match self.config.mode {
            IndexingMode::Group(g) => g.n_max,
            IndexingMode::Individual => 1024,
        };

        if self.config.placement == Placement::Proximity {
            assert!(
                self.geo.is_some(),
                "Placement::Proximity requires a topology (Builder::geo)"
            );
        }

        let mut sim_cfg = SimConfig::default().with_seed(self.config.seed);
        if let Some(l) = self.latency {
            sim_cfg = sim_cfg.with_latency(l);
        }
        if let Some(f) = self.faults {
            sim_cfg = sim_cfg.with_faults(f);
        }
        let topology = self.geo.as_ref().map(|g| g.topology.clone());
        if let Some(g) = self.geo {
            sim_cfg = sim_cfg.with_geo(g);
        }
        if let Some(t) = self.trace {
            sim_cfg = sim_cfg.with_trace(t);
        }
        let mut sim: Sim<Wire> = sim_cfg.build();
        let mut world = NetWorld::new(self.config);
        world.geo = topology;

        let seed = world.config.seed;
        let mut bootstrap: Option<Id> = None;
        for i in 0..self.sites {
            let chord_id = site_chord_id(seed, i, world.config.placement, world.geo.as_ref());
            match bootstrap {
                None => {
                    world.ring.bootstrap(chord_id, i);
                    bootstrap = Some(chord_id);
                }
                Some(b) => {
                    world
                        .ring
                        .join(b, chord_id, i)
                        .expect("join during bootstrap cannot fail");
                }
            }
            world.push_site(chord_id, n_max);
        }
        world.ring.stabilize_all();
        world.refresh_lp(&mut sim);
        if world.config.replication.enabled() {
            // Establish the initial K-successor placement (the states
            // are empty, but the holder sets must exist from the
            // start so every later write finds its replica set).
            world.replica_maintenance(&mut sim);
            sim.run_until_quiescent(&mut world);
        }
        // Construction traffic is warm-up; measurements start clean.
        sim.metrics_mut().reset();

        TraceableNetwork { sim, world }
    }
}

impl Default for Builder {
    fn default() -> Self {
        Builder::new()
    }
}

/// The one chord-identifier derivation, shared by [`Builder::build`]
/// and [`TraceableNetwork::join_site`] (the daemon mirrors it): the
/// seed's uniform SHA-1 id, optionally forced into the site's region
/// arc under proximity placement. `Flat` — or no topology — reproduces
/// the seed's ids bit for bit.
fn site_chord_id(seed: u64, idx: usize, placement: Placement, topo: Option<&Topology>) -> Id {
    let raw = Id::hash_str(&format!("site-{seed}-{idx}"));
    match (placement, topo) {
        (Placement::Proximity, Some(t)) => geo::clustered_id(raw, t.region_of(idx), t.regions()),
        _ => raw,
    }
}

/// A running traceable network (engine + protocol state).
pub struct TraceableNetwork {
    sim: Sim<Wire>,
    /// The protocol world. Public for inspection by experiments/tests;
    /// mutate only through the façade methods.
    pub world: NetWorld,
}

impl TraceableNetwork {
    /// Start a builder.
    pub fn builder() -> Builder {
        Builder::new()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Accumulated network metrics.
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// Anomaly counters (should stay zero in well-formed runs).
    pub fn anomalies(&self) -> Anomalies {
        self.world.anomalies
    }

    /// Number of live sites (`Nn`).
    pub fn live_sites(&self) -> usize {
        self.world.live_sites()
    }

    /// Current global prefix length `Lp`.
    pub fn current_lp(&self) -> usize {
        self.world.current_lp
    }

    /// The underlying Chord ring (read-only).
    pub fn ring(&self) -> &Ring {
        &self.world.ring
    }

    /// Per-live-site gateway load (indexed objects) — Fig. 8a's metric.
    pub fn load_distribution(&self) -> Vec<u64> {
        self.world.load_distribution()
    }

    /// Locates served per live site — the query-load hot-shard metric
    /// (DESIGN.md §15). Cache hits count at the querying node; uncached
    /// answers count at the node that answered discovery.
    pub fn query_load(&self) -> Vec<u64> {
        self.world.query_load()
    }

    /// Aggregated locate-cache counters (all zero when the network was
    /// built without [`Builder::locate_cache`]).
    pub fn cache_stats(&self) -> qcache::CacheStats {
        self.world.cache_stats()
    }

    /// Fault-plane statistics, if a plane was configured.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.sim.fault_stats()
    }

    /// Per-region-pair traffic the geo plane charged so far (protocol
    /// plane only; query-path WAN costs are reported per query in
    /// [`QueryStats`]). `None` without [`Builder::geo`].
    pub fn geo_stats(&self) -> Option<&geo::GeoStats> {
        self.sim.geo_stats()
    }

    /// Sever the (symmetric) WAN link between two regions: protocol
    /// deliveries that straddle the cut are parked — not dropped — and
    /// released in order by [`TraceableNetwork::region_heal`]. Messages
    /// already in flight still deliver. The synchronous query path is
    /// *not* blocked (a query issued mid-cut still resolves against the
    /// global snapshot); partition-correctness invariants are asserted
    /// after heal + quiesce, where the distinction vanishes. Requires
    /// [`Builder::geo`].
    pub fn region_cut(&mut self, a: RegionId, b: RegionId) {
        self.sim.sever_regions(a, b);
    }

    /// Heal a severed region pair and release its parked traffic.
    pub fn region_heal(&mut self, a: RegionId, b: RegionId) {
        self.sim.heal_regions(a, b);
    }

    /// Heal every severed region pair.
    pub fn region_heal_all(&mut self) {
        self.sim.heal_all_regions();
    }

    /// Protocol deliveries currently parked behind region cuts.
    pub fn parked_deliveries(&self) -> usize {
        self.sim.parked_deliveries()
    }

    /// Install a trace sink now (e.g. `obs::SharedRecorder`), after
    /// construction/warm-up — the trace starts at the current instant.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sim.set_trace_sink(sink);
    }

    /// Is a trace sink installed?
    pub fn tracing(&self) -> bool {
        self.sim.tracing()
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Receptors at `site` captured `objects` now.
    pub fn capture(&mut self, site: SiteId, objects: &[ObjectId]) {
        self.world.capture_now(&mut self.sim, site, objects);
    }

    /// Inject a capture at a future instant (workload replay).
    pub fn schedule_capture(&mut self, at: SimTime, site: SiteId, objects: Vec<ObjectId>) {
        self.world.schedule_capture(&mut self.sim, at, site, objects);
    }

    /// Process events until nothing is in flight (all windows flushed by
    /// their timers, all IOP links threaded).
    pub fn run_until_quiescent(&mut self) {
        // Split borrows: Sim drives, world handles.
        let world = &mut self.world;
        self.sim.run_until_quiescent(world);
    }

    /// Process events up to `deadline` (inclusive).
    pub fn run_until(&mut self, deadline: SimTime) {
        let world = &mut self.world;
        self.sim.run_until(world, deadline);
    }

    // ------------------------------------------------------------------
    // Queries (§IV-B)
    // ------------------------------------------------------------------

    /// `L(o, t)` issued from `from`: where was `object` at `t`?
    /// Returns the answer plus full cost/latency statistics; the traffic
    /// is recorded in the metrics under [`MsgClass::Query`]. When the
    /// network was built with [`Builder::locate_cache`], a live cached
    /// answer short-circuits discovery (the answer itself is always the
    /// one discovery would produce); per-node served-locate counts are
    /// maintained either way — see [`TraceableNetwork::query_load`].
    pub fn locate(
        &mut self,
        from: SiteId,
        object: ObjectId,
        t: SimTime,
    ) -> (Option<SiteId>, QueryStats) {
        let (ans, cost, source, complete) = query::locate_cached(&mut self.world, from, object, t);
        let stats = self.account(spans::QUERY_LOCATE, from, cost, source, complete);
        (ans, stats)
    }

    /// `TR(o, t0, t1)` issued from `from`: the object's path during the
    /// window, with statistics.
    pub fn trace(
        &mut self,
        from: SiteId,
        object: ObjectId,
        t0: SimTime,
        t1: SimTime,
    ) -> (Path, QueryStats) {
        let mut cost = query::QueryCost::default();
        let (path, source, complete) =
            query::trace(&mut &self.world, from, object, t0, t1, &mut cost);
        let stats = self.account(spans::QUERY_TRACE, from, cost, source, complete);
        (path, stats)
    }

    fn account(
        &mut self,
        span_kind: u32,
        from: SiteId,
        cost: query::QueryCost,
        source: query::AnswerSource,
        complete: bool,
    ) -> QueryStats {
        // Hop latency from the model, plus the deterministic WAN wire
        // time the query accumulated (zero without a topology).
        let time =
            self.sim.latency_for(cost.hops as u32) + SimTime::from_micros(cost.wan_us);
        if self.sim.tracing() {
            // Queries resolve against a consistent snapshot rather than
            // by exchanging sim messages, so the span *is* the record:
            // it opens now and closes at now + modelled latency.
            let span = self.sim.span_open(span_kind, from.0 as usize);
            let close_at = self.sim.now() + time;
            self.sim.span_close_at(span, close_at);
        }
        self.sim
            .metrics_mut()
            .record_bulk(MsgClass::Query, cost.messages, cost.bytes, cost.hops);
        QueryStats {
            time,
            messages: cost.messages,
            hops: cost.hops,
            bytes: cost.bytes,
            wan: SimTime::from_micros(cost.wan_us),
            cross_msgs: cost.cross_msgs,
            source,
            complete,
        }
    }

    // ------------------------------------------------------------------
    // Churn
    // ------------------------------------------------------------------

    /// A new organization joins: Chord join, key-range handoff, `Lp`
    /// refresh (with eager split/merge when configured). Returns the new
    /// site's id.
    ///
    /// Drains the event queue before returning so the handoff is
    /// complete — any *scheduled future captures* are processed too, so
    /// interleave joins with workload by alternating `schedule_capture`
    /// / `run_until` / `join_site` phases rather than pre-scheduling
    /// everything.
    pub fn join_site(&mut self) -> SiteId {
        let seed = self.world.config.seed;
        let idx = self.world.sites.len();
        let join_span = self.sim.span_open(spans::OP_JOIN, idx);
        let chord_id =
            site_chord_id(seed, idx, self.world.config.placement, self.world.geo.as_ref());
        let bootstrap = self
            .world
            .sites
            .iter()
            .find(|s| s.alive)
            .map(|s| s.chord_id)
            .expect("cannot join an empty network");

        let n_max = match self.world.config.mode {
            IndexingMode::Group(g) => g.n_max,
            IndexingMode::Individual => 1024,
        };
        let outcome = self
            .world
            .ring
            .join(bootstrap, chord_id, idx)
            .expect("join routing failed");
        self.sim.metrics_mut().record_bulk(
            MsgClass::Overlay,
            outcome.messages,
            outcome.messages * 32,
            outcome.messages,
        );
        let site = self.world.push_site(chord_id, n_max);

        if let Some(m) = outcome.migration {
            let from_idx = self
                .world
                .ring
                .app_index_of(&m.from)
                .expect("migration source is a member");
            self.world.apply_migration(&mut self.sim, &m, from_idx, idx);
        }
        self.world.ring.stabilize_all();
        // Settle the key handoff before recomputing Lp: the migrated
        // shards travel as in-flight messages, and an eager split that
        // runs while they are airborne cannot re-level them — they
        // would land at the old Lp after the rest of the index moved,
        // splitting the object's identity across two triangle levels.
        self.run_until_quiescent();
        let lp_span = self.sim.span_open(spans::OP_LP_REFRESH, idx);
        self.world.refresh_lp(&mut self.sim);
        self.world.clear_locate_caches();
        // The eager split/merge migration also completes before control
        // returns; the traffic it cost stays in the metrics.
        self.run_until_quiescent();
        self.sim.span_close(lp_span);
        self.sim.span_close(join_span);
        self.replica_settle();
        site
    }

    /// An organization leaves gracefully: its open window flushes, its
    /// gateway shards hand off to the successor, its local repository
    /// departs with it (traces through it become incomplete — that is
    /// the price of sovereignty, and tests assert the degradation is
    /// detected via `QueryStats::complete`).
    pub fn leave_site(&mut self, site: SiteId) {
        let idx = site.0 as usize;
        assert!(self.world.sites[idx].alive, "site {site} already left");
        assert!(self.world.live_sites() > 1, "last site cannot leave");
        let leave_span = self.sim.span_open(spans::OP_LEAVE, idx);

        // Flush pending captures so in-flight inventory is indexed
        // (the node is still a ring member right now), then drain all
        // in-flight traffic so nothing targets a dead node mid-delivery.
        self.world.flush_site_window(&mut self.sim, idx);
        self.run_until_quiescent();

        let chord_id = self.world.sites[idx].chord_id;
        let outcome = self.world.ring.leave(chord_id);
        self.sim.metrics_mut().record_bulk(
            MsgClass::Overlay,
            outcome.messages,
            outcome.messages * 32,
            outcome.messages,
        );
        let succ_idx = self
            .world
            .ring
            .app_index_of(&outcome.migration.to)
            .expect("successor is a member");
        // Hand off all hosted index data — everything the node hosts
        // lies in its key range `(pred, id]`, which is exactly the
        // migration Chord reports.
        self.world.apply_migration(&mut self.sim, &outcome.migration, idx, succ_idx);
        // Drain the handoff while the leaver still counts as alive: a
        // graceful departure waits for its migration to be acked, so
        // under link faults the retry layer may retransmit it. Marking
        // the site dead first would silence those retransmissions and
        // lose the shard.
        self.run_until_quiescent();
        self.world.sites[idx].alive = false;
        self.world.ring.stabilize_all();
        let lp_span = self.sim.span_open(spans::OP_LP_REFRESH, idx);
        self.world.refresh_lp(&mut self.sim);
        self.world.clear_locate_caches();
        // Handoff (and any eager merge) completes before control returns.
        self.run_until_quiescent();
        self.sim.span_close(lp_span);
        self.sim.span_close(leave_span);
        self.replica_settle();
    }

    /// An organization crashes mid-protocol: no flush, no handoff.
    /// Messages already in flight to it are discarded by the fault
    /// plane, its window contents and local repository are lost, and
    /// every index entry it hosted as a gateway vanishes — queries for
    /// those objects degrade (and must be *detectably* degraded; the
    /// invariant auditor checks exactly that). The overlay repairs
    /// itself through crash-aware incremental stabilization, whose
    /// convergence is asserted.
    ///
    /// Requires the network to have been built with [`Builder::faults`]
    /// (a no-fault plane via `FaultConfig::none` suffices).
    pub fn crash_site(&mut self, site: SiteId) {
        let idx = site.0 as usize;
        assert!(self.world.sites[idx].alive, "site {site} already gone");
        assert!(self.world.live_sites() > 1, "last site cannot crash");
        assert!(self.sim.has_faults(), "crash_site requires Builder::faults");

        let chord_id = self.world.sites[idx].chord_id;
        self.world.sites[idx].alive = false;
        self.sim.crash_node(idx);
        self.world.ring.fail(chord_id);

        // Crash-aware repair: incremental rounds, convergence asserted
        // within one finger-cursor rotation (see chord::Ring docs).
        let messages = self
            .world
            .ring
            .stabilize_until_converged(ids::ID_BITS + 1)
            .expect("post-crash stabilization must converge");
        self.sim.metrics_mut().record_bulk(
            MsgClass::Overlay,
            messages,
            messages * 32,
            messages,
        );
        self.world.refresh_lp(&mut self.sim);
        self.world.clear_locate_caches();
        // Drain survivors' in-flight traffic (deliveries to the crashed
        // node are discarded by the plane as they surface), then forget
        // hosted prefixes whose only copy died with the node.
        self.run_until_quiescent();
        self.world.rebuild_hosted();
        self.replica_settle();
    }

    /// An organization fails **permanently** — the kill-forever fault
    /// model. Requires the network to have been built with
    /// [`Builder::replicas`] ≥ 2 (and [`Builder::faults`], like
    /// [`crash_site`](TraceableNetwork::crash_site)): the dead site's
    /// repository records stay readable through its successors'
    /// replica copies, and its index ranges fail over to the next
    /// successor. As long as at most K−1 members of any key's replica
    /// set are lost forever, every locate/trace answer remains exactly
    /// what the movement oracle predicts — the schedule auditor's
    /// kill-forever op asserts precisely that.
    ///
    /// The victim's open capture window is flushed and in-flight
    /// traffic drained *before* the kill: a permanent loss erases a
    /// node, not the observations it already published. Compare
    /// [`crash_site`](TraceableNetwork::crash_site), which models the
    /// unreplicated mid-protocol crash and loses both.
    pub fn kill_forever(&mut self, site: SiteId) {
        let idx = site.0 as usize;
        assert!(
            self.world.config.replication.enabled(),
            "kill_forever requires Builder::replicas >= 2"
        );
        assert!(self.sim.has_faults(), "kill_forever requires Builder::faults");
        assert!(self.world.sites[idx].alive, "site {site} already gone");
        assert!(self.world.live_sites() > 1, "last site cannot be killed");

        // Publish what the victim observed: replication protects
        // indexed data, not a window that never flushed.
        self.world.flush_site_window(&mut self.sim, idx);
        self.run_until_quiescent();

        let chord_id = self.world.sites[idx].chord_id;
        self.world.sites[idx].alive = false;
        self.sim.crash_node(idx);
        self.world.ring.fail(chord_id);
        let messages = self
            .world
            .ring
            .stabilize_until_converged(ids::ID_BITS + 1)
            .expect("post-kill stabilization must converge");
        self.sim.metrics_mut().record_bulk(
            MsgClass::Overlay,
            messages,
            messages * 32,
            messages,
        );
        // Failover before the Lp refresh: the heir must serve the dead
        // site's ranges as primary data when split/merge re-levels.
        self.world.promote_dead_primary(&mut self.sim, idx);
        self.world.refresh_lp(&mut self.sim);
        self.world.clear_locate_caches();
        self.run_until_quiescent();
        self.world.rebuild_hosted();
        // Close the replication hole: every live primary's state back
        // onto exactly its K−1 current successors.
        self.replica_settle();
    }

    /// Re-establish the K-successor placement invariant after a
    /// membership change and drain the sync traffic. No-op when
    /// replication is disabled.
    fn replica_settle(&mut self) {
        if !self.world.config.replication.enabled() {
            return;
        }
        self.world.replica_maintenance(&mut self.sim);
        self.run_until_quiescent();
    }
}

impl TraceableNetwork {
    /// A read-only view implementing the MOODS [`Locate`]/[`Trace`]
    /// traits (queries issued from the first live site, no statistics —
    /// use [`TraceableNetwork::locate`]/[`trace`](TraceableNetwork::trace)
    /// for accounted queries).
    ///
    /// A separate view type keeps the trait's `&self` methods from
    /// shadowing the inherent `&mut self` query methods during method
    /// resolution.
    pub fn reader(&self) -> NetReader<'_> {
        NetReader { world: &self.world }
    }
}

/// Read-only MOODS view of a [`TraceableNetwork`].
pub struct NetReader<'a> {
    world: &'a NetWorld,
}

impl NetReader<'_> {
    fn origin(&self) -> SiteId {
        self.world
            .sites
            .iter()
            .find(|s| s.alive)
            .map(|s| s.site)
            .expect("network has live sites")
    }
}

impl Locate for NetReader<'_> {
    fn locate(&self, object: ObjectId, t: SimTime) -> Option<SiteId> {
        let mut cost = query::QueryCost::default();
        query::locate(&mut &*self.world, self.origin(), object, t, &mut cost).0
    }
}

impl Trace for NetReader<'_> {
    fn trace(&self, object: ObjectId, t0: SimTime, t1: SimTime) -> Path {
        let mut cost = query::QueryCost::default();
        query::trace(&mut &*self.world, self.origin(), object, t0, t1, &mut cost).0
    }
}
