//! The discrete-event engine.
//!
//! [`Sim`] owns the virtual clock, the event queue, the RNG, the latency
//! model and the [`Metrics`] tally. Protocol state lives entirely in a
//! [`World`] implementation; the engine pops one event at a time and hands
//! it to the world together with `&mut Sim`, so handlers can send further
//! messages, arm timers and read the clock.
//!
//! Determinism: events are ordered by `(time, sequence-number)`, where the
//! sequence number is assigned at scheduling time. Two runs with the same
//! seed and the same workload therefore produce byte-identical metrics —
//! the property that makes the reproduced figures exactly re-runnable.
//!
//! The queue is a plain `BinaryHeap`. The calendar queue
//! ([`crate::calendar`]) is not a drop-in here: it only accepts pushes at
//! or above the time of its last pop, and [`Sim::run_until`] has to look
//! at the next event's time without committing the clock to it — after
//! which a handler may still legally schedule something earlier. The
//! sharded executor ([`crate::shard`]) advances in monotone windows, so
//! the calendar queue serves it and only it.

use crate::fault::{FaultConfig, FaultPlane, FaultStats};
use crate::geoplane::{GeoConfig, GeoPlane};
use crate::latency::{ConstantPerHop, LatencyModel};
use crate::metrics::{Metrics, MsgClass};
use crate::time::SimTime;
use crate::trace::{EventId, SpanId, TraceEvent, TraceKind, TraceSink};
use detrand::{rngs::StdRng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Index of a simulated node (dense, assigned by the application).
pub type NodeIndex = usize;

/// Handle for a cancellable timer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId(u64);

/// Protocol logic driven by the engine.
pub trait World<M> {
    /// A message from `from` has arrived at `to`.
    fn on_message(&mut self, sim: &mut Sim<M>, to: NodeIndex, from: NodeIndex, msg: M);

    /// A timer armed with [`Sim::set_timer`] (or an absolute event from
    /// [`Sim::schedule`]) has fired at `node`. `kind` is the caller's tag.
    fn on_timer(&mut self, sim: &mut Sim<M>, node: NodeIndex, kind: u64);
}

enum EventKind<M> {
    Deliver { to: NodeIndex, from: NodeIndex, msg: M },
    Timer { node: NodeIndex, kind: u64, id: u64 },
}

struct Scheduled<M> {
    time: SimTime,
    seq: u64,
    kind: EventKind<M>,
    /// Trace id of the `Send`/`TimerSet` record that enqueued this
    /// event (0 when tracing is off). Never participates in ordering.
    trace_id: EventId,
    /// Trace context tag captured at scheduling time (0 = untagged).
    ctx: u64,
}

// Order by (time, seq) — BinaryHeap is a max-heap, so wrap in Reverse at
// the call sites. Only time/seq participate in the ordering.
impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Configuration for a simulation run.
pub struct SimConfig {
    /// RNG seed; equal seeds give identical runs.
    pub seed: u64,
    /// Latency model (defaults to the paper's 5 ms/hop).
    pub latency: Box<dyn LatencyModel>,
    /// Optional fault plane (drop/duplicate/jitter/crash). `None` — the
    /// default — keeps the clean delivery path bit-for-bit unchanged:
    /// no extra RNG draws, no extra branches with observable effects.
    pub faults: Option<FaultConfig>,
    /// Optional WAN latency plane (region topology, seeded jitter,
    /// region-cut partitions — see [`crate::geoplane`]). `None` — the
    /// default — or a zero topology keeps runs byte-identical to
    /// pre-geo builds.
    pub geo: Option<GeoConfig>,
    /// Optional trace sink (see [`crate::trace`]). `None` — the default
    /// — keeps the run allocation-free and byte-identical to an
    /// untraced run.
    pub trace: Option<Box<dyn TraceSink>>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC0FFEE,
            latency: Box::new(ConstantPerHop::paper()),
            faults: None,
            geo: None,
            trace: None,
        }
    }
}

impl SimConfig {
    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the latency model.
    pub fn with_latency(mut self, latency: Box<dyn LatencyModel>) -> Self {
        self.latency = latency;
        self
    }

    /// Enable fault injection.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Install a WAN latency plane (region topology + seeded jitter).
    pub fn with_geo(mut self, geo: GeoConfig) -> Self {
        self.geo = Some(geo);
        self
    }

    /// Install a trace sink (causal event records + spans).
    pub fn with_trace(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Build the engine.
    pub fn build<M>(self) -> Sim<M> {
        Sim {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            next_timer: 0,
            cancelled: HashSet::new(),
            rng: StdRng::seed_from_u64(self.seed),
            latency: self.latency,
            metrics: Metrics::new(),
            faults: self.faults.map(FaultPlane::new),
            geo: self.geo.map(GeoPlane::new),
            geo_parked: Vec::new(),
            trace: self.trace,
            next_event_id: 1,
            current_cause: 0,
            trace_ctx: 0,
        }
    }
}

/// The discrete-event simulator.
pub struct Sim<M> {
    now: SimTime,
    queue: BinaryHeap<Reverse<Scheduled<M>>>,
    seq: u64,
    next_timer: u64,
    cancelled: HashSet<u64>,
    rng: StdRng,
    latency: Box<dyn LatencyModel>,
    metrics: Metrics,
    faults: Option<FaultPlane>,
    geo: Option<GeoPlane>,
    /// Deliveries parked mid-flight by a region cut (see
    /// [`Sim::sever_regions`]): seq already assigned, released back
    /// into the queue — in original order — when their pair heals.
    geo_parked: Vec<Scheduled<M>>,
    trace: Option<Box<dyn TraceSink>>,
    /// Next trace-record id; advanced only while a sink is installed.
    next_event_id: EventId,
    /// Trace id of the delivery/firing whose handler is running (0
    /// outside handlers): the cause recorded for sends and timers.
    current_cause: EventId,
    /// Application-attached subject tag copied onto every record until
    /// cleared (see [`Sim::set_trace_ctx`]).
    trace_ctx: u64,
}

impl<M> Sim<M> {
    /// Engine with default configuration (paper latency, fixed seed).
    pub fn new() -> Sim<M> {
        SimConfig::default().build()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events still queued (including lazily cancelled timers).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics, for costs computed outside the event loop
    /// (e.g. a synchronous query path that still wants accounting).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The deterministic RNG.
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Delay the latency model assigns to `hops` overlay hops, advancing
    /// the RNG (stochastic models) deterministically.
    pub fn latency_for(&mut self, hops: u32) -> SimTime {
        self.latency.delay(hops, &mut self.rng)
    }

    /// Send a message: records `class`/`bytes`/`hops` in the metrics and
    /// schedules delivery after the model's delay for `hops` hops.
    ///
    /// `hops` is the number of overlay hops the routing layer reports for
    /// reaching `to` (1 when the sender already knows the target's
    /// address, `O(log N)` for a fresh DHT lookup).
    pub fn send(
        &mut self,
        from: NodeIndex,
        to: NodeIndex,
        class: MsgClass,
        bytes: usize,
        hops: u32,
        msg: M,
    )
    where
        M: Clone,
    {
        self.metrics.record(class, bytes, hops);
        let delay = self.latency.delay(hops, &mut self.rng);
        let mut time = self.now + delay;
        // The geo plane charges its wire cost (and jitter draw, from its
        // own RNG) before the fault plane judges the delivery: distance
        // and loss are independent planes with independent seeds. A
        // severed region pair parks the copies instead of queueing them.
        let mut severed = false;
        if let Some(geo) = self.geo.as_mut() {
            time = time + geo.extra_delay(from, to, bytes);
            severed = geo.sites_severed(from, to);
        }
        if let Some(plane) = self.faults.as_mut() {
            let verdict = plane.judge(from, to);
            if verdict.copies == 0 {
                self.trace_emit(TraceKind::Drop, to, from, Some(class), bytes as u32, hops, time);
                return;
            }
            for copy in 0..verdict.copies {
                let at = time + verdict.extra_delay[copy as usize];
                let trace_id =
                    self.trace_emit(TraceKind::Send, to, from, Some(class), bytes as u32, hops, at);
                self.dispatch(
                    Scheduled {
                        time: at,
                        seq: 0, // filled by dispatch
                        kind: EventKind::Deliver { to, from, msg: msg.clone() },
                        trace_id,
                        ctx: self.trace_ctx,
                    },
                    severed,
                );
            }
            return;
        }
        let trace_id =
            self.trace_emit(TraceKind::Send, to, from, Some(class), bytes as u32, hops, time);
        self.dispatch(
            Scheduled {
                time,
                seq: 0, // filled by dispatch
                kind: EventKind::Deliver { to, from, msg },
                trace_id,
                ctx: self.trace_ctx,
            },
            severed,
        );
    }

    /// Arm a relative timer at `node`, firing after `delay` with tag
    /// `kind`. Returns a handle for [`Sim::cancel_timer`].
    pub fn set_timer(&mut self, node: NodeIndex, delay: SimTime, kind: u64) -> TimerId {
        self.schedule(self.now + delay, node, kind)
    }

    /// Schedule an absolute-time event at `node` (used to inject workload
    /// arrivals). Returns a cancellable handle like a timer.
    pub fn schedule(&mut self, at: SimTime, node: NodeIndex, kind: u64) -> TimerId {
        assert!(at >= self.now, "cannot schedule into the past");
        let id = self.next_timer;
        self.next_timer += 1;
        let trace_id = self.trace_emit(TraceKind::TimerSet, node, node, None, 0, 0, at);
        self.push(Scheduled {
            time: at,
            seq: 0,
            kind: EventKind::Timer { node, kind, id },
            trace_id,
            ctx: self.trace_ctx,
        });
        TimerId(id)
    }

    /// Cancel a pending timer. Cancelling an already-fired timer is a
    /// no-op (lazy cancellation).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.cancelled.insert(id.0);
    }

    /// Is a fault plane configured?
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// The fault plane, if configured (crash injection, RPC loss
    /// sampling, fault parameters).
    pub fn faults_mut(&mut self) -> Option<&mut FaultPlane> {
        self.faults.as_mut()
    }

    /// Fault statistics, if a plane is configured.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|p| *p.stats())
    }

    /// Crash `node` mid-protocol: deliveries to or from it — including
    /// messages already in flight — are discarded from now on. Timers at
    /// the node still fire (the world is expected to ignore events at
    /// nodes it knows are dead). Requires a fault plane; configure one
    /// with [`FaultConfig::none`] if only crashes are wanted.
    pub fn crash_node(&mut self, node: NodeIndex) {
        self.faults
            .as_mut()
            .expect("crash_node requires a fault plane (SimConfig::with_faults)")
            .crash(node);
    }

    fn push(&mut self, mut ev: Scheduled<M>) {
        ev.seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(ev));
    }

    /// Queue a delivery, or park it if its region pair is severed. The
    /// sequence number is assigned either way, so the release order
    /// after a heal is exactly the original send order.
    fn dispatch(&mut self, mut ev: Scheduled<M>, severed: bool) {
        if severed {
            ev.seq = self.seq;
            self.seq += 1;
            self.geo_parked.push(ev);
        } else {
            self.push(ev);
        }
    }

    /// The geo plane, if configured.
    pub fn geo(&self) -> Option<&GeoPlane> {
        self.geo.as_ref()
    }

    /// Per-region-pair traffic counters, if a geo plane is configured.
    pub fn geo_stats(&self) -> Option<&geo::GeoStats> {
        self.geo.as_ref().map(|g| g.stats())
    }

    /// Deliveries currently parked behind a region cut (not counted in
    /// [`Sim::pending`], so a partitioned run still quiesces).
    pub fn parked_deliveries(&self) -> usize {
        self.geo_parked.len()
    }

    /// Sever the (symmetric) link between two regions: from now on,
    /// deliveries whose endpoints straddle the cut are parked — not
    /// dropped — until [`Sim::heal_regions`]. Messages already in
    /// flight when the cut lands still deliver (they left the NIC).
    /// Requires a geo plane.
    pub fn sever_regions(&mut self, a: geo::RegionId, b: geo::RegionId) {
        self.geo
            .as_mut()
            .expect("sever_regions requires a geo plane (SimConfig::with_geo)")
            .sever(a, b);
    }

    /// Heal the link between two regions and release the parked
    /// deliveries for it, in original sequence order, no earlier than
    /// the current clock.
    pub fn heal_regions(&mut self, a: geo::RegionId, b: geo::RegionId) {
        if let Some(g) = self.geo.as_mut() {
            g.heal(a, b);
        }
        self.release_unsevered();
    }

    /// Heal every severed region pair and release everything parked.
    pub fn heal_all_regions(&mut self) {
        if let Some(g) = self.geo.as_mut() {
            g.heal_all();
        }
        self.release_unsevered();
    }

    /// Re-queue parked deliveries whose region pair is no longer
    /// severed. Original sequence numbers are kept, so ties at the
    /// release time replay in send order; delivery times in the past
    /// are clamped to `now` (the partition held the bytes, it did not
    /// reorder them).
    fn release_unsevered(&mut self) {
        if self.geo_parked.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.geo_parked);
        for mut ev in parked {
            let still_severed = match (&ev.kind, self.geo.as_ref()) {
                (EventKind::Deliver { to, from, .. }, Some(g)) => g.sites_severed(*from, *to),
                _ => false,
            };
            if still_severed {
                self.geo_parked.push(ev);
            } else {
                if ev.time < self.now {
                    ev.time = self.now;
                }
                self.queue.push(Reverse(ev));
            }
        }
    }

    /// Hand one record to the sink, if any. Returns the assigned id
    /// (0 with tracing off). Cause and context come from the engine
    /// state at the moment of recording.
    #[allow(clippy::too_many_arguments)]
    fn trace_emit(
        &mut self,
        kind: TraceKind,
        node: NodeIndex,
        peer: NodeIndex,
        class: Option<MsgClass>,
        bytes: u32,
        hops: u32,
        deliver_at: SimTime,
    ) -> EventId {
        let Some(sink) = self.trace.as_mut() else {
            return 0;
        };
        let id = self.next_event_id;
        self.next_event_id += 1;
        sink.on_event(&TraceEvent {
            id,
            cause: self.current_cause,
            kind,
            at: self.now,
            deliver_at,
            node,
            peer,
            class,
            bytes,
            hops,
            ctx: self.trace_ctx,
        });
        id
    }

    /// Like [`Sim::trace_emit`] but for records produced while popping
    /// the queue: the cause is the `Send`/`TimerSet` that enqueued the
    /// event and the context travels with it.
    fn trace_emit_popped(
        &mut self,
        kind: TraceKind,
        node: NodeIndex,
        peer: NodeIndex,
        class: Option<MsgClass>,
        cause: EventId,
        ctx: u64,
    ) -> EventId {
        let Some(sink) = self.trace.as_mut() else {
            return 0;
        };
        let id = self.next_event_id;
        self.next_event_id += 1;
        sink.on_event(&TraceEvent {
            id,
            cause,
            kind,
            at: self.now,
            deliver_at: self.now,
            node,
            peer,
            class,
            bytes: 0,
            hops: 0,
            ctx,
        });
        id
    }

    /// Is a trace sink installed?
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Install a trace sink mid-run (records start at the next event).
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Tag every subsequently recorded event with `ctx` (until
    /// [`Sim::clear_trace_ctx`]). The peertrack layer uses this to mark
    /// single-object operations with a digest of the object id; `0`
    /// means untagged. No-op cheap when tracing is off (one store).
    pub fn set_trace_ctx(&mut self, ctx: u64) {
        self.trace_ctx = ctx;
    }

    /// Clear the context tag set by [`Sim::set_trace_ctx`].
    pub fn clear_trace_ctx(&mut self) {
        self.trace_ctx = 0;
    }

    /// Open an application-level span at `node` (see
    /// `peertrack::spans` for the kind registry). Returns 0 when
    /// tracing is off; [`Sim::span_close`] ignores 0.
    pub fn span_open(&mut self, kind: u32, node: NodeIndex) -> SpanId {
        let (now, cause) = (self.now, self.current_cause);
        match self.trace.as_mut() {
            Some(sink) => sink.span_open(kind, node, now, cause),
            None => 0,
        }
    }

    /// Close a span at the current virtual time.
    pub fn span_close(&mut self, span: SpanId) {
        self.span_close_at(span, self.now);
    }

    /// Close a span at an explicit time — for synchronous operations
    /// (queries) whose simulated duration is computed rather than
    /// played through the event queue.
    pub fn span_close_at(&mut self, span: SpanId, at: SimTime) {
        if span == 0 {
            return;
        }
        if let Some(sink) = self.trace.as_mut() {
            sink.span_close(span, at);
        }
    }

    /// Record the hop path of a DHT lookup (`path` = nodes visited
    /// after the origin, in routing order). No-op when tracing is off;
    /// callers should still gate on [`Sim::tracing`] to avoid building
    /// the path vector for nothing.
    pub fn trace_lookup_path(&mut self, origin: NodeIndex, path: &[NodeIndex]) {
        if self.trace.is_none() {
            return;
        }
        for (i, &node) in path.iter().enumerate() {
            self.trace_emit(TraceKind::LookupHop, node, origin, None, 0, (i + 1) as u32, self.now);
        }
    }

    /// Process one event. Returns `false` when the queue is empty.
    pub fn step<W: World<M>>(&mut self, world: &mut W) -> bool {
        loop {
            let Some(Reverse(ev)) = self.queue.pop() else {
                return false;
            };
            debug_assert!(ev.time >= self.now, "event queue went backwards");
            match ev.kind {
                EventKind::Timer { id, node, kind } => {
                    if self.cancelled.remove(&id) {
                        continue; // skip cancelled, try next event
                    }
                    self.now = ev.time;
                    let fired = self.trace_emit_popped(
                        TraceKind::TimerFired,
                        node,
                        node,
                        None,
                        ev.trace_id,
                        ev.ctx,
                    );
                    self.current_cause = fired;
                    world.on_timer(self, node, kind);
                    self.current_cause = 0;
                }
                EventKind::Deliver { to, from, msg } => {
                    self.now = ev.time;
                    // A crash takes effect immediately: messages already in
                    // flight toward the crashed node are discarded at
                    // delivery time.
                    if let Some(plane) = self.faults.as_mut() {
                        if plane.is_crashed(to) {
                            plane.note_delivery_to_crashed();
                            self.trace_emit_popped(
                                TraceKind::Drop,
                                to,
                                from,
                                None,
                                ev.trace_id,
                                ev.ctx,
                            );
                            continue;
                        }
                    }
                    let delivered = self.trace_emit_popped(
                        TraceKind::Deliver,
                        to,
                        from,
                        None,
                        ev.trace_id,
                        ev.ctx,
                    );
                    self.current_cause = delivered;
                    world.on_message(self, to, from, msg);
                    self.current_cause = 0;
                }
            }
            return true;
        }
    }

    /// Run until no events remain.
    pub fn run_until_quiescent<W: World<M>>(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Run until the clock would pass `deadline` (events at exactly
    /// `deadline` are processed). Remaining events stay queued.
    pub fn run_until<W: World<M>>(&mut self, world: &mut W, deadline: SimTime) {
        loop {
            match self.queue.peek() {
                Some(Reverse(ev)) if ev.time <= deadline => {
                    self.step(world);
                }
                _ => break,
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }
}

impl<M> Default for Sim<M> {
    fn default() -> Self {
        Sim::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::ms;

    #[derive(Default)]
    struct Recorder {
        log: Vec<(u64, String)>,
    }

    impl World<&'static str> for Recorder {
        fn on_message(
            &mut self,
            sim: &mut Sim<&'static str>,
            to: NodeIndex,
            from: NodeIndex,
            msg: &'static str,
        ) {
            self.log.push((sim.now().as_micros(), format!("msg {from}->{to}: {msg}")));
            if msg == "ping" {
                sim.send(to, from, MsgClass::Query, 4, 1, "pong");
            }
        }

        fn on_timer(&mut self, sim: &mut Sim<&'static str>, node: NodeIndex, kind: u64) {
            self.log.push((sim.now().as_micros(), format!("timer {kind} @ {node}")));
        }
    }

    #[test]
    fn message_delivered_after_latency() {
        let mut sim: Sim<&'static str> = SimConfig::default().build();
        let mut w = Recorder::default();
        sim.send(0, 1, MsgClass::Query, 4, 3, "hello"); // 3 hops * 5ms
        sim.run_until_quiescent(&mut w);
        assert_eq!(w.log, vec![(15_000, "msg 0->1: hello".into())]);
        assert_eq!(sim.now(), ms(15));
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim: Sim<&'static str> = SimConfig::default().build();
        let mut w = Recorder::default();
        sim.send(0, 1, MsgClass::Query, 4, 1, "ping");
        sim.run_until_quiescent(&mut w);
        assert_eq!(w.log.len(), 2);
        assert_eq!(w.log[1].0, 10_000); // 5ms out + 5ms back
        assert_eq!(sim.metrics().total_messages(), 2);
        assert_eq!(sim.metrics().total_hops(), 2);
    }

    #[test]
    fn events_fire_in_time_order_with_fifo_ties() {
        let mut sim: Sim<&'static str> = SimConfig::default().build();
        let mut w = Recorder::default();
        sim.set_timer(0, ms(10), 1);
        sim.set_timer(0, ms(5), 2);
        sim.set_timer(0, ms(10), 3); // ties with kind=1; scheduled later
        sim.run_until_quiescent(&mut w);
        let kinds: Vec<_> = w.log.iter().map(|(_, s)| s.clone()).collect();
        assert_eq!(kinds, vec!["timer 2 @ 0", "timer 1 @ 0", "timer 3 @ 0"]);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut sim: Sim<&'static str> = SimConfig::default().build();
        let mut w = Recorder::default();
        let t = sim.set_timer(0, ms(5), 7);
        sim.set_timer(0, ms(6), 8);
        sim.cancel_timer(t);
        sim.run_until_quiescent(&mut w);
        assert_eq!(w.log.len(), 1);
        assert!(w.log[0].1.contains("timer 8"));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim: Sim<&'static str> = SimConfig::default().build();
        let mut w = Recorder::default();
        sim.set_timer(0, ms(5), 1);
        sim.set_timer(0, ms(50), 2);
        sim.run_until(&mut w, ms(10));
        assert_eq!(w.log.len(), 1);
        assert_eq!(sim.now(), ms(10));
        assert_eq!(sim.pending(), 1);
        sim.run_until_quiescent(&mut w);
        assert_eq!(w.log.len(), 2);
    }

    #[test]
    fn schedule_absolute_fires_at_its_instant() {
        let mut sim: Sim<&'static str> = SimConfig::default().build();
        let mut w = Recorder::default();
        sim.schedule(ms(42), 3, 9);
        sim.run_until_quiescent(&mut w);
        assert_eq!(w.log, [(42_000, "timer 9 @ 3".into())]);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut sim: Sim<&'static str> = SimConfig::default().build();
        let mut w = Recorder::default();
        sim.set_timer(0, ms(5), 1);
        sim.run_until_quiescent(&mut w);
        sim.schedule(ms(1), 0, 2);
    }

    #[test]
    fn zero_geo_topology_is_byte_identical_to_no_geo() {
        // The wan byte-identity contract at engine level: installing a
        // single-region zero-latency plane changes nothing — same
        // deliveries, same times, same metrics, no extra RNG draws.
        fn run(with_geo: bool) -> (Vec<(u64, String)>, String) {
            let mut cfg = SimConfig::default()
                .with_latency(Box::new(crate::latency::UniformJitter::new(ms(5), ms(2))));
            if with_geo {
                cfg = cfg.with_geo(GeoConfig::new(9, geo::Topology::single_region(4)));
            }
            let mut sim: Sim<&'static str> = cfg.build();
            let mut w = Recorder::default();
            for i in 0..30 {
                sim.send(i % 4, (i + 1) % 4, MsgClass::Lookup, 8, 1 + (i % 3) as u32, "ping");
            }
            sim.run_until_quiescent(&mut w);
            (w.log, format!("{:?}", sim.metrics()))
        }
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn wan_topology_charges_wire_cost_on_delivery() {
        // Two regions, 10 ms one-way, no jitter: exact arithmetic.
        let t = geo::Topology::new(
            vec![0, 0, 1, 1],
            vec!["a".into(), "b".into()],
            vec![0, 10_000, 10_000, 0],
            vec![0; 4],
            vec![0; 4],
        );
        let mut sim: Sim<&'static str> = SimConfig::default().with_geo(GeoConfig::new(1, t)).build();
        let mut w = Recorder::default();
        sim.send(0, 2, MsgClass::Query, 4, 1, "hello"); // 5 ms hop + 10 ms wire
        sim.send(0, 1, MsgClass::Query, 4, 1, "near"); // intra: 5 ms hop only
        sim.run_until_quiescent(&mut w);
        assert_eq!(
            w.log,
            vec![(5_000, "msg 0->1: near".into()), (15_000, "msg 0->2: hello".into())]
        );
        let stats = sim.geo_stats().unwrap();
        assert_eq!(stats.cross_msgs(), 1);
        assert_eq!(stats.cross_bytes(), 4);
    }

    #[test]
    fn region_cut_parks_and_heal_releases_in_send_order() {
        let t = geo::Topology::new(
            vec![0, 0, 1, 1],
            vec!["a".into(), "b".into()],
            vec![0; 4],
            vec![0; 4],
            vec![0; 4],
        );
        let mut sim: Sim<&'static str> = SimConfig::default().with_geo(GeoConfig::new(1, t)).build();
        let mut w = Recorder::default();
        // In flight before the cut: still delivers ("left the NIC").
        sim.send(0, 2, MsgClass::Query, 4, 1, "in-flight");
        sim.sever_regions(0, 1);
        sim.send(0, 2, MsgClass::Query, 4, 1, "first");
        sim.send(0, 3, MsgClass::Query, 4, 1, "second");
        sim.send(0, 1, MsgClass::Query, 4, 1, "intra");
        sim.run_until_quiescent(&mut w);
        assert_eq!(sim.parked_deliveries(), 2);
        let delivered: Vec<_> = w.log.iter().map(|(_, s)| s.clone()).collect();
        assert_eq!(delivered, vec!["msg 0->2: in-flight", "msg 0->1: intra"]);
        // Partitioned runs still quiesce; the heal releases in order.
        sim.heal_regions(0, 1);
        assert_eq!(sim.parked_deliveries(), 0);
        sim.run_until_quiescent(&mut w);
        let delivered: Vec<_> = w.log.iter().map(|(_, s)| s.clone()).collect();
        assert_eq!(
            delivered,
            vec!["msg 0->2: in-flight", "msg 0->1: intra", "msg 0->2: first", "msg 0->3: second"]
        );
        // Released no earlier than the heal-time clock.
        assert_eq!(w.log[2].0, w.log[1].0.max(5_000));
    }

    #[test]
    fn identical_seeds_identical_runs() {
        fn run(seed: u64) -> Vec<(u64, String)> {
            let mut sim: Sim<&'static str> = SimConfig::default()
                .with_seed(seed)
                .with_latency(Box::new(crate::latency::UniformJitter::new(ms(5), ms(2))))
                .build();
            let mut w = Recorder::default();
            for i in 0..20 {
                sim.send(0, 1, MsgClass::Lookup, 8, 1 + (i % 4), "ping");
            }
            sim.run_until_quiescent(&mut w);
            w.log
        }
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}
