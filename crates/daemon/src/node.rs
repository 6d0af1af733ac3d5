//! One PeerTrack/Chord node served over real sockets.
//!
//! [`Node::spawn`] binds a listener and runs a single-threaded engine
//! that owns this site's slice of the state the simulator's `NetWorld`
//! keeps globally: the Chord routing replica and one
//! [`peertrack::site::Site`] — capture window, IOP repository, gateway
//! shards, replica copies. The write plane that advances it is not
//! implemented here: [`Core`] is a [`peertrack::site::Host`], the same
//! protocol body the simulator hosts — shard movement included, so a
//! member that joins a cluster already holding data is handed its key
//! ranges and every node re-levels its shards when `Lp` grows — and
//! keeps only its driver: the log-record vocabulary, the delivery rule
//! below, model-cost charging, and the `unsupported` counter for what
//! falls outside the daemon's regime — delegation, an `Arrival` (group
//! mode only), a sequence gap, undecodable input, and a gateway read
//! that misses while this node holds a shard on the object's path at
//! another length. The Fig. 5 refresh walk runs here too, but fetches
//! only from shards this node holds. The engine is a
//! readiness-driven event loop over nonblocking sockets
//! ([`transport::nio`], std-only): each pump drains whatever bytes the
//! kernel has per connection, decodes as many whole frames as arrived
//! (many requests in flight per connection), processes them strictly
//! serially — every state transition as atomic as the simulator's event
//! handlers — and then *commits the batch*: one WAL fsync covering
//! every record the pump logged, after which (and never before) the
//! batch's responses are released to their connections' write buffers;
//! a read-only batch logged nothing and releases them at once. With
//! nothing to do it blocks until a socket it would read is readable
//! (no poll(2) without libc: one watcher thread per socket rings its
//! doorbell). DESIGN.md §14 specifies the loop.
//!
//! **Core/engine split.** Since the durability work the node is two
//! layers. [`Core`] is the deterministic state machine: it holds every
//! replicated field and advances *only* through
//! [`Core::apply_record`], whose input vocabulary
//! ([`crate::state::WalRecord`]) is exactly what the write-ahead log
//! stores. Outbound protocol messages leave the core through an
//! `outbox` rather than a socket, so the same `apply` call serves both
//! live execution (the engine writes them to TCP) and crash recovery
//! (replay drops the outbox, and the engine resends whatever the
//! peers have not acknowledged). [`Engine`] owns everything a replay
//! must not touch: the listener, the links to peers, the wall-clock
//! latency recorder and the [`durable::DataDir`]. Its single write
//! path is `log_apply`: append to the WAL, then apply — state is never
//! mutated by an event the log does not hold.
//!
//! **Accounting bridge.** The engine charges the *model* cost the
//! simulator would charge — `Msg::wire_size()` bytes (not encoded frame
//! length), overlay hops from the Chord lookup, one message per
//! protocol send, queries bulk-charged at the origin — into its own
//! [`simnet::metrics::Metrics`]. Self-sends are handled inline and
//! uncharged (`peertrack::site::dispatch`, for both hosts). Merging
//! every node's metrics therefore reproduces the simulator's global
//! tally for the same workload (asserted over sockets by
//! `tests/tests/cluster_parity.rs`, without them by `site_parity.rs`).
//! Like the anomaly counters, the tallies are volatile: never logged.
//!
//! **Queries.** `locate`/`trace` are not implemented here: the engine
//! is a [`RecordSource`] and `peertrack::query`, the simulator's own
//! planner, runs over it. A site is asked one thing about the query's
//! object, [`Frame::Holdings`]: its visit history (or its replica
//! copy's, for a dead primary) and its index entry, answered from the
//! local stores or by one request frame to that site. The planner
//! derives every view it walks by from the history. The serving side is
//! `Core::serve_read`, shared by the frame handler and the engine's
//! local reads.
//!
//! **Routing.** Both planes route on the local ring replica
//! ([`Core::lookup`]): every node rebuilds the same full-membership
//! ring from the sorted member list, so owner, hops and path equal the
//! simulator's single ring without asking a peer.
//!
//! **One delivery rule.** A message to a peer takes that peer's next
//! sequence number and stays in its unacked suffix until a cumulative
//! `Msg::Ack` — logged like any protocol record — trims it; a receiver
//! keeps one watermark per sender. Replay rebuilds the suffix, so a
//! crash at any instant loses nothing (DESIGN.md §9, §11).
//!
//! **One link per peer.** Everything the engine sends a peer — protocol
//! frames, acks, the join fan-out, read requests — is queued on that
//! peer's one nonblocking connection. Only read requests are answered,
//! in arrival order, so replies match the link's waiters first-in
//! first-out. A link is dialed with one bounded connect, no retry and
//! no sleep: an unreachable peer is marked down (its messages are held,
//! a read answers "no answer"), never costing the engine.
//!
//! **In-flight queries.** No handler waits: a `Locate`/`Trace` is a
//! table entry holding its *read log* — `(site, request) → reply`, so
//! at most one request per site and copy — and the planner is run from
//! the top against it, replaying logged reads and serving (and logging)
//! local ones. The first remote read the log lacks is sent on that
//! peer's link and the query parks, its client connection's inbox
//! suspended so responses keep request order. When the reply — or the
//! link's death, or `RPC_DEADLINE` — arrives in the ordinary intake it
//! is appended and the planner re-run; only the run that finishes
//! touches the cache, the load tally, the metrics or the client.
//!
//! **Virtual time.** There are no `Tmax` timers off-sim: the driver
//! carries explicit virtual instants ([`Frame::Capture`]`.at`) and
//! closes windows with [`Frame::Flush`]`{now}` when the simulator's
//! timer would have fired. Wall-clock exists only in the latency
//! histograms ([`obs::Recorder::record_latency`]).

use crate::proto::Frame;
use crate::state::WalRecord;
use chord::{LookupResult, Ring};
use durable::{DataDir, FsyncMode};
use ids::{Id, Prefix};
use moods::{ObjectId, Path, SiteId};
use obs::Recorder;
use peertrack::config::GroupConfig;
use peertrack::messages::{Msg, Wire};
use peertrack::query::{self, Incomplete, QueryCost, RecordSource};
use peertrack::schema::History;
use peertrack::site::{self, Anomalies, Move, Site};
use peertrack::store::{IndexEntry, IopRecord, Link};
use qcache::LocateCache;
use simnet::metrics::{Metrics, MsgClass};
use simnet::SimTime;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use transport::{Backoff, Doorbell, NbConn, NbListener};

/// The ring identity of a site, matching the simulator's derivation
/// (`peertrack::net::Builder`) so lookups hash identically.
pub fn chord_id_for(seed: u64, site: SiteId) -> Id {
    let i = site.0 as usize;
    Id::hash_str(&format!("site-{seed}-{i}"))
}

/// Wall clock in µs since the Unix epoch (latency envelopes only —
/// never used for protocol decisions).
fn wall_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Default snapshot cadence: install a snapshot and truncate the log
/// every this many WAL records.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 256;

/// Static configuration of one daemon node.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// This site's id (also its Chord `app_index`).
    pub site: SiteId,
    /// Cluster-wide seed: determines every site's ring identity.
    pub seed: u64,
    /// Group-indexing parameters. The daemon supports the paper's
    /// experiment regime: group mode, `Lp` from the known membership
    /// count.
    pub group: GroupConfig,
    /// Listen address, e.g. `"127.0.0.1:0"` for an ephemeral port.
    pub listen: String,
    /// Existing member to join through (`None` = this node bootstraps
    /// the cluster).
    pub bootstrap: Option<SocketAddr>,
    /// Durable state directory. `None` (the default everywhere) keeps
    /// the node fully in-memory — the pre-durability behaviour.
    pub data_dir: Option<PathBuf>,
    /// WAL fsync policy; meaningful only with `data_dir`.
    pub fsync: FsyncMode,
    /// Install a snapshot (and compact the WAL) every this many logged
    /// records; meaningful only with `data_dir`.
    pub snapshot_every: u64,
    /// Replication factor `K`: every site's IOP repository and gateway
    /// shards are copied onto its `K−1` ring successors, and the
    /// cluster survives up to `K−1` permanent losses with oracle-exact
    /// queries. `1` (the default) disables replication entirely — the
    /// pre-replication behaviour, byte-identical state encodings
    /// included. Must match across the cluster, like `seed`.
    pub replicas: usize,
    /// Locate-answer cache capacity (DESIGN.md §15). `None` (the
    /// default) disables the cache entirely. The cache is engine-side
    /// volatile state: excluded from the canonical state encoding and
    /// from snapshots, rebuilt cold after a restart. Unlike `replicas`
    /// it is per-node — nodes with different capacities interoperate.
    pub locate_cache: Option<usize>,
    /// WAN region topology (DESIGN.md §17). `None` (the default) is the
    /// flat pre-geo behaviour. With a topology, the node derives its
    /// region from its site id and honors
    /// [`Frame::RegionCut`]/[`Frame::RegionHeal`] by holding protocol
    /// messages across severed pairs; that is all it is used for.
    /// Engine-side network-plane state: never logged, never in the
    /// canonical state encoding. Must agree across the cluster, like
    /// `seed`.
    pub geo: Option<geo::Topology>,
}

impl NodeConfig {
    /// Loopback config with an ephemeral port (in-memory).
    pub fn loopback(site: SiteId, seed: u64, bootstrap: Option<SocketAddr>) -> NodeConfig {
        NodeConfig {
            site,
            seed,
            group: GroupConfig::default(),
            listen: "127.0.0.1:0".to_string(),
            bootstrap,
            data_dir: None,
            fsync: FsyncMode::Never,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            replicas: 1,
            locate_cache: None,
            geo: None,
        }
    }
}

/// Everything a node hands back when it shuts down.
pub struct NodeReport {
    /// The site that ran.
    pub site: SiteId,
    /// Model accounting of this process's traffic (merge crash-free
    /// nodes' to compare with the simulator's global tally).
    pub metrics: Metrics,
    /// Protocol anomaly counters since process start (all zero in a
    /// clean run).
    pub anomalies: Anomalies,
    /// Protocol situations the daemon does not implement (delegation,
    /// individual mode, a read miss beside another level) and input it
    /// cannot apply; zero within the supported regime — the parity test
    /// asserts it.
    pub unsupported: u64,
    /// Wall-clock delivery-latency histograms per message class, plus
    /// origin-side query latencies under [`MsgClass::Query`].
    pub recorder: Recorder,
    /// Protocol messages sequenced for other nodes.
    pub sent: u64,
    /// Protocol messages from other nodes applied.
    pub received: u64,
    /// Unacknowledged messages to reachable peers at exit.
    pub in_flight: u64,
    /// Unacknowledged messages held back at exit: the peer is across a
    /// region cut or down since a failed dial.
    pub held: u64,
    /// Times a connection crossed the bounded-outbox limit
    /// ([`OUTBOX_LIMIT_BYTES`]) and was parked — reads and request
    /// processing suspended until the client drained its responses.
    /// Zero unless some client stopped reading what it asked for.
    pub backpressure_parks: u64,
}

/// A running node: its address plus the engine thread's handle.
pub struct Node {
    site: SiteId,
    addr: SocketAddr,
    engine: Option<JoinHandle<Option<NodeReport>>>,
}

impl Node {
    /// Bind the listener, recover durable state (if a data dir is
    /// configured), join through the bootstrap peer (if any) and start
    /// the engine thread. Recovery failures — an unreadable data dir, a
    /// corrupt snapshot — and a join the bootstrap does not answer with
    /// the membership fail the spawn loudly rather than starting a node
    /// with fabricated state.
    pub fn spawn(cfg: NodeConfig) -> io::Result<Node> {
        let site = cfg.site;
        // The engine thread starts first, then waits for its engine:
        // glibc hands each new thread a malloc arena, and a crashed
        // engine's arena should go to its successor, not to a helper
        // thread `Engine::new` starts (`transport::Doorbell`).
        let (give, take) = sync_channel::<Engine>(1);
        let started = Arc::new(Barrier::new(2));
        let go = Arc::clone(&started);
        let handle = std::thread::Builder::new()
            .name(format!("peertrackd-{}", site.0))
            .spawn(move || {
                go.wait();
                take.recv().ok().map(Engine::run)
            })?;
        started.wait();
        let engine = match Engine::new(cfg) {
            Ok(engine) => engine,
            Err(e) => {
                drop(give); // ends the engine thread's wait
                let _ = handle.join();
                return Err(e);
            }
        };
        let addr = engine.addr;
        let _ = give.send(engine);
        Ok(Node { site, addr, engine: Some(handle) })
    }

    /// The site this node serves.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The bound listener address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the engine to exit (send [`Frame::Shutdown`] or
    /// [`Frame::Crash`] first) and collect its report.
    pub fn join(mut self) -> NodeReport {
        self.engine
            .take()
            .expect("join called once")
            .join()
            .expect("engine thread panicked")
            .expect("spawn handed the engine over")
    }
}

/// A protocol message the core wants delivered: a sequenced message,
/// already charged and kept in its peer's unacked suffix, or an
/// uncharged, unsequenced ack.
#[derive(Clone, Debug)]
pub struct Outbound {
    /// Destination site.
    pub to: SiteId,
    /// Model overlay hops charged for this delivery.
    pub hops: u32,
    /// Sequenced protocol payload.
    pub wire: Wire,
}

/// The delivery state between this node and one peer.
#[derive(Clone, Debug, Default)]
pub(crate) struct Channel {
    /// Number of the last message sequenced for the peer.
    pub(crate) sent: u64,
    /// Watermark: the peer's messages up to this number are applied.
    pub(crate) received: u64,
    /// Messages the peer has not acknowledged, in sequence order.
    pub(crate) unacked: VecDeque<Outbound>,
}

/// The deterministic half of a node: every field that must survive a
/// crash, advanced only by [`Core::apply_record`], plus the volatile
/// `metrics` and `anomalies` tallies its handlers bump. No sockets, no
/// clocks, no filesystem — the same struct runs live under the engine
/// and offline under WAL replay, and `tests/tests/crash_recovery.rs`
/// holds the two byte-identical.
pub struct Core {
    pub(crate) site: SiteId,
    pub(crate) seed: u64,
    pub(crate) group: GroupConfig,
    /// Site → listener address, self included. Sorted iteration keeps
    /// ring rebuilds deterministic.
    pub(crate) members: BTreeMap<SiteId, SocketAddr>,
    pub(crate) ring: Ring,
    pub(crate) lp: usize,
    /// This site's protocol state — window, IOP repository, gateway
    /// shards, replica copies — advanced by [`peertrack::site`].
    pub(crate) proto: Site,
    pub(crate) metrics: Metrics,
    /// The delivery rule's state per peer: O(members), never per message.
    pub(crate) peers: BTreeMap<SiteId, Channel>,
    pub(crate) anomalies: Anomalies,
    /// Diagnostic only: bumped by un-logged read-side probes too, so it
    /// is deliberately *excluded* from the canonical state encoding.
    pub(crate) unsupported: u64,
    /// Messages produced by the last `apply_record`, awaiting delivery.
    pub(crate) outbox: Vec<Outbound>,
    /// Replication factor `K` (config, not logged state — it must match
    /// across the cluster and across restarts, like `seed`). `1`
    /// disables every replication path below.
    pub(crate) replicas: usize,
    /// Sites declared permanently dead ([`WalRecord::Dead`]); never
    /// rejoin, and IOP updates aimed at them are redirected to their
    /// replica holders.
    pub(crate) dead: BTreeSet<SiteId>,
}

impl Core {
    /// Fresh state for `site`: a one-member ring of itself. `group` must
    /// pass [`GroupConfig::validate`] and split eagerly
    /// (`eager_split_merge`): the gateway read looks at the `Lp` shard
    /// only, so a lazily re-levelled index would strand entries.
    /// [`Node::spawn`] refuses any other configuration.
    pub fn new(site: SiteId, seed: u64, group: GroupConfig, addr: SocketAddr) -> Core {
        let mut members = BTreeMap::new();
        members.insert(site, addr);
        let mut c = Core {
            site,
            seed,
            group,
            members,
            ring: Ring::new(),
            lp: group.l_min,
            proto: Site::new(site, group.n_max),
            metrics: Metrics::new(),
            peers: BTreeMap::new(),
            anomalies: Anomalies::default(),
            unsupported: 0,
            outbox: Vec::new(),
            replicas: 1,
            dead: BTreeSet::new(),
        };
        c.rebuild_ring();
        c
    }

    /// Set the replication factor `K` ([`NodeConfig::replicas`]).
    pub fn with_replicas(mut self, k: usize) -> Core {
        self.replicas = k.max(1);
        self
    }

    /// This site's protocol state (read-only: it advances only through
    /// [`Core::apply_record`]).
    pub fn proto(&self) -> &Site {
        &self.proto
    }

    /// Model accounting so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Protocol anomaly counters so far.
    pub fn anomalies(&self) -> Anomalies {
        self.anomalies
    }

    /// Protocol situations met so far that the daemon does not
    /// implement ([`NodeReport::unsupported`]).
    pub fn unsupported(&self) -> u64 {
        self.unsupported
    }

    /// Apply one logged event. This is the node's *only* state-mutating
    /// entry point; everything it emits lands in the outbox.
    pub fn apply_record(&mut self, rec: &WalRecord) {
        match rec {
            WalRecord::Member { site, addr } => {
                if self.dead.contains(site) {
                    return; // kill-forever: a dead site never rejoins
                }
                if let Ok(a) = addr.parse() {
                    self.members.insert(*site, a);
                    self.on_ring_change();
                }
            }
            WalRecord::Capture { at, objects } => site::capture(self, self.site, objects, *at),
            WalRecord::Flush { now } => self.on_flush(*now),
            WalRecord::Protocol { sender, wire } => self.on_protocol(*sender, wire),
            // Retired: logs written before reads left the disk still
            // hold it, and it changes no protocol state.
            WalRecord::Query { .. } => {}
            WalRecord::Dead { site } => self.on_dead(*site),
        }
    }

    /// Apply during recovery: identical transition, but the outbox is
    /// discarded — what it held is still in the unacked suffix, which
    /// the engine writes once recovery is done.
    pub fn replay(&mut self, rec: &WalRecord) {
        self.apply_record(rec);
        self.outbox.clear();
    }

    /// Drain the messages the last apply produced.
    pub fn take_outbox(&mut self) -> Vec<Outbound> {
        std::mem::take(&mut self.outbox)
    }

    /// Messages sequenced for `to` that it has not acknowledged, oldest
    /// first.
    pub fn unacked(&self, to: SiteId) -> impl Iterator<Item = &Outbound> {
        self.peers.get(&to).into_iter().flat_map(|c| &c.unacked)
    }

    /// The cumulative ack of everything applied from `peer`, if anything.
    pub fn ack_for(&self, peer: SiteId) -> Option<Outbound> {
        let acked = self.peers.get(&peer).map_or(0, |c| c.received);
        let wire = Wire { seq: 0, msg: Msg::Ack { acked } };
        (acked > 0).then_some(Outbound { to: peer, hops: 0, wire })
    }

    /// Protocol messages sequenced for other nodes so far.
    pub fn sent(&self) -> u64 {
        self.peers.values().map(|c| c.sent).sum()
    }

    /// Protocol messages from other nodes applied so far.
    pub fn received(&self) -> u64 {
        self.peers.values().map(|c| c.received).sum()
    }

    /// Rebuild the local ring replica from the sorted membership,
    /// exactly like the simulator's builder: the lowest site bootstraps,
    /// the rest join ascending, then full stabilization. Every node
    /// derives the identical ring, and `Lp` follows the membership
    /// count.
    pub(crate) fn rebuild_ring(&mut self) {
        let mut ring = Ring::new();
        let sites: Vec<SiteId> = self.members.keys().copied().collect();
        let ids: Vec<Id> = sites.iter().map(|s| chord_id_for(self.seed, *s)).collect();
        ring.bootstrap(ids[0], sites[0].0 as usize);
        for (k, s) in sites.iter().enumerate().skip(1) {
            ring.join(ids[0], ids[k], s.0 as usize).expect("replica join");
        }
        ring.stabilize_all();
        self.ring = ring;
        // `Lp` is clamped against the *ever-joined* count (live members
        // plus permanent deaths), so it grows as members join but never
        // shrinks when one dies. The simulator re-clamps on the live
        // count and merges; a merge leaves entries one level below the
        // new `Lp`, where only the simulator's triangle search looks, so
        // after a permanent loss the daemon keeps the finer granularity
        // instead. Both inputs are in the canonical state, so live nodes
        // and snapshot-recovered ones derive the same value and routing
        // stays agreed.
        self.lp = self
            .group
            .scheme
            .lp_clamped(self.ring.len() + self.dead.len(), self.group.l_min);
    }

    /// A member joined (or moved to a new address): rebuild the ring,
    /// hand off the shards whose keys it now owns, re-level the rest if
    /// `Lp` grew — the simulator's post-join `refresh_lp`, one site's
    /// share of it — and re-establish replica placement.
    fn on_ring_change(&mut self) {
        let (me, old_lp) = (self.site, self.lp);
        self.rebuild_ring();
        site::move_shards(self, me, Move::Handoff);
        for l in old_lp..self.lp {
            site::move_shards(self, me, Move::Split(l));
        }
        site::settle(self, me);
    }

    fn my_chord_id(&self) -> Id {
        chord_id_for(self.seed, self.site)
    }

    /// The site behind a ring id. Every caller passes an id that
    /// [`Core::lookup`] just read out of `self.ring` — never one a peer
    /// supplied — which is what makes the `expect` sound.
    fn site_of_chord(&self, id: &Id) -> SiteId {
        SiteId(self.ring.app_index_of(id).expect("ring member") as u32)
    }

    /// The Chord lookup of `key` from this node, walked on the local
    /// replica. The one call site both planes route through: the write
    /// plane takes owner and hops ([`site::Host::route`]), the query
    /// planner the path ([`RecordSource::route`]), so their model costs
    /// agree by construction. A node is always on its own ring, so a
    /// failure is counted, not expected.
    fn lookup(&mut self, key: Id) -> Option<LookupResult> {
        let found = self.ring.lookup(self.my_chord_id(), key).ok();
        if found.is_none() {
            self.unsupported += 1;
        }
        found
    }

    // ------------------------------------------------------------------
    // Protocol plane: this node's driver around `peertrack::site`
    // ------------------------------------------------------------------

    /// The receiving half of the delivery rule: an ack trims the suffix
    /// it covers; the sender's next message is applied and one at or
    /// below its watermark only re-acked; a gap is counted, not applied.
    fn on_protocol(&mut self, sender: SiteId, wire: &Wire) {
        let ch = self.peers.entry(sender).or_default();
        if let Msg::Ack { acked } = wire.msg {
            while ch.unacked.front().is_some_and(|o| o.wire.seq <= acked) {
                ch.unacked.pop_front();
            }
            return;
        }
        if wire.seq > ch.received + 1 {
            self.unsupported += 1;
            return;
        }
        let fresh = wire.seq == ch.received + 1;
        if fresh {
            ch.received = wire.seq;
        } else {
            self.anomalies.duplicates_suppressed += 1;
        }
        self.outbox.extend(self.ack_for(sender));
        if fresh {
            self.handle_msg(sender, wire.msg.clone());
        }
    }

    /// Apply one message through the protocol body; what it hands back
    /// (an `Arrival`, an undecodable replica state) is counted, not
    /// fatal.
    fn handle_msg(&mut self, sender: SiteId, msg: Msg) {
        if site::handle(self, self.site, sender, msg).is_some() {
            self.unsupported += 1;
        }
    }

    /// Close the open window and index it. With no off-sim timers, each
    /// flush doubles as the write-burst boundary: follow it with the
    /// anti-entropy digest, so a replica that missed a fan-out frame
    /// pulls the full state.
    fn on_flush(&mut self, now: SimTime) {
        if site::flush(self, self.site, now) && self.replicas > 1 {
            site::send_digest(self, self.site);
        }
    }

    /// The holders of a **dead** site's replica copies: the first K−1
    /// nodes clockwise from its ring id, on the post-removal ring — its
    /// successor set at the moment of death unless the membership has
    /// changed since, in which case a node that joined into that arc is
    /// asked too and, holding no copy, declines the patch
    /// ([`site::handle`]) or answers the read with nothing.
    pub(crate) fn holders_of_dead(&self, dead: SiteId) -> Vec<SiteId> {
        if self.replicas <= 1 {
            return Vec::new();
        }
        let key = chord_id_for(self.seed, dead);
        self.ring
            .successors_of(&key, self.replicas - 1)
            .into_iter()
            .filter_map(|id| self.ring.app_index_of(&id))
            .map(|i| SiteId(i as u32))
            .collect()
    }

    /// Apply a kill-forever declaration: drop the member, rebuild the
    /// ring, and — with replication on — fail its key ranges over. The
    /// heir (the dead id's first live successor) inherits the dead
    /// gateway from its replica copy; everyone drops the now-stale
    /// gateway copies (the **IOP** copies stay — they are the
    /// read-fallback data); placement is re-established on the shrunken
    /// ring.
    fn on_dead(&mut self, site: SiteId) {
        if site == self.site || self.members.remove(&site).is_none() {
            return;
        }
        if let Some(ch) = self.peers.get_mut(&site) {
            self.anomalies.dropped_to_dead += ch.unacked.len() as u64;
            ch.unacked.clear();
        }
        self.dead.insert(site);
        self.rebuild_ring();
        if self.replicas <= 1 {
            return;
        }
        let dead_chord = chord_id_for(self.seed, site);
        if self.ring.successor_of(&dead_chord) == Some(self.my_chord_id()) {
            site::inherit_gateway(self, self.site, site);
        }
        self.proto.replica_gateway.remove(&site);
        site::settle(self, self.site);
    }

    // ------------------------------------------------------------------
    // Read plane: what the query planner asks of a site
    // ------------------------------------------------------------------

    /// Answer a read request from this node's stores: the frame handler
    /// answers peers with it and the engine its own local reads. `None`
    /// = not a read request.
    ///
    /// The entry is the §IV-A.3 lookup reduced to the in-regime form:
    /// the current-`Lp` shard only. A miss while this node holds a shard
    /// on the object's path at another length (never in regime) may be
    /// wrong, and is counted unsupported.
    pub(crate) fn serve_read(&mut self, req: &Frame) -> Option<Frame> {
        let Frame::Holdings { object, copy_of } = *req else { return None };
        if let Some(primary) = copy_of {
            let copy = self.proto.replica_iop.get(&primary);
            let history = History(copy.map_or_else(Vec::new, |c| c.all(object).to_vec()));
            return Some(Frame::HoldingsResp { history, entry: None });
        }
        let (id, shards) = (object.id(), &self.proto.gateway.prefixes);
        let entry = shards.get(&Prefix::of_id(&id, self.lp)).and_then(|s| s.get(&object));
        if entry.is_none() && shards.keys().any(|q| q.len() != self.lp && q.matches(&id)) {
            self.unsupported += 1;
        }
        let history = History(self.proto.iop.all(object).to_vec());
        Some(Frame::HoldingsResp { history, entry: entry.map(|e| e.link()) })
    }
}

/// `Core` hosts the shared write plane for its one site: messages leave
/// through the outbox, routes come from the local ring replica, and the
/// membership is what the log has told this node so far.
impl site::Host for Core {
    fn site(&mut self, site: SiteId) -> &mut Site {
        assert_eq!(site, self.site, "a daemon core holds exactly one site");
        &mut self.proto
    }

    /// Charge the message's model cost — the simulator charges the same
    /// at its send — give it the peer's next sequence number and keep it
    /// in the peer's unacked suffix until acknowledged; the outbox copy
    /// is for the engine (live) or for dropping (replay).
    fn send(&mut self, _from: SiteId, to: SiteId, hops: u32, msg: Msg) {
        self.metrics.record(msg.class(), msg.wire_size(), hops);
        if !self.members.contains_key(&to) {
            self.anomalies.dropped_to_dead += 1;
            return;
        }
        let ch = self.peers.entry(to).or_default();
        ch.sent += 1;
        let out = Outbound { to, hops, wire: Wire { seq: ch.sent, msg } };
        ch.unacked.push_back(out.clone());
        self.outbox.push(out);
    }

    fn deliver(&mut self, _to: SiteId, from: SiteId, msg: Msg) {
        self.handle_msg(from, msg);
    }

    fn route(&mut self, _from: SiteId, prefix: Prefix) -> Option<(SiteId, u32)> {
        let r = self.lookup(prefix.gateway_id())?;
        Some((self.site_of_chord(&r.owner), r.hops))
    }

    fn lp(&self) -> usize {
        self.lp
    }

    fn replicas(&self) -> usize {
        self.replicas
    }

    fn live(&self, site: SiteId) -> bool {
        self.members.contains_key(&site)
    }

    fn replica_peers(&self, site: SiteId) -> Vec<SiteId> {
        // `successors_of` of a member id starts with the member itself,
        // so `K = 1` yields nobody.
        self.ring
            .successors_of(&chord_id_for(self.seed, site), self.replicas)
            .into_iter()
            .skip(1)
            .filter_map(|id| self.ring.app_index_of(&id))
            .map(|i| SiteId(i as u32))
            .filter(|&s| s != site)
            .collect()
    }

    fn holders_if_dead(&self, site: SiteId) -> Option<Vec<SiteId>> {
        (self.replicas > 1 && self.dead.contains(&site)).then(|| self.holders_of_dead(site))
    }

    fn anomalies_mut(&mut self) -> &mut Anomalies {
        &mut self.anomalies
    }

    fn group(&self) -> Option<GroupConfig> {
        Some(self.group)
    }

    /// Only a shard this node holds is visible: taken in place, free,
    /// like the simulator's fetch from the gateway's own shard. A remote
    /// shard would need a request/response refresh.
    fn fetch(
        &mut self,
        _gw: SiteId,
        p: Prefix,
        missing: &HashSet<ObjectId>,
    ) -> Option<Vec<(ObjectId, IndexEntry)>> {
        if !self.proto.gateway.prefixes.contains_key(&p) {
            return None;
        }
        let want: Vec<ObjectId> = missing.iter().filter(|o| p.matches(&o.id())).copied().collect();
        let (fetched, _) = self.proto.gateway.take_from(&p, &want);
        if !fetched.is_empty() {
            site::replicate_shard(self, self.site, Some(p));
        }
        Some(fetched)
    }

    /// Never: [`Core::serve_read`] does not search triangle children,
    /// so delegated entries would be lost to reads. Counted instead.
    fn may_delegate(&mut self, _gw: SiteId, _prefix: Prefix) -> bool {
        self.unsupported += 1;
        false
    }

    fn owner(&self, key: Id) -> SiteId {
        self.site_of_chord(&self.ring.successor_of(&key).expect("a node is on its own ring"))
    }

    /// A shard handed over above this node's `Lp` — a newcomer's
    /// successor hands it what the newcomer owns before learning the
    /// new `Lp` — splits on arrival, exactly where the simulator's
    /// post-handoff split does.
    fn migrated(&mut self, at: SiteId, prefix: Prefix) {
        if prefix.len() < self.lp {
            site::move_shard(self, at, prefix, Move::Split(prefix.len()));
        }
    }
}

/// Per-connection inbox cap: decoded frames awaiting processing. With
/// the bounded read chunk in [`transport::nio`] this caps per-connection
/// memory while a pipelining client keeps the loop busy across wakeups;
/// once full, the connection simply is not read until the loop catches
/// up (TCP flow control pushes back on the client).
pub const INBOX_CAP: usize = 256;

/// Bounded per-connection outbox: once this many response bytes are
/// queued and not yet accepted by the kernel, the connection is
/// *parked* — no further reads or request processing — until the
/// client drains its responses. Backpressure, never OOM, never a
/// dropped response.
pub const OUTBOX_LIMIT_BYTES: usize = 256 * 1024;

/// Deadline for one remote read: a link whose oldest unanswered request
/// is older than this is dropped and its waiters get "no answer". It
/// only bounds how long a query stays in flight on a silent peer —
/// nothing else waits on it.
const RPC_DEADLINE: Duration = Duration::from_secs(10);

/// Bound on dialing a peer's link: one connect attempt, no retry. It
/// is what a peer that neither accepts nor refuses costs the engine per
/// frame; on loopback a closed port refuses at once.
const DIAL_TIMEOUT: Duration = Duration::from_millis(500);

/// Empty pumps the engine spins through, yielding, before it waits:
/// a closed-loop client's next request usually lands within them, and
/// arming the watchers and waking from the doorbell would cost it more.
const IDLE_SPINS: u32 = 64;

/// Bound on an idle wait while the kernel refuses queued output: no
/// watcher rings when a socket becomes writable.
const FLUSH_RETRY: Duration = Duration::from_millis(5);

/// One accepted connection: the nonblocking socket plus the decoded
/// frames waiting their turn.
struct EConn {
    conn: NbConn,
    inbox: VecDeque<Frame>,
    /// True while over [`OUTBOX_LIMIT_BYTES`]: reads and processing are
    /// suspended, only flushes run.
    parked: bool,
    /// True while a query of this connection is in flight: its inbox is
    /// not processed, so its responses stay in request order, and the
    /// slot is not reaped, so the query's index stays its own.
    querying: bool,
}

impl EConn {
    /// Whether `intake` reads this connection, and so may watch it: bytes
    /// the engine leaves in the kernel would ring at once on every wait.
    fn readable(&self) -> bool {
        !self.parked && !self.conn.is_dead() && self.inbox.len() < INBOX_CAP
    }
}

/// What a client asked: the two requests that run the query planner.
#[derive(Clone, Copy)]
enum Ask {
    Locate { object: ObjectId, t: SimTime },
    Trace { object: ObjectId, t0: SimTime, t1: SimTime },
}

impl Ask {
    /// The response to a query the node could not finish.
    fn unanswered(self) -> Frame {
        let cost = QueryCost::default().into();
        match self {
            Ask::Locate { .. } => Frame::LocateResp { answer: None, cost, complete: false },
            Ask::Trace { .. } => Frame::TraceResp { path: Path::new(), cost, complete: false },
        }
    }
}

/// One planner read: the site asked and the encoded request frame —
/// which is also the payload sent when that site is a peer.
type ReadKey = (SiteId, Vec<u8>);

/// A `Locate`/`Trace` in flight. Reads are pure and keyed, so running
/// the planner again over `log` replays the earlier run up to the first
/// read the log lacks.
struct Query {
    /// The client connection (slab index) awaiting the response.
    conn: usize,
    ask: Ask,
    started_us: u64,
    /// The locate-cache lookup, taken once when the query starts: the
    /// cache counts every `get`, and a re-run is not a second lookup.
    cached: Option<Link>,
    /// Every read answered so far; `None` = the site gave no answer.
    log: HashMap<ReadKey, Option<Frame>>,
    /// The remote read the current run stopped at. Once set, the rest
    /// of that run reads "no answer" and its result is discarded.
    wanted: Option<ReadKey>,
}

/// What the run that finishes a locate does to the engine besides
/// answering: the load attribution and the cache maintenance.
struct LocateEffects {
    object: ObjectId,
    /// The site the answer is attributed to in `query_load`.
    served: Option<SiteId>,
    /// The cached link's own record is gone: drop the entry.
    stale: bool,
    /// The link worth caching for the next locate of this object.
    fill: Option<Link>,
}

/// The one nonblocking connection this node sends a peer everything
/// on: protocol frames, acks, the join fan-out and read requests. The
/// serving engine answers only the read requests, in arrival order, so
/// replies match `waiters` first-in first-out.
struct PeerLink {
    conn: NbConn,
    /// Queries with a request outstanding here, oldest first, each with
    /// the instant it was sent.
    waiters: VecDeque<(u64, Instant)>,
    /// The write cursor: the last sequence number written here.
    written: u64,
}

/// Hand each whole frame the link has received to its oldest waiter.
/// `false` = the link cannot be trusted further: a frame did not decode
/// (its waiter gets "no answer") or nobody had asked for it.
fn match_replies(
    mut next_frame: impl FnMut() -> Option<Vec<u8>>,
    waiters: &mut VecDeque<(u64, Instant)>,
    answers: &mut Vec<(u64, Option<Frame>)>,
) -> bool {
    while let Some(raw) = next_frame() {
        match (Frame::decode(&raw), waiters.pop_front()) {
            (Ok(reply), Some((id, _))) => answers.push((id, Some(reply))),
            (_, waiter) => {
                answers.extend(waiter.map(|(id, _)| (id, None)));
                return false;
            }
        }
    }
    true
}

struct Engine {
    addr: SocketAddr,
    listener: NbListener,
    /// Accepted connections, slab-style: indices are stable (slots are
    /// reused, never compacted) because staged replies and in-flight
    /// queries refer to them.
    econns: Vec<Option<EConn>>,
    /// The one outbound link per peer.
    links: HashMap<SiteId, PeerLink>,
    /// Peers to write at the next commit, each with the acks due to it.
    owed: BTreeMap<SiteId, Vec<Outbound>>,
    /// Peers whose last dial failed: what they have not acknowledged is
    /// held, not in flight, until a dial succeeds.
    down: HashSet<SiteId>,
    /// Queries parked on a remote read, by id.
    queries: HashMap<u64, Query>,
    next_query: u64,
    /// The query whose planner is running right now: the
    /// [`RecordSource`] reads below go through its log.
    running: Option<Query>,
    /// Parked queries whose awaited read has been answered.
    ready: VecDeque<u64>,
    recorder: Recorder,
    core: Core,
    /// Durable storage; `None` = in-memory node (`log_apply` degrades
    /// to plain apply).
    data: Option<DataDir>,
    snapshot_every: u64,
    records_since_snapshot: u64,
    /// True when the current batch holds WAL records whose fsync has
    /// not happened yet (cleared by `commit`).
    appended_in_batch: bool,
    /// Responses produced this batch in production order, held back
    /// until the batch fsync: ack-after-fsync is this buffer.
    staged: Vec<(usize, Vec<u8>)>,
    /// `Some(clean)` once Shutdown (`true`) or Crash (`false`) ran.
    stop: Option<bool>,
    parks: u64,
    /// Locate-answer cache (DESIGN.md §15). Engine-side on purpose:
    /// it is volatile read-path state, excluded — like the recorder —
    /// from the canonical state encoding and from snapshots, so a
    /// restarted node rebuilds it cold and `StateDump` comparisons
    /// never see it. `None` = caching disabled (the default).
    locate_cache: Option<LocateCache<Link>>,
    /// Served-locate attribution for queries this node originated:
    /// answering site → count. This is the simulator's per-site
    /// `query_load` tally sliced by origin; harnesses merge every
    /// node's slice ([`Frame::QueryLoad`]) to recover the global view.
    query_load: BTreeMap<SiteId, u64>,
    /// WAN region topology (DESIGN.md §17); `None` = flat cluster.
    geo: Option<geo::Topology>,
    /// Severed region pairs, normalized `(min, max)`: nothing is
    /// written to a peer across one. Network-plane state like the
    /// recorder: volatile, engine-side, never logged.
    severed: HashSet<(u16, u16)>,
    /// What every socket watcher rings, and what spawns the watchers
    /// (`transport::nio`).
    bell: Doorbell,
}

impl Engine {
    /// Build a node engine: recover state from the data dir (if any),
    /// correct the self-address on file, then join through the
    /// bootstrap. Runs on the spawning thread so recovery and join
    /// errors fail `Node::spawn` instead of killing a detached thread.
    fn new(cfg: NodeConfig) -> io::Result<Engine> {
        let invalid = |why: String| Err(io::Error::new(io::ErrorKind::InvalidInput, why));
        if cfg.locate_cache == Some(0) {
            return invalid("locate cache capacity must be at least 1".into());
        }
        if let Err(why) = cfg.group.validate() {
            return invalid(why);
        }
        if !cfg.group.eager_split_merge {
            return invalid("the daemon splits and merges eagerly".into());
        }
        let bell = Doorbell::new()?;
        let listener = NbListener::bind(&cfg.listen, &bell)?;
        let addr = listener.local_addr();
        let mut core =
            Core::new(cfg.site, cfg.seed, cfg.group, addr).with_replicas(cfg.replicas);
        let mut data = None;
        if let Some(dir) = &cfg.data_dir {
            let (d, recovery) = DataDir::open(dir, cfg.fsync)?;
            if let Some((_, body)) = &recovery.snapshot {
                // The replication factor is config, not logged state —
                // it must be restored before the tail replays, or
                // recovered fan-out accounting diverges from the live
                // run.
                core = Core::from_snapshot(cfg.site, cfg.seed, cfg.group, body)?
                    .with_replicas(cfg.replicas);
            }
            for entry in &recovery.tail {
                let rec = WalRecord::decode(&entry.payload).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("WAL record {} undecodable: {e}", entry.lsn),
                    )
                })?;
                core.replay(&rec);
            }
            // The report counts this life's traffic, not the replay's.
            core.metrics = Metrics::new();
            core.anomalies = Anomalies::default();
            data = Some(d);
        }
        // Recovered: every peer is owed its suffix and our watermark.
        let owed = core.peers.keys().map(|&s| (s, Vec::from_iter(core.ack_for(s))));
        let owed = owed.collect();
        let mut engine = Engine {
            addr,
            listener,
            econns: Vec::new(),
            links: HashMap::new(),
            owed,
            down: HashSet::new(),
            queries: HashMap::new(),
            next_query: 0,
            running: None,
            ready: VecDeque::new(),
            recorder: Recorder::new(),
            core,
            data,
            snapshot_every: cfg.snapshot_every.max(1),
            records_since_snapshot: 0,
            appended_in_batch: false,
            staged: Vec::new(),
            stop: None,
            parks: 0,
            locate_cache: cfg.locate_cache.map(LocateCache::new),
            query_load: BTreeMap::new(),
            geo: cfg.geo,
            severed: HashSet::new(),
            bell,
        };
        // A recovered core remembers the listener address of its
        // previous life; this life bound a fresh port.
        if engine.core.members.get(&cfg.site) != Some(&addr) {
            engine.log_apply(WalRecord::Member { site: cfg.site, addr: addr.to_string() });
        }
        if let Some(bootstrap) = cfg.bootstrap {
            engine.join_via(bootstrap)?;
        }
        // Make the pre-loop appends durable before serving traffic.
        engine.commit();
        Ok(engine)
    }

    /// The single live write path: log the event (group-commit append —
    /// the fsync is deferred to this batch's `commit`), apply it, note
    /// the peers owed a write at commit (a rejoining member on a fresh
    /// link). A WAL append failure is fatal by design — running on past
    /// an unlogged mutation would make the next recovery silently diverge.
    fn log_apply(&mut self, rec: WalRecord) {
        if let Some(d) = self.data.as_mut() {
            d.append_deferred(&rec.encode())
                .expect("WAL append failed; refusing to mutate unlogged state");
            self.appended_in_batch = true;
            self.records_since_snapshot += 1;
        }
        self.core.apply_record(&rec);
        for out in self.core.take_outbox() {
            let acks = self.owed.entry(out.to).or_default();
            if matches!(out.wire.msg, Msg::Ack { .. }) {
                acks.push(out);
            }
        }
        if let WalRecord::Member { site, .. } = rec {
            if site != self.core.site {
                if let Some(link) = self.links.get_mut(&site) {
                    link.conn.close();
                }
                self.service_link(site);
                self.down.remove(&site);
                let ack = self.core.ack_for(site);
                self.owed.entry(site).or_default().extend(ack);
            }
        }
    }

    /// The normalized region pair between this node and `to`.
    fn region_pair(&self, to: SiteId) -> Option<(u16, u16)> {
        let topo = self.geo.as_ref()?;
        let a = topo.region_of(self.core.site.0 as usize);
        let b = topo.region_of(to.0 as usize);
        Some((a.min(b), a.max(b)))
    }

    fn severed(&self, to: SiteId) -> bool {
        self.region_pair(to).is_some_and(|pair| self.severed.contains(&pair))
    }

    /// Unacknowledged messages `(in flight, held back)`: held are those
    /// to a peer across a cut or down since a failed dial.
    fn unacked_counts(&self) -> (u64, u64) {
        let held = |to: &SiteId| self.severed(*to) || self.down.contains(to);
        let count = |h: bool| -> u64 {
            let peers = self.core.peers.iter().filter(|(to, _)| held(to) == h);
            peers.map(|(_, c)| c.unacked.len() as u64).sum()
        };
        (count(false), count(true))
    }

    /// The link to `to`, dialed if there is none: one connect under
    /// [`DIAL_TIMEOUT`], no retry, no sleep; a failed dial marks the peer
    /// down. Callers read the link first ([`Engine::service_link`]).
    fn link(&mut self, to: SiteId) -> Option<&mut PeerLink> {
        let addr = *self.core.members.get(&to)?;
        match self.links.entry(to) {
            Entry::Occupied(e) => Some(e.into_mut()),
            Entry::Vacant(e) => {
                let dialed = TcpStream::connect_timeout(&addr, DIAL_TIMEOUT)
                    .and_then(|stream| NbConn::new(stream, addr));
                let Ok(conn) = dialed else {
                    self.down.insert(to);
                    return None;
                };
                self.down.remove(&to);
                Some(e.insert(PeerLink { conn, waiters: VecDeque::new(), written: 0 }))
            }
        }
    }

    /// Queue a read request or the join news on the link to `to`; a link
    /// dialed here owes `to` its suffix at commit. `None` = unreachable.
    fn send_to(&mut self, to: SiteId, payload: &[u8]) -> Option<&mut PeerLink> {
        self.service_link(to);
        if !self.links.contains_key(&to) {
            self.owed.entry(to).or_default();
        }
        let link = self.link(to)?;
        link.conn.queue_frame(payload);
        link.conn.try_flush();
        if link.conn.is_dead() {
            self.service_link(to); // its waiters get "no answer"
            return None;
        }
        self.links.get_mut(&to)
    }

    /// Write `to` its `acks`, then the unacknowledged messages past its
    /// link's cursor. Nothing crosses a cut; the heal owes both again.
    fn write_peer(&mut self, to: SiteId, acks: Vec<Outbound>) {
        self.service_link(to);
        if self.severed(to) {
            return;
        }
        let written = self.links.get(&to).map_or(0, |l| l.written);
        let behind = self.core.unacked(to).last().is_some_and(|o| o.wire.seq > written);
        if (acks.is_empty() && !behind) || self.link(to).is_none() {
            return;
        }
        let (sender, sent_us) = (self.core.site, wall_us());
        let link = self.links.get_mut(&to).expect("the link was just read or dialed");
        let unwritten = self.core.unacked(to).skip_while(|o| o.wire.seq <= written);
        for o in acks.iter().chain(unwritten) {
            let wire = o.wire.clone();
            link.conn.queue_frame(&Frame::Protocol { sender, hops: o.hops, sent_us, wire }.encode());
            link.written = link.written.max(o.wire.seq);
        }
        link.conn.try_flush();
    }

    fn install_snapshot(&mut self) {
        let body = self.core.snapshot_body();
        if let Some(d) = self.data.as_mut() {
            d.install_snapshot(&body)
                .expect("snapshot install failed; refusing to run with a broken log");
        }
        self.records_since_snapshot = 0;
    }

    /// Join the cluster through an existing member. Blocking, and the
    /// only request that is: it runs before the event loop starts, and
    /// its dial retries under the default backoff because daemons
    /// started together may find the bootstrap not yet listening. Any
    /// answer but a membership that lists this node at its own address
    /// is an error: a node serving as a one-member ring, or from a ring
    /// nobody else routes to, would answer "not found" for what its
    /// cluster holds.
    fn join_via(&mut self, bootstrap: SocketAddr) -> io::Result<()> {
        let me = (self.core.site, self.addr.to_string());
        let req = Frame::JoinReq { site: me.0, addr: me.1.clone() };
        let mut stream = transport::dial(bootstrap, &Backoff::default())?;
        let raw = transport::request(&mut stream, &req.encode())?;
        match Frame::decode(&raw) {
            Ok(Frame::JoinResp { peers }) if peers.contains(&me) => {
                for (site, addr) in peers {
                    if addr.parse::<SocketAddr>().is_ok() {
                        self.log_apply(WalRecord::Member { site, addr });
                    }
                }
                Ok(())
            }
            reply => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("join through {bootstrap} answered {reply:?}"),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// The loop: pump while there is work, spin a few empty pumps (a
    /// closed-loop client's next request is usually that close), then
    /// [`Engine::wait`] — blocked, at no CPU, until a socket rings.
    fn run(mut self) -> NodeReport {
        let mut idle = 0u32;
        while self.stop.is_none() {
            if self.pump() {
                idle = 0;
            } else if idle < IDLE_SPINS {
                idle += 1;
                std::thread::yield_now();
            } else {
                self.wait();
            }
            self.reap();
        }
        if self.stop == Some(true) && self.data.is_some() {
            // Orderly shutdown: fold the whole log into one snapshot so
            // the next start replays nothing, and leave the WAL synced
            // and empty.
            self.install_snapshot();
        }
        // Drain pending responses — the final ack among them — and
        // queued protocol frames, with a deadline so a vanished client
        // or peer cannot wedge the exit.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let mut drained = true;
            for ec in self.econns.iter_mut().flatten() {
                drained &= ec.conn.try_flush();
            }
            for link in self.links.values_mut() {
                drained &= link.conn.try_flush();
            }
            if drained || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Dropping a connection or the listener (with `self`) joins its
        // watcher or acceptor: nothing outlives the node, its port included.
        let (in_flight, held) = self.unacked_counts();
        self.econns.clear();
        self.links.clear();
        NodeReport {
            site: self.core.site,
            sent: self.core.sent(),
            received: self.core.received(),
            metrics: self.core.metrics,
            anomalies: self.core.anomalies,
            unsupported: self.core.unsupported,
            recorder: self.recorder,
            in_flight,
            held,
            backpressure_parks: self.parks,
        }
    }

    // ------------------------------------------------------------------
    // The event loop: intake → process → commit → flush
    // ------------------------------------------------------------------

    /// Watch every socket `intake` reads (`transport::nio`) and block
    /// on the doorbell, bounded by the oldest remote read's
    /// [`RPC_DEADLINE`] and, while output is queued, [`FLUSH_RETRY`]. A
    /// link whose watcher rang is read here, not at its next write.
    fn wait(&mut self) {
        let readable = self.econns.iter_mut().flatten().filter(|ec| ec.readable());
        let links = self.links.values_mut().filter(|l| !l.conn.is_dead());
        let conns = readable.map(|ec| &mut ec.conn).chain(links.map(|l| &mut l.conn));
        let mut watched = true;
        for conn in conns {
            watched &= conn.watch(&self.bell).is_ok();
        }
        let queued = (self.econns.iter().flatten().map(|ec| &ec.conn))
            .chain(self.links.values().map(|l| &l.conn))
            .any(|c| c.queued_bytes() > 0);
        let retry = (queued || !watched).then_some(FLUSH_RETRY);
        let waiters = self.links.values().filter_map(|l| l.waiters.front());
        let deadline = waiters.map(|w| RPC_DEADLINE.saturating_sub(w.1.elapsed())).min();
        self.bell.wait(retry.into_iter().chain(deadline).min());
        let econns = self.econns.iter_mut().flatten().map(|ec| &mut ec.conn);
        econns.chain(self.links.values_mut().map(|l| &mut l.conn)).for_each(NbConn::unwatch);
        let rang = self.links.iter().filter(|(_, l)| l.conn.rang()).map(|(&p, _)| p);
        for peer in rang.collect::<Vec<_>>() {
            self.service_link(peer);
        }
    }

    /// One pass of the loop. Returns `true` if anything at all happened
    /// (`run` waits when nothing did).
    fn pump(&mut self) -> bool {
        let mut activity = self.intake();
        if self.stop.is_none() {
            activity |= self.process();
        }
        self.commit();
        activity | self.flush_writes()
    }

    /// Accept pending connections and read every readable socket,
    /// decoding complete frames into per-connection inboxes and handing
    /// read replies to the queries that wait for them.
    fn intake(&mut self) -> bool {
        let mut activity = false;
        for conn in self.listener.accept_ready() {
            let ec = EConn { conn, inbox: VecDeque::new(), parked: false, querying: false };
            match self.econns.iter_mut().find(|s| s.is_none()) {
                Some(slot) => *slot = Some(ec),
                None => self.econns.push(Some(ec)),
            }
            activity = true;
        }
        for idx in 0..self.econns.len() {
            let Some(ec) = self.econns[idx].as_mut().filter(|ec| ec.readable()) else { continue };
            if ec.conn.read_ready() {
                activity = true;
            }
            while ec.inbox.len() < INBOX_CAP {
                let Some(raw) = ec.conn.next_frame() else { break };
                match Frame::decode(&raw) {
                    Ok(f) => ec.inbox.push_back(f),
                    Err(_) => self.core.unsupported += 1,
                }
            }
        }
        // A link with a waiter has a reply due, and one holding
        // unacknowledged messages must be seen to die. The rest are read
        // before their next write, not on every wakeup.
        let peers: Vec<SiteId> = (self.links.iter())
            .filter(|&(s, l)| !l.waiters.is_empty() || self.core.unacked(*s).next().is_some())
            .map(|(&s, _)| s)
            .collect();
        for peer in peers {
            activity |= self.service_link(peer);
        }
        activity
    }

    /// Read the link to `peer` once. Whole replies go to its waiters,
    /// oldest first; if the link is finished — the peer hung up, sent
    /// something no waiter can use, or has left its oldest waiter
    /// unanswered past [`RPC_DEADLINE`] — every remaining waiter gets
    /// "no answer" and the link is dropped, to be redialed by the next
    /// frame sent to `peer` — at the next commit if it still owes
    /// messages. Returns `true` if any query was answered.
    fn service_link(&mut self, peer: SiteId) -> bool {
        let Some(link) = self.links.get_mut(&peer) else { return false };
        link.conn.read_ready();
        let mut answers = Vec::new();
        let sound = match_replies(|| link.conn.next_frame(), &mut link.waiters, &mut answers);
        if !sound {
            self.core.unsupported += 1;
        }
        let overdue = link.waiters.front().is_some_and(|w| w.1.elapsed() >= RPC_DEADLINE);
        if !sound || overdue || link.conn.is_dead() {
            answers.extend(link.waiters.drain(..).map(|(id, _)| (id, None)));
            link.conn.close();
            self.links.remove(&peer);
            if self.core.unacked(peer).next().is_some() {
                self.owed.entry(peer).or_default();
            }
        }
        let answered = !answers.is_empty();
        for (id, reply) in answers {
            // A waiter's query is parked on exactly this read: it sent
            // one request and stays in the table until it is answered.
            let Some(q) = self.queries.get_mut(&id) else { continue };
            if let Some(key) = q.wanted.take() {
                q.log.insert(key, reply);
                self.ready.push_back(id);
            }
        }
        answered
    }

    /// Re-run every query whose awaited read was answered, then handle
    /// queued frames, strictly serially, in arrival order per
    /// connection. Parked connections and connections with a query in
    /// flight are skipped without blocking the others.
    fn process(&mut self) -> bool {
        let mut activity = false;
        while let Some(id) = self.ready.pop_front() {
            self.advance(id);
            activity = true;
        }
        for idx in 0..self.econns.len() {
            while self.stop.is_none() {
                let Some(ec) = self.econns[idx].as_mut() else { break };
                if ec.parked || ec.querying {
                    break;
                }
                let Some(frame) = ec.inbox.pop_front() else { break };
                self.handle_frame(idx, frame);
                activity = true;
            }
        }
        activity
    }

    /// The group-commit point: one fsync covering every record this
    /// batch appended, then — and never before — release the batch's
    /// staged responses to their connections, and its protocol messages
    /// and acks to their peers' links. A crash stop releases
    /// without the fsync (process-crash model: the `write(2)` already
    /// happened, and `Frame::Crash` simulates `kill -9`, not power
    /// loss). Snapshot cadence also lands here, after the sync.
    fn commit(&mut self) {
        if self.appended_in_batch {
            let crashing = self.stop == Some(false);
            if !crashing {
                if let Some(d) = self.data.as_mut() {
                    d.sync().expect("WAL fsync failed; refusing to ack unsynced records");
                }
            }
            self.appended_in_batch = false;
            if !crashing
                && self.stop.is_none()
                && self.data.is_some()
                && self.records_since_snapshot >= self.snapshot_every
            {
                self.install_snapshot();
            }
        }
        for (idx, bytes) in std::mem::take(&mut self.staged) {
            if let Some(ec) = self.econns[idx].as_mut() {
                ec.conn.queue_frame(&bytes);
            }
        }
        for (to, acks) in std::mem::take(&mut self.owed) {
            self.write_peer(to, acks);
        }
    }

    /// Write as much buffered output as the kernel accepts, and manage
    /// backpressure parking around [`OUTBOX_LIMIT_BYTES`].
    fn flush_writes(&mut self) -> bool {
        let mut activity = false;
        for link in self.links.values_mut() {
            if link.conn.queued_bytes() > 0 {
                link.conn.try_flush();
            }
        }
        for ec in self.econns.iter_mut().flatten() {
            let before = ec.conn.queued_bytes();
            if before > 0 {
                ec.conn.try_flush();
                if ec.conn.queued_bytes() < before {
                    activity = true;
                }
            }
            let over = ec.conn.queued_bytes() > OUTBOX_LIMIT_BYTES;
            if over && !ec.parked {
                ec.parked = true;
                self.parks += 1;
            } else if !over && ec.parked {
                ec.parked = false;
                activity = true;
            }
        }
        activity
    }

    /// Drop fully-finished dead connections. One with a query in
    /// flight stays until the query's response has been staged.
    fn reap(&mut self) {
        for slot in self.econns.iter_mut() {
            if let Some(ec) = slot {
                if ec.conn.is_dead() && ec.inbox.is_empty() && !ec.querying {
                    *slot = None;
                }
            }
        }
    }

    /// Stage a response for release at this batch's commit point.
    fn stage(&mut self, idx: usize, frame: Frame) {
        self.staged.push((idx, frame.encode()));
    }

    fn handle_frame(&mut self, idx: usize, frame: Frame) {
        match frame {
            Frame::Protocol { sender, hops: _, sent_us, wire } => {
                self.recorder
                    .record_latency(wire.msg.class(), wall_us().saturating_sub(sent_us));
                // A GroupIndex we absorb rewrites our shard's latest
                // links: drop our own cached answers for those objects
                // up front (revalidation would also catch it — this
                // saves the walk).
                if let Msg::GroupIndex { members, .. } = &wire.msg {
                    if let Some(cache) = self.locate_cache.as_mut() {
                        for &(o, _) in members {
                            cache.invalidate(o);
                        }
                    }
                }
                self.log_apply(WalRecord::Protocol { sender, wire });
            }
            Frame::JoinReq { site, addr } => {
                let reply = self.on_join_req(site, &addr);
                self.stage(idx, reply);
            }
            Frame::PeerJoined { site, addr } => {
                if addr.parse::<SocketAddr>().is_ok() {
                    self.clear_locate_cache();
                    self.log_apply(WalRecord::Member { site, addr });
                }
            }
            Frame::PeerDead { site } => {
                self.clear_locate_cache();
                self.log_apply(WalRecord::Dead { site });
                self.stage(idx, Frame::Ack);
            }
            Frame::JoinResp { .. } => self.core.unsupported += 1,
            Frame::Capture { at, objects } => {
                // The object is here now: whatever link we cached for
                // it elsewhere is stale the moment the record lands.
                if let Some(cache) = self.locate_cache.as_mut() {
                    for &o in &objects {
                        cache.invalidate(o);
                    }
                }
                self.log_apply(WalRecord::Capture { at, objects });
                self.stage(idx, Frame::Ack);
            }
            Frame::Flush { now } => {
                self.log_apply(WalRecord::Flush { now });
                self.stage(idx, Frame::Ack);
            }
            Frame::Locate { object, t } => self.start_query(idx, Ask::Locate { object, t }),
            Frame::Trace { object, t0, t1 } => {
                self.start_query(idx, Ask::Trace { object, t0, t1 })
            }
            Frame::Status => {
                let (in_flight, held) = self.unacked_counts();
                self.stage(
                    idx,
                    Frame::StatusResp {
                        site: self.core.site,
                        members: self.core.members.len() as u32,
                        sent: self.core.sent(),
                        received: self.core.received(),
                        in_flight,
                        held,
                    },
                );
            }
            Frame::QueryLoad => {
                let loads = self.query_load.iter().map(|(&s, &n)| (s, n)).collect();
                let stats = self.locate_cache.as_ref().map(|c| c.stats()).unwrap_or_default();
                self.stage(
                    idx,
                    Frame::QueryLoadResp { loads, hits: stats.hits, misses: stats.misses },
                );
            }
            Frame::Shutdown => {
                // Stopping waits for no peer: every query still in
                // flight is answered "incomplete" ahead of the ack.
                for q in std::mem::take(&mut self.queries).into_values() {
                    self.stage(q.conn, q.ask.unanswered());
                }
                self.stage(idx, Frame::Ack);
                self.stop = Some(true);
            }
            Frame::Crash => {
                // Die like a kill -9 would: ack (so the harness can
                // sequence the fault), then abandon everything volatile
                // — queries in flight included. No final snapshot, no
                // WAL sync beyond what earlier batches already
                // committed.
                self.stage(idx, Frame::Ack);
                self.stop = Some(false);
            }
            Frame::StateDump => {
                self.stage(idx, Frame::StateResp(self.core.state_bytes(false)));
            }
            Frame::Resolve { site } => {
                let addr = self.core.members.get(&site).map(|a| a.to_string());
                self.stage(idx, Frame::AddrResp(addr));
            }
            Frame::RegionCut { a, b } => {
                // Network-plane fault, not replicated state: never
                // logged, so state dumps and recovery are untouched.
                if self.geo.is_some() {
                    self.severed.insert((a.min(b), a.max(b)));
                }
                self.stage(idx, Frame::Ack);
            }
            Frame::RegionHeal { a, b } => {
                // What the cut held is written from each link's cursor,
                // after our watermark.
                let pair = (a.min(b), a.max(b));
                if self.severed.remove(&pair) {
                    let peers = self.core.peers.keys();
                    let healed = peers.filter(|&&s| self.region_pair(s) == Some(pair));
                    let healed: Vec<_> = healed.map(|&s| (s, self.core.ack_for(s))).collect();
                    for (s, ack) in healed {
                        self.owed.entry(s).or_default().extend(ack);
                    }
                }
                self.stage(idx, Frame::Ack);
            }
            // The read RPCs a peer's query planner sends, answered by the
            // same function that serves this node's own local reads.
            // Anything else left is a response frame arriving outside a
            // request context.
            other => match self.core.serve_read(&other) {
                Some(reply) => self.stage(idx, reply),
                None => self.core.unsupported += 1,
            },
        }
    }

    fn on_join_req(&mut self, site: SiteId, addr: &str) -> Frame {
        if addr.parse::<SocketAddr>().is_err() {
            self.core.unsupported += 1;
            return Frame::JoinResp { peers: Vec::new() };
        }
        self.clear_locate_cache();
        self.log_apply(WalRecord::Member { site, addr: addr.to_string() });
        // Tell everyone else about the newcomer (fire-and-forget,
        // daemon-plane: not charged, not counted as protocol traffic).
        let me = self.core.site;
        let others = self.core.members.keys().filter(|&&s| s != me && s != site);
        let others: Vec<SiteId> = others.copied().collect();
        let news = Frame::PeerJoined { site, addr: addr.to_string() }.encode();
        for peer in others {
            self.send_to(peer, &news);
        }
        Frame::JoinResp {
            peers: self.core.members.iter().map(|(s, a)| (*s, a.to_string())).collect(),
        }
    }

    // ------------------------------------------------------------------
    // Queries: the `peertrack::query` planner over this engine as its
    // `RecordSource` (below), re-run against a read log
    // ------------------------------------------------------------------

    /// Admit a query from connection `conn` and run it as far as the
    /// local stores carry it.
    fn start_query(&mut self, conn: usize, ask: Ask) {
        let started_us = wall_us();
        // Daemon cache entries carry no epoch (always 0): revalidation
        // replaces the simulator's epoch check.
        let cached = match ask {
            Ask::Locate { object, .. } => {
                self.locate_cache.as_mut().and_then(|c| c.get(object, 0))
            }
            Ask::Trace { .. } => None,
        };
        if let Some(ec) = self.econns[conn].as_mut() {
            ec.querying = true;
        }
        let id = self.next_query;
        self.next_query += 1;
        let log = HashMap::new();
        self.queries.insert(id, Query { conn, ask, started_us, cached, log, wanted: None });
        self.advance(id);
    }

    /// Run query `id`'s planner from the top over its read log. A run
    /// that finds every read logged finishes the query; one that stops
    /// at a remote read sends it and leaves the query parked until
    /// [`Engine::service_link`] logs the reply. An unreachable site is
    /// logged as "no answer" on the spot and the planner run again.
    fn advance(&mut self, id: u64) {
        let Some(mut q) = self.queries.remove(&id) else { return };
        loop {
            let (ask, cached) = (q.ask, q.cached);
            self.running = Some(q);
            let mut cost = QueryCost::default();
            let (response, effects) = self.plan(ask, cached, &mut cost);
            q = self.running.take().expect("the run keeps its query");
            let Some(key) = q.wanted.take() else {
                return self.finish(q, response, effects, cost);
            };
            if self.send_read(id, &key) {
                q.wanted = Some(key);
                self.queries.insert(id, q);
                return;
            }
            q.log.insert(key, None);
        }
    }

    /// Queue one read request on the link to its site, with query `id`
    /// as its waiter. `false` = the site cannot be reached.
    fn send_read(&mut self, id: u64, (site, request): &ReadKey) -> bool {
        let Some(link) = self.send_to(*site, request) else { return false };
        link.waiters.push_back((id, Instant::now()));
        true
    }

    /// One planner run for `ask`, touching nothing but the running
    /// query's read log: the response it would give, plus — for a
    /// locate — what finishing would do to the cache and the load tally.
    /// `L(o, t)` goes through the locate-answer cache of DESIGN.md §15
    /// when the query started on a hit, the shared planner otherwise.
    fn plan(
        &mut self,
        ask: Ask,
        cached: Option<Link>,
        cost: &mut QueryCost,
    ) -> (Frame, Option<LocateEffects>) {
        let me = self.core.site;
        match ask {
            Ask::Locate { object, t } => {
                let hit = cached.and_then(|link| self.locate_from_cached(link, object, t, cost));
                let (answer, complete, effects) = match hit {
                    // Cache hits attribute the served locate to the
                    // origin itself, as the simulator does.
                    Some((answer, complete, fill)) => {
                        let served = Some(me);
                        (answer, complete, LocateEffects { object, served, stale: false, fill })
                    }
                    // Fill only from gateway discoveries, like the
                    // simulator: the gateway's latest link is the one
                    // answer worth reusing.
                    None => {
                        let (answer, source, complete, fill) =
                            query::locate(self, me, object, t, cost);
                        let (served, stale) = (source.served_by(me), cached.is_some());
                        (answer, complete, LocateEffects { object, served, stale, fill })
                    }
                };
                let cost = (*cost).into();
                (Frame::LocateResp { answer, cost, complete }, Some(effects))
            }
            Ask::Trace { object, t0, t1 } => {
                let (path, _, complete) = query::trace(self, me, object, t0, t1, cost);
                (Frame::TraceResp { path, cost: (*cost).into(), complete }, None)
            }
        }
    }

    /// Apply the run that finished: cache and load tally, the model
    /// cost (charged to the volatile metrics, never logged), the
    /// wall-clock latency sample, and the response, staged for this
    /// batch's commit.
    fn finish(
        &mut self,
        q: Query,
        response: Frame,
        effects: Option<LocateEffects>,
        cost: QueryCost,
    ) {
        if let Some(fx) = effects {
            if let Some(served) = fx.served {
                *self.query_load.entry(served).or_default() += 1;
            }
            if let Some(cache) = self.locate_cache.as_mut() {
                if fx.stale {
                    cache.invalidate(fx.object);
                }
                if let Some(link) = fx.fill {
                    cache.insert(fx.object, 0, link);
                }
            }
        }
        self.core.metrics.record_bulk(MsgClass::Query, cost.messages, cost.bytes, cost.hops);
        self.recorder
            .record_latency(MsgClass::Query, wall_us().saturating_sub(q.started_us));
        self.stage(q.conn, response);
        if let Some(ec) = self.econns[q.conn].as_mut() {
            ec.querying = false;
        }
    }

    /// What `site` holds about `object` — in its replica copy of
    /// `copy_of`'s repository, when set: the visit history and the index
    /// entry. Read through the running query's log: a logged read
    /// replays, a local one is served in-process and logged, and the
    /// first remote one the log lacks becomes the read the query parks
    /// on. `None` = no answer. Reads at the query's current cursor site
    /// are uncharged, like the simulator's direct state reads; only
    /// cursor *moves* pay.
    fn read(
        &mut self,
        site: SiteId,
        object: ObjectId,
        copy_of: Option<SiteId>,
    ) -> Option<(Vec<IopRecord>, Option<Link>)> {
        let q = self.running.as_mut().expect("planner reads happen inside a run");
        if q.wanted.is_some() {
            return None;
        }
        let req = Frame::Holdings { object, copy_of };
        let key = (site, req.encode());
        let reply = match q.log.get(&key) {
            Some(reply) => reply.clone(),
            None if site != self.core.site => {
                q.wanted = Some(key);
                return None;
            }
            None => {
                let reply = self.core.serve_read(&req);
                q.log.insert(key, reply.clone());
                reply
            }
        };
        match reply? {
            Frame::HoldingsResp { history, entry } => Some((history.0, entry)),
            _ => None,
        }
    }

    /// Membership changed: drop the locate cache wholesale, mirroring
    /// the simulator's conservative churn rule. (Entries would still
    /// revalidate to exact answers — this just refuses to carry a
    /// reshaped cluster's old read path forward.)
    fn clear_locate_cache(&mut self) {
        if let Some(cache) = self.locate_cache.as_mut() {
            cache.clear();
        }
    }

    /// Answer a locate from the cached link `link`. The daemon cannot
    /// check a movement epoch the way the simulator does (no node sees
    /// every gateway mutation), so a hit is *revalidated*: the cached
    /// link's own IOP record proves whether it is still the latest,
    /// and the forward `to` chain leads to the fresh holder when it is
    /// not. Either way the answer equals what full rediscovery would
    /// return — visit records are immutable history.
    ///
    /// Returns `None` only when the revalidating fetch of the cached
    /// link itself found nothing (the entry refers to crash-lost
    /// records): the caller drops the entry and rediscovers. The third
    /// field is the newer link to refresh the entry with, if any.
    fn locate_from_cached(
        &mut self,
        link: Link,
        object: ObjectId,
        t: SimTime,
        cost: &mut QueryCost,
    ) -> Option<(Option<SiteId>, bool, Option<Link>)> {
        let mut current = self.core.site;
        let rec = query::fetch_record(self, &mut current, link, object, cost).ok()?;
        if t < link.time {
            // The cached link is in the object's past: even a stale
            // "latest" is a correct historical anchor to walk back from.
            let walked = query::walk_back(self, &mut current, rec.from, object, t, cost);
            return Some((walked.unwrap_or(None), walked.is_ok(), None));
        }
        // t >= link.time: the cached holder answers unless the object
        // has moved on — a populated `to` chain means it did. Follow it
        // forward and refresh the entry with the newest link reached.
        let Ok(at) = query::walk_forward(self, &mut current, link, rec.to, object, t, cost)
        else {
            return Some((None, false, None));
        };
        Some((Some(at.site), true, (at != link).then_some(at)))
    }
}

/// The planner's reads, one [`Frame::Holdings`] per site and copy:
/// served from this node's own stores or a peer's through the running
/// query's read log ([`Engine::read`]). A transport failure is "no
/// answer", which the planner reports as an incomplete query — never as
/// "not in the system".
impl RecordSource for Engine {
    fn route(&mut self, _from: SiteId, object: ObjectId) -> Result<Vec<SiteId>, Incomplete> {
        let key = Prefix::of_id(&object.id(), self.core.lp).gateway_id();
        let r = self.core.lookup(key).ok_or(Incomplete)?;
        Ok(r.path[1..].iter().map(|nid| self.core.site_of_chord(nid)).collect())
    }

    fn history(&mut self, site: SiteId, object: ObjectId) -> Cow<'_, [IopRecord]> {
        Cow::Owned(self.read(site, object, None).map(|(history, _)| history).unwrap_or_default())
    }

    /// The gateway's own cost beyond being reached is nil in the
    /// daemon's regime ([`Core::serve_read`]).
    fn gateway_lookup(
        &mut self,
        gateway: SiteId,
        object: ObjectId,
        _cost: &mut QueryCost,
    ) -> Result<Option<Link>, Incomplete> {
        self.read(gateway, object, None).map(|(_, entry)| entry).ok_or(Incomplete)
    }

    fn alive(&self, site: SiteId) -> bool {
        self.core.members.contains_key(&site)
    }

    fn replica_holders(&self, site: SiteId) -> Vec<SiteId> {
        self.core.holders_of_dead(site)
    }

    fn replica_history(
        &mut self,
        holder: SiteId,
        primary: SiteId,
        object: ObjectId,
    ) -> Cow<'_, [IopRecord]> {
        let read = self.read(holder, object, Some(primary));
        Cow::Owned(read.map(|(history, _)| history).unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptiny::hostile_bytes;

    /// A core for site 0 of a four-member cluster, outbox drained.
    fn core4(group: GroupConfig) -> Core {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut c = Core::new(SiteId(0), 7, group, addr);
        for s in 1..4u32 {
            let addr = format!("127.0.0.1:{}", 7400 + s);
            c.apply_record(&WalRecord::Member { site: SiteId(s), addr });
        }
        c.outbox.clear();
        c
    }

    /// Apply `msgs` as site 1's next protocol messages.
    fn deliver_from_1(core: &mut Core, msgs: Vec<Msg>) {
        for msg in msgs {
            let seq = core.peers.get(&SiteId(1)).map_or(0, |c| c.received) + 1;
            let wire = Wire { seq, msg };
            core.apply_record(&WalRecord::Protocol { sender: SiteId(1), wire });
        }
    }

    #[test]
    fn chord_ids_match_simulator_derivation() {
        // The sim derives ring ids as hash("site-{seed}-{index}"); the
        // daemon must produce identical ids or hop counts diverge.
        for seed in [0u64, 42, 0x9E3779B9] {
            for i in 0..8u32 {
                assert_eq!(
                    chord_id_for(seed, SiteId(i)),
                    Id::hash_str(&format!("site-{seed}-{i}"))
                );
            }
        }
    }

    #[test]
    fn replay_discards_outbox_but_keeps_state() {
        let mk = || core4(GroupConfig::default());
        let objects: Vec<ObjectId> =
            (0..6u64).map(|n| ObjectId(Id::hash(&n.to_be_bytes()))).collect();
        let records = vec![
            WalRecord::Capture {
                at: SimTime::from_micros(1_000),
                objects: objects.clone(),
            },
            WalRecord::Flush { now: SimTime::from_micros(2_000) },
        ];

        let mut live = mk();
        let mut replayed = mk();
        let mut emitted = 0;
        for rec in &records {
            live.apply_record(rec);
            emitted += live.take_outbox().len();
            replayed.replay(rec);
        }
        assert!(emitted > 0, "flush must have produced GroupIndex traffic");
        assert!(replayed.outbox.is_empty());
        // Identical transitions: full state (addresses included) agrees.
        assert_eq!(live.state_bytes(true), replayed.state_bytes(true));
        assert_eq!(live.sent(), replayed.sent());
    }

    /// A bad peer costs one link: whatever bytes arrive where replies
    /// were due, the reply reader neither panics nor answers a waiter
    /// out of turn — each of the two waiters is answered once, in order,
    /// or is still waiting when the link is declared unsound or dry
    /// (the engine then fails the rest with "no answer").
    #[test]
    fn hostile_reply_bytes_cost_the_link_never_a_waiter_out_of_turn() {
        use transport::{write_frame, FrameAccum};
        let link = Link { site: SiteId(3), time: SimTime::from_micros(9) };
        let rec = IopRecord { arrived: SimTime::from_micros(5), from: Some(link), to: None };
        let holdings = |history: Vec<IopRecord>, entry| Frame::HoldingsResp {
            history: History(history),
            entry,
        };
        let replies =
            [holdings(vec![rec], Some(link)), holdings(vec![rec], None), holdings(vec![], None)];
        let samples: Vec<Vec<u8>> = replies
            .iter()
            .map(|first| {
                let mut wire = Vec::new();
                write_frame(&mut wire, &first.encode()).unwrap();
                write_frame(&mut wire, &holdings(vec![], Some(link)).encode()).unwrap();
                wire
            })
            .collect();
        let read = |raw: &[u8]| {
            let mut acc = FrameAccum::new();
            acc.push(raw);
            let now = Instant::now();
            let mut waiters = VecDeque::from([(7, now), (8, now)]);
            let mut answers = Vec::new();
            // A framing violation ends the stream, as `NbConn` ends it.
            let sound = match_replies(
                || acc.next_frame().unwrap_or(None),
                &mut waiters,
                &mut answers,
            );
            assert_eq!(answers.len() + waiters.len(), 2, "a waiter was lost or answered twice");
            for (k, (id, reply)) in answers.iter().enumerate() {
                assert_eq!(*id, 7 + k as u64, "answered out of turn");
                assert!(reply.is_some() || (!sound && k + 1 == answers.len()));
            }
            (sound, answers)
        };
        for (sample, first) in samples.iter().zip(&replies) {
            // Every truncation: the whole frames before the cut answer
            // their waiters, the torn one answers nobody.
            for cut in 0..=sample.len() {
                let (sound, answers) = read(&sample[..cut]);
                assert!(sound, "a short stream is not yet a bad one (cut {cut})");
                let ends = [4 + first.encode().len(), sample.len()];
                let whole = ends.iter().filter(|&&end| cut >= end).count();
                assert_eq!(answers.len(), whole, "cut {cut}");
                if let Some((_, reply)) = answers.first() {
                    assert_eq!(reply.as_ref().map(Frame::encode), Some(first.encode()));
                }
            }
        }
        hostile_bytes(&samples, |raw| drop(read(raw)));
        // Nobody asked: the frame is the link's last.
        let mut none = VecDeque::new();
        let mut frames = vec![holdings(vec![rec], None).encode()];
        assert!(!match_replies(|| frames.pop(), &mut none, &mut Vec::new()));
    }

    /// Fig. 5 `refresh_from_ascent` against a shard the gateway holds:
    /// the entry moves down a level and threads the new visit into its
    /// IOP chain, instead of being counted and left behind.
    #[test]
    fn gateway_refreshes_from_a_shard_it_holds() {
        let mut core = core4(GroupConfig::default());
        let o = ObjectId(Id::hash(b"o"));
        let (at_lp, below) = (Prefix::of_id(&o.id(), core.lp), Prefix::of_id(&o.id(), core.lp + 1));
        let old = Link { site: SiteId(2), time: SimTime::from_millis(1) };
        let planted = IndexEntry { site: old.site, time: old.time, prev: None };
        let new = Link { site: SiteId(3), time: SimTime::from_millis(5) };
        deliver_from_1(
            &mut core,
            vec![
                Msg::Migrate { prefix: Some(at_lp), entries: vec![(o, planted)] },
                Msg::GroupIndex { prefix: below, site: new.site, members: vec![(o, new.time)] },
            ],
        );
        assert_eq!(core.unsupported(), 0);
        let entry = core.proto.gateway.prefixes.get(&below).and_then(|s| s.get(&o)).copied();
        assert_eq!(entry, Some(IndexEntry { site: new.site, time: new.time, prev: Some(old) }));
        assert!(!core.proto.gateway.prefixes.contains_key(&at_lp), "stale ancestor shard");
        let m2: Vec<_> = core
            .take_outbox()
            .into_iter()
            .filter_map(|out| match out.wire.msg {
                Msg::SetTo { updates } => Some((out.to, updates)),
                _ => None,
            })
            .collect();
        assert_eq!(m2, vec![(old.site, vec![(o, old.time, new)])]);
    }

    /// Past the delegation threshold the daemon counts the situation
    /// and keeps the shard whole, so its gateway read stays right.
    #[test]
    fn delegation_is_counted_and_the_shard_stays_readable() {
        let group = GroupConfig { delegate_threshold: Some(2), ..GroupConfig::default() };
        let mut core = core4(group);
        let lp = core.lp;
        let of = |n: u64| ObjectId(Id::hash(&n.to_be_bytes()));
        let prefix = Prefix::of_id(&of(0).id(), lp);
        let objects: Vec<ObjectId> =
            (0..).map(of).filter(|o| prefix.matches(&o.id())).take(3).collect();
        let members: Vec<(ObjectId, SimTime)> = (1..)
            .zip(&objects)
            .map(|(ms, &o)| (o, SimTime::from_millis(ms)))
            .collect();
        deliver_from_1(&mut core, vec![Msg::GroupIndex { prefix, site: SiteId(2), members }]);
        assert_eq!(core.unsupported(), 1);
        assert!(core.take_outbox().iter().all(|out| !matches!(out.wire.msg, Msg::Delegate { .. })));
        let shard = &core.proto.gateway.prefixes[&prefix];
        assert!(objects.iter().all(|o| shard.get(o).is_some()) && !shard.delegated);
        let earliest = Frame::Holdings { object: objects[0], copy_of: None };
        let entry = Some(Link { site: SiteId(2), time: SimTime::from_millis(1) });
        assert_eq!(
            core.serve_read(&earliest).map(|f| f.encode()),
            Some(Frame::HoldingsResp { history: History::default(), entry }.encode())
        );
        assert_eq!(core.unsupported(), 1);
    }

    /// A configuration the daemon cannot run fails the spawn, on the
    /// caller's thread, before anything binds.
    #[test]
    fn spawn_refuses_a_group_config_it_cannot_run() {
        let lazy = GroupConfig { eager_split_merge: false, ..GroupConfig::default() };
        let empty_window = GroupConfig { n_max: 0, ..GroupConfig::default() };
        for group in [lazy, empty_window] {
            let cfg = NodeConfig { group, ..NodeConfig::loopback(SiteId(0), 7, None) };
            let spawned = std::panic::catch_unwind(|| Node::spawn(cfg).map(|_| ()));
            let kind = spawned.map(|r| r.map_err(|e| e.kind()));
            assert_eq!(kind.ok(), Some(Err(io::ErrorKind::InvalidInput)), "{group:?}");
        }
    }

    #[test]
    fn undecodable_repl_state_is_counted_and_handed_back_intact() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut peer = Core::new(SiteId(1), 7, GroupConfig::default(), addr);
        let o = ObjectId(Id::hash(b"o"));
        peer.apply_record(&WalRecord::Capture { at: SimTime::from_micros(5), objects: vec![o] });
        let mut padded = peer.proto.store_state_bytes();
        padded.push(0);

        let mut core = Core::new(SiteId(0), 7, GroupConfig::default(), addr).with_replicas(2);
        let state = |state| Msg::ReplState { primary: SiteId(1), state };
        // An individual-mode arrival is not part of the daemon's group
        // mode: handed back and counted just the same.
        let arrival = Msg::Arrival { object: o, site: SiteId(1), time: SimTime::from_micros(5) };
        for (i, msg) in [state(vec![0xFF; 9]), state(padded), arrival].into_iter().enumerate() {
            // The host gets back the message that arrived, not the tail
            // the decoder had not read yet, and nothing was applied.
            let before = core.state_bytes(true);
            let back = site::handle(&mut core, SiteId(0), SiteId(1), msg.clone());
            assert_eq!(format!("{back:?}"), format!("{:?}", Some(&msg)), "message {i}");
            assert_eq!(core.state_bytes(true), before, "message {i}");

            let before = core.unsupported();
            let wire = Wire { seq: i as u64 + 1, msg };
            core.apply_record(&WalRecord::Protocol { sender: SiteId(1), wire });
            assert_eq!(core.unsupported(), before + 1, "message {i}");
        }
        assert!(core.proto.replica_iop.is_empty() && core.proto.replica_gateway.is_empty());
        assert!(core.proto.gateway.objects.is_empty());
    }
}
