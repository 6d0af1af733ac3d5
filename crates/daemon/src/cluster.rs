//! In-process loopback cluster: N daemon nodes on ephemeral 127.0.0.1
//! ports, driven through the same schedule the simulator runs.
//!
//! The harness is the cluster's *virtual-time conductor*. Off-sim there
//! is no global clock and no timer wheel, so the harness carries both:
//! it keeps a per-site [`WindowBuffer`] mirror (fed the same pushes the
//! node sees, so it knows when the simulator's `Tmax` timer would have
//! been armed or canceled) and injects [`Frame::Flush`] at exactly the
//! virtual instant the timer would have fired. Captures and flushes are
//! interleaved in virtual-time order — ties broken like the simulator's
//! event queue (earlier-scheduled first) — so a converged cluster walks
//! the same state trajectory as `NetWorld` under the same workload.
//!
//! Control operations are strictly serialized: the harness sends one
//! capture/flush/query at a time and, whenever an operation can have
//! emitted protocol traffic, waits for the cluster to **quiesce**
//! (every node's sent/received frame counters globally balanced and
//! stable) before proceeding. That preserves the simulator's causal
//! delivery order — two gateways' `GroupIndex` messages can never race
//! each other on different TCP connections.

use crate::node::{Node, NodeConfig, NodeReport};
use crate::proto::{CostWire, Frame};
use durable::FsyncMode;
use moods::{ObjectId, Path, SiteId};
use peertrack::config::GroupConfig;
use peertrack::window::{WindowBuffer, WindowEvent};
use simnet::SimTime;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use transport::{Backoff, ConnCache};
use workload::CaptureEvent;

/// How long [`LoopbackCluster::quiesce`] and membership convergence may
/// take before the harness declares the cluster wedged.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Checked conversion from a harness vector index to a wire [`SiteId`].
/// Every site-indexed structure here is a `Vec`, so an index that does
/// not fit `u32` is a harness bug — fail loudly instead of letting
/// `as u32` silently truncate into some *other* site's id.
fn site_id(i: usize) -> SiteId {
    SiteId(u32::try_from(i).unwrap_or_else(|_| panic!("site index {i} exceeds u32::MAX")))
}

/// Durable-storage settings shared by every node of a durable cluster
/// (kept so [`LoopbackCluster::restart`] can respawn with the same).
#[derive(Clone, Debug)]
struct DurableSetup {
    root: PathBuf,
    fsync: FsyncMode,
    snapshot_every: u64,
}

/// A resumable position in a capture schedule: the sorted events plus
/// how many have fired. The cluster's window mirrors and timer
/// deadlines carry the rest of the mid-schedule state, so a harness can
/// run part of a schedule, crash and restart a node, and continue from
/// exactly where it stopped.
pub struct ScheduleCursor {
    evs: Vec<CaptureEvent>,
    i: usize,
}

impl ScheduleCursor {
    /// Sort `events` into firing order (stable: ties keep injection
    /// order, like the simulator's event queue) and point at the start.
    pub fn new(events: &[CaptureEvent]) -> ScheduleCursor {
        let mut evs = events.to_vec();
        evs.sort_by_key(|e| e.at);
        ScheduleCursor { evs, i: 0 }
    }

    /// Capture events not yet fired (pending timer flushes are tracked
    /// by the cluster, so `0` here does not mean the schedule is done —
    /// [`LoopbackCluster::run_cursor`] returning `0` does).
    pub fn remaining(&self) -> usize {
        self.evs.len() - self.i
    }
}

/// A running loopback cluster of daemon nodes. `None` slots are
/// crashed nodes awaiting [`LoopbackCluster::restart`].
pub struct LoopbackCluster {
    nodes: Vec<Option<Node>>,
    addrs: Vec<SocketAddr>,
    ctl: ConnCache,
    mirrors: Vec<WindowBuffer>,
    /// Open-window deadline per site plus its arming sequence number
    /// (the simulator's timer-id order; ties fire in arming order).
    deadlines: Vec<Option<(SimTime, u64)>>,
    next_arm: u64,
    t_max: SimTime,
    seed: u64,
    group: GroupConfig,
    durable: Option<DurableSetup>,
    replicas: usize,
    locate_cache: Option<usize>,
    /// WAN region topology shared by every node (DESIGN.md §17);
    /// `None` = flat cluster (the default everywhere).
    geo: Option<geo::Topology>,
    /// Final sent/received counters of permanently killed nodes
    /// ([`LoopbackCluster::kill_forever`]): their frames stay in the
    /// cluster-wide balance [`LoopbackCluster::quiesce`] checks even
    /// though the nodes no longer answer [`Frame::Status`].
    dead_sent: u64,
    dead_received: u64,
}

impl LoopbackCluster {
    /// Start `n` nodes (sites `0..n`) with the default group config.
    pub fn start(n: usize, seed: u64) -> io::Result<LoopbackCluster> {
        LoopbackCluster::start_with(n, seed, GroupConfig::default())
    }

    /// Start `n` nodes with an explicit group config. Site 0 bootstraps;
    /// the rest join through it one at a time, and the call returns only
    /// once every node reports full membership (so every ring replica is
    /// identical before any traffic flows).
    pub fn start_with(n: usize, seed: u64, group: GroupConfig) -> io::Result<LoopbackCluster> {
        LoopbackCluster::start_inner(n, seed, group, None, 1, None, None)
    }

    /// Start `n` nodes with a locate-answer cache of `capacity` entries
    /// on every node (DESIGN.md §15). Queries stay oracle-exact — every
    /// cache hit is revalidated against the holder's records — so the
    /// only observable differences are cost and the per-node cache
    /// counters ([`LoopbackCluster::query_load`]).
    pub fn start_cached(
        n: usize,
        seed: u64,
        group: GroupConfig,
        capacity: usize,
    ) -> io::Result<LoopbackCluster> {
        LoopbackCluster::start_inner(n, seed, group, None, 1, Some(capacity), None)
    }

    /// Start `n` nodes with replication factor `k`: every site's
    /// repository and gateway shards are copied onto its `k−1` ring
    /// successors, and up to `k−1` nodes can be
    /// [`LoopbackCluster::kill_forever`]'d with oracle-exact queries
    /// surviving. `k = 1` is identical to [`LoopbackCluster::start_with`].
    pub fn start_replicated(
        n: usize,
        seed: u64,
        group: GroupConfig,
        k: usize,
    ) -> io::Result<LoopbackCluster> {
        LoopbackCluster::start_inner(n, seed, group, None, k, None, None)
    }

    /// Start `n` nodes federated over a WAN region `topology`
    /// (DESIGN.md §17): every node derives its region from its site id,
    /// outbound dials pay the topology's base latency (test builds),
    /// and the harness can sever/heal region pairs
    /// ([`LoopbackCluster::region_cut`] /
    /// [`LoopbackCluster::region_heal`]). `k` is the replication factor
    /// (`1` = off), as [`LoopbackCluster::start_replicated`].
    pub fn start_geo(
        n: usize,
        seed: u64,
        group: GroupConfig,
        k: usize,
        topology: geo::Topology,
    ) -> io::Result<LoopbackCluster> {
        assert_eq!(topology.sites(), n, "topology must cover exactly the cluster's sites");
        LoopbackCluster::start_inner(n, seed, group, None, k, None, Some(topology))
    }

    /// Start `n` *durable* nodes: site `i` logs to `root/site-i` under
    /// the given fsync policy and snapshot cadence, and can be crashed
    /// and restarted ([`LoopbackCluster::crash`] /
    /// [`LoopbackCluster::restart`]).
    pub fn start_durable(
        n: usize,
        seed: u64,
        group: GroupConfig,
        root: &std::path::Path,
        fsync: FsyncMode,
        snapshot_every: u64,
    ) -> io::Result<LoopbackCluster> {
        let setup =
            DurableSetup { root: root.to_path_buf(), fsync, snapshot_every };
        LoopbackCluster::start_inner(n, seed, group, Some(setup), 1, None, None)
    }

    /// Durable nodes (as [`LoopbackCluster::start_durable`]) with a
    /// locate-answer cache of `capacity` entries on every node. The
    /// cache is engine-side and volatile: a crash/restart cycle rebuilds
    /// it cold while the WAL replays everything else.
    #[allow(clippy::too_many_arguments)]
    pub fn start_durable_cached(
        n: usize,
        seed: u64,
        group: GroupConfig,
        root: &std::path::Path,
        fsync: FsyncMode,
        snapshot_every: u64,
        capacity: usize,
    ) -> io::Result<LoopbackCluster> {
        let setup =
            DurableSetup { root: root.to_path_buf(), fsync, snapshot_every };
        LoopbackCluster::start_inner(n, seed, group, Some(setup), 1, Some(capacity), None)
    }

    fn start_inner(
        n: usize,
        seed: u64,
        group: GroupConfig,
        durable: Option<DurableSetup>,
        replicas: usize,
        locate_cache: Option<usize>,
        geo: Option<geo::Topology>,
    ) -> io::Result<LoopbackCluster> {
        assert!(n >= 1, "cluster needs at least one node");
        let mut cluster = LoopbackCluster {
            nodes: Vec::with_capacity(n),
            addrs: Vec::with_capacity(n),
            ctl: ConnCache::new(Backoff::default()),
            mirrors: (0..n).map(|i| WindowBuffer::new(site_id(i), group.n_max)).collect(),
            deadlines: vec![None; n],
            next_arm: 0,
            t_max: group.t_max,
            seed,
            group,
            durable,
            replicas: replicas.max(1),
            locate_cache,
            geo,
            dead_sent: 0,
            dead_received: 0,
        };
        for i in 0..n {
            let bootstrap = if i == 0 { None } else { Some(cluster.addrs[0]) };
            let node = Node::spawn(cluster.config_for(i, bootstrap))?;
            cluster.addrs.push(node.addr());
            cluster.nodes.push(Some(node));
            cluster.wait_members(i + 1)?;
        }
        Ok(cluster)
    }

    fn config_for(&self, i: usize, bootstrap: Option<SocketAddr>) -> NodeConfig {
        let mut cfg = NodeConfig::loopback(site_id(i), self.seed, bootstrap);
        cfg.group = self.group;
        if let Some(setup) = &self.durable {
            cfg.data_dir = Some(setup.root.join(format!("site-{i}")));
            cfg.fsync = setup.fsync;
            cfg.snapshot_every = setup.snapshot_every;
        }
        cfg.replicas = self.replicas;
        cfg.locate_cache = self.locate_cache;
        cfg.geo = self.geo.clone();
        cfg
    }

    /// Sever the region pair `(a, b)` cluster-wide: every live node
    /// parks its protocol frames across the pair until
    /// [`LoopbackCluster::region_heal`]. Geo clusters only. No quiesce
    /// needed — parked frames are excluded from the sent/received
    /// balance, so a cut cluster still quiesces between operations.
    pub fn region_cut(&mut self, a: u16, b: u16) -> io::Result<()> {
        assert!(self.geo.is_some(), "region_cut requires a geo cluster");
        assert_ne!(a, b, "a region cannot be cut from itself");
        self.broadcast_region(&Frame::RegionCut { a, b })
    }

    /// Heal the region pair `(a, b)`: every live node releases its
    /// parked frames in original order, then the harness waits for the
    /// released traffic to drain (quiesce).
    pub fn region_heal(&mut self, a: u16, b: u16) -> io::Result<()> {
        assert!(self.geo.is_some(), "region_heal requires a geo cluster");
        self.broadcast_region(&Frame::RegionHeal { a, b })?;
        self.quiesce()
    }

    fn broadcast_region(&mut self, frame: &Frame) -> io::Result<()> {
        for i in 0..self.nodes.len() {
            if self.nodes[i].is_none() {
                continue;
            }
            let reply = self.ctl_request(site_id(i), frame)?;
            expect_ack(reply)?;
        }
        Ok(())
    }

    /// Read site `i`'s query-load accounting: `(loads, hits, misses)`
    /// where `loads` attributes each locate that node originated to the
    /// site that answered it, and the counters are its locate-cache's.
    /// Merging every node's `loads` reproduces the simulator's per-site
    /// served-locate tally.
    pub fn query_load(&mut self, i: usize) -> io::Result<(Vec<(SiteId, u64)>, u64, u64)> {
        match self.ctl_request(site_id(i), &Frame::QueryLoad)? {
            Frame::QueryLoadResp { loads, hits, misses } => Ok((loads, hits, misses)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected query-load reply: {other:?}"),
            )),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for an empty cluster (never constructed by [`start`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The listener address of site `i`.
    pub fn addr(&self, i: usize) -> SocketAddr {
        self.addrs[i]
    }

    fn ctl_request(&mut self, site: SiteId, frame: &Frame) -> io::Result<Frame> {
        let addr = self.addrs[site.0 as usize];
        let raw = self.ctl.request(addr, &frame.encode())?;
        Frame::decode(&raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Status of every *live* node (crashed slots are skipped — their
    /// counters are frozen on disk, not reachable over a socket).
    fn statuses(&mut self) -> io::Result<Vec<(u32, u64, u64)>> {
        let mut out = Vec::with_capacity(self.nodes.len());
        for i in 0..self.nodes.len() {
            if self.nodes[i].is_none() {
                continue;
            }
            match self.ctl_request(site_id(i), &Frame::Status)? {
                Frame::StatusResp { members, sent, received, .. } => {
                    out.push((members, sent, received));
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected status reply: {other:?}"),
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Poll until every running node reports `expect` members.
    fn wait_members(&mut self, expect: usize) -> io::Result<()> {
        let start = Instant::now();
        loop {
            let ok = self.statuses()?.iter().all(|&(m, _, _)| m as usize == expect);
            if ok {
                return Ok(());
            }
            if start.elapsed() > SETTLE_TIMEOUT {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("membership did not converge to {expect}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Wait until the protocol plane is drained: the cluster-wide sums
    /// of sent and received frames are equal and stable across two
    /// consecutive polls.
    pub fn quiesce(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let mut prev: Option<(u64, u64)> = None;
        loop {
            let sums = self.statuses()?.iter().fold(
                (self.dead_sent, self.dead_received),
                |(s, r), &(_, ns, nr)| (s + ns, r + nr),
            );
            if sums.0 == sums.1 && prev == Some(sums) {
                return Ok(());
            }
            prev = Some(sums);
            if start.elapsed() > SETTLE_TIMEOUT {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("protocol plane did not quiesce: {sums:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Drive a workload schedule to completion: captures in time order,
    /// window flushes injected at the instants the simulator's `Tmax`
    /// timers would fire, trailing windows closed at their deadlines.
    /// Returns with the cluster quiescent.
    pub fn run_schedule(&mut self, events: &[CaptureEvent]) -> io::Result<()> {
        let mut cursor = ScheduleCursor::new(events);
        self.run_cursor(&mut cursor, usize::MAX)?;
        Ok(())
    }

    /// Advance a [`ScheduleCursor`] by at most `max_ops` operations (an
    /// operation is one capture injection or one timer flush), then
    /// quiesce. Returns the number performed — less than `max_ops`
    /// exactly when the schedule drained, `0` when it was already done.
    /// Because every return is quiescent, any boundary is a safe place
    /// to [`LoopbackCluster::crash`] a node.
    pub fn run_cursor(
        &mut self,
        cursor: &mut ScheduleCursor,
        max_ops: usize,
    ) -> io::Result<usize> {
        let mut ops = 0;
        while ops < max_ops {
            let due = self
                .deadlines
                .iter()
                .enumerate()
                .filter_map(|(s, d)| d.map(|(t, seq)| (t, seq, s)))
                .min();
            match (due, cursor.evs.get(cursor.i)) {
                // A timer fires strictly before the next capture. At a
                // tie the capture runs first: it was scheduled at t=0,
                // before the timer was armed, and the simulator's event
                // queue breaks ties by schedule order.
                (Some((t, _, s)), Some(e)) if t < e.at => self.fire_flush(s, t)?,
                (_, Some(e)) => {
                    let e = e.clone();
                    cursor.i += 1;
                    self.fire_capture(&e)?;
                }
                (Some((t, _, s)), None) => self.fire_flush(s, t)?,
                (None, None) => break,
            }
            ops += 1;
        }
        self.quiesce()?;
        Ok(ops)
    }

    fn fire_capture(&mut self, e: &CaptureEvent) -> io::Result<()> {
        let idx = e.site.0 as usize;
        let mut flushed_by_count = false;
        for &o in &e.objects {
            match self.mirrors[idx].push(o, e.at) {
                WindowEvent::ArmTimer => {
                    self.deadlines[idx] = Some((e.at + self.t_max, self.next_arm));
                    self.next_arm += 1;
                }
                WindowEvent::Buffered => {}
                WindowEvent::FlushByCount(_) => {
                    self.deadlines[idx] = None;
                    flushed_by_count = true;
                }
            }
        }
        let reply = self
            .ctl_request(e.site, &Frame::Capture { at: e.at, objects: e.objects.clone() })?;
        expect_ack(reply)?;
        if flushed_by_count {
            self.quiesce()?;
        }
        Ok(())
    }

    fn fire_flush(&mut self, idx: usize, now: SimTime) -> io::Result<()> {
        self.deadlines[idx] = None;
        let batch = self.mirrors[idx].flush(now);
        let reply = self.ctl_request(site_id(idx), &Frame::Flush { now })?;
        expect_ack(reply)?;
        if batch.is_some() {
            self.quiesce()?;
        }
        Ok(())
    }

    /// `L(o, t)` asked at `origin`, over the real sockets.
    pub fn locate(
        &mut self,
        origin: SiteId,
        object: ObjectId,
        t: SimTime,
    ) -> io::Result<(Option<SiteId>, CostWire, bool)> {
        match self.ctl_request(origin, &Frame::Locate { object, t })? {
            Frame::LocateResp { answer, cost, complete } => Ok((answer, cost, complete)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected locate reply: {other:?}"),
            )),
        }
    }

    /// `TR(o, t0, t1)` asked at `origin`, over the real sockets.
    pub fn trace(
        &mut self,
        origin: SiteId,
        object: ObjectId,
        t0: SimTime,
        t1: SimTime,
    ) -> io::Result<(Path, CostWire, bool)> {
        match self.ctl_request(origin, &Frame::Trace { object, t0, t1 })? {
            Frame::TraceResp { path, cost, complete } => Ok((path, cost, complete)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected trace reply: {other:?}"),
            )),
        }
    }

    /// Kill node `i` abruptly (no final snapshot, no WAL sync, volatile
    /// state abandoned) and collect the report of its dead life. The
    /// slot stays empty until [`LoopbackCluster::restart`].
    pub fn crash(&mut self, i: usize) -> io::Result<NodeReport> {
        let node = self.nodes[i].take().expect("crash of a live node");
        let reply = self.ctl_request(site_id(i), &Frame::Crash)?;
        expect_ack(reply)?;
        Ok(node.join())
    }

    /// Kill node `i` **forever**: flush its open capture window (its
    /// observations must reach the index before it dies, exactly like
    /// the simulator's `kill_forever`), quiesce, crash it, then
    /// broadcast [`Frame::PeerDead`] so every survivor drops it from
    /// the membership, fails its key ranges over to the heir and
    /// re-establishes replica placement. The slot stays empty for good
    /// — no restart. Requires a replicated cluster (`k > 1`).
    pub fn kill_forever(&mut self, i: usize) -> io::Result<NodeReport> {
        assert!(self.replicas > 1, "kill_forever requires a replicated cluster");
        if let Some((t, _)) = self.deadlines[i] {
            self.fire_flush(i, t)?;
        }
        self.quiesce()?;
        let node = self.nodes[i].take().expect("kill_forever of a live node");
        let reply = self.ctl_request(site_id(i), &Frame::Crash)?;
        expect_ack(reply)?;
        let report = node.join();
        self.dead_sent += report.sent;
        self.dead_received += report.received;
        let live: Vec<usize> =
            (0..self.nodes.len()).filter(|&j| self.nodes[j].is_some()).collect();
        for &j in &live {
            let reply = self.ctl_request(site_id(j), &Frame::PeerDead { site: site_id(i) })?;
            expect_ack(reply)?;
        }
        self.wait_members(live.len())?;
        self.quiesce()?;
        Ok(report)
    }

    /// Restart a crashed node from its data directory. The node binds a
    /// fresh ephemeral port, recovers snapshot + WAL tail, and rejoins
    /// through any live peer; the call returns only once every live
    /// peer resolves the site to its new address (so no subsequent
    /// message dials the dead one). Durable clusters only.
    pub fn restart(&mut self, i: usize) -> io::Result<()> {
        assert!(self.nodes[i].is_none(), "restart of a live node");
        assert!(self.durable.is_some(), "restart requires a durable cluster");
        let bootstrap = self
            .nodes
            .iter()
            .enumerate()
            .find(|(j, n)| *j != i && n.is_some())
            .map(|(j, _)| self.addrs[j]);
        let node = Node::spawn(self.config_for(i, bootstrap))?;
        self.addrs[i] = node.addr();
        self.nodes[i] = Some(node);
        self.wait_addr_convergence(i)
    }

    /// The canonical state encoding of node `i` (addresses excluded),
    /// fetched over the socket.
    pub fn state_dump(&mut self, i: usize) -> io::Result<Vec<u8>> {
        match self.ctl_request(site_id(i), &Frame::StateDump)? {
            Frame::StateResp(state) => Ok(state),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected state dump reply: {other:?}"),
            )),
        }
    }

    /// Poll every live peer until it resolves site `i` to the address
    /// the cluster has on file (i.e. the rejoin broadcast landed).
    fn wait_addr_convergence(&mut self, i: usize) -> io::Result<()> {
        let want = self.addrs[i].to_string();
        let peers: Vec<usize> = (0..self.nodes.len())
            .filter(|&j| j != i && self.nodes[j].is_some())
            .collect();
        let start = Instant::now();
        loop {
            let mut ok = true;
            for &j in &peers {
                let resolve = Frame::Resolve { site: site_id(i) };
                match self.ctl_request(site_id(j), &resolve)? {
                    Frame::AddrResp(Some(a)) if a == want => {}
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                return Ok(());
            }
            if start.elapsed() > SETTLE_TIMEOUT {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("peers did not learn site {i}'s new address"),
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stop every live node and collect its report (metrics, anomalies,
    /// latency recorder), in site order. Crashed, un-restarted nodes
    /// already returned their report from [`LoopbackCluster::crash`].
    pub fn shutdown(mut self) -> io::Result<Vec<NodeReport>> {
        let mut reports = Vec::with_capacity(self.nodes.len());
        let nodes = std::mem::take(&mut self.nodes);
        for node in nodes.into_iter().flatten() {
            let reply = self.ctl_request(node.site(), &Frame::Shutdown)?;
            expect_ack(reply)?;
            reports.push(node.join());
        }
        self.ctl.close_all();
        Ok(reports)
    }
}

fn expect_ack(reply: Frame) -> io::Result<()> {
    match reply {
        Frame::Ack => Ok(()),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected ack, got {other:?}"),
        )),
    }
}
