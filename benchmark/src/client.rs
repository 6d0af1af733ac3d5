//! The daemon fixture shared by the three daemon workloads and the lab:
//! a 3-node in-process loopback cluster with `peertrackd`'s defaults
//! (bar the fsync policy, below), and a blocking client that times each
//! step of a request.
//!
//! Sizing (see README, "Sandbox caveats"): the sandbox has two cores,
//! so the cluster has three nodes and the benchmark never drives it
//! with more than two load-generating client threads, all from this
//! one process.

use crate::harness::Fatal;
use crate::spans::Tracer;
use daemon::{Frame, LoopbackCluster, NodeReport};
use durable::FsyncMode;
use peertrack::config::GroupConfig;
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Duration;
use transport::frame::{read_frame, write_frame};

/// Nodes in every daemon fixture.
pub const NODES: usize = 3;
/// Most client threads / connections any workload uses at once.
pub const MAX_CLIENTS: usize = 2;
/// Ring identity of the fixture. Fixed, not taken from `--seed`: with
/// three sites the share of the key space each one owns swings between
/// 5 % and 80 % from seed to seed, which would make the local/remote
/// query mix — not the program — decide the result. Seed 23 gives arcs
/// of 0.33 / 0.37 / 0.30. `--seed` drives every *input* instead.
pub const CLUSTER_SEED: u64 = 23;
/// The workloads' WAL policy: every record is written through to the
/// file before its ack, and never fsynced - `peertrackd`'s default
/// (`Batch`) minus the `fdatasync` call itself; the group-commit path
/// (stage the replies, commit the batch, release them) runs either way.
/// On this sandbox one `fdatasync` is 80-250 us of shared virtual disk,
/// twenty times the rest of the ack path, and its cost drifts: three
/// 12 s `daemon_ingest` runs with `Batch` within ten minutes gave 8 480,
/// 8 140 and 6 960 acks/s where the bound is 0.10, and no change to the
/// program could have moved them. Process-crash durability - what the
/// workloads check - does not need the fsync. The lab measures the
/// fsync itself and `daemon_ingest`'s load on a `Batch` cluster.
pub const WORKLOAD_FSYNC: FsyncMode = FsyncMode::Never;
pub const SNAPSHOT_EVERY: u64 = 1_000_000;
/// An operation with no reply after this long counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// Facts about the fixture and the host, for the run's `env` block.
pub fn env_lines() -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let g = GroupConfig::default();
    vec![
        format!("nproc={nproc} kernel={}", kernel.trim()),
        format!(
            "daemon fixture: {NODES} nodes in-process, <= {MAX_CLIENTS} client threads/connections, \
             WAL write-through without fsync (the lab measures fsync and a fsync=batch cluster), \
             snapshot_every={SNAPSHOT_EVERY}, replicas=1, \
             n_max={} (GroupConfig::default), ring seed {CLUSTER_SEED}, loopback TCP (not a link); \
             while a daemon workload runs, one SCHED_IDLE spinner per core keeps the vCPUs from halting",
            g.n_max
        ),
    ]
}

/// The load generator needs a core per client thread to be honest: with
/// fewer, the clients queue behind each other and the numbers measure
/// the host's scheduler. The A/A check refuses such a host.
pub fn clients_fit_host() -> Result<(), Fatal> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if MAX_CLIENTS > nproc {
        return Err(format!("{MAX_CLIENTS} client threads exceed nproc={nproc}"));
    }
    Ok(())
}

/// Start the durable fixture under `dir`, with a locate cache of
/// `cache` entries per node when given. A bind failure is fatal, never
/// a skip: a daemon workload that cannot run has failed.
pub fn start_cluster(
    dir: &Path,
    cache: Option<usize>,
    fsync: FsyncMode,
) -> Result<LoopbackCluster, Fatal> {
    let group = GroupConfig::default();
    let started = match cache {
        Some(cap) => LoopbackCluster::start_durable_cached(
            NODES,
            CLUSTER_SEED,
            group,
            dir,
            fsync,
            SNAPSHOT_EVERY,
            cap,
        ),
        None => {
            LoopbackCluster::start_durable(NODES, CLUSTER_SEED, group, dir, fsync, SNAPSHOT_EVERY)
        }
    };
    started.map_err(|e| {
        format!("cannot start the loopback cluster (are loopback sockets allowed?): {e}")
    })
}

/// Turns an I/O error met while driving the fixture into the fatal
/// message of `workload`.
pub fn io_fatal<'a>(workload: &'a str, what: &'a str) -> impl Fn(io::Error) -> Fatal + 'a {
    move |e| format!("{workload}: {what}: {e}")
}

/// Totals over the nodes' exit reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct Exit {
    pub unsupported: u64,
    pub anomalies: u64,
    pub backpressure_parks: u64,
}

impl Exit {
    /// The per-layer counts every daemon workload reports.
    pub fn record(&self, layer: &mut BTreeMap<&'static str, f64>) {
        layer.insert("engine.unsupported", self.unsupported as f64);
        layer.insert("engine.anomalies", self.anomalies as f64);
        layer.insert("engine.backpressure_parks", self.backpressure_parks as f64);
    }
}

pub fn fold_reports(reports: &[NodeReport]) -> Exit {
    let mut e = Exit::default();
    for r in reports {
        let a = &r.anomalies;
        e.unsupported += r.unsupported;
        e.anomalies += a.out_of_order_arrivals
            + a.dangling_iop_updates
            + a.dropped_to_dead
            + a.retries_exhausted
            + a.duplicates_suppressed
            + a.refresh_failures;
        e.backpressure_parks += r.backpressure_parks;
    }
    e
}

/// Sum of the WAL files of every site under `dir`.
pub fn wal_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for i in 0..NODES {
        total += std::fs::metadata(dir.join(format!("site-{i}")).join(durable::WAL_FILE))?.len();
    }
    Ok(total)
}

/// One blocking connection to a node.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(OP_TIMEOUT))?;
        stream.set_write_timeout(Some(OP_TIMEOUT))?;
        Ok(Client { stream })
    }

    /// Send `frame` and wait for its reply, with a child span around
    /// each call into a layer. The caller owns the root span.
    pub fn call(&mut self, frame: &Frame, tr: &mut Tracer) -> io::Result<Frame> {
        self.send(frame, tr)?;
        self.recv(tr)
    }

    /// The sending half of [`Client::call`] (open-loop writers send
    /// without waiting).
    pub fn send(&mut self, frame: &Frame, tr: &mut Tracer) -> io::Result<()> {
        let payload = tr.leaf("client.encode", || frame.encode());
        tr.count("client.bytes_out", payload.len() as u64);
        tr.leaf("client.write", || write_frame(&mut self.stream, &payload))
    }

    /// The receiving half of [`Client::call`].
    pub fn recv(&mut self, tr: &mut Tracer) -> io::Result<Frame> {
        let raw = tr
            .leaf("client.wait_read", || read_frame(&mut self.stream))?
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "node closed the connection",
                )
            })?;
        tr.count("client.bytes_in", raw.len() as u64);
        tr.leaf("client.decode", || Frame::decode(&raw))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// A second handle on the same socket (reader half of an open-loop
    /// client).
    pub fn try_clone(&self) -> io::Result<Client> {
        Ok(Client {
            stream: self.stream.try_clone()?,
        })
    }
}

/// Close every node's open capture window at virtual instant `now` and
/// wait for the indexing traffic to drain.
pub fn flush_all(cluster: &mut LoopbackCluster, now: simnet::SimTime) -> io::Result<()> {
    let mut tr = Tracer::off();
    for i in 0..cluster.len() {
        let reply = Client::connect(cluster.addr(i))?.call(&Frame::Flush { now }, &mut tr)?;
        if !matches!(reply, Frame::Ack) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("flush refused: {reply:?}"),
            ));
        }
    }
    cluster.quiesce()
}

/// `(sent, received)` protocol-plane frame totals over all nodes.
pub fn protocol_frames(cluster: &LoopbackCluster) -> io::Result<(u64, u64)> {
    let mut tr = Tracer::off();
    let mut totals = (0, 0);
    for i in 0..cluster.len() {
        match Client::connect(cluster.addr(i))?.call(&Frame::Status, &mut tr)? {
            Frame::StatusResp { sent, received, .. } => {
                totals.0 += sent;
                totals.1 += received;
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("status refused: {other:?}"),
                ))
            }
        }
    }
    Ok(totals)
}
