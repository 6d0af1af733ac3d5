//! Layer replay for the daemon workloads: push a workload's own inputs
//! through the public functions the engines call for them — the chain
//! `Frame::decode` → `WalRecord::encode` → `DataDir::append_deferred` →
//! `Core::apply_record` → `take_outbox` → protocol-frame encode, the
//! peer's side of every message that produces, `DataDir::sync` (a no-op
//! under the workloads' fsync policy, as in the live engines), and the
//! reply's encode — single-threaded, with a span around each call.
//!
//! The summed self time of those spans is the work the layers did for
//! the workload ("busy"). Set against the time the clients waited for
//! the same operations, what is left over is *waiting*: idle-loop
//! sleeps, read timeouts, thread wake-ups and scheduling. That split is
//! what says whether a faster layer can move an end-to-end number.
//!
//! The query walk itself is private to the engine, so a query's replay
//! is its frame codec and WAL record plus, per model message the origin
//! charged (`CostWire`), one RPC's worth of frame codec and record
//! lookup.

use crate::client;
use crate::harness::Cx;
use crate::spans::{self, Tracer};
use daemon::{Core, CostWire, Frame, WalRecord};
use durable::DataDir;
use moods::{ObjectId, SiteId};
use peertrack::config::GroupConfig;
use peertrack::store::{IopRecord, IopStore};
use simnet::time::secs;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::PathBuf;

/// Layers busy time is attributed to. A span named
/// `replay.<layer>.<call>`, `world.<call>` or `flat.<call>` belongs to
/// `<layer>`, `world` or `flat`.
pub const LAYERS: [&str; 7] = ["proto", "wal", "core", "codec", "rpc", "world", "flat"];
/// The per-layer metric carrying each layer's share, same order.
pub const SHARE_METRICS: [&str; 7] = [
    "busy_share.proto",
    "busy_share.wal",
    "busy_share.core",
    "busy_share.codec",
    "busy_share.rpc",
    "busy_share.world",
    "busy_share.flat",
];

/// Seconds of span self time per layer.
pub fn busy_by_layer(all: &[spans::Span]) -> BTreeMap<&'static str, f64> {
    let mut busy: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    for (name, t) in spans::self_times(all) {
        let layer = name
            .strip_prefix("replay.")
            .unwrap_or(name)
            .split('.')
            .next()
            .unwrap_or("");
        if let Some(slot) = busy.get_mut(layer) {
            *slot += t.self_ns as f64 / 1e9;
        }
    }
    busy
}

/// Three socket-free nodes with real data directories.
pub struct Replay {
    cores: Vec<Core>,
    data: Vec<DataDir>,
    dirty: Vec<bool>,
    dir: PathBuf,
    /// A preloaded repository for the per-RPC record lookups.
    store: IopStore,
    known: Vec<ObjectId>,
}

impl Replay {
    pub fn new(cx: &Cx) -> io::Result<Replay> {
        let dir = cx.scratch("replay")?;
        let addr = |i: usize| format!("127.0.0.1:{}", 9_100 + i);
        let mut cores = Vec::new();
        let mut data = Vec::new();
        for i in 0..client::NODES {
            let mut core = Core::new(
                SiteId(i as u32),
                client::CLUSTER_SEED,
                GroupConfig::default(),
                addr(i).parse().expect("literal address"),
            );
            for j in (0..client::NODES).filter(|&j| j != i) {
                core.apply_record(&WalRecord::Member {
                    site: SiteId(j as u32),
                    addr: addr(j),
                });
            }
            core.take_outbox();
            cores.push(core);
            data.push(DataDir::open(&dir.join(format!("site-{i}")), client::WORKLOAD_FSYNC)?.0);
        }
        Ok(Replay {
            cores,
            data,
            dirty: vec![false; client::NODES],
            dir,
            store: IopStore::new(),
            known: Vec::new(),
        })
    }

    /// One control frame (`Capture` or `Flush`) arriving at `site`, up
    /// to and including its ack.
    pub fn control(&mut self, site: usize, frame: &Frame, tr: &mut Tracer) -> io::Result<()> {
        let raw = frame.encode();
        let op = tr.open("replay.op");
        let decoded = tr
            .leaf("replay.proto.decode", || Frame::decode(&raw))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let rec = match decoded {
            Frame::Capture { at, objects } => {
                for &o in &objects {
                    self.store.capture(o, at);
                    self.known.push(o);
                }
                WalRecord::Capture { at, objects }
            }
            Frame::Flush { now } => WalRecord::Flush { now },
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("not a control frame: {other:?}"),
                ))
            }
        };
        self.log_apply(site, rec, tr)?;
        // Group commit: one sync per node that logged anything, then the ack.
        for i in 0..self.data.len() {
            if std::mem::take(&mut self.dirty[i]) {
                tr.leaf("replay.wal.sync", || self.data[i].sync())?;
            }
        }
        tr.leaf("replay.proto.encode_reply", || Frame::Ack.encode());
        tr.close(op);
        Ok(())
    }

    /// Log and apply `rec` at `site`, then deliver everything it emits,
    /// and everything *that* emits, the way the engines would.
    fn log_apply(&mut self, site: usize, rec: WalRecord, tr: &mut Tracer) -> io::Result<()> {
        let mut queue = VecDeque::from([(site, rec)]);
        while let Some((at, rec)) = queue.pop_front() {
            let bytes = tr.leaf("replay.proto.record_encode", || rec.encode());
            tr.leaf("replay.wal.append", || {
                self.data[at].append_deferred(&bytes)
            })?;
            self.dirty[at] = true;
            tr.leaf("replay.core.apply", || self.cores[at].apply_record(&rec));
            let outbox = tr.leaf("replay.core.outbox", || self.cores[at].take_outbox());
            tr.count("replay.outbound", outbox.len() as u64);
            for out in outbox {
                let frame = Frame::Protocol {
                    sender: SiteId(at as u32),
                    hops: out.hops,
                    sent_us: 0,
                    wire: out.wire,
                };
                let raw = tr.leaf("replay.codec.encode", || frame.encode());
                let inbound = tr
                    .leaf("replay.codec.decode", || Frame::decode(&raw))
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                if let Frame::Protocol { sender, wire, .. } = inbound {
                    queue.push_back((out.to.0 as usize, WalRecord::Protocol { sender, wire }));
                }
            }
        }
        Ok(())
    }

    /// `queries` locates/traces answered at one origin, which together
    /// charged `model_msgs` model messages (one RPC each).
    pub fn queries(&mut self, queries: u64, model_msgs: u64, tr: &mut Tracer) -> io::Result<()> {
        let probe = *self
            .known
            .first()
            .ok_or_else(|| io::Error::other("replay: no captured object to query"))?;
        let request = Frame::Locate {
            object: probe,
            t: secs(1),
        }
        .encode();
        let reply = Frame::LocateResp {
            answer: Some(SiteId(1)),
            cost: CostWire {
                messages: 2,
                hops: 2,
                bytes: 64,
            },
            complete: true,
        };
        for _ in 0..queries {
            let op = tr.open("replay.op");
            tr.leaf("replay.proto.decode", || Frame::decode(&request))
                .ok();
            let rec = WalRecord::Query {
                messages: 2,
                hops: 2,
                bytes: 64,
            };
            let bytes = tr.leaf("replay.proto.record_encode", || rec.encode());
            tr.leaf("replay.wal.append", || self.data[0].append_deferred(&bytes))?;
            tr.leaf("replay.core.apply", || self.cores[0].apply_record(&rec));
            tr.leaf("replay.wal.sync", || self.data[0].sync())?;
            tr.leaf("replay.proto.encode_reply", || reply.encode());
            tr.close(op);
        }
        for k in 0..model_msgs as usize {
            let object = self.known[k % self.known.len()];
            let op = tr.open("replay.op");
            tr.leaf("replay.rpc.exchange", || {
                let ask = Frame::RecLatestAtOrBefore {
                    object,
                    t: secs(1_000_000),
                }
                .encode();
                let found: Option<IopRecord> = match Frame::decode(&ask) {
                    Ok(Frame::RecLatestAtOrBefore { object, t }) => {
                        self.store.latest_at_or_before(object, t).copied()
                    }
                    _ => None,
                };
                let answer = Frame::RecResp(found).encode();
                std::hint::black_box(Frame::decode(&answer).is_ok())
            });
            tr.close(op);
        }
        Ok(())
    }

    /// Remove the scratch data directories.
    pub fn finish(self) -> io::Result<()> {
        drop(self.data);
        std::fs::remove_dir_all(self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn spans_are_attributed_to_their_layer() {
        let span = |id, name, start_ns, end_ns| spans::Span {
            id,
            parent: spans::NO_PARENT,
            op: id,
            name,
            tid: 0,
            start_ns,
            end_ns,
        };
        let busy = busy_by_layer(&[
            span(1, "replay.wal.append", 0, 1_000),
            span(2, "replay.wal.sync", 0, 2_000),
            span(3, "replay.core.apply", 0, 500),
            span(4, "world.run", 0, 4_000),
            span(5, "flat.run", 0, 8_000),
            span(6, "client.wait_read", 0, 1_000_000),
        ]);
        assert_eq!(busy["wal"], 3e-6);
        assert_eq!(busy["core"], 5e-7);
        assert_eq!(busy["world"], 4e-6);
        assert_eq!(busy["flat"], 8e-6);
        assert_eq!(busy["proto"] + busy["codec"] + busy["rpc"], 0.0);
    }

    #[test]
    fn replayed_captures_flush_and_fan_out_like_the_engines() {
        let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join("test-replay");
        let cx = Cx {
            seed: 5,
            quick: true,
            out_dir: out_dir.clone(),
        };
        let mut replay = Replay::new(&cx).unwrap();
        let mut tr = Tracer::on(std::time::Instant::now(), 0);
        let n_max = GroupConfig::default().n_max;
        for k in 0..n_max + 10 {
            let f = Frame::Capture {
                at: secs(10),
                objects: vec![gen::object(7, k as u64)],
            };
            replay.control(0, &f, &mut tr).unwrap();
        }
        replay.queries(3, 5, &mut tr).unwrap();
        // The n_max-th capture closed a window: group messages went out
        // and their gateways answered with IOP updates.
        assert!(tr.counts()["replay.outbound"] >= 2, "{:?}", tr.counts());
        let times = spans::self_times(tr.spans());
        assert_eq!(times["replay.op"].spans, (n_max + 10 + 3 + 5) as u64);
        assert!(times["replay.codec.encode"].spans >= 2);
        assert_eq!(times["replay.rpc.exchange"].spans, 5);
        let busy = busy_by_layer(tr.spans());
        assert!(busy["wal"] > 0.0 && busy["core"] > 0.0 && busy["proto"] > 0.0);
        replay.finish().unwrap();
        std::fs::remove_dir_all(out_dir).unwrap();
    }
}
