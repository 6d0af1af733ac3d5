//! The layer lab: every per-layer *timing*, measured from outside by
//! calling a layer's public functions on seed-generated inputs of the
//! sizes the workloads feed it ("layer replay"), plus small live
//! fixtures — a lab world, a lab flat run, a lab cluster — for the
//! numbers only a running system has. The lab cluster runs with
//! `FsyncMode::Batch`, `peertrackd`'s default, so the fsynced paths the
//! workloads leave out (see `client::WORKLOAD_FSYNC`) are measured here.
//!
//! The lab runs in every traced run, whatever the workload, so each of
//! these metrics is present and measured on every `--trace 1` line. A
//! traced run of *all* workloads runs it once and hands the values to
//! its children ([`save`] / [`measured`]).
//! Each timing is the best of [`BATCHES`] batches (interference only
//! adds time). Exact counts are marked as such in `metrics.rs`.

use crate::client::{self, Client};
use crate::flat_scale;
use crate::gen;
use crate::harness::{Cx, Fatal};
use crate::spans::Tracer;
use chord::Ring;
use daemon::node::chord_id_for;
use daemon::{Core, Frame, WalRecord};
use detrand::Rng;
use durable::{DataDir, FsyncMode};
use ids::{EpcCode, Id, Interner, Prefix};
use moods::{Locate, MovementLog, ObjectId, SiteId, Trace};
use peertrack::config::GroupConfig;
use peertrack::grouping::group_batch;
use peertrack::messages::{Msg, Wire};
use peertrack::store::{IndexEntry, IopStore, Link, PrefixIndex};
use peertrack::triangle::TriangleCover;
use peertrack::window::{WindowBuffer, WindowEvent};
use peertrack::{codec, Builder};
use simnet::metrics::ALL_CLASSES;
use simnet::shard::{run_sharded, ShardConfig, ShardCtx, ShardWorld};
use simnet::time::secs;
use simnet::{CalendarQueue, MsgClass, Sim, SimConfig, SimTime, World};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Cursor;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;
use transport::frame::{read_frame, write_frame};
use transport::{FrameAccum, NbConn};
use workload::paper::PaperWorkload;

/// Batches per timing; the fastest is reported.
const BATCHES: usize = 5;

/// Lab results, by per-layer metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Best-of-batches nanoseconds per call of `f` (called `iters` times
/// per batch with the call index).
fn ns_per_op(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for i in 0..iters {
            f(i);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Best-of-batches seconds of one call of `f`, with fresh state from
/// `setup` each time.
fn best_s<S, T>(mut setup: impl FnMut() -> S, mut f: impl FnMut(S) -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let state = setup();
        let t = Instant::now();
        black_box(f(state));
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn objects(home: u32, n: usize) -> Vec<ObjectId> {
    (0..n as u64).map(|i| gen::object(home, i)).collect()
}

/// Where a parent that has already run the lab leaves its values.
const HANDED_DOWN: &str = "PTBENCH_LAB";

/// The lab's values: handed down by the parent process if there is
/// one, measured now otherwise.
pub fn measured(cx: &Cx) -> Result<Values, Fatal> {
    let Ok(path) = std::env::var(HANDED_DOWN) else {
        return run(cx);
    };
    let bad = |e: String| format!("lab values in {path}: {e}");
    let text = std::fs::read_to_string(&path).map_err(|e| bad(e.to_string()))?;
    let doc = crate::json::parse(&text).map_err(bad)?;
    println!("# lab: values measured once by the parent run ({path})");
    crate::metrics::PER_LAYER
        .iter()
        .filter(|m| m.source == crate::metrics::Source::Lab)
        .map(|m| {
            let v = doc.get(m.name).and_then(|v| v.as_f64());
            Ok((m.name, v.ok_or_else(|| bad(format!("no {}", m.name)))?))
        })
        .collect()
}

/// Run the lab and leave its values in `path` for every child process
/// started from now on.
pub fn hand_down(cx: &Cx, path: &std::path::Path) -> Result<(), Fatal> {
    use crate::json::Json;
    let values = run(cx)?;
    let doc = Json::Obj(
        values
            .iter()
            .map(|(name, v)| (name.to_string(), Json::Num(*v)))
            .collect(),
    );
    std::fs::write(path, doc.encode())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    std::env::set_var(HANDED_DOWN, path);
    Ok(())
}

/// Run the whole lab.
fn run(cx: &Cx) -> Result<Values, Fatal> {
    let mut v = Values::new();
    let mut t = Instant::now();
    let mut lap = |what: &str| {
        println!("# lab: {what} took {:.2} s", t.elapsed().as_secs_f64());
        t = Instant::now();
    };
    ids_and_chord(cx, &mut v);
    lap("ids, chord");
    codec_store_grouping(cx, &mut v);
    lap("codec, store, grouping, triangle");
    simnet_layers(cx, &mut v);
    lap("simnet");
    durable_layer(cx, &mut v).map_err(|e| format!("lab: durable: {e}"))?;
    lap("durable");
    transport_layer(&mut v).map_err(|e| format!("lab: transport: {e}"))?;
    lap("transport");
    proto_state_core(cx, &mut v);
    lap("proto, state, core");
    qcache_obs(cx, &mut v);
    lap("qcache, obs");
    lab_world(cx, &mut v);
    lap("lab world");
    lab_flat(cx, &mut v);
    lap("lab flat");
    lab_cluster(cx, &mut v)?;
    lap("lab cluster");
    Ok(v)
}

// ---------------------------------------------------------------- ids, chord

fn ids_and_chord(cx: &Cx, v: &mut Values) {
    v.insert(
        "ids.object_id_ns",
        ns_per_op(20_000, |i| {
            let epc = EpcCode::new(1, 5, 100_001, 1, i as u64).expect("in range");
            black_box(epc.object_id());
        }),
    );
    let ids: Vec<Id> = objects(1, 50_000).iter().map(|o| o.id()).collect();
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let mut table = Interner::with_capacity(16);
        let t = Instant::now();
        for id in &ids {
            black_box(table.intern(id));
        }
        best = best.min(t.elapsed().as_nanos() as f64 / ids.len() as f64);
    }
    v.insert("ids.intern_ns", best);

    // The paper's 512-node ring, looked up with workload keys.
    let ring = ring_of(cx.seed, 512);
    let nodes: Vec<Id> = ring.node_ids().collect();
    let keys: Vec<Id> = objects(2, 4_096)
        .iter()
        .map(|o| Prefix::of_id(&o.id(), 13).gateway_id())
        .collect();
    let mut hops = 0u64;
    v.insert(
        "chord.lookup_ns",
        ns_per_op(keys.len(), |i| {
            let r = ring
                .lookup(nodes[i % nodes.len()], keys[i])
                .expect("converged ring");
            hops += r.hops as u64;
            black_box(r.owner);
        }),
    );
    v.insert(
        "chord.lookup_hops",
        hops as f64 / (keys.len() * BATCHES) as f64,
    );
    // The daemon's local-replica gateway resolve on its 3-node ring.
    let small = ring_of(client::CLUSTER_SEED, client::NODES);
    v.insert(
        "chord.successor_of_ns",
        ns_per_op(keys.len(), |i| {
            black_box(small.successor_of(&keys[i]));
        }),
    );
}

/// A converged ring of `n` sites with the simulator's id derivation.
fn ring_of(seed: u64, n: usize) -> Ring {
    let mut ring = Ring::new();
    let first = chord_id_for(seed, SiteId(0));
    ring.bootstrap(first, 0);
    for i in 1..n {
        ring.join(first, chord_id_for(seed, SiteId(i as u32)), i)
            .expect("join");
    }
    ring.stabilize_all();
    ring
}

// ------------------------------------------------- codec, store, grouping

/// One full capture window (`n_max` observations) of workload objects.
fn window(cx: &Cx) -> Vec<(ObjectId, SimTime)> {
    let mut rng = gen::rng(cx.seed, 20);
    let n_max = GroupConfig::default().n_max;
    (0..n_max)
        .map(|i| {
            (
                gen::object(3, rng.gen_range(0..1u64 << 20)),
                SimTime::from_millis(i as u64),
            )
        })
        .collect()
}

fn codec_store_grouping(cx: &Cx, v: &mut Values) {
    let obs = window(cx);

    // Group messages as the daemon fixture sends them (Lp = 3).
    let msgs: Vec<Msg> = group_batch(&obs, 3)
        .into_iter()
        .map(|g| Msg::GroupIndex {
            prefix: g.prefix,
            site: SiteId(0),
            members: g.members,
        })
        .collect();
    let encoded: Vec<_> = msgs.iter().map(|m| codec::encode(m, 7)).collect();
    v.insert(
        "codec.encode_ns",
        ns_per_op(msgs.len() * 50, |i| {
            black_box(codec::encode(&msgs[i % msgs.len()], i as u64));
        }),
    );
    v.insert(
        "codec.decode_ns",
        ns_per_op(msgs.len() * 50, |i| {
            black_box(codec::decode(encoded[i % encoded.len()].clone()).expect("own encoding"));
        }),
    );
    v.insert(
        "codec.bytes_per_msg",
        encoded.iter().map(|b| b.len()).sum::<usize>() as f64 / encoded.len() as f64,
    );

    // Grouping at the paper's Lp for 512 sites.
    v.insert(
        "grouping.batch_ns_per_obs",
        ns_per_op(40, |_| {
            black_box(group_batch(&obs, 13));
        }) / obs.len() as f64,
    );
    v.insert(
        "grouping.objs_per_group",
        obs.len() as f64 / group_batch(&obs, 13).len() as f64,
    );
    let mut buf = WindowBuffer::new(SiteId(0), obs.len());
    v.insert(
        "window.push_ns",
        ns_per_op(obs.len() * 20, |i| {
            let (o, t) = obs[i % obs.len()];
            if let WindowEvent::FlushByCount(batch) = buf.push(o, t) {
                black_box(batch);
            }
        }),
    );

    // IOP repository and gateway shard, at one daemon site's size.
    let objs = objects(4, 20_000);
    let mut best_capture = f64::INFINITY;
    let mut store = IopStore::new();
    for _ in 0..BATCHES {
        store = IopStore::new();
        let t = Instant::now();
        for &o in &objs {
            store.capture(o, secs(10));
        }
        best_capture = best_capture.min(t.elapsed().as_nanos() as f64 / objs.len() as f64);
    }
    v.insert("store.capture_ns", best_capture);
    let to = Link {
        site: SiteId(1),
        time: secs(20),
    };
    v.insert(
        "store.set_link_ns",
        ns_per_op(objs.len(), |i| {
            black_box(store.set_to(objs[i], secs(10), to));
        }),
    );
    v.insert(
        "store.lookup_ns",
        ns_per_op(objs.len(), |i| {
            black_box(store.latest_at_or_before(objs[i], secs(15)));
        }),
    );
    let mut shard = PrefixIndex::new();
    v.insert(
        "store.prefix_upsert_ns",
        ns_per_op(objs.len(), |i| {
            shard.upsert(
                objs[i],
                IndexEntry {
                    site: SiteId(0),
                    time: SimTime(i as u64),
                    prev: None,
                },
            );
        }),
    );

    // Data Triangle cover at the paper's Lp; an Lp change of three
    // bits (a network growing eightfold) from a size that keeps the
    // quadratic retarget inside the lab's time budget.
    let cover = TriangleCover::uniform(13);
    let ids: Vec<Id> = objs.iter().take(256).map(|o| o.id()).collect();
    v.insert(
        "triangle.leaf_for_ns",
        ns_per_op(ids.len(), |i| {
            black_box(cover.leaf_for(&ids[i]));
        }),
    );
    v.insert(
        "triangle.retarget_us",
        best_s(|| TriangleCover::uniform(8), |mut c| c.retarget(11)) * 1e6,
    );
}

// ------------------------------------------------------------------ simnet

struct Noop;

impl World<u32> for Noop {
    fn on_message(&mut self, _: &mut Sim<u32>, _: usize, _: usize, _: u32) {}
    fn on_timer(&mut self, _: &mut Sim<u32>, _: usize, _: u64) {}
}

/// One trivial event per barrier window, so every window is crossed.
struct Ticker {
    left: u64,
}

impl ShardWorld for Ticker {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut ShardCtx<'_, ()>) {
        if ctx.shard() == 0 {
            ctx.set_timer(0, SimTime::from_micros(1), 0);
        }
    }

    fn on_message(&mut self, _: &mut ShardCtx<'_, ()>, _: u32, _: u32, _: ()) {}

    fn on_timer(&mut self, ctx: &mut ShardCtx<'_, ()>, node: u32, kind: u64) {
        if self.left > 0 {
            self.left -= 1;
            let window = ctx.config().window;
            ctx.set_timer(node, window, kind);
        }
    }
}

fn simnet_layers(cx: &Cx, v: &mut Values) {
    // Hold model on the calendar queue: a steady population of pending
    // events with the flat world's delays (5 ms per hop, 1-10 hops).
    let pending = cx.scaled(1_000_000, 50_000);
    let mut rng = gen::rng(cx.seed, 21);
    let mut q: CalendarQueue<u32> = CalendarQueue::new();
    let mut seq = 0u64;
    for _ in 0..pending {
        q.push(rng.gen_range(0..120_000_000u64), seq, 0);
        seq += 1;
    }
    const CHUNK: usize = 1_000;
    let (mut pop_ns, mut push_ns) = (f64::INFINITY, f64::INFINITY);
    let mut popped = Vec::with_capacity(CHUNK);
    for _ in 0..BATCHES * 20 {
        let t = Instant::now();
        for _ in 0..CHUNK {
            popped.push(q.pop().expect("hold model never drains").0);
        }
        pop_ns = pop_ns.min(t.elapsed().as_nanos() as f64 / CHUNK as f64);
        let delays: Vec<u64> = (0..CHUNK)
            .map(|_| 5_000 * rng.gen_range(1..=10u64))
            .collect();
        let t = Instant::now();
        for (at, d) in popped.drain(..).zip(&delays) {
            q.push(at + d, seq, 0);
            seq += 1;
        }
        push_ns = push_ns.min(t.elapsed().as_nanos() as f64 / CHUNK as f64);
    }
    v.insert("calendar.push_ns", push_ns);
    v.insert("calendar.pop_ns", pop_ns);

    // The serial simulator's event loop around a world that does nothing.
    let events = 100_000;
    v.insert(
        "sim.step_ns",
        best_s(
            || {
                let mut sim: Sim<u32> = SimConfig::default().with_seed(cx.seed).build();
                for i in 0..events {
                    sim.schedule(SimTime::from_micros(1 + i as u64 % 50_000), i % 64, 0);
                }
                sim
            },
            |mut sim| sim.run_until_quiescent(&mut Noop),
        ) * 1e9
            / events as f64,
    );

    // The sharded executor's per-window cost with next to no events.
    let windows = 5_000u64;
    let cfg = ShardConfig {
        seed: cx.seed,
        shards: 64,
        nodes: 64,
        window: SimTime::from_millis(5),
        threads: 1,
    };
    let mut crossed = 0;
    let wall = best_s(
        || {
            (0..cfg.shards)
                .map(|s| Ticker {
                    left: if s == 0 { windows } else { 0 },
                })
                .collect::<Vec<_>>()
        },
        |worlds| crossed = run_sharded(&cfg, worlds, SimTime::INFINITY).windows,
    );
    v.insert("shard.empty_window_us", wall * 1e6 / crossed.max(1) as f64);
}

// ----------------------------------------------------------------- durable

fn durable_layer(cx: &Cx, v: &mut Values) -> std::io::Result<()> {
    let dir = cx.scratch("lab-durable")?;
    let record = WalRecord::Capture {
        at: secs(1),
        objects: vec![gen::object(5, 1)],
    }
    .encode();
    let (mut data, _) = DataDir::open(&dir, FsyncMode::Batch)?;
    let mut err = None;
    v.insert(
        "wal.append_ns",
        ns_per_op(5_000, |_| {
            if let Err(e) = data.append_deferred(&record) {
                err = Some(e);
            }
        }),
    );
    data.sync()?;
    for (name, batch) in [("wal.sync_b1_us", 1usize), ("wal.sync_b32_us", 32)] {
        let mut best = f64::INFINITY;
        for _ in 0..40 {
            for _ in 0..batch {
                data.append_deferred(&record)?;
            }
            let t = Instant::now();
            data.sync()?;
            best = best.min(t.elapsed().as_nanos() as f64 / 1e3);
        }
        v.insert(name, best);
    }
    let appended = data.last_lsn();
    v.insert(
        "wal.bytes_per_record",
        data.wal_bytes()? as f64 / appended as f64,
    );
    if let Some(e) = err {
        return Err(e);
    }

    // Recovery cost: reopen a directory holding 10 000 records.
    drop(data);
    let reopen = cx.scratch("lab-reopen")?;
    let (mut data, _) = DataDir::open(&reopen, FsyncMode::Batch)?;
    for _ in 0..10_000 {
        data.append_deferred(&record)?;
    }
    data.sync()?;
    drop(data);
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t = Instant::now();
        let (d, rec) = DataDir::open(&reopen, FsyncMode::Batch)?;
        best = best.min(t.elapsed().as_secs_f64());
        assert_eq!(
            rec.tail.len(),
            10_000,
            "reopen must recover every synced record"
        );
        drop(d);
    }
    v.insert("durable.open_ms_per_10k", best * 1e3);

    // Snapshot install: 4 MiB body, as a site of ~50 000 records has.
    let body = vec![0xA5u8; 4 << 20];
    let (mut data, _) = DataDir::open(&reopen, FsyncMode::Batch)?;
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        data.append_deferred(&record)?;
        let t = Instant::now();
        data.install_snapshot(&body)?;
        best = best.min(t.elapsed().as_secs_f64());
    }
    v.insert("snapshot.install_ms_per_mib", best * 1e3 / 4.0);
    drop(data);
    std::fs::remove_dir_all(&dir)?;
    std::fs::remove_dir_all(&reopen)
}

// --------------------------------------------------------------- transport

fn transport_layer(v: &mut Values) -> std::io::Result<()> {
    let payload = Frame::Capture {
        at: secs(1),
        objects: vec![gen::object(5, 2)],
    }
    .encode();
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload)?;
    let mut err = None;
    v.insert(
        "frame.roundtrip_ns",
        ns_per_op(20_000, |_| {
            let mut buf = Vec::with_capacity(wire.len());
            let out =
                write_frame(&mut buf, &payload).and_then(|()| read_frame(&mut Cursor::new(&buf)));
            match out {
                Ok(f) => drop(black_box(f)),
                Err(e) => err = Some(e),
            }
        }),
    );
    let mut acc = FrameAccum::new();
    v.insert(
        "nio.accum_ns_per_frame",
        ns_per_op(20_000, |_| {
            acc.push(&wire);
            black_box(acc.next_frame().ok().flatten());
        }),
    );
    v.insert(
        "nio.accum_dribble_ns_per_frame",
        ns_per_op(20_000, |_| {
            for chunk in wire.chunks(7) {
                acc.push(chunk);
            }
            black_box(acc.next_frame().ok().flatten());
        }),
    );
    if let Some(e) = err {
        return Err(e);
    }

    // Loopback echo through NbConn: the floor under every daemon latency.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (stream, peer) = listener.accept()?;
        let mut conn = NbConn::new(stream, peer)?;
        while !conn.is_dead() {
            conn.read_ready();
            while let Some(frame) = conn.next_frame() {
                conn.queue_frame(&frame);
            }
            conn.try_flush();
            std::thread::yield_now();
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut rtts = Vec::with_capacity(2_000);
    for _ in 0..2_000 {
        let t = Instant::now();
        write_frame(&mut stream, &payload)?;
        read_frame(&mut stream)?;
        rtts.push(t.elapsed().as_nanos() as u64);
    }
    drop(stream);
    echo.join()
        .map_err(|_| std::io::Error::other("echo thread panicked"))??;
    rtts.sort_unstable();
    v.insert(
        "nio.loopback_rtt_us",
        crate::stats::percentile(&rtts, 50) as f64 / 1e3,
    );
    Ok(())
}

// ------------------------------------------------------ proto, state, core

/// A `Core` of site 0 that knows the three fixture members.
fn lab_core() -> Core {
    let addr = |i: usize| format!("127.0.0.1:{}", 9_000 + i);
    let mut core = Core::new(
        SiteId(0),
        client::CLUSTER_SEED,
        GroupConfig::default(),
        addr(0).parse().expect("addr"),
    );
    for i in 1..client::NODES {
        core.apply_record(&WalRecord::Member {
            site: SiteId(i as u32),
            addr: addr(i),
        });
    }
    core.take_outbox();
    core
}

fn proto_state_core(cx: &Cx, v: &mut Values) {
    let capture = Frame::Capture {
        at: secs(1),
        objects: vec![gen::object(5, 3)],
    };
    let raw = capture.encode();
    v.insert(
        "proto.capture_encode_ns",
        ns_per_op(20_000, |_| drop(black_box(capture.encode()))),
    );
    v.insert(
        "proto.capture_decode_ns",
        ns_per_op(20_000, |_| drop(black_box(Frame::decode(&raw)))),
    );
    v.insert("proto.capture_bytes", raw.len() as f64);
    let resp = Frame::LocateResp {
        answer: Some(SiteId(1)),
        cost: daemon::CostWire {
            messages: 3,
            hops: 3,
            bytes: 99,
        },
        complete: true,
    }
    .encode();
    v.insert(
        "proto.locate_resp_decode_ns",
        ns_per_op(20_000, |_| drop(black_box(Frame::decode(&resp)))),
    );

    let record = WalRecord::Capture {
        at: secs(1),
        objects: vec![gen::object(5, 3)],
    };
    let rec_raw = record.encode();
    v.insert(
        "state.record_encode_ns",
        ns_per_op(20_000, |_| drop(black_box(record.encode()))),
    );
    v.insert(
        "state.record_decode_ns",
        ns_per_op(20_000, |_| drop(black_box(WalRecord::decode(&rec_raw)))),
    );

    // Core: single-object captures, the count flush they trigger every
    // n_max objects, and absorbing the group-index messages it emits.
    let obs = window(cx);
    let n_max = obs.len();
    let captures: Vec<WalRecord> = obs
        .iter()
        .map(|&(o, at)| WalRecord::Capture {
            at,
            objects: vec![o],
        })
        .collect();
    let (mut apply_ns, mut flush_us) = (f64::INFINITY, f64::INFINITY);
    let mut outbox = Vec::new();
    let mut core = lab_core();
    for _ in 0..BATCHES {
        core = lab_core();
        let t = Instant::now();
        for rec in &captures[..n_max - 1] {
            core.apply_record(rec);
        }
        apply_ns = apply_ns.min(t.elapsed().as_nanos() as f64 / (n_max - 1) as f64);
        // The n_max-th capture closes the window: that apply is the flush.
        let t = Instant::now();
        core.apply_record(&captures[n_max - 1]);
        outbox = core.take_outbox();
        flush_us = flush_us.min(t.elapsed().as_nanos() as f64 / 1e3);
    }
    v.insert("core.apply_capture_ns", apply_ns);
    v.insert("core.apply_flush_us", flush_us);
    v.insert("core.outbox_msgs_per_flush", outbox.len() as f64);

    // What a gateway does with one of those messages. Self-addressed
    // groups were applied in place, so replay them from a peer.
    let inbound: Vec<WalRecord> = group_batch(&obs, 3)
        .into_iter()
        .enumerate()
        .map(|(i, g)| WalRecord::Protocol {
            sender: SiteId(1),
            wire: Wire {
                seq: 1 + i as u64,
                msg: Msg::GroupIndex {
                    prefix: g.prefix,
                    site: SiteId(1),
                    members: g.members,
                },
            },
        })
        .collect();
    v.insert(
        "core.apply_protocol_ns",
        best_s(lab_core, |mut c| {
            for rec in &inbound {
                c.apply_record(rec);
            }
            c
        }) * 1e9
            / inbound.len() as f64,
    );
    v.insert(
        "state.state_bytes_ms",
        ns_per_op(5, |_| drop(black_box(core.state_bytes(false)))) / 1e6,
    );
}

// ------------------------------------------------------------ qcache, obs

fn qcache_obs(cx: &Cx, v: &mut Values) {
    let objs = objects(6, 8_192);
    let link = Link {
        site: SiteId(1),
        time: secs(1),
    };
    let mut cache = qcache::LocateCache::new(4_096);
    v.insert(
        "qcache.insert_ns",
        ns_per_op(objs.len(), |i| cache.insert(objs[i], 0, link)),
    );
    let zipf = detrand::zipf::Zipf::new(objs.len(), 1.0);
    let mut rng = gen::rng(cx.seed, 22);
    let picks: Vec<usize> = (0..20_000).map(|_| zipf.sample(&mut rng)).collect();
    v.insert(
        "qcache.get_ns",
        ns_per_op(picks.len(), |i| {
            black_box(cache.get(objs[picks[i]], 0));
        }),
    );
    let mut hist = obs::Histogram::new();
    v.insert(
        "obs.hist_record_ns",
        ns_per_op(100_000, |i| hist.record(100 + (i as u64 * 7919) % 100_000)),
    );
}

// --------------------------------------------------------------- lab world

/// A 64-site simulator run: the same calls `sim_protocol` makes, at a
/// fixed small size, each timed as its own step.
fn lab_world(cx: &Cx, v: &mut Values) {
    let w = PaperWorkload {
        sites: 64,
        objects_per_site: 200,
        grouped_movement: true,
        seed: cx.seed,
        ..PaperWorkload::default()
    };
    let events = w.generate();
    let (mut build, mut schedule, mut run) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut last = None;
    for _ in 0..3 {
        let t = Instant::now();
        let mut net = Builder::new().sites(w.sites).seed(cx.seed).build();
        build = build.min(t.elapsed().as_secs_f64());
        let mut log = MovementLog::new();
        let t = Instant::now();
        workload::replay(&mut net, &mut log, &events);
        schedule = schedule.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        net.run_until_quiescent();
        run = run.min(t.elapsed().as_secs_f64());
        last = Some((net, log));
    }
    v.insert("world.build_s", build);
    v.insert("world.schedule_s", schedule);
    v.insert("world.run_s", run);
    let (mut net, log) = last.expect("three runs");
    let m = net.metrics().clone();
    for class in ALL_CLASSES {
        v.insert(world_msgs_name(class), m.messages_of(class) as f64);
    }
    let mut objs: Vec<ObjectId> = log.objects().collect();
    objs.sort_unstable();
    let end = net.now();
    let mut rng = gen::rng(cx.seed, 23);
    let picks: Vec<(ObjectId, SiteId)> = (0..1_000)
        .map(|_| {
            (
                objs[rng.gen_range(0..objs.len())],
                SiteId(rng.gen_range(0..w.sites as u32)),
            )
        })
        .collect();
    let mut wrong = 0u64;
    v.insert(
        "world.locate_host_us",
        ns_per_op(picks.len(), |i| {
            let (o, from) = picks[i];
            let (answer, _) = net.locate(from, o, end);
            wrong += u64::from(answer != log.locate(o, end));
        }) / 1e3,
    );
    v.insert(
        "world.trace_host_us",
        ns_per_op(picks.len(), |i| {
            let (o, from) = picks[i];
            let (path, _) = net.trace(from, o, SimTime::ZERO, end);
            wrong += u64::from(path != log.trace(o, SimTime::ZERO, end));
        }) / 1e3,
    );
    let a = net.anomalies();
    v.insert(
        "world.anomalies",
        (wrong
            + a.out_of_order_arrivals
            + a.dangling_iop_updates
            + a.dropped_to_dead
            + a.retries_exhausted
            + a.duplicates_suppressed
            + a.refresh_failures) as f64,
    );
}

/// `world.msgs.<class>` for each message class.
pub fn world_msgs_name(class: MsgClass) -> &'static str {
    match class {
        MsgClass::IndexReport => "world.msgs.index-report",
        MsgClass::IopUpdate => "world.msgs.iop-update",
        MsgClass::GroupIndex => "world.msgs.group-index",
        MsgClass::Refresh => "world.msgs.refresh",
        MsgClass::Delegate => "world.msgs.delegate",
        MsgClass::SplitMerge => "world.msgs.split-merge",
        MsgClass::Lookup => "world.msgs.lookup",
        MsgClass::Query => "world.msgs.query",
        MsgClass::Overlay => "world.msgs.overlay",
        MsgClass::Gossip => "world.msgs.gossip",
        MsgClass::Ack => "world.msgs.ack",
        MsgClass::Retrans => "world.msgs.retrans",
    }
}

// ---------------------------------------------------------------- lab flat

/// `run_flat` at 5 000 nodes / 50 000 objects, standard geometry.
fn lab_flat(cx: &Cx, v: &mut Values) {
    let cfg = flat_scale::config(cx.seed, 5_000);
    let mut report = None;
    v.insert(
        "flat.run_s",
        best_s(|| (), |()| report = Some(peertrack::run_flat(&cfg))),
    );
    let r = report.expect("at least one batch");
    v.insert("flat.events", r.events as f64);
    v.insert("flat.records", r.records as f64);
    v.insert("flat.windows", r.windows as f64);
    v.insert("flat.violations", flat_scale::violations(&cfg, &r) as f64);
}

// ------------------------------------------------------------- lab cluster

/// A small live fixture for what only a running engine shows: the idle
/// round trip, local against remote locates, the cross-origin case,
/// protocol delivery, and crash recovery.
fn lab_cluster(cx: &Cx, v: &mut Values) -> Result<(), Fatal> {
    /// Captures per client under fsync; the locates ask about the first
    /// `PER_NODE` of them.
    const DURABLE_PER_NODE: usize = 3_000;
    const PER_NODE: usize = 600;
    let io = |what: &'static str| move |e: std::io::Error| format!("lab cluster: {what}: {e}");
    let dir = cx.scratch("lab-cluster").map_err(io("scratch dir"))?;
    let mut cluster = client::start_cluster(&dir, None, FsyncMode::Batch)?;
    let mut off = Tracer::off();

    // Idle-node Status: pump wake-up + frame I/O, no WAL, no Core.
    let mut conn = Client::connect(cluster.addr(0)).map_err(io("connect"))?;
    let mut rtt = Vec::with_capacity(1_000);
    for _ in 0..1_000 {
        let t = Instant::now();
        conn.call(&Frame::Status, &mut off).map_err(io("status"))?;
        rtt.push(t.elapsed().as_nanos() as u64);
    }
    rtt.sort_unstable();
    v.insert(
        "engine.status_rtt_us",
        crate::stats::percentile(&rtt, 50) as f64 / 1e3,
    );

    // `daemon_ingest` as shipped: two closed-loop clients at nodes 0 and
    // 1, single-object captures, each acked after its group fsync (this
    // cluster runs `peertrackd`'s default policy).
    let frames0 = client::protocol_frames(&cluster).map_err(io("status"))?.0;
    let t = Instant::now();
    let clients: Vec<_> = (0..2u32)
        .map(|node| {
            let addr = cluster.addr(node as usize);
            std::thread::spawn(move || -> std::io::Result<Vec<u64>> {
                let mut conn = Client::connect(addr)?;
                let mut off = Tracer::off();
                let mut acks = Vec::with_capacity(DURABLE_PER_NODE);
                for k in 0..DURABLE_PER_NODE {
                    let f = Frame::Capture {
                        at: secs(10) + SimTime::from_millis(k as u64),
                        objects: vec![gen::object(30 + node, k as u64)],
                    };
                    let t = Instant::now();
                    conn.call(&f, &mut off)?;
                    acks.push(t.elapsed().as_nanos() as u64);
                }
                Ok(acks)
            })
        })
        .collect();
    let mut acks = Vec::with_capacity(2 * DURABLE_PER_NODE);
    for c in clients {
        acks.extend(
            c.join()
                .map_err(|_| "lab cluster: capture client panicked".to_string())?
                .map_err(io("capture"))?,
        );
    }
    v.insert(
        "engine.durable_acks_per_s",
        acks.len() as f64 / t.elapsed().as_secs_f64(),
    );
    let durable = crate::stats::summarize(&mut acks);
    v.insert("engine.durable_ack_us", durable.p50 as f64 / 1e3);
    v.insert("engine.durable_ack_tail_us", durable.tail as f64 / 1e3);
    client::flush_all(&mut cluster, secs(100)).map_err(io("flush"))?;
    let frames1 = client::protocol_frames(&cluster).map_err(io("status"))?.0;
    v.insert(
        "engine.frames_per_capture",
        (frames1 - frames0) as f64 / (2 * DURABLE_PER_NODE) as f64,
    );

    // Locates at origin 0: objects it captured itself (answered from
    // its own repository, no RPC) against objects node 1 captured.
    let wal0 = client::wal_bytes(&dir).map_err(io("wal size"))?;
    let mut lat = [Vec::with_capacity(PER_NODE), Vec::with_capacity(PER_NODE)];
    let mut rpcs = 0u64;
    for (holder, lat) in lat.iter_mut().enumerate() {
        for k in 0..PER_NODE {
            let object = gen::object(30 + holder as u32, k as u64);
            let t = Instant::now();
            let reply = conn
                .call(
                    &Frame::Locate {
                        object,
                        t: secs(200),
                    },
                    &mut off,
                )
                .map_err(io("locate"))?;
            lat.push(t.elapsed().as_nanos() as u64);
            match reply {
                Frame::LocateResp {
                    answer: Some(s),
                    cost,
                    complete: true,
                } if s.0 == holder as u32 => {
                    rpcs += if holder == 1 { cost.messages } else { 0 };
                }
                other => return Err(format!("lab cluster: wrong locate answer {other:?}")),
            }
        }
        lat.sort_unstable();
    }
    let wal1 = client::wal_bytes(&dir).map_err(io("wal size"))?;
    v.insert(
        "engine.local_locate_us",
        crate::stats::percentile(&lat[0], 50) as f64 / 1e3,
    );
    v.insert(
        "engine.remote_locate_us",
        crate::stats::percentile(&lat[1], 50) as f64 / 1e3,
    );
    v.insert("engine.rpcs_per_locate", rpcs as f64 / PER_NODE as f64);
    v.insert(
        "engine.wal_bytes_per_locate",
        (wal1 - wal0) as f64 / (2 * PER_NODE) as f64,
    );

    // Crash node 0, restart it, first correct answer.
    drop(conn);
    let t = Instant::now();
    cluster.crash(0).map_err(io("crash"))?;
    cluster.restart(0).map_err(io("restart"))?;
    let answer = cluster
        .locate(SiteId(0), gen::object(30, 0), secs(200))
        .map_err(io("locate"))?;
    v.insert("engine.recovery_ms", t.elapsed().as_secs_f64() * 1e3);
    if answer.0 != Some(SiteId(0)) {
        return Err(format!(
            "lab cluster: capture lost across restart: {answer:?}"
        ));
    }

    let reports = cluster.shutdown().map_err(io("shutdown"))?;
    let mut delivery = obs::Histogram::new();
    for r in &reports {
        delivery.merge(r.recorder.class_latency(MsgClass::GroupIndex));
        delivery.merge(r.recorder.class_latency(MsgClass::IopUpdate));
    }
    v.insert("engine.delivery_mean_us", delivery.mean());
    std::fs::remove_dir_all(&dir).map_err(io("cleanup"))
}
