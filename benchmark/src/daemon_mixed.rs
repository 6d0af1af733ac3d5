//! `daemon_mixed` — reads and writes through one engine at once.
//!
//! Set-up starts the fixture with a 4 096-entry locate cache per node
//! (smaller than the object set), preloads a settled §V-style history
//! and the first capture of a separate *mover* set. Then, together:
//!
//! * a **writer** paces pallet captures (8 objects per frame) on an
//!   open-loop schedule of random arrivals, walking each mover pallet
//!   along its route from site to site. Every frame is timed from the
//!   instant it was *due*. Successive captures of one pallet are at
//!   least two flush periods apart, so its M1/M2/M3 updates land in
//!   order;
//! * a **reader** issues Zipf(1.0) present-time locates at node 0 on
//!   its own random schedule, one outstanding at a time and each timed
//!   from its due instant, alternating between the settled set (exact
//!   oracle check) and the mover set (no-fabrication check: the answer
//!   is a site on that object's route and `complete` is true).
//!
//! Both offered loads are fixed and well under capacity, so latency is
//! the metric — of the writes, from their due instants; the reads'
//! latency is printed beside it — and throughput only says whether the
//! offered load was carried. A read-path gain that starves writes (or the reverse), or a
//! cache change that breaks under live movement, shows here and on
//! neither pure workload. (A closed-loop reader was tried first: with
//! eight runnable threads on two cores its throughput swung 2× from run
//! to run. A highest-sustainable-rate search would flap the same way;
//! the admission-control issue may add one.)
//!
//! Threads: the writer and the reader generate the load. Each of the
//! writer's three connections also has an ack reader that sleeps in
//! `read(2)` and takes one timestamp per ack — polling from the writer
//! instead would either burn a core or blur every latency by the poll
//! interval.

use crate::client::{self, Client};
use crate::gen::{self, Movement};
use crate::harness::{Cx, Fatal, Op, Round, Work};
use crate::pacer::{self, OpenLoop};
use crate::replay::Replay;
use crate::spans::Tracer;
use daemon::Frame;
use detrand::zipf::Zipf;
use moods::{Locate, ObjectId, SiteId};
use simnet::time::secs;
use simnet::SimTime;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use workload::CaptureEvent;

pub const WHY: &str = "reads and writes through one engine at fixed offered rates (random arrivals), each op timed from its due instant: pallet captures move objects while Zipf locates go through a 4096-entry cache";

/// Locate-cache entries per node; the object set is ~6× larger.
pub const CACHE_CAPACITY: usize = 4_096;
/// Offered write load, frames per second (8 objects each).
pub const RATE_FPS: u64 = 1_000;
/// Offered read load, locates per second (about a third of what the
/// reader completes closed-loop beside the same writer).
pub const READ_RATE: u64 = 600;
const OBJECTS_PER_FRAME: usize = 8;
/// Frames per round: 2.4 s of offered load.
const FRAMES: usize = 2_400;
/// Acks per window: twelve windows a round, eighty or so a run.
const WINDOW_OPS: usize = 200;
/// Mover pallets. A pallet is re-captured every `PALLETS / RATE_FPS`
/// = 0.9 s; a site closes a window every `n_max / (RATE_FPS × 8 / 3)`
/// = 0.38 s, so successive captures are > 2 flush periods apart.
const PALLETS: usize = 900;
const SETTLED_PER_SITE: usize = 6_000;
const SETTLED_ROUTE_LEN: usize = 6;
/// Node the reader queries.
const READER_ORIGIN: usize = 0;
/// Home ids of mover objects (apart from the settled homes `0..NODES`).
const MOVER_HOME: u32 = 20;
/// "Now" for present-time locates: after every capture.
const PRESENT: SimTime = SimTime::from_secs(1_000_000);

/// Everything a round is generated from.
pub struct Inputs {
    pub settled: Movement,
    /// First capture of every mover pallet, at its home site.
    pub mover_inventory: Vec<CaptureEvent>,
    pallets: Vec<Pallet>,
    frames: usize,
}

struct Pallet {
    objects: Vec<ObjectId>,
    /// Sites visited by successive captures of the measured phase.
    route: Vec<SiteId>,
    /// Bit `s` set: site `s` is the home or on the route.
    allowed: u8,
}

/// When the mover inventory is captured: after the settled history.
fn inventory_at(j: usize) -> SimTime {
    secs(4_000) + SimTime::from_millis(j as u64)
}

/// Virtual instant of the `k`-th frame of the measured phase.
fn frame_at(k: usize) -> SimTime {
    secs(5_000) + SimTime::from_millis(k as u64)
}

pub fn inputs(cx: &Cx) -> Inputs {
    let sites = client::NODES as u32;
    let frames = cx.scaled(FRAMES, 120);
    // Quick mode: as many pallets as frames, so that no pallet moves
    // twice inside one (never count-flushed) window.
    let n_pallets = cx.scaled(PALLETS, 120);
    let settled = gen::paper_movement(
        cx.seed,
        sites,
        cx.scaled(SETTLED_PER_SITE, 300),
        SETTLED_ROUTE_LEN,
    );
    let mut rng = gen::rng(cx.seed, 2);
    let steps = frames.div_ceil(n_pallets);
    let mut pallets = Vec::with_capacity(n_pallets);
    let mut mover_inventory = Vec::with_capacity(n_pallets);
    for j in 0..n_pallets {
        let home = j as u32 % sites;
        let objects: Vec<ObjectId> = (0..OBJECTS_PER_FRAME)
            .map(|i| gen::object(MOVER_HOME + home, (j * OBJECTS_PER_FRAME + i) as u64))
            .collect();
        let route = gen::route(&mut rng, sites, home, steps);
        let allowed = route.iter().fold(1u8 << home, |m, s| m | 1 << s.0);
        mover_inventory.push(CaptureEvent {
            at: inventory_at(j),
            site: SiteId(home),
            objects: objects.clone(),
        });
        pallets.push(Pallet {
            objects,
            route,
            allowed,
        });
    }
    Inputs {
        settled,
        mover_inventory,
        pallets,
        frames,
    }
}

impl Inputs {
    /// The `k`-th frame of the measured phase and the site it goes to.
    pub fn frame(&self, k: usize) -> (usize, Frame) {
        let p = &self.pallets[k % self.pallets.len()];
        let site = p.route[k / self.pallets.len()];
        (
            site.0 as usize,
            Frame::Capture {
                at: frame_at(k),
                objects: p.objects.clone(),
            },
        )
    }

    pub fn frames(&self) -> usize {
        self.frames
    }

    fn mover_objects(&self) -> usize {
        self.pallets.len() * OBJECTS_PER_FRAME
    }
}

fn io_fatal(what: &str) -> impl Fn(std::io::Error) -> Fatal + '_ {
    client::io_fatal("daemon_mixed", what)
}

pub fn round(cx: &Cx, tr: &mut Tracer) -> Result<Round, Fatal> {
    let t_setup = Instant::now();
    let dir = cx.scratch("mixed").map_err(io_fatal("scratch dir"))?;
    let mut cluster = client::start_cluster(&dir, Some(CACHE_CAPACITY), client::WORKLOAD_FSYNC)?;
    let inp = Arc::new(inputs(cx));
    let mut preload = inp.settled.events.clone();
    preload.extend(inp.mover_inventory.iter().cloned());
    cluster
        .run_schedule(&preload)
        .map_err(io_fatal("preload"))?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    // --- passive ack readers, one per writer connection ---------------
    // Both schedules in slots of 0.1 s. The reader stops when the
    // writer is done; its schedule only has to outlast the writer's.
    let write_schedule = pacer::random_schedule(
        RATE_FPS,
        inp.frames(),
        RATE_FPS as usize / 10,
        &mut gen::rng(cx.seed, 5),
    );
    let read_schedule = pacer::random_schedule(
        READ_RATE,
        inp.frames() * 2 * READ_RATE as usize / RATE_FPS as usize,
        READ_RATE as usize / 10,
        &mut gen::rng(cx.seed, 6),
    );
    let epoch = Instant::now();
    let mut writers = Vec::new();
    let mut ack_threads = Vec::new();
    for i in 0..client::NODES {
        let conn = Client::connect(cluster.addr(i)).map_err(io_fatal("connect"))?;
        let mut acks = conn.try_clone().map_err(io_fatal("clone"))?;
        let (tx, rx) = mpsc::channel::<(usize, u64)>();
        writers.push((conn, tx));
        let schedule = Arc::clone(&write_schedule);
        ack_threads.push(std::thread::spawn(move || {
            let mut ol = OpenLoop::new(schedule, 1);
            let mut refused = 0u64;
            let mut off = Tracer::off();
            while let Ok((k, sent_ns)) = rx.recv() {
                ol.sent(k, 0, sent_ns);
                let reply = acks.recv(&mut off);
                ol.replied(0, epoch.elapsed().as_nanos() as u64);
                if !matches!(reply, Ok(Frame::Ack)) {
                    refused += 1;
                }
            }
            (ol, refused)
        }));
    }

    // --- the paced reader ------------------------------------------------
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let (addr, inp, stop) = (
            cluster.addr(READER_ORIGIN),
            Arc::clone(&inp),
            Arc::clone(&stop),
        );
        let mut rng = gen::rng(cx.seed, 3);
        let mut tr = tr.sibling(2);
        std::thread::spawn(move || -> std::io::Result<ReaderOut> {
            let mut conn = Client::connect(addr)?;
            let settled_zipf = Zipf::new(inp.settled.objects.len(), 1.0);
            let mover_zipf = Zipf::new(inp.mover_objects(), 1.0);
            let mut out = ReaderOut::default();
            let mut ol = OpenLoop::new(read_schedule, 1);
            for k in 0..ol.len() {
                pacer::wait_until(epoch + Duration::from_nanos(ol.due_ns(k)));
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let on_mover = k % 2 == 1;
                let (object, pallet) = if on_mover {
                    let r = mover_zipf.sample(&mut rng);
                    let p = &inp.pallets[r / OBJECTS_PER_FRAME];
                    (p.objects[r % OBJECTS_PER_FRAME], Some(p))
                } else {
                    (inp.settled.objects[settled_zipf.sample(&mut rng)], None)
                };
                ol.sent(k, 0, epoch.elapsed().as_nanos() as u64);
                let op = tr.open("op.locate");
                let reply = conn.call(&Frame::Locate { object, t: PRESENT }, &mut tr);
                tr.close(op);
                ol.replied(0, epoch.elapsed().as_nanos() as u64);
                if let Ok(Frame::LocateResp { cost, .. }) = &reply {
                    out.model_msgs += cost.messages;
                }
                let ok = match (&reply, pallet) {
                    (
                        Ok(Frame::LocateResp {
                            answer: Some(s),
                            complete: true,
                            ..
                        }),
                        Some(p),
                    ) => s.0 < 8 && p.allowed & (1 << s.0) != 0,
                    (
                        Ok(Frame::LocateResp {
                            answer,
                            complete: true,
                            ..
                        }),
                        None,
                    ) => *answer == inp.settled.log.locate(object, PRESENT),
                    _ => false,
                };
                match (ok, on_mover) {
                    (true, _) => {}
                    (false, true) => out.mover_failed += 1,
                    (false, false) => out.settled_failed += 1,
                }
            }
            out.ol = Some(ol);
            out.tracer = Some(tr);
            Ok(out)
        })
    };

    // --- the open-loop writer (this thread) -----------------------------
    // The writer's schedule; the ack readers' logs are merged into it.
    let mut ack = OpenLoop::new(write_schedule, 0);
    let mut wtr = tr.sibling(1);
    for k in 0..inp.frames() {
        pacer::wait_until(epoch + Duration::from_nanos(ack.due_ns(k)));
        let (site, frame) = inp.frame(k);
        let (conn, tx) = &mut writers[site];
        tx.send((k, epoch.elapsed().as_nanos() as u64))
            .map_err(|_| "ack reader died".to_string())?;
        let op = wtr.open("op.capture");
        conn.send(&frame, &mut wtr)
            .map_err(io_fatal("capture write"))?;
        wtr.close(op);
    }
    // The schedule is over once the last frame is out; its ack, like
    // every other, is timed by the ack readers.
    drop(writers);
    let mut refused = 0;
    for t in ack_threads {
        let (ol, r) = t.join().map_err(|_| "ack reader panicked".to_string())?;
        ack.latency_ns.extend(ol.latency_ns);
        ack.replied_ns.extend(ol.replied_ns);
        ack.lateness_ns.extend(ol.lateness_ns);
        refused += r;
    }
    stop.store(true, Ordering::Relaxed);
    let read = reader
        .join()
        .map_err(|_| "reader panicked".to_string())?
        .map_err(io_fatal("reader"))?;
    tr.absorb(wtr);
    tr.absorb(read.tracer.expect("reader returns its tracer"));

    // --- settle and collect ----------------------------------------------
    client::flush_all(&mut cluster, frame_at(inp.frames()) + secs(1)).map_err(io_fatal("flush"))?;
    let (_, hits, misses) = cluster
        .query_load(READER_ORIGIN)
        .map_err(io_fatal("query load"))?;
    let exit = client::fold_reports(&cluster.shutdown().map_err(io_fatal("shutdown"))?);
    std::fs::remove_dir_all(&dir).map_err(io_fatal("cleanup"))?;

    let frames = inp.frames() as u64;
    let reads = read.ol.expect("reader returns its log");
    let locates = reads.latency_ns.len() as u64;
    // Writes are the latency sample; reads count toward throughput.
    // Pooled, the median would sit between two distributions (a 15 us
    // ack and a 40-300 us locate) and move with their mix.
    let writes = ack.replied_ns.iter().zip(&ack.latency_ns);
    let ops: Vec<Op> = writes
        .map(|(&done_ns, &lat_ns)| Op {
            done_ns,
            lat_ns: Some(lat_ns),
        })
        .chain(reads.replied_ns.iter().map(|&done_ns| Op {
            done_ns,
            lat_ns: None,
        }))
        .collect();
    let mut locate_ns = reads.latency_ns;
    locate_ns.sort_unstable();
    let mut late = ack.lateness_ns;
    late.sort_unstable();
    let late_frames = late.iter().filter(|&&ns| ns > 1_000_000).count();
    let mut ack_ns = ack.latency_ns;
    ack_ns.sort_unstable();
    let mut round = Round {
        setup_s,
        work: Work::Log {
            ops,
            window_ops: WINDOW_OPS,
        },
        attempted: frames + locates,
        failed: refused
            + read.settled_failed
            + read.mover_failed
            + exit.unsupported
            + exit.anomalies,
        ..Round::default()
    };
    round.layer.insert(
        "qcache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    round.layer.insert(
        "workload.rpcs_per_locate",
        read.model_msgs as f64 / locates.max(1) as f64,
    );
    round
        .layer
        .insert("client.late_share", late_frames as f64 / frames as f64);
    exit.record(&mut round.layer);
    round.notes.push(format!(
        "writer: {frames} frames offered at {RATE_FPS}/s, {refused} refused, ack from due p50={:.1}us p99={:.1}us, generator lateness p50={:.1}us p99={:.1}us",
        crate::stats::percentile(&ack_ns, 50) as f64 / 1e3,
        crate::stats::percentile(&ack_ns, 99) as f64 / 1e3,
        crate::stats::percentile(&late, 50) as f64 / 1e3,
        crate::stats::percentile(&late, 99) as f64 / 1e3,
    ));
    round.notes.push(format!(
        "reader: {locates} locates offered at {READ_RATE}/s, answer from due p50={:.1}us p99={:.1}us, settled wrong={}, mover fabricated/incomplete={}, cache hits={hits} misses={misses}, anomalies={}",
        crate::stats::percentile(&locate_ns, 50) as f64 / 1e3,
        crate::stats::percentile(&locate_ns, 99) as f64 / 1e3,
        read.settled_failed,
        read.mover_failed,
        exit.anomalies,
    ));
    Ok(round)
}

#[derive(Default)]
struct ReaderOut {
    ol: Option<OpenLoop>,
    settled_failed: u64,
    mover_failed: u64,
    /// Model messages (`CostWire`) charged: one per RPC hop.
    model_msgs: u64,
    tracer: Option<Tracer>,
}

/// Layer replay of the measured phase: the preload untimed, then every
/// frame the writer sent and the reader's locates.
pub fn replay(cx: &Cx, round: &Round, rp: &mut Replay, tr: &mut Tracer) -> std::io::Result<()> {
    let inp = inputs(cx);
    let mut off = Tracer::off();
    let mut preload = inp.settled.events.clone();
    preload.extend(inp.mover_inventory.iter().cloned());
    preload.sort_by_key(|e| e.at);
    for e in preload {
        rp.control(
            e.site.0 as usize,
            &Frame::Capture {
                at: e.at,
                objects: e.objects,
            },
            &mut off,
        )?;
    }
    for k in 0..inp.frames() {
        let (site, frame) = inp.frame(k);
        rp.control(site, &frame, tr)?;
    }
    let locates = round.work.ops() as u64 - inp.frames() as u64;
    let rpcs = round
        .layer
        .get("workload.rpcs_per_locate")
        .copied()
        .unwrap_or(0.0)
        * locates as f64;
    rp.queries(locates, rpcs.round() as u64, tr)
}
