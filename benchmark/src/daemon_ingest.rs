//! `daemon_ingest` — the write path.
//!
//! Two closed-loop clients, one at node 0 and one at node 1, send
//! single-object `Capture` frames and wait for each `Ack` (sent once the
//! record is in the WAL file). The smallest frame there is, so
//! per-message cost dominates: `proto` decode, WAL append,
//! `Core::apply_record`, the count flush every `n_max` objects with its
//! group-index fan-out to the other nodes, and frame I/O do the work;
//! Chord walks and the query planner do almost none. After the load the
//! windows are flushed, node 0 is crashed and restarted from its data
//! directory, and the captures it acked must still be there.

use crate::client::{self, Client};
use crate::gen;
use crate::harness::{Cx, Fatal, Op, Round, Work};
use crate::replay::Replay;
use crate::spans::Tracer;
use daemon::{Frame, LoopbackCluster};
use detrand::seq::SliceRandom;
use moods::{ObjectId, SiteId};
use simnet::time::secs;
use simnet::SimTime;
use std::sync::{Arc, Barrier};
use std::time::Instant;
use workload::CaptureEvent;

pub const WHY: &str = "write path: 2 closed-loop clients (nodes 0, 1), single-object Capture to write-through Ack on 3 nodes, then crash+restart; WAL append, Core, proto and frame I/O do the work, queries none";

/// Client threads (one connection each, to nodes `0..CLIENTS`).
pub const CLIENTS: u32 = 2;
/// Captures each client sends per round.
const CAPTURES_PER_CLIENT: usize = 12_000;
/// Acks per window: the fewest that leave ten samples beyond a 99th
/// percentile; two dozen windows a round.
const WINDOW_OPS: usize = 1_000;
/// Objects each site holds before the load starts, so acks are not
/// measured against empty stores.
const RESIDENT_PER_SITE: usize = 2_000;
/// Acked captures looked up after the restart (plus the first and the
/// last one acked; the state dump covers the rest).
const VERIFY_SAMPLE: usize = 300;
/// Homes of the objects the clients capture (kept apart from the
/// resident inventory's homes `0..NODES`).
const LOAD_HOME: u32 = 10;

/// Virtual instant of a client's `k`-th capture: after the resident
/// inventory, 1 ms apart like a reader scanning one item per ms.
fn capture_at(k: usize) -> SimTime {
    secs(100) + SimTime::from_millis(k as u64)
}

/// The order in which a client's objects arrive: a seeded shuffle of
/// its serials, so the seed decides how the capture windows and their
/// prefix groups fill up.
pub fn arrival_order(cx: &Cx, c: u32) -> Vec<u64> {
    let mut order: Vec<u64> = (0..captures_per_client(cx) as u64).collect();
    order.shuffle(&mut gen::rng(cx.seed, 10 + c as u64));
    order
}

fn captured_object(c: u32, serial: u64) -> ObjectId {
    gen::object(LOAD_HOME + c, serial)
}

/// The `k`-th frame client `c` sends, given its [`arrival_order`].
pub fn capture_frame(order: &[u64], c: u32, k: usize) -> Frame {
    Frame::Capture {
        at: capture_at(k),
        objects: vec![captured_object(c, order[k])],
    }
}

pub fn captures_per_client(cx: &Cx) -> usize {
    cx.scaled(CAPTURES_PER_CLIENT, 60)
}

/// The inventory every site holds before the load.
pub fn resident(cx: &Cx) -> Vec<CaptureEvent> {
    let per_site = cx.scaled(RESIDENT_PER_SITE, 20);
    (0..client::NODES as u32)
        .map(|s| CaptureEvent {
            at: secs(10),
            site: SiteId(s),
            objects: (0..per_site).map(|i| gen::object(s, i as u64)).collect(),
        })
        .collect()
}

fn io_fatal(what: &str) -> impl Fn(std::io::Error) -> Fatal + '_ {
    client::io_fatal("daemon_ingest", what)
}

pub fn round(cx: &Cx, tr: &mut Tracer) -> Result<Round, Fatal> {
    let n = captures_per_client(cx);
    let t_setup = Instant::now();
    let dir = cx.scratch("ingest").map_err(io_fatal("scratch dir"))?;
    let mut cluster = client::start_cluster(&dir, None, client::WORKLOAD_FSYNC)?;
    cluster
        .run_schedule(&resident(cx))
        .map_err(io_fatal("resident inventory"))?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    let frames_before = client::protocol_frames(&cluster).map_err(io_fatal("status"))?;
    let wal_before = client::wal_bytes(&dir).map_err(io_fatal("wal size"))?;

    // --- measured: closed-loop capture -> ack ---------------------------
    let barrier = Arc::new(Barrier::new(CLIENTS as usize + 1));
    let epoch = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (addr, barrier) = (cluster.addr(c as usize), Arc::clone(&barrier));
            let order = arrival_order(cx, c);
            let mut tr = tr.sibling(c + 1);
            std::thread::spawn(move || -> std::io::Result<(Vec<Op>, u64, Tracer)> {
                let mut conn = Client::connect(addr)?;
                let mut ops = Vec::with_capacity(n);
                let mut refused = 0;
                barrier.wait();
                for k in 0..n {
                    let frame = capture_frame(&order, c, k);
                    let t0 = Instant::now();
                    let op = tr.open("op.capture");
                    let reply = conn.call(&frame, &mut tr);
                    tr.close(op);
                    let done = Instant::now();
                    ops.push(Op {
                        done_ns: (done - epoch).as_nanos() as u64,
                        lat_ns: Some((done - t0).as_nanos() as u64),
                    });
                    if !matches!(reply, Ok(Frame::Ack)) {
                        refused += 1;
                    }
                }
                Ok((ops, refused, tr))
            })
        })
        .collect();
    barrier.wait();
    let began_ns = epoch.elapsed().as_nanos() as u64;
    let mut ops = Vec::with_capacity(n * CLIENTS as usize);
    let mut failed = 0;
    for h in handles {
        let (client_ops, refused, t) = h
            .join()
            .map_err(|_| "capture client panicked".to_string())?
            .map_err(io_fatal("client"))?;
        ops.extend(client_ops.into_iter().map(|o| o.since(began_ns)));
        failed += refused;
        tr.absorb(t);
    }
    let acks = (n * CLIENTS as usize) as u64;

    // --- settle, then measure what the load left behind ---------------
    client::flush_all(&mut cluster, secs(3_600)).map_err(io_fatal("flush"))?;
    let frames_after = client::protocol_frames(&cluster).map_err(io_fatal("status"))?;
    let wal_after = client::wal_bytes(&dir).map_err(io_fatal("wal size"))?;

    // --- durability: crash node 0, restart it from disk ----------------
    let (recovery_s, lost, checked) = crash_and_verify(&mut cluster, &arrival_order(cx, 0))?;
    failed += lost;

    let exit = client::fold_reports(&cluster.shutdown().map_err(io_fatal("shutdown"))?);
    std::fs::remove_dir_all(&dir).map_err(io_fatal("cleanup"))?;

    let mut round = Round {
        setup_s,
        work: Work::Log {
            ops,
            window_ops: WINDOW_OPS,
        },
        attempted: acks + checked,
        failed: failed + exit.unsupported + exit.anomalies,
        ..Round::default()
    };
    round.layer.insert(
        "wal_bytes_per_capture",
        (wal_after - wal_before) as f64 / acks as f64,
    );
    round.layer.insert(
        "workload.frames_per_capture",
        (frames_after.0 - frames_before.0) as f64 / acks as f64,
    );
    exit.record(&mut round.layer);
    round.notes.push(format!(
        "recovery_s={recovery_s:.6} (crash -> restart -> first correct answer; {checked} post-restart checks, {lost} lost)"
    ));
    Ok(round)
}

/// Crash node 0 (no flush, no snapshot), restart it from its data
/// directory and check that nothing acked was lost: the canonical state
/// dump must equal the pre-crash one byte for byte (every record), and
/// a sample of the captures acked at node 0 must be locatable there.
/// Returns `(recovery seconds, lost, checked)`.
fn crash_and_verify(
    cluster: &mut LoopbackCluster,
    acked: &[u64],
) -> Result<(f64, u64, u64), Fatal> {
    let n = acked.len();
    let before = cluster.state_dump(0).map_err(io_fatal("state dump"))?;
    let first = captured_object(0, acked[0]);
    let t0 = Instant::now();
    cluster.crash(0).map_err(io_fatal("crash"))?;
    cluster.restart(0).map_err(io_fatal("restart"))?;
    let answer = cluster
        .locate(SiteId(0), first, secs(7_200))
        .map_err(io_fatal("locate"))?;
    let recovery_s = t0.elapsed().as_secs_f64();

    let (mut lost, mut checked) = (0, 2);
    if answer.0 != Some(SiteId(0)) || !answer.2 {
        lost += 1;
    }
    if cluster.state_dump(0).map_err(io_fatal("state dump"))? != before {
        lost += 1;
    }
    let sample = VERIFY_SAMPLE.min(n - 1);
    for j in 1..=sample {
        // Evenly spread, always ending on the last capture acked.
        let k = j * (n - 1) / sample;
        let (site, _, complete) = cluster
            .locate(SiteId(0), captured_object(0, acked[k]), secs(7_200))
            .map_err(io_fatal("locate"))?;
        checked += 1;
        if site != Some(SiteId(0)) || !complete {
            lost += 1;
        }
    }
    Ok((recovery_s, lost, checked))
}

/// Layer replay of the measured phase: the resident inventory untimed,
/// then both clients' captures, interleaved as they arrive.
pub fn replay(cx: &Cx, _round: &Round, rp: &mut Replay, tr: &mut Tracer) -> std::io::Result<()> {
    let mut off = Tracer::off();
    for e in resident(cx) {
        rp.control(
            e.site.0 as usize,
            &Frame::Capture {
                at: e.at,
                objects: e.objects,
            },
            &mut off,
        )?;
    }
    let orders: Vec<Vec<u64>> = (0..CLIENTS).map(|c| arrival_order(cx, c)).collect();
    for k in 0..captures_per_client(cx) {
        for c in 0..CLIENTS {
            rp.control(c as usize, &capture_frame(&orders[c as usize], c, k), tr)?;
        }
    }
    Ok(())
}
