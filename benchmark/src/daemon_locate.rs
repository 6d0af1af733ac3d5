//! `daemon_locate` — the read path.
//!
//! Set-up preloads a §V-style movement history (3 sites × 10 000
//! objects, 10 % of them moved as pallets along 6-step routes). Then
//! two clients, one at origin 0 and one at origin 1, ask about objects
//! chosen uniformly: 80 % `Locate{o, t}` with `t` uniform over the
//! object's history — a past instant forces the backward IOP walk,
//! where `t = now` would stop at the gateway — and 20 %
//! `Trace{o, 0, end}`. The locate cache is off. Two thirds of the
//! objects live on another node, so most queries pay at least one
//! blocking `rpc()`, and the two origins query across each other.
//!
//! Each client is an **open loop**: random arrivals at [`RATE_QPS`],
//! one query outstanding per connection, every query timed from its due
//! instant. The offered load is under capacity, so latency is the
//! metric and throughput only says the load was carried. What a query
//! waits for at this load is what a user of a lightly loaded daemon
//! waits for: the origin's idle loop to wake (200 us sleeps), each
//! peer's idle loop for every `rpc()` hop, and — when both origins are
//! inside an `rpc()` at once — the nested pump's socket read-timeouts:
//! about one query in a hundred then stalls for 8 ms or a multiple,
//! which is what the round's 99th percentile (`op.tail_us`) shows.
//!
//! Closed loops were measured first, as the issue specifies, and do not
//! repeat on this host (README, "What did not repeat"). With two
//! closed-loop clients one query in three stalls, how often depends on
//! how the two loops fall into step, and four runs of *one* seed gave
//! 358-417 queries/s and a median latency of 177-231 us. One
//! closed-loop client keeps its peers on the edge between spinning and
//! sleeping (an engine spins for about as long as the gap between two
//! RPCs before it sleeps): ten runs gave 7 200-12 200 queries/s. For
//! the same reason the offered rate is low: at 1 000 queries/s the
//! origin is on that edge, and identical rounds gave medians of 146 us
//! and 386 us. The saturated pair answers ~400 queries/s, stalls and
//! all, so 2 x 100/s is also what leaves a backlog room to drain.

use crate::client::{self, Client};
use crate::gen::{self, Movement};
use crate::harness::{Cx, Fatal, Op, Round, Work};
use crate::pacer;
use crate::replay::Replay;
use crate::spans::Tracer;
use daemon::Frame;
use detrand::rngs::StdRng;
use detrand::Rng;
use moods::{Locate, ObjectId, Trace};
use simnet::SimTime;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub const WHY: &str = "read path: 2 open-loop clients (random arrivals, 100/s each) at origins 0 and 1, 80% past-time Locate + 20% Trace over a 30k-object movement, cache off; query walk, per-hop RPC, idle wake-ups";

/// Client threads; client `c` queries node `c`.
pub const CLIENTS: u32 = 2;
const OBJECTS_PER_SITE: usize = 10_000;
const ROUTE_LEN: usize = 6;
/// Offered load per client, queries per second: low enough that a
/// query finds the engines asleep, as the previous one left them.
pub const RATE_QPS: u64 = 100;
/// Queries each client issues per round, 6.6 s of offered load:
/// 2 × 660 × 80 % = 1 056 locates, four standard deviations above the
/// 1 000 a 99th percentile needs.
const QUERIES_PER_CLIENT: usize = 660;
/// Arrivals per slot of a client's schedule (0.25 s).
const PER_SLOT: usize = 25;
/// Locates per window: twenty windows a round.
const WINDOW_OPS: usize = 50;
/// One query in this many is a full-history trace.
const TRACE_EVERY: u64 = 5;

/// The preloaded history.
pub fn movement(cx: &Cx) -> Movement {
    gen::paper_movement(
        cx.seed,
        client::NODES as u32,
        cx.scaled(OBJECTS_PER_SITE, 200),
        ROUTE_LEN,
    )
}

pub fn queries_per_client(cx: &Cx) -> usize {
    cx.scaled(QUERIES_PER_CLIENT, 75)
}

/// One query, with the oracle's answer decided up front.
pub enum Query {
    Locate { object: ObjectId, t: SimTime },
    Trace { object: ObjectId },
}

/// The next query of a client.
pub fn query(m: &Movement, rng: &mut StdRng) -> Query {
    let object = m.objects[rng.gen_range(0..m.objects.len())];
    if rng.gen_range(0..TRACE_EVERY) == 0 {
        return Query::Trace { object };
    }
    // Uniform over [first arrival, end]: the object exists throughout.
    let first = m.log.visits(object)[0].arrived;
    let t = SimTime::from_micros(rng.gen_range(first.as_micros()..=m.end.as_micros()));
    Query::Locate { object, t }
}

/// RNG stream of client `c`.
pub fn client_rng(cx: &Cx, c: u32) -> StdRng {
    gen::rng(cx.seed, 100 + c as u64)
}

fn io_fatal(what: &str) -> impl Fn(std::io::Error) -> Fatal + '_ {
    client::io_fatal("daemon_locate", what)
}

pub fn round(cx: &Cx, tr: &mut Tracer) -> Result<Round, Fatal> {
    let n = queries_per_client(cx);
    let t_setup = Instant::now();
    let dir = cx.scratch("locate").map_err(io_fatal("scratch dir"))?;
    let mut cluster = client::start_cluster(&dir, None, client::WORKLOAD_FSYNC)?;
    let m = Arc::new(movement(cx));
    cluster
        .run_schedule(&m.events)
        .map_err(io_fatal("preload"))?;
    let setup_s = t_setup.elapsed().as_secs_f64();
    let wal_before = client::wal_bytes(&dir).map_err(io_fatal("wal size"))?;

    let barrier = Arc::new(Barrier::new(CLIENTS as usize + 1));
    let epoch = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (addr, m, barrier) = (
                cluster.addr(c as usize),
                Arc::clone(&m),
                Arc::clone(&barrier),
            );
            let mut rng = client_rng(cx, c);
            let schedule = pacer::random_schedule(
                RATE_QPS,
                n,
                PER_SLOT,
                &mut gen::rng(cx.seed, 200 + c as u64),
            );
            let mut tr = tr.sibling(c + 1);
            std::thread::spawn(move || -> std::io::Result<ClientOut> {
                let mut conn = Client::connect(addr)?;
                let mut out = ClientOut::default();
                barrier.wait();
                let began = Instant::now();
                for &due_ns in schedule.iter() {
                    let q = query(&m, &mut rng);
                    // Timed from the instant the query was due, however
                    // late the previous answer let it be sent.
                    let due = began + Duration::from_nanos(due_ns);
                    pacer::wait_until(due);
                    out.late_ns.push((Instant::now() - due).as_nanos() as u64);
                    match q {
                        Query::Locate { object, t } => {
                            let op = tr.open("op.locate");
                            let reply = conn.call(&Frame::Locate { object, t }, &mut tr);
                            tr.close(op);
                            let done = Instant::now();
                            out.ops.push(Op {
                                done_ns: (done - epoch).as_nanos() as u64,
                                lat_ns: Some((done - due).as_nanos() as u64),
                            });
                            match reply {
                                Ok(Frame::LocateResp {
                                    answer,
                                    cost,
                                    complete,
                                }) if complete && answer == m.log.locate(object, t) => {
                                    out.model_msgs += cost.messages;
                                }
                                _ => out.failed += 1,
                            }
                        }
                        Query::Trace { object } => {
                            let op = tr.open("op.trace");
                            let reply = conn.call(
                                &Frame::Trace {
                                    object,
                                    t0: SimTime::ZERO,
                                    t1: m.end,
                                },
                                &mut tr,
                            );
                            tr.close(op);
                            let done = Instant::now();
                            out.ops.push(Op {
                                done_ns: (done - epoch).as_nanos() as u64,
                                lat_ns: None,
                            });
                            out.trace_ns.push((done - due).as_nanos() as u64);
                            match reply {
                                Ok(Frame::TraceResp { path, complete, .. })
                                    if complete
                                        && path == m.log.trace(object, SimTime::ZERO, m.end) => {}
                                _ => out.failed += 1,
                            }
                        }
                    }
                }
                out.tracer = Some(tr);
                Ok(out)
            })
        })
        .collect();
    barrier.wait();
    let began_ns = epoch.elapsed().as_nanos() as u64;
    let mut total = ClientOut::default();
    for h in handles {
        let out = h
            .join()
            .map_err(|_| "query client panicked".to_string())?
            .map_err(io_fatal("client"))?;
        total
            .ops
            .extend(out.ops.into_iter().map(|o| o.since(began_ns)));
        total.trace_ns.extend(out.trace_ns);
        total.late_ns.extend(out.late_ns);
        total.failed += out.failed;
        total.model_msgs += out.model_msgs;
        tr.absorb(out.tracer.expect("client returns its tracer"));
    }
    let queries = (n * CLIENTS as usize) as u64;

    let wal_after = client::wal_bytes(&dir).map_err(io_fatal("wal size"))?;
    let exit = client::fold_reports(&cluster.shutdown().map_err(io_fatal("shutdown"))?);
    std::fs::remove_dir_all(&dir).map_err(io_fatal("cleanup"))?;

    let mut trace_ns = total.trace_ns;
    trace_ns.sort_unstable();
    let mut late_ns = total.late_ns;
    late_ns.sort_unstable();
    let mut round = Round {
        setup_s,
        work: Work::Log {
            ops: total.ops,
            window_ops: WINDOW_OPS,
        },
        attempted: queries,
        failed: total.failed + exit.unsupported + exit.anomalies,
        ..Round::default()
    };
    round.layer.insert(
        "workload.rpcs_per_locate",
        total.model_msgs as f64 / round.work.timed() as f64,
    );
    exit.record(&mut round.layer);
    round.notes.push(format!(
        "{queries} queries offered at {RATE_QPS}/s per origin, generator lateness p99={:.1}us; trace_p50_us={:.3} from due over {} traces (op latency metrics are Locate only); {} WAL bytes per query",
        crate::stats::percentile(&late_ns, 99) as f64 / 1e3,
        crate::stats::percentile(&trace_ns, 50) as f64 / 1e3,
        trace_ns.len(),
        (wal_after - wal_before) / queries
    ));
    Ok(round)
}

#[derive(Default)]
struct ClientOut {
    ops: Vec<Op>,
    /// Trace latencies from due, and how late each query was sent.
    trace_ns: Vec<u64>,
    late_ns: Vec<u64>,
    failed: u64,
    /// Model messages (`CostWire`) the origins charged for locates: one
    /// per RPC hop.
    model_msgs: u64,
    tracer: Option<Tracer>,
}

/// Layer replay of the measured phase: the preload untimed (it fills
/// the repository the RPC lookups hit), then the round's queries with
/// the model messages they were charged.
pub fn replay(cx: &Cx, round: &Round, rp: &mut Replay, tr: &mut Tracer) -> std::io::Result<()> {
    let mut off = Tracer::off();
    for e in movement(cx).events {
        rp.control(
            e.site.0 as usize,
            &Frame::Capture {
                at: e.at,
                objects: e.objects,
            },
            &mut off,
        )?;
    }
    let locates = round.work.timed() as f64;
    let rpcs = round
        .layer
        .get("workload.rpcs_per_locate")
        .copied()
        .unwrap_or(0.0)
        * locates;
    rp.queries(round.work.ops() as u64, rpcs.round() as u64, tr)
}
