//! The daemon's event-loop core under adversarial client behaviour.
//!
//! Five claims about the readiness-driven engine (`daemon::node`):
//!
//! 1. **Pipelining parity** — N request frames written back-to-back
//!    before reading anything yield exactly the N responses, in order,
//!    that request-at-a-time clients get — byte-identical — and the
//!    locate answers match the simulator-fed ground truth. This is the
//!    per-connection ordering invariant (a querying connection's inbox
//!    is suspended + staged responses) that makes open-loop clients
//!    sound.
//! 2. **Slow-loris isolation** — a client trickling one byte at a time
//!    (and one stalled mid-frame indefinitely) must not block other
//!    connections or corrupt frame decoding; every split offset of a
//!    `Capture` frame is a valid resume point.
//! 3. **Backpressure** — a client that writes hundreds of requests
//!    without ever reading is *parked* (bounded outbox), not buffered
//!    without bound or disconnected; once it drains, every response
//!    arrives complete and in order, and the node reports the parking.
//! 4. **Group-commit durability** — captures acked to a pipelined
//!    client are on disk: kill the node with `Frame::Crash` (the
//!    kill -9 model — no flush, no snapshot) right after the last ack
//!    and the restarted node's canonical state is byte-identical.
//! 5. **Queries in flight** — a query waiting on a peer is a table
//!    entry, not a held engine: a peer that never answers stalls that
//!    one query while every other connection is served, its death
//!    completes the query as *incomplete*, stopping the node answers
//!    what is in flight instead of waiting, and origins querying each
//!    other — or one trace making hundreds of remote reads — stay
//!    oracle-exact.

use daemon::node::chord_id_for;
use daemon::{Frame, LoopbackCluster, Node, NodeConfig};
use durable::FsyncMode;
use ids::Prefix;
use integration_tests::triple_from_events;
use moods::{Locate, MovementLog, ObjectId, SiteId, Trace};
use peertrack::config::GroupConfig;
use peertrack::Builder;
use simnet::time::secs;
use simnet::SimTime;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;
use transport::frame::{read_frame, write_frame};
use workload::paper::PaperWorkload;

fn can_bind() -> bool {
    TcpListener::bind("127.0.0.1:0").is_ok()
}

macro_rules! require_sockets {
    () => {
        if !can_bind() {
            eprintln!("SKIP: sandbox forbids binding loopback sockets");
            return;
        }
    };
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pt-pipe-{}-{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn connect(cluster: &LoopbackCluster, i: usize) -> TcpStream {
    let s = TcpStream::connect(cluster.addr(i)).expect("connect to node");
    s.set_nodelay(true).expect("nodelay");
    s
}

fn read_response(stream: &mut TcpStream) -> Vec<u8> {
    read_frame(stream).expect("read response").expect("node closed mid-test")
}

// ----------------------------------------------------------------------
// 1. Pipelining parity
// ----------------------------------------------------------------------

/// The same read-only request sequence, issued request-at-a-time on one
/// connection and as one back-to-back pipelined burst on another, must
/// produce byte-identical response sequences — and the locate answers
/// must match the oracle, so "identical" can't mean "identically wrong".
#[test]
fn pipelined_burst_matches_request_at_a_time_and_oracle() {
    require_sockets!();
    const SITES: usize = 4;
    const VOL: usize = 6;
    const SEED: u64 = 21;

    let events = PaperWorkload {
        sites: SITES,
        objects_per_site: VOL,
        grouped_movement: true,
        seed: SEED,
        ..PaperWorkload::default()
    }
    .generate();

    let net = Builder::new().sites(SITES).seed(SEED).build();
    let t = triple_from_events(net, &events);

    let mut cluster = LoopbackCluster::start(SITES, SEED).expect("cluster start");
    cluster.run_schedule(&events).expect("schedule");

    // A mixed request plan against node 0: locates and traces
    // (distributed queries — each parks on its remote reads while later
    // frames of this same connection wait their turn), interleaved with
    // local lookups (Resolve). Responses must be position-for-position
    // identical across client disciplines; queries log `Query` records
    // whose *per-query* costs are deterministic, while cumulative
    // surfaces (StateDump, Status) are deliberately left out of the
    // plan — they drift with history, not with discipline.
    let probes = [secs(0), secs(1_400), secs(4_200)];
    let mut requests: Vec<Vec<u8>> = Vec::new();
    for site in 0..SITES as u32 {
        for serial in 0..VOL as u64 {
            let o = workload::epc_object(site, serial);
            for &p in &probes {
                requests.push(Frame::Locate { object: o, t: p }.encode());
            }
            requests.push(
                Frame::Trace { object: o, t0: simnet::SimTime::ZERO, t1: secs(100_000) }
                    .encode(),
            );
            requests.push(Frame::Resolve { site: SiteId(site) }.encode());
        }
    }

    // Pass A: request-at-a-time (the pre-event-loop client discipline).
    let mut serial_conn = connect(&cluster, 0);
    let mut serial_responses: Vec<Vec<u8>> = Vec::with_capacity(requests.len());
    for req in &requests {
        write_frame(&mut serial_conn, req).expect("serial write");
        serial_responses.push(read_response(&mut serial_conn));
    }

    // Pass B: the whole plan written back-to-back before reading one
    // byte of response.
    let mut burst_conn = connect(&cluster, 0);
    for req in &requests {
        write_frame(&mut burst_conn, req).expect("burst write");
    }
    let burst_responses: Vec<Vec<u8>> =
        (0..requests.len()).map(|_| read_response(&mut burst_conn)).collect();

    assert_eq!(
        serial_responses, burst_responses,
        "pipelined responses must be byte-identical to request-at-a-time, in order"
    );

    // Ground-truth the locate answers (requests[k] layout: the first
    // `probes.len()` frames of every object block are locates).
    let mut k = 0;
    for site in 0..SITES as u32 {
        for serial in 0..VOL as u64 {
            let o = workload::epc_object(site, serial);
            for &p in &probes {
                let truth = t.oracle.locate(o, p);
                let resp = Frame::decode(&serial_responses[k]).expect("decode locate resp");
                match resp {
                    Frame::LocateResp { answer, complete, .. } => {
                        assert!(complete, "locate incomplete for {o:?} at {p}");
                        assert_eq!(answer, truth, "locate diverged from oracle at {p}");
                    }
                    other => panic!("expected LocateResp, got {other:?}"),
                }
                k += 1;
            }
            k += 2; // trace + resolve
        }
    }

    let reports = cluster.shutdown().expect("shutdown");
    for r in &reports {
        assert_eq!(r.unsupported, 0, "site {} rejected well-formed frames", r.site.0);
    }
}

// ----------------------------------------------------------------------
// 2. Slow-loris / partial frames
// ----------------------------------------------------------------------

/// A byte-at-a-time writer and a connection stalled mid-frame must not
/// block other clients, and the dribbled frame must decode intact.
#[test]
fn slow_loris_does_not_block_other_connections() {
    require_sockets!();
    let cluster = LoopbackCluster::start(2, 7).expect("cluster start");

    // A connection that sends half a frame header and then goes silent
    // forever (the classic slow-loris hold).
    let mut stalled = connect(&cluster, 0);
    let capture = Frame::Capture { at: secs(1), objects: vec![workload::epc_object(0, 0)] };
    let mut wire = Vec::new();
    write_frame(&mut wire, &capture.encode()).expect("encode to buffer");
    stalled.write_all(&wire[..2]).expect("send partial prefix");
    stalled.flush().expect("flush partial");

    // A second connection dribbles a full frame one byte at a time...
    let mut dribble = connect(&cluster, 0);
    let dribble_frame =
        Frame::Capture { at: secs(2), objects: vec![workload::epc_object(0, 1)] };
    let mut dribble_wire = Vec::new();
    write_frame(&mut dribble_wire, &dribble_frame.encode()).expect("encode to buffer");

    for (i, byte) in dribble_wire.iter().enumerate() {
        dribble.write_all(std::slice::from_ref(byte)).expect("dribble byte");
        dribble.flush().expect("flush byte");
        // ...and in the middle of the dribble, a normal client gets
        // served promptly on yet another connection.
        if i == dribble_wire.len() / 2 {
            let mut normal = connect(&cluster, 0);
            write_frame(&mut normal, &Frame::Status.encode()).expect("status write");
            match Frame::decode(&read_response(&mut normal)).expect("status decode") {
                Frame::StatusResp { .. } => {}
                other => panic!("expected StatusResp, got {other:?}"),
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }

    // The dribbled capture was assembled correctly and acked.
    match Frame::decode(&read_response(&mut dribble)).expect("decode dribble ack") {
        Frame::Ack => {}
        other => panic!("expected Ack for dribbled capture, got {other:?}"),
    }

    drop(stalled);
    let reports = cluster.shutdown().expect("shutdown");
    for r in &reports {
        assert_eq!(r.unsupported, 0, "partial frames must not decode as garbage");
    }
}

/// Regression for frame-boundary handling: a `Capture` frame split into
/// two writes at *every* byte offset must decode identically. (The
/// `FrameAccum` unit tests cover this in-process; this covers the
/// socket path end to end, where reads land on poll-wakeup boundaries.)
#[test]
fn capture_frame_split_at_every_offset_decodes_intact() {
    require_sockets!();
    let cluster = LoopbackCluster::start(2, 7).expect("cluster start");
    let mut conn = connect(&cluster, 1);

    let mut offsets_tried = 0;
    let mut serial = 0u64;
    // Representative wire length: a 2-object capture (~70 bytes).
    let probe_len = {
        let f = Frame::Capture {
            at: secs(0),
            objects: vec![workload::epc_object(1, 0), workload::epc_object(1, 1)],
        };
        let mut w = Vec::new();
        write_frame(&mut w, &f.encode()).expect("encode");
        w.len()
    };

    for cut in 1..probe_len {
        // Fresh objects per iteration so every ack acks a new record.
        let frame = Frame::Capture {
            at: secs(10 + serial),
            objects: vec![
                workload::epc_object(1, 100 + serial * 2),
                workload::epc_object(1, 101 + serial * 2),
            ],
        };
        serial += 1;
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame.encode()).expect("encode");
        assert_eq!(wire.len(), probe_len, "frame length drifted mid-test");

        conn.write_all(&wire[..cut]).expect("first half");
        conn.flush().expect("flush first half");
        // Give the engine a poll wakeup with only the partial frame.
        std::thread::sleep(Duration::from_micros(300));
        conn.write_all(&wire[cut..]).expect("second half");
        conn.flush().expect("flush second half");

        match Frame::decode(&read_response(&mut conn)).expect("decode ack") {
            Frame::Ack => offsets_tried += 1,
            other => panic!("split at {cut}: expected Ack, got {other:?}"),
        }
    }
    assert_eq!(offsets_tried, probe_len - 1, "every split offset exercised");

    let reports = cluster.shutdown().expect("shutdown");
    for r in &reports {
        assert_eq!(r.unsupported, 0, "split frames must never decode as garbage");
    }
}

// ----------------------------------------------------------------------
// 3. Backpressure
// ----------------------------------------------------------------------

/// A client that pipelines hundreds of large-response requests without
/// reading must be *parked* — bounded per-connection outbox — rather
/// than ballooning the node's memory or getting dropped. When the
/// client finally drains, every response arrives in order.
#[test]
fn never_reading_client_is_parked_not_unbounded() {
    require_sockets!();
    const SITES: usize = 2;
    const REQUESTS: usize = 300;

    let cluster = LoopbackCluster::start(SITES, 7).expect("cluster start");

    // Grow node 0's state so every StateDump response is fat: several
    // captures of many objects each (kept under n_max so no protocol
    // traffic complicates the picture).
    let mut loader = connect(&cluster, 0);
    for batch in 0..4u64 {
        let objects: Vec<_> =
            (0..200).map(|j| workload::epc_object(0, batch * 200 + j)).collect();
        let f = Frame::Capture { at: secs(batch + 1), objects };
        write_frame(&mut loader, &f.encode()).expect("load write");
        match Frame::decode(&read_response(&mut loader)).expect("load ack") {
            Frame::Ack => {}
            other => panic!("expected Ack, got {other:?}"),
        }
    }
    let dump_len = {
        write_frame(&mut loader, &Frame::StateDump.encode()).expect("probe dump");
        read_response(&mut loader).len()
    };
    assert!(
        dump_len * REQUESTS / 2 > daemon::OUTBOX_LIMIT_BYTES * 2,
        "test must oversubscribe the outbox limit (dump is {dump_len} bytes)"
    );

    // The hog: pipeline alternating StateDump (fat) and Resolve (small,
    // distinguishable) requests, reading nothing.
    let mut hog = connect(&cluster, 0);
    for k in 0..REQUESTS {
        let req = if k % 2 == 0 {
            Frame::StateDump.encode()
        } else {
            Frame::Resolve { site: SiteId((k as u32 / 2) % SITES as u32) }.encode()
        };
        write_frame(&mut hog, &req).expect("hog write");
    }
    // Let the engine process into the outbox limit and park the hog.
    std::thread::sleep(Duration::from_millis(300));

    // Meanwhile the node still serves everyone else.
    let mut normal = connect(&cluster, 0);
    write_frame(&mut normal, &Frame::Status.encode()).expect("status write");
    match Frame::decode(&read_response(&mut normal)).expect("status decode") {
        Frame::StatusResp { .. } => {}
        other => panic!("expected StatusResp, got {other:?}"),
    }

    // Drain: all 300 responses, correct kinds, in request order.
    for k in 0..REQUESTS {
        let resp = Frame::decode(&read_response(&mut hog)).expect("hog response");
        match (k % 2, resp) {
            (0, Frame::StateResp(body)) => {
                assert_eq!(body.len() + 5, dump_len, "state changed mid-drain")
            }
            (1, Frame::AddrResp(Some(_))) => {}
            (_, other) => panic!("response {k} out of order or wrong kind: {other:?}"),
        }
    }

    let reports = cluster.shutdown().expect("shutdown");
    let hogged = &reports[0];
    assert!(
        hogged.backpressure_parks > 0,
        "oversubscribing the outbox must park the connection \
         (parks = {}, dump = {dump_len} bytes)",
        hogged.backpressure_parks
    );
    for r in &reports {
        assert_eq!(r.unsupported, 0, "site {} rejected well-formed frames", r.site.0);
    }
}

// ----------------------------------------------------------------------
// 4. Group-commit durability at the socket level
// ----------------------------------------------------------------------

/// Every capture acked to a pipelined client survives `Frame::Crash`
/// (abrupt exit: no flush, no final snapshot) under `--fsync batch`:
/// the group-commit rule is that the batch fsync happens *before* its
/// acks are released, so an ack in hand means the record is replayable.
#[test]
fn pipelined_acked_captures_survive_crash_under_batch_fsync() {
    require_sockets!();
    const SITES: usize = 3;
    const VICTIM: usize = 1;
    const CAPTURES: u64 = 60;

    let root = scratch("group-commit");
    let mut cluster = LoopbackCluster::start_durable(
        SITES,
        7,
        GroupConfig::default(),
        &root,
        FsyncMode::Batch,
        // Snapshots far away: recovery must come from WAL replay.
        100_000,
    )
    .expect("durable cluster start");

    // Pipeline a burst of captures, then collect every ack.
    let mut conn = connect(&cluster, VICTIM);
    for k in 0..CAPTURES {
        let f = Frame::Capture {
            at: secs(k + 1),
            objects: vec![workload::epc_object(VICTIM as u32, k)],
        };
        write_frame(&mut conn, &f.encode()).expect("capture write");
    }
    for k in 0..CAPTURES {
        match Frame::decode(&read_response(&mut conn)).expect("decode ack") {
            Frame::Ack => {}
            other => panic!("capture {k}: expected Ack, got {other:?}"),
        }
    }

    // Everything acked is now claimed durable. Kill -9 and recover.
    let before = cluster.state_dump(VICTIM).expect("state before crash");
    cluster.crash(VICTIM).expect("crash");
    cluster.restart(VICTIM).expect("restart from data dir");
    let after = cluster.state_dump(VICTIM).expect("state after restart");
    assert_eq!(before, after, "acked state lost across crash: group commit leaked an ack");

    cluster.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&root).ok();
}

// ----------------------------------------------------------------------
// 5. Queries in flight
// ----------------------------------------------------------------------

/// How long a request that needs no silent peer may take to be answered.
const PROMPT: Duration = Duration::from_secs(5);

fn request(stream: &mut TcpStream, frame: &Frame) -> Frame {
    write_frame(stream, &frame.encode()).expect("request write");
    Frame::decode(&read_response(stream)).expect("response decode")
}

/// A node whose only peer accepts connections and never answers, with
/// one `Locate` — of an object whose gateway that peer is — in flight.
struct Stalled {
    node: Node,
    /// The connection the in-flight locate was asked on.
    asker: TcpStream,
    /// The silent peer: its listener and the read link the node dialed.
    silent: (TcpListener, TcpStream),
}

fn stall_a_locate() -> Stalled {
    const SEED: u64 = 29;
    let node = Node::spawn(NodeConfig::loopback(SiteId(0), SEED, None)).expect("spawn");
    let listener = TcpListener::bind("127.0.0.1:0").expect("silent peer bind");
    let mut asker = TcpStream::connect(node.addr()).expect("connect");
    asker.set_read_timeout(Some(PROMPT)).expect("timeout");
    let joined = Frame::PeerJoined {
        site: SiteId(1),
        addr: listener.local_addr().expect("addr").to_string(),
    };
    write_frame(&mut asker, &joined.encode()).expect("announce");
    match request(&mut asker, &Frame::Status) {
        Frame::StatusResp { members: 2, .. } => {}
        other => panic!("silent peer not admitted: {other:?}"),
    }

    // From the ring, not by trial: a never-captured object whose gateway
    // on the two-member ring is the silent peer.
    let sim = Builder::new().sites(2).seed(SEED).build();
    let object = (0..u64::MAX)
        .map(|serial| workload::epc_object(0, serial))
        .find(|o| {
            let key = Prefix::of_id(&o.id(), sim.current_lp()).gateway_id();
            let found = sim.ring().lookup(chord_id_for(SEED, SiteId(0)), key).expect("lookup");
            sim.ring().app_index_of(&found.owner) == Some(1)
        })
        .expect("some object hashes to the peer");
    write_frame(&mut asker, &Frame::Locate { object, t: secs(1) }.encode()).expect("locate");
    let (link, _) = listener.accept().expect("the node dials its read link");
    Stalled { node, asker, silent: (listener, link) }
}

/// Fails at the parent commit: there the second connection's `Locate`
/// was deferred behind the first one's 10 s RPC deadline.
#[test]
fn silent_peer_stalls_one_query_and_nobody_else() {
    require_sockets!();
    let Stalled { node, mut asker, silent } = stall_a_locate();

    let mut other = TcpStream::connect(node.addr()).expect("second connection");
    other.set_read_timeout(Some(PROMPT)).expect("timeout");
    let held = workload::epc_object(0, 1_000_000);
    match request(&mut other, &Frame::Capture { at: secs(1), objects: vec![held] }) {
        Frame::Ack => {}
        other => panic!("expected Ack, got {other:?}"),
    }
    match request(&mut other, &Frame::Locate { object: held, t: secs(2) }) {
        Frame::LocateResp { answer: Some(SiteId(0)), complete: true, .. } => {}
        other => panic!("local locate behind a stalled query: {other:?}"),
    }
    match request(&mut other, &Frame::Status) {
        Frame::StatusResp { .. } => {}
        other => panic!("expected StatusResp, got {other:?}"),
    }

    // The peer dies: a transport failure is "incomplete", never "not in
    // the system" with `complete = true`.
    drop(silent);
    match Frame::decode(&read_response(&mut asker)).expect("decode") {
        Frame::LocateResp { answer: None, complete: false, .. } => {}
        other => panic!("stalled locate after its peer died: {other:?}"),
    }

    assert!(matches!(request(&mut other, &Frame::Shutdown), Frame::Ack));
    assert_eq!(node.join().unsupported, 0);
}

/// Stopping never waits for a peer: `Shutdown` answers the query in
/// flight as incomplete, acks, and the engine exits.
#[test]
fn shutdown_answers_queries_in_flight_before_its_ack() {
    require_sockets!();
    let Stalled { node, mut asker, silent } = stall_a_locate();

    let mut other = TcpStream::connect(node.addr()).expect("second connection");
    other.set_read_timeout(Some(PROMPT)).expect("timeout");
    assert!(matches!(request(&mut other, &Frame::Shutdown), Frame::Ack));
    match Frame::decode(&read_response(&mut asker)).expect("decode") {
        Frame::LocateResp { answer: None, complete: false, .. } => {}
        other => panic!("in-flight locate at shutdown: {other:?}"),
    }
    assert_eq!(node.join().unsupported, 0);
    drop(silent);
}

/// Two origins, each answering the other's reads while its own queries
/// wait on the other: 2 × 200 concurrent locates, every one exact.
#[test]
fn two_origins_querying_each_other_stay_oracle_exact() {
    require_sockets!();
    const SITES: usize = 4;
    const VOL: usize = 6;
    const SEED: u64 = 33;

    let events = PaperWorkload {
        sites: SITES,
        objects_per_site: VOL,
        grouped_movement: true,
        seed: SEED,
        ..PaperWorkload::default()
    }
    .generate();
    let t = triple_from_events(Builder::new().sites(SITES).seed(SEED).build(), &events);
    let mut cluster = LoopbackCluster::start(SITES, SEED).expect("cluster start");
    cluster.run_schedule(&events).expect("schedule");

    let probes = [secs(0), secs(1_400), secs(4_200), secs(9_000)];
    let plan: Vec<(ObjectId, SimTime, Option<SiteId>)> = (0..200usize)
        .map(|k| {
            let o = workload::epc_object((k % SITES) as u32, (k / SITES % VOL) as u64);
            let p = probes[k / (SITES * VOL) % probes.len()];
            (o, p, t.oracle.locate(o, p))
        })
        .collect();
    std::thread::scope(|scope| {
        for origin in 0..2 {
            let (mut conn, plan) = (connect(&cluster, origin), &plan);
            scope.spawn(move || {
                for &(object, at, truth) in plan {
                    match request(&mut conn, &Frame::Locate { object, t: at }) {
                        Frame::LocateResp { answer, complete: true, .. } => {
                            assert_eq!(answer, truth, "origin {origin}: {object:?} at {at}")
                        }
                        other => panic!("origin {origin}: {other:?}"),
                    }
                }
            });
        }
    });
    for r in cluster.shutdown().expect("shutdown") {
        assert_eq!(r.unsupported, 0, "site {}", r.site.0);
    }
}

/// One query, two hundred remote reads: an object that alternated
/// between two nodes 200 times, traced from a third.
#[test]
fn two_hundred_visit_trace_is_one_exact_query() {
    require_sockets!();
    const VISITS: u64 = 200;
    let object = workload::epc_object(0, 7);
    let events: Vec<workload::CaptureEvent> = (0..VISITS)
        .map(|k| workload::CaptureEvent {
            at: secs(10 * (k + 1)),
            site: SiteId((k % 2) as u32),
            objects: vec![object],
        })
        .collect();
    let mut oracle = MovementLog::new();
    for ev in &events {
        oracle.record(object, ev.site, ev.at);
    }
    let mut cluster = LoopbackCluster::start(3, 37).expect("cluster start");
    cluster.run_schedule(&events).expect("schedule");

    let (path, _, complete) =
        cluster.trace(SiteId(2), object, SimTime::ZERO, SimTime::INFINITY).expect("trace");
    assert!(complete);
    assert_eq!(path.len() as u64, VISITS);
    assert_eq!(path, oracle.trace(object, SimTime::ZERO, SimTime::INFINITY));
    for r in cluster.shutdown().expect("shutdown") {
        assert_eq!(r.unsupported, 0, "site {}", r.site.0);
    }
}
