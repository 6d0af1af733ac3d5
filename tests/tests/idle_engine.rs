//! What an idle daemon engine costs, and what it leaves behind.
//!
//! An engine with nothing to do blocks on its doorbell while one
//! watcher thread per socket waits for that socket to become readable
//! (`transport::nio`). Three claims:
//!
//! 1. **Idle is free** — a 3-node cluster with no traffic uses under
//!    5 % of one core.
//! 2. **Nothing outlives a node** — after `Frame::Crash` or
//!    `Frame::Shutdown` the node's port refuses connections, and after
//!    many spawn/stop cycles none of its threads is left.
//! 3. **An unread socket never spins the engine** — a client that
//!    pipelines and never reads (its connection parked) and a peer that
//!    writes bytes nobody asked for on its link leave the engine idle;
//!    the unsolicited frame costs the link at once, and every other
//!    client is still served.
//!
//! Each test reads process-wide counters (`/proc/self/stat`,
//! `/proc/self/task`), so the tests of this file run one at a time.

use daemon::{Frame, LoopbackCluster, Node, NodeConfig};
use moods::SiteId;
use simnet::time::secs;
use std::net::{TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use transport::frame::{read_frame, write_frame};

/// What an idle process may use: 5 % of one core.
const IDLE_CPU_SHARE: f64 = 0.05;
/// How long the idle CPU is measured for.
const IDLE_WINDOW: Duration = Duration::from_secs(2);
/// How long a request that waits on nothing may take to be answered.
const PROMPT: Duration = Duration::from_secs(5);

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

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

/// CPU time this process has used, user plus system, in seconds
/// (`/proc/self/stat` fields 14 and 15, in the kernel's fixed 100 Hz
/// USER_HZ ticks).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; the fields after it do not.
    let after_name = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("tick count");
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// CPU seconds this process uses over [`IDLE_WINDOW`].
fn cpu_over_idle_window() -> f64 {
    let before = cpu_seconds();
    std::thread::sleep(IDLE_WINDOW);
    cpu_seconds() - before
}

/// Threads of this process a node spawned from the calling thread may
/// have left: its engine and the engine's watchers (unnamed, so they
/// carry the engine's name), and its listener's acceptor (unnamed,
/// started by the caller, so it carries the caller's name) — plus the
/// caller itself.
fn node_threads() -> usize {
    let me = std::fs::read_to_string("/proc/thread-self/comm").expect("read own comm");
    thread_names().filter(|comm| comm.starts_with("peertrackd") || *comm == me).count()
}

/// The name of every thread of this process.
fn thread_names() -> impl Iterator<Item = String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("read /proc/self/task");
    tasks.filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
}

/// Poll `settled` for up to 2 s: a joined thread may still be leaving
/// the task list.
fn wait_until(settled: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !settled() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect to node");
    s.set_read_timeout(Some(PROMPT)).expect("read timeout");
    s
}

/// Block until the node has parked `hog`, a client that never reads:
/// the bytes waiting in its receive buffer and this process's CPU time
/// both stay the same across two polls. The bytes alone do not show it —
/// the hog's receive buffer fills long before the node's send buffer
/// and outbox, and the node works until those are full too. An engine
/// that spins never gets here and fails at the deadline.
fn wait_until_parked(hog: &TcpStream) {
    // Larger than a socket's receive buffer can grow, so a peek sees all.
    let mut buf = vec![0u8; 32 << 20];
    let deadline = Instant::now() + PROMPT;
    let mut seen = [(usize::MAX, 0.0); 2];
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = (hog.peek(&mut buf).expect("the node answers the hog"), cpu_seconds());
        if seen == [now; 2] {
            return;
        }
        seen = [seen[1], now];
        assert!(Instant::now() < deadline, "the hog was never parked");
    }
}

fn request(stream: &mut TcpStream, frame: &Frame) -> Frame {
    write_frame(stream, &frame.encode()).expect("request write");
    let raw = read_frame(stream).expect("read response").expect("node closed the connection");
    Frame::decode(&raw).expect("response decode")
}

/// Fails at the commit before the engine waited on its sockets, where
/// an idle 3-node cluster woke every 200 µs and used 0.22 s of CPU in
/// 2 s (11 % of a core).
#[test]
fn idle_cluster_costs_no_cpu() {
    require_sockets!();
    let _serial = serial();
    let mut cluster = LoopbackCluster::start(3, 11).expect("cluster start");
    cluster.quiesce().expect("quiesce");
    // The engines spin briefly after their last request, then wait.
    std::thread::sleep(Duration::from_millis(100));

    let used = cpu_over_idle_window();
    let bound = IDLE_CPU_SHARE * IDLE_WINDOW.as_secs_f64();
    assert!(used < bound, "an idle 3-node cluster used {used:.2} s of CPU in {IDLE_WINDOW:?}");

    for r in cluster.shutdown().expect("shutdown") {
        assert_eq!(r.unsupported, 0);
    }
}

/// A stopped node leaves nothing behind: its port refuses at once, and
/// no engine, watcher or acceptor thread survives it. A watcher left blocked in
/// `accept` would keep a crashed node's port accepting — its peers
/// would then see their messages in flight rather than held.
#[test]
fn a_stopped_node_leaves_no_listener_and_no_threads() {
    require_sockets!();
    let _serial = serial();
    // The engine threads of nodes an earlier test joined may not have
    // left yet: counted in the baseline, they would be missed at the end.
    wait_until(|| !thread_names().any(|comm| comm.starts_with("peertrackd")));
    let baseline = node_threads();
    for cycle in 0..20u64 {
        let node = Node::spawn(NodeConfig::loopback(SiteId(0), cycle, None)).expect("spawn");
        let addr = node.addr();
        let mut client = connect(addr);
        assert!(matches!(request(&mut client, &Frame::Status), Frame::StatusResp { .. }));
        // Let the engine go idle, so its listener and the client's
        // connection are watched when the stop arrives.
        std::thread::sleep(Duration::from_millis(5));
        let stop = if cycle % 2 == 0 { Frame::Crash } else { Frame::Shutdown };
        assert!(matches!(request(&mut client, &stop), Frame::Ack), "cycle {cycle}");
        node.join();
        let redial = TcpStream::connect(addr).map(|_| ()).map_err(|e| e.kind());
        assert_eq!(redial, Err(std::io::ErrorKind::ConnectionRefused), "cycle {cycle}: {stop:?}");
    }
    wait_until(|| node_threads() <= baseline);
    assert_eq!(node_threads(), baseline, "a node's threads outlived it");
}

/// Neither a parked connection nor a link carrying a frame nobody asked
/// for wakes the engine over and over. The unsolicited frame is read
/// when it arrives — counted `unsupported`, its link dropped — instead
/// of waiting for the link's next write; fails at the commit before
/// the engine watched its links, where the frame sat unread.
#[test]
fn unread_sockets_do_not_spin_the_engine() {
    require_sockets!();
    let _serial = serial();
    const REQUESTS: usize = 300;
    let mut idle = LoopbackCluster::start(3, 13).expect("cluster start");
    idle.quiesce().expect("quiesce");

    // A node whose member site 1 is a fake peer. A join through the node
    // fans `PeerJoined` out to site 1: the node dials its link.
    let fake = TcpListener::bind("127.0.0.1:0").expect("fake peer bind");
    let node = Node::spawn(NodeConfig::loopback(SiteId(0), 13, None)).expect("spawn");
    let mut admin = connect(node.addr());
    let fake_addr = fake.local_addr().expect("fake peer address").to_string();
    let announce = Frame::PeerJoined { site: SiteId(1), addr: fake_addr };
    write_frame(&mut admin, &announce.encode()).expect("announce");
    let join = Frame::JoinReq { site: SiteId(2), addr: "127.0.0.1:9".to_string() };
    assert!(matches!(request(&mut admin, &join), Frame::JoinResp { .. }));
    let (mut link, _) = fake.accept().expect("the node dials site 1");
    link.set_read_timeout(Some(PROMPT)).expect("read timeout");
    match read_frame(&mut link).map(|f| f.map(|raw| Frame::decode(&raw))) {
        Ok(Some(Ok(Frame::PeerJoined { site: SiteId(2), .. }))) => {}
        other => panic!("expected the join news, got {other:?}"),
    }

    // A client that pipelines fat responses and never reads: parked.
    for batch in 0..4u64 {
        let objects = (0..200).map(|j| workload::epc_object(0, batch * 200 + j)).collect();
        let capture = Frame::Capture { at: secs(batch + 1), objects };
        assert!(matches!(request(&mut admin, &capture), Frame::Ack));
    }
    let mut hog = connect(node.addr());
    for _ in 0..REQUESTS {
        write_frame(&mut hog, &Frame::StateDump.encode()).expect("hog write");
    }

    // The fake peer answers a question nobody asked: the node reads it
    // at once and hangs up.
    write_frame(&mut link, &Frame::Ack.encode()).expect("unsolicited frame");
    match read_frame(&mut link) {
        Ok(None) => {}
        other => panic!("the link must be dropped, got {other:?}"),
    }
    // The window opens once the node has stopped serving the hog.
    wait_until_parked(&hog);

    let used = cpu_over_idle_window();
    let bound = IDLE_CPU_SHARE * IDLE_WINDOW.as_secs_f64();
    assert!(used < bound, "a parked client and a chatty peer cost {used:.2} s of CPU");

    let mut other = connect(node.addr());
    assert!(matches!(request(&mut other, &Frame::Status), Frame::StatusResp { .. }));

    drop(hog);
    assert!(matches!(request(&mut other, &Frame::Shutdown), Frame::Ack));
    let report = node.join();
    assert!(report.backpressure_parks > 0, "the hog was never parked");
    assert_eq!(report.unsupported, 1, "the unsolicited frame is counted once");
    for r in idle.shutdown().expect("shutdown") {
        assert_eq!(r.unsupported, 0);
    }
}
