//! `peertrackd` — run one PeerTrack node over real sockets, or poke a
//! running one from the command line.
//!
//! ```text
//! peertrackd --site 0 --seed 42 --listen 127.0.0.1:7400 --data-dir /var/lib/pt/0
//! peertrackd --site 1 --seed 42 --listen 127.0.0.1:7401 --bootstrap 127.0.0.1:7400
//! peertrackd ctl 127.0.0.1:7400 capture 1000000 1:7 1:8
//! peertrackd ctl 127.0.0.1:7400 flush 1500000
//! peertrackd ctl 127.0.0.1:7401 locate 1:7 2000000
//! peertrackd ctl 127.0.0.1:7401 trace 1:7 0 9000000
//! peertrackd ctl 127.0.0.1:7400 status
//! peertrackd ctl 127.0.0.1:7400 dead 2   # site 2 is gone forever
//! peertrackd ctl 127.0.0.1:7400 shutdown
//! peertrackd --probe-bind        # exit 0 iff loopback sockets work here
//! ```
//!
//! Objects are written `home:serial` (the workload generator's EPC
//! derivation), times are virtual microseconds. See `DESIGN.md` §11 for
//! the deployment model — in particular, flushes are explicit because
//! virtual time lives with the driver, not the daemon.

use daemon::proto::Frame;
use daemon::{Node, NodeConfig};
use durable::FsyncMode;
use moods::SiteId;
use simnet::metrics::ALL_CLASSES;
use simnet::SimTime;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use transport::{dial, request, Backoff};

// The library forbids unsafe; the binary needs exactly one unsafe line
// to register POSIX signal dispositions. The handler only stores to an
// atomic (async-signal-safe); a watcher thread does the real work.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

static STOP_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_stop_signal(_signum: i32) {
    STOP_REQUESTED.store(true, Ordering::SeqCst);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("peertrackd: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        print_usage();
        return Ok(ExitCode::SUCCESS);
    }
    if args[0] == "--probe-bind" {
        return Ok(match std::net::TcpListener::bind("127.0.0.1:0") {
            Ok(_) => ExitCode::SUCCESS,
            Err(_) => ExitCode::FAILURE,
        });
    }
    if args[0] == "ctl" {
        return ctl(&args[1..]);
    }
    serve(args)
}

fn print_usage() {
    println!(
        "usage:\n  peertrackd --site N --seed S --listen ADDR [--bootstrap ADDR]\n           \
         [--data-dir DIR] [--fsync batch|never] [--snapshot-every N]\n           \
         [--replicas K] [--locate-cache N]\n  \
         peertrackd ctl ADDR (status | capture AT_US OBJ... | flush NOW_US | \
         locate OBJ T_US | trace OBJ T0_US T1_US | load | dead SITE | shutdown | crash)\n  \
         peertrackd --probe-bind\n\nOBJ is HOME:SERIAL; times are virtual µs.\n\
         Without --data-dir the node is in-memory only (crash loses state);\n\
         with it, every mutation is write-ahead logged and recovered on restart.\n\
         --replicas K copies every site's records onto its K-1 ring successors\n\
         (must match across the cluster; default 1 = no replication).\n\
         --locate-cache N caches up to N locate answers per node (volatile,\n\
         revalidated on every hit; default off). `ctl ... load` reads the\n\
         per-site served-locate attribution and cache counters back.\n\
         SIGINT/SIGTERM trigger the same clean shutdown as `ctl ... shutdown`."
    );
}

// ----------------------------------------------------------------------
// Server mode
// ----------------------------------------------------------------------

fn serve(args: &[String]) -> Result<ExitCode, String> {
    let mut site: Option<u32> = None;
    let mut seed: u64 = 0;
    let mut listen = "127.0.0.1:0".to_string();
    let mut bootstrap: Option<SocketAddr> = None;
    let mut data_dir: Option<std::path::PathBuf> = None;
    let mut fsync = FsyncMode::Batch;
    let mut snapshot_every = daemon::node::DEFAULT_SNAPSHOT_EVERY;
    let mut replicas: usize = 1;
    let mut locate_cache: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().map(|s| s.to_string()).ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--site" => site = Some(parse(&val("--site")?, "site")?),
            "--seed" => seed = parse(&val("--seed")?, "seed")?,
            "--listen" => listen = val("--listen")?,
            "--bootstrap" => {
                bootstrap =
                    Some(val("--bootstrap")?.parse().map_err(|e| format!("bootstrap: {e}"))?)
            }
            "--data-dir" => data_dir = Some(val("--data-dir")?.into()),
            "--fsync" => fsync = FsyncMode::parse(&val("--fsync")?)?,
            "--snapshot-every" => {
                snapshot_every = parse(&val("--snapshot-every")?, "snapshot-every")?;
                if snapshot_every == 0 {
                    return Err("--snapshot-every must be at least 1".into());
                }
            }
            "--replicas" => {
                replicas = parse(&val("--replicas")?, "replicas")?;
                if replicas == 0 {
                    return Err("--replicas must be at least 1".into());
                }
            }
            "--locate-cache" => {
                let cap: usize = parse(&val("--locate-cache")?, "locate-cache")?;
                if cap == 0 {
                    return Err("--locate-cache must be at least 1".into());
                }
                locate_cache = Some(cap);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let site = SiteId(site.ok_or("--site is required")?);

    let cfg = NodeConfig {
        site,
        seed,
        group: Default::default(),
        listen,
        bootstrap,
        data_dir,
        fsync,
        snapshot_every,
        replicas,
        locate_cache,
        // The standalone binary runs flat; WAN topologies are a harness
        // concern (`LoopbackCluster::start_geo`).
        geo: None,
    };
    let node = Node::spawn(cfg).map_err(|e| format!("spawn: {e}"))?;
    println!("peertrackd site {} listening on {}", site.0, node.addr());

    // SIGINT/SIGTERM ask the node for the same clean shutdown a ctl
    // Shutdown frame does — flush, final snapshot, connections closed —
    // by dialing our own listener from a watcher thread.
    unsafe {
        signal(SIGINT, on_stop_signal as *const () as usize);
        signal(SIGTERM, on_stop_signal as *const () as usize);
    }
    let own_addr = node.addr();
    std::thread::spawn(move || {
        while !STOP_REQUESTED.load(Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let _ = dial(own_addr, &Backoff::fast())
            .and_then(|mut stream| request(&mut stream, &Frame::Shutdown.encode()));
    });

    let report = node.join(); // blocks until a Shutdown frame (or signal) arrives

    println!("site {} shut down", report.site.0);
    println!(
        "  protocol messages: {} sent, {} received, {} in flight, {} held back",
        report.sent, report.received, report.in_flight, report.held
    );
    for class in ALL_CLASSES {
        let m = report.metrics.messages_of(class);
        if m > 0 {
            println!(
                "  {:?}: {} msgs, {} model bytes, {} hops",
                class,
                m,
                report.metrics.bytes_of(class),
                report.metrics.hops_of(class)
            );
        }
    }
    if report.anomalies != Default::default() || report.unsupported > 0 {
        println!("  anomalies: {:?}", report.anomalies);
        println!("  unsupported-path hits: {}", report.unsupported);
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

// ----------------------------------------------------------------------
// Control mode
// ----------------------------------------------------------------------

fn ctl(args: &[String]) -> Result<ExitCode, String> {
    let addr: SocketAddr = args
        .first()
        .ok_or("ctl needs an address")?
        .parse()
        .map_err(|e| format!("address: {e}"))?;
    let cmd = args.get(1).ok_or("ctl needs a command")?;
    let rest = &args[2..];

    let frame = match cmd.as_str() {
        "status" => Frame::Status,
        "load" => Frame::QueryLoad,
        "shutdown" => Frame::Shutdown,
        "crash" => Frame::Crash,
        "capture" => {
            let at = time_arg(rest.first(), "capture AT_US")?;
            if rest.len() < 2 {
                return Err("capture needs at least one OBJ".into());
            }
            let objects =
                rest[1..].iter().map(|s| object_arg(s)).collect::<Result<Vec<_>, _>>()?;
            Frame::Capture { at, objects }
        }
        "flush" => Frame::Flush { now: time_arg(rest.first(), "flush NOW_US")? },
        "locate" => Frame::Locate {
            object: object_arg(rest.first().ok_or("locate needs OBJ")?)?,
            t: time_arg(rest.get(1), "locate T_US")?,
        },
        "trace" => Frame::Trace {
            object: object_arg(rest.first().ok_or("trace needs OBJ")?)?,
            t0: time_arg(rest.get(1), "trace T0_US")?,
            t1: time_arg(rest.get(2), "trace T1_US")?,
        },
        // Declare a site permanently dead (kill-forever): send to every
        // *survivor* after the victim's process is gone. The receiver
        // removes the site from its ring, promotes the heir for its
        // gateway shards, and re-replicates — see DESIGN.md §13.
        "dead" => Frame::PeerDead {
            site: SiteId(
                rest.first()
                    .ok_or("dead needs SITE")?
                    .parse()
                    .map_err(|e| format!("dead SITE: {e}"))?,
            ),
        },
        other => return Err(format!("unknown ctl command {other}")),
    };

    let raw = dial(addr, &Backoff::fast())
        .and_then(|mut stream| request(&mut stream, &frame.encode()))
        .map_err(|e| format!("request: {e}"))?;
    let reply = Frame::decode(&raw).map_err(|e| format!("reply: {e}"))?;
    match reply {
        Frame::Ack => println!("ok"),
        Frame::StatusResp { site, members, sent, received, in_flight, held } => {
            println!(
                "site {} members {members} sent {sent} received {received} \
                 in_flight {in_flight} held {held}",
                site.0
            );
        }
        Frame::QueryLoadResp { loads, hits, misses } => {
            for (site, count) in &loads {
                println!("site {} served {count}", site.0);
            }
            println!("cache: {hits} hits {misses} misses");
        }
        Frame::LocateResp { answer, cost, complete } => {
            match answer {
                Some(s) => println!("at site {}", s.0),
                None => println!("not born yet"),
            }
            println!(
                "cost: {} msgs {} hops {} bytes; complete: {complete}",
                cost.messages, cost.hops, cost.bytes
            );
        }
        Frame::TraceResp { path, cost, complete } => {
            for v in &path {
                match v.departed {
                    Some(d) => println!(
                        "site {} [{} .. {}]",
                        v.site.0,
                        v.arrived.as_micros(),
                        d.as_micros()
                    ),
                    None => println!("site {} [{} .. )", v.site.0, v.arrived.as_micros()),
                }
            }
            println!(
                "cost: {} msgs {} hops {} bytes; complete: {complete}",
                cost.messages, cost.hops, cost.bytes
            );
        }
        other => return Err(format!("unexpected reply {other:?}")),
    }
    Ok(ExitCode::SUCCESS)
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("{what}: {e}"))
}

fn time_arg(s: Option<&String>, what: &str) -> Result<SimTime, String> {
    let s = s.ok_or(format!("{what} is required"))?;
    Ok(SimTime::from_micros(parse(s, what)?))
}

/// `HOME:SERIAL` → the workload generator's EPC-derived object id.
fn object_arg(s: &str) -> Result<moods::ObjectId, String> {
    let (home, serial) = s.split_once(':').ok_or(format!("object `{s}` is not HOME:SERIAL"))?;
    Ok(workload::epc_object(parse(home, "object home")?, parse(serial, "object serial")?))
}
