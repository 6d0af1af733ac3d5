//! Quickstart: build a traceable network, capture some tagged objects,
//! and ask the two MOODS questions — `L(o, t)` (where is it?) and
//! `TR(o, t0, t1)` (where has it been?).
//!
//! Run with:
//! ```text
//! cargo run -p peertrack-examples --bin quickstart
//! ```

use ids::EpcCode;
use moods::{ObjectId, SiteId};
use peertrack::Builder;
use simnet::time::secs;
use simnet::SimTime;

fn main() {
    // A network of 16 organizations. Each gets a Chord identity; the
    // overlay is built and stabilized; Lp is derived from the network
    // size (Scheme 2, Eq. 6).
    let mut net = Builder::new().sites(16).seed(2024).build();
    println!(
        "network up: {} sites, Lp = {} ({} prefix groups)",
        net.live_sites(),
        net.current_lp(),
        1u64 << net.current_lp()
    );

    // A pallet of three tagged items (SGTIN-96 EPCs).
    let items: Vec<ObjectId> = (0..3)
        .map(|serial| {
            let epc = EpcCode::new(1, 5, 614_141, 812_345, serial).expect("valid EPC");
            println!("  tagged {}", epc.to_uri());
            ObjectId(epc.object_id())
        })
        .collect();

    // The pallet flows supplier (site 0) → DC (site 5) → store (site 9).
    net.schedule_capture(secs(10), SiteId(0), items.clone());
    net.schedule_capture(secs(3_600), SiteId(5), items.clone());
    net.schedule_capture(secs(7_200), SiteId(9), items.clone());

    // Drain the indexing traffic: windows flush, gateways update, IOP
    // links thread through the visited sites.
    net.run_until_quiescent();
    println!(
        "indexed: {} messages ({} bytes) of indexing traffic",
        net.metrics().indexing_messages(),
        net.metrics().indexing_bytes()
    );

    // L(o, t): where was item 0 one hour in? (query issued from site 14,
    // which knows nothing about the pallet)
    let (loc, stats) = net.locate(SiteId(14), items[0], secs(3_600));
    println!(
        "L(o0, t=1h)  = {:?}   [{} messages, {} simulated, answered by {:?}]",
        loc, stats.messages, stats.time, stats.source
    );
    assert_eq!(loc, Some(SiteId(5)));

    // TR(o, 0, now): the full path.
    let (path, stats) = net.trace(SiteId(14), items[0], SimTime::ZERO, net.now());
    let route: Vec<String> = path.iter().map(|v| v.site.to_string()).collect();
    println!(
        "TR(o0)       = {}   [{} messages, {} simulated]",
        route.join(" -> "),
        stats.messages,
        stats.time
    );
    assert_eq!(route, ["n0", "n5", "n9"]);

    // What crossed the (virtual) wire, class by class — rendered by the
    // same shared reporter the experiment binaries use.
    use bench::report::{class_traffic_rows, print_table, CLASS_TRAFFIC_HEADER};
    let rows = class_traffic_rows(net.metrics());
    print_table("traffic by message class", &CLASS_TRAFFIC_HEADER, &rows);

    println!("done.");
}
