//! Churn demo: organizations join and leave while goods keep moving.
//!
//! Shows the machinery of §IV-A.2 working live:
//! * `Lp` grows with the network (Scheme 2) and the splitting process
//!   migrates index shards to the new prefix level;
//! * Chord key-range handoff keeps every object locatable across
//!   joins/leaves.
//!
//! Run with:
//! ```text
//! cargo run -p peertrack-examples --bin churn_demo
//! ```

use moods::{ObjectId, SiteId};
use peertrack::Builder;
use simnet::time::secs;
use simnet::MsgClass;

fn main() {
    let mut net = Builder::new().sites(12).seed(31).build();
    println!("start: {} sites, Lp = {}", net.live_sites(), net.current_lp());

    // Index an initial population at the 12 founding sites.
    let goods: Vec<ObjectId> = (0..240).map(|s| workload::epc_object(s % 12, s as u64)).collect();
    for (i, &g) in goods.iter().enumerate() {
        net.schedule_capture(secs(1 + i as u64 % 10), SiteId((i % 12) as u32), vec![g]);
    }
    net.run_until_quiescent();

    // Wave of growth: 20 new organizations join.
    let lp_before = net.current_lp();
    for _ in 0..20 {
        net.join_site();
    }
    println!(
        "after 20 joins: {} sites, Lp {} -> {}, split/merge traffic: {} messages",
        net.live_sites(),
        lp_before,
        net.current_lp(),
        net.metrics().messages_of(MsgClass::SplitMerge),
    );
    assert!(net.current_lp() > lp_before, "Scheme 2 must raise Lp");

    // Every original object must still be locatable.
    let now = net.now();
    for (i, &g) in goods.iter().enumerate() {
        let (loc, _) = net.locate(SiteId(14), g, now);
        assert_eq!(loc, Some(SiteId((i % 12) as u32)), "object lost in churn");
    }
    println!("all {} objects still locatable after the splits", goods.len());

    // Contraction: 10 organizations leave gracefully (their shards hand
    // off to successors; their own repositories depart).
    for s in 22..32u32 {
        net.leave_site(SiteId(s));
    }
    println!(
        "after 10 leaves: {} sites, Lp = {}",
        net.live_sites(),
        net.current_lp()
    );
    for (i, &g) in goods.iter().enumerate() {
        let (loc, _) = net.locate(SiteId(0), g, net.now());
        assert_eq!(loc, Some(SiteId((i % 12) as u32)), "object lost in contraction");
    }
    println!("index survived the contraction too");

    // The whole session's traffic, class by class: indexing, IOP link
    // updates, split/merge migration and handoff all itemized through
    // the shared reporter.
    use bench::report::{class_traffic_rows, print_table, CLASS_TRAFFIC_HEADER};
    let rows = class_traffic_rows(net.metrics());
    print_table("traffic by message class", &CLASS_TRAFFIC_HEADER, &rows);

    println!("done.");
}
