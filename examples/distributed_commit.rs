//! The distributed substrate (§2): fail-silent nodes, a lossy network,
//! two-phase commit, and a replicated name server — shown under fault
//! injection in the deterministic simulator.
//!
//! ```text
//! cargo run --example distributed_commit
//! ```

use chroma::base::ObjectId;
use chroma::dist::{Sim, Write};
use chroma::store::StoreBytes;

fn main() {
    // ------------------------------------------------------------------
    // Two-phase commit across three nodes, on a network losing 20% of
    // messages and duplicating 10%, with a participant crashing between
    // prepare and decision.
    // ------------------------------------------------------------------
    let mut sim = Sim::new(2026);
    sim.net.loss = 0.2;
    sim.net.duplication = 0.1;
    let coordinator = sim.add_node();
    let p1 = sim.add_node();
    let p2 = sim.add_node();

    let txn = sim.begin_transaction(
        coordinator,
        vec![
            (
                p1,
                vec![Write {
                    object: ObjectId::from_raw(1),
                    state: StoreBytes::from(b"ledger-entry".to_vec()),
                }],
            ),
            (
                p2,
                vec![Write {
                    object: ObjectId::from_raw(2),
                    state: StoreBytes::from(b"index-entry".to_vec()),
                }],
            ),
        ],
    );
    // Crash p2 mid-protocol, recover it later.
    sim.schedule_crash(p2, 60_000);
    sim.schedule_recover(p2, 900_000);
    sim.run_to_quiescence();

    println!("transaction {txn}:");
    println!(
        "  coordinator decision: {:?}",
        sim.coordinator_outcome(coordinator, txn)
    );
    let i1 = sim.node(p1).read(ObjectId::from_raw(1)).is_some();
    let i2 = sim.node(p2).read(ObjectId::from_raw(2)).is_some();
    println!("  installed at p1: {i1}, at p2: {i2}");
    println!(
        "  in doubt anywhere: {}",
        sim.node(p1).in_doubt(txn) || sim.node(p2).in_doubt(txn)
    );
    assert_eq!(i1, i2, "atomicity");
    let stats = sim.net_stats();
    println!(
        "  network: {} sent, {} delivered, {} dropped, {} duplicated",
        stats.sent, stats.delivered, stats.dropped, stats.duplicated
    );

    // ------------------------------------------------------------------
    // A replicated name server staying available through crashes.
    // ------------------------------------------------------------------
    let mut sim = Sim::new(7);
    let nodes = vec![sim.add_node(), sim.add_node(), sim.add_node()];
    let ns = chroma::apps::ReplicatedNameServer::create(&mut sim, ObjectId::from_raw(500), &nodes);
    assert!(ns.register(&mut sim, "printer", "room-3"));
    sim.run_to_quiescence();

    println!("\nreplicated name server:");
    sim.schedule_crash(nodes[0], 0);
    sim.run_to_quiescence();
    println!(
        "  node 0 down, lookup(printer) = {:?}",
        ns.lookup(&sim, "printer")
    );
    assert!(ns.register(&mut sim, "scanner", "room-5"));
    sim.run_to_quiescence();
    sim.schedule_recover(nodes[0], 0);
    sim.run_to_quiescence();
    sim.schedule_crash(nodes[1], 0);
    sim.schedule_crash(nodes[2], 0);
    sim.run_to_quiescence();
    println!(
        "  only the recovered node 0 up, lookup(scanner) = {:?} (caught up)",
        ns.lookup(&sim, "scanner")
    );
    assert_eq!(ns.lookup(&sim, "scanner"), Some("room-5".to_owned()));
    println!("ok");
}
