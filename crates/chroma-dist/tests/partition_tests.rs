//! Network partitions: two-phase commit safety and replica behaviour
//! when the network splits rather than nodes crashing.

use chroma_base::ObjectId;
use chroma_dist::{ReplicatedObject, Sim, Write};
use chroma_store::StoreBytes;

fn w(object: u64, value: u8) -> Write {
    Write {
        object: ObjectId::from_raw(object),
        state: StoreBytes::from(vec![value]),
    }
}

#[test]
fn tpc_blocked_by_partition_settles_after_heal() {
    let mut sim = Sim::new(61);
    let coord = sim.add_node();
    let p1 = sim.add_node();
    let p2 = sim.add_node();
    // Cut the coordinator off from p2 *before* the transaction starts.
    sim.partition(coord, p2);
    let txn = sim.begin_transaction(coord, vec![(p1, vec![w(1, 1)]), (p2, vec![w(2, 2)])]);
    sim.run_to_quiescence();
    // p2's vote never arrives: the coordinator aborts after retries;
    // both participants end consistent (nothing installed).
    assert_eq!(sim.coordinator_outcome(coord, txn), None);
    assert!(sim.node(p1).read(ObjectId::from_raw(1)).is_none());
    assert!(sim.node(p2).read(ObjectId::from_raw(2)).is_none());
    assert!(!sim.node(p1).in_doubt(txn));
    // Heal: a fresh transaction now commits everywhere.
    sim.heal_all();
    let txn2 = sim.begin_transaction(coord, vec![(p1, vec![w(1, 5)]), (p2, vec![w(2, 6)])]);
    sim.run_to_quiescence();
    assert_eq!(sim.coordinator_outcome(coord, txn2), Some(true));
    assert!(sim.node(p2).read(ObjectId::from_raw(2)).is_some());
}

#[test]
fn partition_after_prepare_leaves_participant_in_doubt_until_heal() {
    let mut sim = Sim::new(62);
    let coord = sim.add_node();
    let p = sim.add_node();
    let txn = sim.begin_transaction(coord, vec![(p, vec![w(1, 9)])]);
    // Let the prepare and the vote through, then cut the link before
    // the decision can arrive.
    sim.run(4);
    sim.partition(coord, p);
    // Drain a bounded slice of events: the participant keeps querying
    // into the void (blocked), which is exactly the classic 2PC
    // blocking window — the paper's model accepts it, recovery resolves
    // it.
    sim.run(400);
    if sim.node(p).in_doubt(txn) {
        sim.heal_all();
        sim.run_to_quiescence();
    }
    assert!(!sim.node(p).in_doubt(txn), "in doubt after heal");
    // Whatever was decided, it is consistent with the install state.
    let installed = sim.node(p).read(ObjectId::from_raw(1)).is_some();
    match sim.coordinator_outcome(coord, txn) {
        Some(true) => assert!(installed),
        _ => assert!(!installed),
    }
}

#[test]
fn replicated_object_survives_minority_partition() {
    let mut sim = Sim::new(63);
    let nodes = vec![sim.add_node(), sim.add_node(), sim.add_node()];
    let replica = ReplicatedObject::create(&mut sim, ObjectId::from_raw(9), &nodes, b"v0");
    // Split node 2 away from {0, 1}.
    sim.partition_group(&nodes[2..]);
    // A write coordinated from the majority side: node 2 cannot
    // prepare, so the coordinator aborts... write-all-available only
    // writes UP nodes; node 2 is up but unreachable — the transaction
    // retries then aborts, and the write fails this round. Heal and
    // retry.
    let txn = replica.write(&mut sim, b"v1");
    sim.run_to_quiescence();
    let committed = txn
        .map(|t| sim.coordinator_outcome(nodes[0], t) == Some(true))
        .unwrap_or(false);
    if !committed {
        sim.heal_all();
        replica.write(&mut sim, b"v1").expect("write after heal");
        sim.run_to_quiescence();
    } else {
        sim.heal_all();
    }
    sim.run_to_quiescence();
    let (version, state) = replica.read(&sim).expect("readable");
    assert_eq!(&state[..], b"v1");
    assert!(version >= 1);
}

#[test]
fn asymmetric_partitions_do_not_break_atomicity() {
    // Sever links one by one across several transactions; the invariant
    // is never violated.
    for seed in 0..10u64 {
        let mut sim = Sim::new(700 + seed);
        sim.net.loss = 0.1;
        let coord = sim.add_node();
        let p1 = sim.add_node();
        let p2 = sim.add_node();
        if seed % 2 == 0 {
            sim.partition(coord, p1);
        }
        if seed % 3 == 0 {
            sim.partition(p1, p2);
        }
        let txn = sim.begin_transaction(coord, vec![(p1, vec![w(1, 1)]), (p2, vec![w(2, 2)])]);
        sim.run_to_quiescence();
        sim.heal_all();
        sim.run_to_quiescence();
        let i1 = sim.node(p1).read(ObjectId::from_raw(1)).is_some();
        let i2 = sim.node(p2).read(ObjectId::from_raw(2)).is_some();
        // After healing and quiescence, any lingering in-doubt state
        // must have resolved consistently.
        let outcome = sim.coordinator_outcome(coord, txn);
        if outcome == Some(true) {
            // Committed: both must eventually install. In-doubt
            // participants query after heal... they do so only on
            // recovery or timers; run more.
            assert!(i1 && i2, "seed {seed}: committed but installs ({i1},{i2})");
        } else {
            assert!(!i1 && !i2, "seed {seed}: aborted but installs ({i1},{i2})");
        }
    }
}
