//! Two-phase-commit atomicity under crash and message-failure
//! schedules (experiment A3): all participants reach the same outcome,
//! no participant stays in doubt forever, and committed writes survive;
//! resolved transactions leave one small record per role behind.

use std::collections::BTreeSet;
use std::sync::Arc;

use chroma_base::{NodeId, ObjectId};
use chroma_dist::{
    RpcOp, Sim, TpcRecord, TxnId, Write, MAX_DECISION_ATTEMPTS, RETRY_INTERVAL, TPC_LOG_BASE,
};
use chroma_obs::{EventBus, FlightRecorder, Obs, Observable, TraceAuditor};
use chroma_store::StoreBytes;
use proptest::torture_seed;

fn w(object: u64, value: u8) -> Write {
    Write {
        object: ObjectId::from_raw(object),
        state: StoreBytes::from(vec![value]),
    }
}

fn installed(sim: &Sim, node: NodeId, object: u64, value: u8) -> bool {
    sim.node(node).read(ObjectId::from_raw(object)).as_deref() == Some(&[value][..])
}

#[test]
fn participant_crash_between_prepare_and_decision_recovers_commit() {
    let mut sim = Sim::new(21);
    let coord = sim.add_node();
    let p1 = sim.add_node();
    let p2 = sim.add_node();
    let txn = sim.begin_transaction(coord, vec![(p1, vec![w(1, 1)]), (p2, vec![w(2, 2)])]);
    // Let prepares and votes flow, then crash p2 before it can see the
    // decision.
    sim.run(8);
    sim.schedule_crash(p2, 0);
    sim.schedule_recover(p2, 20 * RETRY_INTERVAL);
    sim.run_to_quiescence();
    // Whatever was decided, both participants agree and nobody is in
    // doubt.
    assert!(!sim.node(p1).in_doubt(txn));
    assert!(!sim.node(p2).in_doubt(txn));
    let o1 = installed(&sim, p1, 1, 1);
    let o2 = installed(&sim, p2, 2, 2);
    assert_eq!(o1, o2, "participants disagree: p1={o1} p2={o2}");
    if sim.coordinator_outcome(coord, txn) == Some(true) {
        assert!(o1 && o2);
    }
}

#[test]
fn coordinator_crash_before_commit_point_presumes_abort() {
    let mut sim = Sim::new(22);
    let coord = sim.add_node();
    let p1 = sim.add_node();
    let txn = sim.begin_transaction(coord, vec![(p1, vec![w(1, 9)])]);
    // Crash the coordinator immediately: the prepare may arrive, the
    // vote will, but no decision is ever logged.
    sim.schedule_crash(coord, 1);
    sim.schedule_recover(coord, 30 * RETRY_INTERVAL);
    sim.run_to_quiescence();
    // Presumed abort: the recovered coordinator answers the prepared
    // participant's query with abort.
    assert_eq!(sim.coordinator_outcome(coord, txn), None);
    assert!(!sim.node(p1).in_doubt(txn));
    assert!(!installed(&sim, p1, 1, 9));
}

#[test]
fn coordinator_crash_after_commit_point_pushes_decision_on_recovery() {
    let mut sim = Sim::new(23);
    let coord = sim.add_node();
    let p1 = sim.add_node();
    let p2 = sim.add_node();
    let txn = sim.begin_transaction(coord, vec![(p1, vec![w(1, 1)]), (p2, vec![w(2, 2)])]);
    // Run until the commit record is durably logged (votes collected),
    // then crash before the decisions are all delivered.
    let mut steps = 0;
    while sim.coordinator_outcome(coord, txn).is_none() && sim.step() {
        steps += 1;
        assert!(steps < 1_000_000, "never decided");
    }
    sim.schedule_crash(coord, 0);
    sim.schedule_recover(coord, 50 * RETRY_INTERVAL);
    sim.run_to_quiescence();
    assert_eq!(sim.coordinator_outcome(coord, txn), Some(true));
    assert!(installed(&sim, p1, 1, 1));
    assert!(installed(&sim, p2, 2, 2));
    assert!(!sim.node(p1).in_doubt(txn));
    assert!(!sim.node(p2).in_doubt(txn));
}

#[test]
fn participant_down_past_every_decision_push_asks_on_recovery() {
    let mut sim = Sim::new(25);
    let coord = sim.add_node();
    let p1 = sim.add_node();
    let p2 = sim.add_node();
    let txn = sim.begin_transaction(coord, vec![(p1, vec![w(1, 1)]), (p2, vec![w(2, 2)])]);
    // p2 crashes right after it prepared (its vote is already on the
    // wire) and stays down until the coordinator has stopped pushing
    // the decision: only its own query on recovery can resolve it.
    while !sim.node(p2).in_doubt(txn) {
        assert!(sim.step(), "p2 never prepared");
    }
    sim.schedule_crash(p2, 0);
    let pushes = u64::from(MAX_DECISION_ATTEMPTS) + 10;
    sim.schedule_recover(p2, pushes * RETRY_INTERVAL);
    sim.run_to_quiescence();
    assert_eq!(sim.coordinator_outcome(coord, txn), Some(true));
    assert!(!sim.node(p2).in_doubt(txn), "p2 still in doubt");
    assert!(installed(&sim, p1, 1, 1) && installed(&sim, p2, 2, 2));
}

#[test]
fn double_crash_coordinator_and_participant() {
    let mut sim = Sim::new(24);
    let coord = sim.add_node();
    let p1 = sim.add_node();
    let txn = sim.begin_transaction(coord, vec![(p1, vec![w(5, 5)]), (coord, vec![w(6, 6)])]);
    sim.run(6);
    sim.schedule_crash(coord, 0);
    sim.schedule_crash(p1, RETRY_INTERVAL);
    sim.schedule_recover(coord, 40 * RETRY_INTERVAL);
    sim.schedule_recover(p1, 60 * RETRY_INTERVAL);
    sim.run_to_quiescence();
    assert!(!sim.node(p1).in_doubt(txn));
    assert!(!sim.node(coord).in_doubt(txn));
    let c = installed(&sim, coord, 6, 6);
    let p = installed(&sim, p1, 5, 5);
    assert_eq!(c, p, "atomicity violated: coord={c} p1={p}");
}

#[test]
fn randomized_sweep_preserves_atomicity() {
    // 40 seeds × (loss, duplication, random crash schedules): the
    // paper-level invariant is that a transaction's writes are either
    // installed at every participant or at none, once everyone is back
    // up and quiescent.
    for seed in 0..40 {
        let mut sim = Sim::new(seed);
        sim.net.loss = 0.15;
        sim.net.duplication = 0.15;
        // Capture the full event stream so the trace auditor can check
        // the protocol invariants offline after the run.
        let bus = Arc::new(EventBus::new());
        let recorder = FlightRecorder::attach(&bus, 200_000);
        sim.install_obs(Obs::new(bus));
        let coord = sim.add_node();
        let p1 = sim.add_node();
        let p2 = sim.add_node();
        let txn = sim.begin_transaction(
            coord,
            vec![
                (coord, vec![w(1, 11)]),
                (p1, vec![w(2, 22)]),
                (p2, vec![w(3, 33)]),
            ],
        );
        // Crash schedule derived from the seed.
        let victim = [coord, p1, p2][(seed % 3) as usize];
        let when = (seed % 7) * (RETRY_INTERVAL / 3);
        sim.schedule_crash(victim, when);
        sim.schedule_recover(victim, when + 25 * RETRY_INTERVAL);
        sim.run_to_quiescence();

        let installs = [
            installed(&sim, coord, 1, 11),
            installed(&sim, p1, 2, 22),
            installed(&sim, p2, 3, 33),
        ];
        assert!(
            installs.iter().all(|&i| i) || installs.iter().all(|&i| !i),
            "seed {seed}: partial install {installs:?} (outcome {:?})",
            sim.coordinator_outcome(coord, txn)
        );
        assert!(!sim.node(p1).in_doubt(txn), "seed {seed}: p1 in doubt");
        assert!(!sim.node(p2).in_doubt(txn), "seed {seed}: p2 in doubt");
        if sim.coordinator_outcome(coord, txn) == Some(true) {
            assert!(installs[0], "seed {seed}: committed but not installed");
        }

        // The trace itself must satisfy the paper's protocol rules: no
        // divergent decisions, no commit without a full yes-quorum.
        assert_eq!(recorder.dropped(), 0, "seed {seed}: trace ring overflowed");
        let report = TraceAuditor::audit_events(&recorder.events());
        assert!(
            report.is_clean(),
            "seed {seed}: trace audit failed:\n{report}"
        );
    }
}

#[test]
fn sequential_transactions_under_faults_all_settle() {
    let mut sim = Sim::new(77);
    sim.net.loss = 0.1;
    let coord = sim.add_node();
    let p1 = sim.add_node();
    let mut txns = Vec::new();
    for i in 0..10u64 {
        let txn = sim.begin_transaction(coord, vec![(p1, vec![w(i, i as u8)])]);
        txns.push((txn, i));
        sim.run_to_quiescence();
    }
    for (txn, i) in txns {
        assert!(!sim.node(p1).in_doubt(txn));
        if sim.coordinator_outcome(coord, txn) == Some(true) {
            assert!(installed(&sim, p1, i, i as u8), "txn {txn} lost write {i}");
        }
    }
}

#[test]
fn rpc_is_at_most_once_across_heavy_faults() {
    for seed in 0..10 {
        let mut sim = Sim::new(1000 + seed);
        sim.net.loss = 0.4;
        sim.net.duplication = 0.4;
        let client = sim.add_node();
        let server = sim.add_node();
        let call = sim.rpc(client, server, &RpcOp::Put(1, vec![1]));
        sim.run_to_quiescence();
        if sim.node(client).rpc_reply(call).is_some() {
            assert_eq!(
                sim.node(server).rpc_executed(),
                1,
                "seed {seed}: executed more than once"
            );
        }
    }
}

/// A record's transaction and role (`true`: participant).
fn slot(record: &TpcRecord) -> (TxnId, bool) {
    match record {
        TpcRecord::CoordCommit { txn, .. } | TpcRecord::CoordEnd { txn } => (*txn, false),
        TpcRecord::Prepared { txn, .. } | TpcRecord::ParticipantDone { txn } => (*txn, true),
    }
}

/// How many 2PC records `node`'s store holds, and their bytes.
fn stored_records(sim: &Sim, node: NodeId) -> (usize, usize) {
    let store = sim.node(node).store();
    let objects: Vec<ObjectId> = store
        .object_ids()
        .expect("ids")
        .into_iter()
        .filter(|&o| o >= TPC_LOG_BASE)
        .collect();
    let bytes = objects
        .iter()
        .map(|&o| store.read(o).expect("read").expect("listed").len())
        .sum();
    (objects.len(), bytes)
}

#[test]
fn resolved_transactions_leave_one_small_record_per_role() {
    const TXNS: u64 = 200;
    let seed = torture_seed().unwrap_or(42);
    let mut sim = Sim::new(seed);
    sim.net.loss = 0.1;
    sim.net.duplication = 0.1;
    let coord = sim.add_node();
    let p1 = sim.add_node();
    let p2 = sim.add_node();
    let mut committed = BTreeSet::new();
    for i in 0..TXNS {
        let writes = [p1, p2].map(|p| {
            let state = StoreBytes::from(vec![i as u8; 1024]);
            (
                p,
                vec![Write {
                    object: ObjectId::from_raw(i % 16),
                    state,
                }],
            )
        });
        let txn = sim.begin_transaction(coord, writes.to_vec());
        if i == TXNS / 2 {
            // p1 crashes with this transaction in flight
            sim.run(8);
            sim.schedule_crash(p1, 0);
            sim.schedule_recover(p1, 20 * RETRY_INTERVAL);
        }
        sim.run_to_quiescence();
        if sim.coordinator_outcome(coord, txn) == Some(true) {
            committed.insert(txn);
        }
    }
    assert!(!committed.is_empty(), "seed {seed}: nothing committed");

    for node in [coord, p1, p2] {
        let records = sim.node(node).tpc_records();
        let slots: BTreeSet<(TxnId, bool)> = records.iter().map(slot).collect();
        assert_eq!(
            slots.len(),
            records.len(),
            "seed {seed}: {node} holds two records for one transaction and role"
        );
        assert!(
            !records
                .iter()
                .any(|r| matches!(r, TpcRecord::Prepared { .. })),
            "seed {seed}: {node} kept a Prepared record past its decision"
        );
        let (stored, bytes) = stored_records(&sim, node);
        assert_eq!(
            stored,
            records.len(),
            "seed {seed}: {node}'s store and table differ"
        );
        if node != coord {
            for txn in &committed {
                assert!(sim.node(node).resolved(*txn), "seed {seed}: {node} {txn}");
            }
            assert!(
                bytes < 32 * TXNS as usize,
                "seed {seed}: {node} keeps {bytes} B of 2PC records for {TXNS} transactions"
            );
        }
    }
    let coordinated: BTreeSet<TxnId> = sim
        .node(coord)
        .tpc_records()
        .iter()
        .map(|r| slot(r).0)
        .collect();
    assert_eq!(
        coordinated, committed,
        "seed {seed}: the coordinator's records are not its commits"
    );
}
