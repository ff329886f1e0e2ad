//! Edge cases of the distributed protocols: duplicate messages, vetoes,
//! stale queries, RPC retransmission limits, network statistics.

use std::sync::Arc;

use chroma_base::{NodeId, ObjectId};
use chroma_dist::{Message, Node, RpcOp, RpcResult, Sim, TxnId, Write, RETRY_INTERVAL};
use chroma_obs::{EventBus, EventKind, FlightRecorder, MsgKind, Obs, Observable};
use chroma_store::StoreBytes;

fn w(object: u64, value: u8) -> Write {
    Write {
        object: ObjectId::from_raw(object),
        state: StoreBytes::from(vec![value]),
    }
}

#[test]
fn duplicate_prepare_is_idempotent() {
    let mut sim = Sim::new(41);
    sim.net.duplication = 1.0; // every message duplicated
    let coord = sim.add_node();
    let p = sim.add_node();
    let txn = sim.begin_transaction(coord, vec![(p, vec![w(1, 1)])]);
    sim.run_to_quiescence();
    assert_eq!(sim.coordinator_outcome(coord, txn), Some(true));
    assert_eq!(
        sim.node(p).read(ObjectId::from_raw(1)).as_deref(),
        Some(&[1u8][..])
    );
    assert!(!sim.node(p).in_doubt(txn));
    // Duplicates were actually generated.
    assert!(sim.net_stats().duplicated > 0);
}

#[test]
fn veto_from_one_participant_aborts_all() {
    let mut sim = Sim::new(42);
    let coord = sim.add_node();
    let p1 = sim.add_node();
    let p2 = sim.add_node();
    sim.node_mut(p2).veto.insert(TxnId(1));
    let txn = sim.begin_transaction(coord, vec![(p1, vec![w(1, 1)]), (p2, vec![w(2, 2)])]);
    sim.run_to_quiescence();
    assert_eq!(sim.coordinator_outcome(coord, txn), None);
    // p1 prepared, then learned abort: obligation resolved, nothing
    // installed anywhere.
    assert!(!sim.node(p1).in_doubt(txn));
    assert!(sim.node(p1).read(ObjectId::from_raw(1)).is_none());
    assert!(sim.node(p2).read(ObjectId::from_raw(2)).is_none());
    // resolved() reports obligation state, not commitment.
    assert!(sim.node(p1).resolved(txn));
}

#[test]
fn one_committed_transaction_emits_exactly_its_protocol_events() {
    // One coordinator, two participants, a clean network: four message
    // pairs each way, sent and delivered once, plus the two yes votes,
    // the decision and the two resolutions. Nothing else: the nodes'
    // stores report no events of their own.
    let bus = Arc::new(EventBus::new());
    let mut sim = Sim::new(44);
    let coord = sim.add_node();
    let p1 = sim.add_node();
    let p2 = sim.add_node();
    sim.install_obs(Obs::new(bus.clone()));
    let txn = sim.begin_transaction(coord, vec![(p1, vec![w(1, 1)]), (p2, vec![w(2, 2)])]);
    sim.run_to_quiescence();
    assert_eq!(sim.coordinator_outcome(coord, txn), Some(true));
    let counts: Vec<(&str, u64)> = bus
        .snapshot()
        .counters
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .collect();
    assert_eq!(
        counts,
        [
            ("tpc_vote", 2),
            ("tpc_decide", 1),
            ("tpc_resolve", 2),
            ("msg_send", 8),
            ("msg_deliver", 8),
        ]
    );
    assert_eq!(counts.iter().map(|&(_, n)| n).sum::<u64>(), 21);
}

#[test]
fn participant_barriers_force_only_the_commit_points() {
    // Prepare and commit each cost the participant one log fsync: the
    // `Prepared` record, then the installed writes with the
    // `ParticipantDone` that replaces it. An abort installs nothing, so
    // its end record waits for the next barrier that writes.
    let coord = NodeId::from_raw(1);
    let mut node = Node::builder()
        .id(NodeId::from_raw(2))
        .build()
        .expect("no backend to restore from");
    let mut cost = |msg: Message| {
        let before = node.store().log_fsync_count();
        node.handle_message(coord, msg);
        node.barrier();
        node.store().log_fsync_count() - before
    };
    let prepare = |txn| Message::Prepare {
        txn,
        writes: vec![w(1, 1), w(2, 2)],
        coordinator: coord,
    };
    let (commit, abort) = (TxnId(5), TxnId(6));
    assert_eq!(cost(prepare(commit)), 1, "prepare");
    assert_eq!(
        cost(Message::Decision {
            txn: commit,
            commit: true
        }),
        1,
        "commit"
    );
    assert_eq!(cost(prepare(abort)), 1, "prepare");
    assert_eq!(
        cost(Message::Decision {
            txn: abort,
            commit: false
        }),
        0,
        "abort"
    );
    assert!(node.resolved(abort) && !node.in_doubt(abort));
    assert_eq!(
        node.read(ObjectId::from_raw(1)).as_deref(),
        Some(&[1u8][..])
    );
}

#[test]
fn decision_query_for_unknown_txn_presumes_abort() {
    let mut sim = Sim::new(43);
    let coord = sim.add_node();
    let p = sim.add_node();
    // Inject a stray query for a transaction the coordinator never saw.
    let effects = sim
        .node_mut(coord)
        .handle_message(p, Message::DecisionQuery { txn: TxnId(777) });
    // Presumed abort: the reply is Decision{commit: false}.
    assert_eq!(effects.len(), 1);
    match &effects[0] {
        chroma_dist::Effect::Send { to, msg } => {
            assert_eq!(*to, p);
            assert_eq!(
                *msg,
                Message::Decision {
                    txn: TxnId(777),
                    commit: false
                }
            );
        }
        other => panic!("unexpected effect {other:?}"),
    }
}

#[test]
fn rpc_get_and_ping_round_trips() {
    let mut sim = Sim::new(44);
    let client = sim.add_node();
    let server = sim.add_node();
    // Put then get.
    let put = sim.rpc(client, server, &RpcOp::Put(5, vec![7, 8]));
    sim.run_to_quiescence();
    assert_eq!(sim.node(client).rpc_reply(put), Some(RpcResult::Done));
    let get = sim.rpc(client, server, &RpcOp::Get(5));
    sim.run_to_quiescence();
    assert_eq!(
        sim.node(client).rpc_reply(get),
        Some(RpcResult::Value(Some(vec![7, 8])))
    );
    let missing = sim.rpc(client, server, &RpcOp::Get(99));
    sim.run_to_quiescence();
    assert_eq!(
        sim.node(client).rpc_reply(missing),
        Some(RpcResult::Value(None))
    );
    let ping = sim.rpc(client, server, &RpcOp::Ping);
    sim.run_to_quiescence();
    assert_eq!(sim.node(client).rpc_reply(ping), Some(RpcResult::Pong));
}

#[test]
fn rpc_to_permanently_dead_server_gives_up() {
    let mut sim = Sim::new(45);
    let client = sim.add_node();
    let server = sim.add_node();
    sim.schedule_crash(server, 0);
    let call = sim.rpc(client, server, &RpcOp::Ping);
    sim.run_to_quiescence(); // retransmissions exhaust, sim quiesces
    assert_eq!(sim.node(client).rpc_reply(call), None);
}

#[test]
fn crash_of_unknown_and_double_recover_are_harmless() {
    let mut sim = Sim::new(46);
    let n = sim.add_node();
    sim.schedule_recover(n, 0); // recover an up node: no-op
    sim.schedule_crash(n, 10);
    sim.schedule_crash(n, 20); // double crash
    sim.schedule_recover(n, 30);
    sim.schedule_recover(n, 40); // double recover
    sim.run_to_quiescence();
    assert!(sim.node(n).up);
}

#[test]
fn transactions_to_crashed_participant_abort_after_retries() {
    let mut sim = Sim::new(47);
    let coord = sim.add_node();
    let p = sim.add_node();
    sim.schedule_crash(p, 0);
    let txn = sim.begin_transaction(coord, vec![(p, vec![w(1, 1)])]);
    sim.run_to_quiescence();
    // The coordinator gave up: presumed abort.
    assert_eq!(sim.coordinator_outcome(coord, txn), None);
}

#[test]
fn net_stats_account_for_everything() {
    let mut sim = Sim::new(48);
    sim.net.loss = 0.3;
    let coord = sim.add_node();
    let p = sim.add_node();
    sim.begin_transaction(coord, vec![(p, vec![w(1, 1)])]);
    sim.run_to_quiescence();
    let stats = sim.net_stats();
    assert!(stats.sent > 0);
    assert_eq!(
        stats.sent + stats.duplicated,
        stats.delivered + stats.dropped,
        "conservation: {stats:?}"
    );
}

#[test]
fn virtual_time_advances_monotonically() {
    let mut sim = Sim::new(49);
    let coord = sim.add_node();
    let p = sim.add_node();
    let mut last = sim.now();
    sim.begin_transaction(coord, vec![(p, vec![w(1, 1)])]);
    while sim.step() {
        assert!(sim.now() >= last);
        last = sim.now();
    }
    assert!(last > 0);
}

#[test]
fn node_ids_are_stable_and_ordered() {
    let mut sim = Sim::new(50);
    let a = sim.add_node();
    let b = sim.add_node();
    assert_eq!(sim.node_ids(), vec![a, b]);
    assert_eq!(sim.node(a).id(), a);
    assert!(a < b);
    let _ = NodeId::from_raw(0);
}

#[test]
fn retry_interval_timers_do_not_livelock_idle_nodes() {
    // A node with no obligations schedules no timers: an idle sim
    // drains instantly.
    let mut sim = Sim::new(51);
    let _ = sim.add_node();
    assert_eq!(sim.run(1000), 0);
    let _ = RETRY_INTERVAL; // exported constant is part of the API
}

#[test]
fn trace_records_protocol_events() {
    let mut sim = Sim::new(52);
    let bus = Arc::new(EventBus::new());
    let recorder = FlightRecorder::attach(&bus, 10_000);
    sim.install_obs(Obs::new(bus.clone()));
    let coord = sim.add_node();
    let p = sim.add_node();
    sim.schedule_crash(p, 100_000);
    sim.schedule_recover(p, 400_000);
    sim.begin_transaction(coord, vec![(p, vec![w(1, 1)])]);
    sim.run_to_quiescence();
    let events = recorder.events();
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            EventKind::MsgSend {
                kind: MsgKind::Prepare,
                ..
            }
        )),
        "no prepare sent: {events:?}"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::NodeCrash { node } if node == p)));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::NodeRecover { node } if node == p)));
    // Stamped with simulated time, which never runs backwards.
    assert!(events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
}
