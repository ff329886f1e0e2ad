//! Edge cases of the distributed protocols: duplicate messages, vetoes,
//! stale queries, RPC retransmission limits, network statistics.

use std::sync::Arc;

use chroma_base::{NodeId, ObjectId};
use chroma_dist::{Message, Node, RpcOp, RpcResult, Sim, TxnId, Write, RETRY_INTERVAL};
use chroma_obs::{EventBus, EventKind, MemorySink, Obs};
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
fn participant_log_and_store_events_are_pinned() {
    // Drive one participant by hand and pin its WAL events: a prepare
    // forces one 2PC record; a commit decision installs the writes as
    // one store batch (n intents + commit record, then the flush), then
    // forces `ParticipantDone`. Every event carries the node's id.
    let bus = Arc::new(EventBus::new());
    let sink = Arc::new(MemorySink::new(1_000));
    bus.add_sink(sink.clone());
    let (coord, p) = (NodeId::from_raw(1), NodeId::from_raw(2));
    let mut node = Node::builder()
        .id(p)
        .obs(Obs::new(bus))
        .build()
        .expect("no backend to restore from");
    let wal_events = |from: usize| -> Vec<(Option<NodeId>, EventKind)> {
        sink.events()[from..]
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::WalAppend { .. } | EventKind::WalFlush { .. }
                )
            })
            .map(|e| (e.node, e.kind))
            .collect()
    };
    let txn = TxnId(5);
    node.handle_message(
        coord,
        Message::Prepare {
            txn,
            writes: vec![w(1, 1), w(2, 2)],
            coordinator: coord,
        },
    );
    assert_eq!(
        wal_events(0),
        [(Some(p), EventKind::WalAppend { records: 1 })]
    );
    let mark = sink.events().len();
    node.handle_message(coord, Message::Decision { txn, commit: true });
    assert_eq!(
        wal_events(mark),
        [
            (Some(p), EventKind::WalAppend { records: 3 }),
            (Some(p), EventKind::WalFlush { objects: 2 }),
            (Some(p), EventKind::WalAppend { records: 1 }),
        ]
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
    sim.enable_trace();
    let coord = sim.add_node();
    let p = sim.add_node();
    sim.schedule_crash(p, 100_000);
    sim.schedule_recover(p, 400_000);
    sim.begin_transaction(coord, vec![(p, vec![w(1, 1)])]);
    sim.run_to_quiescence();
    let trace = sim.trace();
    assert!(!trace.is_empty());
    let text: Vec<String> = trace.iter().map(ToString::to_string).collect();
    let joined = text.join("\n");
    assert!(joined.contains("Prepare"), "no prepare in trace:\n{joined}");
    assert!(joined.contains("CRASH"));
    assert!(joined.contains("RECOVER"));
    // Timestamps are monotone.
    assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
}

#[test]
fn trace_is_empty_when_disabled() {
    let mut sim = Sim::new(53);
    let coord = sim.add_node();
    let p = sim.add_node();
    sim.begin_transaction(coord, vec![(p, vec![w(1, 1)])]);
    sim.run_to_quiescence();
    assert!(sim.trace().is_empty());
}
