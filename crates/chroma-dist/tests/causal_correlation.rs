//! Causal correlation under network faults: a seeded run with both
//! duplication and loss enabled must still let an offline analyzer pair
//! every *applied* receive with exactly one send via the correlation
//! id, and every delivery's merged Lamport clock must strictly exceed
//! its send's (audit rule R8).
//!
//! Unpaired sends are legal — the network is allowed to lose messages.
//! Unpaired receives are not: a delivery that no send explains means
//! the correlation plumbing is broken, and both this test and the R8
//! auditor treat it as a failure.

use std::collections::HashMap;
use std::num::NonZeroU64;
use std::sync::Arc;

use chroma_base::ObjectId;
use chroma_dist::{ReplicatedObject, Sim, Write};
use chroma_obs::{EventBus, EventKind, FlightRecorder, Obs, Observable, SpanForest, TraceAuditor};
use chroma_store::StoreBytes;
use proptest::torture_seed;

#[test]
fn every_applied_receive_pairs_with_exactly_one_send() {
    let seed = torture_seed()
        .unwrap_or(0)
        .wrapping_mul(7919)
        .wrapping_add(23);
    let mut sim = Sim::new(seed);
    sim.net.loss = 0.15;
    sim.net.duplication = 0.25;

    let bus = Arc::new(EventBus::new());
    let recorder = FlightRecorder::attach(&bus, 500_000);
    sim.install_obs(Obs::new(bus.clone()));

    let nodes = vec![sim.add_node(), sim.add_node(), sim.add_node()];
    let replica = ReplicatedObject::create(&mut sim, ObjectId::from_raw(9), &nodes, b"v0");
    for round in 0..6u32 {
        let payload = format!("r{round}");
        replica.write(&mut sim, payload.as_bytes());
        sim.run_to_quiescence();
    }
    // A direct transaction too, so plain 2PC traffic (not just the
    // replication layer) crosses the lossy network.
    let txn = sim.begin_transaction(
        nodes[0],
        vec![(
            nodes[1],
            vec![Write {
                object: ObjectId::from_raw(10),
                state: StoreBytes::from(b"direct".to_vec()),
            }],
        )],
    );
    sim.run_to_quiescence();
    assert_eq!(sim.coordinator_outcome(nodes[0], txn), Some(true));

    let events = recorder.events();
    assert_eq!(recorder.dropped(), 0, "trace ring overflowed");

    // The schedule must actually have exercised the fault paths, or the
    // pairing claim below is vacuous.
    assert!(bus.counter("msg_dup") >= 1, "no duplication occurred");
    assert!(bus.counter("msg_drop") >= 1, "no loss occurred");

    // Pair receives with sends by correlation id, by hand — the claim
    // the SpanForest and auditor make, re-derived independently.
    let mut sends: HashMap<NonZeroU64, (u64, usize)> = HashMap::new(); // corr -> (send lc, count)
    let mut receives = 0u64;
    for event in &events {
        match event.kind {
            EventKind::MsgSend { .. } => {
                let corr = event.corr.expect("every send carries a correlation id");
                let entry = sends.entry(corr).or_insert((event.lc, 0));
                entry.1 += 1;
                assert_eq!(entry.1, 1, "correlation id {corr} allocated to two sends");
            }
            EventKind::MsgDeliver { .. } => {
                receives += 1;
                let corr = event.corr.expect("every delivery carries a correlation id");
                let (send_lc, _) = *sends
                    .get(&corr)
                    .unwrap_or_else(|| panic!("delivery corr {corr} has no matching send"));
                assert!(
                    event.lc > send_lc,
                    "delivery lc {} does not exceed send lc {send_lc} (corr {corr})",
                    event.lc
                );
            }
            _ => {}
        }
    }
    assert!(receives > 0, "no deliveries at all");

    // The span forest reaches the same verdict: flows for every
    // delivery, lost sends unpaired, and zero orphan receives.
    let forest = SpanForest::build(&events);
    assert_eq!(forest.flows.len() as u64, receives);
    assert!(
        !forest.unpaired_sends.is_empty(),
        "with 15% loss some send should go undelivered"
    );
    assert!(
        forest.unpaired_receives.is_empty(),
        "orphan receives: {:?}",
        forest.unpaired_receives
    );

    // And the R8 auditor agrees the trace is causally clean.
    let report = TraceAuditor::audit_events(&events);
    assert!(report.is_clean(), "seed {seed} audit failed:\n{report}");
}

#[test]
fn orphan_receive_is_an_audit_failure() {
    // Synthesize a delivery whose correlation id no send ever used;
    // the auditor must flag it rather than silently pairing nothing.
    use chroma_base::NodeId;
    use chroma_obs::{Event, Violation};

    let mut deliver = Event::at(
        10,
        EventKind::MsgDeliver {
            from: NodeId::from_raw(1),
            to: NodeId::from_raw(2),
            kind: chroma_obs::MsgKind::Prepare,
        },
    );
    deliver.lc = 4;
    deliver.corr = NonZeroU64::new(77);
    let report = TraceAuditor::audit_events(&[deliver]);
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::ReceiveWithoutSend { corr: 77, .. })));
}
