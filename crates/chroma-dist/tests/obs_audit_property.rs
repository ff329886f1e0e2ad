//! Property test: any random fault schedule must yield an event trace
//! that the offline [`TraceAuditor`] certifies clean, with observability
//! counters agreeing with the simulator's own network statistics.

use std::sync::Arc;

use chroma_base::ObjectId;
use chroma_dist::{Sim, Write, RETRY_INTERVAL};
use chroma_obs::{EventBus, FlightRecorder, Obs, Observable, TraceAuditor};
use chroma_store::StoreBytes;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_fault_schedules_audit_clean(
        seed in 0u64..10_000,
        loss_permille in 0u64..300,
        dup_permille in 0u64..300,
        crash_victim in 0usize..3,
        crash_slot in 0u64..6,
    ) {
        let mut sim = Sim::new(seed);
        sim.net.loss = loss_permille as f64 / 1000.0;
        sim.net.duplication = dup_permille as f64 / 1000.0;
        let bus = Arc::new(EventBus::new());
        let recorder = FlightRecorder::attach(&bus, 500_000);
        sim.install_obs(Obs::new(bus.clone()));

        let nodes = [sim.add_node(), sim.add_node(), sim.add_node()];
        let coord = nodes[0];
        let writes = nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                (
                    n,
                    vec![Write {
                        object: ObjectId::from_raw(i as u64 + 1),
                        state: StoreBytes::from(vec![i as u8 + 1]),
                    }],
                )
            })
            .collect();
        let _txn = sim.begin_transaction(coord, writes);
        let when = crash_slot * (RETRY_INTERVAL / 3);
        sim.schedule_crash(nodes[crash_victim], when);
        sim.schedule_recover(nodes[crash_victim], when + 25 * RETRY_INTERVAL);
        sim.run_to_quiescence();

        prop_assert_eq!(recorder.dropped(), 0, "trace ring overflowed");
        let events = recorder.events();
        let report = TraceAuditor::audit_events(&events);
        prop_assert!(report.is_clean(), "audit failed:\n{}", report);

        // The bus counters and the simulator's NetStats are independent
        // tallies of the same history; they must agree exactly.
        let snap = bus.snapshot();
        let stats = sim.net_stats();
        prop_assert_eq!(snap.counter("msg_send"), stats.sent);
        prop_assert_eq!(snap.counter("msg_drop"), stats.dropped);
        prop_assert_eq!(snap.counter("msg_dup"), stats.duplicated);
        prop_assert_eq!(snap.counter("msg_deliver"), stats.delivered);

        // Serialising the trace to JSONL and re-auditing the text must
        // reach the same verdict (the wire format loses nothing the
        // auditor needs).
        let jsonl: String = events
            .iter()
            .map(|e| e.to_json_line() + "\n")
            .collect();
        let report2 = TraceAuditor::audit_jsonl(&jsonl).expect("well-formed trace");
        prop_assert!(report2.is_clean());
    }
}
