//! Seeded torture tests for replicated objects under crash, recovery
//! and message-loss schedules, checked end-to-end by the trace auditor's
//! replication rules — plus one negative test per rule proving each
//! fires on a corrupted trace.

use std::sync::Arc;

use chroma_base::{NodeId, ObjectId};
use chroma_dist::{Message, Node, ReplicatedObject, Sim, TxnId, Write, RETRY_INTERVAL};
use chroma_obs::{
    Event, EventBus, EventKind, FlightRecorder, Obs, Observable, TraceAuditor, Violation,
};
use chroma_store::{codec, StoreBytes};
use proptest::torture_seed;

/// splitmix64 — one deterministic stream per seed (CI sweeps
/// `CHROMA_TORTURE_SEED` over a fixed matrix).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn obj() -> ObjectId {
    ObjectId::from_raw(100)
}

/// One full crash/recover/write/read schedule derived from `seed`.
///
/// Every crash is paired with a scheduled recovery, so quiescence runs
/// always terminate: an in-doubt participant's decision query finds its
/// coordinator again once the recovery event fires.
fn run_schedule(seed: u64) {
    let mut state = seed ^ 0x5DEE_CE66;
    let mut sim = Sim::new(seed);
    if splitmix(&mut state).is_multiple_of(2) {
        sim.net.loss = 0.05;
        sim.net.duplication = 0.05;
    }
    let bus = Arc::new(EventBus::new());
    let recorder = FlightRecorder::attach(&bus, 500_000);
    sim.install_obs(Obs::new(bus.clone()));

    let nodes = vec![sim.add_node(), sim.add_node(), sim.add_node()];
    let replica = ReplicatedObject::create(&mut sim, obj(), &nodes, b"v0");

    for step in 0..12u64 {
        match splitmix(&mut state) % 4 {
            0 => {
                // Crash a member with recovery already scheduled, then
                // advance a bounded slice so later ops run against the
                // hole it leaves.
                let victim = nodes[(splitmix(&mut state) % 3) as usize];
                let downtime = RETRY_INTERVAL * (1 + splitmix(&mut state) % 4);
                replica.crash_member(&mut sim, victim, downtime);
                sim.run(200);
            }
            1 => {
                // Write, sometimes losing a member mid-2PC.
                let payload = format!("s{step}");
                let wrote = replica.write(&mut sim, payload.as_bytes()).is_some();
                if wrote && splitmix(&mut state).is_multiple_of(3) {
                    let victim = nodes[(splitmix(&mut state) % 3) as usize];
                    replica.crash_member(&mut sim, victim, RETRY_INTERVAL * 2);
                }
                sim.run_to_quiescence();
            }
            2 => {
                // Read from whatever copy is freshest right now; the
                // auditor checks it is never stale nor lagging.
                let _ = replica.read(&sim);
                sim.run(50);
            }
            _ => {
                sim.run(500);
            }
        }
    }

    // Converge: recover everyone, settle, force a final write.
    for &n in &nodes {
        if !sim.node(n).up {
            sim.schedule_recover(n, RETRY_INTERVAL);
        }
    }
    sim.run_to_quiescence();
    replica.write(&mut sim, b"final").expect("all members up");
    sim.run_to_quiescence();

    let versions = replica.versions(&sim);
    assert_eq!(versions.len(), 3, "seed {seed}: a member never recovered");
    let top = versions.iter().map(|&(_, v)| v).max().unwrap();
    assert!(
        versions.iter().all(|&(_, v)| v == top),
        "seed {seed}: diverged {versions:?}"
    );
    for &n in &nodes {
        assert!(
            sim.node(n).stale.is_empty(),
            "seed {seed}: {n:?} still stale after convergence"
        );
    }
    let (version, bytes) = replica.read(&sim).expect("available");
    assert_eq!(version, top, "seed {seed}");
    assert_eq!(&bytes[..], b"final", "seed {seed}");

    assert_eq!(recorder.dropped(), 0, "seed {seed}: trace ring overflowed");
    // The final write/read alone guarantee the replication vocabulary is
    // present, so a clean audit is never vacuous.
    assert!(bus.counter("replica_write") >= 1, "seed {seed}");
    assert!(bus.counter("replica_install") >= 3, "seed {seed}");
    assert!(bus.counter("replica_read") >= 1, "seed {seed}");
    let report = TraceAuditor::audit_events(&recorder.events());
    assert!(report.is_clean(), "seed {seed} audit failed:\n{report}");
}

#[test]
fn seed_matrix_replica_torture() {
    let base = torture_seed().unwrap_or(0);
    for sub in 0..4u64 {
        run_schedule(base.wrapping_mul(1000).wrapping_add(sub));
    }
}

// ---- negative tests: each replication rule fires on a bad trace ----

fn ev(at_us: u64, kind: EventKind) -> Event {
    Event::at(at_us, kind)
}

/// R5: a member installing a version below what it already holds.
#[test]
fn auditor_flags_replica_version_regression() {
    let n = NodeId::from_raw(1);
    let events = vec![
        ev(
            1,
            EventKind::ReplicaInstall {
                node: n,
                object: obj(),
                version: 2,
            },
        ),
        ev(
            2,
            EventKind::ReplicaInstall {
                node: n,
                object: obj(),
                version: 1,
            },
        ),
    ];
    let report = TraceAuditor::audit_events(&events);
    assert!(!report.is_clean());
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ReplicaVersionRegression { .. })),
        "{report}"
    );
}

/// R6: a read served by a member still catching up — whether reported
/// via an open catch-up window or via the event's own stale flag.
#[test]
fn auditor_flags_read_during_catchup() {
    let n = NodeId::from_raw(1);
    let events = vec![
        ev(
            1,
            EventKind::CatchupBegin {
                node: n,
                object: obj(),
            },
        ),
        ev(
            2,
            EventKind::ReplicaRead {
                node: n,
                object: obj(),
                version: 0,
                stale: false,
            },
        ),
    ];
    let report = TraceAuditor::audit_events(&events);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ReadDuringCatchup { .. })),
        "{report}"
    );

    // The stale flag alone is also damning, no window required.
    let flagged = vec![ev(
        1,
        EventKind::ReplicaRead {
            node: n,
            object: obj(),
            version: 3,
            stale: true,
        },
    )];
    let report = TraceAuditor::audit_events(&flagged);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ReadDuringCatchup { .. })),
        "{report}"
    );
}

/// R7: a read lagging more than the staleness window behind the highest
/// installed version of the object.
#[test]
fn auditor_flags_staleness_window_breach() {
    let fresh = NodeId::from_raw(1);
    let lagging = NodeId::from_raw(2);
    let events = vec![
        ev(
            1,
            EventKind::ReplicaInstall {
                node: fresh,
                object: obj(),
                version: 5,
            },
        ),
        ev(
            2,
            EventKind::ReplicaRead {
                node: lagging,
                object: obj(),
                version: 1,
                stale: false,
            },
        ),
    ];
    let report = TraceAuditor::audit_events(&events);
    assert!(!report.is_clean());
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::StalenessWindowExceeded { .. })),
        "{report}"
    );

    // A wider window forgives the same trace.
    let mut lenient = TraceAuditor::new().with_staleness_window(4);
    for event in &events {
        lenient.observe(event);
    }
    assert!(lenient.finish().is_clean());
}

/// Regression: a commit decision that was delayed past a node's
/// catch-up must not reinstall the older version it had prepared (the
/// divergence rule R5 exists to catch exactly this).
#[test]
fn late_decision_does_not_roll_back_caught_up_replica() {
    let id = NodeId::from_raw(1);
    let coord = NodeId::from_raw(2);
    let peer = NodeId::from_raw(3);
    let mut node = Node::new(id);
    node.replica_peers.insert(obj(), vec![peer]);
    node.write_versioned(obj(), 0, b"v0");
    node.barrier();

    // Prepare version 1; the decision is delayed in the network.
    let payload = codec::to_bytes(&(1u64, b"v1".to_vec())).unwrap();
    node.handle_message(
        coord,
        Message::Prepare {
            txn: TxnId(7),
            writes: vec![Write {
                object: obj(),
                state: StoreBytes::from(payload),
            }],
            coordinator: coord,
        },
    );
    // Meanwhile the node catches up to version 2 from its peers.
    node.write_versioned(obj(), 2, b"v2");
    node.barrier();
    // The late commit must not roll the copy back to version 1.
    node.handle_message(
        coord,
        Message::Decision {
            txn: TxnId(7),
            commit: true,
        },
    );
    assert_eq!(
        node.read_versioned(obj()),
        Some((2, StoreBytes::from(b"v2".to_vec())))
    );
}
