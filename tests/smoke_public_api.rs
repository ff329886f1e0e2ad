//! End-to-end smoke of the `chroma` façade: coloured atomic actions,
//! on-disk durability, distributed permanence, replication and the
//! trace auditor — all through the public re-exports.
//!
//! A bare `cargo test -q` at the workspace root runs only the root
//! package's tests; this file makes that run exercise the whole public
//! API surface rather than pass vacuously. (Full per-crate coverage
//! still needs `cargo test --workspace` — see the README.)

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chroma::base::{NodeId, ObjectId};
use chroma::core::{DiskBackend, Runtime, RuntimeConfig};
use chroma::dist::{Host, Node, PartitionedStore, ReplicatedObject, Sim, TcpConfig, TxnId, Write};
use chroma::obs::{EventBus, FlightRecorder, Obs, Observable, TraceAuditor};
use chroma::store::StoreBytes;
use chroma::{NetConfig, TcpTransport, Transport};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "chroma-smoke-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn facade_covers_the_stack_end_to_end() {
    // ---- coloured atomic actions, traced ----
    let rt = Runtime::builder().build();
    let bus = Arc::new(EventBus::new());
    let recorder = FlightRecorder::attach(&bus, 100_000);
    rt.install_obs(Obs::new(bus.clone()));

    let account = rt.create_object(&100i64).unwrap();
    rt.atomic(|a| a.modify(account, |b: &mut i64| *b -= 30))
        .unwrap();
    assert_eq!(rt.read_committed::<i64>(account).unwrap(), 70);

    // The outermost commit was timed into the per-colour breakdown.
    let colour_metric = format!("core.commit_us.{}", rt.universe().name(rt.default_colour()));
    assert!(
        bus.snapshot().histogram(&colour_metric).is_some(),
        "missing {colour_metric}"
    );

    // ---- on-disk durability across a process restart ----
    let dir = temp_dir();
    let saved;
    {
        let disk_rt = Runtime::builder()
            .config(RuntimeConfig::default())
            .backend(Arc::new(DiskBackend::open(&dir).unwrap()))
            .build();
        disk_rt.install_obs(Obs::new(bus.clone()));
        saved = disk_rt.create_object(&7i64).unwrap();
        disk_rt
            .atomic(|a| a.modify(saved, |v: &mut i64| *v *= 6))
            .unwrap();
    }
    {
        let disk_rt = Runtime::builder()
            .config(RuntimeConfig::default())
            .backend(Arc::new(DiskBackend::open(&dir).unwrap()))
            .build();
        assert_eq!(disk_rt.read_committed::<i64>(saved).unwrap(), 42);
    }
    std::fs::remove_dir_all(&dir).ok();
    // The disk commits reported their log appends and fsyncs.
    assert!(bus.counter("disk_append") >= 1);
    assert!(bus.snapshot().histogram("store.fsync_us").is_some());

    // ---- distributed permanence with a storage-node crash ----
    let store = Arc::new(PartitionedStore::new(11, 3, 2));
    let dist_rt = Runtime::builder()
        .config(RuntimeConfig::default())
        .backend(store.clone())
        .build();
    let ledger = dist_rt.create_object(&1i64).unwrap();
    dist_rt.atomic(|a| a.write(ledger, &2i64)).unwrap();
    store.crash_node(0);
    assert_eq!(dist_rt.read_committed::<i64>(ledger).unwrap(), 2);
    store.recover_node(0);
    assert_eq!(store.up_count(), 3);

    // ---- replication with catch-up, audited ----
    let mut sim = Sim::new(5);
    sim.install_obs(Obs::new(bus.clone()));
    let members = vec![sim.add_node(), sim.add_node(), sim.add_node()];
    let replica = ReplicatedObject::create(&mut sim, ObjectId::from_raw(9), &members, b"v0");
    replica.write(&mut sim, b"v1").unwrap();
    sim.run_to_quiescence();
    replica.crash_member(&mut sim, members[2], 0);
    sim.run(10);
    replica.write(&mut sim, b"v2").unwrap();
    sim.run_to_quiescence();
    let (version, state) = replica.read(&sim).unwrap();
    assert_eq!(version, 2);
    assert_eq!(&state[..], b"v2");

    // The whole trace — local, disk, distributed — is clean under the
    // auditor, replication rules included.
    assert_eq!(recorder.dropped(), 0);
    assert!(bus.counter("replica_write") >= 2);
    assert!(bus.counter("replica_install") >= 2);
    let report = TraceAuditor::audit_events(&recorder.events());
    assert!(report.is_clean(), "audit failed:\n{report}");
}

#[test]
fn snapshot_reads_through_the_facade_are_lock_free_and_audited() {
    // A writer hammers one key while a read-only snapshot holds a long
    // scan open across several commits: the snapshot must stay frozen
    // at its captured cut, cause zero lock waits, and leave a trace
    // that is clean under the auditor's MVCC rule (R10).
    let rt = Runtime::builder().build();
    let bus = Arc::new(EventBus::new());
    let recorder = FlightRecorder::attach(&bus, 100_000);
    rt.install_obs(Obs::new(bus.clone()));

    let counter = rt.create_object(&0u64).unwrap();
    rt.atomic(|a| a.modify(counter, |v: &mut u64| *v += 1))
        .unwrap();

    let snap: chroma::SnapshotScope<'_> = rt.begin_read_only();
    assert_eq!(snap.read::<u64>(counter).unwrap(), 1);
    for _ in 0..10 {
        rt.atomic(|a| a.modify(counter, |v: &mut u64| *v += 1))
            .unwrap();
    }
    // Still the cut captured at open, not the 11 committed since.
    assert_eq!(snap.read::<u64>(counter).unwrap(), 1);
    snap.end();
    assert_eq!(rt.read_committed::<u64>(counter).unwrap(), 11);

    // The single-threaded writer never had competition: the snapshot
    // must not have manufactured any waits.
    assert_eq!(rt.lock_wait_stats().waits, 0);
    assert!(bus.counter("snapshot_open") >= 1);
    assert!(bus.counter("snapshot_read") >= 2);

    assert_eq!(recorder.dropped(), 0);
    let report = TraceAuditor::audit_events(&recorder.events());
    assert!(report.is_clean(), "audit failed:\n{report}");
}

#[test]
fn builder_observability_and_sharded_locks_through_the_facade() {
    // The builder is the one front door: config, backend and
    // observability in a single fluent chain.
    let bus = Arc::new(EventBus::new());
    let rt = Arc::new(
        Runtime::builder()
            .config(RuntimeConfig::default())
            .obs(bus.clone())
            .build(),
    );

    // Four threads over disjoint objects: the sharded lock table must
    // not manufacture waits between them.
    let objects: Vec<_> = (0..4).map(|_| rt.create_object(&0i64).unwrap()).collect();
    let handles: Vec<_> = objects
        .iter()
        .map(|&object| {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                for _ in 0..25 {
                    rt.atomic(|a| a.modify(object, |v: &mut i64| *v += 1))
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    for object in &objects {
        assert_eq!(rt.read_committed::<i64>(*object).unwrap(), 25);
    }
    let parked: u64 = rt.lock_shard_wait_stats().iter().map(|s| s.waits).sum();
    assert_eq!(parked, 0, "disjoint objects must not contend");

    // The `Observable` trait reaches the same bus after the fact too.
    rt.install_obs(Obs::new(bus.clone()));
    rt.atomic(|a| a.modify(objects[0], |v: &mut i64| *v += 1))
        .unwrap();
    assert!(bus.snapshot().histogram("core.commit_us").is_some());
}

#[test]
fn transport_boundary_through_the_facade() {
    // The first-class transport re-exports are the door from the
    // simulator to real processes: the same `Node` state machine that
    // the sim drives runs one two-phase commit here over loopback
    // sockets, through `chroma::{Transport, TcpTransport}` alone.
    let n1 = NodeId::from_raw(1);
    let n2 = NodeId::from_raw(2);
    let mut t1 = TcpTransport::bind(n1, "127.0.0.1:0", TcpConfig::default()).unwrap();
    let mut t2 = TcpTransport::bind(n2, "127.0.0.1:0", TcpConfig::default()).unwrap();
    t1.add_peer(n2, t2.local_addr());
    t2.add_peer(n1, t1.local_addr());

    // `Node::builder().transport(..)` is the process-host construction
    // path: identity comes from the transport. A `Host` drives each
    // node, as in a `chroma-node` process.
    let mut coord = Node::builder().transport(&t1).build().unwrap();
    let mut worker = Host::new(Node::builder().transport(&t2).build().unwrap());

    let txn = TxnId(1);
    let object = ObjectId::from_raw(5_000);
    let mut writes = HashMap::new();
    writes.insert(
        n2,
        vec![Write {
            object,
            state: StoreBytes::from(b"facade".to_vec()),
        }],
    );
    t1.apply_effects(coord.begin_transaction(txn, writes));
    let mut coord = Host::new(coord);

    let deadline = Instant::now() + Duration::from_secs(10);
    while coord.node().coordinator_active(txn) {
        assert!(Instant::now() < deadline, "loopback 2PC timed out");
        if let Some(event) = t1.poll(Some(Duration::from_millis(5))) {
            coord.handle(&mut t1, [event], &mut |_| {});
        }
        if let Some(event) = t2.poll(Some(Duration::from_millis(5))) {
            worker.handle(&mut t2, [event], &mut |_| {});
        }
    }
    assert_eq!(
        coord.node().coordinator_outcome(txn),
        Some(true),
        "a healthy loopback commit must succeed"
    );
    assert!(
        worker.node().resolved(txn),
        "the participant must have resolved"
    );

    // `NetConfig` is the simulator's failure-model knob — the same
    // replication workload shrugs off a duplicating network.
    let mut sim = Sim::new(9);
    sim.net = NetConfig {
        duplication: 0.5,
        ..NetConfig::default()
    };
    let members = vec![sim.add_node(), sim.add_node()];
    let replica = ReplicatedObject::create(&mut sim, ObjectId::from_raw(77), &members, b"d0");
    replica.write(&mut sim, b"d1").unwrap();
    sim.run_to_quiescence();
    let (version, state) = replica.read(&sim).unwrap();
    assert_eq!(version, 1);
    assert_eq!(&state[..], b"d1");
}
