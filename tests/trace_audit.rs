//! The demonstration trace: one run that exercises every layer's event
//! vocabulary, audited under R1–R11 on every `cargo test`.
//!
//! The run covers nested local actions over a real on-disk log
//! (`DiskBackend`), coloured top-level commits, a distributed two-phase
//! commit under message loss with a crashing participant, and
//! replicated objects whose member misses a write and catches up.
//!
//! The simulation seed is `CHROMA_TORTURE_SEED` (default 7). With
//! `CHROMA_TRACE_OUT=<path>` set, the audited trace is also written to
//! `<path>` as JSONL, for `chroma-trace analyze` / `critical-path`:
//!
//! ```text
//! CHROMA_TORTURE_SEED=42 CHROMA_TRACE_OUT=trace-42.jsonl \
//!     cargo test --release --test trace_audit
//! ```

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chroma::base::{ColourSet, NodeId, ObjectId};
use chroma::core::{DiskBackend, Runtime, RuntimeConfig};
use chroma::dist::{ReplicatedObject, Sim, Write, RETRY_INTERVAL};
use chroma::obs::{Event, EventBus, FlightRecorder, Obs, Observable, TraceAuditor};
use chroma::store::StoreBytes;
use proptest::torture_seed;

/// The node id the local (non-simulated) runtime is bound to in traces.
/// Far above any id the simulator allocates, so the Chrome export gives
/// the local runtime its own track instead of colliding with node 0.
const LOCAL_RUNTIME_NODE: u32 = 100;

/// The seeds CI's torture matrix runs.
const SEED_MATRIX: [u64; 4] = [1, 7, 42, 1337];

/// Runs the demonstration workload with simulation seed `seed` and
/// returns the recorder holding its events, in the bus's stamp order.
fn demonstration_trace(seed: u64) -> Arc<FlightRecorder> {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let bus = Arc::new(EventBus::new());
    let recorder = FlightRecorder::attach(&bus, 1_000_000);

    // Nested local actions over a real on-disk log: lock, undo,
    // inheritance, fsync and the disk event vocabulary. This wall-clock
    // section runs before any simulation attaches (installing a sim
    // switches the bus to simulated time).
    let dir = std::env::temp_dir().join(format!(
        "chroma-trace-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    let rt = Runtime::builder()
        .config(RuntimeConfig::default())
        .backend(Arc::new(DiskBackend::open(&dir).expect("open trace store")))
        .build();
    rt.install_obs(Obs::new(bus.clone()).at_node(NodeId::from_raw(LOCAL_RUNTIME_NODE)));
    let o = rt.create_object(&0i64).expect("create");
    for i in 0..8i64 {
        rt.atomic(|a| {
            a.modify(o, |v: &mut i64| *v += i)?;
            a.nested(|b| b.modify(o, |v: &mut i64| *v ^= 1))
        })
        .expect("workload action");
    }

    // Coloured top-level actions: each outermost commit lands in its
    // colour's `core.commit_us.<name>` histogram.
    for name in ["red", "blue"] {
        let colour = rt.universe().colour(name);
        for delta in 1..=3i64 {
            let action = rt
                .begin_top(ColourSet::single(colour))
                .expect("coloured action");
            rt.scope(action)
                .expect("scope")
                .modify(o, |v: &mut i64| *v += delta)
                .expect("coloured write");
            rt.commit(action).expect("coloured commit");
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    // Distributed 2PC under loss with a crashing participant:
    // prepare/vote/decide/resolve and network traffic, stamped with
    // simulated time.
    let mut sim = Sim::new(seed);
    sim.net.loss = 0.1;
    sim.install_obs(Obs::new(bus.clone()));
    let coord = sim.add_node();
    let p1 = sim.add_node();
    let p2 = sim.add_node();
    let w = |n: u64, v: u8| Write {
        object: ObjectId::from_raw(n),
        state: StoreBytes::from(vec![v]),
    };
    sim.begin_transaction(
        coord,
        vec![
            (coord, vec![w(1, 1)]),
            (p1, vec![w(2, 2)]),
            (p2, vec![w(3, 3)]),
        ],
    );
    sim.schedule_crash(p2, RETRY_INTERVAL);
    sim.schedule_recover(p2, 10 * RETRY_INTERVAL);
    sim.run_to_quiescence();

    // Replication on the same simulation: a member misses a write while
    // down, recovers, and catches up — the fan-out, install, catch-up
    // and read events all land in the trace.
    let members = vec![sim.add_node(), sim.add_node(), sim.add_node()];
    let replica = ReplicatedObject::create(&mut sim, ObjectId::from_raw(500), &members, b"r0");
    // More objects on the same members: the member that recovers pulls
    // each of them, in an order the seed alone must fix.
    for object in 501..505 {
        ReplicatedObject::create(&mut sim, ObjectId::from_raw(object), &members, b"s0");
    }
    replica.write(&mut sim, b"r1").expect("replica write");
    sim.run_to_quiescence();
    replica.crash_member(&mut sim, members[1], 2 * RETRY_INTERVAL);
    sim.run(10);
    replica.write(&mut sim, b"r2").expect("replica write");
    sim.run_to_quiescence();
    let (version, _) = replica.read(&sim).expect("replica read");
    assert_eq!(version, 2, "replica failed to converge");

    assert_eq!(recorder.dropped(), 0, "trace truncated; grow the recorder");
    recorder
}

fn assert_audits_clean(seed: u64, events: &[Event]) {
    let report = TraceAuditor::audit_events(events);
    assert!(report.is_clean(), "seed {seed}: {report}");
}

#[test]
fn demonstration_trace_audits_clean() {
    let seed = torture_seed().unwrap_or(7);
    let recorder = demonstration_trace(seed);
    assert_audits_clean(seed, &recorder.events());
    if let Some(path) = std::env::var_os("CHROMA_TRACE_OUT") {
        recorder
            .dump_to(Path::new(&path))
            .expect("write CHROMA_TRACE_OUT");
    }
}

/// A run is a function of its seed: two runs in one process emit the
/// same events in the same order. Only the local runtime's wall-clock
/// timestamps may differ; the simulation stamps simulated time.
#[test]
fn demonstration_trace_is_a_function_of_its_seed() {
    let local = Some(NodeId::from_raw(LOCAL_RUNTIME_NODE));
    let masked = |mut events: Vec<Event>| {
        for event in events.iter_mut().filter(|e| e.node == local) {
            event.at_us = 0;
        }
        events
    };
    for seed in SEED_MATRIX {
        let first = demonstration_trace(seed).events();
        assert_audits_clean(seed, &first);
        let second = demonstration_trace(seed).events();
        let (first, second) = (masked(first), masked(second));
        assert_eq!(
            first.len(),
            second.len(),
            "seed {seed}: event counts differ"
        );
        for (i, (a, b)) in first.iter().zip(&second).enumerate() {
            assert_eq!(a, b, "seed {seed}: runs diverge at event {i}");
        }
    }
}
