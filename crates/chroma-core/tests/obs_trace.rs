//! End-to-end observability test: a nested-action workload through the
//! real runtime emits an event stream the offline auditor certifies
//! clean, and the bus counters reflect the work actually done.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chroma_base::{ColourSet, NodeId};
use chroma_core::{DiskBackend, Runtime};
use chroma_obs::{
    EventBus, EventKind, FlightRecorder, Obs, Observable, Outcome, SpanForest, SpanKind,
    TraceAuditor,
};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "chroma-obs-trace-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Commits one outermost action that bumps three fresh objects and
/// returns the store events it emitted (the disk store's batch append
/// and group fsync; segment and checkpoint traffic is the background
/// checkpointer's).
fn storage_events_of_one_commit(rt: &Runtime, recorder: &FlightRecorder) -> Vec<EventKind> {
    let objects: Vec<_> = (0..3i64).map(|v| rt.create_object(&v).unwrap()).collect();
    let before = recorder.events().len();
    rt.atomic(|a| {
        for &object in &objects {
            a.modify(object, |v: &mut i64| *v += 1)?;
        }
        Ok(())
    })
    .unwrap();
    recorder.events()[before..]
        .iter()
        .map(|e| e.kind)
        .filter(|k| {
            matches!(
                k,
                EventKind::DiskAppend { .. }
                    | EventKind::DiskGroupCommit { .. }
                    | EventKind::DiskReplay { .. }
            )
        })
        .collect()
}

#[test]
fn nested_workload_trace_audits_clean() {
    let rt = Runtime::builder().build();
    let bus = Arc::new(EventBus::new());
    let recorder = FlightRecorder::attach(&bus, 100_000);
    rt.install_obs(Obs::new(bus.clone()));

    let o = rt.create_object(&0i64).unwrap();
    for i in 0..5i64 {
        rt.atomic(|a| {
            a.modify(o, |v: &mut i64| *v += i)?;
            a.nested(|b| b.modify(o, |v: &mut i64| *v *= 2))
        })
        .unwrap();
    }

    // An abort must also leave a clean trace: its locks are released,
    // never inherited.
    let id = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    {
        let scope = rt.scope(id).unwrap();
        scope.modify(o, |v: &mut i64| *v += 100).unwrap();
    }
    rt.abort(id);

    // The local backend is an in-memory map: it writes no log, so an
    // outermost commit reports no storage event.
    assert_eq!(storage_events_of_one_commit(&rt, &recorder), []);

    assert_eq!(recorder.dropped(), 0);
    let report = TraceAuditor::audit_events(&recorder.events());
    assert!(report.is_clean(), "{report}");

    let snap = bus.snapshot();
    // 5 outer + 5 nested + 1 aborted action began...
    assert!(snap.counter("action_begin") >= 11);
    assert_eq!(snap.counter("action_abort"), 1);
    // ...every nested commit passed its locks up to the enclosing
    // action and every write left a before-image.
    assert!(snap.counter("lock_inherit") >= 5);
    assert!(snap.counter("undo_record") >= 11);
    let commits = snap.histogram("core.commit_us").expect("commit latency");
    assert!(commits.count >= 5, "{commits}");
}

#[test]
fn critical_path_phases_sum_to_measured_commit_latency() {
    // Acceptance check for the profiler: for every committed top-level
    // action, the per-phase attribution must account for the span's
    // entire measured duration (the gap partition is exact, so the
    // "within 5%" budget is met with zero slack). The disk backend
    // reports its fsyncs, so the fsync phase has events to charge.
    let dir = scratch("critical-path");
    let rt = Runtime::builder()
        .backend(Arc::new(DiskBackend::open(&dir).unwrap()))
        .build();
    let bus = Arc::new(EventBus::new());
    let recorder = FlightRecorder::attach(&bus, 100_000);
    rt.install_obs(Obs::new(bus).at_node(NodeId::from_raw(7)));

    let o = rt.create_object(&0i64).unwrap();
    for i in 0..4i64 {
        rt.atomic(|a| {
            a.modify(o, |v: &mut i64| *v += i)?;
            a.nested(|b| b.modify(o, |v: &mut i64| *v *= 3))
        })
        .unwrap();
    }

    let events = recorder.events();
    // A node-bound `Obs` stamps that node on every runtime event.
    assert!(
        events.iter().all(|e| e.node == Some(NodeId::from_raw(7))),
        "unbound event in trace"
    );

    let forest = SpanForest::build(&events);
    let report = forest.critical_path(&events);
    assert!(!report.colours.is_empty(), "no committed actions profiled");
    let mut measured_total = 0u64;
    for root in &forest.roots {
        let span = &forest.spans[*root];
        if matches!(
            span.kind,
            SpanKind::Action {
                outcome: Outcome::Committed,
                ..
            }
        ) {
            measured_total += span.duration_us();
        }
    }
    let attributed_total: u64 = report
        .colours
        .values()
        .map(|row| row.phases.iter().sum::<u64>())
        .sum();
    // Exact partition: attributed == measured, well inside the 5%
    // acceptance envelope.
    assert_eq!(attributed_total, measured_total);
    let fsync: u64 = report
        .colours
        .values()
        .map(|row| row.phases[chroma_obs::Phase::Fsync as usize])
        .sum();
    let events_have_flush = events
        .iter()
        .any(|e| matches!(e.kind, EventKind::DiskGroupCommit { .. }));
    assert!(events_have_flush, "workload never fsynced the log");
    let _ = fsync; // flush gaps may round to zero µs; presence checked above
    drop(rt);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disk_commit_reports_its_append_then_its_group_fsync() {
    // One outermost commit of n objects reaches the disk store as one
    // batch: `disk_append { records: n + 1 }` (n intents plus the
    // commit record), then the group fsync that covers it.
    let dir = scratch("pin");
    let rt = Runtime::builder()
        .backend(Arc::new(DiskBackend::open(&dir).unwrap()))
        .build();
    let bus = Arc::new(EventBus::new());
    let recorder = FlightRecorder::attach(&bus, 100_000);
    rt.install_obs(Obs::new(bus));
    let events = storage_events_of_one_commit(&rt, &recorder);
    assert!(
        matches!(
            events.as_slice(),
            [
                EventKind::DiskAppend { records: 4, .. },
                EventKind::DiskGroupCommit {
                    batches: 1,
                    records: 4,
                    ..
                },
            ]
        ),
        "{events:?}"
    );
    drop(rt);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn uninstrumented_runtime_behaves_identically() {
    // The no-op handle path: no bus installed, everything still works.
    let rt = Runtime::builder().build();
    let o = rt.create_object(&1i64).unwrap();
    rt.atomic(|a| a.modify(o, |v: &mut i64| *v += 1)).unwrap();
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 2);
}
