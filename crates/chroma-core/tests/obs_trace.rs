//! End-to-end observability test: a nested-action workload through the
//! real runtime emits an event stream the offline auditor certifies
//! clean, and the bus counters reflect the work actually done.

use std::sync::Arc;

use chroma_base::{ColourSet, NodeId};
use chroma_core::Runtime;
use chroma_obs::{
    EventBus, EventKind, MemorySink, Obs, Observable, Outcome, SpanForest, SpanKind, TraceAuditor,
};

#[test]
fn nested_workload_trace_audits_clean() {
    let rt = Runtime::builder().build();
    let bus = Arc::new(EventBus::new());
    let sink = Arc::new(MemorySink::new(100_000));
    bus.add_sink(sink.clone());
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

    // One outermost commit of n objects reaches the local backend as one
    // batch: exactly `wal_append { records: n + 1 }` (n intents plus the
    // commit record), then `wal_flush { objects: n }`.
    let objects: Vec<_> = (0..3i64).map(|v| rt.create_object(&v).unwrap()).collect();
    let before = sink.events().len();
    rt.atomic(|a| {
        for &object in &objects {
            a.modify(object, |v: &mut i64| *v += 1)?;
        }
        Ok(())
    })
    .unwrap();
    let wal: Vec<EventKind> = sink.events()[before..]
        .iter()
        .map(|e| e.kind)
        .filter(|k| matches!(k, EventKind::WalAppend { .. } | EventKind::WalFlush { .. }))
        .collect();
    assert_eq!(
        wal,
        [
            EventKind::WalAppend { records: 4 },
            EventKind::WalFlush { objects: 3 },
        ]
    );

    assert_eq!(sink.dropped(), 0);
    let report = TraceAuditor::audit_events(&sink.events());
    assert!(report.is_clean(), "{report}");

    let snap = bus.snapshot();
    // 5 outer + 5 nested + 1 aborted action began...
    assert!(snap.counter("action_begin") >= 11);
    assert_eq!(snap.counter("action_abort"), 1);
    // ...every nested commit passed its locks up to the enclosing
    // action, every write left a before-image, and the outermost
    // commits reached the write-ahead log.
    assert!(snap.counter("lock_inherit") >= 5);
    assert!(snap.counter("undo_record") >= 11);
    assert!(snap.counter("wal_append") >= 5);
    assert!(snap.counter("wal_flush") >= 5);
    let commits = snap.histogram("core.commit_us").expect("commit latency");
    assert!(commits.count >= 5, "{commits}");
}

#[test]
fn critical_path_phases_sum_to_measured_commit_latency() {
    // Acceptance check for the profiler: for every committed top-level
    // action, the per-phase attribution must account for the span's
    // entire measured duration (the gap partition is exact, so the
    // "within 5%" budget is met with zero slack).
    let rt = Runtime::builder().build();
    let bus = Arc::new(EventBus::new());
    let sink = Arc::new(MemorySink::new(100_000));
    bus.add_sink(sink.clone());
    rt.install_obs(Obs::new(bus).at_node(NodeId::from_raw(7)));

    let o = rt.create_object(&0i64).unwrap();
    for i in 0..4i64 {
        rt.atomic(|a| {
            a.modify(o, |v: &mut i64| *v += i)?;
            a.nested(|b| b.modify(o, |v: &mut i64| *v *= 3))
        })
        .unwrap();
    }

    let events = sink.events();
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
        .any(|e| matches!(e.kind, EventKind::WalFlush { .. }));
    assert!(events_have_flush, "workload never flushed the WAL");
    let _ = fsync; // flush gaps may round to zero µs; presence checked above
}

#[test]
fn uninstrumented_runtime_behaves_identically() {
    // The no-op handle path: no bus installed, everything still works.
    let rt = Runtime::builder().build();
    let o = rt.create_object(&1i64).unwrap();
    rt.atomic(|a| a.modify(o, |v: &mut i64| *v += 1)).unwrap();
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 2);
}
