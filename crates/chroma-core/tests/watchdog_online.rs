//! Online-monitoring integration: a real runtime workload runs with
//! the streaming watchdog and flight recorder attached. Clean runs
//! must stay violation-free, live gauges must publish, and a crashed
//! run's flight-recorder dump must parse and audit through the
//! offline `TraceAuditor`.

// the exact-vs-windowed differential check, shared with chroma-obs's
// own suites
#[path = "../../chroma-obs/tests/agreement/mod.rs"]
mod agreement;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chroma_base::ColourSet;
use chroma_core::{DiskBackend, Runtime, RuntimeConfig};
use chroma_obs::{Event, EventBus, EventKind, FlightRecorder, Obs, Observable, Watchdog};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "chroma-watchdog-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn run_workload(rt: &Runtime) {
    let objects: Vec<_> = (0..4)
        .map(|i| rt.create_object(&(i as i64)).unwrap())
        .collect();
    for round in 0..6i64 {
        rt.atomic(|a| {
            a.modify(objects[0], |v: &mut i64| *v += round)?;
            a.nested(|b| b.modify(objects[1], |v: &mut i64| *v *= 2))
        })
        .unwrap();
    }
    // an abort path: locks released, never inherited
    let id = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    {
        let scope = rt.scope(id).unwrap();
        scope.modify(objects[2], |v: &mut i64| *v += 100).unwrap();
    }
    rt.abort(id);
    // lock-free snapshot reads over the published chains
    let snap = rt.begin_read_only();
    for &o in &objects {
        let _: i64 = snap.read(o).unwrap();
    }
    snap.end();
}

#[test]
fn clean_run_with_watchdog_stays_violation_free() {
    let dir = scratch("clean");
    let bus = Arc::new(EventBus::new());
    let recorder = FlightRecorder::attach(&bus, 100_000);
    let watchdog = Watchdog::attach(&bus);
    let fired = Arc::new(AtomicU64::new(0));
    let fired2 = fired.clone();
    watchdog.on_violation(move |_| {
        fired2.fetch_add(1, Ordering::Relaxed);
    });

    let rt = Runtime::builder()
        .config(RuntimeConfig::default())
        .backend(Arc::new(DiskBackend::open(&dir).unwrap()))
        .build();
    rt.install_obs(Obs::new(bus.clone()));
    run_workload(&rt);
    rt.publish_metrics_snapshot();

    assert_eq!(watchdog.violations(), 0, "clean run must stay silent");
    assert_eq!(fired.load(Ordering::Relaxed), 0);
    // the offline auditor agrees with the online one, live and
    // replayed
    let report = agreement::audit(&recorder.events());
    assert!(report.is_clean(), "{report}");
    // the gauge snapshot landed on the bus and in the trace
    let snap = bus.snapshot();
    assert!(snap.gauge("core.live_actions").is_some(), "{snap}");
    assert!(snap.gauge("store.versions").is_some(), "{snap}");
    let published = recorder
        .events()
        .iter()
        .any(|e| matches!(e.kind, EventKind::MetricsSnapshot { .. }));
    assert!(published, "metrics_snapshot missing from the trace");
    // the recorder's dump parses back, line by line
    assert!(!recorder.is_empty());
    for line in recorder.dump_lines() {
        Event::from_json_line(&line).expect("recorder line parses");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crashed_run_dump_parses_and_audits_offline() {
    let dir = scratch("crash");
    let dump = scratch("dump").with_extension("jsonl");
    let bus = Arc::new(EventBus::new());
    let recorder = FlightRecorder::attach(&bus, 8192);
    recorder.set_auto_dump(Some(dump.clone()));
    let watchdog = Watchdog::attach(&bus);

    let rt = Runtime::builder()
        .config(RuntimeConfig::default())
        .backend(Arc::new(DiskBackend::open(&dir).unwrap()))
        .build();
    rt.install_obs(Obs::new(bus.clone()));
    run_workload(&rt);
    // a snapshot left open across the crash gets killed like any
    // other active action
    let open_snap = rt.begin_read_only();
    rt.crash_and_recover();
    assert!(open_snap
        .read::<i64>(chroma_base::ObjectId::from_raw(0))
        .is_err());
    run_workload(&rt);

    assert_eq!(
        watchdog.violations(),
        0,
        "crash recovery is not a violation"
    );
    assert!(recorder.auto_dumps() >= 1, "crash must trigger a dump");
    assert_eq!(recorder.dump_errors(), 0);

    // the dump is a complete offline-analyzable post-mortem
    let text = std::fs::read_to_string(&dump).expect("dump written");
    let events: Vec<Event> = text
        .lines()
        .map(|l| Event::from_json_line(l).expect("dump line parses"))
        .collect();
    assert!(!events.is_empty());
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::NodeCrash { .. })));
    let report = agreement::audit(&events);
    assert!(report.is_clean(), "{report}");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&dump).ok();
}

#[test]
fn gauges_reflect_runtime_state() {
    let rt = Runtime::builder().build();
    let bus = Arc::new(EventBus::new());
    rt.install_obs(Obs::new(bus.clone()));
    let o = rt.create_object(&0i64).unwrap();
    rt.atomic(|a| a.modify(o, |v: &mut i64| *v += 1)).unwrap();
    let snap = rt.begin_read_only();
    let id = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    rt.publish_metrics_snapshot();
    assert_eq!(bus.gauge("core.snapshots"), Some(1));
    assert_eq!(
        bus.gauge("core.live_actions"),
        Some(2),
        "snapshot + open top"
    );
    assert_eq!(
        bus.gauge("store.group_queue"),
        Some(0),
        "local backend is sync"
    );
    assert!(bus.gauge("store.versions").unwrap_or(0) >= 1, "one publish");
    snap.end();
    rt.abort(id);
    rt.publish_metrics_snapshot();
    assert_eq!(bus.gauge("core.snapshots"), Some(0));
    assert_eq!(bus.gauge("core.live_actions"), Some(0));
    assert_eq!(bus.gauge("locks.entries"), Some(0), "all locks released");
    assert_eq!(bus.gauge("locks.waiting"), Some(0));
}
