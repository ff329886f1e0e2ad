//! The always-on flight recorder: a fixed-size ring of recent events
//! that turns any live incident into a post-mortem trace.
//!
//! Unlike [`JsonlSink`](crate::JsonlSink), which streams the whole run
//! to disk, the recorder keeps only the newest
//! [`FlightRecorder::capacity`] events in memory, and it costs the
//! emitting thread nothing beyond staging the event: the bus hands the
//! recorder whole batches in stamp order when it drains (see
//! [`EventBus`](crate::EventBus)) — cheap enough to leave attached in
//! production. On a crash, a `watchdog_violation`, or an explicit
//! [`FlightRecorder::dump_to`] call, the ring is written as the same
//! JSONL the offline [`TraceAuditor`](crate::TraceAuditor) and
//! [`SpanForest`](crate::SpanForest) tooling already consume. Every
//! read drains the bus first, so it covers every event emitted so far.

use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write as IoWrite};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::bus::Feed;
use crate::event::{Event, EventKind};

/// A fixed-size ring of the newest events, in the bus's stamp order.
pub struct FlightRecorder {
    ring: Mutex<VecDeque<Event>>,
    capacity: usize,
    dropped: AtomicU64,
    auto_dump: RwLock<Option<PathBuf>>,
    auto_dumps: AtomicU64,
    dump_errors: AtomicU64,
    pub(crate) feed: Feed,
}

impl FlightRecorder {
    /// A recorder retaining the newest `capacity` events (minimum 1).
    ///
    /// The ring holds each event by value and grows as events arrive,
    /// so once full it occupies `capacity × size_of::<Event>()` bytes
    /// (72 B an event; the ring's growth rounds the capacity up to a
    /// power of two): 4.5 MiB for 65 536 events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            auto_dump: RwLock::new(None),
            auto_dumps: AtomicU64::new(0),
            dump_errors: AtomicU64::new(0),
            feed: Feed::default(),
        }
    }

    /// Convenience: builds a recorder, feeds it every subsequent event
    /// of `bus` and returns the handle.
    pub fn attach(bus: &crate::EventBus, capacity: usize) -> Arc<FlightRecorder> {
        let recorder = Arc::new(FlightRecorder::new(capacity));
        bus.attach_recorder(recorder.clone());
        recorder
    }

    /// Arms automatic dumping: whenever the recorder observes a
    /// `watchdog_violation` or `node_crash` event it rewrites `path`
    /// with the current ring contents (each trigger overwrites the
    /// previous dump, so the file always holds the view closest to the
    /// latest incident). Pass `None` to disarm. Dump failures are
    /// swallowed — the recorder never takes the traced system down —
    /// and counted in [`FlightRecorder::dump_errors`].
    pub fn set_auto_dump(&self, path: Option<PathBuf>) {
        *self.auto_dump.write() = path;
    }

    /// How many auto-dumps have been triggered so far.
    #[must_use]
    pub fn auto_dumps(&self) -> u64 {
        self.feed.drain();
        self.auto_dumps.load(Ordering::Relaxed)
    }

    /// How many dump attempts (auto or explicit) failed on I/O.
    #[must_use]
    pub fn dump_errors(&self) -> u64 {
        self.feed.drain();
        self.dump_errors.load(Ordering::Relaxed)
    }

    /// Maximum events the ring retains.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.feed.drain();
        self.ring.lock().len()
    }

    /// `true` when the ring holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from the ring so far (total seen minus retained).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.feed.drain();
        self.dropped.load(Ordering::Relaxed)
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.feed.drain();
        self.ring.lock().iter().copied().collect()
    }

    /// The retained events as JSONL lines (no trailing newline), in
    /// emission order — the exact format
    /// [`Event::from_json_line`] and the offline tooling parse.
    #[must_use]
    pub fn dump_lines(&self) -> Vec<String> {
        self.events().iter().map(Event::to_json_line).collect()
    }

    /// Writes the retained events as JSONL to `path`, creating parent
    /// directories and replacing any previous file.
    ///
    /// # Errors
    ///
    /// Propagates any I/O failure (also counted in
    /// [`FlightRecorder::dump_errors`]).
    pub fn dump_to(&self, path: &Path) -> io::Result<()> {
        self.feed.drain();
        let result = write_dump(&self.ring.lock(), path);
        if result.is_err() {
            self.dump_errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Appends a drained batch, in stamp order, evicting the oldest
    /// events past capacity and auto-dumping at each trigger.
    pub(crate) fn record<'a>(&self, events: impl IntoIterator<Item = &'a Event>) {
        let mut ring = self.ring.lock();
        for event in events {
            if ring.len() == self.capacity {
                ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(*event);
            if matches!(
                event.kind,
                EventKind::WatchdogViolation { .. } | EventKind::NodeCrash { .. }
            ) {
                let path = self.auto_dump.read().clone();
                if let Some(path) = path {
                    self.auto_dumps.fetch_add(1, Ordering::Relaxed);
                    if write_dump(&ring, &path).is_err() {
                        self.dump_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

fn write_dump(ring: &VecDeque<Event>, path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut out = BufWriter::new(File::create(path)?);
    for event in ring {
        out.write_all(event.to_json_line().as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::TraceAuditor;
    use crate::bus::EventBus;
    use crate::event::WatchdogRule;
    use chroma_base::{ActionId, NodeId, ObjectId};

    static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

    fn dump_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "chroma-recorder-{tag}-{}-{}.jsonl",
            std::process::id(),
            DUMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn aid(n: u64) -> ActionId {
        ActionId::from_raw(n)
    }

    #[test]
    fn ring_keeps_only_the_newest_events_in_order() {
        let bus = Arc::new(EventBus::new());
        let recorder = FlightRecorder::attach(&bus, 16);
        for n in 0..100u64 {
            bus.emit(EventKind::ActionBegin {
                action: aid(n),
                parent: None,
                colours: 0b1,
            });
        }
        assert_eq!(recorder.capacity(), 16);
        assert_eq!(recorder.len(), 16);
        assert_eq!(recorder.dropped(), 84);
        let events = recorder.events();
        let ids: Vec<u64> = events
            .iter()
            .map(|e| match e.kind {
                EventKind::ActionBegin { action, .. } => action.as_raw(),
                ref other => panic!("unexpected kind {other:?}"),
            })
            .collect();
        assert_eq!(ids, (84..100).collect::<Vec<u64>>(), "newest, in order");
    }

    #[test]
    fn dump_parses_back_and_audits_clean() {
        let bus = Arc::new(EventBus::new());
        let recorder = FlightRecorder::attach(&bus, 64);
        bus.emit(EventKind::ActionBegin {
            action: aid(1),
            parent: None,
            colours: 0b1,
        });
        bus.emit(EventKind::LockGrant {
            action: aid(1),
            object: ObjectId::from_raw(7),
            colour: chroma_base::Colour::from_index(0),
            mode: chroma_base::LockMode::Write,
        });
        bus.emit(EventKind::UndoRecord {
            action: aid(1),
            object: ObjectId::from_raw(7),
            colour: chroma_base::Colour::from_index(0),
        });
        bus.emit(EventKind::ActionCommit { action: aid(1) });
        let path = dump_path("roundtrip");
        recorder.dump_to(&path).expect("dump");
        let text = fs::read_to_string(&path).expect("read dump");
        let parsed: Vec<Event> = text
            .lines()
            .map(|l| Event::from_json_line(l).expect("parse dump line"))
            .collect();
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed, recorder.events(), "dump is lossless");
        let report = TraceAuditor::audit_events(&parsed);
        assert!(report.is_clean(), "{report}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn auto_dump_fires_on_violation_and_on_crash() {
        let bus = Arc::new(EventBus::new());
        let recorder = FlightRecorder::attach(&bus, 64);
        let path = dump_path("auto");
        recorder.set_auto_dump(Some(path.clone()));
        bus.emit(EventKind::ActionBegin {
            action: aid(1),
            parent: None,
            colours: 0b1,
        });
        assert_eq!(recorder.auto_dumps(), 0, "ordinary events do not dump");
        bus.emit(EventKind::WatchdogViolation {
            rule: WatchdogRule::WriteWithoutWriteLock,
            action: aid(1),
            object: ObjectId::from_raw(7),
            aux: 0,
        });
        assert_eq!(recorder.auto_dumps(), 1);
        let text = fs::read_to_string(&path).expect("auto dump written");
        assert!(
            text.contains("watchdog_violation"),
            "dump holds the incident"
        );
        bus.emit(EventKind::NodeCrash {
            node: NodeId::from_raw(2),
        });
        assert_eq!(recorder.auto_dumps(), 2, "crash re-dumps");
        let text = fs::read_to_string(&path).expect("crash dump written");
        assert!(text.contains("node_crash"));
        assert_eq!(recorder.dump_errors(), 0);
        recorder.set_auto_dump(None);
        bus.emit(EventKind::NodeCrash {
            node: NodeId::from_raw(2),
        });
        assert_eq!(recorder.auto_dumps(), 2, "disarmed recorder stays quiet");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_recorder_dumps_an_empty_file() {
        let recorder = FlightRecorder::new(8);
        assert!(recorder.is_empty());
        assert!(recorder.dump_lines().is_empty());
        let path = dump_path("empty");
        recorder.dump_to(&path).expect("dump");
        assert_eq!(fs::read_to_string(&path).expect("read"), "");
        fs::remove_file(&path).ok();
    }
}
