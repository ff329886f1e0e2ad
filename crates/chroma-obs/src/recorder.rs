//! The always-on flight recorder: a fixed-size, lock-sharded ring of
//! recent events that turns any live incident into a post-mortem
//! trace.
//!
//! Unlike [`JsonlSink`](crate::JsonlSink), which streams the whole run
//! to disk, the recorder keeps only the newest
//! [`FlightRecorder::capacity`] events in memory at a bounded cost per
//! event (one shard mutex, no allocation beyond the ring slots) — cheap
//! enough to leave attached in production. On a crash, a
//! `watchdog_violation`, or an explicit [`FlightRecorder::dump_to`]
//! call, the ring is merged back into emission order and written as the
//! same JSONL the offline [`TraceAuditor`](crate::TraceAuditor) and
//! [`SpanForest`](crate::SpanForest) tooling already consume.
//!
//! Sharding trades strict ordering at record time for lower contention:
//! each event gets a global sequence number from one atomic, then lands
//! in shard `seq % shards`; the dump re-sorts by sequence number, so
//! the written trace is in true emission order (with a window of the
//! oldest `shards − 1` entries possibly trimmed unevenly across
//! shards).

use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write as IoWrite};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::bus::EventSink;
use crate::event::{Event, EventKind};

const DEFAULT_SHARDS: usize = 8;

/// A fixed-size, lock-sharded ring buffer of recent events, usable as
/// an [`EventSink`]. Each event takes a global sequence number and lands
/// in shard `seq % shards`; a dump re-sorts by sequence number, so the
/// written trace is in emission order.
pub struct FlightRecorder {
    shards: Vec<Mutex<VecDeque<(u64, Event)>>>,
    per_shard: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    auto_dump: RwLock<Option<PathBuf>>,
    auto_dumps: AtomicU64,
    dump_errors: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining roughly `capacity` events across
    /// eight shards.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FlightRecorder::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A recorder retaining roughly `capacity` events across `shards`
    /// independently locked rings (both clamped to ≥ 1).
    #[must_use]
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.max(1).div_ceil(shards);
        FlightRecorder {
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            per_shard,
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            auto_dump: RwLock::new(None),
            auto_dumps: AtomicU64::new(0),
            dump_errors: AtomicU64::new(0),
        }
    }

    /// Convenience: builds a recorder, registers it as a sink on `bus`
    /// and returns the handle.
    pub fn attach(bus: &crate::EventBus, capacity: usize) -> Arc<FlightRecorder> {
        let recorder = Arc::new(FlightRecorder::new(capacity));
        bus.add_sink(recorder.clone());
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
        self.auto_dumps.load(Ordering::Relaxed)
    }

    /// How many dump attempts (auto or explicit) failed on I/O.
    #[must_use]
    pub fn dump_errors(&self) -> u64 {
        self.dump_errors.load(Ordering::Relaxed)
    }

    /// Maximum events the ring retains (per-shard cap × shard count).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.per_shard * self.shards.len()
    }

    /// Events currently held in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// `true` when the ring holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// Events evicted from the ring so far (total seen minus retained).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The retained events merged back into emission order.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let mut stamped: Vec<(u64, Event)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            stamped.extend(shard.lock().iter().cloned());
        }
        stamped.sort_by_key(|&(seq, _)| seq);
        stamped.into_iter().map(|(_, event)| event).collect()
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
        let result = self.try_dump(path);
        if result.is_err() {
            self.dump_errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn try_dump(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let mut out = BufWriter::new(File::create(path)?);
        for line in self.dump_lines() {
            out.write_all(line.as_bytes())?;
            out.write_all(b"\n")?;
        }
        out.flush()
    }
}

impl EventSink for FlightRecorder {
    fn record(&self, event: &Event) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        {
            let shard = &self.shards[(seq % self.shards.len() as u64) as usize];
            let mut ring = shard.lock();
            ring.push_back((seq, *event));
            if ring.len() > self.per_shard {
                ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        if matches!(
            event.kind,
            EventKind::WatchdogViolation { .. } | EventKind::NodeCrash { .. }
        ) {
            let path = self.auto_dump.read().clone();
            if let Some(path) = path {
                self.auto_dumps.fetch_add(1, Ordering::Relaxed);
                if self.try_dump(&path).is_err() {
                    self.dump_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
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
