//! The event bus, the `Obs` handle instrumented code holds, and the
//! append-only JSONL sink.
//!
//! An emit makes one write that other threads share: the global
//! sequence stamp, taken only while a watchdog or recorder is attached.
//! Counters, histograms and the stamped events wait in the emitting
//! thread's own staging slot. Monitoring reads the slots later, and a
//! drain steps the staged events through the watchdog and into the
//! recorders in stamp order. That order is total and consistent with
//! happens-before, which is all the rules need.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as IoWrite;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use chroma_base::{AppendList, NodeId};
use parking_lot::{Mutex, MutexGuard};

use crate::event::{Event, EventKind, KIND_COUNT, KIND_NAMES};
use crate::metrics::{Histogram, Snapshot};
use crate::recorder::FlightRecorder;
use crate::watchdog::Watchdog;

/// Receives every event emitted on a bus, in emission order.
pub trait EventSink: Send + Sync {
    /// Called once per event, after the bus has stamped its time.
    fn record(&self, event: &Event);

    /// Flushes any buffered output (no-op by default).
    fn flush(&self) {}
}

/// Staging slots per bus. A thread stages into slot
/// `thread index % SLOTS`, so threads share a slot only past this many.
const SLOTS: usize = 32;

/// The emitting thread tries to drain the bus each time its slot has
/// staged another this many events (it gives way if another thread is
/// draining).
const CHUNK: usize = 64;

static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's staging slot, before the modulus.
    static THREAD_INDEX: usize = THREADS.fetch_add(1, Ordering::Relaxed);
    /// The address of the bus this thread is draining (0: none). The
    /// drain's own emissions and callbacks must not start another.
    static DRAINING: Cell<usize> = const { Cell::new(0) };
    /// The address of the bus whose chunk drains this thread puts off
    /// (0: none), and whether one came due meanwhile.
    static DEFERRING: Cell<(usize, bool)> = const { Cell::new((0, false)) };
}

/// Central collector: counts events per kind, aggregates latency
/// histograms, stamps timestamps and fans events out to sinks.
///
/// Sinks see each event in-line. The watchdog and flight recorders see
/// it later, in stamp order: each time the emitting thread has staged
/// another 64 events, when a `node_crash` or `watchdog_violation` is
/// emitted, and before any read that reports on them
/// ([`Watchdog::violations`], [`FlightRecorder::events`],
/// [`EventBus::snapshot`], [`EventBus::flush`], ...).
///
/// The clock starts as wall time from bus creation; a deterministic
/// simulator switches it to manual mode with [`EventBus::set_time_us`]
/// so traces carry simulated time.
pub struct EventBus {
    core: Arc<Core>,
}

/// The shared state of a bus. Monitors hold a [`Feed`] (a weak
/// reference to it) so their reads can drain first.
pub(crate) struct Core {
    /// The one shared write per monitored emit.
    seq: Stamp,
    slots: Box<[Slot]>,
    /// Named instantaneous values — occupancies and queue depths that
    /// move in both directions, unlike the monotone counters.
    gauges: Mutex<BTreeMap<String, u64>>,
    sinks: AppendList<Arc<dyn EventSink>>,
    /// The installed watchdog. Only installs and drains touch it.
    watchdog: Mutex<Option<Arc<Watchdog>>>,
    recorders: AppendList<Arc<FlightRecorder>>,
    /// A watchdog or recorder is attached: emits stamp and stage.
    staging: AtomicBool,
    /// Held by the draining thread; its buffer is reused.
    drain: Mutex<Vec<(u64, Event)>>,
    origin: Instant,
    manual: AtomicBool,
    manual_us: AtomicU64,
    /// Per-node Lamport clocks, keyed by raw node id. A node's clock
    /// ticks on every event it emits and is merged forward past the
    /// send's clock when it receives a message.
    clocks: AppendList<(u32, AtomicU64)>,
    /// Debug-only: actions seen beginning, so a parented begin whose
    /// parent never began trips an assertion at emission time rather
    /// than much later in an offline audit.
    #[cfg(debug_assertions)]
    begun: Mutex<std::collections::HashSet<u64>>,
}

/// The sequence stamp, on a cache line of its own: every monitored
/// emit writes it, and nothing every emit reads may share its line.
#[repr(align(128))]
struct Stamp(AtomicU64);

/// One thread's staging area, on its own cache lines. Locked by its
/// owner on every emit and by readers.
#[repr(align(128))]
struct Slot(Mutex<Staged>);

struct Staged {
    counters: [u64; KIND_COUNT],
    histograms: BTreeMap<String, Histogram>,
    /// Stamped events not yet drained, in stamp order.
    events: Vec<(u64, Event)>,
}

impl EventBus {
    /// Creates a bus with no sinks, on the wall clock.
    #[must_use]
    pub fn new() -> Self {
        EventBus {
            core: Arc::new(Core {
                seq: Stamp(AtomicU64::new(0)),
                slots: (0..SLOTS)
                    .map(|_| {
                        Slot(Mutex::new(Staged {
                            counters: [0; KIND_COUNT],
                            histograms: BTreeMap::new(),
                            events: Vec::new(),
                        }))
                    })
                    .collect(),
                gauges: Mutex::new(BTreeMap::new()),
                sinks: AppendList::default(),
                watchdog: Mutex::new(None),
                recorders: AppendList::default(),
                staging: AtomicBool::new(false),
                drain: Mutex::new(Vec::new()),
                origin: Instant::now(),
                manual: AtomicBool::new(false),
                manual_us: AtomicU64::new(0),
                clocks: AppendList::default(),
                #[cfg(debug_assertions)]
                begun: Mutex::new(std::collections::HashSet::new()),
            }),
        }
    }

    /// Attaches a sink; it sees every subsequent event.
    pub fn add_sink(&self, sink: Arc<dyn EventSink>) {
        self.core.sinks.push(sink);
    }

    /// Installs (or, with `None`, removes) the streaming watchdog. It
    /// steps every event emitted from now on, in stamp order, and the
    /// bus emits a `watchdog_violation` event for each rule that fires:
    /// about a chunk after the offending event, and at the latest at the
    /// next read of the watchdog. Events emitted before the call go to
    /// the previous watchdog, if any.
    pub fn install_watchdog(&self, watchdog: Option<Arc<Watchdog>>) {
        self.core.drain(true);
        if let Some(watchdog) = &watchdog {
            watchdog.feed.set(&self.core);
        }
        let mut installed = self.core.watchdog.lock();
        *installed = watchdog;
        self.core.staging.store(
            installed.is_some() || self.core.recorders.iter().next().is_some(),
            Ordering::Relaxed,
        );
    }

    /// The installed watchdog, if any.
    #[must_use]
    pub fn watchdog(&self) -> Option<Arc<Watchdog>> {
        self.core.watchdog.lock().clone()
    }

    /// Feeds `recorder` every event emitted from now on.
    pub(crate) fn attach_recorder(&self, recorder: Arc<FlightRecorder>) {
        self.core.drain(true);
        recorder.feed.set(&self.core);
        self.core.recorders.push(recorder);
        self.core.staging.store(true, Ordering::Relaxed);
    }

    /// Current bus time in microseconds (wall since creation, or the
    /// last manually set simulated time).
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.core.now_us()
    }

    /// Switches to manual (simulated) time and sets it.
    pub fn set_time_us(&self, us: u64) {
        self.core.manual.store(true, Ordering::Relaxed);
        self.core.manual_us.store(us, Ordering::Relaxed);
    }

    /// Counts, stamps and fans out one event with no node binding;
    /// returns the stamped record.
    pub fn emit(&self, kind: EventKind) -> Event {
        self.core.emit(None, None, kind)
    }

    /// Merges an observed remote clock into `node`'s clock (sets it to
    /// at least `observed_lc`). Called by transports *before* emitting
    /// the delivery event, so the delivery's clock strictly exceeds
    /// the matching send's.
    pub fn merge_clock(&self, node: NodeId, observed_lc: u64) {
        self.core
            .clock(node)
            .fetch_max(observed_lc, Ordering::Relaxed);
    }

    /// The current Lamport clock of `node` (0 if it never emitted).
    #[must_use]
    pub fn lamport(&self, node: NodeId) -> u64 {
        self.core
            .clocks
            .iter()
            .find(|(raw, _)| *raw == node.as_raw())
            .map_or(0, |(_, clock)| clock.load(Ordering::Relaxed))
    }

    /// Records one latency sample into the named histogram.
    ///
    /// Names may be built dynamically (e.g. a per-colour breakdown
    /// like `core.commit_us.red`); the name is only allocated the
    /// first time a thread feeds that histogram.
    pub fn observe(&self, metric: &str, us: u64) {
        let mut staged = self.core.slot();
        if let Some(h) = staged.histograms.get_mut(metric) {
            h.observe(us);
        } else {
            staged
                .histograms
                .entry(metric.to_owned())
                .or_default()
                .observe(us);
        }
    }

    /// Sets a named gauge to its current value. Gauges are sampled
    /// occupancies (lock entries, queue depths, live actions); setting
    /// one repeatedly just overwrites the reading.
    pub fn set_gauge(&self, name: &str, value: u64) {
        let mut gauges = self.core.gauges.lock();
        if let Some(g) = gauges.get_mut(name) {
            *g = value;
        } else {
            gauges.insert(name.to_owned(), value);
        }
    }

    /// The current value of a named gauge, if one was ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.core.gauges.lock().get(name).copied()
    }

    /// The count of one event kind by its tag (0 for unknown tags).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        KIND_NAMES
            .iter()
            .position(|n| *n == name)
            .map_or(0, |i| self.counters()[i])
    }

    /// Every kind's count, summed over the slots, after a drain (so
    /// pending violations are counted too).
    fn counters(&self) -> [u64; KIND_COUNT] {
        self.core.drain(true);
        let mut sum = [0; KIND_COUNT];
        for slot in &self.core.slots {
            for (total, n) in sum.iter_mut().zip(slot.0.lock().counters) {
                *total += n;
            }
        }
        sum
    }

    /// Copies out all counters and histogram summaries.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let counters = self.counters();
        let mut histograms: BTreeMap<String, Histogram> = BTreeMap::new();
        for slot in &self.core.slots {
            for (name, h) in &slot.0.lock().histograms {
                if let Some(merged) = histograms.get_mut(name) {
                    merged.merge(h);
                } else {
                    histograms.insert(name.clone(), h.clone());
                }
            }
        }
        Snapshot {
            counters: KIND_NAMES.iter().copied().zip(counters).collect(),
            gauges: self
                .core
                .gauges
                .lock()
                .iter()
                .map(|(name, v)| (name.clone(), *v))
                .collect(),
            histograms: histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.summary()))
                .collect(),
        }
    }

    /// Drains the bus, then flushes every attached sink.
    pub fn flush(&self) {
        self.core.drain(true);
        for sink in self.core.sinks.iter() {
            sink.flush();
        }
    }
}

impl Core {
    fn now_us(&self) -> u64 {
        if self.manual.load(Ordering::Relaxed) {
            self.manual_us.load(Ordering::Relaxed)
        } else {
            u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
        }
    }

    /// This thread's staging slot, locked.
    fn slot(&self) -> MutexGuard<'_, Staged> {
        self.slots[THREAD_INDEX.with(|i| *i) % SLOTS].0.lock()
    }

    /// `node`'s Lamport clock, created at 0 on first use.
    fn clock(&self, node: NodeId) -> &AtomicU64 {
        let raw = node.as_raw();
        &self
            .clocks
            .find_or_push(|(r, _)| *r == raw, || (raw, AtomicU64::new(0)))
            .1
    }

    /// Counts, stamps and fans out one event with causal context.
    ///
    /// The event's node is the kind's intrinsic node when the payload
    /// names one, else `node`; when a node is known its Lamport clock
    /// ticks and stamps the event (`lc > 0`). `corr` flows through
    /// untouched.
    fn emit(&self, node: Option<NodeId>, corr: Option<NonZeroU64>, kind: EventKind) -> Event {
        self.debug_check_parent(&kind);
        let node = kind.intrinsic_node().or(node);
        let lc = node.map_or(0, |n| self.clock(n).fetch_add(1, Ordering::Relaxed) + 1);
        let event = Event {
            at_us: self.now_us(),
            node,
            lc,
            corr,
            kind,
        };
        let full = {
            let mut staged = self.slot();
            staged.counters[kind.index()] += 1;
            // Stamp and append under the slot lock, so a drain that
            // reads a watermark past this stamp finds the event here:
            // its Acquire load of `seq` pairs with this Release, and
            // the slot lock it takes next orders it after the append.
            if self.staging.load(Ordering::Relaxed) {
                let seq = self.seq.0.fetch_add(1, Ordering::AcqRel);
                staged.events.push((seq, event));
            }
            !staged.events.is_empty() && staged.events.len().is_multiple_of(CHUNK)
        };
        for sink in self.sinks.iter() {
            sink.record(&event);
        }
        if matches!(
            kind,
            EventKind::NodeCrash { .. } | EventKind::WatchdogViolation { .. }
        ) {
            self.drain(true);
        } else if full && !self.defer_drain() {
            self.drain(false);
        }
        event
    }

    /// The address that names this bus in the thread-local marks.
    fn addr(&self) -> usize {
        std::ptr::from_ref(self) as usize
    }

    /// Notes a chunk drain as due if this thread is deferring this
    /// bus's drains; `false` means drain now.
    fn defer_drain(&self) -> bool {
        let me = self.addr();
        DEFERRING.with(|d| {
            let deferring = d.get().0 == me;
            if deferring {
                d.set((me, true));
            }
            deferring
        })
    }

    /// Steps every event stamped below the current watermark through
    /// the watchdog and into the recorders, in stamp order, then emits
    /// the violations found (and hands those to the recorders too).
    /// With `block` false, returns at once if another thread is
    /// draining. A no-op on a thread already draining this bus.
    pub(crate) fn drain(&self, block: bool) {
        let me = self.addr();
        if DRAINING.with(Cell::get) == me {
            return;
        }
        let mut batch = if block {
            self.drain.lock()
        } else if let Some(batch) = self.drain.try_lock() {
            batch
        } else {
            return;
        };
        let _draining = Draining::enter(me);
        let watchdog = self.watchdog.lock().clone();
        let mut found = Vec::new();
        loop {
            let watermark = self.seq.0.load(Ordering::Acquire);
            for slot in &self.slots {
                let mut staged = slot.0.lock();
                let upto = staged.events.partition_point(|&(seq, _)| seq < watermark);
                batch.extend(staged.events.drain(..upto));
            }
            if batch.is_empty() {
                break;
            }
            // Each slot's run is already sorted: a merge of runs.
            batch.sort_by_key(|&(seq, _)| seq);
            if let Some(watchdog) = &watchdog {
                watchdog.scan(batch.iter().map(|(_, event)| event), &mut found);
            }
            for recorder in self.recorders.iter() {
                recorder.record(batch.iter().map(|(_, event)| event));
            }
            batch.clear();
            if found.is_empty() {
                break;
            }
            for kind in found.drain(..) {
                let violation = self.emit(None, None, kind);
                if let Some(watchdog) = &watchdog {
                    watchdog.deliver(&violation);
                }
            }
        }
    }

    #[cfg(debug_assertions)]
    fn debug_check_parent(&self, kind: &EventKind) {
        if let EventKind::ActionBegin { action, parent, .. } = kind {
            let mut begun = self.begun.lock();
            if let Some(p) = parent {
                debug_assert!(
                    begun.contains(&p.as_raw()),
                    "action {action} began under parent {p}, which never began"
                );
            }
            begun.insert(action.as_raw());
        }
    }

    #[cfg(not(debug_assertions))]
    #[allow(clippy::unused_self)]
    fn debug_check_parent(&self, _kind: &EventKind) {}
}

impl Drop for Core {
    /// Hands the last staged events to the monitors, which may outlive
    /// the bus.
    fn drop(&mut self) {
        self.drain(true);
    }
}

/// Marks this thread as draining one bus until dropped (a panicking
/// callback included).
struct Draining(usize);

impl Draining {
    fn enter(bus: usize) -> Self {
        Draining(DRAINING.with(|d| d.replace(bus)))
    }
}

impl Drop for Draining {
    fn drop(&mut self) {
        DRAINING.with(|d| d.set(self.0));
    }
}

/// Puts off this thread's chunk drains of one bus until left (or
/// dropped, a panicking closure included).
struct Deferring((usize, bool));

impl Deferring {
    fn enter(bus: usize) -> Self {
        Deferring(DEFERRING.with(|d| d.replace((bus, false))))
    }

    /// Ends the deferral: `true` if a drain came due.
    fn leave(self) -> bool {
        DEFERRING.with(Cell::get).1
    }
}

impl Drop for Deferring {
    fn drop(&mut self) {
        DEFERRING.with(|d| d.set(self.0));
    }
}

/// A monitor's link to the bus that feeds it, so the monitor's reads
/// can drain that bus first.
#[derive(Default)]
pub(crate) struct Feed(Mutex<Weak<Core>>);

impl Feed {
    fn set(&self, core: &Arc<Core>) {
        *self.0.lock() = Arc::downgrade(core);
    }

    /// Drains the feeding bus, if there is one.
    pub(crate) fn drain(&self) {
        let core = self.0.lock().upgrade();
        if let Some(core) = core {
            core.drain(true);
        }
    }
}

impl Default for EventBus {
    fn default() -> Self {
        EventBus::new()
    }
}

impl fmt::Debug for EventBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventBus")
            .field("sinks", &self.core.sinks.iter().count())
            .finish_non_exhaustive()
    }
}

/// The handle instrumented code holds: a cheap clone that forwards to
/// a shared [`EventBus`], or does nothing when no bus is installed.
///
/// Subsystems are constructed with [`Obs::none`] and gain a bus later
/// via their `set_obs`/`install_obs` entry points, so observability is
/// strictly opt-in and the untraced hot path costs one branch.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    bus: Option<Arc<EventBus>>,
    node: Option<NodeId>,
}

impl Obs {
    /// The inert handle: every operation is a no-op.
    #[must_use]
    pub fn none() -> Self {
        Obs {
            bus: None,
            node: None,
        }
    }

    /// A handle bound to `bus`, with no node context.
    #[must_use]
    pub fn new(bus: Arc<EventBus>) -> Self {
        Obs {
            bus: Some(bus),
            node: None,
        }
    }

    /// This handle rebound to a node: every event emitted through it
    /// whose kind has no intrinsic node is attributed to `node` and
    /// stamped with `node`'s Lamport clock.
    #[must_use]
    pub fn at_node(&self, node: NodeId) -> Obs {
        Obs {
            bus: self.bus.clone(),
            node: Some(node),
        }
    }

    /// The bound node, if any.
    #[must_use]
    pub fn node(&self) -> Option<NodeId> {
        self.node
    }

    /// `true` when a bus is installed.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.bus.is_some()
    }

    /// The underlying bus, if any.
    #[must_use]
    pub fn bus(&self) -> Option<&Arc<EventBus>> {
        self.bus.as_ref()
    }

    /// Emits an event (no-op without a bus).
    pub fn emit(&self, kind: EventKind) {
        if let Some(bus) = &self.bus {
            bus.core.emit(self.node, None, kind);
        }
    }

    /// Emits an event carrying a correlation id and returns the
    /// stamped record (None without a bus). Transports use the
    /// returned Lamport clock to ship the send's causal position to
    /// the receiving side.
    pub fn emit_corr(&self, corr: NonZeroU64, kind: EventKind) -> Option<Event> {
        self.bus
            .as_ref()
            .map(|bus| bus.core.emit(self.node, Some(corr), kind))
    }

    /// Runs `f` with this thread's chunk drains of the bus put off
    /// until `f` returns. An emit inside `f` still counts, stamps and
    /// stages its event, so stamp order is unchanged; only the drain an
    /// emit that fills its slot would start runs after `f`, outside
    /// whatever lock `f` holds (the runtime's stamp gate, which every
    /// committing colour shares). A `node_crash` or `watchdog_violation`
    /// still drains at once.
    pub fn deferring_drains<R>(&self, f: impl FnOnce() -> R) -> R {
        let Some(bus) = &self.bus else {
            return f();
        };
        let deferring = Deferring::enter(bus.core.addr());
        let out = f();
        if deferring.leave() {
            bus.core.drain(false);
        }
        out
    }

    /// Merges an observed remote clock into `node`'s clock (no-op
    /// without a bus). See [`EventBus::merge_clock`].
    pub fn merge_clock(&self, node: NodeId, observed_lc: u64) {
        if let Some(bus) = &self.bus {
            bus.merge_clock(node, observed_lc);
        }
    }

    /// Records a latency sample (no-op without a bus).
    pub fn observe(&self, metric: &str, us: u64) {
        if let Some(bus) = &self.bus {
            bus.observe(metric, us);
        }
    }

    /// Sets a named gauge (no-op without a bus). See
    /// [`EventBus::set_gauge`].
    pub fn set_gauge(&self, name: &str, value: u64) {
        if let Some(bus) = &self.bus {
            bus.set_gauge(name, value);
        }
    }

    /// Current bus time, or 0 without a bus.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.bus.as_ref().map_or(0, |bus| bus.now_us())
    }
}

impl From<Arc<EventBus>> for Obs {
    /// A bus converts into a handle bound to it (no node context), so
    /// `Observable::install_obs` call sites can pass a bare bus.
    fn from(bus: Arc<EventBus>) -> Self {
        Obs::new(bus)
    }
}

impl From<&Arc<EventBus>> for Obs {
    fn from(bus: &Arc<EventBus>) -> Self {
        Obs::new(Arc::clone(bus))
    }
}

/// The one way to wire observability into a subsystem.
///
/// Every traced component — lock tables, stores, logs, runtimes, nodes,
/// whole simulations — implements this single entry point; installing a
/// handle recursively re-installs it into the component's children, so
/// one call at the top threads the bus through a whole stack. Pass
/// [`Obs::none`] to detach.
///
/// Node binding travels inside the [`Obs`] itself (see [`Obs::at_node`]):
/// a component that knows its own node identity rebinds the handle it
/// receives, so callers never need a separate `install_obs_at` variant.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use chroma_obs::{EventBus, Obs, Observable, ObsCell};
///
/// struct Subsystem {
///     obs: ObsCell,
/// }
///
/// impl Observable for Subsystem {
///     fn install_obs(&self, obs: Obs) {
///         self.obs.set(obs);
///     }
/// }
///
/// let s = Subsystem { obs: ObsCell::new() };
/// s.install_obs(Obs::new(Arc::new(EventBus::new())));
/// assert!(s.obs.get().enabled());
/// ```
pub trait Observable {
    /// Installs `obs` as this component's observability handle,
    /// replacing any previous one and propagating it to children.
    fn install_obs(&self, obs: Obs);
}

/// An [`Obs`] slot settable through `&self`, for subsystems that are
/// built before tracing is installed and are only reachable behind
/// shared references afterwards.
///
/// Reads borrow the installed handle: no lock, no `Arc` clone, no write
/// to a line other readers share. Every handle ever set stays in the
/// cell until it drops (the newest is the one read), which suits the
/// handful of installs a subsystem sees.
#[derive(Default)]
pub struct ObsCell {
    installs: AppendList<Obs>,
}

/// What an empty [`ObsCell`] reads.
static INERT: Obs = Obs {
    bus: None,
    node: None,
};

impl ObsCell {
    /// An empty cell (inert handle).
    #[must_use]
    pub fn new() -> Self {
        ObsCell::default()
    }

    /// Replaces the stored handle.
    pub fn set(&self, obs: Obs) {
        self.installs.push(obs);
    }

    /// The stored handle, borrowed.
    #[must_use]
    pub fn get(&self) -> &Obs {
        self.installs.iter().last().unwrap_or(&INERT)
    }
}

impl fmt::Debug for ObsCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ObsCell").field(self.get()).finish()
    }
}

/// A crash-tolerant JSONL file sink for real processes: each event is
/// written as **one** `write(2)` of a complete line to a file opened in
/// append mode.
///
/// A buffered writer could leave a torn line mid-buffer at a `kill -9`.
/// Here a line either fully reaches the kernel or was never issued —
/// the strongest guarantee available without fsync per event — so a
/// killed process's trace ends at a line boundary (modulo
/// filesystem-level tearing, which lenient merge parsing tolerates).
/// Append mode also makes restarts of the same process continue the
/// same trace file.
pub struct AppendJsonlSink {
    file: Mutex<std::fs::File>,
    failed: AtomicBool,
}

impl AppendJsonlSink {
    /// Opens (creating if necessary) `path` for appending.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn open(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(AppendJsonlSink {
            file: Mutex::new(file),
            failed: AtomicBool::new(false),
        })
    }

    /// `true` if any write failed.
    #[must_use]
    pub fn had_errors(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }
}

impl EventSink for AppendJsonlSink {
    fn record(&self, event: &Event) {
        let mut line = event.to_json_line();
        line.push('\n');
        if self.file.lock().write_all(line.as_bytes()).is_err() {
            self.failed.store(true, Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        if self.file.lock().flush().is_err() {
            self.failed.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chroma_base::{ActionId, NodeId};

    fn begin(n: u64) -> EventKind {
        EventKind::ActionBegin {
            action: ActionId::from_raw(n),
            parent: None,
            colours: 1,
        }
    }

    #[test]
    fn counters_count_per_kind() {
        let bus = EventBus::new();
        bus.emit(begin(1));
        bus.emit(begin(2));
        bus.emit(EventKind::ActionCommit {
            action: ActionId::from_raw(1),
        });
        assert_eq!(bus.counter("action_begin"), 2);
        assert_eq!(bus.counter("action_commit"), 1);
        assert_eq!(bus.counter("action_abort"), 0);
        assert_eq!(bus.counter("not_a_kind"), 0);
        let snap = bus.snapshot();
        assert_eq!(snap.counter("action_begin"), 2);
    }

    #[test]
    fn manual_clock_stamps_events() {
        let bus = EventBus::new();
        bus.set_time_us(42_000);
        let e = bus.emit(begin(1));
        assert_eq!(e.at_us, 42_000);
        bus.set_time_us(43_000);
        assert_eq!(bus.now_us(), 43_000);
    }

    #[test]
    fn wall_clock_is_monotonic_from_zero() {
        let bus = EventBus::new();
        let a = bus.now_us();
        let b = bus.now_us();
        assert!(b >= a);
    }

    #[test]
    fn observe_feeds_named_histograms() {
        let bus = EventBus::new();
        bus.observe("core.commit_us", 10);
        bus.observe("core.commit_us", 30);
        bus.observe("locks.wait_us", 5);
        let dynamic = format!("core.commit_us.{}", "red");
        bus.observe(&dynamic, 12);
        bus.observe(&dynamic, 14);
        let snap = bus.snapshot();
        assert_eq!(snap.histogram("core.commit_us.red").unwrap().count, 2);
        let commit = snap.histogram("core.commit_us").unwrap();
        assert_eq!(commit.count, 2);
        assert_eq!(commit.mean_us, 20.0);
        assert_eq!(snap.histogram("locks.wait_us").unwrap().count, 1);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("chroma-bus-jsonl-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        let bus = EventBus::new();
        bus.set_time_us(7);
        let sink = Arc::new(AppendJsonlSink::open(&path).unwrap());
        bus.add_sink(sink.clone());
        bus.emit(begin(1));
        bus.emit(EventKind::NodeCrash {
            node: NodeId::from_raw(2),
        });
        bus.flush();
        assert!(!sink.had_errors());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let event = Event::from_json_line(line).unwrap();
            assert_eq!(event.at_us, 7);
        }
    }

    #[test]
    fn lamport_clocks_tick_and_merge() {
        use crate::event::MsgKind;
        let bus = Arc::new(EventBus::new());
        let n1 = NodeId::from_raw(1);
        let n2 = NodeId::from_raw(2);
        let obs = Obs::new(bus.clone());
        let send = obs
            .emit_corr(
                NonZeroU64::new(9).unwrap(),
                EventKind::MsgSend {
                    from: n1,
                    to: n2,
                    kind: MsgKind::Prepare,
                },
            )
            .unwrap();
        assert_eq!(send.node, Some(n1));
        assert_eq!(send.lc, 1);
        assert_eq!(send.corr, NonZeroU64::new(9));
        // The receive side merges the send's clock first, so the
        // delivery is causally after it.
        bus.merge_clock(n2, send.lc);
        let deliver = obs
            .emit_corr(
                NonZeroU64::new(9).unwrap(),
                EventKind::MsgDeliver {
                    from: n1,
                    to: n2,
                    kind: MsgKind::Prepare,
                },
            )
            .unwrap();
        assert_eq!(deliver.node, Some(n2));
        assert!(deliver.lc > send.lc, "{} vs {}", deliver.lc, send.lc);
        assert_eq!(bus.lamport(n2), deliver.lc);
    }

    #[test]
    fn deferred_chunk_drain_runs_after_the_closure() {
        let bus = Arc::new(EventBus::new());
        let recorder = FlightRecorder::attach(&bus, 4 * CHUNK);
        let obs = Obs::new(bus.clone());
        let staged = || bus.core.slot().events.len();
        obs.deferring_drains(|| {
            // A full chunk and more: the drain that came due waits.
            for i in 0..=CHUNK as u64 {
                obs.emit(begin(i));
            }
            assert_eq!(staged(), CHUNK + 1, "stamps are taken at the emit");
        });
        assert_eq!(staged(), 0, "the deferred drain ran on the way out");
        let stamped: Vec<_> = recorder.events().iter().map(|e| e.kind).collect();
        let emitted: Vec<_> = (0..=CHUNK as u64).map(begin).collect();
        assert_eq!(stamped, emitted, "drained in stamp order");
        // Without a deferral the chunk drains at its last emit.
        for i in 0..CHUNK as u64 {
            obs.emit(begin(100 + i));
        }
        assert_eq!(staged(), 0);
        Obs::none().deferring_drains(|| ());
    }

    #[test]
    fn at_node_binds_nodeless_kinds() {
        let bus = Arc::new(EventBus::new());
        let recorder = FlightRecorder::attach(&bus, 8);
        let obs = Obs::new(bus.clone()).at_node(NodeId::from_raw(5));
        assert_eq!(obs.node(), Some(NodeId::from_raw(5)));
        obs.emit(begin(1));
        let e = recorder.events()[0];
        assert_eq!(e.node, Some(NodeId::from_raw(5)));
        assert_eq!(e.lc, 1);
        // A kind whose payload names a node ignores the binding.
        obs.emit(EventKind::NodeCrash {
            node: NodeId::from_raw(9),
        });
        let e = recorder.events()[1];
        assert_eq!(e.node, Some(NodeId::from_raw(9)));
        assert_eq!(bus.lamport(NodeId::from_raw(9)), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "never began")]
    fn parented_begin_without_parent_panics_in_debug() {
        let bus = EventBus::new();
        bus.emit(EventKind::ActionBegin {
            action: ActionId::from_raw(2),
            parent: Some(ActionId::from_raw(1)),
            colours: 1,
        });
    }

    #[test]
    fn gauges_overwrite_and_snapshot() {
        let bus = Arc::new(EventBus::new());
        assert_eq!(bus.gauge("locks.entries"), None);
        bus.set_gauge("locks.entries", 4);
        bus.set_gauge("locks.entries", 2);
        bus.set_gauge("store.group_queue", 9);
        assert_eq!(bus.gauge("locks.entries"), Some(2), "gauges overwrite");
        let snap = bus.snapshot();
        assert_eq!(snap.gauge("locks.entries"), Some(2));
        assert_eq!(snap.gauge("store.group_queue"), Some(9));
        assert!(snap.render().contains("gauges:"));
        // The Obs handle forwards (and is a no-op unbound).
        Obs::none().set_gauge("x", 1);
        let obs = Obs::new(bus.clone());
        obs.set_gauge("core.live_actions", 3);
        assert_eq!(bus.gauge("core.live_actions"), Some(3));
    }

    #[test]
    fn obs_handle_is_noop_without_bus() {
        let obs = Obs::none();
        assert!(!obs.enabled());
        obs.emit(begin(1)); // must not panic
        obs.observe("x", 1);
        assert_eq!(obs.now_us(), 0);

        let cell = ObsCell::new();
        assert!(!cell.get().enabled());
        let bus = Arc::new(EventBus::new());
        cell.set(Obs::new(bus.clone()));
        assert!(cell.get().enabled());
        cell.get().emit(begin(9));
        assert_eq!(bus.counter("action_begin"), 1);
        cell.set(Obs::none());
        assert!(!cell.get().enabled());
    }
}
