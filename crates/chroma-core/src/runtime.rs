//! The multi-coloured action runtime.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chroma_base::{
    ActionId, AppendList, Colour, ColourSet, ColourUniverse, LockError, LockMode, NodeId, ObjectId,
    Sharded, MAX_LIVE_COLOURS,
};
use chroma_locks::{ColouredPolicy, LockTable};
use chroma_obs::{EventKind, Obs, ObsCell, Observable};
use chroma_store::codec::{self, Stored};
use chroma_store::{GcStats, StampClock, StoreBytes, VersionChains, VisibleVersion};
use parking_lot::{Mutex, RwLock};

use crate::backend::{LocalBackend, PermanenceBackend};
use crate::error::ActionError;
use crate::scope::ActionScope;
use crate::snapshot::SnapshotScope;
use crate::tree::{ActionState, ActionTree, Ancestors};
use crate::undo::UndoLog;

/// Stamped outermost flushes between automatic version-chain GC
/// sweeps ([`Runtime::version_gc`] runs one on demand).
const GC_EVERY: u64 = 64;

/// Tunables for a [`Runtime`].
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Upper bound on any single lock wait. `None` waits indefinitely
    /// (deadlocks are still broken by the detector). Defaults to 10 s so
    /// misbehaving workloads fail loudly instead of hanging.
    pub lock_timeout: Option<Duration>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            lock_timeout: Some(Duration::from_secs(10)),
        }
    }
}

/// A snapshot of runtime counters, taken with [`Runtime::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Actions begun.
    pub begun: u64,
    /// Actions committed.
    pub committed: u64,
    /// Actions aborted.
    pub aborted: u64,
    /// Lock waits that ended with the waiter chosen as deadlock victim.
    pub deadlock_victims: u64,
}

#[derive(Debug, Default)]
struct StatCounters {
    begun: AtomicU64,
    committed: AtomicU64,
    aborted: AtomicU64,
    deadlock_victims: AtomicU64,
}

struct Inner {
    universe: ColourUniverse,
    default_colour: Colour,
    tree: ActionTree,
    locks: LockTable<ColouredPolicy>,
    /// Working states actions read and write, sharded by object:
    /// volatile storage, which [`Runtime::crash_and_recover`] wipes.
    /// Objects missing here are loaded lazily from `stable`.
    volatile: Sharded<RwLock<HashMap<ObjectId, StoreBytes>>>,
    stable: Arc<dyn PermanenceBackend>,
    undo: UndoLog,
    next_action: AtomicU64,
    next_object: AtomicU64,
    config: RuntimeConfig,
    stats: StatCounters,
    obs: ObsCell,
    /// Per-object version chains feeding read-only snapshot actions.
    versions: VersionChains,
    /// Allocates and publishes the commit stamps snapshots capture.
    stamps: StampClock,
    /// Live read-only snapshots: id → the stamp captured at open.
    /// Capture happens *inside* this lock (both here and in
    /// [`Runtime::version_gc`]) so GC can never miss a
    /// concurrently-opening snapshot with an older capture than its
    /// own. Reads never take it: a scope carries its stamp and its
    /// crash epoch.
    snapshots: Mutex<HashMap<ActionId, u64>>,
    /// Crashes so far. A scope records it at open, inside the
    /// `snapshots` lock, and [`Runtime::crash_and_recover`] bumps it
    /// inside that lock as it drains the registry, so a scope is either
    /// drained or opened after the crash; one whose epoch is stale
    /// reads `NotActive`.
    crash_epoch: AtomicU64,
    /// Stamped outermost flushes since boot; drives automatic GC.
    gc_tick: AtomicU64,
    /// Per colour slot, the flush histogram names
    /// `core.commit_us.<name>` built so far, keyed by the universe's
    /// [`name_key`](ColourUniverse::name_key): a traced flush finds its
    /// name with no lock and no allocation.
    flush_metrics: Box<[AppendList<(u64, String)>]>,
}

impl Inner {
    /// The working-state shard holding `object`.
    fn working(&self, object: ObjectId) -> &RwLock<HashMap<ObjectId, StoreBytes>> {
        self.volatile.of(object.as_raw())
    }

    /// The name of `colour`'s flush histogram, `core.commit_us.<name>`.
    fn flush_metric(&self, colour: Colour) -> &str {
        let key = self.universe.name_key(colour);
        &self.flush_metrics[colour.index()]
            .find_or_push(
                |(k, _)| *k == key,
                || {
                    let name = self
                        .universe
                        .with_name(colour, |name| format!("core.commit_us.{name}"));
                    (key, name)
                },
            )
            .1
    }
}

/// The multi-coloured action runtime: persistent objects, coloured
/// locking, nested actions, per-colour commit and recovery.
///
/// A `Runtime` owns one node's object stores and lock table. It is
/// cheaply clonable (clones share state) and fully thread-safe: actions
/// typically run one per thread.
///
/// The paper's semantics are implemented exactly:
///
/// * an action may possess several colours and specifies one of them for
///   each lock it takes;
/// * when an action **commits**, for each of its colours its locks and
///   before-images pass to the *closest ancestor possessing that
///   colour*; if there is none, the action is *outermost* for the colour
///   and the colour's updates are flushed atomically to stable storage
///   (permanence of effect), after which the colour's locks are
///   released;
/// * when an action **aborts**, all its locks are discarded and all its
///   before-images restored — ancestors keep their own locks and images;
/// * a system in which every action has the same single colour behaves
///   exactly like a conventional nested atomic action system.
///
/// # Examples
///
/// Fig. 10 of the paper — B (red+blue) nested in A (blue); B's red
/// effects survive A's abort, its blue effects do not:
///
/// ```
/// use chroma_base::ColourSet;
/// use chroma_core::Runtime;
///
/// # fn main() -> Result<(), chroma_core::ActionError> {
/// let rt = Runtime::builder().build();
/// let (red, blue) = (rt.universe().colour("red"), rt.universe().colour("blue"));
/// let o_r = rt.create_object(&0i32)?; // will be written in red
/// let o_b = rt.create_object(&0i32)?; // will be written in blue
///
/// let a = rt.begin_top(ColourSet::single(blue))?;
/// let b = rt.begin_nested(a, ColourSet::from_iter([red, blue]))?;
/// rt.scope(b)?.write_in(red, o_r, &1i32)?;
/// rt.scope(b)?.write_in(blue, o_b, &1i32)?;
/// rt.commit(b)?; // B outermost red: red effects permanent; blue passes to A
/// rt.abort(a); // undoes blue only
///
/// assert_eq!(rt.read_committed::<i32>(o_r)?, 1);
/// assert_eq!(rt.read_committed::<i32>(o_b)?, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<Inner>,
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::builder().build()
    }
}

/// Fluent constructor for [`Runtime`], from [`Runtime::builder`].
///
/// Every knob is optional; `build()` fills in the defaults (default
/// config, a fresh [`LocalBackend`], no tracing, no node binding).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use chroma_base::NodeId;
/// use chroma_core::{Runtime, RuntimeConfig};
/// use chroma_obs::EventBus;
///
/// let bus = Arc::new(EventBus::new());
/// let rt = Runtime::builder()
///     .config(RuntimeConfig::default())
///     .obs(bus.clone())
///     .at_node(NodeId::from_raw(7))
///     .build();
/// assert_eq!(rt.stats().begun, 0);
/// ```
#[derive(Default)]
pub struct RuntimeBuilder {
    config: RuntimeConfig,
    backend: Option<Arc<dyn PermanenceBackend>>,
    obs: Option<Obs>,
    node: Option<NodeId>,
}

impl RuntimeBuilder {
    /// Sets the runtime configuration (defaults to
    /// [`RuntimeConfig::default`]).
    #[must_use]
    pub fn config(mut self, config: RuntimeConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the permanence backend — e.g. [`crate::DiskBackend`] for
    /// on-disk durability or `chroma-dist`'s partitioned store for the
    /// distributed deployment. Defaults to a fresh [`LocalBackend`].
    #[must_use]
    pub fn backend(mut self, backend: Arc<dyn PermanenceBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Installs observability from construction: accepts an
    /// `Arc<EventBus>` or a prepared [`Obs`] handle. Equivalent to
    /// calling [`Observable::install_obs`] on the built runtime.
    #[must_use]
    pub fn obs(mut self, obs: impl Into<Obs>) -> Self {
        self.obs = Some(obs.into());
        self
    }

    /// Binds the runtime's events to `node` — they then carry that node
    /// id and tick its Lamport clock, so a local runtime can share a
    /// trace with a distributed simulation without colliding on node 0.
    #[must_use]
    pub fn at_node(mut self, node: NodeId) -> Self {
        self.node = Some(node);
        self
    }

    /// Builds the runtime.
    #[must_use]
    pub fn build(self) -> Runtime {
        let backend = self
            .backend
            .unwrap_or_else(|| Arc::new(LocalBackend::new()));
        let universe = ColourUniverse::new();
        let default_colour = universe.colour("default");
        // Continue object allocation after anything already persisted
        // (a disk-backed store re-opened after a restart).
        let first_object = backend.max_object().map_or(1, |o| o.as_raw() + 1);
        let rt = Runtime {
            inner: Arc::new(Inner {
                universe,
                default_colour,
                tree: ActionTree::default(),
                locks: LockTable::new(ColouredPolicy),
                volatile: Sharded::default(),
                stable: backend,
                undo: UndoLog::new(),
                next_action: AtomicU64::new(1),
                next_object: AtomicU64::new(first_object),
                config: self.config,
                stats: StatCounters::default(),
                obs: ObsCell::new(),
                versions: VersionChains::new(),
                stamps: StampClock::new(),
                snapshots: Mutex::new(HashMap::new()),
                crash_epoch: AtomicU64::new(0),
                gc_tick: AtomicU64::new(0),
                flush_metrics: (0..MAX_LIVE_COLOURS)
                    .map(|_| AppendList::default())
                    .collect(),
            }),
        };
        if let Some(obs) = self.obs {
            let obs = match self.node {
                Some(node) => obs.at_node(node),
                None => obs,
            };
            rt.install_obs(obs);
        }
        rt
    }
}

impl Runtime {
    /// Returns a [`RuntimeBuilder`] — the one way to construct a
    /// runtime.
    #[must_use]
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Returns the colour universe of this runtime.
    #[must_use]
    pub fn universe(&self) -> &ColourUniverse {
        &self.inner.universe
    }

    /// Returns the colour used by single-colour (conventional) actions.
    #[must_use]
    pub fn default_colour(&self) -> Colour {
        self.inner.default_colour
    }

    /// Returns a snapshot of the runtime counters.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        let s = &self.inner.stats;
        RuntimeStats {
            begun: s.begun.load(Ordering::Relaxed),
            committed: s.committed.load(Ordering::Relaxed),
            aborted: s.aborted.load(Ordering::Relaxed),
            deadlock_victims: s.deadlock_victims.load(Ordering::Relaxed),
        }
    }

    // ------------------------------------------------------------------
    // Objects
    // ------------------------------------------------------------------

    /// Creates a persistent object with an initial committed state.
    ///
    /// This is the bootstrap path, used outside any action; it writes
    /// the state straight to stable storage.
    ///
    /// # Errors
    ///
    /// [`ActionError::Backend`] if the permanence backend cannot
    /// install the initial state.
    pub fn create_object<T: Stored>(&self, value: &T) -> Result<ObjectId, ActionError> {
        let bytes = StoreBytes::from(codec::to_bytes(value)?);
        self.create_object_raw(bytes)
    }

    /// Creates a persistent object from raw bytes (bootstrap path).
    ///
    /// # Errors
    ///
    /// [`ActionError::Backend`] if the permanence backend cannot
    /// install the initial state.
    pub fn create_object_raw(&self, state: StoreBytes) -> Result<ObjectId, ActionError> {
        let object = ObjectId::from_raw(self.inner.next_object.fetch_add(1, Ordering::Relaxed));
        self.inner
            .stable
            .commit_batch(vec![(object, state)])
            .map_err(ActionError::Backend)?;
        Ok(object)
    }

    /// Reads the last *committed* (stable) state of an object, bypassing
    /// locks. Intended for bootstrap, assertions and debugging — running
    /// actions should read through a scope.
    ///
    /// # Errors
    ///
    /// [`ActionError::NoSuchObject`] if the object has no committed
    /// state; [`ActionError::Codec`] on decode failure.
    pub fn read_committed<T: Stored>(&self, object: ObjectId) -> Result<T, ActionError> {
        let bytes = self
            .inner
            .stable
            .read(object)
            .ok_or(ActionError::NoSuchObject(object))?;
        Ok(codec::from_bytes(&bytes)?)
    }

    /// Reads the current *working* state of an object (volatile if
    /// present, else stable), bypassing locks. Debugging aid.
    ///
    /// # Errors
    ///
    /// [`ActionError::NoSuchObject`] if the object does not exist;
    /// [`ActionError::Codec`] on decode failure.
    pub fn read_current<T: Stored>(&self, object: ObjectId) -> Result<T, ActionError> {
        let bytes = self
            .current_state(object)
            .ok_or(ActionError::NoSuchObject(object))?;
        Ok(codec::from_bytes(&bytes)?)
    }

    /// Returns `true` if the object exists in volatile or stable storage.
    #[must_use]
    pub fn object_exists(&self, object: ObjectId) -> bool {
        self.inner.working(object).read().contains_key(&object)
            || self.inner.stable.contains(object)
    }

    // ------------------------------------------------------------------
    // Action lifecycle
    // ------------------------------------------------------------------

    /// Begins a top-level action possessing `colours`.
    ///
    /// # Errors
    ///
    /// [`ActionError::NoColours`] if `colours` is empty.
    pub fn begin_top(&self, colours: ColourSet) -> Result<ActionId, ActionError> {
        self.begin(None, colours).map(|(id, _)| id)
    }

    /// Begins an action nested inside `parent`, possessing `colours`.
    ///
    /// The child's colour set is independent of the parent's — that is
    /// the point of multi-coloured actions (fig. 10: a red+blue action
    /// inside a blue one).
    ///
    /// # Errors
    ///
    /// [`ActionError::ParentNotActive`] if `parent` is not active;
    /// [`ActionError::NoColours`] if `colours` is empty.
    pub fn begin_nested(
        &self,
        parent: ActionId,
        colours: ColourSet,
    ) -> Result<ActionId, ActionError> {
        self.begin(Some(parent), colours).map(|(id, _)| id)
    }

    /// Begins an action and returns it with its ancestors.
    fn begin(
        &self,
        parent: Option<ActionId>,
        colours: ColourSet,
    ) -> Result<(ActionId, Ancestors), ActionError> {
        if colours.is_empty() {
            return Err(ActionError::NoColours);
        }
        let ancestors = match parent {
            Some(parent) => self
                .inner
                .tree
                .child_ancestors(parent)
                .ok_or(ActionError::ParentNotActive(parent))?,
            None => Ancestors::default(),
        };
        let id = ActionId::from_raw(self.inner.next_action.fetch_add(1, Ordering::Relaxed));
        if !self.inner.tree.insert(id, ancestors.clone(), colours) {
            // The parent began to terminate after its chain was read.
            return Err(ActionError::ParentNotActive(ancestors.ids()[0]));
        }
        self.inner.stats.begun.fetch_add(1, Ordering::Relaxed);
        self.inner.obs.get().emit(EventKind::ActionBegin {
            action: id,
            parent,
            colours: colour_bits(colours),
        });
        Ok((id, ancestors))
    }

    /// Returns a scope for operating within an active action.
    ///
    /// The scope's default colour is the lowest-indexed colour of the
    /// action; multi-coloured actions normally use the explicit `_in`
    /// operations.
    ///
    /// # Errors
    ///
    /// [`ActionError::NotActive`] if the action is not active.
    pub fn scope(&self, action: ActionId) -> Result<ActionScope<'_>, ActionError> {
        let (colours, ancestors) = self
            .inner
            .tree
            .active_node(action)
            .ok_or(ActionError::NotActive(action))?;
        let default_colour = colours.iter().next().expect("non-empty colour set");
        Ok(ActionScope::new(
            self,
            action,
            ancestors,
            colours,
            default_colour,
        ))
    }

    /// Commits an action.
    ///
    /// For each colour the action possesses: if a (closest) ancestor
    /// possesses the colour, locks and before-images pass to it;
    /// otherwise the action is outermost for the colour, the colour's
    /// updates are flushed atomically to stable storage and its locks
    /// released. The action's bookkeeping goes with it: afterwards
    /// [`Runtime::action_state`] knows nothing of it.
    ///
    /// # Errors
    ///
    /// [`ActionError::NotActive`] if the action is not active;
    /// [`ActionError::ChildrenActive`] if a child is still live;
    /// [`ActionError::Backend`] if a flush failed (the action stays
    /// active, with its locks, so commit can be retried).
    pub fn commit(&self, action: ActionId) -> Result<(), ActionError> {
        let inner = &self.inner;
        let obs = inner.obs.get();
        let started = obs.enabled().then(Instant::now);
        let (colours, ancestors) = inner.tree.begin_commit(action)?;
        let mut stamped = false;
        for colour in colours {
            match ancestors.closest_with(colour) {
                Some(ancestor) => {
                    inner.locks.inherit_colour(action, colour, ancestor);
                    inner.undo.transfer_colour(action, colour, ancestor);
                }
                None => {
                    // Outermost for this colour: time the whole
                    // flush-and-release so the per-colour breakdown
                    // (`core.commit_us.<colour>`) sits next to the
                    // aggregate `core.commit_us`.
                    let flush_started = obs.enabled().then(Instant::now);
                    let records = inner.undo.take_colour(action, colour);
                    let updates: Vec<(ObjectId, StoreBytes)> = records
                        .iter()
                        .filter_map(|(object, _)| {
                            let working = inner.working(*object).read();
                            working.get(object).map(|state| (*object, state.clone()))
                        })
                        .collect();
                    if !updates.is_empty() {
                        // Seed each updated object's version chain with
                        // its before-image *before* the stable install:
                        // a snapshot reader that finds no chain falls
                        // back to stable storage, and must never find
                        // this commit's states there first.
                        for (object, image) in &records {
                            inner.versions.seed_base(*object, image.clone());
                        }
                        if let Err(e) = inner.stable.commit_batch(updates.clone()) {
                            // Permanence is unreachable: put the undo
                            // records back and keep the action active
                            // (with its locks) so commit can be retried
                            // or the action aborted. The seeded bases
                            // stay — they hold the still-committed
                            // states, and re-seeding is a no-op.
                            for (object, image) in records {
                                inner.undo.record_before(action, object, colour, image);
                            }
                            inner.tree.transition(
                                action,
                                ActionState::Committed,
                                ActionState::Active,
                            );
                            return Err(ActionError::Backend(e));
                        }
                        // Publish the new states as versions under the
                        // stamp gate: stamps enter chains in order, so a
                        // snapshot capturing frontier `s` is guaranteed
                        // every version `<= s` is already appended. The
                        // events are stamped under the gate (R10 needs
                        // them before the publish), but a drain they
                        // bring due runs after it, so no committer waits
                        // on the monitors.
                        obs.deferring_drains(|| {
                            inner.stamps.flush(|stamp| {
                                for (object, state) in &updates {
                                    inner.versions.append(*object, colour, stamp, state.clone());
                                    obs.emit(EventKind::VersionPublish {
                                        object: *object,
                                        colour,
                                        stamp,
                                    });
                                }
                            });
                        });
                        stamped = true;
                    }
                    inner.locks.release_colour(action, colour);
                    if let Some(flush_started) = flush_started {
                        let us =
                            u64::try_from(flush_started.elapsed().as_micros()).unwrap_or(u64::MAX);
                        obs.observe(inner.flush_metric(colour), us);
                    }
                }
            }
        }
        // Drop the lock table's per-action bookkeeping (shard index,
        // any pending interrupt) now that the action is terminated.
        inner.locks.retire_action(action);
        inner.stats.committed.fetch_add(1, Ordering::Relaxed);
        obs.emit(EventKind::ActionCommit { action });
        // Unlink only now: until then the parent's commit is refused,
        // so it is recorded after this one.
        inner.tree.remove(action);
        if let Some(started) = started {
            obs.observe(
                "core.commit_us",
                u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
            );
        }
        // Bound chain growth: every GC_EVERY stamped flushes, reclaim
        // versions no live snapshot can reach.
        if stamped && inner.gc_tick.fetch_add(1, Ordering::Relaxed) % GC_EVERY == GC_EVERY - 1 {
            self.version_gc();
        }
        Ok(())
    }

    /// Aborts an action: live children are aborted first (deepest
    /// first), every before-image is restored, every lock discarded, and
    /// the action's bookkeeping dropped.
    ///
    /// Aborting a non-active (or unknown) action is a no-op, so abort is
    /// always safe to call in cleanup paths.
    pub fn abort(&self, action: ActionId) {
        let inner = &self.inner;
        if !inner
            .tree
            .transition(action, ActionState::Active, ActionState::Aborted)
        {
            return;
        }
        // Abort live children first. A child whose commit is under way
        // is waited out: its effects pass to this action, and it
        // unlinks, before they are undone here.
        loop {
            let children = inner.tree.children(action);
            if children.is_empty() {
                break;
            }
            children.into_iter().for_each(|child| self.abort(child));
            std::thread::yield_now();
        }
        // Restore before-images while still holding the locks, so no
        // other action observes a half-restored state (strictness).
        for (object, _colour, image) in inner.undo.take_all(action) {
            match image {
                Some(state) => {
                    inner.working(object).write().insert(object, state);
                }
                None => {
                    inner.working(object).write().remove(&object);
                }
            }
        }
        inner.locks.discard_action(action);
        // If the action's thread is parked in a lock wait, wake it.
        inner.locks.cancel_waiter(action);
        inner.stats.aborted.fetch_add(1, Ordering::Relaxed);
        inner.obs.get().emit(EventKind::ActionAbort { action });
        inner.tree.remove(action);
    }

    /// Returns the lifecycle state of a live action; `None` once it has
    /// terminated (or if it never existed).
    #[must_use]
    pub fn action_state(&self, action: ActionId) -> Option<ActionState> {
        self.inner.tree.state(action)
    }

    // ------------------------------------------------------------------
    // Scoped runners
    // ------------------------------------------------------------------

    /// Runs a conventional top-level atomic action: single (default)
    /// colour, commit on `Ok`, abort on `Err`.
    ///
    /// A deadlock victim gets its error back once; to try again use
    /// [`Runtime::atomic_retry`], the only supported retry idiom. A
    /// bare `loop { rt.atomic(..) }` can livelock: each retry is a
    /// fresh — hence the youngest — action and is victimised again.
    ///
    /// # Errors
    ///
    /// Propagates the body's error after aborting, or any commit error.
    pub fn atomic<R>(
        &self,
        body: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        self.run_top(
            ColourSet::single(self.inner.default_colour),
            self.inner.default_colour,
            body,
        )
    }

    /// Like [`Runtime::atomic`], but automatically retries (up to
    /// `attempts` times) when the action is chosen as a deadlock
    /// victim — the standard reaction to victimisation, safe because
    /// the aborted attempt left no effects.
    ///
    /// A small, growing backoff is applied between attempts: a fresh
    /// attempt is always the *youngest* action and would otherwise be
    /// re-selected as victim immediately, livelocking under contention.
    /// (Prefer [`ActionScope::modify`], which takes the write lock up
    /// front, over read-then-write bodies that provoke upgrade
    /// deadlocks in the first place.)
    ///
    /// # Errors
    ///
    /// The body's error (immediately, for non-deadlock errors), or the
    /// final deadlock error if every attempt was victimised.
    pub fn atomic_retry<R>(
        &self,
        attempts: usize,
        mut body: impl FnMut(&mut ActionScope<'_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            match self.atomic(&mut body) {
                Err(e) if e.is_deadlock_victim() => {
                    last = Some(e);
                    let backoff_us = 50u64.saturating_mul(1 << attempt.min(8));
                    std::thread::sleep(Duration::from_micros(backoff_us));
                }
                other => return other,
            }
        }
        Err(last.expect("at least one attempt"))
    }

    /// Runs a top-level action with an explicit colour set and default
    /// colour; commit on `Ok`, abort on `Err`.
    ///
    /// # Errors
    ///
    /// Propagates the body's error after aborting, or any commit error.
    pub fn run_top<R>(
        &self,
        colours: ColourSet,
        default_colour: Colour,
        body: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        let (id, ancestors) = self.begin(None, colours)?;
        self.run_body(id, ancestors, colours, default_colour, body)
    }

    /// Runs a nested action under `parent`; commit on `Ok`, abort on
    /// `Err`.
    ///
    /// # Errors
    ///
    /// Propagates the body's error after aborting, or any commit error.
    pub fn run_nested<R>(
        &self,
        parent: ActionId,
        colours: ColourSet,
        default_colour: Colour,
        body: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        let (id, ancestors) = self.begin(Some(parent), colours)?;
        self.run_body(id, ancestors, colours, default_colour, body)
    }

    fn run_body<R>(
        &self,
        id: ActionId,
        ancestors: Ancestors,
        colours: ColourSet,
        default_colour: Colour,
        body: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        let mut scope = ActionScope::new(self, id, ancestors, colours, default_colour);
        match body(&mut scope) {
            Ok(value) => match self.commit(id) {
                Ok(()) => Ok(value),
                Err(error) => {
                    // Scoped actions are all-or-nothing from the
                    // caller's perspective: a failed commit (e.g. the
                    // permanence backend is unreachable) aborts rather
                    // than leaking an active action. Callers needing
                    // commit *retry* use explicit begin/commit.
                    self.abort(id);
                    Err(error)
                }
            },
            Err(error) => {
                self.abort(id);
                Err(error)
            }
        }
    }

    // ------------------------------------------------------------------
    // Crash simulation
    // ------------------------------------------------------------------

    /// Simulates a node crash followed by recovery: every active action
    /// is killed (its locks vanish with the volatile lock table), the
    /// volatile working states and undo log are wiped, and the
    /// permanence backend runs its [`recover`](PermanenceBackend::recover).
    ///
    /// Effects already committed by outermost coloured actions survive;
    /// everything else is gone — exactly the paper's failure model.
    pub fn crash_and_recover(&self) {
        let inner = &self.inner;
        let obs = inner.obs.get();
        // A local runtime is "node 0" in traces unless an `at_node` handle
        // bound another id; the distributed layer stamps real node ids
        // through its own simulator.
        let node = obs.node().unwrap_or(NodeId::from_raw(0));
        obs.emit(EventKind::NodeCrash { node });
        // Kill active actions; their threads' next operation fails.
        // Deepest first (then by id), so every child's abort is recorded
        // before its parent's — the trace auditor's causal rule (R8)
        // requires each span to close inside its parent even on the
        // crash path. A killed action leaves the tree, so another pass
        // finds only actions begun during this one.
        loop {
            let mut active = inner.tree.active();
            if active.is_empty() {
                break;
            }
            active.sort_unstable_by_key(|&(id, depth)| (std::cmp::Reverse(depth), id));
            for (action, _) in active {
                self.abort(action);
            }
        }
        inner.undo.clear();
        for shard in inner.volatile.iter() {
            shard.write().clear();
        }
        // Open snapshots die with the node: later reads through a
        // stale scope fail `NotActive`. The epoch moves before the
        // chains go, so a read that found a chain gone (and fell back
        // to stable storage, newer than its stamp) sees the new epoch
        // when it re-checks.
        let mut dead: Vec<ActionId> = {
            let mut registry = inner.snapshots.lock();
            inner.crash_epoch.fetch_add(1, Ordering::SeqCst);
            registry.drain().map(|(id, _)| id).collect()
        };
        dead.sort_unstable();
        for id in dead {
            inner.stats.aborted.fetch_add(1, Ordering::Relaxed);
            obs.emit(EventKind::ActionAbort { action: id });
        }
        // Version chains are volatile too; recovery rebuilds bases
        // lazily from stable storage. The stamp clock itself survives
        // (stamps are never reused, the published frontier only
        // advances), so post-recovery snapshots stay sound.
        inner.versions.crash();
        inner.stable.recover();
        obs.emit(EventKind::NodeRecover { node });
    }

    // ------------------------------------------------------------------
    // Read-only snapshot actions
    // ------------------------------------------------------------------

    /// Opens a declared read-only action: captures the published
    /// commit frontier and returns a [`SnapshotScope`] whose
    /// reads all observe that one consistent snapshot. Snapshot reads
    /// are served from version chains and never touch the lock table,
    /// so a read-only action can neither block a writer nor deadlock.
    ///
    /// Opening takes the snapshot-registry lock once, to capture the
    /// frontier and the crash epoch together; reads take no
    /// runtime-wide lock, and ending takes the registry lock once more.
    /// With no event bus installed, the open records nothing for the
    /// trace.
    ///
    /// The scope counts as committed when ended (explicitly or on
    /// drop); a [`Runtime::crash_and_recover`] kills it like any other
    /// active action, after which its reads fail
    /// [`ActionError::NotActive`].
    pub fn begin_read_only(&self) -> SnapshotScope<'_> {
        let inner = &self.inner;
        let id = ActionId::from_raw(inner.next_action.fetch_add(1, Ordering::Relaxed));
        // Capture inside the registry lock so a concurrent GC (which
        // also captures inside it) can never hold a *newer* frontier
        // than a snapshot it did not see registered, and a concurrent
        // crash either drains this entry or bumped the epoch first.
        let (stamp, epoch) = {
            let mut registry = inner.snapshots.lock();
            let stamp = inner.stamps.capture();
            registry.insert(id, stamp);
            (stamp, inner.crash_epoch.load(Ordering::SeqCst))
        };
        inner.stats.begun.fetch_add(1, Ordering::Relaxed);
        let obs = inner.obs.get();
        if obs.enabled() {
            obs.emit(EventKind::ActionBegin {
                action: id,
                parent: None,
                colours: 0,
            });
            obs.emit(EventKind::SnapshotOpen { action: id, stamp });
        }
        SnapshotScope::new(self, id, epoch, stamp)
    }

    /// Ends a read-only snapshot action (idempotent; called by
    /// [`SnapshotScope`] on end/drop). A scope already killed by a
    /// crash is a no-op — its abort was recorded then.
    pub(crate) fn end_read_only(&self, action: ActionId) {
        let inner = &self.inner;
        if inner.snapshots.lock().remove(&action).is_some() {
            inner.stats.committed.fetch_add(1, Ordering::Relaxed);
            inner.obs.get().emit(EventKind::ActionCommit { action });
        }
    }

    /// Serves one snapshot read: the newest version of `object` stamped
    /// at or below `snapshot`, falling back to stable storage for
    /// objects with no version chain. `epoch` is the crash epoch the
    /// scope opened in; a crash since then fails the read `NotActive`,
    /// checked before the read and again after it, so a read that a
    /// crash overtook (its chain wiped, stable storage newer than its
    /// stamp) returns no state. Takes only the object's chain shard
    /// lock.
    pub(crate) fn op_snapshot_read(
        &self,
        action: ActionId,
        epoch: u64,
        snapshot: u64,
        object: ObjectId,
    ) -> Result<StoreBytes, ActionError> {
        let inner = &self.inner;
        let live = || {
            if inner.crash_epoch.load(Ordering::SeqCst) == epoch {
                Ok(())
            } else {
                Err(ActionError::NotActive(action))
            }
        };
        live()?;
        let obs = inner.obs.get();
        let mut rechecked = false;
        loop {
            match inner.versions.read_visible(object, snapshot) {
                VisibleVersion::Version {
                    colour,
                    stamp,
                    state,
                } => {
                    live()?;
                    if obs.enabled() {
                        obs.emit(EventKind::SnapshotRead {
                            action,
                            object,
                            colour,
                            stamp,
                        });
                        obs.observe(
                            "core.snapshot_lag",
                            inner.stamps.capture().saturating_sub(stamp),
                        );
                    }
                    // A `None` state is a tombstone base: the object
                    // did not exist at the snapshot.
                    return state.ok_or(ActionError::NoSuchObject(object));
                }
                VisibleVersion::NoChain => {
                    let stable = inner.stable.read(object);
                    // A commit may have seeded the chain and installed
                    // its states between our two looks; the chain is
                    // then authoritative (the stable state could
                    // already be newer than this snapshot). One
                    // re-check suffices: a seeded chain always has a
                    // visible base.
                    if !rechecked && inner.versions.has_chain(object) {
                        rechecked = true;
                        continue;
                    }
                    live()?;
                    let Some(state) = stable else {
                        return Err(ActionError::NoSuchObject(object));
                    };
                    if obs.enabled() {
                        obs.emit(EventKind::SnapshotRead {
                            action,
                            object,
                            colour: Colour::from_index(0),
                            stamp: 0,
                        });
                    }
                    return Ok(state);
                }
            }
        }
    }

    /// Runs one version-chain GC sweep: reclaims versions no live
    /// snapshot can reach. The newest selectable version of every chain
    /// always survives, so writers never lose their committed state.
    /// Sweeps also run automatically every few stamped commits; call
    /// this to force one (e.g. after closing a long scan).
    pub fn version_gc(&self) -> GcStats {
        let inner = &self.inner;
        // Capture inside the registry lock (see `begin_read_only`): any
        // snapshot not yet registered will capture *after* us, hence a
        // frontier at least as new as ours, and our fresh capture pins
        // everything it can need. Visibility is monotone in the stamp,
        // so the oldest live stamp pins all the others need too.
        let oldest = {
            let registry = inner.snapshots.lock();
            registry
                .values()
                .copied()
                .fold(inner.stamps.capture(), u64::min)
        };
        let stats = inner.versions.collect(oldest);
        let obs = inner.obs.get();
        if obs.enabled() {
            obs.emit(EventKind::VersionGc {
                reclaimed: stats.reclaimed,
                retained: stats.retained,
            });
        }
        stats
    }

    /// Number of read-only snapshot actions currently open.
    #[must_use]
    pub fn live_snapshot_count(&self) -> usize {
        self.inner.snapshots.lock().len()
    }

    /// Version-chain length of one object (tests/metrics).
    #[must_use]
    pub fn version_chain_len(&self, object: ObjectId) -> usize {
        self.inner.versions.chain_len(object)
    }

    /// Total versions held across all chains (tests/metrics).
    #[must_use]
    pub fn version_count(&self) -> u64 {
        self.inner.versions.total_versions()
    }

    /// The published commit frontier: the newest stamp a snapshot
    /// opened now would capture (0 before any stamped flush).
    #[must_use]
    pub fn current_stamp(&self) -> u64 {
        self.inner.stamps.capture()
    }

    // ------------------------------------------------------------------
    // Operations (called through `ActionScope`)
    // ------------------------------------------------------------------

    pub(crate) fn op_lock(
        &self,
        scope: &ActionScope<'_>,
        colour: Colour,
        object: ObjectId,
        mode: LockMode,
    ) -> Result<(), ActionError> {
        self.acquire(scope, colour, object, mode, false)
    }

    pub(crate) fn op_try_lock(
        &self,
        scope: &ActionScope<'_>,
        colour: Colour,
        object: ObjectId,
        mode: LockMode,
    ) -> Result<(), ActionError> {
        self.acquire(scope, colour, object, mode, true)
    }

    pub(crate) fn op_read_raw(
        &self,
        scope: &ActionScope<'_>,
        colour: Colour,
        object: ObjectId,
    ) -> Result<StoreBytes, ActionError> {
        self.acquire(scope, colour, object, LockMode::Read, false)?;
        self.current_state(object)
            .ok_or(ActionError::NoSuchObject(object))
    }

    pub(crate) fn op_write_raw(
        &self,
        scope: &ActionScope<'_>,
        colour: Colour,
        object: ObjectId,
        state: StoreBytes,
    ) -> Result<(), ActionError> {
        self.acquire(scope, colour, object, LockMode::Write, false)?;
        let prior = self.current_state(object);
        self.install(scope.id(), colour, object, prior, state);
        Ok(())
    }

    /// Read-transform-write under one write-lock request: two
    /// concurrent modifiers queue on the write lock instead of both
    /// read-locking and deadlocking on the upgrade.
    pub(crate) fn op_modify_raw<R>(
        &self,
        scope: &ActionScope<'_>,
        colour: Colour,
        object: ObjectId,
        transform: impl FnOnce(&StoreBytes) -> Result<(StoreBytes, R), ActionError>,
    ) -> Result<R, ActionError> {
        self.acquire(scope, colour, object, LockMode::Write, false)?;
        let prior = self
            .current_state(object)
            .ok_or(ActionError::NoSuchObject(object))?;
        let (state, result) = transform(&prior)?;
        self.install(scope.id(), colour, object, Some(prior), state);
        Ok(result)
    }

    pub(crate) fn op_create_raw(
        &self,
        scope: &ActionScope<'_>,
        colour: Colour,
        state: StoreBytes,
    ) -> Result<ObjectId, ActionError> {
        let object = ObjectId::from_raw(self.inner.next_object.fetch_add(1, Ordering::Relaxed));
        self.acquire(scope, colour, object, LockMode::Write, false)?;
        self.install(scope.id(), colour, object, None, state);
        Ok(object)
    }

    /// Records `prior` as the before-image of a write-locked object and
    /// installs its new working state.
    fn install(
        &self,
        action: ActionId,
        colour: Colour,
        object: ObjectId,
        prior: Option<StoreBytes>,
        state: StoreBytes,
    ) {
        self.inner.undo.record_before(action, object, colour, prior);
        self.inner.obs.get().emit(EventKind::UndoRecord {
            action,
            object,
            colour,
        });
        self.inner.working(object).write().insert(object, state);
    }

    /// Takes a lock for `scope`'s action, handing the lock table the
    /// ancestor chain the scope carries.
    fn acquire(
        &self,
        scope: &ActionScope<'_>,
        colour: Colour,
        object: ObjectId,
        mode: LockMode,
        try_only: bool,
    ) -> Result<(), ActionError> {
        let inner = &self.inner;
        let action = scope.id();
        if inner.tree.state(action) != Some(ActionState::Active) {
            return Err(ActionError::NotActive(action));
        }
        if !scope.colours().contains(colour) {
            return Err(ActionError::ColourNotHeld { action, colour });
        }
        let result = if try_only {
            inner
                .locks
                .try_acquire(scope.ancestors(), action, object, colour, mode)
        } else {
            inner.locks.acquire(
                scope.ancestors(),
                action,
                object,
                colour,
                mode,
                inner.config.lock_timeout,
            )
        };
        match result {
            Ok(_) => Ok(()),
            Err(e @ LockError::DeadlockVictim { .. }) => {
                inner.stats.deadlock_victims.fetch_add(1, Ordering::Relaxed);
                Err(ActionError::Lock(e))
            }
            Err(e) => Err(ActionError::Lock(e)),
        }
    }

    pub(crate) fn current_state(&self, object: ObjectId) -> Option<StoreBytes> {
        let working = self.inner.working(object);
        if let Some(state) = working.read().get(&object) {
            return Some(state.clone());
        }
        let state = self.inner.stable.read(object)?;
        working.write().insert(object, state.clone());
        Some(state)
    }

    // ------------------------------------------------------------------
    // Introspection used by structures, tests and experiments
    // ------------------------------------------------------------------

    /// Returns the locks `action` currently holds (for tests/metrics).
    #[must_use]
    pub fn locks_of(&self, action: ActionId) -> Vec<chroma_locks::LockSnapshot> {
        self.inner.locks.locks_of(action)
    }

    /// Returns the total number of granted lock entries.
    #[must_use]
    pub fn lock_entry_count(&self) -> usize {
        self.inner.locks.entry_count()
    }

    /// Returns aggregate lock-wait statistics (how often and for how
    /// long actions blocked on locks) — the measurable cost the §3
    /// structures exist to reduce.
    #[must_use]
    pub fn lock_wait_stats(&self) -> chroma_locks::WaitStats {
        self.inner.locks.wait_stats()
    }

    /// Per-shard lock-wait statistics, indexed by shard — a skewed
    /// distribution reveals a hot object concentrating contention.
    #[must_use]
    pub fn lock_shard_wait_stats(&self) -> Vec<chroma_locks::WaitStats> {
        self.inner.locks.shard_wait_stats()
    }

    /// Every active (begun, not yet terminated) action, unordered;
    /// snapshot actions are not included.
    #[must_use]
    pub fn active_actions(&self) -> Vec<ActionId> {
        self.inner
            .tree
            .active()
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// The number of before-images the undo log holds for `action`
    /// (0 once it has terminated).
    #[must_use]
    pub fn undo_record_count(&self, action: ActionId) -> usize {
        self.inner.undo.record_count(action)
    }

    /// Actions begun but not yet terminated (includes open snapshot
    /// actions).
    #[must_use]
    pub fn live_action_count(&self) -> u64 {
        let s = self.stats();
        s.begun.saturating_sub(s.committed + s.aborted)
    }

    /// Stamped flushes since the last automatic version-chain GC sweep
    /// — how much publication traffic the next sweep will cover.
    #[must_use]
    pub fn gc_backlog(&self) -> u64 {
        self.inner.gc_tick.load(Ordering::Relaxed) % GC_EVERY
    }

    /// Publishes one live gauge snapshot: sets the gauge registry on
    /// the installed bus (no-op without one) and emits a
    /// `metrics_snapshot` event so JSONL traces carry the series for
    /// `chroma-trace watch`. The event's fields are 32 bits wide and
    /// saturate at `u32::MAX`; the named gauges keep the full reading.
    ///
    /// Gauge catalogue: `locks.entries` (granted lock entries),
    /// `locks.waiting` (parked acquirers), `store.group_queue`
    /// (batches behind the group-commit leader), `store.versions`
    /// (versions across all chains), `store.gc_backlog` (stamped
    /// flushes since the last sweep), `store.ckpt_backlog` (committed
    /// batches the background checkpointer has not yet folded),
    /// `core.snapshots` (open read-only snapshot actions),
    /// `core.live_actions` (begun − terminated).
    pub fn publish_metrics_snapshot(&self) {
        let lock_entries = self.inner.locks.entry_count() as u64;
        let lock_waiters = self.inner.locks.waiting_count() as u64;
        let group_queue = self.inner.stable.queue_depth();
        let versions = self.inner.versions.total_versions();
        let gc_backlog = self.gc_backlog();
        let ckpt_backlog = self.inner.stable.checkpoint_backlog();
        let snapshots = self.inner.snapshots.lock().len() as u64;
        let live_actions = self.live_action_count();
        let obs = self.inner.obs.get();
        obs.set_gauge("locks.entries", lock_entries);
        obs.set_gauge("locks.waiting", lock_waiters);
        obs.set_gauge("store.group_queue", group_queue);
        obs.set_gauge("store.versions", versions);
        obs.set_gauge("store.gc_backlog", gc_backlog);
        obs.set_gauge("store.ckpt_backlog", ckpt_backlog);
        obs.set_gauge("core.snapshots", snapshots);
        obs.set_gauge("core.live_actions", live_actions);
        let wire = |gauge: u64| u32::try_from(gauge).unwrap_or(u32::MAX);
        obs.emit(EventKind::MetricsSnapshot {
            lock_entries: wire(lock_entries),
            lock_waiters: wire(lock_waiters),
            group_queue: wire(group_queue),
            versions: wire(versions),
            gc_backlog: wire(gc_backlog),
            ckpt_backlog: wire(ckpt_backlog),
            snapshots: wire(snapshots),
            live_actions: wire(live_actions),
        });
    }
}

impl Observable for Runtime {
    /// Installs observability across the runtime, its lock table and
    /// its permanence backend: they start emitting lifecycle and lock
    /// events (and a disk backend its log's), and commit latency feeds
    /// the `core.commit_us`
    /// histogram. Node binding travels inside `obs` (see
    /// [`Obs::at_node`] or [`RuntimeBuilder::at_node`]).
    fn install_obs(&self, obs: Obs) {
        self.inner.obs.set(obs.clone());
        self.inner.locks.install_obs(obs.clone());
        self.inner.stable.install_obs(obs);
    }
}

/// Encodes a colour set as the bitmask traces carry (bit *i* = colour
/// index *i*).
fn colour_bits(colours: ColourSet) -> u64 {
    colours
        .iter()
        .fold(0u64, |mask, c| mask | (1u64 << c.index()))
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("stats", &self.stats())
            .field("lock_entries", &self.inner.locks.entry_count())
            .finish()
    }
}
