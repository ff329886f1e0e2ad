//! The multi-coloured action runtime.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chroma_base::{
    ActionId, Colour, ColourSet, ColourUniverse, LockError, LockMode, NodeId, ObjectId,
};
use chroma_locks::{ColouredPolicy, LockTable, DEFAULT_LOCK_SHARDS};
use chroma_obs::{EventKind, Obs, ObsCell, Observable};
use chroma_store::codec::{self, Stored};
use chroma_store::{
    GcStats, SnapshotStamps, StampClock, StoreBytes, VersionChains, VisibleVersion, VolatileStore,
};
use parking_lot::Mutex;

use crate::backend::{LocalBackend, PermanenceBackend};
use crate::error::ActionError;
use crate::scope::ActionScope;
use crate::snapshot::SnapshotScope;
use crate::tree::{ActionState, ActionTree};
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
    volatile: VolatileStore,
    stable: Arc<dyn PermanenceBackend>,
    undo: UndoLog,
    next_action: AtomicU64,
    next_object: AtomicU64,
    config: RuntimeConfig,
    stats: StatCounters,
    obs: ObsCell,
    /// Per-object version chains feeding read-only snapshot actions.
    versions: VersionChains,
    /// Allocates and publishes the per-colour commit stamps snapshots
    /// capture.
    stamps: StampClock,
    /// Live read-only snapshots: id → the stamp vector captured at
    /// open. Capture happens *inside* this lock (both here and in
    /// [`Runtime::version_gc`]) so GC can never miss a
    /// concurrently-opening snapshot with an older capture than its
    /// own.
    snapshots: Mutex<HashMap<ActionId, Arc<SnapshotStamps>>>,
    /// Stamped outermost flushes since boot; drives automatic GC.
    gc_tick: AtomicU64,
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
/// config, a fresh [`LocalBackend`], no tracing,
/// [`DEFAULT_LOCK_SHARDS`] lock shards, no node binding).
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
///     .lock_shards(8)
///     .build();
/// assert_eq!(rt.lock_shard_count(), 8);
/// ```
#[derive(Default)]
pub struct RuntimeBuilder {
    config: RuntimeConfig,
    backend: Option<Arc<dyn PermanenceBackend>>,
    obs: Option<Obs>,
    node: Option<NodeId>,
    lock_shards: Option<usize>,
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

    /// Sets the lock-table shard count (clamped to a power of two in
    /// `1..=64`; defaults to [`DEFAULT_LOCK_SHARDS`]). More shards let
    /// more disjoint-object acquisitions proceed in parallel.
    #[must_use]
    pub fn lock_shards(mut self, shards: usize) -> Self {
        self.lock_shards = Some(shards);
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
                tree: ActionTree::new(),
                locks: LockTable::with_shards(
                    ColouredPolicy,
                    self.lock_shards.unwrap_or(DEFAULT_LOCK_SHARDS),
                ),
                volatile: VolatileStore::new(),
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
                gc_tick: AtomicU64::new(0),
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
        self.inner.volatile.contains(object) || self.inner.stable.contains(object)
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
        self.begin(None, colours)
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
        self.begin(Some(parent), colours)
    }

    fn begin(&self, parent: Option<ActionId>, colours: ColourSet) -> Result<ActionId, ActionError> {
        if colours.is_empty() {
            return Err(ActionError::NoColours);
        }
        if let Some(parent) = parent {
            if !self.inner.tree.is_active(parent) {
                return Err(ActionError::ParentNotActive(parent));
            }
        }
        let id = ActionId::from_raw(self.inner.next_action.fetch_add(1, Ordering::Relaxed));
        self.inner.tree.insert(id, parent, colours);
        self.inner.stats.begun.fetch_add(1, Ordering::Relaxed);
        self.inner.obs.get().emit(EventKind::ActionBegin {
            action: id,
            parent,
            colours: colour_bits(colours),
        });
        Ok(id)
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
        let colours = self
            .inner
            .tree
            .colours(action)
            .filter(|_| self.inner.tree.is_active(action))
            .ok_or(ActionError::NotActive(action))?;
        let default_colour = colours.iter().next().expect("non-empty colour set");
        Ok(ActionScope::new(self, action, colours, default_colour))
    }

    /// Commits an action.
    ///
    /// For each colour the action possesses: if a (closest) ancestor
    /// possesses the colour, locks and before-images pass to it;
    /// otherwise the action is outermost for the colour, the colour's
    /// updates are flushed atomically to stable storage and its locks
    /// released.
    ///
    /// # Errors
    ///
    /// [`ActionError::NotActive`] if the action is not active;
    /// [`ActionError::ChildrenActive`] if a child is still active;
    /// [`ActionError::ParentNotActive`] if the inheritance target
    /// vanished (runtime misuse).
    pub fn commit(&self, action: ActionId) -> Result<(), ActionError> {
        let inner = &self.inner;
        let obs = inner.obs.get();
        let started = obs.enabled().then(Instant::now);
        if !inner.tree.is_active(action) {
            return Err(ActionError::NotActive(action));
        }
        if !inner.tree.active_children(action).is_empty() {
            return Err(ActionError::ChildrenActive(action));
        }
        if let Some(parent) = inner.tree.parent(action) {
            if !inner.tree.is_active(parent) {
                return Err(ActionError::ParentNotActive(parent));
            }
        }
        let colours = inner
            .tree
            .colours(action)
            .ok_or(ActionError::NotActive(action))?;
        let mut stamped = false;
        for colour in colours {
            match inner.tree.closest_ancestor_with_colour(action, colour) {
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
                            inner.volatile.read(*object).map(|state| (*object, state))
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
                            return Err(ActionError::Backend(e));
                        }
                        // Publish the new states as versions under the
                        // colour's stamp gate: same-colour stamps enter
                        // chains in order, so a snapshot capturing
                        // frontier `s` is guaranteed every version
                        // `<= s` is already appended.
                        let gate = inner.stamps.publish_guard(colour);
                        let stamp = inner.stamps.allocate();
                        for (object, state) in &updates {
                            inner.versions.append(*object, colour, stamp, state.clone());
                            obs.emit(EventKind::VersionPublish {
                                object: *object,
                                colour,
                                stamp,
                            });
                        }
                        inner.stamps.publish(colour, stamp);
                        drop(gate);
                        stamped = true;
                    }
                    inner.locks.release_colour(action, colour);
                    if let Some(flush_started) = flush_started {
                        obs.observe(
                            &format!("core.commit_us.{}", inner.universe.name(colour)),
                            u64::try_from(flush_started.elapsed().as_micros()).unwrap_or(u64::MAX),
                        );
                    }
                }
            }
        }
        inner.tree.set_state(action, ActionState::Committed);
        // Drop the lock table's per-action bookkeeping (shard index,
        // any pending interrupt) now that the action is terminated.
        inner.locks.retire_action(action);
        inner.stats.committed.fetch_add(1, Ordering::Relaxed);
        obs.emit(EventKind::ActionCommit { action });
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

    /// Aborts an action: active children are aborted first (deepest
    /// first), every before-image is restored, every lock discarded.
    ///
    /// Aborting a non-active (or unknown) action is a no-op, so abort is
    /// always safe to call in cleanup paths.
    pub fn abort(&self, action: ActionId) {
        let inner = &self.inner;
        if !inner.tree.is_active(action) {
            return;
        }
        for child in inner.tree.active_children(action) {
            self.abort(child);
        }
        inner.tree.set_state(action, ActionState::Aborted);
        // Restore before-images while still holding the locks, so no
        // other action observes a half-restored state (strictness).
        for (object, _colour, image) in inner.undo.take_all(action) {
            match image {
                Some(state) => {
                    inner.volatile.write(object, state);
                }
                None => {
                    inner.volatile.remove(object);
                }
            }
        }
        inner.locks.discard_action(action);
        // If the action's thread is parked in a lock wait, wake it.
        inner.locks.cancel_waiter(action);
        inner.stats.aborted.fetch_add(1, Ordering::Relaxed);
        inner.obs.get().emit(EventKind::ActionAbort { action });
    }

    /// Returns the lifecycle state of an action, if known.
    #[must_use]
    pub fn action_state(&self, action: ActionId) -> Option<crate::tree::ActionState> {
        self.inner.tree.state(action)
    }

    /// Returns the colour set of an action, if known.
    #[must_use]
    pub fn action_colours(&self, action: ActionId) -> Option<ColourSet> {
        self.inner.tree.colours(action)
    }

    /// Returns the parent of an action (`None` for top-level or
    /// unknown actions).
    #[must_use]
    pub fn action_parent(&self, action: ActionId) -> Option<ActionId> {
        self.inner.tree.parent(action)
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
        let id = self.begin_top(colours)?;
        self.run_body(id, colours, default_colour, body)
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
        let id = self.begin_nested(parent, colours)?;
        self.run_body(id, colours, default_colour, body)
    }

    fn run_body<R>(
        &self,
        id: ActionId,
        colours: ColourSet,
        default_colour: Colour,
        body: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        let mut scope = ActionScope::new(self, id, colours, default_colour);
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
    /// volatile store and undo log are wiped, and the stable store runs
    /// its recovery protocol.
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
        // Deepest-first, so every child's abort is recorded before its
        // parent's — the trace auditor's causal rule (R8) requires each
        // span to close inside its parent even on the crash path.
        let mut killed: Vec<ActionId> = Vec::new();
        loop {
            let active = inner.tree.active_actions();
            let mut remaining: Vec<ActionId> =
                active.into_iter().filter(|a| !killed.contains(a)).collect();
            if remaining.is_empty() {
                break;
            }
            remaining.sort_by_key(|&a| {
                let mut depth = 0u32;
                let mut cursor = a;
                while let Some(parent) = inner.tree.parent(cursor) {
                    depth += 1;
                    cursor = parent;
                }
                std::cmp::Reverse(depth)
            });
            for action in remaining {
                inner.tree.set_state(action, ActionState::Aborted);
                inner.locks.discard_action(action);
                inner.locks.cancel_waiter(action);
                inner.stats.aborted.fetch_add(1, Ordering::Relaxed);
                obs.emit(EventKind::ActionAbort { action });
                killed.push(action);
            }
        }
        inner.undo.clear();
        inner.volatile.crash();
        // Version chains are volatile too; recovery rebuilds bases
        // lazily from stable storage. The stamp clock itself survives
        // (stamps are never reused, the published frontier only
        // advances), so post-recovery snapshots stay sound.
        inner.versions.crash();
        // Open snapshots die with the node: later reads through a
        // stale scope fail `NotActive`.
        let mut dead: Vec<ActionId> = inner.snapshots.lock().drain().map(|(id, _)| id).collect();
        dead.sort_unstable();
        for id in dead {
            inner.locks.unmark_lockless(id);
            inner.stats.aborted.fetch_add(1, Ordering::Relaxed);
            obs.emit(EventKind::ActionAbort { action: id });
        }
        inner.stable.recover();
        obs.emit(EventKind::NodeRecover { node });
    }

    /// Drops bookkeeping for terminated actions with no live
    /// descendants, bounding memory in long-running systems. Returns
    /// how many were pruned.
    pub fn prune_terminated(&self) -> usize {
        self.inner.tree.prune_terminated()
    }

    // ------------------------------------------------------------------
    // Read-only snapshot actions
    // ------------------------------------------------------------------

    /// Opens a declared read-only action: captures the published
    /// per-colour commit frontier and returns a [`SnapshotScope`] whose
    /// reads all observe that one consistent snapshot. Snapshot reads
    /// are served from version chains and never touch the lock table,
    /// so a read-only action can neither block a writer nor deadlock.
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
        // than a snapshot it did not see registered.
        let stamps = {
            let mut registry = inner.snapshots.lock();
            let stamps = Arc::new(inner.stamps.capture());
            registry.insert(id, Arc::clone(&stamps));
            stamps
        };
        inner.locks.mark_lockless(id);
        inner.stats.begun.fetch_add(1, Ordering::Relaxed);
        let obs = inner.obs.get();
        obs.emit(EventKind::ActionBegin {
            action: id,
            parent: None,
            colours: 0,
        });
        let captured = stamps.nonzero();
        if captured.is_empty() {
            // Nothing published yet: record the open with the base
            // stamp so the trace still marks this action as a snapshot
            // reader (auditor rule R10b).
            obs.emit(EventKind::SnapshotOpen {
                action: id,
                colour: Colour::from_index(0),
                stamp: 0,
            });
        } else {
            for (colour, stamp) in captured {
                obs.emit(EventKind::SnapshotOpen {
                    action: id,
                    colour,
                    stamp,
                });
            }
        }
        SnapshotScope::new(self, id, stamps)
    }

    /// Ends a read-only snapshot action (idempotent; called by
    /// [`SnapshotScope`] on end/drop). A scope already killed by a
    /// crash is a no-op — its abort was recorded then.
    pub(crate) fn end_read_only(&self, action: ActionId) {
        let inner = &self.inner;
        if inner.snapshots.lock().remove(&action).is_some() {
            inner.locks.unmark_lockless(action);
            inner.stats.committed.fetch_add(1, Ordering::Relaxed);
            inner.obs.get().emit(EventKind::ActionCommit { action });
        }
    }

    /// Serves one snapshot read: the newest version of `object` visible
    /// at the snapshot's captured stamps, falling back to stable
    /// storage for objects with no version chain.
    pub(crate) fn op_snapshot_read(
        &self,
        action: ActionId,
        object: ObjectId,
    ) -> Result<StoreBytes, ActionError> {
        let inner = &self.inner;
        let stamps = inner
            .snapshots
            .lock()
            .get(&action)
            .cloned()
            .ok_or(ActionError::NotActive(action))?;
        let obs = inner.obs.get();
        let mut rechecked = false;
        loop {
            match inner.versions.read_visible(object, &stamps) {
                VisibleVersion::Version {
                    colour,
                    stamp,
                    state,
                } => {
                    if obs.enabled() {
                        obs.emit(EventKind::SnapshotRead {
                            action,
                            object,
                            colour,
                            stamp,
                        });
                        obs.observe(
                            "core.snapshot_lag",
                            inner.stamps.current().saturating_sub(stamp),
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
        // everything it can need.
        let live: Vec<SnapshotStamps> = {
            let registry = inner.snapshots.lock();
            let mut live: Vec<SnapshotStamps> = registry.values().map(|s| (**s).clone()).collect();
            live.push(inner.stamps.capture());
            live
        };
        let stats = inner.versions.collect(&live);
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

    /// The newest commit stamp allocated so far (0 before any stamped
    /// flush).
    #[must_use]
    pub fn current_stamp(&self) -> u64 {
        self.inner.stamps.current()
    }

    // ------------------------------------------------------------------
    // Operations (called through `ActionScope`)
    // ------------------------------------------------------------------

    pub(crate) fn op_lock(
        &self,
        action: ActionId,
        colour: Colour,
        object: ObjectId,
        mode: LockMode,
    ) -> Result<(), ActionError> {
        self.acquire(action, colour, object, mode, false)
    }

    pub(crate) fn op_try_lock(
        &self,
        action: ActionId,
        colour: Colour,
        object: ObjectId,
        mode: LockMode,
    ) -> Result<(), ActionError> {
        self.acquire(action, colour, object, mode, true)
    }

    pub(crate) fn op_read_raw(
        &self,
        action: ActionId,
        colour: Colour,
        object: ObjectId,
    ) -> Result<StoreBytes, ActionError> {
        self.acquire(action, colour, object, LockMode::Read, false)?;
        self.current_state(object)
            .ok_or(ActionError::NoSuchObject(object))
    }

    pub(crate) fn op_write_raw(
        &self,
        action: ActionId,
        colour: Colour,
        object: ObjectId,
        state: StoreBytes,
    ) -> Result<(), ActionError> {
        self.acquire(action, colour, object, LockMode::Write, false)?;
        let prior = self.current_state(object);
        self.install(action, colour, object, prior, state);
        Ok(())
    }

    /// Read-transform-write under one write-lock request: two
    /// concurrent modifiers queue on the write lock instead of both
    /// read-locking and deadlocking on the upgrade.
    pub(crate) fn op_modify_raw<R>(
        &self,
        action: ActionId,
        colour: Colour,
        object: ObjectId,
        transform: impl FnOnce(&StoreBytes) -> Result<(StoreBytes, R), ActionError>,
    ) -> Result<R, ActionError> {
        self.acquire(action, colour, object, LockMode::Write, false)?;
        let prior = self
            .current_state(object)
            .ok_or(ActionError::NoSuchObject(object))?;
        let (state, result) = transform(&prior)?;
        self.install(action, colour, object, Some(prior), state);
        Ok(result)
    }

    pub(crate) fn op_create_raw(
        &self,
        action: ActionId,
        colour: Colour,
        state: StoreBytes,
    ) -> Result<ObjectId, ActionError> {
        let object = ObjectId::from_raw(self.inner.next_object.fetch_add(1, Ordering::Relaxed));
        self.acquire(action, colour, object, LockMode::Write, false)?;
        self.install(action, colour, object, None, state);
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
        self.inner.volatile.write(object, state);
    }

    fn acquire(
        &self,
        action: ActionId,
        colour: Colour,
        object: ObjectId,
        mode: LockMode,
        try_only: bool,
    ) -> Result<(), ActionError> {
        let inner = &self.inner;
        if !inner.tree.is_active(action) {
            return Err(ActionError::NotActive(action));
        }
        let colours = inner
            .tree
            .colours(action)
            .ok_or(ActionError::NotActive(action))?;
        if !colours.contains(colour) {
            return Err(ActionError::ColourNotHeld { action, colour });
        }
        let result = if try_only {
            inner
                .locks
                .try_acquire(&inner.tree, action, object, colour, mode)
        } else {
            inner.locks.acquire(
                &inner.tree,
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
        if let Some(state) = self.inner.volatile.read(object) {
            return Some(state);
        }
        let state = self.inner.stable.read(object)?;
        self.inner.volatile.write(object, state.clone());
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

    /// Returns the holders of `object` (for tests/metrics).
    #[must_use]
    pub fn holders_of(&self, object: ObjectId) -> Vec<chroma_locks::LockEntry> {
        self.inner.locks.holders(object)
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

    /// The number of shards the lock table was built with (see
    /// [`RuntimeBuilder::lock_shards`]).
    #[must_use]
    pub fn lock_shard_count(&self) -> usize {
        self.inner.locks.shard_count()
    }

    /// Per-shard lock-wait statistics, indexed by shard — a skewed
    /// distribution reveals a hot object concentrating contention.
    #[must_use]
    pub fn lock_shard_wait_stats(&self) -> Vec<chroma_locks::WaitStats> {
        self.inner.locks.shard_wait_stats()
    }

    /// Actions currently parked waiting for a lock (instantaneous
    /// wait-queue depth across shards).
    #[must_use]
    pub fn lock_waiting_count(&self) -> usize {
        self.inner.locks.waiting_count()
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
    /// `chroma-trace watch`.
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
        obs.emit(EventKind::MetricsSnapshot {
            lock_entries,
            lock_waiters,
            group_queue,
            versions,
            gc_backlog,
            ckpt_backlog,
            snapshots,
            live_actions,
        });
    }
}

impl Observable for Runtime {
    /// Installs observability across the runtime, its lock table and
    /// its permanence backend: they start emitting lifecycle, lock and
    /// WAL events, and commit latency feeds the `core.commit_us`
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
