//! The lock table: granted locks, blocked waiters, inheritance.
//!
//! # Sharding
//!
//! The table is partitioned into 16 **shards** keyed by [`ObjectId`]
//! hash. Each shard owns its slice of the granted lock entries behind
//! its own mutex and condvar, so acquisitions on disjoint objects never
//! contend on a shared lock — the grant fast path touches exactly one
//! shard.
//!
//! Cross-object state is kept out of the fast path:
//!
//! * the **waits-for graph** (deadlock detection over lock waits)
//!   lives in a single registry that is only locked once a request has
//!   already conflicted and is about to park — a path that is orders of
//!   magnitude colder than a grant;
//! * a **striped per-action index** remembers, as a bitmask, which
//!   shards an action may hold locks in. Multi-object operations
//!   ([`release_colour`](LockTable::release_colour),
//!   [`inherit_colour`](LockTable::inherit_colour),
//!   [`discard_action`](LockTable::discard_action),
//!   [`locks_of`](LockTable::locks_of)) walk only those shards, in
//!   ascending index order, taking one shard lock at a time. The mask
//!   is maintained as a superset (bits are set *before* an entry can
//!   appear, and only dropped when the action terminates), so a walk
//!   can at worst visit a shard and find nothing.
//!
//! Interrupt delivery (deadlock victims, cancelled waiters) is stored
//! in the shard the victim is parked on, under the same mutex as its
//! condvar, so a wake-up can never be lost. Lock ordering is strictly
//! `shard → registry`, never the reverse, and no two shard locks are
//! ever held at once.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use chroma_base::{
    shard_of, ActionId, Colour, IdHashMap, LockError, LockMode, ObjectId, Sharded, SHARDS,
};
use chroma_obs::{EventKind, Obs, ObsCell, Observable};
use parking_lot::{Condvar, Mutex};

use crate::ancestry::{is_ancestor_or_self, Ancestry};
use crate::deadlock::WaitForGraph;
use crate::entry::{LockEntry, LockSnapshot};
use crate::policy::LockPolicy;

// The per-action index is a 64-bit shard bitmask.
const _: () = assert!(SHARDS <= 64);

/// How an acquisition request concluded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AcquireOutcome {
    /// A new lock entry was created for the requester.
    Granted,
    /// The requester already held the lock in a covering mode; nothing
    /// changed.
    AlreadyHeld,
    /// The requester held the lock in a weaker mode and it was
    /// strengthened in place (for example read → write conversion).
    Upgraded,
}

/// One stripe of the per-action index: action → shard bitmask.
type Stripe = Mutex<IdHashMap<ActionId, u64>>;

#[derive(Default)]
struct ShardState {
    objects: HashMap<ObjectId, Vec<LockEntry>>,
    /// Waiters parked on this shard that must give up with the recorded
    /// error next time they observe the state (deadlock victims,
    /// externally cancelled actions). Guarded by the same mutex as the
    /// shard's condvar so an interrupt can never race a park.
    interrupts: HashMap<ActionId, Interrupt>,
    /// Actions currently inside a blocking [`LockTable::acquire`] on an
    /// object of this shard. [`LockTable::cancel_waiter`] only
    /// interrupts these: an interrupt posted for an action that never
    /// waits again would leak forever and poison a later reuse of the
    /// same `ActionId`.
    waiting: HashSet<ActionId>,
}

struct Shard {
    state: Mutex<ShardState>,
    changed: Condvar,
    waits_started: AtomicU64,
    wait_micros: AtomicU64,
    /// This shard's wait histogram, `locks.wait_us.shard<index>`.
    wait_metric: String,
}

impl Shard {
    fn new(index: usize) -> Self {
        Shard {
            state: Mutex::new(ShardState::default()),
            changed: Condvar::new(),
            waits_started: AtomicU64::new(0),
            wait_micros: AtomicU64::new(0),
            wait_metric: format!("locks.wait_us.shard{index}"),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Interrupt {
    DeadlockVictim,
    Cancelled,
}

impl Interrupt {
    fn into_error(self, action: ActionId, object: ObjectId) -> LockError {
        match self {
            Interrupt::DeadlockVictim => LockError::DeadlockVictim { object },
            Interrupt::Cancelled => LockError::ActionNotActive { action },
        }
    }
}

/// A table of object locks shared by every action of one runtime (or one
/// node, in the distributed setting).
///
/// The table is parametric in its [`LockPolicy`]: instantiate it with
/// [`ColouredPolicy`](crate::ColouredPolicy) for a multi-coloured system
/// or [`ClassicPolicy`](crate::ClassicPolicy) for the conventional
/// nested-action baseline. Everything else — waiting, wake-ups, deadlock
/// detection, per-colour inheritance and release — is rule-set
/// independent, mirroring the paper's observation that colours require
/// only "minor modifications to the conventional rules".
///
/// Internally the table is sharded by object hash (see the module docs);
/// acquisitions on disjoint objects proceed fully in parallel.
///
/// Blocking acquisition parks the calling thread until the request can be
/// granted, the optional timeout expires, the waiter is chosen as a
/// deadlock victim, or the action is cancelled from another thread.
///
/// # Examples
///
/// ```
/// use chroma_base::{ActionId, Colour, LockMode, ObjectId};
/// use chroma_locks::{AcquireOutcome, ColouredPolicy, FlatAncestry, LockTable};
///
/// let table = LockTable::new(ColouredPolicy);
/// let ctx = FlatAncestry::new();
/// let (red, a, o) = (
///     Colour::from_index(0),
///     ActionId::from_raw(1),
///     ObjectId::from_raw(1),
/// );
/// assert_eq!(
///     table.try_acquire(&ctx, a, o, red, LockMode::Read)?,
///     AcquireOutcome::Granted
/// );
/// assert_eq!(
///     table.try_acquire(&ctx, a, o, red, LockMode::Write)?,
///     AcquireOutcome::Upgraded
/// );
/// # Ok::<(), chroma_base::LockError>(())
/// ```
pub struct LockTable<P> {
    policy: P,
    shards: Sharded<Shard>,
    /// Waits-for graph for deadlock detection; only locked on the
    /// conflict path. Lock order: a shard lock may be held while taking
    /// this, never the reverse.
    graph: Mutex<WaitForGraph>,
    /// Striped `action → shard bitmask` index: which shards an action
    /// may hold locks in (a superset; see module docs).
    action_index: Sharded<Stripe>,
    /// Outstanding planted interrupts across all shards, so the common
    /// no-interrupt case of [`clear_interrupt`](LockTable::clear_interrupt)
    /// and [`retire_action`](LockTable::retire_action) is one atomic load.
    interrupts_outstanding: AtomicU64,
    /// Actions currently registered as blocking waiters, so
    /// [`cancel_waiter`](LockTable::cancel_waiter) can skip the shard
    /// walk when nothing waits.
    waiters_registered: AtomicU64,
    /// The one observability handle, read without a lock.
    obs: ObsCell,
}

/// Aggregate waiting statistics of a [`LockTable`], from
/// [`LockTable::wait_stats`] (whole table) or
/// [`LockTable::shard_wait_stats`] (per shard).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Blocking acquisitions that had to park at least once.
    pub waits: u64,
    /// Total parked time across all waits, in microseconds.
    pub total_wait_micros: u64,
}

impl WaitStats {
    /// Mean parked time per wait, in microseconds (0 if no waits).
    #[must_use]
    pub fn mean_wait_micros(&self) -> f64 {
        if self.waits == 0 {
            0.0
        } else {
            self.total_wait_micros as f64 / self.waits as f64
        }
    }
}

impl<P> LockTable<P> {
    /// Creates an empty table using `policy` for grant decisions.
    #[must_use]
    pub fn new(policy: P) -> Self {
        LockTable {
            policy,
            shards: Sharded::new(Shard::new),
            graph: Mutex::new(WaitForGraph::new()),
            action_index: Sharded::default(),
            interrupts_outstanding: AtomicU64::new(0),
            waiters_registered: AtomicU64::new(0),
            obs: ObsCell::new(),
        }
    }

    /// The number of shards (a power of two).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        SHARDS
    }

    /// The shard index an object's locks live in. Exposed so tests and
    /// benchmarks can construct cross-shard or same-shard workloads
    /// deterministically.
    #[must_use]
    pub fn shard_of(&self, object: ObjectId) -> usize {
        shard_of(object.as_raw())
    }

    fn stripe(&self, action: ActionId) -> &Stripe {
        self.action_index.of(action.as_raw())
    }

    /// Marks `shard` as possibly holding locks of `action` (called
    /// *before* any entry becomes visible, keeping the mask a superset).
    fn note_holding(&self, action: ActionId, shard: usize) {
        let mut stripe = self.stripe(action).lock();
        *stripe.entry(action).or_insert(0) |= 1u64 << shard;
    }

    fn or_mask(&self, action: ActionId, bits: u64) {
        if bits != 0 {
            let mut stripe = self.stripe(action).lock();
            *stripe.entry(action).or_insert(0) |= bits;
        }
    }

    fn mask_of(&self, action: ActionId) -> u64 {
        self.stripe(action)
            .lock()
            .get(&action)
            .copied()
            .unwrap_or(0)
    }

    fn take_mask(&self, action: ActionId) -> u64 {
        self.stripe(action).lock().remove(&action).unwrap_or(0)
    }

    /// Iterates the shard indices set in `mask`, in ascending order —
    /// the fixed walk order of every multi-shard operation.
    fn mask_shards(mask: u64) -> impl Iterator<Item = usize> {
        (0..64usize).filter(move |i| mask & (1u64 << i) != 0)
    }

    /// Number of planted-but-unconsumed interrupts (deadlock victims and
    /// cancellations still awaiting delivery). Exposed for metrics and
    /// for the interrupt-leak regression tests.
    #[must_use]
    pub fn interrupts_outstanding(&self) -> u64 {
        self.interrupts_outstanding.load(Ordering::Relaxed)
    }

    /// Returns aggregate waiting statistics (how often and how long
    /// blocking acquisitions parked) — the raw data behind the lock
    /// availability experiments. The sum of
    /// [`shard_wait_stats`](LockTable::shard_wait_stats).
    #[must_use]
    pub fn wait_stats(&self) -> WaitStats {
        let shards = self.shard_wait_stats();
        WaitStats {
            waits: shards.iter().map(|s| s.waits).sum(),
            total_wait_micros: shards.iter().map(|s| s.total_wait_micros).sum(),
        }
    }

    /// Per-shard waiting statistics, indexed by shard. A heavily skewed
    /// distribution means a hot object (or an unlucky hash) is
    /// concentrating contention on one shard.
    #[must_use]
    pub fn shard_wait_stats(&self) -> Vec<WaitStats> {
        self.shards
            .iter()
            .map(|s| WaitStats {
                waits: s.waits_started.load(Ordering::Relaxed),
                total_wait_micros: s.wait_micros.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Plants `interrupt` for `victim` in whichever shard it is parked
    /// on and wakes it. A no-op if the victim is not currently waiting
    /// (it may have been granted or given up since the cycle was
    /// observed), so interrupts can never leak onto reused ids.
    ///
    /// Must be called with no shard lock held.
    fn plant_interrupt(&self, victim: ActionId, interrupt: Interrupt) {
        for shard in self.shards.iter() {
            let mut state = shard.state.lock();
            if state.waiting.contains(&victim) {
                if state.interrupts.insert(victim, interrupt).is_none() {
                    self.interrupts_outstanding.fetch_add(1, Ordering::Relaxed);
                }
                shard.changed.notify_all();
                return;
            }
        }
    }

    fn consume_interrupt(&self, state: &mut ShardState, action: ActionId) -> Option<Interrupt> {
        let interrupt = state.interrupts.remove(&action)?;
        self.interrupts_outstanding.fetch_sub(1, Ordering::Relaxed);
        Some(interrupt)
    }
}

impl<P> Observable for LockTable<P> {
    /// Installs an observability handle; subsequent lock traffic emits
    /// `LockGrant`/`LockConflict`/`LockInherit`/`LockRelease` events
    /// and feeds the `locks.wait_us`, `locks.wait_us.shard<k>` and
    /// `locks.shard_contention` histograms. The table keeps one
    /// handle, which every shard reads without a lock. A request emits
    /// only its decision: one `LockGrant`, or one `LockConflict` at its
    /// first failed check (then a `LockGrant` if a waiter wins). Grants,
    /// inherits and releases go out after the shard lock is released,
    /// so a drain those emits start never runs inside the shard's
    /// critical section; only a waiter's one `LockConflict` is emitted
    /// under the shard lock.
    fn install_obs(&self, obs: Obs) {
        self.obs.set(obs);
    }
}

impl<P: LockPolicy> LockTable<P> {
    /// Attempts to acquire a lock without waiting. `ancestry` supplies
    /// the requester's ancestor chain, asked once.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::Denied`] with the blocking reason if the
    /// request cannot be granted immediately.
    pub fn try_acquire(
        &self,
        ancestry: &dyn Ancestry,
        action: ActionId,
        object: ObjectId,
        colour: Colour,
        mode: LockMode,
    ) -> Result<AcquireOutcome, LockError> {
        let chain = ancestry.chain(action);
        let shard_idx = self.shard_of(object);
        // Superset invariant: the mask bit is set before the entry can
        // exist (a spurious bit on a denied request is harmless).
        self.note_holding(action, shard_idx);
        let obs = self.obs.get();
        let mut state = self.shards.at(shard_idx).state.lock();
        let result = match self.check_and_apply(&mut state, &chain, action, object, colour, mode) {
            Ok(outcome) => Ok(outcome),
            Err(reason) => Err(LockError::Denied { object, reason }),
        };
        drop(state);
        if obs.enabled() {
            obs.emit(match result {
                Ok(_) => EventKind::LockGrant {
                    action,
                    object,
                    colour,
                    mode,
                },
                Err(_) => EventKind::LockConflict {
                    action,
                    object,
                    colour,
                    mode,
                },
            });
        }
        result
    }

    /// Acquires a lock, waiting if necessary. `ancestry` supplies the
    /// requester's ancestor chain, asked once; a parked request keeps it
    /// in its wait entry for the deadlock search.
    ///
    /// `timeout` bounds the total wait; `None` waits indefinitely (the
    /// deadlock detector still guarantees progress among waiters it can
    /// see).
    ///
    /// # Errors
    ///
    /// * [`LockError::DeadlockVictim`] — the waiter was selected to break
    ///   a wait-for cycle and should abort its action;
    /// * [`LockError::Timeout`] — the deadline passed;
    /// * [`LockError::ActionNotActive`] — the action was cancelled via
    ///   [`LockTable::cancel_waiter`] while waiting.
    pub fn acquire(
        &self,
        ancestry: &dyn Ancestry,
        action: ActionId,
        object: ObjectId,
        colour: Colour,
        mode: LockMode,
        timeout: Option<Duration>,
    ) -> Result<AcquireOutcome, LockError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let chain = ancestry.chain(action);
        let shard_idx = self.shard_of(object);
        let shard = self.shards.at(shard_idx);
        self.note_holding(action, shard_idx);
        let obs = self.obs.get();
        let mut state = shard.state.lock();
        let mut registered: Vec<ActionId> = Vec::new();
        // Victims this waiter already flagged, so re-observing the same
        // (still unwinding) cycle after a wake-up does not replant.
        let mut victimised: HashSet<ActionId> = HashSet::new();
        let mut parked_since: Option<Instant> = None;
        let mut conflict_emitted = false;
        let result = loop {
            if let Some(interrupt) = self.consume_interrupt(&mut state, action) {
                break Err(interrupt.into_error(action, object));
            }
            match self.check_and_apply(&mut state, &chain, action, object, colour, mode) {
                Ok(outcome) => break Ok(outcome),
                Err(_reason) => {
                    // Join the shard's wait set only once a conflict is
                    // real: an immediately granted acquire never takes
                    // the shared-counter hit, while every action that
                    // is about to publish wait-for edges is registered
                    // first, so a concurrent victim selection can
                    // always plant its interrupt.
                    if state.waiting.insert(action) {
                        self.waiters_registered.fetch_add(1, Ordering::Relaxed);
                    }
                    if obs.enabled() && !conflict_emitted {
                        conflict_emitted = true;
                        obs.emit(EventKind::LockConflict {
                            action,
                            object,
                            colour,
                            mode,
                        });
                    }
                    // Refresh the wait-for edges to the current
                    // blockers; detection runs in the shared graph
                    // (shard → graph lock order).
                    let blockers = Self::blockers(&state, &chain, action, object, colour, mode);
                    let mut victim_is_self = false;
                    let mut remote_victims: Vec<ActionId> = Vec::new();
                    {
                        let mut graph = self.graph.lock();
                        for &old in &registered {
                            graph.remove_wait(action, old);
                        }
                        registered.clear();
                        for blocker in blockers {
                            registered.push(blocker);
                            if let Some(report) = graph.add_wait(action, blocker, &chain) {
                                if report.victim == action {
                                    victim_is_self = true;
                                } else if victimised.insert(report.victim) {
                                    remote_victims.push(report.victim);
                                }
                            }
                        }
                    }
                    if victim_is_self {
                        break Err(LockError::DeadlockVictim { object });
                    }
                    if !remote_victims.is_empty() {
                        // The victims may be parked on other shards;
                        // planting locks those shards, so release ours
                        // first (never two shard locks at once) and
                        // re-evaluate from the top afterwards.
                        drop(state);
                        for victim in remote_victims {
                            self.plant_interrupt(victim, Interrupt::DeadlockVictim);
                        }
                        state = shard.state.lock();
                        continue;
                    }
                    if parked_since.is_none() {
                        parked_since = Some(Instant::now());
                        shard.waits_started.fetch_add(1, Ordering::Relaxed);
                    }
                    let timed_out = match deadline {
                        Some(deadline) => {
                            let now = Instant::now();
                            if now >= deadline {
                                true
                            } else {
                                shard
                                    .changed
                                    .wait_for(&mut state, deadline - now)
                                    .timed_out()
                            }
                        }
                        None => {
                            shard.changed.wait(&mut state);
                            false
                        }
                    };
                    if timed_out {
                        // One final check before giving up: a grant or
                        // interrupt that raced the deadline (the lock
                        // was released, or we were victimised, just as
                        // the wait expired) must not be dropped on the
                        // floor.
                        if let Some(interrupt) = self.consume_interrupt(&mut state, action) {
                            break Err(interrupt.into_error(action, object));
                        }
                        if let Ok(outcome) =
                            self.check_and_apply(&mut state, &chain, action, object, colour, mode)
                        {
                            break Ok(outcome);
                        }
                        break Err(LockError::Timeout { object });
                    }
                }
            }
        };
        if state.waiting.remove(&action) {
            self.waiters_registered.fetch_sub(1, Ordering::Relaxed);
        }
        if !registered.is_empty() {
            let mut graph = self.graph.lock();
            for &old in &registered {
                graph.remove_wait(action, old);
            }
        }
        drop(state);
        if let Some(since) = parked_since {
            let waited = u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX);
            shard.wait_micros.fetch_add(waited, Ordering::Relaxed);
            if obs.enabled() {
                obs.observe("locks.wait_us", waited);
                obs.observe(&shard.wait_metric, waited);
                obs.observe("locks.shard_contention", shard_idx as u64);
            }
        }
        if obs.enabled() && result.is_ok() {
            obs.emit(EventKind::LockGrant {
                action,
                object,
                colour,
                mode,
            });
        }
        result
    }

    /// Makes an in-progress wait by `action` fail with
    /// [`LockError::ActionNotActive`]. Used when an action is aborted
    /// from another thread.
    ///
    /// If the action is not currently blocked in
    /// [`LockTable::acquire`] this is a no-op: nothing would ever
    /// consume the interrupt, so posting one would leak it and poison
    /// a later reuse of the same `ActionId`.
    pub fn cancel_waiter(&self, action: ActionId) {
        if self.waiters_registered.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.plant_interrupt(action, Interrupt::Cancelled);
    }

    /// Discards a pending interrupt for `action`, if any (the action
    /// finished its work without needing another lock).
    pub(crate) fn clear_interrupt(&self, action: ActionId) {
        if self.interrupts_outstanding.load(Ordering::Relaxed) == 0 {
            return;
        }
        for shard in self.shards.iter() {
            let mut state = shard.state.lock();
            if self.consume_interrupt(&mut state, action).is_some() {
                return;
            }
        }
    }

    /// Drops the table's per-action bookkeeping for a *terminated*
    /// action: its shard-index entry and any pending interrupt. The
    /// runtime calls this when an action commits (an aborting action
    /// goes through [`LockTable::discard_action`], which does the same
    /// and more). Bounds the index in long-running systems.
    pub fn retire_action(&self, action: ActionId) {
        self.take_mask(action);
        self.clear_interrupt(action);
    }

    /// Releases every lock `action` holds in `colour` (the action is
    /// outermost for that colour and committed). Returns the objects
    /// whose lock sets changed.
    ///
    /// Walks only the shards the action may hold locks in, in ascending
    /// shard order; each shard's release is atomic under its own lock.
    pub fn release_colour(&self, action: ActionId, colour: Colour) -> Vec<ObjectId> {
        let mask = self.mask_of(action);
        let mut touched = Vec::new();
        for idx in Self::mask_shards(mask) {
            let shard = self.shards.at(idx);
            let mut state = shard.state.lock();
            let before = touched.len();
            state.objects.retain(|&object, holders| {
                let held = holders.len();
                holders.retain(|e| !(e.action == action && e.colour == colour));
                if holders.len() != held {
                    touched.push(object);
                }
                !holders.is_empty()
            });
            if touched.len() != before {
                shard.changed.notify_all();
            }
        }
        let obs = self.obs.get();
        if obs.enabled() {
            for &object in &touched {
                obs.emit(EventKind::LockRelease {
                    action,
                    object,
                    colour,
                });
            }
        }
        touched
    }

    /// Transfers every lock `from` holds in `colour` to `to` (the
    /// committing action's closest ancestor possessing `colour`).
    ///
    /// If the ancestor already holds a lock on the same object in the
    /// same colour, the two merge into the strongest mode — the paper's
    /// "the parent will hold each of the locks in the same mode as the
    /// child held them". Returns the objects affected.
    pub fn inherit_colour(&self, from: ActionId, colour: Colour, to: ActionId) -> Vec<ObjectId> {
        let mask = self.mask_of(from);
        // The ancestor may now hold locks wherever the child did; set
        // its mask bits before the entries move (superset invariant).
        self.or_mask(to, mask);
        let mut touched = Vec::new();
        for idx in Self::mask_shards(mask) {
            let shard = self.shards.at(idx);
            let mut state = shard.state.lock();
            let before = touched.len();
            for (&object, holders) in state.objects.iter_mut() {
                let Some(pos) = holders
                    .iter()
                    .position(|e| e.action == from && e.colour == colour)
                else {
                    continue;
                };
                let child_mode = holders[pos].mode;
                holders.remove(pos);
                match holders
                    .iter_mut()
                    .find(|e| e.action == to && e.colour == colour)
                {
                    Some(parent_entry) => {
                        parent_entry.mode = parent_entry.mode.strongest(child_mode);
                    }
                    None => holders.push(LockEntry::new(to, colour, child_mode)),
                }
                touched.push(object);
            }
            if touched.len() != before {
                shard.changed.notify_all();
            }
        }
        let obs = self.obs.get();
        if obs.enabled() {
            for &object in &touched {
                obs.emit(EventKind::LockInherit {
                    from,
                    to,
                    object,
                    colour,
                });
            }
        }
        touched
    }

    /// Discards every lock `action` holds, in every colour and mode (the
    /// action aborted). Ancestors holding the same locks keep them.
    /// Returns the objects whose lock sets changed.
    pub fn discard_action(&self, action: ActionId) -> Vec<ObjectId> {
        let mask = self.take_mask(action);
        let mut touched = Vec::new();
        let mut dropped: Vec<(ObjectId, Colour)> = Vec::new();
        for idx in Self::mask_shards(mask) {
            let shard = self.shards.at(idx);
            let mut state = shard.state.lock();
            state.objects.retain(|&object, holders| {
                let before = holders.len();
                holders.retain(|e| {
                    if e.action == action {
                        dropped.push((object, e.colour));
                        false
                    } else {
                        true
                    }
                });
                if holders.len() != before {
                    touched.push(object);
                }
                !holders.is_empty()
            });
            shard.changed.notify_all();
        }
        self.graph.lock().remove_action(action);
        self.clear_interrupt(action);
        let obs = self.obs.get();
        if obs.enabled() {
            for &(object, colour) in &dropped {
                obs.emit(EventKind::LockRelease {
                    action,
                    object,
                    colour,
                });
            }
        }
        touched
    }

    /// Returns the current holders of `object`.
    #[must_use]
    pub fn holders(&self, object: ObjectId) -> Vec<LockEntry> {
        self.shards
            .at(self.shard_of(object))
            .state
            .lock()
            .objects
            .get(&object)
            .cloned()
            .unwrap_or_default()
    }

    /// Returns every lock held by `action`, across all objects and
    /// colours.
    #[must_use]
    pub fn locks_of(&self, action: ActionId) -> Vec<LockSnapshot> {
        let mask = self.mask_of(action);
        let mut snapshots: Vec<LockSnapshot> = Vec::new();
        for idx in Self::mask_shards(mask) {
            let state = self.shards.at(idx).state.lock();
            snapshots.extend(state.objects.iter().flat_map(|(&object, holders)| {
                holders
                    .iter()
                    .filter(|e| e.action == action)
                    .map(move |e| LockSnapshot {
                        object,
                        colour: e.colour,
                        mode: e.mode,
                    })
            }));
        }
        snapshots.sort_by_key(|s| (s.object, s.colour));
        snapshots
    }

    /// Returns the total number of granted lock entries (for tests and
    /// metrics).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.lock().objects.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Number of actions currently parked waiting for a lock, summed
    /// across shards — the instantaneous wait-queue depth behind the
    /// cumulative [`wait_stats`](LockTable::wait_stats).
    #[must_use]
    pub fn waiting_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.lock().waiting.len())
            .sum()
    }

    fn check_and_apply(
        &self,
        state: &mut ShardState,
        chain: &[ActionId],
        action: ActionId,
        object: ObjectId,
        colour: Colour,
        mode: LockMode,
    ) -> Result<AcquireOutcome, chroma_base::LockDenied> {
        let holders = state.objects.entry(object).or_default();
        if let Some(own) = holders
            .iter()
            .find(|e| e.action == action && e.colour == colour)
        {
            if own.mode >= mode {
                return Ok(AcquireOutcome::AlreadyHeld);
            }
        }
        self.policy.permits(chain, holders, action, colour, mode)?;
        match holders
            .iter_mut()
            .find(|e| e.action == action && e.colour == colour)
        {
            Some(own) => {
                own.mode = own.mode.strongest(mode);
                Ok(AcquireOutcome::Upgraded)
            }
            None => {
                holders.push(LockEntry::new(action, colour, mode));
                Ok(AcquireOutcome::Granted)
            }
        }
    }

    /// Identifies the holders that currently block `action`'s request
    /// (for wait-for edges). Mirrors the policy's conflict structure
    /// conservatively: any non-ancestor exclusive holder, every
    /// non-ancestor holder for exclusive requests, and any differently
    /// coloured write holder for write requests.
    fn blockers(
        state: &ShardState,
        chain: &[ActionId],
        action: ActionId,
        object: ObjectId,
        colour: Colour,
        mode: LockMode,
    ) -> Vec<ActionId> {
        let Some(holders) = state.objects.get(&object) else {
            return Vec::new();
        };
        let mut blockers: HashSet<ActionId> = HashSet::new();
        for holder in holders {
            if holder.action == action {
                continue;
            }
            let ancestor = is_ancestor_or_self(holder.action, action, chain);
            let conflicting = match mode {
                LockMode::Read => holder.mode.is_exclusive() && !ancestor,
                LockMode::ExclusiveRead => !ancestor,
                LockMode::Write => {
                    !ancestor || (holder.mode == LockMode::Write && holder.colour != colour)
                }
            };
            if conflicting {
                blockers.insert(holder.action);
            }
        }
        let mut blockers: Vec<ActionId> = blockers.into_iter().collect();
        blockers.sort();
        blockers
    }
}

impl<P: std::fmt::Debug> std::fmt::Debug for LockTable<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (mut objects, mut entries) = (0usize, 0usize);
        for shard in self.shards.iter() {
            let state = shard.state.lock();
            objects += state.objects.len();
            entries += state.objects.values().map(Vec::len).sum::<usize>();
        }
        f.debug_struct("LockTable")
            .field("policy", &self.policy)
            .field("shards", &SHARDS)
            .field("objects", &objects)
            .field("entries", &entries)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassicPolicy, ColouredPolicy, FlatAncestry};
    use std::sync::Arc;

    fn a(n: u64) -> ActionId {
        ActionId::from_raw(n)
    }
    fn o(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }
    fn red() -> Colour {
        Colour::from_index(0)
    }
    fn blue() -> Colour {
        Colour::from_index(1)
    }

    #[test]
    fn grant_upgrade_already_held() {
        let table = LockTable::new(ColouredPolicy);
        let ctx = FlatAncestry::new();
        assert_eq!(
            table
                .try_acquire(&ctx, a(1), o(1), red(), LockMode::Read)
                .unwrap(),
            AcquireOutcome::Granted
        );
        assert_eq!(
            table
                .try_acquire(&ctx, a(1), o(1), red(), LockMode::Read)
                .unwrap(),
            AcquireOutcome::AlreadyHeld
        );
        assert_eq!(
            table
                .try_acquire(&ctx, a(1), o(1), red(), LockMode::Write)
                .unwrap(),
            AcquireOutcome::Upgraded
        );
        assert_eq!(
            table
                .try_acquire(&ctx, a(1), o(1), red(), LockMode::Read)
                .unwrap(),
            AcquireOutcome::AlreadyHeld
        );
    }

    #[test]
    fn xread_then_write_same_colour_upgrades() {
        let table = LockTable::new(ColouredPolicy);
        let ctx = FlatAncestry::new();
        table
            .try_acquire(&ctx, a(1), o(1), red(), LockMode::ExclusiveRead)
            .unwrap();
        assert_eq!(
            table
                .try_acquire(&ctx, a(1), o(1), red(), LockMode::Write)
                .unwrap(),
            AcquireOutcome::Upgraded
        );
    }

    #[test]
    fn conflicting_try_acquire_is_denied() {
        let table = LockTable::new(ColouredPolicy);
        let ctx = FlatAncestry::new();
        table
            .try_acquire(&ctx, a(1), o(1), red(), LockMode::Write)
            .unwrap();
        let err = table
            .try_acquire(&ctx, a(2), o(1), red(), LockMode::Read)
            .unwrap_err();
        assert!(matches!(err, LockError::Denied { .. }));
    }

    #[test]
    fn release_colour_frees_only_that_colour() {
        let table = LockTable::new(ColouredPolicy);
        let ctx = FlatAncestry::new();
        table
            .try_acquire(&ctx, a(1), o(1), red(), LockMode::Write)
            .unwrap();
        table
            .try_acquire(&ctx, a(1), o(2), blue(), LockMode::Write)
            .unwrap();
        let touched = table.release_colour(a(1), red());
        assert_eq!(touched, vec![o(1)]);
        assert!(table.holders(o(1)).is_empty());
        assert_eq!(table.holders(o(2)).len(), 1);
    }

    #[test]
    fn inherit_moves_locks_to_parent_with_merge() {
        let table = LockTable::new(ColouredPolicy);
        let ctx = FlatAncestry::new();
        ctx.set_parent(a(2), a(1));
        // Parent already read-holds o1 in red; child write-holds o1 and o2.
        table
            .try_acquire(&ctx, a(1), o(1), red(), LockMode::Read)
            .unwrap();
        table
            .try_acquire(&ctx, a(2), o(1), red(), LockMode::Write)
            .unwrap();
        table
            .try_acquire(&ctx, a(2), o(2), red(), LockMode::Write)
            .unwrap();
        let mut touched = table.inherit_colour(a(2), red(), a(1));
        touched.sort();
        assert_eq!(touched, vec![o(1), o(2)]);
        let holders = table.holders(o(1));
        assert_eq!(holders.len(), 1);
        assert_eq!(holders[0].action, a(1));
        assert_eq!(holders[0].mode, LockMode::Write); // merged to strongest
        assert_eq!(table.holders(o(2))[0].action, a(1));
    }

    #[test]
    fn discard_keeps_ancestor_locks() {
        let table = LockTable::new(ColouredPolicy);
        let ctx = FlatAncestry::new();
        ctx.set_parent(a(2), a(1));
        table
            .try_acquire(&ctx, a(1), o(1), red(), LockMode::Write)
            .unwrap();
        table
            .try_acquire(&ctx, a(2), o(1), red(), LockMode::Write)
            .unwrap();
        table.discard_action(a(2));
        let holders = table.holders(o(1));
        assert_eq!(holders.len(), 1);
        assert_eq!(holders[0].action, a(1));
    }

    #[test]
    fn blocking_acquire_wakes_on_release() {
        let table = Arc::new(LockTable::new(ColouredPolicy));
        let ctx = FlatAncestry::new();
        table
            .try_acquire(&ctx, a(1), o(1), red(), LockMode::Write)
            .unwrap();
        let t2 = Arc::clone(&table);
        let ctx2 = ctx.clone();
        let handle = std::thread::spawn(move || {
            t2.acquire(
                &ctx2,
                a(2),
                o(1),
                red(),
                LockMode::Write,
                Some(Duration::from_secs(5)),
            )
        });
        std::thread::sleep(Duration::from_millis(50));
        table.release_colour(a(1), red());
        let outcome = handle.join().unwrap().unwrap();
        assert_eq!(outcome, AcquireOutcome::Granted);
    }

    #[test]
    fn blocking_acquire_times_out() {
        let table = LockTable::new(ColouredPolicy);
        let ctx = FlatAncestry::new();
        table
            .try_acquire(&ctx, a(1), o(1), red(), LockMode::Write)
            .unwrap();
        let err = table
            .acquire(
                &ctx,
                a(2),
                o(1),
                red(),
                LockMode::Write,
                Some(Duration::from_millis(30)),
            )
            .unwrap_err();
        assert!(matches!(err, LockError::Timeout { .. }));
    }

    #[test]
    fn deadlock_is_broken_by_victim_selection() {
        let table = Arc::new(LockTable::new(ClassicPolicy));
        let ctx = FlatAncestry::new();
        table
            .try_acquire(&ctx, a(1), o(1), red(), LockMode::Write)
            .unwrap();
        table
            .try_acquire(&ctx, a(2), o(2), red(), LockMode::Write)
            .unwrap();
        // a(1) waits for o2 (held by a2); a(2) waits for o1 (held by a1).
        let t1 = Arc::clone(&table);
        let c1 = ctx.clone();
        let h1 = std::thread::spawn(move || {
            t1.acquire(
                &c1,
                a(1),
                o(2),
                red(),
                LockMode::Write,
                Some(Duration::from_secs(5)),
            )
        });
        std::thread::sleep(Duration::from_millis(50));
        let r2 = table.acquire(
            &ctx,
            a(2),
            o(1),
            red(),
            LockMode::Write,
            Some(Duration::from_secs(5)),
        );
        // a(2) is the youngest waiter on the cycle: it is the victim.
        assert!(matches!(r2, Err(LockError::DeadlockVictim { .. })));
        // Release a(2)'s locks as its abort would; a(1) then proceeds.
        table.discard_action(a(2));
        assert!(h1.join().unwrap().is_ok());
    }

    #[test]
    fn cancelled_waiter_returns_not_active() {
        let table = Arc::new(LockTable::new(ColouredPolicy));
        let ctx = FlatAncestry::new();
        table
            .try_acquire(&ctx, a(1), o(1), red(), LockMode::Write)
            .unwrap();
        let t2 = Arc::clone(&table);
        let ctx2 = ctx.clone();
        let handle =
            std::thread::spawn(move || t2.acquire(&ctx2, a(2), o(1), red(), LockMode::Write, None));
        std::thread::sleep(Duration::from_millis(50));
        table.cancel_waiter(a(2));
        let err = handle.join().unwrap().unwrap_err();
        assert!(matches!(err, LockError::ActionNotActive { .. }));
    }

    #[test]
    fn grant_racing_the_deadline_is_not_dropped() {
        let table = Arc::new(LockTable::new(ColouredPolicy));
        let ctx = FlatAncestry::new();
        table
            .try_acquire(&ctx, a(1), o(1), red(), LockMode::Write)
            .unwrap();
        let t2 = Arc::clone(&table);
        let ctx2 = ctx.clone();
        let waiter = std::thread::spawn(move || {
            t2.acquire(
                &ctx2,
                a(2),
                o(1),
                red(),
                LockMode::Write,
                Some(Duration::from_millis(40)),
            )
        });
        std::thread::sleep(Duration::from_millis(10));
        // Schedule the release exactly at the deadline: hold the shard
        // mutex across the waiter's deadline, free the lock, then let
        // go. The waiter's wait has timed out by the time it
        // reacquires the mutex, but the lock is free — the grant must
        // not be dropped for a Timeout error.
        {
            let shard = table.shards.at(table.shard_of(o(1)));
            let mut state = shard.state.lock();
            std::thread::sleep(Duration::from_millis(80));
            state.objects.remove(&o(1));
            shard.changed.notify_all();
        }
        let outcome = waiter.join().unwrap();
        assert_eq!(outcome.unwrap(), AcquireOutcome::Granted);
    }

    #[test]
    fn cancelled_then_finished_action_id_is_reusable() {
        let table = LockTable::new(ColouredPolicy);
        let ctx = FlatAncestry::new();
        table
            .try_acquire(&ctx, a(1), o(1), red(), LockMode::Write)
            .unwrap();
        // The runtime's abort ordering: discard locks, then cancel any
        // in-progress wait — but this action is not waiting.
        table.discard_action(a(1));
        table.cancel_waiter(a(1));
        // No interrupt may leak from cancelling a non-waiter...
        assert_eq!(table.interrupts_outstanding(), 0);
        // ...so a later reuse of the id acquires normally.
        assert_eq!(
            table
                .acquire(
                    &ctx,
                    a(1),
                    o(2),
                    red(),
                    LockMode::Write,
                    Some(Duration::from_millis(100)),
                )
                .unwrap(),
            AcquireOutcome::Granted
        );
    }

    #[test]
    fn locks_of_reports_all_colours() {
        let table = LockTable::new(ColouredPolicy);
        let ctx = FlatAncestry::new();
        table
            .try_acquire(&ctx, a(1), o(1), blue(), LockMode::Write)
            .unwrap();
        table
            .try_acquire(&ctx, a(1), o(1), red(), LockMode::ExclusiveRead)
            .unwrap();
        let locks = table.locks_of(a(1));
        assert_eq!(locks.len(), 2);
        assert_eq!(locks.iter().filter(|l| l.colour == red()).count(), 1);
        assert_eq!(locks.iter().filter(|l| l.colour == blue()).count(), 1);
        assert_eq!(table.entry_count(), 2);
    }

    #[test]
    fn nested_child_gets_ancestor_held_lock() {
        let table = LockTable::new(ClassicPolicy);
        let ctx = FlatAncestry::new();
        ctx.set_parent(a(2), a(1));
        table
            .try_acquire(&ctx, a(1), o(1), red(), LockMode::Write)
            .unwrap();
        assert!(table
            .try_acquire(&ctx, a(2), o(1), red(), LockMode::Write)
            .is_ok());
        // A stranger still cannot.
        assert!(table
            .try_acquire(&ctx, a(3), o(1), red(), LockMode::Write)
            .is_err());
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let table = LockTable::new(ColouredPolicy);
        for raw in 0..1000 {
            let s = table.shard_of(o(raw));
            assert!(s < table.shard_count());
            assert_eq!(s, table.shard_of(o(raw)));
        }
    }

    #[test]
    fn retire_action_drops_index_entries() {
        let table = LockTable::new(ColouredPolicy);
        let ctx = FlatAncestry::new();
        table
            .try_acquire(&ctx, a(1), o(1), red(), LockMode::Write)
            .unwrap();
        table.release_colour(a(1), red());
        assert_ne!(table.mask_of(a(1)), 0, "mask persists until retirement");
        table.retire_action(a(1));
        assert_eq!(table.mask_of(a(1)), 0);
        assert!(table.locks_of(a(1)).is_empty());
    }

    #[test]
    fn multi_shard_release_returns_every_object() {
        let table = LockTable::new(ColouredPolicy);
        let ctx = FlatAncestry::new();
        // Lock enough objects that several shards are certainly hit.
        let objects: Vec<ObjectId> = (1..=64).map(o).collect();
        for &obj in &objects {
            table
                .try_acquire(&ctx, a(1), obj, red(), LockMode::Write)
                .unwrap();
        }
        let shards_hit: HashSet<usize> = objects.iter().map(|&ob| table.shard_of(ob)).collect();
        assert!(shards_hit.len() > 1, "expected objects on several shards");
        assert_eq!(table.locks_of(a(1)).len(), 64);
        let mut touched = table.release_colour(a(1), red());
        touched.sort();
        assert_eq!(touched, objects);
        assert_eq!(table.entry_count(), 0);
    }
}
