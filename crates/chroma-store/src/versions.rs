//! Multi-version object chains and the commit-stamp clock behind
//! snapshot (read-only) actions.
//!
//! Strict coloured 2PL gives writers isolation, but it makes a long
//! read-only action block every writer it overlaps. This module keeps a
//! *short version chain* per object — each outermost-coloured flush
//! appends a `(stamp, state)` version — plus a [`StampClock`]
//! publishing one monotone commit frontier. A reader that declares
//! itself read-only captures the frontier as one stamp `S` and
//! thereafter reads, for each object, the newest version whose stamp is
//! `<= S`, whatever its colour — without ever registering in the lock
//! table. The flushes stamped `<= S` are a prefix of one serial order,
//! so the snapshot is that order frozen at `S`.
//!
//! Stamp rules:
//!
//! * one gate owns the stamp counter: a flush allocates its stamp,
//!   appends its versions and publishes the stamp under it
//!   ([`StampClock::flush`]), so stamps are published in order,
//!   publishing is a plain store, and a capture of frontier `S` implies
//!   every version with stamp `<= S` is already in its chain. Each
//!   chain is stamp-sorted (the gate orders every append);
//! * stamp `0` is reserved for *base* versions: the object's state
//!   before the first stamped commit, seeded from the committing
//!   action's undo-log before-image (so images are recorded once). A
//!   base version is visible to every snapshot; a base of `None` is a
//!   tombstone (the object did not exist yet — snapshots older than the
//!   creating commit correctly observe absence);
//! * a version keeps its colour only to report it (trace payload):
//!   visibility never looks at it.
//!
//! Chains are volatile: [`VersionChains::crash`] drops them, and
//! post-crash snapshot readers fall back to stable storage (which holds
//! exactly the newest committed states). The clock itself is *not*
//! reset on a crash — stamps are never reused, which keeps the trace
//! auditor's frontier monotone across crash/recover schedules.
//!
//! Garbage collection is exact, not watermark-approximate. Visibility
//! is monotone in the stamp, so the *oldest* live stamp (the oldest
//! open snapshot's, or the frontier when none is older) selects the
//! oldest version any live snapshot can: [`VersionChains::collect`]
//! keeps, per chain, the suffix starting at that version. A chain of
//! one version never shrinks, so each shard indexes the chains holding
//! two or more versions and a sweep visits only those: its cost follows
//! the versions written since the last sweep, not the number of objects
//! ever written.
//!
//! Layout. Almost every chain holds one version once it has been swept,
//! so a chain lives inline in its shard's table entry in one of three
//! shapes: one version; a creation (the tombstone base under the
//! created version, two versions that need no heap because the
//! tombstone is implied); or, only while it holds two or more explicit
//! versions, a `Vec` of them. A sweep that leaves one version moves the
//! chain back inline. A version is 32 B (a colour, a stamp and a shared
//! state handle), a chain 40 B, so an object costs one 48 B table entry
//! (plus the table's slack) and no heap block unless a write since the
//! last sweep put a second explicit version on it; every count here
//! (`chain_len`, `total_versions`, [`GcStats`]) still counts a creation
//! as two versions.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use chroma_base::{Colour, ObjectId, Sharded};
use parking_lot::Mutex;

use crate::StoreBytes;

/// The commit-stamp clock: the stamp counter behind one publication
/// gate, plus the published frontier snapshot readers capture.
#[derive(Debug, Default)]
pub struct StampClock {
    /// The newest stamp allocated. Its lock is the publication gate: a
    /// flush holds it across allocate→append→publish (see module docs).
    gate: Mutex<u64>,
    /// The newest published stamp.
    published: AtomicU64,
}

impl StampClock {
    /// A clock at stamp 0 with nothing published.
    #[must_use]
    pub fn new() -> Self {
        StampClock::default()
    }

    /// Runs one stamped flush under the gate: allocates the next stamp
    /// (monotone, starting at 1; 0 is reserved for base versions),
    /// hands it to `append`, then publishes it.
    pub fn flush<R>(&self, append: impl FnOnce(u64) -> R) -> R {
        let mut last = self.gate.lock();
        *last += 1;
        let stamp = *last;
        let appended = append(stamp);
        self.published.store(stamp, Ordering::Release);
        appended
    }

    /// The published frontier: every version stamped at or below it is
    /// in its chain (0 before any flush).
    #[must_use]
    pub fn capture(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }
}

/// One committed version of an object. `state == None` is a tombstone:
/// the object did not exist at this stamp. The colour is reported with
/// a read, never consulted by one.
#[derive(Clone, Debug)]
struct Version {
    colour: Colour,
    stamp: u64,
    state: Option<StoreBytes>,
}

impl Version {
    /// A base version: stamp 0, reported as colour 0.
    fn base(state: Option<StoreBytes>) -> Self {
        Version {
            colour: Colour::from_index(0),
            stamp: 0,
            state,
        }
    }
}

impl From<&Version> for VisibleVersion {
    fn from(v: &Version) -> Self {
        VisibleVersion::Version {
            colour: v.colour,
            stamp: v.stamp,
            state: v.state.clone(),
        }
    }
}

/// One object's versions, oldest first, in the cheapest shape that
/// holds them (see the module docs). Never empty.
#[derive(Debug)]
enum Chain {
    /// One version, inline.
    One(Version),
    /// A creation, inline: a tombstone base (stamp 0, colour 0) under
    /// the created version, which holds a state. Two versions.
    Created(Version),
    /// Two or more versions on the heap.
    Many(Vec<Version>),
}

// A chain lives inline in its table entry: growing it past one
// version's width plus the tag should fail the build, not a benchmark.
const _: () = assert!(std::mem::size_of::<Chain>() <= 40);

impl Chain {
    /// Versions held (a creation holds two).
    fn len(&self) -> usize {
        match self {
            Chain::One(_) => 1,
            Chain::Created(_) => 2,
            Chain::Many(versions) => versions.len(),
        }
    }

    fn newest(&self) -> &Version {
        match self {
            Chain::One(newest) | Chain::Created(newest) => newest,
            Chain::Many(versions) => &versions[versions.len() - 1],
        }
    }

    /// Appends `version`: a tombstone base alone becomes a creation;
    /// anything else with a second version moves to the heap.
    fn push(&mut self, version: Version) {
        debug_assert!(
            self.newest().stamp < version.stamp,
            "version stamps must be appended in increasing order"
        );
        *self = match std::mem::replace(self, Chain::Many(Vec::new())) {
            Chain::One(Version {
                stamp: 0,
                state: None,
                ..
            }) => Chain::Created(version),
            Chain::One(first) => Chain::Many(vec![first, version]),
            Chain::Created(created) => Chain::Many(vec![Version::base(None), created, version]),
            Chain::Many(mut versions) => {
                versions.push(version);
                Chain::Many(versions)
            }
        };
    }

    /// The newest version stamped at or below `stamp`.
    fn visible(&self, stamp: u64) -> VisibleVersion {
        let found = match self {
            Chain::One(only) => (only.stamp <= stamp).then_some(only),
            Chain::Created(created) if created.stamp > stamp => {
                return VisibleVersion::from(&Version::base(None));
            }
            Chain::Created(created) => Some(created),
            Chain::Many(versions) => versions.iter().rev().find(|v| v.stamp <= stamp),
        };
        // A chain always starts at a base (stamp 0) version, which
        // every snapshot sees; finding nothing means the chain was
        // never seeded, and stable storage still holds the base.
        found.map_or(VisibleVersion::NoChain, VisibleVersion::from)
    }

    /// Drops the versions [`reclaimable`] names for `oldest` and
    /// returns how many went; a chain left at one version moves back
    /// inline.
    fn reclaim(&mut self, oldest: u64) -> usize {
        match self {
            Chain::One(_) => 0,
            // `reclaimable` over [tombstone, created]: the tombstone
            // goes once the created version is selectable.
            Chain::Created(created) if created.stamp <= oldest => {
                *self = Chain::One(std::mem::replace(created, Version::base(None)));
                1
            }
            Chain::Created(_) => 0,
            Chain::Many(versions) => {
                let reclaimed = reclaimable(versions, oldest);
                versions.drain(..reclaimed);
                if versions.len() == 1 {
                    *self = Chain::One(versions.swap_remove(0));
                }
                reclaimed
            }
        }
    }
}

/// One shard of the chains.
#[derive(Debug, Default)]
struct ChainShard {
    /// Object → its versions. Never empty: a chain starts with one
    /// version and a sweep always keeps the newest.
    chains: HashMap<ObjectId, Chain>,
    /// The objects whose chain holds two or more versions, each once:
    /// the only chains a sweep can shorten.
    multi: Vec<ObjectId>,
    /// Versions held across `chains`.
    versions: u64,
}

impl ChainShard {
    /// Appends `version` to `object`'s chain, indexing the chain when
    /// it reaches two versions.
    fn push(&mut self, object: ObjectId, version: Version) {
        match self.chains.entry(object) {
            Entry::Vacant(slot) => {
                slot.insert(Chain::One(version));
            }
            Entry::Occupied(slot) => {
                let chain = slot.into_mut();
                chain.push(version);
                if chain.len() == 2 {
                    self.multi.push(object);
                }
            }
        }
        self.versions += 1;
    }
}

/// How many of `chain`'s oldest versions no snapshot at or after
/// `oldest` can select (see [`VersionChains::collect`]): those before
/// the newest version stamped `<= oldest`, none if there is no such
/// version. The newest version always stays.
fn reclaimable(chain: &[Version], oldest: u64) -> usize {
    chain.iter().rposition(|v| v.stamp <= oldest).unwrap_or(0)
}

/// What a snapshot read found in the chains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VisibleVersion {
    /// The newest version visible to the snapshot. `state == None`
    /// means the object did not exist at the snapshot's stamp.
    Version {
        /// Colour of the commit that produced the version (colour 0
        /// for seeded base versions).
        colour: Colour,
        /// The version's commit stamp (0 for base versions).
        stamp: u64,
        /// The object state, or `None` for a tombstone.
        state: Option<StoreBytes>,
    },
    /// The object has no chain (no stamped commit touched it since
    /// startup or the last crash): read stable storage instead — its
    /// installed state predates every chained commit, so it is the
    /// base version by construction.
    NoChain,
}

/// Outcome of one [`VersionChains::collect`] sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Versions dropped by the sweep.
    pub reclaimed: u64,
    /// Versions still held after the sweep.
    pub retained: u64,
}

/// The per-object version chains (sharded like the lock table, so
/// snapshot reads don't serialize on one map lock; all volatile).
#[derive(Debug, Default)]
pub struct VersionChains {
    shards: Sharded<Mutex<ChainShard>>,
}

impl VersionChains {
    /// Empty chains.
    #[must_use]
    pub fn new() -> Self {
        VersionChains::default()
    }

    fn shard(&self, object: ObjectId) -> &Mutex<ChainShard> {
        self.shards.of(object.as_raw())
    }

    /// Seeds `object`'s chain with a base version (stamp 0) holding
    /// `before` — the committing action's undo-log before-image —
    /// unless the object already has a chain. Idempotent. Must be
    /// called *before* the commit installs the new state in stable
    /// storage, so a concurrent snapshot reader can never fall through
    /// to stable and observe a state newer than its stamp.
    pub fn seed_base(&self, object: ObjectId, before: Option<StoreBytes>) {
        let mut shard = self.shard(object).lock();
        if !shard.chains.contains_key(&object) {
            shard.push(object, Version::base(before));
        }
    }

    /// Appends the committed `state` of `object` as a version stamped
    /// `stamp`, reported with `colour`. Stamps must arrive in increasing
    /// order per object (the publication gate orders every append).
    pub fn append(&self, object: ObjectId, colour: Colour, stamp: u64, state: StoreBytes) {
        self.shard(object).lock().push(
            object,
            Version {
                colour,
                stamp,
                state: Some(state),
            },
        );
    }

    /// True if `object` has a chain.
    #[must_use]
    pub fn has_chain(&self, object: ObjectId) -> bool {
        self.shard(object).lock().chains.contains_key(&object)
    }

    /// The newest version of `object` stamped at or below `stamp` (base
    /// versions are stamped 0).
    #[must_use]
    pub fn read_visible(&self, object: ObjectId, stamp: u64) -> VisibleVersion {
        self.shard(object)
            .lock()
            .chains
            .get(&object)
            .map_or(VisibleVersion::NoChain, |chain| chain.visible(stamp))
    }

    /// Reclaims versions no live snapshot can reach. `oldest` must be
    /// the oldest stamp of every open snapshot *and a fresh capture of
    /// the current frontier* (so the newest selectable version of each
    /// chain always survives for future readers). Per chain the kept
    /// range is the suffix from the newest version stamped `<= oldest`;
    /// a chain with no such version (never seeded with a base, every
    /// version newer than `oldest`) is kept whole. The
    /// sweep visits only the indexed chains of two or more versions and
    /// unindexes each one it leaves at one.
    pub fn collect(&self, oldest: u64) -> GcStats {
        let mut stats = GcStats::default();
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            let ChainShard {
                chains,
                multi,
                versions,
            } = &mut *shard;
            multi.retain(|object| {
                let chain = chains
                    .get_mut(object)
                    .expect("every indexed object has a chain");
                let reclaimed = chain.reclaim(oldest);
                *versions -= reclaimed as u64;
                stats.reclaimed += reclaimed as u64;
                chain.len() > 1
            });
            stats.retained += *versions;
        }
        stats
    }

    /// Chain length of one object (introspection/tests).
    #[must_use]
    pub fn chain_len(&self, object: ObjectId) -> usize {
        self.shard(object)
            .lock()
            .chains
            .get(&object)
            .map_or(0, Chain::len)
    }

    /// Total versions held across all chains.
    #[must_use]
    pub fn total_versions(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().versions).sum()
    }

    /// Drops every chain (node crash: chains are volatile; stable
    /// storage holds the newest committed states, which is exactly what
    /// post-crash snapshots should see).
    pub fn crash(&self) {
        for shard in self.shards.iter() {
            *shard.lock() = ChainShard::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use proptest::torture_seed;

    impl Chain {
        /// The versions held, oldest first, a creation's tombstone
        /// included.
        fn to_vec(&self) -> Vec<Version> {
            match self {
                Chain::One(only) => vec![only.clone()],
                Chain::Created(created) => vec![Version::base(None), created.clone()],
                Chain::Many(versions) => versions.clone(),
            }
        }

        /// The chain `push` builds from `versions` (oldest first, not
        /// empty).
        fn rebuilt(versions: Vec<Version>) -> Chain {
            let mut versions = versions.into_iter();
            let mut chain = Chain::One(versions.next().expect("a chain is never empty"));
            for version in versions {
                chain.push(version);
            }
            chain
        }
    }

    impl VersionChains {
        /// The sweep as it was before the multi-version index, judged
        /// against *every* live stamp rather than the oldest: every
        /// chain of every shard keeps the suffix from the oldest version
        /// any stamp of `live` selects, `retained` summed from the
        /// chains themselves. The oracle [`VersionChains::collect`] is
        /// held to.
        fn collect_full_scan(&self, live: &[u64]) -> GcStats {
            let mut stats = GcStats::default();
            for shard in self.shards.iter() {
                let mut shard = shard.lock();
                for chain in shard.chains.values_mut() {
                    let mut versions = chain.to_vec();
                    let mut keep_from = versions.len().saturating_sub(1);
                    for &stamp in live {
                        let selected = versions.iter().rposition(|v| v.stamp <= stamp).unwrap_or(0);
                        keep_from = keep_from.min(selected);
                    }
                    stats.reclaimed += keep_from as u64;
                    versions.drain(..keep_from);
                    stats.retained += versions.len() as u64;
                    *chain = Chain::rebuilt(versions);
                }
                // Keep this instance's own bookkeeping whole for the
                // steps that follow; the oracle never reads it.
                let ChainShard {
                    chains,
                    multi,
                    versions,
                } = &mut *shard;
                multi.retain(|object| chains[object].len() > 1);
                *versions = chains.values().map(|c| c.len() as u64).sum();
            }
            stats
        }

        /// Panics unless every shard indexes exactly its chains of two
        /// or more versions, each once, and counts its versions right.
        fn assert_index_exact(&self) {
            for shard in self.shards.iter() {
                let shard = shard.lock();
                let mut indexed = shard.multi.clone();
                indexed.sort_unstable();
                let mut expected: Vec<ObjectId> = shard
                    .chains
                    .iter()
                    .filter(|(_, chain)| chain.len() > 1)
                    .map(|(&object, _)| object)
                    .collect();
                expected.sort_unstable();
                assert_eq!(indexed, expected, "index != multi-version chains");
                let held: u64 = shard.chains.values().map(|c| c.len() as u64).sum();
                assert_eq!(shard.versions, held, "version count drifted");
                for chain in shard.chains.values() {
                    match chain {
                        Chain::One(_) => {}
                        Chain::Created(created) => {
                            assert!(created.state.is_some(), "a creation without its state");
                        }
                        Chain::Many(versions) => {
                            assert!(versions.len() > 1, "a one-version chain on the heap");
                        }
                    }
                }
            }
        }
    }

    fn o(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }
    fn c(i: usize) -> Colour {
        Colour::from_index(i)
    }
    fn b(v: u8) -> StoreBytes {
        StoreBytes::from(vec![v])
    }

    /// The shape `object`'s chain is stored in.
    fn shape(chains: &VersionChains, object: ObjectId) -> &'static str {
        match chains.shard(object).lock().chains.get(&object) {
            None => "none",
            Some(Chain::One(_)) => "one",
            Some(Chain::Created(_)) => "created",
            Some(Chain::Many(_)) => "many",
        }
    }

    #[test]
    fn a_creation_lives_inline_and_reads_absent_below_its_stamp() {
        let chains = VersionChains::new();
        chains.seed_base(o(1), None);
        assert_eq!(shape(&chains, o(1)), "one");
        chains.assert_index_exact();
        chains.append(o(1), c(1), 4, b(44));
        assert_eq!(shape(&chains, o(1)), "created");
        assert_eq!((chains.chain_len(o(1)), chains.total_versions()), (2, 2));
        chains.assert_index_exact();
        let absent = VisibleVersion::Version {
            colour: c(0),
            stamp: 0,
            state: None,
        };
        let created = VisibleVersion::Version {
            colour: c(1),
            stamp: 4,
            state: Some(b(44)),
        };
        assert_eq!(chains.read_visible(o(1), 0), absent);
        assert_eq!(chains.read_visible(o(1), 3), absent);
        assert_eq!(chains.read_visible(o(1), 4), created);
        // A snapshot below the creation pins the tombstone.
        assert_eq!(chains.collect(3).reclaimed, 0);
        assert_eq!(shape(&chains, o(1)), "created");
        chains.assert_index_exact();
        // Once nothing older is live the sweep leaves one inline version.
        let stats = chains.collect(4);
        assert_eq!((stats.reclaimed, stats.retained), (1, 1));
        assert_eq!(shape(&chains, o(1)), "one");
        assert_eq!(chains.read_visible(o(1), 4), created);
        chains.assert_index_exact();
    }

    #[test]
    fn a_chain_moves_to_the_heap_at_two_explicit_versions_and_back_after_a_sweep() {
        let chains = VersionChains::new();
        // A creation that gets a third version.
        chains.seed_base(o(1), None);
        chains.append(o(1), c(0), 1, b(1));
        chains.append(o(1), c(0), 2, b(2));
        // An existing object's base and its first write.
        chains.seed_base(o(2), Some(b(20)));
        chains.append(o(2), c(0), 3, b(23));
        assert_eq!((shape(&chains, o(1)), chains.chain_len(o(1))), ("many", 3));
        assert_eq!((shape(&chains, o(2)), chains.chain_len(o(2))), ("many", 2));
        chains.assert_index_exact();
        let read = |object, stamp| match chains.read_visible(object, stamp) {
            VisibleVersion::Version { stamp, state, .. } => (stamp, state),
            VisibleVersion::NoChain => panic!("chain exists"),
        };
        assert_eq!(read(o(1), 0), (0, None));
        assert_eq!(read(o(1), 1), (1, Some(b(1))));
        assert_eq!(read(o(1), 2), (2, Some(b(2))));
        assert_eq!(read(o(2), 2), (0, Some(b(20))));
        // Dropping the tombstone leaves two versions on the heap.
        assert_eq!(chains.collect(1).reclaimed, 1);
        assert_eq!((shape(&chains, o(1)), chains.chain_len(o(1))), ("many", 2));
        assert_eq!(shape(&chains, o(2)), "many");
        chains.assert_index_exact();
        let stats = chains.collect(3);
        assert_eq!((stats.reclaimed, stats.retained), (2, 2));
        assert_eq!((shape(&chains, o(1)), shape(&chains, o(2))), ("one", "one"));
        assert_eq!(read(o(1), 3), (2, Some(b(2))));
        assert_eq!(read(o(2), 3), (3, Some(b(23))));
        chains.assert_index_exact();
    }

    #[test]
    fn clock_allocates_monotone_and_publishes_max() {
        let clock = StampClock::new();
        assert_eq!(clock.capture(), 0);
        // Inside the gate the stamp is allocated but not yet published.
        let s1 = clock.flush(|stamp| {
            assert_eq!(clock.capture(), 0);
            stamp
        });
        let s2 = clock.flush(|stamp| stamp);
        assert!(0 < s1 && s1 < s2);
        assert_eq!(clock.capture(), s2);
    }

    #[test]
    fn snapshot_sees_base_and_at_or_below_its_stamp() {
        let chains = VersionChains::new();
        chains.seed_base(o(1), Some(b(0)));
        chains.append(o(1), c(0), 2, b(2));
        chains.append(o(1), c(1), 5, b(5));
        let read = |stamp: u64| match chains.read_visible(o(1), stamp) {
            VisibleVersion::Version { colour, stamp, .. } => (colour, stamp),
            VisibleVersion::NoChain => panic!("chain exists"),
        };
        // One stamp orders every colour: the base below the first
        // flush, then whichever version is newest at or below it.
        assert_eq!(read(0), (c(0), 0));
        assert_eq!(read(1), (c(0), 0));
        assert_eq!(read(2), (c(0), 2));
        assert_eq!(read(4), (c(0), 2));
        assert_eq!(read(5), (c(1), 5));
        assert_eq!(read(u64::MAX), (c(1), 5));
    }

    #[test]
    fn read_visible_picks_newest_at_or_below_stamp() {
        let chains = VersionChains::new();
        chains.seed_base(o(1), Some(b(10)));
        chains.append(o(1), c(0), 3, b(13));
        chains.append(o(1), c(0), 7, b(17));

        let read = |stamp: u64| match chains.read_visible(o(1), stamp) {
            VisibleVersion::Version { stamp, state, .. } => (stamp, state),
            VisibleVersion::NoChain => panic!("chain exists"),
        };
        assert_eq!(read(0), (0, Some(b(10))));
        assert_eq!(read(5), (3, Some(b(13))));
        assert_eq!(read(7), (7, Some(b(17))));
    }

    #[test]
    fn tombstone_base_reports_absence_not_stable_fallback() {
        let chains = VersionChains::new();
        // Object created inside the committing action: before-image is
        // None, so snapshots older than the commit see a tombstone.
        chains.seed_base(o(9), None);
        chains.append(o(9), c(0), 4, b(44));
        match chains.read_visible(o(9), 0) {
            VisibleVersion::Version {
                stamp: 0, state, ..
            } => assert_eq!(state, None),
            other => panic!("expected tombstone base, got {other:?}"),
        }
    }

    #[test]
    fn seed_base_is_idempotent_and_never_clobbers() {
        let chains = VersionChains::new();
        chains.seed_base(o(2), Some(b(1)));
        chains.append(o(2), c(0), 1, b(2));
        chains.seed_base(o(2), Some(b(99))); // retry after backend error
        assert_eq!(chains.chain_len(o(2)), 2);
        match chains.read_visible(o(2), 0) {
            VisibleVersion::Version {
                stamp: 0, state, ..
            } => assert_eq!(state, Some(b(1))),
            other => panic!("expected original base, got {other:?}"),
        }
    }

    #[test]
    fn missing_chain_reports_no_chain() {
        let chains = VersionChains::new();
        assert_eq!(chains.read_visible(o(7), 0), VisibleVersion::NoChain);
        assert!(!chains.has_chain(o(7)));
    }

    #[test]
    fn collect_keeps_versions_reachable_by_live_snapshots() {
        let chains = VersionChains::new();
        chains.seed_base(o(1), Some(b(0)));
        for s in 1..=6u64 {
            chains.append(o(1), c(0), s, b(u8::try_from(s).expect("small")));
        }
        assert_eq!(chains.chain_len(o(1)), 7);

        // A live snapshot at stamp 3 (the frontier is at 6): it selects
        // stamp 3; everything older goes.
        let stats = chains.collect(3);
        assert_eq!(chains.chain_len(o(1)), 4);
        assert_eq!(stats.reclaimed, 3);
        assert_eq!(stats.retained, 4);
        match chains.read_visible(o(1), 3) {
            VisibleVersion::Version { stamp, state, .. } => {
                assert_eq!((stamp, state), (3, Some(b(3))));
            }
            VisibleVersion::NoChain => panic!("live snapshot lost its version"),
        }

        // Snapshot closed: only the frontier pins versions now.
        let stats = chains.collect(6);
        assert_eq!(chains.chain_len(o(1)), 1);
        assert_eq!(stats.retained, 1);
        match chains.read_visible(o(1), 6) {
            VisibleVersion::Version { stamp, .. } => assert_eq!(stamp, 6),
            VisibleVersion::NoChain => panic!("newest version must survive"),
        }
    }

    #[test]
    fn collect_with_unpublished_tail_pins_whole_chain() {
        let chains = VersionChains::new();
        // Mid-flush: version appended but frontier not yet published —
        // a fresh capture selects nothing, which must pin the chain.
        chains.append(o(3), c(0), 9, b(9));
        let stats = chains.collect(0);
        assert_eq!(stats.reclaimed, 0);
        assert_eq!(chains.chain_len(o(3)), 1);
    }

    #[test]
    fn crash_drops_chains() {
        let chains = VersionChains::new();
        chains.seed_base(o(1), Some(b(1)));
        chains.append(o(1), c(0), 1, b(2));
        assert_eq!(chains.total_versions(), 2);
        chains.crash();
        assert_eq!(chains.total_versions(), 0);
        assert_eq!(chains.read_visible(o(1), 0), VisibleVersion::NoChain);
    }

    /// The indexed sweep against the full-scan oracle over a seeded
    /// history (`CHROMA_TORTURE_SEED`): bases (tombstones included),
    /// appends of three colours with and without a base, sweeps and
    /// crashes, interleaved. A sweep's live set holds open snapshots'
    /// stamps (mostly recent ones, now and then stamp 0) and the
    /// frontier (nearly always every stamp so far, else one short of an
    /// unpublished tail). The oracle judges every live stamp; the
    /// indexed sweep gets only the oldest. After every step both sides
    /// must report the same `GcStats` and serve every object the same
    /// version.
    #[test]
    fn indexed_collect_matches_full_scan_oracle() {
        const COLOURS: usize = 3;
        let seed = torture_seed().unwrap_or(42);
        let mut rng = StdRng::seed_from_u64(seed);
        let indexed = VersionChains::new();
        let oracle = VersionChains::new();
        let objects: Vec<ObjectId> = (1..=48).map(o).collect();
        let mut clock = 0u64;
        let mut sweeps = 0u64;
        for step in 0..6_000 {
            let object = objects[rng.gen_range(0..objects.len())];
            match rng.gen_range(0u32..100) {
                0..=19 => {
                    let before = rng.gen_bool(0.8).then(|| b(rng.gen_range(0u8..=u8::MAX)));
                    indexed.seed_base(object, before.clone());
                    oracle.seed_base(object, before);
                }
                20..=74 => {
                    clock += 1;
                    let colour = c(rng.gen_range(0..COLOURS));
                    let state = b(rng.gen_range(0u8..=u8::MAX));
                    indexed.append(object, colour, clock, state.clone());
                    oracle.append(object, colour, clock, state);
                }
                75..=98 => {
                    let mut live: Vec<u64> = (0..rng.gen_range(0..=2usize))
                        .map(|_| rng.gen_range(clock.saturating_sub(16)..=clock))
                        .collect();
                    live.push(if rng.gen_bool(0.85) {
                        clock
                    } else {
                        rng.gen_range(clock.saturating_sub(4)..=clock)
                    });
                    if rng.gen_bool(0.1) {
                        live.push(0);
                    }
                    let oldest = live.iter().copied().min().expect("the frontier is live");
                    let got = indexed.collect(oldest);
                    let want = oracle.collect_full_scan(&live);
                    assert_eq!(got, want, "seed {seed} step {step}: GcStats differ");
                    sweeps += 1;
                }
                _ => {
                    indexed.crash();
                    oracle.crash();
                }
            }
            indexed.assert_index_exact();
            let probes = [0, rng.gen_range(0..=clock), clock];
            for &object in &objects {
                assert_eq!(
                    indexed.chain_len(object),
                    oracle.chain_len(object),
                    "seed {seed} step {step}: chain of {object:?} differs"
                );
                for &stamp in &probes {
                    assert_eq!(
                        indexed.read_visible(object, stamp),
                        oracle.read_visible(object, stamp),
                        "seed {seed} step {step}: {object:?} reads differently"
                    );
                }
            }
            assert_eq!(indexed.total_versions(), oracle.total_versions());
        }
        assert!(sweeps > 1_000, "seed {seed}: only {sweeps} sweeps");
    }

    #[test]
    fn index_holds_only_multi_version_chains_and_shrinks_after_a_sweep() {
        let chains = VersionChains::new();
        for n in 1..=100 {
            chains.seed_base(o(n), Some(b(0)));
        }
        chains.append(o(1), c(0), 1, b(1));
        chains.append(o(2), c(0), 2, b(2));
        let indexed = |chains: &VersionChains| -> usize {
            chains.shards.iter().map(|s| s.lock().multi.len()).sum()
        };
        assert_eq!(indexed(&chains), 2);
        let stats = chains.collect(2);
        assert_eq!(
            stats,
            GcStats {
                reclaimed: 2,
                retained: 100
            }
        );
        assert_eq!(indexed(&chains), 0);
        // A chain back at one version is indexed again when it grows.
        chains.append(o(1), c(0), 3, b(3));
        assert_eq!(indexed(&chains), 1);
        chains.assert_index_exact();
    }
}
