//! Multi-version object chains and the commit-stamp clock behind
//! snapshot (read-only) actions.
//!
//! Strict coloured 2PL gives writers isolation, but it makes a long
//! read-only action block every writer it overlaps. This module keeps a
//! *short version chain* per object — each outermost-coloured commit
//! appends a `(colour, stamp, state)` version — plus a [`StampClock`]
//! publishing a monotone per-colour commit frontier. A reader that
//! declares itself read-only captures the frontier as a
//! [`SnapshotStamps`] vector and thereafter reads, for each object, the
//! newest version whose stamp is `<=` its captured stamp for that
//! version's colour — without ever registering in the lock table.
//!
//! Stamp rules:
//!
//! * stamps are allocated from one global monotone counter, so versions
//!   of *any* colour are totally ordered and each per-object chain is
//!   stamp-sorted (write locks serialize same-object commits);
//! * stamp `0` is reserved for *base* versions: the object's state
//!   before the first stamped commit, seeded from the committing
//!   action's undo-log before-image (so images are recorded once). A
//!   base version is visible to every snapshot; a base of `None` is a
//!   tombstone (the object did not exist yet — snapshots older than the
//!   creating commit correctly observe absence);
//! * a colour's published frontier only advances ([`StampClock::publish`]
//!   is a `fetch_max`), and the whole allocate→append→publish window is
//!   serialized per colour by [`StampClock::publish_guard`], so a
//!   capture of frontier `s` implies every same-colour version with
//!   stamp `<= s` is already in its chain.
//!
//! Chains are volatile: [`VersionChains::crash`] drops them, and
//! post-crash snapshot readers fall back to stable storage (which holds
//! exactly the newest committed states). The clock itself is *not*
//! reset on a crash — stamps are never reused, which keeps the trace
//! auditor's per-colour frontier monotone across crash/recover
//! schedules.
//!
//! Garbage collection is exact, not watermark-approximate:
//! [`VersionChains::collect`] keeps, per chain, the suffix starting at
//! the oldest version any *live* snapshot (or a fresh capture of the
//! current frontier) can select, so a version is reclaimed only once no
//! live snapshot can reach it. A chain of one version never shrinks, so
//! each shard indexes the chains holding two or more versions and a
//! sweep visits only those: its cost follows the versions written since
//! the last sweep, not the number of objects ever written.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use chroma_base::{shard_index, CachePadded, Colour, ObjectId, MAX_LIVE_COLOURS};
use parking_lot::{Mutex, MutexGuard};

use crate::StoreBytes;

/// Version-chain shard count (power of two; chains are sharded like the
/// lock table so snapshot reads don't serialize on one map lock).
const SHARDS: usize = 16;

/// A snapshot's captured per-colour commit frontier.
///
/// `stamp_for(c)` is the newest published stamp of colour `c` at
/// capture time; the snapshot sees exactly the versions with
/// `stamp == 0` (base) or `stamp <= stamp_for(version.colour)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotStamps {
    published: [u64; MAX_LIVE_COLOURS],
}

impl SnapshotStamps {
    /// A frontier with every colour at stamp 0 (sees only base
    /// versions).
    #[must_use]
    pub fn zero() -> Self {
        SnapshotStamps {
            published: [0; MAX_LIVE_COLOURS],
        }
    }

    /// Builds a frontier from explicit `(colour, stamp)` pairs, the
    /// rest at 0 (test/tooling helper).
    #[must_use]
    pub fn from_pairs(pairs: &[(Colour, u64)]) -> Self {
        let mut stamps = SnapshotStamps::zero();
        for &(colour, stamp) in pairs {
            stamps.published[colour.index()] = stamp;
        }
        stamps
    }

    /// The captured stamp for `colour`.
    #[must_use]
    pub fn stamp_for(&self, colour: Colour) -> u64 {
        self.published[colour.index()]
    }

    /// The newest stamp across all colours (reporting/lag metrics).
    #[must_use]
    pub fn max_stamp(&self) -> u64 {
        self.published.iter().copied().max().unwrap_or(0)
    }

    /// `(colour, stamp)` pairs with a non-zero stamp, in colour order.
    #[must_use]
    pub fn nonzero(&self) -> Vec<(Colour, u64)> {
        self.published
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s > 0)
            .map(|(i, &s)| (Colour::from_index(i), s))
            .collect()
    }

    /// True if `stamp` of `colour` is visible to this snapshot.
    #[must_use]
    pub fn sees(&self, colour: Colour, stamp: u64) -> bool {
        stamp == 0 || stamp <= self.stamp_for(colour)
    }
}

/// The commit-stamp clock: one global monotone counter plus the
/// per-colour published frontier snapshot readers capture.
#[derive(Debug)]
pub struct StampClock {
    next: AtomicU64,
    published: [AtomicU64; MAX_LIVE_COLOURS],
    /// Per-colour publication gates: a committer holds its colour's
    /// gate across allocate→append→publish so same-colour stamps enter
    /// chains in order and the published frontier never runs ahead of
    /// the chains (see module docs).
    gates: [CachePadded<Mutex<()>>; MAX_LIVE_COLOURS],
}

impl Default for StampClock {
    fn default() -> Self {
        StampClock::new()
    }
}

impl StampClock {
    /// A clock at stamp 0 with nothing published.
    #[must_use]
    pub fn new() -> Self {
        StampClock {
            next: AtomicU64::new(0),
            published: std::array::from_fn(|_| AtomicU64::new(0)),
            gates: std::array::from_fn(|_| CachePadded::default()),
        }
    }

    /// Locks `colour`'s publication gate for the allocate→append→publish
    /// window of one outermost commit.
    #[must_use]
    pub fn publish_guard(&self, colour: Colour) -> MutexGuard<'_, ()> {
        self.gates[colour.index()].lock()
    }

    /// Allocates the next commit stamp (globally monotone, starts at 1;
    /// 0 is reserved for base versions).
    #[must_use]
    pub fn allocate(&self) -> u64 {
        self.next.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The newest stamp allocated so far (0 before any commit).
    #[must_use]
    pub fn current(&self) -> u64 {
        self.next.load(Ordering::SeqCst)
    }

    /// Publishes `stamp` as `colour`'s frontier. Monotone: an older
    /// stamp never regresses a newer published one.
    pub fn publish(&self, colour: Colour, stamp: u64) {
        self.published[colour.index()].fetch_max(stamp, Ordering::SeqCst);
    }

    /// The published frontier of one colour.
    #[must_use]
    pub fn published_for(&self, colour: Colour) -> u64 {
        self.published[colour.index()].load(Ordering::SeqCst)
    }

    /// Captures the full published frontier as a snapshot stamp vector.
    #[must_use]
    pub fn capture(&self) -> SnapshotStamps {
        SnapshotStamps {
            published: std::array::from_fn(|i| self.published[i].load(Ordering::SeqCst)),
        }
    }
}

/// One committed version of an object. `state == None` is a tombstone:
/// the object did not exist at this stamp.
#[derive(Clone, Debug)]
struct Version {
    colour: Colour,
    stamp: u64,
    state: Option<StoreBytes>,
}

/// One shard of the chains.
#[derive(Debug, Default)]
struct ChainShard {
    /// Object → its versions, oldest first. Never empty: a chain starts
    /// with one version and a sweep always keeps the newest.
    chains: HashMap<ObjectId, Vec<Version>>,
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
        let chain = self.chains.entry(object).or_default();
        debug_assert!(
            chain.last().is_none_or(|v| v.stamp < version.stamp),
            "version stamps must be appended in increasing order"
        );
        chain.push(version);
        self.versions += 1;
        if chain.len() == 2 {
            self.multi.push(object);
        }
    }
}

/// How many of `chain`'s oldest versions no vector of `live` can select
/// (see [`VersionChains::collect`]). At most `chain.len() - 1`: the
/// newest version always stays.
fn reclaimable(chain: &[Version], live: &[SnapshotStamps]) -> usize {
    if live.is_empty() {
        return 0;
    }
    live.iter()
        .map(|stamps| {
            chain
                .iter()
                .rposition(|v| stamps.sees(v.colour, v.stamp))
                .unwrap_or(0)
        })
        .fold(chain.len().saturating_sub(1), usize::min)
}

/// What a snapshot read found in the chains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VisibleVersion {
    /// The newest version visible to the snapshot. `state == None`
    /// means the object did not exist at the snapshot's stamps.
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

/// The per-object version chains (sharded; all volatile).
#[derive(Debug)]
pub struct VersionChains {
    shards: Vec<CachePadded<Mutex<ChainShard>>>,
}

impl Default for VersionChains {
    fn default() -> Self {
        VersionChains::new()
    }
}

impl VersionChains {
    /// Empty chains.
    #[must_use]
    pub fn new() -> Self {
        VersionChains {
            shards: (0..SHARDS).map(|_| CachePadded::default()).collect(),
        }
    }

    fn shard(&self, object: ObjectId) -> &Mutex<ChainShard> {
        &self.shards[shard_index(object.as_raw(), SHARDS.trailing_zeros())]
    }

    /// Seeds `object`'s chain with a base version (stamp 0) holding
    /// `before` — the committing action's undo-log before-image —
    /// unless the object already has a chain. Idempotent. Must be
    /// called *before* the commit installs the new state in stable
    /// storage, so a concurrent snapshot reader can never fall through
    /// to stable and observe a state newer than its stamps.
    pub fn seed_base(&self, object: ObjectId, before: Option<StoreBytes>) {
        let mut shard = self.shard(object).lock();
        if !shard.chains.contains_key(&object) {
            shard.push(
                object,
                Version {
                    colour: Colour::from_index(0),
                    stamp: 0,
                    state: before,
                },
            );
        }
    }

    /// Appends the committed `state` of `object` as a `(colour, stamp)`
    /// version. Stamps must arrive in increasing order per object (the
    /// write lock serializes same-object commits; the publication gate
    /// orders same-colour stamps).
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

    /// The newest version of `object` visible to `stamps` (see module
    /// docs for the visibility rule).
    #[must_use]
    pub fn read_visible(&self, object: ObjectId, stamps: &SnapshotStamps) -> VisibleVersion {
        let shard = self.shard(object).lock();
        let Some(chain) = shard.chains.get(&object) else {
            return VisibleVersion::NoChain;
        };
        match chain.iter().rev().find(|v| stamps.sees(v.colour, v.stamp)) {
            Some(v) => VisibleVersion::Version {
                colour: v.colour,
                stamp: v.stamp,
                state: v.state.clone(),
            },
            // A chain always starts at a base (stamp 0) version, which
            // every snapshot sees; reaching here means the chain was
            // never seeded, and stable storage still holds the base.
            None => VisibleVersion::NoChain,
        }
    }

    /// Reclaims versions no live snapshot can reach. `live` must hold
    /// the stamp vector of every open snapshot *plus one fresh capture
    /// of the current frontier* (so the newest selectable version of
    /// each chain always survives for future readers). Per chain the
    /// kept range is the suffix from the oldest version any vector
    /// selects; a vector that selects nothing pins the whole chain
    /// (only possible mid-commit, before the publish). The sweep visits
    /// only the indexed chains of two or more versions and unindexes
    /// each one it leaves at one.
    pub fn collect(&self, live: &[SnapshotStamps]) -> GcStats {
        let mut stats = GcStats::default();
        for shard in &self.shards {
            let mut shard = shard.lock();
            let ChainShard {
                chains,
                multi,
                versions,
            } = &mut *shard;
            multi.retain(|object| {
                let chain = chains.get_mut(object).expect("an indexed chain exists");
                let reclaimed = reclaimable(chain, live);
                chain.drain(..reclaimed);
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
            .map_or(0, Vec::len)
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
        for shard in &self.shards {
            *shard.lock() = ChainShard::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    impl VersionChains {
        /// The sweep as it was before the multi-version index: every
        /// chain of every shard, `retained` summed from the chains
        /// themselves. The oracle [`VersionChains::collect`] is held to.
        fn collect_full_scan(&self, live: &[SnapshotStamps]) -> GcStats {
            let mut stats = GcStats::default();
            for shard in &self.shards {
                let mut shard = shard.lock();
                for chain in shard.chains.values_mut() {
                    let mut keep_from = chain.len().saturating_sub(1);
                    for stamps in live {
                        let selected = chain
                            .iter()
                            .rposition(|v| stamps.sees(v.colour, v.stamp))
                            .unwrap_or(0);
                        keep_from = keep_from.min(selected);
                    }
                    if live.is_empty() {
                        keep_from = 0;
                    }
                    stats.reclaimed += keep_from as u64;
                    chain.drain(..keep_from);
                    stats.retained += chain.len() as u64;
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
            for shard in &self.shards {
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
            }
        }
    }

    fn torture_seed() -> u64 {
        std::env::var("CHROMA_TORTURE_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
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

    #[test]
    fn clock_allocates_monotone_and_publishes_max() {
        let clock = StampClock::new();
        assert_eq!(clock.current(), 0);
        let s1 = clock.allocate();
        let s2 = clock.allocate();
        assert!(0 < s1 && s1 < s2);
        clock.publish(c(0), s2);
        clock.publish(c(0), s1); // older publish must not regress
        assert_eq!(clock.published_for(c(0)), s2);
        let captured = clock.capture();
        assert_eq!(captured.stamp_for(c(0)), s2);
        assert_eq!(captured.stamp_for(c(1)), 0);
        assert_eq!(captured.max_stamp(), s2);
    }

    #[test]
    fn snapshot_sees_base_and_at_or_below_its_stamp() {
        let stamps = SnapshotStamps::from_pairs(&[(c(0), 5), (c(1), 2)]);
        assert!(stamps.sees(c(0), 0));
        assert!(stamps.sees(c(0), 5));
        assert!(!stamps.sees(c(0), 6));
        assert!(stamps.sees(c(1), 2));
        assert!(!stamps.sees(c(1), 3));
        assert!(stamps.sees(c(2), 0));
        assert!(!stamps.sees(c(2), 1));
        assert_eq!(stamps.nonzero(), vec![(c(0), 5), (c(1), 2)]);
    }

    #[test]
    fn read_visible_picks_newest_at_or_below_stamp() {
        let chains = VersionChains::new();
        chains.seed_base(o(1), Some(b(10)));
        chains.append(o(1), c(0), 3, b(13));
        chains.append(o(1), c(0), 7, b(17));

        let old = SnapshotStamps::zero();
        let mid = SnapshotStamps::from_pairs(&[(c(0), 5)]);
        let new = SnapshotStamps::from_pairs(&[(c(0), 7)]);
        let read = |stamps: &SnapshotStamps| match chains.read_visible(o(1), stamps) {
            VisibleVersion::Version { stamp, state, .. } => (stamp, state),
            VisibleVersion::NoChain => panic!("chain exists"),
        };
        assert_eq!(read(&old), (0, Some(b(10))));
        assert_eq!(read(&mid), (3, Some(b(13))));
        assert_eq!(read(&new), (7, Some(b(17))));
    }

    #[test]
    fn visibility_is_per_colour() {
        let chains = VersionChains::new();
        chains.seed_base(o(1), Some(b(0)));
        chains.append(o(1), c(0), 2, b(2));
        chains.append(o(1), c(1), 5, b(5));
        // Sees colour 1 up to 5 but colour 0 not at all: the newest
        // visible version is the colour-1 one.
        let stamps = SnapshotStamps::from_pairs(&[(c(1), 5)]);
        match chains.read_visible(o(1), &stamps) {
            VisibleVersion::Version { colour, stamp, .. } => {
                assert_eq!((colour, stamp), (c(1), 5));
            }
            VisibleVersion::NoChain => panic!("chain exists"),
        }
    }

    #[test]
    fn tombstone_base_reports_absence_not_stable_fallback() {
        let chains = VersionChains::new();
        // Object created inside the committing action: before-image is
        // None, so snapshots older than the commit see a tombstone.
        chains.seed_base(o(9), None);
        chains.append(o(9), c(0), 4, b(44));
        match chains.read_visible(o(9), &SnapshotStamps::zero()) {
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
        match chains.read_visible(o(2), &SnapshotStamps::zero()) {
            VisibleVersion::Version {
                stamp: 0, state, ..
            } => assert_eq!(state, Some(b(1))),
            other => panic!("expected original base, got {other:?}"),
        }
    }

    #[test]
    fn missing_chain_reports_no_chain() {
        let chains = VersionChains::new();
        assert_eq!(
            chains.read_visible(o(7), &SnapshotStamps::zero()),
            VisibleVersion::NoChain
        );
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

        let live = SnapshotStamps::from_pairs(&[(c(0), 3)]);
        let current = SnapshotStamps::from_pairs(&[(c(0), 6)]);
        let stats = chains.collect(&[live.clone(), current.clone()]);
        // The live snapshot selects stamp 3; everything older goes.
        assert_eq!(chains.chain_len(o(1)), 4);
        assert_eq!(stats.reclaimed, 3);
        assert_eq!(stats.retained, 4);
        match chains.read_visible(o(1), &live) {
            VisibleVersion::Version { stamp, state, .. } => {
                assert_eq!((stamp, state), (3, Some(b(3))));
            }
            VisibleVersion::NoChain => panic!("live snapshot lost its version"),
        }

        // Snapshot closed: only the frontier pins versions now.
        let stats = chains.collect(&[current]);
        assert_eq!(chains.chain_len(o(1)), 1);
        assert_eq!(stats.retained, 1);
        match chains.read_visible(o(1), &SnapshotStamps::from_pairs(&[(c(0), 6)])) {
            VisibleVersion::Version { stamp, .. } => assert_eq!(stamp, 6),
            VisibleVersion::NoChain => panic!("newest version must survive"),
        }
    }

    #[test]
    fn collect_with_unpublished_tail_pins_whole_chain() {
        let chains = VersionChains::new();
        // Mid-commit: version appended but frontier not yet published —
        // a fresh capture selects nothing, which must pin the chain.
        chains.append(o(3), c(0), 9, b(9));
        let stats = chains.collect(&[SnapshotStamps::zero()]);
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
        assert_eq!(
            chains.read_visible(o(1), &SnapshotStamps::zero()),
            VisibleVersion::NoChain
        );
    }

    /// A random stamp vector over `colours` colours, each stamp in
    /// `low..=high` (an unseeded chain whose first stamp is above it
    /// has nothing the vector selects).
    fn random_stamps(rng: &mut StdRng, colours: usize, low: u64, high: u64) -> SnapshotStamps {
        let pairs: Vec<(Colour, u64)> = (0..colours)
            .map(|i| (c(i), rng.gen_range(low..=high)))
            .collect();
        SnapshotStamps::from_pairs(&pairs)
    }

    /// Every colour at `clock`: what a fresh capture reads once every
    /// stamp so far is published.
    fn frontier(clock: u64) -> SnapshotStamps {
        SnapshotStamps::from_pairs(&[(c(0), clock), (c(1), clock), (c(2), clock)])
    }

    /// The indexed sweep against the full-scan oracle over a seeded
    /// history (`CHROMA_TORTURE_SEED`): bases (tombstones included),
    /// appends with and without a base, sweeps against random live
    /// vectors (none at all, the zero vector, vectors selecting nothing
    /// of a chain) and crashes, interleaved. After every step both sides must report
    /// the same `GcStats` and serve every object the same version.
    #[test]
    fn indexed_collect_matches_full_scan_oracle() {
        const COLOURS: usize = 3;
        let seed = torture_seed();
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
                    // Open snapshots, mostly recent ones; the runtime's
                    // fresh capture of the frontier, nearly always; now
                    // and then the zero vector.
                    let mut live: Vec<SnapshotStamps> = (0..rng.gen_range(0..=2usize))
                        .map(|_| random_stamps(&mut rng, COLOURS, clock.saturating_sub(16), clock))
                        .collect();
                    if rng.gen_bool(0.85) {
                        live.push(frontier(clock));
                    }
                    if rng.gen_bool(0.1) {
                        live.push(SnapshotStamps::zero());
                    }
                    let got = indexed.collect(&live);
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
            let probes = [
                SnapshotStamps::zero(),
                random_stamps(&mut rng, COLOURS, 0, clock),
                frontier(clock),
            ];
            for &object in &objects {
                assert_eq!(
                    indexed.chain_len(object),
                    oracle.chain_len(object),
                    "seed {seed} step {step}: chain of {object:?} differs"
                );
                for stamps in &probes {
                    assert_eq!(
                        indexed.read_visible(object, stamps),
                        oracle.read_visible(object, stamps),
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
        let stats = chains.collect(&[SnapshotStamps::from_pairs(&[(c(0), 2)])]);
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
