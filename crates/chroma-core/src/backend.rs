//! Pluggable permanence: where outermost-coloured commits go.
//!
//! The paper's trial implementation was non-distributed, with the
//! stated plan "to embark on building a distributed version". Chroma
//! keeps the runtime identical in both deployments by routing the
//! *permanence of effect* step — flushing a colour's updates atomically
//! when its outermost action commits — through this trait:
//!
//! * [`LocalBackend`] installs batches into a single node's in-memory
//!   map (the paper's trial setup);
//! * [`DiskBackend`] writes them through [`DiskStore`]'s intentions
//!   log to a real directory;
//! * `chroma-dist`'s `PartitionedStore` installs them into object
//!   stores spread over simulated fail-silent nodes, using two-phase
//!   commit with replication (the distributed version).

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use chroma_base::ObjectId;
use chroma_obs::Observable;
use chroma_store::{DiskError, DiskStore, DiskStoreOptions, Fs, StoreBytes};
use parking_lot::RwLock;

/// Errors a permanence backend can report.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BackendError {
    /// The backend could not reach enough object stores to install the
    /// batch atomically (e.g. every replica of a partition is down).
    Unavailable(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Unavailable(why) => {
                write!(f, "permanence backend unavailable: {why}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// The permanence-of-effect sink: atomic, crash-surviving installation
/// of committed object states.
///
/// Implementations must make `commit_batch` atomic (all updates or
/// none survive any crash) and `recover` idempotent.
///
/// Backends are [`Observable`]: installing a handle lets a backend
/// that writes a log report it (the disk store's `disk_*` and segment
/// events). Backends without instrumentation implement it as a no-op.
pub trait PermanenceBackend: Send + Sync + Observable {
    /// Atomically installs a batch of committed object states.
    ///
    /// # Errors
    ///
    /// [`BackendError::Unavailable`] if atomic installation is
    /// currently impossible; the caller keeps the action active so the
    /// commit can be retried.
    fn commit_batch(&self, updates: Vec<(ObjectId, StoreBytes)>) -> Result<(), BackendError>;

    /// Returns the last committed state of `object`, if any.
    fn read(&self, object: ObjectId) -> Option<StoreBytes>;

    /// Returns `true` if `object` has a committed state.
    fn contains(&self, object: ObjectId) -> bool {
        self.read(object).is_some()
    }

    /// Runs crash recovery after [`Runtime::crash_and_recover`] wiped
    /// the volatile state. The default does nothing: a backend whose
    /// commits are atomic in memory, or that recovers when it is
    /// opened, has nothing left to do.
    ///
    /// [`Runtime::crash_and_recover`]: crate::Runtime::crash_and_recover
    fn recover(&self) {}

    /// The highest [`ObjectId`] with committed state, if the backend can
    /// tell. A runtime opened over a pre-existing store continues object
    /// allocation *after* this id, so new objects never collide with
    /// persisted ones. `None` (the default) means "empty or unknown".
    fn max_object(&self) -> Option<ObjectId> {
        None
    }

    /// Instantaneous depth of the backend's commit queue (batches
    /// waiting behind a group-commit leader), for live gauges. `0`
    /// (the default) for backends that install synchronously.
    fn queue_depth(&self) -> u64 {
        0
    }

    /// Committed batches not yet folded into a checkpoint by a
    /// background checkpointer, for live gauges. `0` (the default)
    /// for backends that install on the commit path.
    fn checkpoint_backlog(&self) -> u64 {
        0
    }
}

/// Single-node permanence: an in-memory atomic map of installed
/// states, which a simulated crash never touches. The default backend
/// of [`Runtime`](crate::Runtime). It writes no log, so it reports
/// nothing: its [`Observable`] impl is a no-op.
///
/// Simulated nodes keep their stable state in a [`DiskStore`] over an
/// in-memory disk that can crash; this backend stays a plain map. On
/// such a disk a preloaded runtime would hold every value twice (the
/// disk's bytes next to its version chains), a cost nobody has measured
/// against the in-memory workloads' memory bound.
#[derive(Debug, Default)]
pub struct LocalBackend {
    pages: RwLock<HashMap<ObjectId, StoreBytes>>,
}

impl LocalBackend {
    /// Creates an empty local backend.
    #[must_use]
    pub fn new() -> Self {
        LocalBackend::default()
    }
}

impl PermanenceBackend for LocalBackend {
    fn commit_batch(&self, updates: Vec<(ObjectId, StoreBytes)>) -> Result<(), BackendError> {
        self.pages.write().extend(updates);
        Ok(())
    }

    fn read(&self, object: ObjectId) -> Option<StoreBytes> {
        self.pages.read().get(&object).cloned()
    }

    fn max_object(&self) -> Option<ObjectId> {
        self.pages.read().keys().copied().max()
    }
}

impl Observable for LocalBackend {
    fn install_obs(&self, _obs: chroma_obs::Obs) {}
}

/// Disk-backed permanence: outermost-coloured commits go to a real
/// directory through [`DiskStore`]'s write-ahead intentions log — true
/// on-disk durability for non-simulated deployments.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use chroma_core::{DiskBackend, Runtime, RuntimeConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join(format!("chroma-backend-doc-{}", std::process::id()));
/// let rt = Runtime::builder()
///     .config(RuntimeConfig::default())
///     .backend(Arc::new(DiskBackend::open(&dir)?))
///     .build();
/// let o = rt.create_object(&5i64)?;
/// rt.atomic(|a| a.modify(o, |v: &mut i64| *v *= 2))?;
/// assert_eq!(rt.read_committed::<i64>(o)?, 10);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DiskBackend {
    store: DiskStore,
}

impl DiskBackend {
    /// Opens (creating if necessary) a disk-backed backend in `dir`,
    /// running crash recovery.
    ///
    /// # Errors
    ///
    /// Filesystem failures or log corruption
    /// ([`chroma_store::DiskError`]).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, DiskError> {
        Ok(DiskBackend {
            store: DiskStore::open(dir)?,
        })
    }

    /// Opens (creating if necessary) a disk-backed backend in `dir` on
    /// the filesystem `fs` with `options`, running crash recovery
    /// ([`DiskStore::open_fs`]). Over a [`MemFs`](chroma_store::MemFs),
    /// a reopen after [`MemFs::crash`](chroma_store::MemFs::crash) is
    /// the restart after a power loss.
    ///
    /// # Errors
    ///
    /// As [`open`](DiskBackend::open).
    pub fn open_with(
        fs: Arc<dyn Fs>,
        dir: impl AsRef<Path>,
        options: DiskStoreOptions,
    ) -> Result<Self, DiskError> {
        Ok(DiskBackend {
            store: DiskStore::open_fs(fs, dir, options)?,
        })
    }

    /// Returns the underlying disk store.
    #[must_use]
    pub fn store(&self) -> &DiskStore {
        &self.store
    }
}

impl PermanenceBackend for DiskBackend {
    fn commit_batch(&self, updates: Vec<(ObjectId, StoreBytes)>) -> Result<(), BackendError> {
        self.store
            .commit_batch(updates)
            .map_err(|e| BackendError::Unavailable(e.to_string()))
    }

    fn read(&self, object: ObjectId) -> Option<StoreBytes> {
        self.store.read(object).ok().flatten()
    }

    fn max_object(&self) -> Option<ObjectId> {
        self.store.object_ids().ok()?.into_iter().max()
    }

    fn queue_depth(&self) -> u64 {
        self.store.group_queue_depth()
    }

    fn checkpoint_backlog(&self) -> u64 {
        self.store.checkpoint_backlog()
    }
}

impl Observable for DiskBackend {
    fn install_obs(&self, obs: chroma_obs::Obs) {
        self.store.install_obs(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_backend_forwards_obs() {
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("chroma-backend-obs-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let backend = DiskBackend::open(&dir).unwrap();
        let bus = Arc::new(chroma_obs::EventBus::new());
        backend.install_obs(chroma_obs::Obs::new(bus.clone()));
        backend
            .commit_batch(vec![(ObjectId::from_raw(1), StoreBytes::from(vec![1]))])
            .unwrap();
        assert_eq!(bus.counter("disk_append"), 1, "obs must reach the store");
        assert_eq!(
            backend.checkpoint_backlog(),
            1,
            "install is off the commit path"
        );
        backend.store().checkpoint_now().unwrap();
        assert_eq!(bus.counter("checkpoint_end"), 1);
        assert_eq!(backend.checkpoint_backlog(), 0);
        assert!(bus.snapshot().histogram("store.fsync_us").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_runtime_on_memfs_keeps_exactly_its_commits_across_a_power_loss() {
        use crate::{ActionError, Runtime, RuntimeConfig};
        use chroma_store::MemFs;

        let disk = MemFs::new();
        let open = || {
            DiskBackend::open_with(Arc::new(disk.clone()), "node", DiskStoreOptions::default())
                .unwrap()
        };
        let runtime = |backend: DiskBackend| {
            Runtime::builder()
                .config(RuntimeConfig::default())
                .backend(Arc::new(backend))
                .build()
        };
        let rt = runtime(open());
        let a = rt.create_object(&1i64).unwrap();
        let b = rt.create_object(&2i64).unwrap();
        rt.atomic(|s| {
            s.modify(a, |v: &mut i64| *v += 10)?;
            s.modify(b, |v: &mut i64| *v += 20)
        })
        .unwrap();
        let created = rt.atomic(|s| s.create(&7i64)).unwrap();
        // An aborted action leaves nothing behind.
        let aborted: Result<(), ActionError> = rt.atomic(|s| {
            s.modify(a, |v: &mut i64| *v = -1)?;
            s.create(&-1i64)?;
            Err(ActionError::failed("abort"))
        });
        assert!(aborted.is_err());
        drop(rt);

        disk.crash();
        let backend = open();
        let mut held = backend.store().object_ids().unwrap();
        held.sort_unstable();
        assert_eq!(held, vec![a, b, created], "exactly the committed objects");
        let rt = runtime(backend);
        assert_eq!(rt.read_committed::<i64>(a).unwrap(), 11);
        assert_eq!(rt.read_committed::<i64>(b).unwrap(), 22);
        assert_eq!(rt.read_committed::<i64>(created).unwrap(), 7);
        // The reopened runtime numbers new objects past the recovered ones.
        assert!(rt.create_object(&0i64).unwrap() > created);
    }

    #[test]
    fn local_backend_round_trips() {
        let backend = LocalBackend::new();
        let o = ObjectId::from_raw(1);
        backend
            .commit_batch(vec![(o, StoreBytes::from(vec![5]))])
            .unwrap();
        assert!(backend.contains(o));
        assert_eq!(backend.read(o).as_deref(), Some(&[5u8][..]));
        backend.recover();
        assert_eq!(backend.read(o).as_deref(), Some(&[5u8][..]));
    }

    #[test]
    fn local_backend_overwrites_and_emits_nothing() {
        let backend = LocalBackend::new();
        let bus = std::sync::Arc::new(chroma_obs::EventBus::new());
        backend.install_obs(chroma_obs::Obs::new(bus.clone()));
        let (o1, o2) = (ObjectId::from_raw(1), ObjectId::from_raw(2));
        backend
            .commit_batch(vec![
                (o1, StoreBytes::from(vec![1])),
                (o2, StoreBytes::from(vec![2])),
            ])
            .unwrap();
        backend
            .commit_batch(vec![(o1, StoreBytes::from(vec![3]))])
            .unwrap();
        backend.commit_batch(Vec::new()).unwrap();
        assert_eq!(backend.read(o1).as_deref(), Some(&[3u8][..]));
        assert_eq!(backend.max_object(), Some(o2));
        // an in-memory map writes no log, so it reports no storage
        // event (nor any other)
        let emitted: u64 = bus.snapshot().counters.iter().map(|&(_, n)| n).sum();
        assert_eq!(emitted, 0);
    }

    #[test]
    fn backend_error_displays() {
        let e = BackendError::Unavailable("all replicas down".into());
        assert!(e.to_string().contains("all replicas down"));
    }
}
