//! A disk-backed stable store: the intentions-list protocol persisted
//! to a real directory as a **segmented intentions log** under a tiny
//! manifest.
//!
//! `DiskStore` is the one stable storage every node has: updates go
//! through a write-ahead intentions log that is fsynced before the
//! commit marker, and [`DiskStore::open`] replays the log — completing
//! committed batches and discarding uncommitted ones — so a crash at
//! any point leaves an all-or-nothing outcome. It runs over an
//! [`Fs`]: [`OsFs`](crate::OsFs) for a real directory, or
//! [`MemFs`](crate::MemFs) for a simulated node, whose
//! [`crash`](crate::MemFs::crash) drops whatever no fsync made
//! durable before the same recovery runs.
//!
//! # Segments and the manifest
//!
//! The log is a sequence of immutable *segments*. Appends go to the
//! single active segment; when it passes
//! [`DiskStoreOptions::segment_bytes`] it is *sealed*: a fresh segment
//! file is created and fsynced, and the `MANIFEST` file — the
//! authoritative, ordered list of live segments — is atomically
//! rewritten (write temp, fsync, rename, fsync directory) to include
//! it. A segment is in the manifest before any commit lands in it, and
//! a batch's intents and marker never span segments (seals happen only
//! between group flushes), so every segment carries a self-contained
//! set of committed batches.
//!
//! # Checkpointing and GC
//!
//! Object installs are **off the commit path**. A committed batch's
//! states are published to an in-memory tail map (reads consult it
//! first); a background checkpointer thread folds fully-committed
//! sealed segments into `objects/` — write-temp + rename per object,
//! then one `objects/` directory fsync — and commits the fold by
//! rewriting the manifest without them. Only then are the segment
//! files deleted, so GC always trails the checkpoint watermark: a
//! crash anywhere leaves either segments the manifest still owns
//! (recovery replays them again) or orphan files the manifest never
//! meant (swept on open, never replayed).
//!
//! # Recovery
//!
//! Recovery replays **exactly the manifest's live suffix**, each
//! segment once through a bounded-buffer reader, into the same
//! in-memory tail the commit path keeps: read, CRC, decode — no object
//! installs, no fsyncs. Every live segment stays live. The last one
//! stays the active segment and appends continue in it (a torn tail is
//! trimmed off first — the only write recovery makes), and the sealed
//! ones fold in the background exactly as they would have before the
//! crash. Replay work is bounded by what was committed since the last
//! checkpoint, not by history. A failed fold poisons the store (later
//! commits and checkpoints fail until reopen), because nothing else
//! would ever fold the tail.
//!
//! # Group commit
//!
//! Concurrent committers do not serialise through two fsyncs each.
//! Arriving batches join a *pending group*; the first arrival becomes
//! the leader and drains the whole queue, appending every batch's
//! intents, paying **one** intents-fsync, appending one commit marker
//! *per batch* (so the commit point stays per-batch and recovery stays
//! all-or-nothing for each), then paying **one** marker-fsync for the
//! lot. Followers park on a condvar until the leader posts their
//! batch's outcome. Under contention the amortised fsync cost per
//! batch approaches 2/N; a lone committer pays exactly the old two.
//! Each flushed group emits a `DiskGroupCommit` event and feeds the
//! `store.group_size` histogram.
//!
//! # Log format
//!
//! Every segment opens with the 8-byte magic `CHLOG001`; each record
//! is then framed `[len: u32 LE][payload][crc32: u32 LE]`, the
//! checksum taken over length prefix and payload (CRC-32/IEEE, zlib
//! convention). A complete record whose checksum mismatches is
//! corruption within the committed prefix and fails `open`; an
//! incomplete record at the tail is a torn append and is discarded.
//! A segment that does not open with the magic is corruption too (a
//! file shorter than the magic that is a prefix of it is a torn
//! creation and holds no records). The pre-segment layout — a single
//! `log` file and no `MANIFEST` — is refused with `CorruptLog`, never
//! opened as empty.
//!
//! Layout inside the store directory:
//!
//! ```text
//! store/
//! ├── MANIFEST              the ordered live-segment list (atomic
//! │                         temp + rename + dir-fsync)
//! ├── segments/
//! │   └── seg-<seq>.log     CRC-framed intentions (magic CHLOG001)
//! └── objects/
//!     └── o<id>.bin         checkpointed state of each object
//! ```

use std::collections::{HashMap, HashSet};
use std::io::{self, Read as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use chroma_base::ObjectId;
use chroma_obs::{EventKind, Obs, ObsCell, Observable};
use parking_lot::{Condvar, Mutex};

use crate::codec::{self, Stored};
use crate::crc32::crc32;
use crate::fs::{Fs, FsFile, OsFs};
use crate::StoreBytes;

/// Magic prefix identifying the checksummed log format.
const LOG_MAGIC: &[u8; 8] = b"CHLOG001";

/// First line of the `MANIFEST` file.
const MANIFEST_MAGIC: &str = "CHMAN001";

/// Errors from the disk store.
#[derive(Debug)]
#[non_exhaustive]
pub enum DiskError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The log or manifest contained a record that failed to decode or
    /// checksum (corruption past the last valid record is tolerated
    /// and truncated; this is corruption *within* the committed
    /// prefix).
    CorruptLog(String),
    /// A fault-injection commit stopped at the requested crash point
    /// ([`DiskStore::commit_batch_with_crash`]); the directory is left
    /// exactly as a process crash there would leave it.
    Crashed(DiskCrashPoint),
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Io(e) => write!(f, "disk store I/O failure: {e}"),
            DiskError::CorruptLog(what) => write!(f, "corrupt intentions log: {what}"),
            DiskError::Crashed(point) => write!(f, "simulated crash at {point:?}"),
        }
    }
}

impl std::error::Error for DiskError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiskError::Io(e) => Some(e),
            DiskError::CorruptLog(_) | DiskError::Crashed(_) => None,
        }
    }
}

/// Where [`DiskStore::commit_batch_with_crash`] abandons the commit.
/// The store is left on disk exactly as a process crash at that point
/// would leave it; re-`open`ing runs recovery.
///
/// Because committers share group flushes, an injected crash fails the
/// *whole* group (every batch sharing the flush gets
/// [`DiskError::Crashed`]) and poisons the store: subsequent commits
/// fail too, as they would against a dead process.
///
/// The seal and checkpoint points force the corresponding maintenance
/// step right after the batch commits, then die inside it — the batch
/// itself is durable at all of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskCrashPoint {
    /// Before any intent reaches the log: the batch simply never
    /// happened.
    BeforeIntents,
    /// After the intents are appended and fsynced but before the
    /// commit marker: recovery must discard the batch.
    AfterIntents,
    /// After the commit marker is fsynced (the commit point) but
    /// before the committed states are published to the in-memory
    /// tail: recovery must complete the batch.
    AfterCommitRecord,
    /// After the committed states are published to the tail (the end
    /// of the commit path): recovery rebuilds the tail from the log.
    AfterInstall,
    /// Mid-seal: the next segment file exists and is synced, but the
    /// manifest still ends at the old active segment — the new file is
    /// an orphan recovery must sweep, never replay.
    SealBeforeManifest,
    /// After a seal completed (the manifest lists the new active
    /// segment).
    AfterSeal,
    /// Mid-checkpoint: folded states are installed in `objects/`, but
    /// the manifest still lists the folded segments — recovery
    /// replays them into the tail again and the fold is redone.
    CheckpointBeforeManifest,
    /// After the manifest dropped the folded segments but before their
    /// files were deleted: the files are orphans recovery must sweep
    /// without replaying.
    CheckpointBeforeGc,
}

/// Commit-protocol stage order, for picking the earliest injected
/// crash in a group.
fn crash_stage(point: DiskCrashPoint) -> u8 {
    match point {
        DiskCrashPoint::BeforeIntents => 0,
        DiskCrashPoint::AfterIntents => 1,
        DiskCrashPoint::AfterCommitRecord => 2,
        DiskCrashPoint::AfterInstall => 3,
        DiskCrashPoint::SealBeforeManifest => 4,
        DiskCrashPoint::AfterSeal => 5,
        DiskCrashPoint::CheckpointBeforeManifest => 6,
        DiskCrashPoint::CheckpointBeforeGc => 7,
    }
}

impl From<io::Error> for DiskError {
    fn from(e: io::Error) -> Self {
        DiskError::Io(e)
    }
}

/// Tuning knobs for [`DiskStore::open_with`].
#[derive(Clone, Copy, Debug)]
pub struct DiskStoreOptions {
    /// Seal the active segment once its record payload passes this
    /// many bytes.
    pub segment_bytes: u64,
    /// Run the background checkpointer thread. Disable for tests and
    /// benchmarks that want deterministic, explicit
    /// [`DiskStore::checkpoint_now`] calls.
    pub auto_checkpoint: bool,
}

impl Default for DiskStoreOptions {
    fn default() -> Self {
        DiskStoreOptions {
            segment_bytes: 1 << 20,
            auto_checkpoint: true,
        }
    }
}

/// What [`DiskStore::open`] replayed from the manifest's live suffix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Committed batches rebuilt into the in-memory tail.
    pub batches: u64,
    /// Log records decoded (committed or not).
    pub records: u64,
    /// Distinct objects those batches left in the tail.
    pub objects: u64,
}

crate::stored! {
    /// One framed record in the on-disk intentions log.
    #[derive(Debug)]
    enum DiskRecord {
        Intent {
            batch: u64,
            object: u64,
            state: Vec<u8>,
        },
        Commit {
            batch: u64,
        },
    }
}

/// A batch waiting in the pending group for a leader to flush it.
struct PendingBatch {
    id: u64,
    updates: Vec<(ObjectId, StoreBytes)>,
    crash: Option<DiskCrashPoint>,
}

/// Why a store refuses all further work until it is reopened.
#[derive(Clone, Debug)]
enum Poison {
    /// An injected crash killed the "process".
    Crashed(DiskCrashPoint),
    /// A real I/O failure in a group flush or a checkpoint: what
    /// reached disk past it is unknown, so only a replay can vouch for
    /// the store again.
    Io(String),
}

impl Poison {
    fn error(&self) -> DiskError {
        match self {
            Poison::Crashed(point) => DiskError::Crashed(*point),
            Poison::Io(msg) => DiskError::Io(io::Error::other(msg.clone())),
        }
    }
}

/// How a flushed batch fared — clonable so one flush outcome fans out
/// to every follower in the group.
#[derive(Clone)]
enum GroupOutcome {
    Done,
    /// The flush failed and took the store down with it.
    Poisoned(Poison),
    /// The log refused a record; the store itself is unharmed.
    Corrupt(String),
}

impl GroupOutcome {
    fn into_result(self) -> Result<(), DiskError> {
        match self {
            GroupOutcome::Done => Ok(()),
            GroupOutcome::Poisoned(poison) => Err(poison.error()),
            GroupOutcome::Corrupt(msg) => Err(DiskError::CorruptLog(msg)),
        }
    }
}

/// The pending-group state committers coordinate through.
struct GroupState {
    /// Next batch id to hand out.
    next_batch: u64,
    /// Batches enqueued and not yet flushed.
    queue: Vec<PendingBatch>,
    /// Flush outcomes awaiting pickup, by batch id.
    results: HashMap<u64, GroupOutcome>,
    /// A leader is currently draining the queue.
    leader_active: bool,
    /// A crash or an I/O failure killed the store; every later commit
    /// and checkpoint fails with it until reopen.
    poisoned: Option<Poison>,
}

impl std::fmt::Debug for GroupState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupState")
            .field("next_batch", &self.next_batch)
            .field("queued", &self.queue.len())
            .field("leader_active", &self.leader_active)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

/// One live segment's bookkeeping.
#[derive(Clone, Copy, Debug)]
struct SegmentInfo {
    seq: u64,
    /// Batches committed into this segment.
    batches: u64,
    /// Record payload bytes appended (past the magic).
    bytes: u64,
    /// Highest batch id committed into this segment.
    max_batch: u64,
}

/// Segment + manifest state. The group-commit leader holds this across
/// a flush; the checkpointer takes it briefly to rewrite the manifest.
#[derive(Debug)]
struct WalState {
    /// Live segments in manifest order; the last is the active one.
    segments: Vec<SegmentInfo>,
    /// Append handle to the active segment.
    active: Box<dyn FsFile>,
}

/// Checkpointer wakeup state.
#[derive(Debug)]
struct CkptState {
    shutdown: bool,
    kicks: u64,
}

/// Everything the store and its checkpointer thread share.
#[derive(Debug)]
struct Shared {
    fs: Arc<dyn Fs>,
    dir: PathBuf,
    opts: DiskStoreOptions,
    /// Group-commit coordination: queue, outcomes, leader election.
    group: Mutex<GroupState>,
    /// Followers park here until the leader posts their outcome.
    group_changed: Condvar,
    wal: Mutex<WalState>,
    /// Committed-but-not-yet-checkpointed newest state per object,
    /// tagged with the committing batch id.
    tail: Mutex<HashMap<u64, (u64, StoreBytes)>>,
    /// Serialises checkpoints (background thread vs `checkpoint_now`).
    ckpt_run: Mutex<()>,
    ckpt: Mutex<CkptState>,
    /// Wakes the checkpointer on seal or shutdown.
    ckpt_signal: Condvar,
    /// Batches committed but not yet folded behind the watermark.
    backlog: AtomicU64,
    /// Fsyncs paid on the active segment (two per flushed group, one
    /// for a torn-tail trim at open).
    log_fsyncs: AtomicU64,
    /// Directory fsyncs (manifest renames, segment creation, object
    /// installs).
    dir_fsyncs: AtomicU64,
    obs: ObsCell,
    /// Replay stats from `open`, kept for inspection.
    recovered: ReplayStats,
    /// Replay stats held until tracing is installed — recovery runs
    /// before any bus can exist.
    pending_replay: Mutex<Option<ReplayStats>>,
}

/// A crash-safe object store over an [`Fs`]: the local filesystem or an
/// in-memory disk.
///
/// # Examples
///
/// ```
/// use chroma_base::ObjectId;
/// use chroma_store::{DiskStore, StoreBytes};
///
/// # fn main() -> Result<(), chroma_store::DiskError> {
/// let dir = std::env::temp_dir().join(format!("chroma-doc-{}", std::process::id()));
/// let store = DiskStore::open(&dir)?;
/// let o = ObjectId::from_raw(1);
/// store.commit_batch(vec![(o, StoreBytes::from(vec![7]))])?;
///
/// // Re-open (as after a process restart): the state is still there.
/// drop(store);
/// let store = DiskStore::open(&dir)?;
/// assert_eq!(store.read(o)?.as_deref(), Some(&[7u8][..]));
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
///
/// A `DiskStore` is a cheap shared handle: clones commit to and read
/// from the same store, and the background checkpointer is joined when
/// the last clone drops.
#[derive(Clone, Debug)]
pub struct DiskStore {
    shared: Arc<Shared>,
    /// Held only so the last clone to drop joins the thread.
    _checkpointer: Arc<Checkpointer>,
}

/// The background checkpointer thread, joined on drop.
#[derive(Debug)]
struct Checkpointer {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        if let Some(handle) = self.thread.take() {
            self.shared.ckpt.lock().shutdown = true;
            self.shared.ckpt_signal.notify_all();
            let _ = handle.join();
        }
    }
}

impl DiskStore {
    /// Opens (creating if necessary) a store in `dir` with default
    /// options, running crash recovery on the manifest's live suffix.
    ///
    /// # Errors
    ///
    /// I/O failures, or corruption within a live segment's committed
    /// prefix.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, DiskError> {
        Self::open_with(dir, DiskStoreOptions::default())
    }

    /// [`open`](DiskStore::open) with explicit [`DiskStoreOptions`].
    ///
    /// # Errors
    ///
    /// I/O failures, or corruption within a live segment's committed
    /// prefix.
    pub fn open_with(dir: impl AsRef<Path>, opts: DiskStoreOptions) -> Result<Self, DiskError> {
        Self::open_fs(Arc::new(OsFs), dir, opts)
    }

    /// [`open_with`](DiskStore::open_with) over the filesystem `fs`.
    ///
    /// # Errors
    ///
    /// As [`open`](DiskStore::open).
    pub fn open_fs(
        fs: Arc<dyn Fs>,
        dir: impl AsRef<Path>,
        opts: DiskStoreOptions,
    ) -> Result<Self, DiskError> {
        let dir = dir.as_ref().to_path_buf();
        let recovered = recover(&*fs, &dir)?;
        // Sealed segments survived the crash unfolded: hand them to the
        // checkpointer as their seals would have.
        let sealed_live = recovered.segments.len() > 1;
        let shared = Arc::new(Shared {
            fs,
            dir,
            opts,
            group: Mutex::new(GroupState {
                next_batch: recovered.max_batch + 1,
                queue: Vec::new(),
                results: HashMap::new(),
                leader_active: false,
                poisoned: None,
            }),
            group_changed: Condvar::new(),
            wal: Mutex::new(WalState {
                segments: recovered.segments,
                active: recovered.active_file,
            }),
            tail: Mutex::new(recovered.tail),
            ckpt_run: Mutex::new(()),
            ckpt: Mutex::new(CkptState {
                shutdown: false,
                kicks: u64::from(sealed_live),
            }),
            ckpt_signal: Condvar::new(),
            backlog: AtomicU64::new(recovered.stats.batches),
            log_fsyncs: AtomicU64::new(recovered.log_fsyncs),
            dir_fsyncs: AtomicU64::new(recovered.dir_fsyncs),
            obs: ObsCell::new(),
            recovered: recovered.stats,
            pending_replay: Mutex::new((recovered.stats.records > 0).then_some(recovered.stats)),
        });
        let thread = if opts.auto_checkpoint {
            let thread_shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("chroma-checkpointer".into())
                    .spawn(move || checkpointer_loop(&thread_shared))
                    .map_err(DiskError::Io)?,
            )
        } else {
            None
        };
        Ok(DiskStore {
            _checkpointer: Arc::new(Checkpointer {
                shared: Arc::clone(&shared),
                thread,
            }),
            shared,
        })
    }

    /// Returns `true` if `other` is a handle on this same store (a
    /// clone), not merely a store over the same directory.
    #[must_use]
    pub fn same_store(&self, other: &DiskStore) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// Total fsyncs paid on the active segment since `open` — two per
    /// flushed group, so `log_fsync_count() / commits` is the
    /// amortised cost group commit exists to shrink, plus one if `open`
    /// trimmed a torn tail. Seal, manifest and install fsyncs are not
    /// counted (see [`dir_fsync_count`](DiskStore::dir_fsync_count)).
    #[must_use]
    pub fn log_fsync_count(&self) -> u64 {
        self.shared.log_fsyncs.load(Ordering::Relaxed)
    }

    /// Directory fsyncs paid since `open`: after every manifest
    /// rename, segment-file creation, and batch of object installs —
    /// the metadata syncs that make renames durable across power loss.
    #[must_use]
    pub fn dir_fsync_count(&self) -> u64 {
        self.shared.dir_fsyncs.load(Ordering::Relaxed)
    }

    /// Batches currently queued behind the group-commit leader — the
    /// instantaneous depth of the follower queue, 0 when the log is
    /// idle.
    #[must_use]
    pub fn group_queue_depth(&self) -> u64 {
        self.shared.group.lock().queue.len() as u64
    }

    /// Batches committed but not yet folded into `objects/` behind the
    /// checkpoint watermark — the recovery replay debt a crash right
    /// now would pay.
    #[must_use]
    pub fn checkpoint_backlog(&self) -> u64 {
        self.shared.backlog.load(Ordering::Relaxed)
    }

    /// What `open` replayed from the manifest's live suffix (zeros for
    /// a fresh or fully-checkpointed store).
    #[must_use]
    pub fn replay_stats(&self) -> ReplayStats {
        self.shared.recovered
    }

    /// The manifest's live segment files for the store at `dir`,
    /// oldest first — the last is the active segment. Works without an
    /// open store (e.g. against a crashed directory); empty if no
    /// manifest exists yet.
    ///
    /// # Errors
    ///
    /// I/O failures, or a corrupt manifest.
    pub fn live_segment_paths(dir: impl AsRef<Path>) -> Result<Vec<PathBuf>, DiskError> {
        let dir = dir.as_ref();
        let seqs = read_manifest(&OsFs, dir)?.unwrap_or_default();
        Ok(seqs
            .into_iter()
            .map(|seq| dir.join("segments").join(segment_file_name(seq)))
            .collect())
    }

    /// Reads the newest committed state of `object` — from the
    /// in-memory tail if the batch is not yet checkpointed, else from
    /// `objects/`.
    ///
    /// # Errors
    ///
    /// I/O failures other than not-found.
    pub fn read(&self, object: ObjectId) -> Result<Option<StoreBytes>, DiskError> {
        if let Some((_, state)) = self.shared.tail.lock().get(&object.as_raw()) {
            return Ok(Some(state.clone()));
        }
        match self.shared.fs.read(&self.shared.object_path(object)) {
            Ok(bytes) => Ok(Some(StoreBytes::from(bytes))),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Returns the ids of all committed objects (checkpointed or still
    /// in the tail), unordered.
    ///
    /// # Errors
    ///
    /// I/O failures listing the objects directory.
    pub fn object_ids(&self) -> Result<Vec<ObjectId>, DiskError> {
        let mut ids: HashSet<u64> = self.shared.tail.lock().keys().copied().collect();
        for name in self.shared.fs.list(&self.shared.dir.join("objects"))? {
            if let Some(raw) = name
                .strip_prefix('o')
                .and_then(|rest| rest.strip_suffix(".bin"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                ids.insert(raw);
            }
        }
        Ok(ids.into_iter().map(ObjectId::from_raw).collect())
    }

    /// Atomically commits a batch of updates: intents are appended and
    /// fsynced, the commit marker is appended and fsynced (the commit
    /// point), then the states are published to the in-memory tail —
    /// installs into `objects/` happen later, on the checkpointer.
    /// Concurrent callers share those fsyncs via group commit (see the
    /// module docs); each batch keeps its own commit marker, so
    /// atomicity is still per-batch. An empty batch is vacuously
    /// durable and pays no fsyncs at all.
    ///
    /// # Errors
    ///
    /// I/O failures; on error before the commit marker the batch is
    /// guaranteed absent after recovery.
    pub fn commit_batch(&self, updates: Vec<(ObjectId, StoreBytes)>) -> Result<(), DiskError> {
        self.shared.commit_batch_inner(updates, None)
    }

    /// [`commit_batch`](DiskStore::commit_batch), abandoned at `crash`
    /// for fault-injection tests. Returns [`DiskError::Crashed`] with
    /// the directory left exactly as a process crash there would leave
    /// it; the store is poisoned (later commits fail like calls into a
    /// dead process) and any batch sharing the group flush crashes
    /// with it. Re-[`open`](DiskStore::open)ing the directory runs
    /// recovery. Seal and checkpoint points force the corresponding
    /// maintenance step after the commit and die inside it.
    ///
    /// # Errors
    ///
    /// Always [`DiskError::Crashed`] unless a real I/O failure strikes
    /// first.
    pub fn commit_batch_with_crash(
        &self,
        updates: Vec<(ObjectId, StoreBytes)>,
        crash: DiskCrashPoint,
    ) -> Result<(), DiskError> {
        self.shared.commit_batch_inner(updates, Some(crash))
    }

    /// Seals the active segment (if it holds any batches) and folds
    /// every sealed segment into `objects/` synchronously. Returns
    /// whether anything was folded. Mostly for tests and benchmarks;
    /// with [`DiskStoreOptions::auto_checkpoint`] the background
    /// thread does this on its own.
    ///
    /// # Errors
    ///
    /// I/O failures (which poison the store until reopen), or the
    /// error that poisoned it.
    pub fn checkpoint_now(&self) -> Result<bool, DiskError> {
        let shared = &self.shared;
        if let Some(poison) = &shared.group.lock().poisoned {
            return Err(poison.error());
        }
        {
            let mut wal = shared.wal.lock();
            if wal.segments.last().is_some_and(|active| active.batches > 0) {
                let obs = shared.obs.get();
                shared.seal_active(&mut wal, None, &obs)?;
            }
        }
        shared.checkpoint_inner(None)
    }
}

impl Observable for DiskStore {
    /// Installs a tracing handle. Fsync latency flows into the
    /// `store.fsync_us` histogram, group sizes into
    /// `store.group_size`, and log/segment activity is emitted as
    /// `DiskAppend`/`DiskGroupCommit`/`SegmentSeal`/`CheckpointBegin`/
    /// `CheckpointEnd`/`SegmentGc` events; if `open` replayed the
    /// live suffix, the deferred `DiskReplay` event is emitted now.
    fn install_obs(&self, obs: Obs) {
        self.shared.obs.set(obs.clone());
        if let Some(stats) = self.shared.pending_replay.lock().take() {
            obs.emit(EventKind::DiskReplay {
                batches: stats.batches,
                objects: stats.objects,
            });
        }
    }
}

/// The background checkpointer: waits for seals, folds sealed
/// segments, drains once more on shutdown so restarts replay little.
fn checkpointer_loop(shared: &Shared) {
    loop {
        {
            let mut st = shared.ckpt.lock();
            while !st.shutdown && st.kicks == 0 {
                shared.ckpt_signal.wait(&mut st);
            }
            if st.shutdown {
                break;
            }
            st.kicks = 0;
        }
        if shared.checkpoint_inner(None).is_err() {
            // The failure poisoned the store (see `checkpoint_inner`):
            // commits now fail loudly until a reopen replays the
            // segments, so there is nothing left to fold.
            return;
        }
    }
    let _ = shared.checkpoint_inner(None);
}

impl Shared {
    fn object_path(&self, object: ObjectId) -> PathBuf {
        self.dir
            .join("objects")
            .join(format!("o{}.bin", object.as_raw()))
    }

    fn commit_batch_inner(
        &self,
        updates: Vec<(ObjectId, StoreBytes)>,
        crash: Option<DiskCrashPoint>,
    ) -> Result<(), DiskError> {
        let mut group = self.group.lock();
        if let Some(poison) = &group.poisoned {
            return Err(poison.error());
        }
        if updates.is_empty() && crash.is_none() {
            // Vacuously durable: nothing needs logging, so the batch
            // must not pay (or make a whole group pay) any fsyncs.
            return Ok(());
        }
        let id = group.next_batch;
        group.next_batch += 1;
        group.queue.push(PendingBatch { id, updates, crash });

        if group.leader_active {
            // Follower: a leader is flushing; it will drain our batch
            // in its next group and post the outcome.
            loop {
                if let Some(outcome) = group.results.remove(&id) {
                    return outcome.into_result();
                }
                self.group_changed.wait(&mut group);
            }
        }

        // Leader: drain groups until the queue stays empty.
        group.leader_active = true;
        while !group.queue.is_empty() {
            let drained = std::mem::take(&mut group.queue);
            drop(group);
            // Any crash or I/O failure mid-flush poisons the store: after
            // a failed log write or fsync nobody can vouch for what the
            // log holds, so only a reopen (and its replay) may go on.
            let flushed = match self.flush_group(&drained) {
                Ok(()) => GroupOutcome::Done,
                Err(DiskError::Crashed(point)) => GroupOutcome::Poisoned(Poison::Crashed(point)),
                Err(DiskError::Io(e)) => GroupOutcome::Poisoned(Poison::Io(e.to_string())),
                Err(DiskError::CorruptLog(msg)) => GroupOutcome::Corrupt(msg),
            };
            group = self.group.lock();
            if let GroupOutcome::Poisoned(poison) = &flushed {
                group.poisoned = Some(poison.clone());
            }
            for batch in &drained {
                group.results.insert(batch.id, flushed.clone());
            }
            if let Some(poison) = group.poisoned.clone() {
                // The "process" died mid-flush: batches that queued up
                // behind us die with it, un-flushed.
                let orphaned = std::mem::take(&mut group.queue);
                for batch in orphaned {
                    group
                        .results
                        .insert(batch.id, GroupOutcome::Poisoned(poison.clone()));
                }
            }
            self.group_changed.notify_all();
        }
        group.leader_active = false;
        let outcome = group
            .results
            .remove(&id)
            .expect("leader's own batch outcome was posted");
        drop(group);
        outcome.into_result()
    }

    /// Flushes one drained group: all intents, one fsync, one commit
    /// marker per batch, one fsync, publish to the tail, seal the
    /// active segment if it is full. Injected crashes take effect at
    /// the *earliest* stage requested by any batch in the group.
    #[allow(clippy::too_many_lines)]
    fn flush_group(&self, group: &[PendingBatch]) -> Result<(), DiskError> {
        let obs = self.obs.get();
        let crash = group
            .iter()
            .filter_map(|b| b.crash)
            .min_by_key(|p| crash_stage(*p));
        if crash == Some(DiskCrashPoint::BeforeIntents) {
            return Err(DiskError::Crashed(DiskCrashPoint::BeforeIntents));
        }

        let mut wal = self.wal.lock();
        // 1-2. Log every batch's intents, fsync once; then every
        // batch's commit marker, fsync once (the group's commit point,
        // inside the active segment).
        let mut batch_bytes = vec![0u64; group.len()];
        for (i, batch) in group.iter().enumerate() {
            for (object, state) in &batch.updates {
                batch_bytes[i] += append_record(
                    &mut *wal.active,
                    &DiskRecord::Intent {
                        batch: batch.id,
                        object: object.as_raw(),
                        state: state.to_vec(),
                    },
                )?;
            }
        }
        self.log_fsync(&mut *wal.active, &obs)?;
        if crash == Some(DiskCrashPoint::AfterIntents) {
            return Err(DiskError::Crashed(DiskCrashPoint::AfterIntents));
        }
        for (i, batch) in group.iter().enumerate() {
            batch_bytes[i] +=
                append_record(&mut *wal.active, &DiskRecord::Commit { batch: batch.id })?;
        }
        self.log_fsync(&mut *wal.active, &obs)?;
        let mut records = 0u64;
        let mut bytes = 0u64;
        for (i, batch) in group.iter().enumerate() {
            let batch_records = batch.updates.len() as u64 + 1;
            records += batch_records;
            bytes += batch_bytes[i];
            obs.emit(EventKind::DiskAppend {
                records: batch_records,
                bytes: batch_bytes[i],
            });
        }
        obs.emit(EventKind::DiskGroupCommit {
            batches: group.len() as u64,
            records,
            bytes,
        });
        obs.observe("store.group_size", group.len() as u64);
        {
            let info = wal.segments.last_mut().expect("live list never empty");
            info.batches += group.len() as u64;
            info.bytes += bytes;
            info.max_batch = group.last().expect("group is non-empty").id;
        }
        if crash == Some(DiskCrashPoint::AfterCommitRecord) {
            return Err(DiskError::Crashed(DiskCrashPoint::AfterCommitRecord));
        }

        // 3. Publish committed state to the in-memory tail; the
        // checkpointer folds it into objects/ off the commit path.
        {
            let mut tail = self.tail.lock();
            for batch in group {
                for (object, state) in &batch.updates {
                    tail.insert(object.as_raw(), (batch.id, state.clone()));
                }
            }
        }
        self.backlog
            .fetch_add(group.len() as u64, Ordering::Relaxed);
        if crash == Some(DiskCrashPoint::AfterInstall) {
            return Err(DiskError::Crashed(DiskCrashPoint::AfterInstall));
        }

        // 4. Seal when the active segment is full (an injected seal or
        // checkpoint crash forces one so the point is reachable).
        let forced = matches!(
            crash,
            Some(
                DiskCrashPoint::SealBeforeManifest
                    | DiskCrashPoint::AfterSeal
                    | DiskCrashPoint::CheckpointBeforeManifest
                    | DiskCrashPoint::CheckpointBeforeGc
            )
        );
        let full = wal
            .segments
            .last()
            .is_some_and(|active| active.bytes >= self.opts.segment_bytes);
        let mut sealed = false;
        if forced || full {
            let seal_crash = crash.filter(|p| {
                matches!(
                    p,
                    DiskCrashPoint::SealBeforeManifest | DiskCrashPoint::AfterSeal
                )
            });
            self.seal_active(&mut wal, seal_crash, &obs)?;
            sealed = true;
        }
        drop(wal);
        if sealed {
            self.kick_checkpointer();
        }
        if let Some(point) = crash.filter(|p| {
            matches!(
                p,
                DiskCrashPoint::CheckpointBeforeManifest | DiskCrashPoint::CheckpointBeforeGc
            )
        }) {
            // Die inside the forced checkpoint; the batch itself is
            // already durable.
            return match self.checkpoint_inner(Some(point)) {
                Ok(_) => Err(DiskError::Crashed(point)),
                Err(e) => Err(e),
            };
        }
        Ok(())
    }

    /// Seals the active segment: create + fsync the next segment file,
    /// fsync the segments directory, then commit it into the manifest.
    /// The new segment is in the manifest *before* any record lands in
    /// it.
    fn seal_active(
        &self,
        wal: &mut WalState,
        crash: Option<DiskCrashPoint>,
        obs: &Obs,
    ) -> Result<(), DiskError> {
        let next_seq = wal.segments.last().expect("live list never empty").seq + 1;
        let segments_dir = self.dir.join("segments");
        let mut file = self
            .fs
            .create(&segments_dir.join(segment_file_name(next_seq)))?;
        file.append(LOG_MAGIC)?;
        file.sync()?;
        self.fsync_dir_counted(&segments_dir)?;
        if crash == Some(DiskCrashPoint::SealBeforeManifest) {
            return Err(DiskError::Crashed(DiskCrashPoint::SealBeforeManifest));
        }
        let seqs: Vec<u64> = wal
            .segments
            .iter()
            .map(|s| s.seq)
            .chain([next_seq])
            .collect();
        self.write_manifest_counted(&seqs)?;
        let old = *wal.segments.last().expect("live list never empty");
        wal.segments.push(SegmentInfo {
            seq: next_seq,
            batches: 0,
            bytes: 0,
            max_batch: 0,
        });
        wal.active = file;
        obs.emit(EventKind::SegmentSeal {
            segment: old.seq,
            batches: old.batches,
            bytes: old.bytes,
        });
        if crash == Some(DiskCrashPoint::AfterSeal) {
            return Err(DiskError::Crashed(DiskCrashPoint::AfterSeal));
        }
        Ok(())
    }

    /// Folds every sealed segment into `objects/` and garbage-collects
    /// it behind the checkpoint watermark. The manifest rewrite is the
    /// fold's commit point: a crash before it replays the segments
    /// again, a crash after it leaves only orphan files (swept, not
    /// replayed). An I/O failure poisons the store: this fold is the
    /// only one there is, so a store that silently stopped folding
    /// would grow its tail and replay debt without bound.
    fn checkpoint_inner(&self, crash: Option<DiskCrashPoint>) -> Result<bool, DiskError> {
        let _run = self.ckpt_run.lock();
        if self.group.lock().poisoned.is_some() {
            // A dead store does no more disk work.
            return Ok(false);
        }
        let folded = self.fold_sealed(crash);
        if let Err(DiskError::Io(e)) = &folded {
            self.group.lock().poisoned = Some(Poison::Io(e.to_string()));
        }
        folded
    }

    fn fold_sealed(&self, crash: Option<DiskCrashPoint>) -> Result<bool, DiskError> {
        let obs = self.obs.get();
        let folds: Vec<SegmentInfo> = {
            let wal = self.wal.lock();
            wal.segments[..wal.segments.len() - 1].to_vec()
        };
        if folds.is_empty() {
            // An injected checkpoint crash still dies here even with
            // nothing to fold.
            return match crash {
                Some(point) => Err(DiskError::Crashed(point)),
                None => Ok(false),
            };
        }
        let batches: u64 = folds.iter().map(|s| s.batches).sum();
        let watermark = folds.iter().map(|s| s.max_batch).max().unwrap_or(0);
        obs.emit(EventKind::CheckpointBegin {
            segments: folds.len() as u64,
            batches,
        });
        // Install the newest tail state of every object the folded
        // batches cover. Newer-than-watermark states stay in the tail:
        // their batches are still in the live suffix.
        let covered: Vec<(u64, StoreBytes)> = self
            .tail
            .lock()
            .iter()
            .filter(|&(_, &(batch, _))| batch <= watermark)
            .map(|(object, (_, state))| (*object, state.clone()))
            .collect();
        let objects_dir = self.dir.join("objects");
        for (object, state) in &covered {
            install_object(&*self.fs, &objects_dir, *object, state)?;
        }
        if !covered.is_empty() {
            self.fsync_dir_counted(&objects_dir)?;
        }
        if crash == Some(DiskCrashPoint::CheckpointBeforeManifest) {
            return Err(DiskError::Crashed(DiskCrashPoint::CheckpointBeforeManifest));
        }
        let upto = folds.last().expect("folds is non-empty").seq;
        {
            let mut wal = self.wal.lock();
            wal.segments.retain(|s| s.seq > upto);
            let seqs: Vec<u64> = wal.segments.iter().map(|s| s.seq).collect();
            self.write_manifest_counted(&seqs)?;
        }
        obs.emit(EventKind::CheckpointEnd {
            upto,
            batches,
            objects: covered.len() as u64,
        });
        if crash == Some(DiskCrashPoint::CheckpointBeforeGc) {
            return Err(DiskError::Crashed(DiskCrashPoint::CheckpointBeforeGc));
        }
        let segments_dir = self.dir.join("segments");
        for seg in &folds {
            self.fs
                .remove_file(&segments_dir.join(segment_file_name(seg.seq)))?;
            obs.emit(EventKind::SegmentGc {
                segment: seg.seq,
                bytes: seg.bytes,
            });
        }
        self.tail.lock().retain(|_, (batch, _)| *batch > watermark);
        self.backlog.fetch_sub(batches, Ordering::Relaxed);
        Ok(true)
    }

    fn kick_checkpointer(&self) {
        self.ckpt.lock().kicks += 1;
        self.ckpt_signal.notify_all();
    }

    fn write_manifest_counted(&self, seqs: &[u64]) -> Result<(), DiskError> {
        let mut fsyncs = 0u64;
        let result = write_manifest(&*self.fs, &self.dir, seqs, &mut fsyncs);
        self.dir_fsyncs.fetch_add(fsyncs, Ordering::Relaxed);
        result
    }

    fn fsync_dir_counted(&self, dir: &Path) -> Result<(), DiskError> {
        let mut fsyncs = 0u64;
        let result = fsync_dir(&*self.fs, dir, &mut fsyncs);
        self.dir_fsyncs.fetch_add(fsyncs, Ordering::Relaxed);
        result
    }

    /// An intentions-log fsync: counted (for the amortised-cost
    /// metric) and timed.
    fn log_fsync(&self, file: &mut dyn FsFile, obs: &Obs) -> Result<(), DiskError> {
        self.log_fsyncs.fetch_add(1, Ordering::Relaxed);
        fsync_timed(file, obs)
    }
}

/// A file sync with its latency recorded into `store.fsync_us`.
fn fsync_timed(file: &mut dyn FsFile, obs: &Obs) -> Result<(), DiskError> {
    let started = obs.enabled().then(Instant::now);
    file.sync()?;
    if let Some(started) = started {
        obs.observe(
            "store.fsync_us",
            u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
        );
    }
    Ok(())
}

fn append_record(log: &mut dyn FsFile, record: &DiskRecord) -> Result<u64, DiskError> {
    // encode behind a length placeholder, then patch the length in
    let mut frame = vec![0; 4];
    record.encode(&mut frame);
    let len = u32::try_from(frame.len() - 4)
        .map_err(|_| DiskError::CorruptLog("record too large".into()))?;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    log.append(&frame)?;
    Ok(frame.len() as u64)
}

fn remove_if_present(fs: &dyn Fs, path: &Path) -> io::Result<()> {
    match fs.remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

fn segment_file_name(seq: u64) -> String {
    format!("seg-{seq:08}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")
        .and_then(|rest| rest.strip_suffix(".log"))
        .and_then(|digits| digits.parse::<u64>().ok())
}

/// Fsyncs a directory so renames/creations/removals inside it survive
/// power loss, counting into `fsyncs`.
fn fsync_dir(fs: &dyn Fs, dir: &Path, fsyncs: &mut u64) -> Result<(), DiskError> {
    fs.sync_dir(dir)?;
    *fsyncs += 1;
    Ok(())
}

/// Atomically replaces the manifest: write `MANIFEST.tmp`, fsync it,
/// rename over `MANIFEST`, fsync the directory.
fn write_manifest(
    fs: &dyn Fs,
    dir: &Path,
    seqs: &[u64],
    fsyncs: &mut u64,
) -> Result<(), DiskError> {
    let mut text = String::with_capacity(16 + seqs.len() * 16);
    text.push_str(MANIFEST_MAGIC);
    text.push('\n');
    for seq in seqs {
        text.push_str("seg ");
        text.push_str(&seq.to_string());
        text.push('\n');
    }
    let tmp = dir.join("MANIFEST.tmp");
    let mut file = fs.create(&tmp)?;
    file.append(text.as_bytes())?;
    file.sync()?;
    fs.rename(&tmp, &dir.join("MANIFEST"))?;
    fsync_dir(fs, dir, fsyncs)
}

/// Parses the manifest's live segment list; `Ok(None)` when no
/// manifest exists (a fresh store).
fn read_manifest(fs: &dyn Fs, dir: &Path) -> Result<Option<Vec<u64>>, DiskError> {
    let raw = match fs.read(&dir.join("MANIFEST")) {
        Ok(raw) => String::from_utf8(raw)
            .map_err(|e| DiskError::Io(io::Error::new(io::ErrorKind::InvalidData, e)))?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut lines = raw.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(DiskError::CorruptLog("manifest missing magic".into()));
    }
    let mut seqs: Vec<u64> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let seq = line
            .strip_prefix("seg ")
            .and_then(|digits| digits.parse::<u64>().ok())
            .ok_or_else(|| DiskError::CorruptLog(format!("bad manifest line {line:?}")))?;
        if seqs.last().is_some_and(|&last| last >= seq) {
            return Err(DiskError::CorruptLog(
                "manifest segments out of order".into(),
            ));
        }
        seqs.push(seq);
    }
    Ok(Some(seqs))
}

/// Installs one object state: write-temp, fsync, rename. The caller
/// batches the `objects/` directory fsync.
fn install_object(
    fs: &dyn Fs,
    objects_dir: &Path,
    object: u64,
    state: &[u8],
) -> Result<(), DiskError> {
    let final_path = objects_dir.join(format!("o{object}.bin"));
    let tmp_path = final_path.with_extension("tmp");
    let mut tmp = fs.create(&tmp_path)?;
    tmp.append(state)?;
    tmp.sync()?;
    fs.rename(&tmp_path, &final_path)?;
    Ok(())
}

/// Streams CRC-framed records out of a log file while holding at most
/// one frame in memory — recovery cost is bounded by the largest
/// record, not the log length.
struct FrameReader {
    src: Box<dyn io::Read>,
    /// The file's length.
    len: u64,
    /// Bytes left in the file; a frame promising more is a torn tail.
    remaining: u64,
    /// Reusable frame buffer: `[len: u32 LE][payload]`, the
    /// checksummed span.
    frame: Vec<u8>,
}

impl FrameReader {
    /// Opens `path` and consumes the format magic; a file that opens
    /// with anything else is corrupt. `Ok(None)` means the file does
    /// not exist.
    fn open(fs: &dyn Fs, path: &Path) -> Result<Option<FrameReader>, DiskError> {
        let (len, mut src) = match fs.open_read(path) {
            Ok(opened) => opened,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        // A file cut short inside the magic is a torn creation: it
        // must match as far as it goes, and then holds no records.
        let mut magic = [0u8; LOG_MAGIC.len()];
        let header = usize::try_from(len).map_or(magic.len(), |n| n.min(magic.len()));
        src.read_exact(&mut magic[..header])?;
        if magic[..header] != LOG_MAGIC[..header] {
            return Err(DiskError::CorruptLog(format!(
                "{} does not open with the CHLOG001 magic",
                path.display()
            )));
        }
        Ok(Some(FrameReader {
            src,
            len,
            remaining: len - header as u64,
            frame: Vec::new(),
        }))
    }

    /// Where the last complete frame read so far ends (the end of the
    /// magic before any): everything past it is unread or torn.
    fn offset(&self) -> u64 {
        self.len - self.remaining
    }

    /// The next record; `Ok(None)` at a clean EOF or a torn tail.
    fn next(&mut self) -> Result<Option<DiskRecord>, DiskError> {
        let mut len_bytes = [0u8; 4];
        if self.remaining < 4 {
            return Ok(None); // torn tail (or clean EOF)
        }
        self.src.read_exact(&mut len_bytes)?;
        let len = u64::from(u32::from_le_bytes(len_bytes));
        if self.remaining < 4 + len + 4 {
            return Ok(None); // torn record: discard from here
        }
        self.remaining -= 4 + len + 4;
        self.frame.clear();
        self.frame.extend_from_slice(&len_bytes);
        self.frame.resize(4 + len as usize, 0);
        self.src.read_exact(&mut self.frame[4..])?;
        let mut crc_bytes = [0u8; 4];
        self.src.read_exact(&mut crc_bytes)?;
        let stored = u32::from_le_bytes(crc_bytes);
        let computed = crc32(&self.frame);
        if stored != computed {
            return Err(DiskError::CorruptLog(format!(
                "record checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
        codec::from_bytes::<DiskRecord>(&self.frame[4..])
            .map(Some)
            .map_err(|e| DiskError::CorruptLog(e.to_string()))
    }
}

/// Replays one live segment in a single streaming pass. Intents wait
/// per batch until their commit marker arrives and then move into
/// `tail`; a batch whose marker never arrives is dropped. Returns the
/// segment's bookkeeping, where its last complete frame ends, and the
/// file's length.
fn replay_file(
    fs: &dyn Fs,
    dir: &Path,
    seq: u64,
    tail: &mut HashMap<u64, (u64, StoreBytes)>,
    stats: &mut ReplayStats,
    max_batch: &mut u64,
) -> Result<(SegmentInfo, u64, u64), DiskError> {
    let path = dir.join("segments").join(segment_file_name(seq));
    let Some(mut reader) = FrameReader::open(fs, &path)? else {
        return Err(DiskError::CorruptLog(format!(
            "manifest lists segment {seq} but its file is missing"
        )));
    };
    let mut info = SegmentInfo {
        seq,
        batches: 0,
        bytes: 0,
        max_batch: 0,
    };
    let mut intents: HashMap<u64, Vec<(u64, Vec<u8>)>> = HashMap::new();
    while let Some(record) = reader.next()? {
        stats.records += 1;
        match record {
            DiskRecord::Intent {
                batch,
                object,
                state,
            } => {
                *max_batch = (*max_batch).max(batch);
                intents.entry(batch).or_default().push((object, state));
            }
            DiskRecord::Commit { batch } => {
                *max_batch = (*max_batch).max(batch);
                for (object, state) in intents.remove(&batch).unwrap_or_default() {
                    tail.insert(object, (batch, StoreBytes::from(state)));
                }
                info.batches += 1;
                info.max_batch = info.max_batch.max(batch);
            }
        }
    }
    stats.batches += info.batches;
    let valid_end = reader.offset();
    info.bytes = valid_end.saturating_sub(LOG_MAGIC.len() as u64);
    Ok((info, valid_end, reader.len))
}

/// What `recover` hands back to `open_with`.
struct Recovered {
    /// Every live segment in manifest order; the last is the active
    /// one.
    segments: Vec<SegmentInfo>,
    active_file: Box<dyn FsFile>,
    /// The live suffix's committed states, newest per object.
    tail: HashMap<u64, (u64, StoreBytes)>,
    max_batch: u64,
    stats: ReplayStats,
    log_fsyncs: u64,
    dir_fsyncs: u64,
}

/// Crash recovery: sweep temp orphans, replay exactly the manifest's
/// live suffix into the tail, sweep segment files the manifest never
/// committed to, then reopen the last live segment for appends. Its
/// torn tail, if any, is the one thing recovery writes; only a
/// brand-new store also creates its first segment and manifest.
fn recover(fs: &dyn Fs, dir: &Path) -> Result<Recovered, DiskError> {
    let manifest = read_manifest(fs, dir)?;
    let stray_log = dir.join("log");
    if manifest.is_none() && fs.open_read(&stray_log).is_ok() {
        return Err(DiskError::CorruptLog(format!(
            "{} holds a `log` file but no MANIFEST: the pre-segment single-log layout is not supported",
            dir.display()
        )));
    }
    let objects_dir = dir.join("objects");
    let segments_dir = dir.join("segments");
    fs.create_dir_all(&objects_dir)?;
    fs.create_dir_all(&segments_dir)?;

    // Sweep leftovers from a crash mid-install or mid-manifest-write:
    // temp files are invisible to the protocol until renamed, so they
    // must never be read — or reported by `object_ids`.
    for name in fs.list(&objects_dir)? {
        if name.ends_with(".tmp") {
            fs.remove_file(&objects_dir.join(name))?;
        }
    }
    remove_if_present(fs, &dir.join("MANIFEST.tmp"))?;

    // The manifest is authoritative. A `log` alongside it is a stale
    // leftover (e.g. resurrected bytes from the pre-segment format's
    // unsynced truncate): never replay it.
    remove_if_present(fs, &stray_log)?;
    let live = manifest.unwrap_or_default();

    // Replay exactly the live suffix, oldest segment first.
    let mut tail = HashMap::new();
    let mut stats = ReplayStats::default();
    let mut max_batch = 0u64;
    let mut segments = Vec::with_capacity(live.len());
    let (mut active_end, mut active_len) = (0u64, 0u64);
    for &seq in &live {
        let (info, valid_end, len) =
            replay_file(fs, dir, seq, &mut tail, &mut stats, &mut max_batch)?;
        segments.push(info);
        (active_end, active_len) = (valid_end, len);
    }
    stats.objects = tail.len() as u64;

    // Segment files the manifest does not own are dead by definition:
    // a seal that never reached the manifest, or a fold's GC that
    // never finished. Sweep, never replay.
    for name in fs.list(&segments_dir)? {
        if !parse_segment_name(&name).is_some_and(|seq| live.contains(&seq)) {
            fs.remove_file(&segments_dir.join(name))?;
        }
    }

    let mut log_fsyncs = 0u64;
    let mut dir_fsyncs = 0u64;
    let active_file = match segments.last().map(|active| active.seq) {
        // Appends continue in the last live segment. Batch ids continue
        // past every intent replay saw, so none is ever reused.
        Some(seq) => {
            let mut file = fs.open_append(&segments_dir.join(segment_file_name(seq)))?;
            let magic = LOG_MAGIC.len() as u64;
            if active_end < active_len || active_end < magic {
                // A torn append: cut it off so the next frame follows
                // the last complete one (and finish a magic torn at
                // creation).
                file.set_len(active_end)?;
                if active_end < magic {
                    file.append(&LOG_MAGIC[active_end as usize..])?;
                }
                file.sync()?;
                log_fsyncs += 1;
            }
            file
        }
        // A brand-new store: its first segment is in the manifest
        // before any record lands in it.
        None => {
            let mut file = fs.create(&segments_dir.join(segment_file_name(1)))?;
            file.append(LOG_MAGIC)?;
            file.sync()?;
            fsync_dir(fs, &segments_dir, &mut dir_fsyncs)?;
            write_manifest(fs, dir, &[1], &mut dir_fsyncs)?;
            segments.push(SegmentInfo {
                seq: 1,
                batches: 0,
                bytes: 0,
                max_batch: 0,
            });
            file
        }
    };
    Ok(Recovered {
        segments,
        active_file,
        tail,
        max_batch,
        stats,
        log_fsyncs,
        dir_fsyncs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::{self, File, OpenOptions};
    use std::io::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "chroma-disk-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn o(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }
    fn bytes(v: &[u8]) -> StoreBytes {
        StoreBytes::from(v.to_vec())
    }

    /// Options for tests that want deterministic seals/checkpoints:
    /// seal after every commit, no background thread.
    fn manual(segment_bytes: u64) -> DiskStoreOptions {
        DiskStoreOptions {
            segment_bytes,
            auto_checkpoint: false,
        }
    }

    /// Hand-writes a store whose manifest lists one segment holding
    /// `records` (what a crash before any checkpoint leaves behind);
    /// returns the segment's path.
    fn write_log(dir: &Path, records: &[DiskRecord]) -> PathBuf {
        fs::create_dir_all(dir.join("segments")).unwrap();
        let path = dir.join("segments").join(segment_file_name(1));
        let mut log = File::create(&path).unwrap();
        log.write_all(LOG_MAGIC).unwrap();
        for record in records {
            append_record(&mut log, record).unwrap();
        }
        write_manifest(&OsFs, dir, &[1], &mut 0).unwrap();
        path
    }

    #[test]
    fn round_trip_across_reopen() {
        let dir = temp_dir();
        {
            let store = DiskStore::open(&dir).unwrap();
            store
                .commit_batch(vec![(o(1), bytes(b"one")), (o(2), bytes(b"two"))])
                .unwrap();
        }
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.read(o(1)).unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(store.read(o(2)).unwrap().as_deref(), Some(&b"two"[..]));
        assert!(store.read(o(1)).unwrap().is_some());
        assert!(store.read(o(9)).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn later_batches_overwrite() {
        let dir = temp_dir();
        let store = DiskStore::open(&dir).unwrap();
        store.commit_batch(vec![(o(1), bytes(b"a"))]).unwrap();
        store.commit_batch(vec![(o(1), bytes(b"b"))]).unwrap();
        assert_eq!(store.read(o(1)).unwrap().as_deref(), Some(&b"b"[..]));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn committed_log_without_install_replays_on_open() {
        // Simulate a crash after the commit marker but before install:
        // hand-write the log, then open.
        let dir = temp_dir();
        write_log(
            &dir,
            &[
                DiskRecord::Intent {
                    batch: 3,
                    object: 7,
                    state: b"recovered".to_vec(),
                },
                DiskRecord::Commit { batch: 3 },
            ],
        );
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(
            store.read(o(7)).unwrap().as_deref(),
            Some(&b"recovered"[..])
        );
        assert_eq!(
            store.replay_stats(),
            ReplayStats {
                batches: 1,
                records: 2,
                objects: 1,
            }
        );
        // Batch ids continue past the recovered one.
        store.commit_batch(vec![(o(8), bytes(b"next"))]).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_intents_are_discarded_on_open() {
        let dir = temp_dir();
        write_log(
            &dir,
            &[DiskRecord::Intent {
                batch: 1,
                object: 5,
                state: b"never committed".to_vec(),
            }],
        );
        let store = DiskStore::open(&dir).unwrap();
        assert!(store.read(o(5)).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_log_tail_is_tolerated() {
        let dir = temp_dir();
        let log_path = write_log(
            &dir,
            &[
                DiskRecord::Intent {
                    batch: 1,
                    object: 1,
                    state: b"full".to_vec(),
                },
                DiskRecord::Commit { batch: 1 },
            ],
        );
        let intact = fs::metadata(&log_path).unwrap().len();
        // A torn append: length prefix promising more bytes than exist.
        let mut log = OpenOptions::new().append(true).open(&log_path).unwrap();
        log.write_all(&100u32.to_le_bytes()).unwrap();
        log.write_all(b"short").unwrap();
        drop(log);
        {
            let store = DiskStore::open(&dir).unwrap();
            assert_eq!(store.read(o(1)).unwrap().as_deref(), Some(&b"full"[..]));
            // Appends continue in this segment, so the torn frame must
            // go first: left in place, the next replay would read the
            // new frames as its missing bytes and lose them.
            assert_eq!(fs::metadata(&log_path).unwrap().len(), intact);
            assert_eq!(store.log_fsync_count(), 1, "the trim is made durable");
            store.commit_batch(vec![(o(2), bytes(b"after"))]).unwrap();
        }
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.replay_stats().batches, 2);
        assert_eq!(store.read(o(1)).unwrap().as_deref(), Some(&b"full"[..]));
        assert_eq!(store.read(o(2)).unwrap().as_deref(), Some(&b"after"[..]));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_without_magic_is_refused() {
        // Plain `[len][payload]` frames, no magic, no checksums (the
        // pre-`CHLOG001` format): never parsed, not even when every
        // frame would decode.
        let dir = temp_dir();
        let log_path = write_log(&dir, &[]);
        let mut log = File::create(&log_path).unwrap();
        for record in [
            &DiskRecord::Intent {
                batch: 2,
                object: 4,
                state: b"old format".to_vec(),
            },
            &DiskRecord::Commit { batch: 2 },
        ] {
            let payload = codec::to_bytes(record).unwrap();
            log.write_all(&(payload.len() as u32).to_le_bytes())
                .unwrap();
            log.write_all(&payload).unwrap();
        }
        drop(log);
        match DiskStore::open(&dir) {
            Err(DiskError::CorruptLog(msg)) => assert!(msg.contains("CHLOG001 magic"), "{msg}"),
            other => panic!("magic-less segment not refused: {other:?}"),
        }
        // cut short inside the magic it is a torn creation: no records,
        // and the rest of the magic is restored before any append
        fs::write(&log_path, &LOG_MAGIC[..5]).unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert!(store.read(o(4)).unwrap().is_none());
        assert_eq!(fs::read(&log_path).unwrap(), LOG_MAGIC);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pre_segment_directory_is_refused_not_opened_empty() {
        // A single `log` and no MANIFEST is the layout from before
        // segmented logs; its committed batch must not vanish behind a
        // fresh, empty store.
        let dir = temp_dir();
        fs::create_dir_all(dir.join("objects")).unwrap();
        let mut log = File::create(dir.join("log")).unwrap();
        log.write_all(LOG_MAGIC).unwrap();
        append_record(
            &mut log,
            &DiskRecord::Intent {
                batch: 1,
                object: 1,
                state: b"committed".to_vec(),
            },
        )
        .unwrap();
        append_record(&mut log, &DiskRecord::Commit { batch: 1 }).unwrap();
        drop(log);
        match DiskStore::open(&dir) {
            Err(DiskError::CorruptLog(msg)) => assert!(msg.contains("pre-segment"), "{msg}"),
            other => panic!("pre-segment layout not refused: {other:?}"),
        }
        assert!(dir.join("log").exists(), "a refusal leaves the data alone");
        assert!(!dir.join("MANIFEST").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_byte_in_committed_record_is_detected() {
        let dir = temp_dir();
        let log_path = write_log(
            &dir,
            &[
                DiskRecord::Intent {
                    batch: 1,
                    object: 1,
                    state: b"protected".to_vec(),
                },
                DiskRecord::Commit { batch: 1 },
            ],
        );
        let mut raw = fs::read(&log_path).unwrap();
        // Flip one payload byte inside the first record (past magic +
        // length prefix).
        let target = LOG_MAGIC.len() + 4 + 2;
        raw[target] ^= 0x40;
        fs::write(&log_path, &raw).unwrap();
        match DiskStore::open(&dir) {
            Err(DiskError::CorruptLog(msg)) => {
                assert!(msg.contains("checksum"), "{msg}");
            }
            other => panic!("corruption not detected: {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_batch_is_fine() {
        let dir = temp_dir();
        let store = DiskStore::open(&dir).unwrap();
        store.commit_batch(Vec::new()).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_commit_batch_pays_no_fsyncs() {
        // Bugfix: an empty batch used to join a group and pay (or make
        // a whole group pay) both fsyncs for nothing.
        let dir = temp_dir();
        let store = DiskStore::open(&dir).unwrap();
        store.commit_batch(vec![(o(1), bytes(b"real"))]).unwrap();
        let before = store.log_fsync_count();
        store.commit_batch(Vec::new()).unwrap();
        store.commit_batch(Vec::new()).unwrap();
        assert_eq!(
            store.log_fsync_count(),
            before,
            "empty batches must not fsync"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_commits_share_fsyncs_and_all_survive() {
        const THREADS: u64 = 8;
        let dir = temp_dir();
        let store = Arc::new(DiskStore::open(&dir).unwrap());
        let barrier = Arc::new(Barrier::new(THREADS as usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let store = Arc::clone(&store);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    store
                        .commit_batch(vec![(o(i), bytes(&[i as u8, 0xAB]))])
                        .unwrap();
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        // Every batch flushed in some group: between 1 group (all
        // shared) and one group per batch.
        let fsyncs = store.log_fsync_count();
        assert!(
            (2..=2 * THREADS).contains(&fsyncs),
            "implausible log fsync count {fsyncs}"
        );
        drop(store);
        let store = DiskStore::open(&dir).unwrap();
        for i in 0..THREADS {
            assert_eq!(
                store.read(o(i)).unwrap().as_deref(),
                Some(&[i as u8, 0xAB][..]),
                "batch {i} lost"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_crash_poisons_the_store() {
        let dir = temp_dir();
        let store = DiskStore::open(&dir).unwrap();
        let err = store
            .commit_batch_with_crash(vec![(o(1), bytes(b"x"))], DiskCrashPoint::AfterIntents)
            .unwrap_err();
        assert!(matches!(
            err,
            DiskError::Crashed(DiskCrashPoint::AfterIntents)
        ));
        // The "process" is dead: later commits fail the same way.
        let err = store.commit_batch(vec![(o(2), bytes(b"y"))]).unwrap_err();
        assert!(matches!(
            err,
            DiskError::Crashed(DiskCrashPoint::AfterIntents)
        ));
        drop(store);
        // Reopening (restart) recovers and revives commits.
        let store = DiskStore::open(&dir).unwrap();
        assert!(store.read(o(1)).unwrap().is_none());
        store.commit_batch(vec![(o(2), bytes(b"y"))]).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphaned_tmp_files_are_swept_on_open() {
        // Bugfix: a crash mid-install leaves o<id>.tmp behind; it must
        // be removed on open and never surface through object_ids.
        let dir = temp_dir();
        fs::create_dir_all(dir.join("objects")).unwrap();
        fs::write(dir.join("objects").join("o5.tmp"), b"torn install").unwrap();
        fs::write(dir.join("MANIFEST.tmp"), b"torn manifest").unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert!(!dir.join("objects").join("o5.tmp").exists());
        assert!(!dir.join("MANIFEST.tmp").exists());
        assert!(store.object_ids().unwrap().is_empty());
        assert!(store.read(o(5)).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seal_and_checkpoint_fold_and_gc() {
        // segment_bytes: 1 seals after every commit; checkpoint_now
        // folds the sealed segments into objects/ and GCs their files.
        let dir = temp_dir();
        let store = DiskStore::open_with(&dir, manual(1)).unwrap();
        store.commit_batch(vec![(o(1), bytes(b"a"))]).unwrap();
        store.commit_batch(vec![(o(2), bytes(b"b"))]).unwrap();
        assert!(store.checkpoint_backlog() >= 2);
        let sealed_paths = DiskStore::live_segment_paths(&dir).unwrap();
        assert!(sealed_paths.len() >= 2, "commits should have sealed");

        assert!(store.checkpoint_now().unwrap());
        assert_eq!(store.checkpoint_backlog(), 0);
        // Folded into objects/, GC'd from segments/, manifest shrunk
        // to the lone active segment.
        assert!(dir.join("objects").join("o1.bin").exists());
        assert!(dir.join("objects").join("o2.bin").exists());
        let live = DiskStore::live_segment_paths(&dir).unwrap();
        assert_eq!(live.len(), 1);
        let on_disk = fs::read_dir(dir.join("segments")).unwrap().count();
        assert_eq!(on_disk, 1, "folded segment files must be deleted");
        // Reads still serve the right values from objects/.
        assert_eq!(store.read(o(1)).unwrap().as_deref(), Some(&b"a"[..]));
        assert_eq!(store.read(o(2)).unwrap().as_deref(), Some(&b"b"[..]));
        // Nothing left to fold.
        assert!(!store.checkpoint_now().unwrap());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_preserves_newest_value() {
        // Overwrites across segments: the fold must install the newest
        // committed state, and newer-than-watermark tail entries must
        // survive the prune.
        let dir = temp_dir();
        let store = DiskStore::open_with(&dir, manual(1)).unwrap();
        store.commit_batch(vec![(o(1), bytes(b"v1"))]).unwrap();
        store.commit_batch(vec![(o(1), bytes(b"v2"))]).unwrap();
        store.commit_batch(vec![(o(1), bytes(b"v3"))]).unwrap();
        store.checkpoint_now().unwrap();
        assert_eq!(store.read(o(1)).unwrap().as_deref(), Some(&b"v3"[..]));
        assert_eq!(
            fs::read(dir.join("objects").join("o1.bin")).unwrap(),
            b"v3".to_vec()
        );
        drop(store);
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.read(o(1)).unwrap().as_deref(), Some(&b"v3"[..]));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lost_truncate_cannot_resurrect_stale_bytes() {
        // Bugfix regression: the old layout truncated the log with an
        // unsynced fs::write, so a crash could resurrect stale log
        // bytes under fresh appends. In the manifest layout the
        // equivalent failure is a GC'd segment file reappearing (its
        // delete never hit disk): the manifest does not list it, so
        // recovery must sweep it, not replay it.
        let dir = temp_dir();
        let store = DiskStore::open_with(&dir, manual(1)).unwrap();
        store.commit_batch(vec![(o(1), bytes(b"stale"))]).unwrap();
        let stale_seg = DiskStore::live_segment_paths(&dir).unwrap()[0].clone();
        let stale_bytes = fs::read(&stale_seg).unwrap();
        store.checkpoint_now().unwrap();
        assert!(!stale_seg.exists(), "checkpoint should have GC'd it");
        store.commit_batch(vec![(o(1), bytes(b"fresh"))]).unwrap();
        drop(store);
        // "Lose" the truncate/delete: the stale segment file comes
        // back, exactly as an unsynced unlink would leave it.
        fs::write(&stale_seg, &stale_bytes).unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.read(o(1)).unwrap().as_deref(), Some(&b"fresh"[..]));
        assert!(!stale_seg.exists(), "unlisted segment must be swept");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_points_on_seal_and_checkpoint_recover() {
        for point in [
            DiskCrashPoint::SealBeforeManifest,
            DiskCrashPoint::AfterSeal,
            DiskCrashPoint::CheckpointBeforeManifest,
            DiskCrashPoint::CheckpointBeforeGc,
        ] {
            let dir = temp_dir();
            let store = DiskStore::open_with(&dir, manual(1 << 20)).unwrap();
            store.commit_batch(vec![(o(1), bytes(b"base"))]).unwrap();
            let err = store
                .commit_batch_with_crash(vec![(o(2), bytes(b"crash"))], point)
                .unwrap_err();
            assert!(
                matches!(err, DiskError::Crashed(p) if p == point),
                "{point:?}: {err:?}"
            );
            assert!(store.checkpoint_now().is_err(), "{point:?}: poisoned");
            drop(store);
            // No background checkpointer: the files checked below must
            // be what recovery left, not a fold racing it.
            let store = DiskStore::open_with(&dir, manual(1 << 20)).unwrap();
            // All four points sit past the commit point: both batches
            // must survive the crash, whatever the maintenance step
            // was doing.
            assert_eq!(
                store.read(o(1)).unwrap().as_deref(),
                Some(&b"base"[..]),
                "{point:?}"
            );
            assert_eq!(
                store.read(o(2)).unwrap().as_deref(),
                Some(&b"crash"[..]),
                "{point:?}"
            );
            // Recovery leaves a coherent manifest: exactly the live
            // segments exist on disk, nothing else, and every batch
            // they hold is replay debt until a fold.
            let live = DiskStore::live_segment_paths(&dir).unwrap();
            assert_eq!(
                store.checkpoint_backlog(),
                store.replay_stats().batches,
                "{point:?}"
            );
            for path in &live {
                assert!(path.exists(), "{point:?}: manifest lists {path:?}");
            }
            assert_eq!(
                fs::read_dir(dir.join("segments")).unwrap().count(),
                live.len(),
                "{point:?}: orphan segment files survived recovery"
            );
            store.commit_batch(vec![(o(3), bytes(b"after"))]).unwrap();
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn background_checkpointer_folds_automatically() {
        let dir = temp_dir();
        let store = DiskStore::open_with(
            &dir,
            DiskStoreOptions {
                segment_bytes: 1,
                auto_checkpoint: true,
            },
        )
        .unwrap();
        for i in 0..8 {
            store.commit_batch(vec![(o(i), bytes(&[i as u8]))]).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while store.checkpoint_backlog() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            store.checkpoint_backlog(),
            0,
            "checkpointer never caught up"
        );
        for i in 0..8 {
            assert!(dir.join("objects").join(format!("o{i}.bin")).exists());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_stats_match_live_suffix() {
        // Replay work is bounded by what committed since the last
        // checkpoint, not by history. Replay folds nothing itself: the
        // suffix stays live across reopens, growing with every
        // post-recovery commit, until a checkpoint takes it.
        let dir = temp_dir();
        let store = DiskStore::open_with(&dir, manual(1)).unwrap();
        for i in 0..6 {
            store.commit_batch(vec![(o(i), bytes(b"old"))]).unwrap();
        }
        store.checkpoint_now().unwrap();
        store.commit_batch(vec![(o(100), bytes(b"new"))]).unwrap();
        store.commit_batch(vec![(o(100), bytes(b"newer"))]).unwrap();
        store.commit_batch(vec![(o(101), bytes(b"new"))]).unwrap();
        assert_eq!(store.checkpoint_backlog(), 3);
        drop(store);
        let live = DiskStore::live_segment_paths(&dir).unwrap();

        let store = DiskStore::open_with(&dir, manual(1)).unwrap();
        assert_eq!(
            store.replay_stats(),
            ReplayStats {
                batches: 3,
                records: 6,
                objects: 2, // o100 twice, o101 once
            }
        );
        assert_eq!(DiskStore::live_segment_paths(&dir).unwrap(), live);
        assert_eq!(store.read(o(100)).unwrap().as_deref(), Some(&b"newer"[..]));
        for i in 0..6 {
            assert_eq!(store.read(o(i)).unwrap().as_deref(), Some(&b"old"[..]));
        }
        store.commit_batch(vec![(o(102), bytes(b"after"))]).unwrap();
        drop(store);

        let store = DiskStore::open_with(&dir, manual(1)).unwrap();
        assert_eq!(store.replay_stats().batches, 4);
        assert_eq!(store.replay_stats().objects, 3);
        assert_eq!(store.read(o(102)).unwrap().as_deref(), Some(&b"after"[..]));
        fs::remove_dir_all(&dir).ok();
    }

    /// Every file under `dir` with its bytes, in path order.
    fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = Vec::new();
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                files.extend(snapshot(&path));
            } else {
                let contents = fs::read(&path).unwrap();
                files.push((path, contents));
            }
        }
        files.sort();
        files
    }

    #[test]
    fn clean_reopen_writes_nothing() {
        // Two sealed segments and one batch in the active segment: a
        // live suffix recovery must read, not rewrite.
        let dir = temp_dir();
        {
            let store = DiskStore::open_with(&dir, manual(1)).unwrap();
            store.commit_batch(vec![(o(1), bytes(b"a"))]).unwrap();
            store.commit_batch(vec![(o(2), bytes(b"b"))]).unwrap();
        }
        {
            let store = DiskStore::open_with(&dir, manual(1 << 20)).unwrap();
            store.commit_batch(vec![(o(3), bytes(b"c"))]).unwrap();
        }
        let live = DiskStore::live_segment_paths(&dir).unwrap();
        assert_eq!(live.len(), 3);
        let before = snapshot(&dir);

        let store = DiskStore::open_with(&dir, manual(1 << 20)).unwrap();
        assert_eq!(store.replay_stats().batches, 3);
        assert_eq!(store.log_fsync_count(), 0);
        assert_eq!(store.dir_fsync_count(), 0);
        assert_eq!(DiskStore::live_segment_paths(&dir).unwrap(), live);
        assert_eq!(snapshot(&dir), before, "recovery changed a file");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_seeds_the_checkpoint_backlog() {
        // The replayed batches are the debt the next fold retires; an
        // unseeded backlog would wrap when it does.
        let dir = temp_dir();
        {
            let store = DiskStore::open_with(&dir, manual(1)).unwrap();
            for i in 0..3 {
                store.commit_batch(vec![(o(i), bytes(b"v"))]).unwrap();
            }
        }
        let store = DiskStore::open_with(&dir, manual(1)).unwrap();
        assert_eq!(store.checkpoint_backlog(), store.replay_stats().batches);
        assert_eq!(store.checkpoint_backlog(), 3);
        assert!(store.checkpoint_now().unwrap());
        assert_eq!(store.checkpoint_backlog(), 0);
        for i in 0..3 {
            assert!(dir.join("objects").join(format!("o{i}.bin")).exists());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_folds_surviving_sealed_segments_in_the_background() {
        let dir = temp_dir();
        {
            let store = DiskStore::open_with(&dir, manual(1)).unwrap();
            for i in 0..4 {
                store.commit_batch(vec![(o(i), bytes(&[i as u8]))]).unwrap();
            }
        }
        let store = DiskStore::open_with(
            &dir,
            DiskStoreOptions {
                segment_bytes: 1 << 20,
                auto_checkpoint: true,
            },
        )
        .unwrap();
        assert_eq!(store.replay_stats().batches, 4);
        let deadline = Instant::now() + Duration::from_secs(10);
        while store.checkpoint_backlog() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            store.checkpoint_backlog(),
            0,
            "sealed segments never folded"
        );
        for i in 0..4 {
            assert!(dir.join("objects").join(format!("o{i}.bin")).exists());
            assert_eq!(store.read(o(i)).unwrap().as_deref(), Some(&[i as u8][..]));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_io_failure_poisons_until_reopen() {
        // With recovery no longer folding, a checkpoint that failed
        // quietly would let the tail and the replay debt grow unseen.
        // A regular file where `objects/` belongs fails the fold with
        // ENOTDIR, whatever the caller's privileges.
        let dir = temp_dir();
        let store = DiskStore::open_with(&dir, manual(1 << 20)).unwrap();
        store.commit_batch(vec![(o(1), bytes(b"a"))]).unwrap();
        store.commit_batch(vec![(o(2), bytes(b"b"))]).unwrap();
        let objects = dir.join("objects");
        fs::remove_dir(&objects).unwrap();
        fs::write(&objects, b"not a directory").unwrap();

        assert!(matches!(store.checkpoint_now(), Err(DiskError::Io(_))));
        assert!(
            matches!(
                store.commit_batch(vec![(o(3), bytes(b"c"))]),
                Err(DiskError::Io(_))
            ),
            "a failed fold must poison the store"
        );
        assert!(matches!(store.checkpoint_now(), Err(DiskError::Io(_))));
        drop(store);

        fs::remove_file(&objects).unwrap();
        fs::create_dir(&objects).unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.read(o(1)).unwrap().as_deref(), Some(&b"a"[..]));
        assert_eq!(store.read(o(2)).unwrap().as_deref(), Some(&b"b"[..]));
        assert!(store.read(o(3)).unwrap().is_none());
        store.commit_batch(vec![(o(3), bytes(b"c"))]).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dir_fsyncs_cover_install_and_manifest() {
        // Bugfix: installs and manifest renames must be followed by a
        // directory fsync or the rename itself can vanish on power
        // loss. Count them across a seal + checkpoint cycle.
        let dir = temp_dir();
        let store = DiskStore::open_with(&dir, manual(1)).unwrap();
        let before = store.dir_fsync_count();
        store.commit_batch(vec![(o(1), bytes(b"x"))]).unwrap();
        store.checkpoint_now().unwrap();
        let paid = store.dir_fsync_count() - before;
        // At least: segments-dir fsync at seal, dir fsync for the seal
        // manifest, objects-dir fsync for the install, dir fsync for
        // the checkpoint manifest.
        assert!(paid >= 4, "only {paid} directory fsyncs paid");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_reopen_reuses_active_segment() {
        // An idle store must not churn segments/manifest on restart.
        let dir = temp_dir();
        {
            let store = DiskStore::open(&dir).unwrap();
            store.commit_batch(vec![(o(1), bytes(b"v"))]).unwrap();
            store.checkpoint_now().unwrap();
        }
        let live_before = DiskStore::live_segment_paths(&dir).unwrap();
        drop(DiskStore::open(&dir).unwrap());
        let live_after = DiskStore::live_segment_paths(&dir).unwrap();
        assert_eq!(live_before, live_after, "idle reopen churned the manifest");
        fs::remove_dir_all(&dir).ok();
    }

    /// Decodes a hex literal.
    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn disk_records_keep_their_bytes() {
        // Captured from the serde-driven codec before `Stored` replaced
        // it: recovery reads logs written by that build.
        let intent = unhex("00000000030000000000000009000000000000000200000000000000aabb");
        let commit = unhex("010000000300000000000000");
        let record = DiskRecord::Intent {
            batch: 3,
            object: 9,
            state: vec![0xAA, 0xBB],
        };
        assert_eq!(codec::to_bytes(&record).unwrap(), intent);
        assert_eq!(
            codec::to_bytes(&DiskRecord::Commit { batch: 3 }).unwrap(),
            commit
        );
        assert!(matches!(
            codec::from_bytes(&intent),
            Ok(DiskRecord::Intent { batch: 3, object: 9, state }) if state == [0xAA, 0xBB]
        ));
        assert!(matches!(
            codec::from_bytes(&commit),
            Ok(DiskRecord::Commit { batch: 3 })
        ));
        // the whole frame: length, payload, CRC
        let dir = temp_dir();
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frame");
        let written = append_record(&mut File::create(&path).unwrap(), &record).unwrap();
        let frame = fs::read(&path).unwrap();
        assert_eq!(
            frame,
            unhex("1e00000000000000030000000000000009000000000000000200000000000000aabb83075346")
        );
        assert_eq!(written, frame.len() as u64);
        fs::remove_dir_all(&dir).ok();
    }
}
