//! A disk-backed stable store: the intentions-list protocol persisted
//! to a real directory as a **segmented intentions log** under a tiny
//! manifest.
//!
//! `DiskStore` is the one stable storage every node has: updates go
//! through a write-ahead intentions log whose commit marker follows its
//! intents under the same fsync, and [`DiskStore::open`] replays the
//! log — completing committed batches and discarding uncommitted ones —
//! so a crash at any point leaves an all-or-nothing outcome. It runs
//! over an [`Fs`]: [`OsFs`](crate::OsFs) for a real directory, or
//! [`MemFs`](crate::MemFs) for a simulated node, whose
//! [`crash`](crate::MemFs::crash) drops whatever no fsync made durable
//! before the same recovery runs.
//!
//! # Segments and the manifest
//!
//! The log is a sequence of immutable *segments*. Appends go to the
//! single active segment; when it passes
//! [`DiskStoreOptions::segment_bytes`] it is *sealed*: a fresh segment
//! file is created and fsynced, and the `MANIFEST` file — the
//! authoritative list of the checkpoint image and the live segments,
//! in order — is atomically rewritten (write temp, fsync, rename,
//! fsync directory) to include it. A segment is in the manifest before
//! any commit lands in it, and a batch's intents and marker never span
//! segments (a seal runs between group appends, once no group appended
//! before it is still in flight), so every segment carries a
//! self-contained set of committed batches.
//!
//! # Checkpointing and GC
//!
//! A committed batch's states are published to an in-memory tail that
//! keeps every object's newest committed state, so reads never touch
//! disk. Checkpointing is off the commit path: a background
//! checkpointer thread folds the sealed segments, once they hold at
//! least as many record bytes as the current image, into one checkpoint
//! **image** — a `CHLOG001` file in `segments/` holding every object's
//! state in the tail as a single batch (its intents, then one marker),
//! written in one append behind one fsync, then the `segments/`
//! directory fsync — and commits the fold by rewriting the manifest to
//! name the new image ahead of the live segments that remain. Only then
//! are the old image and the folded segment files deleted, so GC always
//! trails the checkpoint watermark: a crash anywhere leaves either files
//! the manifest still names (recovery loads them again) or orphan files
//! it no longer or never named (swept on open, never read).
//!
//! The image may hold states newer than the watermark: the tail is read
//! after the fold picked its segments, while commits go on in the
//! active segment. That is harmless. A state reaches the tail only
//! after its group's fsync, so its batch is in the live suffix the new
//! manifest keeps, and recovery re-applies the live suffix in log order
//! on top of the image: every object ends at the newest state the
//! suffix holds for it, or at the image's if the suffix never wrote it.
//!
//! An image costs O(store) to write, so the checkpointer does not
//! write one at every seal: it waits until the sealed segments have
//! outgrown the last image. A new image is at most the old one plus
//! what was committed since, so the folds write O(1) bytes per
//! committed byte however large the store grows, and the live suffix a
//! recovery replays stays within about the image's size plus the
//! active segment. [`DiskStore::checkpoint_now`] and the checkpointer's
//! drain at shutdown fold whatever is sealed.
//!
//! # Recovery
//!
//! Recovery loads the manifest's image, then replays **exactly the live
//! suffix**, each file once through a bounded-buffer reader, into the
//! same in-memory tail the commit path keeps — no installs, no fsyncs.
//! Per frame it costs a block read amortised over 64 KiB, a
//! slicing-by-16 CRC, a decode that borrows the frame where it was
//! read, and one allocation that copies the intent's state into its
//! [`StoreBytes`]; pending intents wait in one list until their marker
//! moves them into the tail. [`ReplayStats`] and the `DiskReplay` event
//! count the live suffix only, never the image. Every live segment
//! stays live. The last one stays the active segment and appends
//! continue in it (a torn tail is trimmed off first — the only write
//! recovery makes), and the sealed ones fold in the background exactly
//! as they would have before the crash. Replay work is bounded by what
//! was committed since the last checkpoint (about the image's size at
//! most, see above), not by history. A failed
//! fold poisons the store (later commits and checkpoints fail until
//! reopen), because nothing else would ever fold the tail.
//!
//! # Group commit
//!
//! Concurrent committers do not serialise through an fsync each.
//! Arriving batches join a *pending group*; one of them becomes the
//! leader and drains the whole queue. It encodes every batch's intents,
//! then one commit marker *per batch* (so the commit point stays
//! per-batch and recovery stays all-or-nothing for each), into one
//! buffer and appends that buffer in **one** write under the WAL lock —
//! holding that lock is the append role. It then gives the role up and
//! pays **one** fsync for the lot with no lock held: the group's commit
//! point. Meanwhile the next group's leader appends behind it and
//! starts its own fsync, so up to two groups are in flight at once and
//! a commit's fsync does not wait for another's to finish before it
//! starts. Followers park on a condvar until their leader posts their
//! batch's outcome. A lone committer pays exactly one fsync. Each
//! group emits a `DiskAppend` per batch and one `DiskGroupCommit`, and
//! feeds the `store.group_size` histogram.
//!
//! Overlapping groups keep the rules a serial flush had:
//!
//! - **Log order.** A group takes its place in the log (a sequence
//!   number) when it appends. It *completes* — publishes to the tail,
//!   emits its events, posts its outcomes — only after every earlier
//!   group has, so readers and committers see groups in log order and
//!   no acknowledged batch sits behind an unacknowledged one.
//! - **Poison.** A failed append or fsync in group g poisons the store
//!   at g at once: no new group is elected, g and every later group
//!   already in flight fail, and no earlier group does (it completes
//!   first, with its own outcome). A failed append poisons before g
//!   gives up the append role, and a leader that takes the role behind
//!   a poison appends nothing: a partial frame stays the end of the
//!   log, where replay trims it, instead of running into whole frames
//!   that would read as corruption. A later group whose own fsync
//!   succeeded still emits its `DiskAppend`s and `DiskGroupCommit` —
//!   its batches are durable and a replay will count them (R9) — but
//!   publishes nothing and fails with the poison.
//! - **Seals.** A group that fills the active segment keeps the append
//!   role through its fsync and its completion. A seal, from such a
//!   group or from `checkpoint_now`, runs holding the role once no
//!   group appended before it is in flight, so every batch of a sealed
//!   segment is in the tail before the checkpointer can fold it.
//!
//! One fsync keeps all-or-nothing without any group-level record.
//! Replay installs a batch only when it reads that batch's marker, and
//! every intent frame before the marker has been read and CRC-checked
//! in the same pass. A crash can leave any prefix of the group's bytes
//! on disk:
//!
//! - a prefix that ends before a batch's marker is complete leaves
//!   that batch without a marker, or ends in a short frame; both read
//!   as a clean end of log, `open` trims the torn frame, and the
//!   batch is absent;
//! - a prefix that holds the marker holds every intent of the batch,
//!   because the intents come first in the same write.
//!
//! A complete frame whose CRC fails is corruption, never a clean end:
//! `open` refuses it with `CorruptLog`, the same exposure any unsynced
//! log bytes carry. So the log needs no group checksum or extra frame:
//! it holds only intents and per-batch markers.
//!
//! # Log format
//!
//! Every segment, and the checkpoint image, opens with the 8-byte magic
//! `CHLOG001`; each record is then framed `[len: u32 LE][payload][crc32:
//! u32 LE]`, the checksum taken over length prefix and payload
//! (CRC-32/IEEE, zlib convention). A complete record whose checksum
//! mismatches is corruption within the committed prefix and fails
//! `open`; an incomplete record at the tail is a torn append and is
//! discarded. A segment that does not open with the magic is
//! corruption too (a file shorter than the magic that is a prefix of it
//! is a torn creation and holds no records); an image the manifest
//! names must hold its whole batch. Older layouts are refused with
//! `CorruptLog`, never opened as empty: a single `log` file and no
//! `MANIFEST` (from before segments), and any `objects/o*.bin` file
//! (from before the checkpoint image, when a fold installed one file
//! per object).
//!
//! Layout inside the store directory:
//!
//! ```text
//! store/
//! ├── MANIFEST                the image, then the ordered live segments
//! │                           (atomic temp + rename + dir-fsync)
//! └── segments/
//!     ├── image-<seq>.log     every object's state at the fold of the
//!     │                       segments up to <seq> (magic CHLOG001)
//!     └── seg-<seq>.log       CRC-framed intentions (magic CHLOG001)
//! ```

use std::collections::HashMap;
use std::io::{self, Read as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use chroma_base::ObjectId;
use chroma_obs::{EventKind, Obs, ObsCell, Observable};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::codec::{CodecError, Stored};
use crate::crc32::crc32;
use crate::fs::{Fs, FsFile, OsFs};
use crate::StoreBytes;

/// Magic prefix identifying the checksummed log format.
const LOG_MAGIC: &[u8; 8] = b"CHLOG001";

/// First line of the `MANIFEST` file.
const MANIFEST_MAGIC: &str = "CHMAN001";

/// Groups in flight at once: one in its fsync while the next appends
/// behind it and starts its own.
const MAX_IN_FLIGHT: u64 = 2;

/// When a checkpoint writes a new image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fold {
    /// Whenever any segment is sealed: `checkpoint_now` and the
    /// checkpointer's drain at shutdown.
    Always,
    /// Once the sealed segments hold at least as many record bytes as
    /// the current image: the checkpointer after a seal. A new image is
    /// at most the old one plus what was committed since, so each fold
    /// writes at most twice the bytes it folds plus the active segment:
    /// O(1) written bytes per committed byte however large the store
    /// grows, where folding at every seal would rewrite the whole store
    /// per segment.
    Outgrown,
}

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
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Io(e) => write!(f, "disk store I/O failure: {e}"),
            DiskError::CorruptLog(what) => write!(f, "corrupt intentions log: {what}"),
        }
    }
}

impl std::error::Error for DiskError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiskError::Io(e) => Some(e),
            DiskError::CorruptLog(_) => None,
        }
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

/// What [`DiskStore::open`] replayed from the manifest's live suffix
/// (the checkpoint image it loaded first is not counted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Committed batches replayed into the in-memory tail.
    pub batches: u64,
    /// Log records decoded (committed or not).
    pub records: u64,
    /// Distinct objects those batches wrote.
    pub objects: u64,
}

/// One framed record of the on-disk intentions log, borrowed from the
/// frame it was read out of. The payload is the codec layout of a
/// `stored!` enum: a `u32` variant index (0 intent, 1 commit marker),
/// then the variant's fields, the state as a `u64` length and its
/// bytes. [`push_intent`] and [`push_commit`] write it.
#[derive(Debug, PartialEq, Eq)]
enum Record<'a> {
    Intent {
        batch: u64,
        object: u64,
        state: &'a [u8],
    },
    Commit {
        batch: u64,
    },
}

impl<'a> Record<'a> {
    /// Decodes one frame's payload without copying the state out of
    /// it; the whole payload must be used.
    fn decode(mut payload: &'a [u8]) -> Result<Self, CodecError> {
        let input = &mut payload;
        let record = match u32::decode(input)? {
            0 => {
                let batch = u64::decode(input)?;
                let object = u64::decode(input)?;
                let len = u64::decode(input)?;
                let (state, rest) = usize::try_from(len)
                    .ok()
                    .and_then(|len| input.split_at_checked(len))
                    .ok_or(CodecError::UnexpectedEnd)?;
                *input = rest;
                Record::Intent {
                    batch,
                    object,
                    state,
                }
            }
            1 => Record::Commit {
                batch: u64::decode(input)?,
            },
            index => {
                return Err(CodecError::InvalidValue(format!(
                    "variant index {index} of DiskRecord"
                )))
            }
        };
        match input.len() {
            0 => Ok(record),
            trailing => Err(CodecError::TrailingBytes(trailing)),
        }
    }
}

/// A batch waiting in the pending group for a leader to flush it.
struct PendingBatch {
    id: u64,
    updates: Vec<(ObjectId, StoreBytes)>,
}

/// Why a store refuses all further work until it is reopened: an I/O
/// failure in a group flush or a checkpoint. What reached disk past it
/// is unknown, so only a replay can vouch for the store again.
#[derive(Clone, Debug)]
struct Poison(String);

impl Poison {
    fn error(&self) -> DiskError {
        DiskError::Io(io::Error::other(self.0.clone()))
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
    /// The outcome a group's own failure `e` posts: an I/O error
    /// poisons the store, a record the log refused does not.
    fn failed(e: DiskError) -> Self {
        match e {
            DiskError::Io(e) => GroupOutcome::Poisoned(Poison(e.to_string())),
            DiskError::CorruptLog(msg) => GroupOutcome::Corrupt(msg),
        }
    }

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
    /// Batches enqueued and not yet taken by a leader.
    queue: Vec<PendingBatch>,
    /// Flush outcomes awaiting pickup, by batch id.
    results: HashMap<u64, GroupOutcome>,
    /// Groups whose leader was elected and that have not completed.
    in_flight: u64,
    /// Sequence number of the last completed group: groups complete in
    /// log order, so `completed + 1` is the next.
    completed: u64,
    /// An I/O failure killed the store; every later commit and
    /// checkpoint fails with it until reopen.
    poisoned: Option<Poison>,
    /// The first group sequence number the poison fails (`u64::MAX`
    /// when only groups not yet elected fail).
    fail_from: u64,
}

impl GroupState {
    /// Poisons the store from group `seq` on; the first poison's cause
    /// is the one reported.
    fn poison(&mut self, seq: u64, poison: Poison) {
        self.poisoned.get_or_insert(poison);
        self.fail_from = self.fail_from.min(seq);
    }

    /// The poison that fails group `seq`, if an earlier (or its own)
    /// failure does.
    fn poison_at(&self, seq: u64) -> Option<&Poison> {
        self.poisoned.as_ref().filter(|_| self.fail_from <= seq)
    }

    /// Whether batch `id` still waits in the queue (ids queue in
    /// order, and a leader takes the whole queue).
    fn queued(&self, id: u64) -> bool {
        self.queue.first().is_some_and(|first| first.id <= id)
    }
}

impl std::fmt::Debug for GroupState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupState")
            .field("next_batch", &self.next_batch)
            .field("queued", &self.queue.len())
            .field("in_flight", &self.in_flight)
            .field("completed", &self.completed)
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

/// Segment + manifest state. Holding this lock is the append role: a
/// group leader holds it to append (and, when its group fills the
/// segment, until it has sealed); `checkpoint_now` holds it to seal;
/// the checkpointer takes it briefly to rewrite the manifest.
#[derive(Debug)]
struct WalState {
    /// Live segments in manifest order; the last is the active one.
    segments: Vec<SegmentInfo>,
    /// The checkpoint image the manifest names, by the sequence number
    /// of the last segment folded into it.
    image: Option<u64>,
    /// Record bytes in that image (past the magic; 0 without one).
    image_bytes: u64,
    /// Append handle to the active segment, shared with the group
    /// leaders syncing it.
    active: Arc<dyn FsFile>,
    /// The frames of the group being appended, cleared for each group
    /// and kept for its capacity.
    group_buf: Vec<u8>,
    /// Sequence number of the last group appended (its place in the
    /// log).
    groups: u64,
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
    /// Group-commit coordination: queue, outcomes, leader election,
    /// completion order.
    group: Mutex<GroupState>,
    /// Committers park here until they may lead, their outcome is
    /// posted, or it is their group's turn to complete.
    group_changed: Condvar,
    wal: Mutex<WalState>,
    /// Every object's newest committed state: the image plus every
    /// batch published since. Hashed with the default SipHash: object
    /// ids reach a node in its peers' messages.
    tail: Mutex<HashMap<u64, StoreBytes>>,
    /// Serialises checkpoints (background thread vs `checkpoint_now`).
    ckpt_run: Mutex<()>,
    ckpt: Mutex<CkptState>,
    /// Wakes the checkpointer on seal or shutdown.
    ckpt_signal: Condvar,
    /// Batches committed but not yet folded behind the watermark.
    backlog: AtomicU64,
    /// Fsyncs paid on the active segment (one per flushed group, one
    /// for a torn-tail trim at open).
    log_fsyncs: AtomicU64,
    /// Directory fsyncs (manifest renames, segment and image
    /// creation).
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
                in_flight: 0,
                completed: 0,
                poisoned: None,
                fail_from: u64::MAX,
            }),
            group_changed: Condvar::new(),
            wal: Mutex::new(WalState {
                segments: recovered.segments,
                image: recovered.image,
                image_bytes: recovered.image_bytes,
                active: recovered.active_file,
                group_buf: Vec::new(),
                groups: 0,
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

    /// Total fsyncs paid on the active segment since `open` — one per
    /// flushed group, so `log_fsync_count() / commits` is the
    /// amortised cost group commit exists to shrink, plus one if `open`
    /// trimmed a torn tail. Seal, manifest and image fsyncs are not
    /// counted (see [`dir_fsync_count`](DiskStore::dir_fsync_count)).
    #[must_use]
    pub fn log_fsync_count(&self) -> u64 {
        self.shared.log_fsyncs.load(Ordering::Relaxed)
    }

    /// Directory fsyncs paid since `open`: after every manifest
    /// rename, segment-file creation and checkpoint image, and for a
    /// brand-new store on the parent of each directory `open` created —
    /// the metadata syncs that make renames and creations durable
    /// across power loss. Reopening an existing store pays none.
    #[must_use]
    pub fn dir_fsync_count(&self) -> u64 {
        self.shared.dir_fsyncs.load(Ordering::Relaxed)
    }

    /// Batches queued and not yet taken by a group leader — the
    /// instantaneous depth of the follower queue, 0 when the log is
    /// idle.
    #[must_use]
    pub fn group_queue_depth(&self) -> u64 {
        self.shared.group.lock().queue.len() as u64
    }

    /// Batches committed but not yet folded into a checkpoint image
    /// behind the watermark — the recovery replay debt a crash right
    /// now would pay.
    #[must_use]
    pub fn checkpoint_backlog(&self) -> u64 {
        self.shared.backlog.load(Ordering::Relaxed)
    }

    /// What `open` replayed from the manifest's live suffix (zeros for
    /// a fresh or fully-checkpointed store; the image is not counted).
    #[must_use]
    pub fn replay_stats(&self) -> ReplayStats {
        self.shared.recovered
    }

    /// The files the manifest names for the store at `dir` on `fs`: the
    /// checkpoint image first, once a fold has written one, then the
    /// live segments oldest first — the last is the active segment.
    /// Works without an open store (e.g. against a crashed directory);
    /// empty if no manifest exists yet.
    ///
    /// # Errors
    ///
    /// I/O failures, or a corrupt manifest.
    pub fn live_segment_paths(
        fs: &dyn Fs,
        dir: impl AsRef<Path>,
    ) -> Result<Vec<PathBuf>, DiskError> {
        let dir = dir.as_ref();
        let manifest = read_manifest(fs, dir)?.unwrap_or_default();
        Ok(manifest
            .image
            .map(image_file_name)
            .into_iter()
            .chain(manifest.segments.into_iter().map(segment_file_name))
            .map(|name| dir.join("segments").join(name))
            .collect())
    }

    /// Reads the newest committed state of `object` from the in-memory
    /// tail, which holds every committed object.
    ///
    /// # Errors
    ///
    /// None: the tail holds every committed object.
    pub fn read(&self, object: ObjectId) -> Result<Option<StoreBytes>, DiskError> {
        Ok(self.shared.tail.lock().get(&object.as_raw()).cloned())
    }

    /// Returns the ids of all committed objects, unordered.
    ///
    /// # Errors
    ///
    /// None, as for [`read`](DiskStore::read).
    pub fn object_ids(&self) -> Result<Vec<ObjectId>, DiskError> {
        Ok(self
            .shared
            .tail
            .lock()
            .keys()
            .map(|&raw| ObjectId::from_raw(raw))
            .collect())
    }

    /// Atomically commits a batch of updates: its intents and then its
    /// commit marker are appended in one write and fsynced once (the
    /// commit point), then the states are published to the in-memory
    /// tail. Concurrent callers share that write and fsync via group
    /// commit, and consecutive groups overlap their fsyncs (see the
    /// module docs); each batch keeps its own commit marker, so
    /// atomicity is still per-batch. An empty batch is vacuously
    /// durable and pays no fsync at all.
    ///
    /// # Errors
    ///
    /// I/O failures, after which the batch is wholly present or wholly
    /// absent once recovery has run.
    pub fn commit_batch(&self, updates: Vec<(ObjectId, StoreBytes)>) -> Result<(), DiskError> {
        self.shared.commit_batch_inner(updates)
    }

    /// Seals the active segment (if it holds any batches) and folds
    /// every sealed segment into a new checkpoint image synchronously.
    /// Returns whether anything was folded. Mostly for tests and
    /// benchmarks; with [`DiskStoreOptions::auto_checkpoint`] the
    /// background thread does this on its own, once the sealed segments
    /// have outgrown the image.
    ///
    /// # Errors
    ///
    /// I/O failures in the seal or the fold (which poison the store
    /// until reopen), or the error that poisoned it.
    pub fn checkpoint_now(&self) -> Result<bool, DiskError> {
        let shared = &self.shared;
        let sealed = {
            // The append role: no group appends while the seal runs.
            let mut wal = shared.wal.lock();
            let mut group = shared.group.lock();
            // Every group appended before the seal completes first.
            while group.completed < wal.groups {
                shared.group_changed.wait(&mut group);
            }
            if let Some(poison) = &group.poisoned {
                return Err(poison.error());
            }
            drop(group);
            if wal.segments.last().is_some_and(|active| active.batches > 0) {
                shared.seal_active(&mut wal, shared.obs.get())
            } else {
                Ok(())
            }
        };
        shared.poison_on_io(sealed)?;
        shared.checkpoint_inner(Fold::Always)
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

/// The background checkpointer: waits for seals, folds the sealed
/// segments once they outgrow the image, drains once more on shutdown
/// so restarts replay little.
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
        if shared.checkpoint_inner(Fold::Outgrown).is_err() {
            // The failure poisoned the store (see `checkpoint_inner`):
            // commits now fail loudly until a reopen replays the
            // segments, so there is nothing left to fold.
            return;
        }
    }
    let _ = shared.checkpoint_inner(Fold::Always);
}

impl Shared {
    fn commit_batch_inner(&self, updates: Vec<(ObjectId, StoreBytes)>) -> Result<(), DiskError> {
        let mut group = self.group.lock();
        if let Some(poison) = &group.poisoned {
            return Err(poison.error());
        }
        if updates.is_empty() {
            // Vacuously durable: nothing needs logging, so the batch
            // must not pay (or make a whole group pay) any fsyncs.
            return Ok(());
        }
        let id = group.next_batch;
        group.next_batch += 1;
        group.queue.push(PendingBatch { id, updates });

        loop {
            if let Some(outcome) = group.results.remove(&id) {
                // Follower: our group's leader posted the outcome.
                return outcome.into_result();
            }
            if group.queued(id) {
                if let Some(poison) = &group.poisoned {
                    // The "process" died while we queued: we die with it,
                    // un-flushed.
                    let err = poison.error();
                    group.queue.retain(|batch| batch.id != id);
                    return Err(err);
                }
                if group.in_flight < MAX_IN_FLIGHT {
                    break;
                }
            }
            self.group_changed.wait(&mut group);
        }

        // Leader: the whole queue is our group.
        group.in_flight += 1;
        let batches = std::mem::take(&mut group.queue);
        drop(group);
        self.flush_group(&batches, id)
    }

    /// Leads one drained group: appends it under the WAL lock, fsyncs
    /// it, and completes it once every earlier group has (see the
    /// module docs). Returns the leader's own outcome.
    fn flush_group(&self, group: &[PendingBatch], leader: u64) -> Result<(), DiskError> {
        let obs = self.obs.get();

        // 1. Append under the WAL lock: the group's place in the log.
        let mut wal = self.wal.lock();
        wal.groups += 1;
        let seq = wal.groups;
        let file = Arc::clone(&wal.active);
        // An earlier group's failure may have left a partial frame at
        // the end of the log: append nothing behind it.
        let poisoned = self.group.lock().poisoned.clone();
        let appended = match poisoned {
            Some(poison) => Err(GroupOutcome::Poisoned(poison)),
            None => Self::append_group(&mut wal, group).map_err(GroupOutcome::failed),
        };
        if let Err(GroupOutcome::Poisoned(poison)) = &appended {
            // Poisoned before the append role is given up, so the next
            // leader sees it before it could append.
            self.group.lock().poison(seq, poison.clone());
            self.group_changed.notify_all();
        }
        // A group that fills the active segment keeps the append role
        // until it completes: nothing lands behind it before it has
        // sealed.
        let full = wal
            .segments
            .last()
            .is_some_and(|active| active.bytes >= self.opts.segment_bytes);
        let held = full.then_some(wal);

        // 2. The group's one fsync, with no lock held unless the group
        // kept the role.
        let synced = appended.and_then(|bytes| {
            self.log_fsync(&*file, obs)
                .map(|()| bytes)
                .map_err(GroupOutcome::failed)
        });

        // 3. Complete in log order.
        let mut state = self.group.lock();
        if let Err(GroupOutcome::Poisoned(poison)) = &synced {
            // Later groups fail from now on, not from our turn.
            state.poison(seq, poison.clone());
            self.group_changed.notify_all();
        }
        while state.completed + 1 != seq {
            self.group_changed.wait(&mut state);
        }
        let outcome = match synced {
            Err(outcome) => outcome,
            Ok(batch_bytes) => {
                // Durable, so announced even when an earlier group's
                // failure fails it: a replay will count these batches.
                emit_group(group, &batch_bytes, obs);
                match state.poison_at(seq).cloned() {
                    Some(poison) => GroupOutcome::Poisoned(poison),
                    None => {
                        self.publish(group);
                        let mut finished = Ok(());
                        if let Some(wal) = held {
                            // Seal without blocking committers that only
                            // queue or pick up outcomes.
                            drop(state);
                            finished = self.seal_held(wal, obs);
                            state = self.group.lock();
                        }
                        finished.map_or_else(GroupOutcome::failed, |()| GroupOutcome::Done)
                    }
                }
            }
        };
        if let GroupOutcome::Poisoned(poison) = &outcome {
            state.poison(seq, poison.clone());
        }
        for batch in group.iter().filter(|batch| batch.id != leader) {
            state.results.insert(batch.id, outcome.clone());
        }
        state.completed = seq;
        state.in_flight -= 1;
        self.group_changed.notify_all();
        drop(state);
        outcome.into_result()
    }

    /// Encodes every batch's intents, then every batch's commit marker,
    /// and appends them to the active segment in one write. Returns
    /// each batch's log bytes.
    fn append_group(wal: &mut WalState, group: &[PendingBatch]) -> Result<Vec<u64>, DiskError> {
        let WalState {
            segments,
            active,
            group_buf,
            ..
        } = wal;
        group_buf.clear();
        let mut batch_bytes = vec![0u64; group.len()];
        for (i, batch) in group.iter().enumerate() {
            for (object, state) in &batch.updates {
                batch_bytes[i] += push_intent(group_buf, batch.id, object.as_raw(), state)?;
            }
        }
        for (i, batch) in group.iter().enumerate() {
            batch_bytes[i] += push_commit(group_buf, batch.id)?;
        }
        active.append(group_buf)?;
        let info = segments.last_mut().expect("live list never empty");
        info.batches += group.len() as u64;
        info.bytes += batch_bytes.iter().sum::<u64>();
        // Two leaders race for the append role, so a group with lower
        // ids can land after one with higher ids.
        info.max_batch = info
            .max_batch
            .max(group.last().expect("group is non-empty").id);
        Ok(batch_bytes)
    }

    /// A durable, unpoisoned group's step past its commit point, at its
    /// turn: publish its states to the tail.
    fn publish(&self, group: &[PendingBatch]) {
        let mut tail = self.tail.lock();
        for batch in group {
            for (object, state) in &batch.updates {
                tail.insert(object.as_raw(), state.clone());
            }
        }
        self.backlog
            .fetch_add(group.len() as u64, Ordering::Relaxed);
    }

    /// Seals the active segment for a published group that filled it
    /// and kept the append role, then wakes the checkpointer. Every
    /// earlier group has completed and none appended behind it, so the
    /// seal sees only published batches.
    fn seal_held(&self, mut wal: MutexGuard<'_, WalState>, obs: &Obs) -> Result<(), DiskError> {
        self.seal_active(&mut wal, obs)?;
        drop(wal);
        self.kick_checkpointer();
        Ok(())
    }

    /// Seals the active segment: create + fsync the next segment file,
    /// fsync the segments directory, then commit it into the manifest.
    /// The new segment is in the manifest *before* any record lands in
    /// it.
    fn seal_active(&self, wal: &mut WalState, obs: &Obs) -> Result<(), DiskError> {
        let next_seq = wal.segments.last().expect("live list never empty").seq + 1;
        let segments_dir = self.dir.join("segments");
        let file = self
            .fs
            .create(&segments_dir.join(segment_file_name(next_seq)))?;
        file.append(LOG_MAGIC)?;
        file.sync()?;
        self.fsync_dir_counted(&segments_dir)?;
        let seqs: Vec<u64> = wal
            .segments
            .iter()
            .map(|s| s.seq)
            .chain([next_seq])
            .collect();
        self.write_manifest_counted(wal.image, &seqs)?;
        let old = *wal.segments.last().expect("live list never empty");
        wal.segments.push(SegmentInfo {
            seq: next_seq,
            batches: 0,
            bytes: 0,
            max_batch: 0,
        });
        wal.active = Arc::from(file);
        obs.emit(EventKind::SegmentSeal {
            segment: old.seq,
            batches: old.batches,
            bytes: old.bytes,
        });
        Ok(())
    }

    /// Folds every sealed segment into a new checkpoint image and
    /// garbage-collects the old image and the segments behind the
    /// watermark. The manifest rewrite is the fold's commit point: a
    /// crash before it loads the old image and replays the segments
    /// again, a crash after it leaves only orphan files (swept, not
    /// read). An I/O failure poisons the store: this fold is the only
    /// one there is, so a store that silently stopped folding would
    /// grow its replay debt without bound.
    fn checkpoint_inner(&self, fold: Fold) -> Result<bool, DiskError> {
        let _run = self.ckpt_run.lock();
        if self.group.lock().poisoned.is_some() {
            // A dead store does no more disk work.
            return Ok(false);
        }
        self.poison_on_io(self.fold_sealed(fold))
    }

    /// Passes `result` through; an I/O error in it poisons the store
    /// for every group not yet elected.
    fn poison_on_io<T>(&self, result: Result<T, DiskError>) -> Result<T, DiskError> {
        if let Err(DiskError::Io(e)) = &result {
            self.group.lock().poison(u64::MAX, Poison(e.to_string()));
            self.group_changed.notify_all();
        }
        result
    }

    fn fold_sealed(&self, fold: Fold) -> Result<bool, DiskError> {
        let obs = self.obs.get();
        let (folds, old_image) = {
            let wal = self.wal.lock();
            let folds = wal.segments[..wal.segments.len() - 1].to_vec();
            let sealed: u64 = folds.iter().map(|s| s.bytes).sum();
            if fold == Fold::Outgrown && sealed < wal.image_bytes {
                // Not yet worth rewriting the whole image.
                return Ok(false);
            }
            (folds, wal.image)
        };
        if folds.is_empty() {
            return Ok(false);
        }
        let batches: u64 = folds.iter().map(|s| s.batches).sum();
        let watermark = folds.iter().map(|s| s.max_batch).max().unwrap_or(0);
        let upto = folds.last().expect("folds is non-empty").seq;
        obs.emit(EventKind::CheckpointBegin {
            segments: folds.len() as u64,
            batches,
        });
        // Every folded batch is in the tail (a seal waits for the groups
        // before it to complete); states newer than the watermark ride
        // along harmlessly (see the module docs).
        let mut states: Vec<(u64, StoreBytes)> = self
            .tail
            .lock()
            .iter()
            .map(|(&object, state)| (object, state.clone()))
            .collect();
        states.sort_unstable_by_key(|&(object, _)| object);
        let mut image = LOG_MAGIC.to_vec();
        for (object, state) in &states {
            push_intent(&mut image, watermark, *object, state)?;
        }
        push_commit(&mut image, watermark)?;
        let segments_dir = self.dir.join("segments");
        let file = self.fs.create(&segments_dir.join(image_file_name(upto)))?;
        file.append(&image)?;
        file.sync()?;
        self.fsync_dir_counted(&segments_dir)?;
        {
            let mut wal = self.wal.lock();
            wal.segments.retain(|s| s.seq > upto);
            wal.image = Some(upto);
            wal.image_bytes = (image.len() - LOG_MAGIC.len()) as u64;
            let seqs: Vec<u64> = wal.segments.iter().map(|s| s.seq).collect();
            self.write_manifest_counted(wal.image, &seqs)?;
        }
        obs.emit(EventKind::CheckpointEnd {
            upto,
            batches,
            objects: states.len() as u64,
        });
        if let Some(old) = old_image {
            self.fs
                .remove_file(&segments_dir.join(image_file_name(old)))?;
        }
        for seg in &folds {
            self.fs
                .remove_file(&segments_dir.join(segment_file_name(seg.seq)))?;
            obs.emit(EventKind::SegmentGc {
                segment: seg.seq,
                bytes: seg.bytes,
            });
        }
        self.backlog.fetch_sub(batches, Ordering::Relaxed);
        Ok(true)
    }

    fn kick_checkpointer(&self) {
        self.ckpt.lock().kicks += 1;
        self.ckpt_signal.notify_all();
    }

    fn write_manifest_counted(&self, image: Option<u64>, seqs: &[u64]) -> Result<(), DiskError> {
        let mut fsyncs = 0u64;
        let result = write_manifest(&*self.fs, &self.dir, image, seqs, &mut fsyncs);
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
    fn log_fsync(&self, file: &dyn FsFile, obs: &Obs) -> Result<(), DiskError> {
        self.log_fsyncs.fetch_add(1, Ordering::Relaxed);
        fsync_timed(file, obs)
    }
}

/// Emits a durable group's events: a `DiskAppend` per batch, then the
/// `DiskGroupCommit` covering them.
fn emit_group(group: &[PendingBatch], batch_bytes: &[u64], obs: &Obs) {
    let mut records = 0u64;
    for (batch, &bytes) in group.iter().zip(batch_bytes) {
        let batch_records = batch.updates.len() as u64 + 1;
        records += batch_records;
        obs.emit(EventKind::DiskAppend {
            records: batch_records,
            bytes,
        });
    }
    obs.emit(EventKind::DiskGroupCommit {
        batches: group.len() as u64,
        records,
        bytes: batch_bytes.iter().sum(),
    });
    obs.observe("store.group_size", group.len() as u64);
}

/// A file sync with its latency recorded into `store.fsync_us`.
fn fsync_timed(file: &dyn FsFile, obs: &Obs) -> Result<(), DiskError> {
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

/// Appends one `[len][payload][crc32]` frame to `buf`, the payload
/// written by `payload`; returns the frame's length.
fn push_frame(buf: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) -> Result<u64, DiskError> {
    // encode behind a length placeholder, then patch the length in
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    payload(buf);
    let len = u32::try_from(buf.len() - start - 4)
        .map_err(|_| DiskError::CorruptLog("record too large".into()))?;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&buf[start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
    Ok((buf.len() - start) as u64)
}

/// Frames a [`Record::Intent`] straight from the borrowed state.
fn push_intent(buf: &mut Vec<u8>, batch: u64, object: u64, state: &[u8]) -> Result<u64, DiskError> {
    push_frame(buf, |out| {
        0u32.encode(out); // variant index of `Intent`
        batch.encode(out);
        object.encode(out);
        (state.len() as u64).encode(out);
        out.extend_from_slice(state);
    })
}

/// Frames a [`Record::Commit`] marker.
fn push_commit(buf: &mut Vec<u8>, batch: u64) -> Result<u64, DiskError> {
    push_frame(buf, |out| {
        1u32.encode(out); // variant index of `Commit`
        batch.encode(out);
    })
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

/// The checkpoint image of the fold whose last segment was `seq`.
fn image_file_name(seq: u64) -> String {
    format!("image-{seq:08}.log")
}

/// Fsyncs a directory so renames/creations/removals inside it survive
/// power loss, counting into `fsyncs`.
fn fsync_dir(fs: &dyn Fs, dir: &Path, fsyncs: &mut u64) -> Result<(), DiskError> {
    fs.sync_dir(dir)?;
    *fsyncs += 1;
    Ok(())
}

/// What the `MANIFEST` names: the checkpoint image, then the live
/// segments in order.
#[derive(Debug, Default)]
struct Manifest {
    image: Option<u64>,
    segments: Vec<u64>,
}

/// Atomically replaces the manifest: write `MANIFEST.tmp`, fsync it,
/// rename over `MANIFEST`, fsync the directory.
fn write_manifest(
    fs: &dyn Fs,
    dir: &Path,
    image: Option<u64>,
    seqs: &[u64],
    fsyncs: &mut u64,
) -> Result<(), DiskError> {
    let mut text = String::with_capacity(32 + seqs.len() * 16);
    text.push_str(MANIFEST_MAGIC);
    text.push('\n');
    for (kind, seq) in image
        .map(|seq| ("image", seq))
        .into_iter()
        .chain(seqs.iter().map(|&seq| ("seg", seq)))
    {
        text.push_str(&format!("{kind} {seq}\n"));
    }
    let tmp = dir.join("MANIFEST.tmp");
    let file = fs.create(&tmp)?;
    file.append(text.as_bytes())?;
    file.sync()?;
    fs.rename(&tmp, &dir.join("MANIFEST"))?;
    fsync_dir(fs, dir, fsyncs)
}

/// Parses the manifest; `Ok(None)` when none exists (a fresh store).
fn read_manifest(fs: &dyn Fs, dir: &Path) -> Result<Option<Manifest>, DiskError> {
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
    let mut manifest = Manifest::default();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let bad = || DiskError::CorruptLog(format!("bad manifest line {line:?}"));
        let (kind, digits) = line.split_once(' ').ok_or_else(bad)?;
        let seq = digits.parse::<u64>().map_err(|_| bad())?;
        // The image comes first, once, and every number rises.
        let last = manifest.segments.last().or(manifest.image.as_ref());
        if last.is_some_and(|&last| last >= seq) {
            return Err(DiskError::CorruptLog(
                "manifest segments out of order".into(),
            ));
        }
        match kind {
            "image" if manifest.image.is_none() && manifest.segments.is_empty() => {
                manifest.image = Some(seq);
            }
            "seg" => manifest.segments.push(seq),
            _ => return Err(bad()),
        }
    }
    Ok(Some(manifest))
}

/// Bytes the frame reader asks its file for at a time.
const READ_AHEAD: usize = 64 * 1024;

/// Streams CRC-framed records out of a log file through one bounded
/// buffer: records are parsed where they were read, and the buffer
/// grows past [`READ_AHEAD`] only to hold a larger frame, so recovery
/// memory is bounded by the largest record, not the log length.
struct FrameReader {
    src: Box<dyn io::Read>,
    /// The file's length.
    len: u64,
    /// Where the next frame starts in the file: the end of the last
    /// complete frame read so far (or of the magic). Everything past
    /// it is unread or torn.
    offset: u64,
    /// Read-ahead; `buf[start..end]` holds the file's bytes from
    /// `offset` on.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// Opens `path` and consumes the format magic; a file that opens
    /// with anything else is corrupt. `Ok(None)` means the file does
    /// not exist.
    fn open(fs: &dyn Fs, path: &Path) -> Result<Option<FrameReader>, DiskError> {
        let (len, src) = match fs.open_read(path) {
            Ok(opened) => opened,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut reader = FrameReader {
            src,
            len,
            offset: 0,
            buf: vec![0; usize::try_from(len).map_or(READ_AHEAD, |len| len.min(READ_AHEAD))],
            start: 0,
            end: 0,
        };
        // A file cut short inside the magic is a torn creation: it
        // must match as far as it goes, and then holds no records.
        let header = usize::try_from(len).map_or(LOG_MAGIC.len(), |n| n.min(LOG_MAGIC.len()));
        reader.fill(header)?;
        if reader.buf[..header] != LOG_MAGIC[..header] {
            return Err(DiskError::CorruptLog(format!(
                "{} does not open with the CHLOG001 magic",
                path.display()
            )));
        }
        reader.consume(header);
        Ok(Some(reader))
    }

    /// Makes the buffer hold at least `n` bytes from `offset` on; the
    /// file must have them.
    fn fill(&mut self, n: usize) -> io::Result<()> {
        if self.end - self.start >= n {
            return Ok(());
        }
        // Slide the partial frame to the front, and grow only for a
        // frame larger than the buffer.
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() < n {
            self.buf.resize(n, 0);
        }
        while self.end < n {
            match self.src.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(read) => self.end += read,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Steps past `n` buffered bytes; returns where they start in the
    /// buffer.
    fn consume(&mut self, n: usize) -> usize {
        let at = self.start;
        self.start += n;
        self.offset += n as u64;
        at
    }

    /// The next record, borrowed from the buffer; `Ok(None)` at a
    /// clean EOF or a torn tail. The frame's CRC is checked before its
    /// payload is decoded.
    fn next(&mut self) -> Result<Option<Record<'_>>, DiskError> {
        let left = self.len - self.offset;
        if left < 4 {
            return Ok(None); // torn tail (or clean EOF)
        }
        self.fill(4)?;
        let len_bytes = &self.buf[self.start..self.start + 4];
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4-byte length"));
        if left < 4 + u64::from(len) + 4 {
            return Ok(None); // torn record: discard from here
        }
        let frame = 4 + len as usize + 4;
        self.fill(frame)?;
        let at = self.consume(frame);
        let (checked, crc) = self.buf[at..at + frame].split_at(frame - 4);
        let stored = u32::from_le_bytes(crc.try_into().expect("4-byte CRC"));
        let computed = crc32(checked);
        if stored != computed {
            return Err(DiskError::CorruptLog(format!(
                "record checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
        Record::decode(&checked[4..])
            .map(Some)
            .map_err(|e| DiskError::CorruptLog(e.to_string()))
    }
}

/// Replays one log file — a live segment or the checkpoint image — in
/// a single streaming pass. Intents wait in one list, in log order,
/// until their batch's commit marker arrives and moves them into
/// `tail`; a batch whose marker never arrives is dropped. Returns the
/// file's bookkeeping (as segment `seq`), where its last complete frame
/// ends, and its length.
fn replay_file(
    fs: &dyn Fs,
    path: &Path,
    seq: u64,
    tail: &mut HashMap<u64, StoreBytes>,
    stats: &mut ReplayStats,
    max_batch: &mut u64,
) -> Result<(SegmentInfo, u64, u64), DiskError> {
    let Some(mut reader) = FrameReader::open(fs, path)? else {
        return Err(DiskError::CorruptLog(format!(
            "manifest names {} but the file is missing",
            path.display()
        )));
    };
    let mut info = SegmentInfo {
        seq,
        batches: 0,
        bytes: 0,
        max_batch: 0,
    };
    // (batch, object, state) of every intent not yet committed
    let mut pending: Vec<(u64, u64, StoreBytes)> = Vec::new();
    while let Some(record) = reader.next()? {
        stats.records += 1;
        match record {
            Record::Intent {
                batch,
                object,
                state,
            } => {
                *max_batch = (*max_batch).max(batch);
                pending.push((batch, object, StoreBytes::copy_from_slice(state)));
            }
            Record::Commit { batch } => {
                *max_batch = (*max_batch).max(batch);
                for (_, object, state) in pending.extract_if(.., |intent| intent.0 == batch) {
                    tail.insert(object, state);
                }
                info.batches += 1;
                info.max_batch = info.max_batch.max(batch);
            }
        }
    }
    stats.batches += info.batches;
    let valid_end = reader.offset;
    info.bytes = valid_end.saturating_sub(LOG_MAGIC.len() as u64);
    Ok((info, valid_end, reader.len))
}

/// What `recover` hands back to `open_with`.
struct Recovered {
    /// Every live segment in manifest order; the last is the active
    /// one.
    segments: Vec<SegmentInfo>,
    image: Option<u64>,
    /// Record bytes in the image (0 without one).
    image_bytes: u64,
    active_file: Arc<dyn FsFile>,
    /// Every object's newest committed state: the image's, overwritten
    /// by the live suffix's.
    tail: HashMap<u64, StoreBytes>,
    max_batch: u64,
    stats: ReplayStats,
    log_fsyncs: u64,
    dir_fsyncs: u64,
}

/// Crash recovery: refuse older layouts, sweep the manifest temp, load
/// the manifest's image and replay exactly its live suffix into the
/// tail, sweep files in `segments/` the manifest does not name, then
/// reopen the last live segment for appends. Its torn tail, if any, is
/// the one thing recovery writes; only a brand-new store also creates
/// its first segment and manifest and syncs the parent of every
/// directory it created.
fn recover(fs: &dyn Fs, dir: &Path) -> Result<Recovered, DiskError> {
    let manifest = read_manifest(fs, dir)?;
    let stray_log = dir.join("log");
    if manifest.is_none() && fs.open_read(&stray_log).is_ok() {
        return Err(DiskError::CorruptLog(format!(
            "{} holds a `log` file but no MANIFEST: the pre-segment single-log layout is not supported",
            dir.display()
        )));
    }
    // Folds once installed each object as `objects/o<id>.bin`; a store
    // opened without them would silently lose every folded state.
    let object_files = match fs.list(&dir.join("objects")) {
        Ok(names) => names,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(DiskError::Io(e)),
    };
    if object_files
        .iter()
        .any(|name| name.starts_with('o') && name.ends_with(".bin"))
    {
        return Err(DiskError::CorruptLog(format!(
            "{} holds objects/o*.bin files: the per-object checkpoint layout is not supported",
            dir.display()
        )));
    }
    // A brand-new store's directory, and any ancestor `open` creates
    // with it, is an entry of its parent that power loss can drop.
    let created: Vec<PathBuf> = if manifest.is_none() {
        dir.ancestors()
            .filter(|a| !a.as_os_str().is_empty())
            .take_while(|a| fs.list(a).is_err())
            .map(Path::to_path_buf)
            .collect()
    } else {
        Vec::new()
    };
    let segments_dir = dir.join("segments");
    fs.create_dir_all(&segments_dir)?;

    // A crash mid-manifest-write leaves a temp file the protocol never
    // reads.
    remove_if_present(fs, &dir.join("MANIFEST.tmp"))?;

    // The manifest is authoritative. A `log` alongside it is a stale
    // leftover (e.g. resurrected bytes from the pre-segment format's
    // unsynced truncate): never replay it.
    remove_if_present(fs, &stray_log)?;
    let Manifest {
        image,
        segments: live,
    } = manifest.unwrap_or_default();

    // The image first: every object's state at the last fold. It was
    // synced before the manifest named it, so it must be whole.
    let mut tail = HashMap::new();
    let mut max_batch = 0u64;
    let mut image_bytes = 0u64;
    if let Some(seq) = image {
        let path = segments_dir.join(image_file_name(seq));
        let (info, valid_end, len) = replay_file(
            fs,
            &path,
            seq,
            &mut tail,
            &mut ReplayStats::default(),
            &mut max_batch,
        )?;
        if info.batches != 1 || valid_end != len {
            return Err(DiskError::CorruptLog(format!(
                "checkpoint image {} is incomplete",
                path.display()
            )));
        }
        image_bytes = info.bytes;
    }

    // Then exactly the live suffix, oldest segment first, on top of it.
    let mut suffix = HashMap::new();
    let mut stats = ReplayStats::default();
    let mut segments = Vec::with_capacity(live.len());
    let (mut active_end, mut active_len) = (0u64, 0u64);
    for &seq in &live {
        let path = segments_dir.join(segment_file_name(seq));
        let (info, valid_end, len) =
            replay_file(fs, &path, seq, &mut suffix, &mut stats, &mut max_batch)?;
        segments.push(info);
        (active_end, active_len) = (valid_end, len);
    }
    stats.objects = suffix.len() as u64;
    // Without an image the suffix is the whole tail: move it rather
    // than hash every entry again.
    if tail.is_empty() {
        tail = suffix;
    } else {
        tail.extend(suffix);
    }

    // Files the manifest does not name are dead by definition: a seal
    // or a fold that never reached the manifest, or a fold's GC that
    // never finished. Sweep, never read.
    let image_name = image.map(image_file_name);
    for name in fs.list(&segments_dir)? {
        let named = parse_segment_name(&name).is_some_and(|seq| live.contains(&seq))
            || image_name.as_deref() == Some(name.as_str());
        if !named {
            fs.remove_file(&segments_dir.join(name))?;
        }
    }

    let mut log_fsyncs = 0u64;
    let mut dir_fsyncs = 0u64;
    let active_file = match segments.last().map(|active| active.seq) {
        // Appends continue in the last live segment. Batch ids continue
        // past every intent replay saw, so none is ever reused.
        Some(seq) => {
            let file = fs.open_append(&segments_dir.join(segment_file_name(seq)))?;
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
        // before any record lands in it, and every directory `open`
        // created is in its parent before any commit is acknowledged.
        None => {
            let seq = image.map_or(1, |image| image + 1);
            let file = fs.create(&segments_dir.join(segment_file_name(seq)))?;
            file.append(LOG_MAGIC)?;
            file.sync()?;
            fsync_dir(fs, &segments_dir, &mut dir_fsyncs)?;
            write_manifest(fs, dir, image, &[seq], &mut dir_fsyncs)?;
            for parent in created
                .iter()
                .rev()
                .filter_map(|d| d.parent())
                .filter(|p| !p.as_os_str().is_empty())
            {
                fsync_dir(fs, parent, &mut dir_fsyncs)?;
            }
            segments.push(SegmentInfo {
                seq,
                batches: 0,
                bytes: 0,
                max_batch: 0,
            });
            file
        }
    };
    Ok(Recovered {
        segments,
        image,
        image_bytes,
        active_file: Arc::from(active_file),
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
    use crate::codec;
    use crate::fs::MemFs;
    use std::collections::{BTreeMap, BTreeSet};
    use std::fs::{self, File, OpenOptions};
    use std::io::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    crate::stored! {
        /// A log record as the codec encodes it: the reference for the
        /// hand-written framing and decoding of [`Record`].
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

    /// The reference framing of `record`: its codec encoding behind a
    /// length prefix, then the CRC of both.
    fn reference_frame(record: &DiskRecord) -> Vec<u8> {
        let payload = codec::to_bytes(record).unwrap();
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        frame
    }

    /// Appends `record`'s reference frame to `log`; returns its length.
    fn append_record(log: &dyn FsFile, record: &DiskRecord) -> Result<u64, DiskError> {
        let frame = reference_frame(record);
        log.append(&frame)?;
        Ok(frame.len() as u64)
    }

    /// A [`MemFs`] that counts the appends made through its files and
    /// cannot list the directory `unlistable`, if one is set.
    #[derive(Debug, Default)]
    struct CountingFs {
        inner: MemFs,
        appends: Arc<AtomicU64>,
        unlistable: Option<PathBuf>,
    }

    #[derive(Debug)]
    struct CountingFile {
        inner: Box<dyn FsFile>,
        appends: Arc<AtomicU64>,
    }

    impl FsFile for CountingFile {
        fn append(&self, bytes: &[u8]) -> io::Result<()> {
            self.appends.fetch_add(1, Ordering::Relaxed);
            self.inner.append(bytes)
        }
        fn set_len(&self, len: u64) -> io::Result<()> {
            self.inner.set_len(len)
        }
        fn sync(&self) -> io::Result<()> {
            self.inner.sync()
        }
    }

    impl CountingFs {
        fn wrap(&self, inner: Box<dyn FsFile>) -> Box<dyn FsFile> {
            Box::new(CountingFile {
                inner,
                appends: Arc::clone(&self.appends),
            })
        }
    }

    impl Fs for CountingFs {
        fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
            Ok(self.wrap(self.inner.create(path)?))
        }
        fn open_append(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
            Ok(self.wrap(self.inner.open_append(path)?))
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn open_read(&self, path: &Path) -> io::Result<(u64, Box<dyn io::Read>)> {
            self.inner.open_read(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.inner.remove_file(path)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
            if self.unlistable.as_deref() == Some(dir) {
                return Err(io::ErrorKind::PermissionDenied.into());
            }
            self.inner.list(dir)
        }
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            self.inner.create_dir_all(dir)
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            self.inner.sync_dir(dir)
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
            append_record(&log, record).unwrap();
        }
        write_manifest(&OsFs, dir, None, &[1], &mut 0).unwrap();
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
            &log,
            &DiskRecord::Intent {
                batch: 1,
                object: 1,
                state: b"committed".to_vec(),
            },
        )
        .unwrap();
        append_record(&log, &DiskRecord::Commit { batch: 1 }).unwrap();
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
    fn per_object_layout_is_refused_not_opened_empty() {
        // Folds once installed each object as `objects/o<id>.bin` and
        // dropped the folded segments: opened without them, the store
        // would lose every folded state.
        let dir = temp_dir();
        write_log(&dir, &[]);
        fs::create_dir_all(dir.join("objects")).unwrap();
        // an empty objects/ holds nothing to lose and opens
        drop(DiskStore::open(&dir).unwrap());
        fs::write(dir.join("objects").join("o1.bin"), b"folded").unwrap();
        let before = snapshot(&dir);
        match DiskStore::open(&dir) {
            Err(DiskError::CorruptLog(msg)) => assert!(msg.contains("per-object"), "{msg}"),
            other => panic!("per-object layout not refused: {other:?}"),
        }
        assert_eq!(snapshot(&dir), before, "a refusal leaves the data alone");
        fs::remove_dir_all(&dir).ok();

        // An objects/ that cannot be listed may hold such files too: an
        // error, never an empty store.
        let fs = CountingFs {
            unlistable: Some(PathBuf::from("store/objects")),
            ..CountingFs::default()
        };
        fs.inner.create_dir_all(Path::new("store/objects")).unwrap();
        match DiskStore::open_fs(Arc::new(fs), "store", manual(1 << 20)) {
            Err(DiskError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::PermissionDenied),
            other => panic!("an unlistable objects/ was opened: {other:?}"),
        }
    }

    #[test]
    fn a_named_image_must_be_whole() {
        // The manifest names an image only after its fsync, so a torn
        // one is damage: replaying it as far as it goes would silently
        // drop every object past the tear.
        let dir = temp_dir();
        {
            let store = DiskStore::open_with(&dir, manual(1 << 20)).unwrap();
            store
                .commit_batch(vec![(o(1), bytes(b"a")), (o(2), bytes(b"b"))])
                .unwrap();
            store.checkpoint_now().unwrap();
        }
        let image = DiskStore::live_segment_paths(&OsFs, &dir)
            .unwrap()
            .remove(0);
        let whole = fs::read(&image).unwrap();
        for cut in [LOG_MAGIC.len(), whole.len() - 1] {
            fs::write(&image, &whole[..cut]).unwrap();
            match DiskStore::open(&dir) {
                Err(DiskError::CorruptLog(msg)) => assert!(msg.contains("incomplete"), "{msg}"),
                other => panic!("torn image at {cut} not refused: {other:?}"),
            }
        }
        fs::remove_file(&image).unwrap();
        match DiskStore::open(&dir) {
            Err(DiskError::CorruptLog(msg)) => assert!(msg.contains("missing"), "{msg}"),
            other => panic!("missing image not refused: {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_names_the_image_once_and_first() {
        let dir = temp_dir();
        fs::create_dir_all(&dir).unwrap();
        let parse = |text: &str| {
            fs::write(dir.join("MANIFEST"), text).unwrap();
            read_manifest(&OsFs, &dir).map(|m| m.map(|m| (m.image, m.segments)))
        };
        assert!(matches!(
            parse("CHMAN001\nimage 3\nseg 4\nseg 5\n"),
            Ok(Some((Some(3), ref segs))) if segs == &[4, 5]
        ));
        for bad in [
            "CHMAN001\nseg 4\nimage 5\n",
            "CHMAN001\nimage 3\nimage 4\nseg 5\n",
            "CHMAN001\nimage 4\nseg 4\n",
            "CHMAN001\nlog 1\n",
        ] {
            assert!(
                matches!(parse(bad), Err(DiskError::CorruptLog(_))),
                "{bad:?} accepted"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// The payload-and-CRC byte ranges of every frame in a log file's
    /// bytes (everything but the magic and the length prefixes).
    fn checksummed_spans(log: &[u8]) -> Vec<std::ops::Range<usize>> {
        let mut spans = Vec::new();
        let mut at = LOG_MAGIC.len();
        while at < log.len() {
            let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
            spans.push(at + 4..at + 8 + len);
            at += 8 + len;
        }
        assert_eq!(at, log.len(), "whole frames");
        spans
    }

    #[test]
    fn flipped_byte_in_committed_record_is_detected() {
        // A committed two-batch log in the active segment, in a sealed
        // segment, and folded into a checkpoint image: flipping any
        // single payload or CRC byte of any frame fails `open`.
        let two_batches = [
            DiskRecord::Intent {
                batch: 1,
                object: 1,
                state: b"protected".to_vec(),
            },
            DiskRecord::Intent {
                batch: 1,
                object: 2,
                state: b"twice".to_vec(),
            },
            DiskRecord::Commit { batch: 1 },
            DiskRecord::Intent {
                batch: 2,
                object: 1,
                state: b"again".to_vec(),
            },
            DiskRecord::Commit { batch: 2 },
        ];
        for place in ["active segment", "sealed segment", "checkpoint image"] {
            let dir = temp_dir();
            let target = match place {
                "active segment" => write_log(&dir, &two_batches),
                "sealed segment" => {
                    let sealed = write_log(&dir, &two_batches);
                    let active = dir.join("segments").join(segment_file_name(2));
                    fs::write(active, LOG_MAGIC).unwrap();
                    write_manifest(&OsFs, &dir, None, &[1, 2], &mut 0).unwrap();
                    sealed
                }
                _ => {
                    write_log(&dir, &two_batches);
                    let store = DiskStore::open_with(&dir, manual(u64::MAX)).unwrap();
                    assert!(store.checkpoint_now().unwrap());
                    drop(store);
                    DiskStore::live_segment_paths(&OsFs, &dir)
                        .unwrap()
                        .remove(0)
                }
            };
            let clean = fs::read(&target).unwrap();
            let spans = checksummed_spans(&clean);
            assert!(spans.len() >= 3, "{place}: {spans:?}");
            for pos in spans.into_iter().flatten() {
                let mut raw = clean.clone();
                raw[pos] ^= 0x40;
                fs::write(&target, &raw).unwrap();
                match DiskStore::open_with(&dir, manual(u64::MAX)) {
                    Err(DiskError::CorruptLog(msg)) => {
                        assert!(msg.contains("checksum"), "{place}, byte {pos}: {msg}");
                    }
                    other => panic!("{place}: flip at byte {pos} not detected: {other:?}"),
                }
            }
            // Unflipped, the same file opens to both batches.
            fs::write(&target, &clean).unwrap();
            let store = DiskStore::open_with(&dir, manual(u64::MAX)).unwrap();
            assert_eq!(store.read(o(1)).unwrap().as_deref(), Some(&b"again"[..]));
            assert_eq!(store.read(o(2)).unwrap().as_deref(), Some(&b"twice"[..]));
            drop(store);
            fs::remove_dir_all(&dir).ok();
        }
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
        // Every batch flushed in some group, one fsync each: between 1
        // group (all shared) and one group per batch.
        let fsyncs = store.log_fsync_count();
        assert!(
            (1..=THREADS).contains(&fsyncs),
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
    fn a_lone_commit_pays_one_log_fsync_and_one_append() {
        let fs = Arc::new(CountingFs::default());
        let store = DiskStore::open_fs(fs.clone(), "s", manual(1 << 20)).unwrap();
        let (appends, fsyncs) = (fs.appends.load(Ordering::Relaxed), store.log_fsync_count());
        store
            .commit_batch(vec![
                (o(1), bytes(b"one")),
                (o(2), bytes(b"two")),
                (o(3), bytes(b"three")),
            ])
            .unwrap();
        assert_eq!(fs.appends.load(Ordering::Relaxed) - appends, 1);
        assert_eq!(store.log_fsync_count() - fsyncs, 1);
        drop(store);
        fs.inner.crash();
        let store = DiskStore::open_fs(fs, "s", manual(1 << 20)).unwrap();
        assert_eq!(store.read(o(3)).unwrap().as_deref(), Some(&b"three"[..]));
    }

    #[test]
    fn group_frames_equal_the_codec_frames() {
        // Two batches as one group writes them: every intent, then one
        // marker per batch.
        let intents: [(u64, u64, &[u8]); 4] = [
            (7, 9, &[0xAA, 0xBB]),
            (7, 1, b""),
            (7, u64::MAX, &[0; 300]),
            (8, 9, b"again"),
        ];
        let (mut written, mut expected) = (Vec::new(), Vec::new());
        let mut lengths = 0;
        for (batch, object, state) in intents {
            lengths += push_intent(&mut written, batch, object, state).unwrap();
            expected.extend(reference_frame(&DiskRecord::Intent {
                batch,
                object,
                state: state.to_vec(),
            }));
        }
        for batch in [7, 8] {
            lengths += push_commit(&mut written, batch).unwrap();
            expected.extend(reference_frame(&DiskRecord::Commit { batch }));
        }
        assert_eq!(written, expected);
        assert_eq!(lengths, written.len() as u64);
        // and the golden intent frame of `disk_records_keep_their_bytes`
        let mut frame = Vec::new();
        push_intent(&mut frame, 3, 9, &[0xAA, 0xBB]).unwrap();
        assert_eq!(
            frame,
            unhex("1e00000000000000030000000000000009000000000000000200000000000000aabb83075346")
        );
    }

    /// One intent frame and one commit-marker frame, byte for byte
    /// (length, payload, CRC; the CRC computed by zlib): what every
    /// earlier build of this format wrote, so a data directory it left
    /// must open unchanged.
    const GOLDEN_INTENT: &str =
        "1e00000000000000030000000000000009000000000000000200000000000000aabb83075346";
    const GOLDEN_COMMIT: &str = "0c00000001000000030000000000000011d3b35e";

    #[test]
    fn golden_frames_pin_the_log_format() {
        let (intent, commit) = (unhex(GOLDEN_INTENT), unhex(GOLDEN_COMMIT));
        let mut frame = Vec::new();
        assert_eq!(
            push_intent(&mut frame, 3, 9, &[0xAA, 0xBB]).unwrap(),
            intent.len() as u64
        );
        assert_eq!(frame, intent);
        frame.clear();
        assert_eq!(push_commit(&mut frame, 3).unwrap(), commit.len() as u64);
        assert_eq!(frame, commit);
        assert_eq!(
            Record::decode(&intent[4..intent.len() - 4]),
            Ok(Record::Intent {
                batch: 3,
                object: 9,
                state: &[0xAA, 0xBB],
            })
        );
        assert_eq!(
            Record::decode(&commit[4..commit.len() - 4]),
            Ok(Record::Commit { batch: 3 })
        );

        // A segment assembled from the two frames opens to their state.
        let dir = temp_dir();
        let path = write_log(&dir, &[]);
        fs::write(&path, [&LOG_MAGIC[..], &intent, &commit].concat()).unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(
            store.read(o(9)).unwrap().as_deref(),
            Some(&[0xAA, 0xBB][..])
        );
        assert_eq!(
            store.replay_stats(),
            ReplayStats {
                batches: 1,
                records: 2,
                objects: 1,
            }
        );
        assert_eq!(store.object_ids().unwrap(), vec![o(9)]);
        drop(store);
        assert_eq!(
            fs::read(&path).unwrap(),
            [&LOG_MAGIC[..], &intent, &commit].concat(),
            "a clean open writes nothing"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_decode_agrees_with_the_codec() {
        // Borrowed decoding accepts exactly what the codec's owned
        // decoding of the same layout accepts, with the same fields.
        let intent = unhex("00000000030000000000000009000000000000000200000000000000aabb");
        let commit = unhex("010000000300000000000000");
        let mut payloads = vec![
            intent.clone(),
            commit.clone(),
            [&intent[..], &[0]].concat(),        // trailing byte
            [&commit[..], &[0; 8]].concat(),     // trailing word
            intent[..intent.len() - 1].to_vec(), // state cut short
            commit[..11].to_vec(),
            unhex("02000000"), // no such variant
            unhex("000000000100000000000000020000000000000000ffffffffffffffff"), // huge state length
            Vec::new(),
        ];
        for len in 0..intent.len() {
            payloads.push(intent[..len].to_vec());
        }
        for payload in payloads {
            let owned = codec::from_bytes::<DiskRecord>(&payload);
            match (Record::decode(&payload), owned) {
                (
                    Ok(Record::Intent {
                        batch,
                        object,
                        state,
                    }),
                    Ok(DiskRecord::Intent {
                        batch: b,
                        object: ob,
                        state: st,
                    }),
                ) => assert!(batch == b && object == ob && state == st.as_slice()),
                (Ok(Record::Commit { batch }), Ok(DiskRecord::Commit { batch: b })) => {
                    assert_eq!(batch, b);
                }
                (Err(borrowed), Err(owned)) => assert_eq!(borrowed, owned, "{payload:?}"),
                (borrowed, owned) => panic!("{payload:?}: {borrowed:?} vs {owned:?}"),
            }
        }
    }

    #[test]
    fn orphaned_files_are_swept_on_open() {
        // A crash mid-manifest-write leaves MANIFEST.tmp behind, and a
        // crash mid-fold an image the manifest never named: both are
        // removed on open and never read.
        let dir = temp_dir();
        write_log(&dir, &[]);
        fs::write(dir.join("MANIFEST.tmp"), b"torn manifest").unwrap();
        let orphan = dir.join("segments").join(image_file_name(7));
        fs::write(&orphan, b"torn image").unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert!(!dir.join("MANIFEST.tmp").exists());
        assert!(!orphan.exists());
        assert!(store.object_ids().unwrap().is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    /// The states the manifest's checkpoint image holds, and the batch
    /// id it carries; `None` before the first fold. The image must be
    /// one whole batch: its intents, then its marker, then nothing.
    fn image_states(dir: &Path) -> Option<(u64, BTreeMap<u64, Vec<u8>>)> {
        let image = DiskStore::live_segment_paths(&OsFs, dir).unwrap().remove(0);
        let name = image.file_name().unwrap().to_str().unwrap();
        if !name.starts_with("image-") {
            return None;
        }
        let mut reader = FrameReader::open(&OsFs, &image).unwrap().unwrap();
        let (mut states, mut batches, mut marker) = (BTreeMap::new(), BTreeSet::new(), None);
        while let Some(record) = reader.next().unwrap() {
            assert!(marker.is_none(), "a record after the image's marker");
            match record {
                Record::Intent {
                    batch,
                    object,
                    state,
                } => {
                    assert!(
                        states.insert(object, state.to_vec()).is_none(),
                        "object {object} twice"
                    );
                    batches.insert(batch);
                }
                Record::Commit { batch } => marker = Some(batch),
            }
        }
        assert_eq!(reader.offset, reader.len, "torn image");
        let marker = marker.expect("the image's marker");
        assert!(
            batches.iter().all(|&b| b == marker),
            "one batch: {batches:?}"
        );
        Some((marker, states))
    }

    /// The names of the files in `dir/segments`, sorted.
    fn segment_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir.join("segments"))
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// The names of the files the manifest names, sorted.
    fn live_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = DiskStore::live_segment_paths(&OsFs, dir)
            .unwrap()
            .iter()
            .map(|path| path.file_name().unwrap().to_str().unwrap().to_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn seal_and_checkpoint_fold_and_gc() {
        // segment_bytes: 1 seals after every commit; checkpoint_now
        // folds the sealed segments into one image and GCs their files.
        let dir = temp_dir();
        let store = DiskStore::open_with(&dir, manual(1)).unwrap();
        store.commit_batch(vec![(o(1), bytes(b"a"))]).unwrap();
        store.commit_batch(vec![(o(2), bytes(b"b"))]).unwrap();
        assert!(store.checkpoint_backlog() >= 2);
        let sealed_paths = DiskStore::live_segment_paths(&OsFs, &dir).unwrap();
        assert!(sealed_paths.len() >= 2, "commits should have sealed");
        assert!(image_states(&dir).is_none(), "no fold yet");

        assert!(store.checkpoint_now().unwrap());
        assert_eq!(store.checkpoint_backlog(), 0);
        // Folded into the image, GC'd from segments/: the manifest names
        // the image and the lone active segment, and nothing else is
        // left on disk.
        let (_, states) = image_states(&dir).expect("an image");
        assert_eq!(
            states,
            BTreeMap::from([(1, b"a".to_vec()), (2, b"b".to_vec())])
        );
        let live = live_files(&dir);
        assert_eq!(live.len(), 2, "{live:?}");
        assert_eq!(
            segment_files(&dir),
            live,
            "folded segment files must be deleted"
        );
        assert!(!dir.join("objects").exists());
        assert_eq!(store.read(o(1)).unwrap().as_deref(), Some(&b"a"[..]));
        assert_eq!(store.read(o(2)).unwrap().as_deref(), Some(&b"b"[..]));
        // Nothing left to fold.
        assert!(!store.checkpoint_now().unwrap());

        // A second fold replaces the image and GCs the first.
        let first = DiskStore::live_segment_paths(&OsFs, &dir).unwrap()[0].clone();
        store.commit_batch(vec![(o(3), bytes(b"c"))]).unwrap();
        assert!(store.checkpoint_now().unwrap());
        assert!(!first.exists(), "the old image must be deleted");
        let (_, states) = image_states(&dir).expect("an image");
        assert_eq!(states.len(), 3);
        assert_eq!(segment_files(&dir), live_files(&dir));
        drop(store);
        // Reopened, every read is served from the image: the live
        // suffix is empty.
        let store = DiskStore::open_with(&dir, manual(1)).unwrap();
        assert_eq!(store.replay_stats(), ReplayStats::default());
        assert_eq!(store.read(o(3)).unwrap().as_deref(), Some(&b"c"[..]));
        assert_eq!(store.object_ids().unwrap().len(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_preserves_newest_value() {
        // Overwrites across segments: the image must hold the newest
        // committed state, and a reopen must read it from there.
        let dir = temp_dir();
        let store = DiskStore::open_with(&dir, manual(1)).unwrap();
        store.commit_batch(vec![(o(1), bytes(b"v1"))]).unwrap();
        store.commit_batch(vec![(o(1), bytes(b"v2"))]).unwrap();
        store.commit_batch(vec![(o(1), bytes(b"v3"))]).unwrap();
        store.checkpoint_now().unwrap();
        assert_eq!(store.read(o(1)).unwrap().as_deref(), Some(&b"v3"[..]));
        let (batch, states) = image_states(&dir).expect("an image");
        assert_eq!(states, BTreeMap::from([(1, b"v3".to_vec())]));
        assert_eq!(batch, 3, "the image carries the watermark");
        drop(store);
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.replay_stats().batches, 0);
        assert_eq!(store.read(o(1)).unwrap().as_deref(), Some(&b"v3"[..]));
        // batch ids continue past the image's
        store.commit_batch(vec![(o(1), bytes(b"v4"))]).unwrap();
        drop(store);
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.read(o(1)).unwrap().as_deref(), Some(&b"v4"[..]));
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
        let stale_seg = DiskStore::live_segment_paths(&OsFs, &dir).unwrap()[0].clone();
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
    fn background_checkpointer_folds_automatically() {
        // Every batch seals (segment_bytes 1). The checkpointer folds
        // the first seal into an image at once, then waits until the
        // sealed segments hold at least the image's record bytes.
        let dir = temp_dir();
        let store = DiskStore::open_with(
            &dir,
            DiskStoreOptions {
                segment_bytes: 1,
                auto_checkpoint: true,
            },
        )
        .unwrap();
        let wait_backlog = |n: u64| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while store.checkpoint_backlog() != n && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            assert_eq!(
                store.checkpoint_backlog(),
                n,
                "checkpointer never caught up"
            );
        };
        let first: Vec<_> = (0..8).map(|i| (o(i), bytes(&[i as u8; 16]))).collect();
        store.commit_batch(first).unwrap();
        wait_backlog(0);
        let (_, states) = image_states(&dir).expect("an image");
        assert_eq!(states.len(), 8);

        // One small batch is far smaller than the image: no fold.
        store.commit_batch(vec![(o(8), bytes(&[8]))]).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            store.checkpoint_backlog(),
            1,
            "folded before outgrowing the image"
        );
        assert_eq!(image_states(&dir).expect("an image").1.len(), 8);

        // A batch that takes the sealed segments past the image: fold.
        store.commit_batch(vec![(o(9), bytes(&[9; 512]))]).unwrap();
        wait_backlog(0);
        assert_eq!(image_states(&dir).expect("an image").1.len(), 10);

        // Below the image again, then the shutdown drain folds it.
        store.commit_batch(vec![(o(10), bytes(&[10]))]).unwrap();
        drop(store);
        let store = DiskStore::open_with(&dir, manual(1)).unwrap();
        assert_eq!(
            store.replay_stats().batches,
            0,
            "the image holds everything"
        );
        assert_eq!(image_states(&dir).expect("an image").1.len(), 11);
        assert_eq!(store.read(o(3)).unwrap().as_deref(), Some(&[3u8; 16][..]));
        assert_eq!(store.read(o(9)).unwrap().as_deref(), Some(&[9u8; 512][..]));
        assert_eq!(store.read(o(10)).unwrap().as_deref(), Some(&[10u8][..]));
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
        let live = DiskStore::live_segment_paths(&OsFs, &dir).unwrap();

        let store = DiskStore::open_with(&dir, manual(1)).unwrap();
        assert_eq!(
            store.replay_stats(),
            ReplayStats {
                batches: 3,
                records: 6,
                objects: 2, // o100 twice, o101 once
            }
        );
        assert_eq!(DiskStore::live_segment_paths(&OsFs, &dir).unwrap(), live);
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
        let live = DiskStore::live_segment_paths(&OsFs, &dir).unwrap();
        assert_eq!(live.len(), 3);
        let before = snapshot(&dir);

        let store = DiskStore::open_with(&dir, manual(1 << 20)).unwrap();
        assert_eq!(store.replay_stats().batches, 3);
        assert_eq!(store.log_fsync_count(), 0);
        assert_eq!(store.dir_fsync_count(), 0);
        assert_eq!(DiskStore::live_segment_paths(&OsFs, &dir).unwrap(), live);
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
        let (_, states) = image_states(&dir).expect("an image");
        assert_eq!(states.keys().copied().collect::<Vec<_>>(), [0, 1, 2]);
        drop(store);
        let store = DiskStore::open_with(&dir, manual(1)).unwrap();
        assert_eq!(store.checkpoint_backlog(), 0);
        assert_eq!(store.read(o(2)).unwrap().as_deref(), Some(&b"v"[..]));
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
        let (_, states) = image_states(&dir).expect("an image");
        assert_eq!(states.len(), 4);
        for i in 0..4 {
            assert_eq!(store.read(o(i)).unwrap().as_deref(), Some(&[i as u8][..]));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_io_failure_poisons_until_reopen() {
        // With recovery no longer folding, a checkpoint that failed
        // quietly would let the replay debt grow unseen. A directory
        // where the fold's image belongs fails its creation, whatever
        // the caller's privileges.
        let dir = temp_dir();
        let store = DiskStore::open_with(&dir, manual(1 << 20)).unwrap();
        store.commit_batch(vec![(o(1), bytes(b"a"))]).unwrap();
        store.commit_batch(vec![(o(2), bytes(b"b"))]).unwrap();
        // checkpoint_now seals segment 1, then folds it into image 1
        let image = dir.join("segments").join(image_file_name(1));
        fs::create_dir(&image).unwrap();

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

        fs::remove_dir(&image).unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.replay_stats().batches, 2, "no image was named");
        assert_eq!(store.read(o(1)).unwrap().as_deref(), Some(&b"a"[..]));
        assert_eq!(store.read(o(2)).unwrap().as_deref(), Some(&b"b"[..]));
        assert!(store.read(o(3)).unwrap().is_none());
        store.commit_batch(vec![(o(3), bytes(b"c"))]).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dir_fsyncs_cover_image_and_manifest() {
        // Bugfix: file creations and manifest renames must be followed
        // by a directory fsync or the entry itself can vanish on power
        // loss. Count them across a seal + checkpoint cycle.
        let dir = temp_dir();
        let store = DiskStore::open_with(&dir, manual(1)).unwrap();
        let before = store.dir_fsync_count();
        store.commit_batch(vec![(o(1), bytes(b"x"))]).unwrap();
        store.checkpoint_now().unwrap();
        let paid = store.dir_fsync_count() - before;
        // At least: segments-dir fsync at seal, dir fsync for the seal
        // manifest, segments-dir fsync for the image, dir fsync for the
        // checkpoint manifest.
        assert!(paid >= 4, "only {paid} directory fsyncs paid");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_a_brand_new_store_syncs_the_parents_it_created() {
        // `a/b/s` creates `a`, `a/b` and `a/b/s`: `a/b` and `a` are
        // synced for the last two (`a` is a root); `s` alone creates
        // only a root.
        let disk = MemFs::new();
        let flat = DiskStore::open_fs(Arc::new(disk.clone()), "s", manual(1 << 20)).unwrap();
        let nested = DiskStore::open_fs(Arc::new(disk.clone()), "a/b/s", manual(1 << 20)).unwrap();
        assert_eq!(nested.dir_fsync_count(), flat.dir_fsync_count() + 2);
        nested.commit_batch(vec![(o(1), bytes(b"kept"))]).unwrap();
        drop((flat, nested));
        disk.crash();
        let reopened = DiskStore::open_fs(Arc::new(disk), "a/b/s", manual(1 << 20)).unwrap();
        assert_eq!(reopened.dir_fsync_count(), 0);
        assert_eq!(reopened.read(o(1)).unwrap().as_deref(), Some(&b"kept"[..]));
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
        let live_before = DiskStore::live_segment_paths(&OsFs, &dir).unwrap();
        drop(DiskStore::open(&dir).unwrap());
        let live_after = DiskStore::live_segment_paths(&OsFs, &dir).unwrap();
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
        let written = append_record(&File::create(&path).unwrap(), &record).unwrap();
        let frame = fs::read(&path).unwrap();
        assert_eq!(
            frame,
            unhex("1e00000000000000030000000000000009000000000000000200000000000000aabb83075346")
        );
        assert_eq!(written, frame.len() as u64);
        fs::remove_dir_all(&dir).ok();
    }
}
