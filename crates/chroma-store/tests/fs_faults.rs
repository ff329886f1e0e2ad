//! Real I/O faults under `DiskStore`. `FaultyFs` wraps `MemFs` and
//! fails the nth `sync`, `sync_dir`, `rename` or `remove_file`, returns
//! ENOSPC on the nth `append`, or makes a torn durable append: the first
//! k bytes of the nth `append` written and synced, then an error.
//!
//! Each poison path (a group flush, a seal, a checkpoint and its GC)
//! must fail loudly: every batch of the failed group gets `Err`, later
//! commits and `checkpoint_now` fail until reopen, and after power loss
//! and a reopen every acknowledged batch is present and every failed
//! batch is wholly present or wholly absent. The torn-append sweep cuts
//! a three-batch group's one append at every byte and checks that
//! exactly the batches whose commit marker lies wholly in the synced
//! prefix survive. `CHROMA_TORTURE_SEED` (default 42) draws the
//! batches.
//!
//! Two groups can be in flight at once, so the harness parks both
//! in-flight fsyncs to queue the group under test behind them. The
//! `pipeline_*` tests check the overlap itself: a second group appends
//! and syncs while the first's fsync is parked, outcomes are posted in
//! log order, and a failed first fsync fails the second group too.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use chroma_base::ObjectId;
use chroma_obs::{EventBus, FlightRecorder, Obs, Observable, TraceAuditor};
use chroma_store::{DiskError, DiskStore, DiskStoreOptions, Fs, FsFile, MemFs, StoreBytes};
use proptest::torture_seed;

/// splitmix64: one deterministic stream per seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which operation fails, counted from 1 since the fault was armed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    None,
    Sync(u32),
    SyncDir(u32),
    /// The append writes nothing and fails with ENOSPC.
    Enospc(u32),
    Rename(u32),
    Remove(u32),
    /// The append writes and syncs its first k bytes, then fails.
    TornAppend(u32, usize),
}

#[derive(Debug, Default)]
struct Counts {
    syncs: u32,
    sync_dirs: u32,
    appends: u32,
    renames: u32,
    removes: u32,
}

/// Where a parked file sync or append is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Park {
    Parked,
    /// Let go: run the sync, or fail it (a released append runs under
    /// the armed fault).
    Released {
        fail: bool,
    },
    /// The operation has returned.
    Done,
}

#[derive(Debug)]
struct Control {
    fault: Fault,
    counts: Counts,
    /// How many of the next file syncs park (each already counted)
    /// until [`FaultyFs::release`].
    park_next: usize,
    /// How many of the next appends park (each already counted) until
    /// [`FaultyFs::release`].
    park_appends: usize,
    /// Every parked sync or append, in the order it parked.
    parked: Vec<Park>,
    /// The whole of the last torn append.
    torn: Vec<u8>,
}

/// A [`MemFs`] that fails one chosen operation.
#[derive(Clone, Debug)]
struct FaultyFs {
    inner: MemFs,
    ctl: Arc<(Mutex<Control>, Condvar)>,
}

impl FaultyFs {
    fn new() -> Self {
        FaultyFs {
            inner: MemFs::new(),
            ctl: Arc::new((
                Mutex::new(Control {
                    fault: Fault::None,
                    counts: Counts::default(),
                    park_next: 0,
                    park_appends: 0,
                    parked: Vec::new(),
                    torn: Vec::new(),
                }),
                Condvar::new(),
            )),
        }
    }

    fn control(&self) -> MutexGuard<'_, Control> {
        self.ctl.0.lock().unwrap()
    }

    /// Arms `fault`, counting operations from now.
    fn arm(&self, fault: Fault) {
        let mut ctl = self.control();
        ctl.fault = fault;
        ctl.counts = Counts::default();
    }

    /// The next `n` file syncs park (each already counted) until
    /// released.
    fn park_next_syncs(&self, n: usize) {
        self.control().park_next = n;
    }

    /// The next `n` appends park (each already counted) until
    /// released.
    fn park_next_appends(&self, n: usize) {
        self.control().park_appends = n;
    }

    /// Waits until `pred` holds of the control state.
    fn wait_for(&self, what: &str, pred: impl Fn(&Control) -> bool) {
        let (lock, cv) = &*self.ctl;
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut ctl = lock.lock().unwrap();
        while !pred(&ctl) {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "{what}");
            ctl = cv.wait_timeout(ctl, left).unwrap().0;
        }
    }

    /// Waits until `n` syncs or appends have parked.
    fn wait_parked(&self, n: usize) {
        self.wait_for("a group's flush never reached its sync", |ctl| {
            ctl.parked.len() >= n
        });
    }

    /// Lets the `i`th parked operation go — run, or fail a sync — and
    /// waits until it has returned.
    fn release(&self, i: usize, fail: bool) {
        self.control().parked[i] = Park::Released { fail };
        self.ctl.1.notify_all();
        self.wait_for("a released sync never returned", |ctl| {
            ctl.parked[i] == Park::Done
        });
    }

    fn wrap(&self, inner: Box<dyn FsFile>) -> Box<dyn FsFile> {
        Box::new(FaultyFile {
            inner,
            ctl: Arc::clone(&self.ctl),
        })
    }
}

/// Parks the calling operation in a new slot until it is released;
/// returns the slot and whether to fail.
fn park<'a>(
    cv: &Condvar,
    mut ctl: MutexGuard<'a, Control>,
) -> (MutexGuard<'a, Control>, usize, bool) {
    let slot = ctl.parked.len();
    ctl.parked.push(Park::Parked);
    cv.notify_all();
    loop {
        if let Park::Released { fail } = ctl.parked[slot] {
            return (ctl, slot, fail);
        }
        ctl = cv.wait(ctl).unwrap();
    }
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected {what} failure"))
}

impl Fs for FaultyFs {
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
        let mut ctl = self.control();
        ctl.counts.renames += 1;
        if ctl.fault == Fault::Rename(ctl.counts.renames) {
            return Err(injected("rename"));
        }
        drop(ctl);
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut ctl = self.control();
        ctl.counts.removes += 1;
        if ctl.fault == Fault::Remove(ctl.counts.removes) {
            return Err(injected("remove"));
        }
        drop(ctl);
        self.inner.remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut ctl = self.control();
        ctl.counts.sync_dirs += 1;
        if ctl.fault == Fault::SyncDir(ctl.counts.sync_dirs) {
            return Err(injected("directory fsync"));
        }
        drop(ctl);
        self.inner.sync_dir(dir)
    }
}

#[derive(Debug)]
struct FaultyFile {
    inner: Box<dyn FsFile>,
    ctl: Arc<(Mutex<Control>, Condvar)>,
}

impl FaultyFile {
    /// The `n`th append since the fault was armed, under that fault.
    fn append_nth(&self, mut ctl: MutexGuard<'_, Control>, n: u32, bytes: &[u8]) -> io::Result<()> {
        match ctl.fault {
            Fault::Enospc(at) if at == n => {
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "no space left on device",
                ));
            }
            Fault::TornAppend(at, k) if at == n => {
                ctl.torn = bytes.to_vec();
                drop(ctl);
                self.inner.append(&bytes[..k.min(bytes.len())])?;
                self.inner.sync()?;
                return Err(injected("torn append"));
            }
            _ => {}
        }
        drop(ctl);
        self.inner.append(bytes)
    }
}

impl FsFile for FaultyFile {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        let (lock, cv) = &*self.ctl;
        let mut ctl = lock.lock().unwrap();
        ctl.counts.appends += 1;
        let n = ctl.counts.appends;
        if ctl.park_appends == 0 {
            return self.append_nth(ctl, n, bytes);
        }
        ctl.park_appends -= 1;
        let (ctl, slot, _) = park(cv, ctl);
        let result = self.append_nth(ctl, n, bytes);
        lock.lock().unwrap().parked[slot] = Park::Done;
        cv.notify_all();
        result
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        let (lock, cv) = &*self.ctl;
        let mut ctl = lock.lock().unwrap();
        ctl.counts.syncs += 1;
        if ctl.fault == Fault::Sync(ctl.counts.syncs) {
            return Err(injected("fsync"));
        }
        if ctl.park_next == 0 {
            drop(ctl);
            return self.inner.sync();
        }
        ctl.park_next -= 1;
        let (mut ctl, slot, fail) = park(cv, ctl);
        let result = if fail {
            Err(injected("fsync"))
        } else {
            self.inner.sync()
        };
        ctl.parked[slot] = Park::Done;
        cv.notify_all();
        result
    }
}

type Batch = BTreeMap<u64, Vec<u8>>;

/// Draws batches over disjoint objects, each value unique, so a
/// surviving write names its batch.
struct Draw {
    rng: u64,
    next_object: u64,
}

impl Draw {
    fn new(seed: u64) -> Self {
        Draw {
            rng: seed ^ 0x4641_554C,
            next_object: 0,
        }
    }

    /// Two or three objects with values of 8–40 bytes.
    fn batch(&mut self) -> Batch {
        let objects = 2 + splitmix(&mut self.rng) % 2;
        (0..objects)
            .map(|_| {
                self.next_object += 1;
                let mut value = self.next_object.to_le_bytes().to_vec();
                value.resize(8 + (splitmix(&mut self.rng) % 33) as usize, 0x5A);
                (self.next_object, value)
            })
            .collect()
    }
}

fn updates(batch: &Batch) -> Vec<(ObjectId, StoreBytes)> {
    batch
        .iter()
        .map(|(&o, v)| (ObjectId::from_raw(o), StoreBytes::from(v.clone())))
        .collect()
}

/// The bytes `batch` appends to the log: per intent a frame of
/// length prefix, variant index, batch, object, state length, state and
/// CRC; then its commit frame (length, variant index, batch, CRC).
fn log_bytes(batch: &Batch) -> u64 {
    batch.values().map(|v| 36 + v.len() as u64).sum::<u64>() + 20
}

fn opts(segment_bytes: u64) -> DiskStoreOptions {
    DiskStoreOptions {
        segment_bytes,
        auto_checkpoint: false,
    }
}

/// How many of `batch`'s writes the store holds.
fn landed(store: &DiskStore, batch: &Batch) -> usize {
    batch
        .iter()
        .filter(|&(&o, v)| {
            store.read(ObjectId::from_raw(o)).expect("read").as_deref() == Some(&v[..])
        })
        .count()
}

/// The store refuses work until reopened.
fn assert_poisoned(store: &DiskStore, draw: &mut Draw, what: &str) {
    assert!(
        store.commit_batch(updates(&draw.batch())).is_err(),
        "{what}: a commit after the failure was acknowledged"
    );
    assert!(
        store.checkpoint_now().is_err(),
        "{what}: a checkpoint after the failure succeeded"
    );
}

/// Power loss and reopen over the bare disk: every acknowledged batch
/// is present, every failed one wholly present or wholly absent.
/// Returns how many failed batches are present; the reopened store
/// still commits.
fn crash_and_check(disk: &MemFs, acked: &[Batch], failed: &[Batch], what: &str) -> usize {
    disk.crash();
    let store = DiskStore::open_fs(Arc::new(disk.clone()), "store", opts(1 << 20))
        .unwrap_or_else(|e| panic!("{what}: reopen failed: {e}"));
    for batch in acked {
        assert_eq!(
            landed(&store, batch),
            batch.len(),
            "{what}: an acknowledged batch is not all there"
        );
    }
    let mut present = 0;
    for batch in failed {
        let n = landed(&store, batch);
        assert!(
            n == 0 || n == batch.len(),
            "{what}: {n} of {} writes of a failed batch survived",
            batch.len()
        );
        present += usize::from(n > 0);
    }
    let after: Batch = [(u64::MAX, b"after".to_vec())].into();
    store
        .commit_batch(updates(&after))
        .expect("commit after reopen");
    assert_eq!(landed(&store, &after), 1);
    present
}

/// Opens a fresh store over `fs`.
fn open(fs: &FaultyFs, segment_bytes: u64) -> DiskStore {
    DiskStore::open_fs(Arc::new(fs.clone()), "store", opts(segment_bytes)).expect("fresh open")
}

/// Commits `batch` on its own thread.
fn spawn_commit(store: &DiskStore, batch: &Batch) -> thread::JoinHandle<Result<(), DiskError>> {
    let (store, batch) = (store.clone(), updates(batch));
    thread::spawn(move || store.commit_batch(batch))
}

/// Commits `x`, then `a` and `b` as two groups whose fsyncs park: two
/// groups in flight, so `group`'s three batches queue behind them.
/// Arms `fault` and lets both parked syncs go, last first: `b`'s sync
/// has returned before `a`'s runs, and `group` cannot append before
/// `a` completes, so no parked sync runs after the faulted group's
/// append. `group` is flushed as one group under the fault. Returns
/// the store, the disk and each group batch's result.
fn flush_group_under(
    fault: Fault,
    segment_bytes: u64,
    [x, a, b]: &[Batch; 3],
    group: &[Batch; 3],
) -> (DiskStore, FaultyFs, Vec<Result<(), DiskError>>) {
    let fs = FaultyFs::new();
    let store = open(&fs, segment_bytes);
    store.commit_batch(updates(x)).expect("commit x");
    fs.park_next_syncs(2);
    let first = spawn_commit(&store, a);
    fs.wait_parked(1);
    let second = spawn_commit(&store, b);
    fs.wait_parked(2);
    let followers: Vec<_> = group
        .iter()
        .map(|batch| spawn_commit(&store, batch))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(20);
    while store.group_queue_depth() < 3 {
        assert!(Instant::now() < deadline, "the group never queued");
        thread::sleep(Duration::from_micros(100));
    }
    fs.arm(fault);
    fs.release(1, false);
    fs.release(0, false);
    first.join().unwrap().expect("a's group");
    second.join().unwrap().expect("b's group");
    let results = followers.into_iter().map(|h| h.join().unwrap()).collect();
    (store, fs, results)
}

struct Case {
    seed: u64,
    draw: Draw,
    /// Committed before the group: `x` alone, `a` and `b` as the two
    /// groups in flight when it queues.
    before: [Batch; 3],
    group: [Batch; 3],
}

impl Case {
    fn new() -> Self {
        let seed = torture_seed().unwrap_or(42);
        let mut draw = Draw::new(seed);
        let before = [draw.batch(), draw.batch(), draw.batch()];
        let group = [draw.batch(), draw.batch(), draw.batch()];
        Case {
            seed,
            draw,
            before,
            group,
        }
    }

    /// Runs the group flush under `fault`; every group batch must fail
    /// and the store must stay down until reopen. Returns the disk and
    /// how many group batches survive power loss.
    fn run(&mut self, fault: Fault, segment_bytes: u64) -> (FaultyFs, usize) {
        let what = format!("seed {} {fault:?}", self.seed);
        let (store, fs, results) =
            flush_group_under(fault, segment_bytes, &self.before, &self.group);
        for result in &results {
            assert!(
                result.is_err(),
                "{what}: a batch of the failed group got Ok"
            );
        }
        assert_poisoned(&store, &mut self.draw, &what);
        drop(store);
        let present = crash_and_check(&fs.inner, &self.before, &self.group, &what);
        (fs, present)
    }
}

#[test]
fn a_failed_group_flush_fails_every_batch_and_poisons() {
    let mut case = Case::new();
    for fault in [Fault::Enospc(1), Fault::Sync(1)] {
        let (_, present) = case.run(fault, 1 << 20);
        assert_eq!(present, 0, "{fault:?}: nothing of the group was synced");
    }
}

#[test]
fn a_failed_seal_after_a_group_poisons_and_keeps_the_group() {
    // The segment fills with the group, not before: x, a and b fit.
    let mut case = Case::new();
    let threshold = case.before.iter().map(log_bytes).sum::<u64>() + 1;
    // After the group's append and fsync (#1 each), the seal appends
    // the new segment's magic, syncs it, syncs `segments/`, writes the
    // manifest temp, renames it and syncs the store directory.
    for fault in [
        Fault::Enospc(2),
        Fault::Sync(2),
        Fault::SyncDir(1),
        Fault::Sync(3),
        Fault::Rename(1),
        Fault::SyncDir(2),
    ] {
        let (_, present) = case.run(fault, threshold);
        assert_eq!(
            present, 3,
            "{fault:?}: the group was durable before the seal"
        );
    }
}

#[test]
fn a_failed_checkpoint_poisons_and_loses_nothing() {
    let seed = torture_seed().unwrap_or(42);
    let mut draw = Draw::new(seed);
    // The fold writes its image (append, sync), syncs `segments/`, then
    // rewrites the manifest (append, sync, rename, directory sync); a
    // checkpoint of an unsealed segment seals first.
    let folds = [
        Fault::Enospc(1),
        Fault::Sync(1),
        Fault::TornAppend(1, 3),
        Fault::SyncDir(1),
        Fault::Enospc(2),
        Fault::Sync(2),
        Fault::Rename(1),
        Fault::SyncDir(2),
    ];
    for (fault, segment_bytes) in folds
        .into_iter()
        .map(|f| (f, 1))
        .chain([(Fault::Rename(1), 1 << 20), (Fault::SyncDir(1), 1 << 20)])
    {
        let what = format!("seed {seed} {fault:?}, segment_bytes {segment_bytes}");
        let fs = FaultyFs::new();
        let store = DiskStore::open_fs(Arc::new(fs.clone()), "store", opts(segment_bytes))
            .expect("fresh open");
        let acked = [draw.batch(), draw.batch()];
        for batch in &acked {
            store.commit_batch(updates(batch)).expect("commit");
        }
        fs.arm(fault);
        assert!(
            store.checkpoint_now().is_err(),
            "{what}: the fault was missed"
        );
        assert_poisoned(&store, &mut draw, &what);
        drop(store);
        crash_and_check(&fs.inner, &acked, &[], &what);
    }
}

/// The files in the store's `segments/` and the files its manifest
/// names, each sorted.
fn segment_files(disk: &MemFs) -> (Vec<String>, Vec<String>) {
    let mut on_disk = disk.list(Path::new("store/segments")).unwrap();
    on_disk.sort();
    let mut named: Vec<String> = DiskStore::live_segment_paths(disk, "store")
        .unwrap()
        .iter()
        .map(|path| path.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    named.sort();
    (on_disk, named)
}

#[test]
fn a_failed_gc_remove_poisons_and_reopen_sweeps_what_it_left() {
    let seed = torture_seed().unwrap_or(42);
    let mut draw = Draw::new(seed);
    // Every commit seals (segment_bytes 1). The second fold's GC removes
    // the first fold's image, then the two segments it folded: fail
    // each remove in turn. The manifest already names the new image.
    for n in 1..=3 {
        let what = format!("seed {seed} {:?}", Fault::Remove(n));
        let fs = FaultyFs::new();
        let store = open(&fs, 1);
        let mut acked = vec![draw.batch()];
        store.commit_batch(updates(&acked[0])).expect("commit");
        assert!(store.checkpoint_now().expect("the first image"));
        for _ in 0..2 {
            let batch = draw.batch();
            store.commit_batch(updates(&batch)).expect("commit");
            acked.push(batch);
        }
        fs.arm(Fault::Remove(n));
        assert!(
            store.checkpoint_now().is_err(),
            "{what}: the fault was missed"
        );
        assert_poisoned(&store, &mut draw, &what);
        drop(store);

        // No directory sync followed the GC: after power loss every
        // file it was to remove is back, unnamed.
        fs.inner.crash();
        let (on_disk, named) = segment_files(&fs.inner);
        assert_eq!(on_disk.len(), named.len() + 3, "{what}: {on_disk:?}");
        let reopen = || {
            DiskStore::open_fs(Arc::new(fs.inner.clone()), "store", opts(1))
                .unwrap_or_else(|e| panic!("{what}: reopen failed: {e}"))
        };
        let store = reopen();
        let (on_disk, named) = segment_files(&fs.inner);
        assert_eq!(on_disk, named, "{what}: the reopen kept orphans");
        for batch in &acked {
            assert_eq!(landed(&store, batch), batch.len(), "{what}: a batch lost");
        }
        // The fold can be redone.
        let batch = draw.batch();
        store
            .commit_batch(updates(&batch))
            .expect("commit after reopen");
        acked.push(batch);
        assert!(store.checkpoint_now().expect("refold"), "{what}");
        drop(store);
        let store = reopen();
        for batch in &acked {
            assert_eq!(
                landed(&store, batch),
                batch.len(),
                "{what}: after the refold"
            );
        }
        let (on_disk, named) = segment_files(&fs.inner);
        assert_eq!(on_disk, named, "{what}: after the refold");
    }
}

/// How many commit frames end within the first `k` bytes of `buf`, a
/// run of `[len][payload][crc]` frames whose payload opens with a `u32`
/// variant index (1 is `Commit`).
fn markers_within(buf: &[u8], k: usize) -> usize {
    let (mut at, mut markers) = (0, 0);
    while at + 4 <= buf.len() {
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
        let end = at + 4 + len + 4;
        if end > k {
            break;
        }
        markers += usize::from(buf[at + 4..at + 8] == 1u32.to_le_bytes());
        at = end;
    }
    markers
}

#[test]
fn a_torn_group_append_keeps_exactly_the_batches_whose_marker_landed() {
    let mut case = Case::new();
    // The whole append torn nowhere: every marker landed.
    let (fs, present) = case.run(Fault::TornAppend(1, usize::MAX), 1 << 20);
    assert_eq!(present, 3, "seed {}: a fully synced group", case.seed);
    let append = std::mem::take(&mut fs.control().torn);
    let total: u64 = case.group.iter().map(log_bytes).sum();
    assert_eq!(append.len() as u64, total, "one append per group");
    for k in 0..append.len() {
        let (_, present) = case.run(Fault::TornAppend(1, k), 1 << 20);
        assert_eq!(
            present,
            markers_within(&append, k),
            "seed {} k {k}/{}: the surviving batches are not those whose marker landed",
            case.seed,
            append.len()
        );
    }
}

/// A store over a fresh disk holding `x`, with the next two fsyncs
/// parked and `a` and `b` committing as two groups, each in its sync:
/// two groups in flight.
fn two_groups_parked(
    x: &Batch,
    a: &Batch,
    b: &Batch,
) -> (
    DiskStore,
    FaultyFs,
    [thread::JoinHandle<Result<(), DiskError>>; 2],
) {
    let fs = FaultyFs::new();
    let store = open(&fs, 1 << 20);
    store.commit_batch(updates(x)).expect("commit x");
    fs.park_next_syncs(2);
    let first = spawn_commit(&store, a);
    fs.wait_parked(1);
    // The first group's fsync is parked and holds no lock: the second
    // group appends behind it and reaches its own sync.
    let second = spawn_commit(&store, b);
    fs.wait_parked(2);
    (store, fs, [first, second])
}

#[test]
fn pipeline_a_second_group_appends_and_syncs_while_the_first_is_parked() {
    let mut draw = Draw::new(torture_seed().unwrap_or(42));
    let [x, a, b] = [draw.batch(), draw.batch(), draw.batch()];
    let (store, fs, [first, second]) = two_groups_parked(&x, &a, &b);
    // Both groups' frames are in the log, in order, before either sync
    // has returned.
    let log = fs
        .inner
        .read(Path::new("store/segments/seg-00000001.log"))
        .unwrap();
    let frames: u64 = [&x, &a, &b].into_iter().map(log_bytes).sum();
    assert_eq!(log.len() as u64, 8 + frames);
    assert_eq!(store.group_queue_depth(), 0);
    // and neither is published
    assert_eq!(landed(&store, &a) + landed(&store, &b), 0);
    fs.release(1, false);
    fs.release(0, false);
    first.join().unwrap().expect("a");
    second.join().unwrap().expect("b");
    assert_eq!(landed(&store, &a), a.len());
    assert_eq!(landed(&store, &b), b.len());
    assert_eq!(store.log_fsync_count(), 3, "one fsync per group");
    drop(store);
    crash_and_check(&fs.inner, &[x, a, b], &[], "pipeline");
}

#[test]
fn pipeline_results_post_in_log_order() {
    let mut draw = Draw::new(torture_seed().unwrap_or(42));
    let [x, a, b] = [draw.batch(), draw.batch(), draw.batch()];
    let (store, fs, [first, second]) = two_groups_parked(&x, &a, &b);
    // The second group's fsync returns first: it is durable, but its
    // outcome waits for the first group's.
    fs.release(1, false);
    let deadline = Instant::now() + Duration::from_millis(100);
    while Instant::now() < deadline {
        assert!(
            !second.is_finished(),
            "the second group's result was posted before the first's"
        );
        assert_eq!(landed(&store, &b), 0, "the second group published first");
        thread::sleep(Duration::from_millis(5));
    }
    assert!(!first.is_finished());
    fs.release(0, false);
    first.join().unwrap().expect("a");
    second.join().unwrap().expect("b");
    assert_eq!(landed(&store, &b), b.len());
}

#[test]
fn pipeline_a_failed_first_sync_fails_the_second_group_and_poisons() {
    let seed = torture_seed().unwrap_or(42);
    let mut draw = Draw::new(seed);
    let [x, a, b] = [draw.batch(), draw.batch(), draw.batch()];
    let fs = FaultyFs::new();
    let store = open(&fs, 1 << 20);
    let bus = Arc::new(EventBus::new());
    let recorder = FlightRecorder::attach(&bus, 1_000);
    store.install_obs(Obs::new(bus.clone()));
    store.commit_batch(updates(&x)).expect("commit x");
    fs.park_next_syncs(2);
    let first = spawn_commit(&store, &a);
    fs.wait_parked(1);
    let second = spawn_commit(&store, &b);
    fs.wait_parked(2);
    // The second group's own fsync succeeds; then the first's fails.
    fs.release(1, false);
    fs.release(0, true);
    let what = format!("seed {seed}");
    for (name, handle) in [("first", first), ("second", second)] {
        match handle.join().unwrap() {
            Err(DiskError::Io(e)) => assert!(
                e.to_string().contains("injected fsync"),
                "{what}: the {name} group failed with {e}, not the first group's fsync"
            ),
            other => panic!("{what}: the {name} group got {other:?}"),
        }
    }
    assert_poisoned(&store, &mut draw, &what);
    // The second group's batch is durable, so it was announced (R9):
    // x's group and b's, one append each.
    assert_eq!(bus.counter("disk_append"), 2, "{what}");
    assert_eq!(bus.counter("disk_group_commit"), 2, "{what}");
    let report = TraceAuditor::audit_events(&recorder.events());
    assert!(report.is_clean(), "{what}: {report}");
    drop(store);
    // Each failed batch all-or-nothing after power loss (the second
    // group's fsync may carry the first group's bytes along).
    crash_and_check(&fs.inner, &[x], &[a, b], &what);
}

#[test]
fn pipeline_a_failed_append_stops_the_leader_waiting_behind_it() {
    // The first group's append is parked holding the append role, and a
    // second leader is elected and waits for the role. When the append
    // fails, the second leader must append nothing: behind a torn frame
    // its whole frames would read as a corrupt one, and the store would
    // never reopen.
    let seed = torture_seed().unwrap_or(42);
    let mut draw = Draw::new(seed);
    let [x, a, b] = [draw.batch(), draw.batch(), draw.batch()];
    let k = 10; // past the first frame's length prefix, inside its payload
    for (fault, written) in [(Fault::TornAppend(1, k), k), (Fault::Enospc(1), 0)] {
        let what = format!("seed {seed} {fault:?}");
        let fs = FaultyFs::new();
        let store = open(&fs, 1 << 20);
        store.commit_batch(updates(&x)).expect("commit x");
        fs.arm(fault);
        fs.park_next_appends(1);
        let first = spawn_commit(&store, &a);
        fs.wait_parked(1);
        let second = spawn_commit(&store, &b);
        // b queues and, with one group in flight, leads its own.
        thread::sleep(Duration::from_millis(50));
        assert_eq!(
            store.group_queue_depth(),
            0,
            "{what}: b's leader was not elected"
        );
        fs.release(0, false);
        for (name, handle) in [("first", first), ("second", second)] {
            assert!(
                handle.join().unwrap().is_err(),
                "{what}: the {name} group got Ok"
            );
        }
        assert_poisoned(&store, &mut draw, &what);
        drop(store);
        let log = fs
            .inner
            .read(Path::new("store/segments/seg-00000001.log"))
            .unwrap();
        assert_eq!(
            log.len() as u64,
            8 + log_bytes(&x) + written as u64,
            "{what}: a group appended behind the failed append"
        );
        crash_and_check(
            &fs.inner,
            std::slice::from_ref(&x),
            &[a.clone(), b.clone()],
            &what,
        );
    }
}
