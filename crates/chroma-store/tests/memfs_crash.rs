//! Crash consistency of `DiskStore` over `MemFs`: power loss keeps
//! exactly what the store synced.
//!
//! `CutFs` cuts the power at the nth mutating filesystem operation: the
//! disk crashes instead of performing it, optionally after a strict
//! prefix of an append reached the disk (a torn write), and every later
//! operation fails as on a dead machine. After a cut the store is
//! reopened over the same disk. Every batch whose `commit_batch`
//! returned `Ok` must be present, and a batch the cut interrupted must
//! be all there or not there at all.
//!
//! - `every_power_cut_of_a_seeded_history_recovers` cuts a seeded
//!   history (a brand-new store, commits that seal segments, three
//!   folds, a reopen) at every operation in turn, tears every log or image
//!   append at every frame boundary and once inside a frame, and cuts
//!   each recovery at each of its own operations before a clean reopen.
//! - `acknowledged_batches_survive_power_loss_and_none_is_partial` runs
//!   one long seeded schedule, cutting the power between operations, at
//!   a drawn step of a commit or at a drawn step of a checkpoint.
//! - `concurrent_power_cut_torture` cuts six racing committers at a
//!   drawn operation.
//!
//! `CHROMA_TORTURE_SEED` (default 42) draws the batches and the cuts.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::thread::{self, ThreadId};

use chroma_base::ObjectId;
use chroma_obs::{Event, EventBus, FlightRecorder, Obs, Observable, TraceAuditor};
use chroma_store::{DiskStore, DiskStoreOptions, Fs, FsFile, MemFs, StoreBytes};
use proptest::torture_seed;

const OBJECTS: u64 = 12;

/// splitmix64: one deterministic stream per seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where the power goes: at the `at`th mutating operation since
/// [`CutFs::arm`], counted from 1. If that operation is an append, its
/// first `torn` bytes are made durable first.
#[derive(Clone, Copy, Debug)]
struct PowerCut {
    at: usize,
    torn: Option<usize>,
}

impl PowerCut {
    fn at(at: usize) -> Self {
        PowerCut { at, torn: None }
    }
}

/// One mutating operation, as the store issued it.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Op {
    /// The operation and its path, e.g. `sync store/segments/seg-00000001.log`.
    what: String,
    /// An append's bytes; empty for every other operation.
    bytes: Vec<u8>,
    thread: ThreadId,
}

/// A [`MemFs`] whose power can be cut at any mutating operation. Each
/// operation runs under one lock, so none can land after the cut.
#[derive(Clone, Debug, Default)]
struct CutFs {
    disk: MemFs,
    cut: Arc<Mutex<Cut>>,
}

#[derive(Debug, Default)]
struct Cut {
    armed: Option<PowerCut>,
    /// The mutating operations since the last `arm`, the cut one
    /// included.
    ops: Vec<Op>,
    dead: bool,
}

impl CutFs {
    /// Cuts the power at `armed` (never for `None`), counting operations
    /// from now, and revives a dead disk.
    fn arm(&self, armed: Option<PowerCut>) {
        *self.cut.lock().unwrap() = Cut {
            armed,
            ops: Vec::new(),
            dead: false,
        };
    }

    /// The operations since the last `arm`.
    fn ops(&self) -> Vec<Op> {
        self.cut.lock().unwrap().ops.clone()
    }

    /// Whether the power went.
    fn dead(&self) -> bool {
        self.cut.lock().unwrap().dead
    }

    /// Records one operation and returns the guard to run it under, or
    /// cuts the power instead of it. `append` is an append's bytes and
    /// the file they go to.
    fn step(
        &self,
        op: &str,
        path: &Path,
        append: Option<(&[u8], &dyn FsFile)>,
    ) -> io::Result<MutexGuard<'_, Cut>> {
        let mut cut = self.cut.lock().unwrap();
        if !cut.dead {
            cut.ops.push(Op {
                what: format!("{op} {}", path.display()),
                bytes: append.map_or_else(Vec::new, |(bytes, _)| bytes.to_vec()),
                thread: thread::current().id(),
            });
            let Some(power_cut) = cut.armed.filter(|armed| armed.at == cut.ops.len()) else {
                return Ok(cut);
            };
            cut.dead = true;
            if let (Some(torn), Some((bytes, file))) = (power_cut.torn, append) {
                file.append(&bytes[..torn])?;
                file.sync()?;
            }
            self.disk.crash();
        }
        Err(io::Error::other("power cut"))
    }

    fn wrap(&self, inner: Box<dyn FsFile>, path: &Path) -> Box<dyn FsFile> {
        Box::new(CutFile {
            inner,
            path: path.to_path_buf(),
            fs: self.clone(),
        })
    }
}

impl Fs for CutFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        let _cut = self.step("create", path, None)?;
        Ok(self.wrap(self.disk.create(path)?, path))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        Ok(self.wrap(self.disk.open_append(path)?, path))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.disk.read(path)
    }
    fn open_read(&self, path: &Path) -> io::Result<(u64, Box<dyn io::Read>)> {
        self.disk.open_read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let _cut = self.step("rename", from, None)?;
        self.disk.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let _cut = self.step("remove", path, None)?;
        self.disk.remove_file(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.disk.list(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let _cut = self.step("mkdir", dir, None)?;
        self.disk.create_dir_all(dir)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let _cut = self.step("sync_dir", dir, None)?;
        self.disk.sync_dir(dir)
    }
}

#[derive(Debug)]
struct CutFile {
    inner: Box<dyn FsFile>,
    path: PathBuf,
    fs: CutFs,
}

impl FsFile for CutFile {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        let _cut = self
            .fs
            .step("append", &self.path, Some((bytes, &*self.inner)))?;
        self.inner.append(bytes)
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        let _cut = self.fs.step("set_len", &self.path, None)?;
        self.inner.set_len(len)
    }
    fn sync(&self) -> io::Result<()> {
        let _cut = self.fs.step("sync", &self.path, None)?;
        self.inner.sync()
    }
}

/// Small segments, so commits seal often; no background checkpointer,
/// so every fold is one the test asked for.
fn open(fs: &CutFs) -> Result<DiskStore, chroma_store::DiskError> {
    let opts = DiskStoreOptions {
        segment_bytes: 512,
        auto_checkpoint: false,
    };
    DiskStore::open_fs(Arc::new(fs.clone()), "store", opts)
}

type Batch = BTreeMap<u64, Vec<u8>>;

/// One to four distinct objects, each with a value no earlier batch
/// wrote (so a surviving write names its batch).
fn draw_batch(rng: &mut u64, serial: &mut u64) -> Batch {
    let objects = 1 + splitmix(rng) % 4;
    (0..objects)
        .map(|_| {
            *serial += 1;
            let mut value = serial.to_le_bytes().to_vec();
            value.resize(8 + (splitmix(rng) % 64) as usize, 0xA5);
            (splitmix(rng) % OBJECTS, value)
        })
        .collect()
}

fn updates(batch: &Batch) -> Vec<(ObjectId, StoreBytes)> {
    batch
        .iter()
        .map(|(&o, v)| (ObjectId::from_raw(o), StoreBytes::from(v.clone())))
        .collect()
}

fn contents(store: &DiskStore) -> Batch {
    (0..OBJECTS)
        .filter_map(|o| {
            let state = store.read(ObjectId::from_raw(o)).expect("read");
            state.map(|state| (o, state.to_vec()))
        })
        .collect()
}

/// A bus with a flight recorder large enough for any test here.
fn traced() -> (Arc<EventBus>, Arc<FlightRecorder>) {
    let bus = Arc::new(EventBus::new());
    let recorder = FlightRecorder::attach(&bus, 100_000);
    (bus, recorder)
}

/// Every event `recorder` holds, none evicted.
fn events(recorder: &FlightRecorder) -> Vec<Event> {
    assert_eq!(recorder.dropped(), 0);
    recorder.events()
}

fn assert_audits_clean(events: &[Event], what: &str) {
    let report = TraceAuditor::audit_events(events);
    assert!(report.is_clean(), "{what}: {report}");
}

/// Recovery keeps exactly the files the manifest names.
fn assert_segments_are_the_manifest(fs: &CutFs, what: &str) {
    let names = |paths: Vec<PathBuf>| {
        let mut names: Vec<String> = paths
            .iter()
            .map(|path| path.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let segments = Path::new("store/segments");
    let on_disk = fs.disk.list(segments).unwrap();
    let named = DiskStore::live_segment_paths(&fs.disk, "store").unwrap();
    assert_eq!(
        names(on_disk.into_iter().map(PathBuf::from).collect()),
        names(named),
        "{what}: segments/ is not what the manifest names"
    );
}

/// One step of a seeded history.
#[derive(Clone, Debug)]
enum Step {
    /// Drop the store, if any, and open it (a brand-new one first).
    Open,
    Commit(Batch),
    Checkpoint,
}

/// A brand-new store, commits that fill 512-byte segments so groups
/// seal, three folds (each GCs the last one's image), a reopen, and a
/// few commits after it. A fold leaves the active segment empty and one
/// batch (at most 448 bytes) cannot fill it, so the second fold seals
/// that batch's segment itself.
fn history(seed: u64) -> Vec<Step> {
    let mut rng = seed ^ 0x4849_5354;
    let mut serial = 0u64;
    let mut steps = vec![Step::Open];
    for (commits, then) in [
        (10, Step::Checkpoint),
        (1, Step::Checkpoint),
        (10, Step::Checkpoint),
        (6, Step::Open),
    ] {
        for _ in 0..commits {
            steps.push(Step::Commit(draw_batch(&mut rng, &mut serial)));
        }
        steps.push(then);
    }
    for _ in 0..4 {
        steps.push(Step::Commit(draw_batch(&mut rng, &mut serial)));
    }
    steps
}

/// What a history left behind when the power went.
struct Run {
    fs: CutFs,
    /// How many operations preceded each step that ran.
    step_starts: Vec<usize>,
    bus: Arc<EventBus>,
    recorder: Arc<FlightRecorder>,
    /// Every acknowledged batch, applied in order.
    acked: Batch,
    /// The batch whose commit the cut interrupted.
    interrupted: Option<Batch>,
}

/// Runs `steps` on a fresh disk, traced, until the power goes at `cut`.
fn run_history(steps: &[Step], cut: Option<PowerCut>) -> Run {
    let fs = CutFs::default();
    fs.arm(cut);
    let (bus, recorder) = traced();
    let mut store: Option<DiskStore> = None;
    let (mut acked, mut interrupted) = (Batch::new(), None);
    let mut step_starts = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        step_starts.push(fs.ops().len());
        let outcome = match step {
            Step::Open => {
                drop(store.take());
                open(&fs).map(|opened| {
                    opened.install_obs(Obs::new(bus.clone()));
                    store = Some(opened);
                })
            }
            Step::Commit(batch) => {
                let outcome = store.as_ref().unwrap().commit_batch(updates(batch));
                match outcome {
                    Ok(()) => acked.extend(batch.clone()),
                    Err(_) => interrupted = Some(batch.clone()),
                }
                outcome
            }
            Step::Checkpoint => store.as_ref().unwrap().checkpoint_now().map(drop),
        };
        // Every failure is the power cut's.
        assert_eq!(
            outcome.is_err(),
            fs.dead(),
            "step {i} {step:?}: {outcome:?}"
        );
        if fs.dead() {
            break;
        }
    }
    Run {
        fs,
        step_starts,
        bus,
        recorder,
        acked,
        interrupted,
    }
}

/// After the history's cut, reopens with the power cut at the
/// reopen's `reopen_at`th operation, then (if that cut happened) clean,
/// and checks the recovered store. Returns whether the reopen was cut.
fn recover_and_check(run: Run, reopen_at: usize, what: &str) -> bool {
    let Run {
        fs,
        bus,
        recorder,
        acked,
        interrupted,
        ..
    } = run;
    fs.arm(Some(PowerCut::at(reopen_at)));
    let (store, reopen_cut) = match open(&fs) {
        Ok(store) => (store, false),
        Err(e) => {
            assert!(fs.dead(), "{what}: reopen failed without a cut: {e}");
            fs.arm(None);
            let store = open(&fs).unwrap_or_else(|e| panic!("{what}: clean reopen: {e}"));
            (store, true)
        }
    };
    fs.arm(None);
    store.install_obs(Obs::new(bus.clone()));

    let mut expected = acked;
    let after = contents(&store);
    if after != expected {
        if let Some(batch) = interrupted {
            expected.extend(batch);
        }
    }
    assert_eq!(
        after, expected,
        "{what}: not every acknowledged batch, plus all or nothing of the interrupted one"
    );
    assert_segments_are_the_manifest(&fs, what);
    assert_eq!(
        store.checkpoint_backlog(),
        store.replay_stats().batches,
        "{what}: every replayed batch is checkpoint debt"
    );

    // The recovered store commits behind what recovery kept, reopens,
    // folds and reopens.
    let next: Batch = [(0, b"after recovery".to_vec())].into();
    store
        .commit_batch(updates(&next))
        .expect("commit after recovery");
    expected.extend(next);
    let reopen = |store: DiskStore, when: &str| {
        drop(store);
        let store = open(&fs).unwrap_or_else(|e| panic!("{what}: reopen {when}: {e}"));
        store.install_obs(Obs::new(bus.clone()));
        assert_eq!(contents(&store), expected, "{what}: {when}");
        store
    };
    let store = reopen(store, "after a commit");
    assert!(
        store.checkpoint_now().expect("fold after recovery"),
        "{what}: nothing to fold"
    );
    drop(reopen(store, "after the fold"));
    assert_audits_clean(&events(&recorder), what);
    reopen_cut
}

/// Where each frame of an append to a log file ends (the magic counts
/// as a frame).
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0;
    if bytes.starts_with(b"CHLOG001") {
        at = 8;
        ends.push(at);
    }
    while at + 4 <= bytes.len() {
        at += 4 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize + 4;
        ends.push(at);
    }
    assert_eq!(at, bytes.len(), "an append of whole frames");
    ends
}

/// The strict prefixes of an append to a log file that a torn write
/// leaves: every frame boundary, and one drawn point inside a drawn
/// frame.
fn tears(bytes: &[u8], rng: &mut u64) -> Vec<usize> {
    let mut ends = frame_ends(bytes);
    let frame = splitmix(rng) as usize % ends.len();
    let start = frame.checked_sub(1).map_or(0, |i| ends[i]);
    let inside = start + 1 + splitmix(rng) as usize % (ends[frame] - start - 1);
    ends.pop();
    ends.push(inside);
    ends
}

/// The index of the first run of operations in `ops` named, back to
/// back, by the prefixes `run`.
fn find_run(ops: &[Op], run: &[&str]) -> usize {
    (0..ops.len())
        .find(|&i| {
            run.iter()
                .enumerate()
                .all(|(j, name)| ops.get(i + j).is_some_and(|op| op.what.starts_with(name)))
        })
        .unwrap_or_else(|| {
            let ops: Vec<&str> = ops.iter().map(|op| op.what.as_str()).collect();
            panic!("no {run:?} in {ops:#?}")
        })
}

/// The history covers, by name, every step a commit, a seal and a fold
/// take, so cutting every operation cuts between each pair of them.
fn assert_named_steps(steps: &[Step], full: &Run) {
    let ops = &full.fs.ops();
    const LOG: &str = "store/segments/seg-";
    let seg = |op: &str| format!("{op} {LOG}");
    let manifest = [
        "create store/MANIFEST.tmp",
        "append store/MANIFEST.tmp",
        "sync store/MANIFEST.tmp",
        "rename store/MANIFEST.tmp",
        "sync_dir store",
    ];
    // A group commit: a cut at its append loses the batch (before the
    // intents), a torn append keeps a prefix of its frames (the intents
    // without the marker), and a cut at or past the op after its fsync
    // keeps it (after the commit record, after the install).
    let commit = ops
        .iter()
        .position(|op| op.what.starts_with(&seg("append")) && !op.bytes.starts_with(b"CHLOG001"))
        .expect("a group append");
    assert!(
        ops[commit + 1].what.starts_with(&seg("sync")),
        "{:?}",
        ops[commit + 1]
    );
    assert!(
        frame_ends(&ops[commit].bytes).len() >= 2,
        "a group append holds the intents and the marker"
    );
    // A seal right after the group that filled the segment: the next
    // segment's create, magic, sync and `segments/` sync (cut there, the
    // new file is an orphan), then the manifest rewrite (cut after it,
    // the seal is done).
    let sealing_group = [seg("append"), seg("sync")];
    let new_segment = [
        seg("create"),
        seg("append"),
        seg("sync"),
        "sync_dir store/segments".to_owned(),
    ];
    let seal: Vec<&str> = sealing_group
        .iter()
        .chain(&new_segment)
        .map(String::as_str)
        .chain(manifest)
        .collect();
    find_run(ops, &seal);
    // A fold: the image's create, append and sync, the `segments/` sync
    // (cut there, the manifest still names the old image), the manifest
    // rewrite, then the GC of the old image and the folded segments
    // (cut there, they are orphans).
    let image = [
        "create store/segments/image-",
        "append store/segments/image-",
        "sync store/segments/image-",
        "sync_dir store/segments",
    ];
    let fold: Vec<&str> = image
        .into_iter()
        .chain(manifest)
        .chain(["remove store/segments/", "remove store/segments/"])
        .collect();
    let first = find_run(ops, &fold);
    find_run(&ops[first + 1..], &fold);
    assert!(
        ops.iter()
            .any(|op| op.what.starts_with("remove store/segments/image-")),
        "a later fold GCs the first image"
    );
    // A checkpoint that seals the active segment itself before folding.
    assert!(
        steps.iter().zip(&full.step_starts).any(|(step, &at)| {
            matches!(step, Step::Checkpoint) && ops[at].what.starts_with(&seg("create"))
        }),
        "no checkpoint sealed its own segment"
    );
}

#[test]
fn every_power_cut_of_a_seeded_history_recovers() {
    let seed = torture_seed().unwrap_or(42);
    let steps = history(seed);
    let full = run_history(&steps, None);
    assert!(!full.fs.dead());
    let ops = full.fs.ops();
    assert_eq!(
        run_history(&steps, None).fs.ops(),
        ops,
        "seed {seed}: the op log differs between two runs"
    );
    let mut rng = seed ^ 0x5445_4152;
    let mut runs = 0;
    for (i, op) in ops.iter().enumerate() {
        let torn = if op.what.starts_with("append store/segments/") {
            tears(&op.bytes, &mut rng)
        } else {
            Vec::new()
        };
        for torn in std::iter::once(None).chain(torn.into_iter().map(Some)) {
            let cut = PowerCut { at: i + 1, torn };
            for reopen_at in 1.. {
                let run = run_history(&steps, Some(cut));
                assert!(run.fs.dead(), "seed {seed}: {cut:?} was not cut");
                assert_eq!(
                    run.fs.ops()[..],
                    ops[..=i],
                    "seed {seed}: the op log differs before {cut:?}"
                );
                let what = format!(
                    "seed {seed}, power cut at {} {:?} torn {torn:?}, reopen cut at {reopen_at}",
                    i + 1,
                    op.what
                );
                runs += 1;
                if !recover_and_check(run, reopen_at, &what) {
                    break;
                }
            }
        }
    }
    assert!(runs > 2 * ops.len(), "seed {seed}: {runs} runs");
    assert_named_steps(&steps, &full);
}

#[test]
fn acknowledged_batches_survive_power_loss_and_none_is_partial() {
    let seed = torture_seed().unwrap_or(42);
    let mut rng = seed ^ 0x4D45_4D46;
    let mut serial = 0u64;
    let fs = CutFs::default();
    let mut store = open(&fs).expect("fresh open");
    let mut model = Batch::new();
    let (mut checkpoints, mut interrupted, mut folds_cut) = (0, 0, 0);
    for epoch in 0..32 {
        for _ in 0..splitmix(&mut rng) % 40 {
            if splitmix(&mut rng).is_multiple_of(8) {
                store.checkpoint_now().expect("checkpoint");
                checkpoints += 1;
            } else {
                let batch = draw_batch(&mut rng, &mut serial);
                store.commit_batch(updates(&batch)).expect("commit");
                model.extend(batch);
            }
        }
        // Cut the power between two operations, at a drawn step of a
        // commit, or at a drawn step of a checkpoint (past its last step
        // it finishes).
        let torn = draw_batch(&mut rng, &mut serial);
        match splitmix(&mut rng) % 5 {
            0 => {}
            1..=3 => {
                // The group's append, its fsync (the commit point), or
                // the first step past it: a seal's, if the batch fills
                // the segment, else none.
                let at = 1 + (splitmix(&mut rng) % 3) as usize;
                fs.arm(Some(PowerCut::at(at)));
                let outcome = store.commit_batch(updates(&torn));
                assert_eq!(outcome.is_err(), fs.dead(), "{outcome:?}");
                interrupted += usize::from(outcome.is_err());
                if at > 2 {
                    model.extend(torn);
                }
            }
            _ => {
                fs.arm(Some(PowerCut::at(1 + (splitmix(&mut rng) % 20) as usize)));
                if store.checkpoint_now().is_err() {
                    folds_cut += 1;
                }
            }
        }
        drop(store);
        fs.disk.crash();
        fs.arm(None);
        store = open(&fs).expect("open after crash");
        assert_eq!(
            contents(&store),
            model,
            "seed {seed} epoch {epoch}: the reopened store is not every acknowledged batch"
        );
    }
    assert!(
        checkpoints > 0 && interrupted > 0 && folds_cut > 0,
        "seed {seed}: a vacuous schedule"
    );
}

/// Whether, among the operations `done` before the power went, a group
/// whose own fsync never ran had its bytes made durable by another
/// group's fsync: then replay counts batches no `DiskGroupCommit`
/// announced, and R9's count across the crash cannot hold.
fn synced_by_another_group(done: &[Op]) -> bool {
    done.iter().enumerate().any(|(i, append)| {
        let later_syncs = || {
            done[i + 1..]
                .iter()
                .filter(|op| op.what == append.what.replacen("append", "sync", 1))
        };
        append.what.starts_with("append store/segments/seg-")
            && !later_syncs().any(|op| op.thread == append.thread)
            && later_syncs().next().is_some()
    })
}

#[test]
fn concurrent_power_cut_torture() {
    const COMMITTERS: u64 = 6;
    const BATCHES: u64 = 4;
    let seed = torture_seed().unwrap_or(42);
    let mut rng = seed ^ 0x434F_4E43;
    let mut audited_across = 0;
    for round in 0..16 {
        let what = format!("seed {seed} round {round}");
        let fs = CutFs::default();
        let store = open(&fs).expect("fresh open");
        let (bus, recorder) = traced();
        store.install_obs(Obs::new(bus.clone()));
        // Each group appends and fsyncs; each seal takes nine steps.
        fs.arm(Some(PowerCut::at(1 + (splitmix(&mut rng) % 60) as usize)));
        // Two objects per batch, so a torn batch is visible; every
        // batch writes its own objects.
        let batch = move |i: u64, j: u64| -> Batch {
            let object = 2 * (i * BATCHES + j);
            let value = vec![i as u8, j as u8, round as u8];
            [(object, value.clone()), (object + 1, value)].into()
        };
        let barrier = Arc::new(Barrier::new(COMMITTERS as usize));
        let handles: Vec<_> = (0..COMMITTERS)
            .map(|i| {
                let (store, barrier) = (store.clone(), Arc::clone(&barrier));
                thread::spawn(move || {
                    barrier.wait();
                    // How many of its batches were acknowledged; a
                    // committer stops at its first failure.
                    (0..BATCHES)
                        .take_while(|&j| store.commit_batch(updates(&batch(i, j))).is_ok())
                        .count() as u64
                })
            })
            .collect();
        let acked: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        drop(store);
        let mut done = fs.ops();
        if fs.dead() {
            done.pop();
        } else {
            fs.disk.crash();
        }
        let pre_crash = events(&recorder);
        // The live trace audits clean whatever the cut did.
        assert_audits_clean(&pre_crash, &what);

        fs.arm(None);
        let store = open(&fs).unwrap_or_else(|e| panic!("{what}: reopen: {e}"));
        let (recovery_bus, recovery_recorder) = traced();
        store.install_obs(Obs::new(recovery_bus.clone()));
        for i in 0..COMMITTERS {
            for j in 0..BATCHES {
                let batch = batch(i, j);
                let landed = batch
                    .iter()
                    .filter(|&(&o, v)| {
                        store.read(ObjectId::from_raw(o)).unwrap().as_deref() == Some(&v[..])
                    })
                    .count();
                if j < acked[i as usize] {
                    assert_eq!(landed, 2, "{what}: acknowledged batch {i}.{j} lost");
                } else {
                    assert!(
                        landed != 1,
                        "{what}: batch {i}.{j} recovered half-installed"
                    );
                }
            }
        }
        let after: Batch = [(u64::MAX, b"after".to_vec())].into();
        store
            .commit_batch(updates(&after))
            .expect("commit after reopen");
        assert_eq!(recovery_bus.counter("disk_group_commit"), 1, "{what}");
        let recovery = events(&recovery_recorder);
        assert_audits_clean(&recovery, &what);
        // Replay counts what reached the disk. When a group's bytes
        // reached it only through another group's fsync, no event
        // announced them and R9 cannot balance across the crash.
        if !synced_by_another_group(&done) {
            let whole: Vec<Event> = pre_crash.into_iter().chain(recovery).collect();
            assert_audits_clean(&whole, &what);
            audited_across += 1;
        }
    }
    assert!(
        audited_across > 0,
        "seed {seed}: R9 never checked across a crash"
    );
}

#[test]
fn a_fresh_store_at_a_nested_path_survives_power_loss() {
    // `open` creates `nodes`, `nodes/n1` and `nodes/n1/store`; each is
    // an entry of its parent, lost unless that parent was synced.
    let disk = MemFs::new();
    let opts = DiskStoreOptions {
        segment_bytes: 512,
        auto_checkpoint: false,
    };
    let open = || DiskStore::open_fs(Arc::new(disk.clone()), "nodes/n1/store", opts);
    let batch: Batch = [(3, b"survives".to_vec())].into();
    open()
        .expect("fresh open")
        .commit_batch(updates(&batch))
        .expect("commit");
    disk.crash();
    let store = open().expect("reopen after power loss");
    assert_eq!(contents(&store), batch);
}
