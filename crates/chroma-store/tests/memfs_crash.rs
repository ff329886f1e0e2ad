//! Crash consistency of `DiskStore` over `MemFs`: power loss keeps
//! exactly what the store synced.
//!
//! A seeded schedule (`CHROMA_TORTURE_SEED`, default 42) commits
//! batches, seals small segments and folds them with `checkpoint_now`,
//! then cuts the power at a random point: between two operations,
//! inside a commit at one of its crash points, or at a drawn step of a
//! checkpoint. After every crash the store is reopened over the same
//! disk. Every batch whose `commit_batch` returned `Ok` must be
//! present, and the batch the crash interrupted must be all there or
//! not there at all. A second test cuts the power at every step of one
//! checkpoint in turn — its seal, the image write, the manifest rewrite
//! and the GC behind it.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use chroma_base::ObjectId;
use chroma_store::{DiskCrashPoint, DiskStore, DiskStoreOptions, Fs, FsFile, MemFs, StoreBytes};

const OBJECTS: u64 = 12;

fn seed() -> u64 {
    std::env::var("CHROMA_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// splitmix64: one deterministic stream per seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`MemFs`] whose power can be cut at the nth mutating operation
/// after [`arm`](CutFs::arm): the disk crashes instead of performing
/// it, and every later operation fails as on a dead machine.
#[derive(Clone, Debug, Default)]
struct CutFs {
    disk: MemFs,
    cut: Arc<Mutex<Cut>>,
}

#[derive(Debug, Default)]
struct Cut {
    at: Option<usize>,
    /// The mutating operations since the last `arm`, described.
    ops: Vec<String>,
    dead: bool,
}

impl CutFs {
    /// Cuts the power at the `at`th operation from now (never for
    /// `None`), and revives a dead disk.
    fn arm(&self, at: Option<usize>) {
        *self.cut.lock().unwrap() = Cut {
            at,
            ops: Vec::new(),
            dead: false,
        };
    }

    /// The operations since the last `arm`, and whether the power went.
    fn ops(&self) -> (Vec<String>, bool) {
        let cut = self.cut.lock().unwrap();
        (cut.ops.clone(), cut.dead)
    }

    /// Counts one operation, or cuts the power instead of it.
    fn step(&self, op: &str, path: &Path) -> io::Result<()> {
        let mut cut = self.cut.lock().unwrap();
        if !cut.dead {
            cut.ops.push(format!("{op} {}", path.display()));
            cut.dead = cut.at == Some(cut.ops.len());
            if !cut.dead {
                return Ok(());
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
        self.step("create", path)?;
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
        self.step("rename", from)?;
        self.disk.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.step("remove", path)?;
        self.disk.remove_file(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.disk.list(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.step("mkdir", dir)?;
        self.disk.create_dir_all(dir)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.step("sync_dir", dir)?;
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
        self.fs.step("append", &self.path)?;
        self.inner.append(bytes)
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.fs.step("set_len", &self.path)?;
        self.inner.set_len(len)
    }
    fn sync(&self) -> io::Result<()> {
        self.fs.step("sync", &self.path)?;
        self.inner.sync()
    }
}

/// Small segments, so commits seal often; no background checkpointer,
/// so every fold is one the schedule asked for.
fn open(fs: &CutFs) -> DiskStore {
    let opts = DiskStoreOptions {
        segment_bytes: 512,
        auto_checkpoint: false,
    };
    DiskStore::open_fs(Arc::new(fs.clone()), "store", opts).expect("open after crash")
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

#[test]
fn acknowledged_batches_survive_power_loss_and_none_is_partial() {
    let seed = seed();
    let mut rng = seed ^ 0x4D45_4D46;
    let mut serial = 0u64;
    let fs = CutFs::default();
    let mut store = open(&fs);
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
        // cut the power between two operations, inside a commit, or at
        // a drawn step of a checkpoint (past its last step it finishes)
        let torn = draw_batch(&mut rng, &mut serial);
        let point = match splitmix(&mut rng) % 5 {
            0 => None,
            1 => Some(DiskCrashPoint::BeforeIntents),
            2 => Some(DiskCrashPoint::AfterIntents),
            3 => Some(DiskCrashPoint::AfterCommitRecord),
            _ => {
                fs.arm(Some(1 + (splitmix(&mut rng) % 20) as usize));
                if store.checkpoint_now().is_err() {
                    folds_cut += 1;
                }
                None
            }
        };
        if let Some(point) = point {
            let outcome = store.commit_batch_with_crash(updates(&torn), point);
            assert!(outcome.is_err(), "{point:?} must not acknowledge");
            interrupted += 1;
        }
        fs.disk.crash();
        fs.arm(None);
        store = open(&fs);

        let after = contents(&store);
        if let Some(point) = point {
            let landed = torn
                .iter()
                .filter(|&(o, v)| after.get(o) == Some(v))
                .count();
            let expected = if point == DiskCrashPoint::AfterCommitRecord {
                torn.len()
            } else {
                0
            };
            assert_eq!(
                landed,
                expected,
                "seed {seed} epoch {epoch}: {landed} of {} writes of a batch cut at {point:?}",
                torn.len()
            );
            if landed > 0 {
                model.extend(torn);
            }
        }
        assert_eq!(
            after, model,
            "seed {seed} epoch {epoch}: the reopened store differs from every acknowledged batch"
        );
    }
    assert!(
        checkpoints > 0 && interrupted > 0 && folds_cut > 0,
        "seed {seed}: a vacuous schedule"
    );
}

/// The files the manifest of the store at `store` names.
fn manifest_files(disk: &MemFs) -> Vec<String> {
    let manifest = String::from_utf8(disk.read(Path::new("store/MANIFEST")).unwrap()).unwrap();
    let mut names: Vec<String> = manifest
        .lines()
        .skip(1)
        .map(|line| match line.split_once(' ') {
            Some(("image", seq)) => format!("image-{:08}.log", seq.parse::<u64>().unwrap()),
            Some(("seg", seq)) => format!("seg-{:08}.log", seq.parse::<u64>().unwrap()),
            _ => panic!("manifest line {line:?}"),
        })
        .collect();
    names.sort();
    names
}

#[test]
fn a_power_cut_at_any_step_of_a_checkpoint_keeps_every_batch() {
    // A store with an image, sealed segments and batches in the active
    // segment; then one `checkpoint_now`, cut at its kth operation for
    // every k until it runs to the end.
    let seed = seed();
    let build = || {
        let mut rng = seed ^ 0x464F_4C44;
        let mut serial = 0u64;
        let fs = CutFs::default();
        let store = open(&fs);
        let mut model = Batch::new();
        for round in 0..2 {
            for _ in 0..12 {
                let batch = draw_batch(&mut rng, &mut serial);
                store.commit_batch(updates(&batch)).expect("commit");
                model.extend(batch);
            }
            if round == 0 {
                store.checkpoint_now().expect("the first image");
            }
        }
        (fs, store, model)
    };
    let mut full = None;
    for k in 1.. {
        let (fs, store, model) = build();
        fs.arm(Some(k));
        let outcome = store.checkpoint_now();
        let (ops, cut) = fs.ops();
        assert_eq!(outcome.is_err(), cut, "seed {seed} k {k}: {outcome:?}");
        drop(store);
        fs.disk.crash();
        fs.arm(None);
        let what = format!("seed {seed}, power cut at {k}: {:?}", ops.last());
        let store = open(&fs);
        assert_eq!(contents(&store), model, "{what}");
        // Recovery keeps exactly the files the manifest names, and the
        // fold can be redone.
        let mut files = fs.disk.list(Path::new("store/segments")).unwrap();
        files.sort();
        assert_eq!(files, manifest_files(&fs.disk), "{what}");
        store.checkpoint_now().expect("fold after recovery");
        drop(store);
        assert_eq!(contents(&open(&fs)), model, "{what}");
        if !cut {
            full = Some(ops);
            break;
        }
    }
    // Every step was cut, the fold's named among them: the image
    // written but not synced, `segments/` not synced, the manifest
    // temp written, its rename not yet durable, and the GC half done.
    let ops = full.expect("the checkpoint ran to the end");
    let at = |op: &str| {
        ops.iter()
            .position(|o| o.starts_with(op))
            .unwrap_or_else(|| panic!("no {op:?} in {ops:?}"))
    };
    let image_sync = at("sync store/segments/image-");
    assert_eq!(ops[image_sync + 1], "sync_dir store/segments", "{ops:?}");
    let manifest = image_sync
        + ops[image_sync..]
            .iter()
            .position(|o| o == "rename store/MANIFEST.tmp")
            .expect("the fold's manifest rename");
    assert_eq!(ops[manifest + 1], "sync_dir store", "{ops:?}");
    let gc = ops[manifest..]
        .iter()
        .filter(|o| o.starts_with("remove"))
        .count();
    assert!(
        gc >= 2,
        "the fold removes the old image and segments: {ops:?}"
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
