//! Crash consistency of `DiskStore` over `MemFs`: power loss keeps
//! exactly what the store synced.
//!
//! A seeded schedule (`CHROMA_TORTURE_SEED`, default 42) commits
//! batches, seals small segments and folds them with `checkpoint_now`,
//! then cuts the power at a random point: between two operations, or
//! inside a commit at one of its crash points. After every crash the
//! store is reopened over the same disk. Every batch whose
//! `commit_batch` returned `Ok` must be present, and the batch the crash
//! interrupted must be all there or not there at all.

use std::collections::BTreeMap;
use std::sync::Arc;

use chroma_base::ObjectId;
use chroma_store::{DiskCrashPoint, DiskStore, DiskStoreOptions, MemFs, StoreBytes};

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

/// Small segments, so commits seal often; no background checkpointer,
/// so every fold is one the schedule asked for.
fn open(disk: &MemFs) -> DiskStore {
    let opts = DiskStoreOptions {
        segment_bytes: 512,
        auto_checkpoint: false,
    };
    DiskStore::open_fs(Arc::new(disk.clone()), "store", opts).expect("open after crash")
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
    let disk = MemFs::new();
    let mut store = open(&disk);
    let mut model = Batch::new();
    let (mut checkpoints, mut interrupted) = (0, 0);
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
        // cut the power between two operations, or inside a commit
        let torn = draw_batch(&mut rng, &mut serial);
        let point = match splitmix(&mut rng) % 4 {
            0 => None,
            1 => Some(DiskCrashPoint::BeforeIntents),
            2 => Some(DiskCrashPoint::AfterIntents),
            _ => Some(DiskCrashPoint::AfterCommitRecord),
        };
        if let Some(point) = point {
            let outcome = store.commit_batch_with_crash(updates(&torn), point);
            assert!(outcome.is_err(), "{point:?} must not acknowledge");
            interrupted += 1;
        }
        disk.crash();
        store = open(&disk);

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
        checkpoints > 0 && interrupted > 0,
        "seed {seed}: a vacuous schedule"
    );
}
