//! Property tests for the segmented intentions log: many small
//! segments, interleaved checkpoints, and restarts must behave exactly
//! like one in-memory map — and recovery must replay only the
//! manifest's live suffix (bounded work), never the full history.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chroma_base::ObjectId;
use chroma_obs::{EventBus, FlightRecorder, Obs, Observable, TraceAuditor};
use chroma_store::{DiskStore, DiskStoreOptions, StoreBytes};
use proptest::prelude::*;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "chroma-seg-test-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn o(n: u64) -> ObjectId {
    ObjectId::from_raw(n)
}

/// One scripted step against the store.
#[derive(Clone, Debug)]
enum Step {
    /// Commit `[(object, value)]` pairs (values are derived bytes).
    Commit(Vec<(u64, u8)>),
    /// Force a fold of everything committed so far.
    Checkpoint,
    /// Drop the store and reopen it (a clean restart).
    Reopen,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => proptest::collection::vec((1u64..=24, any::<u8>()), 1..5).prop_map(Step::Commit),
        1 => Just(Step::Checkpoint),
        1 => Just(Step::Reopen),
    ]
}

/// The value bytes a (object, tag) pair commits: big enough that a
/// tiny `segment_bytes` threshold seals constantly, exercising many
/// segments per run.
fn value(object: u64, tag: u8) -> StoreBytes {
    let mut v = vec![object as u8, tag];
    v.extend(std::iter::repeat_n(tag, 24));
    StoreBytes::from(v)
}

fn tiny() -> DiskStoreOptions {
    DiskStoreOptions {
        // Every commit overflows the active segment, so runs cross
        // many seal boundaries.
        segment_bytes: 64,
        auto_checkpoint: false,
    }
}

/// Opens the store with `tiny` options and traces it into `bus`.
fn open_traced(dir: &std::path::Path, bus: &Arc<EventBus>) -> DiskStore {
    let store = DiskStore::open_with(dir, tiny()).unwrap();
    store.install_obs(Obs::new(bus.clone()));
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A random script of commits, checkpoints and restarts over a
    /// store sealing every ~64 bytes matches a plain `HashMap` model;
    /// every restart replays exactly the batches committed since the
    /// last checkpoint — not total history, and not less; and the
    /// whole script, restarts included, audits clean under R1–R11.
    #[test]
    fn multi_segment_script_matches_model(steps in proptest::collection::vec(step_strategy(), 1..40)) {
        let dir = temp_dir();
        let bus = Arc::new(EventBus::new());
        let recorder = FlightRecorder::attach(&bus, 100_000);
        let mut store = open_traced(&dir, &bus);
        let mut model: std::collections::HashMap<u64, StoreBytes> =
            std::collections::HashMap::new();
        let mut total_batches = 0u64;

        for step in &steps {
            match step {
                Step::Commit(pairs) => {
                    let updates: Vec<(ObjectId, StoreBytes)> = pairs
                        .iter()
                        .map(|&(object, tag)| (o(object), value(object, tag)))
                        .collect();
                    store.commit_batch(updates).unwrap();
                    for &(object, tag) in pairs {
                        model.insert(object, value(object, tag));
                    }
                    total_batches += 1;
                }
                Step::Checkpoint => {
                    store.checkpoint_now().unwrap();
                    prop_assert_eq!(store.checkpoint_backlog(), 0);
                }
                Step::Reopen => {
                    let live_batches = store.checkpoint_backlog();
                    drop(store);
                    store = open_traced(&dir, &bus);
                    // Bounded recovery: replay covers exactly the live
                    // suffix, never the `total_batches` full history.
                    let replayed = store.replay_stats().batches;
                    prop_assert!(
                        replayed == live_batches,
                        "replayed {replayed} batches but {live_batches} were uncheckpointed \
                         ({total_batches} committed in total)"
                    );
                }
            }
            // The store always answers like the model, whatever mix of
            // tail, fold and replay currently backs each object.
            for (&object, expect) in &model {
                prop_assert_eq!(
                    store.read(o(object)).unwrap().as_deref(),
                    Some(&expect[..])
                );
            }
        }

        // Final restart: everything survives, and the ids the store
        // reports are exactly the model's keys.
        drop(store);
        let store = open_traced(&dir, &bus);
        let mut ids: Vec<u64> = store
        .object_ids()
        .unwrap()
        .into_iter()
        .map(|id| id.as_raw())
        .collect();
        ids.sort_unstable();
        let mut expect: Vec<u64> = model.keys().copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(ids, expect);

        prop_assert_eq!(recorder.dropped(), 0);
        let report = TraceAuditor::audit_events(&recorder.events());
        prop_assert!(report.is_clean(), "script audit failed:\n{report}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A traced full segment lifecycle — commits spilling over many seals,
/// a checkpoint folding and GC-ing them, a restart replaying the live
/// suffix — audits clean under R1–R11.
#[test]
fn traced_segment_lifecycle_audits_clean() {
    let dir = temp_dir();
    let bus = Arc::new(EventBus::new());
    let recorder = FlightRecorder::attach(&bus, 100_000);

    {
        let store = DiskStore::open_with(&dir, tiny()).unwrap();
        store.install_obs(Obs::new(bus.clone()));
        for i in 1..=12u64 {
            store.commit_batch(vec![(o(i), value(i, i as u8))]).unwrap();
        }
        assert!(bus.counter("segment_seal") >= 3, "tiny segments must seal");
        store.checkpoint_now().unwrap();
        assert_eq!(bus.counter("checkpoint_end"), 1);
        assert!(
            bus.counter("segment_gc") >= 3,
            "folded segments must be GC'd"
        );
        // A couple more commits stay in the live suffix for the
        // restart below to replay.
        store.commit_batch(vec![(o(1), value(1, 0xEE))]).unwrap();
        store.commit_batch(vec![(o(2), value(2, 0xEF))]).unwrap();
    }

    let store = DiskStore::open_with(&dir, tiny()).unwrap();
    store.install_obs(Obs::new(bus.clone()));
    assert_eq!(
        store.read(o(1)).unwrap().as_deref(),
        Some(&value(1, 0xEE)[..])
    );
    assert_eq!(
        store.read(o(12)).unwrap().as_deref(),
        Some(&value(12, 12)[..])
    );

    assert_eq!(recorder.dropped(), 0);
    let report = TraceAuditor::audit_events(&recorder.events());
    assert!(report.is_clean(), "lifecycle audit failed:\n{report}");
    std::fs::remove_dir_all(&dir).ok();
}
