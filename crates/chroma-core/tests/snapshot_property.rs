//! Property tests for MVCC snapshot reads.
//!
//! The model is the serial execution: a `Vec<u64>` of committed key
//! values, cloned at every snapshot open. Random interleavings of
//! committed writes, aborted writes, snapshot opens/closes, GC sweeps
//! and crashes must keep every open snapshot's reads equal to the model
//! captured at its open — i.e. a snapshot read equals a serial
//! execution frozen at the snapshot's stamp — and GC must never
//! reclaim a version a live snapshot can still reach.
//!
//! `CHROMA_TORTURE_SEED` perturbs the initial committed values, so the
//! CI seed matrix explores different version-chain shapes.

use chroma_base::ColourSet;
use chroma_core::{ActionError, Runtime, SnapshotScope};
use proptest::prelude::*;
use proptest::torture_seed;

/// SplitMix64 step, for deriving per-key initial values from the seed.
fn splitmix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const KEYS: usize = 6;

/// One step of a random schedule.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Commit `key += delta` through an atomic action.
    WriteCommit { key: usize, delta: u64 },
    /// Write `key += delta`, then abort — invisible to everyone.
    WriteAbort { key: usize, delta: u64 },
    /// Open a snapshot (and remember the model at this instant).
    Open,
    /// Read every key through every open snapshot and compare against
    /// its captured model.
    ReadAll,
    /// Close the oldest open snapshot.
    Close,
    /// Force a version-chain GC sweep.
    Gc,
    /// Crash and recover: open snapshots die, committed state survives.
    Crash,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u8..12, 0..KEYS, 1u64..5).prop_map(|(code, key, delta)| match code {
        0..=3 => Step::WriteCommit { key, delta },
        4 => Step::WriteAbort { key, delta },
        5 | 6 => Step::Open,
        7 | 8 => Step::ReadAll,
        9 => Step::Close,
        10 => Step::Gc,
        _ => Step::Crash,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshot_reads_equal_serial_execution_at_their_stamp(
        steps in prop::collection::vec(step_strategy(), 1..80)
    ) {
        let seed = torture_seed().unwrap_or(42);
        let rt = Runtime::builder().build();
        let objects: Vec<_> = (0..KEYS)
            .map(|i| rt.create_object(&splitmix(seed, i as u64)).unwrap())
            .collect();
        let mut committed: Vec<u64> =
            (0..KEYS).map(|i| splitmix(seed, i as u64)).collect();

        // Open snapshots with the model captured at their open; a crash
        // flips `dead` — their reads must then fail NotActive.
        let mut open: Vec<(SnapshotScope<'_>, Vec<u64>, bool)> = Vec::new();

        for step in steps {
            match step {
                Step::WriteCommit { key, delta } => {
                    rt.atomic(|a| a.modify(objects[key], |v: &mut u64| *v += delta))
                        .unwrap();
                    committed[key] += delta;
                }
                Step::WriteAbort { key, delta } => {
                    let id = rt.begin_top(ColourSet::single(rt.default_colour())).unwrap();
                    rt.scope(id)
                        .unwrap()
                        .modify(objects[key], |v: &mut u64| *v += delta)
                        .unwrap();
                    rt.abort(id);
                }
                Step::Open => {
                    open.push((rt.begin_read_only(), committed.clone(), false));
                }
                Step::ReadAll => {
                    for (snap, model, dead) in &open {
                        for (key, &object) in objects.iter().enumerate() {
                            let read = snap.read::<u64>(object);
                            if *dead {
                                prop_assert!(
                                    matches!(read, Err(ActionError::NotActive(_))),
                                    "crashed snapshot still serving reads"
                                );
                            } else {
                                prop_assert_eq!(
                                    read.unwrap(),
                                    model[key],
                                    "snapshot diverged from serial model on key {}",
                                    key
                                );
                            }
                        }
                    }
                }
                Step::Close => {
                    if !open.is_empty() {
                        open.remove(0);
                    }
                }
                Step::Gc => {
                    rt.version_gc();
                }
                Step::Crash => {
                    rt.crash_and_recover();
                    for entry in &mut open {
                        entry.2 = true;
                    }
                    // Committed state must have survived the crash.
                    for (key, &object) in objects.iter().enumerate() {
                        prop_assert_eq!(
                            rt.read_committed::<u64>(object).unwrap(),
                            committed[key]
                        );
                    }
                }
            }
        }

        // Final sweep with everything closed: chains stay bounded and a
        // fresh snapshot sees the serial state.
        drop(open);
        rt.version_gc();
        for &object in &objects {
            prop_assert!(rt.version_chain_len(object) <= 1);
        }
        let fresh = rt.begin_read_only();
        for (key, &object) in objects.iter().enumerate() {
            prop_assert_eq!(fresh.read::<u64>(object).unwrap(), committed[key]);
        }
        fresh.end();
    }
}
