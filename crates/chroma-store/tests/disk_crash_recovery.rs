//! Fault-injection tests for the on-disk store: kill the WAL at random
//! crash points and tear it at random byte offsets (power loss
//! mid-flush), then prove recovery restores a state the trace auditor
//! accepts — committed batches durable, uncommitted ones rolled back,
//! never a mix.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chroma_base::ObjectId;
use chroma_obs::{EventBus, MemorySink, Obs, Observable, TraceAuditor};
use chroma_store::{DiskCrashPoint, DiskError, DiskStore, StoreBytes};
use proptest::prelude::*;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Baseline objects committed (durably) before every injected fault.
const BASELINE_OBJECTS: u64 = 4;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "chroma-crash-test-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn o(n: u64) -> ObjectId {
    ObjectId::from_raw(n)
}

/// The active (newest) live segment of a closed store directory — the
/// file a torn-power-loss test mutilates.
fn active_segment(dir: &std::path::Path) -> PathBuf {
    DiskStore::live_segment_paths(dir)
        .unwrap()
        .last()
        .cloned()
        .expect("an opened store always has a live segment")
}

fn bytes(v: &[u8]) -> StoreBytes {
    StoreBytes::from(v.to_vec())
}

/// Commits `[i, 0]` to objects `1..=BASELINE_OBJECTS` — the durable
/// state every fault-injection round must preserve.
fn seed_baseline(store: &DiskStore) {
    let updates: Vec<(ObjectId, StoreBytes)> = (1..=BASELINE_OBJECTS)
        .map(|i| (o(i), bytes(&[i as u8, 0])))
        .collect();
    store.commit_batch(updates).unwrap();
}

/// Batch overwriting objects `1..=batch_size` with `[i, 1]`.
fn overwrite_batch(batch_size: u64) -> Vec<(ObjectId, StoreBytes)> {
    (1..=batch_size)
        .map(|i| (o(i), bytes(&[i as u8, 1])))
        .collect()
}

/// Asserts the post-recovery store: objects `1..=batch_size` hold the
/// new value iff `survives`, the rest of the baseline is untouched.
fn assert_all_or_nothing(store: &DiskStore, batch_size: u64, survives: bool) {
    for i in 1..=batch_size {
        let expect = [i as u8, u8::from(survives)];
        assert_eq!(
            store.read(o(i)).unwrap().as_deref(),
            Some(&expect[..]),
            "object {i} torn (batch_size={batch_size}, survives={survives})"
        );
    }
    for i in batch_size + 1..=BASELINE_OBJECTS {
        assert_eq!(
            store.read(o(i)).unwrap().as_deref(),
            Some(&[i as u8, 0][..]),
            "baseline object {i} damaged"
        );
    }
}

/// splitmix64 — the deterministic per-seed stream for the torture
/// matrix (CI sweeps `CHROMA_TORTURE_SEED`).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn torture_seed() -> u64 {
    std::env::var("CHROMA_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash after the commit point, then tear the log at a random byte
    /// offset before reopening. Recovery must be all-or-nothing: the
    /// batch survives exactly when the tear spared the commit marker
    /// (the final record), and the baseline survives regardless.
    #[test]
    fn truncated_wal_recovers_all_or_nothing(
        batch_size in 1u64..=BASELINE_OBJECTS,
        cut_permille in 0u64..=1000,
    ) {
        let dir = temp_dir();
        {
            let store = DiskStore::open(&dir).unwrap();
            seed_baseline(&store);
            // Fold the baseline into objects/ so the active segment
            // holds exactly the batch the tear targets.
            store.checkpoint_now().unwrap();
            let err = store
                .commit_batch_with_crash(
                    overwrite_batch(batch_size),
                    DiskCrashPoint::AfterCommitRecord,
                )
                .unwrap_err();
            prop_assert!(matches!(
                err,
                DiskError::Crashed(DiskCrashPoint::AfterCommitRecord)
            ));
        }
        let log_path = active_segment(&dir);
        let log = std::fs::read(&log_path).unwrap();
        prop_assert!(!log.is_empty(), "crash left no log to tear");
        let cut = usize::try_from(log.len() as u64 * cut_permille / 1000).unwrap();
        std::fs::write(&log_path, &log[..cut]).unwrap();
        // The commit marker is the last log record, so any tear short of
        // the full length removes it and the batch must roll back.
        let survives = cut == log.len();

        let store = DiskStore::open(&dir).unwrap();
        assert_all_or_nothing(&store, batch_size, survives);
        // The store stays live after recovery.
        store.commit_batch(vec![(o(9), bytes(&[9, 9]))]).unwrap();
        prop_assert_eq!(store.read(o(9)).unwrap().as_deref(), Some(&[9u8, 9][..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Kill the commit at each injection point; recovery lands on the
    /// correct side of the commit point every time.
    #[test]
    fn every_crash_point_recovers_cleanly(
        crash_idx in 0usize..8,
        batch_size in 1u64..=BASELINE_OBJECTS,
    ) {
        let points = [
            DiskCrashPoint::BeforeIntents,
            DiskCrashPoint::AfterIntents,
            DiskCrashPoint::AfterCommitRecord,
            DiskCrashPoint::AfterInstall,
            DiskCrashPoint::SealBeforeManifest,
            DiskCrashPoint::AfterSeal,
            DiskCrashPoint::CheckpointBeforeManifest,
            DiskCrashPoint::CheckpointBeforeGc,
        ];
        let point = points[crash_idx];
        let dir = temp_dir();
        {
            let store = DiskStore::open(&dir).unwrap();
            seed_baseline(&store);
            let err = store
                .commit_batch_with_crash(overwrite_batch(batch_size), point)
                .unwrap_err();
            prop_assert!(matches!(err, DiskError::Crashed(p) if p == point));
        }
        let store = DiskStore::open(&dir).unwrap();
        // The commit point is the marker fsync: every stage at or past
        // `AfterCommitRecord` (including the seal and checkpoint
        // stages, which run after the flush) keeps the batch.
        let survives = !matches!(
            point,
            DiskCrashPoint::BeforeIntents | DiskCrashPoint::AfterIntents
        );
        assert_all_or_nothing(&store, batch_size, survives);
        // Batch ids continue past the recovered log; commits still work.
        store.commit_batch(vec![(o(9), bytes(&[9, 9]))]).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The log's byte ranges where a flip may legally degrade to silent
/// all-or-nothing truncation instead of detection: each record's
/// length prefix (damage there derails framing before any checksum can
/// be read). Every other byte — the format magic, record payloads and
/// the checksums themselves — is checked and a flip *must* be detected.
fn unprotected_ranges(log: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut ranges: Vec<std::ops::Range<usize>> = Vec::new();
    let mut pos = 8; // past the `CHLOG001` magic
    while pos + 4 <= log.len() {
        ranges.push(pos..pos + 4); // this record's length prefix
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().expect("four bytes")) as usize;
        pos += 4 + len + 4; // len prefix + payload + crc
    }
    ranges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flip one bit anywhere in a log holding a committed-but-not-yet
    /// installed batch. A flip in the magic or in CRC-protected bytes
    /// must fail `open` with `CorruptLog`; a flip in the framing (length
    /// prefixes) may instead truncate silently, but recovery must then
    /// be all-or-nothing with the batch rolled back and the baseline
    /// intact.
    #[test]
    fn flipped_log_bytes_are_detected_or_rolled_back(
        batch_size in 1u64..=BASELINE_OBJECTS,
        flip_pos_seed in any::<u64>(),
        flip_bit in 0u32..8,
    ) {
        let dir = temp_dir();
        {
            let store = DiskStore::open(&dir).unwrap();
            seed_baseline(&store);
            // Fold the baseline away so the flip always lands in the
            // segment holding the committed-but-uncheckpointed batch.
            store.checkpoint_now().unwrap();
            store
                .commit_batch_with_crash(
                    overwrite_batch(batch_size),
                    DiskCrashPoint::AfterCommitRecord,
                )
                .unwrap_err();
        }
        let log_path = active_segment(&dir);
        let mut log = std::fs::read(&log_path).unwrap();
        let pos = usize::try_from(flip_pos_seed % log.len() as u64).unwrap();
        log[pos] ^= 1 << flip_bit;
        std::fs::write(&log_path, &log).unwrap();
        let framing_damage = unprotected_ranges(&log).iter().any(|r| r.contains(&pos));

        match DiskStore::open(&dir) {
            Err(DiskError::CorruptLog(_)) => {} // detected — always acceptable
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
            Ok(store) => {
                prop_assert!(
                    framing_damage,
                    "flip at byte {pos} hit CRC-protected data but went undetected"
                );
                // Framing damage tears the log at or before the flipped
                // record, which removes the commit marker too: the
                // batch rolls back whole and the baseline survives.
                assert_all_or_nothing(&store, batch_size, false);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Deterministic torture matrix: CI sweeps `CHROMA_TORTURE_SEED` over a
/// fixed set of seeds; each seed drives a splitmix64 stream of batch
/// sizes and tear offsets. Recovery is traced, its events must pass the
/// auditor, and fsync latency must appear in the metrics.
#[test]
fn seed_matrix_truncation_torture() {
    let mut state = torture_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0DE;
    for round in 0..16u64 {
        let batch_size = splitmix(&mut state) % BASELINE_OBJECTS + 1;
        let dir = temp_dir();
        {
            let store = DiskStore::open(&dir).unwrap();
            seed_baseline(&store);
            store.checkpoint_now().unwrap();
            store
                .commit_batch_with_crash(
                    overwrite_batch(batch_size),
                    DiskCrashPoint::AfterCommitRecord,
                )
                .unwrap_err();
        }
        let log_path = active_segment(&dir);
        let log = std::fs::read(&log_path).unwrap();
        let cut = usize::try_from(splitmix(&mut state) % (log.len() as u64 + 1)).unwrap();
        std::fs::write(&log_path, &log[..cut]).unwrap();
        let survives = cut == log.len();

        let store = DiskStore::open(&dir).unwrap();
        let bus = Arc::new(EventBus::new());
        let sink = Arc::new(MemorySink::new(10_000));
        bus.add_sink(sink.clone());
        store.install_obs(Obs::new(bus.clone()));

        assert_all_or_nothing(&store, batch_size, survives);
        if survives {
            // Replay installed the batch; the deferred event surfaced
            // when tracing was attached.
            assert_eq!(bus.counter("disk_replay"), 1, "round {round}");
        }

        // A post-recovery commit emits the disk vocabulary and times its
        // fsyncs; an explicit checkpoint then walks the full segment
        // lifecycle (seal → fold → GC) under the same trace.
        store.commit_batch(vec![(o(9), bytes(&[9, 9]))]).unwrap();
        assert_eq!(bus.counter("disk_append"), 1, "round {round}");
        store.checkpoint_now().unwrap();
        assert_eq!(bus.counter("segment_seal"), 1, "round {round}");
        assert_eq!(bus.counter("checkpoint_end"), 1, "round {round}");
        assert!(bus.counter("segment_gc") >= 1, "round {round}");
        assert!(bus.snapshot().histogram("store.fsync_us").is_some());

        // The whole traced recovery + commit is clean under audit.
        assert_eq!(sink.dropped(), 0);
        let report = TraceAuditor::audit_events(&sink.events());
        assert!(report.is_clean(), "round {round} audit failed:\n{report}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Seeded multi-threaded group-commit torture: committer threads race
/// into shared group flushes while one of them injects a crash at each
/// `DiskCrashPoint`. Reopening must recover every batch all-or-nothing
/// (a committer that got `Ok` keeps its whole batch; a crashed one
/// keeps all of it or none), and the combined trace — group flushes,
/// crash, deferred replay, post-recovery commit — must audit clean
/// under R1–R11.
#[test]
fn seed_matrix_group_commit_crash_torture() {
    use std::sync::Barrier;

    const COMMITTERS: u64 = 6;
    let points = [
        DiskCrashPoint::BeforeIntents,
        DiskCrashPoint::AfterIntents,
        DiskCrashPoint::AfterCommitRecord,
        DiskCrashPoint::AfterInstall,
    ];
    let mut state = torture_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x6C0A;
    for (round, &point) in points.iter().enumerate() {
        let dir = temp_dir();
        let bus = Arc::new(EventBus::new());
        let sink = Arc::new(MemorySink::new(100_000));
        bus.add_sink(sink.clone());

        let store = Arc::new(DiskStore::open(&dir).unwrap());
        store.install_obs(Obs::new(bus.clone()));
        let crasher = splitmix(&mut state) % COMMITTERS;
        let marker = (splitmix(&mut state) % 0xFF) as u8 + 1;
        let barrier = Arc::new(Barrier::new(COMMITTERS as usize));
        let handles: Vec<_> = (0..COMMITTERS)
            .map(|i| {
                let store = Arc::clone(&store);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    // Two objects per batch, so a torn batch is visible.
                    let updates = vec![
                        (o(100 + 2 * i), bytes(&[i as u8, marker])),
                        (o(101 + 2 * i), bytes(&[i as u8, marker])),
                    ];
                    barrier.wait();
                    if i == crasher {
                        store.commit_batch_with_crash(updates, point)
                    } else {
                        store.commit_batch(updates)
                    }
                })
            })
            .collect();
        let committed: Vec<bool> = handles
            .into_iter()
            .map(|h| match h.join().unwrap() {
                Ok(()) => true,
                Err(DiskError::Crashed(_)) => false,
                Err(e) => panic!("round {round}: unexpected commit error: {e}"),
            })
            .collect();
        assert!(
            !committed[crasher as usize],
            "round {round}: the crashing committer cannot succeed"
        );
        drop(store);

        // Restart: recovery replays into the same trace (the deferred
        // DiskReplay must balance the group-fsynced, unchecked markers
        // for R9).
        let store = DiskStore::open(&dir).unwrap();
        store.install_obs(Obs::new(bus.clone()));
        for i in 0..COMMITTERS {
            let first = store.read(o(100 + 2 * i)).unwrap();
            let second = store.read(o(101 + 2 * i)).unwrap();
            let expect = [i as u8, marker];
            if committed[i as usize] {
                assert_eq!(
                    first.as_deref(),
                    Some(&expect[..]),
                    "round {round}: acknowledged batch {i} lost"
                );
            }
            match (first, second) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.as_ref(), &expect[..], "round {round}: batch {i} torn");
                    assert_eq!(b.as_ref(), &expect[..], "round {round}: batch {i} torn");
                }
                (None, None) => {}
                _ => panic!("round {round}: batch {i} recovered half-installed"),
            }
        }
        // The store is live again and keeps emitting the group-commit
        // vocabulary.
        store.commit_batch(vec![(o(999), bytes(&[9, 9]))]).unwrap();
        assert!(
            bus.counter("disk_group_commit") >= 1,
            "round {round}: no group flush was traced"
        );
        assert!(
            bus.snapshot().histogram("store.group_size").is_some(),
            "round {round}: group sizes not observed"
        );

        assert_eq!(sink.dropped(), 0, "round {round}");
        let report = TraceAuditor::audit_events(&sink.events());
        assert!(report.is_clean(), "round {round} audit failed:\n{report}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
