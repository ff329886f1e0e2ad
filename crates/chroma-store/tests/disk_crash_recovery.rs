//! Fault-injection tests for the on-disk store: tear the log of a
//! committed batch at random byte offsets (power loss mid-flush) and
//! flip its bits, then prove recovery restores a state the trace
//! auditor accepts — committed batches durable, uncommitted ones rolled
//! back, never a mix. (`memfs_crash` cuts the power at every filesystem
//! step instead.)

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chroma_base::ObjectId;
use chroma_obs::{EventBus, FlightRecorder, Obs, Observable, TraceAuditor};
use chroma_store::{DiskError, DiskStore, DiskStoreOptions, OsFs, StoreBytes};
use proptest::prelude::*;
use proptest::torture_seed;

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
    DiskStore::live_segment_paths(&OsFs, dir)
        .unwrap()
        .last()
        .cloned()
        .expect("an opened store always has a live segment")
}

fn bytes(v: &[u8]) -> StoreBytes {
    StoreBytes::from(v.to_vec())
}

/// A store at `dir` holding the baseline folded into its checkpoint
/// image and then one committed batch overwriting objects
/// `1..=batch_size`, closed: its active segment holds exactly that
/// batch, and with no checkpointer nothing folds it at the drop.
fn crash_past_the_commit_point(dir: &std::path::Path, batch_size: u64) {
    let opts = DiskStoreOptions {
        auto_checkpoint: false,
        ..DiskStoreOptions::default()
    };
    let store = DiskStore::open_with(dir, opts).unwrap();
    seed_baseline(&store);
    store.checkpoint_now().unwrap();
    store.commit_batch(overwrite_batch(batch_size)).unwrap();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash past the commit point, then tear the log at a random byte
    /// offset before reopening. Recovery must be all-or-nothing: the
    /// batch survives exactly when the tear spared the commit marker
    /// (the final record), and the baseline survives regardless.
    #[test]
    fn truncated_wal_recovers_all_or_nothing(
        batch_size in 1u64..=BASELINE_OBJECTS,
        cut_permille in 0u64..=1000,
    ) {
        let dir = temp_dir();
        crash_past_the_commit_point(&dir, batch_size);
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
        // The store stays live after recovery, appending to the torn
        // segment once its tear is trimmed.
        store.commit_batch(vec![(o(9), bytes(&[9, 9]))]).unwrap();
        prop_assert_eq!(store.read(o(9)).unwrap().as_deref(), Some(&[9u8, 9][..]));
        drop(store);

        // A second restart replays the same segment: the surviving batch
        // (if any) and the post-recovery one, nothing torn in between.
        let store = DiskStore::open(&dir).unwrap();
        assert_all_or_nothing(&store, batch_size, survives);
        prop_assert_eq!(store.read(o(9)).unwrap().as_deref(), Some(&[9u8, 9][..]));
        prop_assert_eq!(store.replay_stats().batches, u64::from(survives) + 1);
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

    /// Flip one bit anywhere in a log holding a committed batch the
    /// checkpoint image does not. A flip in the magic or in
    /// CRC-protected bytes must fail `open` with `CorruptLog`; a flip in
    /// the framing (length prefixes) may instead truncate silently, but
    /// recovery must then be all-or-nothing with the batch rolled back
    /// and the baseline intact.
    #[test]
    fn flipped_log_bytes_are_detected_or_rolled_back(
        batch_size in 1u64..=BASELINE_OBJECTS,
        flip_pos_seed in any::<u64>(),
        flip_bit in 0u32..8,
    ) {
        let dir = temp_dir();
        // The baseline is folded away, so the flip always lands in the
        // segment holding the committed-but-uncheckpointed batch.
        crash_past_the_commit_point(&dir, batch_size);
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
    let mut state = torture_seed()
        .unwrap_or(0)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ 0xC0DE;
    for round in 0..16u64 {
        let batch_size = splitmix(&mut state) % BASELINE_OBJECTS + 1;
        let dir = temp_dir();
        crash_past_the_commit_point(&dir, batch_size);
        let log_path = active_segment(&dir);
        let log = std::fs::read(&log_path).unwrap();
        let cut = usize::try_from(splitmix(&mut state) % (log.len() as u64 + 1)).unwrap();
        std::fs::write(&log_path, &log[..cut]).unwrap();
        let survives = cut == log.len();

        let store = DiskStore::open(&dir).unwrap();
        let bus = Arc::new(EventBus::new());
        let recorder = FlightRecorder::attach(&bus, 10_000);
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
        assert_eq!(recorder.dropped(), 0);
        let report = TraceAuditor::audit_events(&recorder.events());
        assert!(report.is_clean(), "round {round} audit failed:\n{report}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
