//! `read_mostly`: two clients over 25 000 groups of four 256-byte
//! values (about 25 MB, larger than any CPU cache), in-memory backend,
//! no event bus. 90 % of operations are declared read-only actions
//! (four snapshot reads of one group, no locks), 5 % are ordinary
//! actions that read-lock one group, 5 % stamp all four keys of one
//! group with one new version.
//!
//! Chosen because it works the store's version chains, their garbage
//! collection and the codec, and bypasses the lock table on nine
//! operations in ten — the same store and lock layers as the two
//! workloads before, used the opposite way. No disk, no monitoring.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chroma_base::ObjectId;
use chroma_core::{ActionError, LocalBackend, PermanenceBackend, Runtime};

use super::{
    common_values, drive, store_us, trace_file, ClientWork, Load, Mode, RepOutput, RepParams,
    RuntimeCounters, RETRIES,
};
use crate::gen::{Op, ReadMostlyKind, StreamKind};
use crate::span::{span, SpanName};
use crate::stats::Latencies;
use crate::timed_backend::TimedBackend;

const CLIENTS: usize = 2;
pub const GROUPS: u32 = 25_000;
pub const GROUP_KEYS: usize = 4;
/// Encoded value size: 8-byte version, 8-byte length, padding.
const VALUE_BYTES: usize = 256;
pub const PAD_BYTES: usize = VALUE_BYTES - 16;
/// Objects created per set-up action.
const PRELOAD_BATCH: usize = 1_000;
/// Per client, at the reference run length.
const WARMUP_OPS: u64 = 15_000;
const TIMED_OPS: u64 = 225_000;

/// A version stamp and padding.
pub type Value = (u64, Vec<u8>);

pub struct Work {
    pub rt: Runtime,
    /// `GROUP_KEYS` consecutive objects per group.
    pub objects: Vec<ObjectId>,
    /// Next version each client stamps (client id in the high bits).
    next_version: Vec<AtomicU64>,
    /// Read actions that saw unequal stamps within a group.
    pub torn_reads: AtomicU64,
}

impl Work {
    pub fn preload(rt: Runtime, groups: u32) -> Self {
        let initial: Value = (0, vec![0; PAD_BYTES]);
        let total = groups as usize * GROUP_KEYS;
        let mut objects = Vec::with_capacity(total);
        while objects.len() < total {
            let batch = PRELOAD_BATCH.min(total - objects.len());
            let created: Vec<ObjectId> = rt
                .atomic(|a| (0..batch).map(|_| a.create(&initial)).collect())
                .expect("preload objects");
            objects.extend(created);
        }
        Work {
            rt,
            objects,
            next_version: (0..CLIENTS as u64)
                .map(|client| AtomicU64::new((client + 1) << 40))
                .collect(),
            torn_reads: AtomicU64::new(0),
        }
    }

    fn group(&self, group: u32) -> &[ObjectId] {
        let at = group as usize * GROUP_KEYS;
        &self.objects[at..at + GROUP_KEYS]
    }

    /// A read action is correct when it saw one consistent cut: four
    /// equal stamps.
    fn check_cut(&self, stamps: [u64; GROUP_KEYS]) -> Result<(), ActionError> {
        if stamps.iter().all(|&s| s == stamps[0]) {
            Ok(())
        } else {
            self.torn_reads.fetch_add(1, Ordering::Relaxed);
            Err(ActionError::failed("read action saw a torn group"))
        }
    }

    pub fn run_group<const TRACED: bool>(
        &self,
        client: usize,
        kind: ReadMostlyKind,
        group: u32,
    ) -> Result<(), ActionError> {
        let keys = self.group(group);
        match kind {
            ReadMostlyKind::Snapshot => {
                let snapshot = self.rt.begin_read_only();
                let mut stamps = [0; GROUP_KEYS];
                for (stamp, &key) in stamps.iter_mut().zip(keys) {
                    let value: Value =
                        span::<TRACED, _>(SpanName::SnapshotRead, || snapshot.read(key))?;
                    *stamp = value.0;
                }
                self.check_cut(stamps)
            }
            ReadMostlyKind::LockedRead => {
                let stamps = self.rt.atomic(|a| {
                    let mut stamps = [0; GROUP_KEYS];
                    for (stamp, &key) in stamps.iter_mut().zip(keys) {
                        let value: Value = span::<TRACED, _>(SpanName::ScopeRead, || a.read(key))?;
                        *stamp = value.0;
                    }
                    Ok(stamps)
                })?;
                self.check_cut(stamps)
            }
            ReadMostlyKind::Write => {
                let version = self.next_version[client].fetch_add(1, Ordering::Relaxed);
                let value: Value = (version, vec![0; PAD_BYTES]);
                self.rt.atomic_retry(RETRIES, |a| {
                    for &key in keys {
                        span::<TRACED, _>(SpanName::ScopeWrite, || a.write(key, &value))?;
                    }
                    Ok(())
                })
            }
        }
    }
}

impl ClientWork for Work {
    fn run_op<const TRACED: bool>(&self, client: usize, op: Op) -> Result<(), ActionError> {
        let Op::Group { kind, group } = op else {
            unreachable!("read_mostly draws group operations");
        };
        self.run_group::<TRACED>(client, kind, group)
    }
}

pub fn run(params: &RepParams) -> RepOutput {
    let traced = params.mode == Mode::Traced;
    let timed = traced.then(|| Arc::new(TimedBackend::new(Arc::new(LocalBackend::new()))));
    let mut builder = Runtime::builder();
    if let Some(timed) = &timed {
        builder = builder.backend(timed.clone() as Arc<dyn PermanenceBackend>);
    }
    let work = Work::preload(builder.build(), GROUPS);
    let versions_preloaded = work.rt.version_count();

    let load = Load {
        stream: StreamKind::Group { groups: GROUPS },
        seed: params.seed,
        clients: CLIENTS,
        warmup_per_client: params.scaled(WARMUP_OPS),
        timed_per_client: params.scaled(TIMED_OPS),
        recorder: Latencies::bucketed,
    };
    let input_hash = load.input_hash();

    let mut before = None;
    let snapshot = |slot: &mut Option<_>| {
        *slot = Some((
            RuntimeCounters::read(&work.rt),
            timed.as_ref().map(|t| t.counts()),
            work.rt.version_count(),
        ));
    };
    let driven = if traced {
        drive::<true, _>(&work, &load, || snapshot(&mut before))
    } else {
        drive::<false, _>(&work, &load, || snapshot(&mut before))
    };
    let (rt_before, counts0, versions_warm) = before.expect("drive runs the snapshot");
    let rt_after = RuntimeCounters::read(&work.rt);

    let correct = work.torn_reads.load(Ordering::Relaxed) == 0;
    let mut values = common_values(params, &driven, input_hash, correct);
    values.absorb(&rt_before.layer_values(&rt_after, &driven, store_us(driven.trace.as_ref()), 0));
    let mut trace_json = None;
    if let (Some(trace), Some(timed), Some(counts0)) = (&driven.trace, &timed, counts0) {
        let counts = timed.counts();
        values.set(
            "store.snapshot_read_ns_p50",
            trace.of(SpanName::SnapshotRead).durations.quantile(0.5),
        );
        values.set(
            "store.backend_reads_per_op",
            (counts.reads - counts0.reads) as f64 / driven.attempted as f64,
        );
        values.set(
            "store.commit_share",
            trace.of(SpanName::BackendCommit).total_us() / trace.of(SpanName::Op).total_us(),
        );
        // chains only exist for written objects and are swept every few
        // commits, so the count is steady: the largest of the three
        // quiescent points is its high-water mark
        let versions = versions_preloaded
            .max(versions_warm)
            .max(work.rt.version_count());
        values.set("store.versions_max", versions as f64);
        values.absorb(&crate::probes::read_side(params.seed));
        let snapshot_ops = trace.of(SpanName::SnapshotRead).count / GROUP_KEYS as u64;
        values.set(
            "read_mostly.lockless_op_share",
            snapshot_ops as f64 / driven.attempted as f64,
        );
        trace_json = Some(trace_file(params, trace, &values));
    }
    RepOutput { values, trace_json }
}
