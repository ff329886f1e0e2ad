//! `durable_commit`: two clients read-modify-write 128-byte objects of
//! their own halves of 1 024, each operation one top-level
//! single-colour action committed through `Runtime` → `DiskBackend` →
//! `DiskStore` with default options.
//!
//! Chosen because nearly all of its time is the store's log append and
//! two fsyncs per group: locks never wait, structures and the event bus
//! are unused, and the fixed work is long enough to seal segments and
//! run the background checkpointer.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use chroma_base::ObjectId;
use chroma_core::{ActionError, DiskBackend, PermanenceBackend, Runtime};
use chroma_obs::{EventBus, Obs, Observable};
use chroma_store::{codec, DiskStore};

use super::{
    common_values, drive, store_us, trace_file, ClientWork, Load, Mode, RepOutput, RepParams,
    RuntimeCounters, ScratchDir, StoreEvents,
};
use crate::gen::{Op, StreamKind};
use crate::procfs;
use crate::span::{span, SpanName};
use crate::stats::Latencies;
use crate::timed_backend::{BackendCounts, TimedBackend};

const CLIENTS: usize = 2;
const OBJECTS: u32 = 1_024;
const PER_CLIENT: u32 = OBJECTS / CLIENTS as u32;
const VALUE_BYTES: usize = 128;
/// Per client, at the reference run length.
const WARMUP_OPS: u64 = 500;
const TIMED_OPS: u64 = 4_500;

struct Work {
    rt: Runtime,
    objects: Vec<ObjectId>,
    /// Acknowledged commits per object: the model the reopened store
    /// is checked against.
    acked: Vec<AtomicU32>,
}

/// A commit counter and padding; the codec writes both fixed-width, so
/// the encoded object is exactly [`VALUE_BYTES`] long.
type Value = (u64, Vec<u8>);
const PAD_BYTES: usize = VALUE_BYTES - 16;

/// Every counter the store side exposes, read before and after the
/// timed region.
struct StoreCounters {
    runtime: RuntimeCounters,
    log_fsyncs: u64,
    dir_fsyncs: u64,
    /// Zeros when the repetition is untraced (no timing backend).
    backend: BackendCounts,
    log_bytes: u64,
    seals: u64,
    checkpoints: u64,
    /// `write_bytes` of this process so far.
    io_written: u64,
}

impl ClientWork for Work {
    fn run_op<const TRACED: bool>(&self, client: usize, op: Op) -> Result<(), ActionError> {
        let Op::Rmw { index } = op else {
            unreachable!("durable_commit draws read-modify-writes");
        };
        let slot = client * PER_CLIENT as usize + index as usize;
        let object = self.objects[slot];
        self.rt.atomic(|a| {
            span::<TRACED, _>(SpanName::ScopeModify, || {
                a.modify(object, |value: &mut Value| value.0 += 1)
            })
        })?;
        self.acked[slot].fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

pub fn run(params: &RepParams) -> RepOutput {
    let traced = params.mode == Mode::Traced;
    let scratch = ScratchDir::new("durable");
    let data = scratch.path().join("store");
    let disk = Arc::new(DiskBackend::open(&data).expect("open data directory"));
    let events = Arc::new(StoreEvents::default());
    let timed = traced.then(|| Arc::new(TimedBackend::new(disk.clone())));
    if traced {
        let bus = Arc::new(EventBus::new());
        bus.add_sink(events.clone());
        disk.install_obs(Obs::new(bus));
    }
    let backend: Arc<dyn PermanenceBackend> = match &timed {
        Some(timed) => timed.clone(),
        None => disk.clone(),
    };
    let rt = Runtime::builder().backend(backend).build();

    // one action creates every object: a single batch, not a thousand fsync pairs
    let initial: Value = (0, vec![0; PAD_BYTES]);
    let objects: Vec<ObjectId> = rt
        .atomic(|a| (0..OBJECTS).map(|_| a.create(&initial)).collect())
        .expect("create objects");

    let work = Work {
        rt: rt.clone(),
        objects,
        acked: (0..OBJECTS).map(|_| AtomicU32::new(0)).collect(),
    };
    let load = Load {
        stream: StreamKind::Rmw {
            objects: PER_CLIENT,
        },
        seed: params.seed,
        clients: CLIENTS,
        warmup_per_client: params.scaled(WARMUP_OPS),
        timed_per_client: params.scaled(TIMED_OPS),
        recorder: Latencies::exact,
    };
    let input_hash = load.input_hash();

    let read_counters = || StoreCounters {
        runtime: RuntimeCounters::read(&rt),
        log_fsyncs: disk.store().log_fsync_count(),
        dir_fsyncs: disk.store().dir_fsync_count(),
        backend: timed.as_ref().map(|t| t.counts()).unwrap_or_default(),
        log_bytes: events.log_bytes.load(Ordering::Relaxed),
        seals: events.seals.load(Ordering::Relaxed),
        checkpoints: events.checkpoints.load(Ordering::Relaxed),
        io_written: procfs::io_write_bytes(None).unwrap_or(0),
    };
    let mut before = None;
    let driven = if traced {
        drive::<true, _>(&work, &load, || before = Some(read_counters()))
    } else {
        drive::<false, _>(&work, &load, || before = Some(read_counters()))
    };
    let before = before.expect("drive reads the counters");
    let after = read_counters();

    // correctness: a fresh store over the same directory must hold
    // exactly the acknowledged commits
    let Work {
        rt: clients_rt,
        objects,
        acked,
    } = work;
    drop((rt, clients_rt));
    // fold the log first: a reopen would otherwise replay every batch
    // of the repetition one fsync at a time, several times the timed
    // region (replay is `crash_recovery`'s subject, not this check's)
    disk.store().checkpoint_now().expect("fold the log");
    drop(timed);
    drop(disk);
    let reopened = DiskStore::open(&data).expect("reopen data directory");
    let correct = objects.iter().zip(&acked).all(|(&object, acked)| {
        matches!(reopened.read(object), Ok(Some(state))
            if state.len() == VALUE_BYTES
                && codec::from_bytes::<Value>(&state).map(|v| v.0)
                    == Ok(u64::from(acked.load(Ordering::Relaxed))))
    });
    drop(reopened);

    let mut values = common_values(params, &driven, input_hash, correct);
    values.absorb(&before.runtime.layer_values(
        &after.runtime,
        &driven,
        store_us(driven.trace.as_ref()),
        0,
    ));
    let mut trace_json = None;
    if let Some(trace) = &driven.trace {
        let commits = (after.backend.commits - before.backend.commits) as f64;
        let user_bytes = (after.backend.user_bytes - before.backend.user_bytes) as f64;
        let commit = trace.of(SpanName::BackendCommit);
        values.set("store.commit_batch_us_p50", commit.p50_us());
        values.set("store.commit_batch_us_p99", commit.p99_us());
        values.set(
            "store.commit_share",
            commit.total_us() / trace.of(SpanName::Op).total_us(),
        );
        values.set(
            "store.fsyncs_per_commit",
            (after.log_fsyncs - before.log_fsyncs) as f64 / commits,
        );
        values.set(
            "store.dir_fsyncs_per_kcommit",
            (after.dir_fsyncs - before.dir_fsyncs) as f64 * 1e3 / commits,
        );
        values.set(
            "store.log_bytes_per_commit",
            (after.log_bytes - before.log_bytes) as f64 / commits,
        );
        values.set(
            "store.write_amp",
            after.io_written.saturating_sub(before.io_written) as f64 / user_bytes,
        );
        values.set("store.segments_sealed", (after.seals - before.seals) as f64);
        values.set(
            "store.checkpoints",
            (after.checkpoints - before.checkpoints) as f64,
        );
        values.set("store.ckpt_backlog_max", after.backend.backlog_max as f64);
        values.set(
            "store.backend_reads_per_op",
            (after.backend.reads - before.backend.reads) as f64 / driven.attempted as f64,
        );
        trace_json = Some(trace_file(params, trace, &values));
    }
    RepOutput { values, trace_json }
}
