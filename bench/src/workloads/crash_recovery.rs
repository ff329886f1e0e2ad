//! `crash_recovery`: one client. Set-up builds a template directory as
//! a crashed process would leave it — 600 committed single-object
//! batches of 128-byte values over 1 024 objects, never checkpointed,
//! so all 600 are live log suffix. Each operation copies the template
//! (untimed) and then times `DiskBackend::open` → `Runtime` build → one
//! committed action: the time without service after a crash.
//!
//! Chosen because it is the fault-tolerance cost a user feels, it
//! drives the store through its read side (frame reader, CRC, decode,
//! install), and it is where a change that makes commits cheaper by
//! deferring work shows its price.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chroma_base::ObjectId;
use chroma_core::{DiskBackend, PermanenceBackend, Runtime};
use chroma_store::{DiskStore, DiskStoreOptions, StoreBytes};

use super::{common_values, sync_path, trace_file, Driven, Mode, RepOutput, RepParams, ScratchDir};
use crate::gen::{hash_stream, Fnv, Op, OpStream, StreamKind};
use crate::span::{self, span, SpanName, ThreadTrace, TraceSummary};
use crate::stats::Latencies;
use crate::timed_backend::TimedBackend;

const OBJECTS: u32 = 1_024;
pub const TEMPLATE_BATCHES: u64 = 600;
const VALUE_BYTES: usize = 128;
const WARMUP_OPS: u64 = 1;
/// At the reference run length.
const TIMED_OPS: u64 = 5;

const STREAM: StreamKind = StreamKind::Put { objects: OBJECTS };
/// Stream ids: the template's batches, and the post-recovery actions.
const TEMPLATE_STREAM: u64 = 0;
const ACTION_STREAM: u64 = 1;

fn object_id(index: u32) -> ObjectId {
    ObjectId::from_raw(u64::from(index) + 1)
}

fn put_of(op: Op) -> (u32, u8) {
    let Op::Put { object, fill } = op else {
        unreachable!("crash_recovery draws puts");
    };
    (object, fill)
}

/// Commits the template's batches into `dir` with the checkpointer off
/// and returns the last fill byte written per object.
pub fn build_template(dir: &Path, seed: u64) -> Vec<Option<u8>> {
    let store = DiskStore::open_with(
        dir,
        DiskStoreOptions {
            auto_checkpoint: false,
            ..DiskStoreOptions::default()
        },
    )
    .expect("open template directory");
    let mut model = vec![None; OBJECTS as usize];
    let mut stream = OpStream::new(STREAM, seed, TEMPLATE_STREAM);
    for _ in 0..TEMPLATE_BATCHES {
        let (object, fill) = put_of(stream.next_op());
        store
            .commit_batch(vec![(
                object_id(object),
                StoreBytes::from(vec![fill; VALUE_BYTES]),
            )])
            .expect("commit template batch");
        model[object as usize] = Some(fill);
    }
    model
}

/// Copies the template and makes the copy durable, as a crashed
/// process's directory is: otherwise the first fsync of the timed
/// recovery would pay for writing the copy back.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy target");
    for entry in std::fs::read_dir(from).expect("list template").flatten() {
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("copy template file");
            sync_path(&target);
        }
    }
    sync_path(to);
}

/// One recovery: open, build the runtime, commit one action. Returns
/// the time it took, whether the recovered state was right, and how
/// many batches the open replayed.
fn recover_once<const TRACED: bool>(
    dir: &Path,
    model: &[Option<u8>],
    (object, fill): (u32, u8),
) -> (Duration, bool, u64) {
    let started = Instant::now();
    let (disk, rt, outcome) = span::<TRACED, _>(SpanName::Op, || {
        let disk = Arc::new(span::<TRACED, _>(SpanName::StoreOpen, || {
            DiskBackend::open(dir).expect("recover data directory")
        }));
        let backend: Arc<dyn PermanenceBackend> = if TRACED {
            Arc::new(TimedBackend::new(disk.clone()))
        } else {
            disk.clone()
        };
        let rt = Runtime::builder().backend(backend).build();
        let outcome = rt.atomic(|a| {
            let colour = a.default_colour();
            span::<TRACED, _>(SpanName::ScopeWrite, || {
                a.write_raw_in(
                    colour,
                    object_id(object),
                    StoreBytes::from(vec![fill; VALUE_BYTES]),
                )
            })
        });
        (disk, rt, outcome)
    });
    let took = started.elapsed();

    let mut expected = model.to_vec();
    expected[object as usize] = Some(fill);
    let state_ok = expected.iter().enumerate().all(|(index, fill)| {
        let stored = disk.read(object_id(index as u32));
        match fill {
            Some(fill) => stored.as_deref() == Some(&[*fill; VALUE_BYTES][..]),
            None => stored.is_none(),
        }
    });
    let replayed = disk.store().replay_stats().batches;
    let correct = outcome.is_ok() && state_ok && replayed == TEMPLATE_BATCHES;
    drop(rt);
    (took, correct, replayed)
}

pub fn run(params: &RepParams) -> RepOutput {
    let traced = params.mode == Mode::Traced;
    let scratch = ScratchDir::new("recovery");
    let template = scratch.path().join("template");
    let model = build_template(&template, params.seed);

    let timed_ops = params.scaled(TIMED_OPS);
    let mut input_hash = Fnv::default();
    hash_stream(
        &mut input_hash,
        STREAM,
        params.seed,
        TEMPLATE_STREAM,
        TEMPLATE_BATCHES,
    );
    hash_stream(
        &mut input_hash,
        STREAM,
        params.seed,
        ACTION_STREAM,
        WARMUP_OPS + timed_ops,
    );
    let input_hash = input_hash.finish();
    let mut actions = OpStream::new(STREAM, params.seed, ACTION_STREAM);
    // Every recovery gets a directory of its own, and all are removed
    // together when the repetition ends: on a filesystem mounted with
    // `discard`, deleting the previous copy here would queue its blocks'
    // discards onto the journal commits of the recovery being timed.
    let mut recoveries = 0;
    let crashed_dir = |n: u64| scratch.path().join(format!("crashed-{n}"));
    let mut recover = |traced_op: bool| {
        recoveries += 1;
        let work_dir = crashed_dir(recoveries);
        copy_tree(&template, &work_dir);
        let put = put_of(actions.next_op());
        if traced_op {
            recover_once::<true>(&work_dir, &model, put)
        } else {
            recover_once::<false>(&work_dir, &model, put)
        }
    };

    let mut correct = true;
    for _ in 0..WARMUP_OPS {
        correct &= recover(false).1;
    }
    if traced {
        span::install(ThreadTrace::new(0, Instant::now()));
    }
    let timed_from = Instant::now();
    let mut latencies = Latencies::exact();
    let mut failed = 0;
    let mut replayed = 0;
    for _ in 0..timed_ops {
        let (took, ok, batches) = recover(traced);
        replayed = batches;
        latencies.record(took.as_nanos() as u64);
        failed += u64::from(!ok);
    }
    correct &= failed == 0;
    latencies.seal();
    let busy = Duration::from_nanos(latencies.total());
    let driven = Driven {
        latencies,
        attempted: timed_ops,
        failed,
        // copies between operations are not service time
        wall: busy,
        timed_from,
        client_time: busy,
        trace: span::take().map(|t| TraceSummary::merge(vec![t])),
    };

    let mut values = common_values(params, &driven, input_hash, correct);
    let mut trace_json = None;
    if let Some(trace) = &driven.trace {
        let open = trace.of(SpanName::StoreOpen);
        let open_us = open.total_us() / open.count as f64;
        let noreplay_us = crate::probes::open_without_replay(&crashed_dir(WARMUP_OPS + timed_ops));
        values.set("store.open_us", open_us);
        values.set("store.open_noreplay_us", noreplay_us);
        values.set(
            "store.replay_us_per_batch",
            (open_us - noreplay_us).max(0.0) / replayed.max(1) as f64,
        );
        values.set("store.replayed_batches", replayed as f64);
        let commit = trace.of(SpanName::BackendCommit);
        values.set("store.commit_batch_us_p50", commit.p50_us());
        values.set(
            "store.commit_share",
            commit.total_us() / trace.of(SpanName::Op).total_us(),
        );
        trace_json = Some(trace_file(params, trace, &values));
    }
    RepOutput { values, trace_json }
}
