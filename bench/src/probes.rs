//! Single-thread probes: short loops that drive one layer's public
//! functions directly, with the workload's own value shapes and request
//! sequences, so a layer has a number of its own next to the spans.
//! They run only in traced repetitions, after the clients are done.
//! Their iteration counts are fixed — never scaled by `--seconds` — so
//! the counts they report repeat exactly.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use chroma_base::{ActionId, Colour, ColourSet, LockMode, ObjectId};
use chroma_core::Runtime;
use chroma_dist::{wire, Message, TxnId, Write};
use chroma_locks::{ColouredPolicy, FlatAncestry, LockTable};
use chroma_obs::{Event, EventBus, EventKind, EventSink};
use chroma_store::{codec, DiskStore, StoreBytes};

use crate::gen::{Op, OpStream, StreamKind, Structure};
use crate::metrics::Values;
use crate::workloads::{contended_structures, read_mostly};

const ITERATIONS: u64 = 20_000;

/// Mean nanoseconds per call of `f` over [`ITERATIONS`] calls.
fn mean_ns(mut f: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..ITERATIONS {
        f(i);
    }
    started.elapsed().as_nanos() as f64 / ITERATIONS as f64
}

/// `chroma-core`: an action that touches nothing — `begin_top` +
/// `commit`.
pub fn empty_action_ns() -> f64 {
    let rt = Runtime::builder().build();
    let colours = ColourSet::single(rt.default_colour());
    mean_ns(|_| {
        let action = rt.begin_top(colours).expect("begin empty action");
        rt.commit(action).expect("commit empty action");
    })
}

/// `chroma-locks` driven directly, and the paper's §5.2 comparison:
/// the three coloured structures against one plain nested atomic action
/// making the same two updates (experiment A5 as a tracked number).
pub fn structures_and_locks(seed: u64) -> Values {
    let mut v = Values::default();
    v.set("core.empty_action_ns", empty_action_ns());

    let table = LockTable::new(ColouredPolicy);
    let ancestry = FlatAncestry::new();
    let colour = Colour::from_index(0);
    let object = ObjectId::from_raw(1);
    v.set(
        "locks.probe_acquire_release_ns",
        mean_ns(|i| {
            let action = ActionId::from_raw(i + 1);
            table
                .acquire(&ancestry, action, object, colour, LockMode::Write, None)
                .expect("uncontended acquire");
            table.release_colour(action, colour);
            table.retire_action(action);
        }),
    );
    // a child's write lock passing to its parent at the child's commit
    let parent = ActionId::from_raw(ITERATIONS + 1);
    let mut inherit_ns = 0u128;
    for i in 0..ITERATIONS {
        let child = ActionId::from_raw(ITERATIONS + 2 + i);
        ancestry.set_parent(child, parent);
        table
            .acquire(&ancestry, child, object, colour, LockMode::Write, None)
            .expect("uncontended acquire");
        let at = Instant::now();
        table.inherit_colour(child, colour, parent);
        inherit_ns += at.elapsed().as_nanos();
        table.retire_action(child);
        ancestry.clear_parent(child);
        table.release_colour(parent, colour);
    }
    v.set(
        "locks.probe_inherit_ns",
        inherit_ns as f64 / ITERATIONS as f64,
    );

    // the workload's own move sequence, single client: no contention
    let work = contended_structures::Work::new(Runtime::builder().build());
    let stream = StreamKind::Move {
        keys: contended_structures::KEYS,
        theta: contended_structures::THETA,
    };
    let moves: Vec<(u8, u8)> = {
        let mut ops = OpStream::new(stream, seed, 0);
        (0..ITERATIONS)
            .map(|_| match ops.next_op() {
                Op::Move { from, to, .. } => (from, to),
                _ => unreachable!("move stream yields moves"),
            })
            .collect()
    };
    let coloured: f64 = [
        Structure::Serializing,
        Structure::Glued,
        Structure::Independent,
    ]
    .into_iter()
    .map(|structure| {
        mean_ns(|i| {
            let (from, to) = moves[i as usize];
            work.run_move::<false>(structure, from, to)
                .expect("uncontended structure");
        })
    })
    .sum::<f64>()
        / 3.0;
    let nested = mean_ns(|i| {
        let (from, to) = moves[i as usize];
        let (first, second) = (from.min(to), from.max(to));
        let (first, second) = (
            work.counters[usize::from(first)],
            work.counters[usize::from(second)],
        );
        work.rt
            .atomic(|a| {
                a.nested(|s| s.modify(first, |v: &mut i64| *v -= 1))?;
                a.nested(|s| s.modify(second, |v: &mut i64| *v += 1))
            })
            .expect("uncontended nested action");
    });
    v.set("structures.coloured_vs_nested_ratio", coloured / nested);
    v
}

/// Counts version-chain sweeps and what they reclaimed.
#[derive(Default)]
struct GcEvents {
    runs: AtomicU64,
    reclaimed: AtomicU64,
}

impl EventSink for GcEvents {
    fn record(&self, event: &Event) {
        if let EventKind::VersionGc { reclaimed, .. } = event.kind {
            self.runs.fetch_add(1, Ordering::Relaxed);
            self.reclaimed.fetch_add(reclaimed, Ordering::Relaxed);
        }
    }
}

/// `chroma-store` read side: the codec over the workload's value shape,
/// and version-chain GC over the first [`ITERATIONS`] operations of the
/// workload's own stream (replayed on one thread with an event bus, the
/// only place a sweep is visible from outside).
pub fn read_side(seed: u64) -> Values {
    let mut v = Values::default();
    v.set("core.empty_action_ns", empty_action_ns());

    let value: read_mostly::Value = (7, vec![0; read_mostly::PAD_BYTES]);
    let encoded = codec::to_bytes(&value).expect("encode value");
    v.set(
        "store.codec_encode_ns",
        mean_ns(|_| {
            std::hint::black_box(codec::to_bytes(std::hint::black_box(&value)).expect("encode"));
        }),
    );
    v.set(
        "store.codec_decode_ns",
        mean_ns(|_| {
            let back: read_mostly::Value =
                codec::from_bytes(std::hint::black_box(&encoded)).expect("decode");
            std::hint::black_box(back);
        }),
    );

    let gc = Arc::new(GcEvents::default());
    let bus = Arc::new(EventBus::new());
    bus.add_sink(gc.clone());
    let work = read_mostly::Work::preload(Runtime::builder().obs(bus).build(), read_mostly::GROUPS);
    let mut ops = OpStream::new(
        StreamKind::Group {
            groups: read_mostly::GROUPS,
        },
        seed,
        0,
    );
    let (runs0, reclaimed0) = (
        gc.runs.load(Ordering::Relaxed),
        gc.reclaimed.load(Ordering::Relaxed),
    );
    for _ in 0..ITERATIONS {
        let Op::Group { kind, group } = ops.next_op() else {
            unreachable!("group stream yields groups");
        };
        work.run_group::<false>(0, kind, group)
            .expect("single-client replay");
    }
    v.set(
        "store.gc_runs",
        (gc.runs.load(Ordering::Relaxed) - runs0) as f64,
    );
    v.set(
        "store.gc_reclaimed",
        (gc.reclaimed.load(Ordering::Relaxed) - reclaimed0) as f64,
    );
    v
}

/// `chroma-store` recovery side: how long `open` takes over `dir` when
/// there is nothing to replay — the floor under `store.open_us`. `dir`
/// is a directory an earlier recovery already folded; the probe folds
/// once more itself in case that recovery left a suffix.
pub fn open_without_replay(dir: &Path) -> f64 {
    const OPENS: u32 = 5;
    DiskStore::open(dir)
        .and_then(|store| store.checkpoint_now())
        .expect("fold the recovered directory");
    let mut total_us = 0.0;
    for _ in 0..OPENS {
        let at = Instant::now();
        let store = DiskStore::open(dir).expect("reopen folded directory");
        total_us += at.elapsed().as_secs_f64() * 1e6;
        drop(store);
    }
    total_us / f64::from(OPENS)
}

/// `chroma-dist` wire codec over one transaction's message mix (a
/// prepare carrying the write, a vote, a decision, an ack), and
/// `chroma-obs` JSONL encoding over `events` (the cluster run's own
/// trace). Per message and per event.
pub fn wire_and_jsonl(payload: &[u8], events: &[Event]) -> Values {
    let mut v = Values::default();
    let txn = TxnId(1);
    let mix = [
        Message::Prepare {
            txn,
            writes: vec![Write {
                object: ObjectId::from_raw(1_001),
                state: StoreBytes::from(payload.to_vec()),
            }],
            coordinator: chroma_base::NodeId::from_raw(1),
        },
        Message::VoteYes { txn },
        Message::Decision { txn, commit: true },
        Message::Ack { txn },
    ];
    let frames: Vec<Vec<u8>> = mix.iter().map(wire::encode).collect();
    v.set(
        "dist.wire_encode_ns",
        mean_ns(|i| {
            std::hint::black_box(wire::encode(std::hint::black_box(&mix[i as usize % 4])));
        }),
    );
    v.set(
        "dist.wire_decode_ns",
        mean_ns(|i| {
            std::hint::black_box(
                wire::decode(std::hint::black_box(&frames[i as usize % 4])).expect("decode frame"),
            );
        }),
    );
    if !events.is_empty() {
        v.set(
            "obs.jsonl_encode_ns",
            mean_ns(|i| {
                std::hint::black_box(events[i as usize % events.len()].to_json_line());
            }),
        );
    }
    v
}
