//! `contended_structures`: two clients, in-memory backend, always-on
//! monitoring installed as `load_bench` installs it (event bus +
//! streaming watchdog + flight recorder, no file sink). Each operation
//! is one whole action structure — serializing action, glued chain or
//! top-level independent actions, in equal thirds — of two constituent
//! steps that move one unit between two counters drawn Zipf(0.99) from
//! 64 keys, lower key first.
//!
//! Chosen because the work is the lock table (conflicts, waits, colour
//! inheritance and release), the action tree and undo log, and the
//! structures crate, with the event bus on the path and no disk at all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chroma_base::ObjectId;
use chroma_core::{ActionError, PermanenceBackend, Runtime};
use chroma_obs::{EventBus, FlightRecorder, Watchdog};
use chroma_structures::{independent_sync, GluedChain, SerializingAction};

use super::{
    common_values, drive, retry_step, store_us, trace_file, ClientWork, Load, Mode, RepOutput,
    RepParams, RuntimeCounters,
};
use crate::gen::{Op, StreamKind, Structure};
use crate::span::{span, SpanName};
use crate::stats::Latencies;
use crate::timed_backend::TimedBackend;

const CLIENTS: usize = 2;
pub const KEYS: u8 = 64;
pub const THETA: f64 = 0.99;
/// Per client, at the reference run length.
const WARMUP_OPS: u64 = 2_000;
const TIMED_OPS: u64 = 39_000;

/// Flight-recorder capacity `load_bench` uses.
const RECORDER_EVENTS: usize = 65_536;

pub struct Work {
    pub rt: Runtime,
    pub counters: Vec<ObjectId>,
    pub retries: AtomicU64,
    entries_max: AtomicU64,
}

impl Work {
    pub fn new(rt: Runtime) -> Self {
        let counters = (0..KEYS)
            .map(|_| rt.create_object(&0i64))
            .collect::<Result<_, _>>()
            .expect("create counters");
        Work {
            rt,
            counters,
            retries: AtomicU64::new(0),
            entries_max: AtomicU64::new(0),
        }
    }

    /// Sum of all counters as committed; moves conserve it at zero.
    pub fn sum(&self) -> i64 {
        self.counters
            .iter()
            .map(|&c| self.rt.read_committed::<i64>(c).expect("read counter"))
            .sum()
    }

    /// One structure moving a unit `from` → `to`. The lower-indexed
    /// counter is always touched first, so the workload itself never
    /// builds a lock-order cycle.
    pub fn run_move<const TRACED: bool>(
        &self,
        structure: Structure,
        from: u8,
        to: u8,
    ) -> Result<(), ActionError> {
        let (first, second) = (from.min(to), from.max(to));
        let delta = |key: u8| if key == from { -1i64 } else { 1 };
        let (first_obj, first_delta) = (self.counters[usize::from(first)], delta(first));
        let (second_obj, second_delta) = (self.counters[usize::from(second)], delta(second));
        let retries = &self.retries;
        match structure {
            Structure::Serializing => span::<TRACED, _>(SpanName::Serializing, || {
                let action = SerializingAction::begin(&self.rt)?;
                retry_step(retries, || {
                    action.step(|s| s.modify(first_obj, |v: &mut i64| *v += first_delta))
                })?;
                retry_step(retries, || {
                    action.step(|s| s.modify(second_obj, |v: &mut i64| *v += second_delta))
                })?;
                action.end()
            }),
            Structure::Glued => span::<TRACED, _>(SpanName::Glued, || {
                let chain = GluedChain::begin(&self.rt, 1)?;
                retry_step(retries, || {
                    chain.step(|s| {
                        s.modify(first_obj, |v: &mut i64| *v += first_delta)?;
                        s.hand_over(first_obj)
                    })
                })?;
                retry_step(retries, || {
                    chain.step(|s| s.modify(second_obj, |v: &mut i64| *v += second_delta))
                })?;
                chain.end()
            }),
            Structure::Independent => span::<TRACED, _>(SpanName::Independent, || {
                self.rt.atomic(|a| {
                    retry_step(retries, || {
                        independent_sync(a, |b| {
                            b.modify(first_obj, |v: &mut i64| *v += first_delta)
                        })
                    })?;
                    retry_step(retries, || {
                        independent_sync(a, |b| {
                            b.modify(second_obj, |v: &mut i64| *v += second_delta)
                        })
                    })
                })
            }),
        }
    }
}

impl ClientWork for Work {
    fn run_op<const TRACED: bool>(&self, _client: usize, op: Op) -> Result<(), ActionError> {
        let Op::Move {
            structure,
            from,
            to,
        } = op
        else {
            unreachable!("contended_structures draws moves");
        };
        self.run_move::<TRACED>(structure, from, to)
    }

    fn sample(&self) {
        self.entries_max
            .fetch_max(self.rt.lock_entry_count() as u64, Ordering::Relaxed);
    }
}

pub fn run(params: &RepParams) -> RepOutput {
    let traced = params.mode == Mode::Traced;
    let monitored = params.mode != Mode::Twin;
    let timed = traced.then(|| {
        Arc::new(TimedBackend::new(
            Arc::new(chroma_core::LocalBackend::new()),
        ))
    });
    let mut builder = Runtime::builder();
    if let Some(timed) = &timed {
        builder = builder.backend(timed.clone() as Arc<dyn PermanenceBackend>);
    }
    let monitoring = monitored.then(|| {
        let bus = Arc::new(EventBus::new());
        let recorder = FlightRecorder::attach(&bus, RECORDER_EVENTS);
        let watchdog = Watchdog::attach(&bus);
        (bus, recorder, watchdog)
    });
    if let Some((bus, _, _)) = &monitoring {
        builder = builder.obs(bus.clone());
    }
    let work = Work::new(builder.build());

    let load = Load {
        stream: StreamKind::Move {
            keys: KEYS,
            theta: THETA,
        },
        seed: params.seed,
        clients: CLIENTS,
        warmup_per_client: params.scaled(WARMUP_OPS),
        timed_per_client: params.scaled(TIMED_OPS),
        recorder: Latencies::exact,
    };
    let input_hash = load.input_hash();

    let events_total = || {
        monitoring.as_ref().map_or(0, |(bus, _, _)| {
            bus.snapshot().counters.iter().map(|&(_, n)| n).sum::<u64>()
        })
    };
    let mut before = None;
    let snapshot = |slot: &mut Option<_>| {
        *slot = Some((
            RuntimeCounters::read(&work.rt),
            events_total(),
            work.retries.load(Ordering::Relaxed),
        ));
    };
    let driven = if traced {
        drive::<true, _>(&work, &load, || snapshot(&mut before))
    } else {
        drive::<false, _>(&work, &load, || snapshot(&mut before))
    };
    let (rt_before, events0, retries0) = before.expect("drive runs the snapshot");
    let rt_after = RuntimeCounters::read(&work.rt);
    let events = events_total() - events0;
    let retries = work.retries.load(Ordering::Relaxed) - retries0;
    let violations = monitoring
        .as_ref()
        .map_or(0, |(_, _, watchdog)| watchdog.violations());

    let correct = work.sum() == 0 && violations == 0;
    let mut values = common_values(params, &driven, input_hash, correct);
    values.absorb(&rt_before.layer_values(
        &rt_after,
        &driven,
        store_us(driven.trace.as_ref()),
        retries,
    ));
    values.set("obs.events_per_op", events as f64 / driven.attempted as f64);
    values.set("obs.watchdog_violations", violations as f64);
    let mut trace_json = None;
    if let Some(trace) = &driven.trace {
        values.set(
            "locks.entries_max",
            work.entries_max.load(Ordering::Relaxed) as f64,
        );
        values.set(
            "store.commit_share",
            trace.of(SpanName::BackendCommit).total_us() / trace.of(SpanName::Op).total_us(),
        );
        values.set(
            "structures.serializing_us_p50",
            trace.of(SpanName::Serializing).p50_us(),
        );
        values.set(
            "structures.glued_us_p50",
            trace.of(SpanName::Glued).p50_us(),
        );
        values.set(
            "structures.independent_us_p50",
            trace.of(SpanName::Independent).p50_us(),
        );
        values.absorb(&crate::probes::structures_and_locks(params.seed));
        trace_json = Some(trace_file(params, trace, &values));
    }
    RepOutput { values, trace_json }
}
