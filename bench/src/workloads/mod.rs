//! The five workloads and what they share: the repetition parameters,
//! the closed-loop client driver, the store-event counter and the
//! scratch-directory guard.
//!
//! Every workload does a **fixed amount of work**: the operation counts
//! below are constants at the reference run length [`REF_SECONDS`], and
//! `--seconds` only scales them (so that the benchmark's contract can
//! choose how long a run is without any run being timed by a clock).

pub mod cluster_2pc;
pub mod contended_structures;
pub mod crash_recovery;
pub mod durable_commit;
pub mod read_mostly;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use chroma_core::{ActionError, Runtime};
use chroma_obs::{Event, EventKind, EventSink};

use crate::gen::{stream_hash, Op, OpStream, StreamKind};
use crate::metrics::{self, Values};
use crate::span::{self, SpanName, ThreadTrace, TraceSummary};
use crate::stats::Latencies;

/// The run length the operation-count constants are sized for; equal
/// to `run_seconds` in `BENCHMARK.json`.
pub const REF_SECONDS: u64 = 12;

/// Deadlock-victim retries before an operation counts as failed.
pub const RETRIES: usize = 4;

/// In running order: the two in-memory workloads first, then the three
/// that write to disk back to back. A filesystem journal that has been
/// busy answers `fsync` more slowly than one that has idled, so a
/// disk-bound workload measured right after an in-memory one would see
/// a different disk than the same workload measured after its peers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ContendedStructures,
    ReadMostly,
    DurableCommit,
    Cluster2pc,
    CrashRecovery,
}

impl Workload {
    /// Declaration order (`ALL[w as usize] == w`).
    pub const ALL: [Workload; 5] = [
        Workload::ContendedStructures,
        Workload::ReadMostly,
        Workload::DurableCommit,
        Workload::Cluster2pc,
        Workload::CrashRecovery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DurableCommit => "durable_commit",
            Workload::ContendedStructures => "contended_structures",
            Workload::ReadMostly => "read_mostly",
            Workload::Cluster2pc => "cluster_2pc",
            Workload::CrashRecovery => "crash_recovery",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How a repetition is instrumented.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// No tracing code on the path: the end-to-end numbers.
    Untraced,
    /// Spans, the timing backend and the layer probes: the per-layer
    /// numbers.
    Traced,
    /// `contended_structures` without its event bus, to price the
    /// always-on monitoring.
    Twin,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Untraced => "untraced",
            Mode::Traced => "traced",
            Mode::Twin => "twin",
        }
    }

    pub fn parse(name: &str) -> Option<Mode> {
        [Mode::Untraced, Mode::Traced, Mode::Twin]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

/// Everything that determines a repetition.
#[derive(Clone, Copy, Debug)]
pub struct RepParams {
    pub workload: Workload,
    pub mode: Mode,
    pub seed: u64,
    /// Work is `constant * scale_num / scale_den`.
    pub scale_num: u64,
    pub scale_den: u64,
    /// When the repetition's process started measuring; set-up time
    /// counts from here.
    pub started: Instant,
}

impl RepParams {
    /// A constant sized for [`REF_SECONDS`], scaled to this run.
    pub fn scaled(&self, at_reference: u64) -> u64 {
        (at_reference * self.scale_num / self.scale_den).max(1)
    }
}

/// What a repetition hands back: its numbers and, when traced, the
/// trace file's content.
pub struct RepOutput {
    pub values: Values,
    pub trace_json: Option<String>,
}

/// Runs one repetition of `params.workload` on fresh state.
pub fn run_rep(params: &RepParams) -> RepOutput {
    match params.workload {
        Workload::DurableCommit => durable_commit::run(params),
        Workload::ContendedStructures => contended_structures::run(params),
        Workload::ReadMostly => read_mostly::run(params),
        Workload::Cluster2pc => cluster_2pc::run(params),
        Workload::CrashRecovery => crash_recovery::run(params),
    }
}

/// A scratch directory under `std::env::temp_dir()`, removed on drop —
/// also when the repetition panics.
pub struct ScratchDir(PathBuf);

/// `fsync` on a file or directory.
pub fn sync_path(path: &Path) {
    std::fs::File::open(path)
        .and_then(|file| file.sync_all())
        .expect("fsync scratch path");
}

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("chroma-bench-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        // commits the filesystem journal: what the previous
        // repetition's clean-up left pending is written now, in
        // set-up, not during this repetition's timed fsyncs
        sync_path(&dir);
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Counts what a `DiskStore` reports on an event bus: the traced
/// repetitions install a bus carrying only this sink on the *backend*
/// (never on the runtime), because group sizes, seals and checkpoints
/// have no other public counter.
#[derive(Default)]
pub struct StoreEvents {
    pub log_bytes: AtomicU64,
    pub groups: AtomicU64,
    pub seals: AtomicU64,
    pub checkpoints: AtomicU64,
}

impl EventSink for StoreEvents {
    fn record(&self, event: &Event) {
        match event.kind {
            EventKind::DiskGroupCommit { bytes, .. } => {
                self.log_bytes.fetch_add(bytes, Ordering::Relaxed);
                self.groups.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::SegmentSeal { .. } => {
                self.seals.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::CheckpointEnd { .. } => {
                self.checkpoints.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// A workload's operation executor, shared by its client threads.
pub trait ClientWork: Sync {
    /// Runs one generated operation to completion.
    fn run_op<const TRACED: bool>(&self, client: usize, op: Op) -> Result<(), ActionError>;

    /// Called every 64th operation of a traced repetition, for gauges
    /// that have no event (lock-table occupancy).
    fn sample(&self) {}
}

/// How a workload loads its clients.
pub struct Load {
    pub stream: StreamKind,
    pub seed: u64,
    pub clients: usize,
    /// Operations per client before the clock starts; charged to
    /// set-up.
    pub warmup_per_client: u64,
    /// Operations per client under the clock.
    pub timed_per_client: u64,
    /// Fresh recorder for one client's latencies.
    pub recorder: fn() -> Latencies,
}

impl Load {
    pub fn input_hash(&self) -> u64 {
        stream_hash(
            self.stream,
            self.seed,
            self.clients as u64,
            self.warmup_per_client + self.timed_per_client,
        )
    }
}

/// What the clients measured.
pub struct Driven {
    pub latencies: Latencies,
    pub attempted: u64,
    pub failed: u64,
    /// Barrier release to last client done.
    pub wall: Duration,
    /// When the clock started (end of set-up).
    pub timed_from: Instant,
    /// Sum over clients of their own timed loop durations.
    pub client_time: Duration,
    pub trace: Option<TraceSummary>,
}

/// Closed loop: each client runs its warm-up prefix, all meet at a
/// barrier, `before_timed` runs on the caller's thread (to snapshot
/// counters), then each client issues its next operation as soon as
/// the previous one completes.
pub fn drive<const TRACED: bool, W: ClientWork>(
    work: &W,
    load: &Load,
    before_timed: impl FnOnce(),
) -> Driven {
    let warmed = Barrier::new(load.clients + 1);
    let go = Barrier::new(load.clients + 1);
    let origin = Instant::now();
    struct ClientOut {
        latencies: Latencies,
        failed: u64,
        elapsed: Duration,
        trace: Option<ThreadTrace>,
    }
    let (outs, timed_from, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..load.clients)
            .map(|client| {
                let (warmed, go) = (&warmed, &go);
                scope.spawn(move || {
                    let mut stream = OpStream::new(load.stream, load.seed, client as u64);
                    let mut failed = 0;
                    for _ in 0..load.warmup_per_client {
                        let op = stream.next_op();
                        failed += u64::from(work.run_op::<false>(client, op).is_err());
                    }
                    warmed.wait();
                    go.wait();
                    if TRACED {
                        span::install(ThreadTrace::new(client as u32, origin));
                    }
                    let mut latencies = (load.recorder)();
                    let begun = Instant::now();
                    for i in 0..load.timed_per_client {
                        let op = stream.next_op();
                        let at = Instant::now();
                        let result = span::span::<TRACED, _>(SpanName::Op, || {
                            work.run_op::<TRACED>(client, op)
                        });
                        latencies.record(at.elapsed().as_nanos() as u64);
                        failed += u64::from(result.is_err());
                        if TRACED && i % 64 == 0 {
                            work.sample();
                        }
                    }
                    ClientOut {
                        latencies,
                        failed,
                        elapsed: begun.elapsed(),
                        trace: span::take(),
                    }
                })
            })
            .collect();
        warmed.wait();
        before_timed();
        let timed_from = Instant::now();
        go.wait();
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (outs, timed_from, timed_from.elapsed())
    });
    let mut latencies = (load.recorder)();
    let mut failed = 0;
    let mut client_time = Duration::ZERO;
    let mut traces = Vec::new();
    for out in outs {
        latencies.merge(&out.latencies);
        failed += out.failed;
        client_time += out.elapsed;
        traces.extend(out.trace);
    }
    latencies.seal();
    Driven {
        latencies,
        attempted: load.timed_per_client * load.clients as u64,
        failed,
        wall,
        timed_from,
        client_time,
        trace: TRACED.then(|| TraceSummary::merge(traces)),
    }
}

/// The numbers every workload derives the same way from its clients:
/// the four end-to-end metrics (peak RSS is this process's own unless
/// the workload overrides it), the bookkeeping, and the `driver.*`
/// per-layer metrics.
pub fn common_values(
    params: &RepParams,
    driven: &Driven,
    input_hash: u64,
    correct: bool,
) -> Values {
    let mut v = Values::default();
    let ops = driven.attempted as f64;
    v.set("throughput_ops_s", ops / driven.wall.as_secs_f64());
    v.set("latency_p50_us", driven.latencies.quantile(0.5) / 1e3);
    v.set("peak_rss_mb", crate::procfs::vm_hwm_mb(None).unwrap_or(0.0));
    v.set(
        "setup_s",
        driven
            .timed_from
            .duration_since(params.started)
            .as_secs_f64(),
    );
    v.set(metrics::ATTEMPTED, ops);
    v.set(metrics::FAILED, driven.failed as f64);
    v.set(metrics::CORRECT, f64::from(u8::from(correct)));
    v.set(metrics::TIMED_WALL_S, driven.wall.as_secs_f64());
    v.set(
        "driver.latency_p99_us",
        driven.latencies.quantile(0.99) / 1e3,
    );
    v.set("driver.latency_max_us", driven.latencies.max() as f64 / 1e3);
    v.set("driver.samples", driven.latencies.count() as f64);
    v.set("driver.input_hash", metrics::hash_as_number(input_hash));
    v
}

/// `chroma-core` and `chroma-locks` counters over the timed region,
/// read from the runtime's public gauges before and after.
pub struct RuntimeCounters {
    stats: chroma_core::RuntimeStats,
    waits: chroma_locks::WaitStats,
}

impl RuntimeCounters {
    pub fn read(rt: &Runtime) -> Self {
        RuntimeCounters {
            stats: rt.stats(),
            waits: rt.lock_wait_stats(),
        }
    }

    /// Per-layer metrics for the region between `self` and `after`.
    /// `store_us` is the time the backend spans covered, so that
    /// `core.op_self_us` is the operation span minus its store and
    /// lock-wait children.
    pub fn layer_values(
        &self,
        after: &RuntimeCounters,
        driven: &Driven,
        store_us: f64,
        retries: u64,
    ) -> Values {
        let mut v = Values::default();
        let ops = driven.attempted as f64;
        let begun = (after.stats.begun - self.stats.begun) as f64;
        v.set("core.actions_begun", begun);
        v.set("core.actions_per_op", begun / ops);
        v.set(
            "core.actions_committed",
            (after.stats.committed - self.stats.committed) as f64,
        );
        v.set(
            "core.actions_aborted",
            (after.stats.aborted - self.stats.aborted) as f64,
        );
        v.set(
            "core.deadlock_victims",
            (after.stats.deadlock_victims - self.stats.deadlock_victims) as f64,
        );
        v.set("core.retries_per_op", retries as f64 / ops);
        let wait_us = (after.waits.total_wait_micros - self.waits.total_wait_micros) as f64;
        v.set("locks.waits", (after.waits.waits - self.waits.waits) as f64);
        v.set("locks.wait_us_total", wait_us);
        v.set(
            "locks.wait_share",
            wait_us / (driven.client_time.as_secs_f64() * 1e6),
        );
        if let Some(trace) = &driven.trace {
            let op_us = trace.of(SpanName::Op).total_us();
            v.set(
                "core.op_self_us",
                (op_us - store_us - wait_us).max(0.0) / ops,
            );
        }
        v
    }
}

/// Retries `step` while it is chosen as deadlock victim, with the
/// runtime's own growing back-off. The structures' constituent steps
/// are individually permanent, so the retry must be per step: retrying
/// a whole structure would apply an already-committed step twice.
pub fn retry_step<R>(
    retries: &AtomicU64,
    mut step: impl FnMut() -> Result<R, ActionError>,
) -> Result<R, ActionError> {
    let mut attempt = 0;
    loop {
        match step() {
            Err(e) if e.is_deadlock_victim() && attempt + 1 < RETRIES => {
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(50 << attempt));
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Total time the backend spans covered, in µs.
pub fn store_us(trace: Option<&TraceSummary>) -> f64 {
    trace.map_or(0.0, |t| {
        t.of(SpanName::BackendCommit).total_us() + t.of(SpanName::BackendRead).total_us()
    })
}

/// The trace file of a traced repetition: the spans, and next to them
/// every per-layer value measured at the same boundaries.
pub fn trace_file(params: &RepParams, trace: &TraceSummary, values: &Values) -> String {
    let counts: Vec<(String, f64)> = values
        .0
        .iter()
        .filter(|(name, _)| name.contains('.') && !name.starts_with("rep."))
        .map(|(name, value)| (name.clone(), *value))
        .collect();
    trace.to_json(params.workload.name(), &counts)
}
