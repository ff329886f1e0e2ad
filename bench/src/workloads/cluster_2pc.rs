//! `cluster_2pc`: three real `chroma-node` processes on loopback — a
//! coordinator driving a fixed number of two-phase commits, one
//! outstanding at a time, through two workers — each with its own data
//! directory and JSONL trace. The runner timestamps the coordinator's
//! `begin txn i` / `txn i commit` stdout lines.
//!
//! Chosen because it is the second end-to-end path and the only
//! workload where `chroma-dist` (handlers, wire codec, masking layer),
//! `chroma-node` (the `persist_durable` barrier) and the JSONL sink do
//! the work. The barrier rewrites the node's whole state on every
//! dispatch, so a transaction costs more the more have run before it:
//! only a fixed transaction count makes that a repeatable cost.
//!
//! The traced repetition hosts the same three nodes inside the
//! benchmark process — same `Node`, `TcpTransport` over loopback and
//! `dispatch_with`, with the benchmark's own timed barrier — where the
//! calls into `chroma-dist` can carry spans, and runs the same
//! transactions once more on `Sim` so that the cost of the real
//! transport and disk is a ratio.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chroma_base::{NodeId, ObjectId};
use chroma_dist::{
    dispatch_with, wire, Message, Node, Sim, TcpConfig, TcpTransport, TimerTag, Transport,
    TransportEvent, TxnId, Write,
};
use chroma_obs::{merge_trace_files, AppendJsonlSink, EventBus, Obs, Observable, TraceAuditor};
use chroma_store::{DiskStore, DiskStoreOptions, StoreBytes};

use super::{
    common_values, trace_file, Driven, Mode, RepOutput, RepParams, ScratchDir, StoreEvents,
};
use crate::gen::Fnv;
use crate::metrics::{hash_as_number, Values, ATTEMPTED, CORRECT, FAILED};
use crate::procfs;
use crate::span::{self, SpanName, ThreadTrace, TraceSummary};
use crate::stats::Latencies;

/// Transactions before the clock starts, and under it, at the reference
/// run length.
const WARMUP_TXNS: u64 = 20;
const TIMED_TXNS: u64 = 80;
/// The object-id and value vocabulary of `chroma-node`'s coordinator.
const APP_OBJECT_BASE: u64 = 1_000;
/// Long enough after the last outcome to read the coordinator's `/proc`
/// entries before it exits; outside the timed region.
const LINGER_MS: u64 = 250;
/// How long the in-process host keeps dispatching after its last
/// transaction, so every retry timer the transactions armed has fired
/// and the per-transaction counts are complete.
const DRAIN: Duration = Duration::from_millis(300);
/// How long the in-process coordinator drives one transaction, as
/// `chroma-node`'s does.
const TXN_DEADLINE: Duration = Duration::from_secs(30);

fn txn_object(txn: u64) -> ObjectId {
    ObjectId::from_raw(APP_OBJECT_BASE + txn)
}

fn txn_value(seed: u64, txn: u64) -> Vec<u8> {
    format!("v{txn}-s{seed}").into_bytes()
}

/// The input is the transaction count and the seed the values carry.
fn input_hash(seed: u64, txns: u64) -> u64 {
    let mut hash = Fnv::default();
    for txn in 1..=txns {
        hash.word(txn_object(txn).as_raw());
        for byte in txn_value(seed, txn) {
            hash.word(u64::from(byte));
        }
    }
    hash.finish()
}

/// Three loopback addresses nobody listens on right now, from
/// `bind(:0)`.
fn free_addrs() -> [SocketAddr; 3] {
    let holds: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port"))
        .collect();
    [0, 1, 2].map(|i| holds[i].local_addr().expect("bound address"))
}

/// `chroma-node` is built next to the benchmark's own executable.
fn node_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    let bin = exe.with_file_name("chroma-node");
    assert!(
        bin.exists(),
        "{} not found: build it with `cargo build --release --offline -p chroma-node` \
         into the same target directory (bench/run.sh does)",
        bin.display()
    );
    bin
}

/// Kills and reaps the child on every exit path, a panic included.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

struct Layout {
    dir: PathBuf,
    addrs: [SocketAddr; 3],
}

impl Layout {
    fn data(&self, node: usize) -> PathBuf {
        self.dir.join(format!("n{node}"))
    }

    fn trace(&self, node: usize) -> PathBuf {
        self.dir.join(format!("n{node}.jsonl"))
    }

    fn command(&self, role: &str, node: usize) -> Command {
        let mut cmd = Command::new(node_binary());
        cmd.arg(role)
            .args(["--id", &node.to_string()])
            .args(["--listen", &self.addrs[node - 1].to_string()]);
        for peer in (1..=3).filter(|&p| p != node) {
            cmd.args(["--peer", &format!("{peer}={}", self.addrs[peer - 1])]);
        }
        cmd.arg("--data")
            .arg(self.data(node))
            .arg("--trace")
            .arg(self.trace(node))
            .stdin(Stdio::piped()) // held open: a worker exits when it closes
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        cmd
    }
}

/// Spawns a node and waits for its `ready` line.
fn spawn_ready(mut cmd: Command) -> (Reaped, BufReader<ChildStdout>) {
    let mut child = Reaped(cmd.spawn().expect("spawn chroma-node"));
    let mut stdout = BufReader::new(child.0.stdout.take().expect("piped stdout"));
    let mut ready = String::new();
    stdout.read_line(&mut ready).expect("read ready line");
    assert!(ready.contains("ready"), "chroma-node said: {ready:?}");
    (child, stdout)
}

/// What `/proc` says about one node process.
#[derive(Default, Clone, Copy)]
struct ProcSample {
    rss_mb: f64,
    cpu_ms: f64,
    write_bytes: f64,
}

impl ProcSample {
    fn of(child: &Reaped) -> Self {
        let pid = Some(child.0.id());
        ProcSample {
            rss_mb: procfs::vm_hwm_mb(pid).unwrap_or(0.0),
            cpu_ms: procfs::cpu_ms(pid).unwrap_or(0.0),
            write_bytes: procfs::io_write_bytes(pid).unwrap_or(0) as f64,
        }
    }
}

/// Every committed transaction's value is in the worker's store.
fn store_holds(data: &Path, seed: u64, committed: &[u64]) -> bool {
    let Ok(store) = DiskStore::open(data) else {
        return false;
    };
    committed.iter().all(|&txn| {
        matches!(store.read(txn_object(txn)), Ok(Some(state))
            if state.as_ref() == txn_value(seed, txn).as_slice())
    })
}

/// The merged per-node traces pass the offline auditor (R1–R11).
fn traces_audit_clean(traces: &[PathBuf]) -> bool {
    match merge_trace_files(traces) {
        Ok(merged) if !merged.events.is_empty() => {
            let report = TraceAuditor::audit_events(&merged.events);
            if !report.is_clean() {
                eprintln!("cluster_2pc: merged trace does not audit clean:\n{report}");
            }
            report.is_clean()
        }
        _ => false,
    }
}

/// The process deployment: the end-to-end numbers and `node.*`.
fn run_processes(params: &RepParams) -> Values {
    let scratch = ScratchDir::new("cluster");
    let layout = Layout {
        dir: scratch.path().to_path_buf(),
        addrs: free_addrs(),
    };
    let warmup = params.scaled(WARMUP_TXNS);
    let timed = params.scaled(TIMED_TXNS);
    let txns = warmup + timed;

    let spawn_started = Instant::now();
    let (worker2, _out2) = spawn_ready(layout.command("worker", 2));
    let (worker3, _out3) = spawn_ready(layout.command("worker", 3));
    let mut coordinator = layout.command("coordinator", 1);
    coordinator
        .args(["--txns", &txns.to_string()])
        .args(["--seed", &params.seed.to_string()])
        .args(["--linger-ms", &LINGER_MS.to_string()]);
    let (mut coordinator, stdout) = spawn_ready(coordinator);
    let spawn_ready_ms = spawn_started.elapsed().as_secs_f64() * 1e3;

    let mut begun_at: HashMap<u64, Instant> = HashMap::new();
    let mut timed_from = None;
    let mut last_outcome_at = Instant::now();
    let mut latencies = Latencies::exact();
    let mut committed = Vec::new();
    let mut samples = [ProcSample::default(); 3];
    for line in stdout.lines() {
        let Ok(line) = line else { break };
        let now = Instant::now();
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["begin", "txn", n, ..] => {
                let n: u64 = n.parse().expect("txn number");
                begun_at.insert(n, now);
                if n == warmup + 1 {
                    timed_from = Some(now);
                }
            }
            ["txn", n, verdict, ..] => {
                let n: u64 = n.parse().expect("txn number");
                if *verdict == "commit" {
                    committed.push(n);
                }
                if n > warmup {
                    if let Some(begun) = begun_at.get(&n) {
                        latencies.record(now.duration_since(*begun).as_nanos() as u64);
                    }
                    last_outcome_at = now;
                }
                if n == txns {
                    // the coordinator lingers LINGER_MS before it
                    // exits: its /proc entries are still whole
                    samples = [
                        ProcSample::of(&coordinator),
                        ProcSample::of(&worker2),
                        ProcSample::of(&worker3),
                    ];
                }
            }
            _ => {}
        }
    }
    coordinator.0.wait().expect("reap coordinator");
    // closing a worker's stdin asks it to exit; Reaped kills if it won't
    for mut worker in [worker2, worker3] {
        drop(worker.0.stdin.take());
        worker.0.wait().expect("reap worker");
    }

    // a coordinator that printed fewer outcomes, or an abort, is failed
    // operations — not a crash of the runner
    let timed_committed = committed.iter().filter(|&&n| n > warmup).count() as u64;
    let failed = timed - timed_committed;
    let timed_from = timed_from.unwrap_or(last_outcome_at);
    let trace_paths = [layout.trace(1), layout.trace(2), layout.trace(3)];
    let trace_bytes: u64 = trace_paths
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
    // reopening a worker's store replays its whole mirror history, the
    // slowest step of the repetition: do both at once
    let stores_hold = std::thread::scope(|scope| {
        let checks = [2, 3].map(|node| {
            let (data, committed) = (layout.data(node), &committed);
            scope.spawn(move || store_holds(&data, params.seed, committed))
        });
        checks
            .into_iter()
            .all(|check| check.join().expect("store check panicked"))
    });
    let correct = committed.len() as u64 == txns && stores_hold && traces_audit_clean(&trace_paths);

    latencies.seal();
    let wall = last_outcome_at.duration_since(timed_from);
    let driven = Driven {
        latencies,
        attempted: timed,
        failed,
        wall,
        timed_from,
        client_time: wall,
        trace: None,
    };
    let mut values = common_values(params, &driven, input_hash(params.seed, txns), correct);
    values.set("peak_rss_mb", samples.iter().map(|s| s.rss_mb).sum());
    let per_txn = |total: f64| total / txns as f64;
    values.set(
        "node.cpu_ms_per_txn",
        per_txn(samples.iter().map(|s| s.cpu_ms).sum()),
    );
    values.set(
        "node.disk_write_bytes_per_txn",
        per_txn(samples.iter().map(|s| s.write_bytes).sum()),
    );
    values.set("node.trace_bytes_per_txn", per_txn(trace_bytes as f64));
    values.set("node.rss_mb_coordinator", samples[0].rss_mb);
    values.set(
        "node.rss_mb_worker",
        samples[1].rss_mb.max(samples[2].rss_mb),
    );
    values.set("node.spawn_ready_ms", spawn_ready_ms);
    values
}

/// What the traced host counts at the transport boundary.
#[derive(Default)]
struct TransportCounts {
    msgs: AtomicU64,
    wire_bytes: AtomicU64,
    persists: AtomicU64,
}

/// A [`Transport`] that forwards to the real one, with spans around
/// `apply_effects` and `poll` and counts of what is sent.
struct Counting<'a> {
    inner: TcpTransport,
    counts: &'a TransportCounts,
    /// Time this endpoint spent inside `poll`.
    polled: Duration,
}

impl Transport for Counting<'_> {
    fn local(&self) -> NodeId {
        self.inner.local()
    }
    fn obs(&self) -> Obs {
        self.inner.obs()
    }
    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }
    fn send(&mut self, to: NodeId, msg: Message) {
        self.counts.msgs.fetch_add(1, Ordering::Relaxed);
        self.counts
            .wire_bytes
            .fetch_add(wire::encode(&msg).len() as u64, Ordering::Relaxed);
        self.inner.send(to, msg);
    }
    fn set_timer(&mut self, delay_us: u64, tag: TimerTag) {
        self.inner.set_timer(delay_us, tag);
    }
    fn connect(&mut self, peer: NodeId) {
        self.inner.connect(peer);
    }
    fn disconnect(&mut self, peer: NodeId) {
        self.inner.disconnect(peer);
    }
    fn poll(&mut self, timeout: Option<Duration>) -> Option<TransportEvent> {
        span::enter(SpanName::Poll);
        let at = Instant::now();
        let event = self.inner.poll(timeout);
        self.polled += at.elapsed();
        span::exit();
        event
    }
    fn apply_effects(&mut self, effects: Vec<chroma_dist::Effect>) {
        span::enter(SpanName::ApplyEffects);
        for effect in effects {
            match effect {
                chroma_dist::Effect::Send { to, msg } => self.send(to, msg),
                chroma_dist::Effect::SetTimer { delay, tag } => self.set_timer(delay, tag),
            }
        }
        span::exit();
    }
}

/// The transaction an event belongs to, to key its spans by.
fn txn_of(event: &TransportEvent) -> Option<u64> {
    match event {
        TransportEvent::Deliver { msg, .. } => match msg {
            Message::Prepare { txn, .. }
            | Message::VoteYes { txn }
            | Message::VoteNo { txn }
            | Message::Decision { txn, .. }
            | Message::Ack { txn }
            | Message::DecisionQuery { txn } => Some(txn.0),
            _ => None,
        },
        TransportEvent::Timer { tag } => match tag {
            TimerTag::CoordinatorRetry(txn)
            | TimerTag::DecisionRetry(txn)
            | TimerTag::QueryDecision(txn) => Some(txn.0),
            TimerTag::RpcRetry(_) => None,
        },
        TransportEvent::Gap { .. } => None,
    }
}

/// One in-process cluster member: what `chroma-node` assembles, minus
/// the process.
struct Member<'a> {
    node: Node,
    transport: Counting<'a>,
    disk: DiskStore,
}

impl<'a> Member<'a> {
    fn open(
        id: u32,
        layout: &Layout,
        counts: &'a TransportCounts,
        store_events: &Arc<StoreEvents>,
    ) -> Self {
        let id = NodeId::from_raw(id);
        let index = id.as_raw() as usize;
        let bus = Arc::new(EventBus::new());
        bus.add_sink(Arc::new(
            AppendJsonlSink::open(layout.trace(index)).expect("open node trace"),
        ));
        let disk = DiskStore::open_with(
            layout.data(index),
            DiskStoreOptions {
                auto_checkpoint: false,
                ..DiskStoreOptions::default()
            },
        )
        .expect("open node data directory");
        // a bus of its own for the store: the node's trace stays
        // protocol-only, as in chroma-node
        let store_bus = Arc::new(EventBus::new());
        store_bus.add_sink(store_events.clone());
        disk.install_obs(Obs::new(store_bus));
        let mut tcp = TcpTransport::bind(id, layout.addrs[index - 1], TcpConfig::default())
            .expect("bind node listener");
        tcp.install_obs(Obs::new(bus));
        for peer in (1..=3u32).filter(|&p| p != id.as_raw()) {
            tcp.add_peer(NodeId::from_raw(peer), layout.addrs[peer as usize - 1]);
        }
        let node = Node::builder()
            .transport(&tcp)
            .backend(&disk)
            .build()
            .expect("build node");
        Member {
            node,
            transport: Counting {
                inner: tcp,
                counts,
                polled: Duration::ZERO,
            },
            disk,
        }
    }

    /// Dispatches one event with the benchmark's timed barrier.
    fn dispatch(&mut self, event: TransportEvent) {
        if let Some(txn) = txn_of(&event) {
            span::set_key(txn);
        }
        let (disk, counts) = (&self.disk, self.transport.counts);
        span::enter(SpanName::Dispatch);
        dispatch_with(&mut self.node, &mut self.transport, event, |node| {
            span::enter(SpanName::Barrier);
            node.persist_durable(disk)
                .expect("durability barrier: cannot mirror stable state");
            span::exit();
            counts.persists.fetch_add(1, Ordering::Relaxed);
        });
        span::exit();
    }

    /// Polls and dispatches until `until` says stop.
    fn serve(&mut self, mut until: impl FnMut(&Node) -> bool) {
        while !until(&self.node) {
            if let Some(event) = self.transport.poll(Some(Duration::from_millis(5))) {
                self.dispatch(event);
            }
        }
    }
}

/// What the in-process cluster measured besides its spans.
struct Hosted {
    latencies: Latencies,
    wall: Duration,
    committed: u64,
    /// Cumulative bytes the three stores logged, after each transaction.
    persisted_after: Vec<u64>,
    fsyncs: u64,
    coordinator_poll: Duration,
    /// resent, duplicates, gaps, reconnects, send_errors over all nodes.
    masking: [u64; 5],
    traces: Vec<ThreadTrace>,
}

/// Runs `txns` transactions through three in-process members, then
/// keeps dispatching for [`DRAIN`] so every timer they armed has fired.
fn host_cluster(
    layout: &Layout,
    seed: u64,
    txns: u64,
    counts: &TransportCounts,
    store_events: &Arc<StoreEvents>,
) -> Hosted {
    let stop = AtomicBool::new(false);
    let origin = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = [2u32, 3]
            .into_iter()
            .map(|id| {
                let mut member = Member::open(id, layout, counts, store_events);
                let stop = &stop;
                scope.spawn(move || {
                    span::install(ThreadTrace::new(id, origin));
                    member.serve(|_| stop.load(Ordering::Relaxed));
                    (member, span::take().expect("installed above"))
                })
            })
            .collect();

        let mut coordinator = Member::open(1, layout, counts, store_events);
        let participants = [NodeId::from_raw(2), NodeId::from_raw(3)];
        let mut latencies = Latencies::exact();
        let mut persisted_after = Vec::with_capacity(txns as usize);
        let mut committed = 0;
        span::install(ThreadTrace::new(1, origin));
        let started = Instant::now();
        for i in 1..=txns {
            let txn = TxnId(i);
            let writes: HashMap<NodeId, Vec<Write>> = participants
                .iter()
                .map(|&p| {
                    let write = Write {
                        object: txn_object(i),
                        state: StoreBytes::from(txn_value(seed, i)),
                    };
                    (p, vec![write])
                })
                .collect();
            span::set_key(i);
            let at = Instant::now();
            let effects = coordinator.node.begin_transaction(txn, writes);
            coordinator.transport.apply_effects(effects);
            let deadline = at + TXN_DEADLINE;
            coordinator.serve(|node| !node.coordinator_active(txn) || Instant::now() > deadline);
            latencies.record(at.elapsed().as_nanos() as u64);
            committed += u64::from(coordinator.node.coordinator_outcome(txn) == Some(true));
            persisted_after.push(store_events.log_bytes.load(Ordering::Relaxed));
        }
        let wall = started.elapsed();
        let coordinator_poll = coordinator.transport.polled;
        let drained = Instant::now() + DRAIN;
        coordinator.serve(|_| Instant::now() > drained);
        stop.store(true, Ordering::Relaxed);
        let mut traces = vec![span::take().expect("installed above")];

        let mut members = vec![coordinator];
        for worker in workers {
            let (member, trace) = worker.join().expect("worker thread panicked");
            members.push(member);
            traces.push(trace);
        }
        let mut masking = [0; 5];
        for member in &members {
            let stats = member.transport.inner.stats();
            let seen = [
                stats.resent,
                stats.duplicates,
                stats.gaps,
                stats.reconnects,
                stats.send_errors,
            ];
            for (total, n) in masking.iter_mut().zip(seen) {
                *total += n;
            }
        }
        latencies.seal();
        Hosted {
            latencies,
            wall,
            committed,
            persisted_after,
            fsyncs: members.iter().map(|m| m.disk.log_fsync_count()).sum(),
            coordinator_poll,
            masking,
            traces,
        }
    })
}

/// The traced deployment: `dist.*` and the spans.
fn run_in_process(params: &RepParams) -> (Values, TraceSummary) {
    let scratch = ScratchDir::new("cluster-traced");
    let layout = Layout {
        dir: scratch.path().to_path_buf(),
        addrs: free_addrs(),
    };
    let txns = params.scaled(WARMUP_TXNS) + params.scaled(TIMED_TXNS);
    let counts = TransportCounts::default();
    let store_events = Arc::new(StoreEvents::default());
    let hosted = host_cluster(&layout, params.seed, txns, &counts, &store_events);
    let trace_paths = [layout.trace(1), layout.trace(2), layout.trace(3)];
    let correct = hosted.committed == txns && traces_audit_clean(&trace_paths);

    let trace = TraceSummary::merge(hosted.traces);
    let n = txns as f64;
    let mut v = Values::default();
    v.set("throughput_ops_s", n / hosted.wall.as_secs_f64());
    v.set("latency_p50_us", hosted.latencies.quantile(0.5) / 1e3);
    v.set(CORRECT, f64::from(u8::from(correct)));
    v.set(ATTEMPTED, n);
    v.set(FAILED, (txns - hosted.committed) as f64);
    v.set(
        "driver.input_hash",
        hash_as_number(input_hash(params.seed, txns)),
    );
    v.set(
        "dist.dispatch_us_per_txn",
        trace.of(SpanName::Dispatch).total_us() / n,
    );
    v.set(
        "dist.persist_us_per_txn",
        trace.of(SpanName::Barrier).total_us() / n,
    );
    v.set(
        "dist.persists_per_txn",
        counts.persists.load(Ordering::Relaxed) as f64 / n,
    );
    v.set(
        "dist.persist_bytes_per_txn",
        store_events.log_bytes.load(Ordering::Relaxed) as f64 / n,
    );
    // bytes the last transactions persisted against the first ones: 1.0
    // when a transaction's cost does not depend on how many ran before
    let after = &hosted.persisted_after;
    let window = (after.len() / 4).clamp(1, 100);
    let first = after[window - 1];
    let last = after[after.len() - 1] - after[after.len() - 1 - window];
    v.set("dist.persist_bytes_growth", last as f64 / first as f64);
    v.set("dist.fsyncs_per_txn", hosted.fsyncs as f64 / n);
    v.set(
        "dist.msgs_per_txn",
        counts.msgs.load(Ordering::Relaxed) as f64 / n,
    );
    v.set(
        "dist.wire_bytes_per_txn",
        counts.wire_bytes.load(Ordering::Relaxed) as f64 / n,
    );
    // only the coordinator's waiting holds a transaction up
    v.set(
        "dist.poll_wait_us_per_txn",
        hosted.coordinator_poll.as_secs_f64() * 1e6 / n,
    );
    let names = [
        "dist.resent",
        "dist.duplicates",
        "dist.gaps",
        "dist.reconnects",
        "dist.send_errors",
    ];
    for (name, value) in names.into_iter().zip(hosted.masking) {
        v.set(name, value as f64);
    }

    // the probes use the run's own payload and the coordinator's own
    // event mix
    let events = merge_trace_files(&trace_paths[..1])
        .map(|m| m.events)
        .unwrap_or_default();
    v.absorb(&crate::probes::wire_and_jsonl(
        &txn_value(params.seed, 1),
        &events,
    ));
    (v, trace)
}

/// The same transactions on the deterministic simulator: no sockets, no
/// disk — the protocol's own CPU cost.
fn sim_us_per_txn(seed: u64, txns: u64) -> f64 {
    let mut sim = Sim::new(seed);
    let coordinator = sim.add_node();
    let workers = [sim.add_node(), sim.add_node()];
    let started = Instant::now();
    for i in 1..=txns {
        let writes = workers
            .iter()
            .map(|&w| {
                let write = Write {
                    object: txn_object(i),
                    state: StoreBytes::from(txn_value(seed, i)),
                };
                (w, vec![write])
            })
            .collect();
        let txn = sim.begin_transaction(coordinator, writes);
        sim.run_to_quiescence();
        assert_eq!(
            sim.coordinator_outcome(coordinator, txn),
            Some(true),
            "a lossless simulation commits"
        );
    }
    started.elapsed().as_secs_f64() * 1e6 / txns as f64
}

pub fn run(params: &RepParams) -> RepOutput {
    if params.mode != Mode::Traced {
        return RepOutput {
            values: run_processes(params),
            trace_json: None,
        };
    }
    let txns = params.scaled(WARMUP_TXNS) + params.scaled(TIMED_TXNS);
    let (mut values, trace) = run_in_process(params);
    let sim_us = sim_us_per_txn(params.seed, txns);
    values.set("dist.sim_cpu_us_per_txn", sim_us);
    values.set(
        "dist.tcp_vs_sim_ratio",
        1e6 / values.get("throughput_ops_s") / sim_us,
    );
    let trace_json = Some(trace_file(params, &trace, &values));
    RepOutput { values, trace_json }
}
