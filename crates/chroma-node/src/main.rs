//! `chroma-node` — host one cluster member as a real OS process.
//!
//! The simulator proves the protocols; this binary proves the *code*:
//! the same [`Node`] state machines, driven by the same [`Host`], run
//! here over [`TcpTransport`] instead of the discrete-event scheduler —
//! as separately killable processes.
//!
//! ```text
//! chroma-node worker      --id 2 --listen 127.0.0.1:7102 \
//!     --peer 1=127.0.0.1:7101 --peer 3=127.0.0.1:7103 \
//!     --data /tmp/n2 --trace /tmp/n2.jsonl
//! chroma-node coordinator --id 1 --listen 127.0.0.1:7101 \
//!     --peer 2=127.0.0.1:7102 --peer 3=127.0.0.1:7103 \
//!     --data /tmp/n1 --trace /tmp/n1.jsonl --txns 6 --seed 42
//! ```
//!
//! A **worker** is a 2PC participant: it answers prepares, votes,
//! installs decisions — forever, until killed. A **coordinator** runs
//! the host's schedule of `--txns` transactions (one object each, every
//! peer a participant), printing `begin txn N obj O` and each outcome
//! as `txn N commit|abort obj O` on stdout. An outcome is printed at its
//! commit point, and the next transaction begins in the same batch; the
//! coordinator serves on until every participant acknowledged every
//! decision (or its deadline passed), then lingers `--linger-ms` to
//! answer straggler decision queries.
//!
//! Three things make `kill -9` survivable:
//!
//! * the node's stable half *is* the [`DiskBackend`]'s store
//!   (`Node::builder().backend(..)` adopts it), and every batch of
//!   ready events runs one [`Node::barrier`] — what its handlers staged
//!   (installed objects, changed 2PC records) reaches the store's
//!   intentions log as one batch *before* any resulting message leaves.
//!   A participant handed `[Decision(t), Prepare(t+1)]` installs t and
//!   prepares t+1 under one fsync. A batch that staged nothing costs no
//!   write; a coordinator's `CoordEnd` rides along with the next barrier
//!   that writes, since losing it only repeats a decision the
//!   participants acknowledge again. A simulated node runs the same
//!   barrier over an in-memory disk, one event at a time;
//! * on restart `DiskStore::open` replays the log, the node reads its
//!   2PC table (one record per transaction and role) back from the
//!   store and [`Node::recover`] re-derives its protocol obligations —
//!   the same recovery a simulated crash runs;
//! * the process appends to its per-node JSONL trace with its Lamport
//!   clock restored from the trace's own tail, so a merged cluster
//!   trace (`chroma-trace merge`) still audits clean across the crash.

#![forbid(unsafe_code)]

use std::fmt::Write as FmtWrite;
use std::io::Write as IoWrite;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chroma_base::NodeId;
use chroma_core::{DiskBackend, Runtime};
use chroma_dist::{txn_object, Host, Node, Report, TcpConfig, TcpTransport, Transport};
use chroma_obs::{AppendJsonlSink, EventBus, EventKind, Obs, Observable};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("chroma-node: {message}");
            eprintln!(
                "usage: chroma-node <worker|coordinator> --id <n> --listen <addr> \
                 [--peer <n>=<addr>]... --data <dir> --trace <file.jsonl> \
                 [--txns <n>] [--seed <n>] [--linger-ms <n>]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("chroma-node: {message}");
            ExitCode::FAILURE
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Worker,
    Coordinator,
}

struct Opts {
    role: Role,
    id: NodeId,
    listen: String,
    peers: Vec<(NodeId, SocketAddr)>,
    data: PathBuf,
    trace: PathBuf,
    txns: u64,
    seed: u64,
    linger_ms: u64,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut it = args.iter();
        let role = match it.next().map(String::as_str) {
            Some("worker") => Role::Worker,
            Some("coordinator") => Role::Coordinator,
            Some(other) => return Err(format!("unknown role `{other}`")),
            None => return Err("missing role".into()),
        };
        let mut id = None;
        let mut listen = None;
        let mut peers = Vec::new();
        let mut data = None;
        let mut trace = None;
        let mut txns = 3;
        let mut seed = 42;
        let mut linger_ms = 2_000;
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--id" => {
                    let raw: u32 = value.parse().map_err(|_| format!("bad --id {value}"))?;
                    id = Some(NodeId::from_raw(raw));
                }
                "--listen" => listen = Some(value.clone()),
                "--peer" => {
                    let (raw, addr) = value
                        .split_once('=')
                        .ok_or_else(|| format!("bad --peer {value}, want <id>=<addr>"))?;
                    let raw: u32 = raw.parse().map_err(|_| format!("bad peer id {raw}"))?;
                    let addr: SocketAddr =
                        addr.parse().map_err(|_| format!("bad peer addr {addr}"))?;
                    peers.push((NodeId::from_raw(raw), addr));
                }
                "--data" => data = Some(PathBuf::from(value)),
                "--trace" => trace = Some(PathBuf::from(value)),
                "--txns" => txns = value.parse().map_err(|_| format!("bad --txns {value}"))?,
                "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
                "--linger-ms" => {
                    linger_ms = value
                        .parse()
                        .map_err(|_| format!("bad --linger-ms {value}"))?;
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if role == Role::Coordinator && peers.is_empty() {
            return Err("a coordinator needs at least one --peer".into());
        }
        Ok(Opts {
            role,
            id: id.ok_or("missing --id")?,
            listen: listen.ok_or("missing --listen")?,
            peers,
            data: data.ok_or("missing --data")?,
            trace: trace.ok_or("missing --trace")?,
            txns,
            seed,
            linger_ms,
        })
    }
}

fn run(opts: &Opts) -> Result<(), String> {
    // -- tracing: append to this process's own JSONL file, restoring
    // Lamport continuity from whatever an earlier incarnation left
    let bus = Arc::new(EventBus::new());
    let sink = AppendJsonlSink::open(&opts.trace)
        .map_err(|e| format!("cannot open trace {}: {e}", opts.trace.display()))?;
    let restarting = opts.trace.exists() && {
        let prior = chroma_obs::merge_trace_files(&[&opts.trace])
            .map_err(|e| format!("cannot scan prior trace: {e}"))?;
        let max_lc = prior.events.iter().map(|e| e.lc).max();
        if let Some(max_lc) = max_lc {
            bus.merge_clock(opts.id, max_lc);
        }
        max_lc.is_some()
    };
    bus.add_sink(Arc::new(sink));
    let obs = Obs::new(Arc::clone(&bus));

    // -- durability: one DiskStore is the node's stable half and the
    // co-hosted Runtime's backend (kept in disjoint object-id ranges).
    // The store stays un-observed: its log events belong to
    // single-process deployments, not this per-node protocol trace.
    let backend = Arc::new(
        DiskBackend::open(&opts.data)
            .map_err(|e| format!("cannot open data dir {}: {e}", opts.data.display()))?,
    );

    // -- transport: bind before building the node so identity and obs
    // flow from it. A restarted process re-binds its predecessor's
    // port, which can transiently fail while old connections drain —
    // retry briefly instead of dying.
    let bind_deadline = Instant::now() + Duration::from_secs(2);
    let mut tcp = loop {
        match TcpTransport::bind(opts.id, opts.listen.as_str(), TcpConfig::default()) {
            Ok(tcp) => break tcp,
            Err(e) if Instant::now() < bind_deadline => {
                eprintln!("chroma-node: bind {} failed ({e}), retrying", opts.listen);
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => return Err(format!("cannot bind {}: {e}", opts.listen)),
        }
    };
    tcp.install_obs(obs.clone());
    for &(peer, addr) in &opts.peers {
        tcp.add_peer(peer, addr);
    }

    // -- the protocol node over that store, its 2PC table read back
    let mut node = Node::builder()
        .transport(&tcp)
        .backend(backend.store())
        .build()
        .map_err(|e| format!("cannot restore node state: {e}"))?;
    if restarting {
        // the SIGKILL'd incarnation could not write these itself; record
        // the crash/recover pair so the merged trace tells the story
        let at_node = obs.at_node(opts.id);
        at_node.emit(EventKind::NodeCrash { node: opts.id });
        at_node.emit(EventKind::NodeRecover { node: opts.id });
    }
    let recovery = node.recover();
    tcp.apply_effects(recovery);

    // -- a co-hosted Runtime on the same backend: each boot commits a
    // genuine action recording the incarnation, proving the full local
    // stack (locks, undo, WAL) runs over the same disk as the node.
    // Untraced: its action/object ids are per-process, so they would
    // collide across the merged cluster trace — only protocol events
    // belong in a per-node trace.
    let runtime = Runtime::builder()
        .backend(Arc::clone(&backend) as Arc<dyn chroma_core::PermanenceBackend>)
        .at_node(opts.id)
        .build();
    let boot = runtime
        .create_object(&u64::from(restarting))
        .map_err(|e| format!("boot action failed: {e}"))?;
    runtime
        .atomic(|a| a.modify(boot, |count: &mut u64| *count += 1))
        .map_err(|e| format!("boot action failed: {e}"))?;

    let mut host = Host::new(node);
    let mut committed = 0;
    // a batch's lines leave in one write, before its frames do, so a
    // `begin txn` line still precedes its prepares
    let mut print = |reports: &[Report]| {
        let mut lines = String::new();
        for report in reports {
            match *report {
                Report::Begin(txn) => {
                    let obj = txn_object(txn.0).as_raw();
                    writeln!(lines, "begin txn {} obj {obj}", txn.0).ok();
                }
                Report::Outcome(txn, commit) => {
                    committed += u64::from(commit);
                    let outcome = if commit { "commit" } else { "abort" };
                    let obj = txn_object(txn.0).as_raw();
                    writeln!(lines, "txn {} {outcome} obj {obj}", txn.0).ok();
                }
                Report::Gap(from, ref lost) => {
                    eprintln!("chroma-node: gap from {from}: frames {lost:?} lost for good");
                }
            }
        }
        if !lines.is_empty() {
            let mut stdout = std::io::stdout().lock();
            stdout.write_all(lines.as_bytes()).ok();
            stdout.flush().ok();
        }
    };
    match opts.role {
        // answer prepares and decisions forever; exit cleanly when stdin
        // closes (the supervising process went away), or never, if
        // killed first
        Role::Worker => {
            println!("worker {} ready on {}", opts.id, tcp.local_addr());
            std::io::stdout().flush().ok();
            std::thread::spawn(|| {
                std::io::Read::read_to_end(&mut std::io::stdin(), &mut Vec::new()).ok();
                std::process::exit(0);
            });
            serve(&mut host, &mut tcp, &mut print, |_| true);
        }
        // run the schedule, then linger for straggler decision queries:
        // a participant restarted late may still be asking
        Role::Coordinator => {
            println!("coordinator {} ready on {}", opts.id, tcp.local_addr());
            std::io::stdout().flush().ok();
            let participants = opts.peers.iter().map(|&(peer, _)| peer).collect();
            host.coordinate(participants, 1..=opts.txns, opts.seed);
            serve(&mut host, &mut tcp, &mut print, |host| {
                host.wakeup_us().is_some()
            });
            let linger_until = Instant::now() + Duration::from_millis(opts.linger_ms);
            serve(&mut host, &mut tcp, &mut print, |_| {
                Instant::now() < linger_until
            });
            println!("coordinator done: {committed}/{} committed", opts.txns);
            std::io::stdout().flush().ok();
        }
    }
    Ok(())
}

/// The most ready events one batch takes: a bound on how long one
/// barrier holds back the first event's effects, not a tuning knob.
const MAX_BATCH: usize = 64;

/// Serves the transport's events to the host while `go` holds: waits
/// for one, drains what else is ready without waiting (up to
/// [`MAX_BATCH`]) and hands them over as one batch, under one barrier.
/// Wakes the host at least every 50 ms without one, so a deadline
/// passes on a silent network too.
fn serve(
    host: &mut Host,
    tcp: &mut TcpTransport,
    report: &mut dyn FnMut(&[Report]),
    go: impl Fn(&Host) -> bool,
) {
    host.advance(tcp, report);
    while go(host) {
        let Some(first) = tcp.poll(Some(Duration::from_millis(50))) else {
            host.advance(tcp, report);
            continue;
        };
        let ready = std::iter::from_fn(|| tcp.poll(Some(Duration::ZERO)));
        let batch: Vec<_> = std::iter::once(first)
            .chain(ready)
            .take(MAX_BATCH)
            .collect();
        host.handle(tcp, batch, report);
    }
}
