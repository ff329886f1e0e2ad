//! `chroma-node` — host one cluster member as a real OS process.
//!
//! The simulator proves the protocols; this binary proves the *code*:
//! the same [`Node`] state machines, dispatched through the same
//! [`dispatch_with`] path, run here over [`TcpTransport`] instead of
//! the discrete-event scheduler — as separately killable processes.
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
//! installs decisions — forever, until killed. A **coordinator** drives
//! `--txns` transactions (one object each, every peer a participant),
//! reporting each outcome on stdout as `txn N commit|abort obj O`, then
//! lingers `--linger-ms` to answer straggler decision queries.
//!
//! Three things make `kill -9` survivable:
//!
//! * the node's stable half *is* the [`DiskBackend`]'s store
//!   (`Node::builder().backend(..)` adopts it), and every dispatch runs
//!   [`Node::barrier`] — what the handler staged (installed objects,
//!   changed 2PC records) reaches the store's intentions log as one batch
//!   *before* any resulting message leaves. A handler that staged
//!   nothing costs no write; a coordinator's `CoordEnd` rides along with
//!   the next barrier that writes, since losing it only repeats a
//!   decision the participants acknowledge again. A simulated node runs
//!   the same barrier over an in-memory disk;
//! * on restart `DiskStore::open` replays the log, the node reads its
//!   2PC table (one record per transaction and role) back from the
//!   store and [`Node::recover`] re-derives its protocol obligations —
//!   the same recovery a simulated crash runs;
//! * the process appends to its per-node JSONL trace with its Lamport
//!   clock restored from the trace's own tail, so a merged cluster
//!   trace (`chroma-trace merge`) still audits clean across the crash.

#![forbid(unsafe_code)]

use std::io::Write as IoWrite;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chroma_base::{NodeId, ObjectId};
use chroma_core::{DiskBackend, Runtime};
use chroma_dist::{
    dispatch_with, Node, TcpConfig, TcpTransport, Transport, TransportEvent, TxnId, Write,
};
use chroma_obs::{AppendJsonlSink, EventBus, EventKind, Obs, Observable};
use chroma_store::StoreBytes;

/// Lowest object id the coordinator writes through 2PC; ids below
/// belong to each process's co-hosted [`Runtime`], ids from
/// [`chroma_dist::TPC_LOG_BASE`] (`1 << 62`) on to the node's 2PC
/// records, one per transaction and role, all in the one store.
const APP_OBJECT_BASE: u64 = 1_000;

/// How long a coordinator drives one transaction before giving up and
/// reporting whatever the durable log says.
const TXN_DEADLINE: Duration = Duration::from_secs(30);

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

/// The object a transaction writes and the bytes it installs there —
/// shared vocabulary between the coordinator's stdout report and the
/// test that checks worker stores post-mortem.
fn txn_object(txn: u64) -> ObjectId {
    ObjectId::from_raw(APP_OBJECT_BASE + txn)
}

fn txn_value(seed: u64, txn: u64) -> Vec<u8> {
    format!("v{txn}-s{seed}").into_bytes()
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

    match opts.role {
        Role::Worker => run_worker(opts, &mut node, &mut tcp),
        Role::Coordinator => run_coordinator(opts, &mut node, &mut tcp),
    }
}

/// Answer prepares/decisions forever; exit cleanly when stdin closes
/// (the supervising process went away) — or never, if killed first.
fn run_worker(opts: &Opts, node: &mut Node, tcp: &mut TcpTransport) -> Result<(), String> {
    println!("worker {} ready on {}", opts.id, tcp.local_addr());
    std::io::stdout().flush().ok();
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        std::io::Read::read_to_end(&mut std::io::stdin(), &mut sink).ok();
        std::process::exit(0);
    });
    serve(node, tcp, |_| true);
    Ok(())
}

/// Drive `--txns` transactions through 2PC, reporting each outcome on
/// stdout, then linger to answer straggler decision queries.
fn run_coordinator(opts: &Opts, node: &mut Node, tcp: &mut TcpTransport) -> Result<(), String> {
    println!("coordinator {} ready on {}", opts.id, tcp.local_addr());
    std::io::stdout().flush().ok();
    let participants: Vec<NodeId> = opts.peers.iter().map(|&(peer, _)| peer).collect();
    if participants.is_empty() {
        return Err("a coordinator needs at least one --peer".into());
    }
    let mut committed = 0u64;
    for i in 1..=opts.txns {
        let txn = TxnId(i);
        let object = txn_object(i);
        let writes = participants.iter().map(|&p| {
            (
                p,
                vec![Write {
                    object,
                    state: StoreBytes::from(txn_value(opts.seed, i)),
                }],
            )
        });
        println!("begin txn {i} obj {}", object.as_raw());
        std::io::stdout().flush().ok();
        let effects = node.begin_transaction(txn, writes);
        tcp.apply_effects(effects);
        let deadline = Instant::now() + TXN_DEADLINE;
        serve(node, tcp, |node| {
            node.coordinator_active(txn) && Instant::now() < deadline
        });
        let outcome = if node.coordinator_outcome(txn) == Some(true) {
            committed += 1;
            "commit"
        } else {
            "abort"
        };
        println!("txn {i} {outcome} obj {}", object.as_raw());
        std::io::stdout().flush().ok();
    }
    // stragglers: a participant restarted late may still be querying
    let linger_until = Instant::now() + Duration::from_millis(opts.linger_ms);
    serve(node, tcp, |_| Instant::now() < linger_until);
    println!("coordinator done: {committed}/{} committed", opts.txns);
    std::io::stdout().flush().ok();
    Ok(())
}

/// Serves the transport's events while `go` holds: each one runs its
/// handler and the durability barrier before the resulting messages
/// leave. The masking layer surfaces sequence holes instead of hiding
/// them; a host must at least say so out loud.
fn serve(node: &mut Node, tcp: &mut TcpTransport, mut go: impl FnMut(&Node) -> bool) {
    while go(node) {
        let Some(event) = tcp.poll(Some(Duration::from_millis(50))) else {
            continue;
        };
        if let TransportEvent::Gap {
            from,
            expected,
            got,
        } = &event
        {
            eprintln!("chroma-node: gap from {from}: frames {expected}..{got} lost for good");
        }
        dispatch_with(node, tcp, event, Node::barrier);
    }
}
