//! The acceptance test of the process deployment: a 3-process cluster
//! (one coordinator, two workers over `TcpTransport`) survives
//! `kill -9` of a worker mid-2PC, recovers from its durable store,
//! keeps committing, and the merged per-process traces audit clean. A
//! coordinator with no linger exits only after every acknowledgement.
//!
//! `CHROMA_TORTURE_SEED` varies the write payloads, transaction count
//! and kill point, so the CI seed matrix explores different interleavings.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use chroma_base::ObjectId;
use chroma_obs::{merge_trace_files, TraceAuditor};
use chroma_store::DiskStore;
use proptest::torture_seed;

const BIN: &str = env!("CARGO_BIN_EXE_chroma-node");

/// Three ports nobody is listening on right now.
fn free_ports() -> [u16; 3] {
    let holds: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind :0"))
        .collect();
    let ports: Vec<u16> = holds
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect();
    [ports[0], ports[1], ports[2]]
}

/// Kills the child on drop so a panicking test leaks no processes.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

struct ClusterPaths {
    dir: PathBuf,
    ports: [u16; 3],
}

impl ClusterPaths {
    fn new(tag: &str) -> ClusterPaths {
        let dir = std::env::temp_dir().join(format!(
            "chroma-cluster-{tag}-{}-{}",
            std::process::id(),
            torture_seed().unwrap_or(42)
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        ClusterPaths {
            dir,
            ports: free_ports(),
        }
    }

    fn addr(&self, node: usize) -> String {
        format!("127.0.0.1:{}", self.ports[node - 1])
    }

    fn data(&self, node: usize) -> PathBuf {
        self.dir.join(format!("n{node}"))
    }

    fn trace(&self, node: usize) -> PathBuf {
        self.dir.join(format!("n{node}.jsonl"))
    }

    fn spawn_worker(&self, node: usize) -> Reaped {
        let peers: Vec<usize> = [1, 2, 3].into_iter().filter(|&p| p != node).collect();
        let mut cmd = Command::new(BIN);
        cmd.arg("worker")
            .args(["--id", &node.to_string()])
            .args(["--listen", &self.addr(node)]);
        for p in peers {
            cmd.args(["--peer", &format!("{p}={}", self.addr(p))]);
        }
        cmd.args(["--data", self.data(node).to_str().unwrap()])
            .args(["--trace", self.trace(node).to_str().unwrap()])
            .stdin(Stdio::piped()) // held open: closing it asks the worker to exit
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn().expect("spawn worker");
        // don't proceed until it is listening, so the coordinator's
        // first prepare finds a live peer (except after deliberate kills)
        let stdout = child.stdout.take().unwrap();
        let mut ready = String::new();
        BufReader::new(stdout).read_line(&mut ready).unwrap();
        assert!(ready.contains("ready"), "worker said: {ready}");
        Reaped(child)
    }

    fn spawn_coordinator(&self, txns: u64, linger_ms: u64) -> (Reaped, mpsc::Receiver<String>) {
        let mut cmd = Command::new(BIN);
        cmd.arg("coordinator")
            .args(["--id", "1"])
            .args(["--listen", &self.addr(1)])
            .args(["--peer", &format!("2={}", self.addr(2))])
            .args(["--peer", &format!("3={}", self.addr(3))])
            .args(["--data", self.data(1).to_str().unwrap()])
            .args(["--trace", self.trace(1).to_str().unwrap()])
            .args(["--txns", &txns.to_string()])
            .args(["--seed", &torture_seed().unwrap_or(42).to_string()])
            .args(["--linger-ms", &linger_ms.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn().expect("spawn coordinator");
        let stdout = child.stdout.take().unwrap();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        (Reaped(child), rx)
    }
}

/// What the coordinator reported per transaction.
#[derive(Debug)]
struct Outcomes {
    committed: Vec<u64>,
    aborted: Vec<u64>,
}

fn parse_outcome(line: &str, outcomes: &mut Outcomes) {
    let words: Vec<&str> = line.split_whitespace().collect();
    if let ["txn", n, verdict, "obj", _] = words.as_slice() {
        let n: u64 = n.parse().unwrap();
        match *verdict {
            "commit" => outcomes.committed.push(n),
            "abort" => outcomes.aborted.push(n),
            other => panic!("unexpected verdict {other} in {line}"),
        }
    }
}

fn expected_value(txn: u64) -> Vec<u8> {
    format!("v{txn}-s{}", torture_seed().unwrap_or(42)).into_bytes()
}

fn txn_object(txn: u64) -> ObjectId {
    ObjectId::from_raw(1_000 + txn)
}

/// Opens a worker's data directory post-mortem and checks every
/// committed transaction's write is installed — and no aborted one's.
fn check_store(data: &Path, outcomes: &Outcomes) {
    let disk = DiskStore::open(data).expect("reopen worker store");
    for &txn in &outcomes.committed {
        let state = disk
            .read(txn_object(txn))
            .expect("read store")
            .unwrap_or_else(|| panic!("committed txn {txn} missing from {}", data.display()));
        assert_eq!(
            state.as_ref(),
            expected_value(txn).as_slice(),
            "txn {txn} installed the wrong bytes"
        );
    }
    for &txn in &outcomes.aborted {
        assert!(
            disk.read(txn_object(txn)).expect("read store").is_none(),
            "aborted txn {txn} must not be installed in {}",
            data.display()
        );
    }
}

fn audit_merged(paths: &ClusterPaths) {
    let merged =
        merge_trace_files(&[paths.trace(1), paths.trace(2), paths.trace(3)]).expect("merge traces");
    assert!(
        !merged.events.is_empty(),
        "a traced cluster run must produce events"
    );
    let report = TraceAuditor::audit_events(&merged.events);
    assert!(
        report.is_clean(),
        "merged cluster trace must audit clean:\n{report}"
    );
}

fn drain_outcomes(
    rx: &mpsc::Receiver<String>,
    txns: u64,
    mut on_line: impl FnMut(&str),
) -> Outcomes {
    let mut outcomes = Outcomes {
        committed: Vec::new(),
        aborted: Vec::new(),
    };
    let deadline = Instant::now() + Duration::from_secs(120);
    while (outcomes.committed.len() + outcomes.aborted.len()) < txns as usize {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(
            !left.is_zero(),
            "coordinator timed out; so far {outcomes:?}"
        );
        let line = rx
            .recv_timeout(left)
            .expect("coordinator stdout closed early");
        on_line(&line);
        parse_outcome(&line, &mut outcomes);
    }
    outcomes
}

#[test]
fn healthy_cluster_commits_everything_and_audits_clean() {
    let paths = ClusterPaths::new("healthy");
    let _w2 = paths.spawn_worker(2);
    let _w3 = paths.spawn_worker(3);
    let txns = 3;
    let (mut coord, rx) = paths.spawn_coordinator(txns, 1500);
    let outcomes = drain_outcomes(&rx, txns, |_| {});
    assert_eq!(
        outcomes.committed.len() as u64,
        txns,
        "healthy cluster must commit everything: {outcomes:?}"
    );
    coord.0.wait().expect("coordinator exit");
    check_store(&paths.data(2), &outcomes);
    check_store(&paths.data(3), &outcomes);
    audit_merged(&paths);
    std::fs::remove_dir_all(&paths.dir).ok();
}

#[test]
fn kill9_mid_2pc_recovers_and_audits_clean() {
    let paths = ClusterPaths::new("kill9");
    let mut w2 = Some(paths.spawn_worker(2));
    let _w3 = paths.spawn_worker(3);

    let s = torture_seed().unwrap_or(42);
    let txns = 5 + (s % 3); // 5..=7
    let kill_at = 2 + (s % 2); // SIGKILL worker 2 as txn 2 or 3 begins
    let (mut coord, rx) = paths.spawn_coordinator(txns, 1500);

    let begin_marker = format!("begin txn {kill_at} ");
    let mut killed = false;
    let outcomes = drain_outcomes(&rx, txns, |line| {
        if !killed && line.starts_with(&begin_marker) {
            // SIGKILL, not a polite shutdown: the durable store is all
            // the next incarnation gets
            w2.take()
                .expect("worker 2 alive")
                .0
                .kill()
                .expect("kill -9");
            killed = true;
            w2 = Some(paths.spawn_worker(2));
        }
    });
    assert!(killed, "the kill point must have been reached");
    assert!(
        outcomes.committed.iter().any(|&t| t > kill_at),
        "the cluster must commit again after the kill: {outcomes:?}"
    );
    coord.0.wait().expect("coordinator exit");

    // the restarted worker must have caught up on every commit it was
    // told about — its store is checked against the same expectations
    // as the never-killed one
    check_store(&paths.data(2), &outcomes);
    check_store(&paths.data(3), &outcomes);
    audit_merged(&paths);
    std::fs::remove_dir_all(&paths.dir).ok();
}

/// A coordinator reports each outcome at its commit point, before the
/// participants install it; with no linger it still exits only once
/// every participant acknowledged, so both stores hold every commit
/// the moment it is gone.
#[test]
fn coordinator_without_linger_exits_after_every_ack() {
    let paths = ClusterPaths::new("nolinger");
    let _w2 = paths.spawn_worker(2);
    let _w3 = paths.spawn_worker(3);
    let txns = 3 + torture_seed().unwrap_or(42) % 4; // 3..=6
    let (mut coord, rx) = paths.spawn_coordinator(txns, 0);
    let outcomes = drain_outcomes(&rx, txns, |_| {});
    assert_eq!(
        outcomes.committed.len() as u64,
        txns,
        "healthy cluster must commit everything: {outcomes:?}"
    );
    let done = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("coordinator stdout closed before `coordinator done`");
    assert_eq!(done, format!("coordinator done: {txns}/{txns} committed"));
    coord.0.wait().expect("coordinator exit");
    check_store(&paths.data(2), &outcomes);
    check_store(&paths.data(3), &outcomes);
    audit_merged(&paths);
    std::fs::remove_dir_all(&paths.dir).ok();
}

/// The same durable store that survives `kill -9` must also produce a
/// clean second boot: stable state round-trips, and the re-reported
/// outcomes match what the coordinator printed the first time.
#[test]
fn worker_store_round_trips_across_restart() {
    let paths = ClusterPaths::new("roundtrip");
    let w2 = paths.spawn_worker(2);
    let _w3 = paths.spawn_worker(3);
    let txns = 2;
    let (mut coord, rx) = paths.spawn_coordinator(txns, 1500);
    let outcomes = drain_outcomes(&rx, txns, |_| {});
    coord.0.wait().expect("coordinator exit");
    drop(w2); // SIGKILL via Reaped

    // boot a fresh incarnation with no cluster around it: it must come
    // up from its store alone (recovery sends go nowhere) and its
    // trace must extend the old one, not restart it
    let before = std::fs::read_to_string(paths.trace(2)).unwrap().len();
    let w2b = paths.spawn_worker(2);
    std::thread::sleep(Duration::from_millis(300));
    drop(w2b);
    let after = std::fs::read_to_string(paths.trace(2)).unwrap();
    assert!(after.len() > before, "restart must append to the trace");
    assert!(
        after.contains("node_recover"),
        "restart must record its recovery"
    );
    check_store(&paths.data(2), &outcomes);

    // counts per worker trace survive merging (sanity on the lenient path)
    let merged = merge_trace_files(&[paths.trace(2)]).expect("merge single");
    let by_lc: Vec<u64> = merged.events.iter().map(|e| e.lc).collect();
    let mut sorted = by_lc.clone();
    sorted.sort_unstable();
    assert_eq!(by_lc, sorted, "single-node trace must be lc-ordered");
    std::fs::remove_dir_all(&paths.dir).ok();
}

/// `--help`-style misuse must not start half a node.
#[test]
fn bad_usage_exits_with_diagnostics() {
    let out = Command::new(BIN)
        .arg("observer")
        .output()
        .expect("run chroma-node");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = Command::new(BIN)
        .args(["worker", "--id", "2"])
        .output()
        .expect("run chroma-node");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--listen"));

    // a coordinator with nobody to coordinate is misuse too: refused
    // before it creates its data directory or its trace
    let paths = ClusterPaths::new("peerless");
    let out = Command::new(BIN)
        .args(["coordinator", "--id", "1", "--listen", &paths.addr(1)])
        .arg("--data")
        .arg(paths.data(1))
        .arg("--trace")
        .arg(paths.trace(1))
        .output()
        .expect("run chroma-node");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--peer") && stderr.contains("usage"),
        "{stderr}"
    );
    assert!(!paths.data(1).exists() && !paths.trace(1).exists());
    std::fs::remove_dir_all(&paths.dir).ok();
}
