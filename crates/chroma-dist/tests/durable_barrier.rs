//! The delta durability barrier: `Node::persist_durable` writes only
//! what a handler changed, and only forced 2PC records wait for it.
//!
//! A coordinator and two participants are driven by hand through
//! `handle_message` / `handle_timer`, each over its own `DiskStore`,
//! with the barrier after every handler — the `chroma-node` loop without
//! the sockets. A seeded schedule (`CHROMA_TORTURE_SEED`) mixes commits,
//! vetoes, prepare timeouts, reordered and duplicated prepares and
//! decisions, RPC `Put`s and replica installs. After every barrier a
//! node rebuilt from a reopened store must equal the live one, up to
//! `CoordEnd` records still waiting for a barrier that writes.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use chroma_base::{NodeId, ObjectId};
use chroma_dist::{Effect, Message, Node, RpcOp, TimerTag, TpcRecord, TxnId, Write, TPC_LOG_BASE};
use chroma_store::{DiskError, DiskStore, DiskStoreOptions, StoreBytes};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn seed() -> u64 {
    std::env::var("CHROMA_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

const COORD: NodeId = NodeId::from_raw(1);
const P2: NodeId = NodeId::from_raw(2);
const P3: NodeId = NodeId::from_raw(3);

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "chroma-barrier-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// No background checkpointer: the test folds explicitly, so a second
/// handle on the same directory never races a fold.
fn open(dir: &Path) -> DiskStore {
    DiskStore::open_with(
        dir,
        DiskStoreOptions {
            auto_checkpoint: false,
            ..DiskStoreOptions::default()
        },
    )
    .expect("open store")
}

fn rebuild(id: NodeId, dir: &Path) -> Result<Node, DiskError> {
    let reopened = open(dir);
    Node::builder().id(id).backend(&reopened).build()
}

fn pages(node: &Node) -> BTreeMap<ObjectId, Vec<u8>> {
    node.store()
        .object_ids()
        .expect("ids")
        .into_iter()
        .map(|o| (o, node.read(o).expect("listed").to_vec()))
        .collect()
}

/// Bytes in the store's live log segments.
fn log_bytes(dir: &Path) -> u64 {
    DiskStore::live_segment_paths(dir)
        .expect("manifest")
        .iter()
        .map(|p| std::fs::metadata(p).expect("segment").len())
        .sum()
}

fn is_end(record: &TpcRecord) -> bool {
    matches!(record, TpcRecord::CoordEnd { .. })
}

/// What the reopened store rebuilds must be the live node minus a
/// trailing run of unflushed `CoordEnd`s; `forced` says that run must
/// be empty. Returns how many records are still unflushed.
fn assert_restores(id: NodeId, dir: &Path, live: &Node, forced: bool) -> usize {
    let restored = rebuild(id, dir).expect("restore");
    assert_eq!(pages(&restored), pages(live), "{id}: store pages differ");
    let (live_log, disk_log) = (live.tpc_records(), restored.tpc_records());
    assert!(
        live_log.starts_with(&disk_log),
        "{id}: disk log {disk_log:?} is not a prefix of {live_log:?}"
    );
    let unflushed = &live_log[disk_log.len()..];
    assert!(
        unflushed.iter().all(is_end),
        "{id}: forced records not on disk: {unflushed:?}"
    );
    if forced {
        assert!(
            unflushed.is_empty(),
            "{id}: a writing barrier left {unflushed:?}"
        );
    }
    unflushed.len()
}

struct Member {
    node: Node,
    disk: DiskStore,
    dir: TempDir,
}

impl Member {
    fn new(id: NodeId) -> Member {
        let dir = TempDir::new(&format!("n{id}"));
        let disk = open(&dir.0);
        let node = Node::builder()
            .id(id)
            .backend(&disk)
            .build()
            .expect("build");
        Member { node, disk, dir }
    }

    /// Runs one handler and the barrier, then checks the barrier wrote
    /// exactly when the handler changed something it must force.
    fn step(&mut self, handler: impl FnOnce(&mut Node) -> Vec<Effect>) -> Vec<Effect> {
        let (pages_before, records_before) = (pages(&self.node), self.node.tpc_records().len());
        let (fsyncs, bytes) = (self.disk.log_fsync_count(), log_bytes(&self.dir.0));
        let effects = handler(&mut self.node);
        self.node.persist_durable(&self.disk).expect("barrier");
        let records = self.node.tpc_records();
        let forced =
            pages(&self.node) != pages_before || !records[records_before..].iter().all(is_end);
        let id = self.node.id();
        if forced {
            assert!(
                self.disk.log_fsync_count() > fsyncs,
                "{id}: forced barrier did not sync"
            );
        } else {
            assert_eq!(
                self.disk.log_fsync_count(),
                fsyncs,
                "{id}: idle barrier synced"
            );
            assert_eq!(log_bytes(&self.dir.0), bytes, "{id}: idle barrier wrote");
        }
        assert_restores(id, &self.dir.0, &self.node, forced);
        effects
    }
}

enum Event {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: Message,
    },
    Timer {
        at: NodeId,
        tag: TimerTag,
    },
}

/// Three members and the messages and timers in flight between them.
struct Cluster {
    members: HashMap<NodeId, Member>,
    queue: Vec<Event>,
    timers: Vec<Event>,
    rng: StdRng,
    /// Every `Prepare` to this participant is lost.
    drop_prepares_to: Option<NodeId>,
    steps: u64,
}

impl Cluster {
    fn new(seed: u64) -> Cluster {
        Cluster {
            members: [COORD, P2, P3]
                .into_iter()
                .map(|id| (id, Member::new(id)))
                .collect(),
            queue: Vec::new(),
            timers: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            drop_prepares_to: None,
            steps: 0,
        }
    }

    fn node(&self, id: NodeId) -> &Node {
        &self.members[&id].node
    }

    fn member(&mut self, id: NodeId) -> &mut Member {
        self.members.get_mut(&id).expect("a member")
    }

    fn schedule(&mut self, at: NodeId, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => self.queue.push(Event::Deliver { from: at, to, msg }),
                Effect::SetTimer { tag, .. } => self.timers.push(Event::Timer { at, tag }),
            }
        }
    }

    /// Delivers queued messages in a seeded order, sometimes twice,
    /// firing timers only when the network is quiet, until nothing is
    /// left in flight.
    fn run(&mut self) {
        while !self.queue.is_empty() || !self.timers.is_empty() {
            self.steps += 1;
            assert!(self.steps < 100_000, "schedule does not quiesce");
            let event = if self.queue.is_empty() {
                self.timers.remove(0)
            } else {
                let at = self.rng.gen_range(0..self.queue.len());
                let event = self.queue.swap_remove(at);
                if let Event::Deliver { from, to, msg } = &event {
                    let repeatable =
                        matches!(msg, Message::Prepare { .. } | Message::Decision { .. });
                    if repeatable && self.rng.gen_bool(0.25) {
                        self.queue.push(Event::Deliver {
                            from: *from,
                            to: *to,
                            msg: msg.clone(),
                        });
                    }
                }
                event
            };
            match event {
                Event::Deliver {
                    to,
                    msg: Message::Prepare { .. },
                    ..
                } if Some(to) == self.drop_prepares_to => {}
                Event::Deliver { from, to, msg } => {
                    let effects = self.member(to).step(|n| n.handle_message(from, msg));
                    self.schedule(to, effects);
                }
                Event::Timer { at, tag } => {
                    let effects = self.member(at).step(|n| n.handle_timer(tag));
                    self.schedule(at, effects);
                }
            }
        }
    }

    /// Begins `txn`, one write at each participant, on the coordinator
    /// (outside any handler, as the `chroma-node` coordinator loop does).
    fn begin(&mut self, txn: TxnId) {
        let writes: HashMap<NodeId, Vec<Write>> = [P2, P3]
            .into_iter()
            .map(|p| {
                let write = Write {
                    object: ObjectId::from_raw(1_000 + txn.0),
                    state: StoreBytes::from(format!("txn {} at {p}", txn.0).into_bytes()),
                };
                (p, vec![write])
            })
            .collect();
        let effects = self.member(COORD).node.begin_transaction(txn, writes);
        self.schedule(COORD, effects);
    }

    /// Each participant's store pages and log fsync count.
    fn participant_states(&self) -> Vec<(BTreeMap<ObjectId, Vec<u8>>, u64)> {
        [P2, P3]
            .iter()
            .map(|p| (pages(self.node(*p)), self.members[p].disk.log_fsync_count()))
            .collect()
    }
}

#[test]
fn barrier_writes_exactly_what_changed_and_restores_it() {
    let seed = seed();
    let mut cluster = Cluster::new(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let (mut commits, mut aborts, mut version) = (0, 0, 0u64);
    for i in 1..=16u64 {
        let txn = TxnId(i);
        let participant = if rng.gen_bool(0.5) { P2 } else { P3 };
        cluster.drop_prepares_to = None;
        // the first four transactions cover every mode, the rest draw
        match if i <= 4 { i - 1 } else { rng.gen_range(0..4) } {
            0 => {
                cluster.member(participant).node.veto.insert(txn);
            }
            1 => cluster.drop_prepares_to = Some(participant),
            _ => {}
        }
        cluster.begin(txn);
        if i <= 2 || rng.gen_bool(0.5) {
            // an RPC Put to a participant, served at most once however
            // often it is redelivered
            let put = RpcOp::Put(5_000 + i, format!("put {i}").into_bytes());
            let (_, effects) = cluster.member(COORD).node.rpc_call(participant, &put);
            cluster.schedule(COORD, effects);
        }
        if i <= 2 || rng.gen_bool(0.5) {
            // a replica install: a newer version writes, a repeat of the
            // current one changes nothing
            version += u64::from(rng.gen_bool(0.7));
            cluster.queue.push(Event::Deliver {
                from: P2,
                to: P3,
                msg: Message::ReplicaState {
                    object: ObjectId::from_raw(7_000),
                    version,
                    state: StoreBytes::from(format!("replica v{version}").into_bytes()),
                    holder_stale: false,
                },
            });
        }
        cluster.run();
        match cluster.node(COORD).coordinator_outcome(txn) {
            Some(true) => commits += 1,
            _ => aborts += 1,
        }
        if rng.gen_bool(0.3) {
            // fold the log into objects/, so later restores read both
            let member = &cluster.members[&participant];
            member.disk.checkpoint_now().expect("checkpoint");
            assert_restores(participant, &member.dir.0, &member.node, false);
        }
    }
    assert!(
        commits > 0 && aborts > 0,
        "seed {seed}: {commits} commits, {aborts} aborts"
    );

    // every barrier writes a contiguous run, so a hole is damage
    let member = cluster.members.remove(&P2).unwrap();
    let records = member.node.tpc_records().len();
    assert!(records >= 2, "P2 logged {records} records");
    let dir = member.dir.0.clone();
    member.disk.checkpoint_now().expect("checkpoint");
    drop(member.disk);
    let hole = rng.gen_range(0..records - 1) as u64;
    let file = dir
        .join("objects")
        .join(format!("o{}.bin", TPC_LOG_BASE.as_raw() + hole));
    std::fs::remove_file(&file).unwrap_or_else(|e| panic!("remove {}: {e}", file.display()));
    match rebuild(P2, &dir) {
        Err(DiskError::CorruptLog(why)) => assert!(why.contains("missing"), "{why}"),
        other => panic!(
            "a missing record must not restore: {:?}",
            other.map(|n| n.tpc_records())
        ),
    }
}

#[test]
fn unflushed_end_record_costs_one_redundant_decision() {
    let mut cluster = Cluster::new(seed());
    cluster.begin(TxnId(1));
    cluster.run();
    let coord = cluster.members.remove(&COORD).unwrap();
    let live = coord.node.tpc_records();
    assert!(
        matches!(live.last(), Some(TpcRecord::CoordEnd { txn: TxnId(1) })),
        "{live:?}"
    );
    assert_eq!(assert_restores(COORD, &coord.dir.0, &coord.node, false), 1);

    // the coordinator dies after its last barrier, with the end record
    // still in memory
    let Member { node, disk, dir } = coord;
    drop((node, disk));
    let disk = open(&dir.0);
    let mut node = Node::builder()
        .id(COORD)
        .backend(&disk)
        .build()
        .expect("restore");
    assert_eq!(node.tpc_records(), live[..live.len() - 1]);
    let effects = node.recover();
    let mut resent: Vec<NodeId> = effects
        .iter()
        .filter_map(|e| match e {
            Effect::Send {
                to,
                msg:
                    Message::Decision {
                        txn: TxnId(1),
                        commit: true,
                    },
            } => Some(*to),
            _ => None,
        })
        .collect();
    resent.sort_unstable();
    assert_eq!(resent, [P2, P3]);
    cluster.members.insert(COORD, Member { node, disk, dir });

    // each participant acks the re-sent decision without installing
    // again: nothing changes, nothing is written
    let before = cluster.participant_states();
    for effect in effects {
        if let Effect::Send { to, msg } = effect {
            let acks = cluster.member(to).step(|n| n.handle_message(COORD, msg));
            assert!(
                matches!(
                    acks[..],
                    [Effect::Send {
                        to: COORD,
                        msg: Message::Ack { txn: TxnId(1) }
                    }]
                ),
                "{acks:?}"
            );
            cluster.schedule(to, acks);
        }
    }
    assert_eq!(cluster.participant_states(), before);
    cluster.run();

    // the next transaction's forced barrier carries the stale end
    // record along, and the record ids stay dense
    cluster.begin(TxnId(2));
    cluster.run();
    assert_eq!(
        cluster.node(COORD).coordinator_outcome(TxnId(2)),
        Some(true)
    );
    let coord = &cluster.members[&COORD];
    let restored = rebuild(COORD, &coord.dir.0).expect("restore");
    assert!(
        matches!(
            restored.tpc_records()[..],
            [
                TpcRecord::CoordCommit { txn: TxnId(1), .. },
                TpcRecord::CoordEnd { txn: TxnId(1) },
                TpcRecord::CoordCommit { txn: TxnId(2), .. },
            ]
        ),
        "{:?}",
        restored.tpc_records()
    );
    let disk = open(&coord.dir.0);
    let mut ids: Vec<u64> = disk
        .object_ids()
        .expect("ids")
        .into_iter()
        .filter(|o| *o >= TPC_LOG_BASE)
        .map(|o| o.as_raw() - TPC_LOG_BASE.as_raw())
        .collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..restored.tpc_records().len() as u64).collect::<Vec<_>>()
    );
}
