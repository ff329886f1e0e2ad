//! The delta durability barrier: `Node::barrier` writes only what a
//! handler changed, and only forced 2PC records wait for it.
//!
//! A coordinator and two participants are driven by hand through
//! `handle_message` / `handle_timer`, each over its own `DiskStore`,
//! with the barrier after every handler — the `chroma-node` loop without
//! the sockets. A seeded schedule (`CHROMA_TORTURE_SEED`) mixes commits,
//! vetoes, prepare timeouts, reordered and duplicated prepares and
//! decisions, RPC `Put`s and replica installs. After every barrier a
//! node rebuilt from a reopened store must equal the live one, up to
//! end records still waiting for a barrier that writes: a `CoordEnd`
//! over the `CoordCommit` it replaces, a `ParticipantDone` over the
//! `Prepared` it replaces or over nothing.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use chroma_base::{NodeId, ObjectId};
use chroma_dist::{Effect, Message, Node, RpcOp, TimerTag, TpcRecord, TxnId, Write, TPC_LOG_BASE};
use chroma_store::{codec, DiskError, DiskStore, DiskStoreOptions, OsFs, StoreBytes};
use proptest::torture_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// The node's objects as it reads them, except its 2PC records, which
/// come from its store: a staged `CoordEnd` shadows the `CoordCommit`
/// a restore still reads at the same key.
fn pages(node: &Node) -> BTreeMap<ObjectId, Vec<u8>> {
    let store = node.store();
    store
        .object_ids()
        .expect("ids")
        .into_iter()
        .map(|o| {
            let page = if o < TPC_LOG_BASE {
                node.read(o)
            } else {
                store.read(o).expect("read")
            };
            (o, page.expect("listed").to_vec())
        })
        .collect()
}

/// Every object a handler in these tests writes: a transaction's at
/// `1_000 + txn`, an RPC `Put`'s at `5_000 + i` (both number at most
/// 16) and the replica at `7_000`.
fn handler_objects() -> impl Iterator<Item = ObjectId> {
    (1_001..=1_016)
        .chain(5_001..=5_016)
        .chain([7_000])
        .map(ObjectId::from_raw)
}

/// The handlers' objects as the node reads them, stage included: what
/// the next barrier must write, read before it runs. Unlike [`pages`],
/// no 2PC record appears, so a barrier cannot count its own write of
/// one as a change.
fn staged_pages(node: &Node) -> BTreeMap<ObjectId, Vec<u8>> {
    handler_objects()
        .filter_map(|o| Some((o, node.read(o)?.to_vec())))
        .collect()
}

/// Bytes in the files the store's manifest names.
fn log_bytes(dir: &Path) -> u64 {
    DiskStore::live_segment_paths(&OsFs, dir)
        .expect("manifest")
        .iter()
        .map(|p| std::fs::metadata(p).expect("segment").len())
        .sum()
}

fn is_end(record: &TpcRecord) -> bool {
    matches!(
        record,
        TpcRecord::CoordEnd { .. } | TpcRecord::ParticipantDone { .. }
    )
}

/// A record's transaction and role (`true` = participant).
fn slot(record: &TpcRecord) -> (TxnId, bool) {
    match record {
        TpcRecord::CoordCommit { txn, .. } | TpcRecord::CoordEnd { txn } => (*txn, false),
        TpcRecord::Prepared { txn, .. } | TpcRecord::ParticipantDone { txn } => (*txn, true),
    }
}

/// What the reopened store rebuilds must be the live node's table,
/// except where the live table holds an end record still waiting for a
/// barrier that writes: a `CoordEnd` over the disk's `CoordCommit`, a
/// `ParticipantDone` over the disk's `Prepared` or over no record.
/// `forced` says there must be no such record. Returns how many there
/// are.
fn assert_restores(id: NodeId, dir: &Path, live: &Node, forced: bool) -> usize {
    let restored = rebuild(id, dir).expect("restore");
    assert_eq!(pages(&restored), pages(live), "{id}: store pages differ");
    let (live_table, disk_table) = (live.tpc_records(), restored.tpc_records());
    let mut disk: BTreeMap<(TxnId, bool), &TpcRecord> =
        disk_table.iter().map(|r| (slot(r), r)).collect();
    let mut unflushed = 0;
    for live in &live_table {
        match (live, disk.remove(&slot(live))) {
            (_, Some(disk)) if live == disk => {}
            (TpcRecord::CoordEnd { .. }, Some(TpcRecord::CoordCommit { .. }))
            | (TpcRecord::ParticipantDone { .. }, Some(TpcRecord::Prepared { .. }) | None) => {
                unflushed += 1;
            }
            (_, disk) => panic!("{id}: live {live:?} but disk {disk:?}"),
        }
    }
    assert!(
        disk.is_empty(),
        "{id}: disk table {disk_table:?} against live {live_table:?}"
    );
    if forced {
        assert_eq!(unflushed, 0, "{id}: a writing barrier left end records");
    }
    unflushed
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
    /// exactly when the handler changed something it must force: an
    /// object, or a record other than an end record. What changed is
    /// read before the barrier runs.
    fn step(&mut self, handler: impl FnOnce(&mut Node) -> Vec<Effect>) -> Vec<Effect> {
        let (pages_before, records_before) = (staged_pages(&self.node), self.node.tpc_records());
        let (fsyncs, bytes) = (self.disk.log_fsync_count(), log_bytes(&self.dir.0));
        let effects = handler(&mut self.node);
        let forced = staged_pages(&self.node) != pages_before
            || self
                .node
                .tpc_records()
                .iter()
                .any(|r| !is_end(r) && !records_before.contains(r));
        self.node.barrier();
        let id = self.node.id();
        let unlisted: Vec<ObjectId> = pages(&self.node)
            .into_keys()
            .filter(|&o| o < TPC_LOG_BASE && !handler_objects().any(|h| h == o))
            .collect();
        assert!(
            unlisted.is_empty(),
            "{id}: handler_objects misses {unlisted:?}"
        );
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
    let seed = torture_seed().unwrap_or(42);
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
            // fold the log into an image, so later restores read both
            let member = &cluster.members[&participant];
            member.disk.checkpoint_now().expect("checkpoint");
            assert_restores(participant, &member.dir.0, &member.node, false);
        }
    }
    assert!(
        commits > 0 && aborts > 0,
        "seed {seed}: {commits} commits, {aborts} aborts"
    );

    // every record lives at its transaction's key for its role, so one
    // anywhere else is damage: copy a drawn record to the participant
    // key of a transaction the run never began
    let member = cluster.members.remove(&P2).unwrap();
    let records = member.node.tpc_records();
    assert!(!records.is_empty(), "P2 logged no records");
    let record = &records[rng.gen_range(0..records.len())];
    let elsewhere = ObjectId::from_raw(TPC_LOG_BASE.as_raw() + 2 * 99 + 1);
    let bytes = StoreBytes::from(codec::to_bytes(record).expect("encode"));
    member
        .disk
        .commit_batch(vec![(elsewhere, bytes)])
        .expect("commit");
    let Member { node, disk, dir } = member;
    drop((node, disk));
    match rebuild(P2, &dir.0) {
        Err(DiskError::CorruptLog(why)) => assert!(why.contains("misplaced"), "{why}"),
        other => panic!(
            "a misplaced record must not restore: {:?}",
            other.map(|n| n.tpc_records())
        ),
    }
}

#[test]
fn unflushed_end_record_costs_one_redundant_decision() {
    let mut cluster = Cluster::new(torture_seed().unwrap_or(42));
    cluster.begin(TxnId(1));
    cluster.run();
    let coord = cluster.members.remove(&COORD).unwrap();
    let live = coord.node.tpc_records();
    assert!(
        matches!(live[..], [TpcRecord::CoordEnd { txn: TxnId(1) }]),
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
    let restored = node.tpc_records();
    assert!(
        matches!(restored[..], [TpcRecord::CoordCommit { txn: TxnId(1), .. }]),
        "{restored:?}"
    );
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
    // record along, over the commit record it replaces
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
    assert_eq!(ids, [2, 4]);
}

#[test]
fn vetoing_participants_abort_forces_nothing_and_is_cheap_to_lose() {
    let mut cluster = Cluster::new(torture_seed().unwrap_or(42));
    let txn = TxnId(1);
    cluster.member(P2).node.veto.insert(txn);
    let fsyncs = cluster.members[&P2].disk.log_fsync_count();
    cluster.begin(txn);
    cluster.run();
    assert_eq!(cluster.node(COORD).coordinator_outcome(txn), None);
    let p2 = cluster.members.remove(&P2).unwrap();
    assert!(p2.node.resolved(txn), "P2 never learned the abort");
    assert_eq!(
        p2.disk.log_fsync_count(),
        fsyncs,
        "a vetoing participant's abort forced a barrier"
    );
    assert_eq!(assert_restores(P2, &p2.dir.0, &p2.node, false), 1);

    // P2 crashes before any later barrier: the end record is lost, so a
    // duplicated late `Prepare` finds no record and prepares afresh
    let Member { node, disk, dir } = p2;
    drop((node, disk));
    let disk = open(&dir.0);
    let mut node = Node::builder()
        .id(P2)
        .backend(&disk)
        .build()
        .expect("restore");
    assert_eq!(node.tpc_records(), []);
    assert!(node.recover().is_empty(), "nothing to recover");
    cluster.members.insert(P2, Member { node, disk, dir });
    let object = ObjectId::from_raw(1_000 + txn.0);
    let late = Message::Prepare {
        txn,
        writes: vec![Write {
            object,
            state: StoreBytes::from(b"late".to_vec()),
        }],
        coordinator: COORD,
    };
    let effects = cluster.member(P2).step(|n| n.handle_message(COORD, late));
    cluster.schedule(P2, effects);
    assert!(cluster.node(P2).in_doubt(txn));

    // the coordinator holds no record, so its answer to P2's query is
    // the presumed abort: P2 resolves and installs nothing
    cluster.run();
    let p2 = cluster.node(P2);
    assert!(p2.resolved(txn) && !p2.in_doubt(txn));
    assert_eq!(p2.read(object), None);
    assert_eq!(p2.store().read(object).expect("read"), None);
}
