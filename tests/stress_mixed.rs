//! Seeded stress test: all action structures and the §4 billing and
//! bulletin-board apps running concurrently over shared objects, with
//! failure injection, lock-free snapshot scans and a crash at the end —
//! then a full consistency audit, once in memory and once on
//! `DiskBackend`.
//!
//! The point is interaction coverage: serializing fences vs independent
//! actions vs plain atomics contending for the same objects, with the
//! system-wide invariants (no lost updates among committed work, no
//! leaked locks, accounting identities, no failure an arm did not
//! inject) checked at the end, the watchdog running in-line on every
//! event and the whole trace audited clean under R1–R11. A deadlock
//! cycle the detector misses shows up as a lock timeout and fails the
//! run. `CHROMA_TORTURE_SEED` (default 42) selects the
//! run, so a failing CI seed reproduces locally.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use chroma::apps::{BulletinBoard, Ledger};
use chroma::core::{ActionError, DiskBackend, PermanenceBackend, Runtime, RuntimeConfig};
use chroma::obs::{EventBus, MemorySink, TraceAuditor, Watchdog};
use chroma::structures::{CompensatingChain, GluedChain, SerializingAction};
use chroma::typed::EscrowCounter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORKERS: u64 = 6;
const ROUNDS: usize = 40;
const CELLS: usize = 8;
/// Posts the periodic prune keeps on the board.
const KEEP_POSTS: usize = 16;

fn torture_seed() -> u64 {
    std::env::var("CHROMA_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

#[test]
fn mixed_structures_stress() {
    let seed = torture_seed();
    stress(seed, None);

    let dir = std::env::temp_dir().join(format!("chroma-stress-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let backend = Arc::new(DiskBackend::open(&dir).expect("open disk backend"));
    stress(seed, Some(backend));
    std::fs::remove_dir_all(&dir).ok();
}

fn stress(seed: u64, backend: Option<Arc<dyn PermanenceBackend>>) {
    let bus = Arc::new(EventBus::new());
    let sink = Arc::new(MemorySink::new(1_000_000));
    bus.add_sink(sink.clone());
    let watchdog = Watchdog::attach(&bus);
    let mut builder = Runtime::builder()
        .config(RuntimeConfig {
            lock_timeout: Some(Duration::from_secs(5)),
        })
        .obs(bus.clone());
    if let Some(backend) = backend {
        builder = builder.backend(backend);
    }
    let rt = builder.build();

    let cells: Vec<_> = (0..CELLS)
        .map(|_| rt.create_object(&0i64).unwrap())
        .collect();
    let counter = EscrowCounter::create(&rt, 8).unwrap();
    let ledger = Ledger::create(&rt).unwrap();
    let board = BulletinBoard::create(&rt).unwrap();
    // Oracles: committed increments per cell, committed escrow adds,
    // ledger charges that committed, posts made and pruned, and the
    // posts whose invoker aborted (each must end up retracted).
    let oracle: Vec<AtomicI64> = (0..CELLS).map(|_| AtomicI64::new(0)).collect();
    let committed_adds = AtomicI64::new(0);
    let charges = AtomicU64::new(0);
    let posted = AtomicUsize::new(0);
    let pruned = AtomicUsize::new(0);
    let compensated = Mutex::new(BTreeSet::new());
    let unexpected = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        let (rt, cells, oracle) = (&rt, &cells, &oracle);
        let (counter, ledger, board) = (&counter, &ledger, &board);
        let (committed_adds, charges) = (&committed_adds, &charges);
        let (posted, pruned, compensated) = (&posted, &pruned, &compensated);
        let unexpected = &unexpected;
        for worker in 0..WORKERS {
            scope.spawn(move || {
                let mut rng =
                    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ worker);
                let account = format!("w{worker}");
                for _ in 0..ROUNDS {
                    match rng.gen_range(0..8) {
                        // Plain atomic increment of a random cell,
                        // sometimes deliberately failing.
                        0 => {
                            let cell = rng.gen_range(0..cells.len());
                            let fail = rng.gen_bool(0.3);
                            let result = rt.atomic_retry(100, |a| {
                                a.modify(cells[cell], |v: &mut i64| *v += 1)?;
                                if fail {
                                    Err(ActionError::failed("injected"))
                                } else {
                                    Ok(())
                                }
                            });
                            if sort(unexpected, "atomic", &result, |e| fail && injected(e)) {
                                oracle[cell].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // Serializing action over two cells; second step
                        // sometimes fails (first step's effect stays).
                        // Two wrappers whose fences each block the
                        // other's second step really deadlock, and the
                        // detector breaks the cycle by victimising a step.
                        1 => {
                            let c1 = rng.gen_range(0..cells.len());
                            let c2 = rng.gen_range(0..cells.len());
                            let fail_second = rng.gen_bool(0.4);
                            let sa = SerializingAction::begin(rt).unwrap();
                            let step1 = sa.step(|s| s.modify(cells[c1], |v: &mut i64| *v += 1));
                            if sort(unexpected, "serializing step 1", &step1, |_| false) {
                                oracle[c1].fetch_add(1, Ordering::Relaxed);
                            }
                            if c1 != c2 {
                                let step2 = sa.step(|s| {
                                    s.modify(cells[c2], |v: &mut i64| *v += 1)?;
                                    if fail_second {
                                        Err(ActionError::failed("injected"))
                                    } else {
                                        Ok(())
                                    }
                                });
                                let expected = |e: &ActionError| {
                                    e.is_deadlock_victim() || (fail_second && injected(e))
                                };
                                if sort(unexpected, "serializing step 2", &step2, expected) {
                                    oracle[c2].fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            sa.end().unwrap();
                        }
                        // Glued pair handing one cell over.
                        2 => {
                            let cell = rng.gen_range(0..cells.len());
                            let chain = GluedChain::begin(rt, 2).unwrap();
                            let first = chain.step(|s| {
                                s.modify(cells[cell], |v: &mut i64| *v += 1)?;
                                s.hand_over(cells[cell])
                            });
                            if sort(unexpected, "glued step 1", &first, |_| false) {
                                oracle[cell].fetch_add(1, Ordering::Relaxed);
                                let second =
                                    chain.step(|s| s.modify(cells[cell], |v: &mut i64| *v += 1));
                                if sort(unexpected, "glued step 2", &second, |_| false) {
                                    oracle[cell].fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            chain.end().unwrap();
                        }
                        // Escrow add + ledger charge from an aborting
                        // invoker: both must survive.
                        3 => {
                            let add = rt.atomic_retry(100, |a| counter.add(a, 1));
                            if sort(unexpected, "escrow add", &add, |_| false) {
                                committed_adds.fetch_add(1, Ordering::Relaxed);
                            }
                            let r: Result<(), ActionError> = rt.atomic(|a| {
                                ledger.charge_from(a, &account, "op", 1)?;
                                Err(ActionError::failed("invoker aborts"))
                            });
                            // The charge committed iff the body reached the
                            // injected failure.
                            sort(unexpected, "charge", &r, injected);
                            if matches!(r, Err(ActionError::Failed(_))) {
                                charges.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // Compensating chain: two steps, second fails →
                        // unwind; net effect zero.
                        4 => {
                            let cell = rng.gen_range(0..cells.len());
                            let chain = CompensatingChain::begin(rt);
                            let target = cells[cell];
                            let step = chain.step(
                                "inc",
                                |s| s.modify(target, |v: &mut i64| *v += 1),
                                move |s| s.modify(target, |v: &mut i64| *v -= 1),
                            );
                            if sort(unexpected, "compensating step", &step, |_| false) {
                                let report = chain.unwind().unwrap();
                                assert!(report.is_clean());
                            } else {
                                chain.complete();
                            }
                        }
                        // Lock-free snapshot scan of every cell: a
                        // re-read inside one snapshot is repeatable
                        // whatever writers commit meanwhile.
                        5 => {
                            let snap = rt.begin_read_only();
                            for &cell in cells.iter() {
                                let v: i64 = snap.read(cell).unwrap();
                                assert_eq!(snap.read::<i64>(cell).unwrap(), v, "snapshot re-read");
                            }
                            snap.end();
                        }
                        // Metered service: the charge stands whether or
                        // not the service body (a cell increment) fails;
                        // sometimes settle the ledger afterwards.
                        6 => {
                            let cell = rng.gen_range(0..cells.len());
                            let fail = rng.gen_bool(0.3);
                            let mut charged = false;
                            let r = rt.atomic(|a| {
                                ledger.metered(a, &account, "svc", 1, |s| {
                                    charged = true;
                                    s.modify(cells[cell], |v: &mut i64| *v += 1)?;
                                    if fail {
                                        Err(ActionError::failed("injected"))
                                    } else {
                                        Ok(())
                                    }
                                })
                            });
                            if charged {
                                charges.fetch_add(1, Ordering::Relaxed);
                            }
                            if sort(unexpected, "metered", &r, |e| fail && injected(e)) {
                                oracle[cell].fetch_add(1, Ordering::Relaxed);
                            }
                            if rng.gen_bool(0.5) {
                                ledger.settle().unwrap();
                            }
                        }
                        // Post from a sometimes-aborting invoker: the
                        // post stands either way, and an aborted
                        // invoker compensates by retracting it; the
                        // board is pruned now and then.
                        _ => {
                            let fail = rng.gen_bool(0.5);
                            let mut seq = None;
                            let r: Result<(), ActionError> = rt.atomic(|a| {
                                seq = Some(board.post_from(a, &account, "stress post")?);
                                if fail {
                                    Err(ActionError::failed("invoker aborts"))
                                } else {
                                    Ok(())
                                }
                            });
                            sort(unexpected, "post", &r, |e| fail && injected(e));
                            if let Some(seq) = seq {
                                posted.fetch_add(1, Ordering::Relaxed);
                                if r.is_err() {
                                    compensated.lock().unwrap().insert(seq);
                                    board.retract(seq).unwrap();
                                }
                            }
                            if rng.gen_bool(0.3) {
                                pruned
                                    .fetch_add(board.prune(KEEP_POSTS).unwrap(), Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });

    // ---- audit ----
    // 1. No leaked locks.
    assert_eq!(rt.lock_entry_count(), 0);
    // 2. Every cell matches the oracle of committed increments.
    for (i, cell) in cells.iter().enumerate() {
        let actual = rt.read_committed::<i64>(*cell).unwrap();
        let expected = oracle[i].load(Ordering::Relaxed);
        assert_eq!(actual, expected, "cell {i}");
    }
    // 3. Escrow counter, ledger and board match their oracles.
    assert_eq!(
        counter.committed_value(&rt).unwrap(),
        committed_adds.load(Ordering::Relaxed)
    );
    let charged = charges.load(Ordering::Relaxed);
    assert_eq!(ledger.total().unwrap(), charged);
    let posts_left = posted.load(Ordering::Relaxed) - pruned.load(Ordering::Relaxed);
    let compensated = compensated.into_inner().unwrap();
    let posts = board.posts().unwrap();
    assert_eq!(posts.len(), posts_left);
    for post in &posts {
        assert_eq!(
            post.retracted,
            compensated.contains(&post.seq),
            "post {}",
            post.seq
        );
    }
    // 4. Crash and re-audit: committed state is unchanged.
    rt.crash_and_recover();
    for (i, cell) in cells.iter().enumerate() {
        assert_eq!(
            rt.read_committed::<i64>(*cell).unwrap(),
            oracle[i].load(Ordering::Relaxed),
            "cell {i} after crash"
        );
    }
    assert_eq!(ledger.total().unwrap(), charged, "ledger after crash");
    assert_eq!(board.posts().unwrap(), posts, "board after crash");
    // 5. Bookkeeping identity.
    let stats = rt.stats();
    assert_eq!(stats.begun, stats.committed + stats.aborted);
    // 6. No arm failed other than by its injected failure, and no lock
    // wait ran into its timeout.
    let unexpected = unexpected.into_inner().unwrap();
    assert!(unexpected.is_empty(), "seed {seed}: {unexpected:?}");
    // 7. The watchdog stayed silent and the whole trace audits clean.
    assert_eq!(watchdog.violations(), 0, "seed {seed}: watchdog violations");
    assert_eq!(sink.dropped(), 0, "trace truncated; grow the sink");
    let report = TraceAuditor::audit_events(&sink.events());
    assert!(report.is_clean(), "seed {seed}: {report}");
}

/// Sorts an arm's outcome: `true` if it succeeded. An error the arm
/// does not `expect` is recorded in `unexpected` — a lock `Timeout`, for
/// one, is a deadlock cycle the detector missed.
fn sort<T>(
    unexpected: &Mutex<Vec<String>>,
    arm: &str,
    result: &Result<T, ActionError>,
    expect: impl Fn(&ActionError) -> bool,
) -> bool {
    match result {
        Ok(_) => true,
        Err(e) if expect(e) => false,
        Err(e) => {
            unexpected.lock().unwrap().push(format!("{arm}: {e}"));
            false
        }
    }
}

/// The failure the arms inject.
fn injected(e: &ActionError) -> bool {
    matches!(e, ActionError::Failed(_))
}
