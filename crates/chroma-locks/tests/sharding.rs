//! Sharded lock-table semantics: cross-shard deadlock detection,
//! disjoint-object scalability and multi-shard bookkeeping walks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use chroma_base::{ActionId, Colour, LockError, LockMode, ObjectId};
use chroma_locks::{ColouredPolicy, FlatAncestry, LockTable};
use chroma_obs::{EventBus, Obs, Observable};

fn a(n: u64) -> ActionId {
    ActionId::from_raw(n)
}
fn o(n: u64) -> ObjectId {
    ObjectId::from_raw(n)
}
fn red() -> Colour {
    Colour::from_index(0)
}

/// Two object ids guaranteed to land on different shards.
fn objects_on_distinct_shards<P>(table: &LockTable<P>) -> (ObjectId, ObjectId) {
    let first = o(1);
    let home = table.shard_of(first);
    for raw in 2..10_000 {
        if table.shard_of(o(raw)) != home {
            return (first, o(raw));
        }
    }
    panic!("hash never left shard {home} — sharding is broken");
}

/// A deadlock whose cycle spans two shards must still be detected:
/// the waits-for graph is global even though lock state is sharded.
#[test]
fn cross_shard_deadlock_is_detected_and_victimises_one_action() {
    let table = Arc::new(LockTable::new(ColouredPolicy));
    assert!(table.shard_count() > 1, "test needs a sharded table");
    let (oa, ob) = objects_on_distinct_shards(&table);

    let ctx = FlatAncestry::new();
    table
        .try_acquire(&ctx, a(1), oa, red(), LockMode::Write)
        .unwrap();
    table
        .try_acquire(&ctx, a(2), ob, red(), LockMode::Write)
        .unwrap();

    let victims = Arc::new(AtomicUsize::new(0));
    let winners = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for (me, wanted) in [(1u64, ob), (2, oa)] {
        let table = Arc::clone(&table);
        let ctx = ctx.clone();
        let victims = Arc::clone(&victims);
        let winners = Arc::clone(&winners);
        handles.push(std::thread::spawn(move || {
            match table.acquire(
                &ctx,
                a(me),
                wanted,
                red(),
                LockMode::Write,
                Some(Duration::from_secs(30)),
            ) {
                Err(LockError::DeadlockVictim { object }) => {
                    assert_eq!(object, wanted);
                    victims.fetch_add(1, Ordering::SeqCst);
                    // Aborting the victim unblocks the survivor.
                    table.release_colour(a(me), red());
                    table.retire_action(a(me));
                }
                Ok(_) => {
                    winners.fetch_add(1, Ordering::SeqCst);
                }
                Err(other) => panic!("expected deadlock or grant, got {other:?}"),
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(victims.load(Ordering::SeqCst), 1, "exactly one victim");
    assert_eq!(winners.load(Ordering::SeqCst), 1, "exactly one survivor");
}

/// Eight threads hammering disjoint objects never park: disjoint-object
/// acquires touch different shards (or at least different wait queues)
/// and must not manufacture waits.
#[test]
fn disjoint_object_burst_records_zero_waits() {
    let table = Arc::new(LockTable::new(ColouredPolicy));
    let ctx = FlatAncestry::new();
    let threads = 8;
    let per_thread = 200u64;
    let mut handles = Vec::new();
    for t in 0..threads {
        let table = Arc::clone(&table);
        let ctx = ctx.clone();
        handles.push(std::thread::spawn(move || {
            let action = a(t + 1);
            for i in 0..per_thread {
                let object = o(1 + t * per_thread + i);
                table
                    .acquire(&ctx, action, object, red(), LockMode::Write, None)
                    .unwrap();
            }
            let released = table.release_colour(action, red());
            assert_eq!(released.len(), per_thread as usize);
            table.retire_action(action);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        table.wait_stats().waits,
        0,
        "disjoint objects must not park"
    );
    assert_eq!(table.entry_count(), 0);
    for shard in table.shard_wait_stats() {
        assert_eq!(shard.waits, 0);
    }
}

/// `inherit_colour` and `release_colour` walk every shard the action
/// touched; nothing may be stranded on a far shard.
#[test]
fn inherit_and_release_span_all_shards() {
    let table = LockTable::new(ColouredPolicy);
    let ctx = FlatAncestry::new();
    let count = 4 * table.shard_count() as u64;
    let mut shards_touched = std::collections::HashSet::new();
    for raw in 0..count {
        table
            .try_acquire(&ctx, a(1), o(raw), red(), LockMode::Write)
            .unwrap();
        shards_touched.insert(table.shard_of(o(raw)));
    }
    assert!(shards_touched.len() > 1, "objects should span shards");

    let moved = table.inherit_colour(a(1), red(), a(2));
    assert_eq!(moved.len(), count as usize);
    assert!(table.locks_of(a(1)).is_empty());
    assert_eq!(table.locks_of(a(2)).len(), count as usize);

    let released = table.release_colour(a(2), red());
    assert_eq!(released.len(), count as usize);
    assert_eq!(table.entry_count(), 0);
}

/// A parked wait is attributed to its shard: the contention metric and
/// the per-shard wait histogram both fire.
#[test]
fn contended_wait_emits_shard_contention_metric() {
    let table = Arc::new(LockTable::new(ColouredPolicy));
    let bus = Arc::new(EventBus::new());
    table.install_obs(Obs::new(bus.clone()));
    let ctx = FlatAncestry::new();

    let hot = o(42);
    let shard = table.shard_of(hot);
    table
        .try_acquire(&ctx, a(1), hot, red(), LockMode::Write)
        .unwrap();
    let waiter = {
        let table = Arc::clone(&table);
        let ctx = ctx.clone();
        std::thread::spawn(move || {
            table.acquire(
                &ctx,
                a(2),
                hot,
                red(),
                LockMode::Write,
                Some(Duration::from_secs(10)),
            )
        })
    };
    std::thread::sleep(Duration::from_millis(30));
    table.release_colour(a(1), red());
    waiter.join().unwrap().unwrap();

    let snapshot = bus.snapshot();
    assert!(
        snapshot.histogram("locks.shard_contention").is_some(),
        "missing locks.shard_contention"
    );
    let per_shard = format!("locks.wait_us.shard{shard}");
    assert!(
        snapshot.histogram(&per_shard).is_some(),
        "missing {per_shard}"
    );
    let stats = table.shard_wait_stats();
    assert_eq!(stats[shard].waits, 1);
}
