//! Wait statistics: blocking acquisitions are counted and timed.

use std::sync::Arc;
use std::time::Duration;

use chroma_base::{ActionId, Colour, LockMode, ObjectId};
use chroma_locks::{ColouredPolicy, FlatAncestry, LockTable};

fn a(n: u64) -> ActionId {
    ActionId::from_raw(n)
}
fn o(n: u64) -> ObjectId {
    ObjectId::from_raw(n)
}
fn red() -> Colour {
    Colour::from_index(0)
}

#[test]
fn uncontended_acquisitions_record_no_waits() {
    let table = LockTable::new(ColouredPolicy);
    let ctx = FlatAncestry::new();
    for i in 0..10 {
        table
            .acquire(&ctx, a(i), o(i), red(), LockMode::Write, None)
            .unwrap();
    }
    let stats = table.wait_stats();
    assert_eq!(stats.waits, 0);
    assert_eq!(stats.total_wait_micros, 0);
    assert_eq!(stats.mean_wait_micros(), 0.0);
}

#[test]
fn contended_acquisition_records_one_timed_wait() {
    let table = Arc::new(LockTable::new(ColouredPolicy));
    let ctx = FlatAncestry::new();
    table
        .try_acquire(&ctx, a(1), o(1), red(), LockMode::Write)
        .unwrap();
    let t2 = Arc::clone(&table);
    let ctx2 = ctx.clone();
    let waiter = std::thread::spawn(move || {
        t2.acquire(
            &ctx2,
            a(2),
            o(1),
            red(),
            LockMode::Write,
            Some(Duration::from_secs(5)),
        )
    });
    std::thread::sleep(Duration::from_millis(40));
    table.release_colour(a(1), red());
    waiter.join().unwrap().unwrap();
    let stats = table.wait_stats();
    assert_eq!(stats.waits, 1);
    // Parked for roughly the 40ms hold; definitely >= 20ms.
    assert!(
        stats.total_wait_micros >= 20_000,
        "waited only {}µs",
        stats.total_wait_micros
    );
    assert!(stats.mean_wait_micros() >= 20_000.0);
}

#[test]
fn timeout_also_counts_as_a_wait() {
    let table = LockTable::new(ColouredPolicy);
    let ctx = FlatAncestry::new();
    table
        .try_acquire(&ctx, a(1), o(1), red(), LockMode::Write)
        .unwrap();
    let _ = table.acquire(
        &ctx,
        a(2),
        o(1),
        red(),
        LockMode::Write,
        Some(Duration::from_millis(20)),
    );
    let stats = table.wait_stats();
    assert_eq!(stats.waits, 1);
    assert!(stats.total_wait_micros >= 15_000);
}

#[test]
fn totals_are_the_sum_over_shards() {
    let table = Arc::new(LockTable::new(ColouredPolicy));
    let ctx = FlatAncestry::new();
    // two held objects in different shards, one waiter on each
    let first = o(1);
    let second = (2..)
        .map(o)
        .find(|&x| table.shard_of(x) != table.shard_of(first))
        .unwrap();
    for object in [first, second] {
        table
            .try_acquire(&ctx, a(1), object, red(), LockMode::Write)
            .unwrap();
    }
    let waiters: Vec<_> = [(a(2), first), (a(3), second)]
        .into_iter()
        .map(|(action, object)| {
            let (table, ctx) = (Arc::clone(&table), ctx.clone());
            std::thread::spawn(move || {
                table.acquire(
                    &ctx,
                    action,
                    object,
                    red(),
                    LockMode::Write,
                    Some(Duration::from_secs(5)),
                )
            })
        })
        .collect();
    while table.waiting_count() < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }
    table.release_colour(a(1), red());
    for waiter in waiters {
        waiter.join().unwrap().unwrap();
    }
    let shards = table.shard_wait_stats();
    let total = table.wait_stats();
    assert_eq!(total.waits, 2);
    assert_eq!(total.waits, shards.iter().map(|s| s.waits).sum::<u64>());
    assert_eq!(
        total.total_wait_micros,
        shards.iter().map(|s| s.total_wait_micros).sum::<u64>()
    );
    for object in [first, second] {
        assert_eq!(shards[table.shard_of(object)].waits, 1, "{object}");
    }
}
