//! A counted row: the versions a fixed history leaves in the chains.
//!
//! `read_mostly`'s preload in small: commits of creates (a sweep runs
//! every 64 stamped commits), then four-object writes over old, fresh
//! and hot objects, then a forced sweep. The counts are logical
//! versions (a created object counts its tombstone base until a sweep
//! drops it), a function of the history and the sweep cadence only, so
//! a change in how chains are stored must leave every number here as it
//! is, and one that keeps fewer versions must show up here as an edit.

use chroma_core::{ObjectId, Runtime};

const COMMITS: usize = 100;
const CREATES: usize = 50;
const WRITES: usize = 64;

#[test]
fn a_fixed_history_leaves_pinned_version_counts() {
    let rt = Runtime::builder().build();
    let mut objects: Vec<ObjectId> = Vec::with_capacity(COMMITS * CREATES);
    for _ in 0..COMMITS {
        let created: Vec<ObjectId> = rt
            .atomic(|a| (0..CREATES).map(|_| a.create(&0u64)).collect())
            .unwrap();
        objects.extend(created);
    }
    // The sweep at the 64th commit left the first 3 200 creations at
    // one version; the last 36 commits' 1 800 still hold their
    // tombstones.
    assert_eq!(rt.version_count(), 6_800, "after the preload");

    for i in 0..WRITES {
        let touched = [
            objects[i],
            objects[2_500 + i],
            // From the last commit: its tombstone is still held.
            objects[COMMITS * CREATES - WRITES + i],
            // Hot: each written eight times.
            objects[3_000 + i % 8],
        ];
        rt.atomic(|a| {
            for &object in &touched {
                a.modify(object, |v: &mut u64| *v += 1)?;
            }
            Ok(())
        })
        .unwrap();
    }
    // The 28th write is the 128th stamped commit, whose sweep leaves
    // every chain at one version; the last 36 writes add four each.
    assert_eq!(rt.version_count(), 5_144, "after the writes");

    let stats = rt.version_gc();
    assert_eq!((stats.reclaimed, stats.retained), (144, 5_000));
    assert_eq!(rt.version_count(), 5_000, "after a forced sweep");
}
