//! Property tests for the storage layer: codec round-trips on random
//! data and intentions-list recovery under crashes at every point.

use std::collections::{BTreeMap, HashMap};

use chroma_base::ObjectId;
use chroma_store::codec::{from_bytes, to_bytes};
use chroma_store::{stored, CommitCrashPoint, StableStore, StoreBytes};
use proptest::prelude::*;

stored! {
    #[derive(Clone, Debug, PartialEq)]
    enum Tree {
        Leaf(i64),
        Pair(Vec<Tree>, Vec<Tree>),
        Tagged { label: String, values: Vec<u32> },
        Nothing,
    }
}

fn tree_strategy() -> impl Strategy<Value = Tree> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Tree::Leaf),
        Just(Tree::Nothing),
        (".{0,12}", prop::collection::vec(any::<u32>(), 0..5))
            .prop_map(|(label, values)| Tree::Tagged { label, values }),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        (inner.clone(), inner).prop_map(|(a, b)| Tree::Pair(vec![a], vec![b]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn codec_round_trips_random_trees(tree in tree_strategy()) {
        let bytes = to_bytes(&tree).expect("encode");
        let back: Tree = from_bytes(&bytes).expect("decode");
        prop_assert_eq!(back, tree);
    }

    #[test]
    fn codec_round_trips_random_maps(
        map in prop::collection::hash_map(".{0,8}", any::<(bool, Option<i32>)>(), 0..16)
            .prop_map(|map| map.into_iter().collect::<BTreeMap<_, _>>())
    ) {
        let bytes = to_bytes(&map).expect("encode");
        let back: BTreeMap<String, (bool, Option<i32>)> = from_bytes(&bytes).expect("decode");
        prop_assert_eq!(back, map);
    }

    #[test]
    fn codec_rejects_truncations(tree in tree_strategy()) {
        let bytes = to_bytes(&tree).expect("encode");
        if bytes.len() > 1 {
            // Any strict prefix must fail, never panic or loop.
            let cut = bytes.len() / 2;
            prop_assert!(from_bytes::<Tree>(&bytes[..cut]).is_err());
        }
    }

    /// Crash a random subset of batches at random points; after
    /// recovery, exactly the batches that reached their commit record
    /// are installed — each in full.
    #[test]
    fn intentions_recovery_is_all_or_nothing(
        batches in prop::collection::vec(
            (
                prop::collection::vec((0..6u64, any::<u8>()), 1..4),
                prop_oneof![
                    Just(None),
                    Just(Some(CommitCrashPoint::BeforeIntents)),
                    Just(Some(CommitCrashPoint::AfterIntents)),
                    Just(Some(CommitCrashPoint::AfterCommitRecord)),
                    Just(Some(CommitCrashPoint::AfterInstall)),
                ],
            ),
            1..10,
        )
    ) {
        let store = StableStore::new();
        // Model of what must survive: replay writes of batches that
        // reached the commit record, in order.
        let mut model: HashMap<ObjectId, u8> = HashMap::new();
        for (writes, crash) in &batches {
            let updates: Vec<(ObjectId, StoreBytes)> = writes
                .iter()
                .map(|&(o, v)| (ObjectId::from_raw(o), StoreBytes::from(vec![v])))
                .collect();
            let survives = !matches!(
                crash,
                Some(CommitCrashPoint::BeforeIntents) | Some(CommitCrashPoint::AfterIntents)
            );
            let _ = store.commit_batch_with_crash(updates, *crash);
            // A crash interrupts everything after it; recovery completes
            // committed batches. We recover after every batch to model
            // the node coming back before the next one.
            store.recover();
            if survives {
                for &(o, v) in writes {
                    model.insert(ObjectId::from_raw(o), v);
                }
            }
        }
        store.recover(); // idempotent
        for object in 0..6u64 {
            let expected = model
                .get(&ObjectId::from_raw(object))
                .map(|&v| StoreBytes::from(vec![v]));
            prop_assert_eq!(store.read(ObjectId::from_raw(object)), expected);
        }
        prop_assert_eq!(store.log_len(), 0);
    }
}
