//! Property tests for the storage layer's codec: round-trips on random
//! data and rejection of truncated encodings.

use std::collections::BTreeMap;

use chroma_store::codec::{from_bytes, to_bytes};
use chroma_store::stored;
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
}
