//! The stored byte format, pinned. Every literal below was captured
//! from the serde-driven codec that `Stored` replaced, so data
//! directories, in-flight RPC bodies and the benchmark written by that
//! build still read under this one. Also: a rejection corpus for
//! hostile input, and a whole `DiskStore` directory written by that
//! build, opened here.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use chroma_base::ObjectId;
use chroma_store::codec::{from_bytes, to_bytes, CodecError, Stored};
use chroma_store::{stored, DiskStore};

/// Decodes a hex literal.
fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// `value` encodes to exactly `hex`, and `hex` decodes to `value`.
fn golden<T: Stored + PartialEq + Debug>(value: &T, hex: &str) {
    let bytes = unhex(hex);
    assert_eq!(to_bytes(value).unwrap(), bytes, "encoding of {value:?}");
    assert_eq!(&from_bytes::<T>(&bytes).unwrap(), value, "decoding {hex}");
}

stored! {
    /// A struct with a signed field and a nested sequence.
    #[derive(Clone, Debug, PartialEq)]
    struct Account {
        owner: String,
        balance: i64,
        tags: Vec<String>,
    }
}

stored! {
    /// Every variant shape: tuple, newtype, unit and struct.
    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        Put(u64, Vec<u8>),
        Get(u64),
        Ping,
        Move { from: u64, to: Option<u64> },
    }
}

/// The benchmark's `read_mostly`/`durable_commit` value: a version and
/// a 240-byte pad.
fn bench_value() -> (u64, Vec<u8>) {
    (7, vec![0; 240])
}

fn bench_value_hex() -> String {
    format!("0700000000000000f000000000000000{}", "00".repeat(240))
}

/// `KeyedDirectory`'s bucket shape.
fn bucket() -> Vec<(String, Vec<u8>)> {
    vec![("a".into(), vec![1, 2]), ("bc".into(), vec![])]
}

fn directory() -> BTreeMap<String, String> {
    BTreeMap::from([
        ("printer".to_owned(), "node-3".to_owned()),
        ("disk".to_owned(), "node-1".to_owned()),
    ])
}

fn account() -> Account {
    Account {
        owner: "ada".into(),
        balance: -120,
        tags: vec!["vip".into()],
    }
}

const I64: &str = "d6ffffffffffffff";
const U64: &str = "0807060504030201";
const STRING: &str = "09000000000000006368726f6d6120cebb";
const SOME: &str = "01010000000000000078";
const NONE: &str = "00";
const BUCKET: &str =
    "020000000000000001000000000000006102000000000000000102020000000000000062630000000000000000";
const DIRECTORY: &str = concat!(
    "020000000000000004000000000000006469736b06000000000000006e6f64652d31",
    "07000000000000007072696e74657206000000000000006e6f64652d33",
);
const ACCOUNT: &str =
    "030000000000000061646188ffffffffffffff01000000000000000300000000000000766970";
const OPS: [&str; 4] = [
    "0000000005000000000000000300000000000000010203",
    "010000000500000000000000",
    "02000000",
    "030000000100000000000000010200000000000000",
];

fn ops() -> [Op; 4] {
    [
        Op::Put(5, vec![1, 2, 3]),
        Op::Get(5),
        Op::Ping,
        Op::Move {
            from: 1,
            to: Some(2),
        },
    ]
}

#[test]
fn primitives_keep_their_bytes() {
    golden(&-42i64, I64);
    golden(&0x0102_0304_0506_0708u64, U64);
    golden(&(true, 'λ', -2.25f64, 3u8), "01bb03000000000000000002c003");
    golden(&(-5i16, 7u32, 9i32, 2.5f32), "fbff070000000900000000002040");
    golden(
        &(1u16, -1i8, 1u128, -1i128),
        "0100ff01000000000000000000000000000000ffffffffffffffffffffffffffffffff",
    );
    golden(&(false,), "00");
    golden(&(), "");
}

#[test]
fn containers_keep_their_bytes() {
    golden(&bench_value(), &bench_value_hex());
    golden(&String::from("chroma λ"), STRING);
    golden(&Some(String::from("x")), SOME);
    golden(&Option::<String>::None, NONE);
    golden(&bucket(), BUCKET);
    golden(&directory(), DIRECTORY);
}

#[test]
fn stored_types_keep_their_bytes() {
    golden(&account(), ACCOUNT);
    for (op, hex) in ops().iter().zip(OPS) {
        golden(op, hex);
    }
}

/// Decodes a whole buffer as one fixed type, discarding the value.
type Check = fn(&[u8]) -> Result<(), CodecError>;

fn check<T: Stored>(bytes: &[u8]) -> Result<(), CodecError> {
    from_bytes::<T>(bytes).map(drop)
}

/// Every literal above, with a decoder for its type.
fn corpus() -> Vec<(String, Check)> {
    let mut corpus: Vec<(String, Check)> = vec![
        (I64.into(), check::<i64>),
        (U64.into(), check::<u64>),
        (bench_value_hex(), check::<(u64, Vec<u8>)>),
        (STRING.into(), check::<String>),
        (SOME.into(), check::<Option<String>>),
        (NONE.into(), check::<Option<String>>),
        (BUCKET.into(), check::<Vec<(String, Vec<u8>)>>),
        (DIRECTORY.into(), check::<BTreeMap<String, String>>),
        (ACCOUNT.into(), check::<Account>),
    ];
    corpus.extend(
        OPS.iter()
            .map(|hex| ((*hex).to_owned(), check::<Op> as Check)),
    );
    corpus
}

#[test]
fn every_strict_prefix_is_unexpected_end() {
    for (hex, decode) in corpus() {
        let bytes = unhex(&hex);
        assert_eq!(decode(&bytes), Ok(()), "{hex}");
        for cut in 0..bytes.len() {
            assert_eq!(
                decode(&bytes[..cut]),
                Err(CodecError::UnexpectedEnd),
                "{hex} cut at {cut}"
            );
        }
    }
}

#[test]
fn one_trailing_byte_is_rejected() {
    for (hex, decode) in corpus() {
        let mut bytes = unhex(&hex);
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(CodecError::TrailingBytes(1)), "{hex}");
    }
}

fn assert_invalid<T: Stored + Debug>(bytes: &[u8]) {
    match from_bytes::<T>(bytes) {
        Err(CodecError::InvalidValue(_)) => {}
        other => panic!("{bytes:02x?}: expected InvalidValue, got {other:?}"),
    }
}

#[test]
fn out_of_range_values_are_invalid() {
    assert_invalid::<bool>(&[2]);
    assert_invalid::<Option<String>>(&[2]);
    // length 2, then a lone continuation byte and 0xFF
    assert_invalid::<String>(&unhex("020000000000000080ff"));
    assert_invalid::<char>(&0xD800u32.to_le_bytes());
    // the serde-driven codec said `Message(..)` here
    assert_invalid::<Op>(&4u32.to_le_bytes());
    assert_invalid::<Op>(&u32::MAX.to_le_bytes());
}

#[test]
fn huge_length_prefixes_fail_fast() {
    let huge = u64::MAX.to_le_bytes();
    let start = Instant::now();
    assert_eq!(from_bytes::<Vec<u8>>(&huge), Err(CodecError::UnexpectedEnd));
    assert_eq!(
        from_bytes::<Vec<String>>(&huge),
        Err(CodecError::UnexpectedEnd)
    );
    assert_eq!(
        from_bytes::<BTreeMap<String, String>>(&huge),
        Err(CodecError::UnexpectedEnd)
    );
    assert_eq!(from_bytes::<String>(&huge), Err(CodecError::UnexpectedEnd));
    // a few bytes of elements behind the huge count change nothing
    let mut bytes = huge.to_vec();
    bytes.extend_from_slice(&[1, 2, 3]);
    assert_eq!(
        from_bytes::<Vec<u8>>(&bytes),
        Err(CodecError::UnexpectedEnd)
    );
    assert!(start.elapsed() < Duration::from_secs(1));
}

/// The `MANIFEST` of a store directory written by the serde-driven
/// build: one committed batch, never checkpointed.
const MANIFEST: &str = "CHMAN001\nseg 1\n";

/// That directory's one segment: magic, then ten intents (objects 1–10,
/// one per shape above) and the batch's commit marker.
const SEGMENT: &str = concat!(
    "43484c4f473030312400000000000000010000000000000001000000000000000800000000000000d6ffffffffffffff",
    "19f961aa24000000000000000100000000000000020000000000000008000000000000000807060504030201751bce90",
    "1c010000000000000100000000000000030000000000000000010000000000000700000000000000f000000000000000",
    "000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "b835b5d42d0000000000000001000000000000000400000000000000110000000000000009000000000000006368726f",
    "6d6120cebb40252a5e2600000000000000010000000000000005000000000000000a0000000000000001010000000000",
    "00007842ce9def1d00000000000000010000000000000006000000000000000100000000000000009c58ae3749000000",
    "00000000010000000000000007000000000000002d000000000000000200000000000000010000000000000061020000",
    "000000000001020200000000000000626300000000000000001748472f5b000000000000000100000000000000080000",
    "00000000003f00000000000000020000000000000004000000000000006469736b06000000000000006e6f64652d3107",
    "000000000000007072696e74657206000000000000006e6f64652d33c26ff39342000000000000000100000000000000",
    "09000000000000002600000000000000030000000000000061646188ffffffffffffff01000000000000000300000000",
    "0000007669700ebfc6ca310000000000000001000000000000000a000000000000001500000000000000030000000100",
    "000000000000010200000000000000112731820c0000000100000001000000000000006cd4961c",
);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chroma-codec-golden-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn read<T: Stored>(store: &DiskStore, object: u64) -> T {
    let bytes = store
        .read(ObjectId::from_raw(object))
        .unwrap()
        .unwrap_or_else(|| panic!("object {object} missing"));
    from_bytes(&bytes).unwrap_or_else(|e| panic!("object {object}: {e}"))
}

#[test]
fn directory_written_by_the_serde_build_opens() {
    let dir = temp_dir();
    std::fs::create_dir_all(dir.join("segments")).unwrap();
    std::fs::create_dir_all(dir.join("objects")).unwrap();
    std::fs::write(dir.join("MANIFEST"), MANIFEST).unwrap();
    std::fs::write(dir.join("segments/seg-00000001.log"), unhex(SEGMENT)).unwrap();

    let store = DiskStore::open(&dir).unwrap();
    let replay = store.replay_stats();
    assert_eq!((replay.batches, replay.records), (1, 11));
    assert_eq!(read::<i64>(&store, 1), -42);
    assert_eq!(read::<u64>(&store, 2), 0x0102_0304_0506_0708);
    assert_eq!(read::<(u64, Vec<u8>)>(&store, 3), bench_value());
    assert_eq!(read::<String>(&store, 4), "chroma λ");
    assert_eq!(read::<Option<String>>(&store, 5), Some("x".into()));
    assert_eq!(read::<Option<String>>(&store, 6), None);
    assert_eq!(read::<Vec<(String, Vec<u8>)>>(&store, 7), bucket());
    assert_eq!(read::<BTreeMap<String, String>>(&store, 8), directory());
    assert_eq!(read::<Account>(&store, 9), account());
    assert_eq!(read::<Op>(&store, 10), ops()[3]);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
