//! Seeded input generators. The benchmark owns them so that no change
//! to the product (or to `chroma-load`'s generators) can alter the
//! load: an operation stream is a pure function of (workload, seed,
//! client, length), and [`stream_hash`] fingerprints it.

/// SplitMix64: tiny, fast, and good enough to pick keys.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// One independent stream per (seed, stream id).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias is below 2^-32 for the
    /// small `n` used here).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over ranks `0..n` by inverting a precomputed CDF — exact, and
/// cheap for the 64 keys the contended workload draws from.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|rank| (rank as f64).powf(-theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a over 64-bit words: the fingerprint of an operation stream.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    #[inline]
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The three action structures of the paper, as the contended workload
/// mixes them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Structure {
    Serializing,
    Glued,
    Independent,
}

/// What a `read_mostly` operation does to its group of four keys.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadMostlyKind {
    /// Declared read-only action: four snapshot reads, no locks.
    Snapshot,
    /// Ordinary action taking four read locks.
    LockedRead,
    /// Stamps all four keys with one new version.
    Write,
}

/// One generated operation. Every workload's stream is made of these;
/// the fields a workload does not use stay zero.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// `durable_commit`: read-modify-write object `index` of the
    /// client's own half.
    Rmw { index: u32 },
    /// `contended_structures`: move one unit from counter `from` to
    /// counter `to` (never equal) inside one `structure`.
    Move {
        structure: Structure,
        from: u8,
        to: u8,
    },
    /// `read_mostly`: `kind` applied to group `group`.
    Group { kind: ReadMostlyKind, group: u32 },
    /// `crash_recovery`: the batch that wrote `object` with `fill`
    /// (template), or the one action committed after a recovery.
    Put { object: u32, fill: u8 },
}

impl Op {
    fn fingerprint(self) -> u64 {
        match self {
            Op::Rmw { index } => 1 << 56 | u64::from(index),
            Op::Move {
                structure,
                from,
                to,
            } => 2 << 56 | (structure as u64) << 16 | u64::from(from) << 8 | u64::from(to),
            Op::Group { kind, group } => 3 << 56 | (kind as u64) << 32 | u64::from(group),
            Op::Put { object, fill } => 4 << 56 | u64::from(fill) << 32 | u64::from(object),
        }
    }
}

/// Which stream to draw; carries the workload's key-space constants.
#[derive(Clone, Copy, Debug)]
pub enum StreamKind {
    /// Uniform over `objects` indices.
    Rmw { objects: u32 },
    /// Zipf(`theta`) pairs over `keys` counters, structures in equal
    /// thirds.
    Move { keys: u8, theta: f64 },
    /// 90 % snapshot / 5 % locked read / 5 % write over `groups`.
    Group { groups: u32 },
    /// Uniform object and fill byte over `objects`.
    Put { objects: u32 },
}

/// A client's operation stream. Iterating it twice from the same
/// arguments yields the same operations, which is how a repetition
/// hashes its input in set-up and then replays it under the clock
/// without holding it in memory.
pub struct OpStream {
    kind: StreamKind,
    rng: Rng,
    zipf: Option<Zipf>,
}

impl OpStream {
    pub fn new(kind: StreamKind, seed: u64, client: u64) -> Self {
        let tag = match kind {
            StreamKind::Rmw { .. } => 1,
            StreamKind::Move { .. } => 2,
            StreamKind::Group { .. } => 3,
            StreamKind::Put { .. } => 4,
        };
        let zipf = match kind {
            StreamKind::Move { keys, theta } => Some(Zipf::new(usize::from(keys), theta)),
            _ => None,
        };
        OpStream {
            kind,
            rng: Rng::new(seed, tag << 8 | client),
            zipf,
        }
    }

    #[inline]
    pub fn next_op(&mut self) -> Op {
        match self.kind {
            StreamKind::Rmw { objects } => Op::Rmw {
                index: self.rng.below(u64::from(objects)) as u32,
            },
            StreamKind::Move { keys, .. } => {
                let zipf = self.zipf.as_ref().expect("move streams carry a zipf table");
                let structure = match self.rng.below(3) {
                    0 => Structure::Serializing,
                    1 => Structure::Glued,
                    _ => Structure::Independent,
                };
                let from = zipf.sample(&mut self.rng) as u8;
                let mut to = zipf.sample(&mut self.rng) as u8;
                if to == from {
                    to = (to + 1) % keys;
                }
                Op::Move {
                    structure,
                    from,
                    to,
                }
            }
            StreamKind::Group { groups } => {
                let kind = match self.rng.below(100) {
                    0..=89 => ReadMostlyKind::Snapshot,
                    90..=94 => ReadMostlyKind::LockedRead,
                    _ => ReadMostlyKind::Write,
                };
                Op::Group {
                    kind,
                    group: self.rng.below(u64::from(groups)) as u32,
                }
            }
            StreamKind::Put { objects } => Op::Put {
                object: self.rng.below(u64::from(objects)) as u32,
                fill: self.rng.below(256) as u8,
            },
        }
    }
}

/// Folds the first `ops` operations of one client's stream into `hash`.
pub fn hash_stream(hash: &mut Fnv, kind: StreamKind, seed: u64, client: u64, ops: u64) {
    let mut stream = OpStream::new(kind, seed, client);
    for _ in 0..ops {
        hash.word(stream.next_op().fingerprint());
    }
}

/// Fingerprint of everything a repetition will be fed: for each client
/// the first `ops_per_client` operations of its stream.
pub fn stream_hash(kind: StreamKind, seed: u64, clients: u64, ops_per_client: u64) -> u64 {
    let mut hash = Fnv::default();
    for client in 0..clients {
        hash_stream(&mut hash, kind, seed, client, ops_per_client);
    }
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [StreamKind; 4] = [
        StreamKind::Rmw { objects: 2048 },
        StreamKind::Move {
            keys: 64,
            theta: 0.99,
        },
        StreamKind::Group { groups: 25_000 },
        StreamKind::Put { objects: 1024 },
    ];

    #[test]
    fn same_seed_same_hash_other_seed_other_hash() {
        for kind in KINDS {
            let a = stream_hash(kind, 42, 2, 5_000);
            assert_eq!(a, stream_hash(kind, 42, 2, 5_000), "{kind:?}");
            assert_ne!(a, stream_hash(kind, 43, 2, 5_000), "{kind:?}");
            // length and client count are part of the input too
            assert_ne!(a, stream_hash(kind, 42, 2, 5_001), "{kind:?}");
            assert_ne!(a, stream_hash(kind, 42, 1, 5_000), "{kind:?}");
        }
    }

    #[test]
    fn clients_draw_different_streams() {
        for kind in KINDS {
            let mut a = OpStream::new(kind, 7, 0);
            let mut b = OpStream::new(kind, 7, 1);
            let same = (0..64).filter(|_| a.next_op() == b.next_op()).count();
            assert!(same < 64, "{kind:?}: client streams must differ");
        }
    }

    #[test]
    fn move_ops_never_pair_a_key_with_itself() {
        let mut stream = OpStream::new(KINDS[1], 1, 0);
        for _ in 0..20_000 {
            let Op::Move { from, to, .. } = stream.next_op() else {
                panic!("move stream yields moves");
            };
            assert_ne!(from, to);
            assert!(from < 64 && to < 64);
        }
    }

    #[test]
    fn read_mostly_mix_is_ninety_five_five() {
        let mut stream = OpStream::new(KINDS[2], 3, 0);
        let mut counts = [0u32; 3];
        for _ in 0..100_000 {
            let Op::Group { kind, group } = stream.next_op() else {
                panic!("group stream yields groups");
            };
            assert!(group < 25_000);
            counts[kind as usize] += 1;
        }
        assert!((89_000..91_000).contains(&counts[0]), "{counts:?}");
        assert!((4_500..5_500).contains(&counts[1]), "{counts:?}");
        assert!((4_500..5_500).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(64, 0.99);
        let mut rng = Rng::new(9, 0);
        let mut hits = [0u32; 64];
        for _ in 0..100_000 {
            hits[zipf.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[7] && hits[7] > hits[63]);
        assert!(hits[63] > 0);
    }
}
