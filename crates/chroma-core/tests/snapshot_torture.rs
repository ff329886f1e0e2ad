//! MVCC snapshot torture: concurrent Zipfian writers racing long
//! read-only snapshot scans, across crash/recover schedules, with the
//! full event trace audited clean under R1–R10 — plus one negative
//! trace per R10 sub-rule proving the auditor actually bites.
//!
//! Seeded like the rest of the torture tooling: `CHROMA_TORTURE_SEED`
//! selects the run, so a failing CI seed reproduces locally.

// the exact-vs-windowed differential check, shared with chroma-obs's
// own suites: every audit below holds the windowed policy to the
// exact one on the same recording
#[path = "../../chroma-obs/tests/agreement/mod.rs"]
mod agreement;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use chroma_base::{ActionId, Colour, ObjectId};
use chroma_core::Runtime;
use chroma_obs::{Event, EventBus, EventKind, MemorySink, Obs, Observable, Violation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use zipf::Zipf;

fn torture_seed() -> u64 {
    std::env::var("CHROMA_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// SplitMix64 step — derives independent sub-seeds from the run seed.
fn splitmix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const KEYS: u64 = 128;
const WRITERS: usize = 4;
const READERS: usize = 2;
const COMMITS_PER_WRITER: u64 = 300;
const ROUNDS: u64 = 3;

/// The torture centrepiece: rounds of concurrent Zipf-skewed
/// increments racing full-table snapshot scans, a crash/recover
/// between rounds, and the whole trace audited clean at the end.
///
/// Each scan asserts two MVCC guarantees directly:
/// * **repeatability** — re-reading a key inside one snapshot returns
///   the identical value, no matter what writers commit meanwhile;
/// * **monotonicity** — writers only increment, so a later snapshot
///   must see per-key values at least as large as an earlier one from
///   the same reader thread.
#[test]
fn zipfian_writers_vs_snapshot_scans_survive_crashes_and_audit_clean() {
    let seed = torture_seed();
    let rt = Runtime::builder().build();
    let bus = Arc::new(EventBus::new());
    let sink = Arc::new(MemorySink::new(2_000_000));
    bus.add_sink(sink.clone());
    rt.install_obs(Obs::new(bus));

    let objects: Arc<Vec<ObjectId>> = Arc::new(
        (0..KEYS)
            .map(|_| rt.create_object(&0u64).expect("create key"))
            .collect(),
    );

    for round in 0..ROUNDS {
        let barrier = Arc::new(Barrier::new(WRITERS + READERS));
        let writers_done = Arc::new(AtomicU64::new(0));

        let writer_handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let rt = rt.clone();
                let objects = Arc::clone(&objects);
                let barrier = Arc::clone(&barrier);
                let writers_done = Arc::clone(&writers_done);
                let zipf_seed = splitmix(seed, round * 100 + w as u64);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(zipf_seed);
                    let zipf = Zipf::new(KEYS, 0.9);
                    barrier.wait();
                    for _ in 0..COMMITS_PER_WRITER {
                        let object = objects[zipf.sample(&mut rng) as usize];
                        rt.atomic(|a| a.modify(object, |v: &mut u64| *v += 1))
                            .expect("writer commit");
                    }
                    writers_done.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();

        let reader_handles: Vec<_> = (0..READERS)
            .map(|_| {
                let rt = rt.clone();
                let objects = Arc::clone(&objects);
                let barrier = Arc::clone(&barrier);
                let writers_done = Arc::clone(&writers_done);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut floor = vec![0u64; KEYS as usize];
                    // Scan until every writer finished, then once more so
                    // the final frontier is observed too.
                    let mut last_pass = false;
                    loop {
                        let snap = rt.begin_read_only();
                        for (i, &object) in objects.iter().enumerate() {
                            let v: u64 = snap.read(object).expect("snapshot read");
                            let again: u64 = snap.read(object).expect("snapshot re-read");
                            assert_eq!(v, again, "snapshot read not repeatable");
                            assert!(
                                v >= floor[i],
                                "snapshot went backwards: key {i} was {} now {v}",
                                floor[i]
                            );
                            floor[i] = v;
                        }
                        snap.end();
                        if last_pass {
                            break;
                        }
                        last_pass = writers_done.load(Ordering::Relaxed) == WRITERS as u64;
                    }
                    floor.iter().sum::<u64>()
                })
            })
            .collect();

        for h in writer_handles {
            h.join().expect("writer thread");
        }
        let mut scanned_totals = Vec::new();
        for h in reader_handles {
            scanned_totals.push(h.join().expect("reader thread"));
        }
        // The last scan ran after every writer committed, so it must
        // have observed the full round's increments over all rounds so
        // far.
        let expected = (round + 1) * WRITERS as u64 * COMMITS_PER_WRITER;
        for total in scanned_totals {
            assert_eq!(total, expected, "final scan missed committed increments");
        }

        // Crash between rounds — all threads joined first, so no
        // in-flight snapshot read straddles the NodeCrash event.
        rt.crash_and_recover();
        let snap = rt.begin_read_only();
        let total: u64 = objects.iter().map(|&o| snap.read::<u64>(o).unwrap()).sum();
        snap.end();
        assert_eq!(total, expected, "committed increments lost in crash");
    }

    assert_eq!(sink.dropped(), 0, "trace truncated; grow the sink");
    let events = sink.events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SnapshotRead { .. })),
        "torture run produced no snapshot reads"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::VersionPublish { .. })),
        "torture run published no versions"
    );
    let report = agreement::audit(&events);
    assert!(report.is_clean(), "seed {seed}: {report}");
}

#[test]
fn crash_kills_open_snapshots() {
    let rt = Runtime::builder().build();
    let bus = Arc::new(EventBus::new());
    let sink = Arc::new(MemorySink::new(100_000));
    bus.add_sink(sink.clone());
    rt.install_obs(Obs::new(bus));

    let o = rt.create_object(&7u64).unwrap();
    let snap = rt.begin_read_only();
    assert_eq!(snap.read::<u64>(o).unwrap(), 7);
    assert_eq!(rt.live_snapshot_count(), 1);

    rt.crash_and_recover();
    assert_eq!(rt.live_snapshot_count(), 0);
    assert!(
        matches!(
            snap.read::<u64>(o),
            Err(chroma_core::ActionError::NotActive(_))
        ),
        "snapshot survived the crash"
    );
    drop(snap); // the scope's drop must not double-report the action

    // Committed state survived; a fresh snapshot serves it.
    let fresh = rt.begin_read_only();
    assert_eq!(fresh.read::<u64>(o).unwrap(), 7);
    fresh.end();

    assert_eq!(sink.dropped(), 0);
    let report = agreement::audit(&sink.events());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn gc_never_reclaims_reachable_versions_and_bounds_chains() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0u64).unwrap();

    // Pin the base with a long-lived snapshot, then write through
    // several automatic GC cycles (one fires every 64 stamped commits).
    let pinned = rt.begin_read_only();
    for _ in 0..200 {
        rt.atomic(|a| a.modify(o, |v: &mut u64| *v += 1)).unwrap();
    }
    rt.version_gc();
    assert_eq!(
        pinned.read::<u64>(o).unwrap(),
        0,
        "GC reclaimed a version a live snapshot needed"
    );
    assert_eq!(rt.read_committed::<u64>(o).unwrap(), 200);

    // Closing the snapshot unpins history: the next sweep keeps only
    // the newest version.
    pinned.end();
    rt.version_gc();
    assert_eq!(rt.version_chain_len(o), 1, "chain not bounded after GC");
    let fresh = rt.begin_read_only();
    assert_eq!(fresh.read::<u64>(o).unwrap(), 200);
    fresh.end();
}

// --- R10 negative traces: one per sub-rule -------------------------

fn ev(kind: EventKind) -> Event {
    Event::at(0, kind)
}

/// R10a: a snapshot read that serves an *older* version than the
/// newest one visible at the snapshot's stamps must be flagged.
#[test]
fn auditor_flags_stale_snapshot_read() {
    let snap = ActionId::from_raw(1);
    let o = ObjectId::from_raw(9);
    let c = Colour::from_index(0);
    let trace = vec![
        ev(EventKind::VersionPublish {
            object: o,
            colour: c,
            stamp: 1,
        }),
        ev(EventKind::VersionPublish {
            object: o,
            colour: c,
            stamp: 2,
        }),
        ev(EventKind::ActionBegin {
            action: snap,
            parent: None,
            colours: 0,
        }),
        ev(EventKind::SnapshotOpen {
            action: snap,
            colour: c,
            stamp: 2,
        }),
        ev(EventKind::SnapshotRead {
            action: snap,
            object: o,
            colour: c,
            stamp: 1, // stale: stamp 2 is visible
        }),
        ev(EventKind::ActionCommit { action: snap }),
    ];
    let report = agreement::audit(&trace);
    assert!(matches!(
        report.violations.as_slice(),
        [Violation::SnapshotReadNotNewest {
            served: 1,
            expected: 2,
            ..
        }]
    ));
}

/// R10a (future-read side): serving a version *beyond* the captured
/// stamp breaks snapshot isolation and must be flagged.
#[test]
fn auditor_flags_snapshot_read_beyond_its_stamp() {
    let snap = ActionId::from_raw(1);
    let o = ObjectId::from_raw(9);
    let c = Colour::from_index(0);
    let trace = vec![
        ev(EventKind::VersionPublish {
            object: o,
            colour: c,
            stamp: 1,
        }),
        ev(EventKind::ActionBegin {
            action: snap,
            parent: None,
            colours: 0,
        }),
        ev(EventKind::SnapshotOpen {
            action: snap,
            colour: c,
            stamp: 1,
        }),
        ev(EventKind::VersionPublish {
            object: o,
            colour: c,
            stamp: 2,
        }),
        ev(EventKind::SnapshotRead {
            action: snap,
            object: o,
            colour: c,
            stamp: 2, // beyond the captured frontier
        }),
        ev(EventKind::ActionCommit { action: snap }),
    ];
    let report = agreement::audit(&trace);
    assert!(matches!(
        report.violations.as_slice(),
        [Violation::SnapshotReadNotNewest {
            served: 2,
            expected: 1,
            ..
        }]
    ));
}

/// R10b: a snapshot action appearing in lock traffic must be flagged —
/// the whole point of declared read-only actions is never touching the
/// lock table.
#[test]
fn auditor_flags_snapshot_reader_in_lock_traffic() {
    let snap = ActionId::from_raw(1);
    let o = ObjectId::from_raw(9);
    let c = Colour::from_index(0);
    let trace = vec![
        ev(EventKind::ActionBegin {
            action: snap,
            parent: None,
            colours: 0,
        }),
        ev(EventKind::SnapshotOpen {
            action: snap,
            colour: c,
            stamp: 0,
        }),
        ev(EventKind::LockRequest {
            action: snap,
            object: o,
            colour: c,
            mode: chroma_base::LockMode::Read,
        }),
        ev(EventKind::ActionCommit { action: snap }),
    ];
    let report = agreement::audit(&trace);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SnapshotReaderLocks { .. })),
        "{report}"
    );
}

// --- seeded Zipfian key sampling ---------------------------------

mod zipf {
    //! Seeded Zipfian key sampling with configurable skew.
    //!
    //! The generator follows Gray et al.'s classic "Quickly Generating
    //! Billion-Record Synthetic Databases" construction (the one YCSB
    //! uses): ranks are drawn from the Zipf CDF by inversion using the
    //! precomputed harmonic sums, so a draw is O(1) after an O(n) setup.
    //! Rank 0 is the hottest key; `theta = 0` degenerates to the uniform
    //! distribution and `theta → 1` concentrates almost all probability on
    //! a handful of ranks.
    //!
    //! Hot ranks are *scattered* across the key space with a Fibonacci
    //! multiplicative hash before being returned, so "the hottest keys"
    //! are not also "adjacent keys" — adjacency would couple hot-key skew
    //! with whatever locality the executor's object layout has.

    use rand::rngs::StdRng;
    use rand::Rng;

    /// A seeded Zipfian sampler over ranks `0..n`.
    #[derive(Clone, Debug)]
    pub struct Zipf {
        n: u64,
        theta: f64,
        alpha: f64,
        zetan: f64,
        eta: f64,
    }

    impl Zipf {
        /// Builds a sampler over `n` keys with skew `theta`.
        ///
        /// # Panics
        ///
        /// If `n == 0` or `theta` is outside `[0, 1)` (the inversion
        /// constants diverge at exactly 1; use 0.99 for "very hot").
        #[must_use]
        pub fn new(n: u64, theta: f64) -> Self {
            assert!(n > 0, "zipf over an empty key space");
            assert!(
                (0.0..1.0).contains(&theta),
                "zipf theta must be in [0, 1), got {theta}"
            );
            let zetan = zeta(n, theta);
            let zeta2 = zeta(2.min(n), theta);
            let alpha = 1.0 / (1.0 - theta);
            let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
            Zipf {
                n,
                theta,
                alpha,
                zetan,
                eta,
            }
        }

        /// Draws one Zipf-distributed *rank* (0 = hottest).
        #[must_use]
        pub fn sample_rank(&self, rng: &mut StdRng) -> u64 {
            if self.theta == 0.0 {
                return rng.gen_range(0..self.n);
            }
            let u: f64 = rng.gen_range(0.0..1.0);
            let uz = u * self.zetan;
            if uz < 1.0 {
                return 0;
            }
            if uz < 1.0 + 0.5_f64.powf(self.theta) && self.n >= 2 {
                return 1;
            }
            let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
            rank.min(self.n - 1)
        }

        /// Draws one key: a Zipf rank scattered over `0..n` so hot keys are
        /// spread across the key space.
        #[must_use]
        pub fn sample(&self, rng: &mut StdRng) -> u64 {
            scatter(self.sample_rank(rng), self.n)
        }
    }

    /// The truncated harmonic sum `Σ_{i=1..n} 1/i^theta`.
    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Deterministically scatters a rank over `0..n` (Fibonacci hash, then
    /// modulo). Not a permutation for general `n`, but collision-sparse and
    /// stable across runs, which is all key scattering needs.
    #[must_use]
    pub fn scatter(rank: u64, n: u64) -> u64 {
        rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % n
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use rand::SeedableRng;

        #[test]
        fn uniform_when_theta_zero() {
            let z = Zipf::new(16, 0.0);
            let mut rng = StdRng::seed_from_u64(1);
            let mut seen = [0u64; 16];
            for _ in 0..16_000 {
                seen[z.sample_rank(&mut rng) as usize] += 1;
            }
            assert!(seen.iter().all(|&c| c > 600), "{seen:?}");
        }

        #[test]
        fn skew_concentrates_on_low_ranks() {
            let z = Zipf::new(1 << 16, 0.9);
            let mut rng = StdRng::seed_from_u64(7);
            let mut hot = 0u64;
            const DRAWS: u64 = 20_000;
            for _ in 0..DRAWS {
                if z.sample_rank(&mut rng) < 64 {
                    hot += 1;
                }
            }
            // With theta = 0.9 the first 64 of 65536 ranks carry ~28% of
            // the mass (harmonic-sum ratio); uniform would give ~0.1%.
            assert!(hot > DRAWS / 5, "hot draws: {hot}/{DRAWS}");
        }

        #[test]
        fn deterministic_per_seed() {
            let z = Zipf::new(1024, 0.7);
            let mut a = StdRng::seed_from_u64(42);
            let mut b = StdRng::seed_from_u64(42);
            for _ in 0..1000 {
                assert_eq!(z.sample(&mut a), z.sample(&mut b));
            }
        }

        #[test]
        fn samples_stay_in_range() {
            for theta in [0.0, 0.5, 0.99] {
                let z = Zipf::new(37, theta);
                let mut rng = StdRng::seed_from_u64(3);
                for _ in 0..5_000 {
                    assert!(z.sample(&mut rng) < 37);
                }
            }
        }

        #[test]
        #[should_panic(expected = "theta must be in [0, 1)")]
        fn theta_one_rejected() {
            let _ = Zipf::new(10, 1.0);
        }
    }
}
