//! `ColourUniverse` under concurrency: four threads claim and release
//! colours through the lock-free live mask while others intern names.
//!
//! Checks that no colour is handed out twice while it is live, that
//! `Exhausted` comes at exactly 64 live colours, that racing
//! `colour("x")` calls agree on one colour, and that a released slot
//! names `<released>`.
//!
//! `CHROMA_TORTURE_SEED` (default 42) draws each thread's schedule.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;

use chroma_base::{Colour, ColourError, ColourUniverse, MAX_LIVE_COLOURS};
use proptest::torture_seed;

const THREADS: u64 = 4;
const ROUNDS: usize = 20_000;

/// splitmix64: one deterministic stream per seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn fresh_and_release_never_hand_out_a_live_colour_twice() {
    let universe = ColourUniverse::new();
    // A named colour stays live throughout: fresh must never hand out
    // its slot, and its name must survive the churn.
    let base = universe.colour("base");
    let owned: Vec<AtomicBool> = (0..MAX_LIVE_COLOURS)
        .map(|_| AtomicBool::new(false))
        .collect();
    owned[base.index()].store(true, Ordering::Relaxed);
    thread::scope(|s| {
        for t in 0..THREADS {
            let (universe, owned) = (&universe, &owned);
            s.spawn(move || {
                let mut rng = torture_seed().unwrap_or(42) ^ (t << 32);
                let mut held: Vec<Colour> = Vec::new();
                for _ in 0..ROUNDS {
                    // Hold up to 20 at once, so four threads reach the
                    // 64-colour budget now and then.
                    if held.len() < 20 && !splitmix(&mut rng).is_multiple_of(3) {
                        match universe.fresh() {
                            Ok(colour) => {
                                assert!(
                                    !owned[colour.index()].swap(true, Ordering::AcqRel),
                                    "{colour} handed out while live"
                                );
                                held.push(colour);
                            }
                            Err(e) => assert_eq!(e, ColourError::Exhausted),
                        }
                    } else if !held.is_empty() {
                        let at = (splitmix(&mut rng) % held.len() as u64) as usize;
                        let colour = held.swap_remove(at);
                        owned[colour.index()].store(false, Ordering::Release);
                        universe.release(colour);
                    }
                }
                for colour in held {
                    owned[colour.index()].store(false, Ordering::Release);
                    universe.release(colour);
                }
            });
        }
    });
    assert_eq!(universe.live_count(), 1);
    assert_eq!(universe.name(base), "base");
    assert_eq!(universe.colour("base"), base);
}

#[test]
fn exhaustion_comes_at_exactly_64_live_colours() {
    let universe = ColourUniverse::new();
    let start = Barrier::new(THREADS as usize);
    let claimed: Vec<Vec<Colour>> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (universe, start) = (&universe, &start);
                s.spawn(move || {
                    start.wait();
                    let mut mine = Vec::new();
                    while let Ok(colour) = universe.fresh() {
                        mine.push(colour);
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut all: Vec<usize> = claimed.iter().flatten().map(|c| c.index()).collect();
    all.sort_unstable();
    assert_eq!(all, (0..MAX_LIVE_COLOURS).collect::<Vec<_>>());
    assert_eq!(universe.live_count(), MAX_LIVE_COLOURS);
    assert_eq!(universe.fresh(), Err(ColourError::Exhausted));
    assert_eq!(universe.try_colour("late"), Err(ColourError::Exhausted));

    // A released slot names `<released>` and is the next one claimed.
    let mut rng = torture_seed().unwrap_or(42);
    let freed = Colour::from_index((splitmix(&mut rng) % MAX_LIVE_COLOURS as u64) as usize);
    universe.release(freed);
    assert_eq!(universe.name(freed), "<released>");
    assert_eq!(universe.live_count(), MAX_LIVE_COLOURS - 1);
    assert_eq!(universe.fresh(), Ok(freed));
    assert_eq!(universe.name(freed), format!("#anon-{}", freed.index()));
}

#[test]
fn racing_interns_of_one_name_return_one_colour() {
    let mut rng = torture_seed().unwrap_or(42);
    for round in 0..200 {
        let universe = ColourUniverse::new();
        // Some anonymous churn first, so the named slot varies.
        let warm: Vec<Colour> = (0..splitmix(&mut rng) % 8)
            .map(|_| universe.fresh().unwrap())
            .collect();
        let start = Barrier::new(THREADS as usize);
        let got: Vec<(Colour, Colour)> = thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (universe, start) = (&universe, &start);
                    s.spawn(move || {
                        start.wait();
                        // Half the threads churn an anonymous colour
                        // before they intern.
                        if t % 2 == 0 {
                            let c = universe.fresh().unwrap();
                            universe.release(c);
                        }
                        (universe.colour("x"), universe.colour("y"))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let (x, y) = got[0];
        assert_ne!(x, y, "round {round}");
        assert!(
            got.iter().all(|&pair| pair == (x, y)),
            "round {round}: {got:?}"
        );
        assert_eq!(universe.name(x), "x");
        assert_eq!(universe.name(y), "y");
        assert_eq!(universe.live_count(), warm.len() + 2);
        universe.release(x);
        assert_eq!(universe.name(x), "<released>");
        assert_ne!(universe.colour("x"), y);
        assert_eq!(universe.name(y), "y");
    }
}
