//! The paper's claims as tests: one per row of `EXPERIMENTS.md` that no
//! other test already pins (E01–E09, E11, E12, E14, A1–A4, A7).
//!
//! Each test asserts its row exactly: outcomes, which effects survive
//! which aborts, and who blocked whom. No test reads a clock. A claim
//! that bodies run concurrently is checked by making them meet at a
//! [`Rendezvous`] they can only pass together; a claim that a structure
//! protects an object names the action that blocks a bystander.
//!
//! Seeded rows (A1's schedules, A3's lossy simulations, E03's failure
//! draws) take `CHROMA_TORTURE_SEED` when it is set.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use chroma::apps::{
    schedule_meeting, Diary, DistMake, Ledger, Makefile, ReplicatedNameServer, ScheduleOutcome,
    Slot,
};
use chroma::base::{ActionId, Colour, ColourSet, LockDenied, LockError, LockMode, ObjectId};
use chroma::core::{ActionError, Runtime, RuntimeConfig};
use chroma::dist::{Sim, Write};
use chroma::locks::{ClassicPolicy, ColouredPolicy, FlatAncestry, LockTable};
use chroma::obs::{
    EventBus, EventKind, FlightRecorder, Obs, Observable, Outcome, SpanForest, SpanKind,
};
use chroma::store::StoreBytes;
use chroma::structures::compiler::{assign, Structure};
use chroma::structures::{independent_sync, GluedChain, GluedGroup, SerializingAction};
use chroma::EscrowCounter;
use proptest::torture_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rt_fast() -> Runtime {
    Runtime::builder()
        .config(RuntimeConfig {
            lock_timeout: Some(Duration::from_millis(500)),
        })
        .build()
}

/// The action whose lock stops a bystander from write-locking `object`
/// right now, or `None` if the object is free.
fn blocker(rt: &Runtime, object: ObjectId) -> Option<ActionId> {
    let probe = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .expect("begin probe");
    let outcome = rt
        .scope(probe)
        .and_then(|s| s.try_lock(rt.default_colour(), object, LockMode::Write));
    rt.abort(probe);
    match outcome {
        Ok(()) => None,
        Err(ActionError::Lock(LockError::Denied {
            reason: LockDenied::ConflictingHolder { holder, .. },
            ..
        })) => Some(holder),
        Err(other) => panic!("probe of {object} failed oddly: {other}"),
    }
}

fn free(rt: &Runtime, object: ObjectId) -> bool {
    blocker(rt, object).is_none()
}

fn objects(rt: &Runtime, n: usize, initial: i64) -> Vec<ObjectId> {
    (0..n)
        .map(|_| rt.create_object(&initial).expect("create"))
        .collect()
}

/// A meeting point `parties` bodies can only pass together.
///
/// The wait is bounded: if the others never arrive (because something
/// ran the bodies one at a time), the rendezvous breaks, and every body
/// that reaches it then fails too. A regression fails the test instead
/// of hanging it.
struct Rendezvous {
    parties: usize,
    /// Arrivals so far, and whether a waiter gave up.
    state: Mutex<(usize, bool)>,
    all_here: Condvar,
}

impl Rendezvous {
    const PATIENCE: Duration = Duration::from_secs(10);

    fn new(parties: usize) -> Self {
        Rendezvous {
            parties,
            state: Mutex::new((0, false)),
            all_here: Condvar::new(),
        }
    }

    fn meet(&self) -> Result<(), ActionError> {
        let mut state = self.state.lock().expect("rendezvous lock");
        state.0 += 1;
        self.all_here.notify_all();
        let (mut state, _) = self
            .all_here
            .wait_timeout_while(state, Self::PATIENCE, |(arrived, broken)| {
                *arrived < self.parties && !*broken
            })
            .expect("rendezvous lock");
        if state.1 {
            return Err(ActionError::failed(
                "rendezvous already broken: the bodies did not all run at once",
            ));
        }
        if state.0 >= self.parties {
            return Ok(());
        }
        state.1 = true;
        self.all_here.notify_all();
        Err(ActionError::failed(format!(
            "rendezvous broken: only {} of {} bodies ran at once",
            state.0, self.parties
        )))
    }
}

// ---------------------------------------------------------------------
// E01–E09: the action structures (§3, figs. 1–9)
// ---------------------------------------------------------------------

/// Fig. 1: nested actions run concurrently within a parent; their
/// commits are not permanent, and the parent's abort undoes them.
#[test]
fn e01_nested_actions_run_concurrently_and_abort_with_the_parent() {
    let rt = Runtime::builder().build();
    let objects = objects(&rt, 4, 0);
    let parent = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .expect("begin");
    let all_running = Rendezvous::new(objects.len());
    let children: Vec<Result<(), ActionError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = objects
            .iter()
            .map(|&object| {
                let (rt, all_running) = (&rt, &all_running);
                scope.spawn(move || {
                    rt.run_nested(
                        parent,
                        ColourSet::single(rt.default_colour()),
                        rt.default_colour(),
                        |child| {
                            child.write(object, &1i64)?;
                            all_running.meet()
                        },
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(children.iter().all(Result::is_ok), "{children:?}");
    for &o in &objects {
        // Committed children: visible inside the parent, not permanent,
        // and their locks passed to the parent.
        assert_eq!(rt.read_current::<i64>(o).unwrap(), 1);
        assert_eq!(rt.read_committed::<i64>(o).unwrap(), 0);
        assert_eq!(blocker(&rt, o), Some(parent));
    }
    rt.abort(parent);
    for &o in &objects {
        assert_eq!(rt.read_current::<i64>(o).unwrap(), 0);
        assert!(free(&rt, o));
    }
}

/// Fig. 2: if B completes but A then fails, A's abort undoes all of B.
#[test]
fn e02_nesting_forfeits_completed_work() {
    let rt = Runtime::builder().build();
    let objects = objects(&rt, 16, 0);
    let result: Result<(), ActionError> = rt.atomic(|a| {
        a.nested(|b| {
            for &o in &objects {
                b.write(o, &1i64)?;
            }
            Ok(())
        })?;
        Err(ActionError::failed("A aborts after B committed"))
    });
    assert!(matches!(result, Err(ActionError::Failed(_))));
    for &o in &objects {
        assert_eq!(rt.read_committed::<i64>(o).unwrap(), 0);
    }
}

/// Fig. 3: a serializing action ends in exactly one of (i) nothing, if
/// B aborts; (ii) B and C; (iii) B only, if C aborts — the outcome
/// plain nesting cannot give.
#[test]
fn e03_serializing_action_has_exactly_three_outcomes() {
    let rt = rt_fast();
    let mut rng = StdRng::seed_from_u64(torture_seed().unwrap_or(0));
    let mut seen = [0u32; 3];
    for _ in 0..120 {
        let (b_obj, c_obj) = (
            rt.create_object(&0i64).unwrap(),
            rt.create_object(&0i64).unwrap(),
        );
        let (fail_b, fail_c) = (rng.gen_bool(0.25), rng.gen_bool(1.0 / 3.0));
        let sa = SerializingAction::begin(&rt).unwrap();
        let b = sa.step(|s| {
            s.write(b_obj, &1i64)?;
            if fail_b {
                return Err(ActionError::failed("B fails"));
            }
            Ok(())
        });
        if b.is_ok() {
            let _ = sa.step(|s| {
                s.write(c_obj, &1i64)?;
                if fail_c {
                    return Err(ActionError::failed("C fails"));
                }
                Ok(())
            });
        }
        sa.end().unwrap();
        let outcome = (
            rt.read_committed::<i64>(b_obj).unwrap(),
            rt.read_committed::<i64>(c_obj).unwrap(),
        );
        let (expected, index) = match (fail_b, fail_c) {
            (true, _) => ((0, 0), 0),
            (false, false) => ((1, 1), 1),
            (false, true) => ((1, 0), 2),
        };
        assert_eq!(outcome, expected, "fail_b={fail_b} fail_c={fail_c}");
        seen[index] += 1;
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "outcomes (i, ii, iii): {seen:?}"
    );
}

/// Fig. 4: (a) two top-level actions leave the hand-over set open to an
/// intruder between A and B; (b) a serializing action protects it, but
/// keeps every object A touched locked until the end — including those
/// A touched through a nested action.
#[test]
fn e04_both_rejected_baselines_misbehave() {
    let rt = rt_fast();
    let objects = objects(&rt, 8, 0);
    // (a) The gap between two top-level actions is unprotected.
    rt.atomic(|a| {
        for &o in &objects {
            a.write(o, &1i64)?;
        }
        Ok(())
    })
    .unwrap();
    assert!(objects.iter().all(|&o| free(&rt, o)));

    // (b) Between the steps of a serializing action, nothing is free.
    let sa = SerializingAction::begin(&rt).unwrap();
    sa.step(|s| {
        for (i, &o) in objects.iter().enumerate() {
            if i % 2 == 0 {
                s.write(o, &2i64)?;
            } else {
                s.nested(|n| n.write(o, &2i64))?;
            }
        }
        Ok(())
    })
    .unwrap();
    let fence_holders: Vec<Option<ActionId>> = objects.iter().map(|&o| blocker(&rt, o)).collect();
    let wrapper = fence_holders[0].expect("hand-over object is protected");
    assert!(
        fence_holders.iter().all(|&h| h == Some(wrapper)),
        "the wrapper fences every object: {fence_holders:?}"
    );
    sa.end().unwrap();
    assert!(objects.iter().all(|&o| free(&rt, o)));
}

/// Fig. 5: a glued chain passes exactly P to B; O−P is free at A's
/// commit; B's abort does not cascade into A.
#[test]
fn e05_glued_actions_release_the_rest() {
    let rt = rt_fast();
    let objects = objects(&rt, 8, 0);
    let (p, rest) = objects.split_at(2);
    let chain = GluedChain::begin(&rt, 2).unwrap();
    chain
        .step(|s| {
            for &o in &objects {
                s.write(o, &1i64)?;
            }
            for &o in p {
                s.hand_over(o)?;
            }
            Ok(())
        })
        .unwrap();
    assert!(rest.iter().all(|&o| free(&rt, o)));
    let glue = blocker(&rt, p[0]).expect("P is protected");
    assert_eq!(blocker(&rt, p[1]), Some(glue));
    let b = chain.step(|s| {
        s.write(p[0], &9i64)?;
        Err::<(), _>(ActionError::failed("B aborts"))
    });
    assert!(matches!(b, Err(ActionError::Failed(_))));
    chain.end().unwrap();
    for &o in &objects {
        assert_eq!(rt.read_committed::<i64>(o).unwrap(), 1);
    }
}

/// Fig. 6: contributors A1..An glue objects to receivers B1..Bn through
/// one glue colour: all contributors run at once, then all receivers,
/// and no stranger gets in between.
#[test]
fn e06_glued_pairs_run_concurrently() {
    let rt = rt_fast();
    let pairs = 6;
    let objects = objects(&rt, pairs, 1);
    let group = GluedGroup::begin(&rt).unwrap();
    let run_all = |body: &(dyn Fn(&GluedGroup, ObjectId, &Rendezvous) -> Result<(), ActionError>
                         + Sync)| {
        let all_running = Rendezvous::new(pairs);
        std::thread::scope(|scope| {
            let handles: Vec<_> = objects
                .iter()
                .map(|&o| {
                    let (group, all_running) = (&group, &all_running);
                    scope.spawn(move || body(group, o, all_running))
                })
                .collect();
            for handle in handles {
                handle.join().unwrap().expect("pair body");
            }
        });
    };
    run_all(&|group, o, all_running| {
        group.contribute(|s| {
            s.modify(o, |v: &mut i64| *v += 10)?;
            s.hand_over(o)?;
            all_running.meet()
        })
    });
    let glue = blocker(&rt, objects[0]).expect("fenced between contribution and receipt");
    assert!(objects.iter().all(|&o| blocker(&rt, o) == Some(glue)));
    run_all(&|group, o, all_running| {
        group.receive(|s| {
            s.modify(o, |v: &mut i64| *v *= 2)?;
            all_running.meet()
        })
    });
    group.end().unwrap();
    for &o in &objects {
        assert_eq!(rt.read_committed::<i64>(o).unwrap(), 22);
    }
}

/// Fig. 7: an independent action commits although its invoker aborts
/// (every charge survives), and the invoker survives the independent
/// action's abort.
#[test]
fn e07_independent_actions_outlive_their_invoker() {
    let rt = Runtime::builder().build();
    let ledger = Ledger::create(&rt).unwrap();
    let work = rt.create_object(&0i64).unwrap();
    for i in 0..50 {
        let result: Result<(), ActionError> = rt.atomic(|a| {
            a.modify(work, |v: &mut i64| *v += 1)?;
            ledger.charge_from(a, "user", "op", 1)?;
            if i % 2 == 0 {
                return Err(ActionError::failed("invoker aborts"));
            }
            Ok(())
        });
        assert_eq!(result.is_ok(), i % 2 == 1);
    }
    assert_eq!(ledger.total().unwrap(), 50);
    assert_eq!(rt.read_committed::<i64>(work).unwrap(), 25);

    let o = rt.create_object(&0i64).unwrap();
    rt.atomic(|a| {
        let inner: Result<(), ActionError> =
            independent_sync(a, |_| Err(ActionError::failed("independent aborts")));
        assert!(matches!(inner, Err(ActionError::Failed(_))));
        a.write(o, &1i64)
    })
    .unwrap();
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 1);
}

const WIDE_MAKEFILE: &str = "app: m0.o m1.o m2.o m3.o\n\tld app\n\
                             m0.o: m0.c\n\tcc m0\n\
                             m1.o: m1.c\n\tcc m1\n\
                             m2.o: m2.c\n\tcc m2\n\
                             m3.o: m3.c\n\tcc m3\n";

fn wide_make(rt: &Runtime) -> DistMake {
    let make = DistMake::new(rt, Makefile::parse(WIDE_MAKEFILE).unwrap()).unwrap();
    for i in 0..4 {
        make.write_source(&format!("m{i}.c"), "src").unwrap();
    }
    make
}

/// Fig. 8: the four compiles build concurrently (their action spans
/// overlap pairwise, and none waits for a lock), and after a failed
/// link a serializing make redoes only the link, where one atomic
/// action redoes everything.
#[test]
fn e08_distributed_make_builds_concurrently_and_keeps_its_work() {
    let rt = Runtime::builder().build();
    let mut make = wide_make(&rt);
    // Long enough that four compiles begun together are still running
    // when the last one begins.
    make.set_command_delay(Duration::from_millis(200));
    let bus = Arc::new(EventBus::new());
    let recorder = FlightRecorder::attach(&bus, 100_000);
    rt.install_obs(Obs::new(bus.clone()));
    let report = make.make("app").unwrap();
    assert_eq!(report.rebuilt.len(), 5);
    assert_eq!(report.rebuilt.last().map(String::as_str), Some("app"));

    let events = recorder.events();
    let forest = SpanForest::build(&events);
    let writers: Vec<ActionId> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::LockGrant {
                action,
                mode: LockMode::Write,
                ..
            } => Some(action),
            _ => None,
        })
        .collect();
    // Spans are in opening order, so the link comes last.
    let commands: Vec<(ActionId, &chroma::obs::Span)> = forest
        .spans
        .iter()
        .filter_map(|s| match s.kind {
            SpanKind::Action {
                action, outcome, ..
            } if writers.contains(&action) => {
                assert_eq!(outcome, Outcome::Committed, "{s:?}");
                Some((action, s))
            }
            _ => None,
        })
        .collect();
    assert_eq!(commands.len(), 5, "four compiles and a link");
    // The link begins after every compile has committed.
    let ((_, link), compiles) = commands.split_last().unwrap();
    assert!(compiles.iter().all(|(_, c)| c.end_us <= link.begin_us));
    for (i, (_, a)) in compiles.iter().enumerate() {
        for (_, b) in &compiles[i + 1..] {
            assert!(
                a.begin_us < b.end_us && b.begin_us < a.end_us,
                "compiles ran one after another: {a:?} / {b:?}"
            );
        }
    }
    let compile_ids: Vec<ActionId> = compiles.iter().map(|&(action, _)| action).collect();
    // Every lock request opens a `LockWait` span; none of the compiles'
    // was held up by a conflicting holder.
    let conflicts: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LockConflict { action, .. } if compile_ids.contains(&action)))
        .collect();
    assert!(
        conflicts.is_empty(),
        "a compile waited for a lock: {conflicts:?}"
    );

    // Work preserved after a failed link.
    let retry_work = |monolithic: bool| -> u64 {
        let rt = Runtime::builder().build();
        let make = wide_make(&rt);
        make.inject_failure("app");
        let build = |m: &DistMake| {
            if monolithic {
                m.make_monolithic("app")
            } else {
                m.make("app")
            }
        };
        assert!(build(&make).is_err());
        make.clear_failure("app");
        let before = make.commands_run();
        build(&make).unwrap();
        make.commands_run() - before
    };
    assert_eq!(
        retry_work(false),
        1,
        "serializing make redoes only the link"
    );
    assert_eq!(retry_work(true), 5, "one atomic action redoes the compiles");
}

/// Fig. 9: each round of the meeting scheduler releases the slots it
/// rejects, so ada's diary frees up round by round; the booking lands
/// in the one slot free in every diary.
#[test]
fn e09_diary_rounds_release_rejected_slots() {
    let rt = rt_fast();
    let slots = 6;
    let diaries = ["ada", "bob", "cleo"].map(|name| Diary::create(&rt, name, slots).unwrap());
    let [ada, bob, cleo] = &diaries;
    for (diary, busy) in [(bob, [0, 1]), (cleo, [2, 3])] {
        for slot in busy {
            diary.book(&rt, slot, "x").unwrap();
        }
    }
    // `schedule_meeting`'s rounds, with a bystander probing ada's diary
    // after each one.
    let chain = GluedChain::begin(&rt, diaries.len() + 1).unwrap();
    let mut candidates: Vec<usize> = (0..slots).collect();
    let mut ada_free = Vec::new();
    for (round, diary) in diaries.iter().enumerate() {
        candidates = chain
            .step(|s| {
                let mut surviving = Vec::new();
                for &i in &candidates {
                    let slot: Slot = s.read(diary.slot(i))?;
                    if slot.appointment.is_none() {
                        surviving.push(i);
                    }
                }
                for d in &diaries[..=round] {
                    for &i in &surviving {
                        s.hand_over(d.slot(i))?;
                    }
                }
                Ok(surviving)
            })
            .unwrap();
        ada_free.push(
            (0..slots)
                .filter(|&i| free(&rt, ada.slot(i)))
                .collect::<Vec<_>>(),
        );
    }
    chain.abandon();
    assert_eq!(candidates, vec![4, 5]);
    assert_eq!(ada_free, vec![vec![], vec![0, 1], vec![0, 1, 2, 3]]);

    let outcome = schedule_meeting(&rt, &diaries, "kickoff").unwrap();
    assert_eq!(outcome, ScheduleOutcome::Booked { slot: 4 });
    for diary in &diaries {
        let slot = diary.slot_state(&rt, 4).unwrap();
        assert_eq!(slot.appointment.as_deref(), Some("kickoff"));
    }
}

// ---------------------------------------------------------------------
// E11, E12, E14: the colour implementations (figs. 11, 12, 14)
// ---------------------------------------------------------------------

/// Fig. 11: a serializing action scripted directly with colours (a
/// fence-coloured wrapper, one update colour per step) and the
/// `SerializingAction` API behave identically: step 1 is permanent and
/// fenced at the midpoint, step 2's failure does not undo it, and the
/// object is free at the end.
#[test]
fn e11_serializing_action_is_the_wrapper_colour_scheme() {
    // (fenced at the midpoint, stable value at the midpoint, final
    // value, free at the end)
    let direct = {
        let rt = rt_fast();
        let [fence, u1, u2] = ["fence", "u1", "u2"].map(|c| rt.universe().colour(c));
        let o = rt.create_object(&0i64).unwrap();
        let control = rt.begin_top(ColourSet::single(fence)).unwrap();
        rt.run_nested(control, ColourSet::from_iter([fence, u1]), u1, |s| {
            s.lock(fence, o, LockMode::ExclusiveRead)?;
            s.write_in(u1, o, &1i64)
        })
        .unwrap();
        let mid = (
            blocker(&rt, o) == Some(control),
            rt.read_committed::<i64>(o).unwrap(),
        );
        let step2 = rt.run_nested(control, ColourSet::from_iter([fence, u2]), u2, |s| {
            s.lock(fence, o, LockMode::ExclusiveRead)?;
            s.write_in(u2, o, &2i64)?;
            Err::<(), _>(ActionError::failed("step 2 fails"))
        });
        assert!(step2.is_err());
        rt.commit(control).unwrap();
        (
            mid.0,
            mid.1,
            rt.read_committed::<i64>(o).unwrap(),
            free(&rt, o),
        )
    };
    let structured = {
        let rt = rt_fast();
        let o = rt.create_object(&0i64).unwrap();
        let sa = SerializingAction::begin(&rt).unwrap();
        sa.step(|s| s.write(o, &1i64)).unwrap();
        let mid = (
            blocker(&rt, o).is_some(),
            rt.read_committed::<i64>(o).unwrap(),
        );
        let step2 = sa.step(|s| {
            s.write(o, &2i64)?;
            Err::<(), _>(ActionError::failed("step 2 fails"))
        });
        assert!(step2.is_err());
        sa.end().unwrap();
        (
            mid.0,
            mid.1,
            rt.read_committed::<i64>(o).unwrap(),
            free(&rt, o),
        )
    };
    assert_eq!(direct, (true, 1, 1, true));
    assert_eq!(structured, direct);
}

/// Fig. 12: a glued chain scripted directly with colours (control G in
/// the glue colour; A in {glue, update}; B in {update'}) and the
/// `GluedChain` API behave identically: O−P free and P fenced between A
/// and B, and B sees A's hand-over.
#[test]
fn e12_glued_chain_is_the_control_colour_scheme() {
    // (O−P free between A and B, P fenced, final value of P)
    let direct = {
        let rt = rt_fast();
        let [glue, ua, ub] = ["glue", "ua", "ub"].map(|c| rt.universe().colour(c));
        let kept = rt.create_object(&0i64).unwrap();
        let dropped = rt.create_object(&0i64).unwrap();
        let control = rt.begin_top(ColourSet::single(glue)).unwrap();
        rt.run_nested(control, ColourSet::from_iter([glue, ua]), ua, |s| {
            s.write_in(ua, kept, &1i64)?;
            s.write_in(ua, dropped, &1i64)?;
            s.lock(glue, kept, LockMode::ExclusiveRead)
        })
        .unwrap();
        let mid = (free(&rt, dropped), blocker(&rt, kept) == Some(control));
        rt.run_nested(control, ColourSet::single(ub), ub, |s| {
            s.modify_in(ub, kept, |v: &mut i64| *v += 10)
        })
        .unwrap();
        rt.commit(control).unwrap();
        (mid.0, mid.1, rt.read_committed::<i64>(kept).unwrap())
    };
    let structured = {
        let rt = rt_fast();
        let kept = rt.create_object(&0i64).unwrap();
        let dropped = rt.create_object(&0i64).unwrap();
        let chain = GluedChain::begin(&rt, 2).unwrap();
        chain
            .step(|s| {
                s.write(kept, &1i64)?;
                s.write(dropped, &1i64)?;
                s.hand_over(kept)
            })
            .unwrap();
        let mid = (free(&rt, dropped), blocker(&rt, kept).is_some());
        chain
            .step(|s| s.modify(kept, |v: &mut i64| *v += 10))
            .unwrap();
        chain.end().unwrap();
        (mid.0, mid.1, rt.read_committed::<i64>(kept).unwrap())
    };
    assert_eq!(direct, (true, true, 11));
    assert_eq!(structured, direct);
}

/// Fig. 14: the n-level example executed on the runtime, one aborter at
/// a time. If A aborts, D and E are undone while C and F survive; if B
/// aborts after invoking E, E survives.
#[test]
fn e14_nlevel_abort_survival_matrix() {
    let fig14 = Structure::top(
        "A",
        vec![
            Structure::work("D"),
            Structure::action(
                "B",
                vec![
                    Structure::independent("C", 2, vec![Structure::work("C.body")]),
                    Structure::independent("E", 1, vec![Structure::work("E.body")]),
                ],
            ),
            Structure::independent("F", 1, vec![Structure::work("F.body")]),
        ],
    );
    let plan = assign(&fig14).unwrap();
    let works = ["D", "C.body", "E.body", "F.body"];
    let survivors = |aborter: &str| -> Vec<&str> {
        let rt = Runtime::builder().build();
        let result = plan.execute(&rt, &|name| name != aborter).unwrap();
        works.into_iter().filter(|w| result.survived[*w]).collect()
    };
    assert_eq!(survivors("A"), ["C.body", "F.body"]);
    assert_eq!(survivors("B"), ["D", "C.body", "E.body", "F.body"]);
    assert_eq!(survivors("C"), ["D", "E.body", "F.body"]);
    assert_eq!(survivors("E"), ["D", "C.body", "F.body"]);
    assert_eq!(survivors("F"), ["D", "C.body", "E.body"]);
}

// ---------------------------------------------------------------------
// A1–A4, A7: the ablations
// ---------------------------------------------------------------------

/// §5.1: with every action in one colour, the coloured lock rules make
/// exactly the classic rules' grant/deny decisions on random schedules.
#[test]
fn a1_single_colour_system_is_the_classic_system() {
    let mut rng = StdRng::seed_from_u64(torture_seed().unwrap_or(2024));
    let colour = Colour::from_index(0);
    for schedule in 0..200 {
        let ancestry = FlatAncestry::new();
        for child in 1..6u64 {
            if rng.gen_bool(0.6) {
                let parent = rng.gen_range(0..child);
                ancestry.set_parent(ActionId::from_raw(child), ActionId::from_raw(parent));
            }
        }
        let coloured = LockTable::new(ColouredPolicy);
        let classic = LockTable::new(ClassicPolicy);
        for step in 0..40 {
            let action = ActionId::from_raw(rng.gen_range(0..6));
            let object = ObjectId::from_raw(rng.gen_range(0..4));
            let mode = [LockMode::Read, LockMode::Write, LockMode::ExclusiveRead]
                [rng.gen_range(0..3usize)];
            let c = coloured.try_acquire(&ancestry, action, object, colour, mode);
            let k = classic.try_acquire(&ancestry, action, object, colour, mode);
            assert_eq!(
                format!("{c:?}"),
                format!("{k:?}"),
                "schedule {schedule}, step {step}"
            );
        }
    }
}

/// §3.2: between phase A and phase B, a bystander can lock nothing
/// under a single long action or a serializing action, and exactly O−P
/// under a glued chain.
#[test]
fn a2_lock_availability_ordering() {
    const TOTAL: usize = 12;
    const HANDED_OVER: usize = 3;
    let free_count =
        |rt: &Runtime, objects: &[ObjectId]| objects.iter().filter(|&&o| free(rt, o)).count();
    let atomic = {
        let rt = rt_fast();
        let objects = objects(&rt, TOTAL, 0);
        let top = rt
            .begin_top(ColourSet::single(rt.default_colour()))
            .unwrap();
        for &o in &objects {
            rt.scope(top).unwrap().write(o, &1i64).unwrap();
        }
        let available = free_count(&rt, &objects);
        rt.commit(top).unwrap();
        available
    };
    let serializing = {
        let rt = rt_fast();
        let objects = objects(&rt, TOTAL, 0);
        let sa = SerializingAction::begin(&rt).unwrap();
        sa.step(|s| objects.iter().try_for_each(|&o| s.write(o, &1i64)))
            .unwrap();
        let available = free_count(&rt, &objects);
        sa.end().unwrap();
        available
    };
    let glued = {
        let rt = rt_fast();
        let objects = objects(&rt, TOTAL, 0);
        let chain = GluedChain::begin(&rt, 2).unwrap();
        chain
            .step(|s| {
                objects.iter().try_for_each(|&o| s.write(o, &1i64))?;
                objects[..HANDED_OVER]
                    .iter()
                    .try_for_each(|&o| s.hand_over(o))
            })
            .unwrap();
        let available = free_count(&rt, &objects);
        chain.end().unwrap();
        available
    };
    assert_eq!((atomic, serializing, glued), (0, 0, TOTAL - HANDED_OVER));
}

/// §2: two-phase commit installs all or nothing and leaves nobody in
/// doubt, under message loss, duplication and a participant crash;
/// without loss every transaction commits.
#[test]
fn a3_two_phase_commit_is_atomic_under_faults() {
    let first = torture_seed().unwrap_or(0);
    let w = |object: u64, value: u8| Write {
        object: ObjectId::from_raw(object),
        state: StoreBytes::from(vec![value]),
    };
    for loss in [0.0, 0.1, 0.3] {
        for seed in first..first + 30 {
            let mut sim = Sim::new(seed);
            sim.net.loss = loss;
            sim.net.duplication = loss / 2.0;
            let coord = sim.add_node();
            let p1 = sim.add_node();
            let p2 = sim.add_node();
            let txn = sim.begin_transaction(coord, vec![(p1, vec![w(1, 1)]), (p2, vec![w(2, 2)])]);
            if seed % 3 == 0 {
                sim.schedule_crash(p2, 40_000);
                sim.schedule_recover(p2, 600_000);
            }
            sim.run_to_quiescence();
            let case = format!("loss {loss}, seed {seed}");
            let installed = [
                sim.node(p1).read(ObjectId::from_raw(1)).is_some(),
                sim.node(p2).read(ObjectId::from_raw(2)).is_some(),
            ];
            let decision = sim.coordinator_outcome(coord, txn);
            assert_eq!(installed, [decision == Some(true); 2], "{case}");
            assert!(!sim.node(p1).in_doubt(txn), "{case}");
            assert!(!sim.node(p2).in_doubt(txn), "{case}");
            if loss == 0.0 {
                assert_eq!(decision, Some(true), "{case}");
            }
        }
    }
}

/// §2: a replicated name server answers lookups while any one replica
/// is down; a single copy does not.
#[test]
fn a4_replication_keeps_the_name_server_available() {
    let served_during_downtime = |replicas: usize| -> Vec<bool> {
        let mut sim = Sim::new(99);
        let nodes: Vec<_> = (0..replicas).map(|_| sim.add_node()).collect();
        let ns = ReplicatedNameServer::create(&mut sim, ObjectId::from_raw(700), &nodes);
        assert!(ns.register(&mut sim, "svc", "loc"));
        sim.run_to_quiescence();
        nodes
            .iter()
            .map(|&node| {
                sim.schedule_crash(node, 0);
                sim.run_to_quiescence();
                let served = ns.lookup(&sim, "svc").as_deref() == Some("loc");
                sim.schedule_recover(node, 0);
                sim.run_to_quiescence();
                served
            })
            .collect()
    };
    assert_eq!(served_during_downtime(1), [false]);
    assert_eq!(served_during_downtime(2), [true, true]);
    assert_eq!(served_during_downtime(3), [true, true, true]);
}

/// §2 enhancement: commuting adds on an escrow counter let whole
/// actions overlap — every adder is inside its action at once — where
/// a single-object counter makes the second action's write wait for
/// the first; no update is lost either way.
#[test]
fn a7_type_specific_locking_lets_writers_overlap() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 6;
    // The plain counter: an action holding it blocks every other writer.
    let rt = Runtime::builder().build();
    let counter = rt.create_object(&0i64).unwrap();
    let colours = ColourSet::single(rt.default_colour());
    let first = rt.begin_top(colours).unwrap();
    rt.scope(first)
        .unwrap()
        .modify(counter, |v: &mut i64| *v += 1)
        .unwrap();
    assert_eq!(blocker(&rt, counter), Some(first));
    rt.commit(first).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    rt.atomic(|a| a.modify(counter, |v: &mut i64| *v += 1))
                        .unwrap();
                }
            });
        }
    });
    assert_eq!(
        rt.read_committed::<i64>(counter).unwrap(),
        (1 + THREADS * ROUNDS) as i64
    );

    // The escrow counter: all adders hold their stripe at once.
    let rt = Runtime::builder().build();
    let counter = EscrowCounter::create(&rt, THREADS * 2).unwrap();
    let rounds: Vec<Rendezvous> = (0..ROUNDS).map(|_| Rendezvous::new(THREADS)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (rt, counter, rounds) = (&rt, &counter, &rounds);
                scope.spawn(move || {
                    for all_adding in rounds {
                        rt.atomic(|a| {
                            counter.add(a, 1)?;
                            all_adding.meet()
                        })?;
                    }
                    Ok::<(), ActionError>(())
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap().expect("adder");
        }
    });
    assert_eq!(
        counter.committed_value(&rt).unwrap(),
        (THREADS * ROUNDS) as i64
    );
}
