//! Cross-crate integration scenarios: the paper's applications sharing
//! one runtime, structure composition, and crash recovery cutting
//! across every layer.

use chroma::apps::{
    schedule_meeting, BulletinBoard, Diary, DistMake, Ledger, Makefile, ScheduleOutcome,
};
use chroma::core::{ActionError, ActionScope, LockMode, ObjectId, Runtime, RuntimeConfig};
use chroma::structures::{independent_sync, GluedChain, SerializingAction};
use chroma::{EscrowCounter, KeyedDirectory};
use std::time::Duration;

fn rt_fast() -> Runtime {
    Runtime::builder()
        .config(RuntimeConfig {
            lock_timeout: Some(Duration::from_millis(400)),
        })
        .build()
}

#[test]
fn one_runtime_hosts_every_application() {
    let rt = Runtime::builder().build();
    let board = BulletinBoard::create(&rt).unwrap();
    let ledger = Ledger::create(&rt).unwrap();
    let make = DistMake::new(&rt, Makefile::parse("out: in\n\tbuild\n").unwrap()).unwrap();
    make.write_source("in", "source").unwrap();
    let diary = Diary::create(&rt, "solo", 3).unwrap();

    // A "CI run": charge, build, announce; the announcement and charge
    // survive even though the surrounding orchestration action aborts.
    let result: Result<(), ActionError> = rt.atomic(|app| {
        ledger.charge_from(app, "ci", "build", 2)?;
        board.post_from(app, "ci", "build started")?;
        Err(ActionError::failed("orchestrator lost its node"))
    });
    assert!(result.is_err());
    // The build itself (outside the orchestrator) succeeds.
    let report = make.make("out").unwrap();
    assert_eq!(report.rebuilt, vec!["out".to_owned()]);
    // And the meeting to discuss it gets booked.
    let outcome = schedule_meeting(&rt, std::slice::from_ref(&diary), "retro").unwrap();
    assert_eq!(outcome, ScheduleOutcome::Booked { slot: 0 });

    assert_eq!(ledger.total().unwrap(), 2);
    assert_eq!(board.posts().unwrap().len(), 1);
    assert!(make.file_state("out").unwrap().stamp > 0);

    // Crash: everything committed above survives.
    rt.crash_and_recover();
    assert_eq!(ledger.total().unwrap(), 2);
    assert_eq!(board.posts().unwrap().len(), 1);
    assert!(make.file_state("out").unwrap().stamp > 0);
    assert_eq!(
        diary.slot_state(&rt, 0).unwrap().appointment.as_deref(),
        Some("retro")
    );
}

#[test]
fn structures_compose_serializing_inside_glued_step() {
    // A glued chain whose step internally runs a serializing action —
    // structures nest because they are all just coloured actions.
    let rt = rt_fast();
    let staged = rt.create_object(&0i64).unwrap();
    let detail_a = rt.create_object(&0i64).unwrap();
    let detail_b = rt.create_object(&0i64).unwrap();

    let chain = GluedChain::begin(&rt, 2).unwrap();
    chain
        .step(|s| {
            s.write(staged, &1i64)?;
            s.hand_over(staged)
        })
        .unwrap();
    // Between chain steps, run a serializing action on other objects.
    let sa = SerializingAction::begin(&rt).unwrap();
    sa.step(|s| s.write(detail_a, &1i64)).unwrap();
    let _ = sa.step(|s| {
        s.write(detail_b, &1i64)?;
        Err::<(), _>(ActionError::failed("second detail fails"))
    });
    sa.end().unwrap();
    chain
        .step(|s| s.modify(staged, |v: &mut i64| *v += 10))
        .unwrap();
    chain.end().unwrap();

    assert_eq!(rt.read_committed::<i64>(staged).unwrap(), 11);
    assert_eq!(rt.read_committed::<i64>(detail_a).unwrap(), 1);
    assert_eq!(rt.read_committed::<i64>(detail_b).unwrap(), 0);
}

/// Whether an outside top-level action could write-lock `object` now.
fn outside_may_write(rt: &Runtime, object: ObjectId) -> bool {
    rt.atomic(|a| a.try_lock(a.default_colour(), object, LockMode::Write))
        .is_ok()
}

/// The objects `scope`'s own action holds write locks on.
fn written_by(scope: &ActionScope<'_>) -> Vec<ObjectId> {
    scope
        .runtime()
        .locks_of(scope.id())
        .into_iter()
        .filter(|lock| lock.mode == LockMode::Write)
        .map(|lock| lock.object)
        .collect()
}

#[test]
fn typed_objects_and_nested_actions_stay_fenced_in_a_serializing_step() {
    // Code written against `ActionScope` runs inside a serializing step
    // unchanged, and the step's fence covers what it touched.
    let rt = rt_fast();
    let hits = EscrowCounter::create(&rt, 4).unwrap();
    let nested = rt.create_object(&0i64).unwrap();
    let sa = SerializingAction::begin(&rt).unwrap();
    let stripe = sa
        .step(|s| {
            hits.add(s, 5)?;
            let stripe = written_by(s)[0];
            s.nested(|n| n.write(nested, &1i64))?;
            Ok(stripe)
        })
        .unwrap();
    // The step committed: its effects are permanent...
    assert_eq!(hits.committed_value(&rt).unwrap(), 5);
    assert_eq!(rt.read_committed::<i64>(nested).unwrap(), 1);
    // ...but the wrapper still fences both objects.
    assert!(!outside_may_write(&rt, stripe));
    assert!(!outside_may_write(&rt, nested));
    sa.end().unwrap();
    assert!(outside_may_write(&rt, stripe));
    assert!(outside_may_write(&rt, nested));
}

#[test]
fn typed_objects_hand_over_through_a_glued_chain() {
    // A directory insert plus `hand_over` passes the key's bucket to the
    // next step; a bucket the next step does not re-fence is free
    // mid-chain.
    let rt = rt_fast();
    let kept_dir: KeyedDirectory<String> = KeyedDirectory::create(&rt, 1).unwrap();
    let rejected_dir: KeyedDirectory<String> = KeyedDirectory::create(&rt, 1).unwrap();
    let chain = GluedChain::begin(&rt, 3).unwrap();
    let (kept, rejected) = chain
        .step(|s| {
            kept_dir.insert(s, "alice", &"09:00".to_owned())?;
            let kept = written_by(s)[0];
            rejected_dir.insert(s, "bob", &"09:00".to_owned())?;
            let rejected = *written_by(s).iter().find(|&&o| o != kept).unwrap();
            s.hand_over(kept)?;
            s.hand_over(rejected)?;
            Ok((kept, rejected))
        })
        .unwrap();
    assert!(!outside_may_write(&rt, kept));
    assert!(!outside_may_write(&rt, rejected));
    // Round 2 keeps alice's bucket and rejects bob's.
    chain
        .step(|s| {
            kept_dir.insert(s, "alice", &"10:00".to_owned())?;
            s.hand_over(kept)
        })
        .unwrap();
    assert!(!outside_may_write(&rt, kept));
    assert!(outside_may_write(&rt, rejected));
    let booked = chain.step(|s| kept_dir.lookup(s, "alice")).unwrap();
    assert_eq!(booked.as_deref(), Some("10:00"));
    chain.end().unwrap();
    assert!(outside_may_write(&rt, kept));
}

#[test]
fn independent_actions_inside_serializing_steps() {
    // A serializing step that bills for itself: the charge survives
    // even when the step aborts.
    let rt = Runtime::builder().build();
    let ledger = Ledger::create(&rt).unwrap();
    let target = rt.create_object(&0i64).unwrap();
    let sa = SerializingAction::begin(&rt).unwrap();
    let failed: Result<(), ActionError> = sa.step(|s| {
        ledger.charge_from(s, "user", "attempt", 1)?;
        independent_sync(s, |i| i.write(target, &1i64))?;
        Err(ActionError::failed("step fails after being metered"))
    });
    assert!(failed.is_err());
    sa.end().unwrap();
    assert_eq!(ledger.total().unwrap(), 1);
    assert_eq!(rt.read_committed::<i64>(target).unwrap(), 1);
}

#[test]
fn facade_reexports_are_complete() {
    // The chroma façade exposes every subsystem.
    let _universe = chroma::base::ColourUniverse::new();
    let _table = chroma::locks::LockTable::new(chroma::locks::ColouredPolicy);
    let _store = chroma::store::StableStore::new();
    let rt: chroma::core::Runtime = chroma::core::Runtime::builder().build();
    let _board = chroma::apps::BulletinBoard::create(&rt).unwrap();
    let mut sim = chroma::dist::Sim::new(1);
    let _node = sim.add_node();
    let _structure = chroma::structures::compiler::Structure::work("w");
}

#[test]
fn concurrent_applications_do_not_interfere() {
    let rt = rt_fast();
    let board = BulletinBoard::create(&rt).unwrap();
    let ledger = Ledger::create(&rt).unwrap();
    let mut handles = Vec::new();
    for worker in 0..4 {
        let rt = rt.clone();
        let board = board.clone();
        let ledger = ledger.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..10 {
                rt.atomic(|a| {
                    ledger.charge_from(a, &format!("w{worker}"), "op", 1)?;
                    board.post_from(a, &format!("w{worker}"), &format!("op {i}"))?;
                    Ok(())
                })
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(ledger.total().unwrap(), 40);
    let posts = board.posts().unwrap();
    assert_eq!(posts.len(), 40);
    // Sequence numbers are dense and unique.
    let mut seqs: Vec<u64> = posts.iter().map(|p| p.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..40).collect::<Vec<u64>>());
}
