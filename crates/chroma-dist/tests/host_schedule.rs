//! The process coordinator's transaction schedule, run by the same
//! `Host` that `chroma-node` runs, under the seeded simulator: every
//! transaction reports exactly one outcome, a committed transaction's
//! value is installed on both workers and an aborted one's nowhere,
//! the trace audits clean, a seed replays its reports and trace
//! exactly, and a participant that vanishes after voting yes is cut by
//! the transaction deadline in simulated time.
//!
//! `CHROMA_TORTURE_SEED` draws the loss and duplication rates, the
//! transaction count and the worker crash schedule.

use std::sync::Arc;

use chroma_base::NodeId;
use chroma_dist::{txn_object, txn_value, Report, Sim, TxnId, TXN_DEADLINE_US};
use chroma_obs::{EventBus, MemorySink, Obs, Observable, TraceAuditor};
use proptest::torture_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One run: a coordinator scheduling transactions over two workers,
/// one of which crashes and recovers at a point drawn from `seed`.
/// Returns the coordinator's reports, its trace as JSONL and the
/// simulation after quiescence.
fn run(seed: u64) -> (Vec<Report>, Vec<String>, Sim, [NodeId; 2], u64) {
    let mut draw = StdRng::seed_from_u64(seed);
    let mut sim = Sim::new(seed);
    sim.net.loss = draw.gen_range(0.0..0.3);
    sim.net.duplication = draw.gen_range(0.0..0.3);
    let bus = Arc::new(EventBus::new());
    let sink = Arc::new(MemorySink::new(1_000_000));
    bus.add_sink(sink.clone());
    sim.install_obs(Obs::new(Arc::clone(&bus)));
    let coordinator = sim.add_node();
    let workers = [sim.add_node(), sim.add_node()];
    let txns: u64 = draw.gen_range(4..=12);

    let victim = workers[draw.gen_range(0..2usize)];
    let crash_at = draw.gen_range(0..txns * 6_000);
    sim.schedule_crash(victim, crash_at);
    sim.schedule_recover(victim, crash_at + draw.gen_range(1_000..3_000_000u64));
    sim.schedule_transactions(coordinator, workers.to_vec(), txns, seed);
    sim.run_to_quiescence();

    bus.flush();
    assert_eq!(sink.dropped(), 0, "seed {seed}: trace ring overflowed");
    let audit = TraceAuditor::audit_events(&sink.events());
    assert!(
        audit.is_clean(),
        "seed {seed}: trace audit failed:\n{audit}"
    );
    let trace = sink.events().iter().map(|e| e.to_json_line()).collect();
    let reports = sim.take_reports();
    assert!(reports.iter().all(|&(node, _)| node == coordinator));
    let reports = reports.into_iter().map(|(_, report)| report).collect();
    (reports, trace, sim, workers, txns)
}

#[test]
fn schedule_under_loss_and_a_worker_crash_settles_every_transaction() {
    let seed = torture_seed().unwrap_or(42);
    let (reports, trace, sim, workers, txns) = run(seed);

    // Begin 1, Outcome 1, Begin 2, …: one outcome per transaction
    assert_eq!(reports.len() as u64, 2 * txns, "seed {seed}: {reports:?}");
    for (t, pair) in (1..).zip(reports.chunks(2)) {
        let &[Report::Begin(begun), Report::Outcome(ended, commit)] = pair else {
            panic!("seed {seed}: T{t} reported {pair:?}");
        };
        assert_eq!((begun, ended), (TxnId(t), TxnId(t)), "seed {seed}");
        for &worker in &workers {
            let read = sim.node(worker).read(txn_object(t));
            if commit {
                let value = txn_value(seed, t);
                assert_eq!(read.as_deref(), Some(&value[..]), "seed {seed} T{t}");
            } else {
                assert!(read.is_none(), "seed {seed}: aborted T{t} installed");
            }
        }
    }

    // a run is a function of its seed
    let (again, again_trace, ..) = run(seed);
    assert_eq!(again, reports, "seed {seed}: reports differ");
    assert!(again_trace == trace, "seed {seed}: traces differ");
}

#[test]
fn participant_lost_after_its_yes_vote_is_cut_at_the_deadline() {
    let mut sim = Sim::new(torture_seed().unwrap_or(42));
    let coordinator = sim.add_node();
    let (kept, lost) = (sim.add_node(), sim.add_node());
    sim.schedule_transactions(coordinator, vec![kept, lost], 2, 7);
    // crash `lost` once it has voted yes on T1, for good
    while !sim.node(lost).in_doubt(TxnId(1)) {
        assert!(sim.step(), "T1 never reached its prepare");
    }
    sim.schedule_crash(lost, 0);

    // its decision is never acknowledged: only the deadline ends T1
    let mut reports = sim.take_reports();
    let outcome_at = (0..100_000).find_map(|_| {
        assert!(sim.step(), "the schedule stalled");
        let new = sim.take_reports();
        let outcome = new.iter().any(|(_, r)| matches!(r, Report::Outcome(..)));
        reports.extend(new);
        outcome.then(|| sim.now())
    });
    assert_eq!(outcome_at, Some(TXN_DEADLINE_US));
    assert_eq!(
        sim.node(kept).read(txn_object(1)).as_deref(),
        Some(&txn_value(7, 1)[..])
    );

    // the schedule goes on: T2 cannot prepare at `lost` and aborts well
    // before its own deadline
    sim.run_to_quiescence();
    reports.extend(sim.take_reports());
    let (t1, t2) = (TxnId(1), TxnId(2));
    let expected = [
        Report::Begin(t1),
        Report::Outcome(t1, true),
        Report::Begin(t2),
        Report::Outcome(t2, false),
    ];
    let reports: Vec<Report> = reports.into_iter().map(|(_, r)| r).collect();
    assert_eq!(reports, expected);
    assert!(sim.now() < 2 * TXN_DEADLINE_US);
    assert!(sim.node(kept).read(txn_object(2)).is_none());
}
