//! Property tests: the JSONL wire format round-trips every event the
//! bus can emit, and the latency histogram's derived statistics stay
//! within the bounds its bucketing promises.

use std::num::NonZeroU64;

use chroma_base::{ActionId, Colour, LockMode, NodeId, ObjectId};
use chroma_obs::{Event, EventKind, Histogram, MsgKind};
use proptest::prelude::*;

fn mode_of(tag: u8) -> LockMode {
    match tag % 3 {
        0 => LockMode::Read,
        1 => LockMode::ExclusiveRead,
        _ => LockMode::Write,
    }
}

fn kind_strategy() -> impl Strategy<Value = EventKind> {
    (0u8..7, any::<u64>(), any::<u64>(), 0usize..64, any::<u64>()).prop_map(
        |(pick, x, y, colour, extra)| {
            let tag = (extra & 0xff) as u8;
            let node = NodeId::from_raw((extra >> 32) as u32);
            let flag = extra & 1 == 0;
            let action = ActionId::from_raw(x);
            let object = ObjectId::from_raw(y);
            let colour = Colour::from_index(colour);
            let kind = MsgKind::ALL[(tag as usize) % MsgKind::ALL.len()];
            match pick {
                0 => EventKind::ActionBegin {
                    action,
                    parent: flag.then_some(ActionId::from_raw(y)),
                    colours: x,
                },
                1 => EventKind::LockGrant {
                    action,
                    object,
                    colour,
                    mode: mode_of(tag),
                },
                2 => EventKind::LockInherit {
                    from: action,
                    to: ActionId::from_raw(y),
                    object,
                    colour,
                },
                3 => EventKind::UndoRecord {
                    action,
                    object,
                    colour,
                },
                4 => EventKind::TpcDecide {
                    node,
                    txn: x,
                    commit: flag,
                    participants: y,
                },
                5 => EventKind::TpcVote {
                    node,
                    txn: x,
                    yes: flag,
                },
                _ => EventKind::MsgSend {
                    from: node,
                    to: NodeId::from_raw(node.as_raw().wrapping_add(1)),
                    kind,
                },
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn jsonl_round_trips_random_events(
        at_us in any::<u64>(),
        kind in kind_strategy(),
        lc in any::<u64>(),
        has_corr in any::<bool>(),
        corr in any::<u64>(),
        has_bound in any::<bool>(),
        bound in any::<u32>(),
    ) {
        let mut event = Event::at(at_us, kind);
        event.lc = lc;
        event.corr = NonZeroU64::new(corr).filter(|_| has_corr);
        if event.node.is_none() && has_bound {
            event.node = Some(NodeId::from_raw(bound));
        }
        let line = event.to_json_line();
        let back = Event::from_json_line(&line).expect("own output parses");
        prop_assert_eq!(back, event);
    }

    #[test]
    fn histogram_statistics_stay_bounded(samples in prop::collection::vec(any::<u64>(), 1..200)) {
        let mut hist = Histogram::default();
        for &s in &samples {
            hist.observe(s);
        }
        let max = *samples.iter().max().expect("non-empty");
        prop_assert_eq!(hist.count(), samples.len() as u64);
        prop_assert_eq!(hist.max_us(), max);
        // Quantiles are bucketed approximations but may never exceed
        // the exact maximum, and must be monotone in q.
        let q50 = hist.quantile_us(0.5);
        let q95 = hist.quantile_us(0.95);
        prop_assert!(q50 <= q95, "p50 {} > p95 {}", q50, q95);
        prop_assert!(q95 <= max, "p95 {} > max {}", q95, max);
        let summary = hist.summary();
        prop_assert_eq!(summary.count, samples.len());
        prop_assert!(summary.mean_us <= max as f64);
    }

    #[test]
    fn histogram_merge_is_additive(
        left in prop::collection::vec(any::<u64>(), 0..50),
        right in prop::collection::vec(any::<u64>(), 0..50),
    ) {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut whole = Histogram::default();
        for &s in &left {
            a.observe(s);
            whole.observe(s);
        }
        for &s in &right {
            b.observe(s);
            whole.observe(s);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert_eq!(a.max_us(), whole.max_us());
        prop_assert_eq!(a.quantile_us(0.5), whole.quantile_us(0.5));
    }
}
