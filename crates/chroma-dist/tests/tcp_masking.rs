//! Masking-layer tests over real loopback sockets: forced reconnects
//! must not duplicate deliveries, and resend-buffer overflow must be
//! surfaced as a gap — never silently skipped.
//!
//! Seeded via `CHROMA_TORTURE_SEED` (batch sizes vary), like the other
//! torture suites.

use std::sync::Arc;
use std::time::{Duration, Instant};

use chroma_base::NodeId;
use chroma_dist::{CorrId, Message, TcpConfig, TcpTransport, Transport, TransportEvent};
use chroma_obs::{EventBus, EventKind, FlightRecorder, Obs, Observable};
use chroma_store::StoreBytes;
use proptest::torture_seed;

const DEADLINE: Duration = Duration::from_secs(10);

/// Builds a symmetric two-endpoint loopback pair sharing one bus.
fn pair(
    config_a: TcpConfig,
    config_b: TcpConfig,
) -> (TcpTransport, TcpTransport, Arc<FlightRecorder>) {
    let n1 = NodeId::from_raw(1);
    let n2 = NodeId::from_raw(2);
    let bus = Arc::new(EventBus::new());
    let recorder = FlightRecorder::attach(&bus, 100_000);
    let mut a = TcpTransport::bind(n1, "127.0.0.1:0", config_a).expect("bind a");
    let mut b = TcpTransport::bind(n2, "127.0.0.1:0", config_b).expect("bind b");
    a.install_obs(Obs::new(bus.clone()));
    b.install_obs(Obs::new(bus));
    a.add_peer(n2, b.local_addr());
    b.add_peer(n1, a.local_addr());
    (a, b, recorder)
}

/// Polls `t` briefly, appending everything it yields.
fn drain(t: &mut TcpTransport, into: &mut Vec<TransportEvent>) {
    while let Some(event) = t.poll(Some(Duration::from_millis(5))) {
        into.push(event);
    }
}

/// Polls both endpoints until `done` holds or the deadline passes.
fn pump_until(
    a: &mut TcpTransport,
    b: &mut TcpTransport,
    a_events: &mut Vec<TransportEvent>,
    b_events: &mut Vec<TransportEvent>,
    mut done: impl FnMut(&TcpTransport, &TcpTransport, &[TransportEvent]) -> bool,
) {
    let deadline = Instant::now() + DEADLINE;
    while !done(a, b, b_events) {
        assert!(Instant::now() < deadline, "masking test timed out");
        drain(a, a_events);
        drain(b, b_events);
    }
}

fn delivered_corrs(events: &[TransportEvent]) -> Vec<CorrId> {
    events
        .iter()
        .filter_map(|e| match e {
            TransportEvent::Deliver { corr, .. } => Some(*corr),
            _ => None,
        })
        .collect()
}

/// A forced disconnect/reconnect retransmits everything unacked, and
/// the receiver's dedup window suppresses every retransmission: each
/// logical send is applied exactly once, provable corr-by-corr against
/// the trace.
#[test]
fn reconnect_resends_are_deduplicated() {
    let n1 = NodeId::from_raw(1);
    let n2 = NodeId::from_raw(2);
    let (mut a, mut b, recorder) = pair(TcpConfig::default(), TcpConfig::default());
    let mut a_events = Vec::new();
    let mut b_events = Vec::new();

    // anchor: one send fully acknowledged, so the dedup window has
    // adopted this incarnation's stream
    a.send(
        n2,
        Message::RpcRequest {
            call: 0,
            body: StoreBytes::from(vec![0]),
        },
    );
    pump_until(&mut a, &mut b, &mut a_events, &mut b_events, |a, _, evs| {
        a.peer_acked(n2) >= 1 && delivered_corrs(evs).len() == 1
    });

    // sever the ack path (b's own outbound carries its acks), then send
    // a seeded batch: deliveries flow, acknowledgements cannot
    b.disconnect(n1);
    let batch = 5 + (torture_seed().unwrap_or(42) % 8); // 5..=12
    for call in 1..=batch {
        a.send(
            n2,
            Message::RpcRequest {
                call,
                body: StoreBytes::from(call.to_le_bytes().to_vec()),
            },
        );
    }
    pump_until(&mut a, &mut b, &mut a_events, &mut b_events, |_, _, evs| {
        delivered_corrs(evs).len() as u64 == 1 + batch
    });
    assert_eq!(a.peer_acked(n2), 1, "acks must be stuck at the anchor");

    // kill and redial a's connection: everything after the anchor is
    // retransmitted, and every retransmission must be suppressed
    a.disconnect(n2);
    a.connect(n2);
    let resend_deadline = Instant::now() + DEADLINE;
    while b.stats().duplicates < batch {
        assert!(
            Instant::now() < resend_deadline,
            "expected {batch} suppressed duplicates, got {:?}",
            b.stats()
        );
        drain(&mut a, &mut a_events);
        drain(&mut b, &mut b_events);
    }

    // restore the ack path and let the window drain
    b.connect(n1);
    pump_until(&mut a, &mut b, &mut a_events, &mut b_events, |a, _, _| {
        a.peer_acked(n2) == 1 + batch
    });

    // exactly-once, corr by corr: the delivered set equals the sent set
    let mut delivered = delivered_corrs(&b_events);
    let sent: Vec<CorrId> = recorder
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::MsgSend { .. }))
        .map(|e| e.corr.expect("sends carry corr"))
        .collect();
    assert_eq!(
        delivered.len() as u64,
        1 + batch,
        "dedup must leave each logical send applied exactly once"
    );
    let mut unique = delivered.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), delivered.len(), "a corr was applied twice");
    delivered.sort_unstable();
    let mut sent = sent;
    sent.sort_unstable();
    assert_eq!(
        delivered, sent,
        "every applied receive must pair with exactly one logical send"
    );
    assert!(
        b.stats().gaps == 0 && a.stats().gaps == 0,
        "nothing was lost in this schedule"
    );
    assert!(
        a.stats().resent >= batch,
        "the reconnect must actually have retransmitted"
    );
}

/// When the resend buffer overflows, the trimmed frames are gone for
/// good — the receiver must report the hole as a [`TransportEvent::Gap`]
/// rather than silently skipping the sequence numbers.
#[test]
fn resend_overflow_surfaces_a_gap_not_a_silent_skip() {
    let n1 = NodeId::from_raw(1);
    let n2 = NodeId::from_raw(2);
    let tiny = TcpConfig { resend_capacity: 2 };
    let (mut a, mut b, _recorder) = pair(tiny, TcpConfig::default());
    let mut a_events = Vec::new();
    let mut b_events = Vec::new();

    // anchor: seq 1 delivered and acknowledged
    a.send(
        n2,
        Message::RpcRequest {
            call: 0,
            body: StoreBytes::from(vec![0]),
        },
    );
    pump_until(&mut a, &mut b, &mut a_events, &mut b_events, |a, _, evs| {
        a.peer_acked(n2) >= 1 && delivered_corrs(evs).len() == 1
    });

    // while severed, overflow the 2-frame resend buffer: seqs 2..=4 are
    // trimmed and unrecoverable, 5 and 6 survive
    a.disconnect(n2);
    for call in 1..=5u64 {
        a.send(
            n2,
            Message::RpcRequest {
                call,
                body: StoreBytes::from(vec![u8::try_from(call).unwrap()]),
            },
        );
    }
    assert_eq!(a.peer_trimmed(n2), 3, "overflow must be counted");

    a.connect(n2);
    pump_until(&mut a, &mut b, &mut a_events, &mut b_events, |_, b, _| {
        b.stats().gaps >= 1
    });
    let gap = b_events
        .iter()
        .find_map(|e| match e {
            TransportEvent::Gap {
                from,
                expected,
                got,
            } => Some((*from, *expected, *got)),
            _ => None,
        })
        .expect("the hole must surface as an event");
    assert_eq!(
        gap,
        (n1, 2, 5),
        "the gap names exactly the trimmed range: expected seq 2, got 5"
    );

    // the surviving frames still arrive (masking degrades loudly, not
    // totally): anchor + seqs 5 and 6
    pump_until(&mut a, &mut b, &mut a_events, &mut b_events, |_, _, evs| {
        delivered_corrs(evs).len() == 3
    });
    assert_eq!(b.stats().fresh, 3);
    assert_eq!(b.stats().gaps, 1, "one hole, one report");
}
