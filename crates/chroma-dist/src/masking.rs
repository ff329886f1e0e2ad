//! The masking layer's pure machinery: per-peer sequence windows.
//!
//! The paper's §2 communication subsystem masks lost and duplicated
//! messages so the protocols above see at-most-once delivery per frame.
//! [`TcpTransport`](crate::TcpTransport) implements that with three
//! small, independently testable pieces:
//!
//! * [`SendWindow`] — the sender's resend buffer: frames keep their
//!   sequence number until cumulatively acknowledged, and a reconnect
//!   rewinds to the last ack so everything in flight is retransmitted;
//! * [`DedupWindow`] — the receiver's duplicate filter: frames at or
//!   below the high-water mark are suppressed, and a hole in the
//!   sequence stream is *surfaced* as [`Accept::Gap`], never silently
//!   skipped;
//! * [`Backoff`] — exponential reconnect pacing.
//!
//! All three are deterministic and socket-free, so the protocol-level
//! guarantees have unit tests that need no network at all.

use std::collections::VecDeque;

/// The sender's half of the masking layer: a bounded resend buffer of
/// sequence-numbered frames for one peer.
///
/// Frames stay buffered until the peer cumulatively acknowledges them;
/// `sent` tracks how far the current connection has written, so a
/// reconnect ([`SendWindow::rewind_sent`]) retransmits exactly the
/// unacknowledged suffix.
#[derive(Debug)]
pub(crate) struct SendWindow {
    next_seq: u64,
    /// Highest cumulatively acknowledged sequence number.
    acked: u64,
    /// Highest sequence number written to the current connection.
    sent: u64,
    /// Unacknowledged frames, oldest first: `(seq, encoded frame)`.
    unacked: VecDeque<(u64, Vec<u8>)>,
    capacity: usize,
    trimmed: u64,
}

impl SendWindow {
    /// Creates a window retaining at most `capacity` unacknowledged
    /// frames. When the buffer overflows, the oldest frame is dropped
    /// and counted in [`SendWindow::trimmed`] — the receiver will see
    /// that hole as a gap, by design.
    #[must_use]
    pub(crate) fn new(capacity: usize) -> Self {
        SendWindow {
            next_seq: 1,
            acked: 0,
            sent: 0,
            unacked: VecDeque::new(),
            capacity: capacity.max(1),
            trimmed: 0,
        }
    }

    /// Buffers `frame`, assigning and returning its sequence number.
    pub(crate) fn push(&mut self, frame: Vec<u8>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unacked.push_back((seq, frame));
        if self.unacked.len() > self.capacity {
            self.unacked.pop_front();
            self.trimmed += 1;
        }
        seq
    }

    /// Applies a cumulative acknowledgement: every frame with sequence
    /// number `<= upto` is released.
    pub(crate) fn ack(&mut self, upto: u64) {
        if upto > self.acked {
            self.acked = upto;
        }
        while self.unacked.front().is_some_and(|(seq, _)| *seq <= upto) {
            self.unacked.pop_front();
        }
    }

    /// Frames buffered but not yet written to the current connection,
    /// oldest first.
    pub(crate) fn unsent(&self) -> impl Iterator<Item = (u64, &[u8])> {
        let sent = self.sent;
        self.unacked
            .iter()
            .filter(move |(seq, _)| *seq > sent)
            .map(|(seq, frame)| (*seq, frame.as_slice()))
    }

    /// Records that every frame up to `seq` has been written to the
    /// current connection.
    pub(crate) fn mark_sent(&mut self, seq: u64) {
        if seq > self.sent {
            self.sent = seq;
        }
    }

    /// A new connection replaced the old one: everything past the last
    /// cumulative ack must be retransmitted.
    pub(crate) fn rewind_sent(&mut self) {
        self.sent = self.acked;
    }

    /// Highest cumulatively acknowledged sequence number.
    #[must_use]
    pub(crate) fn acked(&self) -> u64 {
        self.acked
    }

    /// Number of frames currently awaiting acknowledgement.
    #[must_use]
    pub(crate) fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// Frames dropped from the buffer because it overflowed; each one
    /// will surface as a receiver-side gap.
    #[must_use]
    pub(crate) fn trimmed(&self) -> u64 {
        self.trimmed
    }
}

/// The receiver's verdict on one inbound sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Accept {
    /// First sight: deliver the frame.
    Fresh,
    /// Already delivered (a retransmission or network duplicate): drop.
    Duplicate,
    /// The stream jumped: frames `expected..got` were never received
    /// and — because the sender advanced past them — never will be.
    /// The frame itself is still delivered; the hole is reported.
    Gap {
        /// The sequence number the window expected next.
        expected: u64,
        /// The sequence number that actually arrived.
        got: u64,
    },
}

/// The receiver's half of the masking layer: a cumulative high-water
/// mark per (peer, incarnation).
///
/// The window is *adopt-first*: a fresh window anchors on whatever
/// sequence number arrives first, which is how a restarted receiver
/// rejoins a sender mid-stream without flagging the missed prefix.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct DedupWindow {
    high: Option<u64>,
}

impl DedupWindow {
    /// Creates an unanchored window.
    #[must_use]
    pub(crate) fn new() -> Self {
        DedupWindow::default()
    }

    /// Classifies sequence number `seq` and advances the high-water
    /// mark past it.
    pub(crate) fn accept(&mut self, seq: u64) -> Accept {
        let verdict = match self.high {
            None => Accept::Fresh,
            Some(high) if seq <= high => return Accept::Duplicate,
            Some(high) if seq == high + 1 => Accept::Fresh,
            Some(high) => Accept::Gap {
                expected: high + 1,
                got: seq,
            },
        };
        self.high = Some(seq);
        verdict
    }

    /// The highest sequence number accepted so far (for cumulative
    /// acks); `None` until the window anchors.
    #[must_use]
    pub(crate) fn high(&self) -> Option<u64> {
        self.high
    }
}

/// Exponential backoff for reconnect attempts: delays double from
/// `base` up to `max`, and a successful connection resets the run.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Backoff {
    base_us: u64,
    max_us: u64,
    cur_us: u64,
}

impl Backoff {
    /// Creates a backoff ranging from `base_us` to `max_us`.
    #[must_use]
    pub(crate) fn new(base_us: u64, max_us: u64) -> Self {
        let base_us = base_us.max(1);
        Backoff {
            base_us,
            max_us: max_us.max(base_us),
            cur_us: base_us,
        }
    }

    /// Returns the delay to wait before the next attempt and doubles
    /// the subsequent one (capped at the maximum).
    pub(crate) fn next_delay_us(&mut self) -> u64 {
        let delay = self.cur_us;
        self.cur_us = (self.cur_us.saturating_mul(2)).min(self.max_us);
        delay
    }

    /// An attempt succeeded: the next failure starts over from `base`.
    pub(crate) fn reset(&mut self) {
        self.cur_us = self.base_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_window_assigns_monotonic_seqs_and_acks_cumulatively() {
        let mut w = SendWindow::new(8);
        assert_eq!(w.push(vec![1]), 1);
        assert_eq!(w.push(vec![2]), 2);
        assert_eq!(w.push(vec![3]), 3);
        assert_eq!(w.in_flight(), 3);
        w.ack(2);
        assert_eq!(w.acked(), 2);
        assert_eq!(w.in_flight(), 1);
        // stale (lower) acks are idempotent
        w.ack(1);
        assert_eq!(w.acked(), 2);
        assert_eq!(w.in_flight(), 1);
    }

    #[test]
    fn send_window_resends_unacked_suffix_after_rewind() {
        let mut w = SendWindow::new(8);
        for v in 1..=4u8 {
            let seq = w.push(vec![v]);
            w.mark_sent(seq);
        }
        w.ack(2);
        // nothing unsent on the live connection
        assert_eq!(w.unsent().count(), 0);
        // connection died: everything past the ack goes again
        w.rewind_sent();
        let resend: Vec<u64> = w.unsent().map(|(seq, _)| seq).collect();
        assert_eq!(resend, vec![3, 4]);
    }

    #[test]
    fn send_window_overflow_trims_oldest_and_counts() {
        let mut w = SendWindow::new(2);
        w.push(vec![1]);
        w.push(vec![2]);
        w.push(vec![3]);
        assert_eq!(w.trimmed(), 1);
        assert_eq!(w.in_flight(), 2);
        let held: Vec<u64> = w.unsent().map(|(seq, _)| seq).collect();
        assert_eq!(held, vec![2, 3], "seq 1 was sacrificed");
    }

    #[test]
    fn dedup_window_adopts_then_filters() {
        let mut w = DedupWindow::new();
        // adopt-first: a restarted receiver anchors mid-stream
        assert_eq!(w.accept(7), Accept::Fresh);
        assert_eq!(w.accept(8), Accept::Fresh);
        assert_eq!(w.accept(8), Accept::Duplicate);
        assert_eq!(w.accept(3), Accept::Duplicate);
        assert_eq!(w.high(), Some(8));
    }

    #[test]
    fn dedup_window_surfaces_gaps_not_skips() {
        let mut w = DedupWindow::new();
        assert_eq!(w.accept(1), Accept::Fresh);
        assert_eq!(
            w.accept(4),
            Accept::Gap {
                expected: 2,
                got: 4
            },
            "a hole must be reported, never silently absorbed"
        );
        // the window advanced past the hole: the stream continues
        assert_eq!(w.accept(5), Accept::Fresh);
        // late arrivals from inside the hole are duplicates, not fresh
        assert_eq!(w.accept(3), Accept::Duplicate);
    }

    #[test]
    fn backoff_doubles_to_cap_and_resets() {
        let mut b = Backoff::new(10, 50);
        assert_eq!(b.next_delay_us(), 10);
        assert_eq!(b.next_delay_us(), 20);
        assert_eq!(b.next_delay_us(), 40);
        assert_eq!(b.next_delay_us(), 50);
        assert_eq!(b.next_delay_us(), 50);
        b.reset();
        assert_eq!(b.next_delay_us(), 10);
    }
}
