//! A real-socket [`Transport`]: the paper's masking layer over TCP.
//!
//! Frames are length-prefixed (`u32` little-endian length, then body)
//! and carry the shared [`wire`] message encoding, so TCP traffic and
//! sim traffic exercise one codec. Per peer, the masking layer adds:
//!
//! * a **sequence number** per data frame with a receiver-side
//!   [`DedupWindow`] — retransmissions and network duplicates are
//!   suppressed, and holes surface as [`TransportEvent::Gap`];
//! * a **resend buffer** ([`SendWindow`]) with cumulative acks — a
//!   reconnect retransmits everything unacknowledged;
//! * **exponential-backoff reconnect** ([`Backoff`]) — a dead peer
//!   costs one cheap dial attempt per backoff period, not a spin.
//!
//! Connections are unidirectional: each endpoint dials its own outbound
//! connection per peer (on demand) and accepts inbound ones. Acks for
//! data received from a peer travel on our outbound connection *to*
//! that peer. Every connection opens with a `Hello` frame naming the
//! sender and its **incarnation** (fresh per process start): a restarted
//! sender gets a fresh dedup window on the receiver, so its restarted
//! sequence numbers are not mistaken for duplicates.
//!
//! [`Transport::disconnect`] administratively blocks our outbound link
//! to a peer until [`Transport::connect`] — the TCP analogue of the
//! simulator's partitions, and the hook deterministic masking tests use
//! to force retransmission and gaps.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io::{self, BufReader, Read, Write as IoWrite};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use chroma_base::NodeId;
use chroma_obs::{EventKind, Obs, ObsCell, Observable};
use parking_lot::Mutex;

use crate::masking::{Accept, Backoff, DedupWindow, SendWindow};
use crate::msg::{CorrId, Effect, Message, TimerTag};
use crate::transport::{Transport, TransportEvent};
use crate::wire;

/// Magic opening every `Hello` frame: **ch**roma **t**rans**p**ort.
const HELLO_MAGIC: [u8; 4] = *b"CHTP";
/// Framing version; receivers reject anything else.
const HELLO_VERSION: u8 = 1;

const TAG_HELLO: u8 = 0;
const TAG_DATA: u8 = 1;
const TAG_ACK: u8 = 2;

/// Upper bound on a single frame body; larger lengths are treated as
/// stream corruption and kill the connection, so `send` never queues
/// one.
const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Bytes a data frame's body carries ahead of the wire payload: tag,
/// sequence number, correlation id, send clock, payload length.
const DATA_HEADER: usize = 1 + 8 + 8 + 8 + 4;

/// First reconnect delay after a failed dial or dead connection, µs.
const RECONNECT_MIN_US: u64 = 10_000;
/// Reconnect delay cap, µs: delays double up to this.
const RECONNECT_MAX_US: u64 = 1_000_000;
/// Dial timeout; also the per-write timeout (a peer that stalls longer
/// than this is treated as disconnected).
const CONNECT_TIMEOUT: Duration = Duration::from_millis(200);

/// The one knob of a [`TcpTransport`].
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Per-peer resend buffer capacity (frames). Overflow drops the
    /// oldest unacknowledged frame, which the receiver reports as a
    /// gap.
    pub resend_capacity: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            resend_capacity: 1024,
        }
    }
}

/// Counters describing what the masking layer did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaskingStats {
    /// Data frames delivered for the first time.
    pub fresh: u64,
    /// Data frames suppressed as duplicates.
    pub duplicates: u64,
    /// Sequence holes surfaced as [`TransportEvent::Gap`].
    pub gaps: u64,
    /// First successful outbound connection to a peer, Hello included
    /// — one per peer this transport ever sent to.
    pub dials: u64,
    /// Successful outbound redials after a peer's stream was lost
    /// (a write failed, or [`Transport::disconnect`] cut it) — zero in
    /// a healthy run.
    pub reconnects: u64,
    /// Data frames retransmitted on a new connection.
    pub resent: u64,
    /// Socket write failures (each costs a reconnect).
    pub send_errors: u64,
    /// Inbound payloads the wire codec rejected (dropped, counted).
    pub decode_errors: u64,
}

/// What a reader thread learned from one read of a connection: every
/// frame that read brought in whole, in order.
struct InEvent {
    peer: NodeId,
    incarnation: u64,
    frames: Vec<InFrame>,
}

enum InFrame {
    Data {
        seq: u64,
        corr: CorrId,
        send_lc: u64,
        payload: Vec<u8>,
    },
    Ack {
        upto: u64,
    },
}

/// Outbound state for one peer.
#[derive(Debug)]
struct Outbound {
    window: SendWindow,
    backoff: Backoff,
    stream: Option<TcpStream>,
    /// Administratively severed ([`Transport::disconnect`]): no writes,
    /// no dials, until [`Transport::connect`].
    blocked: bool,
    /// Earliest time (µs on the transport clock) for the next dial.
    next_attempt_us: u64,
    /// All-time highest sequence number written, across connections —
    /// writing at or below it is a retransmission.
    max_written: u64,
    /// Whether a dial to this peer ever succeeded: the next one is a
    /// reconnect, not a first dial.
    dialed: bool,
}

impl Outbound {
    fn new(resend_capacity: usize) -> Self {
        Outbound {
            window: SendWindow::new(resend_capacity),
            backoff: Backoff::new(RECONNECT_MIN_US, RECONNECT_MAX_US),
            stream: None,
            blocked: false,
            next_attempt_us: 0,
            max_written: 0,
            dialed: false,
        }
    }
}

/// Inbound dedup state for one (peer, incarnation).
struct InboundState {
    incarnation: u64,
    window: DedupWindow,
}

/// The live inbound connections: each reader thread with a clone of
/// the stream it blocks on (so `Drop` can unblock it). The acceptor
/// reaps finished readers before adding one, so a flapping peer costs
/// one entry, not one per reconnect.
type Readers = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// The masking layer over real sockets: length-prefixed frames with
/// per-peer sequence numbers, a resend buffer with cumulative acks, and
/// backoff reconnects.
///
/// Event-driven: the host loop calls [`Transport::poll`], which yields
/// deliveries, timer firings and gap reports, and internally paces
/// reconnects and ack flushing.
pub struct TcpTransport {
    local: NodeId,
    incarnation: u64,
    obs: ObsCell,
    epoch: Instant,
    config: TcpConfig,
    listener_addr: SocketAddr,
    addrs: HashMap<NodeId, SocketAddr>,
    out: HashMap<NodeId, Outbound>,
    inbound: HashMap<NodeId, InboundState>,
    rx: mpsc::Receiver<InEvent>,
    /// Kept so the channel never disconnects while readers come and go.
    _tx: mpsc::Sender<InEvent>,
    pending: VecDeque<TransportEvent>,
    /// Cumulative acks owed, flushed from [`Transport::poll`].
    pending_acks: HashMap<NodeId, u64>,
    /// Armed timers by (deadline µs, arrival order among equal
    /// deadlines).
    timers: BTreeMap<(u64, u64), TimerTag>,
    corr_counter: CorrId,
    stats: MaskingStats,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    readers: Readers,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("local", &self.local)
            .field("addr", &self.listener_addr)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// Binds a listener on `addr` (use port 0 for an OS-assigned port)
    /// and starts the acceptor. Peers must be registered with
    /// [`TcpTransport::add_peer`] before traffic can flow to them.
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures.
    pub fn bind(local: NodeId, addr: impl ToSocketAddrs, config: TcpConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let listener_addr = listener.local_addr()?;
        let (tx, rx) = mpsc::channel();
        let shutdown = Arc::new(AtomicBool::new(false));
        let readers = Readers::default();
        let acceptor = {
            let tx = tx.clone();
            let shutdown = Arc::clone(&shutdown);
            let readers = Arc::clone(&readers);
            std::thread::Builder::new()
                .name(format!("chtp-accept-{local}"))
                .spawn(move || accept_loop(&listener, &tx, &shutdown, &readers))?
        };
        let incarnation = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            ^ (u64::from(std::process::id()) << 32);
        Ok(TcpTransport {
            local,
            incarnation,
            obs: ObsCell::new(),
            epoch: Instant::now(),
            config,
            listener_addr,
            addrs: HashMap::new(),
            out: HashMap::new(),
            inbound: HashMap::new(),
            rx,
            _tx: tx,
            pending: VecDeque::new(),
            pending_acks: HashMap::new(),
            timers: BTreeMap::new(),
            corr_counter: CorrId::MIN,
            stats: MaskingStats::default(),
            shutdown,
            acceptor: Some(acceptor),
            readers,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener_addr
    }

    /// Registers `peer` at `addr`. Register peers symmetrically on both
    /// endpoints: acks travel on the receiver's own outbound connection.
    pub fn add_peer(&mut self, peer: NodeId, addr: SocketAddr) {
        self.addrs.insert(peer, addr);
    }

    /// Masking-layer counters.
    #[must_use]
    pub fn stats(&self) -> MaskingStats {
        self.stats
    }

    /// Highest sequence number `peer` has cumulatively acknowledged
    /// (test/diagnostic support).
    #[must_use]
    pub fn peer_acked(&self, peer: NodeId) -> u64 {
        self.out.get(&peer).map_or(0, |o| o.window.acked())
    }

    /// Frames to `peer` dropped from the resend buffer by overflow;
    /// each will surface on the peer as a gap (test/diagnostic support).
    #[must_use]
    pub fn peer_trimmed(&self, peer: NodeId) -> u64 {
        self.out.get(&peer).map_or(0, |o| o.window.trimmed())
    }

    fn next_corr(&mut self) -> CorrId {
        let counter = self.corr_counter;
        self.corr_counter = counter.saturating_add(1);
        // namespace by sender so per-process counters never collide in
        // a merged trace (+1 keeps node 0 out of the zero namespace)
        counter | ((u64::from(self.local.as_raw()) + 1) << 40)
    }

    /// Flushes every peer with queued data or owed acks: dials (with
    /// backoff) where needed, writes unsent frames, retransmits after
    /// reconnects.
    fn flush_all(&mut self) {
        let peers: BTreeSet<NodeId> = self
            .out
            .keys()
            .chain(self.pending_acks.keys())
            .copied()
            .collect();
        for peer in peers {
            self.flush_peer(peer);
        }
    }

    fn flush_peer(&mut self, peer: NodeId) {
        if !self.addrs.contains_key(&peer) {
            return;
        }
        let capacity = self.config.resend_capacity;
        let mut out = (self.out.remove(&peer)).unwrap_or_else(|| Outbound::new(capacity));
        self.flush_out(peer, &mut out);
        self.out.insert(peer, out);
    }

    /// `peer`'s outbound state, made on first use.
    fn outbound(&mut self, peer: NodeId) -> &mut Outbound {
        let capacity = self.config.resend_capacity;
        self.out
            .entry(peer)
            .or_insert_with(|| Outbound::new(capacity))
    }

    fn flush_out(&mut self, peer: NodeId, out: &mut Outbound) {
        if out.blocked {
            return;
        }
        let owes_ack = self.pending_acks.contains_key(&peer);
        // a dead connection holding unacked frames must redial even
        // with nothing new to write: the rewind below is what turns
        // those frames back into unsent ones for retransmission
        let needs_redial = out.stream.is_none() && out.window.in_flight() > 0;
        if out.window.unsent().next().is_none() && !owes_ack && !needs_redial {
            return;
        }
        let now = self.now_us();
        if out.stream.is_none() {
            if now < out.next_attempt_us {
                return;
            }
            let addr = self.addrs[&peer];
            let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
                .and_then(|stream| {
                    stream.set_nodelay(true)?;
                    stream.set_write_timeout(Some(CONNECT_TIMEOUT))?;
                    Ok(stream)
                })
                .and_then(|mut stream| {
                    write_frame(&mut stream, &hello_body(self.local, self.incarnation))?;
                    Ok(stream)
                });
            match stream {
                Ok(stream) => {
                    out.stream = Some(stream);
                    out.window.rewind_sent();
                    out.backoff.reset();
                    if out.dialed {
                        self.stats.reconnects += 1;
                    } else {
                        out.dialed = true;
                        self.stats.dials += 1;
                    }
                }
                Err(_) => {
                    out.next_attempt_us = now + out.backoff.next_delay_us();
                    return;
                }
            }
        }
        let Some(stream) = out.stream.as_mut() else {
            return;
        };
        // every unsent frame and the owed ack leave in one write
        let ack = self.pending_acks.get(&peer).copied();
        let written = encode_unsent(&out.window, ack)
            .and_then(|(buf, seqs)| stream.write_all(&buf).map(|()| seqs));
        let Ok(seqs) = written else {
            self.drop_stream(out, now);
            return;
        };
        for seq in seqs {
            if seq <= out.max_written {
                self.stats.resent += 1;
            } else {
                out.max_written = seq;
            }
            out.window.mark_sent(seq);
        }
        if ack.is_some() {
            self.pending_acks.remove(&peer);
        }
    }

    fn drop_stream(&mut self, out: &mut Outbound, now: u64) {
        self.stats.send_errors += 1;
        if let Some(stream) = out.stream.take() {
            stream.shutdown(Shutdown::Both).ok();
        }
        out.next_attempt_us = now + out.backoff.next_delay_us();
    }

    fn handle_in(&mut self, event: InEvent) {
        for frame in event.frames {
            self.handle_frame(event.peer, event.incarnation, frame);
        }
    }

    fn handle_frame(&mut self, peer: NodeId, incarnation: u64, frame: InFrame) {
        match frame {
            InFrame::Data {
                seq,
                corr,
                send_lc,
                payload,
            } => {
                let entry = self.inbound.entry(peer).or_insert(InboundState {
                    incarnation,
                    window: DedupWindow::new(),
                });
                if entry.incarnation != incarnation {
                    // the peer restarted: its sequence numbers started
                    // over, so the old high-water mark is meaningless
                    *entry = InboundState {
                        incarnation,
                        window: DedupWindow::new(),
                    };
                }
                let verdict = entry.window.accept(seq);
                let high = entry.window.high();
                match verdict {
                    Accept::Duplicate => self.stats.duplicates += 1,
                    Accept::Fresh | Accept::Gap { .. } => {
                        if let Accept::Gap { expected, got } = verdict {
                            self.stats.gaps += 1;
                            self.pending.push_back(TransportEvent::Gap {
                                from: peer,
                                expected,
                                got,
                            });
                        }
                        match wire::decode(&payload) {
                            Ok(msg) => {
                                self.stats.fresh += 1;
                                self.pending.push_back(TransportEvent::Deliver {
                                    from: peer,
                                    msg,
                                    corr,
                                    send_lc,
                                });
                            }
                            Err(_) => self.stats.decode_errors += 1,
                        }
                    }
                }
                if let Some(high) = high {
                    self.pending_acks.insert(peer, high);
                }
            }
            InFrame::Ack { upto } => {
                if let Some(out) = self.out.get_mut(&peer) {
                    out.window.ack(upto);
                }
            }
        }
    }

    /// Queues `msg` for `to` without writing it: emits its `MsgSend`
    /// event and pushes its frame into the peer's resend buffer.
    /// Returns `false` if it was refused (unknown peer, or a frame
    /// past [`MAX_FRAME`]).
    fn queue(&mut self, to: NodeId, msg: Message) -> bool {
        let from = self.local;
        let kind = msg.kind();
        let corr = self.next_corr();
        let obs = self.obs.get();
        // the trace line is written before the frame can reach the
        // wire: a crash in between loses the message, never the send
        // event, so merged traces cannot contain orphan receives
        let send_lc = obs
            .emit_corr(corr, EventKind::MsgSend { from, to, kind })
            .map_or(0, |e| e.lc);
        let payload = wire::encode(&msg);
        // a frame the peer's reader refuses would be resent on every
        // reconnect, wedging the link: refuse it here, like an unknown
        // peer, and let the protocol above time out
        if !self.addrs.contains_key(&to) || DATA_HEADER + payload.len() > MAX_FRAME {
            self.stats.send_errors += 1;
            obs.emit_corr(corr, EventKind::MsgDrop { from, to, kind });
            return false;
        }
        // an invariant, not an environment error: the check above keeps
        // the payload under MAX_FRAME (16 MiB), far below u32::MAX
        let len = u32::try_from(payload.len()).expect("message below frame cap");
        let mut tail = Vec::with_capacity(20 + payload.len());
        tail.extend_from_slice(&corr.get().to_le_bytes());
        tail.extend_from_slice(&send_lc.to_le_bytes());
        tail.extend_from_slice(&len.to_le_bytes());
        tail.extend_from_slice(&payload);
        self.outbound(to).window.push(tail);
        true
    }
}

impl Transport for TcpTransport {
    fn local(&self) -> NodeId {
        self.local
    }

    fn obs(&self) -> Obs {
        self.obs.get().clone()
    }

    fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn send(&mut self, to: NodeId, msg: Message) {
        if self.queue(to, msg) {
            self.flush_peer(to);
        }
    }

    fn set_timer(&mut self, delay_us: u64, tag: TimerTag) {
        let at = self.now_us().saturating_add(delay_us);
        let seq = self
            .timers
            .range((at, 0)..=(at, u64::MAX))
            .next_back()
            .map_or(0, |(&(_, seq), _)| seq + 1);
        self.timers.insert((at, seq), tag);
    }

    fn connect(&mut self, peer: NodeId) {
        let out = self.outbound(peer);
        out.blocked = false;
        out.next_attempt_us = 0;
        out.backoff.reset();
        self.flush_peer(peer);
    }

    fn disconnect(&mut self, peer: NodeId) {
        let out = self.outbound(peer);
        out.blocked = true;
        if let Some(stream) = out.stream.take() {
            stream.shutdown(Shutdown::Both).ok();
        }
    }

    fn poll(&mut self, timeout: Option<Duration>) -> Option<TransportEvent> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(event) = self.pending.pop_front() {
                return Some(event);
            }
            let now = self.now_us();
            while let Some(entry) = self.timers.first_entry() {
                if entry.key().0 > now {
                    break;
                }
                let tag = entry.remove();
                self.pending.push_back(TransportEvent::Timer { tag });
            }
            if !self.pending.is_empty() {
                continue;
            }
            // what the readers already queued is ready, whatever the
            // timeout: a zero-timeout poll must still see it
            if let Ok(event) = self.rx.try_recv() {
                self.handle_in(event);
                continue;
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                return None;
            }
            // about to wait: queued frames and owed acks leave first
            // (a draining host's own batch carries the acks it owes)
            self.flush_all();
            let mut wait = Duration::from_millis(10);
            if let Some((&(at, _), _)) = self.timers.first_key_value() {
                wait = wait.min(Duration::from_micros(at.saturating_sub(now)));
            }
            if let Some(left) = left {
                wait = wait.min(left);
            }
            match self.rx.recv_timeout(wait) {
                Ok(event) => self.handle_in(event),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => return None,
            }
        }
    }

    /// Queues every send first, then flushes each peer it touched
    /// once: the frames of one batch for one peer, and the ack owed to
    /// it, leave in one write.
    fn apply_effects(&mut self, effects: Vec<Effect>) {
        let mut touched = BTreeSet::new();
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => {
                    if self.queue(to, msg) {
                        touched.insert(to);
                    }
                }
                Effect::SetTimer { delay, tag } => self.set_timer(delay, tag),
            }
        }
        for peer in touched {
            self.flush_peer(peer);
        }
    }
}

impl Observable for TcpTransport {
    fn install_obs(&self, obs: Obs) {
        self.obs.set(obs);
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for out in self.out.values_mut() {
            if let Some(stream) = out.stream.take() {
                stream.shutdown(Shutdown::Both).ok();
            }
        }
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join().ok();
        }
        let readers: Vec<_> = self.readers.lock().drain(..).collect();
        for (stream, handle) in readers {
            // unblock a reader stuck in read_exact
            stream.shutdown(Shutdown::Both).ok();
            handle.join().ok();
        }
    }
}

fn hello_body(local: NodeId, incarnation: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(18);
    body.push(TAG_HELLO);
    body.extend_from_slice(&HELLO_MAGIC);
    body.push(HELLO_VERSION);
    body.extend_from_slice(&local.as_raw().to_le_bytes());
    body.extend_from_slice(&incarnation.to_le_bytes());
    body
}

fn write_frame(stream: &mut TcpStream, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len()).map_err(|_| io::ErrorKind::InvalidInput)?;
    let mut buf = Vec::with_capacity(4 + body.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(body);
    stream.write_all(&buf)
}

/// Encodes every frame of `window` not yet written, then the
/// cumulative ack `ack` if one is owed, as one buffer; returns it with
/// the data frames' sequence numbers.
fn encode_unsent(window: &SendWindow, ack: Option<u64>) -> io::Result<(Vec<u8>, Vec<u64>)> {
    let mut buf = Vec::new();
    let mut seqs = Vec::new();
    for (seq, tail) in window.unsent() {
        put_frame(&mut buf, TAG_DATA, seq, tail)?;
        seqs.push(seq);
    }
    if let Some(upto) = ack {
        put_frame(&mut buf, TAG_ACK, upto, &[])?;
    }
    Ok((buf, seqs))
}

/// Appends one frame whose body is `tag`, `word` (a sequence number or
/// an acked one) and `tail` to `buf`.
fn put_frame(buf: &mut Vec<u8>, tag: u8, word: u64, tail: &[u8]) -> io::Result<()> {
    let len = u32::try_from(1 + 8 + tail.len()).map_err(|_| io::ErrorKind::InvalidInput)?;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.push(tag);
    buf.extend_from_slice(&word.to_le_bytes());
    buf.extend_from_slice(tail);
    Ok(())
}

/// Whether `buf` starts with a whole frame, length prefix and body.
fn holds_frame(buf: &[u8]) -> bool {
    let Some(len) = buf.get(..4) else {
        return false;
    };
    let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize;
    buf.len() >= 4 + len
}

fn read_frame(stream: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::ErrorKind::InvalidData.into());
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(body)
}

fn accept_loop(
    listener: &TcpListener,
    tx: &mpsc::Sender<InEvent>,
    shutdown: &Arc<AtomicBool>,
    readers: &Readers,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                // no clone, no way to unblock the reader: refuse the
                // connection and let the sender redial
                let Ok(clone) = stream.try_clone() else {
                    continue;
                };
                let tx = tx.clone();
                let shutdown = Arc::clone(shutdown);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("chtp-read".into())
                    .spawn(move || read_loop(stream, &tx, &shutdown))
                {
                    let mut readers = readers.lock();
                    // a reader ends when its peer hangs up or redials
                    readers.retain(|(_, reader)| !reader.is_finished());
                    readers.push((clone, handle));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn read_loop(stream: TcpStream, tx: &mpsc::Sender<InEvent>, shutdown: &Arc<AtomicBool>) {
    let mut stream = BufReader::new(stream);
    // a connection introduces itself before carrying traffic
    let Ok(hello) = read_frame(&mut stream) else {
        return;
    };
    let Some((peer, incarnation)) = parse_hello(&hello) else {
        return;
    };
    while !shutdown.load(Ordering::SeqCst) {
        // the first frame may block; every further one that read
        // already buffered whole joins it, and the host gets them all
        // as one message, so one drain sees a peer's batch whole
        let mut frames = Vec::new();
        let alive = loop {
            // a corrupt frame kills the connection, and the sender redials
            let Some(frame) = read_frame(&mut stream).ok().and_then(|b| parse_frame(&b)) else {
                break false;
            };
            frames.push(frame);
            if !holds_frame(stream.buffer()) {
                break true;
            }
        };
        if !frames.is_empty() {
            let event = InEvent {
                peer,
                incarnation,
                frames,
            };
            if tx.send(event).is_err() {
                return;
            }
        }
        if !alive {
            return;
        }
    }
}

fn parse_hello(body: &[u8]) -> Option<(NodeId, u64)> {
    if body.len() != 18 || body[0] != TAG_HELLO {
        return None;
    }
    if body[1..5] != HELLO_MAGIC || body[5] != HELLO_VERSION {
        return None;
    }
    let node = u32::from_le_bytes(body[6..10].try_into().ok()?);
    let incarnation = u64::from_le_bytes(body[10..18].try_into().ok()?);
    Some((NodeId::from_raw(node), incarnation))
}

fn parse_frame(body: &[u8]) -> Option<InFrame> {
    match *body.first()? {
        TAG_DATA => {
            if body.len() < DATA_HEADER {
                return None;
            }
            let seq = u64::from_le_bytes(body[1..9].try_into().ok()?);
            // senders count ids from 1: a zero id is a corrupt frame
            let corr = CorrId::new(u64::from_le_bytes(body[9..17].try_into().ok()?))?;
            let send_lc = u64::from_le_bytes(body[17..25].try_into().ok()?);
            let len = u32::from_le_bytes(body[25..29].try_into().ok()?) as usize;
            if body.len() != DATA_HEADER + len {
                return None;
            }
            Some(InFrame::Data {
                seq,
                corr,
                send_lc,
                payload: body[DATA_HEADER..].to_vec(),
            })
        }
        TAG_ACK => {
            if body.len() != 9 {
                return None;
            }
            Some(InFrame::Ack {
                upto: u64::from_le_bytes(body[1..9].try_into().ok()?),
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips() {
        let body = hello_body(NodeId::from_raw(7), 0xDEAD_BEEF);
        assert_eq!(parse_hello(&body), Some((NodeId::from_raw(7), 0xDEAD_BEEF)));
    }

    #[test]
    fn hello_rejects_wrong_magic_and_version() {
        let mut body = hello_body(NodeId::from_raw(7), 1);
        body[1] = b'X';
        assert_eq!(parse_hello(&body), None);
        let mut body = hello_body(NodeId::from_raw(7), 1);
        body[5] = HELLO_VERSION + 1;
        assert_eq!(parse_hello(&body), None);
    }

    #[test]
    fn data_frame_parses_and_rejects_truncation() {
        let payload = wire::encode(&Message::Ack {
            txn: crate::msg::TxnId(3),
        });
        let mut body = vec![TAG_DATA];
        body.extend_from_slice(&5u64.to_le_bytes());
        body.extend_from_slice(&77u64.to_le_bytes());
        body.extend_from_slice(&9u64.to_le_bytes());
        body.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        body.extend_from_slice(&payload);
        match parse_frame(&body) {
            Some(InFrame::Data {
                seq,
                corr,
                send_lc,
                payload: p,
            }) => {
                assert_eq!((seq, corr.get(), send_lc), (5, 77, 9));
                assert!(wire::decode(&p).is_ok());
            }
            _ => panic!("expected data frame"),
        }
        assert!(parse_frame(&body[..body.len() - 1]).is_none());
        assert!(parse_frame(&[99]).is_none());
        // correlation ids count from 1: a zero id is a corrupt frame
        body[9..17].copy_from_slice(&0u64.to_le_bytes());
        assert!(parse_frame(&body).is_none());
    }

    #[test]
    fn loopback_pair_delivers_and_acks() {
        let (a_id, b_id) = (NodeId::from_raw(1), NodeId::from_raw(2));
        let mut a = TcpTransport::bind(a_id, "127.0.0.1:0", TcpConfig::default()).unwrap();
        let mut b = TcpTransport::bind(b_id, "127.0.0.1:0", TcpConfig::default()).unwrap();
        a.add_peer(b_id, b.local_addr());
        b.add_peer(a_id, a.local_addr());
        a.send(
            b_id,
            Message::Ack {
                txn: crate::msg::TxnId(1),
            },
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut delivered = false;
        while Instant::now() < deadline && !(delivered && a.peer_acked(b_id) >= 1) {
            if let Some(TransportEvent::Deliver { from, msg, .. }) =
                b.poll(Some(Duration::from_millis(20)))
            {
                assert_eq!(from, a_id);
                assert_eq!(
                    msg,
                    Message::Ack {
                        txn: crate::msg::TxnId(1),
                    }
                );
                delivered = true;
            }
            a.poll(Some(Duration::from_millis(5)));
        }
        assert!(delivered, "frame never arrived");
        assert_eq!(b.stats().fresh, 1);
        assert!(
            a.peer_acked(b_id) >= 1,
            "cumulative ack never travelled back"
        );
    }

    #[test]
    fn zero_timeout_poll_returns_a_frame_the_peer_delivered() {
        let (a_id, b_id) = (NodeId::from_raw(1), NodeId::from_raw(2));
        let mut a = TcpTransport::bind(a_id, "127.0.0.1:0", TcpConfig::default()).unwrap();
        let mut b = TcpTransport::bind(b_id, "127.0.0.1:0", TcpConfig::default()).unwrap();
        a.add_peer(b_id, b.local_addr());
        b.add_peer(a_id, a.local_addr());
        let ping = Message::Ack {
            txn: crate::msg::TxnId(1),
        };
        a.send(b_id, ping.clone());
        // b never waits: the frame must come through a poll that may
        // not block, once b's reader has queued it
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match b.poll(Some(Duration::ZERO)) {
                Some(TransportEvent::Deliver { from, msg, .. }) => {
                    assert_eq!((from, msg), (a_id, ping));
                    break;
                }
                Some(other) => panic!("unexpected {other:?}"),
                None => {}
            }
            assert!(
                Instant::now() < deadline,
                "a zero-timeout poll never returned the delivered frame"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(b.stats().fresh, 1);
    }

    #[test]
    fn healthy_link_dials_once_and_never_reconnects() {
        let (a_id, b_id) = (NodeId::from_raw(1), NodeId::from_raw(2));
        let mut a = TcpTransport::bind(a_id, "127.0.0.1:0", TcpConfig::default()).unwrap();
        let mut b = TcpTransport::bind(b_id, "127.0.0.1:0", TcpConfig::default()).unwrap();
        a.add_peer(b_id, b.local_addr());
        b.add_peer(a_id, a.local_addr());
        let ping = Message::Ack {
            txn: crate::msg::TxnId(1),
        };
        a.send(b_id, ping.clone());
        b.send(a_id, ping);
        let deadline = Instant::now() + Duration::from_secs(5);
        let (mut at_a, mut at_b) = (0, 0);
        while at_a + at_b < 2 || a.peer_acked(b_id) < 1 || b.peer_acked(a_id) < 1 {
            assert!(
                Instant::now() < deadline,
                "a={:?} b={:?}",
                a.stats(),
                b.stats()
            );
            if let Some(TransportEvent::Deliver { .. }) = a.poll(Some(Duration::from_millis(5))) {
                at_a += 1;
            }
            if let Some(TransportEvent::Deliver { .. }) = b.poll(Some(Duration::from_millis(5))) {
                at_b += 1;
            }
        }
        assert_eq!((at_a, at_b), (1, 1));
        for stats in [a.stats(), b.stats()] {
            assert_eq!(stats.dials, 1, "{stats:?}");
            assert_eq!(stats.reconnects, 0, "{stats:?}");
        }
    }

    #[test]
    fn oversized_message_is_refused_without_wedging_the_link() {
        let (a_id, b_id) = (NodeId::from_raw(1), NodeId::from_raw(2));
        let mut a = TcpTransport::bind(a_id, "127.0.0.1:0", TcpConfig::default()).unwrap();
        let mut b = TcpTransport::bind(b_id, "127.0.0.1:0", TcpConfig::default()).unwrap();
        a.add_peer(b_id, b.local_addr());
        b.add_peer(a_id, a.local_addr());
        // b's reader would drop the connection on this frame; queued,
        // it would be resent on every redial, forever
        a.send(
            b_id,
            Message::RpcRequest {
                call: 1,
                body: vec![0; MAX_FRAME + 1].into(),
            },
        );
        let small = Message::Ack {
            txn: crate::msg::TxnId(2),
        };
        a.send(b_id, small.clone());
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut delivered = None;
        while Instant::now() < deadline && delivered.is_none() {
            if let Some(TransportEvent::Deliver { msg, .. }) =
                b.poll(Some(Duration::from_millis(20)))
            {
                delivered = Some(msg);
            }
            a.poll(Some(Duration::from_millis(5)));
        }
        assert_eq!(
            delivered,
            Some(small),
            "small message stuck behind the oversized one"
        );
        assert_eq!(a.stats().send_errors, 1, "{:?}", a.stats());
        // one dial for the small message, no redial
        assert_eq!(a.stats().dials, 1, "{:?}", a.stats());
        assert_eq!(a.stats().reconnects, 0, "{:?}", a.stats());
        assert_eq!(b.stats().gaps, 0);
        assert_eq!(b.stats().fresh, 1);
    }

    #[test]
    fn flapping_peer_does_not_accumulate_readers() {
        let (a_id, b_id) = (NodeId::from_raw(1), NodeId::from_raw(2));
        let mut a = TcpTransport::bind(a_id, "127.0.0.1:0", TcpConfig::default()).unwrap();
        let mut b = TcpTransport::bind(b_id, "127.0.0.1:0", TcpConfig::default()).unwrap();
        a.add_peer(b_id, b.local_addr());
        b.add_peer(a_id, a.local_addr());
        let deadline = Instant::now() + Duration::from_secs(30);
        for round in 1..=25u64 {
            // every round dials afresh: the previous one cut the link
            a.send(
                b_id,
                Message::Ack {
                    txn: crate::msg::TxnId(round),
                },
            );
            // wait for the ack too: with nothing in flight, only the
            // next send redials
            while a.peer_acked(b_id) < round {
                assert!(Instant::now() < deadline, "round {round} never acked");
                b.poll(Some(Duration::from_millis(5)));
                a.poll(Some(Duration::from_millis(1)));
            }
            let readers = b.readers.lock().len();
            assert!(
                readers <= 2,
                "round {round}: {readers} readers for one peer"
            );
            a.disconnect(b_id);
            // the cut reaches b's reader before the next dial
            while !b.readers.lock().iter().all(|(_, r)| r.is_finished()) {
                assert!(
                    Instant::now() < deadline,
                    "round {round}: reader outlived its link"
                );
                std::thread::yield_now();
            }
            a.connect(b_id);
        }
        assert_eq!(b.stats().fresh, 25);
        assert_eq!(a.stats().dials, 1, "{:?}", a.stats());
        assert!(a.stats().reconnects >= 20, "{:?}", a.stats());
        assert_eq!(b.stats().gaps, 0);
        // b's acks ride its one outbound link to a, which never flapped
        assert_eq!(a.readers.lock().len(), 1);
    }
}
