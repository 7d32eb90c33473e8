//! The nonblocking connection layer: the one server loop of both `fpopd`
//! and `fpoprouter`. One poller thread multiplexes every client
//! connection, speaking **both** wire protocols on one port, and hands
//! each request to a [`Backend`]: the local [`Engine`]
//! ([`EngineBackend`]) or the fleet router (`fleet::Router`).
//!
//! ## Protocol sniffing
//!
//! The first byte of a connection decides its protocol for life:
//! [`crate::fpopb::MARKER`] (`0xFB`, not a valid UTF-8 leading byte)
//! selects the binary `fpopb/1` frame protocol; anything else selects
//! the newline-delimited text protocol ([`crate::proto`]). See
//! `docs/PROTOCOL.md` for the normative spec of both.
//!
//! ## Event-loop architecture
//!
//! A single thread owns a [`Poller`] (epoll on Linux) that watches the
//! listener, every client connection, and the backend's own sockets: the
//! engine backend's cross-thread [`Waker`], or the router's one
//! persistent upstream connection per live shard. `Hello`, `Ping`,
//! `Shutdown` and malformed input are answered here, at the edge; every
//! other request goes to the backend, which answers at once or in a
//! later turn. The engine backend submits with
//! [`crate::Engine::submit_nowait`] (so backpressure surfaces as an error
//! reply, never a stalled poller) and registers a
//! [`crate::Ticket::on_done`] hook that queues the completion and wakes
//! the poller. Text connections answer **in order** (numbered reply
//! slots preserve request order across slow elaborations); binary
//! connections answer **out of order**, tagged by correlation id — that
//! is what makes pipelining pay.
//!
//! Responses accumulate in a per-connection write buffer and are
//! flushed **once per readiness turn**, not per reply — a pipelined
//! batch of N requests costs a handful of write syscalls, not N (the
//! regression test pins this via `engine_conn_write_flushes_total`).
//! A connection that has read EOF is watched for writability only while
//! it has bytes to write, so a half-closed client never spins the loop.
//!
//! ## Shutdown drain
//!
//! Once `stop` is set the loop stops accepting and reading. It keeps
//! turning until nothing is pending or [`DRAIN_DEADLINE`] passes,
//! answers what is left with `ShuttingDown`, and writes out every
//! connection's buffer.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::engine::{Engine, Ticket};
use crate::fpopb::{self, DecodeStep, ErrCode, Frame, FrameType};
use crate::poll::{Event, Interest, Poller, Waker};
use crate::proto;
use crate::request::{EngineError, Priority, Request};

const TOKEN_LISTENER: usize = 0;
const FIRST_CONN_TOKEN: usize = 1;

/// Tokens from here up belong to the backend: `BACKEND_TOKEN + i` is
/// handed to [`Backend::event`] as `i`.
pub(crate) const BACKEND_TOKEN: usize = 1 << (usize::BITS - 1);

/// Cap on a single text-protocol line; a line that grows past this
/// without a newline is answered with an error and the connection
/// closed (the binary protocol has its own [`fpopb::MAX_BODY`] cap).
const MAX_TEXT_LINE: usize = 4 * 1024 * 1024;

/// Cap on a socket's unprocessed input between turns.
const MAX_BUFFERED: usize = fpopb::MAX_BODY + MAX_TEXT_LINE;

/// How long the event loop sleeps at most before re-checking the stop
/// flag (external shutdown without a wake).
const POLL_TIMEOUT: Duration = Duration::from_millis(100);

/// How long graceful shutdown waits for in-flight requests to complete
/// before answering them with `ShuttingDown`.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// The connection layer's instruments: `engine_conn_*` counters in the
/// backend's registry — the served engine's session registry, or the
/// router's own — so they render in its `metrics` exposition (catalog in
/// `docs/OBSERVABILITY.md`).
struct ConnMetrics {
    accepted: Arc<trace::Counter>,
    closed: Arc<trace::Counter>,
    text_requests: Arc<trace::Counter>,
    binary_frames: Arc<trace::Counter>,
    decode_errors: Arc<trace::Counter>,
    /// Readiness turns that issued ≥ 1 `write` for a connection. The
    /// pipelining win shows up here — 100 pipelined requests should cost
    /// a handful of flushes, not 100.
    write_flushes: Arc<trace::Counter>,
}

impl ConnMetrics {
    fn register(reg: &trace::Registry) -> ConnMetrics {
        ConnMetrics {
            accepted: reg.counter("engine_conn_accepted_total", "connections accepted"),
            closed: reg.counter("engine_conn_closed_total", "connections closed"),
            text_requests: reg.counter(
                "engine_conn_text_requests_total",
                "text-protocol request lines processed",
            ),
            binary_frames: reg.counter(
                "engine_conn_binary_frames_total",
                "binary fpopb/1 frames decoded and dispatched",
            ),
            decode_errors: reg.counter(
                "engine_conn_decode_errors_total",
                "frames or lines rejected by the decoder/parser",
            ),
            write_flushes: reg.counter(
                "engine_conn_write_flushes_total",
                "readiness turns that issued at least one write per connection",
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// What the edge and a backend exchange
// ---------------------------------------------------------------------------

/// Where a backend's answer goes: a client connection, and in it a
/// binary correlation id or a numbered text reply slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ReplyTo {
    pub(crate) token: usize,
    pub(crate) slot: Slot,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Slot {
    /// A binary request: answered by a frame under this correlation id.
    Frame(u64),
    /// A text request: the n-th line of its connection, answered in order.
    Line(u64),
}

/// A reply frame's type and body. A text connection renders it as one
/// line: `err {escape(reason)}` for [`FrameType::Err`], otherwise
/// `ok {escape(body)}` — for an engine result, the line
/// [`proto::render_result`] renders, and for a shard's reply, the line
/// the shard would have sent.
pub(crate) struct Answer {
    pub(crate) ty: FrameType,
    pub(crate) body: Vec<u8>,
}

impl Answer {
    pub(crate) fn ok(payload: impl Into<Vec<u8>>) -> Answer {
        Answer {
            ty: FrameType::Ok,
            body: payload.into(),
        }
    }

    pub(crate) fn err(code: ErrCode, reason: &str) -> Answer {
        let mut body = Vec::with_capacity(1 + reason.len());
        body.push(code as u8);
        body.extend_from_slice(reason.as_bytes());
        Answer {
            ty: FrameType::Err,
            body,
        }
    }

    fn of_error(e: &EngineError) -> Answer {
        Answer::err(ErrCode::of_engine(e), &e.to_string())
    }

    fn line(&self) -> String {
        let (verdict, payload) = match self.ty {
            FrameType::Err => ("err", self.body.get(1..).unwrap_or_default()),
            _ => ("ok", &self.body[..]),
        };
        format!(
            "{verdict} {}",
            proto::escape(&String::from_utf8_lossy(payload))
        )
    }
}

impl From<Frame> for Answer {
    /// A shard's reply, forwarded as is.
    fn from(frame: Frame) -> Answer {
        Answer {
            ty: frame.ty,
            body: frame.body,
        }
    }
}

/// Answers a backend owes, delivered by the edge once per turn.
pub(crate) type Outbox = Vec<(ReplyTo, Answer)>;

/// A request the edge hands to the backend, decoded from either
/// protocol, with the client's own frame body where it came in binary:
/// the router forwards that body unchanged.
pub(crate) enum Job<'a> {
    /// A request, its priority, and the frame body (`None` for text).
    Submit(Request, Priority, Option<&'a [u8]>),
    /// A template digest, its priority, and the frame body.
    SubmitTemplate(u64, Priority, &'a [u8]),
    RegisterTemplate(Request, &'a [u8]),
    Checkpoint,
    SlowLog,
}

/// What executes the requests the edge does not answer itself. Exactly
/// two implementations: [`EngineBackend`] and the fleet's `Router`.
pub(crate) trait Backend {
    /// The registry the edge's `engine_conn_*` counters land in.
    fn registry(&self) -> &trace::Registry;
    /// Registers the backend's own fds (under [`BACKEND_TOKEN`] and up).
    fn attach(&mut self, _: &mut Poller) -> std::io::Result<()> {
        Ok(())
    }
    /// Takes one request; its answer goes to `out`, now or in a later
    /// turn, exactly once.
    fn dispatch(&mut self, to: ReplyTo, job: Job<'_>, poller: &mut Poller, out: &mut Outbox);
    /// A readiness event on backend token `BACKEND_TOKEN + index`.
    fn event(&mut self, index: usize, ev: &Event, poller: &mut Poller, out: &mut Outbox);
    /// Runs once per turn, after every event.
    fn turn(&mut self, poller: &mut Poller, out: &mut Outbox);
    /// Gives up on every pending request (drain deadline), listing where
    /// answers are still owed.
    fn abandon(&mut self, owed: &mut Vec<ReplyTo>);
}

// ---------------------------------------------------------------------------
// Sockets
// ---------------------------------------------------------------------------

/// A registered nonblocking socket with its buffers: a client connection
/// at the edge, or the router's connection to a shard.
pub(crate) struct Link {
    pub(crate) stream: TcpStream,
    pub(crate) rbuf: Vec<u8>,
    pub(crate) wbuf: Vec<u8>,
    interest: Interest,
}

impl Link {
    /// Makes `stream` nonblocking and registers it for reads.
    pub(crate) fn register(
        stream: TcpStream,
        poller: &mut Poller,
        token: usize,
    ) -> std::io::Result<Link> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        poller.register(stream.as_raw_fd(), token, Interest::READ)?;
        Ok(Link {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            interest: Interest::READ,
        })
    }

    /// Appends everything the socket has to `rbuf`: `Ok(false)` at EOF.
    pub(crate) fn fill(&mut self) -> std::io::Result<bool> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.rbuf.extend_from_slice(&buf[..n]);
                    // Over-cap lines/frames are handled by the decoders;
                    // this only guards pathological growth between turns.
                    if self.rbuf.len() > MAX_BUFFERED {
                        return Err(std::io::ErrorKind::InvalidData.into());
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes as much of `wbuf` as the socket accepts.
    pub(crate) fn flush(&mut self) -> std::io::Result<()> {
        let mut written = 0;
        let result = loop {
            if written == self.wbuf.len() {
                break Ok(());
            }
            match self.stream.write(&self.wbuf[written..]) {
                Ok(0) => break Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            }
        };
        self.wbuf.drain(..written);
        result
    }

    /// Re-registers when `interest` differs from the current one (level
    /// triggered: permanent write interest would spin the loop on an
    /// always-writable socket).
    pub(crate) fn watch(&mut self, poller: &mut Poller, token: usize, interest: Interest) {
        if interest != self.interest
            && poller
                .modify(self.stream.as_raw_fd(), token, interest)
                .is_ok()
        {
            self.interest = interest;
        }
    }

    pub(crate) fn push_frame(&mut self, ty: FrameType, corr: u64, body: &[u8]) {
        self.wbuf
            .extend_from_slice(&fpopb::encode_frame(ty, corr, body));
    }
}

// ---------------------------------------------------------------------------
// The edge
// ---------------------------------------------------------------------------

/// Which protocol a connection speaks (decided by its first byte).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Protocol {
    Undecided,
    Text,
    Binary,
}

struct Conn {
    link: Link,
    proto: Protocol,
    /// Text protocol: reply slots in request order, `None` while the
    /// backend works on it; the front slot is line number `text_base`.
    slots: VecDeque<Option<String>>,
    text_base: u64,
    /// Requests handed to the backend and not yet answered.
    pending: usize,
    /// Read EOF: nothing more to read; close once pending work flushes.
    eof: bool,
    /// Fatal protocol error: discard further input, flush, then close.
    closing: bool,
    /// Hard I/O error: stop writing entirely.
    dead: bool,
}

impl Conn {
    fn push_err_frame(&mut self, corr: u64, code: ErrCode, reason: &str) {
        let a = Answer::err(code, reason);
        self.link.push_frame(a.ty, corr, &a.body);
    }

    /// Queues a text reply the edge answered itself, behind pending ones.
    fn push_line(&mut self, line: String) {
        self.slots.push_back(Some(line));
    }

    /// Moves every deliverable in-order text reply to the write buffer.
    fn drain_slots(&mut self) {
        while let Some(Some(_)) = self.slots.front() {
            if let Some(Some(line)) = self.slots.pop_front() {
                self.link.wbuf.extend_from_slice(line.as_bytes());
                self.link.wbuf.push(b'\n');
                self.text_base += 1;
            }
        }
    }
}

/// The edge's state besides its connections.
struct Edge<'a, B> {
    backend: B,
    poller: Poller,
    m: ConnMetrics,
    out: Outbox,
    stop: &'a AtomicBool,
}

/// Serves both protocols on `listener` with `backend` until `stop` is
/// set (by a client `shutdown`, either protocol, or externally), then
/// drains.
///
/// # Errors
///
/// Fatal listener/poller errors; per-connection errors only drop that
/// connection.
pub(crate) fn run<B: Backend>(
    mut backend: B,
    listener: TcpListener,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    backend.attach(&mut poller)?;
    let mut edge = Edge {
        m: ConnMetrics::register(backend.registry()),
        backend,
        poller,
        out: Vec::new(),
        stop,
    };
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = Vec::new();
    let mut drain_until: Option<Instant> = None;

    loop {
        if drain_until.is_none() && stop.load(Ordering::SeqCst) {
            let _ = edge.poller.deregister(listener.as_raw_fd());
            drain_until = Some(Instant::now() + DRAIN_DEADLINE);
        }
        if let Some(deadline) = drain_until {
            if Instant::now() >= deadline || conns.values().all(|c| c.pending == 0) {
                break;
            }
        }
        events.clear();
        edge.poller.wait(&mut events, Some(POLL_TIMEOUT))?;

        for ev in &events {
            match ev.token {
                TOKEN_LISTENER if drain_until.is_none() => loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let token = next_token;
                            next_token += 1;
                            let link = Link::register(stream, &mut edge.poller, token)?;
                            conns.insert(
                                token,
                                Conn {
                                    link,
                                    proto: Protocol::Undecided,
                                    slots: VecDeque::new(),
                                    text_base: 0,
                                    pending: 0,
                                    eof: false,
                                    closing: false,
                                    dead: false,
                                },
                            );
                            edge.m.accepted.inc();
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e),
                    }
                },
                TOKEN_LISTENER => {}
                token if token >= BACKEND_TOKEN => {
                    edge.backend
                        .event(token - BACKEND_TOKEN, ev, &mut edge.poller, &mut edge.out);
                }
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        if conn.eof {
                            // No read interest after EOF: an error or a
                            // full hangup means the peer is gone.
                            conn.dead |= ev.hangup;
                        } else if ev.readable && drain_until.is_none() {
                            edge.read_turn(conn, token);
                        }
                        // Writability is consumed by the flush pass below.
                    }
                }
            }
        }

        edge.backend.turn(&mut edge.poller, &mut edge.out);
        for (to, answer) in edge.out.drain(..) {
            deliver(&mut conns, to, &answer);
        }

        // One flush per connection per readiness turn.
        conns.retain(|&token, conn| {
            conn.drain_slots();
            if !conn.dead && !conn.link.wbuf.is_empty() {
                edge.m.write_flushes.inc();
                conn.dead = conn.link.flush().is_err();
            }
            let idle = conn.pending == 0 && conn.link.wbuf.is_empty();
            if conn.dead || ((conn.eof || conn.closing) && idle) {
                let _ = edge.poller.deregister(conn.link.stream.as_raw_fd());
                edge.m.closed.inc();
                return false;
            }
            let interest = Interest {
                readable: !conn.eof && drain_until.is_none(),
                writable: !conn.link.wbuf.is_empty(),
            };
            conn.link.watch(&mut edge.poller, token, interest);
            true
        });
    }

    // Whatever is still pending at the deadline is answered with
    // `ShuttingDown`; then every connection's buffer goes out — the peer
    // that sent `shutdown` must read its acknowledgement before we return.
    let mut owed = Vec::new();
    edge.backend.abandon(&mut owed);
    let shutting_down = Answer::of_error(&EngineError::ShuttingDown);
    for to in owed {
        deliver(&mut conns, to, &shutting_down);
    }
    for (_, mut conn) in conns.drain() {
        let _ = edge.poller.deregister(conn.link.stream.as_raw_fd());
        conn.drain_slots();
        if !conn.dead && !conn.link.wbuf.is_empty() {
            edge.m.write_flushes.inc();
            let stream = &mut conn.link.stream;
            stream.set_nonblocking(false).ok();
            stream.set_write_timeout(Some(Duration::from_secs(2))).ok();
            let _ = stream.write_all(&conn.link.wbuf);
        }
        edge.m.closed.inc();
    }
    Ok(())
}

/// Puts one backend answer where its request came from.
fn deliver(conns: &mut HashMap<usize, Conn>, to: ReplyTo, answer: &Answer) {
    let Some(conn) = conns.get_mut(&to.token) else {
        return; // the client went away
    };
    conn.pending = conn.pending.saturating_sub(1);
    match to.slot {
        Slot::Frame(corr) => conn.link.push_frame(answer.ty, corr, &answer.body),
        Slot::Line(n) => {
            if let Some(slot) = conn.slots.get_mut(n.wrapping_sub(conn.text_base) as usize) {
                *slot = Some(answer.line());
            }
        }
    }
}

impl<B: Backend> Edge<'_, B> {
    /// Reads everything currently available on `conn` and processes it.
    fn read_turn(&mut self, conn: &mut Conn, token: usize) {
        match conn.link.fill() {
            Ok(open) => conn.eof = !open,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
        if conn.closing {
            conn.link.rbuf.clear();
            return;
        }
        if conn.proto == Protocol::Undecided {
            match conn.link.rbuf.first() {
                None => return,
                Some(&fpopb::MARKER) => conn.proto = Protocol::Binary,
                Some(_) => conn.proto = Protocol::Text,
            }
        }
        // At EOF every complete line or frame still deserves an answer; a
        // *mid-frame* hangup just abandons the partial frame.
        let used = match conn.proto {
            Protocol::Binary => self.process_binary(conn, token),
            Protocol::Text => self.process_text(conn, token),
            Protocol::Undecided => unreachable!("decided above"),
        };
        if conn.closing {
            conn.link.rbuf.clear();
        } else {
            conn.link.rbuf.drain(..used);
        }
    }

    /// Decodes and dispatches every complete binary frame in the read
    /// buffer; returns the bytes consumed.
    fn process_binary(&mut self, conn: &mut Conn, token: usize) -> usize {
        let mut at = 0;
        while !conn.closing {
            match fpopb::decode_frame(&conn.link.rbuf[at..]) {
                Ok(DecodeStep::Incomplete) => break,
                Ok(DecodeStep::Ready { frame, consumed }) => {
                    at += consumed;
                    self.m.binary_frames.inc();
                    self.handle_frame(conn, token, frame);
                }
                Err(e) => {
                    self.m.decode_errors.inc();
                    match e.recoverable() {
                        Some(consumed) => {
                            // Frame boundary held: report, skip, keep
                            // serving this connection.
                            let corr = match &e {
                                fpopb::DecodeError::ChecksumMismatch { corr, .. }
                                | fpopb::DecodeError::BadType { corr, .. } => *corr,
                                _ => 0,
                            };
                            conn.push_err_frame(corr, e.code(), &e.reason());
                            at += consumed;
                        }
                        None => {
                            // Stream desync: report once and close.
                            conn.push_err_frame(0, e.code(), &e.reason());
                            conn.closing = true;
                        }
                    }
                }
            }
        }
        at
    }

    fn malformed(&mut self, conn: &mut Conn, corr: u64, reason: &str) {
        self.m.decode_errors.inc();
        conn.push_err_frame(corr, ErrCode::Malformed, reason);
    }

    /// Answers one decoded binary frame at the edge, or hands it to the
    /// backend.
    fn handle_frame(&mut self, conn: &mut Conn, token: usize, frame: Frame) {
        let corr = frame.corr;
        let body = &frame.body[..];
        let job = match frame.ty {
            FrameType::Hello => {
                // Version negotiation: we speak exactly fpopb/1; a client
                // that can't is told so and may close.
                let mut ack = Vec::new();
                fpopb::w_varint(&mut ack, u64::from(fpopb::VERSION));
                conn.link.push_frame(FrameType::HelloAck, corr, &ack);
                return;
            }
            FrameType::Ping => {
                conn.link.push_frame(FrameType::Pong, corr, &[]);
                return;
            }
            FrameType::Shutdown => {
                conn.link.push_frame(FrameType::Ok, corr, b"shutting down");
                self.stop.store(true, Ordering::SeqCst);
                return;
            }
            FrameType::Checkpoint => Job::Checkpoint,
            FrameType::SlowLog => Job::SlowLog,
            FrameType::Submit => {
                let parsed = body
                    .first()
                    .ok_or_else(|| "empty submit body".to_string())
                    .and_then(|&p| fpopb::decode_priority(p))
                    .and_then(|prio| fpopb::decode_request(body, 1).map(|(req, _)| (req, prio)));
                match parsed {
                    Ok((req, prio)) => Job::Submit(req, prio, Some(body)),
                    Err(reason) => return self.malformed(conn, corr, &reason),
                }
            }
            FrameType::RegisterTemplate => match fpopb::decode_request(body, 0) {
                Ok((req, _)) => Job::RegisterTemplate(req, body),
                Err(reason) => return self.malformed(conn, corr, &reason),
            },
            FrameType::SubmitTemplate => {
                let parsed = body
                    .first()
                    .ok_or_else(|| "empty submit-template body".to_string())
                    .and_then(|&p| fpopb::decode_priority(p))
                    .and_then(|prio| fpopb::r_digest(body, 1).map(|(digest, _)| (digest, prio)));
                match parsed {
                    Ok((digest, prio)) => Job::SubmitTemplate(digest, prio, body),
                    Err(reason) => return self.malformed(conn, corr, &reason),
                }
            }
            // Response types arriving at the server are client errors.
            FrameType::HelloAck
            | FrameType::Pong
            | FrameType::Ok
            | FrameType::Err
            | FrameType::TemplateId => {
                return self.malformed(conn, corr, "response frame sent to server");
            }
        };
        conn.pending += 1;
        let to = ReplyTo {
            token,
            slot: Slot::Frame(corr),
        };
        self.backend
            .dispatch(to, job, &mut self.poller, &mut self.out);
    }

    /// Processes every complete text line in the read buffer; returns the
    /// bytes consumed.
    fn process_text(&mut self, conn: &mut Conn, token: usize) -> usize {
        let mut at = 0;
        while !conn.closing {
            let rest = &conn.link.rbuf[at..];
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                if rest.len() > MAX_TEXT_LINE {
                    self.m.decode_errors.inc();
                    conn.push_line(format!(
                        "err {}",
                        proto::escape(&format!(
                            "line exceeds the {MAX_TEXT_LINE}-byte cap without a newline"
                        ))
                    ));
                    conn.closing = true;
                }
                break;
            };
            let Ok(line) = std::str::from_utf8(&rest[..nl]).map(str::to_string) else {
                // Same contract the fuzzer pins: invalid UTF-8 gets an
                // error and the connection may close.
                self.m.decode_errors.inc();
                conn.push_line("err protocol line is not valid UTF-8".to_string());
                conn.closing = true;
                break;
            };
            at += nl + 1;
            if line.trim().is_empty() {
                continue;
            }
            self.m.text_requests.inc();
            self.handle_line(conn, token, &line);
        }
        at
    }

    /// Answers one text command line at the edge, or hands it to the
    /// backend.
    fn handle_line(&mut self, conn: &mut Conn, token: usize, line: &str) {
        let job = match proto::parse_command(line) {
            Err(e) => {
                self.m.decode_errors.inc();
                return conn.push_line(format!("err {}", proto::escape(&e)));
            }
            Ok(proto::Command::Ping) => return conn.push_line("ok pong".to_string()),
            Ok(proto::Command::Shutdown) => {
                self.stop.store(true, Ordering::SeqCst);
                return conn.push_line("ok shutting down".to_string());
            }
            Ok(proto::Command::SlowLog) => Job::SlowLog,
            Ok(proto::Command::Checkpoint) => Job::Checkpoint,
            Ok(proto::Command::Submit(req, prio)) => Job::Submit(req, prio, None),
        };
        let to = ReplyTo {
            token,
            slot: Slot::Line(conn.text_base + conn.slots.len() as u64),
        };
        conn.slots.push_back(None);
        conn.pending += 1;
        self.backend
            .dispatch(to, job, &mut self.poller, &mut self.out);
    }
}

// ---------------------------------------------------------------------------
// The local engine as a backend
// ---------------------------------------------------------------------------

/// The local [`Engine`] as a backend: requests run on its worker pool,
/// whose completion hooks queue an id and wake the poller.
pub(crate) struct EngineBackend {
    engine: Arc<Engine>,
    waker: Waker,
    /// Completion ids pushed by worker-pool hooks.
    done: Arc<Mutex<Vec<u64>>>,
    /// In-flight tickets by completion id.
    tickets: HashMap<u64, (ReplyTo, Ticket)>,
    next_id: u64,
    submitted: Arc<trace::Counter>,
    /// Template submissions served inline from the memoized response,
    /// without touching the queue or a worker.
    template_fast_hits: Arc<trace::Counter>,
}

impl EngineBackend {
    pub(crate) fn new(engine: Arc<Engine>) -> std::io::Result<EngineBackend> {
        let reg = engine.session().registry();
        Ok(EngineBackend {
            submitted: reg.counter(
                "engine_conn_submitted_total",
                "requests submitted to the engine by the connection layer",
            ),
            template_fast_hits: reg.counter(
                "engine_conn_template_fast_hits_total",
                "template submissions served inline from the memoized response",
            ),
            waker: Waker::new()?,
            done: Arc::new(Mutex::new(Vec::new())),
            tickets: HashMap::new(),
            next_id: 0,
            engine,
        })
    }

    /// Submits a request; the answer goes out when the worker pool
    /// completes it.
    fn submit(&mut self, to: ReplyTo, req: Request, prio: Priority, out: &mut Outbox) {
        match self.engine.submit_nowait(req, prio, None) {
            Err(e) => out.push((to, Answer::of_error(&e))),
            Ok(ticket) => {
                self.submitted.inc();
                let id = self.next_id;
                self.next_id += 1;
                let done = Arc::clone(&self.done);
                let waker = self.waker.clone();
                ticket.on_done(move || {
                    done.lock().expect("completion queue poisoned").push(id);
                    waker.wake();
                });
                self.tickets.insert(id, (to, ticket));
            }
        }
    }
}

impl Backend for EngineBackend {
    fn registry(&self) -> &trace::Registry {
        self.engine.session().registry()
    }

    fn attach(&mut self, poller: &mut Poller) -> std::io::Result<()> {
        poller.register(self.waker.read_fd(), BACKEND_TOKEN, Interest::READ)
    }

    fn dispatch(&mut self, to: ReplyTo, job: Job<'_>, _: &mut Poller, out: &mut Outbox) {
        let answer = match job {
            Job::Submit(req, prio, _) => return self.submit(to, req, prio, out),
            Job::SlowLog => Answer::ok(proto::render_slow_log(&self.engine.slow_log())),
            Job::Checkpoint => match self.engine.checkpoint() {
                Ok(Some(bytes)) => Answer::ok(format!("checkpoint written ({bytes} bytes)")),
                // A store-only shard (the fleet's usual shape) has no
                // local snapshot but the publish did happen — say so.
                Ok(None) if self.engine.has_shared_store() => {
                    Answer::ok("checkpoint published to shared store (no local snapshot)")
                }
                Ok(None) => Answer::err(ErrCode::Failed, "no snapshot path configured"),
                Err(e) => Answer::err(ErrCode::Failed, &e.to_string()),
            },
            Job::RegisterTemplate(req, _) => match self.engine.register_template(req) {
                Ok(digest) => Answer {
                    ty: FrameType::TemplateId,
                    body: digest.to_le_bytes().to_vec(),
                },
                Err(e) => Answer::of_error(&e),
            },
            Job::SubmitTemplate(digest, prio, _) => {
                // Fast path: a memoized template answers inline — no
                // queue admission, no worker, no parsing. This is the 10×
                // lever of the pipelined-warm benchmark.
                if let Some(resp) = self.engine.template_response(digest) {
                    self.template_fast_hits.inc();
                    Answer::ok(proto::render_response(&resp))
                } else if !self.engine.has_template(digest) {
                    Answer::err(
                        ErrCode::Failed,
                        &format!("no template registered under digest {digest:016x}"),
                    )
                } else {
                    return self.submit(to, Request::RunTemplate { digest }, prio, out);
                }
            }
        };
        out.push((to, answer));
    }

    fn event(&mut self, _: usize, _: &Event, _: &mut Poller, _: &mut Outbox) {
        self.waker.drain();
    }

    fn turn(&mut self, _: &mut Poller, out: &mut Outbox) {
        let done = std::mem::take(&mut *self.done.lock().expect("completion queue poisoned"));
        for id in done {
            if let Some((to, ticket)) = self.tickets.remove(&id) {
                // A hook runs after its result is published, so this
                // never blocks.
                match ticket.try_take().unwrap_or_else(|| ticket.wait()) {
                    Ok(resp) => out.push((to, Answer::ok(proto::render_response(&resp)))),
                    Err(e) => out.push((to, Answer::of_error(&e))),
                }
            }
        }
    }

    fn abandon(&mut self, owed: &mut Vec<ReplyTo>) {
        owed.extend(self.tickets.drain().map(|(_, (to, _))| to));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::fpopb::{Client, Reply};
    use std::io::{BufRead, BufReader};

    type ServerHandle = std::thread::JoinHandle<std::io::Result<()>>;

    fn start_server() -> (
        Arc<Engine>,
        std::net::SocketAddr,
        Arc<AtomicBool>,
        ServerHandle,
    ) {
        let engine = Arc::new(Engine::start(EngineConfig {
            workers: 2,
            snapshot_path: None,
            ..EngineConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || proto::serve(engine, listener, stop))
        };
        (engine, addr, stop, handle)
    }

    /// A connection-layer counter from the served engine's registry.
    fn conn_counter(engine: &Engine, name: &str) -> u64 {
        engine
            .session()
            .registry()
            .counter_value(name)
            .expect("serve registers the engine_conn_* counters")
    }

    #[test]
    fn binary_ping_submit_and_shutdown() {
        let (engine, addr, _stop, handle) = start_server();
        let mut client = Client::connect(addr).unwrap();
        let corr = client.send_ping().unwrap();
        let frame = client.recv().unwrap();
        assert_eq!(frame.corr, corr);
        assert_eq!(fpopb::decode_reply(&frame).unwrap(), Reply::Pong);

        match client.roundtrip(&Request::Stats, Priority::Normal).unwrap() {
            Reply::Ok(text) => assert!(text.contains("session:"), "got: {text}"),
            other => panic!("unexpected {other:?}"),
        }

        let corr = client.send_shutdown().unwrap();
        let frame = client.recv().unwrap();
        assert_eq!(frame.corr, corr);
        assert!(matches!(fpopb::decode_reply(&frame).unwrap(), Reply::Ok(_)));
        handle.join().unwrap().unwrap();
        assert_eq!(conn_counter(&engine, "engine_conn_binary_frames_total"), 3);
        engine.shutdown().unwrap();
    }

    #[test]
    fn text_protocol_still_served() {
        let (engine, addr, stop, handle) = start_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"ping\nstats\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "ok pong");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ok session:"), "got: {line}");
        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap().unwrap();
        engine.shutdown().unwrap();
    }

    #[test]
    fn text_replies_stay_in_order_across_slow_requests() {
        let (engine, addr, stop, handle) = start_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        // A slow elaboration pipelined before two instant commands: the
        // replies must come back in request order regardless.
        let src = proto::escape(
            "Family O.\n  FInductive num := n_zero | n_one.\n\
             FDefinition one : num := n_one.\nEnd O.\nCheck O.one.\n",
        );
        stream
            .write_all(format!("check {src}\nping\nstats\n").as_bytes())
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line.trim_end().to_string());
        }
        assert!(lines[0].starts_with("ok "), "check first: {:?}", lines[0]);
        assert!(lines[0].contains("O.one"), "got: {:?}", lines[0]);
        assert_eq!(lines[1], "ok pong");
        assert!(lines[2].starts_with("ok session:"), "got: {:?}", lines[2]);
        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap().unwrap();
        engine.shutdown().unwrap();
    }

    #[test]
    fn templates_register_and_fast_path() {
        let (engine, addr, stop, handle) = start_server();
        let mut client = Client::connect(addr).unwrap();
        let req = Request::CheckSource {
            source: "Family T.\n  FInductive num := n_zero | n_one.\n\
                     FDefinition one : num := n_one.\nEnd T.\nCheck T.one.\n"
                .to_string(),
        };
        let digest = client.register_template(&req).unwrap();
        assert_eq!(digest, req.dedup_key().unwrap());

        // First submit: goes through the queue (no memo yet).
        let corr = client
            .send_submit_template(digest, Priority::Normal)
            .unwrap();
        let frame = client.recv().unwrap();
        assert_eq!(frame.corr, corr);
        let first = match fpopb::decode_reply(&frame).unwrap() {
            Reply::Ok(text) => text,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(
            conn_counter(&engine, "engine_conn_template_fast_hits_total"),
            0
        );

        // Pipelined storm: all served from the memo, inline.
        let n = 50;
        let mut corrs = Vec::new();
        for _ in 0..n {
            corrs.push(
                client
                    .send_submit_template(digest, Priority::Normal)
                    .unwrap(),
            );
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            let frame = client.recv().unwrap();
            assert!(seen.insert(frame.corr), "duplicate corr {}", frame.corr);
            match fpopb::decode_reply(&frame).unwrap() {
                Reply::Ok(text) => assert_eq!(text, first),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen.len(), n);
        assert!(corrs.iter().all(|c| seen.contains(c)));
        assert_eq!(
            conn_counter(&engine, "engine_conn_template_fast_hits_total"),
            n as u64
        );

        // Unknown digest errors cleanly.
        let corr = client
            .send_submit_template(0xdead_beef, Priority::Normal)
            .unwrap();
        let frame = client.recv().unwrap();
        assert_eq!(frame.corr, corr);
        assert!(matches!(
            fpopb::decode_reply(&frame).unwrap(),
            Reply::Err(ErrCode::Failed, _)
        ));

        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap().unwrap();
        engine.shutdown().unwrap();
    }

    #[test]
    fn hello_negotiates_version() {
        let (engine, addr, stop, handle) = start_server();
        let mut client = Client::connect(addr).unwrap();
        let corr = client.send_hello(7).unwrap();
        let frame = client.recv().unwrap();
        assert_eq!(frame.corr, corr);
        assert_eq!(
            fpopb::decode_reply(&frame).unwrap(),
            Reply::HelloAck(u64::from(fpopb::VERSION))
        );
        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap().unwrap();
        engine.shutdown().unwrap();
    }
}
