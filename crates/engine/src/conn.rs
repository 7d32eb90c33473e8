//! The nonblocking connection layer: one poller thread multiplexes every
//! client connection, speaking **both** wire protocols on one port.
//!
//! ## Protocol sniffing
//!
//! The first byte of a connection decides its protocol for life:
//! [`crate::fpopb::MARKER`] (`0xFB`, not a valid UTF-8 leading byte)
//! selects the binary `fpopb/1` frame protocol; anything else selects
//! the legacy newline-delimited text protocol ([`crate::proto`]). See
//! `docs/PROTOCOL.md` for the normative spec of both.
//!
//! ## Event-loop architecture
//!
//! A single thread owns a [`crate::poll::Poller`] (epoll on Linux) that
//! watches the listener, a cross-thread [`crate::poll::Waker`], and
//! every connection. Request execution stays on the engine's worker
//! pool: the loop submits with [`crate::Engine::submit_nowait`] (so
//! backpressure surfaces as an error reply, never a stalled poller) and
//! registers a [`crate::Ticket::on_done`] hook that pushes the
//! completion onto a queue and wakes the poller. Text connections
//! answer **in order** (a reply-slot queue preserves request order
//! across slow elaborations); binary connections answer **out of
//! order**, tagged by correlation id — that is what makes pipelining
//! pay.
//!
//! Responses accumulate in a per-connection write buffer and are
//! flushed **once per readiness turn**, not per reply — a pipelined
//! batch of N requests costs a handful of write syscalls, not N (the
//! regression test pins this via `engine_conn_write_flushes_total`).

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::engine::{Engine, Ticket};
use crate::fpopb::{self, DecodeStep, ErrCode, Frame, FrameType};
use crate::poll::{Interest, Poller, Waker};
use crate::proto;
use crate::request::{EngineError, Priority, Request, Response};

const TOKEN_LISTENER: usize = 0;
const TOKEN_WAKER: usize = 1;
const FIRST_CONN_TOKEN: usize = 2;

/// Cap on a single text-protocol line; a line that grows past this
/// without a newline is answered with an error and the connection
/// closed (the binary protocol has its own [`fpopb::MAX_BODY`] cap).
const MAX_TEXT_LINE: usize = 4 * 1024 * 1024;

/// How long the event loop sleeps at most before re-checking the stop
/// flag (external shutdown without a wake).
const POLL_TIMEOUT: Duration = Duration::from_millis(100);

/// How long graceful shutdown waits for in-flight requests to complete
/// before dropping their connections.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// The connection layer's instruments: `engine_conn_*` counters in the
/// served engine's session registry, so they render in its `metrics`
/// exposition (catalog in `docs/OBSERVABILITY.md`).
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
    /// Template submissions served inline from the memoized response,
    /// without touching the queue or a worker.
    template_fast_hits: Arc<trace::Counter>,
    submitted: Arc<trace::Counter>,
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
            template_fast_hits: reg.counter(
                "engine_conn_template_fast_hits_total",
                "template submissions served inline from the memoized response",
            ),
            submitted: reg.counter(
                "engine_conn_submitted_total",
                "requests submitted to the engine by the connection layer",
            ),
        }
    }
}

/// Which protocol a connection speaks (decided by its first byte).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Protocol {
    Undecided,
    Text,
    Binary,
}

/// A reply slot of a text connection: text answers **in order**, so a
/// slow request parks a `Pending` slot that blocks later (already
/// computed) replies until it resolves.
enum TextSlot {
    Ready(String),
    Pending(Ticket),
}

struct Conn {
    stream: TcpStream,
    proto: Protocol,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Text protocol: in-order reply slots.
    text_slots: VecDeque<TextSlot>,
    /// Binary protocol: in-flight tickets by correlation id (replies go
    /// out in completion order).
    pending_bin: HashMap<u64, Ticket>,
    /// Flush the write buffer, then close (fatal protocol error, EOF,
    /// or text `shutdown`).
    closing: bool,
    /// Currently registered for writability too (write backpressure).
    wants_write: bool,
    /// Peer closed its read side / hard error: stop writing entirely.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            proto: Protocol::Undecided,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            text_slots: VecDeque::new(),
            pending_bin: HashMap::new(),
            closing: false,
            wants_write: false,
            dead: false,
        }
    }

    fn push_frame(&mut self, ty: FrameType, corr: u64, body: &[u8]) {
        self.wbuf
            .extend_from_slice(&fpopb::encode_frame(ty, corr, body));
    }

    fn push_err_frame(&mut self, corr: u64, code: ErrCode, reason: &str) {
        let mut body = vec![code as u8];
        body.extend_from_slice(reason.as_bytes());
        self.push_frame(FrameType::Err, corr, &body);
    }

    fn push_text_line(&mut self, line: &str) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
    }
}

/// Serves both protocols on `listener` until `stop` is set (by a client
/// `shutdown`, either protocol, or externally). Equivalent entry point
/// to [`crate::proto::serve`] — which delegates here on unix.
///
/// # Errors
///
/// Fatal listener/poller errors; per-connection errors only drop that
/// connection.
pub fn serve(
    engine: Arc<Engine>,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    let m = ConnMetrics::register(engine.session().registry());
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    let waker = Waker::new()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    poller.register(waker.read_fd(), TOKEN_WAKER, Interest::READ)?;

    // Worker-pool completion hooks push (conn token, correlation id)
    // here and wake the poller; text completions use corr = 0 (delivery
    // drains the in-order slot queue, not a corr lookup).
    let completions: Arc<Mutex<Vec<(usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));

    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = Vec::new();

    while !stop.load(Ordering::SeqCst) {
        events.clear();
        poller.wait(&mut events, Some(POLL_TIMEOUT))?;

        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            stream.set_nonblocking(true)?;
                            stream.set_nodelay(true).ok();
                            let token = next_token;
                            next_token += 1;
                            poller.register(stream.as_raw_fd(), token, Interest::READ)?;
                            conns.insert(token, Conn::new(stream));
                            m.accepted.inc();
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e),
                    }
                },
                TOKEN_WAKER => waker.drain(),
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        if ev.readable {
                            read_turn(conn, token, &engine, &stop, &m, &completions, &waker);
                        }
                        // Writability is consumed by the flush pass below.
                    }
                }
            }
        }

        // Deliver worker-pool completions that arrived up to this point
        // (the waker may have fired for several at once, and hooks that
        // ran inline during read_turn also land here).
        let done: Vec<(usize, u64)> = {
            let mut q = completions.lock().expect("completion queue poisoned");
            std::mem::take(&mut *q)
        };
        for (token, corr) in done {
            if let Some(conn) = conns.get_mut(&token) {
                deliver_completion(conn, corr);
            }
        }
        // In-order text slots may have become deliverable regardless of
        // which completion fired; drain every text conn's front run.
        for conn in conns.values_mut() {
            if conn.proto == Protocol::Text {
                drain_text_slots(conn);
            }
        }

        // One flush per connection per readiness turn — the batching fix
        // (legacy code flushed per reply line).
        let mut to_close: Vec<usize> = Vec::new();
        for (&token, conn) in conns.iter_mut() {
            flush_conn(conn, &m);
            let idle =
                conn.text_slots.is_empty() && conn.pending_bin.is_empty() && conn.wbuf.is_empty();
            if conn.dead || (conn.closing && idle) {
                to_close.push(token);
                continue;
            }
            // Register/deregister write interest as backpressure comes
            // and goes (level-triggered: permanent write interest would
            // spin the loop on an always-writable socket).
            let wants = !conn.wbuf.is_empty();
            if wants != conn.wants_write {
                let interest = if wants {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                };
                if poller
                    .modify(conn.stream.as_raw_fd(), token, interest)
                    .is_ok()
                {
                    conn.wants_write = wants;
                }
            }
        }
        for token in to_close {
            if let Some(conn) = conns.remove(&token) {
                let _ = poller.deregister(conn.stream.as_raw_fd());
                m.closed.inc();
            }
        }
    }

    // Graceful drain: wait (bounded) for in-flight requests, deliver
    // their replies, and flush every connection — the peer that sent
    // `shutdown` must read its acknowledgement before we return.
    let deadline = Instant::now() + DRAIN_DEADLINE;
    for (_, mut conn) in conns.drain() {
        let _ = poller.deregister(conn.stream.as_raw_fd());
        if conn.dead {
            m.closed.inc();
            continue;
        }
        while let Some(slot) = conn.text_slots.pop_front() {
            let line = match slot {
                TextSlot::Ready(line) => line,
                TextSlot::Pending(ticket) => match wait_until(&ticket, deadline) {
                    Some(result) => proto::render_result(&result),
                    None => proto::render_result(&Err(EngineError::ShuttingDown)),
                },
            };
            conn.push_text_line(&line);
        }
        let pending: Vec<(u64, Ticket)> = conn.pending_bin.drain().collect();
        for (corr, ticket) in pending {
            match wait_until(&ticket, deadline) {
                Some(result) => push_bin_result(&mut conn, corr, &result),
                None => conn.push_err_frame(
                    corr,
                    ErrCode::ShuttingDown,
                    &EngineError::ShuttingDown.to_string(),
                ),
            }
        }
        if !conn.wbuf.is_empty() {
            m.write_flushes.inc();
            conn.stream.set_nonblocking(false).ok();
            conn.stream
                .set_write_timeout(Some(Duration::from_secs(2)))
                .ok();
            let _ = conn.stream.write_all(&conn.wbuf);
        }
        m.closed.inc();
    }
    Ok(())
}

fn wait_until(ticket: &Ticket, deadline: Instant) -> Option<Result<Response, EngineError>> {
    let now = Instant::now();
    if now >= deadline {
        return ticket.try_take();
    }
    ticket.wait_timeout(deadline - now)
}

/// Reads everything currently available on `conn` and processes it.
fn read_turn(
    conn: &mut Conn,
    token: usize,
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
    m: &ConnMetrics,
    completions: &Arc<Mutex<Vec<(usize, u64)>>>,
    waker: &Waker,
) {
    let mut buf = [0u8; 64 * 1024];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                // EOF: process what we have (a complete final line/frame
                // without trailing newline still deserves an answer),
                // then close once pending work flushes. A *mid-frame*
                // hangup just abandons the partial frame.
                conn.closing = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&buf[..n]);
                // Over-cap lines/frames are handled by the processors;
                // this only guards pathological growth between turns.
                if conn.rbuf.len() > fpopb::MAX_BODY + MAX_TEXT_LINE {
                    conn.dead = true;
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.proto == Protocol::Undecided {
        match conn.rbuf.first() {
            None => return,
            Some(&fpopb::MARKER) => conn.proto = Protocol::Binary,
            Some(_) => conn.proto = Protocol::Text,
        }
    }
    match conn.proto {
        Protocol::Binary => process_binary(conn, token, engine, stop, m, completions, waker),
        Protocol::Text => process_text(conn, token, engine, stop, m, completions, waker),
        Protocol::Undecided => unreachable!("decided above"),
    }
}

/// Decodes and dispatches every complete binary frame in `conn.rbuf`.
fn process_binary(
    conn: &mut Conn,
    token: usize,
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
    m: &ConnMetrics,
    completions: &Arc<Mutex<Vec<(usize, u64)>>>,
    waker: &Waker,
) {
    loop {
        match fpopb::decode_frame(&conn.rbuf) {
            Ok(DecodeStep::Incomplete) => return,
            Ok(DecodeStep::Ready { frame, consumed }) => {
                conn.rbuf.drain(..consumed);
                m.binary_frames.inc();
                handle_frame(conn, token, frame, engine, stop, m, completions, waker);
                if conn.closing {
                    return;
                }
            }
            Err(e) => {
                m.decode_errors.inc();
                match e.recoverable() {
                    Some(consumed) => {
                        // Frame boundary held: report, skip, keep serving
                        // this connection.
                        let corr = match &e {
                            fpopb::DecodeError::ChecksumMismatch { corr, .. } => *corr,
                            fpopb::DecodeError::BadType { corr, .. } => *corr,
                            _ => 0,
                        };
                        conn.push_err_frame(corr, e.code(), &e.reason());
                        conn.rbuf.drain(..consumed);
                    }
                    None => {
                        // Stream desync: report once and close.
                        conn.push_err_frame(0, e.code(), &e.reason());
                        conn.closing = true;
                        conn.rbuf.clear();
                        return;
                    }
                }
            }
        }
    }
}

/// Dispatches one decoded binary frame.
#[allow(clippy::too_many_arguments)]
fn handle_frame(
    conn: &mut Conn,
    token: usize,
    frame: Frame,
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
    m: &ConnMetrics,
    completions: &Arc<Mutex<Vec<(usize, u64)>>>,
    waker: &Waker,
) {
    let corr = frame.corr;
    match frame.ty {
        FrameType::Hello => {
            // Version negotiation: we speak exactly fpopb/1; a client
            // that can't is told so and may close.
            let mut body = Vec::new();
            fpopb::w_varint(&mut body, u64::from(fpopb::VERSION));
            conn.push_frame(FrameType::HelloAck, corr, &body);
        }
        FrameType::Ping => conn.push_frame(FrameType::Pong, corr, &[]),
        FrameType::Shutdown => {
            conn.push_frame(FrameType::Ok, corr, b"shutting down");
            stop.store(true, Ordering::SeqCst);
            waker.wake();
        }
        FrameType::Checkpoint => match engine.checkpoint() {
            Ok(Some(bytes)) => {
                conn.push_frame(
                    FrameType::Ok,
                    corr,
                    format!("checkpoint written ({bytes} bytes)").as_bytes(),
                );
            }
            Ok(None) if engine.has_shared_store() => {
                conn.push_frame(
                    FrameType::Ok,
                    corr,
                    b"checkpoint published to shared store (no local snapshot)",
                );
            }
            Ok(None) => {
                conn.push_err_frame(corr, ErrCode::Failed, "no snapshot path configured");
            }
            Err(e) => conn.push_err_frame(corr, ErrCode::Failed, &e.to_string()),
        },
        FrameType::SlowLog => {
            let text = proto::render_slow_log(&engine.slow_log());
            conn.push_frame(FrameType::Ok, corr, text.as_bytes());
        }
        FrameType::Submit => {
            let parsed = frame
                .body
                .first()
                .ok_or_else(|| "empty submit body".to_string())
                .and_then(|&p| fpopb::decode_priority(p))
                .and_then(|prio| fpopb::decode_request(&frame.body, 1).map(|(req, _)| (req, prio)));
            match parsed {
                Err(reason) => {
                    m.decode_errors.inc();
                    conn.push_err_frame(corr, ErrCode::Malformed, &reason);
                }
                Ok((req, prio)) => {
                    submit_binary(conn, token, corr, req, prio, engine, m, completions, waker);
                }
            }
        }
        FrameType::RegisterTemplate => match fpopb::decode_request(&frame.body, 0) {
            Err(reason) => {
                m.decode_errors.inc();
                conn.push_err_frame(corr, ErrCode::Malformed, &reason);
            }
            Ok((req, _)) => match engine.register_template(req) {
                Ok(digest) => {
                    conn.push_frame(FrameType::TemplateId, corr, &digest.to_le_bytes());
                }
                Err(e) => conn.push_err_frame(corr, ErrCode::of_engine(&e), &e.to_string()),
            },
        },
        FrameType::SubmitTemplate => {
            let parsed = frame
                .body
                .first()
                .ok_or_else(|| "empty submit-template body".to_string())
                .and_then(|&p| fpopb::decode_priority(p))
                .and_then(|prio| fpopb::r_digest(&frame.body, 1).map(|(digest, _)| (digest, prio)));
            match parsed {
                Err(reason) => {
                    m.decode_errors.inc();
                    conn.push_err_frame(corr, ErrCode::Malformed, &reason);
                }
                Ok((digest, prio)) => {
                    // Fast path: a memoized template answers inline — no
                    // queue admission, no worker, no parsing. This is
                    // the 10× lever of the pipelined-warm benchmark.
                    if let Some(resp) = engine.template_response(digest) {
                        m.template_fast_hits.inc();
                        conn.push_frame(
                            FrameType::Ok,
                            corr,
                            proto::render_response(&resp).as_bytes(),
                        );
                    } else if !engine.has_template(digest) {
                        conn.push_err_frame(
                            corr,
                            ErrCode::Failed,
                            &format!("no template registered under digest {digest:016x}"),
                        );
                    } else {
                        submit_binary(
                            conn,
                            token,
                            corr,
                            Request::RunTemplate { digest },
                            prio,
                            engine,
                            m,
                            completions,
                            waker,
                        );
                    }
                }
            }
        }
        // Response types arriving at the server are client errors.
        FrameType::HelloAck
        | FrameType::Pong
        | FrameType::Ok
        | FrameType::Err
        | FrameType::TemplateId => {
            m.decode_errors.inc();
            conn.push_err_frame(corr, ErrCode::Malformed, "response frame sent to server");
        }
    }
}

/// Submits a request from a binary connection; the reply goes out when
/// the worker pool completes it (out of order is fine — that's what the
/// correlation id is for).
#[allow(clippy::too_many_arguments)]
fn submit_binary(
    conn: &mut Conn,
    token: usize,
    corr: u64,
    req: Request,
    prio: Priority,
    engine: &Arc<Engine>,
    m: &ConnMetrics,
    completions: &Arc<Mutex<Vec<(usize, u64)>>>,
    waker: &Waker,
) {
    match engine.submit_nowait(req, prio, None) {
        Err(e) => conn.push_err_frame(corr, ErrCode::of_engine(&e), &e.to_string()),
        Ok(ticket) => {
            m.submitted.inc();
            let completions = Arc::clone(completions);
            let waker = waker.clone();
            ticket.on_done(move || {
                completions
                    .lock()
                    .expect("completion queue poisoned")
                    .push((token, corr));
                waker.wake();
            });
            conn.pending_bin.insert(corr, ticket);
        }
    }
}

/// Processes every complete text line in `conn.rbuf`.
fn process_text(
    conn: &mut Conn,
    token: usize,
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
    m: &ConnMetrics,
    completions: &Arc<Mutex<Vec<(usize, u64)>>>,
    waker: &Waker,
) {
    loop {
        let Some(nl) = conn.rbuf.iter().position(|&b| b == b'\n') else {
            if conn.rbuf.len() > MAX_TEXT_LINE {
                m.decode_errors.inc();
                conn.text_slots.push_back(TextSlot::Ready(format!(
                    "err {}",
                    proto::escape(&format!(
                        "line exceeds the {MAX_TEXT_LINE}-byte cap without a newline"
                    ))
                )));
                conn.closing = true;
                conn.rbuf.clear();
            }
            return;
        };
        let line_bytes: Vec<u8> = conn.rbuf.drain(..=nl).collect();
        let line = match std::str::from_utf8(&line_bytes[..line_bytes.len() - 1]) {
            Ok(s) => s.to_string(),
            Err(_) => {
                // Same contract the fuzzer pins: invalid UTF-8 gets an
                // error and the connection may close.
                m.decode_errors.inc();
                conn.text_slots.push_back(TextSlot::Ready(
                    "err protocol line is not valid UTF-8".to_string(),
                ));
                conn.closing = true;
                conn.rbuf.clear();
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        m.text_requests.inc();
        handle_text_line(conn, token, &line, engine, stop, m, completions, waker);
        if conn.closing {
            return;
        }
    }
}

/// Dispatches one text command line.
#[allow(clippy::too_many_arguments)]
fn handle_text_line(
    conn: &mut Conn,
    token: usize,
    line: &str,
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
    m: &ConnMetrics,
    completions: &Arc<Mutex<Vec<(usize, u64)>>>,
    waker: &Waker,
) {
    let slot = match proto::parse_command(line) {
        Err(e) => {
            m.decode_errors.inc();
            TextSlot::Ready(format!("err {}", proto::escape(&e)))
        }
        Ok(proto::Command::Ping) => TextSlot::Ready("ok pong".to_string()),
        Ok(proto::Command::Shutdown) => {
            stop.store(true, Ordering::SeqCst);
            waker.wake();
            TextSlot::Ready("ok shutting down".to_string())
        }
        Ok(proto::Command::SlowLog) => TextSlot::Ready(format!(
            "ok {}",
            proto::escape(&proto::render_slow_log(&engine.slow_log()))
        )),
        Ok(proto::Command::Checkpoint) => TextSlot::Ready(match engine.checkpoint() {
            Ok(Some(bytes)) => format!("ok checkpoint written ({bytes} bytes)"),
            Ok(None) if engine.has_shared_store() => {
                "ok checkpoint published to shared store (no local snapshot)".to_string()
            }
            Ok(None) => "err no snapshot path configured".to_string(),
            Err(e) => format!("err {}", proto::escape(&e.to_string())),
        }),
        Ok(proto::Command::Submit(request, priority)) => {
            match engine.submit_nowait(request, priority, None) {
                Err(e) => TextSlot::Ready(proto::render_result(&Err(e))),
                Ok(ticket) => {
                    m.submitted.inc();
                    let completions = Arc::clone(completions);
                    let waker = waker.clone();
                    ticket.on_done(move || {
                        completions
                            .lock()
                            .expect("completion queue poisoned")
                            .push((token, 0));
                        waker.wake();
                    });
                    TextSlot::Pending(ticket)
                }
            }
        }
    };
    conn.text_slots.push_back(slot);
}

/// Delivers one worker-pool completion to `conn`.
fn deliver_completion(conn: &mut Conn, corr: u64) {
    match conn.proto {
        Protocol::Binary => {
            if let Some(ticket) = conn.pending_bin.remove(&corr) {
                match ticket.try_take() {
                    Some(result) => push_bin_result(conn, corr, &result),
                    // Spurious (hook ran but publish not yet visible is
                    // impossible — publish precedes hooks — but stay
                    // total): put it back for the next wake.
                    None => {
                        conn.pending_bin.insert(corr, ticket);
                    }
                }
            }
        }
        // Text replies are in-order: the slot queue drains from the
        // front in the main loop (`drain_text_slots`).
        Protocol::Text | Protocol::Undecided => {}
    }
}

fn push_bin_result(conn: &mut Conn, corr: u64, result: &Result<Response, EngineError>) {
    match result {
        Ok(resp) => {
            conn.push_frame(FrameType::Ok, corr, proto::render_response(resp).as_bytes());
        }
        Err(e) => conn.push_err_frame(corr, ErrCode::of_engine(e), &e.to_string()),
    }
}

/// Appends every deliverable in-order reply of a text connection.
fn drain_text_slots(conn: &mut Conn) {
    loop {
        match conn.text_slots.front() {
            Some(TextSlot::Ready(_)) => {
                if let Some(TextSlot::Ready(line)) = conn.text_slots.pop_front() {
                    conn.push_text_line(&line);
                }
            }
            Some(TextSlot::Pending(ticket)) => match ticket.try_take() {
                Some(result) => {
                    let line = proto::render_result(&result);
                    conn.text_slots.pop_front();
                    conn.push_text_line(&line);
                }
                None => return,
            },
            None => return,
        }
    }
}

/// Writes as much of `conn.wbuf` as the socket accepts, once per turn.
fn flush_conn(conn: &mut Conn, m: &ConnMetrics) {
    if conn.wbuf.is_empty() || conn.dead {
        return;
    }
    m.write_flushes.inc();
    let mut written = 0;
    while written < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[written..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    conn.wbuf.drain(..written);
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
            std::thread::spawn(move || serve(engine, listener, stop))
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
