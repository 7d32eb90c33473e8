//! The fpopd **fleet**: a consistent-hash router in front of N backend
//! shards, making in-flight dedup and proof-cache hits fleet-wide.
//!
//! ## Topology
//!
//! ```text
//!                         ┌────────────┐
//!   clients (text/fpopb)──► router      │ digest-keyed consistent hash
//!                         └─┬───┬───┬──┘
//!                           │   │   │
//!                      ┌────▼┐ ┌▼───┐ ┌▼───┐
//!                      │shard│ │shard│ │shard│   fpopd processes
//!                      └──┬──┘ └──┬─┘ └──┬─┘
//!                         ▼      ▼      ▼
//!                     shared content-addressed store (tier 3)
//! ```
//!
//! The router speaks both wire protocols (sniffed by first byte, exactly
//! like a single `fpopd`) and routes each request by its **content
//! digest** — [`crate::request::Request::dedup_key`] — so the same
//! request always lands on the same shard: that shard's in-flight dedup
//! and session cache become fleet-wide dedup, the paper's
//! content-addressed proof reuse stretched across processes.
//!
//! ## One loop, one upstream per shard
//!
//! The router is a backend of the same connection layer `fpopd` runs
//! (the `conn` module): one event loop owns the client connections and
//! **one persistent, pipelined `fpopb/1` connection per live shard**, on
//! one poller. The loop mints its own correlation ids upstream and maps
//! each reply back to its client connection and that client's
//! correlation id or text slot. Text lines are parsed at the edge and
//! forwarded as `Submit` frames, so upstream traffic is `fpopb/1` only;
//! a text reply renders as `ok`/`err` exactly as a shard's own would.
//! The router runs two threads whatever its client count: the loop and
//! the health prober. Like `fpopd` it is unix-only; there is no blocking
//! fallback.
//!
//! ## Failure behavior
//!
//! Shard death is detected two ways: an I/O error, EOF or undecodable
//! frame on the shard's upstream (immediate), and the background health
//! prober (eventual). A dead shard's digest range re-routes to the
//! ring's next live successor — which may cold-miss and re-prove;
//! correct, just slower. Binary requests in flight on the dead upstream
//! — a frame still queued on it counts as in flight — are answered once
//! with a clean retryable [`crate::fpopb::ErrCode::Unavailable`] error:
//! never a hang, never a fabricated verdict. Text requests re-route to a
//! surviving shard transparently, and so does any request whose shard
//! cannot be dialled (all requests are idempotent). The prober
//! re-admits a restarted shard at the same address; the loop dials it
//! on its next request, with a bounded timeout, at most once per
//! admission. Catch-up warmth comes from the shared store at the shard's
//! own boot, not through the router.
//!
//! ## What the router does *not* do
//!
//! It holds no proof state and makes no verdicts: every `ok`/`err`
//! payload a client sees was produced by a real engine (the differential
//! oracle #9 exploits exactly this). `Hello`/`Ping` are answered
//! locally; `RegisterTemplate` and `Checkpoint` fan out to every live
//! shard; `Shutdown` stops the router alone — shards are managed by
//! their own lifecycle.

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fpop::stable::Fnv64;

use crate::conn::{self, Answer, Backend, Job, Link, Outbox, ReplyTo, Slot, BACKEND_TOKEN};
use crate::engine::{Engine, EngineConfig};
use crate::fpopb::{self, DecodeStep, ErrCode, Frame, FrameType};
use crate::poll::{Event, Interest, Poller};
use crate::proto;

/// Virtual nodes per shard on the hash ring. 64 keeps the remap fraction
/// on join/leave within a few percent of the ideal 1/N (the router
/// consistency property test pins the bound).
pub const VNODES: usize = 64;

/// How often the health prober re-tries dead shards by default.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(250);

// ---------------------------------------------------------------------------
// The consistent-hash ring
// ---------------------------------------------------------------------------

/// A consistent-hash ring over shard indices `0..n`, with [`VNODES`]
/// virtual points per shard.
///
/// The ring is **pure data**: construction is deterministic in `n` (FNV
/// points, no randomness, no clock), so every router instance — and every
/// restart of the same router — maps a digest to the same shard. Routing
/// takes the caller's live-shard mask, so failure handling composes
/// without rebuilding the ring (and a rebuilt ring is byte-identical
/// anyway).
#[derive(Clone, Debug)]
pub struct Ring {
    /// `(point, shard)` sorted by point (ties broken by shard index —
    /// also deterministic).
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl Ring {
    /// Builds the ring for `shards` shards.
    pub fn new(shards: usize) -> Ring {
        let mut points = Vec::with_capacity(shards * VNODES);
        for s in 0..shards {
            for r in 0..VNODES {
                let mut h = Fnv64::new();
                h.write_u64(s as u64);
                h.write_u64(r as u64);
                points.push((h.finish(), s));
            }
        }
        points.sort_unstable();
        Ring { points, shards }
    }

    /// Number of shards the ring was built for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Routes a digest to the first **live** shard at or clockwise from
    /// the digest's point. `None` when every shard is dead (or the ring
    /// is empty).
    pub fn route(&self, key: u64, alive: &[bool]) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.partition_point(|&(p, _)| p < key);
        for i in 0..self.points.len() {
            let (_, s) = self.points[(start + i) % self.points.len()];
            if alive.get(s).copied().unwrap_or(false) {
                return Some(s);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// The router: a backend of the conn layer
// ---------------------------------------------------------------------------

/// How long the loop waits for a shard to accept a connection. A shard
/// is dialled at most once per admission, so an unreachable address
/// costs this once, until the prober re-admits it.
const DIAL_TIMEOUT: Duration = Duration::from_secs(1);

/// The retryable reason a binary request gets when its upstream dies.
const LOST: &str = "shard connection lost; resubmit (requests are idempotent)";

/// One backend shard as the router sees it.
struct Shard {
    addr: SocketAddr,
    /// Cleared by the loop when the shard fails, set again by the prober.
    alive: Arc<AtomicBool>,
    /// The persistent, pipelined fpopb/1 connection, once dialled.
    upstream: Option<Upstream>,
    /// Template digests written to this shard since it was admitted.
    registered: HashSet<u64>,
}

/// The router's connection to one shard, and what each correlation id
/// written on it waits for.
struct Upstream {
    link: Link,
    waiters: HashMap<u64, Waiter>,
    last_corr: u64,
}

impl Upstream {
    /// Queues one frame under a fresh correlation id; the turn's flush
    /// writes it.
    fn send(&mut self, ty: FrameType, body: &[u8], waiter: Waiter) {
        self.last_corr += 1;
        self.link.push_frame(ty, self.last_corr, body);
        self.waiters.insert(self.last_corr, waiter);
    }
}

enum Waiter {
    /// A client request. A text request keeps its routing key and frame,
    /// to re-route it if the shard dies.
    Client(ReplyTo, Option<(u64, FrameType, Vec<u8>)>),
    /// This shard's part of a fan-out.
    Part(u64),
    /// A template replayed ahead of a `SubmitTemplate`; its reply is
    /// dropped.
    Replay,
}

/// A `RegisterTemplate` or `Checkpoint` sent to every live shard,
/// answered once each part has replied or died.
struct FanOut {
    to: ReplyTo,
    /// The digest being registered; `None` for a checkpoint.
    template: Option<u64>,
    parts: usize,
    ok: usize,
    last_err: Option<String>,
}

impl FanOut {
    fn answer(&self) -> Answer {
        match (self.template, self.ok) {
            (Some(_), 0) => Answer::err(ErrCode::Failed, "no live shards accepted the template"),
            (Some(digest), _) => Answer {
                ty: FrameType::TemplateId,
                body: digest.to_le_bytes().to_vec(),
            },
            (None, 0) => Answer::err(
                ErrCode::Failed,
                self.last_err.as_deref().unwrap_or("no live shards"),
            ),
            (None, n) => Answer::ok(format!("checkpoint written on {n} shard(s)")),
        }
    }
}

/// The router as a [`Backend`]: routes each request by digest over one
/// upstream connection per live shard, on the conn layer's poller.
struct Router {
    ring: Ring,
    shards: Vec<Shard>,
    /// The live mask handed to [`Ring::route`], refreshed per route.
    alive: Vec<bool>,
    /// `RegisterTemplate` bodies by digest, replayed to a shard that does
    /// not hold the digest yet (one admitted since the registration).
    templates: HashMap<u64, Vec<u8>>,
    fanouts: HashMap<u64, FanOut>,
    last_fanout: u64,
    registry: Arc<trace::Registry>,
}

impl Router {
    /// Routes a key to a live shard; `None` = no live shard.
    fn route(&mut self, key: u64) -> Option<usize> {
        self.alive.clear();
        self.alive
            .extend(self.shards.iter().map(|s| s.alive.load(Ordering::SeqCst)));
        self.ring.route(key, &self.alive)
    }

    /// Makes sure shard `s` has an upstream, dialling it if needed;
    /// `false`, with the shard marked dead, if it cannot be reached.
    fn admit(&mut self, s: usize, poller: &mut Poller, out: &mut Outbox) -> bool {
        if self.shards[s].upstream.is_some() {
            return true;
        }
        match TcpStream::connect_timeout(&self.shards[s].addr, DIAL_TIMEOUT)
            .and_then(|stream| Link::register(stream, poller, BACKEND_TOKEN + s))
        {
            Ok(link) => {
                self.shards[s].upstream = Some(Upstream {
                    link,
                    waiters: HashMap::new(),
                    last_corr: 0,
                });
                true
            }
            Err(_) => {
                self.mark_dead(s, poller, out);
                false
            }
        }
    }

    /// Forwards one request to the shard owning `key`, re-routing to the
    /// next live successor when a shard cannot be dialled.
    fn forward(
        &mut self,
        to: ReplyTo,
        key: u64,
        ty: FrameType,
        body: &[u8],
        poller: &mut Poller,
        out: &mut Outbox,
    ) {
        loop {
            let Some(s) = self.route(key) else {
                return out.push((
                    to,
                    Answer::err(ErrCode::Unavailable, "no live shards (retry)"),
                ));
            };
            if !self.admit(s, poller, out) {
                continue;
            }
            let shard = &mut self.shards[s];
            let up = shard.upstream.as_mut().expect("admitted above");
            // Template fast path: a shard's conn layer handles one
            // connection's frames in order and registers inline, so a
            // replayed registration written first is in place in time.
            if ty == FrameType::SubmitTemplate && shard.registered.insert(key) {
                if let Some(registration) = self.templates.get(&key) {
                    up.send(FrameType::RegisterTemplate, registration, Waiter::Replay);
                }
            }
            let resend = matches!(to.slot, Slot::Line(_)).then(|| (key, ty, body.to_vec()));
            return up.send(ty, body, Waiter::Client(to, resend));
        }
    }

    /// Sends one frame to every live shard; the client is answered once
    /// every part has replied or died.
    fn fan_out(
        &mut self,
        to: ReplyTo,
        template: Option<u64>,
        ty: FrameType,
        body: &[u8],
        poller: &mut Poller,
        out: &mut Outbox,
    ) {
        self.last_fanout += 1;
        let id = self.last_fanout;
        let mut fan = FanOut {
            to,
            template,
            parts: 0,
            ok: 0,
            last_err: None,
        };
        for s in 0..self.shards.len() {
            // A failed dial marks a shard without an upstream dead, which
            // settles no part: the parts are counted here alone.
            if !self.shards[s].alive.load(Ordering::SeqCst) || !self.admit(s, poller, out) {
                continue;
            }
            let shard = &mut self.shards[s];
            if let Some(digest) = template {
                shard.registered.insert(digest);
            }
            let up = shard.upstream.as_mut().expect("admitted above");
            up.send(ty, body, Waiter::Part(id));
            fan.parts += 1;
        }
        if fan.parts == 0 {
            out.push((to, fan.answer()));
        } else {
            self.fanouts.insert(id, fan);
        }
    }

    /// Counts shard `s`'s reply to fan-out `id` (`None`: the shard died)
    /// and answers the client once the last part is in.
    fn settle(&mut self, id: u64, s: usize, reply: Option<&Frame>, out: &mut Outbox) {
        let Some(fan) = self.fanouts.get_mut(&id) else {
            return;
        };
        fan.parts -= 1;
        match (fan.template, reply) {
            (Some(d), Some(f)) if f.ty == FrameType::TemplateId && f.body == d.to_le_bytes() => {
                fan.ok += 1;
            }
            (None, Some(f)) if f.ty == FrameType::Ok => fan.ok += 1,
            (Some(_), _) => {}
            (None, Some(f)) => {
                let reason = String::from_utf8_lossy(f.body.get(1..).unwrap_or_default());
                fan.last_err = Some(format!("shard {s}: {reason}"));
            }
            (None, None) => fan.last_err = Some(format!("shard {s}: shard connection lost")),
        }
        if fan.parts == 0 {
            if let Some(fan) = self.fanouts.remove(&id) {
                out.push((fan.to, fan.answer()));
            }
        }
    }

    /// Marks shard `s` dead until the prober re-admits it. Binary
    /// requests queued on its upstream get `Unavailable`, once; text
    /// requests re-route.
    fn mark_dead(&mut self, s: usize, poller: &mut Poller, out: &mut Outbox) {
        let shard = &mut self.shards[s];
        shard.alive.store(false, Ordering::SeqCst);
        shard.registered.clear();
        let Some(up) = shard.upstream.take() else {
            return;
        };
        let _ = poller.deregister(up.link.stream.as_raw_fd());
        for waiter in up.waiters.into_values() {
            match waiter {
                Waiter::Client(to, None) => out.push((to, Answer::err(ErrCode::Unavailable, LOST))),
                Waiter::Client(to, Some((key, ty, body))) => {
                    self.forward(to, key, ty, &body, poller, out);
                }
                Waiter::Part(id) => self.settle(id, s, None, out),
                Waiter::Replay => {}
            }
        }
    }
}

impl Backend for Router {
    fn registry(&self) -> &trace::Registry {
        &self.registry
    }

    fn dispatch(&mut self, to: ReplyTo, job: Job<'_>, poller: &mut Poller, out: &mut Outbox) {
        match job {
            Job::Submit(req, prio, body) => {
                // Routing key = the request's content digest, the same key
                // the engine dedups in-flight requests on.
                let key = req.dedup_key().unwrap_or(0);
                match body {
                    Some(body) => self.forward(to, key, FrameType::Submit, body, poller, out),
                    None => {
                        let mut body = vec![fpopb::encode_priority(prio)];
                        fpopb::encode_request(&mut body, &req);
                        self.forward(to, key, FrameType::Submit, &body, poller, out);
                    }
                }
            }
            Job::SlowLog => self.forward(to, 0, FrameType::SlowLog, &[], poller, out),
            Job::SubmitTemplate(digest, _, body) => {
                self.forward(to, digest, FrameType::SubmitTemplate, body, poller, out);
            }
            Job::RegisterTemplate(req, body) => match req.dedup_key() {
                // Mirror the engine's refusal for a non-keyable request.
                None => out.push((
                    to,
                    Answer::err(
                        ErrCode::Failed,
                        "request kind cannot be registered as a template",
                    ),
                )),
                Some(digest) => {
                    self.templates.insert(digest, body.to_vec());
                    let ty = FrameType::RegisterTemplate;
                    self.fan_out(to, Some(digest), ty, body, poller, out);
                }
            },
            Job::Checkpoint => self.fan_out(to, None, FrameType::Checkpoint, &[], poller, out),
        }
    }

    fn event(&mut self, s: usize, ev: &Event, poller: &mut Poller, out: &mut Outbox) {
        let Some(up) = self
            .shards
            .get_mut(s)
            .and_then(|shard| shard.upstream.as_mut())
        else {
            return;
        };
        if !ev.readable {
            return; // writability is consumed by the turn's flush
        }
        let open = up.link.fill().unwrap_or(false);
        // Only whole, checksum-verified frames reach a client: a torn
        // frame dies with its upstream.
        let (mut at, mut garbage, mut parts) = (0, false, Vec::new());
        loop {
            match fpopb::decode_frame(&up.link.rbuf[at..]) {
                Ok(DecodeStep::Ready { frame, consumed }) => {
                    at += consumed;
                    match up.waiters.remove(&frame.corr) {
                        Some(Waiter::Client(to, _)) => out.push((to, Answer::from(frame))),
                        Some(Waiter::Part(id)) => parts.push((id, frame)),
                        Some(Waiter::Replay) | None => {}
                    }
                }
                Ok(DecodeStep::Incomplete) => break,
                // A shard speaking garbage is as gone as a dead one.
                Err(_) => {
                    garbage = true;
                    break;
                }
            }
        }
        up.link.rbuf.drain(..at);
        for (id, frame) in parts {
            self.settle(id, s, Some(&frame), out);
        }
        if !open || garbage {
            self.mark_dead(s, poller, out);
        }
    }

    fn turn(&mut self, poller: &mut Poller, out: &mut Outbox) {
        // A failed write kills its shard, whose text requests may
        // re-route onto another upstream: flush again until none fails.
        'flush: loop {
            for s in 0..self.shards.len() {
                let Some(up) = self.shards[s].upstream.as_mut() else {
                    continue;
                };
                if up.link.flush().is_err() {
                    self.mark_dead(s, poller, out);
                    continue 'flush;
                }
                let writable = !up.link.wbuf.is_empty();
                let interest = Interest {
                    readable: true,
                    writable,
                };
                up.link.watch(poller, BACKEND_TOKEN + s, interest);
            }
            return;
        }
    }

    fn abandon(&mut self, owed: &mut Vec<ReplyTo>) {
        for up in self.shards.iter_mut().filter_map(|s| s.upstream.as_mut()) {
            owed.extend(up.waiters.drain().filter_map(|(_, w)| match w {
                Waiter::Client(to, _) => Some(to),
                Waiter::Part(_) | Waiter::Replay => None,
            }));
        }
        owed.extend(self.fanouts.drain().map(|(_, fan)| fan.to));
    }
}

/// Configuration for [`serve_router`].
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Backend shard addresses. Ring order is index order: keep it stable
    /// across router restarts or the digest→shard map moves.
    pub shards: Vec<SocketAddr>,
    /// How often dead shards are probed for re-admission.
    pub probe_interval: Duration,
}

impl RouterConfig {
    /// A config with the default probe cadence.
    pub fn new(shards: Vec<SocketAddr>) -> RouterConfig {
        RouterConfig {
            shards,
            probe_interval: PROBE_INTERVAL,
        }
    }
}

/// Serves the router on `listener` until `stop` is set (externally, or
/// by a client `shutdown` — which stops the **router only**).
///
/// # Errors
///
/// Fatal listener errors; per-connection and per-shard errors only drop
/// that connection / mark that shard dead.
pub fn serve_router(
    config: RouterConfig,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    run_router(config, listener, &stop, Arc::new(trace::Registry::new()))
}

/// [`serve_router`], counting into `registry`.
fn run_router(
    config: RouterConfig,
    listener: TcpListener,
    stop: &Arc<AtomicBool>,
    registry: Arc<trace::Registry>,
) -> std::io::Result<()> {
    let shards: Vec<Shard> = config
        .shards
        .iter()
        .map(|&addr| Shard {
            addr,
            alive: Arc::new(AtomicBool::new(true)),
            upstream: None,
            registered: HashSet::new(),
        })
        .collect();

    // Health prober: retry dead shards, re-admit on a successful ping.
    let prober = {
        let watched: Vec<(SocketAddr, Arc<AtomicBool>)> = shards
            .iter()
            .map(|s| (s.addr, Arc::clone(&s.alive)))
            .collect();
        let stop = Arc::clone(stop);
        let interval = config.probe_interval;
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                for (addr, alive) in &watched {
                    if !alive.load(Ordering::SeqCst) && probe(*addr) {
                        alive.store(true, Ordering::SeqCst);
                    }
                }
                std::thread::sleep(interval);
            }
        })
    };

    let router = Router {
        ring: Ring::new(shards.len()),
        alive: Vec::with_capacity(shards.len()),
        shards,
        templates: HashMap::new(),
        fanouts: HashMap::new(),
        last_fanout: 0,
        registry,
    };
    let served = conn::run(router, listener, stop);
    stop.store(true, Ordering::SeqCst); // the prober too, if the loop failed
    prober.join().ok();
    served
}

/// One liveness roundtrip against a shard: does it answer a ping?
fn probe(addr: SocketAddr) -> bool {
    let pong = || -> std::io::Result<bool> {
        let mut c = fpopb::Client::new(TcpStream::connect_timeout(&addr, DIAL_TIMEOUT)?);
        c.stream().set_read_timeout(Some(Duration::from_secs(2)))?;
        let corr = c.send_ping()?;
        let frame = c.recv()?;
        Ok(frame.ty == FrameType::Pong && frame.corr == corr)
    };
    pong().unwrap_or(false)
}

// ---------------------------------------------------------------------------
// In-process fleet harness (tests, loadgen --fleet, bench)
// ---------------------------------------------------------------------------

/// One in-process shard: an [`Engine`] behind the full connection layer
/// on a loopback port.
pub struct FleetShard {
    /// The shard's engine (inspect stats, export the session…).
    pub engine: Arc<Engine>,
    /// Where the shard listens.
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl FleetShard {
    fn start(config: EngineConfig) -> std::io::Result<FleetShard> {
        let engine = Arc::new(Engine::start(config));
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || proto::serve(engine, listener, stop))
        };
        Ok(FleetShard {
            engine,
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// Stops serving and drains the engine (writes its snapshot and
    /// publishes to the shared store if configured). Idempotent.
    pub fn stop(&mut self) -> std::io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.join()
                .map_err(|_| std::io::Error::other("shard server thread panicked"))??;
        }
        self.engine
            .shutdown()
            .map_err(|e| std::io::Error::other(format!("shard engine shutdown: {e}")))?;
        Ok(())
    }
}

/// An in-process fleet: N shards plus a router, all on loopback. This is
/// what `loadgen --fleet N`, the bench fleet series, and the oracle-#9
/// differential test drive; the CI smoke job runs the same topology as
/// real processes.
pub struct Fleet {
    /// The shards, in ring order.
    pub shards: Vec<FleetShard>,
    /// The router's address — point clients here.
    pub addr: SocketAddr,
    registry: Arc<trace::Registry>,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Fleet {
    /// Starts `n` shards (each configured by `mk_config(i)`) and a router
    /// in front of them, with a fast probe cadence suited to tests.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures.
    pub fn start(n: usize, mk_config: impl Fn(usize) -> EngineConfig) -> std::io::Result<Fleet> {
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            shards.push(FleetShard::start(mk_config(i))?);
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let config = RouterConfig {
            shards: shards.iter().map(|s| s.addr).collect(),
            probe_interval: Duration::from_millis(50),
        };
        let registry = Arc::new(trace::Registry::new());
        let handle = {
            let stop = Arc::clone(&stop);
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || run_router(config, listener, &stop, registry))
        };
        Ok(Fleet {
            shards,
            addr,
            registry,
            stop,
            handle,
        })
    }

    /// The router's own metrics registry: the connection layer's
    /// `engine_conn_*` counters for the router's client connections.
    pub fn router_registry(&self) -> &trace::Registry {
        &self.registry
    }

    /// Starts `n` identical default-config shards (no snapshots, no
    /// shared store — pure in-memory fleet).
    ///
    /// # Errors
    ///
    /// As for [`Fleet::start`].
    pub fn start_default(n: usize) -> std::io::Result<Fleet> {
        Fleet::start(n, |_| EngineConfig {
            snapshot_path: None,
            ..EngineConfig::default()
        })
    }

    /// Gracefully stops shard `i` (drains, snapshots, closes its
    /// listener). The router discovers the death on its next request or
    /// probe and routes around it.
    ///
    /// # Errors
    ///
    /// Propagates the shard's shutdown failure.
    pub fn stop_shard(&mut self, i: usize) -> std::io::Result<()> {
        self.shards[i].stop()
    }

    /// Stops the router and every still-running shard.
    ///
    /// # Errors
    ///
    /// The first failure, after attempting every component.
    pub fn stop(mut self) -> std::io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        let router = self
            .handle
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("router panicked")));
        let shards: Vec<_> = self.shards.iter_mut().map(FleetShard::stop).collect();
        router.and(shards.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_total() {
        let a = Ring::new(4);
        let b = Ring::new(4);
        let alive = vec![true; 4];
        for key in (0..2048u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)) {
            assert_eq!(a.route(key, &alive), b.route(key, &alive));
            assert!(a.route(key, &alive).is_some());
        }
        assert_eq!(a.route(7, &[false; 4]), None);
        assert_eq!(Ring::new(0).route(7, &[]), None);
    }

    #[test]
    fn dead_shard_never_routed() {
        let ring = Ring::new(4);
        let mut alive = vec![true; 4];
        alive[2] = false;
        for key in (0..2048u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)) {
            assert_ne!(ring.route(key, &alive), Some(2));
        }
    }
}
