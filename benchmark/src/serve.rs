//! What the two serving workloads share: hosting one engine behind the
//! connection layer, the pipelined closed loop over one fpopb/1
//! connection, and the frame-codec replay.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use engine::fpopb::{self, Client, FrameType, Reply};
use engine::{Engine, Priority, Request};

use crate::common::{engine_config, ratio, Counters, Outcome, Timer};
use crate::ops::WINDOW;

/// One engine served by `engine::proto::serve` on a loopback port.
pub struct Server {
    pub engine: Arc<Engine>,
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Server {
    pub fn start() -> Result<Server, String> {
        let engine = Arc::new(Engine::start(engine_config()));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || engine::proto::serve(engine, listener, stop))
        };
        Ok(Server {
            engine,
            addr,
            stop,
            handle,
        })
    }

    pub fn stop(self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))?;
        self.engine
            .shutdown()
            .map_err(|e| format!("engine shutdown: {e}"))?;
        Ok(())
    }
}

pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// A set-up's warm pass: ops `0..n` once each, [`WINDOW`] in flight, the
/// same client loop the timed phase runs. Returns whether every reply was
/// right.
pub fn warm_pass(
    client: &mut Client,
    n: usize,
    send: impl FnMut(&mut Client, usize) -> std::io::Result<u64>,
    check: impl FnMut(usize, &Reply) -> bool,
) -> Result<bool, String> {
    let mut timer = Timer::new(n, None);
    let sent = pipelined(client, &mut timer, 0..n, Duration::MAX, send, check)?;
    Ok(sent == n && timer.failed == 0)
}

/// The closed loop over the ops in `range` (one segment of the timed
/// phase): keeps [`WINDOW`] requests in flight on one connection, checks
/// each reply, sends the next op as soon as one completes, and drains the
/// window at the end. Latency runs from send to checked reply. Returns
/// how many ops were sent (all of them unless the cap cut the phase
/// short).
pub fn pipelined(
    client: &mut Client,
    timer: &mut Timer,
    range: std::ops::Range<usize>,
    cap: Duration,
    mut send: impl FnMut(&mut Client, usize) -> std::io::Result<u64>,
    mut check: impl FnMut(usize, &Reply) -> bool,
) -> Result<usize, String> {
    let mut inflight: HashMap<u64, (usize, Instant)> = HashMap::with_capacity(2 * WINDOW);
    let (mut next, n) = (range.start, range.end);
    while next < n && inflight.len() < WINDOW {
        let t = Instant::now();
        let corr = send(client, next).map_err(|e| format!("send: {e}"))?;
        inflight.insert(corr, (next, t));
        next += 1;
    }
    while !inflight.is_empty() {
        let frame = client.recv().map_err(|e| format!("recv: {e}"))?;
        let work = Instant::now();
        let (i, t) = inflight
            .remove(&frame.corr)
            .ok_or_else(|| format!("reply for unknown corr {}", frame.corr))?;
        let ok = fpopb::decode_reply(&frame).is_ok_and(|r| check(i, &r));
        let traced = timer.traced();
        timer.complete(ok, t.elapsed());
        if next < n && timer.elapsed() < cap {
            let t = Instant::now();
            let corr = send(client, next).map_err(|e| format!("send: {e}"))?;
            inflight.insert(corr, (next, t));
            next += 1;
        }
        if traced {
            timer.client_traced += work.elapsed();
        }
    }
    Ok(next - range.start)
}

/// Replays the frame codec on a workload's own request and reply frames:
/// each frame is encoded and decoded as client and server do. Returns µs
/// per frame (median of several passes).
pub fn codec_us_per_frame(requests: &[Request], replies: &[String]) -> f64 {
    let frames = (requests.len() + replies.len()).max(1) as f64;
    let prio = fpopb::encode_priority(Priority::Normal);
    crate::common::median_time(9, || {
        for (corr, req) in requests.iter().enumerate() {
            let mut body = vec![prio];
            fpopb::encode_request(&mut body, req);
            let bytes = fpopb::encode_frame(FrameType::Submit, corr as u64, &body);
            if let Ok(fpopb::DecodeStep::Ready { frame, .. }) = fpopb::decode_frame(&bytes) {
                std::hint::black_box(fpopb::decode_request(&frame.body, 1).ok());
            }
        }
        for (corr, text) in replies.iter().enumerate() {
            let bytes = fpopb::encode_frame(FrameType::Ok, corr as u64, text.as_bytes());
            if let Ok(fpopb::DecodeStep::Ready { frame, .. }) = fpopb::decode_frame(&bytes) {
                std::hint::black_box(fpopb::decode_reply(&frame).ok());
            }
        }
    }) * 1e6
        / frames
}

/// Inserts the conn-layer and client metrics of `serve_wire`; the queue wait and service means must already be in. Returns
/// the client's own work per traced op, µs.
pub fn conn_layers(out: &mut Outcome, timer: &Timer, d: &Counters, codec_us: f64) -> f64 {
    let (traced_ops, _) = timer.ops_secs(true);
    let client_us = timer.client_traced.as_secs_f64() * 1e6 / traced_ops.max(1) as f64;
    let l = &mut out.layers;
    let engine_us = l["engine.queue.wait_us_mean"] + l["engine.execute.us_mean"];
    l.insert(
        "engine.conn.frames_per_flush",
        ratio(d.conn_frames, d.conn_flushes),
    );
    l.insert(
        "engine.conn.us_per_request",
        timer.mean_latency_us() - engine_us,
    );
    l.insert("engine.fpopb.us_per_frame", codec_us);
    l.insert("bench.client.us_per_op", client_us);
    client_us
}
