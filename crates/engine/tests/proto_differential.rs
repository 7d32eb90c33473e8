//! Differential protocol oracle: the same randomized request batch must
//! produce **byte-identical verdicts and ledgers** whether it travels
//! over the text protocol, the fpopb/1 binary protocol, or straight
//! through `Engine::submit` in process — and pipelined out-of-order
//! completion must never mismatch a correlation id.
//!
//! All three paths are compared in the canonical wire form
//! (`proto::render_result`), after one warm pass so the per-request
//! cache ledgers are deterministic (every measured elaboration is fully
//! warm on all paths).
//!
//! The flush-batching regression rides along: a 100-frame pipelined
//! batch must complete within a handful of write flushes (one per
//! readiness turn, not one per reply), observed through the engine's own
//! `engine_conn_write_flushes_total` counter.

#![cfg(unix)]

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use engine::fpopb::{self, Reply};
use engine::proto;
use engine::request::{Priority, Request};
use engine::{Engine, EngineConfig};
use families_stlc::Feature;
use testkit::{run_cases, Rng};

const PEANO: &str = include_str!("../../../examples/peano.fpop");

/// A randomized deterministic batch over every comparable request kind.
/// `Stats`/`Metrics` are excluded on purpose: their payloads embed live
/// counters, so no two reads are equal on *any* path.
fn gen_batch(r: &mut Rng, n: usize) -> Vec<Request> {
    let mut reqs = Vec::new();
    for _ in 0..n {
        reqs.push(match r.below(5) {
            0 => Request::CheckSource {
                source: format!("(* differential {} *)\n{PEANO}", r.below(3)),
            },
            1 => {
                let all = Feature::all();
                let mask = r.range(1, (1 << all.len()) as u64) as usize;
                Request::BuildLattice {
                    features: all
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, f)| *f)
                        .collect(),
                }
            }
            2 => Request::QueryTheorem {
                family: "Peano".to_string(),
                field: if r.flip() { "flip_two" } else { "missing_thm" }.to_string(),
            },
            3 => Request::Eval {
                family: "Peano".to_string(),
                term: if r.flip() {
                    "flip(n_one)".to_string()
                } else {
                    "flip(flip(n_plus(n_one, n_zero)))".to_string()
                },
            },
            // Malformed vernacular: the error string must also agree.
            _ => Request::CheckSource {
                source: "Family Broken.\n  FInductive := | |.\n".to_string(),
            },
        });
    }
    reqs
}

/// The canonical wire line for one request, via in-process submission.
fn canon_inproc(engine: &Arc<Engine>, req: &Request) -> String {
    let ticket = engine.submit(req.clone()).expect("submit");
    normalize(&proto::render_result(&ticket.wait()))
}

/// Masks wall-clock duration tokens (`3.33ms`, `853.62µs`, `1.02s`) so
/// the comparison covers verdicts and *ledgers* — counts, reuse ratios,
/// statements — but not scheduler timing, which legitimately differs
/// between two executions of the same request.
fn normalize(line: &str) -> String {
    // The wire form escapes newlines to literal `\n`, gluing a time
    // token to the next row's name; pad the escapes into their own
    // tokens. Splitting on whitespace also collapses column padding,
    // which varies with the width of the (masked) time values. Both
    // transforms hit every path alike, so comparisons stay exact on
    // all content.
    line.replace("\\n", " \\n ")
        .split_whitespace()
        .map(|tok| {
            for unit in ["ns", "µs", "ms", "s"] {
                if let Some(num) = tok.strip_suffix(unit) {
                    if !num.is_empty() && num.parse::<f64>().is_ok() {
                        return "_time_";
                    }
                }
            }
            tok
        })
        .collect::<Vec<&str>>()
        .join(" ")
}

/// The canonical wire line for one request, via one text-protocol line.
fn text_line(req: &Request) -> String {
    match req {
        Request::CheckSource { source } => format!("check {}\n", proto::escape(source)),
        Request::BuildLattice { features } => {
            let tags: Vec<&str> = features.iter().map(|f| f.tag()).collect();
            format!("lattice {}\n", tags.join(","))
        }
        Request::QueryTheorem { family, field } => format!("theorem {family} {field}\n"),
        Request::Eval { family, term } => format!("eval {family} {}\n", proto::escape(term)),
        other => panic!("no text form for {other:?}"),
    }
}

/// Reconstructs the canonical wire line from a binary reply frame.
fn canon_binary(reply: &Reply) -> String {
    normalize(&match reply {
        Reply::Ok(payload) => format!("ok {}", proto::escape(payload)),
        Reply::Err(_, msg) => format!("err {}", proto::escape(msg)),
        other => panic!("not a submit reply: {other:?}"),
    })
}

struct TestServer {
    engine: Arc<Engine>,
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    server: std::thread::JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.server
            .join()
            .expect("server thread")
            .expect("serve result");
        self.engine.shutdown().expect("engine shutdown");
    }
}

fn start_server() -> TestServer {
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 256,
        snapshot_path: None,
        ..EngineConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || proto::serve(engine, listener, stop))
    };
    TestServer {
        engine,
        addr,
        stop,
        server,
    }
}

/// Text, binary, and in-process submission agree byte-for-byte on the
/// canonical wire line of every request in a random warm batch.
#[test]
fn three_paths_agree_on_random_batches() {
    let srv = start_server();
    let (engine, addr) = (Arc::clone(&srv.engine), srv.addr);

    run_cases("differential_batches", 0xD1FF, 6, |r| {
        let batch = gen_batch(r, 12);

        // Warm pass: after this, every path sees only cache hits, so
        // the per-request ledgers are deterministic.
        for req in &batch {
            let _ = engine.submit(req.clone()).expect("warm submit").wait();
        }
        let expected: Vec<String> = batch.iter().map(|q| canon_inproc(&engine, q)).collect();

        // Text path: pipelined lines, strictly ordered replies.
        let stream = TcpStream::connect(addr).expect("connect text");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for req in &batch {
            writer.write_all(text_line(req).as_bytes()).unwrap();
        }
        writer.flush().unwrap();
        for (i, want) in expected.iter().enumerate() {
            let mut line = String::new();
            reader.read_line(&mut line).expect("text reply");
            assert_eq!(
                normalize(line.trim_end()),
                *want,
                "text path diverged on request #{i}: {:?}",
                batch[i]
            );
        }

        // Binary path: pipelined frames, completion-order replies keyed
        // by correlation id. Mixed priorities provoke real reordering.
        let mut client = fpopb::Client::connect(addr).expect("connect binary");
        client
            .stream()
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut by_corr: HashMap<u64, usize> = HashMap::new();
        for (i, req) in batch.iter().enumerate() {
            let prio = match r.below(3) {
                0 => Priority::High,
                1 => Priority::Low,
                _ => Priority::Normal,
            };
            let corr = client.send_submit(req, prio).expect("send");
            assert!(
                by_corr.insert(corr, i).is_none(),
                "correlation id {corr} reused in one batch"
            );
        }
        for _ in 0..batch.len() {
            let frame = client.recv().expect("binary reply");
            let i = *by_corr
                .get(&frame.corr)
                .unwrap_or_else(|| panic!("unknown correlation id {}", frame.corr));
            let reply = fpopb::decode_reply(&frame).expect("decode reply");
            assert_eq!(
                canon_binary(&reply),
                expected[i],
                "binary path diverged on request #{i}: {:?}",
                batch[i]
            );
            by_corr.remove(&frame.corr);
        }
        assert!(by_corr.is_empty(), "missing replies: {by_corr:?}");
    });

    drop(engine);
    srv.stop();
}

/// Out-of-order completion stress: duplicate requests coalesce through
/// the dedup map and heavy/light requests finish in shuffled order, yet
/// every correlation id maps back to the right payload.
#[test]
fn out_of_order_completion_keeps_correlation_ids_straight() {
    let srv = start_server();
    let (engine, addr) = (Arc::clone(&srv.engine), srv.addr);

    // Warm both shapes once.
    for req in [
        Request::CheckSource {
            source: PEANO.to_string(),
        },
        Request::BuildLattice {
            features: vec![Feature::Fix],
        },
    ] {
        let _ = engine.submit(req).expect("warm").wait();
    }
    let light = Request::CheckSource {
        source: PEANO.to_string(),
    };
    let heavy = Request::BuildLattice {
        features: vec![Feature::Fix],
    };
    let light_want = canon_inproc(&engine, &light);
    let heavy_want = canon_inproc(&engine, &heavy);

    let mut client = fpopb::Client::connect(addr).expect("connect");
    client
        .stream()
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut want_by_corr: HashMap<u64, &String> = HashMap::new();
    for i in 0..40 {
        let (req, want, prio) = if i % 4 == 0 {
            (&heavy, &heavy_want, Priority::Low)
        } else {
            (&light, &light_want, Priority::High)
        };
        let corr = client.send_submit(req, prio).expect("send");
        want_by_corr.insert(corr, want);
    }
    for _ in 0..40 {
        let frame = client.recv().expect("reply");
        let want = want_by_corr
            .remove(&frame.corr)
            .unwrap_or_else(|| panic!("phantom or duplicated corr {}", frame.corr));
        let reply = fpopb::decode_reply(&frame).expect("decode");
        assert_eq!(
            &canon_binary(&reply),
            want,
            "corr {} mismatched",
            frame.corr
        );
    }
    assert!(want_by_corr.is_empty());

    drop(engine);
    srv.stop();
}

/// Flush-batching regression: a 100-request pipelined batch completes
/// within a handful of write flushes. Before response batching, every
/// reply line cost its own `flush()` syscall — 100 requests meant 100+
/// flushes; the readiness loop batches all replies ready in one turn
/// into one flush.
#[test]
fn pipelined_batch_flushes_once_per_turn_not_per_reply() {
    let srv = start_server();
    let (engine, addr) = (Arc::clone(&srv.engine), srv.addr);

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Send all 100 pings as one contiguous write so they land in as few
    // readiness turns as possible.
    let mut burst = Vec::new();
    for corr in 1..=100u64 {
        burst.extend_from_slice(&fpopb::encode_frame(fpopb::FrameType::Ping, corr, &[]));
    }
    let mut client = fpopb::Client::new(stream);
    client.stream().write_all(&burst).expect("burst write");
    let mut seen = 0u64;
    for _ in 0..100 {
        let frame = client.recv().expect("pong");
        assert_eq!(frame.ty, fpopb::FrameType::Pong);
        seen += 1;
    }
    assert_eq!(seen, 100);

    let flushes = engine
        .session()
        .registry()
        .counter_value("engine_conn_write_flushes_total")
        .expect("serve registers the engine_conn_* counters");
    assert!(
        (1..=8).contains(&flushes),
        "100 pipelined replies took {flushes} write flushes (want ≤ 8: batched per \
         readiness turn, not per reply)"
    );

    drop(engine);
    srv.stop();
}
