//! Differential oracle 9: **fleet vs. single engine**.
//!
//! The same warm batch of requests goes through a router + N-shard fleet
//! (over the `fpopb/1` binary protocol) and through one in-process
//! [`Engine`]; wherever both answer, the *canonical payloads* must be
//! identical. Canonical means the deterministic part of the rendered
//! response: check outputs, lattice variant structure, theorem
//! statements, error reasons — everything except cache/timing counters,
//! which legitimately differ with shard count and warmth.
//!
//! On top of payload agreement the oracle pins the two fleet-wide cache
//! properties the router's digest routing is *for*:
//!
//! * **dedup** — re-submitting a digest the fleet has already proved
//!   never proves again anywhere: total session inserts across all
//!   shards stay exactly flat;
//! * **merged export determinism** — the union of all shards' session
//!   exports, merged and snapshotted, is byte-identical across shard
//!   counts 1, 2, and 4, and byte-identical to the single engine's own
//!   export.

#![cfg(unix)]

use engine::fleet::{Fleet, Ring};
use engine::fpopb::{Client, ErrCode, Reply};
use engine::proto::render_response;
use engine::snapshot::encode_snapshot;
use engine::{Engine, EngineConfig, Priority, Request};
use families_stlc::Feature;
use fpop::Session;
use testkit::family_gen::gen_feature_subset;
use testkit::script_gen::gen_vernacular;
use testkit::Rng;

/// The deterministic part of a rendered `ok` payload for `req`.
///
/// `CheckSource` drops the `[checked … | cache …]` trailer (warmth moves
/// units between `checked` and `shared`); `BuildLattice` keeps only the
/// structural table columns (name, arity, fields) for the same reason,
/// plus the elapsed-time column is wall clock. Everything else renders
/// deterministically and is kept whole.
fn canonical_ok(req: &Request, payload: &str) -> String {
    match req {
        Request::CheckSource { .. } => payload
            .lines()
            .filter(|l| !l.starts_with('['))
            .collect::<Vec<_>>()
            .join("\n"),
        Request::BuildLattice { .. } => payload
            .lines()
            .filter(|l| !l.starts_with('['))
            .map(|l| l.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
            .collect::<Vec<_>>()
            .join("\n"),
        _ => payload.to_string(),
    }
}

/// What both sides of the differential reduce to.
#[derive(Debug, PartialEq)]
enum Canonical {
    Ok(String),
    Err(ErrCode, String),
}

/// The single-engine expectation for `req`.
fn expected(reference: &Engine, req: &Request) -> Canonical {
    match reference.run(req.clone()) {
        Ok(resp) => Canonical::Ok(canonical_ok(req, &render_response(&resp))),
        Err(e) => Canonical::Err(ErrCode::of_engine(&e), e.to_string()),
    }
}

/// The fleet's answer for `req`, through the router over fpopb/1.
fn observed(client: &mut Client, req: &Request) -> Canonical {
    match client.roundtrip(req, Priority::Normal).expect("roundtrip") {
        Reply::Ok(payload) => Canonical::Ok(canonical_ok(req, &payload)),
        Reply::Err(code, reason) => Canonical::Err(code, reason),
        other => panic!("submit answered {other:?}"),
    }
}

/// Pre-warms an engine with the extended lattice so that theorem queries
/// against any generated variant are well-defined on every shard.
fn warm(engine: &Engine) {
    engine
        .run(Request::BuildLattice {
            features: Feature::all_extended().to_vec(),
        })
        .expect("warm lattice build");
}

fn fleet_inserts(fleet: &Fleet) -> u64 {
    fleet.shards.iter().map(|s| s.engine.stats().inserts).sum()
}

/// The fleet's merged snapshot export: every shard's session export,
/// imported into one fresh session, re-exported, and encoded.
fn merged_export(fleet: &Fleet) -> Vec<u8> {
    let merged = Session::new();
    for shard in &fleet.shards {
        merged.import(shard.engine.session().export());
    }
    encode_snapshot(&merged.export())
}

/// One random warm batch: self-contained checks with known verdicts,
/// theorem queries on warmed lattice variants, a lattice rebuild, and a
/// guaranteed-failing query for the error path.
fn gen_batch(r: &mut Rng) -> Vec<Request> {
    let mut batch = Vec::new();
    for _ in 0..8 {
        batch.push(Request::CheckSource {
            source: gen_vernacular(r).source,
        });
    }
    for _ in 0..4 {
        batch.push(Request::QueryTheorem {
            family: gen_feature_subset(r).top_variant(),
            field: "typesafe".into(),
        });
    }
    batch.push(Request::BuildLattice {
        features: gen_feature_subset(r).raw,
    });
    batch.push(Request::QueryTheorem {
        family: "NoSuchFamily".into(),
        field: "typesafe".into(),
    });
    batch
}

/// The oracle proper: shard counts 1, 2, and 4 all agree with the single
/// engine on every canonical payload; repeats never prove twice anywhere
/// in the fleet; merged exports are byte-identical across shard counts
/// and to the reference engine.
#[test]
fn fleet_matches_single_engine_across_shard_counts() {
    let mut r = Rng::new(0xF1EE7009);
    let batch = gen_batch(&mut r);

    // The reference: one in-process engine, same warm-up, direct submits.
    let reference = Engine::start(EngineConfig {
        snapshot_path: None,
        ..EngineConfig::default()
    });
    warm(&reference);
    let want: Vec<Canonical> = batch.iter().map(|q| expected(&reference, q)).collect();

    let mut exports: Vec<(usize, Vec<u8>)> = Vec::new();
    for n in [1usize, 2, 4] {
        let fleet = Fleet::start_default(n).expect("fleet start");
        for shard in &fleet.shards {
            warm(&shard.engine);
        }
        let mut client = Client::connect(fleet.addr).expect("connect router");

        // Pass 1: every request answers with the reference's canonical
        // payload, routed wherever the ring says.
        for (req, want) in batch.iter().zip(&want) {
            let got = observed(&mut client, req);
            assert_eq!(
                &got, want,
                "fleet of {n} diverged from the single engine on {req:?}"
            );
        }

        // Pass 2: the whole batch again — same digests, so the router
        // lands every request on the shard that already proved it, and
        // *nothing* is proved twice anywhere: fleet-wide session inserts
        // stay exactly flat. A second connection exercises the
        // per-connection upstream pools too.
        let before = fleet_inserts(&fleet);
        let mut second = Client::connect(fleet.addr).expect("connect again");
        for (req, want) in batch.iter().zip(&want) {
            let got = observed(&mut second, req);
            assert_eq!(&got, want, "repeat diverged on fleet of {n}: {req:?}");
        }
        assert_eq!(
            fleet_inserts(&fleet),
            before,
            "fleet of {n} re-proved an already-proved digest"
        );

        // Pipelined duplicates on one connection: two in-flight submits
        // of the same digest must both answer, identically.
        let dup = &batch[0];
        let c1 = client.send_submit(dup, Priority::Normal).expect("send");
        let c2 = client.send_submit(dup, Priority::Normal).expect("send");
        let mut seen = std::collections::HashMap::new();
        for _ in 0..2 {
            let frame = client.recv().expect("recv");
            let reply = engine::fpopb::decode_reply(&frame).expect("decode");
            let got = match reply {
                Reply::Ok(payload) => Canonical::Ok(canonical_ok(dup, &payload)),
                Reply::Err(code, reason) => Canonical::Err(code, reason),
                other => panic!("submit answered {other:?}"),
            };
            seen.insert(frame.corr, got);
        }
        assert_eq!(seen.len(), 2, "one of corr {c1}/{c2} never answered");
        for (corr, got) in &seen {
            assert_eq!(got, &want[0], "pipelined duplicate corr {corr} diverged");
        }

        exports.push((n, merged_export(&fleet)));
        fleet.stop().expect("fleet stop");
    }

    // Merged exports: byte-identical across shard counts *and* to the
    // single engine's own export.
    let single = encode_snapshot(&reference.session().export());
    for (n, bytes) in &exports {
        assert_eq!(
            bytes,
            &single,
            "merged export of the {n}-shard fleet differs from the single \
             engine ({} vs {} bytes)",
            bytes.len(),
            single.len()
        );
    }
    reference.shutdown().expect("reference shutdown");
}

/// The router speaks the text protocol too: line-based requests route by
/// the same digests and answer with the same canonical payloads. The
/// batch goes out in one write before any reply is read, routed to both
/// shards: the router forwards each line as soon as it is parsed, and
/// the n-th reply still answers the n-th line.
#[test]
fn text_protocol_routes_through_the_fleet() {
    use std::io::{BufRead, BufReader, Write};

    let mut r = Rng::new(0xF1EE700A);
    let reference = Engine::start(EngineConfig {
        snapshot_path: None,
        ..EngineConfig::default()
    });
    let fleet = Fleet::start_default(2).expect("fleet start");

    let mut stream = std::net::TcpStream::connect(fleet.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut read_reply = || -> String {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply.trim_end().to_string()
    };

    writeln!(stream, "ping").expect("write");
    assert_eq!(read_reply(), "ok pong");

    // At least six programs, and enough that both shards own some.
    let ring = Ring::new(2);
    let mut requests = Vec::new();
    let mut shards_hit = [false; 2];
    while requests.len() < 6 || !shards_hit.iter().all(|&hit| hit) {
        assert!(
            requests.len() < 64,
            "no program routed to one of the shards"
        );
        let req = Request::CheckSource {
            source: gen_vernacular(&mut r).source,
        };
        let key = req.dedup_key().expect("checks have digests");
        if let Some(s) = ring.route(key, &[true, true]) {
            shards_hit[s] = true;
        }
        requests.push(req);
    }
    let mut batch = String::new();
    for req in &requests {
        let Request::CheckSource { source } = req else {
            unreachable!("only checks are generated")
        };
        batch.push_str(&format!("check {}\n", engine::proto::escape(source)));
    }
    stream.write_all(batch.as_bytes()).expect("write batch");

    for req in &requests {
        let Request::CheckSource { source } = req else {
            unreachable!("only checks are generated")
        };
        let line = read_reply();
        let (verdict, payload) = line.split_once(' ').expect("verdict payload");
        let got = match verdict {
            "ok" => Canonical::Ok(canonical_ok(
                req,
                &engine::proto::unescape(payload).expect("unescape"),
            )),
            "err" => {
                // The text protocol carries no error code; compare reasons.
                let reason = engine::proto::unescape(payload).expect("unescape");
                match expected(&reference, req) {
                    Canonical::Err(_, want_reason) => {
                        assert_eq!(reason, want_reason, "text error reason diverged");
                        continue;
                    }
                    other => panic!("fleet rejected, reference said {other:?}"),
                }
            }
            other => panic!("unparseable verdict {other:?} in {line:?}"),
        };
        assert_eq!(
            got,
            expected(&reference, req),
            "text payload diverged on:\n{source}"
        );
    }

    fleet.stop().expect("fleet stop");
    reference.shutdown().expect("reference shutdown");
}
