//! `serve_wire`: one engine behind the connection layer and one fpopb/1
//! connection with [`WINDOW`] requests in flight. A seeded mix of warm
//! pool checks, `flip` evals and never-repeating checks keeps the single
//! engine worker saturated, so time goes to the frame codec, the conn
//! poller, the queue handoff, parsing, elaboration on proof-cache hits
//! and the VM. The never-repeating share grows the interner and the
//! proof store with every op, so the cache takes writes beside reads.

use engine::fpopb::{Client, Reply};
use engine::{Priority, Request};
use fpop::{FamilyUniverse, Session};

use crate::common::{
    exposition, median_time, workload_mean, Cfg, Counters, LayerInputs, Outcome, Setups,
    SpanLayers, Timer, Tracer,
};
use crate::ops::{
    fresh_family, pool_family, wire_ops, WireOp, POOL, WINDOW, WIRE_CHECKS, WIRE_CYCLE, WIRE_FRESH,
};
use crate::reference::{
    checks_match, eval_matches, fresh_checks, fresh_program, peano_checks, peano_program, Num,
};
use crate::serve::{codec_us_per_frame, conn_layers, connect, pipelined, warm_pass, Server};

/// Requests per second on the reference host: sizes a run to about
/// `--seconds`. The count, and with it the never-repeating checks that
/// set the memory high-water mark, is fixed per run.
const NOMINAL_OPS_PER_S: f64 = 6000.0;

/// Set-ups per untraced run: each boots a server and runs the warm pass,
/// about 20 ms.
const SETUP_REPS: usize = 96;

/// Spans of the requests completing between two drains; the ring holds
/// them.
const RING_SLOTS: usize = 256;

struct Inputs {
    pool: Vec<Request>,
    evals: Vec<(Request, Num)>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let pool = (0..POOL)
            .map(|i| Request::CheckSource {
                source: peano_program(&pool_family(i)),
            })
            .collect();
        let evals = crate::ops::eval_terms(seed)
            .into_iter()
            .enumerate()
            .map(|(j, t)| {
                let req = Request::Eval {
                    family: pool_family(j),
                    term: t.request(),
                };
                (req, t)
            })
            .collect();
        Inputs { pool, evals }
    }
}

fn ok_text(reply: &Reply) -> Option<&str> {
    match reply {
        Reply::Ok(text) => Some(text),
        _ => None,
    }
}

/// Boots the server, connects, and checks every pool program and then
/// every eval term once, so the timed phase starts warm.
fn set_up(inputs: &Inputs) -> Result<((Server, Client), bool), String> {
    let server = Server::start()?;
    let mut client = connect(server.addr)?;
    let pool = inputs.pool.len();
    let ok = warm_pass(
        &mut client,
        pool + inputs.evals.len(),
        |c, i| match i.checked_sub(pool) {
            None => c.send_submit(&inputs.pool[i], Priority::Normal),
            Some(j) => c.send_submit(&inputs.evals[j].0, Priority::Normal),
        },
        |i, reply| {
            ok_text(reply).is_some_and(|t| match i.checked_sub(pool) {
                None => checks_match(t, &peano_checks(&pool_family(i))),
                Some(j) => eval_matches(t, &pool_family(j), &inputs.evals[j].1),
            })
        },
    )?;
    Ok(((server, client), ok))
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let ops = wire_ops(cfg.seed, cfg.ops(NOMINAL_OPS_PER_S));
    let n = ops.len();
    let inputs = Inputs::new(cfg.seed);
    let fresh: Vec<Request> = (0..n * WIRE_FRESH / WIRE_CYCLE)
        .map(|k| Request::CheckSource {
            source: fresh_program(&fresh_family(k), k),
        })
        .collect();

    let mut setups = Setups::new(
        cfg,
        SETUP_REPS,
        || set_up(&inputs),
        |(server, client): (Server, Client)| {
            drop(client);
            server.stop()
        },
    );
    let (server, mut client) = setups.first()?;

    let before = Counters::read(&exposition(&server.engine)?);
    let tracer = cfg.trace.then(|| Tracer::new(RING_SLOTS));
    let mut timer = Timer::new(n, tracer);
    let rss_after_setup = crate::host::rss_kib();
    let mut sample_replies: Vec<String> = Vec::new();
    let mut send = |c: &mut Client, i: usize| {
        let req = match ops[i] {
            WireOp::Check(p) => &inputs.pool[p],
            WireOp::Eval(j) => &inputs.evals[j].0,
            WireOp::Fresh(k) => &fresh[k],
        };
        c.send_submit(req, Priority::Normal)
    };
    let mut check = |i: usize, reply: &Reply| {
        let Some(text) = ok_text(reply) else {
            return false;
        };
        if sample_replies.len() < WIRE_CYCLE {
            sample_replies.push(text.to_string());
        }
        match ops[i] {
            WireOp::Check(p) => checks_match(text, &peano_checks(&pool_family(p))),
            WireOp::Eval(j) => eval_matches(text, &pool_family(j), &inputs.evals[j].1),
            WireOp::Fresh(k) => checks_match(text, &fresh_checks(&fresh_family(k), k)),
        }
    };
    let mut attempted = 0;
    for seg in timer.segments() {
        if seg.start > 0 {
            if timer.elapsed() > cfg.cap() {
                break;
            }
            setups.round(cfg)?;
            timer.resume();
        }
        let len = seg.len();
        let sent = pipelined(
            &mut client,
            &mut timer,
            seg,
            cfg.cap(),
            &mut send,
            &mut check,
        )?;
        attempted += sent;
        if sent < len {
            break;
        }
    }
    timer.finish();
    let rss_end = crate::host::rss_kib();
    let after = Counters::read(&exposition(&server.engine)?);
    if !setups.ok {
        timer.failed += 1;
    }
    drop(client);
    server.stop()?;

    let mut out = Outcome::from_timer(&mut timer, setups.secs, attempted);
    if let Some(tracer) = &timer.tracer {
        let ops_f = attempted.max(1) as f64;
        let d = after.since(&before);
        let (traced_ops, traced_secs) = timer.ops_secs(true);
        let spans = SpanLayers::from_totals(tracer.totals(), traced_ops);
        let check_share = (WIRE_CHECKS + WIRE_FRESH) as f64 / WIRE_CYCLE as f64;
        let sources: Vec<String> = (0..POOL).map(|i| peano_program(&pool_family(i))).collect();
        // Replays of the parser and the merge planner on the op's sources.
        let parse_us = median_time(9, || {
            for s in &sources {
                std::hint::black_box(fpop::parse::prepare_program(s).expect("pool parses"));
            }
        }) * 1e6
            / POOL as f64;
        let programs: Vec<fpop::parse::Program> = sources
            .iter()
            .map(|s| fpop::parse::prepare_program(s).expect("pool parses"))
            .collect();
        let u = FamilyUniverse::with_session(Session::new());
        let plan_ms = median_time(9, || {
            for p in &programs {
                std::hint::black_box(u.plan(p.families.iter()).expect("pool plans"));
            }
        }) * 1e3
            / POOL as f64;
        let requests: Vec<Request> = inputs
            .pool
            .iter()
            .cloned()
            .chain(inputs.evals.iter().map(|(r, _)| r.clone()))
            .collect();
        let codec_us = codec_us_per_frame(&requests, &sample_replies);
        let hop = crate::fleet_hop::replay(cfg.seed)?;
        if !hop.ok {
            out.failed += 1;
        }
        let op_ms = traced_secs * 1e3 / traced_ops.max(1) as f64;
        out.shared_layers(LayerInputs {
            spans: &spans,
            counters: &d,
            ops: ops_f,
            engines: 1.0,
            rss_growth_kib: rss_end - rss_after_setup,
            wait_us: workload_mean(d.wait_sum_us, d.wait_count, 1.0),
            service_us: workload_mean(d.service_sum_us, d.service_count, 1.0),
        });
        let client_us = conn_layers(&mut out, &timer, &d, codec_us);
        let l = &mut out.layers;
        l.insert("fpop.parse.us_per_check", parse_us);
        l.insert(
            "engine.fleet.hop_us_per_frame",
            hop.routed_us - hop.direct_us,
        );
        l.insert("fpop.plan.ms_per_op", plan_ms * check_share);
        l.insert(
            "engine.execute.self_ms_per_op",
            spans.execute_self_ms - check_share * (plan_ms + parse_us / 1e3),
        );
        // The op: wall time per request; client, conn poller and worker
        // share the one CPU. Covered: the worker's `engine.execute` spans
        // and the client's own work.
        l.insert(
            "unattributed_pct",
            100.0 * (op_ms - spans.execute_total_ms - client_us / 1e3) / op_ms,
        );
        out.notes.push(tracer.note(&format!(
            "traced_ops={traced_ops} op_ms={op_ms:.4} window={WINDOW} routed_us_per_frame={:.3} direct_us_per_frame={:.3}",
            hop.routed_us, hop.direct_us
        )));
    }
    Ok(out)
}
