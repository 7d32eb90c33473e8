//! `lattice_cold`: start a fresh engine, build the four-feature Venn
//! lattice, shut the engine down. Every proof obligation misses the
//! cache, so the time goes to planning and merging, the task DAG, field
//! elaboration and kernel proofs.

use std::time::{Duration, Instant};

use engine::{Engine, Request, Response};
use families_stlc::Feature;
use fpop::{FamilyUniverse, Session};

use crate::common::{
    engine_config, exposition, median_time, workload_mean, Cfg, Counters, LayerInputs, Outcome,
    Setups, SpanLayers, Timer, Tracer,
};
use crate::reference::{CS1, LATTICE_INSERTS, LATTICE_MISSES};

/// Lattice builds per second on the reference host (the process on one
/// CPU of a 2-vCPU VM): sizes a run to about `--seconds`.
const NOMINAL_OPS_PER_S: f64 = 10.0;

/// Set-ups per untraced run: each is a whole op, about 0.1 s.
const SETUP_REPS: usize = 32;

/// Spans one cold lattice op emits are about 1,300; the ring holds one op.
const RING_SLOTS: usize = 4096;

fn request(order: &[usize; 4]) -> Request {
    let all = Feature::all();
    Request::BuildLattice {
        features: order.iter().map(|&i| all[i]).collect(),
    }
}

/// Whether a lattice reply matches the CS1 table row for row.
fn report_matches(resp: &Response) -> bool {
    let Response::Lattice { report, .. } = resp else {
        return false;
    };
    report.rows.len() == CS1.len()
        && report
            .rows
            .iter()
            .zip(CS1.iter())
            .all(|(r, &(name, fields, checked, shared))| {
                r.name == name && r.fields == fields && r.checked == checked && r.shared == shared
            })
}

/// Per-op timing split: engine boot and shutdown (the benchmark's own
/// spans around them) versus the build request.
struct OpTimes {
    lifecycle: Duration,
    build: Duration,
}

/// One op; `between` runs after the build and before shutdown, untimed.
fn one_op(
    req: &Request,
    mut between: impl FnMut(&Engine, &Result<Response, engine::EngineError>) -> bool,
) -> Result<(bool, OpTimes), String> {
    let t0 = Instant::now();
    let engine = Engine::start(engine_config());
    let t1 = Instant::now();
    let result = engine.run(req.clone());
    let t2 = Instant::now();
    let ok = between(&engine, &result);
    let t3 = Instant::now();
    engine
        .shutdown()
        .map_err(|e| format!("engine shutdown: {e}"))?;
    let t4 = Instant::now();
    Ok((
        ok,
        OpTimes {
            lifecycle: (t1 - t0) + (t4 - t3),
            build: t2 - t1,
        },
    ))
}

fn verify(engine: &Engine, result: &Result<Response, engine::EngineError>) -> Option<Counters> {
    let resp = result.as_ref().ok()?;
    let expo = exposition(engine).ok()?;
    let cold = Counters::read(&expo);
    (report_matches(resp)
        && cold.misses == LATTICE_MISSES as f64
        && cold.inserts == LATTICE_INSERTS as f64)
        .then_some(cold)
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let n = cfg.ops(NOMINAL_OPS_PER_S);
    let orders = crate::ops::lattice_feature_orders(cfg.seed, n + SETUP_REPS);

    // Set-up: the process's warm pass. Each repetition is a whole op (boot,
    // build, shutdown); the first also fills the process-wide interner.
    let mut setup_orders = orders[n..].iter();
    let mut setups = Setups::new(
        cfg,
        SETUP_REPS,
        || {
            let order = setup_orders.next().ok_or("set-up orders run out")?;
            let mut cold = None;
            let (ok, _) = one_op(&request(order), |e, r| {
                cold = verify(e, r);
                cold.is_some()
            })?;
            Ok((cold, ok))
        },
        |_| Ok(()),
    );
    let last_setup = setups.first()?;

    let tracer = cfg.trace.then(|| Tracer::new(RING_SLOTS));
    let mut timer = Timer::new(n, tracer);
    let rss_after_setup = crate::host::rss_kib();
    let mut attempted = 0;
    // Global counters (VM, incremental memo) accumulate across engines:
    // per-op deltas come from consecutive engines' expositions (a traced
    // run has no set-up rounds between them).
    let mut prev = last_setup.unwrap_or_default();
    let mut sums = Counters::default();
    let mut lifecycle_traced = Duration::ZERO;
    let mut latency_traced = Duration::ZERO;
    'run: for seg in timer.segments() {
        if seg.start > 0 {
            setups.round(cfg)?;
            timer.resume();
        }
        for order in &orders[seg] {
            if timer.elapsed() > cfg.cap() {
                break 'run;
            }
            attempted += 1;
            let traced = timer.traced();
            let mut cold = None;
            let (ok, times) = one_op(&request(order), |e, r| {
                timer.collect();
                cold = verify(e, r);
                timer.discard();
                cold.is_some()
            })?;
            if let Some(c) = cold {
                // Each engine's histograms hold the build and the verifying
                // `Metrics` read, whose wait is recorded before the exposition
                // is rendered and whose service time after.
                sums.wait_sum_us += workload_mean(c.wait_sum_us, c.wait_count, 1.0);
                sums.service_sum_us += workload_mean(c.service_sum_us, c.service_count, 0.0);
                sums.busy_us += c.busy_us;
                sums.misses += c.misses;
                sums.hits += c.hits;
                sums.proofs = c.proofs;
                sums.dedup += c.dedup;
                sums.submitted += c.submitted;
                sums.vm_exec += c.vm_exec - prev.vm_exec;
                sums.dirty += c.dirty - prev.dirty;
                sums.cutoff += c.cutoff - prev.cutoff;
                sums.replay += c.replay - prev.replay;
                prev = c;
            }
            if traced {
                lifecycle_traced += times.lifecycle;
                latency_traced += times.lifecycle + times.build;
            }
            timer.complete(ok, times.lifecycle + times.build);
        }
    }
    timer.finish();
    if !setups.ok {
        timer.failed += 1;
    }
    let mut out = Outcome::from_timer(&mut timer, setups.secs, attempted);
    if let Some(tracer) = &timer.tracer {
        let ops = attempted.max(1) as f64;
        let (traced_ops, _) = timer.ops_secs(true);
        let spans = SpanLayers::from_totals(tracer.totals(), traced_ops);
        // Replay: the engine plans the whole lattice on a fresh universe.
        let defs = families_stlc::subset_defs(&Feature::all());
        let plan_ms = median_time(9, || {
            let u = FamilyUniverse::with_session(Session::new());
            std::hint::black_box(u.plan(defs.iter()).expect("lattice plans"));
        }) * 1e3;
        let lifecycle_ms = lifecycle_traced.as_secs_f64() * 1e3 / traced_ops.max(1) as f64;
        let op_ms = latency_traced.as_secs_f64() * 1e3 / traced_ops.max(1) as f64;
        let wait_ms = sums.wait_sum_us / ops / 1e3;
        out.shared_layers(LayerInputs {
            spans: &spans,
            counters: &sums,
            ops,
            engines: 1.0,
            rss_growth_kib: crate::host::rss_kib() - rss_after_setup,
            wait_us: sums.wait_sum_us / ops,
            service_us: sums.service_sum_us / ops,
        });
        let l = &mut out.layers;
        l.insert("fpop.plan.ms_per_op", plan_ms);
        l.insert(
            "engine.execute.self_ms_per_op",
            spans.execute_self_ms - plan_ms,
        );
        l.insert("engine.lifecycle.ms_per_op", lifecycle_ms);
        // The op: boot + build + shutdown. Covered: the worker's whole
        // `engine.execute` span, the queue wait before it, and the
        // benchmark's own boot/shutdown spans.
        let covered = spans.execute_total_ms + wait_ms + lifecycle_ms;
        l.insert("unattributed_pct", 100.0 * (op_ms - covered) / op_ms);
        out.notes
            .push(tracer.note(&format!("traced_ops={traced_ops} op_ms={op_ms:.3}")));
    }
    Ok(out)
}
