//! `edit_recheck`: a warm engine holding the full lattice serves
//! `Redefine` of one variant per op — the served one-field recheck. The
//! time goes to the engine's request path (replanning every merge,
//! absorbing the rebuilt universe) more than to the kernel.

use std::time::{Duration, Instant};

use engine::{Engine, Request, Response};
use families_stlc::Feature;
use fpop::{FamilyUniverse, Session};

use crate::common::{
    engine_config, exposition, median_time, workload_mean, Cfg, Counters, LayerInputs, Outcome,
    Setups, SpanLayers, Timer, Tracer,
};
use crate::reference::{recheck_split, variant_name, CS1};

/// Redefines per second on the reference host: sizes a run to about
/// `--seconds`.
const NOMINAL_OPS_PER_S: f64 = 35.0;

/// Set-ups per untraced run: each boots an engine and builds the
/// lattice, about 0.13 s.
const SETUP_REPS: usize = 32;

/// A redefine emits about 350 spans; the ring holds one op.
const RING_SLOTS: usize = 2048;

/// Whether a recheck reply covers the lattice row for row.
fn rows_match(resp: &Response) -> bool {
    let Response::Lattice { report, .. } = resp else {
        return false;
    };
    report.rows.len() == CS1.len()
        && report
            .rows
            .iter()
            .zip(CS1.iter())
            .all(|(r, &(name, fields, _, _))| r.name == name && r.fields == fields)
}

fn features(seed: u64) -> Vec<Feature> {
    let mut f = Feature::all().to_vec();
    crate::rng::Rng::fork(seed, 6).shuffle(&mut f);
    f
}

fn redefine(mask: u8, field: &str, features: &[Feature]) -> Request {
    Request::Redefine {
        family: variant_name(mask),
        field: field.to_string(),
        features: features.to_vec(),
    }
}

/// Boots an engine, builds the lattice cold, and runs one warm-up
/// recheck; returns the engine if every reply was right.
fn set_up(features: &[Feature]) -> Result<(Engine, bool), String> {
    let engine = Engine::start(engine_config());
    let built = engine.run(Request::BuildLattice {
        features: features.to_vec(),
    });
    let mut ok =
        matches!(&built, Ok(Response::Lattice { report, .. }) if report.rows.len() == CS1.len());
    let warm = engine.run(redefine(0b1111, "typesafe", features));
    ok &= warm.as_ref().is_ok_and(rows_match);
    Ok((engine, ok))
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let n = cfg.ops(NOMINAL_OPS_PER_S);
    let ops = crate::ops::recheck_ops(cfg.seed, n);
    let features = features(cfg.seed);

    let mut setups = Setups::new(
        cfg,
        SETUP_REPS,
        || set_up(&features),
        |old: Engine| {
            old.shutdown()
                .map(drop)
                .map_err(|e| format!("engine shutdown: {e}"))
        },
    );
    let engine = setups.first()?;

    let first = Counters::read(&exposition(&engine)?);
    let mut prev = first;
    let tracer = cfg.trace.then(|| Tracer::new(RING_SLOTS));
    let mut timer = Timer::new(n, tracer);
    let rss_after_setup = crate::host::rss_kib();
    let mut attempted = 0;
    let mut latency_traced = Duration::ZERO;
    'run: for seg in timer.segments() {
        if seg.start > 0 {
            setups.round(cfg)?;
            timer.resume();
            // The round's engines moved the process-wide counters.
            prev = Counters::read(&exposition(&engine)?);
        }
        for &(mask, field) in &ops[seg] {
            if timer.elapsed() > cfg.cap() {
                break 'run;
            }
            attempted += 1;
            let traced = timer.traced();
            let t = Instant::now();
            let result = engine.run(redefine(mask, field, &features));
            let latency = t.elapsed();
            timer.collect();
            let now = Counters::read(&exposition(&engine)?);
            timer.discard();
            let d = now.since(&prev);
            prev = now;
            let ok = result.as_ref().is_ok_and(rows_match)
                && (d.dirty as u64, d.cutoff as u64, d.replay as u64) == recheck_split(mask);
            if traced {
                latency_traced += latency;
            }
            timer.complete(ok, latency);
        }
    }
    timer.finish();
    if !setups.ok {
        timer.failed += 1;
    }
    let last = Counters::read(&exposition(&engine)?);
    engine
        .shutdown()
        .map_err(|e| format!("engine shutdown: {e}"))?;

    let mut out = Outcome::from_timer(&mut timer, setups.secs, attempted);
    if let Some(tracer) = &timer.tracer {
        let ops = attempted.max(1) as f64;
        let d = last.since(&first);
        let (traced_ops, _) = timer.ops_secs(true);
        let spans = SpanLayers::from_totals(tracer.totals(), traced_ops);
        // Replay: the engine replans the lattice against an empty
        // universe on every redefine.
        let defs = families_stlc::subset_defs(&features);
        let u = FamilyUniverse::with_session(Session::new());
        let plan_ms = median_time(9, || {
            std::hint::black_box(u.replan_after_edit(defs.iter()).expect("lattice replans"));
        }) * 1e3;
        let op_ms = latency_traced.as_secs_f64() * 1e3 / traced_ops.max(1) as f64;
        // Besides the redefines, the delta holds the `Metrics` read after
        // each op and one of the two bounding reads.
        let own = ops + 1.0;
        let wait_us = workload_mean(d.wait_sum_us, d.wait_count, own);
        out.shared_layers(LayerInputs {
            spans: &spans,
            counters: &d,
            ops,
            engines: 1.0,
            rss_growth_kib: crate::host::rss_kib() - rss_after_setup,
            wait_us,
            service_us: workload_mean(d.service_sum_us, d.service_count, own),
        });
        let l = &mut out.layers;
        l.insert("fpop.plan.ms_per_op", plan_ms);
        l.insert(
            "engine.execute.self_ms_per_op",
            spans.execute_self_ms - plan_ms,
        );
        // The op: one `Redefine` round trip. Covered: the worker's whole
        // `engine.execute` span and the queue wait before it.
        let covered = spans.execute_total_ms + wait_us / 1e3;
        l.insert("unattributed_pct", 100.0 * (op_ms - covered) / op_ms);
        out.notes
            .push(tracer.note(&format!("traced_ops={traced_ops} op_ms={op_ms:.3}")));
    }
    Ok(out)
}
