//! The fpopd benchmark: three closed-loop workloads driven through the
//! engine's Request API, each op's verdict checked against a known
//! answer.
//!
//! ```text
//! fpop-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last line of standard output is one JSON object. The
//! rationale (workload choice, pinned configuration, seed use, which
//! layer metric should move which end-to-end metric) is in
//! `benchmark/README.md`.

mod attrib;
mod common;
mod edit_recheck;
mod expo;
mod fleet_hop;
mod host;
mod lattice_cold;
mod ops;
mod reference;
mod rng;
mod serve;
mod serve_wire;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use common::{Cfg, Outcome};

const USAGE: &str =
    "usage: fpop-benchmark --workload lattice_cold|edit_recheck|serve_wire --seed N --seconds S --trace 0|1";

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not exercise reads 0 there.
const PER_LAYER: [(&str, &str); 26] = [
    ("objlang.prove.ms_per_op", "ms"),
    ("objlang.vm.exec_per_op", "count"),
    ("fpop.parse.us_per_check", "us"),
    ("fpop.plan.ms_per_op", "ms"),
    ("fpop.sched.node_ms_per_op", "ms"),
    ("fpop.field.ms_per_op", "ms"),
    ("fpop.session.misses_per_op", "count"),
    ("fpop.session.hit_ratio", "ratio"),
    ("fpop.session.proofs_end", "count"),
    ("fpop.incr.dirty_per_op", "count"),
    ("fpop.incr.cutoff_per_op", "count"),
    ("fpop.incr.replay_per_op", "count"),
    ("engine.queue.wait_us_mean", "us"),
    ("engine.execute.us_mean", "us"),
    ("engine.execute.self_ms_per_op", "ms"),
    ("engine.worker.busy_pct", "%"),
    ("engine.dedup.share", "ratio"),
    ("engine.conn.frames_per_flush", "ratio"),
    ("engine.conn.us_per_request", "us"),
    ("engine.fpopb.us_per_frame", "us"),
    ("engine.fleet.hop_us_per_frame", "us"),
    ("engine.lifecycle.ms_per_op", "ms"),
    ("bench.client.us_per_op", "us"),
    ("process.rss_growth_kb_per_op", "KiB"),
    ("trace.overhead_pct", "%"),
    ("unattributed_pct", "%"),
];

struct Args {
    workload: String,
    cfg: Cfg,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s}: want 0 < S <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: want 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: Cfg {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    })
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--host-probe") {
        let (alu, mem) = host::probe_loops();
        println!("{alu} {mem}");
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fpop-benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let before = host::HostSample::take();
    let result = match args.workload.as_str() {
        "lattice_cold" => lattice_cold::run(&args.cfg),
        "edit_recheck" => edit_recheck::run(&args.cfg),
        "serve_wire" => serve_wire::run(&args.cfg),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fpop-benchmark: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let peak_rss = host::peak_rss_mib();
    let after = host::HostSample::take();
    print_report(&args, &outcome, peak_rss);
    println!("{}", host::report(before, after));
    println!("{}", result_json(&args, &outcome, peak_rss));
}

fn end_to_end(o: &Outcome, peak_rss_mib: f64) -> BTreeMap<&'static str, f64> {
    let mut lat: Vec<f64> = o.latencies_ms.iter().map(|&x| f64::from(x)).collect();
    lat.sort_by(f64::total_cmp);
    let mut m = BTreeMap::new();
    m.insert("setup_s", stats::median(&o.setup_s));
    m.insert("ops_per_s", o.sustained_ops_per_s());
    m.insert("latency_p50_ms", o.sustained_p50_ms());
    m.insert("latency_p90_ms", stats::percentile(&lat, 90.0));
    m.insert("peak_rss_mb", peak_rss_mib);
    m
}

fn print_report(args: &Args, o: &Outcome, peak_rss: f64) {
    let n = o.latencies_ms.len();
    println!(
        "workload={} seed={} seconds={} trace={} attempted={} failed={}",
        args.workload,
        args.cfg.seed,
        args.cfg.seconds,
        u8::from(args.cfg.trace),
        o.attempted,
        o.failed
    );
    let mut setup_ms: Vec<f64> = o.setup_s.iter().map(|s| (s * 1e4).round() / 10.0).collect();
    setup_ms.sort_by(f64::total_cmp);
    println!("setup_ms (sorted): {setup_ms:?}");
    println!(
        "samples: latency={n} above_p90={} blocks={} (of {}) setup_reps={} block_secs={:?}",
        if n > 0 {
            stats::samples_above(n, 90.0)
        } else {
            0
        },
        o.blocks.len(),
        common::block_count(o.attempted),
        o.setup_s.len(),
        o.blocks
            .iter()
            .map(|b| (b.secs * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    if !args.cfg.trace && n > 0 {
        for (name, unit) in END_TO_END {
            println!(
                "  {name:<16} {:>14.4} {unit}",
                end_to_end(o, peak_rss)[name]
            );
        }
        let mut lat: Vec<f64> = o.latencies_ms.iter().map(|&x| f64::from(x)).collect();
        lat.sort_by(f64::total_cmp);
        println!(
            "  whole timed phase: {:.4} ops/s, p50 {:.4} ms",
            o.mean_ops_per_s(),
            stats::percentile(&lat, 50.0)
        );
    }
    for note in &o.notes {
        println!("{note}");
    }
}

fn result_json(args: &Args, o: &Outcome, peak_rss: f64) -> String {
    let values: Vec<(&str, &str, f64)> = if args.cfg.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "trace.overhead_pct" => o.trace_overhead_pct(),
                    _ => o.layers.get(name).copied().unwrap_or(0.0),
                };
                (name, unit, v)
            })
            .collect()
    } else {
        let m = end_to_end(o, peak_rss);
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, m[name]))
            .collect()
    };
    let mut metrics = String::new();
    for (i, (name, unit, v)) in values.iter().enumerate() {
        // JSON has no NaN or infinity; a layer that could not be measured
        // reads 0.
        let v = if v.is_finite() { *v } else { 0.0 };
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = o.failed == 0 && o.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.attempted.max(1),
        o.failed
    )
}
