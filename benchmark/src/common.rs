//! What every workload shares: the run configuration, the timed phase's
//! blocks and latency samples, the traced-run collector, and the pinned
//! engine configuration.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use engine::{Engine, EngineConfig, Request, Response};

use crate::attrib::{Folder, NameTotals, Span};
use crate::expo::Expo;

/// Command-line settings of one run.
#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Cfg {
    /// Ops for a run: `nominal` ops per second times `--seconds`, and at
    /// least `MIN_OPS`. The count never depends on measured speed, so a
    /// faster program does the same work in less time.
    pub fn ops(&self, nominal: f64) -> usize {
        ((self.seconds * nominal).ceil() as usize).max(MIN_OPS)
    }

    /// Wall-clock cap on the timed phase: ops not sent by then are not
    /// attempted, which keeps a badly regressed program inside a
    /// three-minute run.
    pub fn cap(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 5.0).clamp(30.0, 100.0))
    }
}

/// At least this many latency samples per run: nearest-rank p90 then has
/// at least ten samples above it.
pub const MIN_OPS: usize = 110;

/// The timed phase is cut into this many segments of whole blocks. A
/// round of set-ups runs before each one, outside every block, so the
/// set-up samples span the run and meet the same phases of host speed as
/// the ops do.
pub const SEGMENTS: usize = 8;

/// The timed phase is cut into equal blocks of about ten ops, at least 8
/// and at most 64 of them (a multiple of [`SEGMENTS`], so even). A traced
/// run alternates untraced and traced blocks, so both halves see the same
/// host conditions; the printed block times show how the host's speed
/// moved during a run.
pub fn block_count(n: usize) -> usize {
    (n / 10).clamp(8, 64) / SEGMENTS * SEGMENTS
}

/// A workload's set-up, timed on every repetition: `reps / SEGMENTS` in
/// each round of an untraced run, and `setup_s` is their median. One
/// set-up takes 15 ms to 0.15 s, while the host's speed moves in phases
/// lasting seconds, so the rounds spread the samples over the whole run.
/// A traced run, which reports no `setup_s`, sets up once. The first
/// round's last host runs the workload; every other host is torn down,
/// untimed, right after its set-up.
pub struct Setups<S, D> {
    set_up: S,
    tear_down: D,
    per_round: usize,
    /// Each set-up's wall time, seconds.
    pub secs: Vec<f64>,
    /// Whether every set-up's replies were right.
    pub ok: bool,
}

impl<T, S, D> Setups<S, D>
where
    S: FnMut() -> Result<(T, bool), String>,
    D: FnMut(T) -> Result<(), String>,
{
    pub fn new(cfg: &Cfg, reps: usize, set_up: S, tear_down: D) -> Self {
        Setups {
            set_up,
            tear_down,
            per_round: if cfg.trace { 1 } else { reps / SEGMENTS },
            secs: Vec::with_capacity(reps),
            ok: true,
        }
    }

    fn timed(&mut self) -> Result<T, String> {
        let t = Instant::now();
        let (host, ok) = (self.set_up)()?;
        self.secs.push(t.elapsed().as_secs_f64());
        self.ok &= ok;
        Ok(host)
    }

    /// The round before the timed phase; returns the host that runs it.
    pub fn first(&mut self) -> Result<T, String> {
        for _ in 1..self.per_round {
            let host = self.timed()?;
            (self.tear_down)(host)?;
        }
        self.timed()
    }

    /// The round before a later segment (none in a traced run).
    pub fn round(&mut self, cfg: &Cfg) -> Result<(), String> {
        if cfg.trace {
            return Ok(());
        }
        for _ in 0..self.per_round {
            let host = self.timed()?;
            (self.tear_down)(host)?;
        }
        Ok(())
    }
}

/// Every engine the benchmark starts: one queue worker and one scheduler
/// thread, whatever the host's core count, so results do not change with
/// the machine's parallelism.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        sched_workers: 1,
        snapshot_path: None,
        ..EngineConfig::default()
    }
}

/// Reads one engine's exposition through the Request API.
pub fn exposition(engine: &Engine) -> Result<Expo, String> {
    match engine.run(Request::Metrics) {
        Ok(Response::Metrics { text }) => Ok(Expo::parse(&text)),
        other => Err(format!("metrics request: {other:?}")),
    }
}

/// One block of the timed phase.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    pub ops: usize,
    pub correct: usize,
    pub secs: f64,
    pub traced: bool,
}

impl Block {
    pub fn rate(&self) -> f64 {
        self.correct as f64 / self.secs
    }
}

/// The span collector of a traced run. It is sized for one op and drained
/// after every op; the ring overwrites silently, so a marker span opened
/// right after each drain must come back in the next one, or the drain
/// counts as lost.
pub struct Tracer {
    folder: Folder,
    pub drains: u64,
    pub lost: u64,
}

impl Tracer {
    pub fn new(ring_slots: usize) -> Tracer {
        trace::install(ring_slots);
        trace::set_active(false);
        Tracer {
            folder: Folder::default(),
            drains: 0,
            lost: 0,
        }
    }

    fn mark() {
        let _m = trace::span!("bench.mark");
    }

    fn activate(&mut self) {
        trace::drain();
        trace::set_active(true);
        Tracer::mark();
    }

    fn deactivate(&mut self) {
        self.collect();
        trace::set_active(false);
        self.folder.flush();
    }

    /// Drains the ring into the per-name totals.
    pub fn collect(&mut self) {
        let recs = trace::drain();
        self.drains += 1;
        if !recs.iter().any(|r| r.name == "bench.mark") {
            self.lost += 1;
        }
        self.folder.add_batch(
            recs.iter()
                .filter(|r| r.name != "bench.mark")
                .map(Span::from),
        );
        Tracer::mark();
    }

    /// Drains and drops what the ring holds (spans of the benchmark's own
    /// bookkeeping requests).
    pub fn discard(&mut self) {
        trace::drain();
        Tracer::mark();
    }

    pub fn totals(&self) -> &BTreeMap<&'static str, NameTotals> {
        &self.folder.totals
    }

    /// The collector-health line of a traced run, with the workload's own
    /// `extra` fields.
    pub fn note(&self, extra: &str) -> String {
        format!("trace: drains={} lost={} {extra}", self.drains, self.lost)
    }
}

/// An empty vector with room for `n` values whose pages are already
/// resident, so filling it during the timed phase does not count as the
/// program's memory growth.
fn touched_vec(n: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; n];
    v.iter_mut().for_each(|x| *x = std::hint::black_box(1.0));
    v.clear();
    v
}

/// The timed phase: fixed ops cut into [`block_count`] blocks and
/// [`SEGMENTS`] segments, per-op latency samples from untraced blocks,
/// and (traced runs) tracing switched on for every odd block.
pub struct Timer {
    n: usize,
    blocks_planned: usize,
    done: usize,
    /// Between two segments: no block is open until [`Timer::resume`].
    paused: bool,
    block_start: Instant,
    block_ops: usize,
    block_correct: usize,
    pub blocks: Vec<Block>,
    /// Per-op latency of untraced blocks, ms; `f32` keeps the
    /// benchmark's own share of the resident set small.
    pub latencies_ms: Vec<f32>,
    /// Latency summed over every op, traced blocks included.
    pub latency_sum: Duration,
    /// Time the client thread spent on its own work (encode and send,
    /// decode and check, collector drains) during traced blocks.
    pub client_traced: Duration,
    pub tracer: Option<Tracer>,
    pub failed: usize,
    started: Instant,
}

impl Timer {
    pub fn new(n: usize, tracer: Option<Tracer>) -> Timer {
        let now = Instant::now();
        let mut t = Timer {
            n,
            blocks_planned: block_count(n),
            done: 0,
            paused: false,
            block_start: now,
            block_ops: 0,
            block_correct: 0,
            blocks: Vec::with_capacity(block_count(n)),
            latencies_ms: touched_vec(n),
            latency_sum: Duration::ZERO,
            client_traced: Duration::ZERO,
            tracer,
            failed: 0,
            started: now,
        };
        t.enter_block();
        t
    }

    fn block_index(&self) -> usize {
        self.done * self.blocks_planned / self.n
    }

    /// The first op of segment `s`. Each segment starts where a block
    /// does: op `i` is in block `i * blocks / n`, so block `k` starts at
    /// op `ceil(k * n / blocks)`, and segment `s` at block `s * blocks /
    /// SEGMENTS`.
    fn segment_start(&self, s: usize) -> usize {
        (s * self.n).div_ceil(SEGMENTS)
    }

    /// The op ranges of the segments.
    pub fn segments(&self) -> Vec<std::ops::Range<usize>> {
        (0..SEGMENTS)
            .map(|s| self.segment_start(s)..self.segment_start(s + 1))
            .collect()
    }

    /// Opens the next segment's first block after a set-up round.
    pub fn resume(&mut self) {
        if self.paused {
            self.paused = false;
            self.block_start = Instant::now();
            self.enter_block();
        }
    }

    /// Whether the op completing next belongs to a traced block.
    pub fn traced(&self) -> bool {
        self.tracer.is_some() && self.block_index() % 2 == 1
    }

    fn enter_block(&mut self) {
        let traced = self.traced();
        if let Some(t) = self.tracer.as_mut() {
            if traced {
                t.activate();
            }
        }
    }

    /// Records one completed op.
    pub fn complete(&mut self, correct: bool, latency: Duration) {
        let traced = self.traced();
        if !correct {
            self.failed += 1;
        }
        if !traced {
            self.latencies_ms.push((latency.as_secs_f64() * 1e3) as f32);
        }
        self.latency_sum += latency;
        if traced {
            if let Some(t) = self.tracer.as_mut() {
                t.collect();
            }
        }
        self.block_ops += 1;
        self.block_correct += usize::from(correct);
        let before = self.block_index();
        self.done += 1;
        if self.done == self.n || self.block_index() != before {
            self.close_block(traced);
            if (1..SEGMENTS).any(|s| self.segment_start(s) == self.done) {
                self.paused = true;
            } else if self.done < self.n {
                self.enter_block();
            }
        }
    }

    fn close_block(&mut self, traced: bool) {
        let now = Instant::now();
        if traced {
            if let Some(t) = self.tracer.as_mut() {
                t.deactivate();
            }
        }
        self.blocks.push(Block {
            ops: self.block_ops,
            correct: self.block_correct,
            secs: (now - self.block_start).as_secs_f64(),
            traced,
        });
        self.block_start = now;
        self.block_ops = 0;
        self.block_correct = 0;
    }

    /// Ends the phase early (cap reached): the partial block is kept.
    pub fn finish(&mut self) {
        if self.block_ops > 0 {
            let traced = self.traced();
            self.close_block(traced);
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    pub fn completed(&self) -> usize {
        self.done
    }

    /// Mean latency over every completed op, µs.
    pub fn mean_latency_us(&self) -> f64 {
        self.latency_sum.as_secs_f64() * 1e6 / self.done.max(1) as f64
    }

    /// Drains the ring if the current block is traced.
    pub fn collect(&mut self) {
        if self.traced() {
            if let Some(t) = self.tracer.as_mut() {
                t.collect();
            }
        }
    }

    /// Drops the ring's contents if the current block is traced.
    pub fn discard(&mut self) {
        if self.traced() {
            if let Some(t) = self.tracer.as_mut() {
                t.discard();
            }
        }
    }

    /// Ops and wall seconds of the traced (or untraced) blocks.
    pub fn ops_secs(&self, traced: bool) -> (usize, f64) {
        self.blocks
            .iter()
            .filter(|b| b.traced == traced)
            .fold((0, 0.0), |(o, s), b| (o + b.ops, s + b.secs))
    }
}

/// `ops_per_s` and `latency_p50_ms` are read at the worse tenth of the
/// run's blocks, as `latency_p90_ms` is at the worse tenth of its ops.
/// The host alternates between a fast and a slow state, each lasting a
/// minute or more, so a run of half a minute rarely holds both, and a
/// mean or median over it reads whichever state the run met; nearly
/// every run spends a tenth of its time in the slow state.
pub const SUSTAINED_PCT: f64 = 10.0;

/// Everything a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub latencies_ms: Vec<f32>,
    pub blocks: Vec<Block>,
    pub attempted: usize,
    pub failed: usize,
    /// Per-layer metrics (traced runs), by the names in `BENCHMARK.json`.
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra diagnostic lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn from_timer(timer: &mut Timer, setup_s: Vec<f64>, attempted: usize) -> Outcome {
        Outcome {
            setup_s,
            latencies_ms: std::mem::take(&mut timer.latencies_ms),
            blocks: timer.blocks.clone(),
            attempted,
            failed: timer.failed + (attempted - timer.completed()),
            ..Outcome::default()
        }
    }

    /// Ops with a correct verdict per second over the whole timed phase
    /// (printed beside the metrics).
    pub fn mean_ops_per_s(&self) -> f64 {
        let correct: usize = self.blocks.iter().map(|b| b.correct).sum();
        let secs: f64 = self.blocks.iter().map(|b| b.secs).sum();
        correct as f64 / secs
    }

    /// `ops_per_s`: the rate of correct ops that nine in ten untraced
    /// blocks meet or beat (nearest-rank 10th percentile of block rates).
    pub fn sustained_ops_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .blocks
            .iter()
            .filter(|b| !b.traced)
            .map(Block::rate)
            .collect();
        rates.sort_by(f64::total_cmp);
        crate::stats::percentile(&rates, SUSTAINED_PCT)
    }

    /// `latency_p50_ms`: the median latency that nine in ten untraced
    /// blocks meet or beat (nearest-rank 90th percentile of the blocks'
    /// nearest-rank medians), ms.
    pub fn sustained_p50_ms(&self) -> f64 {
        let mut medians = crate::stats::block_medians(
            &self.latencies_ms,
            self.blocks.iter().filter(|b| !b.traced).map(|b| b.ops),
        );
        medians.sort_by(f64::total_cmp);
        crate::stats::percentile(&medians, 100.0 - SUSTAINED_PCT)
    }

    /// Trace overhead: untraced vs traced median block rate, percent.
    pub fn trace_overhead_pct(&self) -> f64 {
        let rate = |traced: bool| {
            let r: Vec<f64> = self
                .blocks
                .iter()
                .filter(|b| b.traced == traced)
                .map(Block::rate)
                .collect();
            if r.is_empty() {
                f64::NAN
            } else {
                crate::stats::median(&r)
            }
        };
        (rate(false) / rate(true) - 1.0) * 100.0
    }
}

/// What every workload's per-layer report takes from spans and counters.
pub struct LayerInputs<'a> {
    pub spans: &'a SpanLayers,
    /// Counter deltas over the timed phase (gauges: their final value).
    pub counters: &'a Counters,
    pub ops: f64,
    /// Engines whose worker time `counters.busy_us` sums.
    pub engines: f64,
    pub rss_growth_kib: f64,
    /// Mean queue wait and mean service time of the workload's own
    /// requests, µs (see [`workload_mean`]).
    pub wait_us: f64,
    pub service_us: f64,
}

impl Outcome {
    /// Inserts the layer metrics every workload derives the same way.
    pub fn shared_layers(&mut self, x: LayerInputs) {
        let (s, d, ops) = (x.spans, x.counters, x.ops);
        let wall: f64 = self.blocks.iter().map(|b| b.secs).sum();
        let l = &mut self.layers;
        l.insert("objlang.prove.ms_per_op", s.prove_ms);
        l.insert("objlang.vm.exec_per_op", d.vm_exec / ops);
        l.insert("fpop.sched.node_ms_per_op", s.sched_ms);
        l.insert("fpop.field.ms_per_op", s.field_ms);
        l.insert("fpop.session.misses_per_op", d.misses / ops);
        l.insert("fpop.session.hit_ratio", ratio(d.hits, d.hits + d.misses));
        l.insert("fpop.session.proofs_end", d.proofs);
        l.insert("fpop.incr.dirty_per_op", d.dirty / ops);
        l.insert("fpop.incr.cutoff_per_op", d.cutoff / ops);
        l.insert("fpop.incr.replay_per_op", d.replay / ops);
        l.insert("engine.queue.wait_us_mean", x.wait_us);
        l.insert("engine.execute.us_mean", x.service_us);
        l.insert(
            "engine.worker.busy_pct",
            100.0 * d.busy_us / 1e6 / wall / x.engines,
        );
        l.insert("engine.dedup.share", ratio(d.dedup, d.submitted));
        l.insert("process.rss_growth_kb_per_op", x.rss_growth_kib / ops);
    }
}

/// Span-derived layer times, ms per op over the traced blocks.
pub struct SpanLayers {
    pub prove_ms: f64,
    pub field_ms: f64,
    pub sched_ms: f64,
    /// `engine.execute` self time (not yet net of replayed layers).
    pub execute_self_ms: f64,
    /// `engine.execute` total time (everything the worker did).
    pub execute_total_ms: f64,
}

impl SpanLayers {
    pub fn from_totals(totals: &BTreeMap<&'static str, NameTotals>, ops: usize) -> SpanLayers {
        let per_op = |names: &[&str], f: fn(&NameTotals) -> u64| {
            let ns: u64 = names.iter().filter_map(|n| totals.get(n)).map(f).sum();
            ns as f64 / 1e6 / ops.max(1) as f64
        };
        SpanLayers {
            prove_ms: per_op(&["objlang.prove", "objlang.prove_sequent"], |t| t.self_ns),
            field_ms: per_op(&["fpop.field", "fpop.elaborate"], |t| t.self_ns),
            sched_ms: per_op(&["fpop.sched.node"], |t| t.self_ns),
            execute_self_ms: per_op(&["engine.execute"], |t| t.self_ns),
            execute_total_ms: per_op(&["engine.execute"], |t| t.total_ns),
        }
    }
}

/// Median wall time of `reps` calls of `f`, seconds.
pub fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Mean of a histogram over the workload's own requests, when `count`
/// also holds `own` of the benchmark's `Metrics` reads. A read records
/// its queue wait before it renders the exposition and its service time
/// after, so the delta between two reads holds one of the two bounding
/// reads in each histogram, plus every read made in between. Their time
/// stays in `sum`, a negligible share unless the workload queued nothing,
/// in which case the mean is 0.
pub fn workload_mean(sum: f64, count: f64, own: f64) -> f64 {
    if count > own {
        sum / (count - own)
    } else {
        0.0
    }
}

/// The program counters the benchmark reads, by exposition name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub misses: f64,
    pub inserts: f64,
    pub hits: f64,
    pub proofs: f64,
    pub wait_sum_us: f64,
    pub wait_count: f64,
    pub service_sum_us: f64,
    pub service_count: f64,
    pub busy_us: f64,
    pub vm_exec: f64,
    pub dirty: f64,
    pub cutoff: f64,
    pub replay: f64,
    pub dedup: f64,
    pub submitted: f64,
    pub conn_frames: f64,
    pub conn_flushes: f64,
}

impl Counters {
    pub fn read(e: &Expo) -> Counters {
        Counters {
            misses: e.get("fpop_session_cache_misses_total"),
            inserts: e.get("fpop_session_cache_inserts_total"),
            hits: e.get("fpop_session_cache_hits_total"),
            proofs: e.get("fpop_session_cached_proofs"),
            wait_sum_us: e.get("engine_wait_micros_sum"),
            wait_count: e.get("engine_wait_micros_count"),
            service_sum_us: e.get("engine_service_micros_sum"),
            service_count: e.get("engine_service_micros_count"),
            busy_us: e.get("engine_worker_busy_micros_total"),
            vm_exec: e.get("objlang_vm_exec_total"),
            dirty: e.get("fpop_incr_dirty_total"),
            cutoff: e.get("fpop_incr_cutoff_total"),
            replay: e.get("fpop_incr_replay_total"),
            dedup: e.get("engine_dedup_hits_total"),
            submitted: e.get("engine_submitted_total"),
            conn_frames: e.get("engine_conn_binary_frames_total"),
            conn_flushes: e.get("engine_conn_write_flushes_total"),
        }
    }

    /// `self - before`, field by field (gauges keep `self`'s value).
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            misses: self.misses - before.misses,
            inserts: self.inserts - before.inserts,
            hits: self.hits - before.hits,
            proofs: self.proofs,
            wait_sum_us: self.wait_sum_us - before.wait_sum_us,
            wait_count: self.wait_count - before.wait_count,
            service_sum_us: self.service_sum_us - before.service_sum_us,
            service_count: self.service_count - before.service_count,
            busy_us: self.busy_us - before.busy_us,
            vm_exec: self.vm_exec - before.vm_exec,
            dirty: self.dirty - before.dirty,
            cutoff: self.cutoff - before.cutoff,
            replay: self.replay - before.replay,
            dedup: self.dedup - before.dedup,
            submitted: self.submitted - before.submitted,
            conn_frames: self.conn_frames - before.conn_frames,
            conn_flushes: self.conn_flushes - before.conn_flushes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_start_on_block_boundaries() {
        for n in [110, 111, 300, 1050, 180_000] {
            let t = Timer::new(n, None);
            let segs = t.segments();
            let blocks = block_count(n);
            assert_eq!(segs.len(), SEGMENTS);
            assert_eq!(blocks % SEGMENTS, 0);
            assert_eq!((segs[0].start, segs[SEGMENTS - 1].end), (0, n));
            for w in segs.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                let i = w[1].start;
                assert_ne!(i * blocks / n, (i - 1) * blocks / n, "n={n} op {i}");
            }
        }
    }

    #[test]
    fn the_clock_stops_between_segments() {
        let mut t = Timer::new(110, None);
        for seg in t.segments() {
            if seg.start > 0 {
                std::thread::sleep(Duration::from_millis(30));
                t.resume();
            }
            for _ in seg {
                t.complete(true, Duration::from_micros(1));
            }
        }
        t.finish();
        assert_eq!(t.blocks.len(), block_count(110));
        assert_eq!(t.blocks.iter().map(|b| b.ops).sum::<usize>(), 110);
        let secs: f64 = t.blocks.iter().map(|b| b.secs).sum();
        assert!(secs < 0.03, "set-up rounds leaked into the blocks: {secs}");
    }
}
