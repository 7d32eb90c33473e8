//! The [`Engine`]: a resident prover service over one long-lived
//! [`fpop::Session`].
//!
//! ## Lifecycle
//!
//! [`Engine::start`] warm-loads the configured snapshot (if any) into a
//! fresh session, then spawns `workers` OS threads that loop on the
//! bounded priority queue. [`Engine::submit`] enqueues a request and
//! returns a [`Ticket`]; identical in-flight requests (by stable content
//! hash) coalesce onto one ticket state, so concurrent clients asking for
//! the same lattice trigger exactly one elaboration. Coalescing only
//! latches onto a job whose deadline is at least as late as the new
//! request's — a tighter in-flight deadline would surface a
//! `DeadlineExpired` the new client never asked for — and if the
//! registering submission is itself rejected by backpressure, the
//! rejection is published to every ticket that coalesced onto it in the
//! meantime (no lost wakeups).
//! [`Engine::shutdown`] closes the queue, lets the workers **drain**
//! every accepted job, joins them, and writes the snapshot — so the next
//! process start replays zero kernel work.
//!
//! ## Deadlines and cancellation
//!
//! Both are *admission-time* controls: a worker checks the ticket's
//! cancellation flag and deadline when it dequeues the job, before any
//! elaboration starts. A job that is already executing runs to completion
//! (elaboration is not preemptible — the kernel holds no poll points),
//! which keeps the session's commit discipline trivial: a transaction
//! either never starts or commits atomically. [`Ticket::cancel`] is
//! additionally ignored while several tickets share one job via dedup:
//! cancelling your handle must not yank the result from other waiters.
//!
//! ## Panic containment
//!
//! A panic during elaboration is caught at the worker loop
//! (`catch_unwind`), published to the job's (possibly coalesced) waiters
//! as [`EngineError::Failed`], and the worker keeps serving — a poisoned
//! request can neither hang its tickets nor shrink the pool.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use families_stlc::lattice::{self, Plan};
use fpop::{CompiledFamily, ExportMark, FamilyUniverse, Session, StatsSnapshot};
use objlang::sig::Signature;
use trace::{Counter, Gauge, Histogram, Registry};

use crate::queue::PrioQueue;
use crate::request::{EngineError, LatticeLedger, Priority, Request, Response};
use crate::snapshot::{load_snapshot, write_snapshot, SnapshotError};
use crate::store::SharedStore;

/// Engine construction parameters.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// How long [`Engine::submit`] blocks on a full queue before
    /// rejecting. `Duration::ZERO` makes backpressure immediate.
    pub submit_timeout: Duration,
    /// Default per-request deadline (from submission); `None` = no limit.
    pub default_deadline: Option<Duration>,
    /// Where to persist the proof-cache snapshot. `None` disables both
    /// warm start and shutdown checkpointing.
    pub snapshot_path: Option<PathBuf>,
    /// The fleet's shared content-addressed store directory (tier 3 of
    /// the proof cache). When set, boot *catches up* from the store
    /// (full segments + applicable diff chains) and every checkpoint
    /// *publishes* back — a full base segment first, deltas after.
    /// `None` keeps the engine fleet-oblivious (the default).
    pub shared_store: Option<PathBuf>,
    /// Diff-chain length at which a checkpoint *compacts*: publishes a
    /// fresh full segment rather than yet another delta. Short chains
    /// keep checkpoints cheap (a diff ships only the new entries);
    /// unbounded chains would make every sibling's catch-up replay the
    /// whole publish history. Superseded chain files stay on disk
    /// (content addressing keeps them valid for siblings mid-catch-up);
    /// catch-up count-skips them as subsets of the compacted segment.
    pub compact_chain_at: usize,
    /// Requests whose service time reaches this threshold are recorded in
    /// the slow-elaboration log ([`Engine::slow_log`]).
    pub slow_threshold: Duration,
    /// How many slow entries the log retains (top-N by service time).
    pub slow_log_capacity: usize,
    /// Threads the task-DAG scheduler uses *inside* a single
    /// `BuildLattice` request (a cold batch elaborates across these, so
    /// one big request no longer pins one queue worker while others
    /// idle). `0` = auto ([`fpop::sched::default_workers`], which also
    /// honors the `FPOP_SCHED_WORKERS` environment variable).
    pub sched_workers: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(2),
            queue_capacity: 64,
            submit_timeout: Duration::from_millis(200),
            default_deadline: None,
            snapshot_path: None,
            shared_store: None,
            compact_chain_at: 8,
            slow_threshold: Duration::from_millis(500),
            slow_log_capacity: 8,
            sched_workers: 0,
        }
    }
}

/// One entry of the slow-elaboration log: a served request whose service
/// time reached [`EngineConfig::slow_threshold`], with the units that
/// dominated it.
#[derive(Clone, Debug)]
pub struct SlowEntry {
    /// The request's [`Request::label`] (e.g. `lattice[prod+sum]`).
    pub label: String,
    /// Total service (execution) time.
    pub duration: Duration,
    /// The slowest check units the request elaborated, slowest first
    /// (from the response's ledger, leaving out a redefine's memo-served
    /// variants; empty for requests that carry no ledger).
    pub units: Vec<(String, Duration)>,
}

/// A point-in-time copy of the engine's scheduling counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineMetrics {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests that executed and returned `Ok`.
    pub completed: u64,
    /// Requests that executed and returned `Err` (elaboration failures).
    pub failed: u64,
    /// Requests whose deadline passed while queued.
    pub expired: u64,
    /// Requests cancelled before execution.
    pub cancelled: u64,
    /// Submissions coalesced onto an identical in-flight request.
    pub dedup_hits: u64,
    /// Submissions rejected by backpressure (queue full past timeout).
    pub rejected: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: u64,
}

/// The engine's instruments, registered once at boot in its session's
/// registry (so [`Engine::prometheus`] is that registry's rendering).
/// Gauges whose value is read from elsewhere at render time are set by
/// [`Shared::prometheus`]; constant gauges are set at registration.
struct Instruments {
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    expired: Arc<Counter>,
    cancelled: Arc<Counter>,
    dedup_hits: Arc<Counter>,
    rejected: Arc<Counter>,
    slow_logged: Arc<Counter>,
    templates_registered: Arc<Counter>,
    template_memo_hits: Arc<Counter>,
    /// Microseconds workers spent executing requests; utilization =
    /// busy / (workers × uptime).
    busy_micros: Arc<Counter>,
    uptime_micros: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    cached_proofs: Arc<Gauge>,
    resident_plans: Arc<Gauge>,
    registered_families: Arc<Gauge>,
    /// Queue wait (admission → dequeue), microseconds.
    wait_micros: Arc<Histogram>,
    /// Service (execution) time, microseconds.
    service_micros: Arc<Histogram>,
}

impl Instruments {
    fn register(
        reg: &Registry,
        queue_capacity: usize,
        workers: usize,
        sched_workers: usize,
    ) -> Instruments {
        let constant = [
            (
                "engine_queue_capacity",
                "bounded queue capacity (backpressure threshold)",
                queue_capacity,
            ),
            (
                "engine_workers",
                "worker threads serving the queue",
                workers,
            ),
            (
                "engine_sched_workers",
                "task-DAG scheduler threads inside each BuildLattice request",
                sched_workers,
            ),
        ];
        for (name, help, v) in constant {
            reg.gauge(name, help).set(v as i64);
        }
        Instruments {
            submitted: reg.counter("engine_submitted_total", "requests accepted into the queue"),
            completed: reg.counter(
                "engine_completed_total",
                "requests that executed and returned Ok",
            ),
            failed: reg.counter(
                "engine_failed_total",
                "requests that executed and returned Err",
            ),
            expired: reg.counter(
                "engine_expired_total",
                "requests whose deadline passed while queued",
            ),
            cancelled: reg.counter(
                "engine_cancelled_total",
                "requests cancelled before execution",
            ),
            dedup_hits: reg.counter(
                "engine_dedup_hits_total",
                "submissions coalesced onto an identical in-flight request",
            ),
            rejected: reg.counter(
                "engine_rejected_total",
                "submissions rejected by backpressure",
            ),
            slow_logged: reg.counter(
                "engine_slow_logged_total",
                "requests recorded in the slow-elaboration log",
            ),
            templates_registered: reg.counter(
                "engine_templates_registered_total",
                "templates registered via the binary protocol",
            ),
            template_memo_hits: reg.counter(
                "engine_template_memo_hits_total",
                "template submissions answered from the memoized first response",
            ),
            busy_micros: reg.counter(
                "engine_worker_busy_micros_total",
                "microseconds workers spent executing requests; \
                 utilization = busy / (workers * uptime)",
            ),
            uptime_micros: reg.counter(
                "engine_uptime_micros_total",
                "microseconds since the engine booted",
            ),
            queue_depth: reg.gauge(
                "engine_queue_depth",
                "jobs waiting in the bounded priority queue",
            ),
            cached_proofs: reg.gauge(
                "fpop_session_cached_proofs",
                "proofs resident in the shared store right now",
            ),
            resident_plans: reg.gauge(
                "engine_resident_plans",
                "lattice plans kept resident for Redefine (0 or 1)",
            ),
            registered_families: reg.gauge(
                "engine_registered_families",
                "families in the registry QueryTheorem and Eval answer from",
            ),
            wait_micros: reg.histogram(
                "engine_wait_micros",
                "queue wait from admission to dequeue, microseconds",
            ),
            service_micros: reg.histogram(
                "engine_service_micros",
                "request service (execution) time, microseconds",
            ),
        }
    }
}

type JobResult = Result<Response, EngineError>;

/// Shared completion state of one submitted job; tickets are handles onto
/// an `Arc` of this (dedup hands the same `Arc` to several tickets).
struct JobState {
    slot: Mutex<Option<JobResult>>,
    done: Condvar,
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// Tickets sharing this state: the original submitter plus every
    /// dedup-coalesced client. [`Ticket::cancel`] is honoured only while
    /// this is exactly 1 (see the module docs).
    waiters: AtomicU64,
    /// Completion callbacks ([`Ticket::on_done`]); drained exactly once,
    /// after the result is published. The nonblocking connection layer
    /// uses these to get woken by the worker pool instead of parking a
    /// thread per in-flight request.
    hooks: Mutex<Vec<Box<dyn FnOnce() + Send>>>,
}

impl JobState {
    fn new(deadline: Option<Instant>) -> JobState {
        JobState {
            slot: Mutex::new(None),
            done: Condvar::new(),
            cancelled: AtomicBool::new(false),
            deadline,
            waiters: AtomicU64::new(1),
            hooks: Mutex::new(Vec::new()),
        }
    }

    fn publish(&self, result: JobResult) {
        {
            let mut slot = self.slot.lock().expect("job slot poisoned");
            *slot = Some(result);
            self.done.notify_all();
        }
        // Drain hooks only after releasing the slot lock: a hook may call
        // back into `Ticket::wait` (which takes it). `on_done` holds the
        // hooks lock while it checks the slot, so a hook registered
        // concurrently with this drain either lands in the vector we take
        // here or observes the already-set slot and runs inline — never
        // neither.
        let hooks = {
            let mut hooks = self.hooks.lock().expect("job hooks poisoned");
            std::mem::take(&mut *hooks)
        };
        for hook in hooks {
            hook();
        }
    }
}

/// A handle to one submitted request. Cloneable cheaply via the engine's
/// dedup (several tickets may share one underlying job).
pub struct Ticket {
    state: Arc<JobState>,
}

impl Ticket {
    /// Blocks until the job completes and returns its result.
    ///
    /// # Errors
    ///
    /// Whatever the job produced: [`EngineError::Failed`] for elaboration
    /// errors (including contained worker panics),
    /// [`EngineError::DeadlineExpired`] / [`EngineError::Cancelled`] for
    /// admission-time drops, and [`EngineError::Rejected`] /
    /// [`EngineError::ShuttingDown`] if this ticket coalesced onto a
    /// submission that backpressure then refused to enqueue.
    pub fn wait(&self) -> JobResult {
        let mut slot = self.state.slot.lock().expect("job slot poisoned");
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.state.done.wait(slot).expect("job slot poisoned");
        }
    }

    /// Like [`Ticket::wait`], bounded: `None` if the job is still pending
    /// after `timeout`.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobResult> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.state.slot.lock().expect("job slot poisoned");
        loop {
            if let Some(result) = slot.as_ref() {
                return Some(result.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timeout) = self
                .state
                .done
                .wait_timeout(slot, deadline - now)
                .expect("job slot poisoned");
            slot = guard;
        }
    }

    /// Whether a result is already available.
    pub fn is_done(&self) -> bool {
        self.state.slot.lock().expect("job slot poisoned").is_some()
    }

    /// Takes the result without blocking, if the job has completed.
    pub fn try_take(&self) -> Option<JobResult> {
        self.state
            .slot
            .lock()
            .expect("job slot poisoned")
            .as_ref()
            .cloned()
    }

    /// Registers a callback to run when the job completes. If the job is
    /// already done the callback runs inline, on this thread; otherwise
    /// it runs on the worker thread that publishes the result, after the
    /// result is visible to [`Ticket::wait`]/[`Ticket::try_take`].
    ///
    /// This is the event-loop completion primitive: the connection layer
    /// registers a hook that enqueues `(connection, correlation-id)` on
    /// its completion queue and wakes the poller, instead of parking one
    /// thread per in-flight request.
    pub fn on_done(&self, hook: impl FnOnce() + Send + 'static) {
        {
            // Hooks lock *then* slot check; `publish` sets the slot before
            // draining hooks. Both orders of the race hand the hook to
            // exactly one runner.
            let mut hooks = self.state.hooks.lock().expect("job hooks poisoned");
            let done = self.state.slot.lock().expect("job slot poisoned").is_some();
            if !done {
                hooks.push(Box::new(hook));
                return;
            }
        }
        hook();
    }

    /// Requests cancellation; returns whether the request was recorded.
    ///
    /// Best-effort on two axes: it takes effect only if a worker has not
    /// yet started the job (see module docs), and it is **ignored while
    /// other clients share the job** through in-flight dedup — cancelling
    /// your handle must not yank a result other waiters still want. (A
    /// dedup hit racing this check may still coalesce onto a
    /// just-cancelled job; it then observes `Cancelled`, the same as any
    /// waiter of a cancelled job.)
    pub fn cancel(&self) -> bool {
        if self.state.waiters.load(Ordering::SeqCst) != 1 {
            return false;
        }
        self.state.cancelled.store(true, Ordering::Relaxed);
        true
    }
}

struct Job {
    request: Request,
    state: Arc<JobState>,
    dedup_key: Option<u64>,
    /// When the submission was accepted into the queue (start of the
    /// wait-time measurement).
    accepted_at: Instant,
}

/// A registered template: a pre-parsed request addressed by its content
/// digest (= the underlying request's [`Request::dedup_key`]).
///
/// The first successful execution's [`Response`] is memoized. Sound
/// because execution against the engine's session is deterministic and
/// monotone — re-running the same `CheckSource` against a session that
/// already holds its proofs reproduces the same outputs and ledger (the
/// property the warm-restart acceptance test pins with `same_counts`);
/// the ledger a memoized response carries therefore reflects the *first*
/// execution, exactly as a re-execution's would.
struct Template {
    request: Request,
    /// For `CheckSource` templates: the parsed + resolved program, so the
    /// hot path never touches the vernacular parser again.
    program: Option<Arc<fpop::parse::Program>>,
    /// First successful response, served to every later submission.
    memo: Option<Response>,
}

/// One family in the engine's registry: what `Eval` evaluates under and
/// what `QueryTheorem` answers, both from the same compilation.
struct Registered {
    /// The compiled family's source digest
    /// ([`fpop::elab::CompiledFamily::src_digest`]): a later compilation
    /// with the same digest compiled the same merged source, so it
    /// registers nothing new.
    src_digest: u64,
    /// The compiled family's closed signature, shared with the universe
    /// it came from (see [`fpop::elab::CompiledFamily::sig`]).
    sig: Arc<Signature>,
    /// Theorem field → its qualified statement display.
    theorems: HashMap<String, String>,
}

/// State shared between the engine facade and its workers.
struct Shared {
    session: Arc<Session>,
    queue: PrioQueue<Job>,
    inflight: Mutex<HashMap<u64, Arc<JobState>>>,
    metrics: Instruments,
    /// The plan of the feature set the last `BuildLattice` or successful
    /// `Redefine` built: the one a `BuildLattice` compiled from, so its
    /// merges are the compiled families' own field lists. A `Redefine` of
    /// that feature set runs on it as it is; one of another feature set
    /// plans that set and replaces it.
    resident: Mutex<Option<Arc<Plan>>>,
    /// Every family any request has elaborated, by name; the last
    /// request to register a name wins.
    families: Mutex<HashMap<String, Registered>>,
    /// Registered templates, keyed by content digest (see [`Template`]).
    templates: Mutex<HashMap<u64, Template>>,
    /// Slow-elaboration log: top-N served requests by service time among
    /// those reaching the threshold, slowest first.
    slow: Mutex<Vec<SlowEntry>>,
    /// Service-time threshold for the slow log.
    slow_threshold: Duration,
    /// Retention of the slow log (top-N).
    slow_capacity: usize,
    /// Resolved task-DAG worker count for `BuildLattice` requests.
    sched_workers: usize,
    /// When this engine booted (denominator of the utilization gauge).
    started: Instant,
    /// Test-only fault injection: `execute` panics when a `CheckSource`
    /// body equals this marker (exercises worker panic containment).
    #[cfg(test)]
    panic_marker: Mutex<Option<String>>,
}

impl Shared {
    /// Registers compiled families, in order. A family whose source digest
    /// is the registered one (a replayed, cut-off or re-proved lattice
    /// variant, or a warm re-check of the same program) compiled the same
    /// source and costs one compare; every other family is
    /// (re-)registered with freshly rendered theorems.
    fn register<'a>(&self, compiled: impl IntoIterator<Item = &'a Arc<CompiledFamily>>) {
        let mut families = self.families.lock().expect("family registry poisoned");
        for fam in compiled {
            let name = fam.name.as_str();
            if families
                .get(name)
                .is_some_and(|r| r.src_digest == fam.src_digest)
            {
                continue;
            }
            let mut names = fpop::report::QualifiedNames::new(fam);
            let theorems = fam
                .theorems
                .iter()
                .map(|(field, prop)| {
                    let field = field.as_str();
                    (field.to_string(), names.display(field, prop))
                })
                .collect();
            families.insert(
                name.to_string(),
                Registered {
                    src_digest: fam.src_digest,
                    sig: Arc::clone(&fam.sig),
                    theorems,
                },
            );
        }
    }

    /// A `CheckSource` reply: registers the program's families and merges
    /// their ledgers. The reply keeps the merged ledger, not the families,
    /// which die with the universe (a memoized template reply would
    /// otherwise keep them alive).
    fn checked(&self, u: &FamilyUniverse, outputs: Vec<String>) -> Response {
        let ledger = u.families().map(|fam| &fam.ledger).collect();
        self.register(u.families());
        Response::Checked { outputs, ledger }
    }

    /// Makes `plan` the resident plan `Redefine` runs on.
    fn make_resident(&self, plan: Arc<Plan>) {
        *self.resident.lock().expect("resident plan poisoned") = Some(plan);
    }

    fn execute(&self, request: Request) -> JobResult {
        #[cfg(test)]
        if let Request::CheckSource { source } = &request {
            let marker = self.panic_marker.lock().expect("panic marker poisoned");
            if marker.as_deref() == Some(source.as_str()) {
                panic!("injected test panic");
            }
        }
        match request {
            Request::CheckSource { source } => {
                let (u, outputs) =
                    fpop::parse::run_program_with_session(&source, Arc::clone(&self.session))
                        .map_err(|e| EngineError::Failed(e.to_string()))?;
                Ok(self.checked(&u, outputs))
            }
            Request::BuildLattice { features } => {
                let plan = Plan::new(&features).map_err(|e| EngineError::Failed(e.to_string()))?;
                let mut u = FamilyUniverse::with_session(Arc::clone(&self.session));
                // Field-level task DAG: a single cold batch elaborates
                // across the scheduler's workers instead of pinning one
                // queue worker (same verdicts, ledgers, and session
                // contents as the sequential reference — see the parallel
                // differential oracle).
                let report = lattice::build(&mut u, &plan, self.sched_workers)
                    .map_err(|e| EngineError::Failed(e.to_string()))?;
                let families: Vec<_> = u.families().cloned().collect();
                self.register(&families);
                self.make_resident(Arc::new(plan));
                let elaborated = vec![true; families.len()];
                let ledger = LatticeLedger::new(families, elaborated);
                Ok(Response::Lattice { report, ledger })
            }
            Request::Redefine {
                family,
                field,
                features,
            } => {
                // Incremental recheck on the resident plan: the session's
                // elaboration memo replays every variant whose fingerprint
                // chain is clean, and only the dirty cone rooted at
                // `family` is re-proved, from the plan's own merges. A
                // request for another feature set (or before any lattice
                // was built) plans that set first and keeps its plan
                // instead. The touched family and field are validated
                // against the plan before any proof work runs.
                let resident = self
                    .resident
                    .lock()
                    .expect("resident plan poisoned")
                    .clone()
                    .filter(|p| p.features() == lattice::normalize_features(&features));
                let plan = match resident {
                    Some(plan) => plan,
                    None => Arc::new(
                        Plan::new(&features).map_err(|e| EngineError::Failed(e.to_string()))?,
                    ),
                };
                // The build registers no module and adopts no family: the
                // reply and the registry take the compiled families
                // straight from the memo entries it returns.
                let (memos, report, outcome) =
                    lattice::redefine(&self.session, &plan, &family, &field, self.sched_workers)
                        .map_err(|e| EngineError::Failed(e.to_string()))?;
                let families: Vec<_> = memos.iter().map(|m| Arc::clone(&m.compiled)).collect();
                self.register(&families);
                self.make_resident(plan);
                let elaborated = families
                    .iter()
                    .map(|f| outcome.ran.iter().any(|r| r == f.name.as_str()))
                    .collect();
                let ledger = LatticeLedger::new(families, elaborated);
                Ok(Response::Lattice { report, ledger })
            }
            Request::QueryTheorem { family, field } => {
                let statement = self
                    .families
                    .lock()
                    .expect("family registry poisoned")
                    .get(&family)
                    .and_then(|r| r.theorems.get(&field))
                    .cloned()
                    .ok_or_else(|| {
                        EngineError::Failed(format!(
                            "no theorem {family}.{field} registered (build it first)"
                        ))
                    })?;
                Ok(Response::Theorem {
                    family,
                    field,
                    statement,
                })
            }
            Request::Eval { family, term } => {
                let sig = self
                    .families
                    .lock()
                    .expect("family registry poisoned")
                    .get(&family)
                    .map(|r| Arc::clone(&r.sig))
                    .ok_or_else(|| {
                        EngineError::Failed(format!(
                            "no family {family} registered (build it first)"
                        ))
                    })?;
                let t = crate::term_parse::parse_term(&term, &sig)
                    .map_err(|e| EngineError::Failed(format!("parse error in term: {e}")))?;
                // Same budget as `objlang::eval::eval_default`. The call
                // serves compilable graphs from the session's compiled
                // code cache — warmed when the family was defined, and
                // shared across every family that closed the same
                // definitions (content-addressed by digest).
                const FUEL: u64 = 1_000_000;
                let mut fuel = FUEL;
                let value =
                    objlang::eval::eval_with_cache(&sig, &t, &mut fuel, self.session.code_cache())
                        .map_err(|e| EngineError::Failed(e.to_string()))?;
                let rendered = match objlang::eval::nat_value(&value) {
                    Some(n) => n.to_string(),
                    None => value.to_string(),
                };
                Ok(Response::Eval {
                    family,
                    value: rendered,
                    fuel_used: FUEL - fuel,
                })
            }
            Request::RunTemplate { digest } => self.execute_template(digest),
            Request::Stats => Ok(Response::Stats {
                session: self.session.snapshot_stats(),
                engine: self.metrics_snapshot(),
            }),
            Request::Metrics => Ok(Response::Metrics {
                text: self.prometheus(),
            }),
        }
    }

    /// Executes a template submission: memo hit if the template already
    /// ran successfully, otherwise the underlying request — via the
    /// pre-parsed program for `CheckSource` (no vernacular parsing on the
    /// hot path) — with the first `Ok` memoized for every later hit.
    fn execute_template(&self, digest: u64) -> JobResult {
        let (request, program) = {
            let templates = self.templates.lock().expect("template registry poisoned");
            let tpl = templates.get(&digest).ok_or_else(|| {
                EngineError::Failed(format!("no template registered under digest {digest:016x}"))
            })?;
            if let Some(memo) = &tpl.memo {
                self.metrics.template_memo_hits.inc();
                return Ok(memo.clone());
            }
            (tpl.request.clone(), tpl.program.clone())
        };
        // Execute outside the registry lock (elaboration can be slow and
        // other connections register/submit templates meanwhile).
        let result = match (&request, program) {
            (Request::CheckSource { .. }, Some(program)) => program
                .run_with_session(Arc::clone(&self.session))
                .map_err(|e| EngineError::Failed(e.to_string()))
                .map(|(u, outputs)| self.checked(&u, outputs)),
            _ => self.execute(request),
        };
        if let Ok(response) = &result {
            let mut templates = self.templates.lock().expect("template registry poisoned");
            if let Some(tpl) = templates.get_mut(&digest) {
                // Two workers may race the first execution (dedup retires
                // before publish); either's response memoizes — they are
                // interchangeable by determinism.
                tpl.memo.get_or_insert_with(|| response.clone());
            }
        }
        result
    }

    /// Records a served request in the slow log when its service time
    /// reaches the threshold; keeps the top `slow_capacity` entries by
    /// duration, slowest first. The units listed are those of the
    /// families the request elaborated: a check's every family, a lattice
    /// build's every variant, a redefine's re-run variants (the others
    /// carry times recorded by earlier requests).
    fn note_slow(&self, label: String, duration: Duration, result: &JobResult) {
        if duration < self.slow_threshold || self.slow_capacity == 0 {
            return;
        }
        let units = match result {
            Ok(Response::Checked { ledger, .. }) => ledger.slowest(3),
            Ok(Response::Lattice { ledger, .. }) => ledger.slowest_elaborated(3),
            _ => Vec::new(),
        };
        self.metrics.slow_logged.inc();
        let mut slow = self.slow.lock().expect("slow log poisoned");
        slow.push(SlowEntry {
            label,
            duration,
            units,
        });
        slow.sort_by_key(|e| std::cmp::Reverse(e.duration));
        slow.truncate(self.slow_capacity);
    }

    /// Renders the engine's full metric surface as Prometheus-style text:
    /// its session's registry, after setting the gauges whose values are
    /// read at render time.
    fn prometheus(&self) -> String {
        let m = &self.metrics;
        m.queue_depth.set(self.queue.len() as i64);
        m.uptime_micros
            .raise_to(self.started.elapsed().as_micros() as u64);
        m.cached_proofs.set(self.session.cached_proofs() as i64);
        let resident = self
            .resident
            .lock()
            .expect("resident plan poisoned")
            .is_some();
        m.resident_plans.set(i64::from(resident));
        let families = self
            .families
            .lock()
            .expect("family registry poisoned")
            .len();
        m.registered_families.set(families as i64);
        self.session.registry().render()
    }

    fn metrics_snapshot(&self) -> EngineMetrics {
        let m = &self.metrics;
        EngineMetrics {
            submitted: m.submitted.get(),
            completed: m.completed.get(),
            failed: m.failed.get(),
            expired: m.expired.get(),
            cancelled: m.cancelled.get(),
            dedup_hits: m.dedup_hits.get(),
            rejected: m.rejected.get(),
            queue_depth: self.queue.len() as u64,
        }
    }
}

/// Best-effort rendering of a `catch_unwind` payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let m = &shared.metrics;
    // This worker's busy time, kept in nanoseconds so the shared
    // microsecond counter loses less than 1 µs per worker, not per request.
    let mut busy_nanos = 0u128;
    while let Some(job) = shared.queue.pop() {
        m.wait_micros.observe(job.accepted_at.elapsed());
        let result = if job.state.cancelled.load(Ordering::Relaxed) {
            m.cancelled.inc();
            Err(EngineError::Cancelled)
        } else if job.state.deadline.is_some_and(|d| Instant::now() > d) {
            m.expired.inc();
            Err(EngineError::DeadlineExpired)
        } else {
            // Contain panics: an elaboration panic must neither kill this
            // worker (silently shrinking the pool for the engine's
            // lifetime) nor skip the publish below (hanging every ticket
            // waiting on this job).
            let request = job.request;
            let label = request.label();
            let service_started = Instant::now();
            let r = {
                let _span = trace::span!("engine.execute", "request={}", label);
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| shared.execute(request)))
                    .unwrap_or_else(|payload| {
                        Err(EngineError::Failed(format!(
                            "worker panicked: {}",
                            panic_message(payload.as_ref())
                        )))
                    })
            };
            let service = service_started.elapsed();
            m.service_micros.observe(service);
            let busy_before = busy_nanos / 1_000;
            busy_nanos += service.as_nanos();
            m.busy_micros.add((busy_nanos / 1_000 - busy_before) as u64);
            shared.note_slow(label, service, &r);
            match &r {
                Ok(_) => m.completed.inc(),
                Err(_) => m.failed.inc(),
            }
            r
        };
        // Retire the dedup entry *before* publishing: after this point a
        // fresh identical submission schedules new work rather than
        // latching onto a completed job. (Submitters that grabbed the Arc
        // earlier still get notified below — no lost wakeups, `wait`
        // re-checks the slot under the lock.)
        if let Some(key) = job.dedup_key {
            let mut inflight = shared.inflight.lock().expect("inflight map poisoned");
            if let Some(current) = inflight.get(&key) {
                if Arc::ptr_eq(current, &job.state) {
                    inflight.remove(&key);
                }
            }
        }
        job.state.publish(result);
    }
}

/// Whether an in-flight job's deadline `existing` is at least as generous
/// as a new request's `wanted` (`None` = no deadline, which covers
/// everything). Dedup only coalesces when this holds: latching a client
/// onto a job that expires *earlier* than the client allowed would
/// surface a `DeadlineExpired` the client never asked for.
fn deadline_covers(existing: Option<Instant>, wanted: Option<Instant>) -> bool {
    match (existing, wanted) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(e), Some(w)) => e >= w,
    }
}

/// How the engine's session came up: cold, warm, or cold-after-rejection.
#[derive(Clone, Debug, Default)]
struct WarmStart {
    loaded: usize,
    error: Option<SnapshotError>,
}

/// Where the engine's shared-store publishing stands: the export mark of
/// the last published state, and the content digest of the segment that
/// state lives under (the base the next diff pins). `base == None` until
/// the first checkpoint publishes a full segment.
#[derive(Default)]
struct PublishState {
    mark: ExportMark,
    base: Option<u64>,
    /// Diffs published since the last full segment. Once this reaches
    /// [`EngineConfig::compact_chain_at`] the next checkpoint publishes
    /// a compacted full segment instead of extending the chain, so a
    /// restarted shard's catch-up cost stays bounded by live content.
    chain: usize,
}

/// The resident prover engine. See the module docs for the lifecycle.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    config: EngineConfig,
    warm: WarmStart,
    store: Option<SharedStore>,
    publish: Mutex<PublishState>,
    down: AtomicBool,
}

impl Engine {
    /// Starts an engine on a fresh session, warm-loading
    /// `config.snapshot_path` when it names an existing, valid snapshot.
    ///
    /// A missing snapshot file is a quiet cold start. An *invalid* one
    /// (corrupt, truncated, stale version) is rejected loudly: the error
    /// is logged to stderr, retained for [`Engine::load_error`], and the
    /// engine proceeds with an empty cache.
    pub fn start(config: EngineConfig) -> Engine {
        Engine::boot(config, Session::new(), true)
    }

    /// An engine with no worker threads: jobs queue but never execute.
    /// Unit tests use this to pin scheduling/dedup behavior without
    /// racing a consumer.
    #[cfg(test)]
    fn start_inert(config: EngineConfig) -> Engine {
        Engine::boot(config, Session::new(), false)
    }

    fn boot(config: EngineConfig, session: Arc<Session>, spawn_workers: bool) -> Engine {
        let mut warm = WarmStart::default();
        if let Some(path) = &config.snapshot_path {
            if path.exists() {
                match load_snapshot(path) {
                    Ok(entries) => {
                        warm.loaded = session.import(entries);
                    }
                    Err(e) => {
                        eprintln!("fpopd: {} — starting cold", e);
                        warm.error = Some(e);
                    }
                }
            }
        }
        // Tier 3: catch up from the fleet's shared store — full segments
        // plus every diff chain that resolves. A broken store only costs
        // warmth, never a boot.
        let store = config
            .shared_store
            .as_ref()
            .and_then(|dir| match SharedStore::open(dir) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!(
                        "fpopd: shared store {} unavailable: {e} — continuing without",
                        dir.display()
                    );
                    None
                }
            });
        if let Some(store) = &store {
            let got = store.catch_up(&session);
            if got.loaded > 0 || got.skipped > 0 {
                eprintln!(
                    "fpopd: store catch-up — {} proofs ({} segments, {} diffs, {} skipped, {} superseded)",
                    got.loaded, got.segments, got.diffs_applied, got.skipped, got.superseded
                );
            }
            warm.loaded += got.loaded;
        }
        let worker_count = if spawn_workers {
            config.workers.max(1)
        } else {
            0
        };
        let sched_workers = if config.sched_workers == 0 {
            fpop::sched::default_workers()
        } else {
            config.sched_workers
        };
        let metrics = Instruments::register(
            session.registry(),
            config.queue_capacity,
            worker_count,
            sched_workers,
        );
        let shared = Arc::new(Shared {
            session,
            queue: PrioQueue::new(config.queue_capacity),
            inflight: Mutex::new(HashMap::new()),
            metrics,
            resident: Mutex::new(None),
            families: Mutex::new(HashMap::new()),
            templates: Mutex::new(HashMap::new()),
            slow: Mutex::new(Vec::new()),
            slow_threshold: config.slow_threshold,
            slow_capacity: config.slow_log_capacity,
            sched_workers,
            started: Instant::now(),
            #[cfg(test)]
            panic_marker: Mutex::new(None),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fpopd-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn engine worker")
            })
            .collect();
        Engine {
            shared,
            workers: Mutex::new(workers),
            config,
            warm,
            store,
            publish: Mutex::new(PublishState::default()),
            down: AtomicBool::new(false),
        }
    }

    /// The engine's shared check session.
    pub fn session(&self) -> &Arc<Session> {
        &self.shared.session
    }

    /// Number of proofs imported from the snapshot at startup.
    pub fn warm_loaded(&self) -> usize {
        self.warm.loaded
    }

    /// The snapshot-load error, if startup rejected an invalid snapshot
    /// and fell back to a cold cache.
    pub fn load_error(&self) -> Option<&SnapshotError> {
        self.warm.error.as_ref()
    }

    /// Whether a fleet shared store is configured — i.e. whether
    /// [`Engine::checkpoint`] publishes even without a snapshot path.
    /// The protocol layers use this to answer `checkpoint` honestly on
    /// store-only shards (the fleet's usual configuration).
    pub fn has_shared_store(&self) -> bool {
        self.store.is_some()
    }

    /// Session counters + store size (one coherent snapshot).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.session.snapshot_stats()
    }

    /// Scheduling metrics at this instant.
    pub fn metrics(&self) -> EngineMetrics {
        self.shared.metrics_snapshot()
    }

    /// Number of dedup-registered in-flight jobs (test observability).
    #[cfg(test)]
    fn inflight_len(&self) -> usize {
        self.shared
            .inflight
            .lock()
            .expect("inflight map poisoned")
            .len()
    }

    /// Copy of the slow-elaboration log: the top-N served requests (by
    /// service time) whose execution reached
    /// [`EngineConfig::slow_threshold`], slowest first.
    pub fn slow_log(&self) -> Vec<SlowEntry> {
        self.shared.slow.lock().expect("slow log poisoned").clone()
    }

    /// Prometheus-style text exposition of the engine's full metric
    /// surface (the payload of the protocol's `metrics` request). See
    /// `docs/OBSERVABILITY.md` for every metric's meaning and unit.
    pub fn prometheus(&self) -> String {
        self.shared.prometheus()
    }

    /// Submits a request with explicit priority and (optional) deadline
    /// override; returns a [`Ticket`] to wait on.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShuttingDown`] after shutdown began;
    /// [`EngineError::Rejected`] if the bounded queue stayed full past
    /// the configured submit timeout (backpressure).
    pub fn submit_with(
        &self,
        request: Request,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<Ticket, EngineError> {
        self.submit_inner(request, priority, deadline, self.config.submit_timeout)
    }

    fn submit_inner(
        &self,
        request: Request,
        priority: Priority,
        deadline: Option<Duration>,
        submit_timeout: Duration,
    ) -> Result<Ticket, EngineError> {
        if self.down.load(Ordering::SeqCst) {
            return Err(EngineError::ShuttingDown);
        }
        let dedup_key = request.dedup_key();
        let deadline = deadline
            .or(self.config.default_deadline)
            .map(|d| Instant::now() + d);
        let state = Arc::new(JobState::new(deadline));
        if let Some(key) = dedup_key {
            let mut inflight = self.shared.inflight.lock().expect("inflight map poisoned");
            match inflight.get(&key) {
                // Coalesce only onto a job whose deadline covers ours.
                Some(existing) if deadline_covers(existing.deadline, deadline) => {
                    existing.waiters.fetch_add(1, Ordering::SeqCst);
                    self.shared.metrics.dedup_hits.inc();
                    return Ok(Ticket {
                        state: Arc::clone(existing),
                    });
                }
                // Nothing in flight, or its deadline is tighter than this
                // request tolerates: schedule fresh work and make *this*
                // job the coalescing target (it has the later deadline).
                _ => {
                    inflight.insert(key, Arc::clone(&state));
                }
            }
        }
        let job = Job {
            request,
            state: Arc::clone(&state),
            dedup_key,
            accepted_at: Instant::now(),
        };
        match self.shared.queue.push(job, priority, submit_timeout) {
            Ok(()) => {
                self.shared.metrics.submitted.inc();
                Ok(Ticket { state })
            }
            Err(push_err) => {
                if let Some(key) = dedup_key {
                    let mut inflight = self.shared.inflight.lock().expect("inflight map poisoned");
                    if let Some(current) = inflight.get(&key) {
                        if Arc::ptr_eq(current, &state) {
                            inflight.remove(&key);
                        }
                    }
                }
                let err = match push_err {
                    crate::queue::PushError::Full(_) => {
                        self.shared.metrics.rejected.inc();
                        EngineError::Rejected
                    }
                    crate::queue::PushError::Closed(_) => EngineError::ShuttingDown,
                };
                // The job was registered in `inflight` *before* the push
                // (so identical submissions could coalesce while the push
                // blocked on a full queue). Any ticket handed out that way
                // still points at `state`; publish the rejection so those
                // waiters wake instead of blocking forever on a job no
                // worker will ever see.
                state.publish(Err(err.clone()));
                Err(err)
            }
        }
    }

    /// Nonblocking [`Engine::submit_with`]: a full queue returns
    /// [`EngineError::Rejected`] immediately instead of blocking up to
    /// the submit timeout. The event-loop connection layer uses this so
    /// backpressure surfaces as an error frame rather than a stalled
    /// poller.
    ///
    /// # Errors
    ///
    /// As for [`Engine::submit_with`], with `Rejected` immediate.
    pub fn submit_nowait(
        &self,
        request: Request,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<Ticket, EngineError> {
        self.submit_inner(request, priority, deadline, Duration::ZERO)
    }

    /// Registers `request` as a template and returns its content digest
    /// (= the request's [`Request::dedup_key`]). Idempotent: registering
    /// the same content again returns the same digest and keeps any
    /// existing memo. `CheckSource` templates are parsed and resolved
    /// *now*, so submissions by digest never touch the vernacular parser.
    ///
    /// # Errors
    ///
    /// [`EngineError::Failed`] if the request is not templatable (no
    /// dedup key — `Stats`/`Metrics`/`QueryTheorem` answers change
    /// between calls; `RunTemplate` cannot nest) or if a `CheckSource`
    /// body fails to parse/resolve.
    pub fn register_template(&self, request: Request) -> Result<u64, EngineError> {
        if matches!(request, Request::RunTemplate { .. }) {
            return Err(EngineError::Failed(
                "a template cannot name another template".to_string(),
            ));
        }
        let digest = request.dedup_key().ok_or_else(|| {
            EngineError::Failed(format!(
                "{} requests are not templatable (their answers change between calls)",
                request.kind()
            ))
        })?;
        let program = match &request {
            Request::CheckSource { source } => Some(Arc::new(
                fpop::parse::prepare_program(source)
                    .map_err(|e| EngineError::Failed(e.to_string()))?,
            )),
            _ => None,
        };
        let mut templates = self
            .shared
            .templates
            .lock()
            .expect("template registry poisoned");
        templates.entry(digest).or_insert_with(|| {
            self.shared.metrics.templates_registered.inc();
            Template {
                request,
                program,
                memo: None,
            }
        });
        Ok(digest)
    }

    /// The memoized response of a registered template, if its first
    /// execution already succeeded. The connection layer serves hits
    /// inline — no queue admission, no worker — which is what makes the
    /// pipelined-template path an order of magnitude faster than
    /// re-elaborating.
    pub fn template_response(&self, digest: u64) -> Option<Response> {
        let templates = self
            .shared
            .templates
            .lock()
            .expect("template registry poisoned");
        let tpl = templates.get(&digest)?;
        if tpl.memo.is_some() {
            self.shared.metrics.template_memo_hits.inc();
        }
        tpl.memo.clone()
    }

    /// Whether a template is registered under `digest` (regardless of
    /// memo state).
    pub fn has_template(&self, digest: u64) -> bool {
        self.shared
            .templates
            .lock()
            .expect("template registry poisoned")
            .contains_key(&digest)
    }

    /// [`Engine::submit_with`] at [`Priority::Normal`] and the default
    /// deadline.
    ///
    /// # Example
    ///
    /// ```
    /// use engine::{Engine, EngineConfig, Request, Response};
    ///
    /// let engine = Engine::start(EngineConfig {
    ///     workers: 1,
    ///     snapshot_path: None,
    ///     ..EngineConfig::default()
    /// });
    /// // submit() returns immediately with a Ticket; wait() blocks for
    /// // the worker pool to execute the request.
    /// let ticket = engine.submit(Request::Stats).unwrap();
    /// assert!(matches!(ticket.wait(), Ok(Response::Stats { .. })));
    /// engine.shutdown().unwrap();
    /// ```
    ///
    /// # Errors
    ///
    /// As for [`Engine::submit_with`].
    pub fn submit(&self, request: Request) -> Result<Ticket, EngineError> {
        self.submit_with(request, Priority::Normal, None)
    }

    /// Submit-and-wait convenience.
    ///
    /// # Errors
    ///
    /// As for [`Engine::submit_with`] plus whatever the job produced.
    pub fn run(&self, request: Request) -> Result<Response, EngineError> {
        self.submit(request)?.wait()
    }

    /// Writes the current proof cache to the configured snapshot path
    /// (atomic tmp-then-rename) and, when a shared store is configured,
    /// publishes to it — a full base segment on the first checkpoint,
    /// a diff of the entries added since the previous publish after.
    /// Returns the local snapshot's byte count, or `None` when no
    /// snapshot path is configured.
    ///
    /// # Errors
    ///
    /// Filesystem errors from either write. A failed publish leaves the
    /// publish mark untouched, so the next checkpoint re-ships the same
    /// delta (the store is content-addressed — re-publishing is a no-op).
    pub fn checkpoint(&self) -> std::io::Result<Option<usize>> {
        let written = match &self.config.snapshot_path {
            None => None,
            Some(path) => Some(write_snapshot(path, &self.shared.session.export())?),
        };
        if let Some(store) = &self.store {
            let mut publish = self.publish.lock().expect("publish state poisoned");
            // The mark is taken *before* the export: anything committed
            // in between ships both now and next time — the merge is
            // idempotent, so over-shipping is free and under-shipping
            // (losing an entry) is impossible.
            let mark = self.shared.session.mark();
            match publish.base {
                None => {
                    publish.base = Some(store.publish_base(&self.shared.session.export())?);
                    publish.chain = 0;
                }
                Some(_) if publish.chain >= self.config.compact_chain_at => {
                    // Compaction: republish the full state as one segment.
                    // Content addressing makes this idempotent, and the
                    // superseded chain files stay on disk for any sibling
                    // mid-catch-up (catch-up count-skips them as subsets).
                    publish.base = Some(store.publish_base(&self.shared.session.export())?);
                    publish.chain = 0;
                }
                Some(base) => {
                    let added = self.shared.session.export_since(&publish.mark);
                    if !added.is_empty() {
                        match store.publish_diff(base, &added) {
                            Ok(merged) => {
                                publish.base = Some(merged);
                                publish.chain += 1;
                            }
                            Err(_) => {
                                // The pinned base vanished or went bad
                                // (e.g. a pruned store directory): fall
                                // back to a full segment rather than
                                // failing the checkpoint.
                                publish.base =
                                    Some(store.publish_base(&self.shared.session.export())?);
                                publish.chain = 0;
                            }
                        }
                    }
                }
            }
            publish.mark = mark;
        }
        Ok(written)
    }

    /// Graceful shutdown: stop accepting work, **drain** every accepted
    /// job, join the workers, then checkpoint. Idempotent — the second
    /// call is a no-op returning `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Filesystem errors from the final checkpoint (the engine is fully
    /// stopped by then).
    pub fn shutdown(&self) -> std::io::Result<Option<usize>> {
        if self.down.swap(true, Ordering::SeqCst) {
            return Ok(None);
        }
        self.shared.queue.close();
        let handles: Vec<JoinHandle<()>> = {
            let mut workers = self.workers.lock().expect("worker handles poisoned");
            workers.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        self.checkpoint()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inert(queue_capacity: usize, submit_timeout: Duration) -> Engine {
        Engine::start_inert(EngineConfig {
            workers: 1, // ignored: inert engines spawn no workers
            queue_capacity,
            submit_timeout,
            default_deadline: None,
            snapshot_path: None,
            ..EngineConfig::default()
        })
    }

    fn check(src: &str) -> Request {
        Request::CheckSource {
            source: src.to_string(),
        }
    }

    /// REVIEW regression (high): a submission registers in `inflight`
    /// before pushing, so identical submissions can coalesce while the
    /// push blocks on a full queue. If the push is then rejected, the
    /// coalesced tickets must wake with the rejection — not hang forever
    /// on a job no worker will ever see.
    #[test]
    fn rejected_push_wakes_coalesced_waiters() {
        let e = inert(1, Duration::from_millis(600));
        // Fill the capacity-1 queue (inert: nothing ever pops it).
        let _filler = e.submit(check("filler")).unwrap();
        assert_eq!(e.inflight_len(), 1);
        std::thread::scope(|s| {
            let observer = s.spawn(|| {
                // Wait for the main thread to register "shared", then
                // coalesce onto it while its push is still blocking.
                while e.inflight_len() < 2 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let t = e
                    .submit(check("shared"))
                    .expect("dedup hit returns a ticket");
                t.wait_timeout(Duration::from_secs(30))
                    .expect("coalesced ticket must wake when the push is rejected")
            });
            // Registers in-flight, blocks in push, then gets rejected.
            let direct = e.submit(check("shared"));
            assert!(matches!(direct, Err(EngineError::Rejected)));
            let coalesced = observer.join().unwrap();
            assert!(
                matches!(coalesced, Err(EngineError::Rejected)),
                "coalesced ticket must see the rejection, got {coalesced:?}"
            );
        });
        let m = e.metrics();
        assert_eq!(m.dedup_hits, 1);
        assert_eq!(m.rejected, 1);
        assert_eq!(e.inflight_len(), 1, "only the filler survives");
    }

    /// REVIEW regression (medium): cancelling one ticket of a coalesced
    /// job must not cancel the job for the other waiters.
    #[test]
    fn cancel_is_ignored_while_tickets_share_a_job() {
        let e = inert(8, Duration::ZERO);
        let t1 = e.submit(check("shared job")).unwrap();
        let t2 = e.submit(check("shared job")).unwrap(); // coalesced
        assert_eq!(e.metrics().dedup_hits, 1);
        assert!(
            !t2.cancel(),
            "a coalesced ticket must not cancel for everyone"
        );
        assert!(!t1.cancel(), "nor may the original submitter");
        let solo = e.submit(check("solo job")).unwrap();
        assert!(solo.cancel(), "a single-waiter cancel is recorded");
    }

    /// REVIEW regression (medium): a submission must not latch onto an
    /// in-flight job whose deadline is tighter than its own — it would
    /// inherit a `DeadlineExpired` it never asked for.
    #[test]
    fn dedup_skips_jobs_with_tighter_deadlines() {
        let e = inert(8, Duration::ZERO);
        let _short = e
            .submit_with(
                check("d"),
                Priority::Normal,
                Some(Duration::from_millis(50)),
            )
            .unwrap();
        // A later deadline must not coalesce onto the 50 ms job…
        let _long = e
            .submit_with(
                check("d"),
                Priority::Normal,
                Some(Duration::from_secs(3600)),
            )
            .unwrap();
        assert_eq!(e.metrics().dedup_hits, 0);
        assert_eq!(e.metrics().submitted, 2);
        // …and neither must a request with no deadline at all.
        let _none = e.submit_with(check("d"), Priority::Normal, None).unwrap();
        assert_eq!(e.metrics().dedup_hits, 0);
        assert_eq!(e.metrics().submitted, 3);
        // A tighter-or-equal deadline does coalesce (onto the
        // deadline-free job, now the registered coalescing target).
        let _tight = e
            .submit_with(check("d"), Priority::Normal, Some(Duration::from_millis(1)))
            .unwrap();
        assert_eq!(e.metrics().dedup_hits, 1);
        assert_eq!(e.metrics().submitted, 3);
    }

    /// Trace spans opened around a panicking job must close during the
    /// unwind (the guard records on drop) and leave the worker's span
    /// depth balanced — the next request on the same worker records at
    /// depth 0, not nested inside a ghost of the panicked span.
    #[test]
    fn spans_close_and_rebalance_across_worker_panics() {
        trace::install(4096);
        // Built with `trace/off` (feature-unified from a parent crate)
        // spans are compiled out and there is nothing to assert — probe
        // for that at runtime, since this crate can't see the feature.
        {
            let _probe = trace::span!("engine.test.probe");
        }
        if !trace::snapshot()
            .iter()
            .any(|s| s.name == "engine.test.probe")
        {
            return;
        }
        let _ = trace::drain();
        let e = Engine::start(EngineConfig {
            workers: 1, // one worker: both jobs run on the same thread
            snapshot_path: None,
            ..EngineConfig::default()
        });
        e.shared
            .panic_marker
            .lock()
            .unwrap()
            .replace("kaboom".to_string());
        assert!(matches!(
            e.run(check("kaboom")),
            Err(EngineError::Failed(_))
        ));
        assert!(e.run(Request::Stats).is_ok());
        e.shutdown().unwrap();
        let spans = trace::drain();
        let execs: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "engine.execute")
            .collect();
        assert!(
            execs.iter().any(|s| s.detail.contains("check")),
            "the panicked job's span must still record (guard drops in unwind)"
        );
        let stats_span = execs
            .iter()
            .find(|s| s.detail.contains("stats"))
            .expect("follow-up request records a span");
        assert_eq!(
            stats_span.depth, 0,
            "depth rebalances after the panic unwind"
        );
    }

    /// The slow-elaboration log records served requests over the
    /// threshold, slowest first, with their dominating check units: those
    /// the request itself elaborated.
    #[test]
    fn slow_log_records_over_threshold_requests() {
        let e = Engine::start(EngineConfig {
            workers: 1,
            snapshot_path: None,
            slow_threshold: Duration::ZERO, // everything is "slow"
            slow_log_capacity: 4,
            // One scheduler thread: every unit time is a share of the
            // request's own wall time.
            sched_workers: 1,
            ..EngineConfig::default()
        });
        // Stats carries no ledger → empty units; still logged.
        e.run(Request::Stats).unwrap();
        let log = e.slow_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].label, "stats");
        assert!(log[0].units.is_empty());
        // More requests than capacity: the log keeps the top-N, sorted.
        for _ in 0..6 {
            e.run(Request::Stats).unwrap();
        }
        let log = e.slow_log();
        assert_eq!(log.len(), 4, "log truncates to capacity");
        assert!(
            log.windows(2).all(|w| w[0].duration >= w[1].duration),
            "slowest first"
        );
        assert_eq!(e.metrics().queue_depth, 0);

        // A lattice build lists units of the variants it elaborated: all
        // of them. A redefine lists only the re-run variant's, not the
        // times its memo-served variants recorded in the build.
        let ledger = |r: Response| match r {
            Response::Lattice { ledger, .. } => ledger,
            other => panic!("expected a lattice reply, got {other:?}"),
        };
        let built = ledger(e.run(Request::lattice_full()).unwrap());
        let redefined = ledger(
            e.run(Request::Redefine {
                family: "STLCFix".into(),
                field: "typesafe".into(),
                features: families_stlc::Feature::all().to_vec(),
            })
            .unwrap(),
        );
        let fix = redefined
            .families()
            .iter()
            .find(|f| f.name.as_str() == "STLCFix")
            .expect("STLCFix is a variant");
        let log = e.slow_log();
        for (label, own) in [
            ("lattice[Fix+Prod+Sum+Isorec]", built.merged()),
            (
                "redefine STLCFix.typesafe[Fix+Prod+Sum+Isorec]",
                &fix.ledger,
            ),
        ] {
            let entry = log.iter().find(|s| s.label == label).expect(label);
            assert_eq!(entry.units.len(), 3, "{label}");
            for (unit, time) in &entry.units {
                assert_eq!(own.unit_time(unit), Some(*time), "{label}: {unit}");
                assert!(
                    *time <= entry.duration,
                    "{label}: {unit} took {time:?} of {:?}",
                    entry.duration
                );
            }
        }
        e.shutdown().unwrap();
    }

    /// Templates: registration pre-parses, the first run elaborates, and
    /// later runs (and `template_response`) serve the memoized response.
    #[test]
    fn templates_memoize_first_success() {
        let e = Engine::start(EngineConfig {
            workers: 1,
            snapshot_path: None,
            ..EngineConfig::default()
        });
        let src = "Family A.\n  FInductive num := n_zero | n_one.\n  \
                   FDefinition one : num := n_one.\nEnd A.\nCheck A.one.\n";
        let req = check(src);
        let digest = e.register_template(req.clone()).unwrap();
        assert_eq!(digest, req.dedup_key().unwrap());
        assert!(e.has_template(digest));
        assert!(
            e.template_response(digest).is_none(),
            "no memo before the first run"
        );
        // Re-registration is idempotent.
        assert_eq!(e.register_template(req).unwrap(), digest);

        let first = e.run(Request::RunTemplate { digest }).unwrap();
        let outputs = match &first {
            Response::Checked { outputs, .. } => outputs.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert!(e.template_response(digest).is_some(), "memoized");
        let again = e.run(Request::RunTemplate { digest }).unwrap();
        match again {
            Response::Checked { outputs: o2, .. } => assert_eq!(o2, outputs),
            other => panic!("unexpected {other:?}"),
        }
        e.shutdown().unwrap();
    }

    /// Untemplatable requests and unknown digests fail cleanly.
    #[test]
    fn template_registration_rejects_untemplatable() {
        let e = Engine::start(EngineConfig {
            workers: 1,
            snapshot_path: None,
            ..EngineConfig::default()
        });
        assert!(matches!(
            e.register_template(Request::Stats),
            Err(EngineError::Failed(_))
        ));
        assert!(matches!(
            e.register_template(Request::RunTemplate { digest: 7 }),
            Err(EngineError::Failed(_))
        ));
        // A CheckSource that fails to parse is rejected at registration.
        assert!(matches!(
            e.register_template(check("NotVernacular!!")),
            Err(EngineError::Failed(_))
        ));
        // Submitting an unregistered digest fails, not panics.
        assert!(matches!(
            e.run(Request::RunTemplate { digest: 0xdead }),
            Err(EngineError::Failed(_))
        ));
        e.shutdown().unwrap();
    }

    /// `on_done` fires exactly once whether registered before or after
    /// completion, and `try_take` observes the published result.
    #[test]
    fn on_done_fires_before_and_after_completion() {
        use std::sync::mpsc;
        let e = Engine::start(EngineConfig {
            workers: 1,
            snapshot_path: None,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        let t = e.submit(Request::Stats).unwrap();
        let tx2 = tx.clone();
        t.on_done(move || tx2.send("first").unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)).unwrap(), "first");
        assert!(matches!(t.try_take(), Some(Ok(Response::Stats { .. }))));
        // Registered after completion: runs inline.
        t.on_done(move || tx.send("late").unwrap());
        assert_eq!(rx.try_recv().unwrap(), "late");
        e.shutdown().unwrap();
    }

    /// The registry keys a family by its source digest: a `Redefine`
    /// re-proves `STLCFix` from the same merged source, so the family
    /// the lattice build registered stays registered, signature `Arc`
    /// and all, and nothing is rendered again.
    #[test]
    fn a_redefine_keeps_the_registered_signature_of_an_unchanged_source() {
        let e = Engine::start(EngineConfig {
            workers: 1,
            snapshot_path: None,
            ..EngineConfig::default()
        });
        let sig = |e: &Engine| {
            let families = e.shared.families.lock().unwrap();
            Arc::clone(&families["STLCFix"].sig)
        };
        let features = families_stlc::Feature::all().to_vec();
        e.run(Request::BuildLattice {
            features: features.clone(),
        })
        .unwrap();
        let built = sig(&e);
        let reply = e
            .run(Request::Redefine {
                family: "STLCFix".into(),
                field: "typesafe".into(),
                features,
            })
            .unwrap();
        assert!(matches!(reply, Response::Lattice { .. }));
        assert!(Arc::ptr_eq(&built, &sig(&e)));
        e.shutdown().unwrap();
    }

    /// REVIEW regression (medium): a panic during elaboration is caught,
    /// published as `Failed`, and the worker keeps serving.
    #[test]
    fn worker_panic_is_contained_and_published() {
        let e = Engine::start(EngineConfig {
            workers: 1,
            snapshot_path: None,
            ..EngineConfig::default()
        });
        e.shared
            .panic_marker
            .lock()
            .unwrap()
            .replace("boom".to_string());
        match e.run(check("boom")) {
            Err(EngineError::Failed(msg)) => {
                assert!(msg.contains("panicked"), "got: {msg}");
                assert!(msg.contains("injected test panic"), "got: {msg}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(e.metrics().failed, 1);
        // The sole worker survived the panic and still serves requests.
        assert!(e.run(Request::Stats).is_ok());
        assert_eq!(e.inflight_len(), 0, "the panicked job was retired");
        e.shutdown().unwrap();
    }
}
