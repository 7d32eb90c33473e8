//! A std-only work-stealing scheduler for elaboration task DAGs.
//!
//! The parallel lattice build used to fan each arity *wave* out over
//! scoped threads with a full barrier between waves: every worker idled
//! until the slowest variant of the wave finished. This module replaces
//! the barrier with the real dependency structure: each unit of work (one
//! family field check, one variant finalization) is a **node** of a
//! [`TaskDag`], edges say "must complete before", and [`TaskDag::run`]
//! executes the graph on a pool of workers with per-worker deques and
//! work stealing — a node becomes runnable the instant its last
//! predecessor completes, regardless of what the rest of its wave is
//! doing.
//!
//! Determinism is **not** the scheduler's job: callers make node payloads
//! order-independent (the lattice build gives every variant a read set
//! and environment derived from its DAG ancestors only, and commits
//! results in canonical order after the run). The scheduler only
//! guarantees that each node runs exactly once, after all its
//! predecessors, and that the first error aborts the run promptly.
//!
//! Scheduling behavior:
//!
//! * each worker owns a deque; nodes it makes ready are pushed to its own
//!   deque and popped LIFO (keeping a variant's field chain hot on one
//!   worker), while idle workers steal FIFO from victims round-robin —
//!   the classic work-stealing discipline;
//! * in-degree-zero nodes seed the deques round-robin;
//! * a cycle is a *loud* failure: [`TaskDag::validate`] (always run first)
//!   returns a [`CycleDiagnostic`] naming the nodes on an actual cycle,
//!   so a mis-built graph diagnoses itself instead of hanging;
//! * the run is instrumented through [`trace`]: a `fpop.sched.node` span
//!   per node and a ready-queue-depth gauge the caller passes in; the
//!   per-worker executed/steal counts and the DAG shape (nodes, edges,
//!   critical-path length) come back in [`RunStats`], which
//!   [`RunStats::record`] writes into the caller's registry.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use trace::{Gauge, Registry};

/// Reads the scheduler worker count from the `FPOP_SCHED_WORKERS`
/// environment variable, falling back to the machine's available
/// parallelism. This is the knob the CI contention matrix and the bench
/// thread-count series turn.
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("FPOP_SCHED_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A directed acyclic graph of schedulable tasks. Nodes are added with
/// [`TaskDag::add_node`] (returning dense ids), edges with
/// [`TaskDag::add_edge`]; [`TaskDag::run`] validates and executes.
#[derive(Default, Debug)]
pub struct TaskDag {
    labels: Vec<String>,
    succs: Vec<Vec<usize>>,
    indegree: Vec<usize>,
    edges: usize,
}

/// Diagnostic for a cyclic task graph: the labels of one actual cycle, in
/// edge order. Rendered loudly by `Display` — this is the error a caller
/// sees instead of a hang.
#[derive(Clone, Debug)]
pub struct CycleDiagnostic {
    /// Labels of the nodes on the cycle, in edge order (the last node has
    /// an edge back to the first).
    pub cycle: Vec<String>,
}

impl std::fmt::Display for CycleDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task DAG contains a dependency cycle through {} node(s): {} -> (back to start); \
             refusing to schedule",
            self.cycle.len(),
            self.cycle.join(" -> ")
        )
    }
}

impl std::error::Error for CycleDiagnostic {}

/// Why a [`TaskDag::run`] call failed.
#[derive(Debug)]
pub enum SchedError<E> {
    /// The graph is cyclic; nothing was executed.
    Cycle(CycleDiagnostic),
    /// A task returned an error; the run aborted without starting new
    /// nodes (in-flight nodes on other workers finish first).
    Task {
        /// Node id of the failing task.
        node: usize,
        /// Label of the failing task.
        label: String,
        /// The task's own error.
        error: E,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for SchedError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Cycle(c) => c.fmt(f),
            SchedError::Task { label, error, .. } => {
                write!(f, "task {label} failed: {error}")
            }
        }
    }
}

/// Per-run observability payload returned by [`TaskDag::run`].
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Nodes executed by each worker.
    pub executed: Vec<u64>,
    /// Successful steals performed by each worker.
    pub steals: Vec<u64>,
    /// Total nodes in the graph.
    pub nodes: usize,
    /// Total edges in the graph.
    pub edges: usize,
    /// Longest dependency chain, in nodes (the parallelism ceiling:
    /// wall-clock can never beat the critical path).
    pub critical_path: usize,
}

impl TaskDag {
    /// An empty graph.
    pub fn new() -> TaskDag {
        TaskDag::default()
    }

    /// Adds a node; the label shows up in spans, diagnostics and errors.
    pub fn add_node(&mut self, label: impl Into<String>) -> usize {
        self.labels.push(label.into());
        self.succs.push(Vec::new());
        self.indegree.push(0);
        self.labels.len() - 1
    }

    /// Adds a "must complete before" edge `from -> to`.
    ///
    /// # Panics
    ///
    /// On out-of-range ids or a self-edge (a bug in graph construction,
    /// not a runtime condition).
    pub fn add_edge(&mut self, from: usize, to: usize) {
        assert!(from < self.labels.len() && to < self.labels.len());
        assert_ne!(from, to, "self-edge in task DAG");
        self.succs[from].push(to);
        self.indegree[to] += 1;
        self.edges += 1;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// The label of node `n`.
    pub fn label(&self, n: usize) -> &str {
        &self.labels[n]
    }

    /// Kahn's algorithm; returns a topological order, or a loud
    /// [`CycleDiagnostic`] naming an actual cycle.
    pub fn validate(&self) -> Result<Vec<usize>, CycleDiagnostic> {
        let n = self.node_count();
        let mut indeg = self.indegree.clone();
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in &self.succs[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        if order.len() == n {
            return Ok(order);
        }
        // Extract one actual cycle from the residual graph (every
        // remaining node has residual in-degree > 0, so walking
        // successors restricted to remaining nodes must revisit).
        let remaining: Vec<bool> = (0..n).map(|i| indeg[i] > 0).collect();
        let start = (0..n).find(|&i| remaining[i]).expect("cycle exists");
        let mut seen_at = vec![usize::MAX; n];
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            if seen_at[cur] != usize::MAX {
                let cycle = path[seen_at[cur]..]
                    .iter()
                    .map(|&i: &usize| self.labels[i].clone())
                    .collect();
                return Err(CycleDiagnostic { cycle });
            }
            seen_at[cur] = path.len();
            path.push(cur);
            cur = *self.succs[cur]
                .iter()
                .find(|&&v| remaining[v])
                .expect("residual node keeps a residual successor");
        }
    }

    /// Length (in nodes) of the longest dependency chain. Returns 0 for a
    /// cyclic or empty graph.
    pub fn critical_path(&self) -> usize {
        let Ok(order) = self.validate() else { return 0 };
        let mut depth = vec![1usize; self.node_count()];
        let mut best = if self.node_count() == 0 { 0 } else { 1 };
        for &u in &order {
            for &v in &self.succs[u] {
                depth[v] = depth[v].max(depth[u] + 1);
                best = best.max(depth[v]);
            }
        }
        best
    }

    /// Executes the graph on `workers` threads (clamped to at least 1).
    /// `exec` runs each node exactly once, after all its predecessors;
    /// the first task error aborts the run. With one worker the nodes run
    /// on the calling thread in topological order — no thread machinery.
    /// With more, the run adds the nodes waiting in the workers' deques
    /// to `ready` while they wait, so concurrent runs can share one gauge
    /// (see [`ready_depth_gauge`]).
    pub fn run<E: Send>(
        &self,
        workers: usize,
        ready: &Gauge,
        exec: impl Fn(usize) -> Result<(), E> + Sync,
    ) -> Result<RunStats, SchedError<E>> {
        let order = self.validate().map_err(SchedError::Cycle)?;
        let workers = workers.max(1);

        if workers == 1 || self.node_count() <= 1 {
            let mut executed = 0u64;
            for &n in &order {
                let _span = trace::span!("fpop.sched.node", "node={}", self.labels[n]);
                exec(n).map_err(|error| SchedError::Task {
                    node: n,
                    label: self.labels[n].clone(),
                    error,
                })?;
                executed += 1;
            }
            return Ok(RunStats {
                executed: vec![executed],
                steals: vec![0],
                nodes: self.node_count(),
                edges: self.edge_count(),
                critical_path: self.critical_path(),
            });
        }

        let shared = Shared::new(self, workers, ready);
        std::thread::scope(|s| {
            for w in 0..workers {
                let shared = &shared;
                let exec = &exec;
                s.spawn(move || shared.worker(w, exec));
            }
        });
        // A failed run leaves nodes in the deques that no worker claimed.
        let unclaimed: usize = shared
            .deques
            .iter()
            .map(|d| d.lock().expect("sched deque").len())
            .sum();
        ready.add(-(unclaimed as i64));
        if let Some((node, error)) = shared.error.into_inner().expect("sched error lock") {
            return Err(SchedError::Task {
                node,
                label: self.labels[node].clone(),
                error,
            });
        }
        Ok(RunStats {
            executed: shared
                .executed
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            steals: shared
                .steals
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            nodes: self.node_count(),
            edges: self.edge_count(),
            critical_path: self.critical_path(),
        })
    }
}

/// The `fpop_sched_ready_depth` gauge of `registry`, for [`TaskDag::run`].
pub fn ready_depth_gauge(registry: &Registry) -> Arc<Gauge> {
    registry.gauge(
        "fpop_sched_ready_depth",
        "DAG nodes ready to run but not yet claimed",
    )
}

impl RunStats {
    /// Records this run in `registry`: the shape gauges of the last run
    /// (`fpop_sched_dag_nodes`, `fpop_sched_dag_edges`,
    /// `fpop_sched_critical_path`) and the per-worker
    /// `fpop_sched_worker_<w>_{executed,steals}_total` counters.
    pub fn record(&self, registry: &Registry) {
        let shape = [
            (
                "fpop_sched_dag_nodes",
                "task-DAG node count of the last run",
                self.nodes,
            ),
            (
                "fpop_sched_dag_edges",
                "task-DAG edge count of the last run",
                self.edges,
            ),
            (
                "fpop_sched_critical_path",
                "longest dependency chain (nodes) of the last run",
                self.critical_path,
            ),
        ];
        for (name, help, v) in shape {
            registry.gauge(name, help).set(v as i64);
        }
        for (w, (&executed, &steals)) in self.executed.iter().zip(&self.steals).enumerate() {
            registry
                .counter(
                    &format!("fpop_sched_worker_{w}_executed_total"),
                    "DAG nodes executed by this worker",
                )
                .add(executed);
            registry
                .counter(
                    &format!("fpop_sched_worker_{w}_steals_total"),
                    "successful steals by this worker",
                )
                .add(steals);
        }
    }
}

/// Parking state shared by the workers, guarded by one mutex.
struct Park {
    /// Bumped whenever new work is pushed; a worker that found nothing
    /// re-checks this before sleeping (lost-wakeup guard).
    generation: u64,
    /// All nodes completed.
    done: bool,
}

struct Shared<'d, E> {
    dag: &'d TaskDag,
    indeg: Vec<AtomicUsize>,
    deques: Vec<Mutex<VecDeque<usize>>>,
    park: Mutex<Park>,
    cv: Condvar,
    pending: AtomicUsize,
    stop: AtomicBool,
    error: Mutex<Option<(usize, E)>>,
    /// Nodes sitting in the deques, claimed by no worker yet.
    ready: &'d Gauge,
    executed: Vec<AtomicU64>,
    steals: Vec<AtomicU64>,
}

impl<'d, E: Send> Shared<'d, E> {
    fn new(dag: &'d TaskDag, workers: usize, ready_gauge: &'d Gauge) -> Shared<'d, E> {
        let deques: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        let mut ready = 0i64;
        for (i, d) in (0..dag.node_count())
            .filter(|&i| dag.indegree[i] == 0)
            .enumerate()
        {
            deques[i % workers]
                .lock()
                .expect("sched deque")
                .push_back(d);
            ready += 1;
        }
        ready_gauge.add(ready);
        Shared {
            dag,
            indeg: dag.indegree.iter().map(|&d| AtomicUsize::new(d)).collect(),
            deques,
            park: Mutex::new(Park {
                generation: 0,
                done: false,
            }),
            cv: Condvar::new(),
            pending: AtomicUsize::new(dag.node_count()),
            stop: AtomicBool::new(false),
            error: Mutex::new(None),
            ready: ready_gauge,
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            steals: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn pop_local(&self, w: usize) -> Option<usize> {
        self.deques[w].lock().expect("sched deque").pop_back()
    }

    fn steal(&self, w: usize) -> Option<usize> {
        let n = self.deques.len();
        for i in 1..n {
            let victim = (w + i) % n;
            if let Some(node) = self.deques[victim].lock().expect("sched deque").pop_front() {
                self.steals[w].fetch_add(1, Ordering::Relaxed);
                return Some(node);
            }
        }
        None
    }

    fn push_ready(&self, w: usize, node: usize) {
        self.deques[w].lock().expect("sched deque").push_back(node);
        self.ready.add(1);
        let mut park = self.park.lock().expect("sched park");
        park.generation = park.generation.wrapping_add(1);
        drop(park);
        self.cv.notify_one();
    }

    fn wake_all(&self) {
        let mut park = self.park.lock().expect("sched park");
        park.generation = park.generation.wrapping_add(1);
        drop(park);
        self.cv.notify_all();
    }

    fn worker(&self, w: usize, exec: &(impl Fn(usize) -> Result<(), E> + Sync)) {
        loop {
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            let gen_before = self.park.lock().expect("sched park").generation;
            let Some(node) = self.pop_local(w).or_else(|| self.steal(w)) else {
                let mut park = self.park.lock().expect("sched park");
                if park.done || self.stop.load(Ordering::Acquire) {
                    return;
                }
                if park.generation == gen_before {
                    park = self.cv.wait(park).expect("sched park");
                }
                if park.done {
                    return;
                }
                continue;
            };
            self.ready.add(-1);
            let result = {
                let _span = trace::span!("fpop.sched.node", "node={}", self.dag.labels[node]);
                exec(node)
            };
            self.executed[w].fetch_add(1, Ordering::Relaxed);
            match result {
                Err(e) => {
                    let mut err = self.error.lock().expect("sched error lock");
                    if err.is_none() {
                        *err = Some((node, e));
                    }
                    drop(err);
                    self.stop.store(true, Ordering::Release);
                    self.wake_all();
                    return;
                }
                Ok(()) => {
                    for &s in &self.dag.succs[node] {
                        if self.indeg[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                            self.push_ready(w, s);
                        }
                    }
                    if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                        self.park.lock().expect("sched park").done = true;
                        self.cv.notify_all();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Runs a diamond a->{b,c}->d and records completion order.
    fn run_diamond(workers: usize) -> Vec<usize> {
        let mut dag = TaskDag::new();
        let a = dag.add_node("a");
        let b = dag.add_node("b");
        let c = dag.add_node("c");
        let d = dag.add_node("d");
        dag.add_edge(a, b);
        dag.add_edge(a, c);
        dag.add_edge(b, d);
        dag.add_edge(c, d);
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        let stats = dag
            .run(workers, &Gauge::new(), move |n| {
                l.lock().unwrap().push(n);
                Ok::<(), ()>(())
            })
            .expect("diamond runs");
        assert_eq!(stats.executed.iter().sum::<u64>(), 4);
        assert_eq!(stats.nodes, 4);
        assert_eq!(stats.edges, 4);
        assert_eq!(stats.critical_path, 3);
        Arc::try_unwrap(log).unwrap().into_inner().unwrap()
    }

    #[test]
    fn diamond_respects_dependencies() {
        for workers in [1, 2, 4] {
            let order = run_diamond(workers);
            assert_eq!(order.len(), 4);
            let pos = |n: usize| order.iter().position(|&x| x == n).unwrap();
            assert!(pos(0) < pos(1) && pos(0) < pos(2));
            assert!(pos(1) < pos(3) && pos(2) < pos(3));
        }
    }

    #[test]
    fn cycle_is_a_loud_diagnostic_not_a_hang() {
        let mut dag = TaskDag::new();
        let a = dag.add_node("alpha");
        let b = dag.add_node("beta");
        let c = dag.add_node("gamma");
        dag.add_edge(a, b);
        dag.add_edge(b, c);
        dag.add_edge(c, a);
        let err = dag.run(4, &Gauge::new(), |_| Ok::<(), ()>(())).unwrap_err();
        match err {
            SchedError::Cycle(diag) => {
                let msg = diag.to_string();
                assert!(msg.contains("cycle"), "{msg}");
                assert!(
                    msg.contains("alpha") && msg.contains("beta") && msg.contains("gamma"),
                    "diagnostic must name the nodes on the cycle: {msg}"
                );
                assert_eq!(diag.cycle.len(), 3);
            }
            SchedError::Task { .. } => panic!("expected cycle error"),
        }
    }

    #[test]
    fn self_contained_cycle_inside_larger_graph_is_found() {
        let mut dag = TaskDag::new();
        let ok1 = dag.add_node("ok1");
        let ok2 = dag.add_node("ok2");
        dag.add_edge(ok1, ok2);
        let x = dag.add_node("x");
        let y = dag.add_node("y");
        dag.add_edge(x, y);
        dag.add_edge(y, x);
        let diag = dag.validate().unwrap_err();
        assert_eq!(diag.cycle.len(), 2);
        assert!(diag.cycle.contains(&"x".to_string()));
    }

    #[test]
    fn task_error_aborts_promptly() {
        // A long chain behind the failing node must not run.
        let mut dag = TaskDag::new();
        let bad = dag.add_node("bad");
        let mut prev = bad;
        for i in 0..16 {
            let n = dag.add_node(format!("after{i}"));
            dag.add_edge(prev, n);
            prev = n;
        }
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let err = dag
            .run(4, &Gauge::new(), move |n| {
                r.fetch_add(1, Ordering::Relaxed);
                if n == 0 {
                    Err("boom")
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        match err {
            SchedError::Task { label, error, .. } => {
                assert_eq!(label, "bad");
                assert_eq!(error, "boom");
            }
            SchedError::Cycle(_) => panic!("expected task error"),
        }
        assert_eq!(ran.load(Ordering::Relaxed), 1, "successors must not run");
    }

    #[test]
    fn failed_run_returns_its_ready_nodes_to_the_gauge() {
        // Ten independent roots and every task fails: each worker claims
        // at most one before the run stops, so most stay in the deques.
        let mut dag = TaskDag::new();
        for i in 0..10 {
            dag.add_node(format!("root{i}"));
        }
        let ready = Gauge::new();
        ready.set(5); // another run's ready nodes on the same gauge
        assert!(dag.run(2, &ready, |_| Err::<(), _>("boom")).is_err());
        assert_eq!(ready.get(), 5, "only the other run's nodes remain");
    }

    #[test]
    fn stress_wide_random_dag_under_8_workers() {
        // 40 chains of 8 nodes with cross-links; every node must run
        // exactly once with all predecessors first, under contention.
        let mut dag = TaskDag::new();
        let mut chains = Vec::new();
        for c in 0..40 {
            let mut chain = Vec::new();
            for i in 0..8 {
                let n = dag.add_node(format!("c{c}n{i}"));
                if i > 0 {
                    dag.add_edge(chain[i - 1], n);
                }
                chain.push(n);
            }
            chains.push(chain);
        }
        // Deterministic pseudo-random cross edges (seeded LCG).
        let mut state = 0xdead_beefu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..64 {
            let a = next() % 40;
            let b = next() % 40;
            let i = next() % 7;
            if a != b {
                dag.add_edge(chains[a][i], chains[b][i + 1]);
            }
        }
        if dag.validate().is_err() {
            // The LCG is fixed, so this branch is stable: regenerate the
            // expectation if the constants ever change.
            panic!("stress DAG construction must be acyclic");
        }
        let total = dag.node_count();
        let done: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        let ready = Gauge::new();
        let stats = dag
            .run(8, &ready, |n| {
                done[n].fetch_add(1, Ordering::SeqCst);
                Ok::<(), ()>(())
            })
            .expect("stress DAG runs");
        assert_eq!(stats.executed.iter().sum::<u64>() as usize, total);
        for d in &done {
            assert_eq!(d.load(Ordering::SeqCst), 1, "each node runs exactly once");
        }
        assert_eq!(ready.get(), 0, "every ready node was claimed");
        // Recording the run into a registry reproduces its counts.
        let reg = Registry::new();
        stats.record(&reg);
        let executed: u64 = (0..8)
            .map(|w| {
                reg.counter_value(&format!("fpop_sched_worker_{w}_executed_total"))
                    .expect("one counter per worker")
            })
            .sum();
        assert_eq!(executed as usize, total);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let dag = TaskDag::new();
        let stats = dag.run(4, &Gauge::new(), |_| Ok::<(), ()>(())).unwrap();
        assert_eq!(stats.nodes, 0);
        assert_eq!(stats.critical_path, 0);
        let mut dag = TaskDag::new();
        dag.add_node("only");
        let stats = dag.run(4, &Gauge::new(), |_| Ok::<(), ()>(())).unwrap();
        assert_eq!(stats.executed.iter().sum::<u64>(), 1);
        assert_eq!(stats.critical_path, 1);
    }

    #[test]
    fn default_workers_reads_env() {
        // Only exercised when unset or valid; setting env vars in tests
        // races other tests, so just sanity-check the fallback is >= 1.
        assert!(default_workers() >= 1);
    }
}
