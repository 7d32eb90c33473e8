//! The check session: a thread-safe, content-addressed proof cache shared
//! across *all* family elaborations in a run.
//!
//! Before this layer existed, proof reuse stopped at the boundary of one
//! [`crate::universe::FamilyUniverse`]: every universe rebuilt its own
//! cache, so rebuilding the 15-variant Venn lattice (or the 31-variant
//! extended one) re-paid base-field proof work per build — the copy-paste
//! pathology the paper argues against, reintroduced one level up. A
//! [`Session`] makes reuse an architectural property:
//!
//! * it is `Send + Sync` and cheap to share (`Arc<Session>`), so any number
//!   of universes — including universes living on different threads, as in
//!   the parallel lattice build — draw from one content-addressed store;
//! * proofs are keyed on a stable hash of their statement, script and
//!   late-bound environment snapshot (overridable-definition bodies and,
//!   for closed-world proofs, the constructor lists of every inspected
//!   type), then verified structurally before reuse, so a hit is exactly
//!   the paper's late-binding soundness argument in operational form;
//! * hits, misses and inserts are counted in the session's own metrics
//!   registry ([`Session::registry`], read back as a [`StatsSnapshot`]),
//!   making the Section 4 sharing claim *observable*: the
//!   `check_session` example and `EXPERIMENTS.md` report the series.
//!
//! Writes go through a [`CacheTxn`]: a transaction that reads the shared
//! store but buffers its own inserts, committing them atomically on
//! success. Sequentially this reproduces the old in-place behavior
//! (commit-per-elaboration, nothing retained from failed elaborations);
//! in the parallel lattice build it gives snapshot semantics — every
//! variant sees exactly the proofs discharged by its DAG ancestors,
//! independent of sibling scheduling, which is what makes the parallel
//! build's ledgers deterministic and equal to the sequential build's.
//!
//! Two refinements serve the task-DAG parallel build:
//!
//! * **The shared store is sharded.** Instead of one `RwLock<ProofCache>`
//!   (a serialization point every worker contended on), the session holds
//!   N independently locked shards routed by the entry's FNV-64 bucket
//!   key (`key % N`). Sharding is *observably invisible*: bucket keys,
//!   okeys, export order and snapshot bytes are identical for any shard
//!   count — the golden-key regression tests pin this.
//! * **Transactions can carry a read set.** [`Session::begin_with_reads`]
//!   opens a transaction that additionally consults a list of committed
//!   overlay *fragments* (`Arc<ProofCache>`) — the uncommitted results of
//!   exactly the DAG ancestors of a variant. A worker therefore sees its
//!   ancestors' proofs before any global commit happens, and nothing
//!   from concurrently scheduled non-ancestors, so hit/miss accounting
//!   is a function of the DAG alone, not of scheduling.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use objlang::ident::Symbol;
use objlang::intern::{fnv_step, fnv_str, sym_digest, FNV_OFFSET};
use objlang::proof::{ProvedSequent, Sequent};
use objlang::syntax::Prop;
use objlang::tactic::Tactic;
use trace::{Counter, Registry};

use crate::family::Script;

/// Cross-family proof cache (content-addressed).
///
/// Reuse is sound for open-world proofs because the kernel forbids them
/// from depending on the *closedness* of any extensible type: every step
/// valid in the base view stays valid in any derived view, which is the
/// paper's late-binding soundness argument in operational form.
/// Closed-world (reprove-on-extend) entries key on the content of the
/// types they inspect, so any further binding forces a re-run.
#[derive(Clone, Default, Debug)]
pub struct ProofCache {
    theorems: HashMap<u64, Vec<TheoremEntry>>,
    cases: HashMap<u64, Vec<CaseEntry>>,
}

#[derive(Clone, Debug)]
struct TheoremEntry {
    statement: Prop,
    script: Script,
    closed_world_key: Option<Vec<(Symbol, Vec<Symbol>)>>,
    /// Overridable-definition snapshot key (stable across processes, see
    /// [`crate::stable`]); retained so the entry can be re-bucketed when a
    /// snapshot is imported into a fresh process.
    okey: u64,
}

#[derive(Clone, Debug)]
struct CaseEntry {
    sequent: Sequent,
    script: Script,
    proof: ProvedSequent,
    /// See [`TheoremEntry::okey`].
    okey: u64,
}

/// One portable proof-cache record, as produced by [`Session::export`] and
/// consumed by [`Session::import`]. This is the *logical* snapshot format:
/// the engine crate (`fpopd`) owns the binary encoding. Symbols inside the
/// payload re-intern on import, and bucket hashes are recomputed in the
/// importing process, so an export is valid across process boundaries.
#[derive(Clone, Debug, PartialEq)]
pub enum ExportEntry {
    /// A cached theorem proof (open-world or reprove-on-extend).
    Theorem {
        /// The proven statement.
        statement: Prop,
        /// The tactic script that proved it.
        script: Vec<Tactic>,
        /// For reprove-on-extend proofs: the constructor lists of every
        /// inspected type at proof time (`None` for open-world proofs).
        closed_world_key: Option<Vec<(Symbol, Vec<Symbol>)>>,
        /// Overridable-definition snapshot key (process-stable).
        okey: u64,
    },
    /// A cached induction-case proof.
    Case {
        /// The discharged sequent.
        sequent: Sequent,
        /// The tactic script that discharged it.
        script: Vec<Tactic>,
        /// Overridable-definition snapshot key (process-stable).
        okey: u64,
    },
}

// ---------------------------------------------------------------------------
// Bucket keys
//
// Cache buckets used to be keyed with `DefaultHasher` over the derived
// `Hash` impls. That was doubly wrong for this layer: the derived hashes
// cover interner *ids* (process-dependent — the same statement hashes
// differently after a snapshot warm-load, silently degrading every bucket
// into a linear scan of a mis-filed entry list), and SipHash re-walks the
// whole syntax tree per probe. The keys below are FNV-64 compositions of
// the *precomputed* content digests the hash-consing arena caches per
// node (`Prop::digest`, `Sort::digest`, `sym_digest`) and of the script
// digest, which each `Script` computes once, when the script is built.
// A bucket key is therefore O(hyps) with no term-tree traversal and no
// script rendering, and identical content yields an identical key in
// every process, forever. The golden test at the bottom of this file pins
// the key schema.
// ---------------------------------------------------------------------------

/// Content digest of a sequent: vars, hypotheses (names included — scripts
/// refer to hypotheses by name), then the goal, all length-prefixed.
fn sequent_digest(seq: &Sequent) -> u64 {
    let mut h = fnv_step(FNV_OFFSET, seq.vars.len() as u64);
    for (v, s) in &seq.vars {
        h = fnv_step(h, sym_digest(*v));
        h = fnv_step(h, s.digest());
    }
    h = fnv_step(h, seq.hyps.len() as u64);
    for (n, p) in &seq.hyps {
        h = fnv_step(h, sym_digest(*n));
        h = fnv_step(h, p.digest());
    }
    fnv_step(h, seq.goal.digest())
}

/// Content digest of a tactic script. `Tactic`'s `Debug` rendering is
/// structural and prints symbols and terms by *name* (the export codec
/// already relies on this for its total order), so hashing it is hashing
/// content, not process state. [`Script`] calls it once per script and
/// stores the result; the bucket keys read that stored word.
pub(crate) fn script_digest(script: &[Tactic]) -> u64 {
    let mut h = fnv_step(FNV_OFFSET, script.len() as u64);
    for t in script {
        h = fnv_step(h, fnv_str(&format!("{t:?}")));
    }
    h
}

/// Bucket key for a theorem entry.
fn theorem_key(statement: &Prop, script: &Script, okey: u64) -> u64 {
    let h = fnv_step(FNV_OFFSET, statement.digest());
    let h = fnv_step(h, script.digest());
    fnv_step(h, okey)
}

/// Bucket key for an induction-case entry.
fn case_key(seq: &Sequent, script: &Script, okey: u64) -> u64 {
    let h = fnv_step(FNV_OFFSET, sequent_digest(seq));
    let h = fnv_step(h, script.digest());
    fnv_step(h, okey)
}

impl ProofCache {
    /// A fresh cache.
    pub fn new() -> ProofCache {
        ProofCache::default()
    }

    /// Number of cached proofs (theorems + induction cases).
    pub fn len(&self) -> usize {
        self.theorems.values().map(Vec::len).sum::<usize>()
            + self.cases.values().map(Vec::len).sum::<usize>()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.theorems.is_empty() && self.cases.is_empty()
    }

    /// Theorem lookup with the bucket key precomputed (the key doubles
    /// as the shard selector, so hot paths compute it exactly once per
    /// transaction lookup).
    fn lookup_theorem_keyed(
        &self,
        h: u64,
        statement: &Prop,
        script: &Script,
        cw_key: &Option<Vec<(Symbol, Vec<Symbol>)>>,
        okey: u64,
    ) -> bool {
        self.theorems.get(&h).is_some_and(|v| {
            v.iter().any(|e| {
                e.okey == okey
                    && e.statement == *statement
                    && e.script == *script
                    && e.closed_world_key == *cw_key
            })
        })
    }

    fn insert_theorem(
        &mut self,
        statement: Prop,
        script: Script,
        cw_key: Option<Vec<(Symbol, Vec<Symbol>)>>,
        okey: u64,
    ) {
        let h = theorem_key(&statement, &script, okey);
        self.insert_theorem_keyed(h, statement, script, cw_key, okey);
    }

    fn insert_theorem_keyed(
        &mut self,
        h: u64,
        statement: Prop,
        script: Script,
        cw_key: Option<Vec<(Symbol, Vec<Symbol>)>>,
        okey: u64,
    ) {
        if self.lookup_theorem_keyed(h, &statement, &script, &cw_key, okey) {
            return;
        }
        self.theorems.entry(h).or_default().push(TheoremEntry {
            statement,
            script,
            closed_world_key: cw_key,
            okey,
        });
    }

    /// Case lookup with the bucket key precomputed.
    fn lookup_case_keyed(
        &self,
        h: u64,
        seq: &Sequent,
        script: &Script,
        okey: u64,
    ) -> Option<ProvedSequent> {
        self.cases.get(&h).and_then(|v| {
            v.iter()
                .find(|e| e.okey == okey && e.sequent == *seq && e.script == *script)
                .map(|e| e.proof.clone())
        })
    }

    fn insert_case(&mut self, seq: Sequent, script: Script, proof: ProvedSequent, okey: u64) {
        let h = case_key(&seq, &script, okey);
        self.insert_case_keyed(h, seq, script, proof, okey);
    }

    fn insert_case_keyed(
        &mut self,
        h: u64,
        seq: Sequent,
        script: Script,
        proof: ProvedSequent,
        okey: u64,
    ) {
        if self.lookup_case_keyed(h, &seq, &script, okey).is_some() {
            return;
        }
        self.cases.entry(h).or_default().push(CaseEntry {
            sequent: seq,
            script,
            proof,
            okey,
        });
    }

    /// Appends every cached proof to `out` as portable [`ExportEntry`]
    /// records, in arbitrary order; callers sort with
    /// [`sort_export_entries`]. Split from the sort so the sharded
    /// session can gather from all shards and order the union *globally*
    /// — which is what keeps exports byte-identical across shard counts.
    fn collect_entries(&self, out: &mut Vec<ExportEntry>) {
        out.reserve(self.len());
        for v in self.theorems.values() {
            for e in v {
                out.push(ExportEntry::Theorem {
                    statement: e.statement.clone(),
                    script: e.script.to_vec(),
                    closed_world_key: e.closed_world_key.clone(),
                    okey: e.okey,
                });
            }
        }
        for v in self.cases.values() {
            for e in v {
                out.push(ExportEntry::Case {
                    sequent: e.sequent.clone(),
                    script: e.script.to_vec(),
                    okey: e.okey,
                });
            }
        }
    }

    /// The current per-bucket entry counts (theorems, cases) — the raw
    /// material of an [`ExportMark`]. Buckets are append-only (entries
    /// are pushed, never removed or reordered), so a count is a stable
    /// watermark into each bucket.
    fn bucket_counts(&self) -> (HashMap<u64, usize>, HashMap<u64, usize>) {
        (
            self.theorems.iter().map(|(h, v)| (*h, v.len())).collect(),
            self.cases.iter().map(|(h, v)| (*h, v.len())).collect(),
        )
    }

    /// Appends every entry added after the marked per-bucket counts to
    /// `out` (the per-shard slice of [`Session::export_since`]).
    fn collect_entries_past(
        &self,
        marked: &(HashMap<u64, usize>, HashMap<u64, usize>),
        out: &mut Vec<ExportEntry>,
    ) {
        for (h, v) in &self.theorems {
            let from = marked.0.get(h).copied().unwrap_or(0);
            for e in v.iter().skip(from) {
                out.push(ExportEntry::Theorem {
                    statement: e.statement.clone(),
                    script: e.script.to_vec(),
                    closed_world_key: e.closed_world_key.clone(),
                    okey: e.okey,
                });
            }
        }
        for (h, v) in &self.cases {
            let from = marked.1.get(h).copied().unwrap_or(0);
            for e in v.iter().skip(from) {
                out.push(ExportEntry::Case {
                    sequent: e.sequent.clone(),
                    script: e.script.to_vec(),
                    okey: e.okey,
                });
            }
        }
    }

    /// Inserts one imported entry, re-bucketing under this process's
    /// hashes. Case proofs are re-admitted as kernel evidence on the
    /// strength of the snapshot's integrity check (see
    /// [`objlang::proof::ProvedSequent::assume_checked`]).
    fn import_entry(&mut self, entry: ExportEntry) {
        match entry {
            ExportEntry::Theorem {
                statement,
                script,
                closed_world_key,
                okey,
            } => self.insert_theorem(statement, script.into(), closed_world_key, okey),
            ExportEntry::Case {
                sequent,
                script,
                okey,
            } => {
                let proof = ProvedSequent::assume_checked(sequent.clone());
                self.insert_case(sequent, script.into(), proof, okey);
            }
        }
    }
}

/// Sorts exported entries into the canonical total order: theorems then
/// cases, each ordered by okey and a process-stable rendering of the
/// *full* payload.
///
/// The key must be *total on entry content* (not a hash of part of it):
/// two distinct entries tying on the key would keep HashMap iteration
/// order, which varies across processes and would break the
/// byte-identical-export guarantee. Debug renderings are process-stable
/// here — `Symbol`'s Debug prints the interned string, never the id — and
/// injective on the payload, so the (tag, okey, rendering) triple orders
/// every distinct entry.
///
/// Public because snapshot *consumers* need the same total order: the
/// engine's `FPOPDIFF` codec re-sorts `base ∪ diff` so that applying a
/// diff reproduces the full snapshot byte-for-byte.
pub fn sort_export_entries(out: &mut [ExportEntry]) {
    out.sort_by_cached_key(|e| match e {
        ExportEntry::Theorem {
            statement,
            script,
            closed_world_key,
            okey,
        } => (
            0u8,
            *okey,
            format!("{statement:?} {script:?} {closed_world_key:?}"),
        ),
        ExportEntry::Case {
            sequent,
            script,
            okey,
        } => (1u8, *okey, format!("{sequent:?} {script:?}")),
    });
}

/// A point-in-time watermark of a session's store, as taken by
/// [`Session::mark`] and consumed by [`Session::export_since`]. The store
/// is append-only (proofs are never evicted), so a mark is just the
/// per-bucket entry count of every shard at mark time: everything past
/// those counts was added later.
///
/// Marks power snapshot *diff* shipping: a shard checkpoints a full
/// snapshot once, takes a mark, and every later checkpoint exports only
/// the entries added since — the `FPOPDIFF` delta a catching-up replica
/// applies on top of the base instead of a full restore.
#[derive(Clone, Debug, Default)]
pub struct ExportMark {
    /// Per shard: bucket key → entries present at mark time, separately
    /// for the theorem and case maps.
    shards: Vec<(HashMap<u64, usize>, HashMap<u64, usize>)>,
}

impl ExportMark {
    /// Total number of entries covered by the mark.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|(t, c)| t.values().sum::<usize>() + c.values().sum::<usize>())
            .sum()
    }

    /// Whether the mark covers an empty store.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Bucket-wise, idempotent merge of `overlay` into `into`, preserving the
/// (statement, script, okey) bucket keys of the overlay; returns the number
/// of entries actually inserted (duplicates — e.g. two workers proving the
/// same fact in parallel — are skipped).
fn merge_buckets(into: &mut ProofCache, overlay: ProofCache) -> u64 {
    let mut inserted = 0u64;
    for (h, v) in overlay.theorems {
        let bucket = into.theorems.entry(h).or_default();
        for e in v {
            let dup = bucket.iter().any(|b| {
                b.okey == e.okey
                    && b.statement == e.statement
                    && b.script == e.script
                    && b.closed_world_key == e.closed_world_key
            });
            if !dup {
                bucket.push(e);
                inserted += 1;
            }
        }
    }
    for (h, v) in overlay.cases {
        let bucket = into.cases.entry(h).or_default();
        for e in v {
            let dup = bucket
                .iter()
                .any(|b| b.okey == e.okey && b.sequent == e.sequent && b.script == e.script);
            if !dup {
                bucket.push(e);
                inserted += 1;
            }
        }
    }
    inserted
}

/// A plain, fully-public snapshot of a session's observable state — the
/// payload of the engine's `Stats` request and of monitoring endpoints.
/// It carries the store size beside the counters, so `inserts ==
/// cached_proofs` invariants are checkable from one value.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StatsSnapshot {
    /// Lookups answered from the shared store or a transaction overlay.
    pub hits: u64,
    /// Lookups that forced a fresh proof run.
    pub misses: u64,
    /// Entries committed into the shared store by transactions (warm
    /// imports are *not* counted: they represent proofs paid for by an
    /// earlier process).
    pub inserts: u64,
    /// Proofs resident in the shared store right now (committed inserts
    /// plus warm-imported entries).
    pub cached_proofs: u64,
}

impl StatsSnapshot {
    /// Hit ratio `hits / (hits + misses)`; 0 when no lookups.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A check session: the shared, thread-safe substrate of every family
/// elaboration in a run. See the module docs for the architecture.
///
/// # Example
///
/// Two universes sharing one session pay for each proof once:
///
/// ```
/// use fpop::family::FamilyDef;
/// use fpop::session::Session;
/// use fpop::universe::FamilyUniverse;
/// use objlang::sig::CtorSig;
/// use objlang::syntax::{Prop, Sort, Term};
///
/// # fn main() -> Result<(), objlang::Error> {
/// let session = Session::new();
/// let base = || {
///     FamilyDef::new("Base")
///         .inductive("t", vec![CtorSig::new("t_one", vec![])])
///         .theorem(
///             "one_exists",
///             Prop::exists("x", Sort::named("t"), Prop::eq(Term::var("x"), Term::var("x"))),
///             vec![
///                 objlang::Tactic::Exists(Term::c0("t_one")),
///                 objlang::Tactic::Reflexivity,
///             ],
///         )
/// };
///
/// // The first universe pays for the proof …
/// let mut u1 = FamilyUniverse::with_session(session.clone());
/// u1.define(base())?;
/// let cold = session.snapshot_stats();
/// assert!(cold.inserts > 0);
///
/// // … and a second universe on the same session reuses it: no new
/// // misses, no new inserts, pure cache hits.
/// let mut u2 = FamilyUniverse::with_session(session.clone());
/// u2.define(base())?;
/// let warm = session.snapshot_stats();
/// assert_eq!(warm.misses, cold.misses);
/// assert_eq!(warm.inserts, cold.inserts);
/// assert!(warm.hits > cold.hits);
/// # Ok(())
/// # }
/// ```
pub struct Session {
    /// The shared store, sharded by bucket key (`key % shards.len()`).
    /// Entry lookups and commits touch exactly one shard's lock, so
    /// DAG-parallel workers only contend when their keys collide mod N.
    shards: Box<[RwLock<ProofCache>]>,
    /// Where every layer working for this session keeps its counters,
    /// gauges and histograms (see [`Session::registry`]).
    registry: Registry,
    metrics: SessionMetrics,
    /// Session-scoped compiled-code cache for the bytecode VM — a
    /// digest-keyed shard family alongside the proof cache. Compiled
    /// code is a *derived* artifact: it is warmed when universes on this
    /// session close families, served by the engine's `eval` requests,
    /// and never exported, snapshotted, or imported (`FPOPSNAP` and the
    /// okeys are unaffected).
    code: objlang::vm::CodeCache,
    /// Incremental-recheck memo table ([`crate::incr`]): fingerprint →
    /// memoized variant elaboration. Derived data only, exactly like the
    /// code cache — never exported, snapshotted, or imported.
    incr: crate::incr::MemoStore,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("shards", &self.shards.len())
            .field("hits", &self.metrics.hits.get())
            .field("misses", &self.metrics.misses.get())
            .field("inserts", &self.metrics.inserts.get())
            .finish_non_exhaustive()
    }
}

/// Default shard count: comfortably above any realistic worker count, so
/// the probability of two workers contending on one shard stays low,
/// while keeping whole-store operations (export, snapshot) cheap.
const DEFAULT_SHARDS: usize = 16;

/// Where the elaborator looked a proof up. Each site has its own
/// `fpop_cache_<site>_{hits,misses}_total` counter pair, so an operator
/// can see *which* reuse path is paying off.
#[derive(Clone, Copy, Debug)]
pub(crate) enum LookupSite {
    /// Open-world theorem and lemma proofs (keyed on the late-bound
    /// environment).
    Theorem,
    /// Closed-world reprove-on-extend proofs (also keyed on constructor
    /// lists).
    Reprove,
    /// Per-case proofs of rule inductions.
    Induction,
    /// Per-case proofs of datatype inductions.
    DataInduction,
}

/// The session's own instruments in its registry, resolved once at
/// construction so the per-lookup path bumps a handle.
struct SessionMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    inserts: Arc<Counter>,
    /// Indexed by [`LookupSite`] (declaration order), then by hit
    /// (`[miss, hit]`).
    sites: [[Arc<Counter>; 2]; 4],
}

impl SessionMetrics {
    fn register(registry: &Registry) -> SessionMetrics {
        let site = |name: &str| {
            [
                format!("fpop_cache_{name}_misses_total"),
                format!("fpop_cache_{name}_hits_total"),
            ]
            .map(|n| registry.counter(&n, "proof-cache lookups by provenance site"))
        };
        SessionMetrics {
            hits: registry.counter(
                "fpop_session_cache_hits_total",
                "proof-cache lookups answered from the store or an overlay",
            ),
            misses: registry.counter(
                "fpop_session_cache_misses_total",
                "proof-cache lookups that forced a fresh proof run",
            ),
            inserts: registry.counter(
                "fpop_session_cache_inserts_total",
                "proofs committed into the shared store by transactions",
            ),
            sites: [
                site("theorem"),
                site("reprove"),
                site("induction"),
                site("data_induction"),
            ],
        }
    }
}

impl Session {
    /// A fresh session with an empty cache.
    pub fn new() -> Arc<Session> {
        Session::with_shards(DEFAULT_SHARDS)
    }

    /// A fresh session with an explicit shard count (clamped to ≥ 1).
    /// Exists for the sharding-invisibility regression tests — every
    /// observable behavior must be identical for any shard count.
    pub fn with_shards(n: usize) -> Arc<Session> {
        let registry = Registry::new();
        Arc::new(Session {
            shards: (0..n.max(1))
                .map(|_| RwLock::new(ProofCache::new()))
                .collect(),
            metrics: SessionMetrics::register(&registry),
            code: objlang::vm::CodeCache::counted(&registry),
            incr: crate::incr::MemoStore::new(&registry),
            registry,
        })
    }

    /// The session's metrics registry: the one place the proof cache,
    /// the elaborator, the code cache, the incremental memo, the lattice
    /// scheduler and an engine serving this session keep their counters,
    /// gauges and histograms. Its rendering is the engine's `metrics`
    /// exposition (catalog in `docs/OBSERVABILITY.md`).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The session-scoped compiled-code cache of the bytecode VM
    /// ([`objlang::vm`]). Universes warm it when families close their
    /// late-bound recursions; the engine's `eval` requests evaluate
    /// against it via `objlang::eval::eval_with_cache`. Derived data
    /// only — never part of exports or snapshots.
    pub fn code_cache(&self) -> &objlang::vm::CodeCache {
        &self.code
    }

    /// The session-scoped incremental-recheck memo table ([`crate::incr`]):
    /// fingerprint-keyed outcomes of variant elaborations, consulted by the
    /// lattice builders for early-cutoff replays. Derived data only —
    /// never part of exports or snapshots.
    pub fn incr_memos(&self) -> &crate::incr::MemoStore {
        &self.incr
    }

    /// Number of shards in the shared store.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard responsible for bucket key `h`.
    fn shard(&self, h: u64) -> &RwLock<ProofCache> {
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Opens a transaction: reads see the shared store as of now (plus the
    /// transaction's own inserts); writes are buffered until
    /// [`CacheTxn::commit`].
    pub fn begin(self: &Arc<Session>) -> CacheTxn {
        self.begin_with_reads(Vec::new())
    }

    /// Opens a transaction that additionally consults `reads` — committed
    /// overlay fragments of this transaction's DAG ancestors (see the
    /// module docs). Lookup order: own overlay, then the fragments in
    /// order, then the shared store.
    pub fn begin_with_reads(self: &Arc<Session>, reads: Vec<Arc<ProofCache>>) -> CacheTxn {
        CacheTxn {
            session: Arc::clone(self),
            reads,
            overlay: ProofCache::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of proofs currently in the shared store.
    pub fn cached_proofs(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("session cache poisoned").len())
            .sum()
    }

    /// One coherent snapshot of counters *and* store size (the counters
    /// are read while holding read locks on *every* shard, so the values
    /// are mutually consistent with respect to committed transactions).
    pub fn snapshot_stats(&self) -> StatsSnapshot {
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.read().expect("session cache poisoned"))
            .collect();
        StatsSnapshot {
            hits: self.metrics.hits.get(),
            misses: self.metrics.misses.get(),
            inserts: self.metrics.inserts.get(),
            cached_proofs: guards.iter().map(|g| g.len() as u64).sum(),
        }
    }

    /// Exports every cached proof as portable [`ExportEntry`] records (the
    /// logical snapshot; the engine's binary codec frames and checksums
    /// them on disk). Deterministically ordered — the union of all shards
    /// is sorted globally — so equal stores export equal sequences
    /// regardless of shard count.
    pub fn export(&self) -> Vec<ExportEntry> {
        let mut out = Vec::new();
        for s in self.shards.iter() {
            s.read()
                .expect("session cache poisoned")
                .collect_entries(&mut out);
        }
        sort_export_entries(&mut out);
        out
    }

    /// Takes a watermark of the store: [`Session::export_since`] against
    /// it returns exactly the entries committed or imported after this
    /// call. O(buckets), no entry is cloned.
    pub fn mark(&self) -> ExportMark {
        ExportMark {
            shards: self
                .shards
                .iter()
                .map(|s| s.read().expect("session cache poisoned").bucket_counts())
                .collect(),
        }
    }

    /// Exports every proof added after `mark`, in the same canonical
    /// order as [`Session::export`]. The union of the entries at mark
    /// time and this delta is exactly the current [`Session::export`] —
    /// the invariant that makes `FPOPDIFF` deltas equivalent to full
    /// snapshots (the diff-shipping differential test pins it).
    ///
    /// A mark taken from a *different* session (or a mismatched shard
    /// count) degrades safely: unknown buckets export in full, so the
    /// delta over-approximates but never loses an entry.
    pub fn export_since(&self, mark: &ExportMark) -> Vec<ExportEntry> {
        let empty = (HashMap::new(), HashMap::new());
        let mut out = Vec::new();
        for (i, s) in self.shards.iter().enumerate() {
            let marked = mark.shards.get(i).unwrap_or(&empty);
            s.read()
                .expect("session cache poisoned")
                .collect_entries_past(marked, &mut out);
        }
        sort_export_entries(&mut out);
        out
    }

    /// Imports previously exported entries into the shared store,
    /// re-bucketing them under this process's hash seeds. Duplicates (and
    /// entries already present) are skipped. Returns the number of proofs
    /// actually admitted.
    ///
    /// Imports deliberately do **not** bump the `inserts` counter: a
    /// warm-loaded proof was paid for by an earlier process, and the
    /// warm-restart acceptance test pins `misses == 0 && inserts == 0`
    /// after a fully warm rebuild.
    pub fn import(&self, entries: impl IntoIterator<Item = ExportEntry>) -> usize {
        // Key every entry once, into a staging cache that drops in-batch
        // duplicates; the merge then takes each shard's lock once and
        // skips entries already present.
        let mut staged = ProofCache::new();
        for e in entries {
            staged.import_entry(e);
        }
        self.merge_overlay(staged) as usize
    }

    /// Merges an overlay into the sharded store; returns the number of
    /// entries actually inserted. The overlay's buckets are partitioned
    /// by shard index first, so each shard's write lock is taken at most
    /// once per commit.
    fn merge_overlay(&self, overlay: ProofCache) -> u64 {
        let n = self.shards.len() as u64;
        let mut parts: Vec<Option<ProofCache>> = (0..self.shards.len()).map(|_| None).collect();
        for (h, v) in overlay.theorems {
            parts[(h % n) as usize]
                .get_or_insert_with(ProofCache::new)
                .theorems
                .insert(h, v);
        }
        for (h, v) in overlay.cases {
            parts[(h % n) as usize]
                .get_or_insert_with(ProofCache::new)
                .cases
                .insert(h, v);
        }
        let mut inserted = 0u64;
        for (i, part) in parts.into_iter().enumerate() {
            if let Some(part) = part {
                let mut shard = self.shards[i].write().expect("session cache poisoned");
                inserted += merge_buckets(&mut shard, part);
            }
        }
        inserted
    }

    /// By-reference variant of [`Session::merge_overlay`]: entries are
    /// cloned only when actually inserted, so merging an overlay whose
    /// entries are already present (the warm-rebuild and memo-replay
    /// cases) copies nothing. This is what lets [`Session::commit_parts`]
    /// stop deep-cloning the whole overlay per deferred commit (ROADMAP
    /// item #1's deferred-commit share of the single-worker DAG overhead).
    fn merge_overlay_ref(&self, overlay: &ProofCache) -> u64 {
        // Per-shard buckets of borrowed (hash, entries) pairs awaiting merge.
        type ShardGroup<'a> = (
            Vec<(u64, &'a Vec<TheoremEntry>)>,
            Vec<(u64, &'a Vec<CaseEntry>)>,
        );
        let n = self.shards.len() as u64;
        let mut groups: Vec<ShardGroup<'_>> = (0..self.shards.len())
            .map(|_| (Vec::new(), Vec::new()))
            .collect();
        for (h, v) in &overlay.theorems {
            groups[(h % n) as usize].0.push((*h, v));
        }
        for (h, v) in &overlay.cases {
            groups[(h % n) as usize].1.push((*h, v));
        }
        let mut inserted = 0u64;
        for (i, (thms, cases)) in groups.into_iter().enumerate() {
            if thms.is_empty() && cases.is_empty() {
                continue;
            }
            let mut shard = self.shards[i].write().expect("session cache poisoned");
            for (h, v) in thms {
                let bucket = shard.theorems.entry(h).or_default();
                for e in v {
                    let dup = bucket.iter().any(|b| {
                        b.okey == e.okey
                            && b.statement == e.statement
                            && b.script == e.script
                            && b.closed_world_key == e.closed_world_key
                    });
                    if !dup {
                        bucket.push(e.clone());
                        inserted += 1;
                    }
                }
            }
            for (h, v) in cases {
                let bucket = shard.cases.entry(h).or_default();
                for e in v {
                    let dup = bucket.iter().any(|b| {
                        b.okey == e.okey && b.sequent == e.sequent && b.script == e.script
                    });
                    if !dup {
                        bucket.push(e.clone());
                        inserted += 1;
                    }
                }
            }
        }
        inserted
    }

    /// Publishes a transaction's outcome to the session counters.
    fn publish(&self, inserted: u64, hits: u64, misses: u64) {
        self.metrics.hits.add(hits);
        self.metrics.misses.add(misses);
        self.metrics.inserts.add(inserted);
    }

    /// Commits the detached parts of a transaction (see
    /// [`CacheTxn::into_parts`]): merges a copy of the overlay into the
    /// shared store and publishes the hit/miss tallies. The DAG-parallel
    /// lattice build calls this once per variant, in canonical order,
    /// after the whole schedule has run. Returns the number of entries
    /// actually inserted (duplicates skipped).
    pub fn commit_parts(&self, parts: &TxnParts) -> u64 {
        let inserted = self.merge_overlay_ref(&parts.overlay);
        self.publish(inserted, parts.hits, parts.misses);
        inserted
    }

    /// Commits the detached parts of a **replayed** (memo-served) variant.
    /// The overlay is merged idempotently — normally inserting nothing,
    /// since a memoized variant's proofs were committed by the build that
    /// recorded the memo — and every lookup the original elaboration
    /// performed is republished as a hit: a replay pays no proof work,
    /// which is exactly what the hit counter measures. In particular a
    /// fully warm rebuild still satisfies the warm-restart invariant
    /// `misses == 0 && inserts == 0`.
    pub fn commit_parts_replayed(&self, parts: &TxnParts) -> u64 {
        let inserted = self.merge_overlay_ref(&parts.overlay);
        self.publish(inserted, parts.hits + parts.misses, 0);
        inserted
    }
}

/// A buffered view of a [`Session`] used by one elaboration (equivalently:
/// one parallel-lattice worker). Lookups consult the transaction's own
/// overlay first, then the ancestor fragments it was opened with
/// ([`Session::begin_with_reads`]), then the shared store; inserts stay in
/// the overlay until [`CacheTxn::commit`]. Dropping the transaction
/// without committing discards its inserts (e.g. on elaboration failure).
#[derive(Debug)]
pub struct CacheTxn {
    session: Arc<Session>,
    reads: Vec<Arc<ProofCache>>,
    overlay: ProofCache,
    hits: u64,
    misses: u64,
}

impl CacheTxn {
    /// Looks up a theorem proof; counts a hit or miss.
    pub(crate) fn lookup_theorem(
        &mut self,
        statement: &Prop,
        script: &Script,
        cw_key: &Option<Vec<(Symbol, Vec<Symbol>)>>,
        okey: u64,
    ) -> bool {
        let h = theorem_key(statement, script, okey);
        let hit = self
            .overlay
            .lookup_theorem_keyed(h, statement, script, cw_key, okey)
            || self
                .reads
                .iter()
                .any(|f| f.lookup_theorem_keyed(h, statement, script, cw_key, okey))
            || {
                let shard = self
                    .session
                    .shard(h)
                    .read()
                    .expect("session cache poisoned");
                shard.lookup_theorem_keyed(h, statement, script, cw_key, okey)
            };
        self.tally(hit);
        hit
    }

    /// Buffers a theorem proof for commit.
    pub(crate) fn insert_theorem(
        &mut self,
        statement: Prop,
        script: Script,
        cw_key: Option<Vec<(Symbol, Vec<Symbol>)>>,
        okey: u64,
    ) {
        self.overlay.insert_theorem(statement, script, cw_key, okey);
    }

    /// Looks up an induction-case proof; counts a hit or miss.
    pub(crate) fn lookup_case(
        &mut self,
        seq: &Sequent,
        script: &Script,
        okey: u64,
    ) -> Option<ProvedSequent> {
        let h = case_key(seq, script, okey);
        let found = self
            .overlay
            .lookup_case_keyed(h, seq, script, okey)
            .or_else(|| {
                self.reads
                    .iter()
                    .find_map(|f| f.lookup_case_keyed(h, seq, script, okey))
            })
            .or_else(|| {
                let shard = self
                    .session
                    .shard(h)
                    .read()
                    .expect("session cache poisoned");
                shard.lookup_case_keyed(h, seq, script, okey)
            });
        self.tally(found.is_some());
        found
    }

    /// Buffers an induction-case proof for commit.
    pub(crate) fn insert_case(
        &mut self,
        seq: Sequent,
        script: Script,
        proof: ProvedSequent,
        okey: u64,
    ) {
        self.overlay.insert_case(seq, script, proof, okey);
    }

    /// Counts one elaborator lookup under its provenance site. Unlike
    /// the hit/miss tallies, this is counted at lookup time, not at
    /// commit.
    pub(crate) fn count_site(&self, site: LookupSite, hit: bool) {
        self.session.metrics.sites[site as usize][usize::from(hit)].inc();
    }

    fn tally(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Hits/misses recorded by this transaction so far.
    pub fn local_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Commits the overlay into the shared store and publishes the
    /// hit/miss tallies to the session counters.
    pub fn commit(self) {
        let CacheTxn {
            session,
            reads: _,
            overlay,
            hits,
            misses,
        } = self;
        let inserted = session.merge_overlay(overlay);
        session.publish(inserted, hits, misses);
    }

    /// Detaches the transaction's outcome *without* committing: the
    /// overlay becomes a shareable fragment (readable by descendant
    /// transactions via [`Session::begin_with_reads`]) and the hit/miss
    /// tallies ride along for a later, canonical-order
    /// [`Session::commit_parts`]. This is how the DAG-parallel lattice
    /// build makes ancestor proofs visible to in-flight descendants while
    /// deferring every store mutation to a deterministic commit phase.
    pub fn into_parts(self) -> TxnParts {
        TxnParts {
            overlay: Arc::new(self.overlay),
            hits: self.hits,
            misses: self.misses,
        }
    }
}

/// The detached outcome of an uncommitted [`CacheTxn`]: the overlay as a
/// shareable fragment plus the hit/miss tallies. Produced by
/// [`CacheTxn::into_parts`], consumed by [`Session::commit_parts`].
#[derive(Clone, Debug)]
pub struct TxnParts {
    overlay: Arc<ProofCache>,
    hits: u64,
    misses: u64,
}

impl TxnParts {
    /// The overlay fragment — hand clones of this `Arc` to descendant
    /// transactions via [`Session::begin_with_reads`].
    pub fn overlay(&self) -> &Arc<ProofCache> {
        &self.overlay
    }

    /// Hits/misses recorded by the originating transaction.
    pub fn local_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

// The session is the thing that crosses threads; assert it (and the txn
// payloads) at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<ProofCache>();
    assert_send_sync::<CacheTxn>();
    assert_send_sync::<TxnParts>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use objlang::syntax::Term;

    fn p(n: u64) -> Prop {
        Prop::eq(objlang::eval::nat_lit(n), objlang::eval::nat_lit(n))
    }

    #[test]
    fn txn_buffers_until_commit() {
        let s = Session::new();
        let mut t1 = s.begin();
        assert!(!t1.lookup_theorem(&p(1), &Script::from(vec![]), &None, 0));
        t1.insert_theorem(p(1), Script::from(vec![]), None, 0);
        // Visible to the inserting txn…
        assert!(t1.lookup_theorem(&p(1), &Script::from(vec![]), &None, 0));
        // …but not to a sibling before commit.
        let mut t2 = s.begin();
        assert!(!t2.lookup_theorem(&p(1), &Script::from(vec![]), &None, 0));
        t2.commit();
        t1.commit();
        let mut t3 = s.begin();
        assert!(t3.lookup_theorem(&p(1), &Script::from(vec![]), &None, 0));
        t3.commit();
        assert_eq!(s.cached_proofs(), 1);
        let st = s.snapshot_stats();
        assert_eq!(st.inserts, 1);
        assert!(st.hits >= 2 && st.misses >= 2);
    }

    #[test]
    fn dropped_txn_discards_inserts() {
        let s = Session::new();
        let mut t = s.begin();
        t.insert_theorem(p(2), Script::from(vec![]), None, 0);
        drop(t);
        let mut t2 = s.begin();
        assert!(!t2.lookup_theorem(&p(2), &Script::from(vec![]), &None, 0));
        assert_eq!(s.cached_proofs(), 0);
        t2.commit();
    }

    #[test]
    fn duplicate_commits_are_idempotent() {
        let s = Session::new();
        let mut a = s.begin();
        let mut b = s.begin();
        a.insert_theorem(p(3), Script::from(vec![]), None, 7);
        b.insert_theorem(p(3), Script::from(vec![]), None, 7);
        a.commit();
        b.commit();
        assert_eq!(s.cached_proofs(), 1, "racing identical proofs dedupe");
        assert_eq!(s.snapshot_stats().inserts, 1);
    }

    #[test]
    fn okey_partitions_entries() {
        let s = Session::new();
        let mut t = s.begin();
        t.insert_theorem(p(4), Script::from(vec![]), None, 1);
        t.commit();
        let mut t2 = s.begin();
        assert!(t2.lookup_theorem(&p(4), &Script::from(vec![]), &None, 1));
        assert!(
            !t2.lookup_theorem(&p(4), &Script::from(vec![]), &None, 2),
            "a different overridable-definition snapshot must miss"
        );
        t2.commit();
    }

    #[test]
    fn cross_thread_session_sharing() {
        let s = Session::new();
        let mut t = s.begin();
        t.insert_theorem(p(5), Script::from(vec![]), None, 0);
        t.commit();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    let mut txn = s.begin();
                    assert!(txn.lookup_theorem(&p(5), &Script::from(vec![]), &None, 0));
                    txn.commit();
                });
            }
        });
        assert!(s.snapshot_stats().hits >= 4);
    }

    #[test]
    fn export_import_roundtrip() {
        let s = Session::new();
        let mut t = s.begin();
        t.insert_theorem(p(9), Script::from(vec![Tactic::Reflexivity]), None, 42);
        t.insert_theorem(
            p(10),
            Script::from(vec![]),
            Some(vec![(Symbol::new("t"), vec![Symbol::new("t_one")])]),
            7,
        );
        let seq = Sequent::closed(p(11));
        t.insert_case(
            seq.clone(),
            Script::from(vec![Tactic::Reflexivity]),
            ProvedSequent::assume_checked(seq.clone()),
            3,
        );
        t.commit();

        let entries = s.export();
        assert_eq!(entries.len(), s.cached_proofs());

        let s2 = Session::new();
        assert_eq!(s2.import(entries.clone()), entries.len());
        assert_eq!(s2.cached_proofs(), s.cached_proofs());
        // Imports are not counted as inserts (they were paid for upstream).
        assert_eq!(s2.snapshot_stats().inserts, 0);
        // Idempotent: re-importing admits nothing new.
        assert_eq!(s2.import(entries), 0);

        let mut t2 = s2.begin();
        assert!(t2.lookup_theorem(&p(9), &Script::from(vec![Tactic::Reflexivity]), &None, 42));
        assert!(
            !t2.lookup_theorem(&p(9), &Script::from(vec![Tactic::Reflexivity]), &None, 43),
            "okey still partitions imported entries"
        );
        assert!(t2.lookup_theorem(
            &p(10),
            &Script::from(vec![]),
            &Some(vec![(Symbol::new("t"), vec![Symbol::new("t_one")])]),
            7,
        ));
        assert!(t2
            .lookup_case(&seq, &Script::from(vec![Tactic::Reflexivity]), 3)
            .is_some());
        t2.commit();
    }

    #[test]
    fn export_order_is_deterministic() {
        let build = || {
            let s = Session::new();
            let mut t = s.begin();
            for i in 0..32 {
                t.insert_theorem(p(i), Script::from(vec![]), None, i);
            }
            t.commit();
            s.export()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn export_order_is_total_on_script_and_cw_key() {
        // REVIEW regression: entries that tie on (okey, statement) must
        // still order deterministically — the sort key has to cover the
        // script and the closed-world key too, or ties fall back to
        // HashMap iteration order (random per map instance).
        let build = || {
            let s = Session::new();
            let mut t = s.begin();
            for i in 0..16u32 {
                // Same statement, same okey; only the script differs.
                t.insert_theorem(
                    p(0),
                    Script::from(vec![Tactic::IntroAs(format!("h{i}"))]),
                    None,
                    0,
                );
                // Same statement, script and okey; only the closed-world
                // key differs.
                t.insert_theorem(
                    p(0),
                    Script::from(vec![]),
                    Some(vec![(Symbol::new(&format!("ty{i}")), vec![])]),
                    0,
                );
            }
            t.commit();
            s.export()
        };
        let a = build();
        assert_eq!(a.len(), 32);
        assert_eq!(a, build());
    }

    #[test]
    fn export_since_mark_partitions_the_export() {
        let s = Session::new();
        let mut t = s.begin();
        for i in 0..8 {
            t.insert_theorem(p(60 + i), Script::from(vec![]), None, i);
        }
        t.commit();
        let before = s.export();
        let mark = s.mark();
        // Nothing new yet: the delta is empty.
        assert!(s.export_since(&mark).is_empty());
        let mut t2 = s.begin();
        for i in 0..8 {
            // Half collide with marked buckets (same statement, new
            // script), half land in fresh buckets.
            t2.insert_theorem(p(60 + i), Script::from(vec![Tactic::Trivial]), None, i);
            t2.insert_theorem(p(80 + i), Script::from(vec![]), None, i);
        }
        t2.commit();
        let delta = s.export_since(&mark);
        assert_eq!(delta.len(), 16);
        // mark-time entries ∪ delta == the full export, under the one
        // total export order.
        let mut merged = before;
        merged.extend(delta);
        sort_export_entries(&mut merged);
        assert_eq!(merged, s.export());
        // An empty (foreign) mark degrades to the full export.
        let full = s.export_since(&ExportMark::default());
        assert_eq!(full, s.export());
    }

    #[test]
    fn snapshot_stats_mirrors_counters_and_store() {
        let s = Session::new();
        let mut t = s.begin();
        assert!(!t.lookup_theorem(&p(20), &Script::from(vec![]), &None, 0));
        t.insert_theorem(p(20), Script::from(vec![]), None, 0);
        t.commit();
        let snap = s.snapshot_stats();
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.inserts, 1);
        assert_eq!(snap.cached_proofs, 1);
        assert_eq!(snap.hit_ratio(), 0.0);
    }

    #[test]
    fn sequent_case_roundtrip() {
        let sig = {
            let mut sig = objlang::Signature::new();
            objlang::prelude::install(&mut sig).unwrap();
            sig
        };
        let goal = Prop::eq(Term::c0("zero"), Term::c0("zero"));
        let proved = objlang::tactic::prove_sequent(
            &sig,
            Sequent::closed(goal.clone()),
            false,
            &[Tactic::Reflexivity],
        )
        .unwrap();
        let seq = Sequent::closed(goal);
        let s = Session::new();
        let mut t = s.begin();
        assert!(t
            .lookup_case(&seq, &Script::from(vec![Tactic::Reflexivity]), 0)
            .is_none());
        t.insert_case(
            seq.clone(),
            Script::from(vec![Tactic::Reflexivity]),
            proved,
            0,
        );
        t.commit();
        let mut t2 = s.begin();
        assert!(t2
            .lookup_case(&seq, &Script::from(vec![Tactic::Reflexivity]), 0)
            .is_some());
        t2.commit();
    }

    #[test]
    fn bucket_keys_are_content_determined() {
        // Two structurally-equal statements built independently key the
        // same bucket; any component change moves the key.
        let stmt = Prop::eq(Term::c0("gk_zero"), Term::c0("gk_zero"));
        let stmt2 = Prop::eq(Term::c0("gk_zero"), Term::c0("gk_zero"));
        let script = Script::from(vec![Tactic::Reflexivity]);
        assert_eq!(
            theorem_key(&stmt, &script, 9),
            theorem_key(&stmt2, &script, 9)
        );
        assert_ne!(
            theorem_key(&stmt, &script, 9),
            theorem_key(&stmt, &script, 10)
        );
        assert_ne!(
            theorem_key(&stmt, &script, 9),
            theorem_key(&stmt, &Script::from(vec![Tactic::Trivial]), 9)
        );
        let seq = Sequent::closed(stmt);
        assert_ne!(case_key(&seq, &script, 9), theorem_key(&stmt2, &script, 9));
    }

    #[test]
    fn bucket_key_golden_values_are_frozen() {
        // The key schema is deliberately process-independent: the same
        // content must land in the same bucket in every process, so a
        // warm-loaded snapshot re-buckets to *identical* keys. Pinning
        // golden values turns any accidental schema change (digest tags,
        // composition order, script rendering) into a test failure
        // instead of a silent cache-hit-rate regression.
        let stmt = Prop::eq(Term::c0("tm_unit"), Term::c0("tm_unit"));
        let script = Script::from(vec![Tactic::Reflexivity]);
        let seq = Sequent::closed(stmt);
        assert_eq!(theorem_key(&stmt, &script, 0), 0xf93c5dc3dfb75884);
        assert_eq!(case_key(&seq, &script, 0), 0x740111fbcfe1317b);
        assert_eq!(script_digest(&script), 0x2697e2ce99e3918c);
        assert_eq!(sequent_digest(&seq), 0xc0d6c096960ee190);
    }

    #[test]
    fn script_stores_its_digest_and_renders_as_its_tactics() {
        // The bucket keys read the stored digest and the export order
        // renders scripts with `{:?}`, so both must be exactly what the
        // bare tactic list gives.
        let scripts = [
            vec![],
            vec![Tactic::Reflexivity],
            vec![
                Tactic::IntroAs("h".into()),
                Tactic::Exists(Term::c0("tm_unit")),
                Tactic::Trivial,
            ],
        ];
        for tactics in scripts {
            let script = Script::from(tactics.clone());
            assert_eq!(script.digest(), script_digest(&tactics));
            assert_eq!(format!("{script:?}"), format!("{tactics:?}"));
            assert_eq!(format!("{script:#?}"), format!("{tactics:#?}"));
        }
    }

    #[test]
    fn fragment_reads_see_ancestor_overlays_before_commit() {
        let s = Session::new();
        let mut ancestor = s.begin();
        ancestor.insert_theorem(p(30), Script::from(vec![]), None, 0);
        let parts = ancestor.into_parts();
        // A transaction opened WITH the ancestor's fragment hits …
        let mut child = s.begin_with_reads(vec![Arc::clone(parts.overlay())]);
        assert!(child.lookup_theorem(&p(30), &Script::from(vec![]), &None, 0));
        // … while a sibling without the fragment misses (nothing is in
        // the shared store yet — the ancestor never committed).
        let mut stranger = s.begin();
        assert!(!stranger.lookup_theorem(&p(30), &Script::from(vec![]), &None, 0));
        assert_eq!(s.cached_proofs(), 0);
        // Deferred canonical-order commit publishes the proof and the
        // tallies exactly once.
        assert_eq!(s.commit_parts(&parts), 1);
        assert_eq!(s.cached_proofs(), 1);
        let mut later = s.begin();
        assert!(later.lookup_theorem(&p(30), &Script::from(vec![]), &None, 0));
        later.commit();
        child.commit();
        stranger.commit();
        assert_eq!(s.snapshot_stats().inserts, 1);
    }

    #[test]
    fn commit_parts_equals_direct_commit() {
        let seed = |s: &Arc<Session>| {
            let mut t = s.begin();
            for i in 0..8 {
                t.insert_theorem(p(40 + i), Script::from(vec![Tactic::Reflexivity]), None, i);
                assert!(t.lookup_theorem(
                    &p(40 + i),
                    &Script::from(vec![Tactic::Reflexivity]),
                    &None,
                    i
                ));
            }
            t
        };
        let direct = Session::new();
        seed(&direct).commit();
        let deferred = Session::new();
        let parts = seed(&deferred).into_parts();
        deferred.commit_parts(&parts);
        assert_eq!(direct.export(), deferred.export());
        assert_eq!(direct.snapshot_stats(), deferred.snapshot_stats());
        assert_eq!(direct.cached_proofs(), deferred.cached_proofs());
    }

    #[test]
    fn shard_count_is_observably_invisible() {
        // Sharding the store must not change a single observable: okeys,
        // lookup outcomes, counters, export order. (The engine snapshot
        // encodes `export()` output verbatim, so equal exports mean
        // byte-identical FPOPSNAP files.)
        let build = |shards: usize| {
            let s = Session::with_shards(shards);
            let mut t = s.begin();
            for i in 0..64 {
                t.insert_theorem(p(i), Script::from(vec![Tactic::Reflexivity]), None, i % 3);
                let seq = Sequent::closed(p(i));
                t.insert_case(
                    seq.clone(),
                    Script::from(vec![Tactic::Reflexivity]),
                    ProvedSequent::assume_checked(seq),
                    i % 3,
                );
            }
            t.commit();
            let mut t2 = s.begin();
            assert!(t2.lookup_theorem(&p(0), &Script::from(vec![Tactic::Reflexivity]), &None, 0));
            assert!(!t2.lookup_theorem(&p(0), &Script::from(vec![Tactic::Reflexivity]), &None, 9));
            t2.commit();
            (s.export(), s.snapshot_stats(), s.cached_proofs())
        };
        let (e1, st1, n1) = build(1);
        for shards in [2, 3, 16, 64] {
            let (e, st, n) = build(shards);
            assert_eq!(e1, e, "{shards}-shard export differs from unsharded");
            assert_eq!(st1, st);
            assert_eq!(n1, n);
        }
    }

    #[test]
    fn import_routes_across_shards_identically() {
        let s = Session::with_shards(7);
        let mut t = s.begin();
        for i in 0..32 {
            t.insert_theorem(p(i), Script::from(vec![]), None, i);
        }
        t.commit();
        let entries = s.export();
        let uni = Session::with_shards(1);
        let many = Session::with_shards(13);
        assert_eq!(uni.import(entries.clone()), entries.len());
        assert_eq!(many.import(entries.clone()), entries.len());
        assert_eq!(uni.export(), many.export());
        // Idempotent on both.
        assert_eq!(uni.import(entries.clone()), 0);
        assert_eq!(many.import(entries), 0);
    }
}
