//! The digest-keyed compiled-code cache.
//!
//! Compiled programs are keyed by the *closure digest* of the function's
//! whole reachable call graph (see [`super::compile::analyze`]), computed
//! from the hash-consed term digests of the interner — so the cache is
//! content-addressed: two families that close a recursion to the same
//! definitions share one compiled program, and any change to any reachable
//! definition changes the key. Negative verdicts (graphs the compiler
//! refuses) are cached too, so the interpreter fallback pays the analysis
//! walk but never re-attempts compilation.
//!
//! Compiled code is a **derived artifact**: it is never persisted, never
//! exported, and never read back from disk. Sessions snapshot proofs, not
//! bytecode (`FPOPSNAP` and the golden okey are unaffected by anything in
//! this module).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

use trace::{Counter, Histogram, Registry};

use super::compile::Program;

/// Shard count for the cache map — mirrors the interner's and the proof
/// cache's 16-way digest sharding.
const SHARDS: usize = 16;

/// A cached verdict for one closure digest.
#[derive(Clone)]
pub(crate) enum Slot {
    /// The graph compiled; here is the program.
    Compiled(Arc<Program>),
    /// The graph is not compilable (abstract/unknown functions, unbound
    /// variables, or call-arity mismatches somewhere in the closure);
    /// every dispatch falls back to the interpreter.
    NotCompilable,
}

/// Point-in-time counters of a [`CodeCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodeCacheStats {
    /// Lookups that found a cached verdict (compiled or negative).
    pub hits: u64,
    /// Lookups that found nothing and triggered a compilation attempt.
    pub misses: u64,
    /// Programs compiled and inserted.
    pub compiled: u64,
    /// Negative verdicts inserted (uncompilable call graphs).
    pub rejected: u64,
}

/// The instruments of a counted [`CodeCache`], resolved once from its
/// owner's registry.
struct CodeMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    compiled: Arc<Counter>,
    rejected: Arc<Counter>,
    exec: Arc<Counter>,
    deopt: Arc<Counter>,
    compile_micros: Arc<Histogram>,
}

/// A sharded, digest-keyed cache of compiled objlang programs.
///
/// One process-wide, uncounted instance backs the transparent
/// `eval`/`eval_default` dispatch ([`super::global_cache`]);
/// `fpop::Session` owns a [counted](CodeCache::counted) instance that
/// the engine's `eval` requests run against, so its traffic shows up in
/// that session's registry.
pub struct CodeCache {
    shards: Vec<RwLock<HashMap<u64, Slot>>>,
    /// `None` for an uncounted cache.
    metrics: Option<CodeMetrics>,
}

impl Default for CodeCache {
    fn default() -> CodeCache {
        CodeCache::new()
    }
}

impl CodeCache {
    /// An empty, uncounted cache with the default 16-way sharding.
    pub fn new() -> CodeCache {
        CodeCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            metrics: None,
        }
    }

    /// An empty cache that counts its lookups, compilations and VM runs
    /// in `registry` (`fpop_session_code_*`, `objlang_vm_exec_*`,
    /// `objlang_vm_compile_micros`; catalog in `docs/OBSERVABILITY.md`).
    pub fn counted(registry: &Registry) -> CodeCache {
        CodeCache {
            metrics: Some(CodeMetrics {
                hits: registry.counter(
                    "fpop_session_code_cache_hits_total",
                    "compiled-code lookups answered from the session cache",
                ),
                misses: registry.counter(
                    "fpop_session_code_cache_misses_total",
                    "compiled-code lookups that missed the session cache",
                ),
                compiled: registry.counter(
                    "fpop_session_code_compiled_total",
                    "call-graph closures compiled into the session cache",
                ),
                rejected: registry.counter(
                    "fpop_session_code_rejected_total",
                    "closures judged not compilable (cached negative verdicts)",
                ),
                exec: registry.counter(
                    "objlang_vm_exec_total",
                    "Function applications served by the bytecode VM",
                ),
                deopt: registry.counter(
                    "objlang_vm_exec_deopt_total",
                    "Single applications handed back to the interpreter mid-run \
                     (runtime constructor/binder arity mismatch)",
                ),
                compile_micros: registry.histogram(
                    "objlang_vm_compile_micros",
                    "Wall time of one closure analysis + compilation, µs",
                ),
            }),
            ..CodeCache::new()
        }
    }

    fn shard(&self, key: u64) -> &RwLock<HashMap<u64, Slot>> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Looks up a closure digest, counting the hit or miss.
    pub(crate) fn lookup(&self, key: u64) -> Option<Slot> {
        let found = self
            .shard(key)
            .read()
            .expect("code cache poisoned")
            .get(&key)
            .cloned();
        if let Some(m) = &self.metrics {
            match &found {
                Some(_) => m.hits.inc(),
                None => m.misses.inc(),
            }
        }
        found
    }

    /// Inserts a verdict. Idempotent: a racing insert keeps the first
    /// entry (both race arms compiled identical content — the key is a
    /// content digest).
    pub(crate) fn insert(&self, key: u64, slot: Slot) {
        let mut shard = self.shard(key).write().expect("code cache poisoned");
        if shard.contains_key(&key) {
            return;
        }
        if let Some(m) = &self.metrics {
            match &slot {
                Slot::Compiled(_) => m.compiled.inc(),
                Slot::NotCompilable => m.rejected.inc(),
            }
        }
        shard.insert(key, slot);
    }

    /// Records the wall time of one compilation attempt.
    pub(crate) fn note_compile(&self, took: Duration) {
        if let Some(m) = &self.metrics {
            m.compile_micros.observe(took);
        }
    }

    /// Records one VM run and the applications it handed back to the
    /// interpreter.
    pub(crate) fn note_exec(&self, deopts: u64) {
        if let Some(m) = &self.metrics {
            m.exec.inc();
            if deopts > 0 {
                m.deopt.add(deopts);
            }
        }
    }

    /// Number of cached verdicts (compiled + negative).
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("code cache poisoned").len())
            .sum()
    }

    /// Snapshot of the cache counters (all zero for an uncounted cache).
    pub fn stats(&self) -> CodeCacheStats {
        self.metrics
            .as_ref()
            .map_or_else(CodeCacheStats::default, |m| CodeCacheStats {
                hits: m.hits.get(),
                misses: m.misses.get(),
                compiled: m.compiled.get(),
                rejected: m.rejected.get(),
            })
    }
}

/// The process-wide cache backing transparent `eval` dispatch. It is
/// uncounted: its traffic belongs to no session.
pub fn global_cache() -> &'static CodeCache {
    static GLOBAL: OnceLock<CodeCache> = OnceLock::new();
    GLOBAL.get_or_init(CodeCache::new)
}
