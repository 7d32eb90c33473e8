//! Incremental recheck: fingerprint-keyed memoization of family
//! elaborations with **early cutoff** (the Salsa/build-system-à-la-carte
//! discipline, applied to metatheory).
//!
//! The paper's thesis is that extending a family must not re-pay the
//! metatheory of everything else. The content-addressed proof cache
//! ([`crate::session`]) delivers that for *proofs*, but a recheck still
//! paid O(whole lattice) **elaboration**: env construction, key
//! computation, field walks. This module closes the gap with two digests
//! per task-DAG variant node:
//!
//! * the **source digest** — an FNV-64 over the variant's merged field
//!   list (name, base, and every [`MergedField`]'s structural rendering).
//!   It identifies *what the user wrote*, after inheritance and mixin
//!   composition are resolved;
//! * the **output digest** — an FNV-64 over the [`modsys::ModuleDelta`]
//!   the elaboration emitted. It identifies *what downstream variants can
//!   observe*: a dependent consumes its ancestors only through their
//!   module deltas and proof fragments, and fragments affect hit/miss
//!   accounting, never verdicts.
//!
//! A node's **fingerprint** combines its own source digest with the
//! output digests of its DAG dependencies in canonical order. The session
//! memoizes `fingerprint → (compiled family, delta, txn parts, output
//! digest)`. On a rebuild:
//!
//! * fingerprint hit ⇒ the node is served from the memo without running
//!   [`FieldElab`](crate::elab::FieldElab) at all. If every dependency was
//!   itself served from the memo this is a **replay**; if some dependency
//!   *re-elaborated but produced a byte-identical output digest*, it is an
//!   **early cutoff** — the edit's consequences were contained upstream;
//! * fingerprint miss ⇒ the node is **dirty** and elaborates normally,
//!   then records its outcome under the new fingerprint.
//!
//! The memo is **derived state**: it is never exported, snapshotted, or
//! imported (`FPOPSNAP` bytes and the golden okey are unaffected), and a
//! fresh session starts with an empty memo. Digests therefore only need
//! to be deterministic *within* a process — `Debug` renderings of
//! hash-consed terms are (symbols print their interned strings) — while
//! soundness rests on the same argument as the proof cache: identical
//! merged sources elaborated under identical dependency outputs produce
//! identical results, so replaying the recorded result is observationally
//! equal to re-running the elaboration.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use objlang::ident::Symbol;
use trace::{Counter, Registry};

use crate::elab::CompiledFamily;
use crate::merge::MergedField;
use crate::session::TxnParts;
use crate::stable::Fnv64;

/// FNV-64 digest of a variant's merged source: family name, base, and the
/// structural rendering of every merged field, length-prefixed.
///
/// [`merge`](crate::merge::merge) computes it once and stores it as
/// [`MergedFamily::src_digest`](crate::merge::MergedFamily::src_digest);
/// compilation carries the same word into
/// [`CompiledFamily::src_digest`] — this is what lets
/// [`replan_after_edit`](crate::universe::FamilyUniverse::replan_after_edit)
/// diff a new plan against the previous build's compiled families.
pub fn source_digest(name: Symbol, base: Option<Symbol>, fields: &[MergedField]) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(name.as_str());
    match base {
        None => h.write_u8(0),
        Some(b) => {
            h.write_u8(1);
            h.write_str(b.as_str());
        }
    }
    h.write_len(fields.len());
    for f in fields {
        // MergedField's Debug rendering is structural and injective on
        // the payload (terms and symbols print by name), the same
        // property the export sort order already relies on. Streamed —
        // this runs on every recheck, and materializing the rendering
        // was the single hottest allocation of the no-op recheck path.
        h.write_fmt(format_args!("{f:?}"));
    }
    h.finish()
}

/// FNV-64 digest of a family *definition* — the vernacular as written
/// (name, `extends`, `using`, own fields), before any merging. Two defs
/// with equal digests merged over content-identical ancestor chains
/// produce identical [`MergedFamily`](crate::merge::MergedFamily)s, which
/// is the fast-path condition
/// [`replan_after_edit`](crate::universe::FamilyUniverse::replan_after_edit)
/// uses to reuse a previous build's merge without re-running it. Orders of
/// magnitude cheaper than [`source_digest`]: a def carries only its *own*
/// fields, not the transitively inherited ones.
pub fn def_digest(def: &crate::family::FamilyDef) -> u64 {
    let mut h = Fnv64::new();
    h.write_fmt(format_args!("{def:?}"));
    h.finish()
}

/// FNV-64 digest of an elaboration's observable output: the module
/// *entries* its delta registered, in order. Two elaborations with equal
/// output digests are interchangeable as far as any *downstream* variant
/// can tell, which is exactly the early-cutoff soundness condition.
///
/// Two deliberate exclusions, both provenance rather than semantics:
///
/// * the delta's [`modsys::CheckLedger`] — wall times and
///   warmth-dependent cache tallies; a dependent resets its ledger after
///   applying dependency deltas anyway;
/// * every [`modsys::Item`]'s `descr` string — documented as display
///   only, and it embeds reuse accounting ("4 cases reused, 1 checked")
///   that differs between a cold and a warm elaboration of the *same*
///   source. Hashing it would make fingerprints warmth-dependent and
///   defeat cutoff.
pub fn output_digest(delta: &modsys::ModuleDelta) -> u64 {
    fn write_entries(h: &mut Fnv64, entries: &[modsys::ModEntry]) {
        h.write_len(entries.len());
        for e in entries {
            match e {
                modsys::ModEntry::Declare(item) => {
                    h.write_u8(0);
                    h.write_str(&item.name);
                    h.write_fmt(format_args!("{:?}", item.kind));
                }
                modsys::ModEntry::Include(name) => {
                    h.write_u8(1);
                    h.write_str(name);
                }
            }
        }
    }
    fn write_header(h: &mut Fnv64, name: &str, self_ctx: &Option<String>) {
        h.write_str(name);
        match self_ctx {
            None => h.write_u8(0),
            Some(c) => {
                h.write_u8(1);
                h.write_str(c);
            }
        }
    }
    let mut h = Fnv64::new();
    h.write_len(delta.entries.len());
    for e in &delta.entries {
        match e {
            modsys::DeltaEntry::Type(mt) => {
                h.write_u8(0);
                write_header(&mut h, &mt.name, &mt.self_ctx);
                write_entries(&mut h, &mt.entries);
            }
            modsys::DeltaEntry::Module(m) => {
                h.write_u8(1);
                write_header(&mut h, &m.name, &m.self_ctx);
                write_entries(&mut h, &m.entries);
            }
        }
    }
    h.finish()
}

/// A node's input fingerprint: its own source digest combined with the
/// output digests of its DAG dependencies, in canonical (plan) order.
pub fn fingerprint(src: u64, dep_outputs: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(src);
    h.write_len(dep_outputs.len());
    for d in dep_outputs {
        h.write_u64(*d);
    }
    h.finish()
}

/// The memoized outcome of one variant elaboration, keyed by fingerprint
/// in a [`MemoStore`].
#[derive(Clone, Debug)]
pub struct IncrMemo {
    /// The compiled family exactly as the elaboration produced it,
    /// shared so replays adopt it without a deep clone.
    pub compiled: Arc<CompiledFamily>,
    /// The module delta the elaboration emitted over its dependencies.
    pub delta: modsys::ModuleDelta,
    /// The detached proof-cache transaction (overlay fragment + hit/miss
    /// tallies) — recommitted idempotently on replay.
    pub parts: TxnParts,
    /// [`output_digest`] of `delta`, precomputed.
    pub out_digest: u64,
}

/// Fingerprint-keyed memo table of variant elaborations. Lives in the
/// [`Session`](crate::session::Session) beside the proof cache; like the
/// VM code cache it is **derived data only** — never exported,
/// snapshotted, or imported.
#[derive(Debug)]
pub struct MemoStore {
    map: RwLock<HashMap<u64, Arc<IncrMemo>>>,
    /// `fpop_incr_{dirty,cutoff,replay}_total`: how memo-consulting
    /// builds served their variants (see [`MemoStore::count`]).
    dirty: Arc<Counter>,
    cutoff: Arc<Counter>,
    replay: Arc<Counter>,
}

impl MemoStore {
    /// A fresh, empty memo table counting its outcomes in `registry`.
    pub fn new(registry: &Registry) -> MemoStore {
        let outcome = |kind: &str| {
            registry.counter(
                &format!("fpop_incr_{kind}_total"),
                "incremental-recheck variant outcomes",
            )
        };
        MemoStore {
            map: RwLock::new(HashMap::new()),
            dirty: outcome("dirty"),
            cutoff: outcome("cutoff"),
            replay: outcome("replay"),
        }
    }

    /// Adds a memo-consulting build's outcome to the
    /// `fpop_incr_{dirty,cutoff,replay}_total` counters — the
    /// Prometheus-visible form of [`IncrOutcome`]. Plain (recording)
    /// builds only warm the memo and are not counted.
    pub fn count(&self, outcome: &IncrOutcome) {
        self.dirty.add(outcome.dirty as u64);
        self.cutoff.add(outcome.cutoff as u64);
        self.replay.add(outcome.replayed as u64);
    }

    /// Looks up the memoized outcome for `fp`.
    pub fn lookup(&self, fp: u64) -> Option<Arc<IncrMemo>> {
        self.map
            .read()
            .expect("incr memo poisoned")
            .get(&fp)
            .cloned()
    }

    /// Records the outcome of an elaboration under its fingerprint.
    /// Last write wins: a *forced* re-elaboration (the `redefine` touch)
    /// carries the same fingerprint as its recording but a fresher
    /// ledger split (a warmer proof cache shifts checked toward shared),
    /// and later replays must serve the latest run, not the oldest.
    /// Within one build each fingerprint is owned by exactly one DAG
    /// node, so concurrent writers never disagree.
    pub fn insert(&self, fp: u64, memo: Arc<IncrMemo>) {
        self.map
            .write()
            .expect("incr memo poisoned")
            .insert(fp, memo);
    }

    /// Number of memoized elaborations.
    pub fn len(&self) -> usize {
        self.map.read().expect("incr memo poisoned").len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-build tally of how each variant node was satisfied, returned by
/// the incremental lattice entry points in `families-stlc`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IncrOutcome {
    /// Nodes that ran [`FieldElab`](crate::elab::FieldElab) (fingerprint
    /// miss: edited, or downstream of a changed output).
    pub dirty: usize,
    /// Nodes served from the memo although at least one dependency
    /// re-elaborated — its output digest came back identical, so the
    /// recheck was cut off early.
    pub cutoff: usize,
    /// Nodes served from the memo with every dependency also clean.
    pub replayed: usize,
    /// Names of the variants that actually elaborated, in commit order —
    /// the dirty cone, for callers that track per-variant freshness.
    pub ran: Vec<String>,
}

impl IncrOutcome {
    /// Total variant nodes the build covered.
    pub fn total(&self) -> usize {
        self.dirty + self.cutoff + self.replayed
    }
}

// The memo store crosses threads inside the Session.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MemoStore>();
    assert_send_sync::<IncrMemo>();
    assert_send_sync::<IncrOutcome>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::FamilyDef;
    use crate::merge::{merge, MergedFamily};
    use objlang::sig::CtorSig;
    use objlang::syntax::Prop;

    fn merged(name: &str) -> MergedFamily {
        let f = FamilyDef::new(name)
            .inductive("tm", vec![CtorSig::new("c1", vec![])])
            .theorem("thm", Prop::True, vec![]);
        merge(&f, &[], &[]).unwrap()
    }

    #[test]
    fn source_digest_is_content_determined() {
        let a = merged("Fam");
        let b = merged("Fam");
        assert_eq!(a.src_digest, b.src_digest);
        assert_eq!(a.src_digest, source_digest(a.name, a.base, &a.fields));
        let other = merged("Other");
        assert_ne!(a.src_digest, other.src_digest);
    }

    #[test]
    fn source_digest_sees_field_edits() {
        let a = merged("Fam");
        let f = FamilyDef::new("Fam")
            .inductive(
                "tm",
                vec![CtorSig::new("c1", vec![]), CtorSig::new("c2", vec![])],
            )
            .theorem("thm", Prop::True, vec![]);
        let b = merge(&f, &[], &[]).unwrap();
        assert_ne!(a.src_digest, b.src_digest);
    }

    #[test]
    fn fingerprint_covers_deps_and_order() {
        assert_eq!(fingerprint(1, &[2, 3]), fingerprint(1, &[2, 3]));
        assert_ne!(fingerprint(1, &[2, 3]), fingerprint(1, &[3, 2]));
        assert_ne!(fingerprint(1, &[2, 3]), fingerprint(1, &[2]));
        assert_ne!(fingerprint(1, &[]), fingerprint(2, &[]));
    }

    #[test]
    fn memo_store_last_write_wins() {
        let m = MemoStore::new(&Registry::new());
        assert!(m.lookup(7).is_none());
        assert!(m.is_empty());
        let delta = modsys::ModuleDelta::default();
        let mk = |tag: &str| IncrMemo {
            compiled: Arc::new(CompiledFamily {
                name: Symbol::new(tag),
                base: None,
                fields: Arc::new([]),
                sig: Arc::new(objlang::Signature::new()),
                theorems: HashMap::new(),
                assumptions: vec![],
                ledger: modsys::CheckLedger::new(),
                extended_names: Arc::default(),
                def_digest: 0,
                src_digest: 0,
            }),
            delta: delta.clone(),
            parts: crate::session::Session::new().begin().into_parts(),
            out_digest: output_digest(&delta),
        };
        m.insert(7, Arc::new(mk("first")));
        m.insert(7, Arc::new(mk("second")));
        assert_eq!(m.len(), 1);
        // A forced re-elaboration re-records under the same fingerprint;
        // replays must serve the freshest run.
        assert_eq!(m.lookup(7).unwrap().compiled.name.as_str(), "second");
    }
}
