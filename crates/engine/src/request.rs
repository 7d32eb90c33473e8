//! The engine's request/response vocabulary.
//!
//! Requests carry a **stable content hash** ([`Request::dedup_key`]) used
//! to coalesce identical in-flight work: two clients asking for the same
//! lattice get one elaboration and two copies of the answer. The hash is
//! computed with [`fpop::stable::Fnv64`] over the request's structural
//! content (never over interner ids), so it is deterministic across
//! processes — the same recipe the persistent snapshot relies on.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use families_stlc::{normalize_features, Feature, LatticeReport};
use fpop::stable::Fnv64;
use fpop::{CompiledFamily, StatsSnapshot};
use modsys::CheckLedger;

use crate::engine::EngineMetrics;

/// Scheduling priority of a request. Higher priorities pop first; within
/// one priority the queue is FIFO.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Priority {
    /// Background work (e.g. speculative prefetch of a lattice).
    Low,
    /// The default for interactive requests.
    #[default]
    Normal,
    /// Latency-sensitive work; jumps the queue.
    High,
}

impl Priority {
    /// Parses the protocol-level prefix (`low` / `normal` / `high`).
    pub fn from_tag(tag: &str) -> Option<Priority> {
        match tag {
            "low" => Some(Priority::Low),
            "normal" => Some(Priority::Normal),
            "high" => Some(Priority::High),
            _ => None,
        }
    }
}

/// A unit of work for the engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Parse, resolve, and elaborate a vernacular program against the
    /// engine's shared session; returns the `Check` outputs.
    CheckSource {
        /// The vernacular source text.
        source: String,
    },
    /// Build the mixin sub-lattice spanned by `features` (empty = just
    /// the base family) in a fresh universe over the shared session.
    BuildLattice {
        /// Feature set; order and duplicates are irrelevant (the dedup
        /// key normalizes).
        features: Vec<Feature>,
    },
    /// Look up the statement of a theorem registered by an earlier
    /// `CheckSource`/`BuildLattice` in this engine's lifetime.
    QueryTheorem {
        /// Family name (e.g. `STLCProdSum`).
        family: String,
        /// Theorem field name (e.g. `typesafe`).
        field: String,
    },
    /// Evaluate a closed term under a named family's signature (the
    /// "program extraction" serving path): the term is parsed against
    /// the family registered by an earlier `CheckSource`/`BuildLattice`,
    /// then run by `objlang::eval` — which serves compilable call graphs
    /// from the session's digest-keyed compiled-code cache (the bytecode
    /// VM), falling back to the tree-walking interpreter otherwise.
    Eval {
        /// Family whose signature the term is evaluated under.
        family: String,
        /// The term, in the `crate::term_parse` surface grammar.
        term: String,
    },
    /// Incrementally recheck the sub-lattice spanned by `features` after
    /// a redefinition of `family.field`: the named variant re-elaborates
    /// (a *touch* — its source is unchanged but its proofs must be
    /// re-established), and every other variant is served from the
    /// session's fingerprint memo — replayed outright if independent,
    /// early-cutoff if downstream of the touched variant. The response is
    /// a normal `Lattice` report; the `fpop_incr_*` counters in the
    /// Prometheus exposition record the dirty/cutoff/replay split.
    Redefine {
        /// The variant being redefined (e.g. `STLCFix`).
        family: String,
        /// The redefined field (must exist in the variant's merged view).
        field: String,
        /// Sub-lattice to recheck; empty = the full four-feature Venn
        /// lattice.
        features: Vec<Feature>,
    },
    /// Run a request previously registered as a **template** (binary
    /// protocol `REGISTER_TEMPLATE` / `SUBMIT_TEMPLATE` frames, see
    /// `docs/PROTOCOL.md`): the digest names a pre-parsed, pre-resolved
    /// request held in the engine's template registry, so the hot path
    /// skips vernacular parsing entirely and the first successful
    /// response is memoized (sound because re-elaboration against the
    /// monotone session is deterministic — the same property the
    /// warm-restart acceptance test pins).
    RunTemplate {
        /// The registered template's content digest — by construction
        /// equal to the underlying request's [`Request::dedup_key`], so
        /// template submissions coalesce with equivalent direct requests.
        digest: u64,
    },
    /// Report session statistics and engine metrics.
    Stats,
    /// Render the engine's full metric surface as Prometheus-style
    /// exposition text (scheduling counters, queue depth, wait/service
    /// histograms, session cache counters, global registry metrics).
    Metrics,
}

impl Request {
    /// Convenience: the full four-feature Venn lattice (15 variants).
    pub fn lattice_full() -> Request {
        Request::BuildLattice {
            features: Feature::all().to_vec(),
        }
    }

    /// Convenience: the extended five-feature lattice (31 variants).
    pub fn lattice_extended() -> Request {
        Request::BuildLattice {
            features: Feature::all_extended().to_vec(),
        }
    }

    /// Stable structural hash identifying this request's *content*, or
    /// `None` for requests that must never be coalesced.
    ///
    /// `Stats` is excluded (its answer changes between invocations), and
    /// `QueryTheorem` is excluded because it is a registry read — cheaper
    /// than the dedup bookkeeping it would ride on.
    pub fn dedup_key(&self) -> Option<u64> {
        let mut h = Fnv64::new();
        match self {
            Request::CheckSource { source } => {
                h.write_u8(0);
                h.write_str(source);
            }
            Request::BuildLattice { features } => {
                h.write_u8(1);
                let feats = normalize_features(features);
                h.write_len(feats.len());
                for f in feats {
                    h.write_u8(f.canonical_index() as u8);
                }
            }
            Request::Eval { family, term } => {
                h.write_u8(2);
                h.write_str(family);
                h.write_str(term);
            }
            Request::Redefine {
                family,
                field,
                features,
            } => {
                h.write_u8(3);
                h.write_str(family);
                h.write_str(field);
                let feats = normalize_features(features);
                h.write_len(feats.len());
                for f in feats {
                    h.write_u8(f.canonical_index() as u8);
                }
            }
            // A template *is* its underlying request: sharing the digest
            // coalesces a template submission with an identical direct
            // submission already in flight.
            Request::RunTemplate { digest } => return Some(*digest),
            Request::QueryTheorem { .. } | Request::Stats | Request::Metrics => return None,
        }
        Some(h.finish())
    }

    /// Short human tag for logs and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::CheckSource { .. } => "check",
            Request::BuildLattice { .. } => "lattice",
            Request::QueryTheorem { .. } => "theorem",
            Request::Eval { .. } => "eval",
            Request::Redefine { .. } => "redefine",
            Request::RunTemplate { .. } => "template",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
        }
    }

    /// One-line label identifying this request in the slow-elaboration
    /// log and trace spans: the kind plus enough content to tell two
    /// requests of the same kind apart (source length, feature set,
    /// queried theorem).
    pub fn label(&self) -> String {
        match self {
            Request::CheckSource { source } => format!("check({}B)", source.len()),
            Request::BuildLattice { features } => {
                let feats = normalize_features(features);
                let names: Vec<&str> = feats.iter().map(|f| f.tag()).collect();
                format!("lattice[{}]", names.join("+"))
            }
            Request::QueryTheorem { family, field } => format!("theorem {family}.{field}"),
            Request::Eval { family, term } => format!("eval {family} ({}B)", term.len()),
            Request::Redefine {
                family,
                field,
                features,
            } => {
                let feats = normalize_features(features);
                let names: Vec<&str> = feats.iter().map(|f| f.tag()).collect();
                format!("redefine {family}.{field}[{}]", names.join("+"))
            }
            Request::RunTemplate { digest } => format!("template#{digest:016x}"),
            Request::Stats => "stats".to_string(),
            Request::Metrics => "metrics".to_string(),
        }
    }
}

/// A successful answer to a [`Request`].
#[derive(Clone, Debug)]
pub enum Response {
    /// `CheckSource` output: one line per `Check` command, plus the
    /// combined check ledger of every family the program defined.
    Checked {
        /// Printed results of the program's `Check` commands.
        outputs: Vec<String>,
        /// Per-program checked/shared/cache accounting (absorbed over all
        /// families the request elaborated).
        ledger: CheckLedger,
    },
    /// `BuildLattice` and `Redefine` output: the per-variant report plus
    /// the ledger over every variant in the lattice.
    Lattice {
        /// The per-variant table (same shape as `LatticeReport::to_table`).
        report: LatticeReport,
        /// The variants' compiled families, whose ledgers answer the
        /// reply's totals; merged per unit only on demand (see
        /// [`LatticeLedger`]).
        ledger: LatticeLedger,
    },
    /// `QueryTheorem` output.
    Theorem {
        /// Family queried.
        family: String,
        /// Field queried.
        field: String,
        /// The registered qualified statement.
        statement: String,
    },
    /// `Eval` output.
    Eval {
        /// Family evaluated under.
        family: String,
        /// The resulting value: a `nat` numeral is rendered as a decimal
        /// (mirroring the request grammar's numeral sugar), anything else
        /// in `Term` display syntax.
        value: String,
        /// Fuel consumed out of the per-request budget (one unit per
        /// interpreter step; the VM charges identically).
        fuel_used: u64,
    },
    /// `Stats` output.
    Stats {
        /// Shared-session counters and store size.
        session: StatsSnapshot,
        /// Engine-level scheduling metrics.
        engine: EngineMetrics,
    },
    /// `Metrics` output: Prometheus-style text exposition.
    Metrics {
        /// The exposition document (`# HELP` / `# TYPE` / samples).
        text: String,
    },
}

/// The ledger of a lattice reply: every variant's compiled family, in
/// plan order, each carrying its own [`CheckLedger`].
///
/// The families are the `Arc`s the session's elaboration memo already
/// holds, so the reply copies no ledger. The wire reply reads only
/// totals, which sum one counter per variant. The per-unit merge of
/// every variant's ledger ([`CheckLedger::absorb`]) runs once, on the
/// first call to [`LatticeLedger::merged`], and clones of the reply share
/// its result.
#[derive(Clone)]
pub struct LatticeLedger(Arc<LedgerParts>);

struct LedgerParts {
    families: Vec<Arc<CompiledFamily>>,
    /// Per family: whether this request elaborated it (`false` = served
    /// from the memo, with the ledger of the run that recorded it).
    elaborated: Vec<bool>,
    merged: OnceLock<CheckLedger>,
}

impl LatticeLedger {
    /// The ledger over `families`, in plan order; `elaborated[i]` tells
    /// whether this request elaborated `families[i]`.
    pub fn new(families: Vec<Arc<CompiledFamily>>, elaborated: Vec<bool>) -> LatticeLedger {
        debug_assert_eq!(families.len(), elaborated.len());
        LatticeLedger(Arc::new(LedgerParts {
            families,
            elaborated,
            merged: OnceLock::new(),
        }))
    }

    /// The variants' compiled families, in plan order.
    pub fn families(&self) -> &[Arc<CompiledFamily>] {
        &self.0.families
    }

    fn sum(&self, count: impl Fn(&CheckLedger) -> usize) -> usize {
        self.0.families.iter().map(|f| count(&f.ledger)).sum()
    }

    /// Units checked fresh, over all variants.
    pub fn checked_count(&self) -> usize {
        self.sum(CheckLedger::checked_count)
    }

    /// Units shared without rechecking, over all variants.
    pub fn shared_count(&self) -> usize {
        self.sum(CheckLedger::shared_count)
    }

    /// Proof-cache hits, over all variants.
    pub fn cache_hits(&self) -> usize {
        self.sum(CheckLedger::cache_hits)
    }

    /// Proof-cache misses, over all variants.
    pub fn cache_misses(&self) -> usize {
        self.sum(CheckLedger::cache_misses)
    }

    /// Proof-cache hit ratio `hits / (hits + misses)`; 0 when no lookups.
    /// The same value as [`CheckLedger::cache_hit_ratio`] of the merged
    /// ledger.
    pub fn cache_hit_ratio(&self) -> f64 {
        let (hits, misses) = (self.cache_hits(), self.cache_misses());
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Every variant's ledger merged per unit, for unit detail
    /// ([`CheckLedger::same_counts`], [`CheckLedger::slowest`],
    /// [`CheckLedger::entries`]). Merged on the first call.
    pub fn merged(&self) -> &CheckLedger {
        let families = &self.0.families;
        self.0
            .merged
            .get_or_init(|| families.iter().map(|fam| &fam.ledger).collect())
    }

    /// The `n` slowest units of the variants this request elaborated,
    /// slowest first. A memo-served variant's unit times were recorded
    /// by an earlier request, so they are left out.
    pub fn slowest_elaborated(&self, n: usize) -> Vec<(String, Duration)> {
        let parts = &self.0;
        let ran: CheckLedger = parts
            .families
            .iter()
            .zip(&parts.elaborated)
            .filter(|(_, &elaborated)| elaborated)
            .map(|(fam, _)| &fam.ledger)
            .collect();
        ran.slowest(n)
    }
}

impl fmt::Debug for LatticeLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatticeLedger")
            .field("variants", &self.0.families.len())
            .field("checked", &self.checked_count())
            .field("shared", &self.shared_count())
            .field("cache_hits", &self.cache_hits())
            .field("cache_misses", &self.cache_misses())
            .finish()
    }
}

/// Why a request failed (distinct from a *malformed* protocol line, which
/// never reaches the engine).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// The bounded queue stayed full past the submit timeout
    /// (backpressure: the client should retry later or shed load).
    Rejected,
    /// The request's deadline passed before a worker picked it up.
    DeadlineExpired,
    /// The request was cancelled via [`crate::Ticket::cancel`] before a
    /// worker picked it up.
    Cancelled,
    /// The engine is shutting down and no longer accepts work.
    ShuttingDown,
    /// Elaboration itself failed (parse error, merge conflict, a proof
    /// obligation the kernel rejected, unknown theorem…).
    Failed(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Rejected => write!(f, "queue full: request rejected (backpressure)"),
            EngineError::DeadlineExpired => write!(f, "deadline expired before execution"),
            EngineError::Cancelled => write!(f, "request cancelled"),
            EngineError::ShuttingDown => write!(f, "engine is shutting down"),
            EngineError::Failed(why) => write!(f, "request failed: {why}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders() {
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Low);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn dedup_key_is_stable_and_normalizing() {
        let a = Request::BuildLattice {
            features: vec![Feature::Prod, Feature::Fix, Feature::Prod],
        };
        let b = Request::BuildLattice {
            features: vec![Feature::Fix, Feature::Prod],
        };
        assert_eq!(a.dedup_key(), b.dedup_key());
        assert!(a.dedup_key().is_some());

        let c = Request::BuildLattice {
            features: vec![Feature::Fix],
        };
        assert_ne!(a.dedup_key(), c.dedup_key());
    }

    #[test]
    fn check_source_keys_differ_by_source() {
        let a = Request::CheckSource {
            source: "Family A. End A.".into(),
        };
        let b = Request::CheckSource {
            source: "Family B. End B.".into(),
        };
        assert_ne!(a.dedup_key(), b.dedup_key());
        assert_eq!(a.dedup_key(), a.clone().dedup_key());
    }

    #[test]
    fn stats_and_theorem_never_dedup() {
        assert_eq!(Request::Stats.dedup_key(), None);
        let q = Request::QueryTheorem {
            family: "STLC".into(),
            field: "typesafe".into(),
        };
        assert_eq!(q.dedup_key(), None);
    }

    #[test]
    fn eval_keys_differ_by_family_and_term() {
        let key = |family: &str, term: &str| {
            Request::Eval {
                family: family.into(),
                term: term.into(),
            }
            .dedup_key()
        };
        assert!(key("Nat", "add(1,2)").is_some());
        assert_eq!(key("Nat", "add(1,2)"), key("Nat", "add(1,2)"));
        assert_ne!(key("Nat", "add(1,2)"), key("Nat", "add(2,1)"));
        assert_ne!(key("Nat", "add(1,2)"), key("NatMul", "add(1,2)"));
    }

    #[test]
    fn redefine_keys_normalize_and_differ() {
        let key = |family: &str, field: &str, features: Vec<Feature>| {
            Request::Redefine {
                family: family.into(),
                field: field.into(),
                features,
            }
            .dedup_key()
        };
        assert!(key("STLCFix", "tyeval", vec![Feature::Fix]).is_some());
        assert_eq!(
            key("STLCFix", "tyeval", vec![Feature::Prod, Feature::Fix]),
            key("STLCFix", "tyeval", vec![Feature::Fix, Feature::Prod]),
        );
        assert_ne!(
            key("STLCFix", "tyeval", vec![Feature::Fix]),
            key("STLCFix", "weakenlem", vec![Feature::Fix]),
        );
        assert_ne!(
            key("STLCFix", "tyeval", vec![Feature::Fix]),
            key("STLCProd", "tyeval", vec![Feature::Fix]),
        );
        let r = Request::Redefine {
            family: "STLCFix".into(),
            field: "tyeval".into(),
            features: vec![Feature::Fix, Feature::Prod],
        };
        assert_eq!(r.kind(), "redefine");
        assert_eq!(r.label(), "redefine STLCFix.tyeval[Fix+Prod]");
    }

    #[test]
    fn template_key_is_its_digest() {
        let underlying = Request::CheckSource {
            source: "Family A. End A.".into(),
        };
        let digest = underlying.dedup_key().unwrap();
        let tpl = Request::RunTemplate { digest };
        // A template coalesces with the direct request it names.
        assert_eq!(tpl.dedup_key(), Some(digest));
        assert_eq!(tpl.kind(), "template");
        assert_eq!(tpl.label(), format!("template#{digest:016x}"));
    }

    #[test]
    fn check_and_lattice_keys_do_not_collide_on_empty() {
        // Tag bytes keep an empty source distinct from an empty feature set.
        let check = Request::CheckSource {
            source: String::new(),
        };
        let lattice = Request::BuildLattice { features: vec![] };
        assert_ne!(check.dedup_key(), lattice.dedup_key());
    }
}
