//! The feature-composition lattice of Section 7's Venn diagram: every
//! non-empty combination of {ε fixpoints, × products, + sums, µ
//! iso-recursive types} — 15 STLC variants, each with an inherited
//! `typesafe` theorem.
//!
//! Composites are built as mixin compositions (`extends STLC using …`,
//! Section 3.5). Combinations containing µ together with × or + owe the
//! Figure 3 retrofit obligation: the `tysubst` recursion must be further
//! bound with a case for `ty_prod`/`ty_sum`. Two of the paper's named
//! composites (`STLCProdIsorec`, `STLCFixProdIsorec`) are built exactly as
//! in Figure 3 — the latter by mixing in a composite that itself has
//! mixins.
//!
//! [`subset_plan`] lists the variants of the sub-lattice spanned by a
//! feature set in canonical order (`Feature::all()` is the Venn diagram,
//! `Feature::all_extended()` the 31-variant extension); a [`Plan`] holds
//! those rows together with their merges. Three entry points build it,
//! each with an explicit worker count (pass
//! [`fpop::sched::default_workers`] for the automatic width):
//!
//! * [`build`] — a cold build of a plan into a universe;
//! * [`rebuild`] — an edited definition list against a previous universe,
//!   re-proving only the fingerprint-dirty cone;
//! * [`redefine`] — the engine's `redefine <family> <field>`: one variant
//!   of a plan touched, validated before any work runs. It reuses the
//!   plan's merges as they are and returns the variants' memo entries
//!   instead of a universe, so a redefine pays for its delta and not for
//!   planning, registering or adopting the lattice again.
//!
//! All three run the same [`fpop::sched::TaskDag`]: every field of every
//! variant is a node, with chain edges inside each variant (fields check
//! front to back, §3.4) and cross edges from each variant's *finish* node
//! to the first node of every feature-superset variant — the
//! proper-subset order of the Venn diagram, which is exactly "who can
//! inherit modules and share proofs with whom". A work-stealing scheduler
//! executes the graph; each variant elaborates into a detached module
//! environment seeded with its prerequisites' module deltas and reads
//! their uncommitted proof fragments through
//! [`fpop::Session::begin_with_reads`]; *nothing* commits during the run.
//! Afterwards the coordinator commits every variant's proofs in canonical
//! order, and [`build`] and [`rebuild`] register its modules and adopt its
//! family into their universe in that order, so reports, ledgers, and the
//! session contents are bit-for-bit what defining the variants one by one
//! in plan order produces — whatever order the workers actually ran in.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fpop::elab::FieldElab;
use fpop::family::FamilyDef;
use fpop::incr::{self, IncrMemo, IncrOutcome};
use fpop::merge::MergedFamily;
use fpop::sched::{SchedError, TaskDag};
use fpop::session::{CacheTxn, Session};
use fpop::universe::{warm_code_cache, FamilyUniverse};
use modsys::{CheckLedger, ModuleEnv};
use objlang::error::{Error, Result};

use crate::boolean::{stlc_bool_family, tysubst_bool_case};
use crate::fix::stlc_fix_family;
use crate::isorec::{stlc_isorec_family, tysubst_prod_case, tysubst_sum_case};
use crate::prod::stlc_prod_family;
use crate::sum::stlc_sum_family;

/// The features, in canonical composition order. The paper's Venn diagram
/// covers the first four; `Bool` is the Section 6.5 family, giving an
/// extended 31-variant lattice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Feature {
    /// ε — fixpoints (`STLCFix`).
    Fix,
    /// × — products (`STLCProd`).
    Prod,
    /// + — sums (`STLCSum`).
    Sum,
    /// µ — iso-recursive types (`STLCIsorec`).
    Isorec,
    /// Booleans + conditionals (`STLCBool`, Section 6.5).
    Bool,
}

impl Feature {
    /// The paper's four Venn-diagram features, in canonical order.
    pub fn all() -> [Feature; 4] {
        [Feature::Fix, Feature::Prod, Feature::Sum, Feature::Isorec]
    }
    /// All five features (the extended lattice).
    pub fn all_extended() -> [Feature; 5] {
        [
            Feature::Fix,
            Feature::Prod,
            Feature::Sum,
            Feature::Isorec,
            Feature::Bool,
        ]
    }
    /// The single-feature family name.
    pub fn family_name(self) -> &'static str {
        match self {
            Feature::Fix => "STLCFix",
            Feature::Prod => "STLCProd",
            Feature::Sum => "STLCSum",
            Feature::Isorec => "STLCIsorec",
            Feature::Bool => "STLCBool",
        }
    }
    /// Short tag used in composite names.
    pub fn tag(self) -> &'static str {
        match self {
            Feature::Fix => "Fix",
            Feature::Prod => "Prod",
            Feature::Sum => "Sum",
            Feature::Isorec => "Isorec",
            Feature::Bool => "Bool",
        }
    }

    /// Parses a feature from its tag (case-insensitive); the inverse of
    /// [`Feature::tag`]. Used by the `fpopd` wire protocol's
    /// `lattice Fix,Prod,…` requests.
    pub fn from_tag(tag: &str) -> Option<Feature> {
        match tag.to_ascii_lowercase().as_str() {
            "fix" => Some(Feature::Fix),
            "prod" => Some(Feature::Prod),
            "sum" => Some(Feature::Sum),
            "isorec" => Some(Feature::Isorec),
            "bool" => Some(Feature::Bool),
            _ => None,
        }
    }

    /// Canonical composition order of a feature (its index in
    /// [`Feature::all_extended`]). Feature subsets are always normalized
    /// into this order before naming or composing variants.
    pub fn canonical_index(self) -> usize {
        match self {
            Feature::Fix => 0,
            Feature::Prod => 1,
            Feature::Sum => 2,
            Feature::Isorec => 3,
            Feature::Bool => 4,
        }
    }
}

/// Sorts a feature set into canonical order and drops duplicates; the
/// normal form under which variant names and mixin lists are derived.
pub fn normalize_features(features: &[Feature]) -> Vec<Feature> {
    let mut v: Vec<Feature> = Vec::new();
    for &f in features {
        if !v.contains(&f) {
            v.push(f);
        }
    }
    v.sort_by_key(|f| f.canonical_index());
    v
}

/// Name of the family for a feature set, e.g. `STLCFixProdIsorec`.
pub fn variant_name(features: &[Feature]) -> String {
    let mut s = "STLC".to_string();
    for f in features {
        s.push_str(f.tag());
    }
    s
}

/// Builds a composite family definition for ≥2 features.
pub fn composite_family(features: &[Feature]) -> FamilyDef {
    let name = variant_name(features);
    let mixins: Vec<&str> = features.iter().map(|f| f.family_name()).collect();
    let mut def = FamilyDef::extending_with(&name, "STLC", &mixins);
    // Figure 3 retrofit obligation: tysubst must cover constructors added
    // by × / + when µ is present.
    if features.contains(&Feature::Isorec) {
        let mut cases = Vec::new();
        if features.contains(&Feature::Prod) {
            cases.push(tysubst_prod_case());
        }
        if features.contains(&Feature::Sum) {
            cases.push(tysubst_sum_case());
        }
        if features.contains(&Feature::Bool) {
            cases.push(tysubst_bool_case());
        }
        if !cases.is_empty() {
            def = def.extend_recursion("tysubst", cases);
        }
    }
    def
}

/// Per-variant statistics for the lattice report.
#[derive(Clone, Debug)]
pub struct VariantStat {
    /// Family name.
    pub name: String,
    /// Number of features composed.
    pub arity: usize,
    /// Fields in the merged family.
    pub fields: usize,
    /// Units checked fresh during elaboration.
    pub checked: usize,
    /// Units reused without rechecking.
    pub shared: usize,
    /// Reuse ratio.
    pub reuse_ratio: f64,
    /// Elaboration wall time.
    pub elapsed: std::time::Duration,
}

/// The lattice build report (one row per variant, base first).
#[derive(Clone, Debug, Default)]
pub struct LatticeReport {
    /// Per-variant rows.
    pub rows: Vec<VariantStat>,
}

impl LatticeReport {
    /// Renders the report as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out =
            String::from("variant                     arity fields checked shared reuse%  time\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:<27} {:>5} {:>6} {:>7} {:>6} {:>5.1}% {:>8.2?}\n",
                r.name,
                r.arity,
                r.fields,
                r.checked,
                r.shared,
                r.reuse_ratio * 100.0,
                r.elapsed
            ));
        }
        out
    }
}

/// One planned variant: its feature bitmask over the normalized feature
/// subset (bit *i* = the *i*-th requested feature in canonical order; the
/// base `STLC` is mask 0), its arity, and its definition.
pub struct PlanEntry {
    mask: u32,
    /// Number of features composed (0 for the base `STLC`).
    pub arity: usize,
    /// The variant's definition.
    pub def: FamilyDef,
}

/// The build plan of the sub-lattice spanned by `features`: base `STLC`
/// first, then every non-empty feature combination, arity ascending and
/// feature-mask ascending within an arity. Every report lists its rows in
/// this order. The masks double as the dependency relation for the
/// task-DAG build: variant *j* is a prerequisite of variant *i* iff
/// `mask_j` is a **proper subset** of `mask_i`. That covers every family
/// *i* can inherit modules from (bases, mixins, and their ancestors) and
/// every variant whose cached proofs *i* can hit — a sequent only mentions
/// constructs from *i*'s own view, so any cache entry *i* can match was
/// insertable by a variant whose features are contained in *i*'s.
pub fn subset_plan(features: &[Feature]) -> Vec<PlanEntry> {
    let feats = normalize_features(features);
    // Paper-style nested composition applies in the exact Venn lattice.
    let venn_special = feats == Feature::all();
    let single = |f: Feature| match f {
        Feature::Fix => stlc_fix_family(),
        Feature::Prod => stlc_prod_family(),
        Feature::Sum => stlc_sum_family(),
        Feature::Isorec => stlc_isorec_family(),
        Feature::Bool => stlc_bool_family(),
    };
    let mut plan = vec![PlanEntry {
        mask: 0,
        arity: 0,
        def: crate::base::stlc_family(),
    }];
    for arity in 1..=feats.len() {
        for mask in 1u32..(1u32 << feats.len()) {
            if mask.count_ones() as usize != arity {
                continue;
            }
            let subset: Vec<Feature> = feats
                .iter()
                .copied()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, f)| f)
                .collect();
            let def = if arity == 1 {
                single(subset[0])
            } else if venn_special && variant_name(&subset) == "STLCFixProdIsorec" {
                // Paper-style nested composition for STLCFixProdIsorec in
                // the Venn lattice: it mixes in STLCFix and the composite
                // STLCProdIsorec (Figure 3), relying on the latter's
                // already-discharged tysubst obligation. (STLCProdIsorec
                // is an arity-2 variant, so it is a proper subset.)
                FamilyDef::extending_with(
                    "STLCFixProdIsorec",
                    "STLC",
                    &["STLCFix", "STLCProdIsorec"],
                )
            } else {
                composite_family(&subset)
            };
            plan.push(PlanEntry { mask, arity, def });
        }
    }
    plan
}

/// The build plan of one feature set: its normalized features, the
/// [`subset_plan`] rows, and each row's merge. The merges depend on the
/// definitions alone, so a plan outlives the universe built from it: a
/// [`build`] compiles every variant from the plan's merges (the compiled
/// families share their field lists), and a later [`redefine`] on the
/// same plan re-runs its touched variant from those very merges, with no
/// replanning. The engine keeps the plan of the feature set it last built
/// or redefined.
pub struct Plan {
    features: Vec<Feature>,
    rows: Vec<PlanEntry>,
    merges: Vec<MergedFamily>,
}

impl Plan {
    /// Plans the sub-lattice spanned by `features`: its rows in
    /// [`subset_plan`] order, each merged against the rows before it.
    ///
    /// # Errors
    ///
    /// Propagates a merge failure (none are expected; the lattice is the
    /// Section 7 case-study payload).
    pub fn new(features: &[Feature]) -> Result<Plan> {
        let features = normalize_features(features);
        let rows = subset_plan(&features);
        let merges = fpop::universe::plan_detached(rows.iter().map(|p| &p.def))?;
        Ok(Plan {
            features,
            rows,
            merges,
        })
    }

    /// The planned feature set, normalized.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// Each row's merge, in row order.
    pub fn merges(&self) -> &[MergedFamily] {
        &self.merges
    }
}

/// What a DAG node does for its variant: check the next field, or close
/// the family and extract the commit payload.
enum NodeKind {
    Step,
    Finish,
}

/// How a variant node was satisfied during a build (see
/// [`fpop::incr`] for the cutoff discipline).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Via {
    /// Ran [`FieldElab`] (fingerprint miss, or forced by a touch).
    Ran,
    /// Served from the memo although ≥1 dependency re-elaborated — its
    /// output digest came back identical (early cutoff).
    Cutoff,
    /// Served from the memo with every dependency also memo-served.
    Replay,
}

/// Everything a finished variant hands to the canonical-order commit
/// loop: the memo entry (compiled family, module delta, txn parts with
/// the uncommitted proof overlay, output digest) plus how the variant
/// was satisfied. Fresh elaborations and memo replays share the same
/// `Arc` — serving a variant from the memo is pointer-cheap.
struct VariantDone {
    memo: Arc<IncrMemo>,
    via: Via,
}

/// Mutable per-variant elaboration state, owned by the variant's node
/// chain. Chain edges make access strictly sequential — the mutex is for
/// the borrow checker and for dependents peeking at `done`; it is never
/// contended along a chain.
#[derive(Default)]
struct VariantRun<'m> {
    elab: Option<FieldElab<'m>>,
    txn: Option<CacheTxn>,
    env: Option<ModuleEnv>,
    mark: usize,
    /// The variant's input fingerprint, fixed at its first node (once
    /// every dependency's output digest is final).
    fp: u64,
    elapsed: Duration,
    done: Option<VariantDone>,
}

/// Memo policy of one DAG build.
enum MemoMode {
    /// Record every elaboration in the session memo but never consult it:
    /// plain builds keep their exact historical behavior while warming
    /// the memo for later rechecks.
    Record,
    /// Consult the memo, with a per-variant *force-dirty* flag (`true` =
    /// re-elaborate even on a fingerprint hit — the `redefine` "touch"
    /// semantics for variants whose source text is unchanged).
    Consult(Vec<bool>),
}

/// The task-DAG build over an already merged plan. Lowers the lattice to
/// a field-level [`TaskDag`] (one node per field plus a finish node per
/// variant; cross edges along the proper-subset order), runs it on
/// `workers` work-stealing threads with **no commits during the run**,
/// then commits every variant in canonical plan order — making reports,
/// ledgers, and session contents identical to defining the variants one
/// by one in plan order.
///
/// In `Consult` mode (the incremental recheck) it runs in two phases:
///
/// 1. **static dirty-cone seeding** — in plan order, any non-forced
///    variant whose dependencies are all statically clean has its
///    fingerprint computable before anything runs; on a memo hit it is
///    prefilled as a *replay* and excluded from the DAG entirely. The DAG
///    is then lowered over the dynamic remainder only (the dirty cone
///    plus its potential-cutoff frontier);
/// 2. **runtime early cutoff** — a dynamic variant's first node computes
///    its fingerprint from its dependencies' (now final) output digests.
///    A memo hit short-circuits the whole chain: *cutoff* if some
///    dependency re-elaborated (to an identical output), *replay*
///    otherwise. A miss elaborates normally and records the outcome.
///
/// The commit loop is canonical-order as ever; memo-served variants
/// recommit their recorded parts via
/// [`fpop::Session::commit_parts_replayed`], so ledgers and reports stay
/// bit-for-bit equal to a from-scratch build's.
///
/// Each variant elaborates in a world of `base_env` plus its
/// prerequisites' module deltas. The build commits proofs to `session`
/// and returns every variant's memo entry in plan order; it registers no
/// module and adopts no family. [`adopt`] does that for callers that keep
/// a universe.
fn build_dag(
    session: &Arc<Session>,
    base_env: &ModuleEnv,
    plan: &[PlanEntry],
    merged: &[MergedFamily],
    mode: MemoMode,
    workers: usize,
) -> Result<(Vec<Arc<IncrMemo>>, LatticeReport, IncrOutcome)> {
    let n = plan.len();
    debug_assert_eq!(merged.len(), n);
    let (consult, forced) = match mode {
        MemoMode::Record => (false, vec![false; n]),
        MemoMode::Consult(f) => {
            debug_assert_eq!(f.len(), n);
            (true, f)
        }
    };
    // deps[i]: every proper-subset variant, ascending (canonical) order.
    let deps: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            (0..i)
                .filter(|&j| {
                    let (mi, mj) = (plan[i].mask, plan[j].mask);
                    mj & mi == mj && mj != mi
                })
                .collect()
        })
        .collect();

    // Static dirty-cone seeding (Consult mode): walk the plan in order and
    // prefill every variant whose fingerprint is already computable — all
    // dependencies statically clean — and memoized. These are replays; the
    // DAG is built over the dynamic remainder only.
    let mut prefill: Vec<Option<VariantDone>> = (0..n).map(|_| None).collect();
    let mut static_out: Vec<Option<u64>> = vec![None; n];
    if consult {
        for v in 0..n {
            if forced[v] {
                continue;
            }
            let outs: Option<Vec<u64>> = deps[v].iter().map(|&d| static_out[d]).collect();
            let Some(outs) = outs else { continue };
            let fp = incr::fingerprint(merged[v].src_digest, &outs);
            if let Some(m) = session.incr_memos().lookup(fp) {
                static_out[v] = Some(m.out_digest);
                prefill[v] = Some(VariantDone {
                    memo: m,
                    via: Via::Replay,
                });
            }
        }
    }
    let in_dag: Vec<bool> = prefill.iter().map(Option::is_none).collect();

    let mut dag = TaskDag::new();
    let mut node_map: Vec<(usize, NodeKind)> = Vec::new();
    let mut first = vec![0usize; n];
    let mut finish = vec![0usize; n];
    for v in 0..n {
        if !in_dag[v] {
            continue;
        }
        let name = merged[v].name;
        let mut prev: Option<usize> = None;
        for mf in merged[v].fields.iter() {
            let id = dag.add_node(format!("{name}◦{}", mf.name));
            node_map.push((v, NodeKind::Step));
            match prev {
                Some(p) => dag.add_edge(p, id),
                None => first[v] = id,
            }
            prev = Some(id);
        }
        let fin = dag.add_node(format!("{name}◦⟨finish⟩"));
        node_map.push((v, NodeKind::Finish));
        match prev {
            Some(p) => dag.add_edge(p, fin),
            None => first[v] = fin,
        }
        finish[v] = fin;
        for &d in &deps[v] {
            // Prefilled dependencies are final before the run starts; only
            // dynamic ones need an ordering edge.
            if in_dag[d] {
                dag.add_edge(finish[d], first[v]);
            }
        }
    }

    let states: Vec<Mutex<VariantRun<'_>>> = prefill
        .into_iter()
        .map(|p| {
            Mutex::new(VariantRun {
                done: p,
                ..VariantRun::default()
            })
        })
        .collect();

    if dag.node_count() > 0 {
        let ready = fpop::sched::ready_depth_gauge(session.registry());
        dag.run(workers, &ready, |node| -> Result<()> {
            let t = Instant::now();
            let (v, kind) = &node_map[node];
            let v = *v;
            let mut st = states[v].lock().expect("variant state poisoned");
            if st.done.is_some() {
                // Memo-served at this variant's first node; the rest of
                // its chain no-ops.
                return Ok(());
            }
            if st.elab.is_none() {
                // First node of this variant. Its dependencies' outputs
                // are final here (cross edges for dynamic deps, prefill
                // for static ones), so the input fingerprint is now
                // computable. (Safe lock order: a node locks its own
                // variant, then strictly lower-indexed, finished
                // dependencies one at a time.)
                let mut dep_outs = Vec::with_capacity(deps[v].len());
                let mut any_dep_ran = false;
                for &d in &deps[v] {
                    let dep = states[d].lock().expect("variant state poisoned");
                    let done = dep.done.as_ref().expect("dependency scheduled first");
                    dep_outs.push(done.memo.out_digest);
                    any_dep_ran |= done.via == Via::Ran;
                }
                st.fp = incr::fingerprint(merged[v].src_digest, &dep_outs);
                if consult && !forced[v] {
                    if let Some(m) = session.incr_memos().lookup(st.fp) {
                        // Early cutoff: some dependency re-elaborated but
                        // its output digest came back identical, so this
                        // variant (and transitively everything above it)
                        // is served from the memo without running
                        // FieldElab at all.
                        let via = if any_dep_ran {
                            Via::Cutoff
                        } else {
                            Via::Replay
                        };
                        st.done = Some(VariantDone { memo: m, via });
                        st.elapsed += t.elapsed();
                        return Ok(());
                    }
                }
                // Fingerprint miss (or forced): assemble the detached
                // world — the pre-build environment plus every
                // prerequisite's modules, and a transaction reading
                // through the prerequisites' uncommitted proof fragments.
                // The world's ledger starts empty (splicing a delta merges
                // no ledger), so it and the module mark cover exactly this
                // variant's own work.
                let mut env = base_env.clone();
                env.ledger = CheckLedger::new();
                let mut reads = Vec::with_capacity(deps[v].len());
                for &d in &deps[v] {
                    let dep = states[d].lock().expect("variant state poisoned");
                    let done = dep.done.as_ref().expect("dependency scheduled first");
                    env.apply_delta(&done.memo.delta)
                        .map_err(|e| Error::new(e.to_string()))?;
                    reads.push(done.memo.parts.overlay().clone());
                }
                st.mark = env.mark();
                st.txn = Some(session.begin_with_reads(reads));
                st.env = Some(env);
                st.elab = Some(FieldElab::new(&merged[v])?);
            }
            match kind {
                NodeKind::Step => {
                    let VariantRun { elab, txn, env, .. } = &mut *st;
                    let elab = elab.as_mut().expect("chain edge ran init");
                    elab.step(
                        txn.as_mut().expect("txn lives until finish"),
                        env.as_mut().expect("env lives until finish"),
                    )?;
                }
                NodeKind::Finish => {
                    let elab = st.elab.take().expect("chain edge ran init");
                    let mut env = st.env.take().expect("env lives until finish");
                    let compiled = elab.finish(&mut env)?;
                    // Warm the code cache where the family is compiled; a
                    // later build serving it from the memo does not.
                    warm_code_cache(session, &compiled);
                    let delta = env.into_delta(st.mark);
                    let parts = st.txn.take().expect("txn lives until finish").into_parts();
                    let out_digest = incr::output_digest(&delta);
                    let memo = Arc::new(IncrMemo {
                        compiled: Arc::new(compiled),
                        delta,
                        parts,
                        out_digest,
                    });
                    session.incr_memos().insert(st.fp, Arc::clone(&memo));
                    st.done = Some(VariantDone {
                        memo,
                        via: Via::Ran,
                    });
                }
            }
            st.elapsed += t.elapsed();
            Ok(())
        })
        .map_err(|e| match e {
            SchedError::Cycle(c) => Error::new(c.to_string()),
            SchedError::Task { label, error, .. } => {
                error.with_context(format!("lattice task {label}"))
            }
        })?
        .record(session.registry());
    }

    // Deterministic canonical-order commit: the shared session and the
    // report evolve exactly as when defining the variants one by one in
    // plan order, whatever order the workers actually ran in. Memo-served
    // variants recommit their recorded parts idempotently, replaying all
    // lookups as hits (no proof work was paid this build).
    let mut memos = Vec::with_capacity(n);
    let mut report = LatticeReport::default();
    let mut outcome = IncrOutcome::default();
    for (entry, state) in plan.iter().zip(states) {
        let run = state.into_inner().expect("variant state poisoned");
        let done = run.done.expect("every variant finished");
        match done.via {
            Via::Ran => {
                session.commit_parts(&done.memo.parts);
                outcome.dirty += 1;
                outcome.ran.push(done.memo.compiled.name.to_string());
            }
            Via::Cutoff => {
                session.commit_parts_replayed(&done.memo.parts);
                outcome.cutoff += 1;
            }
            Via::Replay => {
                session.commit_parts_replayed(&done.memo.parts);
                outcome.replayed += 1;
            }
        }
        report.rows.push(VariantStat {
            name: done.memo.compiled.name.to_string(),
            arity: entry.arity,
            fields: done.memo.compiled.fields.len(),
            checked: done.memo.compiled.ledger.checked_count(),
            shared: done.memo.compiled.ledger.shared_count(),
            reuse_ratio: done.memo.compiled.ledger.reuse_ratio(),
            elapsed: run.elapsed,
        });
        memos.push(done.memo);
    }
    if consult {
        session.incr_memos().count(&outcome);
    }
    Ok((memos, report, outcome))
}

/// Puts a build's variants into `u`, in plan order: registers each
/// memo's modules in `u.modenv`, absorbs the ledger of that registration
/// work, and adopts the compiled family. The same environment and families
/// as defining the variants one by one into `u`.
fn adopt(u: &mut FamilyUniverse, memos: &[Arc<IncrMemo>]) -> Result<()> {
    for memo in memos {
        u.modenv
            .apply_delta(&memo.delta)
            .map_err(|e| Error::new(e.to_string()))?;
        u.modenv.ledger.absorb(&memo.delta.ledger);
        u.adopt_arc(Arc::clone(&memo.compiled))?;
    }
    Ok(())
}

/// Cold build of `plan`'s sub-lattice into `u`, on `workers` scheduler
/// threads. Every variant compiles from the plan's merge, and every
/// elaboration is recorded in the session's elaboration memo (so later
/// [`rebuild`]s and [`redefine`]s can replay it) but none is served from
/// it. Returns one row per variant, in [`subset_plan`] order.
///
/// # Errors
///
/// Rejects, before any work runs, a plan naming a family `u` already
/// holds; propagates any elaboration failure (none are expected; the
/// lattice is the Section 7 case-study payload).
pub fn build(u: &mut FamilyUniverse, plan: &Plan, workers: usize) -> Result<LatticeReport> {
    if let Some(m) = plan
        .merges
        .iter()
        .find(|m| u.family(m.name.as_str()).is_some())
    {
        return Err(Error::new(format!("family {} is already defined", m.name))
            .with_context(format!("planning family {}", m.name)));
    }
    let (memos, report, _) = build_dag(
        u.session(),
        &u.modenv,
        &plan.rows,
        &plan.merges,
        MemoMode::Record,
        workers,
    )?;
    adopt(u, &memos)?;
    Ok(report)
}

/// The sub-lattice vernacular in canonical plan order — the definition
/// list [`rebuild`] takes, edited or not. Position *i* is entry *i* of
/// [`subset_plan`].
pub fn subset_defs(features: &[Feature]) -> Vec<FamilyDef> {
    subset_plan(features).into_iter().map(|p| p.def).collect()
}

/// Substitutes an edited definition list (as produced by [`subset_defs`]
/// and then modified) into the canonical plan, validating that it covers
/// exactly the plan's variants by name and position.
///
/// # Errors
///
/// Rejects a definition list of the wrong length, or one whose *i*-th
/// definition is not named after plan variant *i*.
pub fn plan_with_defs(features: &[Feature], defs: Vec<FamilyDef>) -> Result<Vec<PlanEntry>> {
    let mut plan = subset_plan(features);
    if defs.len() != plan.len() {
        return Err(Error::new(format!(
            "edited lattice has {} definitions, plan expects {}",
            defs.len(),
            plan.len()
        )));
    }
    for (entry, def) in plan.iter_mut().zip(defs) {
        if entry.def.name != def.name {
            return Err(Error::new(format!(
                "edited definition {} does not match plan variant {}",
                def.name, entry.def.name
            )));
        }
        entry.def = def;
    }
    Ok(plan)
}

/// Rejects a touched name that is not a variant of the plan.
fn check_variant(plan: &[PlanEntry], features: &[Feature], name: &str) -> Result<()> {
    if plan.iter().any(|p| p.def.name.as_str() == name) {
        return Ok(());
    }
    Err(Error::new(format!(
        "redefine: {name} is not a variant of this sub-lattice (features {:?})",
        normalize_features(features)
    )))
}

/// Incremental rebuild of an edited sub-lattice: replans `defs` (as
/// produced by [`subset_defs`] and then modified) against `prev`, whose
/// session — and therefore whose elaboration memo — the new build shares,
/// seeds the task DAG with only the dirty cone, and serves every
/// fingerprint hit from the memo with early cutoff. `touch` names
/// variants that must re-elaborate even if their source is unchanged (the
/// `redefine` "touch" semantics); genuinely edited variants are detected
/// by fingerprint automatically. Returns the freshly built universe (on
/// `prev`'s session), the report, and the per-variant [`IncrOutcome`]
/// tally.
///
/// # Errors
///
/// Rejects, before any work runs, a definition list that does not match
/// the plan by name and position and a `touch` name that is not a plan
/// variant; propagates any elaboration failure.
pub fn rebuild(
    prev: &FamilyUniverse,
    features: &[Feature],
    defs: Vec<FamilyDef>,
    touch: &[&str],
    workers: usize,
) -> Result<(FamilyUniverse, LatticeReport, IncrOutcome)> {
    let plan = plan_with_defs(features, defs)?;
    for name in touch {
        check_variant(&plan, features, name)?;
    }
    let merged = prev.replan_after_edit(plan.iter().map(|p| &p.def))?;
    let (memos, report, outcome) = incr_build(prev.session(), &plan, &merged, touch, workers)?;
    let mut next = FamilyUniverse::with_session(Arc::clone(prev.session()));
    adopt(&mut next, &memos)?;
    Ok((next, report, outcome))
}

/// Shared core of [`rebuild`] and [`redefine`]: seeds the forced set from
/// `touch` and runs the consult-mode DAG build over merged rows on
/// `session`, from an empty module environment.
fn incr_build(
    session: &Arc<Session>,
    plan: &[PlanEntry],
    merged: &[MergedFamily],
    touch: &[&str],
    workers: usize,
) -> Result<(Vec<Arc<IncrMemo>>, LatticeReport, IncrOutcome)> {
    let forced: Vec<bool> = plan
        .iter()
        .map(|p| touch.contains(&p.def.name.as_str()))
        .collect();
    let mode = MemoMode::Consult(forced);
    build_dag(session, &ModuleEnv::new(), plan, merged, mode, workers)
}

/// `redefine <family> <field>` — the engine's recheck entry point.
/// Re-proves `family` (whose source is unchanged — a *touch*) from the
/// plan's own merge and lets every dependent variant be served by early
/// cutoff; independent variants replay outright. The session's
/// elaboration memo is the only state it reads: no universe, no replan.
/// Validates that `family` is a variant of the plan and that `field`
/// exists in its merged view (inherited fields are redefinable too)
/// before any work runs.
///
/// Returns what the build produced, not a universe: every variant's memo
/// entry in plan order (its compiled family, module delta and proof
/// parts, whether it re-ran or was served from the memo), the report, and
/// the per-variant [`IncrOutcome`] tally. The proofs are committed to
/// `session`; no module is registered and no family adopted, so a
/// redefine pays for the variants it re-ran and not for the lattice.
///
/// # Errors
///
/// Rejects an unknown variant or field; propagates any elaboration
/// failure.
pub fn redefine(
    session: &Arc<Session>,
    plan: &Plan,
    family: &str,
    field: &str,
    workers: usize,
) -> Result<(Vec<Arc<IncrMemo>>, LatticeReport, IncrOutcome)> {
    check_variant(&plan.rows, &plan.features, family)?;
    let m = plan
        .merges
        .iter()
        .find(|m| m.name.as_str() == family)
        .expect("name validated above");
    if !m.fields.iter().any(|f| f.name.as_str() == field) {
        return Err(Error::new(format!(
            "redefine: family {family} has no field {field}"
        )));
    }
    incr_build(session, &plan.rows, &plan.merges, &[family], workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpop::elab::CompiledFamily;

    #[test]
    fn variant_names() {
        assert_eq!(
            variant_name(&[Feature::Fix, Feature::Isorec]),
            "STLCFixIsorec"
        );
        assert_eq!(variant_name(&Feature::all()), "STLCFixProdSumIsorec");
    }

    #[test]
    fn from_tag_roundtrips_and_rejects() {
        for f in Feature::all_extended() {
            assert_eq!(Feature::from_tag(f.tag()), Some(f));
            assert_eq!(Feature::from_tag(&f.tag().to_uppercase()), Some(f));
        }
        assert_eq!(Feature::from_tag("linear"), None);
    }

    #[test]
    fn normalize_orders_and_dedupes() {
        let n = normalize_features(&[Feature::Isorec, Feature::Fix, Feature::Isorec]);
        assert_eq!(n, vec![Feature::Fix, Feature::Isorec]);
    }

    #[test]
    fn subset_plan_counts_the_venn_and_extended_lattices() {
        let arities = |features: &[Feature]| {
            let mut per_arity = vec![0; features.len() + 1];
            for entry in subset_plan(features) {
                per_arity[entry.arity] += 1;
            }
            per_arity
        };
        assert_eq!(arities(&Feature::all()), vec![1, 4, 6, 4, 1]);
        assert_eq!(arities(&Feature::all_extended()), vec![1, 5, 10, 10, 5, 1]);
    }

    #[test]
    fn subset_plan_pair_has_base_singles_composite() {
        let plan = subset_plan(&[Feature::Prod, Feature::Fix]);
        let rows: Vec<_> = plan
            .iter()
            .map(|p| (p.def.name.as_str(), p.arity))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("STLC", 0),
                ("STLCFix", 1),
                ("STLCProd", 1),
                ("STLCFixProd", 2)
            ]
        );
    }

    #[test]
    fn subset_plan_single_feature_has_no_composites() {
        let plan = subset_plan(&[Feature::Sum]);
        let rows: Vec<_> = plan
            .iter()
            .map(|p| (p.def.name.as_str(), p.arity))
            .collect();
        assert_eq!(rows, vec![("STLC", 0), ("STLCSum", 1)]);
    }

    #[test]
    fn noop_rebuild_replays_everything() {
        let feats = [Feature::Fix, Feature::Prod];
        let mut u = FamilyUniverse::new();
        let warm = build(&mut u, &Plan::new(&feats).unwrap(), 1).unwrap();
        let (next, report, outcome) = rebuild(&u, &feats, subset_defs(&feats), &[], 1).unwrap();
        assert_eq!(outcome.dirty, 0);
        assert_eq!(outcome.cutoff, 0);
        assert_eq!(outcome.replayed, 4);
        assert!(outcome.ran.is_empty());
        assert_eq!(report.rows.len(), warm.rows.len());
        for (a, b) in report.rows.iter().zip(&warm.rows) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.checked, b.checked);
            assert_eq!(a.shared, b.shared);
        }
        assert!(next.family("STLCFixProd").is_some());
    }

    /// Each family, in plan order, compiled from the plan's merge of its
    /// name: it shares the merge's field list and name set, so nothing
    /// was merged again.
    fn compiled_from<'a>(plan: &Plan, families: impl Iterator<Item = &'a Arc<CompiledFamily>>) {
        let families: Vec<_> = families.collect();
        assert_eq!(families.len(), plan.merges().len());
        for (m, c) in plan.merges().iter().zip(families) {
            assert_eq!(c.name, m.name);
            assert!(Arc::ptr_eq(&m.fields, &c.fields), "{}", m.name);
            assert!(Arc::ptr_eq(&m.extended_names, &c.extended_names));
            assert_eq!(c.src_digest, m.src_digest, "{}", m.name);
        }
    }

    #[test]
    fn dag_build_compiles_each_merge_without_copying_it() {
        let mut u = FamilyUniverse::new();
        let plan = Plan::new(&Feature::all()).unwrap();
        build(&mut u, &plan, 1).unwrap();
        assert_eq!(plan.merges().len(), 16);
        compiled_from(&plan, u.families());
        for m in plan.merges() {
            let recomputed = incr::source_digest(m.name, m.base, &m.fields);
            assert_eq!(m.src_digest, recomputed, "{}", m.name);
        }
    }

    /// A redefine runs on the plan's merges as they are: the re-proved
    /// variant and every memo-served one share each field list with the
    /// plan, which a replan or a fresh merge would have reallocated.
    #[test]
    fn redefine_compiles_from_the_plan_s_merges() {
        let mut u = FamilyUniverse::new();
        let plan = Plan::new(&Feature::all()).unwrap();
        build(&mut u, &plan, 1).unwrap();
        let (memos, _, outcome) = redefine(u.session(), &plan, "STLCFix", "typesafe", 1).unwrap();
        assert_eq!(outcome.ran, vec!["STLCFix".to_string()]);
        compiled_from(&plan, memos.iter().map(|m| &m.compiled));
    }

    #[test]
    fn plan_normalizes_its_features() {
        let plan = Plan::new(&[Feature::Prod, Feature::Fix, Feature::Prod]).unwrap();
        assert_eq!(plan.features(), [Feature::Fix, Feature::Prod]);
        let names: Vec<&str> = plan.merges().iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["STLC", "STLCFix", "STLCProd", "STLCFixProd"]);
    }

    #[test]
    fn build_rejects_a_family_the_universe_already_holds() {
        let mut u = FamilyUniverse::new();
        u.define(crate::base::stlc_family()).unwrap();
        let err = build(&mut u, &Plan::new(&[Feature::Fix]).unwrap(), 1).unwrap_err();
        assert!(err.to_string().contains("already defined"), "{err}");
        assert_eq!(u.names().len(), 1, "nothing ran");
    }

    #[test]
    fn touch_recheck_reproves_only_dirty_cone() {
        let feats = [Feature::Fix, Feature::Prod];
        let mut u = FamilyUniverse::new();
        let plan = Plan::new(&feats).unwrap();
        let warm = build(&mut u, &plan, 1).unwrap();
        let field = u.family("STLCFix").unwrap().fields[0].name.to_string();
        let (memos, report, outcome) = redefine(u.session(), &plan, "STLCFix", &field, 1).unwrap();
        // Re-elaborated or memo-served, every variant keeps the field
        // list of the build it replaced.
        assert_eq!(memos.len(), u.names().len());
        for (memo, built) in memos.iter().zip(u.families()) {
            assert_eq!(memo.compiled.name, built.name);
            assert!(
                Arc::ptr_eq(&memo.compiled.fields, &built.fields),
                "{}",
                built.name
            );
        }
        // STLCFix re-elaborates; STLCFixProd is early-cutoff (its only
        // re-elaborated dependency produced an identical output digest);
        // STLC and STLCProd replay without entering the DAG at all.
        assert_eq!(outcome.ran, vec!["STLCFix".to_string()]);
        assert_eq!(outcome.dirty, 1);
        assert_eq!(outcome.cutoff, 1);
        assert_eq!(outcome.replayed, 2);
        for (a, b) in report.rows.iter().zip(&warm.rows) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.fields, b.fields);
            // Work is conserved per row. Memo-served rows are literal
            // copies; the re-ran row elaborates under a warm proof cache,
            // so its checked/shared *split* shifts toward shared while
            // the unit total stays fixed.
            assert_eq!(a.checked + a.shared, b.checked + b.shared);
            if a.name != "STLCFix" {
                assert_eq!(a.checked, b.checked);
                assert_eq!(a.shared, b.shared);
            }
        }
    }

    #[test]
    fn recheck_rejects_unknown_variant_or_field() {
        let feats = [Feature::Sum];
        let mut u = FamilyUniverse::new();
        let plan = Plan::new(&feats).unwrap();
        build(&mut u, &plan, 1).unwrap();
        let unknown = redefine(u.session(), &plan, "STLCFix", "x", 1)
            .err()
            .unwrap();
        assert_eq!(
            unknown.to_string(),
            "redefine: STLCFix is not a variant of this sub-lattice (features [Sum])"
        );
        let field = redefine(u.session(), &plan, "STLCSum", "nope", 1)
            .err()
            .unwrap();
        assert_eq!(
            field.to_string(),
            "redefine: family STLCSum has no field nope"
        );
        // A rebuild touching a name outside the plan fails the same way
        // instead of rebuilding nothing.
        let touched = rebuild(&u, &feats, subset_defs(&feats), &["STLCFix"], 1)
            .err()
            .unwrap();
        assert_eq!(touched.to_string(), unknown.to_string());
    }
}
