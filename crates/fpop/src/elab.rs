//! Elaboration of a merged family: per-field checking under late binding,
//! proof execution with cross-family reuse, exhaustivity enforcement, and
//! emission of parameterized modules (paper Section 4).
//!
//! The elaborator walks the merged field list front to back, growing a
//! *view* signature. The view realizes late binding exactly as Section 3.2
//! prescribes:
//!
//! * an `FRecursion` function enters the view as an **abstract** function
//!   symbol plus one propositional computation equation per case handler —
//!   it can never be unfolded inside the family;
//! * an `FInductive` datatype enters as **extensible**, so the kernel
//!   refuses ordinary recursors/inversion on it (C1), while its partial
//!   recursor registration licenses `finjection`/`fdiscriminate` (§3.6);
//! * each field is checked against only the fields *before* it, giving the
//!   context-preservation property of Section 3.4 (together with the merge
//!   anchoring in [`crate::merge`]).
//!
//! Proofs are cached content-addressed: a case or theorem whose statement,
//! obligation and script are unchanged is **reused without rechecking** in
//! derived families, and the [`modsys::CheckLedger`] records the split —
//! the measurable form of the paper's modular-compilation claim. Since the
//! check-session refactor the cache lives in [`crate::session::Session`]
//! and the elaborator reads/writes it through a [`CacheTxn`], so reuse
//! reaches across every family (and thread) drawing on the same session.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use objlang::error::{Error, Result};
use objlang::ident::Symbol;
use objlang::induction::{missing_recursion_cases, DataInduction, Motive, RuleInduction};
use objlang::proof::ProvedSequent;
use objlang::sig::{Datatype, FactKind, FnDef, IndPred, RecFn, Signature};
use objlang::syntax::Prop;
use objlang::tactic::{prove, prove_closed_world, prove_sequent};

use modsys::{CheckLedger, Item, ModEntry, Module, ModuleEnv, ModuleType};

use crate::family::{Field, ProofSpec};
use crate::merge::{MergedFamily, MergedField};
use crate::session::{CacheTxn, LookupSite};

/// A compiled (closed) family.
#[derive(Clone, Debug)]
pub struct CompiledFamily {
    /// Family name.
    pub name: Symbol,
    /// Base family.
    pub base: Option<Symbol>,
    /// The merged fields, for delta extraction by mixin users: the merge's
    /// own list, shared (see [`MergedFamily`]).
    pub fields: Arc<[MergedField]>,
    /// The closed signature (recursive functions concrete; evaluator-ready).
    ///
    /// Allocated once, by [`FieldElab::finish`], and shared by every
    /// holder. A compiled family is never mutated after [`elaborate`], so
    /// two families whose `sig`s are [`Arc::ptr_eq`] are the same
    /// compilation; the engine's family registry relies on that to skip
    /// re-registering a replayed or cut-off variant with one pointer
    /// compare.
    pub sig: Arc<Signature>,
    /// Theorems proven in (or inherited by) the family: name → statement.
    pub theorems: HashMap<Symbol, Prop>,
    /// Outstanding assumptions: `Parameter` fields, `Admitted` proofs and
    /// abstract functions (the family-level `Print Assumptions`).
    pub assumptions: Vec<Symbol>,
    /// Checked-vs-shared accounting for this family's elaboration.
    pub ledger: CheckLedger,
    /// Names further bound during the merge this compilation came from —
    /// preserved so a replan can reconstruct the [`MergedFamily`] of an
    /// unchanged definition without re-merging.
    pub extended_names: Arc<HashSet<Symbol>>,
    /// [`crate::incr::def_digest`] of the definition, via the merge.
    pub def_digest: u64,
    /// [`crate::incr::source_digest`] of the merged source, as the merge
    /// computed it, so replanning diffs compiled families by a stored word.
    pub src_digest: u64,
}

/// Elaborates a merged family into a [`CompiledFamily`], emitting module
/// structure into `modenv` and reusing proofs through the session
/// transaction `txn` (commit it on success to publish this family's
/// freshly discharged proofs to the shared store).
pub fn elaborate(
    merged: &MergedFamily,
    txn: &mut CacheTxn,
    modenv: &mut ModuleEnv,
) -> Result<CompiledFamily> {
    let _span = trace::span!("fpop.elaborate", "family={}", merged.name);
    let mut elab = FieldElab::new(merged)?;
    while !elab.is_done() {
        elab.step(txn, modenv)?;
    }
    elab.finish(modenv)
}

/// A *resumable* elaboration of one merged family: the front-to-back
/// field walk of [`elaborate`], reified as a value so each field check
/// can run as its own task-DAG node (see [`crate::sched`]). The struct
/// owns everything the walk accumulates (the growing view signature,
/// ledger, theorem map, emitter state); the session transaction and the
/// module environment are passed *per call*, because in the DAG build
/// they live in the variant's scheduling slot.
///
/// Invariants are exactly those of the sequential walk: [`Self::step`]
/// checks field `i` against fields `0..i` only (context preservation,
/// §3.4), and [`Self::finish`] closes the family and emits the aggregate
/// module. Splitting the walk across calls — or across worker threads, as
/// long as calls are totally ordered — cannot change the result, since
/// every input is owned state plus the passed-in txn/env.
pub struct FieldElab<'m> {
    merged: &'m MergedFamily,
    view: Signature,
    ledger: CheckLedger,
    theorems: HashMap<Symbol, Prop>,
    assumptions: Vec<Symbol>,
    emitter: EmitterState,
    /// The overridable-definition snapshot key of every proof-cache lookup
    /// in this family; the merge fixes it, so it is hashed once. Computed
    /// with the *stable* hasher ([`crate::stable`]) rather than
    /// `DefaultHasher`: the key is stored inside persistent session
    /// snapshots, so it must be identical for the same bodies in every
    /// process — interner ids (which seed `Symbol`'s derived `Hash`) are not.
    okey: u64,
    next: usize,
}

impl<'m> FieldElab<'m> {
    /// Prepares an elaboration: installs the prelude into a fresh view
    /// and hashes the transparent-definition cache-key component.
    pub fn new(merged: &'m MergedFamily) -> Result<FieldElab<'m>> {
        let mut view = Signature::new();
        objlang::prelude::install(&mut view)?;
        // Cache-key component: the bodies of *all* transparent definitions
        // in scope (overridable or not). A proof checked under one set of
        // bodies is never reused under another (see Field::Definition
        // handling below). Non-overridable bodies cannot change within a
        // lattice, so cross-variant sharing is unaffected — but two
        // unrelated programs in one shared session may collide on a
        // family/definition name with *different* bodies, and a proof that
        // unfolded one body must not be replayed as a hit for the other
        // (caught by the cache-bypass oracle).
        let odef_key: Vec<(Symbol, objlang::Term)> = merged
            .fields
            .iter()
            .filter_map(|mf| match &mf.content {
                Field::Definition { alias, .. } => Some((alias.name, alias.body.clone())),
                _ => None,
            })
            .collect();
        Ok(FieldElab {
            merged,
            view,
            ledger: CheckLedger::new(),
            theorems: HashMap::new(),
            assumptions: Vec::new(),
            emitter: EmitterState::new(merged.name),
            okey: crate::stable::stable_odef_hash(&odef_key),
            next: 0,
        })
    }

    /// Total number of fields to check.
    pub fn field_count(&self) -> usize {
        self.merged.fields.len()
    }

    /// Whether every field has been checked (only [`Self::finish`] left).
    pub fn is_done(&self) -> bool {
        self.next >= self.merged.fields.len()
    }

    /// Checks the next field against the fields before it.
    pub fn step(&mut self, txn: &mut CacheTxn, modenv: &mut ModuleEnv) -> Result<()> {
        let fam = self.merged.name;
        let mf = &self.merged.fields[self.next];
        self.next += 1;
        let unit = format!("{}◦{}", if mf.changed { fam } else { mf.origin }, mf.name);
        let _field_span = trace::span!("fpop.field", "unit={}", unit);
        let started = Instant::now();
        check_field(
            self.merged,
            mf,
            &unit,
            &mut self.view,
            txn,
            &mut self.ledger,
            &mut self.theorems,
            &mut self.assumptions,
            &mut self.emitter,
            modenv,
            self.okey,
        )
        .map_err(|e| e.with_context(format!("field {} of family {fam}", mf.name)))?;
        self.ledger.record_unit_time(&unit, started.elapsed());
        Ok(())
    }

    /// Closes the family after the last [`Self::step`]: recursive
    /// functions become concrete, the aggregate module is emitted, and
    /// the assumption audit runs.
    pub fn finish(self, modenv: &mut ModuleEnv) -> Result<CompiledFamily> {
        assert!(self.is_done(), "finish called with fields left to check");
        let merged = self.merged;
        // Close the family: recursive functions and overridable
        // definitions become concrete; their definitional equalities are
        // now available "outside the family" (Section 3.2's STLCFix.subst
        // discussion).
        let mut closed = self.view;
        for mf in merged.fields.iter() {
            if let Field::Recursion {
                name,
                rec_sort,
                params,
                ret,
                cases,
            } = &mf.content
            {
                closed.replace_fn(FnDef::Rec(RecFn {
                    name: *name,
                    rec_sort: *rec_sort,
                    params: params.clone(),
                    ret: *ret,
                    cases: cases.clone(),
                }))?;
            }
        }

        self.emitter
            .finish(modenv, &merged.fields, &self.assumptions)?;

        Ok(CompiledFamily {
            name: merged.name,
            base: merged.base,
            fields: Arc::clone(&merged.fields),
            sig: Arc::new(closed),
            theorems: self.theorems,
            assumptions: self.assumptions,
            ledger: self.ledger,
            extended_names: Arc::clone(&merged.extended_names),
            def_digest: merged.def_digest,
            src_digest: merged.src_digest,
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn check_field(
    merged: &MergedFamily,
    mf: &MergedField,
    unit: &str,
    view: &mut Signature,
    txn: &mut CacheTxn,
    ledger: &mut CheckLedger,
    theorems: &mut HashMap<Symbol, Prop>,
    assumptions: &mut Vec<Symbol>,
    emitter: &mut EmitterState,
    env: &mut ModuleEnv,
    okey: u64,
) -> Result<()> {
    let fam = merged.name;
    match &mf.content {
        Field::Inductive { name, ctors } => {
            view.add_datatype(Datatype {
                name: *name,
                ctors: ctors.clone(),
                extensible: true,
            })?;
            // Partial recursor for this family's snapshot (§3.6).
            view.add_partial_recursor(*name, fam)?;
            if mf.changed {
                ledger.record_checked(unit);
            } else {
                ledger.record_shared(unit);
            }
            emitter.inductive(env, mf, ctors.len())?;
        }
        Field::Data { name, ctors } => {
            view.add_datatype(Datatype {
                name: *name,
                ctors: ctors.clone(),
                extensible: false,
            })?;
            record(ledger, mf, unit);
            emitter.plain_module(
                env,
                mf,
                &[Item::inductive(name.as_str(), "non-extensible data")],
            )?;
        }
        Field::Predicate {
            name,
            arg_sorts,
            rules,
            hint,
        } => {
            let p = IndPred {
                name: *name,
                arg_sorts: arg_sorts.clone(),
                rules: rules.clone(),
                extensible: true,
            };
            view.check_pred(&p)?;
            view.add_pred(p)?;
            if *hint {
                view.add_hint_pred(name.as_str());
            }
            record(ledger, mf, unit);
            emitter.inductive(env, mf, rules.len())?;
        }
        Field::Recursion {
            name,
            rec_sort,
            params,
            ret,
            cases,
        } => {
            let f = RecFn {
                name: *name,
                rec_sort: *rec_sort,
                params: params.clone(),
                ret: *ret,
                cases: cases.clone(),
            };
            view.check_recfn(&f)?;
            // Exhaustivity over the constructors known at this point (C1):
            let missing = missing_recursion_cases(view, &f);
            if !missing.is_empty() {
                return Err(Error::new(format!(
                    "FRecursion {name} on {rec_sort} is not exhaustive: the \
                     datatype was further bound but cases are missing for \
                     {missing:?}; further bind the recursion (paper C1)"
                )));
            }
            // Late binding: the function is visible only abstractly, with
            // propositional computation equations (§3.2).
            view.add_fn(FnDef::Abstract {
                name: *name,
                params: f.param_sorts(),
                ret: *ret,
            })?;
            let dt = view.datatype(*rec_sort).expect("checked above").clone();
            for case in cases {
                let ctor = dt
                    .ctors
                    .iter()
                    .find(|c| c.name == case.ctor)
                    .expect("exhaustivity checked");
                view.add_fact(
                    Symbol::new(&format!("{name}_{}_eq", case.ctor)),
                    f.case_equation(case, ctor),
                    FactKind::CompEq,
                )?;
            }
            record(ledger, mf, unit);
            emitter.recursion(env, mf, cases.len())?;
        }
        Field::Definition { alias, overridable } => {
            // Check the body.
            let vars: HashMap<Symbol, objlang::Sort> = alias.params.iter().cloned().collect();
            view.check_term(&vars, &alias.body, alias.ret)?;
            // Overridable definitions are unfoldable too (§3.3); safety
            // comes from the proof cache keying on every overridable
            // definition's current body, so code that unfolded a field is
            // re-checked — and must be overridden if it no longer proves —
            // whenever the field is overridden.
            let eq_suffix = if *overridable { "_delta" } else { "_eq" };
            view.add_fact(
                Symbol::new(&format!("{}{eq_suffix}", alias.name)),
                alias.delta_equation(),
                FactKind::DeltaEq,
            )?;
            view.add_fn(FnDef::Alias(alias.clone()))?;
            record(ledger, mf, unit);
            emitter.plain_module(
                env,
                mf,
                &[Item::definition(mf.name.as_str(), "transparent def")],
            )?;
        }
        Field::PropDefinition { def } => {
            let vars: HashMap<Symbol, objlang::Sort> = def.params.iter().cloned().collect();
            view.check_prop(&vars, &def.body)?;
            view.add_propdef(def.clone())?;
            record(ledger, mf, unit);
            emitter.plain_module(env, mf, &[Item::definition(mf.name.as_str(), "prop def")])?;
        }
        Field::AbstractFn { name, params, ret } => {
            view.add_fn(FnDef::Abstract {
                name: *name,
                params: params.clone(),
                ret: *ret,
            })?;
            assumptions.push(*name);
            record(ledger, mf, unit);
            emitter.axiom_module(env, mf, "abstract function parameter")?;
        }
        Field::Parameter {
            name,
            statement,
            hint,
        } => {
            view.check_prop(&HashMap::new(), statement)?;
            view.add_fact(*name, statement.clone(), FactKind::Axiom)?;
            if *hint {
                view.add_hint(name.as_str());
            }
            assumptions.push(*name);
            theorems.insert(*name, statement.clone());
            record(ledger, mf, unit);
            emitter.axiom_module(env, mf, "parameter (axiom until overridden)")?;
        }
        Field::Theorem {
            name,
            statement,
            proof,
            hint,
        } => {
            view.check_prop(&HashMap::new(), statement)?;
            match proof {
                ProofSpec::Script(script) => {
                    let hit = txn.lookup_theorem(statement, script, &None, okey);
                    txn.count_site(LookupSite::Theorem, hit);
                    if hit {
                        ledger.record_cache_hit();
                        ledger.record_shared(unit);
                    } else {
                        ledger.record_cache_miss();
                        prove(view, statement.clone(), script)
                            .map_err(|e| e.with_context(format!("proof of {name}")))?;
                        txn.insert_theorem(statement.clone(), script.clone(), None, okey);
                        ledger.record_checked(unit);
                    }
                }
                ProofSpec::ReproveOnExtend { script, depends_on } => {
                    // Key on the *content* of the inspected types: any
                    // further binding changes the key and forces a re-run.
                    let cw_key: Vec<(Symbol, Vec<Symbol>)> = depends_on
                        .iter()
                        .map(|d| {
                            let members = view
                                .datatype(*d)
                                .map(|dt| dt.ctors.iter().map(|c| c.name).collect())
                                .or_else(|| {
                                    view.pred(*d)
                                        .map(|p| p.rules.iter().map(|r| r.name).collect())
                                })
                                .unwrap_or_default();
                            (*d, members)
                        })
                        .collect();
                    let cw_key = Some(cw_key);
                    let hit = txn.lookup_theorem(statement, script, &cw_key, okey);
                    txn.count_site(LookupSite::Reprove, hit);
                    if hit {
                        ledger.record_cache_hit();
                        ledger.record_shared(unit);
                    } else {
                        ledger.record_cache_miss();
                        prove_closed_world(view, statement.clone(), script)
                            .map_err(|e| e.with_context(format!("re-provable proof of {name}")))?;
                        txn.insert_theorem(statement.clone(), script.clone(), cw_key, okey);
                        ledger.record_checked(unit);
                    }
                }
                ProofSpec::Admitted => {
                    assumptions.push(*name);
                    ledger.record_checked(unit);
                }
            }
            let kind = if matches!(proof, ProofSpec::Admitted) {
                FactKind::Axiom
            } else {
                FactKind::Lemma
            };
            view.add_fact(*name, statement.clone(), kind)?;
            if *hint {
                view.add_hint(name.as_str());
            }
            theorems.insert(*name, statement.clone());
            emitter.theorem(env, mf, matches!(proof, ProofSpec::Admitted))?;
        }
        Field::Induction {
            name,
            pred,
            motive,
            cases,
            hint,
        } => {
            let p = view.pred(*pred).ok_or_else(|| {
                Error::new(format!("FInduction {name}: unknown predicate {pred}"))
            })?;
            let motive = Motive::for_pred(p, motive.params.clone(), motive.body.clone())?;
            {
                let vars: HashMap<Symbol, objlang::Sort> = motive.params.iter().cloned().collect();
                view.check_prop(&vars, &motive.body)?;
            }
            let induction = RuleInduction::new(view, *pred, motive)?;
            let mut proved: HashMap<Symbol, ProvedSequent> = HashMap::new();
            let mut shared_cases = 0usize;
            let mut checked_cases = 0usize;
            for (rule, seq) in induction.obligations() {
                let (_, script) = cases.iter().find(|(r, _)| *r == rule).ok_or_else(|| {
                    Error::new(format!(
                        "FInduction {name} on {pred} is not exhaustive: \
                             missing Case {rule} — the predicate was further bound, \
                             so the induction must be further bound too (paper C1)"
                    ))
                })?;
                let case_unit = format!("{unit}◦{rule}");
                let cached = txn.lookup_case(seq, script, okey);
                txn.count_site(LookupSite::Induction, cached.is_some());
                if let Some(pf) = cached {
                    proved.insert(rule, pf);
                    ledger.record_cache_hit();
                    ledger.record_shared(&case_unit);
                    shared_cases += 1;
                } else {
                    ledger.record_cache_miss();
                    let pf = prove_sequent(view, seq.clone(), false, script)
                        .map_err(|e| e.with_context(format!("Case {rule} of {name}")))?;
                    txn.insert_case(seq.clone(), script.clone(), pf.clone(), okey);
                    proved.insert(rule, pf);
                    ledger.record_checked(&case_unit);
                    checked_cases += 1;
                }
            }
            for (r, _) in cases {
                if !p.rules.iter().any(|rule| rule.name == *r) {
                    return Err(Error::new(format!(
                        "FInduction {name}: case {r} does not correspond to a rule of {pred}"
                    )));
                }
            }
            let thm = induction.conclude(&proved)?;
            view.add_fact(*name, thm.prop().clone(), FactKind::Lemma)?;
            if *hint {
                view.add_hint(name.as_str());
            }
            theorems.insert(*name, thm.prop().clone());
            emitter.induction(env, mf, shared_cases, checked_cases)?;
        }
        Field::DataInduction {
            name,
            datatype,
            motive,
            cases,
            hint,
        } => {
            let dt = view.datatype(*datatype).ok_or_else(|| {
                Error::new(format!("FInduction {name}: unknown datatype {datatype}"))
            })?;
            {
                let mut vars = HashMap::new();
                vars.insert(motive.param, motive.sort);
                view.check_prop(&vars, &motive.body)?;
            }
            let induction = DataInduction::new(view, *datatype, motive.clone())?;
            let mut proved: HashMap<Symbol, ProvedSequent> = HashMap::new();
            for (ctor, seq) in induction.obligations() {
                let (_, script) = cases.iter().find(|(r, _)| *r == ctor).ok_or_else(|| {
                    Error::new(format!(
                        "FInduction {name} on {datatype} is not exhaustive: \
                         missing Case {ctor} — the datatype was further bound, so \
                         the induction must be further bound too (paper C1)"
                    ))
                })?;
                let case_unit = format!("{unit}◦{ctor}");
                let cached = txn.lookup_case(seq, script, okey);
                txn.count_site(LookupSite::DataInduction, cached.is_some());
                if let Some(pf) = cached {
                    proved.insert(ctor, pf);
                    ledger.record_cache_hit();
                    ledger.record_shared(&case_unit);
                } else {
                    ledger.record_cache_miss();
                    let pf = prove_sequent(view, seq.clone(), false, script)
                        .map_err(|e| e.with_context(format!("Case {ctor} of {name}")))?;
                    txn.insert_case(seq.clone(), script.clone(), pf.clone(), okey);
                    proved.insert(ctor, pf);
                    ledger.record_checked(&case_unit);
                }
            }
            for (r, _) in cases {
                if !dt.ctors.iter().any(|c| c.name == *r) {
                    return Err(Error::new(format!(
                        "FInduction {name}: case {r} is not a constructor of {datatype}"
                    )));
                }
            }
            let thm = induction.conclude(&proved)?;
            view.add_fact(*name, thm.prop().clone(), FactKind::Lemma)?;
            if *hint {
                view.add_hint(name.as_str());
            }
            theorems.insert(*name, thm.prop().clone());
            emitter.induction(env, mf, 0, cases.len())?;
        }
        // Extension markers never survive the merge.
        Field::InductiveExt { .. }
        | Field::PredicateExt { .. }
        | Field::RecursionExt { .. }
        | Field::InductionExt { .. }
        | Field::DataInductionExt { .. }
        | Field::OverrideTheorem { .. }
        | Field::OverrideDefinition { .. } => {
            return Err(Error::new(format!(
                "internal error: unresolved extension field {} after merge",
                mf.name
            )))
        }
    }
    Ok(())
}

fn record(ledger: &mut CheckLedger, mf: &MergedField, unit: &str) {
    if mf.changed {
        ledger.record_checked(unit);
    } else {
        ledger.record_shared(unit);
    }
}

/// Emits the Figures 4–5 module structure for a family, field by field.
///
/// Owned state only (no borrow of the module environment): the target
/// [`ModuleEnv`] is passed into each method, so the emitter can sit inside
/// a [`FieldElab`] whose env lives in a scheduling slot between steps.
struct EmitterState {
    fam: Symbol,
    prev_ctx: Option<String>,
    prev_mod: Option<String>,
    includes_for_aggregate: Vec<String>,
}

impl EmitterState {
    fn new(fam: Symbol) -> EmitterState {
        EmitterState {
            fam,
            prev_ctx: None,
            prev_mod: None,
            includes_for_aggregate: Vec::new(),
        }
    }

    fn owner(&self, mf: &MergedField) -> Symbol {
        if mf.changed {
            self.fam
        } else {
            mf.origin
        }
    }

    fn ctx_name(&self, mf: &MergedField) -> String {
        format!("{}◦{}◦Ctx", self.owner(mf), mf.name)
    }

    fn mod_name(&self, mf: &MergedField) -> String {
        format!("{}◦{}", self.owner(mf), mf.name)
    }

    /// Emits the `Ctx` module type chaining the previous field, then the
    /// field's own module (type) with `items`; `include_prior` optionally
    /// includes a prior family's version of the same field (Figure 5's
    /// `Include STLC◦tm(self)`).
    fn field_module(
        &mut self,
        env: &mut ModuleEnv,
        mf: &MergedField,
        items: Vec<Item>,
        as_module_type: bool,
    ) -> Result<()> {
        let ctx = self.ctx_name(mf);
        let name = self.mod_name(mf);
        if !mf.changed {
            // Inherited unchanged: reuse the origin family's compiled
            // modules without rechecking.
            env.record_shared(&name);
            self.prev_ctx = Some(ctx);
            self.prev_mod = Some(name.clone());
            self.includes_for_aggregate.push(name);
            return Ok(());
        }
        let mut ctx_entries = Vec::new();
        if let Some(p) = &self.prev_ctx {
            ctx_entries.push(ModEntry::Include(p.clone()));
        }
        if let Some(p) = &self.prev_mod {
            ctx_entries.push(ModEntry::Include(p.clone()));
        }
        env.add_module_type(ModuleType {
            name: ctx.as_str().into(),
            self_ctx: None,
            entries: ctx_entries,
        })
        .map_err(|e| Error::new(e.to_string()))?;
        let mut entries = Vec::new();
        if let Some(prev_fam) = mf.inherited_from {
            let prior = format!("{prev_fam}◦{}", mf.name);
            if env.module_type(&prior).is_some() || env.module(&prior).is_some() {
                entries.push(ModEntry::Include(prior.clone()));
                env.record_shared(&prior);
            }
        }
        entries.extend(items.into_iter().map(ModEntry::Declare));
        if as_module_type {
            env.add_module_type(ModuleType {
                name: name.as_str().into(),
                self_ctx: Some(ctx.clone()),
                entries,
            })
            .map_err(|e| Error::new(e.to_string()))?;
        } else {
            env.add_module(Module {
                name: name.as_str().into(),
                self_ctx: Some(ctx.clone()),
                entries,
            })
            .map_err(|e| Error::new(e.to_string()))?;
        }
        self.prev_ctx = Some(ctx);
        self.prev_mod = Some(name.clone());
        self.includes_for_aggregate.push(name);
        Ok(())
    }

    fn inductive(&mut self, env: &mut ModuleEnv, mf: &MergedField, n_members: usize) -> Result<()> {
        let items = vec![
            Item::axiom(mf.name.as_str(), "Set (late bound)"),
            Item::axiom(
                &format!("{}_prect_{}", mf.name, self.fam),
                &format!("partial recursor over {n_members} constructors"),
            ),
        ];
        self.field_module(env, mf, items, true)
    }

    fn recursion(&mut self, env: &mut ModuleEnv, mf: &MergedField, n_cases: usize) -> Result<()> {
        let items = vec![
            Item::axiom(
                mf.name.as_str(),
                &format!("late-bound recursion ({n_cases} cases)"),
            ),
            Item::axiom(&format!("{}_eqs", mf.name), "computation equations"),
        ];
        self.field_module(env, mf, items, true)
    }

    fn induction(
        &mut self,
        env: &mut ModuleEnv,
        mf: &MergedField,
        shared: usize,
        checked: usize,
    ) -> Result<()> {
        let items = vec![Item::axiom(
            mf.name.as_str(),
            &format!("late-bound induction ({shared} cases reused, {checked} checked)"),
        )];
        self.field_module(env, mf, items, true)
    }

    fn theorem(&mut self, env: &mut ModuleEnv, mf: &MergedField, admitted: bool) -> Result<()> {
        if admitted {
            self.axiom_module(env, mf, "Admitted")
        } else {
            self.field_module(env, mf, vec![Item::opaque(mf.name.as_str(), "Qed")], false)
        }
    }

    fn plain_module(
        &mut self,
        env: &mut ModuleEnv,
        mf: &MergedField,
        items: &[Item],
    ) -> Result<()> {
        self.field_module(env, mf, items.to_vec(), false)
    }

    fn axiom_module(&mut self, env: &mut ModuleEnv, mf: &MergedField, descr: &str) -> Result<()> {
        self.field_module(env, mf, vec![Item::axiom(mf.name.as_str(), descr)], true)
    }

    /// Emits the aggregate module (`Module STLC. … End STLC.`), discharging
    /// every axiom except those of `Parameter`/`Admitted` fields; then runs
    /// the `Print Assumptions` audit.
    fn finish(
        self,
        env: &mut ModuleEnv,
        fields: &[MergedField],
        assumptions: &[Symbol],
    ) -> Result<()> {
        let agg_name = self.fam.as_str().to_string();
        let mut entries = Vec::new();
        let mut discharge: Vec<Item> = Vec::new();
        for inc in &self.includes_for_aggregate {
            entries.push(ModEntry::Include(inc.clone()));
        }
        for mf in fields {
            let keep_axiom = assumptions.contains(&mf.name);
            if keep_axiom {
                continue;
            }
            // Discharge the names this field declared as axioms.
            let modname = self.mod_name(mf);
            if let Ok(items) = env.flatten(&modname) {
                for it in items {
                    if it.kind == modsys::ItemKind::Axiom {
                        discharge.push(Item::definition(&it.name, "instantiated at End"));
                    }
                }
            }
        }
        entries.extend(discharge.into_iter().map(ModEntry::Declare));
        env.add_module(Module {
            name: agg_name.as_str().into(),
            self_ctx: None,
            entries,
        })
        .map_err(|e| Error::new(e.to_string()))?;
        let lingering = env
            .print_assumptions(&agg_name)
            .map_err(|e| Error::new(e.to_string()))?;
        for l in &lingering {
            if !assumptions.iter().any(|a| l.starts_with(a.as_str())) {
                return Err(Error::new(format!(
                    "assumption audit for {agg_name}: unexpected lingering axiom {l}"
                )));
            }
        }
        Ok(())
    }
}
