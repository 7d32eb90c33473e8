//! The family universe: defines families, resolves inheritance and mixins,
//! and answers `Check` queries.
//!
//! Since the check-session refactor a universe no longer owns its proof
//! cache: it holds an `Arc<`[`Session`]`>`. By default each universe gets a
//! fresh session, which reproduces the old behavior exactly; pass a shared
//! session with [`FamilyUniverse::with_session`] and *every* universe in a
//! run — including universes on different threads — reuses each other's
//! proofs. That is the channel the parallel lattice build and the
//! `CS1-share` experiment measure.

use std::collections::HashMap;
use std::sync::Arc;

use objlang::error::{Error, Result};
use objlang::ident::Symbol;
use objlang::syntax::Prop;

use modsys::ModuleEnv;

use crate::elab::{elaborate, CompiledFamily};
use crate::family::FamilyDef;
use crate::merge::{delta_of, merge, MergedFamily, MergedField};
use crate::session::Session;

/// A universe of compiled families sharing a module environment and a
/// check session (the cross-family reuse of Section 4).
pub struct FamilyUniverse {
    families: HashMap<Symbol, Arc<CompiledFamily>>,
    order: Vec<Symbol>,
    session: Arc<Session>,
    /// The shared module environment; inspect it for the Figures 4–5
    /// compilation structure and the global check ledger.
    pub modenv: ModuleEnv,
}

impl Default for FamilyUniverse {
    fn default() -> FamilyUniverse {
        FamilyUniverse::new()
    }
}

impl std::fmt::Debug for FamilyUniverse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FamilyUniverse")
            .field("families", &self.order)
            .finish_non_exhaustive()
    }
}

impl FamilyUniverse {
    /// An empty universe with its own private session.
    pub fn new() -> FamilyUniverse {
        FamilyUniverse::with_session(Session::new())
    }

    /// An empty universe drawing on (and contributing to) a shared check
    /// session. Proofs discharged here are reusable by every other
    /// universe holding the same session, and vice versa.
    pub fn with_session(session: Arc<Session>) -> FamilyUniverse {
        FamilyUniverse {
            families: HashMap::new(),
            order: Vec::new(),
            session,
            modenv: ModuleEnv::default(),
        }
    }

    /// The check session this universe draws on.
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// Resolves a definition against the families already in this universe:
    /// inheritance lookup, mixin delta extraction, and merge (the first
    /// half of `define`).
    fn resolve(&self, def: &FamilyDef) -> Result<MergedFamily> {
        resolve_against(&self.families, def, &HashMap::new(), false)
    }

    /// Resolves a whole batch of definitions up front, each against this
    /// universe plus the *earlier entries of the batch* — without
    /// elaborating anything. The returned merges are in input order. This
    /// is step one of the task-DAG lattice build: with every variant
    /// merged, the scheduler can derive field-level dependency edges
    /// before any proof runs.
    pub fn plan<'a>(
        &self,
        defs: impl IntoIterator<Item = &'a FamilyDef>,
    ) -> Result<Vec<MergedFamily>> {
        plan_against(&self.families, defs)
    }

    /// Replans a whole lattice *after an edit*: like [`Self::plan`], but
    /// definitions may reuse the names of families already compiled in
    /// this universe (the new merges shadow them). Returns the merges in
    /// input order; each carries its source digest
    /// ([`crate::incr::source_digest`]), which the incremental lattice
    /// build fingerprints, so only the edited variants and their
    /// dependents re-elaborate.
    ///
    /// Replanning is itself incremental: a definition whose
    /// [`def_digest`](crate::incr::def_digest) matches its compiled
    /// predecessor's, and whose base and mixins are all clean, *must*
    /// merge to the predecessor's exact field list — so the merge is
    /// reconstructed from the compiled family (the predecessor's shared
    /// field list and stored digests, pointers and words only) instead of
    /// re-run. A re-run merge counts as clean when its source digest
    /// equals its predecessor's. This leans on the universes the in-tree
    /// builders produce being internally consistent: every compiled family
    /// was compiled against the ancestor shapes compiled beside it.
    pub fn replan_after_edit<'a>(
        &self,
        defs: impl IntoIterator<Item = &'a FamilyDef>,
    ) -> Result<Vec<MergedFamily>> {
        let mut planned: HashMap<Symbol, MergedFamily> = HashMap::new();
        // Batch members that came out content-equal to their compiled
        // predecessor. Ancestors *outside* the batch are compiled families
        // being neither edited nor replanned — clean by definition.
        let mut clean: HashMap<Symbol, bool> = HashMap::new();
        let is_clean = |name: &Symbol, clean: &HashMap<Symbol, bool>| {
            clean
                .get(name)
                .copied()
                .unwrap_or_else(|| self.families.contains_key(name))
        };
        let mut out = Vec::new();
        for def in defs {
            let prev = self.families.get(&def.name);
            let chain_clean = def.extends.is_none_or(|b| is_clean(&b, &clean))
                && def.mixins.iter().all(|m| is_clean(m, &clean));
            let dd = crate::incr::def_digest(def);
            let (merged, dirty) = match prev {
                Some(p) if chain_clean && p.def_digest == dd => (
                    MergedFamily {
                        name: p.name,
                        base: p.base,
                        fields: Arc::clone(&p.fields),
                        extended_names: Arc::clone(&p.extended_names),
                        def_digest: dd,
                        src_digest: p.src_digest,
                    },
                    false,
                ),
                _ => {
                    let merged = resolve_against(&self.families, def, &planned, true)
                        .map_err(|e| e.with_context(format!("replanning family {}", def.name)))?;
                    let dirty = prev.is_none_or(|p| p.src_digest != merged.src_digest);
                    (merged, dirty)
                }
            };
            clean.insert(def.name, !dirty);
            // Clean variants need no `planned` entry: `resolve_inner` falls
            // back to `self.families`, whose compiled shape is (by the
            // fast-path argument above) identical to this merge.
            if dirty {
                planned.insert(def.name, merged.clone());
            }
            out.push(merged);
        }
        Ok(out)
    }

    /// Defines (elaborates and checks) a family. Equivalent to executing
    /// `Family F [extends B [using M…]]. … End F.`
    ///
    /// # Errors
    ///
    /// Propagates every static error the paper's design mandates:
    /// exhaustivity violations (C1), illegal closed-world reasoning,
    /// context-preservation violations (C3, e.g. the circular-reasoning
    /// counterexample of Section 3.4), illegal overrides (§3.3), and mixin
    /// conflicts or retrofit obligations (§3.5).
    pub fn define(&mut self, def: FamilyDef) -> Result<&CompiledFamily> {
        let name = def.name;
        let merged = self.resolve(&def)?;
        let mut txn = self.session.begin();
        let compiled = elaborate(&merged, &mut txn, &mut self.modenv)?;
        txn.commit();
        warm_code_cache(&self.session, &compiled);
        self.order.push(name);
        self.families.insert(name, Arc::new(compiled));
        Ok(self.families[&name].as_ref())
    }

    /// Registers a family compiled outside this universe and already
    /// behind an `Arc` — the task-DAG lattice build elaborates each
    /// variant in a detached world and adopts it here in canonical order,
    /// sharing the memo's compiled family rather than deep-cloning it.
    /// The caller ships the detached environment's module delta into
    /// `self.modenv` (see `ModuleEnv::into_delta` / `apply_delta`) and
    /// commits the variant's proofs to the session. Adopting warms no code
    /// cache: whoever compiled the family did (see [`warm_code_cache`]),
    /// so a memo-served family costs a map insert.
    pub fn adopt_arc(&mut self, compiled: Arc<CompiledFamily>) -> Result<()> {
        if self.families.contains_key(&compiled.name) {
            return Err(Error::new(format!(
                "family {} is already defined",
                compiled.name
            )));
        }
        self.order.push(compiled.name);
        self.families.insert(compiled.name, compiled);
        Ok(())
    }

    /// Looks up a compiled family.
    pub fn family(&self, name: &str) -> Option<&CompiledFamily> {
        self.families.get(&Symbol::new(name)).map(Arc::as_ref)
    }

    /// Families in definition order.
    pub fn names(&self) -> &[Symbol] {
        &self.order
    }

    /// The compiled families, shared, in definition order.
    pub fn families(&self) -> impl Iterator<Item = &Arc<CompiledFamily>> {
        self.order.iter().map(|name| &self.families[name])
    }

    /// `Check F.field` — returns the statement of a theorem field,
    /// qualified for display (Section 3.2's discussion of accessing fields
    /// outside a family).
    pub fn check(&self, family: &str, field: &str) -> Result<String> {
        let fam = self
            .family(family)
            .ok_or_else(|| Error::new(format!("unknown family {family}")))?;
        if let Some(prop) = fam.theorems.get(&Symbol::new(field)) {
            return Ok(crate::report::QualifiedNames::new(fam).display(field, prop));
        }
        // Function fields print their (qualified) type signature.
        if let Some(f) = fam.sig.function(Symbol::new(field)) {
            let params: Vec<String> = f
                .param_sorts()
                .iter()
                .map(|s| crate::report::qualified_sort(fam, *s))
                .collect();
            let ret = crate::report::qualified_sort(fam, f.ret_sort());
            return Ok(format!(
                "{family}.{field} : {} -> {ret}",
                params.join(" -> ")
            ));
        }
        Err(Error::new(format!(
            "family {family} has no theorem or function {field}"
        )))
    }

    /// The raw statement of a theorem in a family.
    pub fn theorem_statement(&self, family: &str, field: &str) -> Option<&Prop> {
        self.family(family)?.theorems.get(&Symbol::new(field))
    }
}

/// [`FamilyUniverse::plan`] against an empty universe: every base and
/// mixin a definition names must be an earlier entry of the batch. The
/// merges depend on the definitions alone, so they outlive any universe —
/// the lattice keeps them as a feature set's build plan.
///
/// # Errors
///
/// As for [`FamilyUniverse::plan`]; a name outside the batch is an
/// unknown base or mixin.
pub fn plan_detached<'a>(
    defs: impl IntoIterator<Item = &'a FamilyDef>,
) -> Result<Vec<MergedFamily>> {
    plan_against(&HashMap::new(), defs)
}

/// Plans a batch against `compiled` plus the earlier entries of the batch.
fn plan_against<'a>(
    compiled: &HashMap<Symbol, Arc<CompiledFamily>>,
    defs: impl IntoIterator<Item = &'a FamilyDef>,
) -> Result<Vec<MergedFamily>> {
    let mut planned: HashMap<Symbol, MergedFamily> = HashMap::new();
    let mut out = Vec::new();
    for def in defs {
        let merged = resolve_against(compiled, def, &planned, false)
            .map_err(|e| e.with_context(format!("planning family {}", def.name)))?;
        planned.insert(def.name, merged.clone());
        out.push(merged);
    }
    Ok(out)
}

/// The resolve core: looks a definition's base and mixins up first in
/// `planned`, then in `compiled`, and merges. With `allow_shadow`, a
/// definition may *reuse* the name of a compiled family: the new merge
/// shadows the old compiled one (planned entries are consulted before
/// compiled ones), which is what a replan-after-edit needs — the batch
/// redefines the whole lattice over the same names. Duplicates *within*
/// the batch are always an error.
fn resolve_against(
    compiled: &HashMap<Symbol, Arc<CompiledFamily>>,
    def: &FamilyDef,
    planned: &HashMap<Symbol, MergedFamily>,
    allow_shadow: bool,
) -> Result<MergedFamily> {
    if planned.contains_key(&def.name) || (!allow_shadow && compiled.contains_key(&def.name)) {
        return Err(Error::new(format!(
            "family {} is already defined",
            def.name
        )));
    }
    // Shape of a prior family, wherever it lives: (base, fields).
    let shape_of = |name: Symbol| -> Option<(Option<Symbol>, &[MergedField])> {
        if let Some(p) = planned.get(&name) {
            return Some((p.base, &p.fields[..]));
        }
        compiled.get(&name).map(|c| (c.base, &c.fields[..]))
    };
    let base_fields: &[MergedField] = match def.extends {
        None => {
            if !def.mixins.is_empty() {
                return Err(Error::new("`using` requires an `extends` base"));
            }
            &[]
        }
        Some(base) => {
            shape_of(base)
                .ok_or_else(|| Error::new(format!("unknown base family {base}")))?
                .1
        }
    };
    let mut mixin_deltas = Vec::new();
    for m in &def.mixins {
        let (mixin_base, mixin_fields) =
            shape_of(*m).ok_or_else(|| Error::new(format!("unknown mixin family {m}")))?;
        if mixin_base != def.extends {
            return Err(Error::new(format!(
                "mixin {m} extends {mixin_base:?}, not the composite's base {:?}",
                def.extends
            )));
        }
        let delta = delta_of(base_fields, mixin_fields)
            .map_err(|e| e.with_context(format!("delta of mixin {m}")))?;
        mixin_deltas.push((*m, delta));
    }
    merge(def, base_fields, &mixin_deltas)
}

/// Warms the session's compiled-code cache with every concrete function
/// of a freshly compiled family: one cache lookup per recursive or alias
/// function, compiling on a miss. Keys are content digests of whole call
/// graphs, so a lattice of families that close a recursion to identical
/// definitions compiles it once and every later family is a pure cache
/// hit — the same cross-family reuse channel as the proof cache. Open
/// graphs (reaching a still-abstract function) get a cached negative
/// verdict and stay on the interpreter.
///
/// Call it where a family is compiled ([`FamilyUniverse::define`], the
/// lattice build's finish step), not where a compiled family is shared
/// again: evaluation compiles on a miss anyway, so warming is only a
/// prefetch, and a family served from a memo was warmed when it ran.
pub fn warm_code_cache(session: &Session, fam: &CompiledFamily) {
    use objlang::sig::FnDef;
    for def in fam.sig.functions() {
        if matches!(def, FnDef::Rec(_) | FnDef::Alias(_)) {
            objlang::vm::precompile(&fam.sig, def.name(), session.code_cache());
        }
    }
}
