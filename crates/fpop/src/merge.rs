//! Merging a family's field script with its base and mixins.
//!
//! The merge implements three of the paper's rules:
//!
//! * **Context preservation (C3 / Section 3.4)** — the base family's field
//!   order is preserved as a subsequence of the merged order, and every
//!   extension anchors at its base position. New fields are inserted just
//!   before the next anchored field (or appended), so an inherited field's
//!   context can only *grow*. An override is re-checked at the overridden
//!   field's original position, which is what rejects the circular `f`/`g`
//!   counterexample of Section 3.4.
//! * **Mixin composition (Section 3.5)** — mixins are replayed as deltas
//!   over the shared base, in `using` order; conflicting overrides from two
//!   mixins must be resolved by an explicit override in the composite.
//! * **Further-bind bookkeeping** — the set of names extended during the
//!   merge drives the exhaustivity checks (C1) and the re-proving of
//!   reprove-on-extend lemmas downstream.

use std::collections::HashSet;
use std::sync::Arc;

use objlang::error::{Error, Result};
use objlang::ident::Symbol;

use crate::family::{FamilyDef, Field};

/// A field of a merged family, with provenance.
#[derive(Clone, PartialEq, Debug)]
pub struct MergedField {
    /// Field name.
    pub name: Symbol,
    /// The family whose check of this exact content is authoritative (for
    /// reuse accounting).
    pub origin: Symbol,
    /// Resolved content: inductives carry *all* constructors, recursions
    /// and inductions all cases, theorems their current proof.
    pub content: Field,
    /// Whether this merge changed the field relative to the base.
    pub changed: bool,
    /// Which delta last modified the field during this merge (conflict
    /// detection among mixins).
    modified_by: Option<Symbol>,
    /// The origin family the field was inherited from before this merge
    /// changed it (drives `Include Base◦field(self)` emission, Figure 5).
    pub inherited_from: Option<Symbol>,
}

/// The result of merging. Its field list and name set are allocated once,
/// by [`merge`], and never mutated: the plan, the elaboration, the compiled
/// family and every replan of an unchanged definition share them.
#[derive(Clone, PartialEq, Debug)]
pub struct MergedFamily {
    /// Family name.
    pub name: Symbol,
    /// Base family, if any.
    pub base: Option<Symbol>,
    /// Merged fields in checking order.
    pub fields: Arc<[MergedField]>,
    /// Names further bound (extended or overridden) during this merge.
    pub extended_names: Arc<HashSet<Symbol>>,
    /// [`crate::incr::def_digest`] of the definition this merge came from
    /// — carried through compilation so a later replan can recognize an
    /// unchanged def and skip re-merging it.
    pub def_digest: u64,
    /// [`crate::incr::source_digest`] of `name`, `base` and `fields`,
    /// computed once by [`merge`] for fingerprints and replan diffs.
    pub src_digest: u64,
}

/// Merges `own` with the base field list and the mixin deltas.
///
/// `base_fields` is the compiled base's merged field list (empty for root
/// families). `mixin_deltas` are the deltas of each mixin relative to the
/// same base (see [`delta_of`]), in `using` order.
pub fn merge(
    own: &FamilyDef,
    base_fields: &[MergedField],
    mixin_deltas: &[(Symbol, Vec<Field>)],
) -> Result<MergedFamily> {
    let mut fields: Vec<MergedField> = base_fields
        .iter()
        .map(|f| MergedField {
            modified_by: None,
            changed: false,
            inherited_from: None,
            ..f.clone()
        })
        .collect();
    let mut extended = HashSet::new();
    for (mixin_name, delta) in mixin_deltas {
        apply_delta(&mut fields, &mut extended, *mixin_name, delta, false)
            .map_err(|e| e.with_context(format!("mixin {mixin_name}")))?;
    }
    apply_delta(&mut fields, &mut extended, own.name, &own.fields, true)
        .map_err(|e| e.with_context(format!("family {}", own.name)))?;
    Ok(MergedFamily {
        name: own.name,
        base: own.extends,
        src_digest: crate::incr::source_digest(own.name, own.extends, &fields),
        fields: fields.into(),
        extended_names: Arc::new(extended),
        def_digest: crate::incr::def_digest(own),
    })
}

fn apply_delta(
    fields: &mut Vec<MergedField>,
    extended: &mut HashSet<Symbol>,
    owner: Symbol,
    delta: &[Field],
    is_own: bool,
) -> Result<()> {
    let mut cursor = 0usize;
    let mut pending: Vec<MergedField> = Vec::new();
    for f in delta {
        if f.is_extension() {
            let name = f.name();
            let idx = fields
                .iter()
                .position(|mf| mf.name == name)
                .ok_or_else(|| Error::new(format!("cannot further bind unknown field {name}")))?;
            if idx < cursor {
                return Err(Error::new(format!(
                    "field {name} is further bound out of order; the base family's \
                     field order must be preserved (context preservation, §3.4)"
                )));
            }
            // Insert pending new fields just before the anchor.
            let n_pending = pending.len();
            for (k, p) in pending.drain(..).enumerate() {
                fields.insert(idx + k, p);
            }
            let idx = idx + n_pending;
            merge_into(&mut fields[idx], f, owner, is_own)?;
            extended.insert(name);
            cursor = idx + 1;
        } else {
            let name = f.name();
            if fields.iter().any(|mf| mf.name == name) || pending.iter().any(|mf| mf.name == name) {
                return Err(Error::new(format!(
                    "field {name} already exists; mixin name conflicts must be \
                     resolved by overriding (§3.5)"
                )));
            }
            pending.push(MergedField {
                name,
                origin: owner,
                content: f.clone(),
                changed: true,
                modified_by: Some(owner),
                inherited_from: None,
            });
        }
    }
    fields.extend(pending);
    Ok(())
}

fn merge_into(mf: &mut MergedField, ext: &Field, owner: Symbol, is_own: bool) -> Result<()> {
    if matches!(
        ext,
        Field::OverrideTheorem { .. } | Field::OverrideDefinition { .. }
    ) {
        check_override_conflict(mf, owner, is_own)?;
    }
    match (&mut mf.content, ext) {
        (Field::Inductive { ctors, .. }, Field::InductiveExt { ctors: added, .. }) => {
            for c in added {
                if ctors.iter().any(|x| x.name == c.name) {
                    return Err(Error::new(format!(
                        "constructor {} already exists in {}",
                        c.name, mf.name
                    )));
                }
            }
            ctors.extend(added.iter().cloned());
        }
        (Field::Predicate { rules, .. }, Field::PredicateExt { rules: added, .. }) => {
            for r in added {
                if rules.iter().any(|x| x.name == r.name) {
                    return Err(Error::new(format!(
                        "rule {} already exists in {}",
                        r.name, mf.name
                    )));
                }
            }
            rules.extend(added.iter().cloned());
        }
        (Field::Recursion { cases, .. }, Field::RecursionExt { cases: added, .. }) => {
            for c in added {
                if cases.iter().any(|x| x.ctor == c.ctor) {
                    return Err(Error::new(format!(
                        "recursion {} already handles case {}",
                        mf.name, c.ctor
                    )));
                }
            }
            cases.extend(added.iter().cloned());
        }
        (Field::DataInduction { cases, .. }, Field::DataInductionExt { cases: added, .. }) => {
            for (r, _) in added {
                if cases.iter().any(|(x, _)| x == r) {
                    return Err(Error::new(format!(
                        "induction {} already handles case {r}",
                        mf.name
                    )));
                }
            }
            cases.extend(added.iter().cloned());
        }
        (Field::Induction { cases, .. }, Field::InductionExt { cases: added, .. }) => {
            for (r, _) in added {
                if cases.iter().any(|(x, _)| x == r) {
                    return Err(Error::new(format!(
                        "induction {} already handles case {r}",
                        mf.name
                    )));
                }
            }
            cases.extend(added.iter().cloned());
        }
        (Field::Theorem { proof, .. }, Field::OverrideTheorem { proof: newp, .. }) => {
            *proof = newp.clone();
        }
        (
            Field::Parameter {
                name,
                statement,
                hint,
            },
            Field::OverrideTheorem { proof: newp, .. },
        ) => {
            mf.content = Field::Theorem {
                name: *name,
                statement: statement.clone(),
                proof: newp.clone(),
                hint: *hint,
            };
        }
        (Field::Definition { alias, overridable }, Field::OverrideDefinition { alias: newa }) => {
            if !*overridable {
                return Err(Error::new(format!(
                    "definition {} is transparent and not marked Overridable; \
                     it cannot be overridden (§3.3)",
                    mf.name
                )));
            }
            if alias.params.iter().map(|(_, s)| *s).collect::<Vec<_>>()
                != newa.params.iter().map(|(_, s)| *s).collect::<Vec<_>>()
                || alias.ret != newa.ret
            {
                return Err(Error::new(format!(
                    "override of {} changes the definition's type",
                    mf.name
                )));
            }
            *alias = newa.clone();
        }
        (Field::AbstractFn { name, params, ret }, Field::OverrideDefinition { alias: newa }) => {
            if *params != newa.params.iter().map(|(_, s)| *s).collect::<Vec<_>>()
                || *ret != newa.ret
            {
                return Err(Error::new(format!(
                    "further binding of abstract function {name} changes its type"
                )));
            }
            mf.content = Field::Definition {
                alias: newa.clone(),
                overridable: true,
            };
        }
        (have, want) => {
            return Err(Error::new(format!(
                "field {} cannot be further bound this way (have {have:?}, \
                 extension {want:?})",
                mf.name
            )))
        }
    }
    if mf.inherited_from.is_none() && mf.origin != owner {
        mf.inherited_from = Some(mf.origin);
    }
    mf.origin = owner;
    mf.changed = true;
    mf.modified_by = Some(owner);
    Ok(())
}

fn check_override_conflict(mf: &MergedField, owner: Symbol, is_own: bool) -> Result<()> {
    if let Some(prev) = mf.modified_by {
        if !is_own && prev != owner {
            return Err(Error::new(format!(
                "mixin conflict on field {}: already overridden by {prev}; \
                 resolve by overriding in the composite family (§3.5)",
                mf.name
            )));
        }
    }
    Ok(())
}

/// Computes the delta of a compiled family's merged fields relative to its
/// base's — the field script that, replayed over the base, reproduces the
/// family. Used to apply mixins (Section 3.5 views a family as a
/// family-to-family function).
pub fn delta_of(base_fields: &[MergedField], fam_fields: &[MergedField]) -> Result<Vec<Field>> {
    let mut out = Vec::new();
    for mf in fam_fields {
        match base_fields.iter().find(|b| b.name == mf.name) {
            None => out.push(mf.content.clone()),
            Some(b) if b.content == mf.content => {}
            Some(b) => out.push(diff_field(&b.content, &mf.content)?),
        }
    }
    Ok(out)
}

fn diff_field(base: &Field, derived: &Field) -> Result<Field> {
    let name = derived.name();
    match (base, derived) {
        (Field::Inductive { ctors: b, .. }, Field::Inductive { ctors: d, .. }) => {
            ensure_prefix(
                b.len(),
                d.len(),
                &name,
                b.iter().zip(d).all(|(x, y)| x == y),
            )?;
            Ok(Field::InductiveExt {
                name,
                ctors: d[b.len()..].to_vec(),
            })
        }
        (Field::Predicate { rules: b, .. }, Field::Predicate { rules: d, .. }) => {
            ensure_prefix(
                b.len(),
                d.len(),
                &name,
                b.iter().zip(d).all(|(x, y)| x == y),
            )?;
            Ok(Field::PredicateExt {
                name,
                rules: d[b.len()..].to_vec(),
            })
        }
        (Field::Recursion { cases: b, .. }, Field::Recursion { cases: d, .. }) => {
            ensure_prefix(
                b.len(),
                d.len(),
                &name,
                b.iter().zip(d).all(|(x, y)| x == y),
            )?;
            Ok(Field::RecursionExt {
                name,
                cases: d[b.len()..].to_vec(),
            })
        }
        (Field::Induction { cases: b, .. }, Field::Induction { cases: d, .. }) => {
            ensure_prefix(
                b.len(),
                d.len(),
                &name,
                b.iter().zip(d).all(|(x, y)| x == y),
            )?;
            Ok(Field::InductionExt {
                name,
                cases: d[b.len()..].to_vec(),
            })
        }
        (Field::DataInduction { cases: b, .. }, Field::DataInduction { cases: d, .. }) => {
            ensure_prefix(
                b.len(),
                d.len(),
                &name,
                b.iter().zip(d).all(|(x, y)| x == y),
            )?;
            Ok(Field::DataInductionExt {
                name,
                cases: d[b.len()..].to_vec(),
            })
        }
        (Field::Theorem { .. }, Field::Theorem { proof, .. })
        | (Field::Parameter { .. }, Field::Theorem { proof, .. }) => Ok(Field::OverrideTheorem {
            name,
            proof: proof.clone(),
        }),
        (Field::Definition { .. }, Field::Definition { alias, .. })
        | (Field::AbstractFn { .. }, Field::Definition { alias, .. }) => {
            Ok(Field::OverrideDefinition {
                alias: alias.clone(),
            })
        }
        _ => Err(Error::new(format!(
            "cannot compute mixin delta for field {name}: incompatible shapes"
        ))),
    }
}

fn ensure_prefix(blen: usize, dlen: usize, name: &Symbol, prefix_eq: bool) -> Result<()> {
    if dlen < blen || !prefix_eq {
        return Err(Error::new(format!(
            "field {name}: derived content does not extend the base content"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::ProofSpec;
    use objlang::sig::CtorSig;
    use objlang::sym;
    use objlang::syntax::Prop;

    fn base() -> Arc<[MergedField]> {
        let f = FamilyDef::new("Base")
            .inductive("tm", vec![CtorSig::new("c1", vec![])])
            .theorem("thm", Prop::True, vec![]);
        merge(&f, &[], &[]).unwrap().fields
    }

    #[test]
    fn root_merge_keeps_order() {
        let fields = base();
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].name, sym("tm"));
        assert!(fields[0].changed);
        assert_eq!(fields[0].origin, sym("Base"));
    }

    #[test]
    fn extension_anchors_at_base_position() {
        let b = base();
        let d = FamilyDef::extending("D", "Base")
            .data("helper", vec![CtorSig::new("h1", vec![])])
            .extend_inductive("tm", vec![CtorSig::new("c2", vec![])]);
        let m = merge(&d, &b, &[]).unwrap();
        // helper inserted before tm's anchor.
        let names: Vec<Symbol> = m.fields.iter().map(|f| f.name).collect();
        assert_eq!(names, vec![sym("helper"), sym("tm"), sym("thm")]);
        assert!(m.extended_names.contains(&sym("tm")));
        match &m.fields[1].content {
            Field::Inductive { ctors, .. } => assert_eq!(ctors.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        // thm inherited unchanged.
        assert!(!m.fields[2].changed);
        assert_eq!(m.fields[2].origin, sym("Base"));
    }

    #[test]
    fn out_of_order_extension_rejected() {
        let b = base();
        let d = FamilyDef::extending("D", "Base")
            .override_theorem("thm", vec![])
            .extend_inductive("tm", vec![CtorSig::new("c2", vec![])]);
        let err = merge(&d, &b, &[]).unwrap_err();
        assert!(format!("{err}").contains("out of order"));
    }

    #[test]
    fn duplicate_new_field_rejected() {
        let b = base();
        let d = FamilyDef::extending("D", "Base").inductive("tm", vec![]);
        assert!(merge(&d, &b, &[]).is_err());
    }

    #[test]
    fn mixin_override_conflict_detected() {
        let b = base();
        let m1 = (
            sym("M1"),
            vec![Field::OverrideTheorem {
                name: sym("thm"),
                proof: ProofSpec::Script(vec![].into()),
            }],
        );
        let m2 = (
            sym("M2"),
            vec![Field::OverrideTheorem {
                name: sym("thm"),
                proof: ProofSpec::Script(vec![].into()),
            }],
        );
        let d = FamilyDef::extending_with("D", "Base", &["M1", "M2"]);
        let err = merge(&d, &b, &[m1, m2]).unwrap_err();
        assert!(format!("{err}").contains("conflict"));
    }

    #[test]
    fn own_override_resolves_conflict() {
        let b = base();
        let m1 = (
            sym("M1"),
            vec![Field::OverrideTheorem {
                name: sym("thm"),
                proof: ProofSpec::Script(vec![].into()),
            }],
        );
        let d = FamilyDef::extending_with("D", "Base", &["M1"]).override_theorem("thm", vec![]);
        // Own override over a mixin's override is allowed.
        merge(&d, &b, &[m1]).unwrap();
    }

    #[test]
    fn mixin_ctor_extensions_union() {
        let b = base();
        let m1 = (
            sym("M1"),
            vec![Field::InductiveExt {
                name: sym("tm"),
                ctors: vec![CtorSig::new("c2", vec![])],
            }],
        );
        let m2 = (
            sym("M2"),
            vec![Field::InductiveExt {
                name: sym("tm"),
                ctors: vec![CtorSig::new("c3", vec![])],
            }],
        );
        let d = FamilyDef::extending_with("D", "Base", &["M1", "M2"]);
        let m = merge(&d, &b, &[m1, m2]).unwrap();
        match &m.fields[0].content {
            Field::Inductive { ctors, .. } => {
                let names: Vec<&str> = ctors.iter().map(|c| c.name.as_str()).collect();
                assert_eq!(names, vec!["c1", "c2", "c3"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delta_roundtrip() {
        let b = base();
        let d = FamilyDef::extending("D", "Base")
            .extend_inductive("tm", vec![CtorSig::new("c2", vec![])])
            .theorem("extra", Prop::True, vec![]);
        let m = merge(&d, &b, &[]).unwrap();
        let delta = delta_of(&b, &m.fields).unwrap();
        assert_eq!(delta.len(), 2);
        assert!(matches!(delta[0], Field::InductiveExt { .. }));
        assert!(matches!(delta[1], Field::Theorem { .. }));
        // Replaying the delta over the base reproduces the merged fields.
        let replay = FamilyDef {
            name: sym("D2"),
            extends: Some(sym("Base")),
            mixins: vec![],
            fields: delta,
        };
        let m2 = merge(&replay, &b, &[]).unwrap();
        assert_eq!(
            m.fields
                .iter()
                .map(|f| (f.name, f.content.clone()))
                .collect::<Vec<_>>(),
            m2.fields
                .iter()
                .map(|f| (f.name, f.content.clone()))
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn nonoverridable_definition_protected() {
        let f = FamilyDef::new("Base").definition(objlang::sig::AliasFn {
            name: sym("d"),
            params: vec![],
            ret: objlang::syntax::Sort::named("bool"),
            body: objlang::Term::c0("true"),
        });
        let b = merge(&f, &[], &[]).unwrap().fields;
        let d = FamilyDef::extending("D", "Base").override_definition(objlang::sig::AliasFn {
            name: sym("d"),
            params: vec![],
            ret: objlang::syntax::Sort::named("bool"),
            body: objlang::Term::c0("false"),
        });
        let err = merge(&d, &b, &[]).unwrap_err();
        assert!(format!("{err}").contains("Overridable"));
    }
}
